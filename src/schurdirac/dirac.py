"""Discretized radial Dirac-Coulomb channels in 2x2 block form.

A partial-wave channel with spin-orbit number kappa and Coulomb coupling
nu (potential V = -nu/r) becomes, after shifting the spectrum by the
constant gamma - 1 and rescaling to natural units hbar = c = m = 1,

    P = diag(V + 2 - gamma),  S = diag(gamma - V),  T = D + kappa/r,

where D is a one-sided first-difference matrix on the radial grid with
homogeneous truncation at both ends.  The samples carry quadrature
weights (u_j ~ sqrt(h_j) u(r_j)), so the plain transpose of T is the
discrete adjoint of the continuum derivative even on non-uniform grids;
on a uniform grid D reduces to the classic forward difference.  Physical
Dirac energies are recovered as E = lambda(H) + gamma - 1 and validated
against the Sommerfeld fine-structure formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .blockop import (
    BlockOperator,
    _is_integer,
    assemble,
    find_c2,
    positivity_margin,
)
from .errors import (
    BadRange,
    HypothesisFailed,
    InvalidQuantumNumbers,
    NoConvergence,
    SchurDiracError,
)
from .solver import gap_eigenvalues

__all__ = [
    "RadialGrid",
    "DiracChannelSpec",
    "AdmissibilityReport",
    "SweepCell",
    "SweepReport",
    "CSV_COLUMNS",
    "build_grid",
    "build_channel",
    "check_admissibility",
    "sommerfeld_energy",
    "channel_spectrum",
    "hardy_sweep",
    "c2_consistency",
]

# Fixed report schema shared by the sweep table and the CLI writers.
CSV_COLUMNS = (
    "nu",
    "grid_N",
    "grid_scheme",
    "margin",
    "c2_numeric",
    "c2_analytic",
    "e1_numeric",
    "e1_analytic",
)

_SCHEMES = ("uniform", "logarithmic")
# Coupling band accepted at channel construction; the sharp admissible
# range is nu <= 1, and a short supercritical margin band is allowed so
# sweeps can straddle the boundary.
NU_MAX = 1.2


def _check_grid_size(N) -> None:
    if not _is_integer(N) or N < 2:
        raise BadRange(f"N = {N!r} must be an integer >= 2")


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing nodes on (0, r_max] with scheme metadata.

    Production accuracy wants N in the hundreds or more; N >= 2 is
    accepted so that small hand-checked cases remain constructible.
    """

    scheme: str
    N: int
    r_min: float
    r_max: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise BadRange(f"unknown grid scheme {self.scheme!r}")
        _check_grid_size(self.N)
        nodes = np.array(self.nodes, dtype=np.float64).ravel()
        if nodes.shape[0] != self.N:
            raise BadRange(f"need N = {self.N} nodes, got {nodes.shape[0]}")
        if not np.all(np.isfinite(nodes)):
            raise BadRange("nodes must be finite")
        if not np.all(np.diff(nodes) > 0.0):
            raise BadRange("nodes must be strictly increasing")
        if nodes[0] != self.r_min or nodes[-1] != self.r_max:
            raise BadRange("endpoint nodes must equal r_min and r_max")
        if self.r_min <= 0.0:
            raise BadRange(f"r_min = {self.r_min:.6g} must be positive")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def forward_spacings(self) -> np.ndarray:
        """h_j = r_{j+1} - r_j, with a scheme-consistent ghost spacing at the top."""
        d = np.diff(self.nodes)
        if self.scheme == "logarithmic":
            ghost = self.nodes[-1] * (self.nodes[-1] / self.nodes[-2] - 1.0)
        else:
            ghost = d[-1]
        return np.append(d, ghost)


@dataclass(frozen=True)
class DiracChannelSpec:
    """(kappa, nu, gamma): partial-wave channel parameters.

    kappa is the nonzero spin-orbit quantum number, nu the Coulomb
    coupling (sup of r|V|), and gamma the finite, positive spectral shift
    placing the gap; the sharp coupling range is nu <= 1 and construction
    accepts nu up to NU_MAX so supercritical sweeps remain expressible.
    """

    kappa: int
    nu: float
    gamma: float

    def __post_init__(self):
        if not _is_integer(self.kappa) or self.kappa == 0:
            raise InvalidQuantumNumbers(
                f"kappa must be a nonzero integer, got {self.kappa!r}"
            )
        if not 0.0 < self.nu <= NU_MAX:
            raise HypothesisFailed(
                f"coupling nu = {self.nu:.6g} outside the admissible band "
                f"(0, {NU_MAX}]; the sharp range is nu <= 1"
            )
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise HypothesisFailed(
                f"gamma = {self.gamma:.6g} must be finite and positive "
                "(slightly above sup V = 0)"
            )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Coupling bound and local-integrability study for one channel.

    integral_estimates[i] is the square integral of (gamma - V)^{-2} V'(r)
    over (cutoff[i], 1) with radial weight r^2, in closed form;
    integral_bounded records that the part below the smallest cutoff is
    at most 1e-6 (1 + limit), limit being the exact value as the cutoff
    goes to 0, so the sequence has settled.  For sampled potentials only
    the coupling sup is reported and integral_bounded is None.
    """

    coupling_sup: float
    coupling_ok: bool
    integral_cutoffs: tuple[float, ...] = ()
    integral_estimates: tuple[float, ...] = ()
    integral_bounded: bool | None = None


@dataclass(frozen=True)
class SweepCell:
    """One (nu, grid) cell of a sweep or convergence table."""

    nu: float
    grid_N: int
    grid_scheme: str
    margin: float | None = None
    c2_numeric: float | None = None
    c2_analytic: float | None = None
    e1_numeric: float | None = None
    e1_analytic: float | None = None
    grid_r_min: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    """Tabulated margins per (nu, grid) with the estimated critical coupling.

    Cells appear in input order, nu-major, so margins at fixed nu sit
    adjacently across the grid refinement; nu_star is the smallest nu
    whose margin is negative on the finest (last) grid, None if the
    margin stays nonnegative throughout.
    """

    kappa: int
    gamma: float
    cells: tuple[SweepCell, ...]
    nu_star: float | None

    def margins_for(self, nu: float) -> tuple[float | None, ...]:
        """Margins at one nu, ordered coarse to fine across the grids."""
        return tuple(c.margin for c in self.cells if c.nu == nu)


def build_grid(scheme: str, N: int, r_min: float, r_max: float) -> RadialGrid:
    """Uniform or logarithmic (constant-ratio) grid of N nodes on [r_min, r_max].

    Raises BadRange for a nonpositive r_min, r_max <= r_min, a
    non-finite end, N < 2, or an unknown scheme.
    """
    if scheme not in _SCHEMES:
        raise BadRange(f"unknown grid scheme {scheme!r}")
    _check_grid_size(N)
    if r_min <= 0.0 or r_max <= r_min:
        raise BadRange(f"need 0 < r_min < r_max, got r_min={r_min:.6g} r_max={r_max:.6g}")
    # NaN passes the comparisons above, and numpy would warn on an infinite end
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise BadRange(f"r_min and r_max must be finite, got r_min={r_min:.6g} r_max={r_max:.6g}")
    if scheme == "uniform":
        nodes = np.linspace(r_min, r_max, N)
    else:
        nodes = np.geomspace(r_min, r_max, N)
    return RadialGrid(scheme=scheme, N=int(N), r_min=float(r_min), r_max=float(r_max), nodes=nodes)


def _sample_potential(spec: DiracChannelSpec, grid: RadialGrid, potential) -> np.ndarray:
    if potential is None:
        return -spec.nu / grid.nodes
    if callable(potential):
        v = np.asarray(potential(grid.nodes), dtype=np.float64)
    else:
        v = np.asarray(potential, dtype=np.float64).ravel()
    if v.shape[0] != grid.N:
        raise BadRange(f"sampled potential has {v.shape[0]} values, grid has {grid.N}")
    if not np.all(np.isfinite(v)):
        raise BadRange("sampled potential has a non-finite value")
    return v


def _banded_csr(n: int, diagonals, offsets) -> sp.csr_matrix:
    """The n x n CSR matrix with diagonals[j] at offset offsets[j], offsets ascending.

    Diagonal k >= 0 starts in row 0 and k < 0 in row -k.  Row by row,
    columns ascending, exact zeros (-0.0 too) dropped: the arrays
    scipy.sparse.diags(diagonals, offsets).tocsr() stores, written
    directly.
    """
    k = len(offsets)
    values = np.zeros((n, k))
    columns = np.empty((n, k), dtype=np.int32)
    rows = np.arange(n, dtype=np.int32)
    for j, (offset, diagonal) in enumerate(zip(offsets, diagonals)):
        values[max(-offset, 0) : n - max(offset, 0), j] = diagonal
        np.add(rows, offset, out=columns[:, j])
    # slots past the end of a diagonal hold 0.0 and are dropped with the zeros
    keep = (values != 0.0).ravel()
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(keep, dtype=np.int32)[k - 1 :: k]
    return sp.csr_matrix((values.ravel()[keep], columns.ravel()[keep], indptr), shape=(n, n))


def build_channel(
    spec: DiracChannelSpec, grid: RadialGrid, potential=None
) -> BlockOperator:
    """Assemble the block operator of one radial channel.

    P = diag(V + 2 - gamma) and S = diag(gamma - V) are multiplication
    operators; T = D + kappa*diag(1/r) with the weighted one-sided
    difference D (diagonal -1/h_j, superdiagonal 1/sqrt(h_j h_{j+1})),
    truncating homogeneously at both ends.  The upper right block of H
    is T^t by definition, never an approximation.  Each block's CSR
    arrays are written from its diagonals, exact zeros dropped.  For
    the built-in Coulomb potential c1 = gamma is certified; a sampled
    potential must keep gamma - V positive and gets c1 computed from
    the samples.
    """
    r = grid.nodes
    # below about 1e-162 h_j h_{j+1} underflows to 0, below about 1e-308 nu/r and
    # 1/h overflow: assemble refuses the infinite entry by the name of its block
    with np.errstate(all="ignore"):
        v = _sample_potential(spec, grid, potential)
        h = grid.forward_spacings()
        P = _banded_csr(grid.N, [v + 2.0 - spec.gamma], [0])
        T = _banded_csr(grid.N, [-1.0 / h + spec.kappa / r, 1.0 / np.sqrt(h[:-1] * h[1:])], [0, 1])
        S = _banded_csr(grid.N, [spec.gamma - v], [0])

    c1_policy = spec.gamma if potential is None else "compute"
    return assemble(P, T, S, c1_policy=c1_policy)


def check_admissibility(
    spec: DiracChannelSpec, grid: RadialGrid, potential=None
) -> AdmissibilityReport:
    """Report the coupling bound sup r|V| and a local-integrability study.

    The coupling sup is taken over grid nodes; coupling_ok records
    whether it stays within the sharp band (<= 1).  For the built-in
    Coulomb potential the report adds the square integral of
    (gamma - V)^{-2} V' r over (a, 1) for shrinking inner cutoffs a, in
    the exact closed form (nu/3) [(1/(gamma + nu))^3 - (a/(gamma a + nu))^3]
    with no numerical quadrature.  integral_bounded compares the last
    estimate with the exact limit (nu/3)/(gamma + nu)^3 (report-only,
    nothing is asserted).  BadRange if r |V| overflows at a node, as
    the built-in -nu/r does below r of about 1e-308.
    """
    with np.errstate(over="ignore"):
        v = _sample_potential(spec, grid, potential)
        sup = float(np.max(np.abs(grid.nodes * v)))
    if not math.isfinite(sup):
        raise BadRange(f"r |V| overflows on the grid (r_min = {grid.r_min:.6g})")
    ok = bool(sup <= 1.0 + 1e-12)
    if potential is not None:
        return AdmissibilityReport(coupling_sup=sup, coupling_ok=ok)

    nu, gamma = spec.nu, spec.gamma
    # The integrand nu^2 r^2 / (gamma r + nu)^4 has the antiderivative
    # (nu/3) (r / (gamma r + nu))^3.  With x = 1/(gamma + nu), z =
    # 1/(gamma a + nu) and y = a z, the difference x^3 - y^3 is taken as
    # (x - y)(x^2 + x y + y^2) with x - y = nu (1 - a) x z: every factor
    # is positive, so nothing cancels even as nu -> 0.
    cutoffs = tuple(10.0 ** (-j) for j in range(1, 7))
    x = 1.0 / (gamma + nu)
    estimates = []
    for a in cutoffs:
        z = 1.0 / (gamma * a + nu)
        y = a * z
        estimates.append(nu * nu * (1.0 - a) * x * z * (x * x + x * y + y * y) / 3.0)
    # what lies below the smallest cutoff is (nu/3) y^3, against the limit
    # (nu/3) x^3: the integral counts as bounded once that rest is within
    # 1e-6 (1 + limit), i.e. the cutoffs resolve the integrand's scale nu/gamma
    rest, limit = nu * y**3 / 3.0, nu * x**3 / 3.0
    bounded = bool(rest <= 1e-6 * (1.0 + limit))
    return AdmissibilityReport(
        coupling_sup=sup,
        coupling_ok=ok,
        integral_cutoffs=cutoffs,
        integral_estimates=tuple(estimates),
        integral_bounded=bounded,
    )


def _n_min(kappa: int) -> int:
    """Principal quantum number of the lowest level of channel kappa."""
    return abs(kappa) if kappa < 0 else kappa + 1


def sommerfeld_energy(n: int, kappa: int, nu: float) -> float:
    """Analytic bound-state energy E_n in units of the rest energy.

    E = [1 + nu^2 / (n - |kappa| + sqrt(kappa^2 - nu^2))^2]^{-1/2},
    valid for 0 <= nu < |kappa| with n >= |kappa| for kappa < 0 and
    n >= kappa + 1 for kappa > 0.
    """
    if not (_is_integer(n) and _is_integer(kappa)):
        raise InvalidQuantumNumbers(f"n and kappa must be integers, got {n!r}, {kappa!r}")
    if kappa == 0:
        raise InvalidQuantumNumbers("kappa must be nonzero")
    if not 0.0 <= nu < abs(kappa):
        raise InvalidQuantumNumbers(
            f"need 0 <= nu < |kappa|, got nu = {nu:.6g}, kappa = {kappa}"
        )
    n_min = _n_min(kappa)
    if n < n_min:
        raise InvalidQuantumNumbers(f"n = {n} below the minimum {n_min} for kappa = {kappa}")
    root = math.sqrt(kappa * kappa - nu * nu)
    denom = n - abs(kappa) + root
    return 1.0 / math.sqrt(1.0 + (nu / denom) ** 2)


def _highfreq_fraction(u: np.ndarray, v: np.ndarray) -> float:
    """Energy fraction of grid-scale oscillation in an eigenvector pair."""

    def rough(x: np.ndarray) -> float:
        if x.shape[0] < 3:
            return 0.0
        z = (2.0 * x[1:-1] - x[:-2] - x[2:]) / 4.0
        return float(z @ z)

    total = float(u @ u + v @ v)
    if total == 0.0:
        return 0.0
    return (rough(u) + rough(v)) / total


def channel_spectrum(
    spec: DiracChannelSpec, grid: RadialGrid, k: int, tol: float = 1e-8
) -> list[float]:
    """The k lowest physical energies of the channel above the gap floor.

    Eigenvalues of H strictly above 0 are selected by index, N+1, N+2, ...
    (one Sturm bisection on the interleaved tridiagonal H, at every N),
    eigenvectors with high-frequency energy fraction above 0.5 are
    discarded as discretization artifacts and replaced by the next
    eigenvalues, and the survivors are reported as physical Dirac
    energies E = lambda + gamma - 1.  A channel whose base form M_0 is
    not positive semidefinite (every kappa > 0 channel today) raises
    HypothesisFailed at every N.
    """
    return _spectrum_of(build_channel(spec, grid), spec, k, tol)


def _spectrum_of(
    B: BlockOperator, spec: DiracChannelSpec, k: int, tol: float
) -> list[float]:
    """channel_spectrum on the already built channel operator B."""
    if not _is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    # bounds the work when the filter keeps discarding: at most 2(k + 4)
    # pairs are examined, and never more than the 2N that H has
    limit = min(2 * (k + 4), 2 * B.N)
    request = min(k, limit)
    while True:
        pairs = gap_eigenvalues(B, 0.0, request, tol, which="above")
        kept = [lam for lam, sv in pairs if _highfreq_fraction(sv.u, sv.v) <= 0.5]
        if len(kept) >= k or request >= limit:
            break
        request = min(request + k - len(kept), limit)
    if len(kept) < k:
        raise NoConvergence(
            f"only {len(kept)} clean eigenvalues above the gap floor (wanted {k})"
        )
    return [lam + spec.gamma - 1.0 for lam in kept[:k]]


def hardy_sweep(
    kappa: int,
    nu_values: list[float],
    gamma: float,
    grids: list[RadialGrid],
) -> SweepReport:
    """Positivity margins over a (nu, grid) table, with the critical coupling.

    Grids are taken coarse to fine in input order; the last is treated
    as finest, and nu_star reads only its cells, by position (two grids
    may share N and r_min).  Per-cell failures (for example a coupling
    outside the constructible band) are recorded on the cell, never
    raised.
    """
    if not nu_values or not grids:
        raise ValueError("nu_values and grids must be nonempty")
    cells: list[SweepCell] = []
    for nu in nu_values:
        for g in grids:
            base = dict(
                nu=float(nu), grid_N=g.N, grid_scheme=g.scheme, grid_r_min=g.r_min
            )
            try:
                spec = DiracChannelSpec(kappa=kappa, nu=float(nu), gamma=gamma)
                B = build_channel(spec, g)
                cells.append(SweepCell(margin=positivity_margin(B, 0.0), **base))
            except SchurDiracError as exc:
                cells.append(SweepCell(error=str(exc), **base))
    # cells are nu-major, so the finest grid's cells are every len(grids)-th
    finest = cells[len(grids) - 1 :: len(grids)]
    negative = [c.nu for c in finest if c.margin is not None and c.margin < 0.0]
    nu_star = min(negative) if negative else None
    return SweepReport(kappa=kappa, gamma=gamma, cells=tuple(cells), nu_star=nu_star)


def c2_consistency(
    spec: DiracChannelSpec, grid: RadialGrid, tol: float = 1e-8
) -> tuple[float, float, float]:
    """Critical constant of the channel against its analytic value.

    Returns (c2_numeric, c2_analytic, diff) with the analytic sharp
    constant c2* = E_{n_min} + 1 - gamma, the lowest gap eigenvalue in the
    shifted convention: E_{n_min} is the Sommerfeld energy of the lowest
    level, n_min = |kappa| for kappa < 0 and kappa + 1 for kappa > 0
    (c2* = 1 + sqrt(1 - nu^2) - gamma for kappa = -1), and diff =
    c2_numeric - c2_analytic.  c2_numeric is find_c2's, certified at
    every N by two O(N) L D L^t factorizations (CheckFailed otherwise);
    see find_c2 for the width t of that certificate.  nu > 1 raises
    HypothesisFailed: c2* is the sharp constant for nu <= 1 only.
    """
    return _c2_of(build_channel(spec, grid), spec, tol)


def _c2_of(B: BlockOperator, spec: DiracChannelSpec, tol: float) -> tuple[float, float, float]:
    """c2_consistency on the already built channel operator B."""
    if spec.nu > 1.0:
        raise HypothesisFailed(
            f"the analytic sharp constant requires nu <= 1, got {spec.nu:.6g}"
        )
    c2n = find_c2(B, tol)
    kappa, nu = spec.kappa, spec.nu
    # E_{n_min} = sqrt(kappa^2 - nu^2)/|kappa| for kappa < 0: 0 at nu = |kappa|,
    # the one coupling sommerfeld_energy refuses
    if kappa < 0 and nu == -kappa:
        e_min = 0.0
    else:
        e_min = sommerfeld_energy(_n_min(kappa), kappa, nu)
    c2a = e_min + 1.0 - spec.gamma
    return c2n, c2a, c2n - c2a
