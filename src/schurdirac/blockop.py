"""Symmetric indefinite 2x2 block operators and their Schur-complement forms.

A block operator

    H = [[P,  Q],
         [T, -S]]

with Q = T^t, P = P^t, S = S^t and S >= c1*I > 0 admits the family of
reduced quadratic forms

    q_alpha(u, u) = ((S + alpha)^{-1} T u, T u) + ((P - alpha) u, u),

whose matrix M_alpha = (P - alpha*I) + T^t (S + alpha*I)^{-1} T is, at
alpha = 0, the Schur complement of -S in H.  The smallest eigenvalue of
M_alpha (the positivity margin) decreases in alpha with slope <= -1,
which brackets the critical constant c2 = max{alpha >= 0 : M_alpha >= 0}
and, by inertia additivity, identifies c2 with the (N+1)-th smallest
eigenvalue of H.  This module builds the operators, evaluates the forms,
locates c2, and certifies the associated scale-of-spaces inequalities.

All matrices are real; blocks are stored in CSR form with read-only
buffers and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, eigvals_banded
from scipy.linalg.lapack import dlamch, dstebz
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh, splu

from .errors import (
    DeltaOutOfRange,
    DimensionMismatch,
    HypothesisFailed,
    NegativeAlpha,
    NoConvergence,
    NonPositiveS,
    TooLarge,
    ValidationError,
)

# Dimension below which eigenvalue problems go straight to dense LAPACK.
DENSE_EIG_CAP = 600
# Maximum half-bandwidth routed to the banded eigensolver.
MAX_BANDWIDTH = 64
# Default cap on 2N for the dense inertia oracle.
DENSE_ORACLE_CAP = 1000
# Relative coefficient of the positive-semidefinite acceptance tolerance.
PSD_COEFF = 1e-9

__all__ = [
    "BlockOperator",
    "StateVector",
    "FormReport",
    "assemble",
    "apply",
    "full_matrix",
    "schur_form_matrix",
    "form_report",
    "positivity_margin",
    "find_c2",
    "inertia_c2_oracle",
    "embedding_delta",
    "resolvent_difference_check",
    "psd_tolerance",
    "matrix_to_text",
    "matrix_from_text",
    "operator_to_text",
    "operator_from_text",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    for buf in (m.data, m.indices, m.indptr):
        buf.setflags(write=False)
    return m


def _as_csr(a) -> sp.csr_matrix:
    if sp.issparse(a):
        m = a.tocsr().astype(np.float64)
    else:
        arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
        m = sp.csr_matrix(arr)
    m.sum_duplicates()
    return m


def _is_symmetric_exact(m: sp.csr_matrix) -> bool:
    d = (m - m.T).tocsr()
    d.eliminate_zeros()
    return d.nnz == 0


def _within_band(m: sp.csr_matrix, lower: int, upper: int) -> bool:
    """True when every nonzero entry m[i, j] has lower <= j - i <= upper.

    One O(nnz) pass over the CSR arrays; explicit stored zeros are ignored.
    """
    offsets = m.indices - np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return not np.any(m.data[(offsets < lower) | (offsets > upper)])


def _bandwidth(m: sp.csr_matrix) -> int:
    coo = m.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


def _to_banded_upper(m: sp.csr_matrix, bw: int) -> np.ndarray:
    # LAPACK upper banded storage: band[bw + i - j, j] = m[i, j] for i <= j.
    n = m.shape[0]
    coo = m.tocoo()
    band = np.zeros((bw + 1, n))
    mask = coo.row <= coo.col
    band[bw + coo.row[mask] - coo.col[mask], coo.col[mask]] = coo.data[mask]
    return band


class _Tridiagonal(NamedTuple):
    """Symmetric tridiagonal matrix given by its diagonal d and off-diagonal e."""

    d: np.ndarray
    e: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d.shape[0], self.d.shape[0])

    def toarray(self) -> np.ndarray:
        return self.tocsr().toarray()

    def tocsr(self) -> sp.csr_matrix:
        return sp.diags([self.e, self.d, self.e], [-1, 0, 1], format="csr")


# Absolute tolerance of the Sturm bisection: the value eigvals_banded
# passes to dsbevx, which hands it to the same dstebz.
_STEBZ_ABSTOL = 2.0 * dlamch("S")


def _tridiagonal_eigenvalues(
    d: np.ndarray, e: np.ndarray, il: int, iu: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues il..iu (1-based) of the tridiagonal (d, e) by one dstebz call.

    Returns (w, iblock, isplit) as dstein takes them: w in block order
    (ascending within each split-off block, not overall), iblock[:w.size]
    the block of each, isplit the block ends.
    """
    # dstebz does not check its input; an overflowed form is refused as
    # eigvals_banded refuses it on the sparse path
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("array must not contain infs or NaNs")
    # range 2 selects the eigenvalues with indices il..iu
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, il, iu, _STEBZ_ABSTOL, "B")
    if info != 0:
        raise NoConvergence(f"tridiagonal bisection failed (dstebz info = {info})")
    return w[:m], iblock, isplit


def _gershgorin_bounds(m: sp.csr_matrix) -> tuple[float, float]:
    d = m.diagonal()
    radius = np.asarray(abs(m).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _dense_eigvalsh(m) -> np.ndarray:
    return np.linalg.eigvalsh(m if isinstance(m, np.ndarray) else m.toarray())


def _extreme_eigenvalue(m, which: str) -> float:
    """Smallest or largest eigenvalue of a symmetric matrix.

    m is an ndarray, a sparse matrix, or the _Tridiagonal pair that
    _schur_form returns when assembly recorded M_alpha as tridiagonal.
    Dispatch: dense eigvalsh up to DENSE_EIG_CAP; above it, one dstebz
    Sturm bisection on a _Tridiagonal pair, the banded solver for other
    forms of half-bandwidth <= MAX_BANDWIDTH, otherwise shift-invert
    Lanczos anchored strictly outside the Gershgorin enclosure
    (deterministic start vector).
    """
    n = m.shape[0]
    if n <= DENSE_EIG_CAP:
        w = _dense_eigvalsh(m)
        return float(w[0] if which == "min" else w[-1])
    if isinstance(m, _Tridiagonal):
        index = 1 if which == "min" else n
        return float(_tridiagonal_eigenvalues(m.d, m.e, index, index)[0][0])
    m = sp.csr_matrix(m)
    bw = _bandwidth(m)
    if bw <= MAX_BANDWIDTH:
        band = _to_banded_upper(m, bw)
        idx = 0 if which == "min" else n - 1
        w = eigvals_banded(band, select="i", select_range=(idx, idx))
        return float(w[0])
    lo, hi = _gershgorin_bounds(m)
    sigma = lo - 1.0 if which == "min" else hi + 1.0
    try:
        w = eigsh(
            m,
            k=1,
            sigma=sigma,
            which="LM",
            v0=np.ones(n),
            return_eigenvectors=False,
        )
    except (ArpackNoConvergence, ArpackError) as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return float(w[0])


def _extreme_eigenvalues(m) -> tuple[float, float]:
    """(lambda_min, lambda_max) of m; one eigvalsh gives both up to DENSE_EIG_CAP."""
    if m.shape[0] <= DENSE_EIG_CAP:
        w = _dense_eigvalsh(m)
        return float(w[0]), float(w[-1])
    return _extreme_eigenvalue(m, "min"), _extreme_eigenvalue(m, "max")


def psd_tolerance(m, coeff: float = PSD_COEFF) -> float:
    """Acceptance tolerance for 'positive semidefinite to rounding'.

    A symmetric matrix is accepted as >= 0 when its smallest eigenvalue
    is >= -coeff * (1 + ||m||_inf); exact semidefinite matrices perturb
    slightly negative in floating point.
    """
    if sp.issparse(m):
        norm = float(np.max(np.asarray(abs(m).sum(axis=1)).ravel(), initial=0.0))
    else:
        norm = float(np.max(np.abs(np.asarray(m)).sum(axis=1), initial=0.0))
    return coeff * (1.0 + norm)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pair (u, v) of upper/lower component vectors of equal length."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=np.float64).ravel()
        v = np.array(self.v, dtype=np.float64).ravel()
        if u.shape != v.shape:
            raise DimensionMismatch(
                f"component lengths differ: {u.shape[0]} vs {v.shape[0]}"
            )
        object.__setattr__(self, "u", _freeze(u))
        object.__setattr__(self, "v", _freeze(v))

    def stacked(self) -> np.ndarray:
        """The length-2N vector (u, v)."""
        return np.concatenate([self.u, self.v])

    def norm(self) -> float:
        return float(np.linalg.norm(self.stacked()))


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """The four blocks of H = [[P, Q], [T, -S]] plus the certified c1.

    Structural guarantees established at assembly and preserved by the
    read-only storage: Q equals T^t entrywise exactly, P and S are
    exactly symmetric, and lambda_min(S) >= c1 > 0.

    Assembly also records the structure of the blocks, in two fields
    derived from them in one O(nnz) pass each (explicit stored zeros are
    ignored) that cannot be passed in and that dataclasses.replace
    recomputes:

    S_diagonal
        S has no nonzero off-diagonal entry.
    M_tridiagonal
        S and P are diagonal and T has nonzero entries only on its
        diagonal and first superdiagonal, so every M_alpha is
        tridiagonal (every Dirac channel); margins are then evaluated
        from its two diagonals, without forming a sparse matrix.
    """

    P: sp.csr_matrix
    Q: sp.csr_matrix
    T: sp.csr_matrix
    S: sp.csr_matrix
    c1: float
    N: int
    S_diagonal: bool = field(init=False)
    M_tridiagonal: bool = field(init=False)

    def __post_init__(self):
        s_diagonal = _within_band(self.S, 0, 0)
        object.__setattr__(self, "S_diagonal", s_diagonal)
        object.__setattr__(
            self,
            "M_tridiagonal",
            s_diagonal and _within_band(self.P, 0, 0) and _within_band(self.T, 0, 1),
        )


@dataclass(frozen=True)
class FormReport:
    """Margin report for the reduced form at one shift alpha.

    form_matrix_condition is the ratio of extreme eigenvalue magnitudes
    of M_alpha; it equals the 2-norm condition number when the matrix is
    definite and is a lower bound otherwise.
    """

    alpha: float
    margin: float
    form_matrix_condition: float


def assemble(P, T, S, c1_policy="compute") -> BlockOperator:
    """Build a validated BlockOperator from the blocks P, T, S.

    Parameters
    ----------
    P, T, S : array_like or sparse, shape (N, N)
        P and S must be exactly symmetric; T is arbitrary.
    c1_policy : "compute" or positive float
        "compute" certifies c1 = lambda_min(S); a float asserts a lower
        bound, which is still verified against lambda_min(S).

    Returns
    -------
    BlockOperator
        With Q set to the exact transpose of T.

    Raises
    ------
    NonPositiveS
        If lambda_min(S) <= 0, or an asserted c1 is not a valid
        positive lower bound.
    DimensionMismatch
        If the blocks are not square matrices of one common nonzero size.
    ValidationError
        If a block has a non-finite entry, or P or S is not exactly
        symmetric; its key names the block.
    """
    Pc, Tc, Sc = _as_csr(P), _as_csr(T), _as_csr(S)
    n = Pc.shape[0]
    if n == 0:
        raise DimensionMismatch("blocks are empty")
    for name, m in (("P", Pc), ("T", Tc), ("S", Sc)):
        if m.shape != (n, n):
            raise DimensionMismatch(f"block {name} has shape {m.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(m.data)):
            raise ValidationError(name, "block has a non-finite entry")
    if not _is_symmetric_exact(Pc):
        raise ValidationError("P", "block must be exactly symmetric")
    if not _is_symmetric_exact(Sc):
        raise ValidationError("S", "block must be exactly symmetric")

    if _within_band(Sc, 0, 0):
        smin = float(np.min(Sc.diagonal()))
    else:
        smin = _extreme_eigenvalue(Sc, "min")
    if smin <= 0.0:
        raise NonPositiveS(f"lambda_min(S) = {smin:.6g} <= 0; S >= c1 I > 0 fails")
    if c1_policy == "compute":
        c1 = smin
    else:
        c1 = float(c1_policy)
        if not c1 > 0.0:
            raise NonPositiveS(f"asserted c1 = {c1:.6g} is not positive")
        if smin < c1 - 1e-12 * (1.0 + abs(smin)):
            raise NonPositiveS(
                f"asserted c1 = {c1:.6g} exceeds lambda_min(S) = {smin:.6g}"
            )

    Qc = Tc.T.tocsr()
    return BlockOperator(
        P=_freeze_csr(Pc),
        Q=_freeze_csr(Qc),
        T=_freeze_csr(Tc),
        S=_freeze_csr(Sc),
        c1=c1,
        N=n,
    )


def _check_state(B: BlockOperator, w: StateVector, name: str = "w") -> None:
    if w.u.shape[0] != B.N:
        raise DimensionMismatch(
            f"{name} has component length {w.u.shape[0]}, operator expects {B.N}"
        )


def apply(B: BlockOperator, w: StateVector) -> StateVector:
    """Apply H to (u, v): returns (Pu + Qv, Tu - Sv)."""
    _check_state(B, w)
    return StateVector(
        B.P @ w.u + B.Q @ w.v,
        B.T @ w.u - B.S @ w.v,
    )


def full_matrix(B: BlockOperator) -> sp.csr_matrix:
    """The assembled 2N x 2N matrix [[P, Q], [T, -S]] (exactly symmetric)."""
    return sp.bmat([[B.P, B.Q], [B.T, -B.S]], format="csr")


def _check_shift(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(name, "must be finite")
    return value


def _schur_form(B: BlockOperator, alpha: float):
    """M_alpha in the layout the eigensolver takes, symmetrized.

    With a diagonal S, B.M_tridiagonal gives the _Tridiagonal pair of
    M_alpha's diagonal and off-diagonal, O(N) NumPy arithmetic, and any
    other structure the sparse product T^t diag(1/(s + alpha)) T in CSR,
    O(nnz).  A non-diagonal S + alpha*I is Cholesky-factored and M_alpha
    is formed, symmetrized and returned as a dense ndarray.
    """
    alpha = _check_shift("alpha", alpha)
    if alpha < 0.0:
        raise NegativeAlpha(f"alpha = {alpha:.6g} < 0")
    n = B.N
    if B.S_diagonal:
        w = 1.0 / (B.S.diagonal() + alpha)
        if B.M_tridiagonal:
            # T = diag(a) + superdiag(b).  The entries of the sparse product
            # below, in its operation order, so the values are bitwise equal.
            a, b = B.T.diagonal(), B.T.diagonal(1)
            aw, bw = a * w, b * w[:-1]
            d = aw * a
            d[1:] += bw * b
            e = (aw[:-1] * b + bw * a[:-1]) * 0.5
            return _Tridiagonal(d=(B.P.diagonal() - alpha) + d, e=e)
        M = (B.P - alpha * sp.identity(n, format="csr")) + B.T.T @ sp.diags(w) @ B.T
        return ((M + M.T) * 0.5).tocsr()
    A = B.S.toarray()
    A[np.diag_indices(n)] += alpha
    try:
        factor = cho_factor(A, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveS(f"S + {alpha:.6g} I is not positive definite") from exc
    T = B.T.toarray()
    M = B.P.toarray() - alpha * np.eye(n) + T.T @ cho_solve(factor, T)
    return (M + M.T) * 0.5


def schur_form_matrix(B: BlockOperator, alpha: float) -> sp.csr_matrix:
    """Matrix of the reduced form: M_alpha = (P - alpha I) + T^t (S + alpha I)^{-1} T.

    At alpha = 0 this is the Schur complement of -S in H.  The shifted
    block S + alpha*I is applied by factorization and solve, never by
    explicit inversion; a diagonal S (B.S_diagonal) short-circuits to
    exact division.  The result is symmetrized to remove roundoff skew
    and returned in CSR form (built from the two diagonals when
    B.M_tridiagonal); positivity_margin and the other internal callers
    take the same values without forming the CSR matrix.
    """
    return _form_csr(_schur_form(B, alpha))


def _form_csr(M) -> sp.csr_matrix:
    """A form returned by _schur_form, as CSR."""
    if isinstance(M, _Tridiagonal):
        return M.tocsr()
    return M if sp.issparse(M) else sp.csr_matrix(M)


def positivity_margin(B: BlockOperator, alpha: float) -> float:
    """lambda_min(M_alpha); nonnegative certifies the inequality at level alpha."""
    return _extreme_eigenvalue(_schur_form(B, alpha), "min")


def form_report(B: BlockOperator, alpha: float) -> FormReport:
    """Margin and conditioning of the reduced form at one alpha."""
    lo, hi = _extreme_eigenvalues(_schur_form(B, alpha))
    mags = sorted((abs(lo), abs(hi)))
    cond = float("inf") if mags[0] == 0.0 else mags[1] / mags[0]
    return FormReport(alpha=alpha, margin=lo, form_matrix_condition=cond)


def find_c2(B: BlockOperator, tol: float = 1e-8) -> float:
    """Largest c2 >= 0 with positivity_margin(B, c2) >= 0, by bisection.

    The margin decreases in alpha with slope <= -1, so margin(alpha) <=
    margin(0) - alpha and [0, margin(0)] brackets the root; bisection
    narrows it to width <= tol, or until the bracket ends are adjacent
    floats when tol is below their spacing, and the midpoint is returned.

    Raises
    ------
    ValueError
        If tol is not finite and positive.
    HypothesisFailed
        If the margin at alpha = 0 is negative (the base form is not
        positive semidefinite, so no c2 >= 0 exists).
    """
    return _find_c2(B, tol)[0]


def _find_c2(B: BlockOperator, tol: float) -> tuple[float, float]:
    """find_c2 plus the margin at alpha = 0 its bracket starts from."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    m0 = positivity_margin(B, 0.0)
    if m0 < 0.0:
        raise HypothesisFailed(
            f"margin at alpha=0 is {m0:.6g} < 0; the base form q_0 is not "
            "positive semidefinite"
        )
    if m0 == 0.0:
        return 0.0, m0
    lo, hi = 0.0, m0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if positivity_margin(B, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), m0


def inertia_c2_oracle(B: BlockOperator, dense_cap: int = DENSE_ORACLE_CAP) -> float:
    """Independent oracle for c2 via the dense eigendecomposition of H.

    Inertia additivity makes M_alpha positive semidefinite exactly when
    alpha does not exceed the (N+1)-th smallest eigenvalue of H, so that
    eigenvalue equals find_c2 whenever it is nonnegative.  Intended for
    verification at small sizes only.
    """
    if 2 * B.N > dense_cap:
        raise TooLarge(f"2N = {2 * B.N} exceeds the dense oracle cap {dense_cap}")
    H = full_matrix(B).toarray()
    w = np.linalg.eigvalsh(H)
    return float(w[B.N])


def _s_inverse(B: BlockOperator):
    """Callable applying S^{-1} to a vector or the columns of a matrix.

    Exact division for a diagonal S, a dense Cholesky factorization up to
    DENSE_EIG_CAP and a sparse LU above it.  Uncached: the solver keeps
    one per operator.
    """
    if B.S_diagonal:
        d = B.S.diagonal()
        return lambda x: x / d if x.ndim == 1 else x / d[:, None]
    if B.N <= DENSE_EIG_CAP:
        factor = cho_factor(B.S.toarray(), lower=True)
        return lambda x: cho_solve(factor, x)
    return splu(B.S.tocsc()).solve


def embedding_delta(
    B: BlockOperator, tol: float = 1e-8, psd_coeff: float = PSD_COEFF
) -> tuple[float, bool]:
    """Scale-of-spaces constant delta = c1*c2/(c1+c2) and its certificate.

    Certifies M_0 - delta*(I + K^t K) >= 0 with K = S^{-1} T, i.e. the
    base form dominates delta*(||u||^2 + ||S^{-1}Tu||^2).  Returns
    (delta, certified).
    """
    c2 = find_c2(B, tol)
    delta = B.c1 * c2 / (B.c1 + c2)
    M0 = schur_form_matrix(B, 0.0)
    K = _s_inverse(B)(B.T.toarray())
    G = M0 - delta * (sp.identity(B.N, format="csr") + sp.csr_matrix(K.T @ K))
    G = ((G + G.T) * 0.5).tocsr()
    lam = _extreme_eigenvalue(G, "min")
    return delta, bool(lam >= -psd_tolerance(G, psd_coeff))


def resolvent_difference_check(
    B: BlockOperator,
    alpha: float,
    delta: float,
    psd_coeff: float = PSD_COEFF,
    dense_cap: int = DENSE_ORACLE_CAP,
) -> bool:
    """Check S^{-1} - (S+alpha)^{-1} >= delta*S^{-2} spectrally.

    All three terms are functions of S, so the smallest eigenvalue of
    the difference is min over the spectrum of S of

        f(s) = 1/s - 1/(s + alpha) - delta/s**2,

    evaluated without forming or inverting any matrix.  Valid deltas
    satisfy 0 < delta <= c1*alpha/(c1+alpha); at that boundary f is
    nonnegative on [c1, inf) with equality at s = c1.

    Returns True iff min f(s) >= -eps_psd.
    """
    alpha = _check_shift("alpha", alpha)
    delta = float(delta)
    if alpha <= 0.0:
        raise NegativeAlpha(f"alpha = {alpha:.6g} must be positive")
    bound = B.c1 * alpha / (B.c1 + alpha)
    if not 0.0 < delta <= bound * (1.0 + 1e-12):
        raise DeltaOutOfRange(
            f"delta = {delta:.6g} outside (0, c1*alpha/(c1+alpha) = {bound:.6g}]"
        )
    if B.S_diagonal:
        s = B.S.diagonal()
    elif B.N <= dense_cap:
        s = np.linalg.eigvalsh(B.S.toarray())
    else:
        raise TooLarge(
            f"spectral check of a non-diagonal S needs N <= {dense_cap}, got {B.N}"
        )
    vals = 1.0 / s - 1.0 / (s + alpha) - delta / s**2
    scale = float(np.max(np.abs(vals), initial=0.0))
    return bool(np.min(vals) >= -psd_coeff * (1.0 + scale))


def matrix_to_text(A) -> str:
    """Serialize a matrix: 'rows cols' header, then row-major decimal entries.

    Entries use %.17g so float64 values round-trip exactly; the format
    is plain ASCII and locale-independent.
    """
    arr = np.atleast_2d(A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64))
    out = io.StringIO()
    out.write(f"{arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        out.write(" ".join(f"{x:.17g}" for x in row))
        out.write("\n")
    return out.getvalue()


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols = (int(tok) for tok in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    arr = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if arr.shape != (rows, cols):
        raise ValueError(f"data shape {arr.shape} does not match header {(rows, cols)}")
    return arr


_BLOCK_NAMES = ("P", "T", "S")


def operator_to_text(B: BlockOperator) -> str:
    """Serialize a BlockOperator in text format version 2: O(nnz), not O(N^2).

    Lines, in order (tokens separated by single spaces):

        blockoperator 2
        N <n>
        c1 <c1>
        then for each block of P, T, S, four lines:
        <name> <nnz>
        <indptr: n + 1 integers>
        <indices: nnz integers>
        <data: nnz floats>

    The last three lines of a block are its CSR arrays as stored, explicit
    zeros included; they are empty lines when nnz = 0.  Floats are written
    with repr, which round-trips every float64 exactly.  Q is not written:
    it is implied by Q = T^t.
    """
    lines = ["blockoperator 2", f"N {B.N}", f"c1 {float(B.c1)!r}"]
    for name in _BLOCK_NAMES:
        m = getattr(B, name)
        lines += [
            f"{name} {m.nnz}",
            " ".join(map(str, m.indptr.tolist())),
            " ".join(map(str, m.indices.tolist())),
            " ".join(map(repr, m.data.tolist())),
        ]
    return "\n".join(lines) + "\n"


def _keyed_value(line: str, key: str) -> str:
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != key:
        raise ValueError(f"expected a '{key} <value>' line, found {line[:40]!r}")
    return tokens[1]


def _numbers(line: str, dtype, count: int, what: str) -> np.ndarray:
    try:
        arr = np.array(line.split(), dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    if arr.shape[0] != count:
        raise ValueError(f"{what}: expected {count} entries, found {arr.shape[0]}")
    return arr


def operator_from_text(text: str) -> BlockOperator:
    """Parse operator_to_text output and re-assemble it (c1 is verified).

    Raises ValueError naming the defect for any other header, a wrong
    line or entry count, an indptr that is not monotone from 0 to nnz,
    a column index outside [0, N), or column indices that are not
    strictly increasing within a row (a repeated entry would otherwise
    be summed); the blocks then pass through
    assemble, so non-finite, non-symmetric or non-positive blocks raise
    its package errors.
    """
    lines = text.splitlines()
    if not lines or lines[0].split() != ["blockoperator", "2"]:
        raise ValueError("not a blockoperator version 2 serialization")
    expected = 3 + 4 * len(_BLOCK_NAMES)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, found {len(lines)}")
    n = int(_keyed_value(lines[1], "N"))
    if n < 0:
        raise ValueError(f"N = {n} is negative")
    c1 = float(_keyed_value(lines[2], "c1"))
    blocks = {}
    for k, name in enumerate(_BLOCK_NAMES):
        head, ptr_line, idx_line, data_line = lines[3 + 4 * k : 7 + 4 * k]
        nnz = int(_keyed_value(head, name))
        indptr = _numbers(ptr_line, np.int64, n + 1, f"{name} indptr")
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise ValueError(f"{name} indptr is not monotone from 0 to nnz = {nnz}")
        indices = _numbers(idx_line, np.int64, nnz, f"{name} indices")
        if nnz and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"{name} has a column index outside [0, {n})")
        data = _numbers(data_line, np.float64, nnz, f"{name} data")
        blocks[name] = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        if not blocks[name].has_canonical_format:
            raise ValueError(f"{name} column indices are not increasing within a row")
    return assemble(blocks["P"], blocks["T"], blocks["S"], c1_policy=c1)
