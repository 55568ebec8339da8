"""Constructive solve of H(u, v) = (F1, F2) by Schur elimination.

With R = M_0 (the Schur complement of -S) positive definite, the system
splits into a reduced positive-definite solve and a back-substitution:

    R u = F1 + Q S^{-1} F2,      v = S^{-1} (T u - F2).

The same elimination, applied to the shifted operator H - sigma, powers
a deterministic shift-invert Lanczos iteration for eigenvalues of H in
the spectral gap.  Factorizations are cached per operator behind a lock;
all operations are pure and safe to run concurrently on shared inputs.
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
    splu,
)

from .blockop import (
    DENSE_EIG_CAP,
    BlockOperator,
    StateVector,
    _check_shift,
    _extreme_eigenvalue,
    _extreme_eigenvalues,
    _form_csr,
    _schur_form,
    apply,
    assemble,
    full_matrix,
    psd_tolerance,
)
from .errors import (
    CheckFailed,
    DimensionMismatch,
    HypothesisFailed,
    IllConditioned,
    NegativeShiftUnsupported,
    NoConvergence,
)

__all__ = [
    "RhsPair",
    "SolveReport",
    "solve",
    "symmetry_identity_check",
    "shifted_operator",
    "gap_eigenvalues",
]

_cache_lock = threading.Lock()
_factor_cache: "weakref.WeakKeyDictionary[BlockOperator, dict]" = weakref.WeakKeyDictionary()


def _cache_entry(B: BlockOperator) -> dict:
    with _cache_lock:
        entry = _factor_cache.get(B)
        if entry is None:
            entry = {}
            _factor_cache[B] = entry
        return entry


def _cache_get(B: BlockOperator, key: str, build):
    """Per-(operator, key) memo; safe to race, results are pure."""
    entry = _cache_entry(B)
    value = entry.get(key)
    if value is None:
        value = build()
        with _cache_lock:
            value = entry.setdefault(key, value)
    return value


def _s_solver(B: BlockOperator):
    """Callable applying S^{-1} by factorization (exact for diagonal S)."""

    def build():
        if B.S_diagonal:
            d = B.S.diagonal().copy()

            def fn(x):
                return x / d if x.ndim == 1 else x / d[:, None]

            return fn
        if B.N <= DENSE_EIG_CAP:
            factor = cho_factor(B.S.toarray(), lower=True)
            return lambda x: cho_solve(factor, x)
        lu = splu(B.S.tocsc())
        return lu.solve

    return _cache_get(B, "S", build)


def _m0(B: BlockOperator):
    """(M_0 in CSR, lambda_min(M_0), lambda_max(M_0)), cached per operator.

    M_0 is formed once, in the layout the eigensolver takes, and the
    extreme eigenvalues come from that form: one eigvalsh gives both up
    to DENSE_EIG_CAP.  Above it lambda_max is computed only when M_0 is
    positive definite, the one case in which _m0_solver reads it; it is
    NaN otherwise.
    """

    def build():
        form = _schur_form(B, 0.0)
        if B.N <= DENSE_EIG_CAP:
            lo, hi = _extreme_eigenvalues(form)
        else:
            lo = _extreme_eigenvalue(form, "min")
            hi = _extreme_eigenvalue(form, "max") if lo > 0.0 else math.nan
        return _form_csr(form), lo, hi

    return _cache_get(B, "M0", build)


def _m0_matrix(B: BlockOperator):
    """(M_0, lambda_min(M_0)), cached per operator."""
    M0, lammin, _ = _m0(B)
    return M0, lammin


def _m0_solver(B: BlockOperator):
    """Callable applying M_0^{-1}, plus the condition estimate.

    Raises HypothesisFailed if M_0 is not positive definite.
    """
    M0, margin = _m0_matrix(B)
    if margin <= 0.0:
        raise HypothesisFailed(
            f"reduced matrix M_0 is not positive definite "
            f"(lambda_min = {margin:.6g}); the elimination requires a "
            "positive base form"
        )

    def build():
        cond = _m0(B)[2] / margin
        if B.N <= DENSE_EIG_CAP:
            factor = cho_factor(M0.toarray(), lower=True)
            fn = lambda x: cho_solve(factor, x)
        else:
            lu = splu(M0.tocsc())
            fn = lu.solve
        return fn, cond

    return _cache_get(B, "M0solve", build)


@dataclass(frozen=True, eq=False)
class RhsPair:
    """Right-hand side (F1, F2) of the block system."""

    F1: np.ndarray
    F2: np.ndarray

    def __post_init__(self):
        f1 = np.array(self.F1, dtype=np.float64).ravel()
        f2 = np.array(self.F2, dtype=np.float64).ravel()
        if f1.shape != f2.shape:
            raise DimensionMismatch(
                f"rhs component lengths differ: {f1.shape[0]} vs {f2.shape[0]}"
            )
        f1.setflags(write=False)
        f2.setflags(write=False)
        object.__setattr__(self, "F1", f1)
        object.__setattr__(self, "F2", f2)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.F1, self.F2])


@dataclass(frozen=True)
class SolveReport:
    """Solution plus independently recomputed residual and conditioning.

    residual_norm is ||apply(B, solution) - (F1, F2)||_2, evaluated
    through the assembled blocks rather than the elimination path.
    """

    solution: StateVector
    residual_norm: float
    schur_condition_estimate: float
    ill_conditioned: bool = False


def solve(B: BlockOperator, rhs: RhsPair, cond_cap: float = 1e12) -> SolveReport:
    """Solve H(u, v) = (F1, F2) by elimination through M_0.

    Performs one iterative-refinement pass on the reduced system, then
    back-substitutes v = S^{-1}(Tu - F2).  If the condition estimate of
    M_0 exceeds cond_cap, an IllConditioned warning is issued and the
    report is flagged, but the solution is still returned.

    Raises
    ------
    HypothesisFailed
        If M_0 is not positive definite.
    DimensionMismatch
        If the right-hand side length differs from the operator's N.
    """
    if rhs.F1.shape[0] != B.N:
        raise DimensionMismatch(
            f"rhs has component length {rhs.F1.shape[0]}, operator expects {B.N}"
        )
    s_solve = _s_solver(B)
    m0_solve, cond = _m0_solver(B)
    M0, _ = _m0_matrix(B)

    g = rhs.F1 + B.Q @ s_solve(rhs.F2)
    u = m0_solve(g)
    u = u + m0_solve(g - M0 @ u)
    v = s_solve(B.T @ u - rhs.F2)
    sol = StateVector(u, v)

    out = apply(B, sol)
    residual = float(
        np.linalg.norm(np.concatenate([out.u - rhs.F1, out.v - rhs.F2]))
    )
    ill = bool(cond > cond_cap)
    if ill:
        warnings.warn(
            IllConditioned(
                f"condition estimate {cond:.3g} exceeds cap {cond_cap:.3g}"
            )
        )
    return SolveReport(
        solution=sol,
        residual_norm=residual,
        schur_condition_estimate=float(cond),
        ill_conditioned=ill,
    )


def symmetry_identity_check(
    B: BlockOperator, w: StateVector, wt: StateVector
) -> tuple[float, float, float]:
    """Evaluate <H w, wt> against its elimination-form expansion.

    lhs = <apply(B, w), wt>;
    rhs = <M_0 u, ut> - <S(v - S^{-1}Tu), vt - S^{-1}T ut>.

    The two paths agree algebraically; their float difference measures
    roundoff only.  The rhs is additionally checked to be symmetric
    under swapping w and wt; CheckFailed is raised if it is not.
    Returns (lhs, rhs, absdiff).
    """
    if w.u.shape[0] != B.N or wt.u.shape[0] != B.N:
        raise DimensionMismatch("state vector length differs from operator N")
    M0, _ = _m0_matrix(B)
    s_solve = _s_solver(B)

    hw = apply(B, w)
    lhs = float(hw.u @ wt.u + hw.v @ wt.v)

    def expansion(a: StateVector, b: StateVector) -> float:
        ka = s_solve(B.T @ a.u)
        kb = s_solve(B.T @ b.u)
        return float((M0 @ a.u) @ b.u - (B.S @ (a.v - ka)) @ (b.v - kb))

    rhs = expansion(w, wt)
    swapped = expansion(wt, w)
    scale = 1e-10 * (1.0 + abs(rhs))
    if not abs(rhs - swapped) <= scale:
        raise CheckFailed(f"expansion not symmetric under swap: {rhs!r} vs {swapped!r}")
    return lhs, rhs, abs(lhs - rhs)


def shifted_operator(B: BlockOperator, sigma: float) -> BlockOperator:
    """The operator of H - sigma*I: blocks (P - sigma, Q, T, -(S + sigma)).

    Requires sigma >= 0 so that S + sigma keeps the lower bound
    c1 + sigma > 0; negative shifts are rejected.
    """
    sigma = _check_shift("sigma", sigma)
    if sigma < 0.0:
        raise NegativeShiftUnsupported(
            f"sigma = {sigma:.6g} < 0 may violate S >= c1 I > 0"
        )
    if sigma == 0.0:
        return B
    eye = sp.identity(B.N, format="csr")
    return assemble(
        B.P - sigma * eye,
        B.T,
        B.S + sigma * eye,
        c1_policy=B.c1 + sigma,
    )


class _FactorBreakdown(Exception):
    """Internal: the shifted reduced matrix is numerically singular."""


def _eig_pairs_from_dense(
    H: np.ndarray, N: int, sigma: float, k: int, which: str
) -> list[tuple[float, np.ndarray]]:
    w, V = np.linalg.eigh(H)
    if which == "nearest":
        order = np.argsort(np.abs(w - sigma), kind="stable")[:k]
    else:
        above = np.flatnonzero(w > sigma)
        if above.shape[0] < k:
            raise NoConvergence(
                f"only {above.shape[0]} eigenvalues above sigma = {sigma:.6g}"
            )
        order = above[:k]
    return [(float(w[i]), V[:, i].copy()) for i in order]


def gap_eigenvalues(
    B: BlockOperator,
    sigma: float,
    k: int,
    tol: float = 1e-10,
    which: str = "nearest",
) -> list[tuple[float, StateVector]]:
    """k eigenpairs of the 2N x 2N matrix H near the shift sigma.

    which = "nearest" returns the k eigenvalues closest to sigma;
    which = "above" returns the k smallest eigenvalues strictly above
    sigma (the gap floor).  The inner solves of the Lanczos iteration
    are the elimination of the shifted operator, so sigma must lie in
    the region where its reduced matrix is positive definite.  Results
    are deterministic (fixed start vector) and each returned pair is
    verified to satisfy ||H x - lambda x|| <= tol * (1 + |lambda|).

    Raises
    ------
    HypothesisFailed
        If the margin at sigma is negative.
    NoConvergence
        If the iteration fails or a residual check is violated; an
        exact collision of sigma with an eigenvalue is retried once at
        sigma' = sigma + 1e-6 * (1 + |sigma|).
    """
    if which not in ("nearest", "above"):
        raise ValueError(f"which must be 'nearest' or 'above', got {which!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    n2 = 2 * B.N
    H = full_matrix(B)

    if n2 <= DENSE_EIG_CAP:
        shifted_operator(B, sigma)  # enforce the sigma >= 0 contract
        raw = _eig_pairs_from_dense(H.toarray(), B.N, sigma, k, which)
    else:
        if k > n2 - 2:
            raise ValueError(f"k = {k} too large for sparse iteration at 2N = {n2}")
        raw = None
        last_exc: Exception | None = None
        for shift in (sigma, sigma + 1e-6 * (1.0 + abs(sigma))):
            try:
                raw = _sparse_gap_pairs(B, H, shift, k, which)
                break
            except _FactorBreakdown as exc:
                last_exc = exc
        if raw is None:
            raise NoConvergence(
                f"shifted factorization failed at sigma = {sigma:.6g} "
                "and at the jittered retry"
            ) from last_exc

    pairs = []
    for lam, x in sorted(raw, key=lambda p: p[0]):
        j = int(np.argmax(np.abs(x)))
        if x[j] < 0.0:
            x = -x
        resid = float(np.linalg.norm(H @ x - lam * x))
        if resid > tol * (1.0 + abs(lam)):
            raise NoConvergence(
                f"eigenpair residual {resid:.3g} exceeds {tol:.3g}*(1+|lambda|) "
                f"at lambda = {lam:.12g}"
            )
        pairs.append((lam, StateVector(x[: B.N], x[B.N :])))
    return pairs


def _sparse_gap_pairs(
    B: BlockOperator, H: sp.csr_matrix, shift: float, k: int, which: str
) -> list[tuple[float, np.ndarray]]:
    Bs = shifted_operator(B, shift)
    M0, margin = _m0_matrix(Bs)
    if margin < 0.0:
        raise HypothesisFailed(
            f"margin at sigma = {shift:.6g} is {margin:.6g} < 0; shift-invert "
            "elimination needs a positive definite reduced matrix"
        )
    # collision gate at the float64 factorization limit, not the PSD
    # certification level: stiff grids make ||M||_inf ~ 1/h^2 huge while a
    # perfectly usable margin stays O(1)
    if margin <= psd_tolerance(M0, 1e-14):
        raise _FactorBreakdown(f"reduced matrix singular at sigma = {shift:.6g}")
    try:
        s_solve = _s_solver(Bs)
        m0_solve, _ = _m0_solver(Bs)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        raise _FactorBreakdown(str(exc)) from exc

    N = B.N

    def op(x):
        f1, f2 = x[:N], x[N:]
        g = f1 + Bs.Q @ s_solve(f2)
        u = m0_solve(g)
        u = u + m0_solve(g - M0 @ u)
        v = s_solve(Bs.T @ u - f2)
        return np.concatenate([u, v])

    opinv = LinearOperator((2 * N, 2 * N), matvec=op, dtype=np.float64)
    arpack_which = "LM" if which == "nearest" else "LA"
    try:
        vals, vecs = eigsh(
            H,
            k=k,
            sigma=shift,
            which=arpack_which,
            OPinv=opinv,
            v0=np.ones(2 * N),
            tol=0,
        )
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"shift-invert iteration did not converge: {exc}") from exc
    except ArpackError as exc:
        raise NoConvergence(f"shift-invert iteration failed: {exc}") from exc

    pairs = [(float(vals[i]), vecs[:, i].copy()) for i in range(vals.shape[0])]
    if which == "above":
        pairs = [p for p in pairs if p[0] > shift]
        if len(pairs) < k:
            raise NoConvergence(
                f"only {len(pairs)} converged eigenvalues above sigma = {shift:.6g}"
            )
        pairs = sorted(pairs, key=lambda p: p[0])[:k]
    return pairs
