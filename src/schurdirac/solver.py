"""Constructive solve of H(u, v) = (F1, F2) by Schur elimination.

With R = M_0 (the Schur complement of -S) positive definite, the system
splits into a reduced positive-definite solve and a back-substitution:

    R u = F1 + T^t S^{-1} F2,      v = S^{-1} (T u - F2).

The reduced solve is one call of LAPACK's expert driver on the factor
of B._M0 cached in B._elimination: dptsvx when B.H_tridiagonal is set
(every Dirac channel, whose M_0 is tridiagonal), dposvx on the dense
M_0 of every other operator.  Eigenvalues of H in the spectral gap come
from the same identity through inertia additivity: when M_sigma >= 0
they are eigenvalues N+1, N+2, ... of H, selected by index on a
tridiagonal form of H (blockop's _window).  All operations are pure
and safe to run concurrently on shared inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dnrm2

from .blockop import (
    _ULP,
    BlockOperator,
    StateVector,
    _check_length,
    _check_shift,
    _expert_solve,
    _finite_pair,
    _is_integer,
    _refusal,
    _rounding,
    _stacked_apply,
    _window,
    apply,
    assemble,
)
from .errors import (
    CheckFailed,
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

# solve warns IllConditioned above this condition estimate of M_0.
COND_CAP = 1e12


@dataclass(frozen=True, eq=False)
class RhsPair:
    """Right-hand side (F1, F2) of the block system, finite.

    Raises ValidationError naming F1 or F2 for a non-finite entry.
    """

    F1: np.ndarray
    F2: np.ndarray

    def __post_init__(self):
        _finite_pair(self, "F1", "F2")

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.F1, self.F2])


@dataclass(frozen=True)
class SolveReport:
    """Solution plus independently recomputed residual and conditioning.

    residual_norm is ||H (u, v) - (F1, F2)||_2 through the assembled
    blocks, not the elimination path; schur_condition_estimate is
    kappa_1(M_0) = 1 / rcond, exact for a tridiagonal M_0, else estimated.
    """

    solution: StateVector
    residual_norm: float
    schur_condition_estimate: float
    ill_conditioned: bool = False


def solve(B: BlockOperator, rhs: RhsPair) -> SolveReport:
    """Solve H(u, v) = (F1, F2) by elimination through M_0.

    One expert-driver call on the cached factor of M_0 (the same for the
    first solve and every later one, so they are bitwise equal) solves
    the reduced system, refines it iteratively and returns rcond; then
    v = S^{-1}(Tu - F2).
    If kappa_1(M_0) = 1 / rcond exceeds COND_CAP = 1e12 (M_0 singular to
    working precision included), an IllConditioned warning is issued and
    the report is flagged, but the solution is still returned.

    Raises
    ------
    HypothesisFailed
        If M_0 is not positive definite (its factorization fails).
    DimensionMismatch
        If the right-hand side length differs from the operator's N.
    CheckFailed
        If the recomputed residual has a non-finite entry (an overflow).
    """
    _check_length(B, "rhs", rhs.F1)
    factor, _ = B._elimination
    if factor is None:
        raise HypothesisFailed(_refusal(B))
    with np.errstate(all="ignore"):  # an overflow is refused by its residual, below
        x, rcond = _expert_solve(B._M0, rhs.F1 + B.Tt @ B._s_solve(rhs.F2), factor)
        u = x[:, 0]
        v = B._s_solve(B.T @ u - rhs.F2)
        r = _stacked_apply(B, u, v) - rhs.stacked()
        residual = float(dnrm2(r))  # scaled: no overflow where ||r|| is finite
    if not np.isfinite(r).all():
        raise CheckFailed("the residual of the solution is not finite (it overflowed)")
    cond = math.inf if rcond == 0.0 else 1.0 / rcond
    ill = bool(cond > COND_CAP)
    if ill:
        warnings.warn(IllConditioned(f"condition estimate {cond:.3g} exceeds cap {COND_CAP:.3g}"))
    return SolveReport(
        solution=StateVector._computed(u, v),
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
    _check_length(B, "w", w.u)
    _check_length(B, "wt", wt.u)
    M0, s_solve = B._M0, B._s_solve

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


def _nonnegative_shift(sigma: float) -> float:
    sigma = _check_shift("sigma", sigma)
    if sigma < 0.0:
        raise NegativeShiftUnsupported(
            f"sigma = {sigma:.6g} < 0 may violate S >= c1 I > 0"
        )
    return sigma


def shifted_operator(B: BlockOperator, sigma: float) -> BlockOperator:
    """The operator of H - sigma*I: blocks (P - sigma, T, S + sigma).

    Requires sigma >= 0 so that S + sigma keeps the lower bound
    c1 + sigma > 0; negative shifts are rejected.
    """
    sigma = _nonnegative_shift(sigma)
    if sigma == 0.0:
        return B
    eye = sp.identity(B.N, format="csr")
    return assemble(
        B.P - sigma * eye,
        B.T,
        B.S + sigma * eye,
        c1_policy=B.c1 + sigma,
    )


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
    sigma (the gap floor).  By inertia additivity,
    In(H - sigma) = In(-(S + sigma)) + In(M_sigma), M_sigma >= 0 exactly
    when eigenvalue N+1 of H is >= sigma.  So on every path one gated
    selection takes eigenvalues N+1, N+2, ... by index ("above";
    N-k+1 .. N+k for "nearest") on a tridiagonal form of H: the
    interleaved H when B.H_tridiagonal is set (every Dirac channel), else
    B._H_reduced, the dense H's one Householder reduction, shared with
    find_c2 (O((2N)^3) time, (2N)^2 doubles), where the pairs are
    bitwise dsyevx's for distinct eigenvalues.

    Results are deterministic, eigenvectors are signed so that their
    largest entry is positive, and each returned pair is verified to
    satisfy ||H x - lambda x|| <= tol * (1 + |lambda|) + 10 sqrt(2N) eps ||H||.
    For a unit x some eigenvalue lies within that residual of lambda, so
    tol stays an absolute accuracy (tol = 0 admits rounding only); the
    second term admits the rounding of a backward-stable solver on a
    stiff H.  ||H|| is bounded by the largest absolute row sum of H.

    Raises
    ------
    ValueError
        If which is not "nearest" or "above", k is not an integer in
        [1, 2N], or tol is not finite and nonnegative.
    NegativeShiftUnsupported
        If sigma < 0.
    HypothesisFailed
        If M_sigma is not positive semidefinite (eigenvalue N+1 of H lies
        below sigma by more than rounding), on every path and at every N.
    NoConvergence
        If fewer than k eigenvalues lie above sigma ("above"), a LAPACK
        routine fails, or a residual check is violated.
    """
    if which not in ("nearest", "above"):
        raise ValueError(f"which must be 'nearest' or 'above', got {which!r}")
    n2 = 2 * B.N
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n2:
        raise ValueError(f"k must be in [1, 2N = {n2}], got {k}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    sigma = _nonnegative_shift(sigma)
    raw, norm = _gap_pairs(B, sigma, k, which)

    rounding = _rounding(B.N, norm)
    pairs = []
    for lam, x in sorted(raw, key=lambda p: p[0]):
        x = math.copysign(1.0, x[np.argmax(np.abs(x))]) * x
        resid = float(np.linalg.norm(_stacked_apply(B, x[: B.N], x[B.N :]) - lam * x))
        # False for a non-finite x too, so the pair needs no second check
        if not resid <= tol * (1.0 + abs(lam)) + rounding:
            raise NoConvergence(
                f"eigenpair residual {resid:.3g} exceeds {tol:.3g}*(1+|lambda|) "
                f"+ {rounding:.3g} at lambda = {lam:.12g}"
            )
        pairs.append((lam, StateVector._computed(x[: B.N], x[B.N :])))
    return pairs


def _gap_pairs(
    B: BlockOperator, sigma: float, k: int, which: str
) -> tuple[list[tuple[float, np.ndarray]], float]:
    """Eigenpairs of H selected by index: the gap policy on blockop's _window.

    Returns the pairs and _window's bound on ||H||_inf.  An eigenvalue within rounding of sigma (ulp times that bound) is not
    strictly above it, so for "above" the window moves up past it: by
    the count it skipped, or, when the whole window lies in that band
    (a stiff H, where it may hold nearly all of H's upper half), to
    twice its size, so that the selections stay O(log N).
    """
    N = B.N
    window, norm = _window(B)
    rounding = _ULP * norm
    if which == "nearest":
        il, iu = max(1, N - k + 1), min(2 * N, N + k)
    else:
        il, iu = N + 1, N + k
    skipped = 0
    while True:
        if iu > 2 * N:
            # S + sigma > 0 puts N eigenvalues of H below sigma
            raise NoConvergence(
                f"at most {N - skipped} eigenvalues lie above sigma = {sigma:.6g}, "
                f"fewer than k = {k} ({skipped} more lie within ulp ||H||_inf = "
                f"{rounding:.3g} of sigma, not above it)"
            )
        w, pairs_at = window(il, iu)
        floor = w[N + 1 - il]
        if floor < sigma - rounding:
            raise HypothesisFailed(
                f"eigenvalue N+1 of H is {floor:.6g} < sigma = {sigma:.6g}, so by "
                "inertia additivity M_sigma is not positive semidefinite"
            )
        if which == "nearest":
            chosen = np.argsort(np.abs(w - sigma), kind="stable")[:k]
            break
        skipped = int(np.count_nonzero(w <= sigma + rounding))
        if iu - il + 1 - skipped >= k:
            chosen = np.arange(skipped, skipped + k)
            break
        if skipped < iu - N or N - skipped < k:
            # past 2N exactly when too few eigenvalues are left above the band
            iu = N + k + skipped
        else:  # the whole window lies in the band: double it, up to H's upper half
            iu = min(2 * iu - N, 2 * N)
    return pairs_at(chosen), norm

