"""Symmetric indefinite 2x2 block operators and their Schur-complement forms.

A block operator

    H = [[P,  T^t],
         [T,  -S]]

with P = P^t, S = S^t and S >= c1*I > 0 admits the family of
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
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dlamch, dpttrf, dpttrs, dstebz

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


class _Tridiagonal(NamedTuple):
    """Symmetric tridiagonal matrix given by its diagonal d and off-diagonal e."""

    d: np.ndarray
    e: np.ndarray

    def tocsr(self) -> sp.csr_matrix:
        return sp.diags([self.e, self.d, self.e], [-1, 0, 1], format="csr")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x, each row summed in the order of tocsr() @ x, so bitwise equal to it."""
        y = self.d * x
        y[1:] += self.e * x[:-1]
        y[:-1] += self.e * x[1:]
        return y


# Absolute tolerance of the Sturm bisection: twice the underflow
# threshold, the value at which LAPACK computes eigenvalues most accurately.
_STEBZ_ABSTOL = 2.0 * dlamch("S")


def _lapack_offdiagonal(e: np.ndarray) -> np.ndarray:
    # scipy's wrappers refuse the empty e of a 1x1 matrix; LAPACK reads none of it
    return e if e.shape[0] else np.zeros(1)


def _tridiagonal_eigenvalues(
    d: np.ndarray, e: np.ndarray, il: int, iu: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues il..iu (1-based) of the tridiagonal (d, e) by one dstebz call.

    Returns (w, iblock, isplit) as dstein takes them: w in block order
    (ascending within each split-off block, not overall), iblock[:w.size]
    the block of each, isplit the block ends.
    """
    # dstebz does not check its input; an overflowed form is refused here
    _check_finite_form(d, e)
    # range 2 selects the eigenvalues with indices il..iu
    m, w, iblock, isplit, info = dstebz(
        d, _lapack_offdiagonal(e), 2, 0.0, 0.0, il, iu, _STEBZ_ABSTOL, "B"
    )
    if info != 0:
        raise NoConvergence(f"tridiagonal bisection failed (dstebz info = {info})")
    return w[:m], iblock, isplit


def _check_finite_form(*arrays: np.ndarray) -> None:
    """Raise ValueError, as scipy's eigensolvers do, for a non-finite entry."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _extreme_eigenvalue(m, which: str) -> float:
    """Smallest or largest eigenvalue of a symmetric matrix, routed by structure.

    m is an ndarray, a sparse matrix, or the _Tridiagonal pair that
    _schur_form returns when B.H_tridiagonal is set.
    A _Tridiagonal pair takes one dstebz Sturm bisection, O(n) at every
    n; every other form takes dense eigvalsh, O(n^3).
    """
    if isinstance(m, _Tridiagonal):
        index = 1 if which == "min" else m.d.shape[0]
        return float(_tridiagonal_eigenvalues(m.d, m.e, index, index)[0][0])
    lo, hi = _extreme_eigenvalues(m)
    return lo if which == "min" else hi


def _extreme_eigenvalues(m) -> tuple[float, float]:
    """(lambda_min, lambda_max) of m; one eigvalsh gives both unless m is tridiagonal."""
    if isinstance(m, _Tridiagonal):
        return _extreme_eigenvalue(m, "min"), _extreme_eigenvalue(m, "max")
    w = np.linalg.eigvalsh(m if isinstance(m, np.ndarray) else m.toarray())
    return float(w[0]), float(w[-1])


def psd_tolerance(m, coeff: float = PSD_COEFF) -> float:
    """Acceptance tolerance for 'positive semidefinite to rounding'.

    A symmetric matrix is accepted as >= 0 when its smallest eigenvalue
    is >= -coeff * (1 + ||m||_inf); exact semidefinite matrices perturb
    slightly negative in floating point.
    """
    if isinstance(m, _Tridiagonal):
        m = m.tocsr()
    if sp.issparse(m):
        norm = float(np.max(np.asarray(abs(m).sum(axis=1)).ravel(), initial=0.0))
    else:
        norm = float(np.max(np.abs(np.asarray(m)).sum(axis=1), initial=0.0))
    return coeff * (1.0 + norm)


def _check_finite(*named: tuple[str, np.ndarray]) -> None:
    """Raise ValidationError, keyed by its name, for the first array with a non-finite entry."""
    for name, a in named:
        if not np.isfinite(a).all():
            raise ValidationError(name, "has a non-finite entry")


def _check_c1(smin: float, c1: float) -> None:
    """Raise NonPositiveS unless lambda_min(S) = smin > 0 and 0 < c1 <= smin.

    c1 may exceed smin by a relative 1e-12, the rounding of a bound
    computed elsewhere.
    """
    if smin <= 0.0:
        raise NonPositiveS(f"lambda_min(S) = {smin:.6g} <= 0; S >= c1 I > 0 fails")
    if not c1 > 0.0:
        raise NonPositiveS(f"asserted c1 = {c1:.6g} is not positive")
    if smin < c1 - 1e-12 * (1.0 + abs(smin)):
        raise NonPositiveS(f"asserted c1 = {c1:.6g} exceeds lambda_min(S) = {smin:.6g}")


def _finite_pair(obj, first: str, second: str) -> None:
    """Freeze obj's two vector fields; DimensionMismatch or ValidationError if unfit."""
    a = np.array(getattr(obj, first), dtype=np.float64).ravel()
    b = np.array(getattr(obj, second), dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"{first} and {second} lengths differ: {a.shape[0]} vs {b.shape[0]}"
        )
    _check_finite((first, a), (second, b))
    object.__setattr__(obj, first, _freeze(a))
    object.__setattr__(obj, second, _freeze(b))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A pair (u, v) of finite upper/lower component vectors of equal length.

    Raises ValidationError naming u or v for a non-finite entry.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        _finite_pair(self, "u", "v")

    def stacked(self) -> np.ndarray:
        """The length-2N vector (u, v)."""
        return np.concatenate([self.u, self.v])

    def norm(self) -> float:
        return float(np.linalg.norm(self.stacked()))


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """The blocks P, T, S of H = [[P, T^t], [T, -S]] plus the certified c1.

    P, T, S and c1 are the only fields that can be set.  The upper right
    block of H is T^t by definition, never separate data, so no
    operator, dataclasses.replace(B, T=X) included, can hold an H that
    is not symmetric.  Guarantees established at assembly and preserved
    by the read-only storage: P and S are exactly symmetric, and
    lambda_min(S) >= c1 > 0.  For a diagonal S that bound is checked
    here, in O(N), so dataclasses.replace(B, S=X) with a diagonal X
    raises NonPositiveS as assemble would; a replaced S that is not
    diagonal is trusted to keep it.

    Four fields are derived from the blocks in __post_init__, O(nnz) in
    all (explicit stored zeros are ignored); they cannot be passed in and
    dataclasses.replace recomputes them:

    N
        The common size of the blocks, P.shape[0].
    Tt
        T^t as a CSC view of T's arrays, no copy.  Made once per
        operator because scipy builds a transpose object on every T.T,
        which apply would otherwise pay on each call.
    S_diagonal
        S has no nonzero off-diagonal entry.
    H_tridiagonal
        When P and S are diagonal and T is upper bidiagonal (every Dirac
        channel), H interleaved as (u_1, v_1, u_2, v_2, ...), which is
        tridiagonal, and so is every M_alpha: the read-only _Tridiagonal
        pair (p_1, -s_1, p_2, ...), (t_11, t_12, t_22, ...).  Every
        O(N) route reads it.  None for every other structure.

    Three dense facts are lazy: each is made on first use and cached on
    this operator, arrays read-only.  None is made at assembly, and
    dataclasses.replace starts without them.  Threads that race to make
    one compute equal values, and one is kept.

    _s_solve
        S^{-1} of a non-diagonal S by _factor's Cholesky, used by every
        S^{-1} the package applies (_s_inverse).
    _M0
        M_0 = P + T^t S^{-1} T of an operator without H_tridiagonal,
        formed through that S^{-1}, symmetrized and checked finite.
        Every read of the dense M_0 takes this one array.
    _shift_basis
        (P, s, Z): P as a dense array, and S = Q diag(s) Q^t with
        Z = Q^t T, made by one eigh of S (none for a diagonal S, where
        Q = I) at the first dense margin with alpha > 0.  Then

            M_alpha = (P - alpha I) + X^t X,  X = diag(s + alpha)^{-1/2} Z,

        so each further dense M_alpha is one syrk and one add.  Nothing
        is subtracted from M_0, whose T^t S^{-1} T term grows like
        1/lambda_min(S): the error of M_alpha stays that of a form
        with S + alpha in place of S, however small lambda_min(S) is.
    """

    P: sp.csr_matrix
    T: sp.csr_matrix
    S: sp.csr_matrix
    c1: float
    N: int = field(init=False)
    Tt: sp.csc_matrix = field(init=False, repr=False)
    S_diagonal: bool = field(init=False)
    H_tridiagonal: _Tridiagonal | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "N", self.P.shape[0])
        object.__setattr__(self, "Tt", self.T.T)
        s_diagonal = _within_band(self.S, 0, 0)
        object.__setattr__(self, "S_diagonal", s_diagonal)
        if s_diagonal:
            _check_c1(float(np.min(self.S.diagonal())), self.c1)
        H = None
        if s_diagonal and _within_band(self.P, 0, 0) and _within_band(self.T, 0, 1):
            d, e = np.empty(2 * self.N), np.empty(2 * self.N - 1)
            d[0::2], d[1::2] = self.P.diagonal(), -self.S.diagonal()
            e[0::2], e[1::2] = self.T.diagonal(), self.T.diagonal(1)
            H = _Tridiagonal(d=_freeze(d), e=_freeze(e))
        object.__setattr__(self, "H_tridiagonal", H)

    @cached_property
    def _s_solve(self) -> Callable:
        s_solve, _ = _factor(self.S.toarray())
        if s_solve is None:
            raise NonPositiveS("S + 0 I is not positive definite")
        return s_solve

    @cached_property
    def _M0(self) -> np.ndarray:
        T = self.T.toarray()
        with np.errstate(all="ignore"):
            M = self.P.toarray() + T.T @ _s_inverse(self)(T)
            M = (M + M.T) * 0.5
        _check_finite_form(M)
        return _freeze(M)

    @cached_property
    def _shift_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        P, T = self.P.toarray(), self.T.toarray()
        with np.errstate(all="ignore"):
            if self.S_diagonal:
                s, Z = self.S.diagonal(), T
            else:
                s, Q = np.linalg.eigh(self.S.toarray())
                Z = Q.T @ T
            return _freeze((P + P.T) * 0.5), _freeze(s), _freeze(Z)


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
        Holding the three blocks as read-only CSR matrices and c1; the
        upper right block of H is T^t by definition, not a stored copy.

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
        _check_finite((name, m.data))
    if not _is_symmetric_exact(Pc):
        raise ValidationError("P", "block must be exactly symmetric")
    if not _is_symmetric_exact(Sc):
        raise ValidationError("S", "block must be exactly symmetric")

    if _within_band(Sc, 0, 0):
        smin = float(np.min(Sc.diagonal()))
    else:
        smin = _extreme_eigenvalue(Sc, "min")
    c1 = smin if c1_policy == "compute" else float(c1_policy)
    _check_c1(smin, c1)
    return BlockOperator(
        P=_freeze_csr(Pc), T=_freeze_csr(Tc), S=_freeze_csr(Sc), c1=c1
    )


def _check_length(B: BlockOperator, name: str, x: np.ndarray) -> None:
    if x.shape[0] != B.N:
        raise DimensionMismatch(
            f"{name} has component length {x.shape[0]}, operator expects {B.N}"
        )


def apply(B: BlockOperator, w: StateVector) -> StateVector:
    """Apply H to (u, v): returns (Pu + T^t v, Tu - Sv)."""
    _check_length(B, "w", w.u)
    return StateVector(
        B.P @ w.u + B.Tt @ w.v,
        B.T @ w.u - B.S @ w.v,
    )


def full_matrix(B: BlockOperator) -> sp.csr_matrix:
    """The assembled 2N x 2N matrix [[P, T^t], [T, -S]] (exactly symmetric)."""
    return sp.bmat([[B.P, B.Tt], [B.T, -B.S]], format="csr")


def _check_shift(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(name, "must be finite")
    return value


def _bidiagonal_gram(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> _Tridiagonal:
    """T^t diag(w) T for T = diag(a) + superdiag(b), symmetrized.

    The entries of the sparse product, in its operation order, so the
    values are bitwise equal to it.
    """
    aw, bw = a * w, b * w[:-1]
    d = aw * a
    d[1:] += bw * b
    return _Tridiagonal(d=d, e=(aw[:-1] * b + bw * a[:-1]) * 0.5)


def _schur_form(B: BlockOperator, alpha: float):
    """M_alpha in the layout the eigensolver takes, exactly symmetric.

    One of two layouts.  When B.H_tridiagonal is set, the _Tridiagonal
    pair of M_alpha's diagonal and off-diagonal, read from the
    interleaved H in O(N) NumPy arithmetic; the eigensolver refuses a
    non-finite pair.  Otherwise a dense ndarray: B._M0 at alpha = 0,
    read-only and formed once per operator, and at alpha > 0
    (P - alpha I) + X^t X with X = diag(s + alpha)^{-1/2} Z from
    B._shift_basis, one syrk.  Either layout is formed without
    floating-point warnings; a non-finite dense form (an overflow)
    raises ValueError, and an S + alpha I that is not positive definite
    (a replaced, trusted S) raises NonPositiveS.
    """
    alpha = _check_shift("alpha", alpha)
    if alpha < 0.0:
        raise NegativeAlpha(f"alpha = {alpha:.6g} < 0")
    H = B.H_tridiagonal
    if H is not None:
        with np.errstate(all="ignore"):
            # H.d holds -s, so alpha - H.d[1::2] is s + alpha
            d, e = _bidiagonal_gram(H.e[0::2], H.e[1::2], 1.0 / (alpha - H.d[1::2]))
            return _Tridiagonal(d=(H.d[0::2] - alpha) + d, e=e)
    if alpha == 0.0:
        return B._M0
    P, s, Z = B._shift_basis
    if not np.min(s) + alpha > 0.0:
        raise NonPositiveS(f"S + {alpha:.6g} I is not positive definite")
    with np.errstate(all="ignore"):
        X = Z / np.sqrt(s + alpha)[:, None]
        # X.T @ X of one buffer goes to syrk, which fills both triangles alike
        M = P + X.T @ X
        M[np.diag_indices(B.N)] -= alpha
    _check_finite_form(M)
    return M


def schur_form_matrix(B: BlockOperator, alpha: float) -> sp.csr_matrix:
    """Matrix of the reduced form: M_alpha = (P - alpha I) + T^t (S + alpha I)^{-1} T.

    At alpha = 0 this is the Schur complement of -S in H.  No inverse
    is formed: S^{-1} is applied by Cholesky solves (exact division for
    a diagonal S, B.S_diagonal), and a dense M_alpha with alpha > 0
    comes from P and the shift basis (see _schur_form).  The
    result is exactly symmetric; only this function converts
    _schur_form's layout to CSR.
    """
    M = _schur_form(B, alpha)
    return M.tocsr() if isinstance(M, _Tridiagonal) else sp.csr_matrix(M)


def _factor(M) -> tuple[Callable | None, str | None]:
    """(solve, None) with solve applying M^{-1}, or (None, why M is not positive definite).

    Every factorization on the solve path, in the layout of _schur_form:
    dpttrf (O(n)) on a _Tridiagonal pair, dense Cholesky on an ndarray,
    which is also how B._s_solve factors a non-diagonal S, once.
    """
    if isinstance(M, _Tridiagonal):
        d, e, info = dpttrf(M.d, _lapack_offdiagonal(M.e))
        if info != 0:
            return None, f"dpttrf info = {info}"
        return (lambda x: dpttrs(d, e, x)[0]), None
    try:
        factor = cho_factor(M, lower=True)
    except np.linalg.LinAlgError as exc:
        return None, f"Cholesky: {exc}"
    return partial(cho_solve, factor), None


def positivity_margin(B: BlockOperator, alpha: float) -> float:
    """lambda_min(M_alpha); nonnegative certifies the inequality at level alpha.

    With B.H_tridiagonal set, one dstebz Sturm bisection, O(N);
    otherwise one dense eigvalsh, O(N^3), of B._M0 at alpha = 0 and of
    P - alpha I plus one syrk of the shift basis at alpha > 0.
    """
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

    Each step costs one positivity_margin: O(N) for an operator with
    B.H_tridiagonal set, and one syrk plus one eigvalsh for every other,
    all from one M_0 and one shift basis (P, s, Q^t T).

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

    Exact division for a diagonal S; otherwise B._s_solve, which raises
    NonPositiveS if S has no Cholesky factor.
    """
    if B.S_diagonal:
        d = B.S.diagonal()
        return lambda x: x / d if x.ndim == 1 else x / d[:, None]
    return B._s_solve


def embedding_delta(B: BlockOperator, tol: float = 1e-8) -> tuple[float, bool]:
    """Scale-of-spaces constant delta = c1*c2/(c1+c2) and its certificate.

    Certifies M_0 - delta*(I + K^t K) >= 0 with K = S^{-1} T, i.e. the
    base form dominates delta*(||u||^2 + ||S^{-1}Tu||^2), to the
    tolerance psd_tolerance gives with its default coefficient PSD_COEFF.
    Returns (delta, certified).  When B.H_tridiagonal is set, K is
    bidiagonal and the form is built from its diagonals, O(N); otherwise
    K is dense, applied with the operator's one factor of S, M_0 is its
    cached array, and K^t K costs O(N^3).
    """
    c2 = find_c2(B, tol)
    delta = B.c1 * c2 / (B.c1 + c2)
    M0 = _schur_form(B, 0.0)
    H = B.H_tridiagonal
    if H is not None:
        s = -H.d[1::2]
        KtK = _bidiagonal_gram(H.e[0::2] / s, H.e[1::2] / s[:-1], np.ones(B.N))
        G = _Tridiagonal(d=M0.d - delta * (1.0 + KtK.d), e=M0.e - delta * KtK.e)
    else:
        K = _s_inverse(B)(B.T.toarray())
        G = M0 - delta * (np.eye(B.N) + K.T @ K)
        G = (G + G.T) * 0.5
    lam = _extreme_eigenvalue(G, "min")
    return delta, bool(lam >= -psd_tolerance(G))


def resolvent_difference_check(B: BlockOperator, alpha: float, delta: float) -> bool:
    """Check S^{-1} - (S+alpha)^{-1} >= delta*S^{-2} spectrally.

    All three terms are functions of S, so the smallest eigenvalue of
    the difference is min over the spectrum of S of

        f(s) = 1/s - 1/(s + alpha) - delta/s**2,

    evaluated without forming or inverting any matrix.  The spectrum is
    the diagonal of a diagonal S (B.S_diagonal) and one dense eigvalsh
    of any other S, at every N: the same eigvalsh assemble runs to
    certify c1.  Valid deltas satisfy 0 < delta <= c1*alpha/(c1+alpha);
    at that boundary f is nonnegative on [c1, inf) with equality at
    s = c1.

    Returns True iff min f(s) >= -PSD_COEFF * (1 + max |f(s)|).
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
    s = B.S.diagonal() if B.S_diagonal else np.linalg.eigvalsh(B.S.toarray())
    vals = 1.0 / s - 1.0 / (s + alpha) - delta / s**2
    scale = float(np.max(np.abs(vals), initial=0.0))
    return bool(np.min(vals) >= -PSD_COEFF * (1.0 + scale))


def matrix_to_text(A) -> str:
    """Serialize a matrix: 'rows cols' header, then row-major decimal entries.

    Entries use %.17g so float64 values round-trip exactly; the format
    is plain ASCII and locale-independent.  Raises ValueError for a
    non-finite entry, which matrix_from_text would refuse.
    """
    arr = np.atleast_2d(A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a non-finite entry")
    out = io.StringIO()
    out.write(f"{arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        out.write(" ".join(f"{x:.17g}" for x in row))
        out.write("\n")
    return out.getvalue()


def matrix_from_text(text: str) -> np.ndarray:
    """Parse matrix_to_text output.

    Raises ValueError for empty text, a header the data does not match,
    or a non-finite entry, as operator_from_text refuses them.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty text: expected a 'rows cols' header")
    rows, cols = (int(tok) for tok in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    arr = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if arr.shape != (rows, cols):
        raise ValueError(f"data shape {arr.shape} does not match header {(rows, cols)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a non-finite entry")
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
    with repr, which round-trips every float64 exactly.
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
