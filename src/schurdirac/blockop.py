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
buffers, and a full block (all N*N entries stored) is read densely as a
view of those buffers.  Every operation is a pure function of its inputs.
"""

from __future__ import annotations

import base64
import io
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dlamch, dposvx, dpotrf, dpotrs, dptsvx, dpttrf
from scipy.linalg.lapack import dormqr, dstebz, dstein, dsytrd, dtrtrs

from .errors import (
    CheckFailed,
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
    "matrix_to_text",
    "matrix_from_text",
    "operator_to_text",
    "operator_from_text",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_csr(name: str, a) -> sp.csr_matrix:
    """Block a as float64 CSR; ValidationError keyed by name for a complex dtype.

    An array with no zero entry is stored whole by _full_csr, without
    scipy's search for its nonzeros.
    """
    a = a if sp.issparse(a) else np.atleast_2d(np.asarray(a))
    if np.iscomplexobj(a):
        # a cast to float64 would drop the imaginary part with only a warning
        raise ValidationError(name, f"has complex dtype {a.dtype}; blocks must be real")
    if sp.issparse(a):
        m = a.tocsr().astype(np.float64)
    else:
        a = a.astype(np.float64)
        m = _full_csr(a.ravel(), *a.shape) if a.ndim == 2 and a.all() else sp.csr_matrix(a)
    m.sum_duplicates()
    return m


def _full_csr(data: np.ndarray, rows: int, cols: int) -> sp.csr_matrix:
    """The canonical CSR block storing all rows * cols entries, data in row-major order."""
    # the index dtype scipy picks for this structure
    idx = np.int32 if data.shape[0] <= np.iinfo(np.int32).max else np.int64
    indptr = np.arange(rows + 1, dtype=idx) * cols
    indices = np.tile(np.arange(cols, dtype=idx), rows)
    m = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
    m.has_canonical_format = True
    return m


def _full(m: sp.csr_matrix) -> np.ndarray | None:
    """The entries of a full block m as an N x N view of m.data, no copy; else None.

    Full: canonical CSR (sorted, no duplicates) storing all N*N entries,
    which it can hold only as every (row, column) pair in row-major
    order; a CSC block would read as its transpose.  The view is
    read-only exactly when m.data is.
    """
    n = m.shape[0]
    if m.format != "csr" or m.shape != (n, n) or m.nnz != n * n or not m.has_canonical_format:
        return None
    return m.data.reshape(n, n)


def _dense_block(m: sp.csr_matrix) -> np.ndarray:
    """m as a read-only dense array: _full's view when m.data is read-only, else a copy."""
    a = _full(m)
    # a view of arrays the caller can still write would change with them
    return a if a is not None and not a.flags.writeable else _freeze(m.toarray())


def _is_symmetric_exact(m: sp.csr_matrix) -> bool:
    """m - m^t has no nonzero entry, for a canonical CSR m (sorted, no duplicates).

    A full m is compared with its transpose as _full's view; otherwise,
    when m^t, as canonical CSR, stores the same structure as m, its data
    is compared entry by entry.  Either way as the subtraction would
    (inf - inf is NaN, not zero); the subtraction itself runs only where
    the stored structures differ, as with an explicit zero stored on one
    side.
    """
    a = _full(m)
    if a is not None:
        with np.errstate(all="ignore"):  # scipy's subtraction overflows silently too
            return not np.any(a - a.T)
    t = m.T.tocsr()
    if np.array_equal(m.indptr, t.indptr) and np.array_equal(m.indices, t.indices):
        with np.errstate(all="ignore"):
            return not np.any(m.data - t.data)
    d = (m - t).tocsr()
    d.eliminate_zeros()
    return d.nnz == 0


def _within_band(m: sp.csr_matrix, lower: int, upper: int) -> bool:
    """True when every nonzero entry m[i, j] has lower <= j - i <= upper.

    Explicit stored zeros are ignored.  A full m counts the nonzeros of
    _full's view and of its diagonals in the band; any other m takes one
    O(nnz) pass over its CSR arrays.
    """
    a = _full(m)
    if a is not None:
        inside = sum(np.count_nonzero(np.diagonal(a, k)) for k in range(lower, upper + 1))
        return inside == np.count_nonzero(a)
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


class _Layout(NamedTuple):
    """B._layout: the diagonals p of P and s of S, and T = diag(a) + b off its diagonal.

    b is T's superdiagonal (b_j = T_{j,j+1}), or its subdiagonal (b_j =
    T_{j+1,j}) when lower.  H interleaves as (u_1, v_1, u_2, ...), or as
    (v_1, u_1, v_2, ...) when lower; either way its off-diagonal is
    (a_1, b_1, a_2, ...).  The one place that order is written.
    """

    p: np.ndarray
    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower: bool

    def interleaved(self) -> _Tridiagonal:
        """H in the interleaved order, read-only."""
        d, e = np.empty(2 * self.p.shape[0]), np.empty(2 * self.p.shape[0] - 1)
        d[0::2], d[1::2] = (-self.s, self.p) if self.lower else (self.p, -self.s)
        e[0::2], e[1::2] = self.a, self.b
        return _Tridiagonal(d=_freeze(d), e=_freeze(e))

    def stacked(self, z: np.ndarray) -> np.ndarray:
        """The rows of z, in the interleaved order, put in the (u, v) order."""
        u, v = (z[1::2], z[0::2]) if self.lower else (z[0::2], z[1::2])
        return np.concatenate([u, v])


# Absolute tolerance of the Sturm bisection: twice the underflow
# threshold, the value at which LAPACK computes eigenvalues most accurately.
_STEBZ_ABSTOL = 2.0 * dlamch("S")
# Relative machine precision times the base, the unit of the rounding bounds.
_ULP = dlamch("P")
# dsyevx scales H so that max|H_ij| lies in [_RMIN, _RMAX] (about 1e-146
# and 8.2e76) before it reduces H; B._H_reduced scales alike.
_RMIN = math.sqrt(dlamch("S") / _ULP)
_RMAX = min(math.sqrt(_ULP / dlamch("S")), 1.0 / math.sqrt(math.sqrt(dlamch("S"))))


def _lapack_offdiagonal(e: np.ndarray) -> np.ndarray:
    # scipy's wrappers refuse the empty e of a 1x1 matrix; LAPACK reads none of it
    return e if e.shape[0] else np.zeros(1)


def _sturm_selection(d, e, irange: int, vu: float, il: int, iu: int, abstol: float = _STEBZ_ABSTOL):
    """The package's one dstebz: range 1 selects (-inf, vu] of (d, e), range 2 il..iu (1-based).

    Returns (w, iblock, isplit) as dstein takes them: w in block order
    (ascending within each split-off block, not overall), iblock[:w.size]
    the block of each, isplit the block ends.  abstol scales with a
    scaled form, as B._H_reduced's is.
    """
    # dstebz does not check its input; an overflowed form is refused here
    _check_finite_form(d, e)
    m, w, iblock, isplit, info = dstebz(
        d, _lapack_offdiagonal(e), irange, -math.inf, vu, il, iu, abstol, "B"
    )
    if info != 0:
        raise NoConvergence(f"tridiagonal bisection failed (dstebz info = {info})")
    return w[:m], iblock, isplit


def _check_finite_form(*arrays: np.ndarray) -> None:
    """Raise ValueError, as scipy's eigensolvers do, for a non-finite entry."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _extreme_eigenvalues(m, low: bool = True, high: bool = True) -> tuple[float, ...]:
    """(lambda_min, lambda_max) of a symmetric matrix, or the one of them asked for.

    m is an ndarray, a sparse matrix, or the _Tridiagonal pair that
    _schur_form returns when B.H_tridiagonal is set.  A _Tridiagonal
    pair takes one dstebz Sturm bisection per eigenvalue, O(n) at every
    n; every other form takes one dense eigvalsh for both, O(n^3).
    """
    if isinstance(m, _Tridiagonal):
        ends = (1,) * low + (m.d.shape[0],) * high
        return tuple(float(_sturm_selection(m.d, m.e, 2, 0.0, i, i)[0][0]) for i in ends)
    w = np.linalg.eigvalsh(m if isinstance(m, np.ndarray) else m.toarray())
    return (float(w[0]),) * low + (float(w[-1]),) * high


def _rayleigh_bound(M: _Tridiagonal, x: np.ndarray) -> float:
    """An upper bound on lambda_1 of the tridiagonal M: x^t M x / x^t x, rounded up, O(n).

    By Courant-Fischer, lambda_1 <= x^t M x / x^t x for every x != 0.
    With mag = sum |d_i| x_i^2 + 2 sum |e_i x_i x_{i+1}|, the rounding
    of the two sums, of x^t x and of the quotient is below (n + 3) ulp
    times mag / x^t x, barring underflow (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1); (n + 8) ulp bounds it
    with the rounding of the bound itself.  inf or NaN, never a
    warning, when a sum overflows.
    """
    with np.errstate(all="ignore"):
        dx, ex = M.d * x * x, M.e * x[:-1] * x[1:]
        den = float(x @ x)
        rho = float(np.sum(dx) + 2.0 * np.sum(ex)) / den
        mag = float(np.sum(np.abs(dx)) + 2.0 * np.sum(np.abs(ex))) / den
        return rho + (x.shape[0] + 8) * _ULP * mag


def _lowest_eigenvalue(M: _Tridiagonal, x: np.ndarray | None) -> float:
    """lambda_1 of the tridiagonal M: the least eigenvalue one dstebz finds in (-inf, hi].

    hi = _rayleigh_bound(M, x) >= lambda_1, so this skips the search of
    Gershgorin's whole interval that the range-'I' call starts with.  A
    poor x only lets more eigenvalues in, each bisected to _STEBZ_ABSTOL
    as lambda_1 alone would be.  The range-'I' call is taken instead
    when x is None, hi is not finite, or the bracket comes back empty (a
    Sturm count at hi rounded below 1, or a hi that underflow put below
    lambda_1), so no bracket gives a wrong value.
    """
    hi = math.nan if x is None else _rayleigh_bound(M, x)
    if math.isfinite(hi):
        w = _sturm_selection(M.d, M.e, 1, hi, 0, 0)[0]
        if w.shape[0]:
            return float(np.min(w))
    return float(_sturm_selection(M.d, M.e, 2, 0.0, 1, 1)[0][0])


def _h_norm(B: BlockOperator) -> float:
    """A bound on ||H||_inf: max|d| + 2 max|e| of B.H_tridiagonal, else B._H_reduced's norm."""
    if B.H_tridiagonal is None:
        return B._H_reduced.norm
    d, e = B.H_tridiagonal
    return float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))


def _rounding(N: int, norm: float) -> float:
    """10 sqrt(2N) ulp times norm: the rounding allowed a backward-stable result on H."""
    return 10.0 * math.sqrt(2 * N) * _ULP * norm


def _lambda_min_s(S: sp.csr_matrix | np.ndarray, diagonal: bool) -> float:
    """lambda_min(S), S sparse or dense: the least entry of a diagonal S, else one eigvalsh."""
    return float(np.min(S.diagonal())) if diagonal else _extreme_eigenvalues(S, high=False)[0]


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

    @classmethod
    def _computed(cls, u: np.ndarray, v: np.ndarray) -> StateVector:
        """u, v frozen, unchecked: for computed vectors a later gate refuses if non-finite."""
        w = object.__new__(cls)
        w.__dict__.update(u=_freeze(u), v=_freeze(v))
        return w

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
    here, in O(N), and only here, so dataclasses.replace(B, S=X) with a
    diagonal X raises NonPositiveS as assemble would; assemble checks
    the c1 of any other S, and a replaced S that is not diagonal is
    trusted to keep it.

    Four fields are derived from the blocks in __post_init__, O(nnz) in
    all (explicit stored zeros are ignored); they cannot be passed in and
    dataclasses.replace recomputes them.  The bands of P and S are
    tested at most once per operator: assemble tests whether S and P are
    diagonal (P only for a diagonal S or one storing at most N
    entries), skips the exact symmetry test of a diagonal block, and
    hands both answers to __post_init__ through the private _diagonal;
    every other construction, dataclasses.replace included, tests S
    here, and P only for a diagonal S.  T is tested only when P and S
    are diagonal: for the upper bidiagonal band, and, only if that
    fails, for the lower one.

    N
        The common size of the blocks, P.shape[0].
    Tt
        T^t as a CSC view of T's arrays, no copy.  Made once per
        operator because scipy builds a transpose object on every T.T,
        which apply would otherwise pay on each call.
    S_diagonal
        S has no nonzero off-diagonal entry.
    _layout
        When P and S are diagonal and T is bidiagonal, as in every Dirac
        channel, the layout that makes H and every M_alpha tridiagonal,
        recorded once: the read-only diagonals p of P and s of S, T's
        diagonal a and off-diagonal b, and T's orientation, a _Layout.
        Upper (offsets {0, 1}) wins whenever it holds, so a diagonal or
        1 x 1 T is upper; lower means offsets {-1, 0}.  Every O(N) route
        reads it, not H's strides: the forms M_alpha, embedding_delta's
        K = S^{-1} T, and the map of gap eigenvectors back to (u, v).
        None for every other structure, which takes the dense route.

    Ten facts are lazy: each is made on first use and cached on this
    operator, arrays read-only.  Only _s_min may be made at assembly,
    by assemble, and dataclasses.replace starts without any of them.  Threads that race
    to make one compute equal values, and one is kept.

    H_tridiagonal
        H interleaved from _layout, which makes it tridiagonal: as (u_1,
        v_1, u_2, ...) for an upper T, as (v_1, u_1, v_2, ...) for a
        lower one.  The read-only _Tridiagonal pair (p_1, -s_1, p_2,
        ...), or (-s_1, p_1, -s_2, ...) when lower, and (a_1, b_1, a_2,
        ...) either way: what _h_norm and _window's Sturm
        selections read.  None exactly when _layout is; a solve never
        makes it.

    _dense
        The read-only dense P, T and S, a _Blocks triple.  A full block
        (_full: all N*N entries stored, canonical) whose CSR arrays are
        read-only, as assemble, operator_from_text and
        dataclasses.replace of them leave them, is the view of its data
        and keeps no doubles; any other block is one toarray copy, N^2
        doubles (0.08 MB at 2N = 200), so a caller that still holds
        writable arrays never writes through it.  Every dense reader
        takes its blocks from it (_M0, _s_solve, _shifted_x,
        _schur_form, _dense_H, embedding_delta and
        resolvent_difference_check), and so does _stacked_apply, the
        product of apply, solve's residual and gap_eigenvalues'
        residuals, when all three blocks are full; otherwise it stays on
        the CSR blocks.  An operator with a _layout never keeps one;
        inertia_c2_oracle densifies its blocks for the one call.
    _s_solve
        S^{-1}, applied to a vector or the columns of a matrix: exact
        division for a diagonal S, whose closure keeps the diagonal and
        not the operator; else _factor's Cholesky of S and dpotrs (the
        routine scipy's cho_solve calls).  Every S^{-1} the package
        applies is this one.
    _M0
        M_0 = P + T^t S^{-1} T in the layout of _schur_form, checked
        finite: the _Tridiagonal pair formed from _layout, or else
        the dense array formed through that S^{-1} and symmetrized.
        Every read of M_0 on either layout takes this one value.
    _margin0
        lambda_min(M_0), one dstebz or eigvalsh of _M0: what
        positivity_margin(B, 0.0) and form_report(B, 0.0) return, what
        find_c2 reads where its bracket or a refusal needs it, and what
        solve's refusal names.
    _ground
        With a _layout: the read-only unit eigenvector x of
        lambda_1(M_0), by one dstein at _margin0's value, M_0 taken as
        one block, so M_0 is still read by one dstebz.  Every margin at
        alpha > 0 brackets lambda_1(M_alpha) in (-inf, hi], hi the
        Rayleigh quotient of M_alpha at x rounded up
        (_lowest_eigenvalue); by Courant-Fischer any nonzero x bounds
        it, so the block split does not matter.  None when M_0 is not
        finite or dstein fails; the margins then take the range-'I'
        selection.
    _s_min
        lambda_min(S), the value c1 is certified against: the least
        diagonal entry of a diagonal S, else one eigvalsh of S.  assemble
        keeps the value when it computes one, read from _dense's form of
        S; a given c1 that one factorization certifies (_factor_shows_c1)
        and every other construction make it from _dense.S on first use,
        bitwise alike.
        resolvent_difference_check reads it.
    _elimination
        _factor's (factor, info) of _M0: the factor every solve hands
        the expert driver, or None with LAPACK's pivot info.
    _H_reduced
        The dense H of an operator without a _layout, reduced to a
        tridiagonal (d, e) by one lower dsytrd in place, as dsyevx
        reduces it (scaled first when max|H_ij| is out of range), with
        the reflectors, ||H||_inf and the scale: a _Reduction.  _window reads
        it for find_c2's selection and every gap_eigenvalues window, so
        each dense H is reduced once, not once per call.  It keeps about
        (2N)^2 doubles, H's own buffer: measured 0.33 MB at 2N = 200
        and 8.0 MB at 2N = 1000 (16 MB at the peak while it is made).
    _c2
        The certified c2 of find_c2, one entry per tol it was asked at:
        find_c2 and embedding_delta read it, so each tol's c2 is
        computed once per operator.  A refusal is not kept.
    """

    P: sp.csr_matrix
    T: sp.csr_matrix
    S: sp.csr_matrix
    c1: float
    N: int = field(init=False)
    Tt: sp.csc_matrix = field(init=False, repr=False)
    S_diagonal: bool = field(init=False)
    _layout: _Layout | None = field(init=False, repr=False)
    _diagonal: InitVar[tuple[bool, bool] | None] = field(default=None, kw_only=True)

    def __post_init__(self, _diagonal: tuple[bool, bool] | None):
        object.__setattr__(self, "N", self.P.shape[0])
        object.__setattr__(self, "Tt", self.T.T)
        if _diagonal is None:
            s_diagonal = _within_band(self.S, 0, 0)
            _diagonal = (s_diagonal and _within_band(self.P, 0, 0), s_diagonal)
        p_diagonal, s_diagonal = _diagonal
        object.__setattr__(self, "S_diagonal", s_diagonal)
        if s_diagonal:
            s = self.S.diagonal()
            _check_c1(float(np.min(s)), self.c1)
        layout = None
        if s_diagonal and p_diagonal:
            # upper wins whenever it holds, so a diagonal T is upper
            lower = not _within_band(self.T, 0, 1)
            if not lower or _within_band(self.T, -1, 0):
                b = self.T.diagonal(-1 if lower else 1)
                diagonals = (self.P.diagonal(), s, self.T.diagonal(), b)
                layout = _Layout(*map(_freeze, diagonals), lower=lower)
        object.__setattr__(self, "_layout", layout)

    @cached_property
    def H_tridiagonal(self) -> _Tridiagonal | None:
        return None if self._layout is None else self._layout.interleaved()

    @cached_property
    def _dense(self) -> _Blocks:
        return _Blocks(*map(_dense_block, (self.P, self.T, self.S)))

    @cached_property
    def _s_solve(self) -> Callable:
        if self.S_diagonal:
            d = self.S.diagonal()  # the closure keeps this array, not the operator
            return lambda x: x / d if x.ndim == 1 else x / d[:, None]
        factor, _ = _factor(self._dense.S)
        if factor is None:
            raise NonPositiveS("S + 0 I is not positive definite")
        # dpotrs solves a copy of x; a non-finite x passes on, to solve's residual
        return lambda x: dpotrs(factor, x, lower=1)[0]

    @cached_property
    def _M0(self) -> _Tridiagonal | np.ndarray:
        if self._layout is not None:
            M = _tridiagonal_form(self._layout, 0.0)
            _check_finite_form(M.d, M.e)
            return M
        P, T, _ = self._dense
        with np.errstate(all="ignore"):
            M = P + T.T @ self._s_solve(T)
            M = (M + M.T) * 0.5
        _check_finite_form(M)
        return _freeze(M)

    @cached_property
    def _margin0(self) -> float:
        return _extreme_eigenvalues(self._M0, high=False)[0]

    @cached_property
    def _ground(self) -> np.ndarray | None:
        try:
            M, lam = self._M0, self._margin0
        except ValueError:  # a non-finite M_0, which has no eigenvector to read
            return None
        # one block, as any nonzero x bounds lambda_1 from above
        block, ends = np.ones(self.N, np.int32), np.full(self.N, self.N, np.int32)
        z, info = dstein(M.d, _lapack_offdiagonal(M.e), np.array([lam]), block, ends)
        return None if info else _freeze(z[:, 0])

    @cached_property
    def _s_min(self) -> float:
        return _lambda_min_s(self.S if self.S_diagonal else self._dense.S, self.S_diagonal)

    @cached_property
    def _H_reduced(self) -> _Reduction:
        H = _dense_H(self)
        with np.errstate(all="ignore"):
            a = np.abs(H)
            norm, big = float(np.max(a.sum(axis=1))), float(np.max(a))
        scale = _RMIN / big if 0.0 < big < _RMIN else _RMAX / big if big > _RMAX else 1.0
        if scale != 1.0:
            H *= scale
        # H is exactly symmetric, so H.T is the Fortran-ordered array that
        # dsytrd reduces in place, with the 5 * 2N words dsyevx hands it
        A, d, e, tau, _ = dsytrd(H.T, lower=1, lwork=5 * H.shape[0], overwrite_a=1)
        return _Reduction(*map(_freeze, (d, e, A, tau)), norm=norm, scale=scale)

    @cached_property
    def _elimination(self) -> tuple[tuple | np.ndarray | None, int]:
        return _factor(self._M0)

    @cached_property
    def _c2(self) -> dict[float, float]:
        return {}


class _Blocks(NamedTuple):
    """B._dense: read-only dense copies of the blocks P, T and S."""

    P: np.ndarray
    T: np.ndarray
    S: np.ndarray


class _Reduction(NamedTuple):
    """B._H_reduced: dsytrd's (d, e), reflectors and tau of scale * H; norm is ||H||_inf."""

    d: np.ndarray
    e: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    norm: float
    scale: float


def _window(B: BlockOperator) -> tuple[Callable, float]:
    """window(il, iu) of H from a tridiagonal form (d, e) of it, and a bound on ||H||_inf.

    window(il, iu) gives eigenvalues il..iu (1-based) of H, ascending,
    and pairs_at, a map from positions in them to (lambda, x) pairs, x
    in the (u, v) layout: dstebz selects the values and dstein the
    vectors of (d, e).  A channel's form is B.H_tridiagonal: only the
    chosen eigenvalues are inverted, and their vectors de-interleaved in
    the order B._layout records.  Every other operator's is
    B._H_reduced: the whole window is inverted, and the vectors go back
    through dsytrd's reflectors (dormqr on rows 2..2N, as dormtr applies
    them for uplo = "L"), the values through 1 / scale, as dsyevx does.
    """
    whole = B.H_tridiagonal is None
    if not whole:
        (d, e), scale, back = B.H_tridiagonal, 1.0, B._layout.stacked
    else:
        d, e, A, tau, _, scale = B._H_reduced

        def back(z):
            # dormtr's workspace in dsyevx starts at word 2N + 1 of 8 * 2N
            z[1:] = dormqr("L", "N", A[1:, :-1], tau, z[1:], 7 * d.shape[0])[0]
            return z

    def window(il, iu):
        w, iblock, isplit = _sturm_selection(d, e, 2, 0.0, il, iu, _STEBZ_ABSTOL * scale)
        # w is in block order; rank[i] is the position of the i-th smallest
        rank = np.argsort(w, kind="stable")

        def pairs_at(chosen):
            want = rank[chosen]
            keep = np.arange(w.shape[0]) if whole else np.sort(want)  # dstein takes block order
            blocks = np.zeros_like(iblock)
            blocks[: keep.shape[0]] = iblock[keep]
            z, info = dstein(d, e, w[keep], blocks, isplit)
            if info != 0:
                raise NoConvergence(f"inverse iteration failed (dstein info = {info})")
            x = back(z)[:, np.searchsorted(keep, want)]
            return [(float(w[i] * (1.0 / scale)), x[:, j]) for j, i in enumerate(want)]

        return w[rank] * (1.0 / scale), pairs_at

    return window, _h_norm(B)


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
        If a block has a complex dtype or a non-finite entry, or P or S
        is not exactly symmetric; its key names the block.
    """
    return _validated(_as_csr("P", P), _as_csr("T", T), _as_csr("S", S), c1_policy)


def _validated(Pc, Tc, Sc, c1_policy) -> BlockOperator:
    """assemble's checks on canonical float64 CSR blocks, which the operator then holds.

    The one validation of every assembled or read operator: assemble
    hands it _as_csr's copies, operator_from_text its decoded blocks,
    whose full-pattern structures it rebuilt rather than read, and
    dirac.build_channel its freshly written banded blocks.  Each
    block is frozen first, so lambda_min(S) of a full S reads the view
    B._dense keeps.  A given c1 of a non-diagonal S is certified by one
    factor where it can be (_factor_shows_c1).
    """
    n = Pc.shape[0]
    if n == 0:
        raise DimensionMismatch("blocks are empty")
    for name, m in (("P", Pc), ("T", Tc), ("S", Sc)):
        if m.shape != (n, n):
            raise DimensionMismatch(f"block {name} has shape {m.shape}, expected {(n, n)}")
        _check_finite((name, m.data))
        for buf in (m.data, m.indices, m.indptr):
            buf.setflags(write=False)
    s_diagonal = _within_band(Sc, 0, 0)
    # H_tridiagonal reads P's band when S is diagonal; a P of at most n
    # entries is tested too, as the test is then cheaper than the symmetry test
    p_diagonal = (s_diagonal or Pc.nnz <= n) and _within_band(Pc, 0, 0)
    # a block with no nonzero off the diagonal is exactly symmetric
    for name, m, diagonal in (("P", Pc, p_diagonal), ("S", Sc, s_diagonal)):
        if not (diagonal or _is_symmetric_exact(m)):
            raise ValidationError(name, "block must be exactly symmetric")

    S = Sc if s_diagonal else _dense_block(Sc)
    c1 = None if c1_policy == "compute" else float(c1_policy)
    smin = None
    if s_diagonal or c1 is None or not _factor_shows_c1(S, c1):
        smin = _lambda_min_s(S, s_diagonal)
        c1 = smin if c1 is None else c1
        if not s_diagonal:  # BlockOperator checks the c1 of a diagonal S
            _check_c1(smin, c1)
    B = BlockOperator(P=Pc, T=Tc, S=Sc, c1=c1, _diagonal=(p_diagonal, s_diagonal))
    if smin is not None:
        # the lazy B._s_min would repeat this eigvalsh of the same array
        vars(B)["_s_min"] = smin
    return B


def _factor_shows_c1(S: np.ndarray, c1: float) -> bool:
    """True when one dpotrf shows that lambda_min(S) passes _check_c1 with c1; else False.

    _check_c1 accepts a c1 > 0 when lambda_min(S) > 0 and lambda_min(S)
    >= floor = (c1 - 1e-12) / (1 + 1e-12).  A factor of S - shift I shows
    lambda_min(S) > shift - ||E||_2, E the rounding of S - shift I and
    dpotrf's backward error, which ||L||_F^2 = tr(L L^t) bounds by (n + 2)
    u tr(S - shift I), u = ulp / 2 (Higham, Accuracy and Stability of
    Numerical Algorithms, thm 10.3).  shift = f + (n + 8) u (f + tr(S -
    f I)), f = max(floor, 0), covers it and the rounding of f and shift,
    so a factor shows lambda_min(S) > f.  A failed one shows nothing.
    """
    floor = max((c1 - 1e-12) / (1.0 + 1e-12), 0.0)
    with np.errstate(all="ignore"):  # an overflowed shift fails the factor
        a = S.diagonal() - floor
        if not (c1 > 0.0 and np.min(a) > 0.0):
            return False
        shift = floor + (S.shape[0] + 8) * (0.5 * _ULP) * (floor + float(np.sum(a)))
        return _shifted_cholesky(S, -shift)[1] == 0


def _shifted_cholesky(S: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """dpotrf's (L, info) of S + alpha I, on one copy of the exactly symmetric S."""
    A = S.copy().T  # S = S^t, so this is the Fortran-ordered array dpotrf overwrites
    A[np.diag_indices(S.shape[0])] += alpha
    return dpotrf(A, lower=1, clean=0, overwrite_a=1)


def _check_length(B: BlockOperator, name: str, x: np.ndarray) -> None:
    if x.shape[0] != B.N:
        raise DimensionMismatch(
            f"{name} has component length {x.shape[0]}, operator expects {B.N}"
        )


def _stacked_apply(B: BlockOperator, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H (u, v) as one length-2N vector, unchecked: apply's, and computed results' residuals.

    BLAS on B._dense when all three blocks store N*N entries, whose
    dense forms are then views of them; CSR products otherwise.  The
    stored counts are read as data.size, about 1 us a call cheaper than
    scipy's nnz.
    """
    if B.P.data.size == B.T.data.size == B.S.data.size == B.N * B.N:
        P, T, S = B._dense
        return np.concatenate([P @ u + T.T @ v, T @ u - S @ v])
    return np.concatenate([B.P @ u + B.Tt @ v, B.T @ u - B.S @ v])


def apply(B: BlockOperator, w: StateVector) -> StateVector:
    """Apply H to (u, v): returns (Pu + T^t v, Tu - Sv)."""
    _check_length(B, "w", w.u)
    return StateVector(*np.split(_stacked_apply(B, w.u, w.v), 2))


def full_matrix(B: BlockOperator) -> sp.csr_matrix:
    """The assembled 2N x 2N matrix [[P, T^t], [T, -S]] (exactly symmetric)."""
    return sp.bmat([[B.P, B.Tt], [B.T, -B.S]], format="csr")


def _dense_H(B: BlockOperator) -> np.ndarray:
    """H = [[P, T^t], [T, -S]] as one dense array, exactly symmetric.

    The one dense H of the package: find_c2's selection, the dense gap
    pairs and inertia_c2_oracle read it.  A new buffer each call, which
    B._H_reduced reduces in place, filled from B._dense, or from blocks
    densified for this call alone when B.H_tridiagonal is set.
    """
    P, T, S = B._dense if B._layout is None else (m.toarray() for m in (B.P, B.T, B.S))
    N = B.N
    H = np.empty((2 * N, 2 * N))
    H[:N, :N], H[:N, N:], H[N:, :N] = P, T.T, T
    np.negative(S, out=H[N:, N:])
    return H


def _is_integer(x) -> bool:
    """An int or numpy integer, but not a bool (which Python counts as an int)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_shift(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(name, "must be finite")
    return value


def _offdiagonal(lower: bool) -> tuple[slice, slice]:
    """The rows and the columns of T that b_1 .. b_{N-1}, T's off-diagonal, sit in."""
    return (slice(1, None), slice(None, -1)) if lower else (slice(None, -1), slice(1, None))


def _bidiagonal_gram(a: np.ndarray, b: np.ndarray, w: np.ndarray, lower: bool) -> _Tridiagonal:
    """T^t diag(w) T for T = diag(a) + b on the superdiagonal, or the subdiagonal when lower.

    Symmetrized, the entries of the sparse product in its operation
    order, so the values are bitwise equal to it: upper, d_j = a_j^2 w_j
    + b_{j-1}^2 w_{j-1} and e_j = a_j w_j b_j; lower, d_j = a_j^2 w_j +
    b_j^2 w_{j+1} and e_j = a_{j+1} w_{j+1} b_j.
    """
    rows, cols = _offdiagonal(lower)
    aw, bw = a * w, b * w[rows]
    d = aw * a
    d[cols] += bw * b
    return _Tridiagonal(d=d, e=(aw[rows] * b + bw * a[rows]) * 0.5)


def _tridiagonal_form(L: _Layout, alpha: float) -> _Tridiagonal:
    """M_alpha of the recorded layout L, read-only, formed without warnings."""
    with np.errstate(all="ignore"):
        d, e = _bidiagonal_gram(L.a, L.b, 1.0 / (alpha + L.s), L.lower)
        return _Tridiagonal(d=_freeze((L.p - alpha) + d), e=_freeze(e))


def _schur_form(B: BlockOperator, alpha: float, X: np.ndarray | None = None):
    """M_alpha in the layout the eigensolver takes, exactly symmetric.

    At alpha = 0 on either layout, B._M0, read-only and formed once per
    operator.  When B.H_tridiagonal is set, the read-only _Tridiagonal
    pair of M_alpha's diagonal and off-diagonal, formed from the
    recorded B._layout in O(N) NumPy arithmetic; the eigensolver refuses
    a non-finite pair.  Otherwise a dense ndarray, at alpha > 0
    (P - alpha I) + X^t X, one syrk of _shifted_x's X (or the X given).
    Either layout is formed without floating-point warnings; a
    non-finite M_0, or a non-finite dense form (an overflow), raises
    ValueError.
    """
    alpha = _check_shift("alpha", alpha)
    if alpha < 0.0:
        raise NegativeAlpha(f"alpha = {alpha:.6g} < 0")
    if alpha == 0.0:
        return B._M0
    if B._layout is not None:
        return _tridiagonal_form(B._layout, alpha)
    X = _shifted_x(B, alpha) if X is None else X
    with np.errstate(all="ignore"):
        # X.T @ X of one buffer goes to syrk, which fills both triangles alike
        M = B._dense.P + X.T @ X
        M[np.diag_indices(B.N)] -= alpha
    _check_finite_form(M)
    return M


def _shifted_x(B: BlockOperator, alpha: float) -> np.ndarray:
    """X = L^{-1} T, L L^t = S + alpha I by dpotrf, so X^t X = T^t (S + alpha I)^{-1} T.

    One dtrtrs; a diagonal S divides by sqrt(s + alpha), exactly.  M_0's
    T^t S^{-1} T grows like 1/lambda_min(S); X has only the error of a
    factor of S + alpha I.  NonPositiveS when S + alpha I has none.
    """
    _, T, S = B._dense
    with np.errstate(all="ignore"):
        if B.S_diagonal:
            s = B.S.diagonal() + alpha
            X, info = T / np.sqrt(s)[:, None], int(not np.min(s) > 0.0)
        else:
            L, info = _shifted_cholesky(S, alpha)
            # no overwrite_b: f2py would solve in place in a read-only T
            # that is already Fortran-ordered
            X = None if info else dtrtrs(L, T, lower=1)[0]
    if info:
        raise NonPositiveS(f"S + {alpha:.6g} I is not positive definite")
    return X


def schur_form_matrix(B: BlockOperator, alpha: float) -> sp.csr_matrix:
    """Matrix of the reduced form: M_alpha = (P - alpha I) + T^t (S + alpha I)^{-1} T.

    At alpha = 0 this is the Schur complement of -S in H.  No inverse
    is formed: (S + alpha I)^{-1} is applied by its Cholesky factor
    (exact division for a diagonal S, B.S_diagonal; see _schur_form).
    The result is exactly symmetric; only this function converts
    _schur_form's layout to CSR.
    """
    M = _schur_form(B, alpha)
    return M.tocsr() if isinstance(M, _Tridiagonal) else sp.csr_matrix(M)


def _factor(M) -> tuple[tuple | np.ndarray | None, int]:
    """(factor, 0) of a positive definite M, or (None, info) with LAPACK's pivot info > 0.

    In the layout of _schur_form: dpttrf (O(n)) on a _Tridiagonal pair,
    whose factor is the (d, e) of L D L^t; Cholesky (dpotrf, lower) on an
    ndarray, whose factor holds L in its lower triangle.  These are the
    factors _expert_solve hands its driver, and B._s_solve keeps a
    non-diagonal S's.
    """
    if isinstance(M, _Tridiagonal):
        # dpttrf does not check its input: a NaN pivot would pass as positive
        _check_finite_form(M.d, M.e)
        d, e, info = dpttrf(M.d, _lapack_offdiagonal(M.e))
        return (None, info) if info else ((_freeze(d), _freeze(e)), 0)
    c, info = dpotrf(M, lower=1, clean=0)
    return (None, info) if info else (_freeze(c), 0)


def _expert_solve(M, b: np.ndarray, factor) -> tuple[np.ndarray, float]:
    """(x, rcond) of M x = b by one call of LAPACK's expert driver on _factor's factor.

    dptsvx on a _Tridiagonal pair, dposvx (lower, not equilibrated) on an
    ndarray, both with fact = "F": it solves, refines x iteratively and
    returns rcond = 1 / kappa_1(M), exact (dptcon) or estimated (dpocon).
    Its info, 0 or n + 1 (rcond < eps) once M is factored, is not needed.
    """
    if isinstance(M, _Tridiagonal):
        e = _lapack_offdiagonal(M.e)
        _, _, x, rcond, _, _, _ = dptsvx(M.d, e, b, fact="F", df=factor[0], ef=factor[1])
        return x, rcond
    _, _, _, _, _, x, rcond, _, _, _ = dposvx(M, b, lower=1, fact="F", af=factor, equed="N")
    return x, rcond


def _refusal(B: BlockOperator) -> str:
    """Why M_0 has no factor: B._margin0, or _factor's pivot info in 1..n (the driver's alike)."""
    lam, info = B._margin0, B._elimination[1]
    if lam <= 0.0:
        return (
            f"reduced matrix M_0 is not positive definite (lambda_min = {lam:.6g}); "
            "the elimination requires a positive base form"
        )
    kind, driver = ("Cholesky", "dposvx") if B._layout is None else ("L D L^t", "dptsvx")
    return f"M_0 is not positive definite ({kind} pivot {info} <= 0, {driver} info = {info})"


def positivity_margin(B: BlockOperator, alpha: float) -> float:
    """lambda_min(M_alpha); nonnegative certifies the inequality at level alpha.

    At alpha = 0, B._margin0: lambda_min(M_0), computed once per
    operator.  At alpha > 0 with B.H_tridiagonal set, one dstebz Sturm
    bisection, O(N), on a bracket (-inf, hi] that holds it by
    Courant-Fischer, hi the Rayleigh quotient of M_alpha at B._ground,
    M_0's ground state, rounded up (_lowest_eigenvalue, with its
    fallback).  Otherwise one dense eigvalsh, O(N^3), of the
    Cholesky-formed M_alpha of _schur_form.
    """
    alpha = _check_shift("alpha", alpha)
    return _margin(B, alpha, _schur_form(B, alpha))


def _margin(B: BlockOperator, alpha: float, M) -> float:
    """lambda_min of M = _schur_form(B, alpha): B._margin0 at alpha = 0."""
    if alpha == 0.0:
        return B._margin0
    if isinstance(M, _Tridiagonal):
        return _lowest_eigenvalue(M, B._ground)
    return _extreme_eigenvalues(M, high=False)[0]


def form_report(B: BlockOperator, alpha: float) -> FormReport:
    """Margin and conditioning of the reduced form at one alpha.

    The margin is positivity_margin's, bitwise: at alpha = 0
    B._margin0, and on a tridiagonal form at alpha > 0 the one dstebz
    on its Courant-Fischer bracket; only lambda_max is then computed
    here, by one dstebz selection by index.  A dense form takes one
    eigvalsh for both ends, which at alpha = 0, on a dense M_0 whose
    margin is not yet made, also gives B._margin0.
    """
    M = _schur_form(B, alpha)
    if isinstance(M, _Tridiagonal) or (alpha == 0.0 and "_margin0" in vars(B)):
        lo, (hi,) = _margin(B, alpha, M), _extreme_eigenvalues(M, low=False)
    else:
        lo, hi = _extreme_eigenvalues(M)
        if alpha == 0.0:
            # lo is the w[0] of the eigvalsh that B._margin0 would make
            vars(B).setdefault("_margin0", lo)
    mags = sorted((abs(lo), abs(hi)))
    cond = float("inf") if mags[0] == 0.0 else mags[1] / mags[0]
    return FormReport(alpha=alpha, margin=lo, form_matrix_condition=cond)


def find_c2(B: BlockOperator, tol: float = 1e-8) -> float:
    """Largest c2 >= 0 with positivity_margin(B, c2) >= 0, certified.

    The margin decreases in alpha with slope <= -1, so the root lies in
    [0, margin(0)]; by inertia additivity it is eigenvalue N+1 of H.
    margin(0) is the operator's B._margin0, lambda_min of B._M0, made
    once per operator on both layouts and shared with solve.  Both
    routes certify their result by factorizations alone (_certify_c2,
    Sylvester's law of inertia): M_{c2-t} must be positive definite and
    M_{c2+t} must not, so the root lies within t of c2.  The certified
    value is kept in B._c2 by tol, for later calls and embedding_delta;
    a refusal is not kept, so every call raises it again.

    * B.H_tridiagonal set (every Dirac channel): bisection of that
      bracket to width <= tol, or to adjacent floats when tol is below
      their spacing; the midpoint is returned.  One O(N) margin a step,
      each one dstebz on its Courant-Fischer bracket (see
      positivity_margin).
      Two O(N) L D L^t factorizations certify it at t = 10 tol +
      _rounding(||H||_inf), as gap_eigenvalues allows; on small-r_min
      grids that term exceeds c2, so no side is formed there.
    * Otherwise eigenvalue N+1 of the dense H, _window(N + 1, N + 1) on
      B._H_reduced (the steps of a values-only dsyevx, bitwise its
      result), certified by two Cholesky factorizations, each formed by
      _shifted_x.  No M_0 is formed: by the slope bound a factor of
      M_{c2-t} at c2 - t > 0 shows margin(0) > c2 - t > 0.  B._margin0
      is read only where c2 - t <= 0, to keep c2 in [0, margin(0)]
      (HypothesisFailed for a negative one, 0.0 at an exactly singular
      M_0), and where the lower certificate fails, so that a negative
      margin(0) raises HypothesisFailed there too.  t is tol/2, or the
      sum of the two _rounding_floors when larger: at a tol below
      rounding, or for a stiff H (||H||_inf above about 1e6/sqrt(N) at
      the default tol), whose dense eigenvalues are only as accurate as
      ulp ||H||.  When that ||H|| term alone exceeds tol/2 and the
      factorizations' own rounding does not, factorizations bisect the
      certified [c2 - t, c2 + t] to width <= tol; the midpoint is
      returned.

    Raises
    ------
    ValueError
        If tol is not finite and positive.
    HypothesisFailed
        If the margin at alpha = 0 is negative (the base form is not
        positive semidefinite, so no c2 >= 0 exists).
    NoConvergence
        If dstebz fails.
    CheckFailed
        If a certificate contradicts the bisected or selected value; no
        c2 is returned unchecked.
    """
    return _certified_c2(B, tol)


def _certified_c2(B: BlockOperator, tol: float) -> float:
    """find_c2(B, tol), kept in B._c2 once computed; nothing is kept when it raises."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    c2s = B._c2
    if tol not in c2s:
        c2s[tol] = _uncached_c2(B, tol)
    return c2s[tol]


def _uncached_c2(B: BlockOperator, tol: float) -> float:
    """The c2 of find_c2 at a checked tol, computed afresh; see find_c2."""
    if B._layout is None:
        return _selected_c2(B, tol)
    m0 = _base_margin(B)
    if m0 == 0.0:
        return 0.0
    # positivity_margin is looked up at each call, so a wrapper of it sees every step
    c2 = _bisect(0.0, m0, tol, lambda alpha: positivity_margin(B, alpha) >= 0.0)
    _certify_c2(B, c2, 10.0 * tol + _rounding(B.N, _h_norm(B)), m0)
    return c2


def _base_margin(B: BlockOperator) -> float:
    """margin(0), or HypothesisFailed when it is negative."""
    m0 = positivity_margin(B, 0.0)
    if m0 < 0.0:
        raise HypothesisFailed(
            f"margin at alpha=0 is {m0:.6g} < 0; the base form q_0 is not "
            "positive semidefinite"
        )
    return m0


def _bisect(lo: float, hi: float, tol: float, holds: Callable[[float], bool]) -> float:
    """Midpoint of [lo, hi], where holds flips from true to false, bisected to width <= tol.

    Bisection stops early at adjacent floats, when tol is below their spacing.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def _selected_c2(B: BlockOperator, tol: float) -> float:
    """Eigenvalue N+1 of the dense H, certified at c2 -+ t by factorizations, no M_0; see find_c2."""
    c2 = max(float(_window(B)[0](B.N + 1, B.N + 1)[0][0]), 0.0)
    # the lower side at the least t, formed first: its X bounds the floor at c2
    below = c2 - 0.5 * tol
    X = _shifted_x(B, below if below > 0.0 else c2)
    selection, forms = _rounding_floors(B, c2, X)
    t = max(0.5 * tol, selection + forms)
    # a factor of M_{c2-t} at c2 - t > 0 shows margin(0) >= margin(c2 - t) + c2 - t > 0
    m0 = math.inf
    if c2 - t <= 0.0:
        m0 = _base_margin(B)
        if m0 == 0.0:
            return 0.0
        c2 = min(c2, m0)
    _certify_c2(B, c2, t, m0, X if c2 - t == below else None)
    if not forms <= 0.5 * tol < selection:
        return c2
    # a stiff H: the factorizations, which never read H, reach tol where the selection cannot
    return _bisect(
        max(c2 - t, 0.0), min(c2 + t, m0), tol, lambda a: _factor(_schur_form(B, a))[0] is not None
    )


def _certify_c2(B: BlockOperator, c2: float, t: float, m0: float, X=None) -> None:
    """CheckFailed unless M_{c2-t} is positive definite and M_{c2+t} is not.

    By Sylvester's law of inertia, eigenvalue N+1 of H then lies within
    t of c2.  One _factor a side, the lower first (formed from X when
    given), on either layout.  margin(0) > 0 settles a side at alpha <=
    0, and margin(alpha) <= m0 - alpha < 0 one above m0 = margin(0), so
    neither is formed.  A failed lower side reads margin(0) first: a
    negative one is the hypothesis, not the check, failing.
    """
    for alpha, definite, X in ((c2 - t, True, X), (c2 + t, False, None)):
        if not 0.0 < alpha <= m0:
            continue
        if (_factor(_schur_form(B, alpha, X))[0] is not None) != definite:
            if definite:
                _base_margin(B)
            raise CheckFailed(
                f"eigenvalue N+1 of H, {c2!r}, fails its certificate: M_alpha "
                f"{'is not' if definite else 'is'} positive definite at alpha = {alpha!r}"
            )


def _rounding_floors(B: BlockOperator, c2: float, X=None) -> tuple[float, float]:
    """The rounding of the selection and of a factorization near M_c2.

    _rounding of ||H||_inf (cached with B._H_reduced), as
    gap_eigenvalues bounds a dense pair's, and of ||P||_F + c2 +
    ||X||_F^2 >= ||M_c2||_2, X from _shifted_x at c2 or the X given, made
    at an alpha <= c2: ||X_alpha||_F^2 = tr T^t (S + alpha I)^{-1} T
    shrinks as alpha grows.  t = max(tol/2, their sum).  M_0 is not
    used: its T^t S^{-1} T grows like 1/lambda_min(S).
    """
    X = _shifted_x(B, c2) if X is None else X
    with np.errstate(all="ignore"):
        form_norm = float(np.linalg.norm(B.P.data)) + c2 + float(np.einsum("ij,ij->", X, X))
    return _rounding(B.N, B._H_reduced.norm), _rounding(B.N, form_norm)


def inertia_c2_oracle(B: BlockOperator, dense_cap: int = DENSE_ORACLE_CAP) -> float:
    """Oracle for c2: eigenvalue N+1 of the dense H from a full eigvalsh.

    Inertia additivity makes M_alpha positive semidefinite exactly when
    alpha does not exceed the (N+1)-th smallest eigenvalue of H, so that
    eigenvalue equals find_c2 whenever it is nonnegative.  It forms its
    own _dense_H and takes another LAPACK driver (dsyevd, all
    eigenvalues), never B._H_reduced, so on a dense operator it checks
    find_c2's selection independently, not the margins; find_c2's two
    factorizations are the check that selects no eigenvalue.  Intended
    for verification at small sizes only.
    """
    if 2 * B.N > dense_cap:
        raise TooLarge(f"2N = {2 * B.N} exceeds the dense oracle cap {dense_cap}")
    w = np.linalg.eigvalsh(_dense_H(B))
    return float(w[B.N])


def embedding_delta(B: BlockOperator, tol: float = 1e-8) -> tuple[float, bool]:
    """Scale-of-spaces constant delta = c1*c2/(c1+c2) and its certificate.

    Certifies G = M_0 - delta*(I + K^t K) > 0 with K = S^{-1} T, i.e. the
    base form dominates delta*(||u||^2 + ||S^{-1}Tu||^2), by whether
    _factor factors G, as find_c2 certifies c2: success shows the
    computed G positive definite (Sylvester's law of inertia; backward
    stability of L D L^t and Cholesky, Higham, Accuracy and Stability of
    Numerical Algorithms, chs. 9 and 10).  No tolerance is added.
    Returns (delta, certified).  c2 is find_c2(B, tol), certified by
    its factorizations on both layouts (CheckFailed otherwise), read
    from B._c2 when find_c2 already made it at this tol.  When
    B.H_tridiagonal is set, K is bidiagonal and G is built from its
    diagonals and factored by dpttrf, O(N); otherwise K is dense, applied
    with the operator's one factor of S, M_0 is its cached array, K^t K
    costs O(N^3), and dpotrf reads G's lower triangle.  A non-finite G
    (an overflow) raises ValueError.
    """
    c2 = _certified_c2(B, tol)
    delta = B.c1 * c2 / (B.c1 + c2)
    M0 = _schur_form(B, 0.0)
    L = B._layout
    if L is not None:
        rows, _ = _offdiagonal(L.lower)
        KtK = _bidiagonal_gram(L.a / L.s, L.b / L.s[rows], np.ones(B.N), L.lower)
        G = _Tridiagonal(d=M0.d - delta * (1.0 + KtK.d), e=M0.e - delta * KtK.e)
    else:
        K = B._s_solve(B._dense.T)
        G = M0 - delta * (np.eye(B.N) + K.T @ K)
        _check_finite_form(G)
    return delta, _factor(G)[0] is not None


def resolvent_difference_check(B: BlockOperator, alpha: float, delta: float) -> bool:
    """Check S^{-1} - (S+alpha)^{-1} >= delta*S^{-2} spectrally, exactly.

    All three terms are functions of S, so the smallest eigenvalue of
    the difference is min over the spectrum of S of

        f(s) = 1/s - 1/(s + alpha) - delta/s**2
             = ((alpha - delta) s - delta alpha) / (s**2 (s + alpha)).

    Valid deltas satisfy 0 < delta <= c1*alpha/(c1+alpha) < alpha, so
    the numerator increases in s and min f >= 0 exactly when delta <=
    smin*alpha/(smin + alpha), smin = lambda_min(S).  smin is B._s_min,
    made once per operator: the least diagonal entry of a diagonal S
    (B.S_diagonal) and, for any other S, one eigvalsh, kept from
    assembly when assemble ran it to certify c1, so at the boundary delta =
    c1*alpha/(c1+alpha) both sides are equal floats.  No matrix is
    inverted, at any N.

    Returns True iff delta <= smin*alpha/(smin + alpha).
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
    smin = B._s_min
    return delta <= smin * alpha / (smin + alpha)


def matrix_to_text(A) -> str:
    """Serialize a matrix: 'rows cols' header, then row-major decimal entries.

    Entries use %.17g so float64 values round-trip exactly; the format
    is plain ASCII and locale-independent.  Raises ValueError for a
    zero dimension or a non-finite entry, which matrix_from_text would
    refuse.
    """
    arr = np.atleast_2d(A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64))
    if 0 in arr.shape:
        raise ValueError(f"matrix has a zero dimension, shape {arr.shape}")
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

    Raises ValueError for empty text, a header that is not two integers,
    a header the data does not match, or a non-finite entry, as
    operator_from_text refuses them.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty text: expected a 'rows cols' header")
    try:
        rows, cols = (int(tok) for tok in lines[0].split())
    except ValueError:  # a token that is not an integer, or not two tokens
        raise ValueError(f"expected a 'rows cols' header, found {lines[0][:40]!r}") from None
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
    """Serialize a BlockOperator in text format version 4: O(nnz), not O(N^2).

    Lines, in order:

        blockoperator 4
        N <n>
        c1 <c1>
        then for each block of P, T, S, four lines:
        <name> <nnz>
        <indptr: n + 1 words, or empty when nnz = n*n>
        <indices: nnz words, or empty when nnz = n*n>
        <data: nnz words>

    The last three lines of a block are its CSR arrays as stored, explicit
    zeros included, each as the standard base64 (no line breaks) of its
    entries as little-endian 8-byte words: signed integers for indptr and
    indices, IEEE binary64 for data.  They are empty lines when nnz = 0.
    A block of nnz = n*n stored entries, which in canonical CSR can only
    be every (row, column) pair in order, writes empty indptr and indices
    lines: the reader rebuilds that one structure.  c1 is written with
    repr; both round-trip every float64 exactly.
    """
    n = B.N
    lines = ["blockoperator 4", f"N {n}", f"c1 {float(B.c1)!r}"]
    for name in _BLOCK_NAMES:
        m = getattr(B, name)
        lines.append(f"{name} {m.nnz}")
        arrays = ((), (), m.data) if m.nnz == n * n else (m.indptr, m.indices, m.data)
        for array, dtype in zip(arrays, ("<i8", "<i8", "<f8")):
            words = np.asarray(array, dtype=dtype).tobytes()
            lines.append(base64.b64encode(words).decode("ascii"))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _keyed_value(line: str, key: str, parse: type, what: str):
    """The value of a '<key> <value>' line, parsed; ValueError naming what if unfit."""
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != key:
        raise ValueError(f"expected a '{key} <value>' line, found {line[:40]!r}")
    try:
        return parse(tokens[1])
    except ValueError:
        raise ValueError(f"{what}: expected {parse.__name__}, found {tokens[1][:40]!r}") from None


def _words(line: str, dtype: str, count: int, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError as exc:  # binascii.Error: a character or padding base64 refuses
        raise ValueError(f"{what}: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"{what}: {len(raw)} bytes is not a whole number of 8-byte words")
    if len(raw) // 8 != count:
        raise ValueError(f"{what}: expected {count} entries, found {len(raw) // 8}")
    return np.frombuffer(raw, dtype=dtype)


def operator_from_text(text: str) -> BlockOperator:
    """Parse operator_to_text output and re-assemble it (c1 is verified).

    Raises ValueError naming the defect for any other header (versions 2
    and 3 included), a wrong line count, a line that is not base64 of
    whole 8-byte words or holds the wrong number of them, an indptr that
    is not monotone from 0 to nnz, a column index outside [0, N), column
    indices that are not strictly increasing within a row (a repeated
    entry would otherwise be summed), or a block of nnz = N*N whose
    indptr or indices line is not empty, so that each operator has one
    text.  Such a full block's data line is decoded and counted before
    its N*N column indices are built.  The decoded blocks are then
    canonical float64 CSR, and pass once, without a copy, through
    assemble's checks, so non-finite, non-symmetric or non-positive
    blocks raise its package errors, with its messages.
    """
    lines = text.splitlines()
    if not lines or lines[0].split() != ["blockoperator", "4"]:
        raise ValueError("not a blockoperator version 4 serialization")
    expected = 3 + 4 * len(_BLOCK_NAMES)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, found {len(lines)}")
    n = _keyed_value(lines[1], "N", int, "N")
    if n < 0:
        raise ValueError(f"N = {n} is negative")
    c1 = _keyed_value(lines[2], "c1", float, "c1")
    blocks = {}
    for k, name in enumerate(_BLOCK_NAMES):
        head, ptr_line, idx_line, data_line = lines[3 + 4 * k : 7 + 4 * k]
        nnz = _keyed_value(head, name, int, f"{name} nnz")
        if nnz == n * n:
            if ptr_line or idx_line:
                raise ValueError(f"{name} is full (nnz = N*N), so its index lines must be empty")
            data = _words(data_line, "<f8", nnz, f"{name} data")
        else:
            indptr = _words(ptr_line, "<i8", n + 1, f"{name} indptr")
            # compared, not differenced: a difference of int64 words can wrap
            if indptr[0] != 0 or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1]):
                raise ValueError(f"{name} indptr is not monotone from 0 to nnz = {nnz}")
            indices = _words(idx_line, "<i8", nnz, f"{name} indices")
            if nnz and (indices.min() < 0 or indices.max() >= n):
                raise ValueError(f"{name} has a column index outside [0, {n})")
            data = _words(data_line, "<f8", nnz, f"{name} data")
        # native float64, as _as_csr would make it: no copy on a little-endian machine
        data = data.astype(np.float64, copy=False)
        m = blocks[name] = (
            _full_csr(data, n, n)  # the one full structure, rebuilt
            if nnz == n * n
            else sp.csr_matrix((data, indices, indptr), shape=(n, n))
        )
        if not m.has_canonical_format:
            raise ValueError(f"{name} column indices are not increasing within a row")
    # canonical float64 CSR already, so validated without _as_csr's copy
    return _validated(blocks["P"], blocks["T"], blocks["S"], c1)
