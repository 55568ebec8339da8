"""The tridiagonal margin path: structure recorded at assembly, values bitwise
equal to the sparse product it replaces, and non-finite shifts rejected."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvals_banded

import schurdirac.blockop as blockop
from schurdirac import (
    BlockOperator,
    DiracChannelSpec,
    HypothesisFailed,
    RhsPair,
    ValidationError,
    assemble,
    build_channel,
    build_grid,
    embedding_delta,
    find_c2,
    form_report,
    full_matrix,
    gap_eigenvalues,
    inertia_c2_oracle,
    positivity_margin,
    resolvent_difference_check,
    schur_form_matrix,
    shifted_operator,
    solve,
)

from conftest import exact_eigenvalue, random_block_operator


def reference_form(B, alpha):
    """M_alpha the sparse way: (P - alpha I) + T^t diag(w) T, symmetrized."""
    w = 1.0 / (B.S.diagonal() + alpha)
    M = (B.P - alpha * sp.identity(B.N, format="csr")) + B.T.T @ sp.diags(w) @ B.T
    return ((M + M.T) * 0.5).tocsr()


def upper_band(M):
    """The upper band storage of the sparse symmetric M, as scipy's banded solver takes it."""
    coo = M.tocoo()
    bw = int(np.max(np.abs(coo.row - coo.col)))
    band = np.zeros((bw + 1, M.shape[0]))
    up = coo.row <= coo.col
    band[bw + coo.row[up] - coo.col[up], coo.col[up]] = coo.data[up]
    return band


def reference_extremes(M):
    """(lambda_min, lambda_max) by scipy's banded solver, at every size."""
    n = M.shape[0]
    band = upper_band(M)
    lo = eigvals_banded(band, select="i", select_range=(0, 0))[0]
    hi = eigvals_banded(band, select="i", select_range=(n - 1, n - 1))[0]
    return lo, hi


def reference_bracketed(M, top):
    """The least eigenvalue of M in (-inf, top] by scipy's banded solver; None if none is."""
    w = eigvals_banded(upper_band(M), select="v", select_range=(-np.inf, top))
    return float(np.min(w)) if w.size else None


def assert_bitwise_reference(B, alpha):
    """The form, lambda_max and, at alpha = 0, the margin are the banded solver's range-'I'
    values bitwise; at alpha > 0 the margin is its range-'V' value on the package's bracket
    (-inf, top] bitwise, and within 2 ulp of the range-'I' one."""
    M = reference_form(B, alpha)
    lo, hi = reference_extremes(M)
    margin = positivity_margin(B, alpha)
    form = blockop._schur_form(B, alpha)
    assert blockop._extreme_eigenvalues(form) == (lo, hi)
    assert form_report(B, alpha).margin == margin
    assert np.array_equal(schur_form_matrix(B, alpha).toarray(), M.toarray())
    if alpha == 0.0:
        assert margin == lo
        return
    top = blockop._rayleigh_bound(form, B._ground)
    bracketed = reference_bracketed(M, top) if math.isfinite(top) else None
    # an empty bracket falls back to the range-'I' selection
    assert margin == (lo if bracketed is None else bracketed)
    assert abs(margin - lo) <= 2.0 * blockop._ULP * abs(lo)


def assert_interleaves_full_matrix(B, lower=False):
    """H_tridiagonal, permuted back to the (u, v) order, is full_matrix(B) exactly.

    u_j sits at row 2j of it (0-based), v_j at 2j + 1; the other way
    round when T is lower bidiagonal.
    """
    H = B.H_tridiagonal.tocsr()
    order = np.arange(2 * B.N).reshape(B.N, 2)
    order = np.concatenate([order[:, 1], order[:, 0]] if lower else [order[:, 0], order[:, 1]])
    diff = (H[order][:, order] - full_matrix(B)).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


def channel(kappa=-1, nu=0.5, N=300, potential=None, scheme="logarithmic"):
    grid = build_grid(scheme, N, 1e-4, 40.0)
    return build_channel(DiracChannelSpec(kappa, nu, 0.5), grid, potential)


def bidiagonal_operator(rng, n, t_offsets=(0, 1), p_offsets=(0,), s_offsets=(0,)):
    """Random operator with P, S, T supported on the given diagonal offsets."""

    def banded(offsets, symmetric, scale):
        m = sp.csr_matrix((n, n))
        for k in offsets:
            vals = scale * rng.standard_normal(n - abs(k))
            m = m + sp.diags(vals, k, shape=(n, n))
            if symmetric and k != 0:
                m = m + sp.diags(vals, -k, shape=(n, n))
        return m

    P = banded(p_offsets, True, 1.0)
    S = banded(s_offsets, True, 0.1) + sp.diags(1.0 + rng.uniform(0.0, 2.0, n))
    T = banded(t_offsets, False, 3.0)
    return assemble(P, T, S)


class TestTridiagonalField:
    def test_true_for_channels(self):
        for kappa in (-2, -1, 1):
            assert channel(kappa=kappa).H_tridiagonal is not None

    def test_true_for_sampled_potential(self):
        r = build_grid("logarithmic", 300, 1e-4, 40.0).nodes
        B = channel(potential=-0.4 / r - 0.1 * np.exp(-r))
        assert B.H_tridiagonal is not None

    def test_explicit_stored_zeros_are_ignored(self):
        B = channel(N=40)
        coo = B.T.tocoo()
        # explicit zeros at offsets -1 and +3 keep T upper bidiagonal
        rows = np.concatenate([coo.row, [5, 2]])
        cols = np.concatenate([coo.col, [4, 5]])
        data = np.concatenate([coo.data, [0.0, -0.0]])
        T = sp.csr_matrix((data, (rows, cols)), shape=B.T.shape)
        assert T.nnz == B.T.nnz + 2
        C = assemble(B.P, T, B.S)
        assert C.H_tridiagonal is not None
        assert positivity_margin(C, 0.3) == positivity_margin(B, 0.3)

    def test_derived_not_passed(self, rng):
        B = channel(N=20)
        with pytest.raises(TypeError):
            BlockOperator(B.P, B.T, B.S, B.c1, H_tridiagonal=B.H_tridiagonal)
        assert dataclasses.replace(B).H_tridiagonal is not None
        dense_t = sp.csr_matrix(rng.standard_normal((20, 20)))
        assert dataclasses.replace(B, T=dense_t).H_tridiagonal is None

    @pytest.mark.parametrize("N", [2, 40, 2000])
    @pytest.mark.parametrize("kappa", [-2, -1, 1])
    def test_interleaved_h_is_the_full_matrix(self, kappa, N):
        assert_interleaves_full_matrix(channel(kappa=kappa, N=N))

    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(0, 2**32 - 1),
        lower=st.booleans(),
    )
    def test_interleaved_h_of_random_bidiagonal_operators(self, n, seed, lower):
        rng = np.random.default_rng(seed)
        T = sp.diags([rng.standard_normal(n), rng.standard_normal(n - 1)], [0, -1 if lower else 1])
        B = assemble(sp.diags(rng.standard_normal(n)), T, sp.diags(rng.uniform(0.01, 5.0, n)))
        # a 1 x 1 T is upper bidiagonal too, and upper wins
        assert B._layout.lower == (lower and n > 1)
        assert_interleaves_full_matrix(B, B._layout.lower)

    def test_interleaved_h_is_read_only(self):
        for B in (assemble([[2.0]], [[1.0]], [[1.0]]), channel(N=40)):
            for a in B.H_tridiagonal:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @pytest.mark.parametrize(
        "structure",
        [
            dict(t_offsets=(-1, 0, 1)),
            dict(t_offsets=(0, 2)),
            dict(t_offsets=(0, 1, 5)),
            dict(p_offsets=(0, 1)),
            dict(s_offsets=(0, 1)),
        ],
        ids=["T-tridiagonal", "T-offset-2", "T-offset-5", "P-offdiag", "S-offdiag"],
    )
    @pytest.mark.parametrize("n", [40, 700])
    def test_false_off_structure_and_old_path_agrees(self, structure, n):
        B = bidiagonal_operator(np.random.default_rng(n), n, **structure)
        assert B.H_tridiagonal is None
        form = blockop._schur_form(B, 0.25)
        assert not isinstance(form, blockop._Tridiagonal)
        dense = schur_form_matrix(B, 0.25).toarray()
        w = np.linalg.eigvalsh(dense)
        scale = 1.0 + np.abs(dense).sum(axis=1).max()
        lo, hi = blockop._extreme_eigenvalues(form)
        assert positivity_margin(B, 0.25) == lo
        assert abs(lo - w[0]) <= 1e-9 * scale
        assert abs(hi - w[-1]) <= 1e-9 * scale

    def test_channels_skip_the_sparse_detour(self):
        for name in ("_bandwidth", "_to_banded_upper", "eigvals_banded", "_goes_dense"):
            assert not hasattr(blockop, name)
        boom = mock.Mock(side_effect=AssertionError("sparse or dense path used"))
        for B in (assemble([[2.0]], [[1.0]], [[1.0]]), channel(N=40), channel(N=2000)):
            assert B.H_tridiagonal is not None
            # the margins read the interleaved H: no CSR diagonal is extracted
            with mock.patch.object(blockop.sp, "diags", boom), mock.patch.object(
                blockop.np.linalg, "eigvalsh", boom
            ), mock.patch.object(type(B.P), "diagonal", boom), mock.patch.object(
                type(B.T), "diagonal", boom
            ), mock.patch.object(type(B.S), "diagonal", boom):
                positivity_margin(B, 0.5)
                form_report(B, 0.5)


class TestBitwiseReference:
    @pytest.mark.parametrize("N", [300, 601, 2000])
    @pytest.mark.parametrize("nu", [0.5, 0.9, 1.05])
    @pytest.mark.parametrize("kappa", [-2, -1, 1])
    def test_channel(self, kappa, nu, N):
        B = channel(kappa, nu, N)
        alphas = list(np.linspace(0.0, 2.0, 5))
        try:
            c2 = find_c2(B)
        except HypothesisFailed:
            assert kappa > 0  # the base form of a kappa > 0 channel is indefinite
        else:
            alphas += list(c2 + np.linspace(-1e-7, 1e-7, 20))
        for alpha in alphas:
            assert_bitwise_reference(B, float(alpha))

    @pytest.mark.parametrize("N", [2, 3, 40])
    def test_small_channel(self, N):
        # the Sturm route serves small forms too, bitwise as the banded solver
        for kappa in (-2, -1, 1):
            B = channel(kappa, 0.5, N)
            for alpha in np.linspace(0.0, 2.0, 5):
                assert_bitwise_reference(B, float(alpha))

    @settings(deadline=5000, max_examples=25)
    @given(
        n=st.integers(min_value=2, max_value=900),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t_scale=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=0.0, max_value=10.0),
        lower=st.booleans(),
    )
    def test_random_bidiagonal(self, n, seed, t_scale, alpha, lower):
        rng = np.random.default_rng(seed)
        T = sp.diags(
            [t_scale * rng.standard_normal(n), t_scale * rng.standard_normal(n - 1)],
            [0, -1 if lower else 1],
        )
        B = assemble(
            sp.diags(rng.standard_normal(n)), T, sp.diags(rng.uniform(0.01, 5.0, n))
        )
        assert B.H_tridiagonal is not None
        assert_bitwise_reference(B, alpha)

    def test_cached_m0_condition_estimate(self):
        # the cached M_0 is the sparse reference bitwise, and the report's
        # condition number is kappa_1(M_0), which dptcon computes exactly:
        # an independent dense 1-norm condition number agrees with it
        for N in (300, 2000):
            B = channel(N=N)
            M0 = reference_form(B, 0.0)
            assert np.array_equal(B._M0.d, M0.diagonal())
            assert np.array_equal(B._M0.e, M0.diagonal(1))
            rep = solve(B, RhsPair(np.ones(N), np.zeros(N)))
            if N == 300:
                want = np.linalg.cond(M0.toarray(), 1)
                assert rep.schur_condition_estimate == pytest.approx(want, rel=1e-6)


def random_bidiagonal(seed, n, lower):
    """Diagonal P and S, and a bidiagonal T of either orientation, at random scales."""
    rng = np.random.default_rng(seed)
    t_scale = 10.0 ** rng.uniform(-3, 3)
    T = sp.diags(
        [t_scale * rng.standard_normal(n), t_scale * rng.standard_normal(n - 1)],
        [0, -1 if lower else 1],
        shape=(n, n),
    )
    return assemble(sp.diags(rng.standard_normal(n)), T, sp.diags(rng.uniform(0.01, 5.0, n)))


class TestBracket:
    """A margin at alpha > 0 is one range-'V' dstebz on (-inf, hi], hi the Rayleigh
    quotient of M_alpha at M_0's ground state rounded up: by Courant-Fischer it
    holds lambda_1, and an empty bracket falls back to the range-'I' selection."""

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=120),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
        lower=st.booleans(),
    )
    def test_bound_holds_lambda_1(self, n, seed, alpha, lower):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            B = random_bidiagonal(seed, n, lower)
            M = blockop._schur_form(B, alpha)
            assert B._ground is not None
            hi = blockop._rayleigh_bound(M, B._ground)
            got = blockop._lowest_eigenvalue(M, B._ground)
            if alpha > 0.0:
                assert positivity_margin(B, alpha) == got
        assert hi >= exact_eigenvalue(M, 1)
        lo = blockop._extreme_eigenvalues(M, high=False)[0]
        assert abs(got - lo) <= 2.0 * blockop._ULP * abs(lo)

    @pytest.mark.parametrize("bound", ["below", math.inf, math.nan])
    def test_fallback_is_the_range_i_selection(self, bound, monkeypatch):
        # a bracket that holds no eigenvalue (m == 0), or a bound that is not
        # finite, takes today's range-'I' call, whose value it returns bitwise
        B = channel(N=300)
        alpha = 0.7
        M = blockop._schur_form(B, alpha)
        lo = blockop._extreme_eigenvalues(M, high=False)[0]
        assert B._ground is not None  # made before the spy: one range-'I' call on M_0
        top = lo - 1.0 if bound == "below" else bound
        monkeypatch.setattr(blockop, "_rayleigh_bound", lambda M, x: top)
        selections = mock.Mock(wraps=blockop._sturm_selection)
        monkeypatch.setattr(blockop, "_sturm_selection", selections)
        assert positivity_margin(B, alpha) == lo
        ranges = [c.args[2] for c in selections.call_args_list]
        assert ranges == ([1, 2] if bound == "below" else [2])

    def test_no_ground_state_takes_the_range_i_selection(self):
        # 1 / s overflows for a subnormal s, so M_0 is not finite and has no
        # eigenvector to read; M_alpha at alpha > 0 is, and keeps its margin
        n = 20
        rng = np.random.default_rng(3)
        s = np.full(n, 1.0)
        s[4] = 5e-324
        T = sp.diags([np.ones(n), np.ones(n - 1)], [0, 1])
        B = assemble(sp.diags(rng.uniform(1.0, 2.0, n)), T, sp.diags(s))
        with pytest.raises(ValueError, match="infs or NaNs"):
            positivity_margin(B, 0.0)
        assert B._ground is None
        M = blockop._schur_form(B, 1.0)
        assert positivity_margin(B, 1.0) == blockop._extreme_eigenvalues(M, high=False)[0]

    def test_channel_margin_against_a_40_digit_sturm_count(self):
        # the bracket changes which interval dstebz bisects, not how far
        # the margin lies from the eigenvalue, nor its sign next to c2
        B = channel(N=300)
        c2 = find_c2(B)
        for alpha in (0.5, c2 - 1e-7, c2 + 1e-7, 2.0):
            M = blockop._schur_form(B, alpha)
            exact = exact_eigenvalue(M, 1)
            margin = positivity_margin(B, alpha)
            lo = blockop._extreme_eigenvalues(M, high=False)[0]
            assert (margin >= 0.0) == (exact >= 0.0) == (alpha <= c2)
            assert abs(margin - exact) <= abs(lo - exact) + 2.0 * blockop._ULP * abs(exact)


def lower_bidiagonal(rng, n):
    """Diagonal P and S, T with offsets {-1, 0}; M_0 >= P >= I."""
    T = sp.diags([rng.standard_normal(n), rng.standard_normal(n - 1)], [0, -1])
    return assemble(sp.diags(rng.uniform(1.0, 3.0, n)), T, sp.diags(rng.uniform(0.5, 2.0, n)))


def on_the_dense_route(B):
    """A copy of B with its recorded layout cleared: the same H, on the dense route."""
    C = dataclasses.replace(B)
    object.__setattr__(C, "_layout", None)
    object.__setattr__(C, "H_tridiagonal", None)
    return C


class TestLowerBidiagonal:
    """A lower bidiagonal T: H interleaves as (v_1, u_1, v_2, ...), stays on
    the tridiagonal route, and gives the dense route's values."""

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(0, 2**32 - 1),
        lower=st.booleans(),
    )
    def test_gram_is_the_sparse_product_bitwise(self, n, seed, lower):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, size=3)
        a, b = scale[0] * rng.standard_normal(n), scale[1] * rng.standard_normal(n - 1)
        w = scale[2] * rng.uniform(0.01, 5.0, n)
        T = sp.diags([a, b], [0, -1 if lower else 1], shape=(n, n), format="csr")
        M = T.T @ sp.diags(w) @ T
        M = ((M + M.T) * 0.5).tocsr()
        G = blockop._bidiagonal_gram(a, b, w, lower)
        assert np.array_equal(G.d, M.diagonal())
        assert np.array_equal(G.e, M.diagonal(1))

    @pytest.mark.parametrize("n", [2, 40, 300])
    def test_agrees_with_the_dense_route(self, n):
        rng = np.random.default_rng(n)
        B = lower_bidiagonal(rng, n)
        assert B._layout.lower
        assert_interleaves_full_matrix(B, lower=True)
        C = on_the_dense_route(B)
        c2 = find_c2(B)
        assert abs(c2 - find_c2(C)) <= 1e-8
        assert abs(c2 - exact_eigenvalue(B.H_tridiagonal, n + 1)) <= 0.5e-8
        for which in ("above", "nearest"):
            pairs = [gap_eigenvalues(D, 0.3, min(3, n), which=which) for D in (B, C)]
            for (lam, x), (mu, y) in zip(*pairs):
                assert lam == pytest.approx(mu, abs=1e-12)
                assert np.allclose(x.stacked(), y.stacked(), atol=1e-8)
        rhs = RhsPair(rng.standard_normal(n), rng.standard_normal(n))
        x, y = solve(B, rhs).solution.stacked(), solve(C, rhs).solution.stacked()
        assert np.allclose(x, y, rtol=1e-10, atol=1e-12)
        factored, factor = [], blockop._factor
        # each c2 is kept from find_c2 above, so G is the one form factored
        with mock.patch.object(blockop, "_factor", lambda M: factored.append(M) or factor(M)):
            (delta, certified), (dense_delta, dense_certified) = map(embedding_delta, (B, C))
        assert abs(delta - dense_delta) <= 1e-8 and certified == dense_certified
        G, dense_G = factored
        assert np.allclose(G.d, np.diag(dense_G), rtol=1e-7)
        assert np.allclose(G.e, np.diag(dense_G, 1), rtol=1e-7)

    def test_large_n_never_densifies(self):
        # the lower orientation has the O(N) route of the upper one
        B = lower_bidiagonal(np.random.default_rng(5), 2000)
        boom = mock.Mock(side_effect=AssertionError("dense route"))
        with mock.patch.object(blockop, "dsytrd", boom), mock.patch.object(
            blockop, "dpotrf", boom
        ), mock.patch.object(blockop.np.linalg, "eigvalsh", boom):
            solve(B, RhsPair(np.ones(2000), np.zeros(2000)))
            assert "H_tridiagonal" not in vars(B)  # a solve reads only the layout
            c2 = find_c2(B)
            pairs = gap_eigenvalues(B, 0.0, 3, which="above")
            embedding_delta(B)
        assert "_dense" not in vars(B)
        assert pairs[0][0] == pytest.approx(c2, abs=1e-8)

    def test_replace_records_the_orientation_again(self, rng):
        B = channel(N=40)
        assert not B._layout.lower
        a, b = rng.standard_normal(40), rng.standard_normal(39)
        C = dataclasses.replace(B, T=sp.diags([a, b], [0, -1], format="csr"))
        assert C._layout.lower
        assert np.array_equal(C._layout.b, b)
        assert_interleaves_full_matrix(C, lower=True)
        D = dataclasses.replace(C, T=sp.diags([a], [0], format="csr"))
        assert not D._layout.lower  # a diagonal T is upper, as before
        assert_interleaves_full_matrix(D)
        E = dataclasses.replace(C, T=sp.diags([b, a, b], [-1, 0, 1], format="csr"))
        assert E._layout is None and E.H_tridiagonal is None


class TestOrderOne:
    """N = 1: every operator with diagonal blocks has an H_tridiagonal, and the
    LAPACK wrappers refuse the empty off-diagonal of its forms."""

    def test_every_entry_point(self):
        B = assemble([[2.0]], [[1.0]], [[1.0]])
        assert B.H_tridiagonal is not None
        assert positivity_margin(B, 0.0) == 3.0
        assert positivity_margin(B, 1.0) == 1.5
        assert form_report(B, 1.0) == blockop.FormReport(1.0, 1.5, 1.0)
        c2 = (1.0 + math.sqrt(13.0)) / 2.0  # root of 2 - a + 1/(1 + a)
        assert find_c2(B, 1e-12) == pytest.approx(c2, abs=1e-12)
        rep = solve(B, RhsPair([3.0], [0.0]))
        assert rep.solution.u == pytest.approx([1.0]) and rep.solution.v == pytest.approx([1.0])
        assert rep.residual_norm <= 1e-15 and rep.schur_condition_estimate == 1.0
        pairs = gap_eigenvalues(B, 0.0, 2)
        assert [lam for lam, _ in pairs] == pytest.approx([(1.0 - math.sqrt(13.0)) / 2.0, c2])
        assert [lam for lam, _ in gap_eigenvalues(B, 0.0, 1, which="above")] == pytest.approx([c2])

    def test_indefinite_is_refused(self):
        B = assemble([[-2.0]], [[1.0]], [[1.0]])
        assert positivity_margin(B, 0.0) == -1.0
        with pytest.raises(HypothesisFailed):
            find_c2(B)
        with pytest.raises(HypothesisFailed):
            solve(B, RhsPair([1.0], [1.0]))
        with pytest.raises(HypothesisFailed):
            gap_eigenvalues(B, 0.0, 1, which="above")


def test_failed_tridiagonal_factorization_is_refused(monkeypatch):
    # dpttrf reporting a non-positive pivot stops the solve, once and for
    # all, even when the Sturm margin was positive; the driver is never called
    B = channel(N=40)
    assert positivity_margin(B, 0.0) > 0.0
    real, calls = blockop.dpttrf, []

    def failing(d, e, **kw):
        calls.append(kw)
        return real(d, e, **kw)[:2] + (1,)

    monkeypatch.setattr(blockop, "dpttrf", failing)
    monkeypatch.setattr(blockop, "dptsvx", mock.Mock(side_effect=AssertionError("dptsvx")))
    for _ in range(2):
        with pytest.raises(HypothesisFailed, match=r"pivot 1 <= 0, dptsvx info = 1"):
            solve(B, RhsPair(np.ones(40), np.zeros(40)))
    assert calls == [{}]


class TestMatmul:
    """_Tridiagonal @ x sums each row as tocsr() @ x does, so the elimination's
    refinement product is bitwise the CSR product it replaced."""

    @pytest.mark.parametrize("N", [2, 40, 2000])
    @pytest.mark.parametrize("scheme", ["uniform", "logarithmic"])
    @pytest.mark.parametrize("kappa", [-2, -1, 1])
    def test_channel_forms(self, kappa, scheme, N):
        B = channel(kappa, N=N, scheme=scheme)
        x = np.random.default_rng(N).standard_normal(N)
        for alpha in (0.0, 0.7):
            M = blockop._schur_form(B, alpha)
            assert np.array_equal(M @ x, M.tocsr() @ x)
        y = np.random.default_rng(N).standard_normal(2 * N)
        assert np.array_equal(B.H_tridiagonal @ y, B.H_tridiagonal.tocsr() @ y)

    def test_order_one(self):
        B = assemble([[2.0]], [[1.0]], [[1.0]])
        M = blockop._schur_form(B, 0.0)
        assert np.array_equal(M @ np.array([0.5]), M.tocsr() @ np.array([0.5]))

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(min_value=1, max_value=300), seed=st.integers(0, 2**32 - 1))
    def test_random_pairs(self, n, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8, 8, size=3)
        M = blockop._Tridiagonal(
            d=scale[0] * rng.standard_normal(n), e=scale[1] * rng.standard_normal(n - 1)
        )
        x = scale[2] * rng.standard_normal(n)
        assert np.array_equal(M @ x, M.tocsr() @ x)


def test_elimination_keeps_m0_in_its_form_layout(rng):
    # the factor solve hands its driver: dpttrf's (d, e) of a tridiagonal M_0,
    # Cholesky's array of a dense one
    B = channel(N=40)
    assert isinstance(B._M0, blockop._Tridiagonal)
    (d, e), info = B._elimination
    assert info == 0 and d.shape == (40,) and e.shape == (39,)
    C = random_block_operator(rng, 20, margin_target=0.5)
    factor, info = C._elimination
    assert type(C._M0) is np.ndarray and type(factor) is np.ndarray and info == 0


class TestFactorCertifiesC2:
    """By Sylvester's law of inertia, _factor of M_alpha succeeds just below c2
    and fails just above it; c2 comes from an independent eigenvalue selection."""

    @staticmethod
    def assert_separates(B, c2):
        below = blockop._factor(blockop._schur_form(B, c2 * (1.0 - 1e-9)))
        above = blockop._factor(blockop._schur_form(B, c2 * (1.0 + 1e-9)))
        assert below[0] is not None and below[1] == 0
        assert above[0] is None and above[1] > 0

    @pytest.mark.parametrize(
        "kappa, nu, N", [(-1, 0.9, 8000), (-2, 0.5, 300), (-1, 0.5, 2000), (-2, 0.9, 400)]
    )
    def test_channel(self, kappa, nu, N):
        B = channel(kappa, nu, N)
        H = B.H_tridiagonal
        c2 = float(blockop._sturm_selection(H.d, H.e, 2, 0.0, N + 1, N + 1)[0][0])
        assert c2 > 0.0
        self.assert_separates(B, c2)

    def test_dense_family(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(5, 101))
            B = random_block_operator(rng, n, margin_target=rng.uniform(0.05, 2.0))
            assert B.H_tridiagonal is None
            self.assert_separates(B, inertia_c2_oracle(B))


class TestOneDenseEigvalsh:
    def count_eigvalsh(self, fn):
        with mock.patch.object(
            blockop.np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh
        ) as spy:
            fn()
        return spy.call_count

    def test_form_report(self, rng):
        B = random_block_operator(rng, 30)
        assert self.count_eigvalsh(lambda: form_report(B, 0.1)) == 1

    def test_cold_solve(self, rng):
        # the condition number comes from the expert driver, so no solve,
        # cold or warm, takes an eigenvalue
        B = random_block_operator(rng, 30, margin_target=0.5)
        rhs = RhsPair(np.ones(30), np.zeros(30))
        assert self.count_eigvalsh(lambda: solve(B, rhs)) == 0
        assert self.count_eigvalsh(lambda: solve(B, rhs)) == 0


def structured_operator(n, dense_s):
    if not dense_s:
        return channel(N=n)
    off = np.full(n - 1, 0.25)
    S = sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1])
    return assemble(sp.identity(n), sp.diags(np.ones(n)), S)


class TestNonFiniteShift:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dense_s", [False, True], ids=["diagonal-S", "dense-S"])
    @pytest.mark.parametrize("n", [50, 2000])
    def test_rejected_by_name(self, n, dense_s, value):
        B = structured_operator(n, dense_s)
        assert B.S_diagonal is not dense_s
        calls = [
            ("alpha", lambda: positivity_margin(B, value)),
            ("alpha", lambda: form_report(B, value)),
            ("alpha", lambda: schur_form_matrix(B, value)),
            ("alpha", lambda: resolvent_difference_check(B, value, 0.1)),
            ("sigma", lambda: shifted_operator(B, value)),
            ("sigma", lambda: gap_eigenvalues(B, value, 1)),
        ]
        for key, call in calls:
            with pytest.raises(ValidationError, match="must be finite") as err:
                call()
            assert err.value.key == key
