"""Gap eigenpairs of tridiagonal operators (every Dirac channel) by Sturm
selection on the interleaved H at every N: agreement with dense eigh, the
inertia gate, the ARPACK, banded and SuperLU paths gone, and the dense
branch serving every other operator by the same gated index selection."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import schurdirac
import schurdirac.blockop as blockop
import schurdirac.dirac as dirac
import schurdirac.solver as solver
from schurdirac import (
    DiracChannelSpec,
    HypothesisFailed,
    NegativeShiftUnsupported,
    NoConvergence,
    SchurDiracError,
    assemble,
    build_channel,
    build_grid,
    channel_spectrum,
    embedding_delta,
    full_matrix,
    gap_eigenvalues,
)

from conftest import exact_eigenvalue, form_array, random_block_operator


@functools.lru_cache(maxsize=None)
def channel(kappa, nu, N):
    return build_channel(
        DiracChannelSpec(kappa, nu, 0.5), build_grid("logarithmic", N, 1e-4, 100.0)
    )


@functools.lru_cache(maxsize=None)
def dense_eigh(B):
    return np.linalg.eigh(full_matrix(B).toarray())


def sign_normalized(x):
    return -x if x[int(np.argmax(np.abs(x)))] < 0.0 else x


def dense_selection(w, sigma, k, which):
    """Indices the dense branch returns: strictly above sigma, or k nearest."""
    if which == "nearest":
        return sorted(np.argsort(np.abs(w - sigma), kind="stable")[:k])
    return list(np.flatnonzero(w > sigma)[:k])


@functools.lru_cache(maxsize=None)
def exact_gap_floor(kappa, nu, N):
    """Eigenvalue N+1 of the channel's H from the 40-digit Sturm count."""
    return exact_eigenvalue(channel(kappa, nu, N).H_tridiagonal, N + 1)


def assert_matches_dense(B, sigma, k, which, want=None):
    w, V = dense_eigh(B)
    H = full_matrix(B)
    pairs = gap_eigenvalues(B, sigma, k, which=which)
    want = dense_selection(w, sigma, k, which) if want is None else want
    assert len(pairs) == len(want)
    for (lam, sv), i in zip(pairs, want):
        x = sv.stacked()
        assert abs(lam - w[i]) <= 1e-10 * (1.0 + abs(w[i]))
        assert np.linalg.norm(H @ x - lam * x) <= 1e-10 * (1.0 + abs(lam))
        assert x[int(np.argmax(np.abs(x)))] > 0.0
        assert np.linalg.norm(x - sign_normalized(V[:, i])) <= 1e-6


class TestAgainstDense:
    @pytest.mark.parametrize("which", ["above", "nearest"])
    @pytest.mark.parametrize("shift", ["zero", "interior", "just-below", "at"])
    @pytest.mark.parametrize("nu", [0.5, 0.9, 1.05])
    @pytest.mark.parametrize("kappa", [-2, -1])
    @pytest.mark.parametrize("N", [301, 450])
    def test_channel(self, N, kappa, nu, shift, which):
        B = channel(kappa, nu, N)
        assert B.H_tridiagonal is not None
        lam = dense_eigh(B)[0][N]  # eigenvalue N+1 of H
        assert lam > 0.0
        sigma = {
            "zero": 0.0,
            "interior": 0.5 * lam,
            "just-below": lam - 1e-8 * (1.0 + lam),
            "at": lam,
        }[shift]
        want = None
        if shift == "at":
            # eigenvalue N+1 itself, from the 40-digit reference: eigh's lam
            # differs from it by up to about 1e-13, within which "strictly
            # above" would be ambiguous.  So the selection above sigma
            # starts at eigenvalue N+2, and "nearest" holds N+1
            sigma = exact_gap_floor(kappa, nu, N)
            assert dense_eigh(B)[0][N + 1] > sigma + 1e-8
            want = list(range(N + 1, N + 4)) if which == "above" else None
        assert not hasattr(solver, "_sparse_gap_pairs")
        with mock.patch.object(blockop, "dsytrd", side_effect=AssertionError("dense path")):
            assert_matches_dense(B, sigma, 3, which, want)
        assert "_H_reduced" not in vars(B)

    # no deadline: the dense eigh reference is O(n^3), so its time measures
    # the machine's load, not the package
    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sigma=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=4),
        which=st.sampled_from(["above", "nearest"]),
    )
    def test_random_bidiagonal(self, n, seed, sigma, k, which):
        k = min(k, n)  # H has n eigenvalues above sigma when M_sigma >= 0
        rng = np.random.default_rng(seed)
        T = sp.diags([rng.standard_normal(n), rng.standard_normal(n - 1)], [0, 1])
        B = assemble(
            sp.diags(rng.uniform(-1.0, 3.0, n)), T, sp.diags(rng.uniform(0.05, 2.0, n))
        )
        assert B.H_tridiagonal is not None
        w = dense_eigh(B)[0]
        # keep eigenvalue N+1 clear of sigma, so the expected outcome is certain
        assume(abs(w[n] - sigma) > 1e-8)
        if w[n] < sigma:
            with pytest.raises(HypothesisFailed):
                gap_eigenvalues(B, sigma, k, which=which)
        else:
            assert_matches_dense(B, sigma, k, which)


class TestGate:
    def test_kappa_positive_channel(self):
        B = channel(1, 0.5, 2000)
        with pytest.raises(HypothesisFailed, match="eigenvalue N\\+1"):
            gap_eigenvalues(B, 0.0, 2, which="above")
        spec = DiracChannelSpec(1, 0.5, 0.5)
        with pytest.raises(HypothesisFailed):
            channel_spectrum(spec, build_grid("logarithmic", 2000, 1e-4, 100.0), 2)

    def test_sigma_below_valid_region_operator(self):
        B = assemble(-2.0 * np.eye(350), np.zeros((350, 350)), np.eye(350))
        assert B.H_tridiagonal is not None
        for which in ("above", "nearest"):
            with pytest.raises(HypothesisFailed):
                gap_eigenvalues(B, 0.0, 2, which=which)

    def test_above_asks_for_more_than_n(self):
        B = channel(-1, 0.5, 301)
        with pytest.raises(NoConvergence, match="at most 301 eigenvalues"):
            gap_eigenvalues(B, 0.0, 302, which="above")
        assert len(gap_eigenvalues(B, 0.0, 301, which="above", tol=1e-8)) == 301

    def test_eigenvalues_at_sigma_are_not_above(self):
        # H = diag(+1 (N times), -1 (N times)): all N eigenvalues above 0 equal 1
        n = 350
        B = assemble(np.eye(n), np.zeros((n, n)), np.eye(n))
        assert [lam for lam, _ in gap_eigenvalues(B, 0.5, 2, which="above")] == [1.0, 1.0]
        with pytest.raises(NoConvergence, match="at most 0 eigenvalues"):
            gap_eigenvalues(B, 1.0, 1, which="above")
        assert [lam for lam, _ in gap_eigenvalues(B, 1.0, 2)] == [1.0, 1.0]

    def test_a_stiff_window_grows_geometrically(self, monkeypatch):
        # a stiff dense H: P's one entry of 1e20 makes ||H||_inf 1e20, so the
        # band ulp ||H||_inf = 2.2e4 holds all but the largest eigenvalue
        # above 0 (0.5, 1.5 and 297 ones).  The "above" window doubles while
        # it lies wholly in the band, instead of growing by k a selection
        N = 300
        P = np.eye(N)
        P[0, 1] = P[1, 0] = 0.5  # not diagonal, so the dense route
        P[-1, -1] = 1e20
        B = assemble(P, np.zeros((N, N)), np.eye(N))
        assert B.H_tridiagonal is None
        selections = mock.Mock(wraps=blockop._sturm_selection)
        monkeypatch.setattr(blockop, "_sturm_selection", selections)
        band = r"\(299 more lie within 2\.2\de\+04 of sigma, not above it\)$"
        with pytest.raises(NoConvergence, match=r"^at most 1 eigenvalues lie above sigma = 0, "
                           r"fewer than k = 2 " + band):
            gap_eigenvalues(B, 0.0, 2, which="above")
        assert selections.call_count <= math.ceil(math.log2(N)) + 2


class TestChannelBand:
    @pytest.mark.parametrize("r_min", [1e-4, 1e-12, 1e-16, 1e-20, 1e-60, 1e-100])
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_sturm_values_lie_inside_the_band_on_any_grading(self, nu, r_min):
        # the channel skip band, _CHANNEL_BAND_ULPS ulp |sigma|, rests on
        # dstebz's eigenvalues N+1..N+4 being relatively accurate while
        # ||H||_inf grows like 1/r_min (to about 1e100 here)
        N = 200
        B = build_channel(
            DiracChannelSpec(-1, nu, 0.5), build_grid("logarithmic", N, r_min, 100.0)
        )
        exact = [exact_eigenvalue(B.H_tridiagonal, N + 1 + j) for j in range(4)]
        band = solver._CHANNEL_BAND_ULPS * blockop._ULP
        w = blockop._window(B)[0](N + 1, N + 4)[0]
        for x, want in zip(w, exact):
            assert abs(x - want) <= band * abs(want)
        # sigma on eigenvalue N+1: it is skipped, and the next two are
        # returned, where a band of ulp ||H||_inf would skip them all
        # from r_min of about 1e-14 down
        assert exact[0] > 0.0
        pairs = gap_eigenvalues(B, exact[0], 2, which="above")
        assert len(pairs) == 2
        for (lam, _), want in zip(pairs, exact[1:3]):
            assert abs(lam - want) <= band * abs(want)


class TestOneShiftCheck:
    def test_negative_shift_on_every_path(self, rng):
        lower_t = sp.diags([np.ones(350), np.ones(349)], [0, -1])
        operators = [
            random_block_operator(rng, 20),
            channel(-1, 0.5, 400),
            assemble(sp.identity(350), lower_t, 2.0 * sp.identity(350)),
            tridiagonal_t(rng, 350),
        ]
        assert [B.H_tridiagonal is not None for B in operators] == [False, True, True, False]
        for B in operators:
            with pytest.raises(NegativeShiftUnsupported):
                gap_eigenvalues(B, -0.1, 1)


def test_channels_never_take_the_lanczos_path(monkeypatch):
    for name in ("_sparse_gap_pairs", "_FactorBreakdown", "eigsh", "LinearOperator", "splu"):
        assert not hasattr(solver, name)
    for name in ("_gershgorin_bounds", "eigsh", "splu", "eigvals_banded", "DENSE_EIG_CAP"):
        assert not hasattr(blockop, name)
    monkeypatch.setattr(
        blockop.BlockOperator,
        "_elimination",
        property(mock.Mock(side_effect=AssertionError("_elimination"))),
    )
    calls = []
    monkeypatch.setattr(
        dirac, "gap_eigenvalues", lambda *a, **kw: calls.append(a) or gap_eigenvalues(*a, **kw)
    )
    spec = DiracChannelSpec(-1, 0.5, 0.5)
    energies = channel_spectrum(spec, build_grid("logarithmic", 8000, 1e-4, 100.0), 2)
    assert len(calls) == 1
    assert energies == pytest.approx(
        [schurdirac.sommerfeld_energy(n, -1, 0.5) for n in (1, 2)], abs=1e-3
    )


@pytest.mark.parametrize("which", ["above", "nearest"])
@pytest.mark.parametrize("kappa, N", [(-1, 2), (-1, 40), (-2, 300), (1, 120)])
def test_small_channels_keep_the_dense_pairs(kappa, N, which):
    # small channels take the Sturm path too, and agree with dense eigh
    B = channel(kappa, 0.5, N)
    assert B.H_tridiagonal is not None
    with mock.patch.object(blockop, "dsytrd", side_effect=AssertionError("dense path")):
        if kappa > 0:
            # M_0 of a kappa > 0 channel is indefinite, now refused at every N
            with pytest.raises(HypothesisFailed, match="eigenvalue N\\+1"):
                gap_eigenvalues(B, 0.6, 3, which=which)
        else:
            assert_matches_dense(B, 0.6, min(3, N), which)


def tridiagonal_t(rng, n):
    """Diagonal P and S with a tridiagonal T: H is not tridiagonal, so the dense route."""
    T = sp.diags([rng.standard_normal(n - abs(k)) for k in (-1, 0, 1)], [-1, 0, 1])
    return assemble(sp.diags(rng.uniform(1.0, 3.0, n)), T, sp.diags(rng.uniform(0.5, 2.0, n)))


@pytest.mark.parametrize("which", ["above", "nearest"])
@pytest.mark.parametrize("structure", ["random", "tridiagonal-T"])
def test_other_operators_take_the_dense_pairs_above_the_cap(rng, structure, which):
    if structure == "random":
        B = random_block_operator(rng, 400, margin_target=1.0)
    else:
        B = tridiagonal_t(rng, 350)
    assert B.H_tridiagonal is None
    assert_matches_dense(B, 0.6, 3, which)


def test_dense_pairs_have_no_size_cap(rng):
    # only inertia_c2_oracle, a verification helper, keeps DENSE_ORACLE_CAP
    B = tridiagonal_t(rng, blockop.DENSE_ORACLE_CAP // 2 + 1)
    assert B.H_tridiagonal is None and 2 * B.N > blockop.DENSE_ORACLE_CAP
    for which in ("above", "nearest"):
        assert_matches_dense(B, 0.0, 2, which)


class TestKAgainstDimension:
    def test_scalar(self):
        B = assemble([[2.0]], [[1.0]], [[1.0]])
        for which in ("nearest", "above"):
            with pytest.raises(ValueError, match="2N = 2"):
                gap_eigenvalues(B, 0.0, 5, which=which)
        assert len(gap_eigenvalues(B, 0.0, 2)) == 2

    def test_channel(self):
        B = channel(-1, 0.5, 301)
        for which in ("nearest", "above"):
            with pytest.raises(ValueError, match="2N = 602"):
                gap_eigenvalues(B, 0.0, 603, which=which)
        pairs = gap_eigenvalues(B, 0.0, 602)
        assert [lam for lam, _ in pairs] == pytest.approx(dense_eigh(B)[0].tolist(), abs=1e-8)


def positive_definite(G: np.ndarray) -> bool:
    """Whether numpy's Cholesky factors the dense symmetric G."""
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def embedding_form(B, delta):
    """G = M_0 - delta (I + K^t K) from a dense K = S^{-1} T, made apart from the package."""
    P, T, S = (m.toarray() for m in (B.P, B.T, B.S))
    K = np.linalg.solve(S, T)
    G = P + T.T @ K - delta * (np.eye(B.N) + K.T @ K)
    return (G + G.T) * 0.5


def test_embedding_delta_uses_the_dense_cholesky(rng):
    for n in (5, 40, 100):
        B = random_block_operator(rng, n, margin_target=0.8)
        delta, certified = embedding_delta(B)
        c2 = blockop.find_c2(B)
        assert delta == B.c1 * c2 / (B.c1 + c2)
        assert certified == positive_definite(embedding_form(B, delta))


@pytest.mark.parametrize("n, target", [(5, 0.05), (30, 0.05), (60, 0.3)])
def test_embedding_certificate_flips_at_the_sharp_delta(n, target):
    # delta*, the largest delta with G(delta) >= 0, by bisection on the
    # dense eigvalsh of the test's own G; the certificate must refuse
    # delta* (1 + 1e-7) and accept delta* (1 - 1e-8)
    B = random_block_operator(np.random.default_rng(7), n, margin_target=target)
    lo, hi = 0.0, B.c1
    assert np.linalg.eigvalsh(embedding_form(B, hi))[0] < 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if np.linalg.eigvalsh(embedding_form(B, mid))[0] >= 0.0 else (lo, mid)
    for factor, want in ((1.0 + 1e-7, False), (1.0 - 1e-8, True)):
        delta = lo * factor
        # the operator's certified c2 at the default tol is the one at
        # which c1 c2 / (c1 + c2) is that delta
        B._c2[1e-8] = B.c1 * delta / (B.c1 - delta)
        got, certified = embedding_delta(B)
        assert got == pytest.approx(delta, rel=1e-14)
        assert certified is want, (factor, delta)


def test_embedding_delta_on_a_channel_takes_the_banded_route():
    # G = M_0 - delta (I + K^t K) is tridiagonal for a channel, so it is
    # built from two diagonals and certified by one dpttrf; the reference
    # is the dense K = S^{-1} T, K^t K, eigvalsh and Cholesky
    for N in (40, 1000):
        B = channel(-1, 0.5, N)
        seen = []
        real = blockop._factor
        with mock.patch.object(
            blockop, "_factor", lambda m: seen.append(m) or real(m)
        ), mock.patch.object(
            blockop.np.linalg, "eigvalsh", side_effect=AssertionError("dense")
        ):
            delta, certified = embedding_delta(B)
        G = seen[-1]
        assert isinstance(G, blockop._Tridiagonal)
        K = B.T.toarray() / B.S.diagonal()[:, None]
        want = sp.csr_matrix(form_array(B, 0.0)) - delta * (
            sp.identity(N, format="csr") + sp.csr_matrix(K.T @ K)
        )
        want = ((want + want.T) * 0.5).toarray()
        lam_want = np.linalg.eigvalsh(want)[0]
        norm = float(np.max(np.abs(want).sum(axis=1)))
        lam = blockop._lowest_eigenvalue(G)
        assert abs(lam - lam_want) <= 1e-12 * (1.0 + norm)
        assert certified == positive_definite(want)


def test_margin_of_a_non_diagonal_s_above_the_cap_is_dense(rng):
    B = random_block_operator(rng, 700)
    assert not B.S_diagonal
    for alpha in (0.0, 0.3):
        form = blockop._schur_form(B, alpha)
        assert isinstance(form, np.ndarray)
        assert blockop.positivity_margin(B, alpha) == np.linalg.eigvalsh(form)[0]


def test_s_inverse_above_the_dense_cap_agrees(rng):
    n = 700
    off = np.full(n - 1, 0.25)
    B = assemble(sp.identity(n), sp.identity(n), sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1]))
    assert not B.S_diagonal
    X = rng.standard_normal((n, 3))
    np.testing.assert_allclose(B.S @ B._s_solve(X), X, atol=1e-12)


def test_import_loads_no_superlu_or_arpack():
    script = "import sys, schurdirac, schurdirac.cli\nsys.exit('scipy.sparse.linalg' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurdirac.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_bad_residual_raises_under_optimize():
    # python -O strips assert statements; the path's checks must survive it
    script = (
        "import sys\n"
        "import schurdirac.blockop as blockop\n"
        "import schurdirac.solver as solver\n"
        "from schurdirac import DiracChannelSpec, NoConvergence, build_channel, build_grid\n"
        "real = blockop.dstein\n"
        "def perturbed(*args):\n"
        "    z, info = real(*args)\n"
        "    z[::7] += 1e-3\n"
        "    return z, info\n"
        "blockop.dstein = perturbed\n"
        "grid = build_grid('logarithmic', 400, 1e-4, 100.0)\n"
        "B = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid)\n"
        "try:\n"
        "    solver.gap_eigenvalues(B, 0.0, 2, which='above')\n"
        "except NoConvergence as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurdirac.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eigenpair residual"), proc.stdout


def dense_twin(B):
    """B with a 1e-300 off-diagonal pair added to P.

    That leaves H_tridiagonal None, so the operator takes the dense branch,
    and leaves every entry of H unchanged relative to its scale.
    """
    bump = sp.csr_matrix(([1e-300, 1e-300], ([0, 1], [1, 0])), shape=(B.N, B.N))
    C = assemble(B.P + bump, B.T, B.S)
    assert C.H_tridiagonal is None
    return C


@pytest.mark.parametrize("sigma", [0.0, 0.6])
@pytest.mark.parametrize("which", ["above", "nearest"])
def test_dense_twin_of_an_indefinite_channel_is_refused(which, sigma):
    # M_0 of a kappa > 0 channel is indefinite; the dense route gates on
    # eigenvalue N+1 as the tridiagonal one does
    B = channel(1, 0.5, 120)
    for C in (B, dense_twin(B)):
        with pytest.raises(HypothesisFailed, match="eigenvalue N\\+1"):
            gap_eigenvalues(C, sigma, 2, which=which)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_tol_must_be_finite_and_nonnegative(tol):
    B = channel(-1, 0.5, 301)
    for C in (B, dense_twin(B)):
        for which in ("above", "nearest"):
            with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
                gap_eigenvalues(C, 0.0, 1, tol=tol, which=which)
    grid = build_grid("logarithmic", 301, 1e-4, 100.0)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        channel_spectrum(DiracChannelSpec(-1, 0.5, 0.5), grid, 2, tol)


def test_zero_tol_admits_rounding_only():
    B = channel(-1, 0.5, 301)
    w = dense_eigh(B)[0]
    for C in (B, dense_twin(B)):
        pairs = gap_eigenvalues(C, 0.0, 2, tol=0.0, which="above")
        assert [lam for lam, _ in pairs] == pytest.approx(w[301:303], rel=1e-12)
    grid = build_grid("logarithmic", 301, 1e-4, 100.0)
    spec = DiracChannelSpec(-1, 0.5, 0.5)
    assert channel_spectrum(spec, grid, 2, 0.0) == channel_spectrum(spec, grid, 2)


def dense_route(B, *args, **kwargs):
    """gap_eigenvalues of B's H on the dense route: through its dense twin,
    or at N = 1, where every operator is tridiagonal, through a copy of B
    whose tridiagonal H is cleared, so that its dense H is reduced."""
    if B.N > 1:
        return gap_eigenvalues(dense_twin(B), *args, **kwargs)
    C = dataclasses.replace(B)
    object.__setattr__(C, "H_tridiagonal", None)
    return gap_eigenvalues(C, *args, **kwargs)


def outcome(f):
    try:
        return f()
    except SchurDiracError as exc:
        return type(exc)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    place=st.sampled_from(["zero", "inside", "above-c2"]),
    frac=st.floats(min_value=0.05, max_value=0.95),
    k=st.integers(min_value=1, max_value=4),
    which=st.sampled_from(["above", "nearest"]),
)
def test_both_routes_select_the_same_indices(n, seed, place, frac, k, which):
    rng = np.random.default_rng(seed)
    T = sp.diags([rng.standard_normal(n), rng.standard_normal(n - 1)], [0, 1])
    B = assemble(sp.diags(rng.uniform(-1.0, 3.0, n)), T, sp.diags(rng.uniform(0.05, 2.0, n)))
    assert B.H_tridiagonal is not None
    w = dense_eigh(B)[0]
    c2 = w[n]  # eigenvalue N+1 of H
    sigma = {"zero": 0.0, "inside": frac * max(c2, 0.0), "above-c2": max(c2, 0.0) + frac}[place]
    k = min(k, 2 * n)
    # keep every eigenvalue, and every distance to sigma, clear of the next,
    # so the selection and the vectors are well defined
    distances = np.sort(np.abs(w - sigma))
    assume(distances[0] > 1e-8 and np.all(np.diff(distances) > 1e-8))
    assume(np.all(np.diff(w) > 1e-6))

    tri = outcome(lambda: gap_eigenvalues(B, sigma, k, which=which))
    dense = outcome(lambda: dense_route(B, sigma, k, which=which))
    if isinstance(tri, type) or isinstance(dense, type):
        assert tri is dense
        return
    H = full_matrix(B).toarray()
    rounding = 10.0 * math.sqrt(2 * n) * np.finfo(float).eps * np.max(np.abs(H).sum(axis=1))
    assert len(tri) == len(dense) == k
    for (lt, vt), (ld, vd) in zip(tri, dense):
        assert abs(lt - ld) <= 1e-10 * (1.0 + abs(lt)) + rounding
        xt, xd = vt.stacked(), vd.stacked()
        assert xt[int(np.argmax(np.abs(xt)))] > 0.0 and xd[int(np.argmax(np.abs(xd)))] > 0.0
        assert np.linalg.norm(xt - xd) <= 1e-6


def test_stiff_dense_pairs_pass_the_residual_check():
    # dense branch at 2N = 600; ||H|| is about 4e5 here, and backward-stable
    # eigh residuals (3.2e-10) exceed 1e-10 * (1 + |lambda|); the rounding
    # term 10 sqrt(2N) eps ||H|| is about 2e-8
    B = dense_twin(channel(-1, 0.9, 300))
    w = np.linalg.eigvalsh(full_matrix(B).toarray())
    pairs = gap_eigenvalues(B, 0.0, 2, which="above")
    assert [lam for lam, _ in pairs] == pytest.approx(w[300:302], rel=1e-12)


def test_perturbed_dense_pair_is_refused(monkeypatch):
    real = blockop.dormqr

    def perturbed(*args):
        cq, work, info = real(*args)
        return cq + 1e-6, work, info

    monkeypatch.setattr(blockop, "dormqr", perturbed)
    with pytest.raises(NoConvergence, match="eigenpair residual"):
        gap_eigenvalues(dense_twin(channel(-1, 0.9, 300)), 0.0, 2, which="above")


def test_sturm_pair_off_by_an_eigenvalue_sized_error_is_refused(monkeypatch):
    # at N = 2000 ||H|| is about 3e6, so the rounding term is about 4e-7;
    # a pair whose eigenvalue is off by 1e-6 fails at channel_spectrum's tol
    B = channel(-1, 0.5, 2000)
    assert len(gap_eigenvalues(B, 0.0, 2, tol=1e-8, which="above")) == 2
    real = solver._gap_pairs

    def perturbed(*args):
        pairs, norm = real(*args)
        return [(lam + 1e-6, x) for lam, x in pairs], norm

    monkeypatch.setattr(solver, "_gap_pairs", perturbed)
    with pytest.raises(NoConvergence, match="eigenpair residual"):
        gap_eigenvalues(B, 0.0, 2, tol=1e-8, which="above")


def test_failed_inverse_iteration_raises(monkeypatch):
    real = blockop.dstein
    monkeypatch.setattr(blockop, "dstein", lambda *a: (real(*a)[0], 1))
    with pytest.raises(NoConvergence, match="dstein info = 1"):
        gap_eigenvalues(channel(-1, 0.5, 400), 0.0, 2, which="above")
