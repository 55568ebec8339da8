"""Gap eigenpairs of tridiagonal operators (every Dirac channel) by Sturm
selection on the interleaved H: agreement with dense eigh, the inertia gate,
the paths it replaces never taken, and the dense branch unchanged."""

import functools
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
    assemble,
    build_channel,
    build_grid,
    channel_spectrum,
    embedding_delta,
    full_matrix,
    gap_eigenvalues,
)

from conftest import random_block_operator


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


def assert_matches_dense(B, sigma, k, which):
    w, V = dense_eigh(B)
    H = full_matrix(B)
    pairs = gap_eigenvalues(B, sigma, k, which=which)
    want = dense_selection(w, sigma, k, which)
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
        assert B.M_tridiagonal and 2 * N > blockop.DENSE_EIG_CAP
        lam = dense_eigh(B)[0][N]  # eigenvalue N+1 of H
        assert lam > 0.0
        sigma = {
            "zero": 0.0,
            "interior": 0.5 * lam,
            "just-below": lam - 1e-8 * (1.0 + lam),
            "at": lam,
        }[shift]
        with mock.patch.object(
            solver, "_sparse_gap_pairs", side_effect=AssertionError("Lanczos path")
        ):
            assert_matches_dense(B, sigma, 3, which)

    @settings(deadline=5000, max_examples=25)
    @given(
        n=st.integers(min_value=301, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sigma=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=4),
        which=st.sampled_from(["above", "nearest"]),
    )
    def test_random_bidiagonal(self, n, seed, sigma, k, which):
        rng = np.random.default_rng(seed)
        T = sp.diags([rng.standard_normal(n), rng.standard_normal(n - 1)], [0, 1])
        B = assemble(
            sp.diags(rng.uniform(-1.0, 3.0, n)), T, sp.diags(rng.uniform(0.05, 2.0, n))
        )
        assert B.M_tridiagonal
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
        assert B.M_tridiagonal
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


class TestOneShiftCheck:
    def test_negative_shift_on_every_path(self, rng):
        lower_t = sp.diags([np.ones(350), np.ones(349)], [0, -1])
        operators = [
            random_block_operator(rng, 20),
            channel(-1, 0.5, 400),
            assemble(sp.identity(350), lower_t, 2.0 * sp.identity(350)),
        ]
        assert [B.M_tridiagonal for B in operators] == [False, True, False]
        for B in operators:
            with pytest.raises(NegativeShiftUnsupported):
                gap_eigenvalues(B, -0.1, 1)

    def test_dense_branch_builds_no_shifted_operator(self, rng):
        B = random_block_operator(rng, 30, margin_target=1.0)
        with mock.patch.object(
            solver, "shifted_operator", side_effect=AssertionError("shifted operator")
        ):
            pairs = gap_eigenvalues(B, 0.4, 2)
        assert len(pairs) == 2


def test_channels_never_take_the_lanczos_path(monkeypatch):
    for name in ("_sparse_gap_pairs", "_m0", "eigsh", "splu"):
        monkeypatch.setattr(solver, name, mock.Mock(side_effect=AssertionError(name)))
    for name in ("eigsh", "splu"):
        monkeypatch.setattr(blockop, name, mock.Mock(side_effect=AssertionError(name)))
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
@pytest.mark.parametrize("kappa, N", [(-1, 40), (-2, 300), (1, 120)])
def test_small_channels_keep_the_dense_pairs(kappa, N, which):
    B = channel(kappa, 0.5, N)
    assert 2 * N <= blockop.DENSE_EIG_CAP
    # the dense branch: eigh of H, the selection, then the sign normalization
    w, V = np.linalg.eigh(full_matrix(B).toarray())
    sigma = 0.6
    want = [(float(w[i]), sign_normalized(V[:, i])) for i in dense_selection(w, sigma, 3, which)]
    got = gap_eigenvalues(B, sigma, 3, which=which)
    assert [lam for lam, _ in got] == [lam for lam, _ in want]
    for (_, sv), (_, x) in zip(got, want):
        assert np.array_equal(sv.stacked(), x)


def test_embedding_delta_uses_the_dense_cholesky(rng):
    from scipy.linalg import cho_factor, cho_solve

    for n in (5, 40, 100):
        B = random_block_operator(rng, n, margin_target=0.8)
        delta, certified = embedding_delta(B)
        c2 = blockop.find_c2(B)
        assert delta == B.c1 * c2 / (B.c1 + c2)
        K = cho_solve(cho_factor(B.S.toarray(), lower=True), B.T.toarray())
        G = blockop.schur_form_matrix(B, 0.0) - delta * (
            sp.identity(n, format="csr") + sp.csr_matrix(K.T @ K)
        )
        G = ((G + G.T) * 0.5).tocsr()
        lam = blockop._extreme_eigenvalue(G, "min")
        assert certified == bool(lam >= -blockop.psd_tolerance(G))


def test_s_inverse_above_the_dense_cap_agrees(rng):
    n = 700
    off = np.full(n - 1, 0.25)
    B = assemble(sp.identity(n), sp.identity(n), sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1]))
    assert not B.S_diagonal
    X = rng.standard_normal((n, 3))
    np.testing.assert_allclose(B.S @ blockop._s_inverse(B)(X), X, atol=1e-12)


def test_bad_residual_raises_under_optimize():
    # python -O strips assert statements; the path's checks must survive it
    script = (
        "import sys\n"
        "import schurdirac.solver as solver\n"
        "from schurdirac import DiracChannelSpec, NoConvergence, build_channel, build_grid\n"
        "real = solver.dstein\n"
        "def perturbed(*args):\n"
        "    z, info = real(*args)\n"
        "    z[::7] += 1e-3\n"
        "    return z, info\n"
        "solver.dstein = perturbed\n"
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


def test_failed_inverse_iteration_raises(monkeypatch):
    real = solver.dstein
    monkeypatch.setattr(solver, "dstein", lambda *a: (real(*a)[0], 1))
    with pytest.raises(NoConvergence, match="dstein info = 1"):
        gap_eigenvalues(channel(-1, 0.5, 400), 0.0, 2, which="above")
