"""Dense margins without an eigendecomposition of S: M_0 formed once per
operator and read-only, each M_alpha with alpha > 0 formed through one
Cholesky factor of S + alpha I, agreement with a 40-digit reference also
for an ill-conditioned S, and overflowed forms refused on both routes."""

import dataclasses
import functools
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

import schurdirac.blockop as blockop
from schurdirac import (
    NonPositiveS,
    RhsPair,
    StateVector,
    assemble,
    embedding_delta,
    find_c2,
    positivity_margin,
    solve,
    symmetry_identity_check,
)

from conftest import form_array, random_block_operator, symmetrize

ALPHAS = (0.05, 0.5, 1.5, 3.0)


def diagonal_s_operator(rng, n):
    """Dense P and T with a diagonal S: not tridiagonal, so the dense route.

    P is shifted so that lambda_min(M_0) = 0.5.
    """
    P = symmetrize(rng.standard_normal((n, n)))
    T = rng.standard_normal((n, n)) / np.sqrt(n)
    S = np.diag(rng.uniform(0.5, 3.0, n))
    P = P + (0.5 - positivity_margin(assemble(P, T, S), 0.0)) * np.eye(n)
    B = assemble(P, T, S)
    assert B.S_diagonal and B.H_tridiagonal is None
    return B


def dense_operators(rng):
    return [random_block_operator(rng, n, margin_target=0.5) for n in (3, 8, 20)] + [
        diagonal_s_operator(rng, n) for n in (4, 12, 20)
    ]


def ill_conditioned_operators(rng):
    """Dense P and T with lambda_min(S) = 1e-8, S non-diagonal or diagonal.

    T^t S^{-1} T is then about 1e8 times larger than M_alpha at alpha
    of order one, so a form that subtracts the shift from M_0 would lose
    about eight digits there.
    """
    ops = []
    for n, diagonal in ((6, False), (12, False), (8, True)):
        s = rng.uniform(0.5, 3.0, n)
        s[n // 2] = 1e-8
        if diagonal:
            S = np.diag(s)
        else:
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            S = symmetrize((Q * s) @ Q.T)
        T = rng.standard_normal((n, n)) / np.sqrt(n)
        P = symmetrize(rng.standard_normal((n, n)))
        B = assemble(P, T, S)
        assert B.S_diagonal == diagonal and B.H_tridiagonal is None
        assert B.c1 < 1e-7
        ops.append(B)
    return ops


def mp_margin(mp, B, alpha):
    """lambda_min of (P - alpha I) + T^t (S + alpha I)^{-1} T at mp's precision."""
    n = B.N
    P, T, S = (mp.matrix(m.toarray().tolist()) for m in (B.P, B.T, B.S))
    shift = mp.mpf(alpha) * mp.eye(n)
    M = P - shift + T.T * mp.inverse(S + shift) * T
    return min(mp.eigsy((M + M.T) / 2, eigvals_only=True))


def test_margins_agree_with_a_40_digit_reference(rng):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for B in dense_operators(rng):
        for alpha in (0.0,) + ALPHAS:
            ref = float(mp_margin(mp, B, alpha))
            got = positivity_margin(B, alpha)
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref)), (B.N, alpha, got, ref)


def test_ill_conditioned_s_margins_agree_with_a_40_digit_reference(rng):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for B in ill_conditioned_operators(rng):
        for alpha in ALPHAS + (1.0,):
            ref = float(mp_margin(mp, B, alpha))
            got = positivity_margin(B, alpha)
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref)), (B.N, alpha, got, ref)


def cholesky_m0(B):
    """M_0 = P + T^t S^{-1} T through a Cholesky factor of S, symmetrized."""
    T = B.T.toarray()
    if B.S_diagonal:
        K = T / B.S.diagonal()[:, None]
    else:
        K = cho_solve(cho_factor(B.S.toarray(), lower=True), T)
    M = B.P.toarray() + T.T @ K
    return (M + M.T) * 0.5


def test_margin_at_zero_is_eigvalsh_of_the_cholesky_formed_m0(rng):
    for B in dense_operators(rng):
        M0 = cholesky_m0(B)
        assert np.array_equal(blockop._schur_form(B, 0.0), M0)
        assert positivity_margin(B, 0.0) == np.linalg.eigvalsh(M0)[0]


def test_m0_is_one_read_only_array_per_operator(rng):
    B = random_block_operator(rng, 12, margin_target=1.0)
    M0 = blockop._schur_form(B, 0.0)
    assert not M0.flags.writeable
    find_c2(B)
    embedding_delta(B)
    assert blockop._schur_form(B, 0.0) is M0 is B._M0
    # the elimination keeps only M_0's factor; solve reads M_0 itself
    solve(B, RhsPair(np.ones(12), np.zeros(12)))
    assert B._M0 is M0 and isinstance(B._elimination[0], np.ndarray)
    assert np.array_equal(form_array(B, 0.0), M0)


def test_c2_embedding_and_margins_take_no_eigh(rng, monkeypatch):
    B = random_block_operator(rng, 15, margin_target=0.8)
    S = B.S.toarray()
    rhs = RhsPair(np.ones(15), np.zeros(15))
    eigh = mock.Mock(wraps=np.linalg.eigh)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    solve(dataclasses.replace(B), rhs)
    find_c2(B)
    embedding_delta(B)
    factored, dpotrf = [], blockop.dpotrf

    def recording(a, **kwargs):
        factored.append(np.array(a))  # before dpotrf overwrites it
        return dpotrf(a, **kwargs)

    with mock.patch.object(blockop, "dpotrf", recording):
        positivity_margin(B, 0.3)
    # the form at alpha = 0.3 is one factorization of S + 0.3 I, then eigvalsh
    assert [np.array_equal(a, S + 0.3 * np.eye(15)) for a in factored] == [True]
    solve(dataclasses.replace(B), rhs)
    assert eigh.call_count == 0


def test_diagonal_s_needs_no_eigh(rng, monkeypatch):
    B = diagonal_s_operator(rng, 10)
    monkeypatch.setattr(np.linalg, "eigh", mock.Mock(side_effect=AssertionError("eigh")))
    # a diagonal S + alpha I is divided by exactly, never factored or solved with
    monkeypatch.setattr(blockop, "dtrtrs", mock.Mock(side_effect=AssertionError("dtrtrs")))
    P, T, s = B.P.toarray(), B.T.toarray(), B.S.diagonal()
    for alpha in ALPHAS:
        X = blockop._shifted_x(B, alpha)
        assert np.array_equal(X, T / np.sqrt(s + alpha)[:, None])
        M = P + X.T @ X
        M[np.diag_indices(10)] -= alpha
        assert np.array_equal(blockop._schur_form(B, alpha), M)
    find_c2(B)


def test_s_is_cholesky_factored_once_per_operator(rng, monkeypatch):
    B = random_block_operator(rng, 10, margin_target=1.0)
    S = B.S.toarray()
    factor = mock.Mock(wraps=blockop.dpotrf)
    monkeypatch.setattr(blockop, "dpotrf", factor)
    positivity_margin(B, 0.0)
    find_c2(B)
    embedding_delta(B)
    positivity_margin(B, 0.7)
    rhs = RhsPair(np.ones(10), np.ones(10))
    solve(B, rhs)
    w = StateVector(np.ones(10), np.arange(10.0))
    symmetry_identity_check(B, w, w)
    of_s = [c for c in factor.call_args_list if np.array_equal(c.args[0], S)]
    assert len(of_s) == 1
    # a copy starts without any of the ten lazy facts, and makes its own
    C = dataclasses.replace(B)
    lazy = {
        "H_tridiagonal", "_dense", "_s_solve", "_M0", "_margin0", "_ground", "_s_min",
        "_elimination", "_H_reduced", "_c2",
    }
    cached = vars(blockop.BlockOperator).items()
    assert lazy == {name for name, v in cached if isinstance(v, functools.cached_property)}
    assert not lazy & set(vars(C))
    solve(C, rhs)
    assert len([c for c in factor.call_args_list if np.array_equal(c.args[0], S)]) == 2


def test_replaced_s_gives_the_margins_of_a_fresh_assembly(rng):
    B = random_block_operator(rng, 9, margin_target=1.0)
    for alpha in (0.0, 0.5):
        positivity_margin(B, alpha)  # fill B's cached facts first
    C = dataclasses.replace(B, S=2.0 * B.S)
    D = assemble(B.P, B.T, 2.0 * B.S.toarray())
    for alpha in (0.0,) + ALPHAS:
        assert positivity_margin(C, alpha) == positivity_margin(D, alpha)
    assert positivity_margin(C, 0.5) != positivity_margin(B, 0.5)


def test_a_replaced_s_that_is_not_positive_definite_is_refused(rng):
    B = random_block_operator(rng, 7, margin_target=1.0)
    C = dataclasses.replace(B, S=-B.S)
    assert not C.S_diagonal
    with pytest.raises(NonPositiveS, match=r"^S \+ 0 I is not positive definite$"):
        positivity_margin(C, 0.0)
    with pytest.raises(NonPositiveS, match=r"^S \+ 0\.5 I is not positive definite$"):
        positivity_margin(C, 0.5)


def test_racing_threads_see_one_set_of_margins(rng):
    # more threads than cores, switching often, all starting on an
    # operator whose lazy facts are not made yet
    B = random_block_operator(rng, 60, margin_target=0.5)
    alphas = [0.0, 0.1, 0.4, 0.0, 1.0, 0.25, 0.4, 2.0]
    start = threading.Barrier(8, timeout=30)

    def margins(_):
        start.wait()
        return [positivity_margin(B, a) for a in alphas]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(margins, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    fresh = random_block_operator(np.random.default_rng(20240817), 60, margin_target=0.5)
    assert [positivity_margin(fresh, a) for a in alphas] == results[0]


def test_dense_forms_are_exactly_symmetric(rng):
    for B in dense_operators(rng):
        for alpha in (0.0,) + ALPHAS:
            M = blockop._schur_form(B, alpha)
            assert isinstance(M, np.ndarray)
            assert np.array_equal(M, M.T)


def overflowing_operators():
    rng = np.random.default_rng(6)
    n = 6
    a = rng.standard_normal((n, n))
    dense = assemble(np.eye(n), 1e160 * rng.standard_normal((n, n)), symmetrize(a @ a.T + 6 * np.eye(n)))
    bidiagonal = sp.diags([np.full(n, 1e160), np.full(n - 1, 1e160)], [0, 1])
    channel_like = assemble(np.eye(n), bidiagonal, np.eye(n))
    assert dense.H_tridiagonal is None and channel_like.H_tridiagonal is not None
    return [dense, channel_like]


@pytest.mark.parametrize("route", [0, 1], ids=["dense", "tridiagonal"])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_an_overflowed_form_is_refused_without_a_warning(route, alpha):
    B = overflowing_operators()[route]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="infs or NaNs"):
            positivity_margin(B, alpha)
        # a refusal is not kept: a second call is refused alike
        with pytest.raises(ValueError, match="infs or NaNs"):
            positivity_margin(B, alpha)
