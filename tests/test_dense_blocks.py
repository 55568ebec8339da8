"""B._dense: each block of a dense operator is densified once, read-only,
and every dense reader takes its blocks from that one copy; a channel
keeps no copy."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

import schurdirac.blockop as blockop
from schurdirac import (
    DiracChannelSpec,
    RhsPair,
    StateVector,
    assemble,
    build_channel,
    build_grid,
    channel_spectrum,
    embedding_delta,
    find_c2,
    form_report,
    gap_eigenvalues,
    inertia_c2_oracle,
    positivity_margin,
    resolvent_difference_check,
    schur_form_matrix,
    solve,
    symmetry_identity_check,
)

from conftest import random_block_operator, symmetrize
from test_shift_basis import diagonal_s_operator

GROUND = DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.5)


@pytest.fixture
def toarray_calls(monkeypatch):
    """The shapes of every csr_matrix.toarray call made while the test runs."""
    calls, toarray = [], sp.csr_matrix.toarray

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "toarray", counting)
    return calls


def every_reader(B):
    """find_c2, embedding_delta, gap pairs, three forms, a solve and the resolvent check."""
    n = B.N
    find_c2(B)
    embedding_delta(B)
    gap_eigenvalues(B, 0.0, 2, which="above")
    for alpha in (0.0, 0.3, 1.1):
        form_report(B, alpha)
    solve(B, RhsPair(np.ones(n), np.arange(n, dtype=float)))
    resolvent_difference_check(B, 1.0, 0.5 * B.c1 / (B.c1 + 1.0))


def stiff_operator():
    """A stiff H (S up to 1e8) on which find_c2 bisects by factorizations."""
    rng = np.random.default_rng(1)
    n = 6
    s = np.logspace(0.0, 8.0, n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = symmetrize((Q * s) @ Q.T)
    T = np.sqrt(s.max()) * rng.standard_normal((n, n)) * 0.01
    P = symmetrize(rng.standard_normal((n, n)))
    shift = 0.5 - positivity_margin(assemble(P, T, S), 0.0)
    return assemble(P + shift * np.eye(n), T, S)


def dense_operators(rng):
    return [random_block_operator(rng, n, margin_target=0.5) for n in (2, 9, 30)] + [
        diagonal_s_operator(rng, 11)
    ]


def test_a_fresh_dense_operator_densifies_each_block_once(rng, toarray_calls):
    for B in dense_operators(rng):
        assert isinstance(B.P, sp.csr_matrix) and B.H_tridiagonal is None
        del toarray_calls[:]
        every_reader(B)
        assert toarray_calls == [(B.N, B.N)] * 3, B.N


def test_a_channel_never_densifies(toarray_calls):
    grid = build_grid("logarithmic", 300, 1e-4, 100.0)
    B = build_channel(GROUND, grid)
    assert isinstance(B.T, sp.csr_matrix) and B.H_tridiagonal is not None
    find_c2(B)
    channel_spectrum(GROUND, grid, 2)
    solve(B, RhsPair(np.ones(B.N), np.ones(B.N)))
    assert toarray_calls == []
    # the oracle densifies for its one call and keeps no copy
    inertia_c2_oracle(B)
    assert len(toarray_calls) == 3
    assert "_dense" not in vars(B)


def test_the_copy_is_read_only_and_equal_to_the_blocks_after_every_reader(rng):
    bisect = mock.Mock(wraps=blockop._bisect)
    with mock.patch.object(blockop, "_bisect", bisect):
        for B in dense_operators(rng) + [stiff_operator()]:
            bisect.reset_mock()
            every_reader(B)
            inertia_c2_oracle(B)
            schur_form_matrix(B, 0.7)
            w = StateVector(np.ones(B.N), np.linspace(-1.0, 1.0, B.N))
            symmetry_identity_check(B, w, w)
            for alpha in (0.0, 0.2, 2.0):
                blockop._shifted_x(B, alpha)
            for name, copy in zip("PTS", B._dense):
                assert not copy.flags.writeable, name
                assert copy.tobytes() == getattr(B, name).toarray().tobytes(), name
    # the stiff operator took the factorization bisection, whose each
    # step overwrites a copy of S + alpha I in dpotrf
    assert bisect.called


def test_s_inverse_is_bitwise_scipys_cho_solve(rng):
    # dpotrs is the routine cho_solve calls, so the bits are the same
    B = random_block_operator(rng, 13, margin_target=0.5)
    S = B.S.toarray()
    for x in (np.arange(13.0), B.T.toarray()):
        want = cho_solve(cho_factor(S, lower=True), x)
        assert B._s_solve(x).tobytes() == want.tobytes()
