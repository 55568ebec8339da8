"""B._dense: the one read-only dense form of each block of a dense operator.

A full block (nnz = N*N) is a view of its CSR data, never of arrays a
caller can still write; any other block is densified once.  Every dense
reader takes its blocks from it; a channel keeps none.
"""

import base64
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

import schurdirac.blockop as blockop
from schurdirac import (
    BlockOperator,
    DiracChannelSpec,
    RhsPair,
    StateVector,
    ValidationError,
    assemble,
    build_channel,
    build_grid,
    channel_spectrum,
    embedding_delta,
    find_c2,
    gap_eigenvalues,
    inertia_c2_oracle,
    operator_from_text,
    operator_to_text,
    positivity_margin,
    resolvent_difference_check,
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
        positivity_margin(B, alpha)
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


def test_a_fresh_dense_operator_densifies_only_its_blocks_that_are_not_full(rng, toarray_calls):
    # a full block is read as a view of its CSR data, no copy; any other
    # block once: diagonal_s_operator's S is the one such block here
    for B, densified in zip(dense_operators(rng), ([], [], [], ["S"])):
        assert isinstance(B.P, sp.csr_matrix) and B.H_tridiagonal is None
        assert [name for name in "PTS" if getattr(B, name).nnz != B.N**2] == densified
        del toarray_calls[:]
        every_reader(B)
        assert toarray_calls == [(B.N, B.N)] * len(densified), B.N
        assert np.shares_memory(B._dense.P, B.P.data)


def test_full_blocks_are_views_only_of_arrays_no_caller_can_write(rng):
    A = random_block_operator(rng, 7, margin_target=0.5)
    # assemble, the text reader and replace of them hold read-only blocks
    for B in (A, dataclasses.replace(A), operator_from_text(operator_to_text(A))):
        for name, dense in zip("PTS", B._dense):
            m = getattr(B, name)
            assert not dense.flags.writeable and np.shares_memory(dense, m.data), name
            assert dense.tobytes() == m.toarray().tobytes(), name
    want = [m.toarray() for m in (A.P, A.T, A.S)]
    # a full CSC block stores its entries column-major: never viewed
    X = A.T.tocsc()
    for buf in (X.data, X.indices, X.indptr):
        buf.setflags(write=False)
    assert dataclasses.replace(A, T=X)._dense.T.tobytes() == want[1].tobytes()
    # blocks built directly from arrays their caller can still write: each
    # dense block is a read-only copy, unchanged when the caller writes them
    arrays = [(m.data.copy(), m.indices.copy(), m.indptr.copy()) for m in (A.P, A.T, A.S)]
    blocks = [sp.csr_matrix(a, shape=(7, 7)) for a in arrays]
    B = BlockOperator(*blocks, c1=A.c1)
    for name, dense, m, (data, _, _) in zip("PTS", B._dense, blocks, arrays):
        assert np.shares_memory(m.data, data) and data.flags.writeable, name
        assert not dense.flags.writeable and not np.shares_memory(dense, data), name
        data[:] = 1.0
    # and assemble copies the arrays it is given, so writing them after changes nothing
    given = [a.copy() for a in want]
    C = assemble(*given)
    for a in given:
        a[:] = 1.0
    for D in (B, C):
        for name, dense, a in zip("PTS", D._dense, want):
            assert not dense.flags.writeable and dense.tobytes() == a.tobytes(), name


@pytest.mark.parametrize("name", ["P", "S"])
def test_an_asymmetric_full_block_is_refused_by_name(rng, name):
    B = random_block_operator(rng, 5, margin_target=0.5)
    blocks = {k: getattr(B, k).toarray() for k in "PTS"}
    blocks[name][0, 1] = np.nextafter(blocks[name][0, 1], math.inf)
    message = f"^{name}: block must be exactly symmetric$"
    with pytest.raises(ValidationError, match=message) as info:
        assemble(blocks["P"], blocks["T"], blocks["S"])
    assert info.value.key == name
    # the same block in the text of B: the reader refuses it alike
    lines = operator_to_text(B).splitlines()
    k = 3 + 4 * "PTS".index(name)
    assert lines[k : k + 3] == [f"{name} 25", "", ""]
    lines[k + 3] = base64.b64encode(blocks[name].astype("<f8").tobytes()).decode("ascii")
    with pytest.raises(ValidationError, match=message) as info:
        operator_from_text("\n".join(lines))
    assert info.value.key == name


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
            positivity_margin(B, 0.7)
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


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rng.standard_normal((100, 100)),
        lambda rng: rng.standard_normal((3, 5)),
        lambda rng: np.asfortranarray(rng.standard_normal((7, 7))),
        lambda rng: rng.integers(1, 9, (6, 6)),
        lambda rng: rng.standard_normal((6, 6)).astype(np.float32),
        lambda rng: np.ones((4, 4), bool),
        lambda rng: np.array([[2.5]]),
        lambda rng: np.array([1.0, -2.0, 3.0]),
        lambda rng: np.zeros((1, 0)),
        lambda rng: np.where(np.eye(5) > 0, 0.0, 1.0),  # a zero on the diagonal: not full
    ],
)
def test_a_full_array_is_stored_as_scipys_nonzero_search_stores_it(rng, make):
    # an array with no zero entry skips scipy's COO path, and gets its arrays exactly
    a = make(rng)
    old = sp.csr_matrix(np.atleast_2d(a).astype(np.float64))
    old.sum_duplicates()
    new = blockop._as_csr("P", a)
    for name in ("data", "indices", "indptr"):
        want, got = getattr(old, name), getattr(new, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert new.shape == old.shape and new.has_canonical_format
