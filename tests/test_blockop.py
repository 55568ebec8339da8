import base64
import dataclasses
import itertools
import math
import re
import signal
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dnrm2
from scipy.linalg.lapack import dsyevx

import schurdirac.blockop as blockop
import schurdirac.solver as solver
from schurdirac import (
    BlockOperator,
    CheckFailed,
    DiracChannelSpec,
    DimensionMismatch,
    HypothesisFailed,
    NegativeAlpha,
    NonPositiveS,
    RhsPair,
    SchurDiracError,
    StateVector,
    TooLarge,
    ValidationError,
    apply,
    assemble,
    build_channel,
    build_grid,
    embedding_delta,
    find_c2,
    form_report,
    full_matrix,
    gap_eigenvalues,
    inertia_c2_oracle,
    matrix_from_text,
    matrix_to_text,
    operator_from_text,
    operator_to_text,
    positivity_margin,
    resolvent_difference_check,
    schur_form_matrix,
    solve,
)
from schurdirac.dirac import _c2_of
from schurdirac.errors import DeltaOutOfRange

from conftest import random_block_operator, spy_on_m0, symmetrize

C2_SCALAR = (1.0 + math.sqrt(13.0)) / 2.0  # root of 2 - a + 1/(1+a) = 0


def scalar_operator():
    return assemble([[2.0]], [[1.0]], [[1.0]])


@contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging, when the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestAssemble:
    def test_scalar(self):
        B = scalar_operator()
        assert B.N == 1
        assert B.c1 == 1.0
        # the upper right block of H is T^t
        assert full_matrix(B).toarray()[0, 1] == 1.0

    def test_rejects_nonpositive_s(self):
        with pytest.raises(NonPositiveS):
            assemble([[2.0]], [[1.0]], [[-1.0]])

    def test_diagonal_case(self):
        B = assemble(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2))
        assert B.c1 == 2.0
        assert full_matrix(B)[:2, 2:].nnz == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble(np.eye(2), np.zeros((2, 3)), 2.0 * np.eye(2))

    def test_rejects_asymmetric_p(self):
        with pytest.raises(ValidationError):
            assemble([[1.0, 2.0], [0.0, 1.0]], np.zeros((2, 2)), np.eye(2))

    def test_asserted_c1(self):
        B = assemble(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2), c1_policy=1.5)
        assert B.c1 == 1.5
        with pytest.raises(NonPositiveS):
            assemble(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2), c1_policy=3.0)
        with pytest.raises(NonPositiveS):
            assemble(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2), c1_policy=-1.0)

    def test_q_is_exact_transpose_and_h_symmetric(self, rng):
        B = random_block_operator(rng, 17)
        H = full_matrix(B)
        assert (H[:17, 17:] - B.T.T).nnz == 0
        assert (H - H.T).nnz == 0

    @pytest.mark.parametrize("name", ["P", "T", "S"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_block(self, name, bad):
        blocks = {"P": np.eye(2), "T": np.ones((2, 2)), "S": np.eye(2)}
        blocks[name] = blocks[name].copy()
        blocks[name][1, 1] = bad
        with pytest.raises(ValidationError) as info:
            assemble(blocks["P"], blocks["T"], blocks["S"])
        assert info.value.key == name
        assert "non-finite" in str(info.value)

    def test_rejects_empty_blocks(self):
        with pytest.raises(DimensionMismatch):
            assemble(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))

    def test_rejects_nan_asserted_c1(self):
        with pytest.raises(NonPositiveS):
            assemble([[2.0]], [[1.0]], [[1.0]], c1_policy=math.nan)

    @pytest.mark.parametrize("name", ["P", "T", "S"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_rejects_complex_block(self, name, sparse):
        # a cast to float64 would keep P = 2I of (2 + 5j) I, with only a warning
        blocks = {"P": np.eye(2), "T": np.eye(2), "S": np.eye(2)}
        blocks[name] = blocks[name] * (2.0 + 5.0j)
        if sparse:
            blocks[name] = sp.csr_matrix(blocks[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                assemble(blocks["P"], blocks["T"], blocks["S"])
        assert info.value.key == name
        assert "complex" in str(info.value)

    def test_rejects_complex_dtype_with_zero_imaginary_part(self):
        with pytest.raises(ValidationError, match="complex"):
            assemble(np.eye(2), np.eye(2), np.eye(2, dtype=np.complex64))

    def test_diagonal_s_c1_is_smallest_diagonal_entry(self):
        d = np.array([3.0, 0.1 + 0.2, 7.5])
        B = assemble(np.eye(3), np.ones((3, 3)), np.diag(d))
        assert B.S_diagonal
        assert B.c1 == d.min()
        with pytest.raises(NonPositiveS):
            assemble(np.eye(3), np.ones((3, 3)), np.diag(d), c1_policy=0.31)

    def test_s_diagonal_false_for_random_dense_family(self, rng):
        for n in (2, 10, 40):
            assert not random_block_operator(rng, n).S_diagonal

    def test_s_diagonal_is_derived_not_passed(self, rng):
        B = random_block_operator(rng, 4)
        C = dataclasses.replace(B, S=sp.csr_matrix(np.eye(4)))
        assert C.S_diagonal and not B.S_diagonal
        assert not dataclasses.replace(B).S_diagonal
        with pytest.raises(TypeError):
            BlockOperator(B.P, B.T, B.S, B.c1, S_diagonal=True)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, 0.01])
    def test_replaced_diagonal_s_rechecks_c1(self, scale):
        # c1 = 1 is kept by replace; a diagonal S below it is refused, as
        # assemble refuses it, before any form is built from the stale c1
        B = assemble(2.0 * np.eye(3), np.ones((3, 3)), np.eye(3))
        message = "lambda_min" if scale <= 0.0 else "exceeds"
        with pytest.raises(NonPositiveS, match=message):
            dataclasses.replace(B, S=sp.csr_matrix(scale * np.eye(3)))
        # within assemble's relative 1e-12 slack, or above c1, it is kept
        for s in (1.0 - 1e-13, 1.5):
            C = dataclasses.replace(B, S=sp.csr_matrix(s * np.eye(3)))
            assert C.c1 == 1.0 and C.S_diagonal

    def test_only_the_blocks_and_c1_are_settable(self, rng):
        assert [f.name for f in dataclasses.fields(BlockOperator) if f.init] == [
            "P", "T", "S", "c1"
        ]
        B = random_block_operator(rng, 4)
        assert BlockOperator(B.P, B.T, B.S, B.c1).N == 4
        with pytest.raises(TypeError):
            BlockOperator(B.P, B.T, B.S, B.c1, N=3)
        with pytest.raises(TypeError):
            BlockOperator(B.P, B.T, B.S, B.c1, Tt=B.T)
        with pytest.raises(TypeError):
            BlockOperator(B.P, B.T.T.tocsr(), B.T, B.S, B.c1)
        n = 3
        C = dataclasses.replace(
            B, P=sp.csr_matrix(np.eye(n)), T=sp.csr_matrix((n, n)), S=sp.csr_matrix(np.eye(n))
        )
        assert C.N == n and B.N == 4

    def test_each_block_band_is_tested_once_and_c1_certified_once(self, rng, monkeypatch):
        band = mock.Mock(wraps=blockop._within_band)
        certify = mock.Mock(wraps=blockop._check_c1)
        monkeypatch.setattr(blockop, "_within_band", band)
        monkeypatch.setattr(blockop, "_check_c1", certify)
        grid = build_grid("logarithmic", 50, 1e-3, 10.0)
        for kappa in (-1, 1):
            band.reset_mock()
            certify.reset_mock()
            B = build_channel(DiracChannelSpec(kappa, 0.5, 0.5), grid)
            assert B.H_tridiagonal is not None
            # S and P by assemble, T by __post_init__ once both are diagonal
            assert [id(c.args[0]) for c in band.call_args_list] == [id(B.S), id(B.P), id(B.T)]
            assert certify.call_count == 1
        # a dense operator's S is tested once, its P and T never
        band.reset_mock()
        certify.reset_mock()
        B = random_block_operator(rng, 12)
        assert [id(c.args[0]) for c in band.call_args_list] == [id(B.S)]
        assert certify.call_count == 1
        # replace tests the blocks again, and trusts the c1 of a dense S
        dataclasses.replace(B)
        assert [id(c.args[0]) for c in band.call_args_list] == [id(B.S)] * 2
        assert certify.call_count == 1

    def test_a_diagonal_block_skips_the_exact_symmetry_test(self, rng, monkeypatch):
        exact = mock.Mock(wraps=blockop._is_symmetric_exact)
        monkeypatch.setattr(blockop, "_is_symmetric_exact", exact)
        build_channel(DiracChannelSpec(-1, 0.5, 0.5), build_grid("uniform", 30, 0.1, 10.0))
        assert exact.call_count == 0
        # a diagonal P beside a dense S: only S pays the test
        a = rng.standard_normal((4, 4))
        B = assemble(np.diag([1.0, 2.0, 3.0, 4.0]), a, symmetrize(a @ a.T + np.eye(4)))
        assert [id(c.args[0]) for c in exact.call_args_list] == [id(B.S)]
        with pytest.raises(ValidationError, match="^P: block must be exactly symmetric$") as info:
            assemble(np.triu(np.ones((4, 4))), a, np.eye(4))
        assert info.value.key == "P"
        assert exact.call_count == 2

    def test_replaced_t_keeps_h_symmetric(self):
        # H's upper right block is T^t by definition, so replacing T cannot
        # leave a stale copy of the old T behind
        B = assemble(2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3))
        X = sp.csr_matrix(np.triu(np.ones((3, 3))))
        C = dataclasses.replace(B, T=X)
        assert np.array_equal(C.Tt.toarray(), X.toarray().T)
        H = full_matrix(C)
        assert (H - H.T).nnz == 0
        w = StateVector([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert np.array_equal(apply(C, w).stacked(), H @ w.stacked())
        rhs = RhsPair([1.0, -2.0, 0.5], [3.0, 0.0, -1.0])
        rep = solve(C, rhs)
        assert rep.residual_norm <= 1e-14 * (1.0 + np.linalg.norm(rhs.stacked()))
        assert find_c2(C) == pytest.approx(inertia_c2_oracle(C), abs=1e-8)

    def test_replaced_t_on_random_operators(self, rng):
        for n in (5, 30):
            B = random_block_operator(rng, n, margin_target=1.0)
            # 2T only adds 3 T^t S^{-1} T >= 0 to M_0, which stays positive definite
            C = dataclasses.replace(B, T=2.0 * B.T)
            H = full_matrix(C)
            assert (H - H.T).nnz == 0
            w = StateVector(rng.standard_normal(n), rng.standard_normal(n))
            assert np.allclose(apply(C, w).stacked(), H @ w.stacked(), rtol=1e-14, atol=1e-14)
            rhs = RhsPair(rng.standard_normal(n), rng.standard_normal(n))
            rep = solve(C, rhs)
            assert rep.residual_norm <= 1e-12 * (1.0 + np.linalg.norm(rhs.stacked()))


class TestGivenC1:
    """A given c1 of a non-diagonal S: one dpotrf certifies it where it can,
    else one eigvalsh of S decides, with every refusal and its message."""

    S = np.array([[2.0, 1.0], [1.0, 2.0]])  # lambda_min(S) = 1

    @staticmethod
    def edge(smin):
        """The largest c1 that _check_c1 accepts for lambda_min(S) = smin."""

        def accepted(c1):
            return not smin < c1 - 1e-12 * (1.0 + abs(smin))

        c1 = smin + 1e-12 * (1.0 + abs(smin))
        while not accepted(c1):
            c1 = np.nextafter(c1, -np.inf)
        while accepted(np.nextafter(c1, np.inf)):
            c1 = np.nextafter(c1, np.inf)
        return float(c1)

    def test_c1_at_the_allowance_edge_on_both_paths(self, monkeypatch):
        smin = float(np.linalg.eigvalsh(self.S)[0])
        edge = self.edge(smin)
        assert edge > smin
        eig = mock.Mock(wraps=np.linalg.eigvalsh)
        factor = mock.Mock(wraps=blockop.dpotrf)
        monkeypatch.setattr(np.linalg, "eigvalsh", eig)
        monkeypatch.setattr(blockop, "dpotrf", factor)

        def built(c1):
            return assemble(np.eye(2), np.eye(2), self.S, c1_policy=c1)

        # above smin, inside the allowance: one factor and no eigvalsh
        B = built(smin + 0.5 * (edge - smin))
        assert (factor.call_count, eig.call_count) == (1, 0)
        assert "_s_min" not in vars(B) and B._s_min == smin
        # at the edge the factor fails, and the eigvalsh accepts and is kept
        eig.reset_mock()
        B = built(edge)
        assert (factor.call_count, eig.call_count) == (2, 1)
        assert B.c1 == edge and vars(B)["_s_min"] == smin
        # one float past it, the eigvalsh refuses with _check_c1's message
        past = float(np.nextafter(edge, np.inf))
        with pytest.raises(NonPositiveS) as err:
            built(past)
        assert str(err.value) == f"asserted c1 = {past:.6g} exceeds lambda_min(S) = {smin:.6g}"
        assert (factor.call_count, eig.call_count) == (3, 2)

    def test_an_indefinite_s_is_refused_as_before(self):
        with pytest.raises(NonPositiveS, match=r"^lambda_min\(S\) = -1 <= 0; S >= c1 I > 0 fails$"):
            assemble(np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]], c1_policy=0.5)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        step=st.floats(min_value=-4.0, max_value=1.5),
    )
    def test_a_factor_accepts_only_what_eigvalsh_accepts(self, seed, n, step):
        # c1 = smin + step allowances: the factor's yes is _check_c1's yes,
        # and at or below smin it says yes for these well-scaled S
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        S = symmetrize(a @ a.T / n + 0.5 * np.eye(n))
        smin = float(np.linalg.eigvalsh(S)[0])
        c1 = smin + step * 1e-12 * (1.0 + smin)
        shown = blockop._factor_shows_c1(S, c1)
        if shown:
            blockop._check_c1(smin, c1)
        assert shown or step > 0.0


class TestApply:
    def test_scalar(self):
        out = apply(scalar_operator(), StateVector([1.0], [1.0]))
        assert out.u == pytest.approx([3.0])
        assert out.v == pytest.approx([0.0])

    def test_zero_maps_to_zero(self, rng):
        B = random_block_operator(rng, 9)
        out = apply(B, StateVector(np.zeros(9), np.zeros(9)))
        assert np.all(out.u == 0.0) and np.all(out.v == 0.0)

    def test_decoupled(self, rng):
        B = assemble(np.eye(4), np.zeros((4, 4)), np.eye(4))
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        out = apply(B, StateVector(u, v))
        assert out.u == pytest.approx(u)
        assert out.v == pytest.approx(-v)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(scalar_operator(), StateVector([1.0, 2.0], [0.0, 0.0]))

    def test_state_vector_component_lengths(self):
        with pytest.raises(DimensionMismatch):
            StateVector([1.0], [1.0, 2.0])

    def test_sparse_operator_is_applied_by_its_csr_blocks(self, rng):
        # a non-channel operator (S is tridiagonal), stored sparse: apply
        # never densifies it, and stays the CSR product once _dense exists
        n = 2000
        P = sp.diags([rng.uniform(1.0, 2.0, n)], [0])
        T = sp.diags([rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)], [0, -1])
        S = sp.diags([np.full(n - 1, 0.1), np.full(n, 1.0), np.full(n - 1, 0.1)], [-1, 0, 1])
        B = assemble(P, T, S)
        assert B.H_tridiagonal is None
        w = StateVector(rng.standard_normal(n), rng.standard_normal(n))
        out = apply(B, w)
        assert "_dense" not in vars(B)
        want = (B.P @ w.u + B.T.T @ w.v, B.T @ w.u - B.S @ w.v)
        assert np.array_equal(out.u, want[0]) and np.array_equal(out.v, want[1])
        small = assemble(*(m.toarray()[:60, :60] for m in (P, T, S)))
        w = StateVector(w.u[:60], w.v[:60])
        before = apply(small, w)
        gap_eigenvalues(small, 0.0, 2, which="above")  # makes _dense
        assert "_dense" in vars(small)
        after = apply(small, w)
        assert np.array_equal(before.u, after.u) and np.array_equal(before.v, after.v)


class TestSchurForm:
    def test_scalar_alpha_zero(self):
        M = schur_form_matrix(scalar_operator(), 0.0)
        assert M.toarray().item() == pytest.approx(3.0)

    def test_scalar_alpha_one(self):
        M = schur_form_matrix(scalar_operator(), 1.0)
        assert M.toarray().item() == pytest.approx(1.5)

    def test_no_coupling(self, rng):
        P = symmetrize(rng.standard_normal((5, 5)))
        B = assemble(P, np.zeros((5, 5)), np.eye(5))
        M = schur_form_matrix(B, 0.7)
        assert M.toarray() == pytest.approx(P - 0.7 * np.eye(5))

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            schur_form_matrix(scalar_operator(), -0.1)

    def test_form_matches_quadratic_evaluation(self, rng):
        # two independent paths: u^t M_a u vs ((S+a)^{-1}Tu, Tu) + ((P-a)u, u)
        B = random_block_operator(rng, 23)
        for alpha in (0.0, 0.3, 1.7):
            M = schur_form_matrix(B, alpha).toarray()
            for _ in range(5):
                u = rng.standard_normal(23)
                tu = B.T.toarray() @ u
                direct = tu @ np.linalg.solve(
                    B.S.toarray() + alpha * np.eye(23), tu
                ) + u @ (B.P.toarray() @ u) - alpha * (u @ u)
                quad = u @ (M @ u)
                assert quad == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_schur_form_matrix_is_csr_on_both_paths(self, rng):
        dense = random_block_operator(rng, 7, margin_target=1.0)
        diagonal = assemble(np.eye(7), rng.standard_normal((7, 7)), 2.0 * np.eye(7))
        for B in (dense, diagonal):
            M = schur_form_matrix(B, 0.4)
            assert isinstance(M, sp.csr_matrix)
            assert (M - M.T).nnz == 0
            assert positivity_margin(B, 0.4) == np.linalg.eigvalsh(M.toarray())[0]


class TestMargin:
    def test_scalar_alpha_zero(self):
        assert positivity_margin(scalar_operator(), 0.0) == pytest.approx(3.0)

    def test_scalar_root(self):
        assert positivity_margin(scalar_operator(), C2_SCALAR) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_identity(self):
        B = assemble(np.eye(3), np.zeros((3, 3)), np.eye(3))
        assert positivity_margin(B, 0.0) == pytest.approx(1.0)

    def test_form_report_condition(self):
        rep = form_report(scalar_operator(), 0.0)
        assert rep.margin == pytest.approx(3.0)
        assert rep.form_matrix_condition == pytest.approx(1.0)

    def test_form_report_at_zero_reads_the_operators_margin(self, monkeypatch):
        grid = build_grid("logarithmic", 200, 1e-4, 100.0)
        B = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid)
        lam = positivity_margin(B, 0.0)
        stebz = mock.Mock(wraps=blockop.dstebz)
        monkeypatch.setattr(blockop, "dstebz", stebz)
        reports = [form_report(B, 0.0) for _ in range(2)]
        # one dstebz a call, for eigenvalue N of M_0: lambda_max
        assert [c.args[5:7] for c in stebz.call_args_list] == [(B.N, B.N)] * 2
        hi = blockop._extreme_eigenvalues(B._M0, low=False)[0]
        for rep in reports:
            assert rep.margin == lam and rep.form_matrix_condition == hi / lam

    def test_form_report_at_zero_on_a_fresh_dense_m0_takes_one_eigvalsh(self, monkeypatch):
        # lambda_min and lambda_max of a dense M_0 come from one eigvalsh,
        # which also sets B._margin0; a later call computes lambda_max alone
        B = random_block_operator(np.random.default_rng(6), 12, margin_target=0.4)
        lam = positivity_margin(dataclasses.replace(B), 0.0)
        formed, reads = spy_on_m0(monkeypatch)
        first, second = form_report(B, 0.0), form_report(B, 0.0)
        assert len(formed) == 1
        assert B._margin0 == lam and positivity_margin(B, 0.0) == lam
        assert first == second and first.margin == lam
        assert reads == ["eigvalsh"] * 2

    @pytest.mark.parametrize("route", ["tridiagonal", "dense"])
    def test_lambda_min_of_m0_is_computed_once_per_operator(self, route, monkeypatch):
        # an indefinite M_0, so find_c2 gates on lambda_min(M_0) and solve names it
        if route == "tridiagonal":
            grid = build_grid("logarithmic", 200, 1e-4, 100.0)
            B, routine = build_channel(DiracChannelSpec(1, 0.5, 0.5), grid), "dstebz"
        else:
            B = random_block_operator(np.random.default_rng(4), 10, margin_target=-0.5)
            routine = "eigvalsh"
        formed, reads = spy_on_m0(monkeypatch)
        lam = positivity_margin(B, 0.0)
        assert positivity_margin(B, 0.0) == lam < 0.0
        with pytest.raises(HypothesisFailed, match=f"margin at alpha=0 is {lam:.6g} "):
            find_c2(B)
        for _ in range(2):
            with pytest.raises(HypothesisFailed, match=re.escape(f"(lambda_min = {lam:.6g})")):
                solve(B, RhsPair(np.ones(B.N), np.ones(B.N)))
        assert len(formed) == 1 and formed[0] is B._M0 is blockop._schur_form(B, 0.0)
        assert reads == [routine]
        assert lam == blockop._extreme_eigenvalues(B._M0, high=False)[0]


class TestFindC2:
    def test_scalar(self):
        assert find_c2(scalar_operator(), tol=1e-8) == pytest.approx(
            C2_SCALAR, abs=1e-8
        )

    def test_linear_margin(self):
        B = assemble(5.0 * np.eye(3), np.zeros((3, 3)), np.eye(3))
        assert find_c2(B, tol=1e-8) == pytest.approx(5.0, abs=1e-7)

    def test_negative_base_margin(self):
        B = assemble(-5.0 * np.eye(3), np.zeros((3, 3)), np.eye(3))
        with pytest.raises(HypothesisFailed):
            find_c2(B)

    def test_exactly_singular_base_form_gives_zero_on_both_routes(self):
        # margin(0) = 0.0 exactly, so c2 = 0.0, as find_c2 documents: on the
        # layout route M_0 = -1 + 1 * 1 * 1, and on the dense route M_0 = P,
        # where eigenvalue N+1 of H (P's 0) is settled by margin(0)
        layout = assemble([[-1.0]], [[1.0]], [[1.0]])
        dense = assemble(np.diag([0.0, 1.0]), np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]])
        assert layout._layout is not None and dense._layout is None
        for B in (layout, dense):
            assert find_c2(B) == 0.0
            assert positivity_margin(B, 0.0) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            find_c2(scalar_operator(), tol)

    @pytest.mark.parametrize("tol", [1e-300, 5e-324, 1e-17])
    def test_tolerance_below_float_spacing_terminates(self, tol):
        with time_limit(10.0):
            c2 = find_c2(scalar_operator(), tol)
        assert c2 == pytest.approx(C2_SCALAR, abs=1e-14)

    @settings(deadline=2000, max_examples=40)
    @given(tol=st.floats(min_value=1e-15, max_value=4.0))
    def test_margin_sequence_is_plain_bisection(self, tol):
        # the 1x1 operator is tridiagonal, the route that still bisects;
        # reference: the bisection loop without the stagnation exit
        B = scalar_operator()
        assert B.H_tridiagonal is not None
        want = [0.0]
        lo, hi = 0.0, positivity_margin(B, 0.0)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            want.append(mid)
            if positivity_margin(B, mid) >= 0.0:
                lo = mid
            else:
                hi = mid

        seen = []
        original = blockop.positivity_margin

        def recording(B, alpha):
            seen.append(alpha)
            return original(B, alpha)

        with mock.patch.object(blockop, "positivity_margin", recording):
            c2 = find_c2(B, tol)
        assert seen == want
        assert c2 == 0.5 * (lo + hi)

    @settings(deadline=2000, max_examples=40)
    @given(tol=st.floats(min_value=1e-15, max_value=4.0))
    def test_dense_sequence_is_one_selection_and_two_factorizations(self, tol):
        # S is not diagonal, so the dense route: one reduction of H, one
        # dstebz selection on it, and _factor exactly at c2 - t and c2 + t
        # where those lie in the bracket; M_0 is never factored.  margin(0)
        # is computed only where c2 - t <= 0 settles that side
        B = wide_operator()
        assert B.H_tridiagonal is None
        m0 = positivity_margin(B, 0.0)  # S's own Cholesky factor, made once, is not counted
        margins, reduced, selected, factored, floors = [], [], [], [], []
        margin, dsytrd, dstebz, factor, rounding_floors = (
            blockop.positivity_margin,
            blockop.dsytrd,
            blockop.dstebz,
            blockop._factor,
            blockop._rounding_floors,
        )

        def recording_margin(B, alpha):
            margins.append(alpha)
            return margin(B, alpha)

        def recording_dsytrd(*args, **kwargs):
            reduced.append(args)
            return dsytrd(*args, **kwargs)

        def recording_dstebz(*args):
            selected.append(dstebz(*args))
            return selected[-1]

        def recording_factor(M):
            factored.append(np.array(M))
            return factor(M)

        def recording_floors(*args):
            floors.append(rounding_floors(*args))
            return floors[-1]

        with mock.patch.multiple(
            blockop,
            positivity_margin=recording_margin,
            dsytrd=recording_dsytrd,
            dstebz=recording_dstebz,
            _factor=recording_factor,
            _rounding_floors=recording_floors,
        ):
            c2 = find_c2(B, tol)
        assert len(reduced) == len(selected) == len(floors) == 1
        assert 0.0 < c2 < m0
        assert c2 == selected[0][1][0]
        selection, forms = floors[0]
        # H is not stiff, so no bisection at any tol
        assert selection <= forms
        # the floor read at c2 - tol/2 bounds the one at c2 itself
        assert selection == blockop._rounding_floors(B, c2)[0]
        assert forms >= blockop._rounding_floors(B, c2)[1] * (1.0 - 1e-12)
        t = max(tol / 2, selection + forms)
        settled = c2 - t <= 0.0
        assert margins == ([0.0] if settled else [])
        top = m0 if settled else math.inf
        want = [a for a in (c2 - t, c2 + t) if 0.0 < a <= top]
        assert len(factored) == len(want)
        assert not any(np.array_equal(M, B._M0) for M in factored)
        for M, alpha in zip(factored, want):
            assert np.array_equal(M, blockop._schur_form(B, alpha))

    def test_slope_bound(self, rng):
        # margin(beta) <= margin(alpha) - (beta - alpha) for alpha < beta
        for seed in range(3):
            B = random_block_operator(np.random.default_rng(seed), 20)
            for alpha, beta in ((0.0, 0.5), (0.1, 1.4), (0.7, 0.9), (1.0, 3.0)):
                ma = positivity_margin(B, alpha)
                mb = positivity_margin(B, beta)
                assert mb <= ma - (beta - alpha) + 1e-10


def wide_operator():
    """A 2x2 operator with a non-diagonal S: the dense route."""
    return assemble(np.diag([3.0, 1.0]), [[1.0, 0.5], [0.0, 2.0]], [[2.0, 0.5], [0.5, 1.0]])


def dense_family():
    """40 dense operators, n in [5, 100], margin(0) in [0.05, 2]."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(5, 101))
        yield random_block_operator(rng, n, margin_target=rng.uniform(0.05, 2.0))


def ill_conditioned_family(smin):
    """Three dense operators with lambda_min(S) = smin, one with a diagonal S."""
    rng = np.random.default_rng(3)
    for n, diagonal in ((6, False), (12, False), (8, True)):
        s = rng.uniform(0.5, 3.0, n)
        s[n // 2] = smin
        if diagonal:
            S = np.diag(s)
        else:
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            S = symmetrize((Q * s) @ Q.T)
        T = rng.standard_normal((n, n)) / np.sqrt(n)
        P = symmetrize(rng.standard_normal((n, n)))
        shift = rng.uniform(0.1, 2.0) - positivity_margin(assemble(P, T, S), 0.0)
        B = assemble(P + shift * np.eye(n), T, S)
        assert B.H_tridiagonal is None and B.c1 < 10.0 * smin
        yield B


class TestDenseC2:
    """Dense find_c2: eigenvalue N+1 of H by one selection, certified by
    two Cholesky factorizations of the shifted forms."""

    def test_family_matches_the_inertia_oracle(self):
        for B in dense_family():
            assert B.H_tridiagonal is None
            c2 = find_c2(B)
            assert abs(c2 - inertia_c2_oracle(B)) <= 1e-12 * (1.0 + c2)

    @pytest.mark.parametrize("smin", [1e-8, 1e-12])
    def test_ill_conditioned_s_matches_a_40_digit_eigenvalue(self, smin):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        for B in ill_conditioned_family(smin):
            n, diagonal = B.N, B.S_diagonal
            H = mp.matrix(full_matrix(B).toarray().tolist())
            ref = float(sorted(mp.eigsy(H, eigvals_only=True))[n])
            c2 = find_c2(B, tol=1e-8)
            assert abs(c2 - ref) <= 1e-12, (n, diagonal)
            # the floor comes from the shifted forms, not from M_0 (about 1/smin)
            assert sum(blockop._rounding_floors(B, c2)) < 1e-10

    @pytest.mark.parametrize("tol", [1e-300, 5e-324, 1e-17])
    def test_tolerance_below_rounding_terminates(self, tol):
        B = wide_operator()
        with time_limit(10.0):
            c2 = find_c2(B, tol)
        assert abs(c2 - inertia_c2_oracle(B)) <= 1e-14

    @pytest.mark.parametrize("tol", [1e-8, 5e-324])
    def test_stiff_h_is_certified_to_its_rounding(self, tol):
        # S up to 1e12, so ||H|| is about 1e12 while M_alpha stays moderate:
        # the selection is only as accurate as ulp ||H||, which t covers
        rng = np.random.default_rng(1)
        for n in (3, 6, 10):
            s = np.logspace(0.0, 12.0, n)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            S = symmetrize((Q * s) @ Q.T)
            T = np.sqrt(s.max()) * rng.standard_normal((n, n)) * 0.01
            P = symmetrize(rng.standard_normal((n, n)))
            shift = 0.5 - positivity_margin(assemble(P, T, S), 0.0)
            B = assemble(P + shift * np.eye(n), T, S)
            assert np.abs(blockop._dense_H(B)).sum(axis=1).max() > 1e9
            c2 = find_c2(B, tol)
            t = max(tol / 2, sum(blockop._rounding_floors(B, c2)))
            assert positivity_margin(B, c2 - t) >= 0.0 > positivity_margin(B, c2 + t)

    @pytest.mark.parametrize("family", ["dense", "ill-conditioned S"])
    def test_certificate_holds_for_forms_made_in_the_test(self, family):
        # no _factor and no _schur_form: M_{c2 -+ t} from the blocks by a
        # general solve with S + alpha I, and the sign of its lowest eigenvalue
        tol = 1e-8
        for B in dense_family() if family == "dense" else ill_conditioned_family(1e-12):
            c2 = find_c2(B, tol)
            t = max(tol / 2, sum(blockop._rounding_floors(B, c2)))
            P, T, S = (m.toarray() for m in (B.P, B.T, B.S))
            for alpha, sign in ((c2 - t, 1.0), (c2 + t, -1.0)):
                shift = alpha * np.eye(B.N)
                M = P - shift + T.T @ np.linalg.solve(S + shift, T)
                assert sign * np.linalg.eigvalsh(symmetrize(M))[0] > 0.0, (B.N, alpha)

    def test_success_takes_no_eigendecomposition(self, monkeypatch):
        # a fresh operator: one reduction of H and one selection, then
        # S + alpha I and M_alpha on each side; neither S nor M_0 is factored
        for B in itertools.islice(dense_family(), 10):
            S = B.S.toarray()
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(np.linalg, name, mock.Mock(side_effect=AssertionError(name)))
            calls, factored = [], []
            dpotrf, dsytrd, dstebz = blockop.dpotrf, blockop.dsytrd, blockop.dstebz

            def recording_dpotrf(a, **kwargs):
                calls.append("dpotrf")
                factored.append(np.array(a))  # before dpotrf overwrites it
                return dpotrf(a, **kwargs)

            def recording(name, fn):
                return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

            with mock.patch.multiple(
                blockop,
                dpotrf=recording_dpotrf,
                dsytrd=recording("dsytrd", dsytrd),
                dstebz=recording("dstebz", dstebz),
            ):
                c2 = find_c2(B)
            monkeypatch.undo()
            assert calls == ["dsytrd", "dstebz"] + ["dpotrf"] * 4
            t = 0.5e-8
            want = [S + (c2 - t) * np.eye(B.N), blockop._schur_form(B, c2 - t)]
            want += [S + (c2 + t) * np.eye(B.N), blockop._schur_form(B, c2 + t)]
            assert all(np.array_equal(a, b) for a, b in zip(factored, want)), B.N

    def test_result_stays_in_the_bracket(self):
        # at margin(0) near 1e-15 the selected eigenvalue can round to
        # either side of [0, margin(0)]; the root cannot lie outside it
        for seed in range(40):
            B = random_block_operator(np.random.default_rng(seed), 8, margin_target=1e-17)
            m0 = positivity_margin(B, 0.0)
            if m0 >= 0.0:
                assert 0.0 <= find_c2(B) <= m0, seed

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_contradicted_certificate_raises(self, side, monkeypatch):
        B = random_block_operator(np.random.default_rng(2), 12, margin_target=0.8)
        B._elimination  # M_0's factor, made once and kept for solve, is not counted
        factor, calls = blockop._factor, []

        def flipped(M):
            calls.append(M)
            solve, reason = factor(M)
            if len(calls) - 1 != side:
                return solve, reason
            return (None, "flipped") if solve is not None else (lambda x: x, None)

        monkeypatch.setattr(blockop, "_factor", flipped)
        with pytest.raises(CheckFailed, match="certificate"):
            find_c2(B)
        assert len(calls) == side + 1

    def test_negative_base_margin_is_refused_after_one_reduction(self, monkeypatch):
        # eigenvalue N+1 of H is negative, so c2 - t <= 0 reads margin(0)
        B = random_block_operator(np.random.default_rng(4), 10, margin_target=-0.5)
        lam = positivity_margin(dataclasses.replace(B), 0.0)
        dsytrd = mock.Mock(wraps=blockop.dsytrd)
        dstebz = mock.Mock(wraps=blockop.dstebz)
        monkeypatch.setattr(blockop, "dsytrd", dsytrd)
        monkeypatch.setattr(blockop, "dstebz", dstebz)
        message = (
            f"margin at alpha=0 is {lam:.6g} < 0; the base form q_0 is not positive semidefinite"
        )
        with pytest.raises(HypothesisFailed, match=re.escape(message)):
            find_c2(B)
        assert dsytrd.call_count == dstebz.call_count == 1

    def test_success_forms_no_m0(self, monkeypatch):
        # a factor of M_{c2-t} at c2 - t > 0 already shows margin(0) > 0
        family = list(itertools.islice(dense_family(), 10))
        formed, reads = spy_on_m0(monkeypatch)
        for B in family:
            assert find_c2(B) > 0.0
            assert "_M0" not in vars(B) and "_margin0" not in vars(B)
        assert formed == [] and reads == []

    @pytest.mark.parametrize(
        "margin, error, match",
        [
            (-0.5, HypothesisFailed, "margin at alpha=0 is"),
            (0.5, CheckFailed, "M_alpha is not positive definite"),
        ],
        ids=["indefinite", "definite"],
    )
    def test_failed_lower_certificate_reads_margin0(self, margin, error, match, monkeypatch):
        # a selection moved up to 1.0 puts c2 - t > 0 above the root, so
        # M_{c2-t} has no factor: a negative margin(0) is the hypothesis
        # failing, a positive one the certificate
        B = random_block_operator(np.random.default_rng(4), 10, margin_target=margin)
        dstebz = blockop.dstebz

        def moved(*args):
            m, w, *rest = dstebz(*args)
            return (m, np.concatenate([[1.0], w[1:]]), *rest)

        monkeypatch.setattr(blockop, "dstebz", moved)
        with pytest.raises(error, match=match):
            find_c2(B)
        assert "_margin0" in vars(B)

    def test_indefinite_base_form_takes_one_eigvalsh(self, monkeypatch):
        # M_0 has no factor; the refusal's lambda_min is computed once, by
        # the margin gate, not also when the elimination record is made
        B = random_block_operator(np.random.default_rng(4), 10, margin_target=-0.5)
        eigvalsh = mock.Mock(side_effect=np.linalg.eigvalsh)
        monkeypatch.setattr(blockop.np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(HypothesisFailed):
            find_c2(B)
        assert eigvalsh.call_count == 1
        factor, info = B._elimination
        assert factor is None and info > 0
        # solve words its refusal from the same lambda_min, computed once per operator
        for _ in range(2):
            with pytest.raises(HypothesisFailed, match="lambda_min"):
                solve(B, RhsPair(np.ones(B.N), np.ones(B.N)))
        assert eigvalsh.call_count == 1

    def test_no_size_cap(self):
        # 2N = 1040 is above DENSE_ORACLE_CAP, which find_c2 does not apply
        B = random_block_operator(np.random.default_rng(5), 520, margin_target=0.7)
        assert 2 * B.N > blockop.DENSE_ORACLE_CAP
        tol = 1e-8
        c2 = find_c2(B, tol)
        assert positivity_margin(B, c2 - tol) >= 0.0 > positivity_margin(B, c2 + tol)


class TestDenseH:
    """blockop._dense_H is the matrix each dense reader of H formed before."""

    @staticmethod
    def blocks_H(B):
        T = B.T.toarray()
        return np.block([[B.P.toarray(), T.T], [T, -B.S.toarray()]])

    @staticmethod
    def operators():
        n = 7
        off = np.full(n - 1, 0.25)
        sparse = assemble(
            np.eye(n), sp.diags(np.ones(n)), sp.diags([off, np.full(n, 2.0), off], [-1, 0, 1])
        )
        return [wide_operator(), sparse] + [
            random_block_operator(np.random.default_rng(seed), n, margin_target=0.5)
            for seed, n in ((1, 3), (2, 20), (3, 45))
        ]

    def test_selection_and_gap_pairs_read_the_blocks_h(self):
        # whichever reads H first on an operator reduces the blocks' H, once
        dsytrd = blockop.dsytrd
        for B in self.operators():
            want = self.blocks_H(B).tobytes()
            for call in (
                lambda C: find_c2(C),
                lambda C: gap_eigenvalues(C, 0.0, 2, which="above"),
            ):
                reduced = []

                def recording(a, **kwargs):
                    reduced.append(np.array(a).tobytes())  # before dsytrd overwrites it
                    return dsytrd(a, **kwargs)

                C = dataclasses.replace(B)
                with mock.patch.object(blockop, "dsytrd", recording):
                    call(C)
                assert reduced == [want]

    def test_oracle_reads_the_full_matrix(self, monkeypatch):
        for B in self.operators():
            old = full_matrix(B).toarray()
            spy = mock.Mock(wraps=np.linalg.eigvalsh)
            monkeypatch.setattr(np.linalg, "eigvalsh", spy)
            c2 = inertia_c2_oracle(B)
            monkeypatch.undo()
            # equal entries; a structural zero of S is -0.0 here, +0.0 in old
            assert np.array_equal(spy.call_args.args[0], old)
            assert c2 == float(np.linalg.eigvalsh(old)[B.N])


def dsyevx_c2(B):
    """Eigenvalue N+1 of the dense H by one values-only dsyevx, the
    reference B._H_reduced's selection reproduces."""
    w, _, _, _, info = dsyevx(
        blockop._dense_H(B), compute_v=0, range="I", il=B.N + 1, iu=B.N + 1,
        lower=1, abstol=blockop._STEBZ_ABSTOL,
    )
    assert info == 0
    return float(w[0])


def dsyevx_window(B):
    """The dense gap window as one dsyevx call per window: the reference
    for the window on B._H_reduced, in blockop._window's contract."""
    H = blockop._dense_H(B)

    def window(il, iu):
        w, z, m, _, info = dsyevx(
            H, compute_v=1, range="I", il=il, iu=iu, lower=1, abstol=blockop._STEBZ_ABSTOL
        )
        assert info == 0
        return w[:m], lambda chosen: [(float(w[i]), z[:, i]) for i in chosen]

    return window, float(np.max(np.abs(H).sum(axis=1)))


def scaled(B, k):
    return assemble(B.P * k, B.T * k, B.S * k)


class TestReducedH:
    """B._H_reduced: each dense H is reduced once, by dsyevx's own steps."""

    @staticmethod
    def operators():
        yield from dense_family()
        yield wide_operator()  # N = 2
        # at 2N = 700 dormqr blocks by the workspace it is handed, so
        # only dsyevx's own 7 * 2N words give its vectors
        yield random_block_operator(np.random.default_rng(8), 350, margin_target=0.8)
        B = random_block_operator(np.random.default_rng(6), 12, margin_target=0.9)
        yield scaled(B, 1e80)
        yield scaled(B, 1e-150)

    def test_bitwise_dsyevx(self):
        scales = []
        for B in self.operators():
            assert B.H_tridiagonal is None
            m0 = positivity_margin(B, 0.0)
            assert find_c2(B) == min(max(dsyevx_c2(B), 0.0), m0)
            for which in ("above", "nearest"):
                got = gap_eigenvalues(B, 0.0, 2, which=which)
                with mock.patch.object(solver, "_window", dsyevx_window):
                    want = gap_eigenvalues(B, 0.0, 2, which=which)
                assert len(got) == len(want) == 2
                for (lg, xg), (lw, xw) in zip(got, want):
                    assert lg == lw
                    assert np.array_equal(xg.u, xw.u) and np.array_equal(xg.v, xw.v)
            scales.append(B._H_reduced.scale)
        # the two scaled operators take dsyevx's scaling, the others do not
        assert scales[-2] < 1.0 < scales[-1] and set(scales[:-2]) == {1.0}

    def test_one_reduction_per_dense_operator(self):
        B = random_block_operator(np.random.default_rng(11), 30, margin_target=0.7)
        C = build_channel(
            DiracChannelSpec(-1, 0.5, 0.5), build_grid("logarithmic", 200, 1e-4, 100.0)
        )
        with mock.patch.object(blockop, "dsytrd", wraps=blockop.dsytrd) as spy:
            for op in (B, C):
                find_c2(op)
                embedding_delta(op)
                for _ in range(3):
                    gap_eigenvalues(op, 0.0, 2, which="above")
            assert spy.call_count == 1
            assert "_H_reduced" not in vars(C)
            copy = dataclasses.replace(B)
            assert "_H_reduced" not in vars(copy)
            gap_eigenvalues(copy, 0.0, 2, which="nearest")
            find_c2(copy)
            assert spy.call_count == 2

    @pytest.mark.parametrize("coupling", ["S^1/2 W", "W"])
    def test_stiff_h_reaches_tol_as_the_bisection_did(self, coupling):
        # S spectrum from 1 up to 1e7..1e12, so ||H||_inf is about max(s)
        # while M_alpha stays moderate.  The selection is only as accurate
        # as ulp ||H||; bisecting its certified bracket by factorizations
        # brings the errors above tol down to the count of a plain
        # bisection of the margin (at seed 5: S^1/2 W 12 -> 5, bisection 5;
        # W 17 -> 3, bisection 3)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        rng = np.random.default_rng(5)
        tol = 1e-8
        errors = {"find_c2": 0, "selection": 0, "bisection": 0}
        for _ in range(30):
            n = int(rng.integers(3, 12))
            s = np.logspace(0.0, rng.uniform(7.0, 12.0), n)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            S = symmetrize((Q * s) @ Q.T)
            W = rng.standard_normal((n, n))
            T = (Q * np.sqrt(s)) @ Q.T @ W / np.sqrt(n) if coupling == "S^1/2 W" else W
            P = symmetrize(rng.standard_normal((n, n)))
            shift = rng.uniform(0.2, 2.0) - positivity_margin(assemble(P, T, S), 0.0)
            B = assemble(P + shift * np.eye(n), T, S)
            H = mp.matrix(full_matrix(B).toarray().tolist())
            ref = sorted(mp.eigsy(H, eigvals_only=True))[n]
            m0 = positivity_margin(B, 0.0)
            lo, hi = 0.0, m0
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if positivity_margin(B, mid) >= 0.0 else (lo, mid)
            for key, c2 in (
                ("find_c2", find_c2(B, tol)),
                ("selection", min(max(dsyevx_c2(B), 0.0), m0)),
                ("bisection", 0.5 * (lo + hi)),
            ):
                errors[key] += bool(abs(mp.mpf(c2) - ref) > tol)
        assert errors["find_c2"] <= errors["bisection"]
        assert errors["find_c2"] < errors["selection"]


class TestInertiaOracle:
    def test_scalar(self):
        assert inertia_c2_oracle(scalar_operator()) == pytest.approx(C2_SCALAR)

    def test_decoupled_identity(self):
        B = assemble(np.eye(1), np.zeros((1, 1)), np.eye(1))
        assert inertia_c2_oracle(B) == pytest.approx(1.0)

    def test_matches_bisection(self, rng):
        B = random_block_operator(rng, 50, margin_target=1.3)
        oracle = inertia_c2_oracle(B)
        assert oracle > 0.0
        assert abs(find_c2(B, tol=1e-8) - oracle) <= 1e-8

    def test_dense_cap(self):
        n = 501
        B = assemble(
            np.eye(n), np.zeros((n, n)), np.eye(n), c1_policy=1.0
        )
        with pytest.raises(TooLarge):
            inertia_c2_oracle(B)


class TestEmbedding:
    def test_scalar(self):
        delta, certified = embedding_delta(scalar_operator())
        assert delta == pytest.approx(C2_SCALAR / (1.0 + C2_SCALAR), abs=1e-7)
        assert certified

    def test_no_coupling(self):
        B = assemble(5.0 * np.eye(1), np.zeros((1, 1)), np.eye(1))
        delta, certified = embedding_delta(B)
        assert delta == pytest.approx(5.0 / 6.0, abs=1e-7)
        assert certified

    def test_random_instances_certify(self, rng):
        for _ in range(5):
            B = random_block_operator(rng, 30, margin_target=float(rng.uniform(0.3, 2.0)))
            _, certified = embedding_delta(B)
            assert certified


class TestC2Once:
    """find_c2's c2 is computed once per operator and tol, and kept on the operator."""

    @pytest.fixture
    def computations(self, monkeypatch):
        counter = mock.Mock(wraps=blockop._uncached_c2)
        monkeypatch.setattr(blockop, "_uncached_c2", counter)
        return counter

    @pytest.mark.parametrize("route", ["dense", "channel"])
    def test_one_computation_per_operator_and_tol(self, route, rng, computations):
        spec = DiracChannelSpec(-1, 0.5, 0.5)
        if route == "dense":
            B = random_block_operator(rng, 30, margin_target=0.5)
        else:
            B = build_channel(spec, build_grid("logarithmic", 400, 1e-4, 100.0))
        c2 = find_c2(B)
        delta, certified = embedding_delta(B)
        assert find_c2(B) == c2 and _c2_of(B, spec, 1e-8)[0] == c2
        assert computations.call_count == 1
        assert delta == B.c1 * c2 / (B.c1 + c2) and certified
        # a second tol is a second computation, kept beside the first
        c2_coarse = find_c2(B, 1e-6)
        assert embedding_delta(B, 1e-6)[0] == B.c1 * c2_coarse / (B.c1 + c2_coarse)
        assert computations.call_count == 2 and B._c2 == {1e-8: c2, 1e-6: c2_coarse}
        # a copy starts empty, and computes the same value afresh
        C = dataclasses.replace(B)
        assert "_c2" not in vars(C)
        assert find_c2(C) == c2 and computations.call_count == 3

    def test_a_refusal_is_not_kept(self, computations):
        B = build_channel(DiracChannelSpec(1, 0.5, 0.5), build_grid("logarithmic", 400, 1e-4, 100.0))
        for call in (find_c2, embedding_delta, find_c2):
            with pytest.raises(HypothesisFailed, match="margin at alpha=0"):
                call(B)
        assert computations.call_count == 3 and B._c2 == {}

    def test_a_bad_tol_is_refused_before_the_cache(self, computations):
        B = scalar_operator()
        for call in (find_c2, embedding_delta):
            for tol in (0.0, -1e-8, math.nan, math.inf):
                with pytest.raises(ValueError, match="tol must be finite and positive"):
                    call(B, tol)
        assert computations.call_count == 0 and "_c2" not in vars(B)


class TestResolventDifference:
    def test_scalar_boundary(self):
        B = scalar_operator()
        assert resolvent_difference_check(B, 1.0, 0.5)

    def test_scalar_interior(self):
        assert resolvent_difference_check(scalar_operator(), 1.0, 0.25)

    def test_matrix_boundary(self):
        B = assemble(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2))
        # c1*alpha/(c1+alpha) = 2*2/4 = 1; f(2) = 1/2 - 1/4 - 1/4 = 0
        assert resolvent_difference_check(B, 2.0, 1.0)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            resolvent_difference_check(scalar_operator(), 1.0, 0.6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(NegativeAlpha):
            resolvent_difference_check(scalar_operator(), 0.0, 0.1)

    def test_lambda_min_of_s_is_computed_once_per_operator(self, rng, monkeypatch):
        A = random_block_operator(rng, 40, margin_target=1.0)
        eig = mock.Mock(wraps=np.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eig)
        # assemble certifies c1 by one eigvalsh of S, and keeps its value
        B = assemble(A.P, A.T, A.S)
        assert eig.call_count == 1 and "_s_min" in vars(B)
        # lazy: a cold solve on a copy computes no eigenvalue of S
        solve(dataclasses.replace(B), RhsPair(np.ones(40), np.ones(40)))
        assert eig.call_count == 1
        bound = B.c1 * 1.0 / (B.c1 + 1.0)
        assert all(resolvent_difference_check(B, 1.0, bound) for _ in range(3))
        assert eig.call_count == 1
        # a copy makes its own, once, from its dense S, bitwise the kept value
        C = dataclasses.replace(B)
        assert all(resolvent_difference_check(C, 1.0, bound) for _ in range(3))
        assert eig.call_count == 2 and eig.call_args.args[0] is C._dense.S
        assert C._s_min == B._s_min

    def test_monotone_on_random_spd(self, rng):
        for _ in range(5):
            a = rng.standard_normal((12, 12))
            S = symmetrize(a @ a.T / 12 + 0.3 * np.eye(12))
            B = assemble(np.eye(12), np.zeros((12, 12)), S)
            for alpha in (0.2, 1.0, 4.0):
                bound = B.c1 * alpha / (B.c1 + alpha)
                for frac in (0.25, 0.6, 1.0):
                    assert resolvent_difference_check(B, alpha, frac * bound)


class TestSerialization:
    def test_matrix_roundtrip(self, rng):
        a = rng.standard_normal((4, 7))
        back = matrix_from_text(matrix_to_text(a))
        assert np.array_equal(back, a)

    def test_operator_roundtrip(self, rng):
        B = random_block_operator(rng, 6)
        C = operator_from_text(operator_to_text(B))
        assert isinstance(C, BlockOperator)
        assert np.array_equal(C.P.toarray(), B.P.toarray())
        assert np.array_equal(C.T.toarray(), B.T.toarray())
        assert np.array_equal(C.S.toarray(), B.S.toarray())
        assert np.array_equal(full_matrix(C).toarray(), full_matrix(B).toarray())
        assert C.c1 == B.c1

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_matrix_from_empty_text(self, text):
        with pytest.raises(ValueError, match="empty text"):
            matrix_from_text(text)

    @pytest.mark.parametrize("header", ["2 2 3", "2", "2 x", "2.0 2"])
    def test_matrix_from_text_names_a_bad_header(self, header):
        with pytest.raises(ValueError, match=f"expected a 'rows cols' header, found '{header}'"):
            matrix_from_text(f"{header}\n1 2\n3 4\n")

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e999"])
    def test_matrix_from_text_refuses_non_finite(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_from_text(f"1 2\n1 {entry}\n")

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_matrix_to_text_refuses_non_finite(self, entry):
        # every matrix the writer produces must read back
        with pytest.raises(ValueError, match="non-finite"):
            matrix_to_text(np.array([[1.0, entry]]))
        with pytest.raises(ValueError, match="non-finite"):
            matrix_to_text(sp.csr_matrix(np.array([[0.0, entry]])))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_matrix_to_text_refuses_a_zero_dimension(self, shape):
        # the reader could not parse what the writer wrote for these shapes
        with pytest.raises(ValueError, match=re.escape(f"zero dimension, shape {shape}")):
            matrix_to_text(np.zeros(shape))
        with pytest.raises(ValueError, match="zero dimension"):
            matrix_to_text(sp.csr_matrix(shape))

    def test_matrix_roundtrip_is_bitwise_at_the_edges(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        a = np.array([[-0.0, tiny, -2.5e-310], [np.finfo(float).max, 1.0 / 3.0, 0.0]])
        back = matrix_from_text(matrix_to_text(a))
        assert back.tobytes() == a.tobytes()
        assert np.signbit(back[0, 0])

    def test_blocks_are_read_only(self, rng):
        B = random_block_operator(rng, 5)
        with pytest.raises(ValueError):
            B.P.data[0] = 99.0


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310, 1e300, -1e300, 1.0, 0.1]
ENTRIES = st.one_of(
    st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 2.5e-310, 0.1, 1.0, 1e300]),
    st.floats(min_value=1e-300, max_value=1e300),
)


# Well-scaled entries, for properties that hold only up to rounding in ||H||.
MODERATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1]), st.floats(-10.0, 10.0))
MODERATE_POSITIVE = st.floats(min_value=0.1, max_value=10.0)


@st.composite
def operators(draw, entries=ENTRIES, positive=POSITIVE):
    """Sparse or dense operators with explicit zeros, -0.0, subnormals and +-1e300.

    entries draws the entries of P and T, positive the diagonal of a
    diagonal S; the defaults include the extreme values above.
    """
    n = draw(st.integers(1, 6))
    dense = draw(st.booleans())

    def block(elements, symmetric):
        vals = np.array(draw(st.lists(elements, min_size=n * n, max_size=n * n))).reshape(n, n)
        mask = np.ones((n, n), bool)
        if not dense:
            mask = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
            mask = mask.reshape(n, n)
        if symmetric:
            upper = np.triu(np.ones((n, n), bool))
            vals = np.where(upper, vals, vals.T)
            mask = mask | mask.T
        return sp.csr_matrix((vals[mask], np.nonzero(mask)), shape=(n, n))

    P = block(entries, symmetric=True)
    T = block(entries, symmetric=False)
    if draw(st.booleans()):
        # diagonal S stored with explicit (signed) zeros off the diagonal
        off = block(st.sampled_from([0.0, -0.0]), symmetric=True)
        S = off - sp.diags(off.diagonal()) + sp.diags(draw(st.lists(positive, min_size=n, max_size=n)))
        S = sp.csr_matrix((S.data, S.indices, S.indptr), shape=(n, n))
    else:
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
        a = a.reshape(n, n)
        s = a @ a.T + n * np.eye(n)
        S = np.where(np.triu(np.ones((n, n), bool)), s, s.T)
    B = assemble(P, T, S)
    if draw(st.booleans()):
        B = assemble(P, T, S, c1_policy=max(0.5 * B.c1, 5e-324))
    return B


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def words(dtype: str, values) -> str:
    """A CSR array line of text format 4: base64 of little-endian 8-byte words."""
    return base64.b64encode(np.array(values, dtype=dtype).tobytes()).decode("ascii")


def text_of(P: sp.csr_matrix, T: sp.csr_matrix, S: sp.csr_matrix, c1: float) -> str:
    """Text format 4 of the blocks as given, written without assembling them.

    A full block (nnz = N*N) gets empty indptr and indices lines.
    """
    n = P.shape[0]
    lines = ["blockoperator 4", f"N {n}", f"c1 {c1!r}"]
    for name, m in zip("PTS", (P, T, S)):
        lines.append(f"{name} {m.nnz}")
        if m.nnz == n * n:
            lines += ["", ""]
        else:
            lines += [words("<i8", m.indptr), words("<i8", m.indices)]
        lines.append(words("<f8", m.data))
    return "\n".join(lines) + "\n"


def refusal(call) -> tuple[type, str, str | None]:
    """The type, message and key of the package error call raises."""
    with pytest.raises(SchurDiracError) as info:
        call()
    return type(info.value), str(info.value), getattr(info.value, "key", None)


class TestExactSymmetry:
    @staticmethod
    def by_subtraction(m: sp.csr_matrix) -> bool:
        """The definition: m - m^t stores no nonzero entry."""
        d = (m - m.T).tocsr()
        d.eliminate_zeros()
        return d.nnz == 0

    @settings(deadline=2000, max_examples=300)
    @given(data=st.data())
    def test_equals_the_subtraction(self, data):
        # symmetric values, -0.0 mirrored against 0.0 among them, stored in a
        # mask that may hold explicit zeros on one side only, and at most
        # one stored value moved to the next float
        n = data.draw(st.integers(1, 6))

        def draw_list(elements):
            return np.array(data.draw(st.lists(elements, min_size=n * n, max_size=n * n))).reshape(n, n)

        vals = draw_list(ENTRIES)
        upper = np.triu(np.ones((n, n), bool))
        vals = np.where(upper, vals, vals.T)
        vals = np.where(draw_list(st.booleans()) & (vals == 0.0), -vals, vals)
        mask = draw_list(st.booleans()) | (vals != 0.0)
        if data.draw(st.booleans()):
            mask = mask | mask.T
        m = sp.csr_matrix((vals[mask], np.nonzero(mask)), shape=(n, n))
        m.sum_duplicates()
        if m.nnz and data.draw(st.booleans()):
            k = data.draw(st.integers(0, m.nnz - 1))
            m.data[k] = np.nextafter(m.data[k], math.inf if m.data[k] < 1e308 else 0.0)
        assert blockop._is_symmetric_exact(m) == self.by_subtraction(m)

    @pytest.mark.parametrize(
        "dense, stored, symmetric",
        [
            ([[1.0, 2.0], [2.0, 3.0]], [[1, 1], [1, 1]], True),
            ([[1.0, 2.0], [np.nextafter(2.0, 3.0), 3.0]], [[1, 1], [1, 1]], False),
            ([[0.0, -0.0], [0.0, 1.0]], [[1, 1], [1, 1]], True),
            ([[1e308, -1e308], [1e308, 1.0]], [[1, 1], [1, 1]], False),
            # inf - inf is NaN, which the subtraction keeps as a nonzero
            ([[1.0, math.inf], [math.inf, 1.0]], [[1, 1], [1, 1]], False),
            # a zero stored above the diagonal only: the structures differ
            ([[1.0, 0.0], [0.0, 1.0]], [[1, 1], [0, 1]], True),
            ([[1.0, 0.0], [2.0, 1.0]], [[1, 0], [1, 1]], False),
        ],
    )
    def test_same_and_differing_structures(self, dense, stored, symmetric):
        mask = np.array(stored, bool)
        m = sp.csr_matrix((np.array(dense)[mask], np.nonzero(mask)), shape=(2, 2))
        assert m.nnz == mask.sum()
        assert blockop._is_symmetric_exact(m) is symmetric is self.by_subtraction(m)


class TestFullBlockChecks:
    """_is_symmetric_exact and _within_band on a full block read _full's view, not its CSR."""

    @staticmethod
    def by_offsets(m: sp.csr_matrix, lower: int, upper: int) -> bool:
        """The CSR algorithm: no stored nonzero at an offset j - i outside [lower, upper]."""
        offsets = m.indices - np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return not np.any(m.data[(offsets < lower) | (offsets > upper)])

    BANDS = ((0, 0), (0, 1), (-1, 0), (-1, 1), (1, 2), (-3, 2))

    @settings(deadline=2000, max_examples=300)
    @given(data=st.data())
    def test_agree_with_the_csr_algorithms(self, data):
        # random, symmetric, symmetric but for one entry moved to the next
        # float, or banded with explicit zeros stored outside the band;
        # zeros of either sign are among the entries everywhere
        n = data.draw(st.integers(1, 6))
        a = np.array(data.draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
        kind = data.draw(st.sampled_from(["random", "symmetric", "off by one", "banded"]))
        if kind != "random":
            a = np.where(np.triu(np.ones((n, n), bool)), a, a.T)
        if kind == "off by one" and n > 1:
            off = [(i, j) for i in range(n) for j in range(n) if i != j]
            i, j = data.draw(st.sampled_from(off))
            a[i, j] = np.nextafter(a[i, j], math.inf if a[i, j] < 1e308 else 0.0)
        if kind == "banded":
            lower, upper = data.draw(st.sampled_from(self.BANDS))
            offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
            zero = data.draw(st.sampled_from([0.0, -0.0]))
            a = np.where((offsets >= lower) & (offsets <= upper), a, zero)
        every = (np.tile(np.arange(n), n), np.arange(n + 1) * n)
        m = sp.csr_matrix((a.ravel(), *every), shape=(n, n))
        assert m.nnz == n * n and blockop._full(m) is not None
        assert blockop._is_symmetric_exact(m) == TestExactSymmetry.by_subtraction(m)
        for lower, upper in self.BANDS:
            want = self.by_offsets(m, lower, upper)
            assert blockop._within_band(m, lower, upper) == want, (lower, upper)


class TestTextFormat:
    def test_layout(self):
        text = operator_to_text(assemble([[2.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 0.0]], np.eye(2)))
        lines = text.splitlines()
        i8, f8 = (lambda vals: words("<i8", vals)), (lambda vals: words("<f8", vals))
        assert lines == [
            "blockoperator 4",
            "N 2",
            "c1 1.0",
            "P 2",
            i8([0, 1, 2]),
            i8([0, 1]),
            f8([2.0, -1.0]),
            "T 1",
            i8([0, 1, 1]),
            i8([0]),
            f8([0.5]),
            "S 2",
            i8([0, 1, 2]),
            i8([0, 1]),
            f8([1.0, 1.0]),
        ]
        # byte order pinned: 2.0 = 0x4000000000000000, -1.0 = 0xBFF0000000000000
        assert lines[6] == "AAAAAAAAAEAAAAAAAADwvw=="
        assert base64.b64decode(lines[6]) == bytes(7) + b"\x40" + bytes(6) + b"\xf0\xbf"

    def test_layout_of_a_full_block(self):
        # T stores all four entries, an explicit zero among them, so its
        # structure is implied and only its data is written
        T = sp.csr_matrix(([0.5, 0.0, 1.0, 2.0], ([0, 0, 1, 1], [0, 1, 0, 1])))
        B = assemble(np.eye(2), T, np.eye(2))
        assert B.T.nnz == 4
        lines = operator_to_text(B).splitlines()
        i8, f8 = (lambda vals: words("<i8", vals)), (lambda vals: words("<f8", vals))
        assert lines[7:11] == ["T 4", "", "", f8([0.5, 0.0, 1.0, 2.0])]
        assert lines[3:7] == ["P 2", i8([0, 1, 2]), i8([0, 1]), f8([1.0, 1.0])]
        C = operator_from_text("\n".join(lines))
        assert C.T.indptr.tolist() == [0, 2, 4] and C.T.indices.tolist() == [0, 1, 0, 1]
        assert C.T.indptr.dtype == C.T.indices.dtype == B.T.indices.dtype == np.int32

    def test_channel_text_is_linear_in_n(self):
        spec = DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.5)
        B = build_channel(spec, build_grid("logarithmic", 2000, 1e-4, 100.0))
        text = operator_to_text(B)
        assert len(text) < 60 * 5 * 2000
        C = operator_from_text(text)
        assert C.S_diagonal and C.c1 == B.c1

    @settings(deadline=2000, max_examples=150)
    @given(B=operators())
    def test_roundtrip_is_bitwise(self, B):
        C = operator_from_text(operator_to_text(B))
        assert C.N == B.N
        assert _same_bits(np.float64(C.c1), np.float64(B.c1))
        assert C.S_diagonal == B.S_diagonal
        pairs = [(getattr(B, name), getattr(C, name)) for name in ("P", "T", "S")]
        for a, b in pairs + [(full_matrix(B), full_matrix(C))]:
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert _same_bits(a.data, b.data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ls: ["blockoperator 1"] + ls[1:], "version 4"),
            (lambda ls: ["blockoperator 2"] + ls[1:], "not a blockoperator version 4"),
            (lambda ls: ["blockoperator 3"] + ls[1:], "not a blockoperator version 4 serialization"),
            (lambda ls: ls[:-1], "expected 15 lines"),
            (lambda ls: ls + [""], "expected 15 lines"),
            (lambda ls: ls[:1] + ["N -1"] + ls[2:], "negative"),
            (lambda ls: ls[:1] + ["M 2"] + ls[2:], "'N <value>'"),
            (lambda ls: ls[:3] + ["T 2"] + ls[4:], "'P <value>'"),
            (lambda ls: ls[:3] + ["P 3"] + ls[4:], "nnz = 3"),
            (lambda ls: ls[:4] + [words("<i8", [0, 2, 1])] + ls[5:], "not monotone"),
            (lambda ls: ls[:4] + [words("<i8", [1, 1, 2])] + ls[5:], "not monotone"),
            (lambda ls: ls[:4] + [words("<i8", [0, 1])] + ls[5:], "P indptr: expected 3 entries"),
            # empty index lines on a block that is not full
            (lambda ls: ls[:4] + ["", ""] + ls[6:], "P indptr: expected 3 entries, found 0"),
            (lambda ls: ls[:5] + [""] + ls[6:], "P indices: expected 2 entries, found 0"),
            (lambda ls: ls[:5] + [words("<i8", [0, 2])] + ls[6:], "outside [0, 2)"),
            (lambda ls: ls[:5] + [words("<i8", [-1, 1])] + ls[6:], "outside [0, 2)"),
            (lambda ls: ls[:5] + [words("<i8", [0, 2**63 - 1])] + ls[6:], "outside [0, 2)"),
            (lambda ls: ls[:4] + [words("<i8", [0, 2, 2]), words("<i8", [1, 0])] + ls[6:],
             "not increasing"),
            (lambda ls: ls[:4] + [words("<i8", [0, 2, 2]), words("<i8", [0, 0])] + ls[6:],
             "not increasing"),
            # characters outside the standard base64 alphabet
            (lambda ls: ls[:5] + [ls[5][:4] + "." + ls[5][5:]] + ls[6:], "P indices"),
            (lambda ls: ls[:6] + ["-" + ls[6][1:]] + ls[7:], "P data"),  # URL-safe only
            (lambda ls: ls[:4] + [ls[4][:12] + " " + ls[4][12:]] + ls[5:],
             "P indptr: Only base64 data is allowed"),
            # bad padding, and a byte count that is not a multiple of 8
            (lambda ls: ls[:5] + [ls[5][:-1]] + ls[6:], "P indices"),
            (lambda ls: ls[:6] + [ls[6][:-2]] + ls[7:], "P data: Incorrect padding"),
            (lambda ls: ls[:6] + [base64.b64encode(bytes(12)).decode()] + ls[7:],
             "P data: 12 bytes is not a whole number of 8-byte words"),
            (lambda ls: ls[:6] + [words("<f8", [2.0])] + ls[7:], "P data: expected 2 entries"),
        ],
    )
    def test_rejects_malformed_text(self, edit, message):
        B = assemble([[2.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 0.0]], np.eye(2))
        text = "\n".join(edit(operator_to_text(B).splitlines())) + "\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            operator_from_text(text)

    @pytest.mark.parametrize(
        "index, line, message",
        [
            (1, "N 1.5", "N: expected int, found '1.5'"),
            (1, "N x", "N: expected int, found 'x'"),
            (2, "c1 one", "c1: expected float, found 'one'"),
            (3, "P 2.0", "P nnz: expected int, found '2.0'"),
            (7, "T x", "T nnz: expected int, found 'x'"),
            (11, "S 2e0", "S nnz: expected int, found '2e0'"),
        ],
    )
    def test_names_the_key_whose_value_does_not_parse(self, index, line, message):
        B = assemble([[2.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 0.0]], np.eye(2))
        lines = operator_to_text(B).splitlines()
        lines[index] = line
        with pytest.raises(ValueError, match=re.escape(message)):
            operator_from_text("\n".join(lines))

    def test_indptr_whose_differences_wrap_is_not_monotone(self):
        # (-3*2**61) - 3*2**61 = -3*2**62 wraps to +2**62 in int64, so np.diff
        # of these words is nonnegative
        lines = operator_to_text(assemble(np.eye(3), np.eye(3), np.eye(3))).splitlines()
        lines[4] = words("<i8", [0, 3 * 2**61, -3 * 2**61, 3])
        with pytest.raises(ValueError, match="P indptr is not monotone"):
            operator_from_text("\n".join(lines))

    def test_full_block_with_written_structure_is_refused(self):
        # the implied structure written out is format 3's text of the same
        # operator: refused, so that each operator has exactly one text
        B = assemble(np.eye(2), np.ones((2, 2)), np.eye(2))
        lines = operator_to_text(B).splitlines()
        assert lines[7:10] == ["T 4", "", ""]
        for ptr, idx in (
            (words("<i8", [0, 2, 4]), words("<i8", [0, 1, 0, 1])),
            (words("<i8", [0, 2, 4]), ""),
            ("", words("<i8", [0, 1, 0, 1])),
            (" ", ""),
        ):
            lines[8:10] = [ptr, idx]
            with pytest.raises(ValueError, match=re.escape("T is full (nnz = N*N)")):
                operator_from_text("\n".join(lines))

    def test_huge_full_block_is_refused_before_its_structure_is_built(self):
        # N*N = 1e10 entries declared, one data word given: its column
        # indices alone would take 40 GB
        text = text_of(sp.csr_matrix(np.eye(1)), *[sp.csr_matrix(np.eye(1))] * 2, 1.0)
        lines = text.splitlines()
        lines[1], lines[3] = "N 100000", "P 10000000000"
        assert lines[4:7] == ["", "", words("<f8", [1.0])]
        tracemalloc.start()
        try:
            message = "P data: expected 10000000000 entries, found 1"
            with pytest.raises(ValueError, match=re.escape(message)):
                operator_from_text("\n".join(lines))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_full_block_with_zeros_and_subnormals_is_bitwise(self):
        # every entry stored: explicit +-0.0 and subnormals, in P's mirrored pairs too
        odd = [0.0, -0.0, 5e-324, -2.225073858507201e-308, np.nextafter(0.0, -1.0), 1e300]
        P = np.array([[2.0, -0.0, 5e-324], [-0.0, 0.0, 1e300], [5e-324, 1e300, -1.0]])
        T = np.array(odd + [3.0, 0.0, -0.0]).reshape(3, 3)
        S = np.array([[2.0, 0.0, -0.0], [0.0, 3.0, 5e-324], [-0.0, 5e-324, 4.0]])
        every = np.nonzero(np.ones((3, 3)))
        B = assemble(*(sp.csr_matrix((m.ravel(), every), shape=(3, 3)) for m in (P, T, S)))
        text = operator_to_text(B)
        for k, name in enumerate("PTS"):
            assert getattr(B, name).nnz == 9
            assert text.splitlines()[3 + 4 * k : 6 + 4 * k] == [f"{name} 9", "", ""]
        C = operator_from_text(text)
        assert _same_bits(np.float64(C.c1), np.float64(B.c1))
        for name, m in zip("PTS", (P, T, S)):
            a, b = getattr(B, name), getattr(C, name)
            assert _same_bits(a.indptr, b.indptr)
            assert _same_bits(a.indices, b.indices)
            assert _same_bits(a.data, b.data)
            assert _same_bits(b.data, m.ravel())

    def test_one_by_one(self):
        # N = 1: a stored entry is the full pattern, no entry is not
        B = assemble([[2.0]], sp.csr_matrix((1, 1)), [[3.0]])
        i8, f8 = (lambda vals: words("<i8", vals)), (lambda vals: words("<f8", vals))
        text = operator_to_text(B)
        assert text.splitlines() == [
            "blockoperator 4",
            "N 1",
            "c1 3.0",
            "P 1",
            "",
            "",
            f8([2.0]),
            "T 0",
            i8([0, 0]),
            "",
            "",
            "S 1",
            "",
            "",
            f8([3.0]),
        ]
        C = operator_from_text(text)
        for name in "PTS":
            a, b = getattr(B, name), getattr(C, name)
            assert _same_bits(a.indptr, b.indptr) and _same_bits(a.indices, b.indices)
            assert _same_bits(a.data, b.data)
        assert operator_to_text(C) == text

    @settings(deadline=2000, max_examples=150)
    @given(B=operators())
    def test_text_roundtrip_is_identity(self, B):
        # each operator has one text: reading and writing it back changes no byte
        text = operator_to_text(B)
        assert operator_to_text(operator_from_text(text)) == text

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_workload_family_roundtrip_is_bitwise(self, seed):
        B = random_block_operator(np.random.default_rng(seed), 100, margin_target=0.5)
        T = B.T.copy()
        # a stored -0.0 and subnormals, as stored
        T.data[:4] = [-0.0, 5e-324, -2.225073858507201e-308, np.nextafter(0.0, -1.0)]
        B = assemble(B.P, T, B.S)
        assert _same_bits(B.T.data[:4], T.data[:4])
        C = operator_from_text(operator_to_text(B))
        assert _same_bits(np.float64(C.c1), np.float64(B.c1))
        for name in ("P", "T", "S"):
            a, b = getattr(B, name), getattr(C, name)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert _same_bits(a.data, b.data)

    @pytest.mark.parametrize(
        "P, T, S, c1",
        [
            # P or S not symmetric, in the stored structure or in a value
            ([[1.0, 2.0], [0.0, 1.0]], np.eye(2), np.eye(2), 1.0),
            ([[1.0, 2.0], [3.0, 1.0]], np.eye(2), np.eye(2), 1.0),
            (np.eye(2), np.eye(2), [[2.0, 0.5], [0.25, 2.0]], 1.0),
            (np.eye(2), np.eye(2), [[2.0, 0.5], [0.0, 2.0]], 1.0),
            # a non-finite entry in each block
            ([[math.nan, 0.0], [0.0, 1.0]], np.eye(2), np.eye(2), 1.0),
            (np.eye(2), [[1.0, math.inf], [0.0, 1.0]], np.eye(2), 1.0),
            (np.eye(2), np.eye(2), [[-math.inf, 0.0], [0.0, 1.0]], 1.0),
            # c1 above lambda_min(S), diagonal and not; and no positive S
            (np.eye(2), np.eye(2), np.diag([1.0, 2.0]), 1.5),
            (np.eye(2), np.eye(2), [[2.0, 1.0], [1.0, 2.0]], 1.5),
            (np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]], 0.5),
            (np.eye(2), np.eye(2), np.eye(2), -1.0),
        ],
    )
    def test_reading_refuses_as_assemble_does(self, P, T, S, c1):
        blocks = [sp.csr_matrix(np.array(m, dtype=np.float64)) for m in (P, T, S)]
        want = refusal(lambda: assemble(*blocks, c1_policy=c1))
        assert refusal(lambda: operator_from_text(text_of(*blocks, c1))) == want

    def test_non_finite_data_is_a_validation_error(self):
        B = assemble([[2.0, 0.0], [0.0, -1.0]], [[0.5, 0.0], [0.0, 0.0]], np.eye(2))
        lines = operator_to_text(B).splitlines()
        lines[10] = words("<f8", [np.inf])
        with pytest.raises(ValidationError) as info:
            operator_from_text("\n".join(lines))
        assert info.value.key == "T"

    @settings(deadline=2000, max_examples=300)
    @given(
        B=operators(),
        cut=st.integers(0, 10**6),
        edits=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["insert", "replace", "delete"]),
                st.sampled_from(list("0123456789-+.eE x\n\t") + ["nan", "inf", "1e400"]),
            ),
            max_size=4,
        ),
        truncate=st.booleans(),
    )
    def test_fuzzed_text_raises_only_package_errors(self, B, cut, edits, truncate):
        text = operator_to_text(B)
        if truncate:
            text = text[: cut % (len(text) + 1)]
        for pos, kind, token in edits:
            i = pos % (len(text) + 1)
            if kind == "insert":
                text = text[:i] + token + text[i:]
            elif kind == "replace":
                text = text[:i] + token + text[i + 1 :]
            else:
                text = text[:i] + text[i + 1 :]
        try:
            C = operator_from_text(text)
        except (ValueError, SchurDiracError):
            return
        assert isinstance(C, BlockOperator)


def with_floor(B, floor):
    """B with P shifted so that margin(0) is about floor."""
    shift = positivity_margin(B, 0.0) - floor
    return assemble(B.P - shift * sp.identity(B.N), B.T, B.S)


def assert_round_trip(B, data):
    # apply(B, solve(B, rhs).solution) equals rhs within the reported residual
    assume(positivity_margin(B, 0.0) > 0.0)
    entries = st.lists(MODERATE, min_size=B.N, max_size=B.N)
    F1, F2 = np.array(data.draw(entries)), np.array(data.draw(entries))
    report = solve(B, RhsPair(F1, F2))
    out = apply(B, report.solution)
    residual = dnrm2(np.concatenate([out.u - F1, out.v - F2]))  # as solve scales it
    assert residual <= report.residual_norm
    assert report.residual_norm <= 1e-9 * (1.0 + np.linalg.norm(np.concatenate([F1, F2])))


class TestInertiaProperties:
    """The c2 contract on random operators, independent of how find_c2 searches."""

    @settings(deadline=2000, max_examples=100)
    @given(B=operators(MODERATE, MODERATE_POSITIVE), floor=st.floats(0.0, 5.0))
    def test_find_c2_is_eigenvalue_n_plus_one(self, B, floor):
        # shift P so that margin(0) is about floor >= 0; inertia additivity
        # then makes c2 the (N+1)-th smallest eigenvalue of H
        shift = positivity_margin(B, 0.0) - floor
        B = assemble(B.P - shift * sp.identity(B.N), B.T, B.S)
        assume(positivity_margin(B, 0.0) >= 0.0)
        tol = 1e-8
        assert abs(find_c2(B, tol) - inertia_c2_oracle(B)) <= tol

    @settings(deadline=2000, max_examples=100)
    @given(B=operators(MODERATE, MODERATE_POSITIVE), floor=st.floats(0.1, 5.0), data=st.data())
    def test_solve_then_apply_round_trip(self, B, floor, data):
        assert_round_trip(with_floor(B, floor), data)

    @settings(deadline=2000, max_examples=100)
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        floor=st.floats(0.1, 5.0),
        data=st.data(),
    )
    def test_tridiagonal_solve_then_apply_round_trip(self, n, seed, floor, data):
        # the dpttrf route, from N = 1
        rng = np.random.default_rng(seed)
        T = sp.diags([rng.uniform(-10, 10, n), rng.uniform(-10, 10, n - 1)], [0, 1])
        B = assemble(sp.diags(rng.uniform(-10, 10, n)), T, sp.diags(rng.uniform(0.1, 10, n)))
        B = with_floor(B, floor)
        assert B.H_tridiagonal is not None
        assert_round_trip(B, data)

    @settings(deadline=2000, max_examples=100)
    @given(
        B=operators(MODERATE, MODERATE_POSITIVE),
        a=st.floats(0.0, 10.0),
        h=st.floats(0.0, 10.0),
    )
    def test_margin_slope_bound(self, B, a, h):
        # d/dalpha M_alpha = -I - T^t (S + alpha)^{-2} T <= -I; the slack
        # allows 1e-9 (1 + ||M||_inf) of rounding for each of the two forms
        slack = sum(
            1e-9 * (1.0 + float(abs(schur_form_matrix(B, x)).sum(axis=1).max())) for x in (a, a + h)
        )
        assert positivity_margin(B, a + h) <= positivity_margin(B, a) - h + slack
