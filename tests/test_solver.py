import dataclasses
import gc
import sys
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

import schurdirac.blockop as blockop
import schurdirac.cli as cli
from schurdirac import (
    CheckFailed,
    DiracChannelSpec,
    DimensionMismatch,
    HypothesisFailed,
    IllConditioned,
    NegativeShiftUnsupported,
    RhsPair,
    StateVector,
    ValidationError,
    apply,
    assemble,
    build_channel,
    build_grid,
    full_matrix,
    gap_eigenvalues,
    positivity_margin,
    shifted_operator,
    solve,
    symmetry_identity_check,
)

from conftest import random_block_operator

C2_SCALAR = (1.0 + np.sqrt(13.0)) / 2.0


def scalar_operator():
    return assemble([[2.0]], [[1.0]], [[1.0]])


class TestSolve:
    def test_scalar(self):
        rep = solve(scalar_operator(), RhsPair([3.0], [0.0]))
        assert rep.solution.u == pytest.approx([1.0])
        assert rep.solution.v == pytest.approx([1.0])
        assert rep.residual_norm <= 1e-14
        assert not rep.ill_conditioned

    def test_zero_rhs(self, rng):
        B = random_block_operator(rng, 12, margin_target=0.8)
        rep = solve(B, RhsPair(np.zeros(12), np.zeros(12)))
        assert np.all(rep.solution.u == 0.0)
        assert np.all(rep.solution.v == 0.0)
        assert rep.residual_norm == 0.0

    def test_matches_dense_solve(self, rng):
        B = random_block_operator(rng, 100, margin_target=0.5)
        F1, F2 = rng.standard_normal(100), rng.standard_normal(100)
        rep = solve(B, RhsPair(F1, F2))
        dense = np.linalg.solve(
            full_matrix(B).toarray(), np.concatenate([F1, F2])
        )
        got = np.concatenate([rep.solution.u, rep.solution.v])
        assert np.linalg.norm(got - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_round_trip_apply_then_solve(self, rng):
        B = random_block_operator(rng, 60, margin_target=1.0)
        w = StateVector(rng.standard_normal(60), rng.standard_normal(60))
        rhs_img = apply(B, w)
        rep = solve(B, RhsPair(rhs_img.u, rhs_img.v))
        scale = np.linalg.norm(np.concatenate([w.u, w.v]))
        err = np.linalg.norm(
            np.concatenate([rep.solution.u - w.u, rep.solution.v - w.v])
        )
        assert err <= 1e-8 * scale

    def test_round_trip_solve_then_apply(self, rng):
        B = random_block_operator(rng, 60, margin_target=1.0)
        F1, F2 = rng.standard_normal(60), rng.standard_normal(60)
        rep = solve(B, RhsPair(F1, F2))
        out = apply(B, rep.solution)
        norm = np.linalg.norm(np.concatenate([F1, F2]))
        assert rep.residual_norm <= 1e-8 * (1.0 + norm)
        recomputed = np.linalg.norm(
            np.concatenate([out.u - F1, out.v - F2])
        )
        assert recomputed == pytest.approx(rep.residual_norm, rel=1e-12, abs=1e-15)

    def test_residual_norm_is_scaled_past_the_square_overflow(self):
        # the CLI right-hand side times 1e170: residual entries near 1e154
        # and above, whose squares overflow though ||r|| does not
        grid = build_grid("logarithmic", 200, 1e-4, 100.0)
        B = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid)
        r = grid.nodes
        rep = solve(B, RhsPair(1e170 * np.exp(-r), 1e170 * r * np.exp(-r)))
        out = apply(B, rep.solution)
        res = np.concatenate([out.u - 1e170 * np.exp(-r), out.v - 1e170 * r * np.exp(-r)])
        top = np.max(np.abs(res))
        assert top > 1e154
        assert np.isfinite(rep.residual_norm)
        assert rep.residual_norm == pytest.approx(top * np.linalg.norm(res / top), rel=1e-12)

    def test_ill_conditioned_warns_and_flags(self):
        # with T = 0, M_0 = P: condition 1e13 is above the fixed cap 1e12
        B = assemble(np.diag(np.logspace(0.0, -13.0, 10)), np.zeros((10, 10)), np.eye(10))
        with pytest.warns(IllConditioned):
            rep = solve(B, RhsPair(np.ones(10), np.ones(10)))
        assert rep.ill_conditioned
        assert rep.schur_condition_estimate > 1e12
        assert rep.residual_norm <= 1e-12
        # condition 1e11 is below it
        C = assemble(np.diag(np.logspace(0.0, -11.0, 10)), np.zeros((10, 10)), np.eye(10))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditioned)
            assert not solve(C, RhsPair(np.ones(10), np.ones(10))).ill_conditioned

    def test_indefinite_reduced_form_rejected(self):
        B = assemble(-2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3))
        with pytest.raises(HypothesisFailed):
            solve(B, RhsPair(np.ones(3), np.ones(3)))

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(scalar_operator(), RhsPair([1.0, 2.0], [0.0, 0.0]))

    def test_rhs_component_mismatch(self):
        with pytest.raises(DimensionMismatch):
            RhsPair([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["F1", "F2"])
    def test_non_finite_rhs_is_refused_by_name(self, field, bad):
        parts = {"F1": np.zeros(3), "F2": np.zeros(3)}
        parts[field][1] = bad
        with pytest.raises(ValidationError, match="non-finite") as err:
            solve(assemble(np.eye(3), np.zeros((3, 3)), np.eye(3)), RhsPair(**parts))
        assert err.value.key == field

    def test_failed_dense_factorization_is_refused(self):
        # M_0 = P is rank one plus rounding: eigvalsh puts lambda_min at
        # +5.3e-18, but Cholesky meets a non-positive pivot
        P = [
            [0.2500084332558668, -0.6802345741367943, -0.501207589831805],
            [-0.6802345741367943, 1.8508138698565582, 1.3637089236683433],
            [-0.501207589831805, 1.3637089236683433, 1.0048022974005497],
        ]
        B = assemble(P, np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0]) + 0.1)
        assert positivity_margin(B, 0.0) > 0.0
        with pytest.raises(HypothesisFailed, match="Cholesky"):
            solve(B, RhsPair(np.ones(3), np.ones(3)))
        w = StateVector(np.ones(3), np.ones(3))
        assert symmetry_identity_check(B, w, w)[2] <= 1e-12

    def test_refusal_names_lambda_min_on_both_routes(self, rng):
        grid = build_grid("logarithmic", 200, 1e-4, 100.0)
        channel = build_channel(DiracChannelSpec(1, 0.5, 0.5), grid)
        dense = random_block_operator(rng, 12, margin_target=-0.5)
        assert channel.H_tridiagonal is not None and dense.H_tridiagonal is None
        for B in (channel, dense):
            lam = positivity_margin(B, 0.0)
            assert lam < 0.0
            with pytest.raises(HypothesisFailed) as err:
                solve(B, RhsPair(np.ones(B.N), np.ones(B.N)))
            assert str(err.value) == (
                f"reduced matrix M_0 is not positive definite (lambda_min = {lam:.6g}); "
                "the elimination requires a positive base form"
            )

    @pytest.mark.parametrize("S", [np.eye(2), [[2.0, 0.5], [0.5, 2.0]]], ids=["tridiagonal", "dense"])
    def test_singular_to_working_precision_is_flagged_not_refused(self, S):
        # M_0 = P = diag(1, 1e-17) factors, but rcond = 1e-17 is below
        # machine precision: the driver's info = N + 1
        B = assemble(np.diag([1.0, 1e-17]), np.zeros((2, 2)), S)
        with pytest.warns(IllConditioned):
            rep = solve(B, RhsPair(np.ones(2), np.zeros(2)))
        assert rep.ill_conditioned
        assert rep.schur_condition_estimate == pytest.approx(1e17)
        assert rep.solution.u == pytest.approx([1.0, 1e17])
        assert rep.residual_norm <= 1e-15

    @pytest.mark.parametrize("route", ["tridiagonal", "dense"])
    def test_cold_and_warm_solves_are_bitwise_equal(self, rng, route):
        if route == "tridiagonal":
            grid = build_grid("logarithmic", 300, 1e-4, 100.0)
            B = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid)
        else:
            B = random_block_operator(rng, 40, margin_target=0.5)
        rhs = RhsPair(rng.standard_normal(B.N), rng.standard_normal(B.N))
        cold, warm = solve(B, rhs), solve(B, rhs)
        fresh = solve(dataclasses.replace(B), rhs)
        for rep in (warm, fresh):
            assert np.array_equal(rep.solution.u, cold.solution.u)
            assert np.array_equal(rep.solution.v, cold.solution.v)
            assert rep.residual_norm == cold.residual_norm
            assert rep.schur_condition_estimate == cold.schur_condition_estimate

    @pytest.mark.parametrize("S", [np.eye(3), np.eye(3) + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.5], -1)], ids=["tridiagonal", "dense"])
    def test_an_overflowing_solution_is_refused(self, S):
        # M_0 = 1e-200 I is perfectly conditioned, but u = 1e200 / 1e-200
        # overflows; and F1 + T^t S^{-1} F2 overflows before the solve
        # starts.  Both are refused by a package error, without a warning.
        B = assemble(1e-200 * np.eye(3), np.zeros((3, 3)), S)
        C = assemble(np.eye(3), np.eye(3), S)
        for op, rhs in ((B, (1e200, 0.0)), (C, (1.5e308, 1.5e308))):
            with pytest.raises(CheckFailed, match="not finite"):
                solve(op, RhsPair(np.full(3, rhs[0]), np.full(3, rhs[1])))
        assert solve(B, RhsPair(np.full(3, 1e-200), np.zeros(3))).solution.u == pytest.approx(np.ones(3))

    def test_concurrent_solves_share_cache(self, rng):
        B = random_block_operator(rng, 40, margin_target=1.0)
        rhs = RhsPair(rng.standard_normal(40), rng.standard_normal(40))
        reports = [None] * 8
        errors = []
        start = threading.Barrier(8)

        def work(i):
            try:
                start.wait(timeout=60)
                reports[i] = solve(B, rhs)
            except Exception as exc:  # noqa: BLE001 - collect for the assert
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        ref = solve(dataclasses.replace(B), rhs).solution
        for rep in reports:
            assert np.array_equal(rep.solution.u, ref.u)
            assert np.array_equal(rep.solution.v, ref.v)


def spy_on_lapack(monkeypatch):
    """Record every factorization and expert-driver call, the latter with its
    fact argument, and refuse any eigenvalue."""
    facts = []
    for name in ("dpttrf", "dpotrf", "dptsvx", "dposvx"):
        real = getattr(blockop, name)

        def driver(*args, real=real, name=name, **kw):
            facts.append((name, kw.get("fact", "N") if name.endswith("svx") else None))
            return real(*args, **kw)

        monkeypatch.setattr(blockop, name, driver)
    for module, name in ((blockop, "dstebz"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
    return facts


class TestEliminationRecord:
    def test_one_record_serves_solve_check_and_cli(self, monkeypatch):
        grid = build_grid("logarithmic", 40, 1e-4, 100.0)
        B = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid)
        forms = mock.Mock(wraps=blockop.BlockOperator._M0.func)
        monkeypatch.setattr(blockop.BlockOperator._M0, "func", forms)
        rhs = RhsPair(np.ones(40), np.zeros(40))
        with monkeypatch.context() as m:
            facts = spy_on_lapack(m)
            first, second = solve(B, rhs), solve(B, rhs)
            w = StateVector(np.ones(40), np.ones(40))
            symmetry_identity_check(B, w, w)
        # one factorization per operator, one driver call per solve, no eigenvalue
        assert facts == [("dpttrf", None), ("dptsvx", "F"), ("dptsvx", "F")]
        assert np.array_equal(first.solution.u, second.solution.u)
        monkeypatch.setattr(cli, "build_channel", lambda spec, grid: B)
        config = cli.parse_config("command=solve\nkappa=-1\nnu=0.5\ngrid.N=40\n")
        rows, _ = cli._execute(config)
        # M_0 is formed once: solve, the check and the CLI margin read B._M0
        assert forms.call_args_list == [mock.call(B)]
        assert rows[0].margin == positivity_margin(B, 0.0) > 0.0

    def test_dense_operators_are_factored_once(self, rng, monkeypatch):
        B = random_block_operator(rng, 30, margin_target=0.5)
        rhs = RhsPair(rng.standard_normal(30), rng.standard_normal(30))
        facts = spy_on_lapack(monkeypatch)
        first, second = solve(B, rhs), solve(B, rhs)
        # S's Cholesky factor, then M_0's
        assert facts == [("dpotrf", None), ("dpotrf", None), ("dposvx", "F"), ("dposvx", "F")]
        assert first.schur_condition_estimate == second.schur_condition_estimate
        assert first.residual_norm == second.residual_norm

    @pytest.mark.parametrize("route", ["tridiagonal", "dense"])
    def test_first_solve_is_one_driver_call_as_if_the_driver_factored(self, rng, route, monkeypatch):
        # _factor's factor of M_0 is bitwise the one the driver makes with
        # fact = "N", so the first solve is bitwise what factoring by the
        # driver gave: one fact = "N" call on the reduced right-hand side
        if route == "tridiagonal":
            grid = build_grid("logarithmic", 300, 1e-4, 100.0)
            B, driver = build_channel(DiracChannelSpec(-1, 0.5, 0.5), grid), "dptsvx"
        else:
            B, driver = random_block_operator(rng, 40, margin_target=0.5), "dposvx"
        rhs = RhsPair(rng.standard_normal(B.N), rng.standard_normal(B.N))
        with monkeypatch.context() as m:
            facts = spy_on_lapack(m)
            rep = solve(B, rhs)
        assert [f for f in facts if f[0] == driver] == [(driver, "F")]
        factor, _ = B._elimination
        b = rhs.F1 + B.Tt @ B._s_solve(rhs.F2)
        if route == "tridiagonal":
            df, ef, x, rcond, _, _, info = lapack.dptsvx(B._M0.d, B._M0.e, b)
            assert np.array_equal(factor[0], df) and np.array_equal(factor[1], ef)
        else:
            _, af, _, _, _, x, rcond, _, _, info = lapack.dposvx(B._M0, b, fact="N", lower=1)
            assert np.array_equal(np.tril(factor), np.tril(af))
        assert info == 0
        assert np.array_equal(rep.solution.u, x[:, 0])
        assert rep.schur_condition_estimate == 1.0 / rcond

    def test_record_does_not_keep_its_operator_alive(self, rng):
        gc.collect()
        B = random_block_operator(rng, 10, margin_target=1.0)
        solve(B, RhsPair(np.ones(10), np.ones(10)))
        assert "_elimination" in vars(B)
        ref = weakref.ref(B)
        del B
        gc.collect()
        assert ref() is None


class TestSymmetryIdentity:
    def test_scalar_unit(self):
        B = scalar_operator()
        w = StateVector([1.0], [1.0])
        lhs, rhs, diff = symmetry_identity_check(B, w, w)
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(3.0)
        assert diff <= 1e-12

    def test_random_pairs(self, rng):
        B = random_block_operator(rng, 30)
        for _ in range(10):
            w = StateVector(rng.standard_normal(30), rng.standard_normal(30))
            wt = StateVector(rng.standard_normal(30), rng.standard_normal(30))
            lhs, rhs, diff = symmetry_identity_check(B, w, wt)
            assert diff <= 1e-10 * (1.0 + abs(lhs))
            # H is symmetric, so the pairing itself must commute
            hwt = apply(B, wt)
            lhs_swapped = float(hwt.u @ w.u + hwt.v @ w.v)
            assert lhs_swapped == pytest.approx(lhs, rel=1e-10, abs=1e-12)

    def test_asymmetric_expansion_raises(self, rng):
        B = random_block_operator(rng, 4, margin_target=1.0)
        skew = sp.csr_matrix(np.triu(np.ones((4, 4)), 1))
        vars(B)["_M0"] = skew
        w = StateVector(np.ones(4), np.zeros(4))
        wt = StateVector(np.arange(4.0), np.zeros(4))
        with pytest.raises(CheckFailed, match="not symmetric under swap"):
            symmetry_identity_check(B, w, wt)

    def test_equal_arguments(self, rng):
        B = random_block_operator(rng, 25)
        w = StateVector(rng.standard_normal(25), rng.standard_normal(25))
        lhs, rhs, diff = symmetry_identity_check(B, w, w)
        assert diff <= 1e-10 * (1.0 + abs(lhs))

    def test_dimension_mismatch(self):
        w1 = StateVector([1.0], [1.0])
        w2 = StateVector([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            symmetry_identity_check(scalar_operator(), w1, w2)

    def test_length_errors_name_the_vector(self):
        B, w = scalar_operator(), StateVector([1.0], [1.0])
        long = StateVector([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="^w has component length 2, "):
            symmetry_identity_check(B, long, w)
        with pytest.raises(DimensionMismatch, match="^wt has component length 2, "):
            symmetry_identity_check(B, w, long)
        with pytest.raises(DimensionMismatch, match="^w has component length 2, "):
            apply(B, long)
        with pytest.raises(DimensionMismatch, match="^rhs has component length 2, "):
            solve(B, RhsPair([1.0, 2.0], [0.0, 0.0]))
        with pytest.raises(DimensionMismatch, match="^u and v lengths differ: 1 vs 2$"):
            StateVector([1.0], [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="^F1 and F2 lengths differ: 2 vs 1$"):
            RhsPair([1.0, 2.0], [1.0])

    def test_rhs_is_stored_read_only_as_the_state(self):
        pairs = [(RhsPair([1, 2], [3, 4]), "F1", "F2"), (StateVector([1, 2], [3, 4]), "u", "v")]
        for pair, *names in pairs:
            for name in names:
                a = getattr(pair, name)
                assert a.dtype == np.float64 and not a.flags.writeable

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_non_finite_state_is_refused_by_name(self, field):
        parts = {"u": [1.0, 0.5], "v": [0.25, -1.0]}
        parts[field][0] = np.nan
        w = StateVector([1.0, 0.5], [0.25, -1.0])
        B = assemble(2.0 * np.eye(2), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValidationError, match="non-finite") as err:
            symmetry_identity_check(B, w, StateVector(**parts))
        assert err.value.key == field

    def test_works_without_positive_margin(self):
        # the identity is algebraic; it must not require M_0 >= 0
        B = assemble(-2.0 * np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert positivity_margin(B, 0.0) < 0.0
        w = StateVector([1.0, 0.5], [0.25, -1.0])
        lhs, rhs, diff = symmetry_identity_check(B, w, w)
        assert diff <= 1e-10 * (1.0 + abs(lhs))


class TestShiftedOperator:
    def test_blocks(self):
        B = scalar_operator()
        C = shifted_operator(B, 0.5)
        assert C.P.toarray().item() == pytest.approx(1.5)
        assert C.S.toarray().item() == pytest.approx(1.5)
        assert C.T.toarray().item() == pytest.approx(1.0)
        assert C.c1 == pytest.approx(1.5)

    def test_zero_shift_is_identity(self, rng):
        B = random_block_operator(rng, 8)
        assert shifted_operator(B, 0.0) is B

    def test_spectrum_shifts_exactly(self, rng):
        B = random_block_operator(rng, 20)
        sigma = 0.75
        w0 = np.linalg.eigvalsh(full_matrix(B).toarray())
        w1 = np.linalg.eigvalsh(full_matrix(shifted_operator(B, sigma)).toarray())
        assert np.allclose(w1, w0 - sigma, atol=1e-10)

    def test_negative_shift_rejected(self):
        with pytest.raises(NegativeShiftUnsupported):
            shifted_operator(scalar_operator(), -0.1)


class TestGapEigenvalues:
    def test_scalar_near_two(self):
        pairs = gap_eigenvalues(scalar_operator(), 2.0, 1)
        assert len(pairs) == 1
        lam, vec = pairs[0]
        assert lam == pytest.approx(C2_SCALAR, abs=1e-10)
        assert isinstance(vec, StateVector)

    def test_decoupled_above(self):
        B = assemble(np.eye(1), np.zeros((1, 1)), np.eye(1))
        pairs = gap_eigenvalues(B, 0.5, 1, which="above")
        assert pairs[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_eigenpair_residuals(self, rng):
        B = random_block_operator(rng, 25, margin_target=0.5)
        H = full_matrix(B)
        for lam, vec in gap_eigenvalues(B, 0.0, 4, which="above"):
            x = np.concatenate([vec.u, vec.v])
            assert np.linalg.norm(H @ x - lam * x) <= 1e-10 * (1.0 + abs(lam))
            assert lam > 0.0

    def test_shift_consistency(self, rng):
        # c2 = 0.803 here: both shifts stay below eigenvalue N+1 of their H
        B = random_block_operator(rng, 15, margin_target=1.2)
        tau, sigma = 0.3, 0.6
        base = gap_eigenvalues(B, sigma, 3)
        moved = gap_eigenvalues(shifted_operator(B, tau), sigma - tau, 3)
        for (lam0, _), (lam1, _) in zip(base, moved):
            assert lam1 == pytest.approx(lam0 - tau, abs=1e-9)

    def test_dense_determinism(self, rng):
        B = random_block_operator(rng, 30, margin_target=0.5)
        a = gap_eigenvalues(B, 0.0, 3, which="above")
        b = gap_eigenvalues(B, 0.0, 3, which="above")
        for (la, va), (lb, vb) in zip(a, b):
            assert la == lb
            assert np.array_equal(va.u, vb.u)
            assert np.array_equal(va.v, vb.v)

    def test_sparse_path_matches_dense_oracle(self, rng):
        # a random operator is not tridiagonal, so its dense H's one
        # reduction serves it, at 2N = 800 as at every size
        B = random_block_operator(rng, 400, margin_target=1.0)
        got = [lam for lam, _ in gap_eigenvalues(B, 0.0, 3, which="above")]
        w = np.linalg.eigvalsh(full_matrix(B).toarray())
        want = w[w > 0.0][:3]
        assert got == pytest.approx(want.tolist(), abs=1e-9)

    def test_sigma_below_valid_region(self):
        B = assemble(-2.0 * np.eye(350), np.zeros((350, 350)), np.eye(350))
        with pytest.raises(HypothesisFailed):
            gap_eigenvalues(B, 0.0, 2, which="above")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gap_eigenvalues(scalar_operator(), 0.0, 1, which="sideways")
        with pytest.raises(ValueError):
            gap_eigenvalues(scalar_operator(), 0.0, 0)
        for k in (1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="integer"):
                gap_eigenvalues(scalar_operator(), 0.0, k)
        assert len(gap_eigenvalues(scalar_operator(), 0.0, np.int64(1))) == 1

    def test_k_bool(self):
        # True is an int to isinstance; k = True once returned one pair
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            gap_eigenvalues(scalar_operator(), 0.0, True)
