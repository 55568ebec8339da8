import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

import schurdirac
import schurdirac.blockop as blockop
import schurdirac.dirac as dirac
from conftest import exact_eigenvalue
from schurdirac import (
    CSV_COLUMNS,
    BadRange,
    CheckFailed,
    DiracChannelSpec,
    HypothesisFailed,
    InvalidQuantumNumbers,
    NoConvergence,
    RadialGrid,
    ValidationError,
    assemble,
    build_channel,
    build_grid,
    c2_consistency,
    channel_spectrum,
    check_admissibility,
    embedding_delta,
    find_c2,
    full_matrix,
    gap_eigenvalues,
    hardy_sweep,
    inertia_c2_oracle,
    positivity_margin,
    sommerfeld_energy,
)

GROUND = DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.5)


def channel_by_diags_sums(spec, grid, potential=None):
    """build_channel's operator assembled from scipy.sparse.diags sums, a reference."""
    r = grid.nodes
    with np.errstate(all="ignore"):
        v = dirac._sample_potential(spec, grid, potential)
        h = grid.forward_spacings()
        D = sp.diags([-1.0 / h, 1.0 / np.sqrt(h[:-1] * h[1:])], [0, 1], shape=(grid.N, grid.N))
        T = (D + sp.diags(spec.kappa / r)).tocsr()
        P, S = sp.diags(v + 2.0 - spec.gamma), sp.diags(spec.gamma - v)
    c1_policy = spec.gamma if potential is None else "compute"
    return assemble(P, T, S, c1_policy=c1_policy)


def assert_bitwise_same_operator(B, C):
    for name in ("P", "T", "S"):
        m, ref = getattr(B, name), getattr(C, name)
        for array in ("indptr", "indices", "data"):
            got, want = getattr(m, array), getattr(ref, array)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, array)
    assert B.c1 == C.c1
    assert schurdirac.operator_to_text(B) == schurdirac.operator_to_text(C)


class TestBuildGrid:
    def test_uniform_five_nodes(self):
        g = build_grid("uniform", 5, 1.0, 5.0)
        assert g.nodes.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_logarithmic_three_nodes(self):
        g = build_grid("logarithmic", 3, 1.0, 100.0)
        assert g.nodes == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            build_grid("uniform", 16, 2.0, 1.0)
        with pytest.raises(BadRange):
            build_grid("uniform", 1, 1.0, 2.0)
        with pytest.raises(BadRange):
            build_grid("quadratic", 16, 1.0, 2.0)
        with pytest.raises(BadRange):
            build_grid("logarithmic", 16, 0.0, 2.0)
        with pytest.raises(BadRange):
            build_grid("logarithmic", 16, -1.0, 2.0)

    def test_uniform_spacings(self):
        g = build_grid("uniform", 5, 1.0, 5.0)
        assert g.forward_spacings() == pytest.approx([1.0] * 5)

    def test_logarithmic_ghost_keeps_ratio(self):
        g = build_grid("logarithmic", 4, 1.0, 8.0)
        h = g.forward_spacings()
        # constant-ratio grid: spacings are geometric, ghost included
        ratios = h[1:] / h[:-1]
        assert ratios == pytest.approx([2.0, 2.0, 2.0], rel=1e-12)

    def test_nodes_read_only(self):
        g = build_grid("uniform", 5, 1.0, 5.0)
        with pytest.raises(ValueError):
            g.nodes[0] = 0.0

    def test_grid_validates_consistency(self):
        with pytest.raises(BadRange):
            RadialGrid("uniform", 3, 1.0, 3.0, np.array([1.0, 2.5, 2.0]))
        with pytest.raises(BadRange):
            RadialGrid("uniform", 3, 1.0, 3.0, np.array([1.0, 2.0, 4.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_grid_refuses_non_finite_nodes(self, bad):
        # increasing, with endpoints equal to r_min and r_max, but not finite
        with pytest.raises(BadRange, match="finite"):
            RadialGrid("uniform", 3, 1.0, bad, [1.0, 2.0, bad])
        with pytest.raises(BadRange, match="finite"):
            RadialGrid("uniform", 3, 1.0, 3.0, [1.0, bad, 3.0])

    @pytest.mark.parametrize("scheme", ["uniform", "logarithmic"])
    @pytest.mark.parametrize("r_min, r_max", [(1e-4, math.inf), (1e-4, math.nan), (math.nan, 100.0)])
    def test_non_finite_ends_are_refused_before_numpy_sees_them(self, scheme, r_min, r_max):
        # an infinite end made numpy warn (invalid value in multiply), which the
        # suite turns into an error in place of BadRange; NaN passes the comparisons
        with pytest.raises(BadRange, match="must be finite"):
            build_grid(scheme, 16, r_min, r_max)

    def test_grid_refuses_a_float_size(self):
        # build_grid's integer check, applied to a grid built directly
        with pytest.raises(BadRange, match="must be an integer"):
            RadialGrid("uniform", 3.0, 1.0, 3.0, [1.0, 2.0, 3.0])


class TestChannelSpec:
    def test_valid(self):
        assert GROUND.kappa == -1
        assert GROUND.nu == 0.5

    def test_kappa_zero(self):
        with pytest.raises(InvalidQuantumNumbers):
            DiracChannelSpec(kappa=0, nu=0.5, gamma=0.5)

    def test_kappa_non_integer(self):
        with pytest.raises(InvalidQuantumNumbers):
            DiracChannelSpec(kappa=1.5, nu=0.5, gamma=0.5)

    @pytest.mark.parametrize("kappa", [True, False])
    def test_kappa_bool(self, kappa):
        # a bool is an int to isinstance, but no quantum number
        with pytest.raises(InvalidQuantumNumbers, match="nonzero integer"):
            DiracChannelSpec(kappa=kappa, nu=0.5, gamma=0.5)

    def test_nu_band(self):
        with pytest.raises(HypothesisFailed):
            DiracChannelSpec(kappa=-1, nu=0.0, gamma=0.5)
        with pytest.raises(HypothesisFailed):
            DiracChannelSpec(kappa=-1, nu=1.3, gamma=0.5)
        DiracChannelSpec(kappa=-1, nu=1.2, gamma=0.5)  # band edge constructs

    def test_gamma_positive(self):
        with pytest.raises(HypothesisFailed):
            DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_finite(self, gamma):
        with pytest.raises(HypothesisFailed, match="finite and positive"):
            DiracChannelSpec(kappa=-1, nu=0.5, gamma=gamma)


class TestBuildChannel:
    def test_two_node_uniform_blocks(self):
        g = build_grid("uniform", 2, 1.0, 2.0)
        B = build_channel(GROUND, g)
        assert B.S.diagonal() == pytest.approx([1.0, 0.75])
        assert B.P.diagonal() == pytest.approx([1.0, 1.25])
        assert B.c1 == 0.5

    def test_two_node_uniform_coupling(self):
        g = build_grid("uniform", 2, 1.0, 2.0)
        T = build_channel(GROUND, g).T.toarray()
        # D = [[-1, 1], [0, -1]] plus kappa/r = diag(-1, -0.5)
        assert T == pytest.approx(np.array([[-2.0, 1.0], [0.0, -1.5]]))

    def test_uniform_reduces_to_forward_difference(self):
        g = build_grid("uniform", 6, 1.0, 6.0)
        spec = DiracChannelSpec(kappa=1, nu=0.5, gamma=0.5)
        T = build_channel(spec, g).T.toarray()
        D = T - np.diag(spec.kappa / g.nodes)
        h = 1.0
        expect = (np.diag(-np.ones(6)) + np.diag(np.ones(5), 1)) / h
        assert D == pytest.approx(expect)

    @pytest.mark.parametrize("scheme, r_min", [("uniform", 0.05), ("logarithmic", 1e-6)])
    @pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
    @pytest.mark.parametrize("nu", [0.3, 1.0, 1.2])
    @pytest.mark.parametrize("potential", [None, "callable", "array"])
    def test_blocks_are_bitwise_those_of_diags_sums(self, scheme, r_min, kappa, nu, potential):
        grid = build_grid(scheme, 60, r_min, 30.0)
        spec = DiracChannelSpec(kappa=kappa, nu=nu, gamma=0.5)
        if potential == "callable":
            potential = lambda r: -nu * np.exp(-r) / r
        elif potential == "array":
            # V = gamma - 2 at node 7 makes P's entry there an exact zero
            potential = -nu / grid.nodes
            potential[7] = spec.gamma - 2.0
        B = build_channel(spec, grid, potential)
        assert_bitwise_same_operator(B, channel_by_diags_sums(spec, grid, potential))
        assert B.P.nnz == (59 if isinstance(potential, np.ndarray) else 60)

    def test_blocks_go_to_the_validator_without_a_copy(self, monkeypatch):
        # _banded_csr writes canonical float64 CSR, so the operator holds
        # the written blocks themselves, frozen, and no _as_csr copy is made
        monkeypatch.setattr(blockop, "_as_csr", mock.Mock(side_effect=AssertionError("_as_csr")))
        written, banded = [], dirac._banded_csr
        monkeypatch.setattr(dirac, "_banded_csr", lambda *args: written.append(banded(*args)) or written[-1])
        B = build_channel(GROUND, build_grid("logarithmic", 40, 1e-2, 10.0))
        assert len(written) == 3 and all(m is w for m, w in zip((B.P, B.T, B.S), written))
        for m in written:
            assert m.has_canonical_format and m.dtype == np.float64
            assert not m.data.flags.writeable
        assert B.c1 == GROUND.gamma

    def test_an_exact_zero_of_t_is_not_stored(self):
        # h = 1 and kappa / r = 1 at r = 1: T[0, 0] = -1 + 1 is exactly 0
        grid = build_grid("uniform", 6, 1.0, 6.0)
        spec = DiracChannelSpec(kappa=1, nu=0.5, gamma=0.5)
        B = build_channel(spec, grid)
        assert B.T.nnz == 10 and B.T.indptr[1] == 1 and B.T.indices[0] == 1
        assert_bitwise_same_operator(B, channel_by_diags_sums(spec, grid))

    @pytest.mark.parametrize("kappa", [-2, -1, 1])
    def test_s_is_recorded_diagonal(self, kappa):
        g = build_grid("logarithmic", 40, 1e-2, 10.0)
        B = build_channel(DiracChannelSpec(kappa=kappa, nu=0.5, gamma=0.5), g)
        assert B.S_diagonal

    def test_s_with_explicit_off_diagonal_zeros_is_diagonal(self):
        g = build_grid("logarithmic", 40, 1e-2, 10.0)
        B = build_channel(GROUND, g)
        i = np.arange(40)
        S = sp.csr_matrix(
            (
                np.concatenate([B.S.diagonal(), np.zeros(39), np.full(39, -0.0)]),
                (np.concatenate([i, i[:-1], i[1:]]), np.concatenate([i, i[1:], i[:-1]])),
            ),
            shape=(40, 40),
        )
        C = assemble(B.P, B.T, S)
        assert C.S.nnz == 40 + 2 * 39
        assert C.S_diagonal
        assert C.c1 == B.S.diagonal().min()
        assert positivity_margin(C, 0.3) == positivity_margin(B, 0.3)

    def test_q_is_exact_transpose(self):
        g = build_grid("logarithmic", 40, 1e-2, 10.0)
        B = build_channel(GROUND, g)
        H = full_matrix(B)
        assert (H[:40, 40:] - B.T.T).nnz == 0
        assert (H - H.T).nnz == 0

    def test_zero_potential_blocks(self):
        g = build_grid("uniform", 4, 1.0, 4.0)
        B = build_channel(GROUND, g, potential=np.zeros(4))
        assert B.P.diagonal() == pytest.approx([1.5] * 4)
        assert B.S.diagonal() == pytest.approx([0.5] * 4)
        assert B.c1 == pytest.approx(0.5)

    def test_callable_potential_matches_builtin(self):
        g = build_grid("logarithmic", 30, 1e-2, 10.0)
        B0 = build_channel(GROUND, g)
        B1 = build_channel(GROUND, g, potential=lambda r: -GROUND.nu / r)
        assert np.array_equal(B0.S.diagonal(), B1.S.diagonal())
        assert np.array_equal(B0.P.diagonal(), B1.P.diagonal())

    def test_sampled_potential_length_mismatch(self):
        g = build_grid("uniform", 4, 1.0, 4.0)
        with pytest.raises(BadRange):
            build_channel(GROUND, g, potential=np.zeros(5))

    @pytest.mark.parametrize("r_min, block", [(1e-200, "T"), (1e-310, "P")])
    def test_a_block_out_of_float_range_is_refused_by_name(self, r_min, block):
        # at 1e-200 h_j h_{j+1} underflows to 0, at 1e-310 nu / r overflows;
        # no RuntimeWarning escapes (the suite raises it as an error)
        g = build_grid("logarithmic", 200, r_min, 100.0)
        with pytest.raises(ValidationError, match=f"^{block}: has a non-finite entry$"):
            build_channel(GROUND, g)


class TestAdmissibility:
    def test_subcritical(self):
        g = build_grid("logarithmic", 50, 1e-3, 10.0)
        rep = check_admissibility(GROUND, g)
        assert rep.coupling_sup == pytest.approx(0.5, rel=1e-12)
        assert rep.coupling_ok
        assert rep.integral_bounded

    def test_integral_limit_value(self):
        # closed form at kappa=-1, nu=gamma=0.5: int_0^1 4r^2/(1+r)^4 dr = 1/6
        g = build_grid("logarithmic", 50, 1e-3, 10.0)
        rep = check_admissibility(GROUND, g)
        assert rep.integral_estimates[-1] == pytest.approx(1.0 / 6.0, abs=1e-6)
        diffs = np.abs(np.diff(rep.integral_estimates))
        assert diffs[-1] < diffs[0]

    @pytest.mark.parametrize("nu", [0.1, 0.9, 1.0])
    def test_closed_form_matches_gauss_legendre(self, nu):
        # composite 40-point Gauss-Legendre on 4 geometric panels per decade,
        # of the integrand as (gamma - V)^{-2} V' squared with weight r^2
        spec = DiracChannelSpec(kappa=-1, nu=nu, gamma=0.5)
        rep = check_admissibility(spec, build_grid("logarithmic", 50, 1e-3, 10.0))
        x, w = np.polynomial.legendre.leggauss(40)
        for a, got in zip(rep.integral_cutoffs, rep.integral_estimates):
            edges = np.geomspace(a, 1.0, 4 * round(-math.log10(a)) + 1)
            lo, hi = edges[:-1, None], edges[1:, None]
            r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            f = (nu / (r**2 * (0.5 + nu / r) ** 2)) ** 2 * r**2
            want = float(np.sum(0.5 * (hi - lo) * w * f))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert rep.integral_bounded is True

    @pytest.mark.parametrize(
        "nu, gamma, bounded",
        [(1e-6, 0.5, True), (2e-6, 0.5, True), (3e-6, 0.5, True), (1e-8, 0.1, False)],
    )
    def test_bounded_flag_compares_with_the_exact_limit(self, nu, gamma, bounded):
        # the integral tends to (nu/3)/(gamma + nu)^3; below the cutoff a = 1e-6
        # lies (nu/3)(a/(gamma a + nu))^3, 75% of it when nu/gamma = 1e-7 < a
        spec = DiracChannelSpec(kappa=-1, nu=nu, gamma=gamma)
        rep = check_admissibility(spec, build_grid("logarithmic", 50, 1e-3, 10.0))
        limit = nu / 3.0 / (gamma + nu) ** 3
        rest = nu / 3.0 * (1e-6 / (gamma * 1e-6 + nu)) ** 3
        assert rep.integral_estimates[-1] == pytest.approx(limit - rest, rel=1e-12)
        assert rep.integral_bounded is bounded

    def test_supercritical_flagged(self):
        spec = DiracChannelSpec(kappa=-1, nu=1.05, gamma=0.5)
        g = build_grid("logarithmic", 50, 1e-3, 10.0)
        rep = check_admissibility(spec, g)
        assert rep.coupling_sup == pytest.approx(1.05, rel=1e-12)
        assert not rep.coupling_ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_raise_the_same_error_at_both_entry_points(self, bad):
        g = build_grid("uniform", 4, 1.0, 4.0)
        for potential in (np.full(4, bad), lambda r: np.where(r > 2.0, bad, -0.1 / r)):
            for entry in (check_admissibility, build_channel):
                with pytest.raises(BadRange, match="non-finite"):
                    entry(GROUND, g, potential=potential)

    def test_a_grid_below_the_float_range_is_refused(self):
        # nu / r overflows at r = 1e-310: a package error, and no RuntimeWarning
        # escapes (the suite raises it as an error); build_channel names its block
        g = build_grid("logarithmic", 200, 1e-310, 100.0)
        with pytest.raises(BadRange, match=r"^r \|V\| overflows on the grid"):
            check_admissibility(GROUND, g)
        with pytest.raises(ValidationError, match="^P: has a non-finite entry$"):
            build_channel(GROUND, g)
        # so is a finite sampled potential whose r V overflows
        with pytest.raises(BadRange, match="overflows"):
            check_admissibility(GROUND, build_grid("uniform", 4, 1.0, 100.0), np.full(4, -1e307))

    def test_sampled_reports_sup_only(self):
        g = build_grid("uniform", 4, 1.0, 4.0)
        rep = check_admissibility(GROUND, g, potential=np.zeros(4))
        assert rep.coupling_sup == 0.0
        assert rep.coupling_ok
        assert rep.integral_bounded is None
        assert rep.integral_cutoffs == ()


class TestSommerfeld:
    def test_ground_state(self):
        assert sommerfeld_energy(1, -1, 0.5) == pytest.approx(
            math.sqrt(0.75), abs=1e-15
        )

    def test_first_excited(self):
        want = 1.0 / math.sqrt(1.0 + 0.25 / (1.0 + math.sqrt(0.75)) ** 2)
        assert sommerfeld_energy(2, -1, 0.5) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.9659258262890683, abs=1e-12)

    def test_kappa_plus_one_degeneracy(self):
        # same n - |kappa| + sqrt(kappa^2 - nu^2) for kappa = +/-1 at n = 2
        assert sommerfeld_energy(2, 1, 0.5) == sommerfeld_energy(2, -1, 0.5)

    def test_zero_coupling(self):
        assert sommerfeld_energy(1, -1, 0.0) == 1.0

    def test_invalid_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            sommerfeld_energy(1, 0, 0.5)
        with pytest.raises(InvalidQuantumNumbers):
            sommerfeld_energy(1, 1, 0.5)  # kappa > 0 needs n >= kappa + 1
        with pytest.raises(InvalidQuantumNumbers):
            sommerfeld_energy(2, 1, 1.0)  # nu must stay below |kappa|
        with pytest.raises(InvalidQuantumNumbers):
            sommerfeld_energy(0, -1, 0.5)
        with pytest.raises(InvalidQuantumNumbers):
            sommerfeld_energy(1.5, -1, 0.5)

    def test_bool_quantum_numbers(self):
        # sommerfeld_energy(True, -1, 0.5) returned 0.866 when a bool passed as n
        with pytest.raises(InvalidQuantumNumbers, match="must be integers"):
            sommerfeld_energy(True, -1, 0.5)
        with pytest.raises(InvalidQuantumNumbers, match="must be integers"):
            sommerfeld_energy(2, True, 0.5)


class TestChannelSpectrum:
    def test_ground_and_excited(self):
        g = build_grid("logarithmic", 1500, 1e-4, 100.0)
        e1, e2 = channel_spectrum(GROUND, g, k=2)
        assert abs(e1 - sommerfeld_energy(1, -1, 0.5)) <= 2e-3
        assert abs(e2 - sommerfeld_energy(2, -1, 0.5)) <= 1e-3

    def test_truncation_error_decays_with_domain(self):
        # near-zero coupling: the lowest state is the box mode at
        # E ~ 1 + pi^2/(2 r_max^2), so growing the domain must shrink |E - 1|
        spec = DiracChannelSpec(kappa=-1, nu=1e-6, gamma=0.5)
        errs = []
        for r_max in (100.0, 200.0, 400.0):
            g = build_grid("logarithmic", 1200, 1e-3, r_max)
            (e1,) = channel_spectrum(spec, g, k=1)
            errs.append(abs(e1 - 1.0))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_energy_monotone_in_coupling(self):
        g = build_grid("logarithmic", 800, 1e-4, 60.0)
        energies = []
        for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
            spec = DiracChannelSpec(kappa=-1, nu=nu, gamma=0.5)
            energies.append(channel_spectrum(spec, g, k=1)[0])
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_k_validation(self):
        g = build_grid("logarithmic", 100, 1e-2, 10.0)
        with pytest.raises(ValueError):
            channel_spectrum(GROUND, g, k=0)
        with pytest.raises(ValueError, match="integer"):
            channel_spectrum(GROUND, g, k=1.5)
        # k above 2N asks for more eigenvalues than exist: refused, not a ValueError
        with pytest.raises(NoConvergence, match="at most 2 eigenvalues lie above"):
            channel_spectrum(GROUND, build_grid("logarithmic", 2, 1e-2, 10.0), k=5)

    def test_k_bool(self):
        g = build_grid("logarithmic", 100, 1e-2, 10.0)
        with pytest.raises(ValueError, match="k must be an integer >= 1, got True"):
            channel_spectrum(GROUND, g, True)

    @pytest.mark.parametrize(
        "N, nu, spurious, want",
        [
            (300, 0.5, -0.1396, [0.985692, 0.991919]),  # dense branch
            (1000, 0.1, 0.2500, [0.999923, 1.001999]),  # Sturm branch
        ],
    )
    def test_high_frequency_filter_skips_the_spurious_mode(self, N, nu, spurious, want):
        # on a uniform grid the lowest eigenvalue above 0 of a kappa=+2
        # channel is a grid-scale artifact below the ground state n = 3
        spec = DiracChannelSpec(kappa=2, nu=nu, gamma=0.5)
        g = build_grid("uniform", N, 1e-3, 100.0)
        [(lam, sv)] = gap_eigenvalues(build_channel(spec, g), 0.0, 1, 1e-8, which="above")
        assert lam + spec.gamma - 1.0 == pytest.approx(spurious, abs=1e-4)
        assert dirac._highfreq_fraction(sv.u, sv.v) > 0.5
        energies = channel_spectrum(spec, g, k=2)
        assert energies == pytest.approx(want, abs=1e-6)
        assert energies[0] == pytest.approx(sommerfeld_energy(3, 2, nu), abs=1e-3)


class TestHardySweep:
    def test_margins_decrease_with_coupling(self):
        g = build_grid("logarithmic", 600, 1e-4, 60.0)
        rep = hardy_sweep(-1, [0.3, 0.5, 0.7, 0.9], 0.5, [g])
        margins = [c.margin for c in rep.cells]
        assert all(m is not None for m in margins)
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert rep.margins_for(0.5)[0] >= 0.0
        assert rep.nu_star is None

    def test_supercritical_margin_goes_negative(self):
        g = build_grid("logarithmic", 1000, 1e-4, 100.0)
        rep = hardy_sweep(-1, [0.9, 1.1], 0.5, [g])
        m09, m11 = (rep.margins_for(nu)[0] for nu in (0.9, 1.1))
        assert m09 >= 0.0
        assert m11 < 0.0
        assert rep.nu_star == 1.1

    def test_cell_error_capture(self):
        g = build_grid("logarithmic", 50, 1e-3, 10.0)
        rep = hardy_sweep(-1, [0.5, 1.25], 0.5, [g])
        good, bad = rep.cells
        assert good.error is None and good.margin is not None
        assert bad.error is not None and bad.margin is None
        assert "1.25" in bad.error

    def test_cells_are_nu_major(self):
        g1 = build_grid("logarithmic", 40, 1e-3, 10.0)
        g2 = build_grid("logarithmic", 80, 1e-3, 10.0)
        rep = hardy_sweep(-1, [0.4, 0.6], 0.5, [g1, g2])
        layout = [(c.nu, c.grid_N) for c in rep.cells]
        assert layout == [(0.4, 40), (0.4, 80), (0.6, 40), (0.6, 80)]
        assert len(rep.margins_for(0.4)) == 2

    def test_nu_star_reads_only_the_last_grid(self):
        # both grids share N and r_min; only the last (logarithmic) one counts
        grids = [build_grid(s, 200, 1e-4, 100.0) for s in ("uniform", "logarithmic")]
        nus = [0.9, 1.0, 1.05, 1.1, 1.2]
        rep = hardy_sweep(-1, nus, 0.5, grids)
        assert rep.nu_star == hardy_sweep(-1, nus, 0.5, grids[-1:]).nu_star == 1.1
        # the uniform grid alone is already negative at 1.05
        assert hardy_sweep(-1, nus, 0.5, grids[:1]).nu_star == 1.05

    def test_empty_arguments(self):
        g = build_grid("uniform", 4, 1.0, 4.0)
        with pytest.raises(ValueError):
            hardy_sweep(-1, [], 0.5, [g])
        with pytest.raises(ValueError):
            hardy_sweep(-1, [0.5], 0.5, [])


class TestC2Consistency:
    def test_matches_analytic_and_oracle(self):
        g = build_grid("logarithmic", 300, 1e-4, 100.0)
        c2n, c2a, diff = c2_consistency(GROUND, g)
        assert c2a == pytest.approx(1.0 + math.sqrt(0.75) - 0.5, abs=1e-15)
        assert diff == c2n - c2a
        assert abs(diff) < 0.05  # coarse grid, just sanity here

    def test_analytic_limit_small_coupling(self):
        g = build_grid("logarithmic", 100, 1e-3, 50.0)
        _, c2a, _ = c2_consistency(
            DiracChannelSpec(kappa=-1, nu=1e-8, gamma=0.5), g
        )
        assert c2a == pytest.approx(1.5, abs=1e-12)

    def test_analytic_at_the_sharp_coupling_is_one_minus_gamma(self):
        # nu = |kappa| = 1, where sommerfeld_energy refuses: E_1 = 0
        g = build_grid("logarithmic", 300, 1e-4, 100.0)
        c2n, c2a, diff = c2_consistency(DiracChannelSpec(kappa=-1, nu=1.0, gamma=0.5), g)
        assert c2a == 1.0 - 0.5
        assert diff == c2n - c2a

    def test_kappa_minus_two_compares_with_its_lowest_level(self):
        # the lowest kappa = -2 level is n = 2, not the kappa = -1 ground state
        g = build_grid("logarithmic", 400, 1e-4, 100.0)
        c2n, c2a, diff = c2_consistency(DiracChannelSpec(kappa=-2, nu=0.5, gamma=0.5), g)
        assert c2a == pytest.approx(sommerfeld_energy(2, -2, 0.5) + 0.5, abs=1e-15)
        assert c2a == pytest.approx(1.46825, abs=1e-5)
        assert abs(diff) < 1e-3

    def test_oracle_is_allowed_its_own_rounding(self):
        # at r_min = 1e-20, ||H||_inf is about 9e20: a dense eigvalsh of H is
        # off by about 1e-6, far beyond 10 * tol, and the certificate's
        # rounding allowance, 10 sqrt(2N) ulp ||H||_inf, exceeds c2 itself.
        # c2 is within tol/2 of eigenvalue N+1 of the stored H, by the exact
        # reference
        g = build_grid("logarithmic", 200, 1e-20, 100.0)
        B = build_channel(GROUND, g)
        c2n, _, _ = c2_consistency(GROUND, g)
        assert c2n == find_c2(B)
        assert abs(c2n - inertia_c2_oracle(B)) > 10 * 1e-8
        assert abs(c2n - exact_eigenvalue(B.H_tridiagonal, B.N + 1)) <= 0.5e-8

    @pytest.mark.parametrize("r_min", [1e-4, 1e-20, 1e-60, 1e-100])
    def test_c2_matches_the_exact_reference_on_small_r_min_grids(self, r_min):
        # measured within 1.3e-9 to 2.3e-9, where the entries of H reach 1e100
        g = build_grid("logarithmic", 200, r_min, 100.0)
        B = build_channel(GROUND, g)
        c2n, _, _ = c2_consistency(GROUND, g)
        assert abs(c2n - exact_eigenvalue(B.H_tridiagonal, B.N + 1)) <= 0.5e-8

    @pytest.mark.parametrize("N", [60, 200])
    @pytest.mark.parametrize("r_min", [1e-154, 1e-158])
    def test_forms_past_the_scaling_range_keep_c2_and_margin(self, N, r_min):
        # the entries of H reach 1/r_min: unscaled, dstebz's floor on e_i^2 put
        # c2 off by 0.099 at 1e-154, and e_i^2 overflowed (info = 4) at 1e-158
        B = build_channel(GROUND, build_grid("logarithmic", N, r_min, 100.0))
        assert abs(find_c2(B) - exact_eigenvalue(B.H_tridiagonal, B.N + 1)) <= 0.5e-8
        exact = exact_eigenvalue(B._M0, 1)
        assert abs(positivity_margin(B, 0.0) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("N", [200, 600])
    def test_no_dense_eigensolver_checks_a_channel(self, N, monkeypatch):
        # the certificate is two L D L^t factorizations at every N; no dense
        # H and no eigvalsh, below or above the dense oracle's old cap
        for module, name in ((blockop, "_dense_H"), (np.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
        c2n, _, _ = c2_consistency(GROUND, build_grid("logarithmic", N, 1e-4, 100.0))
        assert c2n > 0.0

    @pytest.mark.parametrize("N", [120, 2000])
    @pytest.mark.parametrize("error", [-1e-6, 1e-6])
    def test_a_c2_off_by_1e_6_fails_its_certificate(self, N, error, monkeypatch):
        # the channel bisection's result moved by error: find_c2 certifies it
        # where it is made, so every entry point that reads c2 refuses it
        g = build_grid("logarithmic", N, 1e-4, 100.0)
        B = build_channel(GROUND, g)
        bisect = blockop._bisect
        monkeypatch.setattr(blockop, "_bisect", lambda *args: bisect(*args) + error)
        side = "is not" if error > 0 else "is"
        for call in (lambda: find_c2(B), lambda: embedding_delta(B), lambda: c2_consistency(GROUND, g)):
            with pytest.raises(CheckFailed, match=f"M_alpha {side} positive definite"):
                call()

    def test_supercritical_rejected(self):
        g = build_grid("logarithmic", 100, 1e-3, 50.0)
        with pytest.raises(HypothesisFailed):
            c2_consistency(DiracChannelSpec(kappa=-1, nu=1.05, gamma=0.5), g)

    def test_oracle_disagreement_is_reported_under_optimize(self, tmp_path):
        # python -O strips assert statements; the certificate must survive it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=c2\nkappa=-1\nnu=0.5\ngrid.N=120\ngrid.r_min=1e-3\ngrid.r_max=50\n")
        script = (
            "import sys\n"
            "import schurdirac.blockop as blockop\n"
            "bisect = blockop._bisect\n"
            "blockop._bisect = lambda *args: bisect(*args) + 1e-3\n"
            "from schurdirac.cli import main\n"
            "sys.exit(main(['c2', '--config', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurdirac.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(cfg)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: eigenvalue N+1 of H"), proc.stderr
        assert "fails its certificate: M_alpha is not positive definite" in proc.stderr


class TestDistinguishedExtension:
    """Near the origin the computed state behaves like r^g, g = sqrt(kappa^2 - nu^2):
    the regular branch, the distinguished extension's, never r^{-g}."""

    GRID = build_grid("logarithmic", 8000, 1e-8, 100.0)

    @pytest.mark.parametrize("kappa", [-1, -2])
    @pytest.mark.parametrize("nu", [0.5, 0.9])
    def test_local_exponent_of_the_lowest_gap_state(self, kappa, nu):
        g = self.GRID
        B = build_channel(DiracChannelSpec(kappa, nu, 0.5), g)
        ((_, state),) = gap_eigenvalues(B, 0.0, 1, which="above")  # eigenvalue N+1
        # the samples carry quadrature weights: u_j ~ sqrt(h_j) u(r_j)
        u = np.abs(state.u) / np.sqrt(g.forward_spacings())
        exponent = math.sqrt(kappa * kappa - nu * nu)
        for low in (1e-6, 1e-5, 1e-4, 1e-3):
            # measured within 0.0042 in every decade of this range
            inside = (g.nodes >= low) & (g.nodes <= 10.0 * low)
            slope = np.polyfit(np.log(g.nodes[inside]), np.log(u[inside]), 1)[0]
            assert abs(slope - exponent) <= 0.01, (low, slope)


class TestStructure:
    def test_gamma_shift_covariance(self):
        # H(gamma') = H(gamma) - (gamma' - gamma) I exactly
        g = build_grid("logarithmic", 120, 1e-3, 50.0)
        s0 = DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.5)
        s1 = DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.8)
        w0 = np.linalg.eigvalsh(full_matrix(build_channel(s0, g)).toarray())
        w1 = np.linalg.eigvalsh(full_matrix(build_channel(s1, g)).toarray())
        assert np.allclose(w1, w0 - 0.3, atol=1e-10)

    def test_embedding_certifies_on_channel(self):
        g = build_grid("logarithmic", 500, 1e-4, 100.0)
        delta, certified = embedding_delta(build_channel(GROUND, g))
        assert certified
        assert 0.0 < delta < GROUND.gamma  # delta < c1 always

    def test_csv_columns_frozen(self):
        assert CSV_COLUMNS == (
            "nu",
            "grid_N",
            "grid_scheme",
            "margin",
            "c2_numeric",
            "c2_analytic",
            "e1_numeric",
            "e1_analytic",
        )


def test_import_loads_no_scipy_integrate_or_optimize():
    # a fresh interpreter reports what it loaded; the check runs here, so it
    # holds under python -O as well
    script = (
        "import json, sys\n"
        "import schurdirac, schurdirac.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurdirac.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "scipy.sparse" in loaded
    unwanted = (["scipy", "integrate"], ["scipy", "optimize"])
    assert [m for m in loaded if m.split(".")[:2] in unwanted] == []
