"""Checks on the benchmark's own references and tracer.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import sys

import numpy as np
import pytest

import calibrate
import reference
import run
import schurdirac as sd
import schurdirac.blockop as blockop
import schurdirac.dirac as dirac
import workloads
from schurdirac.errors import SchurDiracError
from tracer import ROOT_SPAN, NullTracer, Tracer, per_round


def _channel(kappa, nu, n):
    spec = sd.DiracChannelSpec(kappa=kappa, nu=nu, gamma=0.5)
    return sd.build_channel(spec, sd.build_grid("logarithmic", n, 1e-4, 100.0))


@pytest.mark.parametrize("kappa,nu", [(-1, 0.5), (-1, 0.9), (-2, 0.5), (1, 0.5)])
@pytest.mark.parametrize("n", [40, 300])
def test_channel_reference_matches_inertia_oracle(kappa, nu, n):
    B = _channel(kappa, nu, n)
    ref = reference.channel_gap_reference(B, 2)
    oracle = sd.inertia_c2_oracle(B, dense_cap=2 * n)
    w = np.linalg.eigvalsh(sd.full_matrix(B).toarray())
    assert abs(ref[0] - oracle) <= 1e-11 * (1.0 + abs(oracle))
    assert abs(ref[1] - w[n + 1]) <= 1e-11 * (1.0 + abs(w[n + 1]))


def test_lower_bidiagonal_t_uses_the_other_interleaving():
    rng = np.random.default_rng(5)
    n = 30
    T = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), -1)
    B = sd.assemble(np.diag(rng.uniform(1, 2, n)), T, np.diag(rng.uniform(0.5, 1, n)))
    got = reference.channel_eigenvalues(B, 0, 2 * n)
    want = np.linalg.eigvalsh(sd.full_matrix(B).toarray())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_reference_rejects_other_structure():
    n = 6
    T = np.ones((n, n))
    B = sd.assemble(np.eye(n), T, np.eye(n))
    with pytest.raises(ValueError, match="bidiagonal"):
        reference.channel_tridiagonal(B)


def test_digits_floor():
    assert reference.digits([1e-9, 1e-12]) == pytest.approx(9.0)
    assert reference.digits([0.0]) == pytest.approx(16.0)


def _traced_pass(tracer):
    spec = sd.DiracChannelSpec(kappa=-1, nu=0.5, gamma=0.5)
    grid = sd.build_grid("logarithmic", 200, 1e-4, 100.0)
    with tracer.span(ROOT_SPAN):
        sd.find_c2(sd.build_channel(spec, grid), 1e-6)
        sd.channel_spectrum(spec, grid, 1)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (sd.find_c2, blockop.find_c2, dirac.find_c2, dirac.gap_eigenvalues)
    tracer = Tracer()
    tracer.install()
    try:
        assert dirac.find_c2 is blockop.find_c2 is sd.find_c2
        assert dirac.find_c2 is not originals[0]
        _traced_pass(tracer)
        _traced_pass(tracer)
    finally:
        tracer.uninstall()
    assert (sd.find_c2, blockop.find_c2, dirac.find_c2, dirac.gap_eigenvalues) == originals

    first, second = per_round(tracer.spans)
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    margin_calls = first["counts"]["find_c2_margin_calls"]
    assert margin_calls == first["calls"]["blockop.positivity_margin"] > 10
    assert first["counts"]["spectrum_gap_calls"] == 1
    assert all(v >= -1e-6 for v in first["self_s"].values())


def _refuse():
    raise SchurDiracError("refused")


def test_package_error_is_failed_but_not_wrong():
    tally = workloads.Tally()
    tally.start_pass()
    assert tally.op("c2", _refuse, lambda out: None, NullTracer()) is None
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert tally.samples("c2") == []


def test_check_that_raises_is_failed_and_wrong():
    tally = workloads.Tally()
    tally.start_pass()
    assert tally.op("c2", lambda: 1.0, lambda out: {}["residual_norm"], NullTracer()) is None
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_kind_without_a_success_is_reported_missing():
    tally = workloads.Tally()
    tally.start_pass()
    tally.op("c2", _refuse, lambda out: None, NullTracer())
    tally.op("spectrum", lambda: 1.0, lambda e: tally.compare("eig", e, 1.0), NullTracer())
    tally.op("solve_cold", lambda: 1e-12, lambda r: tally.errors["solve"].append(r), NullTracer())
    values, _, missing = run._end_to_end(workloads.WORKLOADS["dense"], tally, 0.5)
    assert sorted(missing) == ["c2_digits", "c2_s"]
    assert values["c2_s"] == values["c2_digits"] == 0.0
    assert values["spectrum_s"] > 0.0
    assert values["ok_frac"] == pytest.approx(2 / 3)


@pytest.mark.parametrize(
    "message,error",
    [("internal error: AssertionError()", RuntimeError), ("error: bad config", workloads.Refused)],
)
def test_cli_crash_is_not_a_refusal(monkeypatch, message, error):
    def fake_main(argv):
        print(message, file=sys.stderr)
        return 1

    monkeypatch.setattr(workloads.sd_cli, "main", fake_main)
    with pytest.raises(error):
        workloads._run_command("c2", "cfg", "out")


def test_counts_that_do_not_repeat_are_reported():
    tally = workloads.Tally()
    for size in (10, 10, 12):
        tally.start_pass()
        tally.count("operator_to_text.bytes", size)
    assert run._unsteady_counts({"untraced": tally}, []) == [
        "untraced passes disagree on byte counts"
    ]
    spans = [(ROOT_SPAN, 0.0, 1.0, -1), ("bench.c2", 0.1, 0.2, 0), (ROOT_SPAN, 1.0, 2.0, -1)]
    tally.pass_counts = tally.pass_counts[:2]
    assert run._unsteady_counts({"untraced": tally}, per_round(spans)) == [
        "traced passes disagree on calls"
    ]


class _FixedSpeeds:
    """Stands in for calibrate.Calibrator with one known speed per pass."""

    def __init__(self, speeds):
        self._speeds = speeds
        self.passes = 0

    def start_pass(self):
        self.passes += 1

    def tick(self):
        pass

    def speeds(self):
        return self._speeds[: self.passes]


def test_times_are_divided_by_each_pass_speed():
    tally = workloads.Tally(_FixedSpeeds([2.0, 0.5]))
    for busy in (4.0, 1.0):
        tally.start_pass()
        tally.op("c2", lambda: busy, lambda out: None, NullTracer())
        tally.pass_busy[-1] = busy
        tally.pass_times[-1]["c2"] = [busy, 3 * busy]
    assert tally.per_pass() == [2.0, 2.0]
    assert tally.per_pass("c2") == [4.0, 4.0]
    assert tally.per_pass("spectrum") == []
    assert workloads.Tally().speeds() == []


def test_calibrator_runs_a_block_per_pass_and_when_due(monkeypatch):
    cal = calibrate.Calibrator()
    monkeypatch.setattr(calibrate, "EVERY_S", 1e9)
    cal.start_pass()
    cal.tick()
    assert len(cal.pass_blocks[0]) == 1
    monkeypatch.setattr(calibrate, "EVERY_S", 0.0)
    cal.tick()
    assert len(cal.pass_blocks[0]) == 2
    cal.start_pass()
    speeds = cal.speeds()
    assert len(speeds) == 2 and all(s > 0 for s in speeds)
    assert cal.block_s() > 0
