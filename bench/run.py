"""Benchmark of schurdirac: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload channel|dense|cli --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed; the package then runs
whole passes over them until S seconds have gone by, in one process with
BLAS pinned to one thread (see README.md for why).  Every output is checked
against an independent reference (see workloads.py and reference.py).
A table of medians, tail percentiles and sample counts goes to standard
output, and the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run spends half its time untraced and half with every public function of
the package wrapped (tracer.py), and reports per-layer figures per pass,
the tracing overhead, and writes the spans to .bench_out/.

Every time the passes give is reported in reference seconds: each pass's
times are divided by how slowly a fixed calibration block ran during that
pass (calibrate.py), so that a busy machine does not read as a slow
package.  The table shows the raw wall-clock times next to the machine's
speed.  Set-up times stay in wall-clock seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import ROOT_SPAN, NullTracer, Tracer, per_round

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "c2_s": "s",
    "spectrum_s": "s",
    "solve_cold_s": "s",
    "c2_digits": "digits",
    "eig_digits": "digits",
    "solve_digits": "digits",
    "ok_frac": "ratio",
}

# Span name -> statistics reported per pass for it.
LAYER_SPANS = {
    "blockop.positivity_margin": ("calls", "self_s"),
    "blockop.schur_form_matrix": ("self_s",),
    "blockop.embedding_delta": ("self_s",),
    "blockop.inertia_c2_oracle": ("self_s",),
    "blockop.find_c2": ("calls", "self_s"),
    "blockop.operator_to_text": ("self_s",),
    "blockop.matrix_to_text": ("self_s",),
    "blockop.operator_from_text": ("self_s",),
    "blockop.matrix_from_text": ("self_s",),
    "solver.gap_eigenvalues": ("calls", "self_s"),
    "solver.shifted_operator": ("self_s",),
    "dirac.build_channel": ("calls", "self_s"),
    "dirac.hardy_sweep": ("self_s",),
    "dirac.c2_consistency": ("self_s",),
    "dirac.check_admissibility": ("self_s",),
    "cli.parse_config": ("self_s",),
    "cli.run": ("self_s",),
}
CLI_COMMANDS = ("validate", "solve", "c2", "spectrum", "convergence", "hardy-sweep")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("channel", "dense", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure_setup(workload: str, seed: int, root: str) -> tuple[float, float]:
    """Median import and set-up time over fresh interpreters, in wall-clock seconds."""
    imports, setups = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), OUT_DIR],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        setups.append(probe["setup_s"])
    return statistics.median(imports), statistics.median(setups)


def _run_passes(workload, inputs, tally, seconds: float, rec) -> None:
    """Whole passes until `seconds` have elapsed (at least one)."""
    start = time.perf_counter()
    while True:
        tally.start_pass()
        with rec.span(ROOT_SPAN):
            workload.run_pass(inputs, tally, rec)
        if time.perf_counter() - start >= seconds:
            return


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "-"
    pct = 100 * (n - 10) // n
    return f"p{pct}={sorted(values)[n - 11]:.6g}"


def _sample_line(name: str, v: list[float]) -> str:
    if not v:
        return f"{name:<14} n=0"
    return f"{name:<14} median={statistics.median(v):.6g} {_tail(v)} n={len(v)}"


def _end_to_end(workload, tally, setup_s: float) -> tuple[dict, list[str], list[str]]:
    """End-to-end values, the table printed above them, and missing metrics.

    A metric that no successful operation produced (every operation of its
    kind failed) reads 0 and is returned as missing, which makes the run
    incorrect.
    """
    from reference import digits

    samples = {"pass_s": tally.pass_busy}
    values = {"pass_s": statistics.median(tally.per_pass())}
    missing = []
    for metric, kind in workload.timed.items():
        samples[metric] = tally.samples(kind)
        means = tally.per_pass(kind)
        values[metric] = statistics.median(means) if means else 0.0
        if not means:
            missing.append(metric)
    values["setup_s"] = setup_s
    for metric, kind in (("c2_digits", "c2"), ("eig_digits", "eig"), ("solve_digits", "solve")):
        errors = tally.errors[kind]
        values[metric] = digits(errors) if errors else 0.0
        if not errors:
            missing.append(metric)
    values["ok_frac"] = (tally.attempted - tally.failed) / tally.attempted
    table = [_sample_line(name, v) for name, v in samples.items()]
    table.append(_sample_line("speed", tally.speeds()))
    for extra in ("solve_warm", "embed", "roundtrip"):
        if tally.samples(extra):
            table.append(_sample_line(extra + "_s", tally.samples(extra)))
    if tally.errors["sommerfeld"]:
        table.append(f"{'sommerfeld':<14} digits={digits(tally.errors['sommerfeld']):.4f}")
    return {name: values[name] for name in END_TO_END_UNITS}, table, missing


def _per_layer(plain, traced, rounds, span_count: int, import_s: float) -> dict:
    """Per-pass layer figures (unit, value), averaged over the traced passes.

    Times are in reference seconds, each traced pass divided by its speed.
    """
    from reference import digits

    speeds = traced.speeds()

    def mean(get) -> float:
        return statistics.fmean(get(r) / s for r, s in zip(rounds, speeds))

    first = rounds[0]
    out = {"setup.import_s": ("s", import_s)}
    for name, stats in LAYER_SPANS.items():
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = ("count", first["calls"][name])
            else:
                out[f"{name}.self_s"] = ("s", mean(lambda r: r["self_s"][name]))
    calls = first["calls"]
    counts = first["counts"]
    out["blockop.find_c2.margin_calls"] = (
        "count",
        counts["find_c2_margin_calls"] / calls["blockop.find_c2"] if calls["blockop.find_c2"] else 0,
    )
    out["dirac.channel_spectrum.gap_calls"] = (
        "count",
        counts["spectrum_gap_calls"] / calls["dirac.channel_spectrum"]
        if calls["dirac.channel_spectrum"]
        else 0,
    )
    out["solver.solve.cold_self_s"] = ("s", mean(lambda r: r["times"]["solve_cold_self_s"]))
    out["solver.solve.warm_self_s"] = ("s", mean(lambda r: r["times"]["solve_warm_self_s"]))
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = ("s", mean(lambda r: r["times"][f"cli.{command}.wall_s"]))
        for what in ("build_channel_calls", "margin_calls"):
            out[f"cli.{command}.{what}"] = ("count", counts[f"cli.{command}.{what}"])
    pass_counts = traced.pass_counts[0]
    out["blockop.operator_to_text.bytes"] = ("bytes", pass_counts["operator_to_text.bytes"])
    out["cli.report_bytes"] = ("bytes", pass_counts["cli.report_bytes"])
    for kind in ("solve_warm", "embed", "roundtrip"):
        v = plain.per_pass(kind)
        out[f"op.{kind}_s"] = ("s", statistics.median(v) if v else 0.0)
    som = plain.errors["sommerfeld"]
    out["dirac.sommerfeld_digits"] = ("digits", digits(som) if som else 0.0)
    out["trace.overhead_s"] = (
        "s",
        statistics.median(traced.per_pass()) - statistics.median(plain.per_pass()),
    )
    out["calibrate.block_s"] = ("s", plain.calibrator.block_s())
    out["trace.spans_per_pass"] = ("count", span_count / len(rounds))
    return out


def _unsteady_counts(tallies: dict, rounds: list[dict]) -> list[str]:
    """Exact counts that did not repeat from pass to pass.

    Byte counts are compared over each tally's passes, call counts and the
    counts derived from spans over the traced passes.  Any disagreement
    makes the run incorrect.
    """
    problems = [
        f"{phase} passes disagree on byte counts"
        for phase, tally in tallies.items()
        if any(c != tally.pass_counts[0] for c in tally.pass_counts[1:])
    ]
    problems += [
        f"traced passes disagree on {key}"
        for key in ("calls", "counts")
        if any(r[key] != rounds[0][key] for r in rounds[1:])
    ]
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schurdirac", "__init__.py")):
        print("bench: no src/schurdirac here; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    sys.path.insert(0, src)

    import_s, setup_s = _measure_setup(args.workload, args.seed, root)

    # numpy is imported only now, after the thread count is in the environment.
    import schurdirac
    import workloads
    from calibrate import Calibrator

    if not os.path.abspath(schurdirac.__file__).startswith(src + os.sep):
        print(f"bench: imported {schurdirac.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, OUT_DIR)
    plain = workloads.Tally(Calibrator())
    traced = workloads.Tally(Calibrator())
    tracer = Tracer()
    try:
        plain_seconds = args.seconds / 2 if args.trace else args.seconds
        _run_passes(workload, inputs, plain, plain_seconds, NullTracer())
        if args.trace:
            tracer.install()
            try:
                _run_passes(workload, inputs, traced, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write_jsonl(
                os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            )
    finally:
        inputs.close()

    notes = plain.notes + traced.notes
    rounds = per_round(tracer.spans)
    unsteady = _unsteady_counts({"untraced": plain, "traced": traced}, rounds)
    if args.trace:
        layer = _per_layer(plain, traced, rounds, len(tracer.spans), import_s)
        missing = []
        metrics = {name: {"value": value, "unit": unit} for name, (unit, value) in layer.items()}
        for name, (unit, value) in layer.items():
            print(f"{name:<40} {value:.6g} {unit}")
    else:
        values, table, missing = _end_to_end(workload, plain, setup_s)
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
        }
        print(f"workload={args.workload} seed={args.seed} passes={len(plain.pass_busy)}")
        print("\n".join(table))
        print("(table: wall-clock seconds; speed: calibration block time / reference)")
        print(f"{'setup_s':<14} median of {SETUP_PROBES} probes={setup_s:.6g}")
    for message in unsteady:
        notes[f"{message}; they must repeat exactly"] += 1
    for metric in missing:
        notes[f"{metric}: no operation succeeded, so it reads 0"] += 1
    for message, times in sorted(notes.items()):
        print(f"bench: {times} x {message}", file=sys.stderr)
    wrong = plain.wrong + traced.wrong
    result = {
        "correct": wrong == 0 and not unsteady and not missing,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
