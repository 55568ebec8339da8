"""Workload inputs, the passes the benchmark times, and their output checks.

Every workload runs the same kinds of operation on its own inputs, so the
end-to-end metrics (c2_s, spectrum_s, solve_cold_s, pass_s and the digits)
exist on each of them:

channel  Dirac-Coulomb channels on an N = 8000 logarithmic grid, called
         through the library.  Diagonal S, banded O(N) margins, ARPACK
         shift-invert, splu and its factorization cache, and a sparse
         operator written in the dense text format.  No dense Cholesky.
dense    Random structured operators with non-diagonal S, n in [5, 100]:
         one cho_factor plus a dense eigvalsh per alpha, dense gap
         eigenvalues, no factorization reuse.  The bypass side for ARPACK,
         cache and sparse-format changes.
cli      The README command script through schurdirac.cli.main, each
         report written to a file.  Per-call overhead at small N and work
         recomputed across commands.

Each pass rebuilds its operators outside the timed steps, so the first
solve of a pass is always cold.  Package errors are counted as failed
operations and kept out of the timings; an output that misses its check
is counted as failed and wrong.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

import reference
import schurdirac as sd
import schurdirac.cli as sd_cli
from schurdirac.errors import SchurDiracError

GAMMA = 0.5
R_MIN, R_MAX = 1e-4, 100.0
C2_TOL = 1e-8
# Agreement demanded of c2 and the gap eigenvalues (the acceptance-test
# tolerance) and of the relative solve residual.
CHECK_TOL = 1e-7
RESIDUAL_TOL = 1e-8
SPECTRUM_K = 2

CHANNELS = ((-1, 0.5), (-1, 0.9), (-2, 0.5), (1, 0.5))
CHANNEL_N = 8000
ROUNDTRIP_N = 500
WARM_SOLVES = 5

DENSE_COUNT = 50
DENSE_N = (5, 100)
DENSE_MARGIN = (0.15, 2.5)
# The short dense operations are timed as the fastest of three back-to-back
# calls, so that a call stalled by another tenant of the machine does not
# set spectrum_s or solve_cold_s.
DENSE_REPEATS = 3

CLI_NU = 0.5
CLI_KAPPA = -1
CLI_N = 2000
CLI_LADDER = (1000, 2000, 4000)
SWEEP_NUS = (0.9, 0.95, 1.0, 1.02, 1.05, 1.08, 1.1)
SWEEP_R_MINS = (1e-4, 1e-6, 1e-8)


class Refused(Exception):
    """A CLI command ended with a nonzero exit code."""


class Tally:
    """Outcomes of one phase: per-kind timings, errors, failures, pass totals."""

    def __init__(self, calibrator=None):
        self.calibrator = calibrator
        self.errors = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.pass_busy: list[float] = []
        self.pass_times: list[defaultdict] = []
        self.pass_counts: list[Counter] = []
        self.notes = Counter()

    def start_pass(self) -> None:
        if self.calibrator is not None:
            self.calibrator.start_pass()
        self.pass_busy.append(0.0)
        self.pass_times.append(defaultdict(list))
        self.pass_counts.append(Counter())

    def count(self, key: str, amount: int) -> None:
        self.pass_counts[-1][key] += amount

    def _fail(self, kind: str, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.notes[f"{kind}: {message.strip()}"] += 1

    def op(self, kind: str, fn, check, rec, repeats: int = 1):
        """Time fn() `repeats` times back to back, then check its last output.

        The operation's time is its fastest repeat, so a stalled call does
        not set it.  A calibration block that falls due runs first, outside
        the timing.  Returns the output, or None on failure.
        """
        if self.calibrator is not None:
            self.calibrator.tick()
        self.attempted += 1
        elapsed = []
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                try:
                    with rec.span("bench." + kind):
                        out = fn()
                finally:
                    elapsed.append(time.perf_counter() - start)
        except (SchurDiracError, Refused) as exc:
            problem, wrong = f"{type(exc).__name__}: {exc}", False
        except Exception:  # a crash is a wrong answer, not a refusal
            problem, wrong = traceback.format_exc(), True
        else:
            wrong = True
            try:
                problem = check(out)
            except Exception:  # an output the check cannot read is wrong
                problem = "check raised: " + traceback.format_exc()
        self.pass_busy[-1] += sum(elapsed)
        if problem is not None:
            self._fail(kind, problem, wrong)
            return None
        self.pass_times[-1][kind].append(min(elapsed))
        return out

    def samples(self, kind: str) -> list[float]:
        """Every recorded time of `kind`, over all passes."""
        return [t for p in self.pass_times for t in p[kind]]

    def speeds(self) -> list[float]:
        """Per pass: how slowly the machine ran it (calibrate.py); 1 without a calibrator."""
        if self.calibrator is None:
            return [1.0] * len(self.pass_busy)
        return self.calibrator.speeds()

    def per_pass(self, kind: str | None = None) -> list[float]:
        """Per pass, in reference seconds: its busy time (kind None), or the
        mean time of `kind` in each pass that completed one."""
        out = []
        for busy, times, speed in zip(self.pass_busy, self.pass_times, self.speeds()):
            if kind is None:
                out.append(busy / speed)
            elif times[kind]:
                out.append(statistics.fmean(times[kind]) / speed)
        return out

    def compare(self, kind: str, got: float, want: float) -> str | None:
        err = abs(got - want)
        self.errors[kind].append(err)
        if err <= CHECK_TOL:
            return None
        return f"{kind} {got!r} misses reference {want!r} by {err:.3g}"

    def residual(self, B, report, rhs) -> str | None:
        rel = reference.relative_residual(
            B, report.solution.u, report.solution.v, rhs.F1, rhs.F2
        )
        self.errors["solve"].append(rel)
        return None if rel <= RESIDUAL_TOL else f"relative residual {rel:.3g}"


def _first_problem(problems) -> str | None:
    return next((p for p in problems if p is not None), None)


def _roundtrip(B):
    text = sd.operator_to_text(B)
    return text, sd.operator_from_text(text)


def _check_roundtrip(tally: Tally, B, out) -> str | None:
    text, back = out
    tally.count("operator_to_text.bytes", len(text))
    if back.N != B.N or back.c1 != B.c1:
        return "round trip changed N or c1"
    for name in ("P", "T", "S"):
        a = getattr(B, name).toarray()
        b = getattr(back, name).toarray()
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            return f"round trip changed block {name}"
    return None


# --- channel ---------------------------------------------------------------


@dataclass
class Channel:
    spec: sd.DiracChannelSpec
    small: sd.BlockOperator
    rhs: list
    sommerfeld: list


@dataclass
class ChannelInputs:
    grid: sd.RadialGrid
    channels: list

    def close(self) -> None:
        pass


def _sommerfeld_levels(kappa: int, nu: float, k: int) -> list[float]:
    n_min = abs(kappa) if kappa < 0 else kappa + 1
    return [sd.sommerfeld_energy(n_min + i, kappa, nu) for i in range(k)]


def channel_inputs(seed: int, out_dir: str) -> ChannelInputs:
    rng = np.random.default_rng(seed)
    grid = sd.build_grid("logarithmic", CHANNEL_N, R_MIN, R_MAX)
    small_grid = sd.build_grid("logarithmic", ROUNDTRIP_N, R_MIN, R_MAX)
    channels = []
    for kappa, nu in CHANNELS:
        spec = sd.DiracChannelSpec(kappa=kappa, nu=nu, gamma=GAMMA)
        rhs = [
            sd.RhsPair(rng.standard_normal(CHANNEL_N), rng.standard_normal(CHANNEL_N))
            for _ in range(1 + WARM_SOLVES)
        ]
        channels.append(
            Channel(
                spec=spec,
                small=sd.build_channel(spec, small_grid),
                rhs=rhs,
                sommerfeld=_sommerfeld_levels(kappa, nu, SPECTRUM_K),
            )
        )
    return ChannelInputs(grid=grid, channels=channels)


def channel_pass(inp: ChannelInputs, tally: Tally, rec) -> None:
    for ch in inp.channels:
        B = sd.build_channel(ch.spec, inp.grid)
        ref = reference.channel_gap_reference(B, SPECTRUM_K)

        def margin_sign(m):
            if (m >= 0.0) == (ref[0] >= 0.0):
                return None
            return f"margin {m:.6g} disagrees in sign with lambda_N(H) = {ref[0]:.6g}"

        def energies(E):
            tally.errors["sommerfeld"].extend(
                abs(e - s) for e, s in zip(E, ch.sommerfeld)
            )
            return _first_problem(
                [tally.compare("eig", e, lam + GAMMA - 1.0) for e, lam in zip(E, ref)]
            )

        tally.op("margin", lambda: sd.positivity_margin(B, 0.0), margin_sign, rec)
        tally.op(
            "c2",
            lambda: sd.find_c2(B, C2_TOL),
            lambda c2: tally.compare("c2", c2, ref[0]),
            rec,
        )
        tally.op(
            "spectrum",
            lambda: sd.channel_spectrum(ch.spec, inp.grid, SPECTRUM_K),
            energies,
            rec,
        )
        for i, rhs in enumerate(ch.rhs):
            tally.op(
                "solve_cold" if i == 0 else "solve_warm",
                lambda: sd.solve(B, rhs),
                lambda rep: tally.residual(B, rep, rhs),
                rec,
            )
        tally.op(
            "roundtrip",
            lambda: _roundtrip(ch.small),
            lambda out: _check_roundtrip(tally, ch.small, out),
            rec,
        )


# --- dense -----------------------------------------------------------------


@dataclass
class DenseOperator:
    P: np.ndarray
    T: np.ndarray
    S: np.ndarray
    rhs: sd.RhsPair


@dataclass
class DenseInputs:
    operators: list

    def close(self) -> None:
        pass


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw from each of count equal slices of [lo, hi), shuffled.

    Each seed gives different values but the same spread of sizes, so the
    cost of a pass does not depend on which seed was drawn.
    """
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(lo + (hi - lo) * u)


def dense_inputs(seed: int, out_dir: str) -> DenseInputs:
    """Random operators built the way the acceptance tests' family is."""
    rng = np.random.default_rng(seed)
    sizes = _stratified(rng, DENSE_N[0], DENSE_N[1] + 1, DENSE_COUNT).astype(int)
    targets = _stratified(rng, *DENSE_MARGIN, DENSE_COUNT)
    operators = []
    for n, target in zip(sizes.tolist(), targets.tolist()):
        a = rng.standard_normal((n, n))
        s = a @ a.T / n + 0.5 * np.eye(n)
        S = (s + s.T) / 2.0
        T = rng.standard_normal((n, n)) / np.sqrt(n)
        p = rng.standard_normal((n, n))
        P = (p + p.T) / 2.0
        shift = target - sd.positivity_margin(sd.assemble(P, T, S), 0.0)
        P = P + shift * np.eye(n)
        rhs = sd.RhsPair(rng.standard_normal(n), rng.standard_normal(n))
        operators.append(DenseOperator(P=P, T=T, S=S, rhs=rhs))
    return DenseInputs(operators=operators)


def dense_pass(inp: DenseInputs, tally: Tally, rec) -> None:
    for op in inp.operators:
        B = sd.assemble(op.P, op.T, op.S)
        c2_ref = sd.inertia_c2_oracle(B)
        w = reference.dense_eigenvalues(op.P, op.T, op.S)
        gap_ref = w[B.N : B.N + SPECTRUM_K]

        def embedding(out):
            delta, certified = out
            if not certified:
                return f"embedding delta {delta!r} not certified"
            return tally.compare("embed", delta, B.c1 * c2_ref / (B.c1 + c2_ref))

        def gap(pairs):
            return _first_problem(
                [tally.compare("eig", lam, want) for (lam, _), want in zip(pairs, gap_ref)]
            )

        tally.op(
            "c2",
            lambda: sd.find_c2(B, C2_TOL),
            lambda c2: tally.compare("c2", c2, c2_ref),
            rec,
        )
        tally.op("embed", lambda: sd.embedding_delta(B), embedding, rec)
        tally.op(
            "spectrum",
            lambda: sd.gap_eigenvalues(B, 0.0, SPECTRUM_K, which="above"),
            gap,
            rec,
            repeats=DENSE_REPEATS,
        )
        # A copy of B has its own (empty) factorization cache, so every
        # repeat is a cold solve.
        tally.op(
            "solve_cold",
            lambda: sd.solve(replace(B), op.rhs),
            lambda rep: tally.residual(B, rep, op.rhs),
            rec,
            repeats=DENSE_REPEATS,
        )
        tally.op(
            "roundtrip",
            lambda: _roundtrip(B),
            lambda out: _check_roundtrip(tally, B, out),
            rec,
        )


# --- cli -------------------------------------------------------------------

_CHANNEL_CONFIG = f"kappa={CLI_KAPPA}\nnu={CLI_NU}\n"
CLI_SCRIPT = (
    ("validate", _CHANNEL_CONFIG),
    ("solve", _CHANNEL_CONFIG),
    ("c2", _CHANNEL_CONFIG),
    ("spectrum", _CHANNEL_CONFIG),
    (
        "convergence",
        _CHANNEL_CONFIG + "sweep.grid_sizes=" + ",".join(map(str, CLI_LADDER)) + "\n",
    ),
    (
        "hardy-sweep",
        f"kappa={CLI_KAPPA}\n"
        + "sweep.nu_values=" + ",".join(map(str, SWEEP_NUS)) + "\n"
        + "sweep.grid_sizes=" + ",".join(map(str, CLI_LADDER)) + "\n"
        + "sweep.r_mins=" + ",".join(map(str, SWEEP_R_MINS)) + "\n",
    ),
)


@dataclass
class CliInputs:
    workdir: str
    configs: dict
    first_reports: dict = field(default_factory=dict)
    refs: dict | None = None

    def report_path(self, command: str) -> str:
        return os.path.join(self.workdir, f"{command}.csv")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def cli_inputs(seed: int, out_dir: str) -> CliInputs:
    """Config files of the fixed command script; the seed changes nothing."""
    workdir = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
    configs = {}
    for command, body in CLI_SCRIPT:
        path = os.path.join(workdir, f"{command}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)
        configs[command] = path
    return CliInputs(workdir=workdir, configs=configs)


def _cli_references() -> dict:
    """Reference eigenvalues and the solve right-hand side norm per grid size."""
    spec = sd.DiracChannelSpec(kappa=CLI_KAPPA, nu=CLI_NU, gamma=GAMMA)
    refs = {"sommerfeld": _sommerfeld_levels(CLI_KAPPA, CLI_NU, SPECTRUM_K)}
    for n in sorted({CLI_N, *CLI_LADDER}):
        grid = sd.build_grid("logarithmic", n, R_MIN, R_MAX)
        refs[n] = reference.channel_gap_reference(sd.build_channel(spec, grid), SPECTRUM_K)
    r = sd.build_grid("logarithmic", CLI_N, R_MIN, R_MAX).nodes
    f1, f2 = np.exp(-r), r * np.exp(-r)
    refs["rhs_norm"] = float(np.sqrt(f1 @ f1 + f2 @ f2))
    return refs


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """Metadata and rows of a CSV report, empty cells as None."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# meta: "):
            key, _, value = line[len("# meta: "):].partition("=")
            meta[key] = value
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(
                {k: (float(v) if v and k != "grid_scheme" else v or None)
                 for k, v in zip(header, line.split(","))}
            )
    return meta, rows


def _check_cli_report(tally: Tally, refs: dict, command: str, meta, rows) -> str | None:
    ref = refs[CLI_N]
    problems = []
    if command == "validate":
        if meta.get("q0_positive") != ("true" if ref[0] >= 0.0 else "false"):
            problems.append(f"q0_positive={meta.get('q0_positive')} against lambda_N(H)")
    elif command == "solve":
        rel = float(meta["residual_norm"]) / refs["rhs_norm"]
        tally.errors["solve"].append(rel)
        if rel > RESIDUAL_TOL:
            problems.append(f"relative residual {rel:.3g}")
    elif command == "c2":
        problems.append(tally.compare("c2", rows[0]["c2_numeric"], ref[0]))
    elif command == "spectrum":
        if len(rows) != SPECTRUM_K:
            return f"{len(rows)} spectrum rows, expected {SPECTRUM_K}"
        for row, lam, som in zip(rows, ref, refs["sommerfeld"]):
            problems.append(tally.compare("eig", row["e1_numeric"], lam + GAMMA - 1.0))
            tally.errors["sommerfeld"].append(abs(row["e1_numeric"] - som))
    elif command == "convergence":
        if [int(r["grid_N"]) for r in rows] != list(CLI_LADDER):
            return "convergence rows do not follow the ladder"
        for row in rows:
            lam = refs[int(row["grid_N"])][0]
            problems.append(tally.compare("c2", row["c2_numeric"], lam))
            problems.append(tally.compare("eig", row["e1_numeric"], lam + GAMMA - 1.0))
            tally.errors["sommerfeld"].append(abs(row["e1_numeric"] - refs["sommerfeld"][0]))
    elif command == "hardy-sweep":
        if len(rows) != len(SWEEP_NUS) * len(CLI_LADDER):
            return f"{len(rows)} sweep cells, expected {len(SWEEP_NUS) * len(CLI_LADDER)}"
        if any(r["margin"] is None for r in rows):
            return "a sweep cell has no margin"
    return _first_problem(problems)


def _run_command(command: str, config: str, out: str) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = sd_cli.main([command, "--config", config, "--out", out])
    message = err.getvalue().strip()
    if code != 0:
        # cli.run reports an unexpected exception as "internal error"; that
        # is a crash, not a refusal.
        if "internal error: " in message:
            raise RuntimeError(f"exit {code}: {message}")
        raise Refused(f"exit {code}: {message}")
    return code


def cli_pass(inp: CliInputs, tally: Tally, rec) -> None:
    if inp.refs is None:
        inp.refs = _cli_references()
    for command, _ in CLI_SCRIPT:
        out = inp.report_path(command)

        def check(_code):
            with open(out, "rb") as handle:
                data = handle.read()
            tally.count("cli.report_bytes", len(data))
            first = inp.first_reports.setdefault(command, data)
            if data != first:
                return "report bytes differ from the first pass"
            meta, rows = parse_report(data.decode("utf-8"))
            return _check_cli_report(tally, inp.refs, command, meta, rows)

        tally.op(
            "cmd." + command,
            lambda: _run_command(command, inp.configs[command], out),
            check,
            rec,
        )


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run_pass: Callable
    # End-to-end timing metric -> the operation kind whose mean per pass it reports.
    timed: dict


LIBRARY_TIMED = {"c2_s": "c2", "spectrum_s": "spectrum", "solve_cold_s": "solve_cold"}

WORKLOADS = {
    "channel": Workload(channel_inputs, channel_pass, LIBRARY_TIMED),
    "dense": Workload(dense_inputs, dense_pass, LIBRARY_TIMED),
    "cli": Workload(
        cli_inputs,
        cli_pass,
        {"c2_s": "cmd.c2", "spectrum_s": "cmd.spectrum", "solve_cold_s": "cmd.solve"},
    ),
}
