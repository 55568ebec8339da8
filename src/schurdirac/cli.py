"""Command-line front end: config parsing, dispatch, and report writing.

Commands map onto the library operations of one radial channel (or a
sweep over several).  Reports are deterministic: fixed column schema,
12-significant-digit decimal formatting, no locale dependence, and an
embedded resolved-config echo that re-parses to an equivalent RunConfig.
Exit codes: 0 success, 2 when a structural hypothesis is violated
(coupling outside the admissible band, base form not positive), 1 for
everything else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .blockop import positivity_margin
from .dirac import (
    CSV_COLUMNS,
    DiracChannelSpec,
    SweepCell,
    _SCHEMES,
    _c2_of,
    _n_min,
    _spectrum_of,
    build_channel,
    build_grid,
    check_admissibility,
    hardy_sweep,
    sommerfeld_energy,
)
from .errors import (
    HypothesisFailed,
    InvalidQuantumNumbers,
    ParseError,
    SchurDiracError,
    ValidationError,
)
from .solver import RhsPair, _elimination, solve

__all__ = ["RunConfig", "parse_config", "run", "main", "COMMANDS"]

COMMANDS = ("validate", "solve", "c2", "spectrum", "hardy-sweep", "convergence")
_FORMATS = ("csv", "json")

_REPORT_HEADER = "# schurdirac report v1"

# Commands that act on a single (kappa, nu, gamma) channel.
_CHANNEL_COMMANDS = ("validate", "solve", "c2", "spectrum", "convergence")
# Commands that need the sweep grid-size ladder.
_LADDER_COMMANDS = ("hardy-sweep", "convergence")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (defaults applied, values validated)."""

    command: str
    kappa: int
    nu: float | None
    gamma: float
    grid_scheme: str
    grid_N: int
    grid_r_min: float
    grid_r_max: float
    sweep_nu_values: tuple[float, ...]
    sweep_grid_sizes: tuple[int, ...]
    sweep_r_mins: tuple[float, ...]
    bisection_tol: float
    eigen_tol: float
    k: int
    output_path: str | None
    output_format: str

    def canonical_text(self) -> str:
        """Config text that re-parses to an equal RunConfig."""
        lines = []
        for key, (field, _, _) in _KEYS.items():
            value = getattr(self, field)
            if value is None or value == ():
                continue
            if isinstance(value, tuple):
                value = ",".join(repr(x) for x in value)
            elif not isinstance(value, str):
                value = repr(value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def _to_str(key: str, value: str, line: int, col: int) -> str:
    return value


def _to_float(key: str, value: str, line: int, col: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"invalid number for {key}: {value!r}", line, col) from None
    if not math.isfinite(x):
        raise ValidationError(key, "must be finite")
    return x


def _to_int(key: str, value: str, line: int, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"invalid integer for {key}: {value!r}", line, col) from None


def _list_of(convert):
    """Converter of a comma-separated, non-empty list of convert's values."""

    def to_list(key: str, value: str, line: int, col: int) -> tuple:
        toks = [t.strip() for t in value.split(",") if t.strip()]
        if not toks:
            raise ValidationError(key, "empty list")
        return tuple(convert(key, t, line, col) for t in toks)

    return to_list


# Each config key once: key -> (RunConfig field, converter, default), in
# the order canonical_text echoes them.
_KEYS = {
    "command": ("command", _to_str, None),
    "kappa": ("kappa", _to_int, None),
    "nu": ("nu", _to_float, None),
    "gamma": ("gamma", _to_float, 0.5),
    "grid.scheme": ("grid_scheme", _to_str, "logarithmic"),
    "grid.N": ("grid_N", _to_int, 2000),
    "grid.r_min": ("grid_r_min", _to_float, 1e-4),
    "grid.r_max": ("grid_r_max", _to_float, 100.0),
    "sweep.nu_values": ("sweep_nu_values", _list_of(_to_float), ()),
    "sweep.grid_sizes": ("sweep_grid_sizes", _list_of(_to_int), ()),
    "sweep.r_mins": ("sweep_r_mins", _list_of(_to_float), ()),
    "bisection_tol": ("bisection_tol", _to_float, 1e-8),
    "eigen_tol": ("eigen_tol", _to_float, 1e-8),
    "k": ("k", _to_int, 2),
    "output.path": ("output_path", _to_str, None),
    "output.format": ("output_format", _to_str, "csv"),
}
_KNOWN_KEYS = tuple(_KEYS)


def parse_config(text: str, command_override: str | None = None) -> RunConfig:
    """Parse flat key=value configuration text into a validated RunConfig.

    Lines hold one `key=value` pair each; `#` starts a comment; blank
    lines are skipped; keys and their defaults are those of _KEYS.
    Raises ParseError with line/column for malformed text and
    ValidationError naming the key for semantically invalid values,
    unknown and duplicate keys included.
    """
    raw: dict[str, tuple[str, int, int]] = {}
    for lineno, full_line in enumerate(text.splitlines(), 1):
        stripped = full_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected key=value", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        col = full_line.find("=") + 2
        if not key:
            raise ParseError("empty key", lineno, 1)
        if key not in _KNOWN_KEYS:
            raise ValidationError(key, "unknown key")
        if key in raw:
            raise ValidationError(key, "duplicate key")
        raw[key] = (value, lineno, col)

    values = {}  # RunConfig field -> value, filled by fetch

    def fetch(key: str):
        field, convert, value = _KEYS[key]
        if key in raw:
            text, line, col = raw[key]
            value = convert(key, text, line, col)
        values[field] = value
        return value

    command = fetch("command")
    if command_override is not None:
        command = values["command"] = command_override
    if command is None:
        raise ValidationError("command", "required")
    if command not in COMMANDS:
        raise ValidationError("command", f"must be one of {', '.join(COMMANDS)}")

    kappa = fetch("kappa")
    if kappa is None:
        raise ValidationError("kappa", "required")
    if kappa == 0:
        raise ValidationError("kappa", "must be nonzero")

    nu = fetch("nu")
    if nu is None and command in _CHANNEL_COMMANDS:
        raise ValidationError("nu", "required for this command")
    if nu is not None and nu <= 0.0:
        raise ValidationError("nu", "must be positive")

    gamma = fetch("gamma")
    if gamma <= 0.0:
        raise ValidationError("gamma", "must be positive")

    scheme = fetch("grid.scheme")
    if scheme not in _SCHEMES:
        raise ValidationError("grid.scheme", f"must be one of {', '.join(_SCHEMES)}")
    grid_n = fetch("grid.N")
    if grid_n < 2:
        raise ValidationError("grid.N", "must be >= 2")
    r_min = fetch("grid.r_min")
    r_max = fetch("grid.r_max")
    if r_min <= 0.0:
        raise ValidationError("grid.r_min", "must be positive")
    if r_max <= r_min:
        raise ValidationError("grid.r_max", "must exceed grid.r_min")

    nu_values = fetch("sweep.nu_values")
    grid_sizes = fetch("sweep.grid_sizes")
    r_mins = fetch("sweep.r_mins")
    if command == "hardy-sweep" and not nu_values:
        raise ValidationError("sweep.nu_values", "required for hardy-sweep")
    if command in _LADDER_COMMANDS and not grid_sizes:
        raise ValidationError("sweep.grid_sizes", f"required for {command}")
    if any(x <= 0.0 for x in nu_values):
        raise ValidationError("sweep.nu_values", "entries must be positive")
    if any(n < 2 for n in grid_sizes):
        raise ValidationError("sweep.grid_sizes", "entries must be >= 2")
    if r_mins:
        if len(r_mins) != len(grid_sizes):
            raise ValidationError("sweep.r_mins", "length must match sweep.grid_sizes")
        if any(x <= 0.0 for x in r_mins):
            raise ValidationError("sweep.r_mins", "entries must be positive")
        if any(x >= r_max for x in r_mins):
            raise ValidationError("sweep.r_mins", "entries must stay below grid.r_max")

    tolerances = {key: fetch(key) for key in ("bisection_tol", "eigen_tol")}
    for key, val in tolerances.items():
        if val <= 0.0:
            raise ValidationError(key, "must be positive")

    k = fetch("k")
    if k < 1:
        raise ValidationError("k", "must be >= 1")

    fetch("output.path")
    out_format = fetch("output.format")
    if out_format not in _FORMATS:
        raise ValidationError("output.format", f"must be one of {', '.join(_FORMATS)}")

    return RunConfig(**values)


def _sommerfeld_or_none(n: int, kappa: int, nu: float) -> float | None:
    try:
        return sommerfeld_energy(n, kappa, nu)
    except InvalidQuantumNumbers:
        return None


def _ladder(config: RunConfig) -> list:
    r_mins = config.sweep_r_mins or tuple(
        config.grid_r_min for _ in config.sweep_grid_sizes
    )
    return [
        build_grid(config.grid_scheme, n, rm, config.grid_r_max)
        for n, rm in zip(config.sweep_grid_sizes, r_mins)
    ]


def _execute(config: RunConfig) -> tuple[list[SweepCell], dict]:
    grid = build_grid(
        config.grid_scheme, config.grid_N, config.grid_r_min, config.grid_r_max
    )

    if config.command == "hardy-sweep":
        report = hardy_sweep(
            config.kappa, list(config.sweep_nu_values), config.gamma, _ladder(config)
        )
        return list(report.cells), {"nu_star": report.nu_star}

    spec = DiracChannelSpec(kappa=config.kappa, nu=config.nu, gamma=config.gamma)
    base = dict(
        nu=spec.nu, grid_N=grid.N, grid_scheme=grid.scheme, grid_r_min=grid.r_min
    )

    if config.command == "validate":
        B = build_channel(spec, grid)
        margin = positivity_margin(B, 0.0)
        rep = check_admissibility(spec, grid)
        meta = {
            "c1": B.c1,
            "q0_positive": margin >= 0.0,
            "coupling_sup": rep.coupling_sup,
            "coupling_ok": rep.coupling_ok,
            "integral_bounded": rep.integral_bounded,
            "integral_estimates": rep.integral_estimates,
        }
        return [SweepCell(margin=margin, **base)], meta

    if config.command == "solve":
        B = build_channel(spec, grid)
        r = grid.nodes
        rep = solve(B, RhsPair(np.exp(-r), r * np.exp(-r)))
        # lambda_min(M_0), which the solve has just computed and cached
        margin = _elimination(B).margin
        meta = {
            "rhs": "F1=exp(-r), F2=r*exp(-r)",
            "residual_norm": rep.residual_norm,
            "schur_condition_estimate": rep.schur_condition_estimate,
            "ill_conditioned": rep.ill_conditioned,
        }
        return [SweepCell(margin=margin, **base)], meta

    if config.command == "c2":
        B = build_channel(spec, grid)
        c2n, c2a, diff, margin = _c2_of(B, spec, config.bisection_tol)
        cell = SweepCell(margin=margin, c2_numeric=c2n, c2_analytic=c2a, **base)
        return [cell], {"c2_diff": diff}

    if config.command == "spectrum":
        B = build_channel(spec, grid)
        energies = _spectrum_of(B, spec, config.k, config.eigen_tol)
        margin = positivity_margin(B, 0.0)
        rows = []
        for n, energy in enumerate(energies, start=_n_min(spec.kappa)):
            rows.append(
                SweepCell(
                    margin=margin,
                    e1_numeric=energy,
                    e1_analytic=_sommerfeld_or_none(n, spec.kappa, spec.nu),
                    **base,
                )
            )
        return rows, {"states": len(energies)}

    if config.command == "convergence":
        rows = []
        e1a = _sommerfeld_or_none(_n_min(spec.kappa), spec.kappa, spec.nu)
        for g in _ladder(config):
            B = build_channel(spec, g)
            c2n, c2a, _, margin = _c2_of(B, spec, config.bisection_tol)
            energy = _spectrum_of(B, spec, 1, config.eigen_tol)[0]
            rows.append(
                SweepCell(
                    nu=spec.nu,
                    grid_N=g.N,
                    grid_scheme=g.scheme,
                    grid_r_min=g.r_min,
                    margin=margin,
                    c2_numeric=c2n,
                    c2_analytic=c2a,
                    e1_numeric=energy,
                    e1_analytic=e1a,
                )
            )
        return rows, {}

    raise ValidationError("command", f"unhandled command {config.command!r}")


def _fmt(value) -> str:
    """Deterministic scalar formatting: 12 significant decimal digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, tuple):
        return ",".join(_fmt(x) for x in value)
    return str(value)


def _json_scalar(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, tuple):
        return [_json_scalar(x) for x in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _render_csv(config: RunConfig, rows: list[SweepCell], meta: dict) -> str:
    lines = [_REPORT_HEADER, f"# tool=schurdirac {__version__}"]
    for cfg_line in config.canonical_text().splitlines():
        lines.append(f"# config: {cfg_line}")
    for key in sorted(meta):
        lines.append(f"# meta: {key}={_fmt(meta[key])}")
    lines.append(",".join(CSV_COLUMNS))
    for cell in rows:
        lines.append(",".join(_fmt(getattr(cell, col)) for col in CSV_COLUMNS))
        if cell.error is not None:
            lines.append(f"# cell-error: nu={_fmt(cell.nu)} {cell.error}")
    return "\n".join(lines) + "\n"


def _render_json(config: RunConfig, rows: list[SweepCell], meta: dict) -> str:
    obj = {
        "tool": "schurdirac",
        "version": __version__,
        "command": config.command,
        "columns": list(CSV_COLUMNS),
        "config_echo": config.canonical_text(),
        "metadata": {k: _json_scalar(v) for k, v in sorted(meta.items())},
        "rows": [
            {col: _json_scalar(getattr(cell, col)) for col in CSV_COLUMNS}
            for cell in rows
        ],
        "errors": [
            {"nu": _json_scalar(c.nu), "grid_N": c.grid_N, "error": c.error}
            for c in rows
            if c.error is not None
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schurdirac-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # name the report path, not the temporary file this function invented
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def run(config: RunConfig) -> int:
    """Execute one command; write the report; map failures to exit codes.

    0: success, report written.  2: a structural hypothesis failed (the
    coupling or the base positivity, the scriptable boundary).  1: any
    other error.  Wall time goes to stderr so reports stay byte-stable.
    """
    t0 = time.perf_counter()
    try:
        rows, meta = _execute(config)
        text = (
            _render_json(config, rows, meta)
            if config.output_format == "json"
            else _render_csv(config, rows, meta)
        )
        _write_atomic(config.output_path, text)
    except HypothesisFailed as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except SchurDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    print(f"wall_time_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="schurdirac",
        description="Schur-complement analysis of radial Dirac-Coulomb channels",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to key=value config file")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, command_override=args.command)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        config = replace(config, output_path=args.out)
    if args.format is not None:
        config = replace(config, output_format=args.format)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
