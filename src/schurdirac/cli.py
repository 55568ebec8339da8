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
from typing import Callable, NamedTuple

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
from .solver import RhsPair, solve

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
    """Fully resolved run parameters (defaults applied, values validated).

    Every construction, parse_config's, a direct one or
    dataclasses.replace, runs each _KEYS check, the needed-value check
    and the checks that read two keys: ValidationError named by the key.
    """

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

    def __post_init__(self):
        for key, entry in _KEYS.items():
            value = getattr(self, key.replace(".", "_"))
            if value is None or (type(value) is tuple and not value):
                # command comes first, so every later key knows it
                if entry.needed_by is None or self.command in entry.needed_by:
                    raise ValidationError(key, entry.missing.format(command=self.command))
            else:
                _checked(key, value)
        if self.grid_r_max <= self.grid_r_min:
            raise ValidationError("grid.r_max", "must exceed grid.r_min")
        r_mins = self.sweep_r_mins
        if r_mins and len(r_mins) != len(self.sweep_grid_sizes):
            raise ValidationError("sweep.r_mins", "length must match sweep.grid_sizes")
        if any(x >= self.grid_r_max for x in r_mins):
            raise ValidationError("sweep.r_mins", "entries must stay below grid.r_max")

    def canonical_text(self) -> str:
        """Config text that re-parses to an equal RunConfig."""
        lines = []
        for key in _KEYS:
            value = getattr(self, key.replace(".", "_"))
            if value is None or value == ():
                continue
            if isinstance(value, tuple):
                value = ",".join(repr(x) for x in value)
            elif not isinstance(value, str):
                value = repr(value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def _finite(x: float) -> str | None:
    return None if math.isfinite(x) else "must be finite"


def _positive(x: float) -> str | None:
    return _finite(x) or (None if x > 0.0 else "must be positive")


def _at_least(low: int):
    return lambda n: None if n >= low else f"must be >= {low}"


def _one_of(choices: tuple[str, ...]):
    return lambda x: None if x in choices else f"must be one of {', '.join(choices)}"


def _echoable(path: str) -> str | None:
    # the report echoes the path on one config line, which must re-parse to it
    if "#" in path or "".join(path.splitlines()) != path or path != path.strip():
        return "must hold no '#' or line break, and no blank at either end"
    return None


class _Key(NamedTuple):
    type: type | tuple  # str, int or float; a one-element tuple, (float,), for a comma list
    default: object = None
    check: Callable = lambda value: None  # complaint about a value (a list's entry), or None
    needed_by: tuple[str, ...] | None = ()  # commands that need a value; None: all
    missing: str = "required for {command}"  # complaint when a needed value is missing


# Each config key once, in the order canonical_text echoes them.  Its
# RunConfig field is the key with "." replaced by "_".
_KEYS = {
    "command": _Key(str, None, _one_of(COMMANDS), None, "required"),
    "kappa": _Key(int, None, lambda k: None if k else "must be nonzero", None, "required"),
    "nu": _Key(float, None, _positive, _CHANNEL_COMMANDS, "required for this command"),
    "gamma": _Key(float, 0.5, _positive),
    "grid.scheme": _Key(str, "logarithmic", _one_of(_SCHEMES)),
    "grid.N": _Key(int, 2000, _at_least(2)),
    "grid.r_min": _Key(float, 1e-4, _positive),
    "grid.r_max": _Key(float, 100.0, _finite),
    "sweep.nu_values": _Key((float,), (), _positive, ("hardy-sweep",)),
    "sweep.grid_sizes": _Key((int,), (), _at_least(2), _LADDER_COMMANDS),
    "sweep.r_mins": _Key((float,), (), _positive),
    "bisection_tol": _Key(float, 1e-8, _positive),
    "eigen_tol": _Key(float, 1e-8, _positive),
    "k": _Key(int, 2, _at_least(1)),
    "output.path": _Key(str, None, _echoable),
    "output.format": _Key(str, "csv", _one_of(_FORMATS)),
}


def _converted(kind, key: str, value: str, line: int, col: int):
    """value, read at line and col, as kind, a _Key type.

    ParseError for a number that does not convert, ValidationError for a list with no entry.
    """
    if kind is str:
        return value
    if type(kind) is tuple:
        toks = [t.strip() for t in value.split(",") if t.strip()]
        if not toks:
            raise ValidationError(key, "empty list")
        return tuple(_converted(kind[0], key, t, line, col) for t in toks)
    try:
        return kind(value)
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ParseError(f"invalid {noun} for {key}: {value!r}", line, col) from None


def _checked(key: str, value) -> None:
    """ValidationError unless value has _KEYS[key]'s type and its check passes value.

    A list key takes a tuple, and its type and check apply to each entry.
    The type is exact: a bool is not taken for an int, nor an int or a
    NumPy float for a float, whose echo would not re-parse alike.
    """
    kind, prefix, items = _KEYS[key].type, "", (value,)
    if type(kind) is tuple:
        if type(value) is not tuple:
            raise ValidationError(key, f"must be a tuple, not {type(value).__name__}")
        (kind,), prefix, items = kind, "entries ", value
    for item in items:
        complaint = (
            f"must be {kind.__name__}, not {type(item).__name__}"
            if type(item) is not kind
            else _KEYS[key].check(item)
        )
        if complaint:
            raise ValidationError(key, prefix + complaint)


def parse_config(text: str, command_override: str | None = None) -> RunConfig:
    """Parse flat key=value configuration text into a validated RunConfig.

    Lines hold one `key=value` pair each; `#` starts a comment; blank
    lines are skipped; keys, their defaults and types are those of
    _KEYS.  Raises ParseError with line/column for malformed text or a
    value that does not convert, ValidationError naming the key for an
    unknown or duplicate key or an empty list, and RunConfig's own
    ValidationError for a semantically invalid value.
    """
    raw: dict[str, tuple[str, int, int]] = {}
    for lineno, full_line in enumerate(text.splitlines(), 1):
        stripped = full_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected key=value", lineno, 1)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        col = full_line.find("=") + 2
        if not key:
            raise ParseError("empty key", lineno, 1)
        if key not in _KEYS:
            raise ValidationError(key, "unknown key")
        if key in raw:
            raise ValidationError(key, "duplicate key")
        raw[key] = (value, lineno, col)
    if command_override is not None:  # stands in for the text's command
        raw["command"] = (command_override, 0, 1)

    values = {
        key.replace(".", "_"): (_converted(e.type, key, *raw[key]) if key in raw else e.default)
        for key, e in _KEYS.items()
    }
    return RunConfig(**values)


def _sommerfeld_or_none(n: int, spec: DiracChannelSpec) -> float | None:
    try:
        return sommerfeld_energy(n, spec.kappa, spec.nu)
    except InvalidQuantumNumbers:
        return None


def _ladder(config: RunConfig) -> list:
    r_mins = config.sweep_r_mins or (config.grid_r_min,) * len(config.sweep_grid_sizes)
    return [
        build_grid(config.grid_scheme, n, rm, config.grid_r_max)
        for n, rm in zip(config.sweep_grid_sizes, r_mins)
    ]


def _execute(config: RunConfig) -> tuple[list[SweepCell], dict]:
    if config.command == "hardy-sweep":
        report = hardy_sweep(
            config.kappa, list(config.sweep_nu_values), config.gamma, _ladder(config)
        )
        return list(report.cells), {"nu_star": report.nu_star}

    command = config.command
    if command != "convergence":  # a ladder command reads no configured grid
        grid = build_grid(config.grid_scheme, config.grid_N, config.grid_r_min, config.grid_r_max)
        grids = [grid]
    spec = DiracChannelSpec(kappa=config.kappa, nu=config.nu, gamma=config.gamma)
    n_min = _n_min(spec.kappa)
    if command == "convergence":
        grids, e1a = _ladder(config), _sommerfeld_or_none(n_min, spec)
    rows, meta = [], {}
    for grid in grids:
        B = build_channel(spec, grid)
        cells = [{}]  # the command's own columns of each row
        if command == "validate":
            rep = check_admissibility(spec, grid)
            meta = {
                "c1": B.c1,
                "coupling_sup": rep.coupling_sup,
                "coupling_ok": rep.coupling_ok,
                "integral_bounded": rep.integral_bounded,
                "integral_estimates": rep.integral_estimates,
            }
        elif command == "solve":
            r = grid.nodes
            rep = solve(B, RhsPair(np.exp(-r), r * np.exp(-r)))
            meta = {
                "rhs": "F1=exp(-r), F2=r*exp(-r)",
                "residual_norm": rep.residual_norm,
                "schur_condition_estimate": rep.schur_condition_estimate,
                "ill_conditioned": rep.ill_conditioned,
            }
        elif command == "c2":
            c2n, c2a, diff = _c2_of(B, spec, config.bisection_tol)
            cells, meta = [dict(c2_numeric=c2n, c2_analytic=c2a)], {"c2_diff": diff}
        elif command == "spectrum":
            energies = _spectrum_of(B, spec, config.k, config.eigen_tol)
            cells = [
                dict(e1_numeric=e, e1_analytic=_sommerfeld_or_none(n, spec))
                for n, e in enumerate(energies, start=n_min)
            ]
            meta = {"states": len(energies)}
        else:  # convergence
            c2n, c2a, _ = _c2_of(B, spec, config.bisection_tol)
            energy = _spectrum_of(B, spec, 1, config.eigen_tol)[0]
            cells = [dict(c2_numeric=c2n, c2_analytic=c2a, e1_numeric=energy, e1_analytic=e1a)]
        margin = positivity_margin(B, 0.0)
        if command == "validate":
            meta["q0_positive"] = margin >= 0.0
        base = dict(nu=spec.nu, grid_N=grid.N, grid_scheme=grid.scheme, grid_r_min=grid.r_min)
        rows += [SweepCell(margin=margin, **base, **cell) for cell in cells]
    return rows, meta


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
        render = _render_json if config.output_format == "json" else _render_csv
        _write_atomic(config.output_path, render(config, rows, meta))
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
    flags = {"output_path": args.out, "output_format": args.format}
    flags = {field: value for field, value in flags.items() if value is not None}
    try:
        config = parse_config(text, command_override=args.command)
        if flags:  # one more construction checks them with the rest
            config = replace(config, **flags)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
