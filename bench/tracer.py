"""Outside-in tracer: spans around the package's public functions.

The package's own modules bind names from one another at import time
(``from .blockop import find_c2``), so a function is wrapped in every
namespace that holds it, the package root included.  Calls between the
layers then pass through the wrappers, while the package source stays
untouched.  ``uninstall`` puts every original back, so untraced runs
execute unpatched code.

Spans are kept in memory as (name, start, end, parent) and written out
as JSON lines once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter, defaultdict

PACKAGE = "schurdirac"
LAYERS = ("blockop", "solver", "dirac", "cli")
# Name of the span the benchmark opens around each pass.
ROOT_SPAN = "bench.round"


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records nested spans around benchmark steps and package functions."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def _wrap(self, fn, label: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever they are bound."""
        modules = [importlib.import_module(PACKAGE)]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            modules.append(mod)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def per_round(spans) -> list[dict]:
    """Per-layer figures of each ROOT_SPAN, from the recorded spans.

    Returns one dict per pass with, for each span name, ``calls`` and
    ``self_s`` (duration minus the part covered by direct children), plus
    the contextual counts the benchmark reports:

    * ``find_c2_margin_calls`` and ``find_c2_calls``;
    * ``spectrum_gap_calls`` and ``spectrum_calls``;
    * ``solve_warm_self_s`` and ``solve_cold_self_s``, split on whether
      the solve ran under a ``bench.solve_warm`` step;
    * per CLI command step ``bench.cmd.<c>``: its wall time and the
      build_channel and positivity_margin calls made beneath it.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rounds: list[dict] = []
    round_of: list[int] = []
    command_of: list[str | None] = []
    for sid, (name, start, end, parent) in enumerate(spans):
        if name == ROOT_SPAN:
            rounds.append(
                {"calls": Counter(), "self_s": defaultdict(float), "counts": Counter(),
                 "times": defaultdict(float)}
            )
            round_of.append(len(rounds) - 1)
        else:
            round_of.append(round_of[parent] if parent >= 0 else -1)
        if name.startswith("bench.cmd."):
            command_of.append(name[len("bench.cmd."):])
        else:
            command_of.append(command_of[parent] if parent >= 0 else None)
        r = round_of[-1]
        if r < 0:
            continue
        rec = rounds[r]
        self_s = end - start - child_time[sid]
        rec["calls"][name] += 1
        rec["self_s"][name] += self_s
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "blockop.positivity_margin" and parent_name == "blockop.find_c2":
            rec["counts"]["find_c2_margin_calls"] += 1
        if name == "solver.gap_eigenvalues" and parent_name == "dirac.channel_spectrum":
            rec["counts"]["spectrum_gap_calls"] += 1
        if name == "solver.solve":
            warm = parent_name == "bench.solve_warm"
            rec["times"]["solve_warm_self_s" if warm else "solve_cold_self_s"] += self_s
        command = command_of[-1]
        if command is not None:
            if name == "bench.cmd." + command:
                rec["times"][f"cli.{command}.wall_s"] += end - start
            elif name == "dirac.build_channel":
                rec["counts"][f"cli.{command}.build_channel_calls"] += 1
            elif name == "blockop.positivity_margin":
                rec["counts"][f"cli.{command}.margin_calls"] += 1
    return rounds
