"""The README's python examples run as written and print what the README says,
its config key table states cli._KEYS and its public name table states
schurdirac.__all__, so the documented API, the exponent table, the keys
and the public names cannot drift unnoticed."""

import contextlib
import io
import math
import pathlib
import re

import pytest

import schurdirac
import schurdirac.cli as cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme() -> str:
    return README.read_text(encoding="utf-8")


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", readme(), re.M | re.S)


def printed(code: str) -> list[list[float]]:
    """The numbers each printed line of code holds, run as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    number = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
    return [[float(x) for x in re.findall(number, line)] for line in out.getvalue().splitlines()]


def test_the_two_examples_are_found():
    quick_start, table_script = python_blocks()
    assert "assemble" in quick_start and "polyfit" in table_script


def test_quick_start():
    code = python_blocks()[0]
    (c2, oracle), (u, v, residual), (err1,), (err2,) = printed(code)
    assert c2 == pytest.approx((1.0 + math.sqrt(13.0)) / 2.0, abs=1e-8)
    assert oracle == pytest.approx(c2, abs=1e-8)
    assert (u, v) == pytest.approx((1.0, 1.0)) and residual <= 1e-15
    # the Sommerfeld errors the comments quote, to their one digit
    quoted = [float(x) for x in re.findall(r"# ~(\S+)", code)]
    assert [float(f"{e:.0e}") for e in (err1, err2)] == quoted


def test_exponent_table_script_prints_the_table():
    rows = re.findall(r"^\| (−?\d) \| (\d\.\d) \|(( [\d.]+ \|){5})$", readme(), re.M)
    table = [
        [float(kappa.replace("−", "-")), float(nu)] + [float(x) for x in cells.split("|")[:-1]]
        for kappa, nu, cells, _ in rows
    ]
    assert len(table) == 4
    got = printed(python_blocks()[1])
    assert len(got) == len(table)
    for line, row in zip(got, table):
        assert line[:2] == row[:2]
        # the table holds the printed 4 decimals; a last-digit flip is allowed
        assert line[2:] == pytest.approx(row[2:], abs=1.5e-4)


def test_key_table_states_every_key_in_echo_order():
    rows = re.findall(r"^\| `([\w.]+)` \| ([\w ]+) \| (.+?) \| .+ \|$", readme(), re.M)
    assert [key for key, _, _ in rows] == list(cli._KEYS)
    for key, kind, default in rows:
        entry = cli._KEYS[key]
        assert kind == (f"{entry.type[0].__name__} list" if type(entry.type) is tuple else entry.type.__name__)
        literal = re.fullmatch(r"`([^`]*)`", default)
        if entry.default not in (None, ()):
            # the default as the config text would give it
            assert literal and cli._converted(entry.type, key, literal[1], 0, 0) == entry.default
        elif entry.needed_by is None:
            assert default.startswith("required")
        else:
            assert literal is None
            assert ("required by" in default) == bool(entry.needed_by)


def test_public_name_table_states_every_name_in_all():
    section = readme().split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.M)
    names = [name for name, _ in rows]
    assert len(names) == len(set(names))
    assert set(names) == set(schurdirac.__all__) - {"__version__"}
