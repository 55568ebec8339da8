import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schurdirac.cli as cli
import schurdirac.dirac as dirac
from schurdirac import ParseError, ValidationError, sommerfeld_energy
from schurdirac.cli import COMMANDS, RunConfig, main, parse_config, run

from conftest import spy_on_m0

MINIMAL = "command=c2\nkappa=-1\nnu=0.5\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# one invalid value per config, with the exception class, key and message
# of the check that refuses it
CHECK_CASES = [
    ("kappa=-1\nnu=0.5\n", ValidationError, "command", "required"),
    (
        "command=fish\nkappa=-1\nnu=0.5\n", ValidationError, "command",
        "must be one of validate, solve, c2, spectrum, hardy-sweep, convergence",
    ),
    ("command=c2\nnu=0.5\n", ValidationError, "kappa", "required"),
    ("command=c2\nkappa=0\nnu=0.5\n", ValidationError, "kappa", "must be nonzero"),
    ("command=c2\nkappa=x\nnu=0.5\n", ParseError, None, "line 2, col 7: invalid integer for kappa: 'x'"),
    ("command=c2\nkappa=-1\n", ValidationError, "nu", "required for this command"),
    ("command=c2\nkappa=-1\nnu=0\n", ValidationError, "nu", "must be positive"),
    ("command=c2\nkappa=-1\nnu=inf\n", ValidationError, "nu", "must be finite"),
    ("command=c2\nkappa=-1\nnu= half\n", ParseError, None, "line 3, col 4: invalid number for nu: 'half'"),
    (MINIMAL + "gamma=0\n", ValidationError, "gamma", "must be positive"),
    (MINIMAL + "grid.scheme=spiral\n", ValidationError, "grid.scheme", "must be one of uniform, logarithmic"),
    (MINIMAL + "grid.N=1\n", ValidationError, "grid.N", "must be >= 2"),
    (MINIMAL + "grid.r_min=0\n", ValidationError, "grid.r_min", "must be positive"),
    (MINIMAL + "grid.r_min=5\ngrid.r_max=5\n", ValidationError, "grid.r_max", "must exceed grid.r_min"),
    (
        "command=hardy-sweep\nkappa=-1\nsweep.grid_sizes=50\n", ValidationError,
        "sweep.nu_values", "required for hardy-sweep",
    ),
    (
        "command=hardy-sweep\nkappa=-1\nsweep.nu_values=0.5\n", ValidationError,
        "sweep.grid_sizes", "required for hardy-sweep",
    ),
    (
        "command=convergence\nkappa=-1\nnu=0.5\n", ValidationError,
        "sweep.grid_sizes", "required for convergence",
    ),
    (MINIMAL + "sweep.nu_values=0.5,0\n", ValidationError, "sweep.nu_values", "entries must be positive"),
    (MINIMAL + "sweep.nu_values= , \n", ValidationError, "sweep.nu_values", "empty list"),
    (MINIMAL + "sweep.grid_sizes=50,1\n", ValidationError, "sweep.grid_sizes", "entries must be >= 2"),
    (
        MINIMAL + "sweep.grid_sizes=50,100\nsweep.r_mins=1e-3\n", ValidationError,
        "sweep.r_mins", "length must match sweep.grid_sizes",
    ),
    (
        MINIMAL + "sweep.grid_sizes=50,100\nsweep.r_mins=1e-3,0\n", ValidationError,
        "sweep.r_mins", "entries must be positive",
    ),
    (
        MINIMAL + "sweep.grid_sizes=50,100\nsweep.r_mins=1e-3,100\n", ValidationError,
        "sweep.r_mins", "entries must stay below grid.r_max",
    ),
    (MINIMAL + "bisection_tol=0\n", ValidationError, "bisection_tol", "must be positive"),
    (MINIMAL + "eigen_tol=-1e-8\n", ValidationError, "eigen_tol", "must be positive"),
    (MINIMAL + "k=0\n", ValidationError, "k", "must be >= 1"),
    (MINIMAL + "output.format=xml\n", ValidationError, "output.format", "must be one of csv, json"),
    (MINIMAL + "colour=red\n", ValidationError, "colour", "unknown key"),
    (MINIMAL + "kappa=-2\n", ValidationError, "kappa", "duplicate key"),
    (MINIMAL + "grid.N\n", ParseError, None, "line 4, col 1: expected key=value"),
    (MINIMAL + " =2\n", ParseError, None, "line 4, col 1: empty key"),
]

# the cases a RunConfig refuses itself: all but tokenizing and conversion
CONSTRUCTION_CASES = [
    case for case in CHECK_CASES
    if case[1] is ValidationError and case[3] not in ("unknown key", "duplicate key", "empty list")
]


POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
# values each float key refuses, that a config text carries as they are
BAD_FLOAT = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, -math.inf, math.nan]))
# values of no choice key: no '#', '=', blank or line break, so the text carries them
TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", max_size=10)


@st.composite
def valid_fields(draw):
    """RunConfig's fields for a valid config, each key's value drawn from what its checks accept."""
    command = draw(st.sampled_from(COMMANDS))
    r_min = draw(POSITIVE)
    r_max = draw(st.floats(min_value=r_min, exclude_min=True, allow_infinity=False))
    sizes = draw(st.lists(st.integers(min_value=2), min_size=command in cli._LADDER_COMMANDS, max_size=3))
    below_r_max = st.floats(min_value=0.0, max_value=r_max, exclude_min=True, exclude_max=True)
    r_mins = draw(st.just([]) | st.lists(below_r_max, min_size=len(sizes), max_size=len(sizes)))
    # no line break, '#' or blank at either end: the path the echo can carry
    path = st.text(st.characters(blacklist_characters="#", blacklist_categories=("Cc", "Cs", "Zl", "Zp")))
    return dict(
        command=command,
        kappa=draw(st.integers().filter(bool)),
        nu=draw(POSITIVE if command in cli._CHANNEL_COMMANDS else st.none() | POSITIVE),
        gamma=draw(POSITIVE),
        grid_scheme=draw(st.sampled_from(["uniform", "logarithmic"])),
        grid_N=draw(st.integers(min_value=2)),
        grid_r_min=r_min,
        grid_r_max=r_max,
        sweep_nu_values=tuple(draw(st.lists(POSITIVE, min_size=command == "hardy-sweep", max_size=3))),
        sweep_grid_sizes=tuple(sizes),
        sweep_r_mins=tuple(r_mins),
        bisection_tol=draw(POSITIVE),
        eigen_tol=draw(POSITIVE),
        k=draw(st.integers(min_value=1)),
        output_path=draw(st.none() | path.map(str.strip)),
        output_format=draw(st.sampled_from(["csv", "json"])),
    )


def invalid_values(key, fields):
    """A strategy for the values of key that its checks refuse, given the other fields.

    output.path has none: each value it refuses is one the text cannot
    carry, which is why it is refused.
    """
    bad_list_of = lambda bad, good: st.lists(good, max_size=2).flatmap(
        lambda head: bad.map(lambda x: tuple(head) + (x,))
    )
    r_max, r_min = fields["grid_r_max"], fields["grid_r_min"]
    return {
        "command": st.none() | TOKEN.filter(lambda x: x not in COMMANDS),
        "kappa": st.sampled_from([None, 0]),
        "nu": BAD_FLOAT,
        "gamma": BAD_FLOAT,
        "grid.scheme": TOKEN.filter(lambda x: x not in ("uniform", "logarithmic")),
        "grid.N": st.integers(max_value=1),
        "grid.r_min": BAD_FLOAT | st.floats(min_value=r_max, allow_infinity=False),
        "grid.r_max": BAD_FLOAT | st.floats(max_value=r_min, allow_infinity=False),
        "sweep.nu_values": bad_list_of(BAD_FLOAT, POSITIVE),
        "sweep.grid_sizes": bad_list_of(st.integers(max_value=1), st.integers(min_value=2)),
        "sweep.r_mins": bad_list_of(BAD_FLOAT | st.floats(min_value=r_max), POSITIVE)
        | st.lists(POSITIVE, min_size=1, max_size=4)
        .filter(lambda x: len(x) != len(fields["sweep_grid_sizes"]))
        .map(tuple),
        "bisection_tol": BAD_FLOAT,
        "eigen_tol": BAD_FLOAT,
        "k": st.integers(max_value=0),
        "output.format": TOKEN.filter(lambda x: x not in ("csv", "json")),
    }[key]


@st.composite
def one_invalid_value(draw):
    """RunConfig's fields for a valid config with the value of one key replaced by one it refuses."""
    fields = draw(valid_fields())
    key = draw(st.sampled_from([key for key in cli._KEYS if key != "output.path"]))
    fields[key.replace(".", "_")] = draw(invalid_values(key, fields))
    return fields


def unchecked_fields(text):
    """RunConfig's fields for text: _KEYS' defaults, and text's values converted, unchecked."""
    fields = {key.replace(".", "_"): entry.default for key, entry in cli._KEYS.items()}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        fields[key.replace(".", "_")] = cli._converted(cli._KEYS[key].type, key, value.strip(), 0, 0)
    return fields


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "c2"
        assert cfg.kappa == -1
        assert cfg.nu == 0.5
        assert cfg.gamma == 0.5
        assert cfg.grid_scheme == "logarithmic"
        assert cfg.grid_N == 2000
        assert cfg.grid_r_min == 1e-4
        assert cfg.grid_r_max == 100.0
        assert cfg.bisection_tol == 1e-8
        assert cfg.output_path is None
        assert cfg.output_format == "csv"

    def test_negative_nu_names_the_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command=c2\nkappa=-1\nnu=-0.1\n")
        assert err.value.key == "nu"

    def test_dotted_grid_keys(self):
        cfg = parse_config(
            MINIMAL + "grid.scheme=uniform\ngrid.N=64\ngrid.r_min=0.5\ngrid.r_max=8\n"
        )
        assert cfg.grid_scheme == "uniform"
        assert cfg.grid_N == 64
        assert cfg.grid_r_min == 0.5
        assert cfg.grid_r_max == 8.0

    def test_comments_and_blanks(self):
        text = "# full run\n\ncommand=c2  # command\nkappa=-1\nnu=0.5 # half\n"
        cfg = parse_config(text)
        assert cfg.nu == 0.5

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=c2\nbogus\n")
        assert err.value.line == 2

    def test_bad_float_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=c2\nkappa=-1\nnu=half\n")
        assert err.value.line == 3

    def test_bad_integer(self):
        with pytest.raises(ParseError):
            parse_config("command=c2\nkappa=-1\nnu=0.5\ngrid.N=many\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "colour=red\n")
        assert err.value.key == "colour"

    def test_duplicate_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + "nu=0.6\n")
        assert err.value.key == "nu"

    @settings(deadline=2000, max_examples=300)
    @given(
        lines=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(tuple(cli._KEYS) + ("", " nu ", "colour")),
                    st.one_of(
                        st.sampled_from(
                            ["", "-1", "0", "2", "0.5", "1e-3", "nan", "inf", "-0.0", "1e999",
                             "9" * 5000, "0.5,1.2", ",", "1,,2", "c2", "spectrum", "json",
                             "uniform", "logarithmic", " # comment", "=", "x"]
                        ),
                        st.text(max_size=12),
                    ),
                ).map(lambda kv: f"{kv[0]}={kv[1]}"),
                st.text(max_size=30),
            ),
            max_size=12,
        ),
        override=st.sampled_from((None,) + COMMANDS),
    )
    def test_fuzzed_config_raises_only_config_errors(self, lines, override):
        try:
            cfg = parse_config("\n".join(lines), command_override=override)
        except (ParseError, ValidationError):
            return
        assert cfg.command in COMMANDS

    def test_command_required(self):
        with pytest.raises(ValidationError) as err:
            parse_config("kappa=-1\nnu=0.5\n")
        assert err.value.key == "command"

    def test_command_must_be_known(self):
        with pytest.raises(ValidationError):
            parse_config("command=fish\nkappa=-1\nnu=0.5\n")

    def test_command_override(self):
        cfg = parse_config(MINIMAL, command_override="spectrum")
        assert cfg.command == "spectrum"

    def test_override_supplies_missing_command(self):
        cfg = parse_config("kappa=-1\nnu=0.5\n", command_override="c2")
        assert cfg.command == "c2"

    def test_kappa_required_and_nonzero(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command=c2\nnu=0.5\n")
        assert err.value.key == "kappa"
        with pytest.raises(ValidationError):
            parse_config("command=c2\nkappa=0\nnu=0.5\n")

    def test_nu_required_for_channel_commands(self):
        for command in ("validate", "solve", "c2", "spectrum", "convergence"):
            with pytest.raises(ValidationError) as err:
                parse_config(f"command={command}\nkappa=-1\nsweep.grid_sizes=50\n")
            assert err.value.key == "nu"

    def test_hardy_sweep_does_not_need_nu(self):
        cfg = parse_config(
            "command=hardy-sweep\nkappa=-1\n"
            "sweep.nu_values=0.5,0.9\nsweep.grid_sizes=50,100\n"
        )
        assert cfg.nu is None
        assert cfg.sweep_nu_values == (0.5, 0.9)
        assert cfg.sweep_grid_sizes == (50, 100)

    def test_hardy_sweep_requires_lists(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command=hardy-sweep\nkappa=-1\nsweep.grid_sizes=50\n")
        assert err.value.key == "sweep.nu_values"
        with pytest.raises(ValidationError) as err:
            parse_config("command=hardy-sweep\nkappa=-1\nsweep.nu_values=0.5\n")
        assert err.value.key == "sweep.grid_sizes"

    def test_convergence_requires_sizes(self):
        with pytest.raises(ValidationError) as err:
            parse_config("command=convergence\nkappa=-1\nnu=0.5\n")
        assert err.value.key == "sweep.grid_sizes"

    def test_r_mins_length_must_match(self):
        with pytest.raises(ValidationError) as err:
            parse_config(
                "command=hardy-sweep\nkappa=-1\nsweep.nu_values=0.5\n"
                "sweep.grid_sizes=50,100\nsweep.r_mins=1e-3\n"
            )
        assert err.value.key == "sweep.r_mins"

    def test_r_mins_below_r_max(self):
        with pytest.raises(ValidationError):
            parse_config(
                "command=hardy-sweep\nkappa=-1\nsweep.nu_values=0.5\n"
                "sweep.grid_sizes=50\nsweep.r_mins=200\ngrid.r_max=100\n"
            )

    def test_tolerances_positive(self):
        for key in ("bisection_tol", "eigen_tol"):
            with pytest.raises(ValidationError) as err:
                parse_config(MINIMAL + f"{key}=0\n")
            assert err.value.key == key

    def test_psd_eps_is_unknown(self, tmp_path, capsys):
        # no code path read it, so it is no longer a key
        with pytest.raises(ValidationError, match="unknown key") as err:
            parse_config(MINIMAL + "psd_eps=1e-9\n")
        assert err.value.key == "psd_eps"
        cfg = write_config(tmp_path, MINIMAL + "psd_eps=1e-9\n")
        assert main(["c2", "--config", cfg]) == 1
        assert "psd_eps: unknown key" in capsys.readouterr().err

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "grid.scheme=spiral\n")
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "grid.N=1\n")
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "grid.r_min=-1\n")
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "grid.r_min=5\ngrid.r_max=2\n")

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "k=0\n")

    def test_output_format_validation(self):
        with pytest.raises(ValidationError):
            parse_config(MINIMAL + "output.format=xml\n")

    @pytest.mark.parametrize("text, error, key, message", CHECK_CASES)
    def test_each_check_names_its_key_and_message(self, text, error, key, message):
        # one invalid value per config: the exception class, the key and
        # the whole message are those of the check that refuses it
        with pytest.raises(error) as err:
            parse_config(text)
        assert type(err.value) is error
        assert str(err.value) == (message if key is None else f"{key}: {message}")
        if key is not None:
            assert err.value.key == key

    @pytest.mark.parametrize("text, error, key, message", CONSTRUCTION_CASES)
    def test_direct_construction_runs_the_same_checks(self, text, error, key, message):
        # a RunConfig built in code refuses what parse_config refuses, alike
        with pytest.raises(error) as err:
            RunConfig(**unchecked_fields(text))
        assert type(err.value) is error
        assert str(err.value) == f"{key}: {message}"
        assert err.value.key == key

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("output_path", "run#1.csv", "output.path"),
            ("grid_N", 1, "grid.N"),
            ("nu", math.nan, "nu"),
            ("grid_r_max", math.inf, "grid.r_max"),
            ("sweep_r_mins", (1e-3, -1.0), "sweep.r_mins"),
            ("command", None, "command"),
            # a value of the wrong type, whose echo would not re-parse to it
            ("grid_N", 2.5, "grid.N"),
            ("kappa", True, "kappa"),
            ("k", 3.0, "k"),
            ("nu", "0.5", "nu"),
            ("nu", np.float64(0.5), "nu"),
            ("sweep_nu_values", [0.5], "sweep.nu_values"),
            ("sweep_grid_sizes", (100, True), "sweep.grid_sizes"),
        ],
    )
    def test_replace_runs_the_same_checks(self, field, value, key):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(cfg, **{field: value})
        assert err.value.key == key
        assert dataclasses.replace(cfg, grid_N=3, output_path="r.csv").grid_N == 3

    @pytest.mark.parametrize("key", list(cli._KEYS))
    def test_every_key_refuses_a_wrong_type_by_name(self, key):
        # a bool is a value of no key: not an int, a float, a str or a tuple
        cfg = parse_config(MINIMAL)
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(cfg, **{key.replace(".", "_"): True})
        assert err.value.key == key
        assert str(err.value).endswith(", not bool")

    def test_canonical_round_trip_simple(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(cfg.canonical_text()) == cfg

    def test_canonical_round_trip_rich(self):
        text = (
            "command=hardy-sweep\nkappa=-1\ngamma=0.75\n"
            "sweep.nu_values=0.5,0.9,1.05\nsweep.grid_sizes=50,100\n"
            "sweep.r_mins=1e-3,1e-4\nbisection_tol=1e-9\nk=3\n"
            "output.path=report.csv\noutput.format=json\n"
        )
        cfg = parse_config(text)
        assert parse_config(cfg.canonical_text()) == cfg

    @settings(deadline=None, max_examples=200)
    @given(fields=valid_fields())
    def test_every_valid_config_round_trips(self, fields):
        cfg = RunConfig(**fields)
        assert parse_config(cfg.canonical_text()) == cfg

    @settings(deadline=None, max_examples=200)
    @given(fields=one_invalid_value())
    def test_one_invalid_value_is_refused_alike_built_or_parsed(self, fields):
        # the text is the echo canonical_text writes of the same fields,
        # unchecked, so it carries the one invalid value as it is
        unchecked = object.__new__(RunConfig)
        vars(unchecked).update(fields)
        with pytest.raises(ValidationError) as built:
            RunConfig(**fields)
        with pytest.raises(ValidationError) as parsed:
            parse_config(unchecked.canonical_text())
        assert type(built.value) is type(parsed.value)
        assert (built.value.key, str(built.value)) == (parsed.value.key, str(parsed.value))

    def test_echo_of_every_key(self):
        # pins the echo order and the format of each kind of value
        text = (
            "output.format=json\noutput.path=out/r.json\nk=3\neigen_tol=2.5e-09\n"
            "bisection_tol=1e-10\nsweep.r_mins=0.001,1e-05\nsweep.grid_sizes=100,200\n"
            "sweep.nu_values=0.5,1.05\ngrid.r_max=50\ngrid.r_min=1e-3\ngrid.N=300\n"
            "grid.scheme=uniform\ngamma=0.25\nnu=0.9\nkappa=-2\ncommand=convergence\n"
        )
        assert len(text.splitlines()) == len(cli._KEYS) == 16
        assert parse_config(text).canonical_text() == (
            "command=convergence\n"
            "kappa=-2\n"
            "nu=0.9\n"
            "gamma=0.25\n"
            "grid.scheme=uniform\n"
            "grid.N=300\n"
            "grid.r_min=0.001\n"
            "grid.r_max=50.0\n"
            "sweep.nu_values=0.5,1.05\n"
            "sweep.grid_sizes=100,200\n"
            "sweep.r_mins=0.001,1e-05\n"
            "bisection_tol=1e-10\n"
            "eigen_tol=2.5e-09\n"
            "k=3\n"
            "output.path=out/r.json\n"
            "output.format=json\n"
        )

    def test_each_field_is_its_key_with_dot_as_underscore(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            key.replace(".", "_") for key in cli._KEYS
        ]

    def test_commands_tuple(self):
        assert COMMANDS == (
            "validate",
            "solve",
            "c2",
            "spectrum",
            "hardy-sweep",
            "convergence",
        )


SMALL_GRID = "grid.N=220\ngrid.r_min=1e-3\ngrid.r_max=50\n"


class TestRunAndMain:
    def test_c2_report_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "report.csv")
        assert main(["c2", "--config", cfg, "--out", out]) == 0
        first = open(out, "rb").read()
        assert main(["c2", "--config", cfg, "--out", out]) == 0
        second = open(out, "rb").read()
        assert first == second
        assert first.startswith(b"# schurdirac report v1\n")

    def test_json_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "report.json")
        assert main(["c2", "--config", cfg, "--out", out, "--format", "json"]) == 0
        first = open(out, "rb").read()
        assert main(["c2", "--config", cfg, "--out", out, "--format", "json"]) == 0
        assert first == open(out, "rb").read()
        obj = json.loads(first)
        assert obj["tool"] == "schurdirac"
        assert obj["command"] == "c2"
        assert obj["rows"][0]["nu"] == 0.5
        assert obj["rows"][0]["c2_numeric"] == pytest.approx(
            1.0 + math.sqrt(0.75) - 0.5, abs=0.05
        )

    @pytest.mark.parametrize(
        "flags, constructions, output",
        [
            ([], 1, (None, "csv")),
            (["--out", "r.csv"], 2, ("r.csv", "csv")),
            (["--out", "r.json", "--format", "json"], 2, ("r.json", "json")),
        ],
    )
    def test_flags_join_the_config_in_one_construction(
        self, tmp_path, monkeypatch, flags, constructions, output
    ):
        # RunConfig's checks run once for the parsed text and once more for all the flags
        checks, runs = [], []
        post_init = RunConfig.__post_init__
        monkeypatch.setattr(RunConfig, "__post_init__", lambda self: checks.append(post_init(self)))
        monkeypatch.setattr(cli, "run", lambda config: runs.append(config) or 0)
        assert main(["c2", "--config", write_config(tmp_path, MINIMAL)] + flags) == 0
        assert len(checks) == constructions
        assert [(c.output_path, c.output_format) for c in runs] == [output]

    def test_csv_body_matches_columns(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "report.csv")
        assert main(["c2", "--config", cfg, "--out", out]) == 0
        lines = open(out).read().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")]
        assert header[0] == "nu,grid_N,grid_scheme,margin,c2_numeric,c2_analytic,e1_numeric,e1_analytic"
        row = header[1].split(",")
        assert len(row) == 8
        assert row[0] == "0.5"
        assert row[1] == "220"
        assert row[2] == "logarithmic"
        assert row[6] == "" and row[7] == ""  # energies not computed by c2

    def test_config_echo_reparses(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "report.csv")
        assert main(["c2", "--config", cfg_path, "--out", out]) == 0
        echo = "\n".join(
            ln[len("# config: "):]
            for ln in open(out).read().splitlines()
            if ln.startswith("# config: ")
        )
        reparsed = parse_config(echo)
        assert reparsed.command == "c2"
        assert reparsed.grid_N == 220
        assert reparsed.output_path == out

    @pytest.mark.parametrize(
        "name", ["run#1.csv", "run\n1.csv", "run\r1.csv", " run.csv", "run.csv\t"],
        ids=["comment mark", "line feed", "carriage return", "leading blank", "trailing blank"],
    )
    def test_path_the_echo_cannot_carry_is_refused(self, tmp_path, monkeypatch, capsys, name):
        # the echo's output.path line would re-parse to another path, or fail
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        assert main(["c2", "--config", cfg, "--out", name]) == 1
        assert capsys.readouterr().err == (
            "config error: output.path: "
            "must hold no '#' or line break, and no blank at either end\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        with pytest.raises(ValidationError, match="no '#' or line break") as err:
            cli._checked("output.path", name)
        assert err.value.key == "output.path"

    def test_unusual_path_is_echoed_exactly(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "a=b c;d.csv")
        assert main(["c2", "--config", cfg_path, "--out", out]) == 0
        echo = "".join(
            ln[len("# config: "):] + "\n"
            for ln in open(out).read().splitlines()
            if ln.startswith("# config: ")
        )
        assert parse_config(echo).output_path == out

    def test_spectrum_rows_and_analytic_column(self, tmp_path):
        cfg = write_config(
            tmp_path, "command=spectrum\nkappa=-1\nnu=0.5\nk=2\n" + SMALL_GRID
        )
        out = str(tmp_path / "spec.json")
        assert main(["spectrum", "--config", cfg, "--out", out, "--format", "json"]) == 0
        obj = json.loads(open(out).read())
        assert obj["metadata"]["states"] == 2
        assert len(obj["rows"]) == 2
        want1 = float(f"{sommerfeld_energy(1, -1, 0.5):.12g}")
        want2 = float(f"{sommerfeld_energy(2, -1, 0.5):.12g}")
        assert obj["rows"][0]["e1_analytic"] == want1
        assert obj["rows"][1]["e1_analytic"] == want2
        # coarse grid, loose agreement only
        assert obj["rows"][0]["e1_numeric"] == pytest.approx(want1, abs=0.05)

    @pytest.mark.parametrize("r_min", ["1e-4", "1e-12", "1e-16", "1e-20", "1e-60"])
    def test_spectrum_on_fine_grids_stays_at_the_sommerfeld_levels(self, tmp_path, r_min):
        # ||H||_inf grows like 1/r_min; a band of ulp ||H||_inf around 0
        # held the physical states from r_min of about 1e-14 down, and the
        # next states out were reported (e1_numeric 220.685 at 1e-16)
        cfg = write_config(tmp_path, f"kappa=-1\nnu=0.5\nk=2\ngrid.N=2000\ngrid.r_min={r_min}\n")
        out = str(tmp_path / "spec.json")
        assert main(["spectrum", "--config", cfg, "--out", out, "--format", "json"]) == 0
        rows = json.loads(open(out).read())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert abs(row["e1_numeric"] - row["e1_analytic"]) <= 5e-3

    def test_kappa_minus_two_rows_start_at_its_lowest_level(self, tmp_path):
        # kappa = -2 has no n = 1 level; its rows are n = 2, 3
        grid = "grid.N=600\n"
        for command, extra in (("spectrum", "k=2\n"), ("c2", ""), ("convergence", "sweep.grid_sizes=600\n")):
            cfg = write_config(tmp_path, f"command={command}\nkappa=-2\nnu=0.5\n" + grid + extra)
            out = str(tmp_path / f"{command}.json")
            assert main([command, "--config", cfg, "--out", out, "--format", "json"]) == 0
            rows = json.loads(open(out).read())["rows"]
            if command == "spectrum":
                for row, n in zip(rows, (2, 3)):
                    want = float(f"{sommerfeld_energy(n, -2, 0.5):.12g}")
                    assert row["e1_analytic"] == want
                    assert row["e1_numeric"] == pytest.approx(want, abs=1e-3)
            else:
                e2 = sommerfeld_energy(2, -2, 0.5)
                assert rows[0]["c2_analytic"] == float(f"{e2 + 1.0 - 0.5:.12g}")
                assert rows[0]["c2_numeric"] == pytest.approx(e2 + 0.5, abs=1e-3)
                if command == "convergence":
                    assert rows[0]["e1_analytic"] == float(f"{e2:.12g}")

    def test_c2_analytic_at_nu_one_is_one_minus_gamma(self, tmp_path):
        cfg = write_config(tmp_path, "command=c2\nkappa=-1\nnu=1.0\ngrid.N=300\n")
        out = str(tmp_path / "c2.json")
        assert main(["c2", "--config", cfg, "--out", out, "--format", "json"]) == 0
        assert json.loads(open(out).read())["rows"][0]["c2_analytic"] == 0.5

    def test_validate_meta(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "command=validate\nkappa=-1\nnu=0.5\n" + SMALL_GRID
        )
        assert main(["validate", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "# meta: coupling_ok=true" in text
        assert "# meta: q0_positive=true" in text
        assert "# meta: coupling_sup=0.5" in text

    def test_solve_meta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "command=solve\nkappa=-1\nnu=0.5\n" + SMALL_GRID)
        assert main(["solve", "--config", cfg]) == 0
        text = capsys.readouterr().out
        meta = dict(
            ln[len("# meta: "):].split("=", 1)
            for ln in text.splitlines()
            if ln.startswith("# meta: ")
        )
        assert meta["rhs"] == "F1=exp(-r), F2=r*exp(-r)"
        assert float(meta["residual_norm"]) < 1e-8

    def test_convergence_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command=convergence\nkappa=-1\nnu=0.5\n"
            "sweep.grid_sizes=120,240\ngrid.r_min=1e-3\ngrid.r_max=50\n",
        )
        out = str(tmp_path / "conv.json")
        assert main(["convergence", "--config", cfg, "--out", out, "--format", "json"]) == 0
        obj = json.loads(open(out).read())
        assert [r["grid_N"] for r in obj["rows"]] == [120, 240]
        for row in obj["rows"]:
            assert row["c2_numeric"] is not None
            assert row["e1_numeric"] is not None
            assert row["e1_analytic"] == float(f"{sommerfeld_energy(1, -1, 0.5):.12g}")

    @pytest.mark.parametrize(
        "command, extra, builds",
        [("c2", "", 1), ("spectrum", "", 1), ("convergence", "sweep.grid_sizes=80,120,160\n", 3)],
    )
    def test_channel_built_once_per_grid(self, tmp_path, monkeypatch, command, extra, builds):
        built = []
        original = dirac.build_channel

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dirac, "build_channel", counting)
        monkeypatch.setattr(cli, "build_channel", counting)
        cfg = write_config(
            tmp_path, f"command={command}\nkappa=-1\nnu=0.5\ngrid.N=120\n" + extra
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert len(built) == builds

    @pytest.mark.parametrize(
        "command, extra, grids",
        [
            ("validate", "", 1),
            ("solve", "", 1),
            ("c2", "", 1),
            ("spectrum", "", 1),
            ("convergence", "sweep.grid_sizes=80,120,400\n", 3),
        ],
    )
    def test_base_form_formed_once_per_grid(self, tmp_path, monkeypatch, command, extra, grids):
        # each grid's operator forms M_0 once, for its margin at alpha = 0,
        # find_c2 and solve alike, and computes lambda_min(M_0) once
        formed, reads = spy_on_m0(monkeypatch)
        cfg = write_config(
            tmp_path, f"command={command}\nkappa=-1\nnu=0.5\ngrid.N=400\n" + extra
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert len(formed) == grids
        assert reads == ["dstebz"] * grids

    def test_grid_out_of_float_range_is_an_error_not_a_crash(self, tmp_path, capsys):
        # h_j h_{j+1} underflows to 0; under the suite's error::RuntimeWarning
        # a leaked warning would be reported as an internal error
        cfg = write_config(tmp_path, "kappa=-1\nnu=0.5\ngrid.N=200\ngrid.r_min=1e-200\n")
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: T: has a non-finite entry\n"

    @pytest.mark.parametrize("command, rows", [("hardy-sweep", 4), ("convergence", 2)])
    def test_a_ladder_command_never_builds_the_configured_grid(self, tmp_path, command, rows):
        # build_grid refuses grid.r_min = 5e-324 (its 2000 logarithmic nodes
        # are not strictly increasing), which the ladder's own r_mins never read
        cfg = write_config(
            tmp_path,
            "kappa=-1\nnu=0.5\ngrid.r_min=5e-324\nsweep.grid_sizes=100,200\n"
            "sweep.nu_values=0.5,1.05\nsweep.r_mins=1e-3,1e-3\n",
        )
        with pytest.raises(dirac.BadRange, match="^nodes must be strictly increasing$"):
            dirac.build_grid("logarithmic", 2000, 5e-324, 100.0)
        out = str(tmp_path / "ladder.csv")
        assert main([command, "--config", cfg, "--out", out]) == 0
        data = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + rows
        assert main(["validate", "--config", cfg]) == 1

    def test_hardy_sweep_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command=hardy-sweep\nkappa=-1\n"
            "sweep.nu_values=0.5,1.25\nsweep.grid_sizes=80\n"
            "grid.r_min=1e-3\ngrid.r_max=50\n",
        )
        out = str(tmp_path / "sweep.csv")
        assert main(["hardy-sweep", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        assert "# meta: nu_star=" in text
        assert "# cell-error: nu=1.25" in text
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(data) == 1 + 2  # header plus one row per cell

    def test_exit_two_for_out_of_band_coupling(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "command=spectrum\nkappa=-1\nnu=1.3\n" + SMALL_GRID
        )
        assert main(["spectrum", "--config", cfg]) == 2
        assert "hypothesis violated" in capsys.readouterr().err

    def test_exit_two_for_kappa_positive_spectrum_at_small_n(self, tmp_path, capsys):
        # refused at every N, as at the default N = 2000
        cfg = write_config(tmp_path, "command=spectrum\nkappa=1\nnu=0.5\ngrid.N=40\n")
        assert main(["spectrum", "--config", cfg]) == 2
        assert "hypothesis violated" in capsys.readouterr().err

    def test_exit_one_for_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "command=c2\nkappa=-1\nnu=-0.1\n")
        assert main(["c2", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_exit_one_for_missing_config(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["c2", "--config", missing]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_stdout_report(self, tmp_path, capsys):
        cfg_text = MINIMAL + SMALL_GRID
        config = parse_config(cfg_text)
        assert run(config) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# schurdirac report v1\n")
        assert "wall_time_s=" in captured.err
        assert "wall_time_s" not in captured.out

    def test_no_temp_files_left(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / "report.csv")
        assert main(["c2", "--config", cfg, "--out", out]) == 0
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".schurdirac-")]
        assert leftovers == []

    @pytest.mark.parametrize("target", ["missing/out.csv", "existing_dir"])
    def test_exit_one_for_unwritable_report(self, tmp_path, capsys, target):
        # a missing directory, or --out naming a directory
        (tmp_path / "existing_dir").mkdir()
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        assert main(["c2", "--config", cfg, "--out", str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert "cannot write report: " in err and "internal error" not in err
        assert [p.name for p in tmp_path.rglob(".schurdirac-*.tmp")] == []

    @pytest.mark.parametrize(
        "target, reason",
        [("missing/out.csv", "No such file or directory"), ("existing_dir", "Is a directory")],
    )
    def test_unwritable_report_names_the_requested_path(self, tmp_path, capsys, target, reason):
        (tmp_path / "existing_dir").mkdir()
        cfg = write_config(tmp_path, MINIMAL + SMALL_GRID)
        out = str(tmp_path / target)
        messages = []
        for _ in range(2):
            assert main(["c2", "--config", cfg, "--out", out]) == 1
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "cannot write report: [Errno " in messages[0]
        assert f"{reason}: {out!r}" in messages[0]
        assert ".schurdirac-" not in messages[0]
        assert list(tmp_path.rglob("*.tmp")) == []
