import json
import math

import pytest

import schurdirac.blockop as blockop
import schurdirac.cli as cli
import schurdirac.dirac as dirac
import schurdirac.solver as solver
from schurdirac import ParseError, ValidationError, sommerfeld_energy
from schurdirac.cli import COMMANDS, main, parse_config, run

MINIMAL = "command=c2\nkappa=-1\nnu=0.5\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        for key in ("bisection_tol", "eigen_tol", "psd_eps"):
            with pytest.raises(ValidationError) as err:
                parse_config(MINIMAL + f"{key}=0\n")
            assert err.value.key == key

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
        # M_0 is formed by every margin at alpha = 0 and by the solver's cache
        shifts = []
        original = blockop._schur_form

        def recording(B, alpha):
            shifts.append(alpha)
            return original(B, alpha)

        monkeypatch.setattr(blockop, "_schur_form", recording)
        monkeypatch.setattr(solver, "_schur_form", recording)
        cfg = write_config(
            tmp_path, f"command={command}\nkappa=-1\nnu=0.5\ngrid.N=400\n" + extra
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert shifts.count(0.0) == grids

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
