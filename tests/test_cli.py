"""CLI: run/verify/scan, config round trips, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import json
import weakref
from dataclasses import fields

import pytest
from click.testing import CliRunner

from xplab.cli import REPORTS, ExperimentConfig, _flatten, main


@pytest.fixture()
def runner():
    return CliRunner()


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(subcommand="linear-xp", n=3, a=[1.0, 2.0, 3.0])
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"not_a_field": 1})


class TestConfigTypes:
    """Config-file values are checked against the field types, as flags are."""

    def test_bool_field_takes_json_booleans_only(self, runner, tmp_path):
        with pytest.raises(ValueError, match="'deterministic'"):
            ExperimentConfig.from_dict({"deterministic": "false"})
        assert ExperimentConfig.from_dict({"deterministic": False}).deterministic is False
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": "linear-xp", "deterministic": "false"}))
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 1
        assert json.loads(res.output.splitlines()[-1])["error"] == "ValueError"

    def test_fractional_seed_rejected(self):
        with pytest.raises(ValueError, match="'seed'"):
            ExperimentConfig.from_dict({"seed": 1.5})
        with pytest.raises(ValueError, match="'seed'"):
            ExperimentConfig.from_dict({"seed": True})

    def test_fractional_int_field_fails_like_its_flag(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": "rosenthal-distortion", "n": 8.7}))
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 1
        err = json.loads(res.output.splitlines()[-1])
        assert err["error"] == "ValueError" and "'n'" in err["message"]
        flag = runner.invoke(main, ["run", "rosenthal-distortion", "--n", "8.7"])
        assert flag.exit_code != 0

    def test_integral_budget_stored_as_int(self, runner, tmp_path):
        cfg = ExperimentConfig.from_dict({"budget": 1e6, "n": 8.0})
        assert cfg.budget == 1_000_000 and type(cfg.budget) is int
        assert cfg.n == 8 and type(cfg.n) is int
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"subcommand": "linear-xp", "budget": 1e6}))
        from_file = runner.invoke(main, ["run", "--config", str(path), "--deterministic"])
        from_flag = runner.invoke(main, ["run", "linear-xp", "--budget", "1e6",
                                         "--deterministic"])
        assert from_file.exit_code == from_flag.exit_code == 0
        assert from_file.output == from_flag.output
        assert '"budget": 1000000,' in from_file.output

    def test_float_field_takes_any_number(self):
        cfg = ExperimentConfig.from_dict({"p": 4})
        assert cfg.p == 4.0 and type(cfg.p) is float
        with pytest.raises(ValueError, match="'p'"):
            ExperimentConfig.from_dict({"p": "4"})


# One flag and value per scalar config field, with the value the config echo
# must then hold.  A new scalar field fails the parity test until it has one.
FLAG_SAMPLES = {
    "p": (["--p", "3.5"], 3.5),
    "q": (["--q", "2.5"], 2.5),
    "m": (["--m", "3"], 3),
    "n": (["--n", "3"], 3),
    "k": (["--k", "2"], 2),
    "d": (["--d", "2"], 2),
    "R": (["--R", "2"], 2),
    "s": (["--s", "0.25"], 0.25),
    "theta": (["--theta", "1.25"], 1.25),
    "big_k": (["--big-k", "3"], 3.0),
    "r": (["--r", "2"], 2.0),
    "trials": (["--trials", "5"], 5),
    "budget": (["--budget", "1e5"], 100_000),
    "seed": (["--seed", "11"], 11),
    "kind": (["--kind", "main"], "main"),
    "variant": (["--variant", "rademacher"], "rademacher"),
    "which": (["--which", "two-level"], "two-level"),
    "square_function": (["--square-function"], True),
    "function_path": (["--function-path", "f.json"], "f.json"),
    "out": (["--out", "doc.json"], "doc.json"),
    "format": (["--format", "csv"], "csv"),
    "deterministic": (["--deterministic"], True),
}
SCALAR_FIELDS = [f for f in fields(ExperimentConfig)
                 if f.type in ("int", "float", "str", "bool") and f.name != "subcommand"]


def _numeric_cells(row: dict) -> dict:
    """CSV cells parsed back to the numbers and bools they were written from."""
    out = {}
    for key, text in row.items():
        if text in ("True", "False"):
            out[key] = text == "True"
        else:
            try:
                out[key] = int(text)
            except ValueError:
                out[key] = float(text)
    return out


class TestFlagFieldParity:
    @pytest.mark.parametrize("field", SCALAR_FIELDS, ids=lambda f: f.name)
    def test_flag_sets_its_field(self, runner, tmp_path, monkeypatch, field):
        flag, expected = FLAG_SAMPLES[field.name]
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["run", "linear-xp", *flag])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "doc.json").read_text() if field.name == "out" else res.output
        if field.name == "format":
            echo = next(csv.DictReader(io.StringIO(text)))["config.format"]
        else:
            echo = json.loads(text)["config"][field.name]
        assert echo == expected
        assert type(echo).__name__ == field.type

    def test_every_scalar_field_has_a_flag_sample(self):
        assert {f.name for f in SCALAR_FIELDS} == set(FLAG_SAMPLES)

    def test_scan_writes_int_cells_for_int_fields(self, runner):
        res = runner.invoke(main, ["scan", "linear-xp", "--sweep", "budget",
                                   "--values", "1e3,2e3"])
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert [row["value"] for row in rows] == ["1000", "2000"]
        assert [row["plan.budget"] for row in rows] == ["1000", "2000"]

    def test_scan_rejects_a_non_numeric_field(self, runner):
        res = runner.invoke(main, ["scan", "linear-xp", "--sweep", "square_function",
                                   "--values", "0,1"])
        assert res.exit_code == 1
        assert "bool field 'square_function'" in res.output


class TestRun:
    def test_linear_xp_example(self, runner):
        res = runner.invoke(main, [
            "run", "linear-xp", "--n", "2", "--k", "1", "--p", "4",
            "--a", "1,1", "--seed", "7", "--deterministic",
        ])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["schema"] == "xp-report/1"
        assert doc["report"]["lhs"] == pytest.approx(1.0)
        assert doc["report"]["rhs_terms"] == {"ell_p": 1.0, "rademacher": 2.0}
        assert "wall_clock_s" not in doc

    def test_psd_counterexample_closed_form(self, runner):
        res = runner.invoke(main, [
            "run", "psd-counterexample", "--q", "4", "--big-k", "2",
            "--s", "0.1", "--deterministic",
        ])
        doc = json.loads(res.output)
        target = -(0.1**6) - 3 * 0.1**8 + 0.1**10
        assert doc["report"]["quadratic_form"] == pytest.approx(target, rel=1e-12)

    def test_deterministic_byte_identical(self, runner):
        args = ["run", "linear-xp", "--a", "1,1", "--deterministic"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_hypothesis_warning_exit_code(self, runner):
        # m = 1 violates both sample-size hypotheses of the torus inequality
        res = runner.invoke(main, [
            "run", "metric-xp", "--m", "1", "--n", "2", "--k", "1",
            "--p", "4", "--deterministic",
        ])
        assert res.exit_code == 2
        assert json.loads(res.output)["report"]["warnings"]

    def test_error_exit_code_and_json(self, runner):
        res = runner.invoke(main, ["run", "linear-xp", "--k", "9"])
        assert res.exit_code == 1

    def test_config_file(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "subcommand": "linear-xp", "n": 2, "k": 1, "p": 4.0,
            "a": [1.0, 1.0], "deterministic": True,
        }))
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["report"]["lhs"] == pytest.approx(1.0)

    def test_out_file_and_csv(self, runner, tmp_path):
        out = tmp_path / "rep.csv"
        res = runner.invoke(main, [
            "run", "linear-xp", "--a", "1,1", "--deterministic",
            "--format", "csv", "--out", str(out),
        ])
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "report.lhs" in lines[0]

    def test_run_matches_library_call(self, runner):
        from xplab.inequalities import linear_xp_report
        from xplab.lattice import make_sample_plan

        res = runner.invoke(main, [
            "run", "linear-xp", "--n", "3", "--k", "2", "--p", "4",
            "--a", "0.5,1.5,-2", "--seed", "11", "--deterministic",
        ])
        doc = json.loads(res.output)
        lib = linear_xp_report(
            [0.5, 1.5, -2.0], 2, 4.0,
            make_sample_plan(1, 3, 2, budget=1_000_000, seed=11),
        ).to_json_dict()
        assert doc["report"] == json.loads(json.dumps(lib))


class TestScan:
    def test_sweep_produces_rows(self, runner):
        res = runner.invoke(main, [
            "scan", "rosenthal-distortion", "--sweep", "n",
            "--values", "4,8,16", "--q", "3", "--p", "6",
        ])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("sweep,value")

    def test_unknown_parameter_rejected(self, runner):
        res = runner.invoke(main, [
            "scan", "rosenthal-distortion", "--sweep", "bogus", "--values", "1,2",
        ])
        assert res.exit_code == 1

    def test_rows_equal_run_reports(self, runner):
        # the shape of the benchmark's metric-xp scan; these reports warn
        base = ["metric-xp", "--m", "2", "--n", "2", "--k", "1", "--d", "1",
                "--budget", "1e7"]
        res = runner.invoke(main, ["scan", *base, "--sweep", "p", "--values", "2,3,4"])
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 3
        for value, row in zip(("2", "3", "4"), rows):
            single = runner.invoke(main, ["run", *base, "--p", value, "--deterministic"])
            doc = json.loads(single.output)
            assert doc["report"]["warnings"] and single.exit_code == 2
            assert row.pop("sweep") == "p"
            cells = _numeric_cells(row)
            assert cells.pop("value") == float(value)
            assert cells == {k: v for k, v in _flatten(doc["report"]).items()
                             if isinstance(v, (int, float, bool))}

    def test_geometric_values(self, runner):
        res = runner.invoke(main, [
            "scan", "psd-counterexample", "--sweep", "s",
            "--values", "geom:0.01:0.5:4", "--q", "4", "--big-k", "2",
        ])
        assert res.exit_code == 0, res.output
        assert len(res.output.strip().splitlines()) == 5


class TestVerify:
    def test_geodesic_suite_passes(self, runner):
        res = runner.invoke(main, ["verify", "geodesic"])
        assert res.exit_code == 0, res.output
        assert "pass" in res.output and "FAIL" not in res.output

    def test_unknown_suite_rejected(self, runner):
        res = runner.invoke(main, ["verify", "bogus"])
        assert res.exit_code != 0


class TestOutputStreams:
    """A report written to a swapped-in stream must not keep that stream alive.

    click caches the stream it resolves for ``echo`` without ``file=`` in a
    WeakKeyDictionary whose value is the stream itself, so an in-process
    caller that captures each report in a fresh buffer would leak every one.
    """

    @pytest.mark.parametrize("args,redirect", [
        (["run", "linear-xp", "--n", "2", "--k", "1", "--p", "4", "--a", "1,1",
          "--seed", "7", "--deterministic"], contextlib.redirect_stdout),
        (["scan", "rosenthal-distortion", "--sweep", "n", "--values", "4,8",
          "--q", "3", "--p", "6"], contextlib.redirect_stdout),
        (["verify", "geodesic"], contextlib.redirect_stdout),
        (["run", "linear-xp", "--k", "9"], contextlib.redirect_stderr),
    ])
    def test_captured_buffer_is_released(self, args, redirect):
        buf = io.StringIO()
        with redirect(buf), contextlib.suppress(SystemExit):
            main.main(args=args, standalone_mode=False)
        assert buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None


def test_every_report_has_builder():
    assert set(REPORTS) == {
        "linear-xp", "reverse-linear-xp", "metric-xp", "reverse-metric-xp",
        "schatten-xp", "psd-xp", "khinchine", "trace", "psd-counterexample",
        "smoothness", "cotype", "convolution-probe", "convolution-search",
        "scaling-witness", "displacement", "rosenthal-distortion",
        "grid-distortion", "grid-bounds", "bridge", "contraction",
        "circular-moment",
    }
