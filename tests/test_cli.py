"""CLI: run/verify/scan, config round trips, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from xplab import __version__, cli
from xplab.cli import REPORTS, ExperimentConfig, _flatten, main
from xplab.embeddings import composite_grid_distortion
from xplab.lattice import make_sample_plan, random_grid_function
from xplab.schatten import random_psd


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
        assert flag.exit_code == 1
        assert json.loads(flag.stderr)["error"] == "ValueError"
        assert "--n" in json.loads(flag.stderr)["message"]

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
        # any finite one: the JSON writer would emit NaN or Infinity
        for value in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError, match="'p' must be a finite float"):
                ExperimentConfig.from_dict({"p": value})
        assert ExperimentConfig.from_dict({"p": 10**300}).p == 1e300


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


class TestFlagGrammar:
    """--flag value and --flag=value, bool flags without a value, the last of
    a repeated flag, and the report name wherever it stands."""

    def _same(self, runner, left, right):
        a, b = runner.invoke(main, left), runner.invoke(main, right)
        assert a.exit_code == b.exit_code == 0, a.output + b.output
        assert a.stdout == b.stdout
        return a.stdout

    def test_bool_flag_before_the_report(self, runner):
        self._same(runner, ["run", "--deterministic", "linear-xp", "--a", "1,1"],
                   ["run", "linear-xp", "--a", "1,1", "--deterministic"])

    def test_equals_form_takes_a_negative_value(self, runner):
        out = self._same(runner, ["run", "linear-xp", "--q=-1.5", "--deterministic"],
                         ["run", "linear-xp", "--q", "-1.5", "--deterministic"])
        assert json.loads(out)["config"]["q"] == -1.5

    def test_negative_coefficients(self, runner):
        out = self._same(runner, ["run", "linear-xp", "--a", "-1,2", "--deterministic"],
                         ["run", "linear-xp", "--a=-1,2", "--deterministic"])
        assert json.loads(out)["config"]["a"] == [-1.0, 2.0]

    def test_repeated_flag_keeps_the_last_value(self, runner):
        out = self._same(runner, ["run", "linear-xp", "--seed", "3", "--seed", "5",
                                  "--deterministic"],
                         ["run", "linear-xp", "--seed", "5", "--deterministic"])
        assert json.loads(out)["config"]["seed"] == 5

    def test_scan_flags_before_and_after_the_report(self, runner):
        sweep = ["--sweep", "n", "--values", "4,8"]
        rest = ["--q", "3", "--p", "6"]
        out = self._same(runner, ["scan", *sweep, "rosenthal-distortion", *rest],
                         ["scan", "rosenthal-distortion", *rest, *sweep])
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("command,extra", [
        ("run", []), ("scan", ["--sweep", "--values"]),
    ], ids=["run", "scan"])
    def test_help_lists_every_flag(self, runner, command, extra):
        text = runner.invoke(main, [command, "--help"]).stdout
        flags = ["--config", "--a", "--family", "--budget", *extra]
        flags += ["--" + f.name.replace("_", "-") for f in SCALAR_FIELDS]
        assert [flag for flag in flags if flag not in text.split()] == []
        after = runner.invoke(main, [command, "linear-xp", "--help"])
        assert after.exit_code == 0 and after.stdout == text


class TestUsageErrors:
    """Bad flags and values exit 1 with a JSON error on stderr, never 2."""

    @pytest.fixture(autouse=True)
    def workdir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        np.savetxt("a.csv", random_psd(3, 1, purpose="a").entries, delimiter=",")
        Path("one-matrix.json").write_text(json.dumps({"matrix_paths": ["a.csv"]}))
        np.savetxt("b.csv", random_psd(2, 1, purpose="b").entries, delimiter=",")
        Path("two-orders.json").write_text(json.dumps({"matrix_paths": ["b.csv", "a.csv"]}))
        Path("empty-zs.json").write_text(json.dumps({"zs": [[], []]}))
        Path("nan-p.json").write_text('{"p": NaN}')  # Python's json reads NaN
        Path("y-long.json").write_text(json.dumps({"y": [1, 0, 0]}))
        Path("y-fraction.json").write_text(json.dumps({"y": [1.5, 0]}))
        Path("subset-fraction.json").write_text(json.dumps({"subset": [1.7]}))
        Path("wide.csv").write_text("1,2,3\n4,5,6\n")
        Path("wide.json").write_text(json.dumps({"matrix_paths": ["wide.csv"]}))
        Path("empty.csv").write_text("")
        Path("empty.json").write_text(json.dumps({"matrix_paths": ["empty.csv"]}))
        Path("nan.csv").write_text("1,nan\nnan,1\n")
        Path("nan.json").write_text(json.dumps({"matrix_paths": ["a.csv", "nan.csv"]}))

    @pytest.mark.parametrize("args,error", [
        (["run", "rosenthal-distortion", "--n", "8.7"], "ValueError"),
        (["run", "linear-xp", "--bogus", "1"], "ValueError"),
        (["run", "linear-xp", "--config", "no/such/config.json"], "FileNotFoundError"),
        (["run", "nosuch"], "ValueError"),
        (["scan", "linear-xp", "--values", "1,2"], "ValueError"),
        (["run", "linear-xp", "--n"], "ValueError"),
        (["run", "linear-xp", "--deterministic=1"], "ValueError"),
        (["run", "linear-xp", "trace"], "ValueError"),
        (["run", "linear-xp", "--format", "xml"], "ValueError"),
        (["nosuch"], "ValueError"),
        (["run", "metric-xp", "--family", "bogus"], "ValueError"),
        (["run", "trace", "--kind", "holder"], "ValueError"),
        (["run", "trace", "--kind", "bogus"], "ValueError"),
        (["run", "smoothness", "--kind", "bogus"], "ValueError"),
        (["scan", "linear-xp", "--sweep", "n", "--values", "1;2"], "ValueError"),
        (["run", "trace", "--config", "one-matrix.json"], "ValueError"),
        ([], "ValueError"),
        (["run", "cotype", "--variant", "three-letter", "--s", "0"], "ValueError"),
        (["run", "cotype", "--variant", "three-letter", "--s", "-1"], "ValueError"),
        (["run", "cotype", "--variant", "rademacher", "--s", "0"], "ValueError"),
        (["run", "cotype", "--variant", "rademacher", "--s", "-1"], "ValueError"),
        (["run", "smoothness", "--kind", "pisier", "--n", "0"], "ValueError"),
        (["run", "convolution-probe", "--n", "0"], "ValueError"),
        (["run", "scaling-witness", "--m", "0"], "ValueError"),
        (["run", "convolution-probe", "--m", "1", "--n", "6", "--budget", "4000"], "ValueError"),
        *((["run", name, "--d", "0"], "ValueError")
          for name in ("trace", "psd-xp", "schatten-xp", "khinchine")),
        (["verify"], "ValueError"),
        (["verify", "inequalities", "extra"], "ValueError"),
        (["verify", "--bogus"], "ValueError"),
        (["--bogus", "run"], "ValueError"),
    ], ids=["fractional-int", "unknown-flag", "missing-config", "unknown-report",
            "scan-without-sweep", "flag-without-value", "bool-flag-with-value",
            "second-report", "unknown-format", "unknown-command", "unknown-family",
            "holder-without-words", "unknown-trace-kind", "unknown-smoothness-kind",
            "two-sweeps", "trace-one-matrix", "no-command",
            "three-letter-cotype-s-zero", "three-letter-cotype-s-negative",
            "rademacher-cotype-s-zero", "rademacher-cotype-s-negative",
            "smoothness-n-zero", "probe-n-zero", "scaling-witness-m-zero",
            "probe-torus-over-budget", "trace-d-zero", "psd-xp-d-zero",
            "schatten-xp-d-zero", "khinchine-d-zero", "verify-without-suite",
            "verify-extra-argument", "verify-unknown-flag", "unknown-group-flag"])
    def test_exit_one_with_json_error(self, runner, args, error):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == error

    @pytest.mark.parametrize("name", ["trace", "psd-xp", "schatten-xp", "khinchine"])
    def test_matrix_order_zero_is_named(self, runner, name):
        # not numpy's "zero-size array to reduction operation minimum"
        res = runner.invoke(main, ["run", name, "--d", "0"])
        assert json.loads(res.stderr)["message"] == "d must be >= 1"

    @pytest.mark.parametrize("args,message", [
        (["run", "trace", "--config", "two-orders.json"], "all matrices must have equal shape"),
        (["run", "psd-xp", "--config", "two-orders.json"], "all matrices must have equal shape"),
        (["run", "metric-xp", "--family", "cosine", "--n", "0"], "n must be >= 1"),
        *((["run", name, "--m", "0", "--n", "-1"], "n must be >= 1")
          for name in ("convolution-search", "scaling-witness")),
        *((["run", name, "--config", "empty-zs.json", "--a", "1,1"],
           "vectors must not be empty: got 2 vectors of length 0")
          for name in ("bridge", "contraction")),
        # default unit vectors: not numpy's np.eye(-1) message, nor the plan's
        (["run", "bridge", "--n", "-1"], "n must be >= 1"),
        (["run", "bridge", "--n", "0"], "n must be >= 1"),
        (["run", "contraction", "--n", "0"], "n must be >= 1"),
        (["verify"], "missing suite; choose one of complexify, embeddings, geodesic, "
                     "inequalities, lattice, operators, trace or all"),
        # non-finite numbers: not a NaN or Infinity in the JSON, nor
        # OverflowError from the int cast of a swept int field
        (["run", "linear-xp", "--p", "nan", "--deterministic"],
         "config field 'p' must be a finite float, got nan"),
        (["run", "linear-xp", "--p", "inf"], "config field 'p' must be a finite float, got inf"),
        (["run", "linear-xp", "--config", "nan-p.json"],
         "config field 'p' must be a finite float, got nan"),
        (["scan", "linear-xp", "--sweep", "p", "--values", "2,nan"],
         "sweep values '2,nan' include a non-finite value"),
        (["scan", "linear-xp", "--sweep", "p", "--values", "inf"],
         "sweep values 'inf' include a non-finite value"),
        (["scan", "linear-xp", "--sweep", "budget", "--values", "1e400"],
         "sweep values '1e400' include a non-finite value"),
        (["scan", "linear-xp", "--sweep", "p", "--values", "geom:2:4:0"],
         "sweep values 'geom:2:4:0' are not geom:start:stop:count with count >= 1"),
        (["scan", "linear-xp", "--sweep", "p", "--values", "geom:2:4"],
         "sweep values 'geom:2:4' are not geom:start:stop:count with count >= 1"),
        # non-positive exponents, grids below {0..1}^1 and empty searches:
        # not a ZeroDivisionError, a finite constant or a null bound
        (["run", "smoothness", "--kind", "bmw", "--q", "0", "--p", "4", "--n", "2"],
         "BMW exponent q=0.0 must be > 0"),
        (["run", "smoothness", "--kind", "enflo", "--r", "-1"], "Enflo exponent r=-1.0 must be > 0"),
        (["run", "smoothness", "--kind", "pisier", "--p", "0"], "Pisier exponent p=0.0 must be > 0"),
        (["run", "grid-distortion", "--m", "-3", "--n", "2"],
         "grid distortion requires m >= 1 and n >= 1, got m=-3, n=2"),
        (["run", "grid-distortion", "--n", "-1"],
         "grid distortion requires m >= 1 and n >= 1, got m=2, n=-1"),
        (["run", "convolution-search", "--trials", "0"],
         "convolution search requires trials >= 1, got trials=0"),
        # results that overflow at a finite but huge exponent: not a NaN or
        # Infinity in the document, nor nan or inf in a CSV cell
        (["run", "linear-xp", "--p", "1e308", "--deterministic"],
         "report fields are not finite: report.rhs_terms.rademacher = nan, "
         "report.implied_constant = nan"),
        (["run", "trace", "--kind", "main", "--q", "1e300", "--deterministic"],
         "report fields are not finite: report.lhs = inf, report.rhs_terms.mixed = inf, "
         "report.implied_constant = nan"),
        (["run", "trace", "--kind", "main", "--q", "1e300", "--format", "csv"],
         "report fields are not finite: report.lhs = inf, report.rhs_terms.mixed = inf, "
         "report.implied_constant = nan"),
        (["scan", "linear-xp", "--sweep", "p", "--values", "4,1e308"],
         "report fields are not finite at p=1e+308: rhs_terms.rademacher = nan, "
         "implied_constant = nan"),
        # pi^{p+1}/2^p passes the largest float: not an OverflowError
        (["run", "bridge", "--p", "1600", "--deterministic"],
         "report fields are not finite: report.extra.intermediates.edge_upper.rhs = inf, "
         "report.extra.intermediates.diagonal_upper.rhs = inf"),
        # exact rationals past the largest float: not an OverflowError
        (["run", "psd-counterexample", "--s", "4", "--q", "250", "--deterministic"],
         "report fields are not finite: report.quadratic_form = -inf, "
         "report.min_eigenvalue = nan"),
        # config lists: not numpy's shape message after an M^3 character
        # table, nor a silent int() of a fractional entry
        (["run", "metric-xp", "--family", "character", "--n", "2", "--config", "y-long.json"],
         "config field 'y' must have n=2 entries, got 3"),
        (["run", "metric-xp", "--family", "character", "--n", "2", "--config",
          "y-fraction.json"], "config field 'y[0]' must be int, got 1.5"),
        (["run", "displacement", "--m", "1", "--n", "2", "--config", "subset-fraction.json"],
         "config field 'subset[0]' must be int, got 1.7"),
        # matrix files: not numpy's broadcast message, nor loadtxt's warning
        # on stderr before the error
        (["run", "schatten-xp", "--n", "1", "--config", "wide.json"],
         "a matrix must be square, got shape (2, 3)"),
        pytest.param(["run", "psd-xp", "--n", "1", "--k", "1", "--config", "empty.json"],
                     "a matrix must have order >= 1",
                     marks=pytest.mark.filterwarnings("error::UserWarning")),
        # not every eigensolve, then an exit that names report fields
        (["run", "schatten-xp", "--n", "2", "--config", "nan.json"],
         "matrix file 'nan.csv' has entries that are not finite"),
    ], ids=["trace-two-orders", "psd-xp-two-orders", "cosine-n-zero",
            "search-negative-n", "witness-negative-n", "bridge-empty-vectors",
            "contraction-empty-vectors", "bridge-negative-n", "bridge-zero-n",
            "contraction-zero-n", "verify-without-suite", "run-p-nan", "run-p-inf",
            "config-p-nan", "scan-nan", "scan-inf", "scan-int-overflow", "geom-count-zero",
            "geom-two-fields", "bmw-q-zero", "enflo-r-negative", "pisier-p-zero",
            "grid-negative-m", "grid-negative-n", "search-zero-trials", "json-nan",
            "json-inf", "csv-inf", "scan-row-nan", "bridge-huge-p",
            "counterexample-overflow", "y-length", "y-fraction", "subset-fraction",
            "non-square-csv", "empty-csv", "non-finite-csv"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_input_is_named(self, runner, args, message):
        # not numpy's broadcast, stack or scalar-array message, nor the
        # ZeroDivisionError of 0 ** -1 in the budget check or of a block of
        # empty vectors
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert json.loads(res.stderr) == {"error": "ValueError", "message": message}


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

    @pytest.mark.parametrize("args", [
        # m = 1 violates both sample-size hypotheses of the torus inequality
        ["metric-xp", "--m", "1", "--n", "2", "--k", "1", "--p", "4"],
        # 1 < 3^{1/2}/sqrt(2): m >= k^{1/p}/sqrt(p) fails
        ["reverse-metric-xp", "--m", "1", "--n", "3", "--k", "3", "--p", "2"],
    ], ids=["metric-xp", "reverse-metric-xp"])
    def test_hypothesis_warning_exit_code(self, runner, args):
        res = runner.invoke(main, ["run", *args, "--deterministic"])
        assert res.exit_code == 2
        assert json.loads(res.output)["report"]["warnings"]

    @pytest.mark.parametrize("m,note", [
        ("1", "lhs is 0 for every f on Z_4: x+eps+{-1,1}^n and x-eps+{-1,1}^n "
              "are the same points mod 4, so there is no beta lower bound"),
        ("2", "implied_constant is (rad+edge)/lhs inverted: see extra"),
    ], ids=["z4-structural-zero", "z8"])
    def test_probe_note(self, runner, m, note):
        res = runner.invoke(main, ["run", "convolution-probe", "--m", m, "--n", "2",
                                   "--deterministic"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)["report"]
        assert report["notes"] == [note]
        assert (report["lhs"] == 0.0) == (report["extra"] == {}) == (m == "1")

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

    def test_sign_plan_sized_from_the_coefficients(self, runner):
        # 14 coefficients and no --n: the budget must see 2^14 sign patterns
        a = ",".join(str(0.1 * j + 0.3) for j in range(14))
        base = ["run", "linear-xp", "--a", a, "--k", "2", "--budget", "100",
                "--deterministic"]
        res = runner.invoke(main, base)
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)["report"]
        assert report["plan"]["mode"] == "monte-carlo"
        with_n = runner.invoke(main, [*base, "--n", "14"])
        assert report == json.loads(with_n.output)["report"]

    def test_contraction_default_vectors_from_the_coefficients(self, runner):
        # no --n and no zs: one unit vector per coefficient
        res = runner.invoke(main, ["run", "contraction", "--a", "1,2,3", "--deterministic"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["report"]["params"]["n"] == 3

    def test_bridge_with_zero_vectors_is_degenerate(self, runner, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"zs": [[0.0, 0.0], [0.0, 0.0]], "n": 2}))
        res = runner.invoke(main, ["run", "bridge", "--config", str(path), "--deterministic"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.stdout)["report"]
        assert report["degenerate"] is True
        assert report["extra"]["metric"]["gamma"] is None
        assert report["extra"]["linear_constant_from_gamma"] is None

    @pytest.mark.parametrize("args", [["--m", "8", "--p", "400"], ["--p", "1100"],
                                      ["--p", "625"]], ids=["m8-p400", "p1100", "p625"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bridge_at_large_p_reports(self, runner, args):
        # (pi/m)^p and m^p pass the largest float, their quotients do not
        res = runner.invoke(main, ["run", "bridge", *args, "--deterministic"])
        assert res.exit_code == 0, res.output
        cells = _flatten(json.loads(res.stdout)["report"])
        assert all(math.isfinite(v) for v in cells.values() if isinstance(v, float))
        assert cells["extra.intermediates.edge_upper.rhs"] > 0

    def test_trace_with_matrix_files_draws_no_matrices(self, runner, tmp_path, monkeypatch):
        paths = []
        for name in ("a", "b"):
            paths.append(str(tmp_path / f"{name}.csv"))
            np.savetxt(paths[-1], random_psd(3, 1, purpose=name).entries, delimiter=",")
        (tmp_path / "cfg.json").write_text(json.dumps({"matrix_paths": paths}))

        def no_draw(*args, **kwargs):
            raise AssertionError("random_psd called with matrix files given")

        monkeypatch.setattr(cli, "random_psd", no_draw)
        res = runner.invoke(main, ["run", "trace", "--config", str(tmp_path / "cfg.json"),
                                   "--deterministic"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("args", [["--n", "6"], ["--n", "0"], ["--budget", "0"],
                                      ["--s", "0"], ["--m", "0"]],
                             ids=["n6", "n-zero", "budget-zero", "s-zero", "m-zero"])
    def test_unknown_cotype_variant_named_before_any_grid(self, runner, monkeypatch, args):
        # named first: before the 16^6 table is drawn, and before a bad --n,
        # --budget, --s or --m
        draws = mock.Mock(wraps=cli._grid_function)
        monkeypatch.setattr(cli, "_grid_function", draws)
        res = runner.invoke(main, ["run", "cotype", "--variant", "bogus", *args, "--deterministic"])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["message"] == "unknown cotype variant 'bogus'"
        assert draws.call_count == 0

    @pytest.mark.parametrize("y,tables", [([1] + [0] * 6, 0), ([1, 3], 1)],
                             ids=["seven-entries", "n-entries"])
    def test_y_longer_than_n_builds_no_table(self, runner, monkeypatch, tmp_path, y, tables):
        # a y of 7 entries at n = 2 is refused before its 8^7 character
        # table is built
        (tmp_path / "y.json").write_text(json.dumps({"y": y}))
        built = mock.Mock(wraps=cli.character)
        monkeypatch.setattr(cli, "character", built)
        res = runner.invoke(main, ["run", "metric-xp", "--family", "character", "--n", "2",
                                   "--config", str(tmp_path / "y.json"), "--deterministic"])
        assert built.call_count == tables
        if not tables:
            assert res.exit_code == 1
            assert json.loads(res.stderr)["message"] == (
                "config field 'y' must have n=2 entries, got 7")

    def test_three_letter_cotype_budget_counts_three_letters(self, runner):
        # 2^8 points and 3^8 patterns: 1,679,616 terms exceed the budget
        res = runner.invoke(main, [
            "run", "cotype", "--variant", "three-letter", "--m", "1", "--n", "8",
            "--budget", "65536", "--deterministic",
        ])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["report"]["plan"]["mode"] == "monte-carlo"


class TestPlanSizedFromTheInput:
    """Each plan counts the input a report runs on (a file's grid, the given
    vectors) and only the terms it enumerates, whatever ``--m``, ``--n`` and
    ``--k`` say; the probe and search budget checks count the same way."""

    @pytest.fixture()
    def workdir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        f = random_grid_function(8, 4, 1, 4.0, seed=1)
        Path("f84.json").write_text(json.dumps(f.to_json_dict()))
        Path("zs.json").write_text(json.dumps({"zs": [[0.3, -0.2], [0.5, 0.1]]}))

    @pytest.mark.parametrize("args,code,fields,same_as", [
        (["metric-xp", "--function-path", "f84.json", "--m", "2", "--n", "2", "--k", "2",
          "--budget", "1000"], 2, {"plan.mode": "monte-carlo", "params.n": 4}, None),
        (["bridge", "--config", "zs.json", "--n", "30"], 0, {"plan.mode": "exhaustive"},
         ["bridge", "--config", "zs.json", "--n", "2"]),
        (["khinchine", "--n", "2", "--k", "3"], 0, {"params.n": 2}, None),
        (["contraction", "--a", "1,2", "--k", "5"], 0, {"params.n": 2}, None),
        (["cotype", "--n", "2", "--k", "3"], 0, {"plan.mode": "exhaustive"}, None),
        (["psd-xp", "--n", "21", "--k", "2", "--d", "2"], 0, {"plan.mode": "exhaustive"}, None),
        (["convolution-probe", "--function-path", "f84.json", "--m", "1", "--n", "2",
          "--budget", "100"], 1, {}, None),
        (["convolution-search", "--m", "1", "--n", "8"], 1, {}, None),
        # (2m)^n points times 2^n sign patterns: 4^2 * 4 = 64 terms
        (["scaling-witness", "--m", "2", "--n", "2", "--budget", "63"], 1, {}, None),
        (["scaling-witness", "--m", "2", "--n", "5", "--k", "2", "--budget", "1000"], 1, {},
         None),
        # (4m)^n points times 2^n sign patterns: 4^2 * 4 = 64 terms
        (["displacement", "--m", "1", "--n", "2", "--budget", "63"], 1, {}, None),
        (["displacement", "--m", "2", "--n", "4", "--k", "2", "--budget", "1000"], 1, {}, None),
        # the file's 8^4 points times 2^4 sign patterns
        (["displacement", "--function-path", "f84.json", "--m", "1", "--n", "2",
          "--budget", "1000"], 1, {}, None),
        # 2^n points times 2^n sign rows (Pisier) or n flips (Enflo): 2^20 and
        # 2^16 * 16 terms pass the default budget of 1e6
        (["smoothness", "--kind", "pisier", "--n", "10"], 1, {}, None),
        (["smoothness", "--kind", "pisier", "--n", "10", "--budget", "2e6"], 0,
         {"params.n": 10}, None),
        (["smoothness", "--kind", "enflo", "--n", "16"], 1, {}, None),
        (["smoothness", "--kind", "enflo", "--n", "16", "--budget", "2e6"], 0,
         {"params.n": 16}, None),
    ], ids=["grid-file-dimension", "bridge-vectors-not-n", "khinchine-unused-k",
            "contraction-unused-k", "cotype-unused-k", "psd-xp-no-sign-patterns",
            "probe-grid-file-over-budget", "search-trials-over-budget",
            "witness-terms-over-budget", "witness-large-torus-over-budget",
            "displacement-terms-over-budget", "displacement-large-torus-over-budget",
            "displacement-grid-file-over-budget", "pisier-over-budget", "pisier-larger-budget",
            "enflo-over-budget", "enflo-larger-budget"])
    def test_plan_and_budget_check(self, runner, workdir, args, code, fields, same_as):
        res = runner.invoke(main, ["run", *args, "--deterministic"])
        assert res.exit_code == code, res.output
        if code == 1:
            assert json.loads(res.stderr)["error"] == "ValueError"
            return
        report = json.loads(res.stdout)["report"]
        flat = _flatten(report)
        assert {key: flat[key] for key in fields} == fields
        if same_as is not None:
            other = runner.invoke(main, ["run", *same_as, "--deterministic"])
            assert report == json.loads(other.stdout)["report"]

    @pytest.mark.parametrize("args,message", [
        (["scaling-witness", "--n", "100000"],
         "1 x 2^100000 x 4^100000 terms exceed the budget 1000000"),
        (["displacement", "--n", "100000"],
         "1 x 2^100000 x 8^100000 terms exceed the budget 1000000"),
        (["grid-distortion", "--m", "1", "--n", "100000"],
         "2^100000 grid points exceed the pair budget"),
        (["smoothness", "--kind", "pisier", "--n", "100000000"],
         "1 x 2^100000000 x 2^100000000 terms exceed the budget 1000000"),
    ], ids=["witness", "displacement", "grid", "pisier"])
    def test_huge_n_is_refused_by_the_budget(self, runner, args, message):
        # term counts of more than 4,300 digits, which str() of the exact
        # integer refuses to print
        res = runner.invoke(main, ["run", *args, "--deterministic"])
        assert res.exit_code == 1
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert json.loads(line) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("args,message", [
        # q^2 products of rationals whose size grows linearly in q
        (["psd-counterexample", "--q", "1500"],
         "1500^2 terms of the exact power exceed the budget 1000000"),
        (["psd-counterexample", "--q", "1e308"],
         "1e+308^2 terms of the exact power exceed the budget 1000000"),
        (["psd-counterexample", "--q", "11", "--budget", "100"],
         "11^2 terms of the exact power exceed the budget 100"),
        (["psd-counterexample", "--q", "10", "--budget", "100"], None),
        (["psd-counterexample", "--q", "2.5", "--budget", "1"], None),
        # one objective value per support size s = 1..n
        (["rosenthal-distortion", "--n", "2000000"],
         "2000000 support sizes exceed the budget 1000000"),
        (["rosenthal-distortion", "--n", "101", "--budget", "100"],
         "101 support sizes exceed the budget 100"),
        (["rosenthal-distortion", "--n", "100", "--budget", "100"], None),
        # n^2 entries of the default unit vectors
        (["bridge", "--n", "3000"],
         "1 x 3000^2 terms exceed the budget 1000000"),
        (["contraction", "--a", ",".join(["1"] * 11), "--budget", "100"],
         "1 x 11^2 terms exceed the budget 100"),
        (["contraction", "--a", ",".join(["1"] * 10), "--budget", "100"], None),
    ], ids=["counterexample", "counterexample-huge-q", "counterexample-small-budget",
            "counterexample-at-budget", "counterexample-fractional-q", "rosenthal",
            "rosenthal-small-budget", "rosenthal-at-budget", "bridge-unit-vectors",
            "contraction-unit-vectors", "contraction-at-budget"])
    def test_input_sized_work_is_refused_by_the_budget(self, runner, args, message):
        res = runner.invoke(main, ["run", *args, "--deterministic"])
        if message is None:
            assert res.exit_code == 0, res.output
            return
        assert res.exit_code == 1
        assert res.stdout == ""
        assert json.loads(res.stderr) == {"error": "ValueError", "message": message}

    def test_budget_decisions_equal_the_exact_counts(self):
        """Plan modes, probe refusals and grid-pair refusals, taken through
        ``lattice._count``, against the exact integers on both sides of each
        budget's bit length."""
        budgets = [1, 2, 3, 5, 63, 64, 100, 1000, 4096, 65535, 10**6]
        for modulus, letters, n, budget in itertools.product(
                (1, 2, 3), (1, 2, 3), range(1, 25), budgets):
            for k in range(n + 1):
                exact = (modulus * letters)**n <= budget and math.comb(n, k) <= budget
                plan = make_sample_plan(modulus, n, k, budget, 0, letters)
                assert plan.mode == ("exhaustive" if exact else "monte-carlo")
        for budget in [-5, -1, 0, *budgets]:
            cfg = ExperimentConfig(budget=budget)
            # a base of modulus times letters, e.g. 6 for Z_3 with 2 letters
            for base, n, copies in itertools.product(
                    (1, 2, 3, 4, 6, 8, 9), range(1, 25), (-3, 0, 1, 2, 7, 20)):
                refused = copies * base**n > budget
                with pytest.raises(ValueError) if refused else contextlib.nullcontext():
                    cli._probe_modulus(cfg, base, n, copies=copies)
            for m, n in itertools.product((1, 2, 3, 7), range(1, 25)):
                count = (m + 1)**n
                refused = count * (count - 1) // 2 > budget
                message = "pair budget" if refused else "unknown embedding"
                with pytest.raises(ValueError, match=message):
                    composite_grid_distortion(m, n, 3.0, 4.0, "bogus", budget=budget)


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
            assert row.pop("warnings") == "; ".join(doc["report"]["warnings"])
            cells = _numeric_cells(row)
            assert cells.pop("value") == float(value)
            assert cells == {k: v for k, v in _flatten(doc["report"]).items()
                             if isinstance(v, (int, float, bool))}

    def test_format_json_rejected(self, runner):
        base = ["scan", "rosenthal-distortion", "--sweep", "n", "--values", "4,8",
                "--q", "3", "--p", "6"]
        res = runner.invoke(main, [*base, "--format", "json"])
        assert res.exit_code == 1
        assert json.loads(res.stderr)["error"] == "ValueError"
        assert res.stdout == ""
        csv_res = runner.invoke(main, [*base, "--format", "csv"])
        assert csv_res.exit_code == 0, csv_res.output
        assert csv_res.stdout == runner.invoke(main, base).stdout
        rows = list(csv.DictReader(io.StringIO(csv_res.stdout)))
        assert [row["warnings"] for row in rows] == ["", ""]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_config_file_format(self, runner, tmp_path, fmt):
        path = tmp_path / "fmt.json"
        path.write_text(json.dumps({"format": fmt}))
        base = ["scan", "rosenthal-distortion", "--sweep", "n", "--values", "4",
                "--q", "3", "--p", "6"]
        res = runner.invoke(main, [*base, "--config", str(path)])
        if fmt == "json":
            assert res.exit_code == 1
            assert json.loads(res.stderr)["error"] == "ValueError"
            assert res.stdout == ""
        else:
            assert res.exit_code == 0, res.output
            assert res.stdout == runner.invoke(main, base).stdout
            assert res.stdout.startswith("sweep,value")

    def test_geometric_values(self, runner):
        res = runner.invoke(main, [
            "scan", "psd-counterexample", "--sweep", "s",
            "--values", "geom:0.01:0.5:4", "--q", "4", "--big-k", "2",
        ])
        assert res.exit_code == 0, res.output
        assert len(res.output.strip().splitlines()) == 5


class TestEveryReportPath:
    """Input paths of ``run`` that no other test or benchmark command takes,
    each once at small size.  File inputs are written to the working
    directory and given through ``--config``."""

    @pytest.fixture()
    def workdir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        f = random_grid_function(4, 2, 1, 4.0, seed=1)
        Path("f.json").write_text(json.dumps(f.to_json_dict()))
        for name in ("a", "b"):
            np.savetxt(f"{name}.csv", random_psd(3, 1, purpose=name).entries, delimiter=",")

    @pytest.mark.parametrize("args,config", [
        (["metric-xp", "--m", "2", "--family", "character"], None),
        (["metric-xp", "--m", "1", "--family", "indicator"], None),
        (["metric-xp", "--m", "1", "--family", "cosine"], None),
        (["metric-xp", "--m", "1"], {"function_path": "f.json"}),
        (["trace"], {"matrix_paths": ["a.csv", "b.csv"]}),
        (["schatten-xp", "--k", "1"], {"matrix_paths": ["a.csv", "b.csv"]}),
        (["trace", "--kind", "holder", "--q", "3"], {"word_a": [1.5, 1.5], "word_b": [1.0]}),
        (["scaling-witness", "--m", "2", "--n", "2"], None),
        (["grid-bounds", "--m", "4", "--n", "8", "--q", "3", "--p", "6"], None),
        (["convolution-search", "--m", "1", "--n", "2", "--trials", "2"], None),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_report_runs(self, runner, workdir, args, config):
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            args = [*args, "--config", "cfg.json"]
        res = runner.invoke(main, ["run", *args, "--deterministic"])
        assert res.exit_code in (0, 2), res.output
        assert json.loads(res.stdout)["schema"] == "xp-report/1"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_holder_params_are_the_words_in_order(self, runner, workdir, fmt):
        Path("cfg.json").write_text(json.dumps({"word_a": [1.5, 1.5], "word_b": [1.0]}))
        res = runner.invoke(main, ["run", "trace", "--kind", "holder", "--q", "3",
                                   "--config", "cfg.json", "--format", fmt])
        assert res.exit_code == 0, res.output
        if fmt == "json":
            params = json.loads(res.stdout)["report"]["params"]
            assert (params["a"], params["b"]) == ([1.5, 1.5], [1.0])
        else:
            header, row = csv.reader(io.StringIO(res.stdout))
            assert [(key, cell) for key, cell in zip(header, row)
                    if key.startswith("report.params.")] == [
                ("report.params.d", "1"), ("report.params.kind", "Holder"),
                ("report.params.q", "3.0"), ("report.params.a.0", "1.5"),
                ("report.params.a.1", "1.5"), ("report.params.b.0", "1.0")]

    def test_grid_distortion_scale_witness_is_the_contraction(self, runner):
        res = runner.invoke(main, ["run", "grid-distortion", "--m", "2", "--n", "2",
                                   "--which", "rosenthal", "--q", "3", "--p", "6"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.stdout)["report"]
        assert report["scale_witness"] == report["contraction"]


class TestVerify:
    def test_geodesic_suite_passes(self, runner):
        res = runner.invoke(main, ["verify", "geodesic"])
        assert res.exit_code == 0, res.output
        assert "pass" in res.output and "FAIL" not in res.output

    def test_all_suites_pass(self, runner):
        res = runner.invoke(main, ["verify", "all"])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output
        assert "lattice: gap moment translation invariance" in res.output

    def test_failed_check_exits_one(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "SUITES", {"geodesic": lambda: [("broken", False, 2.0, 1.0)]})
        res = runner.invoke(main, ["verify", "all"])
        assert res.exit_code == 1
        assert "geodesic: broken" in res.stdout and "FAIL" in res.stdout
        assert res.stderr == "1 check(s) failed\n"

    def test_unknown_suite_rejected(self, runner):
        res = runner.invoke(main, ["verify", "bogus"])
        assert res.exit_code == 1
        err = json.loads(res.stderr)
        assert err["error"] == "ValueError" and "'bogus'" in err["message"]
        assert res.stdout == ""


class TestOutputStreams:
    """A report written to a swapped-in stream must not keep that stream alive.

    The CLI looks up ``sys.stdout`` and ``sys.stderr`` at each write and keeps
    no reference to them, or an in-process caller that captures each report
    in a fresh buffer would leak every one.
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


class TestEntryPoint:
    """The in-process call of the benchmark worker and the dump tool, the
    import of the console script, and the help and version answers."""

    @pytest.mark.parametrize("args,code", [
        (["run", "linear-xp", "--a", "1,1", "--deterministic"], 0),
        (["run", "metric-xp", "--m", "1", "--n", "2", "--k", "1", "--deterministic"], 2),
        (["run", "linear-xp", "--k", "9"], 1),
        (["verify", "geodesic"], 0),
        (["--help"], 0), (["--version"], 0), (["run", "--help"], 0), (["verify", "--help"], 0),
    ], ids=["report", "warnings", "error", "verify", "help", "version", "run-help",
            "verify-help"])
    def test_every_path_raises_system_exit(self, args, code):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_info:
            main.main(args=args, prog_name="xplab", standalone_mode=False)
        assert exit_info.value.code == code, err.getvalue()
        assert (err if code == 1 else out).getvalue()

    def test_import_loads_no_click(self):
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", "import sys, xplab.cli; assert 'click' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60)
        assert result.returncode == 0, result.stderr

    def test_closed_stdout_exits_one_silently(self):
        # 2,000 scan rows (about 140 KB) outgrow the pipe, so the buffered
        # stdout of a pipe writes again after the reader has taken one line and
        # closed it, and fails with EPIPE (an unbuffered one could stop short
        # with a partial write instead)
        src = Path(cli.__file__).resolve().parent.parent
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        argv = [sys.executable, "-m", "xplab.cli", "scan", "linear-xp", "--a", "1,1",
                "--n", "2", "--k", "1", "--sweep", "seed",
                "--values", ",".join(map(str, range(2000)))]
        with subprocess.Popen(argv, env={**env, "PYTHONPATH": str(src)}, bufsize=0,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"sweep,value,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert proc.stderr.read() == b""

    @pytest.mark.parametrize("args", [
        ["run", "linear-xp", "--p", "1e308", "--deterministic"],
        ["run", "linear-xp", "--p", "1e308", "--format", "csv"],
        ["scan", "linear-xp", "--sweep", "p", "--values", "4,1e308"],
        ["run", "bridge", "--p", "1600", "--deterministic"],
    ], ids=["run-json", "run-csv", "scan", "bridge"])
    def test_overflow_leaves_one_json_line_on_stderr(self, args):
        # numpy's overflow warning would go to stderr ahead of the error; in
        # process, pytest captures warnings, so this runs in a subprocess
        src = Path(cli.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-m", "xplab.cli", *args],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert json.loads(lines[0])["message"].startswith("report fields are not finite")

    def test_help_lists_every_command(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        assert {"run", "scan", "verify"} <= set(res.stdout.split())

    def test_version(self, runner):
        assert runner.invoke(main, ["--version"]).stdout == f"xplab, version {__version__}\n"

    def test_console_script_reads_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["xplab", "verify", "bogus"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 1
        assert "'bogus'" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_help_names_every_report_whole(self, runner, command):
        text = runner.invoke(main, [command, "--help"]).stdout
        assert text.startswith(f"Usage: xplab {command} REPORT [FLAGS]...\n")
        assert cli._COMMANDS[command][0].__doc__ in text and "\b" not in text
        words = text.replace(",", " ").replace(".", " ").split()
        assert [name for name in REPORTS if name not in words] == []


def test_every_report_has_builder():
    assert set(REPORTS) == {
        "linear-xp", "reverse-linear-xp", "metric-xp", "reverse-metric-xp",
        "schatten-xp", "psd-xp", "khinchine", "trace", "psd-counterexample",
        "smoothness", "cotype", "convolution-probe", "convolution-search",
        "scaling-witness", "displacement", "rosenthal-distortion",
        "grid-distortion", "grid-bounds", "bridge", "contraction",
        "circular-moment",
    }
