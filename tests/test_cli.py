"""CLI: run/verify/scan, config round trips, exit codes, determinism."""

import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from xplab.cli import REPORTS, ExperimentConfig, main


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
