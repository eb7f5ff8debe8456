"""tools/: the output comparison that byte-identity claims rest on, the
line counting of the unexercised-lines report, and the aggregation of
benchmark pairs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"


def report(lhs: float) -> str:
    return json.dumps({"functional": "linear_xp", "lhs": lhs, "rhs_terms": {"ell_p": 1.5}})


def write_dump(path: Path, lhs: float) -> Path:
    dump = {"linear-xp/0": [0, report(lhs), ""], "trace/0": [0, report(2.0), ""]}
    path.write_text(json.dumps(dump), encoding="utf-8")
    return path


def compare(before: Path, after: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--compare", str(before), str(after)],
                          capture_output=True, text=True, timeout=60)


def test_identical_dumps_exit_zero(tmp_path):
    result = compare(write_dump(tmp_path / "a.json", 0.25), write_dump(tmp_path / "b.json", 0.25))
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "2 of 2 commands identical"


def test_moved_float_is_named_and_exits_one(tmp_path):
    result = compare(write_dump(tmp_path / "a.json", 0.25),
                     write_dump(tmp_path / "b.json", 0.25000000000000006))
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[0] == "linear-xp/0:"
    assert lines[1].startswith("  lhs: 0.25 -> 0.25000000000000006 (relative ")
    assert lines[-1] == "1 of 2 commands identical"


def test_largest_move_is_reported_before_the_count(tmp_path):
    before = {"a/0": [0, report(0.25), ""], "b/0": [0, report(2.0), ""],
              "c/0": [0, json.dumps({"kind": "x", "lhs": 1.0}), ""]}
    after = {"a/0": [0, report(0.25000000000000006), ""],
             "b/0": [0, report(2.0000000000000018), ""],
             "c/0": [0, json.dumps({"kind": "y", "lhs": 1.0}), ""]}
    (tmp_path / "a.json").write_text(json.dumps(before), encoding="utf-8")
    (tmp_path / "b.json").write_text(json.dumps(after), encoding="utf-8")
    result = compare(tmp_path / "a.json", tmp_path / "b.json")
    assert result.returncode == 1
    # the string field of c/0 is named but is not a numeric move
    assert "  kind: 'x' -> 'y'" in result.stdout.splitlines()
    assert result.stdout.splitlines()[-2:] == [
        "2 numeric fields moved, the largest by 8.88e-16 relative", "0 of 3 commands identical"]


def test_no_move_line_when_only_strings_moved(tmp_path):
    for name, kind in (("a.json", "x"), ("b.json", "y")):
        dump = {"c/0": [0, json.dumps({"kind": kind, "lhs": 1.0}), ""]}
        (tmp_path / name).write_text(json.dumps(dump), encoding="utf-8")
    result = compare(tmp_path / "a.json", tmp_path / "b.json")
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["c/0:", "  kind: 'x' -> 'y'", "0 of 1 commands identical"]


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unexercised_counts_the_lines_that_never_ran(tmp_path):
    tool = load("unexercised", TOOL.parent / "unexercised.py")
    path = tmp_path / "sample.py"
    path.write_text(
        "def pick(x):\n"           # 1: runs at import
        "    if x:\n"              # 2
        "        return 'yes'\n"   # 3
        "    return 'no'\n"        # 4: never runs
        "\n"
        "\n"
        "def unused():\n"          # 7: runs at import
        "    return pick(0)\n"     # 8: never runs
    )
    assert tool.executable_lines(path) == {1, 2, 3, 4, 7, 8}
    with tool.traced(str(tmp_path), set()) as hits:
        assert load("sample", path).pick(1) == "yes"
    assert tool.missed(path, hits) == [4, 8]
    assert all(name == str(path) for name, _ in hits)


def run_line(throughput: float, rss: float, failed: int = 0) -> str:
    """The last stdout line of ``benchmarks/run.py --trace 0``, as it prints it."""
    metrics = {"throughput_rps": {"value": throughput, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def test_bench_pairs_aggregates_medians_quartiles_and_wins():
    tool = load("bench_pairs", TOOL.parent / "bench_pairs.py")
    specs = [{"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
             {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]
    parent = [(10.0, 90.0), (12.0, 91.0), (11.0, 89.0), (13.0, 90.0), (14.0, 92.0)]
    change = [(15.0, 99.0), (11.0, 104.0), (16.0, 103.0), (17.0, 105.0), (18.0, 106.0)]
    pairs = [(tool.last_json("set-up line\n" + run_line(*p) + "\n"),
              tool.last_json(run_line(*c, failed=i == 0)))
             for i, (p, c) in enumerate(zip(parent, change))]
    entry = tool.aggregate(pairs, specs)
    assert entry["pairs"] == 5
    assert entry["attempted"] == {"parent": 500, "change": 500}
    assert entry["failed"] == {"parent": 0, "change": 1}
    rps = entry["metrics"]["throughput_rps"]
    assert rps["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert rps["change"] == {"median": 16.0, "q1": 15.0, "q3": 17.0}
    assert rps["change_wins"] == 4  # 11 < 12 in the second pair
    assert rps["relative_change"] == 0.333333
    assert rps["within_bound"] is True
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["parent"]["median"] == 90.0
    assert rss["change_wins"] == 0
    assert rss["relative_change"] == 0.155556  # 104 / 90 - 1, over the 0.15 bound
    assert rss["within_bound"] is False
    assert (rss["unit"], rss["bound"]) == ("MB", 0.15)


def test_bench_pairs_records_the_command_it_runs():
    tool = load("bench_pairs", TOOL.parent / "bench_pairs.py")
    bench = {"command": ["python3", "benchmarks/run.py"], "run_seconds": 25}
    argv = tool.benchmark_argv(bench, "montecarlo", 90417, 1)
    assert argv == ["python3", "benchmarks/run.py", "--workload", "montecarlo",
                    "--seed", "90417", "--seconds", "25", "--trace", "1"]
    recorded = json.loads((TOOL.parent.parent / "BENCH_12.json").read_text(encoding="utf-8"))
    assert recorded["trace_montecarlo"]["command"] == " ".join(argv)
