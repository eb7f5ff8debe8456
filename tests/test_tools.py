"""tools/: the output comparison that byte-identity claims rest on, and the
line counting of the unexercised-lines report."""

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
