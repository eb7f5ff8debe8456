"""tools/dump_outputs.py: the comparison that byte-identity claims rest on."""

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
