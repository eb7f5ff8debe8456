"""Self-test of the benchmark: ``python3 benchmarks/selftest.py`` (under a minute).

For every workload, at a tiny size (one report per slot), with tracing on
and off, it checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and no
  report fails its output check;
* the per-layer counters repeat exactly across two runs with the same seed;

and, in this process, that the output check accepts a correct report and
rejects a perturbed reference value, a wrong exit code and a Monte Carlo
value outside its tolerance.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import check  # noqa: E402
from worker import invoke  # noqa: E402
from workloads import WORKLOADS, generate, materialize  # noqa: E402

SEED = 5


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, \
        f"{label}: {sorted(set(got) ^ {m['name'] for m in declared})}"
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{label}: {m['name']}"


def counters(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s" and k != "trace_overhead_ratio"}


def check_rejections() -> None:
    from xplab.cli import main

    spec = generate("torus", SEED, tiny=True)
    scratch = ROOT / ".bench_out" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    job = next(j for j in spec["jobs"] if j["key"].startswith("metric-xp"))
    materialize(job, scratch)
    code, _, out = invoke(main, job["argv"])
    z = spec["mc_z"]
    assert check(job, code, out, z) is None
    bad = copy.deepcopy(job)
    bad["expect"][0]["exact"]["lhs"] *= 1 + 1e-6
    assert check(bad, code, out, z) is not None, "perturbed reference accepted"
    assert check(job, 0 if code == 2 else 2, out, z) is not None, "wrong exit code accepted"

    spec = generate("montecarlo", SEED, tiny=True)
    for job in spec["jobs"]:
        if job["args"][0] != "run":
            continue
        materialize(job, scratch)
        code, _, out = invoke(main, job["argv"])
        assert check(job, code, out, z) is None, job["key"]
        bad = copy.deepcopy(job)
        entry = bad["expect"][0]
        field, (exact, variance) = next(iter(entry["mc"].items()))
        entry["mc"][field] = [exact + 2 * z * (variance / entry["budget"]) ** 0.5, variance]
        assert check(bad, code, out, z) is not None, f"{job['key']}: shifted exact accepted"


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        check_metrics(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        check_metrics(first, bench["per_layer"], f"{workload} traced")
        assert counters(first) == counters(second), f"{workload}: counters differ"
        print(f"{workload}: ok", flush=True)
    check_rejections()
    print("output checks: ok")


if __name__ == "__main__":
    main()
