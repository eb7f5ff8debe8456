"""Run alternating parent/change pairs of the benchmark and write BENCH_<n>.json.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N --pairs 10 \\
        --out BENCH_12.json --note "what changed" [--claimed WORKLOAD:METRIC] [--traced]

``DIR`` is a checkout (for example ``git clone`` of each commit into a
scratch directory).  For each workload of ``BENCHMARK.json`` it runs that
file's ``command`` with ``--workload W --seed N --seconds S --trace 0``, where
``S`` is its ``run_seconds``, in each checkout, ``--pairs`` times, alternating
which side runs first, and reads the JSON object on the last line of each
run's standard output.  Each end-to-end metric of ``BENCHMARK.json`` is
summarised by the median and quartiles of each side's runs; ``change_wins``
counts the pairs where the change reads better, ``relative_change`` is the
change median over the parent median minus one, and ``within_bound`` says
whether the change is worse by no more than the metric's bound.  With
``--traced`` each workload also gets one ``--trace 1`` run per side, and its
per-layer metrics (work counters and layer times) go under
``trace_<workload>``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATISTICS = ("median and quartiles (q1, q3) of the {pairs} runs of each side; change_wins "
              "counts pairs where the change reads better")


def last_json(stdout: str) -> dict:
    """The result object that ``benchmarks/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: linear between order statistics)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def aggregate(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """One workload's entry from its (parent, change) run results."""
    entry = {
        "pairs": len(pairs),
        "attempted": {side: sum(run[i]["attempted"] for run in pairs)
                      for i, side in enumerate(("parent", "change"))},
        "failed": {side: sum(run[i]["failed"] for run in pairs)
                   for i, side in enumerate(("parent", "change"))},
        "metrics": {},
    }
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        before, after = statistics.median(parent), statistics.median(change)
        relative = after / before - 1.0
        entry["metrics"][name] = {
            "unit": spec["unit"],
            "parent": summary(parent),
            "change": summary(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "relative_change": round(relative, 6),
            "bound": spec["bound"],
            "within_bound": sign * relative >= -spec["bound"],
        }
    return entry


def traced_metrics(parent: dict, change: dict) -> dict:
    """Per-layer metric name -> {"parent", "change"} values of two traced runs."""
    return {name: {"parent": round(parent["metrics"][name]["value"], 6),
                   "change": round(change["metrics"][name]["value"], 6)}
            for name in parent["metrics"]}


def benchmark_argv(bench: dict, workload: str, seed: int, trace: int) -> list[str]:
    """The benchmark command of ``BENCHMARK.json`` with one run's flags."""
    return [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{bench['run_seconds']:g}", "--trace", str(trace)]


def run_once(checkout: Path, argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    sys.stderr.write(proc.stderr)  # FAILED reports, counters that differ between passes
    return last_json(proc.stdout)


def revision(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=True).stdout.strip()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claimed", metavar="WORKLOAD:METRIC")
    ap.add_argument("--traced", action="store_true", help="add one traced run per side")
    ap.add_argument("--note", required=True, help="one line on what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cpus = len(os.sched_getaffinity(0))
    doc = {
        "change": args.note,
        "parent": revision(args.parent),
        "command": " ".join(benchmark_argv(bench, "W", args.seed, 0)),
        "pairs": f"{args.pairs} per workload, alternating which side runs first",
        "host": f"{cpus}-vCPU host, times calibration-scaled by the benchmark",
        "statistics": STATISTICS.format(pairs=args.pairs),
        "claimed": (dict(zip(("workload", "metric"), args.claimed.split(":", 1)))
                    if args.claimed else None),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        argv = benchmark_argv(bench, workload, args.seed, 0)
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(getattr(args, side), argv) for side in order}
            pairs.append((runs["parent"], runs["change"]))
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {runs[side]['metrics']['throughput_rps']['value']:.4g} rps"
                for side in ("parent", "change")), flush=True)
        doc["workloads"][workload] = aggregate(pairs, bench["end_to_end"])
        if args.traced:
            argv = benchmark_argv(bench, workload, args.seed, 1)
            traced = {side: run_once(getattr(args, side), argv) for side in ("parent", "change")}
            doc[f"trace_{workload}"] = {
                "command": " ".join(argv),
                "runs": "one per side, values per traced pass",
                "metrics": traced_metrics(traced["parent"], traced["change"]),
            }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
