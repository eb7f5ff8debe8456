"""xplab benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are generated from ``--seed`` before anything is timed.  Every
report runs in a fresh single-threaded worker process that imports xplab from
``src/`` (``worker.py``) and checks each output (``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics: set-up time (the
median over several fresh processes), throughput, median and tail latency,
and the peak RSS of the measuring process.  With ``--trace 1`` it alternates
untraced and traced passes and reports per-layer metrics (``tracer.py``).

Every time is scaled to a reference host speed: it is multiplied by
``CAL_REF_S`` over the median time of the calibration kernel in the same pass
(see ``worker.py``), so a report that takes 10 ms in a pass where the kernel
takes 1.25 ms counts as 8 ms.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate, materialize  # noqa: E402

ROOT = HERE.parent
SETUP_PROBES = 4
WORKER_GRACE_S = 150
CAL_REF_S = 1e-3


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_worker(spec: Path, mode: str, seconds: float, result: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec), mode, str(seconds), str(result)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        sys.exit(f"benchmark worker ({mode}) exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def speed(timed: dict) -> float:
    """Factor that scales the times of a pass to the reference speed."""
    return CAL_REF_S / statistics.median(timed["cal"])


def scaled_latencies(passes: list[dict]) -> list[list[float]]:
    return [[t * speed(p) for t in p["lat"]] for p in passes]


def end_to_end(spec: dict, result: dict, probes: list[dict]) -> tuple[dict, str]:
    passes = scaled_latencies(result["passes"])
    # each report's time is its median over the passes of the run
    typical = [statistics.median(times) for times in zip(*passes)]
    q = spec["tail_percentile"]
    tail = percentile(typical, q)
    pooled = [t for lat in passes for t in lat]
    setups = [p["setup_s"] * CAL_REF_S / p["setup_cal"] for p in (*probes, result)]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(typical) / sum(typical),
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    units = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "peak_rss_mb": "MB"}
    cal = [c for p in result["passes"] for c in p["cal"]]
    note = (f"{len(passes)} passes x {len(typical)} reports; p50 and p{q:g} of the "
            f"reports' median times; {len(pooled)} samples, "
            f"{sum(t > tail for t in pooled)} beyond the tail; set-up median of "
            f"{len(setups)} processes; calibration kernel median "
            f"{statistics.median(cal) * 1e3:.3f} ms (reference {CAL_REF_S * 1e3:g} ms)")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, note


def per_layer(result: dict) -> tuple[dict, str]:
    passes = result["passes"]
    walls = [sum(lat) for lat in scaled_latencies(passes)]
    plain = statistics.median(w for w, p in zip(walls, passes) if not p["traced"])
    traced_wall = statistics.median(w for w, p in zip(walls, passes) if p["traced"])
    traced = [(p["metrics"], speed(p)) for p in passes if p["traced"]]
    first = traced[0][0]
    values = {}
    for name in first:
        if unit(name) == "s":
            values[name] = statistics.median(m[name] * f for m, f in traced)
        else:
            values[name] = first[name]
    values["trace_overhead_ratio"] = traced_wall / plain - 1.0
    changed = sorted(k for k in first if unit(k) != "s"
                     and any(m[k] != first[k] for m, _ in traced))
    if changed:
        print(f"counters differ between traced passes: {', '.join(changed)}", file=sys.stderr)
    total = values["report_s"]
    shares = {
        "schatten": values["schatten.self_s"],
        "lattice(exhaustive)": values["lattice.gap_exhaustive_s"],
        "lattice(mc)": values["lattice.gap_mc_s"],
        "complexify": values["complexify.self_s"],
        "inequalities": values["inequalities.self_s"],
        "operators": values["operators.self_s"],
        "embeddings": values["embeddings.self_s"],
        "rng": values["rng.self_s"],
        "cli": values["cli.self_s"],
    }
    note = (f"{len(traced)} traced passes, {result['spans']} spans; share of report time: "
            + ", ".join(f"{k} {v / total:.1%}" for k, v in shares.items()))
    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}, note


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one report per slot, for the self-test")
    args = ap.parse_args()
    if not (ROOT / "src" / "xplab" / "cli.py").is_file():
        sys.exit(f"no xplab sources under {ROOT / 'src'}")

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = generate(args.workload, args.seed, tiny=args.tiny)
    for job in (spec["warmup"], *spec["jobs"]):
        materialize(job, out)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    probes = []
    if args.trace:
        result = run_worker(spec_path, "trace", args.seconds, out / "trace.json")
        metrics, note = per_layer(result)
    else:
        probes = [run_worker(spec_path, "probe", 0.0, out / f"probe{i}.json")
                  for i in range(SETUP_PROBES)]
        result = run_worker(spec_path, "measure", args.seconds, out / "measure.json")
        metrics, note = end_to_end(spec, result, probes)

    attempted = result["attempted"] + sum(p["attempted"] for p in probes)
    failed = result["failed"] + sum(p["failed"] for p in probes)
    for reason in [*result["reasons"], *(r for p in probes for r in p["reasons"])]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {note}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} reports)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
