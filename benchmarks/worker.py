"""One benchmark process: import xplab, run passes of a workload, report.

Usage: ``python worker.py SPEC MODE SECONDS RESULT`` where SPEC is the job
file written by ``run.py``, MODE is ``probe`` (set-up only), ``measure``
(untraced passes) or ``trace`` (alternating untraced and traced passes), and
RESULT is the JSON file the worker writes.  Reports run in this process
through the click entry point of the ``xplab`` command, with output captured
in memory.

The speed of a shared host drifts by tens of percent within seconds, for
interpreted and numpy code alike.  So after every report the worker times a
fixed calibration kernel (benchmark code, about 1 ms); ``run.py`` scales the
times of each pass by the kernel's median time in that pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check  # noqa: E402

MAX_REASONS = 5
SETUP_CALIBRATIONS = 7


class Calibration:
    """A fixed mix of the work reports do (about 1 ms): an interpreted loop,
    small numpy arrays, hashing and random generator set-up.

    Of the kernels tried (each part alone, trigonometric batches), the mix
    followed the host's drift most closely over all four workloads.  It is
    created after the timed import, so numpy's import counts in the set-up.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.table = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)

    def sample(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += i * i % 7
        for _ in range(4):
            diff = np.roll(self.table, 3, axis=0) - self.table
            acc += float(np.sum(np.abs(diff) ** 3.3))
        for i in range(8):
            key = int.from_bytes(hashlib.sha256(b"calibration%d" % i).digest()[:8], "little")
            gen = np.random.Generator(np.random.Philox(key=(i, key)))
            draw = gen.integers(0, 8, size=(200, 4))
            acc += float(np.sum(np.abs(draw - 1) ** 2.0))
        return time.perf_counter() - start


def invoke(main, argv: list[str]) -> tuple[object, float, str]:
    """(exit code, wall seconds, stdout) of one ``xplab`` command."""
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="xplab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a failed report is counted
            code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out.getvalue()


class Outcomes:
    """Attempted and failed reports, with the first few failure reasons."""

    def __init__(self, z: float) -> None:
        self.z = z
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: dict, code, stdout: str) -> None:
        self.attempted += 1
        reason = check(job, code, stdout, self.z)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{job['key']} (job {job['id']}): {reason}")


def run_pass(main, jobs: list[dict], outcomes: Outcomes, calibration: Calibration,
             tracer=None) -> dict:
    """Run every job once: the wall time of each report and of the
    calibration kernel timed right after it."""
    latencies, calibrations = [], []
    for job in jobs:
        if tracer is not None:
            tracer.begin_report(job["id"])
        code, seconds, stdout = invoke(main, job["argv"])
        if tracer is not None:
            tracer.end_report(code, stdout)
        latencies.append(seconds)
        calibrations.append(calibration.sample())
        outcomes.record(job, code, stdout)
    return {"lat": latencies, "cal": calibrations}


def timed_passes(seconds: float, run_one, minimum: int) -> list:
    """Call ``run_one`` until another pass would overrun ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        last = time.perf_counter() - t0
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


def main() -> None:
    spec_path, mode, seconds, result_path = sys.argv[1:5]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    outcomes = Outcomes(spec["mc_z"])
    start = time.perf_counter()
    from xplab.cli import main as xplab_main

    code, _, stdout = invoke(xplab_main, spec["warmup"]["argv"])
    setup_s = time.perf_counter() - start
    calibration = Calibration()
    result: dict = {
        "setup_s": setup_s,
        "setup_cal": statistics.median(calibration.sample() for _ in range(SETUP_CALIBRATIONS)),
    }
    outcomes.record(spec["warmup"], code, stdout)

    jobs = spec["jobs"]
    if mode == "measure":
        result["passes"] = timed_passes(
            float(seconds), lambda i: run_pass(xplab_main, jobs, outcomes, calibration), 1
        )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()

        def one(i: int) -> dict:
            if i % 2 == 0:
                return dict(run_pass(xplab_main, jobs, outcomes, calibration), traced=False)
            tracer.install()
            try:
                timed = run_pass(xplab_main, jobs, outcomes, calibration, tracer)
            finally:
                tracer.uninstall()
            return dict(timed, traced=True, metrics=tracer.end_pass())

        result["passes"] = timed_passes(float(seconds), one, 2)
        result["spans"] = tracer.write_spans(Path(result_path).with_suffix(".spans.tsv"))

    result.update(attempted=outcomes.attempted, failed=outcomes.failed,
                  reasons=outcomes.reasons)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
