"""Dump the output of every benchmark command, to check that a change keeps it.

Usage, from the repository root::

    python3 tools/dump_outputs.py OUT.json [--src DIR]
    python3 tools/dump_outputs.py --compare BEFORE.json AFTER.json

The first form runs, in this process, every command the benchmark can issue:
the ``POOL`` instances of each pooled template and three seeded draws of each
closed-form template of ``benchmarks/workloads.py`` (read, never written).
It then runs each report of ``xplab.cli.REPORTS`` at its default parameters
three ways, which the benchmark does not: ``run NAME --deterministic`` in
JSON and in CSV, and ``scan NAME --sweep seed --values 1,2``; then the
``EXTRA`` sizes, ``verify all`` and the ``USAGE`` rows as given.  An
``EXTRA`` row that ends in a dict runs with that dict as its ``--config``
file, and its key names the dict, not the file.
xplab is imported from ``DIR`` (default: ``src/`` of this checkout), config
files go to a temporary directory, and ``OUT.json`` maps each command's key
to ``[exit code, stdout, stderr]``.

The second form prints every key whose entry differs and, for JSON reports,
each field that moved, with its relative difference for numbers; then, if
numbers moved, how many and the largest relative move.  It exits 1 if any
entry differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRAWS = 3
# sizes of reports whose code neither the benchmark nor the default runs
# reach: exact counterexample powers, Pisier and probe sign sums at small n
# and at sizes past one block of sign sums, Pisier at n = 10 (2^20 terms,
# which the default budget refuses), the probe on Z_4, scaling witnesses,
# both grid embeddings (at n = 8 over more than one block of pairwise rows),
# bridges at n = 3 (the second takes its diagonal's Z_16^3 in 13 blocks), at
# d = n = 4, at p = 1 (the smallest exponent, a kink at every zero of the
# integrand) and at large p (m = 8, p = 400 reports; p = 1600 names its
# infinite constants), a sampled metric-xp at d = 9 (sums of 8 or more value
# terms), Monte-Carlo gathers of a mirror law and of three letters over more
# than one block of samples, a scaling witness and a displacement over a
# budget of 1,000 terms, sampled subsets at the 4,096-draw cap and across two
# blocks of uniforms, plan sizes that --k or sign patterns the report never
# uses would move, psd-xp at integer q, d = 1 and k = n, the lambda family at
# r = 0, r near 0 and d = 1, a counterexample at fractional q, budget
# refusals at n whose term counts pass 4,300 digits, budget refusals of an
# exact counterexample power, a distortion objective and default unit
# vectors past the default budget, Monte-Carlo cotype and metric-xp plans
# whose half-period shifts or edges have as many terms as the budget and one
# more, the character, indicator and cosine families, a config y and subset
# and their refusals (a y of the wrong length, fractional entries), a
# geometric int sweep, and the verify oracles
EXTRA = [
    ["run", "metric-xp", "--m", "1", "--n", "6", "--k", "3", "--budget", "5000"],
    ["run", "metric-xp", "--m", "1", "--n", "6", "--k", "3", "--d", "9", "--budget", "5000"],
    ["run", "reverse-metric-xp", "--m", "1", "--n", "4", "--d", "2", "--k", "2", "--budget", "5e4"],
    ["run", "cotype", "--variant", "three-letter", "--m", "4", "--n", "4", "--d", "3",
     "--budget", "1e5"],
    ["run", "linear-xp", "--n", "40", "--k", "3", "--budget", "1000"],
    ["run", "linear-xp", "--n", "16", "--k", "8", "--p", "4", "--budget", "4096"],
    ["run", "khinchine", "--n", "2", "--k", "3"],
    ["run", "psd-xp", "--n", "21", "--k", "2", "--d", "2"],
    ["run", "psd-xp", "--q", "3", "--d", "1"],
    ["run", "psd-xp", "--q", "3", "--d", "2", "--n", "8", "--k", "2"],
    ["run", "psd-xp", "--n", "9", "--k", "9"],
    *(["run", "trace", "--kind", "lambda", *extra]
      for extra in (["--q", "1.5"], ["--q", "2.000001"], ["--d", "1"])),
    *(["run", "psd-counterexample", "--q", q] for q in ("1", "2", "4", "6", "2.5")),
    *(["run", "smoothness", "--kind", "pisier", "--n", n, "--d", d]
      for n in ("1", "3", "5") for d in ("1", "3")),
    *(["run", "smoothness", "--kind", "pisier", "--n", n, "--d", d]
      for n, d in (("8", "3"), ("9", "1"))),
    ["run", "smoothness", "--kind", "pisier", "--n", "10"],
    *(["run", "convolution-probe", "--n", n] for n in ("1", "2", "3")),
    ["run", "convolution-probe", "--m", "1", "--n", "2"],
    ["run", "convolution-probe", "--m", "2", "--n", "4"],
    *(["run", "bridge", "--n", "3", "--m", m, "--k", "2", "--budget", "1e7"]
      for m in ("2", "8")),
    ["run", "bridge", "--n", "4", "--m", "2", "--k", "2"],
    ["run", "bridge", "--p", "1"],
    ["run", "bridge", "--m", "8", "--p", "400"],
    ["run", "bridge", "--p", "1600"],
    ["run", "scaling-witness", "--m", "2", "--n", "5", "--k", "2", "--budget", "1000"],
    ["run", "displacement", "--m", "2", "--n", "4", "--k", "2", "--budget", "1000"],
    *(["run", "scaling-witness", "--m", m, "--n", n, "--k", k]
      for m, n, k in (("1", "1", "1"), ("3", "2", "2"), ("4", "3", "2"))),
    *(["run", "grid-distortion", "--which", which, "--m", m, "--n", "2"]
      for which in ("rosenthal", "schoenberg") for m in ("2", "3")),
    *(["run", "grid-distortion", "--which", which, "--m", "1", "--n", "8"]
      for which in ("rosenthal", "schoenberg")),
    ["run", "scaling-witness", "--n", "100000"],
    ["run", "displacement", "--n", "100000"],
    ["run", "grid-distortion", "--m", "1", "--n", "100000"],
    ["run", "smoothness", "--kind", "pisier", "--n", "100000000"],
    ["run", "psd-counterexample", "--q", "1500"],
    ["run", "rosenthal-distortion", "--n", "2000000"],
    ["run", "bridge", "--n", "3000"],
    ["run", "trace", "--kind", "holder", "--q", "3", {"word_a": [1.5, 1.5], "word_b": [1.0]}],
    ["run", "cotype", "--variant", "bogus"],
    *(["run", "cotype", "--variant", "rademacher", "--m", "1", "--n", "3", "--budget", b]
      for b in ("512", "511")),
    *(["run", "metric-xp", "--m", "1", "--n", "4", "--k", "1", "--budget", b]
      for b in ("256", "255")),
    *(["run", report, "--n", n] for report, n in (("bridge", "-1"), ("bridge", "0"),
                                                   ("contraction", "0"))),
    ["run", "metric-xp", "--family", "character", "--m", "2", "--n", "2"],
    ["run", "metric-xp", "--family", "indicator", "--m", "1", "--n", "2"],
    ["run", "cotype", "--family", "cosine", "--m", "1", "--n", "2"],
    ["run", "reverse-metric-xp", "--family", "character", "--m", "1", "--n", "2", {"y": [1, 3]}],
    ["run", "displacement", "--m", "1", "--n", "2", {"subset": [2]}],
    ["scan", "rosenthal-distortion", "--sweep", "n", "--values", "geom:4:64:3", "--q", "3",
     "--p", "6"],
    *(["run", "metric-xp", "--family", "character", "--m", "2", "--n", "2", {"y": y}]
      for y in ([1, 0, 0], [1.5, 0])),
    ["run", "displacement", "--m", "1", "--n", "2", {"subset": [1.7]}],
]
# help, version and usage errors of the entry point, run without
# --deterministic
USAGE = [
    ["--help"], ["--version"], ["run", "--help"], ["scan", "--help"], ["verify", "--help"],
    [], ["nosuch"], ["verify"], ["verify", "bogus"], ["verify", "inequalities", "extra"],
    ["verify", "--bogus"], ["--bogus", "run"],
]


def commands(directory: Path) -> dict[str, list[str]]:
    """Key -> argv of every benchmark command and of the three default-size
    commands of each report, config files in ``directory``.  xplab must be
    importable."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads as wl
    from xplab.cli import REPORTS

    templates = {t.key: t for w in wl.WORKLOADS.values()
                 for t in (w.warmup, *(t for t, _ in w.slots))}
    jobs = []
    for key, tpl in sorted(templates.items()):
        for i in range(DRAWS if tpl.closed_form else wl.POOL):
            if tpl.closed_form:
                job = wl._closed_form_job(tpl, random.Random(f"{key}/draw{i}"))
            else:
                args, config = wl.instance(tpl, i)
                job = {"key": key, "args": args, "config": config}
            job["id"] = i
            wl.materialize(job, directory)
            jobs.append((f"{key}/{i}", job["argv"]))
    for name in sorted(REPORTS):
        jobs += [(f"cli-run-json/{name}", ["run", name, "--deterministic"]),
                 (f"cli-run-csv/{name}", ["run", name, "--deterministic", "--format", "csv"]),
                 (f"cli-scan-seed/{name}", ["scan", name, "--sweep", "seed", "--values", "1,2"])]
    for i, row in enumerate(EXTRA):
        config = row[-1] if isinstance(row[-1], dict) else None
        argv = row[:-1] if config else row
        key = "extra/" + " ".join(argv[1:])
        if config:
            path = directory / f"extra-{i}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            key += " --config " + json.dumps(config, sort_keys=True)
            argv = [*argv, "--config", str(path)]
        jobs.append((key, [*argv, "--deterministic"]))
    jobs.append(("extra/verify all", ["verify", "all"]))
    jobs += [("usage/" + " ".join(argv), argv) for argv in USAGE]
    return dict(jobs)


def invoke(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="xplab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded as the outcome
            code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]


def dump(out: Path, src: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    from xplab.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        result = {key: invoke(main, argv) for key, argv in commands(Path(tmp)).items()}
    out.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print(f"{len(result)} commands written to {out}")


def _leaves(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        return {k: v for key, val in obj.items() for k, v in _leaves(val, f"{prefix}{key}.").items()}
    if isinstance(obj, list):
        return {k: v for i, val in enumerate(obj) for k, v in _leaves(val, f"{prefix}{i}.").items()}
    return {prefix[:-1]: obj}


def _field_changes(before: str, after: str) -> list[tuple[str, float | None]]:
    """(line, relative move) per moved field; the move is None for a field
    that is not a float on both sides."""
    try:
        a, b = _leaves(json.loads(before)), _leaves(json.loads(after))
    except json.JSONDecodeError:
        return [("stdout differs (not JSON)", None)]
    changes = []
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if x == y:
            continue
        if all(isinstance(v, float) for v in (x, y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            changes.append((f"{name}: {x!r} -> {y!r} (relative {rel:.2e})", rel))
        else:
            changes.append((f"{name}: {x!r} -> {y!r}", None))
    return changes


def compare(before_path: Path, after_path: Path) -> int:
    before = json.loads(before_path.read_text(encoding="utf-8"))
    after = json.loads(after_path.read_text(encoding="utf-8"))
    differing, moves = 0, []
    for key in sorted(set(before) | set(after)):
        x, y = before.get(key), after.get(key)
        if x == y:
            continue
        differing += 1
        if x is None or y is None:
            print(f"{key}: only in {'after' if x is None else 'before'}")
            continue
        print(f"{key}:")
        if x[0] != y[0]:
            print(f"  exit {x[0]!r} -> {y[0]!r}")
        if x[2] != y[2]:
            print("  stderr differs")
        if x[1] != y[1]:
            for change, rel in _field_changes(x[1], y[1]):
                print(f"  {change}")
                if rel is not None:
                    moves.append(rel)
    if moves:
        print(f"{len(moves)} numeric fields moved, the largest by {max(moves):.2e} relative")
    total = len(set(before) | set(after))
    print(f"{total - differing} of {total} commands identical")
    return 1 if differing else 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", type=Path)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.out is None:
        ap.error("give OUT.json or --compare BEFORE AFTER")
    dump(args.out, args.src)


if __name__ == "__main__":
    main()
