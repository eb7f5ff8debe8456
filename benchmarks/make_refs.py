"""Rebuild ``references.json``: the reference values of every pooled instance.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/make_refs.py

An exhaustive instance stores its own report.  A Monte Carlo instance stores,
per checked field, the exact value (the same report at an exhaustive budget)
and the variance of one sample (from exhaustive first and second moments of
each gap functional), so ``checks.py`` can derive its tolerance from the
budget.  Regenerate only when a template changes; the stored values are then
the ones the program produced at that commit.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import csv_rows, flatten  # noqa: E402
from worker import invoke  # noqa: E402
from workloads import (  # noqa: E402
    EXHAUSTIVE, POOL, REFERENCES, arg_value, instance, materialize, pooled_templates,
)

from xplab.cli import main as xplab_main  # noqa: E402
from xplab.lattice import (  # noqa: E402
    Diagonal, Edge, FixedShift, SamplePlan, ShiftedSet, SymmetricDiagonal,
    gap_moment, random_grid_function,
)

EXACT_PLAN = SamplePlan("exhaustive", 10**12, 0)


def _moments(f, spec, power: float) -> tuple[float, float]:
    """(mean, variance) of one sample of the gap functional."""
    mean = gap_moment(f, spec, EXACT_PLAN, power=power)
    return mean, gap_moment(f, spec, EXACT_PLAN, power=2 * power) - mean**2


def _joint_variance(moments: list[tuple[float, float]]) -> float:
    """Variance of one sample that first draws one of the functionals
    uniformly, then its displacement and base point."""
    mean = sum(mu for mu, _ in moments) / len(moments)
    second = sum(var + mu**2 for mu, var in moments) / len(moments)
    return second - mean**2


def _subsets(f, n: int, k: int, shift: int, power: float) -> float:
    return _joint_variance([_moments(f, ShiftedSet(S, shift), power)
                            for S in itertools.combinations(range(1, n + 1), k)])


def _axes(f, n: int, spec, power: float) -> float:
    return _joint_variance([_moments(f, spec(j), power) for j in range(n)])


def _axis(n: int, length: int):
    return lambda j: FixedShift(tuple(length if a == j else 0 for a in range(n)))


def mc_variances(args: list[str]) -> dict[str, float]:
    """Variance of one sample of each checked field of a Monte Carlo report.

    A sample draws every random choice of the field jointly (subset or axis,
    signs, base point), so the tolerance does not assume more samples than
    the budget.  A sum of two estimated fields gets the sum of their
    standard deviations.
    """
    report = args[1]
    m, n, d = (int(arg_value(args, f"--{x}")) for x in "mnd")
    p, seed = float(arg_value(args, "--p")), int(arg_value(args, "--seed"))
    if report == "metric-xp":
        k = int(arg_value(args, "--k"))
        f = random_grid_function(4 * m, n, d, p, seed)
        return {
            "lhs": _subsets(f, n, k, 2 * m, p) / m ** (2 * p),
            "rhs_terms.edge": k**2 * _axes(f, n, lambda j: Edge(j + 1), p),
            "rhs_terms.diag": (k / n) ** p * _moments(f, Diagonal(), p)[1],
        }
    if report == "reverse-metric-xp":
        k = int(arg_value(args, "--k"))
        f = random_grid_function(8 * m, n, d, p, seed)
        cot = k**2 * _axes(f, n, _axis(n, 4 * m), p) / m ** (2 * p)
        typ = (k / n) ** p * _moments(f, SymmetricDiagonal(), p)[1]
        return {
            "lhs_terms.cotype": cot,
            "lhs_terms.type": typ,
            "lhs": (cot**0.5 + typ**0.5) ** 2,
            "rhs_terms.subset": p**p * _subsets(f, n, k, 1, p),
        }
    if report == "cotype" and arg_value(args, "--variant") == "rademacher":
        s = float(arg_value(args, "--s"))
        f = random_grid_function(8 * m, n, d, p, seed)
        return {
            "lhs": n**2 * _axes(f, n, _axis(n, 4 * m), s) / m ** (2 * s),
            "rhs_terms.diag": _moments(f, Diagonal(), s)[1],
        }
    raise ValueError(f"no Monte Carlo reference for {' '.join(args)}")


def output_rows(job: dict) -> list[dict]:
    code, _, stdout = invoke(xplab_main, job["argv"])
    if code not in (0, 2):
        raise RuntimeError(f"{job['key']}: exit code {code}")
    if job["argv"][0] == "run":
        return [flatten(json.loads(stdout)["report"])]
    return csv_rows(stdout)


def reference(key: str, index: int, tpl, scratch: Path) -> dict:
    args, config = instance(tpl, index)
    job = {"key": key, "id": index, "args": args, "config": config}
    budget = arg_value(args, "--budget") if "--budget" in args else EXHAUSTIVE
    if float(budget) >= float(EXHAUSTIVE):
        materialize(job, scratch)
        expect = [{"exact": row} for row in output_rows(job)]
    else:
        exact_args = list(args)
        exact_args[args.index("--budget") + 1] = "1e12"
        exact = dict(job, args=exact_args)
        materialize(exact, scratch)
        row = output_rows(exact)[0]
        variances = mc_variances(args)
        expect = [{"budget": int(float(budget)),
                   "mc": {f: [row[f], v] for f, v in variances.items()}}]
    return {"args": args, "config": config, "expect": expect}


def main() -> None:
    scratch = HERE.parent / ".bench_out" / "make_refs"
    scratch.mkdir(parents=True, exist_ok=True)
    refs = {}
    for key, tpl in sorted(pooled_templates().items()):
        refs[key] = [reference(key, i, tpl, scratch) for i in range(POOL)]
        print(key, file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items()))
        fh.write("\n}\n")


if __name__ == "__main__":
    main()
