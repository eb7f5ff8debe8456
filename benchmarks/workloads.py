"""Seeded workloads for the xplab benchmark.

A workload is a list of slots.  Each slot names a report template and how
many reports of it one pass runs; a pass is the whole list, and every pass of
a run repeats the same reports in the same order.  The slot list is fixed, so
the work in a pass does not depend on the seed.  The seed picks the instance
behind each slot and the order of the pass.

Two kinds of template exist:

* pooled templates, whose instances ``0 .. POOL-1`` are stored with their
  reference values in ``references.json`` (see ``make_refs.py``);
* closed-form templates (Monte Carlo linear reports at p = 4), whose inputs
  are drawn freely from the seed and whose exact values are computed here.

Report sizes are fixed per slot and chosen so that the median and the tail
percentile of each workload fall inside a cluster of similar reports, not on
the gap between two clusters.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

POOL = 8
MC_Z = 6.0
EXHAUSTIVE = "1e7"


@dataclass(frozen=True)
class Template:
    key: str
    # build(rng, fixed): ``rng`` draws the content of an instance (seeds,
    # coefficients), ``fixed`` the exponents, which are the same for every
    # instance of a template because the cost of a power depends on them.
    build: Callable[[random.Random, random.Random], tuple[list[str], dict | None]]
    closed_form: bool = False


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 20))


def _u(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _coeffs(rng: random.Random, n: int) -> list[float]:
    return [round(rng.gauss(0.0, 1.0), 4) or 0.5 for _ in range(n)]


# ---------------------------------------------------------------------------
# spectral: trace inequalities, Schatten X_p reports, Schoenberg embeddings
# ---------------------------------------------------------------------------

TRACE_KINDS = ("main", "qlt1", "lambda", "lieb-thirring", "op-convex")


def trace(kind: str, d: int) -> Template:
    def build(rng, fixed):
        if kind == "main":
            extra = ["--q", _u(fixed, 1.2, 4.0)]
        elif kind == "qlt1":
            extra = ["--q", _u(fixed, 0.2, 0.9)]
        elif kind == "lambda":
            extra = ["--q", _u(fixed, 2.2, 4.5)]
        elif kind == "lieb-thirring":
            extra = ["--r", _u(fixed, 1.0, 3.0)]
        else:
            extra = ["--theta", _u(fixed, 1.0, 2.0), "--s", _u(fixed, 0.1, 0.9)]
        args = ["run", "trace", "--kind", kind, *extra, "--d", str(d),
                "--seed", _seed(rng)]
        return args, None

    return Template(f"trace-{kind}-d{d}", build)


def schatten(d: int, n: int, k: int) -> Template:
    def build(rng, fixed):
        return ["run", "schatten-xp", "--d", str(d), "--n", str(n), "--k", str(k),
                "--p", _u(fixed, 2.5, 6.0), "--seed", _seed(rng)], None

    return Template(f"schatten-xp-d{d}-n{n}-k{k}", build)


def khinchine(d: int, n: int) -> Template:
    def build(rng, fixed):
        return ["run", "khinchine", "--d", str(d), "--n", str(n),
                "--p", _u(fixed, 2.5, 6.0), "--seed", _seed(rng)], None

    return Template(f"khinchine-d{d}-n{n}", build)


def psd_xp(d: int, n: int, k: int) -> Template:
    def build(rng, fixed):
        return ["run", "psd-xp", "--d", str(d), "--n", str(n), "--k", str(k),
                "--q", _u(fixed, 1.5, 4.0), "--seed", _seed(rng)], None

    return Template(f"psd-xp-d{d}-n{n}-k{k}", build)


def grid_distortion(m: int) -> Template:
    def build(rng, fixed):
        q = fixed.uniform(2.2, 4.0)
        return ["run", "grid-distortion", "--m", str(m), "--n", "2",
                "--which", "schoenberg", "--q", f"{q:.3f}",
                "--p", _u(fixed, q + 0.5, 8.0)], None

    return Template(f"grid-distortion-m{m}", build)


# ---------------------------------------------------------------------------
# torus: exhaustive gap moments, averaging operators, hypercube loops
# ---------------------------------------------------------------------------


def metric_xp(m: int, n: int, d: int, k: int, budget: str = EXHAUSTIVE) -> Template:
    def build(rng, fixed):
        return ["run", "metric-xp", "--m", str(m), "--n", str(n), "--k", str(k),
                "--d", str(d), "--p", _u(fixed, 2.0, 6.0), "--budget", budget,
                "--seed", _seed(rng)], None

    return Template(f"metric-xp-m{m}-n{n}-d{d}-k{k}-b{budget}", build)


def reverse_metric_xp(m: int, n: int, d: int, k: int,
                      budget: str = EXHAUSTIVE) -> Template:
    def build(rng, fixed):
        return ["run", "reverse-metric-xp", "--m", str(m), "--n", str(n),
                "--k", str(k), "--d", str(d), "--p", _u(fixed, 2.0, 6.0),
                "--budget", budget, "--seed", _seed(rng)], None

    return Template(f"reverse-metric-xp-m{m}-n{n}-d{d}-k{k}-b{budget}", build)


def cotype(variant: str, m: int, n: int, d: int, budget: str = EXHAUSTIVE) -> Template:
    def build(rng, fixed):
        return ["run", "cotype", "--variant", variant, "--m", str(m), "--n", str(n),
                "--d", str(d), "--s", _u(fixed, 1.0, 4.0), "--p", _u(fixed, 2.0, 6.0),
                "--budget", budget, "--seed", _seed(rng)], None

    return Template(f"cotype-{variant}-m{m}-n{n}-d{d}-b{budget}", build)


def displacement(m: int, n: int, d: int, R: int, k: int) -> Template:
    def build(rng, fixed):
        return ["run", "displacement", "--m", str(m), "--n", str(n), "--d", str(d),
                "--R", str(R), "--k", str(k), "--p", _u(fixed, 2.0, 6.0),
                "--seed", _seed(rng)], None

    return Template(f"displacement-m{m}-n{n}-d{d}-R{R}-k{k}", build)


def convolution_probe(m: int, n: int) -> Template:
    def build(rng, fixed):
        return ["run", "convolution-probe", "--m", str(m), "--n", str(n), "--d", "1",
                "--p", _u(fixed, 2.0, 6.0), "--seed", _seed(rng)], None

    return Template(f"convolution-probe-m{m}-n{n}", build)


def smoothness(kind: str, n: int, d: int) -> Template:
    def build(rng, fixed):
        if kind == "enflo":
            extra = ["--r", _u(fixed, 1.0, 4.0)]
        elif kind == "bmw":
            q = fixed.uniform(1.5, 3.0)
            extra = ["--q", f"{q:.3f}", "--p", _u(fixed, q, 6.0)]
        else:
            extra = ["--p", _u(fixed, 1.5, 6.0)]
        return ["run", "smoothness", "--kind", kind, *extra, "--n", str(n),
                "--d", str(d), "--seed", _seed(rng)], None

    return Template(f"smoothness-{kind}-n{n}-d{d}", build)


def scan_metric_xp(m: int, n: int, d: int, k: int) -> Template:
    def build(rng, fixed):
        return ["scan", "metric-xp", "--m", str(m), "--n", str(n), "--k", str(k),
                "--d", str(d), "--budget", EXHAUSTIVE, "--seed", _seed(rng),
                "--sweep", "p", "--values", "2,3,4"], None

    return Template(f"scan-metric-xp-m{m}-n{n}-d{d}-k{k}", build)


def scan_cotype(m: int, n: int, d: int) -> Template:
    def build(rng, fixed):
        return ["scan", "cotype", "--variant", "three-letter", "--m", str(m),
                "--n", str(n), "--d", str(d), "--p", _u(fixed, 2.0, 6.0),
                "--budget", EXHAUSTIVE, "--seed", _seed(rng),
                "--sweep", "s", "--values", "1,2,3"], None

    return Template(f"scan-cotype-m{m}-n{n}-d{d}", build)


# ---------------------------------------------------------------------------
# montecarlo: sampled subsets, signs and displacements
# ---------------------------------------------------------------------------


def linear_xp(n: int, k: int, budget: int, reverse: bool = False) -> Template:
    name = "reverse-linear-xp" if reverse else "linear-xp"

    def build(rng, fixed):
        a = ",".join(repr(v) for v in _coeffs(rng, n))
        return ["run", name, "--a", a, "--n", str(n), "--k", str(k), "--p", "4",
                "--budget", str(budget), "--seed", _seed(rng)], None

    return Template(f"{name}-n{n}-k{k}-b{budget}", build, closed_form=True)


def scan_linear_xp(n: int, k: int, budgets: tuple[int, ...]) -> Template:
    def build(rng, fixed):
        a = ",".join(repr(v) for v in _coeffs(rng, n))
        return ["scan", "linear-xp", "--a", a, "--n", str(n), "--k", str(k),
                "--p", "4", "--seed", _seed(rng), "--sweep", "budget",
                "--values", ",".join(str(b) for b in budgets)], None

    return Template(f"scan-linear-xp-n{n}-k{k}", build, closed_form=True)


# ---------------------------------------------------------------------------
# bridge: circular quadrature of the exponential family
# ---------------------------------------------------------------------------


def bridge(n: int, m: int, d: int, k: int) -> Template:
    def build(rng, fixed):
        zs = [[round(rng.uniform(-1.0, 1.0), 4) for _ in range(d)] for _ in range(n)]
        return ["run", "bridge", "--n", str(n), "--m", str(m), "--k", str(k),
                "--p", _u(fixed, 3.0, 6.0), "--budget", EXHAUSTIVE], {"zs": zs}

    return Template(f"bridge-n{n}-m{m}-d{d}-k{k}", build)


def circular_moment() -> Template:
    def build(rng, fixed):
        return ["run", "circular-moment", "--p", _u(fixed, 3.0, 6.0)], None

    return Template("circular-moment", build)


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    warmup: Template
    slots: tuple[tuple[Template, int], ...]
    # Fixed per workload, so the metric means the same thing in every run:
    # a percentile with at least two reports of a pass beyond it (ten
    # samples in a run of five passes), whose rank falls inside a block of
    # reports of one template.
    tail_percentile: float


WORKLOADS = {
    "spectral": Workload(
        trace("main", 2),
        (
            *((trace(kind, d), 8) for kind in TRACE_KINDS for d in range(2, 7)),
            (schatten(3, 6, 3), 1), (schatten(4, 5, 2), 1),
            (schatten(5, 6, 2), 1), (schatten(6, 5, 3), 1),
            (khinchine(5, 7), 1), (khinchine(6, 6), 1),
            (psd_xp(4, 9, 4), 1), (psd_xp(6, 8, 3), 1), (psd_xp(5, 7, 3), 1),
            # the p95 rank: every instance of this template costs the same
            (grid_distortion(4), 6), (grid_distortion(6), 1),
        ),
        95.0,
    ),
    "torus": Workload(
        metric_xp(2, 3, 2, 1),
        (
            (metric_xp(4, 3, 2, 1), 3), (metric_xp(4, 3, 2, 2), 3),
            (metric_xp(2, 4, 4, 2), 4), (metric_xp(4, 4, 2, 2), 5),  # p95 rank
            (metric_xp(4, 4, 4, 2), 1),
            (reverse_metric_xp(2, 3, 4, 2), 6), (reverse_metric_xp(1, 4, 2, 2), 6),
            (cotype("three-letter", 8, 3, 2), 6),
            (cotype("rademacher", 2, 3, 4), 4), (cotype("rademacher", 2, 4, 2), 1),
            (displacement(4, 3, 2, 3, 2), 6),
            (convolution_probe(4, 4), 3),
            (smoothness("enflo", 10, 2), 2), (smoothness("bmw", 10, 2), 2),
            (smoothness("pisier", 8, 2), 2),
            (scan_metric_xp(4, 3, 2, 1), 2), (scan_cotype(8, 3, 2), 2),
        ),
        95.0,
    ),
    "montecarlo": Workload(
        linear_xp(12, 6, 250),
        (
            (linear_xp(12, 6, 250), 3), (linear_xp(14, 7, 500), 1),
            (linear_xp(16, 8, 400), 1), (linear_xp(18, 9, 300), 1),
            (linear_xp(12, 6, 300, reverse=True), 2),
            (linear_xp(14, 7, 400, reverse=True), 1),
            (linear_xp(16, 8, 250, reverse=True), 1),
            (scan_linear_xp(14, 7, (250, 500)), 1),
            (metric_xp(1, 4, 2, 1, "250"), 3), (metric_xp(1, 4, 2, 1, "500"), 1),
            (metric_xp(1, 4, 2, 2, "350"), 2), (metric_xp(1, 4, 2, 2, "600"), 3),  # p90 rank
            (reverse_metric_xp(1, 4, 2, 2, "300"), 3),
            (reverse_metric_xp(1, 4, 2, 1, "450"), 1),
            (cotype("rademacher", 2, 4, 2, "2e5"), 1),
            (cotype("rademacher", 2, 4, 2, "4e5"), 1),
        ),
        90.0,
    ),
    "bridge": Workload(
        bridge(2, 2, 1, 1),
        (
            (bridge(2, 2, 1, 1), 3), (bridge(2, 2, 2, 2), 5),  # median rank
            (bridge(2, 3, 1, 2), 2), (bridge(2, 3, 2, 1), 2), (bridge(2, 3, 3, 2), 1),
            (bridge(2, 4, 2, 2), 4), (bridge(2, 4, 3, 1), 1),  # p90 rank
            (circular_moment(), 6),
        ),
        90.0,
    ),
}


def pooled_templates() -> dict[str, Template]:
    """Every pooled template of every workload, by key."""
    out: dict[str, Template] = {}
    for wl in WORKLOADS.values():
        for tpl in (wl.warmup, *(t for t, _ in wl.slots)):
            if not tpl.closed_form:
                out[tpl.key] = tpl
    return out


def instance(tpl: Template, index: int) -> tuple[list[str], dict | None]:
    """The arguments and config of pool instance ``index`` of a template."""
    return tpl.build(random.Random(f"{tpl.key}/{index}"), random.Random(tpl.key))


# ---------------------------------------------------------------------------
# closed forms for p = 4 Rademacher sums
# ---------------------------------------------------------------------------


def _rademacher_moments(a: list[float]) -> tuple[float, float]:
    """(E Y^4, E Y^8) for Y = sum_j eps_j a_j, from the cumulants of eps."""
    p2, p4, p6, p8 = (math.fsum(x**r for x in a) for r in (2, 4, 6, 8))
    m4 = 3.0 * p2**2 - 2.0 * p4
    m8 = (105.0 * p2**4 - 420.0 * p4 * p2**2 + 140.0 * p4**2
          + 448.0 * p2 * p6 - 272.0 * p8)
    return m4, m8


def _subset_moments(a: list[float], k: int) -> tuple[float, float]:
    """(E X, Var X) of X = (sum_{j in S} eps_j a_j)^4, S a uniform k-subset."""
    m4s, m8s = [], []
    for S in itertools.combinations(a, k):
        m4, m8 = _rademacher_moments(list(S))
        m4s.append(m4)
        m8s.append(m8)
    mean = math.fsum(m4s) / len(m4s)
    return mean, math.fsum(m8s) / len(m8s) - mean**2


def linear_expectation(a: list[float], k: int, reverse: bool) -> dict:
    """Exact values and per-sample variances of a p = 4 linear report."""
    n = len(a)
    lhs_mean, lhs_var = _subset_moments(a, k)
    full4, full8 = _rademacher_moments(a)
    scale = (k / n) ** 2
    rad = (scale * full4, scale**2 * (full8 - full4**2))
    ell_p = (k / n) * math.fsum(x**4 for x in a)
    if reverse:
        return {
            "exact": {"lhs_terms.ell_p": ell_p},
            "mc": {"lhs_terms.rademacher": list(rad),
                   "lhs": [ell_p + rad[0], rad[1]],
                   "rhs_terms.subset": [lhs_mean, lhs_var]},
        }
    return {
        "exact": {"rhs_terms.ell_p": ell_p},
        "mc": {"lhs": [lhs_mean, lhs_var], "rhs_terms.rademacher": list(rad)},
    }


def arg_value(args: list[str], name: str) -> str:
    """The value that follows option ``name`` in a command line."""
    return args[args.index(name) + 1]


def _closed_form_job(tpl: Template, rng: random.Random) -> dict:
    args, _ = tpl.build(rng, random.Random(tpl.key))
    a = [float(v) for v in arg_value(args, "--a").split(",")]
    k = int(arg_value(args, "--k"))
    if args[0] == "scan":
        row = linear_expectation(a, k, reverse=False)
        expect = [dict(row, budget=int(b), exact=dict(row["exact"], value=int(b)))
                  for b in arg_value(args, "--values").split(",")]
    else:
        row = linear_expectation(a, k, reverse=args[1] == "reverse-linear-xp")
        row["budget"] = int(float(arg_value(args, "--budget")))
        expect = [row]
    return {"key": tpl.key, "args": args, "config": None, "expect": expect}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _pooled_job(tpl: Template, index: int, refs: dict) -> dict:
    args, config = instance(tpl, index)
    stored = refs[tpl.key][index]
    if stored["args"] != args or stored["config"] != config:
        raise RuntimeError(f"references.json is stale for {tpl.key}/{index}")
    return {"key": tpl.key, "args": args, "config": config,
            "expect": stored["expect"]}


def _job(tpl: Template, rng: random.Random, refs: dict) -> dict:
    if tpl.closed_form:
        return _closed_form_job(tpl, random.Random(rng.getrandbits(64)))
    return _pooled_job(tpl, rng.randrange(POOL), refs)


def materialize(job: dict, directory: Path) -> None:
    """Set ``job["argv"]``, writing the job's config file into ``directory``."""
    argv = list(job["args"])
    if job["config"] is not None:
        path = directory / f"config-{job['key']}-{job['id']}.json"
        path.write_text(json.dumps(job["config"]), encoding="utf-8")
        argv[2:2] = ["--config", str(path)]
    if argv[0] == "run":
        argv.append("--deterministic")
    job["argv"] = argv


def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """The warm-up report and the pass of workload ``name`` for ``seed``.

    ``tiny`` keeps one report of each slot, for the self-test.
    """
    wl = WORKLOADS[name]
    refs = load_references()
    rng = random.Random(f"{name}/{seed}")
    warmup = _job(wl.warmup, rng, refs)
    jobs = [_job(tpl, rng, refs)
            for tpl, count in wl.slots for _ in range(1 if tiny else count)]
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    warmup["id"] = -1
    return {"workload": name, "seed": seed, "warmup": warmup, "jobs": jobs,
            "tail_percentile": wl.tail_percentile, "mc_z": MC_Z}
