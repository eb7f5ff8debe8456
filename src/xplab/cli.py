"""Batch experiment runner: one process per report, JSON/CSV output.

``xplab run REPORT`` executes a named report with parameters from inline
flags or a JSON config file, writes a versioned ``xp-report/1`` JSON
document, and exits 0 on success, 2 when the report carries hypothesis
warnings, and 1 on error.  ``xplab verify SUITE`` runs the named invariant
suite and prints a check table.  ``xplab scan REPORT --sweep NAME --values
...`` sweeps exactly one parameter and emits a CSV curve.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import click
import numpy as np

from . import __version__
from .complexify import (
    bridge_report,
    circular_moment_report,
    complexification_norm,
    contraction_check,
)
from .embeddings import (
    composite_grid_distortion,
    grid_bounds,
    grid_round_map,
    rosenthal_distortion,
    rosenthal_exponent,
    schoenberg_embed,
    snowflake_exponent_poly,
    snowflake_exponent_root,
)
from .inequalities import (
    BMW,
    Enflo,
    Pisier,
    convolution_probe,
    convolution_search,
    cotype_report,
    displacement_report,
    linear_xp_report,
    metric_xp_report,
    reverse_linear_xp_report,
    reverse_metric_xp_report,
    scaling_witness_report,
    smoothness_report,
)
from .lattice import (
    Diagonal,
    Edge,
    GridFunction,
    LatticePoint,
    ShiftedSet,
    gap_moment,
    geodesic,
    make_sample_plan,
    random_grid_function,
)
from .operators import (
    BoxA,
    CalE,
    HypercubeFunction,
    box_average,
    character,
    edge_average,
    rad_identity_residual,
)
from .rng import stream
from .schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    SymMatrix,
    eigen_sym,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_xp_report,
    trace_inequality_report,
)

SCHEMA = "xp-report/1"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """All experiment parameters; round-trips through JSON losslessly."""

    subcommand: str = ""
    p: float = 4.0
    q: float = 3.0
    m: int = 2
    n: int = 2
    k: int = 1
    d: int = 1
    R: int = 1
    s: float = 0.1
    theta: float = 1.5
    big_k: float = 2.0
    r: float = 1.0
    trials: int = 20
    budget: int = 1_000_000
    seed: int = 7
    a: list | None = None
    zs: list | None = None
    word_a: list | None = None
    word_b: list | None = None
    subset: list | None = None
    y: list | None = None
    kind: str = ""
    variant: str = "three-letter"
    which: str = "schoenberg"
    square_function: bool = False
    function: dict | None = None
    function_path: str = ""
    matrix_paths: list | None = None
    out: str = ""
    format: str = "json"
    deterministic: bool = False

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentConfig":
        """A config from JSON values, each checked against its field's type."""
        unknown = sorted(set(obj) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return ExperimentConfig(
            **{name: _checked(name, _FIELDS[name], value) for name, value in obj.items()}
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# The one parameter table: field name -> declared type, a string such as
# "int" under postponed annotations.  The run/scan options, the config-file
# check and the scan cast all derive from it.
_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}
_JSON_TYPES = {"bool": bool, "str": str, "list | None": (list, type(None)),
               "dict | None": (dict, type(None))}


def _checked(name: str, kind: str, value):
    """The stored form of ``value`` for config field ``name`` of type ``kind``.

    int fields take integral numbers, float fields any number, and the other
    fields only their own JSON type (so ``"false"`` is not a bool).
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind == "float" and number:
        return float(value)
    if kind in _JSON_TYPES and isinstance(value, _JSON_TYPES[kind]):
        return value
    raise ValueError(f"config field {name!r} must be {kind}, got {value!r}")


def _load_config(options: dict) -> ExperimentConfig:
    """The ``--config`` file overlaid with the flags that were given."""
    base: dict = {}
    if options["config_path"]:
        with open(options["config_path"], encoding="utf-8") as fh:
            base = json.load(fh)
    base.update((k, v) for k, v in options.items() if k in _FIELDS and v is not None)
    if options["a_csv"] is not None:
        base["a"] = [float(v) for v in options["a_csv"].split(",")]
    if options["family"] is not None:
        base["function"] = {"family": options["family"]}
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# input sources
# ---------------------------------------------------------------------------


def _grid_function(cfg: ExperimentConfig, modulus: int) -> GridFunction:
    """Resolve the function source: JSON path, builtin family, or random."""
    if cfg.function_path:
        with open(cfg.function_path, encoding="utf-8") as fh:
            return GridFunction.from_json_dict(json.load(fh))
    fam = dict(cfg.function or {"family": "random"})
    name = fam.pop("family", "random")
    if name == "random":
        return random_grid_function(modulus, cfg.n, cfg.d, cfg.p, cfg.seed)
    if name == "character":
        y = tuple(int(v) for v in (cfg.y or [1] + [0] * (cfg.n - 1)))
        f = character(LatticePoint(y, modulus))
        return GridFunction(modulus, cfg.n, 2, cfg.p, f.values)
    if name == "indicator":
        vals = np.zeros((modulus,) * cfg.n + (1,))
        vals[(0,) * cfg.n + (0,)] = 1.0
        return GridFunction(modulus, cfg.n, 1, cfg.p, vals)
    if name == "cosine":
        grid = np.arange(modulus)
        axis = np.cos(2.0 * math.pi * grid / modulus)
        shape = [modulus] + [1] * (cfg.n - 1)
        vals = np.broadcast_to(
            axis.reshape(shape), (modulus,) * cfg.n
        )[..., None]
        return GridFunction(modulus, cfg.n, 1, cfg.p, np.array(vals))
    raise ValueError(f"unknown function family {name!r}")


def _matrices(cfg: ExperimentConfig, count: int, purpose: str) -> list[SymMatrix]:
    if cfg.matrix_paths:
        mats = []
        for path in cfg.matrix_paths:
            arr = np.atleast_2d(np.loadtxt(path, delimiter=","))
            mats.append(SymMatrix.from_array(arr))
        return mats
    return [
        random_psd(cfg.d, cfg.seed, purpose=f"{purpose}:{j}") for j in range(count)
    ]


def _hypercube(cfg: ExperimentConfig) -> HypercubeFunction:
    gen = stream(cfg.seed, "hypercube")
    vals = gen.standard_normal((2,) * cfg.n + (cfg.d,))
    return HypercubeFunction(cfg.n, cfg.d, vals)


def _coeffs(cfg: ExperimentConfig) -> list:
    return list(cfg.a) if cfg.a is not None else [1.0] * cfg.n


def _sign_plan(cfg: ExperimentConfig):
    return make_sample_plan(1, cfg.n, cfg.k, budget=cfg.budget, seed=cfg.seed)


def _grid_plan(cfg: ExperimentConfig, modulus: int):
    return make_sample_plan(modulus, cfg.n, cfg.k, budget=cfg.budget, seed=cfg.seed)


def _trace_kind(cfg: ExperimentConfig):
    name = cfg.kind or "main"
    if name == "main":
        return MainQge1(cfg.q)
    if name == "qlt1":
        return Qlt1(cfg.q)
    if name == "lambda":
        return LambdaFamily(cfg.q)
    if name == "holder":
        if cfg.word_a is None or cfg.word_b is None:
            raise ValueError("holder kind requires word_a and word_b")
        return Holder(cfg.q, tuple(cfg.word_a), tuple(cfg.word_b))
    if name == "lieb-thirring":
        return LiebThirring(cfg.r)
    if name == "op-convex":
        return OpConvex(cfg.theta, cfg.s)
    raise ValueError(f"unknown trace kind {name!r}")


def _smoothness_kind(cfg: ExperimentConfig):
    name = cfg.kind or "enflo"
    if name == "enflo":
        return Enflo(cfg.r)
    if name == "bmw":
        return BMW(cfg.q, cfg.p)
    if name == "pisier":
        return Pisier(cfg.p)
    raise ValueError(f"unknown smoothness kind {name!r}")


# ---------------------------------------------------------------------------
# report builders
# ---------------------------------------------------------------------------


def _run_linear_xp(cfg: ExperimentConfig) -> dict:
    rep = linear_xp_report(
        _coeffs(cfg), cfg.k, cfg.p, _sign_plan(cfg), square_function=cfg.square_function
    )
    return rep.to_json_dict()


def _run_reverse_linear_xp(cfg: ExperimentConfig) -> dict:
    return reverse_linear_xp_report(_coeffs(cfg), cfg.k, cfg.p, _sign_plan(cfg)).to_json_dict()


def _run_metric_xp(cfg: ExperimentConfig) -> dict:
    M = 4 * cfg.m
    f = _grid_function(cfg, M)
    return metric_xp_report(f, cfg.k, _grid_plan(cfg, M)).to_json_dict()


def _run_reverse_metric_xp(cfg: ExperimentConfig) -> dict:
    M = 8 * cfg.m
    f = _grid_function(cfg, M)
    return reverse_metric_xp_report(f, cfg.k, _grid_plan(cfg, M)).to_json_dict()


def _run_schatten_xp(cfg: ExperimentConfig) -> dict:
    mats = _matrices(cfg, cfg.n, "schatten-xp")
    return schatten_xp_report(mats, cfg.k, cfg.p, _sign_plan(cfg)).to_json_dict()


def _run_psd_xp(cfg: ExperimentConfig) -> dict:
    mats = _matrices(cfg, cfg.n, "psd-xp")
    return psd_xp_report(mats, cfg.k, cfg.q, _sign_plan(cfg)).to_json_dict()


def _run_khinchine(cfg: ExperimentConfig) -> dict:
    mats = _matrices(cfg, cfg.n, "khinchine")
    return khinchine_report(mats, cfg.p, _sign_plan(cfg)).to_json_dict()


def _run_trace(cfg: ExperimentConfig) -> dict:
    a = random_psd(cfg.d, cfg.seed, purpose="trace:a")
    b = random_psd(cfg.d, cfg.seed, purpose="trace:b")
    if cfg.matrix_paths:
        mats = _matrices(cfg, 2, "trace")
        if len(mats) != 2:
            raise ValueError("trace report needs exactly two matrices")
        a, b = mats
    return trace_inequality_report(a, b, _trace_kind(cfg)).to_json_dict()


def _run_psd_counterexample(cfg: ExperimentConfig) -> dict:
    ce = psd_counterexample(cfg.s, cfg.q, cfg.big_k)
    return {
        "functional": "psd_counterexample",
        "params": {"s": cfg.s, "q": cfg.q, "K": cfg.big_k},
        "quadratic_form": ce.quadratic_form,
        "min_eigenvalue": ce.min_eigenvalue,
        "witness": list(ce.w),
    }


def _run_smoothness(cfg: ExperimentConfig) -> dict:
    return smoothness_report(_hypercube(cfg), _smoothness_kind(cfg), norm_p=2.0).to_json_dict()


def _run_cotype(cfg: ExperimentConfig) -> dict:
    M = 2 * cfg.m if cfg.variant == "three-letter" else 8 * cfg.m
    f = _grid_function(cfg, M)
    return cotype_report(f, cfg.s, cfg.variant, _grid_plan(cfg, M)).to_json_dict()


def _run_convolution_probe(cfg: ExperimentConfig) -> dict:
    f = _grid_function(cfg, 4 * cfg.m)
    return convolution_probe(f, cfg.p).to_json_dict()


def _run_convolution_search(cfg: ExperimentConfig) -> dict:
    return convolution_search(4 * cfg.m, cfg.n, cfg.p, cfg.trials, cfg.seed)


def _run_scaling_witness(cfg: ExperimentConfig) -> dict:
    return scaling_witness_report(cfg.m, cfg.n, cfg.k, cfg.p).to_json_dict()


def _run_displacement(cfg: ExperimentConfig) -> dict:
    f = _grid_function(cfg, 4 * cfg.m)
    S = tuple(int(v) for v in (cfg.subset or range(1, cfg.k + 1)))
    return displacement_report(f, S, cfg.R, cfg.p).to_json_dict()


def _run_rosenthal_distortion(cfg: ExperimentConfig) -> dict:
    dist, s_star = rosenthal_distortion(cfg.n, cfg.q, cfg.p)
    return {
        "functional": "rosenthal_distortion",
        "params": {"n": cfg.n, "q": cfg.q, "p": cfg.p},
        "distortion": dist,
        "argmax_level": s_star,
        "exponent": rosenthal_exponent(cfg.q, cfg.p),
    }


def _run_grid_distortion(cfg: ExperimentConfig) -> dict:
    res = composite_grid_distortion(
        cfg.m, cfg.n, cfg.q, cfg.p, cfg.which, budget=cfg.budget
    )
    out = res.to_json_dict()
    out["functional"] = "grid_distortion"
    out["params"] = {
        "m": cfg.m, "n": cfg.n, "q": cfg.q, "p": cfg.p, "which": cfg.which,
    }
    return out


def _run_grid_bounds(cfg: ExperimentConfig) -> dict:
    out = grid_bounds(cfg.m, cfg.n, cfg.q, cfg.p)
    out["functional"] = "grid_bounds"
    out["params"] = {"m": cfg.m, "n": cfg.n, "q": cfg.q, "p": cfg.p}
    return out


def _run_bridge(cfg: ExperimentConfig) -> dict:
    zs = cfg.zs if cfg.zs is not None else np.eye(cfg.n).tolist()
    plan = _grid_plan(cfg, 2 * cfg.m)
    return bridge_report(zs, cfg.m, cfg.k, cfg.p, plan).to_json_dict()


def _run_contraction(cfg: ExperimentConfig) -> dict:
    zs = cfg.zs if cfg.zs is not None else np.eye(cfg.n).tolist()
    return contraction_check(_coeffs(cfg), zs, cfg.p, _sign_plan(cfg)).to_json_dict()


def _run_circular_moment(cfg: ExperimentConfig) -> dict:
    out = circular_moment_report(cfg.p)
    out["functional"] = "circular_moment"
    return out


REPORTS = {
    "linear-xp": _run_linear_xp,
    "reverse-linear-xp": _run_reverse_linear_xp,
    "metric-xp": _run_metric_xp,
    "reverse-metric-xp": _run_reverse_metric_xp,
    "schatten-xp": _run_schatten_xp,
    "psd-xp": _run_psd_xp,
    "khinchine": _run_khinchine,
    "trace": _run_trace,
    "psd-counterexample": _run_psd_counterexample,
    "smoothness": _run_smoothness,
    "cotype": _run_cotype,
    "convolution-probe": _run_convolution_probe,
    "convolution-search": _run_convolution_search,
    "scaling-witness": _run_scaling_witness,
    "displacement": _run_displacement,
    "rosenthal-distortion": _run_rosenthal_distortion,
    "grid-distortion": _run_grid_distortion,
    "grid-bounds": _run_grid_bounds,
    "bridge": _run_bridge,
    "contraction": _run_contraction,
    "circular-moment": _run_circular_moment,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _flatten(obj, prefix: str = "") -> dict:
    """Dotted-key scalars of a nested report, for CSV rows."""
    out: dict = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.update(_flatten(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            out.update(_flatten(val, f"{prefix}{i}."))
    elif isinstance(obj, (int, float, bool, str)) or obj is None:
        out[prefix[:-1]] = obj
    return out


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    header = list(dict.fromkeys(k for row in rows for k in row))
    writer = csv.DictWriter(buf, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _document_text(cfg: ExperimentConfig) -> tuple[str, int]:
    """The xp-report/1 document of one report, and its exit code."""
    start = time.monotonic()
    payload = REPORTS[cfg.subcommand](cfg)
    wall = time.monotonic() - start
    document = {
        "schema": SCHEMA,
        "version": __version__,
        "config": cfg.to_dict(),
        "report": payload,
    }
    if not cfg.deterministic:
        document["wall_clock_s"] = wall
    if cfg.format == "json":
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    elif cfg.format == "csv":
        text = _csv_text([_flatten(document)])
    else:
        raise ValueError(f"unknown format {cfg.format!r}")
    return text, 2 if payload.get("warnings") else 0


def _scan_text(cfg: ExperimentConfig, name: str, values_csv: str) -> tuple[str, int]:
    """One CSV row of numeric report fields per value of the swept field."""
    kind = _FIELDS.get(name)
    if kind is None:
        raise ValueError(f"unknown sweep parameter {name!r}")
    if kind not in ("int", "float"):
        raise ValueError(f"cannot sweep the {kind} field {name!r}")
    if ";" in values_csv:
        raise ValueError("exactly one swept parameter is allowed")
    if values_csv.startswith("geom:"):
        _, lo, hi, count = values_csv.split(":")
        values = list(np.geomspace(float(lo), float(hi), int(count)))
    else:
        values = [float(v) for v in values_csv.split(",")]
    rows = []
    for value in values:
        cast = int(round(value)) if kind == "int" else value
        setattr(cfg, name, cast)
        row = {"sweep": name, "value": cast}
        row.update(
            (k, v) for k, v in _flatten(REPORTS[cfg.subcommand](cfg)).items()
            if isinstance(v, (int, float, bool))
        )
        rows.append(row)
    return _csv_text(rows), 0


def _execute(report: str | None, options: dict, render, *args) -> None:
    """Load the config, render the report with ``render(cfg, *args)``, write
    the text to ``cfg.out`` or stdout, and exit with the rendered exit code
    (1 with a JSON error on stderr when anything fails)."""
    try:
        cfg = _load_config(options)
        cfg.subcommand = report or cfg.subcommand
        if cfg.subcommand not in REPORTS:
            raise ValueError(f"unknown report {cfg.subcommand!r}")
        text, code = render(cfg, *args)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            # Every echo here names its stream: without file=, click caches the
            # resolved stream in a WeakKeyDictionary whose value is the stream
            # itself, so each swapped-in sys.stdout would be kept for good.
            click.echo(text, nl=False, file=sys.stdout)
    except Exception as exc:  # noqa: BLE001 - single process boundary
        _error_exit(exc)
    sys.exit(code)


def _error_exit(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload, sort_keys=True), file=sys.stderr)
    sys.exit(1)


_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _with_config_options(fn):
    """One ``--<field>`` option per scalar config field, plus the flags that
    do not map one to one onto a field."""
    opts = [
        click.option("--config", "config_path", type=click.Path(exists=True), default=None),
        click.option("--a", "a_csv", type=str, default=None,
                     help="comma-separated scalar coefficients"),
        click.option("--family", type=str, default=None,
                     help="builtin function family (random/character/indicator/cosine)"),
        click.option("--format", type=click.Choice(["json", "csv"]), default=None),
        # float, so that --budget 1e6 works; the config check makes it an int
        click.option("--budget", type=float, default=None),
    ]
    for name, kind in _FIELDS.items():
        if name in ("subcommand", "format", "budget"):
            continue
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            opts.append(click.option(flag, name, is_flag=True, flag_value=True, default=None))
        elif kind in _FLAG_TYPES:
            opts.append(click.option(flag, name, type=_FLAG_TYPES[kind], default=None))
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Numerical laboratory for torus, hypercube and Schatten inequalities."""


@main.command()
@click.argument("report", type=click.Choice(sorted(REPORTS)), required=False)
@_with_config_options
def run(report: str | None, **options) -> None:
    """Execute one report and write an xp-report/1 JSON document."""
    _execute(report, options, _document_text)


@main.command()
@click.argument("report", type=click.Choice(sorted(REPORTS)))
@click.option("--sweep", "sweep_name", type=str, required=True,
              help="name of the single swept config field")
@click.option("--values", "values_csv", type=str, required=True,
              help="comma-separated sweep values, or geom:start:stop:count")
@_with_config_options
def scan(report: str, sweep_name: str, values_csv: str, **options) -> None:
    """Sweep exactly one parameter and write one CSV row per value."""
    _execute(report, options, _scan_text, sweep_name, values_csv)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_geodesic() -> list[tuple[str, bool, float, float]]:
    import itertools

    checks = []
    worst_step = 0
    ok_end = ok_inj = ok_sign = True
    for n in (1, 2, 3):
        for w in itertools.product((1, 3, 5), repeat=n):
            path = geodesic(w)
            ok_end &= not path[0].any() and (path[-1] == np.array(w)).all()
            steps = np.abs(np.diff(path, axis=0)).max(axis=1)
            worst_step = max(worst_step, int(np.abs(np.diff(path, axis=0)).max()))
            ok_end &= bool((steps == 1).all())
            ok_inj &= len({tuple(r) for r in path}) == len(path)
            for signs in itertools.product((-1, 1), repeat=n):
                sw = tuple(s * wi for s, wi in zip(signs, w))
                ok_sign &= bool(
                    (geodesic(sw) == path * np.array(signs)).all()
                )
    checks.append(("geodesic endpoints and unit steps", ok_end, float(worst_step), 1.0))
    checks.append(("geodesic injectivity", ok_inj, 1.0 if ok_inj else 0.0, 1.0))
    checks.append(("geodesic sign equivariance", ok_sign, 1.0 if ok_sign else 0.0, 1.0))
    return checks


def _suite_lattice() -> list[tuple[str, bool, float, float]]:
    plan = make_sample_plan(8, 2, 1, budget=10**6, seed=3)
    f = random_grid_function(8, 2, 2, 4.0, seed=3)
    shifted = f.shift((3, 5))
    worst = 0.0
    for spec in (Edge(1), Diagonal(), ShiftedSet((1, 2), 1)):
        worst = max(worst, abs(gap_moment(f, spec, plan) - gap_moment(shifted, spec, plan)))
    rt = GridFunction.from_json_dict(f.to_json_dict())
    rt_exact = bool((rt.values == f.values).all())
    return [
        ("gap moment translation invariance", worst < 1e-12, worst, 1e-12),
        ("grid function JSON round trip", rt_exact, 1.0 if rt_exact else 0.0, 1.0),
    ]


def _suite_operators() -> list[tuple[str, bool, float, float]]:
    f = random_grid_function(8, 2, 1, 4.0, seed=5)
    mean = float(f.values.mean())
    box = box_average(f, BoxA(1))
    edge = edge_average(f, CalE())
    mean_drift = max(
        abs(float(box.values.mean()) - mean), abs(float(edge.values.mean()) - mean)
    )
    contract = max(float(np.abs(box.values).max()), float(np.abs(edge.values).max()))
    bound = float(np.abs(f.values).max())
    residual = max(
        rad_identity_residual(random_grid_function(8, 2, 1, 4.0, seed=s), (0,) * 2)
        for s in range(5)
    )
    gram_worst = 0.0
    pts = [(a, b) for a in range(8) for b in range(8)]
    chars = [character(LatticePoint(y, 8)).values.reshape(-1, 2) for y in pts[:16]]
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            re = float(np.mean(ci[:, 0] * cj[:, 0] + ci[:, 1] * cj[:, 1]))
            im = float(np.mean(ci[:, 1] * cj[:, 0] - ci[:, 0] * cj[:, 1]))
            target = 1.0 if i == j else 0.0
            gram_worst = max(gram_worst, abs(re - target), abs(im))
    return [
        ("averaging operators preserve the mean", mean_drift < 1e-12, mean_drift, 1e-12),
        ("averaging operators are sup-norm contractions",
         contract <= bound + 1e-12, contract - bound, 1e-12),
        ("first-order projection identity residual", residual < 1e-9, residual, 1e-9),
        ("character orthonormality", gram_worst < 1e-10, gram_worst, 1e-10),
    ]


def _suite_inequalities() -> list[tuple[str, bool, float, float]]:
    plan = make_sample_plan(1, 3, 2, budget=10**6, seed=11)
    rep = linear_xp_report([1.0, 1.0, 1.0], 2, 4.0, plan)
    coeffs = [0.3, -1.2, 0.7]
    sq = linear_xp_report(coeffs, 2, 4.0, plan, square_function=True)
    rad = linear_xp_report(coeffs, 2, 4.0, plan)
    jensen = sq.rhs_terms["square_function"] <= rad.rhs_terms["rademacher"] + 1e-12
    f = random_grid_function(8, 2, 1, 4.0, seed=11)
    gplan = make_sample_plan(8, 2, 1, budget=10**6, seed=11)
    m = metric_xp_report(f, 1, gplan)
    holds = m.lhs <= sum(m.rhs_terms.values()) * 50
    return [
        ("linear report reproduces the (1,1,1) oracle",
         abs(rep.lhs - 8.0) < 1e-12, rep.lhs, 8.0),
        ("square function below rademacher moment", jensen,
         rad.rhs_terms["rademacher"] - sq.rhs_terms["square_function"], 0.0),
        ("metric report bounded on a random instance", holds,
         m.implied_constant or 0.0, 50.0),
    ]


def _suite_trace() -> list[tuple[str, bool, float, float]]:
    worst = -math.inf
    for seed in range(100):
        a = random_psd(4, seed, purpose="verify:a")
        b = random_psd(4, seed, purpose="verify:b")
        for kind in (MainQge1(2.7), Qlt1(0.5), LambdaFamily(2.5),
                     LiebThirring(1.5), OpConvex(1.5, 0.3)):
            rep = trace_inequality_report(a, b, kind)
            if isinstance(kind, OpConvex):
                # lhs is the minimum eigenvalue of the PSD combination
                worst = max(worst, -rep.lhs / max(abs(rep.lhs), 1.0))
            else:
                rhs = sum(rep.rhs_terms.values())
                scale = max(abs(rep.lhs), abs(rhs), 1e-30)
                worst = max(worst, (rep.lhs - rhs) / scale)
    ce = psd_counterexample(0.1, 4.0, 2.0)
    target = -0.1**6 - 3 * 0.1**8 + 0.1**10
    ce_err = abs(ce.quadratic_form - target) / abs(target)
    res_worst = 0.0
    for seed in range(20):
        arr = random_psd(6, seed, purpose="verify:jacobi").entries
        lam, vec = eigen_sym(arr)
        res = np.linalg.norm(arr @ vec - vec * lam) / max(np.linalg.norm(arr), 1e-30)
        res_worst = max(res_worst, float(res))
    return [
        ("trace inequalities on the random corpus", worst <= 1e-8, worst, 1e-8),
        ("counterexample closed form at s=0.1", ce_err < 1e-12, ce_err, 1e-12),
        ("counterexample eigenvalue negative", ce.min_eigenvalue < 0,
         ce.min_eigenvalue, 0.0),
        ("eigensolver residual", res_worst < 1e-10, res_worst, 1e-10),
    ]


def _suite_embeddings() -> list[tuple[str, bool, float, float]]:
    pts = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    img = schoenberg_embed(pts, 3.0)
    src = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)) ** (2.0 / 3.0)
    dst = np.sqrt(((img[:, None] - img[None]) ** 2).sum(-1))
    mask = src > 0
    snow_err = float(np.max(np.abs(dst[mask] - src[mask]) / src[mask]))
    sandwich = True
    for m in range(2, 9):
        for u in range(m):
            ab = grid_round_map([u], m)
            for v in range(u):
                dd = float(np.linalg.norm(grid_round_map([v], m) - ab))
                src = abs(np.exp(2j * math.pi * u / m) - np.exp(2j * math.pi * v / m))
                sandwich &= m * src <= dd <= 3 * m * src
    p, q = 6.0, 3.0
    theta = snowflake_exponent_root(p, q)
    psi0 = abs(snowflake_exponent_poly(p, q, 0.0) + p)
    psit = abs(snowflake_exponent_poly(p, q, theta))
    return [
        ("snowflake realization distances", snow_err < 1e-8, snow_err, 1e-8),
        ("grid rounding sandwich", sandwich, 1.0 if sandwich else 0.0, 1.0),
        ("exponent polynomial checkpoints", psi0 < 1e-10 and psit < 1e-10,
         max(psi0, psit), 1e-10),
    ]


def _suite_complexify() -> list[tuple[str, bool, float, float]]:
    rep = circular_moment_report(2.0)
    mom_err = abs(rep["quadrature"] - math.pi)
    u, v = np.array([1.0, -0.3]), np.array([0.4, 2.0])
    base = complexification_norm(u, v, 3.0)
    uu = math.cos(1.1) * u - math.sin(1.1) * v
    vv = math.cos(1.1) * v + math.sin(1.1) * u
    rot_err = abs(complexification_norm(uu, vv, 3.0) - base)
    plan = make_sample_plan(4, 2, 1, budget=10**6, seed=2)
    br = bridge_report(np.eye(2).tolist(), 2, 1, 4.0, plan)
    inter_ok = all(d["holds"] for d in br.extra["intermediates"].values())
    return [
        ("circular moment p=2 equals pi", mom_err < 1e-9, mom_err, 1e-9),
        ("rotation invariance of the pair norm", rot_err < 1e-8, rot_err, 1e-8),
        ("bridge intermediate bounds", inter_ok, 1.0 if inter_ok else 0.0, 1.0),
    ]


SUITES = {
    "geodesic": _suite_geodesic,
    "lattice": _suite_lattice,
    "operators": _suite_operators,
    "inequalities": _suite_inequalities,
    "trace": _suite_trace,
    "embeddings": _suite_embeddings,
    "complexify": _suite_complexify,
}


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES) + ["all"]))
def verify(suite: str) -> None:
    """Run a named invariant suite and print a check table."""
    names = sorted(SUITES) if suite == "all" else [suite]
    failed = 0
    click.echo(f"{'check':<48} {'status':<6} {'observed':>14} {'threshold':>12}",
               file=sys.stdout)
    for name in names:
        for check, ok, observed, threshold in SUITES[name]():
            status = "pass" if ok else "FAIL"
            failed += not ok
            click.echo(f"{name + ': ' + check:<48} {status:<6} "
                       f"{observed:>14.6g} {threshold:>12.6g}", file=sys.stdout)
    if failed:
        click.echo(f"{failed} check(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
