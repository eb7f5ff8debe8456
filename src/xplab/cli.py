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
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import NoReturn

import click
import numpy as np

from . import __version__
from .complexify import bridge_report, circular_moment_report, contraction_check
from .embeddings import (
    composite_grid_distortion,
    grid_bounds,
    rosenthal_distortion,
    rosenthal_exponent,
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
from .lattice import GridFunction, LatticePoint, make_sample_plan, random_grid_function
from .operators import HypercubeFunction, character
from .rng import stream
from .schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    SymMatrix,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_xp_report,
    trace_inequality_report,
)
from .verify import SUITES

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
        return {name: getattr(self, name) for name in _FIELDS}


# The one parameter table: field name -> declared type, a string such as
# "int" under postponed annotations.  The run/scan flags, the config-file
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


def _load_config(options: dict, defaults: dict) -> ExperimentConfig:
    """``defaults``, overlaid with the ``--config`` file, then the given flags."""
    base = dict(defaults)
    if "config_path" in options:
        with open(options["config_path"], encoding="utf-8") as fh:
            base.update(json.load(fh))
    base.update((k, v) for k, v in options.items() if k in _FIELDS)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# input sources
# ---------------------------------------------------------------------------


def _grid_function(cfg: ExperimentConfig, modulus: int) -> GridFunction:
    """Resolve the function source: JSON path, builtin family, or random."""
    if cfg.function_path:
        with open(cfg.function_path, encoding="utf-8") as fh:
            return GridFunction.from_json_dict(json.load(fh))
    name = (cfg.function or {}).get("family", "random")
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
        axis = np.cos(2.0 * math.pi * np.arange(modulus) / modulus)
        vals = np.broadcast_to(axis.reshape([modulus] + [1] * (cfg.n - 1)), (modulus,) * cfg.n)
        return GridFunction(modulus, cfg.n, 1, cfg.p, np.array(vals[..., None]))
    raise ValueError(f"unknown function family {name!r}")


def _matrices(cfg: ExperimentConfig, count: int, purpose: str) -> list[SymMatrix]:
    if cfg.matrix_paths:
        return [SymMatrix.from_array(np.atleast_2d(np.loadtxt(path, delimiter=",")))
                for path in cfg.matrix_paths]
    return [random_psd(cfg.d, cfg.seed, purpose=f"{purpose}:{j}") for j in range(count)]


def _hypercube(cfg: ExperimentConfig) -> HypercubeFunction:
    vals = stream(cfg.seed, "hypercube").standard_normal((2,) * cfg.n + (cfg.d,))
    return HypercubeFunction(cfg.n, cfg.d, vals)


def _coeffs(cfg: ExperimentConfig) -> list:
    return list(cfg.a) if cfg.a is not None else [1.0] * cfg.n


def _vectors(cfg: ExperimentConfig, count: int) -> list:
    """``zs``, or else ``count`` unit vectors."""
    return cfg.zs if cfg.zs is not None else np.eye(count).tolist()


def _grid_plan(cfg: ExperimentConfig, modulus: int, letters: int = 2):
    return make_sample_plan(modulus, cfg.n, cfg.k, cfg.budget, cfg.seed, letters)


def _signed(cfg: ExperimentConfig, report, items: list, *args, **kwargs) -> dict:
    """``report(items, *args, plan, **kwargs)``, its sign plan sized from
    the number of ``items`` (coefficients or matrices), not from ``n``."""
    plan = make_sample_plan(1, len(items), cfg.k, cfg.budget, cfg.seed)
    return report(items, *args, plan, **kwargs).to_json_dict()


def _holder(cfg: ExperimentConfig) -> Holder:
    if cfg.word_a is None or cfg.word_b is None:
        raise ValueError("holder kind requires word_a and word_b")
    return Holder(cfg.q, tuple(cfg.word_a), tuple(cfg.word_b))


_TRACE_KINDS = {
    "main": lambda cfg: MainQge1(cfg.q),
    "qlt1": lambda cfg: Qlt1(cfg.q),
    "lambda": lambda cfg: LambdaFamily(cfg.q),
    "holder": _holder,
    "lieb-thirring": lambda cfg: LiebThirring(cfg.r),
    "op-convex": lambda cfg: OpConvex(cfg.theta, cfg.s),
}
_SMOOTHNESS_KINDS = {
    "enflo": lambda cfg: Enflo(cfg.r),
    "bmw": lambda cfg: BMW(cfg.q, cfg.p),
    "pisier": lambda cfg: Pisier(cfg.p),
}


def _kind(cfg: ExperimentConfig, kinds: dict, family: str, default: str):
    """The ``cfg.kind`` member (``default`` when unset) of a kind table."""
    name = cfg.kind or default
    if name not in kinds:
        raise ValueError(f"unknown {family} kind {name!r}")
    return kinds[name](cfg)


def _trace(cfg: ExperimentConfig) -> dict:
    a = random_psd(cfg.d, cfg.seed, purpose="trace:a")
    b = random_psd(cfg.d, cfg.seed, purpose="trace:b")
    if cfg.matrix_paths:
        mats = _matrices(cfg, 2, "trace")
        if len(mats) != 2:
            raise ValueError("trace report needs exactly two matrices")
        a, b = mats
    return trace_inequality_report(a, b, _kind(cfg, _TRACE_KINDS, "trace", "main")).to_json_dict()


def _psd_counterexample(cfg: ExperimentConfig) -> dict:
    ce = psd_counterexample(cfg.s, cfg.q, cfg.big_k)
    return {
        "functional": "psd_counterexample",
        "params": {"s": cfg.s, "q": cfg.q, "K": cfg.big_k},
        "quadratic_form": ce.quadratic_form,
        "min_eigenvalue": ce.min_eigenvalue,
        "witness": list(ce.w),
    }


def _cotype(cfg: ExperimentConfig) -> dict:
    three = cfg.variant == "three-letter"
    M = 2 * cfg.m if three else 8 * cfg.m
    plan = _grid_plan(cfg, M, letters=3 if three else 2)
    return cotype_report(_grid_function(cfg, M), cfg.s, cfg.variant, plan).to_json_dict()


def _rosenthal_distortion(cfg: ExperimentConfig) -> dict:
    dist, s_star = rosenthal_distortion(cfg.n, cfg.q, cfg.p)
    return {
        "functional": "rosenthal_distortion",
        "params": {"n": cfg.n, "q": cfg.q, "p": cfg.p},
        "distortion": dist,
        "argmax_level": s_star,
        "exponent": rosenthal_exponent(cfg.q, cfg.p),
    }


# Report name -> the JSON payload of the report for a config.  The rows name
# each library function inside a lambda, so that it is looked up in this
# module when the report runs: a table of function objects would keep the
# originals and bypass any later rebinding of the names here, such as the
# span wrappers of benchmarks/tracer.py.
REPORTS = {
    "linear-xp": lambda cfg: _signed(cfg, linear_xp_report, _coeffs(cfg), cfg.k, cfg.p,
                                     square_function=cfg.square_function),
    "reverse-linear-xp": lambda cfg: _signed(cfg, reverse_linear_xp_report, _coeffs(cfg),
                                             cfg.k, cfg.p),
    "metric-xp": lambda cfg: metric_xp_report(
        _grid_function(cfg, 4 * cfg.m), cfg.k, _grid_plan(cfg, 4 * cfg.m)).to_json_dict(),
    "reverse-metric-xp": lambda cfg: reverse_metric_xp_report(
        _grid_function(cfg, 8 * cfg.m), cfg.k, _grid_plan(cfg, 8 * cfg.m)).to_json_dict(),
    "schatten-xp": lambda cfg: _signed(cfg, schatten_xp_report,
                                       _matrices(cfg, cfg.n, "schatten-xp"), cfg.k, cfg.p),
    "psd-xp": lambda cfg: _signed(cfg, psd_xp_report, _matrices(cfg, cfg.n, "psd-xp"),
                                  cfg.k, cfg.q),
    "khinchine": lambda cfg: _signed(cfg, khinchine_report,
                                     _matrices(cfg, cfg.n, "khinchine"), cfg.p),
    "trace": _trace,
    "psd-counterexample": _psd_counterexample,
    "smoothness": lambda cfg: smoothness_report(
        _hypercube(cfg), _kind(cfg, _SMOOTHNESS_KINDS, "smoothness", "enflo")).to_json_dict(),
    "cotype": _cotype,
    "convolution-probe": lambda cfg: convolution_probe(
        _grid_function(cfg, 4 * cfg.m), cfg.p).to_json_dict(),
    "convolution-search": lambda cfg: convolution_search(
        4 * cfg.m, cfg.n, cfg.p, cfg.trials, cfg.seed),
    "scaling-witness": lambda cfg: scaling_witness_report(
        cfg.m, cfg.n, cfg.k, cfg.p).to_json_dict(),
    "displacement": lambda cfg: displacement_report(
        _grid_function(cfg, 4 * cfg.m),
        tuple(int(v) for v in (cfg.subset or range(1, cfg.k + 1))), cfg.R, cfg.p,
    ).to_json_dict(),
    "rosenthal-distortion": _rosenthal_distortion,
    "grid-distortion": lambda cfg: {
        **composite_grid_distortion(cfg.m, cfg.n, cfg.q, cfg.p, cfg.which,
                                    budget=cfg.budget).to_json_dict(),
        "functional": "grid_distortion",
        "params": {"m": cfg.m, "n": cfg.n, "q": cfg.q, "p": cfg.p, "which": cfg.which},
    },
    "grid-bounds": lambda cfg: {
        **grid_bounds(cfg.m, cfg.n, cfg.q, cfg.p),
        "functional": "grid_bounds",
        "params": {"m": cfg.m, "n": cfg.n, "q": cfg.q, "p": cfg.p},
    },
    "bridge": lambda cfg: bridge_report(
        _vectors(cfg, cfg.n), cfg.m, cfg.k, cfg.p, _grid_plan(cfg, 2 * cfg.m)).to_json_dict(),
    "contraction": lambda cfg: _signed(cfg, contraction_check, _coeffs(cfg),
                                       _vectors(cfg, len(_coeffs(cfg))), cfg.p),
    "circular-moment": lambda cfg: {**circular_moment_report(cfg.p),
                                    "functional": "circular_moment"},
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
    if cfg.format not in ("json", "csv"):
        raise ValueError(f"unknown format {cfg.format!r}")
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
    else:
        text = _csv_text([_flatten(document)])
    return text, 2 if payload.get("warnings") else 0


def _scan_text(cfg: ExperimentConfig, name: str, values_csv: str) -> tuple[str, int]:
    """One CSV row per value of the swept field: the numeric report fields,
    then the report's warnings joined by "; "."""
    if cfg.format != "csv":
        raise ValueError(f"scan writes CSV only; format {cfg.format!r} is not supported")
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
        payload = REPORTS[cfg.subcommand](cfg)
        row = {"sweep": name, "value": cast}
        row.update((k, v) for k, v in _flatten(payload).items()
                   if isinstance(v, (int, float, bool)))
        rows.append(dict(row, warnings="; ".join(payload.get("warnings") or [])))
    return _csv_text(rows), 0


# The run/scan flag table: --flag -> (key, cast), cast None for a bool flag
# that takes no value.  One row per scalar config field (``_`` written as
# ``-``), plus the flags that do not map one to one onto a field.
_CASTS = {"int": int, "float": float, "str": str, "bool": None}
_RUN_FLAGS = {
    "--config": ("config_path", str),
    "--a": ("a", lambda text: [float(v) for v in text.split(",")]),
    "--family": ("function", lambda name: {"family": name}),
    **{"--" + name.replace("_", "-"): (name, _CASTS[kind])
       for name, kind in _FIELDS.items() if kind in _CASTS and name != "subcommand"},
    # float, so that --budget 1e6 works; the config check makes it an int
    "--budget": ("budget", float),
}
_SCAN_FLAGS = {"--sweep": ("sweep", str), "--values": ("values", str), **_RUN_FLAGS}
_FLAG_HELP = {
    "--a": "comma-separated scalar coefficients",
    "--family": "builtin function family (random/character/indicator/cosine)",
    "--sweep": "name of the single swept config field",
    "--values": "comma-separated sweep values, or geom:start:stop:count",
}


def _flag_help(flags: dict) -> str:
    """The report names and the flag list, one line per row of ``flags``,
    that ``--help`` prints."""
    lines = [f"Reports: {', '.join(sorted(REPORTS))}.", "", "\b",
             "Flags (--flag VALUE or --flag=VALUE; a bool flag takes no value):"]
    for flag, (_, cast) in flags.items():
        metavar = {int: "INTEGER", float: "FLOAT"}.get(cast, "TEXT")
        usage = flag if cast is None else f"{flag} {metavar}"
        lines.append(f"  {usage:<22} {_FLAG_HELP.get(flag, '')}".rstrip())
    return "\n".join(lines)


def _parse(tokens: tuple, flags: dict) -> tuple[str | None, dict]:
    """The report name and the ``key -> value`` of each flag in ``tokens``.

    A flag is ``--flag value`` or ``--flag=value``, a bool flag takes no
    value, a repeated flag keeps its last value, and the one bare token,
    wherever it stands, is the report.
    """
    report, options = None, {}
    rest = iter(tokens)
    for token in rest:
        if not token.startswith("--"):
            if report is not None:
                raise ValueError(f"unexpected argument {token!r}")
            report = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"no such flag {flag}")
        key, cast = flags[flag]
        if cast is None:
            if eq:
                raise ValueError(f"flag {flag} takes no value")
            options[key] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                raise ValueError(f"flag {flag} needs a value")
        try:
            options[key] = cast(value)
        except ValueError:
            raise ValueError(f"invalid value {value!r} for {flag}") from None
    return report, options


def _fail(exc: Exception) -> NoReturn:
    """Write ``exc`` to stderr as a JSON error and exit 1."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload, sort_keys=True), file=sys.stderr)
    sys.exit(1)


def _execute(tokens: tuple, flags: dict, render, *required: str, **defaults) -> None:
    """Parse ``tokens`` against ``flags``, load the config over ``defaults``,
    render it with ``render(cfg, *values of the required flags)``, write the
    text to ``cfg.out`` or stdout, and exit with the rendered exit code (1
    with a JSON error on stderr when anything fails)."""
    if "--help" in tokens:  # after the report name, where click stops looking
        ctx = click.get_current_context()
        click.echo(ctx.get_help(), file=sys.stdout)
        ctx.exit()
    try:
        report, options = _parse(tokens, flags)
        missing = [f"--{key}" for key in required if key not in options]
        if missing:
            raise ValueError(f"missing flag {', '.join(missing)}")
        cfg = _load_config(options, defaults)
        cfg.subcommand = report or cfg.subcommand
        if cfg.subcommand not in REPORTS:
            raise ValueError(f"unknown report {cfg.subcommand!r}")
        text, code = render(cfg, *(options[key] for key in required))
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            # Every echo here names its stream: without file=, click caches the
            # resolved stream in a WeakKeyDictionary whose value is the stream
            # itself, so each swapped-in sys.stdout would be kept for good.
            click.echo(text, nl=False, file=sys.stdout)
    except Exception as exc:  # noqa: BLE001 - single process boundary
        _fail(exc)
    sys.exit(code)


class _Commands(click.Group):
    """A subcommand group whose unknown subcommand is a usage error like any
    other: exit 1 with a JSON error, not click's exit 2."""

    def get_command(self, ctx: click.Context, name: str) -> click.Command:
        command = super().get_command(ctx, name)
        if command is None:
            _fail(ValueError(f"unknown command {name!r}"))
        return command


@click.group(cls=_Commands)
@click.version_option(__version__)
def main() -> None:
    """Numerical laboratory for torus, hypercube and Schatten inequalities."""


# run and scan hand their tokens to _parse.  Unknown options are kept as
# tokens, and option matching stops at the first bare token (the report
# name), so click does not look up each flag against an option table.
_TOKENS = {"ignore_unknown_options": True, "allow_interspersed_args": False}


@main.command(context_settings=_TOKENS, epilog=_flag_help(_RUN_FLAGS))
@click.argument("tokens", nargs=-1, type=click.UNPROCESSED, metavar="REPORT [FLAGS]...")
def run(tokens: tuple) -> None:
    """Execute one report and write an xp-report/1 JSON document."""
    _execute(tokens, _RUN_FLAGS, _document_text)


@main.command(context_settings=_TOKENS, epilog=_flag_help(_SCAN_FLAGS))
@click.argument("tokens", nargs=-1, type=click.UNPROCESSED, metavar="REPORT [FLAGS]...")
def scan(tokens: tuple) -> None:
    """Sweep exactly one parameter and write one CSV row per value."""
    _execute(tokens, _SCAN_FLAGS, _scan_text, "sweep", "values", format="csv")


@main.command()
@click.argument("suite", required=False, metavar="{" + "|".join([*sorted(SUITES), "all"]) + "}")
def verify(suite: str | None) -> None:
    """Run a named invariant suite and print a check table."""
    if suite != "all" and suite not in SUITES:
        _fail(ValueError(f"unknown suite {suite!r}; choose one of "
                         f"{', '.join(sorted(SUITES))} or all"))
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
