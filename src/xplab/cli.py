"""Batch experiment runner: one process per report, JSON/CSV output.

``xplab run REPORT`` executes a named report with parameters from inline
flags or a JSON config file, writes a versioned ``xp-report/1`` JSON
document, and exits 0 on success, 2 when the report carries hypothesis
warnings, and 1 on error.  ``xplab verify SUITE`` runs the named invariant
suite and prints a check table.  ``xplab scan REPORT --sweep NAME --values
...`` sweeps exactly one parameter and emits a CSV curve.  Usage errors
exit 1 too, with a JSON error on stderr.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import textwrap
import time
import warnings
from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from . import __version__, lattice
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
    _cotype_variant,
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
from .lattice import GridFunction, LatticePoint, _count, make_sample_plan, random_grid_function
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

    int fields take integral numbers, float fields any finite number, and the
    other fields only their own JSON type (so ``"false"`` is not a bool).
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    # false for nan, infinities and ints past the largest float
    if kind == "float" and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in _JSON_TYPES and isinstance(value, _JSON_TYPES[kind]):
        return value
    wanted = "a finite float" if kind == "float" else kind
    raise ValueError(f"config field {name!r} must be {wanted}, got {value!r}")


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


def _integers(name: str, values) -> tuple[int, ...]:
    """The entries of config list ``name``, each an integral number."""
    return tuple(_checked(f"{name}[{i}]", "int", v) for i, v in enumerate(values))


def _grid_function(cfg: ExperimentConfig, modulus: int) -> GridFunction:
    """Resolve the function source: JSON path, builtin family, or random."""
    if cfg.function_path:
        with open(cfg.function_path, encoding="utf-8") as fh:
            return GridFunction.from_json_dict(json.load(fh))
    if cfg.n < 1:
        raise ValueError("n must be >= 1")
    name = (cfg.function or {}).get("family", "random")
    if name == "random":
        return random_grid_function(modulus, cfg.n, cfg.d, cfg.p, cfg.seed)
    if name == "character":
        y = cfg.y or [1] + [0] * (cfg.n - 1)
        if len(y) != cfg.n:
            raise ValueError(f"config field 'y' must have n={cfg.n} entries, got {len(y)}")
        f = character(LatticePoint(_integers("y", y), modulus))
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
        with warnings.catch_warnings():  # an empty file: from_array names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return [SymMatrix.from_array(np.atleast_2d(np.loadtxt(path, delimiter=",")))
                    for path in cfg.matrix_paths]
    return [random_psd(cfg.d, cfg.seed, purpose=f"{purpose}:{j}") for j in range(count)]


def _hypercube(cfg: ExperimentConfig) -> HypercubeFunction:
    vals = stream(cfg.seed, "hypercube").standard_normal((2,) * cfg.n + (cfg.d,))
    return HypercubeFunction(cfg.n, cfg.d, vals)


def _coeffs(cfg: ExperimentConfig) -> list:
    return list(cfg.a) if cfg.a is not None else [1.0] * cfg.n


def _vectors(cfg: ExperimentConfig, count: int) -> list | np.ndarray:
    """``zs``, or else ``np.eye(count)`` once count >= 1 and ``_probe_modulus`` admits count^2."""
    if cfg.zs is None and count < 1:
        raise ValueError("n must be >= 1")
    return cfg.zs if cfg.zs is not None else np.eye(_probe_modulus(cfg, count, 2))


def _signed(cfg: ExperimentConfig, report, data, *args, modulus: int = 1,
            k: int | None = None, letters: int = 2, **kwargs) -> dict:
    """``report(data, *args, plan, **kwargs)``, its plan sized from the built
    ``data``, not from ``--m``/``--n``: modulus^n * letters^n terms and C(n, k)
    subsets (k = ``cfg.k`` unless given) for a grid function's own modulus and
    dimension, or for n = len(data) coefficients, vectors or matrices."""
    modulus, n = ((data.modulus, data.dimension) if isinstance(data, GridFunction)
                  else (modulus, len(data)))
    plan = make_sample_plan(modulus, n, cfg.k if k is None else k, cfg.budget, cfg.seed, letters)
    return report(data, *args, plan, **kwargs).to_json_dict()


def _probe_modulus(cfg: ExperimentConfig, modulus: int, n: int, copies: int = 1,
                   letters: int = 1) -> int:
    """``modulus``, once n >= 1 and ``copies`` x letters^n terms at each of its
    modulus^n torus points are within the budget by ``lattice._count``:
    ``--trials`` probes, n flips (Enflo, BMW) or the 2^n signs of an exhaustive
    library plan, multiplied out in a refusal while letters^n is within it.
    One probe's 2^n signs are not charged: the default budget admits Z_16^4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if copies * _count(cfg.budget, modulus * letters, n) > cfg.budget:
        signs = _count(cfg.budget, letters, n)
        terms = copies * signs if signs <= cfg.budget else f"{copies} x {letters}^{n}"
        raise ValueError(f"{terms} x {modulus}^{n} terms exceed the budget {cfg.budget}")
    return modulus


def _budgeted_function(cfg: ExperimentConfig, modulus: int, letters: int = 1) -> GridFunction:
    """``_grid_function``, checked by ``_probe_modulus`` for letters^n terms
    at each torus point: at ``modulus`` and ``--n`` before a builtin or
    random table is drawn, and at a ``--function-path`` file's own M and n."""
    if not cfg.function_path:
        _probe_modulus(cfg, modulus, cfg.n, letters=letters)
    f = _grid_function(cfg, modulus)
    _probe_modulus(cfg, f.modulus, f.dimension, letters=letters)
    return f


def _scaling_witness(cfg: ExperimentConfig) -> dict:
    """The witness, once its (2m)^n points times 2^n sign patterns are
    within the budget."""
    _probe_modulus(cfg, 2 * cfg.m, cfg.n, letters=2)
    return scaling_witness_report(cfg.m, cfg.n, cfg.k, cfg.p).to_json_dict()


def _smoothness(cfg: ExperimentConfig) -> dict:
    """The hypercube report, once its 2^n points times n flips (Enflo, BMW)
    or times 2^n sign rows (Pisier) are within the budget."""
    kind = _kind(cfg, _SMOOTHNESS_KINDS, "smoothness", "enflo")
    copies, letters = (1, 2) if isinstance(kind, Pisier) else (cfg.n, 1)
    _probe_modulus(cfg, 2, cfg.n, copies, letters)
    return smoothness_report(_hypercube(cfg), kind).to_json_dict()


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
    if cfg.matrix_paths:
        mats = _matrices(cfg, 2, "trace")
        if len(mats) != 2:
            raise ValueError("trace report needs exactly two matrices")
    else:
        mats = [random_psd(cfg.d, cfg.seed, purpose=f"trace:{x}") for x in "ab"]
    return trace_inequality_report(*mats, _kind(cfg, _TRACE_KINDS, "trace", "main")).to_json_dict()


def _psd_counterexample(cfg: ExperimentConfig) -> dict:
    """The counterexample, once an integer q's q^2 exact terms are within the budget."""
    if cfg.q > 0 and cfg.q == int(cfg.q) and cfg.q * cfg.q > cfg.budget:
        raise ValueError(f"{cfg.q:g}^2 terms of the exact power exceed the budget {cfg.budget}")
    ce = psd_counterexample(cfg.s, cfg.q, cfg.big_k)
    return {
        "functional": "psd_counterexample",
        "params": {"s": cfg.s, "q": cfg.q, "K": cfg.big_k},
        "quadratic_form": ce.quadratic_form,
        "min_eigenvalue": ce.min_eigenvalue,
        "witness": list(ce.w),
    }


def _cotype(cfg: ExperimentConfig) -> dict:
    factor, law, _ = _cotype_variant(cfg.variant)
    return _signed(cfg, cotype_report, _grid_function(cfg, factor * cfg.m), cfg.s, cfg.variant,
                   k=0, letters=len(lattice._law(law, 1)[1]))


def _rosenthal_distortion(cfg: ExperimentConfig) -> dict:
    """The distortion, once the objective's n support sizes are within the budget."""
    if cfg.n > cfg.budget:
        raise ValueError(f"{cfg.n} support sizes exceed the budget {cfg.budget}")
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
    "metric-xp": lambda cfg: _signed(cfg, metric_xp_report, _grid_function(cfg, 4 * cfg.m),
                                     cfg.k),
    "reverse-metric-xp": lambda cfg: _signed(cfg, reverse_metric_xp_report,
                                             _grid_function(cfg, 8 * cfg.m), cfg.k),
    "schatten-xp": lambda cfg: _signed(cfg, schatten_xp_report,
                                       _matrices(cfg, cfg.n, "schatten-xp"), cfg.k, cfg.p),
    "psd-xp": lambda cfg: _signed(cfg, psd_xp_report, _matrices(cfg, cfg.n, "psd-xp"),
                                  cfg.k, cfg.q, letters=1),
    "khinchine": lambda cfg: _signed(cfg, khinchine_report,
                                     _matrices(cfg, cfg.n, "khinchine"), cfg.p, k=0),
    "trace": _trace,
    "psd-counterexample": _psd_counterexample,
    "smoothness": _smoothness,
    "cotype": _cotype,
    "convolution-probe": lambda cfg: convolution_probe(
        _budgeted_function(cfg, 4 * cfg.m), cfg.p).to_json_dict(),
    "convolution-search": lambda cfg: convolution_search(
        _probe_modulus(cfg, 4 * cfg.m, cfg.n, cfg.trials), cfg.n, cfg.p, cfg.trials, cfg.seed),
    "scaling-witness": _scaling_witness,
    "displacement": lambda cfg: displacement_report(
        _budgeted_function(cfg, 4 * cfg.m, letters=2),
        _integers("subset", cfg.subset or range(1, cfg.k + 1)), cfg.R, cfg.p,
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
    "bridge": lambda cfg: _signed(cfg, bridge_report, _vectors(cfg, cfg.n), cfg.m, cfg.k,
                                  cfg.p, modulus=2 * cfg.m),
    "contraction": lambda cfg: _signed(cfg, contraction_check, _coeffs(cfg),
                                       _vectors(cfg, len(_coeffs(cfg))), cfg.p, k=0),
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


def _check_finite(cells: dict, where: str = "") -> None:
    """Reject flattened report cells that hold a non-finite number, naming
    each: a result that overflowed is not a reading, and JSON has no form
    for it."""
    bad = [f"{key} = {val}" for key, val in cells.items()
           if isinstance(val, float) and not math.isfinite(val)]
    if bad:
        raise ValueError(f"report fields are not finite{where}: {', '.join(bad)}")


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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite fields are named below
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
        try:
            text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:
            _check_finite(_flatten(document))
            raise
    else:
        cells = _flatten(document)
        _check_finite(cells)
        text = _csv_text([cells])
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
        spec = values_csv.split(":")[1:]
        if len(spec) != 3 or not spec[2].isdecimal() or int(spec[2]) < 1:
            raise ValueError(f"sweep values {values_csv!r} are not geom:start:stop:count "
                             "with count >= 1")
        with np.errstate(invalid="ignore"):  # ends of two signs give nan
            values = list(np.geomspace(float(spec[0]), float(spec[1]), int(spec[2])))
    else:
        values = [float(v) for v in values_csv.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"sweep values {values_csv!r} include a non-finite value")
    rows = []
    for value in values:
        cast = int(round(value)) if kind == "int" else value
        setattr(cfg, name, cast)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite fields are named below
            payload = REPORTS[cfg.subcommand](cfg)
        row = {"sweep": name, "value": cast}
        row.update((k, v) for k, v in _flatten(payload).items()
                   if isinstance(v, (int, float, bool)))
        _check_finite(row, f" at {name}={cast}")
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


def _help(prog: str, command: str) -> str:
    """The ``--help`` text of ``command``: its usage line, its description
    and, for run and scan, the report names and one line per flag."""
    fn, usage, flags = _COMMANDS[command]
    lines = [f"Usage: {prog} {command} {usage}", "", fn.__doc__]
    if flags:
        lines += ["", textwrap.fill(f"Reports: {', '.join(sorted(REPORTS))}.", 79,
                                    break_on_hyphens=False),
                  "", "Flags (--flag VALUE or --flag=VALUE; a bool flag takes no value):"]
    for flag, (_, cast) in flags.items():
        metavar = {int: "INTEGER", float: "FLOAT"}.get(cast, "TEXT")
        usage = flag if cast is None else f"{flag} {metavar}"
        lines.append(f"  {usage:<22} {_FLAG_HELP.get(flag, '')}".rstrip())
    return "\n".join(lines) + "\n"


def _parse(tokens: list, flags: dict) -> tuple[str | None, dict]:
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


def _execute(tokens: list, flags: dict, render, *required: str, **defaults) -> int:
    """Parse ``tokens`` against ``flags``, load the config over ``defaults``,
    render it with ``render(cfg, *values of the required flags)``, write the
    text to ``cfg.out`` or stdout, and return the rendered exit code."""
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
        sys.stdout.write(text)
    return code


def _run(tokens: list) -> int:
    """Execute one report and write an xp-report/1 JSON document."""
    return _execute(tokens, _RUN_FLAGS, _document_text)


def _scan(tokens: list) -> int:
    """Sweep exactly one parameter and write one CSV row per value."""
    return _execute(tokens, _SCAN_FLAGS, _scan_text, "sweep", "values", format="csv")


def _verify(tokens: list) -> int:
    """Run a named invariant suite and print a check table."""
    suite, _ = _parse(tokens, {})
    choices = f"choose one of {', '.join(sorted(SUITES))} or all"
    if suite is None:
        raise ValueError(f"missing suite; {choices}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; {choices}")
    failed = 0
    sys.stdout.write(f"{'check':<48} {'status':<6} {'observed':>14} {'threshold':>12}\n")
    for name in sorted(SUITES) if suite == "all" else [suite]:
        for check, ok, observed, threshold in SUITES[name]():
            failed += not ok
            sys.stdout.write(f"{name + ': ' + check:<48} {'pass' if ok else 'FAIL':<6} "
                             f"{observed:>14.6g} {threshold:>12.6g}\n")
    if failed:
        sys.stdout.flush()  # the table first where both streams go to one file
        sys.stderr.write(f"{failed} check(s) failed\n")
    return 1 if failed else 0


# command -> (its function, its usage after the name, the flags its --help lists)
_COMMANDS = {
    "run": (_run, "REPORT [FLAGS]...", _RUN_FLAGS),
    "scan": (_scan, "REPORT [FLAGS]...", _SCAN_FLAGS),
    "verify": (_verify, "{" + "|".join([*sorted(SUITES), "all"]) + "}", {}),
}


class _Main:
    """Numerical laboratory for torus, hypercube and Schatten inequalities.

    ``main()`` runs ``sys.argv[1:]``; ``main.main(args, prog_name,
    standalone_mode)`` runs ``args`` in this process, for the benchmark
    worker, ``tools/dump_outputs.py`` and the tests.  Every path ends in
    ``SystemExit``, whatever ``standalone_mode`` is."""

    def __call__(self) -> NoReturn:
        self.main()

    def main(self, args=None, prog_name="xplab", standalone_mode=True) -> NoReturn:
        tokens = list(sys.argv[1:] if args is None else args)
        command = tokens[0] if tokens else None
        code = 0
        try:
            if command == "--version":
                sys.stdout.write(f"{prog_name}, version {__version__}\n")
            elif command == "--help":
                sys.stdout.write(f"Usage: {prog_name} [--version | --help | COMMAND [ARGS]...]"
                                 f"\n\n{self.__doc__.splitlines()[0]}\n\nCommands:\n")
                sys.stdout.writelines(f"  {name:<7} {fn.__doc__}\n"
                                      for name, (fn, _, _) in _COMMANDS.items())
            elif command not in _COMMANDS:
                raise ValueError(f"unknown command {command!r}" if tokens else
                                 f"missing command; choose one of {', '.join(_COMMANDS)}")
            elif "--help" in tokens:  # anywhere after the command
                sys.stdout.write(_help(prog_name, command))
            else:
                code = _COMMANDS[command][0](tokens[1:])
            sys.stdout.flush()  # a closed pipe fails here, not at exit
        except BrokenPipeError:
            # the reader of stdout is gone (``xplab verify all | head -1``):
            # the rest goes to devnull, so the flush at exit cannot fail again,
            # and the exit is Python's 1 for EPIPE, with nothing on stderr
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except Exception as exc:  # noqa: BLE001 - the one process boundary
            payload = {"error": type(exc).__name__, "message": str(exc)}
            sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
            sys.exit(1)
        sys.exit(code)


main = _Main()


if __name__ == "__main__":
    main()
