"""Output checks for benchmark reports.

Each job carries ``expect``: one entry per output row (one for ``run``, one
per swept value for ``scan``).  An entry holds

* ``exact``: flattened report fields that must match to 1e-9 relative (with
  a 1e-12 absolute floor), the tolerance of the regression corpus in
  ``tests/data/regression_corpus.json``;
* ``mc``: Monte Carlo fields as ``[exact value, variance of one sample]``.
  A field passes when it lies within ``z * sqrt(variance / budget)`` of the
  exact value, ``budget`` being the entry's sample budget.

Only stored fields are compared, so reports may gain fields.  ``plan`` and
``notes`` are never stored: they describe how a value was computed, not the
value.  This module imports only the standard library, so a worker can load
it before the timed import of ``xplab.cli``.
"""

from __future__ import annotations

import csv
import io
import json
import math

SCHEMA = "xp-report/1"
REL_TOL = 1e-9
ABS_TOL = 1e-12
SKIPPED = ("plan", "notes")


def flatten(obj, prefix: str = "") -> dict:
    """Dotted-key leaves of a report; ``warnings`` stays one list value."""
    out: dict = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            if not prefix and key in SKIPPED:
                continue
            if not prefix and key == "warnings":
                out[key] = list(val or [])
                continue
            out.update(flatten(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            out.update(flatten(val, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def _scalar(text: str):
    """A CSV cell as the value the report held."""
    if text in ("True", "False"):
        return text == "True"
    if text == "":
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def csv_rows(text: str) -> list[dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({k: _scalar(v) for k, v in row.items()
                     if not k.startswith(tuple(s + "." for s in SKIPPED))})
    return rows


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def matches(got, ref) -> bool:
    if _number(ref) and _number(got):
        return abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL
    return got == ref


def _compare(row: dict, expect: dict, z: float) -> str | None:
    for key, ref in expect.get("exact", {}).items():
        if key not in row:
            return f"missing field {key}"
        if not matches(row[key], ref):
            return f"{key}={row[key]!r}, expected {ref!r}"
    budget = expect.get("budget")
    for key, (exact, variance) in expect.get("mc", {}).items():
        got = row.get(key)
        if not _number(got):
            return f"missing field {key}"
        tol = z * math.sqrt(max(variance, 0.0) / budget) + REL_TOL * abs(exact) + ABS_TOL
        if not abs(got - exact) <= tol:
            return (f"{key}={got!r} is {abs(got - exact):.3g} from exact {exact!r} "
                    f"(tolerance {tol:.3g})")
    return None


def check(job: dict, code, stdout: str, z: float) -> str | None:
    """None if the report is correct, else the reason it is not."""
    try:
        if job["args"][0] == "run":
            doc = json.loads(stdout)
            if doc.get("schema") != SCHEMA:
                return f"schema {doc.get('schema')!r}"
            warnings = doc["report"].get("warnings") or []
            if code != (2 if warnings else 0):
                return f"exit code {code!r} with {len(warnings)} warning(s)"
            rows = [flatten(doc["report"])]
        else:
            if code != 0:
                return f"exit code {code!r}"
            rows = csv_rows(stdout)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if len(rows) != len(job["expect"]):
        return f"{len(rows)} output rows, expected {len(job['expect'])}"
    for row, expect in zip(rows, job["expect"]):
        reason = _compare(row, expect, z)
        if reason is not None:
            return reason
    return None
