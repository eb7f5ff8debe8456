"""Outside-in tracer: spans and work counters around xplab's public functions.

``install`` rebinds every binding of a public function in every ``xplab``
namespace (``from .x import y`` makes several bindings of one function), plus
``rng.stream``, ``SymMatrix.from_array`` and the numpy eigensolvers; the
``xplab`` sources are left untouched.  A layer is the module that defines a
function.  Each call inside a report becomes a span (report, id, parent,
layer, name, start, end); spans stay in memory until ``write_spans``.

A layer's self time is the time of its spans minus the part their child spans
cover.  The report span itself belongs to the ``cli`` layer.  Counters are
kept per pass and reset by ``end_pass``; every time is in seconds per pass.
Bytes are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import xplab

LAYERS = ("cli", "rng", "lattice", "operators", "inequalities", "schatten",
          "embeddings", "complexify")
MODULES = {layer: importlib.import_module(f"xplab.{layer}") for layer in LAYERS}
EIGENSOLVERS = ("jacobi_eigh", "eigen_sym", "eigh", "eigvalsh")


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _matrices(a) -> tuple[int, int]:
    """(number of matrices, order) of a matrix or a stack of matrices."""
    shape = np.shape(a)
    return (math.prod(shape[:-2]) if len(shape) > 2 else 1), (shape[-1] if shape else 0)


# ---------------------------------------------------------------------------
# counters taken at layer boundaries: hook(tracer, span, args, kwargs, result)
# ---------------------------------------------------------------------------


def _eig(tr, span, args, kwargs, result):
    a = args[0] if args else kwargs.get("a")
    if span.name == "schatten.eigen_sym" and isinstance(a, MODULES["schatten"].SymMatrix):
        return  # cached spectrum, nothing solved
    if tr.inside("eig"):
        return  # counted by the outermost eigensolver
    count, d = _matrices(a)
    tr.count["schatten.eig_calls"] += count
    tr.count["schatten.eig_work_d3"] += count * d**3
    tr.secs["schatten.eig_s"] += span.duration


def _gap(tr, span, args, kwargs, result):
    f, spec = args[0], _arg(args, kwargs, 1, "spec")
    d, n = f.value_dim, f.dimension
    if result.mode == "exhaustive":
        # per term: the rolled copy written, both operands read, the
        # difference written (the symmetric diagonal rolls twice)
        rolls = 2 if type(spec).__name__ == "SymmetricDiagonal" else 1
        tr.count["lattice.gap_exhaustive_calls"] += 1
        tr.count["lattice.exhaustive_terms"] += result.count
        tr.count["lattice.exhaustive_bytes_computed"] += result.count * d * 8 * (3 + rolls)
        tr.secs["lattice.gap_exhaustive_s"] += span.duration
    else:
        # per sample: x, the two displacements and two index arrays of n
        # int64, two gathered values and their difference of d floats
        tr.count["lattice.gap_mc_calls"] += 1
        tr.count["lattice.mc_samples"] += result.count
        tr.count["lattice.mc_bytes_computed"] += result.count * 8 * (5 * n + 3 * d)
        tr.secs["lattice.gap_mc_s"] += span.duration


def _subsets(tr, plan, items):
    tr.count["inequalities.subsets_evaluated"] += len(items)
    if plan.subset_mode == "sampled":
        tr.count["lattice.subsets_drawn"] += len(items)
        tr.count["lattice.subsets_distinct"] += len(set(items))


def _stream(tr, span, args, kwargs, result):
    tr.count["rng.stream_calls"] += 1
    tr.report_streams.add((int(args[0]), _arg(args, kwargs, 1, "purpose")))


def _signed_power_mean(tr, span, args, kwargs, result):
    plan = _arg(args, kwargs, 3, "plan")
    subset = _arg(args, kwargs, 1, "subset")
    patterns = 2 ** len(subset) if plan.mode == "exhaustive" else plan.budget
    tr.count["inequalities.sign_patterns"] += patterns
    tr.secs["inequalities.signed_power_mean_s"] += span.duration
    tr.secs["inequalities.signed_power_mean_self_s"] += span.self_time


def _operator(tr, span, args, kwargs, result):
    # each translate of a table is read and written by np.roll, then the
    # running sum reads two tables and writes one
    tr.count["operators.calls"] += 1
    f, kind = (args + (None, None))[:2]
    values = getattr(f, "values", None)
    if values is None:
        return
    n = f.dimension if hasattr(f, "dimension") else values.ndim - 1
    name = type(kind).__name__
    if span.name == "operators.edge_average":
        axes = {"Ej": 1, "CalE": n}.get(name, n - 1)
        passes = 2 * axes
    elif span.name == "operators.box_average":
        R = getattr(kind, "R", 1)
        passes = n * (R + 1)
    else:
        passes = 1
    tr.count["operators.bytes_computed"] += 5 * passes * values.nbytes


def _points(tr, span, args, kwargs, result):
    if tr.inside("emb"):
        return
    if span.name == "embeddings.composite_grid_distortion":
        m, n = args[0], args[1]
        tr.count["embeddings.points"] += (m + 1) ** n
    elif span.name in ("embeddings.schoenberg_embed", "embeddings.distortion"):
        tr.count["embeddings.points"] += len(args[0])


def _norm(tr, span, args, kwargs, result):
    tr.count["complexify.norm_calls"] += 1
    tr.count["complexify.quad_nodes"] += int(_arg(args, kwargs, 3, "nodes", 512))
    tr.secs["complexify.norm_s"] += span.duration


def _bridge(tr, span, args, kwargs, result):
    tr.secs["complexify.bridge_self_s"] += span.self_time


HOOKS = {
    "schatten.jacobi_eigh": (_eig, "eig"),
    "schatten.eigen_sym": (_eig, "eig"),
    "numpy.linalg.eigh": (_eig, "eig"),
    "numpy.linalg.eigvalsh": (_eig, "eig"),
    "lattice.gap_moment_estimate": (_gap, None),
    "rng.stream": (_stream, None),
    "inequalities.signed_power_mean": (_signed_power_mean, None),
    "complexify.complexification_norm": (_norm, None),
    "complexify.bridge_report": (_bridge, None),
}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "group", "start", "child", "duration",
                 "self_time")

    def __init__(self, span_id, parent, layer, name, group, start):
        self.id, self.parent, self.layer, self.name = span_id, parent, layer, name
        self.group, self.start, self.child = group, start, 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[Span] = []
        self.report = None
        self.report_streams: set = set()
        self.next_id = 0
        self.patches: list[tuple] = []
        self.wrappers = self._make_wrappers()
        self._reset()

    def _reset(self) -> None:
        self.count: dict = defaultdict(int)
        self.secs: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)

    # -- spans -----------------------------------------------------------

    def inside(self, group: str) -> bool:
        """True if an open span (other than the innermost) is in ``group``."""
        return any(s.group == group for s in self.stack[:-1])

    def _open(self, layer: str, name: str, group) -> Span:
        parent = self.stack[-1].id if self.stack else -1
        span = Span(self.next_id, parent, layer, name, group, time.perf_counter())
        self.next_id += 1
        self.stack.append(span)
        return span

    def _close(self, span: Span, failed: bool) -> None:
        end = time.perf_counter()
        span.duration = end - span.start
        span.self_time = span.duration - span.child
        self.self_s[span.layer] += span.self_time
        outer = self.stack[-2] if len(self.stack) > 1 else None
        if outer is not None:
            outer.child += span.duration
        if failed and (outer is None or outer.layer != span.layer):
            self.count[f"{span.layer}.errors"] += 1
        self.spans.append((self.report, span.id, span.parent, span.layer, span.name,
                           span.start, end))

    def _pop(self, span: Span, failed: bool, hook, args, kwargs, result) -> None:
        self._close(span, failed)
        try:
            if hook is not None and not failed:
                hook(self, span, args, kwargs, result)
        finally:
            self.stack.pop()

    def begin_report(self, report_id) -> None:
        self.report = report_id
        self.report_streams = set()
        self._open("cli", "cli.main", None)

    def end_report(self, code, stdout: str) -> None:
        span = self.stack[-1]
        self._pop(span, code not in (0, 2), None, (), {}, None)
        self.count["cli.emit_bytes"] += len(stdout.encode("utf-8"))
        self.count["rng.distinct_streams"] += len(self.report_streams)
        self.secs["report_s"] += span.duration
        self.report = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        hook, group = HOOKS.get(name, (None, None))
        if layer == "operators":
            hook = _operator
        elif layer == "embeddings":
            hook, group = _points, "emb"
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                if tracer.report is None:
                    return fn(*args, **kwargs)
                return tracer._iterate(fn(*args, **kwargs), layer, name,
                                       _arg(args, kwargs, 2, "plan"))
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.report is None:
                return fn(*args, **kwargs)
            span = tracer._open(layer, name, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._pop(span, True, hook, args, kwargs, None)
                raise
            tracer._pop(span, False, hook, args, kwargs, result)
            return result

        return wrapper

    def _iterate(self, it, layer, name, plan):
        """Each step of a generator is a span; counts taken when it ends."""
        items = []
        try:
            while True:
                span = self._open(layer, name, None)
                try:
                    item = next(it)
                except StopIteration:
                    self._pop(span, False, None, (), {}, None)
                    return
                except BaseException:
                    self._pop(span, True, None, (), {}, None)
                    raise
                self._pop(span, False, None, (), {}, None)
                items.append(item)
                yield item
        finally:
            _subsets(self, plan, items)

    def _make_wrappers(self) -> dict:
        """id(original function) -> (original, wrapper)."""
        found = {}
        for layer, module in MODULES.items():
            names = list(getattr(module, "__all__", []))
            if layer == "rng":
                names.append("stream")
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    found[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{attr}"))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            found[id(fn)] = (fn, self._wrap(fn, "schatten", f"numpy.linalg.{attr}"))
        return found

    def install(self) -> None:
        namespaces = [xplab, np.linalg, *MODULES.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                entry = self.wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self.patches.append((ns, attr, value))
                    setattr(ns, attr, entry[1])
        sym = MODULES["schatten"].SymMatrix
        original = sym.__dict__["from_array"]
        wrapped = self._wrap(original.__func__, "schatten", "schatten.SymMatrix.from_array")
        self.patches.append((sym, "from_array", original))
        setattr(sym, "from_array", staticmethod(wrapped))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self.patches):
            setattr(ns, attr, value)
        self.patches = []

    # -- results ---------------------------------------------------------

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass just traced; counters restart."""
        c, s = self.count, self.secs
        out = {name: c[name] for name in COUNTS}
        out.update({name: s[name] for name in ("schatten.eig_s", "lattice.gap_exhaustive_s",
                                               "lattice.gap_mc_s", "complexify.norm_s",
                                               "complexify.bridge_self_s",
                                               "inequalities.signed_power_mean_s",
                                               "report_s")})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = c[f"{layer}.errors"]
        out["inequalities.report_self_s"] = (self.self_s["inequalities"]
                                             - s["inequalities.signed_power_mean_self_s"])
        drawn = c["lattice.subsets_drawn"]
        out["lattice.subset_distinct_ratio"] = (
            c["lattice.subsets_distinct"] / drawn if drawn else 1.0)
        calls = c["rng.stream_calls"]
        out["rng.distinct_stream_ratio"] = c["rng.distinct_streams"] / calls if calls else 1.0
        self._reset()
        return out

    def write_spans(self, path: Path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("report\tspan\tparent\tlayer\tname\tstart_s\tend_s\n")
            for rec in self.spans:
                fh.write("\t".join(str(v) for v in rec) + "\n")
        return len(self.spans)


COUNTS = (
    "schatten.eig_calls", "schatten.eig_work_d3", "embeddings.points",
    "lattice.gap_exhaustive_calls", "lattice.exhaustive_terms",
    "lattice.exhaustive_bytes_computed", "lattice.gap_mc_calls", "lattice.mc_samples",
    "lattice.mc_bytes_computed", "lattice.subsets_drawn", "rng.stream_calls",
    "operators.calls", "operators.bytes_computed", "inequalities.sign_patterns",
    "inequalities.subsets_evaluated", "complexify.norm_calls", "complexify.quad_nodes",
    "cli.emit_bytes",
)
