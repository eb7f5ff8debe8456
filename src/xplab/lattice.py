"""Discrete torus Z_M^n: points, grid functions, gap moments.

The torus is stored canonically with coordinates in ``[0, M)``; the symmetric
representation (coordinates in ``(-M/2, M/2]``-style windows) is available as
a view.  A :class:`GridFunction` is a total table of real ``d``-vectors over
the torus together with the exponent of the ``l_p`` norm used on values.

``gap_moment`` evaluates the mean of ``||f(x + delta) - f(x')||^power`` over
x uniform on the torus and the displacement law of a spec: delta = v * eps
with eps_j uniform on a letter set for j in the support of v, and
delta' = -delta or 0 (``_law``).  An exhaustive plan takes every sign
pattern in lexicographic order.  It sums each distinct displacement
mod M once over all x, on rolled copies of the table with the value axis
first (``GridFunction.value_first``, built once per grid function), repeats
that partial for every pattern that maps to it and combines the pattern
partials with ``math.fsum``.  delta and -delta share one pass over the table
under every law: under a mirror law they give one difference up to sign, and
otherwise the per-point norms of -delta are those of delta rolled by delta,
bit for bit.  The zero displacement needs no pass.

A Monte Carlo plan draws ``budget`` pairs (x, eps) from a seeded stream
and fills one ``samples`` array block by block (``_blocks``).  It draws x
whole as int32, every x before any sign (a one-letter law draws x only);
per block it draws the signs, forms x + delta (and x - delta under a mirror
law) in intp, gathers both values of each pair as columns of
``value_first`` flattened to ``(d, M**n)``, one flat index
(``np.ravel_multi_index``) per sample, and sums each norm over axis 0: it
holds 4n + 8 bytes per sample.  Neither the block size nor the int32 dtype
moves a bit of the estimate: numpy makes an int32 and an int64 below 2**32
from the same 32-bit words and keeps the unused half of a 64-bit word in
the stream between calls, so the draws are those of whole int64 draws, and
the axis-0 sums and ``np.mean``/``np.std`` see the same floats.  int32
holds x in [0, M) at every M below 2**31, and a table with M = 2**30
already takes 8 GiB.

``gap_moment``, which every report calls, sums a law exactly under a Monte
Carlo plan too when its sign patterns times M^n points fit ``plan.budget``
(a ``_count``): the exact mean, from no more norm evaluations than the
``budget`` samples of a gather and no draws.  ``plan.mode`` still names the
report's plan, and ``gap_moment_estimate`` follows its plan literally.

Layout rule: the long axis (torus points, samples) is innermost and the
value axis outer.  numpy pays per row of a short innermost axis: 4e5 pairs
of floats take 7.2 ms to sum over a last axis of 2 and 0.7 ms as a
(2, 4e5) array summed over axis 0, with the same bits.  An axis-0 sum adds
the d values in order; numpy may add a last axis of 8 or more floats
pairwise, so at d >= 8 a sample can differ from a value-last sum in its
last bit.

``subset_stream`` walks the size-k subsets of an exhaustive plan in
``itertools.combinations`` order.  A sampled plan draws all of its subsets
from one batch of uniforms: each draw is the positions of the k smallest of
n i.i.d. uniform doubles, which is a uniform k-subset.

Every finite sum of the library is enumerated by ``_pattern_rows`` (signs,
Z_M^n, {0..m}^n), planned by ``make_sample_plan`` and blocked by ``_blocks``:
a loop over items of ``size`` floats takes slices of at most
``_BLOCK // size`` items and at least one, so one constant bounds them all.
Where a report adds up the rows of such a block in ``math.fsum``'s correctly
rounded way, ``_fsum_rows`` returns ``math.fsum``'s floats, bit for bit,
from a TwoSum tree in numpy instead of a Python float per value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import stream

__all__ = [
    "LatticePoint",
    "GridFunction",
    "SamplePlan",
    "GapEstimate",
    "Edge",
    "Diagonal",
    "SymmetricDiagonal",
    "ThreeLetterDiagonal",
    "ShiftedSet",
    "FixedShift",
    "make_sample_plan",
    "gap_moment",
    "gap_moment_estimate",
    "geodesic",
    "subset_stream",
    "random_grid_function",
]


# ---------------------------------------------------------------------------
# points and signs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticePoint:
    """A point of Z_M^n stored with canonical residues in [0, M)."""

    coords: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(
            self, "coords", tuple(int(c) % self.modulus for c in self.coords)
        )

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def symmetric(self) -> tuple[int, ...]:
        """Symmetric-window view: residues mapped into (-M/2, M/2]."""
        half = self.modulus // 2
        return tuple(c - self.modulus if c > half else c for c in self.coords)

    def __add__(self, other: "LatticePoint | Sequence[int]") -> "LatticePoint":
        ov = other.coords if isinstance(other, LatticePoint) else tuple(other)
        if len(ov) != len(self.coords):
            raise ValueError("dimension mismatch")
        return LatticePoint(
            tuple(a + b for a, b in zip(self.coords, ov)), self.modulus
        )


def _check_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    subset = tuple(sorted(set(int(j) for j in subset)))
    if any(j < 1 or j > n for j in subset):
        raise ValueError(f"subset {subset} not contained in 1..{n}")
    return subset


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction:
    """A function Z_M^n -> R^d with an l_p value norm, stored as a table.

    ``values`` has shape ``(M,)*n + (d,)`` and is indexed by canonical
    residues.  Instances are immutable; transformations return new objects.
    """

    modulus: int
    dimension: int
    value_dim: int
    value_p: float
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.modulus,) * self.dimension + (self.value_dim,)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        if self.value_p < 1:
            raise ValueError("value_p must be >= 1")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        """Equal fields and equal tables; the cached ``value_first`` is no field."""
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (self.modulus, self.dimension, self.value_dim, self.value_p) == (
            other.modulus, other.dimension, other.value_dim, other.value_p,
        ) and np.array_equal(self.values, other.values)

    @functools.cached_property
    def value_first(self) -> np.ndarray:
        """``values`` with the value axis first, shape ``(d,) + (M,)*n``,
        C-contiguous and read-only; built on first use, once per instance."""
        table = np.ascontiguousarray(np.moveaxis(self.values, -1, 0))
        table.setflags(write=False)
        return table

    # -- views and algebra ---------------------------------------------

    def shift(self, v: Sequence[int]) -> "GridFunction":
        """Return g with g(x) = f(x + v) (torus translation)."""
        v = tuple(int(c) for c in v)
        if len(v) != self.dimension:
            raise ValueError("shift dimension mismatch")
        shifted = np.roll(
            self.values, shift=tuple(-c for c in v), axis=tuple(range(self.dimension))
        )
        return replace(self, values=shifted)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return replace(self, values=values)

    def __call__(self, x: Sequence[int]) -> np.ndarray:
        idx = tuple(int(c) % self.modulus for c in x)
        return self.values[idx]

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "M": self.modulus,
            "n": self.dimension,
            "d": self.value_dim,
            "p": self.value_p,
            "values": [float(v) for v in self.values.ravel(order="C")],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "GridFunction":
        shape = (obj["M"],) * obj["n"] + (obj["d"],)
        table = np.asarray(obj["values"], dtype=float).reshape(shape, order="C")
        return GridFunction(obj["M"], obj["n"], obj["d"], obj["p"], table)


def random_grid_function(
    modulus: int,
    dimension: int,
    value_dim: int,
    value_p: float,
    seed: int,
    purpose: str = "grid-function",
) -> GridFunction:
    """Seeded standard-normal table, deterministic per (seed, purpose)."""
    gen = stream(seed, purpose)
    shape = (modulus,) * dimension + (value_dim,)
    return GridFunction(modulus, dimension, value_dim, value_p, gen.normal(size=shape))


# ---------------------------------------------------------------------------
# displacement specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """f(x + e_j) vs f(x); j is 1-based."""

    j: int


@dataclass(frozen=True)
class Diagonal:
    """f(x + eps) vs f(x), eps uniform on {-1,1}^n."""


@dataclass(frozen=True)
class SymmetricDiagonal:
    """f(x + eps) vs f(x - eps), eps uniform on {-1,1}^n."""


@dataclass(frozen=True)
class ThreeLetterDiagonal:
    """f(x + eps) vs f(x), eps uniform on {-1,0,1}^n."""


@dataclass(frozen=True)
class ShiftedSet:
    """f(x + t*eps_S) vs f(x); S is a 1-based subset."""

    S: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "S", tuple(int(j) for j in self.S))


@dataclass(frozen=True)
class FixedShift:
    """f(x + v) vs f(x) for a fixed lattice shift v."""

    v: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", tuple(int(c) for c in self.v))


DisplacementSpec = Edge | Diagonal | SymmetricDiagonal | ThreeLetterDiagonal | ShiftedSet | FixedShift


# ---------------------------------------------------------------------------
# sample plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic description of how expectations are evaluated."""

    mode: str  # "exhaustive" | "monte-carlo"
    budget: int
    seed: int
    subset_mode: str = "exhaustive"  # "exhaustive" | "sampled"
    subset_count: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.subset_mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown subset_mode {self.subset_mode!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    def to_dict(self) -> dict:
        return dict(vars(self))


def _count(budget: int, base: int, n: int) -> int:
    """base^n, or |budget| + 1 once base >= 2 and n >= int(budget).bit_length(),
    so base^n > |budget|: for every integer c, c times either is on one side of it."""
    return abs(budget) + 1 if base >= 2 and n >= int(budget).bit_length() else base**n


def make_sample_plan(
    modulus: int, dimension: int, k: int, budget: int, seed: int, letters: int = 2
) -> SamplePlan:
    """Exhaustive iff M^n * letters^n <= budget and C(n, k) <= budget.

    ``letters`` is the size of the sign alphabet the report enumerates: 2 for
    {-1, 1}, 3 for the {-1, 0, 1} of ``ThreeLetterDiagonal``.  The product
    is a ``_count``; C(n, k) = C(n, j), j = min(k, n - k), is at least n and
    2^j once j >= 1, so it is formed only after both are within the budget.
    """
    if modulus < 1 or dimension < 1:
        raise ValueError("modulus and dimension must be >= 1")
    if not 0 <= k <= dimension:
        raise ValueError(f"k={k} out of range for n={dimension}")
    j = min(k, dimension - k)
    if (_count(budget, modulus * letters, dimension) <= budget
            and (j == 0 or dimension <= budget and _count(budget, 2, j) <= budget)
            and math.comb(dimension, j) <= budget):
        return SamplePlan("exhaustive", int(budget), int(seed))
    return SamplePlan(
        "monte-carlo", int(budget), int(seed), subset_mode="sampled",
        subset_count=min(int(budget), 4096),
    )


# ---------------------------------------------------------------------------
# gap moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapEstimate:
    """A plan-evaluated gap moment with sampling metadata."""

    value: float
    stderr: float  # 0.0 in exhaustive mode
    count: int
    mode: str


def _norm_power(
    diff: np.ndarray, value_p: float, power: float, axis: int = -1
) -> np.ndarray:
    """||diff||_{value_p}^{power} along ``axis``; overwrites ``diff``, so
    callers pass a float array of their own, never a view of data they keep."""
    np.abs(diff, out=diff)
    diff **= value_p
    norms = np.sum(diff, axis=axis)
    if power != value_p:
        norms **= 1.0 / value_p
        norms **= power
    return norms


def _spec_tag(spec: DisplacementSpec) -> str:
    return type(spec).__name__ + repr(
        tuple(sorted(vars(spec).items())) if vars(spec) else ()
    )


def _law(spec: DisplacementSpec, n: int) -> tuple[np.ndarray, tuple[int, ...], bool]:
    """The displacement law of ``spec`` on Z_M^n as ``(v, letters, mirror)``.

    delta = v * eps with eps_j uniform on ``letters`` for j in the support of
    v, and delta' = -delta if ``mirror`` else 0.  Rejects specs that do not
    fit dimension n.
    """
    if isinstance(spec, Edge):
        if not 1 <= spec.j <= n:
            raise ValueError(f"edge index {spec.j} not in 1..{n}")
        return np.eye(n, dtype=np.int64)[spec.j - 1], (1,), False
    if isinstance(spec, FixedShift):
        if len(spec.v) != n:
            raise ValueError("fixed shift dimension mismatch")
        return np.asarray(spec.v, dtype=np.int64), (1,), False
    if isinstance(spec, ShiftedSet):
        v = np.zeros(n, dtype=np.int64)
        v[[j - 1 for j in _check_subset(spec.S, n)]] = spec.t
        return v, (-1, 1), False
    if isinstance(spec, (Diagonal, SymmetricDiagonal, ThreeLetterDiagonal)):
        letters = (-1, 0, 1) if isinstance(spec, ThreeLetterDiagonal) else (-1, 1)
        return np.ones(n, dtype=np.int64), letters, isinstance(spec, SymmetricDiagonal)
    raise TypeError(f"unknown displacement spec {spec!r}")


def _pattern_rows(
    letters: Sequence[float], r: int, gen: np.random.Generator | None = None,
    count: int = 0,
) -> np.ndarray:
    """Rows of letters^r as a C-contiguous array: all of them in
    lexicographic order without ``gen``, ``count`` uniform draws from
    ``gen`` otherwise.  The library's one enumeration of a product set:
    sign patterns, and with ``np.arange`` letters torus and grid points.
    Without ``gen`` the rows are the head rows of letters^(r // 2) times the
    tail rows of the rest, written in two broadcast passes: no index array,
    and only the rows are held."""
    if gen is not None:
        return np.asarray(letters)[gen.integers(0, len(letters), size=(count, r))]
    letters = np.asarray(letters)
    if r <= 1:
        return letters[:, None].copy() if r else np.empty((1, 0), letters.dtype)
    h = r // 2
    head, tail = _pattern_rows(letters, h), _pattern_rows(letters, r - h)
    rows = np.empty((len(head), len(tail), r), letters.dtype)
    rows[:, :, :h] = head[:, None]
    rows[:, :, h:] = tail
    return rows.reshape(-1, r)


_BLOCK = 1 << 15  # float64 elements per block of any enumerated finite sum


def _blocks(count: int, size: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)`` that cover it, each holding at
    most ``_BLOCK // size`` items and at least one: the library's one block
    rule for items of ``size`` floats each.  ``_BLOCK`` is read per call."""
    step = max(1, _BLOCK // size)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


_FSUM_TREE_MIN = 2048  # floats from which _fsum_rows's tree beats math.fsum (measured)


def _fsum_rows(vals: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a 2-D float block, bit for bit.

    Blocks of fewer than ``_FSUM_TREE_MIN`` floats, where the tree's fixed
    cost (7 numpy calls per halving and about 20 more) outweighs a Python
    float per value, take ``math.fsum(row)`` directly.  Otherwise each row,
    zero-padded to a power-of-two width W and laid out rows innermost, is
    halved by TwoSum (s = a + b and its exact error e) down to one float hi,
    so the row's exact sum is hi + sum(e).  The errors are folded into lo,
    and r = hi + lo is split once more by TwoSum into r + e2.  Adding the
    W - 1 errors in any order is off by less than bound = 4 W 2^-53 sum|e|,
    so r is the correctly rounded sum, which ``math.fsum`` returns, when
    e2 - bound and e2 + bound lie strictly inside half the gaps to r's
    neighbours.  Rows that this does not certify (exact ties, zero or
    subnormal sums, NaN or infinite values) and rows whose largest |value|
    passes 2^1020 / W, where ``math.fsum``'s running sum could overflow
    though the tree's sums do not, are handed to ``math.fsum`` in row order,
    so its results and its exceptions are kept.
    """
    rows, size = vals.shape
    if vals.size < _FSUM_TREE_MIN:
        return [math.fsum(row) for row in vals.tolist()]
    width = 1 << (size - 1).bit_length()
    # rows that overflow here or hold NaN or inf go to math.fsum: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.empty((width, rows))
        hi[:size], hi[size:] = vals.T, 0.0
        peak = np.maximum(vals.max(axis=1), -vals.min(axis=1))
        err = np.empty((2, width, rows))  # a level's h errors in err[0, h:2h]
        err[0, 0] = 0.0
        h = width
        while h > 1:
            h //= 2
            a, b = hi[:h], hi[h:2 * h]
            s = a + b
            z = s - a
            e = np.subtract(s, z, out=err[0, h:2 * h])
            np.subtract(a, e, out=e)
            e += np.subtract(b, z, out=z)
            hi = s
        np.abs(err[0], out=err[1])
        h = width
        while h > 1:  # fold the errors and their moduli into err[:, 0]
            h //= 2
            err[:, :h] += err[:, h:2 * h]
        hi, (lo, mass) = hi[0], err[:, 0]
        r = hi + lo
        z = r - hi
        e2 = (hi - (r - z)) + (lo - z)
        bound = (4 * width * 2.0**-53) * mass
        up = (np.nextafter(r, np.inf) - r) / 2
        down = (r - np.nextafter(r, -np.inf)) / 2
        certified = (e2 + bound < up) & (e2 - bound > -down) & (peak <= 2.0**1020 / width)
    sums = r.tolist()
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(vals[i].tolist())
    return sums


def gap_moment_estimate(
    f: GridFunction,
    spec: DisplacementSpec,
    plan: SamplePlan,
    power: float | None = None,
) -> GapEstimate:
    """Plan-evaluated mean of ||f(x+delta) - f(x')||^power with metadata."""
    n, M = f.dimension, f.modulus
    v, letters, mirror = _law(spec, n)
    if power is None:
        power = f.value_p
    if plan.mode == "exhaustive":
        support = np.flatnonzero(v)
        deltas = np.zeros((len(letters) ** len(support), n), dtype=np.int64)
        deltas[:, support] = _pattern_rows(letters, len(support)) * v[support]
        # one key per distinct displacement mod M; under a mirror law delta
        # and -delta only flip the sign of the difference
        keys = [tuple(row) for row in (deltas % M).tolist()]
        if mirror:
            keys = [min(key, tuple(-c % M for c in key)) for key in keys]
        distinct, zero = set(keys), (0,) * n
        partial = {}
        if zero in distinct:
            # every difference is zero: M**n copies of the norm of zero (not
            # 0.0 at power <= 0), no roll
            norm = _norm_power(np.zeros((1, 1)), f.value_p, power, axis=0)[0]
            partial[zero] = M**n * float(norm)
        table, axes = f.value_first, tuple(range(1, n + 1))
        for key in distinct:
            if key in partial:
                continue
            diff = np.roll(table, tuple(-c for c in key), axis=axes)
            diff -= np.roll(table, key, axis=axes) if mirror else table
            norms = _norm_power(diff, f.value_p, power, axis=0)
            partial[key] = float(np.sum(norms))
            # x -> x - delta permutes the torus and |a - b| == |b - a|, so the
            # norms of -delta are those of delta rolled by delta, bit for bit
            partner = tuple(-c % M for c in key)
            if partner in distinct and partner not in partial:
                partial[partner] = float(np.sum(np.roll(norms, key, axis=tuple(range(n)))))
        count = len(keys) * M**n
        value = math.fsum(partial[key] for key in keys) / count
        return GapEstimate(value, 0.0, count, "exhaustive")

    gen = stream(plan.seed, "gap:" + _spec_tag(spec))
    count = plan.budget
    shape, table = (M,) * n, f.value_first.reshape(f.value_dim, M**n)
    samples = np.empty(count)
    # every x comes before the signs, the stream's last draw, which follow
    # block by block; a one-letter law draws none
    x = gen.integers(0, M, size=(count, n), dtype=np.int32)
    for block in _blocks(count, n + f.value_dim):
        xb = x[block].astype(np.intp)
        delta = v * _pattern_rows(letters, n, gen, len(xb)) if len(letters) > 1 else v
        diff = table.take(np.ravel_multi_index((xb + delta).T, shape, mode="wrap"), axis=1)
        right = (xb - delta).T if mirror else xb.T
        diff -= table.take(np.ravel_multi_index(right, shape, mode="wrap"), axis=1)
        samples[block] = _norm_power(diff, f.value_p, power, axis=0)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return GapEstimate(mean, stderr, count, "monte-carlo")


def gap_moment(
    f: GridFunction,
    spec: DisplacementSpec,
    plan: SamplePlan,
    power: float | None = None,
) -> float:
    """Plan-evaluated mean of ||f(x+delta) - f(x')||^power (see specs).

    Under a Monte Carlo plan a law whose letters^|support(v)| sign patterns
    times M^n points fit ``plan.budget`` (a ``_count``) is summed by the
    exhaustive branch: the exact mean, from no more norm evaluations than
    ``budget`` samples.  Other laws are sampled from their own streams, and
    ``plan.mode`` still names the report's plan.
    """
    if plan.mode != "exhaustive":
        v, letters, _ = _law(spec, f.dimension)
        patterns = _count(plan.budget, len(letters), int(np.count_nonzero(v)))
        if patterns * _count(plan.budget, f.modulus, f.dimension) <= plan.budget:
            plan = replace(plan, mode="exhaustive")
    return gap_moment_estimate(f, spec, plan, power=power).value


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def geodesic(w: Sequence[int]) -> np.ndarray:
    """The l_inf geodesic gamma_w from 0 to w for odd-coordinate w.

    Returns an array of shape ``(||w||_inf + 1, n)`` with ``gamma[0] = 0``,
    ``gamma[-1] = w``, consecutive differences in {-1,1}^n, and distinct rows.
    Negative coordinates are handled by sign equivariance:
    ``gamma_w = sign(w) * gamma_{|w|}`` componentwise.
    """
    w = np.asarray(w, dtype=np.int64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty integer vector")
    if np.any(w % 2 == 0):
        raise ValueError("all coordinates of w must be odd")
    aw = np.abs(w)
    # coordinate j climbs one step at a time to |w_j|, then alternates
    # between |w_j| - 1 and |w_j| (every coordinate moves at every step)
    t = np.arange(int(aw.max()) + 1, dtype=np.int64)[:, None]
    return np.where(t <= aw, t, aw - (t - aw) % 2) * np.sign(w)


# ---------------------------------------------------------------------------
# subset streams
# ---------------------------------------------------------------------------


def subset_stream(
    n: int, k: int, plan: SamplePlan
) -> Iterator[tuple[int, ...]]:
    """Size-k subsets of {1..n}, each a sorted tuple.

    Exhaustive plans yield every subset in ``itertools.combinations`` order.
    Sampled plans yield ``plan.subset_count`` (else ``plan.budget``)
    independent uniform draws from the (seed, "subsets") stream: a draw is
    the positions, plus 1, of the k smallest of n uniform doubles.  The
    doubles come from ``gen.random`` in the ``_blocks`` of n-float rows, at
    most ``_BLOCK`` floats or one row; it spends one 64-bit word per double,
    so the draws do not depend on the block size.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if plan.subset_mode == "exhaustive":
        yield from itertools.combinations(range(1, n + 1), k)
        return
    count = plan.subset_count if plan.subset_count is not None else plan.budget
    gen = stream(plan.seed, "subsets")
    for block in _blocks(count, n):
        uniforms = gen.random((block.stop - block.start, n))
        smallest = np.argpartition(uniforms, k - 1, axis=1)[:, :k]
        yield from map(tuple, (np.sort(smallest, axis=1) + 1).tolist())
