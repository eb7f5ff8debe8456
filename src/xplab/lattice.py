"""Discrete torus Z_M^n: points, grid functions, gap moments.

The torus is stored canonically with coordinates in ``[0, M)``; the symmetric
representation (coordinates in ``(-M/2, M/2]``-style windows) is available as
a view.  A :class:`GridFunction` is a total table of real ``d``-vectors over
the torus together with the exponent of the ``l_p`` norm used on values.

``gap_moment`` evaluates the mean of ``||f(x + delta) - f(x')||^power`` over
the uniform law of ``(x, eps)`` for the displacement specs used throughout
the inequality reports, either exhaustively (fixed summation order: row-major
over x, then eps, with compensated accumulation) or by seeded Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_evaluator(
        modulus: int,
        dimension: int,
        value_dim: int,
        value_p: float,
        fn: Callable[[tuple[int, ...]], Sequence[float]],
    ) -> "GridFunction":
        """Tabulate a total evaluator over the torus (row-major order)."""
        shape = (modulus,) * dimension + (value_dim,)
        table = np.empty(shape, dtype=float)
        for x in itertools.product(range(modulus), repeat=dimension):
            table[x] = np.asarray(fn(x), dtype=float)
        return GridFunction(modulus, dimension, value_dim, value_p, table)

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
        return {
            "mode": self.mode,
            "budget": int(self.budget),
            "seed": int(self.seed),
            "subset_mode": self.subset_mode,
            "subset_count": self.subset_count,
        }


def make_sample_plan(
    modulus: int, dimension: int, k: int, budget: int, seed: int
) -> SamplePlan:
    """Exhaustive iff M^n * 2^n <= budget and C(n, k) <= budget.

    Counts are formed in arbitrary-precision integers, so overflow cannot
    occur; astronomically large state spaces simply select Monte Carlo.
    """
    if modulus < 1 or dimension < 1:
        raise ValueError("modulus and dimension must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    total = (modulus**dimension) * (2**dimension)
    subsets = math.comb(dimension, k) if 0 <= k <= dimension else None
    if subsets is None:
        raise ValueError(f"k={k} out of range for n={dimension}")
    if total <= budget and subsets <= budget:
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


def _norm_power(diff: np.ndarray, value_p: float, power: float) -> np.ndarray:
    """||diff||_{value_p}^{power} along the last axis."""
    if power == value_p:
        return np.sum(np.abs(diff) ** value_p, axis=-1)
    norms = np.sum(np.abs(diff) ** value_p, axis=-1) ** (1.0 / value_p)
    return norms**power


def _spec_tag(spec: DisplacementSpec) -> str:
    return type(spec).__name__ + repr(
        tuple(sorted(vars(spec).items())) if vars(spec) else ()
    )


def _validate_spec(spec: DisplacementSpec, n: int) -> None:
    if isinstance(spec, Edge):
        if not 1 <= spec.j <= n:
            raise ValueError(f"edge index {spec.j} not in 1..{n}")
    elif isinstance(spec, ShiftedSet):
        _check_subset(spec.S, n)
    elif isinstance(spec, FixedShift):
        if len(spec.v) != n:
            raise ValueError("fixed shift dimension mismatch")


def _exhaustive_pairs(
    f: GridFunction, spec: DisplacementSpec
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (table of f(x+delta), table of f(x')) per sign pattern.

    The iteration order over sign patterns is fixed (itertools.product over
    (-1, 1) per coordinate, row-major) to honor the reproducibility contract.
    """
    n = f.dimension
    if isinstance(spec, Edge):
        v = tuple(1 if j == spec.j - 1 else 0 for j in range(n))
        yield f.shift(v).values, f.values
    elif isinstance(spec, FixedShift):
        yield f.shift(spec.v).values, f.values
    elif isinstance(spec, Diagonal):
        for eps in itertools.product((-1, 1), repeat=n):
            yield f.shift(eps).values, f.values
    elif isinstance(spec, SymmetricDiagonal):
        for eps in itertools.product((-1, 1), repeat=n):
            neg = tuple(-e for e in eps)
            yield f.shift(eps).values, f.shift(neg).values
    elif isinstance(spec, ThreeLetterDiagonal):
        for eps in itertools.product((-1, 0, 1), repeat=n):
            yield f.shift(eps).values, f.values
    elif isinstance(spec, ShiftedSet):
        S = _check_subset(spec.S, n)
        for signs in itertools.product((-1, 1), repeat=len(S)):
            v = [0] * n
            for j, s in zip(S, signs):
                v[j - 1] = s * spec.t
            yield f.shift(v).values, f.values
    else:  # pragma: no cover
        raise TypeError(f"unknown displacement spec {spec!r}")


def _mc_displacements(
    spec: DisplacementSpec, n: int, gen: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random (delta, delta') displacement arrays of shape (count, n)."""
    zero = np.zeros((count, n), dtype=np.int64)
    if isinstance(spec, Edge):
        d = zero.copy()
        d[:, spec.j - 1] = 1
        return d, zero
    if isinstance(spec, FixedShift):
        return np.tile(np.asarray(spec.v, dtype=np.int64), (count, 1)), zero
    eps = gen.integers(0, 2, size=(count, n)) * 2 - 1
    if isinstance(spec, Diagonal):
        return eps, zero
    if isinstance(spec, SymmetricDiagonal):
        return eps, -eps
    if isinstance(spec, ThreeLetterDiagonal):
        return gen.integers(-1, 2, size=(count, n)), zero
    if isinstance(spec, ShiftedSet):
        mask = np.zeros(n, dtype=np.int64)
        for j in spec.S:
            mask[j - 1] = 1
        return eps * mask * spec.t, zero
    raise TypeError(f"unknown displacement spec {spec!r}")  # pragma: no cover


def gap_moment_estimate(
    f: GridFunction,
    spec: DisplacementSpec,
    plan: SamplePlan,
    power: float | None = None,
) -> GapEstimate:
    """Plan-evaluated mean of ||f(x+delta) - f(x')||^power with metadata."""
    _validate_spec(spec, f.dimension)
    if power is None:
        power = f.value_p
    if plan.mode == "exhaustive":
        partials = []
        count = 0
        for left, right in _exhaustive_pairs(f, spec):
            partials.append(
                float(np.sum(_norm_power(left - right, f.value_p, power)))
            )
            count += f.modulus**f.dimension
        return GapEstimate(math.fsum(partials) / count, 0.0, count, "exhaustive")

    gen = stream(plan.seed, "gap:" + _spec_tag(spec))
    count = plan.budget
    x = gen.integers(0, f.modulus, size=(count, f.dimension))
    delta, delta2 = _mc_displacements(spec, f.dimension, gen, count)
    left = f.values[tuple(((x + delta) % f.modulus).T)]
    right = f.values[tuple(((x + delta2) % f.modulus).T)]
    samples = _norm_power(left - right, f.value_p, power)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return GapEstimate(mean, stderr, count, "monte-carlo")


def gap_moment(
    f: GridFunction,
    spec: DisplacementSpec,
    plan: SamplePlan,
    power: float | None = None,
) -> float:
    """Plan-evaluated mean of ||f(x+delta) - f(x')||^power (see specs)."""
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
    signs = np.sign(w)
    aw = np.abs(w)
    T = int(aw.max())
    path = np.zeros((T + 1, w.size), dtype=np.int64)
    for t in range(1, T + 1):
        prev = path[t - 1]
        if t % 2 == 1:
            path[t] = prev + 1
        else:
            step = np.where(prev < aw, 1, -1)
            path[t] = prev + step
    return path * signs


# ---------------------------------------------------------------------------
# subset streams
# ---------------------------------------------------------------------------


def subset_stream(
    n: int, k: int, plan: SamplePlan
) -> Iterator[tuple[int, ...]]:
    """Size-k subsets of {1..n}: lexicographic exhaustive, or seeded draws."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if plan.subset_mode == "exhaustive":
        for combo in itertools.combinations(range(1, n + 1), k):
            yield combo
        return
    count = plan.subset_count if plan.subset_count is not None else plan.budget
    gen = stream(plan.seed, "subsets")
    for _ in range(count):
        draw = gen.choice(n, size=k, replace=False)
        yield tuple(sorted(int(j) + 1 for j in draw))
