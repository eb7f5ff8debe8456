"""Averaging and smoothing operators on the torus and the hypercube.

Box averages over parity-patterned boxes, edge averages and their products,
the two-sided smoothing operator ``Tj``, torus characters, the hypercube
Rademacher projection, and the residual of the projection identity relating
``Rad`` of a local difference function to the ``Tj`` family.

All supports here are product sets, so every box and edge kind is one
translate table ``{axis: offsets}``, averaged one axis at a time by direct
summation (no FFT), which is exact and fast at desk scale.  A box takes the
even translates on S (or T) and the odd ones off S; R is odd, so the even
translates of [-R, R] and of (-R, R) are the same and ``DS`` and ``DeltaT``
need no open/closed distinction.  An edge kind takes +-1 (+-2 for ``Tj``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .lattice import GridFunction, LatticePoint, _blocks, _check_subset, _pattern_rows

__all__ = [
    "DS",
    "BoxA",
    "Bj",
    "DeltaT",
    "Ej",
    "CalEj",
    "CalE",
    "Tj",
    "HypercubeFunction",
    "box_average",
    "edge_average",
    "rademacher_projection",
    "character",
    "rad_identity_residual",
    "rad_identity_residual_grid",
]


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DS:
    """Average over the box of y in [-R, R]^n with y_i even for i in S and
    y_j odd for j outside S (1-based S)."""

    S: tuple[int, ...]
    R: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "S", tuple(int(j) for j in self.S))


@dataclass(frozen=True)
class BoxA:
    """Average over (-R, R)^n intersected with the even lattice (2Z)^n."""

    R: int


@dataclass(frozen=True)
class Bj:
    """Shorthand for DS with the singleton set {j}."""

    j: int
    R: int


@dataclass(frozen=True)
class DeltaT:
    """Average over even vectors of (-R, R)^n supported on T (1-based)."""

    T: tuple[int, ...]
    R: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "T", tuple(int(j) for j in self.T))


@dataclass(frozen=True)
class Ej:
    """Two-point edge average (f(x+e_j) + f(x-e_j)) / 2."""

    j: int


@dataclass(frozen=True)
class CalEj:
    """Product of all edge averages except the j-th."""

    j: int


@dataclass(frozen=True)
class CalE:
    """Product of all n edge averages."""


@dataclass(frozen=True)
class Tj:
    """Average of f(x + 2*eps restricted off coordinate j) over eps."""

    j: int


# ---------------------------------------------------------------------------
# box and edge averages: one translate table each
# ---------------------------------------------------------------------------


def _axis_average(values: np.ndarray, axis: int, offsets: Sequence[int]) -> np.ndarray:
    """Average of translates of a table along one axis (direct summation)."""
    acc = np.zeros_like(values)
    for off in offsets:
        acc = acc + np.roll(values, shift=-off, axis=axis)
    return acc / len(offsets)


def _translated(values: np.ndarray, table: dict[int, Sequence[int]]) -> np.ndarray:
    """Average over the product of per-axis translate sets, axes in order."""
    for axis in sorted(table):
        values = _axis_average(values, axis, table[axis])
    return values


def _check_box(f: GridFunction, R: int) -> None:
    if f.modulus % 4 != 0:
        raise ValueError("box averages require modulus divisible by 4")
    if R % 2 == 0 or R < 1:
        raise ValueError("R must be a positive odd integer")
    if R > f.modulus // 2:
        raise ValueError(f"R={R} too large for modulus {f.modulus}")


def box_average(f: GridFunction, kind: DS | BoxA | Bj | DeltaT) -> GridFunction:
    """Apply a box averaging operator; output is again a GridFunction."""
    n = f.dimension
    if isinstance(kind, Bj):
        kind = DS((kind.j,), kind.R)
    if isinstance(kind, BoxA):
        kind = DeltaT(tuple(range(1, n + 1)), kind.R)
    if not isinstance(kind, (DS, DeltaT)):
        raise TypeError(f"unknown box kind {kind!r}")
    _check_box(f, kind.R)
    even, odd = range(1 - kind.R, kind.R, 2), range(-kind.R, kind.R + 1, 2)
    table = dict.fromkeys(range(n), odd) if isinstance(kind, DS) else {}
    for j in _check_subset(kind.S if isinstance(kind, DS) else kind.T, n):
        table[j - 1] = even
    return f.with_values(_translated(f.values, table))


def edge_average(f: GridFunction, kind: Ej | CalEj | CalE | Tj) -> GridFunction:
    """Apply an edge averaging / smoothing operator."""
    n = f.dimension
    if not isinstance(kind, (Ej, CalEj, CalE, Tj)):
        raise TypeError(f"unknown edge kind {kind!r}")
    if not isinstance(kind, CalE) and not 1 <= kind.j <= n:
        raise ValueError(f"index {kind.j} not in 1..{n}")
    if isinstance(kind, Ej):
        axes = [kind.j - 1]
    else:
        axes = [a for a in range(n) if isinstance(kind, CalE) or a != kind.j - 1]
    steps = [-2, 2] if isinstance(kind, Tj) else [-1, 1]
    return f.with_values(_translated(f.values, dict.fromkeys(axes, steps)))


# ---------------------------------------------------------------------------
# hypercube functions and the Rademacher projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypercubeFunction:
    """A total table h: {-1,1}^n -> R^d; index b in {0,1} encodes 2b - 1."""

    dimension: int
    value_dim: int
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (2,) * self.dimension + (self.value_dim,)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, eps: Sequence[int]) -> np.ndarray:
        idx = tuple((int(e) + 1) // 2 for e in eps)
        return self.values[idx]

    def flip(self, j: int) -> "HypercubeFunction":
        """h composed with the j-th coordinate sign flip (1-based)."""
        return replace(self, values=np.flip(self.values, axis=j - 1))

    def antipode(self) -> "HypercubeFunction":
        """h composed with the global sign flip."""
        return replace(
            self, values=np.flip(self.values, axis=tuple(range(self.dimension)))
        )


def rademacher_projection(h: HypercubeFunction) -> HypercubeFunction:
    """Degree-1 Walsh projection: Rad(h)(eps) = sum_j c_j eps_j with
    c_j = 2^{-n} sum_delta h(delta) delta_j."""
    n = h.dimension
    signs_axis = np.array([-1.0, 1.0])
    out = np.zeros_like(h.values)
    for j in range(n):
        shape = [1] * (n + 1)
        shape[j] = 2
        sj = signs_axis.reshape(shape)
        cj = np.sum(h.values * sj, axis=tuple(range(n)), keepdims=True) / 2**n
        out = out + cj * sj
    return replace(h, values=np.broadcast_to(out, h.values.shape).copy())


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def character(y: LatticePoint) -> GridFunction:
    """The character W_y(x) = exp(i pi <x, y> / (4m)) on Z_{8m}^n, stored as
    a d=2 real table (real part, imaginary part) with the l_2 value norm."""
    M = y.modulus
    if M % 8 != 0:
        raise ValueError("characters require modulus divisible by 8")
    m = M // 8
    n = y.dimension
    # <x, y> in exact integer arithmetic, x over the rows of Z_M^n
    phase = math.pi * (_pattern_rows(np.arange(M), n) @ y.coords).reshape((M,) * n) / (4.0 * m)
    table = np.stack([np.cos(phase), np.sin(phase)], axis=-1)
    return GridFunction(M, n, 2, 2.0, table)


# ---------------------------------------------------------------------------
# projection identity residual
# ---------------------------------------------------------------------------


def rad_identity_residual(f: GridFunction, x: Sequence[int]) -> float:
    """Residual of the projection identity at a base point x.

    Builds h^x(eps) = f(x + 2 eps) - f(x) on the hypercube and returns the
    maximum over eps of the Euclidean norm of

        Rad(h^x)(eps) - (1/2) sum_j eps_j [T_j f(x + 2 e_j) - T_j f(x - 2 e_j)].

    This is the real-valued form of the identity (components of vector- or
    complex-as-d=2-valued f are handled coordinatewise).
    """
    if f.modulus % 8 != 0:
        raise ValueError("identity requires modulus divisible by 8")
    n, d = f.dimension, f.value_dim
    x = np.asarray(x, dtype=np.int64)
    rows = _pattern_rows((-1, 1), n)  # row i is the table's i-th point in C order
    table = f.values[tuple((x[:, None] + 2 * rows.T) % f.modulus)] - f(x)
    rad = rademacher_projection(HypercubeFunction(n, d, table.reshape((2,) * n + (d,))))

    diffs = []
    for j, step in enumerate(2 * np.eye(n, dtype=np.int64), 1):
        tjf = edge_average(f, Tj(j))
        diffs.append(tjf(x + step) - tjf(x - step))
    rhs = 0.5 * sum(eps[:, None] * dval for eps, dval in zip(rows.T, diffs))
    norms = [float(np.linalg.norm(r)) for r in rad.values.reshape(len(rows), d) - rhs]
    return max([0.0, *norms])


def rad_identity_residual_grid(f: GridFunction) -> float:
    """Maximum of the projection-identity residual over all base points.

    Equals ``max_x rad_identity_residual(f, x)`` but computes each term of
    the identity once for the whole grid with axis rolls, so the exhaustive
    sweep costs O(n 2^n M^n d) time and O(n M^n d) memory plus one block.
    """
    if f.modulus % 8 != 0:
        raise ValueError("identity requires modulus divisible by 8")
    n, d = f.dimension, f.value_dim
    rows = _pattern_rows((-1, 1), n)
    # h^x's first-order coefficients c_j(x) = 2^{-n} sum_eps eps_j f(x + 2 eps)
    gap = np.zeros((n,) + f.values.shape)
    for eps in rows:
        gap += np.multiply.outer(eps, np.roll(f.values, tuple(-2 * eps), axis=tuple(range(n))))
    gap /= 2**n
    # minus the matching difference of the smoothed function along each axis
    for j in range(n):
        tjf = edge_average(f, Tj(j + 1)).values
        gap[j] -= 0.5 * (np.roll(tjf, -2, axis=j) - np.roll(tjf, 2, axis=j))
    # the residual at (x, eps) is |sum_j eps_j gap_j(x)|, a block of eps at a time
    gap = gap.reshape(n, -1, d)
    worst = 0.0
    for block in _blocks(len(rows), gap[0].size):
        total = np.tensordot(rows[block], gap, axes=1)
        worst = max(worst, float(np.sqrt(np.sum(total**2, axis=-1)).max()))
    return worst
