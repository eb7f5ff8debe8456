"""Explicit embeddings, grid rounding, distortion, and bound calculators.

The two-level embedding mixes an ``l_p`` copy and an ``l_2`` copy of the
coordinates; its distortion on the unit sphere of ``l_q^n`` reduces to a
one-dimensional discrete minimization over support sizes.  The snowflake
embedding realizes ``||x - y||_2^{2/q}`` as a Euclidean metric by classical
double-centering of the squared-distance matrix plus a spectral embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import _blocks, _count, _norm_power, _pattern_rows
from .schatten import eigen_sym

__all__ = [
    "EmbeddingResult",
    "rosenthal_embed",
    "rosenthal_target_norm",
    "rosenthal_distortion",
    "rosenthal_distortion_two_level",
    "rosenthal_exponent",
    "distortion",
    "distortion_from_matrices",
    "schoenberg_embed",
    "grid_round_map",
    "snowflake_exponent_poly",
    "snowflake_exponent_root",
    "grid_bounds",
    "composite_grid_distortion",
]

_SCHOENBERG_CLIP = 1e-6
_T_GRID = 2049  # ratio grid of rosenthal_distortion_two_level


@dataclass(frozen=True)
class EmbeddingResult:
    """Pairwise expansion/contraction extremes of a finite embedding."""

    n_points: int
    expansion: float
    contraction: float
    distortion: float

    def to_json_dict(self) -> dict:
        return {**vars(self), "scale_witness": self.contraction}


# ---------------------------------------------------------------------------
# two-level (l_p + l_2) embedding
# ---------------------------------------------------------------------------


def rosenthal_embed(x: Sequence[float], q: float) -> np.ndarray:
    """J(x) = (n^{1/2} x, n^{1/q} x) in R^{2n} for each x on the last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return np.concatenate([n**0.5 * x, n ** (1.0 / q) * x], axis=-1)


def rosenthal_target_norm(v: np.ndarray, p: float) -> np.ndarray:
    """The (l_p^n (+) l_2^n)_p norm (||u||_p^p + ||w||_2^p)^{1/p} of each
    v = (u, w) in R^{2n} on the last axis of ``v``; ``v`` is left unchanged."""
    v = np.array(v, dtype=float)
    n = v.shape[-1] // 2
    return (_norm_power(v[..., :n], p, p) + _norm_power(v[..., n:], 2.0, p)) ** (1.0 / p)


def _rosenthal_objective(n: int, q: float, p: float, s: np.ndarray) -> np.ndarray:
    """Image norm^p of the normalized two-level vector with support size s."""
    return n ** (p / 2.0) * s ** (1.0 - p / q) + n ** (p / q) * s ** (
        p / 2.0 - p / q
    )


def rosenthal_distortion(n: int, q: float, p: float) -> tuple[float, int]:
    """Exact distortion over two-level unit vectors plus the minimizing s*.

    Extremizers on the l_q^n sphere are flat vectors supported on s
    coordinates; the distortion is (max/min over s in {1..n} of the
    objective)^{1/p}.  The asymptotic rate is n^{(p-q)(q-2)/(q^2(p-2))}.
    """
    if not (2.0 < q <= p):
        raise ValueError("require 2 < q <= p")
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.arange(1, n + 1, dtype=float)
    obj = _rosenthal_objective(n, q, p, s)
    idx = int(np.argmin(obj))
    dist = float((np.max(obj) / obj[idx]) ** (1.0 / p))
    return dist, idx + 1


def rosenthal_exponent(q: float, p: float) -> float:
    """Asymptotic growth exponent (p-q)(q-2)/(q^2 (p-2))."""
    return (p - q) * (q - 2.0) / (q * q * (p - 2.0))


def rosenthal_distortion_two_level(n: int, q: float, p: float) -> float:
    """Distortion extremized over all two-level vectors on the l_q sphere.

    Vectors with s coordinates at one magnitude and n - s at a smaller one
    (ratio t in [0, 1], dense grid) strictly contain the flat family used by
    :func:`rosenthal_distortion`; at small n the sphere maximum is attained
    strictly inside this family, so this is the reference oracle for
    grid-restriction monotonicity checks.
    """
    if not (2.0 < q <= p):
        raise ValueError("require 2 < q <= p")
    t = np.linspace(0.0, 1.0, _T_GRID)
    best_max, best_min = -np.inf, np.inf
    for s in range(1, n + 1):
        r = n - s
        # s coords at magnitude a, r coords at b = t * a, normalized in l_q
        a = (s + r * t**q) ** (-1.0 / q)
        b = t * a
        lp_term = s * a**p + r * b**p
        l2_term = (s * a**2 + r * b**2) ** (p / 2.0)
        g = n ** (p / 2.0) * lp_term + n ** (p / q) * l2_term
        best_max = max(best_max, float(np.max(g)))
        best_min = min(best_min, float(np.min(g)))
    return (best_max / best_min) ** (1.0 / p)


# ---------------------------------------------------------------------------
# distortion of finite maps
# ---------------------------------------------------------------------------


def _pairwise(points: np.ndarray, norm: Callable[..., np.ndarray], *args: float) -> np.ndarray:
    """The matrix of ``norm(x - y, *args)`` over the pairs of rows of ``points``,
    one ``_blocks`` slice of x at a time: N^2 floats plus one block."""
    return np.concatenate([norm(points[rows, None, :] - points[None, :, :], *args)
                           for rows in _blocks(len(points), points.size)])


def distortion_from_matrices(
    d_source: np.ndarray, d_image: np.ndarray
) -> tuple[float, float, float]:
    """(expansion, contraction, distortion) from two distance matrices."""
    idx = np.arange(d_source.shape[0])
    upper = idx[:, None] < idx  # the pairs i < j, row by row
    src = d_source[upper]
    img = d_image[upper]
    if np.any(src == 0.0):
        if np.any(img[src == 0.0] > 0.0):
            raise ValueError("coincident source points with distinct images")
        keep = src > 0.0
        src, img = src[keep], img[keep]
    ratios = img / src
    expansion = float(np.max(ratios))
    contraction = float(np.min(ratios))
    if contraction == 0.0:
        raise ValueError("map collapses a pair of distinct source points")
    return expansion, contraction, expansion / contraction


def distortion(
    source: np.ndarray, image: np.ndarray, source_p: float, image_p: float
) -> EmbeddingResult:
    """Exact pairwise-ratio extremes of a finite point map between the
    l_{source_p} and l_{image_p} distances."""
    source = np.asarray(source, dtype=float)
    image = np.asarray(image, dtype=float)
    if source.shape[0] != image.shape[0] or source.shape[0] < 2:
        raise ValueError("need equal-length lists of at least 2 points")
    return EmbeddingResult(len(source), *distortion_from_matrices(
        _pairwise(source, _norm_power, source_p, 1.0), _pairwise(image, _norm_power, image_p, 1.0)))


# ---------------------------------------------------------------------------
# snowflake (double-centering) embedding
# ---------------------------------------------------------------------------


def schoenberg_embed(points: np.ndarray, q: float) -> np.ndarray:
    """Realize the (2/q)-snowflake of a Euclidean point set in l_2^N.

    Forms the matrix of ||x-y||_2^{4/q}, double-centers it to a Gram matrix
    (PSD by Schoenberg's positive-definiteness theorem), spectral-decomposes,
    clips roundoff-negative eigenvalues, and embeds by scaled eigenvectors.
    Eigenvalues below -1e-6 * lambda_max indicate numerical failure.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    points = np.asarray(points, dtype=float)
    npts = points.shape[0]
    dist2 = _pairwise(points, _norm_power, 2.0, 1.0) ** (4.0 / q)
    j = np.eye(npts) - np.full((npts, npts), 1.0 / npts)
    gram = -0.5 * (j @ dist2 @ j)
    vals, vecs = eigen_sym(gram)
    lam_max = float(np.max(vals)) if npts else 0.0
    if lam_max > 0 and float(np.min(vals)) < -_SCHOENBERG_CLIP * lam_max:
        raise ArithmeticError(
            "double-centered Gram matrix has a significantly negative "
            "eigenvalue; this contradicts positive-definiteness and "
            "indicates numerical failure"
        )
    clipped = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(clipped)


# ---------------------------------------------------------------------------
# grid rounding
# ---------------------------------------------------------------------------


def grid_round_map(x: Sequence[int], m: int) -> np.ndarray:
    """h(x) = (a(x_1), b(x_1), ..., a(x_n), b(x_n)) in {0..4m}^{2n} with
    a(u), b(u) the nearest integers to 2m + 2m cos(2 pi u/m), sin variant."""
    if m < 2:
        raise ValueError("m must be >= 2")
    x = np.asarray(x, dtype=float)
    angle = 2.0 * math.pi * x / m
    a = np.rint(2 * m + 2 * m * np.cos(angle))
    b = np.rint(2 * m + 2 * m * np.sin(angle))
    out = np.empty(2 * x.size)
    out[0::2] = np.clip(a, 0, 4 * m)
    out[1::2] = np.clip(b, 0, 4 * m)
    return out


# ---------------------------------------------------------------------------
# closed-form bound calculators
# ---------------------------------------------------------------------------


def snowflake_exponent_poly(p: float, q: float, t: float) -> float:
    """The quadratic whose positive root is the critical snowflake exponent:
    psi(t) = [p^2(q-2)/(q^2(p-2))] t^2 + [p(pq-3q+2)/(q(p-2))] t - p."""
    c2 = p * p * (q - 2.0) / (q * q * (p - 2.0))
    c1 = p * (p * q - 3.0 * q + 2.0) / (q * (p - 2.0))
    return c2 * t * t + c1 * t - p


def snowflake_exponent_root(p: float, q: float) -> float:
    """Closed form of the positive root of snowflake_exponent_poly."""
    disc = 1.0 + 4.0 * p * (p - 2.0) * (q - 2.0) / (p * q - 3.0 * q + 2.0) ** 2
    lead = (2.0 * q * (p - q) + q * q * (p - 1.0) * (p - 2.0)) / (
        2.0 * p * p * (q - 2.0)
    )
    return lead * (math.sqrt(disc) - 1.0)


def grid_bounds(m: int, n: int, q: float, p: float) -> dict:
    """Closed-form distortion bound shapes for the l_q grid inside l_p.

    Returns the lower-bound shape, the better-of-two-embeddings upper bound,
    the conjectural phase-transition grid size, the critical snowflake
    exponent theta (with its defining-polynomial residual), and the
    asymptotic two-level-embedding exponent.
    """
    if not (2.0 < q < p):
        raise ValueError("require 2 < q < p")
    expo = rosenthal_exponent(q, p)
    lower = min(
        float(m) ** (q * (p - 2.0) / (q * (p - 2.0) + p - q)), float(n)
    ) ** expo
    upper = min(float(n) ** expo, float(m) ** (1.0 - 2.0 / q))
    transition = float(n) ** ((p - q) / (q * (p - 2.0)))
    theta = snowflake_exponent_root(p, q)
    residual = snowflake_exponent_poly(p, q, theta)
    if abs(residual) > 1e-10:
        raise ArithmeticError(
            f"snowflake exponent closed form inconsistent: psi(theta)={residual}"
        )
    return {
        "lower_bound_shape": lower,
        "upper_bound_shape": upper,
        "transition_grid_size": transition,
        "theta": theta,
        "theta_residual": residual,
        "rosenthal_exponent": expo,
    }


# ---------------------------------------------------------------------------
# composite grid distortions
# ---------------------------------------------------------------------------


def composite_grid_distortion(
    m: int, n: int, q: float, p: float, which: str, budget: int = 200_000
) -> EmbeddingResult:
    """Exact distortion of the chosen embedding on the grid {0..m}^n with
    the l_q source metric.

    "rosenthal": two-level embedding measured in the (l_p (+) l_2)_p norm.
    "schoenberg": snowflake realization; image distances are measured in
    l_2, which embeds isometrically into L_p, so the l_2 distortion equals
    the L_p distortion of the composite map restricted to the grid.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid distortion requires m >= 1 and n >= 1, got m={m}, n={n}")
    count = _count(2 * budget + 1, m + 1, n)  # past it, more than budget pairs
    if count * (count - 1) // 2 > budget:
        shown = count if count <= 2 * budget + 1 else f"{m + 1}^{n}"
        raise ValueError(f"{shown} grid points exceed the pair budget")
    pts = _pattern_rows(np.arange(m + 1.0), n)
    if which == "rosenthal":
        image = _pairwise(rosenthal_embed(pts, q), rosenthal_target_norm, p)
    elif which == "schoenberg":
        image = _pairwise(schoenberg_embed(pts, q), _norm_power, 2.0, 1.0)
    else:
        raise ValueError(f"unknown embedding {which!r}")
    return EmbeddingResult(count, *distortion_from_matrices(_pairwise(pts, _norm_power, q, 1.0),
                                                            image))
