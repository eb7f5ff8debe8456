"""Circular-average complexification norm and the metric-to-linear bridge.

A pair (u, v) of real d-vectors carries the norm
``(∫_0^{2π} ||cos(t) u - sin(t) v||_p^p dt)^{1/p}``.  Coordinate i of the
integrand is |w_i| cos(t + arg w_i), w_i = u_i + i v_i, and a shift of
|cos|^p keeps its integral C_p over a period, so the norm is
``(C_p sum_i |w_i|^p)^{1/p}``: ``_pair_powers`` evaluates it for an array of
pairs ``w = u + iv``, and ``circular_moment`` checks C_p by quadrature.
Complex scalars act by ``(a+bi)(u, v) = (au - bv, av + bu)``, under which
the norm is rotation invariant.

The bridge instantiates the family ``f_delta(x) = sum_j delta_j
exp(i pi x_j / m) (z_j, 0)`` on ``Z_{2m}^n`` and checks, with explicit
constants, each intermediate inequality linking the torus functional of the
family to the sign-sum (linear) functional of the coefficients.  A sign
delta_j = -1 is the shift x_j -> x_j + m (``-e^{i pi x/m} = e^{i pi
(x+m)/m}``), so every term is a pair norm at delta = +1: the half-period
ones come from the sign-sum kernel ``_signed_sum_means`` with the 2m roots
of unity as letters, the diagonal ones from one product of phases with
``(e^{i pi/m} - 1)(z_j)`` and one ``_pair_powers`` call per block of points.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .inequalities import (
    InequalityReport,
    _as_vectors,
    _signed_sum_means,
    _xp_moments,
    signed_power_mean,
    subset_average,
)
from .lattice import SamplePlan, _blocks, _fsum_rows, _norm_power, _pattern_rows

__all__ = [
    "complexification_norm",
    "circular_moment",
    "circular_moment_report",
    "contraction_check",
    "bridge_report",
]

DEFAULT_NODES = 512
_MOMENT_TOL = 1e-10  # relative change that stops circular_moment's refinement


def _moment_constant(p: float) -> float:
    """C_p = ∫_0^{2π} |cos t|^p dt = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1),
    in logs past p ≈ 341, where ``math.gamma`` overflows."""
    a, b = (p + 1.0) / 2.0, p / 2.0 + 1.0
    try:
        return 2.0 * math.sqrt(math.pi) * math.gamma(a) / math.gamma(b)
    except OverflowError:
        return 2.0 * math.sqrt(math.pi) * math.exp(math.lgamma(a) - math.lgamma(b))


def _pair_powers(w: np.ndarray, p: float) -> np.ndarray:
    """||(Re w, Im w)||^p = C_p sum_i |w_i|^p for each vector on the last axis of ``w``."""
    return _moment_constant(p) * _norm_power(np.abs(w), p, p)


def complexification_norm(u: Sequence[float], v: Sequence[float], p: float) -> float:
    """(∫_0^{2π} ||cos(t)u - sin(t)v||_p^p dt)^{1/p} = (C_p sum_i |u_i + i v_i|^p)^{1/p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError(f"u and v must be 1-D vectors: got shapes {u.shape} and {v.shape}")
    if len(u) != len(v):
        raise ValueError(f"u and v must have one length: got {len(u)} and {len(v)}")
    if not len(u):
        raise ValueError("u and v must not be empty: got vectors of length 0")
    return float(_pair_powers(u + 1j * v, p)) ** (1.0 / p)


def _refined_trapezoid(integrand) -> float:
    """∫_0^{2π} integrand(t) dt, doubling trapezoid nodes until two values agree."""
    nodes = DEFAULT_NODES
    prev = None
    while nodes <= 1 << 22:
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        val = float(2.0 * math.pi * np.mean(integrand(theta)))
        if prev is not None and abs(val - prev) <= _MOMENT_TOL * max(abs(val), 1.0):
            return val
        prev = val
        nodes *= 2
    raise ArithmeticError("circular quadrature did not converge")


def circular_moment(p: float) -> float:
    """∫_0^{2π} |cos t|^p dt by trapezoid refinement, the independent check of C_p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _refined_trapezoid(lambda theta: np.abs(np.cos(theta)) ** p)


def circular_moment_report(p: float) -> dict:
    """Quadrature value of the circular moment vs the two Gamma-ratio forms.

    The reference closed form is 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1);
    a doubled variant of the same ratio is also reported, with the mismatch
    factor between quadrature and each form.  Quadrature is ground truth.
    """
    value = circular_moment(p)
    gamma_form = _moment_constant(p)
    doubled_form = 2.0 * gamma_form
    return {
        "p": p,
        "quadrature": value,
        "gamma_form": gamma_form,
        "gamma_form_mismatch": value / gamma_form,
        "doubled_gamma_form": doubled_form,
        "doubled_gamma_form_mismatch": value / doubled_form,
        "flag": "doubled form disagrees with quadrature by a constant factor",
    }


def contraction_check(
    a: Sequence[float],
    zs: Sequence[Sequence[float]],
    p: float,
    plan: SamplePlan,
) -> InequalityReport:
    """sum_delta ||sum a_j delta_j z_j||_p^p <= max|a_j|^p sum_delta ||sum delta_j z_j||_p^p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.asarray(a, dtype=float)
    zmat = _as_vectors(zs)
    n, d = zmat.shape
    if a.shape != (n,):
        raise ValueError("coefficient/vector count mismatch")
    power = functools.partial(_norm_power, value_p=p, power=p)
    full = tuple(range(1, n + 1))
    lhs = signed_power_mean(a[:, None] * zmat, full, power, plan, purpose="signs:contraction")
    base = signed_power_mean(zmat, full, power, plan, purpose="signs:contraction")
    rhs = float(np.max(np.abs(a)) ** p) * base
    return InequalityReport("contraction", {"p": p, "n": n, "d": d}, lhs, {"scaled_base": rhs},
                            plan)


# ---------------------------------------------------------------------------
# the metric-to-linear bridge
# ---------------------------------------------------------------------------


def bridge_report(
    zs: Sequence[Sequence[float]], m: int, k: int, p: float, plan: SamplePlan
) -> InequalityReport:
    """Check the metric-to-linear implication on the exponential family.

    For f_delta(x) = sum_j delta_j e^{i pi x_j/m}(z_j, 0) on Z_{2m}^n the
    report evaluates the torus moments of the family (half-period subset
    shifts, edges, diagonal), the linear sign-sum moments of (z_j), and each
    named intermediate bound with its explicit constant:

    - half_period_lower: sum_{delta,x} ||sum_{j in S} delta_j e^{i pi x_j/m}
      (z_j,0)||^p >= 2^{p+1}(2m)^n/pi^{p-1} * sum_delta ||sum_{j in S}
      delta_j z_j||^p (averaged over S);
    - edge_upper: sum_j |1-e^{i pi/m}|^p ||(z_j,0)||^p <= pi^{p+1}/m^p *
      sum_j ||z_j||_p^p;
    - diagonal_upper: per (x, eps), sum_delta ||sum_j delta_j
      (e^{i pi(x_j+eps_j)/m} - e^{i pi x_j/m})(z_j,0)||^p <= 2 pi^{p+1}/m^p *
      sum_delta ||sum_j delta_j z_j||^p (worst case over (x, eps));

    and reports the final bookkeeping: a metric implied constant gamma on
    this family entails the linear inequality with constant (2/pi)^{2p} gamma.

    The sums over all 2^n sign rows are 2^n times the linear moments, and
    every edge step has modulus |1-e^{i pi/m}|, so the edge moment is
    |1-e^{i pi/m}|^p C_p sum_j ||z_j||_p^p.  The constants are numpy powers
    of ratios (pi (pi/m)^p, 2 pi (2/pi)^p, (2/m)^p): a representable one is
    represented, and one past the largest float is inf, which the CLI names.
    The pair norms of the family are evaluated in closed form.  With omega
    = e^{i pi/m}, omega^{y+eps} - omega^y = (omega - 1) omega^u, u = y for
    eps = +1 and u = y + m - 1 for eps = -1, and y -> u is a bijection of
    Z_{2m}^n; with the shift for delta_j = -1, the diagonal is one norm table
    g(u) = ||sum_j (omega - 1) omega^{u_j}(z_j,0)||^p: the worst (x, eps) row
    sum over delta is the worst sum of g over the 2^n points u + m s, s in
    {0,1}^n, and metric.diag is the mean of g.  The half-period sum over
    (delta, x) is 2^n (2m)^n H(S), H(S) the mean over x_S of ||sum_{j in S}
    omega^{x_j}(z_j,0)||^p; the metric one is (2/m)^p H(S), since the shift
    multiplies every term by -2.  The plan must be exhaustive, and its budget
    bounds the (2m)^n + C(n, k) (2m)^k pair norms.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    zmat = _as_vectors(zs)
    n, d = zmat.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    M = 2 * m
    if plan.mode != "exhaustive" or M**n + math.comb(n, k) * M**k > plan.budget:
        raise ValueError("bridge needs an exhaustive plan whose budget covers its enumeration")

    roots = np.exp(1j * math.pi * np.arange(M) / m)  # omega^u, omega = e^{i pi/m}
    pi_m = np.float64(math.pi / m) ** p

    # linear side: sign moments of the raw coefficients in l_p^d
    lp_power = functools.partial(_norm_power, value_p=p, power=p)
    linear_subset, linear_lp, linear_full = _xp_moments(zmat, k, lp_power, plan)

    # intermediate 1: half-period lower bound, averaged over subsets; H(S) is
    # the mean over x in Z_M^|S| of ||sum_{j in S} omega^{x_j}(z_j,0)||^p, and
    # a sign delta_j = -1 shifts x_j, so the sum over (delta, x) is 2^n M^n H(S)
    half_period = subset_average(
        lambda subsets: _signed_sum_means(zmat, subsets, _pattern_rows(roots, k),
                                          lambda w: _pair_powers(w, p)),
        n, k, plan, batched=True,
    )
    hp_lhs = 2**n * M**n * half_period
    hp_rhs = float(2.0 * math.pi * np.float64(2.0 / math.pi) ** p * M**n) * (2**n * linear_subset)

    # intermediate 2: single-coordinate (edge) upper bound; the edge term of
    # coordinate j is the same at every x_j and flips sign with delta_j (the
    # step is a numpy float, so its power overflows to inf)
    step = roots[1] - 1.0
    edge = float(abs(step) ** p * _moment_constant(p)) * linear_lp
    edge_rhs = float(math.pi * pi_m) * linear_lp

    # intermediate 3: diagonal (contraction) upper bound, worst (x, eps)
    diag_rhs = float(2.0 * math.pi * pi_m) * (2**n * linear_full)
    # groups of M points differing in the last coordinate: a lone point's
    # product would take numpy's matrix-vector kernel, which rounds apart
    u = _pattern_rows(np.arange(M), n).reshape(-1, M, n)
    g = np.concatenate([_pair_powers(roots[u[block]] @ (step * zmat), p)
                        for block in _blocks(len(u), 2 * M * (n + d))], axis=None)
    rows = g.reshape((M,) * n)
    for axis in range(n):
        rows = rows + np.roll(rows, m, axis=axis)
    diag_lhs = float(rows.max())

    # metric side of the family: the half-period shift f_delta(x + m eps_S) -
    # f_delta(x) is -2 times the half-period family term on S
    metric_lhs = float(np.float64(2.0 / m) ** p) * half_period
    metric_diag = _fsum_rows(g.reshape(1, -1))[0] / g.size

    metric_rhs = (k / n) * edge + (k / n) ** (p / 2.0) * metric_diag
    gamma = None if metric_rhs == 0.0 else metric_lhs / metric_rhs

    extra = {
        "intermediates": {
            "half_period_lower": {"lhs": hp_lhs, "rhs": hp_rhs, "holds": hp_lhs >= hp_rhs * (1 - 1e-9)},
            "edge_upper": {"lhs": edge, "rhs": edge_rhs, "holds": edge <= edge_rhs * (1 + 1e-9)},
            "diagonal_upper": {"lhs": diag_lhs, "rhs": diag_rhs, "holds": diag_lhs <= diag_rhs * (1 + 1e-9)},
        },
        "linear": {
            "subset": linear_subset,
            "full_rademacher": linear_full,
            "ell_p": linear_lp,
        },
        "metric": {
            "lhs": metric_lhs,
            "edge": edge,
            "diag": metric_diag,
            "gamma": gamma,
        },
        "linear_constant_from_gamma": None
        if gamma is None
        else (2.0 / math.pi) ** (2.0 * p) * gamma,
        "shift_identity_note": "e^{i pi (x+m)/m} - e^{i pi x/m} = -2 e^{i pi x/m}",
    }
    return InequalityReport(
        "bridge",
        {"p": p, "m": m, "n": n, "k": k, "d": d},
        metric_lhs,
        {"edge": (k / n) * edge, "diag": (k / n) ** (p / 2.0) * metric_diag},
        plan,
        extra=extra,
    )
