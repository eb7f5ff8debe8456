"""Poincare-type inequality functionals, each returning an InequalityReport.

Every report names its sides (``lhs``, ``rhs_terms``), echoes its parameters
and sample plan, exposes the per-instance implied constant
``lhs / sum(rhs_terms)``, and flags degenerate (all-terms-vanishing)
instances instead of emitting NaN ratios.  Implicit multiplicative constants
are never hard-coded: acceptance pins regression values of implied constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GridFunction,
    SamplePlan,
    ShiftedSet,
    SymmetricDiagonal,
    ThreeLetterDiagonal,
    _norm_power,
    gap_moment,
    random_grid_function,
    subset_stream,
)
from .operators import DS, CalE, CalEj, HypercubeFunction, box_average, edge_average
from .rng import stream

__all__ = [
    "DEGENERACY_TOL",
    "InequalityReport",
    "Enflo",
    "BMW",
    "Pisier",
    "metric_xp_report",
    "linear_xp_report",
    "reverse_linear_xp_report",
    "reverse_metric_xp_report",
    "smoothness_report",
    "cotype_report",
    "convolution_probe",
    "convolution_search",
    "scaling_witness_report",
    "displacement_report",
    "signed_power_mean",
    "subset_average",
]

DEGENERACY_TOL = 1e-14


# ---------------------------------------------------------------------------
# report type
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    """Named sides of one inequality instance plus sampling metadata."""

    functional: str
    params: dict
    lhs: float
    rhs_terms: dict[str, float]
    implied_constant: float | None
    degenerate: bool
    plan: dict
    lhs_terms: dict[str, float] | None = None
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Stable-field-order JSON form."""
        return {
            "functional": self.functional,
            "params": self.params,
            "lhs": self.lhs,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "implied_constant": self.implied_constant,
            "degenerate": self.degenerate,
            "plan": self.plan,
            "warnings": self.warnings,
            "notes": self.notes,
            "extra": self.extra,
        }


def _finalize(
    functional: str,
    params: dict,
    lhs: float,
    rhs_terms: dict[str, float],
    plan: SamplePlan | None,
    lhs_terms: dict[str, float] | None = None,
    warnings: list[str] | None = None,
    notes: list[str] | None = None,
    extra: dict | None = None,
) -> InequalityReport:
    all_terms = [lhs, *rhs_terms.values()]
    if lhs_terms:
        all_terms.extend(lhs_terms.values())
    degenerate = all(abs(t) < DEGENERACY_TOL for t in all_terms)
    total = math.fsum(rhs_terms.values())
    implied = None if (degenerate or total == 0.0) else lhs / total
    return InequalityReport(
        functional=functional,
        params=params,
        lhs=lhs,
        rhs_terms=rhs_terms,
        implied_constant=implied,
        degenerate=degenerate,
        plan=plan.to_dict() if plan is not None else {"mode": "exhaustive"},
        lhs_terms=lhs_terms,
        warnings=warnings or [],
        notes=notes or [],
        extra=extra or {},
    )


# ---------------------------------------------------------------------------
# shared estimators
# ---------------------------------------------------------------------------


def signed_power_mean(
    items: Sequence[np.ndarray],
    subset: Sequence[int],
    power_fn: Callable[[np.ndarray], np.ndarray],
    plan: SamplePlan,
    purpose: str = "signs:xp",
) -> float:
    """Mean over signs eps of ``power_fn(sum_{j in S} eps_j items[j-1])``.

    ``power_fn`` is applied to a batch whose leading axis indexes the sign
    patterns and must return one float per pattern.  Exhaustive plans
    enumerate the 2^{|S|} patterns in a fixed order; Monte Carlo plans draw
    ``plan.budget`` patterns from the (seed, purpose) stream.  The scalar,
    vector, and matrix inequality reports all share this code path.
    """
    sub = [items[j - 1] for j in subset]
    stackdim = np.stack(sub, axis=0)  # (s, ...)
    s = len(sub)
    if plan.mode == "exhaustive":
        patterns = np.array(
            list(itertools.product((-1.0, 1.0), repeat=s)), dtype=float
        )
    else:
        gen = stream(plan.seed, purpose)
        patterns = gen.integers(0, 2, size=(plan.budget, s)) * 2.0 - 1.0
    sums = np.tensordot(patterns, stackdim, axes=(1, 0))  # (batch, ...)
    vals = np.asarray(power_fn(sums), dtype=float)
    return math.fsum(float(v) for v in vals) / len(vals)


def subset_average(
    fn: Callable[[tuple[int, ...]], float], n: int, k: int, plan: SamplePlan
) -> float:
    """Mean of ``fn(S)`` over the plan's stream of size-k subsets of 1..n."""
    vals = [fn(S) for S in subset_stream(n, k, plan)]
    return math.fsum(vals) / len(vals)


def _lp_power(p: float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched ||v||_p^p along the last axis."""

    def fn(batch: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(batch) ** p, axis=-1)

    return fn


def _as_vectors(a: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("coefficients must be a nonempty vector or list of vectors")
    return [arr[j] for j in range(arr.shape[0])]


# ---------------------------------------------------------------------------
# torus inequality reports
# ---------------------------------------------------------------------------


def metric_xp_report(f: GridFunction, k: int, plan: SamplePlan) -> InequalityReport:
    """Subset-averaged half-period shifts vs edge and diagonal moments.

    lhs = avg_{|S|=k} E ||f(x + 2m eps_S) - f(x)||^p / m^p;
    rhs = {edge: (k/n) sum_j E ||f(x+e_j)-f(x)||^p,
           diag: (k/n)^{p/2} E ||f(x+eps)-f(x)||^p}   on Z_{4m}^n.
    """
    if f.modulus % 4 != 0:
        raise ValueError("metric_xp_report requires modulus divisible by 4")
    n, p, m = f.dimension, f.value_p, f.modulus // 4
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    warnings = []
    if m < n**1.5 * max(math.log(p), 0.0) / math.sqrt(k) + p * n:
        warnings.append(
            "hypothesis m >= n^{3/2} log(p)/sqrt(k) + p n not met"
        )
    if m < n**1.5 / math.sqrt(k):
        warnings.append("weaker hypothesis m >= n^{3/2}/sqrt(k) not met")
    lhs = subset_average(
        lambda S: gap_moment(f, ShiftedSet(S, 2 * m), plan), n, k, plan
    ) / m**p
    edge = (k / n) * math.fsum(gap_moment(f, Edge(j), plan) for j in range(1, n + 1))
    diag = (k / n) ** (p / 2) * gap_moment(f, Diagonal(), plan)
    return _finalize(
        "metric_xp",
        {"p": p, "m": m, "n": n, "k": k, "d": f.value_dim},
        lhs,
        {"edge": edge, "diag": diag},
        plan,
        warnings=warnings,
    )


def reverse_metric_xp_report(
    f: GridFunction, k: int, plan: SamplePlan
) -> InequalityReport:
    """Coordinate half-period shifts plus symmetric diagonal vs subset shifts.

    lhs_terms = {cotype: (k/n) sum_j E||f(x+4m e_j)-f(x)||^p / m^p,
                 type:   (k/n)^{p/2} E||f(x+eps)-f(x-eps)||^p};
    rhs = p^{p/2} avg_{|S|=k} E||f(x+eps_S)-f(x)||^p   on Z_{8m}^n.
    Both halves of the proof are reported under extra["goal1"/"goal2"].
    """
    if f.modulus % 8 != 0:
        raise ValueError("reverse_metric_xp_report requires modulus divisible by 8")
    n, p, m = f.dimension, f.value_p, f.modulus // 8
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    warnings = []
    if m < k ** (1.0 / p) / math.sqrt(p):
        warnings.append("hypothesis m >= k^{1/p}/sqrt(p) not met")
    coord = math.fsum(
        gap_moment(f, FixedShift(tuple(4 * m if a == j - 1 else 0 for a in range(n))), plan)
        for j in range(1, n + 1)
    )
    cotype = (k / n) * coord / m**p
    type_term = (k / n) ** (p / 2) * gap_moment(f, SymmetricDiagonal(), plan)
    subset_shift = subset_average(
        lambda S: gap_moment(f, ShiftedSet(S, 1), plan), n, k, plan
    )
    rhs = p ** (p / 2) * subset_shift
    diag2 = gap_moment(f, ShiftedSet(tuple(range(1, n + 1)), 2), plan)
    extra = {
        "goal1": {
            "lhs": diag2,
            "rhs": (p * n / k) ** (p / 2) * subset_shift,
        },
        "goal2": {
            "lhs": coord / m**p,
            "rhs": p ** (p / 2) * (n / k) * subset_shift,
        },
    }
    return _finalize(
        "reverse_metric_xp",
        {"p": p, "m": m, "n": n, "k": k, "d": f.value_dim},
        cotype + type_term,
        {"subset": rhs},
        plan,
        lhs_terms={"cotype": cotype, "type": type_term},
        warnings=warnings,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# linear (coefficient) reports
# ---------------------------------------------------------------------------


def linear_xp_report(
    a: Sequence[float] | np.ndarray,
    k: int,
    p: float,
    plan: SamplePlan,
    square_function: bool = False,
) -> InequalityReport:
    """Subset-and-sign averaged moments of sign sums of coefficients.

    lhs = avg_{|S|=k} E |sum_{j in S} eps_j a_j|^p;
    rhs = {ell_p: (k/n) sum_j |a_j|^p, rademacher: (k/n)^{p/2} E|sum eps_j a_j|^p}.
    ``square_function`` replaces the rademacher term by (sum a_j^2)^{p/2}
    (scalar coefficients only).
    """
    vecs = _as_vectors(a)
    n = len(vecs)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if p < 2:
        raise ValueError("p must be >= 2")
    power = _lp_power(p)
    lhs = subset_average(
        lambda S: signed_power_mean(vecs, S, power, plan), n, k, plan
    )
    ell_p = (k / n) * math.fsum(float(np.sum(np.abs(v) ** p)) for v in vecs)
    rhs_terms = {"ell_p": ell_p}
    if square_function:
        if any(v.size != 1 for v in vecs):
            raise ValueError("square-function mode requires scalar coefficients")
        sq = math.fsum(float(v[0]) ** 2 for v in vecs) ** (p / 2)
        rhs_terms["square_function"] = (k / n) ** (p / 2) * sq
    else:
        rad = signed_power_mean(vecs, tuple(range(1, n + 1)), power, plan)
        rhs_terms["rademacher"] = (k / n) ** (p / 2) * rad
    return _finalize(
        "linear_xp",
        {"p": p, "n": n, "k": k, "d": vecs[0].size,
         "mode": "square_function" if square_function else "rademacher"},
        lhs,
        rhs_terms,
        plan,
    )


def reverse_linear_xp_report(
    a: Sequence[float] | np.ndarray, k: int, p: float, plan: SamplePlan
) -> InequalityReport:
    """Converse direction: implied K(p)^p = lhs / subset-averaged sign sums."""
    vecs = _as_vectors(a)
    n = len(vecs)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if p < 2:
        raise ValueError("p must be >= 2")
    power = _lp_power(p)
    ell_p = (k / n) * math.fsum(float(np.sum(np.abs(v) ** p)) for v in vecs)
    rad = (k / n) ** (p / 2) * signed_power_mean(
        vecs, tuple(range(1, n + 1)), power, plan
    )
    rhs = subset_average(
        lambda S: signed_power_mean(vecs, S, power, plan), n, k, plan
    )
    return _finalize(
        "reverse_linear_xp",
        {"p": p, "n": n, "k": k, "d": vecs[0].size},
        ell_p + rad,
        {"subset": rhs},
        plan,
        lhs_terms={"ell_p": ell_p, "rademacher": rad},
    )


# ---------------------------------------------------------------------------
# hypercube smoothness reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Enflo:
    r: float


@dataclass(frozen=True)
class BMW:
    q: float
    p: float


@dataclass(frozen=True)
class Pisier:
    p: float


def _cube_mean_power(diff: np.ndarray, power: float, norm_p: float) -> float:
    vals = _norm_power(diff, norm_p, power)
    return math.fsum(float(v) for v in vals.ravel(order="C")) / vals.size


def smoothness_report(
    h: HypercubeFunction, kind: Enflo | BMW | Pisier, norm_p: float = 2.0
) -> InequalityReport:
    """Antipodal vs coordinate-flip moments on the hypercube.

    Enflo(r): lhs = E d(h(eps), h(-eps))^r, rhs = sum_j E d(h(eps), h(s^j eps))^r.
    BMW(q,p): rhs additionally scaled by n^{p/q-1}; implied B^p reported.
    Pisier(p): rhs = E_{eps,delta} ||sum_j delta_j (h(s^j eps) - h(eps))||^p.
    """
    n = h.dimension
    anti = h.values - h.antipode().values
    flips = [h.flip(j).values - h.values for j in range(1, n + 1)]
    if isinstance(kind, Enflo):
        r = kind.r
        lhs = _cube_mean_power(anti, r, norm_p)
        rhs = math.fsum(_cube_mean_power(d, r, norm_p) for d in flips)
        return _finalize(
            "enflo", {"r": r, "n": n, "d": h.value_dim}, lhs, {"flips": rhs}, None
        )
    if isinstance(kind, BMW):
        q, p = kind.q, kind.p
        lhs = _cube_mean_power(anti, p, norm_p)
        rhs = n ** (p / q - 1.0) * math.fsum(
            _cube_mean_power(d, p, norm_p) for d in flips
        )
        return _finalize(
            "bmw", {"q": q, "p": p, "n": n, "d": h.value_dim}, lhs, {"flips": rhs}, None
        )
    if isinstance(kind, Pisier):
        p = kind.p
        lhs = _cube_mean_power(anti, p, norm_p)
        parts = []
        for delta in itertools.product((-1.0, 1.0), repeat=n):
            comb = sum(dj * dv for dj, dv in zip(delta, flips))
            parts.append(_cube_mean_power(comb, p, norm_p))
        rhs = math.fsum(parts) / len(parts)
        return _finalize(
            "pisier", {"p": p, "n": n, "d": h.value_dim}, lhs, {"rad_diff": rhs}, None
        )
    raise TypeError(f"unknown smoothness kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# metric cotype
# ---------------------------------------------------------------------------


def cotype_report(
    f: GridFunction, s: float, variant: str, plan: SamplePlan
) -> InequalityReport:
    """Half-period coordinate shifts vs a diagonal moment; implied Gamma^s.

    variant "three-letter": modulus 2m, shift m e_j, eps uniform on {-1,0,1}^n;
    variant "rademacher":   modulus 8m, shift 4m e_j, eps uniform on {-1,1}^n.
    """
    n = f.dimension
    if variant == "three-letter":
        if f.modulus % 2 != 0:
            raise ValueError("three-letter variant requires even modulus")
        m, shift = f.modulus // 2, f.modulus // 2
        diag_spec: object = ThreeLetterDiagonal()
    elif variant == "rademacher":
        if f.modulus % 8 != 0:
            raise ValueError("rademacher variant requires modulus divisible by 8")
        m, shift = f.modulus // 8, f.modulus // 2
        diag_spec = Diagonal()
    else:
        raise ValueError(f"unknown cotype variant {variant!r}")
    lhs = math.fsum(
        gap_moment(
            f,
            FixedShift(tuple(shift if a == j - 1 else 0 for a in range(n))),
            plan,
            power=s,
        )
        for j in range(1, n + 1)
    ) / m**s
    rhs = gap_moment(f, diag_spec, plan, power=s)
    return _finalize(
        "cotype",
        {"s": s, "m": m, "n": n, "d": f.value_dim, "variant": variant},
        lhs,
        {"diag": rhs},
        plan,
    )


# ---------------------------------------------------------------------------
# convolution conjecture probe
# ---------------------------------------------------------------------------


def convolution_probe(f: GridFunction, p: float) -> InequalityReport:
    """Smoothed symmetric diagonal vs Rademacher and edge sums (scalar f).

    lhs = 2^{-n} sum_{eps,x} |Ef(x+eps) - Ef(x-eps)|^p  with E the full edge
    average; rhs_terms = {rad: 2^{-n} sum_{eps,x} |sum_j eps_j (E_j' f(x+e_j)
    - E_j' f(x-e_j))|^p (E_j' the product of edge averages off j),
    edge: sum_j sum_x |f(x+e_j)-f(x)|^p}.  implied_constant is a per-instance
    lower bound on the best constant in the conjectured inequality; the
    report never claims the conjecture's truth value.
    """
    if f.value_dim != 1:
        raise ValueError("convolution_probe requires scalar values")
    n, M = f.dimension, f.modulus
    npoints = M**n
    ef = edge_average(f, CalE())
    plan = SamplePlan("exhaustive", max(npoints * 2**n, 1), 0)
    lhs = npoints * gap_moment(ef, SymmetricDiagonal(), plan, power=p)
    gj = []
    for j in range(1, n + 1):
        ejf = edge_average(f, CalEj(j))
        e = tuple(1 if a == j - 1 else 0 for a in range(n))
        gj.append(ejf.shift(e).values - ejf.shift(tuple(-c for c in e)).values)
    parts = []
    for eps in itertools.product((-1.0, 1.0), repeat=n):
        comb = sum(e * g for e, g in zip(eps, gj))
        parts.append(float(np.sum(np.abs(comb) ** p)))
    rad = math.fsum(parts) / 2**n
    edge = npoints * math.fsum(
        gap_moment(f, Edge(j), plan, power=p) for j in range(1, n + 1)
    )
    report = _finalize(
        "convolution_probe",
        {"p": p, "M": M, "n": n},
        lhs,
        {"rad": rad, "edge": edge},
        plan,
        notes=["implied_constant is (rad+edge)/lhs inverted: see extra"],
    )
    if not report.degenerate and lhs > 0:
        report.extra["beta_lower_bound"] = (rad + edge) / lhs
    return report


def convolution_search(
    modulus: int, n: int, p: float, trials: int, seed: int
) -> dict:
    """Seeded random search minimizing the implied beta lower bound."""
    best = None
    best_trial = None
    for t in range(trials):
        f = random_grid_function(
            modulus, n, 1, p, seed, purpose=f"conv-search:{t}"
        )
        rep = convolution_probe(f, p)
        bound = rep.extra.get("beta_lower_bound")
        if bound is not None and (best is None or bound < best):
            best, best_trial = bound, t
    return {
        "min_beta_lower_bound": best,
        "argmin_trial": best_trial,
        "trials": trials,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# scaling witness
# ---------------------------------------------------------------------------


def scaling_witness_report(m: int, n: int, k: int, p: float) -> InequalityReport:
    """Moments of the untruncated complex-exponential surrogate on Z_{2m}^n.

    g(x)_j = exp(i pi x_j / m), stored as 2n real coordinates with the l_2
    value norm raised to the p-th power.  Closed forms: shifted-set moment
    (2 sqrt(k))^p, edge moment |e^{i pi/m} - 1|^p, diagonal moment
    n^{p/2} |e^{i pi/m} - 1|^p.  Both sides scale as m^{-p}, so the implied
    constant is m-independent: the surrogate alone can never exhibit the
    decay that motivates the truncated witness (which is out of scope).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    M = 2 * m

    def g(x: tuple[int, ...]) -> list[float]:
        out = []
        for c in x:
            out.extend([math.cos(math.pi * c / m), math.sin(math.pi * c / m)])
        return out

    f = GridFunction.from_evaluator(M, n, 2 * n, 2.0, g)
    plan = SamplePlan("exhaustive", max(M**n * 2**n, 1), 0)
    shifted = subset_average(
        lambda S: gap_moment(f, ShiftedSet(S, m), plan, power=p), n, k, plan
    )
    edge = math.fsum(gap_moment(f, Edge(j), plan, power=p) for j in range(1, n + 1))
    diag = gap_moment(f, Diagonal(), plan, power=p)
    step = abs(complex(math.cos(math.pi / m), math.sin(math.pi / m)) - 1.0)
    extra = {
        "shifted_closed_form": (2.0 * math.sqrt(k)) ** p,
        "edge_closed_form_per_coordinate": step**p,
        "diag_closed_form": n ** (p / 2) * step**p,
    }
    return _finalize(
        "scaling_witness",
        {"p": p, "m": m, "n": n, "k": k},
        shifted / m**p,
        {"edge": (k / n) * edge, "diag": (k / n) ** (p / 2) * diag},
        plan,
        notes=[
            "lhs and rhs both scale as m^{-p}; implied constant is m-independent",
        ],
        extra=extra,
    )


# ---------------------------------------------------------------------------
# displacement (box-average) report
# ---------------------------------------------------------------------------


def displacement_report(
    f: GridFunction, S: Sequence[int], R: int, p: float
) -> InequalityReport:
    """Distance to the box average vs diagonal and set-shift terms.

    lhs = sum_x ||f(x) - D_S f(x)||^p;
    rhs = {diag: R^p 2^{-n} sum_{eps,x} ||f(x+eps)-f(x)||^p,
           set: 2^{-n} sum_{eps,x} ||f(x+eps_S)-f(x)||^p}.
    """
    n, M = f.dimension, f.modulus
    npoints = M**n
    S = tuple(int(j) for j in S)
    avg = box_average(f, DS(S, R))
    diff = f.values - avg.values
    lhs = math.fsum(
        float(v)
        for v in _norm_power(diff, f.value_p, p).ravel(order="C")
    )
    plan = SamplePlan("exhaustive", max(npoints * 2**n, 1), 0)
    diag = R**p * npoints * gap_moment(f, Diagonal(), plan, power=p)
    set_term = npoints * gap_moment(f, ShiftedSet(S, 1), plan, power=p)
    return _finalize(
        "displacement",
        {"p": p, "M": M, "n": n, "R": R, "S": list(S)},
        lhs,
        {"diag": diag, "set": set_term},
        plan,
    )
