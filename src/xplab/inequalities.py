"""Poincare-type inequality functionals, each returning an InequalityReport.

Every report names its sides (``lhs``, ``rhs_terms``), echoes its parameters
and sample plan, exposes the per-instance implied constant
``lhs / sum(rhs_terms)``, and flags degenerate (all-terms-vanishing)
instances instead of emitting NaN ratios.  Implicit multiplicative constants
are never hard-coded: acceptance pins regression values of implied constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from . import lattice
from .lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GridFunction,
    SamplePlan,
    ShiftedSet,
    SymmetricDiagonal,
    ThreeLetterDiagonal,
    _blocks,
    _fsum_rows,
    _norm_power,
    _pattern_rows,
    gap_moment,
    make_sample_plan,
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
    """Named sides of one inequality instance plus sampling metadata.

    Built as ``InequalityReport(functional, params, lhs, rhs_terms, plan)``
    with the rest by keyword; ``plan`` is a SamplePlan or None (exhaustive)
    and is stored as its dict.  The implied constant ``lhs / sum(rhs_terms)``
    and the degeneracy flag (every term below ``DEGENERACY_TOL``) are derived.
    The fields are declared in the order of the JSON form.
    """

    functional: str
    params: dict
    lhs: float
    lhs_terms: dict[str, float] | None = field(default=None, kw_only=True)
    rhs_terms: dict[str, float]
    implied_constant: float | None = field(init=False)
    degenerate: bool = field(init=False)
    plan: dict
    warnings: list[str] = field(default_factory=list, kw_only=True)
    notes: list[str] = field(default_factory=list, kw_only=True)
    extra: dict = field(default_factory=dict, kw_only=True)

    def __post_init__(self) -> None:
        all_terms = [self.lhs, *self.rhs_terms.values()]
        if self.lhs_terms:
            all_terms.extend(self.lhs_terms.values())
        self.degenerate = all(abs(t) < DEGENERACY_TOL for t in all_terms)
        total = math.fsum(self.rhs_terms.values())
        self.implied_constant = None if self.degenerate or total == 0.0 else self.lhs / total
        self.plan = self.plan.to_dict() if self.plan is not None else {"mode": "exhaustive"}

    def to_json_dict(self) -> dict:
        """Stable-field-order JSON form."""
        return {name: getattr(self, name) for name in _REPORT_FIELDS}


_REPORT_FIELDS = tuple(f.name for f in fields(InequalityReport))


# ---------------------------------------------------------------------------
# shared estimators
# ---------------------------------------------------------------------------


def _sign_rows(r: int, plan: SamplePlan, purpose: str) -> np.ndarray:
    """The sign patterns of ``signed_power_mean`` for a subset of size r."""
    if plan.mode == "exhaustive":
        return _pattern_rows((-1.0, 1.0), r)
    return _pattern_rows((-1.0, 1.0), r, stream(plan.seed, purpose), plan.budget)


def _signed_sum_means(
    items: Sequence[np.ndarray],
    subsets: Sequence[tuple[int, ...]],
    patterns: np.ndarray,
    power_fn: Callable[[np.ndarray], np.ndarray],
) -> list[float]:
    """The library's one sign-sum kernel: for each subset S (all of one
    size), the mean over the rows eps of ``patterns`` of
    ``power_fn(sum_{j in S} eps_j items[j-1])``.  The rows are signs, or
    other letters: the bridge's are roots of unity (complex sums, two floats).

    If one subset's sums fit in ``lattice._BLOCK`` floats (or in
    ``patterns.size``), the subsets' items are stacked (u, |S|, ...) and
    summed by one ``np.matmul`` per ``_blocks`` slice of the subsets, with
    the floats of one ``tensordot`` per subset whatever the block.
    Otherwise each subset adds eps_j items[j-1] in j order over the
    ``_blocks`` slices of the sign rows: the floats of a loop over the
    patterns, whatever the chunk.  ``power_fn`` maps each (u, batch, ...)
    array of sums to one float per sum, and a subset's floats are combined
    by ``lattice._fsum_rows``, which returns their ``math.fsum`` bit for bit
    without a Python float per sum.
    """
    coeffs = np.asarray(items, dtype=float)
    flat = coeffs.reshape(len(coeffs), -1)
    size = len(patterns) * flat.shape[1]

    def powers(sums: np.ndarray) -> np.ndarray:
        return np.asarray(power_fn(sums.reshape(sums.shape[:2] + coeffs.shape[1:])), dtype=float)

    means = []
    if size <= max(lattice._BLOCK, patterns.size):
        for block in _blocks(len(subsets), size):
            stack = flat[np.asarray(subsets[block]) - 1]  # (u, s, D)
            vals = powers(np.matmul(patterns, stack))
            means.extend(total / vals.shape[1] for total in _fsum_rows(vals))
        return means
    for S in subsets:
        parts = []
        for block in _blocks(len(patterns), flat.shape[1]):
            chunk = patterns[block]
            sums = chunk[:, :1] * flat[S[0] - 1]
            for col, j in enumerate(S[1:], 1):
                sums += chunk[:, col, None] * flat[j - 1]
            parts.append(powers(sums[None]))
        vals = np.concatenate(parts, axis=1)
        means.append(_fsum_rows(vals)[0] / vals.shape[1])
    return means


def signed_power_mean(
    items: Sequence[np.ndarray],
    subset: Sequence[int],
    power_fn: Callable[[np.ndarray], np.ndarray],
    plan: SamplePlan,
    purpose: str = "signs:xp",
) -> float:
    """Mean over signs eps of ``power_fn(sum_{j in S} eps_j items[j-1])``.

    One subset through ``_signed_sum_means``: ``power_fn`` is applied to a
    batch whose second axis indexes the sign patterns and must return one
    float per pattern.  The patterns are the rows of {-1, 1}^{|S|} that the
    gap moments use: all 2^{|S|} in a fixed order for exhaustive plans,
    ``plan.budget`` draws from the (seed, purpose) stream for Monte Carlo
    plans.  The rows depend on |S| only, so ``_xp_moments`` draws them once
    per report and sums every subset against the same rows; a 1x1 matrix
    has ``eigvalsh`` equal to its entry, so the Schatten report at d = 1
    performs the float operations of the scalar one.
    """
    patterns = _sign_rows(len(subset), plan, purpose)
    return _signed_sum_means(items, [tuple(subset)], patterns, power_fn)[0]


def subset_average(
    fn: Callable, n: int, k: int, plan: SamplePlan, *, batched: bool = False
) -> float:
    """Mean of ``fn(S)`` over the plan's stream of size-k subsets of 1..n.

    ``fn`` must be a deterministic function of S (gap moments and sign means
    reseed their own streams, the other callers are closed forms): it is
    called once per distinct subset, or with ``batched`` once with the list
    of distinct subsets in first-draw order, returning their values in that
    order.  Every draw adds its subset's value to the ``math.fsum`` in draw
    order.
    """
    subsets = list(subset_stream(n, k, plan))
    distinct = list(dict.fromkeys(subsets))
    value = dict(zip(distinct, fn(distinct) if batched else map(fn, distinct)))
    return math.fsum(value[S] for S in subsets) / len(subsets)


def _xp_moments(
    items: Sequence[np.ndarray], k: int, power_fn: Callable[[np.ndarray], np.ndarray],
    plan: SamplePlan, *, full: bool = True,
) -> tuple[float, float, float | None]:
    """The moments of the linear X_p inequality for coefficients x_j:

    avg_{|S|=k} E power_fn(sum_{j in S} eps_j x_j), sum_j power_fn(x_j) and
    E power_fn(sum_j eps_j x_j) (None unless ``full``).  Both averages run
    the sign-sum kernel ``_signed_sum_means``: the k-column sign rows are
    drawn once and every distinct subset is summed against them, and the
    full average (``signed_power_mean`` of 1..n) draws its own n-column rows.
    """
    n = len(items)
    subset = subset_average(
        lambda subsets: _signed_sum_means(
            items, subsets, _sign_rows(k, plan, "signs:xp"), power_fn), n, k, plan, batched=True,
    )
    ell = math.fsum(power_fn(np.stack(items)).tolist())
    rad = signed_power_mean(items, tuple(range(1, n + 1)), power_fn, plan) if full else None
    return subset, ell, rad


def _as_vectors(a: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coefficients as the rows of an (n, d) array; scalars are 1-vectors."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("coefficients must be a nonempty vector or list of vectors")
    if arr.shape[1] == 0:
        raise ValueError(f"vectors must not be empty: got {len(arr)} vectors of length 0")
    return arr


# ---------------------------------------------------------------------------
# torus inequality reports
# ---------------------------------------------------------------------------


def _metric_terms(
    f: GridFunction, k: int, plan: SamplePlan, m: int, p: float
) -> tuple[float, float, float]:
    """The three moments of the metric X_p inequality on Z_M^n at power p:

    avg_{|S|=k} E ||f(x + (M/2) eps_S) - f(x)||^p / m^p,
    (k/n) sum_j E ||f(x+e_j)-f(x)||^p and (k/n)^{p/2} E ||f(x+eps)-f(x)||^p.
    """
    n = f.dimension
    shifted = subset_average(
        lambda S: gap_moment(f, ShiftedSet(S, f.modulus // 2), plan, power=p), n, k, plan
    )
    edge = math.fsum(gap_moment(f, Edge(j), plan, power=p) for j in range(1, n + 1))
    diag = gap_moment(f, Diagonal(), plan, power=p)
    return shifted / m**p, (k / n) * edge, (k / n) ** (p / 2) * diag


def _half_period_sum(f: GridFunction, plan: SamplePlan, power: float) -> float:
    """sum_j E ||f(x + (M/2) e_j) - f(x)||^power on Z_M^n, M even."""
    shifts = np.eye(f.dimension, dtype=np.int64) * (f.modulus // 2)
    return math.fsum(gap_moment(f, FixedShift(v), plan, power=power) for v in shifts)


def metric_xp_report(f: GridFunction, k: int, plan: SamplePlan) -> InequalityReport:
    """Subset-averaged half-period shifts vs edge and diagonal moments.

    lhs = avg_{|S|=k} E ||f(x + 2m eps_S) - f(x)||^p / m^p;
    rhs = {edge: (k/n) sum_j E ||f(x+e_j)-f(x)||^p,
           diag: (k/n)^{p/2} E ||f(x+eps)-f(x)||^p}   on Z_{4m}^n.
    """
    if f.modulus % 4 != 0:
        raise ValueError("metric_xp_report requires modulus divisible by 4")
    n, p, m = f.dimension, f.value_p, f.modulus // 4
    lhs, edge, diag = _metric_terms(f, k, plan, m, p)
    warnings = []
    if m < n**1.5 * max(math.log(p), 0.0) / math.sqrt(k) + p * n:
        warnings.append(
            "hypothesis m >= n^{3/2} log(p)/sqrt(k) + p n not met"
        )
    if m < n**1.5 / math.sqrt(k):
        warnings.append("weaker hypothesis m >= n^{3/2}/sqrt(k) not met")
    return InequalityReport(
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
    subset_shift = subset_average(
        lambda S: gap_moment(f, ShiftedSet(S, 1), plan), n, k, plan
    )
    warnings = []
    if m < k ** (1.0 / p) / math.sqrt(p):
        warnings.append("hypothesis m >= k^{1/p}/sqrt(p) not met")
    coord = _half_period_sum(f, plan, p)
    cotype = (k / n) * coord / m**p
    type_term = (k / n) ** (p / 2) * gap_moment(f, SymmetricDiagonal(), plan)
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
    return InequalityReport(
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
    n, d = vecs.shape
    if p < 2:
        raise ValueError("p must be >= 2")
    if square_function and d != 1:
        raise ValueError("square-function mode requires scalar coefficients")
    lhs, ell, rad = _xp_moments(
        vecs, k, lambda v: _norm_power(v, p, p), plan, full=not square_function
    )
    mode = "square_function" if square_function else "rademacher"
    if square_function:
        rad = math.fsum(float(v[0]) ** 2 for v in vecs) ** (p / 2)
    return InequalityReport(
        "linear_xp",
        {"p": p, "n": n, "k": k, "d": d, "mode": mode},
        lhs,
        {"ell_p": (k / n) * ell, mode: (k / n) ** (p / 2) * rad},
        plan,
    )


def reverse_linear_xp_report(
    a: Sequence[float] | np.ndarray, k: int, p: float, plan: SamplePlan
) -> InequalityReport:
    """Converse direction: implied K(p)^p = lhs / subset-averaged sign sums."""
    vecs = _as_vectors(a)
    n, d = vecs.shape
    if p < 2:
        raise ValueError("p must be >= 2")
    subset, ell, rad = _xp_moments(vecs, k, lambda v: _norm_power(v, p, p), plan)
    ell_p, rad = (k / n) * ell, (k / n) ** (p / 2) * rad
    return InequalityReport(
        "reverse_linear_xp",
        {"p": p, "n": n, "k": k, "d": d},
        ell_p + rad,
        {"subset": subset},
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


def _cube_mean_power(diff: np.ndarray, power: float) -> float:
    vals = _norm_power(diff, 2.0, power)
    return _fsum_rows(vals.reshape(1, -1))[0] / vals.size


def smoothness_report(h: HypercubeFunction, kind: Enflo | BMW | Pisier) -> InequalityReport:
    """Antipodal vs coordinate-flip moments on the hypercube, in l_2 distances.

    Enflo(r): lhs = E d(h(eps), h(-eps))^r, rhs = sum_j E d(h(eps), h(s^j eps))^r.
    BMW(q,p): rhs additionally scaled by n^{p/q-1}; implied B^p reported.
    Pisier(p): rhs = E_{eps,delta} ||sum_j delta_j (h(s^j eps) - h(eps))||^p.
    """
    n = h.dimension
    if n < 1:
        raise ValueError("smoothness reports require dimension n >= 1")
    if not isinstance(kind, (Enflo, BMW, Pisier)):
        raise TypeError(f"unknown smoothness kind {kind!r}")
    for name, value in vars(kind).items():  # powers of l_2 distances that can be 0
        if value <= 0:
            raise ValueError(f"{type(kind).__name__} exponent {name}={value} must be > 0")
    anti = h.values - h.antipode().values
    flips = [h.flip(j).values - h.values for j in range(1, n + 1)]
    p = kind.r if isinstance(kind, Enflo) else kind.p
    if isinstance(kind, Pisier):
        rhs = {"rad_diff": _signed_sum_means(
            flips, [tuple(range(1, n + 1))], _pattern_rows((-1.0, 1.0), n),
            lambda sums: np.reshape(_fsum_rows(_norm_power(sums, 2.0, p).reshape(-1, 2**n)),
                                    sums.shape[:2]) / 2**n,
        )[0]}
    else:
        scale = n ** (p / kind.q - 1.0) if isinstance(kind, BMW) else 1.0
        rhs = {"flips": scale * math.fsum(_cube_mean_power(d, p) for d in flips)}
    return InequalityReport(type(kind).__name__.lower(), {**vars(kind), "n": n, "d": h.value_dim},
                            _cube_mean_power(anti, p), rhs, None)


# ---------------------------------------------------------------------------
# metric cotype
# ---------------------------------------------------------------------------


# variant -> (modulus factor, diagonal law, modulus rule)
_COTYPE_VARIANTS = {
    "three-letter": (2, ThreeLetterDiagonal(), "even modulus"),
    "rademacher": (8, Diagonal(), "modulus divisible by 8"),
}


def _cotype_variant(variant: str) -> tuple[int, lattice.DisplacementSpec, str]:
    """The ``_COTYPE_VARIANTS`` row of ``variant``, or a ValueError naming
    it: read by ``cotype_report`` and by the CLI before any grid is drawn."""
    if variant not in _COTYPE_VARIANTS:
        raise ValueError(f"unknown cotype variant {variant!r}")
    return _COTYPE_VARIANTS[variant]


def cotype_report(
    f: GridFunction, s: float, variant: str, plan: SamplePlan
) -> InequalityReport:
    """Half-period coordinate shifts vs a diagonal moment; implied Gamma^s.

    variant "three-letter": modulus 2m, shift m e_j, eps uniform on {-1,0,1}^n;
    variant "rademacher":   modulus 8m, shift 4m e_j, eps uniform on {-1,1}^n.
    """
    if s <= 0:
        raise ValueError(f"cotype exponent s={s} must be > 0")
    factor, diag_spec, rule = _cotype_variant(variant)
    if f.modulus % factor != 0:
        raise ValueError(f"{variant} variant requires {rule}")
    m = f.modulus // factor
    lhs = _half_period_sum(f, plan, s) / m**s
    rhs = gap_moment(f, diag_spec, plan, power=s)
    return InequalityReport(
        "cotype",
        {"s": s, "m": m, "n": f.dimension, "d": f.value_dim, "variant": variant},
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
    report never claims the conjecture's truth value.  On Z_4 lhs is 0 for
    every f, and the note says so in place of pointing to ``extra``.
    """
    n, M = f.dimension, f.modulus
    if n < 1:
        raise ValueError("convolution_probe requires dimension n >= 1")
    if f.value_dim != 1:
        raise ValueError("convolution_probe requires scalar values")
    npoints = M**n
    plan = make_sample_plan(M, n, 0, npoints * 2**n, 0)
    lhs = npoints * gap_moment(edge_average(f, CalE()), SymmetricDiagonal(), plan, power=p)
    # one (n,) + table array, so that the kernel does not copy it
    edge_diffs = np.empty((n,) + f.values.shape)
    for j in range(1, n + 1):
        ejf = edge_average(f, CalEj(j)).values
        np.subtract(np.roll(ejf, -1, axis=j - 1), np.roll(ejf, 1, axis=j - 1),
                    out=edge_diffs[j - 1])
    rad = _signed_sum_means(
        edge_diffs, [tuple(range(1, n + 1))], _pattern_rows((-1.0, 1.0), n),
        lambda sums: _norm_power(sums.reshape(sums.shape[:2] + (-1,)), p, p),
    )[0]
    edge = npoints * math.fsum(
        gap_moment(f, Edge(j), plan, power=p) for j in range(1, n + 1)
    )
    if M == 4:
        # 2 eps = -2 eps mod 4, so both smoothed points average the same set
        note = ("lhs is 0 for every f on Z_4: x+eps+{-1,1}^n and x-eps+{-1,1}^n "
                "are the same points mod 4, so there is no beta lower bound")
    else:
        note = "implied_constant is (rad+edge)/lhs inverted: see extra"
    report = InequalityReport(
        "convolution_probe",
        {"p": p, "M": M, "n": n},
        lhs,
        {"rad": rad, "edge": edge},
        plan,
        notes=[note],
    )
    if not report.degenerate and lhs > 0:
        report.extra["beta_lower_bound"] = (rad + edge) / lhs
    return report


def convolution_search(
    modulus: int, n: int, p: float, trials: int, seed: int
) -> dict:
    """Seeded random search minimizing the implied beta lower bound."""
    if trials < 1:
        raise ValueError(f"convolution search requires trials >= 1, got trials={trials}")
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
    if m < 1:
        raise ValueError(f"scaling witness requires m >= 1, got m={m}")
    M = 2 * m
    # g(x) concatenates the (cos, sin) pairs of x's residues
    circle = np.array([[math.cos(math.pi * c / m), math.sin(math.pi * c / m)] for c in range(M)])
    values = circle[_pattern_rows(np.arange(M), n)].reshape((M,) * n + (2 * n,))
    f = GridFunction(M, n, 2 * n, 2.0, values)
    plan = make_sample_plan(M, n, k, M**n * 2**n, 0)
    lhs, edge, diag = _metric_terms(f, k, plan, m, p)
    step = abs(complex(math.cos(math.pi / m), math.sin(math.pi / m)) - 1.0)
    extra = {
        "shifted_closed_form": (2.0 * math.sqrt(k)) ** p,
        "edge_closed_form_per_coordinate": step**p,
        "diag_closed_form": n ** (p / 2) * step**p,
    }
    return InequalityReport(
        "scaling_witness",
        {"p": p, "m": m, "n": n, "k": k},
        lhs,
        {"edge": edge, "diag": diag},
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
    if len(set(S)) < len(S):  # the set shift would drop it, but S is echoed
        raise ValueError(f"subset {S} repeats an entry")
    avg = box_average(f, DS(S, R))
    diff = f.values - avg.values
    lhs = _fsum_rows(_norm_power(diff, f.value_p, p).reshape(1, -1))[0]
    plan = make_sample_plan(M, n, 0, npoints * 2**n, 0)
    diag = R**p * npoints * gap_moment(f, Diagonal(), plan, power=p)
    set_term = npoints * gap_moment(f, ShiftedSet(S, 1), plan, power=p)
    return InequalityReport(
        "displacement",
        {"p": p, "M": M, "n": n, "R": R, "S": list(S)},
        lhs,
        {"diag": diag, "set": set_term},
        plan,
    )
