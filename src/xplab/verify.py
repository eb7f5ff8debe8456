"""Built-in oracle suites of ``xplab verify``: exact values, identities and
inequalities, each check a row ``(label, ok, observed, threshold)``."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .complexify import (
    _refined_trapezoid,
    bridge_report,
    circular_moment_report,
    complexification_norm,
)
from .embeddings import (
    grid_round_map,
    schoenberg_embed,
    snowflake_exponent_poly,
    snowflake_exponent_root,
)
from .inequalities import linear_xp_report, metric_xp_report
from .lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GridFunction,
    LatticePoint,
    ShiftedSet,
    SymmetricDiagonal,
    ThreeLetterDiagonal,
    gap_moment,
    geodesic,
    make_sample_plan,
    random_grid_function,
)
from .operators import BoxA, CalE, box_average, character, edge_average, rad_identity_residual
from .schatten import (
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    eigen_sym,
    psd_counterexample,
    random_psd,
    trace_inequality_report,
)

Check = tuple[str, bool, float, float]


def _below(label: str, value: float, threshold: float) -> Check:
    """Passes when ``value`` is strictly below ``threshold``."""
    return (label, value < threshold, value, threshold)


def _holds(label: str, ok: bool) -> Check:
    """An exact yes/no check, observed as 1 or 0 against 1."""
    return (label, ok, 1.0 if ok else 0.0, 1.0)


def _suite_geodesic() -> list[Check]:
    worst_step = 0
    ok_end = ok_inj = ok_sign = True
    for n in (1, 2, 3):
        for w in itertools.product((1, 3, 5), repeat=n):
            path = geodesic(w)
            ok_end &= not path[0].any() and (path[-1] == np.array(w)).all()
            steps = np.abs(np.diff(path, axis=0)).max(axis=1)
            worst_step = max(worst_step, int(steps.max()))
            ok_end &= bool((steps == 1).all())
            ok_inj &= len({tuple(r) for r in path}) == len(path)
            for signs in itertools.product((-1, 1), repeat=n):
                sw = tuple(s * wi for s, wi in zip(signs, w))
                ok_sign &= bool((geodesic(sw) == path * np.array(signs)).all())
    return [
        ("geodesic endpoints and unit steps", ok_end, float(worst_step), 1.0),
        _holds("geodesic injectivity", ok_inj),
        _holds("geodesic sign equivariance", ok_sign),
    ]


def _suite_lattice() -> list[Check]:
    plan = make_sample_plan(8, 2, 1, budget=10**6, seed=3)
    f = random_grid_function(8, 2, 2, 4.0, seed=3)
    shifted = f.shift((3, 5))
    worst = 0.0
    for spec in (Edge(1), Diagonal(), SymmetricDiagonal(), ThreeLetterDiagonal(),
                 ShiftedSet((1, 2), 1), FixedShift((4, 0))):
        worst = max(worst, abs(gap_moment(f, spec, plan) - gap_moment(shifted, spec, plan)))
    rt = GridFunction.from_json_dict(f.to_json_dict())
    return [
        _below("gap moment translation invariance", worst, 1e-12),
        _holds("grid function JSON round trip", bool((rt.values == f.values).all())),
    ]


def _suite_operators() -> list[Check]:
    f = random_grid_function(8, 2, 1, 4.0, seed=5)
    mean = float(f.values.mean())
    box = box_average(f, BoxA(1))
    edge = edge_average(f, CalE())
    mean_drift = max(abs(float(g.values.mean()) - mean) for g in (box, edge))
    contract = max(float(np.abs(g.values).max()) for g in (box, edge))
    bound = float(np.abs(f.values).max())
    residual = max(
        rad_identity_residual(random_grid_function(8, 2, 1, 4.0, seed=s), (0,) * 2)
        for s in range(5)
    )
    gram_worst = 0.0
    pts = [(a, b) for a in range(8) for b in range(8)]
    chars = [character(LatticePoint(y, 8)).values.reshape(-1, 2) for y in pts[:16]]
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            re = float(np.mean(ci[:, 0] * cj[:, 0] + ci[:, 1] * cj[:, 1]))
            im = float(np.mean(ci[:, 1] * cj[:, 0] - ci[:, 0] * cj[:, 1]))
            target = 1.0 if i == j else 0.0
            gram_worst = max(gram_worst, abs(re - target), abs(im))
    return [
        _below("averaging operators preserve the mean", mean_drift, 1e-12),
        ("averaging operators are sup-norm contractions",
         contract <= bound + 1e-12, contract - bound, 1e-12),
        _below("first-order projection identity residual", residual, 1e-9),
        _below("character orthonormality", gram_worst, 1e-10),
    ]


def _suite_inequalities() -> list[Check]:
    plan = make_sample_plan(1, 3, 2, budget=10**6, seed=11)
    rep = linear_xp_report([1.0, 1.0, 1.0], 2, 4.0, plan)
    coeffs = [0.3, -1.2, 0.7]
    sq = linear_xp_report(coeffs, 2, 4.0, plan, square_function=True)
    rad = linear_xp_report(coeffs, 2, 4.0, plan)
    jensen = sq.rhs_terms["square_function"] <= rad.rhs_terms["rademacher"] + 1e-12
    f = random_grid_function(8, 2, 1, 4.0, seed=11)
    gplan = make_sample_plan(8, 2, 1, budget=10**6, seed=11)
    m = metric_xp_report(f, 1, gplan)
    holds = m.lhs <= sum(m.rhs_terms.values()) * 50
    return [
        ("linear report reproduces the (1,1,1) oracle",
         abs(rep.lhs - 8.0) < 1e-12, rep.lhs, 8.0),
        ("square function below rademacher moment", jensen,
         rad.rhs_terms["rademacher"] - sq.rhs_terms["square_function"], 0.0),
        ("metric report bounded on a random instance", holds,
         m.implied_constant or 0.0, 50.0),
    ]


def _suite_trace() -> list[Check]:
    worst = -math.inf
    for seed in range(100):
        a = random_psd(4, seed, purpose="verify:a")
        b = random_psd(4, seed, purpose="verify:b")
        for kind in (MainQge1(2.7), Qlt1(0.5), LambdaFamily(2.5),
                     LiebThirring(1.5), OpConvex(1.5, 0.3)):
            rep = trace_inequality_report(a, b, kind)
            if isinstance(kind, OpConvex):
                # lhs is the minimum eigenvalue of the PSD combination
                worst = max(worst, -rep.lhs / max(abs(rep.lhs), 1.0))
            else:
                rhs = sum(rep.rhs_terms.values())
                scale = max(abs(rep.lhs), abs(rhs), 1e-30)
                worst = max(worst, (rep.lhs - rhs) / scale)
    ce = psd_counterexample(0.1, 4.0, 2.0)
    target = -0.1**6 - 3 * 0.1**8 + 0.1**10
    res_worst = 0.0
    for seed in range(20):
        arr = random_psd(6, seed, purpose="verify:jacobi").entries
        lam, vec = eigen_sym(arr)
        res = np.linalg.norm(arr @ vec - vec * lam) / max(np.linalg.norm(arr), 1e-30)
        res_worst = max(res_worst, float(res))
    return [
        ("trace inequalities on the random corpus", worst <= 1e-8, worst, 1e-8),
        _below("counterexample closed form at s=0.1",
               abs(ce.quadratic_form - target) / abs(target), 1e-12),
        _below("counterexample eigenvalue negative", ce.min_eigenvalue, 0.0),
        _below("eigensolver residual", res_worst, 1e-10),
    ]


def _suite_embeddings() -> list[Check]:
    pts = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    img = schoenberg_embed(pts, 3.0)
    src = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)) ** (2.0 / 3.0)
    dst = np.sqrt(((img[:, None] - img[None]) ** 2).sum(-1))
    mask = src > 0
    snow_err = float(np.max(np.abs(dst[mask] - src[mask]) / src[mask]))
    sandwich = True
    for m in range(2, 9):
        for u in range(m):
            ab = grid_round_map([u], m)
            for v in range(u):
                dd = float(np.linalg.norm(grid_round_map([v], m) - ab))
                src = abs(np.exp(2j * math.pi * u / m) - np.exp(2j * math.pi * v / m))
                sandwich &= m * src <= dd <= 3 * m * src
    p, q = 6.0, 3.0
    theta = snowflake_exponent_root(p, q)
    psi0 = abs(snowflake_exponent_poly(p, q, 0.0) + p)
    psit = abs(snowflake_exponent_poly(p, q, theta))
    return [
        _below("snowflake realization distances", snow_err, 1e-8),
        _holds("grid rounding sandwich", sandwich),
        _below("exponent polynomial checkpoints", max(psi0, psit), 1e-10),
    ]


def _suite_complexify() -> list[Check]:
    mom_err = abs(circular_moment_report(2.0)["quadrature"] - math.pi)
    u, v = np.array([1.0, -0.3]), np.array([0.4, 2.0])
    base = complexification_norm(u, v, 3.0)
    uu = math.cos(1.1) * u - math.sin(1.1) * v
    vv = math.cos(1.1) * v + math.sin(1.1) * u
    rot_err = abs(complexification_norm(uu, vv, 3.0) - base)
    # closed forms against quadratures at a p where |cos t|^p has kinks
    p = 3.3
    gamma_err = abs(circular_moment_report(p)["gamma_form_mismatch"] - 1.0)
    pair = _refined_trapezoid(
        lambda t: (np.abs(np.outer(np.cos(t), u) - np.outer(np.sin(t), v)) ** p).sum(axis=1))
    pair_err = abs(complexification_norm(u, v, p) ** p / pair - 1.0)
    plan = make_sample_plan(4, 2, 1, budget=10**6, seed=2)
    br = bridge_report(np.eye(2).tolist(), 2, 1, 4.0, plan)
    return [
        _below("circular moment p=2 equals pi", mom_err, 1e-9),
        _below("rotation invariance of the pair norm", rot_err, 1e-8),
        _below("circular moment p=3.3 vs gamma form", gamma_err, 1e-9),
        _below("pair norm p=3.3 vs its quadrature", pair_err, 1e-9),
        _holds("bridge intermediate bounds",
               all(d["holds"] for d in br.extra["intermediates"].values())),
    ]


SUITES = {
    "geodesic": _suite_geodesic,
    "lattice": _suite_lattice,
    "operators": _suite_operators,
    "inequalities": _suite_inequalities,
    "trace": _suite_trace,
    "embeddings": _suite_embeddings,
    "complexify": _suite_complexify,
}
