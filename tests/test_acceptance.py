"""Acceptance gate: seventeen numbered criteria at their stated tolerances.

Each test carries its criterion number; runtime-budgeted criteria assert
their wall-clock bound as part of the test.
"""

import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest

from xplab.cli import main as cli_main
from xplab.complexify import bridge_report
from xplab.embeddings import (
    composite_grid_distortion,
    rosenthal_distortion,
    schoenberg_embed,
    grid_round_map,
    snowflake_exponent_poly,
    snowflake_exponent_root,
)
from xplab.inequalities import (
    Enflo,
    convolution_probe,
    displacement_report,
    linear_xp_report,
    metric_xp_report,
    reverse_metric_xp_report,
    smoothness_report,
)
from xplab.lattice import (
    Diagonal,
    Edge,
    FixedShift,
    LatticePoint,
    SamplePlan,
    ShiftedSet,
    SymmetricDiagonal,
    gap_moment,
    gap_moment_estimate,
    geodesic,
    make_sample_plan,
    random_grid_function,
)
from xplab.operators import character, rad_identity_residual_grid
from xplab.rng import stream
from xplab.schatten import (
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_xp_report,
    trace_inequality_report,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_01_projection_identity_exhaustive():
    """Criterion 1: residual < 1e-9 for 100 random f, n<=3, m<=2, < 5 s."""
    start = time.monotonic()
    configs = [(n, m) for n in (1, 2, 3) for m in (1, 2)]
    worst = 0.0
    for seed in range(100):
        n, m = configs[seed % len(configs)]
        f = random_grid_function(8 * m, n, 1, 4.0, seed=seed)
        worst = max(worst, rad_identity_residual_grid(f))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 5.0


@pytest.mark.parametrize("n", [1, 2])
def test_02_character_orthonormality(n):
    """Criterion 2: the character Gram matrix is the identity within 1e-10."""
    M = 8
    pts = list(itertools.product(range(M), repeat=n))
    tables = []
    for y in pts:
        vals = character(LatticePoint(y, M)).values.reshape(-1, 2)
        tables.append(vals[:, 0] + 1j * vals[:, 1])
    tables = np.array(tables)
    gram = tables @ tables.conj().T / M**n
    assert np.abs(gram - np.eye(len(pts))).max() < 1e-10


def test_03_scalar_enflo_two_constant_one():
    """Criterion 3: scalar p=2 smoothness constant <= 1 + 1e-12."""
    from xplab.operators import HypercubeFunction

    count = 0
    for n in (1, 2, 3, 4):
        for s in range(50):
            gen = stream(s, f"acc3:{n}")
            h = HypercubeFunction(n, 1, gen.standard_normal((2,) * n + (1,)))
            rep = smoothness_report(h, Enflo(2.0))
            if not rep.degenerate:
                assert rep.implied_constant <= 1 + 1e-12
            count += 1
    assert count == 200


@pytest.mark.parametrize("modulus,n", [(8, 2), (4, 3)])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_04_box_displacement_constants(modulus, n, p):
    """Criterion 4: subset shifts vs edges (|S|^{p-1}) and doubled vs plain
    diagonals (2^p), 1e-10 relative."""
    plan = make_sample_plan(modulus, n, 1, budget=10**7, seed=0)
    subsets = [
        S for r in range(1, n + 1)
        for S in itertools.combinations(range(1, n + 1), r)
    ]
    for seed in range(50):
        f = random_grid_function(modulus, n, 1, p, seed=seed, purpose="acc4")
        edges = {j: gap_moment(f, Edge(j), plan) for j in range(1, n + 1)}
        diag = gap_moment(f, Diagonal(), plan)
        for S in subsets:
            rhs = len(S) ** (p - 1) * sum(edges[j] for j in S)
            for signs in itertools.product((-1, 1), repeat=len(S)):
                v = [0] * n
                for s_val, j in zip(signs, S):
                    v[j - 1] = s_val
                lhs = gap_moment(f, FixedShift(tuple(v)), plan)
                assert lhs <= rhs * (1 + 1e-10)
            doubled = gap_moment(f, ShiftedSet(S, 2), plan)
            assert doubled <= 2**p * diag * (1 + 1e-10)


def test_05_geodesic_suite_exact():
    """Criterion 5: endpoints, unit steps, injectivity, sign-equivariance."""
    for n in (1, 2, 3):
        for w in itertools.product((-5, -3, -1, 1, 3, 5), repeat=n):
            path = geodesic(w)
            assert not path[0].any()
            assert (path[-1] == np.array(w)).all()
            assert np.abs(np.diff(path, axis=0)).max() == 1
            assert len({tuple(r) for r in path}) == len(path)
            flipped = geodesic(tuple(-c for c in w))
            assert (flipped == -path).all()


def test_06_distortion_exponent_slope():
    """Criterion 6: log-log slope over n in {2^4..2^14} within 1/12 +- 0.02,
    under 10 s."""
    start = time.monotonic()
    ns = [2**e for e in range(4, 15)]
    dists = [rosenthal_distortion(n, 3.0, 6.0)[0] for n in ns]
    slope = np.polyfit(np.log(ns), np.log(dists), 1)[0]
    elapsed = time.monotonic() - start
    assert abs(slope - 1.0 / 12.0) <= 0.02
    assert elapsed < 10.0


def test_07_schoenberg_grid():
    """Criterion 7: 25-point grid snowflake distances 1e-8 relative and
    composite distortion at most 4^{1/3} + 1e-9."""
    pts = np.array(
        [[i, j] for i in range(5) for j in range(5)], dtype=float
    )
    img = schoenberg_embed(pts, 3.0)
    for i in range(25):
        for j in range(i):
            src = np.linalg.norm(pts[i] - pts[j]) ** (2.0 / 3.0)
            got = np.linalg.norm(img[i] - img[j])
            assert abs(got - src) <= 1e-8 * src
    res = composite_grid_distortion(4, 2, 3.0, 6.0, "schoenberg")
    assert res.distortion <= 4.0 ** (1.0 / 3.0) + 1e-9


def _assert_sandwich(img_q: np.ndarray, src_q: np.ndarray, m: int, q: float):
    """m * src <= img <= 3m * src on arrays of q-th distance powers."""
    img = img_q ** (1.0 / q)
    src = src_q ** (1.0 / q)
    degenerate = src < 1e-9  # x ≡ y coordinatewise (mod m), up to roundoff
    assert (img[degenerate] == 0.0).all()
    live = ~degenerate
    assert (m * src[live] <= img[live]).all()
    assert (img[live] <= 3 * m * src[live]).all()


def test_08_grid_rounding_sandwich():
    """Criterion 8: m and 3m sandwich, exhaustive m in {2..8}, n <= 2,
    q in {2,3,4}."""
    for m in range(2, 9):
        coords = np.arange(4 * m)
        imgs = np.array([grid_round_map([u], m) for u in coords])
        phases = np.exp(2j * math.pi * coords / m)
        # all 1-D coordinate pairs (u, v)
        img_d = np.abs(imgs[:, None, :] - imgs[None, :, :])
        src_d = np.abs(phases[:, None] - phases[None, :])
        for q in (2.0, 3.0, 4.0):
            img_q = np.sum(img_d**q, axis=-1).ravel()
            src_q = (src_d**q).ravel()
            # n = 1: every coordinate pair directly
            _assert_sandwich(img_q, src_q, m, q)
            # n = 2: q-th powers add coordinatewise, so sweep all pair pairs
            img2 = (img_q[:, None] + img_q[None, :]).ravel()
            src2 = (src_q[:, None] + src_q[None, :]).ravel()
            _assert_sandwich(img2, src2, m, q)


def test_09_snowflake_exponent_checkpoints():
    """Criterion 9: polynomial checkpoints and root window for 20 (p, q)."""
    gen = stream(0, "acc9")
    done = 0
    while done < 20:
        q = float(gen.uniform(2.05, 11.0))
        p = float(gen.uniform(q + 0.1, 12.0))
        if not (2 < q < p <= 12):
            continue
        assert abs(snowflake_exponent_poly(p, q, 0.0) + p) < 1e-10
        assert abs(snowflake_exponent_poly(p, q, q / p) + (p - q)) < 1e-10
        theta = snowflake_exponent_root(p, q)
        assert abs(snowflake_exponent_poly(p, q, theta)) < 1e-10
        assert q / p < theta < 1 - (p - q) * (q - 2) / (2 * p**3)
        done += 1


def test_10_trace_inequality_corpus():
    """Criterion 10: 1000 seeded PSD pairs per kind over d in {2..6},
    zero violations beyond 1e-8 relative, under 60 s."""
    start = time.monotonic()
    kinds = (
        [MainQge1(q) for q in (1.0, 1.5, 2.0, 2.7, 4.0, 7.0)]
        + [Qlt1(q) for q in (0.25, 0.5, 0.9)]
        + [LiebThirring(r) for r in (1.0, 1.5, 3.0)]
        + [OpConvex(t, 0.35) for t in (1.0, 1.5, 2.0)]
    )
    violations = 0
    for kind in kinds:
        for seed in range(1000):
            d = 2 + seed % 5
            a = random_psd(d, seed, purpose="acc10:a")
            b = random_psd(d, seed, purpose="acc10:b")
            rep = trace_inequality_report(a, b, kind)
            if isinstance(kind, OpConvex):
                scale = max(abs(rep.extra["min_eigenvalue"]), 1.0)
                if rep.lhs < -1e-8 * scale:
                    violations += 1
            else:
                rhs = sum(rep.rhs_terms.values())
                scale = max(abs(rep.lhs), abs(rhs), 1e-30)
                if rep.lhs - rhs > 1e-8 * scale:
                    violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 60.0


def test_11_psd_counterexample():
    """Criterion 11: closed form at q=4, K=2 to 1e-12 relative; negative
    minimum eigenvalue at s = 0.1."""
    for s in (0.5, 0.1, 0.01):
        ce = psd_counterexample(s, 4.0, 2.0)
        target = -(s**6) - 3 * s**8 + s**10
        assert abs(ce.quadratic_form - target) <= 1e-12 * abs(target)
    assert psd_counterexample(0.1, 4.0, 2.0).min_eigenvalue < 0


def test_12_d1_reduction_bit_exact():
    """Criterion 12: 1x1 matrix reports equal scalar reports exactly."""
    for seed in range(50):
        gen = stream(seed, "acc12")
        n = int(gen.integers(2, 5))
        k = int(gen.integers(1, n + 1))
        a = gen.standard_normal(n)
        mats = [np.array([[v]]) for v in a]
        plans = [
            make_sample_plan(1, n, k, budget=10**6, seed=seed),
            SamplePlan("monte-carlo", 200, seed=seed, subset_mode="sampled",
                       subset_count=6),
        ]
        for plan in plans:
            lin = linear_xp_report(a, k, 4.0, plan)
            sch = schatten_xp_report(mats, k, 4.0, plan)
            assert sch.lhs == lin.lhs
            assert sch.rhs_terms == lin.rhs_terms


def test_13_diagonal_khinchine():
    """Criterion 13: commuting diagonal matrices match the coordinatewise
    scalar computation within 1e-10."""
    for seed in range(10):
        gen = stream(seed, "acc13")
        diags = gen.standard_normal((3, 4))
        mats = [np.diag(row) for row in diags]
        plan = make_sample_plan(1, 3, 1, budget=10**6, seed=seed)
        rep = khinchine_report(mats, 4.0, plan)
        lhs = np.mean([
            np.sum(np.abs(sum(e * row for e, row in zip(eps, diags))) ** 4)
            for eps in itertools.product((-1, 1), repeat=3)
        ])
        rhs = 2 * np.sum(np.sum(diags**2, axis=0) ** 2)
        assert abs(rep.lhs - float(lhs)) < 1e-10
        assert abs(sum(rep.rhs_terms.values()) - float(rhs)) < 1e-10


def test_14_bridge_intermediates():
    """Criterion 14: each named intermediate bound of the bridge holds with
    its explicit constant within 1e-9 (n=2, k=1, p=4, m=2, basis vectors)."""
    plan = make_sample_plan(4, 2, 1, budget=10**7, seed=0)
    rep = bridge_report(np.eye(2).tolist(), m=2, k=1, p=4.0, plan=plan)
    inter = rep.extra["intermediates"]
    assert inter["half_period_lower"]["lhs"] >= inter["half_period_lower"]["rhs"] * (1 - 1e-9)
    assert inter["edge_upper"]["lhs"] <= inter["edge_upper"]["rhs"] * (1 + 1e-9)
    assert inter["diagonal_upper"]["lhs"] <= inter["diagonal_upper"]["rhs"] * (1 + 1e-9)


def test_15_monte_carlo_consistency():
    """Criterion 15: budget-1e5 Monte Carlo within 3 empirical standard
    errors of the exhaustive value in at least 19 of 20 fixed-seed configs."""
    specs = [Edge(1), Diagonal(), SymmetricDiagonal(), ShiftedSet((1, 2), 1)]
    hits = 0
    for i in range(20):
        modulus = 8 if i % 2 == 0 else 12
        spec = specs[i % len(specs)]
        f = random_grid_function(modulus, 2, 1, 4.0, seed=i, purpose="acc15")
        exact = gap_moment(
            f, spec, make_sample_plan(modulus, 2, 1, budget=10**7, seed=i)
        )
        est = gap_moment_estimate(
            f, spec, SamplePlan("monte-carlo", 10**5, seed=i)
        )
        if abs(est.value - exact) <= 3 * est.stderr:
            hits += 1
    assert hits >= 19


def test_16_deterministic_reports_byte_identical(runner):
    """Criterion 16: identical config and seed give byte-identical JSON."""
    for args in (
        ["run", "linear-xp", "--a", "1,2,3", "--n", "3", "--k", "2",
         "--seed", "5", "--deterministic"],
        ["run", "metric-xp", "--m", "2", "--n", "2", "--seed", "5",
         "--deterministic"],
        ["run", "trace", "--kind", "main", "--q", "2.7", "--d", "4",
         "--seed", "5", "--deterministic"],
    ):
        a = runner.invoke(cli_main, args).output
        b = runner.invoke(cli_main, args).output
        assert a == b and a


def test_17_regression_corpus():
    """Criterion 17: frozen implied constants reproduce to 1e-9 relative."""
    with open(DATA / "regression_corpus.json", encoding="utf-8") as fh:
        corpus = json.load(fh)

    for row in corpus["metric_xp"]:
        plan = make_sample_plan(row["modulus"], row["n"], row["k"],
                                budget=10**7, seed=row["seed"])
        f = random_grid_function(row["modulus"], row["n"], row["d"],
                                 row["p"], seed=row["seed"])
        got = metric_xp_report(f, row["k"], plan).implied_constant
        assert got == pytest.approx(row["implied_constant"], rel=1e-9)

    for row in corpus["reverse_metric_xp"]:
        plan = make_sample_plan(row["modulus"], row["n"], row["k"],
                                budget=10**7, seed=row["seed"])
        f = random_grid_function(row["modulus"], row["n"], row["d"],
                                 row["p"], seed=row["seed"], purpose="rev")
        got = reverse_metric_xp_report(f, row["k"], plan).implied_constant
        assert got == pytest.approx(row["implied_constant"], rel=1e-9)

    for row in corpus["displacement"]:
        f = random_grid_function(row["modulus"], row["n"], 1, row["p"],
                                 seed=row["seed"], purpose="disp")
        got = displacement_report(
            f, tuple(row["S"]), row["R"], row["p"]
        ).implied_constant
        assert got == pytest.approx(row["implied_constant"], rel=1e-9)

    for row in corpus["convolution_probe"]:
        f = random_grid_function(row["modulus"], row["n"], 1, row["p"],
                                 seed=row["seed"], purpose="conv")
        got = convolution_probe(f, row["p"]).implied_constant
        assert got == pytest.approx(row["implied_constant"], rel=1e-9)

    for row in corpus["psd_xp"]:
        mats = [
            random_psd(row["d"], row["seed"], purpose=f"corpus:{j}").entries
            for j in range(row["n"])
        ]
        got = psd_xp_report(mats, row["k"], row["q"]).implied_constant
        assert got == pytest.approx(row["implied_constant"], rel=1e-9)
