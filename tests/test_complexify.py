"""Circular-average pair norm, circular moments, contraction, bridge."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab import complexify, lattice
from xplab.complexify import (
    bridge_report,
    circular_moment,
    circular_moment_report,
    complex_scale,
    complexification_norm,
    contraction_check,
)
from xplab.inequalities import linear_xp_report, subset_average
from xplab.lattice import _BLOCK, SamplePlan, _norm_power, make_sample_plan


def plan_for(modulus: int, n: int, k: int = 1):
    return make_sample_plan(modulus, n, k, budget=10**7, seed=0)


class TestCircularMoment:
    def test_p2_is_pi(self):
        assert circular_moment(2.0) == pytest.approx(math.pi, abs=1e-10)

    def test_p4_is_three_quarters_pi(self):
        assert circular_moment(4.0) == pytest.approx(3 * math.pi / 4, abs=1e-10)

    def test_report_flags_doubled_form(self):
        rep = circular_moment_report(4.0)
        assert rep["gamma_form_mismatch"] == pytest.approx(1.0, abs=1e-9)
        assert rep["doubled_gamma_form_mismatch"] == pytest.approx(0.5, abs=1e-9)
        assert rep["flag"]

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(1.0, 10.0))
    def test_matches_gamma_ratio(self, p):
        closed = (
            2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        )
        assert circular_moment(p) == pytest.approx(closed, rel=1e-9)


class TestPairNorm:
    def test_p2_closed_form(self):
        u = np.array([1.0, 2.0])
        assert complexification_norm(u, [0.0, 0.0], 2.0) == pytest.approx(
            math.sqrt(math.pi) * np.linalg.norm(u)
        )

    def test_scalar_action_rotation_invariance(self):
        u, v = np.array([1.0, -0.3]), np.array([0.4, 2.0])
        base = complexification_norm(u, v, 3.0)
        for phi in (0.3, 1.1, 2.9):
            w = complex(math.cos(phi), math.sin(phi))
            uu, vv = complex_scale(w, u, v)
            assert complexification_norm(uu, vv, 3.0) == pytest.approx(
                base, abs=1e-8
            )

    def test_homogeneity(self):
        u, v = np.array([1.0, 0.5]), np.array([-0.2, 0.7])
        assert complexification_norm(3 * u, 3 * v, 4.0) == pytest.approx(
            3 * complexification_norm(u, v, 4.0)
        )

    @pytest.mark.parametrize("block", [1, 1000, _BLOCK])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_kernel_equals_the_node_major_layout(self, monkeypatch, block, d):
        # the (nodes, d) layout of each pair, summed over one flat row in
        # node-major order, bit for bit: one pair per block at _BLOCK 1 and
        # 1000, several at the default
        monkeypatch.setattr(lattice, "_BLOCK", block)
        rng = np.random.default_rng(d)
        w = rng.normal(size=(5, 30, d)) + 1j * rng.normal(size=(5, 30, d))
        nodes = complexify.DEFAULT_NODES
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        vals = np.cos(theta)[:, None] * w.real[..., None, :]
        vals -= np.sin(theta)[:, None] * w.imag[..., None, :]
        vals = np.power(np.abs(vals), 3.3)
        want = (2.0 * math.pi / nodes) * vals.reshape(5, 30, nodes * d).sum(axis=-1)
        got = complexify._pair_powers(w, 3.3)
        assert got.shape == (5, 30)
        assert (got == want).all()

    def test_moment_factor_on_real_vectors(self):
        # ||(z, 0)||^p = (circular p-moment) ||z||_p^p by rotation invariance
        z = np.array([0.7, -1.3, 0.2])
        p = 4.0
        got = complexification_norm(z, np.zeros(3), p) ** p
        expected = circular_moment(p) * float(np.sum(np.abs(z) ** p))
        assert got == pytest.approx(expected, rel=1e-9)


class TestContraction:
    def test_equality_at_unit_coefficients(self):
        zs = [[1.0, 0.0], [0.0, 1.0]]
        rep = contraction_check([1.0, 1.0], zs, 4.0, plan_for(1, 2))
        assert rep.lhs == pytest.approx(rep.rhs_terms["scaled_base"])

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.lists(st.floats(-2, 2), min_size=2, max_size=3),
        seed=st.integers(0, 10**5),
    )
    def test_holds_generally(self, a, seed):
        n = len(a)
        zs = np.random.default_rng(seed).standard_normal((n, 2)).tolist()
        rep = contraction_check(a, zs, 4.0, plan_for(1, n))
        assert rep.lhs <= rep.rhs_terms["scaled_base"] * (1 + 1e-12) + 1e-12


class TestBridge:
    def test_intermediates_hold_with_constants(self):
        rep = bridge_report(np.eye(2).tolist(), m=2, k=1, p=4.0,
                            plan=plan_for(4, 2))
        for name in ("half_period_lower", "edge_upper", "diagonal_upper"):
            assert rep.extra["intermediates"][name]["holds"], name
        assert rep.extra["metric"]["gamma"] > 0
        assert rep.extra["linear_constant_from_gamma"] == pytest.approx(
            (2 / math.pi) ** 8 * rep.extra["metric"]["gamma"]
        )

    @pytest.mark.parametrize("d", [1, 2])
    def test_linear_side_is_the_linear_report(self, d):
        zs = np.random.default_rng(11).standard_normal((3, d)).tolist()
        n, k, p = 3, 2, 3.5
        plan = plan_for(4, n, k)
        assert plan.mode == "exhaustive"
        linear = bridge_report(zs, m=2, k=k, p=p, plan=plan).extra["linear"]
        rep = linear_xp_report(zs, k, p, plan)
        assert linear["subset"] == rep.lhs
        assert (k / n) * linear["ell_p"] == rep.rhs_terms["ell_p"]
        assert (k / n) ** (p / 2) * linear["full_rademacher"] == rep.rhs_terms["rademacher"]

    @pytest.mark.parametrize("n,d,k", [(3, 1, 2), (4, 1, 2), (4, 2, 3), (5, 3, 2)])
    def test_rhs_are_the_sign_matrix_formulas(self, n, d, k):
        # every sign row of {-1, 1}^n against the coefficients, summed with fsum
        zmat = np.random.default_rng(n + d).standard_normal((n, d))
        m, p = 1, 3.5
        plan = plan_for(2, n, k)
        rep = bridge_report(zmat.tolist(), m=m, k=k, p=p, plan=plan).extra["intermediates"]
        signs = np.array(list(itertools.product((-1, 1), repeat=n)))

        def power_sum(sums):
            return math.fsum(_norm_power(sums, p, p))

        def half_period_rhs(S):
            cols = [j - 1 for j in S]
            return (2.0 ** (p + 1.0) * (2 * m)**n / math.pi ** (p - 1.0)) * power_sum(
                signs[:, cols] @ zmat[cols])

        assert rep["half_period_lower"]["rhs"] == subset_average(half_period_rhs, n, k, plan)
        assert rep["diagonal_upper"]["rhs"] == (
            (2.0 * math.pi ** (p + 1.0) / m**p) * power_sum(signs @ zmat))

    def test_shift_identity(self):
        # e^{i pi (x+m)/m} - e^{i pi x/m} = -2 e^{i pi x/m}
        m = 3
        for x in range(2 * m):
            lhs = np.exp(1j * math.pi * (x + m) / m) - np.exp(1j * math.pi * x / m)
            rhs = -2 * np.exp(1j * math.pi * x / m)
            assert abs(lhs - rhs) < 1e-12

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            bridge_report(
                np.eye(2).tolist(), m=2, k=1, p=4.0,
                plan=make_sample_plan(4, 2, 1, budget=10, seed=0),
            )

    def test_sampled_plan_is_refused(self):
        # the budget covers the whole enumeration, but a Monte-Carlo plan would
        # put sampled sign sums beside the exact torus moments
        plan = SamplePlan("monte-carlo", 10**6, 0, subset_mode="sampled", subset_count=2)
        with pytest.raises(ValueError, match="exhaustive plan"):
            bridge_report(np.eye(2).tolist(), m=2, k=1, p=4.0, plan=plan)

    def test_budget_counts_every_quadrature(self, monkeypatch):
        # the guard once counted M^n 2^n only, below the pair quadratures the
        # half-period and edge terms add; count what the report evaluates
        zs = [[0.3, -1.0], [0.5, 0.2], [1.0, 0.1]]
        plan = make_sample_plan(4, 3, 2, budget=10**7, seed=0)
        pairs = []
        quadrature = complexify._pair_powers

        def counting(w, *args):
            pairs.append(math.prod(np.shape(w)[:-1]))
            return quadrature(w, *args)

        monkeypatch.setattr(complexify, "_pair_powers", counting)
        bridge_report(zs, m=2, k=2, p=4.0, plan=plan)
        used = sum(pairs)
        assert used > 4**3 * 2**3
        bridge_report(zs, m=2, k=2, p=4.0,
                      plan=make_sample_plan(4, 3, 2, budget=used, seed=0))
        with pytest.raises(ValueError, match="budget"):
            bridge_report(zs, m=2, k=2, p=4.0,
                          plan=make_sample_plan(4, 3, 2, budget=used - 1, seed=0))

    @pytest.mark.parametrize("block", [1, 1000])
    def test_block_size_does_not_change_the_report(self, monkeypatch, block):
        # the diagonal walks the 512 points of Z_8^3 in 512 blocks, then in 43
        zs = [[0.7, -0.2], [-0.4, 0.5], [1.1, 0.3]]
        plan = make_sample_plan(8, 3, 2, budget=10**7, seed=0)
        whole = bridge_report(zs, m=4, k=2, p=3.3, plan=plan).to_json_dict()
        monkeypatch.setattr(lattice, "_BLOCK", block)
        assert bridge_report(zs, m=4, k=2, p=3.3, plan=plan).to_json_dict() == whole

    def test_memory_is_bounded_by_the_block(self):
        # 3 MiB is 12 blocks; at n=5 the diagonal's coefficient arrays for
        # the whole lattice at once take about 6 MiB
        zs = [[0.7], [-0.4], [1.1], [0.2], [-0.9]]
        plan = make_sample_plan(4, 5, 2, budget=10**6, seed=0)
        tracemalloc.start()
        try:
            bridge_report(zs, m=2, k=2, p=4.7, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * _BLOCK * 8


def reference_bridge(zs, m, k, p):
    """Every numeric bridge field with one quadrature per family member."""
    z = np.asarray(zs, dtype=float)
    n, d = z.shape
    M = 2 * m
    deltas = list(itertools.product((-1, 1), repeat=n))
    xs = list(itertools.product(range(M), repeat=n))
    subsets = list(itertools.combinations(range(n), k))

    def phase(t):
        return complex(math.cos(math.pi * t / m), math.sin(math.pi * t / m))

    def norm_p(coeffs):  # ||sum_j c_j (z_j, 0)||^p
        w = sum(c * z[j] for j, c in coeffs)
        return complexification_norm(w.real, w.imag, p) ** p

    def lp(vec):
        return float(np.sum(np.abs(vec) ** p))

    def sign_mean(S):
        return math.fsum(lp(sum(dl[j] * z[j] for j in S)) for dl in deltas) / len(deltas)

    def half_period(S, scale):
        return math.fsum(
            norm_p([(j, scale * dl[j] * phase(x[j])) for j in S])
            for dl in deltas for x in xs
        )

    hp_lhs = math.fsum(half_period(S, 1.0) for S in subsets) / len(subsets)
    hp_rhs = math.fsum(
        2.0 ** (p + 1) * M**n / math.pi ** (p - 1) * math.fsum(
            lp(sum(dl[j] * z[j] for j in S)) for dl in deltas)
        for S in subsets
    ) / len(subsets)
    ell_p = math.fsum(lp(z[j]) for j in range(n))
    step = abs(phase(1) - 1.0)
    rows = [
        [norm_p([(j, dl[j] * (phase(x[j] + e[j]) - phase(x[j]))) for j in range(n)])
         for dl in deltas]
        for x in xs for e in deltas
    ]
    diag_rhs = 2 * math.pi ** (p + 1) / m**p * math.fsum(
        lp(sum(dl[j] * z[j] for j in range(n))) for dl in deltas)
    family = len(deltas) * len(xs)
    metric_lhs = math.fsum(
        half_period(S, -2.0) / family for S in subsets) / len(subsets) / m**p
    metric_edge = math.fsum(
        math.fsum(norm_p([(j, dl[j] * (phase(x[j] + 1) - phase(x[j])))])
                  for dl in deltas for x in xs) / family
        for j in range(n)
    )
    metric_diag = math.fsum(itertools.chain(*rows)) / (family * 2**n)
    edge_term = k / n * metric_edge
    diag_term = (k / n) ** (p / 2) * metric_diag
    gamma = metric_lhs / (edge_term + diag_term)
    edge_lhs = step**p * math.fsum(norm_p([(j, 1.0)]) for j in range(n))
    edge_rhs = math.pi ** (p + 1) / m**p * ell_p
    diag_lhs = max(math.fsum(r) for r in rows)
    return {
        "lhs": metric_lhs,
        "implied_constant": gamma,
        "rhs_terms": {"edge": edge_term, "diag": diag_term},
        "extra": {
            "intermediates": {
                "half_period_lower": {
                    "lhs": hp_lhs, "rhs": hp_rhs,
                    "holds": hp_lhs >= hp_rhs * (1 - 1e-9),
                },
                "edge_upper": {
                    "lhs": edge_lhs, "rhs": edge_rhs,
                    "holds": edge_lhs <= edge_rhs * (1 + 1e-9),
                },
                "diagonal_upper": {
                    "lhs": diag_lhs, "rhs": diag_rhs,
                    "holds": diag_lhs <= diag_rhs * (1 + 1e-9),
                },
            },
            "linear": {
                "subset": math.fsum(sign_mean(S) for S in subsets) / len(subsets),
                "full_rademacher": sign_mean(range(n)),
                "ell_p": ell_p,
            },
            "metric": {
                "lhs": metric_lhs, "edge": metric_edge, "diag": metric_diag, "gamma": gamma,
            },
            "linear_constant_from_gamma": (2 / math.pi) ** (2 * p) * gamma,
        },
    }


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_bridge_matches_per_pair_reference(m, d, k):
    zs = np.random.default_rng(10 * m + d + k).uniform(-1, 1, (2, d)).tolist()
    p = 4.7
    got = bridge_report(zs, m, k, p, plan_for(2 * m, 2, k)).to_json_dict()
    want = reference_bridge(zs, m, k, p)

    def compare(g, w, path):
        for key, val in w.items():
            if isinstance(val, dict):
                compare(g[key], val, f"{path}.{key}")
            elif isinstance(val, bool):
                assert g[key] is val, f"{path}.{key}"
            else:
                assert type(g[key]) is float, f"{path}.{key}"
                assert g[key] == pytest.approx(val, rel=1e-12), f"{path}.{key}"

    compare(got, want, "report")
