"""Inequality reports: torus, coefficient, hypercube, probe functionals."""

import itertools
import math
import tracemalloc
from typing import Callable, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab import inequalities, lattice
from xplab.inequalities import (
    BMW,
    DEGENERACY_TOL,
    Enflo,
    InequalityReport,
    Pisier,
    convolution_probe,
    convolution_search,
    cotype_report,
    displacement_report,
    linear_xp_report,
    metric_xp_report,
    reverse_linear_xp_report,
    reverse_metric_xp_report,
    scaling_witness_report,
    smoothness_report,
    subset_average,
)
from xplab.inequalities import _metric_terms, _sign_rows, _xp_moments
from xplab.lattice import (
    Diagonal,
    GridFunction,
    SamplePlan,
    ShiftedSet,
    gap_moment,
    gap_moment_estimate,
    make_sample_plan,
    random_grid_function,
    subset_stream,
)
from xplab.lattice import _norm_power, _pattern_rows
from xplab.operators import HypercubeFunction
from xplab.schatten import _schatten_power, schatten_xp_report


def indicator(modulus: int, n: int, p: float) -> GridFunction:
    vals = np.zeros((modulus,) * n + (1,))
    vals[(0,) * n + (0,)] = 1.0
    return GridFunction(modulus, n, 1, p, vals)


def plan_for(modulus: int, n: int, k: int = 1):
    return make_sample_plan(modulus, n, k, budget=10**7, seed=0)


class TestInequalityReport:
    def test_json_fields_in_csv_column_order(self):
        rep = linear_xp_report([1.0, 1.0], 1, 4.0, plan_for(2, 2))
        assert list(rep.to_json_dict()) == [
            "functional", "params", "lhs", "lhs_terms", "rhs_terms", "implied_constant",
            "degenerate", "plan", "warnings", "notes", "extra",
        ]

    def test_vanishing_terms_are_degenerate(self):
        tiny = DEGENERACY_TOL / 2
        rep = InequalityReport("t", {}, tiny, {"a": tiny, "b": -tiny}, None,
                               lhs_terms={"c": tiny})
        assert rep.degenerate
        assert rep.implied_constant is None
        assert rep.plan == {"mode": "exhaustive"}
        assert (rep.warnings, rep.notes, rep.extra) == ([], [], {})

    @pytest.mark.parametrize("name", ["implied_constant", "degenerate"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            InequalityReport("t", {}, 1.0, {"a": 1.0}, None, **{name: 1.0})


class TestLinearXp:
    def test_unit_pair_oracle(self):
        # [DERIVED] n=2, k=1, p=4, a=(1,1)
        rep = linear_xp_report([1.0, 1.0], 1, 4.0, plan_for(1, 2))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs_terms["ell_p"] == pytest.approx(1.0)
        assert rep.rhs_terms["rademacher"] == pytest.approx(2.0)

    def test_square_function_mode_scalar(self):
        rep = linear_xp_report(
            [1.0, 1.0], 1, 4.0, plan_for(1, 2), square_function=True
        )
        assert rep.rhs_terms["square_function"] == pytest.approx(1.0)

    def test_square_function_rejects_vectors(self):
        with pytest.raises(ValueError):
            linear_xp_report(
                [[1.0, 0.0], [0.0, 1.0]], 1, 4.0, plan_for(1, 2),
                square_function=True,
            )

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.lists(
            st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
            min_size=2, max_size=4,
        )
    )
    def test_square_below_rademacher(self, a):
        n = len(a)
        plan = plan_for(1, n)
        sq = linear_xp_report(a, n, 4.0, plan, square_function=True)
        rad = linear_xp_report(a, n, 4.0, plan)
        assert (
            sq.rhs_terms["square_function"]
            <= rad.rhs_terms["rademacher"] * (1 + 1e-12)
        )

    def test_degenerate_flags_zero_input(self):
        rep = linear_xp_report([0.0, 0.0], 1, 4.0, plan_for(1, 2))
        assert rep.degenerate
        assert rep.implied_constant is None


class TestReverseLinearXp:
    def test_single_coefficient(self):
        # [TRIVIAL] n = k = 1: lhs = |a|^p + |a|^p, rhs = |a|^p
        rep = reverse_linear_xp_report([1.0], 1, 4.0, plan_for(1, 1))
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs_terms["subset"] == pytest.approx(1.0)
        assert rep.lhs_terms == {"ell_p": 1.0, "rademacher": 1.0}


class TestSharedMoments:
    """The linear and reverse-linear reports read one set of moments."""

    PLANS = {
        "exhaustive": SamplePlan("exhaustive", 10**6, 3),
        "monte-carlo": SamplePlan("monte-carlo", 300, 3, subset_mode="sampled",
                                  subset_count=40),
    }
    COEFFS = {
        "scalar": [0.7, -1.3, 0.2, 2.1, -0.4, 1.1],
        "l_p^3": np.random.default_rng(5).standard_normal((6, 3)).tolist(),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("coeff_name", sorted(COEFFS))
    def test_reverse_reads_the_linear_moments(self, plan_name, coeff_name):
        plan, a = self.PLANS[plan_name], self.COEFFS[coeff_name]
        lin = linear_xp_report(a, 3, 3.5, plan)
        rev = reverse_linear_xp_report(a, 3, 3.5, plan)
        assert rev.lhs_terms == lin.rhs_terms
        assert rev.rhs_terms["subset"] == lin.lhs
        assert rev.params == {k: v for k, v in lin.params.items() if k != "mode"}


class TestMonteCarloReuse:
    """Repeated subsets and sign streams are evaluated once per report."""

    PLAN = SamplePlan("monte-carlo", 600, 11, subset_mode="sampled", subset_count=600)

    def test_subset_average_calls_fn_once_per_distinct_subset(self):
        # 600 draws of a 2-subset of 1..4 hit each of the C(4, 2) = 6 subsets
        f = random_grid_function(8, 4, 2, 3.0, seed=2)
        fn = mock.Mock(side_effect=lambda S: gap_moment(f, ShiftedSet(S, 2), self.PLAN))
        value = subset_average(fn, 4, 2, self.PLAN)
        assert fn.call_count == 6
        draws = [gap_moment(f, ShiftedSet(S, 2), self.PLAN)
                 for S in subset_stream(4, 2, self.PLAN)]
        assert value == math.fsum(draws) / 600

    @staticmethod
    def count_streams(monkeypatch) -> mock.Mock:
        opened = mock.Mock(wraps=inequalities.stream)
        monkeypatch.setattr(inequalities, "stream", opened)
        return opened

    @pytest.mark.parametrize("square_function,opens", [(False, 2), (True, 1)],
                             ids=["rademacher", "square_function"])
    def test_linear_xp_draws_each_sign_stream_once(self, monkeypatch, square_function,
                                                   opens):
        # one draw of the k-column rows for every subset, one of the n-column
        # rows for the full average, which square-function mode skips
        plan = SamplePlan("monte-carlo", 300, 3, subset_mode="sampled", subset_count=40)
        opened = self.count_streams(monkeypatch)
        linear_xp_report([0.7, -1.3, 0.2, 2.1, -0.4, 1.1], 3, 4.0, plan,
                         square_function=square_function)
        assert [c.args for c in opened.call_args_list] == [(3, "signs:xp")] * opens


class TestSampledSubsetsUnbiased:
    """Monte-Carlo subset averages land within 6 standard errors of the exact one.

    For a subset S, E(sum_{j in S} eps_j a_j)^4 = 3 (sum_S a^2)^2 - 2 sum_S a^4:
    the expansion keeps the terms whose sign exponents are all even, a_j^4
    once and a_i^2 a_j^2 (i != j) in 3 ways.  The standard error is that of
    a mean of ``budget`` independent draws of (S, eps), the band the benchmark
    applies to these reports.
    """

    @staticmethod
    def exact_mean_and_variance(a: np.ndarray, k: int) -> tuple[float, float]:
        subsets = np.array(list(itertools.combinations(range(len(a)), k)))
        sq = a[subsets] ** 2
        fourth = 3 * sq.sum(axis=1) ** 2 - 2 * (sq**2).sum(axis=1)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
        eighth = ((a[subsets] @ signs.T) ** 8).mean(axis=1)
        mean = math.fsum(fourth) / len(subsets)
        return mean, math.fsum(eighth) / len(subsets) - mean**2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("reverse,n,k,budget", [
        (False, 12, 6, 250), (False, 14, 7, 500), (False, 16, 8, 400),
        (True, 12, 6, 300), (True, 14, 7, 400), (True, 16, 8, 250),
    ])
    def test_p4_subset_average(self, reverse, n, k, budget, seed):
        a = np.random.default_rng([n, seed]).uniform(-2.0, 2.0, n)
        plan = make_sample_plan(1, n, k, budget, seed)
        assert plan.subset_mode == "sampled"
        if reverse:
            got = reverse_linear_xp_report(a, k, 4.0, plan).rhs_terms["subset"]
        else:
            got = linear_xp_report(a, k, 4.0, plan).lhs
        mean, variance = self.exact_mean_and_variance(a, k)
        assert abs(got - mean) <= 6 * math.sqrt(variance / budget)


RNG = np.random.default_rng(8)
SYM = RNG.standard_normal((8, 3, 3))


def _signed_sum_mean(
    items: Sequence[np.ndarray],
    subset: Sequence[int],
    patterns: np.ndarray,
    power_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """``signed_power_mean`` over the given sign rows."""
    stackdim = np.stack([items[j - 1] for j in subset], axis=0)  # (s, ...)
    sums = np.tensordot(patterns, stackdim, axes=(1, 0))  # (batch, ...)
    vals = np.asarray(power_fn(sums), dtype=float)
    return math.fsum(vals.tolist()) / len(vals)


class TestBatchedSubsets:
    """``_xp_moments`` sums a block of subsets at a time, with the floats of
    one ``_signed_sum_mean`` per subset, whatever the block size."""

    # 500 draws of a 4-subset of 1..8 hit most of the 70 subsets; a product
    # that sums in another order than one subset's ``tensordot`` moves the
    # scalar moments at these sizes
    PLANS = {
        "exhaustive": SamplePlan("exhaustive", 10**6, 3),
        "monte-carlo": SamplePlan("monte-carlo", 500, 3, subset_mode="sampled",
                                  subset_count=500),
    }
    ITEMS = {
        "scalar": (RNG.standard_normal((8, 1)), lambda v: _norm_power(v, 4.0, 4.0)),
        "l_p^3": (RNG.standard_normal((8, 3)), lambda v: _norm_power(v, 3.5, 3.5)),
        "S_p-symmetric": (list(SYM + SYM.transpose(0, 2, 1)), _schatten_power(4.0, True)),
        "S_p-general": (list(RNG.standard_normal((8, 3, 3))), _schatten_power(3.0, False)),
    }

    @staticmethod
    def per_subset(items, k, power_fn, plan) -> float:
        rows = _sign_rows(k, plan, "signs:xp")
        subsets = list(subset_stream(len(items), k, plan))
        value = {S: _signed_sum_mean(items, S, rows, power_fn)
                 for S in dict.fromkeys(subsets)}
        return math.fsum(value[S] for S in subsets) / len(subsets)

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("item_name", sorted(ITEMS))
    def test_equals_per_subset_loop(self, plan_name, item_name):
        plan, (items, power_fn) = self.PLANS[plan_name], self.ITEMS[item_name]
        assert _xp_moments(items, 4, power_fn, plan)[0] == self.per_subset(
            items, 4, power_fn, plan)

    @pytest.mark.parametrize("per_block", [1, 7])
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("item_name", sorted(ITEMS))
    def test_block_size_does_not_change_the_floats(self, monkeypatch, per_block,
                                                    plan_name, item_name):
        plan, (items, power_fn) = self.PLANS[plan_name], self.ITEMS[item_name]
        whole = _xp_moments(items, 4, power_fn, plan)
        rows = 2**4 if plan.mode == "exhaustive" else plan.budget
        monkeypatch.setattr(lattice, "_BLOCK", per_block * rows * np.size(items[0]))
        assert _xp_moments(items, 4, power_fn, plan) == whole

    def test_memory_is_bounded_by_the_block(self):
        # 64 subsets of 4096 sign sums take 2 MiB at once; blocked, the peak
        # is the full average's 4096 x 16 sign draws and their letters (about
        # 5 blocks). 64 subsets, not 4096, keep the traced run short.
        a = np.random.default_rng(1).standard_normal(16)
        plan = SamplePlan("monte-carlo", 4096, 5, subset_mode="sampled", subset_count=64)
        tracemalloc.start()
        try:
            linear_xp_report(a, 8, 4.0, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * lattice._BLOCK * 8


class TestMetricXp:
    def test_indicator_oracle(self):
        # [DERIVED] Z_4^1, m=1, k=n=1, p=4: every term is 0.5
        rep = metric_xp_report(indicator(4, 1, 4.0), 1, plan_for(4, 1))
        assert rep.lhs == pytest.approx(0.5)
        assert rep.rhs_terms["edge"] == pytest.approx(0.5)
        assert rep.rhs_terms["diag"] == pytest.approx(0.5)
        assert rep.implied_constant == pytest.approx(0.5)
        assert rep.warnings  # m = 1 is far below both hypothesis thresholds

    def test_requires_modulus_multiple_of_four(self):
        with pytest.raises(ValueError):
            metric_xp_report(indicator(6, 1, 4.0), 1, plan_for(6, 1))

    @pytest.mark.parametrize("modulus,n,k,value_p,p,m", [
        (4, 2, 1, 2.0, 3.0, 1), (8, 2, 2, 3.0, 1.5, 2), (4, 3, 2, 2.0, 5.0, 3),
        (6, 2, 1, 4.0, 2.0, 3)])
    def test_terms_at_a_power_other_than_value_p(self, modulus, n, k, value_p, p, m):
        # a loop over (S, eps, x) on an exhaustive torus, at a power p that is
        # not the value norm's exponent
        f = random_grid_function(modulus, n, 2, value_p, seed=modulus + n)

        def moment(delta, x):
            y = tuple((a + b) % modulus for a, b in zip(x, delta))
            gap = f.values[y] - f.values[tuple(x)]
            return math.fsum(abs(float(v)) ** value_p for v in gap) ** (p / value_p)

        points = list(itertools.product(range(modulus), repeat=n))

        def mean(deltas):
            return math.fsum(moment(d, x) for d in deltas for x in points) / (
                len(deltas) * len(points))

        half = modulus // 2
        shifted = [mean([[half * eps[S.index(a)] if a in S else 0 for a in range(n)]
                          for eps in itertools.product((-1, 1), repeat=k)])
                   for S in itertools.combinations(range(n), k)]
        edges = [mean([[int(a == j) for a in range(n)]]) for j in range(n)]
        diag = mean(list(itertools.product((-1, 1), repeat=n)))
        expected = (math.fsum(shifted) / len(shifted) / m**p, (k / n) * math.fsum(edges),
                    (k / n) ** (p / 2) * diag)
        terms = _metric_terms(f, k, plan_for(modulus, n, k), m, p)
        assert terms == pytest.approx(expected, rel=1e-12)


class TestReverseMetricXp:
    def test_indicator_oracle(self):
        # [DERIVED] Z_8^1, m=1, k=n=1, p=4
        rep = reverse_metric_xp_report(indicator(8, 1, 4.0), 1, plan_for(8, 1))
        assert rep.lhs_terms["cotype"] == pytest.approx(0.25)
        assert rep.lhs_terms["type"] == pytest.approx(0.25)
        assert rep.lhs == pytest.approx(0.5)
        # shifted-set moment 0.25 scaled by p^{p/2} = 16
        assert rep.rhs_terms["subset"] == pytest.approx(0.25 * 4.0**2)
        assert "goal1" in rep.extra and "goal2" in rep.extra


class TestKRangeFirst:
    """k outside 1..n is refused by ``subset_stream`` before any moment,
    sign row or half-period sum is evaluated."""

    PLANS = {
        "exhaustive": SamplePlan("exhaustive", 10**6, 3),
        "monte-carlo": SamplePlan("monte-carlo", 300, 3, subset_mode="sampled",
                                  subset_count=40),
    }
    REPORTS = {
        "linear_xp": lambda k, plan: linear_xp_report([1.0, -2.0, 0.5], k, 4.0, plan),
        "schatten_xp": lambda k, plan: schatten_xp_report(
            [np.eye(2), np.diag([1.0, 3.0]), np.ones((2, 2))], k, 4.0, plan),
        "metric_xp": lambda k, plan: metric_xp_report(
            random_grid_function(4, 3, 1, 4.0, seed=1), k, plan),
        "reverse_metric_xp": lambda k, plan: reverse_metric_xp_report(
            random_grid_function(8, 3, 1, 4.0, seed=1), k, plan),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("report", sorted(REPORTS))
    def test_k_error_comes_before_any_work(self, monkeypatch, report, k, plan_name):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("gap_moment", "_sign_rows", "_half_period_sum"):
            monkeypatch.setattr(inequalities, name, counted(name, getattr(inequalities, name)))
        with pytest.raises(ValueError, match=f"^k={k} out of range for n=3$"):
            self.REPORTS[report](k, self.PLANS[plan_name])
        assert calls == []
        self.REPORTS[report](1, self.PLANS[plan_name])
        assert calls  # the counters see the work of a k in range


class TestSmoothness:
    def make_linear(self, n: int) -> HypercubeFunction:
        vals = np.empty((2,) * n + (1,))
        for eps in itertools.product((-1, 1), repeat=n):
            idx = tuple((e + 1) // 2 for e in eps)
            vals[idx] = float(eps[0])
        return HypercubeFunction(n, 1, vals)

    def test_enflo_first_coordinate_oracle(self):
        # [DERIVED] h = eps_1 on the square: antipode gap 2, one flip gap 2
        rep = smoothness_report(self.make_linear(2), Enflo(2.0))
        assert rep.lhs == pytest.approx(4.0)
        assert sum(rep.rhs_terms.values()) == pytest.approx(4.0)
        assert rep.implied_constant == pytest.approx(1.0)

    def test_bmw_scaling_of_enflo(self):
        h = self.make_linear(2)
        enflo = smoothness_report(h, Enflo(4.0))
        bmw = smoothness_report(h, BMW(2.0, 4.0))
        n, q, p = 2, 2.0, 4.0
        assert sum(bmw.rhs_terms.values()) == pytest.approx(
            n ** (p / q - 1) * sum(enflo.rhs_terms.values())
        )

    def test_pisier_positive(self):
        gen = np.random.default_rng(3)
        h = HypercubeFunction(3, 2, gen.standard_normal((2, 2, 2, 2)))
        rep = smoothness_report(h, Pisier(3.0))
        assert rep.lhs > 0 and sum(rep.rhs_terms.values()) > 0

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    def test_pisier_brute_force(self, p):
        # E_{eps,delta} ||sum_j delta_j (h(s^j eps) - h(eps))||_2^p
        n = 3
        gen = np.random.default_rng(7)
        h = HypercubeFunction(n, 2, gen.standard_normal((2,) * n + (2,)))
        terms = []
        for eps in itertools.product((-1, 1), repeat=n):
            for delta in itertools.product((-1, 1), repeat=n):
                v = np.zeros(2)
                for j in range(n):
                    flipped = tuple(-e if a == j else e for a, e in enumerate(eps))
                    v = v + delta[j] * (h(flipped) - h(eps))
                terms.append(math.sqrt(float(v @ v)) ** p)
        rad_diff = math.fsum(terms) / len(terms)
        rep = smoothness_report(h, Pisier(p))
        assert rep.rhs_terms["rad_diff"] == pytest.approx(rad_diff, rel=1e-12)

    def test_pisier_memory_is_bounded_by_the_block(self):
        # all 2^11 x 2^11 x 2 sign sums at once take 64 MiB; a chunk of the
        # kernel holds at most 2^15 of them
        h = HypercubeFunction(11, 2, np.random.default_rng(11).standard_normal((2,) * 11 + (2,)))
        tracemalloc.start()
        try:
            smoothness_report(h, Pisier(4.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4))
    def test_scalar_enflo_two_constant_at_most_one(self, seed, n):
        gen = np.random.default_rng(seed)
        h = HypercubeFunction(n, 1, gen.standard_normal((2,) * n + (1,)))
        rep = smoothness_report(h, Enflo(2.0))
        if not rep.degenerate:
            assert rep.implied_constant <= 1 + 1e-12


class TestCotype:
    def test_three_letter_brute_force(self):
        f = random_grid_function(4, 2, 1, 2.0, seed=21)
        rep = cotype_report(f, 2.0, "three-letter", plan_for(4, 2))
        m, M, n = 2, 4, 2
        lhs = 0.0
        for j in range(n):
            tot = 0.0
            for x in itertools.product(range(M), repeat=n):
                y = tuple((c + (m if a == j else 0)) % M for a, c in enumerate(x))
                tot += float((f(y) - f(x))[0] ** 2)
            lhs += tot / M**n
        lhs /= m**2
        rhs = 0.0
        for eps in itertools.product((-1, 0, 1), repeat=n):
            for x in itertools.product(range(M), repeat=n):
                y = tuple((c + e) % M for c, e in zip(x, eps))
                rhs += float((f(y) - f(x))[0] ** 2)
        rhs /= 3**n * M**n
        assert rep.lhs == pytest.approx(lhs)
        assert rep.rhs_terms["diag"] == pytest.approx(rhs)

    @pytest.mark.parametrize("budget", [64, 200])
    def test_rademacher_shifts_exact_once_the_budget_covers_the_torus(self, budget):
        # Z_8^2: each half-period shift has 64 terms, the diagonal 4 x 64
        f = random_grid_function(8, 2, 2, 3.0, seed=17)
        plan = make_sample_plan(8, 2, 0, budget, seed=5)
        assert plan.mode == "monte-carlo"
        rep = cotype_report(f, 1.5, "rademacher", plan)
        assert rep.lhs == cotype_report(f, 1.5, "rademacher", plan_for(8, 2)).lhs
        assert rep.rhs_terms["diag"] == gap_moment_estimate(f, Diagonal(), plan, power=1.5).value

    def test_rademacher_variant_modulus_check(self):
        with pytest.raises(ValueError):
            cotype_report(
                random_grid_function(4, 1, 1, 2.0, seed=0),
                2.0, "rademacher", plan_for(4, 1),
            )


class TestConvolutionProbe:
    def test_brute_force_agreement(self):
        # modulus 8: on Z_4 the smoothed diagonal is identically zero
        f = random_grid_function(8, 2, 1, 4.0, seed=31)
        rep = convolution_probe(f, 4.0)
        M, n, p = 8, 2, 4.0
        # independent edge term: plain sum over x and coordinates
        edge = 0.0
        for j in range(n):
            for x in itertools.product(range(M), repeat=n):
                y = tuple((c + (1 if a == j else 0)) % M for a, c in enumerate(x))
                edge += abs(float((f(y) - f(x))[0])) ** p
        assert rep.rhs_terms["edge"] == pytest.approx(edge)
        # independent rad term: E_j' averages f over x +- e_i for i != j
        def off_average(j, x):
            i = 1 - j
            up = tuple((c + (1 if a == i else 0)) % M for a, c in enumerate(x))
            down = tuple((c - (1 if a == i else 0)) % M for a, c in enumerate(x))
            return (float(f(up)[0]) + float(f(down)[0])) / 2

        def g(j, x):
            up = tuple((c + (1 if a == j else 0)) % M for a, c in enumerate(x))
            down = tuple((c - (1 if a == j else 0)) % M for a, c in enumerate(x))
            return off_average(j, up) - off_average(j, down)

        rad = math.fsum(
            abs(eps[0] * g(0, x) + eps[1] * g(1, x)) ** p
            for eps in itertools.product((-1, 1), repeat=n)
            for x in itertools.product(range(M), repeat=n)
        ) / 2**n
        assert rep.rhs_terms["rad"] == pytest.approx(rad, rel=1e-12)
        assert rep.lhs >= 0
        assert rep.extra["beta_lower_bound"] == pytest.approx(
            (rep.rhs_terms["rad"] + rep.rhs_terms["edge"]) / rep.lhs
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lhs_is_zero_on_z4(self, n):
        # x + eps and x - eps differ by 2 eps = -2 eps mod 4: E averages the
        # same points at both, in the same order along every axis
        for seed in range(5):
            f = random_grid_function(4, n, 1, 3.0, seed=seed)
            rep = convolution_probe(f, 3.0)
            assert rep.lhs == 0.0 and rep.rhs_terms["edge"] > 0
            assert rep.extra == {} and "Z_4" in rep.notes[0]

    def test_search_is_deterministic(self):
        a = convolution_search(8, 2, 4.0, trials=5, seed=9)
        b = convolution_search(8, 2, 4.0, trials=5, seed=9)
        assert a == b
        assert 0 <= a["argmin_trial"] < 5

    def test_scalar_only(self):
        with pytest.raises(ValueError):
            convolution_probe(random_grid_function(4, 1, 2, 4.0, seed=0), 4.0)


class TestScalingWitness:
    @pytest.mark.parametrize("m,n,k,p", [(2, 2, 1, 4.0), (3, 3, 2, 4.0), (2, 4, 3, 6.0)])
    def test_closed_forms(self, m, n, k, p):
        rep = scaling_witness_report(m, n, k, p)
        step = abs(np.exp(1j * math.pi / m) - 1.0)
        assert rep.extra["shifted_closed_form"] == pytest.approx((2 * math.sqrt(k)) ** p)
        assert rep.extra["edge_closed_form_per_coordinate"] == pytest.approx(step**p)
        assert rep.extra["diag_closed_form"] == pytest.approx(n ** (p / 2) * step**p)
        assert rep.lhs == pytest.approx((2 * math.sqrt(k)) ** p / m**p)

    def test_implied_constant_stabilizes_in_m(self):
        # the edge step approaches pi/m, so the ratio has an m-free limit
        a = scaling_witness_report(20, 2, 1, 4.0)
        b = scaling_witness_report(40, 2, 1, 4.0)
        assert a.implied_constant == pytest.approx(b.implied_constant, rel=1e-2)


class TestDisplacement:
    def test_brute_force_lhs(self):
        from xplab.operators import DS, box_average

        f = random_grid_function(8, 2, 1, 4.0, seed=41)
        rep = displacement_report(f, (1,), 3, 4.0)
        df = box_average(f, DS((1,), 3))
        lhs = float(np.sum(np.abs(f.values - df.values) ** 4))
        assert rep.lhs == pytest.approx(lhs)
        assert set(rep.rhs_terms) == {"diag", "set"}


class TestLoopReferences:
    """Sign sums and tables built from numpy primitives give the floats of
    the per-pattern and per-point loops, exactly."""

    # (8, 2) and (9, 3) and the probe at M = 8, n = 4 and M = 5, n = 5 hold more
    # than one block of sign sums, so the kernel takes its chunked path
    @pytest.mark.parametrize("n,d,p", [(1, 1, 2.0), (3, 2, 3.0), (5, 3, 4.5), (8, 2, 3.0),
                                       (9, 3, 4.0)])
    def test_pisier_rad_diff(self, n, d, p):
        h = HypercubeFunction(n, d, np.random.default_rng(n).standard_normal((2,) * n + (d,)))
        flips = [h.flip(j).values - h.values for j in range(1, n + 1)]
        parts = [inequalities._cube_mean_power(sum(e * v for e, v in zip(eps, flips)), p)
                 for eps in itertools.product((-1.0, 1.0), repeat=n)]
        rad_diff = smoothness_report(h, Pisier(p)).rhs_terms["rad_diff"]
        assert rad_diff == math.fsum(parts) / len(parts)

    @pytest.mark.parametrize("modulus,n,p", [(4, 1, 2.0), (8, 2, 4.0), (5, 3, 3.5), (8, 4, 3.0),
                                             (5, 5, 2.5)])
    def test_probe_rad(self, modulus, n, p):
        f = random_grid_function(modulus, n, 1, p, seed=n)
        gj = []
        for j in range(1, n + 1):
            ejf = inequalities.edge_average(f, inequalities.CalEj(j))
            e = tuple(1 if a == j - 1 else 0 for a in range(n))
            gj.append(ejf.shift(e).values - ejf.shift(tuple(-c for c in e)).values)
        parts = [float(_norm_power(sum(e * g for e, g in zip(eps, gj)), p, p, axis=None))
                 for eps in itertools.product((-1.0, 1.0), repeat=n)]
        assert convolution_probe(f, p).rhs_terms["rad"] == math.fsum(parts) / 2**n

    def test_chunked_kernel_sums_like_the_pattern_loop(self):
        # 600 sign rows against 16 items of 500 floats, more than one block: a
        # BLAS product rounds some of these sums differently from the loop
        items = np.random.default_rng(16).standard_normal((16, 500))
        rows = _pattern_rows((-1.0, 1.0), 16, np.random.default_rng(600), 600)
        seen = []

        def record(sums):
            seen.append(sums[0].copy())
            return np.zeros(sums.shape[:2])

        inequalities._signed_sum_means(items, [tuple(range(1, 17))], rows, record)
        loop = [sum(e * x for e, x in zip(eps, items)) for eps in rows]
        assert len(seen) > 1 and np.array_equal(np.concatenate(seen), loop)

    @pytest.mark.parametrize("block", [1, 700, 5000])
    def test_chunk_size_does_not_change_the_floats(self, monkeypatch, block):
        # 256 x 512 Pisier sums and 16 x 4096 probe sums take the chunked path
        # at every one of these blocks: 1, 1 and 9 rows of Pisier sums a chunk
        h = HypercubeFunction(8, 2, np.random.default_rng(8).standard_normal((2,) * 8 + (2,)))
        f = random_grid_function(8, 4, 1, 3.0, seed=4)
        whole = (smoothness_report(h, Pisier(3.0)).rhs_terms, convolution_probe(f, 3.0).rhs_terms)
        monkeypatch.setattr(lattice, "_BLOCK", block)
        assert (smoothness_report(h, Pisier(3.0)).rhs_terms,
                convolution_probe(f, 3.0).rhs_terms) == whole

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (2, 3)])
    def test_scaling_witness_table(self, m, n):
        with mock.patch.object(inequalities, "GridFunction", wraps=GridFunction) as built:
            scaling_witness_report(m, n, 1, 2.0)
        table = np.empty((2 * m,) * n + (2 * n,))
        for x in itertools.product(range(2 * m), repeat=n):
            angles = [math.pi * c / m for c in x]
            table[x] = [t for a in angles for t in (math.cos(a), math.sin(a))]
        assert np.array_equal(built.call_args.args[4], table)
