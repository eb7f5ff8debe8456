"""Spectral calculus, trace inequalities, matrix-valued moment reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab import lattice
from xplab.inequalities import linear_xp_report
from xplab.lattice import SamplePlan, make_sample_plan, subset_stream
from xplab.rng import stream
from xplab.schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    Qlt1,
    SymMatrix,
    _LAMBDA_GRID,
    _schatten_power,
    eigen_sym,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_norm,
    schatten_xp_report,
    trace_inequality_report,
    trace_mixed,
    trace_power,
)


class TestEigensolve:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 8))
    def test_spectral_decomposition(self, seed, d):
        g = np.random.default_rng(seed).standard_normal((d, d))
        a = (g + g.T) / 2
        m = SymMatrix.from_array(a)
        lam, vec = eigen_sym(a)
        assert np.array_equal(lam, m.eigenvalues)
        assert np.array_equal(vec, m.eigenvectors)
        # residual, orthonormality, descending order
        assert np.linalg.norm(a @ vec - vec * lam) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(vec.T @ vec, np.eye(d), atol=1e-12)
        assert np.all(np.diff(lam) <= 0)

    def test_descending_order(self):
        lam, _ = eigen_sym(np.diag([1.0, 3.0, -2.0]))
        assert lam.tolist() == [3.0, 1.0, -2.0]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        d=st.integers(1, 8),
        p=st.sampled_from([2.0, 3.0, 4.5, 6.0]),
        symmetric=st.booleans(),
    )
    def test_batched_power_matches_per_matrix(self, seed, d, p, symmetric):
        batch = np.random.default_rng(seed).standard_normal((5, d, d))
        if symmetric:
            batch = (batch + np.swapaxes(batch, 1, 2)) / 2
            ref = [np.sum(np.abs(eigen_sym(m)[0]) ** p) for m in batch]
        else:
            ref = [
                np.sum(np.clip(eigen_sym(m.T @ m)[0], 0.0, None) ** (p / 2))
                for m in batch
            ]
        got = _schatten_power(p, symmetric)(batch)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


class TestSymMatrix:
    def test_psd_detection(self):
        assert random_psd(4, 0).psd
        assert not SymMatrix.from_array(np.diag([1.0, -1.0])).psd

    def test_integer_power_of_indefinite(self):
        m = SymMatrix.from_array(np.diag([2.0, -3.0]))
        assert np.allclose(m.power(2), np.diag([4.0, 9.0]))

    def test_fractional_power_requires_psd(self):
        m = SymMatrix.from_array(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            m.power(0.5)

    def test_fractional_power_value(self):
        m = random_psd(3, 5)
        half = m.power(0.5)
        assert np.allclose(half @ half, m.entries, atol=1e-10)


class TestNorms:
    def test_schatten_two_is_frobenius(self):
        # [TRIVIAL] singular values of diag(3, 4)
        assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0)

    def test_non_symmetric_uses_singular_values(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert schatten_norm(a, 4.0) == pytest.approx(2.0)

    def test_sym_matrix_equals_its_entries(self):
        m = random_psd(4, 9, purpose="norm")
        for p in (1.0, 3.0, 4.5):
            assert schatten_norm(m, p) == schatten_norm(m.entries, p)
            assert schatten_norm(m, p) == pytest.approx(
                np.sum(np.abs(m.eigenvalues) ** p) ** (1 / p), rel=1e-12)

    def test_trace_mixed_oracle(self):
        a = SymMatrix.from_array(np.diag([1.0, 2.0]))
        b = SymMatrix.from_array(np.diag([3.0, 4.0]))
        assert trace_mixed(a, b, 2.0) == pytest.approx(1 * 3 + 4 * 4)
        assert trace_power(a, 3.0) == pytest.approx(9.0)


class TestSpectralPower:
    """``_eig_power`` behind ``trace_power``: the sum of the powered
    eigenvalues, against the trace of the matrix power it replaced."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("q", [0.5, 1.5, 2.7, 3.3])
    def test_fractional_trace_is_the_trace_of_the_power(self, d, q):
        for seed in range(5):
            m = random_psd(d, seed, purpose="eig-power")
            assert trace_power(m, q) == pytest.approx(np.trace(m.power(q)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("q", [0, 1, 2.0, 3, 4.0])
    def test_integral_trace_sums_the_integer_powers(self, q):
        for d in range(1, 9):
            m = random_psd(d, d, purpose="eig-power")
            assert trace_power(m, q) == float(np.sum(m.eigenvalues ** q))
            assert trace_power(m.entries, q) == trace_power(m, q)


class TestTraceInequalities:
    @pytest.mark.parametrize("kind", [
        MainQge1(2.7), Qlt1(0.5), LambdaFamily(2.5), LiebThirring(1.5),
    ])
    def test_holds_on_random_pairs(self, kind):
        for seed in range(25):
            a = random_psd(4, seed, purpose="t:a")
            b = random_psd(4, seed, purpose="t:b")
            rep = trace_inequality_report(a, b, kind)
            rhs = sum(rep.rhs_terms.values())
            assert rep.lhs <= rhs + 1e-8 * max(abs(rep.lhs), abs(rhs), 1.0)

    def test_op_convex_min_eigenvalue_nonnegative(self):
        for seed in range(25):
            a = random_psd(4, seed, purpose="t:a")
            b = random_psd(4, seed, purpose="t:b")
            rep = trace_inequality_report(a, b, OpConvex(1.5, 0.3))
            assert rep.lhs >= -1e-8 * max(1.0, abs(rep.extra["min_eigenvalue"]))

    def test_main_equality_when_b_zero(self):
        # [TRIVIAL] B = 0 makes both sides tr(A^{q+1})^{1/q}
        a = random_psd(3, 1)
        zero = SymMatrix.from_array(np.zeros((3, 3)))
        rep = trace_inequality_report(a, zero, MainQge1(2.0))
        assert rep.lhs == pytest.approx(rep.rhs_terms["pure"], rel=1e-12)
        assert rep.rhs_terms["mixed"] == pytest.approx(0.0, abs=1e-12)

    def test_lambda_family_closed_form_candidate(self):
        a = random_psd(3, 2, purpose="l:a")
        b = random_psd(3, 2, purpose="l:b")
        rep = trace_inequality_report(a, b, LambdaFamily(3.0))
        v, z, r = rep.extra["v"], rep.extra["z"], rep.extra["r"]
        lam = 1.0 / (1.0 + (z / v) ** (1.0 / (r + 1.0)))
        closed = v / lam**r + z / (1 - lam) ** r
        assert sum(rep.rhs_terms.values()) <= closed + 1e-12 * closed

    def test_holder_word(self):
        a = random_psd(3, 3, purpose="h:a")
        b = random_psd(3, 3, purpose="h:b")
        q = 2.0
        kind = Holder(q, a=(1.5, 1.5), b=(0.0,))
        rep = trace_inequality_report(a, b, kind)
        rhs = sum(rep.rhs_terms.values())
        assert rep.lhs <= rhs + 1e-8 * max(abs(rep.lhs), abs(rhs), 1.0)

    def test_holder_rejects_bad_word(self):
        a = random_psd(2, 0)
        with pytest.raises(ValueError):
            trace_inequality_report(a, a, Holder(2.0, a=(1.0,), b=(5.0,)))


class TestPsdCounterexample:
    @pytest.mark.parametrize("s", [0.5, 0.1, 0.01])
    def test_closed_form_q4(self, s):
        ce = psd_counterexample(s, 4.0, 2.0)
        target = -(s**6) - 3 * s**8 + s**10
        assert ce.quadratic_form == pytest.approx(target, rel=1e-12)

    def test_k_dependence(self):
        ce = psd_counterexample(0.1, 4.0, 10.0)
        target = -(0.1**6) - 3 * 0.1**8 + 9 * 0.1**10
        assert ce.quadratic_form == pytest.approx(target, rel=1e-12)

    def test_negative_min_eigenvalue_small_s(self):
        assert psd_counterexample(0.1, 4.0, 2.0).min_eigenvalue < 0

    def test_fractional_q_negative_form(self):
        for q in (0.5, 3.0):
            ce = psd_counterexample(0.01, q, 10.0)
            assert ce.quadratic_form < 0

    # (q, s, K, quadratic_form, min_eigenvalue) of the exact-rational branch,
    # recorded before it moved to numpy object arrays of Fractions
    PINNED = [
        (1, 0.05, 1, 0.0, 0.0),
        (1, 0.05, 2, 6.250000000000001e-06, 6.218943955486368e-06),
        (1, 0.3, 1, 0.0, 0.0),
        (1, 0.3, 2, 0.0081, 0.006904810515469956),
        (2, 0.05, 1, 0.0, -0.005003123049312599),
        (2, 0.05, 2, 1.5625000000000006e-08, 3.90620114379403e-11),
        (2, 0.3, 1, 0.0, -0.18396275858019495),
        (2, 0.3, 2, 0.0007289999999999998, 6.456816477849736e-05),
        (3, 0.05, 1, -1.5625000000000006e-08, -0.007539587989177605),
        (3, 0.05, 2, -1.5585937500000006e-08, -3.1407227298486246e-08),
        (3, 0.3, 1, -0.0007289999999999998, -0.3215527029050672),
        (3, 0.3, 2, -0.0006633899999999998, -0.001781038543109681),
        (5, 0.05, 1, -1.5820898437500005e-08, -0.01265813818664547),
        (5, 0.05, 2, -1.582089819335938e-08, -3.1962413849732224e-08),
        (5, 0.3, 1, -0.0010924793999999996, -0.685224103451277),
        (5, 0.3, 2, -0.0010919479589999997, -0.0035899045456735806),
        (8, 0.05, 1, -1.6059102581819157e-08, -0.02048044605132105),
        (8, 0.05, 2, -1.6059102581819154e-08, -3.269443740955627e-08),
        (8, 0.3, 1, -0.0017645100204140994, -1.5959188326317575),
        (8, 0.3, 2, -0.0017645096329936105, -0.015573604085084687),
    ]

    @pytest.mark.parametrize("q,s,big_k,form,min_eig", PINNED)
    def test_integer_q_is_pinned(self, q, s, big_k, form, min_eig):
        ce = psd_counterexample(s, q, big_k)
        assert (ce.quadratic_form, ce.min_eigenvalue) == (form, min_eig)


class TestMatrixReports:
    def test_d1_reduction_is_exact(self):
        gen = stream(0, "test:d1")
        a = gen.standard_normal(3)
        mats = [np.array([[v]]) for v in a]
        for plan in (
            make_sample_plan(1, 3, 2, budget=10**6, seed=4),
            SamplePlan("monte-carlo", 500, seed=4, subset_mode="sampled",
                       subset_count=8),
        ):
            lin = linear_xp_report(a, 2, 4.0, plan)
            sch = schatten_xp_report(mats, 2, 4.0, plan)
            assert sch.lhs == lin.lhs
            assert sch.rhs_terms == lin.rhs_terms

    def test_khinchine_diagonal_reduction(self):
        gen = stream(1, "test:diag")
        diags = gen.standard_normal((3, 4))
        mats = [np.diag(row) for row in diags]
        plan = make_sample_plan(1, 3, 1, budget=10**6, seed=0)
        rep = khinchine_report(mats, 4.0, plan)
        # coordinatewise scalar oracle
        import itertools

        lhs = np.mean([
            np.sum(np.abs(sum(e * row for e, row in zip(eps, diags))) ** 4)
            for eps in itertools.product((-1, 1), repeat=3)
        ])
        rhs = 2 * np.sum(np.sum(diags**2, axis=0) ** 2)
        assert rep.lhs == pytest.approx(float(lhs), abs=1e-10)
        assert sum(rep.rhs_terms.values()) == pytest.approx(float(rhs), abs=1e-10)

    def test_psd_xp_full_subset_trivial(self):
        # [TRIVIAL] k = n: the subset average IS the full-sum term
        mats = [random_psd(3, s, purpose="p:xp").entries for s in range(3)]
        rep = psd_xp_report(mats, 3, 2.5)
        assert rep.lhs <= max(rep.extra["sum_term"], rep.extra["full_term"]) * (
            1 + 1e-12
        ) or rep.implied_constant <= 1 + 1e-12
        assert rep.lhs == pytest.approx(rep.extra["full_term"], rel=1e-12)


def _psd_xp_lhs(mats, k, q, plan):
    """The per-subset subset average: one ``SymMatrix.from_array`` of the
    Python ``sum`` of each drawn subset's matrices."""
    syms = [SymMatrix.from_array(m) for m in mats]
    subsets = list(subset_stream(len(mats), k, plan))
    value = {S: trace_power(SymMatrix.from_array(sum(syms[j - 1].entries for j in S)), q)
             for S in set(subsets)}
    return math.fsum(value[S] for S in subsets) / len(subsets)


def _lambda_min(v, z, r):
    """The scalar minimum over the whole grid plus the closed-form point."""
    lams = list(_LAMBDA_GRID)
    if r > 0 and v > 0 and z > 0:
        lams.append(1.0 / (1.0 + (z / v) ** (1.0 / (r + 1.0))))
    return min(v / lam**r + z / (1.0 - lam) ** r for lam in lams)


EXHAUSTIVE = SamplePlan("exhaustive", 10**6, 0)
SAMPLED = SamplePlan("monte-carlo", 500, seed=4, subset_mode="sampled", subset_count=40)


class TestBatchedSpectraAreExact:
    """The batched eigensolves and the vector λ pass give the bits of the
    per-matrix and scalar code they replace."""

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 1.5, 2.7])
    @pytest.mark.parametrize("k", [1, 4, 8, 9])
    def test_psd_xp_matches_per_subset_sums(self, d, q, k):
        # k >= 8 at d = 1 would show numpy's pairwise summation of a reduce
        mats = [random_psd(d, 10 * d + k, purpose=f"exact:{j}").entries for j in range(9)]
        rep = psd_xp_report(mats, k, q)
        assert rep.lhs == _psd_xp_lhs(mats, k, q, EXHAUSTIVE)

    @pytest.mark.parametrize("q", [2.0, 3.0, 2.7])
    def test_psd_xp_sampled_plan_matches_per_subset_sums(self, q):
        mats = [random_psd(3, 5, purpose=f"sampled:{j}").entries for j in range(9)]
        rep = psd_xp_report(mats, 4, q, SAMPLED)
        assert rep.lhs == _psd_xp_lhs(mats, 4, q, SAMPLED)

    @pytest.mark.parametrize("plan", [None, SAMPLED], ids=["exhaustive", "sampled"])
    def test_psd_xp_does_not_depend_on_the_block(self, monkeypatch, plan):
        mats = [random_psd(4, 6, purpose=f"block:{j}").entries for j in range(8)]
        whole = [psd_xp_report(mats, 3, q, plan).to_json_dict() for q in (3.0, 2.3)]
        monkeypatch.setattr(lattice, "_BLOCK", 1)  # one subset per eigh
        assert [psd_xp_report(mats, 3, q, plan).to_json_dict() for q in (3.0, 2.3)] == whole

    @pytest.mark.parametrize("q", [1.0, 1.3, 1.9, 2.0, 2.0 + 1e-12, 2.0 + 1e-9,
                                   2.000001, 2.01, 2.5, 3.3, 4.5, 7.0])
    def test_lambda_family_matches_the_scalar_minimum(self, q):
        for seed in range(24):
            d = 1 + seed % 6
            a = random_psd(d, seed, purpose="exact:a")
            b = random_psd(d, seed, purpose="exact:b")
            rep = trace_inequality_report(a, b, LambdaFamily(q))
            v, z, r = rep.extra["v"], rep.extra["z"], rep.extra["r"]
            assert rep.rhs_terms["min_over_lambda"] == _lambda_min(v, z, r)

    @pytest.mark.parametrize("q", [2.5, 3.0])
    def test_lambda_family_on_orthogonal_ranges(self, q):
        # rank-1 projections with orthogonal ranges: z = tr(B^{q-1} A) is
        # roundoff of either sign, and with a small A the minimum is negative
        pairs = [(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5], [-0.5, 0.5]]))]
        for theta in np.linspace(0.01, 3.1, 40):
            u = np.array([np.cos(theta), np.sin(theta)])
            w = np.array([-u[1], u[0]])
            pairs += [(s * np.outer(u, u), np.outer(w, w)) for s in (1.0, 1e-4, 1e-8, 1e-12)]
        minima = []
        for a, b in pairs:
            rep = trace_inequality_report(a, b, LambdaFamily(q))
            v, z, r = rep.extra["v"], rep.extra["z"], rep.extra["r"]
            minima.append(rep.rhs_terms["min_over_lambda"])
            assert minima[-1] == _lambda_min(v, z, r)
        assert min(minima) < 0

    @pytest.mark.parametrize("q", [2.5, 3.0, 3.647968, 4.2])
    def test_lambda_family_when_the_closed_form_point_rounds_to_one(self, q):
        # A = u u^T and a tiny B = 1e-12 w w^T with w orthogonal to u: z is
        # roundoff far below v, so λ* rounds to 1.0 for about half the angles
        # and only the points inside (0, 1) enter the minimum
        rounded = 0
        for theta in np.linspace(0.01, 3.1, 60):
            u = np.array([np.cos(theta), np.sin(theta)])
            w = np.array([-u[1], u[0]])
            rep = trace_inequality_report(np.outer(u, u), 1e-12 * np.outer(w, w),
                                          LambdaFamily(q))
            v, z, r = rep.extra["v"], rep.extra["z"], rep.extra["r"]
            lams = list(_LAMBDA_GRID)
            if r > 0 and v > 0 and z > 0:
                lam_star = 1.0 / (1.0 + (z / v) ** (1.0 / (r + 1.0)))
                if 0.0 < lam_star < 1.0:
                    lams.append(lam_star)
                else:
                    rounded += 1
            assert rep.rhs_terms["min_over_lambda"] == min(
                v / lam**r + z / (1.0 - lam) ** r for lam in lams)
        assert rounded > 0
