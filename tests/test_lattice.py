"""Lattice primitives: points, displacement moments, plans, geodesics."""

import collections
import inspect
import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab.lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GridFunction,
    LatticePoint,
    SamplePlan,
    ShiftedSet,
    SymmetricDiagonal,
    ThreeLetterDiagonal,
    gap_moment,
    gap_moment_estimate,
    geodesic,
    make_sample_plan,
    random_grid_function,
    subset_stream,
)
from xplab import lattice
from xplab.inequalities import metric_xp_report
from xplab.lattice import _law, _pattern_rows, _spec_tag
from xplab.rng import stream


ALL_SPECS = (
    Edge(1),
    Diagonal(),
    SymmetricDiagonal(),
    ThreeLetterDiagonal(),
    ShiftedSet((1, 2), 1),
    FixedShift((4, 0)),
)


def indicator(modulus: int, n: int, p: float) -> GridFunction:
    vals = np.zeros((modulus,) * n + (1,))
    vals[(0,) * n + (0,)] = 1.0
    return GridFunction(modulus, n, 1, p, vals)


def exhaustive_plan(modulus: int, n: int, k: int = 1) -> SamplePlan:
    return make_sample_plan(modulus, n, k, budget=10**7, seed=0)


# value dimensions of the Monte-Carlo reference checks; d = 2 keeps the case's
# own id.  The references sum each difference over a last axis of d floats,
# which numpy may add pairwise from d = 8 on, while the kernel adds its value
# axis in order: below 8 the two agree bit for bit, from 8 on to 1e-15.
VALUE_DIMS = (2, 1, 3, 7, 8, 12)


def over_value_dims(cases: list, ids: list[str]) -> list:
    return [pytest.param(*case, d, id=name if d == 2 else f"{name}-d={d}")
            for d in VALUE_DIMS for case, name in zip(cases, ids)]


def assert_pinned(got: tuple[float, ...], want: tuple[float, ...], d: int) -> None:
    if d < 8:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


class TestLatticePoint:
    def test_canonical_residues(self):
        assert LatticePoint((-1, 9), 8).coords == (7, 1)

    def test_symmetric_representative(self):
        assert LatticePoint((7, 3), 8).symmetric() == (-1, 3)

    def test_addition_wraps(self):
        assert (LatticePoint((7, 0), 8) + (2, -1)).coords == (1, 7)


class TestGapMoment:
    def test_edge_indicator_oracle(self):
        # [DERIVED] two of four x positions see a unit difference
        f = indicator(4, 1, 2.0)
        assert gap_moment(f, Edge(1), exhaustive_plan(4, 1)) == pytest.approx(0.5)

    def test_shifted_set_indicator_oracle(self):
        f = indicator(4, 1, 2.0)
        val = gap_moment(f, ShiftedSet((1,), 2), exhaustive_plan(4, 1))
        assert val == pytest.approx(0.5)

    def test_power_override(self):
        f = random_grid_function(4, 1, 2, 2.0, seed=1)
        plan = exhaustive_plan(4, 1)
        v2 = gap_moment(f, Edge(1), plan)
        v4 = gap_moment(f, Edge(1), plan, power=4.0)
        diffs = [
            np.linalg.norm(f((x + 1,)) - f((x,))) for x in range(4)
        ]
        assert v2 == pytest.approx(np.mean([d**2 for d in diffs]))
        assert v4 == pytest.approx(np.mean([d**4 for d in diffs]))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        shift=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
    )
    def test_translation_invariance(self, seed, shift):
        f = random_grid_function(8, 2, 1, 4.0, seed=seed)
        g = f.shift(shift)
        plan = exhaustive_plan(8, 2)
        for spec in ALL_SPECS:
            assert gap_moment(f, spec, plan) == pytest.approx(
                gap_moment(g, spec, plan), abs=1e-12
            )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
    def test_monte_carlo_has_stderr(self, spec):
        f = random_grid_function(8, 2, 1, 4.0, seed=5)
        plan = SamplePlan("monte-carlo", 5000, seed=5)
        est = gap_moment_estimate(f, spec, plan)
        assert est.mode == "monte-carlo"
        assert est.count == 5000
        assert est.stderr > 0
        exact = gap_moment(f, spec, exhaustive_plan(8, 2))
        assert abs(est.value - exact) < 6 * est.stderr

    @pytest.mark.parametrize("modulus,n,spec,delta,power,d", over_value_dims([
        (6, 3, Edge(2), lambda eps: np.array([0, 1, 0]), 3.0),
        (6, 3, Diagonal(), lambda eps: eps, 3.0),
        (6, 3, SymmetricDiagonal(), lambda eps: eps, 3.0),
        (6, 3, ShiftedSet((1, 3), 2), lambda eps: eps * np.array([2, 0, 2]), 3.0),
        (6, 3, FixedShift((3, 0, -1)), lambda eps: np.array([3, 0, -1]), 3.0),
        (6, 3, FixedShift((3, 0, -1)), lambda eps: np.array([3, 0, -1]), 2.0),
        (5, 1, Diagonal(), lambda eps: eps, 3.0),
        (7, 3, SymmetricDiagonal(), lambda eps: eps, 3.0),
        (4, 2, ShiftedSet((2,), 9), lambda eps: eps * np.array([0, 9]), 3.0),
        (4, 2, ShiftedSet((1, 2), -4), lambda eps: eps * -4, 3.0),
    ], ["Edge", "Diagonal", "SymmetricDiagonal", "ShiftedSet", "FixedShift",
        "FixedShift-power=2", "n=1", "odd-M", "ShiftedSet-t>M", "ShiftedSet-t=-M"]))
    def test_monte_carlo_stream_is_pinned(self, modulus, n, spec, delta, power, d):
        # the draws of the spec's stream: x first, then +-1 over all n
        # coordinates, which a spec without random signs leaves unused; the
        # reference gathers with a tuple of n index arrays, value axis last
        f = random_grid_function(modulus, n, d, 3.0, seed=4)
        plan = SamplePlan("monte-carlo", 999, seed=8)
        gen = stream(8, "gap:" + _spec_tag(spec))
        x = gen.integers(0, modulus, size=(999, n))
        eps = gen.integers(0, 2, size=(999, n)) * 2 - 1
        shift = delta(eps)
        right = -shift if isinstance(spec, SymmetricDiagonal) else 0 * shift
        diff = (f.values[tuple(((x + shift) % modulus).T)]
                - f.values[tuple(((x + right) % modulus).T)])
        samples = np.sum(np.abs(diff) ** 3.0, axis=-1)
        if power != 3.0:
            samples = (samples ** (1.0 / 3.0)) ** power
        est = gap_moment_estimate(f, spec, plan, power=power)
        assert_pinned((est.value, est.stderr),
                      (float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(999))),
                      d)


class TestCoveredTerms:
    """Under a Monte-Carlo plan ``gap_moment`` sums a law exactly once its
    sign patterns times M^n points fit the budget; ``gap_moment_estimate``
    follows its plan literally."""

    SPECS = (Edge(2), FixedShift((2, 0, 0)), ShiftedSet((1, 3), 1), Diagonal(),
             SymmetricDiagonal(), ThreeLetterDiagonal())

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_exact_from_the_covering_budget(self, spec):
        f = random_grid_function(4, 3, 2, 3.0, seed=12)
        v, letters, _ = _law(spec, 3)
        terms = len(letters) ** int(np.count_nonzero(v)) * 4**3
        exact = gap_moment(f, spec, exhaustive_plan(4, 3))
        covering = SamplePlan("monte-carlo", terms, seed=6)
        assert gap_moment(f, spec, covering) == exact
        short = SamplePlan("monte-carlo", terms - 1, seed=6)
        sampled = gap_moment_estimate(f, spec, short).value
        assert gap_moment(f, spec, short) == sampled != exact
        est = gap_moment_estimate(f, spec, covering)
        assert (est.mode, est.count) == ("monte-carlo", terms)

    @pytest.mark.parametrize("n,spec", [(50, ThreeLetterDiagonal()), (50, Diagonal()),
                                        (60, ShiftedSet((1, 60), 3)), (63, Edge(2))])
    @pytest.mark.parametrize("budget", [2**62, 2**63 - 1, 10**30])
    def test_decision_is_the_exact_integer_rule(self, monkeypatch, n, spec, budget):
        # on Z_1^n every power of M is 1; 3^50 wraps in int64 arithmetic
        f = GridFunction(1, n, 1, 2.0, np.zeros((1,) * n + (1,)))
        modes = []
        monkeypatch.setattr(lattice, "gap_moment_estimate", lambda f, spec, plan, power:
                            modes.append(plan.mode) or lattice.GapEstimate(0.0, 0.0, 1, plan.mode))
        gap_moment(f, spec, SamplePlan("monte-carlo", budget, seed=0))
        v, letters, _ = _law(spec, n)
        terms = len(letters) ** int(np.count_nonzero(v))
        assert modes == ["exhaustive" if terms <= budget else "monte-carlo"]


class TestOneLetterGather:
    """A one-letter law under a Monte-Carlo plan takes the one gather at any
    budget, above or below the torus size: it rolls no table, and its samples
    and their statistics are those of the law's x drawn pair by pair."""

    @staticmethod
    def direct_gather(f: GridFunction, v: tuple[int, ...], power: float, budget: int,
                      tag: str) -> tuple[float, float]:
        # the draws of the spec's stream (x only) gathered pair by pair, value
        # axis last
        gen = stream(9, "gap:" + tag)
        x = gen.integers(0, f.modulus, size=(budget, f.dimension))
        diff = (f.values[tuple(((x + np.asarray(v)) % f.modulus).T)]
                - f.values[tuple(x.T)])
        samples = np.sum(np.abs(diff) ** f.value_p, axis=-1)
        if power != f.value_p:
            samples = (samples ** (1.0 / f.value_p)) ** power
        return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(budget))

    @pytest.mark.parametrize("spec,v,d", over_value_dims(
        [(Edge(2), (0, 1, 0)), (FixedShift((2, 0, -1)), (2, 0, -1))], ["Edge", "FixedShift"]))
    @pytest.mark.parametrize("power", [3.0, 2.0], ids=["power=value_p", "power=2"])
    @pytest.mark.parametrize("budget", [4**3 - 1, 4**3, 4 * 4**3],
                             ids=["below-points", "points", "4x-points"])
    def test_equals_direct_gather(self, monkeypatch, spec, v, d, power, budget):
        f = random_grid_function(4, 3, d, 3.0, seed=6)
        counted = mock.Mock(wraps=np.roll)
        monkeypatch.setattr(np, "roll", counted)
        est = gap_moment_estimate(f, spec, SamplePlan("monte-carlo", budget, seed=9),
                                  power=power)
        assert counted.call_count == 0
        assert est.count == budget
        assert_pinned((est.value, est.stderr),
                      self.direct_gather(f, v, power, budget, _spec_tag(spec)), d)


class TestBlockedGather:
    """A Monte-Carlo plan fills its samples block by block: the gather draws
    x whole as int32 and the signs per block after it.  Every estimate is the
    same at any block size."""

    @pytest.mark.parametrize("spec,modulus", [
        (FixedShift((2, 0, -1)), 5), (Edge(2), 11),
        (Diagonal(), 11), (ThreeLetterDiagonal(), 11), (SymmetricDiagonal(), 11),
    ], ids=["FixedShift", "Edge", "Diagonal", "ThreeLetterDiagonal", "SymmetricDiagonal"])
    def test_estimate_does_not_depend_on_the_block(self, monkeypatch, spec, modulus):
        # n = 3 signs per sample: a block of one sample ends in the middle of a
        # 64-bit word of the stream
        f = random_grid_function(modulus, 3, 2, 3.0, seed=2)
        plan = SamplePlan("monte-carlo", 999, seed=4)
        want = gap_moment_estimate(f, spec, plan)
        for block in (1, 7 * (3 + 2), 100 * (3 + 2) + 1):
            monkeypatch.setattr(lattice, "_BLOCK", block)
            assert gap_moment_estimate(f, spec, plan) == want, block

    @pytest.mark.parametrize("modulus", [2, 3, 16, 17, 1000])
    def test_int32_draws_are_the_int64_draws(self, modulus):
        # numpy draws both dtypes below 2**32 from the same 32-bit words; an
        # odd count leaves half a 64-bit word buffered in the stream
        narrow, wide = stream(3, "draws"), stream(3, "draws")
        x = narrow.integers(0, modulus, size=(999, 3), dtype=np.int32)
        assert x.dtype == np.int32
        assert np.array_equal(x, wide.integers(0, modulus, size=(999, 3)))
        assert self.position(narrow) == self.position(wide)

    @staticmethod
    def position(gen: np.random.Generator) -> tuple:
        state = gen.bit_generator.state
        return (state["state"]["counter"].tolist(), state["buffer"].tolist(),
                state["buffer_pos"], state["has_uint32"], state["uinteger"])

    @pytest.mark.parametrize("spec", [FixedShift((8, 0, 0, 0)), Diagonal(), SymmetricDiagonal()],
                             ids=lambda s: type(s).__name__)
    def test_memory_is_x_and_the_samples(self, spec):
        # 4e5 samples on Z_16^4: the samples and np.std's deviations take
        # 3.2 MB each, the gather's int32 x 6.4 MB, a block under 1 MB; whole
        # int64 draws and gathers took 20.8, 41.6 and 54.4 MB
        f = random_grid_function(16, 4, 2, 4.0, seed=3)
        plan = SamplePlan("monte-carlo", 400_000, seed=1)
        tracemalloc.start()
        try:
            gap_moment_estimate(f, spec, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def per_pattern_reference(f: GridFunction, spec, power: float) -> tuple[float, int]:
    """Exhaustive gap moment with one roll per sign pattern, value axis last."""
    n, M, values = f.dimension, f.modulus, f.values
    v, letters, mirror = _law(spec, n)
    support = np.flatnonzero(v)
    axes = tuple(range(n))
    partials = []
    for eps in itertools.product(letters, repeat=len(support)):
        delta = np.zeros(n, dtype=np.int64)
        delta[support] = np.asarray(eps) * v[support]
        left = np.roll(values, tuple(-delta), axis=axes)
        right = np.roll(values, tuple(delta), axis=axes) if mirror else values
        terms = np.sum(np.abs(left - right) ** f.value_p, axis=-1)
        if power != f.value_p:
            terms = (terms ** (1.0 / f.value_p)) ** power
        partials.append(float(np.sum(terms)))
    count = len(partials) * M**n
    return math.fsum(partials) / count, count


def torus_specs(modulus: int, n: int) -> tuple:
    return (Edge(1), Diagonal(), SymmetricDiagonal(), ThreeLetterDiagonal(),
            ShiftedSet((1, 2), modulus // 2), ShiftedSet((2,), 1),
            FixedShift((3, -1) + (0,) * (n - 2)))


class TestExhaustiveDedup:
    """Each distinct displacement mod M costs at most one pass over the table;
    -delta reuses the per-point norms of delta, rolled, under every law, and a
    zero displacement costs none.  The result is unchanged bit for bit."""

    @pytest.mark.parametrize("modulus", [2, 4, 8, 16])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("power", [3.0, 2.0], ids=["power=value_p", "power=2"])
    def test_equals_per_pattern_loop(self, modulus, d, power):
        n = 3 if modulus <= 8 else 2
        f = random_grid_function(modulus, n, d, 3.0, seed=modulus + d)
        plan = exhaustive_plan(modulus, n)
        for spec in torus_specs(modulus, n):
            est = gap_moment_estimate(f, spec, plan, power=power)
            assert (est.value, est.count) == per_pattern_reference(f, spec, power), spec

    @pytest.mark.parametrize("modulus", [3, 5, 6, 12])
    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("power", [3.0, 2.0, 1.5],
                             ids=["power=value_p", "power=2", "power=1.5"])
    def test_equals_per_pattern_loop_other_moduli(self, modulus, d, power):
        # at odd M no displacement is its own partner; t = M and v = 0 are zero
        n = 3 if modulus <= 6 else 2
        f = random_grid_function(modulus, n, d, 3.0, seed=modulus + d)
        plan = exhaustive_plan(modulus, n)
        zero_specs = (ShiftedSet((1,), modulus), FixedShift((0,) * n))
        for spec in torus_specs(modulus, n) + zero_specs:
            est = gap_moment_estimate(f, spec, plan, power=power)
            assert (est.value, est.count) == per_pattern_reference(f, spec, power), spec

    @pytest.mark.parametrize("power", [0.0, -1.0])
    def test_zero_displacement_at_power_zero_and_below(self, power):
        # the norm of a zero difference is 1 or inf there, not 0
        f = random_grid_function(4, 2, 2, 3.0, seed=1)
        with np.errstate(divide="ignore"):
            for spec in (FixedShift((0, 0)), ThreeLetterDiagonal()):
                est = gap_moment_estimate(f, spec, exhaustive_plan(4, 2), power=power)
                assert (est.value, est.count) == per_pattern_reference(f, spec, power), spec

    @pytest.mark.parametrize("d", [8, 9])
    def test_long_value_axis_within_rounding(self, d):
        # numpy sums an axis of 8 or more pairwise when it is last, and
        # sequentially when it is first
        f = random_grid_function(4, 2, d, 3.0, seed=d)
        plan = exhaustive_plan(4, 2)
        for spec in torus_specs(4, 2):
            for power in (3.0, 2.0):
                est = gap_moment_estimate(f, spec, plan, power=power)
                value, count = per_pattern_reference(f, spec, power)
                assert est.count == count
                assert est.value == pytest.approx(value, rel=1e-14, abs=0.0)

    @staticmethod
    def count_rolls(monkeypatch) -> mock.Mock:
        rolls = mock.Mock(wraps=np.roll)
        monkeypatch.setattr(np, "roll", rolls)
        return rolls

    def test_metric_xp_rolls(self, monkeypatch):
        # lhs: the 4 sign patterns of 8 eps_S coincide mod 16, so 6 subsets
        # cost 6 rolls, not 24; edges 4; diagonal 16
        f = random_grid_function(16, 4, 1, 3.0, seed=0)
        rolls = self.count_rolls(monkeypatch)
        metric_xp_report(f, 2, exhaustive_plan(16, 4, 2))
        assert rolls.call_count == 26

    def test_symmetric_diagonal_rolls(self, monkeypatch):
        # eps and -eps give one displacement: 8 pairs, two rolls each
        f = random_grid_function(4, 4, 2, 3.0, seed=0)
        rolls = self.count_rolls(monkeypatch)
        est = gap_moment_estimate(f, SymmetricDiagonal(), exhaustive_plan(4, 4))
        assert rolls.call_count == 16
        assert est.count == 2**4 * 4**4

    @pytest.mark.parametrize("modulus,n,report,table_rolls", [
        # lhs 6 subsets, edges 4, diagonal 16 displacements in 8 pairs
        (16, 4, lambda f, plan: metric_xp_report(f, 2, plan), 18),
        # 27 patterns: the zero one is free, the other 26 form 13 pairs
        (16, 3, lambda f, plan: gap_moment_estimate(f, ThreeLetterDiagonal(), plan), 13),
        # the mirror law already folds eps and -eps: 8 pairs, two rolls each
        (4, 4, lambda f, plan: gap_moment_estimate(f, SymmetricDiagonal(), plan), 16),
    ], ids=["metric-xp", "three-letter", "symmetric-diagonal"])
    def test_full_table_rolls(self, monkeypatch, modulus, n, report, table_rolls):
        f = random_grid_function(modulus, n, 1, 3.0, seed=0)
        rolls = self.count_rolls(monkeypatch)
        report(f, exhaustive_plan(modulus, n, 2))
        # the (d, M**n) table has one axis more than the per-point norms
        assert sum(c.args[0].ndim == n + 1 for c in rolls.call_args_list) == table_rolls


@pytest.mark.parametrize("letters,n", [pytest.param((-1, 1), n, id=str(n)) for n in range(1, 8)] + [
    pytest.param(np.arange(300), 2, id="300-letters"),
    pytest.param(np.arange(5.0), 1, id="one-column"), pytest.param(np.arange(3.0), 0, id="no-column"),
])
def test_pattern_rows_are_the_product_rows_in_c_order(letters, n):
    # rows of an odd r split into unequal halves; r = 0 gives one empty row
    rows = _pattern_rows(letters, n)
    reference = np.array(list(itertools.product(letters, repeat=n)))
    assert rows.dtype == np.asarray(letters).dtype and np.array_equal(rows, reference)
    assert rows.flags.c_contiguous and not np.shares_memory(rows, letters)


class TestGridFunction:
    def test_shift_semantics(self):
        f = random_grid_function(6, 2, 1, 2.0, seed=9)
        g = f.shift((1, 2))
        assert np.allclose(g((0, 0)), f((1, 2)))

    def test_json_round_trip_exact(self):
        f = random_grid_function(6, 2, 3, 3.0, seed=2)
        g = GridFunction.from_json_dict(f.to_json_dict())
        assert (g.values == f.values).all()
        assert (g.modulus, g.dimension, g.value_dim, g.value_p) == (
            f.modulus, f.dimension, f.value_dim, f.value_p,
        )

    def test_values_immutable(self):
        f = random_grid_function(4, 1, 1, 2.0, seed=0)
        with pytest.raises(ValueError):
            f.values[0] = 0.0

    def test_derived_functions_build_their_own_table(self):
        f = random_grid_function(6, 2, 3, 3.0, seed=4)
        plan = exhaustive_plan(6, 2)
        gap_moment_estimate(f, Diagonal(), plan)
        assert "value_first" in vars(f)
        derived = (f.shift((1, 4)), f.with_values(-2.0 * f.values[::-1]),
                   GridFunction.from_json_dict(f.to_json_dict()))
        for g in derived:
            for spec in torus_specs(6, 2):
                est = gap_moment_estimate(g, spec, plan)
                assert (est.value, est.count) == per_pattern_reference(g, spec, 3.0), spec
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 0.0
        assert not f.value_first.flags.writeable
        assert f == replace(f)


class TestSamplePlan:
    def test_exhaustive_when_affordable(self):
        plan = make_sample_plan(4, 2, 1, budget=4**2 * 2**2, seed=0)
        assert plan.mode == "exhaustive"

    def test_monte_carlo_when_large(self):
        plan = make_sample_plan(16, 8, 4, budget=10**5, seed=0)
        assert plan.mode == "monte-carlo"

    def test_three_letters_charged_three_to_the_n(self):
        # 2^8 * 2^8 = 65536 fits the budget; the three-letter 2^8 * 3^8 does not
        assert make_sample_plan(2, 8, 1, budget=65536, seed=0).mode == "exhaustive"
        plan = make_sample_plan(2, 8, 1, budget=65536, seed=0, letters=3)
        assert plan.mode == "monte-carlo"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan("adaptive", 10, 0)

    @pytest.mark.parametrize("n,k,budget", [
        (10**6, 5 * 10**5, 100),  # n itself passes the budget
        (1000, 500, 10**6),  # 2^500 passes the budget
    ], ids=["n-over-budget", "two-to-the-j-over-budget"])
    def test_huge_binomial_is_never_formed(self, n, k, budget):
        with mock.patch("xplab.lattice.math.comb", side_effect=AssertionError("comb called")):
            plan = make_sample_plan(1, n, k, budget, 7)
        assert (plan.mode, plan.subset_mode) == ("monte-carlo", "sampled")


class TestSubsetStream:
    def test_exhaustive_is_lexicographic(self):
        plan = make_sample_plan(2, 4, 2, budget=10**6, seed=0)
        subs = list(subset_stream(4, 2, plan))
        assert subs == [tuple(s) for s in itertools.combinations(range(1, 5), 2)]

    def test_sampled_is_deterministic(self):
        plan = SamplePlan("monte-carlo", 100, seed=3, subset_mode="sampled",
                          subset_count=50)
        a = list(subset_stream(10, 3, plan))
        b = list(subset_stream(10, 3, plan))
        assert a == b
        assert all(len(s) == 3 for s in a)

    @pytest.mark.parametrize("n,k", [(5, 1), (6, 3), (4, 4)])
    def test_exhaustive_is_every_combination(self, n, k):
        plan = SamplePlan("exhaustive", 10**6, seed=0)
        assert list(subset_stream(n, k, plan)) == list(
            itertools.combinations(range(1, n + 1), k))

    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (7, 3), (6, 6), (40, 3)])
    def test_sampled_rows_are_sorted_distinct_in_range(self, n, k):
        plan = SamplePlan("monte-carlo", 500, seed=4, subset_mode="sampled",
                          subset_count=300)
        draws = list(subset_stream(n, k, plan))
        assert len(draws) == 300
        for S in draws:
            assert type(S) is tuple and all(type(j) is int for j in S)
            assert list(S) == sorted(set(S)) and len(S) == k
            assert 1 <= S[0] and S[-1] <= n

    def test_sampled_count_defaults_to_budget(self):
        plan = SamplePlan("monte-carlo", 70, seed=4, subset_mode="sampled")
        assert len(list(subset_stream(8, 3, plan))) == 70

    @pytest.mark.parametrize("rows", [1, 3])
    def test_sampled_independent_of_row_block(self, monkeypatch, rows):
        # 1-row and 3-row blocks of 9 doubles; 100 rows leave a 1-row last block
        plan = SamplePlan("monte-carlo", 500, seed=8, subset_mode="sampled",
                          subset_count=100)
        whole = list(subset_stream(9, 4, plan))
        monkeypatch.setattr(lattice, "_BLOCK", rows * 9)
        assert list(subset_stream(9, 4, plan)) == whole

    def test_sampled_subsets_are_uniform(self):
        # chi-square over the C(5, 2) = 10 subsets; 27.88 is the 0.999
        # quantile of chi-square with 9 degrees of freedom
        draws = 20_000
        plan = SamplePlan("monte-carlo", draws, seed=12, subset_mode="sampled",
                          subset_count=draws)
        counts = collections.Counter(subset_stream(5, 2, plan))
        assert sorted(counts) == list(itertools.combinations(range(1, 6), 2))
        expected = draws / 10
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 27.88

    def test_is_a_generator_function(self):
        # benchmarks/tracer.py times each step of the stream as its own span
        assert inspect.isgeneratorfunction(subset_stream)


class TestBlocks:
    """``_blocks`` is the one block rule of every bounded-memory loop."""

    @pytest.mark.parametrize("count,size,block,lengths", [
        (0, 1, 8, []),
        (0, 9, 8, []),
        (1, 1, 8, [1]),
        (8, 1, 8, [8]),
        (9, 1, 8, [8, 1]),
        (17, 2, 8, [4, 4, 4, 4, 1]),
        (10, 3, 8, [2, 2, 2, 2, 2]),
        (11, 3, 8, [2, 2, 2, 2, 2, 1]),
        (5, 9, 8, [1, 1, 1, 1, 1]),
        (3, (1 << 15) + 1, 1 << 15, [1, 1, 1]),
        (70_000, 1, 1 << 15, [1 << 15, 1 << 15, 70_000 - (1 << 16)]),
    ], ids=["empty", "empty-large-items", "one", "one-full-block", "uneven-last",
            "two-floats-uneven", "three-floats-even", "three-floats-uneven",
            "items-above-block", "items-above-default-block", "default-block"])
    def test_slices_cover_the_range(self, monkeypatch, count, size, block, lengths):
        monkeypatch.setattr(lattice, "_BLOCK", block)
        slices = list(lattice._blocks(count, size))
        parts = [range(count)[s] for s in slices]
        assert [len(part) for part in parts] == lengths
        assert [i for part in parts for i in part] == list(range(count))
        assert all(s.step is None and 1 <= s.stop - s.start <= max(1, block // size)
                   for s in slices)


def _fsum_or_error(row: list[float]) -> str:
    """``math.fsum(row)`` as its hex bits (so -0.0 and NaN compare), or its
    exception's type and message."""
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _tree_or_error(vals: np.ndarray) -> list[str]:
    """``_fsum_rows`` of each row alone, in the form of ``_fsum_or_error``."""
    out = []
    for row in vals:
        try:
            out.append(lattice._fsum_rows(row[None])[0].hex())
        except (OverflowError, ValueError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


_FSUM_RNG = np.random.default_rng(27)
_ZEROS = _FSUM_RNG.standard_normal((4, 150)) * 10.0 ** _FSUM_RNG.integers(-20, 21, (4, 150))


class TestFsumRows:
    """``_fsum_rows`` returns ``math.fsum`` of each row bit for bit, its
    exceptions included, on both sides of the tree's crossover."""

    ROWS = {
        "wide-exponents": _FSUM_RNG.standard_normal((6, 300))
        * 10.0 ** _FSUM_RNG.integers(-30, 31, (6, 300)),
        "cancel-to-zero": np.concatenate([_ZEROS, -_ZEROS[:, ::-1]], axis=1),
        "near-cancel": np.concatenate([_ZEROS, -_ZEROS[:, ::-1], np.full((4, 1), 1e-300)], axis=1),
        "all-zero": np.zeros((3, 17)),
        "signed-zero": np.full((3, 9), -0.0),
        "lone-signed-zero": np.array([[-0.0], [0.0]]),
        "subnormal": _FSUM_RNG.integers(-1000, 1000, (5, 64)) * 5e-324,
        "subnormal-and-normal": np.concatenate(
            [_FSUM_RNG.integers(-1000, 1000, (5, 64)) * 5e-324, np.full((5, 1), 2.0**-1000)], axis=1),
        "width-1": _FSUM_RNG.standard_normal((7, 1)),
        "width-3": _FSUM_RNG.standard_normal((7, 3)),
        "width-250": _FSUM_RNG.standard_normal((7, 250)) ** 4,
        "width-1000": _FSUM_RNG.standard_normal((3, 1000)) * 1e10,
        "small-integers": _FSUM_RNG.integers(-5, 6, (8, 33)) * 2.0 ** _FSUM_RNG.integers(-60, 60, (8, 33)),
    }

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_equals_fsum(self, monkeypatch, name):
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        vals = self.ROWS[name]
        want = [_fsum_or_error(row) for row in vals.tolist()]
        assert [total.hex() for total in lattice._fsum_rows(vals)] == want
        assert _tree_or_error(vals) == want

    @pytest.mark.parametrize("row,total", [
        ([1.0, 2.0**-53], 1.0),  # halfway to the next float: to even
        ([1.0, -(2.0**-54)], 1.0),  # halfway to the float below, half as far
        ([2.0**-53, 3.0, 2.0**-53], 3.0),  # halfway, from two halves
    ], ids=["tie-above", "tie-below", "tie-in-two-halves"])
    def test_ties_fall_back_to_fsum(self, monkeypatch, row, total):
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        assert math.fsum(row) == total
        with mock.patch.object(lattice.math, "fsum", wraps=math.fsum) as spy:
            assert lattice._fsum_rows(np.array([row])) == [total]
        assert spy.call_count == 1

    @pytest.mark.parametrize("row,total", [
        ([1.0, 2.0**-53, 2.0**-100], 1.0000000000000002),
        ([1.0, -(2.0**-54), -(2.0**-100)], 0.9999999999999999),
        ([2.0**1010] * 300, float(300 * 2**1010)),
    ], ids=["past-tie-above", "past-tie-below", "large"])
    def test_rows_next_to_a_tie_are_certified(self, monkeypatch, row, total):
        # 2^-100 past the tie is far outside the error bound of lo
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        assert math.fsum(row) == total
        with mock.patch.object(lattice.math, "fsum", wraps=math.fsum) as spy:
            assert lattice._fsum_rows(np.array([row])) == [total]
        assert spy.call_count == 0

    def test_positive_rows_are_certified(self, monkeypatch):
        # sums of powers, the library's rows, never reach math.fsum
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        vals = np.random.default_rng(5).standard_normal((64, 500)) ** 4
        with mock.patch.object(lattice.math, "fsum", wraps=math.fsum) as spy:
            got = lattice._fsum_rows(vals)
        assert spy.call_count == 0
        assert got == [math.fsum(row) for row in vals.tolist()]

    @pytest.mark.parametrize("row", [
        [1e308, 1e308],
        [1e308, 1e308, -1e308],  # the tree's sums stay finite; fsum's running sum does not
        [1.7e308, -1e308, 1.7e308, -1.7e308],
        [-math.inf, 1e308, 1e308],
        [1.0, math.inf, -math.inf],
    ], ids=["overflow", "overflow-tree-finite", "overflow-late", "overflow-after-inf",
            "inf-minus-inf"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_raises_as_fsum_does(self, monkeypatch, row):
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        with pytest.raises((OverflowError, ValueError)) as want:
            math.fsum(row)
        with pytest.raises(type(want.value)) as got:
            lattice._fsum_rows(np.array([[1.0] * len(row), row]))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("row", [
        [1.0, math.inf, 2.0], [-math.inf, 1.0], [1.0, math.nan], [1.7e308, 1.7e308 / 2**53],
    ], ids=["inf", "minus-inf", "nan", "largest-float"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rows(self, monkeypatch, row):
        monkeypatch.setattr(lattice, "_FSUM_TREE_MIN", 0)
        assert lattice._fsum_rows(np.array([row]))[0].hex() == math.fsum(row).hex()

    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.lists(st.lists(st.floats(allow_nan=False, width=64), min_size=5, max_size=5),
                    min_size=1, max_size=40))
    def test_equals_fsum_on_drawn_rows(self, columns):
        vals = np.array(columns).T.copy()  # 5 rows of 1 to 40 floats
        with mock.patch.object(lattice, "_FSUM_TREE_MIN", 0):
            assert _tree_or_error(vals) == [_fsum_or_error(row) for row in vals.tolist()]

    def test_same_floats_on_both_sides_of_the_crossover(self):
        # rows of 64 floats: 31 of them are one float short of 2048, 32 reach it
        vals = np.random.default_rng(6).standard_normal((32, 64)) ** 3
        assert lattice._FSUM_TREE_MIN == 32 * 64
        with mock.patch.object(lattice.math, "fsum", wraps=math.fsum) as spy:
            below = lattice._fsum_rows(vals[:31])
            calls = spy.call_count
            above = lattice._fsum_rows(vals)
        assert calls == 31 and spy.call_count - calls < 32
        assert below == above[:31]
        assert above == [math.fsum(row) for row in vals.tolist()]


class TestGeodesic:
    def test_known_path(self):
        path = geodesic((3, 1))
        assert path.tolist() == [[0, 0], [1, 1], [2, 0], [3, 1]]

    def test_rejects_even_targets(self):
        with pytest.raises(ValueError):
            geodesic((2, 1))

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.lists(
            st.sampled_from([-5, -3, -1, 1, 3, 5]), min_size=1, max_size=3
        )
    )
    def test_path_properties(self, w):
        path = geodesic(tuple(w))
        assert not path[0].any()
        assert (path[-1] == np.array(w)).all()
        steps = np.abs(np.diff(path, axis=0))
        assert steps.max() == 1
        assert len({tuple(r) for r in path}) == len(path)

    def test_sign_equivariance(self):
        w = (3, 5, 1)
        base = geodesic(w)
        for signs in itertools.product((-1, 1), repeat=3):
            sw = tuple(s * c for s, c in zip(signs, w))
            assert (geodesic(sw) == base * np.array(signs)).all()


def geodesic_loop(w):
    """Odd steps add 1; even steps add 1 below |w_j| and subtract 1 at it."""
    aw = np.abs(np.asarray(w, dtype=np.int64))
    path = np.zeros((int(aw.max()) + 1, aw.size), dtype=np.int64)
    for t in range(1, len(path)):
        path[t] = path[t - 1] + (1 if t % 2 else np.where(path[t - 1] < aw, 1, -1))
    return path * np.sign(w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geodesic_equals_step_loop(n):
    for w in itertools.product(range(-7, 8, 2), repeat=n):
        path = geodesic(w)
        assert path.dtype == np.int64 and np.array_equal(path, geodesic_loop(w))
