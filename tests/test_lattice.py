"""Lattice primitives: points, displacement moments, plans, geodesics."""

import itertools

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


def indicator(modulus: int, n: int, p: float) -> GridFunction:
    vals = np.zeros((modulus,) * n + (1,))
    vals[(0,) * n + (0,)] = 1.0
    return GridFunction(modulus, n, 1, p, vals)


def exhaustive_plan(modulus: int, n: int, k: int = 1) -> SamplePlan:
    return make_sample_plan(modulus, n, k, budget=10**7, seed=0)


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
        for spec in (
            Edge(1),
            Diagonal(),
            SymmetricDiagonal(),
            ThreeLetterDiagonal(),
            ShiftedSet((1, 2), 1),
            FixedShift((4, 0)),
        ):
            assert gap_moment(f, spec, plan) == pytest.approx(
                gap_moment(g, spec, plan), abs=1e-12
            )

    def test_monte_carlo_has_stderr(self):
        f = random_grid_function(8, 2, 1, 4.0, seed=5)
        plan = SamplePlan("monte-carlo", 5000, seed=5)
        est = gap_moment_estimate(f, Diagonal(), plan)
        assert est.mode == "monte-carlo"
        assert est.stderr > 0
        exact = gap_moment(f, Diagonal(), exhaustive_plan(8, 2))
        assert abs(est.value - exact) < 6 * est.stderr


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


class TestSamplePlan:
    def test_exhaustive_when_affordable(self):
        plan = make_sample_plan(4, 2, 1, budget=4**2 * 2**2, seed=0)
        assert plan.mode == "exhaustive"

    def test_monte_carlo_when_large(self):
        plan = make_sample_plan(16, 8, 4, budget=10**5, seed=0)
        assert plan.mode == "monte-carlo"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan("adaptive", 10, 0)


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
