"""Averaging operators, the Rademacher projection, and torus characters."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab.lattice import GridFunction, LatticePoint, random_grid_function
from xplab.operators import (
    DS,
    Bj,
    BoxA,
    CalE,
    CalEj,
    DeltaT,
    Ej,
    HypercubeFunction,
    Tj,
    box_average,
    character,
    edge_average,
    rad_identity_residual,
    rad_identity_residual_grid,
    rademacher_projection,
)


def indicator(modulus: int, n: int) -> GridFunction:
    vals = np.zeros((modulus,) * n + (1,))
    vals[(0,) * n + (0,)] = 1.0
    return GridFunction(modulus, n, 1, 2.0, vals)


class TestEdgeAverages:
    def test_single_edge_indicator_oracle(self):
        # [DERIVED] (f(x+1)+f(x-1))/2 of the origin indicator on Z_4
        g = edge_average(indicator(4, 1), Ej(1))
        assert g.values.ravel().tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_full_product_equals_composition(self):
        f = random_grid_function(8, 2, 1, 2.0, seed=4)
        full = edge_average(f, CalE())
        comp = edge_average(edge_average(f, Ej(1)), Ej(2))
        assert np.allclose(full.values, comp.values, atol=1e-14)

    def test_caleje_skips_axis(self):
        f = random_grid_function(8, 2, 1, 2.0, seed=4)
        assert np.allclose(
            edge_average(f, CalEj(2)).values, edge_average(f, Ej(1)).values
        )

    def test_tj_uses_double_steps(self):
        f = random_grid_function(8, 2, 1, 2.0, seed=6)
        got = edge_average(f, Tj(1)).values
        exp = 0.5 * (np.roll(f.values, -2, axis=1) + np.roll(f.values, 2, axis=1))
        assert np.allclose(got, exp)


def translate_mean(f: GridFunction, ys: list) -> np.ndarray:
    """Mean over y in ys of f(x + y) at every x, by direct indexing."""
    M, n = f.modulus, f.dimension
    xs = np.array(list(itertools.product(range(M), repeat=n)))
    return np.mean([f.values[tuple(((xs + y) % M).T)] for y in ys],
                   axis=0).reshape(f.values.shape)


def oracle_cases(n: int):
    """Each kind on Z_8^n with the translates y in [-3, 3]^n its docstring
    averages."""
    subsets = [S for r in range(n + 1) for S in itertools.combinations(range(1, n + 1), r)]
    cube = list(itertools.product(range(-3, 4), repeat=n))
    for R in (1, 3):
        for S in subsets:
            # DS: y in [-R, R]^n, y_i even on S and odd off S
            ys = [y for y in cube if all(abs(c) <= R and (c % 2 == 0) == (i + 1 in S)
                                         for i, c in enumerate(y))]
            yield DS(S, R), ys
            if len(S) == 1:
                yield Bj(S[0], R), ys
            # DeltaT: even y in (-R, R)^n, zero off T
            ys = [y for y in cube if all(abs(c) < R and c % 2 == 0 and (c == 0 or i + 1 in S)
                                         for i, c in enumerate(y))]
            yield DeltaT(S, R), ys
            if len(S) == n:
                yield BoxA(R), ys
    for j in range(1, n + 1):
        on, off = [i == j - 1 for i in range(n)], [i != j - 1 for i in range(n)]
        for kind, axes, step in ((Ej(j), on, 1), (CalEj(j), off, 1), (Tj(j), off, 2)):
            yield kind, [y for y in cube if all(
                abs(c) == (step if a else 0) for a, c in zip(axes, y))]
    yield CalE(), [y for y in cube if all(abs(c) == 1 for c in y)]


@pytest.mark.parametrize("kind,ys", [pytest.param(kind, ys, id=repr(kind))
                                     for kind, ys in oracle_cases(2)])
def test_operator_averages_its_translates(kind, ys):
    # [PAPER] each operator is the mean of f(x + y) over its support, here
    # enumerated from the parity rule of the kind's docstring
    f = random_grid_function(8, 2, 2, 2.0, seed=21)
    apply = box_average if isinstance(kind, (DS, Bj, DeltaT, BoxA)) else edge_average
    assert np.abs(apply(f, kind).values - translate_mean(f, ys)).max() < 1e-14


class TestBoxAverages:
    def test_bja_reduces_to_singleton_ds(self):
        f = random_grid_function(8, 2, 1, 2.0, seed=7)
        assert np.allclose(
            box_average(f, Bj(1, 3)).values,
            box_average(f, DS((1,), 3)).values,
        )

    def test_boxa_reduces_to_full_delta(self):
        f = random_grid_function(8, 2, 1, 2.0, seed=7)
        assert np.allclose(
            box_average(f, BoxA(3)).values,
            box_average(f, DeltaT((1, 2), 3)).values,
        )

    def test_ds_support_cardinality(self):
        # [PAPER] |U_S| = R^{|S|}(R+1)^{n-|S|}: averaging the constant-one
        # table must return ones, and the indicator mass must split by it
        f = indicator(8, 2)
        g = box_average(f, DS((1,), 3))
        mass = 3 * 4  # R^{|S|} (R+1)^{n-|S|} with R=3, n=2, |S|=1
        assert np.isclose(g.values.max(), 1.0 / mass)

    def test_even_R_rejected(self):
        with pytest.raises(ValueError):
            box_average(indicator(8, 2), BoxA(2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_contraction_and_mean(self, seed):
        f = random_grid_function(8, 2, 1, 2.0, seed=seed)
        for kind in (BoxA(1), DS((1,), 3), DeltaT((2,), 3), CalE(), Tj(2)):
            apply = box_average if isinstance(kind, (BoxA, DS, DeltaT)) else edge_average
            g = apply(f, kind)
            assert np.abs(g.values).max() <= np.abs(f.values).max() + 1e-12
            assert float(g.values.mean()) == pytest.approx(
                float(f.values.mean()), abs=1e-12
            )


class TestRademacherProjection:
    def test_annihilates_degree_two(self):
        n = 3
        vals = np.empty((2,) * n + (1,))
        for eps in itertools.product((-1, 1), repeat=n):
            idx = tuple((e + 1) // 2 for e in eps)
            vals[idx] = eps[0] * eps[1]
        h = HypercubeFunction(n, 1, vals)
        assert np.abs(rademacher_projection(h).values).max() < 1e-14

    def test_reproduces_linear_part(self):
        n = 3
        coeff = np.array([2.0, -1.0, 0.5])
        vals = np.empty((2,) * n + (1,))
        for eps in itertools.product((-1, 1), repeat=n):
            idx = tuple((e + 1) // 2 for e in eps)
            vals[idx] = float(coeff @ np.array(eps)) + 7.0 + eps[0] * eps[2]
        h = HypercubeFunction(n, 1, vals)
        rad = rademacher_projection(h)
        for eps in itertools.product((-1, 1), repeat=n):
            assert rad(eps)[0] == pytest.approx(float(coeff @ np.array(eps)))


class TestCharacters:
    def test_orthonormal_gram(self):
        M = 8
        chars = [
            character(LatticePoint((a,), M)).values.reshape(-1, 2)
            for a in range(M)
        ]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                re = np.mean(ci[:, 0] * cj[:, 0] + ci[:, 1] * cj[:, 1])
                im = np.mean(ci[:, 1] * cj[:, 0] - ci[:, 0] * cj[:, 1])
                assert abs(re - (1.0 if i == j else 0.0)) < 1e-10
                assert abs(im) < 1e-10

    def test_unit_modulus(self):
        f = character(LatticePoint((3, 5), 16))
        norms = np.sqrt(np.sum(f.values**2, axis=-1))
        assert np.allclose(norms, 1.0)


class TestProjectionIdentity:
    def test_pointwise_residual_tiny(self):
        f = random_grid_function(8, 2, 1, 4.0, seed=12)
        assert rad_identity_residual(f, (3, 6)) < 1e-12

    @pytest.mark.parametrize("M,n,d", [(8, 1, 1), (8, 2, 2), (8, 3, 1)])
    def test_grid_residual_matches_pointwise_max(self, M, n, d):
        f = random_grid_function(M, n, d, 4.0, seed=13)
        grid = rad_identity_residual_grid(f)
        point = max(
            rad_identity_residual(f, x)
            for x in itertools.product(range(M), repeat=n)
        )
        assert grid == pytest.approx(point, abs=1e-13)

    def test_requires_modulus_multiple_of_eight(self):
        with pytest.raises(ValueError):
            rad_identity_residual(random_grid_function(4, 1, 1, 2.0, seed=0), (0,))
