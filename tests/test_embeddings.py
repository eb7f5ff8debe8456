"""Two-level embeddings, snowflake realizations, grid rounding, exponents."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xplab.embeddings import (
    composite_grid_distortion,
    distortion,
    distortion_from_matrices,
    grid_bounds,
    grid_round_map,
    rosenthal_distortion,
    rosenthal_distortion_two_level,
    rosenthal_embed,
    rosenthal_exponent,
    rosenthal_target_norm,
    schoenberg_embed,
    snowflake_exponent_poly,
    snowflake_exponent_root,
)


class TestRosenthal:
    def test_basis_vector_norm(self):
        n, q, p = 5, 3.0, 6.0
        x = np.zeros(n)
        x[0] = 1.0
        v = rosenthal_embed(x, q)
        # [DERIVED] ||J x||^p = n^{p/2} + n^{p/q} for a basis vector
        assert rosenthal_target_norm(v, p) ** p == pytest.approx(
            n ** (p / 2) + n ** (p / q)
        )

    def test_exponent_value(self):
        # (p-q)(q-2)/(q^2(p-2)) at (6, 3)
        assert rosenthal_exponent(3.0, 6.0) == pytest.approx(1.0 / 12.0)

    def test_distortion_scale_invariance(self):
        n, q, p = 6, 3.0, 6.0
        _, s_star = rosenthal_distortion(n, q, p)
        assert 1 <= s_star <= n
        x = np.zeros(n)
        x[:2] = 2.5
        a = rosenthal_target_norm(rosenthal_embed(x, q), p)
        b = rosenthal_target_norm(rosenthal_embed(x / 2.5, q), p)
        assert a == pytest.approx(2.5 * b)

    def test_two_level_dominates_flat(self):
        for n in (2, 4, 8):
            flat, _ = rosenthal_distortion(n, 3.0, 6.0)
            dense = rosenthal_distortion_two_level(n, 3.0, 6.0)
            assert dense >= flat - 1e-9

    def test_monotone_in_n(self):
        vals = [rosenthal_distortion(n, 3.0, 6.0)[0] for n in (4, 16, 64)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_target_norm_of_a_stack_is_per_vector_and_keeps_its_input(self):
        v = np.random.default_rng(3).standard_normal((5, 8))
        kept = v.copy()
        stacked = rosenthal_target_norm(v, 5.5)
        assert stacked.shape == (5,)
        singles = [rosenthal_target_norm(row, 5.5) for row in v]
        np.testing.assert_allclose(stacked, singles, rtol=1e-15, atol=0.0)
        assert np.array_equal(v, kept)


class TestDistortion:
    def test_three_point_example(self):
        # [DERIVED] pair ratios {1, 0.5, 0.75}: expansion 1, contraction 0.5
        src = np.abs(np.subtract.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
        img = np.abs(np.subtract.outer([0.0, 1.0, 1.5], [0.0, 1.0, 1.5]))
        expansion, contraction, dist = distortion_from_matrices(src, img)
        assert expansion == pytest.approx(1.0)
        assert contraction == pytest.approx(0.5)
        assert dist == pytest.approx(2.0)

    def test_isometry_has_distortion_one(self):
        pts = np.random.default_rng(0).standard_normal((6, 3))
        res = distortion(pts, pts, 2.0, 2.0)
        assert res.distortion == pytest.approx(1.0)

    def test_collapsed_image_rejected(self):
        src = np.abs(np.subtract.outer([0.0, 1.0], [0.0, 1.0]))
        img = np.zeros((2, 2))
        with pytest.raises(ValueError):
            distortion_from_matrices(src, img)


class TestSchoenberg:
    def test_two_point_snowflake(self):
        img = schoenberg_embed(np.array([[0.0], [8.0]]), 3.0)
        d = np.linalg.norm(img[0] - img[1])
        assert d == pytest.approx(8.0 ** (2.0 / 3.0))

    def test_grid_distances_exact(self):
        pts = np.array(
            [[i, j] for i in range(3) for j in range(3)], dtype=float
        )
        img = schoenberg_embed(pts, 4.0)
        for i in range(len(pts)):
            for j in range(i):
                src = np.linalg.norm(pts[i] - pts[j]) ** 0.5
                got = np.linalg.norm(img[i] - img[j])
                assert got == pytest.approx(src, rel=1e-10)


class TestGridRounding:
    def test_map_oracle(self):
        assert grid_round_map([0], 4).tolist() == [16.0, 8.0]

    def test_range(self):
        for m in (2, 5):
            for u in range(4 * m):
                assert (grid_round_map([u], m) >= 0).all()
                assert (grid_round_map([u], m) <= 4 * m).all()

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 8), u=st.integers(0, 60), v=st.integers(0, 60))
    def test_sandwich(self, m, u, v):
        if u == v:
            return
        d = float(np.linalg.norm(grid_round_map([u], m) - grid_round_map([v], m)))
        src = abs(np.exp(2j * math.pi * u / m) - np.exp(2j * math.pi * v / m))
        if src < 1e-9:  # u ≡ v (mod m) up to float roundoff in the angle
            assert d == 0
        else:
            assert m * src <= d <= 3 * m * src


class TestExponents:
    @pytest.mark.parametrize("p,q", [(6.0, 3.0), (9.0, 4.0), (12.0, 2.5)])
    def test_psi_checkpoints(self, p, q):
        assert snowflake_exponent_poly(p, q, 0.0) == pytest.approx(-p)
        assert snowflake_exponent_poly(p, q, q / p) == pytest.approx(-(p - q))
        theta = snowflake_exponent_root(p, q)
        assert abs(snowflake_exponent_poly(p, q, theta)) < 1e-10
        assert q / p < theta < 1 - (p - q) * (q - 2) / (2 * p**3)

    def test_grid_bounds_fields(self):
        out = grid_bounds(4, 8, 3.0, 6.0)
        assert out["theta_residual"] < 1e-10
        assert out["transition_grid_size"] > 0
        assert out["rosenthal_exponent"] == pytest.approx(1.0 / 12.0)


class TestComposite:
    def test_schoenberg_grid_bound(self):
        res = composite_grid_distortion(4, 2, 3.0, 6.0, "schoenberg")
        assert res.distortion <= 4.0 ** (1.0 / 3.0) + 1e-9

    def test_rosenthal_grid_below_two_level(self):
        res = composite_grid_distortion(4, 2, 3.0, 6.0, "rosenthal")
        assert res.distortion <= rosenthal_distortion_two_level(2, 3.0, 6.0) + 1e-9

    @pytest.mark.parametrize("m,n,q,p", [(3, 2, 3.0, 6.0), (2, 3, 2.5, 4.5)])
    def test_rosenthal_grid_matches_pair_loop(self, m, n, q, p):
        res = composite_grid_distortion(m, n, q, p, "rosenthal")
        pts = np.array(list(itertools.product(range(m + 1), repeat=n)), dtype=float)
        ratios = []
        for i in range(len(pts)):
            for j in range(i):
                x = pts[i] - pts[j]
                # (l_p (+) l_2)_p norm of J x = (n^{1/2} x, n^{1/q} x)
                image = (np.sum(np.abs(n**0.5 * x) ** p)
                         + np.sum((n ** (1 / q) * x) ** 2) ** (p / 2)) ** (1 / p)
                ratios.append(image / np.sum(np.abs(x) ** q) ** (1 / q))
        assert res.expansion == pytest.approx(max(ratios), rel=1e-12)
        assert res.contraction == pytest.approx(min(ratios), rel=1e-12)
        assert res.distortion == pytest.approx(max(ratios) / min(ratios), rel=1e-12)
