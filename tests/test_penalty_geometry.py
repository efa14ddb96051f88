import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertails.cli import main
from layertails.penalty_geometry import (ContourSet, PenaltyBreakdown,
                                         contour, equal_coordinate,
                                         lq_penalty, unit_penalty,
                                         weight_decay)


class TestLqPenalty:
    def test_basis_vector_is_one_for_any_q(self):
        for q in (0.2, 2 / 3, 1.0, 2.0, 7.0):
            assert lq_penalty((1.0, 0.0), q) == pytest.approx(1.0)

    def test_lasso_and_weight_decay_rows(self):
        assert lq_penalty((1.0, 1.0), 1.0) == pytest.approx(2.0)
        assert lq_penalty((3.0, 4.0), 2.0) == pytest.approx(25.0)

    def test_fractional_exponent(self):
        assert lq_penalty((8.0,), 2 / 3) == pytest.approx(4.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lq_penalty((1.0, float("nan")), 1.0)
        with pytest.raises(ValueError):
            lq_penalty((1.0,), 0.0)
        with pytest.raises(ValueError):
            lq_penalty((1.0,), math.nan)

    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_q2_is_squared_l2(self, v):
        assert lq_penalty(v, 2.0) == pytest.approx(float(np.sum(np.square(v))),
                                                   rel=1e-9, abs=1e-9)


def weight_matrices(shapes, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in shapes]


class TestWeightDecay:
    def test_equals_sum_of_layer_l2_penalties(self):
        ws = weight_matrices([(5, 6), (4, 5), (3, 4)], 3)
        want = sum(lq_penalty(w.ravel(), 2.0) for w in ws)
        assert weight_decay(ws) == pytest.approx(want, rel=1e-12)


class TestUnitPenalty:
    def test_single_layer_is_plain_l2(self):
        got = unit_penalty([(1.0, 1.0)])
        assert got.layer_exponents == (2.0,)
        assert got.layer_penalties[0] == pytest.approx(2.0)
        assert got.total_unit_penalty == pytest.approx(2.0)

    def test_layer2_is_lasso(self):
        got = unit_penalty([(0.0, 0.0), (1.0, 1.0)])
        assert got.layer_exponents[1] == 1.0
        assert got.layer_penalties[1] == pytest.approx(2.0)

    def test_layer3_axis_point(self):
        units = [(0.0,), (0.0,), (1.0, 0.0, 0.0)]
        got = unit_penalty(units)
        assert got.layer_exponents[2] == pytest.approx(2 / 3)
        assert got.layer_penalties[2] == pytest.approx(1.0)

    def test_copula_exclusion_is_recorded_and_mandatory(self):
        got = unit_penalty([(1.0,)])
        assert got.copula_excluded
        with pytest.raises(ValueError):
            PenaltyBreakdown(layer_exponents=(2.0,), layer_penalties=(1.0,),
                             total_unit_penalty=1.0, copula_excluded=False)

    def test_optional_weight_term(self):
        ws = weight_matrices([(3, 4)], 0)
        got = unit_penalty([(1.0, 2.0, 3.0)], weights=ws)
        assert got.weight_penalty == pytest.approx(weight_decay(ws))
        report = got.describe()
        assert "layer 1" in report and "weight decay" in report

    def test_needs_at_least_one_layer(self):
        with pytest.raises(ValueError):
            unit_penalty([])


class TestContours:
    def test_every_point_on_the_level_set(self):
        for q in (2.0, 1.0, 2 / 3, 0.2):
            cs = contour(q, 1.0, 400)
            assert cs.max_relative_error() <= 1e-9

    def test_unit_circle(self):
        cs = contour(2.0, 1.0, 256)
        radii = np.hypot(cs.points[:, 0], cs.points[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)

    def test_diamond_diagonal_point(self):
        cs = contour(1.0, 1.0, 8)  # phi = pi/4 is the second point
        np.testing.assert_allclose(cs.points[1], [0.5, 0.5], atol=1e-12)

    def test_small_q_pinches_toward_axes(self):
        cs = contour(0.2, 1.0, 400)
        # axis points are exact, the diagonal point collapses to 2^-5
        assert [1.0, 0.0] in cs.points.tolist()
        assert [0.0, 1.0] in cs.points.tolist()
        diag = cs.points[50]  # phi = pi/4
        assert diag[0] == pytest.approx(diag[1], rel=1e-9)
        assert diag[0] == pytest.approx(2.0 ** -5, rel=1e-9)

    def test_level_scales_linearly(self):
        a = contour(1.0, 1.0, 64).points
        b = contour(1.0, 2.5, 64).points
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            contour(0.0, 1.0)
        with pytest.raises(ValueError):
            contour(1.0, -1.0)
        with pytest.raises(ValueError):
            contour(1.0, 1.0, 3)
        # NaN compares false with everything, so only a test that q > 0
        # holds, not one that q <= 0 fails, rejects it
        for q, t in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="positive and finite"):
                contour(q, t)
            with pytest.raises(ValueError, match="positive and finite"):
                equal_coordinate(q, t)

    def test_constructed_points_are_validated(self):
        pts = np.array([[1.0, 0.0], [0.5, 0.2]])
        with pytest.raises(ValueError):
            ContourSet(q=1.0, t=1.0, phis=np.array([0.0, 1.0]), points=pts)

    def test_csv_export(self, tmp_path):
        assert main(["contours", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "contour_q1.csv").read_text().splitlines()
        assert lines[1] == "phi,x,y"
        assert len(lines) == 402
        phi, px, py = map(float, lines[2].split(","))
        assert (phi, px, py) == (0.0, 1.0, 0.0)


class TestEqualCoordinate:
    def test_closed_form(self):
        assert equal_coordinate(2.0, 1.0) == pytest.approx(2 ** -0.5)
        assert equal_coordinate(0.2, 1.0) == pytest.approx(2.0 ** -5)

    def test_shrinks_with_depth(self):
        # q = 2/l: deeper layers concentrate mass toward the axes
        coords = [equal_coordinate(2.0 / l, 1.0) for l in range(1, 12)]
        assert all(a > b for a, b in zip(coords, coords[1:]))

    def test_matches_the_contour_diagonal(self):
        for q in (2.0, 1.0, 2 / 3):
            c = equal_coordinate(q, 3.0)
            assert lq_penalty((c, c), q) == pytest.approx(3.0 ** q, rel=1e-12)
