import math

import numpy as np
import pytest

from layertails.cli import main
from layertails.penalty_geometry import ContourSet, contour, equal_coordinate


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
            assert 2.0 * c ** q == pytest.approx(3.0 ** q, rel=1e-12)
