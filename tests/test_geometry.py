import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from reachkit import convex_hull, polytope_to_json
from reachkit.errors import DegenerateGeometryError, UnsupportedDimensionError


def unit_cube_corners(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


class TestConvexHull2D:
    def test_square_excludes_center(self):
        pts = np.vstack([unit_cube_corners(2), [[0.5, 0.5]]])
        poly = convex_hull(pts, 2)
        assert len(poly.vertices) == 4
        assert not any(np.allclose(v, [0.5, 0.5]) for v in poly.vertices)

    def test_vertices_subset_of_input(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((60, 2))
        poly = convex_hull(pts, 2)
        for idx, v in zip(poly.vertex_indices, poly.vertices):
            assert np.array_equal(pts[idx], v)

    def test_disk_membership(self):
        rng = np.random.default_rng(1)
        radii = np.sqrt(rng.uniform(0.0, 1.0, 1000))
        angles = rng.uniform(0.0, 2.0 * np.pi, 1000)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        poly = convex_hull(pts, 2)
        for p in pts:
            assert poly.facet_violation(p) <= 1e-12

    def test_deterministic_given_input_order(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((40, 2))
        a = convex_hull(pts, 2)
        b = convex_hull(pts, 2)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.vertex_indices, b.vertex_indices)

    def test_collinear_returns_degenerate_segment(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        poly = convex_hull(pts, 2)
        assert poly.degenerate
        assert poly.volume == 0.0
        assert len(poly.vertices) == 2
        got = {tuple(v) for v in poly.vertices}
        assert got == {(0.0, 0.0), (2.0, 2.0)}
        # rotated, translated (d-1)-flats, flat only to roundoff: qhull rejects
        # them, and the two extreme points along the cloud's spread remain
        rng = np.random.default_rng(30)
        for d in (2, 3, 4):
            for _ in range(40):
                k = int(rng.integers(3, 201))
                flat = np.zeros((k, d))
                flat[:, :-1] = rng.standard_normal((k, d - 1)) * rng.uniform(0.1, 10.0)
                Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                pts = flat @ Q.T + rng.uniform(-1e4, 1e4, d)
                poly = convex_hull(pts, d)
                assert poly.degenerate
                assert poly.volume == 0.0
                assert len(poly.vertices) == 2
                assert np.array_equal(pts[poly.vertex_indices], poly.vertices)

    def test_vertices_duplicated_at_one_ulp(self):
        # a sub-ulp edge between two copies of a vertex has an arbitrary
        # orientation sign; the hull must neither keep it nor cut points off
        rng = np.random.default_rng(23)
        for _ in range(300):
            pts = rng.standard_normal((int(rng.integers(8, 60)), 2)) * rng.uniform(0.1, 10.0, 2)
            corners = pts[ConvexHull(pts).vertices]
            shifted = corners.copy()
            shifted[:, 0] = np.nextafter(shifted[:, 0], np.inf)
            cloud = np.vstack([pts, np.nextafter(corners, np.inf),
                               np.nextafter(corners, -np.inf), shifted])
            cloud = cloud[rng.permutation(len(cloud))]
            poly = convex_hull(cloud, 2)
            span = float(np.max(np.ptp(cloud, axis=0)))
            residuals = cloud @ poly.facet_normals.T - poly.facet_offsets
            assert residuals.max() <= 1e-12 * span
            assert poly.volume == pytest.approx(ConvexHull(cloud).volume, rel=1e-12)

    def test_counterclockwise_from_lexicographic_min(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 2))
        poly = convex_hull(pts, 2)
        first = np.lexsort((pts[:, 1], pts[:, 0]))[0]
        assert poly.vertex_indices[0] == first
        edges = np.roll(poly.vertices, -1, axis=0) - poly.vertices
        turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        assert np.all(turns > 0.0)


class TestConvexHullHighDim:
    def test_simplex_3d(self):
        pts = np.vstack([np.zeros(3), np.eye(3)])
        poly = convex_hull(pts, 3)
        assert len(poly.vertices) == 4
        assert len(poly.facet_normals) == 4
        assert np.isclose(poly.volume, 1.0 / 6.0, atol=1e-12)

    def test_cube_3d(self):
        poly = convex_hull(unit_cube_corners(3), 3)
        assert len(poly.vertices) == 8
        assert np.isclose(poly.volume, 1.0, atol=1e-10)
        # coplanar triangles merge into 6 face halfspaces
        assert len(poly.facet_normals) == 6

    def test_cube_4d(self):
        poly = convex_hull(unit_cube_corners(4), 4)
        assert np.isclose(poly.volume, 1.0, atol=1e-10)
        assert len(poly.vertices) == 16
        # 58 triangulated rows share 8 face hyperplanes
        assert len(poly.facet_normals) == 8

    def test_vertex_inequalities_hold(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((80, 3))
        poly = convex_hull(pts, 3)
        for v in poly.vertices:
            assert poly.facet_violation(v) <= 1e-9

    def test_dimension_bounds(self):
        with pytest.raises(UnsupportedDimensionError):
            convex_hull(np.zeros((4, 5)), 5)
        with pytest.raises(UnsupportedDimensionError):
            convex_hull(np.zeros((4, 1)), 1)


class TestVolume:
    def test_unit_square(self):
        poly = convex_hull(unit_cube_corners(2), 2)
        assert abs(poly.volume - 1.0) <= 1e-12

    def test_unit_cube(self):
        poly = convex_hull(unit_cube_corners(3), 3)
        assert abs(poly.volume - 1.0) <= 1e-10

    def test_random_4simplex_vs_determinant(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pts = rng.standard_normal((5, 4))
            poly = convex_hull(pts, 4)
            det = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(4)
            assert abs(poly.volume - det) <= 1e-10 * max(1.0, det)

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            pts = rng.standard_normal((30, d))
            base = convex_hull(pts, d).volume
            for alpha in (0.5, 2.0):
                scaled = convex_hull(alpha * pts, d).volume
                assert abs(scaled - alpha**d * base) <= 1e-9 * max(1.0, alpha**d * base)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            pts = rng.standard_normal((30, d))
            base = convex_hull(pts, d).volume
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            rotated = convex_hull(pts @ Q.T, d).volume
            assert abs(rotated - base) <= 1e-9 * max(1.0, base)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_translation_invariance(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            pts = rng.standard_normal((30, d))
            for offset in (1e3, 1e5, 1e6, 1e7):
                shift = offset * rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 1.0, d)
                moved = pts + shift
                # moved - shift is exact (Sterbenz), so both hulls see the same cloud
                base = convex_hull(moved - shift, d).volume
                assert abs(convex_hull(moved, d).volume - base) <= 1e-9 * base

    @pytest.mark.parametrize("count", [200, 2000, 20000])
    def test_thin_ellipse_keeps_its_area(self, count):
        # semi-axes 1e9 and 0.1: thin, but its smallest spread is far above
        # coordinate roundoff, so the hull has its area at any point count
        t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        for angle in (0.0, 0.3):
            c, s = np.cos(angle), np.sin(angle)
            pts = np.column_stack([1e9 * np.cos(t), 0.1 * np.sin(t)]) @ [[c, s], [-s, c]]
            poly = convex_hull(pts, 2)
            assert not poly.degenerate
            assert poly.volume == pytest.approx(np.pi * 1e8, rel=2e-4)

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_thin_ellipse_facet_violation_limit(self, angle):
        # the limit facet_violation documents: at 200 points every input point
        # is inside to coordinate roundoff; at 2000 qhull merges facets, and
        # points lie outside by a small share of the 0.1 half-width
        c, s = np.cos(angle), np.sin(angle)
        for count, limit in ((200, 4 * np.finfo(float).eps * 1e9), (2000, 1e-4 * 0.1)):
            t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
            pts = np.column_stack([1e9 * np.cos(t), 0.1 * np.sin(t)]) @ [[c, s], [-s, c]]
            poly = convex_hull(pts, 2)
            assert max(poly.facet_violation(p) for p in pts) <= limit
            inscribed = count / 2 * 1e9 * 0.1 * np.sin(2.0 * np.pi / count)
            assert poly.volume == pytest.approx(inscribed, rel=1e-4)

    def test_unit_square_far_from_origin(self):
        poly = convex_hull(unit_cube_corners(2) + 1e8, 2)
        assert not poly.degenerate
        assert poly.volume == pytest.approx(1.0, rel=1e-12)

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((25, 3))
        base = convex_hull(pts, 3).volume
        grown = convex_hull(np.vstack([pts, rng.standard_normal((1, 3))]), 3).volume
        assert grown >= base - 1e-12


class TestHullIdempotence:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hull_of_vertices_identical(self, d):
        rng = np.random.default_rng(8 + d)
        pts = rng.standard_normal((50, d))
        first = convex_hull(pts, d)
        second = convex_hull(first.vertices, d)
        got = {tuple(v) for v in second.vertices}
        expected = {tuple(v) for v in first.vertices}
        assert got == expected
        assert np.isclose(second.volume, first.volume, rtol=1e-12)


class TestContains:
    def test_inside_and_outside(self):
        poly = convex_hull(unit_cube_corners(2), 2)
        assert poly.facet_violation([0.5, 0.5]) <= 1e-9
        assert poly.facet_violation([2.0, 0.0]) > 1e-9

    def test_boundary_within_tol(self):
        poly = convex_hull(unit_cube_corners(2), 2)
        assert poly.facet_violation([1.0, 0.5]) <= 1e-9

    def test_self_membership(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((40, 3))
        poly = convex_hull(pts, 3)
        for p in pts:
            assert poly.facet_violation(p) <= 1e-9

    def test_degenerate_raises(self):
        poly = convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), 2)
        with pytest.raises(DegenerateGeometryError):
            poly.facet_violation([0.0, 0.0])


class TestJsonExport:
    def test_schema(self):
        poly = convex_hull(unit_cube_corners(2), 2)
        payload = polytope_to_json(poly)
        assert payload["dim"] == 2
        assert payload["volume"] == poly.volume
        assert len(payload["vertices"]) == 4
        assert all(set(f) == {"normal", "offset"} for f in payload["facets"])
