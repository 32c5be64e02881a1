"""Unit tests for the pure-numpy geometry kernels (no Ray needed)."""

import numpy as np
import pytest

from geotile.geom import cells
from geotile.geom.bbox import bbox_merge, bbox_partial, bbox_polygon
from geotile.geom.buffer import EARTH_RADIUS_M, buffer_polyline, disc, meter_frame
from geotile.geom.hull import convex_hull
from geotile.geom.pip import (
    points_in_polygon,
    points_to_polyline_distance,
    signed_area,
)
from geotile.geom.raster import (
    Grid,
    cells_to_mask,
    distance_mask,
    mask_to_polygons,
    polygon_cover_cells,
    polygon_mask,
    trace_mask,
)
from geotile.geom.rdp import rdp, rdp_ring, round_coords

RNG = np.random.default_rng(42)


class TestCells:
    def test_roundtrip_center(self):
        lon = RNG.uniform(-179.9, 179.9, 1000)
        lat = RNG.uniform(-89.9, 89.9, 1000)
        for res in (3, 10, 15, 20):
            c = cells.encode(lon, lat, res)
            assert (cells.resolution(c) == res).all()
            clon, clat = cells.cell_center(c)
            dlon, dlat = cells.cell_size_degrees(res)
            assert np.all(np.abs(clon - lon) <= dlon / 2 + 1e-9)
            assert np.all(np.abs(clat - lat) <= dlat / 2 + 1e-9)
            # re-encoding the center gives the same cell
            assert (cells.encode(clon, clat, res) == c).all()

    def test_bounds_contain_point(self):
        lon = RNG.uniform(-180, 180, 200)
        lat = RNG.uniform(-90, 90, 200)
        c = cells.encode(lon, lat, 12)
        w, s, e, n = cells.cell_bounds(c)
        assert np.all((lon >= w - 1e-9) & (lon <= e + 1e-9))
        assert np.all((lat >= s - 1e-9) & (lat <= n + 1e-9))

    def test_parent_children(self):
        c = cells.encode(np.array([-122.0]), np.array([37.5]), 15)
        p = cells.parent(c)
        assert cells.resolution(p)[0] == 14
        kids = cells.children(int(p[0]))
        assert len(kids) == 4
        assert int(c[0]) in kids.tolist()
        # parent at a coarser resolution directly
        p5 = cells.parent(c, 5)
        assert cells.resolution(p5)[0] == 5
        lon, lat = cells.cell_center(p5)
        assert abs(lon[0] - (-122.0)) < 360 / 2**5

    def test_distinct_cells(self):
        # two points one cell apart get different ids
        a = cells.encode(np.array([0.0]), np.array([0.0]), 20)
        dlon, _ = cells.cell_size_degrees(20)
        b = cells.encode(np.array([2 * dlon]), np.array([0.0]), 20)
        assert a[0] != b[0]


class TestPip:
    SQUARE = [np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], dtype=float)]
    WITH_HOLE = SQUARE + [np.array([[1, 1], [1, 3], [3, 3], [3, 1], [1, 1]], dtype=float)]

    def test_square(self):
        px = np.array([2.0, 5.0, -1.0, 2.0])
        py = np.array([2.0, 2.0, 2.0, 5.0])
        assert points_in_polygon(px, py, self.SQUARE).tolist() == [True, False, False, False]

    def test_hole(self):
        px = np.array([2.0, 0.5, 3.5])
        py = np.array([2.0, 0.5, 3.5])
        assert points_in_polygon(px, py, self.WITH_HOLE).tolist() == [False, True, True]

    def test_signed_area(self):
        assert signed_area(self.SQUARE[0]) == pytest.approx(16.0)
        assert signed_area(self.SQUARE[0][::-1]) == pytest.approx(-16.0)

    def test_polyline_distance(self):
        line = np.array([[0, 0], [10, 0]], dtype=float)
        d = points_to_polyline_distance(np.array([5.0, -3.0, 12.0]), np.array([2.0, 0.0, 0.0]), line)
        assert d == pytest.approx([2.0, 3.0, 2.0])


class TestHull:
    def test_square_with_interior(self):
        pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [0.5, 0.5]], dtype=float)
        h = convex_hull(pts)
        assert h is not None
        assert signed_area(h) == pytest.approx(4.0)
        assert len(h) == 5  # 4 corners + closure

    def test_collinear_returns_none(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
        assert convex_hull(pts) is None

    def test_partial_final_equivalence(self):
        pts = RNG.uniform(-10, 10, (500, 2))
        full = convex_hull(pts)
        h1 = convex_hull(pts[:250])
        h2 = convex_hull(pts[250:])
        combined = convex_hull(np.vstack([h1[:-1], h2[:-1]]))
        assert np.allclose(np.sort(full, axis=0), np.sort(combined, axis=0))


class TestRdp:
    def test_collinear_collapse(self):
        pts = np.column_stack([np.linspace(0, 10, 50), np.zeros(50)])
        out = rdp(pts, 0.01)
        assert len(out) == 2

    def test_keeps_corner(self):
        pts = np.array([[0, 0], [5, 0.001], [10, 0], [10, 5]], dtype=float)
        out = rdp(pts, 0.01)
        assert len(out) == 3
        assert [10, 0] in out.tolist()

    def test_ring_guard(self):
        ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
        out = rdp_ring(ring, 10.0)  # huge tolerance must not collapse the ring
        assert len(out) >= 4
        assert (out[0] == out[-1]).all()

    def test_round_coords(self):
        arr = np.array([1.234567, -2.345678])
        assert round_coords(arr, 2).tolist() == [1.23, -2.35]
        assert round_coords(arr, None).tolist() == arr.tolist()


class TestBbox:
    def test_partial_merge(self):
        xs = RNG.uniform(-5, 5, 100)
        ys = RNG.uniform(-5, 5, 100)
        a = bbox_partial(xs[:50], ys[:50])
        b = bbox_partial(xs[50:], ys[50:])
        m = bbox_merge(a, b)
        assert m == (xs.min(), ys.min(), xs.max(), ys.max())
        poly = bbox_polygon(m)
        assert len(poly) == 5
        assert signed_area(poly) > 0


class TestRaster:
    def test_polygon_mask_square(self):
        grid = Grid(x0=0.0, y0=0.0, step=1.0, nx=10, ny=10)
        rings = [np.array([[2, 2], [7, 2], [7, 7], [2, 7], [2, 2]], dtype=float)]
        m = polygon_mask(rings, grid)
        # pixel centers 2.5..6.5 inside → 5x5
        assert m.sum() == 25
        assert m[3, 3] and not m[1, 1] and not m[8, 8]

    def test_polygon_mask_hole(self):
        grid = Grid(x0=0.0, y0=0.0, step=1.0, nx=12, ny=12)
        rings = [
            np.array([[1, 1], [11, 1], [11, 11], [1, 11], [1, 1]], dtype=float),
            np.array([[4, 4], [8, 4], [8, 8], [4, 8], [4, 4]], dtype=float),
        ]
        m = polygon_mask(rings, grid)
        assert m[2, 2] and not m[5, 5]
        assert m.sum() == 100 - 16

    def test_trace_roundtrip(self):
        grid = Grid(x0=0.0, y0=0.0, step=1.0, nx=20, ny=20)
        rings = [
            np.array([[2, 2], [17, 2], [17, 17], [2, 17], [2, 2]], dtype=float),
            np.array([[6, 6], [6, 13], [13, 13], [13, 6], [6, 6]], dtype=float),  # hole (CW)
        ]
        m = polygon_mask(rings, grid)
        polys = mask_to_polygons(m, grid)
        assert len(polys) == 1
        outer, holes = polys[0]
        assert signed_area(outer) > 0
        assert len(holes) == 1
        assert signed_area(holes[0]) < 0
        # traced polygon classifies interior/exterior like the original
        test_pts = RNG.uniform(0, 20, (500, 2))
        truth = points_in_polygon(test_pts[:, 0], test_pts[:, 1], rings)
        got = points_in_polygon(test_pts[:, 0], test_pts[:, 1], [outer] + holes)
        # agreement except within one pixel of a boundary
        dist_to_edge = np.minimum.reduce(
            [np.abs(test_pts - v).min(axis=1) for v in (2, 17, 6, 13)]
        )
        agree = truth == got
        assert agree[dist_to_edge > 1.5].all()

    def test_trace_two_components(self):
        grid = Grid(x0=0.0, y0=0.0, step=1.0, nx=20, ny=10)
        m = np.zeros((10, 20), dtype=bool)
        m[2:5, 2:6] = True
        m[2:5, 12:16] = True
        polys = mask_to_polygons(m, grid)
        assert len(polys) == 2

    def test_distance_mask_disc_area(self):
        grid = Grid(x0=0.0, y0=0.0, step=0.1, nx=100, ny=100)
        m = distance_mask(np.array([[5.0, 5.0]]), 3.0, grid)
        area = m.sum() * grid.step**2
        assert area == pytest.approx(np.pi * 9.0, rel=0.02)

    def test_distance_mask_stadium(self):
        grid = Grid(x0=0.0, y0=0.0, step=0.05, nx=400, ny=200)
        m = distance_mask(np.array([[5.0, 5.0], [15.0, 5.0]]), 2.0, grid)
        area = m.sum() * grid.step**2
        expected = 10 * 4 + np.pi * 4  # rect + two half-discs
        assert area == pytest.approx(expected, rel=0.02)

    def test_polygon_cover_cells_roundtrip(self):
        ring = np.array(
            [[-122.1, 37.3], [-121.9, 37.3], [-121.9, 37.5], [-122.1, 37.5], [-122.1, 37.3]]
        )
        res = 14
        cov = polygon_cover_cells([ring], res)
        assert len(cov) > 0
        # every covered-cell center that is strictly inside is in the set
        lon, lat = cells.cell_center(cov)
        inside = points_in_polygon(lon, lat, [ring])
        assert inside.mean() > 0.5  # mostly interior cells (plus boundary ring)
        # and a dense sample of interior points maps only to covered cells
        spx = RNG.uniform(-122.09, -121.91, 300)
        spy = RNG.uniform(37.31, 37.49, 300)
        pc = cells.encode(spx, spy, res)
        assert np.isin(pc, cov).all()

    def test_cells_to_mask_roundtrip(self):
        ring = np.array(
            [[-122.1, 37.3], [-121.9, 37.3], [-121.9, 37.5], [-122.1, 37.5], [-122.1, 37.3]]
        )
        cov = polygon_cover_cells([ring], 14)
        mask, grid, sy = cells_to_mask(cov)
        assert mask.sum() == len(cov)
        polys = mask_to_polygons(mask, grid)
        assert len(polys) == 1
        # the vectorized boundary surrounds the polygon interior (marching
        # squares cuts corners by up to half a cell, so pull probe points
        # one cell inward from the exact boundary)
        dlon, dlat = cells.cell_size_degrees(14)
        mids = (ring[:-1] + ring[1:]) / 2
        pts = np.vstack([ring[:-1], mids])
        centroid = ring[:-1].mean(axis=0)
        shrink = pts + (centroid - pts) * np.array([2 * dlon, 2 * dlat]) / np.abs(
            centroid - pts + 1e-12
        ).clip(min=1e-9)
        assert points_in_polygon(shrink[:, 0], shrink[:, 1] * sy, [polys[0][0]]).all()


class TestBuffer:
    def test_disc_radius(self):
        ring = disc(-122.0, 37.5, 400.0)
        assert len(ring) == 33
        assert signed_area(ring) > 0
        mx, my = meter_frame(37.5)
        d = np.hypot((ring[:, 0] + 122.0) * mx, (ring[:, 1] - 37.5) * my)
        assert d == pytest.approx(400.0, rel=1e-6)

    def test_buffer_polyline(self):
        line = np.array([[-122.0, 37.0], [-121.99, 37.01], [-121.97, 37.012]])
        polys = buffer_polyline([line], 400.0)
        assert len(polys) == 1
        outer, holes = polys[0]
        assert holes == []
        # all line vertices inside the buffer
        assert points_in_polygon(line[:, 0], line[:, 1], [outer]).all()
        # a point 800m east of the east end is outside
        mx, _ = meter_frame(37.0)
        far = np.array([[-121.97 + 800.0 / mx, 37.012]])
        assert not points_in_polygon(far[:, 0], far[:, 1], [outer]).any()
        # a point 200m from the line is inside
        _, my = meter_frame(37.0)
        near = np.array([[-122.0, 37.0 + 200.0 / my]])
        assert points_in_polygon(near[:, 0], near[:, 1], [outer]).all()

    def test_earth_radius_matches_turf(self):
        assert EARTH_RADIUS_M == 6371008.8
