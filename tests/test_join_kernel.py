"""The flat join index and its loop-free kernel: the exact output table
against an in-test ``points_in_polygon`` replay, open and non-finite
rings, the batched supercover against a per-segment replay, rows just
outside the cover, and the index build pinned on the corridor buffers."""

import json
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from geotile.geom import cells
from geotile.geom.pip import points_in_polygon
from geotile.geom.raster import polygon_cover, supercover
from geotile.ops.join import FULL, SpatialJoinStage, build_route_index

GOLDENS = Path(__file__).parent / "goldens" / "agency"


def _batch(lon, lat):
    n = len(lon)
    return pa.table({
        "image_id": [f"img-{i:08d}" for i in range(n)],
        "caption": [f"c{i % 7}" for i in range(n)],
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
        "extra": pa.array(np.arange(n, dtype=np.int64) * 3),
    })


def _replay(batch, route_polygons, res):
    """The join by brute force: every input column plus ``cell``, then
    one row per (input row, route) whose polygons hold the point by
    ``points_in_polygon``; rows in input order, routes in id order."""
    lon = batch["lon"].to_numpy()
    lat = batch["lat"].to_numpy()
    valid = cells.valid_lonlat(lon, lat)
    route_ids = sorted(route_polygons)
    hit = np.zeros((len(lon), len(route_ids)), bool)
    for j, rid in enumerate(route_ids):
        for outer, holes in route_polygons[rid]:
            hit[:, j] |= points_in_polygon(lon, lat, [outer, *holes])
    rows, cols = np.nonzero(hit & valid[:, None])
    geo = batch.append_column("cell", pa.array(cells.encode(lon, lat, res).view(np.int64)))
    return geo.take(pa.array(rows)).append_column(
        "route_id", pa.array([route_ids[c] for c in cols], pa.string()))


def _quad(x0, y0, pts):
    return np.asarray(pts, np.float64) + [x0, y0]


def _zigzag_box(x0, y0, w, h, teeth, depth):
    """A closed box whose top edge is a saw of ``teeth`` teeth ``depth``
    deep: at res 14 several teeth share a cell, so a corner→point
    segment there crosses an even number of edges."""
    xs = np.linspace(x0 + w, x0, 2 * teeth + 1)
    ys = y0 + h - depth * (np.arange(2 * teeth + 1) % 2)
    ring = [[x0, y0], [x0 + w, y0]] + np.column_stack([xs, ys]).tolist() + [[x0, y0]]
    return np.asarray(ring, np.float64)


RES = 14  # cells ~0.022° × 0.011°: every polygon spans a few cells


def _routes():
    x0, y0 = -122.31, 37.41
    hole = _quad(x0 + 0.105, y0 + 0.012, [[0, 0], [0.021, 0.003], [0.017, 0.019], [0.002, 0.016], [0, 0]])
    return {
        # one route, two overlapping polygons: their overlap must not
        # yield a tile twice
        "A": [(_quad(x0, y0, [[0, 0], [0.061, 0.004], [0.057, 0.043], [-0.003, 0.039], [0, 0]]), []),
              (_quad(x0 + 0.031, y0 + 0.017, [[0, 0], [0.052, -0.002], [0.049, 0.036], [0.004, 0.031], [0, 0]]), [])],
        # another route whose polygon shares boundary cells with A
        "B": [(_quad(x0 + 0.055, y0 - 0.012, [[0, 0], [0.041, 0.003], [0.044, 0.029], [0.003, 0.026], [0, 0]]), [])],
        # a holed polygon with a saw-tooth edge, sharing cells with B
        "C": [(_zigzag_box(x0 + 0.09, y0, 0.05, 0.04, teeth=9, depth=0.006), [hole])],
    }


class TestKernelOutputTable:
    def _points(self):
        rng = np.random.default_rng(20)
        lon = rng.uniform(-122.32, -122.16, 40_000)
        lat = rng.uniform(37.39, 37.46, 40_000)
        # invalid rows interleaved with valid ones
        bad = [(np.nan, 37.42), (-122.25, np.nan), (np.inf, 37.42),
               (-122.25, -np.inf), (200.0, 37.42), (-122.25, 95.0)]
        at = rng.choice(len(lon), len(bad) * 20, replace=False)
        for k, i in enumerate(at):
            lon[i], lat[i] = bad[k % len(bad)]
        return lon, lat

    def test_table_equals_pip_replay(self):
        routes = _routes()
        lon, lat = self._points()
        batch = _batch(lon, lat)
        got = SpatialJoinStage(build_route_index(routes, res=RES))(batch)
        want = _replay(batch, routes, RES)
        assert got.column_names == batch.column_names + ["cell", "route_id"]
        assert got.equals(want)
        # the cases are exercised: A's overlap, all three routes, holes
        ids = got["image_id"].to_numpy(zero_copy_only=False)
        rid = got["route_id"].to_numpy(zero_copy_only=False)
        pairs = set(zip(ids, rid))
        assert len(pairs) == got.num_rows  # no duplicate (image_id, route_id)
        both = [points_in_polygon(lon, lat, [o]) for o, _ in routes["A"]]
        assert (both[0] & both[1]).sum() > 100
        assert {"A", "B", "C"} <= set(rid)
        outer, (hole,) = routes["C"][0]
        in_hole = points_in_polygon(lon, lat, [hole]) & points_in_polygon(lon, lat, [outer])
        assert in_hole.sum() > 10
        assert not set(np.asarray(batch["image_id"].to_pylist())[in_hole]) & set(ids[rid == "C"])

    def test_rows_in_input_then_route_order(self):
        routes = _routes()
        lon, lat = self._points()
        got = SpatialJoinStage(build_route_index(routes, res=RES))(_batch(lon, lat))
        row = got["extra"].to_numpy() // 3
        route = np.searchsorted(sorted(routes), got["route_id"].to_numpy(zero_copy_only=False))
        key = row * len(routes) + route
        assert (np.diff(key) > 0).all()


class TestRingInput:
    """``build_route_index`` closes rings with ``points_in_polygon``'s
    rule and rejects non-finite vertices."""

    @pytest.mark.parametrize("x0,y0", [(0.0005, 0.0003), (0.00071, 0.0003), (-122.2, 37.4)])
    def test_open_ring_joins_like_closed_copy(self, x0, y0):
        quad = _quad(x0, y0, [[0, 0], [0.0213, 0.0017], [0.0188, 0.0149], [-0.0021, 0.0131]])
        rng = np.random.default_rng(5)
        lon = rng.uniform(x0 - 0.005, x0 + 0.026, 50_000)
        lat = rng.uniform(y0 - 0.003, y0 + 0.018, 50_000)
        batch = _batch(lon, lat)
        open_ = SpatialJoinStage(build_route_index({"q": [(quad, [])]}))(batch)
        closed = SpatialJoinStage(build_route_index({"q": [(np.vstack([quad, quad[:1]]), [])]}))(batch)
        assert open_.equals(closed)
        assert open_.equals(_replay(batch, {"q": [(quad, [])]}, 18))

    @pytest.mark.parametrize("where", ["outer", "hole"])
    def test_non_finite_vertex_names_route_and_polygon(self, where):
        box = _quad(-122.3, 37.4, [[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01], [0, 0]])
        hole = _quad(-122.297, 37.403, [[0, 0], [0.002, 0], [0.002, 0.002], [0, 0]])
        bad = hole.copy() if where == "hole" else box.copy()
        bad[2, 1] = np.nan
        poly = (box, [bad]) if where == "hole" else (bad, [hole])
        with pytest.raises(ValueError, match=r"route 'R2' polygon 1"):
            build_route_index({"R1": [(box, [])], "R2": [(box, [hole]), poly]})


def _segment_cells(ax, ay, bx, by):
    """Per-segment replay of the parametric supercover in lattice units:
    split at every grid-line crossing, take each piece's midpoint cell."""
    dx, dy = bx - ax, by - ay
    ts = [np.array([0.0, 1.0])]
    if dx != 0.0:
        gx = np.arange(np.ceil(min(ax, bx)), np.floor(max(ax, bx)) + 1)
        ts.append((gx - ax) / dx)
    if dy != 0.0:
        gy = np.arange(np.ceil(min(ay, by)), np.floor(max(ay, by)) + 1)
        ts.append((gy - ay) / dy)
    t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
    tm = (t[:-1] + t[1:]) / 2.0
    ix = np.floor(ax + dx * tm).astype(np.int64)
    iy = np.floor(ay + dy * tm).astype(np.int64)
    return set(zip(ix.tolist(), iy.tolist()))


class TestSupercover:
    def _segments(self):
        rng = np.random.default_rng(11)
        rand = rng.uniform(-6, 6, (300, 4))
        rand[:100] *= 0.2  # short ones, inside one or two cells
        horiz = np.column_stack([rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30), np.zeros(30)])
        horiz[:, 3] = horiz[:, 1]
        vert = np.column_stack([rng.uniform(-5, 5, 30), rng.uniform(-5, 5, 30), np.zeros(30), rng.uniform(-5, 5, 30)])
        vert[:, 2] = vert[:, 0]
        zero = np.repeat(rng.uniform(-5, 5, (20, 2)), 2, axis=1)[:, [0, 2, 1, 3]]
        zero[:5] = np.round(zero[:5])  # points on lattice corners
        on_lines = np.array([
            [2.0, -3.5, 2.0, 4.25], [-1.5, -1.0, 3.5, -1.0], [0.0, 0.0, 3.0, 3.0],
            [3.0, 0.0, 0.0, 3.0], [-2.0, 1.0, 4.0, 1.0], [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 4.0, 2.0], [-3.0, -3.0, -3.0, -3.0 + 1e-12],
        ])
        nonfinite = np.array([
            [np.nan, 0.0, 1.0, 1.0], [0.0, 0.0, np.inf, 1.0], [0.0, -np.inf, 1.0, 1.0],
            [0.5, 0.5, 1.5, np.nan],
        ])
        segs = np.vstack([rand, horiz, vert, zero, on_lines, nonfinite])
        return segs, len(segs) - len(nonfinite)

    def test_matches_per_segment_replay(self):
        segs, n_finite = self._segments()
        seg, ix, iy = supercover(segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3])
        got: dict[int, set] = {}
        for s, x, y in zip(seg.tolist(), ix.tolist(), iy.tolist()):
            got.setdefault(s, set()).add((x, y))
        for i, (ax, ay, bx, by) in enumerate(segs[:n_finite]):
            assert got.get(i) == _segment_cells(ax, ay, bx, by), i
        assert not set(got) - set(range(n_finite))  # non-finite: no cells
        # unique and sorted by (seg, ix, iy)
        key = np.column_stack([seg, ix, iy])
        assert len({tuple(k) for k in key.tolist()}) == len(key)
        assert (np.lexsort((iy, ix, seg)) == np.arange(len(seg))).all()


def _corridor_buffers():
    gj = json.loads((GOLDENS / "lines-buffer.geojson").read_text())
    out = {}
    for f in gj["features"]:
        g = f["geometry"]
        polys = [g["coordinates"]] if g["type"] == "Polygon" else g["coordinates"]
        out[f["properties"]["route_id"]] = [
            (np.asarray(p[0], np.float64), [np.asarray(h, np.float64) for h in p[1:]])
            for p in polys]
    return out


def _ring_points(route_polygons, res, seed):
    """Rows in every cell one ring outside each polygon's cover: its
    centre, its four corners and four random points."""
    rng = np.random.default_rng(seed)
    pts = []
    for polys in route_polygons.values():
        for outer, holes in polys:
            cov = polygon_cover([outer, *holes], res)[0]
            ix, iy = cells.to_ixy(cov)
            d = np.arange(-1, 2)
            ring = np.setdiff1d(cells.from_ixy(
                (ix[:, None] + np.repeat(d, 3)).ravel(),
                (iy[:, None] + np.tile(d, 3)).ravel(), res), cov)
            w, s, e, n = cells.cell_bounds(ring)
            u = rng.uniform(0.0, 1.0, (4, len(ring)))
            v = rng.uniform(0.0, 1.0, (4, len(ring)))
            pts.append(np.column_stack([
                np.concatenate([(w + e) / 2, w, e, w, e, *(w + (e - w) * u)]),
                np.concatenate([(s + n) / 2, s, s, n, n, *(s + (n - s) * v)])]))
    return np.vstack(pts)


def _assert_every_record_has_an_edge(idx):
    rec = idx.cell_bnd[idx.cell_bnd != FULL]
    assert (rec >= 0).all()
    assert (np.diff(idx.bnd_offs)[rec] > 0).all()


@pytest.mark.parametrize("case", ["corridor", "holed"])
def test_rows_outside_the_cover_join_like_replay(case):
    """The index holds only each polygon's exact cover: rows in the cells
    just outside it (in a hole too) join exactly as the brute force."""
    routes = _corridor_buffers() if case == "corridor" else _routes()
    xy = _ring_points(routes, 18, 3)
    if case == "holed":  # ring cells inside the saw-tooth polygon's hole
        (hole,) = routes["C"][0][1]
        assert points_in_polygon(xy[:, 0], xy[:, 1], [hole]).sum() > 100
    batch = _batch(xy[:, 0], xy[:, 1])
    idx = build_route_index(routes, res=18)
    _assert_every_record_has_an_edge(idx)
    got = SpatialJoinStage(idx)(batch)
    assert got.equals(_replay(batch, routes, 18))
    assert got.num_rows > 0  # corners and ring rows of other polygons


def test_corridor_index_pinned():
    """The exact cover of the caltrain 400 m buffers (the join
    benchmark's polygons): counts and digests of the CSR pinned."""
    idx = build_route_index(_corridor_buffers())

    def digest(a):
        return blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()

    assert len(idx.cell_keys) == 10307 and len(idx.cell_polys) == 20099
    assert len(idx.bnd_x) == 6096
    assert digest(idx.cell_keys.astype("<u8")) == "58df176e869e19a788088f24d621d79d"
    assert digest(idx.cell_polys.astype("<i4")) == "79f5ac1ecaa4fff7c75050f74e17b0e1"
    assert digest(idx.cell_full.astype(np.uint8)) == "6c75a3e478de8c2a90f56a4c39c2b667"
    _assert_every_record_has_an_edge(idx)
    # one route per polygon, and polygon ids rise with the route
    pr = np.unique(np.column_stack([idx.cell_polys, idx.cell_route]), axis=0)
    assert len(np.unique(pr[:, 0])) == len(pr)
    assert (np.diff(pr[:, 1]) >= 0).all()
