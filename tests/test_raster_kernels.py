"""Bit-identity of the GTFS raster kernels against scalar replays.

Each kernel is compared with an in-test pure-Python replay of the
straightforward algorithm (per-span RDP loop, per-cell marching-squares
case table with a dict chainer, per-float half-up rounding). The replays
do not import the code under test, so a vectorization that changes a
single bit, a tie-break or a ring start fails here."""

import math

import numpy as np
import pytest

from battery.geom.lattice import keys_to_lonlat, window_segment_keys
from geotile.geojson import simplify_feature
from geotile.geom import cells
from geotile.geom.raster import Grid, chain_ring_keys, trace_mask
from geotile.geom.rdp import rdp

# ---------------------------------------------------------------------------
# RDP
# ---------------------------------------------------------------------------


def _rdp_keep_replay(xs, ys, tolerance):
    """Keep mask of a scalar RDP with the arithmetic of
    oracle_ref.rdp_keep_count (same expression order, first-argmax tie
    rule, same clamp). One rule is added for NaN: a NaN distance makes
    the span's max NaN, and a NaN max never exceeds the tolerance."""
    n = len(xs)
    keep = [True] * n
    if n <= 2 or tolerance <= 0:
        return keep
    keep = [False] * n
    keep[0] = keep[-1] = True
    tol2 = tolerance * tolerance
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        ax, ay = xs[lo], ys[lo]
        bx, by = xs[hi], ys[hi]
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        best_d2, best_i, has_nan = -1.0, -1, False
        for i in range(lo + 1, hi):
            sx, sy = xs[i], ys[i]
            if L2 == 0.0:
                d2 = (sx - ax) ** 2 + (sy - ay) ** 2
            else:
                t = ((sx - ax) * dx + (sy - ay) * dy) / L2
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                d2 = (sx - (ax + t * dx)) ** 2 + (sy - (ay + t * dy)) ** 2
            if d2 != d2:
                has_nan = True
            elif d2 > best_d2:
                best_d2, best_i = d2, i
        if not has_nan and best_d2 > tol2:
            keep[best_i] = True
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return keep


def _rdp_cases():
    rng = np.random.default_rng(20)
    yield np.column_stack([np.linspace(0, 9, 10), np.zeros(10)]), 0.1  # collinear run
    yield np.array([[0, 0], [1, 1], [2, 0], [3, 1], [4, 0], [3, -1], [4, 0]], float), 0.5
    # 1e16 + (0.1 - 1e16) rounds to 0, so the first split lands on a copy
    # of the last point: one level then holds a proper span and an
    # L2 == 0 span side by side
    yield np.array([[1e16, 0], [5e15, 0], [0.1, 0], [0.05, 0], [0.1, 0]]), 1e-3
    for _ in range(40):  # integer-grid walks: many exact distance ties
        m = int(rng.integers(3, 60))
        pts = np.cumsum(rng.integers(-1, 2, (m, 2)), axis=0).astype(float)
        yield pts, float(rng.choice([0.5, 1.0, 1.5]))
    for _ in range(40):  # closed rings: L2 == 0 at the top level
        m = int(rng.integers(3, 60))
        pts = np.cumsum(rng.normal(0, 1, (m, 2)), axis=0)
        yield np.vstack([pts, pts[:1]]), float(rng.choice([0.2, 1.0]))
    pts = np.cumsum(rng.normal(0, 1, (30, 2)), axis=0)
    yield pts, 0.0  # tolerance 0 keeps everything
    yield pts[:1], 1.0  # n <= 2
    yield pts[:2], 1.0
    nan_mid = pts.copy()
    nan_mid[12] = np.nan
    yield nan_mid, 0.5
    nan_end = pts.copy()
    nan_end[-1, 0] = np.nan
    yield nan_end, 0.5


def test_rdp_matches_scalar_replay_bit_for_bit():
    n_cases = 0
    with np.errstate(invalid="ignore"):
        for pts, tol in _rdp_cases():
            keep = _rdp_keep_replay(pts[:, 0].tolist(), pts[:, 1].tolist(), tol)
            expect = pts[np.array(keep, dtype=bool)]
            got = rdp(pts, tol)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
            n_cases += 1
    assert n_cases == 88


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

# doubled-node offset of the S, E, N, W edge midpoints from (2ix, 2iy)
_MID = {"S": (1, 0), "E": (2, 1), "N": (1, 2), "W": (0, 1)}
# case = v00 | v10<<1 | v11<<2 | v01<<3 → directed (from, to) segments,
# filled side on the left; saddles 5 and 10 keep the diagonal apart
_CASES = {
    1: ["SW"], 2: ["ES"], 3: ["EW"], 4: ["NE"], 5: ["SW", "NE"], 6: ["NS"],
    7: ["NW"], 8: ["WN"], 9: ["SN"], 10: ["ES", "WN"], 11: ["EN"],
    12: ["WE"], 13: ["SE"], 14: ["WS"],
}


def _trace_replay(mask):
    """Per-cell replay of the marching-squares case table plus the dict
    chainer: ring key lists in chaining order, keys = x * key_mult + y
    over doubled node coords of the 1-pixel-padded mask."""
    ny, nx = mask.shape
    m = np.zeros((ny + 2, nx + 2), dtype=int)
    m[1:-1, 1:-1] = mask
    key_mult = 2 * (ny + 3)
    nxt, seen_cases = {}, set()
    for iy in range(ny + 1):
        for ix in range(nx + 1):
            c = (m[iy, ix] | m[iy, ix + 1] << 1 | m[iy + 1, ix + 1] << 2
                 | m[iy + 1, ix] << 3)
            seen_cases.add(int(c))
            for frm, to in _CASES.get(int(c), []):
                fx, fy = 2 * ix + _MID[frm][0], 2 * iy + _MID[frm][1]
                tx, ty = 2 * ix + _MID[to][0], 2 * iy + _MID[to][1]
                nxt[fx * key_mult + fy] = tx * key_mult + ty
    rings, visited = [], set()
    for start in sorted(nxt):
        if start in visited:
            continue
        ring = [start]
        visited.add(start)
        cur = nxt[start]
        while cur != start:
            ring.append(cur)
            visited.add(cur)
            cur = nxt[cur]
        ring.append(start)
        rings.append(ring)
    return rings, key_mult, seen_cases


def _random_masks():
    rng = np.random.default_rng(7)
    for _ in range(60):
        ny, nx = (int(v) for v in rng.integers(1, 24, 2))
        yield rng.random((ny, nx)) < rng.uniform(0.1, 0.9)
    yield np.zeros((5, 7), dtype=bool)
    yield np.ones((4, 3), dtype=bool)
    yield np.eye(6, dtype=bool)  # diagonal chain: saddles everywhere


def test_trace_mask_matches_per_cell_replay():
    cases_seen = set()
    for mask in _random_masks():
        grid = Grid(x0=-3.25, y0=1.5, step=0.5, nx=mask.shape[1], ny=mask.shape[0])
        rings, key_mult, seen = _trace_replay(mask)
        cases_seen |= seen
        expect = []
        for ring in rings:
            kx = np.array([k // key_mult for k in ring], dtype=np.int64)
            ky = np.array([k % key_mult for k in ring], dtype=np.int64)
            wx = grid.x0 + (kx / 2.0 - 1.0 + 0.5) * grid.step
            wy = grid.y0 + (ky / 2.0 - 1.0 + 0.5) * grid.step
            expect.append(np.column_stack([wx, wy]))
        got = trace_mask(mask, grid)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g.tobytes() == e.tobytes()
    assert {5, 10} <= cases_seen  # both saddles exercised


def test_global_segments_chain_to_the_same_rings():
    """window_segment_keys + chain_ring_keys + keys_to_lonlat on the mask
    shifted into global cells give trace_mask's rings: same order, same
    vertices (compared as doubled node coords)."""
    res = 14
    dlon, dlat = cells.cell_size_degrees(res)
    for k, mask in enumerate(_random_masks()):
        ox, oy = 5000 + 37 * k, 3000 + 11 * k  # global cell of pixel (0, 0)
        grid = Grid(x0=0.0, y0=0.0, step=1.0, nx=mask.shape[1], ny=mask.shape[0])
        local = trace_mask(mask, grid)
        m = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.int64)
        m[1:-1, 1:-1] = mask
        case = m[:-1, :-1] | (m[:-1, 1:] << 1) | (m[1:, 1:] << 2) | (m[1:, :-1] << 3)
        jy, jx = np.nonzero(case)
        frm, to = window_segment_keys(jx - 1 + ox, jy - 1 + oy, case[jy, jx], res)
        rings = [keys_to_lonlat(r, res) for r in chain_ring_keys(frm, to)]
        assert len(rings) == len(local)
        for g, e in zip(rings, local):
            gx = np.rint(((g[:, 0] + 180.0) / dlon - 0.5) * 2).astype(np.int64) - 2 * ox
            gy = np.rint(((g[:, 1] + 90.0) / dlat - 0.5) * 2).astype(np.int64) - 2 * oy
            ex = np.rint((e[:, 0] - 0.5) * 2).astype(np.int64)
            ey = np.rint((e[:, 1] - 0.5) * 2).astype(np.int64)
            assert gx.tolist() == ex.tolist()
            assert gy.tolist() == ey.tolist()


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def _round_replay(c, p):
    if isinstance(c, (int, float)):
        scale = 10.0 ** p
        return math.floor(float(c) * scale + 0.5) / scale
    return [_round_replay(x, p) for x in c]


@pytest.mark.parametrize("gtype,coords", [
    ("Point", [100.125, -0.375]),
    # zigzags with deviations far above the 0.01 tolerance: RDP keeps all
    ("LineString", [[100.125, 0.375], [101.375, 3.125], [102.125, -0.125]]),
    ("Polygon", [[[0.125, 0.125], [4.375, 0.125], [4.375, 3.375],
                  [0.125, 3.375], [0.125, 0.125]]]),
    # MultiPolygon is rounded but not simplified: the collinear midpoint
    # of the first edge survives
    ("MultiPolygon", [[[[0.125, 0.125], [2.375, 0.125], [4.625, 0.125],
                        [4.625, 3.375], [0.125, 0.125]]],
                      [[[-1.125, -1.375], [-0.875, -1.375], [-0.875, -0.625],
                        [-1.125, -1.375]]]]),
])
def test_simplify_feature_rounds_half_up(gtype, coords):
    f = {"type": "Feature", "properties": {},
         "geometry": {"type": gtype, "coordinates": coords}}
    got = simplify_feature(f, 2)["geometry"]["coordinates"]
    assert got == _round_replay(coords, 2)
    assert f["geometry"]["coordinates"] is coords  # input left untouched


def test_simplify_feature_rejects_nan_coordinate():
    f = {"type": "Feature", "properties": {},
         "geometry": {"type": "Point", "coordinates": [float("nan"), 1.0]}}
    with pytest.raises(ValueError):
        simplify_feature(f, 5)
