"""Raster↔vector conversion — from-scratch replacement for polygon
buffering/union (@turf/buffer, @turf/union in the reference:
src/lib/formats/lines-buffer.ts:12, src/lib/geojson-utils.ts:159-170)
and the north_rule's "rasterize route buffers into tile masks and
vectorize tile coverage back to polygons".

Pipeline pieces (all pure numpy):

  polygon_mask      rings → boolean pixel mask (even-odd scanline fill)
  distance_mask     polyline + radius → mask of pixels within radius
                    (this IS the line buffer, computed exactly per pixel)
  trace_mask        boolean mask → closed boundary rings via marching
                    squares (deterministic; outer rings CCW, holes CW,
                    filled region always on the LEFT of travel): one
                    scan finds the boundary windows, one case-table
                    gather emits their segments, chain_ring_keys links
                    them — work beyond the scan is O(perimeter)
  mask_to_polygons  rings → [(outer, [holes])] with hole containment
  polygon_cover / cells_to_mask
                    polygon ↔ cell-id set at a cells.py resolution; the
                    boundary part is one batched ``supercover`` over
                    every edge

Frames: a ``Grid`` is an axis-aligned frame with pixel (ix, iy) center
at (x0 + (ix+0.5)*step, y0 + (iy+0.5)*step); y increases upward so the
usual CCW = positive-signed-area convention holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geotile.geom import cells as cellmod
from geotile.geom.pip import close_rings, points_in_polygon, signed_area


@dataclass(frozen=True)
class Grid:
    x0: float
    y0: float
    step: float
    nx: int
    ny: int

    def centers_x(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.step

    def centers_y(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.step


def polygon_mask(
    rings: list[np.ndarray], grid: Grid,
    window: tuple[int, int, int, int] | None = None,
) -> np.ndarray:
    """Even-odd scanline fill of a polygon (outer ring + holes) into a
    boolean (ny, nx) mask: pixel is filled iff its CENTER is inside.

    ``window=(i0, i1, j0, j1)`` fills only that sub-rectangle (shape
    (j1-j0, i1-i0)) — ALL arithmetic stays in the full grid's frame
    (crossings strictly left of the window fold into its first column,
    preserving parity), so the windowed fill is BIT-IDENTICAL to the
    corresponding slice of the full fill.  This is the dissolve's
    per-feature fast path: a small disc fills a ~17x17 window instead
    of allocating and cumsumming the whole metro grid."""
    if window is None:
        i0, i1, j0, j1 = 0, grid.nx, 0, grid.ny
    else:
        i0, i1, j0, j1 = window
        if i1 <= i0 or j1 <= j0:  # fully outside the grid
            return np.zeros((max(0, j1 - j0), max(0, i1 - i0)), bool)
    mask_acc = np.zeros((j1 - j0, i1 - i0), dtype=np.int32)
    yc = grid.centers_y()
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        if len(r) < 3:
            continue
        if not (r[0] == r[-1]).all():
            r = np.vstack([r, r[:1]])
        x1, y1 = r[:-1, 0], r[:-1, 1]
        x2, y2 = r[1:, 0], r[1:, 1]
        keep = y1 != y2
        x1, y1, x2, y2 = x1[keep], y1[keep], x2[keep], y2[keep]
        if len(x1) == 0:
            continue
        # rows each edge crosses: half-open [min_y, max_y)
        lo = np.minimum(y1, y2)
        hi = np.maximum(y1, y2)
        r0 = np.ceil((lo - grid.y0) / grid.step - 0.5).astype(np.int64)
        r1 = np.ceil((hi - grid.y0) / grid.step - 0.5).astype(np.int64)
        np.clip(r0, j0, j1, out=r0)
        np.clip(r1, j0, j1, out=r1)
        for e in range(len(x1)):
            rows = np.arange(r0[e], r1[e])
            if len(rows) == 0:
                continue
            y = yc[rows]
            xint = x1[e] + (y - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
            # c0 = first pixel index whose center is >= the crossing; the
            # crossing is "to the left" of pixels ix >= c0
            c0 = np.ceil((xint - grid.x0) / grid.step - 0.5).astype(np.int64)
            valid = c0 < i1
            rows, c0 = rows[valid], np.maximum(c0[valid] - i0, 0)
            np.add.at(mask_acc, (rows - j0, c0), 1)
    parity = np.cumsum(mask_acc, axis=1)  # crossings at-or-left of each pixel center
    return (parity % 2).astype(bool)


def distance_mask(line: np.ndarray, radius: float, grid: Grid) -> np.ndarray:
    """Mask of pixels whose center lies within ``radius`` of the polyline
    — the exact raster of a round-capped/round-joined line buffer.
    Vectorized per segment over the segment's local pixel window."""
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    pts = np.asarray(line, dtype=np.float64)
    if len(pts) == 0:
        return mask
    xc = grid.centers_x()
    yc = grid.centers_y()
    segs = zip(pts[:-1], pts[1:]) if len(pts) > 1 else [(pts[0], pts[0])]
    for a, b in segs:
        xmin = min(a[0], b[0]) - radius
        xmax = max(a[0], b[0]) + radius
        ymin = min(a[1], b[1]) - radius
        ymax = max(a[1], b[1]) + radius
        i0 = max(0, int(np.floor((xmin - grid.x0) / grid.step - 0.5)))
        i1 = min(grid.nx, int(np.ceil((xmax - grid.x0) / grid.step + 0.5)))
        j0 = max(0, int(np.floor((ymin - grid.y0) / grid.step - 0.5)))
        j1 = min(grid.ny, int(np.ceil((ymax - grid.y0) / grid.step + 0.5)))
        if i0 >= i1 or j0 >= j1:
            continue
        X = xc[i0:i1][None, :]
        Y = yc[j0:j1][:, None]
        dx, dy = b[0] - a[0], b[1] - a[1]
        L2 = dx * dx + dy * dy
        if L2 == 0.0:
            d2 = (X - a[0]) ** 2 + (Y - a[1]) ** 2
        else:
            t = np.clip(((X - a[0]) * dx + (Y - a[1]) * dy) / L2, 0.0, 1.0)
            d2 = (X - (a[0] + t * dx)) ** 2 + (Y - (a[1] + t * dy)) ** 2
        mask[j0:j1, i0:i1] |= d2 <= radius * radius
    return mask


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------
# Case index = v00 | v10<<1 | v11<<2 | v01<<3 where v00 is the pixel at
# (ix, iy), v10 at (ix+1, iy), v11 at (ix+1, iy+1), v01 at (ix, iy+1),
# y-up. Each case emits directed segments between edge midpoints with
# the FILLED side on the left of travel. Midpoints in doubled-integer
# node space (node (ix,iy) = pixel center): S=(2ix+1,2iy), E=(2ix+2,2iy+1),
# N=(2ix+1,2iy+2), W=(2ix,2iy+1). Saddles (5, 10) are resolved as
# "diagonal not connected" (4-connectivity of the filled region).

_S, _E, _N, _W = 0, 1, 2, 3
_CASE_SEGMENTS: dict[int, list[tuple[int, int]]] = {
    1: [(_S, _W)],
    2: [(_E, _S)],
    3: [(_E, _W)],
    4: [(_N, _E)],
    5: [(_S, _W), (_N, _E)],
    6: [(_N, _S)],
    7: [(_N, _W)],
    8: [(_W, _N)],
    9: [(_S, _N)],
    10: [(_E, _S), (_W, _N)],
    11: [(_E, _N)],
    12: [(_W, _E)],
    13: [(_S, _E)],
    14: [(_W, _S)],
}


# doubled-node offset of each edge midpoint from its window's (2ix, 2iy)
_MID_DX = np.array([1, 2, 1, 0], dtype=np.int64)
_MID_DY = np.array([0, 1, 2, 1], dtype=np.int64)
# case → up to two (from, to) midpoint pairs; -1 pads the unused slot
_SEG_TABLE = np.full((16, 2, 2), -1, dtype=np.int64)
for _c, _segs in _CASE_SEGMENTS.items():
    _SEG_TABLE[_c, :len(_segs)] = _segs


def _emit_segments(
    ix: np.ndarray, iy: np.ndarray, case: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every directed contour segment of the windows anchored at (ix, iy)
    with marching-squares ``case``, in one ``_SEG_TABLE`` gather (cases 0
    and 15 emit nothing). Returns doubled-node (fx, fy, tx, ty)."""
    seg = _SEG_TABLE[case].reshape(-1, 2)  # window-major, slot-minor
    live = seg[:, 0] >= 0
    seg = seg[live]
    x2 = (2 * ix).repeat(2)[live]
    y2 = (2 * iy).repeat(2)[live]
    frm, to = seg[:, 0], seg[:, 1]
    return x2 + _MID_DX[frm], y2 + _MID_DY[frm], x2 + _MID_DX[to], y2 + _MID_DY[to]


def trace_mask(mask: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Boolean (ny, nx) mask → list of closed rings in world coords.
    Outer rings are CCW (signed_area > 0), holes CW. Deterministic:
    rings start at the smallest doubled-integer key and are returned
    sorted by that key (``chain_ring_keys``). One scan finds the
    boundary windows; only those are classified into segments."""
    m = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.uint8)
    m[1:-1, 1:-1] = mask
    case = m[:-1, :-1] | (m[:-1, 1:] << 1) | (m[1:, 1:] << 2) | (m[1:, :-1] << 3)
    w = np.flatnonzero((case != 0) & (case != 15))
    jy, jx = np.divmod(w, case.shape[1])
    fx, fy, tx, ty = _emit_segments(jx, jy, case.ravel()[w])
    # keys pack doubled (x, y) node coords as x*key_mult + y; y ranges up
    # to 2*(ny+1)+2, so the multiplier must exceed that
    key_mult = np.int64(2 * (mask.shape[0] + 3))
    rings: list[np.ndarray] = []
    for arr in chain_ring_keys(fx * key_mult + fy, tx * key_mult + ty):
        kx = arr // key_mult
        ky = arr % key_mult
        # doubled node coords → world: node = k/2 - 1 (padding), pixel
        # center world = origin + (node + 0.5) * step
        wx = grid.x0 + (kx / 2.0 - 1.0 + 0.5) * grid.step
        wy = grid.y0 + (ky / 2.0 - 1.0 + 0.5) * grid.step
        rings.append(np.column_stack([wx, wy]))
    return rings


def mask_to_polygons(mask: np.ndarray, grid: Grid) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Mask → list of (outer_ring, [hole_rings]): orientation splits
    outers from holes; each hole is assigned to the smallest-area outer
    that contains its interior-leaning probe point."""
    return rings_to_polygons(trace_mask(mask, grid))


def _contains(pt: np.ndarray, ring: np.ndarray) -> bool:
    return bool(points_in_polygon(np.array([pt[0]]), np.array([pt[1]]), [ring])[0])


# ---------------------------------------------------------------------------
# polygon ↔ cell-id set (the H3-mask side of raster↔vector)
# ---------------------------------------------------------------------------

def polygon_cover(
    rings: list[np.ndarray], res: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cell cover of a polygon at a cells.py resolution ``res``, with
    its parts: ``(cover, interior, edge, edge_cell)``.

    ``cover`` holds every cell whose center is inside (scanline) plus
    every cell a boundary edge crosses (one batched ``supercover``) — a
    superset of the true intersection set, which is fine for join
    candidate generation. ``interior`` is the FULLY-INSIDE subset (center
    inside, crossed by no edge): points there are inside the polygon
    with no further test. ``(edge[i], edge_cell[i])`` are the (edge,
    cell) crossings, one per pair; edges are numbered in ring order over
    the ``pip.close_rings`` rings. Cell ids are sorted and unique."""
    rings = close_rings(rings)
    empty = np.empty(0, np.uint64)
    if not rings:
        return empty, empty, np.empty(0, np.int64), empty
    dlon, dlat = cellmod.cell_size_degrees(res)
    allx = np.concatenate([r[:, 0] for r in rings])
    ally = np.concatenate([r[:, 1] for r in rings])
    n = 1 << res
    ix_min = int(np.floor((allx.min() + 180.0) / dlon)) - 1
    iy_min = int(np.floor((ally.min() + 90.0) / dlat)) - 1
    # local frame origin aligned with the global cell lattice
    x0 = -180.0 + ix_min * dlon
    nx = int(np.ceil((allx.max() + 180.0) / dlon)) - ix_min + 2
    ny = int(np.ceil((ally.max() + 90.0) / dlat)) - iy_min + 2
    # center-inside fill: reuse polygon_mask on a lon-scaled frame.
    # polygon_mask assumes square steps, so scale lat into lon units.
    sy = dlon / dlat
    scaled = [np.column_stack([r[:, 0], r[:, 1] * sy]) for r in rings]
    g = Grid(x0=x0, y0=(-90.0 + iy_min * dlat) * sy, step=dlon, nx=nx, ny=ny)
    inside = polygon_mask(scaled, g)
    # boundary supercover in the local frame: every cell an edge passes
    # through (exact parametric traversal — no false negatives)
    a = np.vstack([r[:-1] for r in rings])
    b = np.vstack([r[1:] for r in rings])
    edge_i, jx, jy = supercover(
        (a[:, 0] + 180.0) / dlon - ix_min, (a[:, 1] + 90.0) / dlat - iy_min,
        (b[:, 0] + 180.0) / dlon - ix_min, (b[:, 1] + 90.0) / dlat - iy_min,
    )
    edge = np.zeros_like(inside)  # the padded frame holds every edge
    edge[jy, jx] = True

    def _ids(jx: np.ndarray, jy: np.ndarray) -> np.ndarray:
        # CLAMP, matching cells._quantize (and its SQL oracle replay):
        # a % n wrap sent east-edge cells to column 0 while encode()
        # clamps points at lon=180 to column n-1 — the one disagreement
        # that could produce a candidate-pruning FALSE NEGATIVE at the
        # antimeridian (out of the engine's meter-frame domain, but the
        # no-false-negative invariant should not depend on that)
        gx = np.clip(jx + ix_min, 0, n - 1)
        gy = np.clip(jy + iy_min, 0, n - 1)
        return cellmod.from_ixy(gx.astype(np.uint64), gy.astype(np.uint64), res)

    # the clamp can fold two cells of one edge into one: keep each pair
    # once (cell ids stay below 2**63, so the int64 view keeps order)
    crossing = np.unique(np.column_stack([edge_i, _ids(jx, jy).view(np.int64)]), axis=0)
    return (np.unique(_ids(*np.nonzero(inside | edge)[::-1])),
            np.unique(_ids(*np.nonzero(inside & ~edge)[::-1])),
            crossing[:, 0], crossing[:, 1].view(np.uint64))


def polygon_cover_cells(rings: list[np.ndarray], res: int) -> np.ndarray:
    """uint64 cell ids (cells.py, resolution ``res``) that the polygon
    touches: ``polygon_cover``'s cover."""
    return polygon_cover(rings, res)[0]


def supercover(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every lattice cell each segment (ax, ay)→(bx, by) passes through,
    for many segments in one pass. Coordinates are in lattice units:
    cell (ix, iy) spans [ix, ix+1) × [iy, iy+1). Exact parametric
    traversal: each segment is split at every grid-line crossing and the
    cell holding each piece's midpoint is taken. Returns int64
    ``(seg, ix, iy)``, unique and sorted by (seg, ix, iy); ``seg``
    indexes the input. A segment with a non-finite endpoint covers
    nothing."""
    ax, ay, bx, by = (np.asarray(v, np.float64).ravel() for v in (ax, ay, bx, by))
    seg = np.flatnonzero(np.isfinite(ax) & np.isfinite(ay)
                         & np.isfinite(bx) & np.isfinite(by))
    ax, ay, bx, by = ax[seg], ay[seg], bx[seg], by[seg]
    dx, dy = bx - ax, by - ay
    every = np.arange(len(seg))
    ts, owner = [np.zeros(len(seg)), np.ones(len(seg))], [every, every]
    for a, b, d in ((ax, bx, dx), (ay, by, dy)):
        # the integer grid lines in [a, b] along this axis, as t values
        lo = np.ceil(np.minimum(a, b))
        hi = np.floor(np.maximum(a, b))
        cnt = np.where(d != 0.0, np.maximum(hi - lo + 1.0, 0.0), 0.0).astype(np.int64)
        own = np.repeat(every, cnt)
        k = np.arange(len(own)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ts.append((lo[own] + k - a[own]) / d[own])
        owner.append(own)
    t = np.clip(np.concatenate(ts), 0.0, 1.0)
    own = np.concatenate(owner)
    o = np.lexsort((t, own))
    t, own = t[o], own[o]
    new = np.ones(len(t), bool)
    new[1:] = (own[1:] != own[:-1]) | (t[1:] != t[:-1])
    t, own = t[new], own[new]
    piece = own[1:] == own[:-1]  # consecutive t of one segment bound a piece
    own = own[:-1][piece]
    tm = (t[:-1][piece] + t[1:][piece]) / 2.0
    ix = np.floor(ax[own] + dx[own] * tm).astype(np.int64)
    iy = np.floor(ay[own] + dy[own] * tm).astype(np.int64)
    o = np.lexsort((iy, ix, own))
    own, ix, iy = own[o], ix[o], iy[o]
    new = np.ones(len(o), bool)
    new[1:] = (own[1:] != own[:-1]) | (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])
    return seg[own[new]], ix[new], iy[new]


def cells_to_mask(cell_ids: np.ndarray) -> tuple[np.ndarray, Grid, float]:
    """Distinct same-resolution cell ids → (mask, grid, lat_scale) in a
    lon-degree frame where lat is scaled by lat_scale so pixels are
    square. Feed the mask to mask_to_polygons, then divide y by
    lat_scale to return to degrees."""
    cell_ids = np.asarray(cell_ids, dtype=np.uint64)
    res = cellmod.resolution(cell_ids)
    if not np.all(res == res[0]):
        raise ValueError("cells_to_mask requires uniform resolution")
    r = int(res[0])
    dlon, dlat = cellmod.cell_size_degrees(r)
    ix, iy = cellmod.to_ixy(cell_ids)
    x_off, y_off = ix.min(), iy.min()
    nx = int(ix.max() - x_off) + 1
    ny = int(iy.max() - y_off) + 1
    mask = np.zeros((ny, nx), dtype=bool)
    mask[iy - y_off, ix - x_off] = True
    sy = dlon / dlat
    grid = Grid(
        x0=-180.0 + x_off * dlon,
        y0=(-90.0 + y_off * dlat) * sy,
        step=dlon,
        nx=nx,
        ny=ny,
    )
    return mask, grid, sy


def chain_ring_keys(frm: np.ndarray, to: np.ndarray) -> list[np.ndarray]:
    """Chain directed segments into closed rings: each ring starts at its
    smallest key and rings come out in increasing start-key order.
    trace_mask and the distributed dissolve both chain here, so
    translation-equal keys give identical rings."""
    nxt: dict[int, int] = dict(zip(frm.tolist(), to.tolist()))
    rings: list[np.ndarray] = []
    visited: set[int] = set()
    for start in sorted(nxt):
        if start in visited:
            continue
        ring_keys = [start]
        visited.add(start)
        cur = nxt[start]
        while cur != start:
            ring_keys.append(cur)
            visited.add(cur)
            cur = nxt[cur]
        ring_keys.append(start)
        rings.append(np.asarray(ring_keys, dtype=np.int64))
    return rings


def _interior_point(ring: np.ndarray) -> np.ndarray:
    """A point STRICTLY inside a simple closed ring (first==last) — the
    classical convex-vertex probe (O'Rourke): the vertex MEAN is outside
    for non-convex rings (a C-shape's mean sits in its mouth).  Take the
    lowest-then-leftmost vertex v (always convex), triangle (a, v, b)
    with its neighbors; if no other vertex lies inside that triangle its
    centroid is interior, else the midpoint of v and the inside vertex
    closest to v is."""
    pts = ring[:-1]
    n = len(pts)
    i = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])
    a, v, b = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]

    def _cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    # signed-area orientation of the triangle (normalize to CCW)
    if _cross(a, v, b) < 0:
        a, b = b, a
    d1 = (pts[:, 0] - a[0]) * (v[1] - a[1]) - (pts[:, 1] - a[1]) * (v[0] - a[0])
    d2 = (pts[:, 0] - v[0]) * (b[1] - v[1]) - (pts[:, 1] - v[1]) * (b[0] - v[0])
    d3 = (pts[:, 0] - b[0]) * (a[1] - b[1]) - (pts[:, 1] - b[1]) * (a[0] - b[0])
    inside = (d1 < 0) & (d2 < 0) & (d3 < 0)  # strictly inside CCW triangle
    if not inside.any():
        return (a + v + b) / 3.0
    cand = pts[inside]
    q = cand[np.argmin(((cand - v) ** 2).sum(axis=1))]
    return (v + q) / 2.0


def rings_to_polygons(
    rings: list[np.ndarray],
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Closed rings → (outer, [holes]) by orientation + containment —
    the assignment half of mask_to_polygons, frame-agnostic (uniform
    y-scaling preserves area order and containment).

    Hole→parent assignment probes a TRUE interior point of the hole
    ring and takes the smallest containing outer whose area exceeds the
    hole's — both conditions matter: the vertex-mean probe mis-attached
    C-shaped holes (mean in the mouth → dropped) and, in the
    lake-with-island case, the island outer CONTAINS the probe point
    even though the lake hole can only belong to the land polygon (an
    outer smaller than the hole can never be its parent)."""
    outers: list[tuple[float, np.ndarray]] = []
    holes: list[tuple[float, np.ndarray]] = []
    for r in rings:
        a = signed_area(r)
        if a > 0:
            outers.append((a, r))
        elif a < 0:
            holes.append((-a, r))
    outers.sort(key=lambda t: t[0])  # smallest first → innermost match wins
    polys: list[tuple[np.ndarray, list[np.ndarray]]] = [(r, []) for _, r in outers]
    for ha, h in holes:
        p0 = _interior_point(h)
        for i, (oa, outer) in enumerate(outers):
            if oa > ha and _contains(p0, outer):
                polys[i][1].append(h)
                break
    return polys
