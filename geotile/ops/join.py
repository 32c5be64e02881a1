"""The graft flagship: H3-style cell-indexed spatial join of image tiles
against route buffer polygons, plus kNN and per-cell tile counts.

North-star shape (BASELINE.json): tile centroids (the "stops" of the
reference's stop→route assignment, SURVEY §2.4 J1) are cell-encoded per
batch, candidate route polygons come from a broadcast cell→polygon index
built ONCE per actor (``ray.put`` on the driver, ``ray.get`` in
``__init__``), and the exact even-odd PIP test runs vectorized on the
candidates. No shuffle touches the 10^12-row side: the polygon side is
dimension-scale and broadcast, which is the explicit skew strategy for
the join itself; the per-cell counts combine per block and merge in a
two-level tree.

Rows whose lon/lat ``cells.encode`` would clamp into an edge cell (NaN,
infinite or out of range) never join and never count.

Join resolution: cells are dilated one ring at build time so candidate
pruning has NO false negatives (verified in tests against a brute-force
oracle).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from geotile.geom import cells
from geotile.geom.buffer import meter_frame
from geotile.geom.pip import points_in_polygon, points_to_polyline_distance
from geotile.geom.raster import polygon_cover_cells
from geotile.ops.tiles import georef_batch

DEFAULT_JOIN_RES = 18  # ~120m × 76m cells: fine enough that most cover
                       # cells are fully inside a 400 m buffer (PIP-free)

# local meter frame anchor for kNN distances (corridor-local)
_ANCHOR_LAT = 37.4
_ANCHOR_LON = -122.1


@dataclass
class BoundaryPip:
    """Grid-localized PIP for ONE polygon's boundary cells: each
    boundary cell stores the edges passing through it plus the
    inside/outside parity of an epsilon-inset cell corner. A point's
    status = corner parity XOR (# local edges properly crossed by the
    corner→point segment) — O(edges-in-cell)≈2 tests per point instead
    of O(ring length)≈800."""

    keys: np.ndarray        # sorted uint64 boundary-cell ids
    corner_x: np.ndarray
    corner_y: np.ndarray
    corner_in: np.ndarray   # bool, PIP of the inset corner (build time)
    offs: np.ndarray        # CSR per cell into the edge-pair arrays
    ex1: np.ndarray
    ey1: np.ndarray
    ex2: np.ndarray
    ey2: np.ndarray

    def contains(self, cell: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        j = np.searchsorted(self.keys, cell)
        j = np.clip(j, 0, max(len(self.keys) - 1, 0))
        found = self.keys[j] == cell if len(self.keys) else np.zeros(len(cell), bool)
        inside = np.zeros(len(px), dtype=bool)
        if not found.any():
            return inside
        jj = j[found]
        cx, cy = self.corner_x[jj], self.corner_y[jj]
        cin = self.corner_in[jj].copy()
        cnt = (self.offs[jj + 1] - self.offs[jj]).astype(np.int64)
        if cnt.sum():
            pi = np.repeat(np.arange(len(jj)), cnt)
            pos = np.repeat(self.offs[jj], cnt) + (
                np.arange(len(pi)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            )
            x1, y1 = self.ex1[pos], self.ey1[pos]
            x2, y2 = self.ex2[pos], self.ey2[pos]
            Cx, Cy = cx[pi], cy[pi]
            Px, Py = px[found][pi], py[found][pi]
            ex, ey = x2 - x1, y2 - y1
            d1 = ex * (Cy - y1) - ey * (Cx - x1)
            d2 = ex * (Py - y1) - ey * (Px - x1)
            sx, sy = Px - Cx, Py - Cy
            d3 = sx * (y1 - Cy) - sy * (x1 - Cx)
            d4 = sx * (y2 - Cy) - sy * (x2 - Cx)
            crosses = ((d1 * d2) < 0) & ((d3 * d4) < 0)
            flips = np.zeros(len(jj), dtype=np.int64)
            np.add.at(flips, pi, crosses.astype(np.int64))
            cin ^= (flips & 1).astype(bool)
        inside[found] = cin
        return inside


@dataclass
class RouteIndex:
    """Broadcastable cell→polygon index + raw rings.

    polygons[i] = list of rings (outer + holes) as float64 arrays;
    poly_route[i] = route_id. CSR layout: for sorted unique cell key
    ``cell_keys[j]``, candidate polygon ids are
    ``cell_polys[cell_offsets[j]:cell_offsets[j+1]]``.
    """

    res: int
    route_ids: list[str]
    polygons: list[list[np.ndarray]]
    poly_route: np.ndarray  # int32 → index into route_ids
    cell_keys: np.ndarray   # uint64 sorted
    cell_offsets: np.ndarray
    cell_polys: np.ndarray
    cell_full: np.ndarray = field(default=None)  # parallel to cell_polys: fully-inside flag
    boundary_pip: list[BoundaryPip] = field(default=None)  # grid-localized PIP per polygon

    def candidates(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point_idx, poly_idx, fully_inside) candidate pairs for a
        batch of cells. ``fully_inside`` pairs need no PIP test."""
        cell = np.asarray(cell, dtype=np.uint64)
        empty = np.empty(0, np.int64)
        if len(self.cell_keys) == 0 or len(cell) == 0:
            return empty, empty, np.empty(0, bool)
        j = np.searchsorted(self.cell_keys, cell)
        j = np.clip(j, 0, len(self.cell_keys) - 1)
        hit = self.cell_keys[j] == cell
        pts = np.nonzero(hit)[0]
        jj = j[hit]
        counts = (self.cell_offsets[jj + 1] - self.cell_offsets[jj]).astype(np.int64)
        point_idx = np.repeat(pts, counts)
        if len(point_idx) == 0:
            return empty, empty, np.empty(0, bool)
        # gather CSR ranges vectorized: flat positions for each pair
        starts = self.cell_offsets[jj]
        pos = np.repeat(starts, counts) + (
            np.arange(len(point_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        return point_idx, self.cell_polys[pos], self.cell_full[pos]


def _build_boundary_pip(rings: list[np.ndarray], boundary: np.ndarray, res: int) -> BoundaryPip:
    """Build the grid-localized PIP structure for one polygon: map each
    ring edge to the boundary cells it passes through (exact supercover),
    CSR-pack per cell, and evaluate the epsilon-inset corner of every
    boundary cell against the full rings ONCE (driver-side)."""
    from geotile.geom.raster import segment_cover_cells

    boundary = np.sort(np.asarray(boundary, dtype=np.uint64))
    seg_a, seg_b = [], []
    for r in rings:
        r = np.asarray(r, dtype=np.float64)
        seg_a.append(r[:-1])
        seg_b.append(r[1:])
    A = np.vstack(seg_a)
    B = np.vstack(seg_b)
    pc_cells, pc_eids = [], []
    nb = len(boundary)
    for e in range(len(A)):
        cc = segment_cover_cells(A[e], B[e], res)
        if nb:  # sorted-membership test (np.isin would re-sort per edge)
            pos = np.searchsorted(boundary, cc)
            pos_c = np.minimum(pos, nb - 1)
            cc = cc[boundary[pos_c] == cc]
        else:
            cc = cc[:0]
        pc_cells.append(cc)
        pc_eids.append(np.full(len(cc), e, dtype=np.int64))
    cellcol = np.concatenate(pc_cells) if pc_cells else np.empty(0, np.uint64)
    eidcol = np.concatenate(pc_eids) if pc_eids else np.empty(0, np.int64)
    order = np.argsort(cellcol, kind="stable")
    cellcol, eidcol = cellcol[order], eidcol[order]
    starts = np.searchsorted(cellcol, boundary, side="left")
    ends = np.searchsorted(cellcol, boundary, side="right")
    # re-pack pairs so they are contiguous per boundary cell
    counts = ends - starts
    offs = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    take = np.concatenate(
        [np.arange(s, e) for s, e in zip(starts, ends)]
    ) if counts.sum() else np.empty(0, np.int64)
    eids = eidcol[take]
    # epsilon-inset lower-left corners + their inside status
    w, s_, e_, n_ = cells.cell_bounds(boundary)
    eps_x = (e_ - w) * 1e-6
    eps_y = (n_ - s_) * 1e-6
    cx = w + eps_x
    cy = s_ + eps_y
    corner_in = points_in_polygon(cx, cy, rings)
    return BoundaryPip(
        keys=boundary,
        corner_x=cx,
        corner_y=cy,
        corner_in=corner_in,
        offs=offs,
        ex1=A[eids, 0].copy(),
        ey1=A[eids, 1].copy(),
        ex2=B[eids, 0].copy(),
        ey2=B[eids, 1].copy(),
    )


def build_route_index(
    route_polygons: dict[str, list[tuple[np.ndarray, list[np.ndarray]]]],
    res: int = DEFAULT_JOIN_RES,
) -> RouteIndex:
    """Driver-side build (the polygon side is dimension-scale): cover
    cells per polygon, dilated one k-ring so centroid candidates are a
    superset of true hits; CSR-pack cell→polys."""
    route_ids = sorted(route_polygons)
    polygons: list[list[np.ndarray]] = []
    poly_route: list[int] = []
    pairs_cell: list[np.ndarray] = []
    pairs_poly: list[np.ndarray] = []
    pairs_full: list[np.ndarray] = []
    boundary_pips: list[BoundaryPip] = []
    for ri, rid in enumerate(route_ids):
        for outer, holes in route_polygons[rid]:
            pid = len(polygons)
            polygons.append([np.asarray(outer, np.float64)] + [np.asarray(h, np.float64) for h in holes])
            poly_route.append(ri)
            rings = polygons[pid]
            cov, interior = polygon_cover_cells(rings, res, return_interior=True)
            cov = np.unique(cells.k_ring(cov, 1).ravel())  # dilate 1 ring
            full = np.isin(cov, interior)
            pairs_cell.append(cov)
            pairs_poly.append(np.full(len(cov), pid, dtype=np.int32))
            pairs_full.append(full)
            boundary_pips.append(_build_boundary_pip(rings, cov[~full], res))
    cell_all = np.concatenate(pairs_cell) if pairs_cell else np.empty(0, np.uint64)
    poly_all = np.concatenate(pairs_poly) if pairs_poly else np.empty(0, np.int32)
    full_all = np.concatenate(pairs_full) if pairs_full else np.empty(0, bool)
    order = np.argsort(cell_all, kind="stable")
    cell_all, poly_all, full_all = cell_all[order], poly_all[order], full_all[order]
    keys, starts = np.unique(cell_all, return_index=True)
    offsets = np.concatenate([starts, [len(cell_all)]]).astype(np.int64)
    return RouteIndex(
        boundary_pip=boundary_pips,
        res=res,
        route_ids=route_ids,
        polygons=polygons,
        poly_route=np.asarray(poly_route, dtype=np.int32),
        cell_keys=keys,
        cell_offsets=offsets,
        cell_polys=poly_all,
        cell_full=full_all,
    )


# per-worker-process cache of deserialized broadcast objects: Ray worker
# processes persist across tasks, so stateless map_batches TASKS get the
# same once-per-process amortization as an actor pool WITHOUT reserving
# CPUs (a fixed actor pool sized to the node starves the read stage —
# observed as a 50× slowdown on an 8-CPU run). Bounded FIFO: a long
# checkpointed run creates one ref per pipeline invocation; unbounded,
# each worker would hoard one index copy per invocation.
_BROADCAST_CACHE: "OrderedDict[object, object]" = OrderedDict()
_BROADCAST_CACHE_MAX = 8


def _cache_put(key, obj):
    _BROADCAST_CACHE[key] = obj
    while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.popitem(last=False)
    return obj


def _get_broadcast(ref):
    """ObjectRefs are cached per worker process by their hex id. Raw
    objects (RouteIndex / dict passed directly, e.g. in unit tests) are
    returned UNCACHED: CPython recycles id()s after GC, so keying a
    long-lived worker cache on id() can serve a stale index for a
    different object (ADVICE r1)."""
    if not hasattr(ref, "hex"):
        return ref
    key = ref.hex()
    obj = _BROADCAST_CACHE.get(key)
    if obj is None:
        obj = _cache_put(key, ray.get(ref))
    return obj


def _cached_stage(key, factory):
    stage = _BROADCAST_CACHE.get(key)
    if stage is None:
        stage = _cache_put(key, factory())
    return stage


class SpatialJoinStage:
    """The join kernel: image rows → (image_id, caption, lon, lat, cell,
    route_id) assignment rows (inner join; tiles outside every buffer are
    dropped, like the reference's usage semi-join).

    Used as a plain function over batches (fused with the read, no
    reserved CPUs); the broadcast index is fetched once per worker
    process via ``_get_broadcast`` (zero-copy numpy out of plasma).
    ``__call__`` is batch-vectorized: derive georef → drop invalid
    coordinates → cell lookup (searchsorted CSR) → exact PIP on boundary
    candidates only.
    """

    def __init__(self, index_ref):
        self.index: RouteIndex = _get_broadcast(index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        idxd = self.index
        geo = georef_batch(batch, idxd.res)
        lon = geo["lon"].to_numpy()
        lat = geo["lat"].to_numpy()
        cell = geo["cell"].to_numpy().view(np.uint64)
        valid = cells.valid_lonlat(lon, lat)
        if valid.all():
            pt, pl, full = idxd.candidates(cell)
        else:
            rows = np.flatnonzero(valid)
            pt, pl, full = idxd.candidates(cell[rows])
            pt = rows[pt]
        keep_pt: list[np.ndarray] = []
        keep_route: list[np.ndarray] = []
        if len(pt):
            # fully-inside cells: accept without PIP (the fast path —
            # typically the large majority of candidate pairs)
            keep_pt.append(pt[full])
            keep_route.append(idxd.poly_route[pl[full]].astype(np.int32))
            pt, pl = pt[~full], pl[~full]
            order = np.argsort(pl, kind="stable")
            pt, pl = pt[order], pl[order]
            bounds = np.searchsorted(pl, np.arange(len(idxd.polygons) + 1))
            for pid in np.unique(pl):
                s, e = bounds[pid], bounds[pid + 1]
                cand = pt[s:e]
                inside = idxd.boundary_pip[pid].contains(cell[cand], lon[cand], lat[cand])
                hits = cand[inside]
                if len(hits):
                    keep_pt.append(hits)
                    keep_route.append(np.full(len(hits), idxd.poly_route[pid], np.int32))
            keep_pt = [a for a in keep_pt if len(a)]
            keep_route = [a for a in keep_route if len(a)]
        if keep_pt:
            kp = np.concatenate(keep_pt)
            kr = np.concatenate(keep_route)
            # a tile can hit several polygons of one route — dedup pairs
            key = kp.astype(np.int64) * len(idxd.route_ids) + kr
            _, first = np.unique(key, return_index=True)
            kp, kr = kp[first], kr[first]
            order = np.lexsort((kr, kp))
            kp, kr = kp[order], kr[order]
        else:
            kp = np.empty(0, np.int64)
            kr = np.empty(0, np.int32)
        taken = geo.select(["image_id", "caption"]).take(pa.array(kp, pa.int64()))
        route_dict = pa.DictionaryArray.from_arrays(
            pa.array(kr, pa.int32()), pa.array(idxd.route_ids, pa.string())
        )
        return (
            taken.append_column("lon", pa.array(lon[kp]))
            .append_column("lat", pa.array(lat[kp]))
            .append_column("cell", pa.array(cell[kp].view(np.int64)))
            .append_column("route_id", route_dict.cast(pa.string()))
        )


def spatial_join(ds: rd.Dataset, index: RouteIndex) -> rd.Dataset:
    """The join pipeline stage. Pass a Dataset read with ONLY the join
    columns (``JOIN_COLUMNS``) — bytes must be pruned at the read.

    Whole read blocks as batches keep the join FUSED with
    the read: a fixed batch size forces a rebatch boundary, doubling
    scheduled tasks (measured 6.1s vs 7.4s min over alternating A/B at
    sf0.1×96/32cpu). The kernel is two narrow columns wide, so
    whole-block batches stay small regardless of row count.

    Runs as stateless TASKS (fused with the read by the streaming
    executor, scales to every free CPU); the index is broadcast once via
    ``ray.put`` and cached per worker process. Pass an ``ObjectRef``
    (from ``ray.put(index)``) instead of the index when calling
    repeatedly (e.g. per checkpoint partition) so workers reuse ONE
    cached copy instead of caching one per invocation."""
    index_ref = index if isinstance(index, ray.ObjectRef) else ray.put(index)

    def join_fn(batch: pa.Table) -> pa.Table:
        return _cached_stage(
            ("join", index_ref.hex()), lambda: SpatialJoinStage(index_ref)
        )(batch)

    return ds.map_batches(
        join_fn,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# kNN: k nearest route geometries per tile (cell-ring expansion at scale,
# exact vectorized distance here where the polygon side is small)
# ---------------------------------------------------------------------------

KNN_RING_RES = 15      # cover/ring resolution: ~1.7 km lon cells here
KNN_RING_THRESHOLD = 32  # above this many routes the ring path wins


class _KnnRingIndex:
    """cell → candidate-route CSR over polyline cell covers, for the
    ring-expansion kNN path. Built once per worker from the broadcast
    routes; EXACT: ring expansion stops only when every unseen route is
    provably farther than the current kth distance (an unseen route has
    all cover cells at Chebyshev ring ≥ r+1, hence euclidean distance
    ≥ r · min cell dimension)."""

    def __init__(self, routes: dict, route_ids: list[str], res: int,
                 mx: float, my: float):
        from geotile.geom.raster import segment_cover_cells

        self.res = res
        dlon, dlat = cells.cell_size_degrees(res)
        self.min_dim_m = min(dlon * mx, dlat * my)
        pairs_cell, pairs_route = [], []
        for ri, rid in enumerate(route_ids):
            parts = routes[rid] if isinstance(routes[rid], list) else [routes[rid]]
            cov = [
                segment_cover_cells(p[i], p[i + 1], res)
                for p in parts
                for i in range(len(p) - 1)
            ]
            # single-point parts contribute no segments but ARE valid
            # nearest-neighbor geometry (points_to_polyline_distance
            # handles len==1) — cover their point cell so the ring
            # lookup can see them
            cov += [
                cells.encode(p[:, 0], p[:, 1], res)
                for p in parts
                if len(p) == 1
            ]
            u = np.unique(np.concatenate(cov)) if cov else np.empty(0, np.uint64)
            pairs_cell.append(u)
            pairs_route.append(np.full(len(u), ri, dtype=np.int32))
        cell_all = np.concatenate(pairs_cell) if pairs_cell else np.empty(0, np.uint64)
        route_all = np.concatenate(pairs_route) if pairs_route else np.empty(0, np.int32)
        order = np.argsort(cell_all, kind="stable")
        cell_all, route_all = cell_all[order], route_all[order]
        self.keys, starts = np.unique(cell_all, return_index=True)
        self.offsets = np.concatenate([starts, [len(cell_all)]]).astype(np.int64)
        self.routes = route_all
        ix, iy = cells.to_ixy(self.keys)
        self.ix_min, self.ix_max = (int(ix.min()), int(ix.max())) if len(ix) else (0, 0)
        self.iy_min, self.iy_max = (int(iy.min()), int(iy.max())) if len(iy) else (0, 0)

    def lookup(self, ring_cells: np.ndarray) -> np.ndarray:
        """Route indices whose cover intersects any of ``ring_cells``."""
        if not len(self.keys):
            return np.empty(0, np.int64)
        pos = np.searchsorted(self.keys, ring_cells)
        pos = np.minimum(pos, len(self.keys) - 1)
        hit = self.keys[pos] == ring_cells
        if not hit.any():
            return np.empty(0, np.int64)
        out = [self.routes[self.offsets[p]:self.offsets[p + 1]] for p in pos[hit]]
        return np.unique(np.concatenate(out)).astype(np.int64)

    def r_cover(self, cell: np.uint64) -> int:
        """Ring radius at which the whole index is inside the ring."""
        cx, cy = cells.to_ixy(np.array([cell], np.uint64))
        return int(
            max(
                abs(int(cx[0]) - self.ix_min), abs(int(cx[0]) - self.ix_max),
                abs(int(cy[0]) - self.iy_min), abs(int(cy[0]) - self.iy_max),
            )
        )


class KnnStage:
    """Per tile, the k nearest route polylines by point-to-segment
    distance in a corridor-local meter frame; the route side is
    broadcast. Two paths with identical output:

    - exact scan (≤ ring_threshold routes): vectorized points ×
      segments distance to EVERY route — fastest when the polygon side
      is dimension-scale, and the oracle the tests check against.
    - cell-ring expansion (> ring_threshold routes): tiles grouped by
      cell; rings around each cell expand over a polyline-cover CSR
      until ≥ k candidates are found AND the ring lower bound
      (r · min cell dim) exceeds the worst kth candidate distance —
      per-tile distance work is then candidates, not all routes."""

    def __init__(self, routes_ref, k: int = 3,
                 ring_threshold: int = KNN_RING_THRESHOLD,
                 ring_res: int = KNN_RING_RES):
        routes: dict[str, list[np.ndarray] | np.ndarray] = _get_broadcast(routes_ref)
        self.k = k
        mx, my = meter_frame(_ANCHOR_LAT)
        self.route_ids = sorted(routes)
        self.ring = (
            _KnnRingIndex(routes, self.route_ids, ring_res, mx, my)
            if len(self.route_ids) > ring_threshold
            else None
        )
        # each route is a LIST of parts; min distance is taken over parts
        # (a single array is accepted for back-compat)
        self.lines = [
            [
                np.column_stack(
                    [(p[:, 0] - _ANCHOR_LON) * mx, (p[:, 1] - _ANCHOR_LAT) * my]
                )
                for p in (routes[r] if isinstance(routes[r], list) else [routes[r]])
            ]
            for r in self.route_ids
        ]
        self.mx, self.my = mx, my
        self.seg = None  # lazy pooled-segment index for the pruned scan
        self.n_segs = sum(
            max(len(p) - 1, 0) for parts in self.lines for p in parts)

    def _use_pruned(self, n: int) -> bool:
        """Dispatch gate for the cell-pruned exact scan: batch big
        enough to amortize the per-cell center pass AND enough segments
        for pruning to pay; small batches / tiny geometries keep the
        straight scan (also the oracle twin)."""
        return n >= 4096 and self.n_segs >= 64

    def _route_dist(self, j: int, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(
            [points_to_polyline_distance(px, py, part) for part in self.lines[j]]
        )

    def _build_seg_pool(self):
        """Per-route pooled segment arrays (ax, ay, dx, dy, inv_L2) +
        single-point parts, for the cell-pruned exact scan.  Pooling
        parts changes no per-segment arithmetic, and sqrt is monotone,
        so min over the pool equals the per-part minimum reduce
        bit-for-bit; single-point parts stay on the hypot path."""
        tiny = np.finfo(np.float64).tiny
        pool = []
        for parts in self.lines:
            axs, ays, dxs, dys, invs, pts = [], [], [], [], [], []
            for part in parts:
                if len(part) == 1:
                    pts.append(part[0])
                    continue
                ax, ay = part[:-1, 0], part[:-1, 1]
                dx, dy = part[1:, 0] - ax, part[1:, 1] - ay
                L2 = dx * dx + dy * dy
                finite = L2 > tiny
                inv = np.zeros_like(L2)
                np.divide(1.0, L2, out=inv, where=finite)
                axs.append(ax); ays.append(ay)
                dxs.append(dx); dys.append(dy); invs.append(inv)
            cat = (lambda xs: np.concatenate(xs) if xs
                   else np.empty(0, np.float64))
            pool.append((cat(axs), cat(ays), cat(dxs), cat(dys),
                         cat(invs),
                         np.asarray(pts, np.float64) if pts
                         else np.empty((0, 2), np.float64)))
        return pool

    @staticmethod
    def _seg_dist2(px, py, ax, ay, dx, dy, inv):
        """Squared point→segment distances, (n_points, n_segs) —
        exactly the points_to_polyline_distance inner arithmetic."""
        rx = px[:, None] - ax
        ry = py[:, None] - ay
        t = (rx * dx + ry * dy) * inv
        np.clip(t, 0.0, 1.0, out=t)
        rx -= t * dx
        ry -= t * dy
        rx *= rx
        ry *= ry
        rx += ry
        return rx

    _PRUNE_RES = 13  # ~5×2.4 km cells: coarse enough that the
    # per-cell Python iteration stays ~tens of cells (finer res paid
    # more loop overhead than the extra pruning saved — measured
    # 0.13 s at res 13 vs 0.85 s at res 16 vs 0.43 s unpruned on a
    # 131k-point batch)

    def _seg_min_dist(self, px, py, ax, ay, dx, dy, invl,
                      chunk: int = 1 << 17):
        """sqrt(min over segments) with the SAME point-chunking
        discipline as points_to_polyline_distance: the (points ×
        segments) temporaries stay L2-resident instead of growing
        unbounded when many points share one cell (review fix)."""
        out = np.full(len(px), np.inf)
        step = max(1, chunk // max(1, len(ax)))
        for s in range(0, len(px), step):
            d2 = self._seg_dist2(px[s:s + step], py[s:s + step],
                                 ax, ay, dx, dy, invl)
            out[s:s + step] = d2.min(axis=1)
        return np.sqrt(out)

    def _exact_scan_pruned(self, lon, lat, px, py, k):
        """Exact all-routes distance matrix with per-cell segment
        pruning: points group by cell; per (cell, route) ONE center
        pass bounds which segments can be any cell point's minimum
        (triangle inequality — d(p,s) ≥ d(c,s) − r and best(p) ≤
        best(c) + r for the cell's half-diagonal r, so segments with
        d(c,s) > best(c) + 2r are provably out), and only the
        surviving segments get the exact chunked points×segments pass.
        The per-segment arithmetic and the route min are bit-identical
        to the unpruned scan (the threshold carries a ulp of slack so
        exactly-at-bound geometry can't flip on rounding) — measured
        ~3× on the corridor workload where most of a route's polyline
        is far from any given cell.

        Safety rails (review fixes): points with out-of-range lon/lat
        — which ``cells.encode`` CLIPS into a boundary cell the point
        is not actually inside, breaking the containment assumption —
        take the straight unpruned scan; NaN route geometry (dc.min()
        NaN → empty keep) likewise falls back per (cell, route),
        matching the straight scan's NaN propagation instead of
        crashing on an empty reduction."""
        if self.seg is None:
            self.seg = self._build_seg_pool()
        n = len(px)
        n_routes = len(self.route_ids)
        D = np.empty((n, n_routes), np.float64)
        in_range = cells.valid_lonlat(lon, lat)
        if not in_range.all():
            bad = np.flatnonzero(~in_range)
            for j in range(n_routes):
                D[bad, j] = self._route_dist(j, px[bad], py[bad])
        else:
            bad = None
        ok = np.flatnonzero(in_range) if bad is not None else None
        lon_i = lon if ok is None else lon[ok]
        lat_i = lat if ok is None else lat[ok]
        px_i = px if ok is None else px[ok]
        py_i = py if ok is None else py[ok]
        c = cells.encode(lon_i, lat_i, self._PRUNE_RES)
        uc, inv_c = np.unique(c, return_inverse=True)
        w, s_, e_, n_b = cells.cell_bounds(uc)
        ccx = ((w + e_) * 0.5 - _ANCHOR_LON) * self.mx
        ccy = ((s_ + n_b) * 0.5 - _ANCHOR_LAT) * self.my
        rcell = np.hypot((e_ - w) * 0.5 * self.mx,
                         (n_b - s_) * 0.5 * self.my)
        for ui in range(len(uc)):
            idx = np.flatnonzero(inv_c == ui)
            gidx = idx if ok is None else ok[idx]
            mpx, mpy = px_i[idx], py_i[idx]
            block = np.empty((len(idx), n_routes), np.float64)
            for j in range(n_routes):
                ax, ay, dx, dy, invl, pts = self.seg[j]
                if len(ax):
                    d2c = self._seg_dist2(ccx[ui:ui + 1], ccy[ui:ui + 1],
                                          ax, ay, dx, dy, invl)[0]
                    dc = np.sqrt(d2c)
                    lo = dc.min()
                    if np.isnan(lo):
                        # NaN geometry: match the straight scan's NaN
                        # propagation rather than prune everything
                        dj = self._route_dist(j, mpx, mpy)
                        block[:, j] = dj
                        continue
                    keep = dc <= np.nextafter(
                        lo + 2.0 * rcell[ui], np.inf)
                    dj = self._seg_min_dist(mpx, mpy, ax[keep], ay[keep],
                                            dx[keep], dy[keep],
                                            invl[keep])
                else:
                    dj = np.full(len(mpx), np.inf)
                for p in pts:  # single-point parts: hypot path as before
                    dj = np.minimum(dj, np.hypot(mpx - p[0], mpy - p[1]))
                block[:, j] = dj
            D[gidx] = block
        return self._select_topk(D, k)

    @staticmethod
    def _select_topk(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # STABLE argsort, not argpartition: among EQUAL distances
        # straddling rank k argpartition picks arbitrarily, so the
        # exact-scan and ring paths could report different tied routes.
        # Stable sort ties break by CANDIDATE COLUMN ORDER — global
        # route index in both call paths (the exact scan passes all
        # routes in id order; the ring path passes `cand` ascending) —
        # so both paths agree on ties. Route counts are dim-scale
        # (hundreds), so the log-factor over argpartition is noise.
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(D, order, axis=1)

    def _ring_topk(self, lon, lat, px, py, k):
        """Cell-ring expansion: candidates per unique tile cell."""
        idxr = self.ring
        c = cells.encode(lon, lat, idxr.res)
        uc, inv = np.unique(c, return_inverse=True)
        n = len(px)
        top = np.empty((n, k), np.int64)
        topd = np.empty((n, k), np.float64)
        n_routes = len(self.route_ids)
        for ui, cell in enumerate(uc):
            m = inv == ui
            mpx, mpy = px[m], py[m]
            computed: dict[int, np.ndarray] = {}
            cand = np.empty(0, np.int64)
            r_cov = idxr.r_cover(cell)
            r = 0
            while True:
                full = r >= r_cov or len(cand) == n_routes
                if full:
                    cand = np.arange(n_routes, dtype=np.int64)
                else:
                    # only the NEW shell (8r boundary cells): previous
                    # radii were already looked up, so total work over
                    # r rings is O(r²), not O(r³)
                    cand = np.union1d(cand, idxr.lookup(cells.k_shell(cell, r)))
                if len(cand) >= k or full:
                    for j in cand:
                        if j not in computed:
                            computed[int(j)] = self._route_dist(int(j), mpx, mpy)
                    D = np.stack([computed[int(j)] for j in cand], axis=1)
                    kth = np.partition(D, k - 1, axis=1)[:, k - 1]
                    # unseen routes are ≥ r·min_dim away from every tile;
                    # STRICT <: at equality an unseen route could tie the
                    # kth candidate and the exact scan's stable tie-break
                    # might prefer it
                    if full or kth.max() < r * idxr.min_dim_m:
                        break
                r += 1
            ti, td = self._select_topk(D, k)
            top[m] = cand[ti]  # cand ascending keeps exact-scan tie order
            topd[m] = td
        return top, topd

    def __call__(self, batch: pa.Table) -> pa.Table:
        geo = georef_batch(batch, DEFAULT_JOIN_RES)
        lon = geo["lon"].to_numpy()
        lat = geo["lat"].to_numpy()
        px = (lon - _ANCHOR_LON) * self.mx
        py = (lat - _ANCHOR_LAT) * self.my
        n = len(px)
        k = min(self.k, len(self.route_ids))
        if k == 0:
            # zero routes: a typed empty result, not a np.stack crash
            return pa.table({
                "image_id": pa.array([], geo["image_id"].type),
                "rank": pa.array([], pa.int32()),
                "route_id": pa.array([], pa.string()),
                "dist_m": pa.array([], pa.float64())})
        if self.ring is not None and n:
            top, topd = self._ring_topk(lon, lat, px, py, k)
        elif self._use_pruned(n):
            top, topd = self._exact_scan_pruned(lon, lat, px, py, k)
        else:
            dists = np.stack(
                [self._route_dist(j, px, py) for j in range(len(self.route_ids))],
                axis=1,
            )
            top, topd = self._select_topk(dists, k)
        ids = pc.take(
            geo["image_id"].combine_chunks(),
            pa.array(np.repeat(np.arange(n, dtype=np.int64), k)),
        )
        route_dict = pa.DictionaryArray.from_arrays(
            pa.array(top.ravel().astype(np.int32)), pa.array(self.route_ids, pa.string())
        )
        return pa.table(
            {
                "image_id": ids,
                "rank": pa.array(np.tile(np.arange(k, dtype=np.int32), n)),
                "route_id": route_dict.cast(pa.string()),
                "dist_m": pa.array(topd.ravel()),
            }
        )


def knn_routes(ds: rd.Dataset, route_lines: dict[str, np.ndarray], k: int = 3,
               ring_threshold: int = KNN_RING_THRESHOLD,
               ring_res: int = KNN_RING_RES) -> rd.Dataset:
    """Stateless-task kNN stage over whole read blocks (same
    broadcast/caching discipline as spatial_join). Pass an ``ObjectRef``
    to broadcast ONCE across checkpointed per-partition invocations
    (mirrors spatial_join's contract)."""
    ref = (route_lines if isinstance(route_lines, ray.ObjectRef)
           else ray.put(route_lines))

    def knn_fn(batch: pa.Table) -> pa.Table:
        return _cached_stage(
            ("knn", ref.hex(), k, ring_threshold, ring_res),
            lambda: KnnStage(ref, k, ring_threshold, ring_res),
        )(batch)

    return ds.map_batches(
        knn_fn,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# per-cell tile counts (the wide step)
# ---------------------------------------------------------------------------

CELL_COUNT_RES = 12  # ~7.8 km × 4.9 km cells at the corridor's latitude


def _unique_counts_u64(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(return_counts) replacement for clustered uint64 keys:
    when the value span is small (ROI-bounded cells at a coarse res) a
    single bincount pass beats the sort ~5× (1.5ms → 0.3ms per 65k-row
    batch — ×9k batches that is ~0.3s of the 32-cpu bench window);
    wide-span inputs fall back to the sort."""
    if len(v) == 0:
        return v, np.empty(0, np.int64)
    cmin, cmax = v.min(), v.max()
    span = int(cmax - cmin)
    if span <= max(1 << 20, 4 * len(v)):
        bc = np.bincount((v - cmin).astype(np.int64), minlength=span + 1)
        nz = np.flatnonzero(bc)
        return (nz.astype(np.uint64) + cmin), bc[nz].astype(np.int64)
    uniq, counts = np.unique(v, return_counts=True)
    return uniq, counts.astype(np.int64)


def _merge_cell_counts(t: pa.Table) -> pa.Table:
    """Key-agnostic partial-count merge (the tree-reduce step): sums
    ``n`` per ``cell`` within one block with a bincount over the inverse
    index — no sort-shuffle machinery, just numpy."""
    c = t["cell"].to_numpy(zero_copy_only=False).view(np.uint64)
    n = t["n"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(c, return_inverse=True)
    s = np.bincount(inv, weights=n.astype(np.float64)).astype(np.int64)
    return pa.table({"cell": pa.array(uniq.view(np.int64)), "n": pa.array(s)})


def _partial_cell_counts(batch: pa.Table) -> pa.Table:
    from geotile.synth import image_index, tile_centers

    # encode at CELL_COUNT_RES DIRECTLY: floor(x/(k·step)) ==
    # floor(floor(x/step)/k) for the power-of-two lattice, so this equals
    # parent(encode(·, res), CELL_COUNT_RES) while skipping the fine
    # Morton interleave.  Stored footprint columns win over re-deriving
    # placement when the read carries them (same contract as georef_batch)
    names = batch.column_names
    if "lon" in names and "lat" in names:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
    else:
        idx = image_index(batch["image_id"])
        lon, lat = tile_centers(idx.astype(np.uint64))
    valid = cells.valid_lonlat(lon, lat)
    if not valid.all():
        lon, lat = lon[valid], lat[valid]
    uniq, counts = _unique_counts_u64(cells.encode(lon, lat, CELL_COUNT_RES))
    return pa.table(
        {
            "cell": pa.array(uniq.view(np.int64)),
            "n": pa.array(counts.astype(np.int64)),
        }
    )


def cell_tile_counts(ds: rd.Dataset) -> rd.Dataset:
    """Tiles per ``CELL_COUNT_RES`` cell: per-batch partial counts (the
    combiner — each batch emits ≤ #unique cells rows), then a two-level
    tree reduce over the KB-scale partials.

    Whole read blocks as batches keep the combiner FUSED with the read —
    a fixed batch size forces a rebatch boundary and doubles the
    scheduled task count, which dominated this stage's wall time (15.2s
    → 10.9s at sf0.1/32cpu).

    The reduce is two repartitions + a numpy merge, no sort-based
    shuffle: level 1 coalesces the per-block partials into half as many
    blocks as the cluster has CPUs (at least 8) and merges each with a
    bincount; level 2 merges those into the final table in one task.
    Measured 6.3s → 4.8s at sf0.1×96/32cpu against a salted groupby.
    Cardinality contract: the level-2 block holds ``coalesce ×
    distinct_cells`` rows, so this assumes DIMENSION-SCALE distinct
    coarse cells (an ROI-bounded corpus — thousands, not millions).
    """
    partial = ds.map_batches(
        _partial_cell_counts,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    # coalesce the (tiny) partials into few blocks: a reduce's cost
    # scales with INPUT BLOCK COUNT, not rows (672 partial blocks made a
    # trivial groupby take 40s); the repartition of the combined
    # partials costs ~0.4s flat. Unconditional — an input-row count
    # estimate via ds.count() would EXECUTE any lazy upstream transforms
    # once before map_batches executes them again (ADVICE r2).
    coalesce = max(8, int(ray.cluster_resources().get("CPU", 16)) // 2)
    lvl1 = partial.repartition(coalesce).map_batches(_merge_cell_counts, batch_format="pyarrow")
    out = lvl1.repartition(1).map_batches(
        _merge_cell_counts, batch_format="pyarrow"
    )
    return out.map_batches(
        lambda t: t.rename_columns(["cell", "n_tiles"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# distributed raster↔vector dissolve over tile footprints (north_rule:
# rasterize into cell masks per partition, groupby(cell) OR-merge,
# vectorize coverage back to polygons)
# ---------------------------------------------------------------------------

def _footprint_cells(batch: pa.Table, res: int) -> pa.Table:
    """Per-batch rasterization: each tile's axis-aligned footprint quad →
    the cell ids its bbox intersects (vectorized: spans are ≤2×2 cells
    at res≈18 for 100 m tiles), pre-deduped per batch (the combiner)."""
    from geotile.synth import image_index, tile_footprints

    idx = image_index(batch["image_id"])
    quads = tile_footprints(idx.astype(np.uint64))
    dlon, dlat = cells.cell_size_degrees(res)
    n = np.int64(1 << res)
    ix0 = np.floor((quads[:, :, 0].min(axis=1) + 180.0) / dlon).astype(np.int64)
    ix1 = np.floor((quads[:, :, 0].max(axis=1) + 180.0) / dlon).astype(np.int64)
    iy0 = np.floor((quads[:, :, 1].min(axis=1) + 90.0) / dlat).astype(np.int64)
    iy1 = np.floor((quads[:, :, 1].max(axis=1) + 90.0) / dlat).astype(np.int64)
    out = []
    max_dx = int((ix1 - ix0).max()) if len(ix0) else 0
    max_dy = int((iy1 - iy0).max()) if len(iy0) else 0
    for dx in range(max_dx + 1):
        for dy in range(max_dy + 1):
            m = (ix0 + dx <= ix1) & (iy0 + dy <= iy1)
            if m.any():
                out.append(
                    cells.from_ixy(
                        ((ix0[m] + dx) % n).astype(np.uint64),
                        np.clip(iy0[m] + dy, 0, n - 1).astype(np.uint64),
                        res,
                    )
                )
    uniq = np.unique(np.concatenate(out)) if out else np.empty(0, np.uint64)
    return pa.table({"cell": pa.array(uniq.view(np.int64))})


def dissolve_tile_footprints(
    ds: rd.Dataset, res: int = DEFAULT_JOIN_RES, parent_res: int | None = None
):
    """Distributed dissolve of ALL tile footprints: per-batch cell masks
    → one groupby(cell) OR-merge (the shuffle carries distinct cells
    only) → DISTRIBUTED marching squares: each covered cell contributes
    its presence bit to the 4 windows that see it, windows are grouped
    by coarse parent cell and vectorized on workers, and only the
    directed contour segments — O(region perimeter), never the O(area)
    distinct-cell set — reach the driver, which chains them into rings
    (identical order/vertices to the in-memory trace_mask) and assigns
    holes. Returns (covered_cells_dataset, [(outer, holes)] in lon/lat).
    """
    from geotile.geom.raster import (
        chain_ring_keys,
        keys_to_lonlat,
        rings_to_polygons,
        window_segment_keys,
    )

    if parent_res is None:
        parent_res = max(res - 6, 0)
    shift = res - parent_res
    A = np.int64((1 << res) + 2)  # anchor packing base (gx can be -1)

    covered = ds.map_batches(
        lambda b: _footprint_cells(b, res),
        batch_format="pyarrow",
        batch_size=65536,
        zero_copy_batch=True,
    ).repartition(
        max(8, int(ray.cluster_resources().get("CPU", 16)) // 2)
    ).groupby("cell").count()

    def windows(t: pa.Table) -> pa.Table:
        cell = t["cell"].to_numpy().view(np.uint64)
        ix, iy = cells.to_ixy(cell)
        ix = ix.astype(np.int64)
        iy = iy.astype(np.int64)
        n = len(ix)
        # this cell is corner v00/v10/v11/v01 of the windows anchored at
        # (ix,iy), (ix-1,iy), (ix-1,iy-1), (ix,iy-1) respectively
        gx = np.concatenate([ix, ix - 1, ix - 1, ix])
        gy = np.concatenate([iy, iy, iy - 1, iy - 1])
        bits = np.repeat(np.array([1, 2, 4, 8], dtype=np.int64), n)
        anchor = (gx + 1) * A + (gy + 1)
        pkey = (((gx + 1) >> shift) * A) + ((gy + 1) >> shift)
        return pa.table(
            {"pkey": pa.array(pkey), "anchor": pa.array(anchor), "bits": pa.array(bits)}
        )

    def segments(df: pd.DataFrame) -> pd.DataFrame:
        anchor = df["anchor"].to_numpy()
        bits = df["bits"].to_numpy()
        order = np.argsort(anchor, kind="stable")
        a, b = anchor[order], bits[order]
        uniq, starts = np.unique(a, return_index=True)
        case = np.bitwise_or.reduceat(b, starts)
        gx = uniq // A - 1
        gy = uniq % A - 1
        f, t = window_segment_keys(gx, gy, case.astype(np.int64), res)
        return pd.DataFrame({"f": f, "t": t})

    segs = (
        covered.select_columns(["cell"])
        .map_batches(windows, batch_format="pyarrow", batch_size=65536)
        .groupby("pkey")
        .map_groups(segments, batch_format="pandas")
    )
    pairs = segs.take_all()  # O(perimeter) contour segments only
    if not pairs:
        return covered, []
    frm = np.array([r["f"] for r in pairs], dtype=np.int64)
    to = np.array([r["t"] for r in pairs], dtype=np.int64)
    rings = [keys_to_lonlat(k, res) for k in chain_ring_keys(frm, to)]
    return covered, rings_to_polygons(rings)


# ---------------------------------------------------------------------------
# per-route FeatureCollection assembly (groupby-aggregate-sort)
# ---------------------------------------------------------------------------

def _json_escape(arr: pa.Array) -> pa.Array:
    """Vectorized JSON string-content escaping in Arrow C kernels
    (backslash, quote, and the common control chars; other control
    chars are absent from the id/caption domain by construction)."""
    for pat, rep in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                     ("\r", "\\r"), ("\t", "\\t")):
        arr = pc.replace_substring(arr, pattern=pat, replacement=rep)
    return arr


def _route_fc(df: pd.DataFrame, max_features: int, keep_shard: bool = False) -> pd.DataFrame:
    from geotile.synth import image_index as _ii
    from geotile.synth import tile_footprints

    n_total = len(df)
    df = df.sort_values("image_id", kind="stable").head(max_features)
    quads = np.round(tile_footprints(_ii(df["image_id"].to_numpy()).astype(np.uint64)), 7)
    # feature-string assembly entirely in Arrow C kernels: float→string
    # casts + binary_join_element_wise (numpy object-array concatenation
    # is per-element Python under the hood — VERDICT r2 'what's wrong' #1)
    flat = quads.reshape(len(df), 10)  # x0 y0 ... x4 y4
    num = [pc.cast(pa.array(flat[:, j]), pa.string()) for j in range(10)]
    ring = pc.binary_join_element_wise(
        "[[", num[0], ",", num[1], "],[", num[2], ",", num[3], "],[",
        num[4], ",", num[5], "],[", num[6], ",", num[7], "],[",
        num[8], ",", num[9], "]]",
        "",  # binary_join_element_wise takes the LAST arg as separator
    )
    ids = _json_escape(pa.array(df["image_id"].to_numpy(), pa.string()))
    caps = _json_escape(pa.array(df["caption"].to_numpy(), pa.string()))
    cells_s = pc.cast(pa.array(df["cell"].to_numpy()), pa.string())
    feats = pc.binary_join_element_wise(
        '{"type":"Feature","properties":{"image_id":"', ids,
        '","caption":"', caps, '","cell":', cells_s,
        '},"geometry":{"type":"Polygon","coordinates":[', ring, "]}}",
        "",  # separator
    )
    joined_feats = pc.binary_join(
        pa.ListArray.from_arrays(pa.array([0, len(feats)], pa.int32()), feats), ","
    )[0].as_py() if len(feats) else ""
    fc = '{"type":"FeatureCollection","features":[' + joined_feats + "]}"
    out = {
        "route_id": [df["route_id"].iloc[0]],
        "n_tiles": [n_total],  # TRUE count, pre-truncation
        "truncated": [n_total > len(df)],
        "fc_json": [fc],
    }
    if keep_shard:
        out = {"route_id": out["route_id"], "shard": [int(df["shard"].iloc[0])],
               **{k: v for k, v in out.items() if k != "route_id"}}
    return pd.DataFrame(out)


def write_route_fcs(fcs: rd.Dataset, out_dir: str) -> list[str]:
    """Distributed GeoJSON sink for the per-route FeatureCollections:
    each row written to ``<out_dir>/<route_id>.geojson`` inside the map
    task that holds it (no driver funneling). Returns written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        from geotile.pipeline import sanitize

        # sharded assembly rows carry a shard column; name files per
        # shard so rows never clobber each other's <route>.geojson
        shards = t["shard"].to_pylist() if "shard" in t.column_names else [None] * len(t)
        paths = []
        for rid, shard, fc in zip(
            t["route_id"].to_pylist(), shards, t["fc_json"].to_pylist()
        ):
            name = f"{rid}.geojson" if shard is None else f"{rid}_shard{shard}.geojson"
            p = os.path.join(out_dir, sanitize(name))
            tmp = p + ".tmp"
            with open(tmp, "w") as f:
                f.write(fc)
            os.replace(tmp, p)
            paths.append(p)
        return pa.table({"path": pa.array(paths, pa.string())})

    return [r["path"] for r in fcs.map_batches(write, batch_format="pyarrow").take_all()]


def assemble_route_fcs(
    joined: rd.Dataset,
    max_features_per_route: int = 100_000,
    n_shards: int | None = None,
) -> rd.Dataset:
    """groupby(route_id) → one FeatureCollection row per route, features
    ordered by image_id, captions as properties (north_star). The cap
    bounds single-row size at extreme scale (logged, not silent — row
    carries the true n_tiles count).

    ``n_shards``: the giant-route scale path — a hot route is ONE group
    (parallelism bounded by route count, row size by its tile count).
    With sharding, rows are keyed (route_id, shard = image_index mod
    n_shards) so assembly parallelizes and each output row holds one
    sub-FeatureCollection. The shards PARTITION the route's features
    (each shard internally image_id-ordered); mod-sharding interleaves
    ids across shards, so a consumer that needs the unsharded global
    image_id order must merge the shard feature lists by image_id, not
    merely concatenate them. ``write_route_fcs`` writes one
    ``<route>_shard<k>.geojson`` per row for sharded input."""
    from geotile.ops.hashing import hash_strings
    from geotile.synth import splitmix64

    if n_shards:
        from geotile.synth import image_index

        P_sh = max(8, int(ray.cluster_resources().get("CPU", 16)))

        def add_shard(t: pa.Table) -> pa.Table:
            idx = image_index(t["image_id"])
            shard = (idx % n_shards).astype(np.int64)
            col = t["route_id"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            # co-partition on an int64 hash of (route, shard) — same
            # string-sort avoidance as the unsharded path below; a
            # (route, shard) unit still co-locates whole
            rb = (splitmix64(hash_strings(col)
                             ^ shard.view(np.uint64))
                  % np.uint64(P_sh)).astype(np.int64)
            return t.append_column(
                "shard", pa.array(shard)
            ).append_column("rb", pa.array(rb))

        def fc_shard_bucket(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {"route_id": pd.Series(dtype=object),
                     "shard": pd.Series(dtype=np.int64),
                     "n_tiles": pd.Series(dtype=np.int64),
                     "truncated": pd.Series(dtype=bool),
                     "fc_json": pd.Series(dtype=object)})
            return pd.concat(
                [_route_fc(g.drop(columns=["rb"]),
                           max_features_per_route, keep_shard=True)
                 for _, g in df.groupby(["route_id", "shard"], sort=True)],
                ignore_index=True)

        sharded = joined.map_batches(add_shard, batch_format="pyarrow",
                                     zero_copy_batch=True)
        return sharded.groupby("rb").map_groups(
            fc_shard_bucket, batch_format="pandas",
        )
    # co-partition by an int64 hash of route_id and assemble every
    # route inside the bucket with one pandas groupby: the Ray
    # map_groups sort compares int64 bucket keys instead of the full
    # string route_id column (measured 2.24 s of Sort on 660k rows),
    # and all rows of a route still co-locate because the bucket
    # derives from route_id alone. Bucket count rides cluster width.
    P = max(8, int(ray.cluster_resources().get("CPU", 16)))

    def add_rb(t: pa.Table) -> pa.Table:
        col = t["route_id"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        rb = (hash_strings(col) % np.uint64(P)).astype(np.int64)
        return t.append_column("rb", pa.array(rb))

    def fc_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"route_id": pd.Series(dtype=object),
                                 "n_tiles": pd.Series(dtype=np.int64),
                                 "truncated": pd.Series(dtype=bool),
                                 "fc_json": pd.Series(dtype=object)})
        return pd.concat(
            [_route_fc(g.drop(columns=["rb"]), max_features_per_route)
             for _, g in df.groupby("route_id", sort=True)],
            ignore_index=True)

    return joined.map_batches(add_rb, batch_format="pyarrow") \
        .groupby("rb").map_groups(fc_bucket, batch_format="pandas")


# ---------------------------------------------------------------------------
# route geometry sources (the small side of the join)
# ---------------------------------------------------------------------------

def route_buffer_polygons(ctx, config) -> dict[str, list[tuple[np.ndarray, list[np.ndarray]]]]:
    """Route buffer polygons from the GTFS fixture (reference lines-buffer
    semantics) keyed by route_id — the broadcast side of the join."""
    from geotile.formats import fmt_lines_buffer

    gj = fmt_lines_buffer(ctx, config, {})
    out: dict[str, list] = {}
    for f in gj["features"]:
        rid = f["properties"]["route_id"]
        g = f["geometry"]
        polys = [g["coordinates"]] if g["type"] == "Polygon" else g["coordinates"]
        for rings in polys:
            outer = np.asarray(rings[0], np.float64)
            holes = [np.asarray(r, np.float64) for r in rings[1:]]
            out.setdefault(rid, []).append((outer, holes))
    return out


def route_polylines(ctx, tolerance_deg: float = 1e-4) -> dict[str, list[np.ndarray]]:
    """Route centerline PARTS for kNN (one array per LineString part —
    concatenating parts would create phantom segments between disjoint
    shapes), RDP-simplified at ~11 m so per-tile distance scans touch
    few segments (kNN semantics are defined over this simplified
    centerline; distance error ≤ tolerance, far below route spacing)."""
    from geotile.geom.rdp import rdp
    from geotile.ops.lines import route_lines

    out: dict[str, list[np.ndarray]] = {}
    for f in route_lines(ctx, {}) or []:
        rid = f["properties"]["route_id"]
        g = f["geometry"]
        parts = [g["coordinates"]] if g["type"] == "LineString" else g["coordinates"]
        out[rid] = [rdp(np.asarray(p, np.float64), tolerance_deg) for p in parts]
    return out
