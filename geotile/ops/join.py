"""The graft flagship: H3-style cell-indexed spatial join of image tiles
against route buffer polygons, plus kNN and per-cell tile counts.

North-star shape (BASELINE.json): tile centroids (the "stops" of the
reference's stop→route assignment, SURVEY §2.4 J1) are cell-encoded per
batch, candidate route polygons come from a broadcast flat cell→polygon
index (``RouteIndex``: ``ray.put`` on the driver, fetched once per worker
process), and the exact test runs on the boundary candidates only. The
kernel is loop-free: one sorted cell lookup per batch, then one crossing
test over every edge of every boundary pair. No shuffle touches the
10^12-row side: the polygon side is dimension-scale and broadcast,
which is the explicit skew strategy for the join itself; the per-cell
counts combine per block and merge in a two-level tree.

Rows whose lon/lat ``cells.encode`` would clamp into an edge cell (NaN,
infinite or out of range) never join and never count.

Candidate pruning has no false negatives: each polygon's cells are its
exact cover, the cells whose centre is inside plus every cell an edge
crosses, so a point inside the polygon lies in a cover cell (verified in
tests against a brute-force oracle).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from geotile.geom import cells
from geotile.geom.buffer import meter_frame
from geotile.geom.pip import close_rings, points_in_polygon, points_to_polyline_distance
from geotile.geom.raster import polygon_cover
from geotile.ops.tiles import footprint_bounds, georef_batch, row_lonlat

DEFAULT_JOIN_RES = 18  # ~120m × 76m cells: fine enough that most cover
                       # cells are fully inside a 400 m buffer (PIP-free)

# local meter frame anchor for kNN distances (corridor-local)
_ANCHOR_LAT = 37.4
_ANCHOR_LON = -122.1


FULL = -1  # RouteIndex.cell_bnd code of a pair whose cell is inside its polygon


@dataclass
class RouteIndex:
    """Broadcastable flat cell→polygon index.

    Polygon ids rise with the route index. CSR over (cell, polygon)
    pairs sorted by cell, then polygon: cell ``cell_keys[j]`` owns pairs
    ``cell_offsets[j]:cell_offsets[j+1]``, each with its polygon, its
    route (an index into ``route_ids``) and its boundary record
    (``cell_bnd``, or ``FULL``: cell inside the polygon). The pairs are
    the polygon's exact cover (``polygon_cover``): a cell is ``FULL``
    when its centre is inside and no edge crosses it, and every other
    cell has at least one crossing edge in its record.

    Boundary record ``b`` is grid-localized PIP for one (cell, polygon)
    pair: the epsilon-inset lower-left cell corner (``bnd_x``, ``bnd_y``),
    its parity against the full rings (``bnd_in``) and the edges crossing
    the cell, ``ex1/ey1/ex2/ey2[bnd_offs[b]:bnd_offs[b+1]]``. A point is
    inside iff corner parity XOR (# those edges properly crossed by the
    corner→point segment) — ~2 edge tests instead of the ring length.
    """

    res: int
    route_ids: list[str]
    cell_keys: np.ndarray   # uint64 sorted
    cell_offsets: np.ndarray  # int32
    cell_polys: np.ndarray  # int32
    cell_route: np.ndarray  # int32 → index into route_ids
    cell_bnd: np.ndarray    # int32 boundary record, or FULL
    bnd_x: np.ndarray
    bnd_y: np.ndarray
    bnd_in: np.ndarray      # bool
    bnd_offs: np.ndarray    # int32 CSR per record into the edge arrays
    ex1: np.ndarray
    ey1: np.ndarray
    ex2: np.ndarray
    ey2: np.ndarray

    @property
    def cell_full(self) -> np.ndarray:
        """Per pair: the cell is fully inside the polygon (no PIP test)."""
        return self.cell_bnd == FULL

    def _pairs(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point_idx, pair) int32 for every candidate pair of a batch of
        cells, in (point, polygon) order; ``pair`` indexes the CSR
        arrays. The probes are sorted once (default introsort: a stable
        sort costs ~4× more on uint64), each distinct cell is searched
        once, and the CSR ranges are scattered back to point order."""
        n = len(cell)
        empty = np.empty(0, np.int32)
        if len(self.cell_keys) == 0 or n == 0:
            return empty, empty
        order = np.argsort(cell)
        distinct, run_sorted = _runs(cell[order])
        j = np.searchsorted(self.cell_keys, distinct)
        np.minimum(j, len(self.cell_keys) - 1, out=j)
        lo = self.cell_offsets[j]
        cnt = self.cell_offsets[1:][j] - lo
        cnt[self.cell_keys[j] != distinct] = 0
        run = np.empty(n, np.int32)
        run[order] = run_sorted
        return _expand(lo.take(run), cnt.take(run))

    def candidates(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point_idx, poly_idx, fully_inside) candidate pairs for a
        batch of cells, in (point, polygon) order. ``fully_inside``
        pairs need no PIP test."""
        pt, pair = self._pairs(np.asarray(cell, dtype=np.uint64))
        return pt, self.cell_polys[pair], self.cell_bnd[pair] == FULL


def _runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted non-empty ``v`` → (distinct values, run index per element)."""
    new = np.empty(len(v), bool)
    new[0] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return v[new], np.cumsum(new, dtype=np.int32) - 1


def _expand(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ranges → (owner, pos) int32: range ``i`` yields ``count[i]``
    entries ``start[i], start[i] + 1, …``, all owned by ``i``."""
    owner = np.repeat(np.arange(len(count), dtype=np.int32), count)
    pos = np.repeat(start - (np.cumsum(count, dtype=np.int32) - count), count)
    pos += np.arange(len(owner), dtype=np.int32)
    return owner, pos


def build_route_index(
    route_polygons: dict[str, list[tuple[np.ndarray, list[np.ndarray]]]],
    res: int = DEFAULT_JOIN_RES,
) -> RouteIndex:
    """Driver-side build (the polygon side is dimension-scale): the
    exact cover of each polygon (``polygon_cover``), CSR-packed
    cell→polys, with one boundary record per (boundary cell, polygon)
    holding the edges the cover's supercover put in that cell.

    No false negatives: a cell no edge crosses lies wholly inside or
    wholly outside the polygon, as its centre does. So a point inside
    the polygon lies in an interior cell (centre inside, ``FULL``) or in
    a cell an edge crosses (the batched ``supercover``), which carries
    those edges in its record.

    Rings are closed first with the rule ``points_in_polygon`` uses
    (``pip.close_rings``), so an open ring joins like its closed copy. A
    non-finite vertex raises ``ValueError`` naming the route and the
    polygon."""
    route_ids = sorted(route_polygons)
    pairs_cell, pairs_poly, pairs_route, pairs_bnd = [], [], [], []
    bnd_x, bnd_y, bnd_in, bnd_count = [], [], [], []
    e_a, e_b = [], []
    n_bnd = n_poly = 0
    for ri, rid in enumerate(route_ids):
        for k, (outer, holes) in enumerate(route_polygons[rid]):
            rings = close_rings([outer, *holes])
            if not all(np.isfinite(r).all() for r in rings):
                raise ValueError(
                    f"route {rid!r} polygon {k}: non-finite vertex")
            pid = n_poly
            n_poly += 1
            if not rings:
                continue  # no ring with area: no cells
            cov, interior, edge, edge_cell = polygon_cover(rings, res)
            full = np.isin(cov, interior)
            boundary = cov[~full]
            # each (edge, cell) crossing lands in its cell's record;
            # polygon_cover sorts them by edge, so a stable sort by
            # record keeps edge order inside each record
            rec = np.searchsorted(boundary, edge_cell)
            ok = rec < len(boundary)
            ok[ok] = boundary[rec[ok]] == edge_cell[ok]
            rec, edge = rec[ok], edge[ok]
            o = np.argsort(rec, kind="stable")
            rec, edge = rec[o], edge[o]
            # epsilon-inset lower-left corners + their inside status
            w, s_, e_, n_ = cells.cell_bounds(boundary)
            cx = w + (e_ - w) * 1e-6
            cy = s_ + (n_ - s_) * 1e-6
            bnd = np.full(len(cov), FULL, np.int64)
            bnd[~full] = n_bnd + np.arange(len(boundary))
            n_bnd += len(boundary)
            pairs_cell.append(cov)
            pairs_poly.append(np.full(len(cov), pid, dtype=np.int32))
            pairs_route.append(np.full(len(cov), ri, dtype=np.int32))
            pairs_bnd.append(bnd)
            a = np.vstack([r[:-1] for r in rings])
            b = np.vstack([r[1:] for r in rings])
            e_a.append(a[edge])
            e_b.append(b[edge])
            bnd_count.append(np.bincount(rec, minlength=len(boundary)))
            bnd_x.append(cx)
            bnd_y.append(cy)
            bnd_in.append(points_in_polygon(cx, cy, rings))
    cat = (lambda xs, dt: np.concatenate(xs).astype(dt, copy=False) if xs
           else np.empty(0, dt))
    cell_all = cat(pairs_cell, np.uint64)
    order = np.argsort(cell_all, kind="stable")  # polygon order within a cell
    cell_all = cell_all[order]
    keys, starts = np.unique(cell_all, return_index=True)
    a = np.concatenate(e_a) if e_a else np.empty((0, 2))
    b = np.concatenate(e_b) if e_b else np.empty((0, 2))
    return RouteIndex(
        res=res,
        route_ids=route_ids,
        cell_keys=keys,
        cell_offsets=np.concatenate([starts, [len(cell_all)]]).astype(np.int32),
        cell_polys=cat(pairs_poly, np.int32)[order],
        cell_route=cat(pairs_route, np.int32)[order],
        cell_bnd=cat(pairs_bnd, np.int32)[order],
        bnd_x=cat(bnd_x, np.float64),
        bnd_y=cat(bnd_y, np.float64),
        bnd_in=cat(bnd_in, bool),
        bnd_offs=np.concatenate([[0], np.cumsum(cat(bnd_count, np.int64))]).astype(np.int32),
        ex1=np.ascontiguousarray(a[:, 0]),
        ey1=np.ascontiguousarray(a[:, 1]),
        ex2=np.ascontiguousarray(b[:, 0]),
        ey2=np.ascontiguousarray(b[:, 1]),
    )


# per-worker-process cache of deserialized broadcast objects: Ray worker
# processes persist across tasks, so stateless map_batches TASKS get the
# same once-per-process amortization as an actor pool WITHOUT reserving
# CPUs (a fixed actor pool sized to the node starves the read stage —
# observed as a 50× slowdown on an 8-CPU run). Bounded FIFO: a process
# that calls the join repeatedly with fresh indexes (one ref each) would
# otherwise hoard one index copy per call in every worker.
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
    """The join kernel: image rows → assignment rows, every input column
    plus ``cell`` and ``route_id`` (inner join; tiles outside every buffer
    are dropped, like the reference's usage semi-join). For
    ``JOIN_COLUMNS`` input that is (image_id, caption, lon, lat, cell,
    route_id); extra columns, e.g. a checkpointed read's ``path``, ride
    along.

    Used as a plain function over batches (fused with the read, no
    reserved CPUs); the broadcast index is fetched once per worker
    process via ``_get_broadcast`` (zero-copy numpy out of plasma).
    ``__call__`` is one vectorized pass, no per-polygon loop: encode
    the stored lon/lat → drop invalid coordinates → one sorted cell
    lookup (``RouteIndex._pairs``) → fully-inside pairs kept as they are
    → one crossing test over every edge of every boundary pair, parity
    by ``np.bincount`` → (row, route) dedup by an adjacent-difference
    mask, since pairs come in (row, polygon) order.
    """

    def __init__(self, index_ref):
        self.index: RouteIndex = _get_broadcast(index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = self.index
        geo = georef_batch(batch, idx.res)
        lon = geo["lon"].to_numpy()
        lat = geo["lat"].to_numpy()
        cell = geo["cell"].to_numpy().view(np.uint64)
        valid = cells.valid_lonlat(lon, lat)
        if valid.all():
            pt, pair = idx._pairs(cell)
        else:
            rows = np.flatnonzero(valid)
            pt, pair = idx._pairs(cell[rows])
            pt = rows[pt]
        # one crossing test over every edge of every boundary pair
        # (1-D ``take`` and index lists: faster than fancy indexing and
        # boolean compress at these sizes)
        bnd = idx.cell_bnd.take(pair)
        keep = bnd == FULL
        tested = np.flatnonzero(bnd >= 0)
        rec = bnd.take(tested)
        start = idx.bnd_offs.take(rec)
        pi, e = _expand(start, idx.bnd_offs[1:].take(rec) - start)
        x1, y1, x2, y2 = idx.ex1.take(e), idx.ey1.take(e), idx.ex2.take(e), idx.ey2.take(e)
        rp = rec.take(pi)
        cx, cy = idx.bnd_x.take(rp), idx.bnd_y.take(rp)
        tp = pt.take(tested).take(pi)
        px, py = lon.take(tp), lat.take(tp)
        ex, ey = x2 - x1, y2 - y1
        d1 = ex * (cy - y1) - ey * (cx - x1)
        d2 = ex * (py - y1) - ey * (px - x1)
        sx, sy = px - cx, py - cy
        d3 = sx * (y1 - cy) - sy * (x1 - cx)
        d4 = sx * (y2 - cy) - sy * (x2 - cx)
        crosses = ((d1 * d2) < 0) & ((d3 * d4) < 0)
        flips = np.bincount(pi[crosses], minlength=len(rec))
        keep[tested] = idx.bnd_in.take(rec) ^ (flips & 1).astype(bool)
        kept = np.flatnonzero(keep)
        kp = pt.take(kept)
        kr = idx.cell_route.take(pair.take(kept))
        # pairs are in (row, polygon) order and polygon ids rise with the
        # route, so a tile hitting several polygons of one route repeats
        # (row, route) on adjacent pairs: keep the first
        first = np.empty(len(kp), bool)
        first[:1] = True
        np.not_equal(kp[1:], kp[:-1], out=first[1:])
        first[1:] |= kr[1:] != kr[:-1]
        first = np.flatnonzero(first)
        return geo.take(pa.array(kp.take(first))).append_column(
            "route_id", pa.array(idx.route_ids, pa.string()).take(pa.array(kr.take(first))))


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
    repeatedly (e.g. a checkpointed run and its resume, one job each) so
    workers reuse ONE cached copy instead of caching one per invocation.
    Every input column rides through, so a checkpointed read's ``path``
    reaches the writer."""
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
# kNN: k nearest route geometries per tile (a bound descent over a cell
# hierarchy: only the finest level touches the points)
# ---------------------------------------------------------------------------

KNN_LEVELS = (11, 13, 15, 17)  # bound-descent cell resolutions, coarse to
# fine (~15 km down to ~240 m wide here); the points are the last level
_KNN_MAX_PAIRS = 1 << 16  # (item, entry) pairs per descent chunk: its
# temporaries stay cache-resident. One KnnStage call, 4-CPU host, 64k vs
# 4M pairs: 4 disc routes × 100k rows 0.25 vs 0.53 s, 1024 × 20k 0.31 vs
# 0.82 s; a 30k-row route_rollup block 0.03–0.04 s either way
_SLACK = 1.0 + 8.0 * np.finfo(np.float64).eps  # relative slack on every
# prune bound: geometry that meets a bound to within rounding is kept
_KNN_MX, _KNN_MY = meter_frame(_ANCHOR_LAT)


def _knn_xy(lon, lat):
    """Metre (x, y) in the kNN frame, equirectangular at the corridor
    anchor. Route vertices, points and cell centres all convert here;
    cell half-diagonals use the same scales (``_knn_cells``)."""
    return (lon - _ANCHOR_LON) * _KNN_MX, (lat - _ANCHOR_LAT) * _KNN_MY


def _knn_cells(cell):
    """(x, y, r) per cell: metre centre and half-diagonal in the kNN frame."""
    w, s, e, n = cells.cell_bounds(cell)
    x, y = _knn_xy((w + e) * 0.5, (s + n) * 0.5)
    return x, y, np.hypot((e - w) * 0.5 * _KNN_MX, (n - s) * 0.5 * _KNN_MY)


class _SegTable:
    """Every route's parts as one flat entry table, route-major: route
    ``j`` owns entries ``ro[j]:ro[j+1]``, its segments first and its
    single-point parts from ``rp[j]`` on. An entry starts at (``ax``,
    ``ay``), runs by (``dx``, ``dy``) and has ``inv`` = 1/L² (0 when
    degenerate), the ``points_to_polyline_distance`` arithmetic; a point
    entry (``pt``) has length 0 and its distance is ``hypot``.
    ``bad[j]``: route ``j`` has a non-finite vertex or none at all, so the
    bound descent leaves it to ``_route_dist``."""

    def __init__(self, lines: list[list[np.ndarray]]):
        starts, ends, ro, rp, bad = [], [], [0], [], []
        for parts in lines:
            segs = [p for p in parts if len(p) > 1]
            pts = [p for p in parts if len(p) == 1]
            starts += [p[:-1] for p in segs] + pts
            ends += [p[1:] for p in segs] + pts  # a point's end is unused
            rp.append(ro[-1] + sum(len(p) - 1 for p in segs))
            ro.append(rp[-1] + len(pts))
            bad.append(ro[-1] == ro[-2] or not all(np.isfinite(p).all() for p in parts))
        a = np.concatenate(starts) if starts else np.empty((0, 2))
        b = np.concatenate(ends) if ends else np.empty((0, 2))
        self.ro, self.rp = np.asarray(ro), np.asarray(rp, np.int64)
        self.bad = np.asarray(bad, bool)
        self.route = np.repeat(np.arange(len(lines), dtype=np.int32), np.diff(self.ro))
        self.pt = np.arange(len(self.route)) >= self.rp[self.route]
        self.ax, self.ay = np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1])
        self.dx = np.subtract(b[:, 0], self.ax, out=np.zeros_like(self.ax), where=~self.pt)
        self.dy = np.subtract(b[:, 1], self.ay, out=np.zeros_like(self.ay), where=~self.pt)
        L2 = self.dx * self.dx + self.dy * self.dy
        self.inv = np.zeros_like(L2)
        np.divide(1.0, L2, out=self.inv, where=L2 > np.finfo(np.float64).tiny)


def _group_topk(v: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """(groups, k) positions of the k smallest values of each group,
    ascending, equal values by lowest position; group ``g`` is
    ``v[starts[g]:starts[g + 1]]`` and holds at least k values. k passes
    of ``reduceat``, no loop over groups."""
    v = v.copy()
    size = np.diff(starts, append=len(v))
    gid = np.repeat(np.arange(len(starts)), size)
    out = np.empty((len(starts), k), np.intp)
    for i in range(k):
        hit = np.flatnonzero(v == np.repeat(np.minimum.reduceat(v, starts), size))
        out[:, i] = hit[np.diff(gid[hit], prepend=-1) != 0]  # first hit per group
        v[out[:, i]] = np.inf
    return out


def _descend_chunk(T: _SegTable, seg, start, cnt, x, y, r, k):
    """``_descend`` over items whose parents' candidates are
    ``seg[start[i]:start[i] + cnt[i]]``."""
    owner, pos = _expand(start, cnt)
    s = seg.take(pos)
    x, y = np.repeat(x, cnt), np.repeat(y, cnt)
    d = KnnStage._seg_dist2(x, y, T.ax.take(s), T.ay.take(s), T.dx.take(s),
                            T.dy.take(s), T.inv.take(s))
    np.sqrt(d, out=d)
    rt = T.route.take(s)
    new = np.empty(len(s), bool)
    new[0] = True
    np.not_equal(rt[1:], rt[:-1], out=new[1:])
    new[1:] |= owner[1:] != owner[:-1]
    gs = np.flatnonzero(new)  # (item, route) groups, routes ascending per item
    go = owner[gs]
    first = np.flatnonzero(np.diff(go, prepend=-1))  # each item's first group
    if r is None:
        pt = np.flatnonzero(T.pt.take(s))
        d[pt] = np.hypot(x[pt] - T.ax[s[pt]], y[pt] - T.ay[s[pt]])
        lo = np.minimum.reduceat(d, gs)
        sel = _group_topk(lo, first, k)
        return rt[gs][sel], lo[sel]
    lo = np.minimum.reduceat(d, gs)
    rg = r[go]
    ub = lo + rg
    kth = ub[_group_topk(ub, first, k)[:, -1]]
    thr = np.where(lo - rg <= kth[go] * _SLACK, (lo + 2.0 * rg) * _SLACK, -np.inf)
    keep = d <= np.repeat(thr, np.diff(gs, append=len(s)))
    return s[keep], np.bincount(owner[keep], minlength=len(cnt))


def _descend(T: _SegTable, seg, off, par, x, y, r, k):
    """One level of the bound descent. Item ``i`` (a cell with metre
    centre (x, y) and half-diagonal ``r``, or a point when ``r`` is None)
    lies in item ``par[i]`` of the level above, whose candidate entries
    are ``seg[off[p]:off[p + 1]]``, sorted by route.

    For a point ``p`` in cell ``i`` and a route with candidate entries
    ``e``, ``|d(p, e) − d(c, e)| ≤ r``, so the route's distance lies in
    ``lo ± r`` (``lo``: its least centre distance). A cell keeps a route
    whose ``lo − r`` is at most the k-th smallest ``lo + r`` (any other
    route has k routes strictly nearer every point of the cell), and of
    it the entries with ``d(c, e) ≤ lo + 2r``: only these can be a
    point's minimum. Returns the cells' own
    (entries, count per cell); at the point level, (route, distance), each
    (n, k), by lowest distance and then lowest route. Items are processed
    in chunks of about ``_KNN_MAX_PAIRS`` (item, entry) pairs."""
    cnt = off[1:][par] - off[par]
    begin = np.cumsum(cnt) - cnt
    cut = list(np.flatnonzero(np.diff(begin // _KNN_MAX_PAIRS)) + 1)
    out = [
        _descend_chunk(T, seg, off[par[a:b]], cnt[a:b], x[a:b], y[a:b],
                       None if r is None else r[a:b], k)
        for a, b in zip([0] + cut, cut + [len(par)])
    ]
    return tuple(np.concatenate(z) for z in zip(*out))


class KnnStage:
    """Per tile, the k nearest route polylines by point-to-segment
    distance in a corridor-local meter frame (``_knn_xy``); the route
    side is broadcast. Rows with invalid lon/lat (``cells.valid_lonlat``)
    get no neighbours. Ties at rank k go to the lowest route index, and
    the output is bit-equal to a brute-force distance to every route.

    One path, a bound descent (``_descent_topk``): the batch's cells at
    each of ``KNN_LEVELS``, coarse to fine, all at once; each cell keeps
    the routes and segments its centre bounds cannot rule out
    (``_descend``), and only the points themselves take exact distances,
    to the entries their finest cell kept. No loop over cells or routes,
    and a row far from every route costs no more than one near them.
    ``ring`` holds the route side's flat segment table (``_SegTable``)."""

    def __init__(self, routes_ref, k: int = 3):
        routes: dict[str, list[np.ndarray] | np.ndarray] = _get_broadcast(routes_ref)
        self.k = k
        self.route_ids = sorted(routes)
        # each route is a LIST of parts; min distance is taken over parts
        # (a single array is accepted for back-compat)
        self.lines = [
            [np.column_stack(_knn_xy(p[:, 0], p[:, 1]))
             for p in (routes[r] if isinstance(routes[r], list) else [routes[r]])]
            for r in self.route_ids
        ]
        self.ring = _SegTable(self.lines)

    def _route_dist(self, j: int, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        return np.minimum.reduce(
            [points_to_polyline_distance(px, py, part) for part in self.lines[j]]
        )

    @staticmethod
    def _seg_dist2(px, py, ax, ay, dx, dy, inv):
        """Squared point→segment distances, broadcast (``px[:, None]``
        against segment rows gives (points, segments)) — exactly the
        points_to_polyline_distance inner arithmetic."""
        rx = px - ax
        ry = py - ay
        t = (rx * dx + ry * dy) * inv
        np.clip(t, 0.0, 1.0, out=t)
        rx -= t * dx
        ry -= t * dy
        rx *= rx
        ry *= ry
        rx += ry
        return rx

    def _descent_topk(self, lon, lat, px, py, k):
        """Bound descent (``_descend``) over ``KNN_LEVELS``, then the
        points. Routes the descent leaves out (``_SegTable.bad``) get
        ``_route_dist`` to every point and merge by (distance, route)."""
        T = self.ring
        n = len(px)
        kf = min(k, int((~T.bad).sum()))
        top, topd = np.empty((n, 0), np.int64), np.empty((n, 0))
        if n and kf:
            c = cells.encode(lon, lat, KNN_LEVELS[-1])
            order = np.argsort(c)
            # distinct cells per level, fine to coarse: Morton order
            # nests, so each level's cells are runs of the finer ones
            units, pars, u = [], [], c[order]
            for res in reversed(KNN_LEVELS):
                u, p = _runs(cells.parent(u, res))
                units.append(u)
                pars.append(p)
            seg = np.flatnonzero(~T.bad[T.route])
            off = np.array([0, len(seg)])
            par = np.zeros(len(units[-1]), np.int32)
            for u, p in zip(units[::-1], pars[::-1]):
                seg, cnt = _descend(T, seg, off, par, *_knn_cells(u), kf)
                off = np.concatenate([[0], np.cumsum(cnt)])
                par = p
            t, d = _descend(T, seg, off, par, px[order], py[order], None, kf)
            top, topd = np.empty_like(t, np.int64), np.empty_like(d)
            top[order], topd[order] = t, d
        bad = np.flatnonzero(T.bad)
        if len(bad):
            cand = np.concatenate([top, np.broadcast_to(bad, (n, len(bad)))], axis=1)
            dist = np.concatenate(
                [topd, np.stack([self._route_dist(j, px, py) for j in bad], axis=1)], axis=1)
            o = np.lexsort((cand, dist))[:, :k]
            top, topd = np.take_along_axis(cand, o, 1), np.take_along_axis(dist, o, 1)
        return top, topd

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon, lat = row_lonlat(batch)
        ids = batch["image_id"]
        valid = cells.valid_lonlat(lon, lat)
        if not valid.all():
            lon, lat, ids = lon[valid], lat[valid], ids.filter(pa.array(valid))
        px, py = _knn_xy(lon, lat)
        n = len(px)
        k = min(self.k, len(self.route_ids))
        if k == 0:
            # zero routes: a typed empty result, not a np.stack crash
            return pa.table({
                "image_id": pa.array([], ids.type),
                "rank": pa.array([], pa.int32()),
                "route_id": pa.array([], pa.string()),
                "dist_m": pa.array([], pa.float64())})
        top, topd = self._descent_topk(lon, lat, px, py, k)
        ids = pc.take(
            ids.combine_chunks(),
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


def knn_routes(ds: rd.Dataset, route_lines: dict[str, np.ndarray], k: int = 3) -> rd.Dataset:
    """Stateless-task kNN stage over whole read blocks (same
    broadcast/caching discipline as spatial_join). Pass an ``ObjectRef``
    to broadcast ONCE across checkpointed per-partition invocations
    (mirrors spatial_join's contract)."""
    ref = (route_lines if isinstance(route_lines, ray.ObjectRef)
           else ray.put(route_lines))

    def knn_fn(batch: pa.Table) -> pa.Table:
        return _cached_stage(("knn", ref.hex(), k), lambda: KnnStage(ref, k))(batch)

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
    # encode at CELL_COUNT_RES DIRECTLY: floor(x/(k·step)) ==
    # floor(floor(x/step)/k) for the power-of-two lattice, so this equals
    # parent(encode(·, res), CELL_COUNT_RES) while skipping the fine
    # Morton interleave
    lon, lat = row_lonlat(batch)
    valid = cells.valid_lonlat(lon, lat)
    if not valid.all():
        lon, lat = lon[valid], lat[valid]
    uniq, counts = np.unique(cells.encode(lon, lat, CELL_COUNT_RES), return_counts=True)
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
# per-route FeatureCollection assembly (groupby-aggregate-sort)
# ---------------------------------------------------------------------------

def _json_escape(arr: pa.ChunkedArray) -> pa.Array:
    """JSON string-content escaping: one regex scan finds the rows that
    hold a C0 control character, a quote or a backslash, and only those
    go through the standard library's JSON string encoder."""
    arr = arr.combine_chunks()
    hit = pc.match_substring_regex(arr, r'[\x00-\x1f"\\]')
    if not pc.any(hit).as_py():
        return arr
    fixed = [encode_basestring(v)[1:-1] for v in arr.filter(hit).to_pylist()]
    return pc.replace_with_mask(arr, hit, pa.array(fixed, arr.type))


FC_MAX_FEATURES = 100_000  # per-route feature cap (row carries true n_tiles)


def _route_fcs(t: pa.Table) -> pa.Table:
    """Joined rows of any number of routes → one FeatureCollection row
    per route, in route_id order. One sort by (route_id, image_id);
    route starts from the dictionary codes; the first
    ``FC_MAX_FEATURES`` rows of each route kept; every feature built in
    one ``binary_join_element_wise`` (a quad has two distinct x and two
    distinct y values, so 4 coordinate casts carry all 10); each route's
    features joined through list offsets."""
    t = t.take(pc.sort_indices(t, [("route_id", "ascending"), ("image_id", "ascending")]))
    code = pc.dictionary_encode(t["route_id"].combine_chunks()).indices.to_numpy()
    start = np.flatnonzero(np.diff(code, prepend=-1))
    n_tiles = np.diff(start, append=len(code))
    kept = np.minimum(n_tiles, FC_MAX_FEATURES)
    route_id = t["route_id"].take(start)
    t = t.take(_expand(start, kept)[1])
    w, s, e, n = (pc.cast(pa.array(np.round(v, 7)), pa.string())
                  for v in footprint_bounds(*row_lonlat(t)))
    feats = pc.binary_join_element_wise(
        '{"type":"Feature","properties":{"image_id":"', _json_escape(t["image_id"]),
        '","caption":"', _json_escape(t["caption"]), '","cell":', pc.cast(t["cell"], pa.string()),
        '},"geometry":{"type":"Polygon","coordinates":[[[', w, ",", s, "],[", e, ",", s,
        "],[", e, ",", n, "],[", w, ",", n, "],[", w, ",", s, "]]]}}",
        "",  # binary_join_element_wise takes the LAST arg as separator
    ).combine_chunks()
    offsets = pa.array(np.concatenate([[0], np.cumsum(kept)]), pa.int32())
    fc = pc.binary_join_element_wise(
        '{"type":"FeatureCollection","features":[',
        pc.binary_join(pa.ListArray.from_arrays(offsets, feats), ","), "]}", "")
    return pa.table({
        "route_id": route_id,
        "n_tiles": pa.array(n_tiles),  # TRUE count, pre-truncation
        "truncated": pa.array(n_tiles > kept),
        "fc_json": fc,
    })


def write_route_fcs(fcs: rd.Dataset, out_dir: str) -> list[str]:
    """Distributed GeoJSON sink for the per-route FeatureCollections:
    each row written to ``<out_dir>/<route_id>.geojson`` inside the map
    task that holds it (no driver funneling). Returns written paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)

    def write(t: pa.Table) -> pa.Table:
        from geotile.pipeline import sanitize

        paths = []
        for rid, fc in zip(t["route_id"].to_pylist(), t["fc_json"].to_pylist()):
            p = os.path.join(out_dir, sanitize(f"{rid}.geojson"))
            tmp = p + ".tmp"
            with open(tmp, "w") as f:
                f.write(fc)
            os.replace(tmp, p)
            paths.append(p)
        return pa.table({"path": pa.array(paths, pa.string())})

    return [r["path"] for r in fcs.map_batches(write, batch_format="pyarrow").take_all()]


def assemble_route_fcs(joined: rd.Dataset) -> rd.Dataset:
    """groupby(route_id) → one FeatureCollection row per route
    (``_route_fcs``): features ordered by image_id, captions and cells
    as properties (north_star), each feature's quad built from the
    row's stored lon/lat. The ``FC_MAX_FEATURES`` cap bounds single-row
    size at extreme scale; the row carries the true ``n_tiles`` and
    ``truncated``, so a cut is reported, not silent."""
    return joined.groupby("route_id").map_groups(_route_fcs, batch_format="pyarrow")


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


_ROUTE_RDP_DEG = 1e-4  # route_polylines' RDP tolerance, ~11 m


def route_polylines(ctx) -> dict[str, list[np.ndarray]]:
    """Route centerline PARTS for kNN (one array per LineString part —
    concatenating parts would create phantom segments between disjoint
    shapes), RDP-simplified at ``_ROUTE_RDP_DEG`` so per-tile distance
    scans touch few segments (kNN semantics are defined over this
    simplified centerline; distance error ≤ tolerance, far below route
    spacing)."""
    from geotile.geom.rdp import rdp
    from geotile.ops.lines import route_lines

    out: dict[str, list[np.ndarray]] = {}
    for f in route_lines(ctx, {}) or []:
        rid = f["properties"]["route_id"]
        g = f["geometry"]
        parts = [g["coordinates"]] if g["type"] == "LineString" else g["coordinates"]
        out[rid] = [rdp(np.asarray(p, np.float64), _ROUTE_RDP_DEG) for p in parts]
    return out
