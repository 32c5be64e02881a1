"""Route line assembly (reference O1-O3, src/lib/geojson-utils.ts:172-253).

The per-shape / per-trip orderings over the fact tables (``shapes``,
``stop_times``) are one stable Arrow sort each, cut into per-key runs;
route-level feature assembly then finalizes with the dims.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from geotile.geojson import feature, format_properties
from geotile.ops.gtfs import GtfsContext


def _key_runs(t: pa.Table, key: str, seq: str) -> tuple[pa.Table, dict[str, slice]]:
    """``t`` sorted by (key, seq) — the reference's per-key ORDER BY seq
    — and each key's row slice in it. The sort is stable, so rows tied
    on seq keep their file order."""
    t = t.take(pc.sort_indices(t, [(key, "ascending"), (seq, "ascending")]))
    keys = t[key].to_numpy()
    if not len(keys):
        return t, {}
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    ends = np.r_[starts[1:], len(keys)]
    return t, {keys[a]: slice(a, b) for a, b in zip(starts, ends)}


def shape_linestrings(ctx: GtfsContext, shape_ids: set[str]) -> dict[str, list]:
    """{shape_id: [[lon, lat], ...]} in shape_pt_sequence order
    (reference relies on node-gtfs ORDER BY, src/lib/geojson-utils.ts:210)."""
    if not shape_ids:
        return {}
    t = ctx.shapes()
    t = t.filter(pc.is_in(t["shape_id"], pa.array(list(shape_ids))))
    t, runs = _key_runs(t, "shape_id", "shape_pt_sequence")
    xy = np.column_stack([t["shape_pt_lon"].to_numpy(), t["shape_pt_lat"].to_numpy()]).tolist()
    return {sid: xy[run] for sid, run in runs.items()}


def route_shape_map(ctx: GtfsContext, query: dict) -> dict[str, list[str]]:
    """Distinct route_id → [shape_id] from the (service-filtered) trips
    dim, narrowed by the query (route_id / direction_id / shape_id)."""
    if "shape_id" not in ctx._trips_dim().column_names:
        # trips.shape_id is OPTIONAL per the GTFS spec: a feed without
        # the column has no shapes mapping at all -> the stop-order
        # fallback path takes over (same as an all-null column)
        return {}
    t = ctx.trips_for(query.get("route_id"), query.get("direction_id"),
                      query.get("shape_id"))
    out: dict[str, list[str]] = defaultdict(list)
    # drop null shape_ids BEFORE sorting — None < str raises, and a
    # shapeless trip contributes nothing to the shapes join anyway
    pairs = {(rid, sid)
             for rid, sid in zip(t["route_id"].to_pylist(),
                                 t["shape_id"].to_pylist())
             if sid is not None}
    for rid, sid in sorted(pairs):
        out[rid].append(sid)
    return dict(out)


def _route_props(ctx: GtfsContext, route_id: str) -> dict:
    # memoized id->record map: the old per-route routes_table filter
    # scan made per-route loops O(routes^2) on the driver
    rec = ctx.routes_map().get(route_id) or {"route_id": route_id}
    attrs = ctx.route_attributes_map().get(route_id, {})
    # node-gtfs getShapesAsGeoJSON flattens route props + attributes and
    # adds agency_name (visible in examples/lines-buffer.geojson props)
    props = dict(rec)
    props.update(attrs)
    props["agency_name"] = ctx.agency_name
    return format_properties(props)


def shape_line_features(ctx: GtfsContext, query: dict) -> list[dict]:
    """Reference getShapesAsGeoJSON path: one MultiLineString Feature per
    route, shapes ordered by shape_id for determinism."""
    rmap = route_shape_map(ctx, query)
    all_sids = {s for sids in rmap.values() for s in sids}
    if not all_sids:
        return []
    shape_rows = shape_linestrings(ctx, all_sids)
    feats = []
    for rid in sorted(rmap):
        coords = [shape_rows[s] for s in sorted(set(rmap[rid])) if s in shape_rows]
        if not coords:
            continue
        feats.append(feature("MultiLineString", coords, _route_props(ctx, rid)))
    return feats


# ---------------------------------------------------------------------------
# stop-order fallback (reference O1/O2: toposort, else longest trip)
# ---------------------------------------------------------------------------

def trip_stop_sequences(ctx: GtfsContext, trip_ids: list[str]) -> dict[str, list[str]]:
    """{trip_id: [stop_id, ...]} in stop_sequence order (reference
    getStoptimes ORDER BY stop_sequence ASC, src/lib/geojson-utils.ts:176-180)."""
    if not trip_ids:
        return {}
    t = ctx.stop_times()
    t = t.filter(pc.is_in(t["trip_id"], pa.array(trip_ids)))
    t, runs = _key_runs(t, "trip_id", "stop_sequence")
    stop_ids = t["stop_id"].to_pylist()
    return {tid: stop_ids[run] for tid, run in runs.items()}


def toposort_stops(trip_sequences: list[list[str]]) -> list[str]:
    """Kahn's algorithm over consecutive-stop edges from all trips
    (reference builds the same edge list, src/lib/geojson-utils.ts:185-198,
    then calls npm toposort). Deterministic tie-break: first-seen order.
    Raises ValueError on a cycle (caller falls back to longest trip)."""
    order: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    succ: dict[str, list[str]] = defaultdict(list)
    indeg: dict[str, int] = defaultdict(int)
    for seq in trip_sequences:
        for s in seq:
            if s not in order:
                order[s] = len(order)
                indeg.setdefault(s, 0)
        for a, b in zip(seq[:-1], seq[1:]):
            if (a, b) not in edges:
                edges.add((a, b))
                succ[a].append(b)
                indeg[b] += 1
    ready = sorted([s for s, d in indeg.items() if d == 0], key=order.__getitem__)
    out: list[str] = []
    while ready:
        ready.sort(key=order.__getitem__)
        n = ready.pop(0)
        out.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(out) != len(order):
        raise ValueError("stop graph has a cycle")
    return out


def ordered_stop_ids_for_route(ctx: GtfsContext, route_id: str,
                               trip_sequences: dict[str, list[str]] | None = None) -> list[str]:
    """Reference getOrderedStopIdsForRoute (src/lib/geojson-utils.ts:172-207):
    toposort across ALL the route's trips; on cycle use the trip with the
    most stoptimes (first max in trip_id order, like lodash maxBy)."""
    trips = ctx.trips_for(route_id)
    tids = sorted(trips["trip_id"].to_pylist())
    if trip_sequences is None:
        trip_sequences = trip_stop_sequences(ctx, tids)
    seqs = [trip_sequences.get(t, []) for t in tids]
    try:
        return toposort_stops(seqs)
    except ValueError:
        longest = max(seqs, key=len) if seqs else []
        return longest


def fallback_line_features(ctx: GtfsContext, query: dict) -> list[dict]:
    """Reference stop-order fallback (src/lib/geojson-utils.ts:227-252):
    one LineString per route through its ordered stops."""
    routes = ctx.routes_table(query.get("route_id"))
    stops = ctx._stops_dim()
    stop_xy = {
        sid: (lon, lat)
        for sid, lon, lat in zip(
            stops["stop_id"].to_pylist(),
            stops["stop_lon"].to_pylist(),
            stops["stop_lat"].to_pylist(),
        )
    }
    # one sort orders the stoptimes of every needed trip
    all_tids = sorted(
        t
        for rid in routes["route_id"].to_pylist()
        for t in ctx.trips_for(rid)["trip_id"].to_pylist()
    )
    seqs = trip_stop_sequences(ctx, all_tids)
    feats = []
    for rec in routes.to_pylist():
        rid = rec["route_id"]
        ordered = ordered_stop_ids_for_route(ctx, rid, seqs)
        coords = [[stop_xy[s][0], stop_xy[s][1]] for s in ordered if s in stop_xy]
        if not coords:
            # a route with no usable trips/stops: the reference throws
            # here (maxBy of an empty trip list); emitting an empty
            # LineString instead crashes the buffer/envelope formats
            # downstream — skip the route
            continue
        props = dict(rec)
        props.update(ctx.route_attributes_map().get(rid, {}))
        props["agency_name"] = ctx.agency_name
        feats.append(feature("LineString", coords, format_properties(props)))
    return feats


def route_lines(ctx: GtfsContext, query: dict) -> list[dict] | None:
    """Reference getRouteLinesAsGeoJSON (src/lib/geojson-utils.ts:209-253):
    prefer shapes; a missing queried shape_id → None; else stop fallback."""
    key = ("route_lines", query.get("route_id"), query.get("direction_id"),
           query.get("shape_id"))
    if key in ctx.cache:
        return ctx.cache[key]
    feats = shape_line_features(ctx, query)
    if not feats:
        feats = None if query.get("shape_id") is not None \
            else fallback_line_features(ctx, query)
    ctx.cache[key] = feats
    return feats
