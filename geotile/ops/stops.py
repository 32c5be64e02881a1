"""Stop→route assignment (reference J1 — node-gtfs getStopsAsGeoJSON).

The "spatial join analog" of the reference: stops ⋈ stop_times ⋈ trips
⋈ routes with a per-stop distinct-route list aggregation, dropping
unused stops (README.md:231) but keeping parent stations of used stops
(observed in examples/stops.geojson: place_SANL with ``"routes": {}``).

The join is in-process Arrow: ``stop_times`` gets each row's route
through an ``index_in``/``take`` against the query-filtered trips, then
one ``group_by`` distinct + sort yields the route lists. Stop/route
property decoration runs on that dimension-scale result.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from geotile.geojson import feature, format_properties
from geotile.ops.gtfs import GtfsContext

# the route fields embedded per stop (reference examples/stops.geojson
# BERY feature: route records without agency_id/text color when null)
_ROUTE_EMBED_FIELDS = (
    "route_id",
    "agency_id",
    "route_short_name",
    "route_long_name",
    "route_type",
    "route_url",
    "route_color",
    "route_text_color",
)


def stop_route_lists(ctx: GtfsContext, query: dict) -> dict[str, list[str]]:
    """{stop_id: [route_id, ...]} (distinct, sorted) for used stops only."""
    key = ("stop_route_lists", query.get("route_id"),
           query.get("direction_id"), query.get("shape_id"))
    if key in ctx.cache:
        return ctx.cache[key]
    # shape-scoped stop queries resolve through the shape's trips, as
    # node-gtfs getStops does for its join-key params (reference formats
    # pass {shape_id} for outputType=shape)
    trips = ctx.trips_for(query.get("route_id"), query.get("direction_id"),
                          query.get("shape_id"))
    st = ctx.stop_times()
    idx = pc.index_in(st["trip_id"], trips["trip_id"].combine_chunks())
    hit = pc.and_(pc.is_valid(idx), pc.is_valid(st["stop_id"]))
    pairs = pa.table({
        "stop_id": st["stop_id"].filter(hit),
        "route_id": trips["route_id"].take(idx.filter(hit)),
    })
    pairs = pairs.group_by(["stop_id", "route_id"]).aggregate([]).sort_by(
        [("stop_id", "ascending"), ("route_id", "ascending")])
    out: dict[str, list[str]] = defaultdict(list)
    for sid, rid in zip(pairs["stop_id"].to_pylist(), pairs["route_id"].to_pylist()):
        out[sid].append(rid)
    ctx.cache[key] = dict(out)
    return ctx.cache[key]


def _used_stop_ids(stops: dict[str, dict], used: dict) -> list[str]:
    """Ordered used-stop ids + their parent stations — the shared
    selection behind stop_features and stop_points (the parent-station
    quirk must stay identical in both or convex/buffer outputs diverge
    from the stop features)."""
    parents = {
        stops[s].get("parent_station")
        for s in used
        if s in stops and stops[s].get("parent_station")
    }
    return sorted(set(used) | {p for p in parents if p in stops})


def stop_features(ctx: GtfsContext, query: dict) -> list[dict]:
    """Point features for used stops (+ their parent stations), each with
    the nested distinct-route property list, ordered by stop_id."""
    used = stop_route_lists(ctx, query)
    stops = ctx.stops_map()
    routes = ctx.routes_map()
    agency_name = ctx.agency_name

    # parent stations of used stops ride along with an EMPTY routes dict
    # (the examples/stops.geojson "routes": {} quirk)
    feats = []
    for sid in _used_stop_ids(stops, used):
        rec = stops.get(sid)
        if rec is None:
            continue
        props = {k: v for k, v in rec.items() if k not in ("stop_lat", "stop_lon")}
        if sid in used:
            props["routes"] = [
                {f: routes[rid].get(f) for f in _ROUTE_EMBED_FIELDS}
                for rid in used[sid]
                if rid in routes
            ]
        else:
            props["routes"] = {}  # parent-station quirk
        props["agency_name"] = agency_name
        feats.append(
            feature(
                "Point",
                [rec["stop_lon"], rec["stop_lat"]],
                format_properties(props),
            )
        )
    return feats


def stop_points(ctx: GtfsContext, query: dict) -> np.ndarray:
    """(n, 2) lon/lat of used stops — the convex-hull / buffer input."""
    used = stop_route_lists(ctx, query)
    stops = ctx.stops_map()
    ids = _used_stop_ids(stops, used)
    return np.array([[stops[s]["stop_lon"], stops[s]["stop_lat"]] for s in ids], dtype=np.float64)
