"""Pins for the round-4 GTFS-path edge fixes (gtfs/stops/lines/geojson)."""

from __future__ import annotations

import pytest


def _write_feed(d, tables: dict[str, str]) -> str:
    d.mkdir(parents=True, exist_ok=True)
    for name, csv in tables.items():
        (d / f"{name}.txt").write_text(csv)
    return str(d)


_STOPS = (
    "stop_id,stop_name,stop_lat,stop_lon\n"
    "s1,A,37.70,-122.40\ns2,B,37.60,-122.30\ns3,C,37.50,-122.20\n")
_ROUTES = "route_id,route_short_name,route_type\nR1,1,3\n"


def test_mixed_null_shape_ids_do_not_crash(ray_session, tmp_path):
    """A route with both shaped and shapeless trips must not raise
    TypeError from sorting None against str."""
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.lines import route_shape_map

    feed = _write_feed(tmp_path / "feed", {
        "stops": _STOPS,
        "routes": _ROUTES,
        "trips": ("trip_id,route_id,direction_id,trip_headsign,"
                  "service_id,shape_id\n"
                  "t1,R1,0,North,WK,S1\n"
                  "t2,R1,0,North,WK,\n"),   # shapeless trip -> null
        "shapes": ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                   "S1,37.70,-122.40,1\nS1,37.60,-122.30,2\n"),
        "stop_times": ("trip_id,stop_id,stop_sequence\n"
                       "t1,s1,1\nt1,s2,2\nt2,s1,1\nt2,s3,2\n"),
    })
    ctx = GtfsContext(feed)
    m = route_shape_map(ctx, {})
    assert m == {"R1": ["S1"]}  # the null shape_id contributes nothing


def test_fallback_skips_tripless_route(ray_session, tmp_path):
    """A route with no trips yields NO feature (an empty LineString
    would crash buffer/envelope/dissolve downstream)."""
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.lines import route_lines

    feed = _write_feed(tmp_path / "feed", {
        "stops": _STOPS,
        "routes": _ROUTES + "R2,2,3\n",  # R2 has no trips
        "trips": ("trip_id,route_id,direction_id,trip_headsign,service_id\n"
                  "t1,R1,0,North,WK\n"),
        "stop_times": ("trip_id,stop_id,stop_sequence\n"
                       "t1,s1,1\nt1,s2,2\n"),
    })
    ctx = GtfsContext(feed)
    feats = route_lines(ctx, {})
    rids = {f["properties"]["route_id"] for f in feats}
    assert rids == {"R1"}
    assert all(f["geometry"]["coordinates"] for f in feats)


def test_simplify_feature_null_geometry_passthrough():
    from geotile.geojson import simplify_feature

    f = {"type": "Feature", "properties": {}, "geometry": None}
    assert simplify_feature(f, 5) == f


def test_missing_trips_table_clear_error(ray_session, tmp_path):
    from geotile.ops.gtfs import GtfsContext

    feed = _write_feed(tmp_path / "feed", {
        "shapes": ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                   "S1,37.70,-122.40,1\nS1,37.60,-122.30,2\n"),
    })
    ctx = GtfsContext(feed)  # construction legal (shapes-only fixture)
    with pytest.raises(FileNotFoundError, match="trips"):
        ctx.trips_for("R1")
    with pytest.raises(FileNotFoundError, match="routes"):
        ctx.routes_map()


def test_shape_scoped_stop_query_filters_by_shape(ray_session, tmp_path):
    """outputType=shape stop outputs must contain only the queried
    shape's stops, not the whole feed's."""
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.stops import stop_route_lists

    feed = _write_feed(tmp_path / "feed", {
        "stops": _STOPS,
        "routes": _ROUTES + "R2,2,3\n",
        "trips": ("trip_id,route_id,direction_id,trip_headsign,"
                  "service_id,shape_id\n"
                  "t1,R1,0,North,WK,S1\n"
                  "t2,R2,0,South,WK,S2\n"),
        "shapes": ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                   "S1,37.70,-122.40,1\nS1,37.60,-122.30,2\n"
                   "S2,37.60,-122.30,1\nS2,37.50,-122.20,2\n"),
        "stop_times": ("trip_id,stop_id,stop_sequence\n"
                       "t1,s1,1\nt1,s2,2\n"
                       "t2,s2,1\nt2,s3,2\n"),
    })
    ctx = GtfsContext(feed)
    s1 = stop_route_lists(ctx, {"shape_id": "S1"})
    s2 = stop_route_lists(ctx, {"shape_id": "S2"})
    assert set(s1) == {"s1", "s2"} and all(v == ["R1"] for v in s1.values())
    assert set(s2) == {"s2", "s3"} and all(v == ["R2"] for v in s2.values())


def test_shape_output_skips_null_shape_id(tmp_path):
    """outputType=shape over a shapes.txt row with an empty shape_id:
    the null id is no shape (sorting it against str used to raise)."""
    from geotile.config import AgencyConfig, PipelineConfig
    from geotile.pipeline import run_pipeline

    feed = _write_feed(tmp_path / "feed", {
        "stops": _STOPS,
        "routes": _ROUTES,
        "trips": ("trip_id,route_id,direction_id,trip_headsign,"
                  "service_id,shape_id\n"
                  "t1,R1,0,North,WK,S1\n"),
        "shapes": ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                   "S1,37.70,-122.40,1\nS1,37.60,-122.30,2\n"
                   ",37.50,-122.20,3\n"),
        "stop_times": ("trip_id,stop_id,stop_sequence\n"
                       "t1,s1,1\nt1,s2,2\n"),
    })
    cfg = PipelineConfig(
        agencies=[AgencyConfig(agency_key="ct", path=feed)],
        output_format="lines", output_type="shape",
        output_path=str(tmp_path / "out"), verbose=False)
    run_pipeline(cfg)
    assert sorted(p.name for p in (tmp_path / "out").glob("*.geojson")) == ["S1.geojson"]


# rows deliberately interleaved and out of sequence order; sequence
# numbers 1 < 2 < 10 also catch a string-typed sort
_SHAPES_SHUFFLED = (
    "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
    "S2,37.50,-122.20,10\nS1,37.60,-122.30,2\nS2,37.70,-122.40,1\n"
    "S1,37.70,-122.40,1\nS2,37.65,-122.35,2\nS1,37.50,-122.20,10\n")
_STOPS4 = _STOPS + "s4,D,37.40,-122.10\n"
_ROUTES2 = _ROUTES + "R2,2,3\n"
_TRIPS4 = ("trip_id,route_id,direction_id,trip_headsign,service_id\n"
           "t3,R2,0,North,WK\nt4,R2,0,North,WK\n"
           "t1,R1,0,North,WK\nt2,R1,0,North,WK\n")
# R1: t1 s1>s2>s3>s4, t2 s2>s3 (acyclic: toposort s1 s2 s3 s4).
# R2: t3 s3>s1>s2, t4 s2>s3 (cycle: longest trip t3 s3 s1 s2).
_STOP_TIMES_SORTED = (
    "trip_id,stop_id,stop_sequence\n"
    "t1,s1,1\nt1,s2,2\nt1,s3,10\nt1,s4,11\n"
    "t2,s2,1\nt2,s3,2\n"
    "t3,s3,1\nt3,s1,2\nt3,s2,10\n"
    "t4,s2,1\nt4,s3,2\n")
_STOP_TIMES_SHUFFLED = (
    "trip_id,stop_id,stop_sequence\n"
    "t3,s2,10\nt1,s4,11\nt2,s3,2\nt1,s3,10\nt4,s3,2\nt3,s1,2\n"
    "t1,s1,1\nt4,s2,1\nt2,s2,1\nt3,s3,1\nt1,s2,2\n")


def _lines(tmp_path, name, tables):
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.lines import route_lines

    ctx = GtfsContext(_write_feed(tmp_path / name, tables))
    return {f["properties"]["route_id"]: f["geometry"] for f in route_lines(ctx, {})}


def test_shape_points_follow_sequence_order(tmp_path):
    got = _lines(tmp_path, "feed", {
        "stops": _STOPS, "routes": _ROUTES2, "shapes": _SHAPES_SHUFFLED,
        "trips": ("trip_id,route_id,direction_id,trip_headsign,"
                  "service_id,shape_id\n"
                  "t1,R1,0,North,WK,S1\nt2,R2,0,North,WK,S2\n"),
        "stop_times": "trip_id,stop_id,stop_sequence\nt1,s1,1\nt2,s2,1\n",
    })
    assert got == {
        "R1": {"type": "MultiLineString", "coordinates": [
            [[-122.40, 37.70], [-122.30, 37.60], [-122.20, 37.50]]]},
        "R2": {"type": "MultiLineString", "coordinates": [
            [[-122.40, 37.70], [-122.35, 37.65], [-122.20, 37.50]]]},
    }


def test_stop_order_fallback_ignores_stop_times_row_order(tmp_path):
    tables = {"stops": _STOPS4, "routes": _ROUTES2, "trips": _TRIPS4}
    ordered = _lines(tmp_path, "sorted", {**tables, "stop_times": _STOP_TIMES_SORTED})
    shuffled = _lines(tmp_path, "shuffled", {**tables, "stop_times": _STOP_TIMES_SHUFFLED})
    xy = {"s1": [-122.40, 37.70], "s2": [-122.30, 37.60],
          "s3": [-122.20, 37.50], "s4": [-122.10, 37.40]}
    assert shuffled == ordered == {
        # toposort across t1 and t2
        "R1": {"type": "LineString",
               "coordinates": [xy["s1"], xy["s2"], xy["s3"], xy["s4"]]},
        # cycle -> the longest trip, t3
        "R2": {"type": "LineString",
               "coordinates": [xy["s3"], xy["s1"], xy["s2"]]},
    }


def test_stop_route_lists_sorted_and_distinct(tmp_path):
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.stops import stop_route_lists

    ctx = GtfsContext(_write_feed(tmp_path / "feed", {
        "stops": _STOPS4, "routes": _ROUTES2, "trips": _TRIPS4,
        "stop_times": _STOP_TIMES_SHUFFLED}))
    # s1-s3: both routes, each via two trips; s4: R1's t1 only
    assert stop_route_lists(ctx, {}) == {
        "s1": ["R1", "R2"], "s2": ["R1", "R2"],
        "s3": ["R1", "R2"], "s4": ["R1"]}


def test_stop_time_without_stop_id_is_dropped(tmp_path):
    """An empty stop_id in stop_times names no stop: it serves no route
    and adds no feature (a null key used to crash the stop aggregation)."""
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.stops import stop_features, stop_route_lists

    ctx = GtfsContext(_write_feed(tmp_path / "feed", {
        "stops": _STOPS, "routes": _ROUTES,
        "trips": "trip_id,route_id,direction_id,trip_headsign,service_id\nt1,R1,0,North,WK\n",
        "stop_times": "trip_id,stop_id,stop_sequence\nt1,s1,1\nt1,,2\nt1,s2,3\n"}))
    assert stop_route_lists(ctx, {}) == {"s1": ["R1"], "s2": ["R1"]}
    assert [f["properties"]["stop_id"] for f in stop_features(ctx, {})] == ["s1", "s2"]
