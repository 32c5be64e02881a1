"""outputFormat registry — 9 pluggable builders, parity with the
reference's src/lib/formats/*.ts modules (uniform signature
``(ctx, config, query) -> geojson dict | None``).

Observable semantics preserved exactly (SURVEY §7.4): simplify runs
before union for dissolved outputs ("Simplify geoJSON buffers before
unioning", lines-dissolved.ts:20-22), MultiPolygon skips RDP, dissolved/
envelope/convex outputs carry only {agency_name} properties.
"""

from __future__ import annotations

from typing import Any, Callable

from geotile.config import PipelineConfig
from geotile.geojson import simplify_feature
from geotile.geom.buffer import RASTER_CELLS_PER_RADIUS
from geotile.ops.derive import (
    buffer_feature,
    convex_feature,
    dissolve_features,
    envelope_feature,
)
from geotile.ops.gtfs import GtfsContext
from geotile.ops.lines import route_lines
from geotile.ops.stops import stop_features, stop_points


def _fc(feats: list[dict]) -> dict:
    return {"type": "FeatureCollection", "features": feats}


def _simplify(geojson: dict | None, config: PipelineConfig) -> dict | None:
    """simplifyGeoJSON over a Feature or FeatureCollection."""
    if geojson is None or config.coordinate_precision is None:
        return geojson
    p = config.coordinate_precision
    if geojson.get("type") == "FeatureCollection":
        return _fc([simplify_feature(f, p) for f in geojson["features"]])
    return simplify_feature(geojson, p)


def fmt_stops(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    return _simplify(_fc(stop_features(ctx, query)), config)


def fmt_lines(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    lines = route_lines(ctx, query)
    if lines is None:
        return None
    return _simplify(_fc(lines), config)


def fmt_lines_and_stops(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    lines = route_lines(ctx, query)
    if lines is None:
        return None
    feats = lines + stop_features(ctx, query)  # lines first (mergeGeojson order)
    return _simplify(_fc(feats), config)


def fmt_envelope(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    lines = route_lines(ctx, query)
    if not lines:
        return None
    return _simplify(envelope_feature(lines), config)


def fmt_convex(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    pts = stop_points(ctx, query)
    if len(pts) == 0:
        return None
    f = convex_feature(pts, ctx.agency_name)
    if f is None:
        return None  # reference warns + returns null (convex.ts:13-22)
    return _simplify(f, config)


def fmt_stops_buffer(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    feats = [buffer_feature(f, config.buffer_size_meters) for f in stop_features(ctx, query)]
    return _simplify(_fc(feats), config)


def fmt_lines_buffer(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    lines = route_lines(ctx, query)
    if lines is None:
        return None
    feats = [buffer_feature(f, config.buffer_size_meters) for f in lines]
    return _simplify(_fc(feats), config)


def _dissolved(feats: list[dict], ctx: GtfsContext, config: PipelineConfig) -> dict:
    buffered = [buffer_feature(f, config.buffer_size_meters) for f in feats]
    # "Simplify geoJSON buffers before unioning" (lines-dissolved.ts:20-22);
    # precision == 0 is valid (round to whole degrees) — only None skips
    simplified = (
        _simplify(_fc(buffered), config)["features"]
        if config.coordinate_precision is not None
        else buffered
    )
    cell_m = config.buffer_size_meters / RASTER_CELLS_PER_RADIUS
    merged = dissolve_features(simplified, ctx.agency_name, cell_m=cell_m)
    return _simplify(_fc(merged), config)


def fmt_stops_dissolved(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    feats = stop_features(ctx, query)
    if not feats:
        return None
    return _dissolved(feats, ctx, config)


def fmt_lines_dissolved(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    lines = route_lines(ctx, query)
    if lines is None:
        return None
    return _dissolved(lines, ctx, config)


FORMATS: dict[str, Callable[[GtfsContext, PipelineConfig, dict], dict | None]] = {
    "stops": fmt_stops,
    "lines": fmt_lines,
    "lines-and-stops": fmt_lines_and_stops,
    "envelope": fmt_envelope,
    "convex": fmt_convex,
    "stops-buffer": fmt_stops_buffer,
    "lines-buffer": fmt_lines_buffer,
    "stops-dissolved": fmt_stops_dissolved,
    "lines-dissolved": fmt_lines_dissolved,
}


def get_geojson_by_format(ctx: GtfsContext, config: PipelineConfig, query: dict) -> dict | None:
    """Reference getGeoJSONByFormat dispatch
    (src/lib/gtfs-to-geojson.ts:73-113)."""
    try:
        builder = FORMATS[config.output_format]
    except KeyError:
        raise ValueError(f"Invalid outputFormat={config.output_format!r}") from None
    return builder(ctx, config, query)
