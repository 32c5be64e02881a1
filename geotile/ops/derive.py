"""Derived geometry: envelope, convex hull, buffer, dissolve.

Reference format modules src/lib/formats/*.ts; geometry math is the
from-scratch numpy of geotile.geom. Buffers/hulls run per feature over
dimension-scale feature lists (the scale-out versions over billions of
image tiles live in geotile.ops.join / geotile.ops.tiles).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from geotile.geojson import feature
from geotile.geom.bbox import bbox_merge, bbox_partial, bbox_polygon
from geotile.geom.buffer import _to_lonlat, buffer_polyline, disc, meter_frame
from geotile.geom.hull import convex_hull
from geotile.geom.raster import Grid, mask_to_polygons, polygon_mask


def _all_coords(feats: list[dict]) -> np.ndarray:
    pts = []
    for f in feats:
        g = f["geometry"]
        c = g["coordinates"]
        if g["type"] == "Point":
            pts.append([c])
        elif g["type"] == "LineString":
            pts.append(c)
        elif g["type"] in ("MultiLineString", "Polygon"):
            pts.extend(c)
        elif g["type"] == "MultiPolygon":
            for poly in c:
                pts.extend(poly)
    return np.vstack([np.asarray(p, dtype=np.float64) for p in pts])


def envelope_feature(line_feats: list[dict]) -> dict:
    """Reference envelope.ts:14: bboxPolygon(bbox(lines)) with the bbox
    member kept UNROUNDED on the feature (examples/envelope.geojson) and
    {agency_name} properties from the first line feature."""
    coords = _all_coords(line_feats)
    bb = bbox_partial(coords[:, 0], coords[:, 1])
    agency = line_feats[0]["properties"].get("agency_name")
    return feature(
        "Polygon",
        [bbox_polygon(bb).tolist()],
        {"agency_name": agency},
        bbox=list(bb),
    )


def convex_feature(points: np.ndarray, agency_name: str | None) -> dict | None:
    """Reference convex.ts:10-22: hull of all stop points, None (warn)
    when degenerate."""
    hull = convex_hull(points)
    if hull is None:
        return None
    return feature("Polygon", [hull.tolist()], {"agency_name": agency_name})


def buffer_feature(f: dict, radius_m: float) -> dict:
    """Buffer ONE feature (reference @turf/buffer, units meters):
    Point → 32-gon disc Polygon; (Multi)LineString → raster distance
    buffer → Polygon or MultiPolygon. Properties ride through."""
    g = f["geometry"]
    if g["type"] == "Point":
        lon, lat = g["coordinates"]
        ring = disc(lon, lat, radius_m)
        return feature("Polygon", [ring.tolist()], f["properties"])
    fill_rings = None
    if g["type"] == "LineString":
        lines = [np.asarray(g["coordinates"], dtype=np.float64)]
    elif g["type"] == "MultiLineString":
        lines = [np.asarray(ls, dtype=np.float64) for ls in g["coordinates"]]
    elif g["type"] in ("Polygon",):
        # @turf/buffer grows the FILLED polygon; buffering only the
        # boundary rings produced a hollow annulus that excluded the
        # entire original interior
        lines = [np.asarray(r, dtype=np.float64) for r in g["coordinates"]]
        fill_rings = lines
    else:
        raise ValueError(f"cannot buffer {g['type']}")
    polys = buffer_polyline(lines, radius_m, fill_rings=fill_rings)
    if len(polys) == 1:
        outer, holes = polys[0]
        return feature("Polygon", [outer.tolist()] + [h.tolist() for h in holes], f["properties"])
    return feature(
        "MultiPolygon",
        [[o.tolist()] + [h.tolist() for h in holes] for o, holes in polys],
        f["properties"],
    )


def dissolve_raster(
    feats: list[dict], cell_m: float = 50.0
) -> tuple[np.ndarray, Grid, list[list[np.ndarray]], float, float, float, float]:
    """The raster-union internals of ``dissolve_features``: shared local
    meter frame, per-feature metric rings, and the even-odd-filled OR
    mask. Returns (mask, grid, metric_rings_per_feat, lon0, lat0, mx,
    my) — exposed so the oracle stats path (pixel count / window-area /
    Euler replayed in SQL) sees exactly what the dissolve rasterizes."""
    rings_per_feat: list[list[np.ndarray]] = []
    for f in feats:
        g = f["geometry"]
        if g["type"] == "Polygon":
            rings_per_feat.append([np.asarray(r, dtype=np.float64) for r in g["coordinates"]])
        elif g["type"] == "MultiPolygon":
            for poly in g["coordinates"]:
                rings_per_feat.append([np.asarray(r, dtype=np.float64) for r in poly])
    allpts = np.vstack([r for rs in rings_per_feat for r in rs])
    lon0, lat0 = float(allpts[:, 0].mean()), float(allpts[:, 1].mean())
    mx, my = meter_frame(lat0)
    metric = [
        [np.column_stack([(r[:, 0] - lon0) * mx, (r[:, 1] - lat0) * my]) for r in rs]
        for rs in rings_per_feat
    ]
    am = np.vstack([r for rs in metric for r in rs])
    grid = Grid(
        x0=float(am[:, 0].min()) - 2 * cell_m,
        y0=float(am[:, 1].min()) - 2 * cell_m,
        step=cell_m,
        nx=int(np.ceil((am[:, 0].max() - am[:, 0].min()) / cell_m)) + 5,
        ny=int(np.ceil((am[:, 1].max() - am[:, 1].min()) / cell_m)) + 5,
    )
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    for rs in metric:
        # windowed fill: each feature touches only its bbox sub-window
        # (bit-identical to the full-grid fill by polygon_mask's window
        # contract) — the full-grid version made dissolve O(features x
        # grid_area), ~5e9 cell-ops for 5000 stop discs on a metro grid
        ap = np.vstack(rs)
        i0 = max(0, int(np.floor((ap[:, 0].min() - grid.x0) / grid.step)) - 1)
        i1 = min(grid.nx, int(np.ceil((ap[:, 0].max() - grid.x0) / grid.step)) + 2)
        j0 = max(0, int(np.floor((ap[:, 1].min() - grid.y0) / grid.step)) - 1)
        j1 = min(grid.ny, int(np.ceil((ap[:, 1].max() - grid.y0) / grid.step)) + 2)
        if i0 >= i1 or j0 >= j1:
            continue
        mask[j0:j1, i0:i1] |= polygon_mask(rs, grid, window=(i0, i1, j0, j1))
    return mask, grid, metric, lon0, lat0, mx, my


def dissolve_features(feats: list[dict], agency_name: str | None,
                      cell_m: float = 50.0) -> list[dict]:
    """Union all polygon features (reference unionGeojson,
    src/lib/geojson-utils.ts:159-170; single feature passes through).
    Raster union on a shared local-meter grid → one Polygon feature per
    disjoint region, each carrying only {agency_name} — matching the
    examples/stops-dissolved.geojson shape (47 disjoint polygons)."""
    if not feats:
        return []  # an all-skipped route set dissolves to nothing
    if len(feats) == 1:
        out = dict(feats[0])
        out["properties"] = {**(out.get("properties") or {}), "agency_name": agency_name}
        return [out]
    mask, grid, metric, lon0, lat0, mx, my = dissolve_raster(feats, cell_m)
    out = []
    for outer, holes in mask_to_polygons(mask, grid):
        coords = [_to_lonlat(r, lon0, lat0, mx, my).tolist() for r in [outer, *holes]]
        out.append(feature("Polygon", coords, {"agency_name": agency_name}))
    return out
