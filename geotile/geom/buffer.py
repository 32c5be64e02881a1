"""Geodesic-ish buffering — replaces @turf/buffer (reference call sites:
src/lib/formats/stops-buffer.ts:9, lines-buffer.ts:12, *-dissolved.ts).

Strategy (documented semantic deviation, SURVEY §7.4): work in a local
equirectangular meter frame anchored at the feature centroid (turf uses
an azimuthal projection; for features spanning <~1°, the coordinate
difference is far below coordinatePrecision):

  * point buffer  → exact regular 32-gon disc (turf's default 8 steps
    per quarter = 32 vertices)
  * line buffer   → exact-per-pixel distance raster (distance_mask) at
    ``radius / RASTER_CELLS_PER_RADIUS`` resolution, traced back to
    polygons with one-scan marching squares (trace_mask) and always
    RDP-smoothed at half a pixel (level-batched rdp_ring)

Earth radius matches @turf/helpers (6371008.8 m).
"""

from __future__ import annotations

import numpy as np

from geotile.geom.raster import Grid, distance_mask, mask_to_polygons
from geotile.geom.rdp import rdp_ring

EARTH_RADIUS_M = 6371008.8
_DEG = np.pi / 180.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * _DEG  # ~111194.93 m
RASTER_CELLS_PER_RADIUS = 8  # buffer and dissolve raster pixels per radius


def meter_frame(lat0: float) -> tuple[float, float]:
    """(meters per deg lon, meters per deg lat) at anchor latitude."""
    return METERS_PER_DEG_LAT * float(np.cos(lat0 * _DEG)), METERS_PER_DEG_LAT


def disc(lon: float, lat: float, radius_m: float, steps: int = 32) -> np.ndarray:
    """Closed CCW ``steps``-gon around a point, radius in meters.
    Vertex 0 is due east; counter-clockwise."""
    mx, my = meter_frame(lat)
    ang = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    ring = np.column_stack(
        [lon + np.cos(ang) * radius_m / mx, lat + np.sin(ang) * radius_m / my]
    )
    return np.vstack([ring, ring[:1]])


def buffer_raster(
    lines: list[np.ndarray], radius_m: float,
    fill_rings: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, Grid, list[np.ndarray], float, float, float, float]:
    """The raster-buffer internals: local meter frame, grid, and the
    per-pixel distance mask. Returns (mask, grid, metric_lines, lon0,
    lat0, mx, my) — exposed so the oracle stats path (pixel count /
    window-area / Euler replayed in SQL) sees exactly what
    ``buffer_polyline`` rasterizes."""
    allpts = np.vstack([np.asarray(l, dtype=np.float64) for l in lines])
    lat0 = float(allpts[:, 1].mean())
    lon0 = float(allpts[:, 0].mean())
    mx, my = meter_frame(lat0)
    metric = [
        np.column_stack([(np.asarray(l)[:, 0] - lon0) * mx, (np.asarray(l)[:, 1] - lat0) * my])
        for l in lines
    ]
    step = radius_m / RASTER_CELLS_PER_RADIUS
    am = np.vstack(metric)
    x_min, y_min = am[:, 0].min() - radius_m, am[:, 1].min() - radius_m
    x_max, y_max = am[:, 0].max() + radius_m, am[:, 1].max() + radius_m
    grid = Grid(
        x0=x_min - 2 * step,
        y0=y_min - 2 * step,
        step=step,
        nx=int(np.ceil((x_max - x_min) / step)) + 5,
        ny=int(np.ceil((y_max - y_min) / step)) + 5,
    )
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    for ml in metric:
        mask |= distance_mask(ml, radius_m, grid)
    if fill_rings:
        # Polygon-buffer semantics (@turf/buffer): the expanded shape is
        # the FILLED polygon grown by radius, not an annulus around its
        # boundary — OR the even-odd fill of the input rings in
        from geotile.geom.raster import polygon_mask

        metric_fill = [
            np.column_stack([(np.asarray(r)[:, 0] - lon0) * mx,
                             (np.asarray(r)[:, 1] - lat0) * my])
            for r in fill_rings
        ]
        mask |= polygon_mask(metric_fill, grid)
    return mask, grid, metric, lon0, lat0, mx, my


def buffer_polyline(
    lines: list[np.ndarray],
    radius_m: float,
    fill_rings: list[np.ndarray] | None = None,
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Buffer one or more polylines ((m,2) lon/lat arrays, treated as one
    feature — e.g. a MultiLineString route) by ``radius_m``. Returns
    [(outer_ring, [holes])] in lon/lat.  ``fill_rings``: rings whose
    even-odd interior ORs into the mask — pass a Polygon's rings here so
    its buffer is the filled expansion, not a boundary annulus."""
    mask, grid, _metric, lon0, lat0, mx, my = buffer_raster(
        lines, radius_m, fill_rings=fill_rings
    )
    step = grid.step
    polys = mask_to_polygons(mask, grid)
    out: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for outer, holes in polys:
        outer = rdp_ring(outer, step * 0.5)
        holes = [rdp_ring(h, step * 0.5) for h in holes]
        out.append(
            (
                _to_lonlat(outer, lon0, lat0, mx, my),
                [_to_lonlat(h, lon0, lat0, mx, my) for h in holes],
            )
        )
    return out


def _to_lonlat(ring: np.ndarray, lon0: float, lat0: float, mx: float, my: float) -> np.ndarray:
    return np.column_stack([ring[:, 0] / mx + lon0, ring[:, 1] / my + lat0])
