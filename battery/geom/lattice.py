"""Distributed marching squares on the GLOBAL cell lattice.

The same segment emitter as ``geotile.geom.raster.trace_mask``
(``_emit_segments``), but windows are computed in global cell
coordinates so edge extraction can run per coarse parent cell on
workers (each covered cell contributes its presence bit to the 4
windows that see it) and only the directed contour segments —
O(perimeter), not O(area) — travel to the driver. Keys are
translation-equal to trace_mask's local keys and both paths chain
through ``chain_ring_keys``, so ring order, start nodes and traversal
are identical to the in-memory path by construction.
"""

from __future__ import annotations

import numpy as np

from geotile.geom import cells as cellmod
from geotile.geom.raster import _emit_segments


def global_key_mult(res: int) -> np.int64:
    """Packing multiplier for doubled global node coords at ``res``."""
    return np.int64(2 * (1 << res) + 8)


def window_segment_keys(
    gx: np.ndarray, gy: np.ndarray, case: np.ndarray, res: int
) -> tuple[np.ndarray, np.ndarray]:
    """Directed contour segments for windows anchored at global cell
    coords (gx, gy) with marching-squares ``case`` — the same
    ``_emit_segments`` gather as trace_mask. Returns packed
    (from_keys, to_keys)."""
    KM = global_key_mult(res)
    fx, fy, tx, ty = _emit_segments(gx, gy, case)
    return (fx + 2) * KM + (fy + 2), (tx + 2) * KM + (ty + 2)


def keys_to_lonlat(keys: np.ndarray, res: int) -> np.ndarray:
    """Packed doubled-node keys → (lon, lat) ring vertices in degrees."""
    KM = global_key_mult(res)
    kx = keys // KM - 2
    ky = keys % KM - 2
    dlon, dlat = cellmod.cell_size_degrees(res)
    lon = -180.0 + (kx / 2.0 + 0.5) * dlon
    lat = -90.0 + (ky / 2.0 + 0.5) * dlat
    return np.column_stack([lon, lat])
