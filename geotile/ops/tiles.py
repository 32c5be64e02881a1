"""Image-tile reader and georeference helpers over the Lance-style
image+caption table.

Each row CARRIES its georeference — the tile centroid in ``lon``/``lat``
columns — so the join/tiling pipeline reads only the columns it needs:
it prunes ``bytes`` at the read and decodes no pixels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from geotile.geom import cells

# join read set: bytes/w/h/fmt pruned at the read.  lon/lat are the
# tile's stored centroid (north-star data model); every join-module
# stage reads position from them and raises without them.
JOIN_COLUMNS = ["image_id", "caption", "lon", "lat"]

TILE_SIDE_M = 100.0  # footprint quad side


def read_image_table(
    path: str | list[str],
    columns: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> rd.Dataset:
    """Reader for the Lance-style image+caption table, stored as parquet
    (same schema; downstream stages only ever see Arrow batches).

    ``override_num_blocks``: Ray sizes blocks from the FULL file size,
    so pruning the wide ``bytes`` column leaves many tiny blocks whose
    scheduling dominates; pass a block count sized to the downstream
    work (e.g. one block per shard)."""
    return rd.read_parquet(path, columns=columns, override_num_blocks=override_num_blocks)


def row_lonlat(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The (lon, lat) centroid each row carries, as float64 arrays."""
    names = batch.column_names
    if "lon" not in names or "lat" not in names:
        raise ValueError(
            "tile rows must carry their lon/lat centroid: read the image "
            f"table with JOIN_COLUMNS = {JOIN_COLUMNS}"
        )
    return (batch["lon"].to_numpy(zero_copy_only=False),
            batch["lat"].to_numpy(zero_copy_only=False))


def georef_batch(batch: pa.Table, res: int) -> pa.Table:
    """Append the uint64 cell id (int64 view: parquet/duckdb-friendly)
    of each row's stored centroid at resolution ``res``."""
    lon, lat = row_lonlat(batch)
    cell = cells.encode(lon, lat, res)
    return batch.append_column("cell", pa.array(cell.view(np.int64)))


def footprint_bounds(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tile centroids → (west, south, east, north) of each axis-aligned
    footprint of side ``TILE_SIDE_M``, in the corridor's equirectangular
    frame at 37.4° latitude."""
    m_per_deg_lat = 6371008.8 * np.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * np.cos(np.radians(37.4))
    hw_lon = TILE_SIDE_M / 2 / m_per_deg_lon
    hw_lat = TILE_SIDE_M / 2 / m_per_deg_lat
    return lon - hw_lon, lat - hw_lat, lon + hw_lon, lat + hw_lat


def footprint_quads(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Tile centroids → (n, 5, 2) closed footprint quads (the corners of
    ``footprint_bounds``, counter-clockwise from south-west)."""
    w, s, e, n = footprint_bounds(lon, lat)
    return np.stack([np.stack(c, axis=-1) for c in ((w, s), (e, s), (e, n), (w, n), (w, s))],
                    axis=1)
