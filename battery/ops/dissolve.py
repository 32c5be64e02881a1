"""Distributed raster↔vector dissolve over tile footprints (cell masks
per batch, one groupby(cell) OR-merge, global-lattice marching squares)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from battery.geom.lattice import keys_to_lonlat, window_segment_keys
from geotile.geom import cells
from geotile.geom.raster import chain_ring_keys, rings_to_polygons
from geotile.ops.join import DEFAULT_JOIN_RES
from geotile.ops.tiles import footprint_quads, row_lonlat


def _footprint_cells(batch: pa.Table, res: int) -> pa.Table:
    """Per-batch rasterization: each tile's axis-aligned footprint quad →
    the cell ids its bbox intersects (vectorized: spans are ≤2×2 cells
    at res≈18 for 100 m tiles), pre-deduped per batch (the combiner)."""
    quads = footprint_quads(*row_lonlat(batch))
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


DISSOLVE_PARENT_RES = DEFAULT_JOIN_RES - 6  # windows group by parent cell


def dissolve_tile_footprints(ds: rd.Dataset):
    """Distributed dissolve of ALL tile footprints at
    ``DEFAULT_JOIN_RES``: per-batch cell masks
    → one groupby(cell) OR-merge (the shuffle carries distinct cells
    only) → DISTRIBUTED marching squares: each covered cell contributes
    its presence bit to the 4 windows that see it, windows are grouped
    by coarse parent cell and vectorized on workers, and only the
    directed contour segments — O(region perimeter), never the O(area)
    distinct-cell set — reach the driver, which chains them into rings
    (identical order/vertices to the in-memory trace_mask) and assigns
    holes. Returns (covered_cells_dataset, [(outer, holes)] in lon/lat).
    """
    res = DEFAULT_JOIN_RES
    shift = res - DISSOLVE_PARENT_RES
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
