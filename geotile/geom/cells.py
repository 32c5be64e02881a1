"""H3/S2-style hierarchical cell index — from scratch, on a square grid.

A cell id is a single ``uint64``:

    bits 58..63  resolution r (0..26)
    bits 0..2r-1 Morton (Z-order) interleave of the quantized
                 (lon, lat) integer coordinates ix, iy ∈ [0, 2**r)

lon spans [-180, 180) and lat spans [-90, 90); both are quantized into
2**r equal steps (so cells are 2:1 anisotropic in degrees, like the
equirectangular frame the rest of the engine uses). Aperture 4: each
cell has exactly 4 children — ``parent``/``children`` are bit shifts,
and ``k_ring`` is the square (2k+1)² neighborhood with longitude wrap
and latitude clamp.

This plays the role H3's hex index plays in the north_star: a uint64
key that hash-partitions the spatial join, supports multi-resolution
coarsening for skew handling, and ring expansion for kNN search.
"""

from __future__ import annotations

import numpy as np

RES_SHIFT = np.uint64(58)
MAX_RES = 26
_RES_MASK = np.uint64(0x3F) << RES_SHIFT

_M1 = np.uint64(0x0000FFFF0000FFFF)
_M2 = np.uint64(0x00FF00FF00FF00FF)
_M3 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M4 = np.uint64(0x3333333333333333)
_M5 = np.uint64(0x5555555555555555)


def _spread(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each uint64 into the even bit positions."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & _M1
    v = (v | (v << np.uint64(8))) & _M2
    v = (v | (v << np.uint64(4))) & _M3
    v = (v | (v << np.uint64(2))) & _M4
    v = (v | (v << np.uint64(1))) & _M5
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    """Inverse of _spread: gather even bit positions into the low 32 bits."""
    v = v.astype(np.uint64) & _M5
    v = (v | (v >> np.uint64(1))) & _M4
    v = (v | (v >> np.uint64(2))) & _M3
    v = (v | (v >> np.uint64(4))) & _M2
    v = (v | (v >> np.uint64(8))) & _M1
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def _quantize(lon: np.ndarray, lat: np.ndarray, res: int) -> tuple[np.ndarray, np.ndarray]:
    # CLAMP convention at the domain edges (lon=180 -> column n-1, not a
    # wrap to 0): replayed bit-for-bit by the SQL oracle (_sql_quant's
    # least/greatest) and matched by polygon_cover_cells, so points and
    # covers agree at the boundary. Antimeridian-SPANNING geometry is
    # outside the engine's local-meter-frame domain either way.
    n = 1 << res
    ix = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 360.0 * n).astype(np.int64)
    iy = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) / 180.0 * n).astype(np.int64)
    np.clip(ix, 0, n - 1, out=ix)
    np.clip(iy, 0, n - 1, out=iy)
    return ix, iy


def encode(lon, lat, res: int) -> np.ndarray:
    """Vectorized (lon, lat) → uint64 cell id at resolution ``res``."""
    if not 0 <= res <= MAX_RES:
        raise ValueError(f"res must be in [0, {MAX_RES}]")
    ix, iy = _quantize(lon, lat, res)
    code = _spread(ix.astype(np.uint64)) | (_spread(iy.astype(np.uint64)) << np.uint64(1))
    return code | (np.uint64(res) << RES_SHIFT)


def valid_lonlat(lon, lat) -> np.ndarray:
    """Rows ``encode`` places without clamping: lon in [-180, 180] and
    lat in [-90, 90]. NaN and ±inf compare False, so they are invalid
    too. ``encode`` clamps an invalid row into an edge cell, where a
    join or a count would accept it silently — stages drop these rows
    first."""
    return (lon >= -180.0) & (lon <= 180.0) & (lat >= -90.0) & (lat <= 90.0)


def from_ixy(ix: np.ndarray, iy: np.ndarray, res: int) -> np.ndarray:
    code = _spread(np.asarray(ix, dtype=np.uint64)) | (
        _spread(np.asarray(iy, dtype=np.uint64)) << np.uint64(1)
    )
    return code | (np.uint64(res) << RES_SHIFT)


def resolution(cell: np.ndarray) -> np.ndarray:
    return ((np.asarray(cell, dtype=np.uint64) & _RES_MASK) >> RES_SHIFT).astype(np.int64)


def to_ixy(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = np.asarray(cell, dtype=np.uint64) & ~_RES_MASK
    ix = _compact(c).astype(np.int64)
    iy = _compact(c >> np.uint64(1)).astype(np.int64)
    return ix, iy


def cell_center(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 cell ids → (lon, lat) of cell centers."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = resolution(cell)
    ix, iy = to_ixy(cell)
    n = (np.int64(1) << res).astype(np.float64)
    lon = (ix + 0.5) / n * 360.0 - 180.0
    lat = (iy + 0.5) / n * 180.0 - 90.0
    return lon, lat


def cell_bounds(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """→ (lon_min, lat_min, lon_max, lat_max) per cell."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = resolution(cell)
    ix, iy = to_ixy(cell)
    n = (np.int64(1) << res).astype(np.float64)
    lon0 = ix / n * 360.0 - 180.0
    lat0 = iy / n * 180.0 - 90.0
    return lon0, lat0, lon0 + 360.0 / n, lat0 + 180.0 / n


def parent(cell: np.ndarray, parent_res: int | None = None) -> np.ndarray:
    """Coarsen each cell id to ``parent_res`` (default: res-1)."""
    cell = np.asarray(cell, dtype=np.uint64)
    res = resolution(cell)
    pres = res - 1 if parent_res is None else np.full_like(res, parent_res)
    if np.any(pres < 0) or np.any(pres > res):
        raise ValueError("parent_res must be in [0, res]")
    shift = (np.uint64(2) * (res - pres).astype(np.uint64))
    code = (cell & ~_RES_MASK) >> shift
    return code | (pres.astype(np.uint64) << RES_SHIFT)


def children(cell: int) -> np.ndarray:
    """The 4 children of a single cell (scalar → array of 4 ids)."""
    cell = np.uint64(cell)
    res = int(resolution(cell))
    if res >= MAX_RES:
        raise ValueError("cannot subdivide beyond MAX_RES")
    base = (cell & ~_RES_MASK) << np.uint64(2)
    kids = base + np.arange(4, dtype=np.uint64)
    return kids | (np.uint64(res + 1) << RES_SHIFT)


def k_ring(cell: np.ndarray, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k of each input cell
    (including the cell itself). Longitude wraps; latitude clamps.
    Returns a flat unique array when given one cell; for vector input
    returns shape (n, (2k+1)**2) with duplicates possible at lat edges.
    """
    cell = np.atleast_1d(np.asarray(cell, dtype=np.uint64))
    res = resolution(cell)
    if not np.all(res == res[0]):
        raise ValueError("k_ring requires uniform resolution")
    r = int(res[0])
    n = np.int64(1 << r)
    ix, iy = to_ixy(cell)
    d = np.arange(-k, k + 1, dtype=np.int64)
    dx, dy = np.meshgrid(d, d, indexing="ij")
    nx = (ix[:, None] + dx.ravel()[None, :]) % n          # lon wrap
    ny = np.clip(iy[:, None] + dy.ravel()[None, :], 0, n - 1)  # lat clamp
    out = from_ixy(nx.ravel(), ny.ravel(), r).reshape(len(cell), -1)
    if out.shape[0] == 1:
        return np.unique(out[0])
    return out


def cell_size_degrees(res: int) -> tuple[float, float]:
    """(dlon, dlat) of one cell at ``res``."""
    n = float(1 << res)
    return 360.0 / n, 180.0 / n


def k_shell(cell: int | np.ndarray, k: int) -> np.ndarray:
    """Cells at EXACTLY Chebyshev distance k from ONE cell (the ring
    boundary — 8k cells before edge dedup; k=0 is the cell itself).
    Same longitude-wrap / latitude-clamp rules as k_ring, so iterating
    shells 0..r visits exactly k_ring(cell, r). Single-cell API (unlike
    the vectorized k_ring)."""
    cell = np.atleast_1d(np.asarray(cell, dtype=np.uint64))
    if len(cell) != 1:
        raise ValueError("k_shell takes ONE cell; use k_ring for vector input")
    r = int(resolution(cell)[0])
    n = np.int64(1 << r)
    ix, iy = to_ixy(cell)
    ix0, iy0 = np.int64(ix[0]), np.int64(iy[0])
    if k == 0:
        return np.unique(cell)
    side = np.arange(-k, k + 1, dtype=np.int64)
    inner = np.arange(-(k - 1), k, dtype=np.int64)
    dx = np.concatenate([side, side, np.full(len(inner), -k), np.full(len(inner), k)])
    dy = np.concatenate([np.full(len(side), -k), np.full(len(side), k), inner, inner])
    nx = (ix0 + dx) % n
    ny = np.clip(iy0 + dy, 0, n - 1)
    return np.unique(from_ixy(nx.astype(np.uint64), ny.astype(np.uint64), r))
