"""Seeded input generator for the geotile benchmark.

Everything here is a pure function of the seed passed in: the program
under test only ever sees the parquet files and geometry this module
writes. It deliberately shares no code with ``geotile.synth`` (whose
placement is seed-free), so a change to the program's fixtures cannot
silently change the benchmark's inputs.

Image rows carry the Lance-style ``input_hint`` schema (image_id, bytes,
w, h, fmt, caption, phash) plus the ``lon``/``lat`` footprint centre.
Every row of a dataset is distinct; a pass reads each row once.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

M_PER_DEG_LAT = 6371008.8 * np.pi / 180.0

# The caltrain fixture's corridor: 30 stops on a gently curved
# north-to-south line. Join workloads scatter tiles around it so that a
# share of them falls inside the L1/L2 400 m route buffers.
_T = np.arange(30) / 29.0
CORRIDOR_LON = -122.40 + 0.55 * _T + 0.03 * np.sin(_T * np.pi * 2)
CORRIDOR_LAT = 37.78 - 0.76 * _T

# The metro network sits around the anchor of geotile's kNN meter frame.
METRO_CENTER = (-122.10, 37.40)
METRO_HALF_EXTENT = (0.08, 0.065)  # degrees lon, lat (~14 km x 14 km)


@dataclass(frozen=True)
class CorridorSkew:
    """Tile placement along the corridor: ``1 - hot_fraction`` of tiles
    spread uniformly along it within ``half_width_m`` laterally, the rest
    within ``hot_radius_m`` of corridor stop ``hot_stop``."""

    half_width_m: float
    hot_stop: int
    hot_fraction: float
    hot_radius_m: float = 150.0


def _m_per_deg_lon(lat: float) -> float:
    return M_PER_DEG_LAT * float(np.cos(np.radians(lat)))


def corridor_points(rng: np.random.Generator, n: int, skew: CorridorSkew):
    """(lon, lat) of ``n`` tile centres along the corridor."""
    seg = rng.random(n) * (len(CORRIDOR_LON) - 1)
    s0 = np.minimum(seg.astype(np.int64), len(CORRIDOR_LON) - 2)
    t = seg - s0
    lon = CORRIDOR_LON[s0] * (1 - t) + CORRIDOR_LON[s0 + 1] * t
    lat = CORRIDOR_LAT[s0] * (1 - t) + CORRIDOR_LAT[s0 + 1] * t
    mx = _m_per_deg_lon(37.4)
    lon = lon + (rng.random(n) * 2 - 1) * skew.half_width_m / mx
    hot = rng.random(n) < skew.hot_fraction
    r = np.sqrt(rng.random(n)) * skew.hot_radius_m
    ang = rng.random(n) * 2 * np.pi
    lon = np.where(hot, CORRIDOR_LON[skew.hot_stop] + np.cos(ang) * r / mx, lon)
    lat = np.where(hot, CORRIDOR_LAT[skew.hot_stop] + np.sin(ang) * r / M_PER_DEG_LAT, lat)
    return lon, lat


def _star_ring(rng, lon, lat, radius_m, n_vert, inner=False):
    """Closed star-shaped ring (non-convex, irregular radii), CCW, or a
    CW hole ring when ``inner``."""
    ang = np.sort(rng.random(n_vert)) * 2 * np.pi
    rad = radius_m * (0.6 + 0.4 * rng.random(n_vert))
    if inner:
        ang = ang[::-1]
    ring = np.column_stack([
        lon + np.cos(ang) * rad / _m_per_deg_lon(lat),
        lat + np.sin(ang) * rad / M_PER_DEG_LAT,
    ])
    return np.vstack([ring, ring[:1]])


def metro_network(rng: np.random.Generator, n_routes: int, stations_per_route: int):
    """A seeded metro network: alternate routes run east-west and
    north-south across the whole area at evenly spaced, jittered
    offsets, tilted and bent by the seed, so every seed gives a network
    of the same density. Each route is a polyline through its stations
    and each station owns a star-shaped polygon (the fourth station of
    a route has a courtyard hole). Routes cross, so station polygons of
    different routes overlap and a tile can join several routes.

    Returns (route polygons {route_id: [(outer, [holes])]},
    route polylines {route_id: [line]}, station centres (m, 2))."""
    cx, cy = METRO_CENTER
    hx, hy = METRO_HALF_EXTENT
    slots = (n_routes + 1) // 2
    polygons: dict[str, list] = {}
    lines: dict[str, list] = {}
    centres = []
    for r in range(n_routes):
        rid = f"M{r:03d}"
        off = (r // 2 + 0.5 + (rng.random() - 0.5) * 0.6) / slots * 2 - 1
        tilt = (rng.random() * 2 - 1) * 0.2
        if r % 2 == 0:  # east-west
            a = np.array([cx - hx, cy + (off - tilt) * hy])
            b = np.array([cx + hx, cy + (off + tilt) * hy])
        else:
            a = np.array([cx + (off - tilt) * hx, cy - hy])
            b = np.array([cx + (off + tilt) * hx, cy + hy])
        t = np.linspace(0.05, 0.95, stations_per_route)
        t = t + (rng.random(stations_per_route) - 0.5) * 0.5 / stations_per_route
        bend = np.sin(t * np.pi) * (rng.random() * 2 - 1) * 0.01
        normal = np.array([-(b - a)[1], (b - a)[0]])
        normal = normal / np.hypot(*normal)
        pts = a + np.outer(t, b - a) + np.outer(bend, normal)
        lines[rid] = [pts]
        polys = []
        for s, (lon, lat) in enumerate(pts):
            radius = 150.0 + 300.0 * rng.random()
            outer = _star_ring(rng, lon, lat, radius, int(rng.integers(16, 33)))
            holes = []
            if s % 8 == 3:
                holes.append(_star_ring(rng, lon, lat, radius * 0.3, 12, inner=True))
            polys.append((outer, holes))
            centres.append((lon, lat))
        polygons[rid] = polys
    return polygons, lines, np.asarray(centres)


def metro_points(rng: np.random.Generator, n: int, centres: np.ndarray,
                 near_fraction: float, hot_fraction: float):
    """Tiles over the metro area: ``near_fraction`` scattered around a
    random station (sigma 250 m), ``hot_fraction`` within 200 m of one
    hot station, the rest uniform over the area."""
    cx, cy = METRO_CENTER
    hx, hy = METRO_HALF_EXTENT
    lon = cx + (rng.random(n) * 2 - 1) * hx
    lat = cy + (rng.random(n) * 2 - 1) * hy
    mx = _m_per_deg_lon(cy)
    u = rng.random(n)
    near = u < near_fraction
    st = centres[rng.integers(0, len(centres), n)]
    lon = np.where(near, st[:, 0] + rng.normal(0, 250.0, n) / mx, lon)
    lat = np.where(near, st[:, 1] + rng.normal(0, 250.0, n) / M_PER_DEG_LAT, lat)
    hot = u >= 1.0 - hot_fraction
    hc = centres[int(rng.integers(0, len(centres)))]
    r = np.sqrt(rng.random(n)) * 200.0
    ang = rng.random(n) * 2 * np.pi
    lon = np.where(hot, hc[0] + np.cos(ang) * r / mx, lon)
    lat = np.where(hot, hc[1] + np.sin(ang) * r / M_PER_DEG_LAT, lat)
    return lon, lat


def image_id_strings(idx: np.ndarray) -> pa.Array:
    """Row indices → 'img-%08d' ids (the format the engine parses)."""
    digits = pc.utf8_lpad(pc.cast(pa.array(idx, pa.int64()), pa.string()), 8, "0")
    return pc.binary_join_element_wise("img-", digits, "")


def image_rows(rng: np.random.Generator, start: int, lon: np.ndarray, lat: np.ndarray) -> pa.Table:
    """``input_hint`` rows (+ lon/lat) for indices ``start..start+n``.
    Payloads are tiny raw 2x2 RGB tiles: the join path prunes them at
    the read, so their size only affects the file size."""
    n = len(lon)
    idx = np.arange(start, start + n, dtype=np.int64)
    data = rng.integers(0, 256, n * 12, dtype=np.uint8)
    offsets = np.arange(0, (n + 1) * 12, 12, dtype=np.int32)
    payload = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offsets), pa.py_buffer(data)])
    words = np.array(["harbor", "rail", "depot", "market", "bridge", "yard", "plaza"])
    caption = pc.binary_join_element_wise(
        "tile ", pc.cast(pa.array(idx), pa.string()), " ",
        pa.array(words[rng.integers(0, len(words), n)]), "")
    return pa.table({
        "image_id": image_id_strings(idx),
        "bytes": payload,
        "w": pa.array(np.full(n, 2, np.int32)),
        "h": pa.array(np.full(n, 2, np.int32)),
        "fmt": pa.array(np.full(n, "raw")),
        "caption": caption,
        "phash": pa.array(rng.integers(-(1 << 62), 1 << 62, n, dtype=np.int64)),
        "lon": pa.array(lon),
        "lat": pa.array(lat),
    })


def write_parts(out_dir: Path, rng: np.random.Generator, lon: np.ndarray, lat: np.ndarray,
                rows_per_part: int, first: int = 0) -> None:
    """Write the rows, whose image indices start at ``first``, as
    ``part-%05d.parquet`` shards of ``rows_per_part`` rows."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in range(0, len(lon), rows_per_part):
        e = min(len(lon), s + rows_per_part)
        p = out_dir / f"part-{(first + s) // rows_per_part:05d}.parquet"
        pq.write_table(image_rows(rng, first + s, lon[s:e], lat[s:e]), p,
                       row_group_size=rows_per_part)


def save_geometry(path: Path, geometry: dict) -> None:
    """{route_id: [ring lists or lines]} → JSON (float repr round-trips exactly)."""
    def enc(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return v

    path.write_text(json.dumps({k: enc(v) for k, v in geometry.items()}))


def load_polygons(path: Path) -> dict[str, list]:
    raw = json.loads(path.read_text())
    return {rid: [(np.asarray(o, np.float64), [np.asarray(h, np.float64) for h in hs])
                  for o, hs in polys] for rid, polys in raw.items()}


def load_lines(path: Path) -> dict[str, list]:
    raw = json.loads(path.read_text())
    return {rid: [np.asarray(p, np.float64) for p in parts] for rid, parts in raw.items()}


def cached(cache_root: Path, key: str, build) -> Path:
    """Build ``cache_root/key`` once with ``build(tmp_dir)`` and reuse it.
    Only the two most recently used entries with the same prefix (the
    part before the last '-') survive, so per-seed inputs do not pile
    up on disk across many seeded runs."""
    cache_root.mkdir(parents=True, exist_ok=True)
    final = cache_root / key
    if not (final / "_DONE").exists():
        tmp = cache_root / f".tmp-{key}"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        tmp.mkdir(parents=True)
        build(tmp)
        (tmp / "_DONE").write_text("")
        tmp.rename(final)
    (final / "_DONE").touch()
    prefix = key.rsplit("-", 1)[0] + "-"
    siblings = sorted(
        (p for p in cache_root.iterdir() if p.name.startswith(prefix) and p != final
         and (p / "_DONE").exists()),
        key=lambda p: (p / "_DONE").stat().st_mtime_ns, reverse=True)
    for old in siblings[1:]:
        shutil.rmtree(old, ignore_errors=True)
    return final
