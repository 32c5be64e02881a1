"""Deterministic synthetic fixtures (seed-free: everything is a pure
function of row index), per FIXTURES.md:

1. ``make_caltrain_fixture`` — a caltrain-shaped GTFS feed as parquet
   tables (the reference's de-facto fixtures are BART snapshots in
   /root/reference/examples; ours are committed goldens over this feed).
2. ``make_image_table`` — the Lance-style image+caption table with the
   exact BASELINE.json ``input_hint`` schema (image_id, bytes, w, h,
   fmt, caption, phash) plus each tile's stored centroid (lon, lat), a
   pure function of the row index: tile centroids are placed along the
   caltrain corridor with ~2/3 inside route buffers and a deliberately
   hot cell cluster for skew tests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from geotile.png import encode_png

# ---------------------------------------------------------------------------
# deterministic hashing (splitmix64) — tile placement and pixel
# patterns are pure functions of the row index through these
# ---------------------------------------------------------------------------

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: uint64 → well-mixed uint64."""
    z = (np.asarray(x, dtype=np.uint64) + _SM_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit(x: np.ndarray, salt: int) -> np.ndarray:
    """uint64 index + salt → float64 in [0, 1)."""
    offset = np.uint64((salt * 0x9E3779B97F4A7C15) % (1 << 64))
    h = splitmix64(np.asarray(x, dtype=np.uint64) + offset)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def image_index(image_id) -> np.ndarray:
    """'img-00000042' → 42 for an array of id strings. Fast path: when
    given an Arrow string column of uniform 12-char ids, parse the
    zero-padded digits straight out of the UTF-8 data buffer (no
    object/UTF-32 round trip — ~10× the numpy-cast path); otherwise
    fall back to the U13 slice + cast."""
    if isinstance(image_id, pa.ChunkedArray):
        image_id = image_id.combine_chunks()
    if isinstance(image_id, pa.Array):
        n = len(image_id)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if image_id.null_count == 0:
            off_dtype = np.int64 if pa.types.is_large_string(image_id.type) else np.int32
            off = np.frombuffer(image_id.buffers()[1], dtype=off_dtype)[
                image_id.offset : image_id.offset + n + 1
            ].astype(np.int64)
            lens = off[1:] - off[:-1]
            if (lens == 12).all():
                data = np.frombuffer(image_id.buffers()[2], dtype=np.uint8)
                window = data[off[:-1, None] + np.arange(12)]
                digits = window[:, 4:].astype(np.int64) - 48
                # validate so malformed ids fail loudly (as the numpy
                # cast path does) instead of parsing to garbage
                if (
                    (window[:, :4] == np.frombuffer(b"img-", np.uint8)).all()
                    and ((digits >= 0) & (digits <= 9)).all()
                ):
                    return digits @ (10 ** np.arange(7, -1, -1, dtype=np.int64))
        image_id = image_id.to_numpy(zero_copy_only=False)
    arr = np.asarray(image_id, dtype="U13")
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    digits = arr.view("U1").reshape(len(arr), -1)[:, 4:12]
    return digits.view("U8").ravel().astype(np.int64)


# ---------------------------------------------------------------------------
# the caltrain-style corridor (lon -122.4..-121.8, lat 37.0..37.8)
# ---------------------------------------------------------------------------

N_STOPS = 30
_T = np.arange(N_STOPS) / (N_STOPS - 1)
# gently curved north-south corridor, north end first
STOP_LONS = -122.40 + 0.55 * _T + 0.03 * np.sin(_T * np.pi * 2)
STOP_LATS = 37.78 - 0.76 * _T
STOP_IDS = [f"st{i:02d}" for i in range(N_STOPS)]
HOT_STOP = 7  # the skew hot-spot station

AGENCY = {"agency_id": "CT", "agency_name": "CalTrain Synthetic",
          "agency_url": "https://example.com/ct", "agency_timezone": "America/Los_Angeles"}

# route → (served stop step, has shapes, agency_id, color)
ROUTE_DEFS = [
    ("L1", "CT", "Local", 1, True, "E31837", "FFFFFF"),
    ("L2", "CT", "Limited", 2, True, None, None),      # nullable-color row
    ("L3", "CT", "Express", 4, False, "0067B1", "FFFFFF"),   # no shapes → toposort path
    ("L3", "CT2", "Express Shuttle", 6, False, "777777", "000000"),  # dup route_id
]


def _route_stop_ids(step: int) -> list[str]:
    return STOP_IDS[::step] if STOP_IDS[::step][-1] == STOP_IDS[-1] else STOP_IDS[::step] + [STOP_IDS[-1]]


def route_stop_coords(step: int) -> np.ndarray:
    idx = np.array([STOP_IDS.index(s) for s in _route_stop_ids(step)])
    return np.column_stack([STOP_LONS[idx], STOP_LATS[idx]])


def _shape_points(step: int, direction: int) -> np.ndarray:
    """Densified corridor polyline for a route's shape (≈100 pts)."""
    base = route_stop_coords(step)
    if direction == 1:
        base = base[::-1]
    # densify: 4 interpolated points per leg + mild deterministic wobble
    out = [base[0]]
    for a, b in zip(base[:-1], base[1:]):
        for k in range(1, 5):
            t = k / 5.0
            p = a + (b - a) * t
            p = p + np.array([0.0006 * np.sin(t * np.pi), 0.0])
            out.append(p)
        out.append(b)
    return np.array(out)


def make_caltrain_fixture(out_dir: str | Path) -> Path:
    """Write the GTFS-style parquet tables; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pq.write_table(
        pa.table({k: [v] for k, v in AGENCY.items()}), out / "agency.parquet"
    )

    routes = pa.table(
        {
            "route_id": pa.array([r[0] for r in ROUTE_DEFS], pa.string()),
            "agency_id": pa.array([r[1] for r in ROUTE_DEFS], pa.string()),
            "route_short_name": pa.array([r[0] for r in ROUTE_DEFS], pa.string()),
            "route_long_name": pa.array([f"{r[2]} Service" for r in ROUTE_DEFS], pa.string()),
            "route_type": pa.array([2] * len(ROUTE_DEFS), pa.int32()),
            "route_color": pa.array([r[5] for r in ROUTE_DEFS], pa.string()),
            "route_text_color": pa.array([r[6] for r in ROUTE_DEFS], pa.string()),
            "route_url": pa.array(
                [f"https://example.com/ct/{r[0].lower()}-{i}" for i, r in enumerate(ROUTE_DEFS)],
                pa.string(),
            ),
        }
    )
    pq.write_table(routes, out / "routes.parquet")

    # trips: 2 directions × 2 services-worth per route; route (L3, CT2)
    # gets weekend-only trips; one OLD-service trip exercises date filter
    trip_rows = {k: [] for k in
                 ("trip_id", "route_id", "service_id", "trip_headsign", "direction_id", "shape_id")}
    stoptime_rows = {k: [] for k in
                     ("trip_id", "stop_id", "stop_sequence", "arrival_time", "departure_time")}
    shape_ids_written: set[str] = set()
    shapes_rows = {k: [] for k in
                   ("shape_id", "shape_pt_lat", "shape_pt_lon", "shape_pt_sequence")}
    tcount = 0
    for ridx, (rid, agid, kind, step, has_shapes, _c, _tc) in enumerate(ROUTE_DEFS):
        stops_for_route = _route_stop_ids(step)
        for direction in (0, 1):
            headsign = f"{'South' if direction == 0 else 'North'} via {kind}"
            sid_list = ["WK", "WE"] if agid == "CT" else ["WE"]
            if rid == "L1" and direction == 0:
                sid_list = sid_list + ["OLD"]  # expired service → date-filtered out
            shape_id = None
            if has_shapes:
                shape_id = f"shp_{rid}_{direction}"
                if shape_id not in shape_ids_written:
                    pts = _shape_points(step, direction)
                    shapes_rows["shape_id"].extend([shape_id] * len(pts))
                    shapes_rows["shape_pt_lon"].extend(pts[:, 0].tolist())
                    shapes_rows["shape_pt_lat"].extend(pts[:, 1].tolist())
                    shapes_rows["shape_pt_sequence"].extend(range(len(pts)))
                    shape_ids_written.add(shape_id)
            for sid in sid_list:
                for k in range(2):
                    trip_id = f"t{tcount:04d}"
                    tcount += 1
                    trip_rows["trip_id"].append(trip_id)
                    trip_rows["route_id"].append(rid)
                    trip_rows["service_id"].append(sid)
                    trip_rows["trip_headsign"].append(headsign)
                    trip_rows["direction_id"].append(direction)
                    trip_rows["shape_id"].append(shape_id)
                    seq_stops = stops_for_route if direction == 0 else stops_for_route[::-1]
                    for seq, stop_id in enumerate(seq_stops):
                        t0 = 6 * 3600 + k * 1800 + seq * 180
                        hh, mm, ss = t0 // 3600, (t0 // 60) % 60, t0 % 60
                        stoptime_rows["trip_id"].append(trip_id)
                        stoptime_rows["stop_id"].append(stop_id)
                        stoptime_rows["stop_sequence"].append(seq)
                        stoptime_rows["arrival_time"].append(f"{hh:02d}:{mm:02d}:{ss:02d}")
                        stoptime_rows["departure_time"].append(f"{hh:02d}:{mm:02d}:{ss:02d}")

    pq.write_table(
        pa.table(
            {
                "trip_id": pa.array(trip_rows["trip_id"], pa.string()),
                "route_id": pa.array(trip_rows["route_id"], pa.string()),
                "service_id": pa.array(trip_rows["service_id"], pa.string()),
                "trip_headsign": pa.array(trip_rows["trip_headsign"], pa.string()),
                "direction_id": pa.array(trip_rows["direction_id"], pa.int32()),
                "shape_id": pa.array(trip_rows["shape_id"], pa.string()),
            }
        ),
        out / "trips.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "trip_id": pa.array(stoptime_rows["trip_id"], pa.string()),
                "stop_id": pa.array(stoptime_rows["stop_id"], pa.string()),
                "stop_sequence": pa.array(stoptime_rows["stop_sequence"], pa.int32()),
                "arrival_time": pa.array(stoptime_rows["arrival_time"], pa.string()),
                "departure_time": pa.array(stoptime_rows["departure_time"], pa.string()),
            }
        ),
        out / "stop_times.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "shape_id": pa.array(shapes_rows["shape_id"], pa.string()),
                "shape_pt_lat": pa.array(shapes_rows["shape_pt_lat"], pa.float64()),
                "shape_pt_lon": pa.array(shapes_rows["shape_pt_lon"], pa.float64()),
                "shape_pt_sequence": pa.array(shapes_rows["shape_pt_sequence"], pa.int32()),
            }
        ),
        out / "shapes.parquet",
    )

    # stops: N_STOPS platforms + 2 parent stations + 1 unused stop
    stop_ids = list(STOP_IDS) + ["parentA", "parentB", "unused0"]
    stop_names = [f"Station {i}" for i in range(N_STOPS)] + [
        "Parent A", "Parent B", "Unused Yard"
    ]
    lats = STOP_LATS.tolist() + [float(STOP_LATS[0]), float(STOP_LATS[10]), 37.95]
    lons = STOP_LONS.tolist() + [float(STOP_LONS[0]), float(STOP_LONS[10]), -121.70]
    loc_type = [0] * N_STOPS + [1, 1, 0]
    parent = [None] * N_STOPS + [None, None, None]
    parent[0] = "parentA"
    parent[10] = "parentB"
    pq.write_table(
        pa.table(
            {
                "stop_id": pa.array(stop_ids, pa.string()),
                "stop_name": pa.array(stop_names, pa.string()),
                "stop_lat": pa.array(lats, pa.float64()),
                "stop_lon": pa.array(lons, pa.float64()),
                "location_type": pa.array(loc_type, pa.int32()),
                "parent_station": pa.array(parent, pa.string()),
                "zone_id": pa.array([None] * len(stop_ids), pa.string()),
                "stop_url": pa.array([None] * len(stop_ids), pa.string()),
            }
        ),
        out / "stops.parquet",
    )

    pq.write_table(
        pa.table(
            {
                "service_id": pa.array(["WK", "WE", "OLD"], pa.string()),
                **{
                    d: pa.array(v, pa.int32())
                    for d, v in zip(
                        ["monday", "tuesday", "wednesday", "thursday", "friday",
                         "saturday", "sunday"],
                        [[1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0],
                         [0, 1, 0], [0, 1, 0]],
                    )
                },
                "start_date": pa.array(["20250101", "20250101", "20200101"], pa.string()),
                "end_date": pa.array(["20251231", "20251231", "20200601"], pa.string()),
            }
        ),
        out / "calendar.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "feed_publisher_name": pa.array(["geotile synth"], pa.string()),
                "feed_version": pa.array(["fixture-1"], pa.string()),
            }
        ),
        out / "feed_info.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "route_id": pa.array(["L1", "L2", "L3"], pa.string()),
                "category": pa.array([1, 2, 3], pa.int32()),
                "subcategory": pa.array([101, 201, 301], pa.int32()),
                "running_way": pa.array([1, 1, 2], pa.int32()),
            }
        ),
        out / "route_attributes.parquet",
    )
    return out


# ---------------------------------------------------------------------------
# image+caption table (input_hint schema) with stored tile centroids
# ---------------------------------------------------------------------------

_CORRIDOR_HALF_WIDTH_M = 600.0  # lateral placement band → ~2/3 land in 400m buffers
_HOT_FRACTION = 0.2       # fraction of tiles clustered at the hot stop


def tile_centers(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pure function row-index → (lon, lat) tile centroid. ~80% of tiles
    are spread along the corridor within ±600 m laterally; 20% cluster
    within ~150 m of the HOT_STOP station (a deliberately hot cell)."""
    idx = np.asarray(indices, dtype=np.uint64)
    u_pos = _unit(idx, 1)
    u_lat = _unit(idx, 2)
    u_hot = _unit(idx, 3)
    # interpolate along the stop polyline
    seg = u_pos * (N_STOPS - 1)
    s0 = np.minimum(seg.astype(np.int64), N_STOPS - 2)
    t = seg - s0
    lon = STOP_LONS[s0] * (1 - t) + STOP_LONS[s0 + 1] * t
    lat = STOP_LATS[s0] * (1 - t) + STOP_LATS[s0 + 1] * t
    # lateral offset in meters → degrees (equirectangular at 37.4°)
    m_per_deg_lat = 6371008.8 * np.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * np.cos(np.radians(37.4))
    off = (u_lat * 2.0 - 1.0) * _CORRIDOR_HALF_WIDTH_M
    lon = lon + off / m_per_deg_lon
    hot = u_hot < _HOT_FRACTION
    r_hot = _unit(idx, 4) * 150.0
    ang = _unit(idx, 5) * 2 * np.pi
    lon = np.where(hot, STOP_LONS[HOT_STOP] + np.cos(ang) * r_hot / m_per_deg_lon, lon)
    lat = np.where(hot, STOP_LATS[HOT_STOP] + np.sin(ang) * r_hot / m_per_deg_lat, lat)
    return lon, lat


def tile_footprints(indices: np.ndarray) -> np.ndarray:
    """Row indices → (n, 5, 2) closed axis-aligned footprint quads."""
    from geotile.ops.tiles import footprint_quads

    return footprint_quads(*tile_centers(indices))


def export_feed_csv(parquet_dir: str | Path, out: str | Path) -> Path:
    """Convert a parquet feed directory to GTFS-style CSV .txt files
    (or a .zip of them when ``out`` ends with .zip) — used to test the
    reference-parity CSV/zip input path."""
    import zipfile

    from pyarrow import csv as pacsv

    parquet_dir = Path(parquet_dir)
    out = Path(out)
    as_zip = out.suffix == ".zip"
    csv_dir = out.with_suffix("") if as_zip else out
    csv_dir.mkdir(parents=True, exist_ok=True)
    for p in sorted(parquet_dir.glob("*.parquet")):
        t = pq.read_table(p)
        pacsv.write_csv(t, csv_dir / f"{p.stem}.txt")
    if as_zip:
        with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as zf:
            for f in sorted(csv_dir.glob("*.txt")):
                zf.write(f, f.name)
        return out
    return csv_dir


def synthetic_route_polygons(n_routes: int, radius_m: float = 300.0):
    """A dimension-side stress set: ``n_routes`` disc 'station buffers'
    spread deterministically along the corridor (route ids R000…), for
    exercising the spatial-join index with many polygons."""
    from geotile.geom.buffer import disc

    idx = np.arange(n_routes, dtype=np.uint64)
    u = _unit(idx, 21)
    seg = u * (N_STOPS - 1)
    s0 = np.minimum(seg.astype(np.int64), N_STOPS - 2)
    t = seg - s0
    lon = STOP_LONS[s0] * (1 - t) + STOP_LONS[s0 + 1] * t
    lat = STOP_LATS[s0] * (1 - t) + STOP_LATS[s0 + 1] * t
    m_per_deg_lat = 6371008.8 * np.pi / 180.0
    off = (_unit(idx, 22) * 2.0 - 1.0) * 500.0
    lon = lon + off / (m_per_deg_lat * np.cos(np.radians(37.4)))
    return {
        f"R{i:03d}": [(disc(float(lon[i]), float(lat[i]), radius_m), [])]
        for i in range(n_routes)
    }


def pixel_pattern(indices: np.ndarray, w: int = 32, h: int = 32) -> np.ndarray:
    """Row indices → (n, h, w, 3) uint8 deterministic gradient+noise."""
    idx = np.asarray(indices, dtype=np.uint64)
    n = len(idx)
    yy = np.arange(h, dtype=np.float64)[None, :, None]
    xx = np.arange(w, dtype=np.float64)[None, None, :]
    phase = (_unit(idx, 10) * 255.0)[:, None, None]
    r = (xx / max(w - 1, 1) * 200.0 + phase) % 256
    g = (yy / max(h - 1, 1) * 200.0 + phase * 0.5) % 256
    # cheap per-pixel noise: splitmix of (i*const + y*w + x)
    grid = (yy * w + xx).astype(np.uint64)
    b = (splitmix64(idx[:, None, None] * np.uint64(0x10001) + grid) & np.uint64(0xFF)).astype(
        np.float64
    )
    r, g, b = np.broadcast_arrays(r, g, b)
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def phash_from_pixels(px: np.ndarray) -> np.ndarray:
    """(n, h, w, 3) uint8 → int64 blockhash: 8×8 area-mean of grayscale
    thresholded at the per-image median, packed row-major MSB-first."""
    px = np.asarray(px)
    n, h, w, _ = px.shape
    gray = px.astype(np.float64).mean(axis=3)
    # area-mean to 8×8 (h, w assumed divisible by 8; pad if not)
    if h % 8 or w % 8:
        ph = (8 - h % 8) % 8
        pw = (8 - w % 8) % 8
        gray = np.pad(gray, ((0, 0), (0, ph), (0, pw)), mode="edge")
        h, w = gray.shape[1:]
    blocks = gray.reshape(n, 8, h // 8, 8, w // 8).mean(axis=(2, 4))
    med = np.median(blocks.reshape(n, 64), axis=1)[:, None, None]
    bits = (blocks > med).reshape(n, 64)
    weights = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64).view(np.int64)


def image_size(indices: np.ndarray, w: int = 32, h: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (w, h): every 7th row (idx % 7 == 3) gets the 'mixed'
    size (w+8, max(8, h−8)) so real batches are size-HETEROGENEOUS —
    decode/resize/embed stages must group by dimensions instead of
    assuming one (w, h) per batch (VERDICT r2 'what's wrong' #2)."""
    idx = np.asarray(indices, dtype=np.int64)
    mixed = (idx % 7) == 3
    ws = np.where(mixed, w + 8, w).astype(np.int32)
    hs = np.where(mixed, max(8, h - 8), h).astype(np.int32)
    return ws, hs


def make_image_batch(indices: np.ndarray, w: int = 32, h: int = 32) -> pa.Table:
    """Row indices → an Arrow table with the exact input_hint schema,
    plus the (lon, lat) tile centroid as columns: the north-star table
    CARRIES each image's footprint, every join-module stage reads its
    position from them (JOIN_COLUMNS), and the driver's DuckDB oracles
    verify the spatial join end-to-end on the same columns."""
    idx = np.asarray(indices, dtype=np.int64)
    ws, hs = image_size(idx, w, h)
    lon, lat = tile_centers(idx.astype(np.uint64))
    fmts = np.where(idx % 2 == 0, "raw", "png")
    ph = np.empty(len(idx), dtype=np.int64)
    payloads: list[bytes | None] = [None] * len(idx)
    for wi, hi in sorted(set(zip(ws.tolist(), hs.tolist()))):
        m = (ws == wi) & (hs == hi)
        pxg = pixel_pattern(idx[m].astype(np.uint64), wi, hi)
        ph[m] = phash_from_pixels(pxg)
        for slot, p in zip(np.nonzero(m)[0], pxg):
            payloads[slot] = p.tobytes() if fmts[slot] == "raw" else encode_png(p)
    captions = [f"tile {int(i)} near stop {int(i) % N_STOPS}" for i in idx]
    return pa.table(
        {
            "image_id": pa.array([f"img-{int(i):08d}" for i in idx], pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws),
            "h": pa.array(hs),
            "fmt": pa.array(fmts.tolist(), pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(ph, pa.int64()),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )


def make_image_table(
    n: int,
    out_dir: str | Path,
    w: int = 32,
    h: int = 32,
    chunk: int = 4096,
    rows_per_file: int = 65536,
) -> Path:
    """Write n rows of the image+caption table as a DIRECTORY of part
    files (one per input shard — the checkpoint/resume unit). Skips parts
    that already exist, so generation itself is resumable/cacheable."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # schema/content migration: a cache written before the georef
    # columns (no lon/lat) or before mixed sizes (uniform w) is stale —
    # regenerate every part
    existing = sorted(out_dir.glob("part-*.parquet"))
    if existing:
        stale = "lon" not in pq.read_schema(existing[0]).names
        if not stale and n > 10:
            w0 = pq.read_table(existing[0], columns=["w"])["w"]
            stale = len(w0.unique()) < 2
        if stale:
            for p in existing:
                p.unlink()
            existing = []
    missing = []
    for pstart in range(0, n, rows_per_file):
        pend = min(n, pstart + rows_per_file)
        part = out_dir / f"part-{pstart // rows_per_file:05d}.parquet"
        if not part.exists():
            missing.append((pstart, pend, part))
    # auto-parallel: Ray tasks only when >1 part is missing AND a session
    # exists (single-node assumption: workers share /tmp — on a real
    # multi-node cluster generation belongs on shared storage)
    use_ray = len(missing) > 1
    if use_ray:
        try:
            import ray

            use_ray = ray.is_initialized()
        except ImportError:
            use_ray = False
    if use_ray:
        import ray

        gen = ray.remote(_write_image_part)
        ray.get([gen.remote(ps, pe, part, w, h, chunk) for ps, pe, part in missing])
    else:
        for ps, pe, part in missing:
            _write_image_part(ps, pe, part, w, h, chunk)
    return out_dir


def _write_image_part(pstart: int, pend: int, part: Path, w: int, h: int, chunk: int) -> None:
    import os

    # pid-unique temp: concurrent writers of the same part each write
    # their own file; the atomic rename makes last-writer-wins safe
    # (content is deterministic, so any winner is correct)
    tmp = part.with_suffix(f".tmp-{os.getpid()}")
    writer = None
    try:
        for s in range(pstart, pend, chunk):
            t = make_image_batch(np.arange(s, min(pend, s + chunk)), w, h)
            if writer is None:
                writer = pq.ParquetWriter(tmp, t.schema)
            writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()
    tmp.rename(part)




# ---------------------------------------------------------------------------
# audio modality: deterministic PCM tracks (offline stand-in for a real
# audio corpus — same schema/plumbing a decode stage would see)
# ---------------------------------------------------------------------------

AUDIO_SR = 16_000
AUDIO_SAMPLES = 4_096


def audio_samples(track_ids: np.ndarray) -> np.ndarray:
    """(n, AUDIO_SAMPLES) int16 deterministic PCM: sample i of track t
    is splitmix64(t·0x9E3779B1 + i) masked to 16 bits, centered."""
    t = np.asarray(track_ids, dtype=np.uint64)
    i = np.arange(AUDIO_SAMPLES, dtype=np.uint64)[None, :]
    h = splitmix64(t[:, None] * np.uint64(0x9E3779B1) + i)
    return ((h & np.uint64(0xFFFF)).astype(np.int64) - 32768).astype(np.int16)


def make_audio_table(n: int, out_dir: str | Path,
                     rows_per_file: int = 4096) -> Path:
    """Write n PCM tracks as a directory of part files (schema:
    track_id, sr, n_samples, codec, bytes). Skips existing parts —
    generation is resumable, same convention as make_image_table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pstart in range(0, n, rows_per_file):
        pend = min(n, pstart + rows_per_file)
        part = out_dir / f"part-{pstart // rows_per_file:05d}.parquet"
        if part.exists():
            continue
        ids = np.arange(pstart, pend, dtype=np.int64)
        pcm = audio_samples(ids)
        t = pa.table({
            "track_id": pa.array(ids),
            "sr": pa.array(np.full(len(ids), AUDIO_SR, np.int32)),
            "n_samples": pa.array(
                np.full(len(ids), AUDIO_SAMPLES, np.int32)),
            "codec": pa.array(["pcm16"] * len(ids), pa.string()),
            "bytes": pa.array([row.tobytes() for row in pcm],
                              pa.binary()),
        })
        import os

        tmp = part.with_suffix(f".tmp-{os.getpid()}")
        pq.write_table(t, tmp)
        tmp.rename(part)
    return out_dir


# ---------------------------------------------------------------------------
# video modality: deterministic multi-frame tracks (offline stand-in —
# same schema/plumbing a real codec path would see)
# ---------------------------------------------------------------------------

VIDEO_FRAMES = 16
VIDEO_W = 16
VIDEO_H = 16


def video_frames(clip_ids: np.ndarray) -> np.ndarray:
    """(n, F, H, W, 3) uint8 deterministic frames: frame f of clip c
    reuses pixel_pattern's generator on index c·64 + f, so every frame
    is independently rederivable."""
    ids = np.asarray(clip_ids, dtype=np.int64)
    n = len(ids)
    idx = (ids[:, None] * 64 + np.arange(VIDEO_FRAMES)[None, :]) \
        .astype(np.uint64).reshape(-1)
    px = pixel_pattern(idx, VIDEO_W, VIDEO_H)
    return px.reshape(n, VIDEO_FRAMES, VIDEO_H, VIDEO_W, 3)


def make_video_table(n: int, out_dir: str | Path,
                     rows_per_file: int = 1024) -> Path:
    """Write n clips as part files (clip_id, n_frames, w, h, codec,
    bytes = all frames concatenated raw). Skips existing parts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pstart in range(0, n, rows_per_file):
        pend = min(n, pstart + rows_per_file)
        part = out_dir / f"part-{pstart // rows_per_file:05d}.parquet"
        if part.exists():
            continue
        ids = np.arange(pstart, pend, dtype=np.int64)
        fr = video_frames(ids)
        t = pa.table({
            "clip_id": pa.array(ids),
            "n_frames": pa.array(
                np.full(len(ids), VIDEO_FRAMES, np.int32)),
            "w": pa.array(np.full(len(ids), VIDEO_W, np.int32)),
            "h": pa.array(np.full(len(ids), VIDEO_H, np.int32)),
            "codec": pa.array(["rawseq"] * len(ids), pa.string()),
            "bytes": pa.array([fr[i].tobytes() for i in range(len(ids))],
                              pa.binary()),
        })
        import os

        tmp = part.with_suffix(f".tmp-{os.getpid()}")
        pq.write_table(t, tmp)
        tmp.rename(part)
    return out_dir
