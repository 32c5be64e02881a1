"""GTFS table loading + the service-date semi-join (reference J5).

Facts vs dims: ``stop_times`` and ``shapes`` are the fact tables
(column-pruned at the read, read at most once per context);
``agency`` ``routes`` ``trips`` ``calendar`` ``stops``
``route_attributes`` ``feed_info`` are dimension tables, loaded whole.
All of them are pyarrow tables in the calling process, the way the
reference holds them behind one shared SQLite handle (SURVEY §2.8): a
feed is dimension-scale, so no Ray Data job runs on the feed side.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyarrow import csv as pacsv

DIM_TABLES = ("agency", "routes", "trips", "calendar", "stops", "route_attributes", "feed_info")

# GTFS CSV columns that are numeric by spec; everything else reads as
# string (matching the reference's node-gtfs import schema)
_GTFS_NUMERIC = {
    "stop_lat": pa.float64(), "stop_lon": pa.float64(),
    "shape_pt_lat": pa.float64(), "shape_pt_lon": pa.float64(),
    "shape_pt_sequence": pa.int32(), "stop_sequence": pa.int32(),
    "direction_id": pa.int32(), "route_type": pa.int32(),
    "location_type": pa.int32(), "category": pa.int32(),
    "subcategory": pa.int32(), "running_way": pa.int32(),
    **{d: pa.int32() for d in
       ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")},
}


def _csv_header(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as f:
        return [c.strip() for c in f.readline().rstrip("\r\n").split(",")]


def _csv_convert_options(path: Path, include_columns: list[str] | None = None):
    """EVERY column is pinned: numeric per GTFS spec, string otherwise.
    Leaving columns to pyarrow inference corrupts GTFS data (dates
    '20240101' → int64 breaks the calendar date-range scan; zero-padded
    ids '007' → 7 breaks joins and filenames)."""
    cols = _csv_header(path)
    types = {c: _GTFS_NUMERIC.get(c, pa.string()) for c in cols}
    return pacsv.ConvertOptions(
        column_types=types,
        include_columns=include_columns,
        strings_can_be_null=True,
        quoted_strings_can_be_null=False,
    )


def resolve_feed_dir(path: str | Path) -> Path:
    """Accept a directory of parquet/CSV tables OR a GTFS .zip (the
    reference's input form): zips are extracted once to a cache dir
    keyed by size+mtime (the import-stage checkpoint, reference
    ``skipImport`` analog)."""
    import os
    import zipfile

    p = Path(path)
    if p.is_file() and p.suffix == ".zip":
        st = p.stat()
        cache = Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache"))
        dest = cache / f"gtfs_{p.stem}_{st.st_size}_{int(st.st_mtime)}"
        marker = dest / "_EXTRACTED"
        if not marker.exists():
            import shutil

            if dest.exists():  # stale dir from a killed extraction
                shutil.rmtree(dest, ignore_errors=True)
            tmp = dest.with_name(dest.name + f".tmp-{os.getpid()}")
            tmp.mkdir(parents=True, exist_ok=True)
            with zipfile.ZipFile(p) as zf:
                zf.extractall(tmp)
            # marker created INSIDE tmp before the rename: the rename is
            # then fully atomic (no window where dest exists unmarked)
            (tmp / "_EXTRACTED").touch()
            try:
                tmp.rename(dest)
            except OSError:
                shutil.rmtree(tmp, ignore_errors=True)
                if not marker.exists():
                    raise
        return dest
    return p


def _table_file(feed_dir: Path, name: str) -> Path | None:
    for ext in (".parquet", ".txt", ".csv"):
        p = feed_dir / f"{name}{ext}"
        if p.exists():
            return p
    return None


def _read_table(path: Path, columns: list[str] | None = None) -> pa.Table:
    if path.suffix == ".parquet":
        return pq.read_table(path, columns=columns)
    # include_columns prunes DURING parsing — a fact table's unused
    # columns (times, headsigns) are never tokenized
    return pacsv.read_csv(path, convert_options=_csv_convert_options(path, columns))


class GtfsContext:
    """Holds the dimension tables and the memoised fact tables of one
    agency's feed directory."""

    def __init__(self, feed_dir: str | Path, start_date: str | None = None,
                 end_date: str | None = None, exclude: list[str] | None = None):
        self.feed_dir = resolve_feed_dir(feed_dir)
        exclude = set(exclude or [])
        self.dims: dict[str, pa.Table] = {}
        for name in DIM_TABLES:
            p = None if name in exclude else _table_file(self.feed_dir, name)
            self.dims[name] = _read_table(p) if p is not None else None
        # J5: service_id set from the calendar date-range scan
        # (reference src/lib/gtfs-to-geojson.ts:49-71)
        self.service_ids: list[str] | None = None
        if (start_date or end_date) and self.dims.get("calendar") is not None:
            cal = self.dims["calendar"]
            m = pa.array([True] * cal.num_rows)
            if end_date:
                m = pc.and_(m, pc.less_equal(cal["start_date"], end_date))
            if start_date:
                m = pc.and_(m, pc.greater_equal(cal["end_date"], start_date))
            self.service_ids = cal.filter(m)["service_id"].to_pylist()
        # trips filtered by service (dimension-side semi-join); a feed
        # without trips.txt stays constructible (shapes-only fixtures) —
        # trip-consuming paths raise the clear error lazily
        trips = self.dims["trips"]
        if trips is not None and self.service_ids is not None:
            trips = trips.filter(pc.is_in(trips["service_id"], pa.array(self.service_ids)))
        self.trips = trips
        # memo for fact tables and per-query results — several formats
        # reuse the same stop/line reductions (convex, buffer, dissolved
        # all start from stops/lines), so each one runs once
        self.cache: dict[tuple, object] = {}

    def _trips_dim(self) -> pa.Table:
        if self.trips is None:
            # fail loud with the table name instead of an opaque
            # NoneType attribute error
            raise FileNotFoundError(
                f"required table 'trips' missing from {self.feed_dir} "
                "(not found, or listed in the agency's exclude)")
        return self.trips

    # -- facts ------------------------------------------------------------
    def _read_fact(self, name: str, columns: list[str]) -> pa.Table:
        key = ("fact", name)
        if key not in self.cache:
            p = _table_file(self.feed_dir, name)
            if p is None:
                raise FileNotFoundError(f"no {name} table under {self.feed_dir}")
            self.cache[key] = _read_table(p, columns)
        return self.cache[key]

    def stop_times(self) -> pa.Table:
        # the union of the columns lines (trip order) and stops (routes
        # per stop) need, so the table is read once per context
        return self._read_fact("stop_times", ["trip_id", "stop_id", "stop_sequence"])

    def shapes(self) -> pa.Table:
        return self._read_fact(
            "shapes", ["shape_id", "shape_pt_lat", "shape_pt_lon", "shape_pt_sequence"]
        )

    def has_shapes_file(self) -> bool:
        return _table_file(self.feed_dir, "shapes") is not None

    # -- small lookups ----------------------------------------------------
    @property
    def agency_name(self) -> str:
        ag = self.dims.get("agency")
        if ag is not None and ag.num_rows > 0 and "agency_name" in ag.column_names:
            return ag["agency_name"][0].as_py()
        return "unknown"

    @property
    def feed_version(self) -> str | None:
        fi = self.dims.get("feed_info")
        if fi is not None and fi.num_rows > 0 and "feed_version" in fi.column_names:
            return fi["feed_version"][0].as_py()
        return None

    def _routes_dim(self) -> pa.Table:
        r = self.dims.get("routes")
        if r is None:
            # fail loud with the table name instead of an opaque
            # NoneType attribute error (contexts without routes.txt are
            # fine until a route-consuming path is used)
            raise FileNotFoundError(
                f"required table 'routes' missing from {self.feed_dir} "
                "(not found, or listed in the agency's exclude)")
        return r

    def routes_table(self, route_id: str | None = None) -> pa.Table:
        r = self._routes_dim()
        if route_id is not None:
            r = r.filter(pc.equal(r["route_id"], route_id))
        return r

    def route_attributes_map(self) -> dict[str, dict]:
        # memoized: per-route loops call this once per route — rebuilding
        # the full to_pylist each time made line assembly O(routes x attrs)
        if "route_attributes_map" not in self.cache:
            ra = self.dims.get("route_attributes")
            self.cache["route_attributes_map"] = {} if ra is None else {
                row["route_id"]: {k: v for k, v in row.items()
                                  if k != "route_id"}
                for row in ra.to_pylist()}
        return self.cache["route_attributes_map"]

    def _stops_dim(self) -> pa.Table:
        s = self.dims.get("stops")
        if s is None:
            # same loud-failure contract as _routes_dim/_trips_dim: name
            # the missing table instead of a NoneType attribute error
            raise FileNotFoundError(
                f"required table 'stops' missing from {self.feed_dir} "
                "(not found, or listed in the agency's exclude)")
        return s

    def stops_map(self) -> dict[str, dict]:
        """Memoized stop_id → record dict (stop_features/stop_points
        re-materialized the whole stops dim per query before)."""
        if "stops_map" not in self.cache:
            self.cache["stops_map"] = {
                r["stop_id"]: r for r in self._stops_dim().to_pylist()}
        return self.cache["stops_map"]

    def routes_map(self) -> dict[str, dict]:
        if "routes_map" not in self.cache:
            # LAST occurrence wins on duplicate route_ids — the
            # semantics of the inline dict comprehension this map
            # replaced in stop_features (pinned by the stops goldens);
            # _route_props inherits it (the old filter-scan-[0] took
            # the first — observable only on malformed dup-id feeds)
            self.cache["routes_map"] = {
                r["route_id"]: r for r in self._routes_dim().to_pylist()}
        return self.cache["routes_map"]


    def trips_for(self, route_id: str | None = None, direction_id: int | None = None,
                  shape_id: str | None = None) -> pa.Table:
        t = self._trips_dim()
        if route_id is not None:
            t = t.filter(pc.equal(t["route_id"], route_id))
        if direction_id is not None:
            t = t.filter(pc.equal(t["direction_id"], direction_id))
        if shape_id is not None:
            # trips.shape_id is OPTIONAL per the GTFS spec: without the
            # column no trip belongs to a shape
            t = (t.filter(pc.equal(t["shape_id"], shape_id))
                 if "shape_id" in t.column_names else t.slice(0, 0))
        return t
