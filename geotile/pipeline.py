"""Pipeline driver — reference gtfsToGeoJSON (src/lib/gtfs-to-geojson.ts:251-348).

Per agency: build a GtfsContext (import stage analog), prep the output
directory, fan out by outputType (agency / route / shape), write one
``.geojson`` per output unit plus a ``log.txt`` metrics file, optionally
zip. Fan-out units map to queries exactly like the reference's loops
(§3.1-3.3); each query runs in-process on the context's Arrow tables.
"""

from __future__ import annotations

import json
import re
import shutil
import zipfile
from pathlib import Path

import pyarrow.compute as pc

from geotile.config import PipelineConfig
from geotile.formats import get_geojson_by_format
from geotile.geojson import dumps
from geotile.ops.gtfs import GtfsContext

_SANITIZE_RE = re.compile(r'[/\\?<>\\:*|"\x00-\x1f\x80-\x9f]')
_WIN_RESERVED_RE = re.compile(
    r"^(con|prn|aux|nul|com[0-9]|lpt[0-9])(\..*)?$", re.IGNORECASE)
_DOT_RESERVED_RE = re.compile(r"^\.+$")
_WIN_TRAILING_RE = re.compile(r"[. ]+$")


def _truncate_utf8(name: str, max_bytes: int = 255) -> str:
    """Truncate to max_bytes of UTF-8 WITHOUT splitting a codepoint —
    NAME_MAX is a byte limit, so a 200-char CJK name (~600 bytes) must
    shrink to fit even though len() is under 255."""
    b = name.encode("utf-8")
    if len(b) <= max_bytes:
        return name
    return b[:max_bytes].decode("utf-8", errors="ignore")


def sanitize(name: str) -> str:
    """Filename sanitization with npm sanitize-filename parity
    (reference dependency), rule-for-rule in npm's order: strip illegal
    + C0/C1 control chars, empty dot-only names (reservedRe ^\\.+$ —
    without this '..' escapes the output dir and prep_directory could
    clear the parent), empty Windows-reserved device names, strip
    trailing dots/spaces (windowsTrailingRe [. ]+$), truncate to 255
    BYTES."""
    out = _SANITIZE_RE.sub("", name)
    if _DOT_RESERVED_RE.match(out):
        out = ""
    if _WIN_RESERVED_RE.match(out):
        out = ""
    out = _WIN_TRAILING_RE.sub("", out)
    return _truncate_utf8(out)


def prep_directory(path: Path, overwrite: bool) -> None:
    """Reference prepDirectory (src/lib/file-utils.ts:82-112): fail if
    non-empty and overwrite disabled, else clear."""
    path.mkdir(parents=True, exist_ok=True)
    existing = list(path.iterdir())
    if existing:
        if not overwrite:
            raise FileExistsError(
                f"Output directory {path} not empty and overwriteExistingFiles=false"
            )
        for p in existing:
            shutil.rmtree(p) if p.is_dir() else p.unlink()


def _write(path: Path, geojson: dict, stats: dict) -> None:
    path.write_text(dumps(geojson))
    stats["files"] += 1


def build_geojson(ctx: GtfsContext, config: PipelineConfig, output_path: Path,
                  stats: dict) -> None:
    base_query: dict = {}
    if config.output_type == "shape":
        if ctx.has_shapes_file():
            # SELECT DISTINCT shape_id (reference
            # src/lib/gtfs-to-geojson.ts:132); a row with an empty
            # shape_id belongs to no shape
            shape_ids = sorted(pc.unique(ctx.shapes()["shape_id"].drop_null()).to_pylist())
        else:
            trips = ctx.dims.get("trips")
            has_col = trips is not None and "shape_id" in trips.column_names
            shape_ids = sorted(
                {s for s in (trips["shape_id"].to_pylist()
                             if has_col else []) if s}
            )
        if not shape_ids:
            raise RuntimeError(
                "No shapes found in shapes.txt, unable to create geoJSON with outputType = shape"
            )
        bar = progress_bar(
            f"{ctx_key(ctx)}: Generating geoJSON {{bar}} {{value}}/{{total}}",
            len(shape_ids), config,
        )
        for sid in shape_ids:
            gj = get_geojson_by_format(ctx, config, {**base_query, "shape_id": sid})
            if gj is None:
                continue
            stats["shapes"] += 1
            _write(output_path / sanitize(f"{sid}.geojson"), gj, stats)
            bar.increment()
    elif config.output_type == "route":
        routes = ctx.dims["routes"].to_pylist()
        if ctx.service_ids is not None:
            # reference getRoutes(baseQuery) excludes routes with no
            # in-range service (src/lib/gtfs-to-geojson.ts:168)
            served = set(ctx._trips_dim()["route_id"].to_pylist())
            routes = [r for r in routes if r["route_id"] in served]
        bar = progress_bar(
            f"{ctx_key(ctx)}: Generating geoJSON {{bar}} {{value}}/{{total}}",
            len(routes), config,
        )
        # duplicate-name disambiguation is route-level: count
        # (agency_id, route_id) pairs ONCE instead of rescanning the
        # route list per direction (O(routes^2 x directions) before)
        from collections import Counter

        pair_counts = Counter(
            (r.get("agency_id"), r["route_id"]) for r in routes)
        for index, route in enumerate(routes):
            stats["routes"] += 1
            trips = ctx.trips_for(route["route_id"]).to_pylist()
            # uniqBy(trip_headsign) — first occurrence wins (reference :189)
            seen: set[str] = set()
            directions = []
            for t in trips:
                if t["trip_headsign"] not in seen:
                    seen.add(t["trip_headsign"])
                    directions.append(t)
            for d in directions:
                gj = get_geojson_by_format(
                    ctx, config,
                    {**base_query, "route_id": route["route_id"],
                     "direction_id": d["direction_id"]},
                )
                if gj is None:
                    continue
                parts = []
                if route.get("agency_id") is not None:
                    parts.append(str(route["agency_id"]))
                parts.append(str(route["route_id"]))
                if d["direction_id"] is not None:
                    parts.append(str(d["direction_id"]))
                if pair_counts[(route.get("agency_id"),
                                route["route_id"])] > 1:
                    parts.append(str(index))
                _write(output_path / sanitize("_".join(parts) + ".geojson"), gj, stats)
            # reference increments AFTER each route completes (ADVICE r2)
            bar.increment()
    else:  # agency
        config.log(f"{ctx_key(ctx)}: Generating geoJSON")
        gj = get_geojson_by_format(ctx, config, base_query)
        _write(output_path / sanitize(f"{ctx_key(ctx)}.geojson"), gj, stats)


def ctx_key(ctx: GtfsContext) -> str:
    return getattr(ctx, "agency_key", None) or ctx.agency_name


def log_text(ctx: GtfsContext, config: PipelineConfig, stats: dict) -> str:
    """Reference generateLogText (src/lib/log-utils.ts:12-36), minus the
    timestamp (excluded from golden comparisons, SURVEY §7.4)."""
    lines = [
        f"Feed Version: {ctx.feed_version or 'unknown'}",
        f"Output Type: {config.output_type}",
        f"Output Format: {config.output_format}",
        f"Routes: {stats['routes']}",
        f"Shapes: {stats['shapes']}",
        f"Files: {stats['files']}",
    ]
    return "\n".join(lines)


def log_stats_table(config: PipelineConfig, stats: dict) -> None:
    """Reference logStats (src/lib/log-utils.ts:111-132): a two-column
    Item/Count console table per agency. Hidden when a custom
    logFunction is set (exactly like the reference) or verbose=False."""
    if config.log_function is not None or not config.verbose:
        return
    rows = [
        ("\U0001F4DD Output Type", str(config.output_type)),
        ("\U0001F504 Routes", str(stats.get("routes", 0))),
        ("\u23AD Shapes", str(stats.get("shapes", 0))),
        ("\U0001F4C4 GeoJSON Files", str(stats.get("files", 0))),
    ]
    w1, w2 = 40, 20  # reference colWidths
    sep = "+" + "-" * w1 + "+" + "-" * w2 + "+"
    out = [sep, "|" + "Item".ljust(w1) + "|" + "Count".ljust(w2) + "|", sep]
    for k, v in rows:
        out.append("|" + k.ljust(w1) + "|" + v.ljust(w2) + "|")
    out.append(sep)
    print("\n".join(out))


def progress_bar(format_string: str, total: int, config: PipelineConfig):
    """Reference progressBar (src/lib/log-utils.ts:175-211): returns an
    object with increment()/interrupt(); noop when verbose=False or
    total == 0. Renders {value}/{total}/{bar} into format_string."""

    class _Noop:
        def increment(self):  # noqa: D401
            pass

        def interrupt(self, text: str):
            pass

    if not config.verbose or total == 0:
        return _Noop()

    class _Bar:
        def __init__(self):
            self.progress = 0
            self._render()

        def _bar_string(self, size: int = 40) -> str:
            if self.progress > total:
                return "=" * (size + 2)
            # JS Math.round (half-up), not Python round (half-to-even):
            # the reference's generateProgressBarString fills one more
            # '=' at exact .5 fractions (ADVICE r2)
            import math

            filled = math.floor(size * self.progress / total + 0.5)
            return "=" * filled + "-" * (size - filled)

        def _render(self):
            text = (
                format_string.replace("{value}", str(self.progress))
                .replace("{total}", str(total))
                .replace("{bar}", self._bar_string())
            )
            config.log(text)

        def increment(self):
            self.progress += 1
            self._render()

        def interrupt(self, text: str):
            config.log(f"Warning: {text}")

    return _Bar()


def get_output_path(agency_key: str, config: PipelineConfig) -> Path:
    """Reference getOutputPath (src/lib/file-utils.ts:117-121): when
    ``outputPath`` is set it is used VERBATIM (tilde-expanded, no
    per-agency subdirectory); the default is
    ``geojson/<sanitize(agencyKey)>``."""
    import os

    if config.output_path:
        return Path(os.path.expanduser(config.output_path))
    return Path("geojson") / sanitize(agency_key)


def run_pipeline(config: PipelineConfig) -> list[str]:
    """Reference gtfsToGeoJSON: returns output paths (or [zip_path] when
    zipOutput, :335-345)."""
    written_dirs: list[Path] = []
    agency_keys: list[str] = []
    for agency in config.agencies:
        feed_path = agency.path
        if feed_path is None:
            # reference downloadAndUnzip path (src/lib/gtfs-to-geojson.ts
            # :287-295): the fetch itself is INJECTABLE (config.fetcher)
            # since this build has no network; without one, fail clearly
            if config.fetcher is None:
                raise NotImplementedError(
                    f"agency '{agency.agency_key}': feed download from url "
                    f"{agency.url!r} needs a config.fetcher in this offline "
                    "build; provide 'path' (directory, CSV/.txt, or .zip) "
                    "or inject fetcher=(url, agency_key) -> local path"
                )
            feed_path = config.fetcher(agency.url, agency.agency_key)
        ctx = GtfsContext(
            feed_path, start_date=config.start_date, end_date=config.end_date,
            exclude=agency.exclude,
        )
        ctx.agency_key = agency.agency_key or ctx.agency_name  # type: ignore[attr-defined]
        agency_keys.append(ctx.agency_key)
        output_path = get_output_path(ctx.agency_key, config)
        prep_directory(output_path, config.overwrite_existing_files)
        stats = {"files": 0, "routes": 0, "shapes": 0}
        build_geojson(ctx, config, output_path, stats)
        (output_path / "log.txt").write_text(log_text(ctx, config, stats))
        log_stats_table(config, stats)  # reference gtfs-to-geojson.ts:323
        written_dirs.append(output_path)
    if config.zip_output:
        # reference zipFolders (file-utils.ts:47-77): zip written into
        # getOutputPath of the joined keys; entries are archived under
        # each folder's basename and filtered to .json/.geojson only
        zip_dir = get_output_path("-".join(agency_keys), config)
        zip_dir.mkdir(parents=True, exist_ok=True)
        zip_path = zip_dir / "geojson.zip"
        # verbatim outputPath + multiple agencies → the same dir appears
        # once per agency; archive each dir once
        unique_dirs = list(dict.fromkeys(written_dirs))
        with zipfile.ZipFile(zip_path, "w", zipfile.ZIP_DEFLATED) as zf:
            for d in unique_dirs:
                for p in sorted(d.rglob("*")):
                    if p.suffix.lower() in (".geojson", ".json") and p != zip_path:
                        zf.write(p, Path(d.name) / p.relative_to(d))
        return [str(zip_path)]
    return [str(d) for d in written_dirs]
