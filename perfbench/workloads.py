"""The benchmark's workloads.

Each workload owns three phases:

- ``prepare(seed)``: generate the seeded inputs and the oracle's answer
  (cached per seed, never timed);
- ``setup()``: the program's set-up — fixture/index build, ``ray.put``,
  one warm-up job; the runner repeats it and reports the median;
- ``run_pass()`` + ``check(out)``: one closed-loop pass (each job is
  submitted after the previous one finished) and its exact output check.

``probe()`` runs only in traced runs and measures single layers from the
driver. Spans wrap the benchmark's calls into geotile's public
functions; nothing inside geotile is instrumented.

Why these four (the metric map is in README.md):

- join_stream: scan + cell encoding + boundary PIP dominate, index build
  is trivial — the baseline for the streaming join.
- route_rollup: hundreds of polygons, kNN, a groupby shuffle and
  FeatureCollection JSON dominate; the scan share is small.
- checkpoint_ingest: per-job fixed cost and the write path dominate, so
  set-up moved into each job shows as a loss here.
- gtfs_geojson: the reference's own job on dimension-scale data; the only
  workload that exercises gtfs/lines/stops/derive/formats/pipeline.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from perfbench import gen
from perfbench.oracle import (
    JoinOracle,
    check_cell_counts,
    check_files_equal,
    check_knn,
    check_pairs,
    check_route_fcs,
    fc_summary_batch,
    join_oracle,
    key_fingerprint,
    knn_sample_batch,
    pair_fingerprint_batch,
    pair_keys,
    route_distances,
)
from perfbench.trace import Tracer

GOLDEN_DIR = Path("tests") / "goldens" / "agency"
FORMATS = ("envelope", "convex", "lines", "lines-buffer", "lines-dissolved",
           "lines-and-stops", "stops", "stops-buffer", "stops-dissolved")


def corridor_buffers(root: Path) -> dict[str, list]:
    """The caltrain L1/L2 400 m route buffers, read from the committed
    lines-buffer golden (which the gtfs_geojson workload checks the
    program still reproduces byte for byte)."""
    gj = json.loads((root / GOLDEN_DIR / "lines-buffer.geojson").read_text())
    out: dict[str, list] = {}
    for f in gj["features"]:
        g = f["geometry"]
        polys = [g["coordinates"]] if g["type"] == "Polygon" else g["coordinates"]
        out[f["properties"]["route_id"]] = [
            (np.asarray(p[0], np.float64), [np.asarray(h, np.float64) for h in p[1:]])
            for p in polys]
    return {rid: out[rid] for rid in ("L1", "L2")}


def read_tiles(parts: list[Path]):
    """One read task per shard, pruned to the join columns."""
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    return read_image_table([str(p) for p in parts], columns=JOIN_COLUMNS,
                            override_num_blocks=len(parts))


def join_fingerprints(joined, oracle: JoinOracle) -> list[dict]:
    """Consume a joined dataset; only per-block key fingerprints reach
    the driver."""
    return joined.map_batches(
        pair_fingerprint_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        fn_kwargs={"route_ids": oracle.route_ids, "tie_index": oracle.tie_index},
    ).take_all()


def _median_ns_per_row(fn, n_rows: int) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / max(n_rows, 1) * 1e9


def _save_oracle(d: Path, o: JoinOracle, **extra) -> None:
    np.savez(d / "oracle.npz", keys=o.keys, ties=o.tie_index,
             route_ids=np.asarray(o.route_ids), **extra)


def _load_oracle(d: Path):
    z = np.load(d / "oracle.npz")
    return JoinOracle([str(r) for r in z["route_ids"]], z["keys"], z["ties"]), z


class Workload:
    name = ""
    rows_per_pass = 0

    def __init__(self, root: Path, cache: Path, tracer: Tracer):
        self.root = root
        self.cache = cache
        self.tr = tracer

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        return {}

    def span_metrics(self) -> dict[str, float]:
        return {}

    def _span_median(self, name: str, parent: str | None = None) -> float:
        d = self.tr.durations(name, parent)
        return statistics.median(d) if d else 0.0


class _IndexJoin(Workload):
    """Shared set-up and layer probes of the image-tile join workloads."""

    def _polygons(self) -> dict:
        raise NotImplementedError

    def _build_index(self):
        from geotile.ops.join import build_route_index

        with self.tr.span("join.build_route_index"):
            self.index = build_route_index(self._polygons())
        with self.tr.span("ray.put"):
            self.index_ref = ray.put(self.index)

    def _join_probe(self, block) -> dict[str, float]:
        """Driver-side kernel timings and candidate counts on one block."""
        from geotile.geom import cells
        from geotile.ops.join import SpatialJoinStage

        n = block.num_rows
        lon = block["lon"].to_numpy()
        lat = block["lat"].to_numpy()
        stage = SpatialJoinStage(self.index)
        with self.tr.span("geom.cells.encode"):
            enc_ns = _median_ns_per_row(lambda: cells.encode(lon, lat, self.index.res), n)
        with self.tr.span("join.SpatialJoinStage"):
            kern_ns = _median_ns_per_row(lambda: stage(block), n)
        pt, _, full = self.index.candidates(cells.encode(lon, lat, self.index.res))
        useful = stage(block).num_rows
        return {
            "geom.encode_ns_per_row": enc_ns,
            "join.kernel_ns_per_row": kern_ns,
            "join.candidates_per_row": len(pt) / n,
            "join.pip_free_frac": float(full.sum()) / max(len(pt), 1),
            "join.hit_frac": useful / max(len(pt), 1),
            "geom.cover_cells": float(len(self.index.cell_polys)),
            "join.index_mb": len(pickle.dumps(self.index, protocol=5)) / 1e6,
            "join.edge_ties": float(len(self.oracle.tie_index)),
        }

    def span_metrics(self) -> dict[str, float]:
        return {"join.index_build_s": self._span_median("join.build_route_index")}


class JoinStream(_IndexJoin):
    """One long streaming read → spatial_join job over distinct rows."""

    name = "join_stream"
    N_ROWS = 1_600_000
    PART_ROWS = 100_000
    SKEW = gen.CorridorSkew(half_width_m=600.0, hot_stop=7, hot_fraction=0.2)

    def _polygons(self):
        return corridor_buffers(self.root)

    def prepare(self, seed):
        def build(d: Path):
            # part by part, so generating never holds the whole table and
            # the driver's memory high-water mark stays that of the run
            rng = np.random.default_rng([seed, 1])
            polygons = self._polygons()
            keys, ties = [], []
            for s in range(0, self.N_ROWS, self.PART_ROWS):
                lon, lat = gen.corridor_points(rng, self.PART_ROWS, self.SKEW)
                gen.write_parts(d / "parts", rng, lon, lat, self.PART_ROWS, first=s)
                o = join_oracle(np.arange(s, s + self.PART_ROWS), lon, lat, polygons)
                keys.append(o.keys)
                ties.append(o.tie_index)
            _save_oracle(d, JoinOracle(o.route_ids, np.sort(np.concatenate(keys)),
                                       np.unique(np.concatenate(ties))))

        d = gen.cached(self.cache, f"{self.name}-{seed}", build)
        self.parts = sorted((d / "parts").glob("*.parquet"))
        self.oracle, _ = _load_oracle(d)
        self.rows_per_pass = self.N_ROWS

    def setup(self):
        from geotile.ops.join import spatial_join

        self._build_index()
        with self.tr.span("warmup"):
            join_fingerprints(spatial_join(read_tiles(self.parts[:4]), self.index_ref), self.oracle)

    def run_pass(self):
        from geotile.ops.join import spatial_join

        with self.tr.span("join.spatial_join"):
            return join_fingerprints(spatial_join(read_tiles(self.parts), self.index_ref),
                                     self.oracle)

    def check(self, out):
        return check_pairs(out, self.oracle)

    def probe(self):
        from geotile.ops.tiles import JOIN_COLUMNS

        def block_stats(t: pa.Table) -> pa.Table:
            return pa.table({"rows": [t.num_rows], "nbytes": [t.nbytes]})

        with self.tr.span("tiles.read_image_table"):
            blocks = read_tiles(self.parts).map_batches(
                block_stats, batch_format="pyarrow", batch_size=None).take_all()
        m = self._join_probe(pq.read_table(self.parts[0], columns=JOIN_COLUMNS))
        m.update({
            "tiles.read_s": self._span_median("tiles.read_image_table"),
            "tiles.blocks": float(len(blocks)),
            "tiles.read_mb": sum(b["nbytes"] for b in blocks) / 1e6,
        })
        return m


class RouteRollup(_IndexJoin):
    """Metro network: spatial_join, kNN (k=3, ring path), per-route
    FeatureCollections and per-cell tile counts, one job each per pass."""

    name = "route_rollup"
    N_ROWS = 120_000
    PART_ROWS = 30_000
    N_ROUTES = 34          # > 32 routes: knn_routes takes the ring path
    STATIONS = 6
    K = 3
    N_SAMPLE = 1000

    def _polygons(self):
        return self.polygons

    def prepare(self, seed):
        def build(d: Path):
            rng = np.random.default_rng([seed, 2])
            polygons, lines, centres = gen.metro_network(rng, self.N_ROUTES, self.STATIONS)
            lon, lat = gen.metro_points(rng, self.N_ROWS, centres, 0.5, 0.2)
            # shards are longitude strips, as tile tables are written in
            # spatial order: each block covers a quarter of the area
            order = np.argsort(lon, kind="stable")
            lon, lat = lon[order], lat[order]
            gen.write_parts(d / "parts", rng, lon, lat, self.PART_ROWS)
            gen.save_geometry(d / "polygons.json", polygons)
            gen.save_geometry(d / "lines.json", lines)
            sample = np.arange(0, self.N_ROWS, self.N_ROWS // self.N_SAMPLE)
            _, D = route_distances(lon[sample], lat[sample], lines)
            _save_oracle(d, join_oracle(np.arange(self.N_ROWS), lon, lat, polygons),
                         sample=sample, D=D)

        d = gen.cached(self.cache, f"{self.name}-{seed}", build)
        self.parts = sorted((d / "parts").glob("*.parquet"))
        self.polygons = gen.load_polygons(d / "polygons.json")
        self.lines = gen.load_lines(d / "lines.json")
        self.oracle, z = _load_oracle(d)
        self.sample, self.D = z["sample"], z["D"]
        self.rows_per_pass = self.N_ROWS
        self.knn_ties, self.fc_mb = 0, 0.0

    def setup(self):
        self._build_index()
        with self.tr.span("ray.put"):
            self.lines_ref = ray.put(self.lines)
        with self.tr.span("warmup"):
            self._jobs(self.parts[:1])

    def _jobs(self, parts):
        from geotile.ops.join import assemble_route_fcs, cell_tile_counts, knn_routes, spatial_join

        with self.tr.span("join.spatial_join"):
            pairs = join_fingerprints(spatial_join(read_tiles(parts), self.index_ref), self.oracle)
        with self.tr.span("join.knn_routes"):
            knn = knn_routes(read_tiles(parts), self.lines_ref, k=self.K).map_batches(
                knn_sample_batch, batch_format="pyarrow", batch_size=None,
                zero_copy_batch=True, fn_kwargs={"sample_index": self.sample},
            ).take_all()
        with self.tr.span("join.assemble_route_fcs"):
            # materialised in the object store; the check summarises it in the workers
            fcs = assemble_route_fcs(spatial_join(read_tiles(parts), self.index_ref)).materialize()
        with self.tr.span("join.cell_tile_counts"):
            counts = cell_tile_counts(read_tiles(parts)).take_all()
        return pairs, knn, fcs, counts

    def run_pass(self):
        return self._jobs(self.parts)

    def check(self, out):
        pairs, knn, fcs, counts = out
        knn_errors, self.knn_ties = check_knn(
            knn, self.N_ROWS, self.K, self.sample, sorted(self.lines), self.D)
        summaries = fcs.map_batches(fc_summary_batch, batch_format="pyarrow").take_all()
        self.fc_mb = sum(r["fc_bytes"] for r in summaries) / 1e6
        return (check_pairs(pairs, self.oracle) + knn_errors
                + check_route_fcs(summaries, self.oracle) + check_cell_counts(counts, self.N_ROWS))

    def probe(self):
        from geotile.ops.join import KnnStage
        from geotile.ops.tiles import JOIN_COLUMNS

        block = pq.read_table(self.parts[0], columns=JOIN_COLUMNS)
        m = self._join_probe(block)
        stage = KnnStage(self.lines, k=self.K)
        with self.tr.span("join.KnnStage"):
            m["join.knn_ns_per_row"] = _median_ns_per_row(lambda: stage(block), block.num_rows)
        m["join.fc_mb"] = self.fc_mb
        m["join.knn_ties"] = float(self.knn_ties)
        return m

    def span_metrics(self):
        m = super().span_metrics()
        for key, span in (("join.pass_s", "join.spatial_join"), ("join.knn_s", "join.knn_routes"),
                          ("join.fc_s", "join.assemble_route_fcs"),
                          ("join.cellcount_s", "join.cell_tile_counts")):
            m[key] = self._span_median(span, parent="pass")
        return m


class CheckpointIngest(_IndexJoin):
    """The join kernel through run_checkpointed over many small shards,
    then a resume pass that must skip every shard."""

    name = "checkpoint_ingest"
    N_SHARDS = 16
    SHARD_ROWS = 5_000
    SKEW = gen.CorridorSkew(half_width_m=800.0, hot_stop=20, hot_fraction=0.1)

    def _polygons(self):
        return corridor_buffers(self.root)

    def prepare(self, seed):
        n = self.N_SHARDS * self.SHARD_ROWS

        def build(d: Path):
            rng = np.random.default_rng([seed, 3])
            lon, lat = gen.corridor_points(rng, n, self.SKEW)
            gen.write_parts(d / "shards", rng, lon, lat, self.SHARD_ROWS)
            (d / "warm").mkdir()
            for p in sorted((d / "shards").glob("*.parquet"))[:2]:
                shutil.copyfile(p, d / "warm" / p.name)
            _save_oracle(d, join_oracle(np.arange(n), lon, lat, self._polygons()))

        self.data = gen.cached(self.cache, f"{self.name}-{seed}", build)
        self.oracle, _ = _load_oracle(self.data)
        self.out_dir = self.cache / "checkpoint_out"
        self.rows_per_pass = n
        self.partition_s: list[float] = []
        self.write_mb, self.partitions = 0.0, (0, 0)

    def _ingest(self, input_dir: Path):
        from geotile.checkpoint import read_manifests, run_checkpointed
        from geotile.ops.join import spatial_join
        from geotile.ops.tiles import JOIN_COLUMNS

        shutil.rmtree(self.out_dir, ignore_errors=True)
        ref = self.index_ref
        with self.tr.span("checkpoint.run_checkpointed"):
            first = run_checkpointed(input_dir, self.out_dir, lambda ds: spatial_join(ds, ref),
                                     columns=JOIN_COLUMNS)
        with self.tr.span("checkpoint.resume"):
            resume = run_checkpointed(input_dir, self.out_dir, lambda ds: spatial_join(ds, ref),
                                      columns=JOIN_COLUMNS)
        return first, resume, read_manifests(self.out_dir)

    def setup(self):
        self._build_index()
        with self.tr.span("warmup"):
            self._ingest(self.data / "warm")

    def run_pass(self):
        return self._ingest(self.data / "shards")

    def check(self, out):
        first, resume, manifests = out
        errors = []
        if first["partitions_run"] != self.N_SHARDS or first["partitions_skipped"] != 0:
            errors.append(f"first run: {first}")
        if resume["partitions_skipped"] != self.N_SHARDS or resume["partitions_run"] != 0:
            errors.append(f"resume did not skip every partition: {resume}")
        rows = sum(m["output_rows"] for m in manifests)
        if rows != len(self.oracle.keys) or len(manifests) != self.N_SHARDS:
            errors.append(f"manifest output_rows {rows} != oracle {len(self.oracle.keys)}")
        files = sorted(self.out_dir.glob("part=*/*.parquet"))
        keys = np.concatenate([pair_keys(pq.read_table(f, columns=["image_id", "route_id"]),
                                         self.oracle.route_ids) for f in files]) \
            if files else np.empty(0, np.int64)
        if key_fingerprint(keys, self.oracle.tie_index, self.oracle.mult)[:3] \
                != self.oracle.fingerprint():
            errors.append("checkpointed parquet pairs differ from oracle")
        self.write_mb = first["bytes"] / 1e6
        self.partitions = (first["partitions_run"], resume["partitions_skipped"])
        self.partition_s += [m["elapsed_s"] for m in manifests]
        return errors

    def probe(self):
        s = sorted(self.partition_s)
        tail_n = max(len(s) - 10, 0)  # highest rank with >= 10 samples above it
        return {
            "checkpoint.partition_p50_s": statistics.median(s) if s else 0.0,
            "checkpoint.partition_tail_s": s[tail_n - 1] if tail_n else 0.0,
            "checkpoint.partition_tail_pct": 100.0 * tail_n / len(s) if s else 0.0,
            "checkpoint.partition_samples": float(len(s)),
            "checkpoint.write_mb": self.write_mb,
            "checkpoint.partitions_run": float(self.partitions[0]),
            "checkpoint.partitions_skipped": float(self.partitions[1]),
        }

    def span_metrics(self):
        m = super().span_metrics()
        m["checkpoint.resume_s"] = self._span_median("checkpoint.resume")
        return m


class GtfsGeojson(Workload):
    """The reference's job: run_pipeline on the caltrain fixture for all
    nine outputFormats, each file byte-compared with the goldens. The
    seed does not vary this input."""

    name = "gtfs_geojson"

    def prepare(self, seed):
        from geotile.synth import make_caltrain_fixture

        self.golden = {f: (self.root / GOLDEN_DIR / f"{f}.geojson").read_bytes() for f in FORMATS}
        self.fixture = self.cache / "gtfs_fixture"
        self.out_root = self.cache / "gtfs_out"
        shutil.rmtree(self.fixture, ignore_errors=True)
        make_caltrain_fixture(self.fixture)
        feed_rows = sum(pq.read_metadata(p).num_rows for p in self.fixture.glob("*.parquet"))
        self.rows_per_pass = feed_rows * len(FORMATS)
        self.write_mb = 0.0

    def _config(self, fmt: str):
        from geotile.config import AgencyConfig, PipelineConfig

        return PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(self.fixture))],
            coordinate_precision=5, output_format=fmt, verbose=False,
            output_path=str(self.out_root / fmt))

    def _run(self, formats):
        from geotile.pipeline import run_pipeline

        for fmt in formats:
            with self.tr.span("pipeline.run_pipeline"):
                run_pipeline(self._config(fmt))

    def setup(self):
        with self.tr.span("warmup"):
            self._run(["lines-and-stops"])

    def run_pass(self):
        shutil.rmtree(self.out_root, ignore_errors=True)
        self._run(FORMATS)
        return {f: (self.out_root / f / "ct.geojson").read_bytes() for f in FORMATS
                if (self.out_root / f / "ct.geojson").exists()}

    def check(self, out):
        self.write_mb = sum(p.stat().st_size for p in self.out_root.rglob("*") if p.is_file()) / 1e6
        return check_files_equal(out, self.golden)

    def probe(self):
        from geotile.formats import get_geojson_by_format
        from geotile.ops.gtfs import GtfsContext
        from geotile.ops.lines import route_lines
        from geotile.ops.stops import stop_features

        # a fresh context per call: GtfsContext memoises derived results
        with self.tr.span("gtfs.GtfsContext"):
            GtfsContext(self.fixture)
        ctx = GtfsContext(self.fixture)
        with self.tr.span("lines.route_lines"):
            route_lines(ctx, {})
        ctx = GtfsContext(self.fixture)
        with self.tr.span("stops.stop_features"):
            stop_features(ctx, {})
        for fmt in FORMATS:
            ctx = GtfsContext(self.fixture)
            with self.tr.span(f"formats.{fmt}"):
                get_geojson_by_format(ctx, self._config(fmt), {})
        m = {}
        m["gtfs.context_s"] = self._span_median("gtfs.GtfsContext")
        m["lines.route_lines_s"] = self._span_median("lines.route_lines")
        m["stops.stop_features_s"] = self._span_median("stops.stop_features")
        for fmt in FORMATS:
            m[f"formats.{fmt}_s"] = self._span_median(f"formats.{fmt}")
        m["pipeline.write_mb"] = self.write_mb
        return m


WORKLOADS = {w.name: w for w in (JoinStream, RouteRollup, CheckpointIngest, GtfsGeojson)}
