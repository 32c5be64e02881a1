"""CLI — parity with the reference bin (src/bin/gtfs-to-geojson.ts:13-27).

Usage:
    python -m geotile.cli --configPath ./config.json
    python -m geotile.cli --fixture /tmp/fix --output /tmp/out \
        --format lines-and-stops --type agency --precision 5

``--fixture DIR`` synthesizes the caltrain feed into DIR and runs on it
(offline stand-in for the reference's download+import stage). Owns the
Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="geotile", description=__doc__)
    p.add_argument("--mode", default="gtfs", choices=["gtfs", "join", "query"],
                   help="gtfs: reference-style GeoJSON pipeline; join: the "
                        "checkpointed image-tile spatial join (resumable); "
                        "query: run any named battery query over an sf dir")
    p.add_argument("--images", help="[join] input image-table directory of parquet shards")
    p.add_argument("--query", help="[query] query name from battery.queries.QUERIES "
                                   "(or 'list' to print the names)")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                   help="[query] input table directory")
    p.add_argument("--limit", type=int, default=20,
                   help="[query] rows of the result to print (JSONL)")
    p.add_argument("--configPath", help="path to a reference-style config.json")
    p.add_argument("--skipImport", action="store_true",
                   help="kept for reference CLI parity (import == parquet read here)")
    p.add_argument("--fixture", help="synthesize the caltrain fixture feed into this dir")
    p.add_argument("--output", default="./geojson_out")
    p.add_argument("--format", default="lines-and-stops")
    p.add_argument("--type", default="agency", choices=["agency", "route", "shape"])
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--buffer-meters", type=float, default=400.0)
    p.add_argument("--zip", action="store_true")
    p.add_argument("--num-cpus", type=int, default=8)
    args = p.parse_args(argv)

    if args.mode == "query" and (not args.query or args.query == "list"):
        # listing needs no Ray session
        from battery.queries import QUERIES

        print(json.dumps({"queries": sorted(QUERIES)}))
        return 0

    import logging

    import ray

    ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    try:
        from geotile.config import AgencyConfig, PipelineConfig
        from geotile.pipeline import run_pipeline

        if args.mode == "join":
            if not args.images:
                p.error("--mode join requires --images DIR")
            from geotile.checkpoint import read_manifests, run_checkpointed
            from geotile.ops.gtfs import GtfsContext
            from geotile.ops.join import build_route_index, route_buffer_polygons, spatial_join
            from geotile.ops.tiles import JOIN_COLUMNS
            from geotile.synth import make_caltrain_fixture

            with tempfile.TemporaryDirectory() as feed:
                ctx = GtfsContext(make_caltrain_fixture(feed))
                idx = build_route_index(
                    route_buffer_polygons(ctx, PipelineConfig(coordinate_precision=5))
                )
            idx_ref = ray.put(idx)  # ONE broadcast across all partitions
            stats = run_checkpointed(
                args.images, args.output,
                lambda ds: spatial_join(ds, idx_ref),
                columns=JOIN_COLUMNS,
                lineage=["read_parquet[image_id,caption]", "georef+cell_encode",
                         "cell_index_candidates", "pip_exact", "write_parquet"],
            )
            stats["manifests"] = len(read_manifests(args.output))
            print(json.dumps(stats))
            return 0

        if args.mode == "query":
            from battery.queries import QUERIES

            if args.query not in QUERIES:
                p.error(f"unknown query {args.query!r} (use --query list)")
            res = QUERIES[args.query](args.sf_dir)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            n = len(df)
            for _, row in df.head(args.limit).iterrows():
                print(json.dumps({k: (v.item() if hasattr(v, "item") else v)
                                  for k, v in row.items()}, default=str))
            print(json.dumps({"query": args.query, "rows": n,
                              "shown": min(n, args.limit)}))
            return 0

        if args.configPath:
            cfg = PipelineConfig.from_json(args.configPath)
            if args.output != "./geojson_out":
                cfg.output_path = args.output  # explicit flag overrides config
            elif not cfg.output_path:
                cfg.output_path = args.output
        elif args.fixture:
            from geotile.synth import make_caltrain_fixture

            feed = make_caltrain_fixture(args.fixture)
            cfg = PipelineConfig(
                agencies=[AgencyConfig(agency_key="caltrain-synth", path=str(feed))],
                output_format=args.format,
                output_type=args.type,
                coordinate_precision=args.precision,
                buffer_size_meters=args.buffer_meters,
                output_path=args.output,
                zip_output=args.zip,
            )
        else:
            p.error("one of --configPath / --fixture is required")
        paths = run_pipeline(cfg)
        print(json.dumps({"outputs": paths}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
