"""Graft tests: cell-indexed spatial join vs brute-force oracle, kNN vs
exact oracle, cell counts, FC assembly, image decode invariants,
invalid coordinates, and checkpoint/resume."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

from geotile.config import PipelineConfig
from geotile.geom.buffer import meter_frame
from geotile.geom.pip import points_in_polygon, points_to_polyline_distance
from geotile.ops.gtfs import GtfsContext
from geotile.ops.join import (
    assemble_route_fcs,
    build_route_index,
    cell_tile_counts,
    knn_routes,
    route_buffer_polygons,
    route_polylines,
    spatial_join,
)
from geotile.ops.tiles import JOIN_COLUMNS, ImageDecodeStage, ImageResizeStage, read_image_table
from geotile.synth import N_STOPS, tile_centers

N_IMG = 2000


@pytest.fixture(scope="module")
def ctx(ray_session, caltrain_dir):
    return GtfsContext(caltrain_dir)


@pytest.fixture(scope="module")
def polys(ctx):
    return route_buffer_polygons(ctx, PipelineConfig(coordinate_precision=5))


@pytest.fixture(scope="module")
def index(polys):
    return build_route_index(polys)


@pytest.fixture(scope="module")
def joined_df(ray_session, image_table_dir, index):
    ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
    return spatial_join(ds, index).to_pandas()


class TestSpatialJoin:
    def test_matches_bruteforce_oracle(self, joined_df, polys):
        lon, lat = tile_centers(np.arange(N_IMG).astype(np.uint64))
        expect = set()
        for rid, plist in polys.items():
            for outer, holes in plist:
                inside = points_in_polygon(lon, lat, [outer] + holes)
                for i in np.nonzero(inside)[0]:
                    expect.add((f"img-{i:08d}", rid))
        got = set(zip(joined_df.image_id, joined_df.route_id))
        assert got == expect

    def test_captions_ride_through(self, joined_df):
        for iid, cap in zip(joined_df.image_id[:50], joined_df.caption[:50]):
            i = int(iid[4:])
            assert cap == f"tile {i} near stop {i % N_STOPS}"

    def test_hit_rate_sane(self, joined_df):
        # ~2/3 of tiles land inside some buffer by construction
        hit_tiles = joined_df.image_id.nunique()
        assert 0.4 * N_IMG < hit_tiles <= N_IMG

    def test_cell_column_resolution(self, joined_df, index):
        from geotile.geom import cells

        cell = joined_df.cell.to_numpy().view(np.uint64)
        assert (cells.resolution(cell) == index.res).all()
        # cell re-encodes the tile centroid
        lon, lat = joined_df.lon.to_numpy(), joined_df.lat.to_numpy()
        assert (cells.encode(lon, lat, index.res) == cell).all()


class TestManyPolygons:
    def test_join_with_256_polygons_matches_oracle(self, ray_session, image_table_dir):
        from geotile.synth import synthetic_route_polygons

        polys = synthetic_route_polygons(256)
        idx = build_route_index(polys)
        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        got_df = spatial_join(ds, idx).to_pandas()
        got = set(zip(got_df.image_id, got_df.route_id))
        lon, lat = tile_centers(np.arange(N_IMG).astype(np.uint64))
        expect = set()
        for rid, plist in polys.items():
            for outer, holes in plist:
                inside = points_in_polygon(lon, lat, [outer] + holes)
                for i in np.nonzero(inside)[0]:
                    expect.add((f"img-{i:08d}", rid))
        assert got == expect


class TestKnn:
    def test_matches_exact_oracle(self, ray_session, image_table_dir, ctx):
        lines = route_polylines(ctx)
        k = 2
        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS).limit(200)
        got = knn_routes(ds, lines, k=k).to_pandas()
        assert len(got) == 200 * k
        # exact distances per route in the same meter frame
        from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON

        mx, my = meter_frame(_ANCHOR_LAT)
        lon, lat = tile_centers(np.arange(200).astype(np.uint64))
        px, py = (lon - _ANCHOR_LON) * mx, (lat - _ANCHOR_LAT) * my
        rids = sorted(lines)
        D = np.stack(
            [
                np.minimum.reduce(
                    [
                        points_to_polyline_distance(
                            px, py,
                            np.column_stack([(p[:, 0] - _ANCHOR_LON) * mx,
                                             (p[:, 1] - _ANCHOR_LAT) * my]),
                        )
                        for p in lines[r]
                    ]
                )
                for r in rids
            ],
            axis=1,
        )
        for i in range(200):
            exp_order = [rids[j] for j in np.argsort(D[i], kind="stable")[:k]]
            rows = got[got.image_id == f"img-{i:08d}"].sort_values("rank")
            assert rows.route_id.tolist() == exp_order
            assert np.allclose(np.sort(D[i])[:k], rows.dist_m.to_numpy())


class TestUniqueCountsU64:
    def test_matches_np_unique_both_paths(self):
        from geotile.ops.join import _unique_counts_u64

        rng = np.random.default_rng(31)
        # narrow span → bincount path; wide span → sort fallback
        narrow = rng.integers(10**6, 10**6 + 500, 5000).astype(np.uint64)
        wide = rng.integers(0, 2**62, 5000).astype(np.uint64)
        for v in (narrow, wide, np.array([], np.uint64), np.array([7], np.uint64)):
            u, c = _unique_counts_u64(v)
            eu, ec = np.unique(v, return_counts=True)
            assert (u == eu).all() and (c == ec).all()


class TestCellCounts:
    def test_total_and_skew(self, ray_session, image_table_dir):
        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        df = cell_tile_counts(ds).to_pandas()
        assert df.n_tiles.sum() == N_IMG
        # the hot-stop cluster concentrates ~20% in one coarse cell
        assert df.n_tiles.max() > 0.1 * N_IMG
        # matches a driver-side oracle
        from geotile.geom import cells

        lon, lat = tile_centers(np.arange(N_IMG).astype(np.uint64))
        coarse = cells.parent(cells.encode(lon, lat, 18), 12)
        uniq, counts = np.unique(coarse, return_counts=True)
        oracle = dict(zip(uniq.view(np.int64).tolist(), counts.tolist()))
        got = dict(zip(df.cell.tolist(), df.n_tiles.tolist()))
        assert got == oracle


class TestDissolveTiles:
    def test_cell_union_matches_oracle(self, ray_session, image_table_dir):
        from geotile.geom import cells as cellmod
        from geotile.ops.join import dissolve_tile_footprints
        from geotile.synth import tile_footprints

        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        covered, polys = dissolve_tile_footprints(ds, res=18)
        got = set(r["cell"] for r in covered.select_columns(["cell"]).take_all())
        # oracle: every cell intersecting any footprint bbox
        quads = tile_footprints(np.arange(N_IMG).astype(np.uint64))
        dlon, dlat = cellmod.cell_size_degrees(18)
        expect = set()
        for q in quads:
            ix0 = int(np.floor((q[:, 0].min() + 180) / dlon))
            ix1 = int(np.floor((q[:, 0].max() + 180) / dlon))
            iy0 = int(np.floor((q[:, 1].min() + 90) / dlat))
            iy1 = int(np.floor((q[:, 1].max() + 90) / dlat))
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    expect.add(int(cellmod.from_ixy(
                        np.array([ix], dtype=np.uint64),
                        np.array([iy], dtype=np.uint64), 18)[0].view(np.int64)))
        assert got == expect
        # vectorized polygons exist and tile centers are covered
        assert len(polys) >= 1
        from geotile.geom.pip import points_in_polygon
        from geotile.synth import tile_centers

        lon, lat = tile_centers(np.arange(200).astype(np.uint64))
        sy = dlon / dlat
        covered_pts = np.zeros(200, dtype=bool)
        for outer, holes in polys:
            rings = [np.column_stack([outer[:, 0], outer[:, 1] * sy])] + [
                np.column_stack([h[:, 0], h[:, 1] * sy]) for h in holes
            ]
            covered_pts |= points_in_polygon(lon, lat * sy, rings)
        assert covered_pts.mean() > 0.95  # centers inside the dissolved coverage


class TestFcAssembly:
    def test_per_route_fc(self, ray_session, image_table_dir, index):
        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        joined = spatial_join(ds, index)
        fcs = assemble_route_fcs(joined).to_pandas()
        assert set(fcs.route_id) == set(index.route_ids)
        fc = json.loads(fcs.fc_json.iloc[0])
        assert fc["type"] == "FeatureCollection"
        f0 = fc["features"][0]
        assert f0["geometry"]["type"] == "Polygon"
        assert "caption" in f0["properties"]
        ids = [f["properties"]["image_id"] for f in fc["features"]]
        assert ids == sorted(ids)  # deterministic in-file order


class TestFcSink:
    def test_write_route_fcs(self, ray_session, image_table_dir, index, tmp_path):
        from geotile.ops.join import assemble_route_fcs, write_route_fcs

        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        fcs = assemble_route_fcs(spatial_join(ds, index))
        paths = write_route_fcs(fcs, str(tmp_path / "fc_out"))
        assert len(paths) == len(index.route_ids)
        for p in paths:
            fc = json.loads(open(p).read())
            assert fc["type"] == "FeatureCollection"
            assert len(fc["features"]) > 0


class TestImageStages:
    def test_decode_invariants_all_ok(self, ray_session, image_table_dir):
        ds = read_image_table(str(image_table_dir))
        out = ds.map_batches(
            ImageDecodeStage, fn_constructor_kwargs={"verify": True},
            batch_format="pyarrow", batch_size=256, concurrency=2,
        ).to_pandas()
        assert len(out) == N_IMG
        assert out.phash_ok.all()

    def test_embed_stage(self, ray_session, image_table_dir):
        from geotile.ops.tiles import ImageEmbedStage

        ds = read_image_table(str(image_table_dir)).limit(64)
        out = ds.map_batches(
            ImageEmbedStage, fn_constructor_kwargs={"dim": 64},
            batch_format="pyarrow", batch_size=32, concurrency=2,
        ).to_pandas()
        assert len(out) == 64
        M = np.array(out.embedding.tolist())
        assert M.shape == (64, 64)
        assert np.allclose(np.linalg.norm(M, axis=1), 1.0, atol=1e-5)
        # deterministic: same image -> same embedding
        out2 = ds.map_batches(
            ImageEmbedStage, fn_constructor_kwargs={"dim": 64},
            batch_format="pyarrow", batch_size=32, concurrency=2,
        ).to_pandas()
        assert np.allclose(M, np.array(out2.embedding.tolist()))

    def test_frame_sample_stub(self, ray_session, image_table_dir):
        from geotile.ops.tiles import FrameSampleStage

        ds = read_image_table(str(image_table_dir)).limit(16)
        out = ds.map_batches(
            FrameSampleStage, batch_format="pyarrow", batch_size=8, concurrency=2,
        ).to_pandas()
        assert (out.frame_idx == 0).all()
        # a genuinely-video fmt raises the documented stub error
        stage = FrameSampleStage()
        import pyarrow as pa

        with pytest.raises(NotImplementedError):
            stage(pa.table({"fmt": ["mp4"], "bytes": [b""], "image_id": ["x"]}))

    def test_resize_stage(self, ray_session, image_table_dir):
        ds = read_image_table(str(image_table_dir)).limit(64)
        out = ds.map_batches(
            ImageResizeStage, fn_constructor_kwargs={"out_w": 8, "out_h": 8},
            batch_format="pyarrow", batch_size=32, concurrency=2,
        ).to_pandas()
        assert len(out) == 64
        assert (out.w == 8).all() and (out.h == 8).all()
        assert all(len(b) == 8 * 8 * 3 for b in out["bytes"])


class TestCheckpoint:
    def _pipeline(self, index):
        def fn(ds):
            return spatial_join(ds, index)

        return fn

    def test_kill_and_resume(self, ray_session, tmp_path, index):
        from geotile.checkpoint import read_manifests, run_checkpointed
        from geotile.synth import make_image_table

        inp = make_image_table(3000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"
        # "killed" run: only 1 partition completes
        s1 = run_checkpointed(inp, out, self._pipeline(index),
                              columns=JOIN_COLUMNS, max_partitions=1)
        assert s1["partitions_run"] == 1
        m1 = read_manifests(out)
        assert len(m1) == 1
        # resume: the finished partition is skipped, rest complete
        s2 = run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        assert s2["partitions_skipped"] == 1
        assert s2["partitions_run"] == 2
        m2 = read_manifests(out)
        assert len(m2) == 3
        # the first manifest is untouched byte-identically
        assert m2[0] == m1[0]
        # total output equals a fresh full run
        out2 = tmp_path / "out_full"
        s3 = run_checkpointed(inp, out2, self._pipeline(index), columns=JOIN_COLUMNS)
        assert s3["rows"] == s1["rows"] + s2["rows"]
        a = pq.read_table(sorted(str(p) for p in out.glob("part=*/[!_]*.parquet")))
        b = pq.read_table(sorted(str(p) for p in out2.glob("part=*/[!_]*.parquet")))
        assert a.sort_by("image_id").equals(b.sort_by("image_id"))

    def test_zero_row_partition_checkpoints(self, ray_session, tmp_path, index):
        """A shard whose pipeline output is empty still gets a manifest
        and is skipped on resume (no rename crash, no recompute)."""
        from geotile.checkpoint import read_manifests, run_checkpointed
        from geotile.synth import make_image_table

        inp = make_image_table(1000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"

        def drop_all(ds):
            import pyarrow as pa

            return ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")

        s1 = run_checkpointed(inp, out, drop_all, columns=JOIN_COLUMNS)
        assert s1["partitions_run"] == 1 and s1["rows"] == 0
        m = read_manifests(out)
        assert len(m) == 1 and m[0]["output_rows"] == 0
        s2 = run_checkpointed(inp, out, drop_all, columns=JOIN_COLUMNS)
        assert s2["partitions_skipped"] == 1 and s2["partitions_run"] == 0

    def test_stale_input_reruns(self, ray_session, tmp_path, index):
        import time

        from geotile.checkpoint import completed_partitions, run_checkpointed
        from geotile.synth import make_image_table
        from pathlib import Path

        inp = make_image_table(1000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"
        run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        parts = sorted(Path(inp).glob("*.parquet"))
        assert completed_partitions(out, parts) == {parts[0].stem}
        # touch the input → fingerprint changes → partition is dirty
        time.sleep(1.1)
        parts[0].touch()
        assert completed_partitions(out, parts) == set()


class TestKnnRingPath:
    def test_ring_path_matches_exact_scan_256_routes(self, ray_session):
        """The cell-ring-expansion kNN must produce EXACTLY the exact
        scan's output (ids, ranks, distances bit-equal) on a 256-route
        dimension side — the regime the ring path exists for."""
        import ray

        from geotile.ops.join import KnnStage
        from geotile.synth import make_image_batch, synthetic_route_polygons

        # disc rings double as polylines for the kNN geometry
        polys = synthetic_route_polygons(256)
        routes = {rid: [plist[0][0]] for rid, plist in polys.items()}
        batch = make_image_batch(np.arange(3000)).select(["image_id", "caption"])
        exact = KnnStage(ray.put(routes), k=3, ring_threshold=10**9)(batch)
        ring = KnnStage(ray.put(routes), k=3, ring_threshold=1)(batch)
        ed, rd_ = exact.to_pandas(), ring.to_pandas()
        assert (ed["image_id"] == rd_["image_id"]).all()
        assert (ed["rank"] == rd_["rank"]).all()
        assert (ed["route_id"] == rd_["route_id"]).all()
        assert (ed["dist_m"].to_numpy() == rd_["dist_m"].to_numpy()).all()


class TestStreamedDissolve:
    def test_streamed_rings_match_mask_trace(self, ray_session, image_table_dir):
        """The distributed (per-parent window, perimeter-only shuffle)
        marching squares must reproduce the in-memory mask trace:
        same polygon count, ring order, vertex counts, and vertices."""
        from geotile.geom import cells as cellmod
        from geotile.geom.raster import cells_to_mask, mask_to_polygons
        from geotile.ops.join import dissolve_tile_footprints

        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        covered, polys = dissolve_tile_footprints(ds, res=18)
        cell_ids = np.array(
            [r["cell"] for r in covered.select_columns(["cell"]).take_all()],
            dtype=np.int64,
        ).view(np.uint64)
        mask, grid, sy = cells_to_mask(cell_ids)
        ref = []
        for outer, holes in mask_to_polygons(mask, grid):
            o = outer.copy(); o[:, 1] /= sy
            ref.append((o, [np.column_stack([h[:, 0], h[:, 1] / sy]) for h in holes]))
        assert len(polys) == len(ref)
        for (go, gh), (eo, eh) in zip(polys, ref):
            assert len(go) == len(eo)
            assert np.allclose(go, eo, atol=1e-9, rtol=0)
            assert len(gh) == len(eh)
            for a, b in zip(gh, eh):
                assert len(a) == len(b)
                assert np.allclose(a, b, atol=1e-9, rtol=0)


class TestShardedFcAssembly:
    def test_shards_cover_same_features(self, ray_session, image_table_dir):
        """Sharded assembly (the giant-route scale path) must partition
        exactly the features the unsharded path emits."""
        import json

        from geotile.ops.join import assemble_route_fcs, spatial_join
        from geotile.synth import synthetic_route_polygons

        idx = build_route_index(synthetic_route_polygons(8))
        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        joined = spatial_join(ds, idx)
        whole = assemble_route_fcs(joined).to_pandas()
        sharded = assemble_route_fcs(joined, n_shards=4).to_pandas()
        assert set(sharded.columns) == {"route_id", "shard", "n_tiles", "truncated", "fc_json"}
        for rid in whole.route_id:
            w = json.loads(whole[whole.route_id == rid].fc_json.iloc[0])
            ids_whole = [f["properties"]["image_id"] for f in w["features"]]
            parts = sharded[sharded.route_id == rid].sort_values("shard")
            ids_shard = [
                f["properties"]["image_id"]
                for _, row in parts.iterrows()
                for f in json.loads(row.fc_json)["features"]
            ]
            assert sorted(ids_shard) == sorted(ids_whole)
            assert int(parts.n_tiles.sum()) == int(whole[whole.route_id == rid].n_tiles.iloc[0])


class TestInvalidCoordinates:
    """Rows whose lon/lat ``cells.encode`` would clamp into an edge cell
    (NaN, ±inf, outside [-180, 180] × [-90, 90]) never join and never
    count. Before the fix, each row below joined the polygon at the edge
    cell it was clamped into, through the PIP-free fully-inside path."""

    LON = [179.5, -179.5, 500.0, 180.5, np.nan, -179.5, -179.5, -179.5, np.inf]
    LAT = [0.5, -89.5, 0.5, 0.5, np.nan, np.nan, -np.inf, -95.0, 0.5]

    def _batch(self):
        import pyarrow as pa

        n = len(self.LON)
        return pa.table({
            "image_id": [f"img-{i:08d}" for i in range(n)],
            "caption": [f"c{i}" for i in range(n)],
            "lon": pa.array(self.LON, pa.float64()),
            "lat": pa.array(self.LAT, pa.float64()),
        })

    def test_spatial_join_drops_invalid_rows(self):
        from geotile.ops.join import SpatialJoinStage

        def square(x0, y0):
            return np.array([[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1],
                             [x0, y0 + 1], [x0, y0]], np.float64)

        index = build_route_index(
            {"box": [(square(179.0, 0.0), [])], "corner": [(square(-180.0, -90.0), [])]},
            res=10,
        )
        out = SpatialJoinStage(index)(self._batch())
        got = sorted(zip(out["image_id"].to_pylist(), out["route_id"].to_pylist()))
        assert got == [("img-00000000", "box"), ("img-00000001", "corner")]

    def test_cell_counts_drop_invalid_rows(self, ray_session):
        import ray.data as rd

        from geotile.geom import cells

        df = cell_tile_counts(rd.from_arrow(self._batch())).to_pandas()
        lon, lat = np.array(self.LON[:2]), np.array(self.LAT[:2])
        expect = np.unique(cells.encode(lon, lat, 12)).view(np.int64)
        assert sorted(df.cell.tolist()) == sorted(expect.tolist())
        assert df.n_tiles.tolist() == [1, 1]
