"""Graft tests: cell-indexed spatial join vs brute-force oracle, kNN vs
exact oracle, cell counts, FC assembly, image decode invariants,
invalid coordinates, and checkpoint/resume."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

from battery.ops.images import ImageDecodeStage, ImageResizeStage
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
from geotile.ops.tiles import JOIN_COLUMNS, read_image_table
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

    def test_extra_input_columns_ride_along(self, image_table_dir, index):
        import pyarrow as pa

        from geotile.ops.join import SpatialJoinStage

        stage = SpatialJoinStage(index)
        t = pq.read_table(image_table_dir, columns=JOIN_COLUMNS + ["w"])
        base = stage(t.select(JOIN_COLUMNS))
        assert base.schema == pa.schema([
            ("image_id", pa.string()), ("caption", pa.string()), ("lon", pa.float64()),
            ("lat", pa.float64()), ("cell", pa.int64()), ("route_id", pa.string())])
        extra = stage(t)
        assert extra.drop_columns(["w"]).equals(base) and base.num_rows > 0
        w_of = dict(zip(t["image_id"].to_pylist(), t["w"].to_pylist()))
        assert extra["w"].to_pylist() == [w_of[i] for i in extra["image_id"].to_pylist()]


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
        """Per-block partial counts equal ``np.unique`` of the
        ``CELL_COUNT_RES`` cells, on narrow- and wide-span inputs, an
        empty table and a single row."""
        import pyarrow as pa

        from geotile.geom import cells
        from geotile.ops.join import CELL_COUNT_RES, _partial_cell_counts

        rng = np.random.default_rng(31)
        narrow = (rng.uniform(-122.5, -122.4, 5000), rng.uniform(37.5, 37.6, 5000))
        wide = (rng.uniform(-179.9, 179.9, 5000), rng.uniform(-89.9, 89.9, 5000))
        empty = (np.empty(0), np.empty(0))
        one = (np.array([-122.3]), np.array([37.6]))
        for lon, lat in (narrow, wide, empty, one):
            got = _partial_cell_counts(pa.table({"lon": lon, "lat": lat}))
            eu, ec = np.unique(cells.encode(lon, lat, CELL_COUNT_RES), return_counts=True)
            assert got["cell"].to_numpy().view(np.uint64).tolist() == eu.tolist()
            assert got["n"].to_pylist() == ec.tolist()


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
        from battery.ops.dissolve import dissolve_tile_footprints
        from geotile.synth import tile_footprints

        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        covered, polys = dissolve_tile_footprints(ds)
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

    def test_quads_contain_their_rows(self):
        """Each feature's footprint quad is centred on its row's stored
        lon/lat, on any table — not only where the id encodes a
        corridor placement."""
        import pyarrow as pa

        from geotile.ops.join import _route_fcs

        lon = np.array([2.35, 2.36, -73.99, 151.21, -122.3])
        lat = np.array([48.85, 48.86, 40.75, -33.87, 37.6])
        t = pa.table({
            "image_id": [f"img-{i:08d}" for i in range(len(lon))],
            "caption": ["c"] * len(lon),
            "lon": lon, "lat": lat,
            "cell": np.arange(len(lon), dtype=np.int64),
            "route_id": ["R"] * len(lon),
        })
        fc = json.loads(_route_fcs(t)["fc_json"][0].as_py())
        assert len(fc["features"]) == len(lon)
        for f, x, y in zip(fc["features"], lon, lat):
            ring = np.array(f["geometry"]["coordinates"][0])
            assert points_in_polygon(np.array([x]), np.array([y]), [ring])[0]

    @staticmethod
    def _joined_rows(n: int, n_routes: int, seed: int):
        """A joined-shaped table whose ids, captions and route ids need
        JSON escaping (quote, backslash, newline, CR, tab) or are not
        ASCII."""
        import pyarrow as pa

        rng = np.random.default_rng(seed)
        odd = ['a"b', "c\\d", "e\nf", "g\rh", "i\tj", "ü€漢", "plain", ""]
        pick = lambda: odd[rng.integers(len(odd))]
        return pa.table({
            "image_id": [f"img-{rng.integers(10**6):08d}{pick()}" for _ in range(n)],
            "caption": [f"{pick()}cap{i}{pick()}" for i in range(n)],
            "lon": rng.uniform(-122.6, -121.8, n),
            "lat": rng.uniform(37.2, 37.8, n),
            "cell": rng.integers(0, 2**62, n),
            "route_id": [f"R{rng.integers(n_routes)}{pick()}" for _ in range(n)],
        })

    @staticmethod
    def _replay_route_fc(df, cap: int) -> dict:
        """Reference FeatureCollection for one route's rows: a pandas
        stable sort, then per column float/int → string casts and JSON
        escaping, one feature string per row."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from geotile.ops.tiles import footprint_quads

        def esc(arr):
            for pat, rep in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                             ("\r", "\\r"), ("\t", "\\t")):
                arr = pc.replace_substring(arr, pattern=pat, replacement=rep)
            return arr.to_pylist()

        n_total = len(df)
        df = df.sort_values("image_id", kind="stable").head(cap)
        quads = np.round(footprint_quads(df["lon"].to_numpy(), df["lat"].to_numpy()), 7)
        flat = quads.reshape(len(df), 10)
        num = [pc.cast(pa.array(flat[:, j]), pa.string()).to_pylist() for j in range(10)]
        ids = esc(pa.array(df["image_id"].to_numpy(), pa.string()))
        caps = esc(pa.array(df["caption"].to_numpy(), pa.string()))
        cell = pc.cast(pa.array(df["cell"].to_numpy()), pa.string()).to_pylist()
        feats = []
        for i in range(len(df)):
            c = [num[j][i] for j in range(10)]
            ring = "[" + ",".join(f"[{c[2 * v]},{c[2 * v + 1]}]" for v in range(5)) + "]"
            feats.append(
                f'{{"type":"Feature","properties":{{"image_id":"{ids[i]}","caption":"{caps[i]}",'
                f'"cell":{cell[i]}}},"geometry":{{"type":"Polygon","coordinates":[{ring}]}}}}')
        return {"n_tiles": n_total, "truncated": n_total > len(df),
                "fc_json": '{"type":"FeatureCollection","features":[' + ",".join(feats) + "]}"}

    def test_fc_bytes_match_replay(self, ray_session):
        """``assemble_route_fcs`` over several blocks gives, per route,
        the replay's ``fc_json`` byte for byte, its ``n_tiles`` and its
        ``truncated``."""
        import ray.data as rd

        from geotile.ops.join import FC_MAX_FEATURES

        t = self._joined_rows(3000, 80, seed=5)
        got = assemble_route_fcs(rd.from_arrow([t.slice(0, 1100), t.slice(1100)])).take_all()
        df = t.to_pandas()
        want = {rid: self._replay_route_fc(g, FC_MAX_FEATURES)
                for rid, g in df.groupby("route_id", sort=True)}
        assert len(got) == len(want) > 80
        for r in got:
            w = want[r["route_id"]]
            assert r["fc_json"].encode() == w["fc_json"].encode()
            assert (r["n_tiles"], r["truncated"]) == (w["n_tiles"], w["truncated"])

    def test_every_c0_character_round_trips(self):
        """A caption holding any of the 32 C0 control characters (or all
        of them) comes back from ``json.loads(fc_json)`` unchanged."""
        import pyarrow as pa

        from geotile.ops.join import _route_fcs

        caps = [f"c{c:02d}{chr(c)}end" for c in range(32)] + ["".join(map(chr, range(32)))]
        n = len(caps)
        t = pa.table({
            "image_id": [f"img-{i:08d}" for i in range(n)], "caption": caps,
            "lon": np.full(n, -122.3), "lat": np.full(n, 37.6),
            "cell": np.arange(n, dtype=np.int64), "route_id": ["R"] * n,
        })
        fc = json.loads(_route_fcs(t)["fc_json"][0].as_py())
        assert [f["properties"]["caption"] for f in fc["features"]] == caps

    def test_feature_cap(self, monkeypatch):
        """Past ``FC_MAX_FEATURES`` a route keeps its lowest image ids and
        reports its true ``n_tiles`` and ``truncated``; a shorter route
        is untouched."""
        import pyarrow as pa

        import geotile.ops.join as J

        monkeypatch.setattr(J, "FC_MAX_FEATURES", 3)
        ids = ["img-5", "img-2", "img-9", "img-1", "img-7", "img-4", "img-3"]
        t = pa.table({
            "image_id": ids, "caption": ["c"] * 7,
            "lon": np.full(7, -122.3), "lat": np.full(7, 37.6),
            "cell": np.arange(7, dtype=np.int64),
            "route_id": ["A", "A", "A", "A", "A", "B", "B"],
        })
        out = J._route_fcs(t).to_pylist()
        assert [(r["route_id"], r["n_tiles"], r["truncated"]) for r in out] == [
            ("A", 5, True), ("B", 2, False)]
        feats = [[f["properties"]["image_id"] for f in json.loads(r["fc_json"])["features"]]
                 for r in out]
        assert feats == [["img-1", "img-2", "img-5"], ["img-3", "img-4"]]
        assert J._route_fcs(t.slice(0, 0)).num_rows == 0


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
        from battery.ops.images import ImageEmbedStage

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
        from battery.ops.images import FrameSampleStage

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

    @staticmethod
    def _part_rows(out, stem):
        files = sorted((out / f"part={stem}").glob("*.parquet"))
        return pq.read_table(files, partitioning=None).to_pylist() if files else []

    def test_each_part_holds_its_shard_alone(self, ray_session, tmp_path, image_table_dir, index):
        """Nine shards of different sizes, one far from every route: each
        part=<stem> holds exactly what the join of that shard alone
        gives, even when the pipeline's blocks span several shards."""
        import pyarrow as pa
        import ray.data as rd

        from geotile.checkpoint import read_manifests, run_checkpointed

        src = pq.read_table(image_table_dir, columns=JOIN_COLUMNS)
        inp = tmp_path / "in"
        inp.mkdir()
        start = 0
        for i, n in enumerate([37, 400, 1, 250, 90, 600, 13, 300, 209]):
            t = src.slice(start, n)
            start += n
            if i == 3:  # no tile near any route: an empty join output
                t = t.set_column(2, "lon", pa.array(np.full(n, 10.0)))
            pq.write_table(t, inp / f"s{i}.parquet")
        out = tmp_path / "out"
        # repartition(2) makes every block span several shards
        s = run_checkpointed(inp, out, lambda ds: spatial_join(ds.repartition(2), index),
                             columns=JOIN_COLUMNS)
        assert s["partitions_run"] == 9
        key = lambda r: (r["image_id"], r["route_id"])
        for shard in sorted(inp.glob("*.parquet")):
            alone = spatial_join(rd.read_parquet(str(shard), columns=JOIN_COLUMNS), index).take_all()
            got = self._part_rows(out, shard.stem)
            assert sorted(got, key=key) == sorted(alone, key=key), shard.stem
        m = {r["partition"]: r["output_rows"] for r in read_manifests(out)}
        assert m["s3"] == 0 and (out / "part=s3").is_dir()
        assert sum(m.values()) == s["rows"] > 0

    def test_unreported_files_never_commit(self, ray_session, tmp_path, index):
        """A file in .tmp-<stem> that the job did not report (what a
        retried writer task leaves behind) never reaches part=<stem> or
        output_rows."""
        import uuid
        from pathlib import Path

        from geotile.checkpoint import read_manifests, run_checkpointed
        from geotile.synth import make_image_table

        inp = make_image_table(2000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"

        def plant(t):
            for path in set(t["path"].to_pylist()):
                stray = out / f".tmp-{Path(path).stem}" / f"{uuid.uuid4().hex}.parquet"
                pq.write_table(t.drop_columns(["path"]), stray)
            return t

        s = run_checkpointed(
            inp, out, lambda ds: spatial_join(ds, index).map_batches(plant, batch_format="pyarrow"),
            columns=JOIN_COLUMNS)
        clean = run_checkpointed(inp, tmp_path / "clean", self._pipeline(index), columns=JOIN_COLUMNS)
        assert s["rows"] == clean["rows"] > 0
        assert sum(m["output_rows"] for m in read_manifests(out)) == clean["rows"]
        assert len(pq.read_table(sorted(out.glob("part=*/*.parquet")))) == clean["rows"]

    def test_pipeline_must_keep_path(self, ray_session, tmp_path):
        import pyarrow as pa

        from geotile.checkpoint import read_manifests, run_checkpointed

        shard = tmp_path / "in" / "p0.parquet"
        shard.parent.mkdir()
        pq.write_table(pa.table({"x": [1, 2, 3]}), shard)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="row-local and keep 'path'"):
            run_checkpointed(shard.parent, out, lambda ds: ds.select_columns(["x"]))
        assert read_manifests(out) == [] and not list(out.iterdir())

    def test_input_path_column_rejected(self, ray_session, tmp_path):
        import pyarrow as pa

        from geotile.checkpoint import run_checkpointed

        shard = tmp_path / "in" / "p0.parquet"
        shard.parent.mkdir()
        pq.write_table(pa.table({"x": [1], "path": ["elsewhere.parquet"]}), shard)
        with pytest.raises(ValueError, match="own 'path' column"):
            run_checkpointed(shard.parent, tmp_path / "out", lambda ds: ds)

    @pytest.mark.parametrize("text", ["", "{\"partition\": ", "[]"])
    def test_bad_manifest_reruns(self, ray_session, tmp_path, index, text):
        from geotile.checkpoint import manifest_path, read_manifests, run_checkpointed
        from geotile.synth import make_image_table

        inp = make_image_table(2000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"
        run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        before = read_manifests(out)
        stem = before[0]["partition"]
        manifest_path(out, stem).write_text(text)
        s = run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        assert s["partitions_run"] == 1 and s["partitions_skipped"] == 1
        after = read_manifests(out)
        assert [m["output_rows"] for m in after] == [m["output_rows"] for m in before]
        assert len(self._part_rows(out, stem)) == after[0]["output_rows"]

    def test_part_dir_without_manifest_reruns(self, ray_session, tmp_path, index):
        """A crash between the rename and the manifest write leaves a
        part=<stem> directory without a manifest: the shard reruns and
        none of the stale files survive."""
        from geotile.checkpoint import manifest_path, read_manifests, run_checkpointed
        from geotile.synth import make_image_table

        inp = make_image_table(2000, tmp_path / "img", rows_per_file=1000)
        out = tmp_path / "out"
        run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        stem = read_manifests(out)[0]["partition"]
        manifest_path(out, stem).unlink()
        stale = sorted((out / f"part={stem}").glob("*.parquet"))
        (out / f"part={stem}" / "stale.parquet").write_bytes(stale[0].read_bytes())
        s = run_checkpointed(inp, out, self._pipeline(index), columns=JOIN_COLUMNS)
        assert s["partitions_run"] == 1 and s["partitions_skipped"] == 1
        names = {f.name for f in (out / f"part={stem}").iterdir()}
        assert not names & ({"stale.parquet"} | {f.name for f in stale})
        assert len(self._part_rows(out, stem)) == read_manifests(out)[0]["output_rows"] > 0


def _knn_brute_force(routes, lon, lat, k):
    """(route_ids, dist_m) per row, (n, k): distance to every route part
    with points_to_polyline_distance, stable-sorted per row."""
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON

    mx, my = meter_frame(_ANCHOR_LAT)
    px, py = (lon - _ANCHOR_LON) * mx, (lat - _ANCHOR_LAT) * my
    rids = sorted(routes)
    D = np.stack([
        np.minimum.reduce([
            points_to_polyline_distance(
                px, py, np.column_stack([(p[:, 0] - _ANCHOR_LON) * mx,
                                         (p[:, 1] - _ANCHOR_LAT) * my]))
            for p in routes[r]])
        for r in rids], axis=1)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.array(rids)[order], np.take_along_axis(D, order, axis=1)


def _disc_routes(n):
    """n synthetic station discs, each ring used as a kNN polyline."""
    from geotile.synth import synthetic_route_polygons

    return {rid: [plist[0][0]] for rid, plist in synthetic_route_polygons(n).items()}


class TestKnnRingPath:
    """kNN against many routes (the class predates the bound descent,
    which replaced a per-cell ring walk)."""

    def test_ring_path_matches_exact_scan_256_routes(self, ray_session):
        """At 256 routes KnnStage's output must equal a brute-force
        distance to every route (ids and ranks equal, distances
        bit-equal)."""
        import ray

        from geotile.ops.join import KnnStage
        from geotile.synth import make_image_batch

        routes = _disc_routes(256)
        batch = make_image_batch(np.arange(3000)).select(JOIN_COLUMNS)
        stage = KnnStage(ray.put(routes), k=3)
        got = stage(batch).to_pandas()
        want_ids, want_d = _knn_brute_force(
            routes, batch["lon"].to_numpy(), batch["lat"].to_numpy(), 3)
        assert got["image_id"].tolist() == np.repeat(batch["image_id"].to_numpy(), 3).tolist()
        assert (got["rank"].to_numpy() == np.tile(np.arange(3), 3000)).all()
        assert got["route_id"].tolist() == want_ids.ravel().tolist()
        assert (got["dist_m"].to_numpy() == want_d.ravel()).all()

    def test_nan_route_vertex(self, ray_session):
        """A route with a NaN vertex stays out of the descent, and the
        output keeps the brute-force NaN pattern and finite distances."""
        import ray

        from geotile.ops.join import KnnStage
        from geotile.synth import make_image_batch

        routes = _disc_routes(40)
        bad = routes["R005"][0].copy()
        bad[3] = np.nan
        routes["R005"] = [bad]
        batch = make_image_batch(np.arange(1000)).select(JOIN_COLUMNS)
        stage = KnnStage(ray.put(routes), k=3)
        got = stage(batch).to_pandas()
        want_ids, want_d = _knn_brute_force(
            routes, batch["lon"].to_numpy(), batch["lat"].to_numpy(), 3)
        d = got["dist_m"].to_numpy()
        assert np.array_equal(np.isnan(d), np.isnan(want_d.ravel()))
        f = ~np.isnan(d)
        assert np.array_equal(d[f], want_d.ravel()[f])
        assert (got["route_id"].to_numpy()[f] == want_ids.ravel()[f]).all()

    def test_far_rows_match_brute_force(self):
        """Valid rows half a world from every route finish and get the
        brute-force answer (the per-cell ring walk used to expand ring
        shells out to them one at a time)."""
        from geotile.ops.join import KnnStage

        routes = _disc_routes(40)
        clon, clat = tile_centers(np.arange(20).astype(np.uint64))
        lon = np.concatenate([[179.5], clon, [-179.5]])
        lat = np.concatenate([[0.5], clat, [-89.5]])
        got, want_ids, want_d = _knn_vs_brute(KnnStage(routes, k=3), routes, lon, lat, 3)
        assert got["route_id"].tolist() == want_ids.ravel().tolist()
        assert (got["dist_m"].to_numpy() == want_d.ravel()).all()


def _lonlat_batch(lon, lat):
    import pyarrow as pa

    return pa.table({"image_id": [f"img-{i:08d}" for i in range(len(lon))],
                     "caption": ["c"] * len(lon),
                     "lon": pa.array(lon, pa.float64()), "lat": pa.array(lat, pa.float64())})


def _knn_vs_brute(stage, routes, lon, lat, k):
    """(stage output as pandas, brute-force ids, brute-force dist_m) for
    rows at ``lon``/``lat``; asserts the stage emitted k rows per row
    in row order."""
    got = stage(_lonlat_batch(lon, lat)).to_pandas()
    want_ids, want_d = _knn_brute_force(routes, np.asarray(lon), np.asarray(lat), k)
    assert got["image_id"].tolist() == [f"img-{i:08d}" for i in range(len(lon)) for _ in range(k)]
    assert (got["rank"].to_numpy() == np.tile(np.arange(k), len(lon))).all()
    return got, want_ids, want_d


class TestKnnDescent:
    """Edge cases of the bound descent:
    every output is bit-equal to ``_knn_brute_force``, whose stable sort
    breaks equal distances by the lowest route index."""

    def _check(self, routes, lon, lat, k=3):
        from geotile.ops.join import KnnStage

        got, want_ids, want_d = _knn_vs_brute(KnnStage(routes, k=k), routes, lon, lat, k)
        assert got["route_id"].tolist() == want_ids.ravel().tolist()
        d = got["dist_m"].to_numpy()
        assert np.array_equal(d, want_d.ravel(), equal_nan=True)
        return got

    def test_mirrored_routes_tie_at_rank_k(self):
        """Rows on the anchor parallel, between two pairs of routes
        mirrored about it: each pair ties exactly (ranks 1-2 and 3-4), so
        rank k=3 must go to the lower route index. Two identical routes
        through some of the rows tie at distance 0."""
        from geotile.ops.join import _ANCHOR_LAT

        d = 2.0 ** -10  # exact in degrees: both mirrored offsets round alike
        line = np.linspace(-100.2, -99.8, 9)

        def parallel(dlat):
            return [np.column_stack([line, np.full(9, _ANCHOR_LAT + dlat)])]

        routes = _disc_routes(40)
        # ids sort the upper route first in one pair, last in the other
        routes.update({"M1": parallel(d / 2), "M0": parallel(-d / 2),
                       "N0": parallel(d), "N1": parallel(-d)})
        dup = np.column_stack([np.linspace(-90.0, -89.9, 5), np.full(5, 20.0)])
        routes.update({"D0": [dup], "D1": [dup.copy()]})
        lon = np.concatenate([np.linspace(-100.15, -99.85, 25), dup[:, 0]])
        lat = np.concatenate([np.full(25, _ANCHOR_LAT), dup[:, 1]])
        got = self._check(routes, lon, lat, k=3)
        ranks = got["route_id"].to_numpy().reshape(-1, 3)
        assert (ranks[:25] == ["M0", "M1", "N0"]).all()
        assert (ranks[25:, :2] == ["D0", "D1"]).all()
        assert (got["dist_m"].to_numpy().reshape(-1, 3)[25:, :2] == 0.0).all()

    def test_single_point_parts(self):
        """Single-point parts take the hypot distance: routes made of one
        point, and points added to polyline routes, one on a row."""
        routes = _disc_routes(40)
        clon, clat = tile_centers(np.arange(200).astype(np.uint64))
        routes["P0"] = [np.array([[clon[7], clat[7]]])]
        routes["P1"] = [np.array([[clon[50] + 0.001, clat[50]]]),
                        np.array([[clon[90], clat[90] - 0.002]])]
        routes["R003"] = routes["R003"] + [np.array([[clon[120], clat[120] + 0.0005]])]
        self._check(routes, clon, clat)

    def test_k_above_finite_route_count(self):
        """37 of 40 routes have a non-finite vertex. NaN ones fill the
        last ranks in route order; one whose only non-finite part is an
        infinite single point keeps its finite distance."""
        routes = _disc_routes(40)
        for rid in sorted(routes)[:37]:
            bad = routes[rid][0].copy()
            bad[2] = np.nan
            routes[rid] = [bad]
        rid = sorted(routes)[10]
        routes[rid] = [_disc_routes(40)[rid][0], np.array([[np.inf, 37.5]])]
        clon, clat = tile_centers(np.arange(100).astype(np.uint64))
        got = self._check(routes, clon, clat, k=5)
        d = got["dist_m"].to_numpy().reshape(-1, 5)
        assert np.isfinite(d[:, :4]).all() and np.isnan(d[:, 4]).all()

    def test_rows_in_one_finest_cell(self):
        """Every row in one res-17 cell (the finest descent level)."""
        from geotile.geom import cells
        from geotile.ops.join import KNN_LEVELS

        clon, clat = tile_centers(np.arange(1).astype(np.uint64))
        w, s, e, n = (float(v[0]) for v in cells.cell_bounds(
            cells.encode(clon, clat, KNN_LEVELS[-1])))
        rng = np.random.default_rng(5)
        lon = np.append(rng.uniform(w, e - 1e-9, 300), w)  # and the corner
        lat = np.append(rng.uniform(s, n - 1e-9, 300), s)
        assert len(np.unique(cells.encode(lon, lat, KNN_LEVELS[-1]))) == 1
        self._check(_disc_routes(40), lon, lat)

    def test_no_valid_rows(self):
        from geotile.ops.join import KnnStage

        lon = np.array([np.nan, 500.0, -np.inf])
        lat = np.array([0.0, 0.0, 0.0])
        got = KnnStage(_disc_routes(40), k=3)(_lonlat_batch(lon, lat))
        assert got.num_rows == 0
        assert got.column_names == ["image_id", "rank", "route_id", "dist_m"]


class TestStreamedDissolve:
    def test_streamed_rings_match_mask_trace(self, ray_session, image_table_dir):
        """The distributed (per-parent window, perimeter-only shuffle)
        marching squares must reproduce the in-memory mask trace:
        same polygon count, ring order, vertex counts, and vertices."""
        from geotile.geom import cells as cellmod
        from geotile.geom.raster import cells_to_mask, mask_to_polygons
        from battery.ops.dissolve import dissolve_tile_footprints

        ds = read_image_table(str(image_table_dir), columns=JOIN_COLUMNS)
        covered, polys = dissolve_tile_footprints(ds)
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

    def test_invalid_rows_raise_no_warning(self):
        """NaN and ±inf lon/lat encode to a defined edge cell without a
        cast RuntimeWarning, so the join drops them under -W error too."""
        import warnings

        from geotile.geom import cells
        from geotile.ops.join import SpatialJoinStage

        box = np.array([[179.0, 0.0], [180.0, 0.0], [180.0, 1.0], [179.0, 1.0], [179.0, 0.0]])
        index = build_route_index({"box": [(box, [])]}, res=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cells.encode(np.array([np.nan, np.inf, -np.inf, 1.0]),
                               np.array([np.nan, -np.inf, 1.0, np.inf]), 18)
            out = SpatialJoinStage(index)(self._batch())
        want = cells.encode(np.array([180.0, 180.0, -180.0, 1.0]),
                            np.array([90.0, -90.0, 1.0, 90.0]), 18)
        assert np.array_equal(got, want)
        assert out["image_id"].to_pylist() == ["img-00000000"]

    @pytest.mark.parametrize("n_routes", [4, 40])
    def test_knn_drops_invalid_rows(self, n_routes):
        """Invalid rows get no neighbours, at 4 and at 40 routes; the
        valid rows between them get the brute-force answer. The two valid
        rows of LON/LAT sit half a world from the corridor and are left
        out here; ``TestKnnRingPath::test_far_rows_match_brute_force``
        covers such rows."""
        import pyarrow as pa

        from geotile.ops.join import KnnStage

        routes = _disc_routes(n_routes)
        vlon, vlat = tile_centers(np.arange(30).astype(np.uint64))
        bad_lon, bad_lat = self.LON[2:], self.LAT[2:]
        lon = np.concatenate([vlon[:10], bad_lon[:4], vlon[10:], bad_lon[4:]])
        lat = np.concatenate([vlat[:10], bad_lat[:4], vlat[10:], bad_lat[4:]])
        ids = [f"img-{i:08d}" for i in range(10)] + [f"bad-{i}" for i in range(4)] \
            + [f"img-{i:08d}" for i in range(10, 30)] + [f"bad-{i}" for i in range(4, 7)]
        batch = pa.table({"image_id": ids, "caption": ["c"] * len(ids),
                          "lon": pa.array(lon, pa.float64()), "lat": pa.array(lat, pa.float64())})
        stage = KnnStage(routes, k=3)
        got = stage(batch).to_pandas()
        want_ids, want_d = _knn_brute_force(routes, vlon, vlat, 3)
        assert got["image_id"].tolist() == [f"img-{i:08d}" for i in range(30) for _ in range(3)]
        assert got["route_id"].tolist() == want_ids.ravel().tolist()
        assert (got["dist_m"].to_numpy() == want_d.ravel()).all()


class TestEngineImports:
    def test_join_stages_never_import_synth(self):
        """The join-module stages read tile position from the row: on a
        hand-built table with lon/lat, none of them (FC assembly in a Ray
        job included) imports the synthetic-data generator or the
        battery's string hashing."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "import numpy as np\n"
            "import pyarrow as pa\n"
            "import geotile.ops.join as J\n"
            "from battery.ops.dissolve import _footprint_cells\n"
            "from geotile.ops.tiles import georef_batch\n"
            "ids = ['img-00000001', 'img-00000002', 'img-00000003']\n"
            "t = pa.table({'image_id': ids, 'caption': ['x', 'y', 'z'],\n"
            "              'lon': [2.35, 2.36, 2.5], 'lat': [48.85, 48.86, 48.0]})\n"
            "sq = np.array([[2.3, 48.8], [2.4, 48.8], [2.4, 48.9], [2.3, 48.9], [2.3, 48.8]])\n"
            "assert georef_batch(t, 18).num_rows == 3\n"
            "joined = J.SpatialJoinStage(J.build_route_index({'R': [(sq, [])]}))(t)\n"
            "assert joined['image_id'].to_pylist() == ids[:2]\n"
            "assert J._partial_cell_counts(t)['n'].to_pylist() != []\n"
            "assert _footprint_cells(t, 18).num_rows >= 3\n"
            "assert J._route_fcs(joined).num_rows == 1\n"
            "import ray, ray.data as rd\n"
            "ray.init(address='local', num_cpus=1, include_dashboard=False, logging_level='ERROR')\n"
            "assert len(J.assemble_route_fcs(rd.from_arrow(joined)).take_all()) == 1\n"
            "ray.shutdown()\n"
            "for m in ('geotile.synth', 'battery.ops.hashing'):\n"
            "    assert m not in sys.modules, f'a join stage imported {m}'\n"
        )
        root = Path(__file__).resolve().parents[1]
        res = subprocess.run([sys.executable, "-c", script], cwd=root,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr

    def test_rows_without_lonlat_raise(self):
        import pyarrow as pa

        from geotile.ops.join import KnnStage, _partial_cell_counts
        from geotile.ops.tiles import georef_batch

        t = pa.table({"image_id": ["img-00000001"], "caption": ["c"]})
        for run in (lambda: georef_batch(t, 18), lambda: _partial_cell_counts(t),
                    lambda: KnnStage({"R": [np.zeros((2, 2))]})(t)):
            with pytest.raises(ValueError, match="JOIN_COLUMNS"):
                run()
