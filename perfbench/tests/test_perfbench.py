"""Tests of the benchmark itself: the generator is seeded, the oracles
agree with geotile, and every output check rejects a corrupted output.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402
from perfbench import oracle as orc  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FORMATS,
    GOLDEN_DIR,
    CheckpointIngest,
    GtfsGeojson,
    JoinStream,
    RouteRollup,
    corridor_buffers,
)

SKEW = gen.CorridorSkew(half_width_m=600.0, hot_stop=7, hot_fraction=0.2)


def _tiny_join(seed: int = 5, n: int = 4000):
    """A tiny corridor table, its oracle and geotile's join of it."""
    from geotile.ops.join import SpatialJoinStage, build_route_index

    rng = np.random.default_rng(seed)
    lon, lat = gen.corridor_points(rng, n, SKEW)
    table = gen.image_rows(rng, 0, lon, lat).select(["image_id", "caption", "lon", "lat"])
    polygons = corridor_buffers(ROOT)
    want = orc.join_oracle(np.arange(n), lon, lat, polygons)
    got = SpatialJoinStage(build_route_index(polygons))(table)
    return want, got


def _fp(table: pa.Table, want: orc.JoinOracle) -> list[dict]:
    return orc.pair_fingerprint_batch(table, want.route_ids, want.tie_index).to_pylist()


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    def make(seed):
        rng = np.random.default_rng(seed)
        polygons, lines, centres = gen.metro_network(rng, 6, 4)
        lon, lat = gen.metro_points(rng, 500, centres, 0.5, 0.2)
        clon, clat = gen.corridor_points(rng, 500, SKEW)
        return polygons, lines, gen.image_rows(rng, 0, np.r_[lon, clon], np.r_[lat, clat])

    (p1, l1, t1), (p2, l2, t2), (p3, _, t3) = make(1), make(1), make(2)
    assert t1.equals(t2)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(p1["M000"], p2["M000"]))
    assert all(np.array_equal(l1[k][0], l2[k][0]) for k in l1)
    assert not t1.equals(t3)
    assert not np.array_equal(p1["M000"][0][0], p3["M000"][0][0])


def test_image_rows_follow_input_hint_schema_with_distinct_ids():
    rng = np.random.default_rng(0)
    t = gen.image_rows(rng, 10, np.zeros(3), np.zeros(3))
    assert t.column_names == ["image_id", "bytes", "w", "h", "fmt", "caption", "phash",
                              "lon", "lat"]
    assert t["image_id"].to_pylist() == ["img-00000010", "img-00000011", "img-00000012"]
    assert t.schema.field("bytes").type == pa.binary()


def test_cache_builds_once_and_keeps_two_seeds(tmp_path):
    calls = []

    def build(d):
        calls.append(d)
        (d / "x").write_text("1")

    for seed in (1, 1, 2, 3):
        gen.cached(tmp_path, f"w-{seed}", build)
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w-2", "w-3"]


def test_geometry_round_trips_exactly(tmp_path):
    polygons, lines, _ = gen.metro_network(np.random.default_rng(4), 4, 5)
    gen.save_geometry(tmp_path / "p.json", polygons)
    gen.save_geometry(tmp_path / "l.json", lines)
    back = gen.load_polygons(tmp_path / "p.json")
    assert all(np.array_equal(o, bo) and all(np.array_equal(h, bh) for h, bh in zip(hs, bhs))
               for rid in polygons
               for (o, hs), (bo, bhs) in zip(polygons[rid], back[rid]))
    assert all(np.array_equal(lines[r][0], gen.load_lines(tmp_path / "l.json")[r][0])
               for r in lines)


# ---------------------------------------------------------------------------
# oracles agree with geotile
# ---------------------------------------------------------------------------

def test_points_in_rings_matches_full_ray_cast_with_holes():
    rng = np.random.default_rng(9)
    outer = gen._star_ring(rng, 0.0, 0.0, 1000.0, 30)
    hole = gen._star_ring(rng, 0.0, 0.0, 300.0, 12, inner=True)
    px = rng.uniform(-0.02, 0.02, 5000)
    py = rng.uniform(-0.02, 0.02, 5000)
    inside, tie = orc.points_in_rings(px, py, [outer, hole])
    A, B = orc._ring_edges([outer, hole])
    cross = ((A[:, 1] > py[:, None]) != (B[:, 1] > py[:, None])) & (
        px[:, None] < A[:, 0] + (py[:, None] - A[:, 1]) * (B[:, 0] - A[:, 0]) / (B[:, 1] - A[:, 1]))
    assert np.array_equal(inside, cross.sum(axis=1) % 2 == 1)
    assert 0 < inside.sum() < len(px) and not tie.any()
    _, tie2 = orc.points_in_rings(np.array([outer[0, 0]]), np.array([outer[0, 1]]), [outer])
    assert tie2.all()


def test_join_oracle_agrees_with_geotile_on_tiny_seed():
    want, got = _tiny_join()
    assert len(want.keys) > 100
    assert np.array_equal(np.sort(orc.pair_keys(got, want.route_ids)), want.keys)
    assert orc.check_pairs(_fp(got, want), want) == []


def test_knn_oracle_agrees_with_geotile_ring_path():
    from geotile.ops.join import KnnStage

    rng = np.random.default_rng(3)
    _, lines, centres = gen.metro_network(rng, 34, 4)
    lon, lat = gen.metro_points(rng, 3000, centres, 0.5, 0.2)
    table = gen.image_rows(rng, 0, lon, lat).select(["image_id", "caption", "lon", "lat"])
    stage = KnnStage(lines, k=3)
    assert stage.ring is not None
    out = stage(table)
    sample = np.arange(0, 3000, 7)
    route_ids, D = orc.route_distances(lon[sample], lat[sample], lines)
    rows = orc.knn_sample_batch(out, sample).to_pylist()
    errors, _ = orc.check_knn(rows, 3000, 3, sample, route_ids, D)
    assert errors == []

    # one swapped route id on a sampled row is rejected
    i = int(np.flatnonzero(orc.image_index(out["image_id"]) == sample[0])[0])
    wrong = next(r for r in route_ids if r not in out["route_id"][i:i + 3].to_pylist())
    bad = out.set_column(2, "route_id", pa.array(
        out["route_id"].to_pylist()[:i] + [wrong] + out["route_id"].to_pylist()[i + 1:]))
    errors, _ = orc.check_knn(orc.knn_sample_batch(bad, sample).to_pylist(), 3000, 3, sample,
                              route_ids, D)
    assert errors


# ---------------------------------------------------------------------------
# every check rejects a corrupted output
# ---------------------------------------------------------------------------

def test_pair_check_rejects_dropped_row():
    want, got = _tiny_join()
    dropped = pa.concat_tables([got.slice(0, 17), got.slice(18)])
    assert orc.check_pairs(_fp(dropped, want), want)


def test_pair_check_rejects_swapped_route_id():
    want, got = _tiny_join()
    rids = got["route_id"].to_pylist()
    rids[17] = "L2" if rids[17] == "L1" else "L1"
    swapped = got.set_column(got.column_names.index("route_id"), "route_id", pa.array(rids))
    assert orc.check_pairs(_fp(swapped, want), want)


def test_pair_check_rejects_duplicated_row():
    want, got = _tiny_join()
    assert orc.check_pairs(_fp(pa.concat_tables([got, got.slice(3, 1)]), want), want)


def _fc_rows(want: orc.JoinOracle) -> list[dict]:
    rows = []
    for ri, rid in enumerate(want.route_ids):
        idx = want.keys[want.keys % want.mult == ri] // want.mult
        feats = [{"type": "Feature", "properties": {"image_id": f"img-{i:08d}"},
                  "geometry": None} for i in idx]
        rows.append({"route_id": rid, "n_tiles": len(idx), "truncated": False,
                     "fc_json": json.dumps({"type": "FeatureCollection", "features": feats})})
    return rows


def _fc_check(rows, want):
    return orc.check_route_fcs(orc.fc_summary_batch(pa.Table.from_pylist(rows)).to_pylist(), want)


def test_route_fc_check_accepts_exact_and_rejects_corrupted():
    want, _ = _tiny_join()
    rows = _fc_rows(want)
    assert _fc_check(rows, want) == []
    changed_id = [dict(r) for r in rows]
    changed_id[0]["fc_json"] = changed_id[0]["fc_json"].replace("img-0", "img-9", 1)
    assert _fc_check(changed_id, want)
    broken = [dict(r) for r in rows]
    broken[1]["fc_json"] = broken[1]["fc_json"][:-1]
    assert _fc_check(broken, want)
    miscount = [dict(r) for r in rows]
    miscount[0]["n_tiles"] += 1
    assert _fc_check(miscount, want)
    assert _fc_check(rows[1:], want)


def test_cell_count_check_rejects_lost_row():
    rows = [{"cell": 1, "n_tiles": 5}, {"cell": 2, "n_tiles": 7}]
    assert orc.check_cell_counts(rows, 12) == []
    assert orc.check_cell_counts(rows, 13)
    assert orc.check_cell_counts(rows + [{"cell": 2, "n_tiles": 1}], 13)


def test_golden_file_check_rejects_one_changed_byte():
    want = {f: (ROOT / GOLDEN_DIR / f"{f}.geojson").read_bytes() for f in FORMATS}
    assert orc.check_files_equal(dict(want), want) == []
    got = dict(want)
    b = bytearray(got["lines"])
    b[len(b) // 2] ^= 1
    got["lines"] = bytes(b)
    assert orc.check_files_equal(got, want) == ["lines differs from golden"]
    assert orc.check_files_equal({k: v for k, v in want.items() if k != "convex"}, want)


# ---------------------------------------------------------------------------
# every workload passes its checks on a tiny seed, end to end through Ray
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ray_session():
    import logging
    import os

    import ray
    import ray.data

    # workers import geotile and perfbench by module path
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT)] + ([old] if old else []))
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 * 1024 * 1024)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old


@pytest.mark.parametrize("cls,sizes", [
    (JoinStream, {"N_ROWS": 6000, "PART_ROWS": 2000}),
    (RouteRollup, {"N_ROWS": 4000, "PART_ROWS": 1000, "N_SAMPLE": 200}),
    (CheckpointIngest, {"N_SHARDS": 3, "SHARD_ROWS": 1000}),
    (GtfsGeojson, {}),
])
def test_workload_pass_is_correct_on_tiny_seed(ray_session, tmp_path, monkeypatch, cls, sizes):
    from perfbench.trace import Tracer

    for k, v in sizes.items():
        monkeypatch.setattr(cls, k, v)
    tracer = Tracer("test")
    tracer.enabled = True
    w = cls(ROOT, tmp_path, tracer)
    w.prepare(3)
    w.setup()
    with tracer.span("pass"):
        out = w.run_pass()
    assert w.check(out) == []
    assert all(np.isfinite(v) for v in w.probe().values())
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)


def test_checkpoint_check_rejects_missing_resume_skip(ray_session, tmp_path, monkeypatch):
    from perfbench.trace import Tracer

    monkeypatch.setattr(CheckpointIngest, "N_SHARDS", 2)
    monkeypatch.setattr(CheckpointIngest, "SHARD_ROWS", 500)
    w = CheckpointIngest(ROOT, tmp_path, Tracer("test"))
    w.prepare(4)
    w.setup()
    first, resume, manifests = w.run_pass()
    assert w.check((first, resume, manifests)) == []
    assert w.check((first, dict(resume, partitions_run=1, partitions_skipped=1), manifests))
    short = [dict(m) for m in manifests]
    short[0]["output_rows"] -= 1
    assert w.check((first, resume, short))
    victim = sorted(w.out_dir.glob("part=*/*.parquet"))[0]
    t = pq.read_table(victim)
    pq.write_table(t.slice(1), victim)
    assert w.check((first, resume, manifests))


def test_image_index_rejects_foreign_ids():
    with pytest.raises((ValueError, pa.ArrowInvalid)):
        orc.image_index(pa.array(["tile-1"]))
    assert orc.image_index(pa.array(["img-00000042"])).tolist() == [42]
