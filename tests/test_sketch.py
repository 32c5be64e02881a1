"""HLL sketch accuracy + mergeability vs exact distinct counts."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from battery.ops.sketch import HLL, hll_distinct
from geotile.synth import splitmix64


class TestHll:
    @pytest.mark.parametrize("n", [100, 10_000, 200_000])
    def test_accuracy(self, n):
        h = splitmix64(np.arange(n, dtype=np.uint64))
        est = HLL(p=12).add_hashes(h).estimate()
        rel = abs(est - n) / n
        assert rel < 0.05, f"n={n} est={est:.0f} rel={rel:.3f}"

    def test_merge_equals_union(self):
        a = splitmix64(np.arange(0, 50_000, dtype=np.uint64))
        b = splitmix64(np.arange(30_000, 80_000, dtype=np.uint64))
        merged = HLL(12).add_hashes(a).merge(HLL(12).add_hashes(b))
        direct = HLL(12).add_hashes(np.concatenate([a, b]))
        assert (merged.registers == direct.registers).all()
        assert abs(merged.estimate() - 80_000) / 80_000 < 0.05

    def test_misra_gries_bounds(self):
        from battery.ops.sketch import MisraGries

        rng = np.random.default_rng(5)
        # zipf-ish: heavy hitters + uniform tail
        vals = np.concatenate([
            np.repeat(np.arange(5), 2000),        # 5 heavy items × 2000
            rng.integers(100, 10_000, 5_000),     # tail
        ])
        rng.shuffle(vals)
        k = 64
        sk = MisraGries(k)
        for chunk in np.array_split(vals, 7):
            sk.merge(MisraGries(k).add(chunk))
        top = dict(sk.topk(5))
        n = len(vals)
        for item in range(5):
            assert item in top
            assert 2000 - n / k <= top[item] <= 2000

    def test_mg_distributed(self, ray_session):
        from battery.ops.sketch import mg_topk

        ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=["event_type"])
        top = mg_topk(ds, "event_type", k=16, top=3)
        exact = (
            rd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=["event_type"])
            .to_pandas()["event_type"].value_counts()
        )
        assert top[0][0] == exact.index[0]

    def test_distributed_distinct_users(self, ray_session):
        ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=["user_id"])
        exact = len(set(r["user_id"] for r in ds.take_all()))
        est = hll_distinct(ds, "user_id")
        assert abs(est - exact) / exact < 0.1


class TestCountMin:
    def test_vectorized_matches_scalar_replay(self, ray_session):
        import ray.data as rd
        from battery.oracle_ref import cm_estimates_ref
        from battery.ops.sketch import cm_estimate, cm_sketch

        rng = np.random.default_rng(13)
        # heavy skew so collisions actually occur at w=64
        vals = np.concatenate(
            [rng.zipf(1.5, 3000) % 500, np.full(500, 7)]
        ).astype(np.int64)
        ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(6)
        grid = cm_sketch(ds, "v", w=64, d=4)
        ids = np.unique(vals)
        est = cm_estimate(grid, ids)
        ref = cm_estimates_ref(vals.tolist(), ids.tolist(), w=64, d=4)
        assert {int(i): int(e) for i, e in zip(ids, est)} == ref

    def test_never_underestimates(self, ray_session):
        import ray.data as rd
        from battery.ops.sketch import cm_estimate, cm_sketch

        rng = np.random.default_rng(5)
        vals = rng.integers(0, 200, 4000).astype(np.int64)
        ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(4)
        grid = cm_sketch(ds, "v", w=32, d=3)  # tiny w forces collisions
        ids, true = np.unique(vals, return_counts=True)
        est = cm_estimate(grid, ids)
        assert (est >= true).all()
        assert grid.sum() == 3 * len(vals)  # every value lands d times
