"""Round-3c ops: 2-D skyline (Pareto frontier) and CUBE grouping-sets
aggregate — each vs an in-process brute-force reference on adversarial
small data (ties, duplicate points, single-row, empty)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _from_pandas(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def _brute_skyline(p, d):
    """O(n^2) dominance test: keep i iff no j with p[j] >= p[i],
    d[j] <= d[i], strictly better in one."""
    keep = []
    for i in range(len(p)):
        dominated = any(
            p[j] >= p[i] and d[j] <= d[i] and (p[j] > p[i] or d[j] < d[i])
            for j in range(len(p))
        )
        keep.append(not dominated)
    return np.array(keep, dtype=bool)


class TestSkylineMask:
    def test_matches_brute_force_random(self):
        from battery.ops.relational import _skyline_mask

        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(1, 60))
            # small value ranges force heavy (p, d) ties
            p = rng.integers(0, 6, n).astype(np.float64)
            d = rng.integers(0, 6, n).astype(np.int64)
            got = _skyline_mask(p, d)
            want = _brute_skyline(p, d)
            np.testing.assert_array_equal(got, want)

    def test_duplicate_points_all_survive(self):
        from battery.ops.relational import _skyline_mask

        p = np.array([5.0, 5.0, 1.0])
        d = np.array([2, 2, 1], dtype=np.int64)
        # the two identical (5, 2) points don't dominate each other;
        # (1, 1) survives on the d axis
        np.testing.assert_array_equal(
            _skyline_mask(p, d), np.array([True, True, True])
        )

    def test_equal_price_worse_date_dominated(self):
        from battery.ops.relational import _skyline_mask

        p = np.array([5.0, 5.0])
        d = np.array([1, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            _skyline_mask(p, d), np.array([True, False])
        )

    def test_higher_price_equal_date_dominates(self):
        from battery.ops.relational import _skyline_mask

        p = np.array([5.0, 4.0])
        d = np.array([1, 1], dtype=np.int64)
        np.testing.assert_array_equal(
            _skyline_mask(p, d), np.array([True, False])
        )

    def test_empty_and_single(self):
        from battery.ops.relational import _skyline_mask

        assert _skyline_mask(np.array([]), np.array([], dtype=np.int64)).size == 0
        np.testing.assert_array_equal(
            _skyline_mask(np.array([3.0]), np.array([7], dtype=np.int64)),
            np.array([True]),
        )


class TestSkylineDistributed:
    def test_matches_brute_force_across_blocks(self, ray_session):
        from battery.ops.relational import skyline

        rng = np.random.default_rng(23)
        n = 500
        df = pd.DataFrame(
            {
                "k": np.arange(n, dtype=np.int64),
                "p": rng.integers(0, 40, n).astype(np.float64),
                "d": rng.integers(0, 40, n).astype(np.int64),
            }
        )
        ds = _from_pandas(df).repartition(7)  # local pruning per block
        got = skyline(ds, "p", "d").to_pandas().sort_values("k")
        want = df[_brute_skyline(df["p"].to_numpy(), df["d"].to_numpy())]
        np.testing.assert_array_equal(
            got["k"].to_numpy(), want["k"].to_numpy()
        )


class TestCubeAggregate:
    def test_matches_pandas_cube(self, ray_session):
        from battery.ops.relational import cube_aggregate

        rng = np.random.default_rng(5)
        n = 400
        df = pd.DataFrame(
            {
                "a": rng.choice(["x", "y", "z"], n),
                "b": rng.choice(["u", "v"], n),
                "val": rng.integers(0, 100, n).astype(np.int64),
            }
        )
        got = (
            cube_aggregate(_from_pandas(df).repartition(5), ["a", "b"], "val")
            .to_pandas()
            .sort_values(["gid", "a", "b"])
            .reset_index(drop=True)
        )
        # brute force: one pandas groupby per grouping set
        frames = []
        for gid, kept in [(0, ["a", "b"]), (1, ["b"]), (2, ["a"]), (3, [])]:
            if kept:
                g = df.groupby(kept, as_index=False).agg(
                    n=("val", "size"), sum_val=("val", "sum")
                )
            else:
                g = pd.DataFrame({"n": [n], "sum_val": [df["val"].sum()]})
            for k in ["a", "b"]:
                if k not in kept:
                    g[k] = "*"
            g["gid"] = gid
            frames.append(g[["gid", "a", "b", "n", "sum_val"]])
        want = (
            pd.concat(frames)
            .sort_values(["gid", "a", "b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"n": np.int64, "sum_val": np.int64}), want
        )

    def test_empty_input(self, ray_session):
        from battery.ops.relational import cube_aggregate

        df = pd.DataFrame(
            {"a": pd.Series(dtype=str), "b": pd.Series(dtype=str),
             "val": pd.Series(dtype=np.int64)}
        )
        out = cube_aggregate(_from_pandas(df), ["a", "b"], "val").to_pandas()
        # documented divergence from SQL: Ray never schedules empty
        # blocks, so an empty input yields 0 rows (SQL CUBE would emit
        # one n=0 grand-total row); what matters is no crash and no
        # phantom counts
        assert len(out) == 0 or (out["n"] == 0).all()


def _km_brute(ids, V, k, iters):
    """Scalar/numpy replay of kmeans_lloyd's exact semantics: trunc
    lattice, k-smallest-id init, argmin ties -> smallest label, floor
    integer means, empty clusters drop (keeping original labels)."""
    ids = np.asarray(ids, dtype=np.int64)
    Q = np.trunc(np.asarray(V, dtype=np.float64) * 10000.0)
    seed = np.argsort(ids, kind="stable")[:k]
    seed = seed[np.argsort(ids[seed], kind="stable")]
    C = Q[seed].copy()
    labels = np.arange(len(C), dtype=np.int64)
    for _ in range(iters - 1):
        D = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        a = D.argmin(axis=1)
        newC, newL = [], []
        for j in range(len(C)):
            m = a == j
            if m.any():
                newC.append(Q[m].sum(0).astype(np.int64) // int(m.sum()))
                newL.append(labels[j])
        C = np.asarray(newC, dtype=np.float64)
        labels = np.asarray(newL, dtype=np.int64)
    D = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    a = D.argmin(axis=1)
    return {
        int(i): (int(labels[ai]), int(D[r, ai]))
        for r, (i, ai) in enumerate(zip(ids, a))
    }


class TestKmeansLloyd:
    def _run(self, ids, V, **kw):
        import ray.data as rd
        from battery.ops.ann import kmeans_lloyd

        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(
                        [list(map(float, v)) for v in V], pa.list_(pa.float32())
                    ),
                }
            )
        ).repartition(6)
        out = kmeans_lloyd(ds, **kw).to_pandas()
        return {
            int(r.vec_id): (int(r.cluster), int(r.dist))
            for r in out.itertuples()
        }

    def test_matches_brute_force_random(self, ray_session):
        rng = np.random.default_rng(17)
        n, d = 300, 8
        V = rng.normal(0, 0.3, (n, d)).astype(np.float32)
        ids = rng.permutation(n).astype(np.int64) * 7 + 3
        got = self._run(ids, V, k=6, iters=3)
        assert got == _km_brute(ids, V, 6, 3)

    def test_empty_cluster_drops_with_original_labels(self, ray_session):
        # seed 3 duplicates seed 1 -> every tie resolves to label 1,
        # cluster 3 goes empty after round 1 and must vanish while
        # clusters keep their ORIGINAL indices
        V = np.array(
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0],
             [0.1, 0.1], [1.1, 0.9], [2.1, 1.9], [0.2, 0.0]],
            dtype=np.float32,
        )
        ids = np.arange(8, dtype=np.int64)
        got = self._run(ids, V, k=4, iters=2)
        brute = _km_brute(ids, V, 4, 2)
        assert got == brute
        assert 3 not in {c for c, _ in got.values()}
        assert {c for c, _ in got.values()} <= {0, 1, 2}

    def test_single_iteration_is_seed_assignment(self, ray_session):
        rng = np.random.default_rng(9)
        V = rng.normal(0, 0.2, (50, 4)).astype(np.float32)
        ids = np.arange(100, 150, dtype=np.int64)
        got = self._run(ids, V, k=5, iters=1)
        assert got == _km_brute(ids, V, 5, 1)


class TestLookupJoin:
    def _data(self):
        rng = np.random.default_rng(41)
        fact = pd.DataFrame(
            {
                "fk": rng.integers(0, 50, 400).astype(np.int64),
                "x": rng.integers(0, 1000, 400).astype(np.int64),
            }
        )
        dim = pd.DataFrame(
            {
                "dk": np.arange(0, 40, dtype=np.int64),  # keys 40-49 miss
                "val": [f"v{i}" for i in range(40)],
            }
        )
        want = fact.merge(dim, left_on="fk", right_on="dk")[
            ["fk", "x", "val"]
        ].sort_values(["fk", "x", "val"]).reset_index(drop=True)
        return fact, dim, want

    @pytest.mark.parametrize("max_broadcast", [1 << 20, 1])  # both paths
    def test_matches_pandas_merge(self, ray_session, max_broadcast):
        from battery.ops.relational import lookup_join

        fact, dim, want = self._data()
        got = (
            lookup_join(
                _from_pandas(fact).repartition(5), "fk",
                _from_pandas(dim), "dk", "val",
                max_broadcast=max_broadcast,
            )
            .to_pandas()[["fk", "x", "val"]]
            # bucketed fallback returns ints as float64 (pandas-merge
            # null-padding convention — callers cast back, as here)
            .astype({"fk": np.int64, "x": np.int64})
            .sort_values(["fk", "x", "val"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

    def test_empty_dim_drops_everything(self, ray_session):
        from battery.ops.relational import lookup_join

        fact, _, _ = self._data()
        dim = pd.DataFrame(
            {"dk": pd.Series(dtype=np.int64), "val": pd.Series(dtype=str)}
        )
        out = lookup_join(
            _from_pandas(fact), "fk", _from_pandas(dim), "dk", "val"
        ).to_pandas()
        assert len(out) == 0
