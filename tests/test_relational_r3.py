"""Round-3 ops: as-of join, exact n-gram Jaccard join, exact quantiles —
each vs an in-process brute-force reference on adversarial small data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _from_pandas(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


class TestAsofJoin:
    def _brute(self, left, right, key, ts, allow_eq):
        rows = []
        for _, lr in left.iterrows():
            cand = right[(right[key] == lr[key])]
            cand = (
                cand[cand[ts] <= lr[ts]] if allow_eq else cand[cand[ts] < lr[ts]]
            )
            if len(cand):
                best = cand.sort_values(ts, kind="stable").iloc[-1]
                rows.append((lr["lid"], best["rid"]))
            else:
                rows.append((lr["lid"], None))
        return sorted(rows, key=lambda x: x[0])

    @pytest.mark.parametrize("allow_eq", [False, True])
    def test_matches_brute_force(self, ray_session, allow_eq):
        from battery.ops.relational import asof_join

        rng = np.random.default_rng(7)
        n_l, n_r = 400, 300
        left = pd.DataFrame(
            {
                "lid": np.arange(n_l, dtype=np.int64),
                "user_id": rng.integers(0, 20, n_l).astype(np.int64),
                "ts": rng.integers(0, 50, n_l).astype(np.int64),  # many ties
            }
        )
        right = pd.DataFrame(
            {
                "rid": np.arange(n_r, dtype=np.int64),
                "user_id": rng.integers(0, 25, n_r).astype(np.int64),  # some keys absent on left
                "ts": rng.integers(0, 50, n_r).astype(np.int64),
            }
        )
        # right-side ts ties within a key: backward asof picks the LAST in
        # sort order; make the brute force use the same stable-sort rule.
        j = asof_join(
            _from_pandas(left).repartition(5),
            _from_pandas(right).repartition(4),
            key="user_id",
            ts="ts",
            n_buckets=8,
            allow_exact_matches=allow_eq,
        ).to_pandas()
        got = sorted(
            (
                int(r["lid"]),
                None if pd.isna(r["rid_r"]) else int(r["rid_r"]),
            )
            for _, r in j.iterrows()
        )
        assert got == self._brute(left, right, "user_id", "ts", allow_eq)

    def test_empty_right(self, ray_session):
        from battery.ops.relational import asof_join

        left = pd.DataFrame(
            {"lid": [1, 2], "user_id": [0, 1], "ts": [5, 6]}
        ).astype(np.int64)
        right = pd.DataFrame(
            {"rid": [9], "user_id": [99], "ts": [1]}
        ).astype(np.int64)
        j = asof_join(
            _from_pandas(left), _from_pandas(right), key="user_id", ts="ts", n_buckets=4
        ).to_pandas()
        assert len(j) == 2
        assert j["rid_r"].isna().all()


class TestBandJoin:
    def test_matches_brute_force(self, ray_session):
        from battery.ops.relational import band_join

        rng = np.random.default_rng(23)
        n_l, n_r, band = 200, 300, 10
        left = pd.DataFrame(
            {
                "lid": np.arange(n_l, dtype=np.int64),
                "user_id": rng.integers(0, 12, n_l).astype(np.int64),
                "ts": pd.to_datetime(
                    rng.integers(0, 60, n_l), unit="us"
                ),  # dense ties
            }
        )
        right = pd.DataFrame(
            {
                "rid": np.arange(n_r, dtype=np.int64),
                "user_id": rng.integers(0, 15, n_r).astype(np.int64),
                "ts": pd.to_datetime(rng.integers(0, 60, n_r), unit="us"),
            }
        )
        got = band_join(
            _from_pandas(left).repartition(5),
            _from_pandas(right).repartition(3),
            key="user_id",
            ts="ts",
            max_delta_us=band,
            n_buckets=8,
        ).to_pandas()
        got_pairs = sorted(zip(got.lid.astype(int), got.rid_r.astype(int)))
        exp = []
        for _, lr in left.iterrows():
            lt = lr["ts"].value // 1000  # ns → us
            for _, rr in right[right.user_id == lr["user_id"]].iterrows():
                rt = rr["ts"].value // 1000
                if 0 < rt - lt <= band:
                    exp.append((int(lr["lid"]), int(rr["rid"])))
        assert got_pairs == sorted(exp) and len(exp) > 50

    def test_no_matches(self, ray_session):
        from battery.ops.relational import band_join

        left = pd.DataFrame(
            {"lid": [1], "user_id": [0],
             "ts": pd.to_datetime([100], unit="us")}
        )
        right = pd.DataFrame(
            {"rid": [2], "user_id": [0],
             "ts": pd.to_datetime([90], unit="us")}  # earlier → no match
        )
        got = band_join(
            _from_pandas(left), _from_pandas(right),
            key="user_id", ts="ts", max_delta_us=5, n_buckets=2,
        ).to_pandas()
        assert len(got) == 0


class TestNgramJaccard:
    def _brute(self, texts, k, tau):
        def sh(t):
            w = t.split()
            return {tuple(w[i : i + k]) for i in range(len(w) - k + 1)}

        sets = {i: sh(t) for i, t in texts.items()}
        out = []
        for a in sorted(sets):
            for b in sorted(sets):
                if a >= b or not sets[a] or not sets[b]:
                    continue
                inter = len(sets[a] & sets[b])
                uni = len(sets[a] | sets[b])
                if inter / uni >= tau:
                    out.append((a, b, inter, uni))
        return sorted(out)

    def test_matches_brute_force(self, ray_session):
        from battery.ops.dedup import ngram_jaccard_pairs

        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(30)]
        texts = {}
        for i in range(60):
            n = int(rng.integers(2, 25))  # includes <k-token docs (no shingles)
            texts[i] = " ".join(rng.choice(vocab, n))
        # planted near-dups: same text with one word changed
        for i in range(60, 80):
            base = texts[i - 60].split()
            if len(base) > 5:
                base[2] = "CHANGED"
            texts[i] = " ".join(base)
        df = pd.DataFrame(
            {"doc_id": list(texts), "text": [texts[i] for i in texts]}
        )
        df["doc_id"] = df["doc_id"].astype(np.int64)
        got = (
            ngram_jaccard_pairs(
                _from_pandas(df).repartition(4), k=4, tau_num=1, tau_den=2,
                n_buckets=4, pair_buckets=8,
            )
            .to_pandas()
            .sort_values(["d1", "d2"])
        )
        exp = self._brute(texts, 4, 0.5)
        assert (
            list(zip(got.d1, got.d2, got.inter, got.uni)) == exp
        ), f"{len(got)} vs {len(exp)}"
        # jacc_e6 is integer floor division
        assert (got.jacc_e6 == got.inter * 1_000_000 // got.uni).all()

    def test_large_dup_group_uncapped(self, ray_session):
        # one group of 120 identical docs: the EXACT join must emit all
        # C(120,2) pairs at J=1 — any per-shingle pair cap (the LSH
        # paths have MAX_BUCKET; this path deliberately must NOT) would
        # silently drop pairs the SQL oracle returns
        from battery.ops.dedup import ngram_jaccard_pairs

        n = 120
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "text": ["alpha beta gamma delta epsilon zeta"] * n,
            }
        )
        got = ngram_jaccard_pairs(
            _from_pandas(df).repartition(4), k=4, n_buckets=4, pair_buckets=8
        ).to_pandas()
        assert len(got) == n * (n - 1) // 2
        assert (got.jacc_e6 == 1_000_000).all()
        assert (got.d1 < got.d2).all()

    def test_exact_duplicates_and_no_pairs(self, ray_session):
        from battery.ops.dedup import ngram_jaccard_pairs

        df = pd.DataFrame(
            {
                "doc_id": np.arange(4, dtype=np.int64),
                "text": [
                    "a b c d e f",
                    "a b c d e f",  # exact dup of 0 → J=1
                    "x y z q r s",
                    "one two",  # <k tokens → no shingles
                ],
            }
        )
        got = ngram_jaccard_pairs(_from_pandas(df), k=4).to_pandas()
        assert list(zip(got.d1, got.d2, got.jacc_e6)) == [(0, 1, 1_000_000)]


class TestExactQuantiles:
    def _check(self, ray_session, vals, q_pcts=(25, 50, 75, 95, 99), **kw):
        import ray.data as rd

        from battery.ops.quantile import exact_quantiles

        ds = rd.from_arrow(
            pa.table({"value": pa.array(vals, pa.float64())})
        ).repartition(4)
        got = exact_quantiles(ds, "value", q_pcts=q_pcts, **kw).to_pandas()
        s = np.sort(np.asarray(vals, dtype=np.float64))
        exp = {
            p: s[int(np.ceil(p / 100.0 * len(s))) - 1] for p in q_pcts
        }
        assert dict(zip(got.q_pct, got.value)) == exp

    def test_uniform(self, ray_session):
        rng = np.random.default_rng(11)
        self._check(ray_session, rng.normal(size=5000), max_pull=64, n_bins=16)

    def test_mass_point(self, ray_session):
        # a single repeated value heavier than max_pull must resolve
        # without pulling (bin collapses to one double)
        vals = np.concatenate(
            [np.full(3000, 7.25), np.linspace(0, 1, 500), np.linspace(8, 9, 500)]
        )
        self._check(ray_session, vals, max_pull=100, n_bins=8)

    def test_tiny_and_single_value(self, ray_session):
        self._check(ray_session, [3.0], q_pcts=(50,))
        self._check(ray_session, [2.0, 1.0, 3.0], q_pcts=(25, 50, 99))

    def test_empty(self, ray_session):
        import ray.data as rd

        from battery.ops.quantile import exact_quantiles

        ds = rd.from_arrow(pa.table({"value": pa.array([], pa.float64())}))
        out = exact_quantiles(ds, "value")
        assert out.num_rows == 0


class TestGroupedQuantiles:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from battery.ops.quantile import grouped_quantiles

        rng = np.random.default_rng(19)
        groups = np.array(["a", "b", "c", "d"])[rng.integers(0, 4, 6000)]
        vals = rng.normal(size=6000)
        vals[groups == "b"] = 3.25  # mass-point group
        vals[groups == "d"] = np.round(vals[groups == "d"], 1)  # heavy ties
        ds = rd.from_arrow(
            pa.table({"g": pa.array(groups), "value": pa.array(vals)})
        ).repartition(5)
        got = grouped_quantiles(
            ds, "value", "g", q_pcts=(25, 50, 95), n_bins=16, max_pull=50
        ).to_pandas()
        for g in "abcd":
            s = np.sort(vals[groups == g])
            for p in (25, 50, 95):
                exp = s[int(np.ceil(p / 100.0 * len(s))) - 1]
                row = got[(got["group"] == g) & (got.q_pct == p)]
                assert row.value.iloc[0] == exp, (g, p)

    def test_tiny_groups(self, ray_session):
        import ray.data as rd

        from battery.ops.quantile import grouped_quantiles

        ds = rd.from_arrow(
            pa.table({"g": pa.array(["x", "y", "y"]),
                      "value": pa.array([5.0, 2.0, 9.0])})
        )
        got = grouped_quantiles(ds, "value", "g", q_pcts=(50,)).to_pandas()
        assert dict(zip(got["group"], got["value"])) == {"x": 5.0, "y": 2.0}


class TestBloomSemiJoin:
    def test_prefilter_has_no_false_negatives_and_join_is_exact(self, ray_session):
        import ray.data as rd

        from battery.ops.bloom import bloom_build, bloom_prefilter, bloom_semi_join

        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 1 << 40, 500))
        fact_keys = rng.integers(0, 1 << 40, 20000)
        # force real overlap
        fact_keys[: 3000] = rng.choice(keys, 3000)
        fact = rd.from_arrow(
            pa.table({"k": pa.array(fact_keys), "v": pa.array(np.arange(20000))})
        ).repartition(6)
        kds = rd.from_arrow(pa.table({"key": pa.array(keys)})).repartition(3)

        ref, m, kk = bloom_build(kds, "key", len(keys))
        surv = bloom_prefilter(fact, "k", ref, m, kk).to_pandas()
        member = np.isin(fact_keys, keys)
        # no false negatives: every true member survives
        assert member.sum() <= len(surv)
        assert set(fact_keys[member]) <= set(surv["k"])
        # prefilter is selective (fp rate ~1% at 10 bits/key)
        assert len(surv) < 0.1 * len(fact_keys) + member.sum()

        out = bloom_semi_join(fact, kds, "k", "key", n_keys=len(keys)).to_pandas()
        exp = pd.DataFrame({"k": fact_keys, "v": np.arange(20000)})[member]
        got = out.sort_values(["k", "v"]).reset_index(drop=True)
        exp = exp.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["k", "v"]], exp[["k", "v"]])

    def test_negative_keys_and_tiny_filter(self, ray_session):
        import ray.data as rd

        from battery.ops.bloom import bloom_semi_join

        fact = rd.from_arrow(
            pa.table({"k": pa.array([-5, -5, 0, 3, 9], pa.int64()),
                      "v": pa.array([1, 2, 3, 4, 5])})
        )
        kds = rd.from_arrow(pa.table({"key": pa.array([-5, 9], pa.int64())}))
        out = bloom_semi_join(fact, kds, "k", "key", n_keys=2).to_pandas()
        assert sorted(out["v"]) == [1, 2, 5]


class TestSemiJoin:
    def test_both_paths_match_pandas(self, ray_session):
        import ray.data as rd

        from battery.ops.relational import semi_join

        rng = np.random.default_rng(3)
        fk = rng.integers(0, 500, 4000)
        fact = rd.from_arrow(pa.table({"k": pa.array(fk, pa.int64()),
                                       "v": pa.array(np.arange(4000))})).repartition(5)
        keys = np.unique(rng.integers(0, 500, 120))
        # duplicate keys across batches must not duplicate fact rows
        kds = rd.from_arrow(pa.table({"key": pa.array(
            np.concatenate([keys, keys]), pa.int64())})).repartition(3)
        exp = pd.DataFrame({"k": fk, "v": np.arange(4000)})
        exp = exp[np.isin(fk, keys)].sort_values(["k", "v"]).reset_index(drop=True)
        for cap in (1 << 20, 1):  # broadcast path, then bucketed path
            got = semi_join(fact, kds, "k", "key", max_broadcast_keys=cap
                            ).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got[["k", "v"]], exp)

    def test_empty_keys(self, ray_session):
        import ray.data as rd

        from battery.ops.relational import semi_join

        fact = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
        kds = rd.from_arrow(pa.table({"key": pa.array([], pa.int64())}))
        out = semi_join(fact, kds, "k", "key")
        assert out.count() == 0 and out.schema().names == ["k"]


class TestGroupedRangeRolling:
    def test_matches_brute_force(self, ray_session):
        import ray.data as rd

        from battery.ops.relational import grouped_range_rolling

        rng = np.random.default_rng(17)
        n = 800
        key = rng.integers(0, 12, n)
        ts = rng.integers(0, 5000, n)  # dup timestamps likely (peers)
        v = rng.integers(-50, 50, n)
        eid = np.arange(n)
        ds = rd.from_arrow(pa.table({
            "k": pa.array(key, pa.int64()), "tsi": pa.array(ts, pa.int64()),
            "v": pa.array(v, pa.int64()), "id": pa.array(eid, pa.int64()),
        })).repartition(5)
        out = grouped_range_rolling(ds, "k", "tsi", "v", span=300,
                                    n_buckets=4).to_pandas()
        got = out.set_index("id")
        for i in range(n):
            m = (key == key[i]) & (ts >= ts[i] - 300) & (ts <= ts[i])
            assert got.loc[i, "range_sum"] == v[m].sum(), i
            assert got.loc[i, "range_n"] == m.sum(), i

    def test_peers_share_frame(self, ray_session):
        import ray.data as rd

        from battery.ops.relational import grouped_range_rolling

        ds = rd.from_arrow(pa.table({
            "k": pa.array([1, 1, 1], pa.int64()),
            "tsi": pa.array([10, 10, 10], pa.int64()),
            "v": pa.array([1, 2, 4], pa.int64()),
            "id": pa.array([0, 1, 2], pa.int64()),
        }))
        out = grouped_range_rolling(ds, "k", "tsi", "v", span=5,
                                    n_buckets=2).to_pandas()
        assert (out["range_sum"] == 7).all() and (out["range_n"] == 3).all()
