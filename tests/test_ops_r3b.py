"""Round-3 widening ops: TF-IDF top terms (broadcast + co-partition
scale paths), duplicated n-gram spans, ROWS-frame rolling window, full
outer co-partition join — each vs an in-process brute-force reference
on adversarial small data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _from_pandas(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def _docs_df(rng, n=60, vocab=None):
    vocab = vocab or ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 14)))
        for _ in range(n)
    ]
    texts[3] = ""  # empty doc: counts toward N, emits no terms
    texts[5] = "alpha  beta"  # double space → empty token must be dropped
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})


def _brute_tfidf(df, k=5):
    n_docs = len(df)
    rows = []
    tf_all, dfreq = {}, {}
    for _, r in df.iterrows():
        toks = [t for t in r["text"].split(" ") if t != ""]
        tf = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        tf_all[r["doc_id"]] = tf
        for t in tf:
            dfreq[t] = dfreq.get(t, 0) + 1
    for did, tf in tf_all.items():
        scored = sorted(
            (
                (t, c, dfreq[t], c * ((1_000_000 * n_docs) // dfreq[t]))
                for t, c in tf.items()
            ),
            key=lambda x: (-x[3], x[0]),
        )[:k]
        rows.extend((did, t, c, d, s) for t, c, d, s in scored)
    return pd.DataFrame(
        rows, columns=["doc_id", "token", "tf", "df", "score"]
    ).sort_values(["doc_id", "token"]).reset_index(drop=True)


class TestTfidf:
    @pytest.mark.parametrize("max_broadcast", [1 << 22, 0])  # fast + scale path
    def test_matches_brute_force(self, ray_session, max_broadcast):
        from battery.ops.text import tfidf_top_terms

        df = _docs_df(np.random.default_rng(11))
        got = (
            tfidf_top_terms(
                _from_pandas(df).repartition(4), k=5,
                max_broadcast_vocab=max_broadcast, n_buckets=8,
            )
            .to_pandas()
            .sort_values(["doc_id", "token"])
            .reset_index(drop=True)
        )
        want = _brute_tfidf(df, k=5)
        pd.testing.assert_frame_equal(
            got.astype({"tf": np.int64, "df": np.int64, "score": np.int64}),
            want,
        )

    def test_df_one_terms_score_via_miss_default(self, ray_session):
        # a token unique to one doc is absent from the pruned broadcast
        # vocab; the df=1 miss default must still score it (highest idf)
        from battery.ops.text import tfidf_top_terms

        df = pd.DataFrame(
            {
                "doc_id": np.array([0, 1], dtype=np.int64),
                "text": ["unique shared", "shared"],
            }
        )
        got = tfidf_top_terms(_from_pandas(df), k=5).to_pandas()
        u = got[(got.doc_id == 0) & (got.token == "unique")]
        assert len(u) == 1 and int(u["df"].iloc[0]) == 1
        assert int(u["score"].iloc[0]) == 1_000_000 * 2  # tf=1, N=2, df=1


class TestDupNgramSpans:
    def _brute(self, df, k=8, min_docs=2):
        grams = {}
        per_doc = {}
        for _, r in df.iterrows():
            toks = r["text"].split(" ")
            gs = {
                " ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)
            } if len(toks) >= k else set()
            per_doc[r["doc_id"]] = gs
            for g in gs:
                grams[g] = grams.get(g, 0) + 1
        rows = [
            (d, len(gs), sum(1 for g in gs if grams[g] >= min_docs))
            for d, gs in per_doc.items()
            if gs
        ]
        return pd.DataFrame(
            rows, columns=["doc_id", "n_grams", "n_dup_grams"]
        ).sort_values("doc_id").reset_index(drop=True)

    def test_matches_brute_force(self, ray_session):
        from battery.ops.dedup import dup_ngram_spans

        rng = np.random.default_rng(3)
        vocab = ["a", "b", "c", "d"]
        n = 50
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(0, 24)))
            for _ in range(n)
        ]
        texts[7] = texts[9] = "a b c d a b c d a b"  # exact dup block
        texts[11] = "x y " + texts[7]  # shares a suffix span
        df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
        got = (
            dup_ngram_spans(_from_pandas(df).repartition(4), k=8, gram_buckets=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, self._brute(df, k=8))
        # the planted dups must be flagged
        flagged = got[got.n_dup_grams > 0].doc_id.tolist()
        assert {7, 9, 11} <= set(flagged)

    def test_short_docs_emit_nothing(self, ray_session):
        from battery.ops.dedup import dup_ngram_spans

        df = pd.DataFrame(
            {"doc_id": np.array([0, 1], dtype=np.int64),
             "text": ["a b c", "a b c d e f g h"]}
        )
        got = dup_ngram_spans(_from_pandas(df), k=8).to_pandas()
        assert got.doc_id.tolist() == [1]
        assert got.n_grams.tolist() == [1] and got.n_dup_grams.tolist() == [0]


class TestRollupAggregate:
    def test_matches_pandas_levels(self, ray_session):
        from battery.ops.relational import rollup_aggregate

        rng = np.random.default_rng(13)
        n = 500
        df = pd.DataFrame(
            {
                "lang": rng.choice(["en", "es", "fr"], n),
                "source": rng.choice(["a", "b", "c", "d"], n),
                "n_chars": rng.integers(0, 900, n).astype(np.int64),
            }
        )
        got = (
            rollup_aggregate(
                _from_pandas(df).repartition(6), ["lang", "source"], "n_chars"
            )
            .to_pandas()
            .sort_values(["lvl", "lang", "source"])
            .reset_index(drop=True)
        )
        d0 = (
            df.groupby(["lang", "source"], as_index=False)
            .agg(n=("n_chars", "size"), sum_n_chars=("n_chars", "sum"))
            .assign(lvl=0)
        )
        d1 = (
            df.groupby("lang", as_index=False)
            .agg(n=("n_chars", "size"), sum_n_chars=("n_chars", "sum"))
            .assign(source="*", lvl=1)
        )
        d2 = pd.DataFrame(
            {"lang": ["*"], "source": ["*"], "n": [n],
             "sum_n_chars": [df.n_chars.sum()], "lvl": [2]}
        )
        want = (
            pd.concat([d0, d1, d2])[["lvl", "lang", "source", "n", "sum_n_chars"]]
            .sort_values(["lvl", "lang", "source"])
            .reset_index(drop=True)
            .astype({"lvl": np.int64, "n": np.int64, "sum_n_chars": np.int64})
        )
        pd.testing.assert_frame_equal(got, want)

    def test_single_key(self, ray_session):
        from battery.ops.relational import rollup_aggregate

        df = pd.DataFrame(
            {"k": ["x", "x", "y"], "v": np.array([1, 2, 4], np.int64)}
        )
        got = (
            rollup_aggregate(_from_pandas(df), ["k"], "v")
            .to_pandas()
            .sort_values(["lvl", "k"])
            .reset_index(drop=True)
        )
        assert got.values.tolist() == [
            [0, "x", 2, 3], [0, "y", 1, 4], [1, "*", 3, 7]]


class TestGroupedRolling:
    def test_matches_pandas_window(self, ray_session):
        from battery.ops.relational import grouped_rolling

        rng = np.random.default_rng(5)
        n = 800
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 25, n).astype(np.int64),
                "ts": pd.to_datetime(
                    rng.integers(0, 50, n), unit="s"
                ),  # heavy ts ties → tiebreak by event_id matters
                "v": rng.integers(-100, 100, n).astype(np.int64),
            }
        )
        got = (
            grouped_rolling(
                _from_pandas(df).repartition(5), key="user_id",
                order_cols=["ts", "event_id"], val="v", frame=3,
                lag_col="event_id", n_buckets=4,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        w = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        g = w.groupby("user_id")
        w["roll_sum"] = g["v"].transform(
            lambda s: s.rolling(3, min_periods=1).sum()
        ).astype(np.int64)
        w["roll_n"] = g["v"].transform(
            lambda s: s.rolling(3, min_periods=1).count()
        ).astype(np.int64)
        w["prev_event_id"] = g["event_id"].shift(1).fillna(-1).astype(np.int64)
        w = w.sort_values("event_id").reset_index(drop=True)
        for c in ("roll_sum", "roll_n", "prev_event_id"):
            np.testing.assert_array_equal(got[c].to_numpy(), w[c].to_numpy())

    def test_single_row_groups(self, ray_session):
        from battery.ops.relational import grouped_rolling

        df = pd.DataFrame(
            {
                "event_id": np.array([10, 20], dtype=np.int64),
                "user_id": np.array([1, 2], dtype=np.int64),
                "ts": pd.to_datetime([1, 2], unit="s"),
                "v": np.array([7, -3], dtype=np.int64),
            }
        )
        got = grouped_rolling(
            _from_pandas(df), key="user_id", order_cols=["ts", "event_id"],
            val="v", frame=3, lag_col="event_id",
        ).to_pandas().sort_values("event_id")
        assert got.roll_sum.tolist() == [7, -3]
        assert got.roll_n.tolist() == [1, 1]
        assert got.prev_event_id.tolist() == [-1, -1]


class TestFunnel:
    def test_matches_brute_force_with_ties(self, ray_session):
        from battery.queries import q_funnel_users

        rng = np.random.default_rng(41)
        n = 1500
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 60, n).astype(np.int64),
                "ts": pd.to_datetime(rng.integers(0, 30, n), unit="s"),  # ties
                "event_type": rng.choice(
                    ["view", "click", "purchase", "error"], n
                ),
                "event_id": np.arange(n, dtype=np.int64),
                "value": np.zeros(n),
                "props": [""] * n,
            }
        )
        import pyarrow.parquet as pq
        import tempfile, os
        d = tempfile.mkdtemp()
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                       os.path.join(d, "events.parquet"))
        got = (
            q_funnel_users(d).to_pandas()
            .sort_values("user_id").reset_index(drop=True)
        )
        rows = []
        for uid, g in df.groupby("user_id"):
            t = g["ts"].astype("datetime64[us]").astype(np.int64)
            et = g["event_type"]
            prev, out = -(1 << 62), []
            for stage in ("view", "click", "purchase"):
                cand = t[(et == stage) & (t > prev)]
                if len(cand) == 0:
                    out = None
                    break
                prev = int(cand.min())
                out.append(prev)
            if out:
                rows.append((uid, *out))
        want = pd.DataFrame(
            rows, columns=["user_id", "t_view_us", "t_click_us", "t_purchase_us"]
        ).astype(np.int64).sort_values("user_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype(np.int64), want)


class TestHammingPairs:
    @pytest.mark.parametrize("max_h", [1, 3])
    def test_exact_vs_brute_force(self, ray_session, max_h):
        from battery.ops.dedup import hamming_pairs

        rng = np.random.default_rng(31)
        n = 300
        base = rng.integers(0, 1 << 62, 20, dtype=np.int64)
        # clustered fingerprints: each row = a base value with 0-4 bits
        # flipped, so near pairs are plentiful at small distances
        h = base[rng.integers(0, len(base), n)]
        for i in range(n):
            for _ in range(rng.integers(0, 5)):
                h[i] ^= np.int64(1) << rng.integers(0, 63)
        df = pd.DataFrame({"id": np.arange(n, dtype=np.int64), "h": h})
        got = (
            hamming_pairs(_from_pandas(df).repartition(4), "id", "h",
                          max_hamming=max_h, cap=None)
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        hu = h.astype(np.uint64)
        want = []
        for i in range(n):
            x = hu[i] ^ hu[i + 1:]
            d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
            for j in np.flatnonzero(d <= max_h):
                want.append((i, i + 1 + j, int(d[j])))
        want = pd.DataFrame(want, columns=["a", "b", "hamming"]).astype(np.int64)
        pd.testing.assert_frame_equal(
            got, want.sort_values(["a", "b"]).reset_index(drop=True)
        )


class TestQuantilesCont:
    @pytest.mark.parametrize("n", [1, 2, 101, 5000])
    def test_matches_sorted_brackets(self, ray_session, n):
        from battery.ops.quantile import quantiles_cont

        rng = np.random.default_rng(n)
        v = np.round(rng.normal(0, 50, n), 2)
        v[:: max(n // 7, 1)] = 13.37  # mass point / heavy ties
        df = pd.DataFrame({"value": v})
        got = quantiles_cont(
            _from_pandas(df).repartition(3), "value", q_pcts=(50, 90),
            max_pull=64,
        ).to_pandas()
        s = np.sort(v)
        for _, r in got.iterrows():
            num = (n - 1) * int(r.q_pct)
            lo = num // 100
            hi = lo + (0 if num % 100 == 0 else 1)
            assert r.lo_value == s[lo] and r.hi_value == s[hi]
            assert int(r.frac_e6) == (num % 100) * 1_000_000 // 100
            # the interpolated value is the scalar epilogue
            interp = r.lo_value + (num % 100) / 100 * (r.hi_value - r.lo_value)
            assert abs(interp - np.percentile(v, int(r.q_pct))) < 1e-9


class TestGroupedNtile:
    def test_matches_duckdb_ntile(self, ray_session):
        import duckdb

        from battery.ops.relational import grouped_ntile

        rng = np.random.default_rng(17)
        n = 700
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 30, n).astype(np.int64),
                "ts": pd.to_datetime(rng.integers(0, 40, n), unit="s"),  # ties
            }
        )
        got = (
            grouped_ntile(
                _from_pandas(df).repartition(4), key="user_id",
                order_cols=["ts", "event_id"], n_tiles=4, n_buckets=4,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            """SELECT event_id, ntile(4) OVER (PARTITION BY user_id
               ORDER BY ts, event_id) AS tile FROM df ORDER BY event_id"""
        ).df()
        np.testing.assert_array_equal(
            got["tile"].to_numpy(np.int64), want["tile"].to_numpy(np.int64)
        )

    def test_small_groups_one_row_per_tile(self, ray_session):
        from battery.ops.relational import grouped_ntile

        # a 2-row key with 4 tiles: rows land in tiles 1 and 2
        df = pd.DataFrame(
            {
                "event_id": np.array([5, 6], dtype=np.int64),
                "user_id": np.array([1, 1], dtype=np.int64),
                "ts": pd.to_datetime([1, 2], unit="s"),
            }
        )
        got = grouped_ntile(
            _from_pandas(df), key="user_id", order_cols=["ts", "event_id"],
            n_tiles=4,
        ).to_pandas().sort_values("event_id")
        assert got.tile.tolist() == [1, 2]


class TestBatchTermFreqsProperty:
    def test_matches_counter_for_all_inputs(self):
        # pure-kernel property check (no Ray): per-row term frequencies
        # from the Arrow group_by kernel == collections.Counter over
        # single-space split with empties dropped, for adversarial
        # strings (runs of spaces, leading/trailing, empty, unicode)
        from collections import Counter

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from battery.ops.text import _batch_term_freqs

        token = st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x2FFF
            ),
            min_size=0, max_size=5,
        )
        text = st.lists(token, min_size=0, max_size=12).map(" ".join)

        @settings(max_examples=60, deadline=None)
        @given(st.lists(text, min_size=1, max_size=8))
        def run(texts):
            g = _batch_term_freqs(pa.array(texts, pa.string()))
            got: dict = {}
            for p, tok, tf in zip(
                g["p"].to_pylist(), g["token"].to_pylist(), g["tf"].to_pylist()
            ):
                assert (p, tok) not in got  # distinct pairs
                got[(p, tok)] = tf
            want = {
                (i, t): c
                for i, s in enumerate(texts)
                for t, c in Counter(w for w in s.split(" ") if w).items()
            }
            assert got == want

        run()


class TestHllGrouped:
    def test_equals_per_group_global_sketch(self, ray_session):
        # register max is associative: the grouped sketch must equal the
        # global sketch run on each group's sub-stream, bit-exactly
        from battery.ops.sketch import hll_distinct, hll_distinct_grouped

        rng = np.random.default_rng(21)
        n = 4000
        df = pd.DataFrame(
            {
                "g": rng.choice(["a", "b", "c"], n),
                "v": rng.integers(0, 700, n).astype(np.int64),
            }
        )
        ds = _from_pandas(df).repartition(5)
        got = {
            r["g"]: r["est"]
            for r in hll_distinct_grouped(ds, "v", "g").take_all()
        }
        for grp in ("a", "b", "c"):
            sub = _from_pandas(df[df.g == grp][["v"]])
            assert got[grp] == int(round(hll_distinct(sub, "v")))
            exact = df[df.g == grp].v.nunique()
            assert abs(got[grp] - exact) / exact <= 0.05


class TestBucketedJoinOuter:
    def test_full_outer_matches_pandas(self, ray_session):
        from battery.ops.relational import bucketed_join

        rng = np.random.default_rng(9)
        l = pd.DataFrame(
            {
                "lk": rng.choice(np.arange(0, 40, 2), 30).astype(np.int64),
                "lv": np.arange(30, dtype=np.int64),
            }
        )
        r = pd.DataFrame(
            {
                "rk": rng.choice(np.arange(0, 40, 3), 25).astype(np.int64),
                "rv": np.arange(25, dtype=np.int64),
            }
        )
        got = (
            bucketed_join(
                _from_pandas(l).repartition(3), _from_pandas(r).repartition(2),
                "lk", "rk", n_buckets=4, how="outer",
            )
            .to_pandas()
            .sort_values(["lk", "rk", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        want = (
            l.merge(r, left_on="lk", right_on="rk", how="outer")
            .sort_values(["lk", "rk", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        assert len(got) == len(want)
        for c in ("lk", "lv", "rk", "rv"):
            np.testing.assert_array_equal(
                got[c].to_numpy(np.float64), want[c].to_numpy(np.float64)
            )

    def test_left_join_empty_right_bucket_unchanged(self, ray_session):
        # regression guard: the outer fix must not change left semantics
        from battery.ops.relational import bucketed_join

        l = pd.DataFrame({"lk": np.array([1, 2], np.int64),
                          "lv": np.array([10, 20], np.int64)})
        r = pd.DataFrame({"rk": np.array([2], np.int64),
                          "rv": np.array([99], np.int64)})
        got = bucketed_join(
            _from_pandas(l), _from_pandas(r), "lk", "rk",
            n_buckets=4, how="left",
        ).to_pandas().sort_values("lk").reset_index(drop=True)
        assert len(got) == 2
        assert got.loc[got.lk == 2, "rv"].iloc[0] == 99
        assert np.isnan(got.loc[got.lk == 1, "rv"].iloc[0])
