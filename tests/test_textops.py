"""Tests for text analysis, dedup, and ANN over /root/testdata tables."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def embeddings(ray_session):
    return rd.read_parquet(f"{SF}/embeddings.parquet")


class TestTextStats:
    def test_token_counts_match_split(self, docs):
        from battery.ops.text import doc_stats

        df = doc_stats(docs).to_pandas()
        raw = docs.to_pandas()
        merged = df.merge(raw[["doc_id", "text"]], on="doc_id", suffixes=("", "_r"))
        for _, r in merged.head(50).iterrows():
            assert r.n_tokens == len(r.text.split(" "))
            assert r.n_chars_calc == len(r.text)
        assert df.quality.between(0, 1).all()

    def test_lang_id_reasonable(self, docs):
        from battery.ops.text import lang_id

        df = lang_id(docs).to_pandas()
        # synthetic docs are keyword soup; just require the stage runs,
        # returns a known label, and nails the CJK fast path if present
        assert set(df.lang_pred) <= {"en", "es", "fr", "de", "zh"}
        zh = df[df.lang == "zh"]
        if len(zh) and zh.text.str.contains("[一-鿿]").any():
            assert (zh[zh.text.str.contains("[一-鿿]")].lang_pred == "zh").all()

    def test_fingerprint_deterministic_and_order_sensitive(self, ray_session):
        from battery.ops.text import fingerprint_batch

        t = pa.table({"text": ["a b c", "a b c", "c b a"]})
        f = fingerprint_batch(t)["fingerprint"].to_pylist()
        assert f[0] == f[1]
        assert f[0] != f[2]


class TestDedup:
    def test_exact_dedup(self, ray_session):
        from battery.ops.dedup import exact_dedup

        ds = rd.from_items(
            [
                {"doc_id": 5, "text": "hello world"},
                {"doc_id": 2, "text": "hello world"},
                {"doc_id": 9, "text": "unique doc"},
            ]
        )
        out = exact_dedup(ds).to_pandas().sort_values("doc_id")
        assert out.doc_id.tolist() == [2, 9]

    def test_minhash_finds_planted_neardups(self, ray_session, docs):
        from battery.ops.dedup import jaccard, minhash_lsh_pairs

        base = docs.to_pandas().head(40)
        rows = [{"doc_id": int(r.doc_id), "text": r.text} for _, r in base.iterrows()]
        # plant near-dups: copy doc texts with one word changed
        for i, r in enumerate(rows[:5]):
            words = r["text"].split()
            words[len(words) // 2] = "XXREPLACEDXX"
            rows.append({"doc_id": 1000 + i, "text": " ".join(words)})
        ds = rd.from_items(rows)
        pairs = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        got = set(zip(pairs.a, pairs.b))
        for i in range(5):
            a, b = sorted((rows[i]["doc_id"], 1000 + i))
            assert (a, b) in got, f"planted near-dup {a},{b} missed"
            assert jaccard(rows[i]["text"], rows[40 + i]["text"]) >= 0.5
        # the bucketed-join verify path (dup-heavy-corpus scale route,
        # taken when candidates exceed the broadcast cap) must emit the
        # identical pair set
        bucketed = minhash_lsh_pairs(
            ds, threshold=0.5, max_broadcast_candidates=0
        ).to_pandas()
        assert (
            sorted(zip(bucketed.a, bucketed.b, bucketed.jaccard))
            == sorted(zip(pairs.a, pairs.b, pairs.jaccard))
        )

    def test_simhash_pairs(self, ray_session):
        from battery.ops.dedup import simhash_pairs

        texts = {
            1: "the quick brown fox jumps over the lazy dog again and again today",
            2: "the quick brown fox jumps over the lazy dog again and again tonight",
            3: "completely different words about databases and distributed query engines",
        }
        ds = rd.from_items([{"doc_id": k, "text": v} for k, v in texts.items()])
        pairs = simhash_pairs(ds, max_hamming=8).to_pandas()
        got = set(zip(pairs.a, pairs.b))
        assert (1, 2) in got
        assert (1, 3) not in got and (2, 3) not in got

    def test_embedding_dup_pairs(self, ray_session, embeddings):
        from battery.ops.dedup import embedding_dup_pairs

        df = embeddings.to_pandas()
        M = np.array(df.embedding.tolist())
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Mn @ Mn.T
        iu = np.triu_indices(len(S), k=1)
        tau = float(np.quantile(S[iu], 0.999))  # data-driven: ~0.1% of pairs
        expect = {(int(df.vec_id[i]), int(df.vec_id[j]))
                  for i, j in zip(*iu) if S[i, j] >= tau}
        assert expect, "threshold should keep some pairs"
        got_df = embedding_dup_pairs(embeddings, tau=tau).to_pandas()
        got = set(zip(got_df.a, got_df.b))
        assert got == expect


class TestAnn:
    def test_bruteforce_matches_numpy(self, ray_session, embeddings):
        from battery.ops.ann import topk_bruteforce

        df = embeddings.to_pandas()
        M = np.array(df.embedding.tolist())
        ids = df.vec_id.to_numpy()
        qids = ids[:5]
        Q = M[:5]
        out = topk_bruteforce(embeddings, qids, Q, k=5).to_pandas()
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        S = Qn @ Mn.T
        for qi, qid in enumerate(qids):
            s = S[qi].copy()
            s[ids == qid] = -np.inf
            exp = ids[np.argsort(-s, kind="stable")[:5]]
            got = out[out.query_id == qid].sort_values("rank").vec_id.tolist()
            assert got == exp.tolist()

    def test_ivf_recall(self, ray_session, embeddings):
        from battery.ops.ann import ivf_topk, topk_bruteforce

        df = embeddings.to_pandas()
        M = np.array(df.embedding.tolist())
        ids = df.vec_id.to_numpy()
        qids, Q = ids[:10], M[:10]
        exact = topk_bruteforce(embeddings, qids, Q, k=10).to_pandas()
        approx = ivf_topk(embeddings, qids, Q, k=10, n_centroids=8, nprobe=4).to_pandas()
        recalls = []
        for qid in qids:
            e = set(exact[exact.query_id == qid].vec_id)
            a = set(approx[approx.query_id == qid].vec_id)
            recalls.append(len(e & a) / len(e))
        assert np.mean(recalls) > 0.6  # nprobe=4 of 8 centroids

    def test_hyperplane_buckets(self, ray_session, embeddings):
        from battery.ops.ann import hyperplane_buckets

        out = hyperplane_buckets(embeddings, n_planes=8).to_pandas()
        assert out.bucket.between(0, 255).all()
        assert out.bucket.nunique() > 4  # vectors actually spread


class TestEmbeddingDedupScale:
    def test_exact_multiblock_matches_single(self, ray_session, embeddings):
        """Force several object-store blocks so cross-block tiles are
        exercised; pairs must equal the single-block (brute) result."""
        from battery.ops.dedup import embedding_dup_pairs

        df = embeddings.to_pandas()
        M = np.array(df.embedding.tolist())
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        S = Mn @ Mn.T
        iu = np.triu_indices(len(S), k=1)
        tau = float(np.quantile(S[iu], 0.995))
        expect = {(int(df.vec_id[i]), int(df.vec_id[j]))
                  for i, j in zip(*iu) if S[i, j] >= tau}
        got_df = embedding_dup_pairs(embeddings, tau=tau, block_rows=64).to_pandas()
        assert set(zip(got_df.a, got_df.b)) == expect

    def test_lsh_path_planted_dups(self, ray_session):
        """LSH method: exact precision always; recall checked on planted
        high-similarity duplicates (the regime the method is for)."""
        from battery.ops.dedup import embedding_dup_pairs

        rng = np.random.default_rng(11)
        base = rng.standard_normal((60, 32))
        dup = base[:20] + rng.standard_normal((20, 32)) * 0.02  # cos ≈ 1
        M = np.vstack([base, dup])
        ids = np.arange(len(M))
        ds = rd.from_items(
            [{"vec_id": int(i), "embedding": M[i].tolist()} for i in ids]
        )
        got = embedding_dup_pairs(ds, tau=0.98, method="lsh", n_planes=8,
                                  n_tables=8).to_pandas()
        pairs = set(zip(got.a, got.b))
        planted = {(i, 60 + i) for i in range(20)}
        # precision: every emitted pair really is >= tau
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        for a, b in pairs:
            assert float(Mn[a] @ Mn[b]) >= 0.98 - 1e-9
        # recall on planted dups: multi-table collision probability at
        # cos≈1 makes misses vanishingly rare
        assert len(planted & pairs) >= 18


class TestHashedTokens:
    """Edge cases of the vectorized tokenize-and-hash kernel."""

    def test_matches_python_split(self):
        import pyarrow as pa

        from battery.ops.hashing import hashed_tokens

        texts = ["a b  c", "", "   ", "one", "  x y  ", "héllo wörld", "a"*300 + " b"]
        h, off = hashed_tokens(pa.array(texts))
        counts = (off[1:] - off[:-1]).tolist()
        assert counts == [len(t.split()) for t in texts]

    def test_same_token_same_hash_distinct_tokens_distinct(self):
        import pyarrow as pa

        from battery.ops.hashing import hashed_tokens

        h, off = hashed_tokens(pa.array(["x y x z x", "x"]))
        d0 = h[off[0]:off[1]]
        assert d0[0] == d0[2] == d0[4] == h[off[1]]
        assert len({int(d0[0]), int(d0[1]), int(d0[3])}) == 3

    def test_rolling_fingerprint_order_sensitive_and_empty(self):
        import pyarrow as pa

        from battery.ops.hashing import hashed_tokens, rolling_fingerprints

        h, off = hashed_tokens(pa.array(["a b c", "c b a", "a b c", ""]))
        fp = rolling_fingerprints(h, off)
        assert fp[0] == fp[2]
        assert fp[0] != fp[1]
        # empty doc fingerprints deterministically
        h2, off2 = hashed_tokens(pa.array(["", "  "]))
        fp2 = rolling_fingerprints(h2, off2)
        assert fp2[0] == fp2[1] == fp[3]

    def test_trailing_empty_docs_do_not_corrupt_predecessor(self):
        import numpy as np
        import pyarrow as pa

        from battery.ops.dedup import simhash_batch

        a = simhash_batch(pa.table({"text": ["the quick brown fox", "", ""]}))
        b = simhash_batch(pa.table({"text": ["the quick brown fox"]}))
        assert a["simhash"][0].as_py() == b["simhash"][0].as_py()
        assert a["simhash"][1].as_py() == 0 and a["simhash"][2].as_py() == 0
