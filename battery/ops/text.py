"""Text-analysis stages for large-scale training-data pipelines:
token counting, quality scoring, language ID, document fingerprinting.

All stages are vectorized ``map_batches`` transforms (pyarrow.compute
string kernels / numpy) running as stateless tasks with the per-worker
stage cache. Token-stats tokenization is plain single-space split so
the DuckDB oracle (``string_split(text, ' ')``) states the identical
semantics; fingerprints ride the whitespace-split hashed-token kernel
in battery.ops.hashing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it")

# tiny per-language marker lexicons for the n-gram/stopword heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "is", "a", "in", "that", "it", "for"},
    "es": {"el", "la", "de", "que", "y", "los", "las", "un", "una", "es"},
    "fr": {"le", "la", "les", "des", "et", "un", "une", "est", "du", "que"},
    "de": {"der", "die", "das", "und", "ein", "eine", "ist", "nicht", "mit", "zu"},
}


def token_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized token/quality metrics: n_tokens (single-space split),
    n_chars, stopword count, punctuation count."""
    text = batch[text_col]
    toks = pc.split_pattern(text, " ")
    n_tokens = pc.list_value_length(toks).cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    flat = pc.list_flatten(toks)
    is_stop = pc.is_in(flat, pa.array(list(STOPWORDS)))
    # per-row stopword counts: reduce the flattened mask by list offsets
    offsets = np.zeros(len(batch) + 1, dtype=np.int64)
    lens = n_tokens.to_numpy(zero_copy_only=False)
    np.cumsum(lens, out=offsets[1:])
    stop_np = is_stop.to_numpy(zero_copy_only=False).astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(stop_np)])
    n_stop = csum[offsets[1:]] - csum[offsets[:-1]]
    n_punct = pc.count_substring_regex(text, r"[\.,;:!\?]").cast(pa.int64())
    return (
        batch.append_column("n_tokens", n_tokens)
        .append_column("n_chars_calc", n_chars)
        .append_column("n_stopwords", pa.array(n_stop))
        .append_column("n_punct", n_punct)
    )


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Composite quality score in [0, 1] from the token stats (length,
    stopword ratio, mean token length bands) — the heuristic-scoring
    operator of a pretraining data pipeline."""
    t = batch if "n_tokens" in batch.column_names else token_stats_batch(batch)
    n_tok = t["n_tokens"].to_numpy().astype(np.float64)
    n_chars = t["n_chars_calc"].to_numpy().astype(np.float64)
    n_stop = t["n_stopwords"].to_numpy().astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        stop_ratio = np.where(n_tok > 0, n_stop / n_tok, 0.0)
        mean_len = np.where(n_tok > 0, (n_chars - (n_tok - 1)) / n_tok, 0.0)
    len_ok = np.clip((n_tok - 5) / 45.0, 0.0, 1.0)
    stop_ok = 1.0 - np.abs(stop_ratio - 0.08) * 4.0
    word_ok = 1.0 - np.abs(mean_len - 4.5) / 4.5
    score = np.clip(0.4 * len_ok + 0.3 * np.clip(stop_ok, 0, 1) + 0.3 * np.clip(word_ok, 0, 1), 0, 1)
    return t.append_column("quality", pa.array(np.round(score, 6)))


class LangIdStage:
    """Language ID: CJK codepoint check on a 400-char prefix, then
    marker-word voting over the distinct tokens of a 2000-char prefix
    (first language in en/es/fr/de order wins ties — 'en' default).
    Fully vectorized: one regex count for CJK, one tokenize + vocab
    ``index_in`` + unique-pair bincount for the votes."""

    LANGS = tuple(_LANG_MARKERS)  # vote order = tie-break order

    def __init__(self):
        # one lookup table PER language: marker words shared between
        # languages (e.g. 'un' in es and fr) must vote for every
        # language that lists them, exactly like the per-row set
        # intersection this stage replaced
        self.vocabs = [
            pa.array(sorted(_LANG_MARKERS[lang]), pa.string()) for lang in self.LANGS
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = len(batch)
        cjk = (
            pc.count_substring_regex(
                pc.utf8_slice_codeunits(text, 0, 400), "[一-鿿]"
            )
            .to_numpy(zero_copy_only=False)
            > 0
        )
        toks = pc.utf8_split_whitespace(
            pc.utf8_lower(pc.utf8_slice_codeunits(text, 0, 2000))
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lo = toks.offsets.to_numpy().astype(np.int64)
        flat = toks.values
        doc_of = np.searchsorted(lo, np.arange(len(flat)), side="right") - 1
        votes = np.zeros((n, len(self.LANGS)), dtype=np.int64)
        for li, vocab in enumerate(self.vocabs):
            vi = pc.index_in(flat, vocab)
            hit = pc.is_valid(vi).to_numpy(zero_copy_only=False)
            vi_np = vi.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
            # SET semantics: distinct marker words per doc
            pair = np.unique(doc_of[hit] * np.int64(len(vocab)) + vi_np[hit])
            np.add.at(votes, (pair // len(vocab), li), 1)
        best = np.argmax(votes, axis=1)  # first max in vote order
        pred = np.asarray(self.LANGS, dtype=object)[best]
        pred[cjk] = "zh"
        return batch.append_column("lang_pred", pa.array(pred, pa.string()))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit rolling document fingerprint: polynomial rolling hash over
    the token-hash sequence (order-sensitive — reordered near-dups get
    different fingerprints, unlike simhash). Fully vectorized: one
    tokenize-and-hash pass + one segmented reduce for the whole batch
    (battery.ops.hashing.hashed_tokens / rolling_fingerprints)."""
    from battery.ops.hashing import hashed_tokens, rolling_fingerprints

    h, off = hashed_tokens(batch[text_col])
    out = rolling_fingerprints(h, off)
    return batch.append_column("fingerprint", pa.array(out.view(np.int64)))


def _batch_term_freqs(text_col) -> pa.Table:
    """Distinct (row-index, token) pairs with per-row term frequency,
    entirely in Arrow C kernels (split → flatten → group_by) — token
    strings never become Python objects. Tokenization = single-space
    split with empties dropped (matches SQL ``string_split`` +
    ``w <> ''``). Columns: p (row index in batch), token, tf."""
    toks = pc.split_pattern(text_col, " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    t = pa.table({"p": parent[keep_np], "token": flat.filter(keep)})
    g = t.group_by(["p", "token"]).aggregate([("token", "count")])
    # pyarrow puts group keys LAST — select by name
    return pa.table(
        {"p": g["p"], "token": g["token"], "tf": g["token_count"].cast(pa.int64())}
    )


def doc_frequencies(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Document frequency per token: per-batch distinct (doc, token)
    combiner (each doc is one row, so batch-local distinct is global
    distinct) → one vocabulary-scale groupby(token).sum — the only
    shuffle, moving (token, int) partials, never corpus text."""

    def partial(t: pa.Table) -> pa.Table:
        g = _batch_term_freqs(t[text_col])
        d = pa.table({"token": g["token"]}).group_by("token").aggregate(
            [([], "count_all")]
        )
        return pa.table({"token": d["token"], "n": d["count_all"].cast(pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .sum("n")
        .map_batches(lambda t: t.rename_columns(["token", "df"]), batch_format="pyarrow")
    )


def tfidf_top_terms(
    ds: rd.Dataset,
    k: int = 5,
    n_docs: int | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_broadcast_vocab: int = 1 << 22,
    n_buckets: int = 64,
) -> rd.Dataset:
    """Top-``k`` terms per document by TF-IDF. The IDF is the log-free
    rational variant ``idf_e6 = (1_000_000 * n_docs) // df`` (a
    monotone transform of n_docs/df) so every score is exact int64 and
    the DuckDB replay is bit-identical — float ``ln`` would differ in
    ULPs between engines. ``score = tf * idf_e6``; per-doc order is
    (score desc, token asc), a total order since tokens are distinct
    within a doc. Output: doc_id, token, tf, df, score (int64 except
    token).

    Scale shape — two streaming passes over the corpus:
      1. ``doc_frequencies``: vocabulary-scale groupby (the only
         all-to-all touching token granularity).
      2. score+top-k: by Heaps' law the REPEATED vocabulary (df >= 2)
         is far smaller than the corpus, so it broadcasts (one ray.put,
         per-worker cached); df-misses are exactly the df == 1 tokens.
         Each doc is one row, so TF and the top-k are batch-local —
         the scoring pass has NO shuffle at all.
    Above ``max_broadcast_vocab`` distinct repeated tokens the op
    switches to the co-partitioned scale path: tf-rows join the full df
    table on hash(token) buckets (one shuffle per side), then a
    doc-bucket co-partition computes per-doc top-k vectorized — no
    broadcast, no driver materialization."""
    import ray

    from battery.ops.hashing import hash_strings
    from geotile.ops.join import _cached_stage

    if n_docs is None:
        n_docs = ds.count()
    dfreq = doc_frequencies(ds, text_col)

    def _score(tf: np.ndarray, df: np.ndarray) -> np.ndarray:
        idf_e6 = (np.int64(1_000_000) * np.int64(n_docs)) // df.astype(np.int64)
        return tf.astype(np.int64) * idf_e6

    def _topk_run_filter(p: np.ndarray) -> np.ndarray:
        # rows pre-sorted by (p, score desc, token); keep first k per run
        starts = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        run_id = np.cumsum(np.r_[True, p[1:] != p[:-1]]) - 1
        return (np.arange(len(p)) - starts[run_id]) < k

    repeated_vocab = dfreq.map_batches(
        lambda t: t.filter(pc.greater_equal(t["df"], 2)), batch_format="pyarrow"
    ).materialize()
    if repeated_vocab.count() <= max_broadcast_vocab:
        # empty groupby partitions surface as zero-column blocks — drop
        # them before concat (their schema is literally empty)
        tbls = [
            t for t in (ray.get(r) for r in repeated_vocab.to_arrow_refs())
            if t.num_columns
        ]
        tbl = (
            pa.concat_tables(tbls).combine_chunks()
            if tbls
            else pa.table({"token": pa.array([], pa.string()),
                           "df": pa.array([], pa.int64())})
        )
        ref = ray.put((tbl["token"].combine_chunks(), tbl["df"].to_numpy()))

        def score_topk(t: pa.Table) -> pa.Table:
            vocab, dfv = _cached_stage(("tfidf_vocab", ref.hex()), lambda: ray.get(ref))
            g = _batch_term_freqs(t[text_col])
            idx = pc.index_in(g["token"], vocab)
            hit = pc.is_valid(idx).to_numpy(zero_copy_only=False)
            ix = idx.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
            df_np = np.where(hit, dfv[ix], 1).astype(np.int64)
            tf_np = g["tf"].to_numpy()
            g = g.append_column("df", pa.array(df_np)).append_column(
                "score", pa.array(_score(tf_np, df_np))
            )
            order = pc.sort_indices(
                g,
                sort_keys=[("p", "ascending"), ("score", "descending"),
                           ("token", "ascending")],
            )
            g = g.take(order)
            keep = _topk_run_filter(g["p"].to_numpy())
            g = g.filter(pa.array(keep))
            doc_ids = t[id_col].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids[g["p"].to_numpy()]),
                    "token": g["token"],
                    "tf": g["tf"],
                    "df": g["df"],
                    "score": g["score"],
                }
            )

        return ds.map_batches(score_topk, batch_format="pyarrow", zero_copy_batch=True)

    # ---- scale path: repeated vocab too large to broadcast ----
    def tf_rows(t: pa.Table) -> pa.Table:
        g = _batch_term_freqs(t[text_col])
        doc_ids = t[id_col].to_numpy(zero_copy_only=False)
        b = hash_strings(g["token"]) % np.uint64(n_buckets)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[g["p"].to_numpy()]),
                "token": g["token"],
                "tf": g["tf"],
                "bucket": pa.array(b.astype(np.int64)),
                "__side": pa.array(np.zeros(len(g), dtype=np.int8)),
                "df": pa.nulls(len(g), pa.int64()),
            }
        )

    def df_rows(t: pa.Table) -> pa.Table:
        b = hash_strings(t["token"]) % np.uint64(n_buckets)
        n = len(t)
        return pa.table(
            {
                "doc_id": pa.nulls(n, pa.int64()),
                "token": t["token"],
                "tf": pa.nulls(n, pa.int64()),
                "bucket": pa.array(b.astype(np.int64)),
                "__side": pa.array(np.ones(n, dtype=np.int8)),
                "df": t["df"],
            }
        )

    lb = ds.map_batches(tf_rows, batch_format="pyarrow", zero_copy_batch=True)
    # vocabulary-scale; materialized so the union's schema probe doesn't
    # execute the DF groupby twice (same contract as bucketed_join)
    rb = dfreq.materialize().map_batches(df_rows, batch_format="pyarrow")

    def join_score(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0][["doc_id", "token", "tf"]]
        r = df[df["__side"] == 1][["token", "df"]]
        out = l.merge(r, on="token", how="inner")  # every token has a df row
        if len(out) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "token": pd.Series(dtype=object),
                    "tf": pd.Series(dtype=np.int64),
                    "df": pd.Series(dtype=np.int64),
                    "score": pd.Series(dtype=np.int64),
                }
            )
        tf_np = out["tf"].to_numpy(np.int64)
        df_np = out["df"].to_numpy(np.int64)
        out = out.astype({"doc_id": np.int64})
        out["score"] = _score(tf_np, df_np)
        return out

    scored = lb.union(rb).groupby("bucket").map_groups(
        join_score, batch_format="pandas"
    )

    def doc_bucket(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        from geotile.synth import splitmix64

        b = (splitmix64(ids.view(np.uint64)) % np.uint64(n_buckets)).astype(np.int64)
        return t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id", pa.array(ids)
        ).append_column("dbucket", pa.array(b))

    def topk_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["dbucket"])
        if len(df) == 0:
            return df
        tok = df["token"].to_numpy()
        order = np.lexsort((tok, -df["score"].to_numpy(np.int64),
                            df["doc_id"].to_numpy(np.int64)))
        df = df.iloc[order]
        keep = _topk_run_filter(df["doc_id"].to_numpy(np.int64))
        return df[keep]

    return (
        scored.map_batches(doc_bucket, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(topk_bucket, batch_format="pandas")
    )


def doc_stats(ds: rd.Dataset) -> rd.Dataset:
    """documents → per-doc token/quality stats (vectorized)."""
    return ds.map_batches(quality_score_batch, batch_format="pyarrow", zero_copy_batch=True)


def lang_id(ds: rd.Dataset, concurrency=None) -> rd.Dataset:
    """Stateless tasks + per-worker cached stage (``concurrency`` kept
    for API compat, unused — no actor pool to starve the read)."""
    from geotile.ops.join import _cached_stage

    def fn(t: pa.Table) -> pa.Table:
        return _cached_stage(("langid",), LangIdStage)(t)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=2048, zero_copy_batch=True)


class RegexTokenizerStage:
    """Actor-pool tokenizer with the GPT-2-style pre-tokenizer split
    (alpha runs | digit runs | single non-space symbols) — the BPE
    front end. The three patterns COMPILE ONCE per actor in
    ``__init__`` (the stateful-stage contract: setup per actor, work
    per batch); ``__call__`` counts matches per document. Python's
    ``re`` and DuckDB's RE2 agree on these pure character-class
    patterns, which is what makes the SQL replay exact."""

    def __init__(self):
        import re

        self.alpha = re.compile(r"[a-z]+")
        self.digit = re.compile(r"[0-9]+")
        self.other = re.compile(r"[^a-z0-9\s]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n = len(texts)
        na = np.empty(n, np.int64)
        nd = np.empty(n, np.int64)
        no = np.empty(n, np.int64)
        for i, s in enumerate(texts):  # per-DOC loop; regexes are state
            na[i] = len(self.alpha.findall(s))
            nd[i] = len(self.digit.findall(s))
            no[i] = len(self.other.findall(s))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_alpha": pa.array(na),
            "n_digit": pa.array(nd),
            "n_symbol": pa.array(no),
        })
