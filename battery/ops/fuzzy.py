"""FastSS fuzzy string matching — all token pairs within Levenshtein
distance ``max_d``, the spelling-variant / OCR-noise dedup step of a
text-cleaning pipeline.

Candidate generation is the FastSS deletion-neighborhood trick
(Bocek et al., "Fast Similarity Search in Large Dictionaries", 2007):
if lev(a, b) <= d then a and b share at least one string obtainable by
deleting <= d characters from each — so hashing every token to its
deletion variants turns the quadratic all-pairs scan into a
variant-bucket co-partition. The intersection is a SUPERSET of the
true pairs (deletions can't see substitution positions), so every
candidate is verified with an exact DP Levenshtein.

Scale shape: everything after the first groupby runs at VOCABULARY
scale, not corpus scale — (1) per-batch Arrow token-count partials,
one groupby to the distinct vocab; (2) per vocab batch, O(len^d)
deletion variants per token; (3) one co-partition on the variant
string, all-pairs inside each bucket (sizes are near-dup-density
bounded; a ``max_bucket`` assert catches the degenerate hot variants
that very short tokens produce — band by length upstream if it
fires); (4) pair-string dedup groupby; (5) exact DP verify at
candidate-pair scale. Corpus counts ride on a broadcast vocab dict
(vocabularies fit memory by Heaps' law; swap for
relational.lookup_join beyond that).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def levenshtein(a: str, b: str) -> int:
    """Exact DP edit distance (insert/delete/substitute, unit costs)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _variants(tok: str, max_d: int) -> set[str]:
    """All strings reachable by deleting 0..max_d characters."""
    out = {tok}
    n = len(tok)
    for d in range(1, min(max_d, n) + 1):
        for drop in combinations(range(n), d):
            keep = [c for i, c in enumerate(tok) if i not in drop]
            out.add("".join(keep))
    return out


def token_vocab(docs: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    """Distinct whitespace tokens with corpus counts (tok, n) — the
    per-batch Arrow count partial bounds the one shuffle by each
    batch's distinct tokens."""

    def partial(t: pa.Table) -> pa.Table:
        words = pc.list_flatten(pc.split_pattern(t[text_col], " "))
        g = pa.table({"tok": words}).group_by("tok").aggregate(
            [([], "count_all")])
        return pa.table({"tok": g["tok"],
                         "n": g["count_all"].cast(pa.int64())})

    return (docs.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
            .groupby("tok").sum("n"))


def fuzzy_token_pairs(
    docs: rd.Dataset,
    text_col: str = "text",
    max_d: int = 2,
    max_bucket: int = 10_000,
) -> rd.Dataset:
    """All distinct token pairs (tok_a < tok_b) with
    lev(tok_a, tok_b) <= max_d, plus both corpus counts. Columns:
    tok_a, tok_b, dist, n_a, n_b."""
    vocab = token_vocab(docs, text_col).materialize()  # vocab-scale

    def expand(t: pa.Table) -> pa.Table:
        from battery.ops.hashing import hash_strings

        toks = t["tok"].to_pylist()
        vs, ts = [], []
        for tok in toks:  # vocab-scale loop, not corpus-scale
            for v in _variants(tok, max_d):
                vs.append(v)
                ts.append(tok)
        va = pa.array(vs, pa.string())
        b = (hash_strings(va) % np.uint64(64)).astype(np.int64)
        return pa.table({"v": va, "tok": pa.array(ts, pa.string()),
                         "bucket": pa.array(b)})

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # many variants per hash bucket: one lexsort groups them, the
        # python loop runs only over variants shared by >= 2 tokens
        # (near-dup-density bounded), all-pairs per run via triu
        v = df["v"].to_numpy()
        tok = df["tok"].to_numpy()
        order = np.lexsort([tok, v])
        v, tok = v[order], tok[order]
        keep = np.r_[True, (v[1:] != v[:-1]) | (tok[1:] != tok[:-1])]
        v, tok = v[keep], tok[keep]
        new = np.r_[True, v[1:] != v[:-1]]
        start = np.flatnonzero(new)
        cnt = np.diff(np.r_[start, len(v)])
        assert cnt.max(initial=0) <= max_bucket, (
            "fuzzy_token_pairs hot variant bucket — band tokens by "
            "length upstream or raise max_bucket")
        pairs: list[str] = []
        for s, c in zip(start[cnt >= 2], cnt[cnt >= 2]):
            run = tok[s:s + c]
            ia, ib = np.triu_indices(c, k=1)
            # one string key per candidate pair so the dedup groupby
            # is single-key (multi-key-groupby law)
            # separator is a space: tokens are whitespace-split so it
            # cannot collide (numpy's U dtype strips trailing NULs, so
            # \x00 is unusable here)
            pairs.extend(np.char.add(np.char.add(
                run[ia].astype(str), " "), run[ib].astype(str)))
        return pd.DataFrame({"pair": pd.Series(pairs, dtype=str)})

    cand = (vocab.map_batches(expand, batch_format="pyarrow")
            .groupby("bucket").map_groups(bucket_pairs,
                                          batch_format="pandas")
            .groupby("pair").count())  # dedup pairs shared by variants

    counts_ref = ray.put({r["tok"]: r["sum(n)"]
                          for r in vocab.take_all()})

    def verify(t: pa.Table) -> pa.Table:
        from geotile.ops.join import _get_broadcast

        counts = _get_broadcast(counts_ref)
        a_out, b_out, d_out = [], [], []
        for pair in t["pair"].to_pylist():
            a, b = pair.split(" ")
            if abs(len(a) - len(b)) > max_d:
                continue  # cheap length gate before the DP
            d = levenshtein(a, b)
            if d <= max_d:
                a_out.append(a)
                b_out.append(b)
                d_out.append(d)
        return pa.table({
            "tok_a": pa.array(a_out, pa.string()),
            "tok_b": pa.array(b_out, pa.string()),
            "dist": pa.array(d_out, pa.int64()),
            "n_a": pa.array([counts[x] for x in a_out], pa.int64()),
            "n_b": pa.array([counts[x] for x in b_out], pa.int64()),
        })

    return cand.map_batches(verify, batch_format="pyarrow")
