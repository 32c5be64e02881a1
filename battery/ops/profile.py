"""Dataset profiling — the data-quality summary every ingest pipeline
runs before training: per-column null count, EXACT distinct count, and
min/max, in one long-format table.

Scale shape: two distributed passes, nothing driver-side until the
final column-count-sized epilogue.

- Pass A (bounds): each batch reduces to ONE row per profiled column
  (null count + min/max), so the exchange is column-cardinality — a
  constant — regardless of corpus size. Numeric values ride as
  zero-padded decimal strings (lexicographic == numeric for the
  asserted non-negative domains) so one string min/max kernel serves
  every kind.
- Pass B (distinct): each batch emits its DISTINCT ``col\\x00repr``
  keys (Arrow group_by — the per-batch combiner), the one real shuffle
  then carries distinct values only; a column-scale count finishes it.

Floats are profiled on an explicit fixed-point lattice (``cents``) and
timestamps as epoch-µs ints, so distinct/min/max are exact and
bit-reproducible against a SQL replay (raw doubles would tie the
result to printf formatting).

Reference parity: generalizes the reference's per-table logStats
counters (src/lib/log-utils.ts logStats) from row counts to full
column profiles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Max, Min, Sum

_PAD = 20  # int64 max is 19 digits; non-negative contract asserted


def _repr_col(t: pa.Table, col: str, kind: str) -> pa.Array:
    """String representation whose lexicographic order matches the
    value order: raw for strings, zero-padded decimal for ints /
    cents-lattice doubles / epoch-µs timestamps."""
    if kind == "str":
        return t[col].combine_chunks()
    if kind == "int":
        v = t[col].cast(pa.int64())
    elif kind == "cents":
        v = pc.floor(pc.add(pc.multiply(t[col], pa.scalar(100.0)),
                            pa.scalar(0.5))).cast(pa.int64())
    elif kind == "ts_us":
        v = t[col].cast(pa.int64())
    else:  # pragma: no cover - caller contract
        raise ValueError(f"unknown profile kind {kind!r}")
    assert pc.min(v).as_py() is None or pc.min(v).as_py() >= 0, \
        f"profile padding contract: {col} must be non-negative"
    return pc.utf8_lpad(v.cast(pa.string()), _PAD, "0")


def _unpad(s: str, kind: str) -> str:
    return s if kind == "str" else str(int(s))


def profile_dataset(ds: rd.Dataset, spec: dict[str, str]) -> pd.DataFrame:
    """Profile ``ds``'s columns per ``spec`` (col -> kind in
    {'int','cents','ts_us','str'}). Returns a column-count-sized
    pandas frame: col, nulls, n_distinct, min_v, max_v."""
    cols = list(spec)

    def bounds(t: pa.Table) -> pa.Table:
        names, nulls, mns, mxs = [], [], [], []
        for c in cols:
            r = _repr_col(t, c, spec[c])
            names.append(c)
            nulls.append(t[c].null_count)
            mns.append(pc.min(r).as_py())
            mxs.append(pc.max(r).as_py())
        return pa.table({"col": pa.array(names, pa.string()),
                         "nulls": pa.array(nulls, pa.int64()),
                         "mn": pa.array(mns, pa.string()),
                         "mx": pa.array(mxs, pa.string())})

    a = (ds.map_batches(bounds, batch_format="pyarrow", zero_copy_batch=True)
         .groupby("col")
         .aggregate(Sum("nulls"), Min("mn"), Max("mx"))
         .to_pandas())

    def distinct_keys(t: pa.Table) -> pa.Table:
        from battery.ops.hashing import hash_strings

        parts = []
        for c in cols:
            r = _repr_col(t, c, spec[c]).drop_null()
            k = pc.binary_join_element_wise(
                pa.array(np.full(len(r), c), pa.string()), r, "\x00")
            parts.append(pa.table({"k": k}))
        merged = pa.concat_tables(parts)
        merged = merged.group_by("k").aggregate([])
        # composite (h64, k) grouping: the sort-based distinct shuffle
        # compares 8-byte hashes and only falls back to the string on
        # ties — key-width-independent, still collision-exact (the
        # exact_dedup trick; neutral at sf0.1's 16-byte reprs, the win
        # grows with key width). NB batch_size bundling makes THIS op
        # slower (measured 7 -> 29s warm): the distinct partial is
        # key-cardinality-bound, not block-count-bound, and bundling
        # just serializes the read.
        h = hash_strings(merged["k"].combine_chunks()).view(np.int64)
        return merged.append_column("h64", pa.array(h))

    def count_per_col(t: pa.Table) -> pa.Table:
        c = pc.split_pattern(t["k"], "\x00")
        first = pc.list_element(c, 0)
        return (pa.table({"col": first}).group_by("col")
                .aggregate([([], "count_all")])
                .rename_columns(["col", "n_distinct"]))

    b = (ds.map_batches(distinct_keys, batch_format="pyarrow",
                        zero_copy_batch=True)
         .groupby(["h64", "k"]).count()  # distinct keys, hash-first sort
         .map_batches(lambda t: count_per_col(t), batch_format="pyarrow")
         .groupby("col").sum("n_distinct")
         .to_pandas())

    a = a.rename(columns={"sum(nulls)": "nulls", "min(mn)": "mn",
                          "max(mx)": "mx"})
    b = b.rename(columns={"sum(n_distinct)": "n_distinct"})
    out = a.merge(b, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    out["min_v"] = [_unpad(s, spec[c]) for c, s in zip(out["col"], out["mn"])]
    out["max_v"] = [_unpad(s, spec[c]) for c, s in zip(out["col"], out["mx"])]
    return (out[["col", "nulls", "n_distinct", "min_v", "max_v"]]
            .sort_values("col").reset_index(drop=True))
