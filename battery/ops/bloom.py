"""Bloom-filter semi-join — the bandwidth-reduction prefilter for
key-membership joins whose key side is too large to broadcast raw.

Reference parity: the reference engine has no Bloom stage (its joins are
in-memory lodash lookups, ``src/lib/geojson-utils.ts``); this is one of
the beyond-reference scale operators the brief asks for.

Scale contract (the 100-TB story):
- Raw int64 keyset broadcast costs 8 bytes/key; the Bloom filter costs
  ``bits_per_key/8`` (default 10 bits → 1.25 bytes/key, ~6.4×
  smaller) with a ~1% false-positive rate — the difference between a
  filter that fits every worker's heap and one that does not.
- The filter is built DISTRIBUTED: each key batch sets bits in a local
  m-bit partial bitmap; partials are constant-size (m/8 bytes) so the
  driver OR-merge is filter-scale, never key-scale.
- Bloom has NO false negatives, so the prefilter pass is lossless; the
  surviving rows (true matches + ~1% false positives) then get an EXACT
  verify via the hash-bucketed co-partition join — the expensive exact
  join runs over the post-filter stream only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from geotile.synth import splitmix64

def _positions(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    """(n, k) bit positions for int64 keys — k independent splitmix64
    streams (seeded by (i+1)·0x9E3779B97F4A7C15), each reduced mod m.
    Vectorized."""
    x = keys.astype(np.int64).view(np.uint64)
    out = np.empty((len(keys), k), dtype=np.int64)
    for i in range(k):
        # wraparound seed constant computed in Python ints (no warning)
        seed = np.uint64(((i + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            h = splitmix64(x + seed)
        out[:, i] = (h % np.uint64(m)).astype(np.int64)
    return out


def bloom_build(keys: rd.Dataset, key: str, n_keys: int,
                bits_per_key: int = 10, k: int = 4) -> tuple["ray.ObjectRef", int, int]:
    """Distributed Bloom-filter build over a key column.

    Each batch emits ONE row holding its m-bit partial bitmap (packed
    uint64 words as binary); the driver ORs the constant-size partials
    and ``ray.put``s the final filter. Returns (filter_ref, m, k).
    """
    m = max(64, int(n_keys) * bits_per_key)
    m = (m + 63) // 64 * 64  # whole words
    words = m // 64

    def partial(t: pa.Table) -> pa.Table:
        bits = np.zeros(words, dtype=np.uint64)
        pos = _positions(t[key].to_numpy(zero_copy_only=False), m, k)
        np.bitwise_or.at(bits, pos.ravel() >> 6,
                         np.uint64(1) << (pos.ravel().view(np.uint64) & np.uint64(63)))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.large_binary())})

    merged = np.zeros(words, dtype=np.uint64)
    for row in keys.map_batches(partial, batch_format="pyarrow").take_all():
        merged |= np.frombuffer(row["bits"], dtype=np.uint64)
    return ray.put(merged), m, k


def bloom_prefilter(fact: rd.Dataset, key: str, filter_ref: "ray.ObjectRef",
                    m: int, k: int) -> rd.Dataset:
    """Keep fact rows whose key MIGHT be in the filter (no false
    negatives; ~1% false positives at 10 bits/key). The filter is
    fetched once per worker via the broadcast cache."""

    def fn(t: pa.Table) -> pa.Table:
        from geotile.ops.join import _get_broadcast

        bits = _get_broadcast(filter_ref)
        pos = _positions(t[key].to_numpy(zero_copy_only=False), m, k)
        hit = (bits[pos >> 6] >> (pos.view(np.uint64) & np.uint64(63))) & np.uint64(1)
        return t.filter(pa.array(hit.astype(bool).all(axis=1)))

    return fact.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def bloom_semi_join(fact: rd.Dataset, keys: rd.Dataset, fact_key: str,
                    keys_key: str, n_keys: int,
                    bits_per_key: int = 10, k: int = 4,
                    n_buckets: int = 32) -> rd.Dataset:
    """EXACT semi-join: Bloom prefilter pass (lossless, kills ~99% of
    non-matching rows before any shuffle) then a hash-bucketed
    co-partition verify of the survivors against the true keyset.

    ``keys`` must have unique ``keys_key`` values (the verify is an
    inner join; duplicate keys would duplicate fact rows). Caller
    passes ``n_keys`` (exact or upper bound) to size the filter —
    a materialized keys dataset makes ``count()`` metadata-cheap.
    """
    from battery.ops.relational import bucketed_join

    ref, m, kk = bloom_build(keys, keys_key, n_keys, bits_per_key, k)
    survivors = bloom_prefilter(fact, fact_key, ref, m, kk)
    kcols = keys.schema().names
    if kcols != [keys_key]:
        keys = keys.map_batches(lambda t: t.select([keys_key]),
                                batch_format="pyarrow")
    joined = bucketed_join(survivors, keys, fact_key, keys_key, n_buckets)
    # the bucketed join's union pads each side's missing columns with
    # nulls, which upcasts int64 through pandas to float64 — restore the
    # fact schema (a semi-join emits fact rows unchanged)
    fschema = fact.schema().base_schema

    def restore(t: pa.Table) -> pa.Table:
        cols = {n: t[n].cast(fschema.field(n).type) for n in fschema.names}
        return pa.table(cols)

    return joined.map_batches(restore, batch_format="pyarrow")
