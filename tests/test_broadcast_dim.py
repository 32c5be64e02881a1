"""Unit tests for the shared dim-broadcast primitives (VERDICT r3 #2).

``broadcast_dim`` is the size-capped vectorized replacement for the
driver-side ``take_all()`` + per-row-dict idiom; ``dim_lookup`` is the
verified searchsorted probe (the c15a306 dim-miss fix as a primitive).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from battery.ops.relational import broadcast_dim, dim_lookup


def _ds(tbl: pa.Table) -> rd.Dataset:
    return rd.from_arrow(tbl)


def test_broadcast_dim_sorts_by_key(ray_session):
    tbl = pa.table({"k": [5, 1, 9, 3], "v": ["e", "a", "i", "c"]})
    keys, out = broadcast_dim(_ds(tbl), "k")
    assert keys.tolist() == [1, 3, 5, 9]
    assert out["v"].to_pylist() == ["a", "c", "e", "i"]


def test_broadcast_dim_presorted_passthrough(ray_session):
    tbl = pa.table({"k": [1, 2, 3], "v": [10, 20, 30]})
    keys, out = broadcast_dim(_ds(tbl), "k")
    assert keys.tolist() == [1, 2, 3]
    assert out["v"].to_pylist() == [10, 20, 30]


def test_broadcast_dim_refuses_fact_scale(ray_session):
    tbl = pa.table({"k": list(range(100))})
    with pytest.raises(ValueError, match="bucketed_join"):
        broadcast_dim(_ds(tbl), "k", max_rows=10)


def test_dim_lookup_hit_and_miss(ray_session):
    keys = np.array([2, 4, 8], np.int64)
    idx, hit = dim_lookup(keys, np.array([1, 2, 5, 8, 9], np.int64))
    assert hit.tolist() == [False, True, False, True, False]
    # idx is clamped in-range even for misses (always safe to gather)
    assert (idx >= 0).all() and (idx < 3).all()
    assert keys[idx[hit]].tolist() == [2, 8]


def test_dim_lookup_empty_dim(ray_session):
    idx, hit = dim_lookup(np.array([], np.int64), np.array([1, 2], np.int64))
    assert not hit.any()
    assert len(idx) == 2


def test_broadcast_dim_all_filtered_empty(ray_session):
    tbl = pa.table({"k": [1, 2, 3], "v": [10, 20, 30]})
    ds = _ds(tbl).map_batches(
        lambda t: t.filter(pa.array([False] * len(t))),
        batch_format="pyarrow")
    keys, out = broadcast_dim(ds, "k")
    assert len(keys) == 0
    assert out.num_rows == 0
    # typed columns survive: gathering from the empty dim is safe
    assert out["v"].to_numpy(zero_copy_only=False).shape == (0,)
