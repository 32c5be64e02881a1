"""Round-3 batch: V-optimal weekly histogram, sign-LSH bucket balance,
buffer shoelace audit — kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    QUERIES,
    _buffer_area_sql,
    _lsh_balance_sql,
    _vopt_dp,
    _vopt_sql,
)

SF = "/root/testdata/sf0.001"


def _canon(df):
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _cmp(got, exp):
    g, x = _canon(got), _canon(exp)
    assert list(g.columns) == list(x.columns)
    assert len(g) == len(x)
    for c in g.columns:
        assert (g[c].to_numpy() == x[c].to_numpy()).all(), c


# -- V-optimal DP kernel ----------------------------------------------------


def test_vopt_two_level_series():
    # 4 low + 4 high values, B=8 but only 2 "natural" buckets: the DP
    # must reach total cost 0 by splitting exactly at the jump (with 8
    # buckets available and 8 points, every point gets its own bucket)
    xs = [10, 10, 10, 10, 99, 99, 99, 99]
    bounds, costs = _vopt_dp(xs)
    assert sum(costs) == 0
    assert sum(j - i for i, j in bounds) == len(xs)


def test_vopt_exhaustive_small():
    # exhaustive check against all 2-split partitions of a 6-point
    # series with B constrained by n (n < _VOPT_B -> k = n buckets,
    # so use a longer series to force real merging)
    xs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]   # n=11 > B=8 -> merging
    bounds, costs = _vopt_dp(xs)

    def cost(seg):
        n = len(seg)
        s = sum(seg)
        ss = sum(v * v for v in seg)
        return n * ss - s * s

    import itertools
    n = len(xs)
    best = None
    for splits in itertools.combinations(range(1, n), 7):  # 8 buckets
        cuts = [0, *splits, n]
        tot = sum(cost(xs[a:b]) for a, b in zip(cuts, cuts[1:]))
        best = tot if best is None or tot < best else best
    assert sum(costs) == best


def test_vopt_monotone_in_buckets():
    xs = [3, 1, 4, 1, 5, 9, 2, 6]
    bounds, costs = _vopt_dp(xs)
    # 8 points, 8 buckets -> every bucket is a single point, cost 0
    assert sum(costs) == 0


# -- LSH balance invariant --------------------------------------------------


def test_lsh_mass(ray_session):
    got = QUERIES["lsh_bucket_balance_embeddings"](SF).to_pandas()
    # Σ bucket_size · n_buckets = number of vectors (500 at sf0.001)
    assert int((got["bucket_size"] * got["n_buckets"]).sum()) == 500


# -- sf0.001 oracle parity --------------------------------------------------


def test_oracle_parity_vopt(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["voptimal_hist_weekly"](SF),
         con.execute(_vopt_sql(SF)).df())


def test_oracle_parity_lsh(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lsh_bucket_balance_embeddings"](SF),
         con.execute(_lsh_balance_sql(SF)).df())


def test_oracle_parity_buffer_area(ray_session):
    con = duckdb.connect()
    got = QUERIES["buffer_area_audit_routes"](SF)
    _cmp(got, con.execute(_buffer_area_sql()).df())
    g = got.to_pandas() if hasattr(got, "to_pandas") else got
    # buffers are nondegenerate: every route has positive area
    assert (g["abs_area2_e12"] > 0).all()
