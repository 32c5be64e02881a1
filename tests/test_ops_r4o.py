"""Round-3 batch: sparse-table RMQ, FFD bin packing, optimal BST —
kernel pins, independent cross-checks, sf0.001 parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _ffd_bins,
    _ffd_bins_replay,
    _ffd_sql,
    _FFD_CAP,
    _obst_cubic,
    _obst_knuth,
    _obst_sql,
    _pack_optimal,
    _rmq_query,
    _rmq_sparse,
    _rmq_sql,
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


# -- RMQ -------------------------------------------------------------------------


def test_rmq_known_and_ties():
    n = np.array([5, 3, 7, 3, 9], np.int64)
    tabs = _rmq_sparse(n)
    lo = np.array([0, 1, 0, 2], np.int64)
    hi = np.array([4, 3, 0, 4], np.int64)
    mn, am = _rmq_query(tabs, len(n), lo, hi)
    assert mn.tolist() == [3, 3, 5, 3]
    # tie at value 3 (idx 1 and 3): earliest index wins
    assert am.tolist() == [1, 1, 0, 3]


def test_rmq_vs_naive_random():
    rng = np.random.default_rng(103)
    for _ in range(10):
        D = int(rng.integers(1, 60))
        n = rng.integers(0, 50, D).astype(np.int64)
        tabs = _rmq_sparse(n)
        lo = rng.integers(0, D, 40).astype(np.int64)
        hi = rng.integers(0, D, 40).astype(np.int64)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        mn, am = _rmq_query(tabs, D, lo, hi)
        for k in range(40):
            seg = n[lo[k]:hi[k] + 1]
            assert mn[k] == seg.min()
            assert am[k] == lo[k] + int(np.argmin(seg))


def test_oracle_parity_rmq(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["rmq_day_ranges"](SF),
         con.execute(_rmq_sql(SF)).df())


# -- FFD -------------------------------------------------------------------------


def test_ffd_known():
    # cap 4096: [3000, 3000, 1000, 1000] -> FFD: 3000+1000 twice
    ws = [3000, 1000, 3000, 1000]
    assert _ffd_bins(ws) == 2
    assert _ffd_bins_replay(ws) == 2
    assert _ffd_bins([]) == 0
    assert _ffd_bins([4096]) == 1
    assert _ffd_bins([4096, 1]) == 2


def test_ffd_vs_replay_random_and_lb():
    rng = np.random.default_rng(107)
    for _ in range(30):
        k = int(rng.integers(0, 25))
        ws = rng.integers(1, 1001, k).tolist()
        b = _ffd_bins(ws)
        assert b == _ffd_bins_replay(ws)
        lb = -(-sum(ws) // _FFD_CAP)
        assert lb <= b


def test_ffd_near_optimal_small():
    rng = np.random.default_rng(109)
    for _ in range(10):
        k = int(rng.integers(1, 9))
        ws = rng.integers(500, 3000, k).tolist()
        opt = _pack_optimal(ws)
        ffd = _ffd_bins(ws)
        assert opt <= ffd <= max(opt + 1, (11 * opt + 6) // 9)


def test_oracle_parity_ffd(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["ffd_binpack_weekly"](SF),
         con.execute(_ffd_sql(SF)).df())


# -- OBST ------------------------------------------------------------------------


def test_obst_known_small():
    # single key: cost = w; two keys: lighter one goes deeper
    assert _obst_knuth([7]) == 7
    assert _obst_knuth([]) == 0
    assert _obst_knuth([5, 1]) == 5 + 2 * 1
    assert _obst_knuth([1, 5]) == 5 + 2 * 1
    # skew: hot key at root beats balanced
    w = [10, 1, 1]
    # root=key0: 10 + 2·(1) + 3·(1) = 15 ... balanced root=key1: 10·2+1+1·2 = 23
    assert _obst_knuth(w) == 15
    assert _obst_cubic(w) == 15


def test_obst_equal_weights_balanced():
    # 3 equal keys: balanced tree: 1+2+2 = 5·w
    assert _obst_knuth([4, 4, 4]) == 4 * 5
    assert _obst_cubic([4, 4, 4]) == 20


def test_obst_knuth_vs_cubic_random():
    rng = np.random.default_rng(113)
    for _ in range(30):
        n = int(rng.integers(0, 14))
        w = rng.integers(1, 40, n).tolist()
        assert _obst_knuth(w) == _obst_cubic(w)


def test_oracle_parity_obst(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["obst_sources"](SF),
         con.execute(_obst_sql(SF)).df())
