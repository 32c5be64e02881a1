"""Round-3 batch: adjacent-doc LCS, LSM compaction sim, consistent-hash
ring rebalance — kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    QUERIES,
    _lcs_dp,
    _lcs_myers,
    _lcs_sql,
    _lsm_sim,
    _lsm_sql,
    _ring_sql,
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


# -- LCS kernels --------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,v",
    [([], [], 0),
     (["x"], [], 0),
     (["a", "b", "c"], ["a", "b", "c"], 3),
     (["a", "b", "c"], ["c", "b", "a"], 1),
     (["a", "x", "b", "y"], ["a", "b"], 2),
     (["t1", "t2", "t1"], ["t1", "t1"], 2)],
)
def test_lcs_known(a, b, v):
    assert _lcs_dp(a, b) == v
    assert _lcs_myers(a, b) == v


def test_lcs_dp_vs_myers_random():
    rng = np.random.default_rng(37)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(60):
        n, m = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        a = [vocab[i] for i in rng.integers(0, 6, n)]
        b = [vocab[i] for i in rng.integers(0, 6, m)]
        assert _lcs_dp(a, b) == _lcs_myers(a, b), (a, b)


# -- LSM sim kernels -----------------------------------------------------------


def test_lsm_cascade():
    # 16 equal flushes with fanout 4: 4 merges into T1 (4 each), then
    # those 4 merge into one T2 table — compaction = 4*4 + 16
    flushed, compacted, hist = _lsm_sim([1] * 16)
    assert flushed == 16
    assert compacted == 4 * 4 + 16
    assert hist == [(0, 0), (1, 0), (2, 1)]


def test_lsm_no_merge_below_fanout():
    flushed, compacted, hist = _lsm_sim([5, 7, 9])
    assert (flushed, compacted) == (21, 0)
    assert hist == [(0, 3)]


def test_lsm_conservation():
    rng = np.random.default_rng(41)
    fl = [int(x) for x in rng.integers(1, 100, 57)]
    flushed, compacted, hist = _lsm_sim(fl)
    assert flushed == sum(fl)
    # rows never vanish: compacted is a multiple-pass resum of flushed
    assert compacted >= 0


# -- ring rebalance invariants ---------------------------------------------------


def test_ring_moves_only_to_new_node(ray_session):
    got = QUERIES["ring_rebalance_orders"](SF)
    g = got.set_index("node")
    # nodes 0-3 keep identical vnode positions: every moved key lands
    # on the new node 4 (Karger's monotone-migration property)
    assert (g.loc[[0, 1, 2, 3], "moved_in"] == 0).all()
    assert int(g.loc[4, "moved_in"]) == int(g["total_moved"].iloc[0])
    assert int(g.loc[4, "keys_before"]) == 0
    assert int(g["keys_before"].sum()) == int(g["keys_after"].sum())


# -- sf0.001 oracle parity -------------------------------------------------------


def test_oracle_parity_lcs(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lcs_adjacent_docs"](SF), con.execute(_lcs_sql(SF)).df())


def test_oracle_parity_lsm(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lsm_compaction_sim_daily"](SF),
         con.execute(_lsm_sql(SF)).df())


def test_oracle_parity_ring(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["ring_rebalance_orders"](SF),
         con.execute(_ring_sql(SF)).df())
