"""Round-3 batch: NTT lag cross-correlation, hull-pruned diameter,
B-tree build plan — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _diam2_brute,
    _diam2_hull,
    _diam_sql,
    _image_dir_for,
    _ntt,
    _xcorr_direct,
    _xcorr_ntt,
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


# -- NTT -------------------------------------------------------------------------


def test_ntt_roundtrip():
    x = np.arange(16, dtype=np.int64)
    assert (_ntt(_ntt(x, False), True) == x).all()


def test_xcorr_impulse():
    # b = shifted impulse: xcorr picks out a at the shift
    a = np.array([3, 1, 4, 1, 5], np.int64)
    b = np.array([0, 0, 1, 0, 0], np.int64)
    got = _xcorr_ntt(a, b, 5)
    # c[l] = Σ a[d]·b[d+l]: b has its 1 at day 2 → c[l] = a[2-l]
    assert got.tolist() == [4, 1, 3, 0, 0]
    assert (_xcorr_direct(a, b, 5) == got).all()


def test_xcorr_autocorr_lag0_is_energy():
    a = np.array([2, 3, 1], np.int64)
    assert _xcorr_ntt(a, a, 1)[0] == 4 + 9 + 1


def test_xcorr_ntt_vs_direct_random():
    rng = np.random.default_rng(173)
    for _ in range(30):
        D = int(rng.integers(1, 100))
        L = int(rng.integers(1, 80))
        a = rng.integers(0, 12, D).astype(np.int64)
        b = rng.integers(0, 12, D).astype(np.int64)
        assert (_xcorr_ntt(a, b, L) == _xcorr_direct(a, b, L)).all()


def test_oracle_parity_ntt(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["ntt_lag_xcorr"](SF),
         con.execute(ORACLE_SQL["ntt_lag_xcorr"]).df())


# -- hull diameter ---------------------------------------------------------------


def test_diam_square_and_collinear():
    ix = np.array([0, 10, 0, 10], np.int64)
    iy = np.array([0, 0, 10, 10], np.int64)
    h, d2 = _diam2_hull(ix, iy)
    assert d2 == 200 == _diam2_brute(ix, iy)
    # collinear points: diameter = extremes
    ix = np.array([0, 3, 7, 11], np.int64)
    iy = np.zeros(4, np.int64)
    _, d2 = _diam2_hull(ix, iy)
    assert d2 == 121 == _diam2_brute(ix, iy)


def test_diam_hull_prunes_interior():
    # dense interior cloud + two far corners: hull is small, answer
    # is the corner pair
    rng = np.random.default_rng(179)
    ix = np.concatenate([rng.integers(40, 60, 50),
                         [0, 100]]).astype(np.int64)
    iy = np.concatenate([rng.integers(40, 60, 50),
                         [0, 100]]).astype(np.int64)
    h, d2 = _diam2_hull(ix, iy)
    assert d2 == 20000 == _diam2_brute(ix, iy)
    assert h < 20


def test_diam_singleton_and_dup():
    assert _diam2_hull(np.array([5], np.int64),
                       np.array([7], np.int64)) == (1, 0)
    ix = np.array([3, 3], np.int64)
    iy = np.array([3, 3], np.int64)
    _, d2 = _diam2_hull(ix, iy)
    assert d2 == 0 == _diam2_brute(ix, iy)


def test_diam_hull_vs_brute_random():
    rng = np.random.default_rng(181)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        ix = rng.integers(-50, 50, n).astype(np.int64)
        iy = rng.integers(-50, 50, n).astype(np.int64)
        _, d2 = _diam2_hull(ix, iy)
        assert d2 == _diam2_brute(ix, iy)


def test_oracle_parity_diam(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["hull_diameter_cells"](SF),
         con.execute(_diam_sql(_image_dir_for(SF))).df())


# -- btree -----------------------------------------------------------------------


def test_btree_hand_computed():
    got = QUERIES["btree_buildplan_orders"](SF)
    import duckdb as d

    n = d.connect().execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/orders.parquet')"
    ).fetchone()[0]
    row = got[got["fanout"] == 8].iloc[0]
    leaves = -(-n // 8)
    assert row["n_leaves"] == leaves
    # cascade by hand
    total, nodes, height = leaves, leaves, 1
    while nodes > 1:
        nodes = -(-nodes // 8)
        total += nodes
        height += 1
    assert row["total_nodes"] == total
    assert row["height"] == height


def test_oracle_parity_btree(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["btree_buildplan_orders"](SF),
         con.execute(ORACLE_SQL["btree_buildplan_orders"]).df())
