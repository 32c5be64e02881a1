"""Round-3 batch: LCA two ways, Zeller's congruence, Horner vs
Estrin — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _POLY_M,
    ORACLE_SQL,
    QUERIES,
    _bfs_tree,
    _estrin_mod,
    _horner_mod,
    _lca_binary_lift,
    _lca_euler_rmq,
    _lca_sql,
    _poly_sql,
    _zeller_dow,
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


# -- LCA -------------------------------------------------------------------------


def _tree(edges, root=0):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return _bfs_tree(adj, root)


def test_lca_chain_and_star():
    # chain 0-1-2-3: lca(1,3)=1, lca(0,3)=0, lca(2,2)=2
    parent, depth, order = _tree([(0, 1), (1, 2), (2, 3)])
    ps = [(1, 3), (0, 3), (2, 2), (3, 2)]
    assert _lca_binary_lift(parent, depth, ps) == [1, 0, 2, 2]
    assert _lca_euler_rmq(parent, depth, order, ps) == [1, 0, 2, 2]
    # star: lca of two leaves is the hub
    parent, depth, order = _tree([(0, 1), (0, 2), (0, 3)])
    assert _lca_binary_lift(parent, depth, [(1, 2), (2, 3)]) == [0, 0]


def test_lca_lift_vs_euler_random():
    rng = np.random.default_rng(467)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        parent, depth, order = _tree(edges)
        ps = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
              for _ in range(12)]
        assert _lca_binary_lift(parent, depth, ps) \
            == _lca_euler_rmq(parent, depth, order, ps)


def test_oracle_parity_lca(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lca_binarylift_dups"](SF),
         con.execute(_lca_sql(SF)).df())


# -- Zeller ----------------------------------------------------------------------


def test_zeller_known_dates():
    # 2000-01-01 was a Saturday (ISO 6); 1995-06-15 Thursday (4);
    # 2024-02-29 leap day Thursday (4); 1900-03-01 Thursday (4)
    y = np.array([2000, 1995, 2024, 1900], np.int64)
    m = np.array([1, 6, 2, 3], np.int64)
    d = np.array([1, 15, 29, 1], np.int64)
    assert _zeller_dow(y, m, d).tolist() == [6, 4, 4, 4]


def test_zeller_vs_python_datetime():
    import datetime

    rng = np.random.default_rng(479)
    for _ in range(100):
        yy = int(rng.integers(1900, 2100))
        mm = int(rng.integers(1, 13))
        dd = int(rng.integers(1, 28))
        iso = datetime.date(yy, mm, dd).isoweekday()
        got = _zeller_dow(np.array([yy], np.int64),
                          np.array([mm], np.int64),
                          np.array([dd], np.int64))[0]
        assert got == iso, (yy, mm, dd)


def test_oracle_parity_zeller(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    got = QUERIES["zeller_dow_orders"](SF)
    assert int(got["n"].sum()) > 0
    _cmp(got, con.execute(ORACLE_SQL["zeller_dow_orders"]).df())


# -- Horner / Estrin -------------------------------------------------------------


def test_poly_monomial_and_constant():
    assert _horner_mod([7], 999) == 7
    assert _estrin_mod([7], 999) == 7
    assert _horner_mod([0, 0, 1], 5) == 25
    assert _estrin_mod([0, 0, 1], 5) == 25
    assert _horner_mod([], 3) == 0
    assert _estrin_mod([], 3) == 0


def test_poly_horner_vs_estrin_random():
    rng = np.random.default_rng(487)
    for _ in range(60):
        n = int(rng.integers(0, 80))
        coef = rng.integers(0, 10000, n).tolist()
        x = int(rng.integers(0, _POLY_M))
        assert _horner_mod(coef, x) == _estrin_mod(coef, x)


def test_oracle_parity_poly(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["horner_estrin_days"](SF),
         con.execute(_poly_sql(SF)).df())
