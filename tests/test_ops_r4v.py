"""Round-3 batch: JSON projection, stress centrality, Borůvka rounds
— pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _boruvka,
    _boruvka_replay,
    _boruvka_sql,
    _image_dir_for,
    _mst_prim,
    _stress_all,
    _stress_enum,
    _stress_sql,
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


# -- JSON projection -------------------------------------------------------------


def test_oracle_parity_json(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    _cmp(QUERIES["json_props_stats"](SF),
         con.execute(ORACLE_SQL["json_props_stats"]).df())


# -- stress centrality -----------------------------------------------------------


def _adj(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def test_stress_star_and_path():
    # star: center carries every pair's unique path: C(3,2) = 3
    adj = _adj([(0, 9), (1, 9), (2, 9)])
    st = _stress_all(adj, [0, 1, 2, 9])
    assert st[9] == 3 and st[0] == st[1] == st[2] == 0
    assert _stress_enum(adj, [0, 1, 2, 9]) == st
    # path 0-1-2-3: stress(1) = pairs (0,2),(0,3) = 2; by symmetry 2
    adj = _adj([(0, 1), (1, 2), (2, 3)])
    st = _stress_all(adj, [0, 1, 2, 3])
    assert st[1] == 2 and st[2] == 2 and st[0] == st[3] == 0
    assert _stress_enum(adj, [0, 1, 2, 3]) == st


def test_stress_cycle_even_splits():
    # C4: each opposite pair has TWO shortest paths, one through each
    # intermediate → every vertex carries exactly 1
    adj = _adj([(0, 1), (1, 2), (2, 3), (3, 0)])
    st = _stress_all(adj, [0, 1, 2, 3])
    assert st == {0: 1, 1: 1, 2: 1, 3: 1}
    assert _stress_enum(adj, [0, 1, 2, 3]) == st


def test_stress_all_vs_enum_random():
    rng = np.random.default_rng(223)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.append((i, j))
        if not edges:
            continue
        adj = _adj(edges)
        nodes = sorted(adj)
        assert _stress_all(adj, nodes) == _stress_enum(adj, nodes)


def test_oracle_parity_stress(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["stress_centrality_dups"](SF),
         con.execute(_stress_sql(SF)).df())


# -- Borůvka ---------------------------------------------------------------------


def test_boruvka_weight_matches_prim_and_log_bound():
    rng = np.random.default_rng(227)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        ix = rng.integers(-80, 80, n).astype(np.int64)
        iy = rng.integers(-80, 80, n).astype(np.int64)
        w, r = _boruvka(ix, iy)
        assert w == _mst_prim(ix, iy)
        w2, r2 = _boruvka_replay(ix, iy)
        assert (w, r) == (w2, r2)
        if n > 1:
            assert r <= int(np.ceil(np.log2(n)))


def test_boruvka_one_round_on_star_spacing():
    # collinear geometric spacing 1, 2, 4: every component's min
    # edge chains them — still ≤ log2 rounds
    ix = np.array([0, 1, 3, 7], np.int64)
    iy = np.zeros(4, np.int64)
    w, r = _boruvka(ix, iy)
    assert w == _mst_prim(ix, iy) == 1 + 4 + 16
    assert r <= 2
    assert _boruvka_replay(ix, iy) == (w, r)


def test_boruvka_trivial():
    assert _boruvka(np.array([3], np.int64),
                    np.array([4], np.int64)) == (0, 0)
    assert _boruvka_replay(np.empty(0, np.int64),
                           np.empty(0, np.int64)) == (0, 0)


def test_oracle_parity_boruvka(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["boruvka_mst_cells"](SF),
         con.execute(_boruvka_sql(_image_dir_for(SF))).df())
