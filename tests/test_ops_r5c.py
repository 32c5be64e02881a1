"""Round-3 batch: BWT roundtrip, Wiener index, 2-opt gap — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _bwt_inverse_columns,
    _bwt_inverse_lf,
    _bwt_inverse_pairs,
    _bwt_rotations,
    _bwt_sa,
    _bwtrt_sql,
    _held_karp,
    _image_dir_for,
    _nn_tour,
    _t2o_sql,
    _tour_cost,
    _two_opt,
    _wiener_bfs,
    _wiener_fw,
    _wiener_sql,
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


# -- BWT -------------------------------------------------------------------------


def test_bwt_banana_pin():
    assert _bwt_sa(b"banana") == b"annb\x00aa"
    assert _bwt_rotations(b"banana") == b"annb\x00aa"
    assert _bwt_inverse_lf(b"annb\x00aa") == b"banana"
    assert _bwt_inverse_pairs(b"annb\x00aa") == b"banana"
    assert _bwt_inverse_columns(b"annb\x00aa") == b"banana"


def test_bwt_four_way_random():
    rng = np.random.default_rng(443)
    for _ in range(40):
        n = int(rng.integers(0, 40))
        s = bytes(rng.integers(97, 101, n).tolist())
        L1 = _bwt_sa(s)
        L2 = _bwt_rotations(s)
        assert L1 == L2
        assert _bwt_inverse_lf(L1) == s
        assert _bwt_inverse_pairs(L1) == s
        if n <= 20:
            assert _bwt_inverse_columns(L1) == s


def test_bwt_clusters_runs():
    # BWT groups same-context chars: repetitive text → fewer runs
    rep = b"abcabcabcabcabcabc"
    arr = np.frombuffer(_bwt_sa(rep), np.uint8)
    runs = 1 + int((arr[1:] != arr[:-1]).sum())
    assert runs <= 6


def test_oracle_parity_bwt(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["bwt_roundtrip_docs"](SF),
         con.execute(_bwtrt_sql(SF)).df())


# -- Wiener ----------------------------------------------------------------------


def _adj(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def test_wiener_closed_forms():
    # path P4: W = 1+2+3 + 1+2 + 1 = 10
    adj = _adj([(0, 1), (1, 2), (2, 3)])
    assert _wiener_fw([0, 1, 2, 3], adj)[0] == 10
    assert _wiener_bfs([0, 1, 2, 3], adj)[0] == 10
    # star K1,3: 3 spokes + 3 pairs at 2 = 3 + 6 = 9
    adj = _adj([(9, 0), (9, 1), (9, 2)])
    assert _wiener_fw([0, 1, 2, 9], adj)[0] == 9
    # C5: per vertex 1+1+2+2 = 6, ×5/2 = 15
    adj = _adj([(i, (i + 1) % 5) for i in range(5)])
    assert _wiener_fw(list(range(5)), adj)[0] == 15
    assert _wiener_bfs(list(range(5)), adj)[0] == 15


def test_wiener_fw_vs_bfs_random():
    rng = np.random.default_rng(449)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            continue
        adj = _adj(edges)
        nodes = sorted(adj)
        assert _wiener_fw(nodes, adj)[0] == _wiener_bfs(nodes, adj)[0]


def test_oracle_parity_wiener(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["wiener_index_dups"](SF),
         con.execute(_wiener_sql(SF)).df())


# -- 2-opt gap -------------------------------------------------------------------


def test_two_opt_uncrosses():
    # the crossing square: NN visits corners in a crossing order on
    # this layout; 2-opt must uncross to the perimeter
    pts = [(0, 0), (10, 10), (10, 0), (0, 10)]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts]
            for a in pts]
    tour = [0, 1, 2, 3]   # crossing tour
    t2 = _two_opt(dist, tour)
    assert _tour_cost(dist, t2) == _held_karp(dist) == 40
    assert _tour_cost(dist, tour) > 40


def test_heuristic_ordering_random():
    rng = np.random.default_rng(457)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        xs = rng.integers(0, 50, n)
        ys = rng.integers(0, 50, n)
        dist = [[int(abs(xs[i] - xs[j]) + abs(ys[i] - ys[j]))
                 for j in range(n)] for i in range(n)]
        nn = _nn_tour(dist)
        t2 = _two_opt(dist, nn)
        opt = _held_karp(dist)
        assert _tour_cost(dist, nn) >= _tour_cost(dist, t2) >= opt


def test_two_opt_not_always_optimal():
    # known 2-opt trap exists for SOME instance: search a small space
    # until a strict gap appears (deterministic scan, no randomness)
    found = False
    rng = np.random.default_rng(461)
    for _ in range(200):
        n = 7
        xs = rng.integers(0, 30, n)
        ys = rng.integers(0, 30, n)
        dist = [[int(abs(xs[i] - xs[j]) + abs(ys[i] - ys[j]))
                 for j in range(n)] for i in range(n)]
        t2 = _two_opt(dist, _nn_tour(dist))
        if _tour_cost(dist, t2) > _held_karp(dist):
            found = True
            break
    assert found


def test_oracle_parity_t2o(ray_session):
    con = duckdb.connect()
    got = QUERIES["tsp_2opt_gap_cells"](SF)
    r = got.iloc[0]
    assert r["nn_cost"] >= r["two_opt_cost"] >= r["optimal_cost"]
    _cmp(got, con.execute(_t2o_sql(_image_dir_for(SF))).df())
