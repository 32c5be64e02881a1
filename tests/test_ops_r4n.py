"""Round-3 batch: Euclidean MST per cell, Gotoh affine alignment,
rho cycle census — kernel pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _gotoh_cost,
    _gotoh_dijkstra,
    _gotoh_sql,
    _image_dir_for,
    _mst_kruskal,
    _mst_prim,
    _mst_sql,
    _rho_brent,
    _rho_f,
    _rho_floyd,
    _rho_sql,
    _sm64_scalar_rho,
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


# -- MST -------------------------------------------------------------------------


def test_mst_collinear_and_square():
    # equally spaced collinear points: chain of n-1 edges of d²
    ix = np.arange(5, dtype=np.int64) * 7
    iy = np.zeros(5, np.int64)
    assert _mst_prim(ix, iy) == 4 * 49
    assert _mst_kruskal(ix.tolist(), iy.tolist()) == 4 * 49
    # unit square: 3 sides, never a diagonal
    ix = np.array([0, 10, 0, 10], np.int64)
    iy = np.array([0, 0, 10, 10], np.int64)
    assert _mst_prim(ix, iy) == 300
    assert _mst_kruskal(ix.tolist(), iy.tolist()) == 300


def test_mst_duplicates_and_small():
    ix = np.array([5, 5, 5], np.int64)
    iy = np.array([9, 9, 9], np.int64)
    assert _mst_prim(ix, iy) == 0
    assert _mst_prim(np.array([3], np.int64),
                     np.array([4], np.int64)) == 0
    assert _mst_kruskal([], []) == 0


def test_mst_prim_vs_kruskal_random():
    rng = np.random.default_rng(91)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        ix = rng.integers(-100, 100, n)
        iy = rng.integers(-100, 100, n)
        assert _mst_prim(ix.astype(np.int64), iy.astype(np.int64)) \
            == _mst_kruskal(ix.tolist(), iy.tolist())


def test_oracle_parity_mst(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["mst_cells_tiles"](SF),
         con.execute(_mst_sql(_image_dir_for(SF))).df())


# -- Gotoh -----------------------------------------------------------------------


def test_gotoh_identical_zero():
    a = "the fast key order".split()
    assert _gotoh_cost(a, a) == 0
    assert _gotoh_dijkstra(a, a) == 0


def test_gotoh_pure_gap():
    # empty vs k tokens: open + (k-1)·ext
    assert _gotoh_cost([], ["x", "y", "z"]) == 5 + 2
    assert _gotoh_cost(["x", "y", "z"], []) == 5 + 2
    assert _gotoh_dijkstra([], ["x", "y", "z"]) == 7
    assert _gotoh_cost([], []) == 0


def test_gotoh_gap_coalescing():
    # one coherent 2-token gap (open+2·ext... open + ext for 2nd) = 6
    a = ["c1", "c2", "c3", "c4"]
    b = ["c1", "c4"]
    assert _gotoh_cost(a, b) == 5 + 1
    assert _gotoh_dijkstra(a, b) == 6
    # two scattered deletions: the optimizer COALESCES them by paying
    # one mismatch (x↔c2) so 'c2 y' deletes as ONE gap — 3+5+1 = 9,
    # beating the two-open alignment's 10 (the affine hallmark)
    a2 = ["c1", "x", "c2", "y", "c3"]
    b2 = ["c1", "c2", "c3"]
    assert _gotoh_cost(a2, b2) == 9
    assert _gotoh_dijkstra(a2, b2) == 9
    # with gap-state switch costs, an UNRELATED pair pays opens twice
    a3 = ["u", "v"]
    b3 = ["p", "q", "r"]
    assert _gotoh_cost(a3, b3) == _gotoh_dijkstra(a3, b3)


def test_gotoh_mismatch_vs_gap():
    # single substitution (3) beats delete+insert (5+5)
    assert _gotoh_cost(["a", "b", "c"], ["a", "x", "c"]) == 3
    assert _gotoh_dijkstra(["a", "b", "c"], ["a", "x", "c"]) == 3


def test_gotoh_vec_vs_dijkstra_random():
    rng = np.random.default_rng(97)
    vocab = ["t%d" % i for i in range(5)]
    for _ in range(40):
        n = int(rng.integers(0, 10))
        m = int(rng.integers(0, 10))
        a = [vocab[i] for i in rng.integers(0, 5, n)]
        b = [vocab[i] for i in rng.integers(0, 5, m)]
        assert _gotoh_cost(a, b) == _gotoh_dijkstra(a, b), (a, b)


def test_oracle_parity_gotoh(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["gotoh_adjacent_docs"](SF),
         con.execute(_gotoh_sql(SF)).df())


# -- rho cycle -------------------------------------------------------------------


def _rho_brute(f, x0):
    seen = {}
    x = x0
    i = 0
    while x not in seen:
        seen[x] = i
        x = f(x)
        i += 1
    return seen[x], i - seen[x]


def test_rho_known_mapping():
    table = [1, 2, 3, 1]          # 0→1→2→3→1…
    f = lambda x: table[x]        # noqa: E731
    assert _rho_floyd(f, 0) == (1, 3)
    assert _rho_brent(f, 0) == (1, 3)
    assert _rho_brute(f, 0) == (1, 3)
    # start ON the cycle: μ=0
    assert _rho_floyd(f, 2) == (0, 3)
    assert _rho_brent(f, 2) == (0, 3)
    # fixed point
    g = lambda x: 7               # noqa: E731
    assert _rho_floyd(g, 7) == (0, 1)
    assert _rho_brent(g, 7) == (0, 1)
    assert _rho_floyd(g, 3) == (1, 1)


def test_rho_floyd_vs_brent_vs_brute_random():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        table = rng.integers(0, n, n).tolist()
        f = lambda x, t=table: t[x]   # noqa: E731
        x0 = int(rng.integers(0, n))
        b = _rho_brute(f, x0)
        assert _rho_floyd(f, x0) == b
        assert _rho_brent(f, x0) == b


def test_rho_scalar_matches_numpy_sm64():
    from geotile.synth import splitmix64

    for x in (0, 1, 4095, 123456789):
        assert _sm64_scalar_rho(x) == int(
            splitmix64(np.array([x], np.uint64))[0])
        assert _rho_f(x & 0xFFF) == _sm64_scalar_rho(x & 0xFFF) & 0xFFF


def test_oracle_parity_rho(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["rho_cycle_orders"](SF),
         con.execute(_rho_sql(SF)).df())
