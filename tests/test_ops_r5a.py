"""Round-3 batch: CELF coverage, Shapley-Shubik power, widest path —
pins, independent cross-checks, parity."""

import math

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _celf_sql,
    _greedy_cover_celf,
    _greedy_cover_plain,
    _image_dir_for,
    _shap_sql,
    _shubik_pivots_dp,
    _shubik_pivots_enum,
    _widest_dijkstra,
    _widest_sql,
    _widest_threshold_bfs,
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


# -- CELF ------------------------------------------------------------------------


def test_celf_equals_plain_random():
    rng = np.random.default_rng(409)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        universe = int(rng.integers(5, 40))
        sets = [set(rng.integers(0, universe,
                                 rng.integers(0, 8)).tolist())
                for _ in range(n)]
        k = int(rng.integers(1, 6))
        assert _greedy_cover_celf(sets, k) \
            == _greedy_cover_plain(sets, k)


def test_greedy_cover_known():
    sets = [{1, 2, 3}, {3, 4}, {5}, {1, 2}]
    chosen, cov = _greedy_cover_plain(sets, 2)
    assert chosen == [0, 1] and cov == 4
    # stops early when nothing new remains
    chosen, cov = _greedy_cover_plain([{1}, {1}], 2)
    assert chosen == [0] and cov == 1


def test_oracle_parity_celf(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["celf_coverage_tiles"](SF),
         con.execute(_celf_sql(_image_dir_for(SF))).df())


# -- Shapley-Shubik --------------------------------------------------------------


def test_shubik_dictator_and_dummy():
    # dictator: weight ≥ quota alone → pivotal in ALL n! orders
    piv = _shubik_pivots_dp([10, 1, 1], 10)
    assert piv == [6, 0, 0]
    assert _shubik_pivots_enum([10, 1, 1], 10) == [6, 0, 0]
    # symmetric players split evenly
    piv = _shubik_pivots_dp([1, 1, 1], 2)
    assert piv == [2, 2, 2]


def test_shubik_famous_un_example():
    # [5; 3, 2, 1, 1]: classic power ≠ weight illustration — player
    # weights 2 and 1 can have equal or surprising power; verify DP
    # against full enumeration
    w = [3, 2, 1, 1]
    assert _shubik_pivots_dp(w, 5) == _shubik_pivots_enum(w, 5)
    assert sum(_shubik_pivots_dp(w, 5)) == math.factorial(4)


def test_shubik_dp_vs_enum_random():
    rng = np.random.default_rng(419)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        w = rng.integers(1, 10, n).tolist()
        q = int(rng.integers(1, sum(w) + 1))
        assert _shubik_pivots_dp(w, q) == _shubik_pivots_enum(w, q)


def test_oracle_parity_shapley(ray_session):
    con = duckdb.connect()
    got = QUERIES["shapley_power_nations"](SF)
    assert int(got["pivotal_orders"].sum()) == math.factorial(len(got))
    _cmp(got, con.execute(_shap_sql(SF)).df())


# -- widest path -----------------------------------------------------------------


def _mk(cells):
    occ = {c: n for c, n in cells.items()}

    def adj4(c):
        tx, ty = c >> 22, c & ((1 << 22) - 1)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yield ((tx + dx) << 22) + (ty + dy)

    return occ, adj4


def _cell(x, y):
    return (x << 22) + y


def test_widest_chain_bottleneck():
    # chain 10 - 3 - 10: bottleneck = 3
    occ, adj = _mk({_cell(0, 0): 10, _cell(1, 0): 3, _cell(2, 0): 10})
    assert _widest_threshold_bfs(occ, adj, _cell(0, 0),
                                 _cell(2, 0)) == 3
    assert _widest_dijkstra(occ, adj, _cell(0, 0), _cell(2, 0)) == 3


def test_widest_two_routes_picks_better():
    # two parallel corridors: maximin takes the wider one (5 > 2)
    occ, adj = _mk({_cell(0, 0): 9,
                    _cell(1, 0): 2, _cell(2, 0): 9,   # bottom route
                    _cell(0, 1): 5, _cell(1, 1): 5,
                    _cell(2, 1): 5})
    a, b = _cell(0, 0), _cell(2, 0)
    assert _widest_threshold_bfs(occ, adj, a, b) == 5
    assert _widest_dijkstra(occ, adj, a, b) == 5


def test_widest_disconnected_zero():
    occ, adj = _mk({_cell(0, 0): 4, _cell(5, 5): 4})
    assert _widest_threshold_bfs(occ, adj, _cell(0, 0),
                                 _cell(5, 5)) == 0
    assert _widest_dijkstra(occ, adj, _cell(0, 0), _cell(5, 5)) == 0


def test_widest_bfs_vs_dijkstra_random():
    rng = np.random.default_rng(421)
    for _ in range(25):
        w = int(rng.integers(2, 6))
        h = int(rng.integers(2, 6))
        occ = {}
        for x in range(w):
            for y in range(h):
                if rng.random() < 0.8:
                    occ[_cell(x, y)] = int(rng.integers(1, 20))
        occ2, adj = _mk(occ)
        ks = sorted(occ2)
        if len(ks) < 2:
            continue
        a, b = ks[0], ks[-1]
        assert _widest_threshold_bfs(occ2, adj, a, b) \
            == _widest_dijkstra(occ2, adj, a, b)


def test_oracle_parity_widest(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["widest_path_cells"](SF),
         con.execute(_widest_sql(_image_dir_for(SF))).df())
