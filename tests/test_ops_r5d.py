"""Round-3 batch: A* vs Dijkstra, lazy segment tree, cuckoo hashing
— pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _CK_TBL,
    QUERIES,
    _LazySegTree,
    _astar_sql,
    _cuckoo_insert,
    _cuckoo_insert_dict,
    _cuckoo_sql,
    _grid_search,
    _image_dir_for,
    _segtree_sql,
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


def _cell(x, y):
    return (x << 22) + y


# -- A* --------------------------------------------------------------------------


def test_astar_open_grid_beats_dijkstra():
    occ = {_cell(x, y) for x in range(12) for y in range(12)}
    a, b = _cell(0, 0), _cell(11, 11)
    dd, ed = _grid_search(occ, a, b, use_h=False)
    da, ea = _grid_search(occ, a, b, use_h=True)
    assert dd == da == 22
    assert ea < ed      # goal-direction prunes on an open grid


def test_astar_corridor_and_detour():
    # 1-wide corridor: both must walk it all
    occ = {_cell(x, 0) for x in range(10)}
    dd, ed = _grid_search(occ, _cell(0, 0), _cell(9, 0), False)
    da, ea = _grid_search(occ, _cell(0, 0), _cell(9, 0), True)
    assert dd == da == 9
    # wall forces a detour; distances still agree
    occ = {_cell(x, y) for x in range(7) for y in range(3)}
    occ -= {_cell(3, 0), _cell(3, 1)}
    dd, ed = _grid_search(occ, _cell(0, 0), _cell(6, 0), False)
    da, ea = _grid_search(occ, _cell(0, 0), _cell(6, 0), True)
    assert dd == da == 10
    assert ea <= ed


def test_astar_unreachable():
    occ = {_cell(0, 0), _cell(5, 5)}
    dd, _ = _grid_search(occ, _cell(0, 0), _cell(5, 5), False)
    da, _ = _grid_search(occ, _cell(0, 0), _cell(5, 5), True)
    assert dd == da == -1


def test_oracle_parity_astar(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["astar_cells"](SF),
         con.execute(_astar_sql(_image_dir_for(SF))).df())


# -- lazy segment tree -----------------------------------------------------------


def test_segtree_vs_brute_interleaved():
    rng = np.random.default_rng(463)
    for _ in range(15):
        n = int(rng.integers(1, 60))
        st = _LazySegTree(n)
        arr = [0] * n
        for _op in range(60):
            l = int(rng.integers(0, n))
            r = int(rng.integers(l, n))
            if rng.random() < 0.5:
                v = int(rng.integers(-5, 6))
                st.add(l, r, v)
                for i in range(l, r + 1):
                    arr[i] += v
            else:
                assert st.query(l, r) == sum(arr[l:r + 1])


def test_segtree_full_range():
    st = _LazySegTree(10)
    st.add(0, 9, 3)
    st.add(2, 4, 2)
    assert st.query(0, 9) == 30 + 6
    assert st.query(3, 3) == 5


def test_oracle_parity_segtree(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lazy_segtree_days"](SF),
         con.execute(_segtree_sql(SF)).df())


# -- cuckoo ----------------------------------------------------------------------


def test_cuckoo_lookup_two_slots():
    # whatever happened during insertion, every placed key sits in
    # one of its two home slots — the O(1) lookup guarantee
    keys = list(range(1000, 1060))
    placed, _k, _m, failed = _cuckoo_insert(keys)
    assert placed + failed == len(keys)
    # rebuild to inspect (dict variant exposes tables via closure —
    # use the array variant's invariant indirectly: re-inserting the
    # same keys into the dict variant must agree on all stats)
    assert _cuckoo_insert_dict(keys) == (placed, _k, _m, failed)


def test_cuckoo_forced_cycle_fails():
    # three keys sharing BOTH slots cannot all fit: h1/h2 collisions
    # engineered by brute search over the real hash
    base = []
    target = None
    k = 0
    while len(base) < 3:
        h1 = _sm64_scalar_rho(k) % _CK_TBL
        h2 = _sm64_scalar_rho(k ^ 0xD1B54A32) % _CK_TBL
        if target is None:
            target = (h1, h2)
            base.append(k)
        elif (h1, h2) == target:
            base.append(k)
        k += 1
        if k > 4_000_000:
            break
    if len(base) == 3:
        placed, _kk, _mm, failed = _cuckoo_insert(base)
        assert placed == 2 and failed == 1


def test_cuckoo_no_collision_no_kicks():
    # distinct h1 slots: all place with zero evictions
    keys = []
    seen = set()
    k = 0
    while len(keys) < 10:
        h = _sm64_scalar_rho(k) % _CK_TBL
        if h not in seen:
            seen.add(h)
            keys.append(k)
        k += 1
    placed, kicked, mx, failed = _cuckoo_insert(keys)
    assert (placed, kicked, mx, failed) == (10, 0, 0, 0)


def test_oracle_parity_cuckoo(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["cuckoo_insert_orders"](SF),
         con.execute(_cuckoo_sql(SF)).df())
