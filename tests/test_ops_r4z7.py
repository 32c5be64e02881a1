"""Round-3 batch: open addressing, Fenwick online ranks, XOR filter
— pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _OA_TBL,
    ORACLE_SQL,
    QUERIES,
    _Fenwick,
    _oa_probes,
    _oa_probes_dict,
    _oa_sql,
    _online_rank_sum_bit,
    _xf_build,
    _xf_contains,
    _xf_sql,
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


# -- open addressing -------------------------------------------------------------


def test_oa_triangular_full_cycle():
    # triangular offsets i(i+1)/2 mod 64 visit all 64 slots
    offs = {(i * (i + 1) // 2) % _OA_TBL for i in range(2 * _OA_TBL)}
    assert len(offs) == _OA_TBL


def test_oa_terminates_below_capacity_and_matches_dict():
    rng = np.random.default_rng(359)
    for _ in range(20):
        n = int(rng.integers(1, 59))
        keys = rng.integers(0, 1 << 40, n).tolist()
        for quad in (False, True):
            a = _oa_probes(keys, quad)
            assert a == _oa_probes_dict(keys, quad)
            assert a[0] >= n          # at least one probe per key


def test_oa_no_collision_one_probe_each():
    # keys engineered to distinct home slots: exactly n probes
    keys = []
    seen = set()
    k = 0
    from battery.queries import _sm64_scalar_rho

    while len(keys) < 10:
        h = _sm64_scalar_rho(k) % _OA_TBL
        if h not in seen:
            seen.add(h)
            keys.append(k)
        k += 1
    assert _oa_probes(keys, False) == (10, 1)
    assert _oa_probes(keys, True) == (10, 1)


def test_oracle_parity_oa(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["open_addressing_weekly"](SF),
         con.execute(_oa_sql(SF)).df())


# -- Fenwick ---------------------------------------------------------------------


def test_fenwick_prefix_sums():
    ft = _Fenwick(8)
    for i in (3, 3, 5, 8):
        ft.add(i)
    assert ft.prefix(2) == 0
    assert ft.prefix(3) == 2
    assert ft.prefix(5) == 3
    assert ft.prefix(8) == 4


def test_online_rank_sum_vs_brute():
    rng = np.random.default_rng(367)
    for _ in range(30):
        n = int(rng.integers(0, 40))
        c = rng.integers(0, 20, n).tolist()
        brute = sum(1 for i in range(n) for j in range(i)
                    if c[j] <= c[i])
        assert _online_rank_sum_bit(c) == brute


def test_online_rank_sum_sorted_is_max():
    # ascending stream: every pair counts → C(n,2)
    assert _online_rank_sum_bit(list(range(10))) == 45
    # strictly descending: zero
    assert _online_rank_sum_bit(list(range(10, 0, -1))) == 0


def test_oracle_parity_fenwick(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["fenwick_online_ranks_weekly"](SF),
         con.execute(ORACLE_SQL["fenwick_online_ranks_weekly"]).df())


# -- XOR filter ------------------------------------------------------------------


def test_xf_no_false_negatives_and_fpp():
    keys = list(range(5000, 7000))
    m = (int(1.23 * len(keys)) // 3 + 1) * 3
    seed, tbl = _xf_build(keys, m)
    assert all(_xf_contains(tbl, seed, m, k) for k in keys)
    fps = sum(1 for p in range(90000, 98192)
              if _xf_contains(tbl, seed, m, p))
    # 2^-8 expectation ≈ 32 of 8192; generous bracket
    assert fps < 8192 // 64


def test_xf_space_is_1_23n():
    keys = list(range(100))
    m = (int(1.23 * len(keys)) // 3 + 1) * 3
    _seed, tbl = _xf_build(keys, m)
    assert len(tbl) == m
    assert m < 2 * len(keys)


def test_oracle_parity_xf(ray_session):
    con = duckdb.connect()
    got = QUERIES["xor_filter_orders"](SF)
    r = got.iloc[0]
    assert r["false_positives"] < r["n_probes"] // 32
    _cmp(got, con.execute(_xf_sql(SF)).df())
