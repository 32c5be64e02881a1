"""Round-3 batch: BST/quicksort duality, Carter-Wegman, decimal
periods — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _bst_insert_stats,
    _bst_sql,
    _cw_collisions,
    _cw_sql,
    _miller_rabin,
    _period_longdiv,
    _period_order,
    _period_sql,
    _quicksort_comparisons,
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


# -- BST / quicksort -------------------------------------------------------------


def test_bst_sorted_degrades_random_stays_log():
    # sorted insertion → a linked list of height n, Θ(n²) compares
    n = 64
    h, td, comps = _bst_insert_stats(list(range(n)))
    assert h == n
    assert comps == n * (n - 1) // 2
    # random insertion stays within ~3·log2 n typical height
    rng = np.random.default_rng(661)
    hs = []
    for _ in range(10):
        perm = rng.permutation(256).tolist()
        hh, _t, _c = _bst_insert_stats(perm)
        hs.append(hh)
    assert np.mean(hs) < 3.5 * np.log2(256)


def test_bst_quicksort_duality_random():
    rng = np.random.default_rng(673)
    for _ in range(60):
        n = int(rng.integers(0, 80))
        perm = rng.permutation(n).tolist()
        _h, _t, comps = _bst_insert_stats(perm)
        assert comps == _quicksort_comparisons(perm)


def test_oracle_parity_bst(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["bst_height_weekly"](SF),
         con.execute(_bst_sql(SF)).df())


# -- Carter-Wegman ---------------------------------------------------------------


def test_cw_identical_keys_maximal_collisions():
    keys = np.full(50, 12345, np.int64)
    c = _cw_collisions(keys, 7, 3)
    assert c == 50 * 49 // 2


def test_cw_mean_near_bound_random_keys():
    rng = np.random.default_rng(677)
    keys = rng.integers(0, 1 << 40, 4000)
    n = len(keys)
    bound = n * (n - 1) // 2 // 1024
    tot = 0
    trials = 12
    for t in range(trials):
        tot += _cw_collisions(keys, 1000 + 7 * t, 13 * t + 1)
    assert tot < 2 * trials * bound


def test_oracle_parity_cw(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["carter_wegman_orders"](SF),
         con.execute(_cw_sql(SF)).df())


# -- decimal periods -------------------------------------------------------------


def test_period_known_primes():
    # 1/7 = 0.(142857): period 6, full reptend
    assert _period_order(7) == 6
    assert _period_longdiv(7) == 6
    assert _period_order(3) == 1
    assert _period_order(11) == 2
    assert _period_order(13) == 6
    assert _period_order(17) == 16          # full reptend
    # full-reptend primes below 100 (OEIS A001913)
    frp = [p for p in range(7, 100)
           if _miller_rabin(p) and p not in (2, 5)
           and _period_order(p) == p - 1]
    assert frp == [7, 17, 19, 23, 29, 47, 59, 61, 97]


def test_period_order_vs_longdiv_and_lagrange():
    primes = [p for p in range(7, 3000)
              if _miller_rabin(p) and p % 2 and p % 5]
    rng = np.random.default_rng(683)
    for p in rng.choice(primes, 60, replace=False).tolist():
        per = _period_order(int(p))
        assert per == _period_longdiv(int(p))
        assert (p - 1) % per == 0


def test_oracle_parity_period(ray_session):
    con = duckdb.connect()
    got = QUERIES["decimal_period_orders"](SF)
    assert ((got["p"] - 1) % got["period"] == 0).all()
    _cmp(got, con.execute(_period_sql(SF)).df())
