"""Round-3 batch: Kadane burst windows, monotonic-deque sliding
extrema, Moore-Hodgson scheduling — pins, cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _kadane_best,
    _kadane_prefix,
    _mh_dp,
    _mh_sql,
    _moore_hodgson,
    _slide_minmax,
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


# -- Kadane ----------------------------------------------------------------------


def test_kadane_known():
    v = np.array([-2, 1, -3, 4, -1, 2, 1, -5, 4], np.int64)
    assert _kadane_best(v) == (6, 3, 6)       # [4,-1,2,1]
    assert _kadane_prefix(v) == (6, 3, 6)
    # all negative: best single element, earliest among ties
    v = np.array([-3, -1, -2, -1], np.int64)
    assert _kadane_best(v) == (-1, 1, 1)
    assert _kadane_prefix(v) == (-1, 1, 1)


def test_kadane_tie_rules():
    # two windows sum 3: [3] at 0 and [3] at 2 — earliest end wins
    v = np.array([3, -3, 3], np.int64)
    assert _kadane_best(v) == (3, 0, 0)
    assert _kadane_prefix(v) == (3, 0, 0)
    # zero-prefix tie: cur==0 keeps the earlier start
    v = np.array([2, -2, 3], np.int64)
    assert _kadane_best(v) == (3, 0, 2)
    assert _kadane_prefix(v) == (3, 0, 2)


def test_kadane_vs_prefix_random():
    rng = np.random.default_rng(127)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        v = rng.integers(-3, 4, n).astype(np.int64)
        assert _kadane_best(v) == _kadane_prefix(v)


def test_oracle_parity_kadane(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["kadane_priority_days"](SF),
         con.execute(ORACLE_SQL["kadane_priority_days"]).df())


# -- sliding extrema -------------------------------------------------------------


def test_slide_monotone_series():
    v = np.arange(10, dtype=np.int64)
    mx, mn = _slide_minmax(v, 4)
    assert mx.tolist() == [3, 4, 5, 6, 7, 8, 9]
    assert mn.tolist() == [0, 1, 2, 3, 4, 5, 6]


def test_slide_vs_naive_random():
    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        w = int(rng.integers(1, min(n, 10) + 1))
        v = rng.integers(0, 30, n).astype(np.int64)
        mx, mn = _slide_minmax(v, w)
        for k in range(n - w + 1):
            assert mx[k] == v[k:k + w].max()
            assert mn[k] == v[k:k + w].min()


def test_slide_window_larger_than_series():
    mx, mn = _slide_minmax(np.array([5, 2], np.int64), 4)
    assert len(mx) == 0 and len(mn) == 0


def test_oracle_parity_slide(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["sliding_extrema_days"](SF),
         con.execute(ORACLE_SQL["sliding_extrema_days"]).df())


# -- Moore-Hodgson ---------------------------------------------------------------


def _mh_brute(p, d):
    from itertools import combinations

    n = len(p)
    best = 0
    for k in range(n, 0, -1):
        for sub in combinations(range(n), k):
            jobs = sorted((d[i], p[i]) for i in sub)
            t = 0
            ok = True
            for dd, pp in jobs:
                t += pp
                if t > dd:
                    ok = False
                    break
            if ok:
                return k
    return best


def test_mh_all_fit_and_overload():
    # all jobs fit comfortably
    assert _moore_hodgson([1, 2, 3], [10, 10, 10]) == 3
    assert _mh_dp([1, 2, 3], [10, 10, 10]) == 3
    # single machine, everything due at 3, total 6: only a prefix fits
    assert _moore_hodgson([2, 2, 2], [3, 3, 3]) == 1
    assert _mh_dp([2, 2, 2], [3, 3, 3]) == 1


def test_mh_drops_longest_not_latest():
    # EDD: (5,d4) then (1,d5): overload at job1 drops the LONG first
    # job, keeping two short later ones — arrival-greedy keeps 1
    p = [5, 1, 1]
    d = [4, 5, 6]
    assert _moore_hodgson(p, d) == 2
    assert _mh_dp(p, d) == 2


def test_mh_vs_dp_vs_brute_random():
    rng = np.random.default_rng(137)
    for _ in range(40):
        n = int(rng.integers(0, 9))
        p = rng.integers(1, 10, n).tolist()
        d = rng.integers(1, 25, n).tolist()
        m = _moore_hodgson(p, d)
        assert m == _mh_dp(p, d)
        if n:
            assert m == _mh_brute(p, d)


def test_oracle_parity_mh(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["moore_hodgson_weekly"](SF),
         con.execute(_mh_sql(SF)).df())
