"""Round-3 batch: dominance pairs, run formation, cache paging —
pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _RS_MEM,
    ORACLE_SQL,
    QUERIES,
    _dominance_bit,
    _dominance_cdq,
    _misses_belady,
    _misses_belady_scan,
    _misses_fifo,
    _misses_lru,
    _paging_sql,
    _replacement_selection,
    _replacement_selection_bisect,
    _runs_sql,
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


# -- dominance -------------------------------------------------------------------


def test_dominance_known_and_strictness():
    # chain: (1,1),(2,2),(3,3) → 3 pairs; ties on either axis do
    # NOT count (strict both axes)
    assert _dominance_bit([1, 2, 3], [1, 2, 3]) == 3
    assert _dominance_bit([1, 1], [1, 2]) == 0
    assert _dominance_bit([1, 2], [1, 1]) == 0
    assert _dominance_bit([], []) == 0
    assert _dominance_cdq([1, 2, 3], [1, 2, 3]) == 3


def test_dominance_bit_vs_cdq_vs_brute_random():
    rng = np.random.default_rng(577)
    for _ in range(60):
        n = int(rng.integers(0, 35))
        xs = rng.integers(0, 8, n).tolist()
        ys = rng.integers(0, 8, n).tolist()
        brute = sum(1 for i in range(n) for j in range(n)
                    if xs[i] < xs[j] and ys[i] < ys[j])
        assert _dominance_bit(xs, ys) == brute
        assert _dominance_cdq(xs, ys) == brute


def test_oracle_parity_dominance(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{SF}/part.parquet')")
    _cmp(QUERIES["dominance_pairs_parts"](SF),
         con.execute(ORACLE_SQL["dominance_pairs_parts"]).df())


# -- run formation ---------------------------------------------------------------


def test_runs_sorted_and_reverse_pins():
    # sorted input: ONE giant run (the snowplow never stops)
    assert _replacement_selection(list(range(100)), 8) == [100]
    # strictly decreasing: every key freezes → exact M-sized runs
    runs = _replacement_selection(list(range(100, 0, -1)), 8)
    assert all(r == 8 for r in runs[:-1]) and sum(runs) == 100


def test_runs_heap_vs_bisect_random():
    rng = np.random.default_rng(587)
    for _ in range(60):
        n = int(rng.integers(0, 250))
        mem = int(rng.integers(1, 16))
        s = rng.integers(0, 40, n).tolist()
        a = _replacement_selection(s, mem)
        assert a == _replacement_selection_bisect(s, mem)
        assert sum(a) == n


def test_runs_snowplow_2m():
    rng = np.random.default_rng(593)
    s = rng.integers(0, 1 << 30, 30000).tolist()
    runs = _replacement_selection(s, _RS_MEM)
    interior = runs[1:-1]
    mean = sum(interior) / len(interior)
    assert 1.6 * _RS_MEM < mean < 2.5 * _RS_MEM


def test_oracle_parity_runs(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["run_formation_orders"](SF),
         con.execute(_runs_sql(SF)).df())


# -- paging ----------------------------------------------------------------------


def test_belady_anomaly_pin():
    # the textbook FIFO anomaly: MORE cache, MORE misses
    s = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
    assert _misses_fifo(s, 3) == 9
    assert _misses_fifo(s, 4) == 10
    # LRU is a stack algorithm: immune to the anomaly here
    assert _misses_lru(s, 4) <= _misses_lru(s, 3)


def test_opt_minimality_random():
    rng = np.random.default_rng(599)
    for _ in range(40):
        n = int(rng.integers(0, 150))
        cap = int(rng.integers(1, 8))
        s = rng.integers(0, 10, n).tolist()
        b = _misses_belady(s, cap)
        assert b == _misses_belady_scan(s, cap)
        assert b <= _misses_fifo(s, cap)
        assert b <= _misses_lru(s, cap)


def test_paging_compulsory_misses():
    # distinct stream: every policy pays exactly n compulsory misses
    s = list(range(50))
    for fn in (_misses_fifo, _misses_lru, _misses_belady):
        assert fn(s, 8) == 50


def test_oracle_parity_paging(ray_session):
    con = duckdb.connect()
    got = QUERIES["cache_paging_orders"](SF)
    r = got.iloc[0]
    assert r["miss_opt"] <= min(r["miss_fifo"], r["miss_lru"])
    _cmp(got, con.execute(_paging_sql(SF)).df())
