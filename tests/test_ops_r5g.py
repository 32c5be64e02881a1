"""Round-3 batch: Prüfer roundtrip, Simpson paradox, activity
selection — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _activity_dp,
    _activity_greedy,
    _activity_sql,
    _prufer_decode,
    _prufer_decode_scan,
    _prufer_encode,
    _prufer_sql,
    _trend_sign_int,
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


# -- Prüfer ----------------------------------------------------------------------


def test_prufer_closed_forms():
    # star centered at 0 → [0,0,0]; path 0-1-2-3 → [1,2]
    assert _prufer_encode(5, {(0, 1), (0, 2), (0, 3), (0, 4)}) \
        == [0, 0, 0]
    assert _prufer_encode(4, {(0, 1), (1, 2), (2, 3)}) == [1, 2]
    # degree identity: multiplicity + 1
    seq = _prufer_encode(6, {(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)})
    from collections import Counter

    deg = Counter()
    for a, b in ((0, 1), (1, 2), (1, 3), (3, 4), (3, 5)):
        deg[a] += 1
        deg[b] += 1
    mult = Counter(seq)
    for v in range(6):
        assert deg[v] == mult.get(v, 0) + 1


def test_prufer_roundtrip_random():
    rng = np.random.default_rng(509)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        edges = {(min(int(rng.integers(0, v)), v),
                  max(int(rng.integers(0, v)), v))
                 for v in range(1, n)}
        edges = {(a, b) for a, b in
                 (((min(int(p), v), max(int(p), v))
                   for v, p in ((v, rng.integers(0, v))
                                for v in range(1, n))))}
        seq = _prufer_encode(n, edges)
        assert len(seq) == n - 2
        assert _prufer_decode(n, seq) == edges
        assert _prufer_decode_scan(n, seq) == edges


def test_oracle_parity_prufer(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["prufer_roundtrip_dups"](SF),
         con.execute(_prufer_sql(SF)).df())


# -- Simpson ---------------------------------------------------------------------


def test_trend_sign_exact():
    x = np.array([0, 1, 2, 3], np.int64)
    assert _trend_sign_int(x, np.array([1, 2, 3, 4], np.int64)) == 1
    assert _trend_sign_int(x, np.array([4, 3, 2, 1], np.int64)) == -1
    assert _trend_sign_int(x, np.array([5, 5, 5, 5], np.int64)) == 0
    assert _trend_sign_int(x[:1], x[:1]) == 0


def test_simpson_crafted_reversal():
    # two groups each trending DOWN, pooled trending UP — the
    # textbook reversal, verified through the exact numerators
    g1x = np.array([0, 1], np.int64)
    g1y = np.array([10, 9], np.int64)
    g2x = np.array([10, 11], np.int64)
    g2y = np.array([100, 99], np.int64)
    assert _trend_sign_int(g1x, g1y) == -1
    assert _trend_sign_int(g2x, g2y) == -1
    assert _trend_sign_int(np.concatenate([g1x, g2x]),
                           np.concatenate([g1y, g2y])) == 1


def test_oracle_parity_simpson(ray_session):
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    got = QUERIES["simpson_paradox_nations"](SF)
    assert got["pooled_sign"].nunique() == 1
    _cmp(got, con.execute(ORACLE_SQL["simpson_paradox_nations"]).df())


# -- activity selection ----------------------------------------------------------


def test_activity_known_and_nested():
    # classic: three overlapping, two fit
    iv = [(0, 3), (2, 5), (4, 7)]
    assert _activity_greedy(iv) == 2
    assert _activity_dp(iv) == 2
    # nested intervals: the short inner one wins
    iv = [(0, 10), (1, 2), (3, 4)]
    assert _activity_greedy(iv) == 2
    assert _activity_dp(iv) == 2
    assert _activity_greedy([]) == 0
    assert _activity_dp([]) == 0


def test_activity_greedy_by_start_would_fail():
    # earliest-START greedy picks (0,100) and gets 1; earliest-END
    # gets 3 — the exchange argument's whole point
    iv = [(0, 100), (1, 2), (3, 4), (5, 6)]
    assert _activity_greedy(iv) == 3
    assert _activity_dp(iv) == 3


def test_activity_greedy_vs_dp_random():
    rng = np.random.default_rng(521)
    for _ in range(80):
        n = int(rng.integers(0, 25))
        iv = []
        for _k in range(n):
            s = int(rng.integers(0, 40))
            iv.append((s, s + int(rng.integers(1, 8))))
        assert _activity_greedy(iv) == _activity_dp(iv), iv


def test_oracle_parity_activity(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["activity_selection_weekly"](SF),
         con.execute(_activity_sql(SF)).df())
