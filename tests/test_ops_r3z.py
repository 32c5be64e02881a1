"""Round-3 batch Z: Huffman coding cost, exact weekend/weekday EMD,
naive-lag forecast MAE — sf0.001 oracle equality plus invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "events", "orders"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns),
                          kind="stable").reset_index(drop=True)


def _compare(name, got, exp):
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert (a == b).all(), (name, c)


def test_huffman_oracle(ray_session, con):
    from battery.queries import QUERIES, _huffman_sql

    got = QUERIES["huffman_cost_sources"](SF)
    exp = con.execute(_huffman_sql(SF)).df()
    _compare("huffman_cost_sources", got, exp)


def test_huffman_bounds(ray_session, con):
    """Shannon sandwich: n·H <= huffman_bits <= n·(H+1); and the
    optimal code never beats fixed width from above."""
    from battery.queries import QUERIES

    df = QUERIES["huffman_cost_sources"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert (df.huffman_bits <= df.fixed_bits).all()
    cnts = con.execute("""
        WITH w AS (SELECT source, unnest(string_split(text, ' ')) AS t
                   FROM documents)
        SELECT source, COUNT(*) FROM w WHERE t <> ''
        GROUP BY source, t""").df()
    for src, grp in cnts.groupby("source"):
        n = grp["count_star()"].to_numpy(np.float64)
        tot = n.sum()
        p = n / tot
        H = float(-(p * np.log2(p)).sum())
        row = df[df.source == src]
        hb = int(row.huffman_bits.iloc[0])
        assert tot * H - 1e-6 <= hb <= tot * (H + 1) + 1e-6, src


def test_huffman_known_distribution():
    """Classic fixture: frequencies [5,9,12,13,16,45] have Huffman
    total cost 224 (CLRS example)."""
    import heapq

    h = [5, 9, 12, 13, 16, 45]
    heapq.heapify(h)
    bits = 0
    while len(h) > 1:
        a, b = heapq.heappop(h), heapq.heappop(h)
        bits += a + b
        heapq.heappush(h, a + b)
    assert bits == 224


def test_emd_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["emd_weekend_weekday"](SF)
    exp = con.execute(ORACLE_SQL["emd_weekend_weekday"]).df()
    _compare("emd_weekend_weekday", got, exp)


def test_emd_invariants(ray_session, con):
    """Counts split the purchase universe; EMD numerator bounded by
    n_wd*n_we*(vmax - vmin) (max transport over max distance)."""
    from battery.queries import QUERIES

    df = QUERIES["emd_weekend_weekday"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    tot = con.execute("SELECT COUNT(*) FROM events WHERE "
                      "event_type = 'purchase'").fetchone()[0]
    assert int(df.n_wd.iloc[0] + df.n_we.iloc[0]) == int(tot)
    vmin, vmax = con.execute(
        "SELECT CAST(round(MIN(value)*10000) AS BIGINT), "
        "CAST(round(MAX(value)*10000) AS BIGINT) FROM events "
        "WHERE event_type = 'purchase'").fetchone()
    bound = int(df.n_wd.iloc[0]) * int(df.n_we.iloc[0]) \
        * (int(vmax) - int(vmin))
    assert 0 <= int(df.emd_num_dec.iloc[0]) <= bound


def test_emd_identical_distributions(ray_session):
    """Pure-python kernel sanity: identical histograms -> EMD 0."""
    cum_a = np.array([1, 3, 5])
    cum_b = np.array([1, 3, 5])
    uv = np.array([10, 20, 30])
    num = sum(abs(int(cum_a[i]) * 5 - int(cum_b[i]) * 5)
              * int(uv[i + 1] - uv[i]) for i in range(2))
    assert num == 0


def test_naive_lag_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["naive_lag_mae_daily"](SF)
    exp = con.execute(ORACLE_SQL["naive_lag_mae_daily"]).df()
    _compare("naive_lag_mae_daily", got, exp)


def test_naive_lag_invariants(ray_session, con):
    """Pair counts bounded by observed days; lag-1 pairs at least as
    numerous as any single gap census allows (n1, n7 <= days - 1)."""
    from battery.queries import QUERIES

    df = QUERIES["naive_lag_mae_daily"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    days = con.execute("SELECT COUNT(DISTINCT o_orderdate) "
                       "FROM orders").fetchone()[0]
    assert 0 <= int(df.n1.iloc[0]) <= int(days) - 1
    assert 0 <= int(df.n7.iloc[0]) <= int(days) - 1
    assert int(df.sae1_e2.iloc[0]) >= 0
    assert int(df.sae7_e2.iloc[0]) >= 0
