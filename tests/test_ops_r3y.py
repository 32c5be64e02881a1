"""Round-3 batch Y: palindrome census, part-pair lift, per-customer
LIS histogram — sf0.001 oracle equality plus invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "lineitem", "orders"):
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


def test_palindrome_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["palindrome_census_docs"](SF)
    exp = con.execute(ORACLE_SQL["palindrome_census_docs"]).df()
    _compare("palindrome_census_docs", got, exp)


def test_palindrome_invariants(ray_session, con):
    """n_types <= n_pal <= n_tok3 per source; the n_tok3 total equals
    an independent direct count of len>=3 tokens."""
    from battery.queries import QUERIES

    df = QUERIES["palindrome_census_docs"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert (df.n_types <= df.n_pal).all()
    assert (df.n_pal <= df.n_tok3).all()
    tot = con.execute("""
        SELECT COUNT(*) FROM (SELECT unnest(string_split(text, ' '))
        AS t FROM documents) WHERE length(t) >= 3""").fetchone()[0]
    assert int(df.n_tok3.sum()) == int(tot)


def test_part_pair_lift_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["part_pair_lift_orders"](SF)
    exp = con.execute(ORACLE_SQL["part_pair_lift_orders"]).df()
    _compare("part_pair_lift_orders", got, exp)


def test_part_pair_lift_invariants(ray_session, con):
    """n_ab <= min(n_a, n_b); lift numerator recomputes from the
    independently-counted order universe."""
    from battery.queries import QUERIES

    df = QUERIES["part_pair_lift_orders"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert len(df) == 10
    assert (df.n_ab <= np.minimum(df.n_a, df.n_b)).all()
    n = con.execute(
        "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem"
    ).fetchone()[0]
    lift = int(n) * df.n_ab.to_numpy() - \
        df.n_a.to_numpy() * df.n_b.to_numpy()
    assert (df.lift_num.to_numpy() == lift).all()


def test_lis_oracle(ray_session, con):
    from battery.queries import QUERIES, _lis_sql

    got = QUERIES["lis_customer_orders"](SF)
    exp = con.execute(_lis_sql(SF)).df()
    _compare("lis_customer_orders", got, exp)


def test_lis_invariants(ray_session, con):
    """Histogram totals = customers with orders; LIS lengths bounded
    by the max order count of any customer; strict positivity."""
    from battery.queries import QUERIES

    df = QUERIES["lis_customer_orders"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    ncust = con.execute(
        "SELECT COUNT(DISTINCT o_custkey) FROM orders").fetchone()[0]
    mx = con.execute("""
        SELECT MAX(n) FROM (SELECT COUNT(*) AS n FROM orders
        GROUP BY o_custkey)""").fetchone()[0]
    assert int(df.n_customers.sum()) == int(ncust)
    assert int(df.lis_len.min()) >= 1
    assert int(df.lis_len.max()) <= int(mx)


def test_lis_known_sequence():
    """Pure-python patience kernel agrees with brute force on a known
    sequence: LIS of [3,1,2,5,4,4] (strict) = 3 ([1,2,5] / [1,2,4])."""
    from bisect import bisect_left

    tails = []
    for x in [3, 1, 2, 5, 4, 4]:
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
    assert len(tails) == 3
