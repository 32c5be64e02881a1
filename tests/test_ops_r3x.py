"""Round-3 batch X: order-total reconciliation, rich club, day-of-
month seasonality — sf0.001 oracle equality plus invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "lineitem", "events", "embeddings"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _compare(name, got, exp):
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert (a == b).all(), (name, c)


def test_reconciliation_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["order_total_reconciliation"](SF)
    exp = con.execute(ORACLE_SQL["order_total_reconciliation"]).df()
    _compare("order_total_reconciliation", got, exp)


def test_reconciliation_conservation(ray_session, con):
    """Σ n_orders over bands = total orders (every order classified
    exactly once), childless class = anti-join count."""
    from battery.queries import QUERIES

    df = QUERIES["order_total_reconciliation"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    total = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    childless = con.execute("""
        SELECT COUNT(*) FROM orders WHERE o_orderkey NOT IN
        (SELECT l_orderkey FROM lineitem)""").fetchone()[0]
    assert int(df.n_orders.sum()) == int(total)
    got_childless = df[df.band == -2].n_orders
    assert (int(got_childless.iloc[0]) if len(got_childless) else 0) \
        == int(childless)


def test_rich_club_oracle(ray_session, con):
    from battery.queries import QUERIES, _rich_club_sql

    got = QUERIES["rich_club_dups"](SF)
    exp = con.execute(_rich_club_sql(SF)).df()
    _compare("rich_club_dups", got, exp)


def test_rich_club_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["rich_club_dups"](SF)
    assert int(df.k.iloc[0]) <= 8
    assert int(df.hub_edges.iloc[0]) <= int(df.possible.iloc[0])
    assert int(df.min_hub_degree.iloc[0]) >= 1


def test_dom_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["dom_seasonality_purchases"](SF)
    exp = con.execute(ORACLE_SQL["dom_seasonality_purchases"]).df()
    _compare("dom_seasonality_purchases", got, exp)


def test_dom_conservation(ray_session, con):
    from battery.queries import QUERIES

    df = QUERIES["dom_seasonality_purchases"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    total = con.execute("SELECT COUNT(*) FROM events WHERE "
                        "event_type = 'purchase'").fetchone()[0]
    assert int(df.n.sum()) == int(total)
    assert df.dom.between(1, 31).all()
