"""Round-3 batch U: l-diversity census, 3-truss peel, split-order
audit — sf0.001 oracle equality plus structural invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "orders", "embeddings"):
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


def test_ldiversity_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["ldiversity_users"](SF)
    exp = con.execute(ORACLE_SQL["ldiversity_users"]).df()
    _compare("ldiversity_users", got, exp)


def test_ldiversity_class_count_matches_kanon(ray_session):
    """Both ops partition the same QI classes, so total class counts
    agree; l >= 1 everywhere."""
    from battery.queries import QUERIES

    ld = QUERIES["ldiversity_users"](SF)
    ld = ld.to_pandas() if hasattr(ld, "to_pandas") else ld
    ka = QUERIES["kanon_users"](SF)
    ka = ka.to_pandas() if hasattr(ka, "to_pandas") else ka
    assert int(ld.n_classes.sum()) == int(ka.n_classes.sum())
    assert (ld.l >= 1).all()
    # a class of size 1 has exactly one mask -> at most 32 masks
    assert (ld.l <= 32).all()


def test_ktruss_oracle(ray_session, con):
    from battery.queries import QUERIES, _ktruss_sql

    got = QUERIES["ktruss_dups"](SF)
    exp = con.execute(_ktruss_sql(SF)).df()
    _compare("ktruss_dups", got, exp)


def test_ktruss_is_cohesive_subgraph(ray_session):
    """Every surviving edge must have a common neighbour INSIDE the
    truss (3-truss closure), and the truss is a subset of the dup
    pairs."""
    from battery.queries import QUERIES

    tr = QUERIES["ktruss_dups"](SF)
    tr = tr.to_pandas() if hasattr(tr, "to_pandas") else tr
    dp = QUERIES["embedding_dups"](SF)
    dp = dp.to_pandas() if hasattr(dp, "to_pandas") else dp
    allp = {(min(a, b), max(a, b)) for a, b in zip(dp.a, dp.b)}
    truss = {(a, b) for a, b in zip(tr.a, tr.b)}
    assert truss <= allp
    adj = {}
    for a, b in truss:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for a, b in truss:
        assert adj[a] & adj[b], (a, b)


def test_split_order_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["split_order_audit"](SF)
    exp = con.execute(ORACLE_SQL["split_order_audit"]).df()
    _compare("split_order_audit", got, exp)


def test_split_order_conservation(ray_session, con):
    """Σ n * n_cust_days = total orders."""
    from battery.queries import QUERIES

    df = QUERIES["split_order_audit"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    total = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert int((df.n_same_day_orders * df.n_cust_days).sum()) \
        == int(total)
    assert (df.n_same_day_orders >= 1).all()
