"""Referentially-INCOMPLETE fixture regression for the verified-gather
discipline (the c15a306 dim-miss class, extended round 4).

The synthetic driver tables are referentially complete, so the oracle
sweep can never exercise a dim miss — a clamped ``searchsorted`` that
silently maps an orphan key onto a neighboring dim row hashes
identically on real testdata.  This fixture plants orphans on every
edge the flagship broadcast queries probe (order→customer,
lineitem→part, lineitem→orders) and pins engine == DuckDB, where each
oracle's inner JOIN drops the orphans.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def broken_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("broken_sf")
    ts = lambda s: np.datetime64(s, "us")  # noqa: E731

    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1, 2], pa.int32()),
        "n_name": ["ALGERIA", "BRAZIL", "CANADA"],
        "n_regionkey": pa.array([0, 1, 1], pa.int32()),
    }), d / "nation.parquet")

    # custkey 3 is MISSING (orders reference it); nationkeys complete
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 4, 5], pa.int64()),
        "c_name": ["Customer#1", "Customer#2", "Customer#4", "Customer#5"],
        "c_nationkey": pa.array([0, 1, 2, 1], pa.int32()),
        "c_acctbal": [100.0, -50.0, 7.25, 0.0],
        "c_mktsegment": ["BUILDING", "AUTOMOBILE", "BUILDING", "MACHINERY"],
    }), d / "customer.parquet")

    # orderkeys 10..15; custkey 3 orphan on orders 12 and 13
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
        "o_custkey": pa.array([1, 2, 3, 3, 4, 5], pa.int64()),
        "o_orderstatus": ["F", "O", "F", "O", "F", "O"],
        "o_totalprice": [10.5, 20.25, 30.75, 40.0, 50.5, 60.0],
        "o_orderdate": pa.array([ts("1995-03-01"), ts("1995-06-15"),
                                 ts("1996-01-10"), ts("1994-11-30"),
                                 ts("1995-09-09"), ts("1997-02-02")]),
        "o_orderpriority": ["1-URGENT"] * 6,
    }), d / "orders.parquet")

    # partkey 3 MISSING (lineitem references it)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": ["red thing", "blue thing"],
        "p_brand": ["Brand#11", "Brand#22"],
        "p_type": ["PROMO STEEL", "STANDARD TIN"],
        "p_size": pa.array([5, 10], pa.int32()),
        "p_retailprice": [99.0, 199.0],
    }), d / "part.parquet")

    # l_orderkey 99 is an orphan (no such order); l_partkey 3 orphan
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 11, 12, 14, 99], pa.int64()),
        "l_partkey": pa.array([1, 2, 3, 1, 2, 1], pa.int64()),
        "l_suppkey": pa.array([1, 1, 1, 1, 1, 1], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1, 1, 1], pa.int32()),
        "l_quantity": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        "l_extendedprice": [100.0, 200.0, 300.0, 400.0, 500.0, 600.0],
        "l_discount": [0.0, 0.1, 0.05, 0.0, 0.02, 0.0],
        "l_tax": [0.0] * 6,
        "l_returnflag": ["N", "N", "R", "A", "N", "N"],
        "l_linestatus": ["O", "O", "F", "F", "O", "O"],
        "l_shipdate": pa.array([ts("1995-03-05"), ts("1995-03-06"),
                                ts("1995-06-20"), ts("1996-01-15"),
                                ts("1995-09-12"), ts("1997-01-01")]),
    }), d / "lineitem.parquet")
    return str(d)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _cmp(name, got, sql, broken_sf):
    import duckdb

    con = duckdb.connect()
    for t in ("nation", "customer", "orders", "part", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{broken_sf}/{t}.parquet')")
    exp = con.execute(sql).df()
    g, e = _canon(got), _canon(exp)
    assert list(g.columns) == list(e.columns), (name, g.columns, e.columns)
    assert len(g) == len(e), (name, len(g), len(e))
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            assert np.allclose(gv.astype(np.float64),
                               ev.astype(np.float64)), (name, c)
        else:
            assert (gv.astype(str) == ev.astype(str)).all(), (name, c)


def test_cust_nation_orders_drops_orphan_custkey(ray_session, broken_sf):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["cust_nation_orders"](broken_sf)
    # orphan custkey 3 must be ABSENT, not mismapped onto custkey 4
    df = got.to_pandas()
    assert 3 not in set(df["custkey"])
    _cmp("cust_nation_orders", df,
         ORACLE_SQL["cust_nation_orders"], broken_sf)


def test_brand_revenue_drops_orphan_partkey(ray_session, broken_sf):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["broadcast_join_brand_revenue"](broken_sf)
    _cmp("broadcast_join_brand_revenue", got,
         ORACLE_SQL["broadcast_join_brand_revenue"], broken_sf)


def test_left_join_keeps_every_customer(ray_session, broken_sf):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["left_join_customer_orders"](broken_sf)
    df = got.to_pandas()
    # LEFT semantics: all four customers survive; orphan custkey 3's
    # orders count for nobody
    assert sorted(df["custkey"]) == [1, 2, 4, 5]
    _cmp("left_join_customer_orders", df,
         ORACLE_SQL["left_join_customer_orders"], broken_sf)


def test_nation_pair_revenue_drops_orphan_lineitems(ray_session, broken_sf):
    from battery.queries import ORACLE_SQL, QUERIES

    # needs supplier: write a one-supplier dim into the fixture
    import pathlib

    sup = pathlib.Path(broken_sf) / "supplier.parquet"
    if not sup.exists():
        pq.write_table(pa.table({
            "s_suppkey": pa.array([1], pa.int64()),
            "s_nationkey": pa.array([0], pa.int32()),
            "s_acctbal": [10.0],
        }), sup)
    import duckdb

    con = duckdb.connect()
    for t in ("nation", "customer", "orders", "supplier", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{broken_sf}/{t}.parquet')")
    exp = con.execute(ORACLE_SQL["nation_pair_revenue"]).df()
    got = QUERIES["nation_pair_revenue"](broken_sf).to_pandas()
    g, e = _canon(got), _canon(exp)
    assert len(g) == len(e)
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind in "if" or ev.dtype.kind in "if":
            assert np.allclose(gv.astype(np.float64),
                               ev.astype(np.float64)), c
        else:
            assert (gv.astype(str) == ev.astype(str)).all(), c
