"""Round-3 batch: KM survival ingredients, Connection Scan earliest
arrival, Merkle anti-entropy root — kernel pins + sf0.001 parity."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _csa_bellman,
    _csa_scan,
    _csa_sql,
    _merkle_sql,
    _merkle_tree,
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


# -- CSA kernels ------------------------------------------------------------


def test_csa_transfer_chain():
    # A->B (dep 0 arr 10), B->C (dep 10 arr 20): zero-slack boarding OK
    conns = [("A", "B", 0, 10), ("B", "C", 10, 20)]
    arr = _csa_scan(conns, "A")
    assert arr == {"A": 0, "B": 10, "C": 20}
    assert _csa_bellman(conns, "A") == arr


def test_csa_missed_connection():
    # B->C departs at 9 but we arrive at B at 10: unreachable via it
    conns = [("A", "B", 0, 10), ("B", "C", 9, 20)]
    arr = _csa_scan(sorted(conns, key=lambda c: c[2]), "A")
    assert "C" not in arr
    assert _csa_bellman(conns, "A") == arr


def test_csa_scan_vs_bellman_random():
    rng = np.random.default_rng(17)
    stops = list("ABCDEF")
    for _ in range(40):
        conns = []
        for _ in range(int(rng.integers(3, 25))):
            a, b = rng.choice(len(stops), 2, replace=False)
            dep = int(rng.integers(0, 50))
            arr_t = dep + int(rng.integers(1, 10))  # strictly positive travel
            conns.append((stops[a], stops[b], dep, arr_t))
        conns.sort(key=lambda c: (c[2], c[3], c[0], c[1]))
        assert _csa_scan(conns, "A") == _csa_bellman(conns, "A")


# -- merkle kernels ----------------------------------------------------------


def test_merkle_asymmetric_combine():
    a = [1, 2] + [0] * 4094
    b = [2, 1] + [0] * 4094
    ra, da = _merkle_tree(a)
    rb, db = _merkle_tree(b)
    assert da == db == 12
    assert ra != rb  # sibling swap must change the root


def test_merkle_detects_single_key(ray_session, tmp_path):
    base = pd.DataFrame({
        "o_orderkey": np.arange(1, 101, dtype=np.int64),
        "o_custkey": np.ones(100, dtype=np.int64),
        "o_orderstatus": ["O"] * 100,
        "o_totalprice": np.ones(100),
        "o_orderdate": pd.to_datetime(["2024-01-01"] * 100),
        "o_orderpriority": ["1-URGENT"] * 100})
    pq.write_table(pa.Table.from_pandas(base, preserve_index=False),
                   tmp_path / "orders.parquet")
    r1 = QUERIES["merkle_root_orders"](str(tmp_path))
    mut = base.copy()
    mut.loc[50, "o_orderkey"] = 9999  # one replaced key
    pq.write_table(pa.Table.from_pandas(mut, preserve_index=False),
                   tmp_path / "orders.parquet")
    r2 = QUERIES["merkle_root_orders"](str(tmp_path))
    assert int(r1["root"].iloc[0]) != int(r2["root"].iloc[0])
    assert int(r1["n_rows"].iloc[0]) == int(r2["n_rows"].iloc[0]) == 100


# -- KM invariant -------------------------------------------------------------


def test_km_at_risk_monotone(ray_session):
    got = QUERIES["km_survival_weeks"](SF)
    g = got.sort_values("week")
    # at-risk counts are non-increasing in week; total mass = gaps
    ar = g["n_at_risk"].to_numpy()
    assert (np.diff(ar) <= 0).all()
    assert int(ar[0]) == int((g["n_events"] + g["n_censored"]).sum())


# -- sf0.001 oracle parity -----------------------------------------------------


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute("CREATE VIEW orders AS SELECT * FROM "
              f"read_parquet('{SF}/orders.parquet')")
    return c


def test_oracle_parity_km(ray_session, con):
    _cmp(QUERIES["km_survival_weeks"](SF),
         con.execute(ORACLE_SQL["km_survival_weeks"]).df())


def test_oracle_parity_csa(ray_session, con):
    got = QUERIES["csa_earliest_arrival"](SF)
    _cmp(got, con.execute(_csa_sql()).df())
    g = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert (g["earliest_arr_s"] >= 0).all() and len(g) > 1


def test_oracle_parity_merkle(ray_session, con):
    _cmp(QUERIES["merkle_root_orders"](SF),
         con.execute(_merkle_sql(SF)).df())
