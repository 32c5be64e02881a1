"""Round-3 batch: CUBE grouping sets, discrete Fréchet direction gap,
single-scan multi-distinct — kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _frechet_sql,
    _frechet_sq_bfs,
    _frechet_sq_dp,
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


# -- fréchet kernels --------------------------------------------------------


def test_frechet_identical_curves():
    p = np.array([(0, 0), (10, 0), (20, 5)], dtype=object)
    assert _frechet_sq_dp(p, p) == 0
    assert _frechet_sq_bfs(p.tolist(), p.tolist()) == 0


def test_frechet_parallel_offset():
    # two parallel horizontal lines 3 apart: leash is exactly 3 (sq 9)
    p = np.array([(0, 0), (5, 0), (10, 0)], dtype=object)
    q = np.array([(0, 3), (5, 3), (10, 3)], dtype=object)
    assert _frechet_sq_dp(p, q) == 9
    assert _frechet_sq_bfs(p.tolist(), q.tolist()) == 9


def test_frechet_backtrack_vs_hausdorff():
    # classic: Fréchet respects ordering — q doubles back, forcing a
    # bigger leash than any pointwise (Hausdorff) match
    p = np.array([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], dtype=object)
    q = np.array([(0, 0), (4, 0), (0, 1), (4, 1)], dtype=object)
    dp = _frechet_sq_dp(p, q)
    assert dp == _frechet_sq_bfs(p.tolist(), q.tolist())
    assert dp > 2  # the doubling-back forces more than the 1-offset


def test_frechet_dp_vs_bfs_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        p = [(int(a), int(b)) for a, b in rng.integers(-20, 20, (n, 2))]
        q = [(int(a), int(b)) for a, b in rng.integers(-20, 20, (m, 2))]
        assert _frechet_sq_dp(np.array(p, dtype=object),
                              np.array(q, dtype=object)) \
            == _frechet_sq_bfs(p, q)


# -- cube invariants --------------------------------------------------------


def test_cube_grand_total(ray_session):
    got = QUERIES["cube_status_priority"](SF)
    fine = got[(got["status"] != "ALL") & (got["priority"] != "ALL")]
    total = got[(got["status"] == "ALL") & (got["priority"] == "ALL")]
    assert len(total) == 1
    assert int(fine["n_orders"].sum()) == int(total["n_orders"].iloc[0])
    assert int(fine["cents"].sum()) == int(total["cents"].iloc[0])


# -- sf0.001 oracle parity --------------------------------------------------


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute("CREATE VIEW orders AS SELECT * FROM "
              f"read_parquet('{SF}/orders.parquet')")
    return c


def test_oracle_parity_cube(ray_session, con):
    _cmp(QUERIES["cube_status_priority"](SF),
         con.execute(ORACLE_SQL["cube_status_priority"]).df())


def test_oracle_parity_multi_distinct(ray_session, con):
    _cmp(QUERIES["multi_distinct_orders"](SF),
         con.execute(ORACLE_SQL["multi_distinct_orders"]).df())


def test_oracle_parity_frechet(ray_session, con):
    got = QUERIES["frechet_direction_gap_routes"](SF)
    _cmp(got, con.execute(_frechet_sql()).df())
    g = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert len(g) >= 1
