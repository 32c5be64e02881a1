"""Round-3 batch AC: GCD pack-size census, Simpson strata audit,
dup-graph bridges/articulation — oracle equality plus kernels."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "part", "embeddings"):
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


def test_gcd_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["pack_size_gcd_parts"](SF)
    exp = con.execute(ORACLE_SQL["pack_size_gcd_parts"]).df()
    _compare("pack_size_gcd_parts", got, exp)


def test_gcd_conservation(ray_session, con):
    """Every shipped part classified exactly once; gcd >= 1."""
    from battery.queries import QUERIES

    df = QUERIES["pack_size_gcd_parts"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    n = con.execute(
        "SELECT COUNT(DISTINCT l_partkey) FROM lineitem").fetchone()[0]
    assert int(df.n_parts.sum()) == int(n)
    assert (df.pack_gcd >= 1).all()


def test_gcd_synthetic_packs(ray_session, tmp_path):
    """A hand-built table where part 1 ships in 6/12/18 and part 2 in
    5/10 yields gcds {6: 1, 5: 1}."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    t = pa.table({"l_partkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                  "l_quantity": pa.array([6.0, 12.0, 18.0, 5.0, 10.0])})
    pq.write_table(t, d / "lineitem.parquet")
    from battery.queries import QUERIES

    df = QUERIES["pack_size_gcd_parts"](str(d))
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    got = dict(zip(df.pack_gcd, df.n_parts))
    assert got == {5: 1, 6: 1}


def test_simpson_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["simpson_strata_brands"](SF)
    exp = con.execute(ORACLE_SQL["simpson_strata_brands"]).df()
    _compare("simpson_strata_brands", got, exp)


def test_simpson_pooled_is_sum(ray_session):
    """The ALL row's moments are the column sums of the strata; the
    sign column matches the decimal numerator's sign."""
    from battery.queries import QUERIES

    df = QUERIES["simpson_strata_brands"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    strata = df[df.stratum != "ALL"]
    pooled = df[df.stratum == "ALL"].iloc[0]
    for c in ("n", "sum_x", "sum_y", "sum_xy"):
        assert int(strata[c].sum()) == int(pooled[c])
    for _, r in df.iterrows():
        v = int(r.cov_num_dec)
        assert r.sign == (v > 0) - (v < 0)
        assert v == int(r.n) * int(r.sum_xy) \
            - int(r.sum_x) * int(r.sum_y)


def test_bridges_oracle(ray_session, con):
    from battery.queries import QUERIES, _bridges_sql

    got = QUERIES["bridges_dups"](SF)
    exp = con.execute(_bridges_sql(SF)).df()
    _compare("bridges_dups", got, exp)


def test_bridges_known_graphs():
    """Path, cycle, barbell, star — textbook bridge/articulation
    counts."""
    from battery.queries import _bridges_articulation

    assert _bridges_articulation([(1, 2), (2, 3)]) == (3, 2, 2, 1)
    assert _bridges_articulation(
        [(1, 2), (2, 3), (1, 3)]) == (3, 3, 0, 0)
    barbell = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    assert _bridges_articulation(barbell) == (6, 7, 1, 2)
    assert _bridges_articulation(
        [(0, 1), (0, 2), (0, 3)]) == (4, 3, 3, 1)
    # two components: bridge edge + triangle
    two = [(1, 2), (10, 11), (11, 12), (10, 12)]
    assert _bridges_articulation(two) == (5, 4, 1, 0)


def test_bridges_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["bridges_dups"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert int(df.n_bridges.iloc[0]) <= int(df.n_edges.iloc[0])
    assert int(df.n_articulation.iloc[0]) <= int(df.n_nodes.iloc[0])
