"""Round-3 batch: phash hubness histogram, Elias-Fano posting bits,
fleet-size sweep — kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _fleet_size_sql,
    _image_dir_for,
    _phash_hubness_sql,
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


# -- elias-fano kernel pins ------------------------------------------------


def _ef_bits(minutes):
    m = sorted(set(minutes))
    n, u = len(m), m[-1] - m[0] + 1
    el = (u // n).bit_length() - 1
    return n * el + n + (u >> el)


def test_ef_dense_run():
    # dense: n == u -> l = 0, bits = n + u
    assert _ef_bits([5, 6, 7, 8]) == 4 + 4


def test_ef_single():
    assert _ef_bits([42]) == 0 + 1 + 1


def test_ef_query(ray_session, tmp_path):
    # user 1: minutes {0, 1, 9} -> n=3, u=10, l=floor(log2(3))=1,
    # bits = 3*1 + 3 + (10>>1) = 11; duplicate minute collapses
    secs = [0, 30, 60, 540]
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "ts": pd.to_datetime(secs, unit="s"),
            "user_id": np.ones(4, dtype=np.int64),
            "event_type": ["click"] * 4,
            "value": [0.0] * 4,
            "props": ["{}"] * 4,
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   tmp_path / "events.parquet")
    out = QUERIES["elias_fano_bits_users"](str(tmp_path)).to_pandas()
    assert out.loc[0, "n_minutes"] == 3
    assert out.loc[0, "span"] == 10
    assert out.loc[0, "ef_bits"] == 11


# -- fleet-size sweep: end-exclusive tie semantics -------------------------


def test_fleet_sweep_end_exclusive():
    # spans [0,10) [10,20) never overlap; [0,10) [5,15) do
    df = pd.DataFrame(
        {
            "route_id": ["r"] * 4,
            "t": np.array([0, 10, 10, 20], np.int64),
            "delta": np.array([1, -1, 1, -1], np.int64),
        }
    )
    df = df.sort_values(["t", "delta"], kind="stable")
    assert int(df["delta"].to_numpy().cumsum().max()) == 1


# -- sf0.001 oracle parity -------------------------------------------------


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{SF}/events.parquet')")
    return c


def test_oracle_parity_ef(ray_session, con):
    _cmp(QUERIES["elias_fano_bits_users"](SF),
         con.execute(ORACLE_SQL["elias_fano_bits_users"]).df())


def test_oracle_parity_hubness(ray_session, con):
    img = _image_dir_for(SF)
    got = QUERIES["phash_hubness_images"](SF)
    exp = con.execute(_phash_hubness_sql(img)).df()
    _cmp(got, exp)
    # every image is exactly one query and has exactly one in-degree:
    # Σ(indeg·n_images) = n (each query votes once) and Σ n_images = n
    assert int((got["indegree"] * got["n_images"]).sum()) \
        == int(got["n_images"].sum())


def test_oracle_parity_fleet(ray_session, con):
    _cmp(QUERIES["fleet_size_routes"](SF),
         con.execute(_fleet_size_sql()).df())
