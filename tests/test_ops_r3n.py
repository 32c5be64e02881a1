"""Round-3 batch N: stop dwell census, shingle novelty curve, texture
direction census — sf0.001 oracle equality plus structural invariants,
and a synthetic-fixture test exercising every dwell class (the real
fixture is all zero-dwell)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute("CREATE VIEW documents AS SELECT * FROM "
              f"read_parquet('{SF}/documents.parquet')")
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


def test_dwell_census_oracle(ray_session, con):
    from battery.queries import QUERIES, _dwell_sql

    got = QUERIES["stop_dwell_census"](SF)
    exp = con.execute(_dwell_sql()).df()
    _compare("stop_dwell_census", got, exp)


def test_dwell_census_conservation(ray_session, con):
    """Σ n_stops over classes = total stop_times rows per route."""
    from battery.queries import QUERIES, _fixture_sql_dir

    df = QUERIES["stop_dwell_census"](SF).to_pandas()
    d = _fixture_sql_dir()
    exp = con.execute(f"""
        SELECT t.route_id, CAST(COUNT(*) AS BIGINT) AS n
        FROM read_parquet('{d}/stop_times.parquet') st
        JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
        GROUP BY 1""").df().set_index("route_id").n
    got = df.groupby("route_id").n_stops.sum()
    assert (got.sort_index() == exp.sort_index()).all()


def test_dwell_census_all_classes_synthetic(ray_session, con,
                                            tmp_path, monkeypatch):
    """A synthetic fixture with negative / zero / short / medium / long
    dwells must hit every class and match the SQL replay exactly (the
    caltrain fixture is all zero-dwell, so the class ladder needs its
    own fixture)."""
    import os

    fix = tmp_path / "caltrain"
    fix.mkdir()
    trips = pa.table({"trip_id": ["tA", "tB"],
                      "route_id": ["R1", "R2"]})
    st = pa.table({
        "trip_id": ["tA"] * 5 + ["tB"] * 3,
        "stop_id": [f"s{i}" for i in range(8)],
        "stop_sequence": list(range(5)) + list(range(3)),
        "arrival_time": ["06:00:00", "06:10:00", "06:20:30",
                         "06:40:00", "25:10:00",
                         "07:00:00", "07:30:00", "08:00:59"],
        "departure_time": ["06:00:00", "06:09:30", "06:21:00",
                           "06:42:00", "25:15:00",
                           "07:00:01", "07:30:00", "08:03:00"]})
    pq.write_table(trips, fix / "trips.parquet")
    pq.write_table(st, fix / "stop_times.parquet")
    (fix / "_COMPLETE").write_text("")
    monkeypatch.setenv("GEOTILE_CACHE", str(tmp_path))

    from battery.queries import QUERIES, _dwell_sql

    got = QUERIES["stop_dwell_census"](SF).to_pandas()
    exp = con.execute(_dwell_sql()).df()
    _compare("stop_dwell_census_synth", got, exp)
    # dwells: 0, -30, 30, 120, 300 | 1, 0, 121 -> classes hit:
    assert set(got.cls) == {-1, 0, 1, 2, 3}


def test_shingle_novelty_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["shingle_novelty_curve"](SF)
    exp = con.execute(ORACLE_SQL["shingle_novelty_curve"]).df()
    _compare("shingle_novelty_curve", got, exp)


def test_shingle_novelty_conservation(ray_session, con):
    """Σ n_new_shingles = number of distinct 3-gram shingles."""
    from battery.queries import QUERIES

    df = QUERIES["shingle_novelty_curve"](SF).to_pandas()
    n = con.execute(r"""
        WITH tok AS (SELECT doc_id,
                            string_split_regex(trim(text), '\s+') AS ts
                     FROM documents)
        SELECT COUNT(DISTINCT array_to_string(ts[i:i+2], ' '))
        FROM tok, LATERAL (SELECT unnest(generate_series(
            1, len(ts) - 2)) AS i)""").fetchone()[0]
    assert int(df.n_new_shingles.sum()) == int(n)
    assert df.band.between(1, 8).all()


def test_texture_direction_oracle(ray_session, con):
    from battery.queries import (QUERIES, _image_dir_for,
                                 _texture_dir_sql)

    got = QUERIES["texture_direction_census"](SF)
    exp = con.execute(_texture_dir_sql(_image_dir_for(SF))).df()
    _compare("texture_direction_census", got, exp)


def test_texture_direction_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["texture_direction_census"](SF).to_pandas()
    assert len(df) == 1024
    assert set(df.direction).issubset({-1, 0, 1})
    assert (np.sign(df.h_flips - df.v_flips) == df.direction).all()
    # flip counts are bounded by the number of adjacent diff pairs
    assert (df.h_flips >= 0).all() and (df.v_flips >= 0).all()
