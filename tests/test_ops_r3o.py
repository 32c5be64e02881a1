"""Round-3 batch O: direction stop asymmetry, box-count spectrum,
Moore-neighbourhood census — sf0.001 oracle equality plus structural
invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    return duckdb.connect()


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


def test_dir_asym_oracle(ray_session, con):
    from battery.queries import QUERIES, _dir_asym_sql

    got = QUERIES["direction_stop_asymmetry"](SF)
    exp = con.execute(_dir_asym_sql()).df()
    _compare("direction_stop_asymmetry", got, exp)


def test_dir_asym_conservation(ray_session, con):
    """only0 + only1 + shared = distinct stops served by the route."""
    from battery.queries import QUERIES, _fixture_sql_dir

    df = QUERIES["direction_stop_asymmetry"](SF).to_pandas()
    d = _fixture_sql_dir()
    exp = con.execute(f"""
        SELECT t.route_id,
               CAST(COUNT(DISTINCT st.stop_id) AS BIGINT) AS n
        FROM read_parquet('{d}/stop_times.parquet') st
        JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
        GROUP BY 1""").df().set_index("route_id").n
    got = (df.n_only0 + df.n_only1 + df.n_shared)
    got.index = df.route_id
    assert (got.sort_index() == exp.sort_index()).all()


def test_box_count_oracle(ray_session, con):
    from battery.queries import QUERIES, _box_count_sql, _image_dir_for

    got = QUERIES["box_count_images"](SF)
    exp = con.execute(_box_count_sql(_image_dir_for(SF))).df()
    _compare("box_count_images", got, exp)


def test_box_count_monotonicity(ray_session):
    """Box counts are nonincreasing in scale, and a k-box covers at
    most k^2 scale-1 boxes: n1 <= k^2 * nk."""
    from battery.queries import QUERIES

    df = QUERIES["box_count_images"](SF).to_pandas()
    w = df.pivot(index="image_id", columns="scale", values="n_boxes")
    assert (w[1] >= w[2]).all() and (w[2] >= w[4]).all() \
        and (w[4] >= w[8]).all()
    assert (w[1] <= 4 * w[2]).all()
    assert (w[2] <= 4 * w[4]).all()
    assert (w[4] <= 4 * w[8]).all()


def test_moore_census_oracle(ray_session, con):
    from battery.queries import QUERIES, _image_dir_for, _moore_sql

    got = QUERIES["cell_moore_census"](SF)
    exp = con.execute(_moore_sql(_image_dir_for(SF))).df()
    _compare("cell_moore_census", got, exp)


def test_moore_census_vs_perimeter(ray_session):
    """Moore cells total = perimeter op's n_cells (same ledger), and
    the 4-adjacency pairs bound the Moore degree sum from below:
    Σ deg·n >= 2·n_adj_pairs (Moore ⊇ von Neumann adjacency)."""
    from battery.queries import QUERIES

    m = QUERIES["cell_moore_census"](SF).to_pandas()
    p = QUERIES["coverage_perimeter_cells"](SF)
    p = p.to_pandas() if hasattr(p, "to_pandas") else p
    assert int(m.n_cells.sum()) == int(p.n_cells.iloc[0])
    deg_sum = int((m.n_neighbors * m.n_cells).sum())
    assert deg_sum >= 2 * int(p.n_adj_pairs.iloc[0])
    assert m.n_neighbors.between(0, 8).all()
    # Moore adjacency is symmetric: the degree sum is even
    assert deg_sum % 2 == 0
