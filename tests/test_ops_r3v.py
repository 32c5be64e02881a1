"""Round-3 batch V: shape self-intersections, duplicate scanline
census, brevity law — sf0.001 oracle equality plus structural
invariants and a synthetic figure-eight test."""

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


def test_self_xing_oracle(ray_session, con):
    from battery.queries import QUERIES, _self_xing_sql

    got = QUERIES["shape_self_intersections"](SF)
    exp = con.execute(_self_xing_sql()).df()
    _compare("shape_self_intersections", got, exp)


def test_self_xing_figure_eight(ray_session, con, tmp_path,
                                monkeypatch):
    """A synthetic figure-eight (one proper crossing) and a plain L
    (zero crossings) must score exactly 1 and 0 on BOTH engines."""
    fix = tmp_path / "caltrain"
    fix.mkdir()
    # figure-eight: (0,0)->(2,2)->(2,0)->(0,2): segment 0 and 2 cross
    pq.write_table(pa.table({
        "shape_id": ["eight"] * 4 + ["ell"] * 3,
        "shape_pt_lon": [0.0, 2e-4, 2e-4, 0.0, 0.0, 1e-4, 1e-4],
        "shape_pt_lat": [0.0, 2e-4, 0.0, 2e-4, 0.0, 0.0, 1e-4],
        "shape_pt_sequence": [0, 1, 2, 3, 0, 1, 2]}),
        fix / "shapes.parquet")
    (fix / "_COMPLETE").write_text("")
    monkeypatch.setenv("GEOTILE_CACHE", str(tmp_path))

    from battery.queries import QUERIES, _self_xing_sql

    got = QUERIES["shape_self_intersections"](SF).to_pandas() \
        .set_index("shape_id")
    exp = con.execute(_self_xing_sql()).df().set_index("shape_id")
    assert int(got.loc["eight", "n_crossings"]) == 1
    assert int(got.loc["ell", "n_crossings"]) == 0
    assert (got.sort_index() == exp.sort_index()).all().all()


def test_dup_rows_oracle(ray_session, con):
    from battery.queries import QUERIES, _dup_rows_sql, _image_dir_for

    got = QUERIES["dup_rows_images"](SF)
    exp = con.execute(_dup_rows_sql(_image_dir_for(SF))).df()
    _compare("dup_rows_images", got, exp)


def test_dup_rows_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["dup_rows_images"](SF).to_pandas()
    assert len(df) == 1024
    assert (df.n_distinct_rows >= 1).all()
    assert (df.n_distinct_rows <= df.h).all()
    assert (df.n_distinct_cols >= 1).all()
    assert (df.n_distinct_cols <= df.w).all()


def test_brevity_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["brevity_law_docs"](SF)
    exp = con.execute(ORACLE_SQL["brevity_law_docs"]).df()
    _compare("brevity_law_docs", got, exp)


def test_brevity_consistency(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["brevity_law_docs"](SF)
    cov = int(df.cov_num.iloc[0])
    assert np.sign(cov) == int(df.cov_sign.iloc[0])
    assert int(df.n_types.iloc[0]) > 0
    # count_sum = total token occurrences, len_sum = vocab char mass
    assert int(df.count_sum.iloc[0]) >= int(df.n_types.iloc[0])
