"""Round-3 batch R: STTR per source, typicality outliers, video Rice
temporal cost — sf0.001 oracle equality plus structural invariants."""

import duckdb
import numpy as np
import pandas as pd
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


def test_sttr_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["sttr_sources"](SF)
    exp = con.execute(ORACLE_SQL["sttr_sources"]).df()
    _compare("sttr_sources", got, exp)


def test_sttr_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["sttr_sources"](SF).to_pandas()
    assert (df.n_tokens <= 512).all()
    assert (df.n_types <= df.n_tokens).all()
    assert (df.n_types >= 1).all()


def test_typicality_oracle(ray_session, con):
    from battery.queries import (QUERIES, _image_dir_for,
                                 _typicality_sql)

    got = QUERIES["typicality_outlier_images"](SF)
    exp = con.execute(_typicality_sql(_image_dir_for(SF))).df()
    _compare("typicality_outlier_images", got, exp)


def test_typicality_scores_sorted(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["typicality_outlier_images"](SF)
    assert len(df) == 10
    scores = [int(s) for s in df.score]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert all(s > 0 for s in scores)
    assert (df.n_pixels > 0).all()


def test_video_rice_oracle(ray_session, con):
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_rice_sql)

    got = QUERIES["video_rice_temporal"](SF)
    exp = con.execute(_video_rice_sql(_video_dir_for(SF))).df()
    _compare("video_rice_temporal", got, exp)


def test_video_rice_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["video_rice_temporal"](SF).to_pandas()
    assert len(df) > 0
    assert df.best_k.between(0, 15).all()
    # optimum can't beat 1 bit (the unary stop) per residual sample
    n_resid = df.fixed_bits // 8
    assert (df.best_bits >= n_resid).all()
    # k=15 upper-bounds the optimum near the verbatim baseline
    assert (df.best_bits <= df.fixed_bits + 8 * n_resid).all()
