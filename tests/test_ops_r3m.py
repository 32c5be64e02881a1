"""Round-3 batch M: coverage saturation curve, single-linkage merges,
caption-token brightness lift — sf0.001 oracle equality plus
structural invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "embeddings"):
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
        if a.dtype.kind == "f":
            assert (a == b.astype(float)).all(), (name, c)
        else:
            assert (a == b).all(), (name, c)


def test_coverage_curve_oracle(ray_session, con):
    from battery.queries import QUERIES, _coverage_curve_sql, _image_dir_for

    got = QUERIES["coverage_saturation_curve"](SF)
    exp = con.execute(_coverage_curve_sql(_image_dir_for(SF))).df()
    _compare("coverage_saturation_curve", got, exp)


def test_coverage_curve_conservation(ray_session, con):
    """Σ n_new_cells over bands = the number of distinct occupied
    cells (every cell is first-covered exactly once); bands in 1..8."""
    from battery.queries import (QUERIES, _image_dir_for, _sql_cell)

    df = QUERIES["coverage_saturation_curve"](SF).to_pandas()
    assert df.band.between(1, 8).all()
    img = _image_dir_for(SF)
    n_cells = con.execute(
        f"SELECT COUNT(DISTINCT {_sql_cell('lon', 'lat', 12)}) "
        f"FROM read_parquet('{img}/part-*.parquet')").fetchone()[0]
    assert int(df.n_new_cells.sum()) == int(n_cells)


def test_single_linkage_oracle(ray_session, con):
    from battery.queries import QUERIES, _slink_sql

    got = QUERIES["single_linkage_merges"](SF)
    exp = con.execute(_slink_sql(SF)).df()
    _compare("single_linkage_merges", got, exp)


def test_single_linkage_matches_flat_components(ray_session):
    """Cutting the dendrogram at the FULL edge set must reproduce the
    flat connected components: total merges = n_nodes - n_components,
    and sizes telescope (size_after <= previous max + ...)."""
    from battery.queries import QUERIES

    m = QUERIES["single_linkage_merges"](SF)
    cc = QUERIES["dup_clusters_embeddings"](SF)
    cc = cc.to_pandas() if hasattr(cc, "to_pandas") else cc
    n_nodes = len(cc)
    n_comps = cc.cluster_id.nunique()
    assert len(m) == n_nodes - n_comps
    # cosine is nonincreasing along the merge sequence
    assert (np.diff(m.cosine.to_numpy()) <= 0).all()
    assert (m.lo_root < m.hi_root).all()
    assert (m.size_after >= 2).all()
    # the largest merged size equals the largest flat component
    assert m.size_after.max() == cc.cluster_id.value_counts().max()


def test_caption_lift_oracle(ray_session, con):
    from battery.queries import (QUERIES, _caption_lift_sql,
                                 _image_dir_for)

    got = QUERIES["caption_token_brightness_lift"](SF)
    exp = con.execute(_caption_lift_sql(_image_dir_for(SF))).df()
    _compare("caption_token_brightness_lift", got, exp)


def test_caption_lift_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["caption_token_brightness_lift"](SF)
    assert len(df) == 10
    assert (df.n_images >= 16).all()
    # a token present in EVERY image has lift exactly 1e9 (share = 1);
    # 'tile' / 'near' / 'stop' are in all 1024 captions
    alltok = df[df.n_images == 1024]
    if len(alltok):
        assert (alltok.lift_ppb == 10**9).all()
    # lifts are sorted descending with token tie-break
    v = df.lift_ppb.to_numpy()
    assert (np.diff(v) <= 0).all()
