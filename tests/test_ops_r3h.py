"""Round-3 batch H (session continuation): GTFS shape-segment length
bands, image saturation census, audio LSB-bias audit — sf0.001 oracle
equality (mirrors the driver compare) plus the structural invariants
the oracles can't see."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
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


def test_shape_seg_bands_oracle(ray_session, con):
    from battery.queries import QUERIES, _shape_seg_bands_sql

    got = QUERIES["shape_seg_length_bands"](SF)
    exp = con.execute(_shape_seg_bands_sql()).df()
    _compare("shape_seg_length_bands", got, exp)


def test_shape_seg_bands_conservation(ray_session, con):
    """Σ n_segs per shape = (points per shape) − 1, and every band's
    d2 mass sits inside its dyadic window [2^(b−1), 2^b)·n."""
    from battery.queries import QUERIES, _fixture_sql_dir

    got = QUERIES["shape_seg_length_bands"](SF).to_pandas()
    d = _fixture_sql_dir()
    pts = con.execute(
        f"SELECT shape_id, COUNT(*) AS np FROM "
        f"read_parquet('{d}/shapes.parquet') GROUP BY 1").df()
    segs = got.groupby("shape_id")["n_segs"].sum()
    for _, r in pts.iterrows():
        assert segs[r["shape_id"]] == r["np"] - 1
    nz = got[got["band"] > 0]
    lo = 2 ** (nz["band"].to_numpy(np.int64) - 1)
    hi = 2 ** nz["band"].to_numpy(np.int64)
    n = nz["n_segs"].to_numpy(np.int64)
    m = nz["d2_mass"].to_numpy(np.int64)
    assert (m >= lo * n).all() and (m < hi * n).all()
    z = got[got["band"] == 0]
    assert (z["d2_mass"].to_numpy() == 0).all()


def test_saturation_census_oracle(ray_session, con):
    from battery.queries import QUERIES, _image_dir_for, _saturation_sql

    got = QUERIES["saturation_census_images"](SF)
    exp = con.execute(_saturation_sql(_image_dir_for(SF))).df()
    _compare("saturation_census_images", got, exp)


def test_saturation_census_conservation(ray_session):
    """Σn over buckets = w·h per image; bucket 0 carries zero mass
    (exactly-gray pixels) and every image emits exactly 9 rows."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    got = QUERIES["saturation_census_images"](SF).to_pandas()
    dims = pq.read_table(_image_dir_for(SF),
                         columns=["image_id", "w", "h"]).to_pandas()
    dims = dims.set_index("image_id")
    per = got.groupby("image_id").agg(n=("n", "sum"),
                                      rows=("bucket", "count"))
    assert (per["rows"] == 9).all()
    for iid, r in per.iterrows():
        assert r["n"] == dims.loc[iid, "w"] * dims.loc[iid, "h"]
    z = got[got["bucket"] == 0]
    assert (z["s_mass"].to_numpy() == 0).all()


def test_audio_lsb_oracle(ray_session, con):
    from battery.queries import QUERIES, _audio_dir_for, _audio_lsb_sql

    got = QUERIES["audio_lsb_bias"](SF)
    exp = con.execute(_audio_lsb_sql(_audio_dir_for(SF))).df()
    _compare("audio_lsb_bias", got, exp)


def test_audio_lsb_invariants(ray_session):
    """bias = 2·n_odd − n; longest_run·n_runs ≥ n ≥ longest_run;
    run count only exceeds 1 when both parities occur."""
    from battery.queries import QUERIES
    from geotile.synth import AUDIO_SAMPLES

    got = QUERIES["audio_lsb_bias"](SF).to_pandas()
    n = AUDIO_SAMPLES
    assert (got["bias"] == 2 * got["n_odd"] - n).all()
    assert (got["longest_run"] >= 1).all()
    assert (got["longest_run"] <= n).all()
    assert (got["n_runs"] * got["longest_run"] >= n).all()
    mixed = (got["n_odd"] > 0) & (got["n_odd"] < n)
    assert (got.loc[mixed, "n_runs"] > 1).all()
