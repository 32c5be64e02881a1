"""Round-3 batch: IMA-ADPCM audit, Floyd-Steinberg dither, band-pair
census — kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _audio_dir_for,
    _dither_sql,
    _fs_dither_stats,
    _ima_encode_stats,
    _ima_sql,
    _image_dir_for,
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


# -- IMA-ADPCM kernel ---------------------------------------------------------


def test_ima_constant_signal_converges():
    # constant stream: error goes to 0 and the index walks down to 0
    e, ix, pr = _ima_encode_stats([1000] * 50)
    assert ix == 0
    assert pr == 1000 or abs(pr - 1000) <= 7  # within the min step
    # step ramp: a big jump saturates the 4-bit code, so error > 0
    e2, ix2, _ = _ima_encode_stats([0, 30000])
    assert e2 > 0 and ix2 == 8  # delta=7 -> index += 8


def test_ima_empty_and_single():
    assert _ima_encode_stats([]) == (0, 0, 0)
    assert _ima_encode_stats([123]) == (0, 0, 123)


def test_ima_clamps():
    # repeated max jumps must clamp predictor into int16 and index ≤ 88
    e, ix, pr = _ima_encode_stats([0] + [32767] * 200)
    assert -32768 <= pr <= 32767
    assert 0 <= ix <= 88


# -- Floyd-Steinberg kernel -----------------------------------------------------


def test_fs_uniform_white_and_black():
    white = [[765] * 8 for _ in range(8)]
    n_on, err = _fs_dither_stats(white)
    assert (n_on, err) == (64, 0)
    black = [[0] * 8 for _ in range(8)]
    assert _fs_dither_stats(black) == (0, 0)


def test_fs_mid_gray_differs_from_naive_threshold():
    # flat 382 (just under threshold): naive thresholding gives 0 ON,
    # diffusion pushes accumulated error over the threshold
    g = [[382] * 8 for _ in range(8)]
    n_on, _ = _fs_dither_stats(g)
    assert n_on > 0
    # and the ON mass approximates the gray level: 382/765 of 64 ≈ 31
    assert 20 <= n_on <= 44


def test_fs_error_conservation_split():
    # the integer split must hand out exactly e units
    for e in (-100, -1, 0, 1, 7, 100, 383):
        e7, e3, e5 = (e * 7) // 16, (e * 3) // 16, (e * 5) // 16
        assert e7 + e3 + e5 + (e - e7 - e3 - e5) == e


# -- sf0.001 oracle parity --------------------------------------------------------


def test_oracle_parity_ima(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["ima_adpcm_tracks"](SF),
         con.execute(_ima_sql(_audio_dir_for(SF))).df())


def test_oracle_parity_dither(ray_session):
    con = duckdb.connect()
    got = QUERIES["dither_fs_images"](SF)
    _cmp(got, con.execute(_dither_sql(_image_dir_for(SF))).df())
    g = got.to_pandas() if hasattr(got, "to_pandas") else got
    assert len(g) == 1024


def test_oracle_parity_band(ray_session):
    con = duckdb.connect()
    con.execute("CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["band_pair_census_orders"](SF),
         con.execute(ORACLE_SQL["band_pair_census_orders"]).df())
