"""Round-3 batch G: shingle boilerplate census, cohort retention
matrix, Euler quad census — sf0.001 oracle equality for the SQL ops
(mirrors the driver compare) plus the structural invariants the
oracles can't see."""

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


@pytest.mark.parametrize("name", [
    "boilerplate_shingles_docs",
    "cohort_retention_matrix",
])
def test_r3g_oracle_matches(ray_session, con, name):
    from battery.queries import ORACLE_SQL, QUERIES

    _compare(name, QUERIES[name](SF), con.execute(ORACLE_SQL[name]).df())


def test_cohort_matrix_conservation(ray_session, con):
    """Column sums: offset-0 row count per cohort equals the cohort's
    user count (every user is active on their own first day), and the
    total cell mass equals the distinct (user, day) count."""
    from battery.queries import QUERIES

    df = QUERIES["cohort_retention_matrix"](SF).to_pandas()
    total = con.execute(
        "SELECT COUNT(*) FROM (SELECT DISTINCT user_id, "
        "epoch_us(ts)//86400000000 FROM events)").fetchone()[0]
    assert int(df["n_users"].sum()) == total
    day0 = df[df.day_offset == 0]
    n_users = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(day0["n_users"].sum()) == n_users
    # retention within a cohort never exceeds its day-0 size
    base = day0.set_index("cohort_day")["n_users"]
    assert (df["n_users"] <= df["cohort_day"].map(base).to_numpy()).all()


def test_euler_quad_sidecar_equality(ray_session):
    """Engine (vectorized shifted views) vs the independent python quad
    walk, exact, over the sf0.001 image table."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _euler_sidecar, _image_dir_for

    img = _image_dir_for(SF)
    got = _canon(QUERIES["euler_quad_images"](SF).to_pandas())
    exp = _canon(pq.read_table(_euler_sidecar(img)).to_pandas())
    assert len(got) == len(exp) > 0
    for c in got.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_euler_connectivity_identity(ray_session):
    """Gray's identity: E4 - E8 == QD exactly, and with the synth
    pattern's dense foreground the counts stay plausibly bounded
    (|E| <= pixel count)."""
    from battery.queries import QUERIES

    df = QUERIES["euler_quad_images"](SF).to_pandas()
    assert len(df) == 1024
    assert (df.euler4 - df.euler8 == df.qd).all()
    assert (df.q1 >= 0).all() and (df.q3 >= 0).all() and (df.qd >= 0).all()


def test_audio_crest_sidecar_equality(ray_session):
    import pyarrow.parquet as pq

    from battery.queries import (QUERIES, _audio_crest_sidecar,
                                 _audio_dir_for)

    got = _canon(QUERIES["audio_crest_factor"](SF).to_pandas())
    exp = _canon(pq.read_table(
        _audio_crest_sidecar(_audio_dir_for(SF))).to_pandas())
    assert len(got) == len(exp) > 0
    for c in got.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    # structural: peak^2 <= energy <= peak^2 * n (peak is a sample)
    assert (got.peak ** 2 <= got.energy).all()


def test_video_ptp_conservation(ray_session):
    from battery.queries import QUERIES
    from geotile.synth import VIDEO_H, VIDEO_W

    df = QUERIES["video_pixel_range_hist"](SF).to_pandas()
    per_clip = df.groupby("clip_id")["n"].sum()
    assert (per_clip == VIDEO_H * VIDEO_W * 3).all()


def test_video_ptp_sidecar_equality(ray_session):
    import pyarrow.parquet as pq

    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_ptp_sidecar)

    got = _canon(QUERIES["video_pixel_range_hist"](SF).to_pandas())
    exp = _canon(pq.read_table(
        _video_ptp_sidecar(_video_dir_for(SF))).to_pandas())
    assert len(got) == len(exp) > 0
    for c in got.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_cm_heavy_hitters_oracle(ray_session, con):
    from battery.queries import QUERIES, _cmhh_sql

    got = QUERIES["cm_heavy_hitters_audit"](SF)
    exp = con.execute(_cmhh_sql(SF)).df()
    _compare("cm_heavy_hitters_audit", got, exp)
    # count-min error is one-sided: estimate never undershoots
    assert (got["over_c"] >= 0).all()


def test_tax_rounding_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["tax_rounding_audit"](SF)
    exp = con.execute(ORACLE_SQL["tax_rounding_audit"]).df()
    _compare("tax_rounding_audit", got, exp)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    n_orders = con.execute(
        "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem").fetchone()[0]
    assert int(got["n_orders"].sum()) == n_orders


def test_palette_quant_conservation_and_sidecar(ray_session):
    import pyarrow.parquet as pq

    from battery.queries import (QUERIES, _image_dir_for,
                                 _palette_sidecar)

    got = QUERIES["palette_quant_images"](SF).to_pandas()
    per_img = got.groupby("image_id")["n"].sum()
    # mixed sizes: every image's counts must sum to its own w*h
    sizes = pq.read_table(_image_dir_for(SF),
                          columns=["image_id", "w", "h"]).to_pandas()
    sizes["px"] = sizes.w * sizes.h
    m = sizes.set_index("image_id")["px"]
    assert (per_img == per_img.index.map(m)).all()
    exp = _canon(pq.read_table(
        _palette_sidecar(_image_dir_for(SF))).to_pandas())
    gc = _canon(got)
    assert len(gc) == len(exp) > 0
    for c in gc.columns:
        assert (gc[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_dup_diameter_oracle(ray_session, con):
    from battery.queries import QUERIES, _diameter_sql

    got = QUERIES["dup_diameter_sweep"](SF)
    exp = con.execute(_diameter_sql(SF)).df()
    _compare("dup_diameter_sweep", got, exp)
    # the double-sweep invariant: ecc(far1) >= d(far1, start) = ecc1
    assert (got["ecc2"] >= got["ecc1"]).all()


@pytest.mark.parametrize("name", [
    "spectral_mass_embeddings",
    "front_coding_vocab",
    "length_sortedness_sources",
    "tax_rounding_audit",
])
def test_r3g_batch_d_oracle(ray_session, con, name):
    from battery.queries import ORACLE_SQL, QUERIES

    _compare(name, QUERIES[name](SF), con.execute(ORACLE_SQL[name]).df())


def test_spectral_mass_bounds(ray_session):
    """Cauchy-Schwarz sandwich: trace^2/dim <= frob2 <= trace^2, so
    the participation ratio lies in [1, 64]."""
    from battery.queries import QUERIES

    df = QUERIES["spectral_mass_embeddings"](SF)
    tr, fr = int(df.trace[0]), int(df.frob2[0])
    assert tr > 0 and fr > 0
    assert tr * tr <= 64 * fr
    assert fr <= tr * tr


def test_front_coding_known_vocab(ray_session, tmp_path):
    """Hand-checkable vocabulary: {'ab','abc','abd','b'} sorted gives
    LCPs 0,2,2,0 -> saved 4, raw 9, max 2."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / "sf"
    d.mkdir()
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["ab abc b", "abd ab"]),
                  "lang": pa.array(["en", "en"]),
                  "source": pa.array(["s0", "s0"]),
                  "n_chars": pa.array([8, 6], pa.int64())})
    pq.write_table(t, d / "documents.parquet")
    from battery.queries import QUERIES

    df = QUERIES["front_coding_vocab"](str(d))
    assert df.n_tokens[0] == 4
    assert df.raw_chars[0] == 9
    assert df.saved_chars[0] == 4
    assert df.max_lcp[0] == 2
