"""Round-3 batch K: route-color contrast audit, Rice-coding audit,
all-pairs distance histogram — sf0.001 oracle equality (mirrors the
driver compare) plus structural invariants."""

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


def test_color_contrast_oracle(ray_session, con):
    from battery.queries import QUERIES, _color_contrast_sql

    got = QUERIES["route_color_contrast"](SF)
    exp = con.execute(_color_contrast_sql()).df()
    _compare("route_color_contrast", got, exp)


def test_color_contrast_known_values(ray_session):
    """Hand-checked YIQ values: white FFFFFF -> 255000, black 000000
    -> 0; the NULL-color route gets the GTFS spec defaults and is
    maximally readable."""
    from battery.queries import QUERIES

    df = QUERIES["route_color_contrast"](SF).to_pandas()
    dflt = df[(df.bg == "FFFFFF") & (df.fg == "000000")]
    assert len(dflt) >= 1
    assert (dflt.yiq_bg == 255000).all() and (dflt.yiq_fg == 0).all()
    assert (dflt.brightness_diff == 255000).all()
    assert (dflt.color_diff == 765).all()
    assert (dflt.readable == 1).all()
    # E31837 on FFFFFF: Y = 299*227 + 587*24 + 114*55 = 88231
    red = df[df.bg == "E31837"]
    assert len(red) == 1 and int(red.yiq_bg.iloc[0]) == 88231


def test_rice_coding_oracle(ray_session, con):
    from battery.queries import QUERIES, _rice_sql, _audio_dir_for

    got = QUERIES["rice_coding_tracks"](SF)
    exp = con.execute(_rice_sql(_audio_dir_for(SF))).df()
    _compare("rice_coding_tracks", got, exp)


def test_rice_coding_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["rice_coding_tracks"](SF).to_pandas()
    assert len(df) > 0
    assert df.best_k.between(0, 15).all()
    # k = 15 codes every residual in >= 16 bits, so the optimum never
    # exceeds the verbatim baseline by more than the stop bits
    assert (df.best_bits <= df.fixed_bits + df.n_resid).all()
    # a Rice code spends at least one bit (the unary stop) per residual
    assert (df.best_bits >= df.n_resid).all()


def test_rice_coding_beats_naive_bound(ray_session):
    """Direct recomputation of the k=7 cost from synth samples must be
    >= the reported optimum (argmin property, independent arithmetic)."""
    import geotile.synth as sy
    from battery.queries import QUERIES

    df = QUERIES["rice_coding_tracks"](SF).to_pandas() \
        .sort_values("track_id").reset_index(drop=True)
    ids = df.track_id.to_numpy()
    pcm = sy.audio_samples(ids).astype(np.int64)
    dd = pcm[:, 1:] - pcm[:, :-1]
    u = np.where(dd >= 0, 2 * dd, -2 * dd - 1)
    c7 = (u >> 7).sum(axis=1) + u.shape[1] * 8
    assert (df.best_bits.to_numpy() <= c7).all()


def test_pair_dist_hist_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["pair_dist_hist_embeddings"](SF)
    exp = con.execute(ORACLE_SQL["pair_dist_hist_embeddings"]).df()
    _compare("pair_dist_hist_embeddings", got, exp)


def test_pair_dist_hist_conservation(ray_session):
    """Buckets partition all C(n,2) unordered pairs exactly once."""
    from battery.queries import QUERIES

    df = QUERIES["pair_dist_hist_embeddings"](SF).to_pandas()
    assert int(df.n_pairs.sum()) == 500 * 499 // 2
    assert (df.bucket >= 0).all() and (df.bucket <= 63).all()


def test_pair_dist_hist_multiblock_agrees(ray_session, tmp_path):
    """Forcing 4 blocks (block-pair tiles + triangle diagonal actually
    exercised) must give the identical histogram as independent numpy
    brute force over all pairs."""
    import pyarrow.parquet as pq

    from battery.queries import q_pair_dist_hist_embeddings

    t = pq.read_table(f"{SF}/embeddings.parquet").slice(0, 120)
    pq.write_table(t, tmp_path / "embeddings.parquet")
    got = q_pair_dist_hist_embeddings(str(tmp_path), _block_rows=30)
    got = got.to_pandas().set_index("bucket").n_pairs.sort_index()

    V = np.floor(np.stack(
        t["embedding"].to_numpy(zero_copy_only=False))
        .astype(np.float64) * 1e6).astype(np.int64)
    iu = np.triu_indices(len(V), k=1)
    d2 = ((V[iu[0]] - V[iu[1]]) ** 2).sum(axis=1)
    bk = np.where(d2 > 0, np.frexp(d2.astype(np.float64))[1], 0)
    exp = pd.Series(bk).value_counts().sort_index()
    assert int(got.sum()) == 120 * 119 // 2
    assert (got == exp).all()
