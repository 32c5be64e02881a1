"""Round-3 batch I: GTFS leg implied-speed audit, Good–Turing
frequency-of-frequencies spectrum, image granulometry — sf0.001 oracle
equality (mirrors the driver compare) plus structural invariants."""

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


def test_leg_speed_oracle(ray_session, con):
    from battery.queries import QUERIES, _leg_speed_sql

    got = QUERIES["gtfs_leg_speed_audit"](SF)
    exp = con.execute(_leg_speed_sql()).df()
    _compare("gtfs_leg_speed_audit", got, exp)


def test_leg_speed_conservation(ray_session, con):
    """Σ n_legs over classes = Σ per trip (n_stops − 1), grouped to the
    trip's route; classes stay in {0,1,2,3}."""
    from battery.queries import QUERIES, _fixture_sql_dir

    got = QUERIES["gtfs_leg_speed_audit"](SF).to_pandas()
    d = _fixture_sql_dir()
    exp = con.execute(f"""
        SELECT t.route_id, CAST(SUM(c.n - 1) AS BIGINT) AS legs
        FROM (SELECT trip_id, COUNT(*) AS n
              FROM read_parquet('{d}/stop_times.parquet')
              GROUP BY 1) c
        JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
        GROUP BY 1""").df().set_index("route_id")
    per = got.groupby("route_id")["n_legs"].sum()
    for rid, legs in per.items():
        assert legs == exp.loc[rid, "legs"]
    assert set(got["cls"]) <= {0, 1, 2, 3}


def test_freq_spectrum_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["freq_spectrum_sources"](SF)
    exp = con.execute(ORACLE_SQL["freq_spectrum_sources"]).df()
    _compare("freq_spectrum_sources", got, exp)


def test_freq_spectrum_conservation(ray_session, con):
    """Σ mass over buckets per source = that source's total token count
    (whitespace tokens, empties dropped); exact buckets c ≤ 10 satisfy
    mass = bucket·n_types; hapax cell matches a direct SQL count."""
    from battery.queries import QUERIES

    got = QUERIES["freq_spectrum_sources"](SF).to_pandas()
    tot = con.execute("""
        SELECT source, COUNT(*) AS n FROM documents,
             UNNEST(string_split(text, ' ')) AS t(tok)
        WHERE t.tok <> '' GROUP BY 1""").df().set_index("source")
    per = got.groupby("source")["mass"].sum()
    for src, m in per.items():
        assert m == tot.loc[src, "n"]
    lo = got[got["bucket"] <= 10]
    assert (lo["mass"] == lo["bucket"] * lo["n_types"]).all()
    hapax = con.execute("""
        WITH c AS (SELECT source, tok, COUNT(*) AS c FROM documents,
                        UNNEST(string_split(text, ' ')) AS t(tok)
                   WHERE t.tok <> '' GROUP BY 1, 2)
        SELECT source, COUNT(*) AS n1 FROM c WHERE c = 1
        GROUP BY 1""").df().set_index("source")
    one = got[got["bucket"] == 1].set_index("source")
    for src in hapax.index:
        assert one.loc[src, "n_types"] == hapax.loc[src, "n1"]


def test_granulometry_oracle(ray_session, con):
    from battery.queries import QUERIES, _granulo_sql, _image_dir_for

    got = QUERIES["granulometry_images"](SF)
    exp = con.execute(_granulo_sql(_image_dir_for(SF))).df()
    _compare("granulometry_images", got, exp)


def test_granulometry_antiextensive(ray_session):
    """Opening is anti-extensive and monotone in scale: per image
    mass(5) ≤ mass(3) ≤ gray mass, n_lowered(3) ≤ n_lowered(5), and
    n_lowered = 0 forces mass equality with the gray image."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for
    from geotile import synth as sy

    got = QUERIES["granulometry_images"](SF).to_pandas()
    piv = got.pivot_table(index="image_id", columns="scale",
                          values=["open_mass", "n_lowered"])
    assert (piv[("open_mass", 5)] <= piv[("open_mass", 3)]).all()
    assert (piv[("n_lowered", 3)] <= piv[("n_lowered", 5)]).all()

    t = pq.read_table(_image_dir_for(SF),
                      columns=["image_id", "w", "h"]).to_pandas()
    t = t.sort_values("image_id").head(64).set_index("image_id")
    import pyarrow as pa
    idx = sy.image_index(pa.array(t.index.to_numpy())).astype(np.uint64)
    for (iid, r), ix in zip(t.iterrows(), idx):
        px = sy.pixel_pattern(np.array([ix], np.uint64),
                              int(r["w"]), int(r["h"]))
        gm = int((px[0].astype(np.int64).sum(axis=2) // 3).sum())
        assert piv.loc[iid, ("open_mass", 3)] <= gm
        if piv.loc[iid, ("n_lowered", 3)] == 0:
            assert piv.loc[iid, ("open_mass", 3)] == gm
