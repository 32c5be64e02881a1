"""Round-3 batch T: customer basket Jaccard, token stutter, trip
duration direction asymmetry — sf0.001 oracle equality plus
structural invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("orders", "lineitem", "documents"):
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
        assert (a == b).all(), (name, c)


def test_basket_jaccard_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["customer_basket_jaccard"](SF)
    exp = con.execute(ORACLE_SQL["customer_basket_jaccard"]).df()
    _compare("customer_basket_jaccard", got, exp)


def test_basket_jaccard_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["customer_basket_jaccard"](SF).to_pandas()
    assert len(df) == 10
    assert (df.a < df.b).all()
    assert (df.inter >= 2).all()
    # the intersection can't exceed either basket
    assert (df.inter <= df.size_a).all()
    assert (df.inter <= df.size_b).all()
    v = df.inter.to_numpy()
    assert (np.diff(v) <= 0).all()


def test_stutter_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["token_stutter_docs"](SF)
    exp = con.execute(ORACLE_SQL["token_stutter_docs"]).df()
    _compare("token_stutter_docs", got, exp)


def test_stutter_direct_recheck(ray_session):
    """Recompute each reported run directly from the raw text."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES

    df = QUERIES["token_stutter_docs"](SF).to_pandas()
    assert len(df) == 10 and (df.run_len >= 2).all()
    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"])
    tmap = dict(zip(texts["doc_id"].to_pylist(),
                    texts["text"].to_pylist()))
    for _, row in df.iterrows():
        toks = tmap[row.doc_id].split()
        best, cur, btok = 1, 1, None
        for a, b in zip(toks, toks[1:]):
            cur = cur + 1 if a == b else 1
            if cur > best:
                best, btok = cur, b
        assert best == row.run_len
        assert btok == row.token


def test_trip_dir_asym_oracle(ray_session, con):
    from battery.queries import QUERIES, _trip_dir_asym_sql

    got = QUERIES["trip_duration_direction_asymmetry"](SF)
    exp = con.execute(_trip_dir_asym_sql()).df()
    _compare("trip_duration_direction_asymmetry", got, exp)


def test_trip_dir_asym_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["trip_duration_direction_asymmetry"](SF)
    assert len(df) == 3  # all caltrain routes run both directions
    assert (df.n0 > 0).all() and (df.n1 > 0).all()
    assert (df.dur0_sum > 0).all() and (df.dur1_sum > 0).all()
    assert (df.asym_num >= 0).all()
    assert (df.asym_num ==
            (df.dur0_sum * df.n1 - df.dur1_sum * df.n0).abs()).all()
