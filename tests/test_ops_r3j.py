"""Round-3 batch J: GTFS timed-transfer windows, BPE merge training,
exact Gram determinant — sf0.001 oracle equality (mirrors the driver
compare) plus structural invariants."""

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


def test_transfer_windows_oracle(ray_session, con):
    from battery.queries import QUERIES, _transfer_windows_sql

    got = QUERIES["gtfs_transfer_windows"](SF)
    exp = con.execute(_transfer_windows_sql()).df()
    _compare("gtfs_transfer_windows", got, exp)


def test_transfer_windows_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["gtfs_transfer_windows"](SF).to_pandas()
    assert len(df) > 0
    assert (df.min_wait >= 0).all() and (df.min_wait <= 900).all()
    assert (df.n_pairs >= df.n_dest_routes).all()
    assert (df.wait_sum >= df.min_wait * 1).all()
    # every pair waits at most 900 s, so the sum is bounded
    assert (df.wait_sum <= df.n_pairs * 900).all()


def test_bpe_merges_oracle(ray_session, con):
    from battery.queries import QUERIES, _bpe_sql

    got = QUERIES["bpe_merges_docs"](SF)
    exp = con.execute(_bpe_sql(SF)).df()
    _compare("bpe_merges_docs", got, exp)


def test_bpe_merges_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["bpe_merges_docs"](SF)
    assert len(df) == 20
    assert list(df["rank"]) == list(range(1, 21))
    # the max pair count is nonincreasing over merge rounds: merging
    # only removes occurrences of existing pairs, and a new pair's
    # count is bounded by a pre-merge pair count
    pcs = df.pair_count.to_numpy()
    assert (pcs[1:] <= pcs[:-1]).all()
    merged = (df.left + df.right).tolist()
    assert len(set(merged)) == 20  # a pair can be selected only once


def test_bpe_first_merge_is_modal_char_bigram(ray_session, con):
    """The rank-1 merge must equal the most frequent within-token char
    bigram counted directly in SQL (independent of the merge loop)."""
    from battery.queries import QUERIES

    df = QUERIES["bpe_merges_docs"](SF)
    exp = con.execute("""
        WITH w AS (SELECT tok, COUNT(*) AS c FROM (
                       SELECT unnest(string_split(text, ' ')) AS tok
                       FROM documents) WHERE tok <> '' GROUP BY 1),
        g AS (SELECT CAST(i AS INT) AS i
              FROM generate_series(1, 64) t(i)),
        p AS (SELECT substr(tok, g.i, 1) AS l,
                     substr(tok, g.i + 1, 1) AS r, w.c
              FROM w JOIN g ON g.i < length(tok))
        SELECT l, r, CAST(SUM(c) AS BIGINT) AS n FROM p
        GROUP BY 1, 2 ORDER BY n DESC, l, r LIMIT 1
    """).df()
    assert df.left.iloc[0] == exp.l.iloc[0]
    assert df.right.iloc[0] == exp.r.iloc[0]
    assert int(df.pair_count.iloc[0]) == int(exp.n.iloc[0])


def test_gram_det_oracle(ray_session, con):
    from battery.queries import QUERIES, _gram_det_sql

    got = QUERIES["gram_det_embeddings"](SF)
    exp = con.execute(_gram_det_sql(SF)).df()
    _compare("gram_det_embeddings", got, exp)


def test_gram_det_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["gram_det_embeddings"](SF)
    assert int(df.dim.iloc[0]) == 64
    assert int(df.n.iloc[0]) == 500
    d = int(df.det.iloc[0])
    # Gram matrices are PSD, and 500 generic vectors in R^64 have full
    # rank, so the exact determinant is strictly positive
    assert d > 0


def test_gram_det_rank_deficient_is_zero(ray_session, tmp_path):
    """n < dim must yield det = 0 exactly (rank deficiency)."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES

    t = pq.read_table(f"{SF}/embeddings.parquet").slice(0, 8)
    pq.write_table(t, tmp_path / "embeddings.parquet")
    df = QUERIES["gram_det_embeddings"](str(tmp_path))
    assert df.det.iloc[0] == "0"
