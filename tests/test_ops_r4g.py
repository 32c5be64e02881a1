"""Round-3 batch: skyline, LRS census, varint posting bytes — kernel
pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _lrs_bisect_set,
    _lrs_sa_kasai,
    _lrs_sql,
    _skyline_sweep,
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


# -- skyline kernel ----------------------------------------------------------


def _brute_skyline(cents, size):
    n = len(cents)
    keep = np.ones(n, bool)
    for i in range(n):
        for j in range(n):
            if (cents[j] <= cents[i] and size[j] >= size[i]
                    and (cents[j] < cents[i] or size[j] > size[i])):
                keep[i] = False
                break
    return keep


def test_skyline_duplicates_survive():
    cents = np.array([10, 10, 20], np.int64)
    size = np.array([5, 5, 9], np.int64)
    keep = _skyline_sweep(cents, size)
    assert keep.tolist() == [True, True, True]


def test_skyline_same_price_smaller_dominated():
    cents = np.array([10, 10], np.int64)
    size = np.array([5, 4], np.int64)
    assert _skyline_sweep(cents, size).tolist() == [True, False]


def test_skyline_vs_brute_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        cents = rng.integers(0, 15, n).astype(np.int64)
        size = rng.integers(0, 15, n).astype(np.int64)
        assert (_skyline_sweep(cents, size)
                == _brute_skyline(cents, size)).all()


def test_skyline_local_partial_sound():
    # global skyline ⊆ union of local skylines on any split
    rng = np.random.default_rng(29)
    cents = rng.integers(0, 30, 60).astype(np.int64)
    size = rng.integers(0, 30, 60).astype(np.int64)
    glob = set(np.flatnonzero(_brute_skyline(cents, size)).tolist())
    half = np.zeros(60, bool)
    half[:30] = True
    loc = set()
    for m in (half, ~half):
        idx = np.flatnonzero(m)
        k = _skyline_sweep(cents[idx], size[idx])
        loc |= set(idx[k].tolist())
    assert glob <= loc


# -- LRS kernels --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,v",
    [("", 0), ("a", 0), ("ab", 0), ("aa", 1), ("aaaa", 3),
     ("banana", 3),  # 'ana' overlapping
     ("abcXabc", 3)],
)
def test_lrs_known(text, v):
    assert _lrs_sa_kasai(text) == v
    assert _lrs_bisect_set(text) == v


def test_lrs_sa_vs_bisect_random():
    rng = np.random.default_rng(31)
    alpha = "abé "
    for _ in range(60):
        n = int(rng.integers(0, 70))
        t = "".join(alpha[i] for i in rng.integers(0, len(alpha), n))
        assert _lrs_sa_kasai(t) == _lrs_bisect_set(t), t


# -- sf0.001 oracle parity -----------------------------------------------------


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("part", "events"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def test_oracle_parity_skyline(ray_session, con):
    _cmp(QUERIES["skyline_parts"](SF),
         con.execute(ORACLE_SQL["skyline_parts"]).df())


def test_oracle_parity_lrs(ray_session, con):
    _cmp(QUERIES["lrs_census_sources"](SF),
         con.execute(_lrs_sql(SF)).df())


def test_oracle_parity_varint(ray_session, con):
    _cmp(QUERIES["varint_posting_bytes_users"](SF),
         con.execute(ORACLE_SQL["varint_posting_bytes_users"]).df())
