"""Round-3 batch: BWT run census, Gorilla timestamp bits, roaring
container census — known-value pins, cross-implementation checks, and
sf0.001 oracle parity."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from battery.queries import (
    QUERIES,
    _bwt_runs_np,
    _bwt_runs_scalar,
    _bwt_sql,
    _suffix_array_np,
    ORACLE_SQL,
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
        a, b = g[c].to_numpy(), x[c].to_numpy()
        assert (a == b).all(), c


# -- suffix array / BWT kernels ------------------------------------------


def test_suffix_array_banana():
    s = "banana\x00"
    codes = np.frombuffer(s.encode("utf-32-le"), np.uint32).astype(np.int64)
    sa = _suffix_array_np(codes)
    suffixes = [s[i:] for i in sa]
    assert suffixes == sorted(s[i:] for i in range(len(s)))


@pytest.mark.parametrize(
    "text,runs",
    [
        ("", 1),                 # BWT("\x00") = "\x00" -> 1 run
        ("a", 2),                # BWT of "a\x00": rotations -> "a\x00" -> 2
        ("aaaa", 2),             # all-equal text: sentinel run + one 'a' run
        ("banana", 5),           # classic: BWT(banana$) = annb$aa -> 5 runs
    ],
)
def test_bwt_runs_known(text, runs):
    assert _bwt_runs_np(text) == runs
    assert _bwt_runs_scalar(text) == runs


def test_bwt_np_vs_scalar_random():
    rng = np.random.default_rng(7)
    alpha = "abcdé你 "
    for _ in range(60):
        n = int(rng.integers(0, 80))
        t = "".join(alpha[i] for i in rng.integers(0, len(alpha), n))
        assert _bwt_runs_np(t) == _bwt_runs_scalar(t), t


def test_bwt_orders_sorted_vs_shuffled():
    # same character multiset, radically different r: context clustering
    rng = np.random.default_rng(3)
    toks = [f"tok{i % 7}" for i in range(100)]
    srt = " ".join(sorted(toks))
    rng.shuffle(toks)
    shuf = " ".join(toks)
    assert _bwt_runs_np(srt) < _bwt_runs_np(shuf)


# -- gorilla kernel pin ---------------------------------------------------


def test_gorilla_hand_case(ray_session, tmp_path):
    # secs [0, 10, 20, 100]: deltas [10,10,80], dod [10,0,70]
    # bits: 9 + 1 + 12; total = 64 + 22 = 86
    ev = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "ts": pd.to_datetime([0, 10, 20, 100], unit="s"),
            "user_id": np.array([1, 1, 1, 1], dtype=np.int64),
            "event_type": ["click"] * 4,
            "value": [0.0] * 4,
            "props": ["{}"] * 4,
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   tmp_path / "events.parquet")
    out = QUERIES["gorilla_ts_bits_users"](str(tmp_path)).to_pandas()
    assert out.loc[0, "n_events"] == 4
    assert out.loc[0, "total_bits"] == 86


def test_gorilla_single_event(ray_session, tmp_path):
    ev = pd.DataFrame(
        {
            "event_id": np.array([0], dtype=np.int64),
            "ts": pd.to_datetime([5], unit="s"),
            "user_id": np.array([9], dtype=np.int64),
            "event_type": ["view"],
            "value": [1.0],
            "props": ["{}"],
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   tmp_path / "events.parquet")
    out = QUERIES["gorilla_ts_bits_users"](str(tmp_path)).to_pandas()
    assert out.loc[0, "total_bits"] == 64


# -- roaring kernel pin ---------------------------------------------------


def test_roaring_container_boundary(ray_session, tmp_path):
    # secs: 3 distinct in container 0 (0, 1, 65535 w/ dup), 1 in container 1
    secs = [0, 1, 65535, 65535, 65536]
    ev = pd.DataFrame(
        {
            "event_id": np.arange(len(secs), dtype=np.int64),
            "ts": pd.to_datetime(secs, unit="s"),
            "user_id": np.ones(len(secs), dtype=np.int64),
            "event_type": ["click"] * len(secs),
            "value": [0.0] * len(secs),
            "props": ["{}"] * len(secs),
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   tmp_path / "events.parquet")
    out = QUERIES["roaring_container_census"](str(tmp_path)).to_pandas()
    assert out.loc[0, "n_containers"] == 2
    assert out.loc[0, "n_array"] == 2
    assert out.loc[0, "n_bitmap"] == 0
    assert out.loc[0, "n_distinct_secs"] == 4
    assert out.loc[0, "roaring_bytes"] == 2 * 3 + 2 * 1


# -- sf0.001 oracle parity -------------------------------------------------


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "documents"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", ["gorilla_ts_bits_users",
                                  "roaring_container_census"])
def test_oracle_parity_sql(ray_session, con, name):
    _cmp(QUERIES[name](SF), con.execute(ORACLE_SQL[name]).df())


def test_oracle_parity_bwt(ray_session, con):
    _cmp(QUERIES["bwt_runs_sources"](SF), con.execute(_bwt_sql(SF)).df())
