"""Round-3 batch: shard median, Boyer-Moore vote, Gray codes —
pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _bm_majority,
    _bmvote_sql,
    _from_gray,
    _from_gray_loop,
    _gray_sql,
    _med2_sql,
    _median2_merge,
    _median2_partition,
    _to_gray_vec,
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


# -- shard median ----------------------------------------------------------------


def test_median2_known():
    a = np.array([1, 3], np.int64)
    b = np.array([2], np.int64)
    assert _median2_partition(a, b) == 4         # median 2, doubled
    assert _median2_merge(a.tolist(), b.tolist()) == 4
    a = np.array([1, 2], np.int64)
    b = np.array([3, 4], np.int64)
    assert _median2_partition(a, b) == 5         # (2+3)
    # all mass in one shard
    assert _median2_partition(np.array([], np.int64),
                              np.array([7, 9, 11], np.int64)) == 18
    assert _median2_partition(np.array([5], np.int64),
                              np.array([], np.int64)) == 10


def test_median2_partition_vs_merge_random():
    rng = np.random.default_rng(523)
    for _ in range(200):
        n = int(rng.integers(0, 30))
        m = int(rng.integers(0, 30))
        if n + m == 0:
            continue
        a = np.sort(rng.integers(0, 50, n)).astype(np.int64)
        b = np.sort(rng.integers(0, 50, m)).astype(np.int64)
        got = _median2_partition(a, b)
        assert got == _median2_merge(a.tolist(), b.tolist())
        u = np.sort(np.concatenate([a, b]))
        t = len(u)
        exp = 2 * u[t // 2] if t % 2 else u[t // 2 - 1] + u[t // 2]
        assert got == int(exp)


def test_oracle_parity_med2(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["median_two_shards_orders"](SF),
         con.execute(_med2_sql(SF)).df())


# -- Boyer-Moore majority --------------------------------------------------------


def test_bm_majority_guarantee_random():
    # when a true majority exists, BM MUST find it — any order
    rng = np.random.default_rng(541)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        maj = "M"
        others = [f"x{i}" for i in range(5)]
        k = n // 2 + 1
        stream = [maj] * k + [others[int(i)] for i in
                              rng.integers(0, 5, n - k)]
        rng.shuffle(stream)
        cand, cnt, is_maj = _bm_majority(stream)
        assert cand == maj and is_maj == 1 and cnt == k


def test_bm_no_majority_order_dependent_but_flagged():
    # no majority: candidate depends on order, but the verify flag
    # is always honest
    s1 = ["a", "b", "c"]
    s2 = ["c", "b", "a"]
    c1, _n1, m1 = _bm_majority(s1)
    c2, _n2, m2 = _bm_majority(s2)
    assert m1 == 0 and m2 == 0
    assert c1 == "c" and c2 == "a"     # last survivor differs


def test_bm_annihilation_pairs():
    assert _bm_majority(["a", "b", "a", "b", "a"]) == ("a", 3, 1)
    assert _bm_majority(["z"]) == ("z", 1, 1)


def test_oracle_parity_bmvote(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["majority_vote_users"](SF),
         con.execute(_bmvote_sql(SF)).df())


# -- Gray codes ------------------------------------------------------------------


def test_gray_single_bit_steps():
    k = np.arange(256, dtype=np.uint64)
    g = _to_gray_vec(k)
    d = g[1:] ^ g[:-1]
    assert ((d & (d - np.uint64(1))) == 0).all()
    assert (d != 0).all()


def test_gray_roundtrip_both_decoders():
    rng = np.random.default_rng(547)
    for _ in range(200):
        k = int(rng.integers(0, 1 << 62))
        gg = k ^ (k >> 1)
        assert _from_gray(gg) == k
        assert _from_gray_loop(gg) == k
    assert _from_gray(0) == 0
    assert _from_gray_loop(1) == 1


def test_gray_is_bijection_small():
    ks = np.arange(1 << 12, dtype=np.uint64)
    gs = _to_gray_vec(ks)
    assert len(np.unique(gs)) == 1 << 12


def test_oracle_parity_gray(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["gray_roundtrip_orders"](SF),
         con.execute(_gray_sql(SF)).df())
