"""Round-3 batch: DTW adjacent tracks, Viterbi segmentation, KMP
border census — kernel pins, independent cross-checks, sf0.001 parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _audio_dir_for,
    _border_from_z,
    _border_kmp,
    _border_sql,
    _dtw_cost,
    _dtw_naive,
    _dtw_sql,
    _viterbi_bw,
    _viterbi_fw,
    _viterbi_sql,
    _z_array,
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


# -- DTW kernel ----------------------------------------------------------------


def test_dtw_identical_zero():
    a = np.array([3, 1, 4, 1, 5], np.int64)
    assert _dtw_cost(a, a) == 0
    assert _dtw_naive(a, a) == 0


def test_dtw_time_stretch_invariance():
    # repeating elements is a pure time warp: cost stays 0
    a = np.array([2, 7, 7, 1], np.int64)
    b = np.array([2, 2, 2, 7, 1, 1], np.int64)
    assert _dtw_cost(a, b) == 0
    assert _dtw_naive(a, b) == 0


def test_dtw_constant_offset():
    # constant vs constant+k: every path cell costs k, min path has
    # max(n, m) cells
    a = np.full(5, 10, np.int64)
    b = np.full(8, 13, np.int64)
    assert _dtw_cost(a, b) == 8 * 3
    assert _dtw_naive(a, b) == 8 * 3


def test_dtw_vec_vs_naive_random():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        a = rng.integers(-100, 100, n)
        b = rng.integers(-100, 100, m)
        assert _dtw_cost(a, b) == _dtw_naive(a, b)


def test_oracle_parity_dtw(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["dtw_adjacent_tracks"](SF),
         con.execute(_dtw_sql(_audio_dir_for(SF))).df())


# -- Viterbi kernel --------------------------------------------------------------


def _viterbi_brute(obs):
    best = None
    n = len(obs)
    for mask in range(1 << n):
        states = [(mask >> i) & 1 for i in range(n)]
        c = sum(int(s != o) for s, o in zip(states, obs))
        w = sum(int(a != b) for a, b in zip(states, states[1:]))
        key = (c + 2 * w, w)
        if best is None or key < best:
            best = key
    return best


def test_viterbi_all_same():
    assert _viterbi_fw([0] * 9) == (0, 0)
    assert _viterbi_fw([1] * 4) == (0, 0)
    assert _viterbi_bw([1] * 4) == (0, 0)


def test_viterbi_blip_absorbed():
    # one hot blip inside an idle run: absorbing it (cost 1) beats a
    # round trip (cost 4)
    obs = [0, 0, 0, 1, 0, 0, 0]
    assert _viterbi_fw(obs) == (1, 0)
    assert _viterbi_bw(obs) == (1, 0)


def test_viterbi_sustained_run_switches():
    # a long hot block flips the state once: 2 < block length
    obs = [0] * 4 + [1] * 4
    assert _viterbi_fw(obs) == (2, 1)
    assert _viterbi_bw(obs) == (2, 1)


def test_viterbi_fw_bw_brute_random():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(0, 12))
        obs = rng.integers(0, 2, n).tolist()
        f = _viterbi_fw(obs)
        assert f == _viterbi_bw(obs)
        if n:
            assert f == _viterbi_brute(obs)


def test_oracle_parity_viterbi(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["viterbi_segments_users"](SF),
         con.execute(_viterbi_sql(SF)).df())


# -- border array ----------------------------------------------------------------


def _border_brute(s: bytes):
    n = len(s)
    pi = []
    for i in range(n):
        p = i + 1
        b = 0
        for L in range(1, p):
            if s[:L] == s[p - L:p]:
                b = L
        pi.append(b)
    return pi


def test_border_known():
    s = b"abcabcab"
    pi = _border_kmp(s)
    assert pi == [0, 0, 0, 1, 2, 3, 4, 5]
    assert _border_from_z(s) == pi
    # minimal period of the 8-char string is 8 - 5 = 3 ("abc")
    assert len(s) - pi[-1] == 3


def test_border_kmp_vs_z_vs_brute_random():
    rng = np.random.default_rng(59)
    for _ in range(80):
        n = int(rng.integers(1, 25))
        s = bytes(rng.integers(97, 100, n).tolist())  # a..c: dense borders
        b = _border_brute(s)
        assert _border_kmp(s) == b
        assert _border_from_z(s) == b


def test_z_array_known():
    z = _z_array(b"aabaab")
    assert z == [6, 1, 0, 3, 1, 0]


def test_oracle_parity_border(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["border_census_docs"](SF),
         con.execute(_border_sql(SF)).df())
