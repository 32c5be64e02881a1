"""Round-3 batch: integer Elo, Adler-32, Simple-9 — pins,
independent cross-checks, parity."""

import zlib

import duckdb
import numpy as np

from battery.queries import (
    _ELO_E3,
    QUERIES,
    _adler32_closed,
    _adler32_running,
    _adler_sql,
    _elo_expected_e3,
    _elo_run,
    _elo_sql,
    _s9_decode,
    _s9_encode,
    _s9_sql,
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


# -- Elo -------------------------------------------------------------------------


def test_elo_table_properties():
    # symmetric around 500 at diff 0; monotone in diff; clamped tails
    assert _elo_expected_e3(0) == 500
    assert _elo_expected_e3(400) > 900
    assert _elo_expected_e3(-400) < 100
    vals = [_elo_expected_e3(d) for d in range(-800, 801, 25)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert len(_ELO_E3) == 65


def test_elo_upset_moves_more_points():
    # an underdog win transfers more rating than a favorite win
    r1 = _elo_run([(0, 1, 1000)], [0, 1])       # equal players
    base_gain = r1[0] - 1500
    r2 = _elo_run([(0, 1, 0), (0, 1, 1000)], [0, 1])
    # after losing once, player 0 is the underdog; the win gains more
    # than a fresh equal-match win
    assert r2[0] - (1500 + (r1[0] - 1500) - base_gain) >= 0


def test_elo_deterministic_and_bounded():
    rng = np.random.default_rng(691)
    players = list(range(6))
    matches = [(int(a), int(b), int(s) * 500)
               for a, b, s in zip(rng.integers(0, 6, 200),
                                  rng.integers(0, 6, 200),
                                  rng.integers(0, 3, 200))
               if a != b]
    r1 = _elo_run(matches, players)
    r2 = _elo_run(matches, players)
    assert r1 == r2
    drift = sum(r1.values()) - 1500 * len(players)
    assert abs(drift) <= len(matches)


def test_oracle_parity_elo(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["elo_weekly_nations"](SF),
         con.execute(_elo_sql(SF)).df())


# -- Adler-32 --------------------------------------------------------------------


def test_adler_published_and_zlib():
    assert _adler32_running(b"Wikipedia") == 0x11E60398
    assert _adler32_closed(b"Wikipedia") == 0x11E60398
    rng = np.random.default_rng(701)
    for _ in range(40):
        s = bytes(rng.integers(0, 256,
                               int(rng.integers(0, 300))).tolist())
        v = _adler32_running(s)
        assert v == _adler32_closed(s) == zlib.adler32(s)
    assert _adler32_running(b"") == 1


def test_oracle_parity_adler(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["adler32_docs"](SF),
         con.execute(_adler_sql(SF)).df())


# -- Simple-9 --------------------------------------------------------------------


def test_s9_dense_small_values_pack_28():
    # 28 one-bit values fit one word
    vals = [1] * 28
    w = _s9_encode(vals)
    assert len(w) == 1
    assert _s9_decode(w, 28) == vals


def test_s9_large_values_one_per_word():
    vals = [1 << 27, (1 << 28) - 1]
    w = _s9_encode(vals)
    assert len(w) == 2
    assert _s9_decode(w, 2) == vals


def test_s9_roundtrip_random_and_empty():
    rng = np.random.default_rng(709)
    assert _s9_encode([]) == []
    for _ in range(100):
        n = int(rng.integers(0, 60))
        mag = int(rng.integers(1, 28))
        vals = [int(v) for v in rng.integers(0, 1 << mag, n)]
        w = _s9_encode(vals)
        assert _s9_decode(w, n) == vals


def test_oracle_parity_s9(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["simple9_users"](SF),
         con.execute(_s9_sql(SF)).df())
