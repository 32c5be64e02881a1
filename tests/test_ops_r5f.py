"""Round-3 batch: Jaro-Winkler fractions, Montgomery REDC, Karatsuba
— pins, independent cross-checks, parity."""

from fractions import Fraction

import duckdb
import numpy as np

from battery.queries import (
    _MG_N,
    QUERIES,
    _jaro_frac,
    _jaro_frac_lists,
    _jaro_sql,
    _jw_frac,
    _jw_frac_lists,
    _kara_sql,
    _karatsuba,
    _mg_mulmod,
    _mg_sql,
    _schoolbook_mul,
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


# -- Jaro-Winkler ----------------------------------------------------------------


def test_jaro_textbook_values():
    n, d = _jaro_frac("MARTHA", "MARHTA")
    assert Fraction(n, d) == Fraction(17, 18)
    n, d = _jw_frac("MARTHA", "MARHTA")
    assert Fraction(n, d) == Fraction(17, 18) \
        + Fraction(3, 10) * Fraction(1, 18)
    n, d = _jaro_frac("DIXON", "DICKSONX")
    assert abs(n / d - 0.7667) < 0.001
    assert _jaro_frac("abc", "abc") == (1, 1)
    assert _jaro_frac("abc", "xyz") == (0, 1)
    assert _jaro_frac("", "") == (1, 1)
    assert _jaro_frac("a", "") == (0, 1)


def test_jw_prefix_boost_monotone():
    # shared prefix strictly increases the score when jaro < 1
    j = Fraction(*_jaro_frac("prefab", "prefix"))
    w = Fraction(*_jw_frac("prefab", "prefix"))
    assert w > j


def test_jaro_flags_vs_lists_random():
    rng = np.random.default_rng(491)
    for _ in range(120):
        a = "".join(rng.choice(list("abcd"),
                               int(rng.integers(0, 14))))
        b = "".join(rng.choice(list("abcd"),
                               int(rng.integers(0, 14))))
        assert _jw_frac(a, b) == _jw_frac_lists(a, b), (a, b)


def test_oracle_parity_jaro(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["jaro_adjacent_docs"](SF),
         con.execute(_jaro_sql(SF)).df())


# -- Montgomery ------------------------------------------------------------------


def test_redc_matches_plain_modmul():
    rng = np.random.default_rng(499)
    for _ in range(200):
        a = int(rng.integers(0, 1 << 62))
        b = int(rng.integers(0, 1 << 62))
        assert _mg_mulmod(a, b) == a * b % _MG_N
    assert _mg_mulmod(0, 12345) == 0
    assert _mg_mulmod(1, 12345) == 12345 % _MG_N
    assert _mg_mulmod(_MG_N, 7) == 0


def test_oracle_parity_mg(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["montgomery_redc_orders"](SF),
         con.execute(_mg_sql(SF)).df())


# -- Karatsuba -------------------------------------------------------------------


def test_karatsuba_three_way():
    rng = np.random.default_rng(503)
    for _ in range(30):
        bits = int(rng.integers(1, 2000))
        a = int.from_bytes(rng.integers(0, 256, (bits + 7) // 8,
                                        dtype=np.uint8).tobytes(),
                           "big")
        b = int.from_bytes(rng.integers(0, 256, (bits + 7) // 8,
                                        dtype=np.uint8).tobytes(),
                           "big")
        native = a * b
        assert _karatsuba(a, b) == native
        assert _schoolbook_mul(a, b) == native


def test_karatsuba_edges():
    assert _karatsuba(0, 12345678901234567890) == 0
    assert _schoolbook_mul(0, 5) == 0
    big = (1 << 1024) - 1
    assert _karatsuba(big, big) == big * big


def test_oracle_parity_kara(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["karatsuba_bigint_sources"](SF),
         con.execute(_kara_sql(SF)).df())
