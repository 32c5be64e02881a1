"""Round-3 batch: OSA distance, Luhn audit, CRC-32 — pins,
independent cross-checks, parity."""

import zlib

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _crc32_bitwise,
    _crc32_tab,
    _crc_sql,
    _luhn_check_digit,
    _osa_distance,
    _osa_memo,
    _osa_sql,
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


# -- OSA -------------------------------------------------------------------------


def test_osa_transposition_cheaper_than_levenshtein():
    # the defining case: adjacent swap costs 1, plain edit pays 2
    assert _osa_distance(["a", "b"], ["b", "a"]) == 1
    assert _osa_memo(["a", "b"], ["b", "a"]) == 1
    from battery.ops.fuzzy import levenshtein

    assert levenshtein("ab", "ba") == 2


def test_osa_classic_cases():
    assert _osa_distance(list("ca"), list("abc")) == 3  # OSA ≠ full DL
    assert _osa_memo(list("ca"), list("abc")) == 3
    assert _osa_distance([], ["x", "y"]) == 2
    assert _osa_distance(["x"], ["x"]) == 0
    assert _osa_distance(list("kitten"), list("sitting")) == 3


def test_osa_dp_vs_memo_random():
    rng = np.random.default_rng(331)
    vocab = ["w%d" % i for i in range(4)]
    for _ in range(50):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(0, 9))
        a = [vocab[i] for i in rng.integers(0, 4, n)]
        b = [vocab[i] for i in rng.integers(0, 4, m)]
        assert _osa_distance(a, b) == _osa_memo(a, b), (a, b)


def test_oracle_parity_osa(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["osa_adjacent_docs"](SF),
         con.execute(_osa_sql(SF)).df())


# -- Luhn ------------------------------------------------------------------------


def test_luhn_published_example():
    # 7992739871 → check digit 3 (the canonical Wikipedia example)
    assert _luhn_check_digit(7992739871) == 3
    # 1234 5678 9012 345 → appending 2 is a stretch; verify round
    # trip instead: for any n, n*10+d is Luhn-valid
    for n in (1, 79927398, 4539, 1234567):
        d = _luhn_check_digit(n)
        assert _luhn_check_digit((n * 10 + d) // 10) == d


def test_luhn_detects_single_digit_errors():
    # altering any single digit of a valid number breaks validity
    n = 7992739871
    d = _luhn_check_digit(n)
    full = n * 10 + d

    def valid(x):
        return _luhn_check_digit(x // 10) == x % 10

    assert valid(full)
    s = str(full)
    for pos in range(len(s)):
        for rep in "0123456789":
            if rep == s[pos]:
                continue
            mut = int(s[:pos] + rep + s[pos + 1:])
            assert not valid(mut), (pos, rep)


def test_oracle_parity_luhn(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    got = QUERIES["luhn_audit_orders"](SF)
    assert int(got["n"].sum()) > 0
    _cmp(got, con.execute(ORACLE_SQL["luhn_audit_orders"]).df())


# -- CRC-32 ----------------------------------------------------------------------


def test_crc_published_check_value():
    assert _crc32_tab(b"123456789") == 0xCBF43926
    assert _crc32_bitwise(b"123456789") == 0xCBF43926
    assert _crc32_tab(b"") == 0


def test_crc_three_way_vs_zlib_random():
    rng = np.random.default_rng(337)
    for _ in range(40):
        s = bytes(rng.integers(0, 256,
                               int(rng.integers(0, 120))).tolist())
        c = _crc32_tab(s)
        assert c == _crc32_bitwise(s) == zlib.crc32(s)


def test_crc_single_bit_sensitivity():
    a = b"the fast key order sort"
    b = b"the fast key order soru"     # one bit-ish change
    assert _crc32_tab(a) != _crc32_tab(b)


def test_oracle_parity_crc(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["crc32_docs"](SF),
         con.execute(_crc_sql(SF)).df())
