"""Round-3 batch: Apriori triples, Reed-Solomon erasure, LZ77 parse
— pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _RS_P,
    ORACLE_SQL,
    QUERIES,
    _lagrange_eval,
    _lz77_parse,
    _lz77_parse_replay,
    _lz77_sql,
    _newton_eval,
    _rs_sql,
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


# -- Apriori ---------------------------------------------------------------------


def test_oracle_parity_apriori(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    _cmp(QUERIES["apriori_triples_docs"](SF),
         con.execute(ORACLE_SQL["apriori_triples_docs"]).df())


def test_apriori_downward_closure_logic():
    # pure logic check: a triple with an infrequent sub-pair must be
    # pruned before counting
    from itertools import combinations

    top = ["a", "b", "c", "d"]
    fpairs = {("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")}
    cands = [(x, y, z) for x, y, z in combinations(top, 3)
             if (x, y) in fpairs and (x, z) in fpairs
             and (y, z) in fpairs]
    assert cands == [("a", "b", "c")]   # abd lacks (b,d); acd (c,d)


# -- Reed-Solomon ----------------------------------------------------------------


def test_rs_constant_and_linear():
    xs = [0, 1, 2]
    ys = [5, 5, 5]
    assert _lagrange_eval(xs, ys, 10) == 5
    assert _newton_eval(xs, ys, 10) == 5
    ys = [1, 3, 5]                         # y = 2x + 1
    assert _lagrange_eval(xs, ys, 7) == 15
    assert _newton_eval(xs, ys, 7) == 15


def test_rs_lagrange_vs_newton_random():
    rng = np.random.default_rng(229)
    for _ in range(30):
        k = int(rng.integers(1, 9))
        xs = list(range(k))
        ys = [int(v) for v in rng.integers(0, 10000, k)]
        for x in (k, k + 1, 50):
            assert _lagrange_eval(xs, ys, x) == _newton_eval(xs, ys, x)


def test_rs_erasure_recovery_any_subset():
    # any k of the n shards reconstruct the erased ones exactly
    rng = np.random.default_rng(233)
    k = 7
    xs = list(range(k))
    ys = [int(v) for v in rng.integers(0, 100000, k)]
    par = [_lagrange_eval(xs, ys, k + j) for j in range(2)]
    for erase in ((0, 6), (2, 3), (1, 4)):
        keep_x = [i for i in range(k) if i not in erase] + [7, 8]
        keep_y = [ys[i] for i in range(k) if i not in erase] + par
        for e in erase:
            assert _lagrange_eval(keep_x, keep_y, e) == ys[e] % _RS_P
            assert _newton_eval(keep_x, keep_y, e) == ys[e] % _RS_P


def test_oracle_parity_rs(ray_session):
    con = duckdb.connect()
    got = QUERIES["rs_erasure_weekly"](SF)
    assert (got["recovered_ok"] == 1).all()
    _cmp(got, con.execute(_rs_sql(SF)).df())


# -- LZ77 ------------------------------------------------------------------------


def test_lz77_run_length_via_overlap():
    # 'a'*20: literal a, literal a? no — after 1 char, window has
    # 'a', match at distance 1 extends the full run (overlap)
    ph, li, ma = _lz77_parse("a" * 20)
    assert (ph, li, ma) == (1, 1, 19)
    assert _lz77_parse_replay("a" * 20) == (1, 1, 19)


def test_lz77_incompressible_and_repeat():
    ph, li, ma = _lz77_parse("abcdefg")
    assert (ph, li, ma) == (0, 7, 0)
    # 'abcabcabc': literals abc then one overlapping match of 6
    ph, li, ma = _lz77_parse("abcabcabc")
    assert (ph, li, ma) == (1, 3, 6)
    assert _lz77_parse_replay("abcabcabc") == (1, 3, 6)


def test_lz77_empty_and_short():
    assert _lz77_parse("") == (0, 0, 0)
    assert _lz77_parse("aa") == (0, 2, 0)  # match len 1 < MIN


def test_lz77_forward_vs_backward_random():
    rng = np.random.default_rng(239)
    for _ in range(40):
        n = int(rng.integers(0, 120))
        s = "".join(rng.choice(list("abc "), n))
        assert _lz77_parse(s) == _lz77_parse_replay(s), s


def test_lz77_conservation():
    rng = np.random.default_rng(241)
    for _ in range(10):
        s = "".join(rng.choice(list("ab"), 60))
        ph, li, ma = _lz77_parse(s)
        assert li + ma == len(s)


def test_oracle_parity_lz77(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["lz77_parse_docs"](SF),
         con.execute(_lz77_sql(SF)).df())
