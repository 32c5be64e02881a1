"""Round-3 batch: Kasiski/IoC, exact 1-D k-means, PAVA — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _VIG_KEY,
    QUERIES,
    _ck_sql,
    _ckmeans_dp,
    _ckmeans_memo,
    _friedman_keylen,
    _kasiski_keylen,
    _kasiski_sql,
    _pava_blocks,
    _pava_rescan,
    _pava_sql,
    _vigenere_enc,
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


# -- Kasiski / IoC ---------------------------------------------------------------


def test_vigenere_roundtrip_shift():
    ct = _vigenere_enc("abcde" * 4)
    # the key re-applies every 5 letters: positions 0 and 5 encrypt
    # the same plaintext letter identically
    assert ct[0] == ct[5] == ct[10]


def test_kasiski_recovers_on_repetitive_text():
    txt = ("the quick brown fox jumps over the lazy dog and then "
           "the quick brown fox runs back over the lazy dog again "
           "while the quick brown fox keeps jumping over the very "
           "lazy dog every single day the quick brown fox") * 3
    ct = _vigenere_enc(txt)
    assert _kasiski_keylen(ct) == len(_VIG_KEY)


def test_ioc_recovers_on_long_text():
    # long natural-ish text with skewed letter frequencies: IoC
    # should prefer the true period or a multiple of it
    words = ["the", "and", "data", "order", "table", "scan", "merge",
             "key", "row", "batch"]
    rng = np.random.default_rng(643)
    txt = " ".join(words[int(i)] for i in rng.integers(0, 10, 3000))
    ct = _vigenere_enc(txt)
    L = _friedman_keylen(ct)
    assert L % len(_VIG_KEY) == 0 or L == len(_VIG_KEY)


def test_oracle_parity_kasiski(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["kasiski_docs"](SF),
         con.execute(_kasiski_sql(SF)).df())


# -- ckmeans ---------------------------------------------------------------------


def test_ckmeans_beats_a_lloyd_fixed_point():
    # two tight triples + a separated pair: a Lloyd run seeded badly
    # can stabilize splitting a triple; the DP optimum keeps the
    # natural groups
    v = [0, 1, 2, 100, 101, 102, 1000, 1001]
    opt, _ = _ckmeans_dp(v, 3)
    # natural split cost: each group's n·Σx²−(Σx)²
    def cost(g):
        n = len(g)
        return n * sum(x * x for x in g) - sum(g) ** 2
    natural = cost([0, 1, 2]) + cost([100, 101, 102]) \
        + cost([1000, 1001])
    assert opt == natural
    # a worse (Lloyd-plausible) split is strictly beaten
    bad = cost([0, 1]) + cost([2, 100, 101, 102]) + cost([1000, 1001])
    assert opt < bad


def test_ckmeans_edges():
    assert _ckmeans_dp([], 3) == (0, 0)
    assert _ckmeans_dp([7, 7, 7], 2) == (0, 2)
    assert _ckmeans_dp([5], 4) == (0, 1)      # k capped at n
    # k = n → zero cost
    assert _ckmeans_dp([3, 9, 27], 3)[0] == 0


def test_ckmeans_dp_vs_memo_random():
    rng = np.random.default_rng(647)
    for _ in range(40):
        n = int(rng.integers(0, 22))
        k = int(rng.integers(1, 6))
        v = rng.integers(0, 50, n).tolist()
        assert _ckmeans_dp(v, k) == _ckmeans_memo(v, k)


def test_oracle_parity_ckmeans(ray_session):
    con = duckdb.connect()
    got = QUERIES["ckmeans_days"](SF)
    r = got.iloc[0]
    assert r["opt_cost"] <= r["k1_cost"]
    _cmp(got, con.execute(_ck_sql(SF)).df())


# -- PAVA ------------------------------------------------------------------------


def test_pava_monotone_input_untouched():
    v = [1, 2, 2, 5, 9]
    blocks = _pava_blocks(v)
    assert len(blocks) == len(v)       # already isotonic (ties OK)
    assert _pava_rescan(v) == blocks


def test_pava_reverse_collapses_to_one_block():
    v = [9, 7, 5, 3]
    blocks = _pava_blocks(v)
    assert blocks == [(0, 24, 4)]
    assert _pava_rescan(v) == blocks


def test_pava_fit_is_monotone_and_mean_preserving():
    rng = np.random.default_rng(653)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        v = rng.integers(0, 30, n).tolist()
        blocks = _pava_blocks(v)
        assert _pava_rescan(v) == blocks
        # block means non-decreasing (cross-multiplied)
        for (s1, m1, n1), (s2, m2, n2) in zip(blocks, blocks[1:]):
            assert m1 * n2 <= m2 * n1
        # partition covers exactly, sums preserved
        assert sum(b[2] for b in blocks) == n
        assert sum(b[1] for b in blocks) == sum(v)


def test_oracle_parity_pava(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["pava_days"](SF),
         con.execute(_pava_sql(SF)).df())
