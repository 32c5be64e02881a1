"""Round-3 batch: Hopcroft-Karp matching, Manacher palindromes, 2-D
Kadane max submatrix — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _MSUB_K,
    QUERIES,
    _hk_sql,
    _hopcroft_karp,
    _image_dir_for,
    _kuhn_matching,
    _manacher_max,
    _manacher_sql,
    _max_submatrix,
    _max_submatrix_brute,
    _msub_sql,
    _pal_expand_max,
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


# -- matching --------------------------------------------------------------------


def test_matching_augmenting_beats_greedy():
    # path L1-R1, L1-R2, L2-R1: greedy matching L1-R1 strands L2;
    # the augmenting path recovers both pairs
    adj = {0: [1, 3], 2: [1]}
    assert _hopcroft_karp(adj, {1, 3}) == 2
    assert _kuhn_matching(adj) == 2


def test_matching_perfect_and_star():
    adj = {0: [1], 2: [3], 4: [5]}
    assert _hopcroft_karp(adj, {1, 3, 5}) == 3
    # star: many lefts fight for one right
    adj = {0: [9], 2: [9], 4: [9]}
    assert _hopcroft_karp(adj, {9}) == 1
    assert _kuhn_matching(adj) == 1


def test_matching_hk_vs_kuhn_random():
    rng = np.random.default_rng(139)
    for _ in range(40):
        nl = int(rng.integers(0, 10))
        nr = int(rng.integers(1, 10))
        adj = {}
        for u in range(nl):
            nbr = sorted(set(rng.integers(0, nr,
                                          rng.integers(0, 4)).tolist()))
            if nbr:
                adj[2 * u] = [2 * v + 1 for v in nbr]
        right = {v for vs in adj.values() for v in vs}
        assert _hopcroft_karp(adj, right) == _kuhn_matching(adj)


def test_oracle_parity_hk(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["hopcroft_karp_dups"](SF),
         con.execute(_hk_sql(SF)).df())


# -- Manacher --------------------------------------------------------------------


def test_manacher_known():
    assert _manacher_max("forgeeksskeegfor") == 10   # geeksskeeg
    assert _pal_expand_max("forgeeksskeegfor") == 10
    assert _manacher_max("abacaba") == 7
    assert _manacher_max("abba") == 4                 # even center
    assert _pal_expand_max("abba") == 4
    assert _manacher_max("abc") == 1
    assert _manacher_max("") == 0
    assert _pal_expand_max("") == 0
    assert _manacher_max("x") == 1


def test_manacher_vs_expand_random():
    rng = np.random.default_rng(149)
    for _ in range(60):
        n = int(rng.integers(0, 30))
        s = "".join(rng.choice(list("abc"), n))
        assert _manacher_max(s) == _pal_expand_max(s), s


def test_oracle_parity_manacher(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["manacher_docs"](SF),
         con.execute(_manacher_sql(SF)).df())


# -- max submatrix ---------------------------------------------------------------


def test_msub_thin_bar_beats_block():
    # a 1×12 bright bar on dark background: the free-shape optimum
    # takes exactly the bar; any 8×8 block dilutes it
    luma = np.zeros((16, 16), np.int64)
    luma[5, 2:14] = _MSUB_K + 100
    assert _max_submatrix(luma) == 12 * 100
    assert _max_submatrix_brute(luma) == 12 * 100


def test_msub_all_below_baseline():
    # every pixel below baseline: best = single least-bad pixel
    luma = np.full((4, 4), _MSUB_K - 7, np.int64)
    luma[2, 2] = _MSUB_K - 1
    assert _max_submatrix(luma) == -1
    assert _max_submatrix_brute(luma) == -1


def test_msub_vs_brute_random():
    rng = np.random.default_rng(151)
    for _ in range(25):
        h = int(rng.integers(1, 10))
        w = int(rng.integers(1, 10))
        luma = rng.integers(_MSUB_K - 50, _MSUB_K + 50,
                            (h, w)).astype(np.int64)
        assert _max_submatrix(luma) == _max_submatrix_brute(luma)


def test_oracle_parity_msub(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["max_submatrix_images"](SF),
         con.execute(_msub_sql(_image_dir_for(SF))).df())
