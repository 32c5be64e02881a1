"""Round-3 batch: Stoer-Wagner min cut, Held-Karp TSP, radix trie
census — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _held_karp,
    _image_dir_for,
    _mincut_via_flow,
    _stoer_wagner,
    _sw_sql,
    _trie_counts,
    _tsp_memo,
    _tsp_sql,
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


# -- min cut ---------------------------------------------------------------------


def _W(n, edges):
    W = np.zeros((n, n), np.int64)
    for a, b, w in edges:
        W[a][b] += w
        W[b][a] += w
    return W


def test_mincut_bridge():
    # two triangles joined by one edge: global min cut = 1
    e = [(0, 1, 1), (1, 2, 1), (0, 2, 1),
         (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)]
    W = _W(6, e)
    assert _stoer_wagner(6, W) == 1
    assert _mincut_via_flow(6, W) == 1


def test_mincut_cycle_and_clique():
    # cycle: edge connectivity 2
    e = [(i, (i + 1) % 5, 1) for i in range(5)]
    W = _W(5, e)
    assert _stoer_wagner(5, W) == 2
    assert _mincut_via_flow(5, W) == 2
    # K4: min cut = 3 (isolate any vertex)
    e = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
    W = _W(4, e)
    assert _stoer_wagner(4, W) == 3
    assert _mincut_via_flow(4, W) == 3


def test_mincut_weighted_known():
    # the Stoer-Wagner paper's example graph has min cut 4
    e = [(0, 1, 2), (0, 4, 3), (1, 2, 3), (1, 4, 2), (1, 5, 2),
         (2, 3, 4), (2, 6, 2), (3, 6, 2), (3, 7, 2), (4, 5, 3),
         (5, 6, 1), (6, 7, 3)]
    W = _W(8, e)
    assert _stoer_wagner(8, W) == 4
    assert _mincut_via_flow(8, W) == 4


def test_mincut_sw_vs_flow_random():
    rng = np.random.default_rng(191)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        W = np.zeros((n, n), np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    w = int(rng.integers(1, 6))
                    W[i][j] = w
                    W[j][i] = w
        assert _stoer_wagner(n, W.copy()) == _mincut_via_flow(n, W)


def test_oracle_parity_sw(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["stoer_wagner_dups"](SF),
         con.execute(_sw_sql(SF)).df())


# -- TSP -------------------------------------------------------------------------


def _tsp_brute(dist):
    from itertools import permutations

    n = len(dist)
    if n <= 1:
        return 0
    best = None
    for perm in permutations(range(1, n)):
        tour = (0,) + perm + (0,)
        c = sum(dist[a][b] for a, b in zip(tour, tour[1:]))
        best = c if best is None or c < best else best
    return best


def test_tsp_square():
    # 4 corners of a rectangle (L1): tour = perimeter
    pts = [(0, 0), (0, 5), (7, 5), (7, 0)]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts]
            for a in pts]
    assert _held_karp(dist) == 24
    assert _tsp_memo(tuple(map(tuple, dist))) == 24


def test_tsp_nearest_neighbor_suboptimal():
    # crafted: NN from 0 chains the cheap edges 0→1→2→3 then pays 10
    # to close (13); reordering to 0-1-3-2-0 pays 12
    dist = [[0, 1, 5, 10], [1, 0, 1, 5], [5, 1, 0, 1], [10, 5, 1, 0]]
    hk = _held_karp(dist)
    assert hk == _tsp_brute(dist) == _tsp_memo(tuple(map(tuple, dist)))
    nn_tour = [0]
    left = {1, 2, 3}
    while left:
        cur = nn_tour[-1]
        nxt = min(left, key=lambda j: (dist[cur][j], j))
        nn_tour.append(nxt)
        left.discard(nxt)
    nn = sum(dist[a][b] for a, b in zip(nn_tour, nn_tour[1:]))
    nn += dist[nn_tour[-1]][0]
    assert hk < nn


def test_tsp_hk_vs_memo_vs_brute_random():
    rng = np.random.default_rng(193)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        M = rng.integers(1, 30, (n, n))
        M = (M + M.T).astype(int)
        np.fill_diagonal(M, 0)
        dist = M.tolist()
        hk = _held_karp(dist)
        assert hk == _tsp_memo(tuple(map(tuple, dist)))
        assert hk == _tsp_brute(dist)


def test_oracle_parity_tsp(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["held_karp_tsp_cells"](SF),
         con.execute(_tsp_sql(_image_dir_for(SF))).df())


# -- radix trie ------------------------------------------------------------------


def test_trie_known_vocab():
    # {"car", "cart", "cat"}: prefixes c, ca, car, cart, cat = 5
    # radix survivors: ca (branch: r/t), car (word), cart (word),
    # cat (word) = 4; "c" has one child and is no word → collapsed
    nw, tn, rn = _trie_counts(["car", "cart", "cat"])
    assert (nw, tn, rn) == (3, 5, 4)


def test_trie_no_sharing_and_chain():
    # disjoint words: trie = total chars, radix = one node per word
    nw, tn, rn = _trie_counts(["ab", "cd"])
    assert (nw, tn, rn) == (2, 4, 2)
    # single word: chain collapses to one node
    nw, tn, rn = _trie_counts(["abcde"])
    assert (nw, tn, rn) == (1, 5, 1)
    # word that is a prefix of another must survive compression
    nw, tn, rn = _trie_counts(["ab", "abcd"])
    assert (nw, tn, rn) == (2, 4, 2)


def test_oracle_parity_trie(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    _cmp(QUERIES["radix_trie_sources"](SF),
         con.execute(ORACLE_SQL["radix_trie_sources"]).df())
