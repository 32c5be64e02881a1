"""Round-3 batch: Aho-Corasick census, Hungarian assignment, Hough
line peak — kernel pins, independent cross-checks, sf0.001 parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _AC_PATTERNS,
    _ac_build,
    _ac_counts,
    _assign_dp,
    _hough_peak_naive,
    _hough_peak_vec,
    _hough_sql,
    _hungarian,
    _hungarian_sql,
    _image_dir_for,
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


# -- Aho-Corasick ----------------------------------------------------------------


def _brute_occ(text, p):
    return sum(text[i:].startswith(p) for i in range(len(text)))


def test_ac_overlap_and_fail_links():
    auto = _ac_build(_AC_PATTERNS)
    cnt = _ac_counts(auto, "batch scan", len(_AC_PATTERNS))
    got = dict(zip(_AC_PATTERNS, cnt))
    # 'at' fires INSIDE 'batch' via the fail chain; 'an' inside 'scan'
    assert got["batch"] == 1 and got["at"] == 1
    assert got["scan"] == 1 and got["an"] == 1
    assert got["a"] == _brute_occ("batch scan", "a") == 2
    assert got["ta"] == 0


def test_ac_vs_brute_random():
    rng = np.random.default_rng(67)
    auto = _ac_build(_AC_PATTERNS)
    for _ in range(40):
        n = int(rng.integers(0, 40))
        s = "".join(rng.choice(list("abctns "), n))
        cnt = _ac_counts(auto, s, len(_AC_PATTERNS))
        for p, c in zip(_AC_PATTERNS, cnt):
            assert c == _brute_occ(s, p), (s, p)


def test_oracle_parity_aho(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    _cmp(QUERIES["aho_corasick_docs"](SF),
         con.execute(ORACLE_SQL["aho_corasick_docs"]).df())


# -- Hungarian -------------------------------------------------------------------


def _brute_assign(cost):
    from itertools import permutations

    n = len(cost)
    if n == 0:
        return 0
    return min(sum(cost[i][pi] for i, pi in enumerate(perm))
               for perm in permutations(range(n)))


def test_hungarian_known():
    cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
    assert _hungarian(cost) == 5
    assert _assign_dp(cost) == 5
    assert _brute_assign(cost) == 5


def test_hungarian_diagonal_and_constant():
    diag = [[0 if i == j else 9 for j in range(4)] for i in range(4)]
    assert _hungarian(diag) == 0
    assert _assign_dp(diag) == 0
    const = [[7] * 5 for _ in range(5)]
    assert _hungarian(const) == 35
    assert _assign_dp(const) == 35


def test_hungarian_vs_dp_vs_brute_random():
    rng = np.random.default_rng(71)
    for _ in range(30):
        n = int(rng.integers(0, 7))
        cost = rng.integers(0, 50, (n, n)).tolist()
        h = _hungarian(cost)
        assert h == _assign_dp(cost)
        assert h == _brute_assign(cost)


def test_hungarian_beats_greedy_example():
    # row-greedy picks 1 then is forced into 100: optimal crosses
    cost = [[1, 2], [3, 100]]
    assert _hungarian(cost) == 5  # 2 + 3, not 1 + 100


def test_oracle_parity_hungarian(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["hungarian_match_nations"](SF),
         con.execute(_hungarian_sql(SF)).df())


# -- Hough -----------------------------------------------------------------------


def test_hough_vertical_line():
    h, w = 12, 16
    luma = np.zeros((h, w), np.int64)
    luma[:, 6] = 765
    ne, th, r, v = _hough_peak_vec(luma)
    # two edge columns (x=5, x=6), each with h-1 pixels; ϑ=0 family
    # peaks there; ρ tie-break picks the smaller column
    assert (th, r, v) == (0, 5, h - 1)
    assert ne == 2 * (h - 1)
    assert _hough_peak_naive(luma) == (ne, th, r, v)


def test_hough_horizontal_and_diag():
    h = w = 12
    luma = np.zeros((h, w), np.int64)
    luma[4, :] = 765
    ne, th, r, v = _hough_peak_vec(luma)
    assert (th, v) == (1, w - 1)
    assert _hough_peak_naive(luma) == (ne, th, r, v)
    # anti-diagonal x+y = const lights the 45° family
    luma = np.zeros((h, w), np.int64)
    for x in range(h):
        luma[h - 1 - x, x] = 765
    ne2, th2, r2, v2 = _hough_peak_vec(luma)
    assert th2 == 2
    assert _hough_peak_naive(luma) == (ne2, th2, r2, v2)


def test_hough_shuffle_destroys_ridge():
    # a stripe and its pixel-shuffle share intensity stats, not peaks
    rng = np.random.default_rng(5)
    h, w = 16, 16
    luma = np.zeros((h, w), np.int64)
    luma[:, 8] = 765
    _, th, _, v = _hough_peak_vec(luma)
    flat = luma.flatten()
    rng.shuffle(flat)
    _, _, _, v2 = _hough_peak_vec(flat.reshape(h, w))
    assert v == h - 1 and v2 < v


def test_hough_flat_image_no_edges():
    luma = np.full((8, 8), 300, np.int64)
    assert _hough_peak_vec(luma) == (0, -1, -1, 0)
    assert _hough_peak_naive(luma) == (0, -1, -1, 0)


def test_hough_vec_vs_naive_random():
    rng = np.random.default_rng(83)
    for _ in range(25):
        h = int(rng.integers(2, 14))
        w = int(rng.integers(2, 14))
        luma = rng.integers(0, 766, (h, w)).astype(np.int64)
        assert _hough_peak_vec(luma) == _hough_peak_naive(luma)


def test_oracle_parity_hough(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["hough_peak_images"](SF),
         con.execute(_hough_sql(_image_dir_for(SF))).df())
