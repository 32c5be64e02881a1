"""Round-3 batch: TTC exchange, voting methods, hull width — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _hull_width_brute,
    _hull_width_frac,
    _hwidth_sql,
    _image_dir_for,
    _ttc_allocate,
    _ttc_allocate_pointer,
    _ttc_sql,
    _vote_sql,
    _vote_winners,
    _vote_winners_recount,
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


# -- TTC -------------------------------------------------------------------------


def test_ttc_self_loops_and_swap():
    # everyone already owns their favorite: all self-loops, round 1
    pref = [[0, 1], [1, 0]]
    alloc, rnd = _ttc_allocate(pref)
    assert alloc == [0, 1] and rnd == [1, 1]
    # mutual swap: 0 wants 1's item, 1 wants 0's
    pref = [[1, 0], [0, 1]]
    alloc, rnd = _ttc_allocate(pref)
    assert alloc == [1, 0] and rnd == [1, 1]
    assert _ttc_allocate_pointer(pref) == (alloc, rnd)


def test_ttc_chain_rounds():
    # 0 wants item 0 (keeps it, round 1); 1 wants 0's item but must
    # settle — rounds strictly ordered
    pref = [[0, 1, 2], [0, 1, 2], [0, 1, 2]]
    alloc, rnd = _ttc_allocate(pref)
    assert alloc == [0, 1, 2]
    assert rnd == [1, 2, 3]


def test_ttc_visited_vs_floyd_random():
    rng = np.random.default_rng(431)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        pref = [rng.permutation(n).tolist() for _ in range(n)]
        a = _ttc_allocate(pref)
        assert a == _ttc_allocate_pointer(pref)
        alloc, _ = a
        assert sorted(alloc) == list(range(n))
        for i in range(n):
            assert pref[i].index(alloc[i]) <= pref[i].index(i)


def test_oracle_parity_ttc(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["ttc_exchange_nations"](SF),
         con.execute(_ttc_sql(SF)).df())


# -- voting ----------------------------------------------------------------------


def test_vote_split_vote_divergence():
    # classic vote splitting: 2 similar candidates split a majority,
    # plurality elects the minority favorite, Borda/Condorcet do not
    ballots = ([[1, 2, 9]] * 4 + [[2, 1, 9]] * 3 + [[9, 1, 2]] * 5)
    p, b, c, i = _vote_winners(ballots, [1, 2, 9])
    assert p == 9                  # plurality: 5 > 4 > 3
    assert b == 1 and c == 1       # majority coalition prefers 1
    assert i == 1                  # IRV eliminates 2, transfers to 1
    assert _vote_winners_recount(ballots, [1, 2, 9]) == (p, b, c, i)


def test_vote_condorcet_paradox():
    # rock-paper-scissors cycle: no Condorcet winner
    ballots = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    _p, _b, c, _i = _vote_winners(ballots, [1, 2, 3])
    assert c == -1
    assert _vote_winners_recount(ballots, [1, 2, 3])[2] == -1


def test_vote_unanimous_and_single():
    ballots = [[4, 7], [4, 7], [4, 7]]
    assert _vote_winners(ballots, [4, 7]) == (4, 4, 4, 4)
    assert _vote_winners([[3]], [3]) == (3, 3, 3, 3)


def test_vote_engine_vs_recount_random():
    rng = np.random.default_rng(433)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        cands = sorted(rng.choice(50, m, replace=False).tolist())
        ballots = [list(np.array(cands)[rng.permutation(m)])
                   for _ in range(int(rng.integers(1, 25)))]
        assert _vote_winners(ballots, cands) \
            == _vote_winners_recount(ballots, cands)


def test_oracle_parity_vote(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["voting_methods_nations"](SF),
         con.execute(_vote_sql(SF)).df())


# -- hull width ------------------------------------------------------------------


def test_width_rectangle_and_segment():
    # 10×4 rectangle: width² = 16 (short side)
    ix = np.array([0, 10, 10, 0], np.int64)
    iy = np.array([0, 0, 4, 4], np.int64)
    _h, num, den = _hull_width_frac(ix, iy)
    assert (num, den) == (16, 1)
    _h, num, den = _hull_width_brute(ix, iy)
    assert (num, den) == (16, 1)
    # collinear: width 0
    ix = np.array([0, 5, 9], np.int64)
    iy = np.zeros(3, np.int64)
    assert _hull_width_frac(ix, iy)[1:] == (0, 1)
    assert _hull_width_brute(ix, iy)[1:] == (0, 1)


def test_width_tilted_triangle_exact_fraction():
    # triangle (0,0),(4,0),(0,3): min width vs hypotenuse:
    # cross = |4·3| = 12 over edge len² = 25 → 144/25
    ix = np.array([0, 4, 0], np.int64)
    iy = np.array([0, 0, 3], np.int64)
    _h, num, den = _hull_width_frac(ix, iy)
    assert (num, den) == (144, 25)
    assert _hull_width_brute(ix, iy)[1:] == (144, 25)


def test_width_le_diameter_and_cross_check_random():
    from battery.queries import _diam2_brute

    rng = np.random.default_rng(439)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        ix = rng.integers(-50, 50, n).astype(np.int64)
        iy = rng.integers(-50, 50, n).astype(np.int64)
        _h1, num, den = _hull_width_frac(ix, iy)
        assert (_hull_width_brute(ix, iy))[1:] == (num, den)
        d2 = _diam2_brute(ix, iy)
        assert num <= d2 * den     # width ≤ diameter, exactly


def test_oracle_parity_width(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["hull_width_cells"](SF),
         con.execute(_hwidth_sql(_image_dir_for(SF))).df())
