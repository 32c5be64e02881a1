"""Round-3 batch: winnowing fingerprints, two-choice load balancing,
interval stabbing — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _WIN_K,
    _WIN_W,
    QUERIES,
    _gram_hashes,
    _p2c_loads,
    _p2c_loads_replay,
    _p2c_sql,
    _stab_sql,
    _winnow_deque,
    _winnow_sql,
    _winnow_vec,
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


# -- winnowing -------------------------------------------------------------------


def test_winnow_guarantee_shared_substring():
    # two docs sharing a substring of length >= w+k-1 = 8 MUST share
    # a selected fingerprint
    shared = "SHAREDSTRETCH"
    a = ("xq" * 7 + shared + "zz").encode()
    b = ("mmm" + shared + "qqqqqq").encode()
    ha, hb = _gram_hashes(a), _gram_hashes(b)
    _, fa = _winnow_vec(ha)
    _, fb = _winnow_vec(hb)
    assert set(fa.tolist()) & set(fb.tolist())


def test_winnow_density():
    # expected selection density ~2/(w+1); assert a generous bracket
    rng = np.random.default_rng(271)
    s = bytes(rng.integers(97, 123, 4000).tolist())
    h = _gram_hashes(s)
    sel, _ = _winnow_vec(h)
    dens = len(sel) / len(h)
    assert 0.2 < dens < 0.6      # 2/(w+1) = 0.4 for w=4


def test_winnow_short_and_empty():
    assert _winnow_vec(_gram_hashes(b""))[0].tolist() == []
    assert _winnow_deque([]) == []
    h = _gram_hashes(b"abcdef")      # 2 grams < w: one selection
    sel, _ = _winnow_vec(h)
    assert len(sel) == 1
    assert len(_winnow_deque(h.tolist())) == 1


def test_winnow_vec_vs_deque_random():
    rng = np.random.default_rng(277)
    for _ in range(60):
        n = int(rng.integers(0, 80))
        s = bytes(rng.integers(97, 101, n).tolist())
        h = _gram_hashes(s)
        sel, _ = _winnow_vec(h)
        assert sel.tolist() == sorted(set(_winnow_deque(h.tolist())))


def test_oracle_parity_winnow(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["winnowing_docs"](SF),
         con.execute(_winnow_sql(SF)).df())


# -- two choices -----------------------------------------------------------------


def test_p2c_vec_vs_replay_random():
    rng = np.random.default_rng(281)
    for _ in range(5):
        keys = rng.integers(0, 1 << 40, 3000).tolist()
        assert _p2c_loads(keys) == _p2c_loads_replay(keys)


def test_p2c_two_choices_improve():
    rng = np.random.default_rng(283)
    keys = rng.integers(0, 1 << 40, 20000).tolist()
    m1, s1, m2, s2 = _p2c_loads(keys)
    assert m2 < m1           # the Azar et al. effect
    assert s2 < s1           # collision mass strictly drops


def test_p2c_conservation():
    keys = list(range(500))
    m1, s1, m2, s2 = _p2c_loads(keys)
    # loads sum to n under both policies (checked via ss bounds)
    assert m1 >= 1 and m2 >= 1
    assert s1 >= 500 and s2 >= 500   # Σl² ≥ n when Σl = n


def test_oracle_parity_p2c(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["two_choice_load_orders"](SF),
         con.execute(_p2c_sql(SF)).df())


# -- stabbing --------------------------------------------------------------------


def test_stab_identity_brute():
    # the searchsorted identity vs direct containment on a known set
    starts = np.array([0, 10, 20], np.int64)
    ends = np.array([5, 30, 25], np.int64)
    ss = np.sort(starts)
    es = np.sort(ends)
    for t in (-1, 0, 3, 5, 7, 10, 22, 25, 26, 30, 31):
        direct = sum(1 for a, b in zip(starts, ends) if a <= t <= b)
        ident = int(np.searchsorted(ss, t, side="right")
                    - np.searchsorted(es, t, side="left"))
        assert ident == direct, t


def test_oracle_parity_stab(ray_session):
    con = duckdb.connect()
    got = QUERIES["stab_count_sessions"](SF)
    assert (got["n_live"] >= 0).all()
    _cmp(got, con.execute(_stab_sql(SF)).df())
