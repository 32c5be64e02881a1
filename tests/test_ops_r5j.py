"""Round-3 batch: knapsack MITM, prime census, necklaces — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _burnside_necklaces,
    _knapsack_dp,
    _knapsack_mitm,
    _ks_sql,
    _miller_rabin,
    _necklace_canon,
    _necklace_sql,
    _prime_sql,
    _sieve_primes,
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


# -- knapsack --------------------------------------------------------------------


def test_knapsack_greedy_density_fails():
    # density greedy grabs (w=1, v=2) then can't fit the (w=10,
    # v=15) item at cap 10 — optimal skips the shiny small item
    w = [1, 10]
    v = [2, 15]
    assert _knapsack_dp(w, v, 10) == 15
    assert _knapsack_mitm(w, v, 10) == 15


def test_knapsack_edges():
    assert _knapsack_dp([], [], 5) == 0
    assert _knapsack_mitm([], [], 5) == 0
    assert _knapsack_dp([3], [7], 2) == 0
    assert _knapsack_dp([0], [9], 0) == 9      # weightless item
    assert _knapsack_mitm([0], [9], 0) == 9


def test_knapsack_dp_vs_mitm_random():
    rng = np.random.default_rng(571)
    for _ in range(80):
        n = int(rng.integers(0, 14))
        w = rng.integers(0, 15, n).tolist()
        v = rng.integers(0, 50, n).tolist()
        cap = int(rng.integers(0, max(sum(w), 1)))
        assert _knapsack_dp(w, v, cap) == _knapsack_mitm(w, v, cap)


def test_oracle_parity_knapsack(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["knapsack_mitm_nations"](SF),
         con.execute(_ks_sql(SF)).df())


# -- primes ----------------------------------------------------------------------


def test_sieve_vs_miller_rabin():
    s = _sieve_primes(10000)
    for n in range(10000):
        assert bool(s[n]) == _miller_rabin(n), n


def test_miller_rabin_carmichael_and_large():
    # Carmichael numbers fool Fermat but not Miller-Rabin
    for carm in (561, 1105, 1729, 2465, 6601):
        assert not _miller_rabin(carm)
    assert _miller_rabin((1 << 31) - 1)         # Mersenne prime
    assert not _miller_rabin((1 << 32) + 1)     # 641 divides F5
    assert _miller_rabin(2) and not _miller_rabin(1)


def test_oracle_parity_primes(ray_session):
    con = duckdb.connect()
    got = QUERIES["prime_keys_orders"](SF)
    assert (got["n_prime"] <= got["n_keys"]).all()
    _cmp(got, con.execute(_prime_sql(SF)).df())


# -- necklaces -------------------------------------------------------------------


def test_necklace_canon_rotation_invariance():
    bits = (1, 0, 1, 1, 0, 0, 0)
    canon = _necklace_canon(bits)
    for r in range(7):
        rot = tuple(bits[(i + r) % 7] for i in range(7))
        assert _necklace_canon(rot) == canon


def test_burnside_counts():
    # length 7, binary: (2^7 + 6·2)/7 = 20; length 4: 6; length 1: 2
    assert _burnside_necklaces(7, 2) == 20
    assert _burnside_necklaces(4, 2) == 6
    assert _burnside_necklaces(1, 2) == 2
    # exhaustive check for n=7: canonical forms count == Burnside
    from itertools import product

    canons = {_necklace_canon(b) for b in product((0, 1), repeat=7)}
    assert len(canons) == 20


def test_oracle_parity_necklace(ray_session):
    con = duckdb.connect()
    got = QUERIES["necklace_census_weeks"](SF)
    assert len(got) <= 20
    _cmp(got, con.execute(_necklace_sql(SF)).df())
