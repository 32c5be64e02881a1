"""Round-3 batch: GF(2) rank, GCD census, Lehmer ranks — pins,
independent cross-checks, parity."""

import math

import duckdb
import numpy as np

from battery.queries import (
    _LEHMER_M,
    ORACLE_SQL,
    QUERIES,
    _gf2_sql,
    _lehmer_rank_bit,
    _lehmer_rank_brute,
    _lehmer_sql,
    _rank_gf2,
    _rank_gf2_elim,
    _stein_gcd_vec,
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


# -- GF(2) rank ------------------------------------------------------------------


def test_gf2_known_subspaces():
    # powers of two: independent → rank = count
    assert _rank_gf2([1, 2, 4, 8]) == 4
    # third row = xor of first two → rank 2
    assert _rank_gf2([0b101, 0b011, 0b110]) == 2
    assert _rank_gf2_elim([0b101, 0b011, 0b110]) == 2
    # duplicates add nothing; zero rows add nothing
    assert _rank_gf2([7, 7, 7, 0]) == 1
    assert _rank_gf2([]) == 0


def test_gf2_basis_vs_elim_random():
    rng = np.random.default_rng(389)
    for _ in range(30):
        n = int(rng.integers(0, 20))
        rows = rng.integers(0, 1 << 16, n).tolist()
        assert _rank_gf2(rows) == _rank_gf2_elim(rows)


def test_oracle_parity_gf2(ray_session):
    con = duckdb.connect()
    got = QUERIES["rank_gf2_sources"](SF).to_pandas()
    assert (got["rank_gf2"]
            <= np.minimum(got["n_docs"], 64)).all()
    _cmp(got, con.execute(_gf2_sql(SF)).df())


# -- GCD -------------------------------------------------------------------------


def test_stein_vs_math_gcd():
    rng = np.random.default_rng(397)
    a = rng.integers(0, 1 << 40, 500)
    b = rng.integers(0, 1 << 40, 500)
    a[0] = 0
    b[1] = 0
    g = _stein_gcd_vec(a, b)
    for i in range(500):
        assert g[i] == math.gcd(int(a[i]), int(b[i]))


def test_coprime_fraction_near_6_over_pi2(ray_session):
    got = QUERIES["gcd_census_orders"](SF)
    total = int(got["n"].sum())
    cop = int(got[got["g"] == 1]["n"].sum())
    # 6/π² ≈ 0.6079 for independent keys; generous bracket
    assert 0.5 < cop / total < 0.72


def test_oracle_parity_gcd(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["gcd_census_orders"](SF),
         con.execute(ORACLE_SQL["gcd_census_orders"]).df())


# -- Lehmer ----------------------------------------------------------------------


def test_lehmer_identity_and_reversal():
    assert _lehmer_rank_bit([0, 1, 2, 3]) == 0
    assert _lehmer_rank_brute([0, 1, 2, 3]) == 0
    # reversal is the lexicographically LAST permutation: n!−1
    assert _lehmer_rank_bit([3, 2, 1, 0]) == math.factorial(4) - 1
    assert _lehmer_rank_brute([3, 2, 1, 0]) == 23
    # second permutation: swap last two
    assert _lehmer_rank_bit([0, 1, 3, 2]) == 1


def test_lehmer_enumerates_lexicographic_order():
    from itertools import permutations

    for r, perm in enumerate(permutations(range(4))):
        assert _lehmer_rank_bit(list(perm)) == r
        assert _lehmer_rank_brute(list(perm)) == r


def test_lehmer_bit_vs_brute_random():
    rng = np.random.default_rng(401)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        perm = rng.permutation(n).tolist()
        assert _lehmer_rank_bit(perm) == _lehmer_rank_brute(perm)


def test_oracle_parity_lehmer(ray_session):
    con = duckdb.connect()
    got = QUERIES["lehmer_rank_weekly"](SF).to_pandas()
    assert (got["lehmer_rank_m"] < _LEHMER_M).all()
    _cmp(got, con.execute(_lehmer_sql(SF)).df())
