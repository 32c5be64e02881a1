"""Round-3 batch: Grundy values, Josephus, RSK/Schensted — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _grundy_dp,
    _grundy_periodic,
    _grundy_sql,
    _josephus_closed,
    _josephus_sim,
    _josephus_sql,
    _patience_lis,
    _rsk_shape,
    _rsk_sql,
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


# -- Grundy ----------------------------------------------------------------------


def test_grundy_periodicity_long():
    for n in range(0, 500):
        assert _grundy_dp(n) == _grundy_periodic(n)


def test_grundy_p_positions():
    # losing positions (Grundy 0) of {1,3,4}: n ≡ 0 or 2 (mod 7)
    for n in range(0, 100):
        assert (_grundy_dp(n) == 0) == (n % 7 in (0, 2))


def test_oracle_parity_grundy(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["grundy_weekly"](SF),
         con.execute(_grundy_sql(SF)).df())


# -- Josephus --------------------------------------------------------------------


def test_josephus_bit_rotation_identity():
    # J(n) is n with its top bit rotated to the end
    for n in range(1, 400):
        b = bin(n)[2:]
        rot = int(b[1:] + b[0], 2)
        assert _josephus_closed(n) == rot
        assert _josephus_sim(n) == rot
    assert _josephus_closed(1) == 1
    assert _josephus_closed(41) == 19      # the historical n=41


def test_oracle_parity_josephus(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["josephus_weekly"](SF),
         con.execute(_josephus_sql(SF)).df())


# -- RSK / Schensted -------------------------------------------------------------


def test_rsk_schensted_theorem_random():
    rng = np.random.default_rng(659)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        perm = rng.permutation(n).tolist()
        shape = _rsk_shape(perm)
        lis = _patience_lis(perm)
        lds = _patience_lis([-x for x in perm])
        brute_lis = max(len(s) for s in _incr_subseqs(perm))
        assert shape[0] == lis == brute_lis
        assert len(shape) == lds
        assert sum(shape) == n
        # partition shape is weakly decreasing
        assert all(a >= b for a, b in zip(shape, shape[1:]))


def _incr_subseqs(perm):
    # DP longest increasing subsequence lengths (for brute cross)
    n = len(perm)
    dp = [1] * n
    for i in range(n):
        for j in range(i):
            if perm[j] < perm[i]:
                dp[i] = max(dp[i], dp[j] + 1)
    yield [0] * (max(dp) if n else 0)


def test_rsk_known_shapes():
    assert _rsk_shape([0, 1, 2]) == [3]        # sorted → one row
    assert _rsk_shape([2, 1, 0]) == [1, 1, 1]  # reversed → one col
    assert _rsk_shape([1, 0, 2]) == [2, 1]
    assert _rsk_shape([]) == []


def test_oracle_parity_rsk(ray_session):
    con = duckdb.connect()
    got = QUERIES["rsk_weekly"](SF).to_pandas()
    assert (got["lis"] + got["lds"] <= got["n_orders"] + 1).all()
    _cmp(got, con.execute(_rsk_sql(SF)).df())
