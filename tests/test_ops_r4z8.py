"""Round-3 batch: histogram rectangle, rolling median, RSA roundtrip
— pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _RSA_E,
    _RSA_N,
    ORACLE_SQL,
    QUERIES,
    _hist_rect_brute,
    _hist_rect_stack,
    _hrect_sql,
    _powmod_sqmul,
    _rolling_median2,
    _rsa_d,
    _rsa_sql,
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


# -- histogram rectangle ---------------------------------------------------------


def test_hist_rect_classic():
    # the canonical [2,1,5,6,2,3]: best = 10 (5×2 over bars 5,6)
    assert _hist_rect_stack([2, 1, 5, 6, 2, 3])[:2] == (10, 5)
    assert _hist_rect_brute([2, 1, 5, 6, 2, 3])[:2] == (10, 5)
    # flat: whole span
    a, h, l, r = _hist_rect_stack([4, 4, 4])
    assert (a, h, l, r) == (12, 4, 0, 2)
    assert _hist_rect_stack([]) == (0, 0, 0, 0)
    assert _hist_rect_stack([0, 0]) == (0, 0, 0, 0)


def test_hist_rect_stack_vs_brute_random():
    rng = np.random.default_rng(373)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        v = rng.integers(0, 15, n).tolist()
        assert _hist_rect_stack(v) == _hist_rect_brute(v), v


def test_oracle_parity_hrect(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["histogram_rect_days"](SF),
         con.execute(_hrect_sql(SF)).df())


# -- rolling median --------------------------------------------------------------


def test_rolling_median_known():
    assert _rolling_median2([1, 3, 2, 5], 3) == [4, 6]
    assert _rolling_median2([7], 1) == [14]
    assert _rolling_median2([1, 2], 2) == [3]
    assert _rolling_median2([5, 5], 3) == []


def test_rolling_median_outlier_robust():
    # an outage (0) in the window barely moves the median while it
    # wrecks the mean — robustness pin
    v = [10] * 27 + [0] + [10] * 27
    med2 = _rolling_median2(v, 28)
    assert all(m == 20 for m in med2)


def test_rolling_median_vs_sort_random_dups():
    rng = np.random.default_rng(379)
    for _ in range(60):
        n = int(rng.integers(1, 50))
        w = int(rng.integers(1, min(n, 10) + 1))
        v = rng.integers(0, 6, n).tolist()
        got = _rolling_median2(v, w)
        exp = []
        for k in range(n - w + 1):
            s = sorted(v[k:k + w])
            m = len(s)
            exp.append(2 * s[m // 2] if m % 2
                       else s[m // 2 - 1] + s[m // 2])
        assert got == exp


def test_oracle_parity_rolling_median(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["rolling_median_days"](SF),
         con.execute(ORACLE_SQL["rolling_median_days"]).df())


# -- RSA -------------------------------------------------------------------------


def test_rsa_roundtrip_and_powmod():
    d = _rsa_d()
    rng = np.random.default_rng(383)
    for m in [0, 1, 2, int(_RSA_N - 1)] \
            + rng.integers(0, _RSA_N, 20).tolist():
        m = int(m)
        c = pow(m, _RSA_E, _RSA_N)
        assert pow(c, d, _RSA_N) == m
        assert _powmod_sqmul(m, _RSA_E, _RSA_N) == c


def test_rsa_homomorphism():
    # E(a)·E(b) ≡ E(a·b mod n) — why textbook RSA is malleable
    a, b = 123456, 987654
    ea = pow(a, _RSA_E, _RSA_N)
    eb = pow(b, _RSA_E, _RSA_N)
    assert ea * eb % _RSA_N == pow(a * b % _RSA_N, _RSA_E, _RSA_N)


def test_rsa_noncoprime_message_still_roundtrips():
    # m sharing a factor with n: CRT correctness still holds
    from battery.queries import _RSA_P

    d = _rsa_d()
    m = _RSA_P * 7
    c = pow(m, _RSA_E, _RSA_N)
    assert pow(c, d, _RSA_N) == m


def test_oracle_parity_rsa(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["rsa_roundtrip_orders"](SF),
         con.execute(_rsa_sql(SF)).df())
