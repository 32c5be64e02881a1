"""Round-3 batch: GF(256), CRT/Bezout, Tonelli-Shanks — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _CRT_MODS,
    _TS_P,
    QUERIES,
    _crt_reconstruct,
    _crt_sql,
    _egcd,
    _egcd_rec,
    _gf256_logexp,
    _gf256_peasant,
    _gf256_sql,
    _tonelli_shanks,
    _ts_sqrt_sql,
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


# -- GF(256) ---------------------------------------------------------------------


def test_gf256_fips_pin_and_axioms():
    assert _gf256_peasant(0x57, 0x83) == 0xC1
    assert _gf256_logexp(0x57, 0x83) == 0xC1
    # identity and annihilator
    for a in range(256):
        assert _gf256_peasant(a, 1) == a
        assert _gf256_peasant(a, 0) == 0
    # commutativity on a sample grid
    for a in range(0, 256, 11):
        for b in range(0, 256, 13):
            assert _gf256_peasant(a, b) == _gf256_peasant(b, a)


def test_gf256_every_nonzero_invertible():
    # field property: each nonzero a has b with a·b = 1
    inv = {}
    for a in range(1, 256):
        for b in range(1, 256):
            if _gf256_logexp(a, b) == 1:
                inv[a] = b
                break
        assert a in inv
    assert inv[1] == 1


def test_gf256_paths_agree_full_sweep():
    for a in range(256):
        for b in range(0, 256, 3):
            assert _gf256_peasant(a, b) == _gf256_logexp(a, b)


def test_oracle_parity_gf256(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["gf256_docs"](SF),
         con.execute(_gf256_sql(SF)).df())


# -- CRT / Bezout ----------------------------------------------------------------


def test_egcd_bezout_identity_random():
    rng = np.random.default_rng(631)
    for _ in range(200):
        a = int(rng.integers(1, 10 ** 9))
        b = int(rng.integers(1, 10 ** 9))
        g, x, y = _egcd(a, b)
        assert a % g == 0 and b % g == 0
        assert a * x + b * y == g
        g2, x2, y2 = _egcd_rec(a, b)
        assert g2 == g and a * x2 + b * y2 == g


def test_crt_uniqueness_both_egcds():
    M = _CRT_MODS[0] * _CRT_MODS[1] * _CRT_MODS[2]
    rng = np.random.default_rng(641)
    for _ in range(100):
        k = int(rng.integers(0, 10 ** 12))
        res = [k % m for m in _CRT_MODS]
        r1 = _crt_reconstruct(res, list(_CRT_MODS), _egcd)
        r2 = _crt_reconstruct(res, list(_CRT_MODS), _egcd_rec)
        assert r1 == r2 == k % M


def test_oracle_parity_crt(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["crt_bezout_orders"](SF),
         con.execute(_crt_sql(SF)).df())


# -- Tonelli-Shanks --------------------------------------------------------------


def test_tonelli_roundtrip_all_small_residues():
    p = _TS_P
    assert p % 8 == 1          # the general descent is required
    for n in range(1, 500):
        euler = pow(n, (p - 1) // 2, p)
        if euler == 1:
            r = _tonelli_shanks(n, p)
            assert r * r % p == n % p
            assert r <= p - r            # canonical root
        else:
            assert euler == p - 1        # non-residue


def test_tonelli_qr_split_half():
    p = _TS_P
    qr = sum(1 for n in range(1, p)
             if pow(n, (p - 1) // 2, p) == 1)
    assert qr == (p - 1) // 2   # exact group-theory split


def test_oracle_parity_tonelli(ray_session):
    con = duckdb.connect()
    got = QUERIES["tonelli_orders"](SF)
    r = got.iloc[0]
    assert 0 < r["n_qr"] < r["n_keys"]
    _cmp(got, con.execute(_ts_sqrt_sql(SF)).df())
