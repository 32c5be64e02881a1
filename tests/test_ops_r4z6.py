"""Round-3 batch: HRW/jump rebalance, ear clipping, GK quantiles —
pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _ear_clip,
    _ear_sql,
    _gk_build,
    _gk_query,
    _gk_sql,
    _hrw_bucket,
    _hrwj_sql,
    _jump_bucket,
    _shoelace2,
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


# -- HRW / jump ------------------------------------------------------------------


def test_monotone_migration_property():
    # growing 4 → 5: every key that moves must land on node 4 for
    # HRW and jump; mod-N scatters — the defining contrast
    rng = np.random.default_rng(347)
    keys = rng.integers(1, 1 << 40, 2000).tolist()
    for fn in (_hrw_bucket, _jump_bucket):
        moved = [(fn(k, 4), fn(k, 5)) for k in keys]
        moved = [(a, b) for a, b in moved if a != b]
        assert all(b == 4 for _a, b in moved)
        # ~1/5 of keys move
        assert 0.1 < len(moved) / len(keys) < 0.35
    mod_moved = [(k % 4, k % 5) for k in keys if k % 4 != k % 5]
    assert any(b != 4 for _a, b in mod_moved)
    assert len(mod_moved) / len(keys) > 0.6


def test_jump_range_and_determinism():
    for k in (0, 1, 123456789, (1 << 63) - 1):
        for n in (1, 2, 5, 100):
            b = _jump_bucket(k, n)
            assert 0 <= b < n
            assert b == _jump_bucket(k, n)
    assert _jump_bucket(42, 1) == 0


def test_oracle_parity_hrwj(ray_session):
    con = duckdb.connect()
    got = QUERIES["hrw_jump_rebalance_orders"](SF)
    m = {r["scheme"]: r for _, r in got.iterrows()}
    assert m["hrw"]["moved"] == m["hrw"]["moved_to_new"]
    assert m["jump"]["moved"] == m["jump"]["moved_to_new"]
    assert m["mod"]["moved"] > m["mod"]["moved_to_new"]
    _cmp(got, con.execute(_hrwj_sql(SF)).df())


# -- ear clipping ----------------------------------------------------------------


def test_ear_clip_square_and_nonconvex():
    px = np.array([0, 10, 10, 0], np.int64)
    py = np.array([0, 0, 10, 10], np.int64)
    t, a2 = _ear_clip(px, py)
    assert (t, a2) == (2, 200)
    # non-convex 'dart': both scan orders agree on the invariants
    px = np.array([0, 10, 10, 5, 0], np.int64)
    py = np.array([0, 0, 10, 4, 10], np.int64)
    sh = _shoelace2(px, py)
    assert _ear_clip(px, py) == (3, sh)
    assert _ear_clip(px, py, last_first=True) == (3, sh)


def test_ear_clip_random_star_polygons():
    # star-shaped (hence simple) random polygons: radial jitter
    rng = np.random.default_rng(349)
    for _ in range(15):
        n = int(rng.integers(4, 16))
        ang = np.sort(rng.uniform(0, 2 * np.pi, n))
        rad = rng.integers(50, 150, n)
        px = np.floor(rad * np.cos(ang)).astype(np.int64)
        py = np.floor(rad * np.sin(ang)).astype(np.int64)
        sh = _shoelace2(px, py)
        if sh <= 0:
            continue
        t1, a1 = _ear_clip(px, py)
        t2, a2 = _ear_clip(px, py, last_first=True)
        assert t1 == t2 == n - 2
        assert a1 == a2 == sh


def test_oracle_parity_ear(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["ear_clip_routes"](SF),
         con.execute(_ear_sql(SF)).df())


# -- GK quantiles ----------------------------------------------------------------


def test_gk_bound_random_streams():
    rng = np.random.default_rng(353)
    for _ in range(10):
        n = int(rng.integers(50, 2000))
        stream = rng.integers(0, 10000, n).tolist()
        S = _gk_build(stream)
        srt = np.sort(np.array(stream))
        for q in (10, 50, 90):
            r = max(1, n * q // 100)
            est = _gk_query(S, n, r)
            hi = int(np.searchsorted(srt, est, side="right"))
            lo = int(np.searchsorted(srt, est, side="left")) + 1
            assert min(abs(hi - r), abs(lo - r)) <= n // 20


def test_gk_sublinear_size():
    stream = list(range(20000))
    S = _gk_build(stream)
    assert len(S) < 2000          # ≪ n; O((1/ε) log εn) regime


def test_gk_exact_on_tiny():
    S = _gk_build([5, 1, 9])
    assert _gk_query(S, 3, 2) in (1, 5, 9)


def test_oracle_parity_gk(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["gk_quantiles_orders"](SF),
         con.execute(_gk_sql(SF)).df())
