"""Round-3 batch: Chamfer label pairs, Theil-Sen slopes, block-match
motion — kernel pins, independent cross-checks, sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _bm_sql,
    _bm_stats_naive,
    _bm_stats_vec,
    _chamfer_mins,
    _ts_median_slope,
    _video_dir_for,
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


# -- chamfer kernel ----------------------------------------------------------


def _brute_chamfer(ids, lab, Q):
    """O(n²) reference: directed chamfer sums per ordered label pair."""
    out = {}
    for a in np.unique(lab):
        for b in np.unique(lab):
            if a == b:
                continue
            tot = 0
            for i in np.where(lab == a)[0]:
                best = None
                for j in np.where(lab == b)[0]:
                    d2 = int(((Q[i] - Q[j]) ** 2).sum())
                    best = d2 if best is None or d2 < best else best
                tot += best
            out[(int(a), int(b))] = tot
    return out


def test_chamfer_mins_vs_brute_random():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(4, 30))
        ids = np.arange(n, dtype=np.int64)
        lab = rng.integers(0, 4, n).astype(np.int64)
        if len(np.unique(lab)) < 2:
            continue
        Q = rng.integers(-50, 50, (n, 5)).astype(np.int64)
        D = ((Q * Q).sum(1)[:, None] + (Q * Q).sum(1)[None, :]
             - 2 * (Q @ Q.T))
        ks, ms = _chamfer_mins(ids, lab, lab, D)
        k = np.concatenate(ks)
        m = np.concatenate(ms)
        got = {}
        for kk, mm in zip(k.tolist(), m.tolist()):
            vec, rest = kk // 256, kk % 256
            la, lb = rest // 16, rest % 16
            got[(la, lb)] = got.get((la, lb), 0) + mm
        assert got == _brute_chamfer(ids, lab, Q)


def test_chamfer_identical_clouds_zero():
    # two labels holding the SAME points: chamfer is 0 both ways
    Q = np.array([[1, 2], [3, 4], [5, 6]] * 2, np.int64)
    lab = np.array([0, 0, 0, 1, 1, 1], np.int64)
    ids = np.arange(6, dtype=np.int64)
    D = ((Q * Q).sum(1)[:, None] + (Q * Q).sum(1)[None, :]
         - 2 * (Q @ Q.T))
    ks, ms = _chamfer_mins(ids, lab, lab, D)
    m = np.concatenate(ms)
    assert (m == 0).all()


def test_chamfer_asymmetry():
    # tight cluster inside a diffuse one: near one way, far the other
    Q = np.array([[0, 0], [1, 0], [0, 0], [100, 0]], np.int64)
    lab = np.array([0, 0, 1, 1], np.int64)
    b = _brute_chamfer(np.arange(4, dtype=np.int64), lab, Q)
    assert b[(0, 1)] < b[(1, 0)]


def test_oracle_parity_chamfer(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{SF}/embeddings.parquet')")
    _cmp(QUERIES["chamfer_label_pairs"](SF),
         con.execute(ORACLE_SQL["chamfer_label_pairs"]).df())


# -- Theil-Sen kernel --------------------------------------------------------


def test_ts_outlier_robust():
    # 8 clean points on y = 2x + 5 plus one wild outlier: the median
    # slope stays exactly 2 (the breakdown-point pin OLS fails)
    d = np.arange(8, dtype=np.int64)
    p = 2.0 * d + 5.0
    d = np.concatenate([d, [20]])
    p = np.concatenate([p, [1e6]])
    np_, med = _ts_median_slope(d, p)
    assert np_ == 36
    assert med == 2.0


def test_ts_same_day_excluded():
    d = np.array([3, 3, 3], np.int64)
    p = np.array([1.0, 2.0, 9.0])
    assert _ts_median_slope(d, p) == (0, None)


def test_ts_vs_stdlib_median_random():
    import statistics

    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        d = rng.integers(0, 8, n).astype(np.int64)
        p = rng.normal(size=n) * 10
        slopes = []
        order = np.argsort(d, kind="stable")
        d2, p2 = d[order], p[order]
        for i in range(n):
            for j in range(i + 1, n):
                if d2[j] > d2[i]:
                    slopes.append((p2[j] - p2[i]) / (d2[j] - d2[i]))
        np_, med = _ts_median_slope(d, p)
        assert np_ == len(slopes)
        if slopes:
            assert med == pytest.approx(statistics.median(slopes),
                                        abs=0, rel=0)


def test_oracle_parity_theil_sen(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["theil_sen_customers"](SF),
         con.execute(ORACLE_SQL["theil_sen_customers"]).df())


# -- block-matching motion ---------------------------------------------------


def _clip(luma_frames):
    """Lift an (f,h,w) int luma-ish plan into (f,h,w,3) uint8 with the
    value split over channels so channel-summed luma == 3·plan/3…
    simplest: put the plan in one channel, zeros elsewhere."""
    fr = np.asarray(luma_frames, np.uint8)
    out = np.zeros(fr.shape + (3,), np.uint8)
    out[..., 0] = fr
    return out


def test_bm_static_clip_zero():
    fr = _clip(np.full((4, 16, 16), 37))
    nb, sad, l1, z = _bm_stats_vec(fr)
    assert (nb, sad, l1, z) == (12, 0, 0, 12)
    assert _bm_stats_naive(fr) == (12, 0, 0, 12)


def test_bm_tiebreak_prefers_zero_motion():
    # constant frame + one changed pixel: every candidate ties on SAD,
    # so the (|mv|, dy, dx) tie-break must pick (0,0) everywhere
    a = np.full((16, 16), 100, np.int64)
    b = a.copy()
    b[3, 3] += 10
    fr = _clip(np.stack([a, b]))
    nb, sad, l1, z = _bm_stats_vec(fr)
    assert (nb, sad, l1, z) == (4, 10, 0, 4)
    assert _bm_stats_naive(fr) == (4, 10, 0, 4)


def test_bm_single_moved_pixel():
    # bright pixel moves down one row inside block (1,1) — the block
    # where dy=-1 keeps the whole 8×8 window in frame: that block's
    # best is sad 0 at mv (-1,0); every other block stays (0,0)
    a = np.full((16, 16), 100, np.int64)
    a[9, 9] += 50
    b = np.full((16, 16), 100, np.int64)
    b[10, 9] += 50
    fr = _clip(np.stack([a, b]))
    nb, sad, l1, z = _bm_stats_vec(fr)
    assert (nb, sad, l1, z) == (4, 0, 1, 3)
    assert _bm_stats_naive(fr) == (4, 0, 1, 3)


def test_bm_vec_vs_naive_random():
    rng = np.random.default_rng(23)
    for _ in range(12):
        f = int(rng.integers(2, 5))
        fr = rng.integers(0, 256, (f, 16, 16, 3)).astype(np.uint8)
        assert _bm_stats_vec(fr) == _bm_stats_naive(fr)


def test_bm_residual_below_zero_motion_delta():
    # motion-compensated residual ≤ the zero-motion frame delta
    rng = np.random.default_rng(29)
    fr = rng.integers(0, 256, (3, 16, 16, 3)).astype(np.uint8)
    luma = fr.astype(np.int64).sum(axis=3)
    zero_delta = int(np.abs(np.diff(luma, axis=0)).sum())
    _, sad, _, _ = _bm_stats_vec(fr)
    assert sad <= zero_delta


def test_oracle_parity_block_match(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["block_match_motion_clips"](SF),
         con.execute(_bm_sql(_video_dir_for(SF))).df())
