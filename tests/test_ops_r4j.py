"""Round-3 batch: nation h-index, persistence census, GOP plan DP —
kernel pins + sf0.001 oracle parity."""

import duckdb
import numpy as np
import pytest

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _cc_count_bfs,
    _cc_count_unionfind,
    _gop_bellman,
    _gop_dp,
    _gop_sql,
    _persist_sql,
    _image_dir_for,
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


# -- connected components -----------------------------------------------------


def test_cc_known_shapes():
    grid = np.array([[1, 0, 1],
                     [1, 0, 0],
                     [1, 0, 1]], bool)
    assert _cc_count_unionfind(grid) == 3
    assert _cc_count_bfs(grid.tolist()) == 3
    # diagonal contact is NOT connectivity under 4-adjacency
    diag = np.array([[1, 0], [0, 1]], bool)
    assert _cc_count_unionfind(diag) == 2
    assert _cc_count_bfs(diag.tolist()) == 2


def test_cc_unionfind_vs_bfs_random():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = rng.random((int(rng.integers(1, 12)),
                        int(rng.integers(1, 12)))) < 0.5
        assert _cc_count_unionfind(g) == _cc_count_bfs(g.tolist())


# -- GOP DP ---------------------------------------------------------------------


def test_gop_forced_iframe_every_8():
    # 17 frames, intra 100 each, inter 1 each: optimum keeps I-frames
    # minimal — at 0, 8, 16 (3 I) with 14 P frames
    intra = [100] * 17
    inter = [1] * 16
    v = _gop_dp(intra, inter)
    assert v == 3 * 100 + 14 * 1
    assert _gop_bellman(intra, inter) == v


def test_gop_scene_cut_snaps_iframe():
    # frame 4 has a huge inter (scene cut) but cheap intra: the plan
    # takes an I there voluntarily
    intra = [10, 50, 50, 50, 5, 50, 50, 50]
    inter = [1, 1, 1, 1000, 1, 1, 1]
    v = _gop_dp(intra, inter)
    assert v == 10 + 1 + 1 + 1 + 5 + 1 + 1 + 1
    assert _gop_bellman(intra, inter) == v


def test_gop_dp_vs_bellman_random():
    rng = np.random.default_rng(47)
    for _ in range(40):
        f = int(rng.integers(1, 30))
        intra = [int(x) for x in rng.integers(1, 100, f)]
        inter = [int(x) for x in rng.integers(1, 100, max(f - 1, 0))]
        assert _gop_dp(intra, inter) == _gop_bellman(intra, inter)


def test_gop_brute_small():
    # exhaustive over all I-subsets for tiny f
    rng = np.random.default_rng(53)
    for _ in range(20):
        f = int(rng.integers(1, 10))
        intra = [int(x) for x in rng.integers(1, 50, f)]
        inter = [int(x) for x in rng.integers(1, 50, max(f - 1, 0))]
        best = None
        for mask in range(1 << f):
            if not mask & 1:
                continue
            iset = [i for i in range(f) if mask >> i & 1]
            gaps = [b - a for a, b in zip(iset, iset[1:])]
            gaps.append(f - iset[-1])
            if any(g > 8 for g in gaps):
                continue
            c = sum(intra[i] if i in set(iset) else inter[i - 1]
                    for i in range(f))
            best = c if best is None or c < best else best
        assert _gop_dp(intra, inter) == best


# -- h-index invariant ------------------------------------------------------------


def test_h_index_all_nations(ray_session):
    got = QUERIES["h_index_nations"](SF)
    assert len(got) == 25
    assert (got["h_index"] <= got["n_active_customers"]).all()


# -- sf0.001 oracle parity ----------------------------------------------------------


def test_oracle_parity_h_index(ray_session):
    con = duckdb.connect()
    for t in ("orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    _cmp(QUERIES["h_index_nations"](SF),
         con.execute(ORACLE_SQL["h_index_nations"]).df())


def test_oracle_parity_persistence(ray_session):
    con = duckdb.connect()
    got = QUERIES["persistence_census_images"](SF)
    _cmp(got, con.execute(_persist_sql(_image_dir_for(SF))).df())


def test_oracle_parity_gop(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["gop_plan_clips"](SF),
         con.execute(_gop_sql(_video_dir_for(SF))).df())
