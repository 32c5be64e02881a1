"""Round-3 batch: BIGMIN, Mo's algorithm, rank/select — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    QUERIES,
    _image_dir_for,
    _mo_distinct,
    _mo_sql,
    _morton2,
    _offline_distinct_bit,
    _rsv_build,
    _rsv_rank1,
    _rsv_select1,
    _rsv_sql,
    _zb_sql,
    _zscan_bigmin,
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


# -- BIGMIN ----------------------------------------------------------------------


def test_bigmin_enumeration_random_rects():
    rng = np.random.default_rng(613)
    for _ in range(30):
        x0 = int(rng.integers(0, 980))
        y0 = int(rng.integers(0, 980))
        x1 = min(1023, x0 + int(rng.integers(0, 30)))
        y1 = min(1023, y0 + int(rng.integers(0, 30)))
        rect = (x0, y0, x1, y1)
        cells, jumps = _zscan_bigmin(rect)
        expect = sorted(_morton2(x, y)
                        for x in range(x0, x1 + 1)
                        for y in range(y0, y1 + 1))
        assert cells == expect
        assert jumps >= 0


def test_bigmin_aligned_square_no_jumps():
    # a Morton-aligned power-of-two square is one contiguous run
    rect = (64, 64, 127, 127)
    cells, jumps = _zscan_bigmin(rect)
    assert jumps == 0
    assert len(cells) == 64 * 64
    assert cells[-1] - cells[0] == len(cells) - 1


def test_bigmin_thin_rect_many_jumps():
    # a 1-pixel-high wide strip fragments badly in Morton order
    rect = (100, 500, 131, 500)
    cells, jumps = _zscan_bigmin(rect)
    assert len(cells) == 32
    assert jumps > 5


def test_oracle_parity_bigmin(ray_session):
    con = duckdb.connect()
    got = QUERIES["zorder_bigmin_query"](SF)
    r = got.iloc[0]
    assert r["naive_span"] > r["n_cells"]      # the savings exist
    _cmp(got, con.execute(_zb_sql(_image_dir_for(SF))).df())


# -- Mo's ------------------------------------------------------------------------


def test_mo_vs_bit_vs_brute_random():
    rng = np.random.default_rng(617)
    for _ in range(40):
        n = int(rng.integers(1, 100))
        vals = rng.integers(0, 7, n).tolist()
        qs = []
        for _q in range(10):
            a, b = sorted((int(rng.integers(0, n)),
                           int(rng.integers(0, n))))
            qs.append((a, b))
        brute = [len(set(vals[l:r + 1])) for l, r in qs]
        assert _mo_distinct(vals, qs) == brute
        assert _offline_distinct_bit(vals, qs) == brute


def test_mo_single_point_and_full_range():
    vals = [5, 5, 7, 5]
    assert _mo_distinct(vals, [(0, 0), (0, 3), (1, 2)]) == [1, 2, 2]
    assert _offline_distinct_bit(vals, [(0, 0), (0, 3), (1, 2)]) \
        == [1, 2, 2]


def test_oracle_parity_mo(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["mo_range_distinct_days"](SF),
         con.execute(_mo_sql(SF)).df())


# -- rank/select -----------------------------------------------------------------


def test_rank_select_inverse_identities():
    rng = np.random.default_rng(619)
    bits = (rng.random(500) < 0.3).astype(np.int8)
    words, dirs = _rsv_build(bits)
    total = int(bits.sum())
    for k in range(1, total + 1):
        s = _rsv_select1(words, dirs, k)
        assert _rsv_rank1(words, dirs, s) == k
        if s > 0:
            assert _rsv_rank1(words, dirs, s - 1) == k - 1


def test_rank_edge_cases():
    bits = np.array([1, 0, 0, 1], np.int8)
    words, dirs = _rsv_build(bits)
    assert _rsv_rank1(words, dirs, 0) == 1
    assert _rsv_rank1(words, dirs, 2) == 1
    assert _rsv_rank1(words, dirs, 3) == 2
    assert _rsv_select1(words, dirs, 1) == 0
    assert _rsv_select1(words, dirs, 2) == 3


def test_rank_block_boundaries():
    # ones straddling the 64-bit word boundary
    bits = np.zeros(200, np.int8)
    bits[[63, 64, 127, 128, 199]] = 1
    words, dirs = _rsv_build(bits)
    pre = np.cumsum(bits)
    for i in (62, 63, 64, 65, 126, 127, 128, 129, 198, 199):
        assert _rsv_rank1(words, dirs, i) == int(pre[i])
    assert _rsv_select1(words, dirs, 5) == 199


def test_oracle_parity_rsv(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["rank_select_days"](SF),
         con.execute(_rsv_sql(SF)).df())
