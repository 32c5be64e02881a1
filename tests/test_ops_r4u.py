"""Round-3 batch: universal code bits, Game-of-Life census, probe
audit — pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _binary_probes,
    _binary_probes_rec,
    _bitlen_vec,
    _image_dir_for,
    _interp_probes,
    _interp_probes_rec,
    _life_census_naive,
    _life_sql,
    _life_step_vec,
    _probe_sql,
    _universal_bits,
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


# -- universal codes -------------------------------------------------------------


def test_bitlen_exact_at_powers():
    v = np.array([1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40], np.int64)
    assert _bitlen_vec(v).tolist() == [1, 2, 2, 3, 3, 4, 10, 11, 41]


def test_universal_known_codeword_lengths():
    # γ: 1→1, 2→3, 3→3, 4→5 ; δ: 1→1, 2→4, 3→4, 4→5
    # fib: 1→2, 2→3, 3→4, 4→4, 5→5, 12→6
    g, d, f = _universal_bits(np.array([1], np.int64))
    assert (g, d, f) == (1, 1, 2)
    g, d, f = _universal_bits(np.array([4], np.int64))
    assert (g, d, f) == (5, 5, 4)
    g, d, f = _universal_bits(np.array([12], np.int64))
    assert g == 7 and f == 6
    g, d, f = _universal_bits(np.array([2, 3], np.int64))
    assert (g, d, f) == (6, 8, 7)


def test_delta_beats_gamma_on_large():
    big = np.array([1 << 30], np.int64)
    g, d, _ = _universal_bits(big)
    assert d < g


def test_oracle_parity_universal(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    _cmp(QUERIES["elias_universal_bits_users"](SF),
         con.execute(ORACLE_SQL["elias_universal_bits_users"]).df())


# -- game of life ----------------------------------------------------------------


def test_life_still_block_and_blinker():
    g = np.zeros((6, 6), np.int64)
    g[2:4, 2:4] = 1                       # block: still life
    nxt = _life_step_vec(g)
    assert (nxt == g).all()
    g = np.zeros((5, 5), np.int64)
    g[2, 1:4] = 1                          # blinker: period 2
    s1 = _life_step_vec(g)
    assert (s1[1:4, 2] == 1).all() and s1.sum() == 3
    assert (_life_step_vec(s1) == g).all()


def test_life_lonely_and_overcrowded():
    g = np.zeros((4, 4), np.int64)
    g[1, 1] = 1
    assert _life_step_vec(g).sum() == 0    # underpopulation
    g = np.ones((3, 3), np.int64)          # corners survive (3 nbrs)
    nxt = _life_step_vec(g)
    assert nxt.sum() == 4
    assert nxt[0, 0] == 1 and nxt[1, 1] == 0


def test_life_vec_vs_naive_random():
    rng = np.random.default_rng(197)
    for _ in range(15):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        g = (rng.random((h, w)) < 0.4).astype(np.int64)
        alive = [int(g.sum())]
        cur = g
        for _s in range(4):
            cur = _life_step_vec(cur)
            alive.append(int(cur.sum()))
        assert alive == _life_census_naive(g.tolist())


def test_oracle_parity_life(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["life_census_images"](SF),
         con.execute(_life_sql(_image_dir_for(SF))).df())


# -- probe audit -----------------------------------------------------------------


def test_probe_hand_traced():
    arr = [10, 20, 30, 40, 50, 60, 70]
    # binary: mid=40 → 30 → found? trace x=30: probe 40 (1), 20 (2),
    # 30 (3)
    assert _binary_probes(arr, 30) == 3
    assert _binary_probes_rec(arr, 30, 0, 6) == 3
    # uniform keys: interpolation lands exactly in one probe
    assert _interp_probes(arr, 30) == 1
    assert _interp_probes_rec(arr, 30, 0, 6) == 1
    # absent + out of range
    assert _interp_probes(arr, 5) == 0
    assert _interp_probes(arr, 99) == 0
    assert _binary_probes(arr, 99) == 3
    # flat window
    assert _interp_probes([7, 7, 7], 7) == 1


def test_probe_iter_vs_rec_random():
    rng = np.random.default_rng(199)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        arr = sorted(set(rng.integers(0, 500, n).tolist()))
        for _q in range(8):
            x = int(rng.integers(-10, 510))
            assert _binary_probes(arr, x) \
                == _binary_probes_rec(arr, x, 0, len(arr) - 1)
            assert _interp_probes(arr, x) \
                == _interp_probes_rec(arr, x, 0, len(arr) - 1)


def test_probe_interp_wins_on_uniform():
    arr = list(range(0, 100000, 7))
    rng = np.random.default_rng(211)
    tb = tp = 0
    for _ in range(50):
        x = int(rng.integers(0, 100000))
        tb += _binary_probes(arr, x)
        tp += _interp_probes(arr, x)
    assert tp < tb / 3


def test_oracle_parity_probe(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["probe_count_weekly"](SF),
         con.execute(_probe_sql(SF)).df())
