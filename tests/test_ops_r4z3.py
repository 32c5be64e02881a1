"""Round-3 batch: Count-Sketch, FM-PCSA, min swaps — pins,
independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    _FM_M,
    QUERIES,
    _cs_cells,
    _cs_estimate,
    _cs_sql,
    _fm_first_zero_sum,
    _fm_sql,
    _fm_state,
    _min_swaps_simulate,
    _perm_cycles,
    _swaps_sql,
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


# -- Count-Sketch ----------------------------------------------------------------


def _build_sketch(keys):
    from battery.queries import _CS_D, _CS_W

    r, c, s = _cs_cells(np.asarray(keys, np.int64))
    sk = np.zeros((_CS_D, _CS_W), np.int64)
    np.add.at(sk, (r, c), s)
    return sk


def test_cs_single_heavy_key_exact():
    # one key repeated n times, alone in the stream: no collisions,
    # estimate is exact regardless of its signs
    keys = [42] * 137
    sk = _build_sketch(keys)
    assert _cs_estimate(sk, 42) == 137


def test_cs_absent_key_near_zero():
    # a key never inserted reads only collision noise; with a sparse
    # stream the median row is 0
    keys = [1, 2, 3]
    sk = _build_sketch(keys)
    assert abs(_cs_estimate(sk, 999999)) <= 1


def test_cs_median_error_small():
    rng = np.random.default_rng(313)
    keys = rng.integers(0, 200, 5000).tolist()
    sk = _build_sketch(keys)
    from collections import Counter

    cnt = Counter(keys)
    errs = [abs(_cs_estimate(sk, k) - cnt[k]) for k in range(200)]
    assert np.median(errs) <= 10


def test_oracle_parity_cs(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["count_sketch_users"](SF),
         con.execute(_cs_sql(SF)).df())


# -- FM-PCSA ---------------------------------------------------------------------


def test_fm_mergeable_or():
    a = _fm_state(np.arange(0, 500, dtype=np.int64))
    b = _fm_state(np.arange(500, 1000, dtype=np.int64))
    both = _fm_state(np.arange(0, 1000, dtype=np.int64))
    assert (np.bitwise_or(a, b) == both).all()


def test_fm_estimate_reasonable():
    bits = _fm_state(np.arange(10000, dtype=np.int64))
    S = _fm_first_zero_sum(bits)
    est = _FM_M / 0.77351 * 2.0 ** (S / _FM_M)
    assert 5000 < est < 20000       # FM is ~±13% at m=64


def test_fm_first_zero_known():
    # bitmap 0b0111 → first zero at index 3; 0b0 → 0
    assert _fm_first_zero_sum(np.array([7], np.uint64)) == 3
    assert _fm_first_zero_sum(np.array([0], np.uint64)) == 0
    assert _fm_first_zero_sum(np.array([5], np.uint64)) == 1


def test_oracle_parity_fm(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["fm_pcsa_users"](SF),
         con.execute(_fm_sql(SF)).df())


# -- min swaps -------------------------------------------------------------------


def test_swaps_identity_reversal_rotation():
    assert _perm_cycles([0, 1, 2, 3]) == 4
    assert _min_swaps_simulate([0, 1, 2, 3]) == 0
    # reversal of 4: two 2-cycles → 2 swaps
    assert _min_swaps_simulate([3, 2, 1, 0]) == 2
    assert 4 - _perm_cycles([3, 2, 1, 0]) == 2
    # rotation: one n-cycle → n−1 swaps
    assert _min_swaps_simulate([1, 2, 3, 0]) == 3
    assert 4 - _perm_cycles([1, 2, 3, 0]) == 3


def test_swaps_formula_vs_simulation_random():
    rng = np.random.default_rng(317)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        perm = rng.permutation(n).tolist()
        assert n - _perm_cycles(perm) == _min_swaps_simulate(perm)


def test_oracle_parity_swaps(ray_session):
    con = duckdb.connect()
    got = QUERIES["min_swaps_weekly"](SF).to_pandas()
    assert (got["min_swaps"] == got["n_orders"] - got["n_cycles"]).all()
    assert (got["min_swaps"] < got["n_orders"]).all()
    _cmp(got, con.execute(_swaps_sql(SF)).df())
