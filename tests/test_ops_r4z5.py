"""Round-3 batch: Hamming(7,4) ECC, secretary rule, disk SCAN —
pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _audio_dir_for,
    _h74_decode,
    _h74_decode_table,
    _h74_encode,
    _h74_sql,
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


# -- Hamming ---------------------------------------------------------------------


def test_h74_exhaustive_single_error_correction():
    # minimum distance 3: EVERY nibble × EVERY single flip corrects,
    # and syndrome equals the flipped position (1-indexed)
    for nib in range(16):
        cw = _h74_encode(nib)
        assert _h74_decode(cw) == (nib, 0)
        for pos in range(7):
            noisy = cw ^ (1 << (6 - pos))
            assert _h74_decode(noisy) == (nib, pos + 1)
            assert _h74_decode_table(noisy) == (nib, pos + 1)


def test_h74_min_distance_three():
    cws = [_h74_encode(n) for n in range(16)]
    for i in range(16):
        for j in range(i + 1, 16):
            assert bin(cws[i] ^ cws[j]).count("1") >= 3


def test_h74_double_error_miscorrects():
    # two flips exceed the code's guarantee: decode "corrects" to a
    # WRONG codeword — the known limitation, pinned
    cw = _h74_encode(0b1010)
    noisy = cw ^ 0b1100000
    dec, pos = _h74_decode(noisy)
    assert pos != 0 and dec != 0b1010


def test_oracle_parity_h74(ray_session):
    con = duckdb.connect()
    got = QUERIES["hamming74_tracks"](SF).to_pandas()
    assert (got["all_corrected"] == 1).all()
    _cmp(got, con.execute(_h74_sql(_audio_dir_for(SF))).df())


# -- secretary -------------------------------------------------------------------


def test_secretary_known_streams():
    # stream where max is in the observation window: rule settles
    # for the LAST item; where max comes after: rule catches it
    # (kernel behavior is exercised via the full query parity; here
    # pin the integer-r arithmetic)
    assert 10 * 1000 // 2718 == 3        # r for n=10
    assert 1 * 1000 // 2718 == 0         # n=1: no observation


def test_secretary_success_rate_plausible(ray_session):
    got = QUERIES["secretary_rule_weekly"](SF).to_pandas()
    rate = got["is_best"].mean()
    # 1/e ≈ 0.368 asymptotically; broad bracket for small weeks
    assert 0.2 < rate < 0.75
    assert (got["r_observe"] < got["n_orders"]).all()


def test_oracle_parity_secretary(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    _cmp(QUERIES["secretary_rule_weekly"](SF),
         con.execute(ORACLE_SQL["secretary_rule_weekly"]).df())


# -- disk scan -------------------------------------------------------------------


def test_scan_closed_form_cases():
    # start at 100, requests above only: travel = max - start
    # with requests below: up to max, reverse to min
    def scan(c):
        start, mx, mn = c[0], max(c), min(c)
        return (mx - start) + ((mx - mn) if mn < start else 0)

    assert scan([100, 200, 150, 300]) == 200
    assert scan([100, 50, 300]) == 200 + 250
    assert scan([7]) == 0

    def fcfs(c):
        return sum(abs(a - b) for a, b in zip(c, c[1:]))

    # elevator beats FCFS on a zigzag
    zig = [100, 400, 120, 380, 140]
    assert scan(zig) < fcfs(zig)


def test_oracle_parity_disk(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{SF}/orders.parquet')")
    got = QUERIES["disk_scan_weekly"](SF).to_pandas()
    assert (got["scan_travel"] >= 0).all()
    _cmp(got, con.execute(ORACLE_SQL["disk_scan_weekly"]).df())
