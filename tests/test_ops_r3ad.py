"""Round-3 batch AD: predictor-order selection, RLE sort-benefit,
stop service span — oracle equality plus invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
              f"read_parquet('{SF}/lineitem.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns),
                          kind="stable").reset_index(drop=True)


def _compare(name, got, exp):
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert (a == b).all(), (name, c)


def test_predictor_oracle(ray_session, con):
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _predictor_sql)

    got = QUERIES["audio_predictor_order_audit"](SF)
    exp = con.execute(_predictor_sql(_audio_dir_for(SF))).df()
    _compare("audio_predictor_order_audit", got, exp)


def test_predictor_invariants(ray_session):
    """best_order consistent with the two sums; both sums bounded by
    n·2^17 (max |residual| for 16-bit samples is 2·65535)."""
    from battery.queries import QUERIES

    df = QUERIES["audio_predictor_order_audit"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert len(df) > 0
    w2 = df.sad2 < df.sad1
    assert (df.best_order == np.where(w2, 2, 1)).all()
    cap = df.n_samples * (1 << 18)
    assert (df.sad1 <= cap).all() and (df.sad2 <= cap).all()


def test_rle_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["rle_sort_benefit_lineitem"](SF)
    exp = con.execute(ORACLE_SQL["rle_sort_benefit_lineitem"]).df()
    _compare("rle_sort_benefit_lineitem", got, exp)


def test_rle_bounds(ray_session, con):
    """Run counts live in [n_distinct_flags, n_rows] and time order
    never exceeds the row count."""
    from battery.queries import QUERIES

    df = QUERIES["rle_sort_benefit_lineitem"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    n = int(df.n_rows.iloc[0])
    k = con.execute(
        "SELECT COUNT(DISTINCT l_returnflag) FROM lineitem"
    ).fetchone()[0]
    for c in ("runs_time_order", "runs_key_order"):
        assert int(k) <= int(df[c].iloc[0]) <= n


def test_rle_deterministic(ray_session):
    """Two runs agree exactly — the tie-break makes the order total
    despite full-row duplicates in the synth data."""
    from battery.queries import QUERIES

    a = QUERIES["rle_sort_benefit_lineitem"](SF)
    b = QUERIES["rle_sort_benefit_lineitem"](SF)
    assert a.values.tolist() == b.values.tolist()


def test_service_span_oracle(ray_session, con):
    from battery.queries import QUERIES, _service_span_sql

    got = QUERIES["stop_service_span"](SF)
    exp = con.execute(_service_span_sql()).df()
    _compare("stop_service_span", got, exp)


def test_service_span_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["stop_service_span"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert len(df) > 0
    assert (df.span_s >= 0).all()
    assert (df.span_s
            == df.last_dep_s - df.first_arr_s).all()
    assert (df.n_visits >= 1).all()
