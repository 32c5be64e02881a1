"""Round-3 batch AA: rank-gap audit, Fano factor per type, LZ78
parse census — sf0.001 oracle equality plus invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("customer", "orders", "events", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
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


def test_rank_gap_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["percentile_mismatch_customers"](SF)
    exp = con.execute(ORACLE_SQL["percentile_mismatch_customers"]).df()
    _compare("percentile_mismatch_customers", got, exp)


def test_rank_gap_invariants(ray_session, con):
    """Ranks live in [0, n_cust); gap recomputes from the two ranks."""
    from battery.queries import QUERIES

    df = QUERIES["percentile_mismatch_customers"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    n = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    assert len(df) == 10
    for c in ("bal_rank", "spend_rank"):
        assert (df[c] >= 0).all() and (df[c] < int(n)).all()
    assert (df.rank_gap
            == np.abs(df.bal_rank - df.spend_rank)).all()


def test_fano_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["fano_factor_types"](SF)
    exp = con.execute(ORACLE_SQL["fano_factor_types"]).df()
    _compare("fano_factor_types", got, exp)


def test_fano_invariants(ray_session, con):
    """Event totals conserve; var_num >= 0 (Cauchy-Schwarz);
    sum_sq >= n_events with equality iff every minute has one."""
    from battery.queries import QUERIES

    df = QUERIES["fano_factor_types"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    tot = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(df.n_events.sum()) == int(tot)
    assert (df.var_num >= 0).all()
    assert (df.sum_sq >= df.n_events).all()
    assert (df.n_minutes <= df.n_events).all()


def test_lz78_oracle(ray_session, con):
    from battery.queries import QUERIES, _lz78_sql

    got = QUERIES["lz78_parse_sources"](SF)
    exp = con.execute(_lz78_sql(SF)).df()
    _compare("lz78_parse_sources", got, exp)


def test_lz78_invariants(ray_session, con):
    """Doc/char totals match the table; phrase count is positive for
    non-empty text and never exceeds chars."""
    from battery.queries import QUERIES

    df = QUERIES["lz78_parse_sources"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    nd, nc = con.execute(
        "SELECT COUNT(*), SUM(n_chars) FROM documents").fetchone()
    assert int(df.n_docs.sum()) == int(nd)
    assert int(df.n_chars.sum()) == int(nc)
    assert (df.n_phrases <= df.n_chars).all()
    assert (df.n_phrases >= 1).all()


def test_lz78_known_strings():
    """Hand-parsed fixtures: 'aaaa' -> a|aa|a = 3 phrases (trailing
    partial counts); 'abcd' -> 4; repetitive beats random."""
    from battery.queries import _lz78_phrase_count

    assert _lz78_phrase_count("") == 0
    assert _lz78_phrase_count("aaaa") == 3
    assert _lz78_phrase_count("abcd") == 4
    rep = "ab" * 50
    assert _lz78_phrase_count(rep) < _lz78_phrase_count(
        "abcdefghij" * 10)
