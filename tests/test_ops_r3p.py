"""Round-3 batch P: clockface schedule audit, linear counting sketch,
Hopkins clusterability — sf0.001 oracle equality plus structural
invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("events", "embeddings"):
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                  f"read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _compare(name, got, exp):
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert (a == b).all(), (name, c)


def test_clockface_oracle(ray_session, con):
    from battery.queries import QUERIES, _clockface_sql

    got = QUERIES["clockface_schedule_audit"](SF)
    exp = con.execute(_clockface_sql()).df()
    _compare("clockface_schedule_audit", got, exp)


def test_clockface_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["clockface_schedule_audit"](SF).to_pandas()
    # quarter marks are a subset of five-minute marks
    assert (df.n_quarter <= df.n_five).all()
    assert (df.n_five <= df.n_arrivals).all()
    assert (df.n_arrivals > 0).all()


def test_linear_counting_oracle(ray_session, con):
    from battery.queries import QUERIES, _lincount_sql

    got = QUERIES["linear_counting_users"](SF)
    exp = con.execute(_lincount_sql(SF)).df()
    _compare("linear_counting_users", got, exp)


def test_linear_counting_estimate_quality(ray_session):
    """The classic LC estimate -b ln(1 - m/b) from the reported
    integers must land within 15% of the exact distinct count at this
    fill factor (m << b)."""
    import math

    from battery.queries import QUERIES

    df = QUERIES["linear_counting_users"](SF)
    m = int(df.occupied_bits.iloc[0])
    b = int(df.bitmap_size.iloc[0])
    n = int(df.exact_distinct.iloc[0])
    assert 0 < m <= min(b, n)  # bitmap can't exceed distinct keys
    est = -b * math.log(1.0 - m / b)
    assert abs(est - n) / n < 0.15


def test_hopkins_oracle(ray_session, con):
    from battery.queries import QUERIES, _hopkins_sql

    got = QUERIES["hopkins_clusterability"](SF)
    exp = con.execute(_hopkins_sql()).df()
    _compare("hopkins_clusterability", got, exp)


def test_hopkins_reads_clustered(ray_session):
    """The synthetic embeddings are built as label clusters, so probes
    must land in voids: hopkins_ppb well above the 5e8 uniform line,
    and both sums positive."""
    from battery.queries import QUERIES

    df = QUERIES["hopkins_clusterability"](SF)
    assert int(df.probe_d2_sum.iloc[0]) > 0
    assert int(df.data_d2_sum.iloc[0]) > 0
    ppb = int(df.hopkins_ppb.iloc[0])
    assert 5 * 10**8 < ppb < 10**9
