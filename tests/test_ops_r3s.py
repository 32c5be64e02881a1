"""Round-3 batch S: FD violation audit, record statistics, bright
bounding box — sf0.001 oracle equality plus structural invariants."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("part", "customer", "orders", "lineitem", "events"):
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


def test_fd_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["fd_violation_audit"](SF)
    exp = con.execute(ORACLE_SQL["fd_violation_audit"]).df()
    _compare("fd_violation_audit", got, exp)


def test_fd_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["fd_violation_audit"](SF)
    assert len(df) == 5
    assert (df.n_violating_keys <= df.n_keys).all()
    assert (df.n_keys > 0).all()
    # brand -> type is many-to-many in TPC-H-ish data: must violate
    row = df[df.fd == "brand_to_type"].iloc[0]
    assert row.n_violating_keys > 0


def test_records_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["record_count_users"](SF)
    exp = con.execute(ORACLE_SQL["record_count_users"]).df()
    _compare("record_count_users", got, exp)


def test_records_invariants(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["record_count_users"](SF).to_pandas()
    assert len(df) > 0
    assert (df.n_events >= 20).all()
    # first event is always a record
    assert (df.n_records >= 1).all()
    assert (df.n_records <= df.n_events).all()
    assert (df.last_record_idx < df.n_events).all()
    assert (df.last_record_idx >= df.n_records - 1).all()


def test_bbox_oracle(ray_session, con):
    from battery.queries import (QUERIES, _bright_bbox_sql,
                                 _image_dir_for)

    got = QUERIES["bright_bbox_images"](SF)
    exp = con.execute(_bright_bbox_sql(_image_dir_for(SF))).df()
    _compare("bright_bbox_images", got, exp)


def test_bbox_contains_bright_rect(ray_session):
    """The enclosing bbox area bounds the largest interior rectangle
    from above, and the bright count from above too."""
    from battery.queries import QUERIES

    bb = QUERIES["bright_bbox_images"](SF).to_pandas() \
        .set_index("image_id")
    br = QUERIES["bright_rect_images"](SF).to_pandas() \
        .set_index("image_id")
    j = bb.join(br, lsuffix="_bb")
    area = (j.y1 - j.y0 + 1) * (j.x1 - j.x0 + 1)
    nonempty = j.n_bright_bb > 0
    assert (area[nonempty] >= j.max_area[nonempty]).all()
    assert (area[nonempty] >= j.n_bright_bb[nonempty]).all()
    assert (j.n_bright_bb == j.n_bright).all()
