"""Round-3 batch AB: Eulerian degree audit, suffix-automaton
substring census, hash-bucket load histogram — oracle equality plus
invariants and brute-force kernels."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("documents", "orders"):
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


def test_eulerian_oracle(ray_session, con):
    from battery.queries import QUERIES, _eulerian_sql

    got = QUERIES["eulerian_audit_routes"](SF)
    exp = con.execute(_eulerian_sql()).df()
    _compare("eulerian_audit_routes", got, exp)


def test_eulerian_invariants(ray_session):
    """Handshake lemma: odd-degree count is even; a pure path route
    (every fixture has linear trips) shows n_odd in {0, 2}."""
    from battery.queries import QUERIES

    df = QUERIES["eulerian_audit_routes"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    assert len(df) > 0
    assert (df.n_odd % 2 == 0).all()
    assert (df.eulerian_path
            == df.n_odd.isin([0, 2]).astype(np.int64)).all()
    assert (df.n_legs >= df.n_stops - 1).all()


def test_substrings_oracle(ray_session, con):
    from battery.queries import QUERIES, _substr_sql

    got = QUERIES["distinct_substrings_docs"](SF)
    exp = con.execute(_substr_sql(SF)).df()
    _compare("distinct_substrings_docs", got, exp)


def test_substrings_brute_force():
    """Suffix automaton agrees with the set-of-substrings brute force
    on assorted strings, including repetitive and unicode."""
    from battery.queries import _distinct_substring_count

    for s in ("", "a", "aaa", "abab", "abcabc", "mississippi",
              "héllo héllo", "xyzzy plugh", "ab" * 20):
        brute = len({s[i:j] for i in range(len(s))
                     for j in range(i + 1, len(s) + 1)})
        assert _distinct_substring_count(s) == brute, s


def test_substrings_invariants(ray_session, con):
    """Σ substrings per source bounded by Σ n·(n+1)/2 over its docs;
    doc/char totals conserve."""
    from battery.queries import QUERIES

    df = QUERIES["distinct_substrings_docs"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    nd, nc = con.execute(
        "SELECT COUNT(*), SUM(n_chars) FROM documents").fetchone()
    assert int(df.n_docs.sum()) == int(nd)
    assert int(df.n_chars.sum()) == int(nc)
    caps = con.execute("""
        SELECT source, SUM(n_chars * (n_chars + 1) // 2) AS cap
        FROM documents GROUP BY 1""").df().set_index("source")["cap"]
    for _, r in df.iterrows():
        assert 0 < r.n_substrings <= int(caps[r.source])


def test_hash_load_oracle(ray_session, con):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES["hash_bucket_load_orders"](SF)
    exp = con.execute(ORACLE_SQL["hash_bucket_load_orders"]).df()
    _compare("hash_bucket_load_orders", got, exp)


def test_hash_load_invariants(ray_session, con):
    """Bucket and ball conservation: Σ n_buckets = 4096 and
    Σ load·n_buckets = row count of orders."""
    from battery.queries import QUERIES

    df = QUERIES["hash_bucket_load_orders"](SF)
    df = df.to_pandas() if hasattr(df, "to_pandas") else df
    n = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert int(df.n_buckets.sum()) == 4096
    assert int((df.load * df.n_buckets).sum()) == int(n)


def test_splitmix_sql_expr_bit_exact(con):
    """The pure-SQL splitmix64 agrees with the numpy implementation
    bit-for-bit over a key sweep."""
    from battery.queries import _splitmix_sql_expr
    from geotile.synth import splitmix64

    rows = con.execute(
        f"SELECT x, {_splitmix_sql_expr('x')} AS h FROM "
        "(SELECT CAST(range AS HUGEINT) AS x FROM range(1, 512)) "
        "ORDER BY x").fetchall()
    ref = splitmix64(np.arange(1, 512, dtype=np.uint64))
    assert all(int(r[1]) == int(e) for r, e in zip(rows, ref))
