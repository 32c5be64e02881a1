"""Round-3 batch: CSR SpMV, auction assignment, exact Welford —
pins, independent cross-checks, parity."""

import duckdb
import numpy as np

from battery.queries import (
    ORACLE_SQL,
    QUERIES,
    _assign_dp,
    _auction_assign,
    _auction_sql,
    _coo_to_csr,
    _hungarian,
    _spmv_csc,
    _spmv_csr,
    _spmv_sql,
    _welford_frac,
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


# -- SpMV ------------------------------------------------------------------------


def test_csr_known_matrix():
    # [[1,0,2],[0,3,0]] · [1,1,1] = [3,3]
    rows = [0, 0, 1]
    cols = [0, 2, 1]
    vals = [1, 2, 3]
    indptr, indices, data = _coo_to_csr(rows, cols, vals, 2)
    assert indptr == [0, 2, 3]
    assert _spmv_csr(indptr, indices, data, [1, 1, 1]) == [3, 3]
    assert _spmv_csc(rows, cols, vals, [1, 1, 1], 2) == [3, 3]


def test_csr_vs_csc_vs_dense_random():
    rng = np.random.default_rng(557)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        dense = rng.integers(0, 5, (n, m)) \
            * (rng.random((n, m)) < 0.4)
        rows, cols, vals = [], [], []
        for i in range(n):
            for j in range(m):
                if dense[i][j]:
                    rows.append(i)
                    cols.append(j)
                    vals.append(int(dense[i][j]))
        x = rng.integers(-9, 10, m).tolist()
        expect = (dense.astype(np.int64) @ np.array(x)).tolist()
        indptr, indices, data = _coo_to_csr(rows, cols, vals, n)
        assert _spmv_csr(indptr, indices, data, x) == expect
        assert _spmv_csc(rows, cols, vals, x, n) == expect


def test_oracle_parity_spmv(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["spmv_csr_docs"](SF),
         con.execute(_spmv_sql(SF)).df())


# -- auction ---------------------------------------------------------------------


def test_auction_three_algorithms_agree():
    rng = np.random.default_rng(563)
    for _ in range(40):
        n = int(rng.integers(0, 7))
        cost = rng.integers(0, 50, (n, n)).tolist()
        a = _auction_assign(cost)
        assert a == _hungarian(cost) == _assign_dp(cost)


def test_auction_prices_find_optimum_not_greedy():
    # greedy row-min picks 1 then pays 100; optimal crosses for 5
    cost = [[1, 2], [3, 100]]
    assert _auction_assign(cost) == 5


def test_oracle_parity_auction(ray_session):
    con = duckdb.connect()
    _cmp(QUERIES["auction_assignment_nations"](SF),
         con.execute(_auction_sql(SF)).df())


def test_auction_matches_hungarian_query(ray_session):
    # the two operators answer the same market: identical tables
    a = _canon(QUERIES["auction_assignment_nations"](SF))
    h = _canon(QUERIES["hungarian_match_nations"](SF))
    assert (a["assign_cost"].to_numpy()
            == h["assign_cost"].to_numpy()).all()


# -- Welford ---------------------------------------------------------------------


def test_welford_closed_form_random():
    rng = np.random.default_rng(569)
    for _ in range(60):
        n = int(rng.integers(0, 40))
        xs = rng.integers(0, 1000, n).tolist()
        k, num = _welford_frac(xs)
        assert k == n
        sx = sum(xs)
        sxx = sum(x * x for x in xs)
        assert num == n * sxx - sx * sx


def test_welford_constants_and_pair():
    assert _welford_frac([5, 5, 5]) == (3, 0)
    # two points: n·M2 = (a−b)²·... n=2: 2Σx²−(Σx)² = (a−b)²
    k, num = _welford_frac([3, 7])
    assert (k, num) == (2, 16)
    assert _welford_frac([]) == (0, 0)


def test_oracle_parity_welford(ray_session):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    _cmp(QUERIES["welford_users"](SF),
         con.execute(ORACLE_SQL["welford_users"]).df())
