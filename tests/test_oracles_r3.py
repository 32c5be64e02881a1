"""Round-3 oracle guards: the queries that were `no_oracle` in
CORRECTNESS_r02 now replay in DuckDB — this mirrors the driver's
compare (sorted columns, exact value equality) at sf0.001 so the
contract can't drift between rounds."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
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
        if a.dtype.kind == "f":
            assert (a == b.astype(float)).all(), (name, c)
        else:
            assert (a == b).all(), (name, c)


R3_ORACLED = [
    "gtfs_envelope",
    "gtfs_line_features",
    "gtfs_convex_hull",
]


@pytest.mark.parametrize("name", R3_ORACLED)
def test_r3_oracle_matches(ray_session, con, name):
    import __ray_entry__ as e
    from battery.queries import QUERIES

    sql = e.oracle_sql()[name]
    _compare(name, QUERIES[name](SF), con.execute(sql).df())


# -- hash family vs the independent scalar replays (sf-parameterized
#    sidecar builders; oracle_sql() itself binds them at sf0.01) --------


def test_fingerprint_oracle(ray_session, con):
    from battery.queries import QUERIES, _fingerprint_sql

    _compare("fingerprint_docs", QUERIES["fingerprint_docs"](SF),
             con.execute(_fingerprint_sql(SF)).df())


def test_simhash_oracle(ray_session, con):
    from battery.queries import QUERIES, _simhash_sql

    _compare("simhash_docs", QUERIES["simhash_docs"](SF),
             con.execute(_simhash_sql(SF)).df())


def test_minhash_pairs_oracle(ray_session, con):
    from battery.queries import QUERIES, _minhash_pairs_sql

    _compare("minhash_pairs_docs", QUERIES["minhash_pairs_docs"](SF),
             con.execute(_minhash_pairs_sql(SF)).df())


def test_hll_oracle(ray_session, con):
    from battery.queries import QUERIES, _hll_sql

    _compare("hll_distinct_users", QUERIES["hll_distinct_users"](SF),
             con.execute(_hll_sql(SF)).df())


def test_ivf_ann_oracle(ray_session, con):
    from battery.queries import _IVF_ANN_SQL, QUERIES

    _compare("ivf_ann", QUERIES["ivf_ann"](SF), con.execute(_IVF_ANN_SQL).df())


# -- raster replays: filled-pixel set + window-case area/Euler ----------


def test_tile_dissolve_oracle(ray_session, con):
    from battery.queries import QUERIES, tile_oracle_sql

    sql = tile_oracle_sql(SF)["tile_dissolve"]
    _compare("tile_dissolve", QUERIES["tile_dissolve"](SF), con.execute(sql).df())


def test_gtfs_buffer_stats_oracle(ray_session, con):
    from battery.queries import QUERIES, _gtfs_buffer_stats_sql

    _compare("gtfs_buffer_stats", QUERIES["gtfs_buffer_stats"](SF),
             con.execute(_gtfs_buffer_stats_sql()).df())


def test_gtfs_dissolved_stats_oracle(ray_session, con):
    from battery.queries import QUERIES, _gtfs_dissolved_stats_sql

    _compare("gtfs_dissolved_stats", QUERIES["gtfs_dissolved_stats"](SF),
             con.execute(_gtfs_dissolved_stats_sql()).df())


# -- kernel cross-checks: vectorized engine vs scalar reference on edge
#    cases the fixture may not cover -----------------------------------

EDGE_TEXTS = [
    "",
    " ",
    "one",
    "two words",
    "the exact same sentence repeated here",
    "a  b\t c\nd   ",
    "unicode tøkens über ação 中文 词",
    "x " * 200,
]


def test_scalar_ref_matches_vectorized_kernels(ray_session):
    import numpy as np
    import pyarrow as pa

    from battery import oracle_ref as ref
    from battery.ops.hashing import hashed_tokens, rolling_fingerprints
    from battery.ops.dedup import MinHashStage, _shingle_flat, simhash_batch

    col = pa.array(EDGE_TEXTS, pa.string())
    h, off = hashed_tokens(col)
    for i, t in enumerate(EDGE_TEXTS):
        assert h[off[i]:off[i + 1]].tolist() == ref.token_hashes(t), t

    fps = rolling_fingerprints(h, off)
    assert [int(v) for v in fps] == [ref.fingerprint(t) for t in EDGE_TEXTS]

    sh, sh_off = _shingle_flat(h, off, 3)
    for i, t in enumerate(EDGE_TEXTS):
        assert sorted(sh[sh_off[i]:sh_off[i + 1]].tolist()) == sorted(ref.shingles(t, 3)), t

    batch = pa.table({"doc_id": pa.array(range(len(EDGE_TEXTS)), pa.int64()), "text": col})
    sim = simhash_batch(batch)["simhash"].to_numpy().view(np.uint64)
    assert [int(v) for v in sim] == [ref.simhash(t) for t in EDGE_TEXTS]

    stage = MinHashStage(64, 16, 3)
    sigs = stage.signatures(col)
    a = [int(x) for x in stage.a]
    b = [int(x) for x in stage.b]
    for i, t in enumerate(EDGE_TEXTS):
        assert sigs[i].tolist() == ref.minhash_signature(ref.shingles(t, 3), a, b), t


def test_scalar_hll_matches_engine(ray_session):
    import numpy as np

    from battery.oracle_ref import hll_estimate_ref
    from battery.ops.sketch import HLL
    from geotile.synth import splitmix64

    vals = (np.arange(5000, dtype=np.int64) * 7919 - 1000).tolist()
    eng = HLL(12).add_hashes(splitmix64(np.asarray(vals, np.int64).view(np.uint64)))
    assert int(round(eng.estimate())) == int(round(hll_estimate_ref(vals, 12)))


def test_anti_join_bucketed_path_matches_broadcast(ray_session, con):
    """The scale fallback (keyset over the broadcast cap) must produce
    the identical anti-join result."""
    import pyarrow.compute as pc

    from battery.ops.relational import anti_join
    from battery.queries import _read

    orders = _read(SF, "orders", ["o_custkey", "o_totalprice"])
    big = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 350000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    cust = _read(SF, "customer", ["c_custkey", "c_mktsegment"])
    fast = anti_join(cust, big, "c_custkey", "o_custkey").to_pandas()
    slow = anti_join(cust, big, "c_custkey", "o_custkey", max_broadcast_keys=0).to_pandas()
    key = ["c_custkey", "c_mktsegment"]
    assert sorted(map(tuple, fast[key].to_numpy())) == sorted(map(tuple, slow[key].to_numpy()))


def test_window_stats_formulas_on_random_masks(ray_session):
    """The oracle SQL derives area/Euler from marching-squares window
    CASES; the engine derives them from traced CONTOURS. Property-check
    the two derivations agree on random masks: Σ signed ring areas ==
    Σ case-eighths / 8, and #outers − #holes == (Q1 − Q3 + 2·Qd) / 4."""
    import numpy as np

    from geotile.geom.pip import signed_area
    from geotile.geom.raster import Grid, mask_to_polygons, trace_mask

    A8 = {0: 0, 1: 1, 2: 1, 4: 1, 8: 1, 3: 4, 6: 4, 12: 4, 9: 4,
          5: 2, 10: 2, 7: 7, 11: 7, 13: 7, 14: 7, 15: 8}
    rng = np.random.default_rng(42)
    for _ in range(60):
        ny, nx = rng.integers(3, 14, 2)
        mask = rng.random((ny, nx)) < rng.uniform(0.15, 0.85)
        grid = Grid(0.0, 0.0, 1.0, int(nx), int(ny))
        polys = mask_to_polygons(mask, grid)
        euler_contours = len(polys) - sum(len(h) for _, h in polys)
        area_contours = sum(signed_area(r) for r in trace_mask(mask, grid))
        m = np.zeros((ny + 2, nx + 2), np.uint8)
        m[1:-1, 1:-1] = mask
        case = m[:-1, :-1] | (m[:-1, 1:] << 1) | (m[1:, 1:] << 2) | (m[1:, :-1] << 3)
        vals, cnts = np.unique(case, return_counts=True)
        cc = dict(zip(vals.tolist(), cnts.tolist()))
        area8 = sum(A8[c] * n for c, n in cc.items())
        q1 = sum(cc.get(c, 0) for c in (1, 2, 4, 8))
        q3 = sum(cc.get(c, 0) for c in (7, 11, 13, 14))
        qd = sum(cc.get(c, 0) for c in (5, 10))
        assert abs(area_contours * 8 - area8) < 1e-9
        assert (q1 - q3 + 2 * qd) % 4 == 0
        assert (q1 - q3 + 2 * qd) // 4 == euler_contours


def test_simhash_pairs_oracle(ray_session, con):
    from battery.queries import QUERIES, _simhash_pairs_sql

    _compare("simhash_pairs_docs", QUERIES["simhash_pairs_docs"](SF),
             con.execute(_simhash_pairs_sql(SF)).df())
