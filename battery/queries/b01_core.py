"""Query battery part — 113 driver queries (split from the former single-module queries.py).

Registers:
pricing_summary, cust_nation_orders, broadcast_join_brand_revenue,
semi_join_date_filter, left_join_customer_orders,
distinct_parts_per_flag, exact_dedup_docs, union_order_subsets,
topk_orders, bucket_join_priority_revenue, user_sessions,
asof_clicks_views, followup_events, top_terms_docs, tfidf_docs,
dup_span_docs, rolling_window_user, rollup_docs, pivot_docs,
grouped_topk_users, corr_moments_docs, ntile_events,
right_join_orders_customer, intersect_users, except_users,
full_outer_customer_orders, jaccard_pairs_docs, quantiles_events,
quantiles_cont_events, funnel_users, cohort_retention_users,
event_gap_stats_user, last_event_user, type_cooccurrence_users,
pagerank_dups, weighted_avg_lineitem, embedding_cov_moments,
stopword_filter_docs, kmeans_embeddings, resampled_hourly_events,
mad_events, throttled_events, grouping_sets_docs, percent_rank_events,
top_bigrams_docs, cm_user_counts, train_split_docs,
global_sort_orders, ndjson_events_ingest, user_sequence_strings,
winsorized_stats_events, region_revenue, multi_distinct_daily,
dedup_keep_canonical, union_by_name_orders, value_histogram_events,
hourly_activity_events, transition_counts_events,
mode_event_type_user, cube_docs, skyline_orders, embedding_dim_stats,
grouped_quantiles_events, stratified_sample_events,
dup_clusters_embeddings, distinct_users_exact, hash_sample_docs,
heavy_hitter_users, image_resize, anti_join_customers,
sliding_window_events, hll_distinct_users, hll_grouped_users,
phash_neighbor_stats, event_props_stats, envelope_events,
cell_quantize_events, pip_triangle_docs, spatial_grid_join_docs,
window_events, doc_token_stats, doc_stats_by_lang, knn_embeddings,
lang_id_docs, fingerprint_docs, minhash_pairs_docs, simhash_docs,
simhash_pairs_docs, embedding_dups, ivf_ann, tile_assignments,
tile_knn, tile_cell_counts, route_feature_collections, tile_dissolve,
image_invariants, image_channel_histogram, gtfs_stop_features,
gtfs_line_features, gtfs_envelope, gtfs_convex_hull,
gtfs_buffer_stats, gtfs_dissolved_stats, doc_quality,
image_embeddings, embedding_buckets, tile_covered_cells,
bloom_semi_join_lineitem, token_shards_docs, rfm_segments,
triangle_dups, bfs_dups, linreg_hour_value
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from battery.ops.dissolve import _footprint_cells, dissolve_tile_footprints
from battery.ops.images import ImageDecodeStage, ImageEmbedStage, ImageHistogramStage, ImageResizeStage


_R = 4  # float rounding for driver value-hash comparability



def _e(col, scale: int):
    """Exact-integer lattice for a float aggregate: round(x*scale) as
    int64. Raw rounded doubles can differ by 1 ULP between pyarrow and
    DuckDB; the integer lattice makes the driver value-hash exact."""
    return pc.round(pc.multiply(col, pa.scalar(float(scale)))).cast(pa.int64())



_READ_BLOCK_BYTES = 32 << 20  # one read block per ~32 MB of file


def _read_num_blocks(path: str) -> int:
    """Cluster-width floor, file-size growth: Ray's default split
    (2×CPUs regardless of size) shatters the sf-scale tables into
    kilobyte slivers, and every downstream sort/groupby inherits that
    partition count as pure fixed cost (the nation_pair_revenue
    lesson, VERDICT r3 #7, applied at the root).  max(width, bytes/32M)
    keeps one wave of width-parallel map tasks at bench scale and
    grows with the data at the 100-TB point, where bytes/32M dominates
    and the block count is the one you'd want anyway."""
    import os

    import ray

    cpus = 16
    if ray.is_initialized():
        global _READ_WIDTH
        if _READ_WIDTH is None:
            _READ_WIDTH = int(ray.cluster_resources().get("CPU", 16))
        cpus = _READ_WIDTH
    try:
        size = os.path.getsize(path)
    except OSError:
        return cpus
    return max(cpus, size // _READ_BLOCK_BYTES)


_READ_WIDTH: int | None = None


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    path = f"{sf_dir}/{table}.parquet"
    return rd.read_parquet(path, columns=columns,
                           override_num_blocks=_read_num_blocks(path))



def _rename(ds: rd.Dataset, names: list[str]) -> rd.Dataset:
    return ds.map_batches(lambda t: t.rename_columns(names), batch_format="pyarrow")



def _broadcast(ref):
    """Per-worker-process cached ray.get of a broadcast ObjectRef (the
    ops/join cache): stateless map tasks get actor-style amortization
    without reserving CPUs (the round-1 starvation lesson)."""
    from geotile.ops.join import _get_broadcast

    return _get_broadcast(ref)



def _dim_np(sf_dir: str, table: str, key: str, cols: list[str],
            max_rows: int = 5_000_000):
    """Shared replacement for the r3 ``take_all()`` + per-row-dict dim
    idiom (VERDICT r3 #2): size-capped driver materialization via
    :func:`battery.ops.relational.broadcast_dim` — Arrow refs → one
    sorted table → zero-copy numpy columns, no Python row loop.
    Returns ``(sorted_keys, col_array, ...)`` aligned by key position;
    a dataset over the cap raises (route it through bucketed_join)."""
    from battery.ops.relational import broadcast_dim

    keys, tbl = broadcast_dim(
        _read(sf_dir, table, [key] + cols), key, max_rows=max_rows)
    return (keys, *(tbl[c].to_numpy(zero_copy_only=False) for c in cols))



def _emb_dim_np(sf_dir: str, extra_cols: tuple[str, ...] = (),
                max_rows: int = 5_000_000):
    """The ``_dim_np`` analogue for the embeddings table (VERDICT r4
    #1): size-capped :func:`broadcast_dim` collect, then the embedding
    list column flattens to an (n, d) float64 matrix via Arrow kernels
    — no ``take_all`` + per-row listcomp.  Returns ``(sorted vec_ids,
    matrix, *extra column arrays)`` aligned by vec_id position.  The
    cap is the explicit statement that this is the SMALL-corpus path;
    at the 100 TB point the LSH-bucketed twin replaces the broadcast
    (each caller's docstring names its replacement)."""
    from battery.ops.ann import _emb_matrix
    from battery.ops.relational import broadcast_dim

    keys, tbl = broadcast_dim(
        _read(sf_dir, "embeddings", ["vec_id", "embedding", *extra_cols]),
        "vec_id", max_rows=max_rows)
    # matrix extraction shared with the ANN kernels (one place to fix
    # list-column edge cases); only the 0-row guard lives here
    V = _emb_matrix(tbl) if tbl.num_rows else np.zeros((0, 0))
    return (keys, V,
            *(tbl[c].to_numpy(zero_copy_only=False) for c in extra_cols))



# ---------------------------------------------------------------------------
# q1: pricing summary — the partial+final aggregation pattern (SURVEY A4/M)
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(np.datetime64("1995-09-02", "us"))))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("rev", rev)
        # Arrow-native combiner — no pandas round trip (VERDICT r2 #5)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("rev", "sum"), ("rev", "count")]
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "l_linestatus": g["l_linestatus"],
                "sum_qty": g["l_quantity_sum"],
                "sum_rev": g["rev_sum"],
                "n": g["rev_count"],
            }
        )

    # 6-row partials per block: the combine is an Arrow TREE over the
    # bounded partial stream (the window_events law — a Ray multi-key
    # (string, string) Aggregate pays per-block fixed cost that
    # dwarfs this 6-group reduce); one coalesce level suffices because
    # level 2's input is ≤ 4 × 6 rows
    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_rev", "sum"), ("n", "sum")])
        return pa.table(
            {"l_returnflag": g["l_returnflag"],
             "l_linestatus": g["l_linestatus"],
             "sum_qty": g["sum_qty_sum"], "sum_rev": g["sum_rev_sum"],
             "n": g["n_sum"]})

    # exact-integer lattice: double rounding differs by 1 ULP between
    # engines, so hashable float outputs are scaled to BIGINT instead
    def final(t: pa.Table) -> pa.Table:
        t = combine(t)
        return t.set_column(2, "sum_qty", _e(t["sum_qty"], 100)) \
            .set_column(3, "sum_rev", _e(t["sum_rev"], 10000)) \
            .rename_columns(["l_returnflag", "l_linestatus",
                             "sum_qty_e2", "sum_rev_e4", "n"])

    return (ds.map_batches(partial, batch_format="pyarrow")
            .repartition(4)
            .map_batches(combine, batch_format="pyarrow", batch_size=None)
            .repartition(1)
            .map_batches(final, batch_format="pyarrow", batch_size=None))



# ---------------------------------------------------------------------------
# stop→route assignment analog: orders fact grouped, dims broadcast (J1/J2)
# ---------------------------------------------------------------------------

def q_cust_nation_orders(sf_dir: str):
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    # partial per-batch combine, then one small groupby (same shape as J1)
    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate(
            [("o_orderkey", "count"), ("o_totalprice", "sum")]
        )
        return pa.table(
            {
                "o_custkey": g["o_custkey"],
                "n_orders": g["o_orderkey_count"],
                "total": g["o_totalprice_sum"],
            }
        )

    agg = orders.map_batches(partial, batch_format="pyarrow").groupby("o_custkey").sum(
        ["n_orders", "total"]
    )
    agg = _rename(agg, ["custkey", "n_orders", "total"])
    from battery.ops.relational import dim_lookup

    ck, cname, cnat = _dim_np(sf_dir, "customer", "c_custkey",
                              ["c_name", "c_nationkey"])
    nk, nname = _dim_np(sf_dir, "nation", "n_nationkey", ["n_name"])
    ni, nhit = dim_lookup(nk, cnat.astype(np.int64, copy=False))
    if not nhit.all():
        raise ValueError("customer.c_nationkey missing from nation dim")
    dim_ref = ray.put(
        (
            ck,
            pa.array(cname, pa.string()),
            pa.array(nname[ni], pa.string()),
        )
    )

    def attach(t: pa.Table) -> pa.Table:
        # stateless task + per-worker broadcast cache; VERIFIED
        # searchsorted gather (dim_lookup) — an order custkey absent
        # from the customer dim DROPS, matching the oracle's inner
        # JOIN customer (the c15a306 dim-miss class)
        keys, names, nats = _broadcast(dim_ref)
        idx, hit = dim_lookup(keys, t["custkey"].to_numpy()
                              .astype(np.int64, copy=False))
        t = t.filter(pa.array(hit))
        ia = pa.array(idx[hit])
        return (
            t.append_column("c_name", pc.take(names, ia))
            .append_column("nation", pc.take(nats, ia))
            .set_column(2, "total", _e(t["total"], 100))
            .rename_columns(["custkey", "n_orders", "total_e2", "c_name", "nation"])
        )

    return agg.map_batches(attach, batch_format="pyarrow")



def q_broadcast_join_brand_revenue(sf_dir: str):
    """J2-style broadcast join: lineitem fact × part dim (ray.put once)."""
    pk, pbrand = _dim_np(sf_dir, "part", "p_partkey", ["p_brand"])
    # brand CODE per sorted partkey: the fact-side gather is pure numpy
    brands_np, codes = np.unique(pbrand.astype(str), return_inverse=True)
    brands_sorted = brands_np.tolist()
    dim_ref = ray.put((pk, codes.astype(np.int64), brands_sorted))
    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        # VERIFIED searchsorted gather + bincount combiner: no per-row
        # Python on the lineitem fact; lines whose part is absent DROP
        # (inner semantics, as the oracle's JOIN part does)
        from battery.ops.relational import dim_lookup

        pk_, codes_, brands_ = _broadcast(dim_ref)
        pi, phit = dim_lookup(pk_, t["l_partkey"].to_numpy()
                              .astype(np.int64, copy=False))
        t = t.filter(pa.array(phit))
        c = codes_[pi[phit]]
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        ).to_numpy()
        sums = np.bincount(c, weights=rev, minlength=len(brands_))
        ns = np.bincount(c, minlength=len(brands_))
        nz = ns > 0
        return pa.table(
            {
                "p_brand": pa.array(np.asarray(brands_, dtype=object)[nz], pa.string()),
                "revenue": pa.array(sums[nz]),
                "n": pa.array(ns[nz].astype(np.int64)),
            }
        )

    out = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "p_brand"
    ).sum(["revenue", "n"])
    out = _rename(out, ["p_brand", "revenue", "n"])
    return out.map_batches(
        lambda t: t.set_column(1, "revenue", _e(t["revenue"], 10000)).rename_columns(
            ["p_brand", "revenue_e4", "n"]
        ),
        batch_format="pyarrow",
    )



def q_semi_join_date_filter(sf_dir: str):
    """J5 analog: date-ranged orders → broadcast keyset semi-join on the
    lineitem fact (the reference's service_id filter)."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    keys = orders.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(np.datetime64("1995-01-01", "us"))),
                pc.less(t["o_orderdate"], pa.scalar(np.datetime64("1996-01-01", "us"))),
            )
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    from battery.ops.relational import broadcast_dim

    # filtered orderkeys are fact-scale at 100 TB: the cap documents the
    # broadcast assumption (over it → ops.relational.semi_join / bloom)
    kk, _kt = broadcast_dim(keys, "o_orderkey")
    keyset_ref = ray.put(pa.array(kk))
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def semi(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t["l_orderkey"], _broadcast(keyset_ref)))
        return pa.table(
            {"n_items": pa.array([len(f)], pa.int64()),
             "sum_qty": pa.array([pc.sum(f["l_quantity"]).as_py() or 0.0], pa.float64())}
        )

    out = ds.map_batches(semi, batch_format="pyarrow")
    df = out.to_pandas().sum()
    return pd.DataFrame(
        {"n_items": [int(df.n_items)], "sum_qty_e2": [int(round(float(df.sum_qty) * 100))]}
    )



def q_left_join_customer_orders(sf_dir: str):
    """J4-style LEFT join: every customer row survives with n_orders=0."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    counts = orders.groupby("o_custkey").count()
    counts = _rename(counts, ["custkey", "cnt"])
    from battery.ops.relational import broadcast_dim

    # per-custkey counts are FACT-keyed at the 100 TB design point —
    # the cap makes the broadcast assumption explicit (over it, this
    # becomes bucketed_join(cust, counts, ..., how="left"))
    ck, _ct = broadcast_dim(counts, "custkey")
    cnt = _ct["cnt"].to_numpy().astype(np.int64, copy=False)
    dim_ref = ray.put((ck, cnt))
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def attach(t: pa.Table) -> pa.Table:
        # LEFT semantics: missing keys get 0 (masked searchsorted gather)
        ck_, cnt_ = _broadcast(dim_ref)
        k = t["c_custkey"].to_numpy()
        idx = np.searchsorted(ck_, k)
        idx_c = np.minimum(idx, len(ck_) - 1) if len(ck_) else idx
        hit = (ck_[idx_c] == k) if len(ck_) else np.zeros(len(k), bool)
        n = np.where(hit, cnt_[idx_c] if len(ck_) else 0, 0)
        return pa.table(
            {"custkey": t["c_custkey"], "n_orders": pa.array(n.astype(np.int64))}
        )

    return cust.map_batches(attach, batch_format="pyarrow")



# ---------------------------------------------------------------------------
# distinct / dedup / union / sort-limit (SURVEY §2.7)
# ---------------------------------------------------------------------------

def q_distinct_parts_per_flag(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_partkey"])
    # per-batch dedup (combiner) → exact distinct per flag
    pre = ds.map_batches(
        lambda t: t.group_by(["l_returnflag", "l_partkey"]).aggregate([]),
        batch_format="pyarrow",
    )
    pairs = pre.groupby(["l_returnflag", "l_partkey"]).count()
    out = pairs.groupby("l_returnflag").count()
    return _rename(out, ["l_returnflag", "n_parts"])



def q_exact_dedup_docs(sf_dir: str):
    from battery.ops.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))



def q_union_order_subsets(sf_dir: str):
    a = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 200000.0)), batch_format="pyarrow"
    )
    b = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.less(t["o_totalprice"], 50000.0)), batch_format="pyarrow"
    )
    u = a.union(b)
    out = u.groupby("o_orderstatus").count()
    return _rename(out, ["o_orderstatus", "n"])



def q_topk_orders(sf_dir: str):
    """Top-10 orders by price: per-batch partial top-k → one tiny final
    reduce. No global sort — the all-to-all a full ds.sort() would do
    moves every row for a 10-row answer (VERDICT r1 #5)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    k = 10

    def top_of(t: pa.Table) -> pa.Table:
        price = t["o_totalprice"].to_numpy()
        key = t["o_orderkey"].to_numpy()
        if len(price) > k:
            kth = np.partition(price, len(price) - k)[len(price) - k]
            m = price >= kth  # keeps every potential top-k row incl. ties
            price, key = price[m], key[m]
        order = np.lexsort((key, -price))[:k]
        return pa.table(
            {"o_orderkey": pa.array(key[order]), "o_totalprice": pa.array(price[order])}
        )

    partials = ds.map_batches(top_of, batch_format="pyarrow", zero_copy_batch=True)
    # final reduce over <= k*n_blocks rows — coalesce to one tiny block
    return partials.repartition(1).map_batches(top_of, batch_format="pyarrow")



# ---------------------------------------------------------------------------
# geometry-flavored, SQL-checkable (cells / bbox / PIP / spatial join)
# ---------------------------------------------------------------------------

def q_envelope_events(sf_dir: str):
    """A1 envelope as partial+final min/max over derived x/y points."""
    ds = _read(sf_dir, "events", ["value", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        x = t["value"].to_numpy()
        y = t["user_id"].to_numpy().astype(np.float64)
        return pa.table(
            {"min_x": [float(x.min())], "max_x": [float(x.max())],
             "min_y": [float(y.min())], "max_y": [float(y.max())]}
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "min_x": [p.min_x.min()],
            "max_x": [p.max_x.max()],
            "min_y": [p.min_y.min()],
            "max_y": [p.max_y.max()],
        }
    )



def q_cell_quantize_events(sf_dir: str):
    """Cell encoding (SQL-checkable square grid; the Morton packing of
    the same (ix, iy) is covered by geom unit tests)."""
    ds = _read(sf_dir, "events", ["value", "user_id"])

    def enc(t: pa.Table) -> pa.Table:
        ix = np.floor(t["value"].to_numpy() / 5.0).astype(np.int64)
        iy = (t["user_id"].to_numpy() // 10).astype(np.int64)
        g = pa.table({"ix": ix, "iy": iy, "one": np.ones(len(ix), np.int64)}).group_by(
            ["ix", "iy"]
        ).aggregate([("one", "count")])
        return pa.table({"ix": g["ix"], "iy": g["iy"], "n": g["one_count"]})

    out = ds.map_batches(enc, batch_format="pyarrow").groupby(["ix", "iy"]).sum("n")
    return _rename(out, ["ix", "iy", "n"])



_TRI = ((1.0, 1.0), (9.0, 2.0), (5.0, 9.0))  # CCW triangle



def _derived_points(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic points, expressible identically in SQL."""
    x = (doc_id * 2654435761 % 4294967296).astype(np.float64) / 4294967296.0 * 10.0
    y = ((doc_id * 40503 + 7) % 65536).astype(np.float64) / 65536.0 * 10.0
    return x, y



def q_pip_triangle_docs(sf_dir: str):
    """Point-in-polygon spatial join with a SQL oracle: strict half-plane
    containment of derived points in a fixed CCW triangle."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def pip(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        x, y = _derived_points(d)
        (ax, ay), (bx, by), (cx, cy) = _TRI
        s1 = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        s2 = (cx - bx) * (y - by) - (cy - by) * (x - bx)
        s3 = (ax - cx) * (y - cy) - (ay - cy) * (x - cx)
        inside = (s1 > 0) & (s2 > 0) & (s3 > 0)
        return pa.table({"doc_id": pa.array(d[inside])})

    return ds.map_batches(pip, batch_format="pyarrow")



def q_spatial_grid_join_docs(sf_dir: str):
    """Grid-cell spatial aggregation of the derived points: count per
    occupied unit cell — the tile-assignment shape with a SQL oracle."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def enc(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        x, y = _derived_points(d)
        ix = np.floor(x).astype(np.int64)
        iy = np.floor(y).astype(np.int64)
        g = pa.table({"ix": ix, "iy": iy, "one": np.ones(len(ix), np.int64)}).group_by(
            ["ix", "iy"]
        ).aggregate([("one", "count")])
        return pa.table({"ix": g["ix"], "iy": g["iy"], "n": g["one_count"]})

    out = ds.map_batches(enc, batch_format="pyarrow").groupby(["ix", "iy"]).sum("n")
    return _rename(out, ["ix", "iy", "n"])



def q_anti_join_customers(sf_dir: str):
    """Anti-join with a size guard (VERDICT r2 #4): a small key set
    broadcasts and filters inside map_batches; beyond the cap the
    relational.anti_join helper falls back to the bucketed co-partition
    path — driver memory never scales with the filter's selectivity."""
    from battery.ops.relational import anti_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    big = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 350000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    return anti_join(cust, big, "c_custkey", "o_custkey")



def q_sliding_window_events(sf_dir: str):
    """Sliding windows (10-min window, 5-min slide): each event lands in
    two windows — flat-map expansion per batch, then the same partial +
    groupby reduce as the tumbling case."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def expand(t: pa.Table) -> pa.Table:
        ts_us = t["ts"].cast(pa.int64()).to_numpy()
        slot = ts_us // 300_000_000
        et = t["event_type"].combine_chunks()
        val = t["value"].combine_chunks()
        both = pa.table(
            {
                "event_type": pa.concat_arrays([et, et]),
                "w": np.concatenate([slot, slot - 1]),
                "value": pa.concat_arrays([val, val]),
            }
        )
        both = both.filter(pc.greater_equal(both["w"], 0))
        g = both.group_by(["event_type", "w"]).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return pa.table(
            {"event_type": g["event_type"], "w": g["w"],
             "n": g["value_count"], "sum_value": g["value_sum"]}
        )

    out = ds.map_batches(expand, batch_format="pyarrow").groupby(["event_type", "w"]).sum(
        ["n", "sum_value"]
    )
    out = _rename(out, ["event_type", "w", "n", "sum_value"])
    return out.map_batches(
        lambda t: t.set_column(3, "sum_value", _e(t["sum_value"], 100)).rename_columns(
            ["event_type", "w", "n", "sum_value_e2"]
        ),
        batch_format="pyarrow",
    )



def q_event_props_stats(sf_dir: str):
    """JSON-metadata extraction (training pipelines parse JSON sidecar
    columns): pull ``k`` out of the props JSON with a vectorized regex
    (pyarrow extract — no per-row json.loads), aggregate per type."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        k = pc.extract_regex(t["props"], r'"k":\s*(?P<k>\d+)')
        kv = pc.struct_field(k, "k").cast(pa.int64())
        if isinstance(kv, pa.ChunkedArray):
            kv = kv.combine_chunks()
        g = pa.table(
            {"event_type": t["event_type"].combine_chunks(), "k": kv}
        ).group_by("event_type").aggregate([("k", "sum"), ("k", "count")])
        return pa.table(
            {"event_type": g["event_type"], "sum_k": g["k_sum"], "n": g["k_count"]}
        )

    out = ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True).groupby(
        "event_type"
    ).sum(["sum_k", "n"])
    return _rename(out, ["event_type", "sum_k", "n"])



def q_hll_distinct_users(sf_dir: str):
    """Approximate distinct users via mergeable HLL sketch. Oracle
    contract (VERDICT r2): the estimate must match an INDEPENDENT scalar
    HLL replay (oracle_ref sidecar) exactly, the exact count must match
    SQL COUNT(DISTINCT), and the bounded-error flag |est−exact|/exact ≤
    0.05 must hold."""
    from battery.ops.sketch import hll_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = int(round(hll_distinct(ds, "user_id")))
    exact = int(q_distinct_users_exact(sf_dir)["distinct_users"][0])
    return pd.DataFrame(
        {
            "distinct_users_est": [est],
            "distinct_users": [exact],
            "est_ok": [abs(est - exact) / max(exact, 1) <= 0.05],
        }
    )



def q_hll_grouped_users(sf_dir: str):
    """Per-group approximate distinct users (sketch.hll_distinct_grouped
    — mergeable per-group HLL registers, one 4KB row per group per
    batch). Same oracle contract as the global sketch: estimate ==
    independent scalar replay (sidecar), exact == SQL COUNT(DISTINCT),
    bounded error flag genuinely computed engine-side."""
    from battery.ops.sketch import hll_distinct_grouped

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    est = {
        r["event_type"]: int(r["est"])
        for r in hll_distinct_grouped(ds, "user_id", "event_type").take_all()
    }

    # exact per group: batch-local distinct pairs → pair-scale groupby →
    # per-batch partial counts → group-scale sum
    def pair_distinct(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type", "user_id"]).aggregate([])
        return g

    def cnt(t: pa.Table) -> pa.Table:
        g = t.group_by("event_type").aggregate([([], "count_all")])
        return pa.table(
            {"event_type": g["event_type"], "n": g["count_all"].cast(pa.int64())}
        )

    exact_rows = (
        ds.map_batches(pair_distinct, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "user_id"])
        .count()
        .map_batches(cnt, batch_format="pyarrow")
        .groupby("event_type")
        .sum("n")
        .take_all()  # dimension-scale: one row per event_type
    )
    types = sorted(r["event_type"] for r in exact_rows)
    exact = {r["event_type"]: int(r["sum(n)"]) for r in exact_rows}
    return pd.DataFrame(
        {
            "event_type": types,
            "distinct_users_est": [est[t] for t in types],
            "distinct_users": [exact[t] for t in types],
            "est_ok": [
                abs(est[t] - exact[t]) / max(exact[t], 1) <= 0.05 for t in types
            ],
        }
    )



def q_distinct_users_exact(sf_dir: str):
    """Exact companion to the HLL sketch: per-batch dedup combiner →
    one groupby over the pre-deduped user ids → count. The shuffle
    moves distinct ids per block, never event rows."""
    ds = _read(sf_dir, "events", ["user_id"])
    pre = ds.map_batches(
        lambda t: pa.table({"user_id": t["user_id"].combine_chunks().unique()}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n = pre.groupby("user_id").count().count()
    return pd.DataFrame({"distinct_users": [int(n)]})



def q_heavy_hitter_users(sf_dir: str):
    """Misra-Gries heavy hitters with an exactness contract: the engine
    computes the EXACT top-10 users by event count (deterministic
    tie-break: count DESC, user_id ASC — SQL-replayable) plus a flag
    that the MG(k=64) sketch retained every TRUE heavy hitter — the MG
    guarantee covers exactly the users with frequency > n/64 (vacuous
    on uniform data; the skewed-distribution case is asserted in
    tests/test_sketch.py)."""
    from battery.ops.sketch import mg_topk

    ev = _read(sf_dir, "events", ["user_id"])
    counts = ev.groupby("user_id").count()

    def top_of(t: pa.Table) -> pa.Table:
        # partial top-10 per block (never pull the full distinct-user
        # set to the driver — same shape as q_topk_orders)
        u = t[t.column_names[0]].to_numpy()
        n = t[t.column_names[1]].to_numpy().astype(np.int64)
        order = np.lexsort((u, -n))[:10]
        return pa.table({"user_id": pa.array(u[order]), "n": pa.array(n[order])})

    top = (
        counts.map_batches(top_of, batch_format="pyarrow")
        .repartition(1)
        .map_batches(top_of, batch_format="pyarrow")
        .to_pandas()
    )
    mg_ids = {v for v, _ in mg_topk(ev, "user_id", k=64, top=64)}
    total = int(ev.count())
    heavies = top[top["n"] > total / 64]["user_id"]
    found = all(u in mg_ids for u in heavies)
    return pd.DataFrame(
        {
            "user_id": top["user_id"].to_numpy(),
            "n": top["n"].to_numpy(),
            "mg_found": np.full(len(top), found),
        }
    )



def q_hash_sample_docs(sf_dir: str):
    """Deterministic 10% hash sample (the reproducible, shard-stable way
    to sample at scale — rng sampling can't be oracle-checked)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def sample(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        keep = (d * 2654435761 % 4294967296) % 10 == 0
        return t.filter(pa.array(keep))

    return ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)



def q_bucket_join_priority_revenue(sf_dir: str):
    """Both-sides-large hash join (bucketed co-partition, no broadcast):
    lineitem ⋈ orders on orderkey → revenue per order priority."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = bucketed_join(li, orders, "l_orderkey", "o_orderkey", n_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        g = (
            t.select(["o_orderpriority"]).append_column("rev", rev)
            .group_by("o_orderpriority")
            .aggregate([("rev", "sum"), ("rev", "count")])
        )
        return pa.table(
            {"o_orderpriority": g["o_orderpriority"], "revenue": g["rev_sum"],
             "n": g["rev_count"]}
        )

    out = joined.map_batches(partial, batch_format="pyarrow").groupby(
        "o_orderpriority"
    ).sum(["revenue", "n"])
    out = _rename(out, ["o_orderpriority", "revenue", "n"])
    return out.map_batches(
        lambda t: t.set_column(1, "revenue", _e(t["revenue"], 10000)).rename_columns(
            ["o_orderpriority", "revenue_e4", "n"]
        ),
        batch_format="pyarrow",
    )



def q_user_sessions(sf_dir: str):
    """Streaming-shaped sessionization: per user, 30-min-gap sessions."""
    from battery.ops.relational import sessionize

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    s = sessionize(ev, key="user_id", ts="ts", gap_s=1800.0)
    out = s.groupby("user_id").max("session_idx")
    return out.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "n_sessions": pc.add(t["max(session_idx)"], pa.scalar(1, pa.int64())),
            }
        ),
        batch_format="pyarrow",
    )



# ---------------------------------------------------------------------------
# events windowing (streaming-shaped; ray_guide pattern)
# ---------------------------------------------------------------------------

def q_window_events(sf_dir: str):
    """5-minute tumbling-window counts/sums per event type.  The
    combine is an Arrow TREE, not a Ray multi-key groupby: the partial
    stream is BOUNDED (each input block contracts to ≤ types×windows
    rows), and Ray's sort-based aggregate pays a measured ~150 ms of
    per-block fixed cost on a (string, int) key — 0.96 s of the old
    1.3+ s run was the Aggregate alone (r4 VERDICT regression).  Two
    levels keep it scale-shaped: level 1 coalesces the block partials
    K-ways and combines each group in one vectorized Arrow group_by
    (input ≤ blocks/K × G rows, output ≤ G rows per task); level 2
    combines the K results (≤ K×G rows — window-aggregate cardinality,
    never row scale)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def win(t: pa.Table) -> pa.Table:
        ts_us = t["ts"].cast(pa.int64()).to_numpy()
        w = ts_us // 300_000_000  # 5-minute tumbling windows
        g = pa.table(
            {"event_type": t["event_type"].combine_chunks(), "w": w,
             "value": t["value"].combine_chunks()}
        ).group_by(["event_type", "w"]).aggregate([("value", "count"), ("value", "sum")])
        return pa.table(
            {"event_type": g["event_type"], "w": g["w"],
             "n": g["value_count"].cast(pa.int64()), "sum_value": g["value_sum"]}
        )

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type", "w"]).aggregate(
            [("n", "sum"), ("sum_value", "sum")])
        return pa.table(
            {"event_type": g["event_type"], "w": g["w"],
             "n": g["n_sum"], "sum_value": g["sum_value_sum"]}
        )

    def final(t: pa.Table) -> pa.Table:
        t = combine(t)
        return pa.table(
            {"event_type": t["event_type"], "w": t["w"], "n": t["n"],
             "sum_value_e2": _e(t["sum_value"], 100)}
        )

    partials = ds.map_batches(win, batch_format="pyarrow")
    return (
        partials.repartition(8)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )



# ---------------------------------------------------------------------------
# text + vector queries
# ---------------------------------------------------------------------------

def q_doc_token_stats(sf_dir: str):
    from battery.ops.text import token_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(token_stats_batch, batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["doc_id", "n_tokens", "n_stopwords", "n_punct"])



def q_doc_stats_by_lang(sf_dir: str):
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("lang").aggregate([("n_chars", "count"), ("n_chars", "sum")])
        return pa.table(
            {"lang": g["lang"], "n": g["n_chars_count"], "sum_chars": g["n_chars_sum"]}
        )

    out = ds.map_batches(partial, batch_format="pyarrow").groupby("lang").sum(
        ["n", "sum_chars"]
    )
    return _rename(out, ["lang", "n", "sum_chars"])



def q_knn_embeddings(sf_dir: str):
    from battery.ops.ann import topk_bruteforce

    import pyarrow.dataset as pads

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # query-set selection rides the parquet read as a pushed-down
    # predicate (row-group pruning) instead of scanning the full table
    # to keep 5 rows (VERDICT r4 minor #4)
    q = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") < 5,
    ).take_all()
    qids = np.array([r["vec_id"] for r in q], dtype=np.int64)
    Q = np.array([r["embedding"] for r in q], dtype=np.float64)
    order = np.argsort(qids)
    out = topk_bruteforce(emb, qids[order], Q[order], k=3)
    return out.map_batches(
        lambda t: pa.table(
            {
                "query_id": t["query_id"],
                "vec_id": t["vec_id"],
                "cosine_e6": _e(t["cosine"], 1_000_000),
                "rank": t["rank"],
            }
        ),
        batch_format="pyarrow",
    )



# ---------------------------------------------------------------------------
# rows-only queries (non-SQL-expressible; driver records weaker check)
# ---------------------------------------------------------------------------

def q_lang_id_docs(sf_dir: str):
    from battery.ops.text import lang_id

    return lang_id(_read(sf_dir, "documents", ["doc_id", "text", "lang"])).select_columns(
        ["doc_id", "lang", "lang_pred"]
    )



def q_fingerprint_docs(sf_dir: str):
    from battery.ops.text import fingerprint_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "fingerprint"])



def q_minhash_pairs_docs(sf_dir: str):
    """MinHash+LSH near-dup pairs; jaccard scaled to the e6 integer
    lattice so the driver hash matches the scalar-replay sidecar."""
    from battery.ops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.35
    )
    return pairs.map_batches(
        lambda t: pa.table(
            {"a": t["a"], "b": t["b"], "jaccard_e6": _e(t["jaccard"], 1_000_000)}
        ),
        batch_format="pyarrow",
    )



def q_simhash_docs(sf_dir: str):
    from battery.ops.dedup import simhash_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "simhash"])



def q_simhash_pairs_docs(sf_dir: str):
    """SimHash near-dup PAIRS (pigeonhole banding + Hamming verify) —
    oracle: independent scalar replay sidecar."""
    from battery.ops.dedup import simhash_pairs

    return simhash_pairs(_read(sf_dir, "documents", ["doc_id", "text"]), max_hamming=4)



def q_embedding_dups(sf_dir: str):
    from battery.ops.dedup import embedding_dup_pairs

    return embedding_dup_pairs(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35)



def q_ivf_ann(sf_dir: str):
    """IVF ANN with a bounded-recall oracle contract (VERDICT r2): the
    engine computes IVF top-3 AND the exact brute-force top-3 and emits
    deterministic pass/fail rows the driver hashes against the oracle's
    TRUE: per query recall@3 ≥ 1/3, and mean recall over the query set
    ≥ 0.6. (The testdata embeddings are near-uniform random — no cluster
    structure — so nprobe=4/8 IVF recall is inherently moderate: the
    measured per-scale means are 0.67-0.73, deterministic given the
    fixed data and seeded k-means.) The raw IVF neighbor rows are not
    oracle-predictable without replaying k-means; they stay covered by
    the pytest recall assertions."""
    from battery.ops.ann import ivf_topk, topk_bruteforce

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = emb.map_batches(
        lambda t: t.filter(pc.less(t["vec_id"], 5)), batch_format="pyarrow"
    ).take_all()
    qids = np.array(sorted(r["vec_id"] for r in q), dtype=np.int64)
    Q = np.array([r["embedding"] for r in sorted(q, key=lambda r: r["vec_id"])], dtype=np.float64)
    ivf = ivf_topk(emb, qids, Q, k=3, n_centroids=8, nprobe=4).to_pandas()
    exact = topk_bruteforce(emb, qids, Q, k=3).to_pandas()
    recalls, rows = [], []
    for qid in qids:
        got = set(ivf[ivf["query_id"] == qid]["vec_id"])
        want = set(exact[exact["query_id"] == qid]["vec_id"])
        r = len(got & want) / max(len(want), 1)
        recalls.append(r)
        rows.append({"query_id": int(qid), "recall_ok": r >= 1 / 3})
    mean_ok = bool(np.mean(recalls) >= 0.6)
    return pd.DataFrame([{**row, "mean_ok": mean_ok} for row in rows])



# -- graft flagship over the synthesized image table (cached per sf) --------

_SF_IMAGE_ROWS = {"sf0.001": 2_000, "sf0.01": 20_000, "sf0.1": 200_000}



def _image_dir_for(sf_dir: str) -> str:
    import os
    from pathlib import Path

    from geotile.synth import make_image_table

    sf_name = Path(sf_dir).name
    n = _SF_IMAGE_ROWS.get(sf_name, 2_000)
    out = Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache")) / f"images_{sf_name}"
    make_image_table(n, out)  # skips existing parts; auto-parallel
    return str(out)



def _fixture_ctx():
    import os
    from pathlib import Path

    from geotile.ops.gtfs import GtfsContext
    from geotile.synth import make_caltrain_fixture

    d = Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache")) / "caltrain"
    if not (d / "_COMPLETE").exists():
        # atomic cache fill: build into a PID-unique dir, rename into
        # place, mark complete. Concurrent fillers each build their own
        # tmp (content is deterministic, so any winner is correct); a
        # loser whose rename fails re-checks for the winner's marker.
        import shutil

        if d.exists():  # stale partial from a killed run
            shutil.rmtree(d, ignore_errors=True)
        tmp = d.with_name(f"{d.name}.tmp-{os.getpid()}")
        if tmp.exists():
            shutil.rmtree(tmp)
        make_caltrain_fixture(tmp)
        # marker inside tmp BEFORE the rename: dest can never exist in an
        # unmarked state, so losers neither delete a winner nor raise
        (tmp / "_COMPLETE").touch()
        try:
            tmp.rename(d)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not (d / "_COMPLETE").exists():
                raise
    return GtfsContext(d)



# in-process memos: each graft query re-ran the route-buffer raster +
# index build (~5-9 s); one driver session runs many queries serially
_MEMO: dict = {}



def _geom_digest() -> str:
    """CONTENT hash of the modules the fixture geometry depends on, so
    ANY code change to the index build, geometry kernels or fixture
    synth auto-invalidates cached artifacts (route-index pickle AND the
    oracle sidecar parquets — ADVICE r2: existence-keyed sidecars would
    silently replay stale geometry expectations after an edit; the
    dissolve and lattice modules hold code cut from join/raster)."""
    from pathlib import Path
    from hashlib import blake2b

    import battery.geom.lattice as _lat
    import battery.ops.dissolve as _dis
    import geotile.geom.buffer as _b
    import geotile.geom.cells as _c
    import geotile.geom.pip as _p
    import geotile.geom.raster as _r
    import geotile.geom.rdp as _rd
    import geotile.ops.join as _j
    import geotile.synth as _sy

    hh = blake2b(digest_size=8)
    for mod in (_j, _r, _p, _c, _b, _rd, _sy, _dis, _lat):
        hh.update(Path(mod.__file__).read_bytes())
    return hh.hexdigest()



def _fixture_route_index():
    if "route_index" not in _MEMO:
        import os
        import pickle
        from pathlib import Path

        from geotile.config import PipelineConfig
        from geotile.ops.join import build_route_index, route_buffer_polygons

        # cross-process cache: the cover-raster + boundary-PIP build
        # costs 5-9 s per fresh process; content-keyed via _geom_digest.
        cache = Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache"))
        pkl = cache / f"route_index_{_geom_digest()}.pkl"
        idx = None
        if pkl.exists():
            try:
                with open(pkl, "rb") as f:
                    idx = pickle.load(f)
            except Exception:
                idx = None  # stale/corrupt cache: rebuild below
        if idx is None:
            idx = build_route_index(
                route_buffer_polygons(_fixture_ctx(), PipelineConfig(coordinate_precision=5))
            )
            cache.mkdir(parents=True, exist_ok=True)
            tmp = pkl.with_suffix(f".tmp-{os.getpid()}")
            with open(tmp, "wb") as f:
                pickle.dump(idx, f)
            tmp.rename(pkl)
        _MEMO["route_index"] = idx
    return _MEMO["route_index"]



def q_tile_assignments(sf_dir: str):
    """THE flagship: image tiles → route buffers spatial join."""
    from geotile.ops.join import spatial_join
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    idx = _fixture_route_index()
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    return spatial_join(ds, idx).select_columns(["image_id", "route_id", "cell", "caption"])



def q_tile_knn(sf_dir: str):
    from geotile.ops.join import knn_routes, route_polylines
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    ctx = _fixture_ctx()
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    return knn_routes(ds, route_polylines(ctx), k=2)



def q_tile_cell_counts(sf_dir: str):
    from geotile.ops.join import cell_tile_counts
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    return cell_tile_counts(read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS))



def q_route_feature_collections(sf_dir: str):
    from geotile.ops.join import assemble_route_fcs, spatial_join
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    idx = _fixture_route_index()
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    fcs = assemble_route_fcs(spatial_join(ds, idx))
    return fcs.select_columns(["route_id", "n_tiles"])



def _ring_stats(rings: list, unit: float) -> tuple[int, int]:
    """(area_octo, euler) of a traced ring set: signed shoelace (rings
    translated to their first vertex first — raw corridor-scale
    coordinates would lose the exact 1/8-cell lattice to cancellation)
    summed over outers (+) and holes (−), scaled to eighth-cells;
    euler = #outer rings − #hole rings. Both derive from the traced
    CONTOURS while the SQL side derives them from window CASES — a
    marching-squares bug cannot cancel out of both."""
    from geotile.geom.pip import signed_area

    total = 0.0
    n_pos = n_neg = 0
    for r in rings:
        a = np.asarray(r, dtype=np.float64)
        s = signed_area(a - a[0])
        total += s
        if s > 0:
            n_pos += 1
        elif s < 0:
            n_neg += 1
    return int(round(total / (unit / 8.0))), n_pos - n_neg



def q_tile_dissolve(sf_dir: str):
    """Distributed raster↔vector dissolve of all tile footprints,
    summarized by three independently-derived invariants the DuckDB
    oracle replays from the footprint geometry alone: covered-cell
    count, total polygon area in exact eighth-cell units (marching
    squares preserves Σ case-area exactly), and the Euler number
    (#polygons − #holes == (Q1 − Q3 + 2·Q_diag)/4 for the 4-connected
    saddle convention). Per-polygon ring detail stays golden-tested in
    tests/test_join.py."""
    from geotile.geom import cells as cellmod
    from geotile.ops.join import DEFAULT_JOIN_RES
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    covered, polys = dissolve_tile_footprints(ds)
    n_cells = covered.count()
    dlon, dlat = cellmod.cell_size_degrees(DEFAULT_JOIN_RES)
    rings = [o for o, _ in polys] + [h for _, hs in polys for h in hs]
    area_octo, euler = _ring_stats(rings, dlon * dlat)
    return pd.DataFrame(
        {"n_cells": [int(n_cells)], "area_octo": [area_octo], "euler": [euler]}
    )



def q_image_invariants(sf_dir: str):
    """Per-row payload invariants (decode + phash) on a sample."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1000)
    return ds.map_batches(
        ImageDecodeStage, fn_constructor_kwargs={"verify": True},
        batch_format="pyarrow", batch_size=256, concurrency=2,
    ).select_columns(["image_id", "phash_ok"])



def q_image_channel_histogram(sf_dir: str):
    """Multimodal feature-stats: global per-channel 16-bin intensity
    histogram over the first 1024 images (deterministic prefix — the
    table is image_id-ordered, same convention as image_invariants).
    The actor-pool stage pre-aggregates per batch (48 partial rows per
    batch leave the stage, never pixels), so the shuffle is constant-
    size regardless of corpus scale. Oracle: generator-replay sidecar —
    the expected histogram is rebuilt from synth.pixel_pattern (the
    ground-truth generator, independent of the PNG decode path) with a
    different counting kernel (np.unique vs bincount)."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)
    part = ds.map_batches(
        ImageHistogramStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )
    return _rename(
        part.groupby(["channel", "bin"]).sum("cnt"), ["channel", "bin", "cnt"]
    )



def q_gtfs_envelope(sf_dir: str):
    """A1 envelope over the fixture's route lines. The feature's bbox
    member is UNROUNDED (reference envelope.ts keeps it raw), so the
    four values are bit-identical to SQL min/max over the shapes
    parquet (the fixture's line features are all shapes-path)."""
    from geotile.config import PipelineConfig
    from geotile.formats import fmt_envelope

    f = fmt_envelope(_fixture_ctx(), PipelineConfig(coordinate_precision=5), {})
    w, s, e, n = f["bbox"]
    return pd.DataFrame({"west": [w], "south": [s], "east": [e], "north": [n]})



def q_gtfs_convex_hull(sf_dir: str):
    """A2 convex hull ring over the fixture stop points, UNSIMPLIFIED
    (RDP/rounding are separately golden-tested; raw hull vertices are
    gathered input doubles, so the SQL replay — strict-vertex test +
    polar ordering — matches bit-exactly)."""
    from geotile.ops.derive import convex_feature
    from geotile.ops.stops import stop_points

    ctx = _fixture_ctx()
    f = convex_feature(stop_points(ctx, {}), ctx.agency_name)
    ring = f["geometry"]["coordinates"][0]
    return pd.DataFrame(
        {"idx": range(len(ring)), "lon": [p[0] for p in ring], "lat": [p[1] for p in ring]}
    )



def _shoelace(ring) -> float:
    a = np.asarray(ring, dtype=np.float64)
    return 0.5 * abs(float(np.sum(a[:-1, 0] * a[1:, 1] - a[1:, 0] * a[:-1, 1])))



def _route_line_parts(ctx) -> dict[str, list[np.ndarray]]:
    """route_id → raw centerline parts from the fixture's line features
    (the exact arrays fmt_lines_buffer buffers)."""
    from geotile.ops.lines import route_lines

    out: dict[str, list[np.ndarray]] = {}
    for f in route_lines(ctx, {}) or []:
        g = f["geometry"]
        parts = [g["coordinates"]] if g["type"] == "LineString" else g["coordinates"]
        out[f["properties"]["route_id"]] = [np.asarray(p, np.float64) for p in parts]
    return out



def q_gtfs_buffer_stats(sf_dir: str):
    """G1 line buffers with a full raster replay oracle: per route, the
    distance-mask pixel count, exact eighth-cell polygon area, and
    Euler number — the DuckDB side re-derives the SAME filled pixel set
    from the centerline segments (clamped point-to-segment distance ≤ r
    in identical IEEE order) and the area/Euler from window cases, so a
    bug anywhere in distance_mask / trace_mask flips a value."""
    from geotile.config import PipelineConfig
    from geotile.geom.buffer import buffer_raster
    from geotile.geom.raster import trace_mask

    ctx = _fixture_ctx()
    cfg = PipelineConfig()
    parts_by_route = _route_line_parts(ctx)
    rows = []
    for rid in sorted(parts_by_route):
        lines = parts_by_route[rid]
        mask, grid, _m, _lon0, _lat0, _mx, _my = buffer_raster(
            lines, cfg.buffer_size_meters, cfg.raster_cells_per_radius
        )
        area_octo, euler = _ring_stats(trace_mask(mask, grid), grid.step * grid.step)
        rows.append(
            {"route_id": rid, "n_pixels": int(mask.sum()),
             "area_octo": area_octo, "euler": euler}
        )
    return pd.DataFrame(rows)



def _dissolved_input_feats(ctx, cfg):
    """The simplified buffered stop discs fmt_stops_dissolved feeds into
    the raster union (buffer → simplify, reference order preserved)."""
    from geotile.formats import _simplify
    from geotile.ops.derive import buffer_feature
    from geotile.ops.stops import stop_features

    buffered = [
        buffer_feature(f, cfg.buffer_size_meters, cfg.raster_cells_per_radius)
        for f in stop_features(ctx, {})
    ]
    return _simplify({"type": "FeatureCollection", "features": buffered}, cfg)["features"]



def q_gtfs_dissolved_stats(sf_dir: str):
    """G3 raster-union dissolve with a full scanline replay oracle: the
    DuckDB side re-fills the SAME pixel grid from the disc-edge sidecar
    (even-odd parity, identical IEEE crossing arithmetic) and re-derives
    area/Euler from window cases; the engine derives them from the
    traced contours."""
    from geotile.config import PipelineConfig
    from geotile.geom.raster import trace_mask
    from geotile.ops.derive import dissolve_raster

    ctx = _fixture_ctx()
    cfg = PipelineConfig(coordinate_precision=5)
    feats = _dissolved_input_feats(ctx, cfg)
    cell_m = cfg.buffer_size_meters / cfg.raster_cells_per_radius
    mask, grid, _metric, _lon0, _lat0, _mx, _my = dissolve_raster(feats, cell_m)
    area_octo, euler = _ring_stats(trace_mask(mask, grid), grid.step * grid.step)
    return pd.DataFrame(
        {"n_pixels": [int(mask.sum())], "area_octo": [area_octo], "euler": [euler]}
    )



def q_doc_quality(sf_dir: str):
    from battery.ops.text import doc_stats

    out = doc_stats(_read(sf_dir, "documents", ["doc_id", "text"]))
    return out.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"], "quality_e6": _e(t["quality"], 1_000_000)}
        ),
        batch_format="pyarrow",
    )



def q_image_resize(sf_dir: str):
    """Actor-pool resize stage invariants: output dims are 8×8 raw, and
    the area-mean of the resized pixels equals the area-mean of the
    decoded original within quantization (±1 grey level per channel) —
    the engine computes the flag, the oracle states TRUE per row."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(256)
    resized = ds.map_batches(
        ImageResizeStage, fn_constructor_kwargs={"out_w": 8, "out_h": 8},
        batch_format="pyarrow", batch_size=128, concurrency=2,
    )

    def check(t: pa.Table) -> pa.Table:
        dec = ImageDecodeStage(verify=False).decoders
        ok = []
        from geotile.synth import image_index, image_size, pixel_pattern

        idx = image_index(t["image_id"])
        for i, (b, w, h) in enumerate(
            zip(t["bytes"].to_pylist(), t["w"].to_pylist(), t["h"].to_pylist())
        ):
            small = dec["raw"](b, w, h).astype(np.float64)
            ow, oh = image_size(np.array([idx[i]]))
            orig = pixel_pattern(np.array([idx[i]], np.uint64), int(ow[0]), int(oh[0]))[0]
            # resize crops to a multiple of the output dims, so compare
            # against the same cropped window's mean
            fy, fx = int(oh[0]) // 8, int(ow[0]) // 8
            win = orig[: fy * 8, : fx * 8].astype(np.float64)
            ok.append(bool(np.all(np.abs(small.mean((0, 1)) - win.mean((0, 1))) <= 1.0)))
        return pa.table(
            {
                "image_id": t["image_id"],
                "w": t["w"].cast(pa.int64()),
                "h": t["h"].cast(pa.int64()),
                "mean_ok": pa.array(ok),
            }
        )

    return resized.map_batches(check, batch_format="pyarrow", batch_size=128)



def q_image_embeddings(sf_dir: str):
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(512)
    out = ds.map_batches(
        ImageEmbedStage, fn_constructor_kwargs={"dim": 64},
        batch_format="pyarrow", batch_size=128, concurrency=2,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "image_id": t["image_id"],
                "dim": pa.array(
                    np.asarray([len(v) for v in t["embedding"].to_pylist()], dtype=np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    )



def q_embedding_buckets(sf_dir: str):
    from battery.ops.ann import hyperplane_buckets

    ds = hyperplane_buckets(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), n_planes=8)
    out = ds.groupby("bucket").count()
    return out.map_batches(lambda t: t.rename_columns(["bucket", "n"]), batch_format="pyarrow")



def q_gtfs_stop_features(sf_dir: str):
    """GTFS stop→route assignment summarized (parity gate is the golden
    pytest suite; this exposes it to the driver as rows)."""
    from geotile.ops.stops import stop_features

    feats = stop_features(_fixture_ctx(), {})
    return pd.DataFrame(
        {
            "stop_id": [f["properties"]["stop_id"] for f in feats],
            "n_routes": [
                len(f["properties"]["routes"]) if isinstance(f["properties"]["routes"], list) else 0
                for f in feats
            ],
        }
    )



def q_gtfs_line_features(sf_dir: str):
    """O1-O3 line assembly with an ORDERED-coordinate replay: per route
    emit part/point counts plus a position-weighted coordinate checksum
    Σ (i+1)·(lon_i + lat_i) over the flattened coordinates in emitted
    order (parts by shape_id, points by shape_pt_sequence) — any
    reordering, drop, or duplication shifts the checksum."""
    from geotile.ops.lines import route_lines

    feats = route_lines(_fixture_ctx(), {}) or []
    rows = []
    for f in feats:
        parts = f["geometry"]["coordinates"]
        flat = np.asarray([p for part in parts for p in part], dtype=np.float64)
        s = float(np.sum((np.arange(len(flat)) + 1.0) * (flat[:, 0] + flat[:, 1])))
        rows.append(
            {
                "route_id": f["properties"]["route_id"],
                "n_parts": len(parts),
                "n_points": len(flat),
                "checksum_e2": int(round(s * 100.0)),
            }
        )
    return pd.DataFrame(rows)



# ---------------------------------------------------------------------------
# registry + oracle SQL
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# as-of join / exact similarity join / exact quantiles (round 3)
# ---------------------------------------------------------------------------

def q_asof_clicks_views(sf_dir: str):
    """Backward as-of join: every click event picks the LATEST strictly
    earlier view event of the same user (hash-co-partitioned
    merge_asof — relational.asof_join); clicks with no prior view are
    dropped so the output is null-free for the driver hash."""
    from battery.ops.relational import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def split(kind):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], kind)).drop_columns(
                ["event_type"]
            )

        return fn

    clicks = ev.map_batches(split("click"), batch_format="pyarrow")
    views = ev.map_batches(split("view"), batch_format="pyarrow")
    j = asof_join(clicks, views, key="user_id", ts="ts")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_id_r"].notna()]
        lts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rts = df["ts_r"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy().astype(np.int64),
                "prior_view_id": df["event_id_r"].to_numpy().astype(np.int64),
                "gap_us": lts - rts,
            }
        )

    return j.map_batches(finish, batch_format="pandas")



def q_jaccard_pairs_docs(sf_dir: str):
    """EXACT word-4-gram Jaccard set-similarity join at tau = 1/2
    (prefix-filtered PPJoin — dedup.ngram_jaccard_pairs); integer
    inter/union counts so the SQL replay is bit-deterministic."""
    from battery.ops.dedup import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(docs, k=4, tau_num=1, tau_den=2)



def q_top_terms_docs(sf_dir: str):
    """Global top-20 terms by corpus frequency (inverted-index-style):
    per-batch Arrow value_counts combiner (one (token, n) row per
    distinct token per batch) → groupby(token).sum — the only shuffle,
    moving vocabulary-scale partials — → partial top-k per block →
    one tiny final reduce. Tokenization = split on single spaces with
    empties dropped, mirroring SQL string_split exactly (NOT
    utf8_split_whitespace, which merges runs)."""
    ds = _read(sf_dir, "documents", ["text"])
    k = 20

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table(
            {"token": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    def top_of(t: pa.Table) -> pa.Table:
        tok = t["token"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -n))[:k]  # (n desc, token asc) — tie-stable
        return pa.table({"token": pa.array(tok[order]), "n": pa.array(n[order])})

    summed = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .sum("n")
        .map_batches(
            lambda t: t.rename_columns(["token", "n"]), batch_format="pyarrow"
        )
    )
    cands = summed.map_batches(top_of, batch_format="pyarrow")
    return cands.repartition(1).map_batches(top_of, batch_format="pyarrow")



def q_followup_events(sf_dir: str):
    """Keyed band RANGE join (relational.band_join): every (click,
    same-user event) pair with 0 < Δts <= 1 h, aggregated per click to
    (n_follow, min_gap_us); 1-hour band. Completes the custom-operator trio the
    engine adds over Ray Data's joins: as-of (1-to-1 latest), windowed
    aggregate, band range join (1-to-many)."""
    from battery.ops.relational import band_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    pairs = band_join(clicks, ev, key="user_id", ts="ts", max_delta_us=3_600_000_000)

    def gap(df: pd.DataFrame) -> pd.DataFrame:
        lt = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rt = df["ts_r"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(np.float64).astype(np.int64),
                "gap_us": rt - lt,
            }
        )

    from ray.data.aggregate import Count, Min

    agg = (
        pairs.map_batches(gap, batch_format="pandas")
        .groupby("event_id")
        .aggregate(Count(), Min("gap_us"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "n_follow": t["count()"].cast(pa.int64()),
                "min_gap_us": t["min(gap_us)"].cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")



def q_tfidf_docs(sf_dir: str):
    """Top-5 TF-IDF terms per document (text.tfidf_top_terms): the
    vocabulary-scale DF groupby is the only shuffle; the repeated
    (df >= 2) vocabulary broadcasts Heaps'-law small and the scoring /
    per-doc top-k pass is batch-local. IDF is the log-free rational
    variant (1e6 * N) // df so scores are exact int64 on both engines."""
    from battery.ops.text import tfidf_top_terms

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(docs, k=5)



def q_dup_span_docs(sf_dir: str):
    """Per-doc duplicated 8-gram span counts (dedup.dup_ngram_spans) —
    the exact-substring-dedup signal (Lee et al.): distinct-gram
    postings → gram-bucket co-partition (df + per-doc partials in one
    vectorized pass) → doc-scale sum."""
    from battery.ops.dedup import dup_ngram_spans

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return dup_ngram_spans(docs, k=8)



def q_rolling_window_user(sf_dir: str):
    """ROWS-frame window functions (relational.grouped_rolling): 3-row
    rolling sum of value + lag(event_id) per user ordered by (ts,
    event_id). Values quantized to an e4 integer lattice BEFORE the
    rolling sum so prefix-sum association is exact (float rolling sums
    are association-sensitive)."""
    from battery.ops.relational import grouped_rolling

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def quant(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return t.drop_columns(["value"]).append_column("v_e4", v)

    rolled = grouped_rolling(
        ev.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True),
        key="user_id",
        order_cols=["ts", "event_id"],
        val="v_e4",
        frame=3,
        lag_col="event_id",
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "roll_sum_e4": t["roll_sum"].cast(pa.int64()),
                "roll_n": t["roll_n"].cast(pa.int64()),
                "prev_event_id": t["prev_event_id"].cast(pa.int64()),
            }
        )

    return rolled.map_batches(finish, batch_format="pyarrow")



def q_full_outer_customer_orders(sf_dir: str):
    """FULL OUTER co-partitioned join (relational.bucketed_join
    how='outer'): per-custkey open-order counts vs finished-order
    counts — custkeys with only one status survive from either side
    (nulls coalesced to 0 for the hash gate)."""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def side(status: str, key: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["o_orderstatus"], status))
            g = t.group_by("o_custkey").aggregate([([], "count_all")])
            return pa.table(
                {key: g["o_custkey"].cast(pa.int64()),
                 f"n_{key}": g["count_all"].cast(pa.int64())}
            )

        return fn

    # per-batch combiner then a custkey-scale sum — the co-partition
    # join's two inputs are already aggregate-sized
    # custkey-scale aggregates, materialized so the join's schema probe
    # doesn't execute each plan a second time (bucketed_join contract)
    o = (
        orders.map_batches(side("O", "ck_o"), batch_format="pyarrow")
        .groupby("ck_o").sum("n_ck_o")
        .map_batches(lambda t: t.rename_columns(["ck_o", "n_open"]),
                     batch_format="pyarrow")
        .materialize()
    )
    f = (
        orders.map_batches(side("F", "ck_f"), batch_format="pyarrow")
        .groupby("ck_f").sum("n_ck_f")
        .map_batches(lambda t: t.rename_columns(["ck_f", "n_fin"]),
                     batch_format="pyarrow")
        .materialize()
    )
    joined = bucketed_join(o, f, "ck_o", "ck_f", how="outer")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["ck_o"].where(df["ck_o"].notna(), df["ck_f"])
        return pd.DataFrame(
            {
                "custkey": ck.to_numpy(np.float64).astype(np.int64),
                "n_open": df["n_open"].fillna(0).to_numpy(np.float64).astype(np.int64),
                "n_fin": df["n_fin"].fillna(0).to_numpy(np.float64).astype(np.int64),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")



def q_rollup_docs(sf_dir: str):
    """Multi-level GROUP BY ROLLUP(lang, source) in one streaming pass
    (relational.rollup_aggregate): the per-batch combiner derives every
    rollup level from the detail PARTIALS, so rows are read once and
    the single shuffle moves (levels x groups) partial rows."""
    from battery.ops.relational import rollup_aggregate

    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    return rollup_aggregate(docs, keys=["lang", "source"], sum_col="n_chars")



def q_pivot_docs(sf_dir: str):
    """PIVOT: per-source language distribution as wide columns (one
    conditional-count column per language). One pass: the per-batch
    combiner emits (source, lang) counts, a group-cardinality groupby
    sums, and the widening happens on the aggregate — never on rows."""
    langs = ["de", "en", "es", "fr", "zh"]
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "lang"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g["source"],
                "lang": g["lang"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    summed = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "lang"])
        .sum("n")
    )

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        # one group = one source (groupby key), rows = its langs
        src = df["source"].iloc[0]
        cnt = dict(zip(df["lang"], df["sum(n)"]))
        return pd.DataFrame(
            {
                "source": [src],
                **{f"n_{l}": [int(cnt.get(l, 0))] for l in langs},
            }
        )

    return summed.groupby("source").map_groups(widen, batch_format="pandas")



def q_grouped_topk_users(sf_dir: str):
    """Grouped top-k (top-3 users by total value per event_type):
    two-level aggregate — per-batch (type, user) partial sums, one
    pair-cardinality groupby, per-block partial top-3, tiny final
    per-group selection. No global sort; value on the e4 integer
    lattice so sums replay bit-exactly."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])
    K = 3

    def partial(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        t = pa.table(
            {"event_type": t["event_type"], "user_id": t["user_id"], "v": v}
        )
        g = t.group_by(["event_type", "user_id"]).aggregate([("v", "sum")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "user_id": g["user_id"],
                "sum_v_e4": g["v_sum"],
            }
        )

    summed = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "user_id"])
        .sum("sum_v_e4")
        .map_batches(
            lambda t: t.rename_columns(["event_type", "user_id", "sum_v_e4"]),
            batch_format="pyarrow",
        )
    )

    def topk(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sv = t["sum_v_e4"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, inv = np.unique(et, return_inverse=True)
        order = np.lexsort((uid, -sv, inv))
        inv_s = inv[order]
        starts = np.flatnonzero(np.r_[True, inv_s[1:] != inv_s[:-1]])
        run_id = np.cumsum(np.r_[True, inv_s[1:] != inv_s[:-1]]) - 1
        keep = order[(np.arange(len(inv_s)) - starts[run_id]) < K]
        keep = np.sort(keep)
        return pa.table(
            {
                "event_type": pa.array(et[keep]),
                "user_id": pa.array(uid[keep]),
                "sum_v_e4": pa.array(sv[keep]),
            }
        )

    # per-block partial top-3 (combiner), then one tiny final selection
    cands = summed.map_batches(topk, batch_format="pyarrow")
    return cands.repartition(1).map_batches(topk, batch_format="pyarrow")



def q_corr_moments_docs(sf_dir: str):
    """Algebraic aggregate family beyond sum/count: per-language
    correlation MOMENT SUMS of (n_tokens, n_chars) — n, Σx, Σy, Σxy,
    Σx², Σy² — everything any covariance/correlation/regression needs,
    kept on the integer lattice so partial sums merge associatively
    and the SQL replay is exact (the float corr itself is a trivial
    driver-side epilogue at these magnitudes)."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        x = pc.list_value_length(pc.split_pattern(t["text"], " ")).cast(pa.int64())
        y = pc.utf8_length(t["text"]).cast(pa.int64())
        tt = pa.table(
            {
                "lang": t["lang"],
                "x": x,
                "y": y,
                "xy": pc.multiply(x, y),
                "x2": pc.multiply(x, x),
                "y2": pc.multiply(y, y),
            }
        )
        g = tt.group_by("lang").aggregate(
            [([], "count_all"), ("x", "sum"), ("y", "sum"),
             ("xy", "sum"), ("x2", "sum"), ("y2", "sum")]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "n": g["count_all"].cast(pa.int64()),
                "sum_x": g["x_sum"],
                "sum_y": g["y_sum"],
                "sum_xy": g["xy_sum"],
                "sum_x2": g["x2_sum"],
                "sum_y2": g["y2_sum"],
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .sum(["n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"])
    )
    return _rename(out, ["lang", "n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"])



def q_ntile_events(sf_dir: str):
    """ntile(4) rank bucketing per user (relational.grouped_ntile) —
    completes the window-function family (tumbling/sliding time
    windows, ROWS-frame rolling, lag, row_number-style top-k, ntile)."""
    from battery.ops.relational import grouped_ntile

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = grouped_ntile(ev, key="user_id", order_cols=["ts", "event_id"], n_tiles=4)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "tile": t["tile"].cast(pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")



def _user_type_flags(sf_dir: str, min_value: float | None = None):
    """Distinct-user flag table for the set-op queries: one row per
    user who clicked or purchased (optionally only counting events with
    value > ``min_value``), with per-batch distinct combiner → one
    user-scale groupby(max) — set ops on flag aggregates, the shuffle
    never moves event rows."""
    cols = ["user_id", "event_type"] + (["value"] if min_value is not None else [])
    ds = _read(sf_dir, "events", cols)

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], pa.array(["click", "purchase"]))
        if min_value is not None:
            keep = pc.and_(keep, pc.greater(t["value"], pa.scalar(float(min_value))))
        t = t.filter(keep)
        tt = pa.table(
            {
                "user_id": t["user_id"],
                "c": pc.equal(t["event_type"], "click").cast(pa.int64()),
                "p": pc.equal(t["event_type"], "purchase").cast(pa.int64()),
            }
        )
        g = tt.group_by("user_id").aggregate([("c", "max"), ("p", "max")])
        return pa.table(
            {"user_id": g["user_id"], "c": g["c_max"], "p": g["p_max"]}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .max(["c", "p"])
        .map_batches(
            lambda t: t.rename_columns(["user_id", "c", "p"]),
            batch_format="pyarrow",
        )
    )



def q_intersect_users(sf_dir: str):
    """Set INTERSECT: users with >=1 click AND >=1 purchase (distinct
    flag aggregate, no row-stream self-join)."""
    flags = _user_type_flags(sf_dir)
    return flags.map_batches(
        lambda t: pa.table(
            {
                "user_id": t.filter(
                    pc.and_(pc.equal(t["c"], 1), pc.equal(t["p"], 1))
                )["user_id"].cast(pa.int64())
            }
        ),
        batch_format="pyarrow",
    )



def q_except_users(sf_dir: str):
    """Set EXCEPT: users with a high-value (>200) click but no
    high-value purchase. (The unthresholded sets are identical in this
    dense synth — every user does every event type — so the EXCEPT is
    exercised on sparse subsets where it has a non-empty answer.)"""
    flags = _user_type_flags(sf_dir, min_value=200.0)
    return flags.map_batches(
        lambda t: pa.table(
            {
                "user_id": t.filter(
                    pc.and_(pc.equal(t["c"], 1), pc.equal(t["p"], 0))
                )["user_id"].cast(pa.int64())
            }
        ),
        batch_format="pyarrow",
    )



def q_right_join_orders_customer(sf_dir: str):
    """RIGHT OUTER co-partitioned join: per-custkey order counts RIGHT
    JOIN customer — every customer survives, order-less ones at 0.
    (Dimension-side broadcast would also work at this cardinality; the
    query exists to drive bucketed_join's right-outer path, the
    both-sides-large form.)"""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])

    def cnt(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.table(
            {"ok": g["o_custkey"].cast(pa.int64()),
             "n": g["count_all"].cast(pa.int64())}
        )

    agg = (
        orders.map_batches(cnt, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ok").sum("n")
        .map_batches(lambda t: t.rename_columns(["ok", "n"]), batch_format="pyarrow")
        .materialize()  # custkey-scale; join's schema probe would
        # otherwise execute the aggregate a second time
    )
    joined = bucketed_join(agg, cust, "ok", "c_custkey", how="right")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "custkey": df["c_custkey"].to_numpy(np.float64).astype(np.int64),
                "n_orders": df["n"].fillna(0).to_numpy(np.float64).astype(np.int64),
            }
        )

    return joined.map_batches(finish, batch_format="pandas")



def q_funnel_users(sf_dir: str):
    """Ordered event-sequence (funnel) matching: users who did
    view → click → purchase in strict time order, with each stage's
    earliest qualifying timestamp. ONE shuffle (hash co-partition by
    user), then every user of a bucket is resolved in a single
    vectorized pass — per-stage min-reduce via np.minimum.at, next
    stage filtered by the previous stage's per-user time. No per-user
    Python, no window sort."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    STAGES = ("view", "click", "purchase")

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        out_cols = ["user_id", "t_view_us", "t_click_us", "t_purchase_us"]
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = df["event_type"].to_numpy()
        users = np.unique(u)
        uidx = np.searchsorted(users, u)
        prev = np.full(len(users), -(1 << 62), dtype=np.int64)  # stage-0 gate
        stage_ts = []
        alive = np.ones(len(users), dtype=bool)
        for stage in STAGES:
            cur = np.full(len(users), np.iinfo(np.int64).max, dtype=np.int64)
            m = (et == stage) & (ts > prev[uidx])
            np.minimum.at(cur, uidx[m], ts[m])
            alive &= cur != np.iinfo(np.int64).max
            stage_ts.append(cur)
            prev = cur
        return pd.DataFrame(
            {
                "user_id": users[alive],
                "t_view_us": stage_ts[0][alive],
                "t_click_us": stage_ts[1][alive],
                "t_purchase_us": stage_ts[2][alive],
            }
        )

    return (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(funnel, batch_format="pandas")
    )



def q_quantiles_cont_events(sf_dir: str):
    """percentile_cont-style interpolated quantiles (quantile.
    quantiles_cont): bracketing order statistics + exact rational
    fraction (the float interpolation itself is a scalar epilogue, kept
    out of the compared columns so both engines stay bit-exact)."""
    from battery.ops.quantile import quantiles_cont

    ev = _read(sf_dir, "events", ["value"])
    return quantiles_cont(ev, "value", q_pcts=(50, 90), max_pull=2000)



def q_phash_neighbor_stats(sf_dir: str):
    """Multimodal near-dup on the IMAGE side: perceptual-hash Hamming
    join at distance <= 1 (dedup.hamming_pairs, exact 2-band pigeonhole
    — cap=None so a SQL band-join replay matches row for row), reduced
    to the near-dup DEGREE HISTOGRAM (n_neighbors -> n_images). The
    bytes column never leaves storage — the read prunes to
    (image_id, phash)."""
    from battery.ops.dedup import hamming_pairs
    from geotile.ops.tiles import read_image_table
    from geotile.synth import image_index

    ds = read_image_table(_image_dir_for(sf_dir), columns=["image_id", "phash"])

    def to_int_id(t: pa.Table) -> pa.Table:
        return pa.table(
            {"img": pa.array(image_index(t["image_id"]).astype(np.int64)),
             "phash": t["phash"]}
        )

    ids = ds.map_batches(to_int_id, batch_format="pyarrow", zero_copy_batch=True)
    pairs = hamming_pairs(ids, "img", "phash", max_hamming=1, cap=None)

    def degrees(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [t["a"].to_numpy(zero_copy_only=False),
             t["b"].to_numpy(zero_copy_only=False)]
        ).astype(np.int64)
        u, c = np.unique(both, return_counts=True)
        return pa.table({"img": pa.array(u), "d": pa.array(c.astype(np.int64))})

    deg = (
        pairs.map_batches(degrees, batch_format="pyarrow")
        .groupby("img").sum("d")
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        d = t["sum(d)"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(d, return_counts=True)
        return pa.table(
            {"n_neighbors": pa.array(u), "n_images": pa.array(c.astype(np.int64))}
        )

    out = (
        deg.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("n_neighbors").sum("n_images")
    )
    return _rename(out, ["n_neighbors", "n_images"])



def q_grouped_quantiles_events(sf_dir: str):
    """Exact per-group p50/p95 of events.value by event_type — the
    grouped variant of the histogram-refinement selection (ops/
    quantile.grouped_quantiles): one streaming pass per round covers
    every group, no per-group sort, no all-to-all."""
    from battery.ops.quantile import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    return grouped_quantiles(
        ev, "value", "event_type", q_pcts=(50, 95), max_pull=2000
    )



def q_stratified_sample_events(sf_dir: str):
    """Deterministic stratified sample: the 100 events with the
    smallest Knuth hash per event_type (reproducible, shard-stable —
    the per-batch partial top-k is the combiner, the per-group final
    top-k is the only shuffle and moves ≤ 100×batches rows)."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "user_id"])
    N = 100

    def partial(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ids * 2654435761 % 4294967296
        et = t["event_type"].to_numpy(zero_copy_only=False)
        codes, inv = np.unique(et, return_inverse=True)
        order = np.lexsort((ids, h, inv))
        inv_s = inv[order]
        # first N rows of each group run
        starts = np.flatnonzero(np.r_[True, inv_s[1:] != inv_s[:-1]])
        run_id = np.cumsum(np.r_[True, inv_s[1:] != inv_s[:-1]]) - 1
        offset = np.arange(len(inv_s)) - starts[run_id]
        keep = order[offset < N]
        return t.take(pa.array(np.sort(keep)))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["event_id"].to_numpy().astype(np.int64)
        h = ids * 2654435761 % 4294967296
        order = np.lexsort((ids, h))[:N]
        return df.iloc[np.sort(order)][["event_id", "event_type", "user_id"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(final, batch_format="pandas")
    )



def q_dup_clusters_embeddings(sf_dir: str):
    """Near-dup pair generation → duplicate CLUSTERS: the embedding
    cosine pairs (tau = 0.35, the oracle-checked exact block-pair join)
    fed through distributed connected components (graph.
    connected_components, hash-to-min + pointer jumping). Output
    (node, cluster_id = min vec_id in component) — the canonical-
    representative election every dedup pipeline ends with."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import connected_components

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35
    )
    # n_buckets sizes the co-partition to the EDGE volume (pair graphs
    # here are dimension-scale); raise it proportionally for corpus-
    # scale edge lists
    return connected_components(
        pairs.select_columns(["a", "b"]), "a", "b", n_buckets=8
    )



def q_quantiles_events(sf_dir: str):
    """Exact p25/p50/p75/p95/p99 of events.value via iterative histogram
    refinement (ops/quantile.exact_quantiles) — no global sort; the
    selected elements are bit-identical to a rank-based SQL replay."""
    from battery.ops.quantile import exact_quantiles

    ev = _read(sf_dir, "events", ["value"])
    return exact_quantiles(ev, "value", max_pull=2000)



_WEEK_US = 604_800_000_000  # 7 * 86400 * 1e6



def q_cohort_retention_users(sf_dir: str):
    """Cohort retention matrix: users bucketed by first-seen week
    (cohort), counted once per (cohort, active-week offset). ONE hash
    co-partition by user; inside a bucket everything is vectorized —
    per-user first week via np.minimum.at, distinct (user, week) via
    one np.unique over packed keys — then a tiny (cohorts x offsets)
    groupby sums the per-bucket partials. The classic two-pass
    first-touch + self-join collapses to a single shuffle because each
    user's rows are co-located."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    out_cols = ["cohort_week", "week_offset", "n_users"]

    def retain(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        u = df["user_id"].to_numpy(np.int64)
        w = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // _WEEK_US
        users, uidx = np.unique(u, return_inverse=True)
        first = np.full(len(users), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, uidx, w)
        offs = w - first[uidx]  # >= 0 by construction
        uw = np.unique(uidx * 1_000_000 + offs)  # distinct (user, offset)
        cw = first[uw // 1_000_000]
        pk, cnt = np.unique(cw * 1_000_000 + uw % 1_000_000, return_counts=True)
        return pd.DataFrame(
            {
                "cohort_week": pk // 1_000_000,
                "week_offset": pk % 1_000_000,
                "n_users": cnt.astype(np.int64),
            }
        )

    partials = (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(retain, batch_format="pandas")
    )
    return _rename(
        partials.groupby(["cohort_week", "week_offset"]).sum("n_users"),
        out_cols,
    )



def q_transition_counts_events(sf_dir: str):
    """Event-sequence transition (Markov bigram) counts: consecutive
    event_type pairs per user under the total order (ts, event_id).
    ONE co-partition by user; per bucket a single lexsort + shifted
    compare builds every adjacent pair, np.unique over packed type
    codes counts them — no window function, no per-user Python. Final
    groupby is type-pair cardinality (~tens of rows)."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out_cols = ["prev_type", "next_type", "n"]

    def trans(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) < 2:
            return pd.DataFrame(
                {"prev_type": pd.Series(dtype=str),
                 "next_type": pd.Series(dtype=str),
                 "n": pd.Series(dtype=np.int64)}
            )
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        types, code = np.unique(df["event_type"].to_numpy(), return_inverse=True)
        order = np.lexsort((eid, ts, u))
        u, code = u[order], code[order]
        same = u[1:] == u[:-1]
        k = len(types)
        pair, cnt = np.unique(
            code[:-1][same] * k + code[1:][same], return_counts=True
        )
        return pd.DataFrame(
            {
                "prev_type": types[pair // k],
                "next_type": types[pair % k],
                "n": cnt.astype(np.int64),
            }
        )

    partials = (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(trans, batch_format="pandas")
    )
    return _rename(partials.groupby(["prev_type", "next_type"]).sum("n"), out_cols)



def q_mode_event_type_user(sf_dir: str):
    """MODE per group (most frequent event_type per user, ties broken
    lexicographically) — SQL's row_number-over-count-desc idiom as a
    two-level aggregate: per-batch Arrow (user, type) partial counts,
    one co-partition shuffle of partials, then a vectorized per-bucket
    argmax (np.bincount sum + np.maximum.at max + np.minimum.at
    tie-break). Nothing per-user runs in Python."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"].cast(pa.int64()),
                "event_type": g["event_type"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    out_cols = ["user_id", "mode_type", "n_events"]

    def mode(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "mode_type": pd.Series(dtype=str),
                 "n_events": pd.Series(dtype=np.int64)}
            )
        u = df["user_id"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        types, code = np.unique(df["event_type"].to_numpy(), return_inverse=True)
        users, uidx = np.unique(u, return_inverse=True)
        k = len(types)
        # compact O(present pairs) reduction — a dense users×k matrix
        # would be per-bucket memory proportional to user cardinality
        uk, inv = np.unique(uidx * k + code, return_inverse=True)
        tot = np.zeros(len(uk), dtype=np.int64)
        np.add.at(tot, inv, n)  # sum split partials per (user, type)
        uu = uk // k
        new = np.r_[True, uu[1:] != uu[:-1]]
        starts = np.flatnonzero(new)
        runid = np.cumsum(new) - 1
        mx = np.maximum.reduceat(tot, starts)
        # first index achieving the run max — uk ascending means code
        # ascending within a user, so "first" = lexicographic-min type
        cand = np.where(tot == mx[runid], np.arange(len(uk)), np.iinfo(np.int64).max)
        sel = np.minimum.reduceat(cand, starts)
        return pd.DataFrame(
            {
                "user_id": users[uu[sel]],
                "mode_type": types[uk[sel] % k],
                "n_events": tot[sel],
            }
        )

    return (
        _with_bucket(
            ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "user_id",
            32,
        )
        .groupby("bucket")
        .map_groups(mode, batch_format="pandas")
    )



def q_cube_docs(sf_dir: str):
    """GROUP BY CUBE(lang, source) — every grouping set (detail,
    lang-only, source-only, grand total) from one streaming pass
    (relational.cube_aggregate); ``gid`` replays SQL's
    grouping(lang) + 2*grouping(source)."""
    from battery.ops.relational import cube_aggregate

    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    return cube_aggregate(docs, keys=["lang", "source"], sum_col="n_chars")



def q_skyline_orders(sf_dir: str):
    """2-D skyline / Pareto frontier: orders not dominated on
    (maximize o_totalprice, minimize o_orderdate). Per-block local
    frontier (dominance is transitive, so local pruning is lossless),
    then one tiny final pass — the SQL replay is the quadratic
    NOT EXISTS dominance test; the engine does it in
    O(n log n) + O(frontier)."""
    from battery.ops.relational import skyline

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_totalprice": t["o_totalprice"],
                "o_date_us": t["o_orderdate"].cast(pa.int64()),
            }
        )

    us = orders.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
    return skyline(us, max_col="o_totalprice", min_col="o_date_us")



def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension feature statistics over the embedding column
    (UNNEST + GROUP BY dim in SQL): min / max / positive-count / count
    per dimension. The list column is flattened ZERO-COPY to one
    (rows x dim) float32 matrix per batch and reduced with one numpy
    pass; the shuffle moves only dim-cardinality partial rows. min and
    max are order-independent (bit-exact across engines); the counts
    are integers — no float summation anywhere."""
    from ray.data.aggregate import Max, Min, Sum

    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "vmin": pa.array([], pa.float64()),
                    "vmax": pa.array([], pa.float64()),
                    "n_pos": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        vals = col.values.to_numpy(zero_copy_only=False)
        m = vals.reshape(n, len(vals) // n)
        d = m.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64)),
                # float32 -> float64 is exact; DuckDB side CASTs to
                # DOUBLE the same way, so hashes stay bit-identical
                "vmin": pa.array(m.min(axis=0).astype(np.float64)),
                "vmax": pa.array(m.max(axis=0).astype(np.float64)),
                "n_pos": pa.array((m > 0).sum(axis=0).astype(np.int64)),
                "n": pa.array(np.full(d, n, dtype=np.int64)),
            }
        )

    agg = (
        emb.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Min("vmin"), Max("vmax"), Sum("n_pos"), Sum("n"))
    )
    return _rename(agg, ["dim", "vmin", "vmax", "n_pos", "n"])



def q_event_gap_stats_user(sf_dir: str):
    """Inter-event gap statistics per user (SQL's LAG-diff aggregate):
    count / max / sum of the time gaps between consecutive events under
    the total order (ts, event_id). ONE co-partition by user; per
    bucket a single lexsort + shifted diff materializes every gap, then
    three bincount/maximum.at reduces — no window function, no per-user
    Python. Users with a single event drop out (no gap), matching the
    oracle's WHERE pt IS NOT NULL."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    out_cols = ["user_id", "n_gaps", "max_gap_us", "sum_gap_us"]

    def gaps_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) < 2:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, u))
        u, ts = u[order], ts[order]
        same = u[1:] == u[:-1]
        gu = u[1:][same]
        g = ts[1:][same] - ts[:-1][same]  # >= 0: ts ascending within a run
        if len(gu) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        users, gidx = np.unique(gu, return_inverse=True)
        mx = np.zeros(len(users), dtype=np.int64)
        np.maximum.at(mx, gidx, g)
        return pd.DataFrame(
            {
                "user_id": users,
                "n_gaps": np.bincount(gidx).astype(np.int64),
                "max_gap_us": mx,
                "sum_gap_us": np.bincount(gidx, weights=g).astype(np.int64),
            }
        )

    return (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(gaps_fn, batch_format="pandas")
    )



def _last_per_user(u, ts, eid, extra):
    """Indices of each user's (ts, event_id)-max row — vectorized
    run-tail select after one ascending lexsort."""
    order = np.lexsort((eid, ts, u))
    u_s = u[order]
    is_last = np.empty(len(u_s), dtype=bool)
    is_last[:-1] = u_s[1:] != u_s[:-1]
    is_last[-1] = True
    return order[is_last]



def q_last_event_user(sf_dir: str):
    """max_by / last-touch attribution: each user's most recent event
    (row with max (ts, event_id)) — SQL's row_number-over-desc idiom.
    Per-batch partial argmax first (the shuffle moves at most one row
    per user per batch, not the event stream), then the same vectorized
    run-tail select per co-partitioned bucket."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(u) == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "last_type": pa.array([], pa.string()),
                 "last_ts_us": pa.array([], pa.int64()),
                 "last_event_id": pa.array([], pa.int64())}
            )
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = _last_per_user(u, ts, eid, None)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(u[sel]),
                "last_type": pa.array(et[sel]),
                "last_ts_us": pa.array(ts[sel]),
                "last_event_id": pa.array(eid[sel]),
            }
        )

    out_cols = ["user_id", "last_type", "last_ts_us", "last_event_id"]

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "last_type": pd.Series(dtype=str),
                 "last_ts_us": pd.Series(dtype=np.int64),
                 "last_event_id": pd.Series(dtype=np.int64)}
            )
        sel = _last_per_user(
            df["user_id"].to_numpy(np.int64),
            df["last_ts_us"].to_numpy(np.int64),
            df["last_event_id"].to_numpy(np.int64),
            None,
        )
        return df.iloc[sel][out_cols].reset_index(drop=True)

    partials = ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return (
        _with_bucket(partials, "user_id", 32)
        .groupby("bucket")
        .map_groups(final, batch_format="pandas")
    )



def q_type_cooccurrence_users(sf_dir: str):
    """Co-occurrence matrix: for every unordered event-type pair, how
    many users did BOTH — the distinct self-join collapsed to a bitmask
    aggregate. Per-batch distinct (user, type) partials, one user
    co-partition, then each user's type set becomes one int64 bitmask
    (np.bitwise_or.at); pair counts are derived from the ≤2^k distinct
    masks, never from user rows. Requires < 64 distinct types — the
    documented assumption of the bitmask path (wider vocabularies
    would shard the mask)."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def distinct(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id", "event_type"]).aggregate([])
        return pa.table(
            {"user_id": g["user_id"].cast(pa.int64()), "event_type": g["event_type"]}
        )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        out = {"type_a": [], "type_b": [], "n_users": []}
        if len(df) == 0:
            return pd.DataFrame(
                {"type_a": pd.Series(dtype=str), "type_b": pd.Series(dtype=str),
                 "n_users": pd.Series(dtype=np.int64)}
            )
        types, code = np.unique(df["event_type"].to_numpy(), return_inverse=True)
        if len(types) >= 64:
            raise ValueError("bitmask co-occurrence supports < 64 types")
        users, uidx = np.unique(
            df["user_id"].to_numpy(np.int64), return_inverse=True
        )
        mask = np.zeros(len(users), dtype=np.int64)
        np.bitwise_or.at(mask, uidx, np.int64(1) << code.astype(np.int64))
        vals, cnts = np.unique(mask, return_counts=True)
        acc: dict[tuple[int, int], int] = {}
        for m, c in zip(vals.tolist(), cnts.tolist()):  # aggregate-scale loop
            bits = [i for i in range(len(types)) if (m >> i) & 1]
            for x in range(len(bits)):
                for y in range(x + 1, len(bits)):
                    key = (bits[x], bits[y])
                    acc[key] = acc.get(key, 0) + c
        for (a, b), c in acc.items():
            out["type_a"].append(types[a])
            out["type_b"].append(types[b])
            out["n_users"].append(c)
        return pd.DataFrame(out)

    partials = (
        _with_bucket(
            ev.map_batches(distinct, batch_format="pyarrow", zero_copy_batch=True),
            "user_id",
            32,
        )
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )
    return _rename(
        partials.groupby(["type_a", "type_b"]).sum("n_users"),
        ["type_a", "type_b", "n_users"],
    )



def q_pagerank_dups(sf_dir: str):
    """Fixed-iteration PageRank (3 BSP rounds, exact integer lattice)
    over the embedding near-dup pair graph — the iterative-algorithm
    counterpart to connected components: dup-cluster centrality ranks
    which duplicate is the best canonical representative. Bit-exact SQL
    replay via three chained CTEs (floor division per source, integer
    sums — no float summation order anywhere)."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import pagerank_int

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35
    )
    return pagerank_int(pairs.select_columns(["a", "b"]), iters=3, n_buckets=8)



def q_weighted_avg_lineitem(sf_dir: str):
    """Weighted average as exact numerator/denominator pairs (the
    float division is a scalar epilogue, kept out of the compared
    columns): per returnflag, quantity-weighted extendedprice. Partial
    sums per batch, flag-cardinality shuffle. Sums stay exact in
    float64 (cents x integral quantities < 2^53), then land on the
    integer lattice once."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.append_column(
            "wv", pc.multiply(t["l_extendedprice"], t["l_quantity"])
        ).group_by("l_returnflag").aggregate(
            [("wv", "sum"), ("l_quantity", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "l_returnflag": g["l_returnflag"],
                "wsum": g["wv_sum"],
                "wtot": g["l_quantity_sum"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).groupby("l_returnflag").sum(["wsum", "wtot", "n"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "wsum_e2": _e(t["sum(wsum)"], 100),
                "wtot": pc.round(t["sum(wtot)"]).cast(pa.int64()),
                "n": t["sum(n)"].cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")



def q_embedding_cov_moments(sf_dir: str):
    """Covariance / Gram-matrix moments over the embedding column (the
    PCA-prep every representation-learning pipeline runs): for every
    dimension pair i <= j, exact integer moments (n, Σq_i q_j, Σq_i,
    Σq_j) on the trunc(v·10⁴) lattice. Per batch the list column
    flattens zero-copy to an (n × d) matrix and ONE float64 BLAS
    matmul produces all d(d+1)/2 partial products — exact, because
    every intermediate sum of lattice products stays below 2^53
    (|q| ≤ ~10⁴ ⇒ batch sums ≤ 1e12). The shuffle moves only
    pair-cardinality partial rows; covariance itself is a scalar
    epilogue (s_ij/n − s_i s_j/n²) left out of the compared columns."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        empty = pa.table(
            {
                "i": pa.array([], pa.int64()),
                "j": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "s_ij": pa.array([], pa.int64()),
                "s_i": pa.array([], pa.int64()),
                "s_j": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        s = q.T @ q  # float64 BLAS on exact integers — see docstring
        cs = q.sum(axis=0)
        iu, ju = np.triu_indices(d)
        # pack (i, j) into ONE int64 groupby key: Ray's sort-based
        # multi-key aggregate cost ~0.7s/block on these 2080-row
        # partials (60s of cpu across 64 blocks — measured); the
        # single-int key collapses that to the cheap path. 4096 bounds
        # any embedding dim.
        return pa.table(
            {
                "ij": pa.array((iu * 4096 + ju).astype(np.int64)),
                "n": pa.array(np.full(len(iu), n, dtype=np.int64)),
                "s_ij": pa.array(s[iu, ju].astype(np.int64)),
                "s_i": pa.array(cs[iu].astype(np.int64)),
                "s_j": pa.array(cs[ju].astype(np.int64)),
            }
        )

    # block-COUNT law: the partials are pair-cardinality (2080 rows per
    # input block, identical key set), so coalesce before the sort-
    # based aggregate — 64 tiny blocks cost the Aggregate ~5s of
    # machinery; 4 blocks make it sub-second (measured)
    # batch_size spans blocks: Ray's size-based read split leaves this
    # narrow table in dozens of ~31-row blocks, and every partial call
    # emits 2080 rows — a 67× blowup per tiny block. Bundling to 64k-
    # row batches (16 MB of f32 at d=64) makes the blowup per-BATCH,
    # and the repartition keeps the sort-based aggregate at a handful
    # of blocks (block-COUNT law — 64 tiny blocks cost it ~5s).
    agg = (
        emb.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=65536,
        )
        .repartition(4)
        .groupby("ij")
        .sum(["n", "s_ij", "s_i", "s_j"])
    )

    def unpack(t: pa.Table) -> pa.Table:
        ij = t["ij"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "i": pa.array(ij // 4096),
                "j": pa.array(ij % 4096),
                "n": t["sum(n)"].cast(pa.int64()),
                "s_ij": t["sum(s_ij)"].cast(pa.int64()),
                "s_i": t["sum(s_i)"].cast(pa.int64()),
                "s_j": t["sum(s_j)"].cast(pa.int64()),
            }
        )

    return agg.map_batches(unpack, batch_format="pyarrow")



_STOPWORDS = ("the", "a")



def q_stopword_filter_docs(sf_dir: str):
    """Text-cleaning op: stopword removal as token-level statistics
    (kept-token count + kept-char count per doc) — the filter stage of
    a training-data cleaning pipeline, fully vectorized: one Arrow
    split per batch, one index_in against the broadcast stopword list,
    two segmented sums. No Python touches a token."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sw = pa.array(list(_STOPWORDS), pa.string())

    def clean(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        keep = pc.is_null(pc.index_in(flat, sw)).to_numpy(zero_copy_only=False)
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        seg = np.repeat(np.arange(len(t), dtype=np.int64), counts)
        n_keep = np.zeros(len(t), dtype=np.int64)
        np.add.at(n_keep, seg[keep], 1)
        c_keep = np.zeros(len(t), dtype=np.int64)
        np.add.at(c_keep, seg[keep], lens[keep])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens_clean": pa.array(n_keep),
                "n_chars_clean": pa.array(c_keep),
            }
        )

    return docs.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)



def q_value_histogram_events(sf_dir: str):
    """Fixed-width histogram (SQL width_bucket model): events.value
    binned at width 25, one partial bincount per batch, bin-cardinality
    shuffle. floor(value/25) is bit-deterministic on doubles, so both
    engines agree on every edge case."""
    ev = _read(sf_dir, "events", ["value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        b = np.floor(v / 25.0).astype(np.int64)
        vals, cnts = np.unique(b, return_counts=True)
        return pa.table(
            {"bin": pa.array(vals), "n": pa.array(cnts.astype(np.int64))}
        )

    return _rename(
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bin")
        .sum("n"),
        ["bin", "n"],
    )



def q_hourly_activity_events(sf_dir: str):
    """Calendar/time-dimension extraction: activity by hour of day
    (UTC) with count + value mass per hour. hour = (epoch_us //
    3_600_000_000) % 24 on the int64 lattice — identical to SQL
    date_part('hour', ts) for non-negative epochs; values land on the
    e4 integer lattice PER ELEMENT (before any summation), so partial
    sums are exact int64 and summation order can never matter."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = (us // 3_600_000_000) % 24
        v = t["value"].to_numpy(zero_copy_only=False)
        q = np.round(v * 10000.0).astype(np.int64)  # half-even == pc.round
        n = np.bincount(hour, minlength=24).astype(np.int64)
        sq = np.zeros(24, dtype=np.int64)
        np.add.at(sq, hour, q)
        return pa.table(
            {
                "hour": pa.array(np.arange(24, dtype=np.int64)),
                "n": pa.array(n),
                "sum_value_e4": pa.array(sq),
            }
        )

    return _rename(
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour")
        .sum(["n", "sum_value_e4"]),
        ["hour", "n", "sum_value_e4"],
    )



def q_kmeans_embeddings(sf_dir: str):
    """Distributed Lloyd k-means (k=8, 2 rounds) on the exact
    trunc(v·10⁴) integer lattice (ann.kmeans_lloyd): per round one
    streaming pass — a single float64 BLAS matmul per batch against the
    broadcast centroid matrix (exact below 2^53) and k·d-cardinality
    partial sums; centroids are FLOOR integer means, so the chained-CTE
    SQL replay (with the positive-mod floordiv identity — DuckDB //
    truncates, numpy floors) matches bit-for-bit. The driver holds only
    the k×d centroid matrix, never vector data."""
    from battery.ops.ann import kmeans_lloyd

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_lloyd(emb, k=8, iters=2)



def q_resampled_hourly_events(sf_dir: str):
    """Time-series resampling: events bucketed to a DENSE hourly grid —
    missing hours gap-filled with 0 — plus a trailing 3-hour moving
    sum. Row-scale work is one partial bincount per batch; the dense
    series itself is AGGREGATE-scale (it grows with the time span, not
    the row count), so the gap-fill + window runs as one small final
    task over the materialized hour counts. The moving sum is two
    shifted adds, not a window loop."""
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(us // 3_600_000_000, return_counts=True)
        return pa.table(
            {"hi": pa.array(vals), "n": pa.array(cnts.astype(np.int64))}
        )

    agg = _rename(
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hi")
        .sum("n"),
        ["hi", "n"],
    ).repartition(1)

    def fill(t: pa.Table) -> pa.Table:
        hi = t["hi"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        if len(hi) == 0:
            return pa.table(
                {"hi": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
                 "ma3": pa.array([], pa.int64())}
            )
        lo, hx = hi.min(), hi.max()
        dense = np.zeros(hx - lo + 1, dtype=np.int64)
        dense[hi - lo] = n
        ma3 = dense.copy()
        ma3[1:] += dense[:-1]
        ma3[2:] += dense[:-2]
        return pa.table(
            {
                "hi": pa.array(np.arange(lo, hx + 1, dtype=np.int64)),
                "n": pa.array(dense),
                "ma3": pa.array(ma3),
            }
        )

    return agg.map_batches(fill, batch_format="pyarrow", batch_size=None)



def q_mad_events(sf_dir: str):
    """Median absolute deviation per group (robust dispersion — the
    statistic quality-filter pipelines prefer over stddev): two passes
    on the exact grouped-quantile core. Pass 1 selects each group's
    lower median (rank ceil(n/2), an actual element); the group-
    cardinality median dict is broadcast via ray.put; pass 2 runs the
    same rank selection over |v − med|. Both selected values are real
    elements of deterministic float64 expressions, so the SQL replay is
    bit-exact — no interpolation anywhere."""
    from battery.ops.quantile import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    # max_pull trades streaming passes for a bounded driver pull: MAD
    # already needs 2 chained quantile selections, so at 2000 each one
    # runs extra refinement rounds (~14s at sf0.1); 50k pulls whole
    # final intervals in one round (measured ~2x faster, pull stays
    # <1 MB). grouped_quantiles_events keeps 2000 to exercise the
    # refinement path.
    med_t = grouped_quantiles(
        ev, "value", "event_type", q_pcts=(50,), max_pull=50_000
    )
    med = dict(zip(med_t["group"].to_pylist(), med_t["value"].to_pylist()))
    mref = ray.put(med)

    def dev(t: pa.Table, _mref=mref) -> pa.Table:
        m = ray.get(_mref)
        g = t["event_type"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        ug, inv = np.unique(g, return_inverse=True)
        marr = np.asarray([m[x] for x in ug.tolist()], dtype=np.float64)
        return pa.table(
            {"event_type": t["event_type"], "av": pa.array(np.abs(v - marr[inv]))}
        )

    devs = ev.map_batches(dev, batch_format="pyarrow", zero_copy_batch=True)
    mad_t = grouped_quantiles(
        devs, "av", "event_type", q_pcts=(50,), max_pull=50_000
    )
    mad = dict(zip(mad_t["group"].to_pylist(), mad_t["value"].to_pylist()))
    groups = sorted(med)
    return pd.DataFrame(
        {
            "event_type": groups,
            "med": [med[g] for g in groups],
            "mad": [mad[g] for g in groups],
        }
    )



_THROTTLE_US = 3 * 86400 * 1_000_000  # 3 days



def q_throttled_events(sf_dir: str):
    """Rate-limit dedup (log-cleaning staple): keep an event only if
    it's the FIRST of its (user, type) or arrived more than 3 days
    after the previous one — SQL's LAG-gap filter. One co-partition by
    user; per bucket a single lexsort + shifted compare decides every
    row. (Unlike sessionization this emits the surviving ROWS, not
    session aggregates.)"""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    out_cols = ["event_id", "user_id", "event_type", "ts_us"]

    def throttle(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) == 0:
            return pd.DataFrame(
                {"event_id": pd.Series(dtype=np.int64),
                 "user_id": pd.Series(dtype=np.int64),
                 "event_type": pd.Series(dtype=str),
                 "ts_us": pd.Series(dtype=np.int64)}
            )
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        types, code = np.unique(df["event_type"].to_numpy(), return_inverse=True)
        order = np.lexsort((eid, ts, code, u))
        us, cs, tss = u[order], code[order], ts[order]
        keep = np.empty(len(order), dtype=bool)
        keep[0] = True
        same = (us[1:] == us[:-1]) & (cs[1:] == cs[:-1])
        keep[1:] = ~same | (tss[1:] - tss[:-1] > _THROTTLE_US)
        sel = order[keep]
        return pd.DataFrame(
            {
                "event_id": eid[sel],
                "user_id": u[sel],
                "event_type": df["event_type"].to_numpy()[sel],
                "ts_us": ts[sel],
            }
        )[out_cols]

    return (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(throttle, batch_format="pandas")
    )



def q_dedup_keep_canonical(sf_dir: str):
    """The APPLY phase of near-dup dedup — what the pipeline actually
    ships: every vector untouched by any dup pair, plus exactly one
    canonical representative (min id) per duplicate cluster. Pair
    generation → connected components → size-guarded anti-join back to
    the corpus; the corpus never shuffles — only the (small) dup-node
    id set moves."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import connected_components
    from battery.ops.relational import anti_join

    ids = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_dup_pairs(ids, tau=0.35)
    cc = connected_components(
        pairs.select_columns(["a", "b"]), "a", "b", n_buckets=8
    ).materialize()  # node-scale; reused twice below

    untouched = anti_join(
        ids.select_columns(["vec_id"]), cc, "vec_id", "node"
    )
    canonical = cc.map_batches(
        lambda t: pa.table(
            {"vec_id": t.filter(pc.equal(t["node"], t["cluster_id"]))["node"]}
        ),
        batch_format="pyarrow",
    )
    return untouched.union(canonical)



def q_union_by_name_orders(sf_dir: str):
    """Schema-evolution union (UNION ALL BY NAME): two projections of
    orders with different columns align by NAME, null-filling what each
    side lacks (relational.union_by_name — the Dataset API's union
    requires identical schemas). Nulls are COALESCE-filled to sentinels
    in the output so the driver's value hash is null-free."""
    from battery.ops.relational import union_by_name

    f = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])
    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_orderpriority"])

    fa = f.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "F")).drop_columns(
            ["o_orderstatus"]
        ),
        batch_format="pyarrow",
    )
    ob = o.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], "O")).drop_columns(
            ["o_orderstatus"]
        ),
        batch_format="pyarrow",
    )
    u = union_by_name(fa, ob)

    def fill(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_totalprice": pc.coalesce(
                    t["o_totalprice"], pa.scalar(-1.0)
                ),
                "o_orderpriority": pc.coalesce(
                    t["o_orderpriority"], pa.scalar("NONE")
                ),
            }
        )

    return u.map_batches(fill, batch_format="pyarrow")



def q_grouping_sets_docs(sf_dir: str):
    """GROUP BY GROUPING SETS ((lang), (source)) — the explicit-sets
    generalization of CUBE/ROLLUP on the same one-pass combiner
    (relational.cube_aggregate with ``sets``): both summaries from one
    read, gid keeping SQL's bitmask convention."""
    from battery.ops.relational import cube_aggregate

    docs = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    return cube_aggregate(
        docs, keys=["lang", "source"], sum_col="n_chars",
        sets=[("lang",), ("source",)],
    )



def q_percent_rank_events(sf_dir: str):
    """percent_rank per user over event value, as EXACT rational parts
    (pr_num = RANK−1 with SQL's shared-tie semantics, pr_den = n−1; the
    float division is an epilogue outside the compared columns). One
    co-partition by user; ranks fall out of one (user, value) lexsort —
    tie runs inherit their first row's rank via a run-start gather."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_id", "value"])
    out_cols = ["event_id", "pr_num", "pr_den"]

    def pr(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        n = len(df)
        if n == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        u = df["user_id"].to_numpy(np.int64)
        v = df["value"].to_numpy()
        eid = df["event_id"].to_numpy(np.int64)
        order = np.lexsort((v, u))
        us, vs = u[order], v[order]
        i = np.arange(n)
        new_u = np.r_[True, us[1:] != us[:-1]]
        ustart = i[new_u][np.cumsum(new_u) - 1]
        ulen = np.diff(np.r_[np.flatnonzero(new_u), n])[np.cumsum(new_u) - 1]
        new_uv = new_u | np.r_[True, vs[1:] != vs[:-1]]
        uvstart = i[new_uv][np.cumsum(new_uv) - 1]  # first row of tie run
        rank0 = uvstart - ustart  # RANK-1: tie runs share first pos
        out = np.empty(n, dtype=np.int64)
        den = np.empty(n, dtype=np.int64)
        out[order] = rank0
        den[order] = ulen - 1
        return pd.DataFrame({"event_id": eid, "pr_num": out, "pr_den": den})

    return (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(pr, batch_format="pandas")
    )



def q_top_bigrams_docs(sf_dir: str):
    """Global top-20 token BIGRAMS (the n-gram LM statistic one step up
    from q_top_terms_docs): adjacent-token pairs within each doc via
    two Arrow slices + one binary_join_element_wise concat — no Python
    string work — then the same value_counts combiner → vocabulary-
    scale groupby → partial top-k plan."""
    ds = _read(sf_dir, "documents", ["text"])
    k = 20

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        n = len(flat)
        if n < 2:
            return pa.table(
                {"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        bg = pc.binary_join_element_wise(
            flat.slice(0, n - 1), flat.slice(1), " "
        )
        # drop pairs that straddle a document boundary
        keep = np.ones(n - 1, dtype=bool)
        last = np.cumsum(lens) - 1  # last token index of each doc
        keep[last[last < n - 1]] = False
        vc = bg.filter(pa.array(keep)).value_counts()
        return pa.table(
            {"bigram": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    def top_of(t: pa.Table) -> pa.Table:
        bg = t["bigram"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((bg, -n))[:k]  # (n desc, bigram asc)
        return pa.table({"bigram": pa.array(bg[order]), "n": pa.array(n[order])})

    summed = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .sum("n")
        .map_batches(
            lambda t: t.rename_columns(["bigram", "n"]), batch_format="pyarrow"
        )
    )
    cands = summed.map_batches(top_of, batch_format="pyarrow")
    return cands.repartition(1).map_batches(
        top_of, batch_format="pyarrow", batch_size=None
    )



def q_cm_user_counts(sf_dir: str):
    """Count-min sketch (the frequency-sketch companion to HLL and
    Misra-Gries): per-user event counts estimated from a d×w counter
    grid whose shuffle is ≤ d·w packed cells per batch — never the key
    stream — then point-queried for every user next to the exact count.
    over_ok asserts CM's one-sided guarantee (est ≥ truth, always).
    Deterministic fixed-seed hashing makes est bit-reproducible; the
    oracle replays it with a pure-int scalar sidecar
    (oracle_ref.cm_estimates_ref)."""
    from battery.ops.sketch import cm_estimate, cm_sketch

    ev = _read(sf_dir, "events", ["user_id"])
    grid = cm_sketch(ev, "user_id")
    gref = ray.put(grid)

    def exact(t: pa.Table) -> pa.Table:
        g = t.group_by("user_id").aggregate([([], "count_all")])
        return pa.table(
            {"user_id": g["user_id"].cast(pa.int64()),
             "n": g["count_all"].cast(pa.int64())}
        )

    agg = (
        ev.map_batches(exact, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .sum("n")
    )

    def finish(t: pa.Table, _g=gref) -> pa.Table:
        gr = ray.get(_g)
        ids = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ex = t["sum(n)"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        est = cm_estimate(gr, ids)
        return pa.table(
            {
                "user_id": pa.array(ids),
                "est_cnt": pa.array(est),
                "exact_cnt": pa.array(ex),
                "over_ok": pa.array(est >= ex),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")



def q_train_split_docs(sf_dir: str):
    """Deterministic train/val/test split (90/5/5) — the assignment
    every training-data pipeline ends with: split = Knuth hash of
    doc_id mod 100 (shard-stable, reproducible, no RNG state), then
    per-(split, lang) counts + char mass. One vectorized partial per
    batch; the shuffle is (3 × languages) rows."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = ((did * np.uint64(2654435761)) % np.uint64(4294967296)) % np.uint64(100)
        split = np.where(b < 90, "train", np.where(b < 95, "val", "test"))
        tt = pa.table(
            {"split": pa.array(split), "lang": t["lang"], "n_chars": t["n_chars"]}
        )
        g = tt.group_by(["split", "lang"]).aggregate(
            [([], "count_all"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "split": g["split"],
                "lang": g["lang"],
                "n": g["count_all"].cast(pa.int64()),
                "sum_n_chars": g["n_chars_sum"].cast(pa.int64()),
            }
        )

    return _rename(
        docs.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["split", "lang"])
        .sum(["n", "sum_n_chars"]),
        ["split", "lang", "n", "sum_n_chars"],
    )



def q_global_sort_orders(sf_dir: str):
    """Global ORDER BY via Ray's range-partitioned distributed sort —
    the one all-to-all primitive the rest of this engine deliberately
    avoids (top-k uses partial reduction, quantiles use histogram
    refinement). Exposed as its own query because total ordering IS
    sometimes the requirement (final deliverable files, merge-join
    prep); (o_totalprice DESC, o_orderkey ASC) makes the order total so
    both engines agree on ties."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = orders.sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(1000)

    def rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": t["o_orderkey"], "o_totalprice": t["o_totalprice"]}
        )

    return top.map_batches(rank, batch_format="pyarrow")



def _ndjson_cache(sf_dir: str) -> str:
    """events as newline-delimited JSON (ts as epoch_us int), derived
    once from the parquet and cached content-free (pure projection —
    keyed by sf name only; regenerating is cheap and deterministic)."""
    import json as _json
    import pathlib

    import pyarrow.parquet as pq

    out = _oracle_cache_dir() / f"events_ndjson_{pathlib.Path(sf_dir).name}"
    marker = out / "_DONE"
    if not marker.exists():
        out.mkdir(parents=True, exist_ok=True)
        t = pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "value", "ts"],
        )
        us = t["ts"].cast(pa.int64()).to_pylist()
        with open(out / "part-0.jsonl", "w") as f:
            for eid, et, v, u in zip(
                t["event_id"].to_pylist(), t["event_type"].to_pylist(),
                t["value"].to_pylist(), us,
            ):
                f.write(_json.dumps(
                    {"event_id": eid, "event_type": et, "value": v, "ts_us": u}
                ) + "\n")
        marker.touch()
    return str(out / "part-0.jsonl")



def q_ndjson_events_ingest(sf_dir: str):
    """Source-format breadth: the same per-type aggregate computed from
    an NDJSON shard via ``ray.data.read_json`` (log-style ingestion —
    the format most raw event streams arrive in), oracled against the
    PARQUET view: two independent ingestion paths must produce
    identical counts and e4-lattice value sums."""
    path = _ndjson_cache(sf_dir)
    ds = rd.read_json(path)

    def partial(t: pa.Table) -> pa.Table:
        q = pc.round(pc.multiply(t["value"], pa.scalar(10000.0))).cast(pa.int64())
        g = t.append_column("q", q).group_by("event_type").aggregate(
            [([], "count_all"), ("q", "sum")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": g["count_all"].cast(pa.int64()),
                "sum_value_e4": g["q_sum"].cast(pa.int64()),
            }
        )

    return _rename(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .sum(["n", "sum_value_e4"]),
        ["event_type", "n", "sum_value_e4"],
    )



def q_user_sequence_strings(sf_dir: str):
    """Sequence serialization — turning each user's event stream into a
    TEXT token sequence (the events→LM-training-corpus step): the first
    10 events per user under the (ts, event_id) total order, joined
    with '>'. One co-partition by user; inside a bucket one lexsort
    builds per-user runs, the ≤10-prefix mask is run arithmetic, and
    the string assembly is ONE Arrow ``binary_join`` over a ListArray —
    no per-user Python string work."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    LIMIT = 10

    def seqs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["bucket"])
        if len(df) == 0:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "seq": pd.Series(dtype=str)}
            )
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        order = np.lexsort((eid, ts, u))
        us, ets = u[order], et[order]
        n = len(us)
        i = np.arange(n)
        new = np.r_[True, us[1:] != us[:-1]]
        run_start = i[new][np.cumsum(new) - 1]
        keep = (i - run_start) < LIMIT
        us, ets = us[keep], ets[keep]
        users, counts = np.unique(us, return_counts=True)
        offsets = np.r_[0, np.cumsum(counts)].astype(np.int32)
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(ets, pa.string())
        )
        seq = pc.binary_join(lst, ">")
        return pd.DataFrame({"user_id": users, "seq": seq.to_pandas()})

    return (
        _with_bucket(ev, "user_id", 32)
        .groupby("bucket")
        .map_groups(seqs, batch_format="pandas")
    )



def q_winsorized_stats_events(sf_dir: str):
    """Winsorized aggregate (outlier-robust cleaning: clip to the exact
    p05/p95 order statistics, then aggregate): two rank selections via
    histogram refinement, both cuts broadcast as scalars, one clipping
    pass — counts of clipped tails are integers and the clipped sum
    lands on the e4 lattice per element, so the SQL replay (rank-select
    CTE + LEAST/GREATEST) matches bit-for-bit."""
    from battery.ops.quantile import exact_quantiles

    ev = _read(sf_dir, "events", ["value"])
    qt = exact_quantiles(ev, "value", q_pcts=(5, 95), max_pull=50_000)
    cuts = dict(zip(qt["q_pct"].to_pylist(), qt["value"].to_pylist()))
    lo, hi = float(cuts[5]), float(cuts[95])

    def clip(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        w = np.minimum(np.maximum(v, lo), hi)
        q = np.round(w * 10000.0).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(v)], pa.int64()),
                "n_lo": pa.array([int((v < lo).sum())], pa.int64()),
                "n_hi": pa.array([int((v > hi).sum())], pa.int64()),
                "sum_w_e4": pa.array([int(q.sum())], pa.int64()),
            }
        )

    agg = (
        ev.map_batches(clip, batch_format="pyarrow", zero_copy_batch=True)
        .sum(["n", "n_lo", "n_hi", "sum_w_e4"])
    )
    return pd.DataFrame(
        {
            "n": [agg["sum(n)"]],
            "n_lo": [agg["sum(n_lo)"]],
            "n_hi": [agg["sum(n_hi)"]],
            "sum_w_e4": [agg["sum(sum_w_e4)"]],
        }
    )



def _semi_lookup_join(fact, fact_key, dim, dim_key, dim_val, out_key):
    """lookup_join then project to (out_key, dim_val)."""
    from battery.ops.relational import lookup_join

    j = lookup_join(fact, fact_key, dim, dim_key, dim_val)
    return j.map_batches(
        lambda t: t.select([out_key, dim_val]), batch_format="pyarrow"
    )



def q_region_revenue(sf_dir: str):
    """TPC-H Q5-shaped 5-table join — the deepest relational pipeline
    in the battery: lineitem ⋈ orders ⋈ customer ⋈ nation ⋈ region with
    a date filter and per-region revenue. Join strategy by SIZE at
    every hop: nation+region (tiny) broadcast-fold into customer at the
    map; orders ⋈ customer and lineitem ⋈ (orders×region) go through
    relational.lookup_join — broadcast searchsorted when the dim side
    fits the 2^20-row guard (bench scale: zero shuffle on the fact
    side, measured 10.7 s → ~3 s), bucketed co-partition beyond it (the
    10^12-row path, where customer no longer broadcasts). Revenue lands
    on the e4 lattice PER ELEMENT before any summation, so join order
    and summation order can never shift the driver hash."""
    from battery.ops.relational import bucketed_join

    nat = {r["n_nationkey"]: r["n_regionkey"]
           for r in _read(sf_dir, "nation").take_all()}
    reg = {r["r_regionkey"]: r["r_name"]
           for r in _read(sf_dir, "region").take_all()}
    n2r = {nk: reg[rk] for nk, rk in nat.items()}
    n2r_ref = ray.put(n2r)

    def cust_map(t: pa.Table, _ref=n2r_ref) -> pa.Table:
        m = ray.get(_ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(nk, return_inverse=True)
        names = np.asarray([m[int(x)] for x in uk])
        return pa.table(
            {"c_custkey": t["c_custkey"].cast(pa.int64()),
             "region": pa.array(names[inv])}
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_map, batch_format="pyarrow", zero_copy_batch=True
    )

    CUT = np.datetime64("1998-01-01").astype("datetime64[us]").astype(np.int64)

    def ord_proj(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64())
        keep = pc.less(us, pa.scalar(CUT))
        f = t.filter(keep)
        return pa.table(
            {"o_orderkey": f["o_orderkey"].cast(pa.int64()),
             "o_custkey": f["o_custkey"].cast(pa.int64())}
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(ord_proj, batch_format="pyarrow", zero_copy_batch=True)

    oc = _semi_lookup_join(
        orders, "o_custkey", cust, "c_custkey", "region",
        out_key="o_orderkey",
    )  # → (o_orderkey, region)

    def li_proj(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table(
            {"l_orderkey": t["l_orderkey"].cast(pa.int64()),
             "q": _e(rev, 10000)}
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_proj, batch_format="pyarrow", zero_copy_batch=True)

    joined = _semi_lookup_join(
        li, "l_orderkey", oc, "o_orderkey", "region", out_key="q"
    )  # → (q, region)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("region").aggregate([("q", "sum"), ([], "count_all")])
        return pa.table(
            {"region": g["region"], "rev_e4": g["q_sum"].cast(pa.int64()),
             "n": g["count_all"].cast(pa.int64())}
        )

    # 5-region partials per block: coalesce the 64 slivers before the
    # final aggregate (the nation_pair_revenue partition-count lesson)
    return _rename(
        joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(4)
        .groupby("region")
        .sum(["rev_e4", "n"]),
        ["region", "rev_e4", "n"],
    )



def q_multi_distinct_daily(sf_dir: str):
    """Multi-DISTINCT aggregate — COUNT(DISTINCT user_id) AND
    COUNT(DISTINCT event_type) per day, each from one pass of deduped
    partials (the classic hard case for single-shuffle engines). Users:
    per-batch distinct (day·2^33 + user) packed keys → ONE single-int
    groupby (packing contract: user_id < 2^33, asserted — wider id
    spaces would swap in the hash-bucket co-partition dedup the engine
    already uses for pair dedup). Types: per-batch distinct
    (day, type) string rows → a (days × vocab)-cardinality groupby.
    Both aggregates are day-scale; the driver merges two tiny tables —
    never row data."""
    ev = _read(sf_dir, "events", ["ts", "user_id", "event_type"])
    DAY_US = 86_400_000_000

    def upart(t: pa.Table) -> pa.Table:
        day = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // DAY_US
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (u < (1 << 33)).all() and (u >= 0).all(), "packing contract"
        return pa.table({"k": pa.array(np.unique(day * (1 << 33) + u))})

    def tpart(t: pa.Table) -> pa.Table:
        day = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // DAY_US
        et = t["event_type"].to_numpy()
        types, code = np.unique(et, return_inverse=True)
        dt = np.unique(day * len(types) + code)
        return pa.table(
            {"day": pa.array(dt // len(types)),
             "event_type": pa.array(types[dt % len(types)])}
        )

    users = (
        ev.map_batches(upart, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k").count()
        .map_batches(
            lambda t: pa.table(
                {"day": pc.shift_right(t["k"], pa.scalar(33)),
                 "one": pa.array(np.ones(len(t), np.int64))}
            ),
            batch_format="pyarrow",
        )
        .groupby("day").sum("one")
        .take_all()
    )  # day-scale
    types = (
        ev.map_batches(tpart, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["day", "event_type"]).count()
        .map_batches(
            lambda t: pa.table(
                {"day": t["day"], "one": pa.array(np.ones(len(t), np.int64))}
            ),
            batch_format="pyarrow",
        )
        .groupby("day").sum("one")
        .take_all()
    )
    nu = {r["day"]: r["sum(one)"] for r in users}
    nt = {r["day"]: r["sum(one)"] for r in types}
    days = sorted(nu)
    return pd.DataFrame(
        {
            "day": np.asarray(days, dtype=np.int64),
            "n_users": np.asarray([nu[d] for d in days], dtype=np.int64),
            "n_types": np.asarray([nt.get(d, 0) for d in days], dtype=np.int64),
        }
    )



QUERIES = {
    "pricing_summary": q_pricing_summary,
    "cust_nation_orders": q_cust_nation_orders,
    "broadcast_join_brand_revenue": q_broadcast_join_brand_revenue,
    "semi_join_date_filter": q_semi_join_date_filter,
    "left_join_customer_orders": q_left_join_customer_orders,
    "distinct_parts_per_flag": q_distinct_parts_per_flag,
    "exact_dedup_docs": q_exact_dedup_docs,
    "union_order_subsets": q_union_order_subsets,
    "topk_orders": q_topk_orders,
    "bucket_join_priority_revenue": q_bucket_join_priority_revenue,
    "user_sessions": q_user_sessions,
    "asof_clicks_views": q_asof_clicks_views,
    "followup_events": q_followup_events,
    "top_terms_docs": q_top_terms_docs,
    "tfidf_docs": q_tfidf_docs,
    "dup_span_docs": q_dup_span_docs,
    "rolling_window_user": q_rolling_window_user,
    "rollup_docs": q_rollup_docs,
    "pivot_docs": q_pivot_docs,
    "grouped_topk_users": q_grouped_topk_users,
    "corr_moments_docs": q_corr_moments_docs,
    "ntile_events": q_ntile_events,
    "right_join_orders_customer": q_right_join_orders_customer,
    "intersect_users": q_intersect_users,
    "except_users": q_except_users,
    "full_outer_customer_orders": q_full_outer_customer_orders,
    "jaccard_pairs_docs": q_jaccard_pairs_docs,
    "quantiles_events": q_quantiles_events,
    "quantiles_cont_events": q_quantiles_cont_events,
    "funnel_users": q_funnel_users,
    "cohort_retention_users": q_cohort_retention_users,
    "event_gap_stats_user": q_event_gap_stats_user,
    "last_event_user": q_last_event_user,
    "type_cooccurrence_users": q_type_cooccurrence_users,
    "pagerank_dups": q_pagerank_dups,
    "weighted_avg_lineitem": q_weighted_avg_lineitem,
    "embedding_cov_moments": q_embedding_cov_moments,
    "stopword_filter_docs": q_stopword_filter_docs,
    "kmeans_embeddings": q_kmeans_embeddings,
    "resampled_hourly_events": q_resampled_hourly_events,
    "mad_events": q_mad_events,
    "throttled_events": q_throttled_events,
    "grouping_sets_docs": q_grouping_sets_docs,
    "percent_rank_events": q_percent_rank_events,
    "top_bigrams_docs": q_top_bigrams_docs,
    "cm_user_counts": q_cm_user_counts,
    "train_split_docs": q_train_split_docs,
    "global_sort_orders": q_global_sort_orders,
    "ndjson_events_ingest": q_ndjson_events_ingest,
    "user_sequence_strings": q_user_sequence_strings,
    "winsorized_stats_events": q_winsorized_stats_events,
    "region_revenue": q_region_revenue,
    "multi_distinct_daily": q_multi_distinct_daily,
    "dedup_keep_canonical": q_dedup_keep_canonical,
    "union_by_name_orders": q_union_by_name_orders,
    "value_histogram_events": q_value_histogram_events,
    "hourly_activity_events": q_hourly_activity_events,
    "transition_counts_events": q_transition_counts_events,
    "mode_event_type_user": q_mode_event_type_user,
    "cube_docs": q_cube_docs,
    "skyline_orders": q_skyline_orders,
    "embedding_dim_stats": q_embedding_dim_stats,
    "grouped_quantiles_events": q_grouped_quantiles_events,
    "stratified_sample_events": q_stratified_sample_events,
    "dup_clusters_embeddings": q_dup_clusters_embeddings,
    "distinct_users_exact": q_distinct_users_exact,
    "hash_sample_docs": q_hash_sample_docs,
    "heavy_hitter_users": q_heavy_hitter_users,
    "image_resize": q_image_resize,
    "anti_join_customers": q_anti_join_customers,
    "sliding_window_events": q_sliding_window_events,
    "hll_distinct_users": q_hll_distinct_users,
    "hll_grouped_users": q_hll_grouped_users,
    "phash_neighbor_stats": q_phash_neighbor_stats,
    "event_props_stats": q_event_props_stats,
    "envelope_events": q_envelope_events,
    "cell_quantize_events": q_cell_quantize_events,
    "pip_triangle_docs": q_pip_triangle_docs,
    "spatial_grid_join_docs": q_spatial_grid_join_docs,
    "window_events": q_window_events,
    "doc_token_stats": q_doc_token_stats,
    "doc_stats_by_lang": q_doc_stats_by_lang,
    "knn_embeddings": q_knn_embeddings,
    # rows-only (non-SQL-expressible)
    "lang_id_docs": q_lang_id_docs,
    "fingerprint_docs": q_fingerprint_docs,
    "minhash_pairs_docs": q_minhash_pairs_docs,
    "simhash_docs": q_simhash_docs,
    "simhash_pairs_docs": q_simhash_pairs_docs,
    "embedding_dups": q_embedding_dups,
    "ivf_ann": q_ivf_ann,
    "tile_assignments": q_tile_assignments,
    "tile_knn": q_tile_knn,
    "tile_cell_counts": q_tile_cell_counts,
    "route_feature_collections": q_route_feature_collections,
    "tile_dissolve": q_tile_dissolve,
    "image_invariants": q_image_invariants,
    "image_channel_histogram": q_image_channel_histogram,
    "gtfs_stop_features": q_gtfs_stop_features,
    "gtfs_line_features": q_gtfs_line_features,
    "gtfs_envelope": q_gtfs_envelope,
    "gtfs_convex_hull": q_gtfs_convex_hull,
    "gtfs_buffer_stats": q_gtfs_buffer_stats,
    "gtfs_dissolved_stats": q_gtfs_dissolved_stats,
    "doc_quality": q_doc_quality,
    "image_embeddings": q_image_embeddings,
    "embedding_buckets": q_embedding_buckets,
}


ORACLE_SQL = {
    "asof_clicks_views": """
        WITH u AS (SELECT event_id, user_id, ts, event_type FROM events
                   WHERE event_type IN ('click', 'view')),
        m AS (
          SELECT event_id, event_type, ts,
                 last_value(CASE WHEN event_type = 'view' THEN event_id END
                            IGNORE NULLS) OVER w AS prior_view_id,
                 last_value(CASE WHEN event_type = 'view' THEN ts END
                            IGNORE NULLS) OVER w AS prior_ts
          FROM u
          WINDOW w AS (PARTITION BY user_id ORDER BY ts
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
        SELECT event_id, CAST(prior_view_id AS BIGINT) AS prior_view_id,
               CAST(epoch_us(ts) - epoch_us(prior_ts) AS BIGINT) AS gap_us
        FROM m WHERE event_type = 'click' AND prior_view_id IS NOT NULL
    """,
    "top_terms_docs": """
        SELECT w AS token, count(*) AS n
        FROM (SELECT unnest(string_split(text, ' ')) AS w FROM documents)
        WHERE w <> '' GROUP BY w
        ORDER BY n DESC, w LIMIT 20
    """,
    "tfidf_docs": """
        WITH nd AS (SELECT count(*) AS n FROM documents),
        w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents),
        wf AS (SELECT doc_id, token, count(*) AS tf FROM w
               WHERE token <> '' GROUP BY 1, 2),
        dfq AS (SELECT token, count(*) AS df FROM wf GROUP BY 1),
        sc AS (SELECT doc_id, wf.token, tf, df,
                      tf * ((1000000 * nd.n) // df) AS score
               FROM wf JOIN dfq USING (token) CROSS JOIN nd),
        r AS (SELECT *, row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, token) rn FROM sc)
        SELECT doc_id, token, tf, df, score FROM r WHERE rn <= 5
    """,
    "dup_span_docs": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        g AS (SELECT DISTINCT doc_id,
                     array_to_string(list_slice(toks, i, i + 7), ' ') AS gram
              FROM t, unnest(generate_series(1, len(toks) - 7)) AS u(i)
              WHERE len(toks) >= 8),
        d AS (SELECT gram, count(*) AS nd FROM g GROUP BY 1)
        SELECT g.doc_id, count(*) AS n_grams,
               CAST(sum(CASE WHEN d.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
                 AS n_dup_grams
        FROM g JOIN d USING (gram) GROUP BY 1
    """,
    "rolling_window_user": """
        WITH q AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 10000 + 0.5) AS BIGINT) AS v
                   FROM events)
        SELECT event_id,
               CAST(sum(v) OVER w AS BIGINT) AS roll_sum_e4,
               count(*) OVER w AS roll_n,
               coalesce(lag(event_id) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id), -1) AS prev_event_id
        FROM q WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
    """,
    "ntile_events": """
        SELECT event_id,
               CAST(ntile(4) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS BIGINT) AS tile
        FROM events
    """,
    "right_join_orders_customer": """
        WITH a AS (SELECT o_custkey ok, count(*) n FROM orders GROUP BY 1)
        SELECT c.c_custkey AS custkey, COALESCE(a.n, 0) AS n_orders
        FROM a RIGHT JOIN customer c ON c.c_custkey = a.ok
    """,
    "intersect_users": """
        SELECT user_id FROM events WHERE event_type = 'click'
        INTERSECT
        SELECT user_id FROM events WHERE event_type = 'purchase'
    """,
    "except_users": """
        SELECT user_id FROM events
        WHERE event_type = 'click' AND value > 200
        EXCEPT
        SELECT user_id FROM events
        WHERE event_type = 'purchase' AND value > 200
    """,
    "multi_distinct_daily": """
        SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
               CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
               CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n_types
        FROM events GROUP BY 1
    """,
    "region_revenue": """
        SELECT r.r_name AS region,
               CAST(SUM(CAST(round(l.l_extendedprice * (1 - l.l_discount)
                                   * 10000) AS BIGINT)) AS BIGINT) AS rev_e4,
               COUNT(*) AS n
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        WHERE o.o_orderdate < TIMESTAMP '1998-01-01'
        GROUP BY 1
    """,
    "winsorized_stats_events": """
        WITH s AS (SELECT value,
                          row_number() OVER (ORDER BY value) rn,
                          count(*) OVER () c
                   FROM events),
        lo AS (SELECT value AS v FROM s
               WHERE rn = CAST(ceil(0.05 * c) AS BIGINT)),
        hi AS (SELECT value AS v FROM s
               WHERE rn = CAST(ceil(0.95 * c) AS BIGINT))
        SELECT COUNT(*) AS n,
               CAST(COUNT(*) FILTER (e.value < lo.v) AS BIGINT) AS n_lo,
               CAST(COUNT(*) FILTER (e.value > hi.v) AS BIGINT) AS n_hi,
               CAST(SUM(CAST(round(LEAST(GREATEST(e.value, lo.v), hi.v)
                                   * 10000) AS BIGINT)) AS BIGINT)
                 AS sum_w_e4
        FROM events e, lo, hi
    """,
    "user_sequence_strings": """
        WITH r AS (SELECT user_id, event_type,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) AS rn
                   FROM events)
        SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS seq
        FROM r WHERE rn <= 10 GROUP BY user_id
    """,
    "global_sort_orders": """
        SELECT o_orderkey, o_totalprice FROM orders
        ORDER BY o_totalprice DESC, o_orderkey LIMIT 1000
    """,
    "ndjson_events_ingest": """
        SELECT event_type, COUNT(*) AS n,
               CAST(SUM(CAST(round(value * 10000) AS BIGINT)) AS BIGINT)
                 AS sum_value_e4
        FROM events GROUP BY event_type
    """,
    "train_split_docs": """
        WITH s AS (SELECT CASE WHEN b < 90 THEN 'train'
                               WHEN b < 95 THEN 'val'
                               ELSE 'test' END AS split, lang, n_chars
                   FROM (SELECT (doc_id * 2654435761 % 4294967296) % 100 AS b,
                                lang, n_chars
                         FROM documents))
        SELECT split, lang, COUNT(*) AS n,
               CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
        FROM s GROUP BY 1, 2
    """,
    "top_bigrams_docs": """
        WITH t AS (SELECT doc_id, string_split(text, ' ') AS tk
                   FROM documents),
        b AS (SELECT tk[CAST(u + 1 AS BIGINT)] || ' '
                     || tk[CAST(u + 2 AS BIGINT)] AS bigram
              FROM t, UNNEST(range(len(tk) - 1)) s(u)
              WHERE len(tk) > 1)
        SELECT bigram, COUNT(*) AS n FROM b GROUP BY bigram
        ORDER BY n DESC, bigram LIMIT 20
    """,
    "grouping_sets_docs": """
        SELECT CAST(grouping(lang) + 2 * grouping(source) AS BIGINT) AS gid,
               COALESCE(lang, '*') AS lang,
               COALESCE(source, '*') AS source,
               COUNT(*) AS n,
               CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents GROUP BY GROUPING SETS ((lang), (source))
    """,
    "percent_rank_events": """
        SELECT event_id,
               CAST(RANK() OVER (PARTITION BY user_id ORDER BY value) - 1
                    AS BIGINT) AS pr_num,
               CAST(COUNT(*) OVER (PARTITION BY user_id) - 1 AS BIGINT)
                 AS pr_den
        FROM events
    """,
    "throttled_events": """
        WITH s AS (SELECT event_id, user_id, event_type,
                          epoch_us(ts) AS ts_us,
                          LAG(epoch_us(ts)) OVER (
                            PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS pt
                   FROM events)
        SELECT event_id, user_id, event_type, ts_us
        FROM s WHERE pt IS NULL OR ts_us - pt > 259200000000
    """,
    "union_by_name_orders": """
        SELECT o_orderkey, o_totalprice, 'NONE' AS o_orderpriority
        FROM orders WHERE o_orderstatus = 'F'
        UNION ALL
        SELECT o_orderkey, -1.0 AS o_totalprice, o_orderpriority
        FROM orders WHERE o_orderstatus = 'O'
    """,
    "mad_events": """
        WITH s AS (SELECT event_type, value,
                          row_number() OVER (PARTITION BY event_type
                                             ORDER BY value) rn,
                          count(*) OVER (PARTITION BY event_type) c
                   FROM events),
        m AS (SELECT event_type, value AS med FROM s
              WHERE rn = CAST(ceil(0.5 * c) AS BIGINT)),
        d AS (SELECT e.event_type, abs(e.value - m.med) AS av
              FROM events e JOIN m USING (event_type)),
        s2 AS (SELECT event_type, av,
                      row_number() OVER (PARTITION BY event_type
                                         ORDER BY av) rn,
                      count(*) OVER (PARTITION BY event_type) c
               FROM d),
        x AS (SELECT event_type, av AS mad FROM s2
              WHERE rn = CAST(ceil(0.5 * c) AS BIGINT))
        SELECT m.event_type, m.med, x.mad FROM m JOIN x USING (event_type)
    """,
    "resampled_hourly_events": """
        WITH h AS (SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hi,
                          COUNT(*) AS n
                   FROM events GROUP BY 1),
        lim AS (SELECT MIN(hi) AS lo, MAX(hi) AS hx FROM h),
        b AS (SELECT lo + CAST(u AS BIGINT) AS hi
              FROM lim, UNNEST(range(CAST(hx - lo + 1 AS BIGINT))) t(u)),
        f AS (SELECT b.hi, COALESCE(h.n, 0) AS n FROM b LEFT JOIN h USING (hi))
        SELECT hi, n,
               CAST(SUM(n) OVER (ORDER BY hi ROWS BETWEEN 2 PRECEDING
                                 AND CURRENT ROW) AS BIGINT) AS ma3
        FROM f
    """,
    "kmeans_embeddings": """
        WITH e AS (SELECT vec_id,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        c0 AS (SELECT DENSE_RANK() OVER (ORDER BY vec_id) - 1 AS k, dim,
                      q AS c
               FROM e WHERE vec_id IN (SELECT vec_id FROM embeddings
                                       ORDER BY vec_id LIMIT 8)),
        a1 AS (SELECT vec_id, k FROM (
                 SELECT e.vec_id, c0.k,
                        ROW_NUMBER() OVER (
                          PARTITION BY e.vec_id
                          ORDER BY SUM((e.q - c0.c) * (e.q - c0.c)),
                                   c0.k) AS rn
                 FROM e JOIN c0 USING (dim) GROUP BY e.vec_id, c0.k)
               WHERE rn = 1),
        c1 AS (SELECT a1.k, e.dim,
                      (SUM(e.q) - ((SUM(e.q) % COUNT(*)) + COUNT(*))
                                  % COUNT(*)) // COUNT(*) AS c
               FROM e JOIN a1 USING (vec_id) GROUP BY a1.k, e.dim),
        a2 AS (SELECT vec_id, k, d FROM (
                 SELECT e.vec_id, c1.k,
                        SUM((e.q - c1.c) * (e.q - c1.c)) AS d,
                        ROW_NUMBER() OVER (
                          PARTITION BY e.vec_id
                          ORDER BY SUM((e.q - c1.c) * (e.q - c1.c)),
                                   c1.k) AS rn
                 FROM e JOIN c1 USING (dim) GROUP BY e.vec_id, c1.k)
               WHERE rn = 1)
        SELECT vec_id, CAST(k AS BIGINT) AS cluster, CAST(d AS BIGINT) AS dist
        FROM a2
    """,
    "stopword_filter_docs": """
        SELECT doc_id,
               CAST(COUNT(*) FILTER (tok NOT IN ('the', 'a')) AS BIGINT)
                 AS n_tokens_clean,
               CAST(COALESCE(SUM(length(tok))
                             FILTER (tok NOT IN ('the', 'a')), 0) AS BIGINT)
                 AS n_chars_clean
        FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
              FROM documents)
        GROUP BY doc_id
    """,
    "value_histogram_events": """
        SELECT CAST(floor(value / 25.0) AS BIGINT) AS bin,
               COUNT(*) AS n
        FROM events GROUP BY 1
    """,
    "hourly_activity_events": """
        SELECT CAST(date_part('hour', ts) AS BIGINT) AS hour,
               COUNT(*) AS n,
               CAST(SUM(CAST(round(value * 10000) AS BIGINT)) AS BIGINT)
                 AS sum_value_e4
        FROM events GROUP BY 1
    """,
    "weighted_avg_lineitem": """
        SELECT l_returnflag,
               CAST(round(sum(l_extendedprice * l_quantity) * 100) AS BIGINT)
                 AS wsum_e2,
               CAST(round(sum(l_quantity)) AS BIGINT) AS wtot,
               count(*) AS n
        FROM lineitem GROUP BY l_returnflag
    """,
    "embedding_cov_moments": """
        WITH e AS (SELECT vec_id,
                          unnest(range(len(embedding))) AS i,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings)
        SELECT a.i AS i, b.i AS j, COUNT(*) AS n,
               CAST(SUM(a.q * b.q) AS BIGINT) AS s_ij,
               CAST(SUM(a.q) AS BIGINT) AS s_i,
               CAST(SUM(b.q) AS BIGINT) AS s_j
        FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.i <= b.i
        GROUP BY 1, 2
    """,
    "pagerank_dups": """
        WITH pairs AS (
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.35
        ),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION ALL SELECT b AS u, a AS v FROM pairs),
        deg AS (SELECT u, COUNT(*) AS d FROM e GROUP BY u),
        s1 AS (SELECT e.v AS node,
                      150000 + SUM((85 * 1000000) // (100 * deg.d)) AS s
               FROM e JOIN deg ON e.u = deg.u GROUP BY e.v),
        s2 AS (SELECT e.v AS node,
                      150000 + SUM((85 * s1.s) // (100 * deg.d)) AS s
               FROM e JOIN deg ON e.u = deg.u
                      JOIN s1 ON s1.node = e.u GROUP BY e.v),
        s3 AS (SELECT e.v AS node,
                      150000 + SUM((85 * s2.s) // (100 * deg.d)) AS s
               FROM e JOIN deg ON e.u = deg.u
                      JOIN s2 ON s2.node = e.u GROUP BY e.v)
        SELECT node, CAST(s AS BIGINT) AS score FROM s3
    """,
    "event_gap_stats_user": """
        WITH s AS (SELECT user_id, epoch_us(ts) AS t,
                          LAG(epoch_us(ts)) OVER (PARTITION BY user_id
                                                  ORDER BY ts, event_id) AS pt
                   FROM events)
        SELECT user_id, COUNT(*) AS n_gaps,
               CAST(MAX(t - pt) AS BIGINT) AS max_gap_us,
               CAST(SUM(t - pt) AS BIGINT) AS sum_gap_us
        FROM s WHERE pt IS NOT NULL GROUP BY user_id
    """,
    "last_event_user": """
        WITH r AS (SELECT user_id, event_type, event_id,
                          epoch_us(ts) AS t_us,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                                             ORDER BY ts DESC,
                                                      event_id DESC) AS rn
                   FROM events)
        SELECT user_id, event_type AS last_type, t_us AS last_ts_us,
               event_id AS last_event_id
        FROM r WHERE rn = 1
    """,
    "type_cooccurrence_users": """
        WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               COUNT(*) AS n_users
        FROM d a JOIN d b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY 1, 2
    """,
    "cohort_retention_users": """
        WITH wk AS (SELECT user_id,
                           CAST(epoch_us(ts) // 604800000000 AS BIGINT) AS w
                    FROM events),
        fw AS (SELECT user_id, MIN(w) AS cw FROM wk GROUP BY user_id),
        uw AS (SELECT DISTINCT wk.user_id, fw.cw, wk.w - fw.cw AS offs
               FROM wk JOIN fw USING (user_id))
        SELECT cw AS cohort_week, offs AS week_offset,
               COUNT(*) AS n_users
        FROM uw GROUP BY 1, 2
    """,
    "transition_counts_events": """
        WITH s AS (SELECT user_id, event_type,
                          LAG(event_type) OVER (PARTITION BY user_id
                                                ORDER BY ts, event_id) AS prev
                   FROM events)
        SELECT prev AS prev_type, event_type AS next_type,
               COUNT(*) AS n
        FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
    """,
    "mode_event_type_user": """
        WITH c AS (SELECT user_id, event_type, COUNT(*) AS n
                   FROM events GROUP BY 1, 2),
        r AS (SELECT user_id, event_type, n,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY n DESC, event_type ASC) AS rn
              FROM c)
        SELECT user_id, event_type AS mode_type, n AS n_events
        FROM r WHERE rn = 1
    """,
    "cube_docs": """
        SELECT CAST(grouping(lang) + 2 * grouping(source) AS BIGINT) AS gid,
               COALESCE(lang, '*') AS lang,
               COALESCE(source, '*') AS source,
               COUNT(*) AS n,
               CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents GROUP BY CUBE(lang, source)
    """,
    "skyline_orders": """
        SELECT a.o_orderkey, a.o_totalprice,
               epoch_us(a.o_orderdate) AS o_date_us
        FROM orders a
        WHERE NOT EXISTS (
          SELECT 1 FROM orders b
          WHERE b.o_totalprice >= a.o_totalprice
            AND b.o_orderdate <= a.o_orderdate
            AND (b.o_totalprice > a.o_totalprice
                 OR b.o_orderdate < a.o_orderdate))
    """,
    "embedding_dim_stats": """
        WITH e AS (SELECT unnest(range(len(embedding))) AS dim,
                          unnest(embedding) AS v
                   FROM embeddings)
        SELECT dim, CAST(MIN(v) AS DOUBLE) AS vmin,
               CAST(MAX(v) AS DOUBLE) AS vmax,
               CAST(SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
               COUNT(*) AS n
        FROM e GROUP BY dim
    """,
    "funnel_users": """
        WITH v AS (SELECT user_id, min(epoch_us(ts)) t_v FROM events
                   WHERE event_type = 'view' GROUP BY 1),
        c AS (SELECT e.user_id, min(epoch_us(e.ts)) t_c
              FROM events e JOIN v ON v.user_id = e.user_id
              WHERE e.event_type = 'click' AND epoch_us(e.ts) > v.t_v
              GROUP BY 1),
        p AS (SELECT e.user_id, min(epoch_us(e.ts)) t_p
              FROM events e JOIN c ON c.user_id = e.user_id
              WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > c.t_c
              GROUP BY 1)
        SELECT v.user_id, t_v AS t_view_us, t_c AS t_click_us,
               t_p AS t_purchase_us
        FROM v JOIN c USING (user_id) JOIN p USING (user_id)
    """,
    "quantiles_cont_events": """
        WITH s AS (SELECT value, row_number() OVER (ORDER BY value) rn,
                          count(*) OVER () n
                   FROM events),
        qs(q_pct) AS (VALUES (50), (90)),
        calc AS (SELECT q_pct,
                        (SELECT any_value(n) FROM s) AS n,
                        ((SELECT any_value(n) FROM s) - 1) * q_pct AS num
                 FROM qs),
        rk AS (SELECT q_pct, num // 100 + 1 AS lo_rn,
                      num // 100 + 1 +
                        (CASE WHEN num % 100 = 0 THEN 0 ELSE 1 END) AS hi_rn,
                      (num % 100) * 1000000 // 100 AS frac_e6
               FROM calc)
        SELECT CAST(q_pct AS BIGINT) AS q_pct,
               lo.value AS lo_value, hi.value AS hi_value,
               CAST(frac_e6 AS BIGINT) AS frac_e6
        FROM rk JOIN s lo ON lo.rn = rk.lo_rn
                JOIN s hi ON hi.rn = rk.hi_rn
    """,
    "grouped_topk_users": """
        WITH s AS (
          SELECT event_type, user_id,
                 CAST(sum(CAST(floor(value * 10000 + 0.5) AS BIGINT))
                      AS BIGINT) AS sum_v_e4
          FROM events GROUP BY 1, 2),
        r AS (SELECT *, row_number() OVER (PARTITION BY event_type
                        ORDER BY sum_v_e4 DESC, user_id) rn FROM s)
        SELECT event_type, user_id, sum_v_e4 FROM r WHERE rn <= 3
    """,
    "corr_moments_docs": """
        SELECT lang, count(*) AS n,
               CAST(sum(x) AS BIGINT) AS sum_x,
               CAST(sum(y) AS BIGINT) AS sum_y,
               CAST(sum(x * y) AS BIGINT) AS sum_xy,
               CAST(sum(x * x) AS BIGINT) AS sum_x2,
               CAST(sum(y * y) AS BIGINT) AS sum_y2
        FROM (SELECT lang,
                     CAST(len(string_split(text, ' ')) AS BIGINT) AS x,
                     CAST(length(text) AS BIGINT) AS y
              FROM documents)
        GROUP BY lang
    """,
    "pivot_docs": """
        SELECT source,
               count(*) FILTER (lang = 'de') AS n_de,
               count(*) FILTER (lang = 'en') AS n_en,
               count(*) FILTER (lang = 'es') AS n_es,
               count(*) FILTER (lang = 'fr') AS n_fr,
               count(*) FILTER (lang = 'zh') AS n_zh
        FROM documents GROUP BY source
    """,
    "rollup_docs": """
        SELECT CAST(GROUPING(lang) + GROUPING(source) AS BIGINT) AS lvl,
               COALESCE(lang, '*') AS lang, COALESCE(source, '*') AS source,
               count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS sum_n_chars
        FROM documents GROUP BY ROLLUP (lang, source)
    """,
    "full_outer_customer_orders": """
        WITH o AS (SELECT o_custkey ck, count(*) n FROM orders
                   WHERE o_orderstatus = 'O' GROUP BY 1),
             f AS (SELECT o_custkey ck, count(*) n FROM orders
                   WHERE o_orderstatus = 'F' GROUP BY 1)
        SELECT COALESCE(o.ck, f.ck) AS custkey,
               COALESCE(o.n, 0) AS n_open, COALESCE(f.n, 0) AS n_fin
        FROM o FULL OUTER JOIN f ON f.ck = o.ck
    """,
    "followup_events": """
        SELECT l.event_id,
               count(*) AS n_follow,
               min(epoch_us(r.ts) - epoch_us(l.ts)) AS min_gap_us
        FROM events l JOIN events r
          ON r.user_id = l.user_id
         AND epoch_us(r.ts) - epoch_us(l.ts) BETWEEN 1 AND 3600000000
        WHERE l.event_type = 'click'
        GROUP BY l.event_id
    """,
    "jaccard_pairs_docs": """
        WITH w AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                 generate_subscripts(string_split(text, ' '), 1) AS i
          FROM documents
        ),
        sh AS (
          SELECT DISTINCT a.doc_id,
                 a.w || ' ' || b.w || ' ' || c.w || ' ' || d.w AS g
          FROM w a JOIN w b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                   JOIN w c ON c.doc_id = a.doc_id AND c.i = a.i + 2
                   JOIN w d ON d.doc_id = a.doc_id AND d.i = a.i + 3
        ),
        sz AS (SELECT doc_id, count(*) s FROM sh GROUP BY 1),
        pr AS (SELECT a.doc_id d1, b.doc_id d2, count(*) inter
               FROM sh a JOIN sh b USING (g)
               WHERE a.doc_id < b.doc_id GROUP BY 1, 2)
        SELECT d1, d2, inter, (sa.s + sb.s - inter) AS uni,
               (inter * 1000000) // (sa.s + sb.s - inter) AS jacc_e6
        FROM pr JOIN sz sa ON sa.doc_id = pr.d1
                JOIN sz sb ON sb.doc_id = pr.d2
        WHERE 2 * inter >= (sa.s + sb.s - inter)
    """,
    "grouped_quantiles_events": """
        WITH s AS (SELECT event_type, value,
                          row_number() OVER (PARTITION BY event_type
                                             ORDER BY value) rn,
                          count(*) OVER (PARTITION BY event_type) c
                   FROM events),
        qs(q_pct, q) AS (VALUES (50, CAST(0.5 AS DOUBLE)),
                                (95, CAST(0.95 AS DOUBLE)))
        SELECT s.event_type AS "group", CAST(q_pct AS BIGINT) AS q_pct,
               s.value AS value
        FROM qs JOIN s ON s.rn = CAST(ceil(q * s.c) AS BIGINT)
    """,
    "stratified_sample_events": """
        SELECT event_id, event_type, user_id FROM (
            SELECT event_id, event_type, user_id,
                   row_number() OVER (
                       PARTITION BY event_type
                       ORDER BY (event_id * 2654435761 % 4294967296), event_id
                   ) AS rn
            FROM events) WHERE rn <= 100
    """,
    "quantiles_events": """
        WITH s AS (SELECT value, row_number() OVER (ORDER BY value) rn
                   FROM events),
        n AS (SELECT count(*) c FROM events),
        qs(q_pct, q) AS (VALUES (25, CAST(0.25 AS DOUBLE)),
                                (50, CAST(0.5 AS DOUBLE)),
                                (75, CAST(0.75 AS DOUBLE)),
                                (95, CAST(0.95 AS DOUBLE)),
                                (99, CAST(0.99 AS DOUBLE)))
        SELECT CAST(q_pct AS BIGINT) AS q_pct, s.value AS value
        FROM qs, n JOIN s ON s.rn = CAST(ceil(q * n.c) AS BIGINT)
    """,
    "pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_e2,
               CAST(round(sum(l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT) AS sum_rev_e4,
               count(*) AS n
        FROM lineitem
        WHERE l_shipdate <= TIMESTAMP '1995-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "cust_nation_orders": """
        SELECT o.o_custkey AS custkey,
               count(*) AS n_orders,
               CAST(round(sum(o.o_totalprice) * 100) AS BIGINT) AS total_e2,
               c.c_name AS c_name,
               n.n_name AS nation
        FROM orders o
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        GROUP BY o.o_custkey, c.c_name, n.n_name
    """,
    "broadcast_join_brand_revenue": """
        SELECT p.p_brand AS p_brand,
               CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 10000) AS BIGINT) AS revenue_e4,
               count(*) AS n
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
        GROUP BY p.p_brand
    """,
    "semi_join_date_filter": """
        SELECT count(*) AS n_items,
               CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_e2
        FROM lineitem
        WHERE l_orderkey IN (
            SELECT o_orderkey FROM orders
            WHERE o_orderdate >= TIMESTAMP '1995-01-01'
              AND o_orderdate < TIMESTAMP '1996-01-01')
    """,
    "left_join_customer_orders": """
        SELECT c.c_custkey AS custkey, count(o.o_custkey) AS n_orders
        FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
        GROUP BY c.c_custkey
    """,
    "distinct_parts_per_flag": """
        SELECT l_returnflag, count(DISTINCT l_partkey) AS n_parts
        FROM lineitem GROUP BY l_returnflag
    """,
    "exact_dedup_docs": """
        SELECT text, min(doc_id) AS doc_id FROM documents GROUP BY text
    """,
    "union_order_subsets": """
        SELECT o_orderstatus, count(*) AS n FROM (
            SELECT o_orderstatus FROM orders WHERE o_totalprice > 200000
            UNION ALL
            SELECT o_orderstatus FROM orders WHERE o_totalprice < 50000
        ) GROUP BY o_orderstatus
    """,
    "topk_orders": """
        SELECT o_orderkey, o_totalprice
        FROM orders ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
    """,
    "bucket_join_priority_revenue": """
        SELECT o.o_orderpriority AS o_orderpriority,
               CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 10000) AS BIGINT) AS revenue_e4,
               count(*) AS n
        FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
        GROUP BY o.o_orderpriority
    """,
    "hash_sample_docs": """
        SELECT doc_id, n_chars FROM documents
        WHERE (doc_id * 2654435761 % 4294967296) % 10 = 0
    """,
    "event_props_stats": """
        SELECT event_type,
               CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
               count(*) AS n
        FROM events GROUP BY event_type
    """,
    "anti_join_customers": """
        SELECT c_custkey, c_mktsegment FROM customer
        WHERE c_custkey NOT IN (
            SELECT o_custkey FROM orders WHERE o_totalprice > 350000)
    """,
    "sliding_window_events": """
        SELECT event_type, w, count(*) AS n,
               CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_e2
        FROM (
            SELECT event_type, value,
                   CAST(floor(epoch(ts) / 300) AS BIGINT) AS w FROM events
            UNION ALL
            SELECT event_type, value,
                   CAST(floor(epoch(ts) / 300) AS BIGINT) - 1 AS w FROM events
        )
        WHERE w >= 0
        GROUP BY event_type, w
    """,
    "user_sessions": """
        SELECT user_id, count(*) AS n_sessions FROM (
            SELECT user_id,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS is_new
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ) WHERE is_new = 1 GROUP BY user_id
    """,
    "envelope_events": """
        SELECT min(value) AS min_x, max(value) AS max_x,
               min(CAST(user_id AS DOUBLE)) AS min_y,
               max(CAST(user_id AS DOUBLE)) AS max_y
        FROM events
    """,
    "cell_quantize_events": """
        SELECT CAST(floor(value / 5.0) AS BIGINT) AS ix,
               CAST(user_id // 10 AS BIGINT) AS iy,
               count(*) AS n
        FROM events GROUP BY 1, 2
    """,
    "pip_triangle_docs": """
        WITH pts AS (
            SELECT doc_id,
                   (doc_id * 2654435761 % 4294967296) / 4294967296.0 * 10.0 AS x,
                   ((doc_id * 40503 + 7) % 65536) / 65536.0 * 10.0 AS y
            FROM documents)
        SELECT doc_id FROM pts
        WHERE (9.0-1.0)*(y-1.0) - (2.0-1.0)*(x-1.0) > 0
          AND (5.0-9.0)*(y-2.0) - (9.0-2.0)*(x-9.0) > 0
          AND (1.0-5.0)*(y-9.0) - (1.0-9.0)*(x-5.0) > 0
    """,
    "spatial_grid_join_docs": """
        WITH pts AS (
            SELECT doc_id,
                   (doc_id * 2654435761 % 4294967296) / 4294967296.0 * 10.0 AS x,
                   ((doc_id * 40503 + 7) % 65536) / 65536.0 * 10.0 AS y
            FROM documents)
        SELECT CAST(floor(x) AS BIGINT) AS ix, CAST(floor(y) AS BIGINT) AS iy,
               count(*) AS n
        FROM pts GROUP BY 1, 2
    """,
    "window_events": """
        SELECT event_type,
               CAST(floor(epoch(ts) / 300) AS BIGINT) AS w,
               count(*) AS n,
               CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_e2
        FROM events GROUP BY 1, 2
    """,
    "distinct_users_exact": """
        SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS distinct_users FROM events
    """,
    "heavy_hitter_users": """
        SELECT user_id, n, TRUE AS mg_found FROM (
            SELECT user_id, CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY user_id
            ORDER BY n DESC, user_id ASC LIMIT 10)
    """,
    "doc_token_stats": """
        SELECT doc_id,
               len(string_split(text, ' ')) AS n_tokens,
               len(list_filter(string_split(text, ' '),
                   x -> x IN ('the','and','of','a','to','in','is','it'))) AS n_stopwords,
               len(regexp_extract_all(text, '[\\.,;:!\\?]')) AS n_punct
        FROM documents
    """,
    "doc_stats_by_lang": """
        SELECT lang, count(*) AS n, CAST(sum(n_chars) AS BIGINT) AS sum_chars
        FROM documents GROUP BY lang
    """,
    "knn_embeddings": """
        WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
                   FROM embeddings WHERE vec_id < 5),
             s AS (SELECT q.qid AS query_id, e.vec_id AS vec_id,
                          round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 6) AS cosine,
                          row_number() OVER (
                              PARTITION BY q.qid
                              ORDER BY round(list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])), 6) DESC,
                                       e.vec_id ASC) AS rn
                   FROM q CROSS JOIN embeddings e
                   WHERE e.vec_id <> q.qid)
        SELECT query_id, vec_id,
               CAST(round(cosine * 1000000) AS BIGINT) AS cosine_e6,
               CAST(rn - 1 AS BIGINT) AS rank
        FROM s WHERE rn <= 3
    """,
}



# ---------------------------------------------------------------------------
# DuckDB oracles for the flagship graft queries (driver CORRECTNESS gate)
#
# The synth image parquet materializes the derived (lon, lat) georef as
# columns (geotile/synth.py make_image_batch), and two tiny sidecars are
# written under GEOTILE_CACHE:
#   oracle_route_edges.parquet    — every edge of every route-buffer
#       polygon ring (pip._edges layout), keyed (poly_id, route_id)
#   oracle_route_segments.parquet — RDP-simplified centerline segments
#       in the kNN meter frame, with precomputed (dx, dy, inv_l2)
#       mirroring geom/pip.points_to_polyline_distance
# so pure ANSI SQL can replay the even-odd PIP join, the Morton cell
# encode (bit ops), the coarse cell counts, and the k-nearest-route
# distances with DOUBLE arithmetic in the SAME operation order as the
# numpy kernels (bit-identical results, verified in tests).
# ---------------------------------------------------------------------------

_MORTON_MASKS = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)



def _sql_spread(expr: str) -> str:
    """SQL mirror of geom.cells._spread (bit-interleave prep)."""
    for shift, mask in _MORTON_MASKS:
        expr = f"(({expr} | ({expr} << {shift})) & {mask})"
    return expr



def _sql_quant(col: str, off: str, span: str, res: int) -> str:
    """SQL mirror of geom.cells._quantize for one axis: floor in DOUBLE
    with numpy's exact operation order, clamp, cast."""
    n = 1 << res
    return (
        f"CAST(least(greatest(floor(({col} + {off}) / {span} * {float(n)!r}), 0.0), "
        f"{float(n - 1)!r}) AS BIGINT)"
    )



def _sql_cell(lon: str, lat: str, res: int) -> str:
    """SQL mirror of geom.cells.encode (int64 view of the uint64 id)."""
    ix = _sql_quant(lon, "180.0", "360.0", res)
    iy = _sql_quant(lat, "90.0", "180.0", res)
    return f"(({_sql_spread(ix)} | ({_sql_spread(iy)} << 1)) | {res << 58})"



def _oracle_cache_dir():
    import os
    from pathlib import Path

    return Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache"))



def _atomic_write_table(t: pa.Table, path) -> None:
    import os

    import pyarrow.parquet as pq

    tmp = path.with_suffix(f".tmp-{os.getpid()}")
    pq.write_table(t, tmp)
    tmp.rename(path)



def _oracle_edges_path() -> str:
    """Sidecar: route-buffer polygon edges, exactly as pip._edges builds
    them from build_route_index's ring list ([outer] + holes).
    Content-keyed on the geometry-module digest (ADVICE r2)."""
    p = _oracle_cache_dir() / f"oracle_route_edges_{_geom_digest()}.parquet"
    if not p.exists():
        from geotile.config import PipelineConfig
        from geotile.geom.pip import _edges
        from geotile.ops.join import route_buffer_polygons

        polys = route_buffer_polygons(_fixture_ctx(), PipelineConfig(coordinate_precision=5))
        pid = 0
        cols = {"poly_id": [], "route_id": [], "x1": [], "y1": [], "x2": [], "y2": []}
        for rid in sorted(polys):
            for outer, holes in polys[rid]:
                x1, y1, x2, y2 = _edges([outer] + list(holes))
                cols["poly_id"].append(np.full(len(x1), pid, dtype=np.int64))
                cols["route_id"].extend([rid] * len(x1))
                cols["x1"].append(x1)
                cols["y1"].append(y1)
                cols["x2"].append(x2)
                cols["y2"].append(y2)
                pid += 1
        t = pa.table(
            {
                "poly_id": pa.array(np.concatenate(cols["poly_id"])),
                "route_id": pa.array(cols["route_id"], pa.string()),
                **{k: pa.array(np.concatenate(cols[k])) for k in ("x1", "y1", "x2", "y2")},
            }
        )
        _atomic_write_table(t, p)
    return str(p)



def _oracle_segments_path() -> str:
    """Sidecar: kNN centerline segments in the meter frame with the same
    precomputation as points_to_polyline_distance (ax/ay, dx/dy,
    inv_l2 with the L2==0 -> 1.0 substitution). Content-keyed."""
    p = _oracle_cache_dir() / f"oracle_route_segments_{_geom_digest()}.parquet"
    if not p.exists():
        from geotile.geom.buffer import meter_frame
        from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON, route_polylines

        mx, my = meter_frame(_ANCHOR_LAT)
        lines = route_polylines(_fixture_ctx())
        cols = {"route_id": [], "ax": [], "ay": [], "dx": [], "dy": [], "inv_l2": []}
        for rid in sorted(lines):
            for part in lines[rid]:
                assert len(part) >= 2, "single-point centerline part"
                m = np.column_stack(
                    [(part[:, 0] - _ANCHOR_LON) * mx, (part[:, 1] - _ANCHOR_LAT) * my]
                )
                ax, ay = m[:-1, 0], m[:-1, 1]
                dx, dy = m[1:, 0] - ax, m[1:, 1] - ay
                L2 = dx * dx + dy * dy
                L2 = np.where(L2 == 0.0, 1.0, L2)
                cols["route_id"].extend([rid] * len(ax))
                cols["ax"].append(ax)
                cols["ay"].append(ay)
                cols["dx"].append(dx)
                cols["dy"].append(dy)
                cols["inv_l2"].append(1.0 / L2)
        t = pa.table(
            {
                "route_id": pa.array(cols["route_id"], pa.string()),
                **{
                    k: pa.array(np.concatenate(cols[k]))
                    for k in ("ax", "ay", "dx", "dy", "inv_l2")
                },
            }
        )
        _atomic_write_table(t, p)
    return str(p)



def tile_oracle_sql(sf_dir: str) -> dict[str, str]:
    """Build the DuckDB oracle SQL for the graft flagship queries over
    ``sf_dir``'s synthesized image table. Materializes the image parquet
    and the two sidecars first (idempotent, cached)."""
    from geotile.ops.join import DEFAULT_JOIN_RES, _ANCHOR_LAT, _ANCHOR_LON
    from geotile.geom.buffer import meter_frame

    img = _image_dir_for(sf_dir)
    edges = _oracle_edges_path()
    segs = _oracle_segments_path()
    mx, my = meter_frame(_ANCHOR_LAT)
    cell18 = _sql_cell("p.lon", "p.lat", DEFAULT_JOIN_RES)
    cell12 = _sql_cell("lon", "lat", 12)

    assignments = f"""
        WITH pts AS (SELECT image_id, caption, lon, lat
                     FROM read_parquet('{img}/part-*.parquet')),
        par AS (
            SELECT p.image_id, e.poly_id, e.route_id
            FROM pts p JOIN read_parquet('{edges}') e
              ON ((e.y1 > p.lat) <> (e.y2 > p.lat))
             AND (p.lon < e.x1 + (p.lat - e.y1) * (e.x2 - e.x1) / (e.y2 - e.y1))
            GROUP BY p.image_id, e.poly_id, e.route_id
            HAVING count(*) % 2 = 1
        ),
        sel AS (SELECT DISTINCT image_id, route_id FROM par)
        SELECT s.image_id, s.route_id, {cell18} AS cell, p.caption
        FROM sel s JOIN pts p USING (image_id)
    """
    cell_counts = f"""
        SELECT {cell12} AS cell, count(*) AS n_tiles
        FROM read_parquet('{img}/part-*.parquet')
        GROUP BY 1
    """
    route_fcs = f"""
        WITH pts AS (SELECT image_id, lon, lat
                     FROM read_parquet('{img}/part-*.parquet')),
        par AS (
            SELECT p.image_id, e.poly_id, e.route_id
            FROM pts p JOIN read_parquet('{edges}') e
              ON ((e.y1 > p.lat) <> (e.y2 > p.lat))
             AND (p.lon < e.x1 + (p.lat - e.y1) * (e.x2 - e.x1) / (e.y2 - e.y1))
            GROUP BY p.image_id, e.poly_id, e.route_id
            HAVING count(*) % 2 = 1
        )
        SELECT route_id, count(DISTINCT image_id) AS n_tiles
        FROM par GROUP BY route_id
    """
    knn = f"""
        WITH p AS (SELECT image_id,
                          (lon - ({_ANCHOR_LON!r})) * {mx!r} AS px,
                          (lat - ({_ANCHOR_LAT!r})) * {my!r} AS py
                   FROM read_parquet('{img}/part-*.parquet')),
        ps AS (
            SELECT p.image_id, s.route_id, p.px, p.py, s.ax, s.ay, s.dx, s.dy,
                   greatest(0.0, least(1.0,
                       ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy) * s.inv_l2)) AS t
            FROM p CROSS JOIN read_parquet('{segs}') s
        ),
        d AS (
            SELECT image_id, route_id,
                   min(((px - ax) - t * dx) * ((px - ax) - t * dx)
                     + ((py - ay) - t * dy) * ((py - ay) - t * dy)) AS d2
            FROM ps GROUP BY image_id, route_id
        ),
        r AS (
            SELECT image_id, route_id, sqrt(d2) AS dist_m,
                   row_number() OVER (
                       PARTITION BY image_id ORDER BY sqrt(d2), route_id) AS rn
            FROM d
        )
        SELECT image_id, CAST(rn - 1 AS INTEGER) AS rank, route_id, dist_m
        FROM r WHERE rn <= 2
    """
    return {
        "tile_covered_cells": _covered_cells_sql(img),
        "tile_assignments": assignments,
        "tile_cell_counts": cell_counts,
        "route_feature_collections": route_fcs,
        "tile_knn": knn,
        "tile_dissolve": _tile_dissolve_sql(img),
    }



def _mods_digest(*mods) -> str:
    """Content hash of arbitrary modules (sidecar cache keys)."""
    from hashlib import blake2b
    from pathlib import Path

    hh = blake2b(digest_size=8)
    for mod in mods:
        hh.update(Path(mod.__file__).read_bytes())
    return hh.hexdigest()



def _oracle_planes_path() -> str:
    """Sidecar: the hyperplane_buckets random planes (seed 7, n_planes=8,
    embedding dim from the testdata schema) so the bucket assignment is
    SQL-expressible via list_dot_product. Content-keyed on ann.py."""
    import battery.ops.ann as _ann

    p = _oracle_cache_dir() / f"oracle_hyperplanes_{_mods_digest(_ann)}.parquet"
    if not p.exists():
        import pyarrow.parquet as pq

        # embedding is fixed_size_list or list<float>; probe the dim
        t0 = pq.read_table(
            "/root/testdata/sf0.01/embeddings.parquet", columns=["embedding"]
        ).slice(0, 1)
        dim = len(t0["embedding"][0])
        planes = np.random.default_rng(7).standard_normal((8, dim))
        t = pa.table(
            {
                "plane_id": pa.array(np.arange(8, dtype=np.int64)),
                "v": pa.array([row.tolist() for row in planes],
                              pa.list_(pa.float64())),
            }
        )
        _atomic_write_table(t, p)
    return str(p)



_STOPWORD_SQL = "('the','and','of','a','to','in','is','it')"


DOC_QUALITY_SQL = f"""
    WITH t AS (
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS DOUBLE) AS n_tok,
               CAST(length(text) AS DOUBLE) AS n_chars,
               CAST(len(list_filter(string_split(text, ' '),
                        x -> x IN {_STOPWORD_SQL})) AS DOUBLE) AS n_stop
        FROM documents
    ), s AS (
        SELECT doc_id,
               CASE WHEN n_tok > 0 THEN n_stop / n_tok ELSE 0.0 END AS stop_ratio,
               CASE WHEN n_tok > 0 THEN (n_chars - (n_tok - 1)) / n_tok ELSE 0.0 END AS mean_len,
               least(greatest((n_tok - 5) / 45.0, 0.0), 1.0) AS len_ok
        FROM t
    )
    SELECT doc_id,
           CAST(round(round(least(greatest(
               0.4 * len_ok
               + 0.3 * least(greatest(1.0 - abs(stop_ratio - 0.08) * 4.0, 0.0), 1.0)
               + 0.3 * least(greatest(1.0 - abs(mean_len - 4.5) / 4.5, 0.0), 1.0)
           , 0.0), 1.0), 6) * 1000000.0) AS BIGINT) AS quality_e6
    FROM s
"""


EMBEDDING_DUPS_SQL = """
    SELECT a.vec_id AS a, b.vec_id AS b,
           round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                        CAST(b.embedding AS DOUBLE[])), 6) AS cosine
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                 CAST(b.embedding AS DOUBLE[])) >= 0.35
"""



def _embedding_buckets_sql() -> str:
    planes = _oracle_planes_path()
    return f"""
        SELECT bucket, count(*) AS n FROM (
            SELECT e.vec_id,
                   CAST(sum(CASE WHEN list_dot_product(CAST(e.embedding AS DOUBLE[]), p.v) > 0
                            THEN (1 << p.plane_id) ELSE 0 END) AS BIGINT) AS bucket
            FROM embeddings e CROSS JOIN read_parquet('{planes}') p
            GROUP BY e.vec_id
        ) GROUP BY bucket
    """



def _sql_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(words)) + "]"



def _lang_id_sql() -> str:
    from battery.ops.text import _LANG_MARKERS

    en, es, fr, de = (_sql_list(_LANG_MARKERS[k]) for k in ("en", "es", "fr", "de"))
    return f"""
        WITH t AS (
            SELECT doc_id, lang,
                   regexp_matches(substr(text, 1, 400), '[一-鿿]') AS cjk,
                   list_distinct(string_split_regex(
                       lower(substr(text, 1, 2000)), '\\s+')) AS words
            FROM documents
        ), v AS (
            SELECT doc_id, lang, cjk,
                   len(list_intersect(words, {en})) AS en_n,
                   len(list_intersect(words, {es})) AS es_n,
                   len(list_intersect(words, {fr})) AS fr_n,
                   len(list_intersect(words, {de})) AS de_n
            FROM t
        )
        SELECT doc_id, lang,
               CASE WHEN cjk THEN 'zh'
                    WHEN en_n >= es_n AND en_n >= fr_n AND en_n >= de_n THEN 'en'
                    WHEN es_n >= fr_n AND es_n >= de_n THEN 'es'
                    WHEN fr_n >= de_n THEN 'fr'
                    ELSE 'de' END AS lang_pred
        FROM v
    """



# ---------------------------------------------------------------------------
# hash-family oracle sidecars: INDEPENDENT scalar-Python replays
# (battery/oracle_ref.py — pure-int arithmetic, no numpy data path) so a
# vectorization bug in ops/hashing/dedup/sketch cannot hide in the oracle
# ---------------------------------------------------------------------------

def _read_docs(sf_dir: str) -> list[tuple[int, str]]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))



def _ref_sidecar(sf_dir: str, name: str, build) -> str:
    """Cached scalar-replay sidecar under GEOTILE_CACHE, content-keyed
    on oracle_ref.py (ADVICE r2: existence-keyed sidecars go stale)."""
    import battery.oracle_ref as _ref
    from pathlib import Path

    sf = Path(sf_dir).name
    p = _oracle_cache_dir() / f"oracle_{name}_{sf}_{_mods_digest(_ref)}.parquet"
    if not p.exists():
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(build(), p)
    return str(p)



def _u2i(v: int) -> int:
    return v - (1 << 64) if v >= (1 << 63) else v



def _fingerprint_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import fingerprint

    def build() -> pa.Table:
        docs = _read_docs(sf_dir)
        return pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "fingerprint": pa.array([_u2i(fingerprint(t)) for _, t in docs], pa.int64()),
            }
        )

    return _ref_sidecar(sf_dir, "fingerprint", build)



def _simhash_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import simhash

    def build() -> pa.Table:
        docs = _read_docs(sf_dir)
        return pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "simhash": pa.array([_u2i(simhash(t)) for _, t in docs], pa.int64()),
            }
        )

    return _ref_sidecar(sf_dir, "simhash", build)



def _simhash_pairs_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import simhash_pairs_ref

    def build() -> pa.Table:
        pairs = simhash_pairs_ref(_read_docs(sf_dir), max_hamming=4)
        return pa.table(
            {
                "a": pa.array([a for a, _, _ in pairs], pa.int64()),
                "b": pa.array([b for _, b, _ in pairs], pa.int64()),
                "hamming": pa.array([d for _, _, d in pairs], pa.int64()),
            }
        )

    return _ref_sidecar(sf_dir, "simhash_pairs", build)



def _simhash_pairs_sql(sf_dir: str) -> str:
    return f"SELECT a, b, hamming FROM read_parquet('{_simhash_pairs_sidecar(sf_dir)}')"



def _minhash_pairs_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import minhash_lsh_pairs_ref

    def build() -> pa.Table:
        pairs = minhash_lsh_pairs_ref(_read_docs(sf_dir), threshold=0.35)
        return pa.table(
            {
                "a": pa.array([a for a, _, _ in pairs], pa.int64()),
                "b": pa.array([b for _, b, _ in pairs], pa.int64()),
                "jaccard_e6": pa.array(
                    [int(round(j * 1_000_000)) for _, _, j in pairs], pa.int64()
                ),
            }
        )

    return _ref_sidecar(sf_dir, "minhash_pairs", build)



def _hll_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import hll_estimate_ref

    def build() -> pa.Table:
        import pyarrow.parquet as pq

        users = pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
        distinct = sorted(set(users["user_id"].to_pylist()))
        # HLL registers over distinct values == over the full stream
        est = int(round(hll_estimate_ref(distinct, p=12)))
        return pa.table({"est": pa.array([est], pa.int64())})

    return _ref_sidecar(sf_dir, "hll", build)



def _hll_grouped_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import hll_estimate_ref

    def build() -> pa.Table:
        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
        df = t.to_pandas()
        rows = [
            (et, int(round(hll_estimate_ref(sorted(set(g["user_id"])), p=12))))
            for et, g in df.groupby("event_type")
        ]
        return pa.table(
            {
                "event_type": pa.array([r[0] for r in rows], pa.string()),
                "est": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    return _ref_sidecar(sf_dir, "hll_grouped", build)



def _phash_neighbor_sql(img_dir: str) -> str:
    """Exact SQL replay of the 2-band pigeonhole Hamming-1 join: any
    pair within distance 1 agrees exactly on the low or high 32-bit
    half, so the band self-join is a lossless candidate generator; the
    bit_count(xor) filter and the degree histogram replay the engine's
    reduction. Ids never reach the output, so the engine's int ids and
    this replay's string ids hash identically."""
    return f"""
        WITH t AS (SELECT image_id, phash
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        b AS (SELECT image_id, phash, u.band,
                     CASE u.band WHEN 0 THEN phash & 4294967295
                                 ELSE (phash >> 32) & 4294967295 END AS key
              FROM t, unnest([0, 1]) AS u(band)),
        cand AS (SELECT DISTINCT a.image_id i1, c.image_id i2,
                        a.phash p1, c.phash p2
                 FROM b a JOIN b c
                   ON c.band = a.band AND c.key = a.key
                  AND a.image_id < c.image_id),
        pairs AS (SELECT i1, i2 FROM cand WHERE bit_count(xor(p1, p2)) <= 1),
        deg AS (SELECT image_id, count(*) AS n_neighbors
                FROM (SELECT i1 AS image_id FROM pairs
                      UNION ALL SELECT i2 FROM pairs)
                GROUP BY 1)
        SELECT CAST(n_neighbors AS BIGINT) AS n_neighbors,
               count(*) AS n_images
        FROM deg GROUP BY 1
    """



def _hll_grouped_sql(sf_dir: str) -> str:
    return f"""
        SELECT e.event_type,
               CAST(any_value(s.est) AS BIGINT) AS distinct_users_est,
               CAST(count(DISTINCT e.user_id) AS BIGINT) AS distinct_users,
               TRUE AS est_ok
        FROM events e JOIN read_parquet('{_hll_grouped_sidecar(sf_dir)}') s
          ON s.event_type = e.event_type
        GROUP BY e.event_type
    """



def _fingerprint_sql(sf_dir: str) -> str:
    return f"SELECT doc_id, fingerprint FROM read_parquet('{_fingerprint_sidecar(sf_dir)}')"



def _simhash_sql(sf_dir: str) -> str:
    return f"SELECT doc_id, simhash FROM read_parquet('{_simhash_sidecar(sf_dir)}')"



def _minhash_pairs_sql(sf_dir: str) -> str:
    return f"SELECT a, b, jaccard_e6 FROM read_parquet('{_minhash_pairs_sidecar(sf_dir)}')"



def _hll_sql(sf_dir: str) -> str:
    return f"""
        SELECT CAST((SELECT est FROM read_parquet('{_hll_sidecar(sf_dir)}')) AS BIGINT)
                   AS distinct_users_est,
               CAST(count(DISTINCT user_id) AS BIGINT) AS distinct_users,
               TRUE AS est_ok
        FROM events
    """



_IVF_ANN_SQL = """
    SELECT DISTINCT CAST(vec_id AS BIGINT) AS query_id,
           TRUE AS recall_ok, TRUE AS mean_ok
    FROM embeddings WHERE vec_id < 5
"""



def q_tile_covered_cells(sf_dir: str):
    """Distinct res-18 cells covered by any tile footprint — the
    dissolve operator's raster input set, exposed for the driver's
    correctness gate (the dissolve polygons themselves are checked
    against the in-memory trace in tests/test_join.py)."""
    from geotile.ops.join import DEFAULT_JOIN_RES
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    cov = ds.map_batches(
        lambda b: _footprint_cells(b, DEFAULT_JOIN_RES),
        batch_format="pyarrow", batch_size=65536, zero_copy_batch=True,
    )
    return cov.groupby("cell").count().select_columns(["cell"])



QUERIES["tile_covered_cells"] = q_tile_covered_cells



_WINDOW_STATS_SQL = """
        anchors AS (
            SELECT cov.ix - d.dx AS gx, cov.iy - d.dy AS gy, d.bit AS bit
            FROM cov, (VALUES (0,0,1),(1,0,2),(1,1,4),(0,1,8)) d(dx,dy,bit)
        ),
        cases AS (
            SELECT gx, gy, bit_or(bit) AS c FROM anchors GROUP BY gx, gy
        ),
        w AS (
            SELECT CASE WHEN c IN (1,2,4,8) THEN 1 WHEN c IN (3,6,9,12) THEN 4
                        WHEN c IN (5,10) THEN 2 WHEN c IN (7,11,13,14) THEN 7
                        ELSE 8 END AS a8,
                   CASE WHEN c IN (1,2,4,8) THEN 1 ELSE 0 END AS q1,
                   CASE WHEN c IN (7,11,13,14) THEN 1 ELSE 0 END AS q3,
                   CASE WHEN c IN (5,10) THEN 1 ELSE 0 END AS qd
            FROM cases
        )
        SELECT (SELECT CAST(count(*) AS BIGINT) FROM cov) AS {count_col},
               CAST(sum(a8) AS BIGINT) AS area_octo,
               CAST((sum(q1) - sum(q3) + 2 * sum(qd)) // 4 AS BIGINT) AS euler
        FROM w
"""



def _covered_ixy_cte(img: str) -> str:
    """WITH-fragment producing ``cov(ix, iy)`` — the DISTINCT integer
    cell coordinates any tile footprint touches; SQL replay of
    _footprint_cells (constants mirror tiles.footprint_quads /
    cells.cell_size_degrees bit-for-bit)."""
    from geotile.geom import cells as cellmod
    from geotile.ops.join import DEFAULT_JOIN_RES
    from geotile.ops.tiles import TILE_SIDE_M

    res = DEFAULT_JOIN_RES
    dlon, dlat = cellmod.cell_size_degrees(res)
    m_per_deg_lat = float(np.float64(6371008.8) * np.pi / 180.0)
    m_per_deg_lon = float(m_per_deg_lat * np.cos(np.radians(37.4)))
    hw_lon = float(TILE_SIDE_M / 2 / m_per_deg_lon)
    hw_lat = float(TILE_SIDE_M / 2 / m_per_deg_lat)

    def q(expr, off, step):
        return f"CAST(floor((({expr}) + {off}) / {step!r}) AS BIGINT)"

    return f"""
        pts AS (SELECT lon, lat FROM read_parquet('{img}/part-*.parquet')),
        c AS (
            SELECT {q(f'lon - ({hw_lon!r})', '180.0', dlon)} AS x0,
                   {q(f'lon + ({hw_lon!r})', '180.0', dlon)} AS x1,
                   {q(f'lat - ({hw_lat!r})', '90.0', dlat)} AS y0,
                   {q(f'lat + ({hw_lat!r})', '90.0', dlat)} AS y1
            FROM pts
        ),
        cov AS (
            -- full integer bbox: a 100 m tile spans up to 2 cells in lon
            -- but up to 3 in lat (res-18 lat cells are ~76 m)
            SELECT DISTINCT x0 + dx.v AS ix, y0 + dy.v AS iy
            FROM c, (VALUES (0),(1),(2)) dx(v), (VALUES (0),(1),(2)) dy(v)
            WHERE x0 + dx.v <= x1 AND y0 + dy.v <= y1
        )"""



def _covered_cells_sql(img: str) -> str:
    """Packed DISTINCT cell ids from the covered-(ix,iy) CTE."""
    from geotile.ops.join import DEFAULT_JOIN_RES

    cell = (
        f"(({_sql_spread('ix')} | ({_sql_spread('iy')} << 1)) | {DEFAULT_JOIN_RES << 58})"
    )
    return f"""
        WITH {_covered_ixy_cte(img)}
        SELECT DISTINCT {cell} AS cell FROM cov
    """



def _tile_dissolve_sql(img: str) -> str:
    """Dissolve invariants replayed from geometry alone: covered-cell
    count + marching-squares window-case area (exact eighth-cells) +
    Euler number (Q1 − Q3 + 2·Q_diag)/4 — the engine derives the same
    three numbers from the traced contours instead."""
    stats = _WINDOW_STATS_SQL.format(count_col="n_cells")
    return f"""
        WITH {_covered_ixy_cte(img)},
        {stats}
    """



def _cm_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import cm_estimates_ref
    import pyarrow.parquet as pq

    def build() -> pa.Table:
        vals = pq.read_table(
            f"{sf_dir}/events.parquet", columns=["user_id"]
        )["user_id"].to_pylist()
        est = cm_estimates_ref(vals, sorted(set(vals)))
        ids = sorted(est)
        return pa.table(
            {
                "user_id": pa.array(ids, pa.int64()),
                "est_cnt": pa.array([est[i] for i in ids], pa.int64()),
            }
        )

    return _ref_sidecar(sf_dir, "cm_user", build)



def _cm_sql(sf_dir: str) -> str:
    return f"""
        SELECT e.user_id, s.est_cnt, COUNT(*) AS exact_cnt,
               s.est_cnt >= COUNT(*) AS over_ok
        FROM events e JOIN read_parquet('{_cm_sidecar(sf_dir)}') s
          USING (user_id)
        GROUP BY e.user_id, s.est_cnt
    """



def _image_hist_sidecar(img: str, n: int = 1024) -> str:
    """Generator-replay sidecar for image_channel_histogram: rebuild
    the expected per-channel histogram from synth.pixel_pattern (the
    ground truth the payloads were ENCODED from — independent of the
    engine's PNG decode path) with a different counting kernel
    (np.unique vs the stage's bincount). Content-keyed on synth.py so
    generator edits invalidate it (ADVICE r2: existence-keyed sidecars
    go stale)."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_imghist_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        acc = np.zeros((3, 16), dtype=np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = (ws == wi) & (hs == hi)
            px = _sy.pixel_pattern(idx[m], wi, hi)  # (k, h, w, 3) uint8
            for c in range(3):
                vals, cnts = np.unique(px[..., c] >> 4, return_counts=True)
                acc[c, vals] += cnts
        out = pa.table(
            {
                "channel": pa.array(np.repeat(np.arange(3, dtype=np.int64), 16)),
                "bin": pa.array(np.tile(np.arange(16, dtype=np.int64), 3)),
                "cnt": pa.array(acc.ravel()),
            }
        )
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _image_hist_sql(img: str) -> str:
    return (
        f"SELECT channel, bin, cnt "
        f"FROM read_parquet('{_image_hist_sidecar(img)}')"
    )



def _image_patch_sidecar(img: str, n: int = 512) -> str:
    """Generator-replay sidecar for image_patch_sums: rebuild the
    expected patch sums from synth.pixel_pattern (ground truth the
    payloads were ENCODED from — independent of the PNG decode path)
    with a DIFFERENT reduction kernel (2D inclusion-exclusion over
    prefix sums vs the stage's reduceat). Content-keyed on synth.py."""
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    G = 4
    p = _oracle_cache_dir() / (
        f"oracle_imgpatch_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order).to_numpy(zero_copy_only=False)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(t["image_id"].take(order)).astype(np.uint64)
        rows_id, rows_patch, rows_sum, rows_npx = [], [], [], []
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = (ws == wi) & (hs == hi)
            px = _sy.pixel_pattern(idx[m], wi, hi)  # (k, h, w, 3) uint8
            g2 = px.astype(np.int64).sum(axis=3)
            # 2D prefix sums with a zero border, then inclusion-exclusion
            P = np.zeros((g2.shape[0], hi + 1, wi + 1), np.int64)
            P[:, 1:, 1:] = g2.cumsum(axis=1).cumsum(axis=2)
            rb = np.r_[(np.arange(G) * hi) // G, hi]
            cb = np.r_[(np.arange(G) * wi) // G, wi]
            for r in range(G):
                for c in range(G):
                    sm = (P[:, rb[r + 1], cb[c + 1]] - P[:, rb[r], cb[c + 1]]
                          - P[:, rb[r + 1], cb[c]] + P[:, rb[r], cb[c]])
                    rows_id.append(ids[m])
                    rows_patch.append(np.full(int(m.sum()), r * G + c,
                                              np.int64))
                    rows_sum.append(sm)
                    rows_npx.append(np.full(
                        int(m.sum()),
                        int((rb[r + 1] - rb[r]) * (cb[c + 1] - cb[c])),
                        np.int64))
        out = pa.table({
            "image_id": pa.array(np.concatenate(rows_id)),
            "patch": pa.array(np.concatenate(rows_patch)),
            "sum_px": pa.array(np.concatenate(rows_sum)),
            "n_px": pa.array(np.concatenate(rows_npx)),
        })
        import pyarrow.parquet as pqw

        pqw.write_table(out, p)
    return str(p)



def _image_patch_sql(img: str) -> str:
    return (
        f"SELECT image_id, patch, sum_px, n_px "
        f"FROM read_parquet('{_image_patch_sidecar(img)}')"
    )



def _image_invariants_sql(img: str) -> str:
    """Invariant oracle: the engine DECODES each payload (raw + from-
    scratch PNG) and re-derives the perceptual hash; the oracle states
    the expected result — phash_ok true for the first 1000 image ids.
    A decode or phash regression flips rows to false and fails the
    value hash."""
    return f"""
        SELECT image_id, TRUE AS phash_ok
        FROM read_parquet('{img}/part-*.parquet')
        ORDER BY image_id LIMIT 1000
    """



def _image_embeddings_sql(img: str) -> str:
    """Invariant oracle: the embed stage must emit one 64-dim vector per
    image for the first 512 ids."""
    return f"""
        SELECT image_id, CAST(64 AS BIGINT) AS dim
        FROM read_parquet('{img}/part-*.parquet')
        ORDER BY image_id LIMIT 512
    """



def _fixture_sql_dir() -> str:
    import os
    from pathlib import Path

    _fixture_ctx()  # ensure the fixture parquet exists before SQL reads it
    return str(Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache")) / "caltrain")



def _gtfs_envelope_sql() -> str:
    """bbox replay: raw min/max over the shape points of routes that
    have shapes (reference envelope.ts:14 keeps bbox unrounded)."""
    d = _fixture_sql_dir()
    return f"""
        SELECT min(shape_pt_lon) AS west, min(shape_pt_lat) AS south,
               max(shape_pt_lon) AS east, max(shape_pt_lat) AS north
        FROM read_parquet('{d}/shapes.parquet')
        WHERE shape_id IN (
            SELECT DISTINCT shape_id FROM read_parquet('{d}/trips.parquet')
            WHERE shape_id IS NOT NULL)
    """



def _gtfs_line_features_sql() -> str:
    """Ordered-coordinate replay of shape_line_features: flatten each
    route's shape points by (shape_id, shape_pt_sequence) and fold the
    position-weighted checksum (row_number replays the emit order)."""
    d = _fixture_sql_dir()
    return f"""
        WITH rs AS (
            SELECT DISTINCT route_id, shape_id
            FROM read_parquet('{d}/trips.parquet') WHERE shape_id IS NOT NULL
        ),
        pts AS (
            SELECT r.route_id, s.shape_pt_lon AS lon, s.shape_pt_lat AS lat,
                   r.shape_id,
                   row_number() OVER (
                       PARTITION BY r.route_id
                       ORDER BY r.shape_id, s.shape_pt_sequence) AS rn
            FROM rs r JOIN read_parquet('{d}/shapes.parquet') s USING (shape_id)
        )
        SELECT route_id,
               CAST(count(DISTINCT shape_id) AS BIGINT) AS n_parts,
               CAST(count(*) AS BIGINT) AS n_points,
               CAST(round(sum(rn * (lon + lat)) * 100) AS BIGINT) AS checksum_e2
        FROM pts GROUP BY route_id
    """



def _gtfs_convex_hull_sql() -> str:
    """Convex-hull replay over the used-stop point set: a point is a
    STRICT hull vertex iff no triangle (or degenerate segment) of other
    points contains it (the three crosses sum to 2·area(abc), so a
    degenerate triangle never false-positives an off-line point); ring
    order = polar angle around the lexicographic-min vertex (Graham
    order == monotone-chain CCW ring), closed by repeating vertex 0."""
    d = _fixture_sql_dir()
    return f"""
        WITH used AS (
            SELECT DISTINCT s.stop_id
            FROM read_parquet('{d}/stop_times.parquet') s
            JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
            WHERE t.route_id IN (SELECT route_id FROM read_parquet('{d}/routes.parquet'))
        ),
        stops AS (SELECT * FROM read_parquet('{d}/stops.parquet')),
        sel AS (
            SELECT stop_id FROM used
            UNION
            SELECT DISTINCT st.parent_station
            FROM stops st JOIN used u ON u.stop_id = st.stop_id
            WHERE st.parent_station IS NOT NULL AND st.parent_station <> ''
        ),
        pts AS (
            SELECT lon, lat, row_number() OVER (ORDER BY lon, lat) AS pid FROM (
                SELECT DISTINCT st.stop_lon AS lon, st.stop_lat AS lat
                FROM sel JOIN stops st USING (stop_id)
            )
        ),
        vtx AS (
            SELECT p.lon, p.lat FROM pts p
            WHERE NOT EXISTS (
                SELECT 1 FROM pts a, pts b, pts c
                WHERE a.pid < b.pid AND b.pid < c.pid
                  AND p.pid NOT IN (a.pid, b.pid, c.pid)
                  AND (
                    SELECT CASE WHEN least(c1, c2, c3) >= 0 OR greatest(c1, c2, c3) <= 0
                           THEN 1 ELSE 0 END
                    FROM (SELECT
                        (b.lon-a.lon)*(p.lat-a.lat) - (b.lat-a.lat)*(p.lon-a.lon) AS c1,
                        (c.lon-b.lon)*(p.lat-b.lat) - (c.lat-b.lat)*(p.lon-b.lon) AS c2,
                        (a.lon-c.lon)*(p.lat-c.lat) - (a.lat-c.lat)*(p.lon-c.lon) AS c3)
                  ) = 1
            )
        ),
        s AS (SELECT lon, lat FROM vtx ORDER BY lon, lat LIMIT 1),
        ring AS (
            SELECT v.lon, v.lat,
                   row_number() OVER (ORDER BY
                       CASE WHEN v.lon = s.lon AND v.lat = s.lat THEN -10.0
                            ELSE atan2(v.lat - s.lat, v.lon - s.lon) END) - 1 AS idx
            FROM vtx v, s
        )
        SELECT CAST(idx AS BIGINT) AS idx, lon, lat FROM ring
        UNION ALL
        SELECT (SELECT count(*) FROM ring), lon, lat FROM ring WHERE idx = 0
    """



# ---------------------------------------------------------------------------
# raster replay sidecars + SQL (buffer / dissolve): the DuckDB side
# re-derives the filled pixel set from geometry with the engine's exact
# IEEE arithmetic, then computes area/Euler from window cases while the
# engine computes them from the traced contours
# ---------------------------------------------------------------------------

def _buffer_segments_sidecar() -> str:
    """Per-route centerline segments in the buffer's metric frame plus
    the integer pixel windows distance_mask scans (same float ops), and
    the grid origin. Content-keyed on the geometry digest."""
    p = _oracle_cache_dir() / f"oracle_buffer_segments_{_geom_digest()}.parquet"
    if not p.exists():
        from geotile.config import PipelineConfig
        from geotile.geom.buffer import buffer_raster

        ctx = _fixture_ctx()
        cfg = PipelineConfig()
        r = cfg.buffer_size_meters
        cols = {k: [] for k in ("route_id", "ax", "ay", "dx", "dy", "l2",
                                "i0", "i1", "j0", "j1", "x0", "y0")}
        parts_by_route = _route_line_parts(ctx)
        for rid in sorted(parts_by_route):
            _mask, grid, metric, _l0, _a0, _mx, _my = buffer_raster(
                parts_by_route[rid], r, cfg.raster_cells_per_radius
            )
            for ml in metric:
                segs = (
                    list(zip(ml[:-1], ml[1:])) if len(ml) > 1 else [(ml[0], ml[0])]
                )
                for a, b in segs:
                    # the same window math as raster.distance_mask
                    xmin = min(a[0], b[0]) - r
                    xmax = max(a[0], b[0]) + r
                    ymin = min(a[1], b[1]) - r
                    ymax = max(a[1], b[1]) + r
                    i0 = max(0, int(np.floor((xmin - grid.x0) / grid.step - 0.5)))
                    i1 = min(grid.nx, int(np.ceil((xmax - grid.x0) / grid.step + 0.5)))
                    j0 = max(0, int(np.floor((ymin - grid.y0) / grid.step - 0.5)))
                    j1 = min(grid.ny, int(np.ceil((ymax - grid.y0) / grid.step + 0.5)))
                    dx, dy = b[0] - a[0], b[1] - a[1]
                    cols["route_id"].append(rid)
                    cols["ax"].append(float(a[0]))
                    cols["ay"].append(float(a[1]))
                    cols["dx"].append(float(dx))
                    cols["dy"].append(float(dy))
                    cols["l2"].append(float(dx * dx + dy * dy))
                    cols["i0"].append(i0)
                    cols["i1"].append(i1)
                    cols["j0"].append(j0)
                    cols["j1"].append(j1)
                    cols["x0"].append(grid.x0)
                    cols["y0"].append(grid.y0)
        t = pa.table(
            {
                "route_id": pa.array(cols["route_id"], pa.string()),
                **{k: pa.array(cols[k], pa.float64())
                   for k in ("ax", "ay", "dx", "dy", "l2", "x0", "y0")},
                **{k: pa.array(cols[k], pa.int64()) for k in ("i0", "i1", "j0", "j1")},
            }
        )
        _atomic_write_table(t, p)
    return str(p)



def _gtfs_buffer_stats_sql() -> str:
    import pyarrow.parquet as pq

    from geotile.config import PipelineConfig

    cfg = PipelineConfig()
    step = cfg.buffer_size_meters / cfg.raster_cells_per_radius
    r2 = cfg.buffer_size_meters * cfg.buffer_size_meters
    segs = _buffer_segments_sidecar()
    # DuckDB 1.0 can't take lateral column params in generate_series —
    # join a static 0..max offset table with range predicates instead
    st = pq.read_table(segs, columns=["i0", "i1", "j0", "j1"])
    wmax = int(pc.max(pc.subtract(st["i1"], st["i0"])).as_py() or 1)
    hmax = int(pc.max(pc.subtract(st["j1"], st["j0"])).as_py() or 1)
    return f"""
        WITH segs AS (SELECT * FROM read_parquet('{segs}')),
        xr AS (SELECT CAST(a AS BIGINT) AS v FROM generate_series(0, {wmax - 1}) t(a)),
        yr AS (SELECT CAST(a AS BIGINT) AS v FROM generate_series(0, {hmax - 1}) t(a)),
        hits AS (
            SELECT DISTINCT s.route_id, s.i0 + xr.v AS ix, s.j0 + yr.v AS iy
            FROM segs s
            JOIN xr ON xr.v < s.i1 - s.i0
            JOIN yr ON yr.v < s.j1 - s.j0,
                 LATERAL (SELECT s.x0 + ((s.i0 + xr.v) + 0.5) * {step!r} AS px,
                                 s.y0 + ((s.j0 + yr.v) + 0.5) * {step!r} AS py) p,
                 LATERAL (SELECT CASE WHEN s.l2 = 0.0 THEN 0.0
                          ELSE least(greatest(
                              ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy) / s.l2,
                              0.0), 1.0) END AS t) tt
            WHERE (p.px - (s.ax + tt.t * s.dx)) * (p.px - (s.ax + tt.t * s.dx))
                + (p.py - (s.ay + tt.t * s.dy)) * (p.py - (s.ay + tt.t * s.dy))
                <= {r2!r}
        ),
        anchors AS (
            SELECT h.route_id, h.ix - d.dx AS gx, h.iy - d.dy AS gy, d.bit AS bit
            FROM hits h, (VALUES (0,0,1),(1,0,2),(1,1,4),(0,1,8)) d(dx,dy,bit)
        ),
        cases AS (
            SELECT route_id, gx, gy, bit_or(bit) AS c FROM anchors GROUP BY 1, 2, 3
        ),
        w AS (
            SELECT route_id,
                   CASE WHEN c IN (1,2,4,8) THEN 1 WHEN c IN (3,6,9,12) THEN 4
                        WHEN c IN (5,10) THEN 2 WHEN c IN (7,11,13,14) THEN 7
                        ELSE 8 END AS a8,
                   CASE WHEN c IN (1,2,4,8) THEN 1 ELSE 0 END AS q1,
                   CASE WHEN c IN (7,11,13,14) THEN 1 ELSE 0 END AS q3,
                   CASE WHEN c IN (5,10) THEN 1 ELSE 0 END AS qd
            FROM cases
        ),
        px AS (SELECT route_id, count(*) AS n FROM hits GROUP BY 1)
        SELECT w.route_id, CAST(any_value(px.n) AS BIGINT) AS n_pixels,
               CAST(sum(w.a8) AS BIGINT) AS area_octo,
               CAST((sum(w.q1) - sum(w.q3) + 2 * sum(w.qd)) // 4 AS BIGINT) AS euler
        FROM w JOIN px USING (route_id)
        GROUP BY w.route_id
    """



def _dissolve_edges_sidecar() -> str:
    """Per-feature polygon edges of the simplified buffered stop discs
    in the dissolve's shared metric frame, plus per-feature integer
    pixel windows and the grid origin. Content-keyed."""
    p = _oracle_cache_dir() / f"oracle_dissolve_edges_{_geom_digest()}.parquet"
    if not p.exists():
        from geotile.config import PipelineConfig
        from geotile.ops.derive import dissolve_raster

        ctx = _fixture_ctx()
        cfg = PipelineConfig(coordinate_precision=5)
        cell_m = cfg.buffer_size_meters / cfg.raster_cells_per_radius
        feats = _dissolved_input_feats(ctx, cfg)
        _mask, grid, metric, _l0, _a0, _mx, _my = dissolve_raster(feats, cell_m)
        cols = {k: [] for k in ("fid", "x1", "y1", "x2", "y2",
                                "fi0", "fi1", "fj0", "fj1", "x0", "y0")}
        for fid, rings in enumerate(metric):
            allp = np.vstack(rings)
            # pixel centers possibly inside the feature's bbox (±1 margin
            # is harmless: outside the ring the parity is even)
            fi0 = max(0, int(np.floor((allp[:, 0].min() - grid.x0) / grid.step - 0.5)) - 1)
            fi1 = min(grid.nx - 1, int(np.ceil((allp[:, 0].max() - grid.x0) / grid.step)) + 1)
            fj0 = max(0, int(np.floor((allp[:, 1].min() - grid.y0) / grid.step - 0.5)) - 1)
            fj1 = min(grid.ny - 1, int(np.ceil((allp[:, 1].max() - grid.y0) / grid.step)) + 1)
            for ring in rings:
                rr = np.asarray(ring, np.float64)
                if len(rr) < 3:
                    continue
                if not (rr[0] == rr[-1]).all():
                    rr = np.vstack([rr, rr[:1]])
                n_e = len(rr) - 1
                cols["fid"].append(np.full(n_e, fid, dtype=np.int64))
                cols["x1"].append(rr[:-1, 0])
                cols["y1"].append(rr[:-1, 1])
                cols["x2"].append(rr[1:, 0])
                cols["y2"].append(rr[1:, 1])
                for k, v in (("fi0", fi0), ("fi1", fi1), ("fj0", fj0), ("fj1", fj1)):
                    cols[k].append(np.full(n_e, v, dtype=np.int64))
                cols["x0"].append(np.full(n_e, grid.x0))
                cols["y0"].append(np.full(n_e, grid.y0))
        t = pa.table({k: pa.array(np.concatenate(v)) for k, v in cols.items()})
        _atomic_write_table(t, p)
    return str(p)



def _gtfs_dissolved_stats_sql() -> str:
    import pyarrow.parquet as pq

    from geotile.config import PipelineConfig

    cfg = PipelineConfig(coordinate_precision=5)
    step = cfg.buffer_size_meters / cfg.raster_cells_per_radius
    edges = _dissolve_edges_sidecar()
    et = pq.read_table(edges, columns=["fi0", "fi1", "fj0", "fj1"])
    wmax = int(pc.max(pc.subtract(et["fi1"], et["fi0"])).as_py() or 1)
    hmax = int(pc.max(pc.subtract(et["fj1"], et["fj0"])).as_py() or 1)
    stats = _WINDOW_STATS_SQL.format(count_col="n_pixels")
    return f"""
        WITH e AS (SELECT * FROM read_parquet('{edges}')),
        f AS (SELECT DISTINCT fid, fi0, fi1, fj0, fj1, x0, y0 FROM e),
        xr AS (SELECT CAST(a AS BIGINT) AS v FROM generate_series(0, {wmax}) t(a)),
        yr AS (SELECT CAST(a AS BIGINT) AS v FROM generate_series(0, {hmax}) t(a)),
        cov AS (
            SELECT DISTINCT ix, iy FROM (
                SELECT ff.fid, ff.fi0 + xr.v AS ix, ff.fj0 + yr.v AS iy
                FROM f ff
                JOIN xr ON xr.v <= ff.fi1 - ff.fi0
                JOIN yr ON yr.v <= ff.fj1 - ff.fj0,
                     LATERAL (SELECT ff.x0 + ((ff.fi0 + xr.v) + 0.5) * {step!r} AS px,
                                     ff.y0 + ((ff.fj0 + yr.v) + 0.5) * {step!r} AS py) p
                JOIN e ON e.fid = ff.fid
                 AND ((e.y1 <= p.py AND p.py < e.y2) OR (e.y2 <= p.py AND p.py < e.y1))
                 AND e.x1 + (p.py - e.y1) * (e.x2 - e.x1) / (e.y2 - e.y1) <= p.px
                GROUP BY ff.fid, ix, iy
                HAVING count(*) % 2 = 1
            )
        ),
        {stats}
    """



def _gtfs_stop_features_sql() -> str:
    """Relational replay of ops/stops.stop_features over the fixture
    parquet: used stops (distinct routes via stop_times ⋈ trips, routes
    that exist in the routes table) plus parent stations of used stops
    riding along with n_routes = 0 (the reference's "routes": {} quirk)."""
    import os
    from pathlib import Path

    _fixture_ctx()  # ensure the fixture parquet exists before SQL reads it
    d = str(Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache")) / "caltrain")
    return f"""
        WITH pair AS (
            SELECT DISTINCT s.stop_id, t.route_id
            FROM read_parquet('{d}/stop_times.parquet') s
            JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
        ),
        used AS (
            -- SEMI join + distinct: route_id can repeat in the routes
            -- table across agencies (the duplicate-L3 fixture case);
            -- the engine keys routes by id so each id counts once
            SELECT p.stop_id, CAST(count(DISTINCT p.route_id) AS BIGINT) AS n_routes
            FROM pair p
            WHERE p.route_id IN (SELECT route_id FROM read_parquet('{d}/routes.parquet'))
            GROUP BY p.stop_id
        ),
        stops AS (SELECT * FROM read_parquet('{d}/stops.parquet')),
        parents AS (
            SELECT DISTINCT s.parent_station AS stop_id
            FROM stops s JOIN used u ON u.stop_id = s.stop_id
            WHERE s.parent_station IS NOT NULL AND s.parent_station <> ''
        )
        SELECT u.stop_id, u.n_routes
        FROM used u JOIN stops ss ON ss.stop_id = u.stop_id
        UNION ALL
        SELECT p.stop_id, CAST(0 AS BIGINT)
        FROM parents p JOIN stops ss ON ss.stop_id = p.stop_id
        WHERE p.stop_id NOT IN (SELECT stop_id FROM used)
    """



# ---------------------------------------------------------------------------
# Bloom-filter semi-join — the broadcast-vs-shuffle middle ground (ops/bloom)
# ---------------------------------------------------------------------------

def q_bloom_semi_join_lineitem(sf_dir: str):
    """EXACT semi-join via a Bloom prefilter (battery/ops/bloom.py):
    lineitems whose order is URGENT. The distributed-built 10-bit/key
    filter (constant-size partial bitmaps, driver OR is filter-scale)
    broadcasts at 1.25 bytes/key — 6.4× smaller than a raw int64
    keyset — and kills ~99% of non-matching fact rows BEFORE the exact
    hash-bucketed verify join, so the shuffle carries survivors only.
    Bloom has no false negatives and the verify is exact, hence the
    plain IN-subquery SQL replay."""
    from battery.ops.bloom import bloom_semi_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity", "l_returnflag"])
    keys = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")).select(
            ["o_orderkey"]),
        batch_format="pyarrow",
    ).materialize()  # executed once; count() below is metadata-cheap
    j = bloom_semi_join(li, keys, "l_orderkey", "o_orderkey",
                        n_keys=max(keys.count(), 1))

    def part(t: pa.Table) -> pa.Table:
        t = t.append_column("q_e2", _e(t["l_quantity"], 100))
        g = t.group_by("l_returnflag").aggregate([("q_e2", "sum"), ("q_e2", "count")])
        return pa.table({"l_returnflag": g["l_returnflag"],
                         "sum_qty_e2": g["q_e2_sum"].cast(pa.int64()),
                         "n_items": g["q_e2_count"].cast(pa.int64())})

    out = j.map_batches(part, batch_format="pyarrow").groupby(
        "l_returnflag").sum(["sum_qty_e2", "n_items"])
    return _rename(out, ["l_returnflag", "sum_qty_e2", "n_items"])



QUERIES["bloom_semi_join_lineitem"] = q_bloom_semi_join_lineitem

ORACLE_SQL["bloom_semi_join_lineitem"] = """
        SELECT l_returnflag,
               SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS sum_qty_e2,
               COUNT(*) AS n_items
        FROM lineitem
        WHERE l_orderkey IN (
            SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
        GROUP BY l_returnflag
    """



# ---------------------------------------------------------------------------
# Contiguous token-budget sharding — the LLM-corpus packing step
# ---------------------------------------------------------------------------

def q_token_shards_docs(sf_dir: str):
    """Pack documents (in doc_id order) into contiguous ~20k-char
    shards: a doc's shard is its EXCLUSIVE running-char prefix // C —
    the deterministic token-budget sharding an LLM training pipeline
    uses to cut a corpus into fixed-cost work units. Distributed
    prefix sum in two row-scale passes and zero driver row data:
    (1) per-batch (bucket, chars) partials with bucket = doc_id >> 10
    → bucket-scale groupby → driver exclusive scan over bucket sums
    (bucket count is N/1024; a 100-TB corpus would add one more scan
    level, same shape); (2) one bucket co-partition pass where each
    bucket sorts its own ≤1024 rows, cumsums from its broadcast base
    offset, and pre-aggregates per shard — shards spanning a bucket
    boundary merge in the final shard-scale groupby."""
    return _shard_by_chars(_read(sf_dir, "documents",
                                 ["doc_id", "n_chars"]))



def _shard_by_chars(ds, C: int = 20_000, SHIFT: int = 10):
    """Contiguous char-budget sharding of a (doc_id, n_chars) dataset
    (doc_id order): the two-pass distributed exclusive prefix sum used
    by token_shards_docs and llm_corpus_prep — bucket-scale driver
    scan, one co-partition pass, shard-scale merge."""

    def bpart(t: pa.Table) -> pa.Table:
        b = pc.shift_right(t["doc_id"], pa.scalar(SHIFT))
        g = pa.table({"bucket": b, "chars": t["n_chars"]}).group_by(
            "bucket").aggregate([("chars", "sum")])
        return pa.table({"bucket": g["bucket"],
                         "chars": g["chars_sum"].cast(pa.int64())})

    sums = ds.map_batches(bpart, batch_format="pyarrow",
                          zero_copy_batch=True).repartition(4) \
        .groupby("bucket").sum("chars").take_all()  # bucket-scale
    sums.sort(key=lambda r: r["bucket"])
    base, acc = {}, 0
    for r in sums:
        base[r["bucket"]] = acc
        acc += r["sum(chars)"]
    base_ref = ray.put(base)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", pc.shift_right(t["doc_id"], pa.scalar(SHIFT)))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        offs = _broadcast(base_ref)
        df = df.sort_values("doc_id", kind="stable")
        chars = df["n_chars"].to_numpy(np.int64)
        pre = offs[int(df["bucket"].iloc[0])] + np.cumsum(chars) - chars
        shard = pre // C
        uniq, inv = np.unique(shard, return_inverse=True)
        n = np.bincount(inv)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, chars)
        return pd.DataFrame({"shard_id": uniq, "n_docs": n.astype(np.int64),
                             "sum_chars": tot})

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket").map_groups(per_bucket, batch_format="pandas")
        .repartition(4)  # shard-scale partials per bucket group
        .groupby("shard_id").sum(["n_docs", "sum_chars"])
    )
    return _rename(out, ["shard_id", "n_docs", "sum_chars"])



QUERIES["token_shards_docs"] = q_token_shards_docs

ORACLE_SQL["token_shards_docs"] = """
        WITH p AS (
            SELECT doc_id, n_chars,
                   COALESCE(SUM(n_chars) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0) AS pre
            FROM documents)
        SELECT CAST(pre // 20000 AS BIGINT) AS shard_id,
               COUNT(*) AS n_docs,
               SUM(n_chars) AS sum_chars
        FROM p GROUP BY 1
    """



# ---------------------------------------------------------------------------
# RFM segmentation — recency/frequency/monetary customer pipeline
# ---------------------------------------------------------------------------

def q_rfm_segments(sf_dir: str):
    """RFM segmentation over orders: per customer, last-order day
    (recency), order count (frequency), e2 spend (monetary), each
    folded into fixed integer buckets, then segment counts. One
    customer-cardinality shuffle (per-batch partials merge with
    Max/Sum aggregates); the bucket fold and final groupby are
    segment-scale. All arithmetic on integer lattices so the SQL
    replay is bit-exact."""
    from ray.data.aggregate import Max, Sum

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.int64()),
                        pa.scalar(DAY_US)).cast(pa.int64())
        g = pa.table({
            "c": t["o_custkey"], "day": day,
            "m_e2": _e(t["o_totalprice"], 100),
        }).group_by("c").aggregate(
            [("day", "max"), ("m_e2", "sum"), ("m_e2", "count")])
        return pa.table({"c": g["c"], "last_day": g["day_max"],
                         "m_e2": g["m_e2_sum"].cast(pa.int64()),
                         "n": g["m_e2_count"].cast(pa.int64())})

    per_cust = ds.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True).groupby("c").aggregate(
        Max("last_day"), Sum("n"), Sum("m_e2"))

    def seg(t: pa.Table) -> pa.Table:
        last = t["max(last_day)"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        m = t["sum(m_e2)"].to_numpy(zero_copy_only=False)
        g = pa.table({
            "r_bucket": pa.array(last // 365, pa.int64()),
            "f_bucket": pa.array(np.minimum(n // 5, 3).astype(np.int64)),
            "m_bucket": pa.array(np.minimum(m // 10_000_000, 3).astype(np.int64)),
            "m_e2": pa.array(m.astype(np.int64)),
        }).group_by(["r_bucket", "f_bucket", "m_bucket"]).aggregate(
            [("m_e2", "sum"), ("m_e2", "count")])
        return pa.table({"r_bucket": g["r_bucket"], "f_bucket": g["f_bucket"],
                         "m_bucket": g["m_bucket"],
                         "total_m_e2": g["m_e2_sum"].cast(pa.int64()),
                         "n_customers": g["m_e2_count"].cast(pa.int64())})

    out = per_cust.map_batches(seg, batch_format="pyarrow").groupby(
        ["r_bucket", "f_bucket", "m_bucket"]).sum(["total_m_e2", "n_customers"])
    return _rename(out, ["r_bucket", "f_bucket", "m_bucket",
                         "total_m_e2", "n_customers"])



QUERIES["rfm_segments"] = q_rfm_segments

ORACLE_SQL["rfm_segments"] = """
        WITH per_cust AS (
            SELECT o_custkey,
                   MAX(CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT))
                     AS last_day,
                   COUNT(*) AS n_orders,
                   SUM(CAST(round(o_totalprice * 100) AS BIGINT)) AS m_e2
            FROM orders GROUP BY o_custkey)
        SELECT CAST(last_day // 365 AS BIGINT) AS r_bucket,
               CAST(LEAST(n_orders // 5, 3) AS BIGINT) AS f_bucket,
               CAST(LEAST(m_e2 // 10000000, 3) AS BIGINT) AS m_bucket,
               SUM(m_e2) AS total_m_e2,
               COUNT(*) AS n_customers
        FROM per_cust GROUP BY 1, 2, 3
    """



# ---------------------------------------------------------------------------
# Graph analytics over the near-dup pair graph: triangles + BFS levels
# ---------------------------------------------------------------------------

def q_triangle_dups(sf_dir: str):
    """Exact triangle count (ops/graph.triangle_count — degree-ordered
    orientation bounds per-source wedge fan-out at O(√m), wedge closure
    checked by a bucketed co-partition semi-count, never an edge-set
    broadcast) over the embedding near-dup pair graph: triangle density
    distinguishes tight dup clusters from chains of borderline pairs.
    SQL replay = canonical 3-way self-join on the a<b pair list."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import triangle_count

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35
    )
    return triangle_count(pairs.select_columns(["a", "b"]))



QUERIES["triangle_dups"] = q_triangle_dups

ORACLE_SQL["triangle_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a, b FROM pairs),
        nodes AS (SELECT DISTINCT n FROM
                  (SELECT a AS n FROM e UNION ALL SELECT b FROM e))
        SELECT (SELECT CAST(count(*) AS BIGINT) FROM nodes) AS n_nodes,
               (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
               (SELECT CAST(count(*) AS BIGINT)
                FROM e ab JOIN e bc ON bc.a = ab.b
                          JOIN e ac ON ac.a = ab.a AND ac.b = bc.b)
                 AS n_triangles
    """



def q_bfs_dups(sf_dir: str):
    """Fixed-round BSP breadth-first search (ops/graph.bfs_levels):
    hop distance ≤ 3 from the seed set (vec_id % 11 == 0) over the
    symmetrized near-dup graph — the reachability primitive behind
    'quarantine everything within k hops of a known-bad document'.
    Every round is a size-guarded semi-join (frontier) + anti-join
    (visited) over the materialized edge list; no frontier row lands
    on the driver. SQL replay = three chained level CTEs."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import bfs_levels

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35
    )
    def pick_seeds(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(v[v % 11 == 0])})

    seeds = _read(sf_dir, "embeddings", ["vec_id"]).map_batches(
        pick_seeds, batch_format="pyarrow", zero_copy_batch=True)
    return bfs_levels(pairs.select_columns(["a", "b"]), seeds, rounds=3)



QUERIES["bfs_dups"] = q_bfs_dups

ORACLE_SQL["bfs_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION ALL SELECT b, a FROM pairs),
        l0 AS (SELECT vec_id AS node FROM embeddings WHERE vec_id % 11 = 0),
        l1 AS (SELECT DISTINCT e.v AS node FROM e JOIN l0 ON e.u = l0.node
               WHERE e.v NOT IN (SELECT node FROM l0)),
        l2 AS (SELECT DISTINCT e.v AS node FROM e JOIN l1 ON e.u = l1.node
               WHERE e.v NOT IN (SELECT node FROM l0)
                 AND e.v NOT IN (SELECT node FROM l1)),
        l3 AS (SELECT DISTINCT e.v AS node FROM e JOIN l2 ON e.u = l2.node
               WHERE e.v NOT IN (SELECT node FROM l0)
                 AND e.v NOT IN (SELECT node FROM l1)
                 AND e.v NOT IN (SELECT node FROM l2))
        SELECT node, CAST(0 AS BIGINT) AS level FROM l0
        UNION ALL SELECT node, CAST(1 AS BIGINT) FROM l1
        UNION ALL SELECT node, CAST(2 AS BIGINT) FROM l2
        UNION ALL SELECT node, CAST(3 AS BIGINT) FROM l3
    """



# ---------------------------------------------------------------------------
# Grouped linear regression — exact rational slope per group
# ---------------------------------------------------------------------------

def q_linreg_hour_value(sf_dir: str):
    """Per-event-type least-squares slope of value vs hour-of-day, as
    an EXACT rational: slope = (n·Σxy − Σx·Σy) / (n·Σxx − Σx²). Per
    batch one Arrow groupby emits the five integer moments on the
    (hour, value·10⁴) lattice — every batch/group sum fits int64 —
    then the type-scale epilogue forms the >64-bit numerator /
    denominator in Python arbitrary-precision ints and emits them as
    digit strings (DuckDB replays in HUGEINT and casts to VARCHAR;
    the driver's value hash compares decimal digits, not floats)."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])
    HOUR_US = 3_600_000_000

    def part(t: pa.Table) -> pa.Table:
        x = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // HOUR_US) % 24
        y = pc.round(pc.multiply(t["value"], pa.scalar(1e4))).cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        g = pa.table({
            "event_type": t["event_type"],
            "x": pa.array(x), "y": pa.array(y),
            "xy": pa.array(x * y), "xx": pa.array(x * x),
        }).group_by("event_type").aggregate(
            [("x", "sum"), ("y", "sum"), ("xy", "sum"), ("xx", "sum"),
             ([], "count_all")])
        return pa.table({
            "event_type": g["event_type"],
            "sx": g["x_sum"], "sy": g["y_sum"], "sxy": g["xy_sum"],
            "sxx": g["xx_sum"], "n": g["count_all"].cast(pa.int64()),
        })

    rows = ev.map_batches(part, batch_format="pyarrow", zero_copy_batch=True
                          ).groupby("event_type").sum(
        ["sx", "sy", "sxy", "sxx", "n"]).take_all()  # type-scale
    rows.sort(key=lambda r: r["event_type"])
    num, den = [], []
    for r in rows:
        n, sx, sy = int(r["sum(n)"]), int(r["sum(sx)"]), int(r["sum(sy)"])
        num.append(str(n * int(r["sum(sxy)"]) - sx * sy))
        den.append(str(n * int(r["sum(sxx)"]) - sx * sx))
    return pd.DataFrame({
        "event_type": [r["event_type"] for r in rows],
        "n": np.array([r["sum(n)"] for r in rows], np.int64),
        "slope_num": num, "slope_den": den,
    })



QUERIES["linreg_hour_value"] = q_linreg_hour_value

ORACLE_SQL["linreg_hour_value"] = """
        WITH b AS (
            SELECT event_type,
                   CAST(date_part('hour', ts) AS BIGINT) AS x,
                   CAST(round(value * 10000) AS BIGINT) AS y
            FROM events),
        s AS (
            SELECT event_type, COUNT(*) AS n,
                   SUM(x) AS sx, SUM(y) AS sy,
                   SUM(x * y) AS sxy, SUM(x * x) AS sxx
            FROM b GROUP BY event_type)
        SELECT event_type, n,
               CAST(CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy
                    AS VARCHAR) AS slope_num,
               CAST(CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx
                    AS VARCHAR) AS slope_den
        FROM s
    """



# ---------------------------------------------------------------------------
# Image near-dup clustering: pHash Hamming pairs -> connected components
# ---------------------------------------------------------------------------

def q_image_dup_clusters(sf_dir: str):
    """Image-corpus deduplication end-to-end: perceptual-hash Hamming
    pairs at distance <= 1 (dedup.hamming_pairs — exact 2-band
    pigeonhole, cap=None so the SQL band-join replay matches row for
    row) fed through distributed connected components, electing the
    min image index as each cluster's canonical representative — the
    keep-one-per-cluster step of an image training-set dedup. The
    bytes column never leaves storage (read prunes to image_id/phash);
    int ids come from the zero-padded id suffix so the SQL replay
    parses the same integers."""
    from battery.ops.dedup import hamming_pairs
    from battery.ops.graph import connected_components
    from geotile.ops.tiles import read_image_table
    from geotile.synth import image_index

    ds = read_image_table(_image_dir_for(sf_dir), columns=["image_id", "phash"])

    def to_int_id(t: pa.Table) -> pa.Table:
        return pa.table(
            {"img": pa.array(image_index(t["image_id"]).astype(np.int64)),
             "phash": t["phash"]}
        )

    ids = ds.map_batches(to_int_id, batch_format="pyarrow", zero_copy_batch=True)
    pairs = hamming_pairs(ids, "img", "phash", max_hamming=1, cap=None)
    return connected_components(
        pairs.select_columns(["a", "b"]), "a", "b", n_buckets=8
    )

__defined__ = (
    '_READ_BLOCK_BYTES',
    '_READ_WIDTH',
    '_read_num_blocks',
    '_dim_np',
    '_emb_dim_np',
    'DOC_QUALITY_SQL',
    'EMBEDDING_DUPS_SQL',
    'ORACLE_SQL',
    'QUERIES',
    '_IVF_ANN_SQL',
    '_MEMO',
    '_MORTON_MASKS',
    '_R',
    '_SF_IMAGE_ROWS',
    '_STOPWORDS',
    '_STOPWORD_SQL',
    '_THROTTLE_US',
    '_TRI',
    '_WEEK_US',
    '_WINDOW_STATS_SQL',
    '_atomic_write_table',
    '_broadcast',
    '_buffer_segments_sidecar',
    '_cm_sidecar',
    '_cm_sql',
    '_covered_cells_sql',
    '_covered_ixy_cte',
    '_derived_points',
    '_dissolve_edges_sidecar',
    '_dissolved_input_feats',
    '_e',
    '_embedding_buckets_sql',
    '_fingerprint_sidecar',
    '_fingerprint_sql',
    '_fixture_ctx',
    '_fixture_route_index',
    '_fixture_sql_dir',
    '_geom_digest',
    '_gtfs_buffer_stats_sql',
    '_gtfs_convex_hull_sql',
    '_gtfs_dissolved_stats_sql',
    '_gtfs_envelope_sql',
    '_gtfs_line_features_sql',
    '_gtfs_stop_features_sql',
    '_hll_grouped_sidecar',
    '_hll_grouped_sql',
    '_hll_sidecar',
    '_hll_sql',
    '_image_dir_for',
    '_image_embeddings_sql',
    '_image_hist_sidecar',
    '_image_hist_sql',
    '_image_invariants_sql',
    '_image_patch_sidecar',
    '_image_patch_sql',
    '_lang_id_sql',
    '_last_per_user',
    '_minhash_pairs_sidecar',
    '_minhash_pairs_sql',
    '_mods_digest',
    '_ndjson_cache',
    '_oracle_cache_dir',
    '_oracle_edges_path',
    '_oracle_planes_path',
    '_oracle_segments_path',
    '_phash_neighbor_sql',
    '_read',
    '_read_docs',
    '_ref_sidecar',
    '_rename',
    '_ring_stats',
    '_route_line_parts',
    '_semi_lookup_join',
    '_shard_by_chars',
    '_shoelace',
    '_simhash_pairs_sidecar',
    '_simhash_pairs_sql',
    '_simhash_sidecar',
    '_simhash_sql',
    '_sql_cell',
    '_sql_list',
    '_sql_quant',
    '_sql_spread',
    '_tile_dissolve_sql',
    '_u2i',
    '_user_type_flags',
    'q_anti_join_customers',
    'q_asof_clicks_views',
    'q_bfs_dups',
    'q_bloom_semi_join_lineitem',
    'q_broadcast_join_brand_revenue',
    'q_bucket_join_priority_revenue',
    'q_cell_quantize_events',
    'q_cm_user_counts',
    'q_cohort_retention_users',
    'q_corr_moments_docs',
    'q_cube_docs',
    'q_cust_nation_orders',
    'q_dedup_keep_canonical',
    'q_distinct_parts_per_flag',
    'q_distinct_users_exact',
    'q_doc_quality',
    'q_doc_stats_by_lang',
    'q_doc_token_stats',
    'q_dup_clusters_embeddings',
    'q_dup_span_docs',
    'q_embedding_buckets',
    'q_embedding_cov_moments',
    'q_embedding_dim_stats',
    'q_embedding_dups',
    'q_envelope_events',
    'q_event_gap_stats_user',
    'q_event_props_stats',
    'q_exact_dedup_docs',
    'q_except_users',
    'q_fingerprint_docs',
    'q_followup_events',
    'q_full_outer_customer_orders',
    'q_funnel_users',
    'q_global_sort_orders',
    'q_grouped_quantiles_events',
    'q_grouped_topk_users',
    'q_grouping_sets_docs',
    'q_gtfs_buffer_stats',
    'q_gtfs_convex_hull',
    'q_gtfs_dissolved_stats',
    'q_gtfs_envelope',
    'q_gtfs_line_features',
    'q_gtfs_stop_features',
    'q_hash_sample_docs',
    'q_heavy_hitter_users',
    'q_hll_distinct_users',
    'q_hll_grouped_users',
    'q_hourly_activity_events',
    'q_image_channel_histogram',
    'q_image_dup_clusters',
    'q_image_embeddings',
    'q_image_invariants',
    'q_image_resize',
    'q_intersect_users',
    'q_ivf_ann',
    'q_jaccard_pairs_docs',
    'q_kmeans_embeddings',
    'q_knn_embeddings',
    'q_lang_id_docs',
    'q_last_event_user',
    'q_left_join_customer_orders',
    'q_linreg_hour_value',
    'q_mad_events',
    'q_minhash_pairs_docs',
    'q_mode_event_type_user',
    'q_multi_distinct_daily',
    'q_ndjson_events_ingest',
    'q_ntile_events',
    'q_pagerank_dups',
    'q_percent_rank_events',
    'q_phash_neighbor_stats',
    'q_pip_triangle_docs',
    'q_pivot_docs',
    'q_pricing_summary',
    'q_quantiles_cont_events',
    'q_quantiles_events',
    'q_region_revenue',
    'q_resampled_hourly_events',
    'q_rfm_segments',
    'q_right_join_orders_customer',
    'q_rolling_window_user',
    'q_rollup_docs',
    'q_route_feature_collections',
    'q_semi_join_date_filter',
    'q_simhash_docs',
    'q_simhash_pairs_docs',
    'q_skyline_orders',
    'q_sliding_window_events',
    'q_spatial_grid_join_docs',
    'q_stopword_filter_docs',
    'q_stratified_sample_events',
    'q_tfidf_docs',
    'q_throttled_events',
    'q_tile_assignments',
    'q_tile_cell_counts',
    'q_tile_covered_cells',
    'q_tile_dissolve',
    'q_tile_knn',
    'q_token_shards_docs',
    'q_top_bigrams_docs',
    'q_top_terms_docs',
    'q_topk_orders',
    'q_train_split_docs',
    'q_transition_counts_events',
    'q_triangle_dups',
    'q_type_cooccurrence_users',
    'q_union_by_name_orders',
    'q_union_order_subsets',
    'q_user_sequence_strings',
    'q_user_sessions',
    'q_value_histogram_events',
    'q_weighted_avg_lineitem',
    'q_window_events',
    'q_winsorized_stats_events',
    'tile_oracle_sql',
)
