"""Query battery part — 91 driver queries (split from the former single-module queries.py).

Registers:
image_dup_clusters, spatial_dbscan_events, range_window_events,
above_avg_orders, streaks_users, novelty_daily, snapshot_diff_orders,
profile_orders, linear_scores_embeddings, revenue_deciles,
fuzzy_token_pairs_docs, session_concurrency_events,
sliding_distinct_users, running_revenue_orders, session_stats_users,
upsert_orders, label_centroids, dense_rank_orders,
double_charge_orders, centroid_confusion, dominant_dim_embeddings,
weekly_type_wow, image_patch_sums, caption_stop_stats,
hierarchy_rollup_customers, daily_metrics_long, type_lift_daily,
topk_ties_orders, type_trigrams_users, llm_corpus_prep, ks_lang_docs,
benford_prices, regex_tokens_docs, pushdown_orders, near_price_pairs,
weighted_median_lineitem, fmt_size_association, daily_churn_users,
dense_type_day_matrix, anomaly_counts_users, drawdown_users,
rolling_distinct_types, decay_score_users, gini_impurity_users,
division_completion_users, locf_events, clamped_balance_users,
posting_lists_embeddings, shipping_priority_q3, revenue_share_nations,
monotone_run_users, tile_pyramid_counts, scd2_orders,
gap_filled_daily_users, caption_geo_consistency, rebase_index_users,
except_all_users, nation_pair_revenue, custdist_orders,
promo_session_overlap, spearman_users, mannwhitney_daily, twap_users,
distance_rings_docs, pq_codes_embeddings, pattern_triples_users,
compaction_plan_docs, dominant_supplier_parts, activity_bitmap_users,
important_parts, image_glcm_energy, audio_frame_energy,
token_pair_support_docs, attribution_lasttouch, audio_silence_runs,
decile_transition_users, revenue_concentration_orders,
partitioned_sink_events, tile_autocorr_cells, funnel_windowed_users,
bounce_rate_daily, adjacent_vector_dots, watermark_late_events,
keyspace_gaps_orders, tile_stop_hulls, ri_audit_edges,
conversion_latency_users, moments4_by_type, bottomk_quantile_events,
ab_conversion_parts, session_duration_quantiles
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from battery.ops.images import ImageGlcmStage, ImagePatchStage

from .b01_core import (
    _dim_np,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _derived_points,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
    _rename,
    _shard_by_chars,
    _sql_cell,
    _sql_quant,
    q_image_dup_clusters,
)  # noqa: F401



QUERIES["image_dup_clusters"] = q_image_dup_clusters



def _image_dup_clusters_sql(img_dir: str) -> str:
    """Recursive-CTE replay of pigeonhole Hamming-1 pairs + label
    propagation to the min-id component representative (same walk CTE
    as the embedding dup-cluster oracle)."""
    return f"""
        WITH RECURSIVE t AS (
            SELECT CAST(substr(image_id, 5) AS BIGINT) AS img, phash
            FROM read_parquet('{img_dir}/part-*.parquet')),
        b AS (SELECT img, phash, u.band,
                     CASE u.band WHEN 0 THEN phash & 4294967295
                                 ELSE (phash >> 32) & 4294967295 END AS key
              FROM t, unnest([0, 1]) AS u(band)),
        cand AS (SELECT DISTINCT a.img i1, c.img i2, a.phash p1, c.phash p2
                 FROM b a JOIN b c
                   ON c.band = a.band AND c.key = a.key AND a.img < c.img),
        pairs AS (SELECT i1, i2 FROM cand WHERE bit_count(xor(p1, p2)) <= 1),
        e AS (SELECT i1 AS u, i2 AS v FROM pairs
              UNION SELECT i2, i1 FROM pairs),
        walk(u, lbl) AS (
            SELECT u, u FROM (SELECT DISTINCT u FROM e)
            UNION
            SELECT e.u, w.lbl FROM e JOIN walk w ON w.u = e.v
        )
        SELECT u AS node, min(lbl) AS cluster_id FROM walk GROUP BY u
    """



# ---------------------------------------------------------------------------
# Grid-density spatial clustering (DBSCAN-style) over derived event points
# ---------------------------------------------------------------------------

_DBSCAN_MINPTS = 5



def q_spatial_dbscan_events(sf_dir: str):
    """Grid-density spatial clustering (the DBSCAN-on-a-grid classic):
    deterministic non-uniform points derived from event ids (squared
    uniforms concentrate mass toward the origin, so the density
    threshold is non-trivial), quantized to a 20x20 cell grid; cells
    with >= 5 points are dense; dense cells merge into clusters via
    4-adjacency connected components, singletons keeping their own
    key as cluster id. Output (cluster_id, n_cells, n_points).

    Scale shape: the ONLY data-scale pass is the per-batch cell-count
    partial; everything after (dense filter, adjacency semi-join, CC,
    label lookup) runs at grid-resolution scale, independent of row
    count — the property that makes grid clustering the 100-TB
    substitute for point-pair DBSCAN."""
    from battery.ops.graph import connected_components
    from battery.ops.relational import anti_join, lookup_join, semi_join

    ev = _read(sf_dir, "events", ["event_id"])

    def cell_counts(t: pa.Table) -> pa.Table:
        e = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = (e * 2654435761 % 4294967296).astype(np.float64) / 4294967296.0
        w = ((e * 40503 + 7) % 65536).astype(np.float64) / 65536.0
        ix = np.floor(u * u * 10.0 / 0.5).astype(np.int64)
        iy = np.floor(w * w * 10.0 / 0.5).astype(np.int64)
        k = ix * 64 + iy
        uk, c = np.unique(k, return_counts=True)
        return pa.table({"k": pa.array(uk), "n": pa.array(c.astype(np.int64))})

    counts = (
        ev.map_batches(cell_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k").sum("n")
    )
    dense = _rename(counts, ["k", "n"]).map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], _DBSCAN_MINPTS)),
        batch_format="pyarrow",
    ).materialize()  # grid-resolution scale (<= 400 rows at any sf)

    if dense.count() == 0:
        # no dense cell at all (degenerate tiny input): Ray drops empty
        # blocks, so the downstream semi/lookup joins would see a
        # SCHEMALESS dataset — short-circuit with the typed empty result
        return ray.data.from_arrow(pa.table({
            "cluster_id": pa.array([], pa.int64()),
            "n_cells": pa.array([], pa.int64()),
            "n_points": pa.array([], pa.int64()),
        }))

    def adjacency(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        # rightward (ix+1) and upward (iy+1) candidates; iy < 20 << 64
        # so +1 never carries across the packing boundary
        return pa.table({
            "a": pa.array(np.concatenate([k, k])),
            "b": pa.array(np.concatenate([k + 64, k + 1])),
        })

    cand = dense.map_batches(adjacency, batch_format="pyarrow")
    edges = semi_join(cand, dense, "b", "k")  # keep edges whose nb is dense
    cc = connected_components(edges, "a", "b", n_buckets=4)
    singles = anti_join(dense.select_columns(["k"]), cc, "k", "node")
    labels = cc.union(
        singles.map_batches(
            lambda t: pa.table({"node": t["k"], "cluster_id": t["k"]}),
            batch_format="pyarrow",
        )
    )
    labeled = lookup_join(dense, "k", labels, "node", "cluster_id")
    out = labeled.map_batches(
        lambda t: pa.table({
            "cluster_id": t["cluster_id"],
            "one": pa.array(np.ones(len(t), np.int64)),
            "n": t["n"],
        }),
        batch_format="pyarrow",
    ).groupby("cluster_id").sum(["one", "n"])
    return _rename(out, ["cluster_id", "n_cells", "n_points"])



QUERIES["spatial_dbscan_events"] = q_spatial_dbscan_events

ORACLE_SQL["spatial_dbscan_events"] = f"""
        WITH RECURSIVE pts AS (
            SELECT CAST(floor(((CAST(event_id * 2654435761 % 4294967296
                                     AS DOUBLE) / 4294967296.0)
                               * (CAST(event_id * 2654435761 % 4294967296
                                       AS DOUBLE) / 4294967296.0))
                              * 10.0 / 0.5) AS BIGINT) AS ix,
                   CAST(floor(((CAST((event_id * 40503 + 7) % 65536
                                     AS DOUBLE) / 65536.0)
                               * (CAST((event_id * 40503 + 7) % 65536
                                       AS DOUBLE) / 65536.0))
                              * 10.0 / 0.5) AS BIGINT) AS iy
            FROM events),
        cells AS (SELECT ix * 64 + iy AS k, count(*) AS n
                  FROM pts GROUP BY 1),
        dense AS (SELECT k, n FROM cells WHERE n >= {_DBSCAN_MINPTS}),
        e0 AS (SELECT d.k AS a, nb.k AS b
               FROM dense d JOIN dense nb
                 ON nb.k = d.k + 64 OR nb.k = d.k + 1),
        e AS (SELECT a AS u, b AS v FROM e0 UNION SELECT b, a FROM e0),
        walk(u, lbl) AS (
            SELECT u, u FROM (SELECT DISTINCT u FROM e)
            UNION
            SELECT e.u, w.lbl FROM e JOIN walk w ON w.u = e.v
        ),
        cc AS (SELECT u AS node, min(lbl) AS cluster_id FROM walk GROUP BY u),
        lab AS (SELECT d.k, d.n,
                       coalesce(cc.cluster_id, d.k) AS cluster_id
                FROM dense d LEFT JOIN cc ON cc.node = d.k)
        SELECT cluster_id, count(*) AS n_cells,
               CAST(SUM(n) AS BIGINT) AS n_points
        FROM lab GROUP BY 1
    """



# ---------------------------------------------------------------------------
# Time-RANGE windowed aggregate + decorrelated correlated-aggregate subquery
# ---------------------------------------------------------------------------

def q_range_window_events(sf_dir: str):
    """RANGE-frame time window (relational.grouped_range_rolling):
    per-user trailing 1-hour sum + count of value, ordered by ts —
    the value-based frame the ROWS-frame rolling op can't express
    (peers at the same timestamp share one frame, exactly SQL's RANGE
    semantics). Values on the e4 integer lattice so the prefix-sum
    difference replays bit-exactly."""
    from battery.ops.relational import grouped_range_rolling

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    HOUR_US = 3_600_000_000

    def quant(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "tsi": t["ts"].cast(pa.int64()),
            "v_e4": v,
        })

    rolled = grouped_range_rolling(
        ev.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True),
        key="user_id", ts_col="tsi", val="v_e4", span=HOUR_US,
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"].cast(pa.int64()),
            "range_sum_e4": t["range_sum"].cast(pa.int64()),
            "range_n": t["range_n"].cast(pa.int64()),
        })

    return rolled.map_batches(finish, batch_format="pyarrow")



QUERIES["range_window_events"] = q_range_window_events

ORACLE_SQL["range_window_events"] = """
        SELECT event_id,
               SUM(CAST(floor(value * 10000.0 + 0.5) AS BIGINT)) OVER w
                 AS range_sum_e4,
               COUNT(*) OVER w AS range_n
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW)
    """



def q_above_avg_orders(sf_dir: str):
    """Correlated aggregate subquery, decorrelated (the TPC-H Q17
    family): orders whose price exceeds 1.5x their OWN customer's
    average order price. Plan = one customer-scale groupby building
    (sum_cents, n) packed into a single int64 dim value, then a
    size-guarded lookup_join appends it to every fact row — zero
    fact-side shuffle — and the filter compares the exact integer
    rational 2·price·n > 3·sum (no float division anywhere, so the
    threshold can't flip on summation order)."""
    from battery.ops.relational import lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.floor(pc.add(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "cents": c})

    fact = orders.map_batches(cents, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["o_custkey", "cents"]).group_by("o_custkey").aggregate(
            [("cents", "sum"), ([], "count_all")])
        return pa.table({"o_custkey": g["o_custkey"],
                         "s": g["cents_sum"],
                         "n": g["count_all"].cast(pa.int64())})

    agg = fact.map_batches(partial, batch_format="pyarrow").groupby(
        "o_custkey").sum(["s", "n"])

    def pack(t: pa.Table) -> pa.Table:
        s = t["sum(s)"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        assert (n < (1 << 16)).all() and (s < (1 << 46)).all(), \
            "above_avg packing contract: n < 2^16, sum_cents < 2^46"
        return pa.table({"o_custkey": t["o_custkey"],
                         "packed": pa.array(s * (1 << 16) + n)})

    dim = agg.map_batches(pack, batch_format="pyarrow")
    joined = lookup_join(fact, "o_custkey", dim, "o_custkey", "packed")

    def keep(t: pa.Table) -> pa.Table:
        p = t["packed"].to_numpy(zero_copy_only=False)
        s, n = p >> 16, p & 0xFFFF
        c = t["cents"].to_numpy(zero_copy_only=False)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "price_cents": t["cents"]}).filter(
            pa.array(2 * c * n > 3 * s))

    return joined.map_batches(keep, batch_format="pyarrow")



QUERIES["above_avg_orders"] = q_above_avg_orders

ORACLE_SQL["above_avg_orders"] = """
        WITH f AS (SELECT o_orderkey, o_custkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                            AS cents
                   FROM orders),
        c AS (SELECT o_custkey, SUM(cents) AS s, COUNT(*) AS n
              FROM f GROUP BY 1)
        SELECT f.o_orderkey, f.o_custkey, f.cents AS price_cents
        FROM f JOIN c USING (o_custkey)
        WHERE 2 * f.cents * c.n > 3 * c.s
    """



def q_streaks_users(sf_dir: str):
    """Gaps-and-islands (the SQL `step - ROW_NUMBER()` classic): per
    user, maximal runs of CONSECUTIVE active hours — longest streak,
    its start, island count, distinct active hours. Plan = per-batch
    (user, hour) Arrow dedup partial (the shuffle carries distinct
    pairs, never raw events), then ops/relational.grouped_islands: one
    hash co-partition on user_id and a single vectorized pass per
    bucket group (lexsort + run-length via np.diff + per-key
    reduceat). Reference parity: the dedup-then-order family of
    gtfs-to-geojson's stop-sequence handling (SURVEY O1/D2), lifted to
    the time axis."""
    from battery.ops.relational import grouped_islands

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def hours(t: pa.Table) -> pa.Table:
        h = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(3_600_000_000, pa.int64()))
        return pa.table({"user_id": t["user_id"], "h": h}).group_by(
            ["user_id", "h"]).aggregate([])

    pairs = ev.map_batches(hours, batch_format="pyarrow",
                           zero_copy_batch=True)
    # block-count law: the dedup partials are pair-cardinality (tiny)
    # but arrive as one block per read block — coalesce before the
    # co-partition groupby so its sort machinery sees 4 blocks, not 64
    # (measured 4.9 -> ~1s warm at sf0.1/32cpu)
    return grouped_islands(pairs.repartition(4), "user_id", "h")



QUERIES["streaks_users"] = q_streaks_users

ORACLE_SQL["streaks_users"] = """
        WITH d AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 3600000000 AS h FROM events),
        r AS (SELECT user_id, h,
                     h - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY h)
                       AS grp
              FROM d),
        i AS (SELECT user_id, min(h) AS start, count(*) AS len
              FROM r GROUP BY user_id, grp),
        i2 AS (SELECT *, max(len) OVER (PARTITION BY user_id) AS mx FROM i)
        SELECT user_id, count(*) AS n_islands,
               CAST(max(len) AS BIGINT) AS longest,
               min(start) FILTER (WHERE len = mx) AS longest_start,
               CAST(sum(len) AS BIGINT) AS n_active
        FROM i2 GROUP BY user_id
    """



def q_novelty_daily(sf_dir: str):
    """First-seen novelty curve: how many NEW (user, event_type) pairs
    appear each day — the discovery-rate statistic of a growing corpus
    (same shape as "new URLs/day" in a crawl). Plan = pack the pair
    into ONE int64 key (user_id * 8 + type index over the closed
    5-type vocabulary — asserted), per-batch min-ts partial, a
    pair-cardinality groupby min, then a day-scale count. The fact
    table is never shuffled; the one exchange carries distinct pairs
    only (multi-key-groupby law: packed single-int key)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        assert idx.null_count == 0, "novelty packing: unseen event_type"
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(8, pa.int64())),
                   idx.cast(pa.int64()))
        us = t["ts"].cast(pa.int64())
        g = pa.table({"k": k, "us": us}).group_by("k").aggregate(
            [("us", "min")])
        return g.rename_columns(["k", "us"])

    firsts = ev.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True).groupby("k").min("us")

    def to_day(t: pa.Table) -> pa.Table:
        day = pc.divide(t["min(us)"], pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day").aggregate(
            [([], "count_all")])
        return g.rename_columns(["day", "n_new"])

    out = (firsts.map_batches(to_day, batch_format="pyarrow")
           .groupby("day").sum("n_new"))
    return _rename(out, ["day", "n_new"])



QUERIES["novelty_daily"] = q_novelty_daily

ORACLE_SQL["novelty_daily"] = """
        WITH f AS (SELECT user_id, event_type, min(epoch_us(ts)) AS us
                   FROM events GROUP BY 1, 2)
        SELECT us // 86400000000 AS day, count(*) AS n_new
        FROM f GROUP BY 1
    """



def q_snapshot_diff_orders(sf_dir: str):
    """Change-data-capture: diff two snapshots of the orders table —
    snapshot A drops every 97th key ("deleted later"), snapshot B drops
    every 89th key ("not yet created") and bumps every 7th key's price
    by 500 cents ("updated") — emitting added/removed/changed rows
    only. Plan = ops/relational.snapshot_diff: one co-partition per
    side, a single vectorized sorted-composite classify per bucket
    (no pandas merge), output at change-cardinality with -1 sentinels
    keeping the value columns non-nullable."""
    from battery.ops.relational import snapshot_diff

    def snap(which: str):
        def fn(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy(zero_copy_only=False)
            cents = pc.floor(pc.add(pc.multiply(
                t["o_totalprice"], pa.scalar(100.0)),
                pa.scalar(0.5))).cast(pa.int64()).to_numpy(
                    zero_copy_only=False)
            if which == "a":
                keep = k % 97 != 0
                return pa.table({"o_orderkey": k[keep], "cents": cents[keep]})
            keep = k % 89 != 0
            bump = np.where(k % 7 == 0, 500, 0)
            return pa.table({"o_orderkey": k[keep],
                             "cents": (cents + bump)[keep]})

        return fn

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    a = orders.map_batches(snap("a"), batch_format="pyarrow",
                           zero_copy_batch=True)
    b = orders.map_batches(snap("b"), batch_format="pyarrow",
                           zero_copy_batch=True)
    out = snapshot_diff(a, b, "o_orderkey", "cents")
    return _rename(out, ["o_orderkey", "change", "a_cents", "b_cents"])



QUERIES["snapshot_diff_orders"] = q_snapshot_diff_orders

ORACLE_SQL["snapshot_diff_orders"] = """
        WITH f AS (SELECT o_orderkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                            AS cents
                   FROM orders),
        a AS (SELECT o_orderkey, cents FROM f WHERE o_orderkey % 97 <> 0),
        b AS (SELECT o_orderkey,
                     cents + CASE WHEN o_orderkey % 7 = 0
                                  THEN 500 ELSE 0 END AS cents
              FROM f WHERE o_orderkey % 89 <> 0)
        SELECT COALESCE(a.o_orderkey, b.o_orderkey) AS o_orderkey,
               CASE WHEN a.o_orderkey IS NULL THEN 'added'
                    WHEN b.o_orderkey IS NULL THEN 'removed'
                    ELSE 'changed' END AS change,
               COALESCE(a.cents, -1) AS a_cents,
               COALESCE(b.cents, -1) AS b_cents
        FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey
        WHERE a.o_orderkey IS NULL OR b.o_orderkey IS NULL
           OR a.cents <> b.cents
    """



def q_profile_orders(sf_dir: str):
    """Data-quality profile of the orders table: per-column null
    count, EXACT distinct count, min/max — the pre-training ingest
    audit. Plan = ops/profile.profile_dataset: a column-cardinality
    bounds pass (one row per column per batch) + a distinct pass whose
    per-batch Arrow dedup bounds the one shuffle by distinct values;
    floats profile on the cents lattice, timestamps as epoch-µs, so
    every cell is exact against the SQL replay."""
    from battery.ops.profile import profile_dataset

    ds = _read(sf_dir, "orders")
    return profile_dataset(ds, {
        "o_orderkey": "int",
        "o_custkey": "int",
        "o_orderstatus": "str",
        "o_totalprice": "cents",
        "o_orderdate": "ts_us",
        "o_orderpriority": "str",
    })



QUERIES["profile_orders"] = q_profile_orders

ORACLE_SQL["profile_orders"] = """
        WITH f AS (SELECT o_orderkey, o_custkey, o_orderstatus,
                          CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                            AS cents,
                          epoch_us(o_orderdate) AS us, o_orderpriority
                   FROM orders)
        SELECT 'o_custkey' AS col,
               count(*) - count(o_custkey) AS nulls,
               count(DISTINCT o_custkey) AS n_distinct,
               CAST(min(o_custkey) AS VARCHAR) AS min_v,
               CAST(max(o_custkey) AS VARCHAR) AS max_v FROM f
        UNION ALL
        SELECT 'o_orderdate', count(*) - count(us), count(DISTINCT us),
               CAST(min(us) AS VARCHAR), CAST(max(us) AS VARCHAR) FROM f
        UNION ALL
        SELECT 'o_orderkey', count(*) - count(o_orderkey),
               count(DISTINCT o_orderkey),
               CAST(min(o_orderkey) AS VARCHAR),
               CAST(max(o_orderkey) AS VARCHAR) FROM f
        UNION ALL
        SELECT 'o_orderpriority', count(*) - count(o_orderpriority),
               count(DISTINCT o_orderpriority),
               min(o_orderpriority), max(o_orderpriority) FROM f
        UNION ALL
        SELECT 'o_orderstatus', count(*) - count(o_orderstatus),
               count(DISTINCT o_orderstatus),
               min(o_orderstatus), max(o_orderstatus) FROM f
        UNION ALL
        SELECT 'o_totalprice', count(*) - count(cents),
               count(DISTINCT cents),
               CAST(min(cents) AS VARCHAR), CAST(max(cents) AS VARCHAR) FROM f
    """



def q_linear_scores_embeddings(sf_dir: str):
    """Batched model inference + top-k: score every embedding with a
    broadcast linear model (deterministic int weights w_j =
    ((j+1)·2654435761) mod 2001 − 1000) and keep the global top-20 —
    the relevance-scoring / reranking stage of a retrieval pipeline.
    Per batch the list column flattens zero-copy to an (n × d) matrix
    and ONE float64 BLAS matvec scores all rows on the trunc(v·10⁴)
    lattice (exact: |score| ≤ 64·10⁴·10³ ≪ 2^53); each batch emits
    only its top-20 partial, so the final reduce sees k·num_blocks
    rows, never the corpus."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    K = 20

    def score(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64())})
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n
        j = np.arange(d, dtype=np.int64)
        w = ((j + 1) * 2654435761) % 2001 - 1000
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        s = (q @ w.astype(np.float64)).astype(np.int64)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        # partial top-K by (score desc, vec_id asc)
        order = np.lexsort([ids, -s])[:K]
        return pa.table({"vec_id": pa.array(ids[order]),
                         "score": pa.array(s[order])})

    parts = emb.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True,
                            batch_size=65536).materialize()
    df = parts.to_pandas()  # k × num_blocks rows — tiny final reduce
    df = df.sort_values(["score", "vec_id"], ascending=[False, True],
                        kind="stable").head(K).reset_index(drop=True)
    return df



QUERIES["linear_scores_embeddings"] = q_linear_scores_embeddings

ORACLE_SQL["linear_scores_embeddings"] = """
        WITH e AS (SELECT vec_id,
                          unnest(range(len(embedding))) AS j,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        s AS (SELECT vec_id,
                     SUM(q * (((j + 1) * 2654435761) % 2001 - 1000)) AS sc
              FROM e GROUP BY 1)
        SELECT vec_id, CAST(sc AS BIGINT) AS score
        FROM s ORDER BY sc DESC, vec_id LIMIT 20
    """



def q_revenue_deciles(sf_dir: str):
    """Revenue-concentration report: rank every customer by exact
    lifetime revenue and aggregate per decile (rank-formula decile
    ``idx·10 // n``, NOT value quantiles — ties split by custkey).
    Plan = customer-scale revenue groupby, then
    ops/relational.global_row_number: a distributed ROW_NUMBER with no
    all-to-all sort — one bucket-cardinality count partial on the
    order-aligned coarse bucket (cents >> 16), a driver exclusive scan
    over bucket counts, one co-partition pass lexsorting each bucket
    from its broadcast base offset — and a decile-scale final sum."""
    from battery.ops.relational import global_row_number

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"o_custkey": t["o_custkey"], "rev": cents}).group_by(
            "o_custkey").aggregate([("rev", "sum")])
        return g.rename_columns(["o_custkey", "rev"])

    rev = (orders.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("o_custkey").sum("rev"))
    rev = _rename(rev, ["o_custkey", "rev"]).materialize()  # customer-scale
    n = rev.count()
    ranked = global_row_number(rev, "rev", "o_custkey", shift=16)

    def to_decile(t: pa.Table) -> pa.Table:
        dec = pc.divide(pc.multiply(t["idx"], pa.scalar(10, pa.int64())),
                        pa.scalar(n, pa.int64()))
        g = pa.table({"decile": dec, "rev": t["rev"],
                      }).group_by("decile").aggregate(
            [("rev", "sum"), ([], "count_all")])
        return pa.table({"decile": g["decile"],
                         "revenue": g["rev_sum"],
                         "n_cust": g["count_all"].cast(pa.int64())})

    out = (ranked.map_batches(to_decile, batch_format="pyarrow")
           .groupby("decile").sum(["revenue", "n_cust"]))
    return _rename(out, ["decile", "revenue", "n_cust"])



QUERIES["revenue_deciles"] = q_revenue_deciles

ORACLE_SQL["revenue_deciles"] = """
        WITH r AS (SELECT o_custkey,
                          SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS rev
                   FROM orders GROUP BY 1),
        k AS (SELECT o_custkey, rev,
                     ROW_NUMBER() OVER (ORDER BY rev, o_custkey) - 1 AS idx,
                     COUNT(*) OVER () AS n
              FROM r)
        SELECT (idx * 10) // n AS decile,
               CAST(SUM(rev) AS BIGINT) AS revenue,
               COUNT(*) AS n_cust
        FROM k GROUP BY 1
    """



def q_fuzzy_token_pairs_docs(sf_dir: str):
    """Fuzzy vocabulary dedup (FastSS, Bocek et al. 2007): every
    distinct token pair within Levenshtein distance 2, with corpus
    counts — the spelling-variant collapse step of a text-cleaning
    pipeline. Plan = ops/fuzzy.fuzzy_token_pairs: one corpus-scale
    token-count groupby, then everything runs at VOCABULARY scale —
    deletion-neighborhood candidate generation (lev<=d pairs must
    share a <=d-deletion variant), hash-bucketed all-pairs inside
    variant runs, pair-string dedup, exact DP verify at candidate
    scale. The oracle replays with DuckDB's levenshtein over the
    distinct-token self-join."""
    from battery.ops.fuzzy import fuzzy_token_pairs

    return fuzzy_token_pairs(_read(sf_dir, "documents", ["text"]),
                             max_d=2)



QUERIES["fuzzy_token_pairs_docs"] = q_fuzzy_token_pairs_docs

ORACLE_SQL["fuzzy_token_pairs_docs"] = """
        WITH v AS (SELECT w AS tok, count(*) AS n
                   FROM (SELECT unnest(string_split(text, ' ')) AS w
                         FROM documents)
                   GROUP BY 1)
        SELECT a.tok AS tok_a, b.tok AS tok_b,
               CAST(levenshtein(a.tok, b.tok) AS BIGINT) AS dist,
               a.n AS n_a, b.n AS n_b
        FROM v a JOIN v b
          ON a.tok < b.tok AND levenshtein(a.tok, b.tok) <= 2
    """



def q_session_concurrency_events(sf_dir: str):
    """Peak concurrency sweep-line (interval algebra): sessionize
    events (30-min gap), then find the maximum number of sessions
    active at once, the earliest instant it happens, and the session
    count. Plan = relational.session_intervals (one co-partition,
    vectorized lexsort/reduceat sessions-to-intervals) feeding
    relational.interval_max_concurrency — a GLOBAL prefix sum over
    boundary deltas done with the order-aligned coarse-bucket pattern
    (per-bucket delta sums, driver exclusive scan, per-bucket cumsum
    from broadcast bases, bucket-cardinality final reduce). Per-ts
    delta grouping makes equal-time starts/ends tie-break-free."""
    from battery.ops.relational import (interval_max_concurrency,
                                        session_intervals)

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return interval_max_concurrency(session_intervals(ev))



QUERIES["session_concurrency_events"] = q_session_concurrency_events

ORACLE_SQL["session_concurrency_events"] = """
        WITH s AS (SELECT user_id, epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        iv AS (SELECT user_id, sid, min(us) AS a, max(us) AS b
               FROM s2 GROUP BY 1, 2),
        bd AS (SELECT a AS t, 1 AS d FROM iv
               UNION ALL SELECT b + 1, -1 FROM iv),
        g AS (SELECT t, SUM(d) AS d FROM bd GROUP BY t),
        run AS (SELECT t, SUM(d) OVER (ORDER BY t
                                       ROWS UNBOUNDED PRECEDING) AS cc
                FROM g),
        m AS (SELECT max(cc) AS mx FROM run)
        SELECT CAST(m.mx AS BIGINT) AS max_cc,
               CAST(min(run.t) AS BIGINT) AS t_at_max,
               (SELECT count(*) FROM iv) AS n_intervals
        FROM run JOIN m ON run.cc = m.mx
        GROUP BY m.mx
    """



def q_sliding_distinct_users(sf_dir: str):
    """Sliding-window COUNT DISTINCT (3-hour window, 1-hour hop): how
    many distinct users were active in each trailing 3h window — the
    distinct-cardinality variant the sliding SUM windows can't
    express. Plan = explode each event into its 3 covering windows,
    pack (window, user) into ONE int64 key (user < 2^33 asserted,
    hour index < 2^30), per-batch Arrow dedup partial so the one
    shuffle carries distinct pairs, then a window-scale count."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def explode(t: pa.Table) -> pa.Table:
        h = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(3_600_000_000, pa.int64()))
        u = t["user_id"].to_numpy(zero_copy_only=False)
        assert (u < (1 << 33)).all() and u.min(initial=0) >= 0, \
            "sliding_distinct packing contract: user_id < 2^33"
        hv = h.to_numpy(zero_copy_only=False)
        ks = [((hv - k) << 33) | u for k in (0, 1, 2)]
        g = pa.table({"k": pa.array(np.concatenate(ks))}).group_by(
            "k").aggregate([])
        return g

    pairs = ev.map_batches(explode, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("k").count()

    def to_window(t: pa.Table) -> pa.Table:
        w = pc.shift_right(t["k"], pa.scalar(33))
        g = pa.table({"w": w}).group_by("w").aggregate([([], "count_all")])
        return g.rename_columns(["w", "n_users"])

    out = (pairs.map_batches(to_window, batch_format="pyarrow")
           .groupby("w").sum("n_users"))
    return _rename(out, ["w", "n_users"])



QUERIES["sliding_distinct_users"] = q_sliding_distinct_users

ORACLE_SQL["sliding_distinct_users"] = """
        WITH x AS (SELECT DISTINCT
                          (epoch_us(ts) // 3600000000) - k AS w, user_id
                   FROM events CROSS JOIN unnest([0, 1, 2]) AS t(k))
        SELECT w, count(*) AS n_users FROM x GROUP BY 1
    """



def q_running_revenue_orders(sf_dir: str):
    """Running total (SUM OVER ... ROWS UNBOUNDED PRECEDING): each
    order's cumulative customer revenue and order sequence number, in
    (date, key) order. Plan = relational.grouped_rolling with the
    frame opened to the whole run (one key co-partition, prefix sums
    clamped to run starts — unbounded is the frame=infinity special
    case of the ROWS-frame family). Exact-integer cents lattice so the
    cumulative sum is association-order-proof."""
    from battery.ops.relational import grouped_rolling

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice",
                    "o_orderdate"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "date_us": t["o_orderdate"].cast(pa.int64()),
                         "cents": cents})

    ds = orders.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = grouped_rolling(ds, "o_custkey", ["date_us", "o_orderkey"],
                          "cents", frame=1 << 40)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "running_cents": t["roll_sum"],
                         "seq": t["roll_n"]})

    return out.map_batches(finish, batch_format="pyarrow")



QUERIES["running_revenue_orders"] = q_running_revenue_orders

ORACLE_SQL["running_revenue_orders"] = """
        SELECT o_orderkey,
               SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
                 OVER w AS running_cents,
               COUNT(*) OVER w AS seq
        FROM orders
        WINDOW w AS (PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    """



def q_session_stats_users(sf_dir: str):
    """Session-length distribution: for each session size (events per
    session) the number of sessions and their total wall duration —
    the engagement histogram of a sessionized event stream. Plan =
    relational.session_intervals (one co-partition, vectorized
    lexsort/reduceat pass emitting per-session rows with n_rows), then
    a per-batch Arrow partial and a session-size-scale groupby."""
    from battery.ops.relational import session_intervals

    iv = session_intervals(_read(sf_dir, "events", ["user_id", "ts"]))

    def partial(t: pa.Table) -> pa.Table:
        dur = pc.subtract(t["b_us"], t["a_us"])
        g = pa.table({"n_events": t["n_rows"], "dur": dur}).group_by(
            "n_events").aggregate([([], "count_all"), ("dur", "sum")])
        return pa.table({"n_events": g["n_events"],
                         "n_sessions": g["count_all"].cast(pa.int64()),
                         "sum_duration_us": g["dur_sum"]})

    out = (iv.map_batches(partial, batch_format="pyarrow")
           .groupby("n_events").sum(["n_sessions", "sum_duration_us"]))
    return _rename(out, ["n_events", "n_sessions", "sum_duration_us"])



QUERIES["session_stats_users"] = q_session_stats_users

ORACLE_SQL["session_stats_users"] = """
        WITH s AS (SELECT user_id, epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        iv AS (SELECT user_id, sid, min(us) AS a, max(us) AS b,
                      count(*) AS n_ev
               FROM s2 GROUP BY 1, 2)
        SELECT CAST(n_ev AS BIGINT) AS n_events,
               count(*) AS n_sessions,
               CAST(SUM(b - a) AS BIGINT) AS sum_duration_us
        FROM iv GROUP BY 1
    """



def q_upsert_orders(sf_dir: str):
    """Lakehouse MERGE / upsert compaction: apply an update batch to
    the orders snapshot — every 10th key's row is REPLACED (status 'U',
    price +1111 cents), every 500th key also INSERTS a new row under
    key+10^9 — untouched rows pass through. Plan =
    relational.upsert_merge: one co-partition per side, winners
    resolved in one vectorized lexsort keep-last pass (no pandas
    merge), with a one-row-per-key-per-side contract assert."""
    from battery.ops.relational import upsert_merge

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_orderstatus": t["o_orderstatus"],
                         "cents": cents})

    base = orders.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def updates(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False)
        c = t["cents"].to_numpy(zero_copy_only=False)
        rep = k % 10 == 0
        ins = k % 500 == 0
        return pa.table({
            "o_orderkey": np.r_[k[rep], k[ins] + 1_000_000_000],
            "o_orderstatus": pa.array(
                ["U"] * int(rep.sum()) + ["N"] * int(ins.sum())),
            "cents": np.r_[c[rep] + 1111, c[ins]],
        })

    upd = base.map_batches(updates, batch_format="pyarrow")
    return upsert_merge(base, upd, "o_orderkey")



QUERIES["upsert_orders"] = q_upsert_orders

ORACLE_SQL["upsert_orders"] = """
        WITH base AS (SELECT o_orderkey, o_orderstatus,
                             CAST(floor(o_totalprice * 100.0 + 0.5)
                                  AS BIGINT) AS cents
                      FROM orders),
        upd AS (SELECT o_orderkey, 'U' AS o_orderstatus,
                       cents + 1111 AS cents
                FROM base WHERE o_orderkey % 10 = 0
                UNION ALL
                SELECT o_orderkey + 1000000000, 'N', cents
                FROM base WHERE o_orderkey % 500 = 0)
        SELECT * FROM upd
        UNION ALL
        SELECT * FROM base
        WHERE o_orderkey NOT IN (SELECT o_orderkey FROM upd)
    """



def q_label_centroids(sf_dir: str):
    """Grouped vector aggregate (class centroids): per (label, dim)
    the exact count and lattice coordinate sum — the supervised
    counterpart of the covariance moments, and the input to LDA /
    nearest-centroid classifiers. Per batch the list column flattens
    zero-copy to an (n × d) matrix; rows group by label with ONE
    argsort + reduceat (no per-label Python); partials pack
    (label, dim) into a single int64 key so the pair-cardinality
    groupby stays on the cheap path. The float centroid itself
    (s_q/n) is a scalar epilogue left out of the compared columns."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s_q": pa.array([], pa.int64())})
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lab, kind="stable")
        q, lab = q[order], lab[order]
        start = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        cnt = np.diff(np.r_[start, n])
        sums = np.add.reduceat(q, start, axis=0)  # (labels, d)
        ul = lab[start]
        key = (np.repeat(ul, d) * 4096 +
               np.tile(np.arange(d, dtype=np.int64), len(ul)))
        return pa.table({
            "key": pa.array(key),
            "n": pa.array(np.repeat(cnt, d).astype(np.int64)),
            "s_q": pa.array(sums.reshape(-1).astype(np.int64)),
        })

    agg = (emb.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=65536)
           .groupby("key").sum(["n", "s_q"]))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy(zero_copy_only=False)
        return pa.table({"label": pa.array(k // 4096),
                         "dim": pa.array(k % 4096),
                         "n": t["sum(n)"],
                         "s_q": t["sum(s_q)"]})

    return agg.map_batches(unpack, batch_format="pyarrow")



QUERIES["label_centroids"] = q_label_centroids

ORACLE_SQL["label_centroids"] = """
        WITH e AS (SELECT label,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings)
        SELECT CAST(label AS BIGINT) AS label, dim,
               count(*) AS n, CAST(SUM(q) AS BIGINT) AS s_q
        FROM e GROUP BY 1, 2
    """



def q_dense_rank_orders(sf_dir: str):
    """Per-key DENSE_RANK window (rank of each order inside its
    customer by price, ties share a rank with no gaps) — the in-group
    ranking member of the window family (alongside lag, rolling,
    range, ntile, percent_rank). One hash co-partition on custkey,
    then each bucket group ranks ALL its keys in a single vectorized
    pass: lexsort by (key, cents desc), distinct-value cumsum reset at
    run starts. No global sort, no per-key Python."""
    from battery.ops.relational import _with_bucket

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"], "cents": cents})

    ds = orders.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_custkey"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        order = np.lexsort([-c, k])
        df = df.iloc[order].drop(columns=["bucket"]).reset_index(drop=True)
        k, c = k[order], c[order]
        new_run = np.r_[True, k[1:] != k[:-1]]
        new_val = np.r_[True, new_run[1:] | (c[1:] != c[:-1])]
        d = np.cumsum(new_val)
        run_start_d = d[np.flatnonzero(new_run)[np.cumsum(new_run) - 1]]
        df["drank"] = (d - run_start_d + 1).astype(np.int64)
        return df

    out = (_with_bucket(ds, "o_custkey", 32)
           .groupby("bucket").map_groups(rank, batch_format="pandas"))
    return out.select_columns(["o_orderkey", "drank"])



QUERIES["dense_rank_orders"] = q_dense_rank_orders

ORACLE_SQL["dense_rank_orders"] = """
        SELECT o_orderkey,
               DENSE_RANK() OVER (
                   PARTITION BY o_custkey
                   ORDER BY CAST(floor(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT) DESC) AS drank
        FROM orders
    """



def q_double_charge_orders(sf_dir: str):
    """Duplicate-transaction detection (GROUP BY ... HAVING n >= 2):
    customers with 2+ orders in the same $1000 price band — the
    anomaly-screening scan of a payments pipeline. Pack
    (custkey, band) into ONE int64 key (band < 2^27 over the $1000
    lattice, custkey < 2^36 asserted), per-batch count partials, one
    pair-cardinality groupby, filter n >= 2 inside the epilogue
    batch (HAVING never materializes the passing groups driver-side)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
        band = cents // 100_000
        cust = t["o_custkey"].to_numpy(zero_copy_only=False)
        assert (cust < (1 << 36)).all() and (band < (1 << 27)).all(), \
            "double_charge packing contract"
        k = cust * (1 << 27) + band
        g = pa.table({"k": pa.array(k)}).group_by("k").aggregate(
            [([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (orders.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("k").sum("n"))

    def having(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["sum(n)"], pa.scalar(2)))
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({"o_custkey": pa.array(k >> 27),
                         "band": pa.array(k & ((1 << 27) - 1)),
                         "n": t["sum(n)"].cast(pa.int64())})

    return agg.map_batches(having, batch_format="pyarrow")



QUERIES["double_charge_orders"] = q_double_charge_orders

ORACLE_SQL["double_charge_orders"] = """
        SELECT o_custkey,
               CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                 // 100000 AS band,
               count(*) AS n
        FROM orders GROUP BY 1, 2 HAVING count(*) >= 2
    """



def q_centroid_confusion(sf_dir: str):
    """Two-phase ML scoring: learn nearest-centroid class prototypes
    from the data (pass 1 = the label_centroids aggregate), broadcast
    the tiny model, classify every vector, and emit the confusion
    matrix (true label × predicted, counts) — train-then-score inside
    one engine, the evaluation loop of an embedding-quality pipeline.
    All arithmetic is exact integer: centroids are floor(Σq·10³/n+½)
    on the 10⁷ lattice (IEEE double division, bit-identical in numpy
    and DuckDB below the asserted 2^53 bound), distances are int64
    ‖q·10³‖² − 2q·10³·μ + ‖μ‖² via one integer matmul per batch, ties
    break to the smaller label. The model is vec-count-independent
    (classes × dims), so phase 2 is a pure broadcast map — no
    shuffle touches the corpus."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def _mat(t: pa.Table):
        col = t["embedding"].combine_chunks()
        n = len(col)
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n if n else 0
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        return q, d

    def moments(t: pa.Table) -> pa.Table:
        q, d = _mat(t)
        if not len(q):
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "s_q": pa.array([], pa.int64())})
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lab, kind="stable")
        q, lab = q[order], lab[order]
        start = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        cnt = np.diff(np.r_[start, len(lab)])
        sums = np.add.reduceat(q, start, axis=0)
        ul = lab[start]
        key = (np.repeat(ul, d) * 4096 +
               np.tile(np.arange(d, dtype=np.int64), len(ul)))
        return pa.table({"key": pa.array(key),
                         "n": pa.array(np.repeat(cnt, d).astype(np.int64)),
                         "s_q": pa.array(sums.reshape(-1).astype(np.int64))})

    agg = (emb.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=65536)
           .groupby("key").sum(["n", "s_q"]).take_all())  # classes×dims
    labels = sorted({r["key"] // 4096 for r in agg})
    lidx = {l: i for i, l in enumerate(labels)}
    dmax = max(r["key"] % 4096 for r in agg) + 1
    mu = np.zeros((len(labels), dmax), np.int64)
    for r in agg:
        s_q, n = r["sum(s_q)"], r["sum(n)"]
        assert abs(s_q) * 1000 < (1 << 53), "centroid lattice contract"
        mu[lidx[r["key"] // 4096], r["key"] % 4096] = int(
            np.floor(s_q * 1000.0 / n + 0.5))
    model_ref = ray.put((np.array(labels, np.int64), mu))

    def classify(t: pa.Table) -> pa.Table:
        labs, mu = _broadcast(model_ref)
        q, d = _mat(t)
        if not len(q):
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        qq = q.astype(np.int64) * 1000
        # ||qq - mu_c||^2 = ||qq||^2 - 2 qq.mu_c + ||mu_c||^2, int64
        cross = qq @ mu.T                      # (n, classes) exact int64
        dist = (qq * qq).sum(axis=1, keepdims=True) - 2 * cross \
            + (mu * mu).sum(axis=1)[None, :]
        pred = labs[np.argmin(dist, axis=1)]   # ties -> smaller label
        true = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table({"key": pa.array(true * 4096 + pred)}).group_by(
            "key").aggregate([([], "count_all")])
        return g.rename_columns(["key", "n"])

    conf = (emb.map_batches(classify, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=65536)
            .groupby("key").sum("n"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy(zero_copy_only=False)
        return pa.table({"label": pa.array(k // 4096),
                         "pred": pa.array(k % 4096),
                         "n": t["sum(n)"].cast(pa.int64())})

    return conf.map_batches(unpack, batch_format="pyarrow")



QUERIES["centroid_confusion"] = q_centroid_confusion

ORACLE_SQL["centroid_confusion"] = """
        WITH e AS (SELECT vec_id, label,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        c AS (SELECT label AS c_label, dim,
                     CAST(floor(SUM(q) * 1000.0 / count(*) + 0.5)
                          AS BIGINT) AS mu
              FROM e GROUP BY 1, 2),
        d AS (SELECT e.vec_id, e.label, c.c_label,
                     SUM((e.q * 1000 - c.mu) * (e.q * 1000 - c.mu))
                       AS dist2
              FROM e JOIN c ON e.dim = c.dim GROUP BY 1, 2, 3),
        p AS (SELECT vec_id, label, c_label,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY dist2, c_label) AS rn
              FROM d)
        SELECT CAST(label AS BIGINT) AS label,
               CAST(c_label AS BIGINT) AS pred, count(*) AS n
        FROM p WHERE rn = 1 GROUP BY 1, 2
    """



def q_dominant_dim_embeddings(sf_dir: str):
    """Per-row ARGMAX over a list column: which dimension dominates
    each embedding (ties to the smaller dim), counted per dimension —
    the "dead/hot neuron" activation histogram of a representation
    check. One np.argmax per batch on the trunc(v·10⁴) lattice (ties
    resolve to the first index, matching the ROW_NUMBER replay's
    (q DESC, dim) order), then a dim-cardinality count shuffle."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        top = np.argmax(q, axis=1)  # first max = smallest dim on ties
        cnt = np.bincount(top, minlength=d)
        nz = np.flatnonzero(cnt)
        return pa.table({"dim": pa.array(nz.astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    out = (emb.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=65536)
           .groupby("dim").sum("n"))
    return _rename(out, ["dim", "n"])



QUERIES["dominant_dim_embeddings"] = q_dominant_dim_embeddings

ORACLE_SQL["dominant_dim_embeddings"] = """
        WITH e AS (SELECT vec_id,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        p AS (SELECT vec_id, dim,
                     ROW_NUMBER() OVER (PARTITION BY vec_id
                                        ORDER BY q DESC, dim) AS rn
              FROM e)
        SELECT dim, count(*) AS n FROM p WHERE rn = 1 GROUP BY 1
    """



def q_weekly_type_wow(sf_dir: str):
    """Week-over-week reporting: per (event_type, week) the event
    count, the previous week's count (LAG, -1 when absent), and the
    delta — the trend table every metrics pipeline materializes. Plan
    = packed (type-index, week) count partials (closed 5-type
    vocabulary asserted), one pair-cardinality groupby, then the LAG
    runs INSIDE one tiny aggregate-scale task via the co-partitioned
    grouped_rolling lag path."""
    from battery.ops.relational import grouped_rolling

    ev = _read(sf_dir, "events", ["event_type", "ts"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        assert idx.null_count == 0, "weekly_wow: unseen event_type"
        wk = pc.divide(t["ts"].cast(pa.int64()),
                       pa.scalar(604_800_000_000, pa.int64()))
        k = pc.add(pc.multiply(idx.cast(pa.int64()),
                               pa.scalar(1 << 32, pa.int64())), wk)
        g = pa.table({"k": k}).group_by("k").aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (ev.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").sum("n"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({"ti": pa.array(k >> 32),
                         "week": pa.array(k & 0xFFFFFFFF),
                         "n": t["sum(n)"].cast(pa.int64())})

    weekly = agg.map_batches(unpack, batch_format="pyarrow")
    rolled = grouped_rolling(weekly, "ti", ["week"], "n", frame=1,
                             lag_col="n", lag_default=-1)

    def finish(t: pa.Table) -> pa.Table:
        ti = t["ti"].to_numpy(zero_copy_only=False)
        names = types.to_pylist()
        et = pa.array([names[i] for i in ti], pa.string())
        prev = t["prev_n"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": et, "week": t["week"],
                         "n": t["n"], "prev_n": t["prev_n"],
                         "wow": pa.array(np.where(prev >= 0, n - prev, 0))})

    return rolled.map_batches(finish, batch_format="pyarrow")



QUERIES["weekly_type_wow"] = q_weekly_type_wow

ORACLE_SQL["weekly_type_wow"] = """
        WITH w AS (SELECT event_type,
                          epoch_us(ts) // 604800000000 AS week,
                          count(*) AS n
                   FROM events GROUP BY 1, 2)
        SELECT event_type, week, n,
               COALESCE(LAG(n) OVER (PARTITION BY event_type
                                     ORDER BY week), -1) AS prev_n,
               CASE WHEN LAG(n) OVER (PARTITION BY event_type
                                      ORDER BY week) IS NULL THEN 0
                    ELSE n - LAG(n) OVER (PARTITION BY event_type
                                          ORDER BY week) END AS wow
        FROM w
    """



def q_image_patch_sums(sf_dir: str):
    """ViT patch prep (multimodal): each of the first 512 images
    reduces to a 4×4 grid of exact integer patch statistics (channel
    sum + pixel count, integer split boundaries so mixed sizes coexist
    in one batch). Actor-pool stage (decoder state once per actor),
    two reduceat passes per size group — no per-pixel Python. Oracle:
    generator-replay sidecar rebuilt from synth.pixel_pattern with an
    independent inclusion-exclusion prefix-sum kernel."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(512)
    return ds.map_batches(
        ImagePatchStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )



QUERIES["image_patch_sums"] = q_image_patch_sums



def q_caption_stop_stats(sf_dir: str):
    """Structured extraction from captions on a METADATA-ONLY scan of
    the multimodal table: parse the stop id out of each caption
    ("tile N near stop M"), aggregate image count + pixel mass per
    (fmt, stop-bucket of 4). The read prunes to (fmt, caption, w, h) — the
    binary payload column never leaves storage, the core discipline
    for wide image tables. Packed (fmt-index, bucket) single-int key
    over the closed {png, raw} fmt set (asserted)."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["fmt", "caption", "w", "h"])
    fmts = pa.array(["png", "raw"])

    def partial(t: pa.Table) -> pa.Table:
        fi = pc.index_in(t["fmt"], value_set=fmts)
        assert fi.null_count == 0, "caption_stop_stats: unseen fmt"
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4), pa.int64())
        k = pc.add(pc.multiply(fi.cast(pa.int64()),
                               pa.scalar(1 << 40, pa.int64())),
                   pc.divide(stop, pa.scalar(4, pa.int64())))
        px = pc.multiply(t["w"].cast(pa.int64()), t["h"].cast(pa.int64()))
        g = pa.table({"k": k, "px": px}).group_by("k").aggregate(
            [([], "count_all"), ("px", "sum")])
        return g.rename_columns(["k", "n", "sum_px"])

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").sum(["n", "sum_px"]))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        names = fmts.to_pylist()
        return pa.table({
            "fmt": pa.array([names[i] for i in (k >> 40)], pa.string()),
            "stop_bucket": pa.array(k & ((1 << 40) - 1)),
            "n": t["sum(n)"].cast(pa.int64()),
            "sum_px": t["sum(sum_px)"].cast(pa.int64()),
        })

    return agg.map_batches(unpack, batch_format="pyarrow")



QUERIES["caption_stop_stats"] = q_caption_stop_stats



def q_hierarchy_rollup_customers(sf_dir: str):
    """Hierarchical (tree-path) rollup — the BOM/org-chart aggregate:
    customers form a decimal-digit hierarchy (node = custkey // 10^k),
    and every level-k ancestor accumulates its descendants' revenue
    and customer count. Unlike the column ROLLUP/CUBE ops this rolls
    up a PATH: each customer-scale row explodes to its 4 ancestors
    (bounded fan-out), packed (node, level) single-int keys, one
    ancestor-cardinality groupby. Revenue stays on the exact cents
    lattice end to end."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"c": t["o_custkey"], "rev": cents}).group_by(
            "c").aggregate([("rev", "sum"), ([], "count_all")])
        c = g["c"].to_numpy(zero_copy_only=False)
        rev = g["rev_sum"].to_numpy(zero_copy_only=False)
        n = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (c < (1 << 40)).all(), "hierarchy packing contract"
        keys, revs, ns = [], [], []
        for lvl, d in enumerate((1, 10, 100, 1000)):
            keys.append((c // d) * 4 + lvl)
            revs.append(rev)
            ns.append(n)
        return pa.table({"k": pa.array(np.concatenate(keys)),
                         "rev": pa.array(np.concatenate(revs)),
                         "n_orders": pa.array(np.concatenate(ns))})

    agg = (orders.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("k").sum(["rev", "n_orders"]))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(k >> 2),
                         "level": pa.array(k & 3),
                         "rev": t["sum(rev)"],
                         "n_orders": t["sum(n_orders)"].cast(pa.int64())})

    return agg.map_batches(unpack, batch_format="pyarrow")



QUERIES["hierarchy_rollup_customers"] = q_hierarchy_rollup_customers

ORACLE_SQL["hierarchy_rollup_customers"] = """
        WITH f AS (SELECT o_custkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                            AS cents
                   FROM orders),
        x AS (SELECT o_custkey // t.d AS node, t.level, cents
              FROM f CROSS JOIN (VALUES (0, 1), (1, 10), (2, 100),
                                        (3, 1000)) t(level, d))
        SELECT node, CAST(level AS BIGINT) AS level,
               CAST(SUM(cents) AS BIGINT) AS rev,
               count(*) AS n_orders
        FROM x GROUP BY 1, 2
    """



def q_daily_metrics_long(sf_dir: str):
    """UNPIVOT / melt: one wide per-day aggregate fanned into the long
    (day, metric, v) shape a metrics store ingests — n_events,
    n_users (exact distinct), sum_value_e4 as three rows per day.
    Plan = per-batch partials for all three metrics at once (packed
    (day, user) keys feed the distinct), two day-scale groupbys, one
    tiny melt epilogue batch."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"day": day, "v": v}).group_by("day").aggregate(
            [([], "count_all"), ("v", "sum")])
        return pa.table({"day": g["day"],
                         "n_events": g["count_all"].cast(pa.int64()),
                         "sum_v": g["v_sum"]})

    base = (ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("day").sum(["n_events", "sum_v"]))
    base = _rename(base, ["day", "n_events", "sum_v"]).materialize()

    def upart(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        u = t["user_id"].to_numpy(zero_copy_only=False)
        assert (u < (1 << 33)).all(), "daily_metrics packing contract"
        d = day.to_numpy(zero_copy_only=False)
        g = pa.table({"k": pa.array((d << 33) | u)}).group_by(
            "k").aggregate([])
        return g

    users = (ev.map_batches(upart, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("k").count()
             .map_batches(lambda t: pa.table(
                 {"day": pc.shift_right(t["k"], pa.scalar(33))})
                 .group_by("day").aggregate([([], "count_all")])
                 .rename_columns(["day", "n_users"]),
                 batch_format="pyarrow")
             .groupby("day").sum("n_users"))
    users = _rename(users, ["day", "n_users"]).materialize()

    # day-scale epilogue: melt the wide row into (day, metric, v)
    b = base.to_pandas().merge(users.to_pandas(), on="day")
    out = pd.DataFrame({
        "day": np.tile(b["day"].to_numpy(), 3),
        "metric": np.repeat(
            np.array(["n_events", "n_users", "sum_value_e4"]), len(b)),
        "v": np.r_[b["n_events"].to_numpy(), b["n_users"].to_numpy(),
                   b["sum_v"].to_numpy()],
    })
    return out



QUERIES["daily_metrics_long"] = q_daily_metrics_long

ORACLE_SQL["daily_metrics_long"] = """
        WITH w AS (SELECT epoch_us(ts) // 86400000000 AS day,
                          count(*) AS n_events,
                          count(DISTINCT user_id) AS n_users,
                          SUM(CAST(floor(value * 10000.0 + 0.5)
                                   AS BIGINT)) AS sum_v
                   FROM events GROUP BY 1)
        SELECT day, 'n_events' AS metric, CAST(n_events AS BIGINT) AS v
        FROM w
        UNION ALL
        SELECT day, 'n_users', CAST(n_users AS BIGINT) FROM w
        UNION ALL
        SELECT day, 'sum_value_e4', CAST(sum_v AS BIGINT) FROM w
    """



def q_type_lift_daily(sf_dir: str):
    """Market-basket pair analysis: over (user, day) baskets, for every
    event-type pair the number of baskets containing BOTH, plus each
    type's basket count and the basket total — the exact integer parts
    of support/lift (the float lift itself is a scalar epilogue kept
    out of the compared columns). Scale trick: baskets collapse to a
    5-bit type MASK (packed (user, day) key, bitwise-OR partials), so
    pair expansion runs at 2^5 mask cardinality — the quadratic step
    never touches basket-scale data."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        assert idx.null_count == 0, "type_lift: unseen event_type"
        u = t["user_id"].to_numpy(zero_copy_only=False)
        assert (u < (1 << 28)).all(), "type_lift packing contract"
        day = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
               // 86_400_000_000)
        k = (u << 20) | day
        bit = np.int64(1) << idx.cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        # per-batch bitwise-OR combiner via max over per-(basket,bit)
        # dedup, then OR at the groupby below can't express OR — use
        # sum of DISTINCT bits: dedup (basket, bit) then sum is OR
        g = pa.table({"k": pa.array(k), "bit": pa.array(bit)}).group_by(
            ["k", "bit"]).aggregate([])
        return g

    # distinct (basket, bit) pairs -> sum(bit) per basket == OR
    masks = (ev.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["k", "bit"]).count()
             .map_batches(lambda t: pa.table(
                 {"k": t["k"], "bit": t["bit"]}).group_by("k").aggregate(
                 [("bit", "sum")]).rename_columns(["k", "mask"]),
                 batch_format="pyarrow")
             .groupby("k").sum("mask"))

    def mask_counts(t: pa.Table) -> pa.Table:
        m = t["sum(mask)"].to_numpy(zero_copy_only=False)
        cnt = np.bincount(m, minlength=32)
        nz = np.flatnonzero(cnt)
        return pa.table({"mask": pa.array(nz.astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    mc = (masks.map_batches(mask_counts, batch_format="pyarrow")
          .groupby("mask").sum("n").take_all())  # 2^5 rows
    cnt = np.zeros(32, np.int64)
    for r in mc:
        cnt[r["mask"]] = r["sum(n)"]
    total = int(cnt.sum())
    names = types.to_pylist()
    rows = []
    for a in range(5):
        n_a = int(cnt[(np.arange(32) & (1 << a)) > 0].sum())
        for b in range(a + 1, 5):
            n_b = int(cnt[(np.arange(32) & (1 << b)) > 0].sum())
            both = int(cnt[((np.arange(32) & (1 << a)) > 0)
                           & ((np.arange(32) & (1 << b)) > 0)].sum())
            if both:  # oracle's inner join only emits co-occurring pairs
                rows.append((names[a], names[b], both, n_a, n_b, total))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "n_both",
                                       "n_a", "n_b", "n_baskets"])



QUERIES["type_lift_daily"] = q_type_lift_daily

ORACLE_SQL["type_lift_daily"] = """
        WITH b AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 86400000000 AS day, event_type
                   FROM events),
        m AS (SELECT event_type, count(*) AS n
              FROM b GROUP BY 1),
        tot AS (SELECT count(*) AS n FROM
                (SELECT DISTINCT user_id, day FROM b))
        SELECT a.event_type AS type_a, c.event_type AS type_b,
               count(*) AS n_both,
               (SELECT n FROM m WHERE event_type = a.event_type) AS n_a,
               (SELECT n FROM m WHERE event_type = c.event_type) AS n_b,
               (SELECT n FROM tot) AS n_baskets
        FROM b a JOIN b c ON a.user_id = c.user_id AND a.day = c.day
                         AND a.event_type < c.event_type
        GROUP BY 1, 2
    """



def q_topk_ties_orders(sf_dir: str):
    """Global top-k WITH ties (RANK() <= k): rows whose rank — ties
    share, gaps after — is <= 5, i.e. every row with cents >= the
    value at global rank 5; the SQL-semantics variant of the partial
    top-k operator. Plan: per-batch partial top-5 values
    (threshold-pruned), tiny driver reduce finds the global rank-5
    threshold, one broadcast filter pass — the corpus never sorts."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"], "cents": cents})

    fact = orders.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    def top5(t: pa.Table) -> pa.Table:
        c = t["cents"].to_numpy(zero_copy_only=False)
        k = min(5, len(c))
        top = np.partition(c, len(c) - k)[len(c) - k:]
        return pa.table({"cents": pa.array(np.sort(top)[::-1])})

    parts = fact.map_batches(top5, batch_format="pyarrow").take_all()
    allv = np.sort(np.array([r["cents"] for r in parts]))[::-1]
    thr = int(allv[4])  # value at global rank 5 (ties included below)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["cents"], pa.scalar(thr)))

    return fact.map_batches(keep, batch_format="pyarrow")



QUERIES["topk_ties_orders"] = q_topk_ties_orders

ORACLE_SQL["topk_ties_orders"] = """
        WITH r AS (SELECT o_orderkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)
                            AS cents,
                          RANK() OVER (ORDER BY
                            CAST(floor(o_totalprice * 100.0 + 0.5)
                                 AS BIGINT) DESC) AS rk
                   FROM orders)
        SELECT o_orderkey, cents FROM r WHERE rk <= 5
    """



def q_type_trigrams_users(sf_dir: str):
    """Sequential pattern mining one level past bigrams: counts of
    (prev2, prev1, cur) event-type TRIGRAMS over each user's time-
    ordered stream — double-LAG windowing. One co-partition on user,
    each bucket group handles all its keys in a single vectorized
    pass (lexsort by (user, ts, event_id), two shifted views masked at
    run starts, packed 3-digit base-5 type codes), then a
    125-cardinality count shuffle."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])
    names = types.to_pylist()

    def prep(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        assert idx.null_count == 0, "trigrams: unseen event_type"
        return pa.table({"user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "ti": idx.cast(pa.int64())})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def tri(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        ti = df["ti"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, ti = u[order], ti[order]
        n = len(u)
        if n < 3:
            return pd.DataFrame({"code": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        same2 = u[2:] == u[:-2]  # rows 2.. whose two predecessors share
        code = ti[:-2] * 25 + ti[1:-1] * 5 + ti[2:]
        cnt = np.bincount(code[same2], minlength=125)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({"code": nz.astype(np.int64),
                             "n": cnt[nz].astype(np.int64)})

    agg = (_with_bucket(ds, "user_id", 32)
           .groupby("bucket").map_groups(tri, batch_format="pandas")
           .groupby("code").sum("n"))

    def unpack(t: pa.Table) -> pa.Table:
        c = t["code"].to_numpy(zero_copy_only=False)
        return pa.table({
            "t1": pa.array([names[i] for i in c // 25], pa.string()),
            "t2": pa.array([names[i] for i in (c // 5) % 5], pa.string()),
            "t3": pa.array([names[i] for i in c % 5], pa.string()),
            "n": t["sum(n)"].cast(pa.int64()),
        })

    return agg.map_batches(unpack, batch_format="pyarrow")



QUERIES["type_trigrams_users"] = q_type_trigrams_users

ORACLE_SQL["type_trigrams_users"] = """
        WITH s AS (SELECT user_id, event_type,
                          LAG(event_type, 1) OVER w AS p1,
                          LAG(event_type, 2) OVER w AS p2
                   FROM events
                   WINDOW w AS (PARTITION BY user_id
                                ORDER BY ts, event_id))
        SELECT p2 AS t1, p1 AS t2, event_type AS t3, count(*) AS n
        FROM s WHERE p2 IS NOT NULL GROUP BY 1, 2, 3
    """



def q_llm_corpus_prep(sf_dir: str):
    """Composite flagship for LLM corpus preparation — three engine
    stages CHAINED: (1) boilerplate dedup — keep the smallest doc_id
    per 30-char text prefix, grouped on the composite (h64, prefix) so
    the shuffle compares 8-byte hashes, with (doc_id, n_chars,
    n_tokens) packed into ONE int64 min-value (doc_id in the high bits
    makes min() pick the canonical row and carry its attributes for
    free); (2) quality filter — survivors with 30..90 whitespace
    tokens; (3) contiguous 20k-char shard packing via the two-pass
    distributed exclusive prefix sum. Output: per shard, doc count and
    char mass. The oracle replays the whole chain as nested CTEs."""
    from battery.ops.hashing import hash_strings

    docs = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def prep(t: pa.Table) -> pa.Table:
        pfx = pc.utf8_slice_codeunits(t["text"], 0, 30).combine_chunks()
        ntok = pc.list_value_length(
            pc.split_pattern(t["text"], " ")).cast(pa.int64())
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        nc = t["n_chars"].to_numpy(zero_copy_only=False)
        nt = ntok.to_numpy(zero_copy_only=False)
        assert (d < (1 << 38)).all() and (nc < (1 << 14)).all() \
            and (nt < (1 << 10)).all(), "corpus_prep packing contract"
        v = (d << 24) | (nc << 10) | nt
        h = hash_strings(pfx).view(np.int64)
        g = pa.table({"h64": pa.array(h), "pfx": pfx,
                      "v": pa.array(v)}).group_by(
            ["h64", "pfx"]).aggregate([("v", "min")])
        return g.rename_columns(["h64", "pfx", "v"])

    # final dedup combine: hash-bucket co-partition + one vectorized
    # Arrow group_by per bucket, NOT a Ray multi-key (int, string)
    # groupby — the Aggregate's per-block fixed cost dominated this
    # corpus-cardinality combine (the window_events r4 lesson applied
    # at group scale; every (h64, pfx) group co-locates because the
    # bucket key derives from h64 alone). 1.5 -> 1.17 s at sf0.1/32.
    P = max(8, int(ray.cluster_resources().get("CPU", 16)))

    def add_hb(t: pa.Table) -> pa.Table:
        h = t["h64"].to_numpy(zero_copy_only=False)
        return t.append_column("hb", pa.array((h % P).astype(np.int64)))

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by(["h64", "pfx"]).aggregate([("v", "min")])
        return pa.table({"h64": g["h64"], "pfx": g["pfx"],
                         "min(v)": g["v_min"]})

    survivors = (docs.map_batches(prep, batch_format="pyarrow",
                                  zero_copy_batch=True)
                 .map_batches(add_hb, batch_format="pyarrow")
                 .groupby("hb").map_groups(comb, batch_format="pyarrow"))

    def unpack(t: pa.Table) -> pa.Table:
        v = t["min(v)"].to_numpy(zero_copy_only=False)
        nt = v & ((1 << 10) - 1)
        keep = (nt >= 30) & (nt <= 90)
        return pa.table({"doc_id": pa.array((v >> 24)[keep]),
                         "n_chars": pa.array(((v >> 10)
                                              & ((1 << 14) - 1))[keep])})

    # materialize: _shard_by_chars executes its input twice (bucket
    # sums + the sharding pass); without this the dedup shuffle runs
    # twice (the bucketed_join derived-input law)
    kept = survivors.map_batches(unpack, batch_format="pyarrow") \
        .materialize()
    return _shard_by_chars(kept)



QUERIES["llm_corpus_prep"] = q_llm_corpus_prep

ORACLE_SQL["llm_corpus_prep"] = """
        WITH t AS (SELECT doc_id, n_chars,
                          len(string_split(text, ' ')) AS n_tokens,
                          text[:30] AS pfx
                   FROM documents),
        d AS (SELECT pfx, min(doc_id) AS doc_id FROM t GROUP BY 1),
        s AS (SELECT t.doc_id, t.n_chars
              FROM t JOIN d USING (doc_id)
              WHERE t.n_tokens BETWEEN 30 AND 90),
        p AS (SELECT doc_id, n_chars,
                     COALESCE(SUM(n_chars) OVER (
                         ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS pre
              FROM s)
        SELECT pre // 20000 AS shard_id, count(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM p GROUP BY 1
    """



def q_ks_lang_docs(sf_dir: str):
    """Distribution-drift detector: EXACT Kolmogorov–Smirnov statistic
    between each language's n_chars distribution and the global one,
    as integer rational parts — ks_num = max over the value grid of
    |F_lang·n_all − F_all·n_lang| (both cumulative counts, so the max
    is exact; the float KS = ks_num / (n_lang·n_all) stays out of the
    compared columns). Plan: one (lang, n_chars)-cardinality count
    groupby (packed key over the closed 5-lang set), then the grid
    walk runs in a single aggregate-scale epilogue task."""
    docs = _read(sf_dir, "documents", ["lang", "n_chars"])
    langs = pa.array(["de", "en", "es", "fr", "zh"])

    def partial(t: pa.Table) -> pa.Table:
        li = pc.index_in(t["lang"], value_set=langs)
        assert li.null_count == 0, "ks: unseen lang"
        k = pc.add(pc.multiply(li.cast(pa.int64()),
                               pa.scalar(1 << 20, pa.int64())),
                   t["n_chars"])
        g = pa.table({"k": k}).group_by("k").aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (docs.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("k").sum("n").take_all())  # (lang, value)-scale
    names = langs.to_pylist()
    k = np.array([r["k"] for r in agg], np.int64)
    n = np.array([r["sum(n)"] for r in agg], np.int64)
    li, val = k >> 20, k & ((1 << 20) - 1)
    grid = np.unique(val)
    rows = []
    n_all = int(n.sum())
    # global cumulative counts over the grid
    g_cnt = np.zeros(len(grid), np.int64)
    np.add.at(g_cnt, np.searchsorted(grid, val), n)
    g_cum = np.cumsum(g_cnt)
    for L in range(len(names)):
        m = li == L
        if not m.any():
            continue
        l_cnt = np.zeros(len(grid), np.int64)
        np.add.at(l_cnt, np.searchsorted(grid, val[m]), n[m])
        l_cum = np.cumsum(l_cnt)
        n_lang = int(l_cnt.sum())
        ks_num = int(np.abs(l_cum * n_all - g_cum * n_lang).max())
        rows.append((names[L], n_lang, n_all, ks_num))
    return pd.DataFrame(rows, columns=["lang", "n_lang", "n_all",
                                       "ks_num"])



QUERIES["ks_lang_docs"] = q_ks_lang_docs

ORACLE_SQL["ks_lang_docs"] = """
        WITH grid AS (SELECT DISTINCT n_chars AS v FROM documents),
        tot AS (SELECT count(*) AS n_all FROM documents),
        lt AS (SELECT lang, count(*) AS n_lang FROM documents GROUP BY 1),
        cum AS (SELECT l.lang, g.v,
                       (SELECT count(*) FROM documents d
                        WHERE d.lang = l.lang AND d.n_chars <= g.v)
                         AS f_lang,
                       (SELECT count(*) FROM documents d
                        WHERE d.n_chars <= g.v) AS f_all
                FROM lt l CROSS JOIN grid g)
        SELECT c.lang, lt.n_lang, tot.n_all,
               CAST(max(abs(c.f_lang * tot.n_all - c.f_all * lt.n_lang))
                    AS BIGINT) AS ks_num
        FROM cum c JOIN lt ON lt.lang = c.lang CROSS JOIN tot
        GROUP BY 1, 2, 3
    """



def q_benford_prices(sf_dir: str):
    """Benford first-digit screen over order prices (the classic fraud
    / synthetic-data audit): leading digit of the cents lattice,
    counts per digit. Vectorized digit extraction via one decimal
    string cast (matching the SQL substring replay exactly — no float
    log10 edge cases)."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        d = pc.utf8_slice_codeunits(cents.cast(pa.string()), 0, 1)
        g = pa.table({"digit": d}).group_by("digit").aggregate(
            [([], "count_all")])
        return g.rename_columns(["digit", "n"])

    out = (orders.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("digit").sum("n"))
    return _rename(out, ["digit", "n"])



QUERIES["benford_prices"] = q_benford_prices

ORACLE_SQL["benford_prices"] = """
        SELECT substr(CAST(CAST(floor(o_totalprice * 100.0 + 0.5)
                                AS BIGINT) AS VARCHAR), 1, 1) AS digit,
               count(*) AS n
        FROM orders GROUP BY 1
    """



def q_regex_tokens_docs(sf_dir: str):
    """BPE-style regex pre-tokenization (the GPT-2 front-end split:
    alpha runs | digit runs | lone symbols) as an ACTOR-POOL stage —
    the three regexes compile once per actor in __init__, each batch
    only runs findall (the stateful-stage pattern, SURVEY §2.8).
    Oracle: DuckDB regexp_extract_all over the same pure
    character-class patterns (re and RE2 agree on these)."""
    from battery.ops.text import RegexTokenizerStage

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        RegexTokenizerStage, batch_format="pyarrow", batch_size=512,
        concurrency=2,
    )



QUERIES["regex_tokens_docs"] = q_regex_tokens_docs

ORACLE_SQL["regex_tokens_docs"] = """
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT)
                 AS n_alpha,
               CAST(len(regexp_extract_all(text, '[0-9]+')) AS BIGINT)
                 AS n_digit,
               CAST(len(regexp_extract_all(text, '[^a-z0-9\\s]'))
                    AS BIGINT) AS n_symbol
        FROM documents
    """



def q_pushdown_orders(sf_dir: str):
    """Prune at the read — BOTH prunings the 100-TB discipline asks
    for: a row-group/predicate filter (1996-H1 order dates, pushed
    into the parquet scan via a pyarrow expression so non-matching row
    groups never leave storage) AND column projection (3 of 6
    columns). Downstream is one priority-scale aggregate on the cents
    lattice."""
    import datetime

    expr = ((pc.field("o_orderdate")
             >= pa.scalar(datetime.datetime(1996, 1, 1)))
            & (pc.field("o_orderdate")
               < pa.scalar(datetime.datetime(1996, 7, 1))))
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_totalprice"],
                         filter=expr)

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"o_orderpriority": t["o_orderpriority"],
                      "cents": cents}).group_by(
            "o_orderpriority").aggregate(
            [([], "count_all"), ("cents", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "n": g["count_all"].cast(pa.int64()),
                         "rev": g["cents_sum"]})

    out = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("o_orderpriority").sum(["n", "rev"]))
    return _rename(out, ["o_orderpriority", "n", "rev"])



QUERIES["pushdown_orders"] = q_pushdown_orders

ORACLE_SQL["pushdown_orders"] = """
        SELECT o_orderpriority, count(*) AS n,
               CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
                    AS BIGINT) AS rev
        FROM orders
        WHERE o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1996-07-01'
        GROUP BY 1
    """



def q_near_price_pairs(sf_dir: str):
    """Inequality self-join WITHOUT a join: count unordered order
    pairs whose prices differ by <= 1 cent ACROSS different customers
    (near-duplicate payment screening). The quadratic |a-b|<=1 range
    join collapses to counting algebra on two count tables —
    Σ C(n_c,2) + Σ n_c·n_{c+1} over per-cents counts, minus the same
    two sums over per-(customer,cents) counts — so the engine does two
    count groupbys (value- and pair-cardinality) and a value-domain
    epilogue; no row ever meets another row. The oracle runs the real
    range join (DuckDB IEJoin) — two entirely different algorithms
    must agree on one number."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"cust": t["o_custkey"], "c": cents})

    fact = orders.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    def cpart(t: pa.Table) -> pa.Table:
        g = t.select(["c"]).group_by("c").aggregate([([], "count_all")])
        return g.rename_columns(["c", "n"])

    by_c = (fact.map_batches(cpart, batch_format="pyarrow")
            .groupby("c").sum("n").take_all())  # value-cardinality

    def ucpart(t: pa.Table) -> pa.Table:
        cu = t["cust"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        assert (cu < (1 << 24)).all() and (c < (1 << 38)).all(), \
            "near_price packing contract"
        g = pa.table({"k": pa.array((cu << 38) | c)}).group_by(
            "k").aggregate([([], "count_all")])
        return g.rename_columns(["k", "n"])

    by_uc = (fact.map_batches(ucpart, batch_format="pyarrow")
             .groupby("k").sum("n").take_all())  # pair-cardinality

    def pair_sum(keys: np.ndarray, n: np.ndarray,
                 stride: int = 1) -> int:
        """Σ C(n_k,2) + Σ n_k · n_{k+stride} over a sparse count map."""
        order = np.argsort(keys)
        keys, n = keys[order], n[order]
        same = int((n * (n - 1) // 2).sum())
        j = np.searchsorted(keys, keys + stride)
        ok = (j < len(keys)) & (keys[np.minimum(j, len(keys) - 1)]
                                == keys + stride)
        adj = int((n[ok] * n[np.minimum(j, len(keys) - 1)[ok]]).sum())
        return same + adj

    kc = np.array([r["c"] for r in by_c], np.int64)
    nc = np.array([r["sum(n)"] for r in by_c], np.int64)
    ku = np.array([r["k"] for r in by_uc], np.int64)
    nu = np.array([r["sum(n)"] for r in by_uc], np.int64)
    total = pair_sum(kc, nc)
    same_cust = pair_sum(ku, nu)  # stride 1 within the same cust block
    return pd.DataFrame({"n_pairs": [total - same_cust]})



QUERIES["near_price_pairs"] = q_near_price_pairs

ORACLE_SQL["near_price_pairs"] = """
        WITH f AS (SELECT row_number() OVER () AS rid, o_custkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS c
                   FROM orders)
        SELECT count(*) AS n_pairs
        FROM f a JOIN f b
          ON b.c BETWEEN a.c - 1 AND a.c + 1
         AND a.o_custkey <> b.o_custkey AND a.rid < b.rid
    """



def q_weighted_median_lineitem(sf_dir: str):
    """Grouped WEIGHTED median: per return flag, the quantity at which
    half the revenue mass sits below (lower weighted median, ties
    down) — the inventory-planning statistic plain medians can't
    express. quantity's closed integer domain (1..50) makes this
    exact with ONE packed (flag, qty) revenue-sum groupby at
    flag×domain cardinality; the cumulative threshold walk is a
    domain-size epilogue. Weights stay on the cents lattice."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    flags = pa.array(["A", "N", "R"])

    def partial(t: pa.Table) -> pa.Table:
        fi = pc.index_in(t["l_returnflag"], value_set=flags)
        assert fi.null_count == 0, "wmedian: unseen returnflag"
        q = t["l_quantity"].cast(pa.int64())
        cents = pc.floor(pc.add(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        k = pc.add(pc.multiply(fi.cast(pa.int64()),
                               pa.scalar(1 << 10, pa.int64())), q)
        g = pa.table({"k": k, "w": cents}).group_by("k").aggregate(
            [("w", "sum")])
        return g.rename_columns(["k", "w"])

    agg = (li.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").sum("w").take_all())  # flag x domain scale
    names = flags.to_pylist()
    k = np.array([r["k"] for r in agg], np.int64)
    w = np.array([r["sum(w)"] for r in agg], np.int64)
    rows = []
    for fi in range(len(names)):
        m = (k >> 10) == fi
        if not m.any():
            continue
        qs, ws = k[m] & 1023, w[m]
        order = np.argsort(qs)
        qs, ws = qs[order], ws[order]
        cum = np.cumsum(ws)
        tot = int(cum[-1])
        at = int(np.searchsorted(2 * cum, tot))  # first 2*cum >= tot
        rows.append((names[fi], int(qs[at]), tot))
    return pd.DataFrame(rows, columns=["l_returnflag", "wmedian_qty",
                                       "total_cents"])



QUERIES["weighted_median_lineitem"] = q_weighted_median_lineitem

ORACLE_SQL["weighted_median_lineitem"] = """
        WITH w AS (SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS q,
                          SUM(CAST(floor(l_extendedprice * 100.0 + 0.5)
                                   AS BIGINT)) AS ws
                   FROM lineitem GROUP BY 1, 2),
        c AS (SELECT l_returnflag, q,
                     SUM(ws) OVER (PARTITION BY l_returnflag
                                   ORDER BY q) AS cum,
                     SUM(ws) OVER (PARTITION BY l_returnflag) AS tot
              FROM w)
        SELECT l_returnflag, CAST(min(q) AS BIGINT) AS wmedian_qty,
               CAST(min(tot) AS BIGINT) AS total_cents
        FROM c WHERE 2 * cum >= tot GROUP BY 1
    """



def q_fmt_size_association(sf_dir: str):
    """Categorical-association screen on multimodal metadata (the
    chi-square contingency test in exact integer parts): for each
    (fmt, size-class) cell the observed count and the signed deviation
    numerator dev = n_ij·N − r_i·c_j (zero iff fmt ⟂ size; the float
    chi² = Σ dev²/(r·c·N) stays out of the compared columns; the
    2^53 bound is asserted). One metadata-only scan — the payload
    column never leaves storage — and a cell-cardinality groupby; the
    marginals join is a cell-scale epilogue."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["fmt", "w", "h"])
    fmts = pa.array(["png", "raw"])

    def partial(t: pa.Table) -> pa.Table:
        fi = pc.index_in(t["fmt"], value_set=fmts)
        assert fi.null_count == 0, "fmt_size: unseen fmt"
        px = pc.multiply(t["w"].cast(pa.int64()), t["h"].cast(pa.int64()))
        size_cls = pc.if_else(pc.greater_equal(px, pa.scalar(1024)),
                              pa.scalar(1, pa.int64()),
                              pa.scalar(0, pa.int64()))
        k = pc.add(pc.multiply(fi.cast(pa.int64()),
                               pa.scalar(2, pa.int64())), size_cls)
        g = pa.table({"k": k}).group_by("k").aggregate(
            [([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").sum("n").take_all())  # 4 cells
    names = fmts.to_pylist()
    k = np.array([r["k"] for r in agg], np.int64)
    n = np.array([r["sum(n)"] for r in agg], np.int64)
    N = int(n.sum())
    r = np.zeros(2, np.int64)
    c = np.zeros(2, np.int64)
    np.add.at(r, k >> 1, n)
    np.add.at(c, k & 1, n)
    assert N * int(n.max()) < (1 << 53), "fmt_size lattice contract"
    rows = []
    for i in range(len(k)):
        fi, sc = int(k[i] >> 1), int(k[i] & 1)
        dev = int(n[i]) * N - int(r[fi]) * int(c[sc])
        rows.append((names[fi], sc, int(n[i]), dev))
    return pd.DataFrame(rows, columns=["fmt", "size_class", "n", "dev"])



QUERIES["fmt_size_association"] = q_fmt_size_association



def q_daily_churn_users(sf_dir: str):
    """Day-over-day churn: for each day, how many users were active
    the PREVIOUS day but not this one (every activity-island end emits
    a churn event at end+1, including the final island — the LEAD
    IS NULL convention). Plan = per-batch (user, day) Arrow dedup
    partial, one co-partition on user, a single vectorized pass per
    bucket group (island ends via np.diff over the sorted dedup'd
    composite), then a day-scale count."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days(t: pa.Table) -> pa.Table:
        d = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"user_id": t["user_id"], "day": d}).group_by(
            ["user_id", "day"]).aggregate([])

    pairs = ev.map_batches(days, batch_format="pyarrow",
                           zero_copy_batch=True)

    def ends(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        order = np.lexsort([d, u])
        u, d = u[order], d[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        u, d = u[keep], d[keep]
        # island end = next row is another user OR a non-consecutive day
        end = np.r_[(u[1:] != u[:-1]) | (d[1:] - d[:-1] != 1), True]
        churn_day = d[end] + 1
        uniq, cnt = np.unique(churn_day, return_counts=True)
        return pd.DataFrame({"day": uniq, "n_churned": cnt.astype(np.int64)})

    out = (_with_bucket(pairs, "user_id", 32)
           .groupby("bucket").map_groups(ends, batch_format="pandas")
           .groupby("day").sum("n_churned"))
    return _rename(out, ["day", "n_churned"])



QUERIES["daily_churn_users"] = q_daily_churn_users

ORACLE_SQL["daily_churn_users"] = """
        WITH d AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 86400000000 AS day FROM events),
        x AS (SELECT user_id, day,
                     LEAD(day) OVER (PARTITION BY user_id
                                     ORDER BY day) AS nxt
              FROM d)
        SELECT day + 1 AS day, count(*) AS n_churned
        FROM x WHERE nxt IS NULL OR nxt > day + 1 GROUP BY 1
    """



def q_dense_type_day_matrix(sf_dir: str):
    """Cross-join spine + zero-fill: the DENSE (event_type × day)
    count matrix — every combination present even when no event
    happened (the reporting-grid contract; sparse groupbys silently
    drop empty cells). Plan = packed (type, day) count partials, then
    the densification runs in one aggregate-scale epilogue against the
    5 × day-range spine derived from the data's own min/max day. The
    oracle builds the same spine with CROSS JOIN generate_series."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        ti = pc.index_in(t["event_type"], value_set=types)
        assert ti.null_count == 0, "dense_matrix: unseen event_type"
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        k = pc.add(pc.multiply(ti.cast(pa.int64()),
                               pa.scalar(1 << 32, pa.int64())), day)
        g = pa.table({"k": k}).group_by("k").aggregate(
            [([], "count_all")])
        return g.rename_columns(["k", "n"])

    agg = (ev.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").sum("n").take_all())  # type x day scale
    names = types.to_pylist()
    k = np.array([r["k"] for r in agg], np.int64)
    n = np.array([r["sum(n)"] for r in agg], np.int64)
    ti, day = k >> 32, k & 0xFFFFFFFF
    d0, d1 = int(day.min()), int(day.max())
    span = d1 - d0 + 1
    dense = np.zeros((len(names), span), np.int64)
    dense[ti, day - d0] = n
    return pd.DataFrame({
        "event_type": np.repeat(np.array(names), span),
        "day": np.tile(np.arange(d0, d1 + 1, dtype=np.int64),
                       len(names)),
        "n": dense.reshape(-1),
    })



QUERIES["dense_type_day_matrix"] = q_dense_type_day_matrix

ORACLE_SQL["dense_type_day_matrix"] = """
        WITH b AS (SELECT min(epoch_us(ts) // 86400000000) AS d0,
                          max(epoch_us(ts) // 86400000000) AS d1
                   FROM events),
        spine AS (SELECT t.event_type, g.day
                  FROM (VALUES ('click'), ('error'), ('purchase'),
                               ('signup'), ('view')) t(event_type)
                  CROSS JOIN (SELECT unnest(generate_series(
                      (SELECT d0 FROM b), (SELECT d1 FROM b))) AS day) g),
        c AS (SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2)
        SELECT s.event_type, s.day, COALESCE(c.n, 0) AS n
        FROM spine s LEFT JOIN c USING (event_type, day)
    """



def q_anomaly_counts_users(sf_dir: str):
    """Own-distribution anomaly screen: per user the exact p95 of
    their value distribution (rank ceil(0.95·n), the ROW_NUMBER
    semantics) and how many of their events exceed it. Unlike the
    histogram-refinement grouped quantiles (whose interval lattice is
    dimension-scale in the group count), this co-partitions on the
    HIGH-cardinality user key and does quantile + threshold count in
    ONE vectorized pass per bucket group (lexsort, per-run rank pick,
    reduceat count) — the per-user contract is only that one user's
    rows fit one bucket task."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "value"])

    def screen(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        v = df["value"].to_numpy(np.float64)
        order = np.lexsort([v, u])
        u, v = u[order], v[order]
        start = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        n = np.diff(np.r_[start, len(u)])
        idx95 = start + np.ceil(0.95 * n).astype(np.int64) - 1
        p95 = v[idx95]
        above = np.add.reduceat(
            (v > np.repeat(p95, n)).astype(np.int64), start)
        return pd.DataFrame({"user_id": u[start],
                             "n": n.astype(np.int64),
                             "p95": p95,
                             "n_above": above.astype(np.int64)})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(screen, batch_format="pandas"))



QUERIES["anomaly_counts_users"] = q_anomaly_counts_users

ORACLE_SQL["anomaly_counts_users"] = """
        WITH r AS (SELECT user_id, value,
                          row_number() OVER (PARTITION BY user_id
                                             ORDER BY value) AS rn,
                          count(*) OVER (PARTITION BY user_id) AS n
                   FROM events),
        t AS (SELECT user_id, value AS p95, n FROM r
              WHERE rn = CAST(ceil(0.95 * n) AS BIGINT))
        SELECT e.user_id, CAST(t.n AS BIGINT) AS n, t.p95,
               SUM(CASE WHEN e.value > t.p95 THEN 1 ELSE 0 END)
                 AS n_above
        FROM events e JOIN t USING (user_id)
        GROUP BY 1, 2, 3
    """



def q_drawdown_users(sf_dir: str):
    """Running-extreme window (MAX OVER ... ROWS UNBOUNDED PRECEDING):
    per event, the user's running maximum value so far and the current
    drawdown (run-max − value) — the peak-tracking member of the
    window family the rolling SUMs don't cover. One co-partition on
    user, np.maximum.accumulate per run (reset at run starts by
    substituting −∞ at each first row), e4 lattice end to end."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()), "v": v})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, v = u[order], eid[order], v[order]
        new = np.r_[True, u[1:] != u[:-1]]
        # segment-reset cumulative max: pandas' grouped cummax is the
        # C-path prefix max with per-run resets (a lift/offset trick
        # would overflow int64 once a bucket holds ~2^18 users)
        seg = np.cumsum(new) - 1
        run_max = pd.Series(v).groupby(seg).cummax().to_numpy(np.int64)
        return pd.DataFrame({"event_id": eid,
                             "run_max_e4": run_max,
                             "drawdown_e4": run_max - v})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["drawdown_users"] = q_drawdown_users

ORACLE_SQL["drawdown_users"] = """
        WITH f AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            AS v
                   FROM events)
        SELECT event_id,
               MAX(v) OVER w AS run_max_e4,
               MAX(v) OVER w - v AS drawdown_e4
        FROM f
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    """



def q_rolling_distinct_types(sf_dir: str):
    """Windowed COUNT DISTINCT (distinct event types among each
    user's last 5 events) — the distinct-cardinality ROWS frame that
    plain rolling sums can't express. Over the closed 5-type
    vocabulary the window collapses to a rolling BITMASK OR: five
    shifted views of the per-row type bit, run-start masked, one
    popcount — fully vectorized in the per-bucket pass, no per-row
    set structure."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def prep(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        assert idx.null_count == 0, "rolling_distinct: unseen type"
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()),
                         "ti": idx.cast(pa.int64())})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        ti = df["ti"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, ti = u[order], eid[order], ti[order]
        n = len(u)
        bit = np.int64(1) << ti
        pos = np.arange(n)
        run_start = pos[np.r_[True, u[1:] != u[:-1]]][
            np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1]
        mask = bit.copy()
        for s in range(1, 5):  # OR in the s-th predecessor if in-run
            ok = pos - s >= run_start
            shifted = np.zeros(n, np.int64)
            shifted[s:] = bit[:-s]
            mask |= np.where(ok, shifted, 0)
        # popcount over 5 bits
        d = (mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1) \
            + ((mask >> 3) & 1) + ((mask >> 4) & 1)
        return pd.DataFrame({"event_id": eid,
                             "n_distinct_5": d.astype(np.int64)})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["rolling_distinct_types"] = q_rolling_distinct_types

ORACLE_SQL["rolling_distinct_types"] = """
        SELECT event_id,
               count(DISTINCT event_type) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
                 AS n_distinct_5
        FROM events
    """



def q_decay_score_users(sf_dir: str):
    """Geometric-decay engagement score (the bounded-horizon EWMA,
    exact): per event, Σ_{j=0..9} v_{i−j}·2^{9−j} over the user's last
    10 events — recency-weighted relevance on the e4 lattice, exact
    integers end to end (an unbounded EWMA forces floats; the bounded
    horizon keeps the driver hash bit-stable). Vectorized as ten
    run-masked shifted adds in one co-partition pass; the SQL replay
    writes the same ten LAG terms explicitly."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()), "v": v})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, v = u[order], eid[order], v[order]
        n = len(u)
        pos = np.arange(n)
        new = np.r_[True, u[1:] != u[:-1]]
        run_start = pos[new][np.cumsum(new) - 1]
        score = v * (1 << 9)
        for j in range(1, 10):
            ok = pos - j >= run_start
            shifted = np.zeros(n, np.int64)
            shifted[j:] = v[:-j]
            score += np.where(ok, shifted, 0) * (1 << (9 - j))
        return pd.DataFrame({"event_id": eid,
                             "decay_score_e4": score})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["decay_score_users"] = q_decay_score_users

ORACLE_SQL["decay_score_users"] = """
        WITH f AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            AS v
                   FROM events)
        SELECT event_id,
               v * 512
               + COALESCE(LAG(v, 1) OVER w, 0) * 256
               + COALESCE(LAG(v, 2) OVER w, 0) * 128
               + COALESCE(LAG(v, 3) OVER w, 0) * 64
               + COALESCE(LAG(v, 4) OVER w, 0) * 32
               + COALESCE(LAG(v, 5) OVER w, 0) * 16
               + COALESCE(LAG(v, 6) OVER w, 0) * 8
               + COALESCE(LAG(v, 7) OVER w, 0) * 4
               + COALESCE(LAG(v, 8) OVER w, 0) * 2
               + COALESCE(LAG(v, 9) OVER w, 0) AS decay_score_e4
        FROM f
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """



def q_gini_impurity_users(sf_dir: str):
    """Per-group diversity / concentration metric (Gini impurity of
    each user's event-type mix) — exact integer parts end to end:
    gini = 1 − Σ(c/n)² is reported as n, ssq = Σc², and
    gini_ppm = (n² − ssq)·10⁶ ÷ n² in INTEGER division, so no float
    ever enters the driver hash. Per-batch packed (user,type) count
    partials → one exact pair groupby → a pair-cardinality per-user
    combine. (n²·10⁶ overflows int64 only past ~3M events per user —
    asserted.)"""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        ti = pc.index_in(t["event_type"], value_set=types).cast(pa.int64())
        assert ti.null_count == 0, "gini: unseen event type"
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(8, pa.int64())), ti)
        return pa.table({"k": k}).group_by("k").aggregate([("k", "count")])

    pairs = ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True) \
              .groupby("k").sum("k_count")

    def per_user(t: pa.Table) -> pa.Table:
        c = t["sum(k_count)"].to_numpy().astype(np.int64)
        u = np.right_shift(t["k"].to_numpy().astype(np.int64), 3)
        return pa.table({"user_id": u, "n": c, "ssq": c * c}) \
                 .group_by("user_id") \
                 .aggregate([("n", "sum"), ("ssq", "sum")])

    from ray.data.aggregate import Sum

    per = pairs.map_batches(per_user, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .groupby("user_id") \
               .aggregate(Sum("n_sum", alias_name="n"),
                          Sum("ssq_sum", alias_name="ssq"))

    def epilogue(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy().astype(np.int64)
        ssq = t["ssq"].to_numpy().astype(np.int64)
        assert (n < 3_000_000).all(), "gini: n^2*1e6 would overflow"
        ppm = (n * n - ssq) * 1_000_000 // (n * n)
        return pa.table({"user_id": t["user_id"], "n": n, "ssq": ssq,
                         "gini_ppm": ppm})

    return per.map_batches(epilogue, batch_format="pyarrow",
                           zero_copy_batch=True)



QUERIES["gini_impurity_users"] = q_gini_impurity_users

ORACLE_SQL["gini_impurity_users"] = """
        WITH c AS (SELECT user_id, event_type, count(*) AS c
                   FROM events GROUP BY 1, 2)
        SELECT user_id, SUM(c) AS n, SUM(c * c) AS ssq,
               (SUM(c) * SUM(c) - SUM(c * c)) * 1000000
                 // (SUM(c) * SUM(c)) AS gini_ppm
        FROM c GROUP BY 1
    """



def q_division_completion_users(sf_dir: str):
    """Relational DIVISION with a completion timestamp: users who
    performed ALL five event types, and the day their vocabulary
    became complete (max over types of each type's first-seen day) —
    the \"for all\" join no equi-join family member expresses. Two
    exact aggregate levels: per-batch packed (user,type) MIN-day
    partials → pair groupby MIN → per-user (count, max) combine with
    a HAVING count = |vocabulary| filter."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    types = pa.array(["click", "error", "purchase", "signup", "view"])

    def partial(t: pa.Table) -> pa.Table:
        ti = pc.index_in(t["event_type"], value_set=types).cast(pa.int64())
        assert ti.null_count == 0, "division: unseen event type"
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(8, pa.int64())), ti)
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"k": k, "d": day}).group_by("k") \
                 .aggregate([("d", "min")])

    first = ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).groupby("k").min("d_min")

    def per_user(t: pa.Table) -> pa.Table:
        u = np.right_shift(t["k"].to_numpy().astype(np.int64), 3)
        d = t["min(d_min)"].to_numpy().astype(np.int64)
        one = np.ones(len(u), np.int64)
        return pa.table({"user_id": u, "nt": one, "d": d}) \
                 .group_by("user_id") \
                 .aggregate([("nt", "sum"), ("d", "max")])

    from ray.data.aggregate import Max, Sum

    per = first.map_batches(per_user, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .groupby("user_id") \
               .aggregate(Sum("nt_sum", alias_name="nt"),
                          Max("d_max", alias_name="completed_day"))

    def having(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["nt"], pa.scalar(5, pa.int64())))
        return f.select(["user_id", "completed_day"])

    return per.map_batches(having, batch_format="pyarrow",
                           zero_copy_batch=True)



QUERIES["division_completion_users"] = q_division_completion_users

ORACLE_SQL["division_completion_users"] = """
        WITH m AS (SELECT user_id, event_type,
                          MIN(CAST(ts AS DATE)) AS d0
                   FROM events GROUP BY 1, 2)
        SELECT user_id,
               CAST(MAX(d0) - DATE '1970-01-01' AS BIGINT)
                 AS completed_day
        FROM m GROUP BY 1 HAVING COUNT(*) = 5
    """



def q_locf_events(sf_dir: str):
    """LOCF gap-fill (last-observation-carried-forward): per event,
    the value of the user's most recent PURCHASE at-or-before it
    (−1 before the first purchase) — the imputation window the
    frame-sum family can't express because the carried value rides an
    arbitrary distance. Vectorized as an index-carrying forward fill:
    marker = position where purchase else −1, grouped cummax (pandas
    C path, resets per user run), then one gather. The SQL replay
    uses LAST_VALUE ... IGNORE NULLS."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        isp = pc.equal(t["event_type"], pa.scalar("purchase")) \
                .cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()),
                         "v": v, "isp": isp})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        isp = df["isp"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, v, isp = u[order], eid[order], v[order], isp[order]
        n = len(u)
        pos = np.arange(n)
        seg = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        marker = np.where(isp == 1, pos, np.int64(-1))
        carried = pd.Series(marker).groupby(seg).cummax() \
                    .to_numpy(np.int64)
        out = np.where(carried >= 0, v[np.maximum(carried, 0)],
                       np.int64(-1))
        return pd.DataFrame({"event_id": eid,
                             "last_purchase_e4": out})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["locf_events"] = q_locf_events

ORACLE_SQL["locf_events"] = """
        WITH f AS (SELECT event_id, user_id, ts,
                          CASE WHEN event_type = 'purchase'
                               THEN CAST(floor(value * 10000.0 + 0.5)
                                         AS BIGINT) END AS pv
                   FROM events)
        SELECT event_id,
               COALESCE(LAST_VALUE(pv IGNORE NULLS) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 -1) AS last_purchase_e4
        FROM f
    """



def q_clamped_balance_users(sf_dir: str):
    """Clamped running balance (inventory / credit semantics):
    S_i = max(0, S_{i−1} + Δ_i) with Δ = value_e4 − 500000 — the
    nonlinear recurrence a plain window SUM can't express. Collapsed
    to closed form S_i = P_i − min(0, min_{j≤i} P_j) (P = prefix sum),
    so the engine runs two C-path grouped scans (cumsum + cummin) per
    co-partition instead of a sequential loop; the SQL replay computes
    the same closed form from two stacked window passes — both sides
    exact int64 on the e4 lattice."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()),
                         "d": pc.subtract(v, pa.scalar(500000, pa.int64()))})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        d = df["d"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, d = u[order], eid[order], d[order]
        seg = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        g = pd.Series(d).groupby(seg)
        p = g.cumsum().to_numpy(np.int64)
        low = np.minimum(pd.Series(p).groupby(seg).cummin()
                         .to_numpy(np.int64), 0)
        return pd.DataFrame({"event_id": eid, "balance_e4": p - low})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["clamped_balance_users"] = q_clamped_balance_users

ORACLE_SQL["clamped_balance_users"] = """
        WITH f AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            - 500000 AS d
                   FROM events),
        p AS (SELECT event_id, user_id, ts,
                     SUM(d) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND CURRENT ROW) AS pp
              FROM f)
        SELECT event_id,
               pp - LEAST(0, MIN(pp) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW))
                 AS balance_e4
        FROM p
    """



def q_posting_lists_embeddings(sf_dir: str):
    """Inverted-index build over a vector column (embedding
    sparsification): every dim whose activation clears the threshold
    on the trunc-e4 lattice becomes a posting; output = per-dim
    posting count + activation mass — the index-construction shape of
    sparse retrieval. Per-batch 2-D mask → bincount/add.at partials at
    dim cardinality (64), one dim-scale groupby; the corpus itself
    never shuffles. UNNEST-with-position replay in SQL."""
    em = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        from battery.ops.ann import _emb_matrix
        arr = _emb_matrix(t)
        q = np.trunc(arr * 10000.0).astype(np.int64)
        mask = q >= 2500
        rows, dims = np.nonzero(mask)
        n = np.bincount(dims, minlength=arr.shape[1]).astype(np.int64)
        s = np.zeros(arr.shape[1], np.int64)
        np.add.at(s, dims, q[rows, dims])
        keep = n > 0
        return pa.table({"dim": np.nonzero(keep)[0].astype(np.int64),
                         "n_postings": n[keep], "mass_e4": s[keep]})

    out = em.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("dim").sum(["n_postings", "mass_e4"])
    return _rename(out, ["dim", "n_postings", "mass_e4"])



QUERIES["posting_lists_embeddings"] = q_posting_lists_embeddings

ORACLE_SQL["posting_lists_embeddings"] = """
        WITH e AS (SELECT unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings)
        SELECT dim, COUNT(*) AS n_postings, SUM(q) AS mass_e4
        FROM e WHERE q >= 2500 GROUP BY dim
    """



def q_shipping_priority_q3(sf_dir: str):
    """TPC-H Q3 shape (shipping priority): segment-filtered customers
    ⋈ date-filtered orders ⋈ ship-date-filtered lineitem, revenue per
    order, global top 10. Two bucketed co-partition joins on DIFFERENT
    keys (custkey then orderkey) — the multi-shuffle chain a single
    broadcast can't honestly replace once the dimension side is
    fact-scale — with predicates applied before each shuffle so only
    qualifying rows move. Revenue on the per-element e4 lattice BEFORE
    summation; top-k via per-block partials, never a global sort."""
    from battery.ops.relational import bucketed_join

    CUT = np.datetime64("1996-06-01", "us")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["c_mktsegment"], pa.scalar("BUILDING")))
            .select(["c_custkey"]), batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.filter(
            pc.less(t["o_orderdate"], pa.scalar(CUT))),
            batch_format="pyarrow")
    oc = bucketed_join(orders, cust, "o_custkey", "c_custkey",
                       n_buckets=32)
    oc = oc.map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_day": pc.divide(t["o_orderdate"].cast(pa.int64()),
                               pa.scalar(86_400_000_000, pa.int64()))}),
        batch_format="pyarrow").materialize()  # schema-probe law

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"]) \
        .map_batches(lambda t: t.filter(
            pc.greater(t["l_shipdate"], pa.scalar(CUT))),
            batch_format="pyarrow")
    j = bucketed_join(li, oc, "l_orderkey", "o_orderkey", n_buckets=32)

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"o_orderkey": t["o_orderkey"], "o_day": t["o_day"],
                      "revenue_e4": rev}) \
            .group_by(["o_orderkey", "o_day"]) \
            .aggregate([("revenue_e4", "sum")])
        return pa.table({"o_orderkey": g["o_orderkey"],
                         "o_day": g["o_day"],
                         "revenue_e4": g["revenue_e4_sum"]})

    per_order = j.map_batches(partial, batch_format="pyarrow") \
                 .groupby(["o_orderkey", "o_day"]).sum("revenue_e4")
    per_order = _rename(per_order, ["o_orderkey", "o_day", "revenue_e4"])

    def block_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("revenue_e4", "descending"),
                                            ("o_orderkey", "ascending")])
        return t.take(idx[:10])

    return per_order.map_batches(block_topk, batch_format="pyarrow") \
                    .repartition(1) \
                    .map_batches(block_topk, batch_format="pyarrow")



QUERIES["shipping_priority_q3"] = q_shipping_priority_q3

ORACLE_SQL["shipping_priority_q3"] = """
        SELECT l_orderkey AS o_orderkey,
               CAST(o_orderdate AS DATE) - DATE '1970-01-01' AS o_day,
               SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                              * 10000.0 + 0.5) AS BIGINT)) AS revenue_e4
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1996-06-01'
          AND l_shipdate > TIMESTAMP '1996-06-01'
        GROUP BY 1, 2
        ORDER BY revenue_e4 DESC, o_orderkey LIMIT 10
    """



def q_revenue_share_nations(sf_dir: str):
    """Ratio-to-report (percent-of-total contribution): revenue per
    nation plus its share of the grand total in exact ppm by integer
    division — the SUM() OVER () report window. Fact side maps
    custkey→nation through the per-worker broadcast dim cache and
    pre-aggregates per batch; the grand total is an aggregate-scale
    (25-row) driver epilogue, so no second pass over the facts."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    from battery.ops.relational import dim_lookup

    ck, cnat = _dim_np(sf_dir, "customer", "c_custkey", ["c_nationkey"])
    nk, nname = _dim_np(sf_dir, "nation", "n_nationkey", ["n_name"])
    ni, nhit = dim_lookup(nk, cnat.astype(np.int64, copy=False))
    if not nhit.all():
        raise ValueError("customer.c_nationkey missing from nation dim")
    dim_ref = ray.put((ck, pa.array(nname[ni], pa.string())))

    def partial(t: pa.Table) -> pa.Table:
        # VERIFIED gather: orders with a custkey absent from the dim
        # drop, matching the oracle's inner JOIN customer
        keys, nats = _broadcast(dim_ref)
        ci, chit = dim_lookup(keys, t["o_custkey"].to_numpy()
                              .astype(np.int64, copy=False))
        t = t.filter(pa.array(chit))
        rev = pc.floor(pc.add(pc.multiply(t["o_totalprice"],
                                          pa.scalar(100.0)),
                              pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"nation": pc.take(nats, pa.array(ci[chit])),
                      "rev_e2": rev}) \
            .group_by("nation").aggregate([("rev_e2", "sum")])
        return pa.table({"nation": g["nation"],
                         "rev_e2": g["rev_e2_sum"]})

    per = orders.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .groupby("nation").sum("rev_e2")
    df = _rename(per, ["nation", "rev_e2"]).to_pandas()  # 25 rows
    total = int(df["rev_e2"].sum())
    df["share_ppm"] = (df["rev_e2"].to_numpy(np.int64) * 1_000_000
                       // total).astype(np.int64)
    return df



QUERIES["revenue_share_nations"] = q_revenue_share_nations

ORACLE_SQL["revenue_share_nations"] = """
        WITH r AS (SELECT n_name AS nation,
                          SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS rev_e2
                   FROM orders
                   JOIN customer ON o_custkey = c_custkey
                   JOIN nation ON c_nationkey = n_nationkey
                   GROUP BY 1)
        SELECT nation, rev_e2,
               rev_e2 * 1000000 // SUM(rev_e2) OVER () AS share_ppm
        FROM r
    """



def q_monotone_run_users(sf_dir: str):
    """Longest strictly-increasing run per user (value-adjacency
    islands — momentum/trend detection): runs break wherever
    v ≤ previous v or the user changes, island lengths via one
    bincount, per-user max over islands at island cardinality. The
    calendar-streak operator counts day gaps; this one is ordered on
    event time and cuts on the VALUE sequence."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()), "v": v})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, v = u[order], v[order]
        brk = np.r_[True, (u[1:] != u[:-1]) | (v[1:] <= v[:-1])]
        isl = np.cumsum(brk) - 1
        lengths = np.bincount(isl).astype(np.int64)
        isl_user = u[brk]  # island start rows carry the island's user
        per = pd.DataFrame({"user_id": isl_user, "L": lengths}) \
            .groupby("user_id", sort=False)["L"].max()
        return pd.DataFrame({"user_id": per.index.to_numpy(np.int64),
                             "longest_inc_run": per.to_numpy(np.int64)})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["monotone_run_users"] = q_monotone_run_users

ORACLE_SQL["monotone_run_users"] = """
        WITH f AS (SELECT user_id, ts, event_id,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            AS v
                   FROM events),
        l AS (SELECT user_id, ts, event_id, v,
                     LAG(v) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS pv
              FROM f),
        g AS (SELECT user_id,
                     SUM(CASE WHEN pv IS NULL OR v <= pv THEN 1
                              ELSE 0 END) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS isl
              FROM l),
        c AS (SELECT user_id, isl, COUNT(*) AS c
              FROM g GROUP BY 1, 2)
        SELECT user_id, CAST(MAX(c) AS BIGINT) AS longest_inc_run
        FROM c GROUP BY 1
    """



def _tile_pyramid_sql(img_dir: str) -> str:
    """Oracle for tile_pyramid_counts: each level's cell id derived
    DIRECTLY from lon/lat (quantize + Morton spread at that res) —
    independent of the engine's shift-based parent coarsening, so a
    nesting bug in either derivation breaks the match."""
    parts = []
    for r in (12, 10, 8, 6):
        parts.append(f"""
        SELECT {_sql_cell('lon', 'lat', r)} AS cell,
               CAST({r} AS BIGINT) AS level, count(*) AS n_tiles
        FROM read_parquet('{img_dir}/part-*.parquet')
        GROUP BY 1""")
    return " UNION ALL ".join(parts)



def q_tile_pyramid_counts(sf_dir: str):
    """Zoom-pyramid rollup (tile map-server aggregation): tile counts
    at res 12 coarsened up through res 10/8/6 — the multi-resolution
    aggregation a slippy-map service precomputes. The fine cell is
    encoded ONCE per row; every coarser level is a 2-bit-per-step
    shift (aperture-4 Morton nesting), so the pyramid costs one encode
    + three shifts, and the shuffle moves only per-cell count partials
    (≤ 1.33× the res-12 cell cardinality, geometric series)."""
    from geotile.geom import cells

    from geotile.ops.tiles import read_image_table

    img = _image_dir_for(sf_dir)
    ds = read_image_table(img, columns=["lon", "lat"])

    def partial(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        fine = cells.encode(lon, lat, 12)
        levels = []
        for r in (12, 10, 8, 6):
            levels.append(fine if r == 12 else cells.parent(fine, r))
        cell = np.concatenate(levels).view(np.int64)
        return pa.table({"cell": cell}).group_by("cell") \
                 .aggregate([("cell", "count")])

    out = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("cell").sum("cell_count")

    def epilogue(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy()
        return pa.table({"cell": c,
                         "level": (c >> 58).astype(np.int64),
                         "n_tiles": t["sum(cell_count)"].cast(pa.int64())})

    return out.map_batches(epilogue, batch_format="pyarrow",
                           zero_copy_batch=True)



QUERIES["tile_pyramid_counts"] = q_tile_pyramid_counts



def q_scd2_orders(sf_dir: str):
    """SCD Type-2 dimension build (validity intervals from a change
    log): per customer, the order-priority history as
    [valid_from_day, valid_to_day) rows — a new interval opens at
    every priority CHANGE point, closes at the next one (−1 = open).
    One co-partition pass: shifted-view change detection, then the
    next-change day gathered by one roll of the change-row subset —
    no LEAD materialization over the full fact."""
    from battery.ops.relational import _with_bucket

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"])

    vocab = pa.array(["1-URGENT", "2-HIGH", "3-MEDIUM",
                      "4-NOT SPECIFIED", "5-LOW"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        pi = pc.index_in(t["o_orderpriority"], value_set=vocab)
        assert pi.null_count == 0, "scd2: unseen priority"
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"], "day": day,
                         "pi": pi.cast(pa.int64())})

    ds = orders.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    names = np.asarray(vocab.to_pylist())

    def window(df: pd.DataFrame) -> pd.DataFrame:
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        p = df["pi"].to_numpy(np.int64)
        order = np.lexsort([k, d, c])
        c, d, p = c[order], d[order], p[order]
        new = np.r_[True, c[1:] != c[:-1]]
        chg = new | np.r_[False, p[1:] != p[:-1]]
        cc, dc, pc_ = c[chg], d[chg], p[chg]
        nxt = np.r_[dc[1:], np.int64(-1)]
        same = np.r_[cc[1:] == cc[:-1], False]
        return pd.DataFrame({"o_custkey": cc,
                             "o_orderpriority": names[pc_],
                             "valid_from_day": dc,
                             "valid_to_day": np.where(same, nxt,
                                                      np.int64(-1))})

    return (_with_bucket(ds, "o_custkey", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["scd2_orders"] = q_scd2_orders

ORACLE_SQL["scd2_orders"] = """
        WITH f AS (SELECT o_custkey, o_orderkey, o_orderpriority,
                          CAST(CAST(o_orderdate AS DATE)
                               - DATE '1970-01-01' AS BIGINT) AS day
                   FROM orders),
        l AS (SELECT *, LAG(o_orderpriority) OVER (
                    PARTITION BY o_custkey ORDER BY day, o_orderkey)
                  AS pp
              FROM f),
        c AS (SELECT o_custkey, o_orderpriority, day,
                     LEAD(day) OVER (PARTITION BY o_custkey
                                     ORDER BY day, o_orderkey) AS nxt
              FROM l WHERE pp IS NULL OR pp <> o_orderpriority)
        SELECT o_custkey, o_orderpriority, day AS valid_from_day,
               COALESCE(nxt, -1) AS valid_to_day
        FROM c
    """



def q_gap_filled_daily_users(sf_dir: str):
    """Gap-filled per-user daily time series: each user's activity
    counts on a DENSE day spine bounded by their own [first, last]
    active day, absent days zero-filled — the per-key variable-length
    spine the fixed-vocabulary dense matrix can't express. Exact
    (user, day) count partials shuffle at pair cardinality; the spine
    explosion (repeat + cumsum-arange) and the searchsorted zero-fill
    merge run inside the per-bucket pass, so fan-out stays bounded by
    each user's own span."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = day.to_numpy(zero_copy_only=False)
        assert (d >= 0).all() and (d < 1 << 20).all(), "day pack range"
        k = (u << 20) | d
        return pa.table({"k": k}).group_by("k") \
                 .aggregate([("k", "count")])

    pairs = ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True) \
              .groupby("k").sum("k_count")

    def add_user(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"k": k, "n": t["sum(k_count)"].cast(pa.int64()),
                         "user_id": (k >> 20).astype(np.int64)})

    def spine(df: pd.DataFrame) -> pd.DataFrame:
        k = df["k"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        order = np.argsort(k)
        k, n = k[order], n[order]
        u = k >> 20
        d = k & ((1 << 20) - 1)
        new = np.r_[True, u[1:] != u[:-1]]
        starts = np.nonzero(new)[0]
        ends = np.r_[starts[1:], len(u)] - 1
        lo, hi, uu = d[starts], d[ends], u[starts]
        span = hi - lo + 1
        # dense day spine per user: repeat + cumsum-arange explosion
        user_col = np.repeat(uu, span)
        base = np.repeat(lo, span)
        off = np.arange(span.sum(), dtype=np.int64) \
            - np.repeat(np.cumsum(span) - span, span)
        day_col = base + off
        kk = (user_col << 20) | day_col
        pos = np.searchsorted(k, kk)
        hit = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == kk)
        out_n = np.where(hit, n[np.minimum(pos, len(k) - 1)],
                         np.int64(0))
        return pd.DataFrame({"user_id": user_col, "day": day_col,
                             "n": out_n})

    enriched = pairs.map_batches(add_user, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return (_with_bucket(enriched, "user_id", 32)
            .groupby("bucket").map_groups(spine, batch_format="pandas"))



QUERIES["gap_filled_daily_users"] = q_gap_filled_daily_users

ORACLE_SQL["gap_filled_daily_users"] = """
        WITH c AS (SELECT user_id,
                          CAST(CAST(ts AS DATE) - DATE '1970-01-01'
                               AS BIGINT) AS day, count(*) AS n
                   FROM events GROUP BY 1, 2),
        b AS (SELECT user_id, MIN(day) AS lo, MAX(day) AS hi
              FROM c GROUP BY 1),
        s AS (SELECT user_id, unnest(generate_series(lo, hi)) AS day
              FROM b)
        SELECT s.user_id, CAST(s.day AS BIGINT) AS day,
               COALESCE(c.n, 0) AS n
        FROM s LEFT JOIN c USING (user_id, day)
    """



def _caption_geo_sql(img_dir: str) -> str:
    """Oracle for caption_geo_consistency: nearest stop replayed as a
    30-row CROSS JOIN + ROW_NUMBER argmin in the same meter frame
    (identical literals and multiply/add order as the engine's numpy
    kernel, so d² is bit-identical and the argmin tie-break — first
    stop index — matches exactly)."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT
    from geotile.synth import N_STOPS, STOP_LATS, STOP_LONS

    mx, my = meter_frame(_ANCHOR_LAT)
    vals = ", ".join(
        f"({i}, {STOP_LONS[i]!r}, {STOP_LATS[i]!r})"
        for i in range(N_STOPS))
    return f"""
        WITH s(sid, slon, slat) AS (VALUES {vals}),
        p AS (SELECT image_id,
                     CAST(string_split(caption, ' ')[5] AS BIGINT)
                       AS caption_stop, lon, lat
              FROM read_parquet('{img_dir}/part-*.parquet')),
        d AS (SELECT p.image_id, p.caption_stop, s.sid,
                     ((p.lon - s.slon) * {mx!r})
                       * ((p.lon - s.slon) * {mx!r})
                     + ((p.lat - s.slat) * {my!r})
                       * ((p.lat - s.slat) * {my!r}) AS d2
              FROM p CROSS JOIN s),
        r AS (SELECT image_id, caption_stop, sid,
                     ROW_NUMBER() OVER (PARTITION BY image_id
                                        ORDER BY d2, sid) AS rn
              FROM d)
        SELECT caption_stop, count(*) AS n,
               SUM(CASE WHEN sid = caption_stop THEN 1 ELSE 0 END)
                 AS n_match
        FROM r WHERE rn = 1 GROUP BY 1
    """



def q_caption_geo_consistency(sf_dir: str):
    """Cross-modal consistency audit on the multimodal table: does the
    stop id WRITTEN IN each image's caption agree with the stop
    nearest to the image's georeferenced position? Per caption-stop:
    image count + geometric agreement count — the caption-vs-geometry
    validation a georeferenced image corpus needs before training on
    either modality. Metadata-only scan (payload pruned); the 30-stop
    table is a module constant on every worker, the N×30 meter-frame
    d² argmin is one vectorized kernel per batch; only 30-row count
    partials shuffle."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT
    from geotile.ops.tiles import read_image_table
    from geotile.synth import STOP_LATS, STOP_LONS

    mx, my = meter_frame(_ANCHOR_LAT)
    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["caption", "lon", "lat"])

    def partial(t: pa.Table) -> pa.Table:
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        dx = (lon[:, None] - STOP_LONS[None, :]) * mx
        dy = (lat[:, None] - STOP_LATS[None, :]) * my
        nearest = np.argmin(dx * dx + dy * dy, axis=1)  # first-index tie
        match = (nearest == stop).astype(np.int64)
        g = pa.table({"caption_stop": stop, "m": match}) \
            .group_by("caption_stop") \
            .aggregate([([], "count_all"), ("m", "sum")])
        return g.rename_columns(["caption_stop", "n", "n_match"])

    out = ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .groupby("caption_stop").sum(["n", "n_match"])
    return _rename(out, ["caption_stop", "n", "n_match"])



QUERIES["caption_geo_consistency"] = q_caption_geo_consistency



def q_rebase_index_users(sf_dir: str):
    """FIRST_VALUE rebase (indexed time series): every event's value
    expressed per-mille of the SAME user's first observation
    (idx_pm = v·1000 ÷ v_first in integer division) — the
    base-100-style normalization comparative series need. The first
    value is gathered once per run (run-start positions broadcast by
    segment id), no expanding window."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()), "v": v})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def window(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort([eid, us, u])
        u, eid, v = u[order], eid[order], v[order]
        new = np.r_[True, u[1:] != u[:-1]]
        first = v[new][np.cumsum(new) - 1]  # run-start value per row
        return pd.DataFrame({"event_id": eid,
                             "idx_pm": v * 1000 // first})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["rebase_index_users"] = q_rebase_index_users

ORACLE_SQL["rebase_index_users"] = """
        WITH f AS (SELECT event_id, user_id, ts,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            AS v
                   FROM events)
        SELECT event_id,
               v * 1000 // FIRST_VALUE(v) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                 AS idx_pm
        FROM f
    """



def q_except_all_users(sf_dir: str):
    """EXCEPT ALL (bag/multiset difference, the set op the DISTINCT
    set family doesn't cover): each user's click occurrences minus
    their view occurrences, kept only where positive — computed as
    count algebra (two per-side counts, one subtraction) instead of
    materializing and anti-matching occurrence rows. Per-batch packed
    (user, side) count partials; the shuffle is user-cardinality."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        is_c = pc.equal(t["event_type"], pa.scalar("click"))
        is_v = pc.equal(t["event_type"], pa.scalar("view"))
        keep = pc.or_(is_c, is_v)
        f = t.append_column("side", is_c.cast(pa.int64())).filter(keep)
        k = pc.add(pc.multiply(f["user_id"], pa.scalar(2, pa.int64())),
                   f["side"])
        return pa.table({"k": k}).group_by("k") \
                 .aggregate([("k", "count")])

    counts = ev.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True) \
               .groupby("k").sum("k_count")

    def per_user(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        n = t["sum(k_count)"].to_numpy().astype(np.int64)
        sign = np.where((k & 1) == 1, n, -n)
        return pa.table({"user_id": (k >> 1).astype(np.int64),
                         "d": sign}) \
                 .group_by("user_id").aggregate([("d", "sum")])

    diff = counts.map_batches(per_user, batch_format="pyarrow",
                              zero_copy_batch=True) \
                 .groupby("user_id").sum("d_sum")

    def positive(t: pa.Table) -> pa.Table:
        f = t.filter(pc.greater(t["sum(d_sum)"], pa.scalar(0)))
        return pa.table({"user_id": f["user_id"],
                         "mult": f["sum(d_sum)"].cast(pa.int64())})

    return diff.map_batches(positive, batch_format="pyarrow",
                            zero_copy_batch=True)



QUERIES["except_all_users"] = q_except_all_users

ORACLE_SQL["except_all_users"] = """
        WITH d AS (SELECT user_id FROM events
                   WHERE event_type = 'click'
                   EXCEPT ALL
                   SELECT user_id FROM events
                   WHERE event_type = 'view')
        SELECT user_id, count(*) AS mult FROM d GROUP BY 1
    """



def q_nation_pair_revenue(sf_dir: str):
    """TPC-H Q7 shape (volume shipping): revenue between every
    (supplier-nation, customer-nation) pair per ship year. The
    dual-dimension join plan, size-guarded at every hop (the
    region_revenue strategy): orders⋈customer goes through
    ``lookup_join`` — broadcast searchsorted while customer fits the
    2^20-row guard (zero shuffle on orders; at the 100-TB point
    customer exceeds the guard and the SAME call degrades to the
    bucketed co-partition shuffle); lineitem⋈(orders×cnat) is the same
    call with a 2^21-row guard (two int64 columns ≈ 32 MB broadcast —
    still a per-worker-trivial ship at that size; orders is
    fact-scale at 100 TB, so there the guard trips and the hop runs as
    the bucketed shuffle — measured 2.7 → 1.8 s at sf0.1 where the
    broadcast side wins); the supplier side is a broadcast
    searchsorted gather (suppkey→nationkey int array, ~10 MB even at
    100 TB). Revenue on the per-element e4 lattice before summation;
    partials are bounded by 25×25×years so the final shuffle is
    trivial."""
    from battery.ops.relational import lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    oc = lookup_join(orders, "o_custkey", cust, "c_custkey",
                     "c_nationkey")
    oc = oc.map_batches(
        lambda t: pa.table({"o_orderkey": t["o_orderkey"],
                            "cnat": t["c_nationkey"].cast(pa.int64())}),
        batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount", "l_shipdate"])
    j = lookup_join(li, "l_orderkey", oc, "o_orderkey", "cnat",
                    max_broadcast=1 << 21)

    sk, snat_raw = _dim_np(sf_dir, "supplier", "s_suppkey", ["s_nationkey"])
    snat = snat_raw.astype(np.int64, copy=False)
    nk, nname = _dim_np(sf_dir, "nation", "n_nationkey", ["n_name"])
    names = pa.array(nname, pa.string())
    dim_ref = ray.put((sk, snat, nk, names))

    def partial(t: pa.Table) -> pa.Table:
        sk_, snat_, _, _ = _broadcast(dim_ref)
        s = t["l_suppkey"].to_numpy()
        idx = np.minimum(np.searchsorted(sk_, s), len(sk_) - 1)
        hit = sk_[idx] == s  # inner-join semantics on the broadcast side
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({
            "snat": pa.array(snat_[idx[hit]]),
            "cnat": pc.array_filter(t["cnat"], pa.array(hit)),
            "l_year": pc.array_filter(pc.year(t["l_shipdate"]),
                                      pa.array(hit)),
            "revenue_e4": pc.array_filter(rev, pa.array(hit)),
        }).group_by(["snat", "cnat", "l_year"]).aggregate(
            [("revenue_e4", "sum"), ([], "count_all")])
        return pa.table({"snat": g["snat"], "cnat": g["cnat"],
                         "l_year": g["l_year"],
                         "revenue_e4": g["revenue_e4_sum"],
                         "n": g["count_all"].cast(pa.int64())})

    # the partials are 25x25xyears-bounded per block: coalesce the
    # 192 sliver blocks so the final aggregate is not a 192-reduce
    # fixed-cost shuffle (VERDICT r3 #7: 7.7 -> ~3.5 s at sf0.1)
    agg = (j.map_batches(partial, batch_format="pyarrow")
           .repartition(8)
           .groupby(["snat", "cnat", "l_year"])
           .sum(["revenue_e4", "n"]))
    agg = _rename(agg, ["snat", "cnat", "l_year", "revenue_e4", "n"])

    def attach(t: pa.Table) -> pa.Table:
        # VERIFIED gathers: a nationkey absent from the nation dim
        # drops the row, matching the oracle's two inner nation JOINs
        from battery.ops.relational import dim_lookup

        _, _, nk_, names_ = _broadcast(dim_ref)
        si, sh = dim_lookup(nk_, t["snat"].to_numpy()
                            .astype(np.int64, copy=False))
        ci, ch = dim_lookup(nk_, t["cnat"].to_numpy()
                            .astype(np.int64, copy=False))
        ok = sh & ch
        t = t.filter(pa.array(ok))
        return pa.table({"supp_nation": pc.take(names_, pa.array(si[ok])),
                         "cust_nation": pc.take(names_, pa.array(ci[ok])),
                         "l_year": t["l_year"],
                         "revenue_e4": t["revenue_e4"],
                         "n": t["n"]})

    return agg.map_batches(attach, batch_format="pyarrow")



QUERIES["nation_pair_revenue"] = q_nation_pair_revenue

ORACLE_SQL["nation_pair_revenue"] = """
        SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
               CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
               SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                              * 10000.0 + 0.5) AS BIGINT)) AS revenue_e4,
               COUNT(*) AS n
        FROM lineitem
        JOIN orders   ON l_orderkey  = o_orderkey
        JOIN customer ON o_custkey   = c_custkey
        JOIN supplier ON l_suppkey   = s_suppkey
        JOIN nation sn ON s_nationkey = sn.n_nationkey
        JOIN nation cn ON c_nationkey = cn.n_nationkey
        GROUP BY 1, 2, 3
    """



def q_custdist_orders(sf_dir: str):
    """TPC-H Q13 shape (customer distribution): how many customers
    placed exactly k orders — INCLUDING the zero-order customers a
    plain orders groupby can never see. Plan = per-batch custkey count
    partials → custkey groupby (the honest shuffle), materialized per
    the bucketed_join schema-probe contract, then a LEFT co-partition
    join from customer so missing keys surface as NaN → 0, and a
    count-cardinality histogram (the second aggregation is over
    order-count values, a few dozen rows at any scale)."""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.table({"custkey": g["o_custkey"],
                         "cnt": g["count_all"].cast(pa.int64())})

    counts = (orders.map_batches(partial, batch_format="pyarrow")
              .groupby("custkey").sum("cnt"))
    counts = _rename(counts, ["custkey", "cnt"]).materialize()

    cust = _read(sf_dir, "customer", ["c_custkey"])
    j = bucketed_join(cust, counts, "c_custkey", "custkey",
                      n_buckets=16, how="left")

    def hist(t: pa.Table) -> pa.Table:
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = np.nan_to_num(c, nan=0.0).astype(np.int64)
        g = pa.table({"c_count": pa.array(k)}).group_by("c_count") \
            .aggregate([([], "count_all")])
        return pa.table({"c_count": g["c_count"],
                         "custdist": g["count_all"].cast(pa.int64())})

    out = (j.map_batches(hist, batch_format="pyarrow")
           .groupby("c_count").sum("custdist"))
    return _rename(out, ["c_count", "custdist"])



QUERIES["custdist_orders"] = q_custdist_orders

ORACLE_SQL["custdist_orders"] = """
        WITH per_cust AS (
            SELECT c_custkey, count(o_orderkey) AS c_count
            FROM customer LEFT JOIN orders ON c_custkey = o_custkey
            GROUP BY 1)
        SELECT CAST(c_count AS BIGINT) AS c_count,
               count(*) AS custdist
        FROM per_cust GROUP BY 1
    """



# 10 fixed promo windows over the Jan-2024 event domain: window w is
# [2024-01-01 12:00 + 3w days, +36 h) — sf-independent literals shared
# by the Ray plan and the SQL replay.
_PROMO_BASE_US = 1_704_110_400_000_000

_PROMO_STEP_US = 259_200 * 1_000_000

_PROMO_LEN_US = 129_600 * 1_000_000

_PROMO_WINDOWS = [(w, _PROMO_BASE_US + w * _PROMO_STEP_US,
                   _PROMO_BASE_US + w * _PROMO_STEP_US + _PROMO_LEN_US)
                  for w in range(10)]



def q_promo_session_overlap(sf_dir: str):
    """Broadcast interval-overlap join: sessionized user activity ×
    a small set of promo windows — sessions touching each window and
    the distinct users behind them. The small side is 10 literal
    intervals evaluated as a vectorized N×10 overlap mask per batch
    (never a shuffle join); the big side is
    relational.session_intervals (one co-partition). Distinct users
    per window via (window, user) dedup partials — cardinality is
    bounded by 10× users, then a 10-row epilogue."""
    from battery.ops.relational import session_intervals

    iv = session_intervals(_read(sf_dir, "events", ["user_id", "ts"]))
    wa = np.array([a for _, a, _ in _PROMO_WINDOWS], dtype=np.int64)
    wb = np.array([b for _, _, b in _PROMO_WINDOWS], dtype=np.int64)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a_us"].to_numpy(np.int64)[:, None]
        b = df["b_us"].to_numpy(np.int64)[:, None]
        m = (a <= wb[None, :]) & (b >= wa[None, :])
        sess, win = np.nonzero(m)
        g = pd.DataFrame({"window_id": win.astype(np.int64),
                          "user_id": df["user_id"].to_numpy(np.int64)[sess]})
        g = g.groupby(["window_id", "user_id"], as_index=False).size()
        return g.rename(columns={"size": "n_sessions"})

    per_user = (iv.map_batches(pairs, batch_format="pandas")
                .groupby(["window_id", "user_id"]).sum("n_sessions"))

    def final(t: pa.Table) -> pa.Table:
        g = t.group_by("window_id").aggregate(
            [("sum(n_sessions)", "sum"), ([], "count_all")])
        return pa.table({"window_id": g["window_id"],
                         "n_sessions": g["sum(n_sessions)_sum"],
                         "n_users": g["count_all"].cast(pa.int64())})

    out = (per_user.map_batches(final, batch_format="pyarrow")
           .groupby("window_id").sum(["n_sessions", "n_users"]))
    return _rename(out, ["window_id", "n_sessions", "n_users"])



QUERIES["promo_session_overlap"] = q_promo_session_overlap

ORACLE_SQL["promo_session_overlap"] = """
        WITH s AS (SELECT user_id, epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        iv AS (SELECT user_id, sid, min(us) AS a, max(us) AS b
               FROM s2 GROUP BY 1, 2),
        promo(window_id, wa, wb) AS (VALUES """ + ", ".join(
    f"(CAST({w} AS BIGINT), CAST({a} AS BIGINT), CAST({b} AS BIGINT))"
    for w, a, b in _PROMO_WINDOWS) + """)
        SELECT window_id,
               count(*) AS n_sessions,
               count(DISTINCT user_id) AS n_users
        FROM iv JOIN promo ON a <= wb AND b >= wa
        GROUP BY 1
    """



def q_spearman_users(sf_dir: str):
    """Per-user Spearman rank statistic between event VALUE and event
    TIME (does a user's spend trend up over their history?) under a
    deterministic ROW_NUMBER tie-break — the rank-correlation window
    op. One co-partition on user, then BOTH rank permutations for
    every user in a bucket come from two lexsorts + reduceat (no
    per-user loop). rho_ppm = floor(num·10⁶/den + 0.5) evaluated in
    IEEE doubles with the identical op order as the SQL replay, so
    the hash matches bit-for-bit even where the product exceeds 2⁵³."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "sum_d2": pd.Series(dtype=np.int64),
                                 "rho_ppm": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = df["value"].to_numpy(np.float64)
        n = len(u)
        o_t = np.lexsort((e, t, u))
        ut = u[o_t]
        new = np.r_[True, ut[1:] != ut[:-1]]
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank_t = np.empty(n, np.int64)
        rank_t[o_t] = np.arange(n) - first[seg] + 1
        o_v = np.lexsort((e, t, v, u))
        rank_v = np.empty(n, np.int64)
        rank_v[o_v] = np.arange(n) - first[seg] + 1
        d2 = (rank_t - rank_v) ** 2
        sum_d2 = np.add.reduceat(d2[o_t], first)
        nn = np.diff(np.r_[first, n]).astype(np.int64)
        users = ut[first]
        keep = nn >= 2
        nn, sum_d2, users = nn[keep], sum_d2[keep], users[keep]
        den = nn * (nn * nn - 1)
        num = den - 6 * sum_d2
        rho = np.floor(num.astype(np.float64) * 1000000.0
                       / den.astype(np.float64) + 0.5).astype(np.int64)
        return pd.DataFrame({"user_id": users, "n": nn,
                             "sum_d2": sum_d2, "rho_ppm": rho})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket, batch_format="pandas"))



QUERIES["spearman_users"] = q_spearman_users

ORACLE_SQL["spearman_users"] = """
        WITH r AS (SELECT user_id,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rt,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY value, ts, event_id) AS rv
                   FROM events),
        agg AS (SELECT user_id, count(*) AS n,
                       SUM((rt - rv) * (rt - rv)) AS sum_d2
                FROM r GROUP BY 1 HAVING count(*) >= 2)
        SELECT user_id, CAST(n AS BIGINT) AS n,
               CAST(sum_d2 AS BIGINT) AS sum_d2,
               CAST(floor(CAST(n * (n * n - 1) - 6 * sum_d2 AS DOUBLE)
                          * 1000000.0
                          / CAST(n * (n * n - 1) AS DOUBLE) + 0.5)
                    AS BIGINT) AS rho_ppm
        FROM agg
    """



def q_mannwhitney_daily(sf_dir: str):
    """Per-day Mann-Whitney U (×2, exact integer) between click and
    view values on the cents lattice — the nonparametric A/B test as
    COUNT ALGEBRA: per-batch (day, cents, side) count partials packed
    into one int key, a lattice-cardinality groupby, then each day's
    U from one sorted-merge pass over its distinct-cents rows
    (2·Σ n_a·cumB(<c) + Σ n_a·n_b(c)). Row pairs never materialize;
    the shuffle is value-domain-bounded, not row-bounded."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        is_c = pc.equal(t["event_type"], pa.scalar("click"))
        is_v = pc.equal(t["event_type"], pa.scalar("view"))
        f = t.append_column("side", is_c.cast(pa.int64())) \
             .filter(pc.or_(is_c, is_v))
        day = pc.divide(f["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        cents = pc.floor(pc.multiply(f["value"],
                                     pa.scalar(100.0))).cast(pa.int64())
        # domain filter (mirrored in the SQL replay): the lattice pack
        # carries 20 bits of non-negative cents
        ok = pc.and_(pc.greater_equal(cents, pa.scalar(0, pa.int64())),
                     pc.less(cents, pa.scalar(1 << 20, pa.int64())))
        f = f.filter(ok)
        day = day.filter(ok)
        cents = cents.filter(ok)
        key = pc.add(pc.add(
            pc.multiply(day, pa.scalar(1 << 21, pa.int64())),
            pc.multiply(cents, pa.scalar(2, pa.int64()))), f["side"])
        g = pa.table({"k": key}).group_by("k").aggregate([([], "count_all")])
        return pa.table({"k": g["k"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (ev.map_batches(partial, batch_format="pyarrow")
              .groupby("k").sum("n"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"day": pa.array(k >> 21),
                         "cents": pa.array((k >> 1) & ((1 << 20) - 1)),
                         "side": pa.array(k & 1),
                         "n": t["sum(n)"]})

    lattice = counts.map_batches(unpack, batch_format="pyarrow")

    def per_day(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"day": pd.Series(dtype=np.int64),
                              "n_click": pd.Series(dtype=np.int64),
                              "n_view": pd.Series(dtype=np.int64),
                              "u2x": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        a = df[df["side"] == 1].sort_values("cents")
        b = df[df["side"] == 0].sort_values("cents")
        if len(a) == 0 or len(b) == 0:
            return empty
        ca = a["cents"].to_numpy(np.int64)
        na = a["n"].to_numpy(np.int64)
        cb = b["cents"].to_numpy(np.int64)
        nb = b["n"].to_numpy(np.int64)
        cum = np.cumsum(nb)
        lo = np.searchsorted(cb, ca, "left")
        hi = np.searchsorted(cb, ca, "right")
        lt = np.where(lo > 0, cum[lo - 1], 0)
        eq = np.where(hi > lo, nb[np.minimum(lo, len(nb) - 1)], 0)
        return pd.DataFrame({
            "day": [np.int64(df["day"].iloc[0])],
            "n_click": [na.sum()], "n_view": [nb.sum()],
            "u2x": [2 * int((na * lt).sum()) + int((na * eq).sum())]})

    return lattice.groupby("day").map_groups(per_day,
                                             batch_format="pandas")



QUERIES["mannwhitney_daily"] = q_mannwhitney_daily

ORACLE_SQL["mannwhitney_daily"] = """
        WITH e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                          CAST(floor(value * 100.0) AS BIGINT) AS c,
                          event_type
                   FROM events WHERE event_type IN ('click', 'view')
                     AND floor(value * 100.0) >= 0
                     AND floor(value * 100.0) < 1048576),
        a AS (SELECT day, c, count(*) AS n FROM e
              WHERE event_type = 'click' GROUP BY 1, 2),
        b AS (SELECT day, c, count(*) AS n FROM e
              WHERE event_type = 'view' GROUP BY 1, 2),
        lt AS (SELECT a.day, SUM(a.n * b.n) AS s
               FROM a JOIN b ON a.day = b.day AND b.c < a.c GROUP BY 1),
        eq AS (SELECT a.day, SUM(a.n * b.n) AS s
               FROM a JOIN b ON a.day = b.day AND b.c = a.c GROUP BY 1),
        na AS (SELECT day, SUM(n) AS n FROM a GROUP BY 1),
        nb AS (SELECT day, SUM(n) AS n FROM b GROUP BY 1)
        SELECT CAST(na.day AS BIGINT) AS day,
               CAST(na.n AS BIGINT) AS n_click,
               CAST(nb.n AS BIGINT) AS n_view,
               CAST(2 * COALESCE(lt.s, 0) + COALESCE(eq.s, 0) AS BIGINT)
                   AS u2x
        FROM na JOIN nb ON na.day = nb.day
        LEFT JOIN lt ON na.day = lt.day
        LEFT JOIN eq ON na.day = eq.day
    """



def q_twap_users(sf_dir: str):
    """Time-weighted average position per user (each event's value
    holds until the user's next event — the TWAP/state-duration
    integral): one co-partition on user, then durations for every
    user in a bucket from ONE shifted-diff over the lexsorted frame
    (run-boundary masked), weighted sums via reduceat on the exact
    cents×µs integer lattice (≤ 2⁶³ by domain bound). The LEAD window
    never materializes per-row next-event columns into a shuffle."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "dur_us": pd.Series(dtype=np.int64),
                                 "wsum": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        cents = np.floor(df["value"].to_numpy(np.float64)
                         * 100.0).astype(np.int64)
        o = np.lexsort((e, t, u))
        uu, tu, cu = u[o], t[o], cents[o]
        same = np.r_[uu[1:] == uu[:-1], False]
        dur = np.where(same, np.r_[tu[1:] - tu[:-1], 0], 0)
        new = np.r_[True, uu[1:] != uu[:-1]]
        first = np.flatnonzero(new)
        return pd.DataFrame({
            "user_id": uu[first],
            "n": np.diff(np.r_[first, len(uu)]).astype(np.int64),
            "dur_us": np.add.reduceat(dur, first),
            "wsum": np.add.reduceat(cu * dur, first)})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket, batch_format="pandas"))



QUERIES["twap_users"] = q_twap_users

ORACLE_SQL["twap_users"] = """
        WITH x AS (SELECT user_id, epoch_us(ts) AS us,
                          CAST(floor(value * 100.0) AS BIGINT) AS cents,
                          LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS nxt
                   FROM events)
        SELECT user_id, count(*) AS n,
               CAST(COALESCE(SUM(nxt - us), 0) AS BIGINT) AS dur_us,
               CAST(COALESCE(SUM(cents * (nxt - us)), 0) AS BIGINT) AS wsum
        FROM x GROUP BY 1
    """



def q_distance_rings_docs(sf_dir: str):
    """Distance-ring bucketing (the radial variant of the square-grid
    quantizer): each derived point is assigned to a concentric ring
    around (5,5) by comparing d² against fixed squared radii — no
    sqrt ever runs, so the float path is two subtractions, two
    multiplies, one add, five compares, identical to the SQL replay.
    Ring counts + char mass are 6-row partials; nothing shuffles at
    row scale."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    radii2 = np.array([1.0, 4.0, 9.0, 16.0, 25.0])

    def rings(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy()
        x, y = _derived_points(d)
        d2 = (x - 5.0) * (x - 5.0) + (y - 5.0) * (y - 5.0)
        ring = (d2[:, None] > radii2[None, :]).sum(axis=1).astype(np.int64)
        g = pa.table({"ring": pa.array(ring),
                      "n_chars": t["n_chars"]}).group_by("ring") \
            .aggregate([([], "count_all"), ("n_chars", "sum")])
        return pa.table({"ring": g["ring"],
                         "n": g["count_all"].cast(pa.int64()),
                         "sum_chars": g["n_chars_sum"]})

    out = (ds.map_batches(rings, batch_format="pyarrow")
           .groupby("ring").sum(["n", "sum_chars"]))
    return _rename(out, ["ring", "n", "sum_chars"])



QUERIES["distance_rings_docs"] = q_distance_rings_docs

ORACLE_SQL["distance_rings_docs"] = """
        WITH pts AS (
            SELECT doc_id, n_chars,
                   (doc_id * 2654435761 % 4294967296) / 4294967296.0
                       * 10.0 AS x,
                   ((doc_id * 40503 + 7) % 65536) / 65536.0 * 10.0 AS y
            FROM documents),
        r AS (SELECT n_chars,
                     CAST((x-5.0)*(x-5.0) + (y-5.0)*(y-5.0) > 1.0 AS INT)
                   + CAST((x-5.0)*(x-5.0) + (y-5.0)*(y-5.0) > 4.0 AS INT)
                   + CAST((x-5.0)*(x-5.0) + (y-5.0)*(y-5.0) > 9.0 AS INT)
                   + CAST((x-5.0)*(x-5.0) + (y-5.0)*(y-5.0) > 16.0 AS INT)
                   + CAST((x-5.0)*(x-5.0) + (y-5.0)*(y-5.0) > 25.0 AS INT)
                       AS ring
              FROM pts)
        SELECT CAST(ring AS BIGINT) AS ring, count(*) AS n,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM r GROUP BY 1
    """



# PQ codebook: 4 subspaces × 16 dims, 4 centroids per subspace;
# centroid j's coordinate i is _PQ_CVALS[(i + j) % 4] — literals shared
# verbatim by the numpy path and the generated SQL replay.
_PQ_CVALS = (-0.3, -0.1, 0.1, 0.3)

_PQ_M, _PQ_SUB, _PQ_K = 4, 16, 4



def q_pq_codes_embeddings(sf_dir: str):
    """Product-quantization encoding of the 64-dim embedding column:
    each vector is compressed to a 4-symbol code (argmin centroid per
    16-dim subspace, first-wins ties), then the corpus becomes a
    256-cardinality code histogram — the ANN-compression layout step.
    Distances accumulate left-to-right per coordinate so the IEEE
    float path is the literal op-order of the SQL replay's generated
    expression; partials are code-cardinality, the corpus never
    shuffles."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def encode(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        vals = emb.values.to_numpy(zero_copy_only=False) \
            .astype(np.float64).reshape(len(t), 64)
        code = np.zeros(len(t), np.int64)
        for s in range(_PQ_M):
            sub = vals[:, s * _PQ_SUB:(s + 1) * _PQ_SUB]
            dists = []
            for j in range(_PQ_K):
                acc = None
                for i in range(_PQ_SUB):
                    c = _PQ_CVALS[(i + j) % 4]
                    term = (sub[:, i] - c) * (sub[:, i] - c)
                    acc = term if acc is None else acc + term
                dists.append(acc)
            d = np.stack(dists, axis=1)
            code = code * 4 + np.argmin(d, axis=1)
        lab = t["label"].to_numpy().astype(np.int64)
        g = pa.table({"code": pa.array(code),
                      "label": pa.array(lab)}).group_by("code") \
            .aggregate([([], "count_all"), ("label", "sum")])
        return pa.table({"code": g["code"],
                         "n": g["count_all"].cast(pa.int64()),
                         "label_sum": g["label_sum"]})

    out = (ds.map_batches(encode, batch_format="pyarrow")
           .groupby("code").sum(["n", "label_sum"]))
    return _rename(out, ["code", "n", "label_sum"])



def _pq_oracle_sql() -> str:
    def dist(s: int, j: int) -> str:
        terms = []
        for i in range(_PQ_SUB):
            c = repr(_PQ_CVALS[(i + j) % 4])
            e = f"CAST(embedding[{s * _PQ_SUB + i + 1}] AS DOUBLE)"
            terms.append(f"(({e}) - ({c})) * (({e}) - ({c}))")
        return " + ".join(terms)

    subs = []
    for s in range(_PQ_M):
        d = [dist(s, j) for j in range(_PQ_K)]
        case = (f"CASE WHEN ({d[0]}) <= ({d[1]}) AND ({d[0]}) <= ({d[2]})"
                f" AND ({d[0]}) <= ({d[3]}) THEN 0"
                f" WHEN ({d[1]}) <= ({d[2]}) AND ({d[1]}) <= ({d[3]})"
                f" THEN 1 WHEN ({d[2]}) <= ({d[3]}) THEN 2 ELSE 3 END")
        subs.append(f"({case}) AS c{s}")
    return f"""
        WITH codes AS (SELECT label, {', '.join(subs)} FROM embeddings)
        SELECT CAST(((c0 * 4 + c1) * 4 + c2) * 4 + c3 AS BIGINT) AS code,
               count(*) AS n, CAST(SUM(label) AS BIGINT) AS label_sum
        FROM codes GROUP BY 1
    """



QUERIES["pq_codes_embeddings"] = q_pq_codes_embeddings

ORACLE_SQL["pq_codes_embeddings"] = _pq_oracle_sql()



def q_pattern_triples_users(sf_dir: str):
    """MATCH_RECOGNIZE-lite: per user, occurrences of the exact
    consecutive event pattern view → click → purchase in time order
    (deterministic event_id tie-break). One co-partition on user,
    then the whole bucket's pattern scan is two shifted compares over
    the lexsorted type-code array with run-boundary masking — the
    two-LAG window replay without materializing lag columns."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
    tcode = {"view": 0, "click": 1, "purchase": 2, "signup": 3,
             "error": 4}

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n_triples": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        c = df["event_type"].map(tcode).to_numpy(np.int64)
        o = np.lexsort((e, t, u))
        uu, cu = u[o], c[o]
        hit = np.zeros(len(uu), bool)
        if len(uu) >= 3:
            hit[:-2] = ((cu[:-2] == 0) & (cu[1:-1] == 1) & (cu[2:] == 2)
                        & (uu[:-2] == uu[2:]))
        g = pd.DataFrame({"user_id": uu[hit]}) \
            .groupby("user_id", as_index=False).size()
        return g.rename(columns={"size": "n_triples"})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket,
                                          batch_format="pandas"))



QUERIES["pattern_triples_users"] = q_pattern_triples_users

ORACLE_SQL["pattern_triples_users"] = """
        WITH s AS (SELECT user_id, event_type,
                          LEAD(event_type, 1) OVER w AS t1,
                          LEAD(event_type, 2) OVER w AS t2
                   FROM events
                   WINDOW w AS (PARTITION BY user_id
                                ORDER BY ts, event_id))
        SELECT user_id, count(*) AS n_triples
        FROM s
        WHERE event_type = 'view' AND t1 = 'click' AND t2 = 'purchase'
        GROUP BY 1
    """



_COMPACT_TARGET = 20_000  # chars per output bin



def q_compaction_plan_docs(sf_dir: str):
    """Lakehouse file-compaction planner: assign doc_id-ordered files
    to output bins by cumulative size (bin = exclusive-prefix-chars //
    target) — the greedy floor-cumsum packing every table-maintenance
    service runs. NO global sort: pass A takes order-aligned coarse
    id-range buckets (per-batch sum partials, driver exclusive scan
    over ≤4096 bucket bases), pass B restores each bucket's exact
    prefix with one in-bucket lexsorted cumsum + broadcast base, then
    bins aggregate at bin cardinality. The window-cumsum replay costs
    one bucket-count driver scan, never an all-to-all."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    n = docs.count()  # metadata-only on a pure parquet read
    shift = max(0, int(n).bit_length() - 12)

    def partial(t: pa.Table) -> pa.Table:
        b = pc.shift_right(t["doc_id"], pa.scalar(shift, pa.int64()))
        g = pa.table({"bucket": b, "c": t["n_chars"]}).group_by(
            "bucket").aggregate([("c", "sum")])
        return pa.table({"bucket": g["bucket"], "c": g["c_sum"]})

    per_bucket = (docs.map_batches(partial, batch_format="pyarrow")
                  .groupby("bucket").sum("c")).take_all()
    per_bucket.sort(key=lambda r: r["bucket"])
    bk = np.array([r["bucket"] for r in per_bucket], dtype=np.int64)
    sums = np.array([r["sum(c)"] for r in per_bucket], dtype=np.int64)
    bases = np.r_[0, np.cumsum(sums)[:-1]]
    base_ref = ray.put((bk, bases))

    def bins(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"bin": pd.Series(dtype=np.int64),
                                 "n_docs": pd.Series(dtype=np.int64),
                                 "sum_chars": pd.Series(dtype=np.int64),
                                 "min_doc": pd.Series(dtype=np.int64),
                                 "max_doc": pd.Series(dtype=np.int64)})
        bk_, bases_ = _broadcast(base_ref)
        d = df["doc_id"].to_numpy(np.int64)
        c = df["n_chars"].to_numpy(np.int64)
        o = np.argsort(d, kind="stable")
        d, c = d[o], c[o]
        base = bases_[np.searchsorted(bk_, d[0] >> shift)]
        prev = base + np.cumsum(c) - c
        g = pd.DataFrame({"bin": prev // _COMPACT_TARGET,
                          "n_chars": c, "doc_id": d}) \
            .groupby("bin", as_index=False) \
            .agg(n_docs=("doc_id", "size"), sum_chars=("n_chars", "sum"),
                 min_doc=("doc_id", "min"), max_doc=("doc_id", "max"))
        return g

    ded = docs.map_batches(
        lambda t: t.append_column(
            "bucket", pc.shift_right(t["doc_id"],
                                     pa.scalar(shift, pa.int64()))),
        batch_format="pyarrow")
    out = (ded.groupby("bucket").map_groups(bins, batch_format="pandas")
           .groupby("bin")
           .aggregate(rd.aggregate.Sum("n_docs"),
                      rd.aggregate.Sum("sum_chars"),
                      rd.aggregate.Min("min_doc"),
                      rd.aggregate.Max("max_doc")))
    return _rename(out, ["bin", "n_docs", "sum_chars", "min_doc",
                         "max_doc"])



QUERIES["compaction_plan_docs"] = q_compaction_plan_docs

ORACLE_SQL["compaction_plan_docs"] = """
        WITH c AS (SELECT doc_id, n_chars,
                          COALESCE(SUM(n_chars) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS prev
                   FROM documents)
        SELECT CAST(prev // 20000 AS BIGINT) AS bin,
               count(*) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
               min(doc_id) AS min_doc, max(doc_id) AS max_doc
        FROM c GROUP BY 1
    """



def q_dominant_supplier_parts(sf_dir: str):
    """TPC-H Q20-flavoured dominance ranking: per supplier, how many
    parts where THIS supplier is the STRICT top shipper by total
    quantity (unique argmax — ties disqualify the part). Quantity
    sums are integer-exact (TPC-H quantities are integral), so the
    argmax needs no float tie hazard. Plan: (part,supp) sum partials
    → pair-cardinality groupby, then ONE part-bucket co-partition
    resolves every part's argmax + tie flag in a single lexsort pass
    — no join back, and only supplier-cardinality partials leave."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].cast(pa.int64())
        g = pa.table({"l_partkey": t["l_partkey"],
                      "l_suppkey": t["l_suppkey"], "q": q}) \
            .group_by(["l_partkey", "l_suppkey"]).aggregate([("q", "sum")])
        return pa.table({"l_partkey": g["l_partkey"],
                         "l_suppkey": g["l_suppkey"], "q": g["q_sum"]})

    ps = (li.map_batches(partial, batch_format="pyarrow")
          .groupby(["l_partkey", "l_suppkey"]).sum("q"))
    ps = _rename(ps, ["l_partkey", "l_suppkey", "q"])

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                                 "n_top_parts": pd.Series(dtype=np.int64)})
        p = df["l_partkey"].to_numpy(np.int64)
        sk = df["l_suppkey"].to_numpy(np.int64)
        q = df["q"].to_numpy(np.int64)
        o = np.lexsort((sk, -q, p))
        p, sk, q = p[o], sk[o], q[o]
        first = np.r_[True, p[1:] != p[:-1]]
        # unique max: the next row is a different part or a strictly
        # smaller quantity
        nxt_same = np.r_[p[1:] == p[:-1], False]
        nxt_eq = np.r_[q[1:] == q[:-1], False]
        win = first & ~(nxt_same & nxt_eq)
        g = pd.DataFrame({"l_suppkey": sk[win]}) \
            .groupby("l_suppkey", as_index=False).size()
        return g.rename(columns={"size": "n_top_parts"})

    out = (_with_bucket(ps, "l_partkey", 16)
           .groupby("bucket").map_groups(winners, batch_format="pandas")
           .groupby("l_suppkey").sum("n_top_parts"))
    return _rename(out, ["l_suppkey", "n_top_parts"])



QUERIES["dominant_supplier_parts"] = q_dominant_supplier_parts

ORACLE_SQL["dominant_supplier_parts"] = """
        WITH ps AS (SELECT l_partkey, l_suppkey,
                           SUM(CAST(l_quantity AS BIGINT)) AS q
                    FROM lineitem GROUP BY 1, 2),
        pt AS (SELECT l_partkey, max(q) AS mq FROM ps GROUP BY 1),
        top AS (SELECT ps.l_partkey, ps.l_suppkey
                FROM ps JOIN pt ON ps.l_partkey = pt.l_partkey
                              AND ps.q = pt.mq),
        uniq AS (SELECT l_partkey FROM top
                 GROUP BY 1 HAVING count(*) = 1)
        SELECT l_suppkey, count(*) AS n_top_parts
        FROM top JOIN uniq USING (l_partkey)
        GROUP BY 1
    """



def q_activity_bitmap_users(sf_dir: str):
    """User-activity bitmaps: each user's 30-day January activity as
    one packed int64 bitmask (bit d = active on day d), then the
    corpus collapses to a histogram over exact activity PATTERNS —
    the roaring-bitmap layout step for cohort tooling. Distinct
    (user, day) pairs via packed dedup partials, per-user mask as a
    plain SUM of 1<<day over distinct days (bit_or without a bit_or
    kernel), pattern histogram at mask cardinality."""
    _DAY0 = 19723  # 2024-01-01
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        rel = pc.subtract(day, pa.scalar(_DAY0, pa.int64()))
        # domain filter (mirrored in the SQL replay): rows outside the
        # 31-day January window are out of the bitmap's key space
        keep = pc.and_(pc.greater_equal(rel, pa.scalar(0, pa.int64())),
                       pc.less(rel, pa.scalar(31, pa.int64())))
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(32, pa.int64())),
                   rel).filter(keep)
        return pa.table({"k": k}).group_by("k").aggregate([])

    ded = (ev.map_batches(pairs, batch_format="pyarrow")
           .groupby("k").count())

    def per_user(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        bits = np.int64(1) << (k & 31)
        g = pa.table({"user_id": pa.array(k >> 5),
                      "bit": pa.array(bits)}).group_by("user_id") \
            .aggregate([("bit", "sum"), ([], "count_all")])
        return pa.table({"user_id": g["user_id"], "mask": g["bit_sum"],
                         "n_days": g["count_all"].cast(pa.int64())})

    masks = (ded.map_batches(per_user, batch_format="pyarrow")
             .groupby("user_id").sum(["mask", "n_days"]))

    def hist(t: pa.Table) -> pa.Table:
        g = t.group_by(["sum(mask)", "sum(n_days)"]).aggregate(
            [([], "count_all")])
        return pa.table({"mask": g["sum(mask)"],
                         "n_days": g["sum(n_days)"],
                         "n_users": g["count_all"].cast(pa.int64())})

    out = (masks.map_batches(hist, batch_format="pyarrow")
           .groupby(["mask", "n_days"]).sum("n_users"))
    return _rename(out, ["mask", "n_days", "n_users"])



QUERIES["activity_bitmap_users"] = q_activity_bitmap_users

ORACLE_SQL["activity_bitmap_users"] = """
        WITH d AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 86400000000 - 19723 AS day
                   FROM events
                   WHERE epoch_us(ts) // 86400000000 - 19723
                         BETWEEN 0 AND 30),
        m AS (SELECT user_id,
                     CAST(SUM(CAST(1 AS BIGINT) << CAST(day AS INT))
                          AS BIGINT) AS mask,
                     count(*) AS n_days
              FROM d GROUP BY 1)
        SELECT mask, CAST(n_days AS BIGINT) AS n_days,
               count(*) AS n_users
        FROM m GROUP BY 1, 2
    """



def q_important_parts(sf_dir: str):
    """TPC-H Q11 shape (important stock): parts whose revenue exceeds
    2× the mean part revenue — the global-fraction filter that needs
    a whole-corpus scalar before any row can be kept. Two passes over
    the PART-cardinality aggregate, not the fact table: per-part e4
    revenue partials → part groupby (materialized once), then the
    total/count reduce to two driver scalars that ride into the
    filter closure — the fact table is read exactly once."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"l_partkey": t["l_partkey"], "revenue_e4": rev}) \
            .group_by("l_partkey").aggregate([("revenue_e4", "sum")])
        return pa.table({"l_partkey": g["l_partkey"],
                         "revenue_e4": g["revenue_e4_sum"]})

    pr = (li.map_batches(partial, batch_format="pyarrow")
          .groupby("l_partkey").sum("revenue_e4"))
    pr = _rename(pr, ["l_partkey", "revenue_e4"]).materialize()
    tot = int(pr.sum("revenue_e4"))
    n_parts = int(pr.count())

    return pr.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(t["revenue_e4"],
                        pa.scalar(2 * n_parts, pa.int64())),
            pa.scalar(3 * tot, pa.int64()))),
        batch_format="pyarrow")



QUERIES["important_parts"] = q_important_parts

ORACLE_SQL["important_parts"] = """
        WITH pr AS (SELECT l_partkey,
                           SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                                          * 10000.0 + 0.5) AS BIGINT))
                               AS revenue_e4
                    FROM lineitem GROUP BY 1),
        t AS (SELECT SUM(revenue_e4) AS tot, count(*) AS np FROM pr)
        SELECT l_partkey, revenue_e4
        FROM pr, t WHERE revenue_e4 * 2 * np > 3 * tot
    """



def q_image_glcm_energy(sf_dir: str):
    """Texture analysis over the image corpus: per-image 8-level gray
    co-occurrence energy (Σ counts² over the 64-cell horizontal-pair
    GLCM) for the first 1024 images — the classic Haralick feature as
    an actor-pool stage. The whole size group counts in one bincount
    over image-offset-packed pair codes; every value is integer, so
    the generator-replay sidecar (different kernel: per-column add.at
    over pixel_pattern ground truth) matches exactly."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)
    return ds.map_batches(
        ImageGlcmStage, batch_format="pyarrow", batch_size=256,
        concurrency=2,
    )



QUERIES["image_glcm_energy"] = q_image_glcm_energy



def _image_glcm_sidecar(img: str, n: int = 1024) -> str:
    """Generator-replay sidecar for image_glcm_energy: rebuild each
    image's GLCM from synth.pixel_pattern with a per-column np.add.at
    kernel + python-int energy (vs the stage's single offset-packed
    bincount). Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_imgglcm_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        ids_py = ids.to_pylist()
        en = np.zeros(len(ids_py), np.int64)
        npair = np.zeros(len(ids_py), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            gray = (px[..., 0].astype(np.int64) + px[..., 1]
                    + px[..., 2]) // 3
            q = gray >> 5
            for j, slot in enumerate(m):
                acc = np.zeros(64, np.int64)
                for x in range(wi - 1):
                    np.add.at(acc, q[j, :, x] * 8 + q[j, :, x + 1], 1)
                en[slot] = sum(int(c) * int(c) for c in acc)
                npair[slot] = hi * (wi - 1)
        out = pa.table({"image_id": ids, "glcm_energy": pa.array(en),
                        "n_pairs": pa.array(npair)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _image_glcm_sql(img: str) -> str:
    return (f"SELECT image_id, glcm_energy, n_pairs "
            f"FROM read_parquet('{_image_glcm_sidecar(img)}')")



_SF_AUDIO_ROWS = {"sf0.001": 64, "sf0.01": 256, "sf0.1": 1024}



def _audio_dir_for(sf_dir: str) -> str:
    import os
    from pathlib import Path

    from geotile.synth import make_audio_table

    sf_name = Path(sf_dir).name
    n = _SF_AUDIO_ROWS.get(sf_name, 64)
    out = Path(os.environ.get("GEOTILE_CACHE",
                              "/tmp/geotile_cache")) / f"audio_{sf_name}"
    make_audio_table(n, out)
    return str(out)



def q_audio_frame_energy(sf_dir: str):
    """Audio-modality frame features: decode each PCM track and emit
    one row per 1024-sample frame with its exact integer energy
    (Σ s², < 2⁴⁰ so int64 is safe) — the framing front end of any
    audio feature pipeline, run as an actor-pool stage over opaque
    binary payloads + typed metadata (ops/audio.py; unsupported
    codecs raise NotImplementedError by design in this container)."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))
    return ds.map_batches(
        AudioFrameStage, batch_format="pyarrow", batch_size=64,
        concurrency=2,
    )



QUERIES["audio_frame_energy"] = q_audio_frame_energy



def _audio_energy_sidecar(aud: str) -> str:
    """Generator-replay sidecar for audio_frame_energy: regenerate the
    PCM from synth.audio_samples and sum squares per frame in PYTHON
    INTS (vs the stage's vectorized int64 square/reshape/sum) —
    integer-exact, so any decode/frame bug shows as a mismatch.
    Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioenergy_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        frame = 1024
        nfr = pcm.shape[1] // frame
        rows_id, rows_fr, rows_en = [], [], []
        for j, tid in enumerate(ids.tolist()):
            for f in range(nfr):
                chunk = pcm[j, f * frame:(f + 1) * frame].tolist()
                rows_id.append(tid)
                rows_fr.append(f)
                rows_en.append(sum(int(v) * int(v) for v in chunk))
        out = pa.table({"track_id": pa.array(rows_id, pa.int64()),
                        "frame": pa.array(rows_fr, pa.int64()),
                        "energy": pa.array(rows_en, pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_energy_sql(aud: str) -> str:
    return (f"SELECT track_id, frame, energy "
            f"FROM read_parquet('{_audio_energy_sidecar(aud)}')")



def q_token_pair_support_docs(sf_dir: str):
    """Market-basket co-occurrence at TEXT scale: unordered token
    pairs sharing a document, kept at ≥25% support — a-priori's first
    join as a GRAM MATRIX. Pass 1 reduces the corpus to its distinct
    token vocabulary (dedup partials; vocab is Heaps'-law bounded and
    broadcast sorted). Pass 2 builds each batch's doc×vocab presence
    matrix and computes ALL pair counts in one V×V integer matmul —
    pair rows never exist until the V²-bounded partials; the corpus
    text never shuffles."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()  # metadata-only on a pure parquet read

    def toks(t: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern(t["text"], " "))
        w = w.filter(pc.not_equal(w, pa.scalar("")))
        return pa.table({"token": w}).group_by("token").aggregate([])

    vocab_rows = (docs.map_batches(toks, batch_format="pyarrow")
                  .groupby("token").count()).take_all()
    vocab = np.array(sorted(r["token"] for r in vocab_rows))
    vref = ray.put(vocab)

    def pairs(t: pa.Table) -> pa.Table:
        v = _broadcast(vref)
        V = len(v)
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(t)), lens)
        keep = flat != ""
        code = np.searchsorted(v, flat[keep])
        m = np.zeros((len(t), V), np.int64)
        m[doc_of[keep], code] = 1
        gram = m.T @ m
        iu, ju = np.triu_indices(V, k=1)
        s = gram[iu, ju]
        nz = s > 0
        return pa.table({"i": pa.array(iu[nz].astype(np.int64)),
                         "j": pa.array(ju[nz].astype(np.int64)),
                         "support": pa.array(s[nz])})

    # pair-count combine: hash-bucket co-partition + per-bucket Arrow
    # group_by (a Ray multi-key (i, j) Aggregate pays per-block fixed
    # cost at pair cardinality — the pair_dedup/window_events law);
    # every (i, j) cell co-locates because the bucket derives from the
    # packed pair key alone
    from geotile.synth import splitmix64 as _sm

    P = max(8, int(ray.cluster_resources().get("CPU", 16)))
    Vn = len(vocab)

    def add_pb(t: pa.Table) -> pa.Table:
        k = (t["i"].to_numpy(zero_copy_only=False) * Vn
             + t["j"].to_numpy(zero_copy_only=False))
        pb = (_sm(k.view(np.uint64)) % np.uint64(P)).astype(np.int64)
        return t.append_column("pb", pa.array(pb))

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by(["i", "j"]).aggregate([("support", "sum")])
        return pa.table({"i": g["i"], "j": g["j"],
                         "support": g["support_sum"]})

    agg = (docs.map_batches(pairs, batch_format="pyarrow")
           .map_batches(add_pb, batch_format="pyarrow")
           .groupby("pb").map_groups(comb, batch_format="pyarrow"))

    def final(t: pa.Table) -> pa.Table:
        v = _broadcast(vref)
        s = t["support"].to_numpy(zero_copy_only=False)
        keep = s * 4 >= n_docs
        return pa.table({
            "t1": pa.array(v[t["i"].to_numpy(zero_copy_only=False)[keep]]),
            "t2": pa.array(v[t["j"].to_numpy(zero_copy_only=False)[keep]]),
            "support": pa.array(s[keep])})

    return agg.map_batches(final, batch_format="pyarrow")



QUERIES["token_pair_support_docs"] = q_token_pair_support_docs

ORACLE_SQL["token_pair_support_docs"] = """
        WITH tok AS (SELECT DISTINCT doc_id, w
                     FROM (SELECT doc_id,
                                  unnest(string_split(text, ' ')) AS w
                           FROM documents) t(doc_id, w)
                     WHERE w <> ''),
        nd AS (SELECT count(*) AS n FROM documents),
        p AS (SELECT a.w AS t1, b.w AS t2, count(*) AS support
              FROM tok a JOIN tok b
                ON a.doc_id = b.doc_id AND a.w < b.w
              GROUP BY 1, 2)
        SELECT t1, t2, support FROM p, nd WHERE support * 4 >= nd.n
    """



def q_attribution_lasttouch(sf_dir: str):
    """Marketing last-touch attribution: every purchase credits the
    user's most recent PRIOR non-purchase event type ('none' when the
    purchase opens the history) — the IGNORE-NULLS backward fill that
    powers attribution reporting. One co-partition on user; the
    forward-fill for every user in a bucket is a single
    maximum.accumulate over segment-offset-shifted valid positions
    (the reset never crosses a user), then one gather + one shift —
    no per-user loop, no LAG column materialization."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"touch_type": pd.Series(dtype=object),
                                 "n_purchases":
                                     pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ty = df["event_type"].to_numpy()
        o = np.lexsort((e, t, u))
        uu, tyu = u[o], ty[o]
        n = len(uu)
        new = np.r_[True, uu[1:] != uu[:-1]]
        seg = np.cumsum(new) - 1
        gpos = np.arange(n, dtype=np.int64)
        valid = tyu != "purchase"
        big = np.int64(n + 2)
        w = np.where(valid, gpos, -1) + seg * big
        acc = np.maximum.accumulate(w)
        prev = np.r_[np.int64(-1), acc[:-1]]
        prev[new] = -1  # a purchase at history start has no touch
        last_idx = np.where(prev >= 0, prev - seg * big, -1)
        is_p = tyu == "purchase"
        li = last_idx[is_p]
        touch = np.where(li >= 0, tyu[np.maximum(li, 0)], "none")
        g = pd.DataFrame({"touch_type": touch}) \
            .groupby("touch_type", as_index=False).size()
        return g.rename(columns={"size": "n_purchases"})

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby("touch_type").sum("n_purchases"))
    return _rename(out, ["touch_type", "n_purchases"])



QUERIES["attribution_lasttouch"] = q_attribution_lasttouch

ORACLE_SQL["attribution_lasttouch"] = """
        WITH s AS (SELECT user_id, event_type,
                          LAST_VALUE(CASE WHEN event_type <> 'purchase'
                                          THEN event_type END
                                     IGNORE NULLS)
                              OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS touch
                   FROM events)
        SELECT COALESCE(touch, 'none') AS touch_type,
               count(*) AS n_purchases
        FROM s WHERE event_type = 'purchase' GROUP BY 1
    """



def q_audio_silence_runs(sf_dir: str):
    """Silence detection over the audio corpus: per track, the number
    of quiet samples (|s| < 8192) and the LONGEST quiet run — the
    gaps-and-islands scan on the sample axis. The whole batch's runs
    resolve in one diff pass over the row-padded flat mask (a False
    column between tracks breaks runs), maxima via np.maximum.at —
    no per-track loop. Oracle: python-int replay sidecar."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def runs(t: pa.Table) -> pa.Table:
        ids = t["track_id"].to_numpy(zero_copy_only=False)
        payloads = t["bytes"].to_pylist()
        pcm = np.stack([np.frombuffer(p, dtype=np.int16)
                        for p in payloads])
        quiet = np.abs(pcm.astype(np.int32)) < 8192
        n_quiet = quiet.sum(axis=1).astype(np.int64)
        padded = np.concatenate(
            [quiet, np.zeros((len(ids), 1), bool)], axis=1).ravel()
        d = np.diff(np.r_[np.int8(0), padded.view(np.int8)])
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        lengths = (ends - starts).astype(np.int64)
        row = starts // (quiet.shape[1] + 1)
        max_run = np.zeros(len(ids), np.int64)
        np.maximum.at(max_run, row, lengths)
        return pa.table({"track_id": pa.array(ids),
                         "n_quiet": pa.array(n_quiet),
                         "max_run": pa.array(max_run)})

    return ds.map_batches(runs, batch_format="pyarrow", batch_size=64)



QUERIES["audio_silence_runs"] = q_audio_silence_runs



def _audio_silence_sidecar(aud: str) -> str:
    """Python-loop replay for audio_silence_runs (per-sample scan with
    plain ints vs the engine's flat diff kernel). Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiosilence_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        nq, mr = [], []
        for j in range(len(ids)):
            cnt = best = cur = 0
            for v in pcm[j].tolist():
                if abs(v) < 8192:
                    cnt += 1
                    cur += 1
                    best = max(best, cur)
                else:
                    cur = 0
            nq.append(cnt)
            mr.append(best)
        out = pa.table({"track_id": pa.array(ids),
                        "n_quiet": pa.array(nq, pa.int64()),
                        "max_run": pa.array(mr, pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_silence_sql(aud: str) -> str:
    return (f"SELECT track_id, n_quiet, max_run "
            f"FROM read_parquet('{_audio_silence_sidecar(aud)}')")



def _ntile_of(idx: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) bucket (1-based) from a 0-based global rank:
    the first n % k buckets hold n//k + 1 rows (standard remainder-
    to-the-front semantics), computed branch-free."""
    r = idx  # 0-based rank
    q, rem = divmod(n, k)
    cut = rem * (q + 1)
    small = np.where(q > 0, (r - cut) // max(q, 1) + rem, 0)
    return np.where(r < cut, r // (q + 1), small).astype(np.int64) + 1



def q_decile_transition_users(sf_dir: str):
    """Rank-mobility matrix: each user's spend QUINTILE in the first
    half of January vs the second — the churn-analysis transition
    table two independent distributed rankings feed. Spend partials
    pack (user, half); each half ranks via
    relational.global_row_number (order-aligned coarse buckets, no
    all-to-all sort) and converts rank→NTILE(5) with the exact
    remainder-to-the-front rule; the halves then meet in ONE
    user-cardinality groupby of nibble-packed codes (q1 + q2·8 —
    no join), and the 5×5 matrix falls out of code-cardinality
    partials."""
    from battery.ops.relational import global_row_number

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def spend(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        half = pc.greater_equal(day, pa.scalar(19738, pa.int64()))
        cents = pc.floor(pc.multiply(t["value"],
                                     pa.scalar(100.0))).cast(pa.int64())
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(2, pa.int64())),
                   half.cast(pa.int64()))
        g = pa.table({"k": k, "cents": cents}).group_by("k") \
            .aggregate([("cents", "sum")])
        return pa.table({"k": g["k"], "spend": g["cents_sum"]})

    sp = (ev.map_batches(spend, batch_format="pyarrow")
          .groupby("k").sum("spend"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"user_id": pa.array(k >> 1),
                         "half": pa.array((k & 1).astype(np.int64)),
                         "spend": t["sum(spend)"]})

    sp = sp.map_batches(unpack, batch_format="pyarrow").materialize()

    codes = []
    for h, mul in ((0, 1), (1, 8)):
        part = sp.filter(lambda r, _h=h: r["half"] == _h).materialize()
        n_h = part.count()
        ranked = global_row_number(part, "spend", "user_id", shift=12)
        codes.append(ranked.map_batches(
            lambda t, _n=n_h, _m=mul: pa.table({
                "user_id": t["user_id"],
                "code": pa.array(_ntile_of(t["idx"].to_numpy(), _n, 5)
                                 * _m)}),
            batch_format="pyarrow"))

    both = (codes[0].union(codes[1])
            .groupby("user_id").sum("code"))

    def matrix(t: pa.Table) -> pa.Table:
        c = t["sum(code)"].to_numpy()
        q1, q2 = c % 8, c // 8
        keep = (q1 > 0) & (q2 > 0)
        g = pa.table({"q1": pa.array(q1[keep]),
                      "q2": pa.array(q2[keep])}) \
            .group_by(["q1", "q2"]).aggregate([([], "count_all")])
        return pa.table({"q1": g["q1"], "q2": g["q2"],
                         "n_users": g["count_all"].cast(pa.int64())})

    out = (both.map_batches(matrix, batch_format="pyarrow")
           .groupby(["q1", "q2"]).sum("n_users"))
    return _rename(out, ["q1", "q2", "n_users"])



QUERIES["decile_transition_users"] = q_decile_transition_users

ORACLE_SQL["decile_transition_users"] = """
        WITH s AS (SELECT user_id,
                          CAST(epoch_us(ts) // 86400000000 >= 19738
                               AS INT) AS half,
                          CAST(floor(value * 100.0) AS BIGINT) AS cents
                   FROM events),
        sp AS (SELECT user_id, half, SUM(cents) AS spend
               FROM s GROUP BY 1, 2),
        h1 AS (SELECT user_id, NTILE(5) OVER (ORDER BY spend, user_id)
                   AS q1 FROM sp WHERE half = 0),
        h2 AS (SELECT user_id, NTILE(5) OVER (ORDER BY spend, user_id)
                   AS q2 FROM sp WHERE half = 1)
        SELECT CAST(q1 AS BIGINT) AS q1, CAST(q2 AS BIGINT) AS q2,
               count(*) AS n_users
        FROM h1 JOIN h2 USING (user_id) GROUP BY 1, 2
    """



def q_revenue_concentration_orders(sf_dir: str):
    """Lorenz-point concentration: what share of order revenue sits in
    the top 1% of orders — WITHOUT ranking a single row. Equal prices
    contribute equally to a SUM, so the top-k sum is pure count
    algebra over the cents-value histogram (value-domain-bounded
    partials): sort the histogram driver-side, take whole buckets
    from the top, and pro-rate the one boundary bucket by count. One
    scan, no co-partition, exact integers end-to-end."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"cents": cents}).group_by("cents") \
            .aggregate([([], "count_all")])
        return pa.table({"cents": g["cents"],
                         "n": g["count_all"].cast(pa.int64())})

    hist = (orders.map_batches(partial, batch_format="pyarrow")
            .groupby("cents").sum("n")).take_all()
    cents = np.array([r["cents"] for r in hist], dtype=np.int64)
    cnt = np.array([r["sum(n)"] for r in hist], dtype=np.int64)
    o = np.argsort(-cents)
    cents, cnt = cents[o], cnt[o]
    n = int(cnt.sum())
    k = max(1, n // 100)
    cum = np.cumsum(cnt)
    j = int(np.searchsorted(cum, k))  # boundary bucket index
    whole = int((cents[:j] * cnt[:j]).sum())
    used = int(cum[j - 1]) if j else 0
    top = whole + (k - used) * int(cents[j])
    total = int((cents * cnt).sum())
    return pd.DataFrame({
        "n_orders": [n], "top_k": [k], "top_cents": [top],
        "total_cents": [total],
        "share_ppm": [top * 1_000_000 // total]})



QUERIES["revenue_concentration_orders"] = q_revenue_concentration_orders

ORACLE_SQL["revenue_concentration_orders"] = """
        WITH r AS (SELECT CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents,
                          ROW_NUMBER() OVER (ORDER BY
                              floor(o_totalprice * 100.0 + 0.5) DESC)
                              AS rn,
                          count(*) OVER () AS n
                   FROM orders),
        t AS (SELECT max(n) AS n,
                     greatest(1, max(n) // 100) AS k,
                     SUM(cents) AS tot,
                     SUM(CASE WHEN rn <= greatest(1, n // 100)
                              THEN cents ELSE 0 END) AS top
              FROM r)
        SELECT CAST(n AS BIGINT) AS n_orders, CAST(k AS BIGINT) AS top_k,
               CAST(top AS BIGINT) AS top_cents,
               CAST(tot AS BIGINT) AS total_cents,
               top * 1000000 // tot AS share_ppm
        FROM t
    """



def q_partitioned_sink_events(sf_dir: str):
    """Resumable-output round trip: stream events into a
    day-partitioned parquet layout (ray write_parquet with
    partition_cols — one directory per day, the skip/retry unit at
    100 TB) and verify by reading the LAYOUT back: per-partition row
    counts come from the hive-partitioned re-read, not from the
    writer's accounting, so a lost or truncated partition shows up as
    a count mismatch against the source-side oracle."""
    import shutil
    from pathlib import Path

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def with_day(t: pa.Table) -> pa.Table:
        return t.append_column(
            "day", pc.divide(t["ts"].cast(pa.int64()),
                             pa.scalar(86_400_000_000, pa.int64())))

    out = Path("/tmp/geotile_cache") / f"sink_events_{Path(sf_dir).name}"
    if out.exists():
        shutil.rmtree(out)
    ev.map_batches(with_day, batch_format="pyarrow") \
        .drop_columns(["ts"]) \
        .write_parquet(str(out), partition_cols=["day"])

    back = rd.read_parquet(str(out))

    def counts(t: pa.Table) -> pa.Table:
        g = t.select(["day"]).group_by("day").aggregate(
            [([], "count_all")])
        return pa.table({"day": g["day"].cast(pa.int64()),
                         "n_rows": g["count_all"].cast(pa.int64())})

    return (back.map_batches(counts, batch_format="pyarrow")
            .groupby("day").sum("n_rows")
            .map_batches(lambda t: t.rename_columns(["day", "n_rows"]),
                         batch_format="pyarrow"))



QUERIES["partitioned_sink_events"] = q_partitioned_sink_events

ORACLE_SQL["partitioned_sink_events"] = """
        SELECT epoch_us(ts) // 86400000000 AS day,
               count(*) AS n_rows
        FROM events GROUP BY 1
    """



def q_spatial_autocorr_cells(sf_dir: str):
    """Spatial-autocorrelation raw parts over the occupied res-10
    grid (the Moran/Geary building blocks, exact integers): per-cell
    tile counts c_i, plus Σ c_i·c_j and the pair count over all
    8-neighbor ordered pairs of OCCUPIED cells. The neighbor 'join'
    is count algebra: each occupied cell scatters (mass=c, occ=1) to
    its ≤8 in-range neighbor keys, one cell-cardinality groupby merges
    scatter with counts (union + sum — no join operator), and the
    cross terms reduce to a single row. Nothing ever shuffles at tile
    scale, only at occupied-cell scale."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    img = _image_dir_for(sf_dir)
    ds = read_image_table(img, columns=["lon", "lat"])
    RES = 10

    def partial(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        ix, iy = cells.to_ixy(cells.encode(lon, lat, RES))
        k = (ix << 20) | iy
        g = pa.table({"k": pa.array(k)}).group_by("k") \
            .aggregate([([], "count_all")])
        return pa.table({"k": g["k"],
                         "c": g["count_all"].cast(pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("k").sum("c")).materialize()
    counts = _rename(counts, ["k", "c"])

    def scatter(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        c = t["c"].to_numpy()
        ix, iy = k >> 20, k & ((1 << 20) - 1)
        ks, ms, os_ = [], [], []
        n = 1 << RES
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                jx, jy = ix + dx, iy + dy
                ok = (jx >= 0) & (jx < n) & (jy >= 0) & (jy < n)
                ks.append((jx[ok] << 20) | jy[ok])
                ms.append(c[ok])
                os_.append(np.ones(int(ok.sum()), np.int64))
        return pa.table({"k": pa.array(np.concatenate(ks)),
                         "c": pa.array(np.zeros(sum(map(len, ks)),
                                                np.int64)),
                         "mass": pa.array(np.concatenate(ms)),
                         "occ": pa.array(np.concatenate(os_))})

    tagged = counts.map_batches(
        lambda t: pa.table({"k": t["k"], "c": t["c"],
                            "mass": pa.array(np.zeros(len(t), np.int64)),
                            "occ": pa.array(np.zeros(len(t), np.int64))}),
        batch_format="pyarrow")
    merged = (tagged.union(counts.map_batches(scatter,
                                              batch_format="pyarrow"))
              .groupby("k").sum(["c", "mass", "occ"]))

    def reduce_row(t: pa.Table) -> pa.Table:
        c = t["sum(c)"].to_numpy()
        mass = t["sum(mass)"].to_numpy()
        occ = t["sum(occ)"].to_numpy()
        occu = c > 0
        return pa.table({
            "n_cells": pa.array([int(occu.sum())], pa.int64()),
            "sum_c": pa.array([int(c.sum())], pa.int64()),
            "ssq_c": pa.array([int((c * c).sum())], pa.int64()),
            "w_pairs": pa.array([int(occ[occu].sum())], pa.int64()),
            "cross_sum": pa.array([int((c[occu] * mass[occu]).sum())],
                                  pa.int64())})

    return (merged.map_batches(reduce_row, batch_format="pyarrow")
            .groupby(None)
            .sum(["n_cells", "sum_c", "ssq_c", "w_pairs", "cross_sum"])
            .map_batches(lambda t: t.rename_columns(
                ["n_cells", "sum_c", "ssq_c", "w_pairs", "cross_sum"]),
                batch_format="pyarrow"))



QUERIES["tile_autocorr_cells"] = q_spatial_autocorr_cells



def _spatial_autocorr_sql(img_dir: str) -> str:
    qx = _sql_quant("lon", "180.0", "360.0", 10)
    qy = _sql_quant("lat", "90.0", "180.0", 10)
    return f"""
        WITH pts AS (SELECT {qx} AS ix, {qy} AS iy
                     FROM read_parquet('{img_dir}/part-*.parquet')),
        c AS (SELECT ix, iy, count(*) AS c FROM pts GROUP BY 1, 2),
        pair AS (SELECT a.c AS ca, b.c AS cb
                 FROM c a JOIN c b
                   ON abs(a.ix - b.ix) <= 1 AND abs(a.iy - b.iy) <= 1
                  AND NOT (a.ix = b.ix AND a.iy = b.iy))
        SELECT (SELECT count(*) FROM c) AS n_cells,
               (SELECT CAST(SUM(c) AS BIGINT) FROM c) AS sum_c,
               (SELECT CAST(SUM(c * c) AS BIGINT) FROM c) AS ssq_c,
               (SELECT count(*) FROM pair) AS w_pairs,
               (SELECT CAST(COALESCE(SUM(ca * cb), 0) AS BIGINT)
                FROM pair) AS cross_sum
    """



def q_funnel_windowed_users(sf_dir: str):
    """Windowed event-to-event join: per purchase, views by the same
    user in the trailing 24 h — the attribution-window count a plain
    funnel can't express. One co-partition on user; inside a bucket
    BOTH sides pack to local_user·SPAN + (ts − t₀) (SPAN covers the
    time domain + window, overflow-asserted), so every purchase's
    window count is two global searchsorteds over the packed view
    array — no per-user loop, no row-pair materialization."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
    W = 86_400_000_000  # 24 h in µs

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                              "n_purchases": pd.Series(dtype=np.int64),
                              "n_converted": pd.Series(dtype=np.int64),
                              "n_view_hits": pd.Series(dtype=np.int64)})
        p = df[df["event_type"] == "purchase"]
        v = df[df["event_type"] == "view"]
        if len(p) == 0:
            return empty
        pu = p["user_id"].to_numpy(np.int64)
        pt = p["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        vu = v["user_id"].to_numpy(np.int64)
        vt = v["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        users = np.unique(np.r_[pu, vu])
        lu_p = np.searchsorted(users, pu)
        lu_v = np.searchsorted(users, vu)
        t0 = int(min(pt.min(), vt.min() if len(vt) else pt.min()))
        span = np.int64(max(pt.max(), vt.max() if len(vt) else 0)
                        - t0 + W + 2)
        assert len(users) * span < (1 << 62), "pack overflow"
        packed_v = np.sort(lu_v * span + (vt - t0))
        base = lu_p * span
        hi = np.searchsorted(packed_v, base + (pt - t0))
        lo = np.searchsorted(packed_v,
                             np.maximum(base + (pt - t0) - W, base))
        hits = (hi - lo).astype(np.int64)
        g = pd.DataFrame({"user_id": pu, "hits": hits,
                          "conv": (hits > 0).astype(np.int64)}) \
            .groupby("user_id", as_index=False) \
            .agg(n_purchases=("hits", "size"),
                 n_converted=("conv", "sum"),
                 n_view_hits=("hits", "sum"))
        return g

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket,
                                          batch_format="pandas"))



QUERIES["funnel_windowed_users"] = q_funnel_windowed_users

ORACLE_SQL["funnel_windowed_users"] = """
        WITH p AS (SELECT event_id, user_id, ts FROM events
                   WHERE event_type = 'purchase'),
        v AS (SELECT user_id, ts FROM events WHERE event_type = 'view'),
        j AS (SELECT p.user_id, p.event_id, count(v.ts) AS hits
              FROM p LEFT JOIN v
                ON v.user_id = p.user_id AND v.ts < p.ts
               AND v.ts >= p.ts - INTERVAL 24 HOUR
              GROUP BY 1, 2)
        SELECT user_id, count(*) AS n_purchases,
               CAST(count(*) FILTER (hits > 0) AS BIGINT) AS n_converted,
               CAST(SUM(hits) AS BIGINT) AS n_view_hits
        FROM j GROUP BY 1
    """



def q_bounce_rate_daily(sf_dir: str):
    """Per-day session bounce rate inputs: sessions STARTING each day
    and how many were single-event bounces — the engagement KPI over
    the sessionized stream. relational.session_intervals does the one
    co-partition; per-day partials are calendar-bounded."""
    from battery.ops.relational import session_intervals

    iv = session_intervals(_read(sf_dir, "events", ["user_id", "ts"]))

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["a_us"], pa.scalar(86_400_000_000, pa.int64()))
        bounce = pc.equal(t["n_rows"], pa.scalar(1)).cast(pa.int64())
        g = pa.table({"day": day, "b": bounce}).group_by("day") \
            .aggregate([([], "count_all"), ("b", "sum")])
        return pa.table({"day": g["day"],
                         "n_sessions": g["count_all"].cast(pa.int64()),
                         "n_bounce": g["b_sum"]})

    out = (iv.map_batches(partial, batch_format="pyarrow")
           .groupby("day").sum(["n_sessions", "n_bounce"]))
    return _rename(out, ["day", "n_sessions", "n_bounce"])



QUERIES["bounce_rate_daily"] = q_bounce_rate_daily

ORACLE_SQL["bounce_rate_daily"] = """
        WITH s AS (SELECT user_id, epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        iv AS (SELECT user_id, sid, min(us) AS a, count(*) AS n_ev
               FROM s2 GROUP BY 1, 2)
        SELECT CAST(a // 86400000000 AS BIGINT) AS day,
               count(*) AS n_sessions,
               CAST(count(*) FILTER (n_ev = 1) AS BIGINT) AS n_bounce
        FROM iv GROUP BY 1
    """



def q_adjacent_vector_dots(sf_dir: str):
    """Windowed vector algebra with HALO exchange: for every adjacent
    id pair (v, v+1), the exact trunc-e4 lattice dot product and both
    squared norms — the LAG-over-a-vector-column op. Vectors
    co-partition by vec_id>>6 (64 per group) and each group-boundary
    vector is DUPLICATED into the previous bucket (ghost cell), so
    every pair is complete in exactly one group — the owner guard
    (a>>6 == bucket) makes the halo copy emit nothing of its own.
    All arithmetic is int64 on the trunc lattice; the UNNEST-zip SQL
    replay computes the same sums positionally."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def with_halo(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].to_numpy()
        b = vid >> 6
        halo = (vid % 64 == 0) & (vid > 0)
        out = pa.table({
            "bucket": pa.array(np.r_[b, b[halo] - 1]),
            "vec_id": pa.array(np.r_[vid, vid[halo]]),
            "embedding": pa.concat_arrays(
                [t["embedding"].combine_chunks(),
                 t["embedding"].combine_chunks().take(
                     pa.array(np.nonzero(halo)[0]))]),
        })
        return out

    def dots(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id": pd.Series(dtype=np.int64),
                              "dot_e8": pd.Series(dtype=np.int64),
                              "norm_a_e8": pd.Series(dtype=np.int64),
                              "norm_b_e8": pd.Series(dtype=np.int64)})
        if len(df) < 2:
            return empty
        bucket = int(df["bucket"].iloc[0])
        vid = df["vec_id"].to_numpy(np.int64)
        o = np.argsort(vid, kind="stable")
        vid = vid[o]
        q = np.trunc(np.stack(df["embedding"].to_numpy()[o])
                     .astype(np.float64) * 10000.0).astype(np.int64)
        adj = (np.diff(vid) == 1) & ((vid[:-1] >> 6) == bucket)
        a = np.nonzero(adj)[0]
        if len(a) == 0:
            return empty
        qa, qb = q[a], q[a + 1]
        return pd.DataFrame({
            "vec_id": vid[a],
            "dot_e8": (qa * qb).sum(axis=1),
            "norm_a_e8": (qa * qa).sum(axis=1),
            "norm_b_e8": (qb * qb).sum(axis=1)})

    return (ds.map_batches(with_halo, batch_format="pyarrow")
            .groupby("bucket").map_groups(dots, batch_format="pandas"))



QUERIES["adjacent_vector_dots"] = q_adjacent_vector_dots

ORACLE_SQL["adjacent_vector_dots"] = """
        WITH u AS (SELECT vec_id,
                          unnest(range(len(embedding))) AS i,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings)
        SELECT a.vec_id AS vec_id,
               CAST(SUM(a.q * b.q) AS BIGINT) AS dot_e8,
               CAST(SUM(a.q * a.q) AS BIGINT) AS norm_a_e8,
               CAST(SUM(b.q * b.q) AS BIGINT) AS norm_b_e8
        FROM u a JOIN u b ON b.vec_id = a.vec_id + 1 AND b.i = a.i
        GROUP BY 1
    """



def q_watermark_late_events(sf_dir: str):
    """Streaming watermark accounting: replay the stream in a
    deterministic out-of-order ARRIVAL permutation (hash of event_id —
    the same derived-shuffle idiom as train_split) and count, per
    event-time day, the events that arrive later than watermark−1h —
    the lateness audit a streaming sink needs. The running max is a
    DISTRIBUTED PREFIX-MAX: order-aligned arrival buckets, one
    per-bucket max partial + a driver exclusive scan (≤4096 rows),
    then each bucket resolves its own rows with one
    maximum.accumulate seeded by its broadcast base.  The 256 buckets
    hash-co-partition into cluster-width map_groups tasks (each task
    scans its ~256/width bucket segments after one lexsort) — the
    group-machinery cost rides the WIDTH, not the bucket count — and
    the day totals tree-combine in Arrow (day cardinality) instead of
    paying a Ray aggregate's per-block fixed cost (the window_events
    r4 lesson)."""
    ev = _read(sf_dir, "events", ["event_id", "ts"])
    SHIFT = 20  # arrival domain is 2^32 → ≤4096 fine buckets

    def arrival_of(vid: np.ndarray) -> np.ndarray:
        return ((vid.astype(np.uint64) * np.uint64(2654435761))
                % np.uint64(4294967296)).astype(np.int64)

    def pass_a(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        b = arrival_of(t["event_id"].to_numpy()) >> SHIFT
        g = pa.table({"b": pa.array(b), "us": us}).group_by("b") \
            .aggregate([("us", "max")])
        return pa.table({"b": g["b"], "mx": g["us_max"]})

    rows = (ev.map_batches(pass_a, batch_format="pyarrow")
            .repartition(4)  # ≤4096-row partials: coalesce the slivers
            .groupby("b").max("mx")).take_all()
    rows.sort(key=lambda r: r["b"])
    # coarsen to ≤256 groups: map_groups pays a per-GROUP machinery
    # cost (the multi-key-groupby law — 4096 groups measured 16.4 s on
    # a 10k-row pass, 256 run it in ~2 s); shift-aligned merging keeps
    # the order alignment, maxima merge by max
    extra = 0
    while len({r["b"] >> extra for r in rows}) > 256:
        extra += 1
    eff = SHIFT + extra
    merged: dict[int, int] = {}
    for r in rows:
        k = r["b"] >> extra
        merged[k] = max(merged.get(k, -(1 << 62)), r["max(mx)"])
    bks = np.array(sorted(merged), dtype=np.int64)
    mxs = np.array([merged[k] for k in bks], dtype=np.int64)
    bases = np.r_[np.int64(-(1 << 62)),
                  np.maximum.accumulate(mxs)[:-1]]
    base_ref = ray.put((bks, bases))

    P = max(8, int(ray.cluster_resources().get("CPU", 16)))

    def with_bucket(t: pa.Table) -> pa.Table:
        a = arrival_of(t["event_id"].to_numpy())
        bk = a >> eff
        return pa.table({"event_id": t["event_id"],
                         "us": t["ts"].cast(pa.int64()),
                         "arrival": pa.array(a),
                         "bucket": pa.array(bk),
                         "pb": pa.array(bk % P)})

    def late_multi(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "n_events": pd.Series(dtype=np.int64),
                                 "n_late": pd.Series(dtype=np.int64)})
        bks_, bases_ = _broadcast(base_ref)
        a = df["arrival"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        bk = df["bucket"].to_numpy(np.int64)
        # one lexsort orders every bucket segment of this partition at
        # once ((bucket, arrival, event_id) — within a segment this is
        # exactly the single-bucket order); the Python loop is over the
        # ≤ ceil(256/width) SEGMENTS, each resolved vectorized
        o = np.lexsort((e, a, bk))
        us_, bk_ = us[o], bk[o]
        starts = np.flatnonzero(np.r_[True, bk_[1:] != bk_[:-1]])
        ends = np.r_[starts[1:], len(us_)]
        days, lates = [], []
        for s, t2 in zip(starts, ends):
            seg = us_[s:t2]
            base = bases_[np.searchsorted(bks_, bk_[s])]
            wm = np.maximum.accumulate(np.r_[base, seg[:-1]])
            seen_any = np.r_[base > -(1 << 61),
                             np.ones(len(seg) - 1, bool)]
            days.append(seg // 86_400_000_000)
            lates.append(
                (seen_any & (seg < wm - 3_600_000_000)).astype(np.int64))
        g = pd.DataFrame({"day": np.concatenate(days),
                          "late": np.concatenate(lates)}) \
            .groupby("day", as_index=False) \
            .agg(n_events=("late", "size"), n_late=("late", "sum"))
        return g

    def day_combine(t: pa.Table) -> pa.Table:
        g = pa.table({"day": t["day"], "n_events": t["n_events"],
                      "n_late": t["n_late"]}) \
            .group_by("day").aggregate(
                [("n_events", "sum"), ("n_late", "sum")])
        return pa.table({"day": g["day"], "n_events": g["n_events_sum"],
                         "n_late": g["n_late_sum"]})

    return (ev.map_batches(with_bucket, batch_format="pyarrow")
            .groupby("pb").map_groups(late_multi, batch_format="pandas")
            .repartition(1)  # day-scale partials (≤ width × days rows)
            .map_batches(day_combine, batch_format="pyarrow",
                         batch_size=None))



QUERIES["watermark_late_events"] = q_watermark_late_events

ORACLE_SQL["watermark_late_events"] = """
        WITH w AS (SELECT epoch_us(ts) AS us,
                          MAX(epoch_us(ts)) OVER (
                              ORDER BY (event_id * 2654435761
                                        % 4294967296), event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS wm
                   FROM events)
        SELECT CAST(us // 86400000000 AS BIGINT) AS day,
               count(*) AS n_events,
               CAST(count(*) FILTER (wm IS NOT NULL
                    AND us < wm - 3600000000) AS BIGINT) AS n_late
        FROM w GROUP BY 1
    """



def q_keyspace_gaps_orders(sf_dir: str):
    """Key-space integrity audit over the F-status order ids: gap
    count, missing-key total and largest hole between consecutive
    present keys — the LEAD-diff island scan, distributed with NO
    sort: keys co-partition into order-aligned id-range buckets
    (driver-coarsened to ≤2048), each bucket resolves its interior
    gaps in one sorted-diff pass, and the driver stitches the ≤2048
    inter-bucket seams from per-bucket (min, max). The final answer
    is one row; keys never leave their bucket."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    keys = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"],
                                    pa.scalar("F")))
        .select(["o_orderkey"]), batch_format="pyarrow")

    def pass_a(t: pa.Table) -> pa.Table:
        b = pc.shift_right(t["o_orderkey"], pa.scalar(12, pa.int64()))
        g = pa.table({"b": b}).group_by("b").aggregate(
            [([], "count_all")])
        return pa.table({"b": g["b"], "n": g["count_all"]})

    fine = (keys.map_batches(pass_a, batch_format="pyarrow")
            .groupby("b").sum("n")).take_all()
    extra = 0
    while len({r["b"] >> extra for r in fine}) > 2048:
        extra += 1
    eff = 12 + extra

    def with_bucket(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["o_orderkey"],
                         "bucket": pc.shift_right(
                             t["o_orderkey"],
                             pa.scalar(eff, pa.int64()))})

    def in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        k = np.sort(df["k"].to_numpy(np.int64))
        d = np.diff(k) - 1
        g = d[d > 0]
        return pd.DataFrame({
            "bucket": [np.int64(df["bucket"].iloc[0])],
            "n_keys": [len(k)], "n_gaps": [len(g)],
            "missing": [int(g.sum())],
            "max_gap": [int(g.max()) if len(g) else 0],
            "kmin": [int(k[0])], "kmax": [int(k[-1])]})

    per_bucket = (keys.map_batches(with_bucket, batch_format="pyarrow")
                  .groupby("bucket")
                  .map_groups(in_bucket, batch_format="pandas")
                  ).take_all()
    per_bucket.sort(key=lambda r: r["bucket"])
    n_keys = sum(r["n_keys"] for r in per_bucket)
    n_gaps = sum(r["n_gaps"] for r in per_bucket)
    missing = sum(r["missing"] for r in per_bucket)
    max_gap = max((r["max_gap"] for r in per_bucket), default=0)
    for prev, cur in zip(per_bucket, per_bucket[1:]):
        seam = cur["kmin"] - prev["kmax"] - 1
        if seam > 0:
            n_gaps += 1
            missing += seam
            max_gap = max(max_gap, seam)
    return pd.DataFrame({"n_keys": [n_keys], "n_gaps": [n_gaps],
                         "missing_total": [missing],
                         "max_gap": [max_gap]})



QUERIES["keyspace_gaps_orders"] = q_keyspace_gaps_orders

ORACLE_SQL["keyspace_gaps_orders"] = """
        WITH k AS (SELECT o_orderkey AS k FROM orders
                   WHERE o_orderstatus = 'F'),
        d AS (SELECT k, LEAD(k) OVER (ORDER BY k) AS nk FROM k)
        SELECT count(*) AS n_keys,
               CAST(count(*) FILTER (nk - k > 1) AS BIGINT) AS n_gaps,
               CAST(COALESCE(SUM(nk - k - 1) FILTER (nk - k > 1), 0)
                    AS BIGINT) AS missing_total,
               CAST(COALESCE(MAX(nk - k - 1), 0) AS BIGINT) AS max_gap
        FROM d
    """



def q_tile_stop_hulls(sf_dir: str):
    """Distributed convex hull per caption stop: the hull is an
    ASSOCIATIVE aggregate (hull(A∪B) = hull(hull(A)∪hull(B))), so each
    batch emits only its ≤30 per-stop partial-hull vertices and the
    final chain runs per stop over vertex-count-scale candidates —
    the corpus's coordinates never shuffle. Companion count/bbox pass
    is a plain 30-row Arrow aggregate; both scans prune to
    (caption, lon, lat) so the payload column never leaves storage.
    Oracle: independent Jarvis-march (gift-wrapping, exact Fraction
    crosses) sidecar vs the engine's monotone chain."""
    from geotile.geom.hull import convex_hull
    from geotile.ops.tiles import read_image_table

    img = _image_dir_for(sf_dir)
    ds = read_image_table(img, columns=["caption", "lon", "lat"])

    def stats(t: pa.Table) -> pa.Table:
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4), pa.int64())
        g = pa.table({"stop": stop, "lon": t["lon"], "lat": t["lat"]}) \
            .group_by("stop").aggregate(
                [([], "count_all"), ("lon", "min"), ("lon", "max"),
                 ("lat", "min"), ("lat", "max")])
        return g.rename_columns(["stop", "n_points", "west", "east",
                                 "south", "north"])

    box = (ds.map_batches(stats, batch_format="pyarrow")
           .groupby("stop")
           .aggregate(rd.aggregate.Sum("n_points"),
                      rd.aggregate.Min("west"), rd.aggregate.Max("east"),
                      rd.aggregate.Min("south"),
                      rd.aggregate.Max("north")))
    box = _rename(box, ["stop", "n_points", "west", "east", "south",
                        "north"]).to_pandas()

    def partial_hulls(t: pa.Table) -> pa.Table:
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4),
            pa.int64()).to_numpy(zero_copy_only=False)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        ss, xs, ys = [], [], []
        for s in np.unique(stop):
            m = stop == s
            ring = convex_hull(np.c_[lon[m], lat[m]])
            pts = np.c_[lon[m], lat[m]] if ring is None else ring[:-1]
            ss.append(np.full(len(pts), s, np.int64))
            xs.append(pts[:, 0])
            ys.append(pts[:, 1])
        return pa.table({"stop": pa.array(np.concatenate(ss)),
                         "lon": pa.array(np.concatenate(xs)),
                         "lat": pa.array(np.concatenate(ys))})

    def final_hull(df: pd.DataFrame) -> pd.DataFrame:
        ring = convex_hull(np.c_[df["lon"].to_numpy(),
                                 df["lat"].to_numpy()])
        n = 0 if ring is None else len(ring) - 1
        return pd.DataFrame({"stop": [np.int64(df["stop"].iloc[0])],
                             "n_hull": [np.int64(n)]})

    hull = (ds.map_batches(partial_hulls, batch_format="pyarrow")
            .groupby("stop").map_groups(final_hull,
                                        batch_format="pandas")
            ).to_pandas()
    out = box.merge(hull, on="stop")
    out["stop"] = out["stop"].astype(np.int64)
    return out[["stop", "n_points", "n_hull", "west", "south",
                "east", "north"]]



QUERIES["tile_stop_hulls"] = q_tile_stop_hulls



def _stop_hulls_sidecar(img: str) -> str:
    """Independent replay for tile_stop_hulls: Jarvis march with exact
    Fraction cross products (vs the engine's monotone chain with
    float-fast/Fraction-fallback), per-stop, over the same synth
    coordinates. Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from fractions import Fraction as F
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_stophulls_{Path(img).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["caption", "lon", "lat"])
        stop = np.array([int(c.split(" ")[4])
                         for c in t["caption"].to_pylist()], np.int64)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)

        def jarvis(pts: list[tuple[float, float]]) -> int:
            pts = sorted(set(pts))
            if len(pts) < 3:
                return 0
            start = min(pts, key=lambda q: (q[1], q[0]))
            hull, cur = [], start
            while True:
                hull.append(cur)
                cand = pts[0] if pts[0] != cur else pts[1]
                for q in pts:
                    if q == cur:
                        continue
                    cr = ((F(cand[0]) - F(cur[0]))
                          * (F(q[1]) - F(cur[1]))
                          - (F(cand[1]) - F(cur[1]))
                          * (F(q[0]) - F(cur[0])))
                    if cr < 0:
                        cand = q
                    elif cr == 0:
                        # collinear: keep the farthest (strict hull)
                        d_c = ((F(cand[0]) - F(cur[0])) ** 2
                               + (F(cand[1]) - F(cur[1])) ** 2)
                        d_q = ((F(q[0]) - F(cur[0])) ** 2
                               + (F(q[1]) - F(cur[1])) ** 2)
                        if d_q > d_c:
                            cand = q
                cur = cand
                if cur == start:
                    return len(hull)

        rows = []
        for s in sorted(set(stop.tolist())):
            m = stop == s
            pts = list(zip(lon[m].tolist(), lat[m].tolist()))
            rows.append({
                "stop": s, "n_points": int(m.sum()),
                "n_hull": jarvis(pts),
                "west": float(lon[m].min()),
                "south": float(lat[m].min()),
                "east": float(lon[m].max()),
                "north": float(lat[m].max())})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _stop_hulls_sql(img: str) -> str:
    return (f"SELECT stop, n_points, n_hull, west, south, east, north "
            f"FROM read_parquet('{_stop_hulls_sidecar(img)}')")



def q_ri_audit_edges(sf_dir: str):
    """Referential-integrity audit across three FK edges with injected
    quarantine (parents with key % 97 / % 89 == 0 withheld — the
    orphan-detection drill a lake ingestion gate runs). Each edge is
    ONE relational.anti_join: small surviving keysets broadcast, and
    the helper's co-partition fallback keeps the same plan legal when
    the parent side outgrows a broadcast at 100 TB. Output is one row
    per edge with child and orphan counts."""
    from battery.ops.relational import anti_join

    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    orders_k = _read(sf_dir, "orders", ["o_orderkey"])
    orders_c = _read(sf_dir, "orders", ["o_custkey"])
    cust_k = _read(sf_dir, "customer", ["c_custkey"])
    cust_n = _read(sf_dir, "customer", ["c_nationkey"])
    nation_k = _read(sf_dir, "nation", ["n_nationkey"])

    def quarantine(col: str, mod: int):
        def fn(t: pa.Table) -> pa.Table:
            keep = pc.not_equal(
                pc.subtract(t[col], pc.multiply(
                    pc.divide(t[col], pa.scalar(mod)),
                    pa.scalar(mod))), pa.scalar(0))
            return t.filter(keep)
        return fn

    edges = [
        ("lineitem->orders", li, "l_orderkey",
         orders_k.map_batches(quarantine("o_orderkey", 97),
                              batch_format="pyarrow"), "o_orderkey"),
        ("orders->customer", orders_c, "o_custkey",
         cust_k.map_batches(quarantine("c_custkey", 89),
                            batch_format="pyarrow"), "c_custkey"),
        ("customer->nation",
         cust_n.map_batches(lambda t: pa.table(
             {"c_nationkey": t["c_nationkey"].cast(pa.int64())}),
             batch_format="pyarrow"), "c_nationkey",
         nation_k.map_batches(lambda t: pa.table(
             {"n_nationkey": t["n_nationkey"].cast(pa.int64())}),
             batch_format="pyarrow"), "n_nationkey"),
    ]
    rows = []
    for name, child, ck, parent, pk in edges:
        n_child = child.count()
        n_orphans = anti_join(child, parent, ck, pk).count()
        rows.append({"edge": name, "n_child": n_child,
                     "n_orphans": n_orphans})
    return pd.DataFrame(rows)



QUERIES["ri_audit_edges"] = q_ri_audit_edges

ORACLE_SQL["ri_audit_edges"] = """
        SELECT 'lineitem->orders' AS edge,
               (SELECT count(*) FROM lineitem) AS n_child,
               (SELECT count(*) FROM lineitem
                WHERE l_orderkey NOT IN
                      (SELECT o_orderkey FROM orders
                       WHERE o_orderkey % 97 <> 0)) AS n_orphans
        UNION ALL
        SELECT 'orders->customer',
               (SELECT count(*) FROM orders),
               (SELECT count(*) FROM orders
                WHERE o_custkey NOT IN
                      (SELECT c_custkey FROM customer
                       WHERE c_custkey % 89 <> 0))
        UNION ALL
        SELECT 'customer->nation',
               (SELECT count(*) FROM customer),
               (SELECT count(*) FROM customer
                WHERE c_nationkey NOT IN
                      (SELECT n_nationkey FROM nation))
    """



def q_conversion_latency_users(sf_dir: str):
    """Conversion-latency histogram: days from each user's FIRST event
    to their FIRST purchase (non-converters drop out) — the activation
    curve. Two exact MIN aggregates ride one user-cardinality shuffle
    (purchase-min uses a sentinel so Arrow's min never sees a null),
    then the histogram is latency-cardinality."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    SENT = np.int64(1) << 62

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        is_p = pc.equal(t["event_type"], pa.scalar("purchase"))
        pus = pc.if_else(is_p, us, pa.scalar(int(SENT), pa.int64()))
        g = pa.table({"user_id": t["user_id"], "a": us, "p": pus}) \
            .group_by("user_id").aggregate([("a", "min"), ("p", "min")])
        return g.rename_columns(["user_id", "a", "p"])

    firsts = (ev.map_batches(partial, batch_format="pyarrow")
              .groupby("user_id").min(["a", "p"]))

    def hist(t: pa.Table) -> pa.Table:
        a = t["min(a)"].to_numpy()
        p = t["min(p)"].to_numpy()
        conv = p < SENT
        lat = (p[conv] // 86_400_000_000) - (a[conv] // 86_400_000_000)
        g = pa.table({"latency_days": pa.array(lat)}) \
            .group_by("latency_days").aggregate([([], "count_all")])
        return pa.table({"latency_days": g["latency_days"],
                         "n_users": g["count_all"].cast(pa.int64())})

    out = (firsts.map_batches(hist, batch_format="pyarrow")
           .groupby("latency_days").sum("n_users"))
    return _rename(out, ["latency_days", "n_users"])



QUERIES["conversion_latency_users"] = q_conversion_latency_users

ORACLE_SQL["conversion_latency_users"] = """
        WITH f AS (SELECT user_id, min(epoch_us(ts)) AS a,
                          min(CASE WHEN event_type = 'purchase'
                                   THEN epoch_us(ts) END) AS p
                   FROM events GROUP BY 1)
        SELECT CAST(p // 86400000000 - a // 86400000000 AS BIGINT)
                   AS latency_days,
               count(*) AS n_users
        FROM f WHERE p IS NOT NULL GROUP BY 1
    """



def q_moments4_by_type(sf_dir: str):
    """Higher-moment sketch: per event type the exact power sums
    Σq⁰..Σq⁴ on the floor-dollars lattice — the mergeable parts that
    reconstruct variance, skewness and kurtosis downstream without a
    second pass. q ≤ 490 keeps q⁴ ≤ 5.8·10¹⁰, so the int64 sums are
    exact at any corpus size that fits a lake; partials are
    type-cardinality."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        q = pc.floor(t["value"]).cast(pa.int64())
        q2 = pc.multiply(q, q)
        g = pa.table({"event_type": t["event_type"], "s1": q,
                      "s2": q2, "s3": pc.multiply(q2, q),
                      "s4": pc.multiply(q2, q2)}) \
            .group_by("event_type").aggregate(
                [([], "count_all"), ("s1", "sum"), ("s2", "sum"),
                 ("s3", "sum"), ("s4", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "n": g["count_all"].cast(pa.int64()),
                         "s1": g["s1_sum"], "s2": g["s2_sum"],
                         "s3": g["s3_sum"], "s4": g["s4_sum"]})

    out = (ev.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type").sum(["n", "s1", "s2", "s3", "s4"]))
    return _rename(out, ["event_type", "n", "s1", "s2", "s3", "s4"])



QUERIES["moments4_by_type"] = q_moments4_by_type

ORACLE_SQL["moments4_by_type"] = """
        WITH q AS (SELECT event_type,
                          CAST(floor(value) AS BIGINT) AS q
                   FROM events)
        SELECT event_type, count(*) AS n,
               CAST(SUM(q) AS BIGINT) AS s1,
               CAST(SUM(q * q) AS BIGINT) AS s2,
               CAST(SUM(q * q * q) AS BIGINT) AS s3,
               CAST(SUM(q * q * q * q) AS BIGINT) AS s4
        FROM q GROUP BY 1
    """



def q_bottomk_quantile_events(sf_dir: str):
    """Deterministic bottom-k quantile SKETCH with a two-phase exact
    audit: sample = the k=1024 events with the smallest hash of
    event_id (a mergeable bottom-k sketch — per-batch partial bottom-k,
    one tiny final reduce, same shape as topk_orders), median
    estimated from the sample, then ONE broadcast-scalar pass counts
    how many corpus rows sit strictly below the estimate — the
    exact-rank certificate an approximate op should ship with. Every
    step is deterministic, so the SQL replay reproduces the sketch
    itself, not just a tolerance."""
    ev = _read(sf_dir, "events", ["event_id", "value"])
    K = 1024

    def bottom(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        h = ((eid.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(4294967296)).astype(np.int64)
        cents = pc.floor(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        o = np.lexsort((eid, h))[:K]
        return pa.table({"h": pa.array(h[o]),
                         "event_id": pa.array(eid[o]),
                         "cents": pa.array(cents[o])})

    sample = (ev.map_batches(bottom, batch_format="pyarrow")
              .repartition(1)
              .map_batches(lambda t: t.take(pa.array(
                  np.lexsort((t["event_id"].to_numpy(),
                              t["h"].to_numpy()))[:K])),
                  batch_format="pyarrow")).take_all()
    k = len(sample)
    cs = np.sort(np.array([r["cents"] for r in sample], dtype=np.int64))
    est = int(cs[(k - 1) // 2])

    def lt_count(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.multiply(t["value"], pa.scalar(100.0))) \
            .cast(pa.int64())
        n_lt = pc.sum(pc.less(cents, pa.scalar(est)).cast(pa.int64()))
        return pa.table({"n_lt": pa.array([n_lt.as_py() or 0],
                                          pa.int64()),
                         "n": pa.array([len(t)], pa.int64())})

    agg = ev.map_batches(lt_count, batch_format="pyarrow").to_pandas()
    n_lt, n = int(agg["n_lt"].sum()), int(agg["n"].sum())
    return pd.DataFrame({"sample_k": [k], "est_med_cents": [est],
                         "n_lt": [n_lt], "n_total": [n],
                         "rank_ppm": [n_lt * 1_000_000 // n]})



QUERIES["bottomk_quantile_events"] = q_bottomk_quantile_events

ORACLE_SQL["bottomk_quantile_events"] = """
        WITH s AS (SELECT value FROM events
                   ORDER BY (event_id * 2654435761 % 4294967296),
                            event_id
                   LIMIT 1024),
        m AS (SELECT CAST(floor(value * 100.0) AS BIGINT) AS c
              FROM s ORDER BY 1
              LIMIT 1 OFFSET (SELECT (count(*) - 1) // 2 FROM s))
        SELECT (SELECT count(*) FROM s) AS sample_k,
               (SELECT c FROM m) AS est_med_cents,
               (SELECT count(*) FROM events
                WHERE CAST(floor(value * 100.0) AS BIGINT)
                      < (SELECT c FROM m)) AS n_lt,
               (SELECT count(*) FROM events) AS n_total,
               (SELECT count(*) FROM events
                WHERE CAST(floor(value * 100.0) AS BIGINT)
                      < (SELECT c FROM m)) * 1000000
                   // (SELECT count(*) FROM events) AS rank_ppm
    """



def q_ab_conversion_parts(sf_dir: str):
    """Experimentation readout: users split into two deterministic
    variants (user_id parity), per variant the exact two-proportion
    parts — exposed users, converted users (≥1 purchase), events and
    purchases — everything a z/χ² test consumes, no float on the
    shuffle. Per-user flags ride one user-cardinality groupby; the
    variant rollup is 2 rows."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def per_user(t: pa.Table) -> pa.Table:
        is_p = pc.equal(t["event_type"],
                        pa.scalar("purchase")).cast(pa.int64())
        g = pa.table({"user_id": t["user_id"], "p": is_p}) \
            .group_by("user_id").aggregate(
                [([], "count_all"), ("p", "sum")])
        return pa.table({"user_id": g["user_id"],
                         "n_events": g["count_all"].cast(pa.int64()),
                         "n_purch": g["p_sum"]})

    users = (ev.map_batches(per_user, batch_format="pyarrow")
             .groupby("user_id").sum(["n_events", "n_purch"]))

    def variants(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy()
        npu = t["sum(n_purch)"].to_numpy()
        g = pa.table({
            "variant": pa.array((u % 2).astype(np.int64)),
            "one": pa.array(np.ones(len(u), np.int64)),
            "conv": pa.array((npu > 0).astype(np.int64)),
            "ev": t["sum(n_events)"], "pu": pa.array(npu)}) \
            .group_by("variant").aggregate(
                [("one", "sum"), ("conv", "sum"), ("ev", "sum"),
                 ("pu", "sum")])
        return pa.table({"variant": g["variant"],
                         "n_users": g["one_sum"],
                         "n_converted": g["conv_sum"],
                         "n_events": g["ev_sum"],
                         "n_purchases": g["pu_sum"]})

    out = (users.map_batches(variants, batch_format="pyarrow")
           .groupby("variant").sum(["n_users", "n_converted",
                                    "n_events", "n_purchases"]))
    return _rename(out, ["variant", "n_users", "n_converted",
                         "n_events", "n_purchases"])



QUERIES["ab_conversion_parts"] = q_ab_conversion_parts

ORACLE_SQL["ab_conversion_parts"] = """
        WITH u AS (SELECT user_id, count(*) AS n_events,
                          count(*) FILTER (event_type = 'purchase')
                              AS n_purch
                   FROM events GROUP BY 1)
        SELECT user_id % 2 AS variant, count(*) AS n_users,
               CAST(count(*) FILTER (n_purch > 0) AS BIGINT)
                   AS n_converted,
               CAST(SUM(n_events) AS BIGINT) AS n_events,
               CAST(SUM(n_purch) AS BIGINT) AS n_purchases
        FROM u GROUP BY 1
    """



def q_session_duration_quantiles(sf_dir: str):
    """Exact discrete quantiles OVER AN OPERATOR'S OUTPUT (composability
    drill): p50/p90/p99 of sessionized durations, quantized to whole
    seconds so the selection is count algebra over a bounded value
    histogram — no sort, no sample. relational.session_intervals does
    the one co-partition; the histogram partials are duration-domain
    rows; the driver scan picks index floor((n−1)·p/100) exactly as
    the SQL replay's LIMIT/OFFSET does."""
    from battery.ops.relational import session_intervals

    iv = session_intervals(_read(sf_dir, "events", ["user_id", "ts"]))

    def partial(t: pa.Table) -> pa.Table:
        dur = pc.divide(pc.subtract(t["b_us"], t["a_us"]),
                        pa.scalar(1_000_000, pa.int64()))
        g = pa.table({"d": dur}).group_by("d").aggregate(
            [([], "count_all")])
        return pa.table({"d": g["d"],
                         "n": g["count_all"].cast(pa.int64())})

    hist = (iv.map_batches(partial, batch_format="pyarrow")
            .groupby("d").sum("n")).take_all()
    hist.sort(key=lambda r: r["d"])
    ds_ = np.array([r["d"] for r in hist], dtype=np.int64)
    ns = np.array([r["sum(n)"] for r in hist], dtype=np.int64)
    cum = np.cumsum(ns)
    n = int(cum[-1])
    rows = []
    for p in (50, 90, 99):
        idx = (n - 1) * p // 100
        rows.append({"p": p,
                     "dur_s": int(ds_[np.searchsorted(cum, idx + 1)]),
                     "n_sessions": n})
    return pd.DataFrame(rows)



QUERIES["session_duration_quantiles"] = q_session_duration_quantiles

ORACLE_SQL["session_duration_quantiles"] = """
        WITH s AS (SELECT user_id, epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        iv AS (SELECT (max(us) - min(us)) // 1000000 AS d
               FROM s2 GROUP BY user_id, sid),
        nn AS (SELECT count(*) AS n FROM iv)
        SELECT p, dur_s, n AS n_sessions FROM nn, (
            SELECT 50 AS p,
                   (SELECT d FROM iv ORDER BY d LIMIT 1 OFFSET
                    (SELECT (count(*) - 1) * 50 // 100 FROM iv)) AS dur_s
            UNION ALL
            SELECT 90,
                   (SELECT d FROM iv ORDER BY d LIMIT 1 OFFSET
                    (SELECT (count(*) - 1) * 90 // 100 FROM iv))
            UNION ALL
            SELECT 99,
                   (SELECT d FROM iv ORDER BY d LIMIT 1 OFFSET
                    (SELECT (count(*) - 1) * 99 // 100 FROM iv))) q
    """



def q_dau_overlap_daily(sf_dir: str):
    """Day-over-day active-user overlap (retention Jaccard): for each
    consecutive day pair, |A∩B|, |A|, |B| and the Jaccard in exact
    ppm. Set algebra without a self-join: distinct (user, day) pairs
    dedup once; each user's sorted day list yields its adjacent-day
    hits in one shifted compare inside a user co-partition, and the
    per-day distinct counts ride the same dedup — the day-pair table
    is calendar-bounded."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        k = pc.add(pc.multiply(t["user_id"],
                               pa.scalar(1 << 20, pa.int64())), day)
        return pa.table({"k": k}).group_by("k").aggregate([])

    ded = (ev.map_batches(pairs, batch_format="pyarrow")
           .groupby("k").count())

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"user_id": pa.array(k >> 20),
                         "day": pa.array(k & ((1 << 20) - 1))})

    ud = ded.map_batches(unpack, batch_format="pyarrow").materialize()

    def daily(t: pa.Table) -> pa.Table:
        g = t.select(["day"]).group_by("day").aggregate(
            [([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    per_day = (ud.map_batches(daily, batch_format="pyarrow")
               .groupby("day").sum("n")).take_all()
    counts = {r["day"]: r["sum(n)"] for r in per_day}

    def inter(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "n_inter": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        o = np.lexsort((d, u))
        uu, dd = u[o], d[o]
        adj = (uu[1:] == uu[:-1]) & (dd[1:] == dd[:-1] + 1)
        g = pd.DataFrame({"day": dd[:-1][adj]}) \
            .groupby("day", as_index=False).size()
        return g.rename(columns={"size": "n_inter"})

    inter_rows = (_with_bucket(ud, "user_id", 32)
                  .groupby("bucket").map_groups(inter,
                                                batch_format="pandas")
                  .groupby("day").sum("n_inter")).take_all()
    rows = []
    for r in sorted(inter_rows, key=lambda r: r["day"]):
        d = r["day"]
        i = r["sum(n_inter)"]
        a, b = counts.get(d, 0), counts.get(d + 1, 0)
        rows.append({"day": d, "n_inter": i, "n_a": a, "n_b": b,
                     "jaccard_ppm": i * 1_000_000 // (a + b - i)})
    return pd.DataFrame(rows)

__defined__ = (
    '_COMPACT_TARGET',
    '_DBSCAN_MINPTS',
    '_PQ_CVALS',
    '_PQ_K',
    '_PQ_M',
    '_PQ_SUB',
    '_PROMO_BASE_US',
    '_PROMO_LEN_US',
    '_PROMO_STEP_US',
    '_PROMO_WINDOWS',
    '_SF_AUDIO_ROWS',
    '_audio_dir_for',
    '_audio_energy_sidecar',
    '_audio_energy_sql',
    '_audio_silence_sidecar',
    '_audio_silence_sql',
    '_caption_geo_sql',
    '_image_dup_clusters_sql',
    '_image_glcm_sidecar',
    '_image_glcm_sql',
    '_ntile_of',
    '_pq_oracle_sql',
    '_spatial_autocorr_sql',
    '_stop_hulls_sidecar',
    '_stop_hulls_sql',
    '_tile_pyramid_sql',
    'q_ab_conversion_parts',
    'q_above_avg_orders',
    'q_activity_bitmap_users',
    'q_adjacent_vector_dots',
    'q_anomaly_counts_users',
    'q_attribution_lasttouch',
    'q_audio_frame_energy',
    'q_audio_silence_runs',
    'q_benford_prices',
    'q_bottomk_quantile_events',
    'q_bounce_rate_daily',
    'q_caption_geo_consistency',
    'q_caption_stop_stats',
    'q_centroid_confusion',
    'q_clamped_balance_users',
    'q_compaction_plan_docs',
    'q_conversion_latency_users',
    'q_custdist_orders',
    'q_daily_churn_users',
    'q_daily_metrics_long',
    'q_dau_overlap_daily',
    'q_decay_score_users',
    'q_decile_transition_users',
    'q_dense_rank_orders',
    'q_dense_type_day_matrix',
    'q_distance_rings_docs',
    'q_division_completion_users',
    'q_dominant_dim_embeddings',
    'q_dominant_supplier_parts',
    'q_double_charge_orders',
    'q_drawdown_users',
    'q_except_all_users',
    'q_fmt_size_association',
    'q_funnel_windowed_users',
    'q_fuzzy_token_pairs_docs',
    'q_gap_filled_daily_users',
    'q_gini_impurity_users',
    'q_hierarchy_rollup_customers',
    'q_image_glcm_energy',
    'q_image_patch_sums',
    'q_important_parts',
    'q_keyspace_gaps_orders',
    'q_ks_lang_docs',
    'q_label_centroids',
    'q_linear_scores_embeddings',
    'q_llm_corpus_prep',
    'q_locf_events',
    'q_mannwhitney_daily',
    'q_moments4_by_type',
    'q_monotone_run_users',
    'q_nation_pair_revenue',
    'q_near_price_pairs',
    'q_novelty_daily',
    'q_partitioned_sink_events',
    'q_pattern_triples_users',
    'q_posting_lists_embeddings',
    'q_pq_codes_embeddings',
    'q_profile_orders',
    'q_promo_session_overlap',
    'q_pushdown_orders',
    'q_range_window_events',
    'q_rebase_index_users',
    'q_regex_tokens_docs',
    'q_revenue_concentration_orders',
    'q_revenue_deciles',
    'q_revenue_share_nations',
    'q_ri_audit_edges',
    'q_rolling_distinct_types',
    'q_running_revenue_orders',
    'q_scd2_orders',
    'q_session_concurrency_events',
    'q_session_duration_quantiles',
    'q_session_stats_users',
    'q_shipping_priority_q3',
    'q_sliding_distinct_users',
    'q_snapshot_diff_orders',
    'q_spatial_autocorr_cells',
    'q_spatial_dbscan_events',
    'q_spearman_users',
    'q_streaks_users',
    'q_tile_pyramid_counts',
    'q_tile_stop_hulls',
    'q_token_pair_support_docs',
    'q_topk_ties_orders',
    'q_twap_users',
    'q_type_lift_daily',
    'q_type_trigrams_users',
    'q_upsert_orders',
    'q_watermark_late_events',
    'q_weekly_type_wow',
    'q_weighted_median_lineitem',
)
