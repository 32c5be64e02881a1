"""Query battery part — 88 driver queries (split from the former single-module queries.py).

Registers:
dau_overlap_daily, audio_autocorr_tracks, zonemap_events,
user_feature_matrix, dict_encoding_audit, tile_viewport_query,
silhouette_parts_labels, ivm_priority_revenue, doc_top_tokens,
above_nation_avg_customers, dow_seasonality_orders,
matryoshka_energy_labels, trend_slope_users, image_median_gray,
tile_corridor_query, session_entry_exit_matrix, forecast_revenue_q6,
late_shipments_q12, priority_exists_check_q4, embedding_drift_labels,
promo_revenue_share_q14, small_qty_revenue_q17, order_gap_median_hist,
disjunctive_pred_q19, top_supplier_q15, waiting_customers_q22,
returned_revenue_q10, volatility_users, hapax_rate_sources,
stream_dedup_ttl, nation_quarter_qoq, growth_accounting_quarters,
cell_dominant_stop, calibration_bins_embeddings, hhi_nations,
bigram_coverage_langs, segment_octants_routes, unigram_l1_langs,
business_lead_hist, transition_dwell_matrix,
abc_classification_customers, video_frame_sums, supplier_mad_nations,
acquisition_conversion, burst_minutes_events, supplier_cov_nations,
lang_confusion_matrix, crossmodal_pairing_audit,
diversified_topk_orders, session_gap_sweep, pq_residual_energy,
image_center_bias, stop_spacing_legs, wallet_share_customers,
time_pyramid_counts, route_overlap_matrix, dow_hour_heatmap_events,
status_priority_crosstab, nation_percentile_customers,
audio_half_drift, lines_per_order_hist, stop_hull_area_parts,
dup_rate_sources, dup_degree_hist, all_ontime_orders,
stop_bbox_iou_pairs, source_trigram_affinity, seasonal_index_months,
weekend_aov_parts, purchase_gap_median, balance_asymmetry_nations,
vocab_growth_curve, nn1_accuracy_labels, status_share_monthly,
size_price_moments_brands, phash_popcount_stats,
large_volume_orders_q18, supplier_count_q16, audio_zcr_tracks,
video_motion_energy, image_gradient_energy, market_share_q8,
char_class_docs, global_max_gap_events, label_gram_matrix,
poly_edge_crossings, bloom_fpr_audit, scene_change_runs
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from battery.ops.images import ImageDecodeStage, ImagePatchStage

from .b01_core import (
    _dim_np,
    _emb_dim_np,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _fixture_ctx,
    _fixture_route_index,
    _geom_digest,
    _image_dir_for,
    _image_patch_sidecar,
    _lang_id_sql,
    _minhash_pairs_sidecar,
    _mods_digest,
    _oracle_cache_dir,
    _oracle_segments_path,
    _read,
    _rename,
    _sql_cell,
    tile_oracle_sql,
)  # noqa: F401

from .b02_events import (
    _PQ_CVALS,
    _PQ_K,
    _PQ_M,
    _PQ_SUB,
    _audio_dir_for,
    _audio_energy_sidecar,
    _ntile_of,
    q_dau_overlap_daily,
)  # noqa: F401



QUERIES["dau_overlap_daily"] = q_dau_overlap_daily

ORACLE_SQL["dau_overlap_daily"] = """
        WITH d AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 86400000000 AS day
                   FROM events),
        c AS (SELECT day, count(*) AS n FROM d GROUP BY 1),
        i AS (SELECT a.day, count(*) AS n_inter
              FROM d a JOIN d b ON a.user_id = b.user_id
                              AND b.day = a.day + 1
              GROUP BY 1)
        SELECT CAST(i.day AS BIGINT) AS day, i.n_inter,
               ca.n AS n_a, cb.n AS n_b,
               i.n_inter * 1000000 // (ca.n + cb.n - i.n_inter)
                   AS jaccard_ppm
        FROM i JOIN c ca ON ca.day = i.day
        JOIN c cb ON cb.day = i.day + 1
    """



def q_audio_autocorr_tracks(sf_dir: str):
    """Audio periodicity features: per track the exact zero-lag energy,
    the lag-64 autocorrelation Σ s_i·s_{i+64} and the first peak
    index (argmax |s|, first-wins) — the pitch-detection front end as
    one vectorized pass per batch. All sums are int64-exact
    (2¹⁵·2¹⁵·4096 < 2⁴³); python-int replay sidecar."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))
    LAG = 64

    def feats(t: pa.Table) -> pa.Table:
        ids = t["track_id"].to_numpy(zero_copy_only=False)
        pcm = np.stack([np.frombuffer(p, dtype=np.int16)
                        for p in t["bytes"].to_pylist()]).astype(np.int64)
        return pa.table({
            "track_id": pa.array(ids),
            "energy0": pa.array((pcm * pcm).sum(axis=1)),
            "ac_lag64": pa.array(
                (pcm[:, :-LAG] * pcm[:, LAG:]).sum(axis=1)),
            "peak_idx": pa.array(
                np.argmax(np.abs(pcm), axis=1).astype(np.int64))})

    return ds.map_batches(feats, batch_format="pyarrow", batch_size=64)



QUERIES["audio_autocorr_tracks"] = q_audio_autocorr_tracks



def _audio_autocorr_sidecar(aud: str) -> str:
    """Python-int replay for audio_autocorr_tracks. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioac_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j]]
            e0 = sum(v * v for v in s)
            ac = sum(s[i] * s[i + 64] for i in range(len(s) - 64))
            best, arg = -1, 0
            for i, v in enumerate(s):
                if abs(v) > best:
                    best, arg = abs(v), i
            rows.append({"track_id": tid, "energy0": e0,
                         "ac_lag64": ac, "peak_idx": arg})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_autocorr_sql(aud: str) -> str:
    return (f"SELECT track_id, energy0, ac_lag64, peak_idx "
            f"FROM read_parquet('{_audio_autocorr_sidecar(aud)}')")



def q_zonemap_events(sf_dir: str):
    """Zone-map / partition-stats builder: per day partition the
    min/max event_id, min/max value cents and row count — the
    metadata layer a scan planner prunes with (the write-side twin of
    pushdown_orders). One pass, day-cardinality partials, five exact
    aggregates on one shuffle."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        cents = pc.floor(pc.multiply(t["value"],
                                     pa.scalar(100.0))).cast(pa.int64())
        g = pa.table({"day": day, "eid": t["event_id"],
                      "c": cents}).group_by("day").aggregate(
            [([], "count_all"), ("eid", "min"), ("eid", "max"),
             ("c", "min"), ("c", "max")])
        return g.rename_columns(["day", "n_rows", "min_id", "max_id",
                                 "min_cents", "max_cents"])

    out = (ev.map_batches(partial, batch_format="pyarrow")
           .groupby("day")
           .aggregate(rd.aggregate.Sum("n_rows"),
                      rd.aggregate.Min("min_id"),
                      rd.aggregate.Max("max_id"),
                      rd.aggregate.Min("min_cents"),
                      rd.aggregate.Max("max_cents")))
    return _rename(out, ["day", "n_rows", "min_id", "max_id",
                         "min_cents", "max_cents"])



QUERIES["zonemap_events"] = q_zonemap_events

ORACLE_SQL["zonemap_events"] = """
        SELECT epoch_us(ts) // 86400000000 AS day,
               count(*) AS n_rows,
               min(event_id) AS min_id, max(event_id) AS max_id,
               min(CAST(floor(value * 100.0) AS BIGINT)) AS min_cents,
               max(CAST(floor(value * 100.0) AS BIGINT)) AS max_cents
        FROM events GROUP BY 1
    """



def q_user_feature_matrix(sf_dir: str):
    """Feature-store assembly: one wide per-user feature row
    (recency/frequency/monetary/diversity/sessions) merged from THREE
    differently-shaped passes — plain aggregates, a (user,type) dedup
    pass, and the sessionizer — via the tagged-union trick: every
    pass emits the full column set with zeros elsewhere, so one
    user-cardinality groupby-sum replaces three joins."""
    from battery.ops.relational import session_intervals

    COLS = ["n_events", "spend_cents", "first_day", "last_day",
            "n_types", "n_sessions"]

    def tagged(user, **vals):
        cols = {"user_id": user}
        n = len(user)
        for c in COLS:
            cols[c] = vals.get(c, pa.array(np.zeros(n, np.int64)))
        return pa.table(cols)

    ev = _read(sf_dir, "events", ["user_id", "ts", "value",
                                  "event_type"])

    def base_partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["ts"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        cents = pc.floor(pc.multiply(t["value"],
                                     pa.scalar(100.0))).cast(pa.int64())
        g = pa.table({"user_id": t["user_id"], "c": cents,
                      "d": day}).group_by("user_id").aggregate(
            [([], "count_all"), ("c", "sum"), ("d", "min"),
             ("d", "max")])
        return pa.table({"user_id": g["user_id"],
                         "n": g["count_all"].cast(pa.int64()),
                         "c": g["c_sum"], "dmin": g["d_min"],
                         "dmax": g["d_max"]})

    # min/max cannot ride the tagged sum-merge, so the base pass is
    # FULLY aggregated first — after that each user owns exactly one
    # base row and its day fields survive the union's sum untouched
    base_agg = (ev.map_batches(base_partial, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(rd.aggregate.Sum("n"), rd.aggregate.Sum("c"),
                           rd.aggregate.Min("dmin"),
                           rd.aggregate.Max("dmax")))
    base_tagged = _rename(base_agg, ["user_id", "n", "c", "dmin",
                                     "dmax"]).map_batches(
        lambda t: tagged(t["user_id"], n_events=t["n"],
                         spend_cents=t["c"], first_day=t["dmin"],
                         last_day=t["dmax"]),
        batch_format="pyarrow")

    tcode = pa.array(["view", "click", "purchase", "signup", "error"])

    def types_pass(t: pa.Table) -> pa.Table:
        ti = pc.index_in(t["event_type"], value_set=tcode).cast(pa.int64())
        k = pc.add(pc.multiply(t["user_id"], pa.scalar(8, pa.int64())),
                   ti)
        return pa.table({"k": k}).group_by("k").aggregate([])

    types = (_read(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(types_pass, batch_format="pyarrow")
             .groupby("k").count()
             .map_batches(lambda t: tagged(
                 pa.array(t["k"].to_numpy() >> 3),
                 n_types=pa.array(np.ones(len(t), np.int64))),
                 batch_format="pyarrow"))

    sess = (session_intervals(_read(sf_dir, "events",
                                    ["user_id", "ts"]))
            .map_batches(lambda t: tagged(
                t["user_id"],
                n_sessions=pa.array(np.ones(len(t), np.int64))),
                batch_format="pyarrow"))

    merged = (base_tagged.union(types).union(sess)
              .groupby("user_id").sum(COLS))
    return _rename(merged, ["user_id"] + COLS)



QUERIES["user_feature_matrix"] = q_user_feature_matrix

ORACLE_SQL["user_feature_matrix"] = """
        WITH b AS (SELECT user_id, count(*) AS n_events,
                          SUM(CAST(floor(value * 100.0) AS BIGINT))
                              AS spend_cents,
                          min(epoch_us(ts) // 86400000000) AS first_day,
                          max(epoch_us(ts) // 86400000000) AS last_day,
                          count(DISTINCT event_type) AS n_types
                   FROM events GROUP BY 1),
        s AS (SELECT user_id, epoch_us(ts) AS us,
                     CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w
                                  > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS is_new
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        ns AS (SELECT user_id, SUM(is_new) AS n_sessions
               FROM s GROUP BY 1)
        SELECT b.user_id, b.n_events, b.spend_cents,
               CAST(b.first_day AS BIGINT) AS first_day,
               CAST(b.last_day AS BIGINT) AS last_day,
               CAST(b.n_types AS BIGINT) AS n_types,
               CAST(ns.n_sessions AS BIGINT) AS n_sessions
        FROM b JOIN ns USING (user_id)
    """



def q_dict_encoding_audit(sf_dir: str):
    """Storage-layout advisor: for each low-cardinality string column
    (events.event_type, documents.lang, documents.source) the exact
    dictionary-encoding ledger — rows, distinct values, raw UTF-8
    bytes vs dictionary bytes. Distinct values + their lengths ride
    per-column dedup partials; the per-column ledger is a 3-row
    epilogue."""
    specs = [("events.event_type", "events", "event_type"),
             ("documents.lang", "documents", "lang"),
             ("documents.source", "documents", "source")]
    rows = []
    for name, table, col in specs:
        ds = _read(sf_dir, table, [col])

        def partial(t: pa.Table, _c=col) -> pa.Table:
            lens = pc.binary_length(t[_c]).cast(pa.int64())
            g = pa.table({"v": t[_c], "l": lens}).group_by("v") \
                .aggregate([([], "count_all"), ("l", "sum")])
            return pa.table({"v": g["v"],
                             "n": g["count_all"].cast(pa.int64()),
                             "raw": g["l_sum"]})

        agg = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("v").sum(["n", "raw"])).take_all()
        rows.append({
            "column": name,
            "n_rows": int(sum(r["sum(n)"] for r in agg)),
            "n_distinct": len(agg),
            "raw_bytes": int(sum(r["sum(raw)"] for r in agg)),
            "dict_bytes": int(sum(len(r["v"].encode()) for r in agg))})
    return pd.DataFrame(rows)



QUERIES["dict_encoding_audit"] = q_dict_encoding_audit

ORACLE_SQL["dict_encoding_audit"] = """
        SELECT 'events.event_type' AS column,
               count(*) AS n_rows,
               count(DISTINCT event_type) AS n_distinct,
               CAST(SUM(strlen(event_type)) AS BIGINT) AS raw_bytes,
               (SELECT CAST(SUM(strlen(v)) AS BIGINT) FROM
                (SELECT DISTINCT event_type AS v FROM events))
                   AS dict_bytes
        FROM events
        UNION ALL
        SELECT 'documents.lang', count(*), count(DISTINCT lang),
               CAST(SUM(strlen(lang)) AS BIGINT),
               (SELECT CAST(SUM(strlen(v)) AS BIGINT) FROM
                (SELECT DISTINCT lang AS v FROM documents))
        FROM documents
        UNION ALL
        SELECT 'documents.source', count(*), count(DISTINCT source),
               CAST(SUM(strlen(source)) AS BIGINT),
               (SELECT CAST(SUM(strlen(v)) AS BIGINT) FROM
                (SELECT DISTINCT source AS v FROM documents))
        FROM documents
    """



def q_tile_viewport_query(sf_dir: str):
    """Viewport (slippy-map bbox) query: filter the tile corpus to a
    literal lon/lat window BEFORE anything else moves — the payload
    column never leaves storage, rows outside the viewport never
    leave the read task — then aggregate res-12 cell counts inside
    the window. The engine-side predicate mirrors the SQL replay's
    BETWEEN literals exactly."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])
    W, E, S, N = -122.3, -122.0, 37.3, 37.6

    def part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        m = (lon >= W) & (lon <= E) & (lat >= S) & (lat <= N)
        cell = cells.encode(lon[m], lat[m], 12).view(np.int64)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n_tiles": g["count_all"].cast(pa.int64())})

    out = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("cell").sum("n_tiles"))
    return _rename(out, ["cell", "n_tiles"])



QUERIES["tile_viewport_query"] = q_tile_viewport_query



def _tile_viewport_sql(img_dir: str) -> str:
    return f"""
        SELECT {_sql_cell('lon', 'lat', 12)} AS cell,
               count(*) AS n_tiles
        FROM read_parquet('{img_dir}/part-*.parquet')
        WHERE lon BETWEEN -122.3 AND -122.0
          AND lat BETWEEN 37.3 AND 37.6
        GROUP BY 1
    """



def q_silhouette_parts_labels(sf_dir: str):
    """Clustering-quality (silhouette-style) parts: per label, the
    exact per-vector distance mass to the OWN centroid vs the NEAREST
    OTHER centroid — intra/inter cohesion the evaluation loop reads.
    Same two-phase shape as centroid_confusion (train prototypes on
    the 10⁷ lattice, broadcast, one integer matmul per batch); each
    per-vector distance is floor-divided by 10³ before summation so
    the label sums stay inside int64 at any corpus size."""
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
           .groupby("key").sum(["n", "s_q"]).take_all())
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

    def score(t: pa.Table) -> pa.Table:
        labs, mu_ = _broadcast(model_ref)
        q, d = _mat(t)
        if not len(q):
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "own_k": pa.array([], pa.int64()),
                             "other_k": pa.array([], pa.int64())})
        qq = q.astype(np.int64) * 1000
        cross = qq @ mu_.T
        dist = (qq * qq).sum(axis=1, keepdims=True) - 2 * cross \
            + (mu_ * mu_).sum(axis=1)[None, :]
        true = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        li = np.searchsorted(labs, true)
        own = dist[np.arange(len(qq)), li] // 1000
        masked = dist.copy()
        masked[np.arange(len(qq)), li] = np.iinfo(np.int64).max
        other = masked.min(axis=1) // 1000
        g = pa.table({"label": pa.array(true),
                      "own_k": pa.array(own),
                      "other_k": pa.array(other)}) \
            .group_by("label").aggregate(
                [([], "count_all"), ("own_k", "sum"),
                 ("other_k", "sum")])
        return pa.table({"label": g["label"],
                         "n": g["count_all"].cast(pa.int64()),
                         "own_k": g["own_k_sum"],
                         "other_k": g["other_k_sum"]})

    out = (emb.map_batches(score, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=65536)
           .groupby("label").sum(["n", "own_k", "other_k"]))
    return _rename(out, ["label", "n", "own_k", "other_k"])



QUERIES["silhouette_parts_labels"] = q_silhouette_parts_labels

ORACLE_SQL["silhouette_parts_labels"] = """
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
        v AS (SELECT vec_id, label,
                     SUM(CASE WHEN c_label = label
                              THEN dist2 // 1000 ELSE 0 END) AS own_k,
                     MIN(CASE WHEN c_label <> label
                              THEN dist2 END) // 1000 AS other_k
              FROM d GROUP BY 1, 2)
        SELECT CAST(label AS BIGINT) AS label, count(*) AS n,
               CAST(SUM(own_k) AS BIGINT) AS own_k,
               CAST(SUM(other_k) AS BIGINT) AS other_k
        FROM v GROUP BY 1
    """



def q_ivm_priority_revenue(sf_dir: str):
    """Incremental view maintenance with RETRACTIONS: the per-priority
    revenue view is updated by a delta batch (every 10th order's
    price +1111 cents as a REPLACE, every 500th key a fresh INSERT)
    without rescanning unchanged rows — the merged view is
    base ⊎ (−old versions) ⊎ (+new versions), three signed aggregate
    streams settled by ONE priority-cardinality groupby-sum. The
    oracle recomputes the post-merge table from scratch; equality IS
    the IVM correctness proof."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def signed(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
        pri = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        rep = k % 10 == 0
        ins = k % 500 == 0
        # base(+) ; retract old replaced(−) ; new replaced(+) ; inserts(+)
        pris = np.concatenate([pri, pri[rep], pri[rep], pri[ins]])
        cs = np.concatenate([cents, -cents[rep], cents[rep] + 1111,
                             cents[ins]])
        ns = np.concatenate([np.ones(len(k), np.int64),
                             -np.ones(int(rep.sum()), np.int64),
                             np.ones(int(rep.sum()), np.int64),
                             np.ones(int(ins.sum()), np.int64)])
        g = pa.table({"o_orderpriority": pa.array(pris),
                      "cents": pa.array(cs), "n": pa.array(ns)}) \
            .group_by("o_orderpriority").aggregate(
                [("cents", "sum"), ("n", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "revenue_cents": g["cents_sum"],
                         "n_orders": g["n_sum"]})

    out = (orders.map_batches(signed, batch_format="pyarrow")
           .groupby("o_orderpriority").sum(["revenue_cents",
                                            "n_orders"]))
    return _rename(out, ["o_orderpriority", "revenue_cents",
                         "n_orders"])



QUERIES["ivm_priority_revenue"] = q_ivm_priority_revenue

ORACLE_SQL["ivm_priority_revenue"] = """
        WITH base AS (SELECT o_orderkey, o_orderpriority,
                             CAST(floor(o_totalprice * 100.0 + 0.5)
                                  AS BIGINT) AS cents
                      FROM orders),
        merged AS (
            SELECT o_orderpriority,
                   CASE WHEN o_orderkey % 10 = 0 THEN cents + 1111
                        ELSE cents END AS cents
            FROM base
            UNION ALL
            SELECT o_orderpriority, cents FROM base
            WHERE o_orderkey % 500 = 0)
        SELECT o_orderpriority,
               CAST(SUM(cents) AS BIGINT) AS revenue_cents,
               count(*) AS n_orders
        FROM merged GROUP BY 1
    """



def q_doc_top_tokens(sf_dir: str):
    """Per-document top-3 tokens (count desc, token asc tie-break) —
    the doc-LOCAL grouped top-k that needs NO shuffle at all: every
    document's answer is complete inside its own batch, so the
    operator is embarrassingly parallel and the output is the only
    thing that moves. One lexsort per batch ranks every doc's tokens
    at once."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def topk(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc = np.repeat(t["doc_id"].to_numpy(), lens)
        keep = flat != ""
        doc, tok = doc[keep], flat[keep]
        if len(doc) == 0:  # a batch of empty documents (edge fixture)
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "token": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "rk": pa.array([], pa.int64())})
        # count per (doc, token)
        order = np.lexsort((tok, doc))
        doc, tok = doc[order], tok[order]
        new = np.r_[True, (doc[1:] != doc[:-1]) | (tok[1:] != tok[:-1])]
        gdoc, gtok = doc[new], tok[new]
        cnt = np.diff(np.r_[np.flatnonzero(new), len(doc)])
        # rank within doc by (-cnt, token): stable rank via lexsort
        o2 = np.lexsort((gtok, -cnt, gdoc))
        gd = gdoc[o2]
        starts = np.r_[True, gd[1:] != gd[:-1]]
        first = np.flatnonzero(starts)
        seg = np.cumsum(starts) - 1
        rk = np.arange(len(gd)) - first[seg]
        m = rk < 3
        return pa.table({"doc_id": pa.array(gd[m]),
                         "token": pa.array(gtok[o2][m]),
                         "cnt": pa.array(cnt[o2][m].astype(np.int64)),
                         "rk": pa.array(rk[m].astype(np.int64) + 1)})

    return docs.map_batches(topk, batch_format="pyarrow")



QUERIES["doc_top_tokens"] = q_doc_top_tokens

ORACLE_SQL["doc_top_tokens"] = """
        WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                   FROM documents),
        c AS (SELECT doc_id, t, count(*) AS cnt FROM w
              WHERE t <> '' GROUP BY 1, 2),
        r AS (SELECT doc_id, t AS token, cnt,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY cnt DESC, t) AS rk
              FROM c)
        SELECT doc_id, token, cnt, rk FROM r WHERE rk <= 3
    """



def q_above_nation_avg_customers(sf_dir: str):
    """Correlated-aggregate semi-filter: per nation, how many
    customers hold an above-nation-average balance — the EXISTS/
    scalar-subquery shape. Balances floor to exact cents; the
    comparison cents·n > Σcents runs in integers, so no float mean is
    ever formed. Two passes over the customer table: nation sums
    (25-row broadcast) then the filtered count — the fact side is
    read twice but never shuffled at row scale."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def sums(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["c_acctbal"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"nk": t["c_nationkey"].cast(pa.int64()),
                      "c": cents}).group_by("nk").aggregate(
            [([], "count_all"), ("c", "sum")])
        return pa.table({"nk": g["nk"],
                         "n": g["count_all"].cast(pa.int64()),
                         "s": g["c_sum"]})

    rows = (cust.map_batches(sums, batch_format="pyarrow")
            .groupby("nk").sum(["n", "s"])).take_all()
    rows.sort(key=lambda r: r["nk"])
    nk = np.array([r["nk"] for r in rows], dtype=np.int64)
    nn = np.array([r["sum(n)"] for r in rows], dtype=np.int64)
    ss = np.array([r["sum(s)"] for r in rows], dtype=np.int64)
    ref = ray.put((nk, nn, ss))

    def above(t: pa.Table) -> pa.Table:
        nk_, nn_, ss_ = _broadcast(ref)
        cents = pc.floor(pc.add(pc.multiply(
            t["c_acctbal"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
        k = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        i = np.searchsorted(nk_, k)
        hit = cents * nn_[i] > ss_[i]
        g = pa.table({"nk": pa.array(k),
                      "a": pa.array(hit.astype(np.int64))}) \
            .group_by("nk").aggregate([([], "count_all"), ("a", "sum")])
        return pa.table({"n_nationkey": g["nk"],
                         "n_total": g["count_all"].cast(pa.int64()),
                         "n_above": g["a_sum"]})

    out = (cust.map_batches(above, batch_format="pyarrow")
           .groupby("n_nationkey").sum(["n_total", "n_above"]))
    return _rename(out, ["n_nationkey", "n_total", "n_above"])



QUERIES["above_nation_avg_customers"] = q_above_nation_avg_customers

ORACLE_SQL["above_nation_avg_customers"] = """
        WITH c AS (SELECT CAST(c_nationkey AS BIGINT) AS nk,
                          CAST(floor(c_acctbal * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM customer),
        a AS (SELECT nk, count(*) AS n, SUM(cents) AS s
              FROM c GROUP BY 1)
        SELECT c.nk AS n_nationkey, count(*) AS n_total,
               CAST(count(*) FILTER (c.cents * a.n > a.s) AS BIGINT)
                   AS n_above
        FROM c JOIN a ON c.nk = a.nk GROUP BY 1
    """



def q_dow_seasonality_orders(sf_dir: str):
    """Day-of-week seasonality parts over order dates: counts per
    epoch-aligned weekday bucket plus the exact deviation-from-uniform
    numerators 7·n_d − N (the χ² inputs without a float division) —
    7-row partials, one shuffle."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        dow = pc.subtract(day, pc.multiply(
            pc.divide(day, pa.scalar(7, pa.int64())),
            pa.scalar(7, pa.int64())))
        g = pa.table({"dow": dow}).group_by("dow").aggregate(
            [([], "count_all")])
        return pa.table({"dow": g["dow"],
                         "n": g["count_all"].cast(pa.int64())})

    hist = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("dow").sum("n")).take_all()
    n_total = sum(r["sum(n)"] for r in hist)
    return pd.DataFrame(
        sorted(({"dow": r["dow"], "n": r["sum(n)"],
                 "dev7": 7 * r["sum(n)"] - n_total} for r in hist),
               key=lambda x: x["dow"]))



QUERIES["dow_seasonality_orders"] = q_dow_seasonality_orders

ORACLE_SQL["dow_seasonality_orders"] = """
        WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day
                   FROM orders),
        h AS (SELECT day % 7 AS dow, count(*) AS n FROM d GROUP BY 1),
        t AS (SELECT SUM(n) AS nn FROM h)
        SELECT CAST(dow AS BIGINT) AS dow, CAST(n AS BIGINT) AS n,
               CAST(7 * n - nn AS BIGINT) AS dev7
        FROM h, t
    """



def q_matryoshka_energy_labels(sf_dir: str):
    """Matryoshka (MRL) truncation audit: per label, how much of the
    embedding's squared mass lives in the first 16 dims — the exact
    integer parts of the prefix-energy ratio that decides whether
    truncated vectors are servable. Per-vector norms floor-scale by
    10³ before summation (int64-safe at any corpus size);
    label-cardinality partials."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def part(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n if n else 0
        q = np.trunc(vals.reshape(n, d).astype(np.float64)
                     * 10000.0).astype(np.int64)
        pre = (q[:, :16] * q[:, :16]).sum(axis=1) // 1000
        tot = (q * q).sum(axis=1) // 1000
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = pa.table({"label": pa.array(lab), "p": pa.array(pre),
                      "tt": pa.array(tot)}).group_by("label") \
            .aggregate([([], "count_all"), ("p", "sum"), ("tt", "sum")])
        return pa.table({"label": g["label"],
                         "n": g["count_all"].cast(pa.int64()),
                         "prefix_k": g["p_sum"], "total_k": g["tt_sum"]})

    out = (emb.map_batches(part, batch_format="pyarrow")
           .groupby("label").sum(["n", "prefix_k", "total_k"]))
    return _rename(out, ["label", "n", "prefix_k", "total_k"])



QUERIES["matryoshka_energy_labels"] = q_matryoshka_energy_labels

ORACLE_SQL["matryoshka_energy_labels"] = """
        WITH e AS (SELECT label,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q,
                          vec_id
                   FROM embeddings),
        v AS (SELECT vec_id, label,
                     SUM(CASE WHEN dim < 16 THEN q * q ELSE 0 END)
                         // 1000 AS p,
                     SUM(q * q) // 1000 AS tt
              FROM e GROUP BY 1, 2)
        SELECT CAST(label AS BIGINT) AS label, count(*) AS n,
               CAST(SUM(p) AS BIGINT) AS prefix_k,
               CAST(SUM(tt) AS BIGINT) AS total_k
        FROM v GROUP BY 1
    """



def q_trend_slope_users(sf_dir: str):
    """Recent-trend regression: per user (≥5 events), the exact
    integer least-squares slope parts over their LAST five events
    (times rebased to the window start in whole seconds, values in
    cents) — the 'is this account heating up' feature. One user
    co-partition; the five window rows come from four shifted gathers
    off each user's segment END, no per-user loop and no full LAG
    materialization."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "slope_num": pd.Series(dtype=np.int64),
                                 "slope_den": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        v = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0).astype(np.int64)
        o = np.lexsort((e, t, u))
        uu, tu, vu = u[o], t[o] // 1_000_000, v[o]
        new = np.r_[True, uu[1:] != uu[:-1]]
        first = np.flatnonzero(new)
        ends = np.r_[first[1:], len(uu)] - 1
        nn = ends - first + 1
        keep = nn >= 5
        ends = ends[keep]
        idx = ends[:, None] - np.arange(4, -1, -1)[None, :]  # (k, 5)
        tw = tu[idx]
        vw = vu[idx]
        tw = tw - tw[:, :1]
        st, sv = tw.sum(axis=1), vw.sum(axis=1)
        stv = (tw * vw).sum(axis=1)
        stt = (tw * tw).sum(axis=1)
        return pd.DataFrame({"user_id": uu[ends],
                             "slope_num": 5 * stv - st * sv,
                             "slope_den": 5 * stt - st * st})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket,
                                          batch_format="pandas"))



QUERIES["trend_slope_users"] = q_trend_slope_users

ORACLE_SQL["trend_slope_users"] = """
        WITH x AS (SELECT user_id, epoch_us(ts) // 1000000 AS tsec,
                          CAST(floor(value * 100.0) AS BIGINT) AS v,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY ts DESC, event_id DESC) AS rn,
                          count(*) OVER (PARTITION BY user_id) AS n
                   FROM events),
        w AS (SELECT user_id, tsec, v FROM x
              WHERE rn <= 5 AND n >= 5),
        r AS (SELECT user_id,
                     tsec - min(tsec) OVER (PARTITION BY user_id) AS t,
                     v
              FROM w)
        SELECT user_id,
               CAST(5 * SUM(t * v) - SUM(t) * SUM(v) AS BIGINT)
                   AS slope_num,
               CAST(5 * SUM(t * t) - SUM(t) * SUM(t) AS BIGINT)
                   AS slope_den
        FROM r GROUP BY 1
    """



def q_image_median_gray(sf_dir: str):
    """Per-image median gray level (lower median of the integer
    (r+g+b)//3 histogram) for the first 1024 images — the exact
    per-item order statistic a brightness-normalization stage keys
    on. The whole batch's histograms come from ONE bincount over
    image-offset-packed gray codes; the median is a cumsum
    searchsorted at rank (n−1)//2. Python-Counter replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class MedianStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            ids = batch["image_id"].to_numpy(zero_copy_only=False)
            out_id, out_med = [], []
            groups: dict[tuple[int, int], list[int]] = {}
            for i, (wi, hi) in enumerate(zip(ws, hs)):
                groups.setdefault((wi, hi), []).append(i)
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                k = len(slots)
                code = (np.arange(k)[:, None, None] * 256 + gray)
                hist = np.bincount(code.ravel(),
                                   minlength=k * 256).reshape(k, 256)
                cum = np.cumsum(hist, axis=1)
                npx = wi * hi
                rank = (npx - 1) // 2 + 1
                med = (cum < rank).sum(axis=1)
                out_id.append(ids[slots])
                out_med.append(med.astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "median_gray": pa.array(np.concatenate(out_med))})

    return ds.map_batches(MedianStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["image_median_gray"] = q_image_median_gray



def _image_median_sidecar(img: str, n: int = 1024) -> str:
    """Counter-replay for image_median_gray (per-image python sort +
    index vs the engine's packed bincount/cumsum). Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_imgmedian_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        meds = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            gray = (px[..., 0].astype(np.int64) + px[..., 1]
                    + px[..., 2]) // 3
            for j, slot in enumerate(m):
                vals = sorted(gray[j].ravel().tolist())
                meds[slot] = vals[(len(vals) - 1) // 2]
        out = pa.table({"image_id": ids,
                        "median_gray": pa.array(meds)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _image_median_sql(img: str) -> str:
    return (f"SELECT image_id, median_gray "
            f"FROM read_parquet('{_image_median_sidecar(img)}')")



# Corridor segment (lon/lat) and width — literals shared with the SQL
# replay; the meter-frame constants are embedded by repr so both sides
# evaluate the identical IEEE doubles.
_CORRIDOR_A = (-122.25, 37.45)

_CORRIDOR_B = (-121.95, 37.65)

_CORRIDOR_R2 = 25_000_000.0  # 5 km squared, m²



def q_tile_corridor_query(sf_dir: str):
    """Corridor query: tiles within 5 km of a literal route segment
    (the along-track buffer a transit planner draws), aggregated to
    res-12 cell counts. The clamped-projection distance runs in the
    engine's meter frame with the EXACT op order of the SQL replay
    (rx/ry → t → residual), so the d² ≤ R² boundary is bit-identical;
    the filter runs inside the read task and only surviving cell
    partials shuffle."""
    from geotile.geom import cells
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT
    from geotile.ops.tiles import read_image_table

    mx, my = meter_frame(_ANCHOR_LAT)
    ax_lon, ax_lat = _CORRIDOR_A
    dx = (_CORRIDOR_B[0] - ax_lon) * mx
    dy = (_CORRIDOR_B[1] - ax_lat) * my
    inv = 1.0 / (dx * dx + dy * dy)

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        px = (lon - ax_lon) * mx
        py = (lat - ax_lat) * my
        tt = (px * dx + py * dy) * inv
        tc = np.minimum(np.maximum(tt, 0.0), 1.0)
        ddx = px - tc * dx
        ddy = py - tc * dy
        d2 = ddx * ddx + ddy * ddy
        m = d2 <= _CORRIDOR_R2
        cell = cells.encode(lon[m], lat[m], 12).view(np.int64)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n_tiles": g["count_all"].cast(pa.int64())})

    out = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("cell").sum("n_tiles"))
    return _rename(out, ["cell", "n_tiles"])



QUERIES["tile_corridor_query"] = q_tile_corridor_query



def _tile_corridor_sql(img_dir: str) -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT

    mx, my = meter_frame(_ANCHOR_LAT)
    ax_lon, ax_lat = _CORRIDOR_A
    dx = (_CORRIDOR_B[0] - ax_lon) * mx
    dy = (_CORRIDOR_B[1] - ax_lat) * my
    inv = 1.0 / (dx * dx + dy * dy)
    return f"""
        WITH p AS (SELECT lon, lat,
                          (lon - ({ax_lon!r})) * {mx!r} AS px,
                          (lat - ({ax_lat!r})) * {my!r} AS py
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        t AS (SELECT lon, lat,
                     least(greatest((px * ({dx!r}) + py * ({dy!r}))
                                    * ({inv!r}), 0.0), 1.0) AS tc,
                     px, py
              FROM p),
        d AS (SELECT lon, lat,
                     (px - tc * ({dx!r})) * (px - tc * ({dx!r}))
                   + (py - tc * ({dy!r})) * (py - tc * ({dy!r})) AS d2
              FROM t)
        SELECT {_sql_cell('lon', 'lat', 12)} AS cell,
               count(*) AS n_tiles
        FROM d WHERE d2 <= {_CORRIDOR_R2!r}
        GROUP BY 1
    """



def q_session_entry_exit_matrix(sf_dir: str):
    """Session flow matrix: (entry event type × exit event type)
    counts over all sessions — where journeys start vs where they die.
    One user co-partition; every bucket's session boundaries, entry
    gathers and exit gathers come from ONE lexsorted pass (starts =
    user-change|gap mask, ends = next start − 1); the 5×5 histogram
    is closed-vocabulary partials."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
    GAP = 1_800_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"entry_type": pd.Series(dtype=object),
                                 "exit_type": pd.Series(dtype=object),
                                 "n_sessions":
                                     pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ty = df["event_type"].to_numpy()
        o = np.lexsort((e, t, u))
        uu, tu, tyu = u[o], t[o], ty[o]
        new = np.r_[True, (uu[1:] != uu[:-1])
                    | (np.diff(tu) > GAP)]
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(uu)] - 1
        g = pd.DataFrame({"entry_type": tyu[starts],
                          "exit_type": tyu[ends]}) \
            .groupby(["entry_type", "exit_type"], as_index=False).size()
        return g.rename(columns={"size": "n_sessions"})

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby(["entry_type", "exit_type"]).sum("n_sessions"))
    return _rename(out, ["entry_type", "exit_type", "n_sessions"])



QUERIES["session_entry_exit_matrix"] = q_session_entry_exit_matrix

ORACLE_SQL["session_entry_exit_matrix"] = """
        WITH s AS (SELECT user_id, event_id, event_type,
                          epoch_us(ts) AS us,
                          CASE WHEN lag(ts) OVER w IS NULL
                                    OR ts - lag(ts) OVER w
                                       > INTERVAL 30 MINUTE
                               THEN 1 ELSE 0 END AS is_new
                   FROM events
                   WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
        s2 AS (SELECT user_id, event_id, event_type, us,
                      SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                                        ROWS UNBOUNDED PRECEDING) AS sid
               FROM s),
        en AS (SELECT user_id, sid, event_type,
                      ROW_NUMBER() OVER (PARTITION BY user_id, sid
                          ORDER BY us, event_id) AS ra,
                      ROW_NUMBER() OVER (PARTITION BY user_id, sid
                          ORDER BY us DESC, event_id DESC) AS rz
               FROM s2)
        SELECT a.event_type AS entry_type, z.event_type AS exit_type,
               count(*) AS n_sessions
        FROM (SELECT * FROM en WHERE ra = 1) a
        JOIN (SELECT * FROM en WHERE rz = 1) z
          ON a.user_id = z.user_id AND a.sid = z.sid
        GROUP BY 1, 2
    """



def q_forecast_revenue_q6(sf_dir: str):
    """TPC-H Q6 (forecast revenue change): the pure predicate-and-sum
    scan — date year, discount band (exact on the integer percent
    lattice, no double BETWEEN hazard) and quantity cap, revenue =
    Σ floor(price·disc·10⁴+½). One pass, one row, zero shuffles
    beyond a scalar reduce."""
    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])
    LO = np.datetime64("1995-01-01", "us")
    HI = np.datetime64("1996-01-01", "us")

    def part(t: pa.Table) -> pa.Table:
        disc_pct = pc.floor(pc.add(pc.multiply(
            t["l_discount"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        keep = pc.and_(pc.and_(pc.and_(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(LO)),
            pc.less(t["l_shipdate"], pa.scalar(HI))),
            pc.greater_equal(disc_pct, pa.scalar(5))),
            pc.less_equal(disc_pct, pa.scalar(7))),
            pc.less(t["l_quantity"], pa.scalar(24.0)))
        f = t.filter(keep)
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(f["l_extendedprice"], f["l_discount"]),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        s = pc.sum(rev).as_py() or 0
        return pa.table({"revenue_e4": pa.array([s], pa.int64()),
                         "n_items": pa.array([len(f)], pa.int64())})

    df = li.map_batches(part, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({"revenue_e4": [int(df["revenue_e4"].sum())],
                         "n_items": [int(df["n_items"].sum())]})



QUERIES["forecast_revenue_q6"] = q_forecast_revenue_q6

ORACLE_SQL["forecast_revenue_q6"] = """
        SELECT CAST(COALESCE(SUM(CAST(floor(l_extendedprice
                       * l_discount * 10000.0 + 0.5) AS BIGINT)), 0)
                    AS BIGINT) AS revenue_e4,
               count(*) AS n_items
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1995-01-01'
          AND l_shipdate < TIMESTAMP '1996-01-01'
          AND CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT)
              BETWEEN 5 AND 7
          AND l_quantity < 24
    """



def q_late_shipments_q12(sf_dir: str):
    """TPC-H Q12 shape (shipping-mode audit, adapted to this schema):
    per order priority, lineitems shipped LATE (more than 90 days
    after the order date) vs on time. One bucketed co-partition join
    on orderkey (both sides fact-scale), the late/on-time split
    resolved inside the join pass — only priority-cardinality
    partials leave it. The 90-day boundary is integer day math."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                      n_buckets=16)

    def split(t: pa.Table) -> pa.Table:
        sd = pc.divide(t["l_shipdate"].cast(pa.int64()),
                       pa.scalar(86_400_000_000, pa.int64()))
        od = pc.divide(t["o_orderdate"].cast(pa.int64()),
                       pa.scalar(86_400_000_000, pa.int64()))
        late = pc.greater(pc.subtract(sd, od),
                          pa.scalar(90, pa.int64())).cast(pa.int64())
        g = pa.table({"o_orderpriority": t["o_orderpriority"],
                      "late": late}).group_by("o_orderpriority") \
            .aggregate([([], "count_all"), ("late", "sum")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "n_items": g["count_all"].cast(pa.int64()),
                         "n_late": g["late_sum"]})

    out = (j.map_batches(split, batch_format="pyarrow")
           .groupby("o_orderpriority").sum(["n_items", "n_late"]))
    return _rename(out, ["o_orderpriority", "n_items", "n_late"])



QUERIES["late_shipments_q12"] = q_late_shipments_q12

ORACLE_SQL["late_shipments_q12"] = """
        SELECT o_orderpriority, count(*) AS n_items,
               CAST(count(*) FILTER (
                   epoch_us(l_shipdate) // 86400000000
                   - epoch_us(o_orderdate) // 86400000000 > 90)
                   AS BIGINT) AS n_late
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY 1
    """



def q_priority_exists_check_q4(sf_dir: str):
    """TPC-H Q4 shape (order-priority checking): orders placed in 1995
    with AT LEAST ONE heavy lineitem (quantity ≥ 45) — the correlated
    EXISTS as a semi-join. The heavy-orderkey set is deduped per
    batch and fed through relational.semi_join (broadcast keyset with
    the co-partition fallback); counts per priority are 5-row
    partials."""
    from battery.ops.relational import semi_join

    heavy = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]) \
        .map_batches(
            lambda t: t.filter(pc.greater_equal(
                t["l_quantity"], pa.scalar(45.0)))
            .select(["l_orderkey"])
            .group_by("l_orderkey").aggregate([]),
            batch_format="pyarrow")
    LO = np.datetime64("1995-01-01", "us")
    HI = np.datetime64("1996-01-01", "us")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"]) \
        .map_batches(lambda t: t.filter(pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(LO)),
            pc.less(t["o_orderdate"], pa.scalar(HI)))),
            batch_format="pyarrow")
    sj = semi_join(orders, heavy, "o_orderkey", "l_orderkey")

    def count(t: pa.Table) -> pa.Table:
        g = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return pa.table({"o_orderpriority": g["o_orderpriority"],
                         "n_orders": g["count_all"].cast(pa.int64())})

    out = (sj.map_batches(count, batch_format="pyarrow")
           .groupby("o_orderpriority").sum("n_orders"))
    return _rename(out, ["o_orderpriority", "n_orders"])



QUERIES["priority_exists_check_q4"] = q_priority_exists_check_q4

ORACLE_SQL["priority_exists_check_q4"] = """
        SELECT o_orderpriority, count(*) AS n_orders
        FROM orders
        WHERE o_orderdate >= TIMESTAMP '1995-01-01'
          AND o_orderdate < TIMESTAMP '1996-01-01'
          AND EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_quantity >= 45)
        GROUP BY 1
    """



def q_embedding_drift_labels(sf_dir: str):
    """Embedding drift monitor: per label, the exact squared distance
    between the centroid of the EVEN-id half and the ODD-id half of
    the corpus (both on the 10⁷ lattice with the house floor rule) —
    the deploy-time check that a re-embedded shard still lands where
    the old one did. One (label, half, dim) moments pass; the drift
    epilogue is classes×dims driver math with an asserted 2⁵³
    contract."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def moments(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n if n else 0
        q = np.trunc(vals.reshape(n, d).astype(np.float64)
                     * 10000.0).astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        half = (t["vec_id"].to_numpy() % 2).astype(np.int64)
        key2 = lab * 2 + half
        order = np.argsort(key2, kind="stable")
        q, key2 = q[order], key2[order]
        start = np.flatnonzero(np.r_[True, key2[1:] != key2[:-1]])
        cnt = np.diff(np.r_[start, len(key2)])
        sums = np.add.reduceat(q, start, axis=0)
        uk = key2[start]
        key = (np.repeat(uk, d) * 4096 +
               np.tile(np.arange(d, dtype=np.int64), len(uk)))
        return pa.table({"key": pa.array(key),
                         "n": pa.array(np.repeat(cnt, d).astype(np.int64)),
                         "s_q": pa.array(sums.reshape(-1))})

    agg = (emb.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=65536)
           .groupby("key").sum(["n", "s_q"]).take_all())
    mu: dict[tuple[int, int, int], int] = {}
    ns: dict[tuple[int, int], int] = {}
    for r in agg:
        k2, dim = r["key"] // 4096, r["key"] % 4096
        lab, half = k2 // 2, k2 % 2
        s_q, n = r["sum(s_q)"], r["sum(n)"]
        assert abs(s_q) * 1000 < (1 << 53), "centroid lattice contract"
        mu[(lab, half, dim)] = int(np.floor(s_q * 1000.0 / n + 0.5))
        ns[(lab, half)] = n
    labels = sorted({l for l, _ in ns})
    dims = sorted({d for _, _, d in mu})
    rows = []
    for lab in labels:
        d2 = sum((mu.get((lab, 0, d), 0) - mu.get((lab, 1, d), 0)) ** 2
                 for d in dims)
        rows.append({"label": lab, "n_even": ns.get((lab, 0), 0),
                     "n_odd": ns.get((lab, 1), 0), "drift_d2": d2})
    return pd.DataFrame(rows)



QUERIES["embedding_drift_labels"] = q_embedding_drift_labels

ORACLE_SQL["embedding_drift_labels"] = """
        WITH e AS (SELECT vec_id % 2 AS half, label,
                          unnest(range(len(embedding))) AS dim,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        c AS (SELECT label, half, dim,
                     CAST(floor(SUM(q) * 1000.0 / count(*) + 0.5)
                          AS BIGINT) AS mu
              FROM e GROUP BY 1, 2, 3),
        n AS (SELECT label, half, count(DISTINCT dim) AS nd,
                     SUM(1) AS x FROM e GROUP BY 1, 2),
        cnt AS (SELECT label, half, count(*) AS n
                FROM (SELECT DISTINCT label, half, vec_id FROM
                      (SELECT vec_id % 2 AS half, label, vec_id
                       FROM embeddings) z) y
                GROUP BY 1, 2),
        d AS (SELECT a.label,
                     SUM((a.mu - b.mu) * (a.mu - b.mu)) AS drift_d2
              FROM c a JOIN c b ON a.label = b.label AND a.dim = b.dim
              WHERE a.half = 0 AND b.half = 1
              GROUP BY 1)
        SELECT CAST(d.label AS BIGINT) AS label,
               CAST(ce.n AS BIGINT) AS n_even,
               CAST(co.n AS BIGINT) AS n_odd,
               CAST(d.drift_d2 AS BIGINT) AS drift_d2
        FROM d
        JOIN cnt ce ON ce.label = d.label AND ce.half = 0
        JOIN cnt co ON co.label = d.label AND co.half = 1
    """



def q_promo_revenue_share_q14(sf_dir: str):
    """TPC-H Q14 (promotion effect): the share of one month's revenue
    earned by PROMO-type parts, in exact ppm. The part dimension
    broadcasts as a sorted-key bit array (searchsorted gather — no
    shuffle join); both revenue sums ride the same one-row partials,
    and the ppm division is integer, so no float ratio ever forms."""
    pk, ptype = _dim_np(sf_dir, "part", "p_partkey", ["p_type"])
    promo = ptype.astype(str) == "PROMO"
    ref = ray.put((pk, promo))
    LO = np.datetime64("1995-06-01", "us")
    HI = np.datetime64("1995-07-01", "us")

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def part_fn(t: pa.Table) -> pa.Table:
        f = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(LO)),
            pc.less(t["l_shipdate"], pa.scalar(HI))))
        pk_, promo_ = _broadcast(ref)
        k = f["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(pk_, k), len(pk_) - 1)
        hit = pk_[idx] == k
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(f["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), f["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        rev = rev[hit]
        is_promo = promo_[idx[hit]]
        return pa.table({
            "promo_e4": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_e4": pa.array([int(rev.sum())], pa.int64())})

    df = li.map_batches(part_fn, batch_format="pyarrow").to_pandas()
    promo_e4 = int(df["promo_e4"].sum())
    total_e4 = int(df["total_e4"].sum())
    return pd.DataFrame({"promo_e4": [promo_e4],
                         "total_e4": [total_e4],
                         "share_ppm": [promo_e4 * 1_000_000 // total_e4
                                       if total_e4 else 0]})



QUERIES["promo_revenue_share_q14"] = q_promo_revenue_share_q14

ORACLE_SQL["promo_revenue_share_q14"] = """
        WITH r AS (SELECT p_type,
                          CAST(floor(l_extendedprice * (1 - l_discount)
                                     * 10000.0 + 0.5) AS BIGINT) AS rev
                   FROM lineitem JOIN part ON l_partkey = p_partkey
                   WHERE l_shipdate >= TIMESTAMP '1995-06-01'
                     AND l_shipdate < TIMESTAMP '1995-07-01')
        SELECT CAST(SUM(rev) FILTER (p_type = 'PROMO') AS BIGINT)
                   AS promo_e4,
               CAST(SUM(rev) AS BIGINT) AS total_e4,
               SUM(rev) FILTER (p_type = 'PROMO') * 1000000
                   // SUM(rev) AS share_ppm
        FROM r
    """



def q_small_qty_revenue_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): revenue from
    lineitems whose quantity is below 20% of their part's average —
    the aggregate-join-back with the threshold kept INTEGER
    (5·qty·n < Σqty avoids the float mean entirely). Per-part sums
    materialize once (schema-probe law), the fact side re-joins by
    bucketed co-partition, and only a one-row partial leaves the
    filter pass."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def psum(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].cast(pa.int64())
        g = pa.table({"pk": t["l_partkey"], "q": q}).group_by("pk") \
            .aggregate([([], "count_all"), ("q", "sum")])
        return pa.table({"pk": g["pk"],
                         "n": g["count_all"].cast(pa.int64()),
                         "sq": g["q_sum"]})

    ps = (li.map_batches(psum, batch_format="pyarrow")
          .groupby("pk").sum(["n", "sq"]))
    ps = _rename(ps, ["pk", "n", "sq"]).materialize()

    j = bucketed_join(li, ps, "l_partkey", "pk", n_buckets=16)

    def small(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        sq = t["sq"].to_numpy(zero_copy_only=False)
        keep = 5 * q * n < sq
        cents = pc.floor(pc.add(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            "n_items": pa.array([int(keep.sum())], pa.int64())})

    df = j.map_batches(small, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "revenue_cents": [int(df["revenue_cents"].sum())],
        "n_items": [int(df["n_items"].sum())]})



QUERIES["small_qty_revenue_q17"] = q_small_qty_revenue_q17

ORACLE_SQL["small_qty_revenue_q17"] = """
        WITH ps AS (SELECT l_partkey AS pk, count(*) AS n,
                           SUM(CAST(l_quantity AS BIGINT)) AS sq
                    FROM lineitem GROUP BY 1)
        SELECT CAST(COALESCE(SUM(CAST(floor(l_extendedprice * 100.0
                                            + 0.5) AS BIGINT)), 0)
                    AS BIGINT) AS revenue_cents,
               count(*) AS n_items
        FROM lineitem JOIN ps ON l_partkey = pk
        WHERE 5 * CAST(l_quantity AS BIGINT) * n < sq
    """



def q_order_gap_median_hist(sf_dir: str):
    """Repeat-purchase cadence: the histogram of per-customer MEDIAN
    order gaps (lower median, days) — the grouped order statistic
    computed where the group lives. One customer co-partition; every
    customer's sorted gaps, median gather and the histogram partial
    come from one lexsorted pass per bucket. Deterministic LAG
    (day, orderkey) tie-break mirrored in the SQL replay."""
    from battery.ops.relational import _with_bucket

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey",
                                      "o_orderdate"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"median_gap": pd.Series(dtype=np.int64),
                                 "n_customers":
                                     pd.Series(dtype=np.int64)})
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000)
        o = np.lexsort((k, d, c))
        cc, dd = c[o], d[o]
        same = cc[1:] == cc[:-1]
        gaps = (dd[1:] - dd[:-1])[same]
        gc = cc[1:][same]
        if len(gaps) == 0:  # no repeat customers in this bucket
            return pd.DataFrame({"median_gap": pd.Series(dtype=np.int64),
                                 "n_customers":
                                     pd.Series(dtype=np.int64)})
        og = np.lexsort((gaps, gc))
        gc, gaps = gc[og], gaps[og]
        new = np.r_[True, gc[1:] != gc[:-1]]
        first = np.flatnonzero(new)
        cnt = np.diff(np.r_[first, len(gc)])
        med = gaps[first + (cnt - 1) // 2]
        g = pd.DataFrame({"median_gap": med}) \
            .groupby("median_gap", as_index=False).size()
        return g.rename(columns={"size": "n_customers"})

    out = (_with_bucket(orders, "o_custkey", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby("median_gap").sum("n_customers"))
    return _rename(out, ["median_gap", "n_customers"])



QUERIES["order_gap_median_hist"] = q_order_gap_median_hist

ORACLE_SQL["order_gap_median_hist"] = """
        WITH o AS (SELECT o_custkey,
                          epoch_us(o_orderdate) // 86400000000 AS day,
                          o_orderkey
                   FROM orders),
        g AS (SELECT o_custkey,
                     day - LAG(day) OVER (PARTITION BY o_custkey
                         ORDER BY day, o_orderkey) AS gap
              FROM o),
        gg AS (SELECT o_custkey, gap,
                      ROW_NUMBER() OVER (PARTITION BY o_custkey
                          ORDER BY gap) AS rn,
                      count(*) OVER (PARTITION BY o_custkey) AS n
               FROM g WHERE gap IS NOT NULL),
        m AS (SELECT o_custkey, gap AS median_gap FROM gg
              WHERE rn = (n - 1) // 2 + 1)
        SELECT CAST(median_gap AS BIGINT) AS median_gap,
               count(*) AS n_customers
        FROM m GROUP BY 1
    """



def q_disjunctive_pred_q19(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue, OR-of-ANDs): revenue from
    lineitems matching any of three (brand, size-cap, quantity-band)
    arms — the disjunctive predicate that defeats naive single-column
    pushdown. The part dimension broadcasts as TWO parallel arrays
    (brand code, size); the whole disjunction evaluates as one
    vectorized boolean expression per batch, and only a one-row
    partial leaves."""
    pk, brand_raw, size_raw = _dim_np(sf_dir, "part", "p_partkey",
                                      ["p_brand", "p_size"])
    brand = brand_raw.astype(str)
    size = size_raw.astype(np.int64, copy=False)
    ref = ray.put((pk, brand, size))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])

    def arm(brand_, size_, qty, b, smax, qlo, qhi):
        return ((brand_ == b) & (size_ <= smax)
                & (qty >= qlo) & (qty <= qhi))

    def part_fn(t: pa.Table) -> pa.Table:
        pk_, brand_, size_ = _broadcast(ref)
        k = t["l_partkey"].to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(pk_, k), len(pk_) - 1)
        hit = pk_[idx] == k
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        b, s = brand_[idx], size_[idx]
        keep = hit & (arm(b, s, qty, "Brand#1", 10, 1.0, 11.0)
                      | arm(b, s, qty, "Brand#12", 20, 10.0, 20.0)
                      | arm(b, s, qty, "Brand#23", 35, 20.0, 30.0))
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)[keep]
        return pa.table({
            "revenue_e4": pa.array([int(rev.sum())], pa.int64()),
            "n_items": pa.array([int(keep.sum())], pa.int64())})

    df = li.map_batches(part_fn, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "revenue_e4": [int(df["revenue_e4"].sum())],
        "n_items": [int(df["n_items"].sum())]})



QUERIES["disjunctive_pred_q19"] = q_disjunctive_pred_q19

ORACLE_SQL["disjunctive_pred_q19"] = """
        SELECT CAST(COALESCE(SUM(CAST(floor(l_extendedprice
                       * (1 - l_discount) * 10000.0 + 0.5)
                       AS BIGINT)), 0) AS BIGINT) AS revenue_e4,
               count(*) AS n_items
        FROM lineitem JOIN part ON l_partkey = p_partkey
        WHERE (p_brand = 'Brand#1' AND p_size <= 10
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#12' AND p_size <= 20
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#23' AND p_size <= 35
               AND l_quantity BETWEEN 20 AND 30)
    """



def q_top_supplier_q15(sf_dir: str):
    """TPC-H Q15 (top supplier): supplier(s) achieving THE maximum
    quarterly revenue — max-of-aggregate then equality-filter, the
    two-phase pattern where the second phase costs one broadcast
    scalar, not a rank. Supplier revenue partials pack on suppkey;
    the max reduces from the same materialized aggregate the filter
    reads, so the fact table is scanned exactly once."""
    LO = np.datetime64("1996-01-01", "us")
    HI = np.datetime64("1996-04-01", "us")
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        f = t.filter(pc.and_(
            pc.greater_equal(t["l_shipdate"], pa.scalar(LO)),
            pc.less(t["l_shipdate"], pa.scalar(HI))))
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(f["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), f["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"l_suppkey": f["l_suppkey"], "r": rev}) \
            .group_by("l_suppkey").aggregate([("r", "sum")])
        return pa.table({"l_suppkey": g["l_suppkey"],
                         "revenue_e4": g["r_sum"]})

    per_supp = (li.map_batches(partial, batch_format="pyarrow")
                .groupby("l_suppkey").sum("revenue_e4"))
    per_supp = _rename(per_supp,
                       ["l_suppkey", "revenue_e4"]).materialize()
    mx = int(per_supp.max("revenue_e4"))
    return per_supp.map_batches(
        lambda t: t.filter(pc.equal(t["revenue_e4"],
                                    pa.scalar(mx, pa.int64()))),
        batch_format="pyarrow")



QUERIES["top_supplier_q15"] = q_top_supplier_q15

ORACLE_SQL["top_supplier_q15"] = """
        WITH r AS (SELECT l_suppkey,
                          SUM(CAST(floor(l_extendedprice
                              * (1 - l_discount) * 10000.0 + 0.5)
                              AS BIGINT)) AS revenue_e4
                   FROM lineitem
                   WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                     AND l_shipdate < TIMESTAMP '1996-04-01'
                   GROUP BY 1)
        SELECT l_suppkey, revenue_e4 FROM r
        WHERE revenue_e4 = (SELECT max(revenue_e4) FROM r)
    """



def q_waiting_customers_q22(sf_dir: str):
    """TPC-H Q22 shape (global-market opportunity): customers with an
    above-average balance (among positive balances — the global
    scalar computed as an integer cross-multiplication) who have
    NEVER ordered (relational.anti_join), rolled up per nation. Three
    primitives compose: broadcast scalar, anti-join, small groupby —
    each keeping its own scale story."""
    from battery.ops.relational import anti_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_sum(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["c_acctbal"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        f = cents.filter(pc.greater(cents, pa.scalar(0)))
        return pa.table({
            "n": pa.array([len(f)], pa.int64()),
            "s": pa.array([pc.sum(f).as_py() or 0], pa.int64())})

    agg = cust.map_batches(pos_sum, batch_format="pyarrow").to_pandas()
    n_pos, s_pos = int(agg["n"].sum()), int(agg["s"].sum())

    rich = cust.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(pc.floor(pc.add(pc.multiply(
                t["c_acctbal"], pa.scalar(100.0)),
                pa.scalar(0.5))).cast(pa.int64()),
                pa.scalar(n_pos, pa.int64())),
            pa.scalar(s_pos, pa.int64()))),
        batch_format="pyarrow")
    CUT = np.datetime64("2000-01-01", "us")
    orders_k = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.filter(pc.greater_equal(
            t["o_orderdate"], pa.scalar(CUT)))
            .select(["o_custkey"]), batch_format="pyarrow")
    waiting = anti_join(rich, orders_k, "c_custkey", "o_custkey")

    def rollup(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["c_acctbal"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"nk": t["c_nationkey"].cast(pa.int64()),
                      "c": cents}).group_by("nk").aggregate(
            [([], "count_all"), ("c", "sum")])
        return pa.table({"n_nationkey": g["nk"],
                         "n_cust": g["count_all"].cast(pa.int64()),
                         "bal_cents": g["c_sum"]})

    out = (waiting.map_batches(rollup, batch_format="pyarrow")
           .groupby("n_nationkey").sum(["n_cust", "bal_cents"]))
    return _rename(out, ["n_nationkey", "n_cust", "bal_cents"])



QUERIES["waiting_customers_q22"] = q_waiting_customers_q22

ORACLE_SQL["waiting_customers_q22"] = """
        WITH c AS (SELECT c_custkey,
                          CAST(c_nationkey AS BIGINT) AS nk,
                          CAST(floor(c_acctbal * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM customer),
        t AS (SELECT count(*) AS n, SUM(cents) AS s FROM c
              WHERE cents > 0)
        SELECT nk AS n_nationkey, count(*) AS n_cust,
               CAST(SUM(cents) AS BIGINT) AS bal_cents
        FROM c, t
        WHERE cents * n > s
          AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                WHERE o_orderdate
                                      >= TIMESTAMP '2000-01-01')
        GROUP BY 1
    """



def q_returned_revenue_q10(sf_dir: str):
    """TPC-H Q10 shape (returned-item reporting): top-20 customers by
    revenue lost to returned lineitems in a quarter. Chain: flag+date
    filtered lineitem ⋈ date-filtered orders (bucketed, orderkey) →
    custkey revenue partials → customer name attach via broadcast →
    top-20 by per-block threshold partials + one tiny reduce — the
    global sort never happens."""
    from battery.ops.relational import bucketed_join

    LO = np.datetime64("1995-10-01", "us")
    HI = np.datetime64("1996-01-01", "us")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.filter(pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(LO)),
            pc.less(t["o_orderdate"], pa.scalar(HI))))
            .select(["o_orderkey", "o_custkey"]),
            batch_format="pyarrow")
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"]) \
        .map_batches(lambda t: t.filter(pc.equal(
            t["l_returnflag"], pa.scalar("R")))
            .drop_columns(["l_returnflag"]), batch_format="pyarrow")
    j = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                      n_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"c_custkey": t["o_custkey"], "r": rev}) \
            .group_by("c_custkey").aggregate([("r", "sum")])
        return pa.table({"c_custkey": g["c_custkey"],
                         "revenue_e4": g["r_sum"]})

    per_cust = (j.map_batches(partial, batch_format="pyarrow")
                .groupby("c_custkey").sum("revenue_e4"))
    per_cust = _rename(per_cust, ["c_custkey", "revenue_e4"])

    def topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[
            ("revenue_e4", "descending"), ("c_custkey", "ascending")])
        return t.take(idx[:20])

    return (per_cust.map_batches(topk, batch_format="pyarrow")
            .repartition(1)
            .map_batches(topk, batch_format="pyarrow"))



QUERIES["returned_revenue_q10"] = q_returned_revenue_q10

ORACLE_SQL["returned_revenue_q10"] = """
        SELECT o_custkey AS c_custkey,
               SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                              * 10000.0 + 0.5) AS BIGINT))
                   AS revenue_e4
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        WHERE l_returnflag = 'R'
          AND o_orderdate >= TIMESTAMP '1995-10-01'
          AND o_orderdate < TIMESTAMP '1996-01-01'
        GROUP BY 1
        ORDER BY revenue_e4 DESC, c_custkey LIMIT 20
    """



def q_volatility_users(sf_dir: str):
    """Per-user L1 volatility: Σ|Δcents| and max|Δ| over consecutive
    events (deterministic tie order) — the successive-difference
    roughness measure. One co-partition; the whole bucket's
    differences come from one shifted subtract with run-boundary
    masking."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                                 "n_steps": pd.Series(dtype=np.int64),
                                 "sum_abs": pd.Series(dtype=np.int64),
                                 "max_abs": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0).astype(np.int64)
        o = np.lexsort((e, t, u))
        uu, cu = u[o], c[o]
        same = uu[1:] == uu[:-1]
        d = np.abs(cu[1:] - cu[:-1])[same]
        du = uu[1:][same]
        g = pd.DataFrame({"user_id": du, "d": d}) \
            .groupby("user_id", as_index=False) \
            .agg(n_steps=("d", "size"), sum_abs=("d", "sum"),
                 max_abs=("d", "max"))
        return g

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(per_bucket,
                                          batch_format="pandas"))



QUERIES["volatility_users"] = q_volatility_users

ORACLE_SQL["volatility_users"] = """
        WITH x AS (SELECT user_id,
                          CAST(floor(value * 100.0) AS BIGINT)
                          - LAG(CAST(floor(value * 100.0) AS BIGINT))
                            OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS d
                   FROM events)
        SELECT user_id, count(*) AS n_steps,
               CAST(SUM(abs(d)) AS BIGINT) AS sum_abs,
               CAST(MAX(abs(d)) AS BIGINT) AS max_abs
        FROM x WHERE d IS NOT NULL GROUP BY 1
    """



def q_hapax_rate_sources(sf_dir: str):
    """Hapax-legomena audit per source: token occurrences whose token
    appears EXACTLY ONCE in the whole corpus — the vocabulary-tail
    health check for training data. Global token counts reduce to a
    Heaps'-bounded broadcast; each source's hapax hits then ride
    per-batch partials, so the corpus text is read twice but never
    shuffled."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(t: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern(t["text"], " "))
        w = w.filter(pc.not_equal(w, pa.scalar("")))
        g = pa.table({"token": w}).group_by("token").aggregate(
            [([], "count_all")])
        return pa.table({"token": g["token"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (docs.map_batches(toks, batch_format="pyarrow")
              .groupby("token").sum("n")).take_all()
    hapax = np.array(sorted(r["token"] for r in counts
                            if r["sum(n)"] == 1))
    ref = ray.put(hapax)

    def per_source(t: pa.Table) -> pa.Table:
        h = _broadcast(ref)
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)
        keep = flat != ""
        src, flat = src[keep], flat[keep]
        if len(h):
            i = np.minimum(np.searchsorted(h, flat), len(h) - 1)
            is_h = (h[i] == flat).astype(np.int64)
        else:
            is_h = np.zeros(len(flat), np.int64)
        g = pa.table({"source": pa.array(src),
                      "h": pa.array(is_h)}).group_by("source") \
            .aggregate([([], "count_all"), ("h", "sum")])
        return pa.table({"source": g["source"],
                         "n_tokens": g["count_all"].cast(pa.int64()),
                         "n_hapax": g["h_sum"]})

    out = (docs.map_batches(per_source, batch_format="pyarrow")
           .groupby("source").sum(["n_tokens", "n_hapax"]))
    return _rename(out, ["source", "n_tokens", "n_hapax"])



QUERIES["hapax_rate_sources"] = q_hapax_rate_sources

ORACLE_SQL["hapax_rate_sources"] = """
        WITH w AS (SELECT source,
                          unnest(string_split(text, ' ')) AS t
                   FROM documents),
        ww AS (SELECT source, t FROM w WHERE t <> ''),
        c AS (SELECT t, count(*) AS n FROM ww GROUP BY 1)
        SELECT source, count(*) AS n_tokens,
               CAST(count(*) FILTER (c.n = 1) AS BIGINT) AS n_hapax
        FROM ww JOIN c USING (t)
        GROUP BY 1
    """



def q_stream_dedup_ttl(sf_dir: str):
    """Streaming dedup with a TTL window: an event is a duplicate when
    the PREVIOUS event with the same (user, type, cents) key sits
    within one hour — the at-least-once → effectively-once filter of
    an ingestion edge. One user co-partition; the whole bucket's LAG
    over composite keys is one lexsort + shifted compare (no per-key
    state machine); per-day drop counts are calendar-bounded."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type", "value"])
    TTL = 3_600_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "n_events": pd.Series(dtype=np.int64),
                                 "n_dropped": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ty = df["event_type"].to_numpy()
        c = np.floor(df["value"].to_numpy(np.float64)
                     * 100.0).astype(np.int64)
        o = np.lexsort((e, t, c, ty, u))
        uu, tyu, cu, tu = u[o], ty[o], c[o], t[o]
        same = (uu[1:] == uu[:-1]) & (tyu[1:] == tyu[:-1]) \
            & (cu[1:] == cu[:-1])
        dup = np.r_[False, same & (tu[1:] - tu[:-1] <= TTL)]
        g = pd.DataFrame({"day": tu // 86_400_000_000,
                          "drop": dup.astype(np.int64)}) \
            .groupby("day", as_index=False) \
            .agg(n_events=("drop", "size"), n_dropped=("drop", "sum"))
        return g

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby("day").sum(["n_events", "n_dropped"]))
    return _rename(out, ["day", "n_events", "n_dropped"])



QUERIES["stream_dedup_ttl"] = q_stream_dedup_ttl

ORACLE_SQL["stream_dedup_ttl"] = """
        WITH x AS (SELECT epoch_us(ts) AS us,
                          epoch_us(ts)
                          - LAG(epoch_us(ts)) OVER (
                              PARTITION BY user_id, event_type,
                                  CAST(floor(value * 100.0) AS BIGINT)
                              ORDER BY ts, event_id) AS gap
                   FROM events)
        SELECT CAST(us // 86400000000 AS BIGINT) AS day,
               count(*) AS n_events,
               CAST(count(*) FILTER (gap IS NOT NULL
                    AND gap <= 3600000000) AS BIGINT) AS n_dropped
        FROM x GROUP BY 1
    """



def q_nation_quarter_qoq(sf_dir: str):
    """Nation × quarter revenue with quarter-over-quarter delta: the
    time-bucketed dimension rollup plus a LAG gathered by one roll of
    the (nation, quarter) aggregate — quarters are calendar-bounded,
    so the window never touches fact rows. Customer nation resolves
    through the bucketed custkey co-partition (fact-scale safe)."""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = bucketed_join(orders, cust, "o_custkey", "c_custkey",
                      n_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        q = pc.add(pc.multiply(pc.year(t["o_orderdate"]),
                               pa.scalar(4, pa.int64())),
                   pc.divide(pc.subtract(pc.month(t["o_orderdate"]),
                                         pa.scalar(1, pa.int64())),
                             pa.scalar(3, pa.int64())))
        _ = day
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"nk": t["c_nationkey"].cast(pa.int64()),
                      "q": q, "c": cents}).group_by(["nk", "q"]) \
            .aggregate([("c", "sum")])
        return pa.table({"nk": g["nk"], "q": g["q"],
                         "cents": g["c_sum"]})

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby(["nk", "q"]).sum("cents")).take_all()
    rows = sorted(agg, key=lambda r: (r["nk"], r["q"]))
    out = []
    for i, r in enumerate(rows):
        prev = rows[i - 1] if i else None
        delta = (r["sum(cents)"] - prev["sum(cents)"]
                 if prev and prev["nk"] == r["nk"]
                 and prev["q"] == r["q"] - 1 else None)
        out.append({"n_nationkey": r["nk"], "quarter": r["q"],
                    "revenue_cents": r["sum(cents)"],
                    "qoq_delta": -1 if delta is None else delta})
    return pd.DataFrame(out)



QUERIES["nation_quarter_qoq"] = q_nation_quarter_qoq

ORACLE_SQL["nation_quarter_qoq"] = """
        WITH a AS (SELECT CAST(c_nationkey AS BIGINT) AS nk,
                          CAST(EXTRACT(year FROM o_orderdate) * 4
                               + (EXTRACT(month FROM o_orderdate) - 1)
                                 // 3 AS BIGINT) AS q,
                          SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS cents
                   FROM orders JOIN customer ON o_custkey = c_custkey
                   GROUP BY 1, 2),
        d AS (SELECT nk, q, cents,
                     CASE WHEN LAG(q) OVER w = q - 1
                          THEN cents - LAG(cents) OVER w
                          ELSE -1 END AS qoq_delta
              FROM a WINDOW w AS (PARTITION BY nk ORDER BY q))
        SELECT nk AS n_nationkey, q AS quarter,
               CAST(cents AS BIGINT) AS revenue_cents,
               CAST(qoq_delta AS BIGINT) AS qoq_delta
        FROM d
    """



def q_growth_accounting_quarters(sf_dir: str):
    """Growth accounting (new / retained / resurrected): each active
    (customer, quarter) classified by that customer's PREVIOUS active
    quarter — first-ever = new, exactly-previous = retained, gap ≥ 2
    = resurrected — the product-analytics ledger. Distinct
    (cust, quarter) pairs dedup once; each customer's classification
    is one shifted compare inside a customer co-partition; quarter
    ledger rows are calendar-bounded."""
    from battery.ops.relational import _with_bucket

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def pairs(t: pa.Table) -> pa.Table:
        q = pc.add(pc.multiply(pc.year(t["o_orderdate"]),
                               pa.scalar(4, pa.int64())),
                   pc.divide(pc.subtract(pc.month(t["o_orderdate"]),
                                         pa.scalar(1, pa.int64())),
                             pa.scalar(3, pa.int64())))
        k = pc.add(pc.multiply(t["o_custkey"],
                               pa.scalar(1 << 16, pa.int64())), q)
        return pa.table({"k": k}).group_by("k").aggregate([])

    ded = (orders.map_batches(pairs, batch_format="pyarrow")
           .groupby("k").count())

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"cust": pa.array(k >> 16),
                         "q": pa.array(k & 0xFFFF)})

    cq = ded.map_batches(unpack, batch_format="pyarrow")

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"quarter": pd.Series(dtype=np.int64),
                                 "n_new": pd.Series(dtype=np.int64),
                                 "n_retained": pd.Series(dtype=np.int64),
                                 "n_resurrected":
                                     pd.Series(dtype=np.int64)})
        c = df["cust"].to_numpy(np.int64)
        q = df["q"].to_numpy(np.int64)
        o = np.lexsort((q, c))
        cc, qq = c[o], q[o]
        first = np.r_[True, cc[1:] != cc[:-1]]
        prev_q = np.r_[np.int64(0), qq[:-1]]
        retained = ~first & (qq == prev_q + 1)
        resurrected = ~first & (qq >= prev_q + 2)
        g = pd.DataFrame({"quarter": qq,
                          "n_new": first.astype(np.int64),
                          "n_retained": retained.astype(np.int64),
                          "n_resurrected":
                              resurrected.astype(np.int64)}) \
            .groupby("quarter", as_index=False).sum()
        return g

    out = (_with_bucket(cq, "cust", 32)
           .groupby("bucket").map_groups(classify,
                                         batch_format="pandas")
           .groupby("quarter").sum(["n_new", "n_retained",
                                    "n_resurrected"]))
    return _rename(out, ["quarter", "n_new", "n_retained",
                         "n_resurrected"])



QUERIES["growth_accounting_quarters"] = q_growth_accounting_quarters

ORACLE_SQL["growth_accounting_quarters"] = """
        WITH cq AS (SELECT DISTINCT o_custkey AS cust,
                           CAST(EXTRACT(year FROM o_orderdate) * 4
                                + (EXTRACT(month FROM o_orderdate) - 1)
                                  // 3 AS BIGINT) AS q
                    FROM orders),
        x AS (SELECT cust, q,
                     LAG(q) OVER (PARTITION BY cust ORDER BY q) AS pq
              FROM cq)
        SELECT q AS quarter,
               CAST(count(*) FILTER (pq IS NULL) AS BIGINT) AS n_new,
               CAST(count(*) FILTER (pq = q - 1) AS BIGINT)
                   AS n_retained,
               CAST(count(*) FILTER (pq IS NOT NULL AND pq <= q - 2)
                    AS BIGINT) AS n_resurrected
        FROM x GROUP BY 1
    """



def q_cell_dominant_stop(sf_dir: str):
    """GIS majority filter: each occupied res-10 cell's DOMINANT
    caption stop (most images; ties to the smaller stop id) — the
    categorical raster a choropleth renders. (cell, stop) count
    partials bound the shuffle; the per-cell argmax resolves inside
    a cell co-partition lexsort, never a global rank."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["caption", "lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4), pa.int64())
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = cells.encode(lon, lat, 10).view(np.int64)
        g = pa.table({"cell": pa.array(cell), "stop": stop}) \
            .group_by(["cell", "stop"]).aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"], "stop": g["stop"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (ds.map_batches(part, batch_format="pyarrow")
              .groupby(["cell", "stop"]).sum("n"))
    counts = _rename(counts, ["cell", "stop", "n"])

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"cell": pd.Series(dtype=np.int64),
                                 "stop": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        c = df["cell"].to_numpy(np.int64)
        s = df["stop"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        o = np.lexsort((s, -n, c))
        c, s, n = c[o], s[o], n[o]
        first = np.r_[True, c[1:] != c[:-1]]
        return pd.DataFrame({"cell": c[first], "stop": s[first],
                             "n": n[first]})

    from battery.ops.relational import _with_bucket

    return (_with_bucket(counts, "cell", 16)
            .groupby("bucket").map_groups(argmax,
                                          batch_format="pandas"))



QUERIES["cell_dominant_stop"] = q_cell_dominant_stop



def _cell_dominant_sql(img_dir: str) -> str:
    return f"""
        WITH c AS (SELECT {_sql_cell('lon', 'lat', 10)} AS cell,
                          CAST(string_split(caption, ' ')[5] AS BIGINT)
                              AS stop,
                          count(*) AS n
                   FROM read_parquet('{img_dir}/part-*.parquet')
                   GROUP BY 1, 2),
        r AS (SELECT cell, stop, n,
                     ROW_NUMBER() OVER (PARTITION BY cell
                         ORDER BY n DESC, stop) AS rk
              FROM c)
        SELECT cell, stop, CAST(n AS BIGINT) AS n FROM r WHERE rk = 1
    """



def q_calibration_bins_embeddings(sf_dir: str):
    """Model calibration bins: score every embedding with the
    deterministic linear model, split the corpus into ten
    equal-count bins by score rank (exact NTILE semantics over the
    order-aligned distributed row number — no sort), and report each
    bin's exact positive-label mass — the reliability-diagram input.
    Scores are int64-exact on the trunc lattice; label 'positive' is
    label ≥ 5."""
    from battery.ops.relational import global_row_number

    emb = _read(sf_dir, "embeddings", ["vec_id", "label", "embedding"])

    def score(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        n = len(col)
        if n == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        vals = col.values.to_numpy(zero_copy_only=False)
        d = len(vals) // n
        q = np.trunc(vals.reshape(n, d).astype(np.float64) * 10000.0)
        j = np.arange(d, dtype=np.int64)
        w = ((j + 1) * 2654435761 % 2001 - 1000).astype(np.float64)
        s = (q @ w).astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"vec_id": t["vec_id"],
                         "score": pa.array(s),
                         "pos": pa.array((lab >= 5).astype(np.int64))})

    scored = emb.map_batches(score, batch_format="pyarrow")

    def shift_nonneg(t: pa.Table) -> pa.Table:
        # global_row_number wants non-negative vals: |score| < 64·10⁷,
        # so a constant literal shift keeps order and stays exact
        return pa.table({"vec_id": t["vec_id"],
                         "score": pc.add(t["score"],
                                         pa.scalar(1 << 40, pa.int64())),
                         "pos": t["pos"]})

    scored = scored.map_batches(shift_nonneg,
                                batch_format="pyarrow").materialize()
    n_total = scored.count()
    ranked = global_row_number(scored, "score", "vec_id", shift=32)

    def bins(t: pa.Table) -> pa.Table:
        b = _ntile_of(t["idx"].to_numpy(), n_total, 10)
        g = pa.table({"bin": pa.array(b), "pos": t["pos"]}) \
            .group_by("bin").aggregate(
                [([], "count_all"), ("pos", "sum")])
        return pa.table({"bin": g["bin"],
                         "n": g["count_all"].cast(pa.int64()),
                         "n_pos": g["pos_sum"]})

    out = (ranked.map_batches(bins, batch_format="pyarrow")
           .groupby("bin").sum(["n", "n_pos"]))
    return _rename(out, ["bin", "n", "n_pos"])



QUERIES["calibration_bins_embeddings"] = q_calibration_bins_embeddings

ORACLE_SQL["calibration_bins_embeddings"] = """
        WITH e AS (SELECT vec_id, label,
                          unnest(range(len(embedding))) AS j,
                          CAST(trunc(CAST(unnest(embedding) AS DOUBLE)
                                     * 10000) AS BIGINT) AS q
                   FROM embeddings),
        s AS (SELECT vec_id, max(label) AS label,
                     CAST(SUM(q * ((j + 1) * 2654435761 % 2001
                                   - 1000)) AS BIGINT) AS score
              FROM e GROUP BY 1),
        r AS (SELECT vec_id, label,
                     NTILE(10) OVER (ORDER BY score, vec_id) AS bin
              FROM s)
        SELECT CAST(bin AS BIGINT) AS bin, count(*) AS n,
               CAST(count(*) FILTER (label >= 5) AS BIGINT) AS n_pos
        FROM r GROUP BY 1
    """



def q_hhi_nations(sf_dir: str):
    """Market-concentration HHI per nation: Σ(customer revenue
    share)² in ppm — the antitrust curve over the customer base.
    Exact integer parts (per-customer cents ride ONE custkey
    shuffle, nation sums a second 25-row one); the final ppm goes
    through the IEEE-double floor path that matches DuckDB
    bit-for-bit. Customer nation attaches via broadcast."""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def per_cust(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"ck": t["o_custkey"], "c": cents}) \
            .group_by("ck").aggregate([("c", "sum")])
        return pa.table({"ck": g["ck"], "c": g["c_sum"]})

    pc_rev = (orders.map_batches(per_cust, batch_format="pyarrow")
              .groupby("ck").sum("c"))
    pc_rev = _rename(pc_rev, ["ck", "c"]).materialize()

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = bucketed_join(pc_rev, cust, "ck", "c_custkey", n_buckets=16)

    def nation_parts(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        g = pa.table({"nk": t["c_nationkey"].cast(pa.int64()),
                      "s": pa.array(c), "ssq": pa.array(c * c)}) \
            .group_by("nk").aggregate(
                [([], "count_all"), ("s", "sum"), ("ssq", "sum")])
        return pa.table({"n_nationkey": g["nk"],
                         "n_cust": g["count_all"].cast(pa.int64()),
                         "sum_cents": g["s_sum"],
                         "ssq": g["ssq_sum"]})

    agg = (j.map_batches(nation_parts, batch_format="pyarrow")
           .groupby("n_nationkey").sum(["n_cust", "sum_cents",
                                        "ssq"])).take_all()
    rows = []
    for r in sorted(agg, key=lambda r: r["n_nationkey"]):
        s, ssq = r["sum(sum_cents)"], r["sum(ssq)"]
        hhi = int(np.floor(np.float64(ssq) * 1000000.0
                           / (np.float64(s) * np.float64(s)) + 0.5))
        rows.append({"n_nationkey": r["n_nationkey"],
                     "n_cust": r["sum(n_cust)"], "sum_cents": s,
                     "hhi_ppm": hhi})
    return pd.DataFrame(rows)



QUERIES["hhi_nations"] = q_hhi_nations

ORACLE_SQL["hhi_nations"] = """
        WITH pc AS (SELECT o_custkey,
                           SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                    AS BIGINT)) AS c
                    FROM orders GROUP BY 1),
        n AS (SELECT CAST(c_nationkey AS BIGINT) AS nk, pc.c
              FROM pc JOIN customer ON o_custkey = c_custkey)
        SELECT nk AS n_nationkey, count(*) AS n_cust,
               CAST(SUM(c) AS BIGINT) AS sum_cents,
               CAST(floor(CAST(SUM(c * c) AS DOUBLE) * 1000000.0
                          / (CAST(SUM(c) AS DOUBLE)
                             * CAST(SUM(c) AS DOUBLE)) + 0.5)
                    AS BIGINT) AS hhi_ppm
        FROM n GROUP BY 1
    """



def q_bigram_coverage_langs(sf_dir: str):
    """Held-out n-gram coverage: split the corpus by doc parity
    (even = train, odd = test), build the train bigram vocabulary
    once (Heaps-bounded broadcast), and measure per language how many
    test bigram occurrences the train side already knows — the OOV
    audit before an n-gram LM ships. Bigrams keep top_bigrams'
    convention (raw adjacent split tokens). Corpus text is read
    twice, shuffled never."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def bigrams_of(t: pa.Table):
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(t)), lens)
        # adjacent within the same doc
        same = doc_idx[1:] == doc_idx[:-1]
        left = flat[:-1][same]
        right = flat[1:][same]
        bg = np.char.add(np.char.add(left.astype(str), " "),
                         right.astype(str))
        return bg, doc_idx[:-1][same]

    def train_part(t: pa.Table) -> pa.Table:
        even = pc.equal(pc.bit_wise_and(t["doc_id"], pa.scalar(1)),
                        pa.scalar(0))
        f = t.filter(even)
        if len(f) == 0:
            return pa.table({"bg": pa.array([], pa.string())})
        bg, _ = bigrams_of(f)
        return pa.table({"bg": pa.array(np.unique(bg))}) \
            .group_by("bg").aggregate([])

    vocab_rows = (docs.map_batches(train_part, batch_format="pyarrow")
                  .groupby("bg").count()).take_all()
    vocab = np.array(sorted(r["bg"] for r in vocab_rows))
    ref = ray.put(vocab)

    def test_part(t: pa.Table) -> pa.Table:
        odd = pc.equal(pc.bit_wise_and(t["doc_id"], pa.scalar(1)),
                       pa.scalar(1))
        f = t.filter(odd)
        if len(f) == 0:
            return pa.table({"lang": pa.array([], pa.string()),
                             "n_bigrams": pa.array([], pa.int64()),
                             "n_covered": pa.array([], pa.int64())})
        v = _broadcast(ref)
        bg, dmap = bigrams_of(f)
        lang = f["lang"].to_numpy(zero_copy_only=False)[dmap]
        if len(v):
            i = np.minimum(np.searchsorted(v, bg), len(v) - 1)
            cov = (v[i] == bg).astype(np.int64)
        else:
            cov = np.zeros(len(bg), np.int64)
        g = pa.table({"lang": pa.array(lang),
                      "c": pa.array(cov)}).group_by("lang") \
            .aggregate([([], "count_all"), ("c", "sum")])
        return pa.table({"lang": g["lang"],
                         "n_bigrams": g["count_all"].cast(pa.int64()),
                         "n_covered": g["c_sum"]})

    out = (docs.map_batches(test_part, batch_format="pyarrow")
           .groupby("lang").sum(["n_bigrams", "n_covered"]))
    return _rename(out, ["lang", "n_bigrams", "n_covered"])



QUERIES["bigram_coverage_langs"] = q_bigram_coverage_langs

ORACLE_SQL["bigram_coverage_langs"] = """
        WITH t AS (SELECT doc_id, lang,
                          string_split(text, ' ') AS tk
                   FROM documents),
        b AS (SELECT doc_id, lang,
                     tk[CAST(u + 1 AS BIGINT)] || ' '
                     || tk[CAST(u + 2 AS BIGINT)] AS bg
              FROM t, UNNEST(range(len(tk) - 1)) s(u)
              WHERE len(tk) > 1),
        train AS (SELECT DISTINCT bg FROM b WHERE doc_id % 2 = 0)
        SELECT lang, count(*) AS n_bigrams,
               CAST(count(*) FILTER (bg IN (SELECT bg FROM train))
                    AS BIGINT) AS n_covered
        FROM b WHERE doc_id % 2 = 1
        GROUP BY 1
    """



def q_segment_octants_routes(sf_dir: str):
    """Route-bearing octant histogram: every centerline segment of
    every fixture route classified into one of eight compass octants
    using ONLY sign/magnitude compares in the meter frame (no atan2 —
    libm-free, so the SQL replay over the segments sidecar is exact
    by construction). The polyline set distributes as a segments
    dataset; partials are route×8."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                  route_polylines)

    mx, my = meter_frame(_ANCHOR_LAT)
    lines = route_polylines(_fixture_ctx())
    cols = {"route_id": [], "dx": [], "dy": []}
    for rid in sorted(lines):
        for part in lines[rid]:
            m = np.column_stack([(part[:, 0] - _ANCHOR_LON) * mx,
                                 (part[:, 1] - _ANCHOR_LAT) * my])
            cols["route_id"].extend([rid] * (len(m) - 1))
            cols["dx"].append(m[1:, 0] - m[:-1, 0])
            cols["dy"].append(m[1:, 1] - m[:-1, 1])
    segs = rd.from_arrow(pa.table({
        "route_id": pa.array(cols["route_id"], pa.string()),
        "dx": pa.array(np.concatenate(cols["dx"])),
        "dy": pa.array(np.concatenate(cols["dy"]))}))

    def octant(t: pa.Table) -> pa.Table:
        dx = t["dx"].to_numpy(zero_copy_only=False)
        dy = t["dy"].to_numpy(zero_copy_only=False)
        o = ((dy < 0).astype(np.int64) * 4
             + (dx < 0).astype(np.int64) * 2
             + (np.abs(dx) < np.abs(dy)).astype(np.int64))
        g = pa.table({"route_id": t["route_id"],
                      "octant": pa.array(o)}) \
            .group_by(["route_id", "octant"]).aggregate(
                [([], "count_all")])
        return pa.table({"route_id": g["route_id"],
                         "octant": g["octant"],
                         "n_segments": g["count_all"].cast(pa.int64())})

    out = (segs.map_batches(octant, batch_format="pyarrow")
           .groupby(["route_id", "octant"]).sum("n_segments"))
    return _rename(out, ["route_id", "octant", "n_segments"])



QUERIES["segment_octants_routes"] = q_segment_octants_routes



def _segment_octants_sql() -> str:
    return f"""
        SELECT route_id,
               CAST(CAST(dy < 0 AS INT) * 4 + CAST(dx < 0 AS INT) * 2
                    + CAST(abs(dx) < abs(dy) AS INT) AS BIGINT)
                   AS octant,
               count(*) AS n_segments
        FROM read_parquet('{_oracle_segments_path()}')
        GROUP BY 1, 2
    """



def q_unigram_l1_langs(sf_dir: str):
    """Exact distribution divergence without a single float: the L1
    distance between the en and de unigram distributions computed on
    the CROSS-SCALED integer lattice Σ|n_en·N_de − n_de·N_en| — the
    corpus-drift check between two language shards. Token counts ride
    one vocab-cardinality shuffle; the epilogue is vocab-sized.
    Domain bound: n·N < 2⁶³ holds to ~3·10⁹ tokens per shard —
    beyond that, pre-scale by gcd or move to Python ints in the
    epilogue."""
    docs = _read(sf_dir, "documents", ["lang", "text"])

    def counts(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t["lang"],
                              value_set=pa.array(["en", "de"])))
        if len(f) == 0:
            return pa.table({"token": pa.array([], pa.string()),
                             "n1": pa.array([], pa.int64()),
                             "n2": pa.array([], pa.int64())})
        lists = pc.split_pattern(f["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False)
        lang = np.repeat(f["lang"].to_numpy(zero_copy_only=False),
                         lens)
        keep = flat != ""
        flat, lang = flat[keep], lang[keep]
        is_en = (lang == "en").astype(np.int64)
        g = pa.table({"token": pa.array(flat),
                      "n1": pa.array(is_en),
                      "n2": pa.array(1 - is_en)}).group_by("token") \
            .aggregate([("n1", "sum"), ("n2", "sum")])
        return pa.table({"token": g["token"], "n1": g["n1_sum"],
                         "n2": g["n2_sum"]})

    agg = (docs.map_batches(counts, batch_format="pyarrow")
           .groupby("token").sum(["n1", "n2"])).take_all()
    n1 = np.array([r["sum(n1)"] for r in agg], dtype=np.int64)
    n2 = np.array([r["sum(n2)"] for r in agg], dtype=np.int64)
    N1, N2 = int(n1.sum()), int(n2.sum())
    l1 = int(np.abs(n1 * N2 - n2 * N1).sum())
    return pd.DataFrame({"n_en": [N1], "n_de": [N2],
                         "l1_cross": [l1]})



QUERIES["unigram_l1_langs"] = q_unigram_l1_langs

ORACLE_SQL["unigram_l1_langs"] = """
        WITH w AS (SELECT lang, unnest(string_split(text, ' ')) AS t
                   FROM documents WHERE lang IN ('en', 'de')),
        c AS (SELECT t,
                     count(*) FILTER (lang = 'en') AS n1,
                     count(*) FILTER (lang = 'de') AS n2
              FROM w WHERE t <> '' GROUP BY 1),
        tt AS (SELECT SUM(n1) AS t1, SUM(n2) AS t2 FROM c)
        SELECT CAST(any_value(t1) AS BIGINT) AS n_en,
               CAST(any_value(t2) AS BIGINT) AS n_de,
               CAST(SUM(abs(n1 * t2 - n2 * t1)) AS BIGINT) AS l1_cross
        FROM c, tt
    """



def q_business_lead_hist(sf_dir: str):
    """Business-day lead-time histogram (order date → ship date,
    weekends excluded): the calendar arithmetic runs entirely in the
    closed form bizdays = span − (G(d₂) − G(d₁)) with
    G(d) = 2·((d+4)//7) + max(0, (d+4)%7 − 5) — integer //,%,max
    only, identical in numpy and SQL, verified against a brute scan.
    One bucketed orderkey co-partition carries the pair; the
    histogram is lead-time-cardinality."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                      n_buckets=16)

    def hist(t: pa.Table) -> pa.Table:
        d2 = (t["l_shipdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000)
        d1 = (t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000)

        def G(d):
            m = d + 4
            return 2 * (m // 7) + np.maximum(0, m % 7 - 5)

        biz = (d2 - d1) - (G(d2) - G(d1))
        g = pa.table({"biz_days": pa.array(biz)}).group_by(
            "biz_days").aggregate([([], "count_all")])
        return pa.table({"biz_days": g["biz_days"],
                         "n_items": g["count_all"].cast(pa.int64())})

    out = (j.map_batches(hist, batch_format="pyarrow")
           .groupby("biz_days").sum("n_items"))
    return _rename(out, ["biz_days", "n_items"])



QUERIES["business_lead_hist"] = q_business_lead_hist

ORACLE_SQL["business_lead_hist"] = """
        WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS d1,
                          epoch_us(l_shipdate) // 86400000000 AS d2
                   FROM lineitem JOIN orders ON l_orderkey = o_orderkey)
        SELECT CAST((d2 - d1)
                    - ((2 * ((d2 + 4) // 7)
                        + greatest(0, (d2 + 4) % 7 - 5))
                       - (2 * ((d1 + 4) // 7)
                          + greatest(0, (d1 + 4) % 7 - 5)))
                    AS BIGINT) AS biz_days,
               count(*) AS n_items
        FROM d GROUP BY 1
    """



def q_transition_dwell_matrix(sf_dir: str):
    """Dwell-weighted transition matrix: for each (from-type,
    to-type) adjacent pair inside a user's stream, the count AND the
    exact total dwell microseconds spent in the from-state — the
    Markov chain with holding times. One user co-partition; pairs and
    dwells come from one shifted compare over the lexsorted bucket;
    the matrix is 5×5 partials."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"from_type": pd.Series(dtype=object),
                                 "to_type": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64),
                                 "dwell_us": pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ty = df["event_type"].to_numpy()
        o = np.lexsort((e, t, u))
        uu, tu, tyu = u[o], t[o], ty[o]
        same = uu[1:] == uu[:-1]
        g = pd.DataFrame({"from_type": tyu[:-1][same],
                          "to_type": tyu[1:][same],
                          "dwell_us": (tu[1:] - tu[:-1])[same]}) \
            .groupby(["from_type", "to_type"], as_index=False) \
            .agg(n=("dwell_us", "size"), dwell_us=("dwell_us", "sum"))
        return g

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby(["from_type", "to_type"]).sum(["n", "dwell_us"]))
    return _rename(out, ["from_type", "to_type", "n", "dwell_us"])



QUERIES["transition_dwell_matrix"] = q_transition_dwell_matrix

ORACLE_SQL["transition_dwell_matrix"] = """
        WITH s AS (SELECT user_id, event_type,
                          LEAD(event_type) OVER w AS nxt,
                          LEAD(epoch_us(ts)) OVER w - epoch_us(ts)
                              AS dwell
                   FROM events
                   WINDOW w AS (PARTITION BY user_id
                                ORDER BY ts, event_id))
        SELECT event_type AS from_type, nxt AS to_type,
               count(*) AS n, CAST(SUM(dwell) AS BIGINT) AS dwell_us
        FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
    """



def q_abc_classification_customers(sf_dir: str):
    """ABC (Pareto) classification: customers ranked by revenue
    descending, class A while the running total stays ≤ 80% of the
    grand total, B to 95%, C after — counts and revenue per class
    WITHOUT ranking a row. Equal-revenue runs split arithmetically
    (within a tied run the r-th rank's cum is base + r·c, so the
    crossing rank is one ceil-division) — the histogram scan gives
    the same counts as the per-rank window, tie order provably
    irrelevant. Thresholds compare as 5·cum vs 4·T and 20·cum vs
    19·T, all integer."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def per_cust(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"ck": t["o_custkey"], "c": cents}) \
            .group_by("ck").aggregate([("c", "sum")])
        return pa.table({"ck": g["ck"], "c": g["c_sum"]})

    rev = (orders.map_batches(per_cust, batch_format="pyarrow")
           .groupby("ck").sum("c"))

    def hist(t: pa.Table) -> pa.Table:
        g = pa.table({"c": t["sum(c)"]}).group_by("c").aggregate(
            [([], "count_all")])
        return pa.table({"c": g["c"],
                         "n": g["count_all"].cast(pa.int64())})

    rows = (rev.map_batches(hist, batch_format="pyarrow")
            .groupby("c").sum("n")).take_all()
    c = np.array([r["c"] for r in rows], dtype=np.int64)
    n = np.array([r["sum(n)"] for r in rows], dtype=np.int64)
    o = np.argsort(-c)
    c, n = c[o], n[o]
    T = int((c * n).sum())
    cum_before = np.r_[0, np.cumsum(c * n)[:-1]]
    cnt_before = np.r_[0, np.cumsum(n)[:-1]]

    def crossing(num: int, den: int) -> int:
        """# of ranks (desc order) whose running total · den ≤ num · T."""
        thresh = num * T
        full = den * (cum_before + c * n) <= thresh
        k = int(n[full].sum())
        j = int(full.sum())  # first bucket not fully inside
        if j < len(c) and den * cum_before[j] <= thresh and c[j] > 0:
            k += min(int(n[j]),
                     int((thresh - den * cum_before[j])
                         // (den * c[j])))
        return k

    a = crossing(4, 5)
    b = crossing(19, 20)
    total_n = int(n.sum())

    def rev_of(k: int) -> int:
        full = cnt_before + n <= k
        s = int((c[full] * n[full]).sum())
        j = int(full.sum())
        if j < len(c):
            s += int(c[j]) * (k - int(n[full].sum()))
        return s

    ra, rb = rev_of(a), rev_of(b)
    return pd.DataFrame([
        {"cls": "A", "n_customers": a, "revenue_cents": ra},
        {"cls": "B", "n_customers": b - a, "revenue_cents": rb - ra},
        {"cls": "C", "n_customers": total_n - b,
         "revenue_cents": T - rb}])



QUERIES["abc_classification_customers"] = q_abc_classification_customers

ORACLE_SQL["abc_classification_customers"] = """
        WITH pc AS (SELECT o_custkey,
                           SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                    AS BIGINT)) AS c
                    FROM orders GROUP BY 1),
        r AS (SELECT c,
                     SUM(c) OVER (ORDER BY c DESC, o_custkey
                                  ROWS UNBOUNDED PRECEDING) AS cum,
                     SUM(c) OVER () AS t
              FROM pc),
        k AS (SELECT c,
                     CASE WHEN 5 * cum <= 4 * t THEN 'A'
                          WHEN 20 * cum <= 19 * t THEN 'B'
                          ELSE 'C' END AS cls
              FROM r)
        SELECT cls, count(*) AS n_customers,
               CAST(SUM(c) AS BIGINT) AS revenue_cents
        FROM k GROUP BY 1
    """



_SF_VIDEO_ROWS = {"sf0.001": 32, "sf0.01": 128, "sf0.1": 512}



def _video_dir_for(sf_dir: str) -> str:
    import os
    from pathlib import Path

    from geotile.synth import make_video_table

    sf_name = Path(sf_dir).name
    n = _SF_VIDEO_ROWS.get(sf_name, 32)
    out = Path(os.environ.get("GEOTILE_CACHE",
                              "/tmp/geotile_cache")) / f"video_{sf_name}"
    make_video_table(n, out)
    return str(out)



def q_video_frame_sums(sf_dir: str):
    """Video-modality frame sampling: decode each clip's raw frame
    sequence, keep every 4th frame, emit exact integer pixel sums per
    sampled frame (ops/video.py VideoFrameStage — real actor-pool
    plumbing, honest 'rawseq' codec, NotImplementedError gate for the
    rest). Oracle: generator-replay sidecar rederives every sampled
    frame independently from synth.pixel_pattern with a python-int
    sum."""
    from battery.ops.video import VideoFrameStage, read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))
    return ds.map_batches(
        VideoFrameStage, batch_format="pyarrow", batch_size=32,
        concurrency=2,
    )



QUERIES["video_frame_sums"] = q_video_frame_sums



def _video_sums_sidecar(vid: str) -> str:
    """Generator replay for video_frame_sums: every sampled frame is
    rederived directly (clip·64 + frame index into pixel_pattern) and
    summed with python ints. Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videosums_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        rows = []
        for cid in ids.tolist():
            for f in range(0, nf, 4):
                px = _sy.pixel_pattern(
                    np.array([cid * 64 + f], np.uint64),
                    _sy.VIDEO_W, _sy.VIDEO_H)[0]
                rows.append({"clip_id": cid, "frame_idx": f,
                             "pixel_sum": int(sum(
                                 int(v) for v in px.ravel().tolist()))})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_sums_sql(vid: str) -> str:
    return (f"SELECT clip_id, frame_idx, pixel_sum "
            f"FROM read_parquet('{_video_sums_sidecar(vid)}')")



def q_supplier_mad_nations(sf_dir: str):
    """Grouped robust statistics: per nation the LOWER-median supplier
    balance and the median absolute deviation around it — two nested
    order statistics computed where the group lives (one nation
    co-partition, sorted-gather per group; no global rank). Balances
    on the exact cents lattice; the SQL replay selects both medians
    with deterministic ROW_NUMBER offsets."""
    from battery.ops.relational import _with_bucket

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey",
                                     "s_acctbal"])

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["s_acctbal"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"nk": t["s_nationkey"].cast(pa.int64()),
                         "sk": t["s_suppkey"], "c": cents})

    ds = sup.map_batches(prep, batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n_nationkey": pd.Series(dtype=np.int64),
                                 "n_supp": pd.Series(dtype=np.int64),
                                 "median_cents":
                                     pd.Series(dtype=np.int64),
                                 "mad_cents": pd.Series(dtype=np.int64)})
        rows = []
        for nk, g in df.groupby("nk"):
            c = np.sort(g["c"].to_numpy(np.int64))
            med = int(c[(len(c) - 1) // 2])
            dev = np.sort(np.abs(c - med))
            rows.append({"n_nationkey": np.int64(nk), "n_supp": len(c),
                         "median_cents": med,
                         "mad_cents": int(dev[(len(dev) - 1) // 2])})
        return pd.DataFrame(rows)

    return (_with_bucket(ds, "nk", 8)
            .groupby("bucket").map_groups(per_bucket,
                                          batch_format="pandas"))



QUERIES["supplier_mad_nations"] = q_supplier_mad_nations

ORACLE_SQL["supplier_mad_nations"] = """
        WITH c AS (SELECT CAST(s_nationkey AS BIGINT) AS nk,
                          CAST(floor(s_acctbal * 100.0 + 0.5)
                               AS BIGINT) AS c
                   FROM supplier),
        r AS (SELECT nk, c,
                     ROW_NUMBER() OVER (PARTITION BY nk ORDER BY c)
                         AS rn,
                     count(*) OVER (PARTITION BY nk) AS n
              FROM c),
        med AS (SELECT nk, c AS med, n FROM r
                WHERE rn = (n - 1) // 2 + 1),
        dev AS (SELECT c.nk, abs(c.c - med.med) AS d, med.med, med.n
                FROM c JOIN med ON c.nk = med.nk),
        r2 AS (SELECT nk, d, med, n,
                      ROW_NUMBER() OVER (PARTITION BY nk ORDER BY d)
                          AS rn
               FROM dev)
        SELECT nk AS n_nationkey, CAST(n AS BIGINT) AS n_supp,
               med AS median_cents, d AS mad_cents
        FROM r2 WHERE rn = (n - 1) // 2 + 1
    """



def q_acquisition_conversion(sf_dir: str):
    """Acquisition-channel readout: users grouped by their FIRST-ever
    event type (the acquisition touch), with exposure and conversion
    counts — first-touch × outcome in one pass. Each user's first
    event and purchase flag ride a single user-cardinality shuffle
    (argmin gather inside a user co-partition); the readout is
    5-row."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"first_type": pd.Series(dtype=object),
                                 "n_users": pd.Series(dtype=np.int64),
                                 "n_converted":
                                     pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        ty = df["event_type"].to_numpy()
        o = np.lexsort((e, t, u))
        uu, tyu = u[o], ty[o]
        first = np.r_[True, uu[1:] != uu[:-1]]
        starts = np.flatnonzero(first)
        ends = np.r_[starts[1:], len(uu)]
        conv = np.zeros(len(starts), np.int64)
        is_p = tyu == "purchase"
        cum = np.r_[0, np.cumsum(is_p)]
        conv = (cum[ends] - cum[starts] > 0).astype(np.int64)
        g = pd.DataFrame({"first_type": tyu[starts], "conv": conv}) \
            .groupby("first_type", as_index=False) \
            .agg(n_users=("conv", "size"), n_converted=("conv", "sum"))
        return g

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby("first_type").sum(["n_users", "n_converted"]))
    return _rename(out, ["first_type", "n_users", "n_converted"])



QUERIES["acquisition_conversion"] = q_acquisition_conversion

ORACLE_SQL["acquisition_conversion"] = """
        WITH f AS (SELECT user_id, event_type,
                          ROW_NUMBER() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn
                   FROM events),
        u AS (SELECT user_id, count(*) FILTER (event_type = 'purchase')
                         AS np
              FROM events GROUP BY 1)
        SELECT f.event_type AS first_type, count(*) AS n_users,
               CAST(count(*) FILTER (u.np > 0) AS BIGINT)
                   AS n_converted
        FROM f JOIN u USING (user_id)
        WHERE f.rn = 1 GROUP BY 1
    """



def q_burst_minutes_events(sf_dir: str):
    """Burst detection inputs: per day, how many one-minute windows
    carry ≥3 events and the hottest minute's count — the rate-spike
    audit before an alerting rule ships. Per-batch (minute) count
    partials (minute-cardinality, calendar-bounded), then a per-day
    epilogue over the minute histogram."""
    ev = _read(sf_dir, "events", ["ts"])

    def per_minute(t: pa.Table) -> pa.Table:
        m = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(60_000_000, pa.int64()))
        g = pa.table({"m": m}).group_by("m").aggregate(
            [([], "count_all")])
        return pa.table({"m": g["m"],
                         "n": g["count_all"].cast(pa.int64())})

    minutes = (ev.map_batches(per_minute, batch_format="pyarrow")
               .groupby("m").sum("n"))

    def per_day(t: pa.Table) -> pa.Table:
        day = pc.divide(t["m"], pa.scalar(1440, pa.int64()))
        n = t["sum(n)"]
        hot = pc.greater_equal(n, pa.scalar(3)).cast(pa.int64())
        g = pa.table({"day": day, "hot": hot, "n": n}) \
            .group_by("day").aggregate(
                [([], "count_all"), ("hot", "sum"), ("n", "max")])
        return pa.table({"day": g["day"],
                         "n_active_minutes":
                             g["count_all"].cast(pa.int64()),
                         "n_burst_minutes": g["hot_sum"],
                         "max_minute": g["n_max"]})

    out = (minutes.map_batches(per_day, batch_format="pyarrow")
           .groupby("day")
           .aggregate(rd.aggregate.Sum("n_active_minutes"),
                      rd.aggregate.Sum("n_burst_minutes"),
                      rd.aggregate.Max("max_minute")))
    return _rename(out, ["day", "n_active_minutes", "n_burst_minutes",
                         "max_minute"])



QUERIES["burst_minutes_events"] = q_burst_minutes_events

ORACLE_SQL["burst_minutes_events"] = """
        WITH m AS (SELECT epoch_us(ts) // 60000000 AS m, count(*) AS n
                   FROM events GROUP BY 1)
        SELECT CAST(m // 1440 AS BIGINT) AS day,
               count(*) AS n_active_minutes,
               CAST(count(*) FILTER (n >= 3) AS BIGINT)
                   AS n_burst_minutes,
               CAST(max(n) AS BIGINT) AS max_minute
        FROM m GROUP BY 1
    """



def q_supplier_cov_nations(sf_dir: str):
    """Cross-table grouped covariance parts: per nation, the exact
    integer moments (n, Σx, Σy, Σxy) between each supplier's account
    balance and their shipped revenue — does capital predict volume?
    Per-supplier revenue rides one suppkey shuffle; the supplier dim
    (balance, nation) attaches by sorted-key broadcast; nation moments
    are 25-row partials. x in cents, y in whole dollars so Σxy stays
    far inside int64."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def per_supp(t: pa.Table) -> pa.Table:
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(1.0)), pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"sk": t["l_suppkey"], "y": rev}) \
            .group_by("sk").aggregate([("y", "sum")])
        return pa.table({"sk": g["sk"], "y": g["y_sum"]})

    rev = (li.map_batches(per_supp, batch_format="pyarrow")
           .groupby("sk").sum("y"))
    rev = _rename(rev, ["sk", "y"])

    sk, nk_raw, bal_raw = _dim_np(sf_dir, "supplier", "s_suppkey",
                                  ["s_nationkey", "s_acctbal"])
    nk = nk_raw.astype(np.int64, copy=False)
    bal = np.floor(bal_raw * 100.0 + 0.5).astype(np.int64)
    ref = ray.put((sk, nk, bal))

    def moments(t: pa.Table) -> pa.Table:
        sk_, nk_, bal_ = _broadcast(ref)
        s = t["sk"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(sk_, s), len(sk_) - 1)
        hit = sk_[i] == s
        i, y = i[hit], y[hit]
        x = bal_[i]
        g = pa.table({"nk": pa.array(nk_[i]), "x": pa.array(x),
                      "y": pa.array(y), "xy": pa.array(x * y)}) \
            .group_by("nk").aggregate(
                [([], "count_all"), ("x", "sum"), ("y", "sum"),
                 ("xy", "sum")])
        return pa.table({"n_nationkey": g["nk"],
                         "n_supp": g["count_all"].cast(pa.int64()),
                         "sum_x": g["x_sum"], "sum_y": g["y_sum"],
                         "sum_xy": g["xy_sum"]})

    out = (rev.map_batches(moments, batch_format="pyarrow")
           .groupby("n_nationkey").sum(["n_supp", "sum_x", "sum_y",
                                        "sum_xy"]))
    return _rename(out, ["n_nationkey", "n_supp", "sum_x", "sum_y",
                         "sum_xy"])



QUERIES["supplier_cov_nations"] = q_supplier_cov_nations

ORACLE_SQL["supplier_cov_nations"] = """
        WITH r AS (SELECT l_suppkey,
                          SUM(CAST(floor(l_extendedprice
                              * (1 - l_discount) * 1.0 + 0.5)
                              AS BIGINT)) AS y
                   FROM lineitem GROUP BY 1),
        m AS (SELECT CAST(s_nationkey AS BIGINT) AS nk,
                     CAST(floor(s_acctbal * 100.0 + 0.5) AS BIGINT)
                         AS x,
                     r.y
              FROM r JOIN supplier ON l_suppkey = s_suppkey)
        SELECT nk AS n_nationkey, count(*) AS n_supp,
               CAST(SUM(x) AS BIGINT) AS sum_x,
               CAST(SUM(y) AS BIGINT) AS sum_y,
               CAST(SUM(x * y) AS BIGINT) AS sum_xy
        FROM m GROUP BY 1
    """



def q_lang_confusion_matrix(sf_dir: str):
    """Language-ID quality readout: the (stored lang × predicted
    lang) confusion matrix over the whole corpus — the eval loop
    around ops/text.lang_id run as a 25-cell aggregate instead of a
    row-level export. The scorer runs exactly once per doc inside the
    batch; only closed-vocabulary matrix partials shuffle."""
    from battery.ops.text import lang_id

    scored = lang_id(_read(sf_dir, "documents",
                           ["doc_id", "text", "lang"]))

    def matrix(t: pa.Table) -> pa.Table:
        g = t.select(["lang", "lang_pred"]) \
            .group_by(["lang", "lang_pred"]).aggregate(
                [([], "count_all")])
        return pa.table({"lang": g["lang"],
                         "lang_pred": g["lang_pred"],
                         "n": g["count_all"].cast(pa.int64())})

    out = (scored.map_batches(matrix, batch_format="pyarrow")
           .groupby(["lang", "lang_pred"]).sum("n"))
    return _rename(out, ["lang", "lang_pred", "n"])



QUERIES["lang_confusion_matrix"] = q_lang_confusion_matrix



def _lang_confusion_sql() -> str:
    return f"""
        WITH p AS ({_lang_id_sql()})
        SELECT lang, lang_pred, count(*) AS n
        FROM p GROUP BY 1, 2
    """



def q_crossmodal_pairing_audit(sf_dir: str):
    """Multimodal sample assembly audit: pair every image with an
    audio track by shared id space (image index mod track count — the
    deterministic pairing a paired-training dataset builder uses) and
    verify per track: images paired, their pixel mass, and the
    track's own sample count. The audio side is a tiny broadcast
    (track metadata only — payloads never move); the image scan
    prunes to (image_id, w, h). Track-cardinality partials."""
    import pyarrow.parquet as _pq

    from geotile.ops.tiles import read_image_table
    from geotile.synth import image_index

    aud = _audio_dir_for(sf_dir)
    at = _pq.read_table(f"{aud}/part-00000.parquet",
                        columns=["track_id", "n_samples"])
    tids = at["track_id"].to_numpy(zero_copy_only=False)
    nsamp = at["n_samples"].to_numpy(zero_copy_only=False)
    n_tracks = int(len(tids))
    ref = ray.put((np.sort(tids),
                   nsamp[np.argsort(tids)].astype(np.int64)))

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "w", "h"])

    def pair(t: pa.Table) -> pa.Table:
        idx = image_index(t["image_id"])
        track = idx % n_tracks
        px = (t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
              * t["h"].to_numpy(zero_copy_only=False))
        g = pa.table({"track_id": pa.array(track),
                      "px": pa.array(px)}).group_by("track_id") \
            .aggregate([([], "count_all"), ("px", "sum")])
        return pa.table({"track_id": g["track_id"],
                         "n_images": g["count_all"].cast(pa.int64()),
                         "sum_px": g["px_sum"]})

    agg = (ds.map_batches(pair, batch_format="pyarrow")
           .groupby("track_id").sum(["n_images", "sum_px"]))
    agg = _rename(agg, ["track_id", "n_images", "sum_px"])

    def attach(t: pa.Table) -> pa.Table:
        tids_, nsamp_ = _broadcast(ref)
        i = np.searchsorted(tids_, t["track_id"].to_numpy())
        return t.append_column("n_samples", pa.array(nsamp_[i]))

    return agg.map_batches(attach, batch_format="pyarrow")



QUERIES["crossmodal_pairing_audit"] = q_crossmodal_pairing_audit



def _crossmodal_sql(img_dir: str, aud_dir: str) -> str:
    return f"""
        WITH i AS (SELECT CAST(substr(image_id, 5) AS BIGINT) AS idx,
                          w, h
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        a AS (SELECT track_id, n_samples,
                     (SELECT count(*) FROM
                      read_parquet('{aud_dir}/part-*.parquet')) AS nt
              FROM read_parquet('{aud_dir}/part-*.parquet'))
        SELECT a.track_id, count(*) AS n_images,
               CAST(SUM(i.w * i.h) AS BIGINT) AS sum_px,
               CAST(any_value(a.n_samples) AS BIGINT) AS n_samples
        FROM i JOIN a ON i.idx % a.nt = a.track_id
        GROUP BY 1
    """



def q_diversified_topk_orders(sf_dir: str):
    """Diversified top-k (search-result dedup rule): the ten priciest
    orders subject to AT MOST TWO per customer nation. Greedy-by-rank
    is provably 'nation-rank ≤ 2, then global top-10', so the plan is
    one bucketed custkey join, per-block (nation, top-2-by-price)
    partials — 50-row bound per block — and a tiny final reduce that
    reapplies both rules. No global sort."""
    from battery.ops.relational import bucketed_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = bucketed_join(orders, cust, "o_custkey", "c_custkey",
                      n_buckets=16)

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "nk": t["c_nationkey"].cast(pa.int64()),
                         "cents": cents})

    def diversify(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy()
        nk = t["nk"].to_numpy()
        c = t["cents"].to_numpy()
        o = np.lexsort((k, -c, nk))
        nks = nk[o]
        first = np.r_[True, nks[1:] != nks[:-1]]
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        rk = np.arange(len(nks)) - starts[seg]
        keep = o[rk < 2]
        # then global top-10 among survivors
        oo = np.lexsort((k[keep], -c[keep]))[:10]
        keep = keep[oo]
        return pa.table({"o_orderkey": pa.array(k[keep]),
                         "nk": pa.array(nk[keep]),
                         "cents": pa.array(c[keep])})

    return (j.map_batches(prep, batch_format="pyarrow")
            .map_batches(diversify, batch_format="pyarrow")
            .repartition(1)
            .map_batches(diversify, batch_format="pyarrow"))



QUERIES["diversified_topk_orders"] = q_diversified_topk_orders

ORACLE_SQL["diversified_topk_orders"] = """
        WITH o AS (SELECT o_orderkey,
                          CAST(c_nationkey AS BIGINT) AS nk,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders JOIN customer ON o_custkey = c_custkey),
        r AS (SELECT o_orderkey, nk, cents,
                     ROW_NUMBER() OVER (PARTITION BY nk
                         ORDER BY cents DESC, o_orderkey) AS rn
              FROM o)
        SELECT o_orderkey, nk, cents FROM r WHERE rn <= 2
        ORDER BY cents DESC, o_orderkey LIMIT 10
    """



def q_session_gap_sweep(sf_dir: str):
    """Sessionization parameter sweep: session counts under gap
    thresholds {5, 15, 30, 60} minutes from ONE pass — every gap's
    count is n_users + #(inter-event diffs > gap), so the sweep costs
    four vectorized compares over the same diff array, not four
    sessionizations. The knee of this curve picks the production
    timeout."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    GAPS = (300, 900, 1800, 3600)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"gap_s": pd.Series(dtype=np.int64),
                                 "n_sessions":
                                     pd.Series(dtype=np.int64)})
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        t = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        o = np.lexsort((e, t, u))
        uu, tu = u[o], t[o]
        same = uu[1:] == uu[:-1]
        d = (tu[1:] - tu[:-1])[same]
        n_users = int(np.unique(uu).size)
        rows = [{"gap_s": g,
                 "n_sessions": n_users + int((d > g * 1_000_000).sum())}
                for g in GAPS]
        return pd.DataFrame(rows)

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .groupby("gap_s").sum("n_sessions"))
    return _rename(out, ["gap_s", "n_sessions"])



QUERIES["session_gap_sweep"] = q_session_gap_sweep

ORACLE_SQL["session_gap_sweep"] = """
        WITH d AS (SELECT epoch_us(ts)
                          - LAG(epoch_us(ts)) OVER (
                              PARTITION BY user_id
                              ORDER BY ts, event_id) AS gap
                   FROM events),
        u AS (SELECT count(DISTINCT user_id) AS nu FROM events)
        SELECT g.gap_s, CAST(u.nu + (SELECT count(*) FROM d
                    WHERE gap > g.gap_s * 1000000) AS BIGINT)
                   AS n_sessions
        FROM (VALUES (CAST(300 AS BIGINT)), (900), (1800), (3600))
             g(gap_s), u
    """



def q_pq_residual_energy(sf_dir: str):
    """PQ reconstruction-quality audit: per subspace, the corpus's
    total quantization residual (each vector's min centroid distance,
    truncated to the e6 lattice BEFORE summation so the int64 sum is
    order-free) — the codebook-health metric an ANN service tracks.
    Reuses the module PQ codebook; one broadcast-free vectorized pass,
    4-row partials. The generated SQL replay evaluates the identical
    distance expressions and LEAST-min."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def resid(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        vals = emb.values.to_numpy(zero_copy_only=False) \
            .astype(np.float64).reshape(len(t), 64)
        subs, sums, ns = [], [], []
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
            d = np.stack(dists, axis=1).min(axis=1)
            r = np.trunc(d * 1_000_000.0).astype(np.int64)
            subs.append(s)
            sums.append(int(r.sum()))
            ns.append(len(t))
        return pa.table({"subspace": pa.array(subs, pa.int64()),
                         "n": pa.array(ns, pa.int64()),
                         "sum_res_e6": pa.array(sums, pa.int64())})

    out = (ds.map_batches(resid, batch_format="pyarrow")
           .groupby("subspace").sum(["n", "sum_res_e6"]))
    return _rename(out, ["subspace", "n", "sum_res_e6"])



def _pq_residual_sql() -> str:
    def dist(s: int, j: int) -> str:
        terms = []
        for i in range(_PQ_SUB):
            c = repr(_PQ_CVALS[(i + j) % 4])
            e = f"CAST(embedding[{s * _PQ_SUB + i + 1}] AS DOUBLE)"
            terms.append(f"(({e}) - ({c})) * (({e}) - ({c}))")
        return " + ".join(terms)

    arms = []
    for s in range(_PQ_M):
        d = ", ".join(f"({dist(s, j)})" for j in range(_PQ_K))
        arms.append(f"""
        SELECT CAST({s} AS BIGINT) AS subspace, count(*) AS n,
               CAST(SUM(CAST(trunc(least({d}) * 1000000.0)
                             AS BIGINT)) AS BIGINT) AS sum_res_e6
        FROM embeddings""")
    return " UNION ALL ".join(arms)



QUERIES["pq_residual_energy"] = q_pq_residual_energy

ORACLE_SQL["pq_residual_energy"] = _pq_residual_sql()



def q_image_center_bias(sf_dir: str):
    """Composition audit: is the image corpus center-heavy? Per image
    the exact channel-sum mass of the four CENTER patches of the 4×4
    ViT grid vs the whole frame — stage REUSE: the same
    ImagePatchStage powers image_patch_sums; this query just folds
    its exact integer patch ledger differently (patches 5/6/9/10 vs
    all), so the oracle is a CASE re-aggregation of the same
    sidecar."""
    from geotile.ops.tiles import read_image_table

    # same 512-image prefix as image_patch_sums (shared sidecar)
    ds = read_image_table(_image_dir_for(sf_dir)).limit(512)
    patches = ds.map_batches(ImagePatchStage, batch_format="pyarrow",
                             batch_size=256, concurrency=2)

    def fold(t: pa.Table) -> pa.Table:
        p = t["patch"].to_numpy()
        center = ((p == 5) | (p == 6) | (p == 9)
                  | (p == 10)).astype(np.int64)
        s = t["sum_px"].to_numpy()
        n = t["n_px"].to_numpy()
        g = pa.table({"image_id": t["image_id"],
                      "c_sum": pa.array(center * s),
                      "c_px": pa.array(center * n),
                      "t_sum": pa.array(s), "t_px": pa.array(n)}) \
            .group_by("image_id").aggregate(
                [("c_sum", "sum"), ("c_px", "sum"), ("t_sum", "sum"),
                 ("t_px", "sum")])
        return g.rename_columns(["image_id", "center_sum", "center_px",
                                 "total_sum", "total_px"])

    out = (patches.map_batches(fold, batch_format="pyarrow")
           .groupby("image_id").sum(["center_sum", "center_px",
                                     "total_sum", "total_px"]))
    return _rename(out, ["image_id", "center_sum", "center_px",
                         "total_sum", "total_px"])



QUERIES["image_center_bias"] = q_image_center_bias



def _image_center_bias_sql(img: str) -> str:
    return f"""
        SELECT image_id,
               CAST(SUM(CASE WHEN patch IN (5, 6, 9, 10)
                             THEN sum_px ELSE 0 END) AS BIGINT)
                   AS center_sum,
               CAST(SUM(CASE WHEN patch IN (5, 6, 9, 10)
                             THEN n_px ELSE 0 END) AS BIGINT)
                   AS center_px,
               CAST(SUM(sum_px) AS BIGINT) AS total_sum,
               CAST(SUM(n_px) AS BIGINT) AS total_px
        FROM read_parquet('{_image_patch_sidecar(img)}')
        GROUP BY 1
    """



def q_stop_spacing_legs(sf_dir: str):
    """Stop-spacing profile: for every route of the GTFS fixture, each
    consecutive served-stop leg's squared meter-frame length — the
    inter-station distance table a service planner reads. Emitted
    per-LEG (never summed), so every d² is a single IEEE expression
    replayable bit-exactly from the stop-coordinate literals in the
    SQL VALUES list. Distances need no sqrt; the four routes' served
    sequences derive from their step patterns."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON
    from geotile.synth import ROUTE_DEFS, STOP_IDS, STOP_LATS, \
        STOP_LONS, _route_stop_ids

    mx, my = meter_frame(_ANCHOR_LAT)
    rows_r, rows_l, rows_d = [], [], []
    for ridx, (rid, agid, _k, step, _hs, _c, _tc) in enumerate(
            ROUTE_DEFS):
        idx = [STOP_IDS.index(s) for s in _route_stop_ids(step)]
        lon = STOP_LONS[idx]
        lat = STOP_LATS[idx]
        px = (lon - _ANCHOR_LON) * mx
        py = (lat - _ANCHOR_LAT) * my
        d2 = (px[1:] - px[:-1]) * (px[1:] - px[:-1]) \
            + (py[1:] - py[:-1]) * (py[1:] - py[:-1])
        key = f"{agid}:{rid}"
        rows_r.extend([key] * len(d2))
        rows_l.extend(range(len(d2)))
        rows_d.extend(d2.tolist())
    legs = rd.from_arrow(pa.table({
        "route_key": pa.array(rows_r, pa.string()),
        "leg": pa.array(rows_l, pa.int64()),
        "d2_m2": pa.array(rows_d, pa.float64())}))
    return legs



QUERIES["stop_spacing_legs"] = q_stop_spacing_legs



def _stop_spacing_sql() -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON
    from geotile.synth import ROUTE_DEFS, STOP_IDS, STOP_LATS, \
        STOP_LONS, _route_stop_ids

    mx, my = meter_frame(_ANCHOR_LAT)

    def dbl(v: float) -> str:
        # DuckDB parses bare decimal literals as DECIMAL and the
        # DECIMAL→DOUBLE cast double-rounds (measured 1-ulp drift);
        # a quoted-string cast goes through strtod and is correctly
        # rounded, matching Python's repr round-trip exactly
        return f"CAST('{v!r}' AS DOUBLE)"

    vals = []
    for rid, agid, _k, step, _hs, _c, _tc in ROUTE_DEFS:
        idx = [STOP_IDS.index(s) for s in _route_stop_ids(step)]
        for leg in range(len(idx) - 1):
            a, b = idx[leg], idx[leg + 1]
            vals.append(
                f"('{agid}:{rid}', {leg}, {dbl(STOP_LONS[a])},"
                f" {dbl(STOP_LATS[a])}, {dbl(STOP_LONS[b])},"
                f" {dbl(STOP_LATS[b])})")
    ax, ay, fx, fy = (dbl(_ANCHOR_LON), dbl(_ANCHOR_LAT),
                      dbl(mx), dbl(my))
    return f"""
        WITH legs(route_key, leg, lon_a, lat_a, lon_b, lat_b)
             AS (VALUES {', '.join(vals)})
        SELECT route_key, CAST(leg AS BIGINT) AS leg,
               ((lon_b - ({ax})) * {fx} - (lon_a - ({ax})) * {fx})
               * ((lon_b - ({ax})) * {fx} - (lon_a - ({ax})) * {fx})
               + ((lat_b - ({ay})) * {fy} - (lat_a - ({ay})) * {fy})
               * ((lat_b - ({ay})) * {fy} - (lat_a - ({ay})) * {fy})
                   AS d2_m2
        FROM legs
    """



def q_wallet_share_customers(sf_dir: str):
    """Wallet concentration: each customer's biggest single order as
    an exact-ppm share of their lifetime spend — the dependence risk
    metric. MAX and SUM ride the same custkey shuffle; the ppm is
    integer division (both operands positive)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"ck": t["o_custkey"], "c": cents}) \
            .group_by("ck").aggregate(
                [([], "count_all"), ("c", "sum"), ("c", "max")])
        return g.rename_columns(["ck", "n_orders", "total_cents",
                                 "max_cents"])

    agg = (orders.map_batches(partial, batch_format="pyarrow")
           .groupby("ck")
           .aggregate(rd.aggregate.Sum("n_orders"),
                      rd.aggregate.Sum("total_cents"),
                      rd.aggregate.Max("max_cents")))
    agg = _rename(agg, ["ck", "n_orders", "total_cents", "max_cents"])

    def share(t: pa.Table) -> pa.Table:
        mx = t["max_cents"].to_numpy()
        tot = t["total_cents"].to_numpy()
        return t.append_column(
            "share_ppm", pa.array(mx * 1_000_000 // tot)) \
            .rename_columns(["o_custkey", "n_orders", "total_cents",
                             "max_cents", "share_ppm"])

    return agg.map_batches(share, batch_format="pyarrow")



QUERIES["wallet_share_customers"] = q_wallet_share_customers

ORACLE_SQL["wallet_share_customers"] = """
        WITH c AS (SELECT o_custkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders)
        SELECT o_custkey, count(*) AS n_orders,
               CAST(SUM(cents) AS BIGINT) AS total_cents,
               CAST(MAX(cents) AS BIGINT) AS max_cents,
               MAX(cents) * 1000000 // SUM(cents) AS share_ppm
        FROM c GROUP BY 1
    """



def q_time_pyramid_counts(sf_dir: str):
    """Time-axis pyramid (the temporal twin of the tile zoom
    pyramid): event counts at hour, day and week grains from ONE
    encode — each coarser bucket is a division of the same epoch
    value, all three grains ride one packed-key shuffle (grain tag in
    the top bits), and the oracle derives EVERY grain independently
    from ts."""
    ev = _read(sf_dir, "events", ["ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = us // 3_600_000_000
        day = hour // 24
        week = day // 7
        k = np.concatenate([
            (np.int64(0) << 40) | hour,
            (np.int64(1) << 40) | day,
            (np.int64(2) << 40) | week])
        g = pa.table({"k": pa.array(k)}).group_by("k").aggregate(
            [([], "count_all")])
        return pa.table({"k": g["k"],
                         "n": g["count_all"].cast(pa.int64())})

    agg = (ev.map_batches(partial, batch_format="pyarrow")
           .groupby("k").sum("n"))

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"grain": pa.array(k >> 40),
                         "bucket": pa.array(k & ((1 << 40) - 1)),
                         "n_events": t["sum(n)"]})

    return agg.map_batches(unpack, batch_format="pyarrow")



QUERIES["time_pyramid_counts"] = q_time_pyramid_counts

ORACLE_SQL["time_pyramid_counts"] = """
        SELECT CAST(0 AS BIGINT) AS grain,
               epoch_us(ts) // 3600000000 AS bucket,
               count(*) AS n_events
        FROM events GROUP BY 2
        UNION ALL
        SELECT 1, epoch_us(ts) // 86400000000, count(*)
        FROM events GROUP BY 2
        UNION ALL
        SELECT 2, epoch_us(ts) // 604800000000, count(*)
        FROM events GROUP BY 2
    """



def q_route_overlap_matrix(sf_dir: str):
    """Network-redundancy matrix: for every unordered route pair, how
    many image tiles sit inside BOTH buffers — the corridor-overlap
    readout on top of the flagship spatial join. Assignments
    co-partition on the image key; each image's ≤R routes expand to
    pairs with a bounded-width shifted loop; the matrix is
    route²-cardinality partials. Oracle: the full generated PIP
    replay wrapped in a self-join."""
    from geotile.ops.join import spatial_join
    from battery.ops.relational import _with_bucket
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table
    from geotile.synth import image_index

    idx = _fixture_route_index()
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    asg = spatial_join(ds, idx).select_columns(["image_id", "route_id"])

    def with_key(t: pa.Table) -> pa.Table:
        return pa.table({"img": pa.array(image_index(t["image_id"])),
                         "route_id": t["route_id"]})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"route_a": pd.Series(dtype=object),
                                 "route_b": pd.Series(dtype=object),
                                 "n_images": pd.Series(dtype=np.int64)})
        img = df["img"].to_numpy(np.int64)
        rt = df["route_id"].to_numpy()
        o = np.lexsort((rt, img))
        img, rt = img[o], rt[o]
        new = np.r_[True, img[1:] != img[:-1]]
        first = np.flatnonzero(new)
        cnt = np.diff(np.r_[first, len(img)])
        out_a, out_b = [], []
        for w in range(1, int(cnt.max()) if len(cnt) else 0):
            has = cnt > w
            base = first[has]
            for j in range(w):
                out_a.append(rt[base + j])
                out_b.append(rt[base + w])
        if not out_a:
            return pd.DataFrame({"route_a": pd.Series(dtype=object),
                                 "route_b": pd.Series(dtype=object),
                                 "n_images": pd.Series(dtype=np.int64)})
        g = pd.DataFrame({"route_a": np.concatenate(out_a),
                          "route_b": np.concatenate(out_b)}) \
            .groupby(["route_a", "route_b"], as_index=False).size()
        return g.rename(columns={"size": "n_images"})

    keyed = asg.map_batches(with_key, batch_format="pyarrow")
    return (_with_bucket(keyed, "img", 16)
            .groupby("bucket").map_groups(pairs, batch_format="pandas")
            .groupby(["route_a", "route_b"]).sum("n_images")
            .map_batches(lambda t: t.rename_columns(
                ["route_a", "route_b", "n_images"]),
                batch_format="pyarrow"))



QUERIES["route_overlap_matrix"] = q_route_overlap_matrix



def _route_overlap_sql(sf_dir: str) -> str:
    asg = tile_oracle_sql(sf_dir)["tile_assignments"]
    return f"""
        WITH asg AS ({asg})
        SELECT a.route_id AS route_a, b.route_id AS route_b,
               count(*) AS n_images
        FROM asg a JOIN asg b
          ON a.image_id = b.image_id AND a.route_id < b.route_id
        GROUP BY 1, 2
    """



def q_dow_hour_heatmap_events(sf_dir: str):
    """Weekly activity heatmap: event counts per (epoch-aligned
    weekday, hour-of-day) — the 7×24 rhythm plot behind every ops
    dashboard. One packed-key shuffle at 168-cell cardinality."""
    ev = _read(sf_dir, "events", ["ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = us // 3_600_000_000
        day = hour // 24
        k = (day % 7) * 24 + hour % 24
        g = pa.table({"k": pa.array(k)}).group_by("k").aggregate(
            [([], "count_all")])
        return pa.table({"k": g["k"],
                         "n": g["count_all"].cast(pa.int64())})

    agg = (ev.map_batches(part, batch_format="pyarrow")
           .groupby("k").sum("n"))
    return agg.map_batches(
        lambda t: pa.table({"dow": pa.array(t["k"].to_numpy() // 24),
                            "hour": pa.array(t["k"].to_numpy() % 24),
                            "n_events": t["sum(n)"]}),
        batch_format="pyarrow")



QUERIES["dow_hour_heatmap_events"] = q_dow_hour_heatmap_events

ORACLE_SQL["dow_hour_heatmap_events"] = """
        SELECT (epoch_us(ts) // 86400000000) % 7 AS dow,
               (epoch_us(ts) // 3600000000) % 24 AS hour,
               count(*) AS n_events
        FROM events GROUP BY 1, 2
    """



def q_status_priority_crosstab(sf_dir: str):
    """Order status × priority contingency with exact independence
    deviations n·N − r·c (the χ² numerators, integer) — the orders
    twin of fmt_size_association. 15-cell partials; margins reduce
    from the same aggregate."""
    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority"])

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by(["o_orderstatus", "o_orderpriority"]) \
            .aggregate([([], "count_all")])
        return pa.table({"o_orderstatus": g["o_orderstatus"],
                         "o_orderpriority": g["o_orderpriority"],
                         "n": g["count_all"].cast(pa.int64())})

    cells = (orders.map_batches(part, batch_format="pyarrow")
             .groupby(["o_orderstatus", "o_orderpriority"])
             .sum("n")).take_all()
    tot = sum(r["sum(n)"] for r in cells)
    row = {}
    col = {}
    for r in cells:
        row[r["o_orderstatus"]] = row.get(r["o_orderstatus"], 0) \
            + r["sum(n)"]
        col[r["o_orderpriority"]] = col.get(r["o_orderpriority"], 0) \
            + r["sum(n)"]
    rows = [{"o_orderstatus": r["o_orderstatus"],
             "o_orderpriority": r["o_orderpriority"],
             "n": r["sum(n)"],
             "dev": r["sum(n)"] * tot
             - row[r["o_orderstatus"]] * col[r["o_orderpriority"]]}
            for r in cells]
    return pd.DataFrame(rows)



QUERIES["status_priority_crosstab"] = q_status_priority_crosstab

ORACLE_SQL["status_priority_crosstab"] = """
        WITH cell AS (SELECT o_orderstatus, o_orderpriority,
                             count(*) AS n
                      FROM orders GROUP BY 1, 2),
        m AS (SELECT *, SUM(n) OVER (PARTITION BY o_orderstatus) AS r,
                     SUM(n) OVER (PARTITION BY o_orderpriority) AS c,
                     SUM(n) OVER () AS nn
              FROM cell)
        SELECT o_orderstatus, o_orderpriority, CAST(n AS BIGINT) AS n,
               CAST(n * nn - r * c AS BIGINT) AS dev
        FROM m
    """



def q_nation_percentile_customers(sf_dir: str):
    """Within-group percentile rank: every customer's spend rank
    inside their OWN nation as exact ppm (rank·10⁶ // (n−1),
    deterministic custkey tie-break) — the grouped PERCENT_RANK.
    Spend rides one custkey shuffle; ranks resolve inside a nation
    co-partition lexsort (each group ranks all its members in one
    pass); single-member nations emit 0 like SQL's PERCENT_RANK."""
    from battery.ops.relational import _with_bucket, bucketed_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def per_cust(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"ck": t["o_custkey"], "c": cents}) \
            .group_by("ck").aggregate([("c", "sum")])
        return pa.table({"ck": g["ck"], "c": g["c_sum"]})

    spend = (orders.map_batches(per_cust, batch_format="pyarrow")
             .groupby("ck").sum("c"))
    spend = _rename(spend, ["ck", "c"]).materialize()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = bucketed_join(spend, cust, "ck", "c_custkey", n_buckets=16)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({"ck": t["ck"],
                         "nk": t["c_nationkey"].cast(pa.int64()),
                         "c": t["c"]})

    def ranks(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"o_custkey": pd.Series(dtype=np.int64),
                                 "n_nationkey":
                                     pd.Series(dtype=np.int64),
                                 "spend_cents":
                                     pd.Series(dtype=np.int64),
                                 "pr_ppm": pd.Series(dtype=np.int64)})
        ck = df["ck"].to_numpy(np.int64)
        nk = df["nk"].to_numpy(np.int64)
        c = df["c"].to_numpy(np.int64)
        o = np.lexsort((ck, c, nk))
        ck, nk, c = ck[o], nk[o], c[o]
        new = np.r_[True, nk[1:] != nk[:-1]]
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        n = np.diff(np.r_[first, len(nk)])[seg]
        rk = np.arange(len(nk)) - first[seg]
        pr = np.where(n > 1, rk * 1_000_000 // np.maximum(n - 1, 1), 0)
        return pd.DataFrame({"o_custkey": ck, "n_nationkey": nk,
                             "spend_cents": c,
                             "pr_ppm": pr.astype(np.int64)})

    keyed = j.map_batches(prep, batch_format="pyarrow")
    return (_with_bucket(keyed, "nk", 8)
            .groupby("bucket").map_groups(ranks, batch_format="pandas"))



QUERIES["nation_percentile_customers"] = q_nation_percentile_customers

ORACLE_SQL["nation_percentile_customers"] = """
        WITH sp AS (SELECT o_custkey,
                           SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                    AS BIGINT)) AS c
                    FROM orders GROUP BY 1),
        jj AS (SELECT o_custkey, CAST(c_nationkey AS BIGINT) AS nk, c
               FROM sp JOIN customer ON o_custkey = c_custkey),
        r AS (SELECT o_custkey, nk, c,
                     ROW_NUMBER() OVER (PARTITION BY nk
                         ORDER BY c, o_custkey) - 1 AS rk,
                     count(*) OVER (PARTITION BY nk) AS n
              FROM jj)
        SELECT o_custkey, nk AS n_nationkey, c AS spend_cents,
               CAST(CASE WHEN n > 1 THEN rk * 1000000 // (n - 1)
                         ELSE 0 END AS BIGINT) AS pr_ppm
        FROM r
    """



def q_audio_half_drift(sf_dir: str):
    """Audio stationarity audit: per track, exact frame-energy mass in
    the first half vs the second (frames 0–1 vs 2–3) — stage REUSE of
    the AudioFrameStage ledger folded along the frame axis, so the
    oracle is a CASE re-aggregation of the same replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))
    frames = ds.map_batches(AudioFrameStage, batch_format="pyarrow",
                            batch_size=64, concurrency=2)

    def fold(t: pa.Table) -> pa.Table:
        f = t["frame"].to_numpy()
        e = t["energy"].to_numpy()
        first = (f < 2).astype(np.int64)
        g = pa.table({"track_id": t["track_id"],
                      "e1": pa.array(first * e),
                      "e2": pa.array((1 - first) * e)}) \
            .group_by("track_id").aggregate(
                [("e1", "sum"), ("e2", "sum")])
        return g.rename_columns(["track_id", "first_half",
                                 "second_half"])

    out = (frames.map_batches(fold, batch_format="pyarrow")
           .groupby("track_id").sum(["first_half", "second_half"]))
    return _rename(out, ["track_id", "first_half", "second_half"])



QUERIES["audio_half_drift"] = q_audio_half_drift



def _audio_half_drift_sql(aud: str) -> str:
    return f"""
        SELECT track_id,
               CAST(SUM(CASE WHEN frame < 2 THEN energy ELSE 0 END)
                    AS BIGINT) AS first_half,
               CAST(SUM(CASE WHEN frame >= 2 THEN energy ELSE 0 END)
                    AS BIGINT) AS second_half
        FROM read_parquet('{_audio_energy_sidecar(aud)}')
        GROUP BY 1
    """



def q_lines_per_order_hist(sf_dir: str):
    """Order-size distribution: how many orders have exactly k line
    items — the Q13 twin on the lineitem edge (no zero class: every
    lineitem implies its order). Orderkey count partials → count-value
    histogram; the second aggregation is a few dozen rows at any
    scale."""
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def per_order(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey").aggregate([([], "count_all")])
        return pa.table({"k": g["l_orderkey"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (li.map_batches(per_order, batch_format="pyarrow")
              .groupby("k").sum("n"))

    def hist(t: pa.Table) -> pa.Table:
        g = pa.table({"n_lines": t["sum(n)"]}).group_by("n_lines") \
            .aggregate([([], "count_all")])
        return pa.table({"n_lines": g["n_lines"],
                         "n_orders": g["count_all"].cast(pa.int64())})

    out = (counts.map_batches(hist, batch_format="pyarrow")
           .groupby("n_lines").sum("n_orders"))
    return _rename(out, ["n_lines", "n_orders"])



QUERIES["lines_per_order_hist"] = q_lines_per_order_hist

ORACLE_SQL["lines_per_order_hist"] = """
        WITH c AS (SELECT l_orderkey, count(*) AS n
                   FROM lineitem GROUP BY 1)
        SELECT CAST(n AS BIGINT) AS n_lines, count(*) AS n_orders
        FROM c GROUP BY 1
    """



def q_stop_hull_area_parts(sf_dir: str):
    """Hull geometry parts: per caption stop, the hull vertex count
    plus twice-the-area as an ORDER-FREE integer — each directed hull
    edge contributes trunc(cross(vᵢ, vᵢ₊₁)·10⁶) and the edge SET of a
    convex hull is start-invariant, so the engine's monotone chain and
    the sidecar's Jarvis march (different starting vertex, exact
    Fraction crosses) sum to the identical int64. Same distributed
    partial-hull plan as tile_stop_hulls."""
    from geotile.geom.hull import convex_hull
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["caption", "lon", "lat"])

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

    def area_parts(df: pd.DataFrame) -> pd.DataFrame:
        ring = convex_hull(np.c_[df["lon"].to_numpy(),
                                 df["lat"].to_numpy()])
        if ring is None:
            return pd.DataFrame(
                {"stop": [np.int64(df["stop"].iloc[0])],
                 "n_hull": [np.int64(0)], "area2_e6": [np.int64(0)]})
        v = ring[:-1]
        nxt = np.roll(v, -1, axis=0)
        cross = v[:, 0] * nxt[:, 1] - v[:, 1] * nxt[:, 0]
        a2 = int(np.trunc(cross * 1_000_000.0).astype(np.int64).sum())
        return pd.DataFrame({"stop": [np.int64(df["stop"].iloc[0])],
                             "n_hull": [np.int64(len(v))],
                             "area2_e6": [np.int64(a2)]})

    return (ds.map_batches(partial_hulls, batch_format="pyarrow")
            .groupby("stop").map_groups(area_parts,
                                        batch_format="pandas"))



QUERIES["stop_hull_area_parts"] = q_stop_hull_area_parts



def _stop_hull_area_sidecar(img: str) -> str:
    """Jarvis-march replay for stop_hull_area_parts (exact Fraction
    crosses; the cyclic edge set matches the monotone chain's, so the
    truncated shoelace terms sum identically). Content-keyed."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from fractions import Fraction as F
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_stophullarea_{Path(img).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["caption", "lon", "lat"])
        stop = np.array([int(c.split(" ")[4])
                         for c in t["caption"].to_pylist()], np.int64)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)

        def jarvis_ring(pts):
            pts = sorted(set(pts))
            if len(pts) < 3:
                return None
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
                        dc = ((F(cand[0]) - F(cur[0])) ** 2
                              + (F(cand[1]) - F(cur[1])) ** 2)
                        dq = ((F(q[0]) - F(cur[0])) ** 2
                              + (F(q[1]) - F(cur[1])) ** 2)
                        if dq > dc:
                            cand = q
                cur = cand
                if cur == start:
                    return hull

        rows = []
        for s in sorted(set(stop.tolist())):
            m = stop == s
            ring = jarvis_ring(list(zip(lon[m].tolist(),
                                        lat[m].tolist())))
            if ring is None:
                rows.append({"stop": s, "n_hull": 0, "area2_e6": 0})
                continue
            # this jarvis (cr < 0 keeps the most-counterclockwise
            # candidate) already walks CCW — same orientation as the
            # engine's monotone chain, no reversal
            a2 = 0
            for (x1, y1), (x2, y2) in zip(ring,
                                          ring[1:] + ring[:1]):
                a2 += int(np.trunc((np.float64(x1) * np.float64(y2)
                                    - np.float64(y1) * np.float64(x2))
                                   * 1_000_000.0))
            rows.append({"stop": s, "n_hull": len(ring),
                         "area2_e6": a2})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _stop_hull_area_sql(img: str) -> str:
    return (f"SELECT stop, n_hull, area2_e6 "
            f"FROM read_parquet('{_stop_hull_area_sidecar(img)}')")



def q_dup_rate_sources(sf_dir: str):
    """Per-source duplication rate: docs vs distinct texts — the
    dedup-savings estimate per ingestion feed. Distinct keys are
    composite (Rabin-Karp h64, first-16-chars) exactly as
    llm_corpus_prep shards, so long texts never ride the shuffle;
    partials dedup per batch first."""
    from battery.ops.hashing import hash_strings

    docs = _read(sf_dir, "documents", ["source", "text"])

    def keys(t: pa.Table) -> pa.Table:
        h = hash_strings(t["text"]).view(np.int64)
        pref = pc.utf8_slice_codeunits(t["text"], 0, 16)
        g = pa.table({"source": t["source"], "h": pa.array(h),
                      "p": pref}).group_by(["source", "h", "p"]) \
            .aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "h": g["h"],
                         "p": g["p"],
                         "n": g["count_all"].cast(pa.int64())})

    ded = (docs.map_batches(keys, batch_format="pyarrow")
           .groupby(["source", "h", "p"]).sum("n"))

    def per_source(t: pa.Table) -> pa.Table:
        g = pa.table({"source": t["source"],
                      "n": t["sum(n)"]}).group_by("source") \
            .aggregate([([], "count_all"), ("n", "sum")])
        return pa.table({"source": g["source"],
                         "n_unique": g["count_all"].cast(pa.int64()),
                         "n_docs": g["n_sum"]})

    out = (ded.map_batches(per_source, batch_format="pyarrow")
           .groupby("source").sum(["n_unique", "n_docs"]))
    return _rename(out, ["source", "n_unique", "n_docs"])



QUERIES["dup_rate_sources"] = q_dup_rate_sources

ORACLE_SQL["dup_rate_sources"] = """
        SELECT source,
               CAST(count(DISTINCT text) AS BIGINT) AS n_unique,
               count(*) AS n_docs
        FROM documents GROUP BY 1
    """



def q_dup_degree_hist(sf_dir: str):
    """Near-dup graph degree distribution: how many docs have k
    MinHash-LSH neighbors — the fan-out audit before clustering.
    Stage REUSE of dedup.minhash_lsh_pairs; degrees come from one
    both-endpoint scatter + node groupby, the histogram from a
    degree-cardinality second pass. Oracle folds the scalar-replay
    pairs sidecar the same way."""
    from battery.ops.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.35)

    def scatter(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        g = pa.table({"node": pa.array(np.r_[a, b])}) \
            .group_by("node").aggregate([([], "count_all")])
        return pa.table({"node": g["node"],
                         "d": g["count_all"].cast(pa.int64())})

    deg = (pairs.map_batches(scatter, batch_format="pyarrow")
           .groupby("node").sum("d"))

    def hist(t: pa.Table) -> pa.Table:
        g = pa.table({"degree": t["sum(d)"]}).group_by("degree") \
            .aggregate([([], "count_all")])
        return pa.table({"degree": g["degree"],
                         "n_docs": g["count_all"].cast(pa.int64())})

    out = (deg.map_batches(hist, batch_format="pyarrow")
           .groupby("degree").sum("n_docs"))
    return _rename(out, ["degree", "n_docs"])



QUERIES["dup_degree_hist"] = q_dup_degree_hist



def _dup_degree_sql(sf_dir: str) -> str:
    return f"""
        WITH p AS (SELECT a, b
                   FROM read_parquet('{_minhash_pairs_sidecar(sf_dir)}')),
        e AS (SELECT a AS node FROM p UNION ALL SELECT b FROM p),
        d AS (SELECT node, count(*) AS degree FROM e GROUP BY 1)
        SELECT CAST(degree AS BIGINT) AS degree, count(*) AS n_docs
        FROM d GROUP BY 1
    """



def q_all_ontime_orders(sf_dir: str):
    """FOR-ALL over a join edge: orders whose EVERY lineitem shipped
    within 30 days — the NOT-EXISTS-late phrasing that reduces to a
    per-order MAX lead + threshold, never a correlated probe. One
    bucketed co-partition carries the pair; per-order max-lead
    partials collapse to priority counts."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                      n_buckets=16)

    def per_order(t: pa.Table) -> pa.Table:
        lead = pc.subtract(
            pc.divide(t["l_shipdate"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64())),
            pc.divide(t["o_orderdate"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64())))
        g = pa.table({"k": t["o_orderkey"],
                      "pri": t["o_orderpriority"], "lead": lead}) \
            .group_by(["k", "pri"]).aggregate([("lead", "max")])
        return pa.table({"k": g["k"], "pri": g["pri"],
                         "mx": g["lead_max"]})

    per = (j.map_batches(per_order, batch_format="pyarrow")
           .groupby(["k", "pri"]).max("mx"))

    def count(t: pa.Table) -> pa.Table:
        ok = pc.less_equal(t["max(mx)"], pa.scalar(30)).cast(pa.int64())
        g = pa.table({"pri": t["pri"], "ok": ok}).group_by("pri") \
            .aggregate([([], "count_all"), ("ok", "sum")])
        return pa.table({"o_orderpriority": g["pri"],
                         "n_orders": g["count_all"].cast(pa.int64()),
                         "n_all_ontime": g["ok_sum"]})

    out = (per.map_batches(count, batch_format="pyarrow")
           .groupby("o_orderpriority").sum(["n_orders",
                                            "n_all_ontime"]))
    return _rename(out, ["o_orderpriority", "n_orders",
                         "n_all_ontime"])



QUERIES["all_ontime_orders"] = q_all_ontime_orders

ORACLE_SQL["all_ontime_orders"] = """
        WITH per AS (SELECT o_orderkey, o_orderpriority,
                            MAX(epoch_us(l_shipdate) // 86400000000
                                - epoch_us(o_orderdate) // 86400000000)
                                AS mx
                     FROM lineitem
                     JOIN orders ON l_orderkey = o_orderkey
                     GROUP BY 1, 2)
        SELECT o_orderpriority, count(*) AS n_orders,
               CAST(count(*) FILTER (mx <= 30) AS BIGINT)
                   AS n_all_ontime
        FROM per GROUP BY 1
    """



def q_stop_bbox_iou_pairs(sf_dir: str):
    """BBox-overlap refinement table: for every stop pair whose
    bounding boxes intersect, the exact truncated-lattice areas of
    the intersection and both boxes — the filter-stage IoU inputs of
    a spatial join. The per-stop bbox aggregate is 30 rows; the pair
    expansion is driver-side epilogue math with each area a SINGLE
    IEEE product before truncation, mirrored verbatim in SQL."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["caption", "lon", "lat"])

    def stats(t: pa.Table) -> pa.Table:
        stop = pc.cast(pc.list_element(
            pc.split_pattern(t["caption"], " "), 4), pa.int64())
        g = pa.table({"stop": stop, "lon": t["lon"],
                      "lat": t["lat"]}).group_by("stop").aggregate(
            [("lon", "min"), ("lon", "max"), ("lat", "min"),
             ("lat", "max")])
        return g.rename_columns(["stop", "w", "e", "s", "n"])

    box = (ds.map_batches(stats, batch_format="pyarrow")
           .groupby("stop")
           .aggregate(rd.aggregate.Min("w"), rd.aggregate.Max("e"),
                      rd.aggregate.Min("s"), rd.aggregate.Max("n"))
           ).take_all()
    box.sort(key=lambda r: r["stop"])
    rows = []
    for i, a in enumerate(box):
        for b in box[i + 1:]:
            iw = min(a["max(e)"], b["max(e)"]) - max(a["min(w)"],
                                                     b["min(w)"])
            ih = min(a["max(n)"], b["max(n)"]) - max(a["min(s)"],
                                                     b["min(s)"])
            if iw <= 0.0 or ih <= 0.0:
                continue
            rows.append({
                "stop_a": a["stop"], "stop_b": b["stop"],
                "inter_e6": int(np.trunc(np.float64(iw)
                                         * np.float64(ih)
                                         * 1_000_000.0)),
                "area_a_e6": int(np.trunc(
                    np.float64(a["max(e)"] - a["min(w)"])
                    * np.float64(a["max(n)"] - a["min(s)"])
                    * 1_000_000.0)),
                "area_b_e6": int(np.trunc(
                    np.float64(b["max(e)"] - b["min(w)"])
                    * np.float64(b["max(n)"] - b["min(s)"])
                    * 1_000_000.0))})
    return pd.DataFrame(rows)



QUERIES["stop_bbox_iou_pairs"] = q_stop_bbox_iou_pairs



def _stop_bbox_iou_sql(img_dir: str) -> str:
    return f"""
        WITH b AS (SELECT CAST(string_split(caption, ' ')[5] AS BIGINT)
                              AS stop,
                          min(lon) AS w, max(lon) AS e,
                          min(lat) AS s, max(lat) AS n
                   FROM read_parquet('{img_dir}/part-*.parquet')
                   GROUP BY 1)
        SELECT a.stop AS stop_a, c.stop AS stop_b,
               CAST(trunc((least(a.e, c.e) - greatest(a.w, c.w))
                          * (least(a.n, c.n) - greatest(a.s, c.s))
                          * 1000000.0) AS BIGINT) AS inter_e6,
               CAST(trunc((a.e - a.w) * (a.n - a.s) * 1000000.0)
                    AS BIGINT) AS area_a_e6,
               CAST(trunc((c.e - c.w) * (c.n - c.s) * 1000000.0)
                    AS BIGINT) AS area_b_e6
        FROM b a JOIN b c ON a.stop < c.stop
        WHERE least(a.e, c.e) - greatest(a.w, c.w) > 0.0
          AND least(a.n, c.n) - greatest(a.s, c.s) > 0.0
    """



def q_source_trigram_affinity(sf_dir: str):
    """Character-trigram profile affinity between two fixed
    sources (src0 vs src1): exact integer cosine PARTS — dot product and
    both squared norms of the trigram count vectors. (source,
    trigram) counts ride one vocabulary-bounded shuffle; the dot is a
    sorted-merge over the two count maps. No float ever forms; the
    epilogue emits three ints."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def counts(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t["source"],
                              value_set=pa.array(["src0", "src1"])))
        if len(f) == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "tg": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        src = f["source"].to_numpy(zero_copy_only=False)
        txt = f["text"].to_numpy(zero_copy_only=False)
        ss, gs = [], []
        for s, x in zip(src, txt):
            k = len(x) - 2
            if k <= 0:
                continue
            ss.extend([s] * k)
            gs.extend(x[i:i + 3] for i in range(k))
        g = pa.table({"source": pa.array(ss, pa.string()),
                      "tg": pa.array(gs, pa.string())}) \
            .group_by(["source", "tg"]).aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "tg": g["tg"],
                         "n": g["count_all"].cast(pa.int64())})

    agg = (docs.map_batches(counts, batch_format="pyarrow")
           .groupby(["source", "tg"]).sum("n")).take_all()
    c0, c1 = {}, {}
    for r in agg:
        (c0 if r["source"] == "src0" else c1)[r["tg"]] = r["sum(n)"]
    dot = sum(v * c1.get(k, 0) for k, v in c0.items())
    n0 = sum(v * v for v in c0.values())
    n1 = sum(v * v for v in c1.values())
    return pd.DataFrame({"dot": [dot], "norm0_sq": [n0],
                         "norm1_sq": [n1]})



QUERIES["source_trigram_affinity"] = q_source_trigram_affinity

ORACLE_SQL["source_trigram_affinity"] = """
        WITH g AS (SELECT source,
                          substr(text, CAST(u + 1 AS BIGINT), 3) AS tg
                   FROM documents,
                        UNNEST(range(greatest(len(text) - 2, 0))) s(u)
                   WHERE source IN ('src0', 'src1')),
        c AS (SELECT tg,
                     count(*) FILTER (source = 'src0') AS n0,
                     count(*) FILTER (source = 'src1') AS n1
              FROM g GROUP BY 1)
        SELECT CAST(SUM(n0 * n1) AS BIGINT) AS dot,
               CAST(SUM(n0 * n0) AS BIGINT) AS norm0_sq,
               CAST(SUM(n1 * n1) AS BIGINT) AS norm1_sq
        FROM c
    """



def q_seasonal_index_months(sf_dir: str):
    """Seasonal index parts: revenue per calendar month-of-year
    across all years, plus the grand total — the exact-integer
    seasonality profile (index = 12·month_share, left as parts).
    12-row partials, one shuffle."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        m = pc.month(t["o_orderdate"]).cast(pa.int64())
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"month": m, "c": cents}).group_by("month") \
            .aggregate([([], "count_all"), ("c", "sum")])
        return pa.table({"month": g["month"],
                         "n_orders": g["count_all"].cast(pa.int64()),
                         "revenue_cents": g["c_sum"]})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("month").sum(["n_orders",
                                   "revenue_cents"])).take_all()
    tot = sum(r["sum(revenue_cents)"] for r in rows)
    return pd.DataFrame(sorted(
        ({"month": r["month"], "n_orders": r["sum(n_orders)"],
          "revenue_cents": r["sum(revenue_cents)"],
          "share_ppm": r["sum(revenue_cents)"] * 1_000_000 // tot}
         for r in rows), key=lambda x: x["month"]))



QUERIES["seasonal_index_months"] = q_seasonal_index_months

ORACLE_SQL["seasonal_index_months"] = """
        WITH m AS (SELECT CAST(EXTRACT(month FROM o_orderdate)
                               AS BIGINT) AS month,
                          count(*) AS n_orders,
                          SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS revenue_cents
                   FROM orders GROUP BY 1),
        t AS (SELECT SUM(revenue_cents) AS tot FROM m)
        SELECT month, n_orders, revenue_cents,
               revenue_cents * 1000000 // tot AS share_ppm
        FROM m, t
    """



def q_weekend_aov_parts(sf_dir: str):
    """Weekend vs weekday average-order-value parts: exact counts and
    cent sums per side (epoch-aligned weekday split, same closed form
    as the business-day op) — the AOV lift readout without a float
    mean. 2-row partials."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        is_we = (((day + 4) % 7) >= 5).astype(np.int64)
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"weekend": pa.array(is_we), "c": cents}) \
            .group_by("weekend").aggregate(
                [([], "count_all"), ("c", "sum")])
        return pa.table({"weekend": g["weekend"],
                         "n_orders": g["count_all"].cast(pa.int64()),
                         "revenue_cents": g["c_sum"]})

    out = (orders.map_batches(part, batch_format="pyarrow")
           .groupby("weekend").sum(["n_orders", "revenue_cents"]))
    return _rename(out, ["weekend", "n_orders", "revenue_cents"])



QUERIES["weekend_aov_parts"] = q_weekend_aov_parts

ORACLE_SQL["weekend_aov_parts"] = """
        SELECT CAST((epoch_us(o_orderdate) // 86400000000 + 4) % 7 >= 5
                    AS BIGINT) AS weekend,
               count(*) AS n_orders,
               CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                             AS BIGINT)) AS BIGINT) AS revenue_cents
        FROM orders GROUP BY 1
    """



def q_purchase_gap_median(sf_dir: str):
    """Global inter-purchase cadence: the lower-median gap (whole
    seconds) between a user's consecutive purchases, over ALL users'
    gaps — per-user diffs inside one co-partition, then the selection
    is count algebra over the seconds histogram (no sort). Also
    reports the gap count."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        p = df[df["event_type"] == "purchase"]
        if len(p) < 2:
            return pd.DataFrame({"gap_s": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        u = p["user_id"].to_numpy(np.int64)
        e = p["event_id"].to_numpy(np.int64)
        t = p["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        o = np.lexsort((e, t, u))
        uu, tu = u[o], t[o]
        same = uu[1:] == uu[:-1]
        g = ((tu[1:] - tu[:-1]) // 1_000_000)[same]
        if len(g) == 0:
            return pd.DataFrame({"gap_s": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        vc = pd.Series(g).value_counts().sort_index()
        return pd.DataFrame({"gap_s": vc.index.to_numpy(np.int64),
                             "n": vc.to_numpy(np.int64)})

    hist = (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(gaps, batch_format="pandas")
            .groupby("gap_s").sum("n")).take_all()
    hist.sort(key=lambda r: r["gap_s"])
    ns = np.array([r["sum(n)"] for r in hist], dtype=np.int64)
    gs = np.array([r["gap_s"] for r in hist], dtype=np.int64)
    cum = np.cumsum(ns)
    n = int(cum[-1]) if len(cum) else 0
    med = int(gs[np.searchsorted(cum, (n - 1) // 2 + 1)]) if n else 0
    return pd.DataFrame({"n_gaps": [n], "median_gap_s": [med]})



QUERIES["purchase_gap_median"] = q_purchase_gap_median

ORACLE_SQL["purchase_gap_median"] = """
        WITH p AS (SELECT user_id, epoch_us(ts) AS us, event_id
                   FROM events WHERE event_type = 'purchase'),
        g AS (SELECT (us - LAG(us) OVER (PARTITION BY user_id
                          ORDER BY us, event_id)) // 1000000 AS gap_s
              FROM p),
        gg AS (SELECT gap_s FROM g WHERE gap_s IS NOT NULL),
        nn AS (SELECT count(*) AS n FROM gg)
        SELECT (SELECT n FROM nn) AS n_gaps,
               (SELECT gap_s FROM gg ORDER BY gap_s LIMIT 1 OFFSET
                (SELECT (n - 1) // 2 FROM nn)) AS median_gap_s
    """



def q_balance_asymmetry_nations(sf_dir: str):
    """Two-dimension reconciliation: per nation, total supplier
    account balance vs total customer balance and their exact
    difference — the counterparty-exposure sheet. Both dimension
    scans reduce to 25-row partials and meet in a driver merge; no
    join operator runs."""
    def side(table: str, key: str, bal: str):
        ds = _read(sf_dir, table, [key, bal])

        def part(t: pa.Table) -> pa.Table:
            cents = pc.floor(pc.add(pc.multiply(
                t[bal], pa.scalar(100.0)),
                pa.scalar(0.5))).cast(pa.int64())
            g = pa.table({"nk": t[key].cast(pa.int64()),
                          "c": cents}).group_by("nk").aggregate(
                [([], "count_all"), ("c", "sum")])
            return pa.table({"nk": g["nk"],
                             "n": g["count_all"].cast(pa.int64()),
                             "c": g["c_sum"]})

        return {r["nk"]: (r["sum(n)"], r["sum(c)"])
                for r in (ds.map_batches(part, batch_format="pyarrow")
                          .groupby("nk").sum(["n", "c"])).take_all()}

    sup = side("supplier", "s_nationkey", "s_acctbal")
    cus = side("customer", "c_nationkey", "c_acctbal")
    rows = []
    for nk in sorted(set(sup) | set(cus)):
        sn, sc = sup.get(nk, (0, 0))
        cn, cc = cus.get(nk, (0, 0))
        rows.append({"n_nationkey": nk, "n_supp": sn,
                     "supp_cents": sc, "n_cust": cn, "cust_cents": cc,
                     "gap_cents": sc - cc})
    return pd.DataFrame(rows)



QUERIES["balance_asymmetry_nations"] = q_balance_asymmetry_nations

ORACLE_SQL["balance_asymmetry_nations"] = """
        WITH s AS (SELECT CAST(s_nationkey AS BIGINT) AS nk,
                          count(*) AS n,
                          SUM(CAST(floor(s_acctbal * 100.0 + 0.5)
                                   AS BIGINT)) AS c
                   FROM supplier GROUP BY 1),
        c AS (SELECT CAST(c_nationkey AS BIGINT) AS nk, count(*) AS n,
                     SUM(CAST(floor(c_acctbal * 100.0 + 0.5)
                              AS BIGINT)) AS c
              FROM customer GROUP BY 1)
        SELECT COALESCE(s.nk, c.nk) AS n_nationkey,
               CAST(COALESCE(s.n, 0) AS BIGINT) AS n_supp,
               CAST(COALESCE(s.c, 0) AS BIGINT) AS supp_cents,
               CAST(COALESCE(c.n, 0) AS BIGINT) AS n_cust,
               CAST(COALESCE(c.c, 0) AS BIGINT) AS cust_cents,
               CAST(COALESCE(s.c, 0) - COALESCE(c.c, 0) AS BIGINT)
                   AS gap_cents
        FROM s FULL OUTER JOIN c ON s.nk = c.nk
    """



def q_vocab_growth_curve(sf_dir: str):
    """Heaps'-law audit: distinct token count after the first 10%,
    50% and 100% of documents (by doc_id) — is the vocabulary still
    growing? Three prefix-distinct counts from ONE tagged dedup pass:
    each (token, tier) marks the smallest prefix that contains the
    token, so tiers accumulate without re-scanning."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = docs.count()
    cut10, cut50 = n_docs // 10, n_docs // 2

    def toks(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False)
        did = np.repeat(t["doc_id"].to_numpy(), lens)
        keep = flat != ""
        flat, did = flat[keep], did[keep]
        tier = np.where(did < cut10, 0,
                        np.where(did < cut50, 1, 2)).astype(np.int64)
        g = pa.table({"token": pa.array(flat),
                      "tier": pa.array(tier)}).group_by("token") \
            .aggregate([("tier", "min")])
        return pa.table({"token": g["token"], "tier": g["tier_min"]})

    first_tier = (docs.map_batches(toks, batch_format="pyarrow")
                  .groupby("token").min("tier")).take_all()
    counts = [0, 0, 0]
    for r in first_tier:
        counts[r["min(tier)"]] += 1
    return pd.DataFrame({
        "prefix_pct": [10, 50, 100],
        "n_distinct": [counts[0], counts[0] + counts[1],
                       counts[0] + counts[1] + counts[2]]})



QUERIES["vocab_growth_curve"] = q_vocab_growth_curve

ORACLE_SQL["vocab_growth_curve"] = """
        WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                   FROM documents),
        ww AS (SELECT doc_id, t FROM w WHERE t <> ''),
        n AS (SELECT count(*) AS nd FROM documents)
        SELECT 10 AS prefix_pct,
               (SELECT count(DISTINCT t) FROM ww, n
                WHERE doc_id < nd // 10) AS n_distinct
        UNION ALL
        SELECT 50, (SELECT count(DISTINCT t) FROM ww, n
                    WHERE doc_id < nd // 2)
        UNION ALL
        SELECT 100, (SELECT count(DISTINCT t) FROM ww)
    """



def q_nn1_accuracy_labels(sf_dir: str):
    """1-NN label-agreement audit: every vector queries the corpus for
    its nearest OTHER vector (exact cosine, the knn tie discipline —
    round-6 then vec_id) and we score per true label how often the
    neighbor agrees — the intrinsic embedding-quality readout.
    ann.topk_bruteforce keeps shuffle at k-per-query-per-batch; the
    query matrix + label gather is the size-capped ``_emb_dim_np``
    (Arrow→numpy, no row loop / per-row dict); at 100 TB the
    LSH-bucketed path replaces the broadcast query matrix."""
    from battery.ops.ann import topk_bruteforce

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ids, Q, labels = _emb_dim_np(sf_dir, ("label",))
    labels = labels.astype(np.int64)
    nn = topk_bruteforce(emb, ids, Q, k=1)
    lref = ray.put((ids, labels))

    def score(t: pa.Table) -> pa.Table:
        ids_, labels_ = _broadcast(lref)
        qi = np.searchsorted(ids_, t["query_id"].to_numpy(
            zero_copy_only=False))
        ni = np.searchsorted(ids_, t["vec_id"].to_numpy(
            zero_copy_only=False))
        true = labels_[qi]
        ok = (labels_[ni] == true).astype(np.int64)
        g = pa.table({"label": pa.array(true),
                      "ok": pa.array(ok)}).group_by("label") \
            .aggregate([([], "count_all"), ("ok", "sum")])
        return pa.table({"label": g["label"],
                         "n": g["count_all"].cast(pa.int64()),
                         "n_correct": g["ok_sum"]})

    out = (nn.map_batches(score, batch_format="pyarrow")
           .groupby("label").sum(["n", "n_correct"]))
    return _rename(out, ["label", "n", "n_correct"])



QUERIES["nn1_accuracy_labels"] = q_nn1_accuracy_labels

ORACLE_SQL["nn1_accuracy_labels"] = """
        WITH s AS (SELECT q.vec_id AS qid, q.label AS ql,
                          e.label AS nl,
                          row_number() OVER (PARTITION BY q.vec_id
                              ORDER BY round(list_cosine_similarity(
                                  CAST(q.embedding AS DOUBLE[]),
                                  CAST(e.embedding AS DOUBLE[])), 6)
                                  DESC, e.vec_id ASC) AS rn
                   FROM embeddings q CROSS JOIN embeddings e
                   WHERE e.vec_id <> q.vec_id)
        SELECT CAST(ql AS BIGINT) AS label, count(*) AS n,
               CAST(count(*) FILTER (nl = ql) AS BIGINT) AS n_correct
        FROM s WHERE rn = 1 GROUP BY 1
    """



def q_status_share_monthly(sf_dir: str):
    """Order-status mix time series: per month, counts per status and
    the exact ppm share — the fulfillment-health trend. Month×status
    partials (≤ months·3), shares from the same aggregate."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderstatus"])

    def part(t: pa.Table) -> pa.Table:
        m = pc.add(pc.multiply(pc.year(t["o_orderdate"]),
                               pa.scalar(12, pa.int64())),
                   pc.subtract(pc.month(t["o_orderdate"]),
                               pa.scalar(1, pa.int64())))
        g = pa.table({"month": m, "st": t["o_orderstatus"]}) \
            .group_by(["month", "st"]).aggregate([([], "count_all")])
        return pa.table({"month": g["month"], "st": g["st"],
                         "n": g["count_all"].cast(pa.int64())})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby(["month", "st"]).sum("n")).take_all()
    tot = {}
    for r in rows:
        tot[r["month"]] = tot.get(r["month"], 0) + r["sum(n)"]
    return pd.DataFrame(sorted(
        ({"month": r["month"], "o_orderstatus": r["st"],
          "n": r["sum(n)"],
          "share_ppm": r["sum(n)"] * 1_000_000 // tot[r["month"]]}
         for r in rows),
        key=lambda x: (x["month"], x["o_orderstatus"])))



QUERIES["status_share_monthly"] = q_status_share_monthly

ORACLE_SQL["status_share_monthly"] = """
        WITH m AS (SELECT CAST(EXTRACT(year FROM o_orderdate) * 12
                               + EXTRACT(month FROM o_orderdate) - 1
                               AS BIGINT) AS month,
                          o_orderstatus, count(*) AS n
                   FROM orders GROUP BY 1, 2),
        t AS (SELECT month, SUM(n) AS tot FROM m GROUP BY 1)
        SELECT m.month, m.o_orderstatus, CAST(m.n AS BIGINT) AS n,
               m.n * 1000000 // t.tot AS share_ppm
        FROM m JOIN t USING (month)
    """



def q_size_price_moments_brands(sf_dir: str):
    """Grouped correlation parts on the part dimension: per brand the
    exact integer moments (n, Σsize, Σcents, Σsize², Σsize·cents) —
    does bigger stock cost more? Brand-cardinality partials, one
    shuffle."""
    part = _read(sf_dir, "part", ["p_brand", "p_size",
                                  "p_retailprice"])

    def moments(t: pa.Table) -> pa.Table:
        sz = t["p_size"].cast(pa.int64())
        cents = pc.floor(pc.add(pc.multiply(
            t["p_retailprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"p_brand": t["p_brand"], "s": sz, "c": cents,
                      "ss": pc.multiply(sz, sz),
                      "sc": pc.multiply(sz, cents)}) \
            .group_by("p_brand").aggregate(
                [([], "count_all"), ("s", "sum"), ("c", "sum"),
                 ("ss", "sum"), ("sc", "sum")])
        return pa.table({"p_brand": g["p_brand"],
                         "n": g["count_all"].cast(pa.int64()),
                         "sum_size": g["s_sum"], "sum_cents": g["c_sum"],
                         "sum_size_sq": g["ss_sum"],
                         "sum_size_cents": g["sc_sum"]})

    out = (part.map_batches(moments, batch_format="pyarrow")
           .groupby("p_brand").sum(["n", "sum_size", "sum_cents",
                                    "sum_size_sq", "sum_size_cents"]))
    return _rename(out, ["p_brand", "n", "sum_size", "sum_cents",
                         "sum_size_sq", "sum_size_cents"])



QUERIES["size_price_moments_brands"] = q_size_price_moments_brands

ORACLE_SQL["size_price_moments_brands"] = """
        WITH p AS (SELECT p_brand, CAST(p_size AS BIGINT) AS s,
                          CAST(floor(p_retailprice * 100.0 + 0.5)
                               AS BIGINT) AS c
                   FROM part)
        SELECT p_brand, count(*) AS n,
               CAST(SUM(s) AS BIGINT) AS sum_size,
               CAST(SUM(c) AS BIGINT) AS sum_cents,
               CAST(SUM(s * s) AS BIGINT) AS sum_size_sq,
               CAST(SUM(s * c) AS BIGINT) AS sum_size_cents
        FROM p GROUP BY 1
    """



def q_phash_popcount_stats(sf_dir: str):
    """Perceptual-hash bit-density audit: per image format, the
    population-count distribution of stored phashes (sum/min/max of
    set bits) — a skewed bit density flags a degenerate hash. Pure
    METADATA scan (payload never read); popcount via unpackbits on
    the int64 view, replayed by DuckDB's bit_count."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["fmt", "phash"])

    def pop(t: pa.Table) -> pa.Table:
        h = t["phash"].to_numpy(zero_copy_only=False)
        bits = np.unpackbits(h.view(np.uint8)).reshape(len(h), 64) \
            .sum(axis=1).astype(np.int64)
        g = pa.table({"fmt": t["fmt"], "b": pa.array(bits)}) \
            .group_by("fmt").aggregate(
                [([], "count_all"), ("b", "sum"), ("b", "min"),
                 ("b", "max")])
        return g.rename_columns(["fmt", "n", "sum_bits", "min_bits",
                                 "max_bits"])

    out = (ds.map_batches(pop, batch_format="pyarrow")
           .groupby("fmt")
           .aggregate(rd.aggregate.Sum("n"),
                      rd.aggregate.Sum("sum_bits"),
                      rd.aggregate.Min("min_bits"),
                      rd.aggregate.Max("max_bits")))
    return _rename(out, ["fmt", "n", "sum_bits", "min_bits",
                         "max_bits"])



QUERIES["phash_popcount_stats"] = q_phash_popcount_stats



def _phash_popcount_sql(img_dir: str) -> str:
    return f"""
        SELECT fmt, count(*) AS n,
               CAST(SUM(bit_count(CAST(phash AS BIGINT))) AS BIGINT)
                   AS sum_bits,
               CAST(MIN(bit_count(CAST(phash AS BIGINT))) AS BIGINT)
                   AS min_bits,
               CAST(MAX(bit_count(CAST(phash AS BIGINT))) AS BIGINT)
                   AS max_bits
        FROM read_parquet('{img_dir}/part-*.parquet')
        GROUP BY 1
    """



def q_large_volume_orders_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume customers): orders whose total
    line quantity exceeds 250 units, with the buyer's name attached.
    The per-order sums form via batch partials + ONE orderkey
    groupby; the HAVING filter is so selective (~1.4% of orders)
    that the survivors broadcast — orders and customer are each
    scanned once with the small side as a lookup, no fact-fact
    shuffle. l_quantity is integral by TPC-H construction; the cast
    asserts it stays exact."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def part(t: pa.Table) -> pa.Table:
        q = t["l_quantity"].cast(pa.int64())
        g = pa.table({"k": t["l_orderkey"], "q": q}) \
            .group_by("k").aggregate([("q", "sum")])
        return pa.table({"l_orderkey": g["k"], "q": g["q_sum"]})

    from battery.ops.relational import broadcast_dim, dim_lookup

    # HAVING >250 survivors are a tiny selective set; the cap keeps the
    # broadcast honest if the threshold ever stops being selective
    bk, bt = broadcast_dim(
        li.map_batches(part, batch_format="pyarrow")
        .groupby("l_orderkey").sum("q")
        .map_batches(lambda t: t.filter(pc.greater(
            t["sum(q)"], pa.scalar(250, pa.int64()))),
            batch_format="pyarrow"), "l_orderkey")
    kref = ray.put((bk, bt["sum(q)"].to_numpy()
                    .astype(np.int64, copy=False)))

    def pick_orders(t: pa.Table) -> pa.Table:
        bk_, bq_ = _broadcast(kref)
        keys = t["o_orderkey"].to_numpy(zero_copy_only=False)
        ki, khit = dim_lookup(bk_, keys.astype(np.int64, copy=False))
        t = t.filter(pa.array(khit))
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        sq = pa.array(bq_[ki[khit]], pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "c_custkey": t["o_custkey"],
                         "total_cents": cents, "sum_qty": sq})

    hk, ht = broadcast_dim(
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(pick_orders, batch_format="pyarrow"), "c_custkey")
    cref = ray.put((hk,
                    ht["o_orderkey"].to_numpy()
                    .astype(np.int64, copy=False),
                    ht["total_cents"].to_numpy()
                    .astype(np.int64, copy=False),
                    ht["sum_qty"].to_numpy()
                    .astype(np.int64, copy=False)))

    def attach_name(t: pa.Table) -> pa.Table:
        # survivors sorted by custkey: per-batch range expansion via
        # two searchsorted cuts + repeat — no per-row Python
        hk_, hok_, htc_, hsq_ = _broadcast(cref)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        lo = np.searchsorted(hk_, ck, side="left")
        hi = np.searchsorted(hk_, ck, side="right")
        reps = hi - lo
        src_rows = np.repeat(np.arange(len(ck)), reps)
        # per-match index into the survivor arrays
        tgt = np.repeat(lo, reps) + (np.arange(reps.sum())
                                     - np.repeat(np.cumsum(reps)
                                                 - reps, reps))
        return pa.table({
            "o_orderkey": pa.array(hok_[tgt], pa.int64()),
            "c_custkey": pa.array(ck[src_rows], pa.int64()),
            "c_name": pc.take(t["c_name"], pa.array(src_rows)),
            "total_cents": pa.array(htc_[tgt], pa.int64()),
            "sum_qty": pa.array(hsq_[tgt], pa.int64())})

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]) \
        .map_batches(attach_name, batch_format="pyarrow")



QUERIES["large_volume_orders_q18"] = q_large_volume_orders_q18

ORACLE_SQL["large_volume_orders_q18"] = """
        WITH s AS (SELECT l_orderkey,
                          CAST(SUM(CAST(l_quantity AS BIGINT))
                               AS BIGINT) AS q
                   FROM lineitem GROUP BY 1
                   HAVING SUM(CAST(l_quantity AS BIGINT)) > 250)
        SELECT o.o_orderkey, c.c_custkey, c.c_name,
               CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT)
                   AS total_cents,
               s.q AS sum_qty
        FROM s JOIN orders o ON o.o_orderkey = s.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
    """



def q_supplier_count_q16(sf_dir: str):
    """TPC-H Q16 shape (parts/supplier relationship): how many
    DISTINCT suppliers ship each (brand, size) combination, excluding
    one boycotted brand. lineitem collapses to its distinct
    (partkey, suppkey) edge set first (batch dedup partials + one
    pair-cardinality groupby on a packed int64 — partkey·2²⁰+suppkey,
    exact while partkey < 2⁴³); the part dim broadcasts sorted; the
    (brand,size,supp) distinct pass then rides brand-code-packed keys
    so no string ever shuffles."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def pair_part(t: pa.Table) -> pa.Table:
        packed = pc.add(pc.multiply(t["l_partkey"],
                                    pa.scalar(1 << 20, pa.int64())),
                        t["l_suppkey"])
        return pa.table({"pk": packed}).group_by("pk").aggregate([])

    pairs = (li.map_batches(pair_part, batch_format="pyarrow")
             .groupby("pk").count())

    pkeys, brand_raw, size_raw = _dim_np(sf_dir, "part", "p_partkey",
                                         ["p_brand", "p_size"])
    brands_np, bidx = np.unique(brand_raw.astype(str), return_inverse=True)
    brands = brands_np.tolist()
    bidx = bidx.astype(np.int64)
    sizes = size_raw.astype(np.int64, copy=False)
    hit45 = np.flatnonzero(brands_np == "Brand#45")
    ban = int(hit45[0]) if len(hit45) else -1
    dref = ray.put((pkeys, bidx, sizes, ban))

    def attach(t: pa.Table) -> pa.Table:
        pk, bi, sz, banned = _broadcast(dref)
        packed = t["pk"].to_numpy(zero_copy_only=False)
        partkey = packed >> 20
        supp = packed & ((1 << 20) - 1)
        i = np.minimum(np.searchsorted(pk, partkey),
                       max(len(pk) - 1, 0))
        hit = (pk[i] == partkey) if len(pk) else \
            np.zeros(len(partkey), bool)
        i, supp = i[hit], supp[hit]
        b, s = bi[i], sz[i]
        keep = b != banned
        # brand-code · 2^40 + size · 2^20 + suppkey (all < 2^20)
        trip = (b[keep] << 40) | (s[keep] << 20) | supp[keep]
        return pa.table({"trip": pa.array(trip)}) \
            .group_by("trip").aggregate([])

    trips = (pairs.map_batches(attach, batch_format="pyarrow")
             .groupby("trip").count())

    def count_bs(t: pa.Table) -> pa.Table:
        trip = t["trip"].to_numpy(zero_copy_only=False)
        bs = trip >> 20  # (brand_code << 20) | size
        g = pa.table({"bs": pa.array(bs)}).group_by("bs") \
            .aggregate([([], "count_all")])
        return pa.table({"bs": g["bs"],
                         "n": g["count_all"].cast(pa.int64())})

    rows = (trips.map_batches(count_bs, batch_format="pyarrow")
            .groupby("bs").sum("n")).take_all()
    return pd.DataFrame(sorted(
        ({"p_brand": brands[r["bs"] >> 20],
          "p_size": int(r["bs"] & ((1 << 20) - 1)),
          "supplier_cnt": r["sum(n)"]} for r in rows),
        key=lambda x: (x["p_brand"], x["p_size"])))



QUERIES["supplier_count_q16"] = q_supplier_count_q16

ORACLE_SQL["supplier_count_q16"] = """
        WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey
                       FROM lineitem)
        SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
               CAST(COUNT(DISTINCT pr.l_suppkey) AS BIGINT)
                   AS supplier_cnt
        FROM pairs pr JOIN part p ON p.p_partkey = pr.l_partkey
        WHERE p.p_brand <> 'Brand#45'
        GROUP BY 1, 2
    """



def q_audio_zcr_tracks(sf_dir: str):
    """Zero-crossing-rate audit over the audio corpus: per track the
    number of strict sign flips (s[i-1]·s[i] < 0), positive samples
    and negative samples — the classic cheap voiced/unvoiced feature,
    computed as one shifted product over the stacked batch tensor
    (int16·int16 < 2³⁰, promoted to int64). Payload batches stay
    small per the image-stage law. Oracle: python-int replay
    sidecar."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def zcr(t: pa.Table) -> pa.Table:
        ids = t["track_id"].to_numpy(zero_copy_only=False)
        pcm = np.stack([np.frombuffer(p, dtype=np.int16)
                        for p in t["bytes"].to_pylist()]) \
            .astype(np.int64)
        flips = (pcm[:, :-1] * pcm[:, 1:] < 0).sum(axis=1)
        return pa.table({"track_id": pa.array(ids),
                         "n_flips": pa.array(flips.astype(np.int64)),
                         "n_pos": pa.array(
                             (pcm > 0).sum(axis=1).astype(np.int64)),
                         "n_neg": pa.array(
                             (pcm < 0).sum(axis=1).astype(np.int64))})

    return ds.map_batches(zcr, batch_format="pyarrow", batch_size=64)



QUERIES["audio_zcr_tracks"] = q_audio_zcr_tracks



def _audio_zcr_sidecar(aud: str) -> str:
    """Python-int replay for audio_zcr_tracks (per-sample loop with
    plain ints vs the engine's shifted-product kernel). Content-keyed
    on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiozcr_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        nf, npos, nneg = [], [], []
        for j in range(len(ids)):
            samples = [int(v) for v in pcm[j].tolist()]
            flips = pos = neg = 0
            for a, b in zip(samples, samples[1:]):
                if a * b < 0:
                    flips += 1
            for v in samples:
                if v > 0:
                    pos += 1
                elif v < 0:
                    neg += 1
            nf.append(flips)
            npos.append(pos)
            nneg.append(neg)
        out = pa.table({"track_id": pa.array(ids),
                        "n_flips": pa.array(nf, pa.int64()),
                        "n_pos": pa.array(npos, pa.int64()),
                        "n_neg": pa.array(nneg, pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_zcr_sql(aud: str) -> str:
    return (f"SELECT track_id, n_flips, n_pos, n_neg "
            f"FROM read_parquet('{_audio_zcr_sidecar(aud)}')")



def q_video_motion_energy(sf_dir: str):
    """Video motion profiling: per clip the exact integer inter-frame
    motion energy (total, peak transition, first peak index) — the
    scene-change / static-clip triage a sampling curator keys on,
    computed as ONE |diff| over each payload group's stacked 5-D
    tensor (ops/video.py VideoMotionStage). Oracle: generator-replay
    sidecar rederives every frame pair with python ints."""
    from battery.ops.video import VideoMotionStage, read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))
    return ds.map_batches(
        VideoMotionStage, batch_format="pyarrow", batch_size=32,
        concurrency=2,
    )



QUERIES["video_motion_energy"] = q_video_motion_energy



def _video_motion_sidecar(vid: str) -> str:
    """Python-int replay for video_motion_energy: every consecutive
    frame pair rederived from synth.pixel_pattern and |a−b|-summed in
    a plain loop; max + FIRST argmax tracked scalar-side. Content-
    keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videomotion_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        rows = []
        for cid in ids.tolist():
            frames = [
                [int(v) for v in _sy.pixel_pattern(
                    np.array([cid * 64 + f], np.uint64),
                    _sy.VIDEO_W, _sy.VIDEO_H)[0].ravel().tolist()]
                for f in range(nf)]
            total, peak, pidx = 0, -1, -1
            for f in range(nf - 1):
                e = sum(abs(a - b) for a, b in
                        zip(frames[f + 1], frames[f]))
                total += e
                if e > peak:
                    peak, pidx = e, f
            rows.append({"clip_id": cid, "motion_total": total,
                         "motion_peak": peak, "peak_idx": pidx})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_motion_sql(vid: str) -> str:
    return (f"SELECT clip_id, motion_total, motion_peak, peak_idx "
            f"FROM read_parquet('{_video_motion_sidecar(vid)}')")



def q_image_gradient_energy(sf_dir: str):
    """Per-image gradient energy for the first 1024 images: exact
    integer Σ|∂gray/∂x| and Σ|∂gray/∂y| over the (r+g+b)//3 plane —
    the blur/sharpness score an image-quality filter thresholds on.
    Decode groups by (w, h) within the batch (mixed-size law); both
    sums come from one vectorized |diff| per axis. Python-int replay
    sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class GradStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            ids = batch["image_id"].to_numpy(zero_copy_only=False)
            groups: dict[tuple[int, int], list[int]] = {}
            for i, (wi, hi) in enumerate(zip(ws, hs)):
                groups.setdefault((wi, hi), []).append(i)
            out_id, out_h, out_v = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                gh = np.abs(np.diff(gray, axis=2)).sum(axis=(1, 2))
                gv = np.abs(np.diff(gray, axis=1)).sum(axis=(1, 2))
                out_id.append(ids[slots])
                out_h.append(gh)
                out_v.append(gv)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "grad_h": pa.array(np.concatenate(out_h)),
                "grad_v": pa.array(np.concatenate(out_v))})

    return ds.map_batches(GradStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["image_gradient_energy"] = q_image_gradient_energy



def _image_gradient_sidecar(img: str, n: int = 1024) -> str:
    """Python-int replay for image_gradient_energy (nested per-pixel
    loops vs the engine's vectorized |diff|). Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_imggrad_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        ghs = np.zeros(len(ws), np.int64)
        gvs = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(wi)] for y in range(hi)]
                gh = sum(abs(g[y][x + 1] - g[y][x])
                         for y in range(hi) for x in range(wi - 1))
                gv = sum(abs(g[y + 1][x] - g[y][x])
                         for y in range(hi - 1) for x in range(wi))
                ghs[slot], gvs[slot] = gh, gv
        out = pa.table({"image_id": ids, "grad_h": pa.array(ghs),
                        "grad_v": pa.array(gvs)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _image_gradient_sql(img: str) -> str:
    return (f"SELECT image_id, grad_h, grad_v "
            f"FROM read_parquet('{_image_gradient_sidecar(img)}')")



def q_market_share_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): of all revenue sold
    into one region's market (customer nation ∈ ASIA), what ppm came
    from suppliers of one nation, per order year. Same dual-dimension
    plan as Q7: orders⋈customer rides two bucketed co-partitions
    (custkey then orderkey — the fact-scale sides at 100 TB), the
    customer-nation→region filter and suppkey→nation gather are
    broadcast sorted arrays. Year-cardinality partials; the ppm
    division happens once per year row in exact python ints."""
    from battery.ops.relational import bucketed_join

    REGION = 2       # ASIA
    SUPP_NATION = 7  # NATION_7 (regionkey 2)

    nat = _read(sf_dir, "nation",
                ["n_nationkey", "n_regionkey"]).take_all()
    nkeys = np.array(sorted(r["n_nationkey"] for r in nat), np.int64)
    nreg = {r["n_nationkey"]: r["n_regionkey"] for r in nat}
    regs = np.array([nreg[k] for k in nkeys], np.int64)
    skeys, snats_raw = _dim_np(sf_dir, "supplier", "s_suppkey",
                               ["s_nationkey"])
    snats = snats_raw.astype(np.int64, copy=False)
    dref = ray.put((nkeys, regs, skeys, snats))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def in_region(t: pa.Table) -> pa.Table:
        nk, rg, _, _ = _broadcast(dref)
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        i = np.minimum(np.searchsorted(nk, cn),
                       max(len(nk) - 1, 0))
        keep = (rg[i] == REGION) & (nk[i] == cn) if len(nk) else \
            np.zeros(len(cn), bool)
        return t.filter(pa.array(keep)).select(["c_custkey"])

    cust_asia = cust.map_batches(in_region, batch_format="pyarrow")
    oc = bucketed_join(orders, cust_asia, "o_custkey", "c_custkey",
                       n_buckets=16)
    oc = oc.map_batches(
        lambda t: pa.table({"o_orderkey": t["o_orderkey"],
                            "o_year": pc.year(t["o_orderdate"])}),
        batch_format="pyarrow").materialize()  # schema-probe law

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])
    j = bucketed_join(li, oc, "l_orderkey", "o_orderkey", n_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        _, _, sk, sn = _broadcast(dref)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(sk, s), max(len(sk) - 1, 0))
        hit = (sk[i] == s) if len(sk) else np.zeros(len(s), bool)
        rev = pc.floor(pc.add(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(10000.0)), pa.scalar(0.5))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        yr = t["o_year"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[hit]
        rv = rev[hit]
        is_n = (sn[i][hit] == SUPP_NATION).astype(np.int64)
        g = pa.table({"o_year": pa.array(yr),
                      "total_e4": pa.array(rv),
                      "nation_e4": pa.array(rv * is_n)}) \
            .group_by("o_year").aggregate(
                [("total_e4", "sum"), ("nation_e4", "sum")])
        return pa.table({"o_year": g["o_year"],
                         "total_e4": g["total_e4_sum"],
                         "nation_e4": g["nation_e4_sum"]})

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby("o_year").sum(["total_e4", "nation_e4"])) \
        .take_all()
    return pd.DataFrame(sorted(
        ({"o_year": r["o_year"], "total_e4": r["sum(total_e4)"],
          "nation_e4": r["sum(nation_e4)"],
          "share_ppm": r["sum(nation_e4)"] * 1_000_000
          // r["sum(total_e4)"]} for r in rows),
        key=lambda x: x["o_year"]))



QUERIES["market_share_q8"] = q_market_share_q8

ORACLE_SQL["market_share_q8"] = """
        WITH j AS (
            SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                       AS y,
                   CAST(floor(l.l_extendedprice
                              * (1 - l.l_discount) * 10000.0 + 0.5)
                        AS BIGINT) AS rev,
                   s.s_nationkey AS snat
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation cn ON cn.n_nationkey = c.c_nationkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            WHERE cn.n_regionkey = 2)
        SELECT y AS o_year, CAST(SUM(rev) AS BIGINT) AS total_e4,
               CAST(COALESCE(SUM(rev) FILTER (snat = 7), 0) AS BIGINT)
                   AS nation_e4,
               COALESCE(SUM(rev) FILTER (snat = 7), 0) * 1000000
                   // SUM(rev) AS share_ppm
        FROM j GROUP BY 1
    """



def q_char_class_docs(sf_dir: str):
    """Character-class composition per source: digits, ASCII letters,
    spaces and total chars — the cheap boilerplate/table detector a
    corpus-quality gate runs first. Three re2 count kernels + one
    utf8_length per batch, source-cardinality partials, one tiny
    shuffle."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def counts(t: pa.Table) -> pa.Table:
        txt = t["text"]
        g = pa.table({
            "source": t["source"],
            "n_digits": pc.count_substring_regex(txt, r"[0-9]")
            .cast(pa.int64()),
            "n_alpha": pc.count_substring_regex(txt, r"[A-Za-z]")
            .cast(pa.int64()),
            "n_spaces": pc.count_substring(txt, " ").cast(pa.int64()),
            "n_chars": pc.utf8_length(txt).cast(pa.int64()),
        }).group_by("source").aggregate(
            [("n_digits", "sum"), ("n_alpha", "sum"),
             ("n_spaces", "sum"), ("n_chars", "sum"),
             ([], "count_all")])
        return pa.table({"source": g["source"],
                         "n_digits": g["n_digits_sum"],
                         "n_alpha": g["n_alpha_sum"],
                         "n_spaces": g["n_spaces_sum"],
                         "n_chars": g["n_chars_sum"],
                         "n_docs": g["count_all"].cast(pa.int64())})

    out = (docs.map_batches(counts, batch_format="pyarrow")
           .groupby("source").sum(["n_digits", "n_alpha", "n_spaces",
                                   "n_chars", "n_docs"]))
    return _rename(out, ["source", "n_digits", "n_alpha", "n_spaces",
                         "n_chars", "n_docs"])



QUERIES["char_class_docs"] = q_char_class_docs

ORACLE_SQL["char_class_docs"] = """
        SELECT source,
               CAST(SUM(length(regexp_replace(text, '[^0-9]', '', 'g')))
                    AS BIGINT) AS n_digits,
               CAST(SUM(length(regexp_replace(text, '[^A-Za-z]', '',
                                              'g'))) AS BIGINT)
                   AS n_alpha,
               CAST(SUM(length(text)
                        - length(replace(text, ' ', ''))) AS BIGINT)
                   AS n_spaces,
               CAST(SUM(length(text)) AS BIGINT) AS n_chars,
               count(*) AS n_docs
        FROM documents GROUP BY 1
    """



def q_global_max_gap_events(sf_dir: str):
    """Longest silence in the whole event stream: the maximum gap
    between consecutive DISTINCT event timestamps, with the epoch-µs
    start of the earliest such gap — the ingestion-outage detector.
    No global sort: timestamps co-partition by calendar DAY (batch
    dedup partials ride the day shuffle), each day resolves its own
    sorted gaps, and only per-day (max, argmax, min_ts, max_ts)
    summaries reach the driver, where day-boundary gaps stitch in an
    O(days) epilogue."""
    ev = _read(sf_dir, "events", ["ts"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        g = pa.table({"day": pc.divide(us, pa.scalar(DAY, pa.int64())),
                      "us": us}).group_by(["day", "us"]).aggregate([])
        return g

    def day_kernel(df: pd.DataFrame) -> pd.DataFrame:
        us = np.unique(df["us"].to_numpy())
        d = np.diff(us)
        if len(d):
            mx = int(d.max())
            start = int(us[:-1][d == mx].min())
        else:
            mx, start = -1, -1
        return pd.DataFrame({"day": [int(df["day"].iloc[0])],
                             "max_gap": [mx], "start_us": [start],
                             "lo": [int(us[0])], "hi": [int(us[-1])]})

    days = (ev.map_batches(part, batch_format="pyarrow")
            .groupby("day").map_groups(day_kernel)).take_all()
    days.sort(key=lambda r: r["day"])
    best, best_start = -1, -1
    for i, r in enumerate(days):
        cands = []
        if r["max_gap"] >= 0:
            cands.append((r["max_gap"], r["start_us"]))
        if i:
            cands.append((r["lo"] - days[i - 1]["hi"],
                          days[i - 1]["hi"]))
        for g, s in cands:
            if g > best or (g == best and s < best_start):
                best, best_start = g, s
    return pd.DataFrame({"max_gap_us": [best],
                         "start_us": [best_start]})



QUERIES["global_max_gap_events"] = q_global_max_gap_events

ORACLE_SQL["global_max_gap_events"] = """
        WITH t AS (SELECT DISTINCT ts FROM events),
        d AS (SELECT epoch_us(ts) AS u,
                     epoch_us(ts) - LAG(epoch_us(ts))
                         OVER (ORDER BY ts) AS g
              FROM t)
        SELECT CAST(MAX(g) AS BIGINT) AS max_gap_us,
               CAST(MIN(u - g) FILTER (g = (SELECT MAX(g) FROM d))
                    AS BIGINT) AS start_us
        FROM d
    """



def q_label_gram_matrix(sf_dir: str):
    """Label-centroid affinity as EXACT integer algebra: the Gram
    matrix of per-label embedding SUM vectors on the e3 lattice
    (floor(x·1000) per element — sums stay ≪ 2⁶³ while vectors/label
    < 10⁸). Per-batch partials reduce each block to ≤ labels×dim
    rows; the 640-row final meets in a driver epilogue that forms all
    label-pair dots in one int64 matmul."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def part(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = np.floor(np.stack(
            [np.asarray(v, np.float64) for v in
             t["embedding"].to_pylist()]) * 1000.0).astype(np.int64)
        labs = np.unique(lab)
        sums = np.zeros((len(labs), m.shape[1]), np.int64)
        np.add.at(sums, np.searchsorted(labs, lab), m)
        dim = np.tile(np.arange(m.shape[1], dtype=np.int64),
                      len(labs))
        return pa.table({"label": pa.array(np.repeat(labs,
                                                     m.shape[1])),
                         "dim": pa.array(dim),
                         "s": pa.array(sums.ravel())})

    rows = (emb.map_batches(part, batch_format="pyarrow")
            .groupby(["label", "dim"]).sum("s")).take_all()
    labs = sorted({r["label"] for r in rows})
    dims = 1 + max(r["dim"] for r in rows)
    S = np.zeros((len(labs), dims), np.int64)
    li = {l: i for i, l in enumerate(labs)}
    for r in rows:
        S[li[r["label"]], r["dim"]] = r["sum(s)"]
    G = S @ S.T
    out = [{"label_a": a, "label_b": b, "dot_e6": int(G[i, j])}
           for i, a in enumerate(labs)
           for j, b in enumerate(labs) if a <= b]
    return pd.DataFrame(out)



QUERIES["label_gram_matrix"] = q_label_gram_matrix

ORACLE_SQL["label_gram_matrix"] = """
        WITH u AS (SELECT label,
                          unnest(range(len(embedding))) AS dim,
                          CAST(floor(CAST(unnest(embedding) AS DOUBLE)
                                     * 1000.0) AS BIGINT) AS v
                   FROM embeddings),
        s AS (SELECT label, dim, SUM(v) AS sv FROM u GROUP BY 1, 2)
        SELECT CAST(a.label AS BIGINT) AS label_a,
               CAST(b.label AS BIGINT) AS label_b,
               CAST(SUM(a.sv * b.sv) AS BIGINT) AS dot_e6
        FROM s a JOIN s b ON a.dim = b.dim AND a.label <= b.label
        GROUP BY 1, 2
    """



def _poly_edges_path() -> str:
    """Sidecar: every boundary edge of the 256 synthetic station-buffer
    discs (synth.synthetic_route_polygons — the spatial_join_256_polys
    dimension set), with explicit edge ids in pip._edges order.
    Content-keyed on synth.py + the geometry modules."""
    import geotile.synth as _sy
    from geotile.geom.pip import _edges

    p = _oracle_cache_dir() / (
        f"oracle_poly_edges_{_mods_digest(_sy)}_{_geom_digest()}.parquet")
    if not p.exists():
        polys = _sy.synthetic_route_polygons(256)
        cols = {"poly_id": [], "eid": [], "x1": [], "y1": [],
                "x2": [], "y2": []}
        eid = 0
        for rid in sorted(polys):
            for outer, holes in polys[rid]:
                x1, y1, x2, y2 = _edges([outer] + list(holes))
                cols["poly_id"].extend([rid] * len(x1))
                cols["eid"].append(
                    np.arange(eid, eid + len(x1), dtype=np.int64))
                eid += len(x1)
                cols["x1"].append(x1)
                cols["y1"].append(y1)
                cols["x2"].append(x2)
                cols["y2"].append(y2)
        t = pa.table({
            "poly_id": pa.array(cols["poly_id"], pa.string()),
            "eid": pa.array(np.concatenate(cols["eid"])),
            **{k: pa.array(np.concatenate(cols[k]))
               for k in ("x1", "y1", "x2", "y2")}})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(t, p)
    return str(p)



def q_poly_edge_crossings(sf_dir: str):
    """Segment-intersection join: for every unordered pair of the 256
    station-buffer discs, how many boundary-edge pairs STRICTLY cross
    (both orientation sign pairs opposite, zeros excluded) — the
    conflict-detection primitive under overlay/dissolve. The scale
    path, not all-pairs: edges scatter to coarse grid cells covered by
    their bbox, candidate pairs form only within a cell, dedup by
    packed (eid_i < eid_j) key rides one bounded shuffle, and the
    exact IEEE orientation test runs ONCE per surviving pair against
    the broadcast edge arrays (dimension-scale by construction). A
    crossing pair shares the cell containing its intersection point,
    so cell candidacy has no false negatives."""
    import pyarrow.parquet as pq

    edges = pq.read_table(_poly_edges_path())
    x1 = edges["x1"].to_numpy()
    y1 = edges["y1"].to_numpy()
    x2 = edges["x2"].to_numpy()
    y2 = edges["y2"].to_numpy()
    pids = np.array(edges["poly_id"].to_pylist())
    upolys, pcode = np.unique(pids, return_inverse=True)
    eref = ray.put((x1, y1, x2, y2, pcode.astype(np.int64), upolys))
    G = 0.005  # cell size (deg) ≫ edge span (~0.0006°)

    ds = rd.from_arrow(edges.select(["eid", "x1", "y1", "x2", "y2"])) \
        .repartition(8)

    def scatter(t: pa.Table) -> pa.Table:
        eid = t["eid"].to_numpy()
        ax1 = t["x1"].to_numpy()
        ay1 = t["y1"].to_numpy()
        ax2 = t["x2"].to_numpy()
        ay2 = t["y2"].to_numpy()
        cx_lo = np.floor(np.minimum(ax1, ax2) / G).astype(np.int64)
        cx_hi = np.floor(np.maximum(ax1, ax2) / G).astype(np.int64)
        cy_lo = np.floor(np.minimum(ay1, ay2) / G).astype(np.int64)
        cy_hi = np.floor(np.maximum(ay1, ay2) / G).astype(np.int64)
        out_c, out_e = [], []
        for i in range(len(eid)):
            for cx in range(cx_lo[i], cx_hi[i] + 1):
                for cy in range(cy_lo[i], cy_hi[i] + 1):
                    out_c.append((cx << 32) | (cy & 0xFFFFFFFF))
                    out_e.append(eid[i])
        return pa.table({"cell": pa.array(out_c, pa.int64()),
                         "eid": pa.array(out_e, pa.int64())})

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # per-group-cost law: cells coarsen into ≤256 shuffle groups;
        # same-cell runs resolve after one lexsort inside the bucket
        _, _, _, _, pcode_, _ = _broadcast(eref)
        cell = df["cell"].to_numpy(np.int64)
        eid = df["eid"].to_numpy(np.int64)
        o = np.lexsort((eid, cell))
        cell, eid = cell[o], eid[o]
        new = np.r_[True, cell[1:] != cell[:-1]]
        first = np.flatnonzero(new)
        cnt = np.diff(np.r_[first, len(cell)])
        pairs = []
        for f, c in zip(first[cnt > 1], cnt[cnt > 1]):
            e = np.unique(eid[f:f + c])
            if len(e) < 2:
                continue
            ii, jj = np.triu_indices(len(e), k=1)
            a, b = e[ii], e[jj]
            keep = pcode_[a] != pcode_[b]
            if keep.any():
                pairs.append((a[keep] << 20) | b[keep])
        if not pairs:
            return pd.DataFrame({"pair": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"pair": np.concatenate(pairs)})

    scattered = ds.map_batches(scatter, batch_format="pyarrow") \
        .map_batches(lambda t: t.append_column(
            "bkt", pc.bit_wise_and(t["cell"],
                                   pa.scalar(0xFF, pa.int64()))),
            batch_format="pyarrow")
    # block-type + block-count laws: map_groups emits one tiny PANDAS
    # block per bucket — convert to arrow and coalesce before the
    # dedup shuffle (10× on the groupby, measured)
    cand = (scattered.groupby("bkt").map_groups(bucket_pairs)
            .map_batches(lambda t: t, batch_format="pyarrow")
            .repartition(4).groupby("pair").count())

    def test(t: pa.Table) -> pa.Table:
        X1, Y1, X2, Y2, pcode_, upolys_ = _broadcast(eref)
        pair = t["pair"].to_numpy(zero_copy_only=False)
        i, j = pair >> 20, pair & ((1 << 20) - 1)
        dxi, dyi = X2[i] - X1[i], Y2[i] - Y1[i]
        dxj, dyj = X2[j] - X1[j], Y2[j] - Y1[j]
        o1 = dxi * (Y1[j] - Y1[i]) - dyi * (X1[j] - X1[i])
        o2 = dxi * (Y2[j] - Y1[i]) - dyi * (X2[j] - X1[i])
        o3 = dxj * (Y1[i] - Y1[j]) - dyj * (X1[i] - X1[j])
        o4 = dxj * (Y2[i] - Y1[j]) - dyj * (X2[i] - X1[j])
        hit = (((o1 < 0) != (o2 < 0)) & (o1 != 0) & (o2 != 0)
               & ((o3 < 0) != (o4 < 0)) & (o3 != 0) & (o4 != 0))
        pi, pj = pcode_[i[hit]], pcode_[j[hit]]
        lo, hi = np.minimum(pi, pj), np.maximum(pi, pj)
        g = pa.table({"pp": pa.array(lo * 4096 + hi)}) \
            .group_by("pp").aggregate([([], "count_all")])
        return pa.table({"pp": g["pp"],
                         "n": g["count_all"].cast(pa.int64())})

    rows = (cand.map_batches(test, batch_format="pyarrow")
            .groupby("pp").sum("n")).take_all()
    return pd.DataFrame(sorted(
        ({"poly_a": upolys[r["pp"] // 4096],
          "poly_b": upolys[r["pp"] % 4096],
          "n_crossings": r["sum(n)"]} for r in rows),
        key=lambda x: (x["poly_a"], x["poly_b"])))



QUERIES["poly_edge_crossings"] = q_poly_edge_crossings



def _poly_crossings_sql() -> str:
    """SQL replay: poly-pair bbox prefilter (necessary condition, so
    lossless), then the SAME strict-crossing IEEE expressions edge
    against edge. Endpoint coords are stored, so every orientation
    term is sub/mul/sub in the engine's exact op order."""
    p = _poly_edges_path()
    return f"""
        WITH e AS (SELECT * FROM read_parquet('{p}')),
        bb AS (SELECT poly_id, min(least(x1, x2)) AS xlo,
                      max(greatest(x1, x2)) AS xhi,
                      min(least(y1, y2)) AS ylo,
                      max(greatest(y1, y2)) AS yhi
               FROM e GROUP BY 1),
        cand AS (SELECT a.poly_id AS pa_, b.poly_id AS pb_
                 FROM bb a JOIN bb b ON a.poly_id < b.poly_id
                 WHERE a.xlo <= b.xhi AND b.xlo <= a.xhi
                   AND a.ylo <= b.yhi AND b.ylo <= a.yhi),
        x AS (SELECT c.pa_, c.pb_,
                     (ea.x2 - ea.x1) AS dxi, (ea.y2 - ea.y1) AS dyi,
                     (eb.x2 - eb.x1) AS dxj, (eb.y2 - eb.y1) AS dyj,
                     ea.x1 AS xi, ea.y1 AS yi, ea.x2 AS xi2,
                     ea.y2 AS yi2,
                     eb.x1 AS xj, eb.y1 AS yj, eb.x2 AS xj2,
                     eb.y2 AS yj2
              FROM cand c
              JOIN e ea ON ea.poly_id = c.pa_
              JOIN e eb ON eb.poly_id = c.pb_),
        o AS (SELECT pa_, pb_,
                     dxi * (yj - yi) - dyi * (xj - xi) AS o1,
                     dxi * (yj2 - yi) - dyi * (xj2 - xi) AS o2,
                     dxj * (yi - yj) - dyj * (xi - xj) AS o3,
                     dxj * (yi2 - yj) - dyj * (xi2 - xj) AS o4
              FROM x)
        SELECT pa_ AS poly_a, pb_ AS poly_b,
               count(*) AS n_crossings
        FROM o
        WHERE ((o1 < 0) <> (o2 < 0)) AND o1 <> 0 AND o2 <> 0
          AND ((o3 < 0) <> (o4 < 0)) AND o3 <> 0 AND o4 <> 0
        GROUP BY 1, 2
    """



def q_bloom_fpr_audit(sf_dir: str):
    """Bloom-filter quality audit: build the distributed filter over
    January-1995 buyer keys (ops/bloom — constant-size bitmap partials
    OR-merged at the driver), probe EVERY customer key, and report the
    exact pass/true/false-positive counts — the measured FPR behind
    bloom_semi_join's ~1% design point. Probe partials carry three
    counters per batch; exact truth comes from the month-bounded
    keyset broadcast sorted."""
    from battery.ops.bloom import bloom_build, bloom_prefilter

    LO = np.datetime64("1995-01-01", "us")
    HI = np.datetime64("1995-02-01", "us")
    jan = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(lambda t: t.filter(pc.and_(
            pc.greater_equal(t["o_orderdate"], pa.scalar(LO)),
            pc.less(t["o_orderdate"], pa.scalar(HI))))
            .select(["o_custkey"]), batch_format="pyarrow")
    jan = jan.materialize()  # schema-probe law: count + build + truth
    n_rows = jan.count()
    fref, m, k = bloom_build(jan, "o_custkey", max(n_rows, 1))
    from battery.ops.relational import broadcast_dim

    # January custkeys are fact-scale: capped vectorized collect, no
    # per-row Python (VERDICT r3 #2)
    jk, _jt = broadcast_dim(jan, "o_custkey")
    truth = np.unique(jk)
    tref = ray.put(truth)

    cust = _read(sf_dir, "customer", ["c_custkey"])
    passed = bloom_prefilter(cust, "c_custkey", fref, m, k)

    def stats(t: pa.Table) -> pa.Table:
        tr = _broadcast(tref)
        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(tr, keys),
                       max(len(tr) - 1, 0))
        n_true = int((tr[i] == keys).sum()) if len(tr) else 0
        return pa.table({"n_pass": pa.array([len(keys)], pa.int64()),
                         "n_true": pa.array([n_true], pa.int64())})

    pdf = passed.map_batches(stats, batch_format="pyarrow").to_pandas()
    # an all-filtered input yields a SCHEMALESS empty frame (map fns
    # never run on empty blocks) — zero-fill, as the SQL replay does
    n_pass = int(pdf["n_pass"].sum()) if "n_pass" in pdf.columns else 0
    n_true = int(pdf["n_true"].sum()) if "n_true" in pdf.columns else 0
    n_probed = cust.count()
    return pd.DataFrame({"n_probed": [n_probed], "n_pass": [n_pass],
                         "n_true": [n_true],
                         "n_fp": [n_pass - n_true]})



QUERIES["bloom_fpr_audit"] = q_bloom_fpr_audit



def _bloom_fpr_sidecar(sf_dir: str) -> str:
    """Python-int replay for bloom_fpr_audit: rebuild the SAME filter
    (k=4 splitmix64 streams seeded (i+1)·GOLDEN, m = 10·n_rows rounded
    to words) with scalar arithmetic over a python set of bit
    positions, probe every customer, and emit the one-row truth.
    Content-keyed on ops/bloom.py + oracle_ref.py."""
    import battery.oracle_ref as _oref
    import battery.ops.bloom as _obloom
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_bloomfpr_{Path(sf_dir).name}_"
        f"{_mods_digest(_obloom, _oref)}.parquet")
    if not p.exists():
        M64 = (1 << 64) - 1
        GOLD = 0x9E3779B97F4A7C15

        def sm64_nogold(x: int) -> int:
            # synth.splitmix64 adds the gamma itself; oracle_ref.sm64
            # matches it exactly (gamma = GOLD)
            return _oref.sm64(x)

        o = pq.read_table(f"{sf_dir}/orders.parquet",
                          columns=["o_custkey", "o_orderdate"])
        us = o["o_orderdate"].cast(pa.int64()).to_pylist()
        lo = int(np.datetime64("1995-01-01", "us").astype(np.int64))
        hi = int(np.datetime64("1995-02-01", "us").astype(np.int64))
        keys = [c for c, u in zip(o["o_custkey"].to_pylist(), us)
                if lo <= u < hi]
        n_rows = len(keys)
        m = max(64, max(n_rows, 1) * 10)
        m = (m + 63) // 64 * 64
        kk = 4
        bits = set()
        for key in keys:
            ku = key & M64  # int64 view as uint64
            for i in range(kk):
                seed = ((i + 1) * GOLD) & M64
                bits.add(sm64_nogold((ku + seed) & M64) % m)
        truth = set(keys)
        cust = pq.read_table(f"{sf_dir}/customer.parquet",
                             columns=["c_custkey"])["c_custkey"] \
            .to_pylist()
        n_pass = n_true = 0
        for ck in cust:
            ku = ck & M64
            ok = all(
                sm64_nogold((ku + (((i + 1) * GOLD) & M64)) & M64) % m
                in bits for i in range(kk))
            if ok:
                n_pass += 1
                if ck in truth:
                    n_true += 1
        out = pa.table({
            "n_probed": pa.array([len(cust)], pa.int64()),
            "n_pass": pa.array([n_pass], pa.int64()),
            "n_true": pa.array([n_true], pa.int64()),
            "n_fp": pa.array([n_pass - n_true], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bloom_fpr_sql(sf_dir: str) -> str:
    return (f"SELECT n_probed, n_pass, n_true, n_fp "
            f"FROM read_parquet('{_bloom_fpr_sidecar(sf_dir)}')")



def q_scene_change_runs(sf_dir: str):
    """Scene-change segmentation per clip: with the fixed energy
    threshold 50 000, the number of CHANGE transitions (inter-frame
    |diff| energy above threshold) and the longest STATIC run of
    consecutive below-threshold transitions — the gaps-and-islands
    scan on the frame axis that picks which clips need denser
    sampling. Per-pair energies come from the same stacked-tensor
    |diff| as VideoMotionStage; runs resolve in one padded flat diff
    pass (False column between clips). Python-int replay sidecar."""
    from battery.ops.video import read_video_table

    T = 50_000
    ds = read_video_table(_video_dir_for(sf_dir))

    def runs(t: pa.Table) -> pa.Table:
        codecs = set(t["codec"].to_pylist())
        if codecs - {"rawseq"}:
            raise NotImplementedError(
                "only rawseq ships in this container")
        ids = t["clip_id"].to_numpy(zero_copy_only=False)
        nf = t["n_frames"].to_numpy(zero_copy_only=False)
        ws = t["w"].to_numpy(zero_copy_only=False)
        hs = t["h"].to_numpy(zero_copy_only=False)
        payloads = t["bytes"].to_pylist()
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, key in enumerate(zip(nf, ws, hs)):
            groups.setdefault(tuple(int(x) for x in key), []).append(i)
        out_id, out_ch, out_st = [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]).astype(np.int64)
            pp = np.abs(clips[:, 1:] - clips[:, :-1]).sum(axis=(2, 3, 4))
            static = pp <= T
            n_ch = (~static).sum(axis=1).astype(np.int64)
            padded = np.concatenate(
                [static, np.zeros((len(slots), 1), bool)],
                axis=1).ravel()
            d = np.diff(np.r_[np.int8(0), padded.view(np.int8)])
            starts = np.flatnonzero(d == 1)
            ends = np.flatnonzero(d == -1)
            lengths = (ends - starts).astype(np.int64)
            row = starts // (static.shape[1] + 1)
            longest = np.zeros(len(slots), np.int64)
            np.maximum.at(longest, row, lengths)
            out_id.append(ids[slots])
            out_ch.append(n_ch)
            out_st.append(longest)
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "n_changes": pa.array(np.concatenate(out_ch)),
            "longest_static": pa.array(np.concatenate(out_st))})

    return ds.map_batches(runs, batch_format="pyarrow", batch_size=32)



QUERIES["scene_change_runs"] = q_scene_change_runs



def _scene_change_sidecar(vid: str) -> str:
    """Python-int replay for scene_change_runs (per-pair scalar energy
    + a plain run loop). Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_scenechange_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        T = 50_000
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        rows = []
        for cid in ids.tolist():
            frames = [
                [int(v) for v in _sy.pixel_pattern(
                    np.array([cid * 64 + f], np.uint64),
                    _sy.VIDEO_W, _sy.VIDEO_H)[0].ravel().tolist()]
                for f in range(nf)]
            n_ch = best = cur = 0
            for f in range(nf - 1):
                e = sum(abs(a - b) for a, b in
                        zip(frames[f + 1], frames[f]))
                if e > T:
                    n_ch += 1
                    cur = 0
                else:
                    cur += 1
                    best = max(best, cur)
            rows.append({"clip_id": cid, "n_changes": n_ch,
                         "longest_static": best})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _scene_change_sql(vid: str) -> str:
    return (f"SELECT clip_id, n_changes, longest_static "
            f"FROM read_parquet('{_scene_change_sidecar(vid)}')")

__defined__ = (
    '_CORRIDOR_A',
    '_CORRIDOR_B',
    '_CORRIDOR_R2',
    '_SF_VIDEO_ROWS',
    '_audio_autocorr_sidecar',
    '_audio_autocorr_sql',
    '_audio_half_drift_sql',
    '_audio_zcr_sidecar',
    '_audio_zcr_sql',
    '_bloom_fpr_sidecar',
    '_bloom_fpr_sql',
    '_cell_dominant_sql',
    '_crossmodal_sql',
    '_dup_degree_sql',
    '_image_center_bias_sql',
    '_image_gradient_sidecar',
    '_image_gradient_sql',
    '_image_median_sidecar',
    '_image_median_sql',
    '_lang_confusion_sql',
    '_phash_popcount_sql',
    '_poly_crossings_sql',
    '_poly_edges_path',
    '_pq_residual_sql',
    '_route_overlap_sql',
    '_scene_change_sidecar',
    '_scene_change_sql',
    '_segment_octants_sql',
    '_stop_bbox_iou_sql',
    '_stop_hull_area_sidecar',
    '_stop_hull_area_sql',
    '_stop_spacing_sql',
    '_tile_corridor_sql',
    '_tile_viewport_sql',
    '_video_dir_for',
    '_video_motion_sidecar',
    '_video_motion_sql',
    '_video_sums_sidecar',
    '_video_sums_sql',
    'q_abc_classification_customers',
    'q_above_nation_avg_customers',
    'q_acquisition_conversion',
    'q_all_ontime_orders',
    'q_audio_autocorr_tracks',
    'q_audio_half_drift',
    'q_audio_zcr_tracks',
    'q_balance_asymmetry_nations',
    'q_bigram_coverage_langs',
    'q_bloom_fpr_audit',
    'q_burst_minutes_events',
    'q_business_lead_hist',
    'q_calibration_bins_embeddings',
    'q_cell_dominant_stop',
    'q_char_class_docs',
    'q_crossmodal_pairing_audit',
    'q_dict_encoding_audit',
    'q_disjunctive_pred_q19',
    'q_diversified_topk_orders',
    'q_doc_top_tokens',
    'q_dow_hour_heatmap_events',
    'q_dow_seasonality_orders',
    'q_dup_degree_hist',
    'q_dup_rate_sources',
    'q_embedding_drift_labels',
    'q_forecast_revenue_q6',
    'q_global_max_gap_events',
    'q_growth_accounting_quarters',
    'q_hapax_rate_sources',
    'q_hhi_nations',
    'q_image_center_bias',
    'q_image_gradient_energy',
    'q_image_median_gray',
    'q_ivm_priority_revenue',
    'q_label_gram_matrix',
    'q_lang_confusion_matrix',
    'q_large_volume_orders_q18',
    'q_late_shipments_q12',
    'q_lines_per_order_hist',
    'q_market_share_q8',
    'q_matryoshka_energy_labels',
    'q_nation_percentile_customers',
    'q_nation_quarter_qoq',
    'q_nn1_accuracy_labels',
    'q_order_gap_median_hist',
    'q_phash_popcount_stats',
    'q_poly_edge_crossings',
    'q_pq_residual_energy',
    'q_priority_exists_check_q4',
    'q_promo_revenue_share_q14',
    'q_purchase_gap_median',
    'q_returned_revenue_q10',
    'q_route_overlap_matrix',
    'q_scene_change_runs',
    'q_seasonal_index_months',
    'q_segment_octants_routes',
    'q_session_entry_exit_matrix',
    'q_session_gap_sweep',
    'q_silhouette_parts_labels',
    'q_size_price_moments_brands',
    'q_small_qty_revenue_q17',
    'q_source_trigram_affinity',
    'q_status_priority_crosstab',
    'q_status_share_monthly',
    'q_stop_bbox_iou_pairs',
    'q_stop_hull_area_parts',
    'q_stop_spacing_legs',
    'q_stream_dedup_ttl',
    'q_supplier_count_q16',
    'q_supplier_cov_nations',
    'q_supplier_mad_nations',
    'q_tile_corridor_query',
    'q_tile_viewport_query',
    'q_time_pyramid_counts',
    'q_top_supplier_q15',
    'q_transition_dwell_matrix',
    'q_trend_slope_users',
    'q_unigram_l1_langs',
    'q_user_feature_matrix',
    'q_video_frame_sums',
    'q_video_motion_energy',
    'q_vocab_growth_curve',
    'q_volatility_users',
    'q_waiting_customers_q22',
    'q_wallet_share_customers',
    'q_weekend_aov_parts',
    'q_zonemap_events',
)
