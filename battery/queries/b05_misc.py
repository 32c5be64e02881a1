"""Query battery part — 59 driver queries (split from the former single-module queries.py).

Registers:
audio_peak_tracks, vocab_jaccard_sources, daily_cross_source_moments,
linenumber_contiguity_audit, quadtree_depth_images,
childless_orders_audit, basket_pairs_user_days, route_sinuosity_parts,
rdp_retention_shapes, hilbert_range_counts, snm_candidate_pairs,
kmv_distinct_users, cn_link_prediction_dups, rle_runs_images,
mmr_topk_embeddings, audio_decimate_tracks, route_headways,
blob_geometry_images, kendall_nation_pairs, geohash_cell_counts,
dilation_area_images, excess_suppliers_q20, interp_fill_daily_users,
component_threshold_sweep_dups, route_coverage_deciles,
next_type_majority_accuracy, test_contamination_docs,
quota_allocation_sources, snm_recall_audit, dim_median_embeddings,
dispersion_class_users, int8_quant_audit_embeddings,
proj_profile_images, sentence_stats_docs, rbo_nation_rankings,
lbp_texture_images, line_price_trend_orders,
route_pair_min_vertex_dist, seam_energy_images,
log2_gap_histogram_users, skew_report_keys, type_drift_halves,
exclusion_funnel_users, hog4_images, audio_median_abs_tracks,
join_card_est_audit, er_canonical_docs, medoid_dup_clusters,
cell_count_gini, fair_share_sources, borda_topk_customers,
identical_behavior_users, trimmed_revenue_nations,
isotonic_monthly_revenue, pmi_bigrams_docs, hex_cell_counts,
dist_transform_images, zigzag_runs_users, median_filter_images
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from battery.ops.images import ImageDecodeStage

from .b01_core import (
    _dim_np,
    EMBEDDING_DUPS_SQL,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _fixture_ctx,
    _fixture_sql_dir,
    _geom_digest,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
    _rename,
    _sql_cell,
    _sql_quant,
    _sql_spread,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b04_misc import (
    _gray_modes_sidecar,
)  # noqa: F401



def _gray_modes_sql(img: str) -> str:
    return (f"SELECT image_id, mode1, count1, mode2, count2 "
            f"FROM read_parquet('{_gray_modes_sidecar(img)}')")



def q_audio_peak_tracks(sf_dir: str):
    """Peak amplitude per track: max |sample| with its FIRST sample
    index, plus the exact crest numerator peak²·n (compare against
    the frame-energy ledger for an all-integer crest factor) — the
    clipping/normalization pre-check. One |abs|-argmax per stacked
    batch tensor. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class PeakStage:
        def __init__(self):
            self.dec = AudioFrameStage().decoders["pcm16"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["track_id"].to_numpy(zero_copy_only=False)
            codecs = batch["codec"].to_pylist()
            if set(codecs) - {"pcm16"}:
                raise NotImplementedError("only pcm16 in container")
            rows = [self.dec(p) for p in batch["bytes"].to_pylist()]
            groups: dict[int, list[int]] = {}
            for i, r in enumerate(rows):
                groups.setdefault(len(r), []).append(i)
            out_id, out_p, out_i, out_c = [], [], [], []
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                av = np.abs(pcm)
                idx = av.argmax(axis=1)  # first max
                peak = av[np.arange(len(slots)), idx]
                out_id.append(ids[slots])
                out_p.append(peak)
                out_i.append(idx.astype(np.int64))
                out_c.append(peak * peak * np.int64(length))
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "peak": pa.array(np.concatenate(out_p)),
                "peak_idx": pa.array(np.concatenate(out_i)),
                "crest_num": pa.array(np.concatenate(out_c))})

    return ds.map_batches(PeakStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_peak_tracks"] = q_audio_peak_tracks



def _audio_peak_sidecar(aud: str) -> str:
    """Python-int replay for audio_peak_tracks. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiopeak_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            peak, pidx = -1, -1
            for i, v in enumerate(s):
                if abs(v) > peak:
                    peak, pidx = abs(v), i
            rows.append({"track_id": tid, "peak": peak,
                         "peak_idx": pidx,
                         "crest_num": peak * peak * len(s)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_peak_sql(aud: str) -> str:
    return (f"SELECT track_id, peak, peak_idx, crest_num "
            f"FROM read_parquet('{_audio_peak_sidecar(aud)}')")



def q_vocab_jaccard_sources(sf_dir: str):
    """Pairwise vocabulary overlap between sources via the inverted
    index — never a set×set driver product: distinct (token, source)
    pairs shuffle once; each TOKEN group emits its C(k,2) source
    pairs (bounded by the source dimension); one pair groupby yields
    |A∩B| for every source pair, with per-source vocab sizes
    broadcast in at the end. The corpus-mixing redundancy matrix.
    DISTINCT self-join replay."""
    from battery.ops.relational import _with_bucket

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks_l = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks_l)
        keep = pc.not_equal(flat, "")
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        lens)[keep.to_numpy(zero_copy_only=False)]
        fa = flat.filter(keep).to_numpy(zero_copy_only=False)
        u = pd.DataFrame({"token": fa, "source": src}) \
            .drop_duplicates()
        return pa.table({"token": pa.array(u["token"].to_numpy()),
                         "source": pa.array(u["source"].to_numpy())})

    pairs_ts = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby(["token", "source"]).count())

    def tkey(t: pa.Table) -> pa.Table:
        toks = t["token"].to_numpy(zero_copy_only=False)
        h = np.array([int.from_bytes(
            __import__("hashlib").blake2b(s.encode(),
                                          digest_size=7).digest(),
            "big") for s in toks.tolist()], np.int64)
        return pa.table({"token": t["token"], "source": t["source"],
                         "tk": pa.array(h)})

    def emit_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"source_a":
                                 pd.Series(dtype=object),
                                 "source_b":
                                 pd.Series(dtype=object),
                                 "inter": pd.Series(dtype=np.int64)})
        out_a, out_b = [], []
        for _, g in df.groupby("token", sort=False):
            ss = np.sort(g["source"].to_numpy())
            if len(ss) < 2:
                continue
            iu = np.triu_indices(len(ss), k=1)
            out_a.append(ss[iu[0]])
            out_b.append(ss[iu[1]])
        if not out_a:
            return pd.DataFrame({"source_a":
                                 pd.Series(dtype=object),
                                 "source_b":
                                 pd.Series(dtype=object),
                                 "inter": pd.Series(dtype=np.int64)})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        g2 = pd.DataFrame({"source_a": a, "source_b": b}) \
            .groupby(["source_a", "source_b"], as_index=False).size()
        return g2.rename(columns={"size": "inter"})

    inter = (_with_bucket(pairs_ts.map_batches(
        tkey, batch_format="pyarrow"), "tk", 8)
        .groupby("bucket").map_groups(emit_pairs,
                                      batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["source_a", "source_b"]).sum("inter"))
    inter = _rename(inter, ["source_a", "source_b", "inter"])

    sizes_rows = (pairs_ts.map_batches(
        lambda t: pa.table({"source": t["source"],
                            "n": pa.array(np.ones(t.num_rows,
                                                  np.int64))}),
        batch_format="pyarrow").groupby("source").sum("n")).take_all()
    sk = np.array(sorted(r["source"] for r in sizes_rows))
    sv = {r["source"]: r["sum(n)"] for r in sizes_rows}
    snp = np.array([sv[s] for s in sk.tolist()], np.int64)
    zref = ray.put((sk, snp))

    def attach(t: pa.Table) -> pa.Table:
        sk_, sn_ = _broadcast(zref)
        a = t["source_a"].to_numpy(zero_copy_only=False)
        b = t["source_b"].to_numpy(zero_copy_only=False)
        na = sn_[np.searchsorted(sk_, a)]
        nb = sn_[np.searchsorted(sk_, b)]
        return pa.table({"source_a": t["source_a"],
                         "source_b": t["source_b"],
                         "inter": t["inter"],
                         "na": pa.array(na), "nb": pa.array(nb)})

    return inter.map_batches(attach, batch_format="pyarrow")



QUERIES["vocab_jaccard_sources"] = q_vocab_jaccard_sources

ORACLE_SQL["vocab_jaccard_sources"] = """
        WITH tok AS (SELECT source,
                            unnest(string_split(text, ' ')) AS t
                     FROM documents),
        ts AS (SELECT DISTINCT source, t FROM tok WHERE t <> ''),
        sz AS (SELECT source, count(*) AS n FROM ts GROUP BY 1),
        ip AS (SELECT x.source AS source_a, y.source AS source_b,
                      count(*) AS inter
               FROM ts x JOIN ts y ON y.t = x.t
                                  AND y.source > x.source
               GROUP BY 1, 2)
        SELECT ip.source_a, ip.source_b,
               CAST(ip.inter AS BIGINT) AS inter,
               CAST(a.n AS BIGINT) AS na, CAST(b.n AS BIGINT) AS nb
        FROM ip JOIN sz a ON a.source = ip.source_a
                JOIN sz b ON b.source = ip.source_b
    """



def q_daily_cross_source_moments(sf_dir: str):
    """Cross-SOURCE cogroup: daily order count vs daily event count
    joined on the calendar day (absent side = 0), reduced to the six
    exact integer moments (n_days, Σx, Σy, Σxy, Σx², Σy²) behind the
    volume-correlation dashboards — two fact tables, one day
    co-partition, no row ever leaves as a pair. FULL OUTER day
    replay."""
    from battery.ops.relational import _with_bucket

    DAY = 86_400_000_000

    def oc(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].cast(pa.int64()).to_numpy() // DAY
        g = pa.table({"day": pa.array(d)}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "x": g["count_all"].cast(pa.int64()),
                         "y": pa.array(np.zeros(len(g), np.int64))})

    def ec(t: pa.Table) -> pa.Table:
        d = t["ts"].cast(pa.int64()).to_numpy() // DAY
        g = pa.table({"day": pa.array(d)}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "x": pa.array(np.zeros(len(g), np.int64)),
                         "y": g["count_all"].cast(pa.int64())})

    orders = _read(sf_dir, "orders", ["o_orderdate"]) \
        .map_batches(oc, batch_format="pyarrow", zero_copy_batch=True)
    events = _read(sf_dir, "events", ["ts"]) \
        .map_batches(ec, batch_format="pyarrow", zero_copy_batch=True)
    daily = (orders.union(events)
             .groupby("day").sum(["x", "y"]))
    daily = _rename(daily, ["day", "x", "y"])

    def part(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False)
        y = t["y"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_days": pa.array([len(x)], pa.int64()),
            "sum_x": pa.array([int(x.sum())], pa.int64()),
            "sum_y": pa.array([int(y.sum())], pa.int64()),
            "sum_xy": pa.array([int((x * y).sum())], pa.int64()),
            "sum_x2": pa.array([int((x * x).sum())], pa.int64()),
            "sum_y2": pa.array([int((y * y).sum())], pa.int64())})

    rows = daily.map_batches(part, batch_format="pyarrow").take_all()
    return pd.DataFrame({k: [int(sum(r[k] for r in rows))]
                         for k in ("n_days", "sum_x", "sum_y",
                                   "sum_xy", "sum_x2", "sum_y2")})



QUERIES["daily_cross_source_moments"] = q_daily_cross_source_moments

ORACLE_SQL["daily_cross_source_moments"] = """
        WITH o AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                          count(*) AS x
                   FROM orders GROUP BY 1),
        e AS (SELECT epoch_us(ts) // 86400000000 AS day,
                     count(*) AS y
              FROM events GROUP BY 1),
        d AS (SELECT COALESCE(o.day, e.day) AS day,
                     COALESCE(o.x, 0) AS x, COALESCE(e.y, 0) AS y
              FROM o FULL OUTER JOIN e ON e.day = o.day)
        SELECT CAST(count(*) AS BIGINT) AS n_days,
               CAST(SUM(x) AS BIGINT) AS sum_x,
               CAST(SUM(y) AS BIGINT) AS sum_y,
               CAST(SUM(x * y) AS BIGINT) AS sum_xy,
               CAST(SUM(x * x) AS BIGINT) AS sum_x2,
               CAST(SUM(y * y) AS BIGINT) AS sum_y2
        FROM d
    """



def q_linenumber_contiguity_audit(sf_dir: str):
    """Data-quality audit: are each order's line numbers exactly
    1..n? One partial (min, max, count) per orderkey — contiguity is
    the pure predicate min=1 AND max=n (line numbers are unique per
    order by construction; the audit catches drops and renumbering
    after merges). Output: orders, contiguous orders, max observed
    gap ceiling (max−count). Aggregate-predicate replay."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])

    def part(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t["l_orderkey"],
                      "ln": t["l_linenumber"].cast(pa.int64())}) \
            .group_by("k").aggregate([("ln", "min"), ("ln", "max"),
                                      ([], "count_all")])
        return pa.table({"k": g["k"],
                         "mn": g["ln_min"].cast(pa.int64()),
                         "mx": g["ln_max"].cast(pa.int64()),
                         "n": g["count_all"].cast(pa.int64())})

    agg = (li.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("k").aggregate(
               rd.aggregate.Min("mn"), rd.aggregate.Max("mx"),
               rd.aggregate.Sum("n")))

    def fin(t: pa.Table) -> pa.Table:
        mn = t["min(mn)"].to_numpy(zero_copy_only=False)
        mx = t["max(mx)"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        ok = (mn == 1) & (mx == n)
        return pa.table({
            "n_orders": pa.array([len(n)], pa.int64()),
            "n_contiguous": pa.array([int(ok.sum())], pa.int64()),
            "max_gap": pa.array([int((mx - n).max(initial=0))],
                                pa.int64())})

    rows = agg.map_batches(fin, batch_format="pyarrow").take_all()
    return pd.DataFrame({
        "n_orders": [int(sum(r["n_orders"] for r in rows))],
        "n_contiguous": [int(sum(r["n_contiguous"] for r in rows))],
        "max_gap": [int(max(r["max_gap"] for r in rows))]})



QUERIES["linenumber_contiguity_audit"] = q_linenumber_contiguity_audit

ORACLE_SQL["linenumber_contiguity_audit"] = """
        WITH a AS (SELECT l_orderkey, MIN(l_linenumber) AS mn,
                          MAX(l_linenumber) AS mx,
                          count(*) AS n
                   FROM lineitem GROUP BY 1)
        SELECT CAST(count(*) AS BIGINT) AS n_orders,
               CAST(SUM(CASE WHEN mn = 1 AND mx = n THEN 1 ELSE 0
                        END) AS BIGINT) AS n_contiguous,
               CAST(MAX(mx - n) AS BIGINT) AS max_gap
        FROM a
    """



def q_quadtree_depth_images(sf_dir: str):
    """Quadtree homogeneity decomposition per image (first 1024, on
    the square 2ⁿ core): split any block whose gray max−min > 32,
    recursively to 1-pixel leaves; report leaf count and max depth —
    the compression-planner signal (few leaves = flat frame). Each
    level is one vectorized reshape max/min over the whole batch
    tensor; the recursion is over LEVELS (≤ log₂ size), not pixels.
    Recursive python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)
    THR = 32

    class QuadStage:
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
            out_id, out_l, out_d = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                side = 1
                while side * 2 <= min(wi, hi):
                    side *= 2
                core = gray[:, :side, :side]
                k = len(slots)
                leaves = np.zeros(k, np.int64)
                depth = np.zeros(k, np.int64)
                # open[d] = boolean map of blocks at depth d still
                # split further; start with the root open
                open_blocks = np.ones((k, 1, 1), bool)
                d = 0
                size = side
                while size > 1:
                    half = size // 2
                    nb = (side // size) * 2
                    # parent splits iff parent max-min > THR;
                    # children of non-split parents never open
                    pb = core.reshape(k, nb // 2, size, nb // 2,
                                      size)
                    pmax = pb.max(axis=(2, 4))
                    pmin = pb.min(axis=(2, 4))
                    split = open_blocks & ((pmax - pmin) > THR)
                    # parents that do NOT split are leaves at depth d
                    leaf_here = open_blocks & ~split
                    leaves += leaf_here.sum(axis=(1, 2))
                    depth = np.maximum(depth,
                                       np.where(split.any(axis=(1,
                                                                2)),
                                                d + 1, 0))
                    open_blocks = np.repeat(
                        np.repeat(split, 2, axis=1), 2, axis=2)
                    size = half
                    d += 1
                # remaining open blocks are 1-px leaves
                leaves += open_blocks.sum(axis=(1, 2))
                out_id.append(ids[slots])
                out_l.append(leaves)
                out_d.append(depth)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "n_leaves": pa.array(np.concatenate(out_l)),
                "max_depth": pa.array(np.concatenate(out_d))})

    return ds.map_batches(QuadStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["quadtree_depth_images"] = q_quadtree_depth_images



def _quadtree_sidecar(img: str, n: int = 1024) -> str:
    """Recursive python replay for quadtree_depth_images.
    Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_quadtree_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        nl = np.zeros(len(ws), np.int64)
        md = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            side = 1
            while side * 2 <= min(wi, hi):
                side *= 2
            for j, slot in enumerate(m):
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(side)] for y in range(side)]

                def rec(y0, x0, size, d):
                    vals = [g[y][x]
                            for y in range(y0, y0 + size)
                            for x in range(x0, x0 + size)]
                    if size == 1 or max(vals) - min(vals) <= 32:
                        return 1, d
                    h2 = size // 2
                    tot, mx = 0, d
                    for dy in (0, h2):
                        for dx in (0, h2):
                            c, cd = rec(y0 + dy, x0 + dx, h2,
                                        d + 1)
                            tot += c
                            mx = max(mx, cd)
                    return tot, mx

                leaves, depth = rec(0, 0, side, 0)
                nl[slot] = leaves
                md[slot] = depth
        out = pa.table({"image_id": ids,
                        "n_leaves": pa.array(nl),
                        "max_depth": pa.array(md)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _quadtree_sql(img: str) -> str:
    return (f"SELECT image_id, n_leaves, max_depth "
            f"FROM read_parquet('{_quadtree_sidecar(img)}')")



def q_childless_orders_audit(sf_dir: str):
    """Fact-fact ANTI-join audit: orders with no lineitem at all —
    referential-integrity at fact scale, where neither side
    broadcasts: distinct child orderkeys come from per-batch
    np.unique partials, the parent side co-partitions against them
    by hashed bucket, and each bucket reports its orphan count.
    NOT EXISTS replay."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def dk(t: pa.Table) -> pa.Table:
        k = np.unique(t["l_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(k),
                         "side": pa.array(
                             np.zeros(len(k), np.int64))})

    child = (li.map_batches(dk, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("k").min("side"))
    child = _rename(child, ["k", "side"])

    orders = _read(sf_dir, "orders", ["o_orderkey"]) \
        .map_batches(lambda t: pa.table(
            {"k": t["o_orderkey"].cast(pa.int64()),
             "side": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n_orders":
                                 pd.Series(dtype=np.int64),
                                 "n_childless":
                                 pd.Series(dtype=np.int64)})
        k = df["k"].to_numpy(np.int64)
        side = df["side"].to_numpy(np.int64)
        parents = k[side == 1]
        children = np.unique(k[side == 0])
        pos = np.searchsorted(children, parents)
        safe = np.minimum(pos, max(len(children) - 1, 0))
        has = (len(children) > 0) \
            and (children[safe] == parents)
        n_child = int(has.sum()) if len(children) else 0
        return pd.DataFrame({
            "n_orders": [len(parents)],
            "n_childless": [len(parents) - n_child]})

    rows = (_with_bucket(child.union(orders), "k", 16)
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")) \
        .take_all()
    return pd.DataFrame({
        "n_orders": [int(sum(r["n_orders"] for r in rows))],
        "n_childless": [int(sum(r["n_childless"] for r in rows))]})



QUERIES["childless_orders_audit"] = q_childless_orders_audit

ORACLE_SQL["childless_orders_audit"] = """
        SELECT CAST(count(*) AS BIGINT) AS n_orders,
               CAST(SUM(CASE WHEN NOT EXISTS (
                   SELECT 1 FROM lineitem l
                   WHERE l.l_orderkey = o.o_orderkey)
                   THEN 1 ELSE 0 END) AS BIGINT) AS n_childless
        FROM orders o
    """



def q_basket_pairs_user_days(sf_dir: str):
    """Market-basket pair support at (user, day) grain: for every
    unordered event-type pair, in how many user-day baskets both
    occurred — the finer-grained sibling of the lifetime
    co-occurrence matrix (a pair a user touches in the same SESSION
    day is a far stronger association). Same documented bitmask path:
    distinct (basket, type) partials, one basket co-partition, masks
    per basket, pair counts from the ≤2^k distinct masks. DISTINCT
    double-join replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    DAY = 86_400_000_000
    types_rows = (ev.map_batches(
        lambda t: pa.table({"event_type":
                            t["event_type"].unique()
                            if isinstance(t["event_type"], pa.Array)
                            else t["event_type"].combine_chunks()
                            .unique()}),
        batch_format="pyarrow").groupby("event_type").count()) \
        .take_all()
    types = np.sort(np.array([r["event_type"] for r in types_rows]))
    assert len(types) < 64, "bitmask path contract"
    tref = ray.put(types)

    def part(t: pa.Table) -> pa.Table:
        types_ = _broadcast(tref)
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        day = t["ts"].cast(pa.int64()).to_numpy() // DAY
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ti = np.searchsorted(types_, et)
        df = pd.DataFrame({"u": u, "d": day, "ti": ti}) \
            .drop_duplicates()
        return pa.table({"u": pa.array(df["u"].to_numpy(np.int64)),
                         "d": pa.array(df["d"].to_numpy(np.int64)),
                         "ti": pa.array(df["ti"]
                                        .to_numpy(np.int64))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"mask": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64)})
        u = df["u"].to_numpy(np.int64)
        d = df["d"].to_numpy(np.int64)
        ti = df["ti"].to_numpy(np.int64)
        o = np.lexsort((ti, d, u))
        u, d, ti = u[o], d[o], ti[o]
        nb = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        seg = np.cumsum(nb) - 1
        # drop within-basket duplicate types (cross-batch dups)
        first = np.r_[True, (seg[1:] != seg[:-1])
                      | (ti[1:] != ti[:-1])]
        seg, ti = seg[first], ti[first]
        masks = np.zeros(seg[-1] + 1, np.int64)
        np.bitwise_or.at(masks, seg, np.int64(1) << ti)
        g = pd.DataFrame({"mask": masks}).groupby(
            "mask", as_index=False).size()
        return g.rename(columns={"size": "n"})

    baskets = (ev.map_batches(part, batch_format="pyarrow")
               .groupby(["u", "d", "ti"]).count()
               .map_batches(lambda t: t.select(["u", "d", "ti"]),
                            batch_format="pyarrow"))
    masks = (_with_bucket(baskets, "u", 16)
             .groupby("bucket").map_groups(fold,
                                           batch_format="pandas")
             .map_batches(lambda t: t, batch_format="pyarrow")
             .groupby("mask").sum("n")).take_all()
    mk = np.array([r["mask"] for r in masks], np.int64)
    mn = np.array([r["sum(n)"] for r in masks], np.int64)
    out_a, out_b, out_n = [], [], []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            bit = (np.int64(1) << i) | (np.int64(1) << j)
            sup = int(mn[(mk & bit) == bit].sum())
            out_a.append(types[i])
            out_b.append(types[j])
            out_n.append(sup)
    return pd.DataFrame({"type_a": out_a, "type_b": out_b,
                         "n_baskets": np.array(out_n, np.int64)})



QUERIES["basket_pairs_user_days"] = q_basket_pairs_user_days

ORACLE_SQL["basket_pairs_user_days"] = """
        WITH b AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 86400000000 AS day,
                          event_type
                   FROM events),
        p AS (SELECT x.event_type AS type_a, y.event_type AS type_b,
                     count(*) AS n
              FROM b x JOIN b y ON y.user_id = x.user_id
                               AND y.day = x.day
                               AND y.event_type > x.event_type
              GROUP BY 1, 2),
        t AS (SELECT DISTINCT event_type FROM events)
        SELECT a.event_type AS type_a, c.event_type AS type_b,
               CAST(COALESCE(p.n, 0) AS BIGINT) AS n_baskets
        FROM t a JOIN t c ON c.event_type > a.event_type
        LEFT JOIN p ON p.type_a = a.event_type
                   AND p.type_b = c.event_type
    """



# ---------------------------------------------------------------------------
# route_sinuosity_parts: exact-integer path/chord energy per GTFS shape
# ---------------------------------------------------------------------------

def q_route_sinuosity_parts(sf_dir: str):
    """Sinuosity decomposition per GTFS shape: path 'energy' (sum of
    squared consecutive-point segment lengths) vs chord energy (squared
    first-to-last distance), both exact int64 on the e6 coordinate
    lattice — the winding-vs-straight signal behind corridor vs loop
    route classification (reference shapes → LineString ordering,
    src/lib/geojson-utils.ts:209-253 emits the same seq-sorted points).
    Grain = shape; the map_groups co-partition bounds per-task work by
    shape length, never corpus size. LAG-window SQL replay."""
    d = _fixture_sql_dir()
    ds = rd.read_parquet(f"{d}/shapes.parquet",
                         columns=["shape_id", "shape_pt_sequence",
                                  "shape_pt_lat", "shape_pt_lon"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        x = np.floor(df["shape_pt_lon"].to_numpy() * 1e6
                     + 0.5).astype(np.int64)
        y = np.floor(df["shape_pt_lat"].to_numpy() * 1e6
                     + 0.5).astype(np.int64)
        dx, dy = np.diff(x), np.diff(y)
        cx, cy = int(x[-1] - x[0]), int(y[-1] - y[0])
        return pd.DataFrame({
            "shape_id": [df["shape_id"].iloc[0]],
            "n_points": np.array([len(x)], np.int64),
            "path_d2": np.array([int((dx * dx + dy * dy).sum())],
                                np.int64),
            "chord_d2": np.array([cx * cx + cy * cy], np.int64)})

    return ds.groupby("shape_id").map_groups(fold,
                                             batch_format="pandas")



QUERIES["route_sinuosity_parts"] = q_route_sinuosity_parts



def _route_sinuosity_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH q AS (SELECT shape_id,
                   CAST(floor(shape_pt_lon * 1000000.0 + 0.5) AS BIGINT) AS x,
                   CAST(floor(shape_pt_lat * 1000000.0 + 0.5) AS BIGINT) AS y,
                   shape_pt_sequence AS seq
                   FROM read_parquet('{d}/shapes.parquet')),
        w AS (SELECT shape_id, x, y, seq,
                     x - lag(x) OVER (PARTITION BY shape_id ORDER BY seq) AS dx,
                     y - lag(y) OVER (PARTITION BY shape_id ORDER BY seq) AS dy
              FROM q)
        SELECT shape_id,
               CAST(count(*) AS BIGINT) AS n_points,
               CAST(COALESCE(sum(dx * dx + dy * dy), 0) AS BIGINT) AS path_d2,
               CAST((arg_max(x, seq) - arg_min(x, seq))
                  * (arg_max(x, seq) - arg_min(x, seq))
                  + (arg_max(y, seq) - arg_min(y, seq))
                  * (arg_max(y, seq) - arg_min(y, seq)) AS BIGINT) AS chord_d2
        FROM w GROUP BY shape_id
    """



# ---------------------------------------------------------------------------
# rdp_retention_shapes: simplification retention curve (M4 as a query)
# ---------------------------------------------------------------------------

_RDP_EPS_E6 = (100, 500, 2000)



def q_rdp_retention_shapes(sf_dir: str):
    """Simplification retention curve: retained-vertex count of the
    RDP kernel (geom/rdp.py — the M4 simplifyGeoJSON operator,
    reference src/lib/geojson-utils.ts:119-147) per GTFS shape at three
    tolerances. Engine = the vectorized stack-based kernel; oracle =
    an INDEPENDENT scalar-python replay (oracle_ref.rdp_keep_count,
    same expression order + first-argmax tie rule, no numpy) committed
    as a content-keyed sidecar — a vectorization bug cannot live in
    both. Per-shape co-partition bounds task work by shape length."""
    from geotile.geom.rdp import rdp

    d = _fixture_sql_dir()
    ds = rd.read_parquet(f"{d}/shapes.parquet",
                         columns=["shape_id", "shape_pt_sequence",
                                  "shape_pt_lat", "shape_pt_lon"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        pts = np.column_stack([df["shape_pt_lon"].to_numpy(),
                               df["shape_pt_lat"].to_numpy()])
        sid = df["shape_id"].iloc[0]
        return pd.DataFrame({
            "shape_id": [sid] * len(_RDP_EPS_E6),
            "eps_e6": np.array(_RDP_EPS_E6, np.int64),
            "n_kept": np.array([len(rdp(pts, e / 1e6))
                                for e in _RDP_EPS_E6], np.int64)})

    return ds.groupby("shape_id").map_groups(fold,
                                             batch_format="pandas")



QUERIES["rdp_retention_shapes"] = q_rdp_retention_shapes



def _rdp_retention_sidecar() -> str:
    """Scalar-RDP retained counts for every fixture shape × tolerance,
    content-keyed on oracle_ref + synth (fixture content)."""
    import battery.oracle_ref as _ref
    import geotile.synth as _synth

    p = (_oracle_cache_dir()
         / f"oracle_rdp_caltrain_{_mods_digest(_ref, _synth)}.parquet")
    if not p.exists():
        import pyarrow.parquet as pq

        from battery.oracle_ref import rdp_keep_count

        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        d = _fixture_sql_dir()
        t = pq.read_table(
            f"{d}/shapes.parquet",
            columns=["shape_id", "shape_pt_sequence",
                     "shape_pt_lat", "shape_pt_lon"],
        ).sort_by([("shape_id", "ascending"),
                   ("shape_pt_sequence", "ascending")])
        sids = t["shape_id"].to_pylist()
        xs = t["shape_pt_lon"].to_pylist()
        ys = t["shape_pt_lat"].to_pylist()
        rows_s, rows_e, rows_n = [], [], []
        i = 0
        while i < len(sids):
            j = i
            while j < len(sids) and sids[j] == sids[i]:
                j += 1
            for e in _RDP_EPS_E6:
                rows_s.append(sids[i])
                rows_e.append(e)
                rows_n.append(rdp_keep_count(xs[i:j], ys[i:j], e / 1e6))
            i = j
        _atomic_write_table(
            pa.table({"shape_id": pa.array(rows_s, pa.string()),
                      "eps_e6": pa.array(rows_e, pa.int64()),
                      "n_kept": pa.array(rows_n, pa.int64())}), p)
    return str(p)



def _rdp_retention_sql() -> str:
    return (f"SELECT shape_id, eps_e6, n_kept "
            f"FROM read_parquet('{_rdp_retention_sidecar()}')")



# ---------------------------------------------------------------------------
# hilbert_range_counts: Hilbert vs Morton clustering number per viewport
# ---------------------------------------------------------------------------

_HC_RES = 16  # 65536×65536 grid: the fixture ROI occupies ~10^3 cells

# (x0, x1, y0, y1) inclusive res-16 cell rectangles over the synth ROI
_HC_RECTS = ((10400, 10600, 46200, 46550),
             (10484, 10530, 46246, 46400),
             (10520, 10587, 46350, 46523))



def q_hilbert_range_counts(sf_dir: str):
    """Hilbert-curve locality audit: for three viewport rectangles,
    the CLUSTERING NUMBER — how many contiguous curve-index runs the
    rectangle's occupied res-16 cells decompose into — under Hilbert
    vs Morton ordering (Moon/Jagadish/Faloutsos/Saltz: Hilbert's runs
    are provably fewer ⇒ fewer seeks when a 100-TB tile store lays out
    row groups in curve order; this query MEASURES that layout choice).
    Scale: the fact pass emits per-batch DISTINCT (rect, cell) partials
    — the shuffle carries occupied CELLS, not rows — and the per-rect
    runs fold is bounded by rectangle occupancy. Oracle: independent
    scalar-python Hilbert sidecar per occupied cell
    (oracle_ref.hilbert_xy2d) + window-LAG run counting in SQL; the
    Morton order replays via the proven _sql_spread bit ops."""
    from geotile.geom import cells
    from battery.geom.hilbert import hilbert_xy2d
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir), columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        ix, iy = cells._quantize(lon, lat, _HC_RES)
        packs = []
        for rid, (x0, x1, y0, y1) in enumerate(_HC_RECTS):
            m = (ix >= x0) & (ix <= x1) & (iy >= y0) & (iy <= y1)
            if m.any():
                packs.append(np.unique((np.int64(rid) << 34)
                                       | (ix[m] << 17) | iy[m]))
        allp = (np.unique(np.concatenate(packs)) if packs
                else np.empty(0, np.int64))
        return pa.table({"p": pa.array(allp)})

    distinct = (ds.map_batches(part, batch_format="pyarrow")
                .groupby("p").count()
                .map_batches(lambda t: pa.table({
                    "rect_id": pc.shift_right(t["p"], 34),
                    "ix": pc.bit_wise_and(pc.shift_right(t["p"], 17),
                                          0x1FFFF),
                    "iy": pc.bit_wise_and(t["p"], 0x1FFFF)}),
                    batch_format="pyarrow"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ix = df["ix"].to_numpy().astype(np.int64)
        iy = df["iy"].to_numpy().astype(np.int64)
        ch = np.sort(hilbert_xy2d(_HC_RES, ix, iy))
        cm = np.sort((cells._spread(ix.astype(np.uint64))
                      | (cells._spread(iy.astype(np.uint64))
                         << np.uint64(1))).view(np.int64))

        def runs(c: np.ndarray) -> int:
            return int(1 + (np.diff(c) > 1).sum()) if len(c) else 0

        return pd.DataFrame({
            "rect_id": np.array([df["rect_id"].iloc[0]], np.int64),
            "n_cells": np.array([len(ix)], np.int64),
            "hilbert_runs": np.array([runs(ch)], np.int64),
            "morton_runs": np.array([runs(cm)], np.int64)})

    got = (distinct.groupby("rect_id")
           .map_groups(fold, batch_format="pandas")).take_all()
    by = {int(r["rect_id"]): r for r in got}
    rows = [(rid,
             int(by[rid]["n_cells"]) if rid in by else 0,
             int(by[rid]["hilbert_runs"]) if rid in by else 0,
             int(by[rid]["morton_runs"]) if rid in by else 0)
            for rid in range(len(_HC_RECTS))]
    return pd.DataFrame({
        "rect_id": np.array([r[0] for r in rows], np.int64),
        "n_cells": np.array([r[1] for r in rows], np.int64),
        "hilbert_runs": np.array([r[2] for r in rows], np.int64),
        "morton_runs": np.array([r[3] for r in rows], np.int64)})



QUERIES["hilbert_range_counts"] = q_hilbert_range_counts



def _hilbert_cells_sidecar(img_dir: str) -> str:
    """Scalar-Hilbert code for every occupied res-16 cell of the image
    table — content-keyed on oracle_ref.py."""
    import battery.oracle_ref as _ref

    from pathlib import Path as _P

    p = (_oracle_cache_dir()
         / f"oracle_hilbert_{_P(img_dir).name}_{_mods_digest(_ref)}.parquet")
    if not p.exists():
        import glob

        import pyarrow.parquet as pq

        from geotile.geom import cells
        from battery.oracle_ref import hilbert_xy2d as _h_ref

        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        t = pa.concat_tables(
            [pq.read_table(f, columns=["lon", "lat"])
             for f in sorted(glob.glob(f"{img_dir}/part-*.parquet"))])
        ix, iy = cells._quantize(t["lon"].to_numpy(),
                                 t["lat"].to_numpy(), _HC_RES)
        u = np.unique((ix << 17) | iy)
        uix = (u >> 17).tolist()
        uiy = (u & 0x1FFFF).tolist()
        codes = [_h_ref(_HC_RES, int(a), int(b))
                 for a, b in zip(uix, uiy)]
        _atomic_write_table(
            pa.table({"ix": pa.array(uix, pa.int64()),
                      "iy": pa.array(uiy, pa.int64()),
                      "code_h": pa.array(codes, pa.int64())}), p)
    return str(p)



def _hilbert_ranges_sql(img_dir: str) -> str:
    sidecar = _hilbert_cells_sidecar(img_dir)
    vals = ", ".join(f"({rid}, {x0}, {x1}, {y0}, {y1})"
                     for rid, (x0, x1, y0, y1) in enumerate(_HC_RECTS))
    morton = (f"({_sql_spread('c.ix')} | ({_sql_spread('c.iy')} << 1))")
    return f"""
        WITH rects(rect_id, x0, x1, y0, y1) AS (VALUES {vals}),
        g AS (SELECT {_sql_quant('lon', '180.0', '360.0', _HC_RES)} AS ix,
                     {_sql_quant('lat', '90.0', '180.0', _HC_RES)} AS iy
              FROM read_parquet('{img_dir}/part-*.parquet')),
        c AS (SELECT DISTINCT r.rect_id, g.ix, g.iy
              FROM g JOIN rects r ON g.ix BETWEEN r.x0 AND r.x1
                                 AND g.iy BETWEEN r.y0 AND r.y1),
        j AS (SELECT c.rect_id, h.code_h, {morton} AS code_m
              FROM c JOIN read_parquet('{sidecar}') h
                ON h.ix = c.ix AND h.iy = c.iy),
        rh AS (SELECT rect_id, count(*) AS n_cells,
                      sum(CASE WHEN prev IS NULL OR code_h - prev > 1
                               THEN 1 ELSE 0 END) AS hilbert_runs
               FROM (SELECT rect_id, code_h,
                            lag(code_h) OVER (PARTITION BY rect_id
                                              ORDER BY code_h) AS prev
                     FROM j)
               GROUP BY rect_id),
        rm AS (SELECT rect_id,
                      sum(CASE WHEN prev IS NULL OR code_m - prev > 1
                               THEN 1 ELSE 0 END) AS morton_runs
               FROM (SELECT rect_id, code_m,
                            lag(code_m) OVER (PARTITION BY rect_id
                                              ORDER BY code_m) AS prev
                     FROM j)
               GROUP BY rect_id)
        SELECT r.rect_id,
               CAST(COALESCE(rh.n_cells, 0) AS BIGINT) AS n_cells,
               CAST(COALESCE(rh.hilbert_runs, 0) AS BIGINT) AS hilbert_runs,
               CAST(COALESCE(rm.morton_runs, 0) AS BIGINT) AS morton_runs
        FROM rects r LEFT JOIN rh USING (rect_id)
        LEFT JOIN rm USING (rect_id)
    """



# ---------------------------------------------------------------------------
# snm_candidate_pairs: Sorted Neighborhood Method dedup blocking
# ---------------------------------------------------------------------------

_SNM_W = 2          # window width (pairs with rank gap 1.._SNM_W)

_SNM_KEYLEN = 12    # blocking key = first 12 chars of despaced lowercase



def q_snm_candidate_pairs(sf_dir: str):
    """Sorted Neighborhood Method (Hernández/Stolfo) — the THIRD
    classic dedup-blocking family next to MinHash-LSH and SimHash
    banding: sort the corpus by a blocking key (despaced lowercase
    12-char prefix), slide a width-W window, emit candidate pairs.
    Distributed as RANGE partition + boundary handoff: docs co-partition
    by the key's 2-char prefix (prefix order == global sort order, so
    partitions are contiguous rank ranges); each partition sorts
    locally, emits its in-window pairs, and hands its first/last W rows
    (≤ 2W per partition, O(1)) to the driver, which stitches the
    cross-partition pairs — the same bounded-stitch discipline as
    global_max_gap_events. No global sort, no corpus-scale driver
    state. ROW_NUMBER self-join replay."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(t: pa.Table) -> pa.Table:
        key = pc.utf8_slice_codeunits(
            pc.utf8_lower(pc.replace_substring(t["text"], " ", "")),
            0, _SNM_KEYLEN)
        pref = pc.utf8_slice_codeunits(key, 0, 2)
        return pa.table({"doc_id": t["doc_id"], "key": key,
                         "prefix": pref})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["key", "doc_id"], kind="stable") \
            .reset_index(drop=True)
        n = len(df)
        ids = df["doc_id"].to_numpy(np.int64)
        keys = df["key"].to_numpy()
        rows = {"kind": [], "a": [], "b": [], "gap": [],
                "same_key": [], "prefix": [], "r": [], "n": [],
                "key": []}
        for w in range(1, _SNM_W + 1):
            if n <= w:
                break
            rows["kind"].extend([0] * (n - w))
            rows["a"].extend(ids[:-w].tolist())
            rows["b"].extend(ids[w:].tolist())
            rows["gap"].extend([w] * (n - w))
            rows["same_key"].extend(
                (keys[:-w] == keys[w:]).astype(np.int64).tolist())
            rows["prefix"].extend([""] * (n - w))
            rows["r"].extend([0] * (n - w))
            rows["n"].extend([0] * (n - w))
            rows["key"].extend([""] * (n - w))
        hand = sorted(set(range(min(_SNM_W, n)))
                      | set(range(max(0, n - _SNM_W), n)))
        pref = df["prefix"].iloc[0]
        for r in hand:
            rows["kind"].append(1)
            rows["a"].append(int(ids[r]))
            rows["b"].append(0)
            rows["gap"].append(0)
            rows["same_key"].append(0)
            rows["prefix"].append(pref)
            rows["r"].append(r)
            rows["n"].append(n)
            rows["key"].append(keys[r])
        return pd.DataFrame({
            "kind": np.array(rows["kind"], np.int64),
            "a": np.array(rows["a"], np.int64),
            "b": np.array(rows["b"], np.int64),
            "gap": np.array(rows["gap"], np.int64),
            "same_key": np.array(rows["same_key"], np.int64),
            "prefix": rows["prefix"], "r": np.array(rows["r"], np.int64),
            "n": np.array(rows["n"], np.int64), "key": rows["key"]})

    tagged = (ds.map_batches(keyed, batch_format="pyarrow")
              .groupby("prefix").map_groups(fold, batch_format="pandas"))

    tagged = tagged.materialize()  # consumed twice (pairs + handoff)
    pairs = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0))
        .select(["a", "b", "gap", "same_key"]),
        batch_format="pyarrow")

    # driver sees ONLY the ≤2W-per-partition handoff rows, never pairs
    hand = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 1))
        .select(["a", "prefix", "r", "n", "key"]),
        batch_format="pyarrow").take_all()
    hand.sort(key=lambda r: (r["prefix"], r["r"]))
    # global offsets: partitions are contiguous in prefix order
    sizes: dict[str, int] = {}
    for r in hand:
        sizes[r["prefix"]] = r["n"]
    off, acc = {}, 0
    for p in sorted(sizes):
        off[p] = acc
        acc += sizes[p]
    ranked = sorted(
        ((off[r["prefix"]] + r["r"], r["a"], r["key"], r["prefix"])
         for r in hand))
    xa, xb, xg, xs = [], [], [], []
    for i, (gi, ai, ki, pi) in enumerate(ranked):
        for j in range(i + 1, len(ranked)):
            gj, aj, kj, pj = ranked[j]
            if gj - gi > _SNM_W:
                break
            if pj != pi:  # same-prefix pairs already emitted in fold
                xa.append(ai)
                xb.append(aj)
                xg.append(gj - gi)
                xs.append(int(ki == kj))
    cross = rd.from_arrow(pa.table({
        "a": pa.array(xa, pa.int64()), "b": pa.array(xb, pa.int64()),
        "gap": pa.array(xg, pa.int64()),
        "same_key": pa.array(xs, pa.int64())}))
    return pairs.union(cross)



QUERIES["snm_candidate_pairs"] = q_snm_candidate_pairs

ORACLE_SQL["snm_candidate_pairs"] = f"""
        WITH k AS (SELECT doc_id,
                          substr(lower(replace(text, ' ', '')), 1,
                                 {_SNM_KEYLEN}) AS key
                   FROM documents),
        o AS (SELECT doc_id, key,
                     row_number() OVER (ORDER BY key, doc_id) AS rn
              FROM k)
        SELECT i.doc_id AS a, j.doc_id AS b,
               CAST(j.rn - i.rn AS BIGINT) AS gap,
               CAST(CASE WHEN i.key = j.key THEN 1 ELSE 0 END
                    AS BIGINT) AS same_key
        FROM o i JOIN o j ON j.rn > i.rn AND j.rn <= i.rn + {_SNM_W}
    """



# ---------------------------------------------------------------------------
# kmv_distinct_users: k-minimum-values distinct sketch (exact replay)
# ---------------------------------------------------------------------------

_KMV_K = 256



def q_kmv_distinct_users(sf_dir: str):
    """KMV (k-minimum-values / bottom-k) distinct sketch over event
    users — HLL's order-statistics sibling (Bar-Yossef et al.): keep
    the K smallest splitmix64 hash values; est = (K-1)·2^64 / h_(K)
    (exact count when distinct < K). Per-batch partials are ≤ K rows
    (mergeable bottom-k), the driver merge handles ≤ K·n_blocks
    values — constant per block regardless of corpus scale. Unlike
    the HLL query's bounded-error oracle, KMV's estimate is a pure
    order statistic, so the oracle replays it EXACTLY: scalar-python
    sm64 sidecar per distinct user, ROW_NUMBER in SQL, HUGEINT
    division."""
    from geotile.synth import splitmix64

    ds = _read(sf_dir, "events", ["user_id"])

    def part(t: pa.Table) -> pa.Table:
        u = np.unique(t["user_id"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        h = splitmix64(u.view(np.uint64))
        if len(h) > _KMV_K:
            h = np.partition(h, _KMV_K - 1)[:_KMV_K]
        return pa.table({"h": pa.array(np.sort(h).view(np.int64))})

    parts = ds.map_batches(part, batch_format="pyarrow").take_all()
    h = np.unique(np.array([r["h"] for r in parts],
                           np.int64).view(np.uint64))
    if len(h) < _KMV_K:
        est, k = len(h), len(h)
    else:
        hk = int(np.sort(h)[_KMV_K - 1])
        est = ((_KMV_K - 1) << 64) // hk
        k = _KMV_K
    return pd.DataFrame({"est": np.array([est], np.int64),
                         "k": np.array([k], np.int64)})



QUERIES["kmv_distinct_users"] = q_kmv_distinct_users



def _kmv_sidecar(sf_dir: str) -> str:
    """Scalar sm64 hash per distinct user — independent of the
    vectorized synth.splitmix64 the engine uses."""
    import battery.oracle_ref as _ref
    from pathlib import Path as _P

    p = (_oracle_cache_dir()
         / f"oracle_kmv_{_P(sf_dir).name}_{_mods_digest(_ref)}.parquet")
    if not p.exists():
        import pyarrow.parquet as pq

        from battery.oracle_ref import sm64

        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        M64 = (1 << 64) - 1
        users = np.unique(
            pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["user_id"])["user_id"]
            .to_numpy(zero_copy_only=False).astype(np.int64))
        hs = [sm64(int(u) & M64) for u in users.tolist()]
        _atomic_write_table(
            pa.table({"user_id": pa.array(users),
                      "h": pa.array(hs, pa.uint64())}), p)
    return str(p)



def _kmv_sql(sf_dir: str) -> str:
    sidecar = _kmv_sidecar(sf_dir)
    return f"""
        WITH u AS (SELECT DISTINCT user_id FROM events),
        hh AS (SELECT s.h FROM u
               JOIN read_parquet('{sidecar}') s USING (user_id)),
        o AS (SELECT h, row_number() OVER (ORDER BY h) AS rn FROM hh),
        n AS (SELECT count(*) AS nd FROM hh)
        SELECT CAST(CASE WHEN n.nd < {_KMV_K} THEN n.nd
                    ELSE ({_KMV_K - 1} * CAST('18446744073709551616'
                                              AS HUGEINT))
                         // (SELECT CAST(h AS HUGEINT) FROM o
                             WHERE rn = {_KMV_K})
               END AS BIGINT) AS est,
               CAST(least(n.nd, {_KMV_K}) AS BIGINT) AS k
        FROM n
    """



# ---------------------------------------------------------------------------
# cn_link_prediction_dups: common-neighbor scores for non-edges
# ---------------------------------------------------------------------------

def q_cn_link_prediction_dups(sf_dir: str):
    """Common-neighbor link prediction on the near-dup graph: for every
    2-hop-connected NON-adjacent pair, the number of shared neighbours
    — the canonical 'these two docs are probably dups the threshold
    missed' score (the open-wedge complement of triangle_dups). Wedge
    fan-out per middle node (C(deg,2) packed pairs, the
    butterfly_count_cs discipline), one pair-key groupby, existing
    edges removed by broadcast sorted-array anti-lookup (edge set is
    dedup-output scale). Wedge self-join replay."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    if not pairs:
        return pd.DataFrame({"a": pd.Series(dtype=np.int64),
                             "b": pd.Series(dtype=np.int64),
                             "cn": pd.Series(dtype=np.int64)})
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    nodes, starts = np.unique(u, return_index=True)
    ends = np.r_[starts[1:], len(u)]
    epack = np.sort((a.astype(np.int64) << 32) | b.astype(np.int64))
    aref = ray.put((nodes, starts, ends, v, epack))

    ds = rd.from_arrow(pa.table({"node": pa.array(nodes)})) \
        .repartition(4)

    def wedges(t: pa.Table) -> pa.Table:
        nodes_, starts_, ends_, adj, _ = _broadcast(aref)
        packs = []
        for nd in t["node"].to_numpy(zero_copy_only=False).tolist():
            i = np.searchsorted(nodes_, nd)
            nb = adj[starts_[i]:ends_[i]]
            if len(nb) < 2:
                continue
            ii, jj = np.triu_indices(len(nb), k=1)
            packs.append((nb[ii] << 32) | nb[jj])
        if not packs:
            return pa.table({"p": pa.array(np.empty(0, np.int64))})
        return pa.table({"p": pa.array(np.concatenate(packs))})

    cn = (ds.map_batches(wedges, batch_format="pyarrow")
          .groupby("p").count())

    def unpack(t: pa.Table) -> pa.Table:
        _, _, _, _, ep = _broadcast(aref)
        p = t["p"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ep, p)
        safe = np.minimum(pos, max(len(ep) - 1, 0))
        is_edge = (len(ep) > 0) & (ep[safe] == p)
        keep = ~is_edge
        return pa.table({
            "a": pa.array((p[keep] >> 32).astype(np.int64)),
            "b": pa.array((p[keep] & 0xFFFFFFFF).astype(np.int64)),
            "cn": t["count()"].to_numpy(zero_copy_only=False)
                  [keep].astype(np.int64)})

    return cn.map_batches(unpack, batch_format="pyarrow")



QUERIES["cn_link_prediction_dups"] = q_cn_link_prediction_dups

ORACLE_SQL["cn_link_prediction_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs),
        w AS (SELECT e1.v AS a, e2.v AS b
              FROM e e1 JOIN e e2 ON e2.u = e1.u AND e1.v < e2.v),
        cnt AS (SELECT a, b, count(*) AS cn FROM w GROUP BY 1, 2)
        SELECT c.a, c.b, CAST(c.cn AS BIGINT) AS cn
        FROM cnt c LEFT JOIN pairs p ON p.a = c.a AND p.b = c.b
        WHERE p.a IS NULL
    """



# ---------------------------------------------------------------------------
# rle_runs_images: row-major run-length census per image
# ---------------------------------------------------------------------------

def q_rle_runs_images(sf_dir: str):
    """Run-length census of the gray plane for the first 1024 images:
    number of row-major runs (runs never cross row boundaries) and the
    longest flat run — the exact compressibility signal an RLE/PNG
    filter-choice stage reads. Fully vectorized per (w, h) group: rows
    are flattened with sentinel separator cells (negative, so a
    separator can never extend a pixel run), ONE np.diff finds every
    boundary, run lengths are index algebra, and per-image
    aggregation is a bincount + maximum.at — no per-pixel Python.
    Scalar python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class RleStage:
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
            out_id, out_r, out_m = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                k = len(slots)
                rows2 = gray.reshape(k * hi, wi)
                sep = -(np.arange(k * hi, dtype=np.int64)[:, None] + 1)
                flat = np.concatenate([rows2, sep], axis=1).ravel()
                b = np.flatnonzero(np.diff(flat) != 0)
                starts = np.r_[0, b + 1]
                ends = np.r_[b, len(flat) - 1]
                lengths = ends - starts + 1
                keep = flat[starts] >= 0
                img = (starts[keep] // (wi + 1)) // hi
                nr = np.bincount(img, minlength=k).astype(np.int64)
                mx = np.zeros(k, np.int64)
                np.maximum.at(mx, img, lengths[keep])
                out_id.append(ids[slots])
                out_r.append(nr)
                out_m.append(mx)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "n_runs": pa.array(np.concatenate(out_r)),
                "max_run": pa.array(np.concatenate(out_m))})

    return ds.map_batches(RleStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["rle_runs_images"] = q_rle_runs_images



def _rle_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for rle_runs_images. Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_rle_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        nr = np.zeros(len(ws), np.int64)
        mx = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                runs = 0
                longest = 0
                for y in range(hi):
                    cur = None
                    cl = 0
                    for x in range(wi):
                        g = (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        if g == cur:
                            cl += 1
                        else:
                            runs += 1
                            if cl > longest:
                                longest = cl
                            cur, cl = g, 1
                    if cl > longest:
                        longest = cl
                nr[slot] = runs
                mx[slot] = longest
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": ids, "n_runs": pa.array(nr),
            "max_run": pa.array(mx)}), p)
    return str(p)



def _rle_sql(img: str) -> str:
    return (f"SELECT image_id, n_runs, max_run "
            f"FROM read_parquet('{_rle_sidecar(img)}')")



# ---------------------------------------------------------------------------
# mmr_topk_embeddings: Maximal Marginal Relevance diversified retrieval
# ---------------------------------------------------------------------------

_MMR_K = 10

_MMR_SALT = 13



def q_mmr_topk_embeddings(sf_dir: str):
    """Maximal Marginal Relevance (Carbonell–Goldstein) diversified
    top-k: greedily pick the vector maximizing rel − max-sim-to-
    selected (λ = 1/2, doubled so everything stays an exact int64 dot
    on the e6 lattice; rel = dot against a deterministic ±1 splitmix
    probe; smallest vec_id on ties). Distributed as k rounds of
    per-batch partial argmax — each round broadcasts the ≤k selected
    vectors and streams the corpus once; the driver only ever merges
    one tiny partial row per block, so the pattern holds at any corpus
    scale (k passes of map_batches, no materialization). Scalar
    python-int replay (oracle_ref.mmr_topk_ref) sidecar."""
    from geotile.synth import splitmix64

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    first = emb.take(1)
    if not first:
        return pd.DataFrame({"rank": pd.Series(dtype=np.int64),
                             "vec_id": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.int64)})
    dim = len(first[0]["embedding"])
    off = np.uint64((_MMR_SALT * 0x9E3779B97F4A7C15) % (1 << 64))
    signs = np.where(
        (splitmix64(np.arange(dim, dtype=np.uint64) + off)
         & np.uint64(1)) == 1, np.int64(1), np.int64(-1))
    sref = ray.put(signs)

    sel_ids: list[int] = []
    sel_vecs: list[np.ndarray] = []
    out_rank, out_id, out_score = [], [], []
    for rank in range(_MMR_K):
        selref = ray.put((np.array(sel_ids, np.int64),
                          np.array(sel_vecs, np.int64).reshape(
                              len(sel_vecs), dim)))

        def part(t: pa.Table, _selref=selref) -> pa.Table:
            signs_ = _broadcast(sref)
            sids, S = _broadcast(_selref)
            ids = t["vec_id"].to_numpy(zero_copy_only=False)
            V = np.floor(np.stack(
                t["embedding"].to_numpy(zero_copy_only=False))
                .astype(np.float64) * 1_000_000.0).astype(np.int64)
            rel = V @ signs_
            if len(sids):
                ms = (V @ S.T).max(axis=1)
            else:
                ms = np.zeros(len(ids), np.int64)
            score = rel - ms
            free = ~np.isin(ids, sids)
            if not free.any():
                return pa.table({"vec_id": pa.array([], pa.int64()),
                                 "score": pa.array([], pa.int64()),
                                 "vec": pa.array(
                                     [], pa.list_(pa.int64()))})
            ids_f, sc_f = ids[free], score[free]
            j = np.lexsort((ids_f, -sc_f))[0]
            # carry the winner's lattice vector so the driver never
            # needs a second corpus pass to fetch it
            vj = V[free][j].tolist()
            return pa.table({"vec_id": pa.array([ids_f[j]]),
                             "score": pa.array([int(sc_f[j])],
                                               pa.int64()),
                             "vec": pa.array([vj],
                                             pa.list_(pa.int64()))})

        parts = emb.map_batches(part,
                                batch_format="pyarrow").take_all()
        if not parts:
            break
        best = min(parts, key=lambda r: (-r["score"], r["vec_id"]))
        out_rank.append(rank)
        out_id.append(best["vec_id"])
        out_score.append(best["score"])
        sel_ids.append(best["vec_id"])
        sel_vecs.append(np.asarray(best["vec"], np.int64))
    return pd.DataFrame({"rank": np.array(out_rank, np.int64),
                         "vec_id": np.array(out_id, np.int64),
                         "score": np.array(out_score, np.int64)})



QUERIES["mmr_topk_embeddings"] = q_mmr_topk_embeddings



def _mmr_sidecar(sf_dir: str) -> str:
    import battery.oracle_ref as _ref
    from pathlib import Path as _P

    p = (_oracle_cache_dir()
         / f"oracle_mmr_{_P(sf_dir).name}_{_mods_digest(_ref)}.parquet")
    if not p.exists():
        import math

        import pyarrow.parquet as pq

        from battery.oracle_ref import mmr_topk_ref, sm64

        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = t["vec_id"].to_pylist()
        vecs = t["embedding"].to_pylist()
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        ids = [ids[i] for i in order]
        vecs = [[int(math.floor(float(x) * 1_000_000.0)) for x in
                 vecs[i]] for i in order]
        dim = len(vecs[0]) if vecs else 0
        GOLD = 0x9E3779B97F4A7C15
        M64 = (1 << 64) - 1
        signs = [1 if sm64((k + _MMR_SALT * GOLD) & M64) & 1 else -1
                 for k in range(dim)]
        rows = mmr_topk_ref(ids, vecs, signs, _MMR_K)
        _atomic_write_table(pa.table({
            "rank": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.int64())}), p)
    return str(p)



def _mmr_sql(sf_dir: str) -> str:
    return (f"SELECT rank, vec_id, score "
            f"FROM read_parquet('{_mmr_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# audio_decimate_tracks: decimate-by-4 audit (exact integer sums)
# ---------------------------------------------------------------------------

_DECIM = 4



def q_audio_decimate_tracks(sf_dir: str):
    """Decimation audit per track: 4:1 downsample via exact 4-sample
    frame SUMS (the integer numerator of the boxcar mean — no float
    ever forms), emitting the decimated stream's frame count, total
    |sum| mass and energy — the sanity ledger before a cheaper
    sample-rate tier. Tail samples past the last full frame drop
    (documented, replay mirrors). One reshape-sum per stacked batch
    tensor. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class DecimStage:
        def __init__(self):
            self.dec = AudioFrameStage().decoders["pcm16"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["track_id"].to_numpy(zero_copy_only=False)
            codecs = batch["codec"].to_pylist()
            if set(codecs) - {"pcm16"}:
                raise NotImplementedError("only pcm16 in container")
            rows = [self.dec(p) for p in batch["bytes"].to_pylist()]
            groups: dict[int, list[int]] = {}
            for i, r in enumerate(rows):
                groups.setdefault(len(r), []).append(i)
            out = {"track_id": [], "n_frames": [], "sum_abs": [],
                   "energy": []}
            for length, slots in groups.items():
                n4 = length // _DECIM
                pcm = np.stack([rows[i][:n4 * _DECIM]
                                for i in slots]).astype(np.int64)
                f = pcm.reshape(len(slots), n4, _DECIM).sum(axis=2)
                out["track_id"].append(ids[slots])
                out["n_frames"].append(
                    np.full(len(slots), n4, np.int64))
                out["sum_abs"].append(np.abs(f).sum(axis=1))
                out["energy"].append((f * f).sum(axis=1))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(DecimStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_decimate_tracks"] = q_audio_decimate_tracks



def _audio_decimate_sidecar(aud: str) -> str:
    """Python-int replay for audio_decimate_tracks. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_audiodecim_{_P(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            n4 = len(s) // _DECIM
            sa = en = 0
            for k in range(n4):
                f = (s[4 * k] + s[4 * k + 1] + s[4 * k + 2]
                     + s[4 * k + 3])
                sa += f if f >= 0 else -f
                en += f * f
            rows.append({"track_id": tid, "n_frames": n4,
                         "sum_abs": sa, "energy": en})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.Table.from_pylist(rows), p)
    return str(p)



def _audio_decimate_sql(aud: str) -> str:
    return (f"SELECT track_id, n_frames, sum_abs, energy "
            f"FROM read_parquet('{_audio_decimate_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# route_headways: service-frequency profile from stop_times
# ---------------------------------------------------------------------------

def q_route_headways(sf_dir: str):
    """Headway profile per (route, direction, stop): consecutive-visit
    gaps in seconds from the GTFS stop_times table — the service-
    frequency ledger behind every 'trains every N minutes' claim
    (the reference imports stop_times with node-gtfs; this derives the
    planner-facing statistic from it). GTFS clock strings parse
    vectorized (pyarrow split + cast — handles >24:00:00 rollovers by
    plain arithmetic); trips is a dimension broadcast; the gap scan is
    one sort+diff inside a (route, direction, stop) co-partition.
    LAG window replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(
        f"{d}/trips.parquet",
        columns=["trip_id", "route_id", "direction_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"], int(r["direction_id"]))
            for r in trips}
    tref = ray.put(tmap)

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id",
                                  "arrival_time"])

    def attach(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        parts = pc.split_pattern(t["arrival_time"], ":")
        secs = pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))
        tid = t["trip_id"].to_pylist()
        return pa.table({
            "route_id": pa.array([tm[x][0] for x in tid], pa.string()),
            "direction_id": pa.array([tm[x][1] for x in tid],
                                     pa.int64()),
            "stop_id": t["stop_id"],
            "trip_id": t["trip_id"],
            "secs": secs})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["secs", "trip_id"], kind="stable")
        s = df["secs"].to_numpy(np.int64)
        g = np.diff(s)
        return pd.DataFrame({
            "route_id": [df["route_id"].iloc[0]],
            "direction_id": np.array([df["direction_id"].iloc[0]],
                                     np.int64),
            "stop_id": [df["stop_id"].iloc[0]],
            "n_visits": np.array([len(s)], np.int64),
            "min_headway_s": np.array(
                [int(g.min()) if len(g) else 0], np.int64),
            "max_headway_s": np.array(
                [int(g.max()) if len(g) else 0], np.int64),
            "sum_headway_s": np.array(
                [int(g.sum()) if len(g) else 0], np.int64)})

    return (st.map_batches(attach, batch_format="pyarrow")
            .groupby(["route_id", "direction_id", "stop_id"])
            .map_groups(fold, batch_format="pandas"))



QUERIES["route_headways"] = q_route_headways



def _route_headways_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH s AS (SELECT st.stop_id, t.route_id,
                          CAST(t.direction_id AS BIGINT)
                              AS direction_id, st.trip_id,
                          CAST(split_part(st.arrival_time, ':', 1)
                               AS BIGINT) * 3600
                        + CAST(split_part(st.arrival_time, ':', 2)
                               AS BIGINT) * 60
                        + CAST(split_part(st.arrival_time, ':', 3)
                               AS BIGINT) AS secs
                   FROM read_parquet('{d}/stop_times.parquet') st
                   JOIN read_parquet('{d}/trips.parquet') t
                     USING (trip_id)),
        w AS (SELECT route_id, direction_id, stop_id, secs,
                     secs - lag(secs) OVER (
                         PARTITION BY route_id, direction_id, stop_id
                         ORDER BY secs, trip_id) AS gap
              FROM s)
        SELECT route_id, direction_id, stop_id,
               CAST(count(*) AS BIGINT) AS n_visits,
               CAST(COALESCE(min(gap), 0) AS BIGINT) AS min_headway_s,
               CAST(COALESCE(max(gap), 0) AS BIGINT) AS max_headway_s,
               CAST(COALESCE(sum(gap), 0) AS BIGINT) AS sum_headway_s
        FROM w GROUP BY 1, 2, 3
    """



# ---------------------------------------------------------------------------
# blob_geometry_images: bbox + exact centroid of the largest component
# ---------------------------------------------------------------------------

def q_blob_geometry_images(sf_dir: str):
    """Geometry of the largest 4-connected foreground component per
    image (first 1024): pixel count, bounding box, and EXACT centroid
    numerators (Σx, Σy — the caller divides by size) — what a
    crop/attention stage reads. Reuses the whole-batch min-relaxation
    labelling; the winning component on size ties is the one with the
    smallest root label (= smallest flat pixel index, deterministic).
    Geometry is index algebra over the winning mask — no per-pixel
    Python. Scalar flood-fill replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class BlobGeomStage:
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
            cols = {k: [] for k in ("image_id", "blob_size", "x0",
                                    "x1", "y0", "y1", "cx_num",
                                    "cy_num")}
            BIG = np.int64(1 << 62)
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                fg = gray >= 128
                k = len(slots)
                lab = np.arange(k * hi * wi, dtype=np.int64) \
                    .reshape(k, hi, wi)
                lab = np.where(fg, lab, BIG)
                while True:
                    new = lab.copy()
                    new[:, 1:, :] = np.minimum(new[:, 1:, :],
                                               lab[:, :-1, :])
                    new[:, :-1, :] = np.minimum(new[:, :-1, :],
                                                lab[:, 1:, :])
                    new[:, :, 1:] = np.minimum(new[:, :, 1:],
                                               lab[:, :, :-1])
                    new[:, :, :-1] = np.minimum(new[:, :, :-1],
                                                lab[:, :, 1:])
                    new = np.where(fg, new, BIG)
                    if (new == lab).all():
                        break
                    lab = new
                yy, xx = np.meshgrid(np.arange(hi, dtype=np.int64),
                                     np.arange(wi, dtype=np.int64),
                                     indexing="ij")
                for j in range(k):
                    cols["image_id"].append(ids[slots[j]])
                    m = fg[j]
                    if not m.any():
                        for c in ("blob_size", "x0", "x1", "y0",
                                  "y1", "cx_num", "cy_num"):
                            cols[c].append(0)
                        continue
                    roots, counts = np.unique(lab[j][m],
                                              return_counts=True)
                    # max size, smallest root on ties (roots sorted
                    # ascending ⇒ argmax returns the first/smallest)
                    win = roots[np.argmax(counts)]
                    wm = lab[j] == win
                    cols["blob_size"].append(int(wm.sum()))
                    cols["x0"].append(int(xx[wm].min()))
                    cols["x1"].append(int(xx[wm].max()))
                    cols["y0"].append(int(yy[wm].min()))
                    cols["y1"].append(int(yy[wm].max()))
                    cols["cx_num"].append(int(xx[wm].sum()))
                    cols["cy_num"].append(int(yy[wm].sum()))
            out = {"image_id": pa.array(cols["image_id"])}
            for c in ("blob_size", "x0", "x1", "y0", "y1", "cx_num",
                      "cy_num"):
                out[c] = pa.array(np.array(cols[c], np.int64))
            return pa.table(out)

    return ds.map_batches(BlobGeomStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["blob_geometry_images"] = q_blob_geometry_images



def _blob_geom_sidecar(img: str, n: int = 1024) -> str:
    """Scalar flood-fill replay for blob_geometry_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_blobgeom_{_P(img).name}_{n}_"
        f"{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        res = {k: np.zeros(len(ws), np.int64)
               for k in ("blob_size", "x0", "x1", "y0", "y1",
                         "cx_num", "cy_num")}
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                fg = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                        + int(px[j, y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
                seen = [[False] * wi for _ in range(hi)]
                best = None  # (size, root, pixels)
                for y0 in range(hi):
                    for x0 in range(wi):
                        if not fg[y0][x0] or seen[y0][x0]:
                            continue
                        stack = [(y0, x0)]
                        seen[y0][x0] = True
                        pix = []
                        root = y0 * wi + x0
                        while stack:
                            y, x = stack.pop()
                            pix.append((y, x))
                            if y * wi + x < root:
                                root = y * wi + x
                            for dy, dx in ((1, 0), (-1, 0), (0, 1),
                                           (0, -1)):
                                yy2, xx2 = y + dy, x + dx
                                if (0 <= yy2 < hi and 0 <= xx2 < wi
                                        and fg[yy2][xx2]
                                        and not seen[yy2][xx2]):
                                    seen[yy2][xx2] = True
                                    stack.append((yy2, xx2))
                        cand = (len(pix), -root)
                        if best is None or cand > (best[0], -best[1]):
                            best = (len(pix), root, pix)
                if best is None:
                    continue
                _, _, pix = best
                res["blob_size"][slot] = len(pix)
                res["x0"][slot] = min(x for _, x in pix)
                res["x1"][slot] = max(x for _, x in pix)
                res["y0"][slot] = min(y for y, _ in pix)
                res["y1"][slot] = max(y for y, _ in pix)
                res["cx_num"][slot] = sum(x for _, x in pix)
                res["cy_num"][slot] = sum(y for y, _ in pix)
        out = {"image_id": ids}
        out.update({k: pa.array(v) for k, v in res.items()})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table(out), p)
    return str(p)



def _blob_geom_sql(img: str) -> str:
    return (f"SELECT image_id, blob_size, x0, x1, y0, y1, cx_num, "
            f"cy_num FROM read_parquet('{_blob_geom_sidecar(img)}')")



# ---------------------------------------------------------------------------
# kendall_nation_pairs: cross-series concordance (Kendall S) per pair
# ---------------------------------------------------------------------------

_KT_PAIRS = ((0, 1), (2, 3), (4, 5))



def q_kendall_nation_pairs(sf_dir: str):
    """Kendall concordance statistic S between the daily-revenue
    series of fixed nation pairs: over common days i<j,
    Σ sign(aᵢ−aⱼ)·sign(bᵢ−bⱼ) — do two markets move together —
    exact integers end to end (sign products, never a τ float).
    Day×nation partials contract the fact table to a calendar-bounded
    ledger; each PAIR'S two series meet in a pair-id co-partition
    where the O(days²) sign outer-product is one vectorized triu sum.
    Double self-join replay."""
    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    nk = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    cref = ray.put((ck, nk))
    wanted: dict[int, list[int]] = {}
    for pid, (a, b) in enumerate(_KT_PAIRS):
        wanted.setdefault(a, []).append(pid)
        wanted.setdefault(b, []).append(pid)

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                      "o_totalprice"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        ck_, nk_ = _broadcast(cref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        nat = nk_[np.searchsorted(ck_, c)]
        keep = np.isin(nat, list(wanted))
        if not keep.any():
            return pa.table({"nationkey": pa.array([], pa.int64()),
                             "day": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        day = (t["o_orderdate"].cast(pa.int64()).to_numpy()
               // DAY)[keep]
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)[keep]
            * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"nationkey": pa.array(nat[keep]),
                      "day": pa.array(day),
                      "cents": pa.array(cents)}) \
            .group_by(["nationkey", "day"]) \
            .aggregate([("cents", "sum")])
        return pa.table({"nationkey": g["nationkey"],
                         "day": g["day"], "cents": g["cents_sum"]})

    daily = (orders.map_batches(part, batch_format="pyarrow")
             .groupby(["nationkey", "day"]).sum("cents"))
    daily = _rename(daily, ["nationkey", "day", "cents"])

    def tag(t: pa.Table) -> pa.Table:
        nat = t["nationkey"].to_numpy(zero_copy_only=False)
        pid_l, idx_l = [], []
        for i, n in enumerate(nat.tolist()):
            for pid in wanted.get(int(n), ()):
                pid_l.append(pid)
                idx_l.append(i)
        sel = t.take(pa.array(idx_l, pa.int64()))
        return sel.append_column("pair_id",
                                 pa.array(pid_l, pa.int64()))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        pid = int(df["pair_id"].iloc[0])
        a_k, b_k = _KT_PAIRS[pid]
        da = df[df.nationkey == a_k].sort_values("day")
        db = df[df.nationkey == b_k].sort_values("day")
        common = np.intersect1d(da["day"].to_numpy(np.int64),
                                db["day"].to_numpy(np.int64))
        ca = da.set_index("day")["cents"].loc[common] \
            .to_numpy(np.int64)
        cb = db.set_index("day")["cents"].loc[common] \
            .to_numpy(np.int64)
        sa = np.sign(ca[:, None] - ca[None, :])
        sb = np.sign(cb[:, None] - cb[None, :])
        iu = np.triu_indices(len(common), k=1)
        s = int((sa[iu] * sb[iu]).sum())
        return pd.DataFrame({
            "pair_id": np.array([pid], np.int64),
            "nk_a": np.array([a_k], np.int64),
            "nk_b": np.array([b_k], np.int64),
            "n_days": np.array([len(common)], np.int64),
            "s_stat": np.array([s], np.int64)})

    got = (daily.map_batches(tag, batch_format="pyarrow")
           .groupby("pair_id").map_groups(fold,
                                          batch_format="pandas")
           ).take_all()
    by = {int(r["pair_id"]): r for r in got}
    rows = []
    for pid, (a, b) in enumerate(_KT_PAIRS):
        r = by.get(pid)
        rows.append((pid, a, b,
                     int(r["n_days"]) if r else 0,
                     int(r["s_stat"]) if r else 0))
    return pd.DataFrame({
        "pair_id": np.array([r[0] for r in rows], np.int64),
        "nk_a": np.array([r[1] for r in rows], np.int64),
        "nk_b": np.array([r[2] for r in rows], np.int64),
        "n_days": np.array([r[3] for r in rows], np.int64),
        "s_stat": np.array([r[4] for r in rows], np.int64)})



QUERIES["kendall_nation_pairs"] = q_kendall_nation_pairs

ORACLE_SQL["kendall_nation_pairs"] = f"""
        WITH pairs(pair_id, nk_a, nk_b) AS (VALUES
            {", ".join(f"({i}, {a}, {b})"
                       for i, (a, b) in enumerate(_KT_PAIRS))}),
        d AS (SELECT c.c_nationkey AS nationkey,
                     CAST(o.o_orderdate AS DATE) AS day,
                     SUM(CAST(floor(o.o_totalprice * 100.0 + 0.5)
                              AS BIGINT)) AS cents
              FROM orders o JOIN customer c
                ON c.c_custkey = o.o_custkey
              GROUP BY 1, 2),
        j AS (SELECT p.pair_id, a.day, a.cents AS ca, b.cents AS cb
              FROM pairs p
              JOIN d a ON a.nationkey = p.nk_a
              JOIN d b ON b.nationkey = p.nk_b AND b.day = a.day),
        s AS (SELECT x.pair_id,
                     count(*) AS n_pairs,
                     SUM(sign(x.ca - y.ca) * sign(x.cb - y.cb)) AS s
              FROM j x JOIN j y ON y.pair_id = x.pair_id
                               AND y.day > x.day
              GROUP BY 1),
        n AS (SELECT pair_id, count(*) AS n_days FROM j GROUP BY 1)
        SELECT p.pair_id, CAST(p.nk_a AS BIGINT) AS nk_a,
               CAST(p.nk_b AS BIGINT) AS nk_b,
               CAST(COALESCE(n.n_days, 0) AS BIGINT) AS n_days,
               CAST(COALESCE(s.s, 0) AS BIGINT) AS s_stat
        FROM pairs p LEFT JOIN n USING (pair_id)
        LEFT JOIN s USING (pair_id)
    """



# ---------------------------------------------------------------------------
# geohash_cell_counts: the base32 geohash index family (vs Morton/quadkey)
# ---------------------------------------------------------------------------

_GH_PREC = 6  # 6 base32 chars = 30 bits (15 lon + 15 lat)

_GH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"



def q_geohash_cell_counts(sf_dir: str):
    """Tile counts per 6-char GEOHASH — the third cell-index family
    the engine speaks (Morton/quadkey, Hilbert, and now the
    base32-string geohash every external geo store understands;
    a 100-TB export keyed by geohash prefix is directly joinable
    against third-party datasets). Vectorized encode: one 2^15
    quantize per axis (lon gets the MSB — geohash interleaves
    lon-first), one bit-spread interleave, five shift-mask gathers
    into the base32 alphabet. The oracle replays the FULL encode in
    SQL — quantize, interleave via the proven _sql_spread, substr
    into the alphabet — no sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])
    nbits = 5 * _GH_PREC // 2  # 15 bits per axis
    n = 1 << nbits
    alpha = np.frombuffer(_GH_ALPHABET.encode(), dtype=np.uint8)

    def part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0,
                     n - 1).astype(np.uint64)
        iy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0,
                     n - 1).astype(np.uint64)
        from geotile.geom.cells import _spread
        code = (_spread(iy) | (_spread(ix) << np.uint64(1))) \
            .astype(np.int64)
        chars = np.empty((len(code), _GH_PREC), np.uint8)
        for i in range(_GH_PREC):
            chars[:, i] = alpha[(code >> (5 * (_GH_PREC - 1 - i)))
                                & 31]
        gh = chars.view(f"S{_GH_PREC}").ravel().astype(str)
        g = pa.table({"geohash": pa.array(gh)}) \
            .group_by("geohash").aggregate([([], "count_all")])
        return pa.table({"geohash": g["geohash"],
                         "n_tiles": g["count_all"].cast(pa.int64())})

    out = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("geohash").sum("n_tiles"))
    return _rename(out, ["geohash", "n_tiles"])



QUERIES["geohash_cell_counts"] = q_geohash_cell_counts



def _geohash_sql(img_dir: str) -> str:
    nbits = 5 * _GH_PREC // 2
    n = 1 << nbits
    qx = (f"CAST(least(greatest(floor((lon + 180.0) / 360.0 "
          f"* {float(n)!r}), 0.0), {float(n - 1)!r}) AS BIGINT)")
    qy = (f"CAST(least(greatest(floor((lat + 90.0) / 180.0 "
          f"* {float(n)!r}), 0.0), {float(n - 1)!r}) AS BIGINT)")
    code = f"({_sql_spread('iy')} | ({_sql_spread('ix')} << 1))"
    chars = " || ".join(
        f"substr('{_GH_ALPHABET}', "
        f"CAST(((code >> {5 * (_GH_PREC - 1 - i)}) & 31) + 1 "
        f"AS INTEGER), 1)" for i in range(_GH_PREC))
    return f"""
        WITH q AS (SELECT {qx} AS ix, {qy} AS iy
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        c AS (SELECT {code} AS code FROM q),
        g AS (SELECT {chars} AS geohash FROM c)
        SELECT geohash, count(*) AS n_tiles FROM g GROUP BY 1
    """



# ---------------------------------------------------------------------------
# dilation_area_images: one-step morphological dilation audit
# ---------------------------------------------------------------------------

def q_dilation_area_images(sf_dir: str):
    """Morphological audit per image (first 1024): foreground area
    before and after ONE 4-neighbour binary dilation — the growth
    delta separates compact blobs (small perimeter ⇒ small delta)
    from speckle. Dilation is four array shifts + logical-or over the
    whole batch tensor; areas are two sums. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class DilateStage:
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
            out_id, out_a, out_d = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                fg = (px.astype(np.int64).sum(axis=3) // 3) >= 128
                dil = fg.copy()
                dil[:, 1:, :] |= fg[:, :-1, :]
                dil[:, :-1, :] |= fg[:, 1:, :]
                dil[:, :, 1:] |= fg[:, :, :-1]
                dil[:, :, :-1] |= fg[:, :, 1:]
                out_id.append(ids[slots])
                out_a.append(fg.sum(axis=(1, 2)).astype(np.int64))
                out_d.append(dil.sum(axis=(1, 2)).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "area": pa.array(np.concatenate(out_a)),
                "area_dilated": pa.array(np.concatenate(out_d))})

    return ds.map_batches(DilateStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["dilation_area_images"] = q_dilation_area_images



def _dilation_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for dilation_area_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_dilate_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        area = np.zeros(len(ws), np.int64)
        dil = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                fg = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                        + int(px[j, y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
                a = d = 0
                for y in range(hi):
                    for x in range(wi):
                        if fg[y][x]:
                            a += 1
                            d += 1
                        elif ((y > 0 and fg[y - 1][x])
                              or (y + 1 < hi and fg[y + 1][x])
                              or (x > 0 and fg[y][x - 1])
                              or (x + 1 < wi and fg[y][x + 1])):
                            d += 1
                area[slot] = a
                dil[slot] = d
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": ids, "area": pa.array(area),
            "area_dilated": pa.array(dil)}), p)
    return str(p)



def _dilation_sql(img: str) -> str:
    return (f"SELECT image_id, area, area_dilated "
            f"FROM read_parquet('{_dilation_sidecar(img)}')")



# ---------------------------------------------------------------------------
# excess_suppliers_q20: TPC-H Q20-flavour excess-stock audit
# ---------------------------------------------------------------------------

def q_excess_suppliers_q20(sf_dir: str):
    """TPC-H Q20 flavour (no partsupp table in this schema, so the
    'excess availability' test is re-expressed over shipped history):
    suppliers whose 1996 shipped quantity of red-prefixed parts
    exceeds 16% of their ALL-TIME shipped quantity of those parts
    (the data spans 1995–2001, so a uniform supplier sits near 1/7 ≈
    14% — the 16% gate flags the year-skewed ones). The red keyset
    broadcasts (dimension-scale); both aggregates ride ONE suppkey
    co-partition; the gate is an integer cross-multiply
    (100·q96 > 16·q_all on the e2 lattice). Two-filter aggregate
    replay."""
    pk, pname = _dim_np(sf_dir, "part", "p_partkey", ["p_name"])
    keyset = pk[np.char.startswith(pname.astype(str), "red")]
    fref = ray.put(keyset)
    if len(keyset) == 0:
        return pd.DataFrame({"l_suppkey": pd.Series(dtype=np.int64),
                             "q96_e2": pd.Series(dtype=np.int64),
                             "qall_e2": pd.Series(dtype=np.int64)})

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
    lo96 = np.datetime64("1996-01-01", "us")
    hi96 = np.datetime64("1997-01-01", "us")

    def partial(t: pa.Table) -> pa.Table:
        f = _broadcast(fref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(f, pk)
        safe = np.minimum(pos, len(f) - 1)
        keep = f[safe] == pk
        if not keep.any():
            return pa.table({"l_suppkey": pa.array([], pa.int64()),
                             "q96_e2": pa.array([], pa.int64()),
                             "qall_e2": pa.array([], pa.int64())})
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)[keep]
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False)[keep] * 100.0 + 0.5).astype(np.int64)
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)[keep]
        in96 = ((sd >= lo96) & (sd < hi96)).astype(np.int64)
        g = pa.table({"l_suppkey": pa.array(sk),
                      "q96_e2": pa.array(q * in96),
                      "qall_e2": pa.array(q)}) \
            .group_by("l_suppkey") \
            .aggregate([("q96_e2", "sum"), ("qall_e2", "sum")])
        return g.rename_columns(["l_suppkey", "q96_e2", "qall_e2"])

    agg = (li.map_batches(partial, batch_format="pyarrow")
           .groupby("l_suppkey").sum(["q96_e2", "qall_e2"]))
    agg = _rename(agg, ["l_suppkey", "q96_e2", "qall_e2"])

    def pred(t: pa.Table) -> pa.Table:
        q96 = t["q96_e2"].to_numpy(zero_copy_only=False)
        qa = t["qall_e2"].to_numpy(zero_copy_only=False)
        keep = 100 * q96 > 16 * qa
        return t.filter(pa.array(keep))

    return agg.map_batches(pred, batch_format="pyarrow")



QUERIES["excess_suppliers_q20"] = q_excess_suppliers_q20

ORACLE_SQL["excess_suppliers_q20"] = """
        WITH f AS (SELECT p_partkey FROM part
                   WHERE p_name LIKE 'red%'),
        a AS (SELECT l_suppkey,
                     SUM(CASE WHEN l_shipdate >= DATE '1996-01-01'
                              AND l_shipdate < DATE '1997-01-01'
                         THEN CAST(floor(l_quantity * 100.0 + 0.5)
                                   AS BIGINT) ELSE 0 END) AS q96_e2,
                     SUM(CAST(floor(l_quantity * 100.0 + 0.5)
                              AS BIGINT)) AS qall_e2
              FROM lineitem JOIN f ON f.p_partkey = l_partkey
              GROUP BY 1)
        SELECT l_suppkey, q96_e2, qall_e2
        FROM a WHERE 100 * q96_e2 > 16 * qall_e2
    """



# ---------------------------------------------------------------------------
# interp_fill_daily_users: linear-interpolation gap fill (exact rationals)
# ---------------------------------------------------------------------------

def q_interp_fill_daily_users(sf_dir: str):
    """Linear-interpolation resampler: each user's daily spend series
    gap-fills missing interior days with the EXACT rational
    interpolant — numerator v0·(d1−d) + v1·(d−d0) over denominator
    (d1−d0), integers end to end (the float never forms; the consumer
    divides) — the time-series-regularization sibling of the LOCF
    query. One user co-partition; the gap rows come from repeat/arange
    index algebra, bounded by the calendar. LEAD + LATERAL
    generate_series replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        day = t["ts"].cast(pa.int64()).to_numpy() // DAY
        cents = np.floor(t["value"].to_numpy(zero_copy_only=False)
                         * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"user_id": pa.array(u), "day": pa.array(day),
                      "cents": pa.array(cents)}) \
            .group_by(["user_id", "day"]).aggregate([("cents", "sum")])
        return pa.table({"user_id": g["user_id"], "day": g["day"],
                         "cents": g["cents_sum"]})

    daily = (ev.map_batches(part, batch_format="pyarrow")
             .groupby(["user_id", "day"]).sum("cents"))
    daily = _rename(daily, ["user_id", "day", "cents"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "day"], kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        v = df["cents"].to_numpy(np.int64)
        same = np.r_[False, u[1:] == u[:-1]]
        gap = np.where(same, d - np.r_[0, d[:-1]] - 1, 0)
        idx = np.nonzero(gap > 0)[0]
        if len(idx) == 0:
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "day": pd.Series(dtype=np.int64),
                "num": pd.Series(dtype=np.int64),
                "den": pd.Series(dtype=np.int64)})
        reps = gap[idx]
        tgt = np.repeat(idx, reps)
        # offset within each gap: 1..gap
        off = (np.arange(len(tgt))
               - np.repeat(np.cumsum(reps) - reps, reps) + 1)
        d0, v0 = d[tgt - 1], v[tgt - 1]
        d1, v1 = d[tgt], v[tgt]
        dd = d0 + off
        num = v0 * (d1 - dd) + v1 * (dd - d0)
        return pd.DataFrame({"user_id": u[tgt], "day": dd,
                             "num": num, "den": d1 - d0})

    return (_with_bucket(daily, "user_id", 16)
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas"))



QUERIES["interp_fill_daily_users"] = q_interp_fill_daily_users

ORACLE_SQL["interp_fill_daily_users"] = """
        WITH d AS (SELECT user_id,
                          epoch_us(ts) // 86400000000 AS day,
                          SUM(CAST(floor(value * 100.0 + 0.5)
                                   AS BIGINT)) AS cents
                   FROM events GROUP BY 1, 2),
        w AS (SELECT user_id, day AS d0, cents AS v0,
                     lead(day) OVER (PARTITION BY user_id
                                     ORDER BY day) AS d1,
                     lead(cents) OVER (PARTITION BY user_id
                                       ORDER BY day) AS v1
              FROM d)
        SELECT user_id, day,
               CAST(v0 * (d1 - day) + v1 * (day - d0)
                    AS BIGINT) AS num,
               CAST(d1 - d0 AS BIGINT) AS den
        FROM (SELECT user_id, d0, v0, d1, v1,
                     unnest(generate_series(d0 + 1, d1 - 1)) AS day
              FROM w WHERE d1 IS NOT NULL AND d1 - d0 > 1)
    """



# ---------------------------------------------------------------------------
# component_threshold_sweep_dups: dedup aggressiveness sweep
# ---------------------------------------------------------------------------

_CTS_TAUS_E6 = (350_000, 500_000, 650_000)



def q_component_threshold_sweep_dups(sf_dir: str):
    """Dedup-aggressiveness sweep: the near-dup graph's shape at three
    cosine thresholds — nodes, edges, components, largest component —
    the percolation curve that tells a dedup operator where the giant
    component forms (too-low tau merges the whole corpus). The
    all-pairs stage runs ONCE at the base tau; each sweep level is a
    cheap e6-lattice filter of that pair set feeding the distributed
    connected-components op. Recursive-CTE replay per level."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import connected_components

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).materialize()

    rows = []
    for tau_e6 in _CTS_TAUS_E6:
        def keep(t: pa.Table, _tau=tau_e6) -> pa.Table:
            e6 = pc.round(pc.multiply(t["cosine"],
                                      pa.scalar(1e6))).cast(pa.int64())
            return t.filter(pc.greater_equal(e6, pa.scalar(_tau)))

        sub = pairs.map_batches(keep,
                                batch_format="pyarrow").materialize()
        n_edges = sub.count()
        if n_edges == 0:
            rows.append((tau_e6, 0, 0, 0, 0))
            continue
        cc = connected_components(
            sub.select_columns(["a", "b"]), "a", "b", n_buckets=8)
        sizes = cc.groupby("cluster_id").count().take_all()
        n_nodes = sum(r["count()"] for r in sizes)
        rows.append((tau_e6, n_nodes, n_edges, len(sizes),
                     max(r["count()"] for r in sizes)))
    return pd.DataFrame({
        "tau_e6": np.array([r[0] for r in rows], np.int64),
        "n_nodes": np.array([r[1] for r in rows], np.int64),
        "n_edges": np.array([r[2] for r in rows], np.int64),
        "n_components": np.array([r[3] for r in rows], np.int64),
        "max_size": np.array([r[4] for r in rows], np.int64)})



QUERIES["component_threshold_sweep_dups"] = \
    q_component_threshold_sweep_dups



def _cts_sql() -> str:
    blocks = []
    for tau_e6 in _CTS_TAUS_E6:
        blocks.append(f"""
        SELECT {tau_e6} AS tau_e6,
               CAST(COALESCE((SELECT count(*) FROM (
                   SELECT DISTINCT u FROM (
                       SELECT a AS u FROM p{tau_e6}
                       UNION ALL SELECT b FROM p{tau_e6}))), 0)
                    AS BIGINT) AS n_nodes,
               CAST((SELECT count(*) FROM p{tau_e6}) AS BIGINT)
                   AS n_edges,
               CAST(COALESCE((SELECT count(DISTINCT cluster_id)
                              FROM cc{tau_e6}), 0) AS BIGINT)
                   AS n_components,
               CAST(COALESCE((SELECT max(n) FROM (
                   SELECT count(*) AS n FROM cc{tau_e6}
                   GROUP BY cluster_id)), 0) AS BIGINT) AS max_size
        """)
        # CTE bodies appended below
    ctes = []
    for tau_e6 in _CTS_TAUS_E6:
        ctes.append(f"""
        p{tau_e6} AS (
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b
              ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) >= 0.35
              AND CAST(round(round(list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])), 6) * 1000000.0)
                      AS BIGINT) >= {tau_e6}),
        e{tau_e6} AS (SELECT a AS u, b AS v FROM p{tau_e6}
                      UNION SELECT b, a FROM p{tau_e6}),
        walk{tau_e6}(u, lbl) AS (
            SELECT u, u FROM (SELECT DISTINCT u FROM e{tau_e6})
            UNION
            SELECT e.u, w.lbl FROM e{tau_e6} e
            JOIN walk{tau_e6} w ON w.u = e.v),
        cc{tau_e6} AS (SELECT u AS node, min(lbl) AS cluster_id
                       FROM walk{tau_e6} GROUP BY u)""")
    return ("WITH RECURSIVE " + ", ".join(ctes) + " "
            + " UNION ALL ".join(blocks))



# ---------------------------------------------------------------------------
# route_coverage_deciles: linear referencing of tiles onto route arcs
# ---------------------------------------------------------------------------

def q_route_coverage_deciles(sf_dir: str):
    """Linear referencing: each tile projects onto its NEAREST route
    (the tile_knn rank-0 winner, identical (d²,route_id) tie rule) and
    lands in that route's SEGMENT-INDEX decile (10·seg_idx // n_seg —
    pure integer arc position, no cumulative-length float whose
    summation order could drift) — the coverage-by-arc-position
    profile that shows which stretch of a corridor the imagery
    actually covers. Segment table is dimension-scale and broadcasts;
    per batch it is one points×segments distance tile + two
    reduceat/argmin passes; counts contract per batch before one tiny
    groupby. Window-rank replay over an indexed segment sidecar."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                  route_polylines)
    from geotile.ops.tiles import read_image_table

    mx, my = meter_frame(_ANCHOR_LAT)
    lines = route_polylines(_fixture_ctx())
    ax_l, ay_l, dx_l, dy_l, inv_l = [], [], [], [], []
    starts, nsegs, rid_list = [], [], []
    pos = 0
    for rid in sorted(lines):
        n_r = 0
        for part_arr in lines[rid]:
            m = np.column_stack([
                (part_arr[:, 0] - _ANCHOR_LON) * mx,
                (part_arr[:, 1] - _ANCHOR_LAT) * my])
            sax, say = m[:-1, 0], m[:-1, 1]
            sdx, sdy = m[1:, 0] - sax, m[1:, 1] - say
            L2 = sdx * sdx + sdy * sdy
            L2 = np.where(L2 == 0.0, 1.0, L2)
            ax_l.append(sax)
            ay_l.append(say)
            dx_l.append(sdx)
            dy_l.append(sdy)
            inv_l.append(1.0 / L2)
            n_r += len(sax)
        rid_list.append(rid)
        starts.append(pos)
        nsegs.append(n_r)
        pos += n_r
    ax = np.concatenate(ax_l)
    ay = np.concatenate(ay_l)
    dxs = np.concatenate(dx_l)
    dys = np.concatenate(dy_l)
    inv = np.concatenate(inv_l)
    starts_a = np.array(starts, np.int64)
    nsegs_a = np.array(nsegs, np.int64)
    routecol = np.repeat(np.arange(len(rid_list), dtype=np.int64),
                         nsegs_a)
    sref = ray.put((ax, ay, dxs, dys, inv, starts_a, nsegs_a,
                    np.array(rid_list), routecol))

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        ax_, ay_, dx_, dy_, inv_, st_, ns_, rids_, rcol_ = \
            _broadcast(sref)
        px = (t["lon"].to_numpy(zero_copy_only=False)
              - _ANCHOR_LON) * mx
        py = (t["lat"].to_numpy(zero_copy_only=False)
              - _ANCHOR_LAT) * my
        rx = px[:, None] - ax_[None, :]
        ry = py[:, None] - ay_[None, :]
        tt = (rx * dx_ + ry * dy_) * inv_
        np.clip(tt, 0.0, 1.0, out=tt)
        ux = rx - tt * dx_
        uy = ry - tt * dy_
        d2 = ux * ux + uy * uy
        rmin = np.minimum.reduceat(d2, st_, axis=1)
        win = rmin.argmin(axis=1)  # first min = smallest route_id
        mask = rcol_[None, :] == win[:, None]
        d2m = np.where(mask, d2, np.inf)
        seg = d2m.argmin(axis=1)   # first min = smallest seg_idx
        local = seg - st_[win]
        dec = (10 * local) // ns_[win]
        pack = win * 10 + dec
        uniq, cnt = np.unique(pack, return_counts=True)
        return pa.table({"pack": pa.array(uniq),
                         "n_tiles": pa.array(cnt.astype(np.int64))})

    agg = (ds.map_batches(part, batch_format="pyarrow",
                          batch_size=4096)
           .groupby("pack").sum("n_tiles")).take_all()
    rids_arr = np.array(rid_list)
    out_r, out_d, out_n = [], [], []
    for r in sorted(agg, key=lambda x: x["pack"]):
        out_r.append(str(rids_arr[r["pack"] // 10]))
        out_d.append(int(r["pack"] % 10))
        out_n.append(int(r["sum(n_tiles)"]))
    return pd.DataFrame({"route_id": out_r,
                         "decile": np.array(out_d, np.int64),
                         "n_tiles": np.array(out_n, np.int64)})



QUERIES["route_coverage_deciles"] = q_route_coverage_deciles



def _oracle_segments_idx_path() -> str:
    """Indexed variant of the kNN segment sidecar: adds per-route
    seg_idx and n_seg so SQL can rank and decile. Content-keyed."""
    p = (_oracle_cache_dir()
         / f"oracle_route_segidx_{_geom_digest()}.parquet")
    if not p.exists():
        from geotile.geom.buffer import meter_frame
        from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                      route_polylines)

        mx, my = meter_frame(_ANCHOR_LAT)
        lines = route_polylines(_fixture_ctx())
        cols = {"route_id": [], "seg_idx": [], "n_seg": [], "ax": [],
                "ay": [], "dx": [], "dy": [], "inv_l2": []}
        for rid in sorted(lines):
            segs = []
            for part_arr in lines[rid]:
                m = np.column_stack([
                    (part_arr[:, 0] - _ANCHOR_LON) * mx,
                    (part_arr[:, 1] - _ANCHOR_LAT) * my])
                sax, say = m[:-1, 0], m[:-1, 1]
                sdx, sdy = m[1:, 0] - sax, m[1:, 1] - say
                L2 = sdx * sdx + sdy * sdy
                L2 = np.where(L2 == 0.0, 1.0, L2)
                segs.append((sax, say, sdx, sdy, 1.0 / L2))
            sax = np.concatenate([s[0] for s in segs])
            say = np.concatenate([s[1] for s in segs])
            sdx = np.concatenate([s[2] for s in segs])
            sdy = np.concatenate([s[3] for s in segs])
            sinv = np.concatenate([s[4] for s in segs])
            n = len(sax)
            cols["route_id"].extend([rid] * n)
            cols["seg_idx"].append(np.arange(n, dtype=np.int64))
            cols["n_seg"].append(np.full(n, n, np.int64))
            cols["ax"].append(sax)
            cols["ay"].append(say)
            cols["dx"].append(sdx)
            cols["dy"].append(sdy)
            cols["inv_l2"].append(sinv)
        t = pa.table({
            "route_id": pa.array(cols["route_id"], pa.string()),
            **{k: pa.array(np.concatenate(cols[k]))
               for k in ("seg_idx", "n_seg", "ax", "ay", "dx", "dy",
                         "inv_l2")}})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(t, p)
    return str(p)



def _route_coverage_sql(img_dir: str) -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON

    mx, my = meter_frame(_ANCHOR_LAT)
    segs = _oracle_segments_idx_path()
    return f"""
        WITH p AS (SELECT image_id,
                          (lon - ({_ANCHOR_LON!r})) * {mx!r} AS px,
                          (lat - ({_ANCHOR_LAT!r})) * {my!r} AS py
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        ps AS (SELECT p.image_id, s.route_id, s.seg_idx, s.n_seg,
                      ((p.px - s.ax) - greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) * s.dx)
                    * ((p.px - s.ax) - greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) * s.dx)
                    + ((p.py - s.ay) - greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) * s.dy)
                    * ((p.py - s.ay) - greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) * s.dy) AS d2
               FROM p CROSS JOIN read_parquet('{segs}') s),
        rmin AS (SELECT image_id, route_id, min(d2) AS d2min
                 FROM ps GROUP BY 1, 2),
        win AS (SELECT image_id, route_id,
                       row_number() OVER (PARTITION BY image_id
                                          ORDER BY d2min, route_id)
                           AS rn
                FROM rmin),
        w1 AS (SELECT image_id, route_id FROM win WHERE rn = 1),
        sseg AS (SELECT ps.image_id, ps.route_id, ps.seg_idx,
                        ps.n_seg,
                        row_number() OVER (PARTITION BY ps.image_id
                                           ORDER BY ps.d2, ps.seg_idx)
                            AS srn
                 FROM ps JOIN w1 USING (image_id, route_id))
        SELECT route_id, (10 * seg_idx) // n_seg AS decile,
               count(*) AS n_tiles
        FROM sseg WHERE srn = 1 GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# next_type_majority_accuracy: train/test split + majority-baseline eval
# ---------------------------------------------------------------------------

_NTM_SPLIT_DAY_US = np.int64(
    np.datetime64("1995-07-01", "us").astype(np.int64))



def q_next_type_majority_accuracy(sf_dir: str):
    """The evaluation harness primitive over event streams: TRAIN a
    majority next-type predictor on transitions before the split
    instant, EVALUATE exact hit counts after it — the baseline number
    every sequence model must beat. Transitions form per user inside
    ONE co-partition (earlier-half pairs train, later-half pairs
    test; the straddling pair belongs to test by its SOURCE event);
    the model is a (types × types) count matrix (argmax per row,
    lexicographically smallest type on ties) broadcast nowhere — it
    is driver-side dimension-scale. Output per test source type:
    n_test, n_hit. Double-CTE argmax replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        et = df["event_type"].to_numpy()
        same = u[1:] == u[:-1]
        src, dst = et[:-1][same], et[1:][same]
        is_train = ts[:-1][same] < _NTM_SPLIT_DAY_US
        out = pd.DataFrame({
            "split": np.where(is_train, "train", "test"),
            "src": src, "dst": dst})
        g = out.groupby(["split", "src", "dst"], as_index=False) \
            .size()
        return g.rename(columns={"size": "n"})

    trans = (_with_bucket(ev, "user_id", 16)
             .groupby("bucket").map_groups(fold,
                                           batch_format="pandas")
             .groupby(["split", "src", "dst"]).sum("n")).take_all()
    # model: per src, majority dst on train (ties → smallest dst)
    train = {}
    for r in trans:
        if r["split"] == "train":
            train.setdefault(r["src"], []).append(
                (-r["sum(n)"], r["dst"]))
    model = {s: sorted(v)[0][1] for s, v in train.items()}
    stats: dict[str, list[int]] = {}
    for r in trans:
        if r["split"] != "test":
            continue
        st = stats.setdefault(r["src"], [0, 0])
        st[0] += r["sum(n)"]
        if model.get(r["src"]) == r["dst"]:
            st[1] += r["sum(n)"]
    srcs = sorted(stats)
    return pd.DataFrame({
        "src": srcs,
        "n_test": np.array([stats[s][0] for s in srcs], np.int64),
        "n_hit": np.array([stats[s][1] for s in srcs], np.int64)})



QUERIES["next_type_majority_accuracy"] = q_next_type_majority_accuracy

ORACLE_SQL["next_type_majority_accuracy"] = """
        WITH seq AS (SELECT user_id, ts, event_type,
                            lead(event_type) OVER w AS nxt,
                            lead(user_id) OVER w AS nu
                     FROM events
                     WINDOW w AS (ORDER BY user_id, ts, event_id)),
        tr AS (SELECT event_type AS src, nxt AS dst,
                      CASE WHEN ts < TIMESTAMP '1995-07-01'
                           THEN 'train' ELSE 'test' END AS split
               FROM seq WHERE nu = user_id),
        m0 AS (SELECT src, dst, count(*) AS n FROM tr
               WHERE split = 'train' GROUP BY 1, 2),
        model AS (SELECT src, dst FROM (
                      SELECT src, dst, row_number() OVER (
                          PARTITION BY src
                          ORDER BY n DESC, dst) AS rn FROM m0)
                  WHERE rn = 1)
        SELECT t.src,
               CAST(count(*) AS BIGINT) AS n_test,
               CAST(SUM(CASE WHEN t.dst = m.dst THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_hit
        FROM tr t LEFT JOIN model m USING (src)
        WHERE t.split = 'test'
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# test_contamination_docs: train/test bigram decontamination audit
# ---------------------------------------------------------------------------

def q_test_contamination_docs(sf_dir: str):
    """Decontamination audit: for every TEST-split document (the
    train_split_docs Knuth-hash assignment), how many of its token
    bigrams also occur anywhere in the TRAIN split — the n-gram
    overlap signal an eval-set curator uses to throw out leaked
    examples. The train bigram vocabulary is Heaps-bounded but NOT
    broadcast: distinct train bigrams and distinct test (doc, bigram)
    pairs meet in a hash-bucketed semi-join co-partition; per-doc
    totals come back through one doc-grain groupby. Unnest-pair
    replay."""
    from battery.ops.relational import _with_bucket

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        b = ((did * np.uint64(2654435761)) % np.uint64(4294967296)) \
            % np.uint64(100)
        split = np.where(b < 90, 0, np.where(b < 95, 1, 2))
        toks_l = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks_l)
        keep = pc.not_equal(flat, "")
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False)
        fa = flat.to_numpy(zero_copy_only=False)
        km = keep.to_numpy(zero_copy_only=False)
        drep = np.repeat(did.view(np.int64), lens)
        srep = np.repeat(split, lens)
        fa, drep, srep = fa[km], drep[km], srep[km]
        # adjacent same-doc pairs
        same = np.r_[drep[1:] == drep[:-1], False]
        big = np.char.add(np.char.add(
            fa[:-1][same[:-1]].astype(str), "\x1f"),
            fa[1:][same[:-1]].astype(str))
        dd = drep[:-1][same[:-1]]
        ss = srep[:-1][same[:-1]]
        tr_m = ss == 0
        te_m = ss == 2
        tr = np.unique(big[tr_m])
        te = pd.DataFrame({"doc_id": dd[te_m],
                           "bigram": big[te_m]}).drop_duplicates()
        return pa.table({
            "kind": pa.array(np.r_[np.zeros(len(tr), np.int64),
                                   np.ones(len(te), np.int64)]),
            "doc_id": pa.array(np.r_[np.zeros(len(tr), np.int64),
                                     te["doc_id"].to_numpy(np.int64)]),
            "bigram": pa.array(np.r_[tr, te["bigram"].to_numpy()]
                               .astype(str))})

    tagged = docs.map_batches(pairs, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tr = set(df[df.kind == 0]["bigram"])
        te = df[df.kind == 1]
        if len(te) == 0:
            return pd.DataFrame({
                "doc_id": pd.Series(dtype=np.int64),
                "n_bigrams": pd.Series(dtype=np.int64),
                "n_seen": pd.Series(dtype=np.int64)})
        te = te.drop_duplicates(["doc_id", "bigram"])
        seen = te["bigram"].isin(tr).astype(np.int64)
        g = pd.DataFrame({"doc_id": te["doc_id"].to_numpy(np.int64),
                          "one": 1, "seen": seen.to_numpy()}) \
            .groupby("doc_id", as_index=False).sum()
        return g.rename(columns={"one": "n_bigrams",
                                 "seen": "n_seen"})

    def bucket2(t: pa.Table) -> pa.Table:
        from battery.ops.hashing import hash_strings

        h = hash_strings(t["bigram"].combine_chunks()
                         if isinstance(t["bigram"], pa.ChunkedArray)
                         else t["bigram"])
        return t.append_column(
            "bucket", pa.array((h % np.uint64(16)).astype(np.int64)))

    per_doc = (tagged.map_batches(bucket2, batch_format="pyarrow")
               .groupby("bucket").map_groups(fold,
                                             batch_format="pandas")
               .groupby("doc_id").sum(["n_bigrams", "n_seen"]))
    return _rename(per_doc, ["doc_id", "n_bigrams", "n_seen"])



QUERIES["test_contamination_docs"] = q_test_contamination_docs

ORACLE_SQL["test_contamination_docs"] = """
        WITH s AS (SELECT doc_id,
                          (doc_id * 2654435761) % 4294967296 % 100
                              AS b,
                          string_split(text, ' ') AS toks
                   FROM documents),
        f AS (SELECT doc_id, b,
                     list_filter(toks, x -> x <> '') AS toks
              FROM s),
        pairs AS (SELECT doc_id, b,
                         toks[i] || chr(31) || toks[i + 1] AS bigram
                  FROM f, LATERAL unnest(range(1, len(toks))) t(i)),
        tr AS (SELECT DISTINCT bigram FROM pairs WHERE b < 90),
        te AS (SELECT DISTINCT doc_id, bigram FROM pairs
               WHERE b >= 95)
        SELECT te.doc_id,
               CAST(count(*) AS BIGINT) AS n_bigrams,
               CAST(SUM(CASE WHEN tr.bigram IS NOT NULL
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_seen
        FROM te LEFT JOIN tr USING (bigram)
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# quota_allocation_sources: largest-remainder corpus mixing
# ---------------------------------------------------------------------------

_QUOTA_BUDGET = 1000



def q_quota_allocation_sources(sf_dir: str):
    """Corpus-mixing quota allocation (Hamilton / largest-remainder):
    split a 1000-doc sampling budget across sources proportionally to
    their doc counts — floor allocations first, then the leftover
    seats go to the largest remainders (ties → lexicographically
    smaller source) — the exact integer method that avoids float
    shares summing ≠ budget. Counts are one tiny groupby; the
    apportionment is source-cardinality driver algebra. Window-rank
    replay."""
    ds = _read(sf_dir, "documents", ["source"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([([], "count_all")])
        return pa.table({"source": g["source"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("source").sum("n")).take_all()
    srcs = sorted(r["source"] for r in counts)
    n = np.array([next(r["sum(n)"] for r in counts
                       if r["source"] == s) for s in srcs], np.int64)
    total = int(n.sum())
    floor_alloc = (_QUOTA_BUDGET * n) // total
    rem = _QUOTA_BUDGET * n - floor_alloc * total  # remainder·total
    leftover = _QUOTA_BUDGET - int(floor_alloc.sum())
    order = np.lexsort((np.array(srcs), -rem))
    final = floor_alloc.copy()
    final[order[:leftover]] += 1
    return pd.DataFrame({
        "source": srcs,
        "n_docs": n,
        "floor_alloc": floor_alloc.astype(np.int64),
        "final_alloc": final.astype(np.int64)})



QUERIES["quota_allocation_sources"] = q_quota_allocation_sources

ORACLE_SQL["quota_allocation_sources"] = f"""
        WITH c AS (SELECT source, count(*) AS n FROM documents
                   GROUP BY 1),
        t AS (SELECT sum(n) AS total,
                     {_QUOTA_BUDGET} - sum(({_QUOTA_BUDGET} * n)
                                           // sum(n) OVER ()) AS x
              FROM c),
        base AS (SELECT source, n,
                        ({_QUOTA_BUDGET} * n)
                            // (SELECT sum(n) FROM c) AS fl,
                        {_QUOTA_BUDGET} * n
                        - (({_QUOTA_BUDGET} * n)
                           // (SELECT sum(n) FROM c))
                          * (SELECT sum(n) FROM c) AS rem
                 FROM c),
        lk AS (SELECT {_QUOTA_BUDGET} - sum(fl) AS leftover
               FROM base),
        rk AS (SELECT source, n, fl, rem,
                      row_number() OVER (ORDER BY rem DESC, source)
                          AS rn
               FROM base)
        SELECT source, CAST(n AS BIGINT) AS n_docs,
               CAST(fl AS BIGINT) AS floor_alloc,
               CAST(fl + CASE WHEN rn <= (SELECT leftover FROM lk)
                              THEN 1 ELSE 0 END AS BIGINT)
                   AS final_alloc
        FROM rk
    """



# ---------------------------------------------------------------------------
# snm_recall_audit: blocking-method recall against verified near-dups
# ---------------------------------------------------------------------------

def q_snm_recall_audit(sf_dir: str):
    """Blocking evaluation — the number a dedup engineer actually
    tunes on: of the VERIFIED near-dup pairs (embedding cosine ≥ 0.35
    ground truth, mapped to documents by shared id), how many does the
    cheap Sorted-Neighborhood window catch (pair completeness), and
    how many candidates did it spend (the cost side). Both operands
    are existing distributed stages reused as-is; the audit join runs
    over two dedup-output-scale sets. Replay joins the two existing
    SQL oracles."""
    from battery.ops.dedup import embedding_dup_pairs

    truth = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    tset = {(min(r["a"], r["b"]), max(r["a"], r["b"]))
            for r in truth}

    cand = q_snm_candidate_pairs(sf_dir).take_all()
    cset = {(min(r["a"], r["b"]), max(r["a"], r["b"]))
            for r in cand}

    caught = len(tset & cset)
    return pd.DataFrame({
        "n_truth": np.array([len(tset)], np.int64),
        "n_candidates": np.array([len(cset)], np.int64),
        "n_caught": np.array([caught], np.int64)})



QUERIES["snm_recall_audit"] = q_snm_recall_audit



def _snm_recall_sql() -> str:
    snm = ORACLE_SQL["snm_candidate_pairs"]
    return f"""
        WITH truth AS ({EMBEDDING_DUPS_SQL}),
        snm AS ({snm}),
        cn AS (SELECT DISTINCT least(a, b) AS a, greatest(a, b) AS b
               FROM snm),
        tn AS (SELECT a, b FROM truth)
        SELECT CAST((SELECT count(*) FROM tn) AS BIGINT) AS n_truth,
               CAST((SELECT count(*) FROM cn) AS BIGINT)
                   AS n_candidates,
               CAST((SELECT count(*) FROM tn JOIN cn USING (a, b))
                    AS BIGINT) AS n_caught
    """



# ---------------------------------------------------------------------------
# dim_median_embeddings: exact per-dimension order statistic
# ---------------------------------------------------------------------------

def q_dim_median_embeddings(sf_dir: str):
    """Exact per-dimension lower median of the embedding matrix — the
    robust-center vector an outlier-resistant normalizer subtracts
    (means are poisoned by a single corrupt vector; medians are not).
    No arithmetic touches the floats, so no lattice is needed: values
    route to their DIMENSION's co-partition (64 bounded groups), each
    group sorts once and picks the element at rank (n−1)//2 —
    quantile_disc semantics. Unnest + quantile_disc replay, e6-scaled
    only at the very end for hashability."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def explode(t: pa.Table) -> pa.Table:
        V = np.stack(t["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        n, dim = V.shape
        return pa.table({
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    n)),
            "v": pa.array(V.ravel())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(df["v"].to_numpy(np.float64))
        med = v[(len(v) - 1) // 2]
        return pd.DataFrame({
            "dim": np.array([df["dim"].iloc[0]], np.int64),
            "median_e6": np.array(
                [int(np.floor(med * 1_000_000.0))], np.int64),
            "n": np.array([len(v)], np.int64)})

    out = (emb.map_batches(explode, batch_format="pyarrow")
           .groupby("dim").map_groups(fold, batch_format="pandas"))
    return out



QUERIES["dim_median_embeddings"] = q_dim_median_embeddings



def _dim_median_sql(sf_dir: str) -> str:
    # WITH ORDINALITY is unavailable in this DuckDB — index the list
    # column against an unnested range instead (1-based indexing)
    import pyarrow.parquet as pq

    dim = len(pq.read_table(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])
              .slice(0, 1)["embedding"][0])
    return f"""
        WITH u AS (SELECT d.i AS dim,
                          CAST(embedding[d.i + 1] AS DOUBLE) AS v
                   FROM embeddings,
                        (SELECT unnest(range(0, {dim})) AS i) d)
        SELECT dim,
               CAST(floor(quantile_disc(v, 0.5) * 1000000.0)
                    AS BIGINT) AS median_e6,
               CAST(count(*) AS BIGINT) AS n
        FROM u GROUP BY 1
    """



# ---------------------------------------------------------------------------
# dispersion_class_users: inter-event burstiness classes (exact)
# ---------------------------------------------------------------------------

def q_dispersion_class_users(sf_dir: str):
    """Inter-event dispersion class per user — regular / mid / bursty
    by the index-of-dispersion SIGN TEST done entirely in integers:
    with gap sums S₁ = Σd and S₂ = Σd², the coefficient-of-variation
    check CV² ≷ 1 becomes n·n·S₂ ≷ 2·n·S₁² − n·S₁² ... reduced to
    comparing n·S₂ against 2·S₁²/n-free cross-multiples:
    bursty  ⇔ n·(n−1)·S₂ > 2·S₁²·(n−1)/(n−1) — implemented as the
    exact integer predicate n·S₂·(n−1) vs S₁²·... (see code: the
    two boundaries are CV² = 1/2 and CV² = 2, cross-multiplied so no
    quotient forms). One user co-partition. CASE replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64) \
            // 1_000_000  # seconds — keeps S2 in int64
        same = np.r_[False, u[1:] == u[:-1]]
        d = np.where(same, ts - np.r_[0, ts[:-1]], 0)
        seg = pd.DataFrame({"u": u, "d": d, "g": same.astype(np.int64)})
        agg = seg.groupby("u", as_index=False).agg(
            n=("g", "sum"), s1=("d", "sum"))
        s2 = pd.DataFrame({
            "u": u, "d2": np.where(same, d * d, 0)}) \
            .groupby("u", as_index=False).sum()
        m = agg.merge(s2, on="u")
        m = m[m.n >= 2]
        n = m["n"].to_numpy(np.int64)
        s1 = m["s1"].to_numpy(np.int64)
        d2 = m["d2"].to_numpy(np.int64)
        # CV² = n·(n·S₂ − S₁²) / ((n−1)·S₁²)  (sample variance / mean²)
        num = n * (n * d2 - s1 * s1)
        den = (n - 1) * s1 * s1
        cls = np.where(2 * num < den, 0,          # CV² < 1/2: regular
                       np.where(num > 2 * den, 2, 1))  # > 2: bursty
        out = pd.DataFrame({"u": m["u"].to_numpy(np.int64),
                            "cls": cls})
        g = out.groupby("cls", as_index=False).size()
        return g.rename(columns={"size": "n_users"})

    agg = (_with_bucket(ev, "user_id", 16)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .groupby("cls").sum("n_users")).take_all()
    by = {int(r["cls"]): int(r["sum(n_users)"]) for r in agg}
    return pd.DataFrame({
        "cls": np.array([0, 1, 2], np.int64),
        "n_users": np.array([by.get(c, 0) for c in (0, 1, 2)],
                            np.int64)})



QUERIES["dispersion_class_users"] = q_dispersion_class_users

ORACLE_SQL["dispersion_class_users"] = """
        WITH g AS (SELECT user_id,
                          epoch_us(ts) // 1000000
                          - lag(epoch_us(ts) // 1000000) OVER (
                                PARTITION BY user_id ORDER BY ts)
                              AS d
                   FROM events),
        a AS (SELECT user_id, count(d) AS n, sum(d) AS s1,
                     sum(d * d) AS s2
              FROM g WHERE d IS NOT NULL GROUP BY 1
              HAVING count(d) >= 2),
        c AS (SELECT CASE
                  WHEN 2 * (n * (n * s2 - s1 * s1)) <
                       (n - 1) * s1 * s1 THEN 0
                  WHEN n * (n * s2 - s1 * s1) >
                       2 * ((n - 1) * s1 * s1) THEN 2
                  ELSE 1 END AS cls
              FROM a),
        k AS (SELECT cls, count(*) AS n_users FROM c GROUP BY 1),
        all3(cls) AS (VALUES (0), (1), (2))
        SELECT CAST(all3.cls AS BIGINT) AS cls,
               CAST(COALESCE(k.n_users, 0) AS BIGINT) AS n_users
        FROM all3 LEFT JOIN k USING (cls)
    """



# ---------------------------------------------------------------------------
# int8_quant_audit_embeddings: symmetric INT8 quantization error audit
# ---------------------------------------------------------------------------

def q_int8_quant_audit_embeddings(sf_dir: str):
    """INT8 quantization audit — the compression step every serving
    stack applies to embeddings, done exactly: per DIMENSION symmetric
    scale s = ceil(maxabs_e6 / 127) on the e6 lattice, code
    q = round(x/s) computed as the INTEGER floor((2x + s) / (2s))
    (positivity enforced by a +127·s shift so both engines floor the
    same way), then the audit counts saturated codes and the exact
    total |reconstruction error| Σ|x − q·s| in e6 units — all int64.
    Two passes at dimension cardinality: max-abs partials, then error
    partials with the 64 scales broadcast. Integer-CASE replay."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def maxabs(t: pa.Table) -> pa.Table:
        V = np.stack(t["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        X = np.floor(V * 1_000_000.0).astype(np.int64)
        m = np.abs(X).max(axis=0)
        return pa.table({"dim": pa.array(np.arange(len(m),
                                                   dtype=np.int64)),
                         "m": pa.array(m)})

    mx = (emb.map_batches(maxabs, batch_format="pyarrow")
          .groupby("dim").max("m")).take_all()
    dims = np.array([r["dim"] for r in mx], np.int64)
    ms = np.array([r["max(m)"] for r in mx], np.int64)
    o = np.argsort(dims)
    scale = -(-ms[o] // 127)  # ceil div; dim-ordered
    scale = np.maximum(scale, 1)
    sref = ray.put(scale)

    def err(t: pa.Table) -> pa.Table:
        s = _broadcast(sref)
        V = np.stack(t["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        X = np.floor(V * 1_000_000.0).astype(np.int64)
        # round-half-up nearest code via floored integer division,
        # shifted positive so floor == python == SQL for negatives
        SHIFT = 130
        q = (2 * (X + SHIFT * s) + s) // (2 * s) - SHIFT
        sat = (q > 127) | (q < -127)
        qc = np.clip(q, -127, 127)
        e = np.abs(X - qc * s)
        return pa.table({
            "dim": pa.array(np.tile(np.arange(X.shape[1],
                                              dtype=np.int64),
                                    X.shape[0])),
            "n_sat": pa.array(sat.astype(np.int64).ravel()),
            "abs_err": pa.array(e.ravel())})

    def comb(t: pa.Table) -> pa.Table:
        g = t.group_by("dim").aggregate([("n_sat", "sum"),
                                         ("abs_err", "sum")])
        return g.rename_columns(["dim", "n_sat", "abs_err"])

    out = (emb.map_batches(err, batch_format="pyarrow")
           .map_batches(comb, batch_format="pyarrow")
           .groupby("dim").sum(["n_sat", "abs_err"]))
    out = _rename(out, ["dim", "n_sat", "abs_err"])

    def attach(t: pa.Table) -> pa.Table:
        s = _broadcast(sref)
        d = t["dim"].to_numpy(zero_copy_only=False)
        return t.append_column("scale", pa.array(s[d]))

    return out.map_batches(attach, batch_format="pyarrow")



QUERIES["int8_quant_audit_embeddings"] = q_int8_quant_audit_embeddings



def _int8_quant_sql(sf_dir: str) -> str:
    import pyarrow.parquet as pq

    dim = len(pq.read_table(f"{sf_dir}/embeddings.parquet",
                            columns=["embedding"])
              .slice(0, 1)["embedding"][0])
    return f"""
        WITH u AS (SELECT d.i AS dim,
                          CAST(floor(CAST(embedding[d.i + 1]
                                          AS DOUBLE) * 1000000.0)
                               AS BIGINT) AS x
                   FROM embeddings,
                        (SELECT unnest(range(0, {dim})) AS i) d),
        sc AS (SELECT dim,
                      greatest(CAST(ceil(CAST(max(abs(x)) AS DOUBLE)
                                         / 127.0) AS BIGINT), 1)
                          AS s
               FROM u GROUP BY 1),
        q AS (SELECT u.dim, u.x, sc.s,
                     (2 * (u.x + 130 * sc.s) + sc.s)
                         // (2 * sc.s) - 130 AS code
              FROM u JOIN sc USING (dim))
        SELECT dim,
               CAST(SUM(CASE WHEN code > 127 OR code < -127
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_sat,
               CAST(SUM(abs(x - greatest(least(code, 127), -127) * s))
                    AS BIGINT) AS abs_err,
               CAST(max(s) AS BIGINT) AS scale
        FROM q GROUP BY 1
    """



# ---------------------------------------------------------------------------
# proj_profile_images: projection profiles (document-image primitive)
# ---------------------------------------------------------------------------

def q_proj_profile_images(sf_dir: str):
    """Projection profiles per image (first 1024): the argmax ROW and
    COLUMN of gray mass (first index on ties) with their exact sums —
    the text-line / layout detection primitive. Row and column sums
    are two reductions of the batch tensor; nothing per-pixel.
    Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class ProjStage:
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
            cols = {k: [] for k in ("image_id", "peak_row",
                                    "peak_row_sum", "peak_col",
                                    "peak_col_sum")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                rows = gray.sum(axis=2)
                colsum = gray.sum(axis=1)
                pr = rows.argmax(axis=1)
                pc_ = colsum.argmax(axis=1)
                k = len(slots)
                cols["image_id"].append(ids[slots])
                cols["peak_row"].append(pr.astype(np.int64))
                cols["peak_row_sum"].append(
                    rows[np.arange(k), pr].astype(np.int64))
                cols["peak_col"].append(pc_.astype(np.int64))
                cols["peak_col_sum"].append(
                    colsum[np.arange(k), pc_].astype(np.int64))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in cols.items()})

    return ds.map_batches(ProjStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["proj_profile_images"] = q_proj_profile_images



def _proj_profile_sidecar(img: str, n: int = 1024) -> str:
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_projprof_{_P(img).name}_{n}_"
        f"{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        res = {k: np.zeros(len(ws), np.int64)
               for k in ("peak_row", "peak_row_sum", "peak_col",
                         "peak_col_sum")}
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                rsums = []
                for y in range(hi):
                    s = 0
                    for x in range(wi):
                        s += (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                              + int(px[j, y, x, 2])) // 3
                    rsums.append(s)
                csums = []
                for x in range(wi):
                    s = 0
                    for y in range(hi):
                        s += (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                              + int(px[j, y, x, 2])) // 3
                    csums.append(s)
                pr = max(range(hi), key=lambda y: (rsums[y], -y))
                pcx = max(range(wi), key=lambda x: (csums[x], -x))
                res["peak_row"][slot] = pr
                res["peak_row_sum"][slot] = rsums[pr]
                res["peak_col"][slot] = pcx
                res["peak_col_sum"][slot] = csums[pcx]
        out = {"image_id": ids}
        out.update({k: pa.array(v) for k, v in res.items()})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table(out), p)
    return str(p)



def _proj_profile_sql(img: str) -> str:
    return (f"SELECT image_id, peak_row, peak_row_sum, peak_col, "
            f"peak_col_sum "
            f"FROM read_parquet('{_proj_profile_sidecar(img)}')")



# ---------------------------------------------------------------------------
# sentence_stats_docs: sentence segmentation profile per language
# ---------------------------------------------------------------------------

def q_sentence_stats_docs(sf_dir: str):
    """Sentence segmentation profile per language: fragment counts
    from the [.!?]+ splitter, non-empty fragments after strip, and
    their exact char mass — the granularity signal a chunking stage
    sizes context windows with. One vectorized regex split + Arrow
    list kernels per batch; shuffle is language-cardinality.
    string_split_regex replay."""
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        frags = pc.split_pattern_regex(t["text"], r"[.!?]+")
        flat = pc.utf8_trim_whitespace(pc.list_flatten(frags))
        lens = pc.list_value_length(frags).to_numpy(
            zero_copy_only=False)
        lang = np.repeat(t["lang"].to_numpy(zero_copy_only=False),
                         lens)
        nch = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        nonempty = (nch > 0).astype(np.int64)
        g = pa.table({
            "lang": pa.array(lang),
            "n_frags": pa.array(np.ones(len(lang), np.int64)),
            "n_sentences": pa.array(nonempty),
            "char_mass": pa.array(nch.astype(np.int64) * nonempty)}) \
            .group_by("lang").aggregate([("n_frags", "sum"),
                                         ("n_sentences", "sum"),
                                         ("char_mass", "sum")])
        return g.rename_columns(["lang", "n_frags", "n_sentences",
                                 "char_mass"])

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("lang").sum(["n_frags", "n_sentences",
                                 "char_mass"]))
    return _rename(out, ["lang", "n_frags", "n_sentences",
                         "char_mass"])



QUERIES["sentence_stats_docs"] = q_sentence_stats_docs

ORACLE_SQL["sentence_stats_docs"] = """
        WITH f AS (SELECT lang,
                          unnest(string_split_regex(text, '[.!?]+'))
                              AS frag
                   FROM documents),
        t AS (SELECT lang, trim(frag) AS frag FROM f)
        SELECT lang,
               CAST(count(*) AS BIGINT) AS n_frags,
               CAST(SUM(CASE WHEN length(frag) > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_sentences,
               CAST(SUM(CASE WHEN length(frag) > 0
                        THEN length(frag) ELSE 0 END) AS BIGINT)
                   AS char_mass
        FROM t GROUP BY 1
    """



# ---------------------------------------------------------------------------
# rbo_nation_rankings: rank-biased overlap between two rankings (exact)
# ---------------------------------------------------------------------------

_RBO_D = 10  # evaluation depth; p = 9/10 persistence



def q_rbo_nation_rankings(sf_dir: str):
    """Rank-Biased Overlap (Webber et al.) between the nations ranked
    by revenue vs by order count, truncated at depth 10 with
    persistence p = 9/10 — the ranking-agreement metric scaled to an
    EXACT integer: RBO·(10^d·d) has numerator Σ_i overlap@i · 9^(i−1)
    · 10^(d−i) · d — every term int64, no float ever forms. The two
    rankings are nation-cardinality aggregates off one fact pass;
    the overlap algebra is driver-side dimension work. Double
    ROW_NUMBER + prefix-join replay."""
    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    nk = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    cref = ray.put((ck, nk))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        ck_, nk_ = _broadcast(cref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        nat = nk_[np.searchsorted(ck_, c)]
        cents = np.floor(t["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"nationkey": pa.array(nat),
                      "cents": pa.array(cents),
                      "n": pa.array(np.ones(len(nat), np.int64))}) \
            .group_by("nationkey").aggregate([("cents", "sum"),
                                              ("n", "sum")])
        return g.rename_columns(["nationkey", "cents", "n"])

    agg = (orders.map_batches(part, batch_format="pyarrow")
           .groupby("nationkey").sum(["cents", "n"])).take_all()
    nks = np.array([r["nationkey"] for r in agg], np.int64)
    cents = np.array([r["sum(cents)"] for r in agg], np.int64)
    cnts = np.array([r["sum(n)"] for r in agg], np.int64)
    # rank: value desc, nationkey asc tie
    r1 = nks[np.lexsort((nks, -cents))][:_RBO_D]
    r2 = nks[np.lexsort((nks, -cnts))][:_RBO_D]
    num = 0
    d = _RBO_D
    for i in range(1, d + 1):
        ov = len(set(r1[:i].tolist()) & set(r2[:i].tolist()))
        num += ov * (9 ** (i - 1)) * (10 ** (d - i)) * d
    den = sum((9 ** (i - 1)) * (10 ** (d - i)) * i
              for i in range(1, d + 1)) * d
    # identical rankings ⇒ overlap@i = i ⇒ num == den
    return pd.DataFrame({"rbo_num": np.array([num], np.int64),
                         "rbo_den": np.array([den], np.int64)})



QUERIES["rbo_nation_rankings"] = q_rbo_nation_rankings

ORACLE_SQL["rbo_nation_rankings"] = f"""
        WITH a AS (SELECT c.c_nationkey AS nk,
                          SUM(CAST(floor(o.o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS cents,
                          count(*) AS n
                   FROM orders o JOIN customer c
                     ON c.c_custkey = o.o_custkey
                   GROUP BY 1),
        r1 AS (SELECT nk, row_number() OVER (ORDER BY cents DESC, nk)
                          AS rk FROM a),
        r2 AS (SELECT nk, row_number() OVER (ORDER BY n DESC, nk)
                          AS rk FROM a),
        depths AS (SELECT unnest(range(1, {_RBO_D + 1})) AS i),
        ov AS (SELECT d.i,
                      (SELECT count(*) FROM r1 x JOIN r2 y
                       USING (nk)
                       WHERE x.rk <= d.i AND y.rk <= d.i) AS o
               FROM depths d)
        SELECT CAST(SUM(o * POWER(9, i - 1) * POWER(10, {_RBO_D} - i)
                        * {_RBO_D}) AS BIGINT) AS rbo_num,
               CAST(SUM(i * POWER(9, i - 1) * POWER(10, {_RBO_D} - i)
                        * {_RBO_D}) AS BIGINT) AS rbo_den
        FROM ov
    """



# ---------------------------------------------------------------------------
# lbp_texture_images: local-binary-pattern texture histogram
# ---------------------------------------------------------------------------

def q_lbp_texture_images(sf_dir: str):
    """4-neighbour Local Binary Pattern texture census per image
    (first 1024): each INTERIOR pixel gets a 4-bit code (one bit per
    neighbour strictly brighter), and the image reports its 16-bin
    code histogram packed as (image, code, n) rows — the classic
    texture descriptor, all from four shifted compares + one
    offset-packed bincount per batch tensor. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class LbpStage:
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
            out_id, out_c, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                g = px.astype(np.int64).sum(axis=3) // 3
                c = g[:, 1:-1, 1:-1]
                code = ((g[:, :-2, 1:-1] > c).astype(np.int64)
                        | ((g[:, 2:, 1:-1] > c).astype(np.int64) << 1)
                        | ((g[:, 1:-1, :-2] > c).astype(np.int64) << 2)
                        | ((g[:, 1:-1, 2:] > c).astype(np.int64) << 3))
                k = len(slots)
                packed = (np.arange(k)[:, None, None] * 16 + code)
                hist = np.bincount(packed.ravel(),
                                   minlength=k * 16).reshape(k, 16)
                nz_i, nz_c = np.nonzero(hist)
                out_id.append(ids[slots][nz_i])
                out_c.append(nz_c.astype(np.int64))
                out_n.append(hist[nz_i, nz_c].astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "code": pa.array(np.concatenate(out_c)),
                "n": pa.array(np.concatenate(out_n))})

    return ds.map_batches(LbpStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["lbp_texture_images"] = q_lbp_texture_images



def _lbp_sidecar(img: str, n: int = 1024) -> str:
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_lbp_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        rows_id, rows_c, rows_n = [], [], []
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                gray = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                          + int(px[j, y, x, 2])) // 3
                         for x in range(wi)] for y in range(hi)]
                hist = [0] * 16
                for y in range(1, hi - 1):
                    for x in range(1, wi - 1):
                        c = gray[y][x]
                        code = ((1 if gray[y - 1][x] > c else 0)
                                | (2 if gray[y + 1][x] > c else 0)
                                | (4 if gray[y][x - 1] > c else 0)
                                | (8 if gray[y][x + 1] > c else 0))
                        hist[code] += 1
                for cd in range(16):
                    if hist[cd]:
                        rows_id.append(ids[slot].as_py())
                        rows_c.append(cd)
                        rows_n.append(hist[cd])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": pa.array(rows_id, pa.string()),
            "code": pa.array(rows_c, pa.int64()),
            "n": pa.array(rows_n, pa.int64())}), p)
    return str(p)



def _lbp_sql(img: str) -> str:
    return (f"SELECT image_id, code, n "
            f"FROM read_parquet('{_lbp_sidecar(img)}')")



# ---------------------------------------------------------------------------
# line_price_trend_orders: within-order price trend signs
# ---------------------------------------------------------------------------

def q_line_price_trend_orders(sf_dir: str):
    """Within-order price trend: the SIGN of the covariance between
    line number and extended price per multi-line order — n·Σxy −
    Σx·Σy on the cents lattice, exact int64 — rolled up into a 3-row
    histogram (falling / flat / rising). All four moments are
    per-batch combinable, so one orderkey groupby carries four int64
    sums and a count; no order's lines ever co-locate beyond the
    groupby. Window-free SUM replay."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def part(t: pa.Table) -> pa.Table:
        x = t["l_linenumber"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"ok": t["l_orderkey"],
                      "n": pa.array(np.ones(len(x), np.int64)),
                      "sx": pa.array(x), "sy": pa.array(y),
                      "sxy": pa.array(x * y)}) \
            .group_by("ok").aggregate([("n", "sum"), ("sx", "sum"),
                                       ("sy", "sum"), ("sxy", "sum")])
        return g.rename_columns(["ok", "n", "sx", "sy", "sxy"])

    agg = (li.map_batches(part, batch_format="pyarrow")
           .groupby("ok").sum(["n", "sx", "sy", "sxy"]))
    agg = _rename(agg, ["ok", "n", "sx", "sy", "sxy"])

    def cls(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxy = t["sxy"].to_numpy(zero_copy_only=False)
        keep = n >= 2
        cov = n[keep] * sxy[keep] - sx[keep] * sy[keep]
        sgn = np.sign(cov).astype(np.int64)
        u, c = np.unique(sgn, return_counts=True)
        return pa.table({"trend": pa.array(u),
                         "n_orders": pa.array(c.astype(np.int64))})

    got = (agg.map_batches(cls, batch_format="pyarrow")
           .groupby("trend").sum("n_orders")).take_all()
    by = {int(r["trend"]): int(r["sum(n_orders)"]) for r in got}
    return pd.DataFrame({
        "trend": np.array([-1, 0, 1], np.int64),
        "n_orders": np.array([by.get(s, 0) for s in (-1, 0, 1)],
                             np.int64)})



QUERIES["line_price_trend_orders"] = q_line_price_trend_orders

ORACLE_SQL["line_price_trend_orders"] = """
        WITH a AS (SELECT l_orderkey,
                          count(*) AS n,
                          SUM(CAST(l_linenumber AS BIGINT)) AS sx,
                          SUM(CAST(floor(l_extendedprice * 100.0
                                         + 0.5) AS BIGINT)) AS sy,
                          SUM(CAST(l_linenumber AS BIGINT)
                              * CAST(floor(l_extendedprice * 100.0
                                           + 0.5) AS BIGINT)) AS sxy
                   FROM lineitem GROUP BY 1
                   HAVING count(*) >= 2),
        s AS (SELECT sign(n * sxy - sx * sy) AS trend FROM a),
        k AS (SELECT trend, count(*) AS n_orders FROM s GROUP BY 1),
        all3(trend) AS (VALUES (-1), (0), (1))
        SELECT CAST(all3.trend AS BIGINT) AS trend,
               CAST(COALESCE(k.n_orders, 0) AS BIGINT) AS n_orders
        FROM all3 LEFT JOIN k USING (trend)
    """



# ---------------------------------------------------------------------------
# route_pair_min_vertex_dist: pairwise route separation (vertex→polyline)
# ---------------------------------------------------------------------------

def q_route_pair_min_vertex_dist(sf_dir: str):
    """Pairwise route separation matrix: for each ordered route pair
    (a ≠ b), the minimum distance from A's centerline VERTICES to B's
    polyline (the standard vertex-sampled separation bound — exact
    IEEE, same clamped-projection kernel as tile_knn, so the oracle
    replays it bit-exactly from the two sidecars). Dimension-scale
    compute (routes × vertices × segments), but expressed through the
    same broadcast + vectorized kernel the fact-scale kNN uses.
    Output d2 (squared meters) — no sqrt, no rounding."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                  route_polylines)

    mx, my = meter_frame(_ANCHOR_LAT)
    lines = route_polylines(_fixture_ctx())
    verts = {}
    segs = {}
    for rid in sorted(lines):
        vs, ss = [], []
        for part_arr in lines[rid]:
            m = np.column_stack([
                (part_arr[:, 0] - _ANCHOR_LON) * mx,
                (part_arr[:, 1] - _ANCHOR_LAT) * my])
            vs.append(m)
            sax, say = m[:-1, 0], m[:-1, 1]
            sdx, sdy = m[1:, 0] - sax, m[1:, 1] - say
            L2 = sdx * sdx + sdy * sdy
            L2 = np.where(L2 == 0.0, 1.0, L2)
            ss.append((sax, say, sdx, sdy, 1.0 / L2))
        verts[rid] = np.concatenate(vs)
        segs[rid] = tuple(np.concatenate([s[i] for s in ss])
                          for i in range(5))
    rows_a, rows_b, rows_d = [], [], []
    for ra in sorted(lines):
        P = verts[ra]
        for rb in sorted(lines):
            if ra == rb:
                continue
            sax, say, sdx, sdy, sinv = segs[rb]
            rx = P[:, 0][:, None] - sax[None, :]
            ry = P[:, 1][:, None] - say[None, :]
            t = (rx * sdx + ry * sdy) * sinv
            np.clip(t, 0.0, 1.0, out=t)
            ux = rx - t * sdx
            uy = ry - t * sdy
            d2 = ux * ux + uy * uy
            rows_a.append(ra)
            rows_b.append(rb)
            rows_d.append(float(d2.min()))
    return pd.DataFrame({"route_a": rows_a, "route_b": rows_b,
                         "min_d2": rows_d})



QUERIES["route_pair_min_vertex_dist"] = q_route_pair_min_vertex_dist



def _oracle_vertices_path() -> str:
    """Sidecar: route centerline vertices in the meter frame."""
    p = (_oracle_cache_dir()
         / f"oracle_route_vertices_{_geom_digest()}.parquet")
    if not p.exists():
        from geotile.geom.buffer import meter_frame
        from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                      route_polylines)

        mx, my = meter_frame(_ANCHOR_LAT)
        lines = route_polylines(_fixture_ctx())
        rids, pxs, pys = [], [], []
        for rid in sorted(lines):
            for part_arr in lines[rid]:
                m = np.column_stack([
                    (part_arr[:, 0] - _ANCHOR_LON) * mx,
                    (part_arr[:, 1] - _ANCHOR_LAT) * my])
                rids.extend([rid] * len(m))
                pxs.append(m[:, 0])
                pys.append(m[:, 1])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "route_id": pa.array(rids, pa.string()),
            "px": pa.array(np.concatenate(pxs)),
            "py": pa.array(np.concatenate(pys))}), p)
    return str(p)



def _route_pair_dist_sql() -> str:
    verts = _oracle_vertices_path()
    segs = _oracle_segments_idx_path()
    return f"""
        WITH v AS (SELECT route_id AS ra, px, py
                   FROM read_parquet('{verts}')),
        s AS (SELECT route_id AS rb, ax, ay, dx, dy, inv_l2
              FROM read_parquet('{segs}')),
        d AS (SELECT v.ra, s.rb,
                     ((v.px - s.ax) - greatest(0.0, least(1.0,
                         ((v.px - s.ax) * s.dx + (v.py - s.ay) * s.dy)
                         * s.inv_l2)) * s.dx)
                   * ((v.px - s.ax) - greatest(0.0, least(1.0,
                         ((v.px - s.ax) * s.dx + (v.py - s.ay) * s.dy)
                         * s.inv_l2)) * s.dx)
                   + ((v.py - s.ay) - greatest(0.0, least(1.0,
                         ((v.px - s.ax) * s.dx + (v.py - s.ay) * s.dy)
                         * s.inv_l2)) * s.dy)
                   * ((v.py - s.ay) - greatest(0.0, least(1.0,
                         ((v.px - s.ax) * s.dx + (v.py - s.ay) * s.dy)
                         * s.inv_l2)) * s.dy) AS d2
              FROM v JOIN s ON s.rb <> v.ra)
        SELECT ra AS route_a, rb AS route_b, min(d2) AS min_d2
        FROM d GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# seam_energy_images: min vertical-seam cost (dynamic programming)
# ---------------------------------------------------------------------------

def q_seam_energy_images(sf_dir: str):
    """Seam-carving primitive per image (first 1024): the minimum
    vertical 8-connected seam cost over the |horizontal gradient|
    energy map, by dynamic programming run LEVEL-SYNCHRONOUSLY — one
    vectorized min-of-three shift per ROW over the whole batch
    tensor, h iterations total, never a per-pixel loop. Reports the
    exact integer cost and the seam's end column (first argmin).
    Scalar DP replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)
    BIG = np.int64(1 << 60)

    class SeamStage:
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
            out_id, out_c, out_e = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                g = px.astype(np.int64).sum(axis=3) // 3
                en = np.zeros_like(g)
                en[:, :, 1:-1] = np.abs(g[:, :, 2:] - g[:, :, :-2])
                en[:, :, 0] = np.abs(g[:, :, 1] - g[:, :, 0])
                en[:, :, -1] = np.abs(g[:, :, -1] - g[:, :, -2])
                cost = en[:, 0, :].copy()
                for y in range(1, hi):
                    left = np.concatenate(
                        [np.full((len(slots), 1), BIG), cost[:, :-1]],
                        axis=1)
                    right = np.concatenate(
                        [cost[:, 1:], np.full((len(slots), 1), BIG)],
                        axis=1)
                    cost = en[:, y, :] + np.minimum(
                        np.minimum(left, cost), right)
                end = cost.argmin(axis=1)
                out_id.append(ids[slots])
                out_c.append(end.astype(np.int64))
                out_e.append(cost[np.arange(len(slots)), end]
                             .astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "end_col": pa.array(np.concatenate(out_c)),
                "seam_cost": pa.array(np.concatenate(out_e))})

    return ds.map_batches(SeamStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["seam_energy_images"] = q_seam_energy_images



def _seam_sidecar(img: str, n: int = 1024) -> str:
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_seam_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        ec = np.zeros(len(ws), np.int64)
        sc = np.zeros(len(ws), np.int64)
        BIG = 1 << 60
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                gray = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                          + int(px[j, y, x, 2])) // 3
                         for x in range(wi)] for y in range(hi)]
                en = [[0] * wi for _ in range(hi)]
                for y in range(hi):
                    for x in range(wi):
                        if x == 0:
                            en[y][x] = abs(gray[y][1] - gray[y][0])
                        elif x == wi - 1:
                            en[y][x] = abs(gray[y][wi - 1]
                                           - gray[y][wi - 2])
                        else:
                            en[y][x] = abs(gray[y][x + 1]
                                           - gray[y][x - 1])
                cost = en[0][:]
                for y in range(1, hi):
                    nxt = [0] * wi
                    for x in range(wi):
                        best = cost[x]
                        if x > 0 and cost[x - 1] < best:
                            best = cost[x - 1]
                        if x + 1 < wi and cost[x + 1] < best:
                            best = cost[x + 1]
                        nxt[x] = en[y][x] + best
                    cost = nxt
                b = 0
                for x in range(1, wi):
                    if cost[x] < cost[b]:
                        b = x
                ec[slot] = b
                sc[slot] = cost[b]
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": ids, "end_col": pa.array(ec),
            "seam_cost": pa.array(sc)}), p)
    return str(p)



def _seam_sql(img: str) -> str:
    return (f"SELECT image_id, end_col, seam_cost "
            f"FROM read_parquet('{_seam_sidecar(img)}')")



# ---------------------------------------------------------------------------
# log2_gap_histogram_users: HDR-style latency bucketing of event gaps
# ---------------------------------------------------------------------------

def q_log2_gap_histogram_users(sf_dir: str):
    """HDR-histogram primitive: inter-event gaps (µs, same-user)
    bucketed by BIT LENGTH — the log2 latency binning every
    operational histogram uses, with the bucket computed exactly via
    frexp exponents (exact for ints < 2^53, no log() float hazard).
    Gap extraction is one diff inside a user co-partition; the
    histogram is ~40 rows. length(bin(gap)) replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts"], kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        same = np.r_[False, u[1:] == u[:-1]]
        d = (ts - np.r_[0, ts[:-1]])[same]
        d = d[d > 0]
        if len(d) == 0:
            return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                                 "n_gaps": pd.Series(dtype=np.int64)})
        _, ex = np.frexp(d.astype(np.float64))
        u2, c = np.unique(ex.astype(np.int64), return_counts=True)
        return pd.DataFrame({"bucket": u2,
                             "n_gaps": c.astype(np.int64)})

    out = (_with_bucket(ev, "user_id", 16)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .groupby("bucket").sum("n_gaps"))
    return _rename(out, ["bucket", "n_gaps"])



QUERIES["log2_gap_histogram_users"] = q_log2_gap_histogram_users

ORACLE_SQL["log2_gap_histogram_users"] = """
        WITH g AS (SELECT epoch_us(ts)
                          - lag(epoch_us(ts)) OVER (
                                PARTITION BY user_id ORDER BY ts)
                              AS d
                   FROM events),
        b AS (SELECT length(bin(CAST(d AS BIGINT))) AS bucket
              FROM g WHERE d > 0)
        SELECT CAST(bucket AS BIGINT) AS bucket,
               CAST(count(*) AS BIGINT) AS n_gaps
        FROM b GROUP BY 1
    """



# ---------------------------------------------------------------------------
# skew_report_keys: shuffle-skew diagnostic over the join keys
# ---------------------------------------------------------------------------

def q_skew_report_keys(sf_dir: str):
    """Skew report — the diagnostic a shuffle planner reads BEFORE
    choosing salting factors: for each fact join key (orders.custkey,
    lineitem.partkey, lineitem.suppkey): total rows, distinct keys,
    the hottest key's row count, and its share in ppm (integer
    division). Per-batch key-count partials contract each fact scan
    to key cardinality; the max/distinct ride one groupby per key.
    Triple-aggregate replay."""
    specs = [("orders", "o_custkey", "orders.custkey"),
             ("lineitem", "l_partkey", "lineitem.partkey"),
             ("lineitem", "l_suppkey", "lineitem.suppkey")]
    rows = []
    for table, col, label in specs:
        ds = _read(sf_dir, table, [col])

        def part(t: pa.Table, _c=col) -> pa.Table:
            g = t.group_by(_c).aggregate([([], "count_all")])
            return pa.table({"k": g[_c],
                             "n": g["count_all"].cast(pa.int64())})

        kc = (ds.map_batches(part, batch_format="pyarrow")
              .groupby("k").sum("n"))
        kc = _rename(kc, ["k", "n"])

        def summ(t: pa.Table) -> pa.Table:
            n = t["n"].to_numpy(zero_copy_only=False)
            return pa.table({
                "rows_": pa.array([int(n.sum())], pa.int64()),
                "dk": pa.array([len(n)], pa.int64()),
                "mx": pa.array([int(n.max()) if len(n) else 0],
                               pa.int64())})

        parts = kc.map_batches(summ, batch_format="pyarrow") \
            .take_all()
        total = sum(r["rows_"] for r in parts)
        dk = sum(r["dk"] for r in parts)
        mx = max(r["mx"] for r in parts)
        rows.append((label, total, dk, mx,
                     (mx * 1_000_000) // total if total else 0))
    return pd.DataFrame({
        "key": [r[0] for r in rows],
        "n_rows": np.array([r[1] for r in rows], np.int64),
        "n_distinct": np.array([r[2] for r in rows], np.int64),
        "max_key_rows": np.array([r[3] for r in rows], np.int64),
        "top_share_ppm": np.array([r[4] for r in rows], np.int64)})



QUERIES["skew_report_keys"] = q_skew_report_keys

ORACLE_SQL["skew_report_keys"] = """
        WITH s1 AS (SELECT 'orders.custkey' AS key, count(*) AS n
                    FROM orders GROUP BY o_custkey),
        s2 AS (SELECT 'lineitem.partkey' AS key, count(*) AS n
               FROM lineitem GROUP BY l_partkey),
        s3 AS (SELECT 'lineitem.suppkey' AS key, count(*) AS n
               FROM lineitem GROUP BY l_suppkey),
        u AS (SELECT * FROM s1 UNION ALL SELECT * FROM s2
              UNION ALL SELECT * FROM s3)
        SELECT key,
               CAST(sum(n) AS BIGINT) AS n_rows,
               CAST(count(*) AS BIGINT) AS n_distinct,
               CAST(max(n) AS BIGINT) AS max_key_rows,
               CAST(max(n) * 1000000 // sum(n) AS BIGINT)
                   AS top_share_ppm
        FROM u GROUP BY 1
    """



# ---------------------------------------------------------------------------
# type_drift_halves: categorical distribution drift (first vs second half)
# ---------------------------------------------------------------------------

def q_type_drift_halves(sf_dir: str):
    """Categorical drift monitor: the event-type distribution of the
    chronologically FIRST half of the stream vs the SECOND (split at
    the median event timestamp — an order statistic, computed from
    one distinct-timestamp ledger), reported per type as both counts
    and the exact cross-difference numerator n1·T2 − n2·T1 (positive
    ⇒ the type lost share) — the population-stability input without
    a single float. Two count passes; the split instant broadcasts.
    CASE-aggregate replay."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    # split at the lower-median of the raw timestamp multiset: count
    # partials per distinct ts (calendar-bounded ledger), then rank
    def tcount(t: pa.Table) -> pa.Table:
        g = t.select(["ts"]).group_by("ts").aggregate(
            [([], "count_all")])
        return pa.table({"ts": g["ts"],
                         "n": g["count_all"].cast(pa.int64())})

    led = (ev.map_batches(tcount, batch_format="pyarrow")
           .groupby("ts").sum("n")).take_all()
    tss = np.array([r["ts"] for r in led], "datetime64[us]")
    ns = np.array([r["sum(n)"] for r in led], np.int64)
    o = np.argsort(tss)
    tss, ns = tss[o], ns[o]
    total = int(ns.sum())
    rank = (total - 1) // 2 + 1
    split = tss[np.searchsorted(np.cumsum(ns), rank)]
    sref = ray.put(split.astype("datetime64[us]").astype(np.int64))

    def part(t: pa.Table) -> pa.Table:
        sp = _broadcast(sref)
        ts = t["ts"].cast(pa.int64()).to_numpy()
        first = (ts <= sp).astype(np.int64)
        g = pa.table({"event_type": t["event_type"],
                      "n1": pa.array(first),
                      "n2": pa.array(1 - first)}) \
            .group_by("event_type").aggregate([("n1", "sum"),
                                               ("n2", "sum")])
        return g.rename_columns(["event_type", "n1", "n2"])

    agg = (ev.map_batches(part, batch_format="pyarrow")
           .groupby("event_type").sum(["n1", "n2"]))
    agg = _rename(agg, ["event_type", "n1", "n2"])

    def drift(t: pa.Table) -> pa.Table:
        n1 = t["n1"].to_numpy(zero_copy_only=False)
        n2 = t["n2"].to_numpy(zero_copy_only=False)
        T1, T2 = int(n1.sum()), int(n2.sum())
        return t.append_column(
            "drift_num", pa.array(n1 * T2 - n2 * T1))

    # totals span blocks — do the final cross-difference on the small
    # per-type table in ONE task
    return agg.repartition(1).map_batches(drift,
                                          batch_format="pyarrow")



QUERIES["type_drift_halves"] = q_type_drift_halves

ORACLE_SQL["type_drift_halves"] = """
        WITH ranked AS (SELECT event_type, ts,
                               row_number() OVER (ORDER BY ts)
                                   AS rn,
                               count(*) OVER () AS total
                        FROM events),
        sp AS (SELECT ts AS split FROM ranked
               WHERE rn = (total - 1) // 2 + 1),
        c AS (SELECT event_type,
                     SUM(CASE WHEN ts <= (SELECT split FROM sp)
                         THEN 1 ELSE 0 END) AS n1,
                     SUM(CASE WHEN ts <= (SELECT split FROM sp)
                         THEN 0 ELSE 1 END) AS n2
              FROM events GROUP BY 1),
        t AS (SELECT sum(n1) AS t1, sum(n2) AS t2 FROM c)
        SELECT event_type, CAST(n1 AS BIGINT) AS n1,
               CAST(n2 AS BIGINT) AS n2,
               CAST(n1 * t.t2 - n2 * t.t1 AS BIGINT) AS drift_num
        FROM c, t
    """



# ---------------------------------------------------------------------------
# exclusion_funnel_users: A→C conversions with NO B between
# ---------------------------------------------------------------------------

def q_exclusion_funnel_users(sf_dir: str):
    """Sequence pattern with NEGATION — the funnel variant plain
    funnels can't express: users with a click → purchase conversion
    whose most recent click is NOT separated from the purchase by an
    error event ('clean conversions'). Per user, one sorted scan in
    segment algebra: running last-click and last-error positions via
    cumulative maxima; a purchase is clean iff last_click >
    last_error. Counts per user contract to three global integers
    (users with any conversion, users with a clean one, total clean
    conversions). Window MAX(CASE) replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        n = len(u)
        pos = np.arange(n, dtype=np.int64)
        nb = np.r_[True, u[1:] != u[:-1]]
        seg = np.cumsum(nb) - 1
        BIGN = np.int64(n + 2)

        def runmax(mask: np.ndarray) -> np.ndarray:
            # per-segment running max of positions where mask holds:
            # augment with seg*BIGN so a new segment's baseline beats
            # every earlier segment's value — accumulate resets free
            aug = seg * BIGN + np.where(mask, pos + 1, 0)
            return np.maximum.accumulate(aug) - seg * BIGN - 1

        lc = runmax(et == "click")
        le = runmax(et == "error")
        plc = np.where(np.r_[False, seg[1:] == seg[:-1]],
                       np.r_[-1, lc[:-1]], -1)
        ple = np.where(np.r_[False, seg[1:] == seg[:-1]],
                       np.r_[-1, le[:-1]], -1)
        conv = (et == "purchase") & (plc >= 0)
        clean = conv & (plc > ple)
        g = pd.DataFrame({"u": u, "conv": conv.astype(np.int64),
                          "clean": clean.astype(np.int64)}) \
            .groupby("u", as_index=False).sum()
        return pd.DataFrame({
            "n_users_conv": [int((g["conv"] > 0).sum())],
            "n_users_clean": [int((g["clean"] > 0).sum())],
            "n_clean_conversions": [int(g["clean"].sum())]})

    parts = (_with_bucket(ev, "user_id", 16)
             .groupby("bucket").map_groups(fold,
                                           batch_format="pandas")
             ).take_all()
    return pd.DataFrame({
        "n_users_conv": np.array(
            [sum(r["n_users_conv"] for r in parts)], np.int64),
        "n_users_clean": np.array(
            [sum(r["n_users_clean"] for r in parts)], np.int64),
        "n_clean_conversions": np.array(
            [sum(r["n_clean_conversions"] for r in parts)],
            np.int64)})



QUERIES["exclusion_funnel_users"] = q_exclusion_funnel_users

ORACLE_SQL["exclusion_funnel_users"] = """
        WITH s AS (SELECT user_id, event_type,
                          row_number() OVER w AS pos,
                          max(CASE WHEN event_type = 'click'
                              THEN row_number_c END) OVER w2 AS lc,
                          max(CASE WHEN event_type = 'error'
                              THEN row_number_c END) OVER w2 AS le
                   FROM (SELECT user_id, event_type, ts, event_id,
                                row_number() OVER (
                                    PARTITION BY user_id
                                    ORDER BY ts, event_id)
                                    AS row_number_c
                         FROM events)
                   WINDOW w AS (PARTITION BY user_id
                                ORDER BY row_number_c),
                          w2 AS (PARTITION BY user_id
                                 ORDER BY row_number_c
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING)),
        p AS (SELECT user_id,
                     CASE WHEN event_type = 'purchase'
                          AND lc IS NOT NULL THEN 1 ELSE 0 END
                         AS conv,
                     CASE WHEN event_type = 'purchase'
                          AND lc IS NOT NULL
                          AND (le IS NULL OR lc > le)
                          THEN 1 ELSE 0 END AS clean
              FROM s),
        g AS (SELECT user_id, sum(conv) AS conv,
                     sum(clean) AS clean
              FROM p GROUP BY 1)
        SELECT CAST(SUM(CASE WHEN conv > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_users_conv,
               CAST(SUM(CASE WHEN clean > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_users_clean,
               CAST(SUM(clean) AS BIGINT) AS n_clean_conversions
    FROM g
    """



# ---------------------------------------------------------------------------
# hog4_images: gradient-orientation quadrant histogram
# ---------------------------------------------------------------------------

def q_hog4_images(sf_dir: str):
    """Coarse HOG per image (first 1024): interior gradient vectors
    (central differences gx, gy) binned by SIGN QUADRANT — bin =
    (gx>0) | (gy>0)<<1 for pixels with a nonzero gradient, plus the
    flat-pixel count — the orientation census without a single
    arctan. Two shifted differences + one packed bincount per batch
    tensor. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class HogStage:
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
            cols = {k: [] for k in ("image_id", "q0", "q1", "q2",
                                    "q3", "n_flat")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                g = px.astype(np.int64).sum(axis=3) // 3
                gx = g[:, 1:-1, 2:] - g[:, 1:-1, :-2]
                gy = g[:, 2:, 1:-1] - g[:, :-2, 1:-1]
                flat = (gx == 0) & (gy == 0)
                q = ((gx > 0).astype(np.int64)
                     | ((gy > 0).astype(np.int64) << 1))
                k = len(slots)
                packed = np.where(flat, 4,
                                  q) + np.arange(k)[:, None, None] * 5
                hist = np.bincount(packed.ravel(),
                                   minlength=k * 5).reshape(k, 5)
                cols["image_id"].append(ids[slots])
                for b in range(4):
                    cols[f"q{b}"].append(hist[:, b].astype(np.int64))
                cols["n_flat"].append(hist[:, 4].astype(np.int64))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in cols.items()})

    return ds.map_batches(HogStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["hog4_images"] = q_hog4_images



def _hog4_sidecar(img: str, n: int = 1024) -> str:
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_hog4_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        res = {k: np.zeros(len(ws), np.int64)
               for k in ("q0", "q1", "q2", "q3", "n_flat")}
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                gray = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                          + int(px[j, y, x, 2])) // 3
                         for x in range(wi)] for y in range(hi)]
                h5 = [0] * 5
                for y in range(1, hi - 1):
                    for x in range(1, wi - 1):
                        gx = gray[y][x + 1] - gray[y][x - 1]
                        gy = gray[y + 1][x] - gray[y - 1][x]
                        if gx == 0 and gy == 0:
                            h5[4] += 1
                        else:
                            h5[(1 if gx > 0 else 0)
                               | (2 if gy > 0 else 0)] += 1
                for b in range(4):
                    res[f"q{b}"][slot] = h5[b]
                res["n_flat"][slot] = h5[4]
        out = {"image_id": ids}
        out.update({k: pa.array(v) for k, v in res.items()})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table(out), p)
    return str(p)



def _hog4_sql(img: str) -> str:
    return (f"SELECT image_id, q0, q1, q2, q3, n_flat "
            f"FROM read_parquet('{_hog4_sidecar(img)}')")



# ---------------------------------------------------------------------------
# audio_median_abs_tracks: exact median |sample| per track
# ---------------------------------------------------------------------------

def q_audio_median_abs_tracks(sf_dir: str):
    """Exact lower-median |sample| per track — the robust loudness
    statistic (RMS is dominated by clicks; the median is not). PCM
    magnitudes live in [0, 32768], so the order statistic comes from
    ONE offset-packed bincount + cumsum searchsorted across the whole
    batch tensor, the image-median discipline applied to audio.
    Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class MedStage:
        def __init__(self):
            self.dec = AudioFrameStage().decoders["pcm16"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["track_id"].to_numpy(zero_copy_only=False)
            codecs = batch["codec"].to_pylist()
            if set(codecs) - {"pcm16"}:
                raise NotImplementedError("only pcm16 in container")
            rows = [self.dec(p) for p in batch["bytes"].to_pylist()]
            groups: dict[int, list[int]] = {}
            for i, r in enumerate(rows):
                groups.setdefault(len(r), []).append(i)
            out_id, out_m = [], []
            for length, slots in groups.items():
                pcm = np.abs(np.stack([rows[i] for i in slots])
                             .astype(np.int64))
                k = len(slots)
                code = pcm + (np.arange(k)[:, None]
                              * np.int64(32769))
                hist = np.bincount(code.ravel(),
                                   minlength=k * 32769) \
                    .reshape(k, 32769)
                cum = np.cumsum(hist, axis=1)
                rank = (length - 1) // 2 + 1
                med = (cum < rank).sum(axis=1)
                out_id.append(ids[slots])
                out_m.append(med.astype(np.int64))
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "median_abs": pa.array(np.concatenate(out_m))})

    return ds.map_batches(MedStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_median_abs_tracks"] = q_audio_median_abs_tracks



def _audio_median_sidecar(aud: str) -> str:
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_audiomed_{_P(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = sorted(abs(int(v)) for v in pcm[j].tolist())
            rows.append({"track_id": tid,
                         "median_abs": s[(len(s) - 1) // 2]})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.Table.from_pylist(rows), p)
    return str(p)



def _audio_median_sql(aud: str) -> str:
    return (f"SELECT track_id, median_abs "
            f"FROM read_parquet('{_audio_median_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# join_card_est_audit: optimizer cardinality-estimation audit
# ---------------------------------------------------------------------------

def q_join_card_est_audit(sf_dir: str):
    """Optimizer-style join cardinality audit: for two FILTERED
    equi-joins, the textbook estimate |A|·|B| / max(d_A, d_B)
    (floored integer) next to the ACTUAL join count — the estimation-
    error ledger that motivates runtime re-optimization. Inputs: side
    stats from four cheap aggregate passes; actuals through the
    size-guarded broadcast of the filtered dimension keyset (both
    dimensions here are selective filters). Direct SQL replay."""
    lo96 = np.datetime64("1996-01-01", "us")
    hi96 = np.datetime64("1997-01-01", "us")

    # join 1: orders(1996) ⋈ customer(nation < 5) on custkey
    ck_all, cnat = _dim_np(sf_dir, "customer", "c_custkey",
                           ["c_nationkey"])
    ck = ck_all[cnat.astype(np.int64, copy=False) < 5]
    cref = ray.put(ck)

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def opart(t: pa.Table) -> pa.Table:
        keys = _broadcast(cref)
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        keep = (od >= lo96) & (od < hi96)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)[keep]
        pos = np.searchsorted(keys, c)
        safe = np.minimum(pos, len(keys) - 1)
        hit = keys[safe] == c
        # distinct count rides a key-cardinality shuffle, NOT a
        # driver keyset union (the r2-verdict anti-pattern)
        cu = np.unique(c)
        return pa.table({
            "n_a": pa.array(np.full(len(cu), len(c), np.int64)),
            "actual": pa.array(np.full(len(cu), int(hit.sum()),
                                       np.int64)),
            "k": pa.array(cu),
            "first": pa.array(np.r_[np.int64(1),
                                    np.zeros(len(cu) - 1, np.int64)]
                              if len(cu) else
                              np.empty(0, np.int64))})

    def ocomb(t: pa.Table) -> pa.Table:
        # one row per (batch): n_a/actual only on the 'first' row so
        # the groupby-sum double-counts nothing
        n_a_col = t["n_a"].to_numpy(zero_copy_only=False) \
            * t["first"].to_numpy(zero_copy_only=False)
        act = t["actual"].to_numpy(zero_copy_only=False) \
            * t["first"].to_numpy(zero_copy_only=False)
        return pa.table({"k": t["k"], "n_a": pa.array(n_a_col),
                         "actual": pa.array(act)})

    stats = (orders.map_batches(opart, batch_format="pyarrow")
             .map_batches(ocomb, batch_format="pyarrow")
             .groupby("k").sum(["n_a", "actual"])).take_all()
    n_a = sum(r["sum(n_a)"] for r in stats)
    actual1 = sum(r["sum(actual)"] for r in stats)
    d_a = len(stats)
    n_b, d_b = len(ck), len(ck)
    est1 = (n_a * n_b) // max(d_a, d_b) if max(d_a, d_b) else 0

    # join 2: lineitem ⋈ part(name LIKE 'red%') on partkey
    pk_all, pname = _dim_np(sf_dir, "part", "p_partkey", ["p_name"])
    pk = pk_all[np.char.startswith(pname.astype(str), "red")]
    pref = ray.put(pk)
    li = _read(sf_dir, "lineitem", ["l_partkey"])

    def lpart(t: pa.Table) -> pa.Table:
        keys = _broadcast(pref)
        c = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, c)
        safe = np.minimum(pos, len(keys) - 1)
        hit = keys[safe] == c
        cu = np.unique(c)
        return pa.table({
            "n_a": pa.array(np.full(len(cu), len(c), np.int64)),
            "actual": pa.array(np.full(len(cu), int(hit.sum()),
                                       np.int64)),
            "k": pa.array(cu),
            "first": pa.array(np.r_[np.int64(1),
                                    np.zeros(len(cu) - 1, np.int64)]
                              if len(cu) else
                              np.empty(0, np.int64))})

    def lcomb(t: pa.Table) -> pa.Table:
        n_a_col = t["n_a"].to_numpy(zero_copy_only=False) \
            * t["first"].to_numpy(zero_copy_only=False)
        act = t["actual"].to_numpy(zero_copy_only=False) \
            * t["first"].to_numpy(zero_copy_only=False)
        return pa.table({"k": t["k"], "n_a": pa.array(n_a_col),
                         "actual": pa.array(act)})

    stats2 = (li.map_batches(lpart, batch_format="pyarrow")
              .map_batches(lcomb, batch_format="pyarrow")
              .groupby("k").sum(["n_a", "actual"])).take_all()
    n_a2 = sum(r["sum(n_a)"] for r in stats2)
    actual2 = sum(r["sum(actual)"] for r in stats2)
    d_a2 = len(stats2)
    est2 = (n_a2 * len(pk)) // max(d_a2, len(pk)) \
        if max(d_a2, len(pk)) else 0

    return pd.DataFrame({
        "join_id": ["lineitem_part_red", "orders96_cust_nat5"],
        "n_left": np.array([n_a2, n_a], np.int64),
        "n_right": np.array([len(pk), n_b], np.int64),
        "d_left": np.array([d_a2, d_a], np.int64),
        "d_right": np.array([len(pk), d_b], np.int64),
        "est": np.array([est2, est1], np.int64),
        "actual": np.array([actual2, actual1], np.int64)})



QUERIES["join_card_est_audit"] = q_join_card_est_audit

ORACLE_SQL["join_card_est_audit"] = """
        WITH o96 AS (SELECT o_custkey FROM orders
                     WHERE o_orderdate >= DATE '1996-01-01'
                       AND o_orderdate < DATE '1997-01-01'),
        cn AS (SELECT c_custkey FROM customer WHERE c_nationkey < 5),
        j1 AS (SELECT 'orders96_cust_nat5' AS join_id,
                      (SELECT count(*) FROM o96) AS n_left,
                      (SELECT count(*) FROM cn) AS n_right,
                      (SELECT count(DISTINCT o_custkey) FROM o96)
                          AS d_left,
                      (SELECT count(*) FROM cn) AS d_right,
                      (SELECT count(*) FROM o96 JOIN cn
                       ON cn.c_custkey = o96.o_custkey) AS actual),
        pr AS (SELECT p_partkey FROM part
               WHERE p_name LIKE 'red%'),
        j2 AS (SELECT 'lineitem_part_red' AS join_id,
                      (SELECT count(*) FROM lineitem) AS n_left,
                      (SELECT count(*) FROM pr) AS n_right,
                      (SELECT count(DISTINCT l_partkey)
                       FROM lineitem) AS d_left,
                      (SELECT count(*) FROM pr) AS d_right,
                      (SELECT count(*) FROM lineitem JOIN pr
                       ON pr.p_partkey = l_partkey) AS actual),
        u AS (SELECT * FROM j1 UNION ALL SELECT * FROM j2)
        SELECT join_id, CAST(n_left AS BIGINT) AS n_left,
               CAST(n_right AS BIGINT) AS n_right,
               CAST(d_left AS BIGINT) AS d_left,
               CAST(d_right AS BIGINT) AS d_right,
               CAST(n_left * n_right
                    // greatest(d_left, d_right) AS BIGINT) AS est,
               CAST(actual AS BIGINT) AS actual
        FROM u
    """



# ---------------------------------------------------------------------------
# er_canonical_docs: entity resolution with survivorship
# ---------------------------------------------------------------------------

def q_er_canonical_docs(sf_dir: str):
    """The full entity-resolution stack composed end-to-end: exact
    4-gram Jaccard pairs (tau = 1/2, the PPJoin stage) → distributed
    connected components → SURVIVORSHIP: each cluster elects the
    longest document (n_chars, then smallest doc_id) as canonical,
    and every clustered doc emits its (doc_id → canonical_id) merge
    directive — the record-linkage output a master-data pipeline
    applies. Cluster membership is dedup-output-scale; n_chars rides
    a broadcast gather of ONLY the clustered ids. Recursive-CTE +
    window survivorship replay."""
    from battery.ops.dedup import ngram_jaccard_pairs
    from battery.ops.graph import connected_components

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, k=4, tau_num=1, tau_den=2)
    pairs = pairs.map_batches(
        lambda t: t.select(["d1", "d2"]).rename_columns(["a", "b"]),
        batch_format="pyarrow").materialize()
    if pairs.count() == 0:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "canonical_id":
                                 pd.Series(dtype=np.int64)})
    cc = connected_components(pairs, "a", "b", n_buckets=8) \
        .take_all()  # dedup-output scale
    members = {r["node"]: r["cluster_id"] for r in cc}
    mref = ray.put(np.array(sorted(members), np.int64))

    meta = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def gather(t: pa.Table) -> pa.Table:
        ids_ = _broadcast(mref)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids_, d)
        safe = np.minimum(pos, len(ids_) - 1)
        keep = ids_[safe] == d
        return pa.table({"doc_id": pa.array(d[keep]),
                         "n_chars": t["n_chars"]
                         .to_numpy(zero_copy_only=False)[keep]})

    lens = {r["doc_id"]: r["n_chars"]
            for r in meta.map_batches(gather,
                                      batch_format="pyarrow")
            .take_all()}
    best: dict[int, tuple[int, int]] = {}
    for node, cl in members.items():
        key = (-lens[node], node)
        if cl not in best or key < best[cl]:
            best[cl] = key
    rows = sorted((node, best[cl][1])
                  for node, cl in members.items())
    return pd.DataFrame({
        "doc_id": np.array([r[0] for r in rows], np.int64),
        "canonical_id": np.array([r[1] for r in rows], np.int64)})



QUERIES["er_canonical_docs"] = q_er_canonical_docs



def _er_canonical_sql() -> str:
    jacc = ORACLE_SQL["jaccard_pairs_docs"]
    return f"""
        WITH RECURSIVE jp AS ({jacc}),
        e AS (SELECT d1 AS u, d2 AS v FROM jp
              UNION SELECT d2, d1 FROM jp),
        walk(u, lbl) AS (
            SELECT u, u FROM (SELECT DISTINCT u FROM e)
            UNION
            SELECT e.u, w.lbl FROM e JOIN walk w ON w.u = e.v),
        cc AS (SELECT u AS node, min(lbl) AS cluster_id
               FROM walk GROUP BY u),
        canon AS (SELECT cluster_id, node AS canonical_id FROM (
                      SELECT cc.cluster_id, cc.node,
                             row_number() OVER (
                                 PARTITION BY cc.cluster_id
                                 ORDER BY d.n_chars DESC, cc.node)
                                 AS rn
                      FROM cc JOIN documents d
                        ON d.doc_id = cc.node)
                  WHERE rn = 1)
        SELECT cc.node AS doc_id, canon.canonical_id
        FROM cc JOIN canon USING (cluster_id)
    """



# ---------------------------------------------------------------------------
# medoid_dup_clusters: medoid survivorship for embedding dup clusters
# ---------------------------------------------------------------------------

def q_medoid_dup_clusters(sf_dir: str):
    """Medoid election per embedding near-dup cluster: the member
    minimizing the EXACT total squared distance to its cluster-mates
    (e6-lattice d² = |a|²+|b|²−2a·b, int64; smallest vec_id on ties)
    — 'semantic dedup keep-best' with a survivorship rule that needs
    no float centroid (the medoid is division-free). Clusters are
    dedup-output-scale: member vectors co-locate per cluster through
    one broadcast membership gather, and each cluster's O(k²) Gram is
    one matmul. Pairwise-sum window replay on the recursive
    components."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import connected_components

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).materialize()
    if pairs.count() == 0:
        return pd.DataFrame({"cluster_id": pd.Series(dtype=np.int64),
                             "medoid_id": pd.Series(dtype=np.int64),
                             "n_members": pd.Series(dtype=np.int64)})
    cc = connected_components(
        pairs.select_columns(["a", "b"]), "a", "b",
        n_buckets=8).take_all()
    members = {r["node"]: r["cluster_id"] for r in cc}
    ids_sorted = np.array(sorted(members), np.int64)
    cls_sorted = np.array([members[i] for i in ids_sorted.tolist()],
                          np.int64)
    mref = ray.put((ids_sorted, cls_sorted))

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def tag(t: pa.Table) -> pa.Table:
        ids_, cls_ = _broadcast(mref)
        d = t["vec_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ids_, d)
        safe = np.minimum(pos, len(ids_) - 1)
        keep = ids_[safe] == d
        if not keep.any():
            return pa.table({
                "cluster_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "vec": pa.array([], pa.list_(pa.int64()))})
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))[keep]
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        return pa.table({
            "cluster_id": pa.array(cls_[safe[keep]]),
            "vec_id": pa.array(d[keep]),
            "vec": pa.array([r.tolist() for r in V],
                            pa.list_(pa.int64()))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(np.int64)
        V = np.stack([np.asarray(v, np.int64) for v in df["vec"]])
        o = np.argsort(ids)
        ids, V = ids[o], V[o]
        n2 = (V * V).sum(axis=1)
        D = n2[:, None] + n2[None, :] - 2 * (V @ V.T)
        tot = D.sum(axis=1)
        m = int(np.argmin(tot))  # first min = smallest vec_id
        return pd.DataFrame({
            "cluster_id": np.array([df["cluster_id"].iloc[0]],
                                   np.int64),
            "medoid_id": np.array([ids[m]], np.int64),
            "n_members": np.array([len(ids)], np.int64)})

    return (emb.map_batches(tag, batch_format="pyarrow")
            .groupby("cluster_id").map_groups(
                fold, batch_format="pandas"))



QUERIES["medoid_dup_clusters"] = q_medoid_dup_clusters



def _medoid_sql() -> str:
    return f"""
        WITH RECURSIVE pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs),
        walk(u, lbl) AS (
            SELECT u, u FROM (SELECT DISTINCT u FROM e)
            UNION
            SELECT e.u, w.lbl FROM e JOIN walk w ON w.u = e.v),
        cc AS (SELECT u AS node, min(lbl) AS cluster_id
               FROM walk GROUP BY u),
        lat AS (SELECT cc.cluster_id, cc.node,
                       list_transform(CAST(em.embedding AS DOUBLE[]),
                           x -> CAST(floor(x * 1000000.0)
                                     AS BIGINT)) AS v
                FROM cc JOIN embeddings em ON em.vec_id = cc.node),
        d AS (SELECT a.cluster_id, a.node,
                     SUM(list_dot_product(a.v, a.v)
                         + list_dot_product(b.v, b.v)
                         - 2 * list_dot_product(a.v, b.v)) AS tot,
                     count(*) AS n_members
              FROM lat a JOIN lat b USING (cluster_id)
              GROUP BY 1, 2)
        SELECT cluster_id, node AS medoid_id,
               CAST(n_members AS BIGINT) AS n_members
        FROM (SELECT cluster_id, node, n_members,
                     row_number() OVER (PARTITION BY cluster_id
                                        ORDER BY tot, node) AS rn
              FROM d)
        WHERE rn = 1
    """



# ---------------------------------------------------------------------------
# cell_count_gini: spatial inequality of tile coverage
# ---------------------------------------------------------------------------

def q_cell_count_gini(sf_dir: str):
    """Spatial coverage inequality: the exact Gini mean-difference
    numerator over the res-12 cell-count distribution — Σ over sorted
    counts of (2i − n − 1)·x₍ᵢ₎, the rank-algebra identity that turns
    the O(n²) pairwise |xᵢ−xⱼ| sum into one sorted pass — telling a
    sampling planner whether coverage is uniform carpet or hot
    corridors. The cell ledger is occupancy-bounded; the fold is one
    co-partition. ROW_NUMBER replay."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        code = cells.encode(t["lon"].to_numpy(zero_copy_only=False),
                            t["lat"].to_numpy(zero_copy_only=False),
                            12).view(np.int64)
        u, c = np.unique(code, return_counts=True)
        return pa.table({"cell": pa.array(u),
                         "n": pa.array(c.astype(np.int64))})

    led = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("cell").sum("n"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        x = np.sort(df["sum(n)"].to_numpy(np.int64))
        n = len(x)
        i = np.arange(1, n + 1, dtype=np.int64)
        gmd_num = int(((2 * i - n - 1) * x).sum())
        return pd.DataFrame({
            "n_cells": np.array([n], np.int64),
            "total_tiles": np.array([int(x.sum())], np.int64),
            "gmd_num": np.array([gmd_num], np.int64)})

    return led.repartition(1).map_batches(
        lambda t: pa.Table.from_pandas(
            fold(t.to_pandas()), preserve_index=False),
        batch_format="pyarrow")



QUERIES["cell_count_gini"] = q_cell_count_gini



def _cell_gini_sql(img_dir: str) -> str:
    cell12 = _sql_cell("lon", "lat", 12)
    return f"""
        WITH c AS (SELECT {cell12} AS cell, count(*) AS n
                   FROM read_parquet('{img_dir}/part-*.parquet')
                   GROUP BY 1),
        r AS (SELECT n, row_number() OVER (ORDER BY n, cell) AS i,
                     count(*) OVER () AS nc
              FROM c)
        SELECT CAST(max(nc) AS BIGINT) AS n_cells,
               CAST(sum(n) AS BIGINT) AS total_tiles,
               CAST(SUM((2 * i - nc - 1) * n) AS BIGINT) AS gmd_num
        FROM r
    """



# ---------------------------------------------------------------------------
# fair_share_sources: max-min fair (water-filling) budget allocation
# ---------------------------------------------------------------------------

_FS_BUDGET = 5000



def q_fair_share_sources(sf_dir: str):
    """Max-min fair allocation (water-filling) of a 5000-doc budget
    across sources with demand = doc count — the scheduler primitive
    behind every fair-share quota: sources below the water level get
    their full demand, the rest split the remainder EQUALLY (integer
    level; the final remainder goes one-each to the lexicographically
    smallest capped sources) — all integers, fully deterministic.
    Demands are one tiny groupby; the water level is a sorted prefix
    scan at source cardinality. Window prefix replay."""
    ds = _read(sf_dir, "documents", ["source"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("source").aggregate([([], "count_all")])
        return pa.table({"source": g["source"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("source").sum("n")).take_all()
    srcs = sorted(r["source"] for r in counts)
    d = np.array([next(r["sum(n)"] for r in counts
                       if r["source"] == s) for s in srcs], np.int64)
    n = len(d)
    order = np.lexsort((np.array(srcs), d))  # demand asc, name asc
    ds_sorted = d[order]
    pref = np.cumsum(ds_sorted)
    alloc = np.zeros(n, np.int64)
    B = _FS_BUDGET
    if int(d.sum()) <= B:
        alloc = d.copy()
    else:
        # find the largest k with prefix(k) + (n-k)·d_(k) ≤ B:
        # the first k sources (smallest demands) are uncapped
        k = 0
        for i in range(n):
            rest = (n - i - 1)
            if pref[i] + rest * 0 > B:
                break
            # level if sources after i are capped at least d_(i)
            if pref[i] + rest * ds_sorted[i] <= B:
                k = i + 1
            else:
                break
        level = (B - (pref[k - 1] if k else 0)) // (n - k)
        alloc_sorted = np.minimum(ds_sorted, level)
        alloc_sorted[:k] = ds_sorted[:k]
        leftover = B - int(alloc_sorted.sum())
        # one extra unit each to the smallest-NAMED capped sources
        capped = np.nonzero(alloc_sorted < ds_sorted)[0]
        names_capped = sorted(
            (srcs[order[i]], i) for i in capped.tolist())
        for _, i in names_capped[:leftover]:
            alloc_sorted[i] += 1
        alloc[order] = alloc_sorted
    return pd.DataFrame({
        "source": srcs,
        "demand": d,
        "alloc": alloc})



QUERIES["fair_share_sources"] = q_fair_share_sources

ORACLE_SQL["fair_share_sources"] = f"""
        WITH c AS (SELECT source, count(*) AS n FROM documents
                   GROUP BY 1),
        tot AS (SELECT count(*) AS ns, sum(n) AS sd FROM c),
        r AS (SELECT source, n,
                     row_number() OVER (ORDER BY n, source) AS i,
                     sum(n) OVER (ORDER BY n, source
                                  ROWS UNBOUNDED PRECEDING)
                         AS pref
              FROM c),
        k AS (SELECT COALESCE(max(i), 0) AS k FROM r, tot
              WHERE pref + (tot.ns - i) * n <= {_FS_BUDGET}),
        lvl AS (SELECT CASE WHEN tot.sd <= {_FS_BUDGET} THEN NULL
                       ELSE ({_FS_BUDGET}
                             - COALESCE((SELECT pref FROM r, k
                                         WHERE r.i = k.k), 0))
                            // (tot.ns - k.k) END AS level
                FROM tot, k),
        base AS (SELECT r.source, r.n,
                        CASE WHEN (SELECT level FROM lvl) IS NULL
                                 THEN r.n
                             WHEN r.i <= (SELECT k FROM k) THEN r.n
                             ELSE least(r.n, (SELECT level FROM lvl))
                        END AS a0,
                        CASE WHEN (SELECT level FROM lvl) IS NOT NULL
                             AND r.i > (SELECT k FROM k)
                             AND least(r.n, (SELECT level FROM lvl))
                                 < r.n
                             THEN 1 ELSE 0 END AS capped
                 FROM r),
        lo AS (SELECT {_FS_BUDGET} - sum(a0) AS leftover FROM base),
        rk AS (SELECT source, n, a0, capped,
                      row_number() OVER (
                          PARTITION BY capped ORDER BY source) AS cr
               FROM base)
        SELECT source, CAST(n AS BIGINT) AS demand,
               CAST(a0 + CASE WHEN capped = 1
                              AND cr <= greatest(
                                  (SELECT leftover FROM lo), 0)
                              THEN 1 ELSE 0 END AS BIGINT) AS alloc
        FROM rk
    """



# ---------------------------------------------------------------------------
# borda_topk_customers: rank aggregation across two criteria
# ---------------------------------------------------------------------------

def q_borda_topk_customers(sf_dir: str):
    """Borda rank aggregation: customers ranked by account balance
    and by lifetime revenue, combined by RANK SUM (ties → smaller
    custkey), top 5 — the multi-criteria selection that needs no
    weight tuning. Revenue is one fact aggregation; both rankings
    live at customer cardinality (dimension-scale ledgers, the same
    contract as every customer-dim broadcast in this battery).
    Double ROW_NUMBER replay."""
    ck, bal_raw = _dim_np(sf_dir, "customer", "c_custkey",
                          ["c_acctbal"])
    bal = np.floor(bal_raw * 100.0 + 0.5).astype(np.int64)

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))), pa.int64())
        g = pa.table({"ck": t["o_custkey"], "c": cents}) \
            .group_by("ck").aggregate([("c", "sum")])
        return g.rename_columns(["ck", "c"])

    from battery.ops.relational import broadcast_dim, dim_lookup

    rk, rt = broadcast_dim(
        orders.map_batches(part, batch_format="pyarrow")
        .groupby("ck").sum("c"), "ck")
    rvals = rt["sum(c)"].to_numpy().astype(np.int64, copy=False)
    ri, rhit = dim_lookup(rk, ck)
    rv = np.where(rhit, rvals[ri], 0).astype(np.int64)
    rank_bal = np.empty(len(ck), np.int64)
    rank_bal[np.lexsort((ck, -bal))] = np.arange(1, len(ck) + 1)
    rank_rev = np.empty(len(ck), np.int64)
    rank_rev[np.lexsort((ck, -rv))] = np.arange(1, len(ck) + 1)
    score = rank_bal + rank_rev
    top = np.lexsort((ck, score))[:5]
    return pd.DataFrame({
        "c_custkey": ck[top],
        "rank_bal": rank_bal[top],
        "rank_rev": rank_rev[top],
        "rank_sum": score[top]})



QUERIES["borda_topk_customers"] = q_borda_topk_customers

ORACLE_SQL["borda_topk_customers"] = """
        WITH rev AS (SELECT o_custkey AS ck,
                            SUM(CAST(floor(o_totalprice * 100.0
                                           + 0.5) AS BIGINT)) AS c
                     FROM orders GROUP BY 1),
        j AS (SELECT cu.c_custkey,
                     CAST(floor(cu.c_acctbal * 100.0 + 0.5)
                          AS BIGINT) AS bal,
                     COALESCE(rev.c, 0) AS rv
              FROM customer cu LEFT JOIN rev
                ON rev.ck = cu.c_custkey),
        r AS (SELECT c_custkey,
                     row_number() OVER (ORDER BY bal DESC, c_custkey)
                         AS rank_bal,
                     row_number() OVER (ORDER BY rv DESC, c_custkey)
                         AS rank_rev
              FROM j)
        SELECT c_custkey, rank_bal, rank_rev,
               rank_bal + rank_rev AS rank_sum
        FROM r ORDER BY rank_sum, c_custkey LIMIT 5
    """



# ---------------------------------------------------------------------------
# identical_behavior_users: exact duplicate event-type sequences
# ---------------------------------------------------------------------------

_IBU_PREFIX = 4



def q_identical_behavior_users(sf_dir: str):
    """Behavioral exact-dup detection: groups of users whose first
    _IBU_PREFIX event types (in time order) are identical — the
    bot-farm / replay-attack fingerprint, the sequence-space twin of
    exact document dedup (full sequences are unique at every SF, so
    the prefix is the grain where real groups exist). Each user's
    prefix folds to the order-sensitive polynomial fingerprint
    (ops/hashing rolling scheme) inside one user co-partition — the
    shuffle then compares 8-byte fingerprints, never sequences.
    Output: per duplicated fingerprint group, its size and smallest
    user. string_agg prefix-group replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        from battery.oracle_ref import poly_hash

        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="stable")
        u = df["user_id"].to_numpy(np.int64)
        et = df["event_type"].to_numpy()
        out_u, out_f = [], []
        i = 0
        n = len(u)
        # per-user fingerprint: sequences are short (user-bounded);
        # the polynomial fold is the scalar reference scheme applied
        # to per-type token hashes
        from battery.oracle_ref import token_hashes
        tok_cache: dict[str, int] = {}
        while i < n:
            j = i
            while j < n and u[j] == u[i]:
                j += 1
            hs = []
            for k in range(i, min(j, i + _IBU_PREFIX)):
                tv = et[k]
                h = tok_cache.get(tv)
                if h is None:
                    h = token_hashes(tv)[0]
                    tok_cache[tv] = h
                hs.append(h)
            out_u.append(int(u[i]))
            out_f.append(poly_hash(hs) - (1 << 63))
            i = j
        return pd.DataFrame({"user_id": out_u,
                             "fp": np.array(out_f, np.int64)})

    fps = (_with_bucket(ev, "user_id", 16)
           .groupby("bucket").map_groups(fold, batch_format="pandas"))

    def gpart(t: pa.Table) -> pa.Table:
        g = pa.table({"fp": t["fp"], "u": t["user_id"]}) \
            .group_by("fp").aggregate([("u", "count"), ("u", "min")])
        return g.rename_columns(["fp", "n_users", "min_user"])

    grp = (fps.map_batches(gpart, batch_format="pyarrow")
           .groupby("fp")
           .aggregate(rd.aggregate.Sum("n_users"),
                      rd.aggregate.Min("min_user")))
    grp = _rename(grp, ["fp", "n_users", "min_user"])

    def final(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t["n_users"], pa.scalar(2))
        t = t.filter(keep)
        return t.select(["n_users", "min_user"])

    return grp.map_batches(final, batch_format="pyarrow")



QUERIES["identical_behavior_users"] = q_identical_behavior_users

ORACLE_SQL["identical_behavior_users"] = f"""
        WITH s AS (SELECT user_id, event_type,
                          row_number() OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                              AS rn
                   FROM events),
        seq AS (SELECT user_id,
                       string_agg(event_type, '>' ORDER BY rn)
                           AS sq
                FROM s WHERE rn <= {_IBU_PREFIX} GROUP BY 1)
        SELECT CAST(count(*) AS BIGINT) AS n_users,
               CAST(min(user_id) AS BIGINT) AS min_user
        FROM seq GROUP BY sq HAVING count(*) >= 2
    """



# ---------------------------------------------------------------------------
# trimmed_revenue_nations: symmetric k-trimmed revenue sums per nation
# ---------------------------------------------------------------------------

_TRIM_K = 5



def q_trimmed_revenue_nations(sf_dir: str):
    """Robust revenue per nation: the exact cents sum after dropping
    each nation's _TRIM_K cheapest and _TRIM_K most expensive orders
    (order by (cents, orderkey) so ties are deterministic) — the
    symmetric trimmed estimator that kills both promo freebies and
    whale outliers, next to the median/MAD family. Broadcast
    custkey→nation, the fact contracts to (nation, cents, orderkey)
    and each nation's ledger sorts whole in one co-partition — an
    order statistic, so the co-partition IS the algorithm (25 nations
    bound the skew). Window CASE replay."""

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    nk = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    cref = ray.put((ck, nk))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_totalprice"])

    def annotate(t: pa.Table) -> pa.Table:
        ck_, nk_ = _broadcast(cref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        nat = nk_[np.searchsorted(ck_, c)]
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        return pa.table({"nationkey": pa.array(nat),
                         "cents": pa.array(cents),
                         "okey": t["o_orderkey"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"nationkey": pd.Series(dtype=np.int64),
                 "n_orders": pd.Series(dtype=np.int64),
                 "trimmed_cents": pd.Series(dtype=np.int64)})
        nat = df["nationkey"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        ok = df["okey"].to_numpy(np.int64)
        o = np.lexsort((ok, cents, nat))
        nat, cents = nat[o], cents[o]
        starts = np.flatnonzero(np.r_[True, nat[1:] != nat[:-1]])
        ends = np.r_[starts[1:], len(nat)]
        rows = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            n = e - s
            lo, hi = s + _TRIM_K, e - _TRIM_K
            tsum = int(cents[lo:hi].sum()) if hi > lo else 0
            rows.append((int(nat[s]), n, tsum))
        return pd.DataFrame(rows, columns=["nationkey", "n_orders",
                                           "trimmed_cents"])

    out = (orders.map_batches(annotate, batch_format="pyarrow")
           .groupby("nationkey")
           .map_groups(fold, batch_format="pandas"))
    return out



QUERIES["trimmed_revenue_nations"] = q_trimmed_revenue_nations

ORACLE_SQL["trimmed_revenue_nations"] = f"""
        WITH o AS (SELECT c.c_nationkey AS nationkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents,
                          o_orderkey AS okey
                   FROM orders JOIN customer c
                     ON c.c_custkey = o_custkey),
        r AS (SELECT nationkey, cents,
                     row_number() OVER (PARTITION BY nationkey
                                        ORDER BY cents, okey) AS rn,
                     count(*) OVER (PARTITION BY nationkey) AS n
              FROM o)
        SELECT CAST(nationkey AS BIGINT) AS nationkey,
               CAST(max(n) AS BIGINT) AS n_orders,
               CAST(COALESCE(SUM(CASE WHEN rn > {_TRIM_K}
                                      AND rn <= n - {_TRIM_K}
                                      THEN cents END), 0) AS BIGINT)
                   AS trimmed_cents
        FROM r GROUP BY nationkey
    """



# ---------------------------------------------------------------------------
# isotonic_monthly_revenue: PAVA isotonic fit with exact minimax replay
# ---------------------------------------------------------------------------

def q_isotonic_monthly_revenue(sf_dir: str):
    """L2 isotonic regression (PAVA) of monthly revenue cents over
    time — the monotone-trend smoother behind score calibration and
    capacity forecasting. Monthly sums are distributed fact partials;
    the pool-adjacent-violators merge runs on the ≤hundreds-entry
    calendar ledger with EXACT integer pool compares (s1·c2 < s2·c1 —
    the mean quotient never forms), and each month's fitted mean is
    emitted as the gcd-reduced fraction (fit_num, fit_den). Oracle =
    the minimax identity fit(i) = max_{j≤i} min_{k≥i} mean(j..k) over
    all O(m³) month triples; monthly cent sums make any two unequal
    pool means differ by ≥ 1/(c1·c2), so floor(s·100000/c) is an
    exact total-order key for the SQL arg-min/arg-max."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        m = pc.add(pc.multiply(pc.year(t["o_orderdate"]),
                               pa.scalar(12, pa.int64())),
                   pc.subtract(pc.month(t["o_orderdate"]),
                               pa.scalar(1, pa.int64())))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))), pa.int64())
        g = pa.table({"month": m, "c": cents}).group_by("month") \
            .aggregate([("c", "sum")])
        return g.rename_columns(["month", "c"])

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("month").sum("c")).take_all()
    months = np.array(sorted(r["month"] for r in rows), np.int64)
    by = {r["month"]: r["sum(c)"] for r in rows}
    y = np.array([by[m] for m in months.tolist()], np.int64)

    # PAVA with exact integer pool compares: pools as (sum, cnt)
    import math as _math
    pools: list[list[int]] = []  # [sum, cnt]
    for v in y.tolist():
        pools.append([int(v), 1])
        # merge while the last pool mean < the previous pool mean
        while len(pools) >= 2 and \
                pools[-1][0] * pools[-2][1] < pools[-2][0] * pools[-1][1]:
            s2, c2 = pools.pop()
            pools[-1][0] += s2
            pools[-1][1] += c2
    num, den = [], []
    for s, c in pools:
        g = _math.gcd(s, c) or 1
        num.extend([s // g] * c)
        den.extend([c // g] * c)
    return pd.DataFrame({"month": months,
                         "fit_num": np.array(num, np.int64),
                         "fit_den": np.array(den, np.int64)})



QUERIES["isotonic_monthly_revenue"] = q_isotonic_monthly_revenue

ORACLE_SQL["isotonic_monthly_revenue"] = """
        WITH m AS (SELECT CAST(EXTRACT(year FROM o_orderdate) * 12
                               + EXTRACT(month FROM o_orderdate) - 1
                               AS BIGINT) AS month,
                          CAST(SUM(CAST(floor(o_totalprice * 100.0
                                              + 0.5) AS BIGINT))
                               AS BIGINT) AS y
                   FROM orders GROUP BY 1),
        r AS (SELECT month, y,
                     row_number() OVER (ORDER BY month) AS i,
                     sum(y) OVER (ORDER BY month
                                  ROWS UNBOUNDED PRECEDING) AS p
              FROM m),
        seg AS (SELECT a.i AS j, b.i AS k,
                       b.p - a.p + a.y AS s,
                       b.i - a.i + 1 AS c
                FROM r a JOIN r b ON b.i >= a.i),
        -- inner min over k >= i for each (j, i): exact-order key
        inner_min AS (
            SELECT i.i AS i, seg.j, seg.s, seg.c
            FROM seg JOIN r i ON seg.j <= i.i AND seg.k >= i.i
            QUALIFY row_number() OVER (
                PARTITION BY i.i, seg.j
                ORDER BY (seg.s * 100000) // seg.c, seg.k) = 1),
        fit AS (
            SELECT i, s, c
            FROM inner_min
            QUALIFY row_number() OVER (
                PARTITION BY i
                ORDER BY (s * 100000) // c DESC, j) = 1)
        SELECT r.month,
               CAST(fit.s // gcd(fit.s, fit.c) AS BIGINT) AS fit_num,
               CAST(fit.c // gcd(fit.s, fit.c) AS BIGINT) AS fit_den
        FROM fit JOIN r ON r.i = fit.i
    """



# ---------------------------------------------------------------------------
# pmi_bigrams_docs: top-10 collocations by exact-lattice PMI ordering
# ---------------------------------------------------------------------------

def q_pmi_bigrams_docs(sf_dir: str):
    """Collocation mining: the top-10 ADJACENT token bigrams by
    pointwise mutual information — the phrase-detection primitive of
    tokenizer / n-gram-LM prep. PMI ranks by the exact fraction
    N·c(a,b) / (cL(a)·cR(b)); both engines order by the SAME integer
    key floor(N·c_ab·10¹² / (cL·cR)) with (a, b) lexicographic
    tie-break, so the monotone-log never forms and no float enters.
    One corpus pass emits per-batch bigram partials (doc-boundary
    respected, empty tokens squeezed out before adjacency); the only
    shuffle is the Heaps'-bounded pair ledger, and both marginals are
    column sums OF that ledger — the corpus text never shuffles.
    Lateral-unnest + HUGEINT quotient replay."""
    docs = _read(sf_dir, "documents", ["text"])

    def pairs(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(lists).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False)
        did = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        keep = flat != ""
        flat, did = flat[keep], did[keep]
        if len(flat) < 2:
            return pa.table({"ta": pa.array([], pa.string()),
                             "tb": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        same = did[1:] == did[:-1]
        g = pa.table({"ta": pa.array(flat[:-1][same]),
                      "tb": pa.array(flat[1:][same])}) \
            .group_by(["ta", "tb"]).aggregate([([], "count_all")])
        return pa.table({"ta": g["ta"], "tb": g["tb"],
                         "n": g["count_all"].cast(pa.int64())})

    ledger = (docs.map_batches(pairs, batch_format="pyarrow")
              .groupby(["ta", "tb"]).sum("n")).take_all()
    ta = [r["ta"] for r in ledger]
    tb = [r["tb"] for r in ledger]
    nab = [int(r["sum(n)"]) for r in ledger]
    N = sum(nab)
    nl: dict[str, int] = {}
    nr: dict[str, int] = {}
    for a, b, c in zip(ta, tb, nab):
        nl[a] = nl.get(a, 0) + c
        nr[b] = nr.get(b, 0) + c
    rows = []
    for a, b, c in zip(ta, tb, nab):
        q = (N * c * 10**12) // (nl[a] * nr[b])
        rows.append((a, b, c, nl[a], nr[b], q))
    rows.sort(key=lambda x: (-x[5], x[0], x[1]))
    top = rows[:10]
    return pd.DataFrame(top, columns=["tok_a", "tok_b", "n_ab",
                                      "n_left", "n_right", "pmi_q12"])



QUERIES["pmi_bigrams_docs"] = q_pmi_bigrams_docs

ORACLE_SQL["pmi_bigrams_docs"] = """
        WITH raw AS (SELECT doc_id,
                            unnest(string_split(text, ' ')) AS t,
                            generate_subscripts(
                                string_split(text, ' '), 1) AS i
                     FROM documents),
        w AS (SELECT doc_id, t,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY i) AS rn
              FROM raw WHERE t <> ''),
        p AS (SELECT a.t AS tok_a, b.t AS tok_b, count(*) AS nab
              FROM w a JOIN w b
                ON b.doc_id = a.doc_id AND b.rn = a.rn + 1
              GROUP BY 1, 2),
        tot AS (SELECT sum(nab) AS n FROM p),
        l AS (SELECT tok_a, sum(nab) AS nl FROM p GROUP BY 1),
        rr AS (SELECT tok_b, sum(nab) AS nr FROM p GROUP BY 1)
        SELECT p.tok_a, p.tok_b,
               CAST(p.nab AS BIGINT) AS n_ab,
               CAST(l.nl AS BIGINT) AS n_left,
               CAST(rr.nr AS BIGINT) AS n_right,
               CAST((CAST(tot.n AS HUGEINT) * p.nab
                     * 1000000000000)
                    // (CAST(l.nl AS HUGEINT) * rr.nr)
                   AS BIGINT) AS pmi_q12
        FROM p, tot
        JOIN l ON l.tok_a = p.tok_a
        JOIN rr ON rr.tok_b = p.tok_b
        ORDER BY pmi_q12 DESC, p.tok_a, p.tok_b LIMIT 10
    """



# ---------------------------------------------------------------------------
# hex_cell_counts: hexagonal cell binning (fifth cell-index family)
# ---------------------------------------------------------------------------

_HEX_A = 300   # half hex width  (1e-5 deg units)

_HEX_B = 200   # cap height      (1e-5 deg units); row period = 3b



def q_hex_cell_counts(sf_dir: str):
    """Tile counts per HEXAGONAL cell — the fifth cell-index family
    next to Morton/quadkey, Hilbert, geohash and the 0.01-degree
    grid. Regular hexagons need sqrt(3); this grid is the affinely
    sheared hexagonal tiling whose vertices sit ON the integer
    microdegree lattice (pointy-top, bounding box 2a x 4b with rows
    every 3b, odd rows shifted left by a), so cell assignment is
    PURE int64 arithmetic: quantize once, one divmod per axis, and
    the two cap diagonals are integer cross-products — b*(a-rx) and
    b*(rx-a) vs a*ry, ties to the lower hex in both engines. Upper
    cap points re-home to (tx-p, ty-1) / (tx-p+1, ty-1), derived
    from the row-shift geometry (p = ty&1). Hex grids matter at
    100 TB because every cell has SIX equidistant neighbours — ring
    queries and smoothing kernels lose the square grid's diagonal
    anisotropy. The oracle replays the FULL assignment in SQL — no
    sidecar."""
    from geotile.ops.tiles import read_image_table

    a, b = _HEX_A, _HEX_B
    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        X = np.floor((lon + 180.0) * 100000.0).astype(np.int64)
        Y = np.floor((lat + 90.0) * 100000.0).astype(np.int64)
        ty = Y // (3 * b)
        ry = Y - ty * (3 * b)
        p = ty & 1
        xs = X + a * p            # >= 0 for lon >= -180
        tx = xs // (2 * a)
        rx = xs - tx * (2 * a)
        cap = ry < b
        ul = cap & (b * (a - rx) > a * ry)
        ur = cap & (b * (rx - a) > a * ry)
        hx = np.where(ul, tx - p, np.where(ur, tx - p + 1, tx))
        hy = np.where(ul | ur, ty - 1, ty)
        g = pa.table({"hx": pa.array(hx), "hy": pa.array(hy)}) \
            .group_by(["hx", "hy"]).aggregate([([], "count_all")])
        return pa.table({"hx": g["hx"], "hy": g["hy"],
                         "n_tiles": g["count_all"].cast(pa.int64())})

    out = (ds.map_batches(part, batch_format="pyarrow")
           .groupby(["hx", "hy"]).sum("n_tiles"))
    return _rename(out, ["hx", "hy", "n_tiles"])



QUERIES["hex_cell_counts"] = q_hex_cell_counts



def _hex_sql(img_dir: str) -> str:
    a, b = _HEX_A, _HEX_B
    return f"""
        WITH q AS (SELECT
                CAST(floor((lon + 180.0) * 100000.0) AS BIGINT) AS X,
                CAST(floor((lat + 90.0) * 100000.0) AS BIGINT) AS Y
            FROM read_parquet('{img_dir}/part-*.parquet')),
        r AS (SELECT X, Y, Y // {3 * b} AS ty,
                     Y % {3 * b} AS ry,
                     (Y // {3 * b}) & 1 AS p
              FROM q),
        s AS (SELECT *, (X + {a} * p) // {2 * a} AS tx,
                     (X + {a} * p) % {2 * a} AS rx
              FROM r),
        c AS (SELECT *,
                 CASE WHEN ry < {b}
                       AND {b} * ({a} - rx) > {a} * ry THEN 1
                      ELSE 0 END AS ul,
                 CASE WHEN ry < {b}
                       AND {b} * (rx - {a}) > {a} * ry THEN 1
                      ELSE 0 END AS ur
              FROM s)
        SELECT CASE WHEN ul = 1 THEN tx - p
                    WHEN ur = 1 THEN tx - p + 1
                    ELSE tx END AS hx,
               CASE WHEN ul = 1 OR ur = 1 THEN ty - 1
                    ELSE ty END AS hy,
               count(*) AS n_tiles
        FROM c GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# dist_transform_images: exact L1 distance transform per image
# ---------------------------------------------------------------------------

def q_dist_transform_images(sf_dir: str):
    """Exact city-block (L1) distance transform per image (first
    1024): distance from every pixel to the nearest FOREGROUND pixel
    (gray >= 128, the dilation op's threshold family) — max depth,
    how many pixels sit at that max, and the total distance mass.
    The deepest-pocket radius is the coverage dual of dilation: it
    bounds how many erosion steps survive. Vectorized exactly via
    separability: two vertical running-min sweeps give the per-column
    distance, two horizontal min-plus sweeps fold in |dx| — 2h + 2w
    whole-batch tensor ops, never per-pixel Python. Images with no
    foreground take the defined sentinel w + h everywhere. Scalar
    replay sidecar runs an independent multi-source BFS."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class DistStage:
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
            out_id, out_m, out_n, out_s = [], [], [], []
            INF = np.int64(1) << 30
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                fg = (px.astype(np.int64).sum(axis=3) // 3) >= 128
                d = np.where(fg, np.int64(0), INF)
                for y in range(1, hi):          # down
                    np.minimum(d[:, y, :], d[:, y - 1, :] + 1,
                               out=d[:, y, :])
                for y in range(hi - 2, -1, -1):  # up
                    np.minimum(d[:, y, :], d[:, y + 1, :] + 1,
                               out=d[:, y, :])
                for x in range(1, wi):          # left->right
                    np.minimum(d[:, :, x], d[:, :, x - 1] + 1,
                               out=d[:, :, x])
                for x in range(wi - 2, -1, -1):  # right->left
                    np.minimum(d[:, :, x], d[:, :, x + 1] + 1,
                               out=d[:, :, x])
                np.minimum(d, np.int64(wi + hi), out=d)
                mx = d.max(axis=(1, 2))
                out_id.append(ids[slots])
                out_m.append(mx.astype(np.int64))
                out_n.append((d == mx[:, None, None])
                             .sum(axis=(1, 2)).astype(np.int64))
                out_s.append(d.sum(axis=(1, 2)).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "max_d": pa.array(np.concatenate(out_m)),
                "n_at_max": pa.array(np.concatenate(out_n)),
                "sum_d": pa.array(np.concatenate(out_s))})

    return ds.map_batches(DistStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["dist_transform_images"] = q_dist_transform_images



def _disttr_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for dist_transform_images: multi-source BFS."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from collections import deque
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_disttr_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        mxs = np.zeros(len(ws), np.int64)
        nat = np.zeros(len(ws), np.int64)
        sms = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                dist = [[wi + hi] * wi for _ in range(hi)]
                q: deque = deque()
                for y in range(hi):
                    for x in range(wi):
                        g = (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        if g >= 128:
                            dist[y][x] = 0
                            q.append((y, x))
                while q:
                    y, x = q.popleft()
                    nd = dist[y][x] + 1
                    if nd >= wi + hi:
                        continue
                    for yy, xx in ((y - 1, x), (y + 1, x),
                                   (y, x - 1), (y, x + 1)):
                        if (0 <= yy < hi and 0 <= xx < wi
                                and dist[yy][xx] > nd):
                            dist[yy][xx] = nd
                            q.append((yy, xx))
                flat = [v for row in dist for v in row]
                m = max(flat)
                mxs[slot] = m
                nat[slot] = sum(1 for v in flat if v == m)
                sms[slot] = sum(flat)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": ids, "max_d": pa.array(mxs),
            "n_at_max": pa.array(nat), "sum_d": pa.array(sms)}), p)
    return str(p)



def _disttr_sql(img: str) -> str:
    return (f"SELECT image_id, max_d, n_at_max, sum_d "
            f"FROM read_parquet('{_disttr_sidecar(img)}')")



# ---------------------------------------------------------------------------
# zigzag_runs_users: longest strictly-alternating value run per user
# ---------------------------------------------------------------------------

def q_zigzag_runs_users(sf_dir: str):
    """Longest strictly-ALTERNATING value run per user (up-down-up…
    zigzag, the dual of monotone_run_users): order each user's events
    by (ts, event_id) on the e4 value lattice, a run extends while
    consecutive diffs are nonzero and of OPPOSITE sign — the
    oscillation detector next to the trend detector. Diff signs and
    chain breaks are three vectorized compares inside one user
    co-partition; maximal chains fold via bincount weighted by
    validity, so zero diffs and user boundaries cost nothing. Every
    user with >= 1 event reports (a diffless user scores 1). Double
    LAG window replay."""
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
        uu = np.unique(u)
        base = pd.Series(np.zeros(len(uu), np.int64), index=uu)
        if len(u) > 1:
            s = np.sign(v[1:] - v[:-1]).astype(np.int64)
            valid = (u[1:] == u[:-1]) & (s != 0)
            brk = np.ones(len(s), bool)
            if len(s) > 1:
                brk[1:] = ~valid[:-1] | (s[1:] != -s[:-1])
            isl = np.cumsum(brk) - 1
            lengths = np.bincount(
                isl, weights=valid.astype(np.int64)).astype(np.int64)
            isl_user = u[1:][brk]
            per = pd.DataFrame({"user_id": isl_user, "L": lengths}) \
                .groupby("user_id", sort=False)["L"].max()
            base.loc[per.index] = np.maximum(
                base.loc[per.index].to_numpy(), per.to_numpy(np.int64))
        return pd.DataFrame({
            "user_id": base.index.to_numpy(np.int64),
            "longest_zigzag": base.to_numpy(np.int64) + 1})

    return (_with_bucket(ds, "user_id", 32)
            .groupby("bucket").map_groups(window, batch_format="pandas"))



QUERIES["zigzag_runs_users"] = q_zigzag_runs_users

ORACLE_SQL["zigzag_runs_users"] = """
        WITH f AS (SELECT user_id, ts, event_id,
                          CAST(floor(value * 10000.0 + 0.5) AS BIGINT)
                            AS v
                   FROM events),
        l AS (SELECT user_id, ts, event_id, v,
                     LAG(v) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS pv
              FROM f),
        s AS (SELECT user_id, ts, event_id,
                     CASE WHEN pv IS NULL THEN NULL
                          WHEN v > pv THEN 1
                          WHEN v < pv THEN -1
                          ELSE 0 END AS sg
              FROM l),
        l2 AS (SELECT user_id, ts, event_id, sg,
                      LAG(sg) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) AS psg
               FROM s),
        g AS (SELECT user_id, ts, event_id, sg,
                     SUM(CASE WHEN sg IS NULL THEN 0
                              WHEN sg <> 0 AND psg IS NOT NULL
                                   AND psg <> 0 AND sg = -psg THEN 0
                              ELSE 1 END) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS isl
              FROM l2),
        c AS (SELECT user_id, isl,
                     SUM(CASE WHEN sg <> 0 THEN 1 ELSE 0 END) AS len
              FROM g WHERE sg IS NOT NULL GROUP BY 1, 2),
        m AS (SELECT user_id, MAX(len) AS mx FROM c GROUP BY 1)
        SELECT d.user_id,
               CAST(COALESCE(m.mx, 0) + 1 AS BIGINT) AS longest_zigzag
        FROM (SELECT DISTINCT user_id FROM events) d
        LEFT JOIN m ON m.user_id = d.user_id
    """



# ---------------------------------------------------------------------------
# median_filter_images: 3x3 median-filter denoise audit per image
# ---------------------------------------------------------------------------

def q_median_filter_images(sf_dir: str):
    """3x3 median-filter audit per image (first 1024): how much mass
    a one-step salt-and-pepper denoise moves — sum |median(3x3) −
    gray| and the count of changed pixels over the INTERIOR (the
    filter's valid region), on the exact integer gray lattice
    (r+g+b)//3. The speckle detector that complements the dilation
    growth delta: high moved-mass + high changed-count = noise, high
    mass + low count = salt. Vectorized exactly: nine shifted tensor
    views stacked, one int64 sort along the stencil axis, element [4]
    is the median — never per-pixel Python. Scalar replay sidecar
    sorts each 9-neighbourhood in pure python."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class MedStage:
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
            out_id, out_m, out_c = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                sten = np.stack([gray[:, dy:hi - 2 + dy,
                                      dx:wi - 2 + dx]
                                 for dy in range(3)
                                 for dx in range(3)])
                sten.sort(axis=0)
                med = sten[4]
                diff = np.abs(med - gray[:, 1:-1, 1:-1])
                out_id.append(ids[slots])
                out_m.append(diff.sum(axis=(1, 2)).astype(np.int64))
                out_c.append((diff > 0).sum(axis=(1, 2))
                             .astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "moved_mass": pa.array(np.concatenate(out_m)),
                "n_changed": pa.array(np.concatenate(out_c))})

    return ds.map_batches(MedStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["median_filter_images"] = q_median_filter_images



def _medfilt_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for median_filter_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_medfilt_{_P(img).name}_{n}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        mass = np.zeros(len(ws), np.int64)
        chg = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(wi)] for y in range(hi)]
                m = c = 0
                for y in range(1, hi - 1):
                    for x in range(1, wi - 1):
                        nb = sorted(g[yy][xx]
                                    for yy in (y - 1, y, y + 1)
                                    for xx in (x - 1, x, x + 1))
                        d = abs(nb[4] - g[y][x])
                        m += d
                        if d:
                            c += 1
                mass[slot] = m
                chg[slot] = c
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.table({
            "image_id": ids, "moved_mass": pa.array(mass),
            "n_changed": pa.array(chg)}), p)
    return str(p)

__defined__ = (
    '_CTS_TAUS_E6',
    '_DECIM',
    '_FS_BUDGET',
    '_GH_ALPHABET',
    '_GH_PREC',
    '_HC_RECTS',
    '_HC_RES',
    '_HEX_A',
    '_HEX_B',
    '_IBU_PREFIX',
    '_KMV_K',
    '_KT_PAIRS',
    '_MMR_K',
    '_MMR_SALT',
    '_NTM_SPLIT_DAY_US',
    '_QUOTA_BUDGET',
    '_RBO_D',
    '_RDP_EPS_E6',
    '_SNM_KEYLEN',
    '_SNM_W',
    '_TRIM_K',
    '_audio_decimate_sidecar',
    '_audio_decimate_sql',
    '_audio_median_sidecar',
    '_audio_median_sql',
    '_audio_peak_sidecar',
    '_audio_peak_sql',
    '_blob_geom_sidecar',
    '_blob_geom_sql',
    '_cell_gini_sql',
    '_cts_sql',
    '_dilation_sidecar',
    '_dilation_sql',
    '_dim_median_sql',
    '_disttr_sidecar',
    '_disttr_sql',
    '_er_canonical_sql',
    '_geohash_sql',
    '_gray_modes_sql',
    '_hex_sql',
    '_hilbert_cells_sidecar',
    '_hilbert_ranges_sql',
    '_hog4_sidecar',
    '_hog4_sql',
    '_int8_quant_sql',
    '_kmv_sidecar',
    '_kmv_sql',
    '_lbp_sidecar',
    '_lbp_sql',
    '_medfilt_sidecar',
    '_medoid_sql',
    '_mmr_sidecar',
    '_mmr_sql',
    '_oracle_segments_idx_path',
    '_oracle_vertices_path',
    '_proj_profile_sidecar',
    '_proj_profile_sql',
    '_quadtree_sidecar',
    '_quadtree_sql',
    '_rdp_retention_sidecar',
    '_rdp_retention_sql',
    '_rle_sidecar',
    '_rle_sql',
    '_route_coverage_sql',
    '_route_headways_sql',
    '_route_pair_dist_sql',
    '_route_sinuosity_sql',
    '_seam_sidecar',
    '_seam_sql',
    '_snm_recall_sql',
    'q_audio_decimate_tracks',
    'q_audio_median_abs_tracks',
    'q_audio_peak_tracks',
    'q_basket_pairs_user_days',
    'q_blob_geometry_images',
    'q_borda_topk_customers',
    'q_cell_count_gini',
    'q_childless_orders_audit',
    'q_cn_link_prediction_dups',
    'q_component_threshold_sweep_dups',
    'q_daily_cross_source_moments',
    'q_dilation_area_images',
    'q_dim_median_embeddings',
    'q_dispersion_class_users',
    'q_dist_transform_images',
    'q_er_canonical_docs',
    'q_excess_suppliers_q20',
    'q_exclusion_funnel_users',
    'q_fair_share_sources',
    'q_geohash_cell_counts',
    'q_hex_cell_counts',
    'q_hilbert_range_counts',
    'q_hog4_images',
    'q_identical_behavior_users',
    'q_int8_quant_audit_embeddings',
    'q_interp_fill_daily_users',
    'q_isotonic_monthly_revenue',
    'q_join_card_est_audit',
    'q_kendall_nation_pairs',
    'q_kmv_distinct_users',
    'q_lbp_texture_images',
    'q_line_price_trend_orders',
    'q_linenumber_contiguity_audit',
    'q_log2_gap_histogram_users',
    'q_median_filter_images',
    'q_medoid_dup_clusters',
    'q_mmr_topk_embeddings',
    'q_next_type_majority_accuracy',
    'q_pmi_bigrams_docs',
    'q_proj_profile_images',
    'q_quadtree_depth_images',
    'q_quota_allocation_sources',
    'q_rbo_nation_rankings',
    'q_rdp_retention_shapes',
    'q_rle_runs_images',
    'q_route_coverage_deciles',
    'q_route_headways',
    'q_route_pair_min_vertex_dist',
    'q_route_sinuosity_parts',
    'q_seam_energy_images',
    'q_sentence_stats_docs',
    'q_skew_report_keys',
    'q_snm_candidate_pairs',
    'q_snm_recall_audit',
    'q_test_contamination_docs',
    'q_trimmed_revenue_nations',
    'q_type_drift_halves',
    'q_vocab_jaccard_sources',
    'q_zigzag_runs_users',
)
