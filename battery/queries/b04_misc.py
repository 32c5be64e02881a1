"""Query battery part — 74 driver queries (split from the former single-module queries.py).

Registers:
last_supplier_orders_q21, triplet_violation_labels,
daily_autocorr_events, cheapest_supplier_parts, dup_component_sizes,
hist_equalize_sums, phash_nn_images, simpson_diversity_sources,
bursty_customers_nations, local_clustering_dups, haar_energy_daily,
lifetime_span_customers, blob_count_images, daily_xcorr_types,
audio_onsets_tracks, csv_roundtrip_events, range_density_labels,
order_delta_signs, disc_tile_counts, mirror_symmetry_images,
pareto_frontier_nations, dow_detrended_parts, video_flicker_parts,
near_simultaneous_pairs, reorder_after_return, early_breadth_users,
nation_quartile_bands, type_run_lengths, quadkey_occupancy,
simhash_bit_bias, coverage_holes_cells, sessions_crossing_midnight,
price_endings_orders, nearest_route_share,
priority_migration_customers, cusum_daily_revenue,
repetitiveness_docs, burst_window_max_users, weak_edges_dups,
mutual_best_pairs, cross_source_leakage, value_ecdf_probes,
closest_pair_tiles, quarter_close_spike, audio_loudest_window,
gmd_nations, interval_merge_users, otsu_threshold_images, kcore_dups,
anagram_groups_docs, mann_kendall_nations, local_supplier_volume_q5,
audio_haar_detail_tracks, video_quadrant_motion,
profit_by_nation_year, tumbling_argmax_events, probe_energy_labels,
zorder_range_counts, head_vocab_coverage_sources, image_haar_bands,
two_hop_dups, token_burstiness_head, audio_walsh_bands,
best_split_daily, largest_blob_images, supplier_breadth_customers,
containment_pairs_docs, butterfly_count_cs, video_temporal_haar,
degree_assortativity_dups, anomalous_minutes_events,
sig_agreement_pairs_docs, nucleus_mass_types, gray_modes_images
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
    _emb_dim_np,
    EMBEDDING_DUPS_SQL,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _e,
    _fixture_ctx,
    _image_dir_for,
    _minhash_pairs_sidecar,
    _mods_digest,
    _oracle_cache_dir,
    _oracle_segments_path,
    _read,
    _read_docs,
    _ref_sidecar,
    _rename,
    _semi_lookup_join,
    _simhash_sidecar,
    _sql_cell,
    _sql_quant,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b03_misc import (
    _poly_edges_path,
    _video_dir_for,
)  # noqa: F401



def q_last_supplier_orders_q21(sf_dir: str):
    """TPC-H Q21 flavour (suppliers who kept orders waiting, recast on
    this schema's columns): per supplier, the number of MULTI-supplier
    orders where that supplier strictly shipped last (its latest
    shipdate beats every other supplier's in the order). One orderkey
    co-partition: each bucket lexsorts once, reduces to per-(order,
    supplier) max-shipdate runs, resolves the per-order strict-argmax
    with segmented maxima, and emits supplier-cardinality partials."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                              "n_orders": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        ok = df["l_orderkey"].to_numpy(np.int64)
        sk = df["l_suppkey"].to_numpy(np.int64)
        sd = df["l_shipdate"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        o = np.lexsort((sd, sk, ok))
        ok, sk, sd = ok[o], sk[o], sd[o]
        # per-(order, supplier) max shipdate = last row of each run
        last = np.r_[(ok[1:] != ok[:-1]) | (sk[1:] != sk[:-1]), True]
        ok, sk, md = ok[last], sk[last], sd[last]
        # per order (runs are still ok-sorted): nsupp, max md, strictness
        new = np.r_[True, ok[1:] != ok[:-1]]
        first = np.flatnonzero(new)
        cnt = np.diff(np.r_[first, len(ok)])
        oid = np.cumsum(new) - 1
        omax = np.zeros(len(first), np.int64)
        np.maximum.at(omax, oid, md)
        at_max = md == omax[oid]
        n_at_max = np.zeros(len(first), np.int64)
        np.add.at(n_at_max, oid, at_max.astype(np.int64))
        win = at_max & (n_at_max[oid] == 1) & (cnt[oid] >= 2)
        if not win.any():
            return empty
        g = pd.DataFrame({"s_suppkey": sk[win]}) \
            .groupby("s_suppkey", as_index=False).size()
        return g.rename(columns={"size": "n_orders"})

    out = (_with_bucket(li, "l_orderkey", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("s_suppkey").sum("n_orders"))
    return _rename(out, ["s_suppkey", "n_orders"])



QUERIES["last_supplier_orders_q21"] = q_last_supplier_orders_q21

ORACLE_SQL["last_supplier_orders_q21"] = """
        WITH s AS (SELECT l_orderkey, l_suppkey,
                          MAX(l_shipdate) AS md
                   FROM lineitem GROUP BY 1, 2),
        o AS (SELECT l_orderkey, COUNT(*) AS nsupp, MAX(md) AS omax
              FROM s GROUP BY 1),
        j AS (SELECT s.l_orderkey, s.l_suppkey, s.md, o.nsupp, o.omax
              FROM s JOIN o USING (l_orderkey)),
        cm AS (SELECT l_orderkey,
                      COUNT(*) FILTER (md = omax) AS n_at_max
               FROM j GROUP BY 1)
        SELECT j.l_suppkey AS s_suppkey,
               count(*) AS n_orders
        FROM j JOIN cm USING (l_orderkey)
        WHERE j.nsupp >= 2 AND j.md = j.omax AND cm.n_at_max = 1
        GROUP BY 1
    """



def q_triplet_violation_labels(sf_dir: str):
    """Embedding-space label coherence: per label, how many anchors
    have a DIFFERENT-label vector strictly closer (exact squared L2 on
    the e6 integer lattice) than their nearest same-label peer — the
    triplet-loss violation rate that flags mislabeled clusters.
    Anchors without a same-label peer are skipped. Per batch: one
    int64 Gram matmul against the broadcast lattice corpus gives every
    anchor both masked minima at once. Corpus gather is the size-capped
    ``_emb_dim_np`` (Arrow→numpy, no row loop); at 100 TB the
    LSH-bucketed path (embedding_dedup_lsh) replaces the broadcast
    corpus. Oracle: scalar python-int replay
    (oracle_ref.triplet_violations_ref) via sidecar."""
    emb = _read(sf_dir, "embeddings", ["vec_id"])
    ids, Vf, labs = _emb_dim_np(sf_dir, ("label",))
    V = np.floor(Vf * 1_000_000.0).astype(np.int64)
    labs = labs.astype(np.int64)
    cref = ray.put((ids, V, labs))
    BIG = np.int64(2**62)

    def part(t: pa.Table) -> pa.Table:
        ids_, V_, labs_ = _broadcast(cref)
        a_ids = t["vec_id"].to_numpy(zero_copy_only=False)
        ai = np.searchsorted(ids_, a_ids)
        A = V_[ai]
        # d² = |a|² + |b|² − 2 a·b, exact in int64 on the e6 lattice
        n2 = (V_ * V_).sum(axis=1)
        D = n2[ai][:, None] + n2[None, :] - 2 * (A @ V_.T)
        D[np.arange(len(ai)), ai] = BIG  # self out
        same = labs_[None, :] == labs_[ai][:, None]
        d_same = np.where(same, D, BIG).min(axis=1)
        d_other = np.where(~same, D, BIG).min(axis=1)
        keep = d_same < BIG
        viol = keep & (d_other < d_same)
        g = pa.table({"label": pa.array(labs_[ai][keep]),
                      "v": pa.array(viol[keep].astype(np.int64))}) \
            .group_by("label").aggregate(
                [([], "count_all"), ("v", "sum")])
        return pa.table({"label": g["label"],
                         "n_anchors": g["count_all"].cast(pa.int64()),
                         "n_violations": g["v_sum"]})

    out = (emb.select_columns(["vec_id"])
           .map_batches(part, batch_format="pyarrow", batch_size=256)
           .groupby("label").sum(["n_anchors", "n_violations"]))
    return _rename(out, ["label", "n_anchors", "n_violations"])



QUERIES["triplet_violation_labels"] = q_triplet_violation_labels



def _triplet_sidecar(sf_dir: str) -> str:
    """Sidecar for triplet_violation_labels: the scalar replay over the
    same e6-lattice ints. Content-keyed on oracle_ref.py."""
    import battery.oracle_ref as _oref
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_triplet_{Path(sf_dir).name}_"
        f"{_mods_digest(_oref)}.parquet")
    if not p.exists():
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding", "label"])
        order = pc.sort_indices(t["vec_id"])
        emb = t["embedding"].take(order).to_pylist()
        labs = t["label"].take(order).to_pylist()
        import math
        vecs = [[int(math.floor(float(x) * 1_000_000.0)) for x in v]
                for v in emb]
        res = _oref.triplet_violations_ref(vecs,
                                           [int(x) for x in labs])
        out = pa.table({
            "label": pa.array(sorted(res), pa.int64()),
            "n_anchors": pa.array([res[k][0] for k in sorted(res)],
                                  pa.int64()),
            "n_violations": pa.array([res[k][1] for k in sorted(res)],
                                     pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _triplet_sql(sf_dir: str) -> str:
    return (f"SELECT label, n_anchors, n_violations "
            f"FROM read_parquet('{_triplet_sidecar(sf_dir)}')")



def q_daily_autocorr_events(sf_dir: str):
    """Periodicity probe on the event stream: exact integer
    autocovariance PARTS of the daily-count series at lags 1..7 —
    Σ c_t·c_{t+L} over the observed calendar span (absent days are
    zero), plus the term count. Day-cardinality partials feed one
    tiny groupby; the lag products form in an O(days) driver
    epilogue. Weekly seasonality shows as a lag-7 peak."""
    ev = _read(sf_dir, "events", ["ts"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        d = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(DAY, pa.int64()))
        g = pa.table({"day": d}).group_by("day").aggregate(
            [([], "count_all")])
        return pa.table({"day": g["day"],
                         "c": g["count_all"].cast(pa.int64())})

    rows = (ev.map_batches(part, batch_format="pyarrow")
            .groupby("day").sum("c")).take_all()
    if not rows:
        return pd.DataFrame({"lag": pd.Series(dtype=np.int64),
                             "n_terms": pd.Series(dtype=np.int64),
                             "sum_prod": pd.Series(dtype=np.int64)})
    days = {r["day"]: r["sum(c)"] for r in rows}
    lo, hi = min(days), max(days)
    out = []
    for lag in range(1, 8):
        sp = sum(c * days.get(d + lag, 0) for d, c in days.items()
                 if d + lag <= hi)
        out.append({"lag": lag, "n_terms": max(hi - lo + 1 - lag, 0),
                    "sum_prod": sp})
    return pd.DataFrame(out)



QUERIES["daily_autocorr_events"] = q_daily_autocorr_events

ORACLE_SQL["daily_autocorr_events"] = """
        WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                       AS day, COUNT(*) AS c
                   FROM events GROUP BY 1),
        b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
        l AS (SELECT unnest(range(1, 8)) AS lag)
        SELECT CAST(l.lag AS BIGINT) AS lag,
               CAST(GREATEST(b.hi - b.lo + 1 - l.lag, 0) AS BIGINT)
                   AS n_terms,
               CAST(COALESCE((SELECT SUM(a.c * e.c)
                              FROM d a JOIN d e
                                ON e.day = a.day + l.lag), 0)
                    AS BIGINT) AS sum_prod
        FROM l, b
    """



def q_cheapest_supplier_parts(sf_dir: str):
    """TPC-H Q2-flavoured minimum-cost supplier election, EXACT over
    rationals: per part, the supplier with the lowest unit price
    (total cents / total qty) wins; ties break to the smaller
    suppkey. No float division ever orders the candidates — the sort
    key is floor(cents · 2⁵³ / qty) in python ints, which orders
    exactly like the rational while Σqty < 2²⁶ (asserted; distinct
    rationals with denominators ≤ Q separate once L ≥ Q²). Plan:
    per-(part,supp) packed-key sum partials → pair-cardinality
    groupby → ONE part-bucket co-partition elects every winner →
    supplier-cardinality partials."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        packed = pc.add(pc.multiply(t["l_partkey"],
                                    pa.scalar(1 << 20, pa.int64())),
                        t["l_suppkey"])
        g = pa.table({"pk": packed, "c": cents,
                      "q": t["l_quantity"].cast(pa.int64())}) \
            .group_by("pk").aggregate([("c", "sum"), ("q", "sum")])
        return pa.table({"pk": g["pk"], "cents": g["c_sum"],
                         "qty": g["q_sum"]})

    pairs = (li.map_batches(partial, batch_format="pyarrow")
             .groupby("pk").sum(["cents", "qty"]))
    pairs = _rename(pairs, ["pk", "cents", "qty"]).map_batches(
        lambda t: pa.table({
            "part": pc.shift_right(t["pk"], pa.scalar(20, pa.int64())),
            "supp": pc.bit_wise_and(t["pk"],
                                    pa.scalar((1 << 20) - 1,
                                              pa.int64())),
            "cents": t["cents"], "qty": t["qty"]}),
        batch_format="pyarrow")

    L = 1 << 53

    def elect(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"s_suppkey": pd.Series(dtype=np.int64),
                              "n_parts": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        best: dict[int, tuple[int, int]] = {}
        for part, supp, cents, qty in zip(
                df["part"].to_numpy(np.int64).tolist(),
                df["supp"].to_numpy(np.int64).tolist(),
                df["cents"].to_numpy(np.int64).tolist(),
                df["qty"].to_numpy(np.int64).tolist()):
            assert 0 < qty < (1 << 26), "rational-key contract"
            key = cents * L // qty
            cur = best.get(part)
            if cur is None or (key, supp) < cur:
                best[part] = (key, supp)
        g = pd.DataFrame({"s_suppkey": [v[1] for v in best.values()]}) \
            .groupby("s_suppkey", as_index=False).size()
        return g.rename(columns={"size": "n_parts"})

    out = (_with_bucket(pairs, "part", 32)
           .groupby("bucket").map_groups(elect, batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("s_suppkey").sum("n_parts"))
    return _rename(out, ["s_suppkey", "n_parts"])



QUERIES["cheapest_supplier_parts"] = q_cheapest_supplier_parts

ORACLE_SQL["cheapest_supplier_parts"] = """
        WITH ps AS (SELECT l_partkey AS p, l_suppkey AS s,
                           CAST(SUM(CAST(floor(l_extendedprice * 100.0
                                               + 0.5) AS BIGINT))
                                AS BIGINT) AS cents,
                           CAST(SUM(CAST(l_quantity AS BIGINT))
                                AS BIGINT) AS qty
                    FROM lineitem GROUP BY 1, 2),
        r AS (SELECT p, s,
                     row_number() OVER (PARTITION BY p
                         ORDER BY CAST(cents AS HUGEINT)
                                  * 9007199254740992 // qty, s) AS rn
              FROM ps)
        SELECT s AS s_suppkey, count(*) AS n_parts
        FROM r WHERE rn = 1 GROUP BY 1
    """



def q_dup_component_sizes(sf_dir: str):
    """Duplicate-cluster SIZE distribution: the embedding near-dup
    pairs flow through distributed connected components, then two
    bounded aggregations turn (node → cluster) into the size
    histogram a dedup-savings estimate reads off. Oracle: the
    recursive-CTE components replay wrapped in the same two
    aggregations."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import connected_components

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), tau=0.35)
    cc = connected_components(
        pairs.select_columns(["a", "b"]), "a", "b", n_buckets=8)
    sizes = cc.groupby("cluster_id").count()
    sizes = _rename(sizes, ["cluster_id", "size"]) \
        .map_batches(lambda t: t.select(["size"]),
                     batch_format="pyarrow")
    out = sizes.groupby("size").count()
    return _rename(out, ["size", "n_clusters"])



QUERIES["dup_component_sizes"] = q_dup_component_sizes



def q_hist_equalize_sums(sf_dir: str):
    """Histogram equalization as an exact integer transform audit: for
    the first 1024 images, the pixel sum of the equalized gray plane
    — eq(p) = ⌊(cdf(p) − cdf_min)·255 / (npx − cdf_min)⌋, the
    classic contrast-stretch every vision pipeline owns. The whole
    batch's histograms come from ONE image-offset-packed bincount;
    the remap is a cumsum + gather. Python-int replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class EqStage:
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
            out_id, out_sum = [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                k, npx = len(slots), wi * hi
                code = np.arange(k)[:, None, None] * 256 + gray
                hist = np.bincount(code.ravel(),
                                   minlength=k * 256).reshape(k, 256)
                cdf = np.cumsum(hist, axis=1)
                # cdf_min = cdf at the first occupied bin
                first = (hist > 0).argmax(axis=1)
                cdf_min = cdf[np.arange(k), first]
                den = np.maximum(npx - cdf_min, 1)
                lut = (cdf - cdf_min[:, None]) * 255 // den[:, None]
                lut = np.where((npx - cdf_min)[:, None] == 0, 0, lut)
                eq = np.take_along_axis(
                    lut, gray.reshape(k, -1), axis=1)
                out_id.append(ids[slots])
                out_sum.append(eq.sum(axis=1).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "eq_sum": pa.array(np.concatenate(out_sum))})

    return ds.map_batches(EqStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["hist_equalize_sums"] = q_hist_equalize_sums



def _hist_eq_sidecar(img: str, n: int = 1024) -> str:
    """Python-int replay for hist_equalize_sums (Counter histogram +
    per-pixel scalar remap). Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_histeq_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        sums = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                vals = [(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                         + int(px[j, y, x, 2])) // 3
                        for y in range(hi) for x in range(wi)]
                hist = [0] * 256
                for v in vals:
                    hist[v] += 1
                cdf, run = [0] * 256, 0
                for b in range(256):
                    run += hist[b]
                    cdf[b] = run
                cdf_min = next(cdf[b] for b in range(256)
                               if hist[b] > 0)
                npx = wi * hi
                if npx == cdf_min:
                    sums[slot] = 0
                    continue
                total = 0
                for v in vals:
                    total += (cdf[v] - cdf_min) * 255 // (npx - cdf_min)
                sums[slot] = total
        out = pa.table({"image_id": ids, "eq_sum": pa.array(sums)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hist_eq_sql(img: str) -> str:
    return (f"SELECT image_id, eq_sum "
            f"FROM read_parquet('{_hist_eq_sidecar(img)}')")



def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 — constant memory (no
    unpackbits blow-up on outer-product XOR matrices)."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) \
        + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)



def q_phash_nn_images(sf_dir: str):
    """Perceptual-hash nearest neighbour: for the first 256 images,
    the closest OTHER image by phash Hamming distance (ties to the
    lexicographically smallest id) — the retrieval probe behind
    near-dup image triage, on a pure metadata scan. Per batch one
    outer XOR + SWAR popcount against the broadcast id-sorted phash
    corpus; argmin's first-hit rule IS the id tie-break. Oracle: SQL
    bit_count(xor()) window replay."""
    from geotile.ops.tiles import read_image_table

    img = _image_dir_for(sf_dir)
    corpus = read_image_table(img, columns=["image_id", "phash"]) \
        .take_all()
    corpus.sort(key=lambda r: r["image_id"])
    cids = np.array([r["image_id"] for r in corpus])
    cph = np.array([r["phash"] for r in corpus],
                   np.int64).view(np.uint64)
    cref = ray.put((cids, cph))

    ds = read_image_table(img, columns=["image_id", "phash"]) \
        .limit(256)

    def nn(t: pa.Table) -> pa.Table:
        cids_, cph_ = _broadcast(cref)
        qid = np.array(t["image_id"].to_pylist())
        qph = t["phash"].to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        out_id, out_nn, out_d = [], [], []
        for lo in range(0, len(qid), 32):  # bound the XOR matrix
            q = qph[lo:lo + 32]
            D = _popcount64(q[:, None] ^ cph_[None, :])
            self_i = np.searchsorted(cids_, qid[lo:lo + 32])
            D[np.arange(len(q)), self_i] = 65
            best = D.argmin(axis=1)  # first hit = smallest id
            out_id.append(qid[lo:lo + 32])
            out_nn.append(cids_[best])
            out_d.append(D[np.arange(len(q)), best])
        return pa.table({
            "image_id": pa.array(np.concatenate(out_id)),
            "nn_id": pa.array(np.concatenate(out_nn)),
            "dist": pa.array(np.concatenate(out_d).astype(np.int64))})

    return ds.map_batches(nn, batch_format="pyarrow", batch_size=64)



QUERIES["phash_nn_images"] = q_phash_nn_images



def _phash_nn_sql(img: str) -> str:
    return f"""
        WITH a AS (SELECT image_id, phash
                   FROM read_parquet('{img}/part-*.parquet')
                   ORDER BY image_id LIMIT 256),
        e AS (SELECT image_id, phash
              FROM read_parquet('{img}/part-*.parquet')),
        p AS (SELECT a.image_id AS qid, e.image_id AS nid,
                     bit_count(CAST(xor(a.phash, e.phash) AS BIGINT))
                         AS d
              FROM a CROSS JOIN e WHERE e.image_id <> a.image_id),
        r AS (SELECT qid, nid, d,
                     row_number() OVER (PARTITION BY qid
                                        ORDER BY d, nid) AS rn
              FROM p)
        SELECT qid AS image_id, nid AS nn_id, CAST(d AS BIGINT) AS dist
        FROM r WHERE rn = 1
    """



def q_simpson_diversity_sources(sf_dir: str):
    """Lexical concentration per source: exact Simpson-index parts —
    total tokens, distinct tokens, and Σ n_t² over the per-source
    token counts (the collision probability numerator). Token-count
    partials ride one Heaps-bounded (source, token) shuffle; the
    Σn² reduction is a second source-cardinality pass."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t["text"], " ")
        src = pa.array(np.repeat(
            np.array(t["source"].to_pylist()),
            pc.list_value_length(lists).to_numpy(zero_copy_only=False)))
        w = pc.list_flatten(lists)
        keep = pc.not_equal(w, pa.scalar(""))
        g = pa.table({"source": pc.array_filter(src, keep),
                      "tok": pc.array_filter(w, keep)}) \
            .group_by(["source", "tok"]).aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "tok": g["tok"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (docs.map_batches(toks, batch_format="pyarrow")
              .groupby(["source", "tok"]).sum("n"))

    def parts(t: pa.Table) -> pa.Table:
        n = t["sum(n)"]
        g = pa.table({"source": t["source"], "n": n,
                      "nsq": pc.multiply(n, n)}) \
            .group_by("source").aggregate(
                [("n", "sum"), ("nsq", "sum"), ([], "count_all")])
        return pa.table({"source": g["source"],
                         "n_tokens": g["n_sum"],
                         "sum_sq": g["nsq_sum"],
                         "n_distinct": g["count_all"]
                         .cast(pa.int64())})

    out = (counts.map_batches(parts, batch_format="pyarrow")
           .groupby("source").sum(["n_tokens", "sum_sq",
                                   "n_distinct"]))
    return _rename(out, ["source", "n_tokens", "sum_sq", "n_distinct"])



QUERIES["simpson_diversity_sources"] = q_simpson_diversity_sources

ORACLE_SQL["simpson_diversity_sources"] = """
        WITH w AS (SELECT source,
                          unnest(string_split(text, ' ')) AS tok
                   FROM documents),
        t AS (SELECT source, tok, count(*) AS n
              FROM w WHERE tok <> '' GROUP BY 1, 2)
        SELECT source, CAST(SUM(n) AS BIGINT) AS n_tokens,
               CAST(SUM(n * n) AS BIGINT) AS sum_sq,
               count(*) AS n_distinct
        FROM t GROUP BY 1
    """



def q_bursty_customers_nations(sf_dir: str):
    """Purchase-burstiness per nation: among repeat customers, how
    many have a SHORTEST order gap under a quarter of their mean gap
    (min_gap·4·n < Σgaps — exact integer cross-multiplication, no
    float mean). One custkey co-partition resolves every customer's
    gap stats after a single lexsort (day, orderkey LAG discipline);
    the nation rollup is a broadcast searchsorted gather."""
    from battery.ops.relational import _with_bucket

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    cn = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    dref = ray.put((ck, cn))

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"nation": pd.Series(dtype=np.int64),
                              "n_repeat": pd.Series(dtype=np.int64),
                              "n_bursty": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        ck_, cn_ = _broadcast(dref)
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000)
        o = np.lexsort((k, d, c))
        cc, dd = c[o], d[o]
        same = cc[1:] == cc[:-1]
        gaps = (dd[1:] - dd[:-1])[same]
        gc = cc[1:][same]
        if len(gaps) == 0:
            return empty
        ucust, inv = np.unique(gc, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        sg = np.bincount(inv, weights=gaps).astype(np.int64)
        mg = np.full(len(ucust), np.iinfo(np.int64).max)
        np.minimum.at(mg, inv, gaps)
        bursty = (mg * 4 * n < sg).astype(np.int64)
        i = np.minimum(np.searchsorted(ck_, ucust),
                       max(len(ck_) - 1, 0))
        hit = (ck_[i] == ucust) if len(ck_) else \
            np.zeros(len(ucust), bool)
        g = pd.DataFrame({"nation": cn_[i[hit]],
                          "n_repeat": np.ones(hit.sum(), np.int64),
                          "n_bursty": bursty[hit]}) \
            .groupby("nation", as_index=False).sum()
        return g

    out = (_with_bucket(orders, "o_custkey", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("nation").sum(["n_repeat", "n_bursty"]))
    return _rename(out, ["nation", "n_repeat", "n_bursty"])



QUERIES["bursty_customers_nations"] = q_bursty_customers_nations

ORACLE_SQL["bursty_customers_nations"] = """
        WITH o AS (SELECT o_custkey AS c,
                          CAST(epoch_us(o_orderdate) // 86400000000
                               AS BIGINT) AS d,
                          o_orderkey AS k
                   FROM orders),
        g AS (SELECT c, d - LAG(d) OVER (PARTITION BY c
                                         ORDER BY d, k) AS gap
              FROM o),
        s AS (SELECT c, count(gap) AS n, SUM(gap) AS sg,
                     MIN(gap) AS mg
              FROM g WHERE gap IS NOT NULL GROUP BY 1)
        SELECT CAST(cu.c_nationkey AS BIGINT) AS nation,
               count(*) AS n_repeat,
               CAST(count(*) FILTER (s.mg * 4 * s.n < s.sg)
                    AS BIGINT) AS n_bursty
        FROM s JOIN customer cu ON cu.c_custkey = s.c
        GROUP BY 1
    """



def q_local_clustering_dups(sf_dir: str):
    """Per-node clustering parts on the near-dup graph: degree and
    local triangle count for every node — deg·(deg−1)/2 vs n_tri is
    the exact local clustering ratio that separates dup CLIQUES from
    dup CHAINS. The edge set is dedup-output-scale, so the sorted
    adjacency (CSR arrays) broadcasts once; each node batch counts
    its neighbours' pairwise adjacency by sorted-array intersection.
    Oracle: 3-way self-join per node."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    nodes, starts = np.unique(u, return_index=True)
    ends = np.r_[starts[1:], len(u)]
    aref = ray.put((nodes, starts, ends, v))

    ds = rd.from_arrow(pa.table({"node": pa.array(nodes)})) \
        .repartition(4)

    def tri(t: pa.Table) -> pa.Table:
        nodes_, starts_, ends_, adj = _broadcast(aref)
        out_n, out_d, out_t = [], [], []
        for nd in t["node"].to_numpy(zero_copy_only=False).tolist():
            i = np.searchsorted(nodes_, nd)
            nb = adj[starts_[i]:ends_[i]]
            deg = len(nb)
            ntri = 0
            for w in nb.tolist():
                j = np.searchsorted(nodes_, w)
                wn = adj[starts_[j]:ends_[j]]
                # sorted-array intersection size
                ntri += int(np.searchsorted(wn, nb, side="right")
                            .sum() - np.searchsorted(wn, nb,
                                                     side="left")
                            .sum())
            out_n.append(nd)
            out_d.append(deg)
            out_t.append(ntri // 2)  # each triangle seen twice
        return pa.table({"node": pa.array(out_n, pa.int64()),
                         "degree": pa.array(out_d, pa.int64()),
                         "n_tri": pa.array(out_t, pa.int64())})

    return ds.map_batches(tri, batch_format="pyarrow", batch_size=512)



QUERIES["local_clustering_dups"] = q_local_clustering_dups



def q_haar_energy_daily(sf_dir: str):
    """Multi-resolution burst detector: exact integer Haar detail
    energies of the daily event-count series at levels 1..3 —
    Σ(pair difference)² over aligned 2ᵏ-day pairs (absent days are
    zero; an odd tail pairs with zero). Day-cardinality partials +
    an O(days) driver epilogue; a level-1 spike means day-to-day
    churn, level-3 means week-scale regime shifts."""
    ev = _read(sf_dir, "events", ["ts"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        d = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(DAY, pa.int64()))
        g = pa.table({"day": d}).group_by("day").aggregate(
            [([], "count_all")])
        return pa.table({"day": g["day"],
                         "c": g["count_all"].cast(pa.int64())})

    rows = (ev.map_batches(part, batch_format="pyarrow")
            .groupby("day").sum("c")).take_all()
    if not rows:
        return pd.DataFrame({"level": pd.Series(dtype=np.int64),
                             "n_pairs": pd.Series(dtype=np.int64),
                             "energy": pd.Series(dtype=np.int64)})
    days = {r["day"]: r["sum(c)"] for r in rows}
    lo, hi = min(days), max(days)
    series = [days.get(d, 0) for d in range(lo, hi + 1)]
    out = []
    for level in (1, 2, 3):
        if len(series) % 2:
            series = series + [0]
        a, bvals = series[0::2], series[1::2]
        energy = sum((x - y) * (x - y) for x, y in zip(a, bvals))
        out.append({"level": level, "n_pairs": len(a),
                    "energy": energy})
        series = [x + y for x, y in zip(a, bvals)]  # approx coeffs ×√2
    return pd.DataFrame(out)



QUERIES["haar_energy_daily"] = q_haar_energy_daily

ORACLE_SQL["haar_energy_daily"] = """
        WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                       AS day, COUNT(*) AS c
                   FROM events GROUP BY 1),
        b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
        idx AS (SELECT unnest(range(0,
                    CAST((SELECT hi - lo + 1 FROM b) AS BIGINT))) AS i),
        s0 AS (SELECT i.i, COALESCE(d.c, 0) AS c
               FROM idx i LEFT JOIN d
                 ON d.day = i.i + (SELECT lo FROM b)),
        -- level 1: pair (2j, 2j+1); an odd tail pairs with zero
        l1 AS (SELECT i // 2 AS j,
                      SUM(CASE WHEN i % 2 = 0 THEN c ELSE 0 END) AS a,
                      SUM(CASE WHEN i % 2 = 1 THEN c ELSE 0 END) AS bb
               FROM s0 GROUP BY 1),
        l2 AS (SELECT j // 2 AS j,
                      SUM(CASE WHEN j % 2 = 0 THEN a + bb ELSE 0 END)
                          AS a,
                      SUM(CASE WHEN j % 2 = 1 THEN a + bb ELSE 0 END)
                          AS bb
               FROM l1 GROUP BY 1),
        l3 AS (SELECT j // 2 AS j,
                      SUM(CASE WHEN j % 2 = 0 THEN a + bb ELSE 0 END)
                          AS a,
                      SUM(CASE WHEN j % 2 = 1 THEN a + bb ELSE 0 END)
                          AS bb
               FROM l2 GROUP BY 1)
        SELECT 1 AS level, (SELECT count(*) FROM l1) AS n_pairs,
               CAST((SELECT SUM((a - bb) * (a - bb)) FROM l1)
                    AS BIGINT) AS energy
        UNION ALL
        SELECT 2, (SELECT count(*) FROM l2),
               CAST((SELECT SUM((a - bb) * (a - bb)) FROM l2)
                    AS BIGINT)
        UNION ALL
        SELECT 3, (SELECT count(*) FROM l3),
               CAST((SELECT SUM((a - bb) * (a - bb)) FROM l3)
                    AS BIGINT)
    """



def q_lifetime_span_customers(sf_dir: str):
    """Customer-lifetime distribution: the (last − first) order-day
    span per customer, bucketed into quarters (90-day bins) — the
    retention-horizon histogram. Per-batch min/max partials collapse
    each block to customer-cardinality rows before ONE custkey
    groupby; the histogram is a second bounded aggregation."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        d = pc.divide(t["o_orderdate"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"c": t["o_custkey"], "d": d}) \
            .group_by("c").aggregate([("d", "min"), ("d", "max")])
        return pa.table({"c": g["c"], "lo": g["d_min"],
                         "hi": g["d_max"]})

    spans = (orders.map_batches(part, batch_format="pyarrow")
             .groupby("c").aggregate(rd.aggregate.Min("lo"),
                                     rd.aggregate.Max("hi")))

    def hist(t: pa.Table) -> pa.Table:
        lo = t["min(lo)"].to_numpy(zero_copy_only=False)
        hi = t["max(hi)"].to_numpy(zero_copy_only=False)
        q = (hi - lo) // 90
        g = pa.table({"span_q": pa.array(q)}).group_by("span_q") \
            .aggregate([([], "count_all")])
        return pa.table({"span_q": g["span_q"],
                         "n_customers": g["count_all"]
                         .cast(pa.int64())})

    out = (spans.map_batches(hist, batch_format="pyarrow")
           .groupby("span_q").sum("n_customers"))
    return _rename(out, ["span_q", "n_customers"])



QUERIES["lifetime_span_customers"] = q_lifetime_span_customers

ORACLE_SQL["lifetime_span_customers"] = """
        WITH s AS (SELECT o_custkey,
                          (MAX(CAST(epoch_us(o_orderdate)
                                    // 86400000000 AS BIGINT))
                           - MIN(CAST(epoch_us(o_orderdate)
                                      // 86400000000 AS BIGINT)))
                          // 90 AS span_q
                   FROM orders GROUP BY 1)
        SELECT span_q, count(*) AS n_customers
        FROM s GROUP BY 1
    """



ORACLE_SQL["local_clustering_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs),
        deg AS (SELECT u AS node, count(*) AS degree FROM e GROUP BY 1),
        tri AS (SELECT x.u AS node, count(*) AS n_tri
                FROM e x JOIN e y ON y.u = x.u AND y.v > x.v
                         JOIN e z ON z.u = x.v AND z.v = y.v
                GROUP BY 1)
        SELECT d.node, CAST(d.degree AS BIGINT) AS degree,
               CAST(COALESCE(t.n_tri, 0) AS BIGINT) AS n_tri
        FROM deg d LEFT JOIN tri t USING (node)
    """



def q_blob_count_images(sf_dir: str):
    """Binary-morphology audit: per image (first 1024), the number of
    4-connected foreground blobs (gray ≥ 128) and the foreground
    pixel count — the object-count feature a labeling stage feeds
    downstream. Engine labels by vectorized min-neighbour relaxation
    over the whole batch tensor (each pixel starts at its own index;
    iterate until fixpoint — iterations ≤ image diameter, all images
    in the batch converge together); blob count = number of surviving
    root labels. Oracle: scalar flood-fill replay — two genuinely
    different algorithms, one answer."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class BlobStage:
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
            out_id, out_b, out_fg = [], [], []
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
                n_fg = fg.sum(axis=(1, 2)).astype(np.int64)
                flat = lab.reshape(k, -1)
                base = (np.arange(k, dtype=np.int64)
                        * (hi * wi))[:, None]
                roots = flat == (np.arange(hi * wi,
                                           dtype=np.int64)[None, :]
                                 + base)
                n_blobs = (roots & fg.reshape(k, -1)).sum(axis=1) \
                    .astype(np.int64)
                out_id.append(ids[slots])
                out_b.append(n_blobs)
                out_fg.append(n_fg)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "n_blobs": pa.array(np.concatenate(out_b)),
                "n_fg": pa.array(np.concatenate(out_fg))})

    return ds.map_batches(BlobStage, batch_format="pyarrow",
                          batch_size=128, concurrency=2)



QUERIES["blob_count_images"] = q_blob_count_images



def _blob_count_sidecar(img: str, n: int = 1024) -> str:
    """Scalar flood-fill replay for blob_count_images. Content-keyed
    on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_blobs_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        blobs = np.zeros(len(ws), np.int64)
        nfg = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                fg = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                        + int(px[j, y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
                seen = [[False] * wi for _ in range(hi)]
                n_blobs = n_fg = 0
                for y in range(hi):
                    for x in range(wi):
                        if not fg[y][x]:
                            continue
                        n_fg += 1
                        if seen[y][x]:
                            continue
                        n_blobs += 1
                        stack = [(y, x)]
                        seen[y][x] = True
                        while stack:
                            cy, cx = stack.pop()
                            for dy, dx in ((1, 0), (-1, 0),
                                           (0, 1), (0, -1)):
                                ny, nx = cy + dy, cx + dx
                                if (0 <= ny < hi and 0 <= nx < wi
                                        and fg[ny][nx]
                                        and not seen[ny][nx]):
                                    seen[ny][nx] = True
                                    stack.append((ny, nx))
                blobs[slot] = n_blobs
                nfg[slot] = n_fg
        out = pa.table({"image_id": ids, "n_blobs": pa.array(blobs),
                        "n_fg": pa.array(nfg)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _blob_count_sql(img: str) -> str:
    return (f"SELECT image_id, n_blobs, n_fg "
            f"FROM read_parquet('{_blob_count_sidecar(img)}')")



def q_daily_xcorr_types(sf_dir: str):
    """Lead/lag coupling between two event streams: exact integer
    cross-correlation parts Σ click(t)·purchase(t+L) for lags −3..3
    over the daily count series (absent days zero) — does engagement
    LEAD conversion? Two day-cardinality partial sets ride one
    groupby; the lag products form in an O(days) epilogue."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"],
                        value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        d = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(DAY, pa.int64()))
        g = pa.table({"day": d, "et": t["event_type"]}) \
            .group_by(["day", "et"]).aggregate([([], "count_all")])
        return pa.table({"day": g["day"], "et": g["et"],
                         "c": g["count_all"].cast(pa.int64())})

    rows = (ev.map_batches(part, batch_format="pyarrow")
            .groupby(["day", "et"]).sum("c")).take_all()
    click = {r["day"]: r["sum(c)"] for r in rows
             if r["et"] == "click"}
    buy = {r["day"]: r["sum(c)"] for r in rows
           if r["et"] == "purchase"}
    out = []
    for lag in range(-3, 4):
        sp = sum(c * buy.get(d + lag, 0) for d, c in click.items())
        out.append({"lag": lag, "sum_prod": sp})
    return pd.DataFrame(out)



QUERIES["daily_xcorr_types"] = q_daily_xcorr_types

ORACLE_SQL["daily_xcorr_types"] = """
        WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                       AS day, event_type, COUNT(*) AS c
                   FROM events
                   WHERE event_type IN ('click', 'purchase')
                   GROUP BY 1, 2),
        l AS (SELECT unnest(range(-3, 4)) AS lag)
        SELECT CAST(l.lag AS BIGINT) AS lag,
               CAST(COALESCE((SELECT SUM(a.c * b.c)
                              FROM d a JOIN d b
                                ON b.day = a.day + l.lag
                               AND a.event_type = 'click'
                               AND b.event_type = 'purchase'), 0)
                    AS BIGINT) AS sum_prod
        FROM l
    """



def q_audio_onsets_tracks(sf_dir: str):
    """Attack/onset detection over the audio corpus: per track, the
    number of frame transitions where energy more than DOUBLES
    (e_t > 2·e_{t−1}, exact integers) and the first such frame index
    (−1 if none) — the percussive-content triage on top of the
    AudioFrameStage ledger. Stage REUSE: frame energies come from the
    shared actor-pool stage; the temporal fold is one shifted compare
    per track row-group. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))
    frames = ds.map_batches(AudioFrameStage, batch_format="pyarrow",
                            batch_size=64, concurrency=2)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"track_id": pd.Series(dtype=np.int64),
                                 "n_onsets": pd.Series(dtype=np.int64),
                                 "first_onset":
                                     pd.Series(dtype=np.int64)})
        tid = df["track_id"].to_numpy(np.int64)
        fr = df["frame"].to_numpy(np.int64)
        en = df["energy"].to_numpy(np.int64)
        o = np.lexsort((fr, tid))
        tid, fr, en = tid[o], fr[o], en[o]
        same = tid[1:] == tid[:-1]
        onset = same & (en[1:] > 2 * en[:-1])
        ut, inv = np.unique(tid, return_inverse=True)
        n_on = np.bincount(inv[1:][onset],
                           minlength=len(ut)).astype(np.int64)
        first = np.full(len(ut), np.iinfo(np.int64).max)
        np.minimum.at(first, inv[1:][onset], fr[1:][onset])
        first = np.where(n_on > 0, first, -1)
        return pd.DataFrame({"track_id": ut, "n_onsets": n_on,
                             "first_onset": first})

    from battery.ops.relational import _with_bucket

    out = (_with_bucket(frames, "track_id", 8)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow"))
    return out



QUERIES["audio_onsets_tracks"] = q_audio_onsets_tracks



def _audio_onsets_sidecar(aud: str) -> str:
    """Python-int replay for audio_onsets_tracks. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioonsets_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        frame = 1024
        nfr = pcm.shape[1] // frame
        rows = []
        for j, tid in enumerate(ids.tolist()):
            en = []
            for f in range(nfr):
                chunk = pcm[j, f * frame:(f + 1) * frame].tolist()
                en.append(sum(int(v) * int(v) for v in chunk))
            n_on, first = 0, -1
            for f in range(1, nfr):
                if en[f] > 2 * en[f - 1]:
                    n_on += 1
                    if first < 0:
                        first = f
            rows.append({"track_id": tid, "n_onsets": n_on,
                         "first_onset": first})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_onsets_sql(aud: str) -> str:
    return (f"SELECT track_id, n_onsets, first_onset "
            f"FROM read_parquet('{_audio_onsets_sidecar(aud)}')")



def q_csv_roundtrip_events(sf_dir: str):
    """Source/sink lossless round trip through CSV: events project to
    (event_id, user_id, cents — the e2 lattice formed BEFORE the
    sink so no float ever rides the text format), write as a
    partitioned CSV directory, read back with an explicit schema,
    and aggregate per user. The oracle aggregates the original
    parquet directly — any encode/parse loss breaks equality.
    Idempotent cache keyed by sf."""
    import os
    from pathlib import Path

    out = Path(os.environ.get("GEOTILE_CACHE", "/tmp/geotile_cache")) \
        / f"csv_events_{Path(sf_dir).name}"
    # marker OUTSIDE the csv dir (explicit concat — with_suffix would
    # truncate the dotted sf name and collide across scale factors)
    done = out.parent / (out.name + ".done")
    if not done.exists():
        import shutil

        if out.exists():  # a half-written dir would double rows
            shutil.rmtree(out)
        ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])

        def to_cents(t: pa.Table) -> pa.Table:
            cents = pc.floor(pc.add(pc.multiply(
                t["value"], pa.scalar(100.0)),
                pa.scalar(0.5))).cast(pa.int64())
            return pa.table({"event_id": t["event_id"],
                             "user_id": t["user_id"],
                             "cents": cents})

        ev.map_batches(to_cents, batch_format="pyarrow") \
            .repartition(4).write_csv(str(out))
        done.touch()

    back = rd.read_csv(str(out))

    def agg(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": t["user_id"].cast(pa.int64()),
                      "cents": t["cents"].cast(pa.int64())}) \
            .group_by("user_id").aggregate(
                [([], "count_all"), ("cents", "sum")])
        return pa.table({"user_id": g["user_id"],
                         "n": g["count_all"].cast(pa.int64()),
                         "sum_cents": g["cents_sum"]})

    out_ds = (back.map_batches(agg, batch_format="pyarrow")
              .groupby("user_id").sum(["n", "sum_cents"]))
    return _rename(out_ds, ["user_id", "n", "sum_cents"])



QUERIES["csv_roundtrip_events"] = q_csv_roundtrip_events

ORACLE_SQL["csv_roundtrip_events"] = """
        SELECT user_id, count(*) AS n,
               CAST(SUM(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                    AS BIGINT) AS sum_cents
        FROM events GROUP BY 1
    """



def q_range_density_labels(sf_dir: str):
    """Fixed-radius range search: per label, how many (anchor,
    neighbour) pairs sit within squared-L2 1.5e12 on the e6 integer
    lattice (self excluded) — the density audit behind choosing a
    dedup tau or DBSCAN eps. One int64 Gram matmul per batch against
    the broadcast lattice corpus; counts are exact. Corpus gather is
    the size-capped ``_emb_dim_np`` (Arrow→numpy, no row loop); at
    100 TB the LSH-bucketed path replaces the broadcast corpus.
    Oracle: scalar python-int replay (oracle_ref.range_counts_ref)
    with early-exit accumulation — a different algorithm, same
    integers."""
    R2 = 1_500_000_000_000
    emb = _read(sf_dir, "embeddings", ["vec_id"])
    ids, Vf, labs = _emb_dim_np(sf_dir, ("label",))
    V = np.floor(Vf * 1_000_000.0).astype(np.int64)
    labs = labs.astype(np.int64)
    cref = ray.put((ids, V, labs))

    def part(t: pa.Table) -> pa.Table:
        ids_, V_, labs_ = _broadcast(cref)
        ai = np.searchsorted(ids_, t["vec_id"].to_numpy(
            zero_copy_only=False))
        A = V_[ai]
        n2 = (V_ * V_).sum(axis=1)
        D = n2[ai][:, None] + n2[None, :] - 2 * (A @ V_.T)
        D[np.arange(len(ai)), ai] = np.int64(2**62)
        cnt = (D <= R2).sum(axis=1).astype(np.int64)
        g = pa.table({"label": pa.array(labs_[ai]),
                      "c": pa.array(cnt)}) \
            .group_by("label").aggregate(
                [([], "count_all"), ("c", "sum")])
        return pa.table({"label": g["label"],
                         "n_anchors": g["count_all"].cast(pa.int64()),
                         "n_in_range": g["c_sum"]})

    out = (emb.select_columns(["vec_id"])
           .map_batches(part, batch_format="pyarrow", batch_size=256)
           .groupby("label").sum(["n_anchors", "n_in_range"]))
    return _rename(out, ["label", "n_anchors", "n_in_range"])



QUERIES["range_density_labels"] = q_range_density_labels



def _range_density_sidecar(sf_dir: str) -> str:
    """Sidecar for range_density_labels (scalar early-exit replay).
    Content-keyed on oracle_ref.py."""
    import battery.oracle_ref as _oref
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_rangedensity_{Path(sf_dir).name}_"
        f"{_mods_digest(_oref)}.parquet")
    if not p.exists():
        import math

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding", "label"])
        order = pc.sort_indices(t["vec_id"])
        emb = t["embedding"].take(order).to_pylist()
        labs = [int(x) for x in t["label"].take(order).to_pylist()]
        vecs = [[int(math.floor(float(x) * 1_000_000.0)) for x in v]
                for v in emb]
        res = _oref.range_counts_ref(vecs, labs, 1_500_000_000_000)
        out = pa.table({
            "label": pa.array(sorted(res), pa.int64()),
            "n_anchors": pa.array([res[k][0] for k in sorted(res)],
                                  pa.int64()),
            "n_in_range": pa.array([res[k][1] for k in sorted(res)],
                                   pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _range_density_sql(sf_dir: str) -> str:
    return (f"SELECT label, n_anchors, n_in_range "
            f"FROM read_parquet('{_range_density_sidecar(sf_dir)}')")



def q_order_delta_signs(sf_dir: str):
    """Self-asof on the order stream: each order joins its customer's
    PREVIOUS order and the totalprice delta's sign tallies per nation
    — are wallets trending up? Cents lattice before comparison, LAG
    discipline (day, orderkey), one custkey co-partition, broadcast
    nation gather, 25×3-bounded partials."""
    from battery.ops.relational import _with_bucket

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    cn = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    dref = ray.put((ck, cn))

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate",
                    "o_totalprice"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"nation": pd.Series(dtype=np.int64),
                              "n_up": pd.Series(dtype=np.int64),
                              "n_down": pd.Series(dtype=np.int64),
                              "n_flat": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        ck_, cn_ = _broadcast(dref)
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000)
        cents = np.floor(df["o_totalprice"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        o = np.lexsort((k, d, c))
        cc, pp = c[o], cents[o]
        same = cc[1:] == cc[:-1]
        delta = (pp[1:] - pp[:-1])[same]
        dc = cc[1:][same]
        if len(delta) == 0:
            return empty
        i = np.minimum(np.searchsorted(ck_, dc),
                       max(len(ck_) - 1, 0))
        hit = (ck_[i] == dc) if len(ck_) else np.zeros(len(dc), bool)
        g = pd.DataFrame({
            "nation": cn_[i[hit]],
            "n_up": (delta[hit] > 0).astype(np.int64),
            "n_down": (delta[hit] < 0).astype(np.int64),
            "n_flat": (delta[hit] == 0).astype(np.int64)}) \
            .groupby("nation", as_index=False).sum()
        return g

    out = (_with_bucket(orders, "o_custkey", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("nation").sum(["n_up", "n_down", "n_flat"]))
    return _rename(out, ["nation", "n_up", "n_down", "n_flat"])



QUERIES["order_delta_signs"] = q_order_delta_signs

ORACLE_SQL["order_delta_signs"] = """
        WITH o AS (SELECT o_custkey AS c,
                          CAST(epoch_us(o_orderdate) // 86400000000
                               AS BIGINT) AS d,
                          o_orderkey AS k,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders),
        g AS (SELECT c, cents - LAG(cents)
                         OVER (PARTITION BY c ORDER BY d, k) AS delta
              FROM o)
        SELECT CAST(cu.c_nationkey AS BIGINT) AS nation,
               CAST(count(*) FILTER (g.delta > 0) AS BIGINT) AS n_up,
               CAST(count(*) FILTER (g.delta < 0) AS BIGINT)
                   AS n_down,
               CAST(count(*) FILTER (g.delta = 0) AS BIGINT)
                   AS n_flat
        FROM g JOIN customer cu ON cu.c_custkey = g.c
        WHERE g.delta IS NOT NULL
        GROUP BY 1
    """



def q_disc_tile_counts(sf_dir: str):
    """The flagship spatial join against the MANY-polygon dimension
    set: image tiles vs the 256 synthetic station-buffer discs, one
    count per disc — the stop-catchment readout. Same cell-indexed
    join operator as tile_assignments (interior-cell fast path,
    boundary PIP), different dimension shape (256 small rings instead
    of 2 long corridors). Oracle: the even-odd crossing replay over
    the poly_edges sidecar, identical IEEE expression to the engine's
    pip kernel."""
    from geotile.ops.join import build_route_index, spatial_join
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table
    from geotile.synth import synthetic_route_polygons

    idx = build_route_index(synthetic_route_polygons(256))
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    out = (spatial_join(ds, idx)
           .select_columns(["route_id"])
           .groupby("route_id").count())
    return _rename(out, ["route_id", "n_tiles"])



QUERIES["disc_tile_counts"] = q_disc_tile_counts



def _disc_tile_counts_sql(sf_dir: str) -> str:
    img = _image_dir_for(sf_dir)
    edges = _poly_edges_path()
    return f"""
        WITH pts AS (SELECT image_id, lon, lat
                     FROM read_parquet('{img}/part-*.parquet')),
        par AS (
            SELECT p.image_id, e.poly_id, e.poly_id AS route_poly,
                   e.poly_id AS pid
            FROM pts p JOIN read_parquet('{edges}') e
              ON ((e.y1 > p.lat) <> (e.y2 > p.lat))
             AND (p.lon < e.x1 + (p.lat - e.y1) * (e.x2 - e.x1)
                          / (e.y2 - e.y1))
            GROUP BY p.image_id, e.poly_id
            HAVING count(*) % 2 = 1
        )
        SELECT poly_id AS route_id,
               CAST(count(DISTINCT image_id) AS BIGINT) AS n_tiles
        FROM par GROUP BY 1
    """



def q_mirror_symmetry_images(sf_dir: str):
    """Horizontal mirror-symmetry score for the first 1024 images:
    the exact integer Σ|gray(x) − gray(w−1−x)| over the left half —
    zero means a perfectly symmetric frame, the cheap aesthetic /
    synthetic-artifact flag. One vectorized flip-diff per (w, h)
    group. Python-int replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class MirrorStage:
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
            out_id, out_s = [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                half = wi // 2
                asym = np.abs(gray[:, :, :half]
                              - gray[:, :, ::-1][:, :, :half]) \
                    .sum(axis=(1, 2)).astype(np.int64)
                out_id.append(ids[slots])
                out_s.append(asym)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "asym": pa.array(np.concatenate(out_s))})

    return ds.map_batches(MirrorStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["mirror_symmetry_images"] = q_mirror_symmetry_images



def _mirror_sidecar(img: str, n: int = 1024) -> str:
    """Python-int replay for mirror_symmetry_images. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_mirror_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        asym = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                total = 0
                for y in range(hi):
                    for x in range(wi // 2):
                        a = (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        xx = wi - 1 - x
                        b2 = (int(px[j, y, xx, 0])
                              + int(px[j, y, xx, 1])
                              + int(px[j, y, xx, 2])) // 3
                        total += abs(a - b2)
                asym[slot] = total
        out = pa.table({"image_id": ids, "asym": pa.array(asym)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mirror_sql(img: str) -> str:
    return (f"SELECT image_id, asym "
            f"FROM read_parquet('{_mirror_sidecar(img)}')")



def q_pareto_frontier_nations(sf_dir: str):
    """Grouped SKYLINE: per nation, the Pareto-frontier size over
    (account balance cents, order count) — the 'best customers no
    one dominates' census. Order counts come from custkey partials +
    one groupby; balances broadcast sorted; each nation's frontier
    resolves in a 25-group co-partition with the group-max scan
    (dominated iff a strictly-richer customer orders at least as
    much, or an equal-balance customer orders strictly more).
    NOT-EXISTS self-join replay."""
    ck, nat_raw, bal_raw = _dim_np(sf_dir, "customer", "c_custkey",
                                   ["c_nationkey", "c_acctbal"])
    bal = np.floor(bal_raw * 100.0 + 0.5).astype(np.int64)
    nat = nat_raw.astype(np.int64, copy=False)
    dref = ray.put((ck, bal, nat))

    orders = _read(sf_dir, "orders", ["o_custkey"])

    def cnt(t: pa.Table) -> pa.Table:
        g = pa.table({"c": t["o_custkey"]}).group_by("c") \
            .aggregate([([], "count_all")])
        return pa.table({"c": g["c"],
                         "n": g["count_all"].cast(pa.int64())})

    per_cust = (orders.map_batches(cnt, batch_format="pyarrow")
                .groupby("c").sum("n"))

    def attach(t: pa.Table) -> pa.Table:
        ck_, bal_, nat_ = _broadcast(dref)
        c = t["c"].to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(ck_, c),
                       max(len(ck_) - 1, 0))
        hit = (ck_[i] == c) if len(ck_) else np.zeros(len(c), bool)
        return pa.table({
            "nation": pa.array(nat_[i[hit]]),
            "bal": pa.array(bal_[i[hit]]),
            "n": pc.array_filter(t["sum(n)"], pa.array(hit))})

    def frontier(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"nation": pd.Series(dtype=np.int64),
                 "n_customers": pd.Series(dtype=np.int64),
                 "n_frontier": pd.Series(dtype=np.int64)})
        nation = int(df["nation"].iloc[0])
        b = df["bal"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        o = np.lexsort((-n, -b))
        b, n = b[o], n[o]
        prev_max = -1
        n_front = 0
        i = 0
        while i < len(b):
            j = i
            while j < len(b) and b[j] == b[i]:
                j += 1
            gmax = int(n[i:j].max())
            if gmax > prev_max:
                n_front += int((n[i:j] == gmax).sum())
                prev_max = gmax
            i = j
        return pd.DataFrame({"nation": [nation],
                             "n_customers": [len(b)],
                             "n_frontier": [n_front]})

    out = (per_cust.map_batches(attach, batch_format="pyarrow")
           .groupby("nation").map_groups(frontier,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow"))
    return out



QUERIES["pareto_frontier_nations"] = q_pareto_frontier_nations

ORACLE_SQL["pareto_frontier_nations"] = """
        WITH pts AS (SELECT cu.c_nationkey AS nation,
                            CAST(floor(cu.c_acctbal * 100.0 + 0.5)
                                 AS BIGINT) AS bal,
                            count(*) AS n
                     FROM orders o
                     JOIN customer cu ON cu.c_custkey = o.o_custkey
                     GROUP BY 1, cu.c_custkey,
                              floor(cu.c_acctbal * 100.0 + 0.5))
        SELECT CAST(p.nation AS BIGINT) AS nation,
               count(*) AS n_customers,
               CAST(count(*) FILTER (NOT EXISTS (
                   SELECT 1 FROM pts q
                   WHERE q.nation = p.nation
                     AND q.bal >= p.bal AND q.n >= p.n
                     AND (q.bal > p.bal OR q.n > p.n)))
                    AS BIGINT) AS n_frontier
        FROM pts p GROUP BY 1
    """



def q_dow_detrended_parts(sf_dir: str):
    """Seasonal decomposition, integer-exact: detrend the daily
    revenue-dollars series with a centered 7-day window (residual
    r_t = 7·c_t − Σ_{|k|≤3} c_{t+k}, absent days zero) and emit the
    day-of-week residual parts Σr and Σr² over interior days (dollar lattice keeps Σr² inside int64) — the
    weekday effect AFTER removing the weekly trend, no float ever
    forms. Day-cardinality partials + an O(days) epilogue.
    Day-of-week uses the 1970-01-01=Thursday epoch convention,
    mirrored in SQL via (day + 4) % 7."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        d = pc.divide(t["o_orderdate"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        dollars = pc.floor(pc.add(t["o_totalprice"],
                                   pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"day": d, "c": dollars}).group_by("day") \
            .aggregate([("c", "sum")])
        return pa.table({"day": g["day"], "c": g["c_sum"]})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("day").sum("c")).take_all()
    if not rows:
        return pd.DataFrame({"dow": pd.Series(dtype=np.int64),
                             "n_days": pd.Series(dtype=np.int64),
                             "sum_r": pd.Series(dtype=np.int64),
                             "sum_r2": pd.Series(dtype=np.int64)})
    days = {r["day"]: r["sum(c)"] for r in rows}
    lo, hi = min(days), max(days)
    series = [days.get(d, 0) for d in range(lo, hi + 1)]
    acc: dict[int, list[int]] = {}
    for t in range(3, len(series) - 3):
        trend = sum(series[t - 3:t + 4])
        r = 7 * series[t] - trend
        dow = (lo + t + 4) % 7  # 1970-01-01 was a Thursday
        st = acc.setdefault(dow, [0, 0, 0])
        st[0] += 1
        st[1] += r
        st[2] += r * r
    return pd.DataFrame(sorted(
        ({"dow": k, "n_days": v[0], "sum_r": v[1], "sum_r2": v[2]}
         for k, v in acc.items()), key=lambda x: x["dow"]))



QUERIES["dow_detrended_parts"] = q_dow_detrended_parts

ORACLE_SQL["dow_detrended_parts"] = """
        WITH d AS (SELECT CAST(epoch_us(o_orderdate) // 86400000000
                       AS BIGINT) AS day,
                          SUM(CAST(floor(o_totalprice + 0.5)
                                   AS BIGINT)) AS c
                   FROM orders GROUP BY 1),
        b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM d),
        idx AS (SELECT unnest(range(0, CAST((SELECT hi - lo + 1 FROM b)
                    AS BIGINT))) AS i),
        s0 AS (SELECT i.i, COALESCE(d.c, 0) AS c
               FROM idx i LEFT JOIN d
                 ON d.day = i.i + (SELECT lo FROM b)),
        w AS (SELECT i, c,
                     SUM(c) OVER (ORDER BY i
                                  ROWS BETWEEN 3 PRECEDING
                                  AND 3 FOLLOWING) AS trend,
                     COUNT(*) OVER (ORDER BY i
                                    ROWS BETWEEN 3 PRECEDING
                                    AND 3 FOLLOWING) AS nw
              FROM s0),
        r AS (SELECT ((SELECT lo FROM b) + i + 4) % 7 AS dow,
                     7 * c - trend AS res
              FROM w WHERE nw = 7)
        SELECT CAST(dow AS BIGINT) AS dow, count(*) AS n_days,
               CAST(SUM(res) AS BIGINT) AS sum_r,
               CAST(SUM(res * res) AS BIGINT) AS sum_r2
        FROM r GROUP BY 1
    """



def q_video_flicker_parts(sf_dir: str):
    """Temporal-noise (flicker) parts per clip: the exact integers
    behind per-pixel variance across frames — a = Σ_{t,px} x²,
    b = Σ_px (Σ_t x)², so flicker energy = F·a − b. One stacked
    reduction per payload group (ops/video decode contract). Python-
    int replay sidecar."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def parts(t: pa.Table) -> pa.Table:
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
        out_id, out_a, out_b, out_f = [], [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h * w * 3) for i in slots]) \
                .astype(np.int64)
            a = (clips * clips).sum(axis=(1, 2))
            psum = clips.sum(axis=1)  # per-pixel across frames
            b2 = (psum * psum).sum(axis=1)
            out_id.append(ids[slots])
            out_a.append(a)
            out_b.append(b2)
            out_f.append(np.full(len(slots), f, np.int64))
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "sum_sq": pa.array(np.concatenate(out_a)),
            "sq_sum": pa.array(np.concatenate(out_b)),
            "n_frames": pa.array(np.concatenate(out_f))})

    return ds.map_batches(parts, batch_format="pyarrow",
                          batch_size=32)



QUERIES["video_flicker_parts"] = q_video_flicker_parts



def _video_flicker_sidecar(vid: str) -> str:
    """Python-int replay for video_flicker_parts. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videoflicker_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
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
            a = sum(v * v for fr in frames for v in fr)
            npx = len(frames[0])
            b2 = 0
            for px in range(npx):
                s = sum(frames[f][px] for f in range(nf))
                b2 += s * s
            rows.append({"clip_id": cid, "sum_sq": a, "sq_sum": b2,
                         "n_frames": nf})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_flicker_sql(vid: str) -> str:
    return (f"SELECT clip_id, sum_sq, sq_sum, n_frames "
            f"FROM read_parquet('{_video_flicker_sidecar(vid)}')")



def q_near_simultaneous_pairs(sf_dir: str):
    """Temporal band SELF-join: per unordered event-type pair, how
    many same-user event pairs landed within 60 seconds of each other
    — the multi-device / bot-burst signature. One user co-partition;
    each bucket sorts by (ts, event_id) once, finds every 60-second
    window end by searchsorted, and resolves all five types' counts
    from per-type prefix sums — no pair row ever materializes. The
    (ts, event_id) order is the pair-once discipline, mirrored in the
    SQL replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts",
                                  "event_type"])
    W = 60_000_000  # 60 s in µs

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"type_a": pd.Series(dtype=object),
                              "type_b": pd.Series(dtype=object),
                              "n_pairs": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        et = df["event_type"].to_numpy()
        types, tcode = np.unique(et, return_inverse=True)
        o = np.lexsort((e, ts, u))
        u, ts, tcode = u[o], ts[o], tcode[o]
        k = len(types)
        # composite (user-segment << 48) + relative-ts key: sorted
        # ascending, and windows can never cross users because the
        # segment offset dwarfs any in-bucket time range (asserted)
        seg_of = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        rel = ts - ts.min()
        assert rel.max(initial=0) < (1 << 48) - W, "ts-range contract"
        comp = seg_of * (1 << 48) + rel
        P = np.zeros((len(u) + 1, k), np.int64)
        P[1:] = np.eye(k, dtype=np.int64)[tcode].cumsum(axis=0)
        hi = np.searchsorted(comp, comp + W, side="right")
        cnt = np.zeros((k, k), np.int64)
        for b in range(k):
            win = P[hi, b] - P[np.arange(len(u)) + 1, b]
            np.add.at(cnt[:, b], tcode, win)
        rows = []
        for a in range(k):
            for b in range(k):
                lo_t, hi_t = sorted((types[a], types[b]))
                if cnt[a, b]:
                    rows.append((lo_t, hi_t, int(cnt[a, b])))
        if not rows:
            return empty
        g = pd.DataFrame(rows, columns=["type_a", "type_b",
                                        "n_pairs"]) \
            .groupby(["type_a", "type_b"], as_index=False).sum()
        return g

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby(["type_a", "type_b"]).sum("n_pairs"))
    return _rename(out, ["type_a", "type_b", "n_pairs"])



QUERIES["near_simultaneous_pairs"] = q_near_simultaneous_pairs

ORACLE_SQL["near_simultaneous_pairs"] = """
        SELECT LEAST(e1.event_type, e2.event_type) AS type_a,
               GREATEST(e1.event_type, e2.event_type) AS type_b,
               count(*) AS n_pairs
        FROM events e1 JOIN events e2
          ON e2.user_id = e1.user_id
         AND (e2.ts > e1.ts
              OR (e2.ts = e1.ts AND e2.event_id > e1.event_id))
         AND epoch_us(e2.ts) - epoch_us(e1.ts) <= 60000000
        GROUP BY 1, 2
    """



def q_reorder_after_return(sf_dir: str):
    """Post-return behavior: of the customers who ever had a returned
    lineitem, how many ordered AGAIN strictly after their first
    return shipment — the churn-after-defect probe. Chain: R-flagged
    lineitems ⋈ orders (bucketed, orderkey) → per-customer MIN ship
    date → orders ⋈ that (bucketed, custkey) → per-customer later
    counts → three global counters from customer-cardinality
    partials. Both joins are fact-scale co-partitions at 100 TB."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_shipdate"]) \
        .map_batches(lambda t: t.filter(pc.equal(
            t["l_returnflag"], pa.scalar("R")))
            .select(["l_orderkey", "l_shipdate"]),
            batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    j1 = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                       n_buckets=16)

    def min_part(t: pa.Table) -> pa.Table:
        g = pa.table({"c": t["o_custkey"],
                      "md": t["l_shipdate"].cast(pa.int64())}) \
            .group_by("c").aggregate([("md", "min")])
        return pa.table({"c": g["c"], "md": g["md_min"]})

    first_ret = (j1.map_batches(min_part, batch_format="pyarrow")
                 .groupby("c").min("md"))
    first_ret = _rename(first_ret, ["c", "md"]).materialize()

    j2 = bucketed_join(orders, first_ret, "o_custkey", "c",
                       n_buckets=16)

    def later_part(t: pa.Table) -> pa.Table:
        later = pc.greater(t["o_orderdate"].cast(pa.int64()),
                           t["md"]).cast(pa.int64())
        g = pa.table({"c": t["o_custkey"], "lat": later}) \
            .group_by("c").aggregate([("lat", "sum")])
        return pa.table({"c": g["c"], "n_later": g["lat_sum"]})

    per_cust = (j2.map_batches(later_part, batch_format="pyarrow")
                .groupby("c").sum("n_later"))

    def tally(t: pa.Table) -> pa.Table:
        nl = t["sum(n_later)"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_ret_customers": pa.array([len(nl)], pa.int64()),
            "n_reordered": pa.array([int((nl > 0).sum())], pa.int64()),
            "n_later_orders": pa.array([int(nl.sum())], pa.int64())})

    parts = per_cust.map_batches(tally,
                                 batch_format="pyarrow").take_all()
    return pd.DataFrame({
        "n_ret_customers": [sum(r["n_ret_customers"] for r in parts)],
        "n_reordered": [sum(r["n_reordered"] for r in parts)],
        "n_later_orders": [sum(r["n_later_orders"] for r in parts)]})



QUERIES["reorder_after_return"] = q_reorder_after_return

ORACLE_SQL["reorder_after_return"] = """
        WITH r AS (SELECT o.o_custkey AS c, MIN(l.l_shipdate) AS md
                   FROM lineitem l
                   JOIN orders o ON o.o_orderkey = l.l_orderkey
                   WHERE l.l_returnflag = 'R' GROUP BY 1),
        j AS (SELECT r.c,
                     COUNT(*) FILTER (o.o_orderdate > r.md) AS n_later
              FROM r JOIN orders o ON o.o_custkey = r.c
              GROUP BY 1)
        SELECT count(*) AS n_ret_customers,
               CAST(count(*) FILTER (n_later > 0) AS BIGINT)
                   AS n_reordered,
               CAST(SUM(n_later) AS BIGINT) AS n_later_orders
        FROM j
    """



def q_early_breadth_users(sf_dir: str):
    """Early-behavior breadth: for every user, how many DISTINCT
    event types appear in their FIRST five events ((ts, event_id)
    order) — the onboarding-diversity histogram. One user
    co-partition, one lexsort; the first-5 slice and the per-user
    distinct count are both segment algebra."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"breadth": pd.Series(dtype=np.int64),
                              "n_users": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        _, tcode = np.unique(df["event_type"].to_numpy(),
                             return_inverse=True)
        o = np.lexsort((e, ts, u))
        u, tcode = u[o], tcode[o]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        run = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        offset = np.arange(len(u)) - starts[run]
        keep = offset < 5
        ku, kt = run[keep], tcode[keep]
        # distinct types per user among kept rows
        pair = ku * 8 + kt  # ≤5 event types
        up = np.unique(pair)
        breadth = np.bincount(up // 8).astype(np.int64)
        breadth = breadth[breadth > 0]
        g = pd.DataFrame({"breadth": breadth}) \
            .groupby("breadth", as_index=False).size()
        return g.rename(columns={"size": "n_users"})

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("breadth").sum("n_users"))
    return _rename(out, ["breadth", "n_users"])



QUERIES["early_breadth_users"] = q_early_breadth_users

ORACLE_SQL["early_breadth_users"] = """
        WITH r AS (SELECT user_id, event_type,
                          row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn
                   FROM events),
        b AS (SELECT user_id,
                     CAST(COUNT(DISTINCT event_type) AS BIGINT)
                         AS breadth
              FROM r WHERE rn <= 5 GROUP BY 1)
        SELECT breadth, count(*) AS n_users FROM b GROUP BY 1
    """



def q_nation_quartile_bands(sf_dir: str):
    """Quantile-band ASSIGN join: each order lands in its own
    nation's revenue quartile band — boundaries are the exact cents
    values at 0-based ranks (n−1)·q//4 (q = 1..3) computed where the
    nation lives, broadcast back, and band = #boundaries strictly
    below the order's cents (ties stay in the lower band). Two
    scans: one nation co-partition for boundaries, one stateless
    banding pass with 25×4 partials."""
    from battery.ops.relational import _with_bucket

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    cn = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    dref = ray.put((ck, cn))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def with_nation(t: pa.Table) -> pa.Table:
        ck_, cn_ = _broadcast(dref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        i = np.minimum(np.searchsorted(ck_, c),
                       max(len(ck_) - 1, 0))
        hit = (ck_[i] == c) if len(ck_) else np.zeros(len(c), bool)
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({
            "nation": pa.array(cn_[i[hit]]),
            "cents": pc.array_filter(cents, pa.array(hit))})

    tagged = orders.map_batches(with_nation,
                                batch_format="pyarrow").materialize()

    def bounds(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"nation": pd.Series(dtype=np.int64),
                                 "b1": pd.Series(dtype=np.int64),
                                 "b2": pd.Series(dtype=np.int64),
                                 "b3": pd.Series(dtype=np.int64)})
        v = np.sort(df["cents"].to_numpy(np.int64))
        n = len(v)
        return pd.DataFrame({
            "nation": [int(df["nation"].iloc[0])],
            "b1": [int(v[(n - 1) * 1 // 4])],
            "b2": [int(v[(n - 1) * 2 // 4])],
            "b3": [int(v[(n - 1) * 3 // 4])]})

    brows = tagged.groupby("nation").map_groups(
        bounds, batch_format="pandas").take_all()
    nats = np.array(sorted(r["nation"] for r in brows), np.int64)
    byn = {r["nation"]: r for r in brows}
    B = np.array([[byn[k]["b1"], byn[k]["b2"], byn[k]["b3"]]
                  for k in nats], np.int64)
    bref = ray.put((nats, B))

    def band(t: pa.Table) -> pa.Table:
        nats_, B_ = _broadcast(bref)
        nat = t["nation"].to_numpy(zero_copy_only=False)
        v = t["cents"].to_numpy(zero_copy_only=False)
        i = np.searchsorted(nats_, nat)
        bd = (v > B_[i, 0]).astype(np.int64) \
            + (v > B_[i, 1]) + (v > B_[i, 2])
        g = pa.table({"nation": pa.array(nat), "band": pa.array(bd),
                      "cents": pa.array(v)}) \
            .group_by(["nation", "band"]).aggregate(
                [([], "count_all"), ("cents", "sum")])
        return pa.table({"nation": g["nation"], "band": g["band"],
                         "n": g["count_all"].cast(pa.int64()),
                         "sum_cents": g["cents_sum"]})

    out = (tagged.map_batches(band, batch_format="pyarrow")
           .groupby(["nation", "band"]).sum(["n", "sum_cents"]))
    return _rename(out, ["nation", "band", "n", "sum_cents"])



QUERIES["nation_quartile_bands"] = q_nation_quartile_bands

ORACLE_SQL["nation_quartile_bands"] = """
        WITH o AS (SELECT cu.c_nationkey AS nation,
                          CAST(floor(o.o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders o
                   JOIN customer cu ON cu.c_custkey = o.o_custkey),
        r AS (SELECT nation, cents,
                     row_number() OVER (PARTITION BY nation
                                        ORDER BY cents) AS rn,
                     COUNT(*) OVER (PARTITION BY nation) AS n
              FROM o),
        b AS (SELECT nation,
                     MAX(cents) FILTER (rn - 1 = (n - 1) * 1 // 4)
                         AS b1,
                     MAX(cents) FILTER (rn - 1 = (n - 1) * 2 // 4)
                         AS b2,
                     MAX(cents) FILTER (rn - 1 = (n - 1) * 3 // 4)
                         AS b3
              FROM r GROUP BY 1)
        SELECT CAST(o.nation AS BIGINT) AS nation,
               CAST((o.cents > b.b1)::BIGINT + (o.cents > b.b2)::BIGINT
                    + (o.cents > b.b3)::BIGINT AS BIGINT) AS band,
               count(*) AS n,
               CAST(SUM(o.cents) AS BIGINT) AS sum_cents
        FROM o JOIN b USING (nation)
        GROUP BY 1, 2
    """



def q_type_run_lengths(sf_dir: str):
    """Gaps-and-islands on the event stream: per event type, how many
    maximal same-type RUNS each user produced, total events and the
    longest run — repetitive-behavior fingerprinting. One user
    co-partition; run boundaries, lengths and all three per-type
    reductions are segment algebra after a single lexsort. Classic
    rn−rt island replay in SQL."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts",
                                  "event_type"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"event_type": pd.Series(dtype=object),
                              "n_runs": pd.Series(dtype=np.int64),
                              "n_events": pd.Series(dtype=np.int64),
                              "max_run": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        et = df["event_type"].to_numpy()
        types, tcode = np.unique(et, return_inverse=True)
        o = np.lexsort((e, ts, u))
        u, tcode = u[o], tcode[o]
        brk = np.r_[True, (u[1:] != u[:-1])
                    | (tcode[1:] != tcode[:-1])]
        starts = np.flatnonzero(brk)
        lens = np.diff(np.r_[starts, len(u)])
        rtype = tcode[starts]
        k = len(types)
        n_runs = np.bincount(rtype, minlength=k).astype(np.int64)
        n_ev = np.bincount(rtype, weights=lens,
                           minlength=k).astype(np.int64)
        mx = np.zeros(k, np.int64)
        np.maximum.at(mx, rtype, lens)
        return pd.DataFrame({"event_type": types, "n_runs": n_runs,
                             "n_events": n_ev, "max_run": mx})

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(rd.aggregate.Sum("n_runs"),
                      rd.aggregate.Sum("n_events"),
                      rd.aggregate.Max("max_run")))
    return _rename(out, ["event_type", "n_runs", "n_events",
                         "max_run"])



QUERIES["type_run_lengths"] = q_type_run_lengths

ORACLE_SQL["type_run_lengths"] = """
        WITH r AS (SELECT user_id, event_type,
                          row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn,
                          row_number() OVER (
                              PARTITION BY user_id, event_type
                              ORDER BY ts, event_id) AS rt
                   FROM events),
        runs AS (SELECT event_type, count(*) AS run_len
                 FROM r GROUP BY user_id, event_type, rn - rt)
        SELECT event_type, count(*) AS n_runs,
               CAST(SUM(run_len) AS BIGINT) AS n_events,
               CAST(MAX(run_len) AS BIGINT) AS max_run
        FROM runs GROUP BY 1
    """



def q_quadkey_occupancy(sf_dir: str):
    """Spatial-index fill audit: for every occupied res-11 parent
    cell, how many of its four res-12 Morton children hold at least
    one tile — the 1..4 occupancy histogram that predicts pyramid
    compressibility. Child dedup partials → parent bit algebra
    (payload >> 2, res tag rewritten) → two bounded aggregations.
    SQL replays the full Morton encode plus the same bit ops."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])
    PAYLOAD = (1 << 58) - 1

    def child(t: pa.Table) -> pa.Table:
        c = cells.encode(t["lon"].to_numpy(), t["lat"].to_numpy(),
                         12).view(np.int64)
        g = pa.table({"cell": pa.array(c)}).group_by("cell") \
            .aggregate([])
        return g

    kids = (ds.map_batches(child, batch_format="pyarrow")
            .groupby("cell").count())

    def parent(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy(zero_copy_only=False)
        par = ((c & PAYLOAD) >> 2) + (11 << 58)
        g = pa.table({"parent": pa.array(par)}).group_by("parent") \
            .aggregate([([], "count_all")])
        return pa.table({"parent": g["parent"],
                         "k": g["count_all"].cast(pa.int64())})

    occ = (kids.map_batches(parent, batch_format="pyarrow")
           .groupby("parent").sum("k"))

    def hist(t: pa.Table) -> pa.Table:
        k = t["sum(k)"]
        g = pa.table({"occupancy": k}).group_by("occupancy") \
            .aggregate([([], "count_all")])
        return pa.table({"occupancy": g["occupancy"],
                         "n_parents": g["count_all"]
                         .cast(pa.int64())})

    out = (occ.map_batches(hist, batch_format="pyarrow")
           .groupby("occupancy").sum("n_parents"))
    return _rename(out, ["occupancy", "n_parents"])



QUERIES["quadkey_occupancy"] = q_quadkey_occupancy



def _quadkey_occupancy_sql(sf_dir: str) -> str:
    img = _image_dir_for(sf_dir)
    cell12 = _sql_cell("lon", "lat", 12)
    return f"""
        WITH kids AS (SELECT DISTINCT {cell12} AS cell
                      FROM read_parquet('{img}/part-*.parquet')),
        par AS (SELECT ((cell & {(1 << 58) - 1}) >> 2)
                       + {11 << 58} AS parent,
                       count(*) AS k
                FROM kids GROUP BY 1)
        SELECT CAST(k AS BIGINT) AS occupancy,
               count(*) AS n_parents
        FROM par GROUP BY 1
    """



def q_simhash_bit_bias(sf_dir: str):
    """Hash-quality audit: per bit position 0..63, how many document
    simhashes have the bit SET — a biased position flags a weak
    feature mix. The engine folds its own vectorized simhash batches
    with 64 shift-and-mask reductions (64-row partials); the oracle
    replays the same bit extraction over the independent scalar
    simhash sidecar."""
    from battery.ops.dedup import simhash_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow", zero_copy_batch=True)

    def bits(t: pa.Table) -> pa.Table:
        h = t["simhash"].to_numpy(zero_copy_only=False)
        ns = np.array([int(((h >> b) & 1).sum()) for b in range(64)],
                      np.int64)
        return pa.table({"bit": pa.array(np.arange(64,
                                                   dtype=np.int64)),
                         "n_set": pa.array(ns)})

    out = (ds.map_batches(bits, batch_format="pyarrow")
           .groupby("bit").sum("n_set"))
    return _rename(out, ["bit", "n_set"])



QUERIES["simhash_bit_bias"] = q_simhash_bit_bias



def _simhash_bit_bias_sql(sf_dir: str) -> str:
    return f"""
        WITH s AS (SELECT simhash
                   FROM read_parquet('{_simhash_sidecar(sf_dir)}')),
        b AS (SELECT unnest(range(0, 64)) AS bit)
        SELECT CAST(b.bit AS BIGINT) AS bit,
               CAST(SUM((s.simhash >> b.bit) & 1) AS BIGINT) AS n_set
        FROM b, s GROUP BY 1
    """



def q_coverage_holes_cells(sf_dir: str):
    """Network coverage-fringe map: tiles farther than 500 m from
    EVERY route centerline, rolled up per res-12 cell — where the
    network thins out. Per batch: the same clamped-projection meter-frame
    distance kernel as kNN against the broadcast route parts (min
    across parts = min across routes, sqrt is monotone so the order
    of sqrt/min matches the replay bit-for-bit), threshold, Morton
    encode, cell partials. Oracle: the segments-sidecar d² replay
    with a global per-image min."""
    from geotile.geom import cells
    from geotile.geom.buffer import meter_frame
    from geotile.geom.pip import points_to_polyline_distance
    from geotile.ops.join import (_ANCHOR_LAT, _ANCHOR_LON,
                                  route_polylines)
    from geotile.ops.tiles import read_image_table

    mx, my = meter_frame(_ANCHOR_LAT)
    lines = route_polylines(_fixture_ctx())
    parts = [p for rid in sorted(lines) for p in lines[rid]]
    pref = ray.put(parts)

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def holes(t: pa.Table) -> pa.Table:
        parts_ = _broadcast(pref)
        lon = t["lon"].to_numpy()
        lat = t["lat"].to_numpy()
        px = (lon - _ANCHOR_LON) * mx
        py = (lat - _ANCHOR_LAT) * my
        best = np.full(len(lon), np.inf)
        for part in parts_:
            m = np.column_stack([(part[:, 0] - _ANCHOR_LON) * mx,
                                 (part[:, 1] - _ANCHOR_LAT) * my])
            best = np.minimum(best,
                              points_to_polyline_distance(px, py, m))
        hole = best > 500.0
        c = cells.encode(lon[hole], lat[hole], 12).view(np.int64)
        g = pa.table({"cell": pa.array(c)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n_holes": g["count_all"].cast(pa.int64())})

    out = (ds.map_batches(holes, batch_format="pyarrow")
           .groupby("cell").sum("n_holes"))
    return _rename(out, ["cell", "n_holes"])



QUERIES["coverage_holes_cells"] = q_coverage_holes_cells



def _coverage_holes_sql(sf_dir: str) -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON

    img = _image_dir_for(sf_dir)
    segs = _oracle_segments_path()
    mx, my = meter_frame(_ANCHOR_LAT)
    cell12 = _sql_cell("p.lon", "p.lat", 12)
    return f"""
        WITH p AS (SELECT image_id, lon, lat,
                          (lon - ({_ANCHOR_LON!r})) * {mx!r} AS px,
                          (lat - ({_ANCHOR_LAT!r})) * {my!r} AS py
                   FROM read_parquet('{img}/part-*.parquet')),
        ps AS (SELECT p.image_id, p.px, p.py, s.ax, s.ay, s.dx, s.dy,
                      greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) AS t
               FROM p CROSS JOIN read_parquet('{segs}') s),
        d AS (SELECT image_id,
                     min(((px - ax) - t * dx) * ((px - ax) - t * dx)
                       + ((py - ay) - t * dy) * ((py - ay) - t * dy))
                         AS d2
              FROM ps GROUP BY 1)
        SELECT {cell12} AS cell, count(*) AS n_holes
        FROM d JOIN p USING (image_id)
        WHERE sqrt(d.d2) > 500.0
        GROUP BY 1
    """



def q_sessions_crossing_midnight(sf_dir: str):
    """Session-boundary audit: of all 30-minute-gap sessions, how
    many span a UTC midnight — the bias a naive daily rollup
    introduces. Stage reuse: ops/relational.sessionize assigns
    session ids where the user lives; per-session day extents and
    the two global counters are bounded partials."""
    from battery.ops.relational import sessionize

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    s = sessionize(ev, key="user_id", ts="ts", gap_s=1800.0)

    def extents(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n_sessions":
                                 pd.Series(dtype=np.int64),
                                 "n_crossing":
                                 pd.Series(dtype=np.int64)})
        d = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64) // 86_400_000_000
        u = df["user_id"].to_numpy(np.int64)
        sid = df["session_idx"].to_numpy(np.int64)
        key = u * (1 << 20) + sid  # sessions/user ≪ 2^20
        o = np.argsort(key, kind="stable")
        key, d = key[o], d[o]
        new = np.r_[True, key[1:] != key[:-1]]
        first = np.flatnonzero(new)
        gid = np.cumsum(new) - 1
        d0 = np.full(len(first), np.iinfo(np.int64).max)
        d1 = np.full(len(first), np.iinfo(np.int64).min)
        np.minimum.at(d0, gid, d)
        np.maximum.at(d1, gid, d)
        return pd.DataFrame({"n_sessions": [len(first)],
                             "n_crossing": [int((d1 > d0).sum())]})

    parts = s.map_batches(extents, batch_format="pandas").take_all()
    return pd.DataFrame({
        "n_sessions": [sum(int(r["n_sessions"]) for r in parts)],
        "n_crossing": [sum(int(r["n_crossing"]) for r in parts)]})



QUERIES["sessions_crossing_midnight"] = q_sessions_crossing_midnight

ORACLE_SQL["sessions_crossing_midnight"] = """
        WITH s AS (SELECT user_id, ts,
                          CASE WHEN epoch_us(ts) - LAG(epoch_us(ts))
                              OVER (PARTITION BY user_id ORDER BY ts)
                              > 1800000000 THEN 1 ELSE 0 END AS brk
                   FROM events),
        x AS (SELECT user_id, ts,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                         ROWS UNBOUNDED PRECEDING) AS sid
              FROM s),
        g AS (SELECT user_id, sid,
                     MIN(epoch_us(ts) // 86400000000) AS d0,
                     MAX(epoch_us(ts) // 86400000000) AS d1
              FROM x GROUP BY 1, 2)
        SELECT count(*) AS n_sessions,
               CAST(count(*) FILTER (d1 > d0) AS BIGINT) AS n_crossing
        FROM g
    """



def q_price_endings_orders(sf_dir: str):
    """Psychological-pricing / data-quality audit: the distribution of
    order totalprice CENT endings (cents mod 100) — synthetic data
    shows uniform noise, scraped catalogs spike at .99. One 100-row
    aggregate from batch partials."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["o_totalprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        ending = pc.subtract(cents, pc.multiply(
            pc.divide(cents, pa.scalar(100, pa.int64())),
            pa.scalar(100, pa.int64())))
        g = pa.table({"ending": ending}).group_by("ending") \
            .aggregate([([], "count_all")])
        return pa.table({"ending": g["ending"],
                         "n": g["count_all"].cast(pa.int64())})

    out = (orders.map_batches(part, batch_format="pyarrow")
           .groupby("ending").sum("n"))
    return _rename(out, ["ending", "n"])



QUERIES["price_endings_orders"] = q_price_endings_orders

ORACLE_SQL["price_endings_orders"] = """
        WITH c AS (SELECT CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders)
        SELECT cents % 100 AS ending, count(*) AS n
        FROM c GROUP BY 1
    """



def q_nearest_route_share(sf_dir: str):
    """Catchment share: how many tiles have each route as their
    NEAREST centerline (kNN rank-0 counts) — the market-share view of
    the corridor. Reuses the exact kNN operator (per-batch partial
    top-k, round-6 distance + route-id tie discipline); the share
    readout is a route-cardinality aggregate. Oracle: the kNN replay
    filtered to rn = 1 and grouped."""
    from geotile.ops.join import knn_routes, route_polylines
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    ctx = _fixture_ctx()
    ds = read_image_table(_image_dir_for(sf_dir), columns=JOIN_COLUMNS)
    nn = knn_routes(ds, route_polylines(ctx), k=1)
    out = (nn.map_batches(lambda t: t.select(["route_id"]),
                          batch_format="pyarrow")
           .groupby("route_id").count())
    return _rename(out, ["route_id", "n_tiles"])



QUERIES["nearest_route_share"] = q_nearest_route_share



def _nearest_route_share_sql(sf_dir: str) -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT, _ANCHOR_LON

    img = _image_dir_for(sf_dir)
    segs = _oracle_segments_path()
    mx, my = meter_frame(_ANCHOR_LAT)
    return f"""
        WITH p AS (SELECT image_id,
                          (lon - ({_ANCHOR_LON!r})) * {mx!r} AS px,
                          (lat - ({_ANCHOR_LAT!r})) * {my!r} AS py
                   FROM read_parquet('{img}/part-*.parquet')),
        ps AS (SELECT p.image_id, s.route_id, p.px, p.py,
                      s.ax, s.ay, s.dx, s.dy,
                      greatest(0.0, least(1.0,
                          ((p.px - s.ax) * s.dx + (p.py - s.ay) * s.dy)
                          * s.inv_l2)) AS t
               FROM p CROSS JOIN read_parquet('{segs}') s),
        d AS (SELECT image_id, route_id,
                     min(((px - ax) - t * dx) * ((px - ax) - t * dx)
                       + ((py - ay) - t * dy) * ((py - ay) - t * dy))
                         AS d2
              FROM ps GROUP BY 1, 2),
        r AS (SELECT image_id, route_id,
                     row_number() OVER (PARTITION BY image_id
                         ORDER BY sqrt(d2), route_id) AS rn
              FROM d)
        SELECT route_id, count(*) AS n_tiles
        FROM r WHERE rn = 1 GROUP BY 1
    """



def q_priority_migration_customers(sf_dir: str):
    """Priority migration matrix: each repeat customer's FIRST order
    priority vs their LAST ((day, orderkey) order) — do buyers
    escalate? One custkey co-partition, two segment-end gathers,
    25-cell partials. Double-ROW_NUMBER replay."""
    from battery.ops.relational import _with_bucket

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate",
                    "o_orderpriority"])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"first_prio": pd.Series(dtype=object),
                              "last_prio": pd.Series(dtype=object),
                              "n_customers":
                                  pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = (df["o_orderdate"].to_numpy().astype("datetime64[us]")
             .astype(np.int64) // 86_400_000_000)
        pr = df["o_orderpriority"].to_numpy()
        o = np.lexsort((k, d, c))
        cc, pp = c[o], pr[o]
        starts = np.flatnonzero(np.r_[True, cc[1:] != cc[:-1]])
        ends = np.r_[starts[1:], len(cc)] - 1
        multi = ends > starts  # repeat customers only
        g = pd.DataFrame({"first_prio": pp[starts[multi]],
                          "last_prio": pp[ends[multi]]}) \
            .groupby(["first_prio", "last_prio"],
                     as_index=False).size()
        return g.rename(columns={"size": "n_customers"})

    out = (_with_bucket(orders, "o_custkey", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby(["first_prio", "last_prio"]).sum("n_customers"))
    return _rename(out, ["first_prio", "last_prio", "n_customers"])



QUERIES["priority_migration_customers"] = q_priority_migration_customers

ORACLE_SQL["priority_migration_customers"] = """
        WITH r AS (SELECT o_custkey AS c, o_orderpriority AS p,
                          row_number() OVER (PARTITION BY o_custkey
                              ORDER BY CAST(epoch_us(o_orderdate)
                                  // 86400000000 AS BIGINT),
                                  o_orderkey) AS rn,
                          row_number() OVER (PARTITION BY o_custkey
                              ORDER BY CAST(epoch_us(o_orderdate)
                                  // 86400000000 AS BIGINT) DESC,
                                  o_orderkey DESC) AS rnd,
                          COUNT(*) OVER (PARTITION BY o_custkey) AS n
                   FROM orders)
        SELECT f.p AS first_prio, l.p AS last_prio,
               count(*) AS n_customers
        FROM r f JOIN r l ON l.c = f.c AND l.rnd = 1
        WHERE f.rn = 1 AND f.n >= 2
        GROUP BY 1, 2
    """



def q_cusum_daily_revenue(sf_dir: str):
    """Change-point detection, integer-exact: the CUSUM excursion of
    daily revenue against the global mean WITHOUT forming the mean —
    E_k = D·P_k − (k+1)·T (D days, P_k the dollar prefix, T the
    total), max |E_k| and its earliest day. Day partials + an
    O(days) epilogue; a regime shift shows as a deep excursion.
    Dollar lattice (cents·days·prefix would court int64 overflow at
    100 TB). Window-SUM replay."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        d = pc.divide(t["o_orderdate"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        dollars = pc.floor(pc.add(t["o_totalprice"],
                                  pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"day": d, "c": dollars}).group_by("day") \
            .aggregate([("c", "sum")])
        return pa.table({"day": g["day"], "c": g["c_sum"]})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("day").sum("c")).take_all()
    if not rows:
        return pd.DataFrame({"max_excursion":
                             pd.Series(dtype=np.int64),
                             "argmax_day": pd.Series(dtype=np.int64)})
    days = {r["day"]: r["sum(c)"] for r in rows}
    lo, hi = min(days), max(days)
    series = [days.get(d, 0) for d in range(lo, hi + 1)]
    D = len(series)
    T = sum(series)
    best, best_day, P = -1, -1, 0
    for k, c in enumerate(series):
        P += c
        e = abs(D * P - (k + 1) * T)
        if e > best:
            best, best_day = e, lo + k
    return pd.DataFrame({"max_excursion": [best],
                         "argmax_day": [best_day]})



QUERIES["cusum_daily_revenue"] = q_cusum_daily_revenue

ORACLE_SQL["cusum_daily_revenue"] = """
        WITH d AS (SELECT CAST(epoch_us(o_orderdate) // 86400000000
                       AS BIGINT) AS day,
                          SUM(CAST(floor(o_totalprice + 0.5)
                                   AS BIGINT)) AS c
                   FROM orders GROUP BY 1),
        b AS (SELECT MIN(day) AS lo, MAX(day) AS hi,
                     CAST(SUM(c) AS BIGINT) AS t FROM d),
        idx AS (SELECT unnest(range(0, CAST((SELECT hi - lo + 1 FROM b)
                    AS BIGINT))) AS i),
        s0 AS (SELECT i.i, COALESCE(d.c, 0) AS c
               FROM idx i LEFT JOIN d
                 ON d.day = i.i + (SELECT lo FROM b)),
        e AS (SELECT i,
                     abs((SELECT hi - lo + 1 FROM b)
                         * SUM(c) OVER (ORDER BY i
                             ROWS UNBOUNDED PRECEDING)
                         - (i + 1) * (SELECT t FROM b)) AS exc
              FROM s0)
        SELECT CAST(MAX(exc) AS BIGINT) AS max_excursion,
               CAST((SELECT lo FROM b)
                    + MIN(i) FILTER (exc = (SELECT MAX(exc) FROM e))
                    AS BIGINT) AS argmax_day
        FROM e
    """



def q_repetitiveness_docs(sf_dir: str):
    """Template/boilerplate detector: per document the ratio of
    DISTINCT adjacent token pairs to total pairs, bucketed to deciles
    (distinct·10 // total, single-token docs land in bucket 10) —
    low buckets are copy-paste templates. Vectorized: one flatten
    builds every doc's pair strings with doc-offset prefixes, one
    np.unique dedups per doc; doc-cardinality partials."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t["text"], " ")
        lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = np.asarray(pc.list_flatten(lists).to_pylist(),
                          dtype=object)
        doc_of = np.repeat(np.arange(len(lens)), lens)
        # adjacent pairs within each doc: positions where the next
        # token belongs to the same doc
        ok = np.flatnonzero(doc_of[1:] == doc_of[:-1]) \
            if len(doc_of) > 1 else np.array([], np.int64)
        n_pairs = np.bincount(doc_of[ok], minlength=len(lens)) \
            .astype(np.int64)
        if len(ok):
            pair = np.char.add(
                np.char.add(doc_of[ok].astype(str), "\x1f"),
                np.char.add(np.char.add(
                    flat[ok].astype(str), "\x1f"),
                    flat[ok + 1].astype(str)))
            upair = np.unique(pair)
            udoc = np.array([int(s.split("\x1f", 1)[0])
                             for s in upair.tolist()], np.int64)
            n_dist = np.bincount(udoc, minlength=len(lens)) \
                .astype(np.int64)
        else:
            n_dist = np.zeros(len(lens), np.int64)
        bucket = np.where(n_pairs > 0,
                          n_dist * 10 // np.maximum(n_pairs, 1), 10)
        g = pa.table({"bucket": pa.array(bucket.astype(np.int64))}) \
            .group_by("bucket").aggregate([([], "count_all")])
        return pa.table({"bucket": g["bucket"],
                         "n_docs": g["count_all"].cast(pa.int64())})

    out = (docs.map_batches(part, batch_format="pyarrow")
           .groupby("bucket").sum("n_docs"))
    return _rename(out, ["bucket", "n_docs"])



QUERIES["repetitiveness_docs"] = q_repetitiveness_docs

ORACLE_SQL["repetitiveness_docs"] = """
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS toks
                   FROM documents),
        p AS (SELECT doc_id,
                     toks[CAST(i AS BIGINT)] || chr(31)
                         || toks[CAST(i AS BIGINT) + 1] AS pair
              FROM w, unnest(range(1, len(toks))) AS u(i)),
        s AS (SELECT doc_id, count(*) AS n_pairs,
                     CAST(COUNT(DISTINCT pair) AS BIGINT) AS n_dist
              FROM p GROUP BY 1),
        all_docs AS (SELECT w.doc_id,
                            COALESCE(s.n_pairs, 0) AS n_pairs,
                            COALESCE(s.n_dist, 0) AS n_dist
                     FROM w LEFT JOIN s USING (doc_id))
        SELECT CASE WHEN n_pairs > 0
                    THEN n_dist * 10 // GREATEST(n_pairs, 1)
                    ELSE 10 END AS bucket,
               count(*) AS n_docs
        FROM all_docs GROUP BY 1
    """



def q_burst_window_max_users(sf_dir: str):
    """Bot-likeness: each user's MAXIMUM event count inside any
    60-second window anchored at one of their events, as a histogram
    — humans cap at a handful, scripts do not. One user co-partition;
    the composite (segment << 48) + relative-ts key lets a single
    searchsorted resolve every window, window counts are index
    algebra, per-user maxima are segment maxima."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    W = 60_000_000

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"max_burst": pd.Series(dtype=np.int64),
                              "n_users": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        e = df["event_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        o = np.lexsort((e, ts, u))
        u, ts = u[o], ts[o]
        seg_of = np.cumsum(np.r_[True, u[1:] != u[:-1]]) - 1
        rel = ts - ts.min()
        assert rel.max(initial=0) < (1 << 48) - W, "ts-range contract"
        comp = seg_of * (1 << 48) + rel
        # count of events in [t_i, t_i + W) within the user segment
        hi = np.searchsorted(comp, comp + W, side="left")
        win = hi - np.arange(len(u))
        mx = np.zeros(seg_of[-1] + 1, np.int64)
        np.maximum.at(mx, seg_of, win)
        g = pd.DataFrame({"max_burst": mx}) \
            .groupby("max_burst", as_index=False).size()
        return g.rename(columns={"size": "n_users"})

    out = (_with_bucket(ev, "user_id", 32)
           .groupby("bucket").map_groups(per_bucket,
                                         batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("max_burst").sum("n_users"))
    return _rename(out, ["max_burst", "n_users"])



QUERIES["burst_window_max_users"] = q_burst_window_max_users

ORACLE_SQL["burst_window_max_users"] = """
        WITH c AS (SELECT e1.user_id, e1.event_id, count(*) AS w
                   FROM events e1 JOIN events e2
                     ON e2.user_id = e1.user_id
                    AND e2.ts >= e1.ts
                    AND epoch_us(e2.ts) - epoch_us(e1.ts) < 60000000
                   GROUP BY 1, 2),
        m AS (SELECT user_id, CAST(MAX(w) AS BIGINT) AS max_burst
              FROM c GROUP BY 1)
        SELECT max_burst, count(*) AS n_users FROM m GROUP BY 1
    """



def q_weak_edges_dups(sf_dir: str):
    """Weak-link audit on the near-dup graph: edges whose endpoints
    share NO common neighbour (triangle-free links — one borderline
    pair, not a cluster) vs the total. Broadcast CSR adjacency;
    per-edge sorted-array intersection. Oracle: NOT-EXISTS common-
    neighbour replay over the pair list."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    nodes, starts = np.unique(u, return_index=True)
    ends = np.r_[starts[1:], len(u)]
    aref = ray.put((nodes, starts, ends, v))

    ds = rd.from_arrow(pa.table({"a": pa.array(a),
                                 "b": pa.array(b)})).repartition(4)

    def weak(t: pa.Table) -> pa.Table:
        nodes_, starts_, ends_, adj = _broadcast(aref)
        aa = t["a"].to_numpy(zero_copy_only=False)
        bb = t["b"].to_numpy(zero_copy_only=False)
        n_weak = 0
        for x, y in zip(aa.tolist(), bb.tolist()):
            i = np.searchsorted(nodes_, x)
            j = np.searchsorted(nodes_, y)
            nx = adj[starts_[i]:ends_[i]]
            ny = adj[starts_[j]:ends_[j]]
            common = int(np.searchsorted(ny, nx, side="right").sum()
                         - np.searchsorted(ny, nx, side="left").sum())
            # x and y are in each other's lists but never in both
            if common == 0:
                n_weak += 1
        return pa.table({"n_edges": pa.array([len(aa)], pa.int64()),
                         "n_weak": pa.array([n_weak], pa.int64())})

    parts = ds.map_batches(weak, batch_format="pyarrow").take_all()
    return pd.DataFrame({
        "n_edges": [sum(r["n_edges"] for r in parts)],
        "n_weak": [sum(r["n_weak"] for r in parts)]})



QUERIES["weak_edges_dups"] = q_weak_edges_dups



ORACLE_SQL["weak_edges_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs)
        SELECT (SELECT CAST(count(*) AS BIGINT) FROM pairs)
                   AS n_edges,
               (SELECT CAST(count(*) AS BIGINT) FROM pairs p
                WHERE NOT EXISTS (
                    SELECT 1 FROM e x JOIN e y
                      ON y.v = x.v AND y.u = p.b
                    WHERE x.u = p.a)) AS n_weak
    """



def q_mutual_best_pairs(sf_dir: str):
    """Reciprocal best match: (part, supplier) pairs where the
    supplier is the part's top revenue source AND the part is that
    supplier's top revenue part — the mutual-argmax matching used in
    alignment/dedup. One packed (part,supp) revenue aggregate feeds
    TWO strict argmax passes (part co-partition, then supplier
    co-partition of the same pair table); mutual pairs meet in a
    driver set intersection bounded by min(parts, suppliers). Ties
    break to the smaller counterpart key. Double-ROW_NUMBER replay."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            pa.scalar(0.5))).cast(pa.int64())
        packed = pc.add(pc.multiply(t["l_partkey"],
                                    pa.scalar(1 << 20, pa.int64())),
                        t["l_suppkey"])
        g = pa.table({"pk": packed, "c": cents}).group_by("pk") \
            .aggregate([("c", "sum")])
        return pa.table({"pk": g["pk"], "cents": g["c_sum"]})

    pairs = (li.map_batches(partial, batch_format="pyarrow")
             .groupby("pk").sum("cents"))
    pairs = _rename(pairs, ["pk", "cents"]).map_batches(
        lambda t: pa.table({
            "part": pc.shift_right(t["pk"], pa.scalar(20, pa.int64())),
            "supp": pc.bit_wise_and(t["pk"],
                                    pa.scalar((1 << 20) - 1,
                                              pa.int64())),
            "cents": t["cents"]}),
        batch_format="pyarrow").materialize()

    def argmax_by(key: str, other: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame({key: pd.Series(dtype=np.int64),
                                     other: pd.Series(dtype=np.int64)})
            k = df[key].to_numpy(np.int64)
            o_ = df[other].to_numpy(np.int64)
            c = df["cents"].to_numpy(np.int64)
            # best = max cents, tie -> smaller counterpart key
            order = np.lexsort((o_, -c, k))
            kk = k[order]
            first = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
            return pd.DataFrame({key: kk[first],
                                 other: o_[order][first]})
        return fn

    best_supp = (_with_bucket(pairs, "part", 16)
                 .groupby("bucket").map_groups(
                     argmax_by("part", "supp"),
                     batch_format="pandas")).take_all()
    best_part = (_with_bucket(pairs, "supp", 16)
                 .groupby("bucket").map_groups(
                     argmax_by("supp", "part"),
                     batch_format="pandas")).take_all()
    bs = {(r["part"], r["supp"]) for r in best_supp}
    bp = {(r["part"], r["supp"]) for r in best_part}
    mutual = sorted(bs & bp)
    return pd.DataFrame({
        "p_partkey": [p for p, _ in mutual],
        "s_suppkey": [s for _, s in mutual]})



QUERIES["mutual_best_pairs"] = q_mutual_best_pairs

ORACLE_SQL["mutual_best_pairs"] = """
        WITH ps AS (SELECT l_partkey AS p, l_suppkey AS s,
                           CAST(SUM(CAST(floor(l_extendedprice * 100.0
                                               + 0.5) AS BIGINT))
                                AS BIGINT) AS c
                    FROM lineitem GROUP BY 1, 2),
        bp AS (SELECT p, s, row_number() OVER (PARTITION BY p
                   ORDER BY c DESC, s) AS rn FROM ps),
        bs AS (SELECT p, s, row_number() OVER (PARTITION BY s
                   ORDER BY c DESC, p) AS rn FROM ps)
        SELECT bp.p AS p_partkey, bp.s AS s_suppkey
        FROM bp JOIN bs ON bs.p = bp.p AND bs.s = bp.s
        WHERE bp.rn = 1 AND bs.rn = 1
    """



def q_cross_source_leakage(sf_dir: str):
    """Contamination audit: NEAR-duplicate documents (MinHash+LSH
    verified pairs, tau = 0.35) whose two sides live in DIFFERENT
    sources, counted per unordered source pair — train/eval leakage's
    most common shape. Stage reuse: the oracle-checked pair operator
    runs unchanged; sources attach via a broadcast sorted id→source
    gather (corpus-dim here; co-partition the pair list against
    documents at 100 TB). LEAST/GREATEST pair-once discipline."""
    from battery.ops.dedup import minhash_lsh_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "source"]).take_all()
    ids = np.array(sorted(r["doc_id"] for r in docs), np.int64)
    byd = {r["doc_id"]: r["source"] for r in docs}
    srcs = np.array([byd[k] for k in ids])
    sref = ray.put((ids, srcs))

    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.35)

    def tag(t: pa.Table) -> pa.Table:
        ids_, srcs_ = _broadcast(sref)
        a = srcs_[np.searchsorted(ids_, t["a"].to_numpy(
            zero_copy_only=False))]
        b = srcs_[np.searchsorted(ids_, t["b"].to_numpy(
            zero_copy_only=False))]
        keep = a != b
        a, b = a[keep], b[keep]
        swap = a > b  # np.minimum has no str ufunc; compare + where
        lo = np.where(swap, b, a)
        hi = np.where(swap, a, b)
        g = pa.table({"source_a": pa.array(lo),
                      "source_b": pa.array(hi)}) \
            .group_by(["source_a", "source_b"]).aggregate(
                [([], "count_all")])
        return pa.table({"source_a": g["source_a"],
                         "source_b": g["source_b"],
                         "n_pairs": g["count_all"].cast(pa.int64())})

    out = (pairs.map_batches(tag, batch_format="pyarrow")
           .groupby(["source_a", "source_b"]).sum("n_pairs"))
    return _rename(out, ["source_a", "source_b", "n_pairs"])



QUERIES["cross_source_leakage"] = q_cross_source_leakage



def _cross_source_leakage_sql(sf_dir: str) -> str:
    return f"""
        SELECT LEAST(da.source, db.source) AS source_a,
               GREATEST(da.source, db.source) AS source_b,
               count(*) AS n_pairs
        FROM read_parquet('{_minhash_pairs_sidecar(sf_dir)}') p
        JOIN documents da ON da.doc_id = p.a
        JOIN documents db ON db.doc_id = p.b
        WHERE da.source <> db.source
        GROUP BY 1, 2
    """



def q_value_ecdf_probes(sf_dir: str):
    """ECDF probes: per event type, how many values fall at or below
    each fixed threshold (1, 10, 100, 250) — the monitoring
    dashboard's cheap distribution fingerprint. type×4 partials, one
    tiny shuffle."""
    ev = _read(sf_dir, "events", ["event_type", "value"])
    PROBES = (1.0, 10.0, 100.0, 250.0)

    def part(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        types, inv = np.unique(et, return_inverse=True)
        cols = {"event_type": pa.array(types),
                "n": pa.array(np.bincount(
                    inv, minlength=len(types)).astype(np.int64))}
        for p in PROBES:
            cols[f"le_{int(p)}"] = pa.array(np.bincount(
                inv, weights=(v <= p).astype(np.float64),
                minlength=len(types)).astype(np.int64))
        return pa.table(cols)

    out = (ev.map_batches(part, batch_format="pyarrow")
           .groupby("event_type")
           .sum(["n", "le_1", "le_10", "le_100", "le_250"]))
    return _rename(out, ["event_type", "n", "le_1", "le_10",
                         "le_100", "le_250"])



QUERIES["value_ecdf_probes"] = q_value_ecdf_probes

ORACLE_SQL["value_ecdf_probes"] = """
        SELECT event_type, count(*) AS n,
               CAST(count(*) FILTER (value <= 1.0) AS BIGINT)
                   AS le_1,
               CAST(count(*) FILTER (value <= 10.0) AS BIGINT)
                   AS le_10,
               CAST(count(*) FILTER (value <= 100.0) AS BIGINT)
                   AS le_100,
               CAST(count(*) FILTER (value <= 250.0) AS BIGINT)
                   AS le_250
        FROM events GROUP BY 1
    """



def q_closest_pair_tiles(sf_dir: str):
    """Distributed CLOSEST PAIR over the tile points: grid cells of
    side g = 0.01° scatter every point to its cell, candidate pairs
    form only inside a cell and its 8 neighbours (dedup by packed
    index pair), and the exact squared degree distance elects the
    global minimum with the earliest (id_a, id_b) tie rule. The grid
    guarantee — the true closest pair shares a 3×3 neighbourhood
    whenever its distance ≤ g — is ASSERTED on the result. Point
    gather is the size-capped broadcast_dim (Arrow→numpy, no row
    loop); at 100 TB the cell scatter runs directly over the read and
    the per-cell stage holds only its 3×3 neighbourhood. SQL replays
    the same quantized join."""
    from battery.ops.relational import broadcast_dim
    from geotile.ops.tiles import read_image_table

    G = 0.01
    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "lon", "lat"])
    ids, ptbl = broadcast_dim(ds, "image_id")
    lon = ptbl["lon"].to_numpy(zero_copy_only=False)
    lat = ptbl["lat"].to_numpy(zero_copy_only=False)
    pref = ray.put((ids, lon, lat))

    src = rd.from_arrow(pa.table({
        "i": pa.array(np.arange(len(ids), dtype=np.int64)),
        "cx": pa.array(np.floor(lon / G).astype(np.int64)),
        "cy": pa.array(np.floor(lat / G).astype(np.int64))})) \
        .repartition(8)

    def scatter(t: pa.Table) -> pa.Table:
        i = t["i"].to_numpy(zero_copy_only=False)
        cx = t["cx"].to_numpy(zero_copy_only=False)
        cy = t["cy"].to_numpy(zero_copy_only=False)
        oc, oi = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                oc.append((cx + dx) << 32 | ((cy + dy) & 0xFFFFFFFF))
                oi.append(i)
        return pa.table({"cell": pa.array(np.concatenate(oc)),
                         "i": pa.array(np.concatenate(oi)),
                         "home": pa.array(np.tile(
                             (cx << 32) | (cy & 0xFFFFFFFF), 9))})

    def best_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"d2": pd.Series(dtype=np.float64),
                              "ia": pd.Series(dtype=np.int64),
                              "ib": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        _, lon_, lat_ = _broadcast(pref)
        cell = df["cell"].to_numpy(np.int64)
        i = df["i"].to_numpy(np.int64)
        home = df["home"].to_numpy(np.int64)
        o = np.lexsort((i, cell))
        cell, i, home = cell[o], i[o], home[o]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        cnt = np.diff(np.r_[first, len(cell)])
        best = (np.inf, -1, -1)
        for f, c in zip(first[cnt > 1], cnt[cnt > 1]):
            ii = i[f:f + c]
            hh = home[f:f + c]
            # pair once: only when this cell is the FIRST point's home
            own = hh == cell[f]
            if not own.any():
                continue
            a, b = np.meshgrid(ii, ii, indexing="ij")
            oa = np.repeat(own, len(ii)).reshape(len(ii), len(ii))
            m = (a < b) & oa
            if not m.any():
                continue
            aa, bb = a[m], b[m]
            dx = lon_[aa] - lon_[bb]
            dy = lat_[aa] - lat_[bb]
            d2 = dx * dx + dy * dy
            k = np.lexsort((bb, aa, d2))[0]
            if (d2[k], aa[k], bb[k]) < best:
                best = (float(d2[k]), int(aa[k]), int(bb[k]))
        if best[1] < 0:
            return empty
        return pd.DataFrame({"d2": [best[0]], "ia": [best[1]],
                             "ib": [best[2]]})

    cands = (src.map_batches(scatter, batch_format="pyarrow")
             .map_batches(lambda t: t.append_column(
                 "bkt", pc.bit_wise_and(t["cell"],
                                        pa.scalar(0x3F, pa.int64()))),
                 batch_format="pyarrow")
             .groupby("bkt").map_groups(best_in_bucket,
                                        batch_format="pandas")
             ).take_all()
    assert cands, "no candidate pair — raise the grid size g"
    best = min((r["d2"], r["ia"], r["ib"]) for r in cands)
    assert best[0] <= G * G, "grid guarantee violated — raise g"
    return pd.DataFrame({"img_a": [ids[best[1]]],
                         "img_b": [ids[best[2]]],
                         "d2_e12": [int(np.floor(
                             best[0] * 1e12 + 0.5))]})



QUERIES["closest_pair_tiles"] = q_closest_pair_tiles



def _closest_pair_sql(sf_dir: str) -> str:
    img = _image_dir_for(sf_dir)
    return f"""
        WITH p AS (SELECT image_id, lon, lat,
                          CAST(floor(lon / 0.01) AS BIGINT) AS cx,
                          CAST(floor(lat / 0.01) AS BIGINT) AS cy
                   FROM read_parquet('{img}/part-*.parquet')),
        d AS (SELECT a.image_id AS ia, b.image_id AS ib,
                     (a.lon - b.lon) * (a.lon - b.lon)
                     + (a.lat - b.lat) * (a.lat - b.lat) AS d2
              FROM p a JOIN p b
                ON abs(a.cx - b.cx) <= 1 AND abs(a.cy - b.cy) <= 1
               AND a.image_id < b.image_id),
        r AS (SELECT ia, ib, d2,
                     row_number() OVER (ORDER BY d2, ia, ib) AS rn
              FROM d)
        SELECT ia AS img_a, ib AS img_b,
               CAST(floor(d2 * 1e12 + 0.5) AS BIGINT) AS d2_e12
        FROM r WHERE rn = 1
    """



def q_quarter_close_spike(sf_dir: str):
    """Quarter-close pull-forward audit: per calendar quarter, the
    share of orders landing in the LAST three days — the revenue-
    recognition spike every sales org denies. Quarter boundaries via
    exact month arithmetic (datetime64[M] in the engine, date_trunc
    + INTERVAL in SQL); quarter-cardinality partials with ppm
    shares."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy().astype("datetime64[us]")
        day = d.astype("datetime64[D]")
        month = d.astype("datetime64[M]")
        y = month.astype(np.int64) // 12 + 1970
        m = month.astype(np.int64) % 12
        q = m // 3
        nq_start = ((y - 1970) * 12 + (q + 1) * 3) \
            .astype("datetime64[M]").astype("datetime64[D]")
        gap = (nq_start - day).astype(np.int64)
        qid = y * 4 + q
        last3 = (gap <= 3).astype(np.int64)
        g = pa.table({"quarter": pa.array(qid),
                      "l3": pa.array(last3)}) \
            .group_by("quarter").aggregate(
                [([], "count_all"), ("l3", "sum")])
        return pa.table({"quarter": g["quarter"],
                         "n": g["count_all"].cast(pa.int64()),
                         "n_last3": g["l3_sum"]})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("quarter").sum(["n", "n_last3"])).take_all()
    return pd.DataFrame(sorted(
        ({"quarter": r["quarter"], "n": r["sum(n)"],
          "n_last3": r["sum(n_last3)"],
          "share_ppm": r["sum(n_last3)"] * 1_000_000 // r["sum(n)"]}
         for r in rows), key=lambda x: x["quarter"]))



QUERIES["quarter_close_spike"] = q_quarter_close_spike

ORACLE_SQL["quarter_close_spike"] = """
        WITH o AS (SELECT CAST(EXTRACT(year FROM o_orderdate) * 4
                               + (EXTRACT(month FROM o_orderdate) - 1)
                                 // 3 AS BIGINT) AS quarter,
                          CASE WHEN date_diff('day',
                                   CAST(o_orderdate AS DATE),
                                   CAST(date_trunc('quarter',
                                        o_orderdate)
                                        + INTERVAL 3 MONTH AS DATE))
                                   <= 3
                               THEN 1 ELSE 0 END AS l3
                   FROM orders)
        SELECT quarter, count(*) AS n,
               CAST(SUM(l3) AS BIGINT) AS n_last3,
               SUM(l3) * 1000000 // count(*) AS share_ppm
        FROM o GROUP BY 1
    """



def q_audio_loudest_window(sf_dir: str):
    """Loudest second per track: the maximum rolling 43-frame energy
    sum over the AudioFrameStage ledger (43·1024 samples ≈ 1 s at
    44.1 kHz) with its earliest start frame — highlight extraction.
    Stage reuse + one cumsum sliding window per track row-group.
    Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table
    from battery.ops.relational import _with_bucket

    WIN = 43
    ds = read_audio_table(_audio_dir_for(sf_dir))
    frames = ds.map_batches(AudioFrameStage, batch_format="pyarrow",
                            batch_size=64, concurrency=2)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"track_id": pd.Series(dtype=np.int64),
                                 "max_energy":
                                     pd.Series(dtype=np.int64),
                                 "start_frame":
                                     pd.Series(dtype=np.int64)})
        tid = df["track_id"].to_numpy(np.int64)
        fr = df["frame"].to_numpy(np.int64)
        en = df["energy"].to_numpy(np.int64)
        o = np.lexsort((fr, tid))
        tid, fr, en = tid[o], fr[o], en[o]
        out_t, out_m, out_s = [], [], []
        starts = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])
        ends = np.r_[starts[1:], len(tid)]
        for s, e in zip(starts, ends):
            seg = en[s:e]
            w = min(WIN, len(seg))
            c = np.concatenate([[0], np.cumsum(seg)])
            sums = c[w:] - c[:-w]
            k = int(sums.argmax())  # first hit = earliest start
            out_t.append(tid[s])
            out_m.append(int(sums[k]))
            out_s.append(int(fr[s + k]))
        return pd.DataFrame({"track_id": out_t,
                             "max_energy": out_m,
                             "start_frame": out_s})

    out = (_with_bucket(frames, "track_id", 8)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow"))
    return out



QUERIES["audio_loudest_window"] = q_audio_loudest_window



def _audio_loudest_sidecar(aud: str) -> str:
    """Python-int replay for audio_loudest_window. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioloudest_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        WIN = 43
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        frame = 1024
        nfr = pcm.shape[1] // frame
        rows = []
        for j, tid in enumerate(ids.tolist()):
            en = [sum(int(v) * int(v)
                      for v in pcm[j, f * frame:(f + 1) * frame]
                      .tolist()) for f in range(nfr)]
            w = min(WIN, nfr)
            best, bs = -1, -1
            for s in range(nfr - w + 1):
                tot = sum(en[s:s + w])
                if tot > best:
                    best, bs = tot, s
            rows.append({"track_id": tid, "max_energy": best,
                         "start_frame": bs})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_loudest_sql(aud: str) -> str:
    return (f"SELECT track_id, max_energy, start_frame "
            f"FROM read_parquet('{_audio_loudest_sidecar(aud)}')")



def q_gmd_nations(sf_dir: str):
    """Gini mean difference of order totals per nation: the exact
    pairwise |xi − xj| sum on the cents lattice via the sorted-rank
    identity Σ(2i−n+1)·x(i) — inequality-of-spend audit without the
    O(n²) join. Broadcast custkey→nation map; one nation co-partition
    holds each nation's cents whole, the weighted sum is int64 index
    algebra. ROW_NUMBER replay."""
    from battery.ops.relational import _with_bucket

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    nk = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    cref = ray.put((ck, nk))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def annotate(t: pa.Table) -> pa.Table:
        ck_, nk_ = _broadcast(cref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        nat = nk_[np.searchsorted(ck_, c)]
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        return pa.table({"nationkey": pa.array(nat),
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"nationkey": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "pairsum_cents":
                                  pd.Series(dtype=np.int64),
                              "md_cents": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        nat = df["nationkey"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        o = np.lexsort((cents, nat))
        nat, cents = nat[o], cents[o]
        starts = np.flatnonzero(np.r_[True, nat[1:] != nat[:-1]])
        seg_of = np.cumsum(np.r_[True, nat[1:] != nat[:-1]]) - 1
        n_seg = seg_of[-1] + 1
        k = np.bincount(seg_of, minlength=n_seg).astype(np.int64)
        i_local = np.arange(len(nat)) - starts[seg_of]
        w = 2 * i_local - k[seg_of] + 1
        acc = np.zeros(n_seg, np.int64)
        np.add.at(acc, seg_of, w * cents)
        md = np.where(k >= 2, acc * 2 // np.maximum(k * (k - 1), 1),
                      0)
        return pd.DataFrame({"nationkey": nat[starts], "n": k,
                             "pairsum_cents": acc, "md_cents": md})

    ds = orders.map_batches(annotate, batch_format="pyarrow")
    return (_with_bucket(ds, "nationkey", 8)
            .groupby("bucket").map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))



QUERIES["gmd_nations"] = q_gmd_nations

ORACLE_SQL["gmd_nations"] = """
        WITH o AS (SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
                          CAST(floor(o_totalprice * 100.0 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders JOIN customer ON c_custkey = o_custkey),
        r AS (SELECT nationkey, cents,
                     ROW_NUMBER() OVER (PARTITION BY nationkey
                                        ORDER BY cents) AS rn,
                     COUNT(*) OVER (PARTITION BY nationkey) AS n
              FROM o)
        SELECT nationkey, CAST(MAX(n) AS BIGINT) AS n,
               CAST(SUM((2 * rn - n - 1) * cents) AS BIGINT)
                 AS pairsum_cents,
               CASE WHEN MAX(n) >= 2
                    THEN CAST(SUM((2 * rn - n - 1) * cents) * 2
                              // (MAX(n) * (MAX(n) - 1)) AS BIGINT)
                    ELSE 0 END AS md_cents
        FROM r GROUP BY nationkey
    """



def q_interval_merge_users(sf_dir: str):
    """Gaps-and-islands interval merge: every event opens a 300-second
    presence interval; merge overlaps per user and report interval
    count + exact covered microseconds — the classic uptime/coverage
    operator. Equal-width intervals make merged ends monotone within
    the per-user ts sort, so island breaks are one diff and coverage
    is first/last index algebra per island. LAG + island-sum replay."""
    from battery.ops.relational import _with_bucket

    W = 300_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                              "n_intervals":
                                  pd.Series(dtype=np.int64),
                              "covered_us":
                                  pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        ts = df["ts"].to_numpy().astype("datetime64[us]") \
            .astype(np.int64)
        o = np.lexsort((ts, u))
        u, ts = u[o], ts[o]
        new_user = np.r_[True, u[1:] != u[:-1]]
        brk = new_user | np.r_[False, ts[1:] - ts[:-1] > W]
        isl_starts = np.flatnonzero(brk)
        isl_ends = np.r_[isl_starts[1:], len(u)]
        cover = ts[isl_ends - 1] - ts[isl_starts] + W
        isl_user = u[isl_starts]
        ustarts = np.flatnonzero(np.r_[True,
                                       isl_user[1:] != isl_user[:-1]])
        uends = np.r_[ustarts[1:], len(isl_user)]
        seg_of = np.cumsum(np.r_[True,
                                 isl_user[1:] != isl_user[:-1]]) - 1
        n_u = seg_of[-1] + 1
        cov = np.zeros(n_u, np.int64)
        np.add.at(cov, seg_of, cover)
        return pd.DataFrame({"user_id": isl_user[ustarts],
                             "n_intervals": (uends - ustarts)
                                 .astype(np.int64),
                             "covered_us": cov})

    return (_with_bucket(ev, "user_id", 32)
            .groupby("bucket").map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))



QUERIES["interval_merge_users"] = q_interval_merge_users

ORACLE_SQL["interval_merge_users"] = """
        WITH e AS (SELECT user_id, epoch_us(ts) AS t FROM events),
        s AS (SELECT user_id, t,
                     CASE WHEN t - LAG(t) OVER (PARTITION BY user_id
                                                ORDER BY t)
                              > 300000000
                          OR LAG(t) OVER (PARTITION BY user_id
                                          ORDER BY t) IS NULL
                          THEN 1 ELSE 0 END AS brk
              FROM e),
        g AS (SELECT user_id, t,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY t
                                    ROWS UNBOUNDED PRECEDING) AS isl
              FROM s),
        i AS (SELECT user_id, isl, MIN(t) AS a, MAX(t) AS b
              FROM g GROUP BY 1, 2)
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_intervals,
               CAST(SUM(b - a + 300000000) AS BIGINT) AS covered_us
        FROM i GROUP BY 1
    """



def q_otsu_threshold_images(sf_dir: str):
    """Per-image Otsu binarization threshold for the first 1024
    images, EXACT: maximize the between-class score (s·N − S·c)² /
    (c·(N−c)) over gray levels with python-int cross-multiplication
    (the products exceed int64), earliest level on ties — the
    auto-threshold front end of any segmentation stage. Histograms,
    cumulative counts and the int64 numerators are fully vectorized
    per (w, h) group; only the 255-step argmax runs per image.
    Fraction-replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class OtsuStage:
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
            out_id, out_t, out_fg = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                n = len(slots)
                npx = wi * hi
                code = (np.arange(n)[:, None, None] * 256 + gray)
                hist = np.bincount(code.ravel(),
                                   minlength=n * 256) \
                    .reshape(n, 256).astype(np.int64)
                c = np.cumsum(hist, axis=1)
                s = np.cumsum(hist * np.arange(256), axis=1)
                S = s[:, 255]
                num = (s * npx - S[:, None] * c) ** 2
                den = c * (npx - c)
                for j in range(n):
                    bt, bnum, bden = -1, 0, 1
                    cj, nj, dj = c[j], num[j], den[j]
                    for t in range(255):
                        if cj[t] == 0 or cj[t] == npx:
                            continue
                        # exact: num/den > bnum/bden (python ints)
                        if int(nj[t]) * bden > bnum * int(dj[t]):
                            bt, bnum, bden = t, int(nj[t]), int(dj[t])
                    out_id.append(ids[slots[j]])
                    out_t.append(bt)
                    out_fg.append(int(npx - cj[bt]) if bt >= 0 else 0)
            return pa.table({
                "image_id": pa.array(out_id, pa.string()),
                "threshold": pa.array(out_t, pa.int64()),
                "n_fg": pa.array(out_fg, pa.int64())})

    return ds.map_batches(OtsuStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["otsu_threshold_images"] = q_otsu_threshold_images



def _otsu_sidecar(img: str, n: int = 1024) -> str:
    """Fraction replay for otsu_threshold_images. Content-keyed on
    synth.py."""
    from fractions import Fraction

    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_otsu_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        thr = np.zeros(len(ws), np.int64)
        nfg = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            npx = wi * hi
            for j, slot in enumerate(m):
                hist = [0] * 256
                for y in range(hi):
                    for x in range(wi):
                        g = (int(px[j, y, x, 0])
                             + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        hist[g] += 1
                S = sum(g * hist[g] for g in range(256))
                best = Fraction(-1)
                bt = -1
                cc = ss = 0
                bfg = 0
                for t2 in range(255):
                    cc += hist[t2]
                    ss += t2 * hist[t2]
                    if cc == 0 or cc == npx:
                        continue
                    f = Fraction((ss * npx - S * cc) ** 2,
                                 cc * (npx - cc))
                    if f > best:
                        best, bt, bfg = f, t2, npx - cc
                thr[slot] = bt
                nfg[slot] = bfg if bt >= 0 else 0
        out = pa.table({"image_id": ids,
                        "threshold": pa.array(thr),
                        "n_fg": pa.array(nfg)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _otsu_sql(img: str) -> str:
    return (f"SELECT image_id, threshold, n_fg "
            f"FROM read_parquet('{_otsu_sidecar(img)}')")



def q_kcore_dups(sf_dir: str):
    """Core decomposition of the near-dup graph: every node's core
    number (the largest k for which it survives k-core peeling) —
    the standard dense-cluster strength measure that separates
    borderline dup chains (core 1) from tight clique clusters. Pair
    generation is the distributed LSH+verify stage; the edge set is
    dedup-output scale, so peeling runs once over broadcastable CSR
    arrays with vectorized batch removal (bincount degree decrements
    per round). Oracle: independent pure-python peeling over the SQL
    cosine-join pair list (two algorithms, one answer)."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                          "core": pd.Series(dtype=np.int64)})
    if not pairs:
        return empty
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    nodes, starts = np.unique(u, return_index=True)
    ends = np.r_[starts[1:], len(u)]
    # neighbor ids → dense indices for bincount decrements
    vi = np.searchsorted(nodes, v)
    n = len(nodes)
    deg = (ends - starts).astype(np.int64)
    core = np.zeros(n, np.int64)
    alive = np.ones(n, bool)
    k = 0
    while alive.any():
        k += 1
        while True:
            rem = np.flatnonzero(alive & (deg < k))
            if len(rem) == 0:
                break
            core[rem] = k - 1
            alive[rem] = False
            nb = np.concatenate([vi[starts[r]:ends[r]] for r in rem])
            nb = nb[alive[nb]]
            deg -= np.bincount(nb, minlength=n)
    return pd.DataFrame({"node": nodes, "core": core})



QUERIES["kcore_dups"] = q_kcore_dups



def _kcore_sidecar(sf_dir: str) -> str:
    """Pure-python peeling replay over the SQL cosine-join pairs.
    Content-keyed on the pair SQL text."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "kcore-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_kcore_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        adj: dict[int, set[int]] = {}
        for x, y in prs:
            adj.setdefault(int(x), set()).add(int(y))
            adj.setdefault(int(y), set()).add(int(x))
        core: dict[int, int] = {}
        k = 0
        while adj:
            k += 1
            changed = True
            while changed:
                changed = False
                for nd in [nd for nd, nb in adj.items()
                           if len(nb) < k]:
                    core[nd] = k - 1
                    for w in adj.pop(nd):
                        if w in adj:
                            adj[w].discard(nd)
                    changed = True
        out = pa.table({
            "node": pa.array(sorted(core), pa.int64()),
            "core": pa.array([core[nd] for nd in sorted(core)],
                             pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _kcore_sql(sf_dir: str) -> str:
    return (f"SELECT node, core "
            f"FROM read_parquet('{_kcore_sidecar(sf_dir)}')")



def q_anagram_groups_docs(sf_dir: str):
    """Anagram classes over the corpus vocabulary: group distinct
    tokens by their sorted-character signature and keep classes with
    ≥2 distinct members (signature, n_tokens, n_occ) — the cheap
    token-normalization/typo-class audit. Per-batch value_counts
    partials → one vocabulary-scale token shuffle → signatures
    computed once per DISTINCT token (never per occurrence) →
    signature groupby; n_tokens > 1 flags an anagram class.
    Tokenization = split on single spaces, empties dropped
    (string_split parity). list_sort char replay."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    vocab = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("token").sum("n"))
    vocab = _rename(vocab, ["token", "n"])

    def sig_part(t: pa.Table) -> pa.Table:
        toks = t["token"].to_pylist()
        sigs = ["".join(sorted(tk)) for tk in toks]
        return pa.table({"signature": pa.array(sigs, pa.string()),
                         "n_tokens": pa.array([1] * len(toks),
                                              pa.int64()),
                         "n_occ": t["n"]})

    agg = (vocab.map_batches(sig_part, batch_format="pyarrow")
           .groupby("signature").sum(["n_tokens", "n_occ"]))
    agg = _rename(agg, ["signature", "n_tokens", "n_occ"])
    return agg



QUERIES["anagram_groups_docs"] = q_anagram_groups_docs

ORACLE_SQL["anagram_groups_docs"] = """
        WITH tok AS (SELECT unnest(string_split(text, ' ')) AS t
                     FROM documents),
        u AS (SELECT t, count(*) AS occ FROM tok
              WHERE t <> '' GROUP BY 1),
        sig AS (SELECT array_to_string(list_sort(string_split(t, '')),
                                       '') AS signature, occ
                FROM u)
        SELECT signature, CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(SUM(occ) AS BIGINT) AS n_occ
        FROM sig GROUP BY 1
    """



def q_mann_kendall_nations(sf_dir: str):
    """Mann-Kendall trend statistic per nation: S = Σ_{i<j}
    sign(cents_j − cents_i) over the day-ordered daily revenue
    series — the distribution-free monotone-trend test with exact
    integer S (no variance, no floats). Day×nation partial sums +
    one small groupby; the day series is calendar-bounded, so the
    per-nation pair scan is chunked index algebra inside a 25-group
    co-partition. Self-join sign replay."""
    from battery.ops.relational import _with_bucket

    from battery.ops.relational import broadcast_dim

    ck, _ct = broadcast_dim(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        "c_custkey")
    nk = _ct["c_nationkey"].to_numpy().astype(np.int64, copy=False)
    cref = ray.put((ck, nk))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate",
                                      "o_totalprice"])
    DAY = 86_400_000_000

    def part(t: pa.Table) -> pa.Table:
        ck_, nk_ = _broadcast(cref)
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        nat = nk_[np.searchsorted(ck_, c)]
        day = (t["o_orderdate"].cast(pa.int64()).to_numpy()
               // DAY)
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        g = pa.table({"nationkey": pa.array(nat),
                      "day": pa.array(day),
                      "cents": pa.array(cents)}) \
            .group_by(["nationkey", "day"]).aggregate([("cents",
                                                        "sum")])
        return pa.table({"nationkey": g["nationkey"],
                         "day": g["day"],
                         "cents": g["cents_sum"]})

    daily = (orders.map_batches(part, batch_format="pyarrow")
             .groupby(["nationkey", "day"]).sum("cents"))
    daily = _rename(daily, ["nationkey", "day", "cents"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"nationkey": pd.Series(dtype=np.int64),
                              "n_days": pd.Series(dtype=np.int64),
                              "s_stat": pd.Series(dtype=np.int64)})
        if len(df) == 0:
            return empty
        nat = df["nationkey"].to_numpy(np.int64)
        day = df["day"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        o = np.lexsort((day, nat))
        nat, cents = nat[o], cents[o]
        starts = np.flatnonzero(np.r_[True, nat[1:] != nat[:-1]])
        ends = np.r_[starts[1:], len(nat)]
        out_n, out_d, out_s = [], [], []
        for s, e in zip(starts, ends):
            c = cents[s:e]
            d = len(c)
            total = 0
            for j0 in range(1, d, 512):
                js = np.arange(j0, min(j0 + 512, d))
                sub = np.sign(c[js][:, None]
                              - c[None, :js[-1]]).astype(np.int64)
                mask = np.arange(js[-1])[None, :] < js[:, None]
                total += int((sub * mask).sum())
            out_n.append(nat[s])
            out_d.append(d)
            out_s.append(total)
        return pd.DataFrame({"nationkey": out_n,
                             "n_days": np.array(out_d, np.int64),
                             "s_stat": np.array(out_s, np.int64)})

    return (_with_bucket(daily, "nationkey", 8)
            .groupby("bucket").map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))



QUERIES["mann_kendall_nations"] = q_mann_kendall_nations

ORACLE_SQL["mann_kendall_nations"] = """
        WITH d AS (SELECT CAST(c_nationkey AS BIGINT) AS nationkey,
                          epoch_us(o_orderdate) // 86400000000 AS day,
                          CAST(SUM(CAST(floor(o_totalprice * 100.0
                                              + 0.5) AS BIGINT))
                               AS BIGINT) AS cents
                   FROM orders JOIN customer ON c_custkey = o_custkey
                   GROUP BY 1, 2),
        s AS (SELECT a.nationkey,
                     SUM(CASE WHEN b.cents > a.cents THEN 1
                              WHEN b.cents < a.cents THEN -1
                              ELSE 0 END) AS s_stat
              FROM d a JOIN d b ON b.nationkey = a.nationkey
                               AND b.day > a.day
              GROUP BY 1),
        n AS (SELECT nationkey, count(*) AS n_days FROM d GROUP BY 1)
        SELECT n.nationkey, CAST(n.n_days AS BIGINT) AS n_days,
               CAST(COALESCE(s.s_stat, 0) AS BIGINT) AS s_stat
        FROM n LEFT JOIN s USING (nationkey)
    """



def q_local_supplier_volume_q5(sf_dir: str):
    """TPC-H Q5 proper — local supplier volume: revenue from 1996
    lineitems where the SUPPLIER and the ordering CUSTOMER sit in the
    same nation. region_revenue covers the Q5 join shape; this adds
    Q5's defining s_nationkey = c_nationkey equality, which needs both
    nation keys ON the fact row before the filter. supplier nation
    broadcasts into the lineitem map; customer nation rides
    orders→lineitem through the size-guarded lookup_join (broadcast at
    dim scale, bucketed co-partition past 2^20 rows). Revenue lands on
    the e4 lattice per element (region_revenue convention)."""
    from battery.ops.relational import lookup_join

    sk, sn_raw = _dim_np(sf_dir, "supplier", "s_suppkey",
                         ["s_nationkey"])
    sn = sn_raw.astype(np.int64, copy=False)
    sref = ray.put((sk, sn))
    nname = {r["n_nationkey"]: r["n_name"]
             for r in _read(sf_dir, "nation").take_all()}

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(lambda t: pa.table(
            {"c_custkey": t["c_custkey"].cast(pa.int64()),
             "cnat": t["c_nationkey"].cast(pa.int64())}),
            batch_format="pyarrow")

    LO = np.datetime64("1996-01-01").astype("datetime64[us]") \
        .astype(np.int64)
    HI = np.datetime64("1997-01-01").astype("datetime64[us]") \
        .astype(np.int64)

    def ord_proj(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64())
        keep = pc.and_(pc.greater_equal(us, pa.scalar(LO)),
                       pc.less(us, pa.scalar(HI)))
        f = t.filter(keep)
        return pa.table({"o_orderkey": f["o_orderkey"].cast(pa.int64()),
                         "o_custkey": f["o_custkey"].cast(pa.int64())})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(ord_proj, batch_format="pyarrow",
                     zero_copy_batch=True)
    oc = _semi_lookup_join(orders, "o_custkey", cust, "c_custkey",
                           "cnat", out_key="o_orderkey")

    def li_proj(t: pa.Table) -> pa.Table:
        sk_, sn_ = _broadcast(sref)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False)
        snat = sn_[np.searchsorted(sk_, s)]
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"].cast(pa.int64()),
                         "snat": pa.array(snat),
                         "q": _e(rev, 10000)})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"]) \
        .map_batches(li_proj, batch_format="pyarrow",
                     zero_copy_batch=True)
    j = lookup_join(li, "l_orderkey", oc, "o_orderkey", "cnat")

    def partial(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["snat"], t["cnat"]))
        g = pa.table({"nat": f["snat"], "q": f["q"]}) \
            .group_by("nat").aggregate([("q", "sum"),
                                        ([], "count_all")])
        return pa.table({"nat": g["nat"],
                         "rev_e4": g["q_sum"].cast(pa.int64()),
                         "n": g["count_all"].cast(pa.int64())})

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby("nat").sum(["rev_e4", "n"])).take_all()
    return pd.DataFrame(sorted(
        ({"n_name": nname[int(r["nat"])],
          "rev_e4": r["sum(rev_e4)"], "n": r["sum(n)"]}
         for r in rows), key=lambda x: x["n_name"]))



QUERIES["local_supplier_volume_q5"] = q_local_supplier_volume_q5

ORACLE_SQL["local_supplier_volume_q5"] = """
        SELECT n.n_name,
               CAST(SUM(CAST(round(l.l_extendedprice
                                   * (1 - l.l_discount) * 10000)
                             AS BIGINT)) AS BIGINT) AS rev_e4,
               COUNT(*) AS n
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        WHERE s.s_nationkey = c.c_nationkey
          AND o.o_orderdate >= TIMESTAMP '1996-01-01'
          AND o.o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY 1
    """



def q_audio_haar_detail_tracks(sf_dir: str):
    """Haar wavelet detail energies per audio track, levels 1 and 2 —
    exact integers: d1 = Σ(s[2i] − s[2i+1])², d2 = Σ((s[4i]+s[4i+1])
    − (s[4i+2]+s[4i+3]))² — the transient-vs-sustained fingerprint a
    music/speech discriminator thresholds on. One reshape-diff-square
    per stacked batch tensor; no per-sample Python. Python-int replay
    sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class HaarStage:
        def __init__(self):
            self.dec = AudioFrameStage().decoders["pcm16"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch["track_id"].to_numpy(zero_copy_only=False)
            codecs = batch["codec"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            if set(codecs) - {"pcm16"}:
                raise NotImplementedError("only pcm16 in container")
            rows = [self.dec(p) for p in payloads]
            groups: dict[int, list[int]] = {}
            for i, r in enumerate(rows):
                groups.setdefault(len(r), []).append(i)
            out_id, out_1, out_2 = [], [], []
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                n2 = (length // 2) * 2
                p2 = pcm[:, :n2].reshape(len(slots), -1, 2)
                d1 = ((p2[:, :, 0] - p2[:, :, 1]) ** 2).sum(axis=1)
                n4 = (length // 4) * 4
                p4 = pcm[:, :n4].reshape(len(slots), -1, 4)
                d2 = (((p4[:, :, 0] + p4[:, :, 1])
                       - (p4[:, :, 2] + p4[:, :, 3])) ** 2) \
                    .sum(axis=1)
                out_id.append(ids[slots])
                out_1.append(d1)
                out_2.append(d2)
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "d1_energy": pa.array(np.concatenate(out_1)),
                "d2_energy": pa.array(np.concatenate(out_2))})

    return ds.map_batches(HaarStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_haar_detail_tracks"] = q_audio_haar_detail_tracks



def _audio_haar_sidecar(aud: str) -> str:
    """Python-int replay for audio_haar_detail_tracks. Content-keyed
    on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiohaar_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            d1 = sum((s[2 * i] - s[2 * i + 1]) ** 2
                     for i in range(len(s) // 2))
            d2 = sum(((s[4 * i] + s[4 * i + 1])
                      - (s[4 * i + 2] + s[4 * i + 3])) ** 2
                     for i in range(len(s) // 4))
            rows.append({"track_id": tid, "d1_energy": d1,
                         "d2_energy": d2})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_haar_sql(aud: str) -> str:
    return (f"SELECT track_id, d1_energy, d2_energy "
            f"FROM read_parquet('{_audio_haar_sidecar(aud)}')")



def q_video_quadrant_motion(sf_dir: str):
    """Spatially-localized motion: per clip, the exact integer
    Σ|frame diff| inside each of the four frame quadrants (TL TR BL
    BR) — where in the frame the action happens, the feature a
    cropping/attention stage keys on. One stacked 5-D |diff| per
    (frames, w, h) group, then four quadrant slices of the same diff
    tensor. Python-int replay sidecar."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    class QuadStage:
        def __call__(self, batch: pa.Table) -> pa.Table:
            codecs = set(batch["codec"].to_pylist())
            if codecs - {"rawseq"}:
                raise NotImplementedError("only rawseq in container")
            ids = batch["clip_id"].to_numpy(zero_copy_only=False)
            nf = batch["n_frames"].to_numpy(zero_copy_only=False)
            ws = batch["w"].to_numpy(zero_copy_only=False)
            hs = batch["h"].to_numpy(zero_copy_only=False)
            payloads = batch["bytes"].to_pylist()
            groups: dict[tuple[int, int, int], list[int]] = {}
            for i, key in enumerate(zip(nf, ws, hs)):
                groups.setdefault(tuple(int(x) for x in key),
                                  []).append(i)
            cols = {"clip_id": [], "tl": [], "tr": [],
                    "bl": [], "br": []}
            for (f, w, h), slots in groups.items():
                clips = np.stack([
                    np.frombuffer(payloads[i], dtype=np.uint8)
                    .reshape(f, h, w, 3) for i in slots]) \
                    .astype(np.int64)
                d = np.abs(clips[:, 1:] - clips[:, :-1])
                hh, wh = h // 2, w // 2
                quads = {"tl": d[:, :, :hh, :wh],
                         "tr": d[:, :, :hh, wh:],
                         "bl": d[:, :, hh:, :wh],
                         "br": d[:, :, hh:, wh:]}
                cols["clip_id"].append(ids[slots])
                for k, v in quads.items():
                    cols[k].append(v.sum(axis=(1, 2, 3, 4)))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in cols.items()})

    return ds.map_batches(QuadStage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["video_quadrant_motion"] = q_video_quadrant_motion



def _video_quadrant_sidecar(vid: str) -> str:
    """Python-int replay for video_quadrant_motion. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videoquad_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        W, H = _sy.VIDEO_W, _sy.VIDEO_H
        hh, wh = H // 2, W // 2
        rows = []
        for cid in ids.tolist():
            frames = [_sy.pixel_pattern(
                np.array([cid * 64 + f], np.uint64), W, H)[0]
                for f in range(nf)]
            acc = {"tl": 0, "tr": 0, "bl": 0, "br": 0}
            for f in range(nf - 1):
                a, b = frames[f], frames[f + 1]
                for y in range(H):
                    for x in range(W):
                        q = ("t" if y < hh else "b") \
                            + ("l" if x < wh else "r")
                        for ch in range(3):
                            acc[q] += abs(int(b[y, x, ch])
                                          - int(a[y, x, ch]))
            rows.append({"clip_id": cid, **acc})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_quadrant_sql(vid: str) -> str:
    return (f"SELECT clip_id, tl, tr, bl, br "
            f"FROM read_parquet('{_video_quadrant_sidecar(vid)}')")



def q_profit_by_nation_year(sf_dir: str):
    """TPC-H Q9-shaped profit rollup (no partsupp table in this
    schema, so profit = revenue): for lineitems of RED parts
    (p_name LIKE 'red %'), revenue by SUPPLIER nation × order year.
    Part filter ships as a broadcast sorted keyset (dim scale);
    supplier nation folds into the same lineitem map; the order year
    rides the size-guarded lookup_join. e4 lattice per element."""
    from battery.ops.relational import lookup_join

    pk, pname = _dim_np(sf_dir, "part", "p_partkey", ["p_name"])
    red = pk[np.char.startswith(pname.astype(str), "red ")]
    sk, sn_raw = _dim_np(sf_dir, "supplier", "s_suppkey",
                         ["s_nationkey"])
    sn = sn_raw.astype(np.int64, copy=False)
    bref = ray.put((red, sk, sn))
    nname = {r["n_nationkey"]: r["n_name"]
             for r in _read(sf_dir, "nation").take_all()}

    def ord_proj(t: pa.Table) -> pa.Table:
        y = pc.year(t["o_orderdate"]).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"].cast(pa.int64()),
                         "year": y})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(ord_proj, batch_format="pyarrow",
                     zero_copy_batch=True)

    def li_proj(t: pa.Table) -> pa.Table:
        red_, sk_, sn_ = _broadcast(bref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(red_, pk)
        safe = np.minimum(pos, max(len(red_) - 1, 0))
        keep = (pos < len(red_)) & (red_[safe] == pk) \
            if len(red_) else np.zeros(len(pk), bool)
        f = t.filter(pa.array(keep))
        s = f["l_suppkey"].to_numpy(zero_copy_only=False)
        snat = sn_[np.searchsorted(sk_, s)]
        rev = pc.multiply(f["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), f["l_discount"]))
        return pa.table({"l_orderkey": f["l_orderkey"].cast(pa.int64()),
                         "snat": pa.array(snat),
                         "q": _e(rev, 10000)})

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"]) \
        .map_batches(li_proj, batch_format="pyarrow",
                     zero_copy_batch=True)
    j = lookup_join(li, "l_orderkey", orders, "o_orderkey", "year")

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"snat": t["snat"], "year": t["year"],
                      "q": t["q"]}) \
            .group_by(["snat", "year"]).aggregate([("q", "sum"),
                                                   ([], "count_all")])
        return pa.table({"snat": g["snat"], "year": g["year"],
                         "rev_e4": g["q_sum"].cast(pa.int64()),
                         "n": g["count_all"].cast(pa.int64())})

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby(["snat", "year"]).sum(["rev_e4", "n"])).take_all()
    return pd.DataFrame(sorted(
        ({"n_name": nname[int(r["snat"])], "year": r["year"],
          "rev_e4": r["sum(rev_e4)"], "n": r["sum(n)"]}
         for r in rows), key=lambda x: (x["n_name"], x["year"])))



QUERIES["profit_by_nation_year"] = q_profit_by_nation_year

ORACLE_SQL["profit_by_nation_year"] = """
        SELECT n.n_name, CAST(EXTRACT(year FROM o.o_orderdate)
                              AS BIGINT) AS year,
               CAST(SUM(CAST(round(l.l_extendedprice
                                   * (1 - l.l_discount) * 10000)
                             AS BIGINT)) AS BIGINT) AS rev_e4,
               COUNT(*) AS n
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN part p ON l.l_partkey = p.p_partkey
        JOIN supplier s ON l.l_suppkey = s.s_suppkey
        JOIN nation n ON s.s_nationkey = n.n_nationkey
        WHERE p.p_name LIKE 'red %'
        GROUP BY 1, 2
    """



def q_tumbling_argmax_events(sf_dir: str):
    """Per 1-hour tumbling window, the ARGMAX event: (window, event_id
    of the max value, the value) with the smallest event_id breaking
    value ties — the representative-sample selection every
    dashboarding pipeline runs. Mergeable argmax: per-batch partial
    argmax per window (one lexsort + segment head), then the same fold
    as the final reduce — selection only, no float arithmetic, so
    doubles hash exactly. ROW_NUMBER replay."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])
    HOUR = 3_600_000_000

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"win": pa.array([], pa.int64()),
                             "event_id": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64())})
        w = (t["ts"].cast(pa.int64()).to_numpy() // HOUR
             if t.schema.field("ts").type != pa.int64()
             else t["ts"].to_numpy(zero_copy_only=False))
        e = t["event_id"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        o = np.lexsort((e, -v, w))
        w, e, v = w[o], e[o], v[o]
        heads = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        return pa.table({"win": pa.array(w[heads]),
                         "event_id": pa.array(e[heads]),
                         "value": pa.array(v[heads])})

    part = ev.map_batches(fold, batch_format="pyarrow",
                          zero_copy_batch=True)
    return (part.groupby("win")
            .map_groups(lambda df: df.sort_values(
                ["value", "event_id"],
                ascending=[False, True]).head(1),
                batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))



QUERIES["tumbling_argmax_events"] = q_tumbling_argmax_events

ORACLE_SQL["tumbling_argmax_events"] = """
        WITH e AS (SELECT epoch_us(ts) // 3600000000 AS win,
                          event_id, value,
                          ROW_NUMBER() OVER (
                              PARTITION BY epoch_us(ts) // 3600000000
                              ORDER BY value DESC, event_id) AS rn
                   FROM events)
        SELECT win, event_id, value FROM e WHERE rn = 1
    """



def q_probe_energy_labels(sf_dir: str):
    """Random-probe quadratic form per label: Σ_i (v·q_i)² where q_i
    is the embedding on the e3 integer lattice and v the
    deterministic ±1 probe (splitmix64 parity per dimension) — the
    one-probe trace estimator of the label Gram matrix energy
    (Hutchinson step), exact in int64. One matvec per batch; the
    shuffle carries 10 label partials. Literal ±1 list replay."""
    from geotile.synth import splitmix64

    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "probe_energy": pa.array([], pa.int64())})
        x = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
        dim = x.shape[1]
        sgn = np.where(
            splitmix64(np.arange(dim, dtype=np.uint64))
            & np.uint64(1), 1, -1).astype(np.int64)
        q = np.floor(x.astype(np.float64) * 1000.0 + 0.5) \
            .astype(np.int64)
        d = q @ sgn
        lab = t["label"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        g = pa.table({"label": pa.array(lab),
                      "e": pa.array(d * d),
                      "one": pa.array(np.ones(len(lab), np.int64))}) \
            .group_by("label").aggregate([("e", "sum"),
                                          ("one", "sum")])
        return pa.table({"label": g["label"],
                         "n": g["one_sum"],
                         "probe_energy": g["e_sum"]})

    out = (emb.map_batches(part, batch_format="pyarrow")
           .groupby("label").sum(["n", "probe_energy"]))
    return _rename(out, ["label", "n", "probe_energy"])



QUERIES["probe_energy_labels"] = q_probe_energy_labels



def _probe_sign_literal(dim: int = 64) -> str:
    from geotile.synth import splitmix64

    sgn = np.where(splitmix64(np.arange(dim, dtype=np.uint64))
                   & np.uint64(1), 1.0, -1.0)
    return "[" + ", ".join(f"{v:.1f}" for v in sgn) + "]"



ORACLE_SQL["probe_energy_labels"] = f"""
        WITH q AS (SELECT CAST(label AS BIGINT) AS label,
                          CAST(list_dot_product(
                              list_transform(
                                  CAST(embedding AS DOUBLE[]),
                                  x -> floor(x * 1000.0 + 0.5)),
                              CAST({_probe_sign_literal()}
                                   AS DOUBLE[])) AS BIGINT) AS d
                   FROM embeddings)
        SELECT label, count(*) AS n,
               CAST(SUM(d * d) AS BIGINT) AS probe_energy
        FROM q GROUP BY 1
    """



_ZQ_RES = 14

_ZQ_BOXES = ((-122.5, -121.9, 37.2, 37.7),
             (-122.35, -122.15, 37.35, 37.55),
             (-122.28, -122.22, 37.44, 37.52))



def _zorder_ranges(ix0: int, ix1: int, iy0: int, iy1: int,
                   res: int) -> list[tuple[int, int]]:
    """Exact quadtree decomposition of the INCLUSIVE grid rectangle
    into maximal aligned quads = contiguous Morton ranges [lo, hi) in
    the res-tagged cell-id space."""
    from geotile.geom import cells

    out: list[tuple[int, int]] = []

    def rec(qx: int, qy: int, size: int) -> None:
        if qx > ix1 or qx + size - 1 < ix0 \
                or qy > iy1 or qy + size - 1 < iy0:
            return
        if qx >= ix0 and qx + size - 1 <= ix1 \
                and qy >= iy0 and qy + size - 1 <= iy1:
            lo = int(cells.from_ixy(np.array([qx]), np.array([qy]),
                                    res).view(np.int64)[0])
            out.append((lo, lo + size * size))
            return
        h = size // 2
        for dx in (0, h):
            for dy in (0, h):
                rec(qx + dx, qy + dy, h)

    rec(0, 0, 1 << res)
    out.sort()
    return out



def q_zorder_range_counts(sf_dir: str):
    """Z-order INDEX-RANGE scan: each viewport rectangle decomposes
    (driver-side, O(perimeter)) into maximal aligned quadtree Morton
    ranges; tiles match by pure cell-id interval membership — two
    searchsorteds per batch, never a lon/lat comparison. This is the
    scan shape a Morton-sorted 100-TB tile store serves from its
    block index. The oracle replays the RECTANGLE predicate on the
    quantized grid axes instead — the count matches iff the
    decomposition is exact."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ranges = []
    for (wlo, whi, slo, nhi) in _ZQ_BOXES:
        ix, iy = cells._quantize(np.array([wlo, whi]),
                                 np.array([slo, nhi]), _ZQ_RES)
        ranges.append(_zorder_ranges(int(ix[0]), int(ix[1]),
                                     int(iy[0]), int(iy[1]), _ZQ_RES))
    los = [np.array([r[0] for r in rs], np.int64) for rs in ranges]
    his = [np.array([r[1] for r in rs], np.int64) for rs in ranges]
    rref = ray.put((los, his))

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def part(t: pa.Table) -> pa.Table:
        los_, his_ = _broadcast(rref)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = cells.encode(lon, lat, _ZQ_RES).view(np.int64)
        qid, cnt = [], []
        for q, (lo, hi) in enumerate(zip(los_, his_)):
            pos = np.searchsorted(lo, cell, side="right") - 1
            ok = pos >= 0
            ok[ok] &= cell[ok] < hi[pos[ok]]
            qid.append(q)
            cnt.append(int(ok.sum()))
        return pa.table({"query_id": pa.array(qid, pa.int64()),
                         "n_tiles": pa.array(cnt, pa.int64())})

    out = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("query_id").sum("n_tiles"))
    return _rename(out, ["query_id", "n_tiles"])



QUERIES["zorder_range_counts"] = q_zorder_range_counts



def _zorder_range_sql(img_dir: str) -> str:
    from geotile.geom import cells

    parts = []
    for q, (wlo, whi, slo, nhi) in enumerate(_ZQ_BOXES):
        ix, iy = cells._quantize(np.array([wlo, whi]),
                                 np.array([slo, nhi]), _ZQ_RES)
        parts.append(
            f"SELECT {q} AS query_id, count(*) AS n_tiles "
            f"FROM g WHERE ix BETWEEN {int(ix[0])} AND {int(ix[1])} "
            f"AND iy BETWEEN {int(iy[0])} AND {int(iy[1])}")
    union = " UNION ALL ".join(parts)
    return f"""
        WITH g AS (SELECT
            {_sql_quant('lon', '180.0', '360.0', _ZQ_RES)} AS ix,
            {_sql_quant('lat', '90.0', '180.0', _ZQ_RES)} AS iy
            FROM read_parquet('{img_dir}/part-*.parquet'))
        {union}
    """



def q_head_vocab_coverage_sources(sf_dir: str):
    """Head-vocabulary coverage per source: what fraction (ppm) of
    each source's token stream falls in the corpus-wide top-10
    vocabulary — the 'generic vs niche content' signal a corpus
    mixer weights sources by. Phase 1 = the distributed top-k
    pattern (per-batch value_counts partials → vocabulary shuffle →
    partial top-k); the 10-token head then broadcasts into a single
    per-source counting pass. Top-10 CTE replay."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    vocab = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("token").sum("n")).take_all()
    toks = np.array([r["token"] for r in vocab])
    ns = np.array([r["sum(n)"] for r in vocab], np.int64)
    order = np.lexsort((toks, -ns))[:10]
    head = set(toks[order].tolist())
    href = ray.put(np.sort(np.array(sorted(head))))

    def cover(t: pa.Table) -> pa.Table:
        head_ = _broadcast(href)
        toks_l = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks_l)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False)
        src = t["source"].to_numpy(zero_copy_only=False)
        src_rep = np.repeat(src, lens)[
            keep.to_numpy(zero_copy_only=False)]
        fa = flat.to_numpy(zero_copy_only=False)
        pos = np.searchsorted(head_, fa)
        safe = np.minimum(pos, len(head_) - 1)
        in_head = (head_[safe] == fa).astype(np.int64)
        g = pa.table({"source": pa.array(src_rep),
                      "n_head": pa.array(in_head),
                      "n_total": pa.array(np.ones(len(fa),
                                                  np.int64))}) \
            .group_by("source").aggregate([("n_head", "sum"),
                                           ("n_total", "sum")])
        return pa.table({"source": g["source"],
                         "n_head": g["n_head_sum"],
                         "n_total": g["n_total_sum"]})

    agg = (ds.map_batches(cover, batch_format="pyarrow")
           .groupby("source").sum(["n_head", "n_total"]))
    agg = _rename(agg, ["source", "n_head", "n_total"])

    def fin(t: pa.Table) -> pa.Table:
        nh = t["n_head"].to_numpy(zero_copy_only=False)
        nt = t["n_total"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "head_ppm", pa.array(nh * 1_000_000 // nt))

    return agg.map_batches(fin, batch_format="pyarrow")



QUERIES["head_vocab_coverage_sources"] = q_head_vocab_coverage_sources

ORACLE_SQL["head_vocab_coverage_sources"] = """
        WITH tok AS (SELECT source,
                            unnest(string_split(text, ' ')) AS t
                     FROM documents),
        tk AS (SELECT source, t FROM tok WHERE t <> ''),
        vocab AS (SELECT t, count(*) AS n FROM tk GROUP BY 1),
        head AS (SELECT t FROM vocab ORDER BY n DESC, t LIMIT 10),
        c AS (SELECT source,
                     CAST(SUM(CASE WHEN t IN (SELECT t FROM head)
                              THEN 1 ELSE 0 END) AS BIGINT) AS n_head,
                     count(*) AS n_total
              FROM tk GROUP BY 1)
        SELECT source, n_head, CAST(n_total AS BIGINT) AS n_total,
               n_head * 1000000 // n_total AS head_ppm
        FROM c
    """



def q_image_haar_bands(sf_dir: str):
    """2-D Haar band energies per image (first 1024): non-overlapping
    2×2 blocks of the gray plane → exact integer ΣLH², ΣHL², ΣHH²
    (horizontal / vertical / diagonal detail) — the orientation-energy
    fingerprint a texture or compressibility stage keys on. One
    reshape per (w, h) group; all three bands from the same block
    tensor. Python-int replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class HaarBandStage:
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
            out = {"image_id": [], "lh_energy": [], "hl_energy": [],
                   "hh_energy": []}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                h2, w2 = (hi // 2) * 2, (wi // 2) * 2
                b = gray[:, :h2, :w2] \
                    .reshape(len(slots), h2 // 2, 2, w2 // 2, 2)
                a = b[:, :, 0, :, 0]
                bb = b[:, :, 0, :, 1]
                c = b[:, :, 1, :, 0]
                d = b[:, :, 1, :, 1]
                lh = ((a - bb + c - d) ** 2).sum(axis=(1, 2))
                hl = ((a + bb - c - d) ** 2).sum(axis=(1, 2))
                hh = ((a - bb - c + d) ** 2).sum(axis=(1, 2))
                out["image_id"].append(ids[slots])
                out["lh_energy"].append(lh)
                out["hl_energy"].append(hl)
                out["hh_energy"].append(hh)
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(HaarBandStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["image_haar_bands"] = q_image_haar_bands



def _image_haar_sidecar(img: str, n: int = 1024) -> str:
    """Python-int replay for image_haar_bands. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_imghaar_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        lhs = np.zeros(len(ws), np.int64)
        hls = np.zeros(len(ws), np.int64)
        hhs = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                lh = hl = hh = 0
                for y in range(0, (hi // 2) * 2, 2):
                    for x in range(0, (wi // 2) * 2, 2):
                        def g(yy, xx):
                            return (int(px[j, yy, xx, 0])
                                    + int(px[j, yy, xx, 1])
                                    + int(px[j, yy, xx, 2])) // 3
                        a, b2 = g(y, x), g(y, x + 1)
                        c, d = g(y + 1, x), g(y + 1, x + 1)
                        lh += (a - b2 + c - d) ** 2
                        hl += (a + b2 - c - d) ** 2
                        hh += (a - b2 - c + d) ** 2
                lhs[slot], hls[slot], hhs[slot] = lh, hl, hh
        out = pa.table({"image_id": ids,
                        "lh_energy": pa.array(lhs),
                        "hl_energy": pa.array(hls),
                        "hh_energy": pa.array(hhs)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _image_haar_sql(img: str) -> str:
    return (f"SELECT image_id, lh_energy, hl_energy, hh_energy "
            f"FROM read_parquet('{_image_haar_sidecar(img)}')")



def q_two_hop_dups(sf_dir: str):
    """2-hop neighbourhood size per node of the near-dup graph — the
    'transitive contamination radius' a dedup-propagation pass needs
    to budget for. CSR adjacency broadcasts once (edge set is
    dedup-output scale); each node batch unions its neighbours'
    neighbour lists with one np.unique — no per-edge Python beyond
    the gather. DISTINCT 2-path replay."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    if not pairs:
        return pd.DataFrame({"node": pd.Series(dtype=np.int64),
                             "n_2hop": pd.Series(dtype=np.int64)})
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    o = np.lexsort((v, u))
    u, v = u[o], v[o]
    nodes, starts = np.unique(u, return_index=True)
    ends = np.r_[starts[1:], len(u)]
    aref = ray.put((nodes, starts, ends, v))

    ds = rd.from_arrow(pa.table({"node": pa.array(nodes)})) \
        .repartition(4)

    def hop2(t: pa.Table) -> pa.Table:
        nodes_, starts_, ends_, adj = _broadcast(aref)
        out_n, out_c = [], []
        for nd in t["node"].to_numpy(zero_copy_only=False).tolist():
            i = np.searchsorted(nodes_, nd)
            nb = adj[starts_[i]:ends_[i]]
            js = np.searchsorted(nodes_, nb)
            reach = np.concatenate(
                [nb] + [adj[starts_[j]:ends_[j]] for j in js])
            reach = np.unique(reach)
            n2 = len(reach) - int(
                np.searchsorted(reach, nd, side="right")
                - np.searchsorted(reach, nd, side="left"))
            out_n.append(nd)
            out_c.append(n2)
        return pa.table({"node": pa.array(out_n, pa.int64()),
                         "n_2hop": pa.array(out_c, pa.int64())})

    return ds.map_batches(hop2, batch_format="pyarrow",
                          batch_size=512)



QUERIES["two_hop_dups"] = q_two_hop_dups

ORACLE_SQL["two_hop_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs),
        two AS (SELECT e1.u, e2.v AS w
                FROM e e1 JOIN e e2 ON e2.u = e1.v
                WHERE e2.v <> e1.u
                UNION SELECT u, v FROM e)
        SELECT u AS node, CAST(count(DISTINCT w) AS BIGINT) AS n_2hop
        FROM two GROUP BY 1
    """



def q_token_burstiness_head(sf_dir: str):
    """Burstiness moments for the top-20 head tokens: per token, the
    number of docs containing it, total occurrences, and Σ(per-doc
    count)² — the exact integer moments behind the Fano factor that
    separates bursty topical terms from uniform function words.
    Documents are row-atomic, so per-doc counts complete inside each
    batch; the shuffle carries 20 partial rows per batch. Per-doc
    unnest replay."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    vocab = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("token").sum("n")).take_all()
    toks = np.array([r["token"] for r in vocab])
    ns = np.array([r["sum(n)"] for r in vocab], np.int64)
    order = np.lexsort((toks, -ns))[:20]
    href = ray.put(np.sort(toks[order]))

    def moments(t: pa.Table) -> pa.Table:
        head_ = _broadcast(href)
        toks_l = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks_l)
        keep = pc.not_equal(flat, "")
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False)
        doc_rep = np.repeat(np.arange(len(lens)), lens)[
            keep.to_numpy(zero_copy_only=False)]
        fa = flat.filter(keep).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(head_, fa)
        safe = np.minimum(pos, len(head_) - 1)
        ok = head_[safe] == fa
        code = doc_rep[ok] * len(head_) + safe[ok]
        cnt = np.bincount(code, minlength=len(lens) * len(head_)) \
            .reshape(len(lens), len(head_)).astype(np.int64)
        return pa.table({
            "token": pa.array(np.tile(head_, 1)),
            "n_docs": pa.array((cnt > 0).sum(axis=0)
                               .astype(np.int64)),
            "n_occ": pa.array(cnt.sum(axis=0)),
            "sum_sq": pa.array((cnt * cnt).sum(axis=0))})

    out = (ds.map_batches(moments, batch_format="pyarrow")
           .groupby("token").sum(["n_docs", "n_occ", "sum_sq"]))
    return _rename(out, ["token", "n_docs", "n_occ", "sum_sq"])



QUERIES["token_burstiness_head"] = q_token_burstiness_head

ORACLE_SQL["token_burstiness_head"] = """
        WITH tok AS (SELECT doc_id,
                            unnest(string_split(text, ' ')) AS t
                     FROM documents),
        tk AS (SELECT doc_id, t FROM tok WHERE t <> ''),
        vocab AS (SELECT t, count(*) AS n FROM tk GROUP BY 1),
        head AS (SELECT t FROM vocab ORDER BY n DESC, t LIMIT 20),
        dc AS (SELECT t, doc_id, count(*) AS c FROM tk
               WHERE t IN (SELECT t FROM head) GROUP BY 1, 2)
        SELECT h.t AS token,
               CAST(COALESCE(count(dc.doc_id), 0) AS BIGINT)
                 AS n_docs,
               CAST(COALESCE(SUM(dc.c), 0) AS BIGINT) AS n_occ,
               CAST(COALESCE(SUM(dc.c * dc.c), 0) AS BIGINT)
                 AS sum_sq
        FROM head h LEFT JOIN dc ON dc.t = h.t
        GROUP BY 1
    """



def q_audio_walsh_bands(sf_dir: str):
    """8-point Walsh-Hadamard band energies per track: frames of 8
    samples transform with the ±1 Hadamard matrix (sequency order);
    output Σcoef² per band — the integer-exact 'spectrum' a cheap
    audio classifier bins on (Haar levels 1-2 are two of these eight
    bands; the other six are new information). One (tracks × frames
    × 8) @ H8ᵀ matmul per batch. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))
    H8 = np.array([[1 if bin(i & j).count("1") % 2 == 0 else -1
                    for j in range(8)] for i in range(8)], np.int64)

    class WalshStage:
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
            out_id, out_b, out_e = [], [], []
            for length, slots in groups.items():
                n8 = (length // 8) * 8
                pcm = np.stack([rows[i][:n8] for i in slots]) \
                    .astype(np.int64).reshape(len(slots), -1, 8)
                coef = pcm @ H8.T  # (k, frames, 8)
                en = (coef * coef).sum(axis=1)  # (k, 8)
                k = len(slots)
                out_id.append(np.repeat(ids[slots], 8))
                out_b.append(np.tile(np.arange(8, dtype=np.int64),
                                     k))
                out_e.append(en.reshape(-1))
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "band": pa.array(np.concatenate(out_b)),
                "energy": pa.array(np.concatenate(out_e))})

    return ds.map_batches(WalshStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_walsh_bands"] = q_audio_walsh_bands



def _audio_walsh_sidecar(aud: str) -> str:
    """Python-int replay for audio_walsh_bands. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiowalsh_{Path(aud).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        h8 = [[1 if bin(i & j).count("1") % 2 == 0 else -1
               for j in range(8)] for i in range(8)]
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            nfr = len(s) // 8
            en = [0] * 8
            for f in range(nfr):
                fr = s[f * 8:(f + 1) * 8]
                for band in range(8):
                    c = sum(h8[band][k] * fr[k] for k in range(8))
                    en[band] += c * c
            for band in range(8):
                rows.append({"track_id": tid, "band": band,
                             "energy": en[band]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_walsh_sql(aud: str) -> str:
    return (f"SELECT track_id, band, energy "
            f"FROM read_parquet('{_audio_walsh_sidecar(aud)}')")



def q_best_split_daily(sf_dir: str):
    """Optimal 2-segmentation of the daily revenue series: the single
    change-point minimizing total within-segment SSE, chosen EXACTLY —
    candidates compare by the rational objective sum_l²/n_l +
    sum_r²/n_r on the cents lattice (Fraction arithmetic, earliest
    split on ties), so no float ever decides the argmax. Day partials
    are distributed; the candidate scan is an O(days) driver epilogue
    over the calendar-bounded series (cusum_daily_revenue pattern).
    Brute-force Fraction replay from SQL daily sums."""
    DAY = 86_400_000_000
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].cast(pa.int64()).to_numpy() // DAY
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        g = pa.table({"day": pa.array(day),
                      "cents": pa.array(cents)}) \
            .group_by("day").aggregate([("cents", "sum")])
        return pa.table({"day": g["day"], "cents": g["cents_sum"]})

    rows = (orders.map_batches(part, batch_format="pyarrow")
            .groupby("day").sum("cents")).take_all()
    empty = pd.DataFrame({"split_day": pd.Series(dtype=np.int64),
                          "n_l": pd.Series(dtype=np.int64),
                          "n_r": pd.Series(dtype=np.int64),
                          "sum_l": pd.Series(dtype=np.int64),
                          "sum_r": pd.Series(dtype=np.int64)})
    if len(rows) < 2:
        return empty
    days = np.array([r["day"] for r in rows], np.int64)
    cents = np.array([r["sum(cents)"] for r in rows], np.int64)
    o = np.argsort(days)
    days, cents = days[o], cents[o]
    from fractions import Fraction

    d = len(days)
    pref = np.concatenate([[0], np.cumsum(cents)])
    total = int(pref[-1])
    best, bt = Fraction(-1), -1
    for t in range(1, d):
        sl, sr = int(pref[t]), total - int(pref[t])
        g = Fraction(sl * sl, t) + Fraction(sr * sr, d - t)
        if g > best:
            best, bt = g, t
    return pd.DataFrame({"split_day": [int(days[bt])],
                         "n_l": [bt], "n_r": [d - bt],
                         "sum_l": [int(pref[bt])],
                         "sum_r": [total - int(pref[bt])]})



QUERIES["best_split_daily"] = q_best_split_daily



_DAILY_CENTS_SQL = """
    SELECT epoch_us(o_orderdate) // 86400000000 AS day,
           CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                         AS BIGINT)) AS BIGINT) AS cents
    FROM read_parquet('{sf}/orders.parquet') GROUP BY 1
"""



def _best_split_sidecar(sf_dir: str) -> str:
    """Brute-force Fraction replay for best_split_daily: daily sums
    from SQL, every split's segment sums recomputed from scratch."""
    from fractions import Fraction
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    sql = _DAILY_CENTS_SQL.format(sf=sf_dir)
    key = blake2b((sql + "bestsplit-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bestsplit_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        rows = sorted(duckdb.connect().execute(sql).fetchall())
        days = [int(r[0]) for r in rows]
        cents = [int(r[1]) for r in rows]
        d = len(days)
        best, bt = Fraction(-1), -1
        for t in range(1, d):
            sl = sum(cents[:t])
            sr = sum(cents[t:])
            g = Fraction(sl * sl, t) + Fraction(sr * sr, d - t)
            if g > best:
                best, bt = g, t
        out = pa.table({
            "split_day": pa.array([days[bt]], pa.int64()),
            "n_l": pa.array([bt], pa.int64()),
            "n_r": pa.array([d - bt], pa.int64()),
            "sum_l": pa.array([sum(cents[:bt])], pa.int64()),
            "sum_r": pa.array([sum(cents[bt:])], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _best_split_sql(sf_dir: str) -> str:
    return (f"SELECT split_day, n_l, n_r, sum_l, sum_r "
            f"FROM read_parquet('{_best_split_sidecar(sf_dir)}')")



def q_largest_blob_images(sf_dir: str):
    """Largest and second-largest 4-connected foreground component
    per image (first 1024) — the object-dominance feature that
    separates one-big-region frames from speckle. Reuses the
    whole-batch min-neighbour relaxation labelling (blob_count law);
    component sizes are one bincount of converged labels per image.
    Scalar flood-fill replay."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class LargestBlobStage:
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
            out_id, out_1, out_2 = [], [], []
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
                for j in range(k):
                    m = fg[j].ravel()
                    if not m.any():
                        out_id.append(ids[slots[j]])
                        out_1.append(0)
                        out_2.append(0)
                        continue
                    _, counts = np.unique(lab[j].ravel()[m],
                                          return_counts=True)
                    counts = np.sort(counts)[::-1]
                    out_id.append(ids[slots[j]])
                    out_1.append(int(counts[0]))
                    out_2.append(int(counts[1])
                                 if len(counts) > 1 else 0)
            return pa.table({
                "image_id": pa.array(out_id, pa.string()),
                "max_blob": pa.array(out_1, pa.int64()),
                "second_blob": pa.array(out_2, pa.int64())})

    return ds.map_batches(LargestBlobStage, batch_format="pyarrow",
                          batch_size=128, concurrency=2)



QUERIES["largest_blob_images"] = q_largest_blob_images



def _largest_blob_sidecar(img: str, n: int = 1024) -> str:
    """Flood-fill replay for largest_blob_images. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_lblob_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        m1 = np.zeros(len(ws), np.int64)
        m2 = np.zeros(len(ws), np.int64)
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            mm = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[mm], wi, hi)
            for j, slot in enumerate(mm):
                fg = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                        + int(px[j, y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
                seen = [[False] * wi for _ in range(hi)]
                sizes = []
                for y0 in range(hi):
                    for x0 in range(wi):
                        if not fg[y0][x0] or seen[y0][x0]:
                            continue
                        stack, sz = [(y0, x0)], 0
                        seen[y0][x0] = True
                        while stack:
                            y, x = stack.pop()
                            sz += 1
                            for dy, dx in ((1, 0), (-1, 0),
                                           (0, 1), (0, -1)):
                                yy, xx = y + dy, x + dx
                                if 0 <= yy < hi and 0 <= xx < wi \
                                        and fg[yy][xx] \
                                        and not seen[yy][xx]:
                                    seen[yy][xx] = True
                                    stack.append((yy, xx))
                        sizes.append(sz)
                sizes.sort(reverse=True)
                m1[slot] = sizes[0] if sizes else 0
                m2[slot] = sizes[1] if len(sizes) > 1 else 0
        out = pa.table({"image_id": ids,
                        "max_blob": pa.array(m1),
                        "second_blob": pa.array(m2)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _largest_blob_sql(img: str) -> str:
    return (f"SELECT image_id, max_blob, second_blob "
            f"FROM read_parquet('{_largest_blob_sidecar(img)}')")



def q_supplier_breadth_customers(sf_dir: str):
    """Bipartite degree histogram: how many DISTINCT suppliers each
    customer has bought from (via orders→lineitem), as a histogram —
    supply-chain diversification at a glance. The custkey rides the
    size-guarded lookup_join onto lineitem; (custkey, suppkey) pairs
    pack into one int64 key (packed-key law) for the distinct
    shuffle; per-customer counts and the final histogram are two tiny
    follow-up groupbys. DISTINCT-pair SQL replay."""
    from battery.ops.relational import lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(lambda t: pa.table(
            {"o_orderkey": t["o_orderkey"].cast(pa.int64()),
             "cust": t["o_custkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    j = lookup_join(li, "l_orderkey", orders, "o_orderkey", "cust")
    PACK = np.int64(1) << np.int64(20)

    def pack(t: pa.Table) -> pa.Table:
        c = t["cust"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        assert s.max(initial=0) < PACK, "suppkey packing contract"
        k = np.unique(c * PACK + s)
        return pa.table({"k": pa.array(k)})

    pairs = (j.map_batches(pack, batch_format="pyarrow")
             .groupby("k").count())

    def per_cust(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        g = pa.table({"cust": pa.array(k // PACK),
                      "ns": pa.array(np.ones(len(k), np.int64))}) \
            .group_by("cust").aggregate([("ns", "sum")])
        return pa.table({"cust": g["cust"], "ns": g["ns_sum"]})

    counts = (pairs.map_batches(per_cust, batch_format="pyarrow")
              .groupby("cust").sum("ns"))

    def hist(t: pa.Table) -> pa.Table:
        ns = t["sum(ns)"].to_numpy(zero_copy_only=False)
        g = pa.table({"n_suppliers": pa.array(ns),
                      "n_customers": pa.array(np.ones(len(ns),
                                                      np.int64))}) \
            .group_by("n_suppliers").aggregate([("n_customers",
                                                 "sum")])
        return pa.table({"n_suppliers": g["n_suppliers"],
                         "n_customers": g["n_customers_sum"]})

    out = (counts.map_batches(hist, batch_format="pyarrow")
           .groupby("n_suppliers").sum("n_customers"))
    return _rename(out, ["n_suppliers", "n_customers"])



QUERIES["supplier_breadth_customers"] = q_supplier_breadth_customers

ORACLE_SQL["supplier_breadth_customers"] = """
        WITH cs AS (SELECT DISTINCT o.o_custkey AS c,
                                    l.l_suppkey AS s
                    FROM lineitem l
                    JOIN orders o ON l.l_orderkey = o.o_orderkey),
        d AS (SELECT c, count(*) AS ns FROM cs GROUP BY 1)
        SELECT CAST(ns AS BIGINT) AS n_suppliers,
               count(*) AS n_customers
        FROM d GROUP BY 1
    """



def _pair_candidate_docs(sf_dir: str, pairs_m):
    """documents filtered to the DISTINCT ids of a materialized (a, b)
    pair Dataset, via the engine's size-guarded ``semi_join`` — a small
    id set broadcasts once (per-batch unique → is_in filter) and a set
    past the guard degrades to the bucketed co-partition join instead
    of crashing (review fix: the previous inline broadcast had no
    fallback past broadcast_dim's cap). The PAIR set never lands on
    the driver."""
    from battery.ops.relational import semi_join

    ids_ds = pairs_m.map_batches(
        lambda t: pa.table({"doc_id": pa.array(np.unique(np.concatenate([
            t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["b"].to_numpy(zero_copy_only=False).astype(np.int64)])))}),
        batch_format="pyarrow")
    return semi_join(_read(sf_dir, "documents", ["doc_id", "text"]),
                     ids_ds, "doc_id", "doc_id")


def _pair_payload_join(pairs_m, payload, n_buckets: int = 8):
    """Co-partition (a, b) pairs against a per-doc ``pl`` list payload
    on BOTH sides — the ngram_jaccard verify shape shared by the
    containment and sig-agreement audits. Two bucketed joins with an
    Arrow re-anchor between (pandas group outputs carry no Arrow
    schema). Returns pandas-block rows (a, b, pl_a, pl_b)."""
    from battery.ops.relational import bucketed_join

    side_a = payload.map_batches(
        lambda t: t.rename_columns(["a_id", "pl_a"]), batch_format="pyarrow")
    side_b = payload.map_batches(
        lambda t: t.rename_columns(["b_id", "pl_b"]), batch_format="pyarrow")
    with_a = bucketed_join(pairs_m, side_a, "a", "a_id",
                           n_buckets=n_buckets)

    def norm_a(df: pd.DataFrame) -> pa.Table:
        # pa.array consumes the numpy int64 payload arrays directly —
        # no per-element Python (the _route_fc VERDICT r2 #1 class)
        return pa.table({
            "a": pa.array(df["a"].to_numpy().astype(np.int64)),
            "b": pa.array(df["b"].to_numpy().astype(np.int64)),
            "pl_a": pa.array(list(df["pl_a"]), pa.list_(pa.int64())),
        })

    # materialize between the joins: bucketed_join's schema probe
    # EXECUTES a lazy derived input once and the join runs it again
    # (the documented caller contract) — without this the whole first
    # pair⋈payload shuffle ran twice per query
    normed = with_a.map_batches(norm_a, batch_format="pandas").materialize()
    return bucketed_join(normed, side_b, "b", "b_id",
                         n_buckets=n_buckets)


def q_containment_pairs_docs(sf_dir: str):
    """Asymmetric containment for the verified MinHash near-dup
    pairs: |Sa∩Sb| with both distinct-shingle set sizes — the
    partial-copy detector (high containment, low Jaccard = one doc
    embedded in another) that symmetric dedup misses. Pair discovery
    is the distributed LSH+verify stage; shingle sets recompute with
    the engine's vectorized Rabin-Karp shingling for just the paired
    docs (candidate-id semi-join), ride as a list column, and
    co-partition against the pair list on both sides — no pair-scale
    or corpus-scale driver materialization anywhere (the r5 rewrite
    of the old take_all+broadcast form). Scalar shingle-set replay."""
    from battery.ops.dedup import (_shingle_flat, hashed_tokens,
                                   minhash_lsh_pairs)

    empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                          "b": pd.Series(dtype=np.int64),
                          "inter": pd.Series(dtype=np.int64),
                          "na": pd.Series(dtype=np.int64),
                          "nb": pd.Series(dtype=np.int64)})
    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.35).map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow"
    ).materialize()
    if pairs.count() == 0:
        return empty

    def to_shingle_lists(t: pa.Table) -> pa.Table:
        # per-doc DISTINCT shingles as one vectorized pass (lexsort +
        # run-head), emitted as a list<int64> column — same per-doc
        # sets as the old one-doc-at-a-time np.unique loop
        h, off = hashed_tokens(t["text"])
        sh, sh_off = _shingle_flat(h, off, 3)
        counts = sh_off[1:] - sh_off[:-1]
        doc_idx = np.repeat(np.arange(len(t), dtype=np.int64), counts)
        order = np.lexsort((sh, doc_idx))
        sd, dd = sh[order], doc_idx[order]
        head = np.ones(len(sd), bool)
        head[1:] = (dd[1:] != dd[:-1]) | (sd[1:] != sd[:-1])
        sd, dd = sd[head], dd[head]
        nc = np.bincount(dd, minlength=len(t))
        offs64 = np.r_[0, np.cumsum(nc)]
        if offs64[-1] >= (1 << 31):
            # ListArray offsets are int32 — silent wrap would corrupt
            # per-doc shingle lists (the kmeans-guard convention:
            # fail loud at the boundary)
            raise ValueError(
                f"to_shingle_lists: batch shingle total {offs64[-1]} "
                "overflows int32 list offsets — reduce batch_size")
        arr = pa.ListArray.from_arrays(
            pa.array(offs64.astype(np.int32)), pa.array(sd.view(np.int64)))
        return pa.table({"doc_id": t["doc_id"], "pl": arr})

    payload = _pair_candidate_docs(sf_dir, pairs).map_batches(
        to_shingle_lists, batch_format="pyarrow").materialize()
    joined = _pair_payload_join(pairs, payload)

    def cont(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        n = len(df)
        inter = np.zeros(n, np.int64)
        na = np.zeros(n, np.int64)
        nb = np.zeros(n, np.int64)
        for i, (ga, gb) in enumerate(zip(df["pl_a"], df["pl_b"])):
            sa = np.asarray(ga, dtype=np.int64)
            sb = np.asarray(gb, dtype=np.int64)
            inter[i] = np.intersect1d(sa, sb, assume_unique=True).size
            na[i], nb[i] = sa.size, sb.size
        return pd.DataFrame({
            "a": df["a"].to_numpy().astype(np.int64),
            "b": df["b"].to_numpy().astype(np.int64),
            "inter": inter, "na": na, "nb": nb})

    return joined.map_batches(cont, batch_format="pandas")



QUERIES["containment_pairs_docs"] = q_containment_pairs_docs



def _containment_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import minhash_lsh_pairs_ref, shingles

    def build() -> pa.Table:
        docs = _read_docs(sf_dir)
        byid = dict(docs)
        pairs = minhash_lsh_pairs_ref(docs, threshold=0.35)
        rows = []
        for a, b, _j in pairs:
            sa = set(shingles(byid[a], 3))
            sb = set(shingles(byid[b], 3))
            rows.append({"a": a, "b": b,
                         "inter": len(sa & sb),
                         "na": len(sa), "nb": len(sb)})
        if not rows:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "inter": pa.array([], pa.int64()),
                             "na": pa.array([], pa.int64()),
                             "nb": pa.array([], pa.int64())})
        return pa.Table.from_pylist(rows)

    return _ref_sidecar(sf_dir, "containment", build)



def _containment_sql(sf_dir: str) -> str:
    return (f"SELECT a, b, inter, na, nb "
            f"FROM read_parquet('{_containment_sidecar(sf_dir)}')")



def q_butterfly_count_cs(sf_dir: str):
    """Butterfly (bipartite 4-cycle) census of the customer–supplier
    purchase graph: wedges = Σ_pairs-of-suppliers-sharing-a-customer,
    butterflies = Σ_wedge-keys C(w, 2) — the bipartite clustering
    primitive behind fraud-ring and co-purchase mining. Distinct
    (cust, supp) edges via the packed-key shuffle; each customer
    group emits its C(ns, 2) supplier pairs (bounded by the supplier
    dimension); one pair-key groupby and a tiny Σ C(w,2) epilogue.
    DISTINCT double-join replay."""
    from battery.ops.relational import _with_bucket, lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]) \
        .map_batches(lambda t: pa.table(
            {"o_orderkey": t["o_orderkey"].cast(pa.int64()),
             "cust": t["o_custkey"].cast(pa.int64())}),
            batch_format="pyarrow")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    j = lookup_join(li, "l_orderkey", orders, "o_orderkey", "cust")
    PACK = np.int64(1) << np.int64(20)

    def pack(t: pa.Table) -> pa.Table:
        c = t["cust"].to_numpy(zero_copy_only=False)
        s = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        k = np.unique(c * PACK + s)
        return pa.table({"k": pa.array(k)})

    edges = (j.map_batches(pack, batch_format="pyarrow")
             .groupby("k").count())

    def wedge_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"pk": pd.Series(dtype=np.int64),
                                 "w": pd.Series(dtype=np.int64)})
        k = np.sort(df["k"].to_numpy(np.int64))
        cust = k // PACK
        supp = k % PACK
        starts = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
        ends = np.r_[starts[1:], len(k)]
        out = []
        for s, e in zip(starts, ends):
            ss = supp[s:e]
            if len(ss) < 2:
                continue
            iu = np.triu_indices(len(ss), k=1)
            out.append(ss[iu[0]] * PACK + ss[iu[1]])
        if not out:
            return pd.DataFrame({"pk": pd.Series(dtype=np.int64),
                                 "w": pd.Series(dtype=np.int64)})
        pk = np.concatenate(out)
        return pd.DataFrame({"pk": pk,
                             "w": np.ones(len(pk), np.int64)})

    def cust_col(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({"k": t["k"],
                         "cust": pa.array(k // PACK)})

    wedges = (_with_bucket(edges.map_batches(cust_col,
                                             batch_format="pyarrow"),
                           "cust", 16)
              .groupby("bucket")
              .map_groups(wedge_pairs, batch_format="pandas")
              .map_batches(lambda t: t, batch_format="pyarrow")
              .groupby("pk").sum("w"))

    def part(t: pa.Table) -> pa.Table:
        w = t["sum(w)"].to_numpy(zero_copy_only=False)
        return pa.table({
            "wedges": pa.array([int(w.sum())], pa.int64()),
            "butterflies": pa.array([int((w * (w - 1) // 2).sum())],
                                    pa.int64()),
            "wedge_keys": pa.array([len(w)], pa.int64())})

    rows = wedges.map_batches(part, batch_format="pyarrow").take_all()
    return pd.DataFrame({
        "wedges": [int(sum(r["wedges"] for r in rows))],
        "butterflies": [int(sum(r["butterflies"] for r in rows))],
        "wedge_keys": [int(sum(r["wedge_keys"] for r in rows))]})



QUERIES["butterfly_count_cs"] = q_butterfly_count_cs

ORACLE_SQL["butterfly_count_cs"] = """
        WITH cs AS (SELECT DISTINCT o.o_custkey AS c,
                                    l.l_suppkey AS s
                    FROM lineitem l
                    JOIN orders o ON l.l_orderkey = o.o_orderkey),
        wedge AS (SELECT x.s AS s1, y.s AS s2, count(*) AS w
                  FROM cs x JOIN cs y ON y.c = x.c AND y.s > x.s
                  GROUP BY 1, 2)
        SELECT CAST(SUM(w) AS BIGINT) AS wedges,
               CAST(SUM(w * (w - 1) // 2) AS BIGINT) AS butterflies,
               CAST(count(*) AS BIGINT) AS wedge_keys
        FROM wedge
    """



def q_video_temporal_haar(sf_dir: str):
    """Temporal micro-structure per clip from the per-frame pixel-sum
    series (EVERY frame: the sampling stage runs with every_n=1):
    total variation Σ|Δ| and level-1 Haar detail Σ(s₂ᵢ−s₂ᵢ₊₁)² —
    exact integers separating smooth pans from strobing content. One
    frame-ledger pass, per-clip folds are index algebra. Python-int
    replay sidecar."""
    from battery.ops.relational import _with_bucket
    from battery.ops.video import VideoFrameStage, read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))
    frames = ds.map_batches(VideoFrameStage, batch_format="pyarrow",
                            batch_size=32, concurrency=2,
                            fn_constructor_kwargs={"every_n": 1})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"clip_id": pd.Series(dtype=np.int64),
                                 "tv": pd.Series(dtype=np.int64),
                                 "d1_energy":
                                     pd.Series(dtype=np.int64)})
        cid = df["clip_id"].to_numpy(np.int64)
        fr = df["frame_idx"].to_numpy(np.int64)
        s = df["pixel_sum"].to_numpy(np.int64)
        o = np.lexsort((fr, cid))
        cid, s = cid[o], s[o]
        starts = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
        ends = np.r_[starts[1:], len(cid)]
        out_c, out_tv, out_d1 = [], [], []
        for a, e in zip(starts, ends):
            seg = s[a:e]
            tv = int(np.abs(np.diff(seg)).sum())
            n2 = (len(seg) // 2) * 2
            p = seg[:n2].reshape(-1, 2)
            d1 = int(((p[:, 0] - p[:, 1]) ** 2).sum())
            out_c.append(cid[a])
            out_tv.append(tv)
            out_d1.append(d1)
        return pd.DataFrame({"clip_id": out_c,
                             "tv": np.array(out_tv, np.int64),
                             "d1_energy": np.array(out_d1,
                                                   np.int64)})

    return (_with_bucket(frames, "clip_id", 8)
            .groupby("bucket").map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow"))



QUERIES["video_temporal_haar"] = q_video_temporal_haar



def _video_thaar_sidecar(vid: str) -> str:
    """Python-int replay for video_temporal_haar. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videothaar_{Path(vid).name}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        rows = []
        for cid in ids.tolist():
            sums = []
            for f in range(nf):
                px = _sy.pixel_pattern(
                    np.array([cid * 64 + f], np.uint64),
                    _sy.VIDEO_W, _sy.VIDEO_H)[0]
                sums.append(sum(int(v) for v in px.ravel().tolist()))
            tv = sum(abs(sums[i + 1] - sums[i])
                     for i in range(nf - 1))
            d1 = sum((sums[2 * i] - sums[2 * i + 1]) ** 2
                     for i in range(nf // 2))
            rows.append({"clip_id": cid, "tv": tv, "d1_energy": d1})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_thaar_sql(vid: str) -> str:
    return (f"SELECT clip_id, tv, d1_energy "
            f"FROM read_parquet('{_video_thaar_sidecar(vid)}')")



def q_degree_assortativity_dups(sf_dir: str):
    """Degree-assortativity moments of the near-dup graph: over the
    undirected edge list, m, Σdu·dv, Σ(du+dv), Σ(du²+dv²) — the four
    exact integers behind Pearson degree correlation (hub-hub vs
    hub-leaf dup structure), kept as integers so no float forms.
    Degrees broadcast as a sorted array; edges map in batches with
    two searchsorted gathers. Degree-join replay."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"m": pd.Series(dtype=np.int64),
                          "sum_dudv": pd.Series(dtype=np.int64),
                          "sum_d": pd.Series(dtype=np.int64),
                          "sum_d2": pd.Series(dtype=np.int64)})
    if not pairs:
        return empty
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    nodes, counts = np.unique(np.concatenate([a, b]),
                              return_counts=True)
    dref = ray.put((nodes, counts.astype(np.int64)))

    ds = rd.from_arrow(pa.table({"a": pa.array(a),
                                 "b": pa.array(b)})).repartition(4)

    def part(t: pa.Table) -> pa.Table:
        nodes_, deg_ = _broadcast(dref)
        du = deg_[np.searchsorted(nodes_, t["a"].to_numpy(
            zero_copy_only=False))]
        dv = deg_[np.searchsorted(nodes_, t["b"].to_numpy(
            zero_copy_only=False))]
        return pa.table({
            "m": pa.array([len(du)], pa.int64()),
            "sum_dudv": pa.array([int((du * dv).sum())], pa.int64()),
            "sum_d": pa.array([int((du + dv).sum())], pa.int64()),
            "sum_d2": pa.array([int((du * du + dv * dv).sum())],
                               pa.int64())})

    rows = ds.map_batches(part, batch_format="pyarrow").take_all()
    return pd.DataFrame({
        "m": [int(sum(r["m"] for r in rows))],
        "sum_dudv": [int(sum(r["sum_dudv"] for r in rows))],
        "sum_d": [int(sum(r["sum_d"] for r in rows))],
        "sum_d2": [int(sum(r["sum_d2"] for r in rows))]})



QUERIES["degree_assortativity_dups"] = q_degree_assortativity_dups

ORACLE_SQL["degree_assortativity_dups"] = f"""
        WITH pairs AS ({EMBEDDING_DUPS_SQL}),
        e AS (SELECT a AS u, b AS v FROM pairs
              UNION SELECT b, a FROM pairs),
        deg AS (SELECT u AS node, count(*) AS d FROM e GROUP BY 1)
        SELECT CAST(count(*) AS BIGINT) AS m,
               CAST(SUM(x.d * y.d) AS BIGINT) AS sum_dudv,
               CAST(SUM(x.d + y.d) AS BIGINT) AS sum_d,
               CAST(SUM(x.d * x.d + y.d * y.d) AS BIGINT) AS sum_d2
        FROM pairs p JOIN deg x ON x.node = p.a
                     JOIN deg y ON y.node = p.b
    """



def q_anomalous_minutes_events(sf_dir: str):
    """Anomalous-minute detector with a pure integer predicate: a
    minute is anomalous iff 60·n_minute > 3·n_hour (its rate exceeds
    3× its hour's average) — the burst alarm with no float threshold.
    Minute partials carry their hour key, so one hour co-partition
    scores every minute; output is anomalous minutes per day. LAG-
    free two-level-count replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["ts"])
    MIN = 60_000_000
    H = 60

    def part(t: pa.Table) -> pa.Table:
        mn = t["ts"].cast(pa.int64()).to_numpy() // MIN
        g = pa.table({"minute": pa.array(mn)}).group_by("minute") \
            .aggregate([([], "count_all")])
        return pa.table({"minute": g["minute"],
                         "n": g["count_all"].cast(pa.int64())})

    minutes = (ev.map_batches(part, batch_format="pyarrow")
               .groupby("minute").sum("n"))
    minutes = _rename(minutes, ["minute", "n"])

    def hour_col(t: pa.Table) -> pa.Table:
        m = t["minute"].to_numpy(zero_copy_only=False)
        return t.append_column("hour", pa.array(m // H))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"day": pd.Series(dtype=np.int64),
                                 "n_anomalous":
                                     pd.Series(dtype=np.int64)})
        m = df["minute"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        hr = df["hour"].to_numpy(np.int64)
        o = np.argsort(m)
        m, n, hr = m[o], n[o], hr[o]
        starts = np.flatnonzero(np.r_[True, hr[1:] != hr[:-1]])
        seg_of = np.cumsum(np.r_[True, hr[1:] != hr[:-1]]) - 1
        htot = np.zeros(seg_of[-1] + 1, np.int64)
        np.add.at(htot, seg_of, n)
        anom = 60 * n > 3 * htot[seg_of]
        day = m[anom] // (24 * H)
        g = pd.DataFrame({"day": day}).groupby(
            "day", as_index=False).size()
        return g.rename(columns={"size": "n_anomalous"})

    out = (_with_bucket(minutes.map_batches(hour_col,
                                            batch_format="pyarrow"),
                        "hour", 16)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .map_batches(lambda t: t, batch_format="pyarrow")
           .groupby("day").sum("n_anomalous"))
    return _rename(out, ["day", "n_anomalous"])



QUERIES["anomalous_minutes_events"] = q_anomalous_minutes_events

ORACLE_SQL["anomalous_minutes_events"] = """
        WITH mi AS (SELECT epoch_us(ts) // 60000000 AS minute,
                           count(*) AS n
                    FROM events GROUP BY 1),
        hr AS (SELECT minute // 60 AS hour, SUM(n) AS hn
               FROM mi GROUP BY 1)
        SELECT mi.minute // 1440 AS day,
               CAST(count(*) AS BIGINT) AS n_anomalous
        FROM mi JOIN hr ON mi.minute // 60 = hr.hour
        WHERE 60 * mi.n > 3 * hr.hn
        GROUP BY 1
    """



def q_sig_agreement_pairs_docs(sf_dir: str):
    """MinHash component agreement for the verified near-dup pairs:
    how many of the 64 signature slots coincide — the unbiased
    Jaccard estimator whose gap to the exact Jaccard audits the
    signing layer end-to-end. Signatures come from the engine's
    vectorized flat-segment signer over just the paired docs
    (candidate-id semi-join; the signer's seeded rng makes worker-side
    signatures identical to the old driver-side pass), ride as a
    64-slot list column, and co-partition against the pair list on
    both sides — no pair-scale driver materialization (r5 rewrite).
    The oracle re-signs scalar-side (fold61 chain replay). Output
    (a, b, n_agree)."""
    from battery.ops.dedup import MinHashStage, minhash_lsh_pairs
    from geotile.ops.join import _cached_stage

    empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                          "b": pd.Series(dtype=np.int64),
                          "n_agree": pd.Series(dtype=np.int64)})
    pairs = minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.35).map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow"
    ).materialize()
    if pairs.count() == 0:
        return empty

    def to_sig_lists(t: pa.Table) -> pa.Table:
        # same construction (and worker cache key) as the LSH signing
        # stage — rng(1234) makes the signatures deterministic
        stage = _cached_stage(("minhash", 64, 16, 3),
                              lambda: MinHashStage(64, 16, 3))
        S = stage.signatures(t["text"])  # (n, 64) uint64
        offs = (np.arange(len(t) + 1, dtype=np.int32) * 64)
        arr = pa.ListArray.from_arrays(
            pa.array(offs), pa.array(S.reshape(-1).view(np.int64)))
        return pa.table({"doc_id": t["doc_id"], "pl": arr})

    payload = _pair_candidate_docs(sf_dir, pairs).map_batches(
        to_sig_lists, batch_format="pyarrow").materialize()
    joined = _pair_payload_join(pairs, payload)

    def agree(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return empty
        n_agree = np.array(
            [int((np.asarray(ga, np.int64)
                  == np.asarray(gb, np.int64)).sum())
             for ga, gb in zip(df["pl_a"], df["pl_b"])], np.int64)
        return pd.DataFrame({
            "a": df["a"].to_numpy().astype(np.int64),
            "b": df["b"].to_numpy().astype(np.int64),
            "n_agree": n_agree})

    return joined.map_batches(agree, batch_format="pandas")



QUERIES["sig_agreement_pairs_docs"] = q_sig_agreement_pairs_docs



def _sig_agreement_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import (minhash_lsh_pairs_ref,
                                    minhash_signature, shingles)

    def build() -> pa.Table:
        import numpy as _np

        rng = _np.random.default_rng(1234)
        a_p = [int(x) for x in rng.integers(1, (1 << 61) - 1, 64,
                                            dtype=_np.uint64)]
        b_p = [int(x) for x in rng.integers(0, (1 << 61) - 1, 64,
                                            dtype=_np.uint64)]
        docs = _read_docs(sf_dir)
        byid = dict(docs)
        pairs = minhash_lsh_pairs_ref(docs, threshold=0.35)
        sig = {}
        rows = []
        for x, y, _j in pairs:
            for did in (x, y):
                if did not in sig:
                    sig[did] = minhash_signature(
                        shingles(byid[did], 3), a_p, b_p)
            n = sum(1 for u, v in zip(sig[x], sig[y]) if u == v)
            rows.append({"a": x, "b": y, "n_agree": n})
        if not rows:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "n_agree": pa.array([], pa.int64())})
        return pa.Table.from_pylist(rows)

    return _ref_sidecar(sf_dir, "sigagree", build)



def _sig_agreement_sql(sf_dir: str) -> str:
    return (f"SELECT a, b, n_agree "
            f"FROM read_parquet('{_sig_agreement_sidecar(sf_dir)}')")



def q_nucleus_mass_types(sf_dir: str):
    """Nucleus (top-p) concentration per event type: the smallest
    number of events whose values cover ≥ half the type's total
    value mass, on the cents lattice (2·prefix ≥ total, descending
    values, exact ints) — the 'how top-heavy is this signal' measure
    behind top-p sampling and ABC analysis. One type co-partition:
    sort desc, one cumsum, one searchsorted-style argmax. Window
    prefix replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def annotate(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5).astype(np.int64)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        types, inv = np.unique(et, return_inverse=True)
        h = np.array([int.from_bytes(
            __import__("hashlib").blake2b(s.encode(),
                                          digest_size=7).digest(),
            "big") for s in types], np.int64)
        code = h[inv]
        return pa.table({"event_type": pa.array(et),
                         "tkey": pa.array(code),
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"event_type":
                                 pd.Series(dtype=object),
                                 "n_events":
                                 pd.Series(dtype=np.int64),
                                 "k_half": pd.Series(dtype=np.int64),
                                 "total_cents":
                                 pd.Series(dtype=np.int64)})
        et = df["event_type"].to_numpy()
        cents = df["cents"].to_numpy(np.int64)
        o = np.lexsort((-cents, et))
        et, cents = et[o], cents[o]
        starts = np.flatnonzero(np.r_[True, et[1:] != et[:-1]])
        ends = np.r_[starts[1:], len(et)]
        out_t, out_n, out_k, out_s = [], [], [], []
        for s, e in zip(starts, ends):
            seg = cents[s:e]
            tot = int(seg.sum())
            pref = np.cumsum(seg)
            hit = np.flatnonzero(2 * pref >= tot)
            k = int(hit[0]) + 1 if len(hit) else -1
            out_t.append(et[s])
            out_n.append(e - s)
            out_k.append(k)
            out_s.append(tot)
        return pd.DataFrame({"event_type": out_t,
                             "n_events": np.array(out_n, np.int64),
                             "k_half": np.array(out_k, np.int64),
                             "total_cents": np.array(out_s,
                                                     np.int64)})

    ds = ev.map_batches(annotate, batch_format="pyarrow")
    return (_with_bucket(ds, "tkey", 4)
            .groupby("bucket").map_groups(fold, batch_format="pandas")
            .map_batches(lambda t: t.drop_columns(
                [c for c in ("bucket",) if c in t.column_names]),
                batch_format="pyarrow"))



QUERIES["nucleus_mass_types"] = q_nucleus_mass_types

ORACLE_SQL["nucleus_mass_types"] = """
        WITH e AS (SELECT event_type,
                          CAST(floor(value * 100.0 + 0.5) AS BIGINT)
                            AS cents
                   FROM events),
        r AS (SELECT event_type, cents,
                     ROW_NUMBER() OVER (PARTITION BY event_type
                                        ORDER BY cents DESC) AS rn,
                     SUM(cents) OVER (PARTITION BY event_type
                                      ORDER BY cents DESC
                                      ROWS UNBOUNDED PRECEDING)
                       AS pref,
                     SUM(cents) OVER (PARTITION BY event_type)
                       AS tot,
                     COUNT(*) OVER (PARTITION BY event_type) AS n
              FROM e)
        SELECT event_type, CAST(MAX(n) AS BIGINT) AS n_events,
               CAST(COALESCE(MIN(CASE WHEN 2 * pref >= tot
                                      THEN rn END), -1)
                    AS BIGINT) AS k_half,
               CAST(MAX(tot) AS BIGINT) AS total_cents
        FROM r GROUP BY 1
    """



def q_gray_modes_images(sf_dir: str):
    """Top-2 gray-histogram modes per image (first 1024): the
    dominant level, its count, and the runner-up (smallest level
    wins count ties) — the background/foreground separability a
    palette or binarization stage checks first. Modes read off the
    same vectorized per-image 256-bin histogram tensor as Otsu (one
    bincount per size group, one argmax per axis). Python-int replay
    sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class ModeStage:
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
            out = {"image_id": [], "mode1": [], "count1": [],
                   "mode2": [], "count2": []}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                n = len(slots)
                code = (np.arange(n)[:, None, None] * 256 + gray)
                hist = np.bincount(code.ravel(),
                                   minlength=n * 256) \
                    .reshape(n, 256).astype(np.int64)
                m1 = hist.argmax(axis=1)  # first max = smallest level
                c1 = hist[np.arange(n), m1]
                h2 = hist.copy()
                h2[np.arange(n), m1] = -1
                m2 = h2.argmax(axis=1)
                c2 = hist[np.arange(n), m2]
                out["image_id"].append(ids[slots])
                out["mode1"].append(m1.astype(np.int64))
                out["count1"].append(c1)
                out["mode2"].append(m2.astype(np.int64))
                out["count2"].append(c2)
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(ModeStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["gray_modes_images"] = q_gray_modes_images



def _gray_modes_sidecar(img: str, n: int = 1024) -> str:
    """Python-int replay for gray_modes_images. Content-keyed on
    synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_graymodes_{Path(img).name}_{n}_{_mods_digest(_sy)}.parquet"
    )
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        cols = {k: np.zeros(len(ws), np.int64)
                for k in ("mode1", "count1", "mode2", "count2")}
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            m = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[m], wi, hi)
            for j, slot in enumerate(m):
                hist = [0] * 256
                for y in range(hi):
                    for x in range(wi):
                        g = (int(px[j, y, x, 0])
                             + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        hist[g] += 1
                best1, lvl1 = -1, -1
                for g in range(256):
                    if hist[g] > best1:
                        best1, lvl1 = hist[g], g
                best2, lvl2 = -1, -1
                for g in range(256):
                    if g != lvl1 and hist[g] > best2:
                        best2, lvl2 = hist[g], g
                cols["mode1"][slot] = lvl1
                cols["count1"][slot] = best1
                cols["mode2"][slot] = lvl2
                cols["count2"][slot] = best2
        out = pa.table({"image_id": ids,
                        **{k: pa.array(v) for k, v in cols.items()}})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)

__defined__ = (
    '_DAILY_CENTS_SQL',
    '_ZQ_BOXES',
    '_ZQ_RES',
    '_audio_haar_sidecar',
    '_pair_candidate_docs',
    '_pair_payload_join',
    '_audio_haar_sql',
    '_audio_loudest_sidecar',
    '_audio_loudest_sql',
    '_audio_onsets_sidecar',
    '_audio_onsets_sql',
    '_audio_walsh_sidecar',
    '_audio_walsh_sql',
    '_best_split_sidecar',
    '_best_split_sql',
    '_blob_count_sidecar',
    '_blob_count_sql',
    '_closest_pair_sql',
    '_containment_sidecar',
    '_containment_sql',
    '_coverage_holes_sql',
    '_cross_source_leakage_sql',
    '_disc_tile_counts_sql',
    '_gray_modes_sidecar',
    '_hist_eq_sidecar',
    '_hist_eq_sql',
    '_image_haar_sidecar',
    '_image_haar_sql',
    '_kcore_sidecar',
    '_kcore_sql',
    '_largest_blob_sidecar',
    '_largest_blob_sql',
    '_mirror_sidecar',
    '_mirror_sql',
    '_nearest_route_share_sql',
    '_otsu_sidecar',
    '_otsu_sql',
    '_phash_nn_sql',
    '_popcount64',
    '_probe_sign_literal',
    '_quadkey_occupancy_sql',
    '_range_density_sidecar',
    '_range_density_sql',
    '_sig_agreement_sidecar',
    '_sig_agreement_sql',
    '_simhash_bit_bias_sql',
    '_triplet_sidecar',
    '_triplet_sql',
    '_video_flicker_sidecar',
    '_video_flicker_sql',
    '_video_quadrant_sidecar',
    '_video_quadrant_sql',
    '_video_thaar_sidecar',
    '_video_thaar_sql',
    '_zorder_range_sql',
    '_zorder_ranges',
    'q_anagram_groups_docs',
    'q_anomalous_minutes_events',
    'q_audio_haar_detail_tracks',
    'q_audio_loudest_window',
    'q_audio_onsets_tracks',
    'q_audio_walsh_bands',
    'q_best_split_daily',
    'q_blob_count_images',
    'q_burst_window_max_users',
    'q_bursty_customers_nations',
    'q_butterfly_count_cs',
    'q_cheapest_supplier_parts',
    'q_closest_pair_tiles',
    'q_containment_pairs_docs',
    'q_coverage_holes_cells',
    'q_cross_source_leakage',
    'q_csv_roundtrip_events',
    'q_cusum_daily_revenue',
    'q_daily_autocorr_events',
    'q_daily_xcorr_types',
    'q_degree_assortativity_dups',
    'q_disc_tile_counts',
    'q_dow_detrended_parts',
    'q_dup_component_sizes',
    'q_early_breadth_users',
    'q_gmd_nations',
    'q_gray_modes_images',
    'q_haar_energy_daily',
    'q_head_vocab_coverage_sources',
    'q_hist_equalize_sums',
    'q_image_haar_bands',
    'q_interval_merge_users',
    'q_kcore_dups',
    'q_largest_blob_images',
    'q_last_supplier_orders_q21',
    'q_lifetime_span_customers',
    'q_local_clustering_dups',
    'q_local_supplier_volume_q5',
    'q_mann_kendall_nations',
    'q_mirror_symmetry_images',
    'q_mutual_best_pairs',
    'q_nation_quartile_bands',
    'q_near_simultaneous_pairs',
    'q_nearest_route_share',
    'q_nucleus_mass_types',
    'q_order_delta_signs',
    'q_otsu_threshold_images',
    'q_pareto_frontier_nations',
    'q_phash_nn_images',
    'q_price_endings_orders',
    'q_priority_migration_customers',
    'q_probe_energy_labels',
    'q_profit_by_nation_year',
    'q_quadkey_occupancy',
    'q_quarter_close_spike',
    'q_range_density_labels',
    'q_reorder_after_return',
    'q_repetitiveness_docs',
    'q_sessions_crossing_midnight',
    'q_sig_agreement_pairs_docs',
    'q_simhash_bit_bias',
    'q_simpson_diversity_sources',
    'q_supplier_breadth_customers',
    'q_token_burstiness_head',
    'q_triplet_violation_labels',
    'q_tumbling_argmax_events',
    'q_two_hop_dups',
    'q_type_run_lengths',
    'q_value_ecdf_probes',
    'q_video_flicker_parts',
    'q_video_quadrant_motion',
    'q_video_temporal_haar',
    'q_weak_edges_dups',
    'q_zorder_range_counts',
)
