"""Query battery part — 56 driver queries (split from the former single-module queries.py).

Registers:
audio_crest_factor, video_pixel_range_hist, cm_heavy_hitters_audit,
tax_rounding_audit, palette_quant_images, dup_diameter_sweep,
spectral_mass_embeddings, front_coding_vocab,
length_sortedness_sources, shape_seg_length_bands,
saturation_census_images, audio_lsb_bias, gtfs_leg_speed_audit,
freq_spectrum_sources, granulometry_images, gtfs_transfer_windows,
bpe_merges_docs, gram_det_embeddings, route_color_contrast,
rice_coding_tracks, pair_dist_hist_embeddings,
shape_orientation_audit, bright_rect_images, video_loop_period,
coverage_saturation_curve, single_linkage_merges,
caption_token_brightness_lift, stop_dwell_census,
shingle_novelty_curve, texture_direction_census,
direction_stop_asymmetry, box_count_images, cell_moore_census,
clockface_schedule_audit, linear_counting_users,
hopkins_clusterability, gtfs_orphan_audit, onion_profile_images,
daily_ohlc_values, sttr_sources, typicality_outlier_images,
video_rice_temporal, fd_violation_audit, record_count_users,
bright_bbox_images, customer_basket_jaccard, token_stutter_docs,
trip_duration_direction_asymmetry, ldiversity_users, ktruss_dups,
split_order_audit, shape_self_intersections, dup_rows_images,
brevity_law_docs, schedule_overtake_audit,
selectivity_independence_audit
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
    _e,
    _fixture_sql_dir,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
    _ref_sidecar,
    _rename,
    _sql_cell,
    _sql_quant,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b03_misc import (
    _video_dir_for,
)  # noqa: F401

from .b06_misc import (
    _TYPE_BITS,
    _mass_sidecar,
    q_audio_crest_factor,
)  # noqa: F401



QUERIES["audio_crest_factor"] = q_audio_crest_factor



def _audio_crest_sidecar(aud: str) -> str:
    """Python-int replay for audio_crest_factor."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiocrest_{Path(aud).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            peak = energy = 0
            dc = 0
            n = 0
            for v in pcm[j].tolist():
                v = int(v)
                a = -v if v < 0 else v
                if a > peak:
                    peak = a
                energy += v * v
                dc += v
                n += 1
            lhs = peak * peak * n
            cls = 0 if lhs < 4 * energy else (
                1 if lhs < 16 * energy else 2)
            rows.append({"track_id": tid, "peak": peak,
                         "energy": energy, "dc": dc,
                         "crest_class": cls})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_crest_sql(aud: str) -> str:
    return (f"SELECT track_id, peak, energy, dc, crest_class "
            f"FROM read_parquet('{_audio_crest_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# video_pixel_range_hist: per-pixel temporal-range histogram per clip
# ---------------------------------------------------------------------------


def q_video_pixel_range_hist(sf_dir: str):
    """Temporal-activity fingerprint per clip: histogram of the
    per-pixel TEMPORAL range (max over frames − min over frames, per
    (y, x, channel) scalar) in exact bit-length buckets 0..8 —
    bucket 0 is the static mask (logos, letterbox bars, dead
    regions), high buckets are hard cuts/noise; the per-pixel dual
    of the frame-grain motion ops. Conservation: Σn = h·w·3 per
    clip. One max − min over the frame axis + one bincount per
    stacked 5-D tensor. Python-int replay sidecar."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def stage(batch: pa.Table) -> pa.Table:
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
        out_id, out_b, out_n = [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            rng = clips.max(axis=1) - clips.min(axis=1)  # (k,h,w,3)
            # exact bit length of 0..255 via one LUT gather
            lut = np.array([int(v).bit_length()
                            for v in range(256)], np.int64)
            buck = lut[rng]
            k = len(slots)
            cnt = np.zeros((k, 9), np.int64)
            flat = buck.reshape(k, -1)
            for j in range(k):
                cnt[j] = np.bincount(flat[j], minlength=9)
            for b_ in range(9):
                out_id.append(ids[slots])
                out_b.append(np.full(k, b_, np.int64))
                out_n.append(cnt[:, b_])
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "bucket": pa.array(np.concatenate(out_b)),
            "n": pa.array(np.concatenate(out_n))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["video_pixel_range_hist"] = q_video_pixel_range_hist



def _video_ptp_sidecar(vid: str) -> str:
    """Python-int replay for video_pixel_range_hist."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videoptp_{Path(vid).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        rows = []
        for cid in ids.tolist():
            frames = [_sy.pixel_pattern(
                np.array([cid * 64 + f], np.uint64),
                _sy.VIDEO_W, _sy.VIDEO_H)[0] for f in range(nf)]
            cnt = [0] * 9
            for y in range(_sy.VIDEO_H):
                for x in range(_sy.VIDEO_W):
                    for c in range(3):
                        vals = [int(frames[f][y, x, c])
                                for f in range(nf)]
                        cnt[(max(vals) - min(vals)).bit_length()] += 1
            for b in range(9):
                rows.append({"clip_id": cid, "bucket": b,
                             "n": cnt[b]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_ptp_sql(vid: str) -> str:
    return (f"SELECT clip_id, bucket, n "
            f"FROM read_parquet('{_video_ptp_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# cm_heavy_hitters_audit: Count-Min sketch vs exact top-8 user counts
# ---------------------------------------------------------------------------

_CM_ROWS, _CM_COLS, _CM_K = 4, 512, 8

_CM_GOLD = 0x9E3779B97F4A7C15



def q_cm_heavy_hitters_audit(sf_dir: str):
    """Count-Min sketch audit: a 4×512 int64 CM grid over user_id
    event counts (row r hashes u via splitmix64(u + (r+1)·golden)
    mod 512), probed at the EXACT top-8 users (by count DESC, user
    ASC) so the driver sees estimate, truth and the one-sided
    overestimate together — the collision-error calibration a
    shuffle-free heavy-hitter stage needs before trusting the
    sketch. Grid partials are ≤ 2048 nonzero cells per batch
    regardless of corpus size (mergeable by cell sum); the exact
    companion rides one user-cardinality shuffle. Python sm64
    sketch replay × direct-SQL exact counts."""
    from geotile.synth import splitmix64

    ev = _read(sf_dir, "events", ["user_id"])

    def grid_part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        rs, cs, ns = [], [], []
        for r in range(_CM_ROWS):
            salt = np.uint64(((r + 1) * _CM_GOLD) % (1 << 64))
            idx = (splitmix64(u + salt)
                   % np.uint64(_CM_COLS)).astype(np.int64)
            cnt = np.bincount(idx, minlength=_CM_COLS)
            nz = np.flatnonzero(cnt)
            rs.append(np.full(len(nz), r, np.int64))
            cs.append(nz.astype(np.int64))
            ns.append(cnt[nz].astype(np.int64))
        return pa.table({"r": pa.array(np.concatenate(rs)),
                         "c": pa.array(np.concatenate(cs)),
                         "n": pa.array(np.concatenate(ns))})

    cells = (ev.map_batches(grid_part, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["r", "c"]).sum("n")).take_all()  # ≤2048 rows
    grid = np.zeros((_CM_ROWS, _CM_COLS), np.int64)
    for row in cells:
        grid[int(row["r"]), int(row["c"])] = int(row["sum(n)"])

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": t["user_id"],
                      "c": pa.array(np.ones(len(t), np.int64))}) \
            .group_by("user_id").aggregate([("c", "sum")])
        return g.rename_columns(["user_id", "c"])

    top = (ev.map_batches(count_part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("user_id").sum("c")
           .sort(["sum(c)", "user_id"], descending=[True, False])
           .limit(_CM_K)).take_all()

    rows = []
    for r_ in top:
        u = int(r_["user_id"])
        exact = int(r_["sum(c)"])
        est = min(
            int(grid[r, int(splitmix64(np.array(
                [(u + (r + 1) * _CM_GOLD) % (1 << 64)],
                np.uint64))[0] % np.uint64(_CM_COLS))])
            for r in range(_CM_ROWS))
        rows.append((u, exact, est, est - exact))
    return pd.DataFrame(rows, columns=["user_id", "exact_c",
                                       "est_c", "over_c"])



QUERIES["cm_heavy_hitters_audit"] = q_cm_heavy_hitters_audit



def _cmhh_sidecar(sf_dir: str) -> str:
    """Python sm64 Count-Min replay (independent of numpy paths)."""
    from battery.oracle_ref import sm64

    def build() -> pa.Table:
        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf_dir}/events.parquet')")
        counts = con.execute(
            "SELECT user_id, COUNT(*) FROM events GROUP BY 1"
        ).fetchall()
        grid = [[0] * _CM_COLS for _ in range(_CM_ROWS)]
        for u, c in counts:
            for r in range(_CM_ROWS):
                h = sm64((int(u) + (r + 1) * _CM_GOLD) % (1 << 64))
                grid[r][h % _CM_COLS] += int(c)
        top = sorted(counts, key=lambda rc: (-rc[1], rc[0]))[:_CM_K]
        rows = []
        for u, c in top:
            est = min(grid[r][sm64((int(u) + (r + 1) * _CM_GOLD)
                                   % (1 << 64)) % _CM_COLS]
                      for r in range(_CM_ROWS))
            rows.append({"user_id": int(u), "est_c": est})
        return pa.Table.from_pylist(rows)

    return _ref_sidecar(sf_dir, "cmsketch", build)



def _cmhh_sql(sf_dir: str) -> str:
    return f"""
        WITH e AS (SELECT user_id,
                          CAST(COUNT(*) AS BIGINT) AS exact_c,
                          ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC,
                                             user_id) AS rn
                   FROM events GROUP BY 1)
        SELECT e.user_id, e.exact_c, s.est_c,
               CAST(s.est_c - e.exact_c AS BIGINT) AS over_c
        FROM e JOIN read_parquet('{_cmhh_sidecar(sf_dir)}') s
            USING (user_id)
        WHERE e.rn <= {_CM_K}
    """



# ---------------------------------------------------------------------------
# tax_rounding_audit: per-line vs per-order rounding reconciliation
# ---------------------------------------------------------------------------


def q_tax_rounding_audit(sf_dir: str):
    """Financial rounding reconciliation: for every order, the tax
    computed by rounding each LINE to cents (half-up) vs rounding the
    order TOTAL once — the classic invoicing discrepancy (sum of
    rounded != rounded sum) that a billing pipeline must audit before
    reconciling ledgers. Exact integers throughout: price·tax on the
    e4 lattice, half-up via (x+50)//100, so the discrepancy is a small
    non-negative-biased integer per order. Output = the discrepancy
    histogram. Per-batch (order, Σx, Σround(x)) partials — both sums
    additive — one orderkey-grain shuffle, then order-scale epilogue
    and a histogram contraction. Same integer math replayed in SQL."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_tax"])

    def part(t: pa.Table) -> pa.Table:
        p = pc.round(pc.multiply(t["l_extendedprice"],
                                 pa.scalar(100.0))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        tx = pc.round(pc.multiply(t["l_tax"],
                                  pa.scalar(100.0))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        x = p * tx
        g = pa.table({"l_orderkey": t["l_orderkey"],
                      "s_raw": pa.array(x),
                      "s_line": pa.array((x + 50) // 100)}) \
            .group_by("l_orderkey").aggregate([("s_raw", "sum"),
                                               ("s_line", "sum")])
        return g.rename_columns(["l_orderkey", "s_raw", "s_line"])

    per_order = (li.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .groupby("l_orderkey").sum(["s_raw", "s_line"]))

    def hist(t: pa.Table) -> pa.Table:
        raw = t["sum(s_raw)"].to_numpy(zero_copy_only=False)
        line = t["sum(s_line)"].to_numpy(zero_copy_only=False)
        disc = line - (raw + 50) // 100
        uniq, cnt = np.unique(disc, return_counts=True)
        return pa.table({"disc": pa.array(uniq),
                         "n_orders": pa.array(cnt.astype(np.int64))})

    out = (per_order.map_batches(hist, batch_format="pyarrow")
           .groupby("disc").sum("n_orders"))
    return _rename(out, ["disc", "n_orders"])



QUERIES["tax_rounding_audit"] = q_tax_rounding_audit

ORACLE_SQL["tax_rounding_audit"] = """
        WITH l AS (SELECT l_orderkey,
                          CAST(round(l_extendedprice * 100)
                              AS BIGINT) *
                          CAST(round(l_tax * 100) AS BIGINT) AS x
                   FROM lineitem),
        o AS (SELECT l_orderkey,
                     SUM((x + 50) // 100) AS s_line,
                     (SUM(x) + 50) // 100 AS s_order
              FROM l GROUP BY 1)
        SELECT CAST(s_line - s_order AS BIGINT) AS disc,
               CAST(COUNT(*) AS BIGINT) AS n_orders
        FROM o GROUP BY 1
    """



# ---------------------------------------------------------------------------
# palette_quant_images: nearest-corner palette quantization census
# ---------------------------------------------------------------------------


def q_palette_quant_images(sf_dir: str):
    """Palette quantization audit per image (first 1024): assign every
    pixel to the nearest of the 8 RGB-cube corners (exact squared
    distance, ties to the smallest palette index) and emit per-color
    pixel counts plus the exact total quantization error mass per
    color — the dithering/posterization cost signal an 8-color
    thumbnail or classifier front end keys on, and a per-image color
    composition fingerprint. Conservation: Σn = h·w. One broadcasted
    (k,h,w,8) distance tensor + argmin per size group. Scalar replay
    sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)
    corners = np.array([[(c >> 2) & 1, (c >> 1) & 1, c & 1]
                        for c in range(8)], np.int64) * 255

    class PaletteStage:
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
            out_id, out_c, out_n, out_e = [], [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                # (k,h,w,8) exact squared distances to the corners
                diff = px[..., None, :] - corners[None, None, None]
                d2 = (diff * diff).sum(axis=-1)
                best = d2.argmin(axis=-1)  # first min = smallest idx
                err = np.take_along_axis(
                    d2, best[..., None], axis=-1)[..., 0]
                k = len(slots)
                for c in range(8):
                    m = best == c
                    out_id.append(ids[slots])
                    out_c.append(np.full(k, c, np.int64))
                    out_n.append(m.sum(axis=(1, 2)).astype(np.int64))
                    out_e.append((err * m).sum(axis=(1, 2))
                                 .astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "color": pa.array(np.concatenate(out_c)),
                "n": pa.array(np.concatenate(out_n)),
                "err": pa.array(np.concatenate(out_e))})

    return ds.map_batches(PaletteStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["palette_quant_images"] = q_palette_quant_images



def _palette_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for palette_quant_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_palette_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        corners = [((c >> 2 & 1) * 255, (c >> 1 & 1) * 255,
                    (c & 1) * 255) for c in range(8)]
        rows = []
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                cnt = [0] * 8
                errs = [0] * 8
                for y in range(hi):
                    for x in range(wi):
                        r = int(px[j, y, x, 0])
                        g = int(px[j, y, x, 1])
                        b = int(px[j, y, x, 2])
                        best, bd = -1, None
                        for c, (cr, cg, cb) in enumerate(corners):
                            d = ((r - cr) ** 2 + (g - cg) ** 2
                                 + (b - cb) ** 2)
                            if bd is None or d < bd:
                                best, bd = c, d
                        cnt[best] += 1
                        errs[best] += bd
                for c in range(8):
                    rows.append({"image_id": str(iid[slot]),
                                 "color": c, "n": cnt[c],
                                 "err": errs[c]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _palette_sql(img: str) -> str:
    return (f"SELECT image_id, color, n, err "
            f"FROM read_parquet('{_palette_sidecar(img)}')")



# ---------------------------------------------------------------------------
# dup_diameter_sweep: double-BFS eccentricity of the largest dup component
# ---------------------------------------------------------------------------


def q_dup_diameter_sweep(sf_dir: str):
    """Diameter double-sweep of the LARGEST near-dup component (by
    size, tie = smallest member): BFS to exhaustion from the smallest
    node, hop to the farthest reached node (tie = smallest id), BFS
    again — ecc2 is the classic diameter lower bound (exact on trees,
    sharp in practice) and the chain-length signal that distinguishes
    drifting near-dup CHAINS (transitive closure over-merges) from
    tight clusters. Both sweeps run level-synchronously through the
    distributed bfs_levels engine (size-guarded semi/anti joins per
    round, frontier never on the driver); only the component ledger
    and two single-row picks land driver-side. Independent python
    deque-BFS replay over the SQL cosine-join pairs."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.ops.graph import bfs_levels, connected_components

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35)
    edges = pairs.select_columns(["a", "b"]).materialize()
    cc = connected_components(edges, "a", "b", n_buckets=8)

    def part(t: pa.Table) -> pa.Table:
        g = pa.table({"cluster_id": t["cluster_id"],
                      "size": pa.array(np.ones(len(t), np.int64)),
                      "node_min": t["node"].cast(pa.int64())}) \
            .group_by("cluster_id").aggregate([("size", "sum"),
                                               ("node_min", "min")])
        return g.rename_columns(["cluster_id", "size", "node_min"])

    ledger = (cc.map_batches(part, batch_format="pyarrow")
              .groupby("cluster_id")
              .aggregate(rd.aggregate.Sum("size"),
                         rd.aggregate.Min("node_min"))).take_all()
    if not ledger:
        return pd.DataFrame(columns=["cluster_id", "size", "start",
                                     "far_node", "ecc1", "ecc2"])
    best = max(ledger, key=lambda r: (int(r["sum(size)"]),
                                      -int(r["cluster_id"])))
    cid = int(best["cluster_id"])
    size = int(best["sum(size)"])
    start = int(best["min(node_min)"])

    def sweep(seed: int):
        seeds = rd.from_arrow(pa.table({"node": pa.array(
            [seed], pa.int64())}))
        lv = bfs_levels(edges, seeds, rounds=64, n_buckets=8)
        far = lv.sort(["level", "node"],
                      descending=[True, False]).limit(1).take_all()[0]
        return int(far["node"]), int(far["level"])

    far1, ecc1 = sweep(start)
    far2, ecc2 = sweep(far1)
    return pd.DataFrame([(cid, size, start, far1, ecc1, ecc2)],
                        columns=["cluster_id", "size", "start",
                                 "far_node", "ecc1", "ecc2"])



QUERIES["dup_diameter_sweep"] = q_dup_diameter_sweep



def _diameter_sidecar(sf_dir: str) -> str:
    """Independent python deque-BFS double sweep over the SQL pairs."""

    def build() -> pa.Table:
        from collections import deque

        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        adj: dict[int, set] = {}
        for a, b, *_ in prs:
            adj.setdefault(int(a), set()).add(int(b))
            adj.setdefault(int(b), set()).add(int(a))

        def bfs(s: int):
            dist = {s: 0}
            dq = deque([s])
            while dq:
                u = dq.popleft()
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        dq.append(v)
            return dist

        # components via BFS; largest by (size, smallest member)
        seen: set = set()
        comps = []
        for s in sorted(adj):
            if s in seen:
                continue
            d = bfs(s)
            seen |= set(d)
            comps.append(sorted(d))
        if not comps:
            return pa.table({"cluster_id": pa.array([], pa.int64()),
                             "size": pa.array([], pa.int64()),
                             "start": pa.array([], pa.int64()),
                             "far_node": pa.array([], pa.int64()),
                             "ecc1": pa.array([], pa.int64()),
                             "ecc2": pa.array([], pa.int64())})
        comp = max(comps, key=lambda c: (len(c), -c[0]))
        start = comp[0]
        d1 = bfs(start)
        ecc1 = max(d1.values())
        far1 = min(n for n, d in d1.items() if d == ecc1)
        d2 = bfs(far1)
        ecc2 = max(d2.values())
        return pa.table({
            "cluster_id": pa.array([comp[0]], pa.int64()),
            "size": pa.array([len(comp)], pa.int64()),
            "start": pa.array([start], pa.int64()),
            "far_node": pa.array([far1], pa.int64()),
            "ecc1": pa.array([ecc1], pa.int64()),
            "ecc2": pa.array([ecc2], pa.int64())})

    return _ref_sidecar(sf_dir, "diameter", build)



def _diameter_sql(sf_dir: str) -> str:
    return (f"SELECT cluster_id, size, start, far_node, ecc1, ecc2 "
            f"FROM read_parquet('{_diameter_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# spectral_mass_embeddings: second-moment spectral mass (effective rank)
# ---------------------------------------------------------------------------


def q_spectral_mass_embeddings(sf_dir: str):
    """Spectral mass of the embedding second-moment matrix M = Σ v·vᵀ
    on the e6 lattice: n, trace(M) = Σ‖v‖² and the Frobenius mass
    ‖M‖²_F = Σ_ab M_ab² — the two spectral moments whose ratio
    trace²/‖M‖²_F is the participation ratio (effective rank): ≈1
    means the corpus collapsed to one direction (the anisotropy op's
    first-moment cousin, but robust to mean-centering tricks), ≈dim
    means isotropic. ONE streaming pass: each batch contributes the
    64×64 Gram partial VᵀV as ≤4096 mergeable (a, b, m) cells, so the
    O(n·d²) work distributes and only dim² integers shuffle. Bounds:
    M_ab ≤ n·10¹² (int64-safe to ~9M vectors — beyond that the cell
    values need a hi/lo split, noted here for the 100-TB path);
    ‖M‖²_F exceeds int64 so the epilogue forms it in python big ints
    and ships decimal digits (DuckDB replays in HUGEINT). Full
    unnest + dim-pair self-join SQL replay, no sidecar."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def part(t: pa.Table) -> pa.Table:
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        M = V.T @ V  # (64, 64)
        d = M.shape[0]
        a = np.repeat(np.arange(d, dtype=np.int64), d)
        b = np.tile(np.arange(d, dtype=np.int64), d)
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "m": pa.array(M.reshape(-1)),
                         "n": pa.array(np.full(d * d, len(V) // 1,
                                               np.int64))})

    cells = (emb.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
             .groupby(["a", "b"]).sum(["m", "n"])).take_all()
    trace = 0
    frob2 = 0
    n = 0
    for r in cells:
        m = int(r["sum(m)"])
        frob2 += m * m
        if int(r["a"]) == int(r["b"]):
            trace += m
            if int(r["a"]) == 0:
                n = int(r["sum(n)"])
    return pd.DataFrame({"n": np.array([n], np.int64),
                         "trace": np.array([trace], np.int64),
                         "frob2": [str(frob2)]})



QUERIES["spectral_mass_embeddings"] = q_spectral_mass_embeddings

ORACLE_SQL["spectral_mass_embeddings"] = """
        WITH x AS (SELECT vec_id, dim,
                          CAST(floor(CAST(v AS DOUBLE) * 1000000.0)
                              AS BIGINT) AS x
                   FROM embeddings,
                        LATERAL (SELECT unnest(embedding) AS v,
                                 generate_subscripts(embedding, 1)
                                     AS dim)),
        m AS (SELECT a.dim AS da, b.dim AS db,
                     CAST(SUM(a.x * b.x) AS BIGINT) AS m
              FROM x a JOIN x b USING (vec_id) GROUP BY 1, 2)
        SELECT CAST((SELECT COUNT(*) FROM embeddings) AS BIGINT) AS n,
               CAST((SELECT SUM(m) FROM m WHERE da = db)
                   AS BIGINT) AS trace,
               CAST(CAST((SELECT SUM(CAST(m AS HUGEINT)
                                     * CAST(m AS HUGEINT)) FROM m)
                         AS HUGEINT) AS VARCHAR) AS frob2
    """



# ---------------------------------------------------------------------------
# front_coding_vocab: front-coding compression cost of the vocabulary
# ---------------------------------------------------------------------------


def q_front_coding_vocab(sf_dir: str):
    """Front-coding audit of the corpus vocabulary: sort the distinct
    tokens, charge each token only its suffix after the longest
    common prefix with its predecessor — n_tokens, raw char mass,
    chars saved, and the deepest shared prefix. The dictionary-layout
    estimate every term-dictionary / SSTable index block makes before
    choosing a string encoding (the storage-engine sibling of the
    Elias-gamma rank-coding op). The corpus contracts to the
    Heaps-bounded vocabulary ledger in one token groupby; the sorted
    LCP fold is one padded uint32 char-matrix compare (vectorized, at
    vocabulary scale, on the driver — bounded by Heaps' law, never
    the corpus). LAG + correlated-series substr replay."""
    docs = _read(sf_dir, "documents", ["text"])

    def tok_part(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        toks = flat.to_numpy(zero_copy_only=False)
        toks = np.unique(toks[toks != ""])
        return pa.table({"token": pa.array(toks)})

    vocab_rows = (docs.map_batches(tok_part, batch_format="pyarrow")
                  .groupby("token").count()).take_all()
    vocab = sorted(r["token"] for r in vocab_rows)
    if not vocab:
        return pd.DataFrame({"n_tokens": np.array([0], np.int64),
                             "raw_chars": np.array([0], np.int64),
                             "saved_chars": np.array([0], np.int64),
                             "max_lcp": np.array([0], np.int64)})
    lens = np.array([len(s) for s in vocab], np.int64)
    maxlen = int(lens.max())
    arr = np.array(vocab, dtype=f"U{maxlen}") \
        .view(np.uint32).reshape(len(vocab), maxlen)
    eq = arr[1:] == arr[:-1]
    # LCP = leading-True run length, capped at min(len, prev len)
    run = np.where(eq.all(axis=1), maxlen,
                   np.argmin(eq, axis=1)).astype(np.int64)
    lcp = np.minimum(run, np.minimum(lens[1:], lens[:-1]))
    return pd.DataFrame({
        "n_tokens": np.array([len(vocab)], np.int64),
        "raw_chars": np.array([int(lens.sum())], np.int64),
        "saved_chars": np.array([int(lcp.sum())], np.int64),
        "max_lcp": np.array([int(lcp.max()) if len(lcp) else 0],
                            np.int64)})



QUERIES["front_coding_vocab"] = q_front_coding_vocab

ORACLE_SQL["front_coding_vocab"] = """
        WITH v AS (SELECT DISTINCT tok FROM (
                       SELECT unnest(string_split(text, ' ')) AS tok
                       FROM documents) WHERE tok <> ''),
        s AS (SELECT tok, LAG(tok) OVER (ORDER BY tok) AS prev FROM v),
        g AS (SELECT CAST(i AS INT) AS i
              FROM generate_series(1, 512) t(i)),
        l AS (SELECT tok, length(tok) AS ln,
                     CASE WHEN prev IS NULL THEN 0
                          ELSE COALESCE((
                              SELECT MAX(g.i) FROM g
                              WHERE g.i <= LEAST(length(tok),
                                                 length(prev))
                                AND substr(tok, 1, g.i)
                                    = substr(prev, 1, g.i)),
                              0)
                     END AS lcp
              FROM s)
        SELECT CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(SUM(ln) AS BIGINT) AS raw_chars,
               CAST(SUM(lcp) AS BIGINT) AS saved_chars,
               CAST(MAX(lcp) AS BIGINT) AS max_lcp
        FROM l
    """



# ---------------------------------------------------------------------------
# length_sortedness_sources: doc-length ordering audit per source
# ---------------------------------------------------------------------------


def q_length_sortedness_sources(sf_dir: str):
    """Length-sortedness audit per source (docs in doc_id order):
    nondecreasing adjacent n_chars pairs and the longest
    nondecreasing run — a source whose lengths arrive sorted was
    length-bucketed upstream (the classic curriculum/padding-
    efficiency shard layout), which biases any sequential sampler
    toward short-then-long curricula; random arrival reads ≈ half
    the pairs nondecreasing. The lang-run discipline lifted to the
    length axis. One sort + run fold inside a source co-partition.
    LAG window replay."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def with_sbucket(t: pa.Table) -> pa.Table:
        s = t["source"].to_pylist()
        h = np.array([sum(b for b in x.encode()) & 15 for x in s],
                     np.int64)
        return t.append_column("bucket", pa.array(h))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        src = df["source"].to_numpy()
        did = df["doc_id"].to_numpy(np.int64)
        nc = df["n_chars"].to_numpy(np.int64)
        o = np.lexsort((did, src))
        src, nc = src[o], nc[o]
        same = src[1:] == src[:-1]
        nondec = same & (nc[1:] >= nc[:-1])
        # islands of nondecreasing steps: a run of length L docs has
        # L-1 nondecreasing pairs; break at source change or decrease
        brk = np.r_[True, ~nondec]
        isl = np.cumsum(brk) - 1
        lengths = np.bincount(isl).astype(np.int64)
        isl_src = src[brk]
        per = pd.DataFrame({"source": isl_src, "L": lengths})
        agg = per.groupby("source", sort=True)["L"] \
            .agg(["max", "count", "sum"])
        return pd.DataFrame({
            "source": agg.index.to_numpy(),
            "n_docs": agg["sum"].to_numpy(np.int64),
            "nondec_pairs": (agg["sum"]
                             - agg["count"]).to_numpy(np.int64),
            "longest_run": agg["max"].to_numpy(np.int64)})

    return (docs.map_batches(with_sbucket, batch_format="pyarrow")
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas"))



QUERIES["length_sortedness_sources"] = q_length_sortedness_sources

ORACLE_SQL["length_sortedness_sources"] = """
        WITH l AS (SELECT source, doc_id, n_chars,
                          LAG(n_chars) OVER (PARTITION BY source
                                             ORDER BY doc_id) AS pn
                   FROM documents),
        m AS (SELECT source, doc_id, n_chars,
                     CASE WHEN pn IS NULL OR n_chars < pn
                          THEN 1 ELSE 0 END AS brk
              FROM l),
        i AS (SELECT source,
                     SUM(brk) OVER (PARTITION BY source
                                    ORDER BY doc_id
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                             AND CURRENT ROW) AS isl
              FROM m),
        runs AS (SELECT source, isl, COUNT(*) AS L
                 FROM i GROUP BY 1, 2)
        SELECT source,
               CAST(SUM(L) AS BIGINT) AS n_docs,
               CAST(SUM(L - 1) AS BIGINT) AS nondec_pairs,
               CAST(MAX(L) AS BIGINT) AS longest_run
        FROM runs GROUP BY 1
    """



# ---------------------------------------------------------------------------
# shape_seg_length_bands: GTFS shape-segment length-band census
# ---------------------------------------------------------------------------


def q_shape_seg_length_bands(sf_dir: str):
    """Segment-length-band census per GTFS shape: quantize every
    shape point to the e5 lattice (the shape_cell_trace convention,
    floor((lon+180)·1e5) / floor((lat+90)·1e5)), take consecutive
    segments in shape_pt_sequence order, and histogram the exact
    integer squared chord d2 = dx² + dy² into bit-length bands —
    band 0 is coincident/duplicate points (the GTFS-quality smell
    the reference's simplify step papers over), low bands are
    dense urban polylines, high bands are inter-station gaps or
    sensor glitches. The sampling-density profile a map-matcher or
    RDP-epsilon chooser keys on. d2 < 2·(3.6e7)² < 2⁵² so frexp
    exponents are exact bit lengths. One sort + diff inside a
    shape co-partition; output is band-cardinality rows per shape.
    Full LAG-window SQL replay over the fixture parquet (reference
    shape handling: src/lib/geojson-utils.ts:209-253)."""
    d = _fixture_sql_dir()
    sh = rd.read_parquet(f"{d}/shapes.parquet")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        x = np.floor((df["shape_pt_lon"].to_numpy() + 180.0)
                     * 100000.0).astype(np.int64)
        y = np.floor((df["shape_pt_lat"].to_numpy() + 90.0)
                     * 100000.0).astype(np.int64)
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        d2 = dx * dx + dy * dy
        band = np.zeros(len(d2), np.int64)
        nz = d2 > 0
        band[nz] = np.frexp(d2[nz].astype(np.float64))[1]
        per = pd.DataFrame({"band": band, "d2": d2})
        agg = per.groupby("band", sort=True)["d2"] \
            .agg(["count", "sum"])
        return pd.DataFrame({
            "shape_id": np.repeat(df["shape_id"].iloc[0],
                                  len(agg)),
            "band": agg.index.to_numpy(np.int64),
            "n_segs": agg["count"].to_numpy(np.int64),
            "d2_mass": agg["sum"].to_numpy(np.int64)})

    return sh.groupby("shape_id").map_groups(fold,
                                             batch_format="pandas")



QUERIES["shape_seg_length_bands"] = q_shape_seg_length_bands



def _shape_seg_bands_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH q AS (SELECT shape_id, shape_pt_sequence,
                          CAST(FLOOR((shape_pt_lon + 180.0)
                                     * 100000.0) AS BIGINT) AS x,
                          CAST(FLOOR((shape_pt_lat + 90.0)
                                     * 100000.0) AS BIGINT) AS y
                   FROM read_parquet('{d}/shapes.parquet')),
        dd AS (SELECT shape_id,
                      x - LAG(x) OVER w AS dx,
                      y - LAG(y) OVER w AS dy
               FROM q
               WINDOW w AS (PARTITION BY shape_id
                            ORDER BY shape_pt_sequence)),
        s AS (SELECT shape_id, dx * dx + dy * dy AS d2
              FROM dd WHERE dx IS NOT NULL)
        SELECT shape_id,
               CAST(CASE WHEN d2 = 0 THEN 0
                         ELSE length(bin(d2)) END AS BIGINT) AS band,
               CAST(COUNT(*) AS BIGINT) AS n_segs,
               CAST(SUM(d2) AS BIGINT) AS d2_mass
        FROM s GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# saturation_census_images: per-pixel chroma-saturation histogram
# ---------------------------------------------------------------------------


def q_saturation_census_images(sf_dir: str):
    """Saturation census per image (first 1024): per-pixel chroma
    range s = max(r,g,b) − min(r,g,b) histogrammed in exact
    bit-length buckets 0..8, with the exact saturation mass per
    bucket — bucket 0 is the exactly-gray count (a grayscale scan
    or screenshot lights up only bucket 0; the desaturation dual of
    the channel-ordering tie bucket), high buckets are saturated
    graphics/primaries. The grayscale-vs-color router an image
    pipeline branches on before color-space features are trusted.
    Conservation: Σn = w·h per image. Two tensor reductions + one
    LUT bincount per (w, h) size group. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class SatStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders
            self.lut = np.array([int(v).bit_length()
                                 for v in range(256)], np.int64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            ids = batch["image_id"].to_numpy(zero_copy_only=False)
            groups: dict[tuple[int, int], list[int]] = {}
            for i, (wi, hi) in enumerate(zip(ws, hs)):
                groups.setdefault((wi, hi), []).append(i)
            out_id, out_b, out_n, out_m = [], [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                s = px.max(axis=3) - px.min(axis=3)   # (k, h, w)
                buck = self.lut[s]
                k = len(slots)
                cnt = np.zeros((k, 9), np.int64)
                mass = np.zeros((k, 9), np.int64)
                flat_b = buck.reshape(k, -1)
                flat_s = s.reshape(k, -1)
                for j in range(k):
                    cnt[j] = np.bincount(flat_b[j], minlength=9)
                    mass[j] = np.bincount(flat_b[j],
                                          weights=flat_s[j],
                                          minlength=9) \
                        .astype(np.int64)
                for b_ in range(9):
                    out_id.append(ids[slots])
                    out_b.append(np.full(k, b_, np.int64))
                    out_n.append(cnt[:, b_])
                    out_m.append(mass[:, b_])
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "bucket": pa.array(np.concatenate(out_b)),
                "n": pa.array(np.concatenate(out_n)),
                "s_mass": pa.array(np.concatenate(out_m))})

    return ds.map_batches(SatStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["saturation_census_images"] = q_saturation_census_images



def _saturation_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for saturation_census_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_saturation_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                cnt = [0] * 9
                mass = [0] * 9
                for y in range(hi):
                    for x in range(wi):
                        vals = (int(px[j, y, x, 0]),
                                int(px[j, y, x, 1]),
                                int(px[j, y, x, 2]))
                        s = max(vals) - min(vals)
                        b = s.bit_length()
                        cnt[b] += 1
                        mass[b] += s
                for b in range(9):
                    rows.append({"image_id": str(iid[slot]),
                                 "bucket": b, "n": cnt[b],
                                 "s_mass": mass[b]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _saturation_sql(img: str) -> str:
    return (f"SELECT image_id, bucket, n, s_mass "
            f"FROM read_parquet('{_saturation_sidecar(img)}')")



# ---------------------------------------------------------------------------
# audio_lsb_bias: least-significant-bit parity audit per track
# ---------------------------------------------------------------------------


def q_audio_lsb_bias(sf_dir: str):
    """LSB parity audit per track: count of odd samples, the exact
    bias numerator 2·n_odd − n (reads ≈0 for honest PCM, pinned
    positive/negative for truncated-then-dithered or stego-carrying
    streams), the number of maximal same-parity runs and the
    longest one — LSB-run structure is the classic watermark /
    bit-depth-laundering tell (a 15-bit source zero-pads the LSB:
    one run of length n). One mask + one run fold per stacked
    tensor. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class LsbStage:
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
            out = {k: [] for k in ("track_id", "n_odd", "bias",
                                   "n_runs", "longest_run")}
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                par = pcm & 1                       # (k, n) in {0,1}
                n_odd = par.sum(axis=1)
                bias = 2 * n_odd - np.int64(length)
                brk = np.ones_like(par, dtype=bool)
                brk[:, 1:] = par[:, 1:] != par[:, :-1]
                n_runs = brk.sum(axis=1)
                k = len(slots)
                longest = np.zeros(k, np.int64)
                for j in range(k):
                    starts = np.nonzero(brk[j])[0]
                    lens = np.diff(np.r_[starts, length])
                    longest[j] = lens.max()
                out["track_id"].append(ids[slots])
                out["n_odd"].append(n_odd)
                out["bias"].append(bias)
                out["n_runs"].append(n_runs)
                out["longest_run"].append(longest)
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(LsbStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_lsb_bias"] = q_audio_lsb_bias



def _audio_lsb_sidecar(aud: str) -> str:
    """Python-int replay for audio_lsb_bias."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiolsb_{Path(aud).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            n_odd = 0
            n_runs = 0
            longest = 0
            cur = 0
            prev = None
            n = 0
            for v in pcm[j].tolist():
                b = int(v) & 1
                n_odd += b
                if b != prev:
                    n_runs += 1
                    cur = 1
                    prev = b
                else:
                    cur += 1
                if cur > longest:
                    longest = cur
                n += 1
            rows.append({"track_id": tid, "n_odd": n_odd,
                         "bias": 2 * n_odd - n, "n_runs": n_runs,
                         "longest_run": longest})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_lsb_sql(aud: str) -> str:
    return (f"SELECT track_id, n_odd, bias, n_runs, longest_run "
            f"FROM read_parquet('{_audio_lsb_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# gtfs_leg_speed_audit: implied-speed QA over consecutive stop legs
# ---------------------------------------------------------------------------


def q_gtfs_leg_speed_audit(sf_dir: str):
    """Implied-speed audit per route: every consecutive stop-pair leg
    of every trip gets dt = next arrival − previous departure (GTFS
    clock strings, >24:00:00 rollovers are plain arithmetic) and the
    meter-frame squared chord d² between the two stops' coordinates,
    then a speed class — 0: dt ≤ 0 (teleport/clock error, the classic
    feed-validator finding), 3: d² > (33·dt)² (> ~119 km/h, impossible
    for the mode), 2: d² > (16·dt)², 1: plausible. The schedule-
    sanity gate a feed consumer runs before trusting travel times;
    combines the stop_times clock (route_headways' input) with stop
    geometry (stop_spacing_legs' input) which neither sees alone.
    stops and trips are dimension broadcasts; the leg scan is one
    sort + diff inside a trip co-partition; only (route, class) count
    partials shuffle. LEAD-window SQL replay with the identical IEEE
    double expression tree (mx/my literals), cf. reference shape/stop
    handling src/lib/geojson-utils.ts:209-253."""
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT

    mx, my = meter_frame(_ANCHOR_LAT)
    d = _fixture_sql_dir()
    stops = rd.read_parquet(f"{d}/stops.parquet",
                            columns=["stop_id", "stop_lon",
                                     "stop_lat"]).take_all()
    smap = {r["stop_id"]: (r["stop_lon"], r["stop_lat"])
            for r in stops}
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]).take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    sref, tref = ray.put(smap), ray.put(tmap)

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id", "stop_sequence",
                                  "arrival_time", "departure_time"])

    def _secs(col: pa.ChunkedArray) -> pa.Array:
        parts = pc.split_pattern(col, ":")
        return pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))

    def attach(t: pa.Table) -> pa.Table:
        sm, tm = _broadcast(sref), _broadcast(tref)
        sid = t["stop_id"].to_pylist()
        tid = t["trip_id"].to_pylist()
        return pa.table({
            "trip_id": t["trip_id"],
            "route_id": pa.array([tm[x] for x in tid], pa.string()),
            "stop_sequence": t["stop_sequence"].cast(pa.int64()),
            "asec": _secs(t["arrival_time"]),
            "dsec": _secs(t["departure_time"]),
            "lon": pa.array([sm[x][0] for x in sid], pa.float64()),
            "lat": pa.array([sm[x][1] for x in sid], pa.float64())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("stop_sequence", kind="stable")
        lon = df["lon"].to_numpy()
        lat = df["lat"].to_numpy()
        dt = df["asec"].to_numpy(np.int64)[1:] \
            - df["dsec"].to_numpy(np.int64)[:-1]
        dx = (lon[1:] - lon[:-1]) * mx
        dy = (lat[1:] - lat[:-1]) * my
        d2 = dx * dx + dy * dy
        tf = 33.0 * dt
        sf_ = 16.0 * dt
        cls = np.where(dt <= 0, 0,
                       np.where(d2 > tf * tf, 3,
                                np.where(d2 > sf_ * sf_, 2, 1)))
        per = pd.DataFrame({"cls": cls, "dt": dt}) \
            .groupby("cls", sort=True)["dt"].agg(["count", "sum"])
        return pd.DataFrame({
            "route_id": np.repeat(df["route_id"].iloc[0], len(per)),
            "cls": per.index.to_numpy(np.int64),
            "n_legs": per["count"].to_numpy(np.int64),
            "dt_sum": per["sum"].to_numpy(np.int64)})

    legs = st.map_batches(attach, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("trip_id").map_groups(fold, batch_format="pandas")
    out = legs.groupby(["route_id", "cls"]).sum(["n_legs", "dt_sum"])
    return _rename(out, ["route_id", "cls", "n_legs", "dt_sum"])



QUERIES["gtfs_leg_speed_audit"] = q_gtfs_leg_speed_audit



def _leg_speed_sql() -> str:
    from geotile.geom.buffer import meter_frame
    from geotile.ops.join import _ANCHOR_LAT

    mx, my = meter_frame(_ANCHOR_LAT)
    d = _fixture_sql_dir()
    return f"""
        WITH st AS (SELECT trip_id, stop_id, stop_sequence,
                           CAST(split_part(arrival_time, ':', 1)
                                AS BIGINT) * 3600
                         + CAST(split_part(arrival_time, ':', 2)
                                AS BIGINT) * 60
                         + CAST(split_part(arrival_time, ':', 3)
                                AS BIGINT) AS asec,
                           CAST(split_part(departure_time, ':', 1)
                                AS BIGINT) * 3600
                         + CAST(split_part(departure_time, ':', 2)
                                AS BIGINT) * 60
                         + CAST(split_part(departure_time, ':', 3)
                                AS BIGINT) AS dsec
                    FROM read_parquet('{d}/stop_times.parquet')),
        j AS (SELECT st.*, s.stop_lon AS lon, s.stop_lat AS lat
              FROM st JOIN read_parquet('{d}/stops.parquet') s
                USING (stop_id)),
        l AS (SELECT trip_id, lon, lat, dsec,
                     LEAD(lon) OVER w AS lon2,
                     LEAD(lat) OVER w AS lat2,
                     LEAD(asec) OVER w AS asec2
              FROM j
              WINDOW w AS (PARTITION BY trip_id
                           ORDER BY stop_sequence)),
        g AS (SELECT trip_id,
                     (lon2 - lon) * {mx!r} AS dx,
                     (lat2 - lat) * {my!r} AS dy,
                     asec2 - dsec AS dt
              FROM l WHERE lon2 IS NOT NULL),
        c AS (SELECT trip_id, dt,
                     CASE WHEN dt <= 0 THEN 0
                          WHEN dx * dx + dy * dy
                               > (33.0 * dt) * (33.0 * dt) THEN 3
                          WHEN dx * dx + dy * dy
                               > (16.0 * dt) * (16.0 * dt) THEN 2
                          ELSE 1 END AS cls
              FROM g)
        SELECT t.route_id, c.cls,
               CAST(COUNT(*) AS BIGINT) AS n_legs,
               CAST(SUM(c.dt) AS BIGINT) AS dt_sum
        FROM c JOIN read_parquet('{d}/trips.parquet') t
          USING (trip_id)
        GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# freq_spectrum_sources: Good–Turing frequency-of-frequencies per source
# ---------------------------------------------------------------------------


def q_freq_spectrum_sources(sf_dir: str):
    """Good–Turing frequency-of-frequencies spectrum per source: for
    every source, how many DISTINCT tokens occur exactly c times
    (c = 1..10 exact, tail folded into bit-length buckets
    7 + bitlen(c) so the row count stays bounded), plus the token
    mass Σc per bucket — N₁/N₂/... is the input to every Good–Turing
    / Katz smoothing estimate and the singleton-heavy-vs-head-heavy
    corpus fingerprint (hapax_rate_sources reads only the c = 1
    cell; this is the whole spectrum). Per batch the corpus
    contracts to (source, token, n) partials; one Heaps-bounded
    token-ledger shuffle, then the ledger contracts again to
    ≤ ~70 spectrum cells per source. Direct two-level GROUP BY
    replay."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks_l = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(toks_l)
        lens = pc.list_value_length(toks_l).to_numpy(
            zero_copy_only=False)
        src = np.repeat(
            t["source"].to_numpy(zero_copy_only=False), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        g = pa.table({"source": pa.array(src[keep]),
                      "token": pc.filter(flat, pa.array(keep))}) \
            .group_by(["source", "token"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["source", "token", "n"])

    ledger = docs.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True) \
        .groupby(["source", "token"]).sum("n")

    def spectrum(t: pa.Table) -> pa.Table:
        c = t["sum(n)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = np.frexp(c.astype(np.float64))[1].astype(np.int64)
        bucket = np.where(c <= 10, c, 7 + bits)
        g = pa.table({"source": t["source"],
                      "bucket": pa.array(bucket),
                      "c": pa.array(c)}) \
            .group_by(["source", "bucket"]) \
            .aggregate([([], "count_all"), ("c", "sum")])
        return g.rename_columns(["source", "bucket", "n_types",
                                 "mass"])

    out = ledger.map_batches(spectrum, batch_format="pyarrow") \
        .groupby(["source", "bucket"]).sum(["n_types", "mass"])
    return _rename(out, ["source", "bucket", "n_types", "mass"])



QUERIES["freq_spectrum_sources"] = q_freq_spectrum_sources


ORACLE_SQL["freq_spectrum_sources"] = """
    WITH tok AS (SELECT source, t.tok
                 FROM documents,
                      UNNEST(string_split(text, ' ')) AS t(tok)
                 WHERE t.tok <> ''),
    cnt AS (SELECT source, tok, COUNT(*) AS c
            FROM tok GROUP BY 1, 2)
    SELECT source,
           CAST(CASE WHEN c <= 10 THEN c
                     ELSE 7 + length(bin(c)) END AS BIGINT) AS bucket,
           CAST(COUNT(*) AS BIGINT) AS n_types,
           CAST(SUM(c) AS BIGINT) AS mass
    FROM cnt GROUP BY 1, 2
"""



# ---------------------------------------------------------------------------
# granulometry_images: gray-scale opening spectrum (3x3 / 5x5)
# ---------------------------------------------------------------------------


def q_granulometry_images(sf_dir: str):
    """Granulometry spectrum per image (first 1024): gray-scale
    morphological OPENING (erosion then dilation, square structuring
    element, window ∩ image at borders) at scales 3×3 and 5×5 over
    the sum//3 luminance — the surviving mass Σ opened and the count
    of pixels the opening lowered. The opening curve's drop between
    scales is the classic particle-size / stroke-width distribution
    (thin strokes and speckle vanish at 3×3, only ≥5-px structures
    survive 5×5) that separates text-like tiles from flat fills.
    Erosion/dilation are k² shifted-view min/max reductions over the
    whole (n, h, w) batch tensor per size group — no per-pixel
    Python. Independent per-pixel python-int window replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    def _minfilt(a: np.ndarray, k: int) -> np.ndarray:
        r = k // 2
        n, h, w = a.shape
        p = np.full((n, h + 2 * r, w + 2 * r), 255, a.dtype)
        p[:, r:h + r, r:w + r] = a
        out = p[:, 0:h, 0:w].copy()
        for dy in range(k):
            for dx in range(k):
                np.minimum(out, p[:, dy:dy + h, dx:dx + w], out=out)
        return out

    def _maxfilt(a: np.ndarray, k: int) -> np.ndarray:
        r = k // 2
        n, h, w = a.shape
        p = np.zeros((n, h + 2 * r, w + 2 * r), a.dtype)
        p[:, r:h + r, r:w + r] = a
        out = p[:, 0:h, 0:w].copy()
        for dy in range(k):
            for dx in range(k):
                np.maximum(out, p[:, dy:dy + h, dx:dx + w], out=out)
        return out

    class GranuloStage:
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
            out_id, out_s, out_m, out_c = [], [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = (px.astype(np.int64).sum(axis=3) // 3) \
                    .astype(np.uint8)
                for k in (3, 5):
                    opened = _maxfilt(_minfilt(gray, k), k)
                    mass = opened.astype(np.int64) \
                        .sum(axis=(1, 2))
                    changed = (opened < gray).sum(axis=(1, 2)) \
                        .astype(np.int64)
                    out_id.append(ids[slots])
                    out_s.append(np.full(len(slots), k, np.int64))
                    out_m.append(mass)
                    out_c.append(changed)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "scale": pa.array(np.concatenate(out_s)),
                "open_mass": pa.array(np.concatenate(out_m)),
                "n_lowered": pa.array(np.concatenate(out_c))})

    return ds.map_batches(GranuloStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["granulometry_images"] = q_granulometry_images



def _granulo_sidecar(img: str, n: int = 1024) -> str:
    """Per-pixel python-int window replay for granulometry_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_granulo_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for wi, hi in set(zip(ws.tolist(), hs.tolist())):
            sl = np.nonzero((ws == wi) & (hs == hi))[0]
            px = _sy.pixel_pattern(idx[sl], wi, hi)
            for j, slot in enumerate(sl):
                gray = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                          + int(px[j, y, x, 2])) // 3
                         for x in range(wi)] for y in range(hi)]
                for k in (3, 5):
                    r = k // 2

                    def mn(y, x, g):
                        best = 255
                        for yy in range(max(0, y - r),
                                        min(hi, y + r + 1)):
                            for xx in range(max(0, x - r),
                                            min(wi, x + r + 1)):
                                if g[yy][xx] < best:
                                    best = g[yy][xx]
                        return best

                    def mx_(y, x, g):
                        best = 0
                        for yy in range(max(0, y - r),
                                        min(hi, y + r + 1)):
                            for xx in range(max(0, x - r),
                                            min(wi, x + r + 1)):
                                if g[yy][xx] > best:
                                    best = g[yy][xx]
                        return best

                    ero = [[mn(y, x, gray) for x in range(wi)]
                           for y in range(hi)]
                    opn = [[mx_(y, x, ero) for x in range(wi)]
                           for y in range(hi)]
                    mass = sum(sum(row) for row in opn)
                    ch = sum(1 for y in range(hi) for x in range(wi)
                             if opn[y][x] < gray[y][x])
                    rows.append({"image_id": str(iid[slot]),
                                 "scale": k, "open_mass": mass,
                                 "n_lowered": ch})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _granulo_sql(img: str) -> str:
    return (f"SELECT image_id, scale, open_mass, n_lowered "
            f"FROM read_parquet('{_granulo_sidecar(img)}')")



# ---------------------------------------------------------------------------
# gtfs_transfer_windows: timed-transfer opportunity audit per stop
# ---------------------------------------------------------------------------


def q_gtfs_transfer_windows(sf_dir: str):
    """Timed-transfer opportunities per stop: pairs (arriving trip A,
    departing trip B) at the SAME stop with a wait 0 ≤ B.departure −
    A.arrival ≤ 900 s, different trips, different ROUTES (same-route
    pairs are just headway, not a transfer), and overlapping service
    weekday masks (calendar 7-bit AND ≠ 0 — the two trips must
    actually run on a common day). Reports n_pairs, distinct
    departing routes reachable, min wait and total wait per stop —
    the connectivity audit a feed consumer runs before promising
    "change at X for Y" (the reference's stops-to-routes assignment,
    src/lib/geojson-utils.ts:88-130, lifted to the time axis).
    trips→(route, mask) is a tiny dimension broadcast; the fact scan
    is stop_times once; pair formation is an outer compare INSIDE a
    stop co-partition, bounded by stop degree (a mega-hub would need
    time-bucket salting — documented, not needed at fixture scale).
    Direct self-join SQL replay."""
    d = _fixture_sql_dir()
    cal = rd.read_parquet(f"{d}/calendar.parquet").take_all()
    mask = {r["service_id"]: int(r["monday"]) + 2 * int(r["tuesday"])
            + 4 * int(r["wednesday"]) + 8 * int(r["thursday"])
            + 16 * int(r["friday"]) + 32 * int(r["saturday"])
            + 64 * int(r["sunday"]) for r in cal}
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id",
                                     "service_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"],
                           mask.get(r["service_id"], 0))
            for r in trips}
    tref = ray.put(tmap)

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id",
                                  "arrival_time", "departure_time"])

    def _secs(col) -> pa.Array:
        parts = pc.split_pattern(col, ":")
        return pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))

    def attach(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        tid = t["trip_id"].to_pylist()
        return pa.table({
            "stop_id": t["stop_id"],
            "trip_id": t["trip_id"],
            "route_id": pa.array([tm[x][0] for x in tid], pa.string()),
            "mask": pa.array([tm[x][1] for x in tid], pa.int64()),
            "asec": _secs(t["arrival_time"]),
            "dsec": _secs(t["departure_time"])})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        asec = df["asec"].to_numpy(np.int64)
        dsec = df["dsec"].to_numpy(np.int64)
        trip = df["trip_id"].to_numpy()
        route = df["route_id"].to_numpy()
        m = df["mask"].to_numpy(np.int64)
        wait = dsec[None, :] - asec[:, None]
        ok = ((wait >= 0) & (wait <= 900)
              & (trip[:, None] != trip[None, :])
              & (route[:, None] != route[None, :])
              & ((m[:, None] & m[None, :]) != 0))
        n = int(ok.sum())
        if n == 0:
            return pd.DataFrame({
                "stop_id": pd.Series([], dtype=object),
                "n_pairs": pd.Series([], dtype=np.int64),
                "n_dest_routes": pd.Series([], dtype=np.int64),
                "min_wait": pd.Series([], dtype=np.int64),
                "wait_sum": pd.Series([], dtype=np.int64)})
        w = wait[ok]
        dest = np.broadcast_to(route[None, :], ok.shape)[ok]
        return pd.DataFrame({
            "stop_id": [df["stop_id"].iloc[0]],
            "n_pairs": np.array([n], np.int64),
            "n_dest_routes": np.array([len(np.unique(dest))],
                                      np.int64),
            "min_wait": np.array([int(w.min())], np.int64),
            "wait_sum": np.array([int(w.sum())], np.int64)})

    return st.map_batches(attach, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("stop_id").map_groups(fold, batch_format="pandas")



QUERIES["gtfs_transfer_windows"] = q_gtfs_transfer_windows



def _transfer_windows_sql() -> str:
    d = _fixture_sql_dir()
    secs = ("CAST(split_part({c}, ':', 1) AS BIGINT) * 3600 "
            "+ CAST(split_part({c}, ':', 2) AS BIGINT) * 60 "
            "+ CAST(split_part({c}, ':', 3) AS BIGINT)")
    return f"""
        WITH cal AS (SELECT service_id,
                            monday + tuesday * 2 + wednesday * 4
                          + thursday * 8 + friday * 16
                          + saturday * 32 + sunday * 64 AS mask
                     FROM read_parquet('{d}/calendar.parquet')),
        tr AS (SELECT trip_id, route_id, mask
               FROM read_parquet('{d}/trips.parquet')
               JOIN cal USING (service_id)),
        st AS (SELECT stop_id, trip_id, route_id, mask,
                      {secs.format(c='arrival_time')} AS asec,
                      {secs.format(c='departure_time')} AS dsec
               FROM read_parquet('{d}/stop_times.parquet')
               JOIN tr USING (trip_id))
        SELECT a.stop_id AS stop_id,
               CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(COUNT(DISTINCT b.route_id) AS BIGINT)
                   AS n_dest_routes,
               CAST(MIN(b.dsec - a.asec) AS BIGINT) AS min_wait,
               CAST(SUM(b.dsec - a.asec) AS BIGINT) AS wait_sum
        FROM st a JOIN st b
          ON a.stop_id = b.stop_id
         AND a.trip_id <> b.trip_id
         AND a.route_id <> b.route_id
         AND b.dsec - a.asec BETWEEN 0 AND 900
         AND (a.mask & b.mask) <> 0
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# bpe_merges_docs: BPE merge-table training over the corpus
# ---------------------------------------------------------------------------


def q_bpe_merges_docs(sf_dir: str, n_merges: int = 20):
    """Train the first 20 BPE merges over the corpus: start from
    single characters, repeatedly take the highest-count adjacent
    symbol pair (count = Σ over distinct tokens of token_count ×
    adjacent occurrences; ties to the lexicographically smallest
    (left, right) STRING pair) and apply it greedily left-to-right
    non-overlapping — the tokenizer-training primitive itself, and
    the vocabulary-compression dual of the Elias-gamma rank-coding
    op. The corpus contracts to the Heaps-bounded (token, count)
    ledger in one distributed groupby; the 20 merge rounds run
    vectorized on that ledger (flat symbol array + separator
    sentinels, weighted bincount pair counts, run-parity greedy
    non-overlap — never a per-character python loop), bounded by
    vocabulary size, never corpus size. Independent python
    Counter/list replay sidecar (same spec, different code shape)."""
    docs = _read(sf_dir, "documents", ["text"])

    def tok_part(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        ut, ct = np.unique(toks, return_counts=True)
        return pa.table({"token": pa.array(ut),
                         "n": pa.array(ct.astype(np.int64))})

    ledger = (docs.map_batches(tok_part, batch_format="pyarrow")
              .groupby("token").sum("n")).take_all()
    empty = pd.DataFrame({
        "rank": pd.Series([], dtype=np.int64),
        "left": pd.Series([], dtype=object),
        "right": pd.Series([], dtype=object),
        "pair_count": pd.Series([], dtype=np.int64)})
    if not ledger:
        return empty

    toks = [r["token"] for r in ledger]
    cnts = np.array([r["sum(n)"] for r in ledger], np.int64)
    # flat symbol-id array with -1 separators; wt aligned per position
    syms: list[str] = sorted({ch for t in toks for ch in t})
    sid = {s: i for i, s in enumerate(syms)}
    chunks, wts = [], []
    for t, c in zip(toks, cnts):
        chunks.append(np.array([sid[ch] for ch in t] + [-1], np.int64))
        wts.append(np.full(len(t) + 1, c, np.int64))
    flat = np.concatenate(chunks)
    wt = np.concatenate(wts)

    rows = []
    for rank in range(1, n_merges + 1):
        l_, r_ = flat[:-1], flat[1:]
        valid = (l_ >= 0) & (r_ >= 0)
        if not valid.any():
            break
        key = l_[valid] * np.int64(len(syms)) + r_[valid]
        uk, inv = np.unique(key, return_inverse=True)
        pcnt = np.bincount(inv, weights=wt[:-1][valid].astype(
            np.float64)).astype(np.int64)
        best = int(pcnt.max())
        cand = uk[pcnt == best]
        pairs = [(syms[int(k) // len(syms)], syms[int(k) % len(syms)])
                 for k in cand]
        li, ri = min(range(len(pairs)), key=lambda i: pairs[i]), None
        a_id = int(cand[li]) // len(syms)
        b_id = int(cand[li]) % len(syms)
        rows.append((rank, syms[a_id], syms[b_id], best))
        # greedy left-to-right non-overlap: within each maximal run of
        # consecutive match positions keep even offsets only
        mpos = np.nonzero((l_ == a_id) & (r_ == b_id) & valid)[0]
        if len(mpos):
            runstart = np.zeros(len(mpos), np.int64)
            newrun = np.empty(len(mpos), bool)
            newrun[0] = True
            newrun[1:] = mpos[1:] != mpos[:-1] + 1
            runstart = mpos[np.maximum.accumulate(
                np.where(newrun, np.arange(len(mpos)), 0))]
            keep = ((mpos - runstart) % 2) == 0
            kpos = mpos[keep]
            new_id = len(syms)
            syms.append(syms[a_id] + syms[b_id])
            flat[kpos] = new_id
            dele = kpos + 1
            flat = np.delete(flat, dele)
            wt = np.delete(wt, dele)
        else:  # count>0 guaranteed, so mpos nonempty; defensive
            break
    if not rows:
        return empty
    return pd.DataFrame({
        "rank": np.array([r[0] for r in rows], np.int64),
        "left": [r[1] for r in rows],
        "right": [r[2] for r in rows],
        "pair_count": np.array([r[3] for r in rows], np.int64)})



QUERIES["bpe_merges_docs"] = q_bpe_merges_docs



def _bpe_sidecar(sf_dir: str) -> str:
    """Independent Counter/list BPE replay (same spec: weighted pair
    counts over the distinct-token ledger, lexicographic-smallest tie,
    greedy left-to-right non-overlapping merge)."""
    from collections import Counter
    from hashlib import blake2b
    from pathlib import Path

    import pyarrow.parquet as pq

    key = blake2b((sf_dir + "bpe-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bpe_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        txt = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["text"])["text"].to_pylist()
        wc: Counter = Counter()
        for t in txt:
            for w in t.split(" "):
                if w:
                    wc[w] += 1
        seqs = [(list(w), c) for w, c in sorted(wc.items())]
        rows = []
        for rank in range(1, 21):
            pcn: Counter = Counter()
            for s, c in seqs:
                for i in range(len(s) - 1):
                    pcn[(s[i], s[i + 1])] += c
            if not pcn:
                break
            m = max(pcn.values())
            a, b = min(p_ for p_ in pcn if pcn[p_] == m)
            rows.append({"rank": rank, "left": a, "right": b,
                         "pair_count": m})
            nseqs = []
            for s, c in seqs:
                out, i = [], 0
                while i < len(s):
                    if (i + 1 < len(s) and s[i] == a
                            and s[i + 1] == b):
                        out.append(a + b)
                        i += 2
                    else:
                        out.append(s[i])
                        i += 1
                nseqs.append((out, c))
            seqs = nseqs
        out_t = (pa.Table.from_pylist(rows) if rows else pa.table({
            "rank": pa.array([], pa.int64()),
            "left": pa.array([], pa.string()),
            "right": pa.array([], pa.string()),
            "pair_count": pa.array([], pa.int64())}))
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out_t, p)
    return str(p)



def _bpe_sql(sf_dir: str) -> str:
    return (f'SELECT "rank", "left", "right", pair_count '
            f"FROM read_parquet('{_bpe_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gram_det_embeddings: exact Gram determinant (embedding-space volume)
# ---------------------------------------------------------------------------


def q_gram_det_embeddings(sf_dir: str):
    """Exact determinant of the 64×64 embedding Gram matrix
    M = Σ v·vᵀ on the e6 lattice — the volume/degeneracy audit of
    the embedding space: det = 0 means some direction collapsed
    exactly (rank deficiency the spectral-mass moments can only
    bound), tiny det means near-collapse. Same mergeable (a, b, m)
    cell-partial shuffle as spectral_mass_embeddings (each batch
    ships VᵀV as ≤4096 int64 cells, so the O(n·d²) pass distributes
    and only dim² integers reach the driver); the epilogue runs
    fraction-free Bareiss elimination in python big ints (the exact
    ~1000-digit determinant; PSD ⇒ det ≥ 0) and ships decimal
    digits. Independent Fraction-Gaussian replay sidecar (same M
    spec, different elimination algorithm)."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def part(t: pa.Table) -> pa.Table:
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        M = V.T @ V
        d = M.shape[0]
        a = np.repeat(np.arange(d, dtype=np.int64), d)
        b = np.tile(np.arange(d, dtype=np.int64), d)
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "m": pa.array(M.reshape(-1)),
                         "n": pa.array(np.full(d * d, len(V),
                                               np.int64))})

    cells = (emb.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
             .groupby(["a", "b"]).sum(["m", "n"])).take_all()
    dim = max(int(r["a"]) for r in cells) + 1
    M = [[0] * dim for _ in range(dim)]
    n = 0
    for r in cells:
        M[int(r["a"])][int(r["b"])] = int(r["sum(m)"])
        if int(r["a"]) == 0 and int(r["b"]) == 0:
            n = int(r["sum(n)"])
    # Bareiss fraction-free elimination (exact integer determinant)
    sign, prev = 1, 1
    det = None
    for k in range(dim - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, dim)
                        if M[i][k] != 0), None)
            if piv is None:
                det = 0
                break
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, dim):
            for j in range(k + 1, dim):
                M[i][j] = (M[i][j] * M[k][k]
                           - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    if det is None:
        det = sign * M[dim - 1][dim - 1]
    return pd.DataFrame({"n": np.array([n], np.int64),
                         "dim": np.array([dim], np.int64),
                         "det": [str(det)]})



QUERIES["gram_det_embeddings"] = q_gram_det_embeddings



def _gram_det_sidecar(sf_dir: str) -> str:
    """Fraction-Gaussian replay of the exact Gram determinant."""
    import math
    from fractions import Fraction
    from hashlib import blake2b
    from pathlib import Path

    import pyarrow.parquet as pq

    key = blake2b((sf_dir + "gramdet-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gramdet_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["embedding"])
        vecs = t["embedding"].to_pylist()
        n = len(vecs)
        dim = len(vecs[0]) if n else 0
        X = [[math.floor(float(v) * 1_000_000.0) for v in vec]
             for vec in vecs]
        M = [[0] * dim for _ in range(dim)]
        for x in X:
            for a in range(dim):
                xa = x[a]
                row = M[a]
                for b in range(a, dim):
                    row[b] += xa * x[b]
        for a in range(dim):
            for b in range(a):
                M[a][b] = M[b][a]
        A = [[Fraction(v) for v in row] for row in M]
        det = Fraction(1)
        for k in range(dim):
            piv = next((i for i in range(k, dim) if A[i][k] != 0),
                       None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != k:
                A[k], A[piv] = A[piv], A[k]
                det = -det
            det *= A[k][k]
            for i in range(k + 1, dim):
                f = A[i][k] / A[k][k]
                if f:
                    for j in range(k, dim):
                        A[i][j] -= f * A[k][j]
        assert det.denominator == 1
        out = pa.table({"n": pa.array([n], pa.int64()),
                        "dim": pa.array([dim], pa.int64()),
                        "det": pa.array([str(int(det))], pa.string())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gram_det_sql(sf_dir: str) -> str:
    return (f"SELECT n, dim, det "
            f"FROM read_parquet('{_gram_det_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# route_color_contrast: WCAG/W3C readability audit of GTFS route colors
# ---------------------------------------------------------------------------


def q_route_color_contrast(sf_dir: str):
    """Readability audit of every route's color pair: parse
    route_color / route_text_color hex (GTFS spec defaults for
    missing values — bg FFFFFF, text 000000), compute the W3C YIQ
    brightness Y×1000 = 299R + 587G + 114B per color, the brightness
    difference |Y_bg − Y_text| and the channel color difference
    Σ|ΔR|+|ΔG|+|ΔB|, and the classic W3C readability verdict
    (brightness diff ≥ 125·1000 AND color diff ≥ 500) — the
    accessibility gate on the same color fields the reference's
    formatHexColor normalizes for GeoJSON properties
    (src/lib/geojson-utils.ts:13-20). All-integer per row; the
    routes dimension streams through one vectorized hex-decode
    map_batches (digit LUT over a U6 char matrix — no per-char
    python). Direct ascii-arithmetic SQL replay."""
    d = _fixture_sql_dir()
    routes = rd.read_parquet(f"{d}/routes.parquet",
                             columns=["route_id", "route_color",
                                      "route_text_color"])

    def _rgb(col: pa.ChunkedArray, default: str) -> np.ndarray:
        filled = pc.coalesce(col, pa.scalar(default))
        arr = np.asarray(filled.to_pylist(), dtype="U6") \
            .view(np.uint32).reshape(-1, 6).astype(np.int64)
        dig = np.where(arr >= 97, arr - 87,
                       np.where(arr >= 65, arr - 55, arr - 48))
        return (dig[:, ::2] * 16 + dig[:, 1::2])  # (n, 3) R G B

    def audit(t: pa.Table) -> pa.Table:
        bg = _rgb(t["route_color"], "FFFFFF")
        fg = _rgb(t["route_text_color"], "000000")
        w = np.array([299, 587, 114], np.int64)
        ybg = bg @ w
        yfg = fg @ w
        bdiff = np.abs(ybg - yfg)
        cdiff = np.abs(bg - fg).sum(axis=1)
        readable = ((bdiff >= 125_000) & (cdiff >= 500)) \
            .astype(np.int64)
        return pa.table({
            "route_id": t["route_id"],
            "bg": pc.coalesce(t["route_color"], pa.scalar("FFFFFF")),
            "fg": pc.coalesce(t["route_text_color"],
                              pa.scalar("000000")),
            "yiq_bg": pa.array(ybg),
            "yiq_fg": pa.array(yfg),
            "brightness_diff": pa.array(bdiff),
            "color_diff": pa.array(cdiff),
            "readable": pa.array(readable)})

    return routes.map_batches(audit, batch_format="pyarrow",
                              zero_copy_batch=True)



QUERIES["route_color_contrast"] = q_route_color_contrast



def _color_contrast_sql() -> str:
    d = _fixture_sql_dir()

    def dig(expr: str, i: int) -> str:
        return (f"(CASE WHEN ascii(substr({expr}, {i}, 1)) >= 97 "
                f"THEN ascii(substr({expr}, {i}, 1)) - 87 "
                f"WHEN ascii(substr({expr}, {i}, 1)) >= 65 "
                f"THEN ascii(substr({expr}, {i}, 1)) - 55 "
                f"ELSE ascii(substr({expr}, {i}, 1)) - 48 END)")

    def chan(expr: str, c: int) -> str:  # c = 0,1,2 for R,G,B
        return f"({dig(expr, 2 * c + 1)} * 16 + {dig(expr, 2 * c + 2)})"

    def yiq(expr: str) -> str:
        return (f"(299 * {chan(expr, 0)} + 587 * {chan(expr, 1)}"
                f" + 114 * {chan(expr, 2)})")

    def cdiff(a: str, b: str) -> str:
        return " + ".join(f"abs({chan(a, c)} - {chan(b, c)})"
                          for c in range(3))

    return f"""
        WITH r AS (SELECT route_id,
                          COALESCE(route_color, 'FFFFFF') AS bg,
                          COALESCE(route_text_color, '000000') AS fg
                   FROM read_parquet('{d}/routes.parquet')),
        m AS (SELECT route_id, bg, fg,
                     CAST({yiq('bg')} AS BIGINT) AS yiq_bg,
                     CAST({yiq('fg')} AS BIGINT) AS yiq_fg,
                     CAST({cdiff('bg', 'fg')} AS BIGINT) AS color_diff
              FROM r)
        SELECT route_id, bg, fg, yiq_bg, yiq_fg,
               CAST(abs(yiq_bg - yiq_fg) AS BIGINT) AS brightness_diff,
               color_diff,
               CAST(CASE WHEN abs(yiq_bg - yiq_fg) >= 125000
                          AND color_diff >= 500
                    THEN 1 ELSE 0 END AS BIGINT) AS readable
        FROM m
    """



# ---------------------------------------------------------------------------
# rice_coding_tracks: optimal Rice parameter for first-diff residuals
# ---------------------------------------------------------------------------


def q_rice_coding_tracks(sf_dir: str):
    """Rice/Golomb lossless-coding audit per audio track: first-
    difference residuals d = s[i+1] − s[i], zigzag-mapped to
    unsigned u (2d for d ≥ 0, −2d−1 otherwise), then the exact coded
    size Σ(u >> k) + n·(k+1) bits for every Rice parameter k ∈ 0..15
    — best k (smallest on cost ties), its bit cost, and the verbatim
    16-bit baseline. The FLAC-style predictor-residual cost model:
    the audio sibling of the Elias-gamma / front-coding text ops,
    and the signal a lossless audio shard-packer keys on. One diff +
    zigzag + 16 shift-sums per stacked tensor — no per-sample
    python. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class RiceStage:
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
            out = {k: [] for k in ("track_id", "n_resid", "best_k",
                                   "best_bits", "fixed_bits")}
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                dd = pcm[:, 1:] - pcm[:, :-1]
                u = np.where(dd >= 0, 2 * dd, -2 * dd - 1)
                nr = np.int64(length - 1)
                costs = np.stack(
                    [(u >> k).sum(axis=1) + nr * (k + 1)
                     for k in range(16)])           # (16, ntracks)
                best_k = costs.argmin(axis=0).astype(np.int64)
                best = costs.min(axis=0)
                out["track_id"].append(ids[slots])
                out["n_resid"].append(np.full(len(slots), nr,
                                              np.int64))
                out["best_k"].append(best_k)
                out["best_bits"].append(best)
                out["fixed_bits"].append(np.full(len(slots), 16 * nr,
                                                 np.int64))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(RiceStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["rice_coding_tracks"] = q_rice_coding_tracks



def _rice_sidecar(aud: str) -> str:
    """Python-int replay for rice_coding_tracks."""
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_rice_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            us = []
            for a, b in zip(s, s[1:]):
                dd = b - a
                us.append(2 * dd if dd >= 0 else -2 * dd - 1)
            nr = len(us)
            best_k, best = 0, None
            for k in range(16):
                c = sum(x >> k for x in us) + nr * (k + 1)
                if best is None or c < best:
                    best, best_k = c, k
            rows.append({"track_id": tid, "n_resid": nr,
                         "best_k": best_k, "best_bits": best,
                         "fixed_bits": 16 * nr})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rice_sql(aud: str) -> str:
    return (f"SELECT track_id, n_resid, best_k, best_bits, fixed_bits "
            f"FROM read_parquet('{_rice_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# pair_dist_hist_embeddings: exact all-pairs distance census
# ---------------------------------------------------------------------------


def q_pair_dist_hist_embeddings(sf_dir: str,
                                _block_rows: int = 4096):
    """Distance-concentration census over ALL embedding pairs: exact
    squared L2 on the e6 lattice for every unordered pair, binned by
    bit length (bucket 0 = exact duplicates) — the curse-of-
    dimensionality / hubness diagnostic: a spiky histogram crowded
    into 2–3 buckets means distances have concentrated and ANN
    recall targets are optimistic; mass in low buckets sizes the
    dedup problem. The O(n²) work runs as the same distributed
    block-pair matmul join as embedding_dup_pairs (driver holds
    object-store REFS only; one task per i ≤ j block pair; i == j
    tiles take the strict upper triangle so each pair counts ONCE);
    each task ships a ≤64-cell histogram partial, so the shuffle is
    histogram-sized regardless of n. d² ≤ 64·(2e6)² < 2⁵³ keeps the
    frexp bucket exact. Unnest + self-join SQL replay."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    snap = emb.materialize()
    n = snap.count()
    nb = max(1, -(-n // _block_rows))
    mat = snap.repartition(nb).materialize()
    refs = mat.to_arrow_refs()
    items = [{"i": i, "j": j}
             for i in range(len(refs)) for j in range(i, len(refs))]

    def _block(ref):
        t = ray.get(ref)
        ids = np.asarray(t["vec_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        return ids, V

    def cross(batch: pa.Table) -> pa.Table:
        from geotile.ops.join import _cached_stage

        hist = np.zeros(64, np.int64)
        for i, j in zip(batch["i"].to_pylist(),
                        batch["j"].to_pylist()):
            ida, Va = _cached_stage(("pdblk", refs[i].hex()),
                                    lambda: _block(refs[i]))
            idb, Vb = _cached_stage(("pdblk", refs[j].hex()),
                                    lambda: _block(refs[j]))
            dot = Va @ Vb.T
            sa = (Va * Va).sum(axis=1)
            sb = (Vb * Vb).sum(axis=1)
            d2 = sa[:, None] + sb[None, :] - 2 * dot
            if i == j:
                iu = np.triu_indices(len(ida), k=1)
                d2v = d2[iu]
            else:
                d2v = d2.ravel()
            if len(d2v):
                bk = np.where(d2v > 0,
                              np.frexp(d2v.astype(np.float64))[1],
                              0).astype(np.int64)
                hist += np.bincount(bk, minlength=64)[:64]
        nz = np.nonzero(hist)[0]
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "n_pairs": pa.array(hist[nz])})

    out = (rd.from_items(items, override_num_blocks=len(items))
           .map_batches(cross, batch_size=1, batch_format="pyarrow")
           .groupby("bucket").sum("n_pairs"))
    return _rename(out, ["bucket", "n_pairs"])



QUERIES["pair_dist_hist_embeddings"] = q_pair_dist_hist_embeddings

ORACLE_SQL["pair_dist_hist_embeddings"] = """
        WITH x AS (SELECT vec_id, dim,
                          CAST(floor(CAST(v AS DOUBLE) * 1000000.0)
                              AS BIGINT) AS x
                   FROM embeddings,
                        LATERAL (SELECT unnest(embedding) AS v,
                                 generate_subscripts(embedding, 1)
                                     AS dim)),
        d AS (SELECT a.vec_id AS va, b.vec_id AS vb,
                     CAST(SUM((a.x - b.x) * (a.x - b.x)) AS BIGINT)
                         AS d2
              FROM x a JOIN x b
                ON a.dim = b.dim AND a.vec_id < b.vec_id
              GROUP BY 1, 2)
        SELECT CAST(CASE WHEN d2 = 0 THEN 0
                         ELSE length(bin(d2)) END AS BIGINT) AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM d GROUP BY 1
    """



# ---------------------------------------------------------------------------
# shape_orientation_audit: exact shoelace orientation + closure per shape
# ---------------------------------------------------------------------------


def q_shape_orientation_audit(sf_dir: str):
    """Orientation and closure audit per GTFS shape: quantize points
    to the e5 lattice (the shape_cell_trace convention), compute the
    EXACT shoelace twice-signed-area Σ(xᵢ·yᵢ₊₁ − xᵢ₊₁·yᵢ) with
    wraparound, its sign (1 CCW / −1 CW / 0 degenerate), and the
    squared lattice gap between first and last point — the winding
    prior a buffer/dissolve stage needs (the reference's buffer
    unions assume consistent ring orientation, turf buffer docs) and
    the loop-route detector (closure_d2 = 0 is a circular service
    whose toposort has no endpoints). Terms ≤ 3.6e7·1.8e7 ≈ 6.5e14
    and ≤ ~500 points/shape keep the int64 sum exact. One sort +
    shifted products inside a shape co-partition. ROW_NUMBER wrap-
    join SQL replay."""
    d = _fixture_sql_dir()
    sh = rd.read_parquet(f"{d}/shapes.parquet")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        x = np.floor((df["shape_pt_lon"].to_numpy() + 180.0)
                     * 100000.0).astype(np.int64)
        y = np.floor((df["shape_pt_lat"].to_numpy() + 90.0)
                     * 100000.0).astype(np.int64)
        xn = np.roll(x, -1)
        yn = np.roll(y, -1)
        twice = int((x * yn - xn * y).sum())
        gap = int((x[0] - x[-1]) ** 2 + (y[0] - y[-1]) ** 2)
        return pd.DataFrame({
            "shape_id": [df["shape_id"].iloc[0]],
            "n_points": np.array([len(x)], np.int64),
            "twice_area": np.array([twice], np.int64),
            "orient": np.array([(twice > 0) - (twice < 0)],
                               np.int64),
            "closure_d2": np.array([gap], np.int64)})

    return sh.groupby("shape_id").map_groups(fold,
                                             batch_format="pandas")



QUERIES["shape_orientation_audit"] = q_shape_orientation_audit



def _shape_orient_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH p AS (SELECT shape_id,
                          CAST(floor((shape_pt_lon + 180) * 100000.0)
                              AS BIGINT) AS x,
                          CAST(floor((shape_pt_lat + 90) * 100000.0)
                              AS BIGINT) AS y,
                          ROW_NUMBER() OVER
                              (PARTITION BY shape_id
                               ORDER BY shape_pt_sequence) AS rn,
                          COUNT(*) OVER (PARTITION BY shape_id) AS n
                   FROM read_parquet('{d}/shapes.parquet')),
        s AS (SELECT a.shape_id,
                     CAST(SUM(a.x * b.y - b.x * a.y) AS BIGINT)
                         AS twice_area,
                     CAST(MAX(a.n) AS BIGINT) AS n_points
              FROM p a JOIN p b
                ON a.shape_id = b.shape_id
               AND b.rn = a.rn % a.n + 1
              GROUP BY 1),
        g AS (SELECT f.shape_id,
                     CAST((f.x - l.x) * (f.x - l.x)
                        + (f.y - l.y) * (f.y - l.y) AS BIGINT)
                         AS closure_d2
              FROM (SELECT * FROM p WHERE rn = 1) f
              JOIN (SELECT * FROM p WHERE rn = n) l
                USING (shape_id))
        SELECT s.shape_id, s.n_points, s.twice_area,
               CAST(CASE WHEN s.twice_area > 0 THEN 1
                         WHEN s.twice_area < 0 THEN -1
                         ELSE 0 END AS BIGINT) AS orient,
               g.closure_d2
        FROM s JOIN g USING (shape_id)
    """



# ---------------------------------------------------------------------------
# bright_rect_images: largest all-bright axis-aligned rectangle
# ---------------------------------------------------------------------------


def q_bright_rect_images(sf_dir: str):
    """Largest all-bright axis-aligned rectangle per image (first
    1024): threshold the sum//3 luminance at ≥128 and find the
    maximum-area rectangle of entirely bright pixels — the
    saliency-crop / text-box / flat-region primitive (screenshots
    and slides carry huge bright rectangles; natural photos don't),
    alongside the bright-pixel count for the fill-ratio read. The
    engine runs the O(h²) band sweep fully vectorized across the
    batch tensor: AND the bright mask down each row band, take the
    longest TRUE run per image via the reset-cumsum identity
    idx − last_false — no per-pixel python. The sidecar replays with
    the classic histogram-stack algorithm (different algorithm, same
    spec). Python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    def _longest_run(b: np.ndarray) -> np.ndarray:
        # longest per-row TRUE run of a (k, w) bool matrix
        idx = np.arange(b.shape[1], dtype=np.int64)
        lf = np.where(~b, idx, np.int64(-1))
        lf = np.maximum.accumulate(lf, axis=1)
        return np.max(np.where(b, idx - lf, 0), axis=1)

    class RectStage:
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
            out_id, out_a, out_b = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                bright = gray >= 128                 # (k, h, w)
                k = len(slots)
                best = np.zeros(k, np.int64)
                for y1 in range(hi):
                    band = np.ones((k, wi), bool)
                    for y2 in range(y1, hi):
                        band &= bright[:, y2]
                        run = _longest_run(band)
                        np.maximum(best, run * (y2 - y1 + 1),
                                   out=best)
                out_id.append(ids[slots])
                out_a.append(best)
                out_b.append(bright.sum(axis=(1, 2))
                             .astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "max_area": pa.array(np.concatenate(out_a)),
                "n_bright": pa.array(np.concatenate(out_b))})

    return ds.map_batches(RectStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["bright_rect_images"] = q_bright_rect_images



def _bright_rect_sidecar(img: str, n: int = 1024) -> str:
    """Histogram-stack replay for bright_rect_images."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_brightrect_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            bright = [[(int(px[y, x, 0]) + int(px[y, x, 1])
                        + int(px[y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
            nb = sum(sum(row) for row in bright)
            heights = [0] * wi
            best = 0
            for y in range(hi):
                for x in range(wi):
                    heights[x] = heights[x] + 1 if bright[y][x] else 0
                # largest rectangle in histogram (stack)
                stack: list[int] = []
                for x in range(wi + 1):
                    hcur = heights[x] if x < wi else 0
                    while stack and heights[stack[-1]] >= hcur:
                        ht = heights[stack.pop()]
                        left = stack[-1] + 1 if stack else 0
                        area = ht * (x - left)
                        if area > best:
                            best = area
                    stack.append(x)
            rows.append({"image_id": str(iid[j]), "max_area": best,
                         "n_bright": nb})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bright_rect_sql(img: str) -> str:
    return (f"SELECT image_id, max_area, n_bright "
            f"FROM read_parquet('{_bright_rect_sidecar(img)}')")



# ---------------------------------------------------------------------------
# video_loop_period: best cyclic self-alignment per clip
# ---------------------------------------------------------------------------


def q_video_loop_period(sf_dir: str):
    """Loop-period detector per clip: for every cyclic shift
    s ∈ 1..n−1, the exact |f_t − f_{(t+s) mod n}| mass; report the
    minimizing shift (smallest s on ties), its mass, and the s = 1
    adjacent-frame baseline — a clip that is a repeated k-frame loop
    has near-zero mass at s = k, which neither the mirror-symmetry
    op (reflection) nor the motion-energy op (adjacent only) can
    see; the GIF/boomerang/cinemagraph collapse signal for video
    dedup. One np.roll |diff| reduction per shift over the stacked
    5-D tensor — n−1 vectorized passes, no per-pixel python.
    Python-int replay sidecar."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def stage(batch: pa.Table) -> pa.Table:
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
        out_id, out_s, out_m, out_1 = [], [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            k = len(slots)
            masses = np.empty((f - 1, k), np.int64)
            for s in range(1, f):
                masses[s - 1] = np.abs(
                    clips - np.roll(clips, -s, axis=1)) \
                    .sum(axis=(1, 2, 3, 4))
            bi = masses.argmin(axis=0)            # smallest s on ties
            out_id.append(ids[slots])
            out_s.append((bi + 1).astype(np.int64))
            out_m.append(masses[bi, np.arange(k)])
            out_1.append(masses[0])
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "best_shift": pa.array(np.concatenate(out_s)),
            "best_mass": pa.array(np.concatenate(out_m)),
            "adjacent_mass": pa.array(np.concatenate(out_1))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["video_loop_period"] = q_video_loop_period



def _video_loop_sidecar(vid: str) -> str:
    """Python-int replay for video_loop_period."""
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_videoloop_{Path(vid).name}_{_mods_digest(_sy)}"
        ".parquet")
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
            best_s, best_m, adj = -1, None, None
            for s in range(1, nf):
                m = 0
                for t_ in range(nf):
                    fa, fb = frames[t_], frames[(t_ + s) % nf]
                    m += sum(abs(a - b) for a, b in zip(fa, fb))
                if s == 1:
                    adj = m
                if best_m is None or m < best_m:
                    best_m, best_s = m, s
            rows.append({"clip_id": cid, "best_shift": best_s,
                         "best_mass": best_m, "adjacent_mass": adj})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_loop_sql(vid: str) -> str:
    return (f"SELECT clip_id, best_shift, best_mass, adjacent_mass "
            f"FROM read_parquet('{_video_loop_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# coverage_saturation_curve: marginal new-cell yield by acquisition order
# ---------------------------------------------------------------------------


def q_coverage_saturation_curve(sf_dir: str):
    """Diminishing-returns curve of spatial coverage: for every
    occupied res-12 cell find the FIRST image (by acquisition order =
    the integer index in image_id) that covered it, then histogram
    those first-coverage positions into 8 equal acquisition bands —
    band 1 crowded means the corpus saturated its footprint early and
    later images are spatial re-visits (dedup fodder); a flat curve
    means coverage is still growing and acquisition should continue.
    The planner-facing integral of the coverage-Gini/holes ops. The
    scan contracts to the occupancy-bounded cell ledger via a
    (cell, min idx) partial + groupby-min; banding is integer
    (idx·8)//N — no division forms. Full SQL replay (same Morton
    cell expression as the gini/perimeter ops)."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "lon", "lat"])
    n_img = ds.count()  # pure parquet read: metadata-only

    def part(t: pa.Table) -> pa.Table:
        code = cells.encode(t["lon"].to_numpy(zero_copy_only=False),
                            t["lat"].to_numpy(zero_copy_only=False),
                            12).view(np.int64)
        idx = pc.utf8_slice_codeunits(t["image_id"], 4) \
            .cast(pa.int64()).to_numpy(zero_copy_only=False)
        u, inv = np.unique(code, return_inverse=True)
        mn = np.full(len(u), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mn, inv, idx)
        return pa.table({"cell": pa.array(u), "idx": pa.array(mn)})

    led = (ds.map_batches(part, batch_format="pyarrow")
           .groupby("cell").min("idx"))

    def band(t: pa.Table) -> pa.Table:
        fidx = t["min(idx)"].to_numpy(zero_copy_only=False)
        b = (fidx * 8) // n_img + 1
        u, c = np.unique(b, return_counts=True)
        return pa.table({"band": pa.array(u.astype(np.int64)),
                         "n_new_cells": pa.array(
                             c.astype(np.int64))})

    out = led.map_batches(band, batch_format="pyarrow") \
        .groupby("band").sum("n_new_cells")
    return _rename(out, ["band", "n_new_cells"])



QUERIES["coverage_saturation_curve"] = q_coverage_saturation_curve



def _coverage_curve_sql(img_dir: str) -> str:
    cell12 = _sql_cell("lon", "lat", 12)
    return f"""
        WITH t AS (SELECT {cell12} AS cell,
                          CAST(substr(image_id, 5) AS BIGINT) AS idx
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        n AS (SELECT count(*) AS nimg
              FROM read_parquet('{img_dir}/part-*.parquet')),
        f AS (SELECT cell, MIN(idx) AS fidx FROM t GROUP BY 1)
        SELECT CAST((f.fidx * 8) // n.nimg + 1 AS BIGINT) AS band,
               CAST(COUNT(*) AS BIGINT) AS n_new_cells
        FROM f, n GROUP BY 1
    """



# ---------------------------------------------------------------------------
# single_linkage_merges: Kruskal dendrogram of the near-dup graph
# ---------------------------------------------------------------------------


def q_single_linkage_merges(sf_dir: str):
    """Single-linkage dendrogram (Kruskal merge sequence) over the
    cosine near-dup graph: process edges by DESCENDING rounded cosine
    (ties by (a, b)); every edge that joins two distinct components
    records one merge — rank, cosine, the two components' min-id
    roots (lo < hi) and the merged size. The merge heights ARE the
    threshold sweep: cutting the sequence at cosine τ reproduces the
    flat components at τ, so one pass prices every dedup threshold at
    once (the hierarchical upgrade of component_threshold_sweep).
    Edge generation is the distributed block-pair/LSH stage; the
    union-find runs at edge-ledger scale on the driver (same contract
    as the matching/coloring ops). Oracle: an independent label-
    rewrite clustering in pure python over the SQL cosine-join pair
    list — two algorithms, one dendrogram."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({
        "merge_rank": pd.Series(dtype=np.int64),
        "cosine": pd.Series(dtype=np.float64),
        "lo_root": pd.Series(dtype=np.int64),
        "hi_root": pd.Series(dtype=np.int64),
        "size_after": pd.Series(dtype=np.int64)})
    if not pairs:
        return empty
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    cs = np.array([r["cosine"] for r in pairs], np.float64)
    o = np.lexsort((b, a, -cs))
    a, b, cs = a[o], b[o], cs[o]

    parent: dict[int, int] = {}
    size: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    rows = []
    for i in range(len(a)):
        ra, rb = find(int(a[i])), find(int(b[i]))
        if ra == rb:
            continue
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        sz = size.get(ra, 1) + size.get(rb, 1)
        parent[hi] = lo          # min-id root survives
        size[lo] = sz
        rows.append((len(rows) + 1, float(cs[i]), lo, hi, sz))
    if not rows:
        return empty
    return pd.DataFrame({
        "merge_rank": np.array([r[0] for r in rows], np.int64),
        "cosine": np.array([r[1] for r in rows], np.float64),
        "lo_root": np.array([r[2] for r in rows], np.int64),
        "hi_root": np.array([r[3] for r in rows], np.int64),
        "size_after": np.array([r[4] for r in rows], np.int64)})



QUERIES["single_linkage_merges"] = q_single_linkage_merges



def _slink_sidecar(sf_dir: str) -> str:
    """Label-rewrite replay of the Kruskal merge sequence."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "slink-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_slink_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b, cosine FROM ({EMBEDDING_DUPS_SQL}) "
            "ORDER BY cosine DESC, a, b").fetchall()
        lbl: dict[int, int] = {}
        members: dict[int, list[int]] = {}
        rows = []
        for x, y, c in prs:
            x, y = int(x), int(y)
            lx = lbl.get(x, x)
            ly = lbl.get(y, y)
            if lx == ly:
                continue
            lo, hi = (lx, ly) if lx < ly else (ly, lx)
            mlo = members.get(lo, [lo])
            mhi = members.get(hi, [hi])
            for m in mhi:            # naive full relabel
                lbl[m] = lo
            lbl.setdefault(lo, lo)
            lbl[hi] = lo
            members[lo] = mlo + mhi
            rows.append({"merge_rank": len(rows) + 1,
                         "cosine": float(c), "lo_root": lo,
                         "hi_root": hi,
                         "size_after": len(members[lo])})
        out = (pa.Table.from_pylist(rows) if rows else pa.table({
            "merge_rank": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
            "lo_root": pa.array([], pa.int64()),
            "hi_root": pa.array([], pa.int64()),
            "size_after": pa.array([], pa.int64())}))
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _slink_sql(sf_dir: str) -> str:
    return (f"SELECT merge_rank, cosine, lo_root, hi_root, size_after "
            f"FROM read_parquet('{_slink_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# caption_token_brightness_lift: cross-modal word -> pixel association
# ---------------------------------------------------------------------------


def q_caption_token_brightness_lift(sf_dir: str):
    """Which caption words predict bright images (first 1024): for
    every token appearing in ≥16 images, the exact brightness lift
    floor(10⁹ · Σmass_token · N / (n_token · Σmass_all)) — mass share
    over image share, the quotient never forming until one final
    integer floor on big ints; 10⁹ = neutral. Top-10 by (lift DESC,
    token ASC). The bag-of-words ancestor of CLIP-style word-pixel
    association, and the cross-modal QA check that caption vocabulary
    actually stratifies the pixels (a shuffled corpus reads ≈ 10⁹
    everywhere). ONE decode pass emits (token, mass, count) partials
    with tokens DEDUPED per image plus a reserved ''-total row; the
    shuffle is vocabulary-bounded. Oracle: gray-mass sidecar joined
    to the parquet captions, HUGEINT quotient replay."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class LiftStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            caps = batch["caption"].to_pylist()
            groups: dict[tuple[int, int], list[int]] = {}
            for i, (wi, hi) in enumerate(zip(ws, hs)):
                groups.setdefault((wi, hi), []).append(i)
            mass = np.zeros(len(caps), np.int64)
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                mass[slots] = (px.astype(np.int64).sum(axis=3) // 3) \
                    .sum(axis=(1, 2))
            agg: dict[str, list[int]] = {}
            for i, c in enumerate(caps):
                for tok in set(c.split(" ")) - {""}:
                    s = agg.setdefault(tok, [0, 0])
                    s[0] += int(mass[i])
                    s[1] += 1
            toks = sorted(agg)
            return pa.table({
                "token": pa.array([""] + toks),
                "mass": pa.array([int(mass.sum())]
                                 + [agg[t][0] for t in toks],
                                 pa.int64()),
                "n_img": pa.array([len(caps)]
                                  + [agg[t][1] for t in toks],
                                  pa.int64())})

    led = (ds.map_batches(LiftStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)
           .groupby("token").sum(["mass", "n_img"])).take_all()
    tot_mass = tot_n = 0
    toks = []
    for r in led:
        if r["token"] == "":
            tot_mass, tot_n = int(r["sum(mass)"]), int(r["sum(n_img)"])
        else:
            toks.append((r["token"], int(r["sum(mass)"]),
                         int(r["sum(n_img)"])))
    rows = []
    for tok, m, n in toks:
        if n >= 16 and tot_mass > 0:
            lift = (10**9 * m * tot_n) // (n * tot_mass)
            rows.append((tok, n, lift))
    rows.sort(key=lambda r: (-r[2], r[0]))
    rows = rows[:10]
    return pd.DataFrame({
        "token": [r[0] for r in rows],
        "n_images": np.array([r[1] for r in rows], np.int64),
        "lift_ppb": np.array([r[2] for r in rows], np.int64)})



QUERIES["caption_token_brightness_lift"] = q_caption_token_brightness_lift



def _caption_lift_sql(img: str) -> str:
    mass = _mass_sidecar(img)
    return f"""
        WITH m AS (SELECT image_id, mass
                   FROM read_parquet('{mass}')),
        cap AS (SELECT image_id, caption
                FROM read_parquet('{img}/part-*.parquet')
                WHERE image_id IN (SELECT image_id FROM m)),
        tk AS (SELECT DISTINCT image_id, tok FROM (
                   SELECT image_id,
                          unnest(string_split(caption, ' ')) AS tok
                   FROM cap) WHERE tok <> ''),
        tot AS (SELECT CAST(SUM(mass) AS HUGEINT) AS tm,
                       CAST(COUNT(*) AS HUGEINT) AS tn FROM m),
        per AS (SELECT tk.tok AS token,
                       CAST(COUNT(*) AS BIGINT) AS n_images,
                       CAST(SUM(m.mass) AS HUGEINT) AS tmass
                FROM tk JOIN m USING (image_id) GROUP BY 1)
        SELECT token, n_images,
               CAST((1000000000 * tmass * tot.tn)
                    // (CAST(n_images AS HUGEINT) * tot.tm)
                   AS BIGINT) AS lift_ppb
        FROM per, tot WHERE n_images >= 16
        ORDER BY lift_ppb DESC, token ASC LIMIT 10
    """



# ---------------------------------------------------------------------------
# stop_dwell_census: dwell-time class census per route
# ---------------------------------------------------------------------------


def q_stop_dwell_census(sf_dir: str):
    """Dwell-time audit per route: dwell = departure − arrival at
    every stop_time, classed −1 (negative — clock error, the feed-
    validator finding), 0 (zero dwell — timepoint-only feeds), 1
    (1–30 s, flag stops), 2 (31–120 s, scheduled dwell), 3 (>120 s,
    layover/driver break encoded as dwell) — counts and exact dwell
    mass per (route, class). The AT-STOP complement of the leg-speed
    audit (which sees only the inter-stop clock): together they
    partition all schedule time. trips→route is a broadcast
    dimension; only (route, class) partials shuffle. Direct SQL
    replay on the same split-arithmetic second parse."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]).take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "arrival_time",
                                  "departure_time"])

    def _secs(col) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        out = pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))
        return out.to_numpy(zero_copy_only=False)

    def part(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        dwell = _secs(t["departure_time"]) - _secs(t["arrival_time"])
        cls = np.where(dwell < 0, -1,
                       np.where(dwell == 0, 0,
                                np.where(dwell <= 30, 1,
                                         np.where(dwell <= 120, 2,
                                                  3))))
        route = np.asarray([tm[x] for x in
                            t["trip_id"].to_pylist()])
        df = pd.DataFrame({"route_id": route, "cls": cls,
                           "dwell": dwell})
        g = df.groupby(["route_id", "cls"], sort=True)["dwell"] \
            .agg(["count", "sum"]).reset_index()
        return pa.table({
            "route_id": pa.array(g["route_id"]),
            "cls": pa.array(g["cls"].to_numpy(np.int64)),
            "n_stops": pa.array(g["count"].to_numpy(np.int64)),
            "dwell_sum": pa.array(g["sum"].to_numpy(np.int64))})

    out = (st.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["route_id", "cls"]).sum(["n_stops", "dwell_sum"]))
    return _rename(out, ["route_id", "cls", "n_stops", "dwell_sum"])



QUERIES["stop_dwell_census"] = q_stop_dwell_census



def _dwell_sql() -> str:
    d = _fixture_sql_dir()
    secs = ("CAST(split_part({c}, ':', 1) AS BIGINT) * 3600 "
            "+ CAST(split_part({c}, ':', 2) AS BIGINT) * 60 "
            "+ CAST(split_part({c}, ':', 3) AS BIGINT)")
    return f"""
        WITH st AS (SELECT trip_id,
                           ({secs.format(c='departure_time')})
                         - ({secs.format(c='arrival_time')}) AS dwell
                    FROM read_parquet('{d}/stop_times.parquet')),
        j AS (SELECT t.route_id, st.dwell,
                     CASE WHEN st.dwell < 0 THEN -1
                          WHEN st.dwell = 0 THEN 0
                          WHEN st.dwell <= 30 THEN 1
                          WHEN st.dwell <= 120 THEN 2
                          ELSE 3 END AS cls
              FROM st JOIN read_parquet('{d}/trips.parquet') t
                USING (trip_id))
        SELECT route_id, CAST(cls AS BIGINT) AS cls,
               CAST(COUNT(*) AS BIGINT) AS n_stops,
               CAST(SUM(dwell) AS BIGINT) AS dwell_sum
        FROM j GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# shingle_novelty_curve: text-side coverage saturation over doc order
# ---------------------------------------------------------------------------


def q_shingle_novelty_curve(sf_dir: str):
    """Novelty curve of the corpus: for every DISTINCT token 3-gram
    shingle, the acquisition band (idx·8)//N + 1 of the FIRST doc (by
    doc_id) containing it — the text-side twin of the spatial
    coverage-saturation curve: a front-loaded histogram says later
    documents are phrase-level re-visits (near-dup / boilerplate
    fodder) and crawling has saturated; flat says the corpus is still
    finding new language. Plan: the boilerplate op's vectorized
    ragged 3-window explode, (shingle, min doc) partials, one
    shingle-grain groupby-min (Heaps-bounded), integer banding.
    list-slice + MIN + integer-division SQL replay."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()  # pure parquet read: metadata-only

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t["text"]), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        m = np.maximum(lens - 2, 0)
        tot = int(m.sum())
        if tot == 0:
            return pa.table({"shingle": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64())})
        seg = np.repeat(np.arange(len(m)), m)
        mstart = np.concatenate(([0], np.cumsum(m)[:-1]))
        local = np.arange(tot) - mstart[seg]
        i0 = starts[seg] + local
        sh = pc.binary_join_element_wise(
            flat.take(pa.array(i0)), flat.take(pa.array(i0 + 1)),
            flat.take(pa.array(i0 + 2)), " ")
        doc = t["doc_id"].to_numpy(zero_copy_only=False)[seg]
        g = pa.table({"shingle": sh, "doc_id": pa.array(doc)}) \
            .group_by("shingle").aggregate([("doc_id", "min")])
        return g.rename_columns(["shingle", "doc_id"])

    led = (ds.map_batches(explode, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("shingle").min("doc_id"))

    def band(t: pa.Table) -> pa.Table:
        fdoc = t["min(doc_id)"].to_numpy(zero_copy_only=False)
        b = (fdoc * 8) // n_docs + 1
        u, c = np.unique(b, return_counts=True)
        return pa.table({"band": pa.array(u.astype(np.int64)),
                         "n_new_shingles": pa.array(
                             c.astype(np.int64))})

    out = led.map_batches(band, batch_format="pyarrow") \
        .groupby("band").sum("n_new_shingles")
    return _rename(out, ["band", "n_new_shingles"])



QUERIES["shingle_novelty_curve"] = q_shingle_novelty_curve

ORACLE_SQL["shingle_novelty_curve"] = """
        WITH tok AS (SELECT doc_id,
                            string_split_regex(trim(text), '\\s+') AS ts
                     FROM documents),
        sh AS (SELECT doc_id,
                      array_to_string(ts[i:i+2], ' ') AS shingle
               FROM tok,
                    LATERAL (SELECT unnest(generate_series(
                        1, len(ts) - 2)) AS i)),
        n AS (SELECT COUNT(*) AS nd FROM documents),
        f AS (SELECT shingle, MIN(doc_id) AS fdoc FROM sh GROUP BY 1)
        SELECT CAST((f.fdoc * 8) // n.nd + 1 AS BIGINT) AS band,
               CAST(COUNT(*) AS BIGINT) AS n_new_shingles
        FROM f, n GROUP BY 1
    """



# ---------------------------------------------------------------------------
# texture_direction_census: gradient sign-flip anisotropy per image
# ---------------------------------------------------------------------------


def q_texture_direction_census(sf_dir: str):
    """Texture directionality per image (first 1024): count strict
    sign FLIPS of the horizontal first difference along rows
    (dh·dh′ < 0 at adjacent positions) and of the vertical difference
    along columns — oscillation frequency by axis, the FFT-free
    anisotropy reading: vertical stripes flip horizontally but not
    vertically, noise flips both, flat fills flip neither. The
    direction class sign(h_flips − v_flips) feeds an orientation-
    aware augmenter/filter the autocorrelation ops (which measure
    period, not roughness) don't serve. Two diffs + two product
    compares per batch tensor — no per-pixel python. Scalar python
    replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class DirStage:
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
            out_id, out_h, out_v, out_c = [], [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                dh = np.diff(gray, axis=2)
                dv = np.diff(gray, axis=1)
                hf = (dh[:, :, 1:] * dh[:, :, :-1] < 0) \
                    .sum(axis=(1, 2)).astype(np.int64)
                vf = (dv[:, 1:, :] * dv[:, :-1, :] < 0) \
                    .sum(axis=(1, 2)).astype(np.int64)
                out_id.append(ids[slots])
                out_h.append(hf)
                out_v.append(vf)
                out_c.append(np.sign(hf - vf).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "h_flips": pa.array(np.concatenate(out_h)),
                "v_flips": pa.array(np.concatenate(out_v)),
                "direction": pa.array(np.concatenate(out_c))})

    return ds.map_batches(DirStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["texture_direction_census"] = q_texture_direction_census



def _texture_dir_sidecar(img: str, n: int = 1024) -> str:
    """Scalar python replay for texture_direction_census."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_texdir_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            gray = [[(int(px[y, x, 0]) + int(px[y, x, 1])
                      + int(px[y, x, 2])) // 3
                     for x in range(wi)] for y in range(hi)]
            hf = 0
            for y in range(hi):
                for x in range(wi - 2):
                    a = gray[y][x + 1] - gray[y][x]
                    b = gray[y][x + 2] - gray[y][x + 1]
                    if a * b < 0:
                        hf += 1
            vf = 0
            for x in range(wi):
                for y in range(hi - 2):
                    a = gray[y + 1][x] - gray[y][x]
                    b = gray[y + 2][x] - gray[y + 1][x]
                    if a * b < 0:
                        vf += 1
            d = 1 if hf > vf else (-1 if vf > hf else 0)
            rows.append({"image_id": str(iid[j]), "h_flips": hf,
                         "v_flips": vf, "direction": d})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _texture_dir_sql(img: str) -> str:
    return (f"SELECT image_id, h_flips, v_flips, direction "
            f"FROM read_parquet('{_texture_dir_sidecar(img)}')")



# ---------------------------------------------------------------------------
# direction_stop_asymmetry: per-route stop-set symmetric difference
# ---------------------------------------------------------------------------


def q_direction_stop_asymmetry(sf_dir: str):
    """Directional service asymmetry per route: the stops served only
    by direction-0 trips, only by direction-1 trips, and by both —
    one-way couplets, short-turn variants and express skips all show
    up as a nonzero symmetric difference, which breaks the 'reverse
    the stop list' assumption a naive bidirectional renderer (or the
    reference's single stops-per-route list, src/lib/geojson-utils.ts
    :88-130) silently makes. Plan: distinct (route, stop, dir) ledger
    partials, the direction mask folds as Σ(1<<dir) at (route, stop)
    grain (exact — dir is distinct there), then per-route mask
    counts. Full SQL replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id",
                                     "direction_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"], int(r["direction_id"]))
            for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id"])

    def part(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        tid = t["trip_id"].to_pylist()
        sid = t["stop_id"].to_pylist()
        seen = {(tm[a][0], b, tm[a][1]) for a, b in zip(tid, sid)}
        return pa.table({
            "route_id": pa.array([x[0] for x in seen], pa.string()),
            "stop_id": pa.array([x[1] for x in seen], pa.string()),
            "bit": pa.array([1 << x[2] for x in seen], pa.int64())})

    # distinct at (route, stop, bit) grain, then mask = Σ distinct bits
    ledger = (st.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["route_id", "stop_id", "bit"]).count())

    def mask_part(t: pa.Table) -> pa.Table:
        return pa.table({"route_id": t["route_id"],
                         "stop_id": t["stop_id"],
                         "bit": t["bit"]})

    masks = (ledger.map_batches(mask_part, batch_format="pyarrow")
             .groupby(["route_id", "stop_id"]).sum("bit"))

    def fold(t: pa.Table) -> pa.Table:
        m = t["sum(bit)"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"route_id": t["route_id"].to_pylist(),
                           "m": m})
        g = df.groupby("route_id")["m"].agg(
            only0=lambda s: int((s == 1).sum()),
            only1=lambda s: int((s == 2).sum()),
            shared=lambda s: int((s == 3).sum())).reset_index()
        return pa.table({
            "route_id": pa.array(g["route_id"]),
            "n_only0": pa.array(g["only0"].to_numpy(np.int64)),
            "n_only1": pa.array(g["only1"].to_numpy(np.int64)),
            "n_shared": pa.array(g["shared"].to_numpy(np.int64))})

    out = masks.map_batches(fold, batch_format="pyarrow") \
        .groupby("route_id").sum(["n_only0", "n_only1", "n_shared"])
    return _rename(out, ["route_id", "n_only0", "n_only1",
                         "n_shared"])



QUERIES["direction_stop_asymmetry"] = q_direction_stop_asymmetry



def _dir_asym_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH sd AS (SELECT DISTINCT t.route_id, st.stop_id,
                           t.direction_id
                    FROM read_parquet('{d}/stop_times.parquet') st
                    JOIN read_parquet('{d}/trips.parquet') t
                      USING (trip_id)),
        m AS (SELECT route_id, stop_id,
                     CAST(SUM(1 << direction_id) AS BIGINT) AS msk
              FROM sd GROUP BY 1, 2)
        SELECT route_id,
               CAST(SUM(CASE WHEN msk = 1 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_only0,
               CAST(SUM(CASE WHEN msk = 2 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_only1,
               CAST(SUM(CASE WHEN msk = 3 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_shared
        FROM m GROUP BY 1
    """



# ---------------------------------------------------------------------------
# box_count_images: multi-scale occupied-box spectrum (fractal proxy)
# ---------------------------------------------------------------------------


def q_box_count_images(sf_dir: str):
    """Box-counting spectrum per image (first 1024): the number of
    grid-aligned k×k boxes (k = 1, 2, 4, 8; border partials count)
    containing ≥1 bright pixel (sum//3 luminance ≥ 128) — the
    box-counting-dimension proxy: the log-slope of n_boxes over k
    separates space-filling texture (slope ≈ −2) from curve-like
    strokes (≈ −1) and isolated speckle (≈ 0), all in exact integers
    with the division left to the analyst. Scale-1 boxes double as
    the bright-pixel count. One pad + reshape + any() reduction per
    scale over the batch tensor. Scalar python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class BoxStage:
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
            out_id, out_s, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                bright = (px.astype(np.int64).sum(axis=3) // 3) >= 128
                k_n = len(slots)
                for k in (1, 2, 4, 8):
                    bh = -(-hi // k)
                    bw = -(-wi // k)
                    padded = np.zeros((k_n, bh * k, bw * k), bool)
                    padded[:, :hi, :wi] = bright
                    occ = padded.reshape(k_n, bh, k, bw, k) \
                        .any(axis=(2, 4)).sum(axis=(1, 2)) \
                        .astype(np.int64)
                    out_id.append(ids[slots])
                    out_s.append(np.full(k_n, k, np.int64))
                    out_n.append(occ)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "scale": pa.array(np.concatenate(out_s)),
                "n_boxes": pa.array(np.concatenate(out_n))})

    return ds.map_batches(BoxStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["box_count_images"] = q_box_count_images



def _box_count_sidecar(img: str, n: int = 1024) -> str:
    """Scalar python replay for box_count_images."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_boxcount_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            bright = [[(int(px[y, x, 0]) + int(px[y, x, 1])
                        + int(px[y, x, 2])) // 3 >= 128
                       for x in range(wi)] for y in range(hi)]
            for k in (1, 2, 4, 8):
                occ = 0
                for by in range(0, hi, k):
                    for bx in range(0, wi, k):
                        hit = False
                        for y in range(by, min(by + k, hi)):
                            for x in range(bx, min(bx + k, wi)):
                                if bright[y][x]:
                                    hit = True
                        if hit:
                            occ += 1
                rows.append({"image_id": str(iid[j]), "scale": k,
                             "n_boxes": occ})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _box_count_sql(img: str) -> str:
    return (f"SELECT image_id, scale, n_boxes "
            f"FROM read_parquet('{_box_count_sidecar(img)}')")



# ---------------------------------------------------------------------------
# cell_moore_census: 8-neighbourhood occupancy spectrum of the coverage
# ---------------------------------------------------------------------------


def q_cell_moore_census(sf_dir: str):
    """Fragmentation spectrum of the res-12 coverage: for every
    occupied cell, how many of its 8 Moore neighbours are occupied —
    the histogram over 0..8 separates isolated specks (0), filament
    corridors (2–3) and solid carpet (8), refining the scalar
    perimeter/Gini compactness reads into a full spectrum (the
    landscape-ecology 'join count' statistic on the tile footprint).
    The scan contracts to the occupancy ledger; every cell then
    probes its 8 neighbour keys and one groupby counts probes landing
    on real cells — the probe count AT an occupied key IS its Moore
    degree, no grid ever materializes. LEFT-join SQL replay."""
    from geotile.ops.tiles import read_image_table

    n = 1 << 12
    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def cells_part(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.clip(np.floor((lon + 180.0) / 360.0 * n), 0,
                     n - 1).astype(np.int64)
        iy = np.clip(np.floor((lat + 90.0) / 180.0 * n), 0,
                     n - 1).astype(np.int64)
        key = np.unique(ix * n + iy)
        return pa.table({"key": pa.array(key)})

    occ = (ds.map_batches(cells_part, batch_format="pyarrow")
           .groupby("key").count())

    def probes(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        ix, iy = key // n, key % n
        pk = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = ix + dx, iy + dy
                ok = (nx >= 0) & (nx < n) & (ny >= 0) & (ny < n)
                pk.append((nx * n + ny)[ok])
        pk = np.concatenate(pk)
        return pa.table({
            "key": pa.array(np.concatenate([key, pk])),
            "real": pa.array(np.r_[np.ones(len(key), np.int64),
                                   np.zeros(len(pk), np.int64)]),
            "probe": pa.array(np.r_[np.zeros(len(key), np.int64),
                                    np.ones(len(pk), np.int64)])})

    marked = (occ.map_batches(probes, batch_format="pyarrow")
              .groupby("key").sum(["real", "probe"]))

    def hist(t: pa.Table) -> pa.Table:
        r = t["sum(real)"].to_numpy(zero_copy_only=False)
        p = t["sum(probe)"].to_numpy(zero_copy_only=False)
        deg = p[r > 0]
        u, c = np.unique(deg, return_counts=True)
        return pa.table({"n_neighbors": pa.array(u.astype(np.int64)),
                         "n_cells": pa.array(c.astype(np.int64))})

    out = marked.map_batches(hist, batch_format="pyarrow") \
        .groupby("n_neighbors").sum("n_cells")
    return _rename(out, ["n_neighbors", "n_cells"])



QUERIES["cell_moore_census"] = q_cell_moore_census



def _moore_sql(img_dir: str) -> str:
    qx = _sql_quant("lon", "180.0", "360.0", 12)
    qy = _sql_quant("lat", "90.0", "180.0", 12)
    return f"""
        WITH q AS (SELECT DISTINCT {qx} AS ix, {qy} AS iy
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        c AS (SELECT a.ix, a.iy, CAST(COUNT(b.ix) AS BIGINT) AS m
              FROM q a LEFT JOIN q b
                ON abs(b.ix - a.ix) <= 1 AND abs(b.iy - a.iy) <= 1
               AND NOT (b.ix = a.ix AND b.iy = a.iy)
              GROUP BY 1, 2)
        SELECT m AS n_neighbors, CAST(COUNT(*) AS BIGINT) AS n_cells
        FROM c GROUP BY 1
    """



# ---------------------------------------------------------------------------
# clockface_schedule_audit: memorable-timetable concentration per route
# ---------------------------------------------------------------------------


def q_clockface_schedule_audit(sf_dir: str):
    """Clockface (memorable-timetable) audit per route: of all
    arrivals, how many land exactly on quarter-hour marks (sec mod
    900 = 0) and five-minute marks (mod 300) — European-style
    clockface scheduling pins departures to repeating minutes every
    hour, and its absence (after headway regularity is confirmed)
    distinguishes demand-responsive from pattern timetables; also the
    quick smell for second-precision GTFS exports that were rounded.
    trips→route broadcast; (route) count partials only. Direct SQL
    replay on the split-arithmetic parse."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]).take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "arrival_time"])

    def part(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        parts_ = pc.split_pattern(t["arrival_time"], ":")
        sec = (pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts_, 0)
                            .cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts_, 1)
                            .cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts_, 2).cast(pa.int64()))
            .to_numpy(zero_copy_only=False))
        route = np.asarray([tm[x] for x in
                            t["trip_id"].to_pylist()])
        df = pd.DataFrame({"route_id": route,
                           "q": (sec % 900 == 0).astype(np.int64),
                           "f": (sec % 300 == 0).astype(np.int64)})
        g = df.groupby("route_id").agg(
            n_arrivals=("q", "size"), n_quarter=("q", "sum"),
            n_five=("f", "sum")).reset_index()
        return pa.table({
            "route_id": pa.array(g["route_id"]),
            "n_arrivals": pa.array(
                g["n_arrivals"].to_numpy(np.int64)),
            "n_quarter": pa.array(g["n_quarter"].to_numpy(np.int64)),
            "n_five": pa.array(g["n_five"].to_numpy(np.int64))})

    out = (st.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("route_id").sum(["n_arrivals", "n_quarter",
                                     "n_five"]))
    return _rename(out, ["route_id", "n_arrivals", "n_quarter",
                         "n_five"])



QUERIES["clockface_schedule_audit"] = q_clockface_schedule_audit



def _clockface_sql() -> str:
    d = _fixture_sql_dir()
    secs = ("(CAST(split_part(arrival_time, ':', 1) AS BIGINT) * 3600 "
            "+ CAST(split_part(arrival_time, ':', 2) AS BIGINT) * 60 "
            "+ CAST(split_part(arrival_time, ':', 3) AS BIGINT))")
    return f"""
        SELECT t.route_id,
               CAST(COUNT(*) AS BIGINT) AS n_arrivals,
               CAST(SUM(CASE WHEN {secs} % 900 = 0 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_quarter,
               CAST(SUM(CASE WHEN {secs} % 300 = 0 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_five
        FROM read_parquet('{d}/stop_times.parquet') st
        JOIN read_parquet('{d}/trips.parquet') t USING (trip_id)
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# linear_counting_users: bitmap-occupancy distinct sketch (6th family)
# ---------------------------------------------------------------------------


def q_linear_counting_users(sf_dir: str):
    """Linear counting of distinct users — the bitmap-occupancy
    sketch (Whang et al.), the 6th sketch family next to HLL / KMV /
    CM / AMS / Misra-Gries: hash each user with splitmix64 into a
    4096-bit bitmap; occupied bits m give the classic estimate
    n̂ = −b·ln(1 − m/b), reported here as its EXACT integer
    ingredients (m, b) with the fill ppm floor(10⁶·m/b) so no
    transcendental forms; the exact distinct count rides the same
    row for the error read. Per-batch partials are the OR-able set
    of occupied bit indices (≤ 4096 cells regardless of stream
    size) shuffled at bit grain — never the key stream. Python sm64
    sidecar × direct-SQL exact companion (the cm/f2 oracle
    pattern)."""
    from geotile.synth import splitmix64

    ev = _read(sf_dir, "events", ["user_id"])
    B = 4096

    def part(t: pa.Table) -> pa.Table:
        ids = t["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        bits = (splitmix64(ids) % np.uint64(B)).astype(np.int64)
        return pa.table({"bit": pa.array(np.unique(bits))})

    bits = (ev.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("bit").count()).take_all()
    m = len(bits)

    def exact_part(t: pa.Table) -> pa.Table:
        u = np.unique(t["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({"user_id": pa.array(u)})

    n_exact = (ev.map_batches(exact_part, batch_format="pyarrow")
               .groupby("user_id").count()).count()
    return pd.DataFrame({
        "occupied_bits": np.array([m], np.int64),
        "bitmap_size": np.array([B], np.int64),
        "fill_ppm": np.array([(10**6 * m) // B], np.int64),
        "exact_distinct": np.array([n_exact], np.int64)})



QUERIES["linear_counting_users"] = q_linear_counting_users



def _lincount_sidecar(sf_dir: str) -> str:
    """Pure-python sm64 bitmap replay (occupied bits only)."""
    from hashlib import blake2b
    from pathlib import Path

    import pyarrow.parquet as pq

    from battery.oracle_ref import sm64

    key = blake2b((sf_dir + "lincount-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lincount_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        t = pq.read_table(f"{sf_dir}/events.parquet",
                          columns=["user_id"])
        occupied = set()
        for u in set(t["user_id"].to_pylist()):
            occupied.add(sm64(int(u) & ((1 << 64) - 1)) % 4096)
        m = len(occupied)
        out = pa.table({
            "occupied_bits": pa.array([m], pa.int64()),
            "bitmap_size": pa.array([4096], pa.int64()),
            "fill_ppm": pa.array([(10**6 * m) // 4096], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lincount_sql(sf_dir: str) -> str:
    return f"""
        SELECT s.occupied_bits, s.bitmap_size, s.fill_ppm,
               e.exact_distinct
        FROM read_parquet('{_lincount_sidecar(sf_dir)}') s CROSS JOIN (
            SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT)
                AS exact_distinct FROM events
        ) e
    """



# ---------------------------------------------------------------------------
# hopkins_clusterability: probe-vs-data nearest-neighbour audit
# ---------------------------------------------------------------------------


def _hopkins_probes_path() -> str:
    """Sidecar: 8 deterministic unit probe vectors (seed 11) in long
    (probe_id, dim, x_e6) format so the SQL replay joins on dim.
    Content-keyed on this module's lattice convention tag."""
    import pyarrow.parquet as pq

    p = _oracle_cache_dir() / "oracle_hopkins_probes_v1.parquet"
    if not p.exists():
        t0 = pq.read_table(
            "/root/testdata/sf0.01/embeddings.parquet",
            columns=["embedding"]).slice(0, 1)
        dim = len(t0["embedding"][0])
        g = np.random.default_rng(11).standard_normal((8, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        xe6 = np.floor(g.astype(np.float64) * 1_000_000.0) \
            .astype(np.int64)
        out = pa.table({
            "probe_id": pa.array(np.repeat(np.arange(8, dtype=np.int64),
                                           dim)),
            "dim": pa.array(np.tile(np.arange(1, dim + 1,
                                              dtype=np.int64), 8)),
            "x": pa.array(xe6.reshape(-1))})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def q_hopkins_clusterability(sf_dir: str):
    """Hopkins-style clusterability audit: the exact e6-lattice
    nearest-neighbour d² sums for (a) 8 deterministic unit probes
    thrown into the space and (b) the 8 smallest-vec_id data points
    (self excluded) — clustered data has probe-NN ≫ data-NN (probes
    land in the voids), so hopkins_ppb = ⌊10⁹·probe/(probe+data)⌋
    reads ≈ 10⁹ for tight clusters and ≈ 5·10⁸ for uniform clouds:
    the go/no-go a pipeline runs BEFORE paying for k-means/IVF
    training. One streaming pass: each batch ships a 16-cell
    min-d² partial (8 probes + 8 data anchors) — mergeable, never a
    second corpus read. Probe sidecar + unnest self-join SQL replay
    with a HUGEINT quotient."""
    import pyarrow.parquet as pq_

    probes = pq_.read_table(_hopkins_probes_path())
    dim = int(probes["dim"].to_numpy().max())
    P = np.zeros((8, dim), np.int64)
    P[probes["probe_id"].to_numpy(),
      probes["dim"].to_numpy() - 1] = probes["x"].to_numpy()

    anchors = pq_.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"]) \
        .sort_by("vec_id").slice(0, 8)
    aid = anchors["vec_id"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    A = np.floor(np.stack(
        anchors["embedding"].to_numpy(zero_copy_only=False))
        .astype(np.float64) * 1_000_000.0).astype(np.int64)
    Q = np.vstack([P, A])                      # (16, dim)
    qref = ray.put((Q, aid))

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def part(t: pa.Table) -> pa.Table:
        Qm, aids = _broadcast(qref)
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        vid = t["vec_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        d2 = ((Qm * Qm).sum(axis=1)[:, None]
              + (V * V).sum(axis=1)[None, :]
              - 2 * (Qm @ V.T))                # (16, n)
        # data anchors exclude themselves
        for k in range(8):
            self_ix = np.nonzero(vid == aids[k])[0]
            d2[8 + k, self_ix] = np.iinfo(np.int64).max
        return pa.table({
            "q": pa.array(np.arange(16, dtype=np.int64)),
            "d2": pa.array(d2.min(axis=1))})

    cells = (emb.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
             .groupby("q").min("d2")).take_all()
    mins = {int(r["q"]): int(r["min(d2)"]) for r in cells}
    probe_sum = sum(mins[i] for i in range(8))
    data_sum = sum(mins[8 + i] for i in range(8))
    ppb = (10**9 * probe_sum) // (probe_sum + data_sum) \
        if probe_sum + data_sum else 0
    return pd.DataFrame({
        "probe_d2_sum": np.array([probe_sum], np.int64),
        "data_d2_sum": np.array([data_sum], np.int64),
        "hopkins_ppb": np.array([ppb], np.int64)})



QUERIES["hopkins_clusterability"] = q_hopkins_clusterability



def _hopkins_sql() -> str:
    probes = _hopkins_probes_path()
    return f"""
        WITH x AS (SELECT vec_id, dim,
                          CAST(floor(CAST(v AS DOUBLE) * 1000000.0)
                              AS BIGINT) AS x
                   FROM embeddings,
                        LATERAL (SELECT unnest(embedding) AS v,
                                 generate_subscripts(embedding, 1)
                                     AS dim)),
        pd AS (SELECT p.probe_id, x.vec_id,
                      CAST(SUM((p.x - x.x) * (p.x - x.x)) AS BIGINT)
                          AS d2
               FROM read_parquet('{probes}') p
               JOIN x ON x.dim = p.dim
               GROUP BY 1, 2),
        pmin AS (SELECT CAST(SUM(m) AS BIGINT) AS probe_d2_sum
                 FROM (SELECT MIN(d2) AS m FROM pd GROUP BY probe_id)),
        anchors AS (SELECT vec_id FROM embeddings
                    ORDER BY vec_id LIMIT 8),
        dd AS (SELECT a.vec_id AS aid, b.vec_id AS bid,
                      CAST(SUM((xa.x - xb.x) * (xa.x - xb.x))
                          AS BIGINT) AS d2
               FROM anchors a JOIN x xa ON xa.vec_id = a.vec_id
               JOIN x xb ON xb.dim = xa.dim
                        AND xb.vec_id <> a.vec_id
               JOIN embeddings b ON b.vec_id = xb.vec_id
               GROUP BY 1, 2),
        dmin AS (SELECT CAST(SUM(m) AS BIGINT) AS data_d2_sum
                 FROM (SELECT MIN(d2) AS m FROM dd GROUP BY aid))
        SELECT pmin.probe_d2_sum, dmin.data_d2_sum,
               CAST((1000000000 * CAST(pmin.probe_d2_sum AS HUGEINT))
                    // (CAST(pmin.probe_d2_sum AS HUGEINT)
                        + CAST(dmin.data_d2_sum AS HUGEINT))
                   AS BIGINT) AS hopkins_ppb
        FROM pmin, dmin
    """



# ---------------------------------------------------------------------------
# gtfs_orphan_audit: cross-file referential-integrity census
# ---------------------------------------------------------------------------


def q_gtfs_orphan_audit(sf_dir: str):
    """Cross-file orphan audit of the GTFS feed — the referential
    checks node-gtfs runs on import and the reference then trusts
    (src/lib/gtfs-to-geojson.ts importGtfs): stops never served by a
    stop_time, shapes no trip references, calendar services no trip
    uses, trips with zero stop_times, trips pointing at missing
    shapes, and stop_times pointing at missing stops — one
    (relation, n_orphans) row each, all six ALWAYS emitted so a
    clean feed hashes as six zeros, not an empty set. Dimension key
    sets broadcast (they are dimension-scale); the single
    stop_times scan serves every fact-side relation. Anti-join SQL
    replay."""
    d = _fixture_sql_dir()
    stops = {r["stop_id"] for r in rd.read_parquet(
        f"{d}/stops.parquet", columns=["stop_id"]).take_all()}
    shapes = {r["shape_id"] for r in rd.read_parquet(
        f"{d}/shapes.parquet", columns=["shape_id"]).take_all()}
    cal = {r["service_id"] for r in rd.read_parquet(
        f"{d}/calendar.parquet", columns=["service_id"]).take_all()}
    trips = rd.read_parquet(
        f"{d}/trips.parquet",
        columns=["trip_id", "shape_id", "service_id"]).take_all()
    trip_ids = {r["trip_id"] for r in trips}
    svc_used = {r["service_id"] for r in trips}
    # NULL shape_id is legal GTFS (shapes are optional), not an orphan
    n_missing_shape = sum(1 for r in trips
                          if r["shape_id"] is not None
                          and r["shape_id"] not in shapes)
    sref = ray.put((stops, trip_ids))

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id"])

    def served_part(t: pa.Table) -> pa.Table:
        u = sorted(set(t["stop_id"].to_pylist()))
        return pa.table({"stop_id": pa.array(u, pa.string())})

    def trip_part(t: pa.Table) -> pa.Table:
        u = sorted(set(t["trip_id"].to_pylist()))
        return pa.table({"trip_id": pa.array(u, pa.string())})

    def dang_part(t: pa.Table) -> pa.Table:
        sset, _ = _broadcast(sref)
        n = sum(1 for x in t["stop_id"].to_pylist() if x not in sset)
        return pa.table({"n": pa.array([n], pa.int64())})

    served = {r["stop_id"] for r in
              st.map_batches(served_part, batch_format="pyarrow")
              .groupby("stop_id").count().take_all()}
    trips_with_st = {r["trip_id"] for r in
                     st.map_batches(trip_part, batch_format="pyarrow")
                     .groupby("trip_id").count().take_all()}
    n_dangling = sum(r["n"] for r in
                     st.map_batches(dang_part,
                                    batch_format="pyarrow").take_all())

    rows = [
        ("services_unused", len(cal - svc_used)),
        ("shapes_unused",
         len(shapes - {r["shape_id"] for r in trips})),
        ("stop_times_dangling_stop", n_dangling),
        ("stops_unserved", len(stops - served)),
        ("trips_empty", len(trip_ids - trips_with_st)),
        ("trips_missing_shape", n_missing_shape),
    ]
    return pd.DataFrame({
        "relation": [r[0] for r in rows],
        "n_orphans": np.array([r[1] for r in rows], np.int64)})



QUERIES["gtfs_orphan_audit"] = q_gtfs_orphan_audit



def _orphan_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH st AS (SELECT * FROM
                    read_parquet('{d}/stop_times.parquet')),
        tr AS (SELECT * FROM read_parquet('{d}/trips.parquet')),
        sp AS (SELECT DISTINCT shape_id FROM
               read_parquet('{d}/shapes.parquet')),
        so AS (SELECT stop_id FROM read_parquet('{d}/stops.parquet')),
        ca AS (SELECT service_id FROM
               read_parquet('{d}/calendar.parquet'))
        SELECT 'services_unused' AS relation,
               CAST((SELECT COUNT(*) FROM ca WHERE service_id NOT IN
                     (SELECT service_id FROM tr)) AS BIGINT)
                   AS n_orphans
        UNION ALL SELECT 'shapes_unused',
               CAST((SELECT COUNT(*) FROM sp WHERE shape_id NOT IN
                     (SELECT shape_id FROM tr
                      WHERE shape_id IS NOT NULL)) AS BIGINT)
        UNION ALL SELECT 'stop_times_dangling_stop',
               CAST((SELECT COUNT(*) FROM st WHERE stop_id NOT IN
                     (SELECT stop_id FROM so)) AS BIGINT)
        UNION ALL SELECT 'stops_unserved',
               CAST((SELECT COUNT(*) FROM so WHERE stop_id NOT IN
                     (SELECT stop_id FROM st)) AS BIGINT)
        UNION ALL SELECT 'trips_empty',
               CAST((SELECT COUNT(*) FROM tr WHERE trip_id NOT IN
                     (SELECT trip_id FROM st)) AS BIGINT)
        UNION ALL SELECT 'trips_missing_shape',
               CAST((SELECT COUNT(*) FROM tr
                     WHERE shape_id IS NOT NULL AND shape_id NOT IN
                     (SELECT shape_id FROM sp)) AS BIGINT)
    """



# ---------------------------------------------------------------------------
# onion_profile_images: border-distance ring mass profile
# ---------------------------------------------------------------------------


def q_onion_profile_images(sf_dir: str):
    """Onion (frame-depth) profile per image (first 1024): total
    sum//3 luminance mass per border-distance ring, ring =
    min(x, y, w−1−x, h−1−y) — the full radial-by-frame spectrum
    behind the scalar center-bias op: letterboxes and watermark
    frames spike ring 0, centered subjects pile mass in deep rings,
    and the profile is the exact input a smart-crop margin chooser
    needs. One ring-index tensor + per-image bincount per size
    group. Conservation: Σ ring mass = total gray mass. Scalar
    python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class OnionStage:
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
                yy = np.arange(hi)[:, None]
                xx = np.arange(wi)[None, :]
                ring = np.minimum(np.minimum(yy, hi - 1 - yy),
                                  np.minimum(xx, wi - 1 - xx))
                nr = int(ring.max()) + 1
                k = len(slots)
                off = (np.arange(k)[:, None, None] * nr
                       + ring[None]).ravel()
                mass = np.bincount(off, weights=gray.ravel(),
                                   minlength=k * nr) \
                    .astype(np.int64).reshape(k, nr)
                out_id.append(np.repeat(ids[slots], nr))
                out_r.append(np.tile(np.arange(nr, dtype=np.int64),
                                     k))
                out_m.append(mass.ravel())
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "ring": pa.array(np.concatenate(out_r)),
                "mass": pa.array(np.concatenate(out_m))})

    return ds.map_batches(OnionStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["onion_profile_images"] = q_onion_profile_images



def _onion_sidecar(img: str, n: int = 1024) -> str:
    """Scalar python replay for onion_profile_images."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_onion_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            acc: dict[int, int] = {}
            for y in range(hi):
                for x in range(wi):
                    r = min(x, y, wi - 1 - x, hi - 1 - y)
                    g = (int(px[y, x, 0]) + int(px[y, x, 1])
                         + int(px[y, x, 2])) // 3
                    acc[r] = acc.get(r, 0) + g
            for r in sorted(acc):
                rows.append({"image_id": str(iid[j]), "ring": r,
                             "mass": acc[r]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _onion_sql(img: str) -> str:
    return (f"SELECT image_id, ring, mass "
            f"FROM read_parquet('{_onion_sidecar(img)}')")



# ---------------------------------------------------------------------------
# daily_ohlc_values: open/high/low/close bars over the event stream
# ---------------------------------------------------------------------------


def q_daily_ohlc_values(sf_dir: str):
    """Daily OHLC candles of the event value stream on the e4
    lattice: open = first value of the day, close = last (order
    (ts, event_id) — exact even under timestamp ties), high/low =
    extremes, volume = event count. The finance-style bar
    aggregation that summarizes any metric stream for charting and
    regime detection; unlike the TWAP op it keeps path endpoints, so
    gap analysis (close vs next open) stays possible downstream.
    Per-batch partials carry (first-key, open, last-key, close, min,
    max, n) per day and MERGE exactly — one day-grain shuffle, the
    fact table never sorts globally. ROW_NUMBER SQL replay."""
    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["ts", "event_id", "value"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = _e(t["value"], 10_000).to_numpy(zero_copy_only=False)
        day = us // DAY
        o = np.lexsort((eid, us, day))
        day, us, eid, v = day[o], us[o], eid[o], v[o]
        brk = np.r_[True, day[1:] != day[:-1]]
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:], len(day)] - 1
        seg = np.cumsum(brk) - 1
        vmin = np.full(len(starts), np.iinfo(np.int64).max, np.int64)
        vmax = np.full(len(starts), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(vmin, seg, v)
        np.maximum.at(vmax, seg, v)
        return pa.table({
            "day": pa.array(day[starts]),
            "ts_o": pa.array(us[starts]),
            "eid_o": pa.array(eid[starts]),
            "open_e4": pa.array(v[starts]),
            "ts_c": pa.array(us[ends]),
            "eid_c": pa.array(eid[ends]),
            "close_e4": pa.array(v[ends]),
            "low_e4": pa.array(vmin),
            "high_e4": pa.array(vmax),
            "n_events": pa.array(
                (ends - starts + 1).astype(np.int64))})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        ko = np.lexsort((df["eid_o"].to_numpy(),
                         df["ts_o"].to_numpy()))
        kc = np.lexsort((df["eid_c"].to_numpy(),
                         df["ts_c"].to_numpy()))
        return pd.DataFrame({
            "day": [int(df["day"].iloc[0])],
            "open_e4": [int(df["open_e4"].iloc[ko[0]])],
            "high_e4": [int(df["high_e4"].max())],
            "low_e4": [int(df["low_e4"].min())],
            "close_e4": [int(df["close_e4"].iloc[kc[-1]])],
            "n_events": [int(df["n_events"].sum())]})

    return (ev.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("day").map_groups(merge, batch_format="pandas"))



QUERIES["daily_ohlc_values"] = q_daily_ohlc_values

ORACLE_SQL["daily_ohlc_values"] = """
        WITH e AS (SELECT CAST(CAST(ts AS DATE) - DATE '1970-01-01'
                              AS BIGINT) AS day,
                          ts, event_id,
                          CAST(round(value * 10000) AS BIGINT) AS v
                   FROM events),
        r AS (SELECT day, v,
                     ROW_NUMBER() OVER (PARTITION BY day
                         ORDER BY ts, event_id) AS rf,
                     ROW_NUMBER() OVER (PARTITION BY day
                         ORDER BY ts DESC, event_id DESC) AS rl
              FROM e)
        SELECT day,
               CAST(MAX(CASE WHEN rf = 1 THEN v END) AS BIGINT)
                   AS open_e4,
               CAST(MAX(v) AS BIGINT) AS high_e4,
               CAST(MIN(v) AS BIGINT) AS low_e4,
               CAST(MAX(CASE WHEN rl = 1 THEN v END) AS BIGINT)
                   AS close_e4,
               CAST(COUNT(*) AS BIGINT) AS n_events
        FROM r GROUP BY 1
    """



# ---------------------------------------------------------------------------
# sttr_sources: standardized type-token ratio (fixed 512-token window)
# ---------------------------------------------------------------------------


def q_sttr_sources(sf_dir: str):
    """Standardized type-token ratio per source: distinct tokens among
    the FIRST 512 tokens in (doc_id, position) order — raw TTR is
    incomparable across sources of different size (vocabulary grows
    sublinearly, Heaps), so every corpus-linguistics comparison fixes
    the window; 512 matches the packing op's context window. Also
    reports tokens available (< 512 = source smaller than the
    window). The engine sorts only INSIDE a source co-partition and
    tokenizes only the prefix docs that overlap the window — work is
    window-bounded, never source-bounded. ROW_NUMBER-over-unnest SQL
    replay."""
    W = 512
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        seen: set[str] = set()
        used = 0
        for txt in df["text"]:
            if used >= W:
                break
            toks = txt.split()
            take = toks[:W - used]
            seen.update(take)
            used += len(take)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_tokens": np.array([used], np.int64),
            "n_types": np.array([len(seen)], np.int64)})

    return ds.groupby("source").map_groups(fold,
                                           batch_format="pandas")



QUERIES["sttr_sources"] = q_sttr_sources

ORACLE_SQL["sttr_sources"] = r"""
        WITH tok AS (SELECT doc_id, source, tok, pos FROM (
                         SELECT doc_id, source,
                                unnest(string_split_regex(
                                    trim(text), '\s+')) AS tok,
                                generate_subscripts(
                                    string_split_regex(
                                        trim(text), '\s+'), 1) AS pos
                         FROM documents) WHERE tok <> ''),
        r AS (SELECT source, tok,
                     ROW_NUMBER() OVER (PARTITION BY source
                         ORDER BY doc_id, pos) AS rn
              FROM tok)
        SELECT source,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(COUNT(DISTINCT tok) AS BIGINT) AS n_types
        FROM r WHERE rn <= 512 GROUP BY 1
    """



# ---------------------------------------------------------------------------
# typicality_outlier_images: corpus-histogram chi-square outliers
# ---------------------------------------------------------------------------


def q_typicality_outlier_images(sf_dir: str):
    """Top-10 most atypical images (first 1024) by exact integer
    chi-square-style distance between the image's 16-bin gray
    histogram and the corpus-average histogram:
    score = Σ_bins (N_img·H_bin − N_corpus·h_bin)² with h the image
    histogram, H the corpus histogram — cross-multiplied so neither
    normalization quotient forms. The distribution-level outlier
    detector an image-QA pass runs to surface corrupt tiles, solid
    fills and wrong-sensor imports that per-pixel invariants miss.
    One vectorized 16-bin bincount per image; the epilogue scores
    1024 rows in python big ints (products ~10²⁴) and ships the
    score as decimal digits. Histogram sidecar + HUGEINT SQL
    replay."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class HistStage:
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
            out_id, out_b, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                g16 = (px.astype(np.int64).sum(axis=3) // 3) >> 4
                k = len(slots)
                off = (np.arange(k)[:, None, None] * 16
                       + g16).ravel()
                h = np.bincount(off, minlength=16 * k) \
                    .astype(np.int64).reshape(k, 16)
                out_id.append(np.repeat(ids[slots], 16))
                out_b.append(np.tile(np.arange(16, dtype=np.int64),
                                     k))
                out_n.append(h.ravel())
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "bin": pa.array(np.concatenate(out_b)),
                "n": pa.array(np.concatenate(out_n))})

    hist = (ds.map_batches(HistStage, batch_format="pyarrow",
                           batch_size=256, concurrency=2)
            .groupby(["image_id", "bin"]).sum("n")).take_all()
    per: dict[str, list[int]] = {}
    H = [0] * 16
    for r in hist:
        b = int(r["bin"])
        n = int(r["sum(n)"])
        per.setdefault(r["image_id"], [0] * 16)[b] = n
        H[b] += n
    Ncorp = sum(H)
    rows = []
    for iid, h in per.items():
        Nimg = sum(h)
        score = sum((Nimg * H[b] - Ncorp * h[b]) ** 2
                    for b in range(16))
        rows.append((iid, Nimg, score))
    rows.sort(key=lambda r: (-r[2], r[0]))
    rows = rows[:10]
    return pd.DataFrame({
        "image_id": [r[0] for r in rows],
        "n_pixels": np.array([r[1] for r in rows], np.int64),
        "score": [str(r[2]) for r in rows]})



QUERIES["typicality_outlier_images"] = q_typicality_outlier_images



def _img_hist16_sidecar(img: str, n: int = 1024) -> str:
    """Per-image 16-bin gray-histogram sidecar (scalar replay)."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_hist16_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            h = [0] * 16
            for y in range(hi):
                for x in range(wi):
                    g = (int(px[y, x, 0]) + int(px[y, x, 1])
                         + int(px[y, x, 2])) // 3
                    h[g >> 4] += 1
            for b in range(16):
                rows.append({"image_id": str(iid[j]), "bin": b,
                             "n": h[b]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _typicality_sql(img: str) -> str:
    hist = _img_hist16_sidecar(img)
    return f"""
        WITH h AS (SELECT image_id, bin, CAST(n AS HUGEINT) AS n
                   FROM read_parquet('{hist}')),
        corp AS (SELECT bin, SUM(n) AS hb FROM h GROUP BY 1),
        tot AS (SELECT SUM(n) AS nc FROM h),
        img AS (SELECT image_id, SUM(n) AS ni FROM h GROUP BY 1),
        s AS (SELECT h.image_id,
                     CAST(MAX(img.ni) AS BIGINT) AS n_pixels,
                     SUM((img.ni * corp.hb - tot.nc * h.n)
                         * (img.ni * corp.hb - tot.nc * h.n))
                         AS score
              FROM h JOIN corp USING (bin)
              JOIN img ON img.image_id = h.image_id
              CROSS JOIN tot
              GROUP BY h.image_id)
        SELECT image_id, n_pixels, CAST(score AS VARCHAR) AS score
        FROM (SELECT * FROM s
              ORDER BY score DESC, image_id LIMIT 10) t
    """



# ---------------------------------------------------------------------------
# video_rice_temporal: lossless coding cost of frame residuals
# ---------------------------------------------------------------------------


def q_video_rice_temporal(sf_dir: str):
    """Rice coding audit of the TEMPORAL residual per clip: frame
    differences f_t − f_{t−1} zigzag-mapped, exact coded bits
    Σ(u>>k) + n(k+1) for k ∈ 0..15, best k (smallest on ties) vs the
    verbatim 8-bit baseline — the inter-frame codec-cost model: a
    static clip codes in ~1 bit/px·frame, cuts and noise blow the
    optimum up toward verbatim, so best_bits/fixed_bits is the
    cheapest 'how compressible is this video' answer before any real
    encoder runs. One diff + zigzag + 16 shift-sums per stacked 5-D
    tensor. Python-int replay sidecar."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def stage(batch: pa.Table) -> pa.Table:
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
        out_id, out_k, out_b, out_f = [], [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            dd = (clips[:, 1:] - clips[:, :-1]) \
                .reshape(len(slots), -1)
            u = np.where(dd >= 0, 2 * dd, -2 * dd - 1)
            nr = np.int64(u.shape[1])
            costs = np.stack([(u >> k).sum(axis=1) + nr * (k + 1)
                              for k in range(16)])
            out_id.append(ids[slots])
            out_k.append(costs.argmin(axis=0).astype(np.int64))
            out_b.append(costs.min(axis=0))
            out_f.append(np.full(len(slots), 8 * nr, np.int64))
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "best_k": pa.array(np.concatenate(out_k)),
            "best_bits": pa.array(np.concatenate(out_b)),
            "fixed_bits": pa.array(np.concatenate(out_f))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["video_rice_temporal"] = q_video_rice_temporal



def _video_rice_sidecar(vid: str) -> str:
    """Python-int replay for video_rice_temporal."""
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_videorice_{Path(vid).name}_{_mods_digest(_sy)}"
        ".parquet")
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
            us = []
            for a, b in zip(frames, frames[1:]):
                for x, y in zip(a, b):
                    dd = y - x
                    us.append(2 * dd if dd >= 0 else -2 * dd - 1)
            nr = len(us)
            best_k, best = 0, None
            for k in range(16):
                c = sum(x >> k for x in us) + nr * (k + 1)
                if best is None or c < best:
                    best, best_k = c, k
            rows.append({"clip_id": cid, "best_k": best_k,
                         "best_bits": best, "fixed_bits": 8 * nr})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_rice_sql(vid: str) -> str:
    return (f"SELECT clip_id, best_k, best_bits, fixed_bits "
            f"FROM read_parquet('{_video_rice_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# fd_violation_audit: functional-dependency discovery census
# ---------------------------------------------------------------------------


def q_fd_violation_audit(sf_dir: str):
    """Functional-dependency audit — the schema-discovery pass a
    profiler runs before trusting joins or building dimensions: for
    five candidate FDs (part brand→type, part type→brand,
    customer nation→mktsegment, order custkey→priority,
    lineitem orderkey→shipdate) count the left-hand-side keys whose
    right side is NOT single-valued (violating keys) next to the key
    cardinality — 0 violations certifies the FD holds and the column
    pair can be normalized out; high counts kill it. Each FD
    contracts its scan to (lhs, rhs)-distinct partials then a
    lhs-grain distinct count — never a row-level shuffle. Direct
    COUNT(DISTINCT) SQL replay."""
    specs = [
        ("part", "p_brand", "p_type", "brand_to_type"),
        ("part", "p_type", "p_brand", "type_to_brand"),
        ("customer", "c_nationkey", "c_mktsegment",
         "nation_to_segment"),
        ("orders", "o_custkey", "o_orderpriority",
         "cust_to_priority"),
        ("lineitem", "l_orderkey", "l_shipdate",
         "order_to_shipdate"),
    ]
    rows = []
    for tbl, lhs, rhs, name in specs:
        ds = _read(sf_dir, tbl, [lhs, rhs])

        def part(t: pa.Table, lhs=lhs, rhs=rhs) -> pa.Table:
            g = t.group_by([lhs, rhs]).aggregate([([], "count_all")])
            return pa.table({"l": g[lhs].cast(pa.string())
                             if not pa.types.is_string(g[lhs].type)
                             else g[lhs],
                             "r": g[rhs].cast(pa.string())
                             if not pa.types.is_string(g[rhs].type)
                             else g[rhs]})

        pairs = (ds.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .groupby(["l", "r"]).count())

        def fold(t: pa.Table) -> pa.Table:
            df = pd.DataFrame({"l": t["l"].to_pylist()})
            g = df.groupby("l").size()
            return pa.table({
                "n_keys": pa.array([len(g)], pa.int64()),
                "n_viol": pa.array([int((g > 1).sum())], pa.int64())})

        parts = pairs.repartition(1).map_batches(
            fold, batch_format="pyarrow").take_all()
        rows.append((name, sum(r["n_keys"] for r in parts),
                     sum(r["n_viol"] for r in parts)))
    return pd.DataFrame({
        "fd": [r[0] for r in rows],
        "n_keys": np.array([r[1] for r in rows], np.int64),
        "n_violating_keys": np.array([r[2] for r in rows],
                                     np.int64)})



QUERIES["fd_violation_audit"] = q_fd_violation_audit

ORACLE_SQL["fd_violation_audit"] = """
        WITH f1 AS (SELECT 'brand_to_type' AS fd,
                           CAST(COUNT(*) AS BIGINT) AS n_keys,
                           CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)
                               AS BIGINT) AS n_violating_keys
                    FROM (SELECT p_brand,
                                 COUNT(DISTINCT p_type) AS n
                          FROM part GROUP BY 1)),
        f2 AS (SELECT 'type_to_brand',
                      CAST(COUNT(*) AS BIGINT),
                      CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)
                          AS BIGINT)
               FROM (SELECT p_type, COUNT(DISTINCT p_brand) AS n
                     FROM part GROUP BY 1)),
        f3 AS (SELECT 'nation_to_segment',
                      CAST(COUNT(*) AS BIGINT),
                      CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)
                          AS BIGINT)
               FROM (SELECT c_nationkey,
                            COUNT(DISTINCT c_mktsegment) AS n
                     FROM customer GROUP BY 1)),
        f4 AS (SELECT 'cust_to_priority',
                      CAST(COUNT(*) AS BIGINT),
                      CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)
                          AS BIGINT)
               FROM (SELECT o_custkey,
                            COUNT(DISTINCT o_orderpriority) AS n
                     FROM orders GROUP BY 1)),
        f5 AS (SELECT 'order_to_shipdate',
                      CAST(COUNT(*) AS BIGINT),
                      CAST(SUM(CASE WHEN n > 1 THEN 1 ELSE 0 END)
                          AS BIGINT)
               FROM (SELECT l_orderkey,
                            COUNT(DISTINCT l_shipdate) AS n
                     FROM lineitem GROUP BY 1))
        SELECT * FROM f1 UNION ALL SELECT * FROM f2
        UNION ALL SELECT * FROM f3 UNION ALL SELECT * FROM f4
        UNION ALL SELECT * FROM f5
    """



# ---------------------------------------------------------------------------
# record_count_users: running-maximum record statistics
# ---------------------------------------------------------------------------


def q_record_count_users(sf_dir: str):
    """Record statistics per user (≥ 20 events): how many events set
    a new running MAXIMUM of value (strict, first event is record 1)
    in (ts, event_id) order, plus the index of the last record — for
    exchangeable sequences E[records] = H_n ≈ ln n, so a user whose
    record count far exceeds ln n is trending upward (the
    distribution-free momentum test, the record-values cousin of the
    monotone-run op). One sort + cummax inside a user co-partition;
    output is user-grain. MAX OVER preceding-frame SQL replay."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "value"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 20:
            return pd.DataFrame({
                "user_id": pd.Series(dtype=np.int64),
                "n_events": pd.Series(dtype=np.int64),
                "n_records": pd.Series(dtype=np.int64),
                "last_record_idx": pd.Series(dtype=np.int64)})
        df = df.sort_values(["ts", "event_id"], kind="stable")
        v = np.floor(df["value"].to_numpy() * 10000.0 + 0.5) \
            .astype(np.int64)
        cm = np.maximum.accumulate(v)
        rec = np.r_[True, v[1:] > cm[:-1]]
        idx = np.nonzero(rec)[0]
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(v)], np.int64),
            "n_records": np.array([int(rec.sum())], np.int64),
            "last_record_idx": np.array([int(idx[-1])], np.int64)})

    return ev.groupby("user_id").map_groups(fold,
                                            batch_format="pandas")



QUERIES["record_count_users"] = q_record_count_users

ORACLE_SQL["record_count_users"] = """
        WITH e AS (SELECT user_id, ts, event_id,
                          CAST(floor(value * 10000 + 0.5) AS BIGINT)
                              AS v
                   FROM events),
        r AS (SELECT user_id, v,
                     ROW_NUMBER() OVER w AS rn,
                     MAX(v) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS prevmax,
                     COUNT(*) OVER (PARTITION BY user_id) AS n
              FROM e
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY ts, event_id))
        SELECT user_id,
               CAST(MAX(n) AS BIGINT) AS n_events,
               CAST(SUM(CASE WHEN prevmax IS NULL OR v > prevmax
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_records,
               CAST(MAX(CASE WHEN prevmax IS NULL OR v > prevmax
                        THEN rn - 1 END) AS BIGINT)
                   AS last_record_idx
        FROM r WHERE n >= 20 GROUP BY 1
    """



# ---------------------------------------------------------------------------
# bright_bbox_images: tight bounding box of the bright mask
# ---------------------------------------------------------------------------


def q_bright_bbox_images(sf_dir: str):
    """Tight bounding box of the ≥128-luminance mask per image (first
    1024): (y0, x0, y1, x1) inclusive, plus the exact fill count —
    the object-extent reading that pairs with bright_rect_images
    (largest rectangle INSIDE the mask): together they bound the
    subject from outside and inside, which is what a smart-crop or
    letterbox-trim stage actually consumes. All −1 when the mask is
    empty. One any()-reduction per axis + argmax from both ends per
    batch tensor. Scalar python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class BboxStage:
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
            cols = {k: [] for k in ("image_id", "y0", "x0", "y1",
                                    "x1", "n_bright")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                bright = (px.astype(np.int64).sum(axis=3) // 3) >= 128
                anyrow = bright.any(axis=2)          # (k, h)
                anycol = bright.any(axis=1)          # (k, w)
                has = anyrow.any(axis=1)
                y0 = np.where(has, anyrow.argmax(axis=1), -1)
                y1 = np.where(has, hi - 1
                              - anyrow[:, ::-1].argmax(axis=1), -1)
                x0 = np.where(has, anycol.argmax(axis=1), -1)
                x1 = np.where(has, wi - 1
                              - anycol[:, ::-1].argmax(axis=1), -1)
                cols["image_id"].append(ids[slots])
                cols["y0"].append(y0.astype(np.int64))
                cols["x0"].append(x0.astype(np.int64))
                cols["y1"].append(y1.astype(np.int64))
                cols["x1"].append(x1.astype(np.int64))
                cols["n_bright"].append(
                    bright.sum(axis=(1, 2)).astype(np.int64))
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in cols.items()})

    return ds.map_batches(BboxStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["bright_bbox_images"] = q_bright_bbox_images



def _bright_bbox_sidecar(img: str, n: int = 1024) -> str:
    """Scalar python replay for bright_bbox_images."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_brightbbox_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            y0 = x0 = y1 = x1 = -1
            nb = 0
            for y in range(hi):
                for x in range(wi):
                    g = (int(px[y, x, 0]) + int(px[y, x, 1])
                         + int(px[y, x, 2])) // 3
                    if g >= 128:
                        nb += 1
                        if y0 < 0 or y < y0:
                            y0 = y
                        if y > y1:
                            y1 = y
                        if x0 < 0 or x < x0:
                            x0 = x
                        if x > x1:
                            x1 = x
            rows.append({"image_id": str(iid[j]), "y0": y0,
                         "x0": x0, "y1": y1, "x1": x1,
                         "n_bright": nb})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bright_bbox_sql(img: str) -> str:
    return (f"SELECT image_id, y0, x0, y1, x1, n_bright "
            f"FROM read_parquet('{_bright_bbox_sidecar(img)}')")



# ---------------------------------------------------------------------------
# customer_basket_jaccard: co-purchase similarity pairs
# ---------------------------------------------------------------------------


def q_customer_basket_jaccard(sf_dir: str):
    """Top-10 customer pairs by basket overlap: distinct parts each
    customer ever ordered, pairs sharing ≥ 2 parts ranked by
    (intersection DESC, a, b) with both basket sizes carried so
    Jaccard is one downstream division — the collaborative-filtering
    / household-detection primitive. Plan: the (cust, part) basket
    ledger is one distinct contraction of the order×lineitem join
    (orderkey-grain bucketed shuffle); pairs generate inside a PART
    co-partition (pair-once a < b) so only co-purchase pairs ever
    exist, bounded by part fan-out² — never customers². Self-join
    SQL replay."""
    from battery.ops.relational import broadcast_dim, dim_lookup

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    # orders are FACT-scale at 100 TB: the broadcast_dim cap documents
    # the assumption (over it → bucketed_join on l_orderkey)
    okeys, otbl = broadcast_dim(orders, "o_orderkey")
    ocust = otbl["o_custkey"].to_numpy().astype(np.int64, copy=False)
    oref = ray.put((okeys, ocust))
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def part(t: pa.Table) -> pa.Table:
        okeys_, ocust_ = _broadcast(oref)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        # orphan lines (orderkey absent from orders — possible on
        # partial/degenerate inputs) contribute no basket pair; the
        # INNER-join SQL replay drops them identically
        oi, ohit = dim_lookup(okeys_, ok.astype(np.int64, copy=False))
        cust = np.where(ohit, ocust_[oi], -1)
        keep = cust >= 0
        cust, pk = cust[keep], pk[keep]
        u = np.unique(cust * (1 << 32) + pk)
        return pa.table({"cust": pa.array(u >> 32),
                         "part": pa.array(u & ((1 << 32) - 1))})

    basket = (li.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["cust", "part"]).count())

    def sizes_part(t: pa.Table) -> pa.Table:
        g = t.group_by("cust").aggregate([([], "count_all")])
        return pa.table({"cust": g["cust"],
                         "n": g["count_all"].cast(pa.int64())})

    szk, szt = broadcast_dim(
        basket.map_batches(sizes_part, batch_format="pyarrow")
        .groupby("cust").sum("n"), "cust")
    szref = ray.put((szk, szt["sum(n)"].to_numpy()
                     .astype(np.int64, copy=False)))

    # pair generation: bucketed self-join on part (32 bucket groups,
    # not one task per part — 20k tiny map_groups measured 2+ min at
    # sf0.01; the hash-bucketed join does it in seconds)
    from battery.ops.relational import bucketed_join

    bsnap = basket.materialize()
    lhs = bsnap.map_batches(
        lambda t: pa.table({"a": t["cust"], "part": t["part"]}),
        batch_format="pyarrow")
    rhs = bsnap.map_batches(
        lambda t: pa.table({"b": t["cust"], "part2": t["part"]}),
        batch_format="pyarrow")
    joined = bucketed_join(lhs, rhs, "part", "part2")

    def pair_part(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        keep = a < b
        g = pa.table({"a": pa.array(a[keep]),
                      "b": pa.array(b[keep])}) \
            .group_by(["a", "b"]).aggregate([([], "count_all")])
        return g.rename_columns(["a", "b", "inter"])

    pairs = (joined.map_batches(pair_part, batch_format="pyarrow")
             .groupby(["a", "b"]).sum("inter"))

    def finish(t: pa.Table) -> pa.Table:
        szk_, szn_ = _broadcast(szref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        it = t["sum(inter)"].to_numpy(zero_copy_only=False)
        keep = it >= 2
        a, b, it = a[keep], b[keep], it[keep]
        # VERIFIED gather (dim_lookup hit mask): pair custs come from
        # the same basket lineage as the sizes, but the two are separate
        # executions — a miss must DROP the pair (inner semantics, as
        # the SQL's JOIN sz does), never gather a neighbor's size
        from battery.ops.relational import dim_lookup

        ia, ha = dim_lookup(szk_, a)
        ib, hb = dim_lookup(szk_, b)
        ok = ha & hb
        a, b, it = a[ok], b[ok], it[ok]
        na = szn_[ia[ok]]
        nb = szn_[ib[ok]]
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "inter": pa.array(it),
                         "size_a": pa.array(na),
                         "size_b": pa.array(nb)})

    out = pairs.map_batches(finish, batch_format="pyarrow") \
        .sort(["inter", "a", "b"], descending=[True, False, False]) \
        .limit(10)
    return out



QUERIES["customer_basket_jaccard"] = q_customer_basket_jaccard

ORACLE_SQL["customer_basket_jaccard"] = """
        WITH bp AS (SELECT DISTINCT o.o_custkey AS cust,
                           l.l_partkey AS part
                    FROM lineitem l JOIN orders o
                      ON o.o_orderkey = l.l_orderkey),
        sz AS (SELECT cust, CAST(COUNT(*) AS BIGINT) AS n
               FROM bp GROUP BY 1),
        pr AS (SELECT a.cust AS a, b.cust AS b,
                      CAST(COUNT(*) AS BIGINT) AS inter
               FROM bp a JOIN bp b
                 ON a.part = b.part AND a.cust < b.cust
               GROUP BY 1, 2 HAVING COUNT(*) >= 2)
        SELECT pr.a, pr.b, pr.inter,
               sa.n AS size_a, sb.n AS size_b
        FROM pr JOIN sz sa ON sa.cust = pr.a
        JOIN sz sb ON sb.cust = pr.b
        ORDER BY pr.inter DESC, pr.a, pr.b LIMIT 10
    """



# ---------------------------------------------------------------------------
# token_stutter_docs: longest same-token run (degenerate-repeat smell)
# ---------------------------------------------------------------------------


def q_token_stutter_docs(sf_dir: str):
    """Top-10 stuttering documents: the longest run of the SAME token
    repeated consecutively (run ≥ 2), with the token — the
    degenerate-generation / copy-paste-loop smell ('batch batch
    batch') that an LLM-corpus gate drops before training, invisible
    to doc-grain dedup and to shingle counts (a long run is ONE
    shingle repeated). Ranked (run_len DESC, doc_id ASC); ties inside
    a doc resolve to the earliest run. Vectorized: one flat token
    array per batch with doc-boundary breaks, run-length via diff,
    per-doc argmax. ROW_NUMBER-islands SQL replay."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def part(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t["text"]), r"\s+")
        flat = np.asarray(pc.list_flatten(toks)
                          .to_numpy(zero_copy_only=False))
        lens = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False)
        if flat.size == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "token": pa.array([], pa.string()),
                "run_len": pa.array([], pa.int64())})
        doc = np.repeat(np.arange(len(lens)), lens)
        brk = np.r_[True, (flat[1:] != flat[:-1])
                    | (doc[1:] != doc[:-1])]
        starts = np.nonzero(brk)[0]
        rl = np.diff(np.r_[starts, len(flat)])
        docs = t["doc_id"].to_numpy(zero_copy_only=False)[doc[starts]]
        keep = rl >= 2
        if not keep.any():
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "token": pa.array([], pa.string()),
                "run_len": pa.array([], pa.int64())})
        d_, t_, r_ = docs[keep], flat[starts[keep]], rl[keep]
        # best run per doc: max run_len, earliest run on ties (stable)
        order = np.lexsort((np.arange(len(d_)), -r_, d_))
        d_s, t_s, r_s = d_[order], t_[order], r_[order]
        first = np.r_[True, d_s[1:] != d_s[:-1]]
        return pa.table({
            "doc_id": pa.array(d_s[first].astype(np.int64)),
            "token": pa.array(t_s[first].astype(object)),
            "run_len": pa.array(r_s[first].astype(np.int64))})

    per_doc = ds.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
    return per_doc.sort(["run_len", "doc_id"],
                        descending=[True, False]).limit(10)



QUERIES["token_stutter_docs"] = q_token_stutter_docs

ORACLE_SQL["token_stutter_docs"] = r"""
        WITH tok AS (SELECT doc_id, tok, pos FROM (
                         SELECT doc_id,
                                unnest(string_split_regex(
                                    trim(text), '\s+')) AS tok,
                                generate_subscripts(
                                    string_split_regex(
                                        trim(text), '\s+'), 1) AS pos
                         FROM documents) WHERE tok <> ''),
        g AS (SELECT doc_id, tok, pos,
                     pos - ROW_NUMBER() OVER (PARTITION BY doc_id, tok
                                              ORDER BY pos) AS grp
              FROM tok),
        runs AS (SELECT doc_id, tok,
                        CAST(COUNT(*) AS BIGINT) AS run_len,
                        MIN(pos) AS p0
                 FROM g GROUP BY doc_id, tok, grp),
        best AS (SELECT doc_id, tok AS token, run_len,
                        ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY run_len DESC, p0 ASC) AS rn
                 FROM runs WHERE run_len >= 2)
        SELECT doc_id, token, run_len
        FROM best WHERE rn = 1
        ORDER BY run_len DESC, doc_id LIMIT 10
    """



# ---------------------------------------------------------------------------
# trip_duration_direction_asymmetry: directional running-time audit
# ---------------------------------------------------------------------------


def q_trip_duration_direction_asymmetry(sf_dir: str):
    """Directional running-time asymmetry per route: trip duration =
    last arrival − first departure; per direction the trip count and
    exact duration sum, and the cross-multiplied mean-difference
    numerator |sum0·n1 − sum1·n0| (the quotient never forms) —
    congestion directionality and pad-time asymmetry show here while
    headways and leg speeds stay symmetric; a schedule QA gate flags
    routes whose asymmetry numerator exceeds ~n0·n1·300 s. Trip
    durations fold in one trip co-partition; the route epilogue is
    dimension-scale. Window first/last SQL replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id",
                                     "direction_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"], int(r["direction_id"]))
            for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_sequence",
                                  "arrival_time", "departure_time"])

    def _secs(col) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        out = pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))
        return out.to_numpy(zero_copy_only=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tm = _broadcast(tref)
        df = df.sort_values("stop_sequence", kind="stable")
        dur = int(df["asec"].iloc[-1]) - int(df["dsec"].iloc[0])
        route, d_ = tm[df["trip_id"].iloc[0]]
        return pd.DataFrame({
            "route_id": [route], "direction_id": [d_],
            "dur": np.array([dur], np.int64),
            "n": np.array([1], np.int64)})

    def attach(t: pa.Table) -> pa.Table:
        return pa.table({
            "trip_id": t["trip_id"],
            "stop_sequence": t["stop_sequence"].cast(pa.int64()),
            "asec": pa.array(_secs(t["arrival_time"])),
            "dsec": pa.array(_secs(t["departure_time"]))})

    per_dir = (st.map_batches(attach, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby("trip_id").map_groups(fold,
                                              batch_format="pandas")
               .groupby(["route_id", "direction_id"])
               .sum(["dur", "n"])).take_all()
    acc: dict[str, dict[int, tuple[int, int]]] = {}
    for r in per_dir:
        acc.setdefault(r["route_id"], {})[int(r["direction_id"])] = (
            int(r["sum(dur)"]), int(r["sum(n)"]))
    rows = []
    for route in sorted(acc):
        dd = acc[route]
        if 0 in dd and 1 in dd:
            s0, n0 = dd[0]
            s1, n1 = dd[1]
            rows.append((route, n0, s0, n1, s1,
                         abs(s0 * n1 - s1 * n0)))
    return pd.DataFrame({
        "route_id": [r[0] for r in rows],
        "n0": np.array([r[1] for r in rows], np.int64),
        "dur0_sum": np.array([r[2] for r in rows], np.int64),
        "n1": np.array([r[3] for r in rows], np.int64),
        "dur1_sum": np.array([r[4] for r in rows], np.int64),
        "asym_num": np.array([r[5] for r in rows], np.int64)})



QUERIES["trip_duration_direction_asymmetry"] = \
    q_trip_duration_direction_asymmetry



def _trip_dir_asym_sql() -> str:
    d = _fixture_sql_dir()
    secs = ("(CAST(split_part({c}, ':', 1) AS BIGINT) * 3600 "
            "+ CAST(split_part({c}, ':', 2) AS BIGINT) * 60 "
            "+ CAST(split_part({c}, ':', 3) AS BIGINT))")
    return f"""
        WITH st AS (SELECT trip_id, stop_sequence,
                           {secs.format(c='arrival_time')} AS asec,
                           {secs.format(c='departure_time')} AS dsec
                    FROM read_parquet('{d}/stop_times.parquet')),
        tr AS (SELECT trip_id,
                      arg_max(asec, stop_sequence) AS last_arr,
                      arg_min(dsec, stop_sequence) AS first_dep
               FROM st GROUP BY trip_id),
        du AS (SELECT t.route_id, t.direction_id,
                      tr.last_arr - tr.first_dep AS dur
               FROM tr JOIN read_parquet('{d}/trips.parquet') t
                 USING (trip_id)),
        agg AS (SELECT route_id, direction_id,
                       CAST(SUM(dur) AS BIGINT) AS s,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM du GROUP BY 1, 2)
        SELECT a0.route_id,
               a0.n AS n0, a0.s AS dur0_sum,
               a1.n AS n1, a1.s AS dur1_sum,
               CAST(abs(a0.s * a1.n - a1.s * a0.n) AS BIGINT)
                   AS asym_num
        FROM agg a0 JOIN agg a1
          ON a0.route_id = a1.route_id
         AND a0.direction_id = 0 AND a1.direction_id = 1
    """



# ---------------------------------------------------------------------------
# ldiversity_users: sensitive-attribute diversity inside k-anon classes
# ---------------------------------------------------------------------------


def q_ldiversity_users(sf_dir: str):
    """l-diversity census — the attribute-disclosure companion to the
    k-anonymity op: inside every quasi-identifier class (first active
    day × modal type × log2 activity bucket, kanon_users' exact QI)
    count the DISTINCT values of the sensitive attribute (the user's
    5-bit event-type-set mask); a class with l = 1 leaks the
    sensitive value of every member even when k is large — the
    homogeneity attack k-anonymity cannot see. Output is the
    (l, n_classes) histogram. Same one-user-co-partition fold as
    kanon (raw events never leave), classes contract to QI grain
    then to l grain. Double-aggregate COUNT(DISTINCT) replay."""
    from battery.ops.relational import _with_bucket

    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    bit = {t: 1 << i for i, t in enumerate(_TYPE_BITS)}

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = pa.table({"user_id": t["user_id"],
                      "event_type": t["event_type"],
                      "day": pa.array(us // DAY),
                      "n": pa.array(np.ones(len(us), np.int64))}) \
            .group_by(["user_id", "event_type"]) \
            .aggregate([("n", "sum"), ("day", "min")])
        return g.rename_columns(["user_id", "event_type", "n",
                                 "day0"])

    ledger = (ev.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["user_id", "event_type"])
              .aggregate(rd.aggregate.Sum("n"),
                         rd.aggregate.Min("day0")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        ty = df["event_type"].to_numpy()
        n = df["sum(n)"].to_numpy(np.int64)
        d0 = df["min(day0)"].to_numpy(np.int64)
        o = np.lexsort((ty, -n, u))
        u, ty, n, d0 = u[o], ty[o], n[o], d0[o]
        brk = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        tot = np.bincount(seg, weights=n).astype(np.int64)
        first_day = np.minimum.reduceat(d0, starts)
        bits = np.array([bit[x] for x in ty], np.int64)
        mask = np.bincount(seg, weights=bits).astype(np.int64)
        bucket = np.frexp(tot.astype(np.float64))[1].astype(np.int64)
        return pd.DataFrame({"day0": first_day,
                             "mode_ty": ty[starts],
                             "nbucket": bucket,
                             "mask": mask})

    per_user = (_with_bucket(ledger, "user_id", 32)
                .groupby("bucket").map_groups(fold,
                                              batch_format="pandas"))

    def classes(t: pa.Table) -> pa.Table:
        g = t.select(["day0", "mode_ty", "nbucket", "mask"]) \
            .group_by(["day0", "mode_ty", "nbucket", "mask"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["day0", "mode_ty", "nbucket",
                                 "mask", "c"])

    distinct_masks = (per_user.map_batches(classes,
                                           batch_format="pyarrow")
                      .groupby(["day0", "mode_ty", "nbucket",
                                "mask"]).sum("c"))

    def ell(t: pa.Table) -> pa.Table:
        g = pa.table({"day0": t["day0"], "mode_ty": t["mode_ty"],
                      "nbucket": t["nbucket"],
                      "l": pa.array(np.ones(len(t), np.int64))}) \
            .group_by(["day0", "mode_ty", "nbucket"]) \
            .aggregate([("l", "sum")])
        return g.rename_columns(["day0", "mode_ty", "nbucket", "l"])

    per_class = (distinct_masks.map_batches(ell,
                                            batch_format="pyarrow")
                 .groupby(["day0", "mode_ty", "nbucket"]).sum("l"))

    def hist(t: pa.Table) -> pa.Table:
        l_ = t["sum(l)"].to_numpy(zero_copy_only=False)
        u, c = np.unique(l_, return_counts=True)
        return pa.table({"l": pa.array(u.astype(np.int64)),
                         "n_classes": pa.array(c.astype(np.int64))})

    out = per_class.map_batches(hist, batch_format="pyarrow") \
        .groupby("l").sum("n_classes")
    return _rename(out, ["l", "n_classes"])



QUERIES["ldiversity_users"] = q_ldiversity_users

ORACLE_SQL["ldiversity_users"] = """
        WITH tc AS (SELECT user_id, event_type,
                           CAST(COUNT(*) AS BIGINT) AS n,
                           CAST(MIN(epoch_us(ts) // 86400000000)
                               AS BIGINT) AS day0
                    FROM events GROUP BY 1, 2),
        r AS (SELECT user_id, event_type, n,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                         ORDER BY n DESC, event_type ASC) AS rn
              FROM tc),
        u AS (SELECT tc.user_id,
                     MIN(tc.day0) AS day0,
                     CAST(length(bin(SUM(tc.n))) AS BIGINT)
                         AS nbucket,
                     CAST(MAX(CASE WHEN tc.event_type = 'click'
                                   THEN 1 ELSE 0 END)
                        + 2 * MAX(CASE WHEN tc.event_type = 'view'
                                       THEN 1 ELSE 0 END)
                        + 4 * MAX(CASE WHEN tc.event_type = 'signup'
                                       THEN 1 ELSE 0 END)
                        + 8 * MAX(CASE WHEN tc.event_type = 'purchase'
                                       THEN 1 ELSE 0 END)
                        + 16 * MAX(CASE WHEN tc.event_type = 'error'
                                        THEN 1 ELSE 0 END)
                          AS BIGINT) AS mask
              FROM tc GROUP BY tc.user_id),
        m AS (SELECT u.user_id, u.day0, u.nbucket, u.mask,
                     r.event_type AS mode_ty
              FROM u JOIN r ON r.user_id = u.user_id AND r.rn = 1),
        cls AS (SELECT day0, mode_ty, nbucket,
                       CAST(COUNT(DISTINCT mask) AS BIGINT) AS l
                FROM m GROUP BY 1, 2, 3)
        SELECT l, CAST(COUNT(*) AS BIGINT) AS n_classes
        FROM cls GROUP BY 1
    """



# ---------------------------------------------------------------------------
# ktruss_dups: 3-truss of the near-dup graph
# ---------------------------------------------------------------------------


def q_ktruss_dups(sf_dir: str):
    """3-truss of the cosine near-dup graph: iteratively peel every
    edge supported by ZERO triangles until fixpoint — what survives
    is the cohesive core where every claimed duplicate pair is
    corroborated by a third mutual neighbour; chain/bridge edges
    (the transitive-drift false merges that plague single-linkage
    dedup) peel away, which the vertex-grade k-core CANNOT do (a
    path is a 1-core but a 0-truss). Returns the surviving edges.
    Edge generation is the distributed pair stage; peeling runs at
    edge-ledger scale (the kcore/matching/coloring contract).
    Independent sorted-merge-intersection python replay over the
    SQL cosine pairs."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                          "b": pd.Series(dtype=np.int64)})
    if not pairs:
        return empty
    edges = {(min(int(r["a"]), int(r["b"])),
              max(int(r["a"]), int(r["b"]))) for r in pairs}
    adj: dict[int, set[int]] = {}
    for x, y in edges:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    changed = True
    while changed:
        changed = False
        for x, y in sorted(edges):
            if (x, y) in edges and not (adj[x] & adj[y]):
                edges.discard((x, y))
                adj[x].discard(y)
                adj[y].discard(x)
                changed = True
    if not edges:
        return empty
    es = sorted(edges)
    return pd.DataFrame({
        "a": np.array([e[0] for e in es], np.int64),
        "b": np.array([e[1] for e in es], np.int64)})



QUERIES["ktruss_dups"] = q_ktruss_dups



def _ktruss_sidecar(sf_dir: str) -> str:
    """Sorted-list-intersection replay of the 3-truss peel."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "truss-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ktruss_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        edges = sorted({(min(int(x), int(y)), max(int(x), int(y)))
                        for x, y in prs})
        while True:
            nbr: dict[int, list[int]] = {}
            for x, y in edges:
                nbr.setdefault(x, []).append(y)
                nbr.setdefault(y, []).append(x)
            for k in nbr:
                nbr[k] = sorted(nbr[k])

            def support(x: int, y: int) -> int:
                la, lb = nbr[x], nbr[y]
                i = j = s = 0
                while i < len(la) and j < len(lb):
                    if la[i] == lb[j]:
                        s += 1
                        i += 1
                        j += 1
                    elif la[i] < lb[j]:
                        i += 1
                    else:
                        j += 1
                return s

            keep = [e for e in edges if support(*e) >= 1]
            if len(keep) == len(edges):
                break
            edges = keep
        out = pa.table({
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ktruss_sql(sf_dir: str) -> str:
    return (f"SELECT a, b "
            f"FROM read_parquet('{_ktruss_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# split_order_audit: same-day multi-order census per customer
# ---------------------------------------------------------------------------


def q_split_order_audit(sf_dir: str):
    """Split-order census: the histogram of orders-per-(customer,
    day) — multiple same-day orders by one customer are the order-
    splitting signature (fee thresholds, approval-limit evasion,
    retry storms) that per-order and per-customer aggregates both
    hide; the n = 1 class doubles as the baseline so the histogram
    is never empty and fraud rate is one downstream division.
    (cust, day) partials contract the scan; two tiny groupbys.
    Direct SQL replay."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by(["o_custkey", "o_orderdate"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["o_custkey", "o_orderdate", "n"])

    cd = (orders.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
          .groupby(["o_custkey", "o_orderdate"]).sum("n"))

    def hist(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        u, c = np.unique(n, return_counts=True)
        return pa.table({
            "n_same_day_orders": pa.array(u.astype(np.int64)),
            "n_cust_days": pa.array(c.astype(np.int64))})

    out = cd.map_batches(hist, batch_format="pyarrow") \
        .groupby("n_same_day_orders").sum("n_cust_days")
    return _rename(out, ["n_same_day_orders", "n_cust_days"])



QUERIES["split_order_audit"] = q_split_order_audit

ORACLE_SQL["split_order_audit"] = """
        WITH cd AS (SELECT o_custkey, o_orderdate,
                           CAST(COUNT(*) AS BIGINT) AS n
                    FROM orders GROUP BY 1, 2)
        SELECT n AS n_same_day_orders,
               CAST(COUNT(*) AS BIGINT) AS n_cust_days
        FROM cd GROUP BY 1
    """



# ---------------------------------------------------------------------------
# shape_self_intersections: proper self-crossing census per GTFS shape
# ---------------------------------------------------------------------------


def q_shape_self_intersections(sf_dir: str):
    """Self-intersection audit per GTFS shape: count pairs of
    NON-ADJACENT segments that PROPERLY cross (both orientation sign
    pairs strictly opposite — exact integer cross-products on the e5
    lattice, so no epsilon and no false positives from shared
    endpoints) — self-crossing polylines break polygon fill rules,
    buffer unions and map-matching alike, and figure-eight loops are
    a classic shape-digitizing error the reference's simplify step
    can smear but not detect. Every orientation value |o| ≤ 2.6e15
    fits int64; only SIGNS multiply. Pairs form inside a shape
    co-partition (n_seg² bounded per shape — a transcontinental
    shape would need the grid-bucketed path of poly_edge_crossings,
    documented). sign()-logic self-join SQL replay, zero-count
    shapes included."""
    d = _fixture_sql_dir()
    sh = rd.read_parquet(f"{d}/shapes.parquet")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        x = np.floor((df["shape_pt_lon"].to_numpy() + 180.0)
                     * 100000.0).astype(np.int64)
        y = np.floor((df["shape_pt_lat"].to_numpy() + 90.0)
                     * 100000.0).astype(np.int64)
        ns = len(x) - 1
        if ns < 3:
            return pd.DataFrame({
                "shape_id": [df["shape_id"].iloc[0]],
                "n_segments": np.array([max(ns, 0)], np.int64),
                "n_crossings": np.array([0], np.int64)})
        ax, ay = x[:-1], y[:-1]
        bx, by = x[1:], y[1:]
        ii, jj = np.triu_indices(ns, k=2)

        def orient(px, py, qx, qy, rx, ry):
            return np.sign((qx - px) * (ry - py)
                           - (qy - py) * (rx - px))

        s1 = orient(ax[ii], ay[ii], bx[ii], by[ii], ax[jj], ay[jj])
        s2 = orient(ax[ii], ay[ii], bx[ii], by[ii], bx[jj], by[jj])
        s3 = orient(ax[jj], ay[jj], bx[jj], by[jj], ax[ii], ay[ii])
        s4 = orient(ax[jj], ay[jj], bx[jj], by[jj], bx[ii], by[ii])
        ncross = int(((s1 * s2 < 0) & (s3 * s4 < 0)).sum())
        return pd.DataFrame({
            "shape_id": [df["shape_id"].iloc[0]],
            "n_segments": np.array([ns], np.int64),
            "n_crossings": np.array([ncross], np.int64)})

    return sh.groupby("shape_id").map_groups(fold,
                                             batch_format="pandas")



QUERIES["shape_self_intersections"] = q_shape_self_intersections



def _self_xing_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH p AS (SELECT shape_id,
                          CAST(floor((shape_pt_lon + 180) * 100000.0)
                              AS BIGINT) AS x,
                          CAST(floor((shape_pt_lat + 90) * 100000.0)
                              AS BIGINT) AS y,
                          ROW_NUMBER() OVER
                              (PARTITION BY shape_id
                               ORDER BY shape_pt_sequence) AS rn
                   FROM read_parquet('{d}/shapes.parquet')),
        s AS (SELECT a.shape_id, a.rn AS i,
                     a.x AS ax, a.y AS ay, b.x AS bx, b.y AS by
              FROM p a JOIN p b
                ON a.shape_id = b.shape_id AND b.rn = a.rn + 1),
        ns AS (SELECT shape_id, CAST(COUNT(*) AS BIGINT)
                   AS n_segments FROM s GROUP BY 1),
        c AS (SELECT u.shape_id, CAST(COUNT(*) AS BIGINT) AS n
              FROM s u JOIN s v
                ON u.shape_id = v.shape_id AND v.i >= u.i + 2
               AND sign((u.bx - u.ax) * (v.ay - u.ay)
                        - (u.by - u.ay) * (v.ax - u.ax))
                 * sign((u.bx - u.ax) * (v.by - u.ay)
                        - (u.by - u.ay) * (v.bx - u.ax)) < 0
               AND sign((v.bx - v.ax) * (u.ay - v.ay)
                        - (v.by - v.ay) * (u.ax - v.ax))
                 * sign((v.bx - v.ax) * (u.by - v.ay)
                        - (v.by - v.ay) * (u.bx - v.ax)) < 0
              GROUP BY 1)
        SELECT ns.shape_id, ns.n_segments,
               CAST(COALESCE(c.n, 0) AS BIGINT) AS n_crossings
        FROM ns LEFT JOIN c USING (shape_id)
    """



# ---------------------------------------------------------------------------
# dup_rows_images: exact duplicate row/column census
# ---------------------------------------------------------------------------


def q_dup_rows_images(sf_dir: str):
    """Duplicate-scanline census per image (first 1024): distinct RGB
    rows and distinct columns vs h and w — repeated scanlines are the
    screenshot / gradient-fill / banding / defective-sensor tell
    (natural photos almost never repeat a full row exactly), and the
    dual (rows × cols both collapsed) flags synthetic test cards.
    Rows pack to void dtype for one np.unique per axis. Scalar
    python replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class DupRowStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            ids = batch["image_id"].to_numpy(zero_copy_only=False)
            out_id, out_h, out_r, out_w, out_c = [], [], [], [], []
            for i in range(len(ids)):
                px = self.decoders[fmts[i]](payloads[i], ws[i],
                                            hs[i])
                rows = np.ascontiguousarray(
                    px.reshape(hs[i], -1))
                cols = np.ascontiguousarray(
                    px.transpose(1, 0, 2).reshape(ws[i], -1))
                rv = rows.view([("", rows.dtype)] * rows.shape[1])
                cv = cols.view([("", cols.dtype)] * cols.shape[1])
                out_id.append(ids[i])
                out_h.append(hs[i])
                out_r.append(len(np.unique(rv)))
                out_w.append(ws[i])
                out_c.append(len(np.unique(cv)))
            return pa.table({
                "image_id": pa.array(out_id),
                "h": pa.array(np.array(out_h, np.int64)),
                "n_distinct_rows": pa.array(
                    np.array(out_r, np.int64)),
                "w": pa.array(np.array(out_w, np.int64)),
                "n_distinct_cols": pa.array(
                    np.array(out_c, np.int64))})

    return ds.map_batches(DupRowStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["dup_rows_images"] = q_dup_rows_images



def _dup_rows_sidecar(img: str, n: int = 1024) -> str:
    """Scalar python replay for dup_rows_images (tuple sets)."""
    from pathlib import Path as _P

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_duprows_{_P(img).name}_{n}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(img, columns=["image_id", "w", "h"])
        order = pc.sort_indices(t["image_id"])[:n]
        ids = t["image_id"].take(order)
        ws = t["w"].take(order).to_numpy(zero_copy_only=False)
        hs = t["h"].take(order).to_numpy(zero_copy_only=False)
        idx = _sy.image_index(ids).astype(np.uint64)
        iid = ids.to_numpy(zero_copy_only=False)
        rows = []
        for j in range(len(iid)):
            wi, hi = int(ws[j]), int(hs[j])
            px = _sy.pixel_pattern(idx[j:j + 1], wi, hi)[0]
            rset = {tuple(int(px[y, x, c]) for x in range(wi)
                          for c in range(3)) for y in range(hi)}
            cset = {tuple(int(px[y, x, c]) for y in range(hi)
                          for c in range(3)) for x in range(wi)}
            rows.append({"image_id": str(iid[j]), "h": hi,
                         "n_distinct_rows": len(rset), "w": wi,
                         "n_distinct_cols": len(cset)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _dup_rows_sql(img: str) -> str:
    return (f"SELECT image_id, h, n_distinct_rows, w, n_distinct_cols "
            f"FROM read_parquet('{_dup_rows_sidecar(img)}')")



# ---------------------------------------------------------------------------
# brevity_law_docs: Zipf's law of abbreviation (length-frequency cov)
# ---------------------------------------------------------------------------


def q_brevity_law_docs(sf_dir: str):
    """Zipf's law of abbreviation over the vocabulary: the exact
    covariance numerator n·Σ(len·count) − Σlen·Σcount between token
    LENGTH and token FREQUENCY — natural language reads strongly
    negative (frequent words are short); machine-generated ID-heavy
    or template corpora flip it toward 0/positive, making the sign a
    one-integer naturalness test. Computed on the Heaps-bounded
    ledger; the numerator can exceed int64 at corpus scale, so the
    epilogue uses python big ints and ships decimal digits plus the
    sign. HUGEINT SQL replay."""
    docs = _read(sf_dir, "documents", ["text"])

    def tok_part(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        ut, ct = np.unique(toks, return_counts=True)
        return pa.table({"token": pa.array(ut),
                         "n": pa.array(ct.astype(np.int64))})

    ledger = (docs.map_batches(tok_part, batch_format="pyarrow")
              .groupby("token").sum("n")).take_all()
    n_types = len(ledger)
    sx = sy = sxy = 0
    for r in ledger:
        ln = len(r["token"])
        c = int(r["sum(n)"])
        sx += ln
        sy += c
        sxy += ln * c
    cov = n_types * sxy - sx * sy
    return pd.DataFrame({
        "n_types": np.array([n_types], np.int64),
        "len_sum": np.array([sx], np.int64),
        "count_sum": np.array([sy], np.int64),
        "cov_num": [str(cov)],
        "cov_sign": np.array([(cov > 0) - (cov < 0)], np.int64)})



QUERIES["brevity_law_docs"] = q_brevity_law_docs

ORACLE_SQL["brevity_law_docs"] = """
        WITH v AS (SELECT t AS token, CAST(COUNT(*) AS HUGEINT) AS n
                   FROM (SELECT unnest(string_split(text, ' ')) AS t
                         FROM documents)
                   WHERE t <> '' GROUP BY 1),
        m AS (SELECT CAST(COUNT(*) AS HUGEINT) AS nt,
                     SUM(CAST(length(token) AS HUGEINT)) AS sx,
                     SUM(n) AS sy,
                     SUM(CAST(length(token) AS HUGEINT) * n) AS sxy
              FROM v)
        SELECT CAST(nt AS BIGINT) AS n_types,
               CAST(sx AS BIGINT) AS len_sum,
               CAST(sy AS BIGINT) AS count_sum,
               CAST(nt * sxy - sx * sy AS VARCHAR) AS cov_num,
               CAST(CASE WHEN nt * sxy - sx * sy > 0 THEN 1
                         WHEN nt * sxy - sx * sy < 0 THEN -1
                         ELSE 0 END AS BIGINT) AS cov_sign
        FROM m
    """



# ---------------------------------------------------------------------------
# schedule_overtake_audit: timetable inversion census per route
# ---------------------------------------------------------------------------


def q_schedule_overtake_audit(sf_dir: str):
    """Overtaking audit per route+direction: order the trips by their
    FIRST departure; at every downstream stop count trip pairs whose
    arrival order INVERTS that departure order (a later-departing
    trip arriving earlier) — legal for express-over-local on
    multi-track corridors, physically impossible on single track,
    and either way the thing a rider-facing 'next departure' sort
    breaks on. Reports inversion pairs next to comparable pairs per
    (route, direction). The trip→first-departure ledger folds once
    (dimension-scale, broadcast); inversions count inside a
    (stop, route, dir) co-partition, bounded by trips-per-stop².
    Window + self-join SQL replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id",
                                     "direction_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"], int(r["direction_id"]))
            for r in trips}
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id",
                                  "stop_sequence", "arrival_time",
                                  "departure_time"])

    def _secs(col) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        out = pc.add(
            pc.add(
                pc.multiply(pc.list_element(parts, 0).cast(pa.int64()),
                            pa.scalar(3600, pa.int64())),
                pc.multiply(pc.list_element(parts, 1).cast(pa.int64()),
                            pa.scalar(60, pa.int64()))),
            pc.list_element(parts, 2).cast(pa.int64()))
        return out.to_numpy(zero_copy_only=False)

    def first_dep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("stop_sequence", kind="stable")
        return pd.DataFrame({
            "trip_id": [df["trip_id"].iloc[0]],
            "dep0": np.array([int(df["dsec"].iloc[0])], np.int64)})

    def attach(t: pa.Table) -> pa.Table:
        return pa.table({
            "trip_id": t["trip_id"],
            "stop_id": t["stop_id"],
            "stop_sequence": t["stop_sequence"].cast(pa.int64()),
            "asec": pa.array(_secs(t["arrival_time"])),
            "dsec": pa.array(_secs(t["departure_time"]))})

    stx = st.map_batches(attach, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    fd = {r["trip_id"]: int(r["dep0"]) for r in
          stx.groupby("trip_id").map_groups(
              first_dep, batch_format="pandas").take_all()}
    mref = ray.put((tmap, fd))

    def stop_fold(df: pd.DataFrame) -> pd.DataFrame:
        tm, f0 = _broadcast(mref)
        tid = df["trip_id"].to_numpy()
        asec = df["asec"].to_numpy(np.int64)
        rd_ = np.asarray([tm[x][0] for x in tid])
        dd = np.array([tm[x][1] for x in tid], np.int64)
        d0 = np.array([f0[x] for x in tid], np.int64)
        rows = []
        for route in np.unique(rd_):
            for direc in (0, 1):
                m = (rd_ == route) & (dd == direc)
                if m.sum() < 2:
                    continue
                # order by (first departure, trip_id) for determinism
                o = np.lexsort((tid[m], d0[m]))
                a = asec[m][o]
                ii, jj = np.triu_indices(len(a), k=1)
                inv = int((a[ii] > a[jj]).sum())
                rows.append((route, direc, len(ii), inv))
        if not rows:
            return pd.DataFrame({
                "route_id": pd.Series(dtype=object),
                "direction_id": pd.Series(dtype=np.int64),
                "n_pairs": pd.Series(dtype=np.int64),
                "n_inversions": pd.Series(dtype=np.int64)})
        return pd.DataFrame({
            "route_id": [r[0] for r in rows],
            "direction_id": np.array([r[1] for r in rows], np.int64),
            "n_pairs": np.array([r[2] for r in rows], np.int64),
            "n_inversions": np.array([r[3] for r in rows],
                                     np.int64)})

    out = (stx.groupby("stop_id")
           .map_groups(stop_fold, batch_format="pandas")
           .groupby(["route_id", "direction_id"])
           .sum(["n_pairs", "n_inversions"]))
    return _rename(out, ["route_id", "direction_id", "n_pairs",
                         "n_inversions"])



QUERIES["schedule_overtake_audit"] = q_schedule_overtake_audit



def _overtake_sql() -> str:
    d = _fixture_sql_dir()
    secs = ("(CAST(split_part({c}, ':', 1) AS BIGINT) * 3600 "
            "+ CAST(split_part({c}, ':', 2) AS BIGINT) * 60 "
            "+ CAST(split_part({c}, ':', 3) AS BIGINT))")
    return f"""
        WITH st AS (SELECT trip_id, stop_id, stop_sequence,
                           {secs.format(c='arrival_time')} AS asec,
                           {secs.format(c='departure_time')} AS dsec
                    FROM read_parquet('{d}/stop_times.parquet')),
        f0 AS (SELECT trip_id, arg_min(dsec, stop_sequence) AS dep0
               FROM st GROUP BY 1),
        j AS (SELECT t.route_id, t.direction_id, st.stop_id,
                     st.trip_id, st.asec, f0.dep0
              FROM st
              JOIN read_parquet('{d}/trips.parquet') t
                USING (trip_id)
              JOIN f0 USING (trip_id)),
        pr AS (SELECT a.route_id, a.direction_id,
                      CAST(COUNT(*) AS BIGINT) AS n_pairs,
                      CAST(SUM(CASE WHEN a.asec > b.asec
                               THEN 1 ELSE 0 END) AS BIGINT)
                          AS n_inversions
               FROM j a JOIN j b
                 ON a.stop_id = b.stop_id
                AND a.route_id = b.route_id
                AND a.direction_id = b.direction_id
                AND (a.dep0 < b.dep0
                     OR (a.dep0 = b.dep0 AND a.trip_id < b.trip_id))
               GROUP BY 1, 2)
        SELECT route_id, CAST(direction_id AS BIGINT)
                   AS direction_id, n_pairs, n_inversions
        FROM pr
    """



# ---------------------------------------------------------------------------
# selectivity_independence_audit: optimizer-statistics reality check
# ---------------------------------------------------------------------------


def q_selectivity_independence_audit(sf_dir: str):
    """Predicate-independence audit — the optimizer-statistics
    reality check: for three canonical predicate pairs over lineitem
    (returned × high-discount, high-quantity × taxed, returned ×
    high-quantity) report n, n_a, n_b, n_ab and the exact
    independence error numerator n·n_ab − n_a·n_b (> 0 means
    positive correlation: the independence assumption every textbook
    cardinality model makes UNDERestimates the conjunction; the
    skew-vs-assumption gap that silently misplans joins). ONE scan
    computes all masks; per-batch partials are 5 integers per pair.
    Direct SQL replay."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_discount", "l_quantity", "l_tax"])

    def part(t: pa.Table) -> pa.Table:
        rf = np.asarray(t["l_returnflag"].to_pylist()) == "R"
        hd = t["l_discount"].to_numpy(zero_copy_only=False) > 0.05
        hq = t["l_quantity"].to_numpy(zero_copy_only=False) > 25
        tx = t["l_tax"].to_numpy(zero_copy_only=False) > 0.0
        pairs = [("returned_x_highdisc", rf, hd),
                 ("highqty_x_taxed", hq, tx),
                 ("returned_x_highqty", rf, hq)]
        return pa.table({
            "pair": pa.array([p[0] for p in pairs]),
            "n": pa.array([len(t)] * 3, pa.int64()),
            "n_a": pa.array([int(p[1].sum()) for p in pairs],
                            pa.int64()),
            "n_b": pa.array([int(p[2].sum()) for p in pairs],
                            pa.int64()),
            "n_ab": pa.array([int((p[1] & p[2]).sum())
                              for p in pairs], pa.int64())})

    agg = (li.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("pair").sum(["n", "n_a", "n_b", "n_ab"]))

    def finish(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        na = t["sum(n_a)"].to_numpy(zero_copy_only=False)
        nb = t["sum(n_b)"].to_numpy(zero_copy_only=False)
        nab = t["sum(n_ab)"].to_numpy(zero_copy_only=False)
        return pa.table({
            "pair": t["pair"], "n": pa.array(n),
            "n_a": pa.array(na), "n_b": pa.array(nb),
            "n_ab": pa.array(nab),
            "indep_err_num": pa.array(n * nab - na * nb)})

    return agg.map_batches(finish, batch_format="pyarrow")



QUERIES["selectivity_independence_audit"] = \
    q_selectivity_independence_audit

ORACLE_SQL["selectivity_independence_audit"] = """
        WITH m AS (SELECT
                CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS a1,
                CASE WHEN l_discount > 0.05 THEN 1 ELSE 0 END AS b1,
                CASE WHEN l_quantity > 25 THEN 1 ELSE 0 END AS a2,
                CASE WHEN l_tax > 0.0 THEN 1 ELSE 0 END AS b2
            FROM lineitem),
        p AS (SELECT 'returned_x_highdisc' AS pair,
                     CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(a1) AS BIGINT) AS n_a,
                     CAST(SUM(b1) AS BIGINT) AS n_b,
                     CAST(SUM(a1 * b1) AS BIGINT) AS n_ab FROM m
              UNION ALL
              SELECT 'highqty_x_taxed', CAST(COUNT(*) AS BIGINT),
                     CAST(SUM(a2) AS BIGINT),
                     CAST(SUM(b2) AS BIGINT),
                     CAST(SUM(a2 * b2) AS BIGINT) FROM m
              UNION ALL
              SELECT 'returned_x_highqty', CAST(COUNT(*) AS BIGINT),
                     CAST(SUM(a1) AS BIGINT),
                     CAST(SUM(a2) AS BIGINT),
                     CAST(SUM(a1 * a2) AS BIGINT) FROM m)
        SELECT pair, n, n_a, n_b, n_ab,
               CAST(n * n_ab - n_a * n_b AS BIGINT)
                   AS indep_err_num
        FROM p
    """



# ---------------------------------------------------------------------------
# route_loop_audit: repeated-stop (loop/lasso) trip census
# ---------------------------------------------------------------------------


def q_route_loop_audit(sf_dir: str):
    """Loop-route census per route: trips that visit SOME stop more
    than once (loop or lasso patterns) and the maximum visits to one
    stop by one trip — the topology the reference's stop-toposort
    cannot represent (a repeated stop creates a cycle, forcing its
    longest-trip fallback, src/lib/geojson-utils.ts:96-118), so this
    census predicts exactly which routes take that fallback. Distinct
    (trip, stop) counts fold inside one trip co-partition; route
    rows broadcast. Window SQL replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]).take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tm = _broadcast(tref)
        counts = df.groupby("stop_id").size()
        return pd.DataFrame({
            "route_id": [tm[df["trip_id"].iloc[0]]],
            "n_trips": np.array([1], np.int64),
            "n_loop_trips": np.array(
                [1 if int(counts.max()) > 1 else 0], np.int64),
            "max_visits": np.array([int(counts.max())], np.int64)})

    per_trip = st.groupby("trip_id").map_groups(
        fold, batch_format="pandas")
    out = per_trip.groupby("route_id").aggregate(
        rd.aggregate.Sum("n_trips"), rd.aggregate.Sum("n_loop_trips"),
        rd.aggregate.Max("max_visits"))
    return _rename(out, ["route_id", "n_trips", "n_loop_trips",
                         "max_visits"])

__defined__ = (
    '_CM_COLS',
    '_CM_GOLD',
    '_CM_K',
    '_CM_ROWS',
    '_audio_crest_sidecar',
    '_audio_crest_sql',
    '_audio_lsb_sidecar',
    '_audio_lsb_sql',
    '_box_count_sidecar',
    '_box_count_sql',
    '_bpe_sidecar',
    '_bpe_sql',
    '_bright_bbox_sidecar',
    '_bright_bbox_sql',
    '_bright_rect_sidecar',
    '_bright_rect_sql',
    '_caption_lift_sql',
    '_clockface_sql',
    '_cmhh_sidecar',
    '_cmhh_sql',
    '_color_contrast_sql',
    '_coverage_curve_sql',
    '_diameter_sidecar',
    '_diameter_sql',
    '_dir_asym_sql',
    '_dup_rows_sidecar',
    '_dup_rows_sql',
    '_dwell_sql',
    '_gram_det_sidecar',
    '_gram_det_sql',
    '_granulo_sidecar',
    '_granulo_sql',
    '_hopkins_probes_path',
    '_hopkins_sql',
    '_img_hist16_sidecar',
    '_ktruss_sidecar',
    '_ktruss_sql',
    '_leg_speed_sql',
    '_lincount_sidecar',
    '_lincount_sql',
    '_moore_sql',
    '_onion_sidecar',
    '_onion_sql',
    '_orphan_sql',
    '_overtake_sql',
    '_palette_sidecar',
    '_palette_sql',
    '_rice_sidecar',
    '_rice_sql',
    '_saturation_sidecar',
    '_saturation_sql',
    '_self_xing_sql',
    '_shape_orient_sql',
    '_shape_seg_bands_sql',
    '_slink_sidecar',
    '_slink_sql',
    '_texture_dir_sidecar',
    '_texture_dir_sql',
    '_transfer_windows_sql',
    '_trip_dir_asym_sql',
    '_typicality_sql',
    '_video_loop_sidecar',
    '_video_loop_sql',
    '_video_ptp_sidecar',
    '_video_ptp_sql',
    '_video_rice_sidecar',
    '_video_rice_sql',
    'q_audio_lsb_bias',
    'q_box_count_images',
    'q_bpe_merges_docs',
    'q_brevity_law_docs',
    'q_bright_bbox_images',
    'q_bright_rect_images',
    'q_caption_token_brightness_lift',
    'q_cell_moore_census',
    'q_clockface_schedule_audit',
    'q_cm_heavy_hitters_audit',
    'q_coverage_saturation_curve',
    'q_customer_basket_jaccard',
    'q_daily_ohlc_values',
    'q_direction_stop_asymmetry',
    'q_dup_diameter_sweep',
    'q_dup_rows_images',
    'q_fd_violation_audit',
    'q_freq_spectrum_sources',
    'q_front_coding_vocab',
    'q_gram_det_embeddings',
    'q_granulometry_images',
    'q_gtfs_leg_speed_audit',
    'q_gtfs_orphan_audit',
    'q_gtfs_transfer_windows',
    'q_hopkins_clusterability',
    'q_ktruss_dups',
    'q_ldiversity_users',
    'q_length_sortedness_sources',
    'q_linear_counting_users',
    'q_onion_profile_images',
    'q_pair_dist_hist_embeddings',
    'q_palette_quant_images',
    'q_record_count_users',
    'q_rice_coding_tracks',
    'q_route_color_contrast',
    'q_route_loop_audit',
    'q_saturation_census_images',
    'q_schedule_overtake_audit',
    'q_selectivity_independence_audit',
    'q_shape_orientation_audit',
    'q_shape_seg_length_bands',
    'q_shape_self_intersections',
    'q_shingle_novelty_curve',
    'q_single_linkage_merges',
    'q_spectral_mass_embeddings',
    'q_split_order_audit',
    'q_stop_dwell_census',
    'q_sttr_sources',
    'q_tax_rounding_audit',
    'q_texture_direction_census',
    'q_token_stutter_docs',
    'q_trip_duration_direction_asymmetry',
    'q_typicality_outlier_images',
    'q_video_loop_period',
    'q_video_pixel_range_hist',
    'q_video_rice_temporal',
)
