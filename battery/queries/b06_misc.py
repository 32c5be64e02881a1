"""Query battery part — 59 driver queries (split from the former single-module queries.py).

Registers:
greedy_matching_dups, markup_audit_brands, audio_requant_audit,
kcenter_seeds_embeddings, kmv_jaccard_types, motion_centroid_clips,
bitplane_census_images, supplier_value_gate_q11,
hour_uniformity_types, first_token_lift_docs, greedy_coloring_dups,
brightest_block_images, audio_monotone_runs, f2_sketch_users,
coverage_perimeter_cells, source_chargram_l1,
ship_lag_buckets_priority, moravec_corners_images,
token_reuse_distance_docs, majority_label_prop_dups,
stratified_cell_sample, packing_plan_sources, audio_clipping_audit,
soundex_classes_docs, blockiness_images, order_backlog_curve,
stop_transfer_pairs, activity_halflife_users, video_time_symmetry,
kanon_users, channel_corr_images, trip_length_hist, lang_runs_sources,
column_period_images, shape_cell_trace, return_rate_brands,
bipartite_audit_dups, second_order_latency, anisotropy_embeddings,
predictable_tokens_docs, type_mix_daily, row_trend_images,
audio_halftime, stop_seq_contiguity, above_type_avg_parts,
daily_growth_streak, motion_spikes_clips, rank_code_cost_docs,
modal_color_images, qty_disc_association, caption_templates_images,
caption_brightness_cov, service_days_gtfs, race_to_value_users,
channel_order_census, nn_margin_audit, boilerplate_shingles_docs,
cohort_retention_matrix, euler_quad_images
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

from .b05_misc import (
    _medfilt_sidecar,
)  # noqa: F401



def _medfilt_sql(img: str) -> str:
    return (f"SELECT image_id, moved_mass, n_changed "
            f"FROM read_parquet('{_medfilt_sidecar(img)}')")



# ---------------------------------------------------------------------------
# greedy_matching_dups: greedy maximal matching on the near-dup graph
# ---------------------------------------------------------------------------

def q_greedy_matching_dups(sf_dir: str):
    """Greedy maximal matching on the near-dup graph by ascending
    edge key (a, b) — the pair-up step of a merge planner that fuses
    dup pairs one-to-one (each doc consumed by at most one merge).
    The engine runs LOCAL-MINIMA ROUNDS: an edge matches when it is
    the minimum surviving edge at BOTH endpoints, then its vertices'
    edges drop — the classic parallel execution of sequential greedy
    (every round's local minima are exactly the greedy prefix no
    earlier conflict blocks, so the matching is IDENTICAL and each
    round is one groupby-min per endpoint over the edge partition —
    no sequential scan at 100 TB). Pair generation is the
    distributed LSH+verify stage; edges are dedup-output scale
    (broadcastable, same contract as kcore_dups). Oracle: an
    independent SEQUENTIAL greedy in pure python over the SQL
    cosine-join pair list — two algorithms, one matching."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"a": pd.Series(dtype=np.int64),
                          "b": pd.Series(dtype=np.int64)})
    if not pairs:
        return empty
    a = np.array([r["a"] for r in pairs], np.int64)
    b = np.array([r["b"] for r in pairs], np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    o = np.lexsort((hi, lo))
    lo, hi = lo[o], hi[o]
    alive = np.ones(len(lo), bool)
    out_a, out_b = [], []
    while alive.any():
        la, lb = lo[alive], hi[alive]
        # rank edges by surviving order; min incident edge per node
        nodes = np.unique(np.concatenate([la, lb]))
        first = np.full(len(nodes), len(la), np.int64)
        for side in (la, lb):
            si = np.searchsorted(nodes, side)
            # edges are in ascending (lo, hi) order ⇒ first hit wins
            np.minimum.at(first, si, np.arange(len(la)))
        ia = np.searchsorted(nodes, la)
        ib = np.searchsorted(nodes, lb)
        take = (first[ia] == np.arange(len(la))) & \
               (first[ib] == np.arange(len(la)))
        if not take.any():
            break
        out_a.append(la[take])
        out_b.append(lb[take])
        used = np.unique(np.concatenate([la[take], lb[take]]))
        drop = np.isin(la, used) | np.isin(lb, used)
        idx = np.flatnonzero(alive)
        alive[idx[drop]] = False
    return pd.DataFrame({"a": np.concatenate(out_a),
                         "b": np.concatenate(out_b)})



QUERIES["greedy_matching_dups"] = q_greedy_matching_dups



def _matching_sidecar(sf_dir: str) -> str:
    """Sequential-greedy replay over the SQL cosine-join pairs."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "match-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_matching_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        edges = sorted((min(int(x), int(y)), max(int(x), int(y)))
                       for x, y in prs)
        used: set[int] = set()
        ma, mb = [], []
        for x, y in edges:
            if x not in used and y not in used:
                used.add(x)
                used.add(y)
                ma.append(x)
                mb.append(y)
        out = pa.table({"a": pa.array(ma, pa.int64()),
                        "b": pa.array(mb, pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _matching_sql(sf_dir: str) -> str:
    return f"SELECT a, b FROM read_parquet('{_matching_sidecar(sf_dir)}')"



# ---------------------------------------------------------------------------
# markup_audit_brands: unit price vs catalog retail price per brand
# ---------------------------------------------------------------------------

def q_markup_audit_brands(sf_dir: str):
    """Markup audit per brand: for every lineitem, is the realized
    UNIT price (extendedprice / quantity) above, below, or at the
    part's catalog retailprice — the pricing-integrity scan of a
    revenue pipeline. The quotient NEVER forms: ep/q > rp on the e2
    lattices ⟺ 100·ep_e2 > rp_e2·q_e2, one integer cross-multiply
    per row; the margin numerator 100·ep_e2 − rp_e2·q_e2 sums
    exactly in int64 (≤1e11 per row). Part (brand, retailprice) is
    a broadcast dimension — the fact scan never shuffles rows, only
    per-(batch, brand) partials. Direct SQL replay."""
    import pyarrow.parquet as pq_

    pt = pq_.read_table(f"{sf_dir}/part.parquet",
                        columns=["p_partkey", "p_brand",
                                 "p_retailprice"])
    pk = pt["p_partkey"].to_numpy()
    o = np.argsort(pk)
    pk = pk[o]
    brands, bcode = np.unique(
        np.asarray(pt["p_brand"].to_pylist())[o], return_inverse=True)
    rp = np.floor(pt["p_retailprice"].to_numpy()[o] * 100.0
                  + 0.5).astype(np.int64)
    dref = ray.put((pk, bcode.astype(np.int64), rp, brands))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        pks, bc, rps, _ = _broadcast(dref)
        lpk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pks, lpk)
        ep = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        num = 100 * ep - rps[pos] * q
        g = pa.table({
            "bc": pa.array(bc[pos]),
            "n_above": pa.array((num > 0).astype(np.int64)),
            "n_below": pa.array((num < 0).astype(np.int64)),
            "n_equal": pa.array((num == 0).astype(np.int64)),
            "margin_num": pa.array(num)}) \
            .group_by("bc").aggregate(
                [("n_above", "sum"), ("n_below", "sum"),
                 ("n_equal", "sum"), ("margin_num", "sum")])
        return g.rename_columns(["bc", "n_above", "n_below",
                                 "n_equal", "margin_num"])

    ds = (li.map_batches(partial, batch_format="pyarrow")
          .groupby("bc").sum(["n_above", "n_below", "n_equal",
                              "margin_num"]))

    def final(t: pa.Table) -> pa.Table:
        _, _, _, brand_names = _broadcast(dref)
        bc = t["bc"].to_numpy(zero_copy_only=False)
        return pa.table({
            "p_brand": pa.array(brand_names[bc]),
            "n_above": t["sum(n_above)"],
            "n_below": t["sum(n_below)"],
            "n_equal": t["sum(n_equal)"],
            "margin_num": t["sum(margin_num)"]})

    return ds.map_batches(final, batch_format="pyarrow")



QUERIES["markup_audit_brands"] = q_markup_audit_brands

ORACLE_SQL["markup_audit_brands"] = """
        WITH j AS (SELECT p.p_brand,
                          CAST(floor(l.l_extendedprice * 100.0 + 0.5)
                               AS BIGINT) AS ep,
                          CAST(floor(l.l_quantity * 100.0 + 0.5)
                               AS BIGINT) AS q,
                          CAST(floor(p.p_retailprice * 100.0 + 0.5)
                               AS BIGINT) AS rp
                   FROM lineitem l
                   JOIN part p ON p.p_partkey = l.l_partkey)
        SELECT p_brand,
               CAST(SUM(CASE WHEN 100 * ep > rp * q THEN 1
                             ELSE 0 END) AS BIGINT) AS n_above,
               CAST(SUM(CASE WHEN 100 * ep < rp * q THEN 1
                             ELSE 0 END) AS BIGINT) AS n_below,
               CAST(SUM(CASE WHEN 100 * ep = rp * q THEN 1
                             ELSE 0 END) AS BIGINT) AS n_equal,
               CAST(SUM(100 * ep - rp * q) AS BIGINT) AS margin_num
        FROM j GROUP BY 1
    """



# ---------------------------------------------------------------------------
# audio_requant_audit: 16->8-bit requantization error per track
# ---------------------------------------------------------------------------

def q_audio_requant_audit(sf_dir: str):
    """8-bit requantization audit per track: drop each 16-bit PCM
    sample to its mid-rise 8-bit code ((s+32768)>>8) and reconstruct
    ((code<<8)−32768+128) — the exact |error| mass, the max |error|
    (bounded by 128 by construction, asserted by the oracle match)
    and how many samples round EXACTLY — the storage-tier decision
    input (8-bit proxy vs full-depth archive), sibling of the
    int8 embedding-quantization audit on the PCM domain. One shift/
    subtract pass over the stacked batch tensor. Python-int replay
    sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class RequantStage:
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
            out_id, out_m, out_x, out_z = [], [], [], []
            for _, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                code = (pcm + 32768) >> 8
                recon = (code << 8) - 32768 + 128
                err = np.abs(pcm - recon)
                out_id.append(ids[slots])
                out_m.append(err.sum(axis=1).astype(np.int64))
                out_x.append(err.max(axis=1).astype(np.int64))
                out_z.append((err == 0).sum(axis=1).astype(np.int64))
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "abs_err_mass": pa.array(np.concatenate(out_m)),
                "max_abs_err": pa.array(np.concatenate(out_x)),
                "n_exact": pa.array(np.concatenate(out_z))})

    return ds.map_batches(RequantStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_requant_audit"] = q_audio_requant_audit



def _audio_requant_sidecar(aud: str) -> str:
    """Python-int replay for audio_requant_audit."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiorq_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            mass = mx = nz = 0
            for v in pcm[j].tolist():
                s = int(v)
                code = (s + 32768) // 256
                recon = code * 256 - 32768 + 128
                e = abs(s - recon)
                mass += e
                if e > mx:
                    mx = e
                if e == 0:
                    nz += 1
            rows.append({"track_id": tid, "abs_err_mass": mass,
                         "max_abs_err": mx, "n_exact": nz})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_requant_sql(aud: str) -> str:
    return (f"SELECT track_id, abs_err_mass, max_abs_err, n_exact "
            f"FROM read_parquet('{_audio_requant_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# kcenter_seeds_embeddings: farthest-first traversal (k-center seeds)
# ---------------------------------------------------------------------------

_KCENTER_K = 5



def q_kcenter_seeds_embeddings(sf_dir: str):
    """Farthest-first traversal (Gonzalez k-center) over the corpus
    embeddings: 5 seeds whose min pairwise distance 2-approximates
    the optimal k-center cover — the coverage-first diversity dual
    of MMR (which is relevance-first) and the standard coreset /
    curriculum seed picker. All arithmetic on the e6 integer
    lattice: seed = max self-dot, each round argmax of the EXACT
    min squared L2 distance to the selected set (self + sel_self −
    2·dot, one V@S.T per batch), smaller vec_id on ties. Distributed
    as k passes of per-batch partial argmax with the ≤k selected
    lattice vectors broadcast and the winner's vector carried in the
    partial — no second corpus pass, holds at any corpus scale.
    Scalar python-int replay (oracle_ref.kcenter_ref) sidecar."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    first = emb.take(1)
    if not first:
        return pd.DataFrame({"rank": pd.Series(dtype=np.int64),
                             "vec_id": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.int64)})
    dim = len(first[0]["embedding"])

    sel_ids: list[int] = []
    sel_vecs: list[np.ndarray] = []
    out_rank, out_id, out_score = [], [], []
    for rank in range(_KCENTER_K):
        selref = ray.put((np.array(sel_ids, np.int64),
                          np.array(sel_vecs, np.int64).reshape(
                              len(sel_vecs), dim)))

        def part(t: pa.Table, _selref=selref) -> pa.Table:
            sids, S = _broadcast(_selref)
            ids = t["vec_id"].to_numpy(zero_copy_only=False)
            V = np.floor(np.stack(
                t["embedding"].to_numpy(zero_copy_only=False))
                .astype(np.float64) * 1_000_000.0).astype(np.int64)
            self_dot = (V * V).sum(axis=1)
            if len(sids):
                ssd = (S * S).sum(axis=1)
                d2 = (self_dot[:, None] + ssd[None, :]
                      - 2 * (V @ S.T)).min(axis=1)
                score = d2
            else:
                score = self_dot
            free = ~np.isin(ids, sids)
            if not free.any():
                return pa.table({"vec_id": pa.array([], pa.int64()),
                                 "score": pa.array([], pa.int64()),
                                 "vec": pa.array(
                                     [], pa.list_(pa.int64()))})
            ids_f, sc_f = ids[free], score[free]
            j = np.lexsort((ids_f, -sc_f))[0]
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



QUERIES["kcenter_seeds_embeddings"] = q_kcenter_seeds_embeddings



def _kcenter_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import kcenter_ref

    def build() -> pa.Table:
        import math

        import pyarrow.parquet as pq
        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
        ids = t["vec_id"].to_pylist()
        vecs = [[math.floor(x * 1000000.0) for x in v]
                for v in t["embedding"].to_pylist()]
        rows = kcenter_ref(ids, vecs, _KCENTER_K)
        return pa.table({
            "rank": pa.array([r for r, _, _ in rows], pa.int64()),
            "vec_id": pa.array([i for _, i, _ in rows], pa.int64()),
            "score": pa.array([s for _, _, s in rows], pa.int64())})

    return _ref_sidecar(sf_dir, "kcenter", build)



def _kcenter_sql(sf_dir: str) -> str:
    return (f"SELECT rank, vec_id, score "
            f"FROM read_parquet('{_kcenter_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# kmv_jaccard_types: KMV bottom-k set-operation sketch (Jaccard est)
# ---------------------------------------------------------------------------

_KMVJ_K = 64



def q_kmv_jaccard_types(sf_dir: str):
    """KMV set-operation sketch (Beyer et al. 2007): estimate the
    Jaccard similarity of the click vs purchase USER audiences from
    two mergeable bottom-64 splitmix64 sketches — θ = the k-th
    smallest of the sketch union, estimate = |below-θ hashes in
    BOTH| / k — next to the plain KMV distinct count, this is the
    estimator that answers overlap questions WITHOUT a co-shuffle of
    the two sides. Per-batch bottom-k partials are ≤64 rows each
    (mergeable, exact bottom-k after union-distinct); the EXACT
    companion inter/union ride one user-cardinality bitmask shuffle
    in the same pass, so the driver row carries both the estimate
    and its ground truth. Oracle: python sm64 sketch replay sidecar
    × direct-SQL exact counts."""
    from geotile.synth import splitmix64

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def sketch_part(t: pa.Table) -> pa.Table:
        ty = t["event_type"].to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        out_t, out_h = [], []
        for name in ("click", "purchase"):
            uu = np.unique(u[ty == name])
            h = np.sort(splitmix64(uu.astype(np.uint64)))[:_KMVJ_K]
            out_t.append(np.full(len(h), 0 if name == "click" else 1,
                                 np.int64))
            out_h.append(h.view(np.int64))
        return pa.table({"ty": pa.array(np.concatenate(out_t)),
                         "h": pa.array(np.concatenate(out_h))})

    parts = ev.map_batches(sketch_part,
                           batch_format="pyarrow").take_all()
    ha = np.unique(np.array([r["h"] for r in parts
                             if r["ty"] == 0], np.int64)
                   .view(np.uint64))[:_KMVJ_K]
    hb = np.unique(np.array([r["h"] for r in parts
                             if r["ty"] == 1], np.int64)
                   .view(np.uint64))[:_KMVJ_K]
    su = np.unique(np.concatenate([ha, hb]))[:_KMVJ_K]
    k_used = len(su)
    n_shared = int(np.isin(su, ha[np.isin(ha, hb)]).sum())

    def exact_part(t: pa.Table) -> pa.Table:
        ty = t["event_type"].to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        keep = (ty == "click") | (ty == "purchase")
        g = pa.table({
            "user_id": pa.array(u[keep]),
            "is_c": pa.array((ty[keep] == "click").astype(np.int64)),
            "is_p": pa.array((ty[keep] == "purchase")
                             .astype(np.int64))}) \
            .group_by("user_id").aggregate([("is_c", "max"),
                                            ("is_p", "max")])
        return g.rename_columns(["user_id", "is_c", "is_p"])

    per_user = (ev.map_batches(exact_part, batch_format="pyarrow")
                .groupby("user_id").max(["is_c", "is_p"]))

    def fold(t: pa.Table) -> pa.Table:
        c = t["max(is_c)"].to_numpy(zero_copy_only=False)
        p = t["max(is_p)"].to_numpy(zero_copy_only=False)
        return pa.table({
            "inter": pa.array([int((c & p).sum())], pa.int64()),
            "union_": pa.array([int((c | p).sum())], pa.int64())})

    sums = per_user.map_batches(fold, batch_format="pyarrow") \
        .take_all()
    exact_inter = sum(r["inter"] for r in sums)
    exact_union = sum(r["union_"] for r in sums)
    return pd.DataFrame({
        "k_used": np.array([k_used], np.int64),
        "n_shared": np.array([n_shared], np.int64),
        "exact_inter": np.array([exact_inter], np.int64),
        "exact_union": np.array([exact_union], np.int64)})



QUERIES["kmv_jaccard_types"] = q_kmv_jaccard_types



def _kmvj_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import sm64

    def build() -> pa.Table:
        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf_dir}/events.parquet')")
        sets = {}
        for name in ("click", "purchase"):
            us = [int(r[0]) for r in con.execute(
                "SELECT DISTINCT user_id FROM events "
                f"WHERE event_type = '{name}'").fetchall()]
            sets[name] = sorted(sm64(u) for u in us)[:_KMVJ_K]
        a, b = set(sets["click"]), set(sets["purchase"])
        su = sorted(a | b)[:_KMVJ_K]
        shared = sum(1 for h in su if h in a and h in b)
        return pa.table({
            "k_used": pa.array([len(su)], pa.int64()),
            "n_shared": pa.array([shared], pa.int64())})

    return _ref_sidecar(sf_dir, "kmvj", build)



def _kmvj_sql(sf_dir: str) -> str:
    return f"""
        SELECT s.k_used, s.n_shared, e.exact_inter, e.exact_union
        FROM read_parquet('{_kmvj_sidecar(sf_dir)}') s CROSS JOIN (
            WITH c AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'click'),
                 p AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'purchase')
            SELECT CAST((SELECT COUNT(*) FROM c
                         JOIN p USING (user_id)) AS BIGINT)
                       AS exact_inter,
                   CAST((SELECT COUNT(*) FROM
                         (SELECT user_id FROM c UNION
                          SELECT user_id FROM p)) AS BIGINT)
                       AS exact_union
        ) e
    """



# ---------------------------------------------------------------------------
# motion_centroid_clips: temporal centroid of motion energy per clip
# ---------------------------------------------------------------------------

def q_motion_centroid_clips(sf_dir: str):
    """WHEN does the action happen: per clip the temporal centroid
    numerator Σ t·m_t over the transition motion masses (denominator
    = the motion total, so the quotient never forms), plus the
    temporal MEDIAN transition — smallest t with 2·prefix ≥ total
    (the nucleus-mass discipline on the time axis; −1 for static
    clips) — the trim-point picker for a frame-sampling curator
    (front-loaded vs back-loaded action). One |diff| + one weighted
    sum over each payload group's stacked 5-D tensor. Python-int
    replay sidecar."""
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
        out_id, out_c, out_t, out_h = [], [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            m = np.abs(clips[:, 1:] - clips[:, :-1]) \
                .sum(axis=(2, 3, 4))  # (k, f-1)
            tot = m.sum(axis=1)
            tt = np.arange(f - 1, dtype=np.int64)
            cen = (m * tt[None, :]).sum(axis=1)
            pref = np.cumsum(m, axis=1)
            ge = 2 * pref >= tot[:, None]
            half = np.where(tot > 0, ge.argmax(axis=1),
                            np.int64(-1)).astype(np.int64)
            out_id.append(ids[slots])
            out_c.append(cen)
            out_t.append(tot)
            out_h.append(half)
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "centroid_num": pa.array(np.concatenate(out_c)),
            "motion_total": pa.array(np.concatenate(out_t)),
            "half_idx": pa.array(np.concatenate(out_h))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["motion_centroid_clips"] = q_motion_centroid_clips



def _motion_centroid_sidecar(vid: str) -> str:
    """Python-int replay for motion_centroid_clips."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_mocentroid_{Path(vid).name}_{_mods_digest(_sy)}"
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
            ms = []
            for f in range(nf - 1):
                ms.append(sum(abs(a - b) for a, b in
                              zip(frames[f + 1], frames[f])))
            tot = sum(ms)
            cen = sum(t_ * m for t_, m in enumerate(ms))
            half = -1
            if tot > 0:
                acc = 0
                for t_, m in enumerate(ms):
                    acc += m
                    if 2 * acc >= tot:
                        half = t_
                        break
            rows.append({"clip_id": cid, "centroid_num": cen,
                         "motion_total": tot, "half_idx": half})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _motion_centroid_sql(vid: str) -> str:
    return (f"SELECT clip_id, centroid_num, motion_total, half_idx "
            f"FROM read_parquet('{_motion_centroid_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# bitplane_census_images: per-plane population counts (gray channel)
# ---------------------------------------------------------------------------

def q_bitplane_census_images(sf_dir: str):
    """Bit-plane census per image (first 1024): population count of
    each of the 8 gray-channel bit planes — the compressibility
    ladder (high planes are structure and compress; low planes are
    noise and don't), the input a PNG-filter/bit-depth chooser keys
    on. Long output (image_id, plane, n_ones): eight shift-mask sums
    over the batch tensor. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class PlaneStage:
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
            out_id, out_p, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                for plane in range(8):
                    ones = ((gray >> plane) & 1).sum(axis=(1, 2))
                    out_id.append(ids[slots])
                    out_p.append(np.full(len(slots), plane,
                                         np.int64))
                    out_n.append(ones.astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "plane": pa.array(np.concatenate(out_p)),
                "n_ones": pa.array(np.concatenate(out_n))})

    return ds.map_batches(PlaneStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["bitplane_census_images"] = q_bitplane_census_images



def _bitplane_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for bitplane_census_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_bitplane_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                counts = [0] * 8
                for y in range(hi):
                    for x in range(wi):
                        g = (int(px[j, y, x, 0])
                             + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2])) // 3
                        for plane in range(8):
                            if (g >> plane) & 1:
                                counts[plane] += 1
                for plane in range(8):
                    rows.append({"image_id": str(iid[slot]),
                                 "plane": plane,
                                 "n_ones": counts[plane]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bitplane_sql(img: str) -> str:
    return (f"SELECT image_id, plane, n_ones "
            f"FROM read_parquet('{_bitplane_sidecar(img)}')")



# ---------------------------------------------------------------------------
# supplier_value_gate_q11: TPC-H Q11-flavour value-share gate
# ---------------------------------------------------------------------------

def q_supplier_value_gate_q11(sf_dir: str):
    """TPC-H Q11 flavour (no partsupp table, so 'stock value' is
    re-expressed as shipped lineitem revenue): suppliers holding
    MORE than 1/25 of their nation's total shipped value — the
    concentration gate next to the HHI (which scores the whole
    nation; this names the suppliers). The gate is one integer
    cross-multiply 25·supp_cents > nation_cents on the e2 lattice.
    Fact scan contracts to suppkey cardinality via per-batch
    partials; supplier→nation is a broadcast dimension; nation
    totals fold from the SUPPLIER-grain table (dimension scale) and
    broadcast back — three dataset hops, no fact re-scan. Direct
    SQL replay."""
    import pyarrow.parquet as pq_

    st = pq_.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nt = pq_.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    sk = st["s_suppkey"].to_numpy()
    o = np.argsort(sk)
    sk = sk[o]
    snat = st["s_nationkey"].to_numpy().astype(np.int64)[o]
    nname = {int(k): v for k, v in
             zip(nt["n_nationkey"].to_pylist(),
                 nt["n_name"].to_pylist())}
    dref = ray.put((sk, snat))

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        ep = np.floor(t["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"l_suppkey": t["l_suppkey"],
                      "cents": pa.array(ep)}) \
            .group_by("l_suppkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_suppkey", "cents"])

    supp = (li.map_batches(partial, batch_format="pyarrow")
            .groupby("l_suppkey").sum("cents"))
    supp = _rename(supp, ["l_suppkey", "supp_cents"])

    def with_nation(t: pa.Table) -> pa.Table:
        sks, snats = _broadcast(dref)
        lsk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(sks, lsk)
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "supp_cents": t["supp_cents"],
                         "nationkey": pa.array(snats[pos])})

    suppn = supp.map_batches(with_nation, batch_format="pyarrow")
    totals = suppn.groupby("nationkey").sum("supp_cents").take_all()
    tot = {int(r["nationkey"]): int(r["sum(supp_cents)"])
           for r in totals}
    tref = ray.put(tot)

    def gate(t: pa.Table) -> pa.Table:
        tot_ = _broadcast(tref)
        nk = t["nationkey"].to_numpy(zero_copy_only=False)
        sc = t["supp_cents"].to_numpy(zero_copy_only=False)
        nt_ = np.array([tot_[int(k)] for k in nk], np.int64)
        keep = 25 * sc > nt_
        return pa.table({
            "s_suppkey": pa.array(
                t["l_suppkey"].to_numpy(zero_copy_only=False)[keep]),
            "n_name": pa.array([nname[int(k)] for k in nk[keep]]),
            "supp_cents": pa.array(sc[keep])})

    return suppn.map_batches(gate, batch_format="pyarrow")



QUERIES["supplier_value_gate_q11"] = q_supplier_value_gate_q11

ORACLE_SQL["supplier_value_gate_q11"] = """
        WITH sc AS (SELECT l.l_suppkey AS s_suppkey,
                           s.s_nationkey,
                           CAST(SUM(CAST(floor(l.l_extendedprice
                                              * 100.0 + 0.5)
                                        AS BIGINT)) AS BIGINT)
                               AS supp_cents
                    FROM lineitem l
                    JOIN supplier s ON s.s_suppkey = l.l_suppkey
                    GROUP BY 1, 2),
        nt AS (SELECT s_nationkey,
                      CAST(SUM(supp_cents) AS BIGINT) AS nation_cents
               FROM sc GROUP BY 1)
        SELECT sc.s_suppkey, n.n_name, sc.supp_cents
        FROM sc
        JOIN nt ON nt.s_nationkey = sc.s_nationkey
        JOIN nation n ON n.n_nationkey = sc.s_nationkey
        WHERE 25 * sc.supp_cents > nt.nation_cents
    """



# ---------------------------------------------------------------------------
# hour_uniformity_types: chi-square uniformity numerator per type
# ---------------------------------------------------------------------------

def q_hour_uniformity_types(sf_dir: str):
    """Hour-of-day uniformity score per event type: the EXACT
    chi-square numerator Σ_h (24·o_h − T)² over all 24 hours (the
    denominator 24²·T/24 never forms — ranking and thresholding work
    on the integer numerator) — the diurnal-skew detector that says
    WHICH types need hour-stratified sampling. Per-batch (type,
    hour) count partials contract the scan to 24×|types| rows;
    absent hours contribute T² each via the (24 − n_present)·T²
    closed form instead of a dense re-index. Aggregate-join SQL
    replay."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = (us // 3_600_000_000) % 24
        g = pa.table({"event_type": t["event_type"],
                      "hour": pa.array(hour),
                      "o": pa.array(np.ones(len(hour), np.int64))}) \
            .group_by(["event_type", "hour"]) \
            .aggregate([("o", "sum")])
        return g.rename_columns(["event_type", "hour", "o"])

    ledger = (ev.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["event_type", "hour"]).sum("o"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ty = df["event_type"].iloc[0]
        o = df["sum(o)"].to_numpy(np.int64)
        T = int(o.sum())
        part = int(((24 * o - T) ** 2).sum())
        chi2 = part + (24 - len(o)) * T * T
        return pd.DataFrame({"event_type": [ty],
                             "n_events": np.array([T], np.int64),
                             "chi2_num": np.array([chi2], np.int64)})

    return ledger.groupby("event_type").map_groups(
        fold, batch_format="pandas")



QUERIES["hour_uniformity_types"] = q_hour_uniformity_types

ORACLE_SQL["hour_uniformity_types"] = """
        WITH h AS (SELECT event_type,
                          CAST(date_part('hour', ts) AS BIGINT) AS hr,
                          CAST(COUNT(*) AS BIGINT) AS o
                   FROM events GROUP BY 1, 2),
        tt AS (SELECT event_type, CAST(SUM(o) AS BIGINT) AS T,
                      CAST(COUNT(*) AS BIGINT) AS np
               FROM h GROUP BY 1)
        SELECT h.event_type,
               CAST(ANY_VALUE(tt.T) AS BIGINT) AS n_events,
               CAST(SUM((24 * h.o - tt.T) * (24 * h.o - tt.T))
                    + (24 - ANY_VALUE(tt.np)) * ANY_VALUE(tt.T)
                      * ANY_VALUE(tt.T) AS BIGINT) AS chi2_num
        FROM h JOIN tt ON tt.event_type = h.event_type
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# first_token_lift_docs: sentence-initial vocabulary lift
# ---------------------------------------------------------------------------

def q_first_token_lift_docs(sf_dir: str):
    """Doc-INITIAL vocabulary lift: which tokens open documents far
    more often than their overall share predicts — top-10 by the
    exact integer key floor(n_first·N·10⁶ / (n_docs·n_total))
    (lift of P(first = t) over P(token = t); both engines rank on
    the same quotient-free key, token ASC ties). One pass emits BOTH
    marginals: per-batch (token, n_first, n_total) partials — the
    first token of each doc is also its occurrence, so N = Σ n_total
    and n_docs = Σ n_first come free off the same Heaps-bounded
    vocabulary ledger (the PMI op's contract). Lateral-unnest +
    HUGEINT quotient replay."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        split = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(split)
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        first = pc.list_element(split, 0).to_numpy(
            zero_copy_only=False)
        first = first[first != ""]   # empty docs open nothing
        ut, ct = np.unique(toks, return_counts=True)
        uf, cf = np.unique(first, return_counts=True)
        nf = np.zeros(len(ut), np.int64)
        pos = np.searchsorted(ut, uf)
        nf[pos] = cf     # every nonempty first token occurs in toks
        return pa.table({"token": pa.array(ut),
                         "n_first": pa.array(nf),
                         "n_total": pa.array(ct.astype(np.int64))})

    ledger = (docs.map_batches(partial, batch_format="pyarrow")
              .groupby("token").sum(["n_first", "n_total"])).take_all()
    toks = [r["token"] for r in ledger]
    nfs = [int(r["sum(n_first)"]) for r in ledger]
    nts = [int(r["sum(n_total)"]) for r in ledger]
    N = sum(nts)
    ndocs = sum(nfs)
    rows = []
    for tk, a, b in zip(toks, nfs, nts):
        if a == 0:
            continue
        q = (a * N * 10**6) // (ndocs * b)
        rows.append((tk, a, b, q))
    rows.sort(key=lambda x: (-x[3], x[0]))
    top = rows[:10]
    return pd.DataFrame(top, columns=["token", "n_first", "n_total",
                                      "lift_q6"])



QUERIES["first_token_lift_docs"] = q_first_token_lift_docs

ORACLE_SQL["first_token_lift_docs"] = """
        WITH raw AS (SELECT unnest(string_split(text, ' ')) AS t
                     FROM documents),
        v AS (SELECT t AS token, CAST(COUNT(*) AS BIGINT) AS n_total
              FROM raw WHERE t <> '' GROUP BY 1),
        f AS (SELECT split_part(text, ' ', 1) AS token,
                     CAST(COUNT(*) AS BIGINT) AS n_first
              FROM documents GROUP BY 1),
        tot AS (SELECT CAST(SUM(n_total) AS BIGINT) AS N FROM v),
        nd AS (SELECT CAST(COUNT(*) AS BIGINT) AS ndocs
               FROM documents
               WHERE split_part(text, ' ', 1) <> '')
        SELECT v.token, f.n_first, v.n_total,
               CAST((CAST(f.n_first AS HUGEINT) * tot.N * 1000000)
                    // (CAST(nd.ndocs AS HUGEINT) * v.n_total)
                   AS BIGINT) AS lift_q6
        FROM v JOIN f ON f.token = v.token, tot, nd
        ORDER BY lift_q6 DESC, v.token ASC LIMIT 10
    """



# ---------------------------------------------------------------------------
# greedy_coloring_dups: Jones-Plassmann greedy coloring of the dup graph
# ---------------------------------------------------------------------------

def q_greedy_coloring_dups(sf_dir: str):
    """Greedy vertex coloring of the near-dup graph in vec_id order —
    the conflict-scheduling primitive (color classes = waves of
    merges that can run concurrently because no two touch the same
    doc pair). The engine runs JONES-PLASSMANN rounds with id
    priority: a node colors once ALL its smaller-id neighbours are
    colored, taking the smallest free color — provably identical to
    sequential greedy by ascending id (induction on id order), but
    each round is a local test against already-colored neighbours,
    so it parallelizes per partition at 100 TB. Edge set is
    dedup-output scale (broadcastable, the kcore_dups contract).
    Oracle: an independent SEQUENTIAL greedy in pure python over the
    SQL cosine-join pairs — two algorithms, one coloring."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                          "color": pd.Series(dtype=np.int64)})
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
    vi = np.searchsorted(nodes, v)
    n = len(nodes)
    color = np.full(n, -1, np.int64)
    while (color < 0).any():
        progressed = False
        for i in np.flatnonzero(color < 0):
            nb = vi[starts[i]:ends[i]]
            smaller = nb[nb < i]
            if (color[smaller] < 0).any():
                continue
            used = set(color[nb[color[nb] >= 0]].tolist())
            c = 0
            while c in used:
                c += 1
            # JP: only SMALLER-id neighbour colors constrain; but
            # larger-id neighbours are still uncolored here (they
            # wait for i), so `used` == smaller-neighbour colors.
            color[i] = c
            progressed = True
        if not progressed:  # pragma: no cover - JP always progresses
            raise RuntimeError("coloring stalled")
    return pd.DataFrame({"node": nodes, "color": color})



QUERIES["greedy_coloring_dups"] = q_greedy_coloring_dups



def _coloring_sidecar(sf_dir: str) -> str:
    """Sequential-greedy replay over the SQL cosine-join pairs."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "color-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_coloring_{Path(sf_dir).name}_{key}.parquet")
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
        color: dict[int, int] = {}
        for nd in sorted(adj):
            used = {color[w] for w in adj[nd] if w in color}
            c = 0
            while c in used:
                c += 1
            color[nd] = c
        out = pa.table({
            "node": pa.array(sorted(color), pa.int64()),
            "color": pa.array([color[nd] for nd in sorted(color)],
                              pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _coloring_sql(sf_dir: str) -> str:
    return (f"SELECT node, color "
            f"FROM read_parquet('{_coloring_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# brightest_block_images: sliding 8x8 argmax block via integral image
# ---------------------------------------------------------------------------

def q_brightest_block_images(sf_dir: str):
    """Brightest sliding 8×8 block per image (first 1024): exact
    integer gray mass of the best block and its FIRST top-left
    corner in row-major order — the saliency-crop primitive (where a
    thumbnailer would anchor). The ViT patch ledger uses a FIXED
    grid; this is the sliding argmax, computed via an integral image
    (two cumsums) + four gathers per batch tensor, so every one of
    the (h−7)·(w−7) candidate blocks costs O(1) — never a per-pixel
    rescan. Scalar replay sidecar re-sums each block naively."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class BlockStage:
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
            out_id, out_s, out_y, out_x = [], [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                I = np.zeros((len(slots), hi + 1, wi + 1), np.int64)
                I[:, 1:, 1:] = gray.cumsum(axis=1).cumsum(axis=2)
                b = (I[:, 8:, 8:] + I[:, :-8, :-8]
                     - I[:, 8:, :-8] - I[:, :-8, 8:])
                k, bh, bw = b.shape
                flat = b.reshape(k, -1)
                j = flat.argmax(axis=1)   # first max, row-major
                out_id.append(ids[slots])
                out_s.append(flat[np.arange(k), j].astype(np.int64))
                out_y.append((j // bw).astype(np.int64))
                out_x.append((j % bw).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "block_sum": pa.array(np.concatenate(out_s)),
                "top": pa.array(np.concatenate(out_y)),
                "left": pa.array(np.concatenate(out_x))})

    return ds.map_batches(BlockStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["brightest_block_images"] = q_brightest_block_images



def _brightblock_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for brightest_block_images: naive block sums."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_brightblock_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(wi)] for y in range(hi)]
                best, by, bx = -1, -1, -1
                for y in range(hi - 7):
                    for x in range(wi - 7):
                        s = sum(g[y + dy][x + dx]
                                for dy in range(8)
                                for dx in range(8))
                        if s > best:
                            best, by, bx = s, y, x
                rows.append({"image_id": str(iid[slot]),
                             "block_sum": best, "top": by,
                             "left": bx})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _brightblock_sql(img: str) -> str:
    return (f"SELECT image_id, block_sum, top, \"left\" "
            f"FROM read_parquet('{_brightblock_sidecar(img)}')")



# ---------------------------------------------------------------------------
# audio_monotone_runs: longest nondecreasing sample run per track
# ---------------------------------------------------------------------------

def q_audio_monotone_runs(sf_dir: str):
    """Longest NONDECREASING sample run per track plus the count of
    maximal runs — the ramp detector on the PCM domain (long ramps =
    low-frequency content, many short runs = noise), the
    monotone-run discipline ported from the events table to audio.
    One diff + one run-length fold over the stacked batch tensor.
    Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class RunStage:
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
            out_id, out_l, out_n = [], [], []
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                k = len(slots)
                brk = pcm[:, 1:] < pcm[:, :-1]   # run breaks
                n_runs = brk.sum(axis=1) + 1
                # longest run via per-row segmented lengths
                longest = np.empty(k, np.int64)
                for r_ in range(k):
                    cuts = np.flatnonzero(brk[r_])
                    edges = np.r_[-1, cuts, length - 1]
                    longest[r_] = int(np.diff(edges).max())
                out_id.append(ids[slots])
                out_l.append(longest)
                out_n.append(n_runs.astype(np.int64))
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "longest_run": pa.array(np.concatenate(out_l)),
                "n_runs": pa.array(np.concatenate(out_n))})

    return ds.map_batches(RunStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_monotone_runs"] = q_audio_monotone_runs



def _audio_runs_sidecar(aud: str) -> str:
    """Python-int replay for audio_monotone_runs."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioruns_{Path(aud).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            longest = cur = 1
            n_runs = 1
            for i in range(1, len(s)):
                if s[i] >= s[i - 1]:
                    cur += 1
                else:
                    n_runs += 1
                    cur = 1
                if cur > longest:
                    longest = cur
            rows.append({"track_id": tid, "longest_run": longest,
                         "n_runs": n_runs})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_runs_sql(aud: str) -> str:
    return (f"SELECT track_id, longest_run, n_runs "
            f"FROM read_parquet('{_audio_runs_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# f2_sketch_users: AMS second-frequency-moment sketch vs exact F2
# ---------------------------------------------------------------------------

def q_f2_sketch_users(sf_dir: str):
    """AMS F2 sketch (Alon–Matias–Szegedy): estimate the second
    frequency moment Σ c_u² of the per-user event counts from FIVE
    ±1 projections — z_i = Σ_events sign_i(user) where sign_i is
    bit i of splitmix64(user), estimate = median of z_i² — the
    skew/self-join-size estimator that needs ONE streaming pass and
    5 ints of state, NO user shuffle (the exact companion rides one
    user-cardinality shuffle in the same row, so the driver sees
    estimate and truth together). Everything integer: z ≤ |events|,
    z² exact in int64. Python sm64 sketch replay × direct-SQL exact
    F2."""
    from geotile.synth import splitmix64

    ev = _read(sf_dir, "events", ["user_id"])

    def sketch_part(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        h = splitmix64(u.astype(np.uint64))
        zs = np.empty(5, np.int64)
        for i in range(5):
            bit = ((h >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
            zs[i] = (2 * bit - 1).sum()
        return pa.table({"i": pa.array(np.arange(5, dtype=np.int64)),
                         "z": pa.array(zs)})

    zparts = (ev.map_batches(sketch_part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("i").sum("z")).take_all()
    zs = sorted(int(r["sum(z)"]) ** 2 for r in zparts)
    est = zs[2]

    def count_part(t: pa.Table) -> pa.Table:
        g = pa.table({"user_id": t["user_id"],
                      "c": pa.array(np.ones(len(t), np.int64))}) \
            .group_by("user_id").aggregate([("c", "sum")])
        return g.rename_columns(["user_id", "c"])

    per_user = (ev.map_batches(count_part, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby("user_id").sum("c"))

    def fold(t: pa.Table) -> pa.Table:
        c = t["sum(c)"].to_numpy(zero_copy_only=False)
        return pa.table({"f2": pa.array([int((c * c).sum())],
                                        pa.int64())})

    exact = sum(r["f2"] for r in
                per_user.map_batches(fold,
                                     batch_format="pyarrow")
                .take_all())
    return pd.DataFrame({"est_f2": np.array([est], np.int64),
                         "exact_f2": np.array([exact], np.int64)})



QUERIES["f2_sketch_users"] = q_f2_sketch_users



def _f2_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import sm64

    def build() -> pa.Table:
        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf_dir}/events.parquet')")
        rows = con.execute(
            "SELECT user_id, COUNT(*) FROM events GROUP BY 1"
        ).fetchall()
        zs = []
        for i in range(5):
            z = 0
            for u, c in rows:
                z += (1 if (sm64(int(u)) >> i) & 1 else -1) * int(c)
            zs.append(z * z)
        return pa.table({"est_f2": pa.array([sorted(zs)[2]],
                                            pa.int64())})

    return _ref_sidecar(sf_dir, "f2ams", build)



def _f2_sql(sf_dir: str) -> str:
    return f"""
        SELECT s.est_f2, e.exact_f2
        FROM read_parquet('{_f2_sidecar(sf_dir)}') s CROSS JOIN (
            SELECT CAST(SUM(c * c) AS BIGINT) AS exact_f2
            FROM (SELECT COUNT(*) AS c FROM events GROUP BY user_id)
        ) e
    """



# ---------------------------------------------------------------------------
# coverage_perimeter_cells: exact perimeter of the occupied-cell region
# ---------------------------------------------------------------------------

def q_coverage_perimeter_cells(sf_dir: str):
    """Exact boundary length of the res-12 tile-coverage region, in
    cell edges: perimeter = 4·N − 2·E where N = occupied cells and
    E = 4-adjacent occupied pairs — the compactness signal next to
    the coverage Gini (a crawler filling a region drives perimeter/N
    down; stripy acquisition keeps it high). The scan contracts to
    the DISTINCT cell ledger; adjacency never materializes a grid:
    each occupied cell probes only its east/north neighbour key, one
    groupby counts probes that landed on a real cell (pair-once by
    construction). Quantized-axis self-join SQL replay."""
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
        east = np.where(ix + 1 < n, (ix + 1) * n + iy, -1)
        north = np.where(iy + 1 < n, ix * n + iy + 1, -1)
        pk = np.concatenate([east[east >= 0], north[north >= 0]])
        return pa.table({
            "key": pa.array(np.concatenate([key, pk])),
            "real": pa.array(np.r_[np.ones(len(key), np.int64),
                                   np.zeros(len(pk), np.int64)]),
            "probe": pa.array(np.r_[np.zeros(len(key), np.int64),
                                    np.ones(len(pk), np.int64)])})

    marked = (occ.map_batches(probes, batch_format="pyarrow")
              .groupby("key").sum(["real", "probe"]))

    def fold(t: pa.Table) -> pa.Table:
        r = t["sum(real)"].to_numpy(zero_copy_only=False)
        p = t["sum(probe)"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_cells": pa.array([int((r > 0).sum())], pa.int64()),
            "n_adj": pa.array([int(((r > 0) * p).sum())],
                              pa.int64())})

    parts = marked.map_batches(fold, batch_format="pyarrow") \
        .take_all()
    N = sum(r["n_cells"] for r in parts)
    E = sum(r["n_adj"] for r in parts)
    return pd.DataFrame({
        "n_cells": np.array([N], np.int64),
        "n_adj_pairs": np.array([E], np.int64),
        "perimeter": np.array([4 * N - 2 * E], np.int64)})



QUERIES["coverage_perimeter_cells"] = q_coverage_perimeter_cells



def _perimeter_sql(img_dir: str) -> str:
    qx = _sql_quant("lon", "180.0", "360.0", 12)
    qy = _sql_quant("lat", "90.0", "180.0", 12)
    return f"""
        WITH q AS (SELECT DISTINCT {qx} AS ix, {qy} AS iy
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_cells FROM q),
        e AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_adj FROM q a
              JOIN q b ON (b.ix = a.ix + 1 AND b.iy = a.iy)
                       OR (b.ix = a.ix AND b.iy = a.iy + 1))
        SELECT nn.n_cells, e.n_adj AS n_adj_pairs,
               CAST(4 * nn.n_cells - 2 * e.n_adj AS BIGINT)
                   AS perimeter
        FROM nn, e
    """



# ---------------------------------------------------------------------------
# source_chargram_l1: hashed char-4-gram histogram distance per source pair
# ---------------------------------------------------------------------------

def q_source_chargram_l1(sf_dir: str):
    """Stylometric distance between sources: exact L1 distance
    between 256-bin hashed char-4-gram histograms for every source
    pair — the cheap authorship/contamination triage that needs no
    vocabulary (works on raw bytes). Each source's profile is a
    BOUNDED 256-int state regardless of corpus size, so partials are
    (source, bin) counts and the pairwise step is dimension-scale on
    the driver. Gram positions never cross doc boundaries (index
    algebra over the concatenated byte buffer, last-3 positions of
    every doc masked). Hash is the polynomial base-131 value mod 256
    — replayed verbatim in SQL over ascii() codes. The engine runs
    on UTF-8 BYTES (never raises on stray unicode); for the pure-
    ASCII sf corpora the oracle replays, bytes == characters so the
    two agree exactly."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        texts = [s.encode("utf-8") for s in t["text"].to_pylist()]
        srcs = np.asarray(t["source"].to_pylist())
        buf = np.frombuffer(b"".join(texts),
                            dtype=np.uint8).astype(np.int64)
        lens = np.array([len(s) for s in texts], np.int64)
        if buf.size < 4:
            return pa.table({"source": pa.array([], pa.string()),
                             "bin": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = (buf[:-3] * 2248091 + buf[1:-2] * 17161
             + buf[2:-1] * 131 + buf[3:]) % 256
        # positions whose 4-gram stays inside one doc
        ends = np.cumsum(lens)
        doc_of = np.repeat(np.arange(len(lens)), lens)[:len(v)]
        ok = (np.arange(len(v)) + 3) < ends[doc_of]
        usrc, scode = np.unique(srcs, return_inverse=True)
        packed = scode[doc_of[ok]] * 256 + v[ok]
        cnt = np.bincount(packed, minlength=len(usrc) * 256) \
            .astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "source": pa.array(usrc[nz // 256]),
            "bin": pa.array((nz % 256).astype(np.int64)),
            "n": pa.array(cnt[nz])})

    ledger = (docs.map_batches(partial, batch_format="pyarrow")
              .groupby(["source", "bin"]).sum("n")).take_all()
    hist: dict[str, np.ndarray] = {}
    for r in ledger:
        hist.setdefault(r["source"], np.zeros(256, np.int64))[
            int(r["bin"])] = int(r["sum(n)"])
    srcs = sorted(hist)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            rows.append((a, b,
                         int(np.abs(hist[a] - hist[b]).sum())))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "l1_dist"])



QUERIES["source_chargram_l1"] = q_source_chargram_l1

ORACLE_SQL["source_chargram_l1"] = """
        WITH pos AS (SELECT source, text,
                            unnest(generate_series(
                                1, greatest(length(text) - 3, 0)))
                                AS i
                     FROM documents),
        g AS (SELECT source,
                     (ascii(substr(text, i, 1)) * 2248091
                      + ascii(substr(text, i + 1, 1)) * 17161
                      + ascii(substr(text, i + 2, 1)) * 131
                      + ascii(substr(text, i + 3, 1))) % 256 AS bin
              FROM pos),
        h AS (SELECT source, bin, CAST(COUNT(*) AS BIGINT) AS n
              FROM g GROUP BY 1, 2),
        s AS (SELECT DISTINCT source FROM documents),
        p AS (SELECT a.source AS sa, b.source AS sb
              FROM s a JOIN s b ON a.source < b.source),
        bins AS (SELECT unnest(generate_series(0, 255)) AS bin)
        SELECT p.sa AS src_a, p.sb AS src_b,
               CAST(SUM(ABS(COALESCE(ha.n, 0) - COALESCE(hb.n, 0)))
                   AS BIGINT) AS l1_dist
        FROM p CROSS JOIN bins
        LEFT JOIN h ha ON ha.source = p.sa AND ha.bin = bins.bin
        LEFT JOIN h hb ON hb.source = p.sb AND hb.bin = bins.bin
        GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# ship_lag_buckets_priority: order→ship latency buckets per priority
# ---------------------------------------------------------------------------

def q_ship_lag_buckets_priority(sf_dir: str):
    """Fulfilment-latency profile: every lineitem's order→ship lag
    bucketed {≤30d, 31–60d, 61–90d, >90d} per order priority — the
    SLA breakdown. Orders is FACT scale, so priority+orderdate reach
    the lineitems through the hash-bucketed fact×fact join (one
    shuffle per side, never a broadcast); the bucket test runs on
    the raw microsecond difference (four int64 compares — no
    division, so negative lags need no floor-semantics care).
    Direct join SQL replay."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = bucketed_join(li, orders, "l_orderkey", "o_orderkey",
                           n_buckets=16)
    DAY = 86_400_000_000

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        ordd = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        d = ship - ordd
        bucket = ((d >= 31 * DAY).astype(np.int64)
                  + (d >= 61 * DAY) + (d >= 91 * DAY))
        g = pa.table({"o_orderpriority": t["o_orderpriority"],
                      "bucket": pa.array(bucket),
                      "n": pa.array(np.ones(len(d), np.int64))}) \
            .group_by(["o_orderpriority", "bucket"]) \
            .aggregate([("n", "sum")])
        return g.rename_columns(["o_orderpriority", "bucket", "n"])

    out = (joined.map_batches(partial, batch_format="pyarrow")
           .groupby(["o_orderpriority", "bucket"]).sum("n"))
    return _rename(out, ["o_orderpriority", "bucket", "n"])



QUERIES["ship_lag_buckets_priority"] = q_ship_lag_buckets_priority

ORACLE_SQL["ship_lag_buckets_priority"] = """
        WITH j AS (SELECT o.o_orderpriority,
                          epoch_us(l.l_shipdate)
                          - epoch_us(o.o_orderdate) AS d
                   FROM lineitem l
                   JOIN orders o ON o.o_orderkey = l.l_orderkey)
        SELECT o_orderpriority,
               CAST(CASE WHEN d >= 91 * 86400000000 THEN 3
                         WHEN d >= 61 * 86400000000 THEN 2
                         WHEN d >= 31 * 86400000000 THEN 1
                         ELSE 0 END AS BIGINT) AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM j GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# moravec_corners_images: integer Moravec corner census per image
# ---------------------------------------------------------------------------

_MORAVEC_T = 100_000



def q_moravec_corners_images(sf_dir: str):
    """Moravec corner census per image (first 256): the classic
    min-of-directional-SSD interest operator, all-integer — for each
    of 4 shift directions the squared gray difference, box-3-summed
    (two cumsums), response = MIN over directions (an edge is
    self-similar along itself; a corner isn't in any direction);
    report the max response and how many pixels exceed 100 000 — the
    keypoint-density triage an image-matcher keys on before
    committing to descriptors. Whole-batch tensor ops; the valid
    region is the exact intersection of all four window supports.
    Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(256)
    DIRS = ((0, 1), (1, 0), (1, 1), (1, -1))

    class CornerStage:
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
                g = px.astype(np.int64).sum(axis=3) // 3
                resp = None
                for dy, dx in DIRS:
                    ys = slice(max(0, -dy), hi - max(0, dy))
                    xs = slice(max(0, -dx), wi - max(0, dx))
                    ys2 = slice(max(0, dy), hi - max(0, -dy))
                    xs2 = slice(max(0, dx), wi - max(0, -dx))
                    d = g[:, ys, xs] - g[:, ys2, xs2]
                    d = d * d
                    k, dh, dw = d.shape
                    I = np.zeros((k, dh + 1, dw + 1), np.int64)
                    I[:, 1:, 1:] = d.cumsum(axis=1).cumsum(axis=2)
                    box = (I[:, 3:, 3:] + I[:, :-3, :-3]
                           - I[:, 3:, :-3] - I[:, :-3, 3:])
                    # box[y, x] = 3x3 sum of d with top-left (y, x),
                    # i.e. centred at g-pixel (y+1+max(0,-dy),
                    # x+1+max(0,-dx)); align every direction on the
                    # common g-centre range (2..h-3, 2..w-3):
                    y0 = 1 - max(0, -dy)
                    x0 = 1 - max(0, -dx)
                    bh = hi - 4
                    bw = wi - 4
                    sub = box[:, y0:y0 + bh, x0:x0 + bw]
                    resp = sub if resp is None \
                        else np.minimum(resp, sub)
                out_id.append(ids[slots])
                out_m.append(resp.max(axis=(1, 2)).astype(np.int64))
                out_c.append((resp > _MORAVEC_T)
                             .sum(axis=(1, 2)).astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "max_resp": pa.array(np.concatenate(out_m)),
                "n_corners": pa.array(np.concatenate(out_c))})

    return ds.map_batches(CornerStage, batch_format="pyarrow",
                          batch_size=128, concurrency=2)



QUERIES["moravec_corners_images"] = q_moravec_corners_images



def _moravec_sidecar(img: str, n: int = 256) -> str:
    """Scalar replay for moravec_corners_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_moravec_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(wi)] for y in range(hi)]
                mx = -1
                cnt = 0
                for y in range(2, hi - 2):
                    for x in range(2, wi - 2):
                        best = None
                        for dy, dx in ((0, 1), (1, 0), (1, 1),
                                       (1, -1)):
                            e = 0
                            for u in (-1, 0, 1):
                                for v_ in (-1, 0, 1):
                                    a = g[y + u][x + v_]
                                    b = g[y + u + dy][x + v_ + dx]
                                    e += (a - b) * (a - b)
                            if best is None or e < best:
                                best = e
                        if best > mx:
                            mx = best
                        if best > _MORAVEC_T:
                            cnt += 1
                rows.append({"image_id": str(iid[slot]),
                             "max_resp": mx, "n_corners": cnt})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _moravec_sql(img: str) -> str:
    return (f"SELECT image_id, max_resp, n_corners "
            f"FROM read_parquet('{_moravec_sidecar(img)}')")



# ---------------------------------------------------------------------------
# token_reuse_distance_docs: within-doc token reuse-distance histogram
# ---------------------------------------------------------------------------

def q_token_reuse_distance_docs(sf_dir: str):
    """Token reuse-distance histogram (the LRU/compression-window
    locality signal): for every repeated within-doc token occurrence
    the distance to its PREVIOUS occurrence (in nonempty-token
    positions), folded into bit-length buckets; first occurrences
    land in bucket 0 — short distances = templated text an LZ window
    eats, long = genuine reuse. Vectorized per batch (docs are
    row-atomic): one lexsort over (doc, token, pos), diffs inside
    equal runs, exact frexp exponents as bucket keys. Only the ≤64
    histogram rows shuffle. LAG-window + length(bin()) replay."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        split = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(split).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(split).to_numpy(
            zero_copy_only=False)
        doc = np.repeat(np.arange(len(lens)), lens)
        keep = flat != ""
        flat, doc = flat[keep], doc[keep]
        # positions among nonempty tokens within each doc
        pos = np.arange(len(flat), dtype=np.int64)
        doc_start = np.r_[0, np.cumsum(np.bincount(
            doc, minlength=len(lens)))][:-1]
        pos = pos - doc_start[doc] + 1
        o = np.lexsort((pos, flat, doc))
        d_s, f_s, p_s = doc[o], flat[o], pos[o]
        same = (d_s[1:] == d_s[:-1]) & (f_s[1:] == f_s[:-1])
        dist = (p_s[1:] - p_s[:-1])[same]
        bucket = np.frexp(dist.astype(np.float64))[1].astype(np.int64)
        n_first = len(f_s) - int(same.sum())
        ub, cb = np.unique(bucket, return_counts=True)
        return pa.table({
            "bucket": pa.array(np.r_[np.int64(0), ub]),
            "n": pa.array(np.r_[np.int64(n_first),
                                cb.astype(np.int64)])})

    out = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("bucket").sum("n"))
    return _rename(out, ["bucket", "n"])



QUERIES["token_reuse_distance_docs"] = q_token_reuse_distance_docs

ORACLE_SQL["token_reuse_distance_docs"] = """
        WITH raw AS (SELECT doc_id,
                            unnest(string_split(text, ' ')) AS t,
                            generate_subscripts(
                                string_split(text, ' '), 1) AS i
                     FROM documents),
        w AS (SELECT doc_id, t,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY i) AS rn
              FROM raw WHERE t <> ''),
        l AS (SELECT doc_id, t, rn,
                     LAG(rn) OVER (PARTITION BY doc_id, t
                                   ORDER BY rn) AS prn
              FROM w)
        SELECT CAST(CASE WHEN prn IS NULL THEN 0
                         ELSE length(bin(rn - prn)) END AS BIGINT)
                   AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM l GROUP BY 1
    """



# ---------------------------------------------------------------------------
# majority_label_prop_dups: 2-round majority label propagation
# ---------------------------------------------------------------------------

def q_majority_label_prop_dups(sf_dir: str):
    """Semi-supervised label smoothing on the near-dup graph: two
    SYNCHRONOUS rounds of neighbourhood majority vote (self + all
    neighbours, smallest label wins ties) from the embeddings'
    class labels — the label-denoising step before training on
    weak labels (a node surrounded by near-dups of another class is
    probably mislabeled). Engine: CSR + one offset-packed bincount
    per round over the dedup-scale edge list; node labels arrive
    via a broadcast-filtered semi-join, never a full label scan to
    the driver. Oracle: independent pure-python Counter vote over
    the SQL cosine-join pairs — two algorithms, one labelling."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({"node": pd.Series(dtype=np.int64),
                          "label0": pd.Series(dtype=np.int64),
                          "label2": pd.Series(dtype=np.int64)})
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
    vi = np.searchsorted(nodes, v)
    nref = ray.put(nodes)

    def lab_part(t: pa.Table) -> pa.Table:
        nds = _broadcast(nref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        keep = np.isin(ids, nds)
        return pa.table({
            "vec_id": pa.array(ids[keep]),
            "label": pa.array(t["label"].to_numpy(
                zero_copy_only=False)[keep].astype(np.int64))})

    lab_rows = _read(sf_dir, "embeddings", ["vec_id", "label"]) \
        .map_batches(lab_part, batch_format="pyarrow").take_all()
    lmap = {int(r["vec_id"]): int(r["label"]) for r in lab_rows}
    lab0 = np.array([lmap[int(x)] for x in nodes], np.int64)
    L = int(lab0.max()) + 1
    lab = lab0.copy()
    n = len(nodes)
    deg = (ends - starts).astype(np.int64)
    for _ in range(2):
        # votes[i, c] = count of label c among self + neighbours
        src = np.repeat(np.arange(n), deg)
        votes = np.zeros(n * L, np.int64)
        np.add.at(votes, src * L + lab[vi], 1)
        np.add.at(votes, np.arange(n) * L + lab, 1)
        lab = votes.reshape(n, L).argmax(axis=1).astype(np.int64)
        # argmax ties -> smallest label (numpy first-max) == rule
    return pd.DataFrame({"node": nodes, "label0": lab0,
                         "label2": lab})



QUERIES["majority_label_prop_dups"] = q_majority_label_prop_dups



def _labelprop_sidecar(sf_dir: str) -> str:
    """Pure-python majority-vote replay over the SQL pairs."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "lprop-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_labelprop_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        adj: dict[int, list[int]] = {}
        for x, y in prs:
            adj.setdefault(int(x), []).append(int(y))
            adj.setdefault(int(y), []).append(int(x))
        labs = dict(con.execute(
            "SELECT vec_id, label FROM embeddings").fetchall())
        cur = {nd: int(labs[nd]) for nd in adj}
        lab0 = dict(cur)
        for _ in range(2):
            nxt = {}
            for nd, nbs in adj.items():
                cnt: dict[int, int] = {}
                for w in nbs:
                    cnt[cur[w]] = cnt.get(cur[w], 0) + 1
                cnt[cur[nd]] = cnt.get(cur[nd], 0) + 1
                best = sorted(cnt.items(),
                              key=lambda kv: (-kv[1], kv[0]))[0][0]
                nxt[nd] = best
            cur = nxt
        out = pa.table({
            "node": pa.array(sorted(adj), pa.int64()),
            "label0": pa.array([lab0[nd] for nd in sorted(adj)],
                               pa.int64()),
            "label2": pa.array([cur[nd] for nd in sorted(adj)],
                               pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _labelprop_sql(sf_dir: str) -> str:
    return (f"SELECT node, label0, label2 "
            f"FROM read_parquet('{_labelprop_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# stratified_cell_sample: per-cell quota sample with mergeable bottom-k
# ---------------------------------------------------------------------------

def q_stratified_cell_sample(sf_dir: str):
    """Spatially stratified sampling plan: at most 8 tiles per res-10
    cell, chosen as the bottom-8 by the deterministic (phash,
    image_id) key — the de-bias step before training on a corpus
    whose acquisition is spatially skewed (dense cities would
    otherwise drown sparse regions). Per-cell bottom-k is MERGEABLE:
    each batch ships ≤8 candidate rows per cell (plus the batch's
    cell count riding on the first candidate), so the shuffle is
    quota-bounded, never corpus-bounded. Reports per cell the tile
    count, sample size and the bit_xor checksum of sampled phashes
    (order-free, overflow-free). ROW_NUMBER + bit_xor SQL replay."""
    from geotile.geom import cells
    from geotile.ops.tiles import read_image_table

    K = 8
    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat", "phash", "image_id"])

    def cand(t: pa.Table) -> pa.Table:
        lon = t["lon"].to_numpy(zero_copy_only=False)
        lat = t["lat"].to_numpy(zero_copy_only=False)
        cell = cells.encode(lon, lat, 10).view(np.int64)
        ph = t["phash"].to_numpy(zero_copy_only=False)
        ids = np.asarray(t["image_id"].to_pylist())
        o = np.lexsort((ids, ph, cell))
        cell, ph, ids = cell[o], ph[o], ids[o]
        brk = np.r_[True, cell[1:] != cell[:-1]]
        isl = np.cumsum(brk) - 1
        pos = np.arange(len(cell)) - np.flatnonzero(brk)[isl]
        keep = pos < K
        cnt = np.where(pos == 0,
                       np.bincount(isl)[isl], 0).astype(np.int64)
        return pa.table({"cell": pa.array(cell[keep]),
                         "phash": pa.array(ph[keep]),
                         "image_id": pa.array(ids[keep]),
                         "cnt": pa.array(cnt[keep])})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["phash", "image_id"], kind="stable")
        n_tiles = int(df["cnt"].sum())
        sel = df.head(K)
        x = np.bitwise_xor.reduce(
            sel["phash"].to_numpy(np.int64)) if len(sel) else 0
        return pd.DataFrame({
            "cell": df["cell"].iloc[:1].to_numpy(np.int64),
            "n_tiles": np.array([n_tiles], np.int64),
            "n_sampled": np.array([len(sel)], np.int64),
            "sample_xor": np.array([x], np.int64)})

    return (ds.map_batches(cand, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["stratified_cell_sample"] = q_stratified_cell_sample



def _strat_sample_sql(img_dir: str) -> str:
    cell = _sql_cell("lon", "lat", 10)
    return f"""
        WITH t AS (SELECT {cell} AS cell, phash, image_id
                   FROM read_parquet('{img_dir}/part-*.parquet')),
        r AS (SELECT cell, phash,
                     ROW_NUMBER() OVER (PARTITION BY cell
                                        ORDER BY phash, image_id)
                         AS rn
              FROM t),
        c AS (SELECT cell, CAST(COUNT(*) AS BIGINT) AS n_tiles
              FROM t GROUP BY 1),
        s AS (SELECT cell, CAST(COUNT(*) AS BIGINT) AS n_sampled,
                     CAST(bit_xor(phash) AS BIGINT) AS sample_xor
              FROM r WHERE rn <= 8 GROUP BY 1)
        SELECT c.cell, c.n_tiles, s.n_sampled, s.sample_xor
        FROM c JOIN s USING (cell)
    """



# ---------------------------------------------------------------------------
# packing_plan_sources: next-fit context-window packing audit
# ---------------------------------------------------------------------------

_PACK_C = 512



def q_packing_plan_sources(sf_dir: str):
    """Context-window packing plan per source: pack each source's
    docs (doc_id order, whitespace token counts) into 512-token bins
    with NEXT-FIT — bins, packed tokens and waste per source, docs
    over 512 tokens set aside as oversize — the sequence-packing
    efficiency audit every LLM pretraining batcher runs before
    committing a layout. Token counting is vectorized per batch;
    the fold is the HONEST sequential next-fit, run once per source
    co-partition (pack-per-source IS the parallel unit — bins never
    span sources), so parallelism is source cardinality, not one
    driver scan. Independent python replay sidecar."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def prep(t: pa.Table) -> pa.Table:
        split = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(split).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(split).to_numpy(
            zero_copy_only=False)
        doc = np.repeat(np.arange(len(lens)), lens)
        ntok = np.bincount(doc[flat != ""], minlength=len(lens)) \
            .astype(np.int64)
        return pa.table({"doc_id": t["doc_id"],
                         "source": t["source"],
                         "ntok": pa.array(ntok)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        src = df["source"].iloc[0]
        lens = df["ntok"].to_numpy(np.int64)
        over = lens > _PACK_C
        packable = lens[~over]
        n_bins = 0
        fill = _PACK_C + 1  # force a new bin on the first doc
        for ln in packable.tolist():
            if fill + ln <= _PACK_C:
                fill += ln
            else:
                n_bins += 1
                fill = ln
        packed = int(packable.sum())
        return pd.DataFrame({
            "source": [src],
            "n_docs": np.array([len(df)], np.int64),
            "n_oversize": np.array([int(over.sum())], np.int64),
            "n_bins": np.array([n_bins], np.int64),
            "packed_tokens": np.array([packed], np.int64),
            "waste": np.array([n_bins * _PACK_C - packed],
                              np.int64)})

    return (docs.map_batches(prep, batch_format="pyarrow")
            .groupby("source").map_groups(fold,
                                          batch_format="pandas"))



QUERIES["packing_plan_sources"] = q_packing_plan_sources



def _packing_sidecar(sf_dir: str) -> str:
    def build() -> pa.Table:
        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf_dir}/documents.parquet')")
        rows = con.execute(
            "SELECT source, doc_id, text FROM documents "
            "ORDER BY source, doc_id").fetchall()
        out = []
        cur = None
        state = None
        for src, _, text in rows + [(None, None, None)]:
            if src != cur:
                if cur is not None:
                    nb, packed, ndocs, nover = state
                    out.append({
                        "source": cur, "n_docs": ndocs,
                        "n_oversize": nover, "n_bins": nb,
                        "packed_tokens": packed,
                        "waste": nb * _PACK_C - packed})
                cur = src
                state = [0, 0, 0, 0]
                fill = _PACK_C + 1
            if src is None:
                break
            ln = sum(1 for w in text.split(" ") if w)
            state[2] += 1
            if ln > _PACK_C:
                state[3] += 1
                continue
            if fill + ln <= _PACK_C:
                fill += ln
            else:
                state[0] += 1
                fill = ln
            state[1] += ln
        return pa.Table.from_pylist(out)

    return _ref_sidecar(sf_dir, "packing", build)



def _packing_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_oversize, n_bins, "
            f"packed_tokens, waste "
            f"FROM read_parquet('{_packing_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# audio_clipping_audit: near-full-scale sample census per track
# ---------------------------------------------------------------------------

_CLIP_T = 31_000



def q_audio_clipping_audit(sf_dir: str):
    """Clipping audit per track: samples at |s| ≥ 31000 (near full
    scale), the number of maximal clipped runs, and the LONGEST run
    — sustained runs mean true clipping (flat-topped waves),
    isolated hits are just hot peaks; the gain-staging triage before
    any audio features are trusted. One threshold + run fold per
    stacked tensor. Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class ClipStage:
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
            out_id, out_n, out_r, out_l = [], [], [], []
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                m = np.abs(pcm) >= _CLIP_T
                n_clip = m.sum(axis=1).astype(np.int64)
                starts = m & ~np.c_[np.zeros(len(slots), bool),
                                    m[:, :-1]]
                n_runs = starts.sum(axis=1).astype(np.int64)
                longest = np.zeros(len(slots), np.int64)
                for r_ in range(len(slots)):
                    if n_clip[r_]:
                        idxs = np.flatnonzero(
                            np.diff(np.r_[0, m[r_].astype(np.int8),
                                          0]))
                        longest[r_] = int(
                            (idxs[1::2] - idxs[0::2]).max())
                out_id.append(ids[slots])
                out_n.append(n_clip)
                out_r.append(n_runs)
                out_l.append(longest)
            return pa.table({
                "track_id": pa.array(np.concatenate(out_id)),
                "n_clipped": pa.array(np.concatenate(out_n)),
                "n_runs": pa.array(np.concatenate(out_r)),
                "longest_run": pa.array(np.concatenate(out_l))})

    return ds.map_batches(ClipStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_clipping_audit"] = q_audio_clipping_audit



def _audio_clip_sidecar(aud: str) -> str:
    """Python-int replay for audio_clipping_audit."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audioclip_{Path(aud).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            n = runs = longest = cur = 0
            prev = False
            for v in pcm[j].tolist():
                c = abs(int(v)) >= _CLIP_T
                if c:
                    n += 1
                    cur = cur + 1 if prev else 1
                    if not prev:
                        runs += 1
                    if cur > longest:
                        longest = cur
                prev = c
            rows.append({"track_id": tid, "n_clipped": n,
                         "n_runs": runs, "longest_run": longest})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_clip_sql(aud: str) -> str:
    return (f"SELECT track_id, n_clipped, n_runs, longest_run "
            f"FROM read_parquet('{_audio_clip_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# soundex_classes_docs: phonetic collision classes over the vocabulary
# ---------------------------------------------------------------------------

def q_soundex_classes_docs(sf_dir: str):
    """Phonetic blocking classes (simplified Soundex, h/w as vowels —
    the stated spec for BOTH engines) over the corpus vocabulary:
    top-20 codes by distinct-token collisions — the third fuzzy
    blocking family next to deletion-neighborhood (FastSS) and
    anagram signatures; phonetic collisions catch the misspellings
    edit-distance blocking prices at d>2. One corpus-scale token
    groupby, then everything runs at VOCABULARY scale: the encoder
    is fully vectorized index algebra over the concatenated byte
    buffer (LUT gather, adjacent-collapse keep mask, segmented
    rank-select of the first 3 nonzero codes — no per-token python).
    Scalar oracle_ref.soundex_ref replay sidecar."""
    docs = _read(sf_dir, "documents", ["text"])

    def tok_part(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(t["text"], " "))
        toks = flat.to_numpy(zero_copy_only=False)
        toks = toks[toks != ""]
        ut, ct = np.unique(toks, return_counts=True)
        return pa.table({"token": pa.array(ut),
                         "n": pa.array(ct.astype(np.int64))})

    vocab = (docs.map_batches(tok_part, batch_format="pyarrow")
             .groupby("token").sum("n"))

    lut = np.zeros(256, np.int64)
    for ch in "bfpv":
        lut[ord(ch)] = 1
    for ch in "cgjkqsxz":
        lut[ord(ch)] = 2
    for ch in "dt":
        lut[ord(ch)] = 3
    lut[ord("l")] = 4
    for ch in "mn":
        lut[ord(ch)] = 5
    lut[ord("r")] = 6

    def sdx_part(t: pa.Table) -> pa.Table:
        toks = [s.encode("utf-8") for s in t["token"].to_pylist()]
        n = len(toks)
        if n == 0:
            return pa.table({"soundex": pa.array([], pa.string()),
                             "n_tokens": pa.array([], pa.int64()),
                             "n_occ": pa.array([], pa.int64())})
        buf = np.frombuffer(b"".join(toks), dtype=np.uint8)
        lens = np.array([len(s) for s in toks], np.int64)
        starts = np.r_[0, np.cumsum(lens)][:-1]
        tok_of = np.repeat(np.arange(n), lens)
        codes = lut[buf]
        prev = np.r_[np.int64(-1), codes[:-1]]
        is_start = np.zeros(len(buf), bool)
        is_start[starts] = True
        kept = is_start | (codes != prev)
        cand = kept & ~is_start & (codes != 0)
        cs = np.cumsum(cand.astype(np.int64))
        base = np.r_[np.int64(0), cs][starts]
        rank = cs - base[tok_of]
        sel = cand & (rank <= 3)
        chars = np.full((n, 4), ord("0"), np.uint8)
        head = buf[starts]
        lower = (head >= ord("a")) & (head <= ord("z"))
        upper = (head >= ord("A")) & (head <= ord("Z"))
        up = np.where(lower, head - 32,
                      np.where(upper, head, ord("?"))).astype(np.uint8)
        chars[:, 0] = up
        chars[tok_of[sel], rank[sel]] = (ord("0")
                                         + codes[sel]).astype(np.uint8)
        sdx = chars.view("S4").ravel().astype(str)
        g = pa.table({"soundex": pa.array(sdx),
                      "n_tokens": pa.array(np.ones(n, np.int64)),
                      "n_occ": t["sum(n)"]}) \
            .group_by("soundex").aggregate([("n_tokens", "sum"),
                                            ("n_occ", "sum")])
        return g.rename_columns(["soundex", "n_tokens", "n_occ"])

    classes = (vocab.map_batches(sdx_part, batch_format="pyarrow")
               .groupby("soundex").sum(["n_tokens", "n_occ"])) \
        .take_all()   # soundex-class cardinality <= vocabulary
    rows = sorted(((r["soundex"], int(r["sum(n_tokens)"]),
                    int(r["sum(n_occ)"])) for r in classes),
                  key=lambda x: (-x[1], -x[2], x[0]))[:20]
    return pd.DataFrame(rows, columns=["soundex", "n_tokens",
                                       "n_occ"])



QUERIES["soundex_classes_docs"] = q_soundex_classes_docs



def _soundex_sidecar(sf_dir: str) -> str:
    from battery.oracle_ref import soundex_ref

    def build() -> pa.Table:
        import duckdb

        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf_dir}/documents.parquet')")
        rows = con.execute("""
            SELECT t, COUNT(*) FROM (
                SELECT unnest(string_split(text, ' ')) AS t
                FROM documents) WHERE t <> '' GROUP BY 1
        """).fetchall()
        agg: dict[str, list[int]] = {}
        for tok, cnt in rows:
            sd = soundex_ref(tok)
            e = agg.setdefault(sd, [0, 0])
            e[0] += 1
            e[1] += int(cnt)
        top = sorted(((k, v[0], v[1]) for k, v in agg.items()),
                     key=lambda x: (-x[1], -x[2], x[0]))[:20]
        return pa.table({
            "soundex": pa.array([r[0] for r in top]),
            "n_tokens": pa.array([r[1] for r in top], pa.int64()),
            "n_occ": pa.array([r[2] for r in top], pa.int64())})

    return _ref_sidecar(sf_dir, "soundex", build)



def _soundex_sql(sf_dir: str) -> str:
    return (f"SELECT soundex, n_tokens, n_occ "
            f"FROM read_parquet('{_soundex_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# blockiness_images: 8-aligned boundary discontinuity audit
# ---------------------------------------------------------------------------

def q_blockiness_images(sf_dir: str):
    """JPEG blockiness forensics per image (first 1024): gray
    gradient mass across 8-ALIGNED column/row seams vs all other
    column/row transitions — a previously block-coded (or re-saved)
    image shows seam mass out of proportion to interior mass even
    after decode, the provenance/double-compression triage. Four
    masked |diff| sums over the batch tensor, exact ints. Scalar
    replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

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
            out = {k: [] for k in ("id", "cb", "ci", "rb", "ri")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                g = px.astype(np.int64).sum(axis=3) // 3
                dc = np.abs(g[:, :, 1:] - g[:, :, :-1])
                dr = np.abs(g[:, 1:, :] - g[:, :-1, :])
                xb = (np.arange(1, wi) % 8) == 0
                yb = (np.arange(1, hi) % 8) == 0
                out["id"].append(ids[slots])
                out["cb"].append(dc[:, :, xb].sum(axis=(1, 2)))
                out["ci"].append(dc[:, :, ~xb].sum(axis=(1, 2)))
                out["rb"].append(dr[:, yb, :].sum(axis=(1, 2)))
                out["ri"].append(dr[:, ~yb, :].sum(axis=(1, 2)))
            return pa.table({
                "image_id": pa.array(np.concatenate(out["id"])),
                "col_seam_mass": pa.array(
                    np.concatenate(out["cb"]).astype(np.int64)),
                "col_interior_mass": pa.array(
                    np.concatenate(out["ci"]).astype(np.int64)),
                "row_seam_mass": pa.array(
                    np.concatenate(out["rb"]).astype(np.int64)),
                "row_interior_mass": pa.array(
                    np.concatenate(out["ri"]).astype(np.int64))})

    return ds.map_batches(SeamStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["blockiness_images"] = q_blockiness_images



def _blockiness_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for blockiness_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_blockiness_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                g = [[(int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                       + int(px[j, y, x, 2])) // 3
                      for x in range(wi)] for y in range(hi)]
                cb = ci = rb = ri = 0
                for y in range(hi):
                    for x in range(1, wi):
                        d = abs(g[y][x] - g[y][x - 1])
                        if x % 8 == 0:
                            cb += d
                        else:
                            ci += d
                for y in range(1, hi):
                    for x in range(wi):
                        d = abs(g[y][x] - g[y - 1][x])
                        if y % 8 == 0:
                            rb += d
                        else:
                            ri += d
                rows.append({"image_id": str(iid[slot]),
                             "col_seam_mass": cb,
                             "col_interior_mass": ci,
                             "row_seam_mass": rb,
                             "row_interior_mass": ri})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _blockiness_sql(img: str) -> str:
    return (f"SELECT image_id, col_seam_mass, col_interior_mass, "
            f"row_seam_mass, row_interior_mass "
            f"FROM read_parquet('{_blockiness_sidecar(img)}')")



# ---------------------------------------------------------------------------
# order_backlog_curve: sweepline backlog with per-order completion
# ---------------------------------------------------------------------------

def q_order_backlog_curve(sf_dir: str):
    """Order backlog sweepline: the 10 worst days by open-order
    count, where an order is OPEN from its orderdate until the max
    shipdate of its lineitems (orders with no lineitems never close)
    — the WIP curve an operations dashboard draws. Two independent
    delta ledgers (+1 at placement day, −1 at completion day + 1,
    completion from one orderkey-grain max partial — the fact scan
    never joins), merged at DAY cardinality where the cumsum runs;
    only the tiny day ledger ever reaches the driver. Window-cumsum
    SQL replay."""
    DAY = 86_400_000_000
    orders = _read(sf_dir, "orders", ["o_orderdate"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def plus_part(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // DAY
        ud, cd = np.unique(d, return_counts=True)
        return pa.table({"day": pa.array(ud),
                         "dn": pa.array(cd.astype(np.int64))})

    def comp_part(t: pa.Table) -> pa.Table:
        g = pa.table({"l_orderkey": t["l_orderkey"],
                      "s": t["l_shipdate"].cast(pa.int64())}) \
            .group_by("l_orderkey").aggregate([("s", "max")])
        return g.rename_columns(["l_orderkey", "s"])

    comp = (li.map_batches(comp_part, batch_format="pyarrow")
            .groupby("l_orderkey").max("s"))

    def minus_part(t: pa.Table) -> pa.Table:
        d = t["max(s)"].to_numpy(zero_copy_only=False) // DAY + 1
        ud, cd = np.unique(d, return_counts=True)
        return pa.table({"day": pa.array(ud),
                         "dn": pa.array(-cd.astype(np.int64))})

    deltas = (orders.map_batches(plus_part, batch_format="pyarrow")
              .union(comp.map_batches(minus_part,
                                      batch_format="pyarrow"))
              .groupby("day").sum("dn")).take_all()
    days = np.array([r["day"] for r in deltas], np.int64)
    dns = np.array([r["sum(dn)"] for r in deltas], np.int64)
    o = np.argsort(days)
    days, dns = days[o], dns[o]
    backlog = np.cumsum(dns)
    top = np.lexsort((days, -backlog))[:10]
    return pd.DataFrame({"day": days[top],
                         "backlog": backlog[top]})



QUERIES["order_backlog_curve"] = q_order_backlog_curve

ORACLE_SQL["order_backlog_curve"] = """
        WITH comp AS (SELECT l_orderkey, MAX(l_shipdate) AS cd
                      FROM lineitem GROUP BY 1),
        deltas AS (
            SELECT CAST(epoch_us(o_orderdate) // 86400000000
                       AS BIGINT) AS day,
                   CAST(COUNT(*) AS BIGINT) AS dn
            FROM orders GROUP BY 1
            UNION ALL
            SELECT CAST(epoch_us(cd) // 86400000000 + 1 AS BIGINT),
                   CAST(-COUNT(*) AS BIGINT)
            FROM comp GROUP BY 1),
        d2 AS (SELECT day, SUM(dn) AS dn FROM deltas GROUP BY 1),
        c AS (SELECT day, SUM(dn) OVER (ORDER BY day
                  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                  AS backlog
              FROM d2)
        SELECT day, CAST(backlog AS BIGINT) AS backlog
        FROM c ORDER BY backlog DESC, day ASC LIMIT 10
    """



# ---------------------------------------------------------------------------
# stop_transfer_pairs: near-stop transfer-candidate join (GTFS)
# ---------------------------------------------------------------------------

_XFER_R2 = 0.0009   # (0.03 deg)^2

_XFER_G = 0.03      # grid pitch >= radius -> 3x3 completeness



def q_stop_transfer_pairs(sf_dir: str):
    """Transfer-candidate detection: every pair of SERVED stops
    within 0.03° (squared-degree d2 < 9e-4), with each side's route
    count and the shared-route count — the walk-transfer table a
    trip planner precomputes (n_shared = 0 flags a pure transfer;
    the reference's stop features carry exactly these route lists,
    geojson-utils.ts:109). The scale path: stops scatter to a 0.03°
    grid, each pair forms ONCE in the lower stop's home cell (owner
    × 3×3-candidate with id order — the closest_pair_tiles
    discipline; d ≤ G bounds the cell gap to 1), d2 in exact IEEE
    doubles so the FULL SQL self-join replay is bit-identical.
    Stops with no service (parent stations) are excluded on both
    sides."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]) \
        .take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    tref = ray.put(tmap)

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id"])

    def sr_part(t: pa.Table) -> pa.Table:
        tm = _broadcast(tref)
        sid = np.asarray(t["stop_id"].to_pylist())
        rid = np.asarray([tm[x] for x in t["trip_id"].to_pylist()])
        u = np.unique(np.stack([sid, rid], axis=1), axis=0)
        return pa.table({"stop_id": pa.array(u[:, 0]),
                         "route_id": pa.array(u[:, 1])})

    sr = (st.map_batches(sr_part, batch_format="pyarrow")
          .groupby(["stop_id", "route_id"]).count()).take_all()
    routes_of: dict[str, set] = {}
    for r in sr:
        routes_of.setdefault(r["stop_id"], set()).add(r["route_id"])
    rref = ray.put(routes_of)

    stops = rd.read_parquet(f"{d}/stops.parquet",
                            columns=["stop_id", "stop_lon",
                                     "stop_lat"])

    def scatter(t: pa.Table) -> pa.Table:
        ro = _broadcast(rref)
        sid = np.asarray(t["stop_id"].to_pylist())
        keep = np.array([s in ro for s in sid], bool)
        sid = sid[keep]
        lon = t["stop_lon"].to_numpy(zero_copy_only=False)[keep]
        lat = t["stop_lat"].to_numpy(zero_copy_only=False)[keep]
        cx = np.floor(lon / _XFER_G).astype(np.int64)
        cy = np.floor(lat / _XFER_G).astype(np.int64)
        out = {"cell": [], "stop_id": [], "lon": [], "lat": [],
               "owner": []}
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                out["cell"].append((cx + dx) * (1 << 32)
                                   + (cy + dy))
                out["stop_id"].append(sid)
                out["lon"].append(lon)
                out["lat"].append(lat)
                out["owner"].append(np.full(
                    len(sid), dx == 0 and dy == 0, bool))
        return pa.table({
            "cell": pa.array(np.concatenate(out["cell"])),
            "stop_id": pa.array(np.concatenate(out["stop_id"])),
            "lon": pa.array(np.concatenate(out["lon"])),
            "lat": pa.array(np.concatenate(out["lat"])),
            "owner": pa.array(np.concatenate(out["owner"]))})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # numpy broadcast within the cell group (VERDICT r3 #3): the
        # grid bounds the group, so the owner×candidate d2 matrix is
        # small; route-set intersection runs on MATCHED pairs only
        from geotile.ops.join import _get_broadcast
        ro = _get_broadcast(rref)
        own = df[df["owner"]]
        empty = pd.DataFrame({
            "stop_a": pd.Series(dtype=object),
            "stop_b": pd.Series(dtype=object),
            "d2": pd.Series(dtype=np.float64),
            "n_routes_a": pd.Series(dtype=np.int64),
            "n_routes_b": pd.Series(dtype=np.int64),
            "n_shared": pd.Series(dtype=np.int64)})
        if len(own) == 0 or len(df) == 0:
            return empty
        osid = own["stop_id"].to_numpy().astype(str)
        csid = df["stop_id"].to_numpy().astype(str)
        dx = own["lon"].to_numpy()[:, None] - df["lon"].to_numpy()
        dy = own["lat"].to_numpy()[:, None] - df["lat"].to_numpy()
        d2m = dx * dx + dy * dy
        mask = (osid[:, None] < csid) & (d2m < _XFER_R2)
        oi, ci = np.nonzero(mask)
        if len(oi) == 0:
            return empty
        sa, sb = osid[oi], csid[ci]
        ra = [ro[a] for a in sa]
        rb = [ro[b] for b in sb]
        return pd.DataFrame({
            "stop_a": sa.astype(object),
            "stop_b": sb.astype(object),
            "d2": d2m[oi, ci],
            "n_routes_a": np.fromiter((len(x) for x in ra),
                                      np.int64, len(ra)),
            "n_routes_b": np.fromiter((len(x) for x in rb),
                                      np.int64, len(rb)),
            "n_shared": np.fromiter(
                (len(x & y) for x, y in zip(ra, rb)),
                np.int64, len(ra))})

    ds = stops.map_batches(scatter, batch_format="pyarrow")
    return ds.groupby("cell").map_groups(pairs,
                                         batch_format="pandas")



QUERIES["stop_transfer_pairs"] = q_stop_transfer_pairs



def _xfer_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH sr AS (SELECT DISTINCT st.stop_id, t.route_id
                    FROM read_parquet('{d}/stop_times.parquet') st
                    JOIN read_parquet('{d}/trips.parquet') t
                      USING (trip_id)),
        rc AS (SELECT stop_id, CAST(COUNT(*) AS BIGINT) AS nr
               FROM sr GROUP BY 1),
        s AS (SELECT stop_id, stop_lon, stop_lat
              FROM read_parquet('{d}/stops.parquet')
              WHERE stop_id IN (SELECT stop_id FROM rc)),
        p AS (SELECT a.stop_id AS sa, b.stop_id AS sb,
                     (a.stop_lon - b.stop_lon)
                     * (a.stop_lon - b.stop_lon)
                     + (a.stop_lat - b.stop_lat)
                     * (a.stop_lat - b.stop_lat) AS d2
              FROM s a JOIN s b ON a.stop_id < b.stop_id),
        q AS (SELECT * FROM p WHERE d2 < {_XFER_R2!r}),
        sh AS (SELECT x.stop_id AS sa, y.stop_id AS sb,
                      CAST(COUNT(*) AS BIGINT) AS ns
               FROM sr x JOIN sr y
                 ON y.route_id = x.route_id
                AND x.stop_id < y.stop_id
               GROUP BY 1, 2)
        SELECT q.sa AS stop_a, q.sb AS stop_b, q.d2,
               ra.nr AS n_routes_a, rb.nr AS n_routes_b,
               CAST(COALESCE(sh.ns, 0) AS BIGINT) AS n_shared
        FROM q
        JOIN rc ra ON ra.stop_id = q.sa
        JOIN rc rb ON rb.stop_id = q.sb
        LEFT JOIN sh ON sh.sa = q.sa AND sh.sb = q.sb
    """



# ---------------------------------------------------------------------------
# activity_halflife_users: days to half of lifetime activity
# ---------------------------------------------------------------------------

def q_activity_halflife_users(sf_dir: str):
    """Activity half-life per user: calendar days from the FIRST
    active day to the day the running event count first reaches half
    the lifetime total (2·prefix ≥ T, the nucleus discipline on the
    user timeline) — front-loaded users (half-life 0) churn-test
    differently from steady ones. Scan contracts to (user, day)
    partials; the prefix pick is one cumsum inside a user
    co-partition at day grain. Window-prefix SQL replay."""
    from battery.ops.relational import _with_bucket

    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = pa.table({"user_id": t["user_id"],
                      "day": pa.array(us // DAY),
                      "n": pa.array(np.ones(len(us), np.int64))}) \
            .group_by(["user_id", "day"]).aggregate([("n", "sum")])
        return g.rename_columns(["user_id", "day", "n"])

    ledger = (ev.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["user_id", "day"]).sum("n"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        day = df["day"].to_numpy(np.int64)
        n = df["sum(n)"].to_numpy(np.int64)
        o = np.lexsort((day, u))
        u, day, n = u[o], day[o], n[o]
        brk = np.r_[True, u[1:] != u[:-1]]
        seg = np.cumsum(brk) - 1
        starts = np.flatnonzero(brk)
        cs = np.cumsum(n)
        base = np.r_[np.int64(0), cs][starts]
        pref = cs - base[seg]
        tot = np.r_[base[1:], cs[-1]] - base  # per-seg totals
        half = 2 * pref >= tot[seg]
        # first True per segment: argmax over positions
        firsthalf = np.zeros(len(starts), np.int64)
        fh_idx = np.full(len(starts), -1, np.int64)
        for s_ in range(len(starts)):  # pragma: no branch
            lo = starts[s_]
            hi = starts[s_ + 1] if s_ + 1 < len(starts) else len(u)
            j = lo + int(np.argmax(half[lo:hi]))
            fh_idx[s_] = j
            firsthalf[s_] = day[j] - day[lo]
        nd = np.diff(np.r_[starts, len(u)]).astype(np.int64)
        return pd.DataFrame({
            "user_id": u[starts],
            "n_days_active": nd,
            "halflife_days": firsthalf})

    return (_with_bucket(ledger, "user_id", 32)
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas"))



QUERIES["activity_halflife_users"] = q_activity_halflife_users

ORACLE_SQL["activity_halflife_users"] = """
        WITH d AS (SELECT user_id,
                          CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                              AS day,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM events GROUP BY 1, 2),
        w AS (SELECT user_id, day, n,
                     SUM(n) OVER (PARTITION BY user_id ORDER BY day
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS pref,
                     SUM(n) OVER (PARTITION BY user_id) AS tot,
                     MIN(day) OVER (PARTITION BY user_id) AS d0
              FROM d),
        h AS (SELECT user_id, MIN(day) AS hday, ANY_VALUE(d0) AS d0
              FROM w WHERE 2 * pref >= tot GROUP BY 1),
        c AS (SELECT user_id,
                     CAST(COUNT(*) AS BIGINT) AS n_days_active
              FROM d GROUP BY 1)
        SELECT c.user_id, c.n_days_active,
               CAST(h.hday - h.d0 AS BIGINT) AS halflife_days
        FROM c JOIN h ON h.user_id = c.user_id
    """



# ---------------------------------------------------------------------------
# video_time_symmetry: temporal palindrome audit per clip
# ---------------------------------------------------------------------------

def q_video_time_symmetry(sf_dir: str):
    """Temporal mirror audit per clip: |f_t − f_{n−1−t}| mass over
    the first half of the frame axis plus the FIRST asymmetric pair
    index (−1 for perfect palindromes) — catches boomerang/looped
    synthetic clips that a dedup stage should collapse; the
    time-axis twin of the spatial mirror-symmetry op. One reversed-
    slice |diff| over the stacked 5-D tensor. Python-int replay
    sidecar."""
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
        out_id, out_m, out_f = [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            half = f // 2
            pair = np.abs(clips[:, :half]
                          - clips[:, ::-1][:, :half]) \
                .sum(axis=(2, 3, 4))  # (k, half)
            mass = pair.sum(axis=1)
            nz = pair > 0
            first = np.where(nz.any(axis=1), nz.argmax(axis=1),
                             np.int64(-1)).astype(np.int64)
            out_id.append(ids[slots])
            out_m.append(mass)
            out_f.append(first)
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "asym_mass": pa.array(np.concatenate(out_m)),
            "first_asym": pa.array(np.concatenate(out_f))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["video_time_symmetry"] = q_video_time_symmetry



def _video_sym_sidecar(vid: str) -> str:
    """Python-int replay for video_time_symmetry."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videosym_{Path(vid).name}_{_mods_digest(_sy)}"
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
            mass = 0
            first = -1
            for t_ in range(nf // 2):
                m = sum(abs(a - b) for a, b in
                        zip(frames[t_], frames[nf - 1 - t_]))
                mass += m
                if m > 0 and first < 0:
                    first = t_
            rows.append({"clip_id": cid, "asym_mass": mass,
                         "first_asym": first})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_sym_sql(vid: str) -> str:
    return (f"SELECT clip_id, asym_mass, first_asym "
            f"FROM read_parquet('{_video_sym_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# kanon_users: quasi-identifier k-anonymity census
# ---------------------------------------------------------------------------

def q_kanon_users(sf_dir: str):
    """k-anonymity census over the behavioural quasi-identifier
    (first active day, lexicographically-smallest modal event type,
    log2 bucket of lifetime event count): how many users share each
    quasi-key — the re-identification audit a release pipeline runs
    before publishing 'anonymized' event data; class size 1 = a
    fingerprintable user. Per-user features fold in ONE user
    co-partition (the quasi-key never leaves as raw events); the
    output is the class-size histogram, so only |users| rows then
    |sizes| rows move. Double-aggregate window replay."""
    from battery.ops.relational import _with_bucket

    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

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
              .aggregate(rd.aggregate.Sum("n"), rd.aggregate.Min("day0")))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        ty = df["event_type"].to_numpy()
        n = df["sum(n)"].to_numpy(np.int64)
        d0 = df["min(day0)"].to_numpy(np.int64)
        o = np.lexsort((ty, -n, u))   # per user: max n, then ty asc
        u, ty, n, d0 = u[o], ty[o], n[o], d0[o]
        brk = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        tot = np.bincount(seg, weights=n).astype(np.int64)
        first_day = np.minimum.reduceat(d0, starts)
        mode_ty = ty[starts]
        bucket = np.frexp(tot.astype(np.float64))[1].astype(np.int64)
        return pd.DataFrame({"user_id": u[starts],
                             "day0": first_day,
                             "mode_ty": mode_ty,
                             "nbucket": bucket})

    per_user = (_with_bucket(ledger, "user_id", 32)
                .groupby("bucket").map_groups(fold,
                                              batch_format="pandas"))

    def classes(t: pa.Table) -> pa.Table:
        g = pa.table({"day0": t["day0"], "mode_ty": t["mode_ty"],
                      "nbucket": t["nbucket"],
                      "c": pa.array(np.ones(len(t), np.int64))}) \
            .group_by(["day0", "mode_ty", "nbucket"]) \
            .aggregate([("c", "sum")])
        return g.rename_columns(["day0", "mode_ty", "nbucket", "c"])

    cls = (per_user.map_batches(classes, batch_format="pyarrow")
           .groupby(["day0", "mode_ty", "nbucket"]).sum("c"))

    def hist(t: pa.Table) -> pa.Table:
        c = t["sum(c)"].to_numpy(zero_copy_only=False)
        uc, nc = np.unique(c, return_counts=True)
        return pa.table({"class_size": pa.array(uc.astype(np.int64)),
                         "n_classes": pa.array(nc.astype(np.int64))})

    out = (cls.map_batches(hist, batch_format="pyarrow")
           .groupby("class_size").sum("n_classes"))
    return _rename(out, ["class_size", "n_classes"])



QUERIES["kanon_users"] = q_kanon_users

ORACLE_SQL["kanon_users"] = """
        WITH tc AS (SELECT user_id, event_type,
                           CAST(COUNT(*) AS BIGINT) AS n,
                           CAST(MIN(epoch_us(ts) // 86400000000)
                               AS BIGINT) AS day0
                    FROM events GROUP BY 1, 2),
        r AS (SELECT user_id, event_type, n, day0,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                         ORDER BY n DESC, event_type ASC) AS rn
              FROM tc),
        u AS (SELECT r.user_id,
                     MIN(tc.day0) AS day0,
                     ANY_VALUE(r.event_type) AS mode_ty,
                     CAST(length(bin(SUM(tc.n))) AS BIGINT)
                         AS nbucket
              FROM r JOIN tc ON tc.user_id = r.user_id
              WHERE r.rn = 1
              GROUP BY r.user_id, r.event_type),
        cls AS (SELECT day0, mode_ty, nbucket,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM u GROUP BY 1, 2, 3)
        SELECT c AS class_size,
               CAST(COUNT(*) AS BIGINT) AS n_classes
        FROM cls GROUP BY 1
    """



# ---------------------------------------------------------------------------
# channel_corr_images: exact cross-channel covariance numerators
# ---------------------------------------------------------------------------

def q_channel_corr_images(sf_dir: str):
    """Cross-channel covariance numerators per image (first 1024):
    exact int64 n·Σab − Σa·Σb for the RG, RB and GB channel pairs —
    the color-coherence signal (natural photos correlate channels
    strongly; synthetic/graphic content decorrelates them), the
    first per-channel-PAIR statistic next to the per-channel
    histograms. Five sums + three products per image, all over the
    batch tensor. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class CorrStage:
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
            cols = {k: [] for k in ("id", "rg", "rb", "gb")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                npx = wi * hi
                s = px.sum(axis=(1, 2))          # (k, 3)
                r, g, b = px[..., 0], px[..., 1], px[..., 2]
                srg = (r * g).sum(axis=(1, 2))
                srb = (r * b).sum(axis=(1, 2))
                sgb = (g * b).sum(axis=(1, 2))
                cols["id"].append(ids[slots])
                cols["rg"].append(npx * srg - s[:, 0] * s[:, 1])
                cols["rb"].append(npx * srb - s[:, 0] * s[:, 2])
                cols["gb"].append(npx * sgb - s[:, 1] * s[:, 2])
            return pa.table({
                "image_id": pa.array(np.concatenate(cols["id"])),
                "cov_rg_num": pa.array(
                    np.concatenate(cols["rg"]).astype(np.int64)),
                "cov_rb_num": pa.array(
                    np.concatenate(cols["rb"]).astype(np.int64)),
                "cov_gb_num": pa.array(
                    np.concatenate(cols["gb"]).astype(np.int64))})

    return ds.map_batches(CorrStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["channel_corr_images"] = q_channel_corr_images



def _chancorr_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for channel_corr_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_chancorr_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                sr = sg = sb = srg = srb = sgb = 0
                for y in range(hi):
                    for x in range(wi):
                        r = int(px[j, y, x, 0])
                        g = int(px[j, y, x, 1])
                        b = int(px[j, y, x, 2])
                        sr += r
                        sg += g
                        sb += b
                        srg += r * g
                        srb += r * b
                        sgb += g * b
                npx = wi * hi
                rows.append({"image_id": str(iid[slot]),
                             "cov_rg_num": npx * srg - sr * sg,
                             "cov_rb_num": npx * srb - sr * sb,
                             "cov_gb_num": npx * sgb - sg * sb})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _chancorr_sql(img: str) -> str:
    return (f"SELECT image_id, cov_rg_num, cov_rb_num, cov_gb_num "
            f"FROM read_parquet('{_chancorr_sidecar(img)}')")



# ---------------------------------------------------------------------------
# trip_length_hist: GTFS trip stop-count profile per route
# ---------------------------------------------------------------------------

def q_trip_length_hist(sf_dir: str):
    """Trip length profile per route from stop_times: trip count,
    max stop count, and the trip_id attaining it (smallest id on
    ties) — the exact statistic behind the reference's longest-trip
    fallback (gtfs-to-geojson orders stops along the longest trip
    when the toposort is ambiguous, lines.ts O2 path); this exposes
    it as a ledger. One (trip → count) partial, one trip-grain
    shuffle, argmax inside a route co-partition. FULL SQL replay
    over the fixture parquet."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id"]) \
        .take_all()
    tmap = {r["trip_id"]: r["route_id"] for r in trips}
    tref = ray.put(tmap)

    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id"])

    def part(t: pa.Table) -> pa.Table:
        g = pa.table({"trip_id": t["trip_id"],
                      "n": pa.array(np.ones(len(t), np.int64))}) \
            .group_by("trip_id").aggregate([("n", "sum")])
        return g.rename_columns(["trip_id", "n"])

    per_trip = (st.map_batches(part, batch_format="pyarrow")
                .groupby("trip_id").sum("n"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        tm = _broadcast(tref)
        df = df.assign(route_id=[tm[t] for t in df["trip_id"]])
        df = df.sort_values(["route_id", "sum(n)", "trip_id"],
                            ascending=[True, False, True],
                            kind="stable")
        head = df.groupby("route_id", sort=True).head(1)
        cnt = df.groupby("route_id", sort=True)["trip_id"].count()
        return pd.DataFrame({
            "route_id": head["route_id"].to_numpy(),
            "n_trips": cnt.loc[head["route_id"]].to_numpy(np.int64),
            "max_stops": head["sum(n)"].to_numpy(np.int64),
            "longest_trip": head["trip_id"].to_numpy()})

    # trips are dimension-scale: coalesce the tiny ledger to ONE
    # block so the argmax fold sees every trip of a route together
    return per_trip.repartition(1).map_batches(
        fold, batch_format="pandas", batch_size=1 << 20)



QUERIES["trip_length_hist"] = q_trip_length_hist



def _trip_len_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH pt AS (SELECT st.trip_id, t.route_id,
                           CAST(COUNT(*) AS BIGINT) AS n
                    FROM read_parquet('{d}/stop_times.parquet') st
                    JOIN read_parquet('{d}/trips.parquet') t
                      USING (trip_id)
                    GROUP BY 1, 2),
        r AS (SELECT route_id, trip_id, n,
                     ROW_NUMBER() OVER (PARTITION BY route_id
                         ORDER BY n DESC, trip_id ASC) AS rn
              FROM pt),
        c AS (SELECT route_id, CAST(COUNT(*) AS BIGINT) AS n_trips
              FROM pt GROUP BY 1)
        SELECT c.route_id, c.n_trips, r.n AS max_stops,
               r.trip_id AS longest_trip
        FROM c JOIN r ON r.route_id = c.route_id AND r.rn = 1
    """



# ---------------------------------------------------------------------------
# lang_runs_sources: language contiguity audit per source
# ---------------------------------------------------------------------------

def q_lang_runs_sources(sf_dir: str):
    """Language-run contiguity per source (docs in doc_id order):
    run count and longest same-language run — a source whose
    languages arrive in long runs is lang-sorted or lang-sharded
    upstream (which biases any sequential sampler); interleaved
    langs are safe to stream. One sort + run fold inside a source
    co-partition at (doc_id, lang) grain. LAG window replay."""
    from battery.ops.relational import _with_bucket

    docs = _read(sf_dir, "documents", ["doc_id", "source", "lang"])

    def prep(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "source", "lang"])

    ds = docs.map_batches(prep, batch_format="pyarrow",
                          zero_copy_batch=True)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        src = df["source"].to_numpy()
        did = df["doc_id"].to_numpy(np.int64)
        lang = df["lang"].to_numpy()
        o = np.lexsort((did, src))
        src, lang = src[o], lang[o]
        brk = np.r_[True, (src[1:] != src[:-1])
                    | (lang[1:] != lang[:-1])]
        isl = np.cumsum(brk) - 1
        lengths = np.bincount(isl).astype(np.int64)
        isl_src = src[brk]
        per = pd.DataFrame({"source": isl_src, "L": lengths})
        agg = per.groupby("source", sort=True)["L"] \
            .agg(["count", "max"])
        return pd.DataFrame({
            "source": agg.index.to_numpy(),
            "n_runs": agg["count"].to_numpy(np.int64),
            "longest_run": agg["max"].to_numpy(np.int64)})

    # bucket on a hash of source so each source lands whole
    def with_sbucket(t: pa.Table) -> pa.Table:
        s = np.asarray(t["source"].to_pylist())
        h = np.array([hash(x) & 15 for x in s], np.int64)
        return t.append_column("bucket", pa.array(h))

    # hash() is per-process salted — use a stable hash instead
    def with_sbucket_stable(t: pa.Table) -> pa.Table:
        s = t["source"].to_pylist()
        h = np.array([sum(b for b in x.encode()) & 15 for x in s],
                     np.int64)
        return t.append_column("bucket", pa.array(h))

    return (ds.map_batches(with_sbucket_stable,
                           batch_format="pyarrow")
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas"))



QUERIES["lang_runs_sources"] = q_lang_runs_sources

ORACLE_SQL["lang_runs_sources"] = """
        WITH l AS (SELECT source, doc_id, lang,
                          LAG(lang) OVER (PARTITION BY source
                                          ORDER BY doc_id) AS pl
                   FROM documents),
        g AS (SELECT source, doc_id,
                     SUM(CASE WHEN pl IS NULL OR lang <> pl
                              THEN 1 ELSE 0 END) OVER (
                         PARTITION BY source ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS isl
              FROM l),
        c AS (SELECT source, isl, CAST(COUNT(*) AS BIGINT) AS len
              FROM g GROUP BY 1, 2)
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_runs,
               CAST(MAX(len) AS BIGINT) AS longest_run
        FROM c GROUP BY 1
    """



# ---------------------------------------------------------------------------
# column_period_images: column-mass autocorrelation (periodicity)
# ---------------------------------------------------------------------------

def q_column_period_images(sf_dir: str):
    """Tiling/periodicity detector per image (first 1024): exact
    integer autocorrelation numerators Σ_x col[x]·col[x+lag] of the
    column gray-mass profile at lags 1..8 — a repeating texture
    peaks at its period (lag 8 flags 8px tiles; the row axis is the
    blockiness op's job). One column-sum per image then eight
    shifted dot products; long (image_id, lag, acorr) output.
    Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class PeriodStage:
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
            out_id, out_l, out_a = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                gray = px.astype(np.int64).sum(axis=3) // 3
                col = gray.sum(axis=1)           # (k, w)
                for lag in range(1, 9):
                    ac = (col[:, :-lag] * col[:, lag:]).sum(axis=1)
                    out_id.append(ids[slots])
                    out_l.append(np.full(len(slots), lag, np.int64))
                    out_a.append(ac.astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "lag": pa.array(np.concatenate(out_l)),
                "acorr": pa.array(np.concatenate(out_a))})

    return ds.map_batches(PeriodStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["column_period_images"] = q_column_period_images



def _colperiod_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for column_period_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_colperiod_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                col = [0] * wi
                for y in range(hi):
                    for x in range(wi):
                        col[x] += (int(px[j, y, x, 0])
                                   + int(px[j, y, x, 1])
                                   + int(px[j, y, x, 2])) // 3
                for lag in range(1, 9):
                    ac = sum(col[x] * col[x + lag]
                             for x in range(wi - lag))
                    rows.append({"image_id": str(iid[slot]),
                                 "lag": lag, "acorr": ac})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _colperiod_sql(img: str) -> str:
    return (f"SELECT image_id, lag, acorr "
            f"FROM read_parquet('{_colperiod_sidecar(img)}')")



# ---------------------------------------------------------------------------
# shape_cell_trace: exact integer grid traversal of GTFS shapes
# ---------------------------------------------------------------------------

_TRACE_PITCH = 100  # e5-lattice units per cell -> 0.001 deg cells



def q_shape_cell_trace(sf_dir: str):
    """Grid line-trace per GTFS shape: the exact set of 0.001° cells
    each shape polyline passes through, via Amanatides–Woo traversal
    with INTEGER crossing comparisons (next-crossing order decided
    by cross-multiplied remainders, never a float t; ties step X
    first — stated spec for both engines) — the map-matching /
    corridor-index primitive (a tile is near a route iff its cell is
    within k of a traced cell). Endpoints quantize to the e5
    lattice; every segment of every shape traverses level-
    synchronously (one vectorized step per round across ALL active
    segments). Reports per shape the segment count, distinct traced
    cells and their packed-key XOR. Independent per-segment scalar
    traversal replay (same spec, different code shape)."""
    d = _fixture_sql_dir()
    sh = rd.read_parquet(f"{d}/shapes.parquet").take_all()
    rows = sorted(((r["shape_id"], int(r["shape_pt_sequence"]),
                    float(r["shape_pt_lon"]),
                    float(r["shape_pt_lat"])) for r in sh))
    P = _TRACE_PITCH
    segs = []
    for i in range(len(rows) - 1):
        if rows[i][0] != rows[i + 1][0]:
            continue
        x0 = int(np.floor((rows[i][2] + 180.0) * 100000.0))
        y0 = int(np.floor((rows[i][3] + 90.0) * 100000.0))
        x1 = int(np.floor((rows[i + 1][2] + 180.0) * 100000.0))
        y1 = int(np.floor((rows[i + 1][3] + 90.0) * 100000.0))
        segs.append((rows[i][0], x0, y0, x1, y1))
    seg_t = pa.table({
        "shape_id": pa.array([s[0] for s in segs]),
        "x0": pa.array([s[1] for s in segs], pa.int64()),
        "y0": pa.array([s[2] for s in segs], pa.int64()),
        "x1": pa.array([s[3] for s in segs], pa.int64()),
        "y1": pa.array([s[4] for s in segs], pa.int64())})

    def trace(t: pa.Table) -> pa.Table:
        sid = np.asarray(t["shape_id"].to_pylist())
        x0 = t["x0"].to_numpy(zero_copy_only=False).copy()
        y0 = t["y0"].to_numpy(zero_copy_only=False).copy()
        x1 = t["x1"].to_numpy(zero_copy_only=False)
        y1 = t["y1"].to_numpy(zero_copy_only=False)
        n = len(sid)
        cx = x0 // P
        cy = y0 // P
        ex = x1 // P
        ey = y1 // P
        dx = x1 - x0
        dy = y1 - y0
        sx = np.sign(dx).astype(np.int64)
        sy = np.sign(dy).astype(np.int64)
        # distance (in e5 units) from start to next x/y gridline
        rx = np.where(sx > 0, (cx + 1) * P - x0,
                      np.where(sx < 0, x0 - cx * P, 0)).astype(
                          np.int64)
        ry = np.where(sy > 0, (cy + 1) * P - y0,
                      np.where(sy < 0, y0 - cy * P, 0)).astype(
                          np.int64)
        adx = np.abs(dx)
        ady = np.abs(dy)
        out_sid, out_cell = [sid.copy()], [cx * (1 << 32) + cy]
        active = (cx != ex) | (cy != ey)
        while active.any():
            # step axis: compare rx/adx vs ry/ady exactly:
            #   rx*ady <= ry*adx  -> step X (ties step X: stated spec)
            # axis exhausted (s == 0) never steps
            can_x = active & (sx != 0)
            can_y = active & (sy != 0)
            tx = rx * ady
            ty = ry * adx
            stepx = can_x & (~can_y | (tx <= ty))
            stepy = can_y & ~stepx
            cx = cx + np.where(stepx, sx, 0)
            rx = rx + np.where(stepx, P, 0)
            cy = cy + np.where(stepy, sy, 0)
            ry = ry + np.where(stepy, P, 0)
            moved = stepx | stepy
            out_sid.append(sid[moved])
            out_cell.append((cx * (1 << 32) + cy)[moved])
            active = active & ((cx != ex) | (cy != ey)) & moved
        allsid = np.concatenate(out_sid)
        allcell = np.concatenate(out_cell)
        u = np.unique(np.stack(
            [allsid, allcell.astype("U32")], axis=1), axis=0)
        usid = u[:, 0]
        ucell = u[:, 1].astype(np.int64)
        return pa.table({"shape_id": pa.array(usid),
                         "cell": pa.array(ucell)})

    cells_ds = rd.from_arrow(seg_t).map_batches(
        trace, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        sid = df["shape_id"].iloc[0]
        cells = np.unique(df["cell"].to_numpy(np.int64))
        x = np.bitwise_xor.reduce(cells) if len(cells) else 0
        return pd.DataFrame({
            "shape_id": [sid],
            "n_cells": np.array([len(cells)], np.int64),
            "cell_xor": np.array([x], np.int64)})

    traced = cells_ds.groupby("shape_id").map_groups(
        fold, batch_format="pandas")

    nseg: dict[str, int] = {}
    for s in segs:
        nseg[s[0]] = nseg.get(s[0], 0) + 1

    def attach(t: pa.Table) -> pa.Table:
        sids = t["shape_id"].to_pylist()
        return t.append_column(
            "n_segments",
            pa.array([nseg[s] for s in sids], pa.int64()))

    return traced.map_batches(attach, batch_format="pyarrow")



QUERIES["shape_cell_trace"] = q_shape_cell_trace



def _trace_sidecar() -> str:
    """Independent scalar Amanatides-Woo replay over the fixture
    shapes (same stated spec: integer cross-multiplied crossing
    order, ties step X first)."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    d = _fixture_sql_dir()
    P = _TRACE_PITCH
    p = _oracle_cache_dir() / (
        f"oracle_shapetrace_{P}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(f"{d}/shapes.parquet")
        rows = sorted(zip(t["shape_id"].to_pylist(),
                          [int(v) for v in
                           t["shape_pt_sequence"].to_pylist()],
                          t["shape_pt_lon"].to_pylist(),
                          t["shape_pt_lat"].to_pylist()))
        import math
        cells: dict[str, set] = {}
        nseg: dict[str, int] = {}
        for i in range(len(rows) - 1):
            if rows[i][0] != rows[i + 1][0]:
                continue
            sid = rows[i][0]
            x = math.floor((rows[i][2] + 180.0) * 100000.0)
            y = math.floor((rows[i][3] + 90.0) * 100000.0)
            x1 = math.floor((rows[i + 1][2] + 180.0) * 100000.0)
            y1 = math.floor((rows[i + 1][3] + 90.0) * 100000.0)
            nseg[sid] = nseg.get(sid, 0) + 1
            cs = cells.setdefault(sid, set())
            cx, cy = x // P, y // P
            ex, ey = x1 // P, y1 // P
            dx, dy = x1 - x, y1 - y
            sx = (dx > 0) - (dx < 0)
            sy = (dy > 0) - (dy < 0)
            rx = (cx + 1) * P - x if sx > 0 else (
                x - cx * P if sx < 0 else 0)
            ry = (cy + 1) * P - y if sy > 0 else (
                y - cy * P if sy < 0 else 0)
            adx, ady = abs(dx), abs(dy)
            cs.add((cx << 32) + cy if cx >= 0 else cx * (1 << 32)
                   + cy)
            guard = 0
            while (cx != ex or cy != ey) and guard < 10_000_000:
                guard += 1
                can_x = sx != 0
                can_y = sy != 0
                if can_x and (not can_y or rx * ady <= ry * adx):
                    cx += sx
                    rx += P
                elif can_y:
                    cy += sy
                    ry += P
                else:
                    break
                cs.add(cx * (1 << 32) + cy)
        out = []
        for sid in sorted(cells):
            cl = sorted(cells[sid])
            x = 0
            for c in cl:
                x ^= c
            out.append({"shape_id": sid, "n_cells": len(cl),
                        "cell_xor": x,
                        "n_segments": nseg[sid]})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.Table.from_pylist(out), p)
    return str(p)



def _trace_sql() -> str:
    return (f"SELECT shape_id, n_cells, cell_xor, n_segments "
            f"FROM read_parquet('{_trace_sidecar()}')")



# ---------------------------------------------------------------------------
# return_rate_brands: worst return rates by brand (exact fraction rank)
# ---------------------------------------------------------------------------

def q_return_rate_brands(sf_dir: str):
    """Worst-10 brands by lineitem return rate: both engines rank by
    the exact integer key floor(n_returned·10⁹ / n_total) with brand
    ASC ties, so the quotient never forms and the cut is
    deterministic even where the lattice collides — the
    supplier-quality triage behind Q10's customer view, pivoted to
    the catalog axis. Part brand is a broadcast dimension; the fact
    scan ships (brand, returned, total) partials only. HUGEINT
    quotient replay."""
    import pyarrow.parquet as pq_

    pt = pq_.read_table(f"{sf_dir}/part.parquet",
                        columns=["p_partkey", "p_brand"])
    pk = pt["p_partkey"].to_numpy()
    o = np.argsort(pk)
    pk = pk[o]
    brands, bcode = np.unique(
        np.asarray(pt["p_brand"].to_pylist())[o],
        return_inverse=True)
    dref = ray.put((pk, bcode.astype(np.int64), brands))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_returnflag"])

    def partial(t: pa.Table) -> pa.Table:
        pks, bc, _ = _broadcast(dref)
        lpk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(pks, lpk)
        ret = (np.asarray(t["l_returnflag"].to_pylist()) == "R") \
            .astype(np.int64)
        g = pa.table({"bc": pa.array(bc[pos]),
                      "n_ret": pa.array(ret),
                      "n_tot": pa.array(np.ones(len(ret),
                                                np.int64))}) \
            .group_by("bc").aggregate([("n_ret", "sum"),
                                       ("n_tot", "sum")])
        return g.rename_columns(["bc", "n_ret", "n_tot"])

    agg = (li.map_batches(partial, batch_format="pyarrow")
           .groupby("bc").sum(["n_ret", "n_tot"])).take_all()
    _, _, brand_names = pk, bcode, brands
    rows = []
    for r in agg:
        nr, nt = int(r["sum(n_ret)"]), int(r["sum(n_tot)"])
        key = (nr * 10**9) // nt
        rows.append((str(brands[int(r["bc"])]), nr, nt, key))
    rows.sort(key=lambda x: (-x[3], x[0]))
    top = rows[:10]
    return pd.DataFrame(top, columns=["p_brand", "n_returned",
                                      "n_total", "rate_q9"])



QUERIES["return_rate_brands"] = q_return_rate_brands

ORACLE_SQL["return_rate_brands"] = """
        WITH j AS (SELECT p.p_brand,
                          CAST(SUM(CASE WHEN l.l_returnflag = 'R'
                                        THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_returned,
                          CAST(COUNT(*) AS BIGINT) AS n_total
                   FROM lineitem l
                   JOIN part p ON p.p_partkey = l.l_partkey
                   GROUP BY 1)
        SELECT p_brand, n_returned, n_total,
               CAST((CAST(n_returned AS HUGEINT) * 1000000000)
                    // n_total AS BIGINT) AS rate_q9
        FROM j ORDER BY rate_q9 DESC, p_brand ASC LIMIT 10
    """



# ---------------------------------------------------------------------------
# bipartite_audit_dups: 2-colorability of the near-dup graph
# ---------------------------------------------------------------------------

def q_bipartite_audit_dups(sf_dir: str):
    """Bipartiteness audit per dup-graph component: BFS parity from
    the component's smallest node, then count edges joining EQUAL
    parities (0 ⟺ bipartite) — odd cycles mean mutually-similar
    triangles (true clusters), pure even structure means chain dups
    (A~B~C where A,C differ), which changes which canonicalization
    is safe. Engine: level-synchronous frontier BFS over the
    broadcastable CSR (the bfs_dups contract) + one vectorized
    equal-parity edge count. Oracle: independent python deque BFS
    over the SQL cosine-join pairs."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    empty = pd.DataFrame({
        "component": pd.Series(dtype=np.int64),
        "n_nodes": pd.Series(dtype=np.int64),
        "n_edges": pd.Series(dtype=np.int64),
        "n_odd_edges": pd.Series(dtype=np.int64)})
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
    vi = np.searchsorted(nodes, v)
    n = len(nodes)
    comp = np.full(n, -1, np.int64)
    par = np.full(n, -1, np.int64)
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = root
        par[root] = 0
        frontier = np.array([root], np.int64)
        while len(frontier):
            nb = np.concatenate(
                [vi[starts[f]:ends[f]] for f in frontier])
            pr = np.repeat(par[frontier],
                           (ends - starts)[frontier])
            new = comp[nb] < 0
            nb, pr = nb[new], pr[new]
            if not len(nb):
                break
            nb, first = np.unique(nb, return_index=True)
            comp[nb] = root
            par[nb] = 1 - pr[first]
            frontier = nb
    ui = np.searchsorted(nodes, np.minimum(a, b))
    wi = np.searchsorted(nodes, np.maximum(a, b))
    odd = par[ui] == par[wi]
    df = pd.DataFrame({"component": nodes[comp[ui]],
                       "odd": odd.astype(np.int64),
                       "e": np.ones(len(ui), np.int64)})
    eg = df.groupby("component", sort=True).sum()
    nn = pd.Series(np.ones(n, np.int64),
                   index=nodes[comp]).groupby(level=0).sum()
    return pd.DataFrame({
        "component": eg.index.to_numpy(np.int64),
        "n_nodes": nn.loc[eg.index].to_numpy(np.int64),
        "n_edges": eg["e"].to_numpy(np.int64),
        "n_odd_edges": eg["odd"].to_numpy(np.int64)})



QUERIES["bipartite_audit_dups"] = q_bipartite_audit_dups



def _bipartite_sidecar(sf_dir: str) -> str:
    """Python deque-BFS replay over the SQL cosine-join pairs."""
    from collections import deque
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "bip-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bipartite_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = [(int(x), int(y)) for x, y in con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()]
        adj: dict[int, set[int]] = {}
        for x, y in prs:
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        comp: dict[int, int] = {}
        par: dict[int, int] = {}
        for root in sorted(adj):
            if root in comp:
                continue
            comp[root] = root
            par[root] = 0
            q: deque = deque([root])
            while q:
                nd = q.popleft()
                for w in adj[nd]:
                    if w not in comp:
                        comp[w] = root
                        par[w] = 1 - par[nd]
                        q.append(w)
        stats: dict[int, list[int]] = {}
        for x, y in prs:
            c = comp[x]
            e = stats.setdefault(c, [0, 0])
            e[0] += 1
            if par[x] == par[y]:
                e[1] += 1
        nnodes: dict[int, int] = {}
        for nd, c in comp.items():
            nnodes[c] = nnodes.get(c, 0) + 1
        out = [{"component": c, "n_nodes": nnodes[c],
                "n_edges": stats[c][0], "n_odd_edges": stats[c][1]}
               for c in sorted(stats)]
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(pa.Table.from_pylist(out), p)
    return str(p)



def _bipartite_sql(sf_dir: str) -> str:
    return (f"SELECT component, n_nodes, n_edges, n_odd_edges "
            f"FROM read_parquet('{_bipartite_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# second_order_latency: first->second purchase gap histogram
# ---------------------------------------------------------------------------

def q_second_order_latency(sf_dir: str):
    """Second-purchase latency: for every customer with ≥2 orders,
    the day gap between their FIRST and SECOND order (ties broken by
    orderkey), folded into bit-length buckets plus the one-and-done
    count in bucket 0 — the classic repeat-buyer growth metric. The
    two smallest order dates per customer come from a segmented
    pick after one custkey co-partition sort; only the ≤64-row
    histogram shuffles out. Double ROW_NUMBER window replay."""
    from battery.ops.relational import _with_bucket

    DAY = 86_400_000_000
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "o_orderkey": t["o_orderkey"],
            "day": pa.array(t["o_orderdate"].cast(pa.int64())
                            .to_numpy(zero_copy_only=False) // DAY)})

    ds = orders.map_batches(prep, batch_format="pyarrow",
                            zero_copy_batch=True)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = df["o_custkey"].to_numpy(np.int64)
        k = df["o_orderkey"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        o = np.lexsort((k, d, c))
        c, d = c[o], d[o]
        brk = np.r_[True, c[1:] != c[:-1]]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.r_[starts, len(c)])
        multi = sizes >= 2
        gap = d[starts[multi] + 1] - d[starts[multi]]
        nz = gap > 0
        bucket = np.zeros(len(gap), np.int64)
        bucket[nz] = np.frexp(gap[nz].astype(np.float64))[1]
        # bucket 0 here = same-day second order; one-and-done
        # customers are reported in bucket -1
        ub, cb = np.unique(bucket, return_counts=True)
        out_b = np.r_[np.int64(-1), ub]
        out_n = np.r_[np.int64((~multi).sum()),
                      cb.astype(np.int64)]
        return pd.DataFrame({"bucket": out_b, "n": out_n})

    hist = (_with_bucket(ds, "o_custkey", 32)
            .groupby("bucket").map_groups(fold,
                                          batch_format="pandas"))

    def merge(t: pa.Table) -> pa.Table:
        g = pa.table({"bucket": t["bucket"], "n": t["n"]}) \
            .group_by("bucket").aggregate([("n", "sum")])
        return g.rename_columns(["bucket", "n"])

    out = hist.map_batches(merge, batch_format="pyarrow") \
        .groupby("bucket").sum("n")
    return _rename(out, ["bucket", "n"])



QUERIES["second_order_latency"] = q_second_order_latency

ORACLE_SQL["second_order_latency"] = """
        WITH d AS (SELECT o_custkey, o_orderkey,
                          CAST(epoch_us(o_orderdate) // 86400000000
                              AS BIGINT) AS day
                   FROM orders),
        r AS (SELECT o_custkey, day,
                     ROW_NUMBER() OVER (PARTITION BY o_custkey
                         ORDER BY day, o_orderkey) AS rn
              FROM d),
        g AS (SELECT a.o_custkey, b.day - a.day AS gap
              FROM r a JOIN r b
                ON b.o_custkey = a.o_custkey AND a.rn = 1
               AND b.rn = 2),
        sizes AS (SELECT o_custkey, COUNT(*) AS cnt FROM d
                  GROUP BY 1),
        h AS (SELECT CASE WHEN gap = 0 THEN 0
                          ELSE CAST(length(bin(gap)) AS BIGINT)
                     END AS bucket, COUNT(*) AS n
              FROM g GROUP BY 1
              UNION ALL
              SELECT -1, COUNT(*) FROM sizes WHERE cnt = 1)
        SELECT CAST(bucket AS BIGINT) AS bucket,
               CAST(SUM(n) AS BIGINT) AS n
        FROM h GROUP BY 1
    """



# ---------------------------------------------------------------------------
# anisotropy_embeddings: exact anisotropy moments in one pass
# ---------------------------------------------------------------------------

def q_anisotropy_embeddings(sf_dir: str):
    """Embedding anisotropy audit (the 'narrow cone' pathology:
    anisotropic spaces make cosine similarity saturate): exact
    integer moments on the e3 lattice — n, Σ‖v‖² and the all-pairs
    dot total ‖Σv‖² − Σ‖v‖², derived from ONE streaming pass (the
    per-dim vector sum and the self-dot sum are both combinable;
    the quadratic identity turns O(n²) pairwise dots into one
    64-int square). e3 keeps ‖Σv‖² inside int64 at any corpus this
    sandbox holds; the docstring notes the e6 variant needs int128.
    FULL SQL replay via list unnest — no sidecar."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def part(t: pa.Table) -> pa.Table:
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1000.0).astype(np.int64)
        sums = V.sum(axis=0)
        self_dot = int((V * V).sum())
        return pa.table({
            "dim": pa.array(np.arange(V.shape[1], dtype=np.int64)),
            "s": pa.array(sums),
            "self_dot": pa.array(
                np.r_[np.int64(self_dot),
                      np.zeros(V.shape[1] - 1, np.int64)]),
            "n": pa.array(np.r_[np.int64(len(V)),
                                np.zeros(V.shape[1] - 1,
                                         np.int64)])})

    parts = (emb.map_batches(part, batch_format="pyarrow")
             .groupby("dim").sum(["s", "self_dot", "n"])).take_all()
    n = sum(int(r["sum(n)"]) for r in parts)
    self_dot = sum(int(r["sum(self_dot)"]) for r in parts)
    norm2_of_sum = sum(int(r["sum(s)"]) ** 2 for r in parts)
    return pd.DataFrame({
        "n": np.array([n], np.int64),
        "sum_self_dot": np.array([self_dot], np.int64),
        "pairwise_dot_num": np.array([norm2_of_sum - self_dot],
                                     np.int64)})



QUERIES["anisotropy_embeddings"] = q_anisotropy_embeddings

ORACLE_SQL["anisotropy_embeddings"] = """
        WITH u AS (SELECT vec_id,
                          unnest(embedding) AS v,
                          generate_subscripts(embedding, 1) AS dim
                   FROM embeddings),
        q AS (SELECT vec_id, dim,
                     CAST(floor(CAST(v AS DOUBLE) * 1000.0)
                         AS BIGINT) AS x
              FROM u),
        d AS (SELECT dim, CAST(SUM(x) AS BIGINT) AS s,
                     CAST(SUM(x * x) AS BIGINT) AS sq
              FROM q GROUP BY 1)
        SELECT CAST((SELECT COUNT(*) FROM embeddings) AS BIGINT)
                   AS n,
               CAST(SUM(sq) AS BIGINT) AS sum_self_dot,
               CAST(SUM(s * s) - SUM(sq) AS BIGINT)
                   AS pairwise_dot_num
        FROM d
    """



# ---------------------------------------------------------------------------
# predictable_tokens_docs: modal-continuation predictability
# ---------------------------------------------------------------------------

def q_predictable_tokens_docs(sf_dir: str):
    """Most PREDICTABLE tokens: among left tokens with ≥20 bigram
    continuations, the top-10 by modal-continuation share — both
    engines rank by the exact key floor(n_modal·10⁹ / n_left) with
    (token, continuation) ASC ties — high scores mark collocational
    glue ('ice→cream') that a tokenizer should merge and an LM gets
    free. Doc-boundary-respecting bigram partials; only the
    Heaps-bounded pair ledger shuffles; the modal pick is one sort
    inside the ledger. Double window replay."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        split = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(split).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(split).to_numpy(
            zero_copy_only=False)
        did = np.repeat(np.arange(len(lens)), lens)
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
    tot: dict[str, int] = {}
    best: dict[str, tuple] = {}
    for r in ledger:
        a, b, c = r["ta"], r["tb"], int(r["sum(n)"])
        tot[a] = tot.get(a, 0) + c
        cur = best.get(a)
        if cur is None or c > cur[0] or (c == cur[0]
                                         and b < cur[1]):
            best[a] = (c, b)
    rows = []
    for a, t_ in tot.items():
        if t_ < 20:
            continue
        c, b = best[a]
        key = (c * 10**9) // t_
        rows.append((a, b, c, t_, key))
    rows.sort(key=lambda x: (-x[4], x[0], x[1]))
    top = rows[:10]
    return pd.DataFrame(top, columns=["token", "continuation",
                                      "n_modal", "n_left",
                                      "pred_q9"])



QUERIES["predictable_tokens_docs"] = q_predictable_tokens_docs

ORACLE_SQL["predictable_tokens_docs"] = """
        WITH raw AS (SELECT doc_id,
                            unnest(string_split(text, ' ')) AS t,
                            generate_subscripts(
                                string_split(text, ' '), 1) AS i
                     FROM documents),
        w AS (SELECT doc_id, t,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY i) AS rn
              FROM raw WHERE t <> ''),
        p AS (SELECT a.t AS ta, b.t AS tb, COUNT(*) AS n
              FROM w a JOIN w b
                ON b.doc_id = a.doc_id AND b.rn = a.rn + 1
              GROUP BY 1, 2),
        m AS (SELECT ta, tb, n,
                     ROW_NUMBER() OVER (PARTITION BY ta
                         ORDER BY n DESC, tb ASC) AS rn,
                     SUM(n) OVER (PARTITION BY ta) AS tot
              FROM p)
        SELECT ta AS token, tb AS continuation,
               CAST(n AS BIGINT) AS n_modal,
               CAST(tot AS BIGINT) AS n_left,
               CAST((CAST(n AS HUGEINT) * 1000000000) // tot
                   AS BIGINT) AS pred_q9
        FROM m WHERE rn = 1 AND tot >= 20
        ORDER BY pred_q9 DESC, ta ASC, tb ASC LIMIT 10
    """



# ---------------------------------------------------------------------------
# type_mix_daily: user-segment mix per day (exact type bitmasks)
# ---------------------------------------------------------------------------

_TYPE_BITS = ("click", "view", "signup", "purchase", "error")



def q_type_mix_daily(sf_dir: str):
    """Daily segment mix: users per (day, exact event-type SET) —
    the 5-bit mask separating lurkers (view-only) from converters
    (view+click+purchase) day by day, the engagement-mix trend a
    growth dashboard draws. Per-batch (day, user) bitmask OR
    partials (users are day-atomic nowhere, so the OR rides one
    (day,user)-grain shuffle), then masks count at (day, mask)
    grain. Bit-math MAX replay."""
    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    bit = {t: 1 << i for i, t in enumerate(_TYPE_BITS)}

    # arrow has no bit_or aggregate; OR the per-batch masks by hand
    def part_or(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ty = np.asarray(t["event_type"].to_pylist())
        m = np.zeros(len(ty), np.int64)
        for name, b_ in bit.items():
            m[ty == name] = b_
        day = us // DAY
        key = day * (1 << 32) + t["user_id"].to_numpy(
            zero_copy_only=False)
        o = np.argsort(key, kind="stable")
        key, m = key[o], m[o]
        brk = np.r_[True, key[1:] != key[:-1]]
        seg = np.cumsum(brk) - 1
        acc = np.zeros(seg[-1] + 1, np.int64)
        np.bitwise_or.at(acc, seg, m)
        k = key[brk]
        return pa.table({"day": pa.array(k // (1 << 32)),
                         "user_id": pa.array(k % (1 << 32)),
                         "mask": pa.array(acc)})

    def or_fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["day", "user_id"], sort=False)["mask"] \
            .apply(lambda s: int(np.bitwise_or.reduce(
                s.to_numpy(np.int64))))
        idx = g.index.to_frame(index=False)
        return pd.DataFrame({"day": idx["day"].to_numpy(np.int64),
                             "mask": g.to_numpy(np.int64)})

    per_du = (ev.map_batches(part_or, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["day", "user_id"])
              .map_groups(or_fold, batch_format="pandas"))

    def cnt(t: pa.Table) -> pa.Table:
        g = pa.table({"day": t["day"], "mask": t["mask"],
                      "n_users": pa.array(np.ones(len(t),
                                                  np.int64))}) \
            .group_by(["day", "mask"]) \
            .aggregate([("n_users", "sum")])
        return g.rename_columns(["day", "mask", "n_users"])

    out = (per_du.map_batches(cnt, batch_format="pyarrow")
           .groupby(["day", "mask"]).sum("n_users"))
    return _rename(out, ["day", "mask", "n_users"])



QUERIES["type_mix_daily"] = q_type_mix_daily

ORACLE_SQL["type_mix_daily"] = """
        WITH du AS (SELECT
                CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                user_id,
                CAST(MAX(CASE WHEN event_type = 'click'
                              THEN 1 ELSE 0 END)
                   + 2 * MAX(CASE WHEN event_type = 'view'
                                  THEN 1 ELSE 0 END)
                   + 4 * MAX(CASE WHEN event_type = 'signup'
                                  THEN 1 ELSE 0 END)
                   + 8 * MAX(CASE WHEN event_type = 'purchase'
                                  THEN 1 ELSE 0 END)
                   + 16 * MAX(CASE WHEN event_type = 'error'
                                   THEN 1 ELSE 0 END)
                     AS BIGINT) AS mask
            FROM events GROUP BY 1, 2)
        SELECT day, mask, CAST(COUNT(*) AS BIGINT) AS n_users
        FROM du GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# row_trend_images: Mann-Kendall S of the row-mass profile per image
# ---------------------------------------------------------------------------

def q_row_trend_images(sf_dir: str):
    """Vertical luminance trend per image (first 1024): the exact
    Mann–Kendall S statistic Σ_{i<j} sign(row_j − row_i) over the
    row gray-mass profile, plus the tie-pair count — sky-over-ground
    photos trend strongly negative, flat textures sit near 0; the
    orientation prior a thumbnail cropper can use without decoding
    semantics. The h×h sign matrix folds per batch tensor (h ≤ 64,
    so the outer product is tiny); exact integers end to end.
    Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class TrendStage:
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
            out_id, out_s, out_t = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                row = (px.astype(np.int64).sum(axis=3) // 3) \
                    .sum(axis=2)          # (k, h)
                d = np.sign(row[:, None, :] - row[:, :, None])
                iu = np.triu_indices(hi, 1)
                s = d[:, iu[0], iu[1]].sum(axis=1)
                ties = (d[:, iu[0], iu[1]] == 0).sum(axis=1)
                out_id.append(ids[slots])
                out_s.append(s.astype(np.int64))
                out_t.append(ties.astype(np.int64))
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "mk_s": pa.array(np.concatenate(out_s)),
                "n_ties": pa.array(np.concatenate(out_t))})

    return ds.map_batches(TrendStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["row_trend_images"] = q_row_trend_images



def _rowtrend_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for row_trend_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_rowtrend_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                rm = []
                for y in range(hi):
                    acc = 0
                    for x in range(wi):
                        acc += (int(px[j, y, x, 0])
                                + int(px[j, y, x, 1])
                                + int(px[j, y, x, 2])) // 3
                    rm.append(acc)
                s = ties = 0
                for i in range(hi):
                    for k in range(i + 1, hi):
                        d = rm[k] - rm[i]
                        if d > 0:
                            s += 1
                        elif d < 0:
                            s -= 1
                        else:
                            ties += 1
                rows.append({"image_id": str(iid[slot]),
                             "mk_s": s, "n_ties": ties})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rowtrend_sql(img: str) -> str:
    return (f"SELECT image_id, mk_s, n_ties "
            f"FROM read_parquet('{_rowtrend_sidecar(img)}')")



# ---------------------------------------------------------------------------
# audio_halftime: energy quartile times per track
# ---------------------------------------------------------------------------

def q_audio_halftime(sf_dir: str):
    """Energy quartile times per track: the first sample indices
    where the running |amplitude| mass reaches 1/4, 1/2 and 3/4 of
    the track total (4·prefix ≥ k·total — the nucleus discipline on
    the PCM prefix) — front-loaded attacks vs steady beds, the trim
    heuristic an audio curator applies before windowing. One |abs|
    cumsum + three searchsorted picks per stacked tensor. Python-int
    replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class HalfStage:
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
            out = {k: [] for k in ("id", "q1", "q2", "q3")}
            for _, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                a = np.abs(pcm)
                cs = np.cumsum(a, axis=1)
                tot = cs[:, -1]
                qs = []
                for kq in (1, 2, 3):
                    hit = 4 * cs >= kq * tot[:, None]
                    qs.append(np.where(tot > 0,
                                       hit.argmax(axis=1),
                                       np.int64(-1))
                              .astype(np.int64))
                out["id"].append(ids[slots])
                out["q1"].append(qs[0])
                out["q2"].append(qs[1])
                out["q3"].append(qs[2])
            return pa.table({
                "track_id": pa.array(np.concatenate(out["id"])),
                "q1_idx": pa.array(np.concatenate(out["q1"])),
                "q2_idx": pa.array(np.concatenate(out["q2"])),
                "q3_idx": pa.array(np.concatenate(out["q3"]))})

    return ds.map_batches(HalfStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)



QUERIES["audio_halftime"] = q_audio_halftime



def _audio_half_sidecar(aud: str) -> str:
    """Python-int replay for audio_halftime."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_audiohalf_{Path(aud).name}_{_mods_digest(_sy)}"
        ".parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [abs(int(v)) for v in pcm[j].tolist()]
            tot = sum(s)
            idxs = []
            for kq in (1, 2, 3):
                if tot == 0:
                    idxs.append(-1)
                    continue
                acc = 0
                hit = -1
                for i, v in enumerate(s):
                    acc += v
                    if 4 * acc >= kq * tot:
                        hit = i
                        break
                idxs.append(hit)
            rows.append({"track_id": tid, "q1_idx": idxs[0],
                         "q2_idx": idxs[1], "q3_idx": idxs[2]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _audio_half_sql(aud: str) -> str:
    return (f"SELECT track_id, q1_idx, q2_idx, q3_idx "
            f"FROM read_parquet('{_audio_half_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# stop_seq_contiguity: GTFS stop_sequence integrity audit
# ---------------------------------------------------------------------------

def q_stop_seq_contiguity(sf_dir: str):
    """GTFS stop_sequence integrity per trip: min, max, count and
    the pure predicate min = 0 AND max = n−1 AND no duplicates —
    the import-time validation the reference relies on node-gtfs to
    enforce (its toposort assumes clean sequences); the
    line-number-contiguity discipline ported to the transit feed.
    Combinable (min, max, count, distinct-count-via-dedup) partials
    per batch. FULL SQL replay over the fixture parquet."""
    d = _fixture_sql_dir()
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_sequence"])

    def pair_part(t: pa.Table) -> pa.Table:
        tid = np.asarray(t["trip_id"].to_pylist())
        seq = t["stop_sequence"].to_numpy(
            zero_copy_only=False).astype(np.int64)
        u = np.unique(np.stack([tid, seq.astype("U20")], axis=1),
                      axis=0)
        return pa.table({"trip_id": pa.array(u[:, 0]),
                         "seq": pa.array(u[:, 1].astype(np.int64))})

    # global distinct (trip, seq) — a trip may span input batches,
    # so per-batch distinct counts are NOT summable; dedupe first
    pairs = (st.map_batches(pair_part, batch_format="pyarrow")
             .groupby(["trip_id", "seq"]).count())

    BIG = np.int64(1) << 60

    def from_pairs(t: pa.Table) -> pa.Table:
        seq = t["seq"].to_numpy(zero_copy_only=False)
        g = pa.table({"trip_id": t["trip_id"],
                      "mn": pa.array(seq), "mx": pa.array(seq),
                      "nd": pa.array(np.ones(len(seq), np.int64)),
                      "n": pa.array(np.zeros(len(seq), np.int64))}) \
            .group_by("trip_id").aggregate(
                [("mn", "min"), ("mx", "max"), ("nd", "sum"),
                 ("n", "sum")])
        return g.rename_columns(["trip_id", "mn", "mx", "nd", "n"])

    def from_raw(t: pa.Table) -> pa.Table:
        tid = t["trip_id"]
        k = len(t)
        g = pa.table({"trip_id": tid,
                      "mn": pa.array(np.full(k, BIG)),
                      "mx": pa.array(np.full(k, np.int64(-1))),
                      "nd": pa.array(np.zeros(k, np.int64)),
                      "n": pa.array(np.ones(k, np.int64))}) \
            .group_by("trip_id").aggregate(
                [("mn", "min"), ("mx", "max"), ("nd", "sum"),
                 ("n", "sum")])
        return g.rename_columns(["trip_id", "mn", "mx", "nd", "n"])

    both = pairs.map_batches(from_pairs, batch_format="pyarrow") \
        .union(st.map_batches(from_raw, batch_format="pyarrow")) \
        .groupby("trip_id") \
        .aggregate(rd.aggregate.Min("mn"), rd.aggregate.Max("mx"),
                   rd.aggregate.Sum("nd"), rd.aggregate.Sum("n"))

    def final(t: pa.Table) -> pa.Table:
        mn = t["min(mn)"].to_numpy(zero_copy_only=False)
        mx = t["max(mx)"].to_numpy(zero_copy_only=False)
        nd = t["sum(nd)"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False)
        ok = ((mn == 0) & (mx == n - 1) & (nd == n)) \
            .astype(np.int64)
        return pa.table({"trip_id": t["trip_id"],
                         "mn": pa.array(mn.astype(np.int64)),
                         "mx": pa.array(mx.astype(np.int64)),
                         "n": pa.array(n.astype(np.int64)),
                         "is_clean": pa.array(ok)})

    return both.map_batches(final, batch_format="pyarrow")



QUERIES["stop_seq_contiguity"] = q_stop_seq_contiguity



def _stopseq_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        SELECT trip_id,
               CAST(MIN(stop_sequence) AS BIGINT) AS mn,
               CAST(MAX(stop_sequence) AS BIGINT) AS mx,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(CASE WHEN MIN(stop_sequence) = 0
                          AND MAX(stop_sequence) = COUNT(*) - 1
                          AND COUNT(DISTINCT stop_sequence)
                              = COUNT(*)
                         THEN 1 ELSE 0 END AS BIGINT) AS is_clean
        FROM read_parquet('{d}/stop_times.parquet')
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# above_type_avg_parts: correlated-average gate on the part catalog
# ---------------------------------------------------------------------------

def q_above_type_avg_parts(sf_dir: str):
    """Parts priced above their TYPE's average retailprice: per type
    the count above, the count at-or-below, and the maximum excess
    numerator n_type·p_e2 − sum_e2 (the quotient never forms — the
    correlated-scalar-subquery pattern on the one table the fact
    queries treat as a dimension, so the whole op is a two-pass
    type co-partition: one (type → n, sum) ledger, one gate scan
    with the tiny ledger broadcast). Direct SQL replay."""
    pt = _read(sf_dir, "part",
               ["p_partkey", "p_type", "p_retailprice"])

    def stat_part(t: pa.Table) -> pa.Table:
        rp = np.floor(t["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        g = pa.table({"p_type": t["p_type"],
                      "n": pa.array(np.ones(len(rp), np.int64)),
                      "s": pa.array(rp)}) \
            .group_by("p_type").aggregate([("n", "sum"),
                                           ("s", "sum")])
        return g.rename_columns(["p_type", "n", "s"])

    stats = (pt.map_batches(stat_part, batch_format="pyarrow")
             .groupby("p_type").sum(["n", "s"])).take_all()
    smap = {r["p_type"]: (int(r["sum(n)"]), int(r["sum(s)"]))
            for r in stats}
    sref = ray.put(smap)

    def gate(t: pa.Table) -> pa.Table:
        sm = _broadcast(sref)
        ty = np.asarray(t["p_type"].to_pylist())
        rp = np.floor(t["p_retailprice"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        n = np.array([sm[x][0] for x in ty], np.int64)
        s = np.array([sm[x][1] for x in ty], np.int64)
        ex = n * rp - s
        g = pa.table({"p_type": pa.array(ty),
                      "n_above": pa.array((ex > 0).astype(np.int64)),
                      "n_rest": pa.array((ex <= 0).astype(np.int64)),
                      "max_excess_num": pa.array(ex)}) \
            .group_by("p_type").aggregate(
                [("n_above", "sum"), ("n_rest", "sum"),
                 ("max_excess_num", "max")])
        return g.rename_columns(["p_type", "n_above", "n_rest",
                                 "max_excess_num"])

    out = (pt.map_batches(gate, batch_format="pyarrow")
           .groupby("p_type")
           .aggregate(rd.aggregate.Sum("n_above"),
                      rd.aggregate.Sum("n_rest"),
                      rd.aggregate.Max("max_excess_num")))
    return _rename(out, ["p_type", "n_above", "n_rest",
                         "max_excess_num"])



QUERIES["above_type_avg_parts"] = q_above_type_avg_parts

ORACLE_SQL["above_type_avg_parts"] = """
        WITH q AS (SELECT p_type,
                          CAST(floor(p_retailprice * 100.0 + 0.5)
                              AS BIGINT) AS rp
                   FROM part),
        s AS (SELECT p_type, CAST(COUNT(*) AS BIGINT) AS n,
                     CAST(SUM(rp) AS BIGINT) AS sm
              FROM q GROUP BY 1)
        SELECT q.p_type,
               CAST(SUM(CASE WHEN s.n * q.rp - s.sm > 0
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_above,
               CAST(SUM(CASE WHEN s.n * q.rp - s.sm <= 0
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_rest,
               CAST(MAX(s.n * q.rp - s.sm) AS BIGINT)
                   AS max_excess_num
        FROM q JOIN s ON s.p_type = q.p_type
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# daily_growth_streak: longest strictly-growing day run (global)
# ---------------------------------------------------------------------------

def q_daily_growth_streak(sf_dir: str):
    """Longest strictly-GROWING run of daily event totals plus the
    run count — the momentum statistic a growth report quotes
    ('activity grew N days straight'); the monotone-run discipline
    lifted from per-user values to the global day grain, where the
    ledger is tiny and the fact scan contracts to (day, n) partials.
    LAG window replay."""
    DAY = 86_400_000_000
    ev = _read(sf_dir, "events", ["ts"])

    def part(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ud, cd = np.unique(us // DAY, return_counts=True)
        return pa.table({"day": pa.array(ud),
                         "n": pa.array(cd.astype(np.int64))})

    ledger = (ev.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("day").sum("n")).take_all()
    days = np.array([r["day"] for r in ledger], np.int64)
    ns = np.array([r["sum(n)"] for r in ledger], np.int64)
    o = np.argsort(days)
    ns = ns[o]
    if len(ns) == 0:
        return pd.DataFrame({"longest_growth": [0], "n_runs": [0]})
    brk = np.r_[True, ns[1:] <= ns[:-1]]
    isl = np.cumsum(brk) - 1
    lengths = np.bincount(isl)
    return pd.DataFrame({
        "longest_growth": np.array([int(lengths.max())], np.int64),
        "n_runs": np.array([len(lengths)], np.int64)})



QUERIES["daily_growth_streak"] = q_daily_growth_streak

ORACLE_SQL["daily_growth_streak"] = """
        WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000
                       AS BIGINT) AS day,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM events GROUP BY 1),
        l AS (SELECT day, n,
                     LAG(n) OVER (ORDER BY day) AS pn
              FROM d),
        g AS (SELECT day,
                     SUM(CASE WHEN pn IS NULL OR n <= pn
                              THEN 1 ELSE 0 END) OVER (
                         ORDER BY day ROWS BETWEEN UNBOUNDED
                         PRECEDING AND CURRENT ROW) AS isl
              FROM l),
        c AS (SELECT isl, COUNT(*) AS len FROM g GROUP BY 1)
        SELECT CAST(MAX(len) AS BIGINT) AS longest_growth,
               CAST(COUNT(*) AS BIGINT) AS n_runs
        FROM c
    """



# ---------------------------------------------------------------------------
# motion_spikes_clips: median-relative motion spike census
# ---------------------------------------------------------------------------

def q_motion_spikes_clips(sf_dir: str):
    """Motion spike census per clip: the exact LOWER-MEDIAN
    transition energy (element ⌊(f−2)/2⌋ of the sorted f−1 masses —
    stated rank for both engines) and how many transitions exceed
    TWICE it (2·m_t > 2·med ⟺ m_t > med... the spike gate is
    m_t > 2·med, one integer compare) — cuts vs pans: cuts spike
    far above the clip's own baseline. One |diff| + one sort per
    stacked tensor. Python-int replay sidecar."""
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
        out_id, out_m, out_s = [], [], []
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots]) \
                .astype(np.int64)
            m = np.abs(clips[:, 1:] - clips[:, :-1]) \
                .sum(axis=(2, 3, 4))  # (k, f-1)
            med = np.sort(m, axis=1)[:, (f - 2) // 2]
            spikes = (m > 2 * med[:, None]).sum(axis=1)
            out_id.append(ids[slots])
            out_m.append(med.astype(np.int64))
            out_s.append(spikes.astype(np.int64))
        return pa.table({
            "clip_id": pa.array(np.concatenate(out_id)),
            "median_motion": pa.array(np.concatenate(out_m)),
            "n_spikes": pa.array(np.concatenate(out_s))})

    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=32, concurrency=2)



QUERIES["motion_spikes_clips"] = q_motion_spikes_clips



def _motion_spikes_sidecar(vid: str) -> str:
    """Python-int replay for motion_spikes_clips."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_mospikes_{Path(vid).name}_{_mods_digest(_sy)}"
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
            ms = []
            for f in range(nf - 1):
                ms.append(sum(abs(a - b) for a, b in
                              zip(frames[f + 1], frames[f])))
            med = sorted(ms)[(nf - 2) // 2]
            spikes = sum(1 for v in ms if v > 2 * med)
            rows.append({"clip_id": cid, "median_motion": med,
                         "n_spikes": spikes})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _motion_spikes_sql(vid: str) -> str:
    return (f"SELECT clip_id, median_motion, n_spikes "
            f"FROM read_parquet('{_motion_spikes_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# rank_code_cost_docs: Elias-gamma rank-coding cost of the corpus
# ---------------------------------------------------------------------------

def q_rank_code_cost_docs(sf_dir: str):
    """Compression-cost model of the corpus under rank coding: rank
    tokens by (count DESC, token ASC), charge each occurrence the
    Elias-gamma cost 2·bitlen(rank) − 1 bits — an entropy-free,
    exactly-integer stand-in for the cross-entropy a tokenizer/LM
    would pay, comparable across corpora because the code is fixed.
    Reports total bits, token occurrences and vocabulary size. The
    rank assignment happens once on the Heaps-bounded ledger; only
    counts shuffle. ROW_NUMBER + length(bin()) replay."""
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
    toks = np.asarray([r["token"] for r in ledger])
    ns = np.array([r["sum(n)"] for r in ledger], np.int64)
    o = np.lexsort((toks, -ns))
    ns = ns[o]
    rank = np.arange(1, len(ns) + 1, dtype=np.int64)
    bits = (2 * np.frexp(rank.astype(np.float64))[1] - 1) \
        .astype(np.int64)
    total = int((ns * bits).sum())
    return pd.DataFrame({
        "total_bits": np.array([total], np.int64),
        "n_occurrences": np.array([int(ns.sum())], np.int64),
        "vocab": np.array([len(ns)], np.int64)})



QUERIES["rank_code_cost_docs"] = q_rank_code_cost_docs

ORACLE_SQL["rank_code_cost_docs"] = """
        WITH v AS (SELECT t AS token, CAST(COUNT(*) AS BIGINT) AS n
                   FROM (SELECT unnest(string_split(text, ' ')) AS t
                         FROM documents)
                   WHERE t <> '' GROUP BY 1),
        r AS (SELECT n,
                     ROW_NUMBER() OVER (ORDER BY n DESC, token ASC)
                         AS rnk
              FROM v)
        SELECT CAST(SUM(n * (2 * length(bin(rnk)) - 1)) AS BIGINT)
                   AS total_bits,
               CAST(SUM(n) AS BIGINT) AS n_occurrences,
               CAST(COUNT(*) AS BIGINT) AS vocab
        FROM r
    """



# ---------------------------------------------------------------------------
# modal_color_images: exact modal RGB color per image
# ---------------------------------------------------------------------------

def q_modal_color_images(sf_dir: str):
    """Modal color per image (first 1024): the most frequent packed
    24-bit RGB value and its pixel count, smallest color on ties —
    the palette/flat-region signal (screenshots and graphics have
    huge modal shares; photos don't). Vectorized exactly: pack to
    one int per pixel, ONE sort along the pixel axis per size
    group, run-length via diff, per-row argmax of run lengths with
    the tie resolved by the sort order itself (runs ascend by
    color, numpy argmax takes the first = smallest). Scalar replay
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
            out_id, out_c, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                packed = ((px[..., 0] << 16) | (px[..., 1] << 8)
                          | px[..., 2]).reshape(len(slots), -1)
                packed.sort(axis=1)
                k, npx = packed.shape
                brk = np.c_[np.ones((k, 1), bool),
                            packed[:, 1:] != packed[:, :-1]]
                best_n = np.zeros(k, np.int64)
                best_c = np.zeros(k, np.int64)
                for r_ in range(k):
                    st = np.flatnonzero(brk[r_])
                    ln = np.diff(np.r_[st, npx])
                    j = int(ln.argmax())   # first max = smallest col
                    best_n[r_] = ln[j]
                    best_c[r_] = packed[r_, st[j]]
                out_id.append(ids[slots])
                out_c.append(best_c)
                out_n.append(best_n)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "color": pa.array(np.concatenate(out_c)),
                "n_pixels": pa.array(np.concatenate(out_n))})

    return ds.map_batches(ModeStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["modal_color_images"] = q_modal_color_images



def _modalcolor_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for modal_color_images."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_modalcolor_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                cnt: dict[int, int] = {}
                for y in range(hi):
                    for x in range(wi):
                        c = ((int(px[j, y, x, 0]) << 16)
                             | (int(px[j, y, x, 1]) << 8)
                             | int(px[j, y, x, 2]))
                        cnt[c] = cnt.get(c, 0) + 1
                best = sorted(cnt.items(),
                              key=lambda kv: (-kv[1], kv[0]))[0]
                rows.append({"image_id": str(iid[slot]),
                             "color": best[0],
                             "n_pixels": best[1]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _modalcolor_sql(img: str) -> str:
    return (f"SELECT image_id, color, n_pixels "
            f"FROM read_parquet('{_modalcolor_sidecar(img)}')")



# ---------------------------------------------------------------------------
# qty_disc_association: quantity x discount contingency audit
# ---------------------------------------------------------------------------

def q_qty_disc_association(sf_dir: str):
    """Quantity × discount independence audit over lineitem: the
    full contingency table (quantity bands ≤10 / ≤25 / >25 ×
    discount e2 cents) with row/column marginals carried per cell,
    so the chi-square numerator N·o − r·c is one integer expression
    downstream — 'do big orders get deeper discounts' answered
    without a single float. Per-batch cell partials contract the
    scan to the tiny grid; marginals are column sums of that grid
    (the PMI-marginals discipline). Direct SQL replay."""
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def part(t: pa.Table) -> pa.Table:
        q = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        d = np.floor(t["l_discount"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        qb = ((q > 1000).astype(np.int64)
              + (q > 2500).astype(np.int64))
        g = pa.table({"qb": pa.array(qb), "disc_e2": pa.array(d),
                      "n": pa.array(np.ones(len(q), np.int64))}) \
            .group_by(["qb", "disc_e2"]).aggregate([("n", "sum")])
        return g.rename_columns(["qb", "disc_e2", "n"])

    grid = (li.map_batches(part, batch_format="pyarrow")
            .groupby(["qb", "disc_e2"]).sum("n")).take_all()
    qb = np.array([r["qb"] for r in grid], np.int64)
    de = np.array([r["disc_e2"] for r in grid], np.int64)
    n = np.array([r["sum(n)"] for r in grid], np.int64)
    rt = {k: int(n[qb == k].sum()) for k in np.unique(qb)}
    ct = {k: int(n[de == k].sum()) for k in np.unique(de)}
    return pd.DataFrame({
        "qb": qb, "disc_e2": de, "n": n,
        "row_tot": np.array([rt[k] for k in qb], np.int64),
        "col_tot": np.array([ct[k] for k in de], np.int64)})



QUERIES["qty_disc_association"] = q_qty_disc_association

ORACLE_SQL["qty_disc_association"] = """
        WITH q AS (SELECT
                CASE WHEN CAST(floor(l_quantity * 100.0 + 0.5)
                              AS BIGINT) > 2500 THEN 2
                     WHEN CAST(floor(l_quantity * 100.0 + 0.5)
                              AS BIGINT) > 1000 THEN 1
                     ELSE 0 END AS qb,
                CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT)
                    AS disc_e2
            FROM lineitem),
        g AS (SELECT qb, disc_e2, CAST(COUNT(*) AS BIGINT) AS n
              FROM q GROUP BY 1, 2)
        SELECT qb, disc_e2, n,
               CAST(SUM(n) OVER (PARTITION BY qb) AS BIGINT)
                   AS row_tot,
               CAST(SUM(n) OVER (PARTITION BY disc_e2) AS BIGINT)
                   AS col_tot
        FROM g
    """



# ---------------------------------------------------------------------------
# caption_templates_images: digit-collapsed caption boilerplate census
# ---------------------------------------------------------------------------

def q_caption_templates_images(sf_dir: str):
    """Caption boilerplate census: collapse every digit run to '#'
    and count images + distinct raw captions per TEMPLATE — the
    synthetic-caption detector (web-scraped alt-text is diverse;
    generated captions collapse to a handful of templates, which
    tells a curator the text side adds no training signal). One
    vectorized regex replace per batch; distinct raw captions ride
    a (template, caption)-grain dedup before the count (captions
    are row-atomic so batch partials stay mergeable through the
    distinct stage). regexp_replace SQL replay."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["caption"])

    def part(t: pa.Table) -> pa.Table:
        tpl = pc.replace_substring_regex(t["caption"], "[0-9]+",
                                         "#")
        tn = np.asarray(tpl.to_pylist())
        cn = np.asarray(t["caption"].to_pylist())
        u = np.unique(np.stack([tn, cn], axis=1), axis=0)
        cnt_t, cnt_n = np.unique(tn, return_counts=True)
        # n_images partials + distinct (template, caption) pairs
        g1 = pa.table({"template": pa.array(cnt_t),
                       "n_images": pa.array(cnt_n.astype(np.int64)),
                       "caption": pa.array(
                           np.array([""] * len(cnt_t)))})
        g2 = pa.table({"template": pa.array(u[:, 0]),
                       "n_images": pa.array(
                           np.zeros(len(u), np.int64)),
                       "caption": pa.array(u[:, 1])})
        return pa.concat_tables([g1, g2])

    mixed = ds.map_batches(part, batch_format="pyarrow")
    # n_images: sum over the count rows; n_distinct: distinct
    # (template, caption) rows with caption <> ''
    imgs = mixed.groupby("template").sum("n_images")

    def dpart(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t["caption"], pa.scalar(""))
        tt = t.filter(keep)
        u = np.unique(np.stack(
            [np.asarray(tt["template"].to_pylist()),
             np.asarray(tt["caption"].to_pylist())],
            axis=1), axis=0)
        return pa.table({"template": pa.array(u[:, 0]),
                         "caption": pa.array(u[:, 1])})

    dist = (mixed.map_batches(dpart, batch_format="pyarrow")
            .groupby(["template", "caption"]).count())

    def dcount(t: pa.Table) -> pa.Table:
        ut, cnt = np.unique(
            t["template"].to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({"template": pa.array(ut),
                         "n_distinct": pa.array(
                             cnt.astype(np.int64))})

    ndist = dist.map_batches(dcount, batch_format="pyarrow") \
        .groupby("template").sum("n_distinct")

    a = {r["template"]: int(r["sum(n_images)"])
         for r in imgs.take_all()}
    b = {r["template"]: int(r["sum(n_distinct)"])
         for r in ndist.take_all()}
    tpls = sorted(a)
    return pd.DataFrame({
        "template": tpls,
        "n_images": np.array([a[t] for t in tpls], np.int64),
        "n_distinct": np.array([b.get(t, 0) for t in tpls],
                               np.int64)})



QUERIES["caption_templates_images"] = q_caption_templates_images



def _caption_tpl_sql(img_dir: str) -> str:
    return f"""
        WITH c AS (SELECT caption,
                          regexp_replace(caption, '[0-9]+', '#',
                                         'g') AS template
                   FROM read_parquet('{img_dir}/part-*.parquet'))
        SELECT template,
               CAST(COUNT(*) AS BIGINT) AS n_images,
               CAST(COUNT(DISTINCT caption) AS BIGINT)
                   AS n_distinct
        FROM c GROUP BY 1
    """



# ---------------------------------------------------------------------------
# caption_brightness_cov: cross-modal moment audit
# ---------------------------------------------------------------------------

def q_caption_brightness_cov(sf_dir: str):
    """Cross-modal consistency moments (first 1024 images): exact
    integer covariance numerator n·Σxy − Σx·Σy between the caption's
    trailing stop NUMBER (the text side) and the image's total gray
    mass (the pixel side) — in a healthy georeferenced corpus the
    caption's claim correlates with what the pixels show; a shuffled
    (mismatched) corpus reads ≈ 0. One decode pass emits both
    coordinates; the five moments are combinable int64 partials.
    Oracle: scalar-mass sidecar joined to the parquet captions, the
    SAME moment expressions in SQL."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class XmodStage:
        def __init__(self):
            self.decoders = ImageDecodeStage(verify=False).decoders

        def __call__(self, batch: pa.Table) -> pa.Table:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            caps = batch["caption"].to_pylist()
            x = np.array([int(c.rsplit(" ", 1)[-1]) for c in caps],
                         np.int64)
            groups: dict[tuple[int, int], list[int]] = {}
            for i, (wi, hi) in enumerate(zip(ws, hs)):
                groups.setdefault((wi, hi), []).append(i)
            n_tot = 0
            sx = sy = sxy = 0
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots])
                mass = (px.astype(np.int64).sum(axis=3) // 3) \
                    .sum(axis=(1, 2))
                xs = x[slots]
                n_tot += len(slots)
                sx += int(xs.sum())
                sy += int(mass.sum())
                sxy += int((xs * mass).sum())
            return pa.table({"n": pa.array([n_tot], pa.int64()),
                             "sx": pa.array([sx], pa.int64()),
                             "sy": pa.array([sy], pa.int64()),
                             "sxy": pa.array([sxy], pa.int64())})

    parts = ds.map_batches(XmodStage, batch_format="pyarrow",
                           batch_size=256, concurrency=2).take_all()
    n = sum(r["n"] for r in parts)
    sx = sum(r["sx"] for r in parts)
    sy = sum(r["sy"] for r in parts)
    sxy = sum(r["sxy"] for r in parts)
    return pd.DataFrame({
        "n": np.array([n], np.int64),
        "sum_stop": np.array([sx], np.int64),
        "sum_mass": np.array([sy], np.int64),
        "cov_num": np.array([n * sxy - sx * sy], np.int64)})



QUERIES["caption_brightness_cov"] = q_caption_brightness_cov



def _mass_sidecar(img: str, n: int = 1024) -> str:
    """Scalar gray-mass sidecar (shared ground truth for the
    cross-modal moments)."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_graymass_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                m = 0
                for y in range(hi):
                    for x in range(wi):
                        m += (int(px[j, y, x, 0])
                              + int(px[j, y, x, 1])
                              + int(px[j, y, x, 2])) // 3
                rows.append({"image_id": str(iid[slot]), "mass": m})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _xmod_cov_sql(img: str) -> str:
    return f"""
        WITH j AS (SELECT CAST(regexp_extract(p.caption,
                                              '([0-9]+)$', 1)
                              AS BIGINT) AS x,
                          s.mass AS y
                   FROM read_parquet('{img}/part-*.parquet') p
                   JOIN read_parquet('{_mass_sidecar(img)}') s
                     ON s.image_id = p.image_id)
        SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS sum_stop,
               CAST(SUM(y) AS BIGINT) AS sum_mass,
               CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y)
                   AS BIGINT) AS cov_num
        FROM j
    """



# ---------------------------------------------------------------------------
# service_days_gtfs: calendar weekday-mask ledger
# ---------------------------------------------------------------------------

def q_service_days_gtfs(sf_dir: str):
    """GTFS calendar profile: per service_id the 7-bit weekday mask
    (bit 0 = monday … bit 6 = sunday), days-per-week, and the raw
    YYYYMMDD validity span — the service-dimension the reference's
    date filter joins against (its semi-join keeps only trips whose
    service runs on the query date); exposing the mask makes that
    join a bit test. Trivially dimension-scale; included because
    every GTFS consumer needs it and the FULL SQL replay is free."""
    d = _fixture_sql_dir()
    cal = rd.read_parquet(f"{d}/calendar.parquet")

    def part(t: pa.Table) -> pa.Table:
        days = ["monday", "tuesday", "wednesday", "thursday",
                "friday", "saturday", "sunday"]
        mask = np.zeros(len(t), np.int64)
        nd = np.zeros(len(t), np.int64)
        for i, dy in enumerate(days):
            v = t[dy].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            mask |= v << i
            nd += v
        return pa.table({
            "service_id": t["service_id"],
            "weekday_mask": pa.array(mask),
            "days_per_week": pa.array(nd),
            "start_date": t["start_date"].cast(pa.int64()),
            "end_date": t["end_date"].cast(pa.int64())})

    return cal.map_batches(part, batch_format="pyarrow")



QUERIES["service_days_gtfs"] = q_service_days_gtfs



def _service_days_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        SELECT service_id,
               CAST(monday + 2 * tuesday + 4 * wednesday
                    + 8 * thursday + 16 * friday + 32 * saturday
                    + 64 * sunday AS BIGINT) AS weekday_mask,
               CAST(monday + tuesday + wednesday + thursday
                    + friday + saturday + sunday AS BIGINT)
                   AS days_per_week,
               CAST(start_date AS BIGINT) AS start_date,
               CAST(end_date AS BIGINT) AS end_date
        FROM read_parquet('{d}/calendar.parquet')
    """



# ---------------------------------------------------------------------------
# race_to_value_users: earliest cumulative-value threshold crossings
# ---------------------------------------------------------------------------

_RACE_K_E4 = 20_000_000   # 2000.0 on the e4 lattice



def q_race_to_value_users(sf_dir: str):
    """Race-to-value leaderboard: the 10 users whose running event
    value first crossed 2000 (e4 lattice) earliest — ties by
    (crossing ts, event_id, user) — the time-to-milestone metric
    (first to $X) that rewards early intensity where the half-life
    op measures shape. One cumsum + first-crossing pick inside a
    user co-partition; only per-user crossing rows reach the final
    top-k. Window-prefix replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "value"])

    def prep(t: pa.Table) -> pa.Table:
        v = pc.floor(pc.add(pc.multiply(t["value"],
                                        pa.scalar(10000.0)),
                            pa.scalar(0.5))).cast(pa.int64())
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"],
                         "us": t["ts"].cast(pa.int64()), "v": v})

    ds = ev.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        o = np.lexsort((eid, us, u))
        u, us, eid, v = u[o], us[o], eid[o], v[o]
        brk = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(brk)
        seg = np.cumsum(brk) - 1
        cs = np.cumsum(v)
        base = np.r_[np.int64(0), cs][starts]
        pref = cs - base[seg]
        hit = pref >= _RACE_K_E4
        rows = []
        for s_ in range(len(starts)):
            lo = starts[s_]
            hi = starts[s_ + 1] if s_ + 1 < len(starts) else len(u)
            h = hit[lo:hi]
            if h.any():
                j = lo + int(np.argmax(h))
                rows.append((int(u[lo]), int(us[j]), int(eid[j]),
                             int(pref[j])))
        return pd.DataFrame(rows, columns=["user_id", "cross_us",
                                           "cross_event",
                                           "cum_v_e4"])

    per_user = (_with_bucket(ds, "user_id", 32)
                .groupby("bucket").map_groups(
                    fold, batch_format="pandas")).take_all()
    rows = sorted(((r["cross_us"], r["cross_event"], r["user_id"],
                    r["cum_v_e4"]) for r in per_user))[:10]
    return pd.DataFrame(
        [(r[2], r[0], r[1], r[3]) for r in rows],
        columns=["user_id", "cross_us", "cross_event", "cum_v_e4"])



QUERIES["race_to_value_users"] = q_race_to_value_users

ORACLE_SQL["race_to_value_users"] = """
        WITH f AS (SELECT user_id, event_id,
                          CAST(epoch_us(ts) AS BIGINT) AS us,
                          CAST(floor(value * 10000.0 + 0.5)
                              AS BIGINT) AS v
                   FROM events),
        w AS (SELECT user_id, event_id, us,
                     SUM(v) OVER (PARTITION BY user_id
                         ORDER BY us, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS pref
              FROM f),
        h AS (SELECT user_id, us, event_id, pref,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                         ORDER BY us, event_id) AS rn_in,
                     ROW_NUMBER() OVER (PARTITION BY user_id,
                         CASE WHEN pref >= 20000000 THEN 1
                              ELSE 0 END
                         ORDER BY us, event_id) AS rn_hit
              FROM w WHERE pref >= 20000000)
        SELECT user_id, CAST(us AS BIGINT) AS cross_us,
               event_id AS cross_event,
               CAST(pref AS BIGINT) AS cum_v_e4
        FROM h WHERE rn_hit = 1
        ORDER BY cross_us, cross_event, user_id LIMIT 10
    """



# ---------------------------------------------------------------------------
# channel_order_census: RGB ordering census per image
# ---------------------------------------------------------------------------

def q_channel_order_census(sf_dir: str):
    """Channel-ordering census per image (first 1024): pixel counts
    for the six strict orderings of (r, g, b) plus a ties bucket —
    the hue-regime fingerprint (warm images live in r>g>b, cool in
    b>g>r; graphics show fat tie buckets from saturated primaries).
    Three vectorized compares classify every pixel; exact counts.
    Long (image_id, ordering, n) output; ordering 0..5 =
    rgb,rbg,grb,gbr,brg,bgr, 6 = any tie. Scalar replay sidecar."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class OrderStage:
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
            out_id, out_o, out_n = [], [], []
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                r, g, b = px[..., 0], px[..., 1], px[..., 2]
                tie = (r == g) | (g == b) | (r == b)
                code = np.full(r.shape, 6, np.int64)
                code[(r > g) & (g > b)] = 0
                code[(r > b) & (b > g)] = 1
                code[(g > r) & (r > b)] = 2
                code[(g > b) & (b > r)] = 3
                code[(b > r) & (r > g)] = 4
                code[(b > g) & (g > r)] = 5
                code[tie] = 6
                k = len(slots)
                cnt = np.zeros((k, 7), np.int64)
                for c in range(7):
                    cnt[:, c] = (code == c).sum(axis=(1, 2))
                for c in range(7):
                    out_id.append(ids[slots])
                    out_o.append(np.full(k, c, np.int64))
                    out_n.append(cnt[:, c])
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                "ordering": pa.array(np.concatenate(out_o)),
                "n": pa.array(np.concatenate(out_n))})

    return ds.map_batches(OrderStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["channel_order_census"] = q_channel_order_census



def _chanorder_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for channel_order_census."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_chanorder_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                cnt = [0] * 7
                for y in range(hi):
                    for x in range(wi):
                        r = int(px[j, y, x, 0])
                        g = int(px[j, y, x, 1])
                        b = int(px[j, y, x, 2])
                        if r == g or g == b or r == b:
                            cnt[6] += 1
                        elif r > g > b:
                            cnt[0] += 1
                        elif r > b > g:
                            cnt[1] += 1
                        elif g > r > b:
                            cnt[2] += 1
                        elif g > b > r:
                            cnt[3] += 1
                        elif b > r > g:
                            cnt[4] += 1
                        else:
                            cnt[5] += 1
                for c in range(7):
                    rows.append({"image_id": str(iid[slot]),
                                 "ordering": c, "n": cnt[c]})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _chanorder_sql(img: str) -> str:
    return (f"SELECT image_id, ordering, n "
            f"FROM read_parquet('{_chanorder_sidecar(img)}')")



# ---------------------------------------------------------------------------
# nn_margin_audit: 1NN/2NN distance-margin (hubness) audit
# ---------------------------------------------------------------------------

_NNM_Q = 64



def q_nn_margin_audit(sf_dir: str):
    """Nearest-neighbour margin audit over the first 64 vectors (by
    vec_id): exact e6-lattice squared distances to the 1st and 2nd
    neighbour, and the ambiguity flag d2_2nd < 2·d2_1st — a corpus
    where most queries are 'ambiguous' has weak NN structure and
    ANN recall targets must tighten (the local-intrinsic-dimension
    triage). Queries broadcast once; every batch contributes a
    partial top-2 per query (mergeable), so the corpus streams
    exactly once. Exact-distance self-join SQL replay bounded to
    the 64-query side."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    import pyarrow.parquet as pq_

    qt = pq_.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    order = pc.sort_indices(qt["vec_id"])[:_NNM_Q]
    qids = qt["vec_id"].take(order).to_numpy(zero_copy_only=False)
    Q = np.floor(np.stack(
        qt["embedding"].take(order).to_numpy(zero_copy_only=False))
        .astype(np.float64) * 1_000_000.0).astype(np.int64)
    qref = ray.put((qids, Q))

    def part(t: pa.Table) -> pa.Table:
        qids_, Q_ = _broadcast(qref)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        V = np.floor(np.stack(
            t["embedding"].to_numpy(zero_copy_only=False))
            .astype(np.float64) * 1_000_000.0).astype(np.int64)
        d2 = ((Q_ * Q_).sum(axis=1)[:, None]
              + (V * V).sum(axis=1)[None, :] - 2 * (Q_ @ V.T))
        out_q, out_d, out_i = [], [], []
        for qi in range(len(qids_)):
            row = d2[qi]
            keep = ids != qids_[qi]
            rid = ids[keep]
            rd = row[keep]
            if len(rd) == 0:
                continue
            o = np.lexsort((rid, rd))[:2]
            out_q.append(np.full(len(o), qids_[qi], np.int64))
            out_d.append(rd[o])
            out_i.append(rid[o])
        if not out_q:
            return pa.table({"q": pa.array([], pa.int64()),
                             "d2": pa.array([], pa.int64()),
                             "nn": pa.array([], pa.int64())})
        return pa.table({
            "q": pa.array(np.concatenate(out_q)),
            "d2": pa.array(np.concatenate(out_d)),
            "nn": pa.array(np.concatenate(out_i))})

    parts = emb.map_batches(part,
                            batch_format="pyarrow").take_all()
    best: dict[int, list] = {}
    for r in parts:
        best.setdefault(int(r["q"]), []).append(
            (int(r["d2"]), int(r["nn"])))
    rows = []
    for q in sorted(best):
        top = sorted(set(best[q]))[:2]
        if len(top) < 2:
            continue
        (d1, n1), (d2_, n2) = top
        rows.append((q, n1, d1, n2, d2_,
                     1 if d2_ < 2 * d1 else 0))
    return pd.DataFrame(rows, columns=[
        "vec_id", "nn1", "d2_1", "nn2", "d2_2", "ambiguous"])



QUERIES["nn_margin_audit"] = q_nn_margin_audit

ORACLE_SQL["nn_margin_audit"] = f"""
        WITH q AS (SELECT vec_id, embedding FROM embeddings
                   ORDER BY vec_id LIMIT {_NNM_Q}),
        qe AS (SELECT q.vec_id AS qid, dim,
                      CAST(floor(CAST(v AS DOUBLE) * 1000000.0)
                          AS BIGINT) AS x
               FROM q, LATERAL (SELECT unnest(q.embedding) AS v,
                                generate_subscripts(q.embedding, 1)
                                    AS dim)),
        ce AS (SELECT vec_id AS cid, dim2 AS dim,
                      CAST(floor(CAST(v2 AS DOUBLE) * 1000000.0)
                          AS BIGINT) AS y
               FROM embeddings,
                    LATERAL (SELECT unnest(embedding) AS v2,
                             generate_subscripts(embedding, 1)
                                 AS dim2)),
        d AS (SELECT qe.qid, ce.cid,
                     CAST(SUM((qe.x - ce.y) * (qe.x - ce.y))
                         AS BIGINT) AS d2
              FROM qe JOIN ce USING (dim)
              WHERE qe.qid <> ce.cid
              GROUP BY 1, 2),
        r AS (SELECT qid, cid, d2,
                     ROW_NUMBER() OVER (PARTITION BY qid
                         ORDER BY d2, cid) AS rn
              FROM d)
        SELECT a.qid AS vec_id, a.cid AS nn1,
               CAST(a.d2 AS BIGINT) AS d2_1,
               b.cid AS nn2, CAST(b.d2 AS BIGINT) AS d2_2,
               CAST(CASE WHEN b.d2 < 2 * a.d2 THEN 1 ELSE 0 END
                   AS BIGINT) AS ambiguous
        FROM r a JOIN r b ON b.qid = a.qid AND b.rn = 2
        WHERE a.rn = 1
    """



# ---------------------------------------------------------------------------
# boilerplate_shingles_docs: repeated token-4-gram boilerplate census
# ---------------------------------------------------------------------------


def q_boilerplate_shingles_docs(sf_dir: str):
    """Boilerplate shingle census: the top-20 token 4-grams that occur
    in >= 2 DISTINCT docs, ranked by (doc count DESC, shingle ASC)
    with total occurrences carried — the sub-document dedup signal
    (navigation chrome, generated templates, contaminated spans) that
    doc-grain dedup can't see and that a boilerplate-removal /
    decontamination stage keys on. Plan: whitespace split + ragged
    4-window explode per batch (one vectorized ragged-arange, join via
    binary_join_element_wise — no python loop), (shingle, doc) partial
    counts, one (shingle, doc)-grain shuffle for the exact distinct, a
    second contraction to shingle grain, then distributed sort + limit
    over the >= 2-docs subset (bounded by the repeated-shingle ledger,
    never the corpus). list-slice + COUNT(DISTINCT) replay."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(t["text"]), r"\s+")
        flat = pc.list_flatten(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        m = np.maximum(lens - 3, 0)
        tot = int(m.sum())
        if tot == 0:
            return pa.table({"shingle": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        seg = np.repeat(np.arange(len(m)), m)
        mstart = np.concatenate(([0], np.cumsum(m)[:-1]))
        local = np.arange(tot) - mstart[seg]
        i0 = starts[seg] + local
        sh = pc.binary_join_element_wise(
            flat.take(pa.array(i0)), flat.take(pa.array(i0 + 1)),
            flat.take(pa.array(i0 + 2)), flat.take(pa.array(i0 + 3)),
            " ")
        doc = t["doc_id"].to_numpy(zero_copy_only=False)[seg]
        g = pa.table({"shingle": sh, "doc_id": pa.array(doc)}) \
            .group_by(["shingle", "doc_id"]).aggregate(
                [([], "count_all")])
        return g.rename_columns(["shingle", "doc_id", "n"])

    ledger = (ds.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["shingle", "doc_id"]).sum("n"))

    def contract(t: pa.Table) -> pa.Table:
        g = pa.table({
            "shingle": t["shingle"],
            "n_docs": pa.array(np.ones(len(t), np.int64)),
            "n_occ": t["sum(n)"].cast(pa.int64()),
        }).group_by("shingle").aggregate([("n_docs", "sum"),
                                          ("n_occ", "sum")])
        return g.rename_columns(["shingle", "n_docs", "n_occ"])

    per_shingle = (ledger.map_batches(contract, batch_format="pyarrow")
                   .groupby("shingle").sum(["n_docs", "n_occ"]))
    per_shingle = _rename(per_shingle, ["shingle", "n_docs", "n_occ"])

    def repeated(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_docs"], pa.scalar(2)))

    return (per_shingle.map_batches(repeated, batch_format="pyarrow")
            .sort(["n_docs", "shingle"], descending=[True, False])
            .limit(20))



QUERIES["boilerplate_shingles_docs"] = q_boilerplate_shingles_docs

ORACLE_SQL["boilerplate_shingles_docs"] = """
        WITH tok AS (SELECT doc_id,
                            string_split_regex(trim(text), '\\s+') AS ts
                     FROM documents),
        sh AS (SELECT doc_id,
                      array_to_string(ts[i:i+3], ' ') AS shingle
               FROM tok,
                    LATERAL (SELECT unnest(generate_series(
                        1, len(ts) - 3)) AS i)),
        g AS (SELECT shingle,
                     CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs,
                     CAST(COUNT(*) AS BIGINT) AS n_occ
              FROM sh GROUP BY 1)
        SELECT shingle, n_docs, n_occ FROM g
        WHERE n_docs >= 2
        ORDER BY n_docs DESC, shingle
        LIMIT 20
    """



# ---------------------------------------------------------------------------
# cohort_retention_matrix: (first-day cohort x day offset) distinct users
# ---------------------------------------------------------------------------


def q_cohort_retention_matrix(sf_dir: str):
    """Classic cohort retention triangle: group users by their FIRST
    active day (the cohort), then for every (cohort_day, day_offset)
    cell count how many of that cohort were active offset days later —
    the product-analytics retention report, exact at day grain. Plan:
    per-batch (user, day) Arrow dedup partials, one user co-partition
    (each user's full timeline in one group) where the cohort day is
    the segment minimum after one lexsort, per-group (cohort, offset)
    count partials, then a cell-grain sum — raw events never leave the
    first contraction, and the final shuffle is day^2-bounded.
    MIN() OVER (PARTITION BY user) replay."""
    from battery.ops.relational import _with_bucket

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days(t: pa.Table) -> pa.Table:
        d = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"user_id": t["user_id"], "day": d}).group_by(
            ["user_id", "day"]).aggregate([])

    pairs = ev.map_batches(days, batch_format="pyarrow",
                           zero_copy_batch=True)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].to_numpy(np.int64)
        d = df["day"].to_numpy(np.int64)
        order = np.lexsort([d, u])
        u, d = u[order], d[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        u, d = u[keep], d[keep]
        brk = np.r_[True, u[1:] != u[:-1]]
        seg = np.cumsum(brk) - 1
        cohort = d[np.flatnonzero(brk)][seg]
        off = d - cohort
        # pack (cohort, offset): offsets are day-range bounded < 2^20
        k = cohort * (1 << 20) + off
        uniq, cnt = np.unique(k, return_counts=True)
        return pd.DataFrame({
            "cohort_day": uniq >> 20,
            "day_offset": uniq & ((1 << 20) - 1),
            "n_users": cnt.astype(np.int64)})

    out = (_with_bucket(pairs, "user_id", 32)
           .groupby("bucket").map_groups(fold, batch_format="pandas")
           .groupby(["cohort_day", "day_offset"]).sum("n_users"))
    return _rename(out, ["cohort_day", "day_offset", "n_users"])



QUERIES["cohort_retention_matrix"] = q_cohort_retention_matrix

ORACLE_SQL["cohort_retention_matrix"] = """
        WITH ud AS (SELECT DISTINCT user_id,
                           epoch_us(ts) // 86400000000 AS day
                    FROM events),
        c AS (SELECT user_id, day,
                     MIN(day) OVER (PARTITION BY user_id) AS cohort
              FROM ud)
        SELECT CAST(cohort AS BIGINT) AS cohort_day,
               CAST(day - cohort AS BIGINT) AS day_offset,
               CAST(count(*) AS BIGINT) AS n_users
        FROM c GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# euler_quad_images: 2x2-quad census + Euler number per image
# ---------------------------------------------------------------------------


def q_euler_quad_images(sf_dir: str):
    """Topology census per image (first 1024): binarize at gray mass
    r+g+b >= 384, pad with background, count the 2x2 quad patterns —
    Q1 (exactly one foreground corner), Q3 (exactly three), QD (the
    two diagonal configurations) — and report Gray's exact Euler
    numbers E4 = (Q1 - Q3 + 2 QD)/4 and E8 = (Q1 - Q3 - 2 QD)/4
    (components minus holes under each connectivity). The
    hole-vs-blob signal that separates ring/outline graphics from
    solid photos, computed without any labeling pass: four shifted
    views + three vectorized compares per size group. Scalar replay
    sidecar (independent python quad walk)."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir)).limit(1024)

    class EulerStage:
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
            out_id, cols = [], {k: [] for k in
                                ("q1", "q3", "qd", "euler4", "euler8")}
            for (wi, hi), slots in groups.items():
                px = np.stack([self.decoders[fmts[i]](payloads[i],
                                                      wi, hi)
                               for i in slots]).astype(np.int64)
                fg = (px.sum(axis=-1) >= 384).astype(np.int64)
                p = np.pad(fg, ((0, 0), (1, 1), (1, 1)))
                a = p[:, :-1, :-1]
                b = p[:, :-1, 1:]
                c = p[:, 1:, :-1]
                d = p[:, 1:, 1:]
                s = a + b + c + d
                q1 = (s == 1).sum(axis=(1, 2))
                q3 = (s == 3).sum(axis=(1, 2))
                qd = ((s == 2) & (a == d) & (a != b)).sum(axis=(1, 2))
                out_id.append(ids[slots])
                cols["q1"].append(q1)
                cols["q3"].append(q3)
                cols["qd"].append(qd)
                cols["euler4"].append((q1 - q3 + 2 * qd) // 4)
                cols["euler8"].append((q1 - q3 - 2 * qd) // 4)
            return pa.table({
                "image_id": pa.array(np.concatenate(out_id)),
                **{k: pa.array(np.concatenate(v).astype(np.int64))
                   for k, v in cols.items()}})

    return ds.map_batches(EulerStage, batch_format="pyarrow",
                          batch_size=256, concurrency=2)



QUERIES["euler_quad_images"] = q_euler_quad_images



def _euler_sidecar(img: str, n: int = 1024) -> str:
    """Scalar replay for euler_quad_images: independent python quad
    walk over the padded binary lattice (same Gray formula, no numpy
    views)."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from pathlib import Path as _P

    p = _oracle_cache_dir() / (
        f"oracle_euler_{_P(img).name}_{n}_{_mods_digest(_sy)}"
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
                def fg(y: int, x: int) -> int:
                    if 0 <= y < hi and 0 <= x < wi:
                        s = (int(px[j, y, x, 0]) + int(px[j, y, x, 1])
                             + int(px[j, y, x, 2]))
                        return 1 if s >= 384 else 0
                    return 0

                q1 = q3 = qd = 0
                for y in range(-1, hi):
                    for x in range(-1, wi):
                        aa = fg(y, x)
                        bb = fg(y, x + 1)
                        cc = fg(y + 1, x)
                        dd = fg(y + 1, x + 1)
                        tot = aa + bb + cc + dd
                        if tot == 1:
                            q1 += 1
                        elif tot == 3:
                            q3 += 1
                        elif tot == 2 and aa == dd and aa != bb:
                            qd += 1
                rows.append({"image_id": str(iid[slot]),
                             "q1": q1, "q3": q3, "qd": qd,
                             "euler4": (q1 - q3 + 2 * qd) // 4,
                             "euler8": (q1 - q3 - 2 * qd) // 4})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _euler_sql(img: str) -> str:
    return (f"SELECT image_id, q1, q3, qd, euler4, euler8 "
            f"FROM read_parquet('{_euler_sidecar(img)}')")



# ---------------------------------------------------------------------------
# audio_crest_factor: crest/DC gain-staging audit per track
# ---------------------------------------------------------------------------


def q_audio_crest_factor(sf_dir: str):
    """Crest-factor + DC-offset audit per track: peak |s|, exact
    energy Σs², DC sum Σs, and the crest class from the integer
    cross-multiply peak²·n vs {4, 16}·energy (crest² = peak²·n /
    energy, the quotient never forms) — class 0 is dense/compressed
    material, 2 is sparse/peaky; DC bias marks a broken recording
    chain. The loudness-normalization triage before audio features
    are trusted. Bounds: energy ≤ 4096·2³⁰ < 2⁴², peak²·n·16 < 2⁴⁷ —
    int64-exact throughout. One |max| + two sums per stacked tensor.
    Python-int replay sidecar."""
    from battery.ops.audio import AudioFrameStage, read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    class CrestStage:
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
            out = {k: [] for k in ("track_id", "peak", "energy",
                                   "dc", "crest_class")}
            for length, slots in groups.items():
                pcm = np.stack([rows[i] for i in slots]) \
                    .astype(np.int64)
                peak = np.abs(pcm).max(axis=1)
                energy = (pcm * pcm).sum(axis=1)
                dc = pcm.sum(axis=1)
                lhs = peak * peak * np.int64(length)
                cls = np.where(lhs < 4 * energy, 0,
                               np.where(lhs < 16 * energy, 1, 2)) \
                    .astype(np.int64)
                out["track_id"].append(ids[slots])
                out["peak"].append(peak)
                out["energy"].append(energy)
                out["dc"].append(dc)
                out["crest_class"].append(cls)
            return pa.table({k: pa.array(np.concatenate(v))
                             for k, v in out.items()})

    return ds.map_batches(CrestStage, batch_format="pyarrow",
                          batch_size=64, concurrency=2)

__defined__ = (
    '_CLIP_T',
    '_KCENTER_K',
    '_KMVJ_K',
    '_MORAVEC_T',
    '_NNM_Q',
    '_PACK_C',
    '_RACE_K_E4',
    '_TRACE_PITCH',
    '_TYPE_BITS',
    '_XFER_G',
    '_XFER_R2',
    '_audio_clip_sidecar',
    '_audio_clip_sql',
    '_audio_half_sidecar',
    '_audio_half_sql',
    '_audio_requant_sidecar',
    '_audio_requant_sql',
    '_audio_runs_sidecar',
    '_audio_runs_sql',
    '_bipartite_sidecar',
    '_bipartite_sql',
    '_bitplane_sidecar',
    '_bitplane_sql',
    '_blockiness_sidecar',
    '_blockiness_sql',
    '_brightblock_sidecar',
    '_brightblock_sql',
    '_caption_tpl_sql',
    '_chancorr_sidecar',
    '_chancorr_sql',
    '_chanorder_sidecar',
    '_chanorder_sql',
    '_coloring_sidecar',
    '_coloring_sql',
    '_colperiod_sidecar',
    '_colperiod_sql',
    '_euler_sidecar',
    '_euler_sql',
    '_f2_sidecar',
    '_f2_sql',
    '_kcenter_sidecar',
    '_kcenter_sql',
    '_kmvj_sidecar',
    '_kmvj_sql',
    '_labelprop_sidecar',
    '_labelprop_sql',
    '_mass_sidecar',
    '_matching_sidecar',
    '_matching_sql',
    '_medfilt_sql',
    '_modalcolor_sidecar',
    '_modalcolor_sql',
    '_moravec_sidecar',
    '_moravec_sql',
    '_motion_centroid_sidecar',
    '_motion_centroid_sql',
    '_motion_spikes_sidecar',
    '_motion_spikes_sql',
    '_packing_sidecar',
    '_packing_sql',
    '_perimeter_sql',
    '_rowtrend_sidecar',
    '_rowtrend_sql',
    '_service_days_sql',
    '_soundex_sidecar',
    '_soundex_sql',
    '_stopseq_sql',
    '_strat_sample_sql',
    '_trace_sidecar',
    '_trace_sql',
    '_trip_len_sql',
    '_video_sym_sidecar',
    '_video_sym_sql',
    '_xfer_sql',
    '_xmod_cov_sql',
    'q_above_type_avg_parts',
    'q_activity_halflife_users',
    'q_anisotropy_embeddings',
    'q_audio_clipping_audit',
    'q_audio_crest_factor',
    'q_audio_halftime',
    'q_audio_monotone_runs',
    'q_audio_requant_audit',
    'q_bipartite_audit_dups',
    'q_bitplane_census_images',
    'q_blockiness_images',
    'q_boilerplate_shingles_docs',
    'q_brightest_block_images',
    'q_caption_brightness_cov',
    'q_caption_templates_images',
    'q_channel_corr_images',
    'q_channel_order_census',
    'q_cohort_retention_matrix',
    'q_column_period_images',
    'q_coverage_perimeter_cells',
    'q_daily_growth_streak',
    'q_euler_quad_images',
    'q_f2_sketch_users',
    'q_first_token_lift_docs',
    'q_greedy_coloring_dups',
    'q_greedy_matching_dups',
    'q_hour_uniformity_types',
    'q_kanon_users',
    'q_kcenter_seeds_embeddings',
    'q_kmv_jaccard_types',
    'q_lang_runs_sources',
    'q_majority_label_prop_dups',
    'q_markup_audit_brands',
    'q_modal_color_images',
    'q_moravec_corners_images',
    'q_motion_centroid_clips',
    'q_motion_spikes_clips',
    'q_nn_margin_audit',
    'q_order_backlog_curve',
    'q_packing_plan_sources',
    'q_predictable_tokens_docs',
    'q_qty_disc_association',
    'q_race_to_value_users',
    'q_rank_code_cost_docs',
    'q_return_rate_brands',
    'q_row_trend_images',
    'q_second_order_latency',
    'q_service_days_gtfs',
    'q_shape_cell_trace',
    'q_ship_lag_buckets_priority',
    'q_soundex_classes_docs',
    'q_source_chargram_l1',
    'q_stop_seq_contiguity',
    'q_stop_transfer_pairs',
    'q_stratified_cell_sample',
    'q_supplier_value_gate_q11',
    'q_token_reuse_distance_docs',
    'q_trip_length_hist',
    'q_type_mix_daily',
    'q_video_time_symmetry',
)
