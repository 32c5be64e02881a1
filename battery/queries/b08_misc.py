"""Query battery part — 54 driver queries (split from the former single-module queries.py).

Registers:
route_loop_audit, order_total_reconciliation, rich_club_dups,
dom_seasonality_purchases, palindrome_census_docs,
part_pair_lift_orders, lis_customer_orders, huffman_cost_sources,
emd_weekend_weekday, naive_lag_mae_daily,
percentile_mismatch_customers, fano_factor_types, lz78_parse_sources,
eulerian_audit_routes, distinct_substrings_docs,
hash_bucket_load_orders, pack_size_gcd_parts, simpson_strata_brands,
bridges_dups, audio_predictor_order_audit, rle_sort_benefit_lineitem,
stop_service_span, bwt_runs_sources, gorilla_ts_bits_users,
roaring_container_census, phash_hubness_images, elias_fano_bits_users,
fleet_size_routes, lyndon_factors_sources, video_cut_audit,
alias_table_nations, voptimal_hist_weekly,
lsh_bucket_balance_embeddings, buffer_area_audit_routes,
cube_status_priority, frechet_direction_gap_routes,
multi_distinct_orders, km_survival_weeks, csa_earliest_arrival,
merkle_root_orders, skyline_parts, lrs_census_sources,
varint_posting_bytes_users, lcs_adjacent_docs,
lsm_compaction_sim_daily, ring_rebalance_orders, ima_adpcm_tracks,
dither_fs_images, band_pair_census_orders, h_index_nations,
persistence_census_images, gop_plan_clips, chamfer_label_pairs,
theil_sen_customers
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
    _fixture_ctx,
    _fixture_sql_dir,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _oracle_edges_path,
    _read,
    _rename,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b03_misc import (
    _video_dir_for,
)  # noqa: F401

from .b04_misc import (
    _popcount64,
)  # noqa: F401

from .b07_misc import (
    q_route_loop_audit,
)  # noqa: F401



QUERIES["route_loop_audit"] = q_route_loop_audit



def _route_loop_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH v AS (SELECT trip_id, stop_id,
                          CAST(COUNT(*) AS BIGINT) AS k
                   FROM read_parquet('{d}/stop_times.parquet')
                   GROUP BY 1, 2),
        tr AS (SELECT trip_id, CAST(MAX(k) AS BIGINT) AS mx
               FROM v GROUP BY 1)
        SELECT t.route_id,
               CAST(COUNT(*) AS BIGINT) AS n_trips,
               CAST(SUM(CASE WHEN tr.mx > 1 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_loop_trips,
               CAST(MAX(tr.mx) AS BIGINT) AS max_visits
        FROM tr JOIN read_parquet('{d}/trips.parquet') t
          USING (trip_id)
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# order_total_reconciliation: header-vs-lines invoice integrity
# ---------------------------------------------------------------------------


def q_order_total_reconciliation(sf_dir: str):
    """Header-vs-lines reconciliation — the invoice-integrity check
    every billing migration runs: recompute each order's total from
    its lineitems as Σ round(extended·(1−disc)·(1+tax)) on the e2
    lattice and compare to the stored o_totalprice; report the
    histogram of |difference| in bit-length bands (band −1 = exact
    match) plus childless orders as their own class. Line partials
    contract to orderkey grain, the header side joins through the
    32-bucket hash join (both sides large — never a broadcast of
    orders). Same integer expression tree in SQL."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_tax"])

    def lpart(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        tx = t["l_tax"].to_numpy(zero_copy_only=False)
        cents = np.floor(ep * (1.0 - dc) * (1.0 + tx) * 100.0
                         + 0.5).astype(np.int64)
        g = pa.table({"l_orderkey": t["l_orderkey"],
                      "cents": pa.array(cents)}) \
            .group_by("l_orderkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_orderkey", "cents"])

    lsum = (li.map_batches(lpart, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("l_orderkey").sum("cents")) \
        .map_batches(lambda t: t.rename_columns(
            ["l_orderkey", "cents"]), batch_format="pyarrow") \
        .materialize()

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def opart(t: pa.Table) -> pa.Table:
        tp = np.floor(t["o_totalprice"]
                      .to_numpy(zero_copy_only=False) * 100.0
                      + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "total_cents": pa.array(tp)})

    ohdr = orders.map_batches(opart, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    joined = bucketed_join(ohdr, lsum, "o_orderkey", "l_orderkey",
                           how="left")

    def band(t: pa.Table) -> pa.Table:
        tot = t["total_cents"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        childless = np.isnan(cents.astype(np.float64)) \
            if cents.dtype.kind == "f" else pc.is_null(
                t["cents"]).to_numpy(zero_copy_only=False)
        diff = np.where(childless, 0,
                        np.abs(tot - np.nan_to_num(
                            cents.astype(np.float64)))).astype(
                                np.int64)
        b = np.where(childless, -2,
                     np.where(diff == 0, -1,
                              np.frexp(diff.astype(
                                  np.float64))[1])).astype(np.int64)
        u, c = np.unique(b, return_counts=True)
        return pa.table({"band": pa.array(u),
                         "n_orders": pa.array(c.astype(np.int64))})

    out = joined.map_batches(band, batch_format="pyarrow") \
        .groupby("band").sum("n_orders")
    return _rename(out, ["band", "n_orders"])



QUERIES["order_total_reconciliation"] = q_order_total_reconciliation

ORACLE_SQL["order_total_reconciliation"] = """
        WITH ls AS (SELECT l_orderkey,
                           CAST(SUM(CAST(floor(
                               l_extendedprice * (1.0 - l_discount)
                               * (1.0 + l_tax) * 100.0 + 0.5)
                               AS BIGINT)) AS BIGINT) AS cents
                    FROM lineitem GROUP BY 1),
        j AS (SELECT CAST(floor(o.o_totalprice * 100.0 + 0.5)
                         AS BIGINT) AS tot, ls.cents
              FROM orders o LEFT JOIN ls
                ON ls.l_orderkey = o.o_orderkey),
        b AS (SELECT CASE WHEN cents IS NULL THEN -2
                          WHEN abs(tot - cents) = 0 THEN -1
                          ELSE length(bin(abs(tot - cents)))
                     END AS band
              FROM j)
        SELECT CAST(band AS BIGINT) AS band,
               CAST(COUNT(*) AS BIGINT) AS n_orders
        FROM b GROUP BY 1
    """



# ---------------------------------------------------------------------------
# rich_club_dups: hub-interconnection coefficient of the dup graph
# ---------------------------------------------------------------------------


def q_rich_club_dups(sf_dir: str):
    """Rich-club audit of the near-dup graph: take the 8 highest-
    degree nodes (ties to smaller id) and count the edges AMONG them
    vs the C(8,2) possible — a rich-club near 1 means the heaviest
    duplicates form one tangled template family (collapse them
    first); near 0 means hubs head separate clusters and parallel
    canonicalization is safe. Reports k, the minimum hub degree, hub
    edges and possible pairs. Degrees fold from the distributed pair
    stage at edge-ledger scale. Independent python replay over the
    SQL cosine pairs."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    if not pairs:
        return pd.DataFrame({
            "k": np.array([8], np.int64),
            "min_hub_degree": np.array([0], np.int64),
            "hub_edges": np.array([0], np.int64),
            "possible": np.array([28], np.int64)})
    deg: dict[int, int] = {}
    edges = set()
    for r in pairs:
        a, b = int(r["a"]), int(r["b"])
        lo, hi = (a, b) if a < b else (b, a)
        if (lo, hi) in edges:
            continue
        edges.add((lo, hi))
        deg[lo] = deg.get(lo, 0) + 1
        deg[hi] = deg.get(hi, 0) + 1
    hubs = sorted(deg, key=lambda v: (-deg[v], v))[:8]
    hset = set(hubs)
    he = sum(1 for a, b in edges if a in hset and b in hset)
    return pd.DataFrame({
        "k": np.array([len(hubs)], np.int64),
        "min_hub_degree": np.array(
            [min(deg[h] for h in hubs)], np.int64),
        "hub_edges": np.array([he], np.int64),
        "possible": np.array([len(hubs) * (len(hubs) - 1) // 2],
                             np.int64)})



QUERIES["rich_club_dups"] = q_rich_club_dups



def _rich_club_sidecar(sf_dir: str) -> str:
    """Counter-based python replay of the rich-club coefficient."""
    from collections import Counter
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "rc-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_richclub_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        edges = sorted({(min(int(x), int(y)), max(int(x), int(y)))
                        for x, y in prs})
        cnt: Counter = Counter()
        for x, y in edges:
            cnt[x] += 1
            cnt[y] += 1
        hubs = sorted(cnt, key=lambda v: (-cnt[v], v))[:8]
        hs = set(hubs)
        he = sum(1 for x, y in edges if x in hs and y in hs)
        k = len(hubs)
        out = pa.table({
            "k": pa.array([k], pa.int64()),
            "min_hub_degree": pa.array(
                [min(cnt[h] for h in hubs) if hubs else 0],
                pa.int64()),
            "hub_edges": pa.array([he], pa.int64()),
            "possible": pa.array([k * (k - 1) // 2 if k else 28],
                                 pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rich_club_sql(sf_dir: str) -> str:
    return (f"SELECT k, min_hub_degree, hub_edges, possible "
            f"FROM read_parquet('{_rich_club_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# dom_seasonality_purchases: day-of-month (paycheck-cycle) profile
# ---------------------------------------------------------------------------


def q_dom_seasonality_purchases(sf_dir: str):
    """Day-of-month purchase profile: per calendar day-of-month the
    purchase count and exact e4 value mass — the paycheck-cycle /
    month-end-crunch detector that the day-of-week and hour-of-day
    ops are blind to (a 1st-and-15th spike survives every weekly
    seasonal adjustment); retail pipelines gate promotions on it.
    (dom, n, mass) partials contract the scan to ≤ 31 cells.
    Direct SQL replay."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def part(t: pa.Table) -> pa.Table:
        ty = np.asarray(t["event_type"].to_pylist())
        keep = ty == "purchase"
        if not keep.any():
            return pa.table({"dom": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "mass_e4": pa.array([], pa.int64())})
        days = pc.day(t["ts"]).to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        v = _e(t["value"], 10_000).to_numpy(
            zero_copy_only=False)[keep]
        u, inv = np.unique(days, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        m = np.bincount(inv, weights=v).astype(np.int64)
        return pa.table({"dom": pa.array(u), "n": pa.array(n),
                         "mass_e4": pa.array(m)})

    out = (ev.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("dom").sum(["n", "mass_e4"]))
    return _rename(out, ["dom", "n", "mass_e4"])



QUERIES["dom_seasonality_purchases"] = q_dom_seasonality_purchases

ORACLE_SQL["dom_seasonality_purchases"] = """
        SELECT CAST(day(ts) AS BIGINT) AS dom,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CAST(round(value * 10000) AS BIGINT))
                   AS BIGINT) AS mass_e4
        FROM events WHERE event_type = 'purchase'
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# palindrome_census_docs: palindromic-token census per source
# ---------------------------------------------------------------------------


def q_palindrome_census_docs(sf_dir: str):
    """Palindromic-token census per source: occurrences of tokens
    (len ≥ 3) that read the same reversed, distinct palindromic
    types, and the len ≥ 3 token total so rate is one downstream
    division — a cheap synthetic-text / template-artifact tell
    (generator grammars over-produce 'aba'-shaped strings; natural
    corpora keep the rate tiny and stable). Vectorized: one Arrow
    split + utf8_reverse equality per batch; the shuffle carries the
    (source, palindrome) ledger plus one marker row per source —
    never raw tokens. Same split convention as doc_top_tokens
    (string_split on ' ', reference tokenizer parity with
    gtfs-to-geojson's property formatting split, src/lib/
    geojson-utils.ts). Direct SQL replay via reverse()."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = np.asarray(pc.list_flatten(toks)
                          .to_numpy(zero_copy_only=False))
        per_doc = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False)
        src_flat = np.repeat(
            t["source"].to_numpy(zero_copy_only=False), per_doc)
        if flat.size == 0:
            return pa.table({"source": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        fa = pa.array(flat, type=pa.string())
        keep3 = pc.utf8_length(fa).to_numpy(zero_copy_only=False) >= 3
        su, sinv = np.unique(src_flat, return_inverse=True)
        tok3 = np.bincount(sinv, weights=keep3.astype(np.float64),
                           minlength=len(su)).astype(np.int64)
        f3 = flat[keep3]
        s3 = src_flat[keep3]
        f3a = pa.array(f3, type=pa.string())
        is_pal = pc.equal(f3a, pc.utf8_reverse(f3a)) \
            .to_numpy(zero_copy_only=False) if len(f3) else \
            np.zeros(0, bool)
        g = pa.table({
            "source": pa.array(s3[is_pal], type=pa.string()),
            "token": pa.array(f3[is_pal], type=pa.string())}) \
            .group_by(["source", "token"]) \
            .aggregate([([], "count_all")])
        pal = pa.table({"source": g["source"], "token": g["token"],
                        "n": g["count_all"].cast(pa.int64())})
        km = tok3 > 0
        marker = pa.table({
            "source": pa.array(su[km], type=pa.string()),
            "token": pa.array(np.full(int(km.sum()), "",
                                      dtype=object),
                              type=pa.string()),
            "n": pa.array(tok3[km])})
        return pa.concat_tables([pal, marker])

    ledger = (ds.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["source", "token"]).sum("n"))

    def fold(t: pa.Table) -> pa.Table:
        tok = t["token"].to_numpy(zero_copy_only=False)
        n = t["sum(n)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mark = np.array([x == "" for x in tok], bool)
        return pa.table({
            "source": t["source"],
            "n_pal": pa.array(np.where(mark, 0, n)),
            "n_types": pa.array((~mark).astype(np.int64)),
            "n_tok3": pa.array(np.where(mark, n, 0))})

    out = (ledger.map_batches(fold, batch_format="pyarrow")
           .groupby("source").sum(["n_pal", "n_types", "n_tok3"]))
    return _rename(out, ["source", "n_pal", "n_types", "n_tok3"])



QUERIES["palindrome_census_docs"] = q_palindrome_census_docs

ORACLE_SQL["palindrome_census_docs"] = """
        WITH w AS (SELECT source, unnest(string_split(text, ' ')) AS t
                   FROM documents),
        w3 AS (SELECT source, t FROM w WHERE length(t) >= 3),
        tot AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_tok3
                FROM w3 GROUP BY 1),
        p AS (SELECT source, t FROM w3 WHERE t = reverse(t)),
        ps AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n_pal,
                      CAST(COUNT(DISTINCT t) AS BIGINT) AS n_types
               FROM p GROUP BY 1)
        SELECT tot.source,
               CAST(COALESCE(ps.n_pal, 0) AS BIGINT) AS n_pal,
               CAST(COALESCE(ps.n_types, 0) AS BIGINT) AS n_types,
               tot.n_tok3
        FROM tot LEFT JOIN ps ON ps.source = tot.source
    """



# ---------------------------------------------------------------------------
# part_pair_lift_orders: within-order co-purchase lift
# ---------------------------------------------------------------------------


def q_part_pair_lift_orders(sf_dir: str):
    """Market-basket lift over ORDERS: top-10 part pairs by the
    number of orders containing both (ties (a, b) asc), carrying each
    part's own order count and the exact cross-multiplied lift
    numerator n·n_ab − n_a·n_b (positive = the pair co-occurs more
    than independence predicts — the association-rule primitive
    behind 'frequently bought together'). Plan: the distinct
    (order, part) ledger contracts lineitem per batch (packed
    order<<32|part key — orderkey < 2^31, partkey < 2^32 by TPC-H
    construction); pairs generate inside an ORDER co-partition via
    the 32-bucket hash self-join, bounded by lines-per-order² (≤ 49)
    — never parts². Per-part counts broadcast at dimension scale;
    the order universe n folds to one scalar. Self-join SQL replay."""
    from battery.ops.relational import bucketed_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def bp_part(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u = np.unique((ok << 32) | pk)
        return pa.table({"ok": pa.array(u >> 32),
                         "part": pa.array(u & ((1 << 32) - 1))})

    bsnap = (li.map_batches(bp_part, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["ok", "part"]).count().materialize())

    def cnt_part(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate([([], "count_all")])
        return pa.table({"part": g["part"],
                         "n": g["count_all"].cast(pa.int64())})

    n_a = {int(r["part"]): int(r["sum(n)"]) for r in
           bsnap.map_batches(cnt_part, batch_format="pyarrow")
           .groupby("part").sum("n").take_all()}
    aref = ray.put(n_a)
    n_orders = int(
        bsnap.map_batches(
            lambda t: pa.table({"ok": pc.unique(t["ok"])}),
            batch_format="pyarrow")
        .groupby("ok").count().count())

    lhs = bsnap.map_batches(
        lambda t: pa.table({"a": t["part"], "ok": t["ok"]}),
        batch_format="pyarrow")
    rhs = bsnap.map_batches(
        lambda t: pa.table({"b": t["part"], "ok2": t["ok"]}),
        batch_format="pyarrow")
    joined = bucketed_join(lhs, rhs, "ok", "ok2")

    def pair_part(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        keep = a < b
        g = pa.table({"a": pa.array(a[keep]),
                      "b": pa.array(b[keep])}) \
            .group_by(["a", "b"]).aggregate([([], "count_all")])
        return pa.table({"a": g["a"], "b": g["b"],
                         "n_ab": g["count_all"].cast(pa.int64())})

    pairs = (joined.map_batches(pair_part, batch_format="pyarrow")
             .groupby(["a", "b"]).sum("n_ab"))

    def finish(t: pa.Table) -> pa.Table:
        sz = _broadcast(aref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        nab = t["sum(n_ab)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        na = np.array([sz[int(x)] for x in a], np.int64)
        nb = np.array([sz[int(x)] for x in b], np.int64)
        return pa.table({
            "a": pa.array(a), "b": pa.array(b),
            "n_ab": pa.array(nab),
            "n_a": pa.array(na), "n_b": pa.array(nb),
            "lift_num": pa.array(n_orders * nab - na * nb)})

    return (pairs.map_batches(finish, batch_format="pyarrow")
            .sort(["n_ab", "a", "b"],
                  descending=[True, False, False]).limit(10))



QUERIES["part_pair_lift_orders"] = q_part_pair_lift_orders

ORACLE_SQL["part_pair_lift_orders"] = """
        WITH bp AS (SELECT DISTINCT l_orderkey AS ok,
                           l_partkey AS part FROM lineitem),
        nn AS (SELECT CAST(COUNT(DISTINCT ok) AS BIGINT) AS n FROM bp),
        pcnt AS (SELECT part, CAST(COUNT(*) AS BIGINT) AS cnt
                 FROM bp GROUP BY 1),
        pr AS (SELECT a.part AS a, b.part AS b,
                      CAST(COUNT(*) AS BIGINT) AS n_ab
               FROM bp a JOIN bp b
                 ON a.ok = b.ok AND a.part < b.part
               GROUP BY 1, 2)
        SELECT pr.a, pr.b, pr.n_ab, ca.cnt AS n_a, cb.cnt AS n_b,
               CAST(nn.n * pr.n_ab - ca.cnt * cb.cnt AS BIGINT)
                   AS lift_num
        FROM pr CROSS JOIN nn
        JOIN pcnt ca ON ca.part = pr.a
        JOIN pcnt cb ON cb.part = pr.b
        ORDER BY pr.n_ab DESC, pr.a, pr.b LIMIT 10
    """



# ---------------------------------------------------------------------------
# lis_customer_orders: longest increasing spend-subsequence histogram
# ---------------------------------------------------------------------------


def q_lis_customer_orders(sf_dir: str):
    """Longest strictly-increasing subsequence of each customer's
    order totals in (date, orderkey) time order, reduced to a
    (lis_len, n_customers) histogram — the escalation-depth
    statistic: a customer with LIS 6 has six orders each strictly
    dearer than some earlier one (upsell ladder), while LIS 1 means
    spend never climbed; unlike monotone-run ops this survives
    interleaved noise orders. Totals live on the exact e2 cent
    lattice. Plan: one hash co-partition on custkey (32 bucket
    groups — scale the count with the cluster), a single lexsort per
    bucket, then patience-sorting per customer segment (O(k log k)
    on ≤ tens of orders each); only (lis_len, count) partials leave
    the buckets. LIS is not SQL-expressible at this grain — python
    patience-sort replay over the same (cust, date, orderkey) sort,
    shipped as a sidecar parquet."""
    from battery.ops.relational import _with_bucket

    ods = _read(sf_dir, "orders",
                ["o_custkey", "o_orderkey", "o_orderdate",
                 "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "cust": t["o_custkey"].cast(pa.int64()),
            "d": t["o_orderdate"].cast(pa.int64()),
            "ok": t["o_orderkey"].cast(pa.int64()),
            "tot": _e(t["o_totalprice"], 100)})

    prepped = ods.map_batches(prep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def lis_fn(df: pd.DataFrame) -> pd.DataFrame:
        from bisect import bisect_left

        if len(df) == 0:
            return pd.DataFrame(
                {"lis_len": pd.Series(dtype=np.int64),
                 "n_customers": pd.Series(dtype=np.int64)})
        c = df["cust"].to_numpy(np.int64)
        d = df["d"].to_numpy(np.int64)
        ok = df["ok"].to_numpy(np.int64)
        v = df["tot"].to_numpy(np.int64)
        order = np.lexsort([ok, d, c])
        c, v = c[order], v[order]
        starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        ends = np.r_[starts[1:], len(c)]
        lengths = np.empty(len(starts), np.int64)
        for i, (s, e) in enumerate(zip(starts, ends)):
            tails: list[int] = []
            for x in v[s:e]:
                j = bisect_left(tails, x)
                if j == len(tails):
                    tails.append(x)
                else:
                    tails[j] = x
            lengths[i] = len(tails)
        u, cnt = np.unique(lengths, return_counts=True)
        return pd.DataFrame({"lis_len": u,
                             "n_customers": cnt.astype(np.int64)})

    part = (_with_bucket(prepped, "cust", 32)
            .groupby("bucket")
            .map_groups(lis_fn, batch_format="pandas"))
    out = part.groupby("lis_len").sum("n_customers")
    return _rename(out, ["lis_len", "n_customers"])



QUERIES["lis_customer_orders"] = q_lis_customer_orders



def _lis_sidecar(sf_dir: str) -> str:
    """Patience-sort replay of the per-customer strict LIS histogram."""
    from bisect import bisect_left
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lis-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lis_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT o_custkey, "
            "CAST(round(o_totalprice * 100) AS BIGINT) "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY o_custkey, o_orderdate, o_orderkey").fetchall()
        hist: dict[int, int] = {}
        i = 0
        while i < len(rows):
            cust = rows[i][0]
            tails: list[int] = []
            while i < len(rows) and rows[i][0] == cust:
                x = rows[i][1]
                j = bisect_left(tails, x)
                if j == len(tails):
                    tails.append(x)
                else:
                    tails[j] = x
                i += 1
            hist[len(tails)] = hist.get(len(tails), 0) + 1
        ks = sorted(hist)
        out = pa.table({
            "lis_len": pa.array(ks, pa.int64()),
            "n_customers": pa.array([hist[k] for k in ks],
                                    pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lis_sql(sf_dir: str) -> str:
    return (f"SELECT lis_len, n_customers "
            f"FROM read_parquet('{_lis_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# huffman_cost_sources: optimal prefix-code cost per source
# ---------------------------------------------------------------------------


def q_huffman_cost_sources(sf_dir: str):
    """Entropy-coding audit per source: total bits of an OPTIMAL
    prefix-free (Huffman) code over the source's token frequency
    distribution, beside the fixed-width dictionary cost
    n_tokens·ceil(log2 vocab) — the compression-gain statistic that
    tells a corpus-storage planner which sources are skewed enough
    for dictionary+entropy coding to pay (the gain is one downstream
    division). The Huffman TOTAL is tie-break invariant (all optimal
    codes share it), so the result is exact and deterministic. Plan:
    the (source, token, n) ledger contracts per batch (Heaps-bounded
    shuffle, never raw tokens), then one heapq pass per source group.
    Python heapq replay over the SQL token counts as sidecar."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t["text"], " ")
        flat = np.asarray(pc.list_flatten(toks)
                          .to_numpy(zero_copy_only=False))
        per_doc = pc.list_value_length(toks) \
            .to_numpy(zero_copy_only=False)
        src = np.repeat(t["source"].to_numpy(zero_copy_only=False),
                        per_doc)
        keep = flat != ""
        g = pa.table({
            "source": pa.array(src[keep], type=pa.string()),
            "token": pa.array(flat[keep], type=pa.string())}) \
            .group_by(["source", "token"]) \
            .aggregate([([], "count_all")])
        return pa.table({"source": g["source"], "token": g["token"],
                         "n": g["count_all"].cast(pa.int64())})

    ledger = (ds.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["source", "token"]).sum("n"))

    def huff(df: pd.DataFrame) -> pd.DataFrame:
        import heapq

        if len(df) == 0:
            return pd.DataFrame({
                "source": pd.Series(dtype=object),
                "n_tokens": pd.Series(dtype=np.int64),
                "vocab": pd.Series(dtype=np.int64),
                "huffman_bits": pd.Series(dtype=np.int64),
                "fixed_bits": pd.Series(dtype=np.int64)})
        src = df["source"].iloc[0]
        n = df["sum(n)"].to_numpy(np.int64)
        h = [int(x) for x in n]
        heapq.heapify(h)
        bits = 0
        while len(h) > 1:
            a = heapq.heappop(h)
            b = heapq.heappop(h)
            bits += a + b
            heapq.heappush(h, a + b)
        vocab = len(n)
        width = int(vocab - 1).bit_length()
        return pd.DataFrame({
            "source": [src],
            "n_tokens": np.array([n.sum()], np.int64),
            "vocab": np.array([vocab], np.int64),
            "huffman_bits": np.array([bits], np.int64),
            "fixed_bits": np.array([int(n.sum()) * width], np.int64)})

    return ledger.groupby("source").map_groups(
        huff, batch_format="pandas")



QUERIES["huffman_cost_sources"] = q_huffman_cost_sources



def _huffman_sidecar(sf_dir: str) -> str:
    """heapq replay of the per-source optimal prefix-code cost."""
    import heapq
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "huffman-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_huffman_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "WITH w AS (SELECT source, "
            "unnest(string_split(text, ' ')) AS t FROM "
            f"read_parquet('{sf_dir}/documents.parquet')) "
            "SELECT source, CAST(COUNT(*) AS BIGINT) FROM w "
            "WHERE t <> '' GROUP BY source, t "
            "ORDER BY source").fetchall()
        out_rows = []
        i = 0
        while i < len(rows):
            src = rows[i][0]
            cnts = []
            while i < len(rows) and rows[i][0] == src:
                cnts.append(int(rows[i][1]))
                i += 1
            h = list(cnts)
            heapq.heapify(h)
            bits = 0
            while len(h) > 1:
                a = heapq.heappop(h)
                b = heapq.heappop(h)
                bits += a + b
                heapq.heappush(h, a + b)
            vocab = len(cnts)
            width = int(vocab - 1).bit_length()
            out_rows.append((src, sum(cnts), vocab, bits,
                             sum(cnts) * width))
        out = pa.table({
            "source": pa.array([r[0] for r in out_rows], pa.string()),
            "n_tokens": pa.array([r[1] for r in out_rows], pa.int64()),
            "vocab": pa.array([r[2] for r in out_rows], pa.int64()),
            "huffman_bits": pa.array([r[3] for r in out_rows],
                                     pa.int64()),
            "fixed_bits": pa.array([r[4] for r in out_rows],
                                   pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _huffman_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_tokens, vocab, huffman_bits, "
            f"fixed_bits FROM read_parquet('{_huffman_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# emd_weekend_weekday: exact earth-mover distance between value mixes
# ---------------------------------------------------------------------------


def q_emd_weekend_weekday(sf_dir: str):
    """Exact Wasserstein-1 (earth-mover) distance numerator between
    the WEEKEND and WEEKDAY purchase-value distributions on the e4
    lattice: Σ over consecutive distinct values of
    |cumWE·n_WD − cumWD·n_WE|·Δv — the distribution-shift statistic
    that KS misses when the shift is mass far from the crossing
    point (EMD weights BY distance). The weekend convention matches
    weekend_aov_parts ((epoch_day + 4) % 7 ≥ 5). The numerator
    outgrows int64, so it ships as decimal digits (python bigint /
    HUGEINT replay); EMD itself is num / (n_wd·n_we·10⁴) downstream.
    Plan: per-batch (v, class) histogram partials, one
    distinct-value-scale groupby, then a driver epilogue bounded by
    the value lattice (documented assumption: distinct purchase
    values ≪ rows; salt by value range if that ever breaks). Returns
    zero rows when fewer than two distinct values exist — mirroring
    the SQL window replay exactly."""
    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def part(t: pa.Table) -> pa.Table:
        ty = np.asarray(t["event_type"].to_pylist())
        keep = ty == "purchase"
        if not keep.any():
            return pa.table({"v": pa.array([], pa.int64()),
                             "we": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = _e(t["value"], 10_000).to_numpy(
            zero_copy_only=False)[keep]
        day = (t["ts"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000)[keep]
        we = ((day + 4) % 7 >= 5).astype(np.int64)
        key = v * 2 + we
        u, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        return pa.table({"v": pa.array(u >> 1),
                         "we": pa.array(u & 1),
                         "n": pa.array(n)})

    hist = (ev.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["v", "we"]).sum("n").take_all())
    empty = pd.DataFrame({"n_wd": pd.Series(dtype=np.int64),
                          "n_we": pd.Series(dtype=np.int64),
                          "emd_num_dec": pd.Series(dtype=object)})
    if not hist:
        return empty
    vs = np.array([r["v"] for r in hist], np.int64)
    wes = np.array([r["we"] for r in hist], np.int64)
    ns = np.array([r["sum(n)"] for r in hist], np.int64)
    order = np.argsort(vs, kind="stable")
    vs, wes, ns = vs[order], wes[order], ns[order]
    uv = np.unique(vs)
    if len(uv) < 2:
        return empty
    cwe = np.zeros(len(uv), np.int64)
    cwd = np.zeros(len(uv), np.int64)
    pos = np.searchsorted(uv, vs)
    np.add.at(cwe, pos, np.where(wes == 1, ns, 0))
    np.add.at(cwd, pos, np.where(wes == 0, ns, 0))
    n_we, n_wd = int(cwe.sum()), int(cwd.sum())
    cum_we, cum_wd = np.cumsum(cwe), np.cumsum(cwd)
    num = 0
    for i in range(len(uv) - 1):
        num += abs(int(cum_we[i]) * n_wd - int(cum_wd[i]) * n_we) \
            * int(uv[i + 1] - uv[i])
    return pd.DataFrame({"n_wd": np.array([n_wd], np.int64),
                         "n_we": np.array([n_we], np.int64),
                         "emd_num_dec": [str(num)]})



QUERIES["emd_weekend_weekday"] = q_emd_weekend_weekday

ORACLE_SQL["emd_weekend_weekday"] = """
        WITH p AS (SELECT CAST(round(value * 10000) AS BIGINT) AS v,
                          CAST((epoch_us(ts) // 86400000000 + 4) % 7
                               >= 5 AS BIGINT) AS we
                   FROM events WHERE event_type = 'purchase'),
        n AS (SELECT CAST(SUM(CASE WHEN we = 0 THEN 1 ELSE 0 END)
                          AS BIGINT) AS nwd,
                     CAST(SUM(CASE WHEN we = 1 THEN 1 ELSE 0 END)
                          AS BIGINT) AS nwe
              FROM p),
        h AS (SELECT v,
                     SUM(CASE WHEN we = 1 THEN 1 ELSE 0 END) AS cwe,
                     SUM(CASE WHEN we = 0 THEN 1 ELSE 0 END) AS cwd
              FROM p GROUP BY 1),
        c AS (SELECT v,
                     SUM(cwe) OVER (ORDER BY v) AS cumwe,
                     SUM(cwd) OVER (ORDER BY v) AS cumwd,
                     LEAD(v) OVER (ORDER BY v) AS nv
              FROM h)
        SELECT n.nwd AS n_wd, n.nwe AS n_we,
               CAST(SUM(abs(CAST(cumwe AS HUGEINT) * n.nwd
                            - CAST(cumwd AS HUGEINT) * n.nwe)
                        * (nv - v)) AS VARCHAR) AS emd_num_dec
        FROM c CROSS JOIN n WHERE nv IS NOT NULL
        GROUP BY n.nwd, n.nwe
    """



# ---------------------------------------------------------------------------
# naive_lag_mae_daily: seasonal-naive forecast error audit
# ---------------------------------------------------------------------------


def q_naive_lag_mae_daily(sf_dir: str):
    """Seasonal-naive forecast audit on daily order revenue: the
    exact e2 sum of |today − yesterday| over calendar-adjacent day
    pairs beside |today − same-day-last-week| over 7-day pairs, with
    both pair counts — MASE's two ingredients as integers (the ratio
    is one downstream division; lag-7 beating lag-1 certifies weekly
    seasonality worth modeling, the sanity gate every forecast
    pipeline runs before reaching for anything fancier). Pairs are
    CALENDAR-aligned (day and day−k both observed), so missing days
    never smear the alignment. Plan: per-batch (day, rev) partials,
    one calendar-scale groupby, a searchsorted epilogue over ≤ a few
    thousand days. Self-join SQL replay."""
    ods = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000
        rev = _e(t["o_totalprice"], 100).to_numpy(
            zero_copy_only=False)
        u, inv = np.unique(day, return_inverse=True)
        s = np.bincount(inv, weights=rev.astype(np.float64))
        # e2 daily partials stay < 2^53 per batch by block sizing;
        # exactness re-established on the int64 lattice here
        return pa.table({"day": pa.array(u),
                         "rev": pa.array(s.astype(np.int64))})

    rows = (ods.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True)
            .groupby("day").sum("rev").take_all())
    if not rows:
        return pd.DataFrame({"n1": np.array([0], np.int64),
                             "sae1_e2": np.array([0], np.int64),
                             "n7": np.array([0], np.int64),
                             "sae7_e2": np.array([0], np.int64)})
    day = np.array([r["day"] for r in rows], np.int64)
    rev = np.array([r["sum(rev)"] for r in rows], np.int64)
    order = np.argsort(day)
    day, rev = day[order], rev[order]

    def lag_stats(k: int) -> tuple[int, int]:
        pos = np.searchsorted(day, day - k)
        ok = (pos < len(day)) & (day[np.minimum(pos, len(day) - 1)]
                                 == day - k)
        n = int(ok.sum())
        sae = int(np.abs(rev[ok] - rev[pos[ok]]).sum())
        return n, sae

    n1, sae1 = lag_stats(1)
    n7, sae7 = lag_stats(7)
    return pd.DataFrame({"n1": np.array([n1], np.int64),
                         "sae1_e2": np.array([sae1], np.int64),
                         "n7": np.array([n7], np.int64),
                         "sae7_e2": np.array([sae7], np.int64)})



QUERIES["naive_lag_mae_daily"] = q_naive_lag_mae_daily

ORACLE_SQL["naive_lag_mae_daily"] = """
        WITH d AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                          SUM(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)) AS rev
                   FROM orders GROUP BY 1)
        SELECT
            CAST((SELECT COUNT(*) FROM d a JOIN d b
                  ON b.day = a.day - 1) AS BIGINT) AS n1,
            CAST(COALESCE((SELECT SUM(abs(a.rev - b.rev))
                           FROM d a JOIN d b ON b.day = a.day - 1),
                          0) AS BIGINT) AS sae1_e2,
            CAST((SELECT COUNT(*) FROM d a JOIN d b
                  ON b.day = a.day - 7) AS BIGINT) AS n7,
            CAST(COALESCE((SELECT SUM(abs(a.rev - b.rev))
                           FROM d a JOIN d b ON b.day = a.day - 7),
                          0) AS BIGINT) AS sae7_e2
    """



# ---------------------------------------------------------------------------
# percentile_mismatch_customers: wealth-rank vs spend-rank gap
# ---------------------------------------------------------------------------


def q_percentile_mismatch_customers(sf_dir: str):
    """Cross-ranking audit: every customer gets a global BALANCE rank
    and a global SPEND rank (lifetime order value, zero for orderless
    customers, ties broken by custkey on both axes), and the top-10
    by |rank gap| surface the under-spenders (rich but dormant — the
    win-back list) and over-spenders (poor but heavy — the credit
    risk). Plan: spend folds to customer grain, a LEFT hash-bucket
    join attaches it to customer (orderless customers rank with 0),
    then TWO distributed ROW_NUMBER passes via the coarse-bucket
    exclusive-scan primitive (ops/relational.global_row_number — no
    all-to-all sort; one more scan level at 100 TB, same shape). The
    e2 balance axis is offset +100000 to meet the primitive's
    non-negative contract (order-preserving, asserted). Window SQL
    replay."""
    from battery.ops.relational import bucketed_join, global_row_number

    ods = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def sp_part(t: pa.Table) -> pa.Table:
        c = t["o_custkey"].to_numpy(zero_copy_only=False)
        v = _e(t["o_totalprice"], 100).to_numpy(zero_copy_only=False)
        u, inv = np.unique(c, return_inverse=True)
        s = np.bincount(inv, weights=v.astype(np.float64))
        return pa.table({"ck": pa.array(u.astype(np.int64)),
                         "sp": pa.array(s.astype(np.int64))})

    spend = (ods.map_batches(sp_part, batch_format="pyarrow",
                             zero_copy_batch=True)
             .groupby("ck").sum("sp")
             .map_batches(lambda t: t.rename_columns(["ck", "sp"]),
                          batch_format="pyarrow").materialize())

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def cust_prep(t: pa.Table) -> pa.Table:
        bal = _e(t["c_acctbal"], 100).to_numpy(zero_copy_only=False)
        off = bal + 100_000
        assert (off >= 0).all(), "acctbal below the -1000.00 contract"
        return pa.table({"custkey": t["c_custkey"].cast(pa.int64()),
                         "bal_off": pa.array(off)})

    left = cust.map_batches(cust_prep, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = bucketed_join(left, spend, "custkey", "ck", how="left")

    def fill(t: pa.Table) -> pa.Table:
        sp = t["sp"].to_numpy(zero_copy_only=False)
        sp = np.where(np.isnan(sp.astype(np.float64)), 0,
                      sp.astype(np.float64)).astype(np.int64)
        return pa.table({"custkey": t["custkey"].cast(pa.int64()),
                         "bal_off": t["bal_off"].cast(pa.int64()),
                         "sp": pa.array(sp)})

    base = joined.map_batches(fill, batch_format="pyarrow")
    r1 = global_row_number(base, "bal_off", "custkey", shift=12) \
        .map_batches(lambda df: df.rename(columns={"idx": "bal_rank"}),
                     batch_format="pandas")
    r2 = global_row_number(r1, "sp", "custkey", shift=24)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        gap = np.abs(df["bal_rank"].to_numpy(np.int64)
                     - df["idx"].to_numpy(np.int64))
        return pd.DataFrame({
            "custkey": df["custkey"].to_numpy(np.int64),
            "bal_rank": df["bal_rank"].to_numpy(np.int64),
            "spend_rank": df["idx"].to_numpy(np.int64),
            "rank_gap": gap})

    return (r2.map_batches(finish, batch_format="pandas")
            .sort(["rank_gap", "custkey"], descending=[True, False])
            .limit(10))



QUERIES["percentile_mismatch_customers"] = q_percentile_mismatch_customers

ORACLE_SQL["percentile_mismatch_customers"] = """
        WITH spend AS (SELECT o_custkey,
                              SUM(CAST(round(o_totalprice * 100)
                                       AS BIGINT)) AS sp
                       FROM orders GROUP BY 1),
        j AS (SELECT c.c_custkey AS custkey,
                     CAST(round(c.c_acctbal * 100) AS BIGINT) AS bal,
                     COALESCE(sp.sp, 0) AS spv
              FROM customer c LEFT JOIN spend sp
                ON sp.o_custkey = c.c_custkey),
        r AS (SELECT custkey,
                     ROW_NUMBER() OVER (ORDER BY bal, custkey) - 1
                         AS bal_rank,
                     ROW_NUMBER() OVER (ORDER BY spv, custkey) - 1
                         AS spend_rank
              FROM j)
        SELECT custkey, CAST(bal_rank AS BIGINT) AS bal_rank,
               CAST(spend_rank AS BIGINT) AS spend_rank,
               CAST(abs(bal_rank - spend_rank) AS BIGINT) AS rank_gap
        FROM r ORDER BY rank_gap DESC, custkey LIMIT 10
    """



# ---------------------------------------------------------------------------
# fano_factor_types: minute-bin count dispersion per event type
# ---------------------------------------------------------------------------


def q_fano_factor_types(sf_dir: str):
    """Fano-factor ingredients per event type over MINUTE bins: the
    observed-minute count, event total, exact Σx² and the dispersion
    numerator n·Σx² − (Σx)² — variance-to-mean of per-minute arrival
    counts, the Poisson-ness test at the TYPE grain (a clumped type —
    var ≫ mean — needs burst-tolerant capacity; dispersion_class_users
    answers the same question per USER from gap moments, which cannot
    see cross-user clumping on the shared timeline). All integers;
    Fano itself is var_num / (n·Σx − Σx²/...) downstream. Plan:
    per-batch (type, minute) count partials, one minute-scale groupby,
    ≤ 5-row per-type moment fold. Direct SQL replay."""
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def part(t: pa.Table) -> pa.Table:
        m = pc.divide(t["ts"].cast(pa.int64()),
                      pa.scalar(60_000_000, pa.int64()))
        g = pa.table({"event_type": t["event_type"], "minute": m}) \
            .group_by(["event_type", "minute"]) \
            .aggregate([([], "count_all")])
        return pa.table({"event_type": g["event_type"],
                         "minute": g["minute"],
                         "x": g["count_all"].cast(pa.int64())})

    minutes = (ev.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby(["event_type", "minute"]).sum("x"))

    def fold(t: pa.Table) -> pa.Table:
        x = t["sum(x)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"event_type": t["event_type"],
                         "n_minutes": pa.array(
                             np.ones(len(x), np.int64)),
                         "n_events": pa.array(x),
                         "sum_sq": pa.array(x * x)})

    agg = (minutes.map_batches(fold, batch_format="pyarrow")
           .groupby("event_type")
           .sum(["n_minutes", "n_events", "sum_sq"]))

    def finish(t: pa.Table) -> pa.Table:
        n = t["sum(n_minutes)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        s1 = t["sum(n_events)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        s2 = t["sum(sum_sq)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"event_type": t["event_type"],
                         "n_minutes": pa.array(n),
                         "n_events": pa.array(s1),
                         "sum_sq": pa.array(s2),
                         "var_num": pa.array(n * s2 - s1 * s1)})

    return agg.map_batches(finish, batch_format="pyarrow")



QUERIES["fano_factor_types"] = q_fano_factor_types

ORACLE_SQL["fano_factor_types"] = """
        WITH m AS (SELECT event_type,
                          epoch_us(ts) // 60000000 AS minute,
                          CAST(COUNT(*) AS BIGINT) AS x
                   FROM events GROUP BY 1, 2)
        SELECT event_type,
               CAST(COUNT(*) AS BIGINT) AS n_minutes,
               CAST(SUM(x) AS BIGINT) AS n_events,
               CAST(SUM(x * x) AS BIGINT) AS sum_sq,
               CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x)
                    AS BIGINT) AS var_num
        FROM m GROUP BY 1
    """



# ---------------------------------------------------------------------------
# lz78_parse_sources: incremental-parse compressibility census
# ---------------------------------------------------------------------------


def _lz78_phrase_count(s: str) -> int:
    """Number of phrases in the LZ78 incremental parse of ``s`` —
    Lempel-Ziv complexity, the classical computable stand-in for
    Kolmogorov complexity (phrases · log phrases ≈ compressed bits)."""
    d: dict[tuple[int, str], int] = {}
    cur = 0
    nxt = 1
    phrases = 0
    for ch in s:
        k = (cur, ch)
        if k in d:
            cur = d[k]
        else:
            d[k] = nxt
            nxt += 1
            phrases += 1
            cur = 0
    if cur != 0:
        phrases += 1  # trailing partial phrase
    return phrases



def q_lz78_parse_sources(sf_dir: str):
    """LZ78 compressibility census per source: document count, total
    chars and total incremental-parse phrases (per doc, summed) —
    Lempel-Ziv complexity as the computable Kolmogorov stand-in; a
    source whose phrases-per-char ratio (one downstream division)
    sits far below its peers is template/boilerplate-heavy and a
    dedup-before-training candidate even when no two docs are literal
    duplicates (doc-grain dedup and shingle counts both miss
    'same generator, different fillers'). Per-doc parse is inherently
    sequential (dict-trie per doc) but documents are independent —
    the batch is the parallel grain, partials are 3 integers per
    source. Same-parse python replay sidecar."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        su, sinv = np.unique(src, return_inverse=True)
        chars = np.zeros(len(su), np.int64)
        phr = np.zeros(len(su), np.int64)
        nd = np.bincount(sinv, minlength=len(su)).astype(np.int64)
        for i, txt in enumerate(texts):
            chars[sinv[i]] += len(txt)
            phr[sinv[i]] += _lz78_phrase_count(txt)
        return pa.table({"source": pa.array(su, type=pa.string()),
                         "n_docs": pa.array(nd),
                         "n_chars": pa.array(chars),
                         "n_phrases": pa.array(phr)})

    out = (ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source").sum(["n_docs", "n_chars", "n_phrases"]))
    return _rename(out, ["source", "n_docs", "n_chars", "n_phrases"])



QUERIES["lz78_parse_sources"] = q_lz78_parse_sources



def _lz78_sidecar(sf_dir: str) -> str:
    """Same-parse python replay of the per-source LZ78 census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lz78-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lz78_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source").fetchall()
        agg: dict[str, list[int]] = {}
        for src, txt in rows:
            a = agg.setdefault(src, [0, 0, 0])
            a[0] += 1
            a[1] += len(txt)
            a[2] += _lz78_phrase_count(txt)
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "n_chars": pa.array([agg[k][1] for k in ks], pa.int64()),
            "n_phrases": pa.array([agg[k][2] for k in ks],
                                  pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lz78_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_chars, n_phrases "
            f"FROM read_parquet('{_lz78_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# eulerian_audit_routes: degree-parity Eulerian-path audit per route+dir
# ---------------------------------------------------------------------------


def q_eulerian_audit_routes(sf_dir: str):
    """Eulerian-path degree audit per (route, direction): build the
    undirected leg MULTIGRAPH from every trip's consecutive stop
    pairs and count odd-degree stops — a single vehicle can traverse
    every scheduled leg exactly once iff the odd count is 0 or 2
    (plus connectivity), the deadhead-minimization feasibility test
    of vehicle blocking, and a topology class the toposort/loop
    audits don't see (reference stop-order handling,
    src/lib/geojson-utils.ts:96-118, linearizes exactly the graphs
    this op certifies). Legs form inside one trip co-partition
    (adjacency by stop_sequence SORT, not seq arithmetic, so gapped
    sequences stay correct); only (route, dir, stop, degree)
    partials shuffle, dimension-scale. ROW_NUMBER-adjacency SQL
    replay."""
    d = _fixture_sql_dir()
    trips = rd.read_parquet(f"{d}/trips.parquet",
                            columns=["trip_id", "route_id",
                                     "direction_id"]).take_all()
    tmap = {r["trip_id"]: (r["route_id"], int(r["direction_id"]))
            for r in trips}
    tref = ray.put(tmap)
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id",
                                  "stop_sequence"])

    def legs(df: pd.DataFrame) -> pd.DataFrame:
        tm = _broadcast(tref)
        df = df.sort_values("stop_sequence", kind="stable")
        stops = df["stop_id"].to_numpy()
        if len(stops) < 2:
            return pd.DataFrame({
                "route_id": pd.Series(dtype=object),
                "direction_id": pd.Series(dtype=np.int64),
                "stop_id": pd.Series(dtype=object),
                "deg": pd.Series(dtype=np.int64)})
        ends = np.concatenate([stops[:-1], stops[1:]])
        u, cnt = np.unique(ends, return_counts=True)
        route, dirn = tm[df["trip_id"].iloc[0]]
        return pd.DataFrame({
            "route_id": np.full(len(u), route, dtype=object),
            "direction_id": np.full(len(u), dirn, dtype=np.int64),
            "stop_id": u,
            "deg": cnt.astype(np.int64)})

    deg = (st.groupby("trip_id").map_groups(legs, batch_format="pandas")
           .groupby(["route_id", "direction_id", "stop_id"])
           .sum("deg"))

    def fold(t: pa.Table) -> pa.Table:
        dg = t["sum(deg)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"route_id": t["route_id"],
                         "direction_id": t["direction_id"],
                         "n_stops": pa.array(
                             np.ones(len(dg), np.int64)),
                         "sum_deg": pa.array(dg),
                         "n_odd": pa.array(dg % 2)})

    agg = (deg.map_batches(fold, batch_format="pyarrow")
           .groupby(["route_id", "direction_id"])
           .sum(["n_stops", "sum_deg", "n_odd"]))

    def finish(t: pa.Table) -> pa.Table:
        sd = t["sum(sum_deg)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        od = t["sum(n_odd)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "route_id": t["route_id"],
            "direction_id": t["direction_id"].cast(pa.int64()),
            "n_stops": t["sum(n_stops)"].cast(pa.int64()),
            "n_legs": pa.array(sd // 2),
            "n_odd": pa.array(od),
            "eulerian_path": pa.array(
                ((od == 0) | (od == 2)).astype(np.int64))})

    return agg.map_batches(finish, batch_format="pyarrow")



QUERIES["eulerian_audit_routes"] = q_eulerian_audit_routes



def _eulerian_sql() -> str:
    d = _fixture_sql_dir()
    return f"""
        WITH st AS (SELECT trip_id, stop_id,
                           ROW_NUMBER() OVER (PARTITION BY trip_id
                               ORDER BY stop_sequence) AS rn
                    FROM read_parquet('{d}/stop_times.parquet')),
        legs AS (SELECT t.route_id,
                        CAST(t.direction_id AS BIGINT) AS direction_id,
                        a.stop_id AS u, b.stop_id AS v
                 FROM st a JOIN st b
                   ON b.trip_id = a.trip_id AND b.rn = a.rn + 1
                 JOIN read_parquet('{d}/trips.parquet') t
                   ON t.trip_id = a.trip_id),
        ends AS (SELECT route_id, direction_id, u AS stop FROM legs
                 UNION ALL
                 SELECT route_id, direction_id, v FROM legs),
        deg AS (SELECT route_id, direction_id, stop,
                       COUNT(*) AS d
                FROM ends GROUP BY 1, 2, 3)
        SELECT route_id, direction_id,
               CAST(COUNT(*) AS BIGINT) AS n_stops,
               CAST(SUM(d) // 2 AS BIGINT) AS n_legs,
               CAST(SUM(CASE WHEN d % 2 = 1 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_odd,
               CAST(CASE WHEN SUM(CASE WHEN d % 2 = 1
                                  THEN 1 ELSE 0 END) IN (0, 2)
                    THEN 1 ELSE 0 END AS BIGINT) AS eulerian_path
        FROM deg GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# distinct_substrings_docs: suffix-automaton substring census
# ---------------------------------------------------------------------------


def _distinct_substring_count(s: str) -> int:
    """Distinct non-empty substrings of ``s`` via a suffix automaton
    (O(n·σ) online construction): the count is
    Σ_{v≠root} len(v) − len(link(v)) — every state contributes one
    substring per length in its equivalence class."""
    if not s:
        return 0
    sa_len = [0]
    sa_link = [-1]
    trans: list[dict[str, int]] = [{}]
    last = 0
    for ch in s:
        cur = len(sa_len)
        sa_len.append(sa_len[last] + 1)
        sa_link.append(-1)
        trans.append({})
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = sa_link[p]
        if p == -1:
            sa_link[cur] = 0
        else:
            q = trans[p][ch]
            if sa_len[p] + 1 == sa_len[q]:
                sa_link[cur] = q
            else:
                clone = len(sa_len)
                sa_len.append(sa_len[p] + 1)
                sa_link.append(sa_link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = sa_link[p]
                sa_link[q] = clone
                sa_link[cur] = clone
        last = cur
    return sum(sa_len[v] - sa_len[sa_link[v]]
               for v in range(1, len(sa_len)))



def q_distinct_substrings_docs(sf_dir: str):
    """Substring-complexity census per source: document count, total
    chars, and the total number of DISTINCT non-empty substrings per
    doc (suffix automaton, summed) — natural text sits near the
    n·(n+1)/2 ceiling while templated/repetitive docs collapse far
    below it, and unlike LZ78 phrases this measure is
    parse-order-free (pure combinatorics of the string). Per-doc
    automata are independent, so the batch is the parallel grain and
    partials are three integers per source. Same-automaton python
    replay sidecar; per-doc counts cross-checked against brute-force
    set-of-substrings in tests."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        su, sinv = np.unique(src, return_inverse=True)
        chars = np.zeros(len(su), np.int64)
        subs = np.zeros(len(su), np.int64)
        nd = np.bincount(sinv, minlength=len(su)).astype(np.int64)
        for i, txt in enumerate(texts):
            chars[sinv[i]] += len(txt)
            subs[sinv[i]] += _distinct_substring_count(txt)
        return pa.table({"source": pa.array(su, type=pa.string()),
                         "n_docs": pa.array(nd),
                         "n_chars": pa.array(chars),
                         "n_substrings": pa.array(subs)})

    out = (ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source")
           .sum(["n_docs", "n_chars", "n_substrings"]))
    return _rename(out, ["source", "n_docs", "n_chars",
                         "n_substrings"])



QUERIES["distinct_substrings_docs"] = q_distinct_substrings_docs



def _substr_sidecar(sf_dir: str) -> str:
    """Suffix-automaton replay of the per-source substring census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "substr-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_substr_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source").fetchall()
        agg: dict[str, list[int]] = {}
        for src, txt in rows:
            a = agg.setdefault(src, [0, 0, 0])
            a[0] += 1
            a[1] += len(txt)
            a[2] += _distinct_substring_count(txt)
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "n_chars": pa.array([agg[k][1] for k in ks], pa.int64()),
            "n_substrings": pa.array([agg[k][2] for k in ks],
                                     pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _substr_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_chars, n_substrings "
            f"FROM read_parquet('{_substr_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# hash_bucket_load_orders: partitioner-quality load histogram
# ---------------------------------------------------------------------------


def q_hash_bucket_load_orders(sf_dir: str):
    """Engine introspection: the load histogram of THE partitioner
    this repo actually shuffles with — splitmix64(o_orderkey) mod
    4096 buckets, reported as (load, n_buckets) including the
    empty-bucket row — the balls-in-bins audit that certifies the
    hash family before anyone trusts a bucketed join (a fat tail
    here means hot reducers no matter how clean the raw key skew
    looks; skew_report_keys audits the KEYS, this audits the HASH).
    Per-batch bucket-count partials, one 4096-row groupby, a
    histogram contraction, and a driver epilogue that adds the
    load-0 row only when empty buckets exist. The oracle replays
    splitmix64 in PURE SQL — 64-bit modular multiplies split into
    32-bit halves on HUGEINT — so the hash itself is independently
    verified, not just the histogram."""
    from geotile.synth import splitmix64

    N_BUCKETS = 4096
    ods = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = (splitmix64(k.view(np.uint64))
             % np.uint64(N_BUCKETS)).astype(np.int64)
        u, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        return pa.table({"bucket": pa.array(u), "n": pa.array(n)})

    loads = (ods.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
             .groupby("bucket").sum("n"))

    def hist(t: pa.Table) -> pa.Table:
        ld = t["sum(n)"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u, inv = np.unique(ld, return_inverse=True)
        c = np.bincount(inv).astype(np.int64)
        return pa.table({"load": pa.array(u),
                         "n_buckets": pa.array(c)})

    rows = (loads.map_batches(hist, batch_format="pyarrow")
            .groupby("load").sum("n_buckets").take_all())
    load = np.array([r["load"] for r in rows], np.int64)
    nb = np.array([r["sum(n_buckets)"] for r in rows], np.int64)
    occupied = int(nb.sum())
    if occupied < N_BUCKETS:
        load = np.r_[load, 0]
        nb = np.r_[nb, N_BUCKETS - occupied]
    order = np.argsort(load)
    return pd.DataFrame({"load": load[order],
                         "n_buckets": nb[order]})



QUERIES["hash_bucket_load_orders"] = q_hash_bucket_load_orders



def _splitmix_sql_expr(col: str) -> str:
    """splitmix64(col) in pure SQL: HUGEINT arithmetic with 64-bit
    modular multiplies split into 32-bit halves (INT128 would
    overflow on a full 64×64 product). Verified bit-exact against
    geotile.synth.splitmix64 over [1, 5000)."""
    m64 = "18446744073709551616"
    m32 = "4294967296"

    def mulmod(a: str, c: str) -> str:
        return (f"((((({a}) % {m32}) * {c}) % {m64}) + "
                f"((((({a}) // {m32}) * ({c} % {m32})) % {m32})"
                f" * {m32})) % {m64}")

    z0 = f"((CAST({col} AS HUGEINT) + 11400714819323198485) % {m64})"
    y0 = f"xor({z0}, {z0} // 1073741824)"
    z1 = f"({mulmod(y0, '13787848793156543929')})"
    y1 = f"xor({z1}, {z1} // 134217728)"
    z2 = f"({mulmod(y1, '10723151780598845931')})"
    return f"xor({z2}, {z2} // 2147483648)"



ORACLE_SQL["hash_bucket_load_orders"] = f"""
        WITH b AS (SELECT CAST(({_splitmix_sql_expr('o_orderkey')})
                               % 4096 AS BIGINT) AS bucket
                   FROM orders),
        loads AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS load
                  FROM b GROUP BY 1),
        hist AS (SELECT load, CAST(COUNT(*) AS BIGINT) AS n_buckets
                 FROM loads GROUP BY 1)
        SELECT load, n_buckets FROM hist
        UNION ALL
        SELECT CAST(0 AS BIGINT), CAST(4096 - COUNT(*) AS BIGINT)
        FROM loads HAVING COUNT(*) < 4096
    """



# ---------------------------------------------------------------------------
# pack_size_gcd_parts: shipment pack-size inference via GCD
# ---------------------------------------------------------------------------


def q_pack_size_gcd_parts(sf_dir: str):
    """Pack-size inference: the GCD of every quantity a part ever
    shipped in, reduced to a (pack_gcd, n_parts) histogram — a part
    whose quantities are all multiples of 6 ships in six-packs, the
    unit-of-measure discovery every inventory integration runs
    (gcd > 1 lets a planner switch that SKU to case-level logistics).
    GCD is associative and commutative, so it folds as a PERFECT
    partial aggregate: one np.gcd.reduceat per batch contracts the
    scan to (part, gcd) partials, one partkey co-partition finishes
    the fold, and only the ≤ 50-cell histogram leaves. Quantities
    are asserted integral. list_reduce(gcd) SQL replay."""
    from battery.ops.relational import _with_bucket

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])

    def part(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        qf = t["l_quantity"].to_numpy(zero_copy_only=False)
        q = qf.astype(np.int64)
        assert (q == qf).all(), "non-integral quantity"
        order = np.argsort(pk, kind="stable")
        pk, q = pk[order], q[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        g = np.gcd.reduceat(q, starts)
        return pa.table({"part": pa.array(pk[starts]),
                         "g": pa.array(g.astype(np.int64))})

    partials = li.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"pack_gcd": pd.Series(dtype=np.int64),
                 "n_parts": pd.Series(dtype=np.int64)})
        pk = df["part"].to_numpy(np.int64)
        g = df["g"].to_numpy(np.int64)
        order = np.argsort(pk, kind="stable")
        pk, g = pk[order], g[order]
        starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
        gg = np.gcd.reduceat(g, starts)
        u, cnt = np.unique(gg, return_counts=True)
        return pd.DataFrame({"pack_gcd": u,
                             "n_parts": cnt.astype(np.int64)})

    hist = (_with_bucket(partials, "part", 32)
            .groupby("bucket").map_groups(finish,
                                          batch_format="pandas"))
    out = hist.groupby("pack_gcd").sum("n_parts")
    return _rename(out, ["pack_gcd", "n_parts"])



QUERIES["pack_size_gcd_parts"] = q_pack_size_gcd_parts

ORACLE_SQL["pack_size_gcd_parts"] = """
        WITH g AS (SELECT l_partkey,
                          list_reduce(list(CAST(l_quantity AS BIGINT)),
                                      (a, b) -> gcd(a, b)) AS g
                   FROM lineitem GROUP BY 1)
        SELECT CAST(g AS BIGINT) AS pack_gcd,
               CAST(COUNT(*) AS BIGINT) AS n_parts
        FROM g GROUP BY 1
    """



# ---------------------------------------------------------------------------
# simpson_strata_brands: pooled-vs-stratified association sign audit
# ---------------------------------------------------------------------------


def q_simpson_strata_brands(sf_dir: str):
    """Simpson's-paradox audit for the quantity↔discount relation:
    the exact covariance numerator n·Σxy − Σx·Σy (x = quantity,
    y = discount cents) per BRAND stratum plus the pooled 'ALL' row,
    each with its sign — when the pooled sign contradicts the
    within-stratum signs, any 'bigger orders get deeper discounts'
    conclusion is a mix-effect artifact, the aggregation trap
    qty_disc_association's single contingency table cannot flag.
    The numerator outgrows int64 at fact scale, so it ships as
    decimal digits (python bigint vs HUGEINT replay); partials are
    four integers per brand (brand dimension broadcast, scan never
    shuffled). Direct SQL replay."""
    pk_dim, pbrand = _dim_np(sf_dir, "part", "p_partkey", ["p_brand"])
    bnames, bcodes = np.unique(pbrand.astype(str), return_inverse=True)
    pref = ray.put((pk_dim, bcodes.astype(np.int64), bnames))
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_discount"])

    def part(t: pa.Table) -> pa.Table:
        from battery.ops.relational import dim_lookup

        pk_, codes_, names_ = _broadcast(pref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        x = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = _e(t["l_discount"], 100).to_numpy(zero_copy_only=False)
        # INNER-join semantics: lines whose part is absent from the
        # part table drop, exactly as the SQL replay drops them
        pi, phit = dim_lookup(pk_, pk.astype(np.int64, copy=False))
        keep = phit
        brands = names_[codes_[pi[keep]]]
        if not keep.all():
            x, y = x[keep], y[keep]
        if len(brands) == 0:
            return pa.table({
                "stratum": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "sum_x": pa.array([], pa.int64()),
                "sum_y": pa.array([], pa.int64()),
                "sum_xy": pa.array([], pa.int64())})
        u, inv = np.unique(brands, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        sx = np.bincount(inv, weights=x.astype(np.float64)) \
            .astype(np.int64)
        sy = np.bincount(inv, weights=y.astype(np.float64)) \
            .astype(np.int64)
        sxy = np.bincount(inv, weights=(x * y).astype(np.float64)) \
            .astype(np.int64)
        return pa.table({"stratum": pa.array(u, type=pa.string()),
                         "n": pa.array(n), "sum_x": pa.array(sx),
                         "sum_y": pa.array(sy),
                         "sum_xy": pa.array(sxy)})

    rows = (li.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("stratum")
            .sum(["n", "sum_x", "sum_y", "sum_xy"]).take_all())
    strata = sorted(rows, key=lambda r: r["stratum"])
    out_rows = []
    tot = [0, 0, 0, 0]
    for r in strata:
        n, sx = int(r["sum(n)"]), int(r["sum(sum_x)"])
        sy, sxy = int(r["sum(sum_y)"]), int(r["sum(sum_xy)"])
        tot[0] += n
        tot[1] += sx
        tot[2] += sy
        tot[3] += sxy
        cov = n * sxy - sx * sy
        out_rows.append((r["stratum"], n, sx, sy, sxy, str(cov),
                         (cov > 0) - (cov < 0)))
    cov = tot[0] * tot[3] - tot[1] * tot[2]
    out_rows.append(("ALL", tot[0], tot[1], tot[2], tot[3],
                     str(cov), (cov > 0) - (cov < 0)))
    return pd.DataFrame({
        "stratum": [r[0] for r in out_rows],
        "n": np.array([r[1] for r in out_rows], np.int64),
        "sum_x": np.array([r[2] for r in out_rows], np.int64),
        "sum_y": np.array([r[3] for r in out_rows], np.int64),
        "sum_xy": np.array([r[4] for r in out_rows], np.int64),
        "cov_num_dec": [r[5] for r in out_rows],
        "sign": np.array([r[6] for r in out_rows], np.int64)})



QUERIES["simpson_strata_brands"] = q_simpson_strata_brands

ORACLE_SQL["simpson_strata_brands"] = """
        WITH j AS (SELECT p.p_brand AS stratum,
                          CAST(l.l_quantity AS BIGINT) AS x,
                          CAST(round(l.l_discount * 100) AS BIGINT)
                              AS y
                   FROM lineitem l JOIN part p
                     ON p.p_partkey = l.l_partkey),
        s AS (SELECT stratum, COUNT(*) AS n, SUM(x) AS sx,
                     SUM(y) AS sy, SUM(x * y) AS sxy
              FROM j GROUP BY 1
              UNION ALL
              SELECT 'ALL', COUNT(*), SUM(x), SUM(y), SUM(x * y)
              FROM j)
        SELECT stratum, CAST(n AS BIGINT) AS n,
               CAST(sx AS BIGINT) AS sum_x,
               CAST(sy AS BIGINT) AS sum_y,
               CAST(sxy AS BIGINT) AS sum_xy,
               CAST(CAST(n AS HUGEINT) * sxy
                    - CAST(sx AS HUGEINT) * sy AS VARCHAR)
                   AS cov_num_dec,
               CAST(CASE WHEN CAST(n AS HUGEINT) * sxy
                              > CAST(sx AS HUGEINT) * sy THEN 1
                         WHEN CAST(n AS HUGEINT) * sxy
                              < CAST(sx AS HUGEINT) * sy THEN -1
                         ELSE 0 END AS BIGINT) AS sign
        FROM s
    """



# ---------------------------------------------------------------------------
# bridges_dups: cut-edge / articulation fragility of the dup graph
# ---------------------------------------------------------------------------


def _bridges_articulation(edges: list[tuple[int, int]]
                          ) -> tuple[int, int, int, int]:
    """Iterative Tarjan lowlink pass over an undirected simple graph:
    returns (n_nodes, n_edges, n_bridges, n_articulation)."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, (a, b) in enumerate(edges):
        adj.setdefault(a, []).append((b, i))
        adj.setdefault(b, []).append((a, i))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = 0
    bridges = 0
    artic: set[int] = set()
    for root in sorted(adj):
        if root in disc:
            continue
        root_children = 0
        # stack frames: (node, parent_edge_id, iterator index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pe, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, pe, i + 1)
                to, eid = adj[v][i]
                if eid == pe:
                    continue
                if to in disc:
                    low[v] = min(low[v], disc[to])
                else:
                    disc[to] = low[to] = timer
                    timer += 1
                    stack.append((to, eid, 0))
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        bridges += 1
                    if p == root:
                        root_children += 1
                    elif low[v] >= disc[p]:
                        artic.add(p)
        if root_children >= 2:
            artic.add(root)
    return len(adj), len(edges), bridges, len(artic)



def q_bridges_dups(sf_dir: str):
    """Fragility audit of the near-dup graph: bridge (cut) edges and
    articulation nodes — a bridge inside a duplicate cluster means
    ONE pairwise match holds two sub-families together, so a single
    false-positive pair merges unrelated content at canonicalization
    time (the k-truss op removes such edges; this op COUNTS and
    therefore prices that risk), and an articulation doc is the one
    whose removal splits its cluster. Pairs come from the
    distributed dedup stage; the lowlink pass runs on the driver at
    edge-ledger scale (the rich_club/bfs posture — the dup graph is
    candidate-pair scale, not corpus scale). Independent python
    replay over the SQL cosine pairs."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    edges = sorted({(min(int(r["a"]), int(r["b"])),
                     max(int(r["a"]), int(r["b"]))) for r in pairs})
    nn, ne, nb, na = _bridges_articulation(edges)
    return pd.DataFrame({
        "n_nodes": np.array([nn], np.int64),
        "n_edges": np.array([ne], np.int64),
        "n_bridges": np.array([nb], np.int64),
        "n_articulation": np.array([na], np.int64)})



QUERIES["bridges_dups"] = q_bridges_dups



def _bridges_sidecar(sf_dir: str) -> str:
    """Lowlink replay over the SQL cosine pairs."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((EMBEDDING_DUPS_SQL + sf_dir + "bridges-v1")
                  .encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bridges_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        prs = con.execute(
            f"SELECT a, b FROM ({EMBEDDING_DUPS_SQL})").fetchall()
        edges = sorted({(min(int(x), int(y)), max(int(x), int(y)))
                        for x, y in prs})
        nn, ne, nb, na = _bridges_articulation(edges)
        out = pa.table({
            "n_nodes": pa.array([nn], pa.int64()),
            "n_edges": pa.array([ne], pa.int64()),
            "n_bridges": pa.array([nb], pa.int64()),
            "n_articulation": pa.array([na], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bridges_sql(sf_dir: str) -> str:
    return (f"SELECT n_nodes, n_edges, n_bridges, n_articulation "
            f"FROM read_parquet('{_bridges_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# audio_predictor_order_audit: FLAC-style predictor-order selection
# ---------------------------------------------------------------------------


def q_audio_predictor_order_audit(sf_dir: str):
    """Linear-predictor order selection per audio track: the exact
    Σ|residual| under the order-1 predictor (first difference) and
    the order-2 predictor (second difference), and which order wins
    (ties → 1, the cheaper filter) — the decision FLAC's fixed-
    predictor stage makes per frame, lifted to track grain;
    rice_coding_tracks prices the CODE for a chosen residual, this
    op chooses the PREDICTOR. One np.diff chain over the stacked
    int64 tensor per payload batch — no per-sample python.
    Python-int replay sidecar."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def pred(t: pa.Table) -> pa.Table:
        ids = t["track_id"].to_numpy(zero_copy_only=False)
        pcm = np.stack([np.frombuffer(p, dtype=np.int16)
                        for p in t["bytes"].to_pylist()]) \
            .astype(np.int64)
        d1 = np.diff(pcm, axis=1)
        d2 = np.diff(d1, axis=1)
        s1 = np.abs(d1).sum(axis=1)
        s2 = np.abs(d2).sum(axis=1)
        return pa.table({
            "track_id": pa.array(ids),
            "n_samples": pa.array(
                np.full(len(ids), pcm.shape[1], np.int64)),
            "sad1": pa.array(s1.astype(np.int64)),
            "sad2": pa.array(s2.astype(np.int64)),
            "best_order": pa.array(
                np.where(s2 < s1, 2, 1).astype(np.int64))})

    return ds.map_batches(pred, batch_format="pyarrow",
                          batch_size=64)



QUERIES["audio_predictor_order_audit"] = q_audio_predictor_order_audit



def _predictor_sidecar(aud: str) -> str:
    """Python-int replay for audio_predictor_order_audit."""
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_predord_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            d1 = [b - a for a, b in zip(s, s[1:])]
            d2 = [b - a for a, b in zip(d1, d1[1:])]
            s1 = sum(abs(x) for x in d1)
            s2 = sum(abs(x) for x in d2)
            rows.append({"track_id": int(tid), "n_samples": len(s),
                         "sad1": s1, "sad2": s2,
                         "best_order": 2 if s2 < s1 else 1})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _predictor_sql(aud: str) -> str:
    return (f"SELECT track_id, n_samples, sad1, sad2, best_order "
            f"FROM read_parquet('{_predictor_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# rle_sort_benefit_lineitem: sort-key selection for columnar layout
# ---------------------------------------------------------------------------


def q_rle_sort_benefit_lineitem(sf_dir: str):
    """Sort-key selection audit for a columnar layout: the number of
    RLE runs the l_returnflag column would store under the TIME
    order (shipdate, orderkey, linenumber) versus the KEY order
    (orderkey, linenumber, shipdate) — full-row duplicates exist in
    the synth data, so the flag itself is the final tie-break on
    BOTH axes, making each order total — the exact byte-level
    question a table optimizer answers before choosing a clustering
    key (returnflag
    correlates with ship time, so time order should run long; this
    op prices that intuition instead of assuming it). Plan: pack
    each total order into ONE int64 (lexicographic-equal bit fields,
    asserted bounds), ds.sort on it,
    then each sorted batch emits (kmin, kmax, first, last,
    changes-within) and a driver stitch over block-scale partials
    adds the boundary changes — runs = changes + 1. LAG-window SQL
    replay over the identical ORDER BY."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_shipdate",
                "l_returnflag"])

    def pack(t: pa.Table) -> pa.Table:
        day = t["l_shipdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 86_400_000_000
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        assert day.max() < (1 << 16) and ok.max() < (1 << 31) \
            and ln.max() < 8, "rle pack overflow"
        fi = pc.index_in(t["l_returnflag"],
                         value_set=pa.array(["A", "N", "R"]))
        assert fi.null_count == 0, "unexpected returnflag"
        fv = fi.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # the flag itself is the final tie-break: full-row duplicates
        # exist in the synth data, and without it both this pipeline
        # and the SQL LAG replay would count ties in arbitrary order
        return pa.table({
            "k_time": pa.array(
                (day << 36) | (ok << 5) | (ln << 2) | fv),
            "k_key": pa.array(
                (ok << 21) | (ln << 18) | (day << 2) | fv),
            "f": t["l_returnflag"]})

    packed = li.map_batches(pack, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def runs_under(key: str) -> int:
        def part(t: pa.Table) -> pa.Table:
            k = t[key].to_numpy(zero_copy_only=False)
            f = t["f"].to_numpy(zero_copy_only=False)
            # a batch may concatenate adjacent sorted blocks out of
            # order — re-sort locally; the stitch assert still proves
            # global disjointness
            order = np.argsort(k)
            k, f = k[order], f[order]
            ch = int((f[1:] != f[:-1]).sum()) if len(f) > 1 else 0
            return pa.table({
                "kmin": pa.array([int(k[0])], pa.int64()),
                "kmax": pa.array([int(k[-1])], pa.int64()),
                "first": pa.array([str(f[0])], pa.string()),
                "last": pa.array([str(f[-1])], pa.string()),
                "changes": pa.array([ch], pa.int64()),
                "n": pa.array([len(f)], pa.int64())})

        parts = packed.sort(key).map_batches(
            part, batch_format="pyarrow").take_all()
        parts.sort(key=lambda r: r["kmin"])
        for i in range(1, len(parts)):
            assert parts[i]["kmin"] > parts[i - 1]["kmax"], \
                "sorted ranges overlap"
        changes = sum(r["changes"] for r in parts)
        boundary = sum(
            1 for i in range(1, len(parts))
            if parts[i]["first"] != parts[i - 1]["last"])
        return changes + boundary + (1 if parts else 0)

    n_rows = packed.count()
    return pd.DataFrame({
        "n_rows": np.array([n_rows], np.int64),
        "runs_time_order": np.array([runs_under("k_time")],
                                    np.int64),
        "runs_key_order": np.array([runs_under("k_key")], np.int64)})



QUERIES["rle_sort_benefit_lineitem"] = q_rle_sort_benefit_lineitem

ORACLE_SQL["rle_sort_benefit_lineitem"] = """
        WITH t AS (SELECT l_returnflag AS f,
                          LAG(l_returnflag) OVER (ORDER BY
                              l_shipdate, l_orderkey, l_linenumber,
                              l_returnflag) AS pf
                   FROM lineitem),
        k AS (SELECT l_returnflag AS f,
                     LAG(l_returnflag) OVER (ORDER BY
                         l_orderkey, l_linenumber, l_shipdate,
                         l_returnflag) AS pf
              FROM lineitem)
        SELECT CAST((SELECT COUNT(*) FROM lineitem) AS BIGINT)
                   AS n_rows,
               CAST((SELECT SUM(CASE WHEN pf IS NULL OR f <> pf
                                THEN 1 ELSE 0 END) FROM t)
                    AS BIGINT) AS runs_time_order,
               CAST((SELECT SUM(CASE WHEN pf IS NULL OR f <> pf
                                THEN 1 ELSE 0 END) FROM k)
                    AS BIGINT) AS runs_key_order
    """



# ---------------------------------------------------------------------------
# stop_service_span: first/last service and visit count per stop
# ---------------------------------------------------------------------------


def q_stop_service_span(sf_dir: str):
    """Service span per stop: first scheduled arrival, last scheduled
    departure (GTFS clock seconds — >24:00:00 rollovers stay plain
    integers), the span between them and the visit count — the
    staffing/lighting/accessibility window a station manager reads,
    and the per-stop complement of route_headways' per-route view.
    Per-batch (stop, min, max, n) partials contract the scan; the
    finishing fold runs per stop group at dimension scale. split_part
    SQL replay."""
    d = _fixture_sql_dir()
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["stop_id", "arrival_time",
                                  "departure_time"])

    def secs(col: pa.ChunkedArray) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        flat = pc.list_flatten(parts).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).reshape(-1, 3)
        return flat[:, 0] * 3600 + flat[:, 1] * 60 + flat[:, 2]

    def part(t: pa.Table) -> pa.Table:
        arr = secs(t["arrival_time"])
        dep = secs(t["departure_time"])
        sid = t["stop_id"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(sid, return_inverse=True)
        amin = np.full(len(u), np.iinfo(np.int64).max, np.int64)
        dmax = np.full(len(u), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(amin, inv, arr)
        np.maximum.at(dmax, inv, dep)
        n = np.bincount(inv).astype(np.int64)
        return pa.table({"stop_id": pa.array(u, type=pa.string()),
                         "amin": pa.array(amin),
                         "dmax": pa.array(dmax),
                         "n": pa.array(n)})

    partials = st.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        a = int(df["amin"].min())
        d_ = int(df["dmax"].max())
        return pd.DataFrame({
            "stop_id": [df["stop_id"].iloc[0]],
            "first_arr_s": np.array([a], np.int64),
            "last_dep_s": np.array([d_], np.int64),
            "span_s": np.array([d_ - a], np.int64),
            "n_visits": np.array([int(df["n"].sum())], np.int64)})

    return partials.groupby("stop_id").map_groups(
        fold, batch_format="pandas")



QUERIES["stop_service_span"] = q_stop_service_span



def _service_span_sql() -> str:
    d = _fixture_sql_dir()

    def s(col: str) -> str:
        return (f"(CAST(split_part({col}, ':', 1) AS BIGINT) * 3600 "
                f"+ CAST(split_part({col}, ':', 2) AS BIGINT) * 60 "
                f"+ CAST(split_part({col}, ':', 3) AS BIGINT))")

    return f"""
        SELECT stop_id,
               CAST(MIN({s('arrival_time')}) AS BIGINT)
                   AS first_arr_s,
               CAST(MAX({s('departure_time')}) AS BIGINT)
                   AS last_dep_s,
               CAST(MAX({s('departure_time')})
                    - MIN({s('arrival_time')}) AS BIGINT) AS span_s,
               CAST(COUNT(*) AS BIGINT) AS n_visits
        FROM read_parquet('{d}/stop_times.parquet')
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# bwt_runs_sources: Burrows-Wheeler run census per source
# ---------------------------------------------------------------------------


def _suffix_array_np(codes: np.ndarray) -> np.ndarray:
    """Prefix-doubling suffix array over an int code array — O(n log^2 n)
    and fully vectorized (np.lexsort per doubling round), no per-char
    Python. Terminates early once every rank is distinct; with a unique
    sentinel appended that is guaranteed."""
    n = codes.shape[0]
    rank = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    k = 1
    while int(rank.max()) < n - 1:
        second = np.full(n, -1, np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        r1, r2 = rank[order], second[order]
        diff = np.ones(n, bool)
        diff[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        nr = np.empty(n, np.int64)
        nr[order] = np.cumsum(diff) - 1
        rank = nr
        k *= 2
    sa = np.empty(n, np.int64)
    sa[rank] = np.arange(n)
    return sa



def _bwt_runs_np(text: str) -> int:
    """Run count r of the Burrows-Wheeler transform of text+sentinel
    (the FM-index / bzip2 compressibility measure)."""
    s = text + "\x00"
    codes = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.int64)
    sa = _suffix_array_np(codes)
    bwt = codes[sa - 1]  # sa==0 wraps to the sentinel row, as BWT defines
    return int(1 + np.count_nonzero(bwt[1:] != bwt[:-1]))



def _bwt_runs_scalar(text: str) -> int:
    """INDEPENDENT replay: plain python sorted-suffix BWT (str slices,
    codepoint comparison — no numpy, no prefix doubling), so a
    vectorization bug in _suffix_array_np cannot hide in the oracle."""
    s = text + "\x00"
    order = sorted(range(len(s)), key=lambda i: s[i:])
    runs, prev = 0, None
    for i in order:
        ch = s[i - 1]
        if ch != prev:
            runs += 1
            prev = ch
    return runs



def q_bwt_runs_sources(sf_dir: str):
    """Burrows-Wheeler run census per source: doc count, total chars
    and the summed run count r of each doc's BWT — the measure
    bzip2's MTF+RLE stage and every FM-index / r-index compresses to,
    completing this repo's compression-theory family (huffman_cost =
    entropy coding, lz78_parse = dictionary growth, distinct_substrings
    = substring complexity, rle_* = run coding; r prices CONTEXT
    clustering, which none of those see — a doc of shuffled tokens and
    a doc of sorted tokens share all four other measures but not r).
    Per-doc suffix array is a vectorized numpy prefix-doubling pass;
    documents are independent so the batch is the parallel grain and
    partials are 3 integers per source. Independent sorted-suffix
    python replay sidecar."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        su, sinv = np.unique(src, return_inverse=True)
        chars = np.zeros(len(su), np.int64)
        runs = np.zeros(len(su), np.int64)
        nd = np.bincount(sinv, minlength=len(su)).astype(np.int64)
        for i, txt in enumerate(texts):
            chars[sinv[i]] += len(txt)
            runs[sinv[i]] += _bwt_runs_np(txt)
        return pa.table({"source": pa.array(su, type=pa.string()),
                         "n_docs": pa.array(nd),
                         "n_chars": pa.array(chars),
                         "n_bwt_runs": pa.array(runs)})

    out = (ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source").sum(["n_docs", "n_chars", "n_bwt_runs"]))
    return _rename(out, ["source", "n_docs", "n_chars", "n_bwt_runs"])



QUERIES["bwt_runs_sources"] = q_bwt_runs_sources



def _bwt_sidecar(sf_dir: str) -> str:
    """Independent sorted-suffix python replay of the per-source BWT
    run census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "bwt-v1").encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bwt_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source").fetchall()
        agg: dict[str, list[int]] = {}
        for src, txt in rows:
            a = agg.setdefault(src, [0, 0, 0])
            a[0] += 1
            a[1] += len(txt)
            a[2] += _bwt_runs_scalar(txt)
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "n_chars": pa.array([agg[k][1] for k in ks], pa.int64()),
            "n_bwt_runs": pa.array([agg[k][2] for k in ks], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bwt_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_chars, n_bwt_runs "
            f"FROM read_parquet('{_bwt_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gorilla_ts_bits_users: delta-of-delta timestamp encoding cost per user
# ---------------------------------------------------------------------------


def q_gorilla_ts_bits_users(sf_dir: str):
    """Gorilla (Facebook's in-memory TSDB) timestamp compression audit:
    the exact bit cost of each user's event-timestamp stream under the
    paper's delta-of-delta bucket code — 64-bit header for the first
    event, then per event dod = delta - previous delta (previous delta
    0 at the second event) priced 1 bit if dod=0, 9 if in [-63,64],
    12 if in [-255,256], 16 if in [-2047,2048], else 36. The
    regular-telemetry user compresses toward 1 bit/event while the
    bursty one pays the 36-bit escape — THE storage-engine statistic a
    time-series ingest tier reads before choosing its encoder, and the
    timestamp-side complement of rice_coding_tracks' value-side code.
    Only (user_id, ts, event_id) leaves the scan; per-user fold sorts
    inside a dimension-scale co-partition; window-LAG SQL replay."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def pre(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"],
                         "us": t["ts"].cast(pa.timestamp("us"))
                                      .cast(pa.int64()),
                         "event_id": t["event_id"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["us", "event_id"], kind="stable")
        sec = (df["us"].to_numpy() // 1_000_000).astype(np.int64)
        d = np.diff(sec)
        prev = np.concatenate(([np.int64(0)], d[:-1])) if len(d) else d
        dod = d - prev
        bits = np.select(
            [dod == 0,
             (dod >= -63) & (dod <= 64),
             (dod >= -255) & (dod <= 256),
             (dod >= -2047) & (dod <= 2048)],
            [1, 9, 12, 16], default=36)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(df)], np.int64),
            "total_bits": np.array([64 + int(bits.sum())], np.int64)})

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold, batch_format="pandas"))



QUERIES["gorilla_ts_bits_users"] = q_gorilla_ts_bits_users

ORACLE_SQL["gorilla_ts_bits_users"] = """
        WITH s AS (
            SELECT user_id,
                   epoch_us(ts) // 1000000 AS sec,
                   LAG(epoch_us(ts) // 1000000) OVER w AS p1,
                   LAG(epoch_us(ts) // 1000000, 2) OVER w AS p2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
        b AS (
            SELECT user_id,
                   CASE WHEN p1 IS NULL THEN 64
                        WHEN (sec - p1) - COALESCE(p1 - p2, 0) = 0 THEN 1
                        WHEN (sec - p1) - COALESCE(p1 - p2, 0)
                             BETWEEN -63 AND 64 THEN 9
                        WHEN (sec - p1) - COALESCE(p1 - p2, 0)
                             BETWEEN -255 AND 256 THEN 12
                        WHEN (sec - p1) - COALESCE(p1 - p2, 0)
                             BETWEEN -2047 AND 2048 THEN 16
                        ELSE 36 END AS bits
            FROM s)
        SELECT user_id,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(SUM(bits) AS BIGINT) AS total_bits
        FROM b GROUP BY 1
    """



# ---------------------------------------------------------------------------
# roaring_container_census: array/bitmap container layout per event type
# ---------------------------------------------------------------------------


def q_roaring_container_census(sf_dir: str):
    """Roaring-bitmap layout census per event type: the distinct
    epoch-second set of each type, chunked into the format's 2^16-key
    containers, with each container priced as the format would store
    it — sorted-array (2 bytes/key) at cardinality <= 4096, fixed 8 KiB
    bitset above — plus the container counts by class and the total
    distinct-second cardinality. This is the index-layout decision a
    bitmap-index builder (Druid/Pinot/Lucene) makes per posting list;
    a type whose seconds concentrate into few hot containers flips to
    bitsets and stops growing with cardinality. Per-batch distinct
    (type, container, sec) triples contract the scan before the only
    shuffle, which carries distinct triples at container grain;
    COUNT(DISTINCT) GROUP BY SQL replay."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        sec = pc.divide(t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                        pa.scalar(1_000_000, pa.int64()))
        tb = pa.table({
            "event_type": t["event_type"],
            "container": pc.divide(sec, pa.scalar(65_536, pa.int64())),
            "sec": sec})
        return pa.Table.from_pandas(
            tb.to_pandas().drop_duplicates(), preserve_index=False)

    def per_container(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "card": np.array([df["sec"].nunique()], np.int64)})

    cont = (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["event_type", "container"])
            .map_groups(per_container, batch_format="pandas"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        card = df["card"].to_numpy()
        return pd.DataFrame({
            "event_type": [df["event_type"].iloc[0]],
            "n_containers": np.array([len(card)], np.int64),
            "n_array": np.array([int((card <= 4096).sum())], np.int64),
            "n_bitmap": np.array([int((card > 4096).sum())], np.int64),
            "n_distinct_secs": np.array([int(card.sum())], np.int64),
            "roaring_bytes": np.array(
                [int(np.where(card <= 4096, 2 * card, 8192).sum())],
                np.int64)})

    return cont.groupby("event_type").map_groups(
        fold, batch_format="pandas")



QUERIES["roaring_container_census"] = q_roaring_container_census

ORACLE_SQL["roaring_container_census"] = """
        WITH s AS (SELECT event_type,
                          epoch_us(ts) // 1000000 AS sec
                   FROM events),
        c AS (SELECT event_type, sec // 65536 AS container,
                     COUNT(DISTINCT sec) AS card
              FROM s GROUP BY 1, 2)
        SELECT event_type,
               CAST(COUNT(*) AS BIGINT) AS n_containers,
               CAST(SUM(CASE WHEN card <= 4096 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_array,
               CAST(SUM(CASE WHEN card > 4096 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_bitmap,
               CAST(SUM(card) AS BIGINT) AS n_distinct_secs,
               CAST(SUM(CASE WHEN card <= 4096 THEN 2 * card
                             ELSE 8192 END) AS BIGINT) AS roaring_bytes
        FROM c GROUP BY 1
    """



# ---------------------------------------------------------------------------
# phash_hubness_images: 1-NN in-degree histogram (hubness audit)
# ---------------------------------------------------------------------------


def q_phash_hubness_images(sf_dir: str):
    """Hubness audit of the phash metric space: every image's exact
    1-NN by Hamming distance (ties to the smallest id), then the
    HISTOGRAM of 1-NN in-degrees — including the in-degree-0 row.
    Hubness is the curse-of-dimensionality failure mode a retrieval
    stack must measure before trusting kNN graphs: a fat in-degree
    tail (here up to ~50 at sf0.01) means a few 'hub' images dominate
    everyone's neighbour lists and graph-based dedup/recall degrades,
    something phash_nn_images' per-query view cannot see. One blocked
    XOR+SWAR-popcount matmul per batch against the broadcast id-sorted
    corpus (ray.put once, read per worker); winner partials contract
    to (winner, count) before the only shuffle; the zero row is
    assembled from the aggregates themselves. Packed-argmin SQL
    replay (MIN(d*2^35+idx)) avoids a 400M-row window sort."""
    from battery.ops.relational import broadcast_dim
    from geotile.ops.tiles import read_image_table

    img = _image_dir_for(sf_dir)
    # size-capped driver gather (no take_all/per-row parse); the
    # numeric id suffix comes from an Arrow slice+cast kernel and the
    # corpus re-sorts by that idx — the order the argmin tie-break
    # relies on
    _, ctbl = broadcast_dim(
        read_image_table(img, columns=["image_id", "phash"]), "image_id")
    cidx = pc.cast(pc.utf8_slice_codeunits(
        ctbl["image_id"].combine_chunks(), 4),
        pa.int64()).to_numpy(zero_copy_only=False)
    cph = ctbl["phash"].to_numpy(zero_copy_only=False) \
        .astype(np.int64, copy=False).view(np.uint64)
    o = np.argsort(cidx, kind="stable")
    cidx, cph = np.ascontiguousarray(cidx[o]), np.ascontiguousarray(cph[o])
    cref = ray.put((cidx, cph))

    ds = read_image_table(img, columns=["image_id", "phash"])

    def nn_part(t: pa.Table) -> pa.Table:
        cidx_, cph_ = _broadcast(cref)
        qid = pc.cast(pc.utf8_slice_codeunits(
            t["image_id"].combine_chunks()
            if isinstance(t["image_id"], pa.ChunkedArray)
            else t["image_id"], 4),
            pa.int64()).to_numpy(zero_copy_only=False)
        qph = t["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        winners = np.empty(len(qid), np.int64)
        for lo in range(0, len(qid), 256):  # bound the XOR matrix
            q = qph[lo:lo + 256]
            D = _popcount64(q[:, None] ^ cph_[None, :])
            self_i = np.searchsorted(cidx_, qid[lo:lo + 256])
            D[np.arange(len(q)), self_i] = 65
            # corpus is idx-sorted: argmin first-hit == smallest-id tie
            winners[lo:lo + 256] = cidx_[D.argmin(axis=1)]
        wu, wc = np.unique(winners, return_counts=True)
        return pa.table({"winner": pa.array(wu),
                         "cnt": pa.array(wc.astype(np.int64))})

    deg = (ds.map_batches(nn_part, batch_format="pyarrow",
                          batch_size=1024, zero_copy_batch=True)
           .groupby("winner").sum("cnt"))

    def hist_part(t: pa.Table) -> pa.Table:
        c = t["sum(cnt)"].to_numpy(zero_copy_only=False)
        hu, hn = np.unique(c, return_counts=True)
        return pa.table({"indegree": pa.array(hu.astype(np.int64)),
                         "n_images": pa.array(hn.astype(np.int64))})

    hist = (deg.map_batches(hist_part, batch_format="pyarrow")
            .groupby("indegree").sum("n_images")).to_pandas()
    hist.columns = ["indegree", "n_images"]
    # zero row from the aggregates: Σ(indeg·n) = total queries,
    # Σ n = distinct winners
    n_total = int((hist["indegree"] * hist["n_images"]).sum())
    n_winners = int(hist["n_images"].sum())
    zero = pd.DataFrame({"indegree": np.array([0], np.int64),
                         "n_images": np.array([n_total - n_winners],
                                              np.int64)})
    out = pd.concat([zero, hist], ignore_index=True)
    out["indegree"] = out["indegree"].astype(np.int64)
    out["n_images"] = out["n_images"].astype(np.int64)
    return out



QUERIES["phash_hubness_images"] = q_phash_hubness_images



def _phash_hubness_sql(img: str) -> str:
    return f"""
        WITH e AS (SELECT CAST(substr(image_id, 5) AS BIGINT) AS idx,
                          phash
                   FROM read_parquet('{img}/part-*.parquet')),
        nn AS (SELECT a.idx AS q,
                      MIN(CAST(bit_count(CAST(xor(a.phash, b.phash)
                                         AS BIGINT)) AS BIGINT)
                          * 34359738368 + b.idx) AS packed
               FROM e a JOIN e b ON b.idx <> a.idx
               GROUP BY 1),
        deg AS (SELECT packed % 34359738368 AS w, COUNT(*) AS indeg
                FROM nn GROUP BY 1),
        hist AS (SELECT indeg, CAST(COUNT(*) AS BIGINT) AS n_images
                 FROM deg GROUP BY 1
                 UNION ALL
                 SELECT 0, (SELECT COUNT(*) FROM e)
                           - (SELECT COUNT(*) FROM deg))
        SELECT CAST(indeg AS BIGINT) AS indegree, n_images FROM hist
    """



# ---------------------------------------------------------------------------
# elias_fano_bits_users: EF posting-list size per user
# ---------------------------------------------------------------------------


def q_elias_fano_bits_users(sf_dir: str):
    """Elias-Fano posting-list cost per user: the user's DISTINCT
    active epoch-minutes form a sorted id list; EF stores it in
    n·l low bits (l = floor(log2(u/n)), u = span max-min+1) plus
    n + (u >> l) unary upper bits, the quasi-succinct bound every
    modern inverted index (Lucene, PISA) builds on and — unlike
    gorilla_ts_bits_users' stream code — randomly addressable.
    Output: n_minutes, span, ef_bits per user, all exact integers.
    Per-batch distinct (user, minute) partials contract the scan;
    the per-user fold is a dimension-scale co-partition; bin()-length
    SQL replay computes floor(log2) without floats."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        mn = pc.divide(t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                       pa.scalar(60_000_000, pa.int64()))
        tb = pa.table({"user_id": t["user_id"], "minute": mn})
        return pa.Table.from_pandas(
            tb.to_pandas().drop_duplicates(), preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m = np.unique(df["minute"].to_numpy())
        n = len(m)
        u = int(m[-1] - m[0] + 1)
        el = (u // n).bit_length() - 1
        bits = n * el + n + (u >> el)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_minutes": np.array([n], np.int64),
            "span": np.array([u], np.int64),
            "ef_bits": np.array([bits], np.int64)})

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold, batch_format="pandas"))



QUERIES["elias_fano_bits_users"] = q_elias_fano_bits_users

ORACLE_SQL["elias_fano_bits_users"] = """
        WITH m AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 60000000 AS minute
                   FROM events),
        s AS (SELECT user_id,
                     COUNT(*) AS n,
                     MAX(minute) - MIN(minute) + 1 AS u
              FROM m GROUP BY 1),
        l AS (SELECT user_id, n, u,
                     LENGTH(bin(u // n)) - 1 AS el
              FROM s)
        SELECT user_id,
               CAST(n AS BIGINT) AS n_minutes,
               CAST(u AS BIGINT) AS span,
               CAST(n * el + n + (u >> CAST(el AS INTEGER)) AS BIGINT)
                   AS ef_bits
        FROM l
    """



# ---------------------------------------------------------------------------
# fleet_size_routes: max-overlap fleet lower bound per route
# ---------------------------------------------------------------------------


def q_fleet_size_routes(sf_dir: str):
    """Minimum fleet size per route: the maximum number of
    simultaneously running trips, computed as a +1/-1 sweep over
    [first arrival, last departure) trip spans in GTFS clock seconds
    (end-EXCLUSIVE: a trip releasing its vehicle at t can serve a
    trip departing at t — the interval-partitioning bound, which by
    Dilworth equals the minimum vehicles needed with free deadheading;
    eulerian_audit_routes prices single-vehicle FEASIBILITY, this
    prices the COUNT). Trip spans fold from per-batch (trip,min,max)
    partials; the trip→route map is a dimension-scale broadcast; the
    sweep sorts inside each route's co-partition. Window-cumsum SQL
    replay with the identical (t, delta) tie order."""
    d = _fixture_sql_dir()
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "arrival_time",
                                  "departure_time"])
    import pyarrow.parquet as _pq

    tr = _pq.read_table(f"{d}/trips.parquet",
                        columns=["trip_id", "route_id"])
    t2r = dict(zip(tr["trip_id"].to_pylist(),
                   tr["route_id"].to_pylist()))
    t2r_ref = ray.put(t2r)

    def secs(col: pa.ChunkedArray) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        flat = pc.list_flatten(parts).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).reshape(-1, 3)
        return flat[:, 0] * 3600 + flat[:, 1] * 60 + flat[:, 2]

    def part(t: pa.Table) -> pa.Table:
        arr = secs(t["arrival_time"])
        dep = secs(t["departure_time"])
        tid = t["trip_id"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(tid, return_inverse=True)
        amin = np.full(len(u), np.iinfo(np.int64).max, np.int64)
        dmax = np.full(len(u), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(amin, inv, arr)
        np.maximum.at(dmax, inv, dep)
        return pa.table({"trip_id": pa.array(u, type=pa.string()),
                         "amin": pa.array(amin),
                         "dmax": pa.array(dmax)})

    def span(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "trip_id": [df["trip_id"].iloc[0]],
            "a": np.array([int(df["amin"].min())], np.int64),
            "d": np.array([int(df["dmax"].max())], np.int64)})

    spans = (st.map_batches(part, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("trip_id").map_groups(span, batch_format="pandas"))

    def events(t: pa.Table) -> pa.Table:
        m = _broadcast(t2r_ref)
        rid = np.array([m[x] for x in t["trip_id"].to_pylist()])
        a = t["a"].to_numpy(zero_copy_only=False)
        dd = t["d"].to_numpy(zero_copy_only=False)
        return pa.table({
            "route_id": pa.array(np.concatenate([rid, rid]),
                                 type=pa.string()),
            "t": pa.array(np.concatenate([a, dd])),
            "delta": pa.array(np.concatenate(
                [np.ones(len(a), np.int64),
                 np.full(len(a), -1, np.int64)]))})

    def sweep(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["t", "delta"], kind="stable")
        conc = df["delta"].to_numpy().cumsum()
        return pd.DataFrame({
            "route_id": [df["route_id"].iloc[0]],
            "fleet_size": np.array([int(conc.max())], np.int64),
            "n_trips": np.array([len(df) // 2], np.int64)})

    return (spans.map_batches(events, batch_format="pyarrow")
            .groupby("route_id").map_groups(sweep,
                                            batch_format="pandas"))



QUERIES["fleet_size_routes"] = q_fleet_size_routes



def _fleet_size_sql() -> str:
    d = _fixture_sql_dir()

    def s(col: str) -> str:
        return (f"(CAST(split_part({col}, ':', 1) AS BIGINT) * 3600 "
                f"+ CAST(split_part({col}, ':', 2) AS BIGINT) * 60 "
                f"+ CAST(split_part({col}, ':', 3) AS BIGINT))")

    return f"""
        WITH span AS (
            SELECT trip_id,
                   MIN({s('arrival_time')}) AS a,
                   MAX({s('departure_time')}) AS dd
            FROM read_parquet('{d}/stop_times.parquet')
            GROUP BY 1),
        ev AS (
            SELECT t.route_id, s.a AS tm, 1 AS delta
            FROM span s JOIN read_parquet('{d}/trips.parquet') t
                 USING (trip_id)
            UNION ALL
            SELECT t.route_id, s.dd, -1
            FROM span s JOIN read_parquet('{d}/trips.parquet') t
                 USING (trip_id)),
        c AS (SELECT route_id,
                     SUM(delta) OVER (PARTITION BY route_id
                                      ORDER BY tm, delta
                                      ROWS UNBOUNDED PRECEDING) AS conc
              FROM ev)
        SELECT route_id,
               CAST(MAX(conc) AS BIGINT) AS fleet_size,
               CAST(COUNT(*) / 2 AS BIGINT) AS n_trips
        FROM c GROUP BY 1
    """



# ---------------------------------------------------------------------------
# lyndon_factors_sources: Chen-Fox-Lyndon factorization census
# ---------------------------------------------------------------------------


def _duval_factor_count(s: str) -> int:
    """Number of factors in the Chen-Fox-Lyndon factorization of s,
    via Duval's O(n) algorithm."""
    n = len(s)
    i = 0
    factors = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            factors += 1
            i += j - k
    return factors



def _lyndon_factors_minima(s: str) -> int:
    """INDEPENDENT replay: factor starts are exactly the strict
    running minima of the suffix sequence scanned left to right
    (a classical CFL characterization) — plain python str slices and
    lexicographic compares, no Duval state machine, so a bug in the
    O(n) algorithm cannot also live here."""
    cnt = 0
    best: str | None = None
    for i in range(len(s)):
        suf = s[i:]
        if best is None or suf < best:
            cnt += 1
            best = suf
    return cnt



def q_lyndon_factors_sources(sf_dir: str):
    """Chen-Fox-Lyndon factorization census per source: doc count,
    total chars and total Lyndon factors (per doc, summed). The CFL
    factor count is the third member of the parse-census family —
    unlike LZ78 phrases it is PARSE-ORDER-FREE and unlike the BWT run
    count it prices lexicographic DESCENT structure: a doc that is one
    big Lyndon word (rotated/sorted-ascending content) collapses to 1
    factor while anti-sorted content degenerates to n factors, the
    exact structure suffix-array construction (SA-IS) and bijective
    BWT exploit, so factors-per-char predicts SA build cost before a
    corpus-wide index job is scheduled. Duval's O(n) scan per doc with
    the batch as the parallel grain, 3-int partials per source;
    independent running-suffix-minima replay sidecar."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        su, sinv = np.unique(src, return_inverse=True)
        chars = np.zeros(len(su), np.int64)
        fac = np.zeros(len(su), np.int64)
        nd = np.bincount(sinv, minlength=len(su)).astype(np.int64)
        for i, txt in enumerate(texts):
            chars[sinv[i]] += len(txt)
            fac[sinv[i]] += _duval_factor_count(txt)
        return pa.table({"source": pa.array(su, type=pa.string()),
                         "n_docs": pa.array(nd),
                         "n_chars": pa.array(chars),
                         "n_factors": pa.array(fac)})

    out = (ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source").sum(["n_docs", "n_chars", "n_factors"]))
    return _rename(out, ["source", "n_docs", "n_chars", "n_factors"])



QUERIES["lyndon_factors_sources"] = q_lyndon_factors_sources



def _lyndon_sidecar(sf_dir: str) -> str:
    """Independent suffix-minima replay of the per-source CFL census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lyndon-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lyndon_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source").fetchall()
        agg: dict[str, list[int]] = {}
        for src, txt in rows:
            a = agg.setdefault(src, [0, 0, 0])
            a[0] += 1
            a[1] += len(txt)
            a[2] += _lyndon_factors_minima(txt)
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "n_chars": pa.array([agg[k][1] for k in ks], pa.int64()),
            "n_factors": pa.array([agg[k][2] for k in ks], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lyndon_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_chars, n_factors "
            f"FROM read_parquet('{_lyndon_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# video_cut_audit: shot-boundary histogram-intersection per clip
# ---------------------------------------------------------------------------


def q_video_cut_audit(sf_dir: str):
    """Shot-boundary audit per clip: 16-bin luma histograms (luma =
    r+g+b in [0,765], bin = luma//48) for every frame, then the exact
    histogram INTERSECTION Σ min(h_f, h_{f+1}) of each adjacent pair —
    the classic cut detector that ignores in-scene motion (histograms
    are position-invariant, so a panning shot keeps high intersection)
    where video_motion_energy's pixel deltas cannot tell a pan from a
    cut. Output per clip: pair count, the minimum intersection (the
    hardest candidate cut) and how many pairs fall under the half-mass
    threshold 2·I < npixels. Decode + histogram is one stacked
    bincount over the batch tensor, no per-pixel python; honest
    'rawseq' codec gate as in ops/video.py. Generator-replay sidecar
    rederives every frame from synth.pixel_pattern with pure-python
    Counter histograms."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def cuts(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"rawseq"}:
            raise NotImplementedError(
                f"no video codec for {sorted(codecs - {'rawseq'})}")
        ids = batch["clip_id"].to_numpy(zero_copy_only=False)
        nf = batch["n_frames"].to_numpy(zero_copy_only=False)
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out_rows: dict[str, list] = {"clip_id": [], "n_pairs": [],
                                     "min_intersect": [], "n_cuts": []}
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, key in enumerate(zip(nf, ws, hs)):
            groups.setdefault(tuple(int(x) for x in key), []).append(i)
        for (f, w, h), slots in groups.items():
            clips = np.stack([
                np.frombuffer(payloads[i], dtype=np.uint8)
                .reshape(f, h, w, 3) for i in slots])
            luma = clips.astype(np.int64).sum(axis=4)   # (k,f,h,w)
            bins = luma // 48                            # 0..15
            k = len(slots)
            npix = h * w
            flat = bins.reshape(k * f, npix)
            off = (np.arange(k * f, dtype=np.int64)[:, None] * 16
                   + flat)
            hist = np.bincount(off.ravel(), minlength=k * f * 16) \
                .reshape(k, f, 16)
            inter = np.minimum(hist[:, 1:], hist[:, :-1]).sum(axis=2)
            out_rows["clip_id"].extend(ids[slots].tolist())
            out_rows["n_pairs"].extend([f - 1] * k)
            out_rows["min_intersect"].extend(
                inter.min(axis=1).astype(np.int64).tolist())
            out_rows["n_cuts"].extend(
                (2 * inter < npix).sum(axis=1).astype(np.int64).tolist())
        return pa.table({
            "clip_id": pa.array(out_rows["clip_id"], pa.int64()),
            "n_pairs": pa.array(out_rows["n_pairs"], pa.int64()),
            "min_intersect": pa.array(out_rows["min_intersect"],
                                      pa.int64()),
            "n_cuts": pa.array(out_rows["n_cuts"], pa.int64())})

    return ds.map_batches(cuts, batch_format="pyarrow", batch_size=32)



QUERIES["video_cut_audit"] = q_video_cut_audit



def _video_cut_sidecar(vid: str) -> str:
    """Generator replay for video_cut_audit: every frame rederived from
    synth.pixel_pattern, histograms via python Counter, pure-int
    intersections. Content-keyed on synth.py."""
    import geotile.synth as _sy
    import pyarrow.parquet as pq
    from collections import Counter
    from pathlib import Path

    p = _oracle_cache_dir() / (
        f"oracle_videocut_{Path(vid).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id", "n_frames", "w", "h"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        nf = int(t["n_frames"][0].as_py())
        w, h = int(t["w"][0].as_py()), int(t["h"][0].as_py())
        rows = []
        for cid in ids.tolist():
            hists = []
            for f in range(nf):
                px = _sy.pixel_pattern(
                    np.array([cid * 64 + f], np.uint64), w, h)[0]
                c: Counter = Counter()
                for row in px.tolist():
                    for (r, g, b) in row:
                        c[(int(r) + int(g) + int(b)) // 48] += 1
                hists.append(c)
            inters = [sum(min(a[k], b[k]) for k in range(16))
                      for a, b in zip(hists, hists[1:])]
            rows.append({
                "clip_id": int(cid),
                "n_pairs": nf - 1,
                "min_intersect": min(inters),
                "n_cuts": sum(1 for i in inters if 2 * i < w * h)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _video_cut_sql(vid: str) -> str:
    return (f"SELECT clip_id, n_pairs, min_intersect, n_cuts "
            f"FROM read_parquet('{_video_cut_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# alias_table_nations: Vose alias-method construction over revenue weights
# ---------------------------------------------------------------------------


def _vose_alias(names: list[str], weights: list[int]):
    """Integer Vose alias-table construction: U_i = n·w_i against
    den T = Σw, FIFO small/large queues in ascending-name order —
    fully deterministic, no floats. Returns (prob_num, alias_name)
    per name; invariant: prob_i + Σ_{j:alias_j=i,j≠i}(T - prob_j)
    = U_i for every i."""
    from collections import deque

    n = len(names)
    t = sum(weights)
    u = [w * n for w in weights]
    prob = [0] * n
    alias = list(range(n))
    small = deque(i for i in range(n) if u[i] < t)
    large = deque(i for i in range(n) if u[i] >= t)
    while small and large:
        s, lg = small.popleft(), large.popleft()
        prob[s] = u[s]
        alias[s] = lg
        u[lg] -= t - u[s]
        (small if u[lg] < t else large).append(lg)
    for q in (small, large):
        while q:
            i = q.popleft()
            prob[i] = t
            alias[i] = i
    return t, prob, alias



def q_alias_table_nations(sf_dir: str):
    """Weighted-sampling alias table over per-nation order revenue:
    the exact integer Vose construction (slot threshold numerators
    n·w against denominator T = Σw, FIFO queues in ascending nation
    order) that turns 'sample orders proportionally to nation
    revenue' into O(1) draws — the structure every distributed
    weighted sampler / data-mixer ships to its workers, here built
    from a fact scan that only leaks 25 (nation, cents) partials.
    Zero-revenue nations are zero-filled so the table covers the full
    dimension. Sampling correctness is the exact integer invariant
    prob_i + Σ_{alias_j=i}(T - prob_j) = n·w_i (pinned by test);
    SQL-aggregated-weights + same-construction replay sidecar."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    from battery.ops.relational import dim_lookup

    ck, cnat = _dim_np(sf_dir, "customer", "c_custkey", ["c_nationkey"])
    nk, nname = _dim_np(sf_dir, "nation", "n_nationkey", ["n_name"])
    ni, nhit = dim_lookup(nk, cnat.astype(np.int64, copy=False))
    if not nhit.all():
        raise ValueError("customer.c_nationkey missing from nation dim")
    dim_ref = ray.put((ck, pa.array(nname[ni], pa.string())))

    def partial(t: pa.Table) -> pa.Table:
        keys, nats = _broadcast(dim_ref)
        idx = pa.array(np.searchsorted(keys, t["o_custkey"].to_numpy()))
        rev = pc.floor(pc.add(pc.multiply(t["o_totalprice"],
                                          pa.scalar(100.0)),
                              pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"nation": pc.take(nats, idx), "w": rev}) \
            .group_by("nation").aggregate([("w", "sum")])
        return pa.table({"nation": g["nation"], "w": g["w_sum"]})

    per = orders.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True) \
                .groupby("nation").sum("w")
    df = _rename(per, ["nation", "w"]).to_pandas()  # ≤25 rows
    wmap = dict(zip(df["nation"], df["w"].astype(int)))
    names = sorted(nname.astype(str).tolist())
    weights = [int(wmap.get(nm, 0)) for nm in names]
    t, prob, alias = _vose_alias(names, weights)
    return pd.DataFrame({
        "nation": names,
        "prob_num": np.array(prob, np.int64),
        "den": np.full(len(names), t, np.int64),
        "alias": [names[a] for a in alias]})



QUERIES["alias_table_nations"] = q_alias_table_nations



def _alias_sidecar(sf_dir: str) -> str:
    """SQL-aggregated weights (independent of the Ray fact scan) +
    same-construction Vose replay."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "alias-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_alias_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(f"""
            SELECT n.n_name,
                   COALESCE(SUM(CAST(FLOOR(o.o_totalprice * 100 + 0.5)
                                     AS BIGINT)), 0) AS w
            FROM read_parquet('{sf_dir}/nation.parquet') n
            LEFT JOIN read_parquet('{sf_dir}/customer.parquet') c
                   ON c.c_nationkey = n.n_nationkey
            LEFT JOIN read_parquet('{sf_dir}/orders.parquet') o
                   ON o.o_custkey = c.c_custkey
            GROUP BY 1 ORDER BY 1""").fetchall()
        names = [r[0] for r in rows]
        weights = [int(r[1]) for r in rows]
        t, prob, alias = _vose_alias(names, weights)
        out = pa.table({
            "nation": pa.array(names, pa.string()),
            "prob_num": pa.array(prob, pa.int64()),
            "den": pa.array([t] * len(names), pa.int64()),
            "alias": pa.array([names[a] for a in alias], pa.string())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _alias_sql(sf_dir: str) -> str:
    return (f"SELECT nation, prob_num, den, alias "
            f"FROM read_parquet('{_alias_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# voptimal_hist_weekly: V-optimal histogram DP over weekly revenue
# ---------------------------------------------------------------------------

_VOPT_B = 8



def _vopt_dp(xs: list[int]):
    """Exact V-optimal partition of the sequence xs into at most
    _VOPT_B contiguous buckets minimizing Σ_b (n_b·SS_b − S_b²) —
    python bigints throughout (prefix SS outgrows int64), earliest
    split wins ties (strict < update). Returns list of (start, end)
    index pairs and the per-bucket scaled-SSE numerators."""
    n = len(xs)
    ps = [0] * (n + 1)
    pss = [0] * (n + 1)
    for i, x in enumerate(xs):
        ps[i + 1] = ps[i] + x
        pss[i + 1] = pss[i] + x * x

    def cost(i: int, j: int) -> int:  # [i, j)
        s = ps[j] - ps[i]
        ss = pss[j] - pss[i]
        return (j - i) * ss - s * s

    big = None
    k = min(_VOPT_B, n)
    dp = [[big] * (n + 1) for _ in range(k + 1)]
    arg = [[0] * (n + 1) for _ in range(k + 1)]
    dp[0][0] = 0
    for b in range(1, k + 1):
        for j in range(1, n + 1):
            best, bi = None, 0
            for i in range(b - 1, j):
                if dp[b - 1][i] is None:
                    continue
                c = dp[b - 1][i] + cost(i, j)
                if best is None or c < best:
                    best, bi = c, i
            dp[b][j] = best
            arg[b][j] = bi
    # exactly k buckets (k = min(B, n) so every bucket non-empty)
    bounds = []
    j = n
    for b in range(k, 0, -1):
        i = arg[b][j]
        bounds.append((i, j))
        j = i
    bounds.reverse()
    return bounds, [cost(i, j) for i, j in bounds]



def q_voptimal_hist_weekly(sf_dir: str):
    """V-optimal histogram over weekly order revenue: the exact
    minimum-variance contiguous partition into 8 buckets of the
    week-grain revenue series — THE selectivity-estimation histogram
    (Jagadish et al.) a cost-based optimizer builds over a time
    column, where equi-width buckets smear seasonal spikes. Objective
    is the scaled per-bucket variance numerator n_b·SS_b − S_b²
    (exact; prefix SS outgrows int64 so the DP runs on python bigints
    and the per-bucket numerator ships as decimal digits). The scan
    contracts to (week, cents) batch partials, the groupby is
    calendar-scale (~345 weeks at sf0.01), and the O(n²·B) DP is a
    driver epilogue on that dimension-scale series; earliest-split
    tie-break pins determinism. SQL-aggregated weekly sums + same-DP
    replay sidecar."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        wk = pc.divide(
            pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                      .cast(pa.int64()),
                      pa.scalar(86_400_000_000, pa.int64())),
            pa.scalar(7, pa.int64()))
        cents = pc.floor(pc.add(pc.multiply(t["o_totalprice"],
                                            pa.scalar(100.0)),
                                pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"week": wk, "cents": cents}) \
            .group_by("week").aggregate([("cents", "sum")])
        return pa.table({"week": g["week"], "cents": g["cents_sum"]})

    wk = (orders.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
          .groupby("week").sum("cents")).to_pandas()
    wk.columns = ["week", "cents"]
    wk = wk.sort_values("week").reset_index(drop=True)
    weeks = wk["week"].astype(int).tolist()
    xs = [int(v) for v in wk["cents"]]
    bounds, costs = _vopt_dp(xs)
    return pd.DataFrame({
        "bucket": np.arange(len(bounds), dtype=np.int64),
        "start_week": np.array([weeks[i] for i, _ in bounds], np.int64),
        "end_week": np.array([weeks[j - 1] for _, j in bounds],
                             np.int64),
        "n_weeks": np.array([j - i for i, j in bounds], np.int64),
        "s_cents": np.array([sum(xs[i:j]) for i, j in bounds],
                            np.int64),
        "sse_num": [str(c) for c in costs]})



QUERIES["voptimal_hist_weekly"] = q_voptimal_hist_weekly



def _vopt_sidecar(sf_dir: str) -> str:
    """SQL-aggregated weekly revenue (independent of the Ray scan) +
    same-DP replay."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "vopt-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_vopt_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(f"""
            SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS week,
                   SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                       AS cents
            FROM read_parquet('{sf_dir}/orders.parquet')
            GROUP BY 1 ORDER BY 1""").fetchall()
        weeks = [int(r[0]) for r in rows]
        xs = [int(r[1]) for r in rows]
        bounds, costs = _vopt_dp(xs)
        out = pa.table({
            "bucket": pa.array(range(len(bounds)), pa.int64()),
            "start_week": pa.array([weeks[i] for i, _ in bounds],
                                   pa.int64()),
            "end_week": pa.array([weeks[j - 1] for _, j in bounds],
                                 pa.int64()),
            "n_weeks": pa.array([j - i for i, j in bounds], pa.int64()),
            "s_cents": pa.array([sum(xs[i:j]) for i, j in bounds],
                                pa.int64()),
            "sse_num": pa.array([str(c) for c in costs], pa.string())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _vopt_sql(sf_dir: str) -> str:
    return (f"SELECT bucket, start_week, end_week, n_weeks, s_cents, "
            f"sse_num FROM read_parquet('{_vopt_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# lsh_bucket_balance_embeddings: sign-LSH occupancy histogram
# ---------------------------------------------------------------------------

_LSH_PLANES = 16



def q_lsh_bucket_balance_embeddings(sf_dir: str):
    """Sign-LSH bucket-balance audit: 16 deterministic ±1 hyperplanes
    (sign of splitmix64(plane·64+dim)'s top bit) over the e6-lattice
    integer embeddings, bucket = the 16 sign bits (strict dot > 0),
    output = occupancy histogram (bucket_size → n_buckets). Balanced
    buckets are THE precondition for LSH-sharded ANN — a fat bucket
    means one shard absorbs the corpus and the recall/latency math
    collapses, which pair-level audits (pair_dist_hist) can't see.
    Integer matmul per batch against the broadcast plane matrix;
    (bucket, count) partials contract before the only shuffle.
    Independent scalar-sm64 python replay sidecar (oracle_ref)."""
    from geotile.synth import splitmix64

    emb = _read(sf_dir, "embeddings", ["embedding"])

    def planes() -> np.ndarray:
        idx = np.arange(_LSH_PLANES * 64, dtype=np.uint64)
        h = splitmix64(idx)
        s = np.where((h >> np.uint64(63)) == 0, 1, -1).astype(np.int64)
        return s.reshape(_LSH_PLANES, 64).T  # (64, planes)

    pref = ray.put(planes())

    def bucketize(t: pa.Table) -> pa.Table:
        S = _broadcast(pref)
        V = np.stack(t["embedding"].to_numpy(zero_copy_only=False)) \
            .astype(np.float64)
        X = np.floor(V * 1_000_000.0).astype(np.int64)
        dots = X @ S                        # (n, planes) int64
        bits = (dots > 0).astype(np.int64)
        bucket = (bits << np.arange(_LSH_PLANES, dtype=np.int64)) \
            .sum(axis=1)
        bu, bc = np.unique(bucket, return_counts=True)
        return pa.table({"bucket": pa.array(bu),
                         "cnt": pa.array(bc.astype(np.int64))})

    occ = (emb.map_batches(bucketize, batch_format="pyarrow",
                           zero_copy_batch=True)
           .groupby("bucket").sum("cnt"))

    def hist(t: pa.Table) -> pa.Table:
        c = t["sum(cnt)"].to_numpy(zero_copy_only=False)
        hu, hn = np.unique(c, return_counts=True)
        return pa.table({"bucket_size": pa.array(hu.astype(np.int64)),
                         "n_buckets": pa.array(hn.astype(np.int64))})

    out = (occ.map_batches(hist, batch_format="pyarrow")
           .groupby("bucket_size").sum("n_buckets"))
    return _rename(out, ["bucket_size", "n_buckets"])



QUERIES["lsh_bucket_balance_embeddings"] = q_lsh_bucket_balance_embeddings



def _lsh_balance_sidecar(sf_dir: str) -> str:
    """Independent replay: scalar oracle_ref.sm64 signs, pure-python
    integer dots, Counter histogram."""
    from collections import Counter
    from hashlib import blake2b
    from pathlib import Path

    import pyarrow.parquet as pq

    from battery.oracle_ref import sm64

    key = blake2b((sf_dir + "lshbal-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lshbal_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        import math

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["embedding"])
        signs = [[1 if sm64(pl * 64 + d) < (1 << 63) else -1
                  for d in range(64)] for pl in range(_LSH_PLANES)]
        occ: Counter = Counter()
        for vec in t["embedding"].to_pylist():
            x = [math.floor(float(v) * 1_000_000.0) for v in vec]
            b = 0
            for pl in range(_LSH_PLANES):
                dot = sum(s * xi for s, xi in zip(signs[pl], x))
                if dot > 0:
                    b |= 1 << pl
            occ[b] += 1
        hist: Counter = Counter(occ.values())
        ks = sorted(hist)
        out = pa.table({
            "bucket_size": pa.array(ks, pa.int64()),
            "n_buckets": pa.array([hist[k] for k in ks], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lsh_balance_sql(sf_dir: str) -> str:
    return (f"SELECT bucket_size, n_buckets "
            f"FROM read_parquet('{_lsh_balance_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# buffer_area_audit_routes: exact e6-lattice shoelace over route buffers
# ---------------------------------------------------------------------------


def q_buffer_area_audit_routes(sf_dir: str):
    """Exact polygon-area audit of the route buffers: every buffer
    ring's vertices floored onto the e6 lattice, shoelace 2A summed
    per closed ring with a per-polygon min-corner anchor (translation
    leaves a CLOSED ring's shoelace invariant, so both engines anchor
    identically and every product stays small), reported per route as
    Σ|2A| in e-12 deg² plus polygon and edge counts — the sanity
    gate a tiling stage runs before rasterizing buffers into cell
    masks (a degenerate/self-crossing buffer shows up as area far
    from n_cells·cell_area, invisible to vertex-count checks). Edge
    partials flow through a Ray pipeline at polygon grain; PURE-SQL
    window-MIN + SUM replay over the content-keyed geometry edges
    sidecar (no python on the oracle path)."""
    from geotile.config import PipelineConfig
    from geotile.geom.pip import _edges
    from geotile.ops.join import route_buffer_polygons

    polys = route_buffer_polygons(_fixture_ctx(),
                                  PipelineConfig(coordinate_precision=5))
    cols = {"route_id": [], "poly_id": [], "x1": [], "y1": [],
            "x2": [], "y2": []}
    pid = 0
    for rid in sorted(polys):
        for outer, holes in polys[rid]:
            x1, y1, x2, y2 = _edges([outer] + list(holes))
            cols["route_id"].extend([rid] * len(x1))
            cols["poly_id"].append(np.full(len(x1), pid, np.int64))
            cols["x1"].append(x1)
            cols["y1"].append(y1)
            cols["x2"].append(x2)
            cols["y2"].append(y2)
            pid += 1
    edges = pa.table({
        "route_id": pa.array(cols["route_id"], pa.string()),
        "poly_id": pa.array(np.concatenate(cols["poly_id"])),
        **{k: pa.array(np.concatenate(cols[k]))
           for k in ("x1", "y1", "x2", "y2")}})

    ds = rd.from_arrow(edges)

    def area(df: pd.DataFrame) -> pd.DataFrame:
        x1 = np.floor(df["x1"].to_numpy() * 1e6).astype(np.int64)
        y1 = np.floor(df["y1"].to_numpy() * 1e6).astype(np.int64)
        x2 = np.floor(df["x2"].to_numpy() * 1e6).astype(np.int64)
        y2 = np.floor(df["y2"].to_numpy() * 1e6).astype(np.int64)
        mx, my = x1.min(), y1.min()
        a2 = ((x1 - mx) * (y2 - my) - (x2 - mx) * (y1 - my)).sum()
        return pd.DataFrame({
            "route_id": [df["route_id"].iloc[0]],
            "poly_id": np.array([int(df["poly_id"].iloc[0])], np.int64),
            "abs_area2_e12": np.array([abs(int(a2))], np.int64),
            "n_edges": np.array([len(df)], np.int64)})

    per_poly = ds.groupby("poly_id").map_groups(area,
                                                batch_format="pandas")
    out = per_poly.groupby("route_id").aggregate(
        rd.aggregate.Count(), rd.aggregate.Sum("abs_area2_e12"),
        rd.aggregate.Sum("n_edges"))
    return _rename(out, ["route_id", "n_polys", "abs_area2_e12",
                         "n_edges"])



QUERIES["buffer_area_audit_routes"] = q_buffer_area_audit_routes



def _buffer_area_sql() -> str:
    return f"""
        WITH e AS (
            SELECT route_id, poly_id,
                   CAST(FLOOR(x1 * 1000000) AS BIGINT) AS x1,
                   CAST(FLOOR(y1 * 1000000) AS BIGINT) AS y1,
                   CAST(FLOOR(x2 * 1000000) AS BIGINT) AS x2,
                   CAST(FLOOR(y2 * 1000000) AS BIGINT) AS y2
            FROM read_parquet('{_oracle_edges_path()}')),
        m AS (
            SELECT *, MIN(x1) OVER (PARTITION BY poly_id) AS mx,
                      MIN(y1) OVER (PARTITION BY poly_id) AS my
            FROM e),
        a AS (
            SELECT route_id, poly_id,
                   SUM((x1 - mx) * (y2 - my)
                       - (x2 - mx) * (y1 - my)) AS a2,
                   COUNT(*) AS ne
            FROM m GROUP BY 1, 2)
        SELECT route_id,
               CAST(COUNT(*) AS BIGINT) AS n_polys,
               CAST(SUM(ABS(a2)) AS BIGINT) AS abs_area2_e12,
               CAST(SUM(ne) AS BIGINT) AS n_edges
        FROM a GROUP BY 1
    """



# ---------------------------------------------------------------------------
# cube_status_priority: CUBE grouping sets over orders
# ---------------------------------------------------------------------------


def q_cube_status_priority(sf_dir: str):
    """CUBE grouping sets: order count and exact revenue cents by
    (status, priority), (status), (priority) and the grand total in
    ONE scan — the OLAP operator (GROUP BY CUBE) every warehouse
    exposes, absent from Ray Data's surface: here the fact scan
    contracts once to the finest (status, priority) grain (15 cells)
    and all four grouping sets roll up from those partials at driver
    scale, so the three coarser sets cost zero extra passes. Sentinel
    'ALL' marks rolled-up axes (mirrored via COALESCE in the SQL
    CUBE replay)."""
    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(t["o_totalprice"],
                                            pa.scalar(100.0)),
                                pa.scalar(0.5))).cast(pa.int64())
        g = pa.table({"status": t["o_orderstatus"],
                      "priority": t["o_orderpriority"],
                      "cents": cents}) \
            .group_by(["status", "priority"]) \
            .aggregate([("cents", "sum"), ([], "count_all")])
        return pa.table({"status": g["status"],
                         "priority": g["priority"],
                         "cents": g["cents_sum"],
                         "n": g["count_all"].cast(pa.int64())})

    fine = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby(["status", "priority"])
            .sum(["cents", "n"])).to_pandas()
    fine.columns = ["status", "priority", "cents", "n"]

    def rollup(df, keys):
        if keys:
            g = df.groupby(keys, as_index=False)[["cents", "n"]].sum()
        else:
            g = pd.DataFrame({"cents": [df["cents"].sum()],
                              "n": [df["n"].sum()]})
        for c in ("status", "priority"):
            if c not in g.columns:
                g[c] = "ALL"
        return g[["status", "priority", "cents", "n"]]

    out = pd.concat([rollup(fine, ["status", "priority"]),
                     rollup(fine, ["status"]),
                     rollup(fine, ["priority"]),
                     rollup(fine, [])], ignore_index=True)
    out["n_orders"] = out.pop("n").astype(np.int64)
    out["cents"] = out["cents"].astype(np.int64)
    return out[["status", "priority", "n_orders", "cents"]]



QUERIES["cube_status_priority"] = q_cube_status_priority

ORACLE_SQL["cube_status_priority"] = """
        SELECT COALESCE(o_orderstatus, 'ALL') AS status,
               COALESCE(o_orderpriority, 'ALL') AS priority,
               CAST(COUNT(*) AS BIGINT) AS n_orders,
               CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5)
                             AS BIGINT)) AS BIGINT) AS cents
        FROM orders
        GROUP BY CUBE (o_orderstatus, o_orderpriority)
    """



# ---------------------------------------------------------------------------
# frechet_direction_gap_routes: discrete Fréchet between direction shapes
# ---------------------------------------------------------------------------


def _frechet_sq_dp(p: np.ndarray, q: np.ndarray) -> int:
    """Discrete Fréchet distance (SQUARED euclidean, exact ints) via
    the standard DP d[i][j] = max(cost, min(up, left, diag))."""
    n, m = len(p), len(q)
    dx = p[:, 0][:, None] - q[:, 0][None, :]
    dy = p[:, 1][:, None] - q[:, 1][None, :]
    c = dx * dx + dy * dy
    d = np.empty((n, m), dtype=object)  # python ints (no overflow)
    cc = c.tolist()
    for i in range(n):
        for j in range(m):
            v = cc[i][j]
            if i == 0 and j == 0:
                d[i][j] = v
            elif i == 0:
                d[i][j] = max(v, d[0][j - 1])
            elif j == 0:
                d[i][j] = max(v, d[i - 1][0])
            else:
                d[i][j] = max(v, min(d[i - 1][j], d[i][j - 1],
                                     d[i - 1][j - 1]))
    return int(d[n - 1][m - 1])



def _frechet_sq_bfs(p: list, q: list) -> int:
    """INDEPENDENT replay: d_F² is the smallest pairwise squared
    distance t such that a monotone path (0,0)→(n-1,m-1) exists
    through grid cells with cost ≤ t — binary search over the sorted
    unique costs with a DFS reachability check (no DP recurrence)."""
    n, m = len(p), len(q)
    costs = [[(p[i][0] - q[j][0]) ** 2 + (p[i][1] - q[j][1]) ** 2
              for j in range(m)] for i in range(n)]
    cands = sorted({costs[i][j] for i in range(n) for j in range(m)})

    def ok(t: int) -> bool:
        if costs[0][0] > t or costs[n - 1][m - 1] > t:
            return False
        seen = [[False] * m for _ in range(n)]
        stack = [(0, 0)]
        seen[0][0] = True
        while stack:
            i, j = stack.pop()
            if (i, j) == (n - 1, m - 1):
                return True
            for ii, jj in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
                if ii < n and jj < m and not seen[ii][jj] \
                        and costs[ii][jj] <= t:
                    seen[ii][jj] = True
                    stack.append((ii, jj))
        return False

    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]



def q_frechet_direction_gap_routes(sf_dir: str):
    """Corridor-consistency audit per route: the exact discrete
    Fréchet distance (squared, on e6-lattice lon/lat ints) between a
    route's direction-0 and direction-1 shapes — the service-design
    check that inbound and outbound actually share a corridor; a
    couplings-based metric, so a route whose directions split around
    a one-way pair scores its true worst leash where min-vertex
    distance (route_pair_min_vertex_dist) reads near zero. Shape
    points normalize inside per-shape co-partitions (sorted by
    shape_pt_sequence); the O(n·m) DP runs as a route-grain driver
    epilogue on the dimension-scale point sets. INDEPENDENT replay:
    binary search over candidate leashes with a DFS free-space
    reachability check, no DP recurrence."""
    d = _fixture_sql_dir()
    import pyarrow.parquet as _pq

    trips = _pq.read_table(f"{d}/trips.parquet",
                           columns=["route_id", "direction_id",
                                    "shape_id"])
    s2rd = {}
    for rid, did, sid in zip(trips["route_id"].to_pylist(),
                             trips["direction_id"].to_pylist(),
                             trips["shape_id"].to_pylist()):
        s2rd[sid] = (rid, int(did))

    shapes = rd.read_parquet(f"{d}/shapes.parquet",
                             columns=["shape_id", "shape_pt_lat",
                                      "shape_pt_lon",
                                      "shape_pt_sequence"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("shape_pt_sequence", kind="stable")
        return pd.DataFrame({
            "shape_id": df["shape_id"].to_numpy(),
            "k": np.arange(len(df), dtype=np.int64),
            "x": np.floor(df["shape_pt_lon"].to_numpy() * 1e6)
            .astype(np.int64),
            "y": np.floor(df["shape_pt_lat"].to_numpy() * 1e6)
            .astype(np.int64)})

    pts = shapes.groupby("shape_id").map_groups(
        norm, batch_format="pandas").take_all()  # dimension-scale
    by_shape: dict[str, list] = {}
    for r in pts:
        by_shape.setdefault(r["shape_id"], []).append(
            (r["k"], r["x"], r["y"]))
    routes: dict[str, dict[int, np.ndarray]] = {}
    for sid, rows in by_shape.items():
        if sid not in s2rd:
            continue
        rid, did = s2rd[sid]
        rows.sort()
        routes.setdefault(rid, {})[did] = np.array(
            [(x, y) for _, x, y in rows], dtype=object)
    out = {"route_id": [], "n_pts_dir0": [], "n_pts_dir1": [],
           "frechet_sq_e12": []}
    for rid in sorted(routes):
        if 0 not in routes[rid] or 1 not in routes[rid]:
            continue
        p, q = routes[rid][0], routes[rid][1]
        out["route_id"].append(rid)
        out["n_pts_dir0"].append(len(p))
        out["n_pts_dir1"].append(len(q))
        out["frechet_sq_e12"].append(_frechet_sq_dp(p, q))
    return pd.DataFrame({
        "route_id": out["route_id"],
        "n_pts_dir0": np.array(out["n_pts_dir0"], np.int64),
        "n_pts_dir1": np.array(out["n_pts_dir1"], np.int64),
        "frechet_sq_e12": np.array(out["frechet_sq_e12"], np.int64)})



QUERIES["frechet_direction_gap_routes"] = q_frechet_direction_gap_routes



def _frechet_sidecar() -> str:
    """Independent BFS-threshold replay over SQL-extracted shapes."""
    from hashlib import blake2b

    import duckdb

    d = _fixture_sql_dir()
    key = blake2b((d + "frechet-v1").encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / f"oracle_frechet_{key}.parquet"
    if not p.exists():
        con = duckdb.connect()
        srd = con.execute(f"""
            SELECT DISTINCT shape_id, route_id, direction_id
            FROM read_parquet('{d}/trips.parquet')""").fetchall()
        pts = con.execute(f"""
            SELECT shape_id,
                   CAST(FLOOR(shape_pt_lon * 1000000) AS BIGINT),
                   CAST(FLOOR(shape_pt_lat * 1000000) AS BIGINT)
            FROM read_parquet('{d}/shapes.parquet')
            ORDER BY shape_id, shape_pt_sequence""").fetchall()
        by_shape: dict[str, list] = {}
        for sid, x, y in pts:
            by_shape.setdefault(sid, []).append((int(x), int(y)))
        routes: dict[str, dict[int, list]] = {}
        for sid, rid, did in srd:
            if sid in by_shape:
                routes.setdefault(rid, {})[int(did)] = by_shape[sid]
        rows = []
        for rid in sorted(routes):
            if 0 in routes[rid] and 1 in routes[rid]:
                pp, qq = routes[rid][0], routes[rid][1]
                rows.append({
                    "route_id": rid,
                    "n_pts_dir0": len(pp),
                    "n_pts_dir1": len(qq),
                    "frechet_sq_e12": _frechet_sq_bfs(pp, qq)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _frechet_sql() -> str:
    return (f"SELECT route_id, n_pts_dir0, n_pts_dir1, frechet_sq_e12 "
            f"FROM read_parquet('{_frechet_sidecar()}')")



# ---------------------------------------------------------------------------
# multi_distinct_orders: three distinct aggregates in one scan
# ---------------------------------------------------------------------------


def q_multi_distinct_orders(sf_dir: str):
    """Multi-distinct in one scan: per order priority, COUNT(*),
    COUNT(DISTINCT custkey), COUNT(DISTINCT order day) and
    COUNT(DISTINCT (custkey, day)) — the multiple-distinct-aggregate
    plan every SQL engine special-cases (each distinct normally
    forces its own shuffle-dedup of the full scan): here ONE batch
    pass emits per-batch-distinct (priority, kind, val) partials for
    all three key spaces (pairs packed cust·2^20+day; row counts ride
    the kind-0 partial as a summed cnt column so no extra pass), one
    grouped dedup shuffles only distinct partials, and a per-priority
    fold finishes. Direct multi-DISTINCT SQL replay."""
    orders = _read(sf_dir, "orders",
                   ["o_orderpriority", "o_custkey", "o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        prio = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        cust = t["o_custkey"].to_numpy(zero_copy_only=False)
        day = (t["o_orderdate"].cast(pa.timestamp("us"))
               .cast(pa.int64()).to_numpy() // 86_400_000_000)
        pair = cust * 1_048_576 + day
        frames = []
        df = pd.DataFrame({"priority": prio, "v": cust})
        g = df.groupby(["priority", "v"], as_index=False).size()
        frames.append(pd.DataFrame({
            "priority": g["priority"], "kind": 0, "val": g["v"],
            "cnt": g["size"].astype(np.int64)}))
        for kind, v in ((1, day), (2, pair)):
            dd = pd.DataFrame({"priority": prio, "v": v}) \
                .drop_duplicates()
            frames.append(pd.DataFrame({
                "priority": dd["priority"], "kind": kind,
                "val": dd["v"], "cnt": np.int64(0)}))
        o = pd.concat(frames, ignore_index=True)
        o["kind"] = o["kind"].astype(np.int64)
        o["val"] = o["val"].astype(np.int64)
        return pa.Table.from_pandas(o, preserve_index=False)

    dedup = (orders.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)
             .groupby(["priority", "kind", "val"]).sum("cnt"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        k = df["kind"].to_numpy()
        return pd.DataFrame({
            "priority": [df["priority"].iloc[0]],
            "n_orders": np.array([int(df.loc[k == 0, "sum(cnt)"]
                                      .sum())], np.int64),
            "nd_cust": np.array([int((k == 0).sum())], np.int64),
            "nd_days": np.array([int((k == 1).sum())], np.int64),
            "nd_cust_days": np.array([int((k == 2).sum())], np.int64)})

    return dedup.groupby("priority").map_groups(fold,
                                                batch_format="pandas")



QUERIES["multi_distinct_orders"] = q_multi_distinct_orders

ORACLE_SQL["multi_distinct_orders"] = """
        SELECT o_orderpriority AS priority,
               CAST(COUNT(*) AS BIGINT) AS n_orders,
               CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS nd_cust,
               CAST(COUNT(DISTINCT epoch_us(o_orderdate) // 86400000000)
                    AS BIGINT) AS nd_days,
               CAST(COUNT(DISTINCT o_custkey * 1048576
                          + epoch_us(o_orderdate) // 86400000000)
                    AS BIGINT) AS nd_cust_days
        FROM orders GROUP BY 1
    """



# ---------------------------------------------------------------------------
# km_survival_weeks: Kaplan-Meier ingredients over inter-purchase gaps
# ---------------------------------------------------------------------------


def q_km_survival_weeks(sf_dir: str):
    """Kaplan-Meier survival ingredients over inter-purchase gaps:
    every consecutive order pair of a customer is an observed
    repurchase EVENT at gap g = (d2−d1)//7 weeks; each customer's
    time since their LAST order (to the corpus-max order day) is a
    right-CENSORED gap — the churn-modeling input no plain gap
    histogram (purchase_gap_median) carries, because dropping the
    censored mass biases survival toward the fast repurchasers. Rows
    per observed week: events d_w, censored c_w, and the at-risk
    count n_w = Σ_{v≥w}(d_v+c_v), all exact integers (the KM product
    estimator is then Π(1−d/n) downstream). Per-customer folds run in
    dimension-scale co-partitions after a one-column max-day pass;
    the suffix-sum epilogue is week-scale. Window LAG/LEAD +
    descending cumulative SQL replay."""
    days_ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def pre(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"cust": t["o_custkey"], "day": day})

    facts = days_ds.map_batches(pre, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
    maxday = int(facts.max("day"))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = np.sort(df["day"].to_numpy())
        gaps = (np.diff(d) // 7).astype(np.int64)
        cen = np.int64((maxday - d[-1]) // 7)
        wk = np.concatenate([gaps, [cen]])
        kind = np.concatenate([np.zeros(len(gaps), np.int64),
                               np.ones(1, np.int64)])
        u, inv = np.unique(np.stack([wk, kind], 1), axis=0,
                           return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        return pd.DataFrame({"week": u[:, 0], "kind": u[:, 1],
                             "n": n})

    hist = (facts.groupby("cust").map_groups(fold,
                                             batch_format="pandas")
            .groupby(["week", "kind"]).sum("n")).to_pandas()
    hist.columns = ["week", "kind", "n"]
    piv = hist.pivot_table(index="week", columns="kind", values="n",
                           aggfunc="sum", fill_value=0)
    weeks = np.sort(piv.index.to_numpy())[::-1]  # descending
    ev = piv.reindex(weeks).get(0, pd.Series(0, index=weeks)) \
        .fillna(0).to_numpy(np.int64)
    ce = piv.reindex(weeks).get(1, pd.Series(0, index=weeks)) \
        .fillna(0).to_numpy(np.int64)
    at_risk = np.cumsum(ev + ce)
    out = pd.DataFrame({"week": weeks, "n_events": ev,
                        "n_censored": ce, "n_at_risk": at_risk})
    return out.sort_values("week").reset_index(drop=True)



QUERIES["km_survival_weeks"] = q_km_survival_weeks

ORACLE_SQL["km_survival_weeks"] = """
        WITH d AS (SELECT o_custkey AS cust,
                          epoch_us(o_orderdate) // 86400000000 AS day
                   FROM orders),
        mx AS (SELECT MAX(day) AS m FROM d),
        nxt AS (SELECT cust, day,
                       LEAD(day) OVER (PARTITION BY cust
                                       ORDER BY day) AS nd
                FROM d),
        obs AS (
            SELECT (nd - day) // 7 AS week, 1 AS ev, 0 AS ce
            FROM nxt WHERE nd IS NOT NULL
            UNION ALL
            SELECT ((SELECT m FROM mx) - day) // 7, 0, 1
            FROM nxt WHERE nd IS NULL),
        h AS (SELECT week, SUM(ev) AS e, SUM(ce) AS c
              FROM obs GROUP BY 1)
        SELECT CAST(week AS BIGINT) AS week,
               CAST(e AS BIGINT) AS n_events,
               CAST(c AS BIGINT) AS n_censored,
               CAST(SUM(e + c) OVER (ORDER BY week DESC
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_at_risk
        FROM h
    """



# ---------------------------------------------------------------------------
# csa_earliest_arrival: Connection Scan earliest-arrival from first stop
# ---------------------------------------------------------------------------


def _csa_scan(conns: list, source: str) -> dict:
    """Connection Scan (Dibbelt et al.): one pass over connections in
    departure-time order; board when the stop was reached at or
    before departure (zero transfer time)."""
    arr = {source: 0}
    inf = None
    for dep_stop, arr_stop, dep_t, arr_t in conns:
        a = arr.get(dep_stop, inf)
        if a is not None and a <= dep_t:
            cur = arr.get(arr_stop, inf)
            if cur is None or arr_t < cur:
                arr[arr_stop] = arr_t
    return arr



def _csa_bellman(conns: list, source: str) -> dict:
    """INDEPENDENT replay: order-free label correction (Bellman-Ford
    over the same boarding relation) iterated to fixpoint — no
    departure-time sort, so a scan-order bug in CSA cannot hide."""
    arr = {source: 0}
    changed = True
    while changed:
        changed = False
        for dep_stop, arr_stop, dep_t, arr_t in conns:
            a = arr.get(dep_stop)
            if a is not None and a <= dep_t:
                cur = arr.get(arr_stop)
                if cur is None or arr_t < cur:
                    arr[arr_stop] = arr_t
                    changed = True
    return arr



def q_csa_earliest_arrival(sf_dir: str):
    """Connection Scan earliest arrival: from the lexicographically
    smallest stop at time 0, the earliest reachable arrival second at
    every stop over the scheduled connection ledger (consecutive
    stop_time pairs within each trip; boarding needs arrival ≤
    departure, zero transfer slack) — THE transit-routing primitive
    (Dibbelt et al.'s CSA) that turns a timetable into reachability,
    which no per-leg statistic (stop_spacing_legs, gtfs_leg_speed)
    can answer. Connections assemble inside per-trip co-partitions
    (stop_sequence sort, like eulerian_audit's legs); the one-pass
    scan over the time-sorted ledger is a driver epilogue — at fleet
    scale it partitions by departure-time windows with frontier
    exchange. Unreachable stops are omitted. INDEPENDENT replay:
    order-free Bellman-Ford label correction to fixpoint over
    ROW_NUMBER-adjacency SQL connections."""
    d = _fixture_sql_dir()
    st = rd.read_parquet(f"{d}/stop_times.parquet",
                         columns=["trip_id", "stop_id", "stop_sequence",
                                  "arrival_time", "departure_time"])

    def secs(col) -> np.ndarray:
        parts = pc.split_pattern(col, ":")
        flat = pc.list_flatten(parts).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).reshape(-1, 3)
        return flat[:, 0] * 3600 + flat[:, 1] * 60 + flat[:, 2]

    def legs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("stop_sequence", kind="stable")
        stop = df["stop_id"].to_numpy()
        dep = secs(pa.chunked_array([pa.array(df["departure_time"])]))
        arr = secs(pa.chunked_array([pa.array(df["arrival_time"])]))
        if len(df) < 2:
            return pd.DataFrame({
                "dep_stop": pd.Series([], dtype=object),
                "arr_stop": pd.Series([], dtype=object),
                "dep_t": pd.Series([], dtype=np.int64),
                "arr_t": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "dep_stop": stop[:-1], "arr_stop": stop[1:],
            "dep_t": dep[:-1].astype(np.int64),
            "arr_t": arr[1:].astype(np.int64)})

    conns_rows = st.groupby("trip_id").map_groups(
        legs, batch_format="pandas").take_all()  # timetable-scale
    conns = sorted(
        ((r["dep_stop"], r["arr_stop"], int(r["dep_t"]),
          int(r["arr_t"])) for r in conns_rows),
        key=lambda c: (c[2], c[3], c[0], c[1]))
    stops = {c[0] for c in conns} | {c[1] for c in conns}
    source = min(stops)
    arr = _csa_scan(conns, source)
    ks = sorted(arr)
    return pd.DataFrame({
        "stop_id": ks,
        "earliest_arr_s": np.array([arr[k] for k in ks], np.int64)})



QUERIES["csa_earliest_arrival"] = q_csa_earliest_arrival



def _csa_sidecar() -> str:
    """ROW_NUMBER-adjacency SQL connections + Bellman-Ford replay."""
    from hashlib import blake2b

    import duckdb

    d = _fixture_sql_dir()
    key = blake2b((d + "csa-v1").encode(), digest_size=8).hexdigest()
    p = _oracle_cache_dir() / f"oracle_csa_{key}.parquet"
    if not p.exists():
        con = duckdb.connect()

        def s(col: str) -> str:
            return (f"(CAST(split_part({col}, ':', 1) AS BIGINT) * 3600"
                    f" + CAST(split_part({col}, ':', 2) AS BIGINT) * 60"
                    f" + CAST(split_part({col}, ':', 3) AS BIGINT))")

        rows = con.execute(f"""
            WITH o AS (SELECT trip_id, stop_id,
                              {s('arrival_time')} AS arr_s,
                              {s('departure_time')} AS dep_s,
                              ROW_NUMBER() OVER (PARTITION BY trip_id
                                  ORDER BY stop_sequence) AS rn
                       FROM read_parquet('{d}/stop_times.parquet'))
            SELECT a.stop_id, b.stop_id, a.dep_s, b.arr_s
            FROM o a JOIN o b
              ON b.trip_id = a.trip_id AND b.rn = a.rn + 1""").fetchall()
        conns = [(r[0], r[1], int(r[2]), int(r[3])) for r in rows]
        stops = {c[0] for c in conns} | {c[1] for c in conns}
        arr = _csa_bellman(conns, min(stops))
        ks = sorted(arr)
        out = pa.table({
            "stop_id": pa.array(ks, pa.string()),
            "earliest_arr_s": pa.array([arr[k] for k in ks],
                                       pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _csa_sql() -> str:
    return (f"SELECT stop_id, earliest_arr_s "
            f"FROM read_parquet('{_csa_sidecar()}')")



# ---------------------------------------------------------------------------
# merkle_root_orders: anti-entropy hash tree over the orderkey set
# ---------------------------------------------------------------------------

_MERKLE_LEAVES = 4096  # 2^12 leaves, keyed by splitmix top bits



def _merkle_tree(leaves: list) -> tuple:
    """Binary hash tree over the fixed leaf array: parent =
    sm64((a·FNV + b) mod 2^64) — asymmetric, so sibling swaps change
    the root. Returns (root, levels)."""
    from battery.oracle_ref import _POLY_P, sm64

    level = list(leaves)
    levels = 0
    while len(level) > 1:
        level = [sm64((level[i] * _POLY_P + level[i + 1])
                      & ((1 << 64) - 1))
                 for i in range(0, len(level), 2)]
        levels += 1
    return level[0], levels



def q_merkle_root_orders(sf_dir: str):
    """Anti-entropy Merkle root over the orderkey SET: every key
    hashes with splitmix64, lands in one of 4096 leaves by its top 12
    bits, leaves accumulate by XOR (order-free, so block order can't
    change the result), and a binary tree with the asymmetric combine
    sm64(a·FNV+b) folds to one root — the replica-sync structure
    Dynamo/Cassandra exchange so two 100-TB replicas can find their
    diverging key ranges in log time instead of shipping key lists.
    Output: root, tree depth, row count, non-empty leaves. XOR is a
    perfect per-batch partial (one np.bitwise_xor.reduceat per
    batch); only ≤4096 (leaf, xor, n) partials shuffle; the tree fold
    is a driver epilogue. Independent scalar-sm64 replay sidecar over
    SQL-fetched keys."""
    from geotile.synth import splitmix64

    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        h = splitmix64(t["o_orderkey"].to_numpy(zero_copy_only=False)
                       .astype(np.uint64))
        leaf = (h >> np.uint64(52)).astype(np.int64)
        o = np.argsort(leaf, kind="stable")
        leaf_s, h_s = leaf[o], h[o]
        starts = np.flatnonzero(np.diff(leaf_s, prepend=-1))
        x = np.bitwise_xor.reduceat(h_s, starts)
        n = np.diff(np.append(starts, len(leaf_s))).astype(np.int64)
        return pa.table({"leaf": pa.array(leaf_s[starts]),
                         "x": pa.array(x.view(np.int64)),
                         "n": pa.array(n)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        x = np.bitwise_xor.reduce(df["x"].to_numpy().view(np.uint64))
        return pd.DataFrame({
            "leaf": np.array([int(df["leaf"].iloc[0])], np.int64),
            "x": np.array([np.int64(np.uint64(x).astype(np.int64))],
                          np.int64),
            "n": np.array([int(df["n"].sum())], np.int64)})

    per_leaf = (orders.map_batches(part, batch_format="pyarrow",
                                   zero_copy_batch=True)
                .groupby("leaf").map_groups(fold, batch_format="pandas")
                ).to_pandas()
    leaves = [0] * _MERKLE_LEAVES
    for lf, xv in zip(per_leaf["leaf"], per_leaf["x"]):
        leaves[int(lf)] = int(xv) & ((1 << 64) - 1)
    root, depth = _merkle_tree(leaves)
    return pd.DataFrame({
        "root": np.array([root - (1 << 64) if root >= (1 << 63)
                          else root], np.int64),
        "depth": np.array([depth], np.int64),
        "n_rows": np.array([int(per_leaf["n"].sum())], np.int64),
        "n_nonempty_leaves": np.array([len(per_leaf)], np.int64)})



QUERIES["merkle_root_orders"] = q_merkle_root_orders



def _merkle_sidecar(sf_dir: str) -> str:
    """Scalar-sm64 replay: python-int hashing and XOR accumulation
    over SQL-fetched orderkeys, same tree fold."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from battery.oracle_ref import sm64

    key = blake2b((sf_dir + "merkle-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_merkle_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        leaves = [0] * _MERKLE_LEAVES
        nonempty = set()
        for (k,) in ks:
            h = sm64(int(k) & ((1 << 64) - 1))
            b = h >> 52
            leaves[b] ^= h
            nonempty.add(b)
        root, depth = _merkle_tree(leaves)
        out = pa.table({
            "root": pa.array([root - (1 << 64) if root >= (1 << 63)
                              else root], pa.int64()),
            "depth": pa.array([depth], pa.int64()),
            "n_rows": pa.array([len(ks)], pa.int64()),
            "n_nonempty_leaves": pa.array([len(nonempty)], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _merkle_sql(sf_dir: str) -> str:
    return (f"SELECT root, depth, n_rows, n_nonempty_leaves "
            f"FROM read_parquet('{_merkle_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# skyline_parts: distributed 2-D skyline (min price, max size)
# ---------------------------------------------------------------------------


def _skyline_sweep(cents: np.ndarray, size: np.ndarray):
    """2-D skyline sweep: sort by (cents asc), walk cents groups in
    order keeping a group only if its max size strictly beats every
    cheaper point's size; within a group only max-size points survive
    (a same-price smaller part is dominated). Returns a boolean keep
    mask aligned to the input order."""
    n = len(cents)
    keep = np.zeros(n, bool)
    order = np.lexsort((size, cents))
    best = None
    i = 0
    cs, ss = cents[order], size[order]
    while i < n:
        j = i
        while j < n and cs[j] == cs[i]:
            j += 1
        gmax = ss[j - 1]  # size ascending within the cents group
        if best is None or gmax > best:
            k = j - 1
            while k >= i and ss[k] == gmax:
                keep[order[k]] = True
                k -= 1
            best = gmax
        i = j
    return keep



def q_skyline_parts(sf_dir: str):
    """Skyline (Pareto-optimal set) over parts on (min retail-price,
    max size): a part survives iff no other part is at-most-as-
    expensive AND at-least-as-big with one strict — the
    multi-criteria shortlist operator (Börzsönyi's SKYLINE OF)
    warehouses bolt onto SQL, distinct from pareto_frontier_nations'
    25-row dimension case because here the SCALE story is the
    contraction: a local skyline is a sound partial (the global
    skyline is a subset of the union of local skylines), so each
    batch sweeps down to its own frontier and only frontier rows
    reach the driver's final sweep. Duplicate (price,size) points are
    mutually non-dominating and all survive (pinned by test).
    NOT-EXISTS dominance SQL replay."""
    parts = _read(sf_dir, "part",
                  ["p_partkey", "p_retailprice", "p_size"])

    def local(t: pa.Table) -> pa.Table:
        cents = pc.floor(pc.add(pc.multiply(t["p_retailprice"],
                                            pa.scalar(100.0)),
                                pa.scalar(0.5))).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        size = t["p_size"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        keep = _skyline_sweep(cents, size)
        return pa.table({
            "p_partkey": pa.array(
                t["p_partkey"].to_numpy(zero_copy_only=False)[keep]),
            "cents": pa.array(cents[keep]),
            "size": pa.array(size[keep])})

    cand = parts.map_batches(local, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    ck = np.array([r["cents"] for r in cand], np.int64)
    sz = np.array([r["size"] for r in cand], np.int64)
    pk = np.array([r["p_partkey"] for r in cand], np.int64)
    keep = _skyline_sweep(ck, sz)
    o = np.argsort(pk[keep])
    return pd.DataFrame({"p_partkey": pk[keep][o],
                         "cents": ck[keep][o],
                         "size": sz[keep][o]})



QUERIES["skyline_parts"] = q_skyline_parts

ORACLE_SQL["skyline_parts"] = """
        WITH p AS (SELECT p_partkey,
                          CAST(FLOOR(p_retailprice * 100 + 0.5)
                               AS BIGINT) AS cents,
                          CAST(p_size AS BIGINT) AS size
                   FROM part)
        SELECT p_partkey, cents, size FROM p a
        WHERE NOT EXISTS (
            SELECT 1 FROM p b
            WHERE b.cents <= a.cents AND b.size >= a.size
              AND (b.cents < a.cents OR b.size > a.size))
    """



# ---------------------------------------------------------------------------
# lrs_census_sources: longest repeated substring per doc, by source
# ---------------------------------------------------------------------------


def _lrs_sa_kasai(text: str) -> int:
    """Longest repeated substring length = max adjacent LCP in suffix
    order; suffix array via the vectorized prefix-doubling kernel,
    LCP via Kasai's O(n) scan."""
    n = len(text)
    if n < 2:
        return 0
    codes = np.frombuffer(text.encode("utf-32-le"), np.uint32) \
        .astype(np.int64)
    sa = _suffix_array_np(codes)
    rank = np.empty(n, np.int64)
    rank[sa] = np.arange(n)
    best = 0
    h = 0
    s = codes
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            while i + h < n and j + h < n and s[i + h] == s[j + h]:
                h += 1
            if h > best:
                best = h
            if h:
                h -= 1
        else:
            h = 0
    return int(best)



def _lrs_bisect_set(text: str) -> int:
    """INDEPENDENT replay: binary search on the repeat length (the
    predicate 'some substring of length L occurs twice' is monotone),
    each probe a plain python set of slices — no suffix array, no
    LCP recurrence."""
    n = len(text)

    def has_repeat(length: int) -> bool:
        seen = set()
        for i in range(n - length + 1):
            sub = text[i:i + length]
            if sub in seen:
                return True
            seen.add(sub)
        return False

    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_repeat(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo



def q_lrs_census_sources(sf_dir: str):
    """Longest-repeated-substring census per source: doc count, total
    chars, the SUM and the MAX of each doc's LRS length (overlaps
    allowed: 'aaaa' → 3). LRS is repetition DEPTH where
    distinct_substrings_docs is repetition BREADTH — a template
    corpus with one giant copied block shows a spiking LRS long
    before the substring count collapses, which is exactly the
    near-dup signal a span-level dedup (suffix-array dedup à la
    Lee et al.'s deduplicating-training-data) keys on. Suffix array
    via the vectorized prefix-doubling kernel + Kasai LCP per doc,
    batch as the parallel grain, 4-int partials per source.
    INDEPENDENT binary-search-over-slice-sets replay sidecar."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def part(t: pa.Table) -> pa.Table:
        src = t["source"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        su, sinv = np.unique(src, return_inverse=True)
        chars = np.zeros(len(su), np.int64)
        tot = np.zeros(len(su), np.int64)
        mx = np.zeros(len(su), np.int64)
        nd = np.bincount(sinv, minlength=len(su)).astype(np.int64)
        for i, txt in enumerate(texts):
            v = _lrs_sa_kasai(txt)
            chars[sinv[i]] += len(txt)
            tot[sinv[i]] += v
            mx[sinv[i]] = max(mx[sinv[i]], v)
        return pa.table({"source": pa.array(su, type=pa.string()),
                         "n_docs": pa.array(nd),
                         "n_chars": pa.array(chars),
                         "sum_lrs": pa.array(tot),
                         "max_lrs": pa.array(mx)})

    out = (ds.map_batches(part, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source").aggregate(
               rd.aggregate.Sum("n_docs"), rd.aggregate.Sum("n_chars"),
               rd.aggregate.Sum("sum_lrs"), rd.aggregate.Max("max_lrs")))
    return _rename(out, ["source", "n_docs", "n_chars", "sum_lrs",
                         "max_lrs"])



QUERIES["lrs_census_sources"] = q_lrs_census_sources



def _lrs_sidecar(sf_dir: str) -> str:
    """Independent bisect-over-slice-sets replay of the LRS census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lrs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lrs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source").fetchall()
        agg: dict[str, list[int]] = {}
        for src, txt in rows:
            a = agg.setdefault(src, [0, 0, 0, 0])
            v = _lrs_bisect_set(txt)
            a[0] += 1
            a[1] += len(txt)
            a[2] += v
            a[3] = max(a[3], v)
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "n_chars": pa.array([agg[k][1] for k in ks], pa.int64()),
            "sum_lrs": pa.array([agg[k][2] for k in ks], pa.int64()),
            "max_lrs": pa.array([agg[k][3] for k in ks], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lrs_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, n_chars, sum_lrs, max_lrs "
            f"FROM read_parquet('{_lrs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# varint_posting_bytes_users: LEB128 delta-gap cost per posting list
# ---------------------------------------------------------------------------


def q_varint_posting_bytes_users(sf_dir: str):
    """Varint (LEB128) posting-list cost per user: the user's sorted
    distinct active minutes stored as an absolute head plus
    delta gaps, each integer priced at 1 + Σ_j [v ≥ 2^(7j)] bytes —
    the byte-aligned baseline (Lucene's vInt) that Elias-Fano and
    roaring displace; shipping all three (+gorilla's bit-code) makes
    the encoder bake-off a single SQL join downstream. Per-batch
    distinct (user, minute) partials contract the scan; per-user fold
    in a dimension-scale co-partition. PURE-SQL replay: LAG gaps +
    LENGTH(bin(v)) bit-lengths, no sidecar."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        mn = pc.divide(t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                       pa.scalar(60_000_000, pa.int64()))
        tb = pa.table({"user_id": t["user_id"], "minute": mn})
        return pa.Table.from_pandas(
            tb.to_pandas().drop_duplicates(), preserve_index=False)

    def vbytes(v: np.ndarray) -> np.ndarray:
        b = np.ones(len(v), np.int64)
        for j in range(1, 10):
            b += (v >= (1 << (7 * j))).astype(np.int64)
        return b

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m = np.unique(df["minute"].to_numpy())
        vals = np.concatenate([m[:1], np.diff(m)])
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_minutes": np.array([len(m)], np.int64),
            "varint_bytes": np.array([int(vbytes(vals).sum())],
                                     np.int64)})

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold, batch_format="pandas"))



QUERIES["varint_posting_bytes_users"] = q_varint_posting_bytes_users

ORACLE_SQL["varint_posting_bytes_users"] = """
        WITH m AS (SELECT DISTINCT user_id,
                          epoch_us(ts) // 60000000 AS minute
                   FROM events),
        g AS (SELECT user_id, minute,
                     LAG(minute) OVER (PARTITION BY user_id
                                       ORDER BY minute) AS pm
              FROM m),
        b AS (SELECT user_id,
                     (LENGTH(bin(CASE WHEN pm IS NULL THEN minute
                                      ELSE minute - pm END)) + 6) // 7
                         AS nb
              FROM g)
        SELECT user_id,
               CAST(COUNT(*) AS BIGINT) AS n_minutes,
               CAST(SUM(nb) AS BIGINT) AS varint_bytes
        FROM b GROUP BY 1
    """



# ---------------------------------------------------------------------------
# lcs_adjacent_docs: token-level LCS between consecutive docs per source
# ---------------------------------------------------------------------------


def _lcs_dp(a: list, b: list) -> int:
    """Token-level longest common subsequence via the Wagner-Fischer
    row-rolling DP (numpy row updates, O(nm) time, O(m) space)."""
    if not a or not b:
        return 0
    bb = np.array(b, dtype=object)
    prev = np.zeros(len(b) + 1, np.int64)
    for tok in a:
        cur = np.empty_like(prev)
        cur[0] = 0
        eq = (bb == tok)
        # cur[j] = max(prev[j], cur[j-1], prev[j-1] + eq)
        cand = prev[:-1] + eq
        for j in range(1, len(b) + 1):
            cur[j] = max(prev[j], cur[j - 1], cand[j - 1])
        prev = cur
    return int(prev[-1])



def _lcs_myers(a: list, b: list) -> int:
    """INDEPENDENT replay: Myers' O(ND) greedy diff — LCS = (n + m −
    shortest insert/delete edit script) / 2; no DP table, a different
    recurrence family entirely."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    mx = n + m
    v = {1: 0}
    for dcost in range(mx + 1):
        for k in range(-dcost, dcost + 1, 2):
            if k == -dcost or (k != dcost and v[k - 1] < v[k + 1]):
                x = v[k + 1]
            else:
                x = v[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                return (n + m - dcost) // 2
    return 0



def q_lcs_adjacent_docs(sf_dir: str):
    """Diff-distance census: token-level LCS between each source's
    consecutive docs (by doc_id) — the git-diff primitive applied to
    a corpus: a source whose adjacent docs share long subsequences is
    an incremental-edit stream (wiki revisions, log rotations) and a
    candidate for delta storage + span dedup, a structure that
    set-based Jaccard (customer_basket_jaccard, vocab_jaccard) cannot
    see because it ignores ORDER. Output per source: pair count,
    Σ LCS, max LCS, Σ min(len) (the ceiling). Pairs form inside one
    source co-partition ordered by doc_id; each DP is independent.
    INDEPENDENT Myers-O(ND) replay sidecar (LCS = (n+m−D)/2, no DP
    table), cross-checked on random token lists."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        toks = [t.split() for t in df["text"]]
        tot = mx = cap = 0
        for x, y in zip(toks, toks[1:]):
            v = _lcs_dp(x, y)
            tot += v
            mx = max(mx, v)
            cap += min(len(x), len(y))
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_pairs": np.array([max(len(toks) - 1, 0)], np.int64),
            "sum_lcs": np.array([tot], np.int64),
            "max_lcs": np.array([mx], np.int64),
            "sum_cap": np.array([cap], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["lcs_adjacent_docs"] = q_lcs_adjacent_docs



def _lcs_sidecar(sf_dir: str) -> str:
    """Independent Myers-diff replay of the adjacent-doc LCS census."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lcs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lcs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        agg: dict[str, list[int]] = {}
        prev: dict[str, list] = {}
        for src, _did, txt in rows:
            toks = txt.split()
            a = agg.setdefault(src, [0, 0, 0, 0])
            if src in prev:
                v = _lcs_myers(prev[src], toks)
                a[0] += 1
                a[1] += v
                a[2] = max(a[2], v)
                a[3] += min(len(prev[src]), len(toks))
            prev[src] = toks
        ks = sorted(agg)
        out = pa.table({
            "source": pa.array(ks, pa.string()),
            "n_pairs": pa.array([agg[k][0] for k in ks], pa.int64()),
            "sum_lcs": pa.array([agg[k][1] for k in ks], pa.int64()),
            "max_lcs": pa.array([agg[k][2] for k in ks], pa.int64()),
            "sum_cap": pa.array([agg[k][3] for k in ks], pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lcs_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_pairs, sum_lcs, max_lcs, sum_cap "
            f"FROM read_parquet('{_lcs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# lsm_compaction_sim_daily: size-tiered write amplification simulation
# ---------------------------------------------------------------------------

_LSM_FANOUT = 4



def _lsm_sim(flushes: list) -> tuple:
    """Size-tiered LSM simulation: each day's row count flushes one
    tier-0 SST; whenever a tier accumulates _LSM_FANOUT tables they
    merge (FIFO) into one table in the next tier, paying the merged
    row count in compaction writes — cascades allowed. Returns
    (flushed_rows, compacted_rows, [(tier, n_tables)])."""
    tiers: list[list[int]] = []
    flushed = compacted = 0
    for n in flushes:
        flushed += n
        if not tiers:
            tiers.append([])
        tiers[0].append(n)
        t = 0
        while len(tiers[t]) >= _LSM_FANOUT:
            merged = sum(tiers[t][:_LSM_FANOUT])
            del tiers[t][:_LSM_FANOUT]
            compacted += merged
            if t + 1 == len(tiers):
                tiers.append([])
            tiers[t + 1].append(merged)
            t += 1
    hist = [(i, len(ts)) for i, ts in enumerate(tiers)]
    return flushed, compacted, hist



def q_lsm_compaction_sim_daily(sf_dir: str):
    """LSM write-amplification simulation over the daily order stream:
    each day's order count flushes one tier-0 SST into a size-tiered
    store (fanout 4, FIFO merges, cascading) and the simulation
    prices total compaction rows against ingested rows — the
    storage-engine planning number (RocksDB/Cassandra tuning) that
    decides tiered-vs-leveled for an ingest workload, derived here
    entirely from the fact stream's day-count profile. Day counts
    contract from batch partials; the tier cascade is a calendar-
    scale driver epilogue (the simulation is inherently sequential in
    DAYS, not rows — at 100 TB day counts are still ~10³).
    Write-amp is reported as exact (flushed, compacted) integers plus
    the final tier histogram. SQL-aggregated day counts +
    same-simulation replay sidecar; conservation and cascade edges
    pinned by test."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day")
    flushed, compacted, hist = _lsm_sim([int(v) for v in days["n"]])
    return pd.DataFrame({
        "tier": np.array([t for t, _ in hist], np.int64),
        "n_tables": np.array([c for _, c in hist], np.int64),
        "flushed_rows": np.full(len(hist), flushed, np.int64),
        "compacted_rows": np.full(len(hist), compacted, np.int64)})



QUERIES["lsm_compaction_sim_daily"] = q_lsm_compaction_sim_daily



def _lsm_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lsm-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lsm_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(f"""
            SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                   COUNT(*) AS n
            FROM read_parquet('{sf_dir}/orders.parquet')
            GROUP BY 1 ORDER BY 1""").fetchall()
        flushed, compacted, hist = _lsm_sim([int(n) for _, n in rows])
        out = pa.table({
            "tier": pa.array([t for t, _ in hist], pa.int64()),
            "n_tables": pa.array([c for _, c in hist], pa.int64()),
            "flushed_rows": pa.array([flushed] * len(hist), pa.int64()),
            "compacted_rows": pa.array([compacted] * len(hist),
                                       pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lsm_sql(sf_dir: str) -> str:
    return (f"SELECT tier, n_tables, flushed_rows, compacted_rows "
            f"FROM read_parquet('{_lsm_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# ring_rebalance_orders: consistent-hashing rebalance audit
# ---------------------------------------------------------------------------

_RING_VNODES = 16



def _ring_owners(n_nodes: int) -> tuple:
    """Vnode ring for nodes 0..n-1: positions splitmix64(node·2^32 +
    vnode), sorted; a key owns to the first vnode position ≥ its hash
    (wrapping)."""
    from geotile.synth import splitmix64

    node = np.repeat(np.arange(n_nodes, dtype=np.uint64), _RING_VNODES)
    vn = np.tile(np.arange(_RING_VNODES, dtype=np.uint64), n_nodes)
    pos = splitmix64(node * np.uint64(1 << 32) + vn)
    o = np.argsort(pos, kind="stable")
    return pos[o], node[o].astype(np.int64)



def q_ring_rebalance_orders(sf_dir: str):
    """Consistent-hashing rebalance audit: every orderkey hashes onto
    a 16-vnode-per-node ring at 4 nodes and again at 5, and the audit
    reports per-node key counts before/after plus how many keys MOVED
    — measuring Karger's ~1/(n+1) movement claim exactly on this
    keyspace, the capacity-planning number a storage tier reads
    before adding a replica (a naive mod-N partitioner moves ~80%
    here instead). Ring tables are driver-built (80 vnodes) and
    broadcast; per-batch np.searchsorted assigns owners and emits
    (before, after) pair-count partials, so only a ≤20-cell matrix
    shuffles. Independent scalar-sm64 replay sidecar."""
    from geotile.synth import splitmix64

    pos4, own4 = _ring_owners(4)
    pos5, own5 = _ring_owners(5)
    rref = ray.put((pos4, own4, pos5, own5))

    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        p4, o4, p5, o5 = _broadcast(rref)
        h = splitmix64(t["o_orderkey"].to_numpy(zero_copy_only=False)
                       .astype(np.uint64))
        i4 = np.searchsorted(p4, h, side="left") % len(p4)
        i5 = np.searchsorted(p5, h, side="left") % len(p5)
        a, b = o4[i4], o5[i5]
        pair = a * 8 + b
        u, c = np.unique(pair, return_counts=True)
        return pa.table({"pair": pa.array(u.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    mat = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("pair").sum("n")).to_pandas()
    mat.columns = ["pair", "n"]
    before = mat["pair"].to_numpy() // 8
    after = mat["pair"].to_numpy() % 8
    n = mat["n"].to_numpy(np.int64)
    rows = []
    for node in range(5):
        rows.append({
            "node": node,
            "keys_before": int(n[before == node].sum()),
            "keys_after": int(n[after == node].sum()),
            "moved_in": int(n[(after == node)
                              & (before != node)].sum())})
    total_moved = int(n[before != after].sum())
    out = pd.DataFrame(rows)
    out["total_moved"] = np.int64(total_moved)
    for c in ("node", "keys_before", "keys_after", "moved_in",
              "total_moved"):
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["ring_rebalance_orders"] = q_ring_rebalance_orders



def _ring_sidecar(sf_dir: str) -> str:
    """Scalar-sm64 replay: python-int ring positions and bisect
    ownership over SQL-fetched orderkeys."""
    from bisect import bisect_left
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from battery.oracle_ref import sm64

    key = blake2b((sf_dir + "ring-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ring_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        def ring(n_nodes):
            pts = sorted((sm64(node * (1 << 32) + vn), node)
                         for node in range(n_nodes)
                         for vn in range(_RING_VNODES))
            return [x[0] for x in pts], [x[1] for x in pts]

        p4, o4 = ring(4)
        p5, o5 = ring(5)
        con = duckdb.connect()
        ks = con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()
        bef = [0] * 5
        aft = [0] * 5
        moved_in = [0] * 5
        total_moved = 0
        for (k,) in ks:
            h = sm64(int(k) & ((1 << 64) - 1))
            a = o4[bisect_left(p4, h) % len(p4)]
            b = o5[bisect_left(p5, h) % len(p5)]
            bef[a] += 1
            aft[b] += 1
            if a != b:
                total_moved += 1
                moved_in[b] += 1
        out = pa.table({
            "node": pa.array(range(5), pa.int64()),
            "keys_before": pa.array(bef, pa.int64()),
            "keys_after": pa.array(aft, pa.int64()),
            "moved_in": pa.array(moved_in, pa.int64()),
            "total_moved": pa.array([total_moved] * 5, pa.int64())})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ring_sql(sf_dir: str) -> str:
    return (f"SELECT node, keys_before, keys_after, moved_in, "
            f"total_moved FROM read_parquet('{_ring_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# ima_adpcm_tracks: IMA-ADPCM 4-bit encoder audit per track
# ---------------------------------------------------------------------------

_IMA_INDEX = [-1, -1, -1, -1, 2, 4, 6, 8]

_IMA_STEP = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34,
    37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494,
    544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552,
    1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428,
    4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
    29794, 32767]



def _ima_encode_stats(samples) -> tuple:
    """IMA-ADPCM (DVI4) 4-bit encode of one PCM stream: predictor
    seeds at the first sample, index at 0; returns (sum_abs_err over
    encoded samples, final_index, final_pred). Published step/index
    tables, pure ints."""
    if len(samples) == 0:
        return 0, 0, 0
    pred = int(samples[0])
    idx = 0
    err = 0
    for s in samples[1:]:
        s = int(s)
        step = _IMA_STEP[idx]
        diff = s - pred
        sign = diff < 0
        if sign:
            diff = -diff
        delta = 0
        if diff >= step:
            delta = 4
            diff -= step
        if diff >= step >> 1:
            delta |= 2
            diff -= step >> 1
        if diff >= step >> 2:
            delta |= 1
        vpdiff = step >> 3
        if delta & 4:
            vpdiff += step
        if delta & 2:
            vpdiff += step >> 1
        if delta & 1:
            vpdiff += step >> 2
        pred = pred - vpdiff if sign else pred + vpdiff
        pred = max(-32768, min(32767, pred))
        idx = max(0, min(88, idx + _IMA_INDEX[delta]))
        err += abs(s - pred)
    return err, idx, pred



def q_ima_adpcm_tracks(sf_dir: str):
    """IMA-ADPCM (DVI4) encoder audit per track: the exact summed
    reconstruction error, final step index and final predictor of the
    published 4-bit codec state machine — the 4:1 fixed-rate encoder
    telephony and game engines still ship, and the STATEFUL member of
    the audio-coding family (predictor-order picks a filter, rice
    prices a code; ADPCM adapts BOTH per sample, so its error profile
    shows which tracks survive 4-bit transport). The state machine is
    inherently sequential per sample — tracks are the parallel grain
    (pcm16 decode gate as in ops/audio.py) and partials are 3 ints
    per track. Generator-replay sidecar rederives every sample from
    synth.audio_samples and runs the same published state machine in
    pure python ints."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def enc(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"pcm16"}:
            raise NotImplementedError(
                f"codec {sorted(codecs - {'pcm16'})}: only pcm16 here")
        ids = batch["track_id"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out = {"track_id": [], "n_samples": [], "sum_abs_err": [],
               "final_index": [], "final_pred": []}
        for tid, b in zip(ids.tolist(), payloads):
            s = np.frombuffer(b, dtype=np.int16)
            e, ix, pr = _ima_encode_stats(s)
            out["track_id"].append(int(tid))
            out["n_samples"].append(len(s))
            out["sum_abs_err"].append(e)
            out["final_index"].append(ix)
            out["final_pred"].append(pr)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(enc, batch_format="pyarrow", batch_size=32)



QUERIES["ima_adpcm_tracks"] = q_ima_adpcm_tracks



def _ima_sidecar(aud: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_ima_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        pcm = _sy.audio_samples(ids)
        rows = []
        for j, tid in enumerate(ids.tolist()):
            s = [int(v) for v in pcm[j].tolist()]
            e, ix, pr = _ima_encode_stats(s)
            rows.append({"track_id": int(tid), "n_samples": len(s),
                         "sum_abs_err": e, "final_index": ix,
                         "final_pred": pr})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ima_sql(aud: str) -> str:
    return (f"SELECT track_id, n_samples, sum_abs_err, final_index, "
            f"final_pred FROM read_parquet('{_ima_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# dither_fs_images: Floyd-Steinberg error-diffusion audit
# ---------------------------------------------------------------------------


def _fs_dither_stats(luma_rows: list) -> tuple:
    """Floyd-Steinberg 1-bit dither of a luma grid (values 0..765,
    threshold ≥383 → 765): integer error split 7/16, 3/16, 5/16 with
    the remainder to below-right so diffusion conserves exactly.
    Returns (n_on, sum_abs_err)."""
    h = len(luma_rows)
    w = len(luma_rows[0]) if h else 0
    buf = [list(r) for r in luma_rows]
    n_on = 0
    tot = 0
    for y in range(h):
        row = buf[y]
        nxt = buf[y + 1] if y + 1 < h else None
        for x in range(w):
            v = row[x]
            out = 765 if v >= 383 else 0
            if out:
                n_on += 1
            e = v - out
            tot += abs(e)
            e7 = (e * 7) // 16
            e3 = (e * 3) // 16
            e5 = (e * 5) // 16
            e1 = e - e7 - e3 - e5
            if x + 1 < w:
                row[x + 1] += e7
            if nxt is not None:
                if x > 0:
                    nxt[x - 1] += e3
                nxt[x] += e5
                if x + 1 < w:
                    nxt[x + 1] += e1
    return n_on, tot



def q_dither_fs_images(sf_dir: str):
    """Floyd-Steinberg dither audit for the first 1024 images (by
    image index, a deterministic filter — not read order): 1-bit
    quantization of the r+g+b luma grid with the classic 7/16 3/16
    5/16 1/16 error diffusion done in EXACT integers (remainder to
    below-right so every unit of error is conserved), reporting the
    ON-pixel count and the total |quantization error| — the
    halftoning stage of any 1-bit raster export, and the
    error-DIFFUSION member of the image-quantization family
    (otsu = global threshold, palette_quant = color space; FS moves
    error spatially, so its ON-count differs from naive thresholding
    exactly where gradients live, pinned by test). The scan is
    sequential per pixel but images are the parallel grain.
    Generator-replay sidecar rederives pixels from
    synth.pixel_pattern and runs the same integer diffusion."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "fmt", "w", "h",
                                   "bytes"])
    decoders = ImageDecodeStage(verify=False).decoders

    def dither(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        keep = [i for i, s in enumerate(ids) if int(s[4:]) < 1024]
        out = {"image_id": [], "n_on": [], "sum_abs_err": []}
        if keep:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            for i in keep:
                px = decoders[fmts[i]](payloads[i], ws[i], hs[i])
                luma = px.astype(np.int64).sum(axis=2)
                n_on, tot = _fs_dither_stats(luma.tolist())
                out["image_id"].append(ids[i])
                out["n_on"].append(n_on)
                out["sum_abs_err"].append(tot)
        return pa.table({
            "image_id": pa.array(out["image_id"], pa.string()),
            "n_on": pa.array(out["n_on"], pa.int64()),
            "sum_abs_err": pa.array(out["sum_abs_err"], pa.int64())})

    return ds.map_batches(dither, batch_format="pyarrow",
                          batch_size=64)



QUERIES["dither_fs_images"] = q_dither_fs_images



def _dither_sidecar(img: str) -> str:
    from pathlib import Path

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_dither_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        rows = []
        for i in range(1024):
            w, h = _sy.image_size(np.array([i], np.uint64))
            w, h = int(w[0]), int(h[0])
            px = _sy.pixel_pattern(np.array([i], np.uint64), w, h)[0]
            luma = [[int(r) + int(g) + int(b) for (r, g, b) in row]
                    for row in px.tolist()]
            n_on, tot = _fs_dither_stats(luma)
            rows.append({"image_id": f"img-{i:08d}", "n_on": n_on,
                         "sum_abs_err": tot})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _dither_sql(img: str) -> str:
    return (f"SELECT image_id, n_on, sum_abs_err "
            f"FROM read_parquet('{_dither_sidecar(img)}')")



# ---------------------------------------------------------------------------
# band_pair_census_orders: band self-join via day-count contraction
# ---------------------------------------------------------------------------


def q_band_pair_census_orders(sf_dir: str):
    """Band self-join census: per calendar day, how many order PAIRS
    start there with the partner at most 7 days later — the
    non-equi-join class (0 ≤ day_b − day_a ≤ 7) a naive engine
    executes as an O(n²) cross product; here the predicate depends
    only on DAYS, so the scan contracts to (day, n) counts first and
    the pair count is exact arithmetic over the day series:
    C(n_d, 2) same-day pairs + n_d · Σ_{e=d+1..d+7} n_e cross-day —
    the contract-then-pair discipline that turns a 10¹² row band
    join into a calendar-scale window fold. Windowed SUM SQL replay
    over the same day counts."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"day": day}).group_by("day") \
            .aggregate([([], "count_all")])
        return pa.table({"day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    days = (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n")).to_pandas()
    days.columns = ["day", "n"]
    days = days.sort_values("day").reset_index(drop=True)
    d = days["day"].to_numpy(np.int64)
    n = days["n"].to_numpy(np.int64)
    # forward window sum over a possibly-gapped calendar: for each day,
    # Σ n over (d, d+7] via two searchsorted cuts on the sorted axis
    cs = np.concatenate([[0], np.cumsum(n)])
    lo = np.searchsorted(d, d + 1, side="left")
    hi = np.searchsorted(d, d + 7, side="right")
    fwd = cs[hi] - cs[lo]
    pairs = n * (n - 1) // 2 + n * fwd
    return pd.DataFrame({"day": d, "n_orders": n,
                         "pairs_started": pairs.astype(np.int64)})



QUERIES["band_pair_census_orders"] = q_band_pair_census_orders

ORACLE_SQL["band_pair_census_orders"] = """
        WITH c AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                          COUNT(*) AS n
                   FROM orders GROUP BY 1)
        SELECT a.day,
               CAST(a.n AS BIGINT) AS n_orders,
               CAST(a.n * (a.n - 1) // 2
                    + a.n * COALESCE((SELECT SUM(b.n) FROM c b
                                      WHERE b.day > a.day
                                        AND b.day <= a.day + 7), 0)
                    AS BIGINT) AS pairs_started
        FROM c a
    """



# ---------------------------------------------------------------------------
# h_index_nations: bibliometric h-index of nations over customer activity
# ---------------------------------------------------------------------------


def q_h_index_nations(sf_dir: str):
    """Nation h-index over customer activity: the largest h such that
    h of the nation's customers placed ≥ h orders each — the
    bibliometric statistic repurposed as an engagement-depth measure
    that neither a mean nor a percentile captures (it is immune to
    one whale and to a long tail of one-order customers
    simultaneously). Order counts fold at customer grain, the
    cust→nation dim rides the broadcast cache, and the h scan is a
    sort inside each 25-row nation co-partition; orderless nations
    zero-fill. ROW_NUMBER rank-threshold SQL replay."""
    orders = _read(sf_dir, "orders", ["o_custkey"])

    from battery.ops.relational import dim_lookup

    ck, cnat = _dim_np(sf_dir, "customer", "c_custkey", ["c_nationkey"])
    nk, nname = _dim_np(sf_dir, "nation", "n_nationkey", ["n_name"])
    ni, nhit = dim_lookup(nk, cnat.astype(np.int64, copy=False))
    if not nhit.all():
        raise ValueError("customer.c_nationkey missing from nation dim")
    dim_ref = ray.put((ck, pa.array(nname[ni], pa.string())))

    def part(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        return pa.table({"cust": g["o_custkey"],
                         "n": g["count_all"].cast(pa.int64())})

    per_cust = (orders.map_batches(part, batch_format="pyarrow",
                                   zero_copy_batch=True)
                .groupby("cust").sum("n"))

    def tag(t: pa.Table) -> pa.Table:
        keys, nats = _broadcast(dim_ref)
        ck = t["cust"].to_numpy()
        idx = np.searchsorted(keys, ck)
        ok = (idx < len(keys)) & (keys[np.clip(idx, 0,
                                               len(keys) - 1)] == ck)
        # inner-join semantics: orders with no customer row drop,
        # exactly like the oracle SQL's JOIN customer
        idx = idx[ok]
        return pa.table({"nation": pc.take(nats,
                                           pa.array(idx)),
                         "n": t["sum(n)"].filter(pa.array(ok))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        c = np.sort(df["n"].to_numpy(np.int64))[::-1]
        rk = np.arange(1, len(c) + 1)
        h = int((c >= rk).sum())  # counts are sorted desc: prefix rule
        return pd.DataFrame({
            "nation": [df["nation"].iloc[0]],
            "h_index": np.array([h], np.int64),
            "n_active_customers": np.array([len(c)], np.int64)})

    got = (per_cust.map_batches(tag, batch_format="pyarrow")
           .groupby("nation").map_groups(fold, batch_format="pandas")
           ).to_pandas()
    have = set(got["nation"])
    missing = sorted(set(nname.astype(str).tolist()) - have)
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "nation": missing,
            "h_index": np.zeros(len(missing), np.int64),
            "n_active_customers": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in ("h_index", "n_active_customers"):
        got[c] = got[c].astype(np.int64)
    return got.sort_values("nation").reset_index(drop=True)



QUERIES["h_index_nations"] = q_h_index_nations

ORACLE_SQL["h_index_nations"] = """
        WITH oc AS (SELECT o_custkey, COUNT(*) AS n
                    FROM orders GROUP BY 1),
        j AS (SELECT c.c_nationkey, oc.n
              FROM oc JOIN customer c ON c.c_custkey = oc.o_custkey),
        r AS (SELECT c_nationkey, n,
                     ROW_NUMBER() OVER (PARTITION BY c_nationkey
                                        ORDER BY n DESC) AS rk
              FROM j),
        h AS (SELECT c_nationkey,
                     MAX(CASE WHEN n >= rk THEN rk ELSE 0 END) AS h,
                     COUNT(*) AS na
              FROM r GROUP BY 1)
        SELECT nn.n_name AS nation,
               CAST(COALESCE(h.h, 0) AS BIGINT) AS h_index,
               CAST(COALESCE(h.na, 0) AS BIGINT) AS n_active_customers
        FROM nation nn LEFT JOIN h ON h.c_nationkey = nn.n_nationkey
    """



# ---------------------------------------------------------------------------
# persistence_census_images: component counts across a threshold sweep
# ---------------------------------------------------------------------------

_PERSIST_THRESH = (128, 256, 384, 512, 640)



def _cc_count_unionfind(on: np.ndarray) -> int:
    """4-connected component count of a boolean grid via union-find
    with path halving."""
    h, w = on.shape
    parent = list(range(h * w))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for y in range(h):
        for x in range(w):
            if not on[y, x]:
                continue
            i = y * w + x
            if x + 1 < w and on[y, x + 1]:
                ra, rb = find(i), find(i + 1)
                if ra != rb:
                    parent[rb] = ra
            if y + 1 < h and on[y + 1, x]:
                ra, rb = find(i), find(i + w)
                if ra != rb:
                    parent[rb] = ra
    roots = {find(y * w + x)
             for y in range(h) for x in range(w) if on[y, x]}
    return len(roots)



def _cc_count_bfs(on) -> int:
    """INDEPENDENT replay: flood-fill BFS labelling (no union-find)."""
    h = len(on)
    w = len(on[0]) if h else 0
    seen = [[False] * w for _ in range(h)]
    n = 0
    for y0 in range(h):
        for x0 in range(w):
            if not on[y0][x0] or seen[y0][x0]:
                continue
            n += 1
            stack = [(y0, x0)]
            seen[y0][x0] = True
            while stack:
                y, x = stack.pop()
                for yy, xx in ((y - 1, x), (y + 1, x),
                               (y, x - 1), (y, x + 1)):
                    if 0 <= yy < h and 0 <= xx < w \
                            and on[yy][xx] and not seen[yy][xx]:
                        seen[yy][xx] = True
                        stack.append((yy, xx))
    return n



def q_persistence_census_images(sf_dir: str):
    """Topological persistence census for the first 512 images (by
    index): the 4-connected component count of the luma
    super-level set {luma ≥ t} at five thresholds — the
    persistence-curve summary (how components are born and merge as
    the threshold sweeps) that a single-threshold blob count cannot
    see: a flat image and a speckled one can share one threshold's
    count but never the whole curve. Union-find with path halving per
    (image, threshold); images are the parallel grain. INDEPENDENT
    BFS flood-fill replay sidecar (no union-find), cross-checked on
    random grids."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "fmt", "w", "h",
                                   "bytes"])
    decoders = ImageDecodeStage(verify=False).decoders

    def census(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        keep = [i for i, s in enumerate(ids) if int(s[4:]) < 512]
        out = {"image_id": [], "thresh": [], "n_components": []}
        if keep:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            for i in keep:
                px = decoders[fmts[i]](payloads[i], ws[i], hs[i])
                luma = px.astype(np.int64).sum(axis=2)
                for t in _PERSIST_THRESH:
                    out["image_id"].append(ids[i])
                    out["thresh"].append(t)
                    out["n_components"].append(
                        _cc_count_unionfind(luma >= t))
        return pa.table({
            "image_id": pa.array(out["image_id"], pa.string()),
            "thresh": pa.array(out["thresh"], pa.int64()),
            "n_components": pa.array(out["n_components"], pa.int64())})

    return ds.map_batches(census, batch_format="pyarrow",
                          batch_size=64)



QUERIES["persistence_census_images"] = q_persistence_census_images



def _persist_sidecar(img: str) -> str:
    from pathlib import Path

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_persist_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        rows = []
        for i in range(512):
            w, h = _sy.image_size(np.array([i], np.uint64))
            w, h = int(w[0]), int(h[0])
            px = _sy.pixel_pattern(np.array([i], np.uint64), w, h)[0]
            luma = [[int(r) + int(g) + int(b) for (r, g, b) in row]
                    for row in px.tolist()]
            for t in _PERSIST_THRESH:
                on = [[v >= t for v in row] for row in luma]
                rows.append({"image_id": f"img-{i:08d}", "thresh": t,
                             "n_components": _cc_count_bfs(on)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _persist_sql(img: str) -> str:
    return (f"SELECT image_id, thresh, n_components "
            f"FROM read_parquet('{_persist_sidecar(img)}')")



# ---------------------------------------------------------------------------
# gop_plan_clips: optimal I-frame placement DP per clip
# ---------------------------------------------------------------------------

_GOP_MAX = 8



def _gop_costs(frames: np.ndarray) -> tuple:
    """Per-frame intra cost (Σ|horizontal luma gradient|) and inter
    cost (Σ|luma delta vs previous frame|); frame 0 has no inter."""
    luma = frames.astype(np.int64).sum(axis=3)          # (f, h, w)
    intra = np.abs(np.diff(luma, axis=2)).sum(axis=(1, 2))
    inter = np.abs(np.diff(luma, axis=0)).sum(axis=(1, 2))
    return intra.astype(np.int64), inter.astype(np.int64)



def _gop_dp(intra: list, inter: list) -> int:
    """Minimum total cost of encoding the frame sequence with frame 0
    an I-frame and an I-frame at least every _GOP_MAX frames; each
    other frame freely picks I (intra) or P (inter vs previous).
    Forward DP over 'last I at j'."""
    f = len(intra)
    if f == 0:
        return 0
    # best[j] = optimal cost of frames 0..j given an I-frame AT j;
    # pre[t+1] = Σ inter of frames 1..t as P, so a P run i+1..j-1
    # costs pre[j] − pre[i+1]. A frame cheaper as I simply becomes
    # the next I — runs between consecutive I frames are P by
    # definition of the plan.
    best = [None] * f
    best[0] = intra[0]
    pre = [0] * (f + 1)
    for t in range(1, f):
        pre[t + 1] = pre[t] + inter[t - 1]
    for j in range(1, f):
        lo = max(0, j - _GOP_MAX)
        best[j] = intra[j] + min(
            best[i] + pre[j] - pre[i + 1] for i in range(lo, j))
    ans = None
    for i in range(max(0, f - _GOP_MAX), f):
        c = best[i] + pre[f] - pre[i + 1]
        if ans is None or c < ans:
            ans = c
    return int(ans)



def _gop_bellman(intra: list, inter: list) -> int:
    """INDEPENDENT replay: label-correcting relaxation over the I-frame
    DAG in REVERSED edge order until fixpoint — no forward induction
    order to share a bug with."""
    f = len(intra)
    if f == 0:
        return 0
    pre = [0] * (f + 1)
    for t in range(1, f):
        pre[t + 1] = pre[t] + inter[t - 1]
    inf = None
    lab = [inf] * f
    lab[0] = intra[0]
    edges = [(i, j) for j in range(1, f)
             for i in range(max(0, j - _GOP_MAX), j)]
    edges.reverse()
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            if lab[i] is None:
                continue
            c = lab[i] + (pre[j + 1] - pre[i + 1] - inter[j - 1]) \
                + intra[j]
            if lab[j] is None or c < lab[j]:
                lab[j] = c
                changed = True
    best = None
    for i in range(max(0, f - _GOP_MAX), f):
        if lab[i] is None:
            continue
        c = lab[i] + pre[f] - pre[i + 1]
        if best is None or c < best:
            best = c
    return int(best)



def q_gop_plan_clips(sf_dir: str):
    """GOP-structure optimizer per clip: the exact minimum encoding
    cost when frame 0 is an I-frame, an I-frame must appear at least
    every 8 frames, I costs the frame's intra complexity (Σ|horizontal
    luma gradient|) and P costs its temporal delta (Σ|luma diff vs
    previous|) — the keyframe-placement decision every video encoder
    makes, here solved optimally by a shortest-path DP over 'last
    I-frame at j' (a scene cut makes inter spike past intra and the
    plan snaps an I-frame there; total cost is unique even when the
    plan is not, so the output is well-defined). Clips are the
    parallel grain behind the rawseq gate; one vectorized gradient/
    delta pass per batch tensor feeds the per-clip DP. INDEPENDENT
    replay relaxes the same DAG label-correcting in reversed edge
    order to fixpoint over generator-rederived frames."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def plan(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"rawseq"}:
            raise NotImplementedError(
                f"no video codec for {sorted(codecs - {'rawseq'})}")
        ids = batch["clip_id"].to_numpy(zero_copy_only=False)
        nf = batch["n_frames"].to_numpy(zero_copy_only=False)
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out = {"clip_id": [], "n_frames": [], "min_cost": []}
        for k in range(len(ids)):
            f, w, h = int(nf[k]), int(ws[k]), int(hs[k])
            frames = np.frombuffer(payloads[k], dtype=np.uint8) \
                .reshape(f, h, w, 3)
            intra, inter = _gop_costs(frames)
            out["clip_id"].append(int(ids[k]))
            out["n_frames"].append(f)
            out["min_cost"].append(
                _gop_dp(intra.tolist(), inter.tolist()))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(plan, batch_format="pyarrow", batch_size=32)



QUERIES["gop_plan_clips"] = q_gop_plan_clips



def _gop_sidecar(vid: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_gop_{Path(vid).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        rows = []
        for cid in ids.tolist():
            frames = _sy.video_frames(np.array([cid], np.int64))[0]
            intra, inter = _gop_costs(frames)
            rows.append({"clip_id": int(cid),
                         "n_frames": frames.shape[0],
                         "min_cost": _gop_bellman(intra.tolist(),
                                                  inter.tolist())})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gop_sql(vid: str) -> str:
    return (f"SELECT clip_id, n_frames, min_cost "
            f"FROM read_parquet('{_gop_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# chamfer_label_pairs: exact set-to-set Chamfer distance between label clouds
# ---------------------------------------------------------------------------


def _chamfer_qmat(t: pa.Table):
    """(ids, labels, Q) from a quantized chamfer block (q is a
    FixedSizeList column; flat-buffer reshape, no per-row pylist)."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    q = t["q"].combine_chunks()
    Q = q.values.to_numpy(zero_copy_only=False).reshape(len(ids), -1)
    return ids, lab, Q



def _chamfer_mins(ida, la, lb, D):
    """Per-(A-vector, target-label) partial minima from one block-pair
    distance tile. The key packs (vec_id, label_a, label_b) into one
    int64 so the global min finishes as a SINGLE-key groupby (the
    repo's multi-key-aggregate cost lesson). min is the fold: any
    block decomposition of B yields the same global minimum."""
    out_k, out_m = [], []
    for lbl in np.unique(lb):
        cols = lb == lbl
        rows = la != lbl
        if not cols.any() or not rows.any():
            continue
        m = D[rows][:, cols].min(axis=1)
        k = (ida[rows] * 16 + la[rows]) * 16 + lbl
        out_k.append(k)
        out_m.append(m)
    return out_k, out_m



def q_chamfer_label_pairs(sf_dir: str):
    """Directed Chamfer distance between every ordered pair of label
    clouds over the embedding corpus: chamfer(a→b) = Σ_{v∈a}
    min_{u∈b} ‖q(v) − q(u)‖² on the e3 integer lattice
    (q = floor(1000·x + 0.5)), the set-to-set distance that drives
    point-cloud / caption-cluster evaluation and that no centroid or
    kNN statistic reproduces (it is asymmetric: a tight cluster inside
    a diffuse one is near in one direction and far in the other).
    Exact integer arithmetic end to end, so both engines agree
    bit-for-bit. Scale shape: the quantized table snapshots into
    object-store blocks (driver holds REFS only); one task per
    unordered block pair computes the int64 distance tile via
    ‖a‖²+‖b‖²−2a·b matmul and emits per-(vector, target-label)
    partial minima BOTH directions from the same tile — min is the
    fold — then one packed-key groupby finishes the min and a
    ≤L²-cell groupby sums the chamfer (the embedding_dup_pairs
    block-pair discipline, dedup.py:604; exact chamfer is inherently
    O(N²) compute, spread without materializing anywhere)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def quant(t: pa.Table) -> pa.Table:
        V = np.stack(
            t["embedding"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        Q = np.floor(V * 1000.0 + 0.5).astype(np.int64)
        lab = t["label"].cast(pa.int64())
        mx = pc.max(lab).as_py()
        if mx is not None and mx > 15:
            raise ValueError("chamfer key packing needs labels < 16")
        qcol = pa.FixedSizeListArray.from_arrays(
            pa.array(Q.reshape(-1)), Q.shape[1])
        return pa.table({"vec_id": t["vec_id"].cast(pa.int64()),
                         "label": lab, "q": qcol})

    snap = emb.map_batches(quant, batch_format="pyarrow").materialize()
    n = snap.count()
    n_blocks = max(1, -(-n // 512))
    mat = snap.repartition(n_blocks).materialize()
    refs = mat.to_arrow_refs()
    items = [{"i": i, "j": j}
             for i in range(len(refs)) for j in range(i, len(refs))]

    def tile(batch: pa.Table) -> pa.Table:
        from geotile.ops.join import _cached_stage

        ks, ms = [], []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ida, la, Qa = _cached_stage(
                ("chamblk", refs[i].hex()),
                lambda r=refs[i]: _chamfer_qmat(ray.get(r)))
            idb, lbv, Qb = _cached_stage(
                ("chamblk", refs[j].hex()),
                lambda r=refs[j]: _chamfer_qmat(ray.get(r)))
            D = ((Qa * Qa).sum(1)[:, None] + (Qb * Qb).sum(1)[None, :]
                 - 2 * (Qa @ Qb.T))
            k1, m1 = _chamfer_mins(ida, la, lbv, D)
            ks += k1
            ms += m1
            if i != j:
                k2, m2 = _chamfer_mins(idb, lbv, la, D.T)
                ks += k2
                ms += m2
        if not ks:
            return pa.table({"k": pa.array([], pa.int64()),
                             "mind2": pa.array([], pa.int64())})
        return pa.table({"k": pa.array(np.concatenate(ks)),
                         "mind2": pa.array(np.concatenate(ms))})

    mins = (rd.from_items(items, override_num_blocks=len(items))
            .map_batches(tile, batch_size=1, batch_format="pyarrow")
            .groupby("k").min("mind2"))

    def fold(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        m = t["min(mind2)"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(k % 256, return_inverse=True)
        sm = np.zeros(len(u), np.int64)
        np.add.at(sm, inv, m)          # int64-exact partial sums
        return pa.table({"pair": pa.array(u.astype(np.int64)),
                         "n_a": pa.array(np.bincount(
                             inv, minlength=len(u)).astype(np.int64)),
                         "chamfer": pa.array(sm)})

    agg = (mins.map_batches(fold, batch_format="pyarrow")
           .groupby("pair").sum(["n_a", "chamfer"]))
    got = agg.to_pandas()
    pair = got["pair"].to_numpy(np.int64)
    out = pd.DataFrame({
        "label_a": (pair // 16).astype(np.int64),
        "label_b": (pair % 16).astype(np.int64),
        "n_a": got["sum(n_a)"].to_numpy(np.int64),
        "chamfer": got["sum(chamfer)"].to_numpy(np.int64)})
    return out.sort_values(["label_a", "label_b"]).reset_index(drop=True)



QUERIES["chamfer_label_pairs"] = q_chamfer_label_pairs

ORACLE_SQL["chamfer_label_pairs"] = """
        WITH q AS (SELECT vec_id, label,
                list_transform(embedding,
                    x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5)
                         AS BIGINT)) AS q
            FROM embeddings),
        d AS (SELECT a.label AS la, b.label AS lb, a.vec_id,
                min(list_sum(list_transform(list_zip(a.q, b.q),
                    p -> (p[1] - p[2]) * (p[1] - p[2])))) AS mind2
              FROM q a JOIN q b ON a.label <> b.label
              GROUP BY 1, 2, 3)
        SELECT CAST(la AS BIGINT) AS label_a,
               CAST(lb AS BIGINT) AS label_b,
               COUNT(*) AS n_a, CAST(SUM(mind2) AS BIGINT) AS chamfer
        FROM d GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# theil_sen_customers: robust spend-trend slope per customer
# ---------------------------------------------------------------------------


def _ts_median_slope(d: np.ndarray, p: np.ndarray):
    """(n_pairs, Theil-Sen slope) over one entity's (day, price)
    series: median of all pairwise slopes between distinct days,
    median = average of the two middle order statistics (the exact
    convention DuckDB's rank-picked AVG replays). Same-day pairs are
    excluded (infinite slope); returns (0, None) when no pair has a
    day gap."""
    o = np.argsort(d, kind="stable")
    d, p = d[o].astype(np.int64), p[o].astype(np.float64)
    i, j = np.triu_indices(len(d), k=1)
    dd = d[j] - d[i]
    ok = dd > 0
    np_ = int(ok.sum())
    if np_ == 0:
        return 0, None
    s = np.sort((p[j][ok] - p[i][ok]) / dd[ok])
    return np_, float((s[(np_ - 1) // 2] + s[np_ // 2]) / 2.0)



def q_theil_sen_customers(sf_dir: str):
    """Theil-Sen robust trend per customer: the median of all pairwise
    slopes (Δprice/Δday) across the customer's orders on distinct
    days — the breakdown-point-29% slope estimator that one wild
    order cannot move, where OLS bends arbitrarily far (a fraud spike
    or data glitch in a spend series leaves the Theil-Sen trend at
    the clean majority's slope, pinned in tests). Pairs form INSIDE
    per-customer co-partitions — Theil-Sen is O(n²) in the entity's
    own history, which is bounded fan-in at any corpus scale, so the
    quadratic never leaves a group; the shuffle moves (cust, day,
    price) triples once. Self-join + ROW_NUMBER rank-picked AVG SQL
    replay with the identical middle-two convention."""
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({"cust": t["o_custkey"], "d": day,
                         "p": t["o_totalprice"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["d"].to_numpy(np.int64)
        p = df["p"].to_numpy(np.float64)
        np_, med = _ts_median_slope(d, p)
        if np_ == 0:
            return pd.DataFrame({
                "o_custkey": pd.Series(dtype="int64"),
                "n_orders": pd.Series(dtype="int64"),
                "n_pairs": pd.Series(dtype="int64"),
                "ts_slope": pd.Series(dtype="float64")})
        return pd.DataFrame({
            "o_custkey": np.array([df["cust"].iloc[0]], np.int64),
            "n_orders": np.array([len(d)], np.int64),
            "n_pairs": np.array([np_], np.int64),
            "ts_slope": np.array([med], np.float64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("cust").map_groups(fold, batch_format="pandas"))



QUERIES["theil_sen_customers"] = q_theil_sen_customers

ORACLE_SQL["theil_sen_customers"] = """
        WITH o AS (SELECT o_custkey,
                          epoch_us(o_orderdate) // 86400000000 AS d,
                          o_totalprice AS p
                   FROM orders),
        pr AS (SELECT a.o_custkey, (b.p - a.p) / (b.d - a.d) AS slope
               FROM o a JOIN o b
                 ON a.o_custkey = b.o_custkey AND b.d > a.d),
        r AS (SELECT o_custkey, slope,
                     ROW_NUMBER() OVER (PARTITION BY o_custkey
                                        ORDER BY slope) AS rn,
                     COUNT(*) OVER (PARTITION BY o_custkey) AS np
              FROM pr),
        m AS (SELECT o_custkey, AVG(slope) AS ts_slope,
                     MAX(np) AS n_pairs
              FROM r
              WHERE rn IN ((np + 1) // 2, (np + 2) // 2)
              GROUP BY 1),
        n AS (SELECT o_custkey, COUNT(*) AS n_orders
              FROM orders GROUP BY 1)
        SELECT n.o_custkey, CAST(n.n_orders AS BIGINT) AS n_orders,
               CAST(m.n_pairs AS BIGINT) AS n_pairs, m.ts_slope
        FROM n JOIN m USING (o_custkey)
    """



# ---------------------------------------------------------------------------
# block_match_motion_clips: full-search block-matching motion estimation
# ---------------------------------------------------------------------------

_BM_R = 2       # full-search radius (±px, both axes)

_BM_B = 8       # block edge

_BM_SENT = 1 << 20   # out-of-frame sentinel: 8·(SENT−765) ≫ any valid SAD



def _bm_stats_vec(frames: np.ndarray):
    """(n_blocks, sad_total, mv_l1_total, zero_mv_blocks) for one
    clip: every 8×8 luma block of every frame f≥1 full-searches the
    previous frame within ±_BM_R, candidates ranked by the composite
    key (SAD, |dy|+|dx|, dy, dx) packed into one int64 so the winner
    is unique and order-free. Vectorized: one sentinel-padded shift
    per candidate over the whole (f−1, h, w) tensor, block sums by
    reshape, running np.minimum over packed ranks — no per-block
    Python. Out-of-frame candidates inherit ≥8 sentinel pixels, so
    they can never beat a valid one; (0,0) is always valid."""
    f, h, w = frames.shape[:3]
    if f < 2:
        return 0, 0, 0, 0
    R, B = _BM_R, _BM_B
    luma = frames.astype(np.int64).sum(axis=3)
    cur, prev = luma[1:], luma[:-1]
    P = np.full((f - 1, h + 2 * R, w + 2 * R), _BM_SENT, np.int64)
    P[:, R:R + h, R:R + w] = prev
    best = None
    for dy in range(-R, R + 1):
        for dx in range(-R, R + 1):
            sh = P[:, R + dy:R + dy + h, R + dx:R + dx + w]
            sad = np.abs(cur - sh).reshape(
                f - 1, h // B, B, w // B, B).sum(axis=(2, 4))
            rank = (sad * 65536 + (abs(dy) + abs(dx)) * 256
                    + (dy + R) * 16 + (dx + R))
            best = rank if best is None else np.minimum(best, rank)
    sad_t = int((best // 65536).sum())
    rem = best % 65536
    l1_t = int((rem // 256).sum())
    code = rem % 256
    zero = int(((code // 16 == R) & (code % 16 == R)).sum())
    return best.size, sad_t, l1_t, zero



def _bm_stats_naive(frames) -> tuple:
    """INDEPENDENT replay: per-block bounds-checked candidate loop in
    pure ints with tuple comparison on (SAD, |dy|+|dx|, dy, dx) — no
    sentinel padding, no packed ranks, dx-outer iteration order (a
    rank-packing or ordering bug in the vectorized path cannot
    survive both)."""
    fr = np.asarray(frames)
    f, h, w = fr.shape[:3]
    if f < 2:
        return 0, 0, 0, 0
    R, B = _BM_R, _BM_B
    luma = fr.astype(np.int64).sum(axis=3).tolist()
    n_blocks = sad_t = l1_t = zero = 0
    for t in range(1, f):
        cur, prv = luma[t], luma[t - 1]
        for by in range(0, h, B):
            for bx in range(0, w, B):
                bst = None
                for dx in range(-R, R + 1):
                    for dy in range(-R, R + 1):
                        if (by + dy < 0 or by + dy + B > h
                                or bx + dx < 0 or bx + dx + B > w):
                            continue
                        s = 0
                        for y in range(B):
                            rc = cur[by + y]
                            rp = prv[by + dy + y]
                            for x in range(B):
                                df = rc[bx + x] - rp[bx + dx + x]
                                s += df if df >= 0 else -df
                        key = (s, abs(dy) + abs(dx), dy, dx)
                        if bst is None or key < bst:
                            bst = key
                n_blocks += 1
                sad_t += bst[0]
                l1_t += bst[1]
                if bst[2] == 0 and bst[3] == 0:
                    zero += 1
    return n_blocks, sad_t, l1_t, zero

__defined__ = (
    '_BM_B',
    '_BM_R',
    '_BM_SENT',
    '_GOP_MAX',
    '_IMA_INDEX',
    '_IMA_STEP',
    '_LSH_PLANES',
    '_LSM_FANOUT',
    '_MERKLE_LEAVES',
    '_PERSIST_THRESH',
    '_RING_VNODES',
    '_VOPT_B',
    '_alias_sidecar',
    '_alias_sql',
    '_bm_stats_naive',
    '_bm_stats_vec',
    '_bridges_articulation',
    '_bridges_sidecar',
    '_bridges_sql',
    '_buffer_area_sql',
    '_bwt_runs_np',
    '_bwt_runs_scalar',
    '_bwt_sidecar',
    '_bwt_sql',
    '_cc_count_bfs',
    '_cc_count_unionfind',
    '_chamfer_mins',
    '_chamfer_qmat',
    '_csa_bellman',
    '_csa_scan',
    '_csa_sidecar',
    '_csa_sql',
    '_distinct_substring_count',
    '_dither_sidecar',
    '_dither_sql',
    '_duval_factor_count',
    '_eulerian_sql',
    '_fleet_size_sql',
    '_frechet_sidecar',
    '_frechet_sq_bfs',
    '_frechet_sq_dp',
    '_frechet_sql',
    '_fs_dither_stats',
    '_gop_bellman',
    '_gop_costs',
    '_gop_dp',
    '_gop_sidecar',
    '_gop_sql',
    '_huffman_sidecar',
    '_huffman_sql',
    '_ima_encode_stats',
    '_ima_sidecar',
    '_ima_sql',
    '_lcs_dp',
    '_lcs_myers',
    '_lcs_sidecar',
    '_lcs_sql',
    '_lis_sidecar',
    '_lis_sql',
    '_lrs_bisect_set',
    '_lrs_sa_kasai',
    '_lrs_sidecar',
    '_lrs_sql',
    '_lsh_balance_sidecar',
    '_lsh_balance_sql',
    '_lsm_sidecar',
    '_lsm_sim',
    '_lsm_sql',
    '_lyndon_factors_minima',
    '_lyndon_sidecar',
    '_lyndon_sql',
    '_lz78_phrase_count',
    '_lz78_sidecar',
    '_lz78_sql',
    '_merkle_sidecar',
    '_merkle_sql',
    '_merkle_tree',
    '_persist_sidecar',
    '_persist_sql',
    '_phash_hubness_sql',
    '_predictor_sidecar',
    '_predictor_sql',
    '_rich_club_sidecar',
    '_rich_club_sql',
    '_ring_owners',
    '_ring_sidecar',
    '_ring_sql',
    '_route_loop_sql',
    '_service_span_sql',
    '_skyline_sweep',
    '_splitmix_sql_expr',
    '_substr_sidecar',
    '_substr_sql',
    '_suffix_array_np',
    '_ts_median_slope',
    '_video_cut_sidecar',
    '_video_cut_sql',
    '_vopt_dp',
    '_vopt_sidecar',
    '_vopt_sql',
    '_vose_alias',
    'q_alias_table_nations',
    'q_audio_predictor_order_audit',
    'q_band_pair_census_orders',
    'q_bridges_dups',
    'q_buffer_area_audit_routes',
    'q_bwt_runs_sources',
    'q_chamfer_label_pairs',
    'q_csa_earliest_arrival',
    'q_cube_status_priority',
    'q_distinct_substrings_docs',
    'q_dither_fs_images',
    'q_dom_seasonality_purchases',
    'q_elias_fano_bits_users',
    'q_emd_weekend_weekday',
    'q_eulerian_audit_routes',
    'q_fano_factor_types',
    'q_fleet_size_routes',
    'q_frechet_direction_gap_routes',
    'q_gop_plan_clips',
    'q_gorilla_ts_bits_users',
    'q_h_index_nations',
    'q_hash_bucket_load_orders',
    'q_huffman_cost_sources',
    'q_ima_adpcm_tracks',
    'q_km_survival_weeks',
    'q_lcs_adjacent_docs',
    'q_lis_customer_orders',
    'q_lrs_census_sources',
    'q_lsh_bucket_balance_embeddings',
    'q_lsm_compaction_sim_daily',
    'q_lyndon_factors_sources',
    'q_lz78_parse_sources',
    'q_merkle_root_orders',
    'q_multi_distinct_orders',
    'q_naive_lag_mae_daily',
    'q_order_total_reconciliation',
    'q_pack_size_gcd_parts',
    'q_palindrome_census_docs',
    'q_part_pair_lift_orders',
    'q_percentile_mismatch_customers',
    'q_persistence_census_images',
    'q_phash_hubness_images',
    'q_rich_club_dups',
    'q_ring_rebalance_orders',
    'q_rle_sort_benefit_lineitem',
    'q_roaring_container_census',
    'q_simpson_strata_brands',
    'q_skyline_parts',
    'q_stop_service_span',
    'q_theil_sen_customers',
    'q_varint_posting_bytes_users',
    'q_video_cut_audit',
    'q_voptimal_hist_weekly',
)
