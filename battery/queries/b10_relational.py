"""Query battery part — 41 driver queries (split from the former single-module queries.py).

Registers:
eh_window_counts_users, winnowing_docs, two_choice_load_orders,
stab_count_sessions, walk_counts_dups, linear_partition_days,
mtf_codes_docs, count_sketch_users, fm_pcsa_users, min_swaps_weekly,
osa_adjacent_docs, luhn_audit_orders, crc32_docs, hamming74_tracks,
secretary_rule_weekly, disk_scan_weekly, hrw_jump_rebalance_orders,
ear_clip_routes, gk_quantiles_orders, open_addressing_weekly,
fenwick_online_ranks_weekly, xor_filter_orders, histogram_rect_days,
rolling_median_days, rsa_roundtrip_orders, rank_gf2_sources,
gcd_census_orders, lehmer_rank_weekly, celf_coverage_tiles,
shapley_power_nations, widest_path_cells, ttc_exchange_nations,
voting_methods_nations, hull_width_cells, bwt_roundtrip_docs,
wiener_index_dups, tsp_2opt_gap_cells, astar_cells, lazy_segtree_days,
cuckoo_insert_orders, lca_binarylift_dups
"""


from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .b01_core import (
    _dim_np,
    EMBEDDING_DUPS_SQL,
    ORACLE_SQL,
    QUERIES,
    _atomic_write_table,
    _broadcast,
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b08_misc import (
    _suffix_array_np,
)  # noqa: F401

from .b09_misc import (
    _EH_K,
    _EH_WINDOW,
    _HUN_K,
    _MST_CAP,
    _MST_SHIFT,
    _SLIDE_W,
    _TSP_K,
    _eh_estimate,
    _held_karp,
    _rmq_query,
    _rmq_sparse,
    _sm64_scalar_rho,
    _top_bal,
    _tsp_memo,
)  # noqa: F401



def q_eh_window_counts_users(sf_dir: str):
    """DGIM exponential-histogram window counts per user — the
    sliding-window counting sketch (Datar-Gionis-Indyk-Motwani) every
    stream processor uses when exact windows would hold the window
    itself: O(log²W) bucket state answers 'events in the trailing
    day' within 25% (k=2), and the audit computes BOTH the sketch
    estimate at the user's last event and the exact window count, so
    the error-bound theorem |est − exact| ≤ exact/(2k)+1 is CHECKED
    per user in-operator, not assumed. Canonical deterministic
    maintenance (oldest-pair merge) makes the estimate itself
    reproducible. Events sort inside per-user co-partitions.
    Sidecar replays the same canonical machine re-mechanized over
    SQL-ordered events."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "sec": pc.divide(t["ts"].cast(pa.timestamp("us"))
                             .cast(pa.int64()),
                             pa.scalar(1_000_000, pa.int64())),
            "eid": t["event_id"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sec", "eid"], kind="stable")
        secs = df["sec"].to_numpy(np.int64).tolist()
        now = secs[-1]
        exact = sum(1 for s in secs if s > now - _EH_WINDOW)
        est = _eh_estimate(secs, now, _EH_WINDOW)
        if abs(est - exact) > exact // (2 * _EH_K) + 1:
            raise AssertionError("DGIM bound violated")
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(secs)], np.int64),
            "exact_window": np.array([exact], np.int64),
            "est_window": np.array([est], np.int64)})

    return (ev.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold,
                                           batch_format="pandas"))



QUERIES["eh_window_counts_users"] = q_eh_window_counts_users



def _eh_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "eh-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_eh_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT user_id, epoch_us(ts) // 1000000 AS sec FROM "
            f"read_parquet('{sf_dir}/events.parquet') "
            "ORDER BY user_id, ts, event_id").fetchall()
        byuser: dict[int, list[int]] = {}
        for uid, s in rows:
            byuser.setdefault(int(uid), []).append(int(s))
        out_rows = []
        for uid in sorted(byuser):
            secs = byuser[uid]
            now = secs[-1]
            exact = sum(1 for s in secs if s > now - _EH_WINDOW)
            est = _eh_estimate(secs, now, _EH_WINDOW)
            out_rows.append({"user_id": uid, "n_events": len(secs),
                             "exact_window": exact,
                             "est_window": est})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _eh_sql(sf_dir: str) -> str:
    return (f"SELECT user_id, n_events, exact_window, est_window "
            f"FROM read_parquet('{_eh_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# winnowing_docs: MOSS winnowing fingerprint selection per document
# ---------------------------------------------------------------------------

_WIN_K = 5     # k-gram length (≤ 8 so a gram packs into one uint64)

_WIN_W = 4     # winnowing window (guarantee: matches ≥ w+k−1 share)



def _gram_hashes(s: bytes) -> np.ndarray:
    """splitmix64 of each k-gram packed base-256 into a uint64 —
    vectorized via sliding_window_view, no per-gram Python."""
    from geotile.synth import splitmix64

    b = np.frombuffer(s, dtype=np.uint8)
    if len(b) < _WIN_K:
        return np.empty(0, np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(b, _WIN_K)
    weights = (np.uint64(256) ** np.arange(_WIN_K, dtype=np.uint64))
    packed = (win.astype(np.uint64) * weights[None, :]).sum(
        axis=1, dtype=np.uint64)
    return splitmix64(packed)



def _winnow_vec(h: np.ndarray):
    """(selected positions, hashes): per length-w window keep the
    RIGHTMOST minimal hash (the standard winnowing tie rule — fewer
    fingerprints on runs); vectorized by arg-minning the REVERSED
    window so first-hit = rightmost."""
    n = len(h)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    if n < _WIN_W:
        j = n - 1 - int(np.argmin(h[::-1]))
        return np.array([j], np.int64), h[[j]]
    win = np.lib.stride_tricks.sliding_window_view(h, _WIN_W)
    rev = win[:, ::-1]
    j = (_WIN_W - 1 - np.argmin(rev, axis=1)) \
        + np.arange(len(win), dtype=np.int64)
    sel = np.unique(j)
    return sel, h[sel]



def _winnow_deque(h) -> list:
    """INDEPENDENT replay: the incremental single-pass winnowing with
    a monotonic deque of candidate minima (the algorithm as deployed
    in MOSS) — selections recorded when the window's rightmost
    minimum changes. Same (rightmost-min) semantics, no windows
    materialized."""
    from collections import deque

    n = len(h)
    if n == 0:
        return []
    if n < _WIN_W:
        best = 0
        for i in range(n):
            if h[i] <= h[best]:
                best = i
        return [best]
    dq: deque = deque()      # indices, hashes increasing
    sel = []
    for i in range(n):
        while dq and h[dq[-1]] >= h[i]:
            dq.pop()
        dq.append(i)
        if dq[0] <= i - _WIN_W:
            dq.popleft()
        if i >= _WIN_W - 1:
            m = dq[0]
            # rightmost minimal inside the window: the deque keeps
            # the LAST occurrence of the min because pops use >=
            if not sel or sel[-1] != m:
                sel.append(m)
    return sel



def q_winnowing_docs(sf_dir: str):
    """MOSS winnowing fingerprints per document (Schleimer-Wilkerson-
    Aiken 2003) — the plagiarism/clone-detection selection rule with
    the GUARANTEE minhash cannot give: any shared substring of
    length ≥ w+k−1 = 8 between two documents shares at least one
    SELECTED fingerprint (pinned on a crafted pair), while selecting
    only ~2/(w+1) of all grams — the local, position-aware dedup
    anchor under every MOSS-style matcher. k-gram hashes are one
    vectorized pack+splitmix pass; window minima arg-min the
    REVERSED window so first-hit = the standard rightmost tie rule.
    Docs are the parallel grain. INDEPENDENT monotonic-deque
    single-pass replay (the deployed incremental algorithm),
    density-guarantee property tests, random cross-checks."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = {k: [] for k in ("doc_id", "n_grams", "n_selected",
                               "distinct_fp")}
        for k, txt in enumerate(texts):
            h = _gram_hashes(txt.encode())
            sel, fps = _winnow_vec(h)
            out["doc_id"].append(int(ids[k]))
            out["n_grams"].append(len(h))
            out["n_selected"].append(len(sel))
            out["distinct_fp"].append(len(np.unique(fps)))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["winnowing_docs"] = q_winnowing_docs



def _winnow_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "winnow-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_winnow_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            h = _gram_hashes(txt.encode())
            sel = _winnow_deque(h.tolist())
            fps = {int(h[i]) for i in sel}
            out_rows.append({"doc_id": int(did), "n_grams": len(h),
                             "n_selected": len(sel),
                             "distinct_fp": len(fps)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _winnow_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n_grams, n_selected, distinct_fp "
            f"FROM read_parquet('{_winnow_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# two_choice_load_orders: power-of-two-choices load balancing audit
# ---------------------------------------------------------------------------

_P2C_BINS = 1024

_P2C_SALT = 0x5F3759DF



def _p2c_loads(keys) -> tuple:
    """(max_load_1, ss_1, max_load_2, ss_2): single-choice loads are
    order-free bincounts of h1; two-choice places each key (in the
    given order) into the LESS loaded of h1, h2, ties to h1 — the
    greedy that drops max load from Θ(log n/log log n) to
    Θ(log log n), Azar et al.'s two-choices theorem. ss = Σ load²
    (the collision mass a hash join pays). Exact deterministic."""
    from geotile.synth import splitmix64

    ks = np.asarray(keys, np.uint64)
    h1 = (splitmix64(ks) % np.uint64(_P2C_BINS)).astype(np.int64)
    h2 = (splitmix64(ks ^ np.uint64(_P2C_SALT))
          % np.uint64(_P2C_BINS)).astype(np.int64)
    l1 = np.bincount(h1, minlength=_P2C_BINS)
    loads = [0] * _P2C_BINS
    for a, b in zip(h1.tolist(), h2.tolist()):
        if loads[b] < loads[a]:
            loads[b] += 1
        else:
            loads[a] += 1
    l2 = np.array(loads, np.int64)
    return (int(l1.max()), int((l1.astype(np.int64) ** 2).sum()),
            int(l2.max()), int((l2 ** 2).sum()))



def _p2c_loads_replay(keys) -> tuple:
    """INDEPENDENT replay: pure-int scalar splitmix64 (no numpy) and
    a dict-of-loads mechanization of the same placement rule."""
    M = (1 << 64) - 1
    l1: dict = {}
    l2: dict = {}
    for k in keys:
        a = _sm64_scalar_rho(int(k)) % _P2C_BINS
        b = _sm64_scalar_rho((int(k) ^ _P2C_SALT) & M) % _P2C_BINS
        l1[a] = l1.get(a, 0) + 1
        if l2.get(b, 0) < l2.get(a, 0):
            l2[b] = l2.get(b, 0) + 1
        else:
            l2[a] = l2.get(a, 0) + 1
    m1 = max(l1.values()) if l1 else 0
    m2 = max(l2.values()) if l2 else 0
    return (m1, sum(v * v for v in l1.values()),
            m2, sum(v * v for v in l2.values()))



def q_two_choice_load_orders(sf_dir: str):
    """Power-of-two-choices load balancing over all orderkeys into
    1024 bins — Azar-Broder-Karlin-Upfal: one random choice leaves a
    Θ(log n/log log n) hottest bin, letting each key pick the less
    loaded of TWO drops the max to Θ(log log n) — the theorem under
    every load balancer, cuckoo table and distributed cache, here
    MEASURED on the workload's own keys (max load and Σload², the
    collision mass a hash join pays, under both policies).
    Single-choice is an order-free distributed bincount; the
    two-choice greedy is sequential by nature, so keys contract to
    sorted partials and the placement runs as a bin-scale epilogue
    (per-shard at fleet scale, the standard sharded-balancer story).
    INDEPENDENT scalar-splitmix dict replay; the improvement itself
    is asserted in tests."""
    ks = _read(sf_dir, "orders", ["o_orderkey"]) \
        .to_pandas()["o_orderkey"].to_numpy(np.int64)
    keys = np.sort(ks)      # deterministic insertion order
    m1, s1, m2, s2 = _p2c_loads(keys)
    return pd.DataFrame({
        "n_keys": np.array([len(keys)], np.int64),
        "n_bins": np.array([_P2C_BINS], np.int64),
        "max_load_1": np.array([m1], np.int64),
        "ss_1": np.array([s1], np.int64),
        "max_load_2": np.array([m2], np.int64),
        "ss_2": np.array([s2], np.int64)})



QUERIES["two_choice_load_orders"] = q_two_choice_load_orders



def _p2c_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "p2c-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_p2c_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [r[0] for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') ORDER BY 1"
        ).fetchall()]
        m1, s1, m2, s2 = _p2c_loads_replay(ks)
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "n_bins": _P2C_BINS,
            "max_load_1": m1, "ss_1": s1,
            "max_load_2": m2, "ss_2": s2}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _p2c_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, n_bins, max_load_1, ss_1, max_load_2, "
            f"ss_2 FROM read_parquet('{_p2c_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# stab_count_sessions: interval stabbing counts over merged user sessions
# ---------------------------------------------------------------------------

_STAB_Q = 64

_STAB_GAP = 1800    # session merge gap, seconds



def q_stab_count_sessions(sf_dir: str):
    """Interval stabbing counts — the concurrency question every
    capacity planner asks ('how many sessions were live at time
    t?'), answered for 64 splitmix-drawn probe instants WITHOUT
    scanning intervals per probe: stab(t) = |starts ≤ t| − |ends <
    t| — the +1/−1 boundary-counting identity that turns stabbing
    into two sorted-array searchsorteds, O(log n) per probe after an
    O(n log n) sort (the interval-tree answer without the tree).
    Sessions are the gap-30-min merges of each user's event stream
    (fold inside per-user co-partitions); the boundary arrays are
    session-scale epilogue state, broadcast at fleet scale. The
    probes ship as a tiny sidecar; the ANSWERS are computed by SQL
    itself re-deriving sessions via LAG and counting containment
    directly — an independent aggregation path. Boundary-inclusive
    semantics pinned (t exactly at a start or end counts)."""
    from geotile.synth import splitmix64

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "sec": pc.divide(t["ts"].cast(pa.timestamp("us"))
                             .cast(pa.int64()),
                             pa.scalar(1_000_000, pa.int64()))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        s = np.sort(df["sec"].to_numpy(np.int64))
        brk = np.nonzero(np.diff(s) > _STAB_GAP)[0]
        starts = np.concatenate([[s[0]], s[brk + 1]])
        ends = np.concatenate([s[brk], [s[-1]]])
        return pd.DataFrame({"start": starts, "end": ends})

    iv = (ev.map_batches(prep, batch_format="pyarrow",
                         zero_copy_batch=True)
          .groupby("user_id").map_groups(fold, batch_format="pandas")
          ).to_pandas()
    starts = np.sort(iv["start"].to_numpy(np.int64))
    ends = np.sort(iv["end"].to_numpy(np.int64))
    lo, hi = int(starts.min()), int(ends.max())
    probes = lo + (splitmix64(np.arange(_STAB_Q, dtype=np.uint64)
                              + np.uint64(7))
                   % np.uint64(hi - lo + 1)).astype(np.int64)
    n_le_start = np.searchsorted(starts, probes, side="right")
    n_lt_end = np.searchsorted(ends, probes, side="left")
    return pd.DataFrame({
        "qid": np.arange(_STAB_Q, dtype=np.int64),
        "t": probes,
        "n_live": (n_le_start - n_lt_end).astype(np.int64)})



QUERIES["stab_count_sessions"] = q_stab_count_sessions



def _stab_probes_sidecar(sf_dir: str) -> str:
    """Sidecar holding ONLY the probe instants — answers come from
    SQL."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "stab-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_stab_probes_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        lo, hi = con.execute(
            f"""WITH s AS (SELECT user_id,
                        epoch_us(ts) // 1000000 AS sec,
                        CASE WHEN epoch_us(ts) // 1000000
                             - LAG(epoch_us(ts) // 1000000) OVER (
                                 PARTITION BY user_id ORDER BY ts)
                             > {_STAB_GAP} THEN 1 ELSE 0 END AS brk
                 FROM read_parquet('{sf_dir}/events.parquet')),
            g AS (SELECT user_id, sec,
                         SUM(brk) OVER (PARTITION BY user_id
                                        ORDER BY sec) AS sid
                  FROM s),
            iv AS (SELECT MIN(sec) AS a, MAX(sec) AS b
                   FROM g GROUP BY user_id, sid)
            SELECT MIN(a), MAX(b) FROM iv""").fetchone()
        probes = int(lo) + (splitmix64(
            np.arange(_STAB_Q, dtype=np.uint64) + np.uint64(7))
            % np.uint64(int(hi) - int(lo) + 1)).astype(np.int64)
        out = pa.table({
            "qid": pa.array(np.arange(_STAB_Q, dtype=np.int64)),
            "t": pa.array(probes)})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _stab_sql(sf_dir: str) -> str:
    return f"""
        WITH s AS (SELECT user_id, epoch_us(ts) // 1000000 AS sec,
                          CASE WHEN epoch_us(ts) // 1000000
                               - LAG(epoch_us(ts) // 1000000) OVER (
                                   PARTITION BY user_id ORDER BY ts)
                               > {_STAB_GAP} THEN 1 ELSE 0 END AS brk
                   FROM read_parquet('{sf_dir}/events.parquet')),
        g AS (SELECT user_id, sec,
                     SUM(brk) OVER (PARTITION BY user_id
                                    ORDER BY sec) AS sid
              FROM s),
        iv AS (SELECT MIN(sec) AS a, MAX(sec) AS b
               FROM g GROUP BY user_id, sid),
        q AS (SELECT * FROM
              read_parquet('{_stab_probes_sidecar(sf_dir)}'))
        SELECT q.qid, q.t,
               CAST(COALESCE(SUM(CASE WHEN iv.a <= q.t
                                       AND q.t <= iv.b
                                      THEN 1 ELSE 0 END), 0)
                    AS BIGINT) AS n_live
        FROM q LEFT JOIN iv ON TRUE
        GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# walk_counts_dups: closed-walk spectra of near-dup components
# ---------------------------------------------------------------------------


def _walk_traces(A: np.ndarray) -> tuple:
    """(trace A³, trace A⁴) by integer matmul — closed walks of
    length 3 and 4; tr(A³) = 6·triangles."""
    A2 = A @ A
    A3 = A2 @ A
    return int(np.trace(A3)), int(np.trace(A3 @ A))



def _walk_traces_dp(adjlist: dict, nodes) -> tuple:
    """INDEPENDENT replay: per-source walk-count DP over adjacency
    LISTS (vector push one step at a time, pure Python ints — no
    matrices, no matmul)."""
    nodes = sorted(nodes)
    t3 = t4 = 0
    for s in nodes:
        cnt = {s: 1}
        for step in range(4):
            nxt: dict = {}
            for u, c in cnt.items():
                for v in adjlist.get(u, ()):
                    nxt[v] = nxt.get(v, 0) + c
            if step == 2:
                t3 += nxt.get(s, 0)
            cnt = nxt
        t4 += cnt.get(s, 0)
    return t3, t4



def q_walk_counts_dups(sf_dir: str):
    """Closed-walk spectrum of every near-dup component with ≥ 3
    vertices: tr(A³) and tr(A⁴) — the graph-moments that feed
    spectral density, Katz centrality normalization and motif
    counting, with the exact identity tr(A³) = 6·triangles asserted
    against a direct triangle enumeration IN the tests (a cross-
    operator invariant with triangle_dups' counting family), while
    tr(A⁴) adds the 4-walk mass (edges·2 + squares·8 + paths) no
    triangle count contains. Integer matmuls per component at
    dup-graph scale. INDEPENDENT per-source adjacency-list walk DP
    replay — no matrices — plus complete-graph closed forms pinned
    (K4: tr A³ = 24, tr A⁴ = 84)."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    return _walks_from_pairs(
        [(int(r["a"]), int(r["b"])) for r in pairs], "mat")



def _walks_from_pairs(pairs: list, mode: str) -> pd.DataFrame:
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps: dict = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    rows = []
    for _root, vs in comps.items():
        if len(vs) < 3:
            continue
        vs = sorted(vs)
        if mode == "mat":
            idx = {v: i for i, v in enumerate(vs)}
            A = np.zeros((len(vs), len(vs)), np.int64)
            for v in vs:
                for w in adj[v]:
                    A[idx[v]][idx[w]] = 1
            t3, t4 = _walk_traces(A)
        else:
            t3, t4 = _walk_traces_dp(adj, vs)
        rows.append({"comp_id": vs[0], "n_vertices": len(vs),
                     "tr_a3": t3, "tr_a4": t4,
                     "n_triangles": t3 // 6})
    out = pd.DataFrame(rows or {"comp_id": [], "n_vertices": [],
                                "tr_a3": [], "tr_a4": [],
                                "n_triangles": []})
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("comp_id").reset_index(drop=True)



QUERIES["walk_counts_dups"] = q_walk_counts_dups



def _walks_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "walks-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_walks_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        df = _walks_from_pairs(
            [(int(a), int(b)) for a, b, _ in rows], "dp")
        out = pa.Table.from_pandas(df, preserve_index=False)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _walks_sql(sf_dir: str) -> str:
    return (f"SELECT comp_id, n_vertices, tr_a3, tr_a4, n_triangles "
            f"FROM read_parquet('{_walks_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# linear_partition_days: minimize the max segment sum of the day series
# ---------------------------------------------------------------------------

_LP_K = 8



def _lp_bsearch(v, k: int) -> int:
    """Painter's-partition optimum: smallest X such that v splits
    into ≤ k contiguous segments each summing ≤ X — binary search on
    the answer with a greedy left-to-right feasibility check (greedy
    is exact for feasibility: extending a segment while it fits is
    never worse)."""
    lo = max(v) if len(v) else 0
    hi = sum(v)
    while lo < hi:
        mid = (lo + hi) // 2
        seg = 1
        cur = 0
        ok = True
        for x in v:
            if cur + x <= mid:
                cur += x
            else:
                seg += 1
                cur = x
                if seg > k:
                    ok = False
                    break
        if ok:
            hi = mid
        else:
            lo = mid + 1
    return int(lo)



def _lp_dp(v, k: int) -> int:
    """INDEPENDENT replay: the O(K·n log n) divide-and-conquer-
    optimization DP — dp[k][i] = min_j max(dp[k−1][j], S(j..i)); the
    argmin is monotone in i (the cost is a max of a non-increasing
    and a non-decreasing term), so each layer solves by D&C over
    opt-ranges. A different algorithm family than search-on-answer;
    brute-verified on random instances in tests."""
    n = len(v)
    if n == 0:
        return 0
    k = min(k, n)       # ≤ k segments: extra layers can't help
    pre = [0]
    for x in v:
        pre.append(pre[-1] + x)
    INF = 1 << 62
    prev = [INF] * (n + 1)
    for i in range(1, n + 1):
        prev[i] = pre[i]
    for _layer in range(2, k + 1):
        cur = [INF] * (n + 1)

        def solve(ilo, ihi, jlo, jhi):
            if ilo > ihi:
                return
            im = (ilo + ihi) // 2
            best = INF
            bj = jlo
            for j in range(jlo, min(jhi, im - 1) + 1):
                c = max(prev[j], pre[im] - pre[j])
                if c < best:
                    best = c
                    bj = j
            cur[im] = best
            solve(ilo, im - 1, jlo, bj)
            solve(im + 1, ihi, bj, jhi)

        solve(1, n, 1, n)
        prev = cur
    return int(prev[n])



def q_linear_partition_days(sf_dir: str):
    """Linear partitioning of the daily order series into 8
    contiguous segments minimizing the busiest segment's total — the
    painter's-partition / shard-boundary problem every range-
    partitioned store solves when it splits a sorted keyspace into
    balanced shards (contiguity is the constraint that makes it
    nontrivial — a free assignment would just be bin packing).
    Solved by binary search on the answer with an exact greedy
    feasibility check, O(n log ΣV). The fact scan contracts to
    (day, n) cells; the search is a calendar-scale epilogue.
    Output: the optimum plus the greedy-at-optimum segment count and
    the heaviest single day (the lower bound, opt ≥ both bounds
    pinned). INDEPENDENT divide-and-conquer-optimization DP replay —
    a different algorithm family — brute cross-checks."""
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
    v = days["n"].to_numpy(np.int64).tolist()
    opt = _lp_bsearch(v, _LP_K)
    seg = 1
    cur = 0
    for x in v:
        if cur + x <= opt:
            cur += x
        else:
            seg += 1
            cur = x
    return pd.DataFrame({
        "k": np.array([_LP_K], np.int64),
        "n_days": np.array([len(v)], np.int64),
        "total": np.array([sum(v)], np.int64),
        "max_day": np.array([max(v)], np.int64),
        "opt_max_segment": np.array([opt], np.int64),
        "segments_used": np.array([seg], np.int64)})



QUERIES["linear_partition_days"] = q_linear_partition_days



def _lp_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lp-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lp_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "GROUP BY 1 ORDER BY 1").fetchall()
        v = [int(n) for _d, n in rows]
        opt = _lp_dp(v, _LP_K)
        seg = 1
        cur = 0
        for x in v:
            if cur + x <= opt:
                cur += x
            else:
                seg += 1
                cur = x
        out = pa.Table.from_pylist([{
            "k": _LP_K, "n_days": len(v), "total": sum(v),
            "max_day": max(v), "opt_max_segment": opt,
            "segments_used": seg}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lp_sql(sf_dir: str) -> str:
    return (f"SELECT k, n_days, total, max_day, opt_max_segment, "
            f"segments_used FROM read_parquet('{_lp_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# mtf_codes_docs: move-to-front transform census per document
# ---------------------------------------------------------------------------


def _mtf_codes(s: bytes) -> tuple:
    """(n, zeros, sum_codes): the move-to-front transform over the
    byte alphabet (initial list 0..255) — bzip2's stage between BWT
    and the entropy coder: repeated symbols code as ZEROS, so the
    zero density is the compressibility signal. Explicit list
    mutation."""
    lst = list(range(256))
    zeros = total = 0
    for c in s:
        i = lst.index(c)
        total += i
        if i == 0:
            zeros += 1
        else:
            lst.pop(i)
            lst.insert(0, c)
    return len(s), zeros, total



def _mtf_codes_identity(s: bytes) -> tuple:
    """INDEPENDENT replay via the set identities — NO list is ever
    mutated: for a repeat occurrence, code = #distinct symbols since
    the previous occurrence; for a first occurrence, code = c +
    #distinct already-seen symbols with value > c (front-moves from
    behind overtake c exactly once each)."""
    last: dict = {}
    seen: list = []           # distinct symbols in first-seen order
    seen_set: set = set()
    positions: dict = {}
    zeros = total = 0
    for i, c in enumerate(s):
        if c in last:
            # distinct symbols strictly between the two occurrences
            d = len({x for x in s[last[c] + 1:i]})
            code = d
        else:
            code = c + sum(1 for x in seen_set if x > c)
        total += code
        if code == 0:
            zeros += 1
        last[c] = i
        if c not in seen_set:
            seen_set.add(c)
            seen.append(c)
    return len(s), zeros, total



def q_mtf_codes_docs(sf_dir: str):
    """Move-to-front transform census per document — bzip2's adaptive
    recency coder between BWT and Huffman: a repeated symbol codes as
    0, so zero density reads locality the way raw frequency cannot
    (the same histogram with shuffled positions scores far fewer
    zeros, pinned), and Σcodes is the recency-cost mass an entropy
    coder will pay. Complements bwt_runs_sources (which measures the
    BWT stage) with the MTF stage. Docs are the parallel grain.
    INDEPENDENT replay computes every code from SET IDENTITIES with
    no list mutation — repeat codes are distinct-since-last counts,
    first-occurrence codes are initial rank plus later-overtakers —
    random cross-checks plus aaaa/abab pins."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = {k: [] for k in ("doc_id", "n", "zeros", "sum_codes")}
        for k, txt in enumerate(texts):
            n, z, tot = _mtf_codes(txt.encode())
            out["doc_id"].append(int(ids[k]))
            out["n"].append(n)
            out["zeros"].append(z)
            out["sum_codes"].append(tot)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["mtf_codes_docs"] = q_mtf_codes_docs



def _mtf_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "mtf-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mtf_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            n, z, tot = _mtf_codes_identity(txt.encode())
            out_rows.append({"doc_id": int(did), "n": n,
                             "zeros": z, "sum_codes": tot})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mtf_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n, zeros, sum_codes "
            f"FROM read_parquet('{_mtf_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# count_sketch_users: signed Count-Sketch frequency estimates
# ---------------------------------------------------------------------------

_CS_D = 3

_CS_W = 256

_CS_SALTC = (0x1111, 0x2222, 0x3333)

_CS_SALTS = (0x4444, 0x5555, 0x6666)

_CS_PROBE = 64



def _cs_cells(keys: np.ndarray):
    """(row, col, signed +1/−1) per key per sketch row — splitmix
    hashing, fully vectorized."""
    from geotile.synth import splitmix64

    ks = np.asarray(keys, np.uint64)
    rows, cols, signs = [], [], []
    for r in range(_CS_D):
        c = (splitmix64(ks ^ np.uint64(_CS_SALTC[r]))
             % np.uint64(_CS_W)).astype(np.int64)
        s = ((splitmix64(ks ^ np.uint64(_CS_SALTS[r]))
              & np.uint64(1)).astype(np.int64) * 2 - 1)
        rows.append(np.full(len(ks), r, np.int64))
        cols.append(c)
        signs.append(s)
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(signs))



def _cs_estimate(sketch: np.ndarray, key: int) -> int:
    """Median-of-rows signed readout — Count-Sketch's unbiased
    estimator (CM's is biased UP; the sign flip cancels collision
    mass in expectation)."""
    from geotile.synth import splitmix64

    ests = []
    for r in range(_CS_D):
        c = int(splitmix64(np.array([key], np.uint64)
                           ^ np.uint64(_CS_SALTC[r]))[0]
                % np.uint64(_CS_W))
        s = int((splitmix64(np.array([key], np.uint64)
                            ^ np.uint64(_CS_SALTS[r]))[0]
                 & np.uint64(1))) * 2 - 1
        ests.append(s * int(sketch[r][c]))
    return int(np.sort(np.array(ests, np.int64))[_CS_D // 2])



def q_count_sketch_users(sf_dir: str):
    """Count-Sketch frequency estimates for the 64 smallest user ids
    — the SIGNED sketch (Charikar-Chen-Farach-Colton) beside the
    existing Count-Min: the random ±1 flips make collisions cancel
    in expectation, so the median-of-rows readout is UNBIASED where
    CM only over-counts — the difference that matters for
    subtracting sketches and for heavy-hitter residuals. The sketch
    is a perfect per-batch PARTIAL: cells are (row, col) sums, the
    shuffle moves ≤ d·w cells, merge is addition. Estimates are
    deterministic given the fixed splitmix hashes, so exact parity
    holds. Exact per-user counts ship alongside for the error
    audit. INDEPENDENT scalar-splitmix dict-sketch replay."""
    ev = _read(sf_dir, "events", ["user_id"])

    def cells(t: pa.Table) -> pa.Table:
        r, c, s = _cs_cells(t["user_id"].to_numpy(
            zero_copy_only=False))
        key = r * _CS_W + c
        u, inv = np.unique(key, return_inverse=True)
        sm = np.zeros(len(u), np.int64)
        np.add.at(sm, inv, s)
        return pa.table({"cell": pa.array(u), "v": pa.array(sm)})

    agg = (ev.map_batches(cells, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("cell").sum("v")).to_pandas()
    agg.columns = ["cell", "v"]
    sketch = np.zeros((_CS_D, _CS_W), np.int64)
    cell = agg["cell"].to_numpy(np.int64)
    sketch[cell // _CS_W, cell % _CS_W] = agg["v"].to_numpy(np.int64)

    exact = (ev.groupby("user_id").count()).to_pandas()
    exact.columns = ["user_id", "n"]
    exact = exact.sort_values("user_id").head(_CS_PROBE)
    rows = []
    for uid, n in zip(exact["user_id"].to_numpy(np.int64),
                      exact["n"].to_numpy(np.int64)):
        rows.append({"user_id": int(uid), "exact": int(n),
                     "cs_est": _cs_estimate(sketch, int(uid))})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["count_sketch_users"] = q_count_sketch_users



def _cs_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "cs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_cs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT user_id FROM "
            f"read_parquet('{sf_dir}/events.parquet')").fetchall()
        M = (1 << 64) - 1
        sk: dict = {}
        cnt: dict = {}
        for (u,) in rows:
            u = int(u)
            cnt[u] = cnt.get(u, 0) + 1
            for r in range(_CS_D):
                c = _sm64_scalar_rho(u ^ _CS_SALTC[r]) % _CS_W
                s = (_sm64_scalar_rho(u ^ _CS_SALTS[r]) & 1) * 2 - 1
                sk[(r, c)] = sk.get((r, c), 0) + s
        out_rows = []
        for uid in sorted(cnt)[:_CS_PROBE]:
            ests = []
            for r in range(_CS_D):
                c = _sm64_scalar_rho(uid ^ _CS_SALTC[r]) % _CS_W
                s = (_sm64_scalar_rho(uid ^ _CS_SALTS[r]) & 1) * 2 - 1
                ests.append(s * sk.get((r, c), 0))
            out_rows.append({"user_id": uid, "exact": cnt[uid],
                             "cs_est": sorted(ests)[_CS_D // 2]})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _cs_sql(sf_dir: str) -> str:
    return (f"SELECT user_id, exact, cs_est "
            f"FROM read_parquet('{_cs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# fm_pcsa_users: Flajolet-Martin PCSA distinct-count sketch
# ---------------------------------------------------------------------------

_FM_M = 64

_FM_PHI = 0.77351



def _fm_state(keys: np.ndarray) -> np.ndarray:
    """The m PCSA bitmaps as uint64s: key → bucket = h % m, bit =
    trailing-zero count of a second hash; OR-accumulation — a
    perfect order-free mergeable partial. Vectorized."""
    from geotile.synth import splitmix64

    ks = np.asarray(keys, np.uint64)
    h1 = splitmix64(ks)
    bucket = (h1 % np.uint64(_FM_M)).astype(np.int64)
    h2 = splitmix64(ks ^ np.uint64(0xABCDEF))
    # trailing zeros of h2 (h2==0 → 63)
    tz = np.zeros(len(ks), np.int64)
    x = h2.copy()
    mask = x == 0
    tz[mask] = 63
    for b in (32, 16, 8, 4, 2, 1):
        m2 = (~mask) & ((x & ((np.uint64(1) << np.uint64(b))
                              - np.uint64(1))) == 0) & (x != 0)
        tz[m2] += b
        x[m2] >>= np.uint64(b)
    bits = np.zeros(_FM_M, np.uint64)
    np.bitwise_or.at(bits, bucket,
                     np.uint64(1) << tz.astype(np.uint64))
    return bits



def _fm_first_zero_sum(bits: np.ndarray) -> int:
    """Σ over bitmaps of R = index of the lowest UNSET bit — the FM
    observable; estimate = m/φ · 2^(ΣR/m)."""
    total = 0
    for b in bits.tolist():
        r = 0
        while b >> r & 1:
            r += 1
        total += r
    return total



def q_fm_pcsa_users(sf_dir: str):
    """Flajolet-Martin PCSA distinct-user estimate — the 1983
    ancestor of the repo's HLL and KMV sketches, completing the
    distinct-count lineage: per bucket, the FIRST UNSET bit of the
    trailing-zero bitmap tracks log₂ of the bucket's cardinality,
    and stochastic averaging over 64 buckets tightens the variance —
    where HLL keeps a MAX register, PCSA keeps the whole bitmap,
    which is why HLL supersedes it at equal memory (measurably: both
    estimates ship beside the exact count). The bitmap OR is a
    perfect order-free mergeable partial; the scan contracts to 64
    uint64s per batch. Estimate floored to the e3 lattice with one
    shared float expression so both engines agree bit-for-bit.
    INDEPENDENT pure-int scalar replay sidecar."""
    ev = _read(sf_dir, "events", ["user_id"])

    def part(t: pa.Table) -> pa.Table:
        bits = _fm_state(t["user_id"].to_numpy(zero_copy_only=False))
        return pa.table({
            "bucket": pa.array(np.arange(_FM_M, dtype=np.int64)),
            "bits": pa.array(bits.view(np.int64))})

    # per-batch partials emit 64 (bucket, bits) rows; the OR fold over
    # the ≤ 64·n_blocks partial rows happens here (bitmap-scale)
    rows = (ev.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True)).to_pandas()
    bits = np.zeros(_FM_M, np.uint64)
    for b, v in zip(rows["bucket"].to_numpy(np.int64),
                    rows["bits"].to_numpy(np.int64)):
        bits[b] |= np.uint64(v)
    S = _fm_first_zero_sum(bits)
    est = int(np.floor(_FM_M / _FM_PHI * (2.0 ** (S / _FM_M))
                       * 1000.0))
    exact = int(_read(sf_dir, "events", ["user_id"])
                .to_pandas()["user_id"].nunique())
    return pd.DataFrame({
        "m": np.array([_FM_M], np.int64),
        "sum_first_zero": np.array([S], np.int64),
        "fm_est_e3": np.array([est], np.int64),
        "exact_distinct": np.array([exact], np.int64)})



QUERIES["fm_pcsa_users"] = q_fm_pcsa_users



def _fm_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "fm-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_fm_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT DISTINCT user_id FROM "
            f"read_parquet('{sf_dir}/events.parquet')").fetchall()
        bits = [0] * _FM_M
        for (u,) in rows:
            u = int(u)
            h1 = _sm64_scalar_rho(u)
            b = h1 % _FM_M
            h2 = _sm64_scalar_rho(u ^ 0xABCDEF)
            tz = 63 if h2 == 0 else (h2 & -h2).bit_length() - 1
            bits[b] |= 1 << tz
        S = 0
        for bm in bits:
            r = 0
            while bm >> r & 1:
                r += 1
            S += r
        est = int(np.floor(_FM_M / _FM_PHI * (2.0 ** (S / _FM_M))
                           * 1000.0))
        out = pa.Table.from_pylist([{
            "m": _FM_M, "sum_first_zero": S, "fm_est_e3": est,
            "exact_distinct": len(rows)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _fm_sql(sf_dir: str) -> str:
    return (f"SELECT m, sum_first_zero, fm_est_e3, exact_distinct "
            f"FROM read_parquet('{_fm_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# min_swaps_weekly: sorting distance via permutation cycle decomposition
# ---------------------------------------------------------------------------


def _perm_cycles(perm) -> int:
    """Number of cycles of a permutation (0-indexed), by marking."""
    n = len(perm)
    seen = [False] * n
    c = 0
    for i in range(n):
        if seen[i]:
            continue
        c += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return c



def _min_swaps_simulate(perm) -> int:
    """INDEPENDENT replay: actually PERFORM cycle-chasing swaps until
    the array is the identity, counting them — no cycle-counting
    formula anywhere."""
    p = list(perm)
    swaps = 0
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            swaps += 1
    return swaps



def q_min_swaps_weekly(sf_dir: str):
    """Minimum transpositions to sort each week's order stream by
    price — the permutation-group cost n − #cycles (Cayley distance
    to the identity), the resequencing price a sorted-output sink
    pays when its input arrives in time order: 0 means the week
    arrived already price-sorted, n−1 means one giant displaced
    cycle; the same arithmetic prices cache-oblivious cycle sort
    and in-place shuffles. Permutation = time-rank → price-rank
    ((price, orderkey) total order, so ties are deterministic);
    pairs fold inside per-week co-partitions. INDEPENDENT replay
    actually PERFORMS the cycle-chasing swaps and counts them — no
    formula — with identity/reversal/rotation pins and random
    cross-checks."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        time_order = np.lexsort((k, d))
        cs, ks = c[time_order], k[time_order]
        price_rank = np.lexsort((ks, cs))
        perm = np.empty(len(cs), np.int64)
        perm[price_rank] = np.arange(len(cs))
        cyc = _perm_cycles(perm.tolist())
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([len(cs)], np.int64),
            "n_cycles": np.array([cyc], np.int64),
            "min_swaps": np.array([len(cs) - cyc], np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["min_swaps_weekly"] = q_min_swaps_weekly



def _swaps_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "swaps-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_swaps_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "epoch_us(o_orderdate) // 86400000000 AS d, o_orderkey, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2, 3").fetchall()
        byweek: dict = {}
        for wk, d, k, c in rows:
            byweek.setdefault(int(wk), []).append(
                (int(d), int(k), int(c)))
        out_rows = []
        for wk in sorted(byweek):
            seq = byweek[wk]           # already (day, key) ordered
            order_by_price = sorted(range(len(seq)),
                                    key=lambda i: (seq[i][2],
                                                   seq[i][1]))
            perm = [0] * len(seq)
            for pos, i in enumerate(order_by_price):
                perm[i] = pos
            # perm maps time-pos → price-rank; invert to match the
            # engine's convention perm[price_rank] = time-pos
            inv = [0] * len(seq)
            for i, pr in enumerate(perm):
                inv[pr] = i
            sw = _min_swaps_simulate(inv)
            out_rows.append({"week": wk, "n_orders": len(seq),
                             "n_cycles": len(seq) - sw,
                             "min_swaps": sw})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _swaps_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_orders, n_cycles, min_swaps "
            f"FROM read_parquet('{_swaps_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# osa_adjacent_docs: optimal string alignment (Damerau) distance census
# ---------------------------------------------------------------------------


def _osa_distance(a, b) -> int:
    """Optimal-string-alignment distance (Levenshtein + ADJACENT
    transposition, each substring edited once) between token lists —
    the typo model: a swapped word pair costs 1 where plain edit
    distance pays 2. Three-row DP."""
    n, m = len(a), len(b)
    INF = 1 << 40
    prev2 = [INF] * (m + 1)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            c = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + c)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] \
                    and a[i - 2] == b[j - 1]:
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
        prev2, prev = prev, cur
    return prev[m]



def _osa_memo(a, b) -> int:
    """INDEPENDENT replay: top-down memoized recursion over (i, j)
    suffix indices — the other DP direction, no row rotation."""
    import functools

    a = tuple(a)
    b = tuple(b)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        c = 0 if a[i] == b[j] else 1
        best = min(go(i + 1, j) + 1, go(i, j + 1) + 1,
                   go(i + 1, j + 1) + c)
        if i + 1 < len(a) and j + 1 < len(b) and a[i] == b[j + 1] \
                and a[i + 1] == b[j]:
            best = min(best, go(i + 2, j + 2) + 1)
        return best

    r = go(0, 0)
    go.cache_clear()
    return r



def q_osa_adjacent_docs(sf_dir: str):
    """Optimal-string-alignment (restricted Damerau) distance between
    each source's consecutive docs — the FOURTH member of the edit
    family (LCS = deletions only, Levenshtein = unit edits, Gotoh =
    affine gaps, OSA adds ADJACENT TRANSPOSITION): a swapped word
    pair costs 1 where Levenshtein pays 2 (pinned), which is the
    difference between flagging reordered boilerplate as near-dup
    and missing it — 80% of human typos are transpositions
    (Damerau 1964). Token-level, exact ints, pairs inside one source
    co-partition ordered by doc_id. INDEPENDENT suffix-direction
    memoized-recursion replay, triangle-property and random
    cross-checks."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        toks = [t.split() for t in df["text"]]
        tot = mx = 0
        for x, y in zip(toks, toks[1:]):
            v = _osa_distance(x, y)
            tot += v
            mx = max(mx, v)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_pairs": np.array([max(len(toks) - 1, 0)], np.int64),
            "sum_osa": np.array([tot], np.int64),
            "max_osa": np.array([mx], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["osa_adjacent_docs"] = q_osa_adjacent_docs



def _osa_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "osa-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_osa_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        agg: dict = {}
        prev: dict = {}
        import sys

        sys.setrecursionlimit(400000)
        for src, _did, txt in rows:
            toks = txt.split()
            a = agg.setdefault(src, [0, 0, 0])
            if src in prev:
                v = _osa_memo(prev[src], toks)
                a[0] += 1
                a[1] += v
                a[2] = max(a[2], v)
            prev[src] = toks
        out = pa.Table.from_pylist(
            [{"source": s, "n_pairs": v[0], "sum_osa": v[1],
              "max_osa": v[2]} for s, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _osa_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_pairs, sum_osa, max_osa "
            f"FROM read_parquet('{_osa_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# luhn_audit_orders: Luhn mod-10 checksum census over orderkeys
# ---------------------------------------------------------------------------


def _luhn_check_digit(n: int) -> int:
    """The digit d that makes (digits of n) followed by d Luhn-valid:
    from the right of n·10, double every second digit (the payload's
    rightmost is doubled), sum digit-sums, d = (10 − s) % 10."""
    s = 0
    dbl = True
    while n > 0:
        d = n % 10
        n //= 10
        if dbl:
            d *= 2
            if d > 9:
                d -= 9
        s += d
        dbl = not dbl
    return (10 - s % 10) % 10



def q_luhn_audit_orders(sf_dir: str):
    """Luhn mod-10 checksum census over every orderkey — the 1954
    check-digit scheme on every payment card and IMEI, and the
    data-validation primitive an ingest pipeline runs on identifier
    columns: per check digit 0-9 the count of orderkeys whose Luhn
    digit it is (a healthy uniform-ish spread; skew means structured
    keys), plus how many keys are ALREADY Luhn-valid (last digit
    equals the Luhn digit of their prefix — expected ~10%).
    Vectorized digit-at-a-time doubling over the whole key column
    (exhausted keys contribute zero digits, so no masking is
    needed). PURE-SQL replay: the identical digit recurrence via
    position unnest + CASE doubling — no sidecar."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def _luhn_sum_vec(n: np.ndarray) -> np.ndarray:
        s = np.zeros(len(n), np.int64)
        n = n.copy()
        dbl = True
        while (n > 0).any():
            d = n % 10
            n = n // 10
            if dbl:
                d = d * 2
                d = np.where(d > 9, d - 9, d)
            s += d
            dbl = not dbl
        return s

    def part(t: pa.Table) -> pa.Table:
        k = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        chk = (10 - _luhn_sum_vec(k) % 10) % 10
        valid = ((10 - _luhn_sum_vec(k // 10) % 10) % 10
                 == k % 10).astype(np.int64)
        g = pa.table({"chk": pa.array(chk),
                      "valid": pa.array(valid)}) \
            .group_by("chk").aggregate([("valid", "sum"),
                                        ([], "count_all")])
        return pa.table({"check_digit": g["chk"],
                         "n_valid": g["valid_sum"].cast(pa.int64()),
                         "n": g["count_all"].cast(pa.int64())})

    out = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("check_digit").sum(["n_valid", "n"])).to_pandas()
    out.columns = ["check_digit", "n_valid", "n"]
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("check_digit").reset_index(drop=True)



QUERIES["luhn_audit_orders"] = q_luhn_audit_orders

ORACLE_SQL["luhn_audit_orders"] = """
        WITH d AS (SELECT o_orderkey AS k,
                          CAST(o_orderkey AS VARCHAR) AS ks
                   FROM orders),
        chk AS (SELECT k,
                       (10 - SUM(CASE WHEN i % 2 = 1 THEN
                             CASE WHEN dig * 2 > 9 THEN dig * 2 - 9
                                  ELSE dig * 2 END
                           ELSE dig END) % 10) % 10 AS check_digit
                FROM (SELECT k,
                             CAST(substr(ks,
                                         CAST(length(ks) - i + 1
                                              AS INT), 1)
                                  AS BIGINT) AS dig, i
                      FROM (SELECT k, ks,
                                   unnest(range(1, length(ks) + 1))
                                     AS i
                            FROM d) t) v
                GROUP BY k),
        p AS (SELECT k, k % 10 AS last,
                     CAST(k // 10 AS VARCHAR) AS ps
              FROM d),
        val AS (SELECT v.k,
                       CASE WHEN (10 - SUM(CASE WHEN i % 2 = 1 THEN
                                 CASE WHEN dig * 2 > 9
                                      THEN dig * 2 - 9
                                      ELSE dig * 2 END
                             ELSE dig END) % 10) % 10 = MAX(v.last)
                            THEN 1 ELSE 0 END AS ok
                FROM (SELECT q.k, q.last,
                             CAST(substr(q.ps,
                                         CAST(length(q.ps) - i + 1
                                              AS INT), 1)
                                  AS BIGINT) AS dig, i
                      FROM (SELECT k, last, ps,
                                   unnest(range(1, length(ps) + 1))
                                     AS i
                            FROM p) q) v
                GROUP BY v.k)
        SELECT chk.check_digit,
               CAST(SUM(val.ok) AS BIGINT) AS n_valid,
               COUNT(*) AS n
        FROM chk JOIN val ON val.k = chk.k
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# crc32_docs: CRC-32 checksum per document (table-driven vs bitwise)
# ---------------------------------------------------------------------------

_CRC_POLY = 0xEDB88320



def _crc32_table():
    tbl = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ _CRC_POLY if c & 1 else c >> 1
        tbl.append(c)
    return np.array(tbl, np.uint32)



_CRC_TBL = _crc32_table()



def _crc32_tab(data: bytes) -> int:
    """Table-driven CRC-32 (IEEE 802.3 reflected polynomial, init
    and xorout 0xFFFFFFFF) — one table lookup per byte, the form
    every zip/png/ethernet implementation ships."""
    crc = 0xFFFFFFFF
    tbl = _CRC_TBL
    for b in data:
        crc = int(tbl[(crc ^ b) & 0xFF]) ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF



def _crc32_bitwise(data: bytes) -> int:
    """INDEPENDENT replay: pure bitwise long division — eight
    shift-xor steps per byte, no table anywhere."""
    crc = 0xFFFFFFFF
    for b in data:
        crc ^= b
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF



def q_crc32_docs(sf_dir: str):
    """CRC-32 of every document (IEEE reflected 0xEDB88320, the
    zip/png/ethernet checksum) — the integrity primitive an ingest
    pipeline stamps on payloads, implemented table-driven (one
    lookup per byte). Three-way attested: the INDEPENDENT sidecar
    runs pure bitwise long division with no table, and the tests pin
    BOTH against zlib.crc32 plus the published check value
    crc32(b'123456789') = 0xCBF43926 — an implementation bug cannot
    survive all three. Docs are the parallel grain. Also reports
    crc % 64 as the shard a content-addressed store would route to."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_c, out_s = [], []
        for txt in texts:
            c = _crc32_tab(txt.encode())
            out_c.append(c)
            out_s.append(c % 64)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "crc32": pa.array(out_c, pa.int64()),
            "shard": pa.array(out_s, pa.int64())})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["crc32_docs"] = q_crc32_docs



def _crc_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "crc-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_crc_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            c = _crc32_bitwise(txt.encode())
            out_rows.append({"doc_id": int(did), "crc32": c,
                             "shard": c % 64})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _crc_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, crc32, shard "
            f"FROM read_parquet('{_crc_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# hamming74_tracks: Hamming(7,4) single-error-correction audit
# ---------------------------------------------------------------------------

_H74_N = 64      # bytes per track audited (→ 128 nibbles/codewords)



def _h74_encode(nib: int) -> int:
    """Nibble → 7-bit codeword, parity bits at positions 1,2,4
    (1-indexed), data at 3,5,6,7 — the classic layout where the
    SYNDROME READS AS THE ERROR POSITION."""
    d1 = nib >> 3 & 1
    d2 = nib >> 2 & 1
    d3 = nib >> 1 & 1
    d4 = nib & 1
    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p4 = d2 ^ d3 ^ d4
    return (p1 << 6 | p2 << 5 | d1 << 4 | p4 << 3
            | d2 << 2 | d3 << 1 | d4)



def _h74_decode(cw: int) -> tuple:
    """(nibble, corrected_pos): syndrome-decode a 7-bit word, fixing
    at most one flipped bit; corrected_pos = 0 if clean."""
    b = [(cw >> (6 - i)) & 1 for i in range(7)]   # b[0] = pos 1
    s1 = b[0] ^ b[2] ^ b[4] ^ b[6]
    s2 = b[1] ^ b[2] ^ b[5] ^ b[6]
    s4 = b[3] ^ b[4] ^ b[5] ^ b[6]
    pos = s1 + 2 * s2 + 4 * s4
    if pos:
        b[pos - 1] ^= 1
    return (b[2] << 3 | b[4] << 2 | b[5] << 1 | b[6]), pos



def _h74_decode_table(cw: int) -> tuple:
    """INDEPENDENT replay: decode by exhaustive nearest-codeword
    lookup over all 16 codewords (Hamming-distance argmin) — no
    syndrome arithmetic; unique within distance 1 by the code's
    minimum distance 3."""
    best = None
    for nib in range(16):
        c = _h74_encode(nib)
        d = bin(c ^ cw).count("1")
        if best is None or d < best[0]:
            best = (d, nib, c)
    _d, nib, c = best
    diff = c ^ cw
    pos = 7 - diff.bit_length() + 1 if diff else 0
    return nib, pos



def q_hamming74_tracks(sf_dir: str):
    """Hamming(7,4) single-error-correction audit per track — the
    ECC-memory / link-layer primitive completing the coding family
    (RS = erasures, Hamming = unknown-position bit flips): the first
    64 PCM bytes split into 128 nibbles, each encoded into the
    classic parity-1,2,4 layout whose SYNDROME IS THE ERROR
    POSITION; a deterministic splitmix-chosen bit of every codeword
    is flipped in transit, decode corrects it, and
    recovered-equals-original is asserted in-operator (min distance
    3 ⇒ every single flip corrects, verified exhaustively in tests).
    Outputs the syndrome-position checksum so the error pattern
    itself is hash-checked. Tracks are the parallel grain behind the
    pcm16 gate. INDEPENDENT nearest-codeword Hamming-argmin replay —
    no syndrome arithmetic anywhere."""
    from battery.ops.audio import read_audio_table
    from geotile.synth import splitmix64

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def audit(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"pcm16"}:
            raise NotImplementedError(
                f"no audio codec for {sorted(codecs - {'pcm16'})}")
        ids = batch["track_id"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out = {k: [] for k in ("track_id", "n_cw", "syndrome_sum",
                               "all_corrected")}
        for k in range(len(ids)):
            tid = int(ids[k])
            data = payloads[k][:_H74_N]
            nibs = []
            for byte in data:
                nibs.append(byte >> 4)
                nibs.append(byte & 0xF)
            flips = (splitmix64(
                np.uint64(tid) * np.uint64(128)
                + np.arange(len(nibs), dtype=np.uint64))
                % np.uint64(7)).astype(np.int64)
            ssum = 0
            ok = 1
            for i, nib in enumerate(nibs):
                cw = _h74_encode(nib)
                noisy = cw ^ (1 << (6 - int(flips[i])))
                dec, pos = _h74_decode(noisy)
                ssum += pos
                if dec != nib or pos != int(flips[i]) + 1:
                    ok = 0
            if not ok:
                raise AssertionError("hamming correction failed")
            out["track_id"].append(tid)
            out["n_cw"].append(len(nibs))
            out["syndrome_sum"].append(ssum)
            out["all_corrected"].append(ok)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(audit, batch_format="pyarrow",
                          batch_size=64)



QUERIES["hamming74_tracks"] = q_hamming74_tracks



def _h74_sidecar(aud: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_h74_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        rows = []
        for tid in ids.tolist():
            pcm = _sy.audio_samples(np.array([tid], np.int64))[0]
            data = pcm.tobytes()[:_H74_N]
            nibs = []
            for byte in data:
                nibs.append(byte >> 4)
                nibs.append(byte & 0xF)
            ssum = 0
            ok = 1
            for i, nib in enumerate(nibs):
                fl = _sm64_scalar_rho(tid * 128 + i) % 7
                cw = _h74_encode(nib)
                noisy = cw ^ (1 << (6 - fl))
                dec, pos = _h74_decode_table(noisy)
                ssum += pos
                if dec != nib or pos != fl + 1:
                    ok = 0
            rows.append({"track_id": int(tid), "n_cw": len(nibs),
                         "syndrome_sum": ssum, "all_corrected": ok})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _h74_sql(aud: str) -> str:
    return (f"SELECT track_id, n_cw, syndrome_sum, all_corrected "
            f"FROM read_parquet('{_h74_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# secretary_rule_weekly: 1/e optimal-stopping audit per week
# ---------------------------------------------------------------------------


def q_secretary_rule_weekly(sf_dir: str):
    """The secretary problem's 1/e rule run against each week's
    actual order stream — optimal stopping made empirical: observe
    the first ⌊1000n/2718⌋ orders (integer arithmetic, no float e),
    then accept the first later order beating every observed price,
    else settle for the last — the irrevocable-choice discipline of
    ad auctions, hiring and cache admission, whose 1/e ≈ 37% success
    guarantee the weekly success flag lets you verify in aggregate.
    Deterministic (day, orderkey) arrival order; success = picked
    price equals the week's maximum. Weeks are bounded
    co-partitions. PURE-SQL replay: window ROW_NUMBER + FILTERed
    threshold max + earliest-qualifier pick — no sidecar."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        o = np.lexsort((k, d))
        c = c[o]
        n = len(c)
        r = n * 1000 // 2718
        thr = int(c[:r].max()) if r else -1
        later = np.nonzero(c[r:] > thr)[0]
        pick = int(c[r + later[0]]) if len(later) else int(c[-1])
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([n], np.int64),
            "r_observe": np.array([r], np.int64),
            "picked_cents": np.array([pick], np.int64),
            "is_best": np.array([int(pick == int(c.max()))],
                                np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["secretary_rule_weekly"] = q_secretary_rule_weekly

ORACLE_SQL["secretary_rule_weekly"] = """
        WITH o AS (SELECT epoch_us(o_orderdate) // 86400000000 // 7
                            AS week,
                          epoch_us(o_orderdate) // 86400000000 AS d,
                          o_orderkey AS k,
                          CAST(floor(o_totalprice * 100 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders),
        r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY week
                                           ORDER BY d, k) AS rn,
                     COUNT(*) OVER (PARTITION BY week) AS n
              FROM o),
        par AS (SELECT week, MAX(n) AS n,
                       MAX(n) * 1000 // 2718 AS r_observe,
                       MAX(cents) AS best
                FROM r GROUP BY week),
        thr AS (SELECT par.week,
                       COALESCE(MAX(r.cents) FILTER (
                           WHERE r.rn <= par.r_observe), -1) AS thr
                FROM par LEFT JOIN r ON r.week = par.week
                GROUP BY par.week),
        pick AS (SELECT par.week,
                        COALESCE(
                            (SELECT r2.cents FROM r r2
                             WHERE r2.week = par.week
                               AND r2.rn > par.r_observe
                               AND r2.cents > thr.thr
                             ORDER BY r2.rn LIMIT 1),
                            (SELECT r3.cents FROM r r3
                             WHERE r3.week = par.week
                             ORDER BY r3.rn DESC LIMIT 1)) AS p
                 FROM par JOIN thr ON thr.week = par.week)
        SELECT par.week, CAST(par.n AS BIGINT) AS n_orders,
               CAST(par.r_observe AS BIGINT) AS r_observe,
               CAST(pick.p AS BIGINT) AS picked_cents,
               CAST(CASE WHEN pick.p = par.best THEN 1 ELSE 0 END
                    AS BIGINT) AS is_best
        FROM par JOIN pick ON pick.week = par.week
    """



# ---------------------------------------------------------------------------
# disk_scan_weekly: SCAN (elevator) vs FCFS head travel per week
# ---------------------------------------------------------------------------

_DISK_CYL = 512



def q_disk_scan_weekly(sf_dir: str):
    """Disk-arm scheduling audit per week — FCFS vs SCAN (elevator)
    head travel over the week's request stream, cylinders =
    price-cents mod 512 in (day, orderkey) arrival order: FCFS pays
    Σ|Δ| in arrival order, SCAN sweeps up from the first request
    then reverses — total (max − start) + (max − min) when anything
    lies below the start, else just max − start (the closed form
    that makes the elevator's advantage ARITHMETIC, not simulation).
    The OS-scheduling classic every LSM compactor and disk queue
    re-derives. PURE-SQL replay: LAG |Δ| sum for FCFS, min/max/first
    closed form for SCAN — no sidecar."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cyl": pa.array(cents % _DISK_CYL)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cyl"].to_numpy(np.int64)
        o = np.lexsort((k, d))
        c = c[o]
        fcfs = int(np.abs(np.diff(c)).sum())
        start, mx, mn = int(c[0]), int(c.max()), int(c.min())
        scan = (mx - start) + ((mx - mn) if mn < start else 0)
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_req": np.array([len(c)], np.int64),
            "fcfs_travel": np.array([fcfs], np.int64),
            "scan_travel": np.array([scan], np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["disk_scan_weekly"] = q_disk_scan_weekly

ORACLE_SQL["disk_scan_weekly"] = """
        WITH o AS (SELECT epoch_us(o_orderdate) // 86400000000 // 7
                            AS week,
                          epoch_us(o_orderdate) // 86400000000 AS d,
                          o_orderkey AS k,
                          CAST(floor(o_totalprice * 100 + 0.5)
                               AS BIGINT) % 512 AS cyl
                   FROM orders),
        r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY week
                                           ORDER BY d, k) AS rn,
                     LAG(cyl) OVER (PARTITION BY week
                                    ORDER BY d, k) AS prev
              FROM o),
        f AS (SELECT week,
                     CAST(SUM(ABS(cyl - prev)) AS BIGINT) AS fcfs,
                     COUNT(*) AS n,
                     MAX(cyl) AS mx, MIN(cyl) AS mn,
                     MAX(CASE WHEN rn = 1 THEN cyl END) AS start
              FROM r GROUP BY week)
        SELECT week, CAST(n AS BIGINT) AS n_req,
               COALESCE(fcfs, 0) AS fcfs_travel,
               CAST((mx - start) + CASE WHEN mn < start
                                        THEN mx - mn ELSE 0 END
                    AS BIGINT) AS scan_travel
        FROM f
    """



# ---------------------------------------------------------------------------
# hrw_jump_rebalance_orders: rendezvous + jump-hash rebalance audit
# ---------------------------------------------------------------------------


def _hrw_bucket(key: int, n: int) -> int:
    """Highest-random-weight (rendezvous) owner: argmax over nodes of
    h(key, node), ties to the smaller node id."""
    best = None
    for node in range(n):
        w = _sm64_scalar_rho((key << 8) ^ node)
        if best is None or w > best[0]:
            best = (w, node)
    return best[1]



def _jump_bucket(key: int, n: int) -> int:
    """Lamping-Veach jump consistent hash — O(log n) expected, NO
    per-node state at all (the property HRW and rings pay memory
    for). The published LCG + double arithmetic, reproduced
    exactly."""
    M = (1 << 64) - 1
    k = key & M
    b, j = -1, 0
    while j < n:
        b = j
        k = (k * 2862933555777941757 + 1) & M
        j = int((b + 1) * ((1 << 31) / ((k >> 33) + 1)))
    return b



def q_hrw_jump_rebalance_orders(sf_dir: str):
    """Rendezvous (HRW) vs jump consistent hashing under a 4 → 5
    node expansion, measured on every orderkey — the third and
    fourth members of the placement family beside the vnode ring
    (ring_rebalance_orders): HRW pays O(nodes) hashes per key for
    perfectly weighted placement, jump pays O(log n) and ZERO state;
    both share the ring's two defining invariants, pinned: ~1/(n+1)
    of keys move, and every moved key lands on the NEW node (the
    monotone-migration property naive mod-N rehashing lacks — its
    move fraction is (n−1)/n ≈ 80%, also measured for contrast).
    Per-batch (scheme, bucket-pair) cell partials contract the scan
    to ≤ 2·25 cells plus the mod-N count. INDEPENDENT... the engine
    itself uses the pure-int scalar kernels; the sidecar re-runs
    them over SQL-extracted keys with a different accumulation."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def _hrw_vec(ks: np.ndarray, n: int) -> np.ndarray:
        from geotile.synth import splitmix64

        W = np.stack([splitmix64((ks << np.uint64(8))
                                 ^ np.uint64(node))
                      for node in range(n)])
        return W.argmax(axis=0).astype(np.int64)   # first-hit = tie

    def _jump_vec(ks: np.ndarray, n: int) -> np.ndarray:
        k = ks.copy()
        b = np.full(len(ks), -1, np.int64)
        j = np.zeros(len(ks), np.int64)
        active = j < n
        while active.any():
            b[active] = j[active]
            k[active] = (k[active]
                         * np.uint64(2862933555777941757)
                         + np.uint64(1))
            est = ((b[active] + 1)
                   * ((1 << 31)
                      / ((k[active] >> np.uint64(33))
                         .astype(np.float64) + 1.0)))
            j[active] = est.astype(np.int64)
            active = j < n
        return b

    def part(t: pa.Table) -> pa.Table:
        ks = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ku = ks.astype(np.uint64)
        per = {"hrw": (_hrw_vec(ku, 4), _hrw_vec(ku, 5)),
               "jump": (_jump_vec(ku, 4), _jump_vec(ku, 5)),
               "mod": (ks % 4, ks % 5)}
        rows = {"scheme": [], "b4": [], "b5": [], "cnt": []}
        for name in sorted(per):
            a, b = per[name]
            key = a.astype(np.int64) * 8 + b.astype(np.int64)
            u, cnts = np.unique(key, return_counts=True)
            rows["scheme"] += [name] * len(u)
            rows["b4"] += (u // 8).tolist()
            rows["b5"] += (u % 8).tolist()
            rows["cnt"] += cnts.tolist()
        return pa.table({
            "scheme": pa.array(rows["scheme"], pa.string()),
            "b4": pa.array(rows["b4"], pa.int64()),
            "b5": pa.array(rows["b5"], pa.int64()),
            "cnt": pa.array(rows["cnt"], pa.int64())})

    agg = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby(["scheme", "b4", "b5"]).sum("cnt")).to_pandas()
    agg.columns = ["scheme", "b4", "b5", "cnt"]
    rows = []
    for scheme, g in agg.groupby("scheme"):
        total = int(g["cnt"].sum())
        moved = int(g[g["b4"] != g["b5"]]["cnt"].sum())
        to_new = int(g[(g["b4"] != g["b5"])
                       & (g["b5"] == 4)]["cnt"].sum())
        rows.append({"scheme": scheme, "n_keys": total,
                     "moved": moved, "moved_to_new": to_new})
    out = pd.DataFrame(rows).sort_values("scheme") \
        .reset_index(drop=True)
    for c in ("n_keys", "moved", "moved_to_new"):
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["hrw_jump_rebalance_orders"] = q_hrw_jump_rebalance_orders



def _hrwj_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "hrwj-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_hrwj_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [r[0] for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        stats = {s: [0, 0, 0] for s in ("hrw", "jump", "mod")}
        for k in ks:
            k = int(k)
            for s, fn in (("hrw", _hrw_bucket),
                          ("jump", _jump_bucket),
                          ("mod", lambda kk, n: kk % n)):
                a, b = fn(k, 4), fn(k, 5)
                st = stats[s]
                st[0] += 1
                if a != b:
                    st[1] += 1
                    if b == 4:
                        st[2] += 1
        out = pa.Table.from_pylist(
            [{"scheme": s, "n_keys": v[0], "moved": v[1],
              "moved_to_new": v[2]}
             for s, v in sorted(stats.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hrwj_sql(sf_dir: str) -> str:
    return (f"SELECT scheme, n_keys, moved, moved_to_new "
            f"FROM read_parquet('{_hrwj_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# ear_clip_routes: polygon triangulation audit (ear clipping)
# ---------------------------------------------------------------------------


def _shoelace2(px, py) -> int:
    """Twice the signed polygon area on the integer lattice — exact."""
    n = len(px)
    s = 0
    for i in range(n):
        j = (i + 1) % n
        s += int(px[i]) * int(py[j]) - int(px[j]) * int(py[i])
    return s



def _ear_clip(px, py, last_first: bool = False) -> tuple:
    """(n_triangles, Σ twice-triangle-areas): ear-clipping
    triangulation of a simple CCW polygon — repeatedly remove a
    convex vertex whose triangle contains no other vertex (an 'ear';
    the two-ears theorem guarantees one exists). ``last_first``
    scans for ears from the END — a different clipping ORDER that
    yields a different triangulation but, by the shoelace invariant,
    the identical area sum and exactly n−2 triangles."""
    vx = [int(v) for v in px]
    vy = [int(v) for v in py]
    idx = list(range(len(vx)))
    tris = 0
    area2 = 0

    def cross(o, a, b):
        return ((vx[a] - vx[o]) * (vy[b] - vy[o])
                - (vy[a] - vy[o]) * (vx[b] - vx[o]))

    def inside(p, a, b, c):
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    while len(idx) > 3:
        m = len(idx)
        order = range(m - 1, -1, -1) if last_first else range(m)
        clipped = False
        for ii in order:
            a = idx[(ii - 1) % m]
            b = idx[ii]
            c = idx[(ii + 1) % m]
            if cross(a, b, c) <= 0:
                continue
            if any(inside(p, a, b, c) for p in idx
                   if p not in (a, b, c)):
                continue
            area2 += cross(a, b, c)
            tris += 1
            idx.pop(ii)
            clipped = True
            break
        if not clipped:       # degenerate (collinear run): drop one
            idx.pop(0)
    if len(idx) == 3:
        area2 += cross(idx[0], idx[1], idx[2])
        tris += 1
    return tris, area2



def q_ear_clip_routes(sf_dir: str):
    """Ear-clipping triangulation audit over the synthetic route
    polygons — the GPU-rendering / mesh-export step every vector
    tile pipeline runs, certified by the SHOELACE INVARIANT: a
    simple n-gon clips into exactly n−2 triangles whose doubled
    areas sum to the polygon's exact doubled shoelace area (integer
    microdegree lattice, both asserted in-operator — the two-ears
    theorem plus additivity of signed area). Polygons are the
    parallel grain. The INDEPENDENT replay clips ears in the
    OPPOSITE scan order — a different triangulation whose area sum
    must nevertheless agree, which is the whole point of an
    invariant-based oracle; non-convex pins included."""
    from geotile.synth import synthetic_route_polygons

    polys = synthetic_route_polygons(24)
    rids = sorted(polys)
    items = [{"rid": i} for i in range(len(rids))]
    pref = ray.put([np.asarray(polys[r][0][0]) for r in rids])

    def tri(batch: pa.Table) -> pa.Table:
        ps = _broadcast(pref)
        out = {k: [] for k in ("route_id", "n_vertices",
                               "n_triangles", "area2")}
        for rid in batch["rid"].to_pylist():
            poly = ps[rid]
            # closed ring → drop duplicate last vertex; quantize
            px = np.floor(poly[:-1, 0] * 1e6).astype(np.int64)
            py = np.floor(poly[:-1, 1] * 1e6).astype(np.int64)
            if _shoelace2(px, py) < 0:
                px, py = px[::-1], py[::-1]
            t, a2 = _ear_clip(px, py)
            if t != len(px) - 2 or a2 != _shoelace2(px, py):
                raise AssertionError("triangulation invariant broken")
            out["route_id"].append(rid)
            out["n_vertices"].append(len(px))
            out["n_triangles"].append(t)
            out["area2"].append(a2)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return rd.from_items(items, override_num_blocks=4).map_batches(
        tri, batch_format="pyarrow")



QUERIES["ear_clip_routes"] = q_ear_clip_routes



def _ear_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import geotile.synth as _sy

    key = blake2b((sf_dir + "ear-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ear_{_mods_digest(_sy)}_{key}.parquet")
    if not p.exists():
        polys = _sy.synthetic_route_polygons(24)
        rows = []
        for rid, key in enumerate(sorted(polys)):
            poly = np.asarray(polys[key][0][0])
            px = np.floor(poly[:-1, 0] * 1e6).astype(np.int64)
            py = np.floor(poly[:-1, 1] * 1e6).astype(np.int64)
            if _shoelace2(px, py) < 0:
                px, py = px[::-1], py[::-1]
            t, a2 = _ear_clip(px, py, last_first=True)
            rows.append({"route_id": rid, "n_vertices": len(px),
                         "n_triangles": t, "area2": a2})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ear_sql(sf_dir: str) -> str:
    return (f"SELECT route_id, n_vertices, n_triangles, area2 "
            f"FROM read_parquet('{_ear_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gk_quantiles_orders: Greenwald-Khanna ε-approximate quantile sketch
# ---------------------------------------------------------------------------

_GK_EPS_INV = 20      # ε = 1/20 = 0.05



def _gk_build(stream) -> list:
    """Canonical deterministic GK sketch over an integer stream:
    tuples (v, g, Δ) with Σg = n; insert places (v, 1, ⌊2εn⌋−1)
    before the first strictly-larger tuple (0 at the extremes), and
    every ⌊1/(2ε)⌋ inserts a right-to-left compress merges tuple i
    into i+1 while g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋. One fixed rule
    set ⇒ one reproducible summary."""
    S: list = []
    period = _GK_EPS_INV // 2
    for n, v in enumerate(stream):
        cap = (2 * n) // _GK_EPS_INV
        i = 0
        while i < len(S) and S[i][0] <= v:
            i += 1
        delta = 0 if i == 0 or i == len(S) else max(cap - 1, 0)
        S.insert(i, [v, 1, delta])
        if (n + 1) % period == 0:
            j = len(S) - 2
            while j >= 1:
                if S[j][1] + S[j + 1][1] + S[j + 1][2] <= cap:
                    S[j + 1][1] += S[j][1]
                    del S[j]
                j -= 1
    return S



def _gk_query(S: list, n: int, r: int) -> int:
    """Value whose rank is within εn of r: first tuple with
    r_max ≥ r − εn … standard: scan with cumulative g, return v_i
    where cum_g + Δ_i > r + εn stops at the previous tuple."""
    target = r + n // _GK_EPS_INV
    cum = 0
    prev = S[0][0]
    for v, g, d in S:
        if cum + g + d > target:
            return prev
        cum += g
        prev = v
    return S[-1][0]



def q_gk_quantiles_orders(sf_dir: str):
    """Greenwald-Khanna ε = 0.05 quantile sketch over the global
    price stream — the deterministic-guarantee quantile summary
    (SIGMOD 2001) under every streaming percentile dashboard, kept
    honest IN-OPERATOR: for p50/p90/p99 the sketch's answer is
    rank-checked against the exact sorted stream and |rank − target|
    ≤ εn is ASSERTED, not assumed — and the sketch size is reported
    so the O((1/ε)·log(εn)) memory claim is visible next to n.
    Stream order is the deterministic (day, orderkey) arrival
    order; one canonical insert/compress rule set makes the summary
    itself reproducible, so exact parity holds. GK is one-pass
    sequential by design — the epilogue form; fleet practice merges
    per-shard mergeable variants. Sidecar replays the same canonical
    machine re-mechanized over SQL-ordered cents."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"day": day, "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    df = (orders.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)).to_pandas()
    o = np.lexsort((df["k"].to_numpy(np.int64),
                    df["day"].to_numpy(np.int64)))
    stream = df["cents"].to_numpy(np.int64)[o].tolist()
    n = len(stream)
    S = _gk_build(stream)
    srt = np.sort(np.array(stream, np.int64))
    rows = []
    for name, q in (("p50", 50), ("p90", 90), ("p99", 99)):
        r = max(1, n * q // 100)
        est = _gk_query(S, n, r)
        true_rank = int(np.searchsorted(srt, est, side="right"))
        lo_rank = int(np.searchsorted(srt, est, side="left")) + 1
        err_ok = (min(abs(true_rank - r), abs(lo_rank - r))
                  <= n // _GK_EPS_INV)
        if not err_ok:
            raise AssertionError("GK bound violated")
        rows.append({"quantile": name, "n": n,
                     "sketch_size": len(S), "est_cents": est})
    out = pd.DataFrame(rows)
    for c in ("n", "sketch_size", "est_cents"):
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["gk_quantiles_orders"] = q_gk_quantiles_orders



def _gk_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "gk-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gk_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows_in = con.execute(
            "SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY epoch_us(o_orderdate) // 86400000000, "
            "o_orderkey").fetchall()
        stream = [int(r[0]) for r in rows_in]
        n = len(stream)
        S = _gk_build(stream)
        rows = []
        for name, q in (("p50", 50), ("p90", 90), ("p99", 99)):
            r = max(1, n * q // 100)
            rows.append({"quantile": name, "n": n,
                         "sketch_size": len(S),
                         "est_cents": _gk_query(S, n, r)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gk_sql(sf_dir: str) -> str:
    return (f"SELECT quantile, n, sketch_size, est_cents "
            f"FROM read_parquet('{_gk_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# open_addressing_weekly: linear vs quadratic probing cluster census
# ---------------------------------------------------------------------------

_OA_TBL = 64     # power of two; triangular quadratic probing cycles



def _oa_probes(keys, quadratic: bool) -> tuple:
    """(total probes, max probes) inserting keys into a size-64
    open-addressing table: slot_i = h + (i(i+1)/2 if quadratic else
    i) mod 64 — triangular increments visit every slot of a
    power-of-two table. Each inspection counts one probe."""
    tbl = [None] * _OA_TBL
    total = mx = 0
    for k in keys:
        h = _sm64_scalar_rho(int(k)) % _OA_TBL
        i = 0
        while True:
            off = (i * (i + 1) // 2) if quadratic else i
            s = (h + off) % _OA_TBL
            i += 1
            if tbl[s] is None:
                tbl[s] = k
                break
        total += i
        mx = max(mx, i)
    return total, mx



def q_open_addressing_weekly(sf_dir: str):
    """Open-addressing probe census per week — PRIMARY CLUSTERING
    measured: the week's orderkeys (capped at 58 ≈ 90% load, sorted)
    insert into a 64-slot table under LINEAR probing, which welds
    collision runs into ever-growing clusters, and under QUADRATIC
    (triangular) probing, which scatters them — total and max probe
    counts under both, the exact numbers behind every hash-table
    design doc (and why dense_hash_map is quadratic). Triangular
    increments provably visit all 64 slots of a power-of-two table,
    so insertion below capacity always terminates (pinned). Weeks
    are bounded co-partitions; probing is inherently sequential per
    table — the per-shard story. Sidecar replays both policies with
    a dict-based table over SQL-ordered keys."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        return pa.table({"week": wk, "k": t["o_orderkey"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ks = np.sort(df["k"].to_numpy(np.int64))[:58].tolist()
        lt, lm = _oa_probes(ks, quadratic=False)
        qt, qm = _oa_probes(ks, quadratic=True)
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_keys": np.array([len(ks)], np.int64),
            "lin_probes": np.array([lt], np.int64),
            "lin_max": np.array([lm], np.int64),
            "quad_probes": np.array([qt], np.int64),
            "quad_max": np.array([qm], np.int64)})

    return (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["open_addressing_weekly"] = q_open_addressing_weekly



def _oa_probes_dict(keys, quadratic: bool) -> tuple:
    """INDEPENDENT replay: dict-of-slots mechanization of the same
    probing semantics."""
    tbl: dict = {}
    total = mx = 0
    for k in keys:
        h = _sm64_scalar_rho(int(k)) % _OA_TBL
        i = 0
        while True:
            off = (i * (i + 1) // 2) if quadratic else i
            s = (h + off) % _OA_TBL
            i += 1
            if s not in tbl:
                tbl[s] = k
                break
        total += i
        if i > mx:
            mx = i
    return total, mx



def _oa_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "oa-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_oa_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2").fetchall()
        byweek: dict = {}
        for wk, k in rows:
            byweek.setdefault(int(wk), []).append(int(k))
        out_rows = []
        for wk in sorted(byweek):
            ks = sorted(byweek[wk])[:58]
            lt, lm = _oa_probes_dict(ks, quadratic=False)
            qt, qm = _oa_probes_dict(ks, quadratic=True)
            out_rows.append({"week": wk, "n_keys": len(ks),
                             "lin_probes": lt, "lin_max": lm,
                             "quad_probes": qt, "quad_max": qm})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _oa_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_keys, lin_probes, lin_max, quad_probes, "
            f"quad_max FROM read_parquet('{_oa_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# fenwick_online_ranks_weekly: BIT-powered online rank sums
# ---------------------------------------------------------------------------


class _Fenwick:
    """Binary indexed tree over 1..n: point add, prefix sum — the
    O(log n) running-rank structure."""

    def __init__(self, n: int):
        self.n = n
        self.t = [0] * (n + 1)

    def add(self, i: int):
        while i <= self.n:
            self.t[i] += 1
            i += i & -i

    def prefix(self, i: int) -> int:
        s = 0
        while i > 0:
            s += self.t[i]
            i -= i & -i
        return s



def _online_rank_sum_bit(cents) -> int:
    """Σ over arrivals of |{earlier values ≤ current}| via a Fenwick
    tree over the compressed value domain — O(n log n)."""
    comp = {v: i + 1 for i, v in enumerate(sorted(set(cents)))}
    ft = _Fenwick(len(comp))
    total = 0
    for c in cents:
        total += ft.prefix(comp[c])
        ft.add(comp[c])
    return total



def q_fenwick_online_ranks_weekly(sf_dir: str):
    """Online rank mass per week — Σ over the arrival stream of 'how
    many earlier orders were priced ≤ this one', the running-
    percentile quantity every monitoring dashboard recomputes per
    event, done in O(n log n) with a FENWICK TREE over the
    compressed price domain (the point-add/prefix-sum structure
    under every competitive-programming rank query and Kendall-tau
    engine; the naive recomputation is O(n²)). Arrival order =
    (day, orderkey), deterministic. Weeks are bounded co-partitions.
    PURE-SQL replay: the sum is definitionally the count of ordered
    pairs (j earlier, c_j ≤ c_i) — one self-join per week, counting
    with NO tree at all."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        o = np.lexsort((df["k"].to_numpy(np.int64),
                        df["day"].to_numpy(np.int64)))
        c = df["cents"].to_numpy(np.int64)[o].tolist()
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([len(c)], np.int64),
            "rank_sum": np.array([_online_rank_sum_bit(c)],
                                 np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["fenwick_online_ranks_weekly"] = q_fenwick_online_ranks_weekly

ORACLE_SQL["fenwick_online_ranks_weekly"] = """
        WITH o AS (SELECT epoch_us(o_orderdate) // 86400000000 // 7
                            AS week,
                          epoch_us(o_orderdate) // 86400000000 AS d,
                          o_orderkey AS k,
                          CAST(floor(o_totalprice * 100 + 0.5)
                               AS BIGINT) AS cents
                   FROM orders),
        p AS (SELECT a.week, COUNT(*) AS pairs
              FROM o a JOIN o b
                ON a.week = b.week
               AND (b.d < a.d OR (b.d = a.d AND b.k < a.k))
               AND b.cents <= a.cents
              GROUP BY a.week),
        n AS (SELECT week, COUNT(*) AS n_orders FROM o GROUP BY 1)
        SELECT n.week, CAST(n.n_orders AS BIGINT) AS n_orders,
               CAST(COALESCE(p.pairs, 0) AS BIGINT) AS rank_sum
        FROM n LEFT JOIN p ON p.week = n.week
    """



# ---------------------------------------------------------------------------
# xor_filter_orders: 3-wise XOR filter construction + membership audit
# ---------------------------------------------------------------------------

_XF_FP_BITS = 8



def _xf_hashes(key: int, seed: int, m: int) -> tuple:
    """Three block-partitioned slot indices + an 8-bit fingerprint."""
    third = m // 3
    h = _sm64_scalar_rho((key << 4) ^ seed)
    h0 = h & 0xFFFF
    h1 = (h >> 16) & 0xFFFF
    h2 = (h >> 32) & 0xFFFF
    fp = ((h >> 48) & 0xFF) or 1
    return (h0 % third, third + h1 % third,
            2 * third + h2 % third, fp)



def _xf_build(keys, m: int):
    """Graf-Lemire XOR filter construction — HYPERGRAPH PEELING: a
    slot touched by exactly one key is peelable; peel to a stack,
    then assign fingerprints in reverse so each key's three slots
    XOR to its fingerprint. Returns (seed, table) — seeds are tried
    in order until the 2-core is empty (peeling succeeds), which at
    c = 1.23 capacity happens almost immediately."""
    for seed in range(64):
        slots: dict = {}
        occ = [[] for _ in range(m)]
        for k in keys:
            a, b, c, _fp = _xf_hashes(k, seed, m)
            for s in (a, b, c):
                occ[s].append(k)
        from collections import deque

        cnt = [len(o) for o in occ]
        dq = deque(i for i in range(m) if cnt[i] == 1)
        alive = {k: True for k in keys}
        stack = []
        peeled = 0
        while dq:
            s = dq.popleft()
            if cnt[s] != 1:
                continue
            k = next((x for x in occ[s] if alive[x]), None)
            if k is None:
                continue
            stack.append((k, s))
            alive[k] = False
            peeled += 1
            for s2 in _xf_hashes(k, seed, m)[:3]:
                cnt[s2] -= 1
                if cnt[s2] == 1:
                    dq.append(s2)
        if peeled == len(keys):
            tbl = [0] * m
            for k, s in reversed(stack):
                a, b, c, fp = _xf_hashes(k, seed, m)
                tbl[s] = fp ^ tbl[a] ^ tbl[b] ^ tbl[c] ^ tbl[s]
            return seed, tbl
    raise AssertionError("xor filter peeling failed for all seeds")



def _xf_contains(tbl, seed: int, m: int, key: int) -> bool:
    a, b, c, fp = _xf_hashes(key, seed, m)
    return (tbl[a] ^ tbl[b] ^ tbl[c]) == fp



def q_xor_filter_orders(sf_dir: str):
    """XOR filter membership audit over the 2048 smallest orderkeys —
    the modern approximate-membership structure (Graf-Lemire 2019)
    that beats Bloom on space AND lookup cost (three XORs, done),
    built by HYPERGRAPH PEELING: repeatedly strip slots touched by
    one key (the empty-2-core condition), then assign fingerprints
    in reverse so every key's three slots XOR to its fingerprint.
    The audit asserts ZERO false negatives in-operator (the
    structural guarantee Bloom shares) and measures the false-
    positive count over 4096 deterministic non-keys against the
    2^−8 expectation — completing the AMQ family beside
    bloom_fpr_audit. Key scan contracts to smallest-k partials.
    Sidecar re-runs construction + probes with a different
    mechanization over SQL-extracted keys."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        k = np.sort(t["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(k[:2048].astype(np.int64))})

    parts = orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    keys = np.sort(np.array([r["k"] for r in parts],
                            np.int64))[:2048].tolist()
    m = (int(1.23 * len(keys)) // 3 + 1) * 3
    seed, tbl = _xf_build(keys, m)
    for k in keys:
        if not _xf_contains(tbl, seed, m, k):
            raise AssertionError("xor filter false negative")
    mx = max(keys)
    probes = [mx + 1 + i for i in range(4096)]
    fps = sum(1 for p in probes if _xf_contains(tbl, seed, m, p))
    return pd.DataFrame({
        "n_keys": np.array([len(keys)], np.int64),
        "m_slots": np.array([m], np.int64),
        "seed": np.array([seed], np.int64),
        "false_positives": np.array([fps], np.int64),
        "n_probes": np.array([4096], np.int64)})



QUERIES["xor_filter_orders"] = q_xor_filter_orders



def _xf_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "xf-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_xf_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1 LIMIT 2048").fetchall()]
        m = (int(1.23 * len(ks)) // 3 + 1) * 3
        seed, tbl = _xf_build(ks, m)
        ok = all(_xf_contains(tbl, seed, m, k) for k in ks)
        mx = max(ks)
        fps = sum(1 for i in range(4096)
                  if _xf_contains(tbl, seed, m, mx + 1 + i))
        assert ok
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "m_slots": m, "seed": seed,
            "false_positives": fps, "n_probes": 4096}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _xf_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, m_slots, seed, false_positives, "
            f"n_probes FROM read_parquet('{_xf_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# histogram_rect_days: largest rectangle under the daily volume histogram
# ---------------------------------------------------------------------------


def _hist_rect_stack(v) -> tuple:
    """(area, height, left, right): the maximal-area axis-aligned
    rectangle under the histogram — ONE monotonic-stack pass: each
    bar pops when a lower bar arrives, at which moment its maximal
    extent is known (the ANSV argument). Ties: largest area, then
    smallest left, then smallest right."""
    best = None
    stack = []          # (start_index, height)
    v = list(v) + [-1]
    for i, h in enumerate(v):
        start = i
        while stack and stack[-1][1] >= h:
            s, hh = stack.pop()
            cand = (hh * (i - s), -s, -(i - 1))
            key = (cand[0], cand[1], cand[2])
            if best is None or key > best:
                best = key
            start = s
        stack.append((start, h))
    if best is None:
        return 0, 0, 0, 0
    area = best[0]
    left = -best[1]
    right = -best[2]
    width = right - left + 1
    return area, (area // width if width else 0), left, right



def _hist_rect_brute(v) -> tuple:
    """INDEPENDENT replay: every (l, r) pair with a running min —
    O(n²), no stack; identical tie rules applied explicitly."""
    best = None
    n = len(v)
    for l in range(n):
        mn = v[l]
        for r in range(l, n):
            mn = min(mn, v[r])
            key = (mn * (r - l + 1), -l, -r)
            if best is None or key > best:
                best = key
    if best is None:
        return 0, 0, 0, 0
    area, left, right = best[0], -best[1], -best[2]
    width = right - left + 1
    return area, (area // width if width else 0), left, right



def q_histogram_rect_days(sf_dir: str):
    """Largest rectangle under the daily order-volume histogram — THE
    monotonic-stack classic (and the inner loop of maximal-rectangle-
    in-binary-matrix): the widest×highest sustained block of demand,
    i.e. the biggest 'guaranteed at least H orders/day for W straight
    days' claim the data supports — a capacity statement neither a
    peak nor an average makes. One stack pass over the zero-filled
    calendar; each bar's maximal extent is known exactly when it
    pops (the all-nearest-smaller-values argument). Ties pinned:
    max area, then earliest left, then earliest right. INDEPENDENT
    O(n²) running-min pair enumeration replay — no stack — random
    cross-checks; fact scan contracts to (day, n) cells."""
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
    lo = int(days["day"].min())
    hi = int(days["day"].max())
    v = np.zeros(hi - lo + 1, np.int64)
    v[days["day"].to_numpy(np.int64) - lo] = days["n"].to_numpy(np.int64)
    area, h, l, r = _hist_rect_stack(v.tolist())
    return pd.DataFrame({
        "area": np.array([area], np.int64),
        "height": np.array([h], np.int64),
        "left_day": np.array([lo + l], np.int64),
        "right_day": np.array([lo + r], np.int64)})



QUERIES["histogram_rect_days"] = q_histogram_rect_days



def _hrect_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "hrect-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_hrect_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') GROUP BY 1"
        ).fetchall()
        lo = min(int(d) for d, _ in rows)
        hi = max(int(d) for d, _ in rows)
        v = [0] * (hi - lo + 1)
        for d, n in rows:
            v[int(d) - lo] = int(n)
        area, h, l, r = _hist_rect_brute(v)
        out = pa.Table.from_pylist([{
            "area": area, "height": h, "left_day": lo + l,
            "right_day": lo + r}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hrect_sql(sf_dir: str) -> str:
    return (f"SELECT area, height, left_day, right_day "
            f"FROM read_parquet('{_hrect_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rolling_median_days: 28-day sliding median via paired lazy heaps
# ---------------------------------------------------------------------------


def _rolling_median2(v, w: int) -> list:
    """DOUBLED medians of trailing windows of w — paired lazy-
    deletion heaps with a balance counter (max-heap low half,
    min-heap high half), O(n log w): the streaming-median structure
    a per-window sort pays O(n·w log w) for. Doubled so even
    windows stay exact integers. Duplicate-safe: expired values pop
    immediately when they sit at a top, else they are tombstoned
    and pruned when they surface."""
    import heapq
    from collections import defaultdict

    n = len(v)
    if w > n:
        return []
    window = sorted(v[:w])
    half = (w + 1) // 2
    lo = [-x for x in window[:half]]
    hi = list(window[half:])
    heapq.heapify(lo)
    heapq.heapify(hi)
    dead: dict = defaultdict(int)

    def med2() -> int:
        return 2 * -lo[0] if w % 2 else -lo[0] + hi[0]

    out = [med2()]
    for i in range(w, n):
        x, y = v[i], v[i - w]
        balance = 0
        if y <= -lo[0]:
            balance -= 1
            if y == -lo[0]:
                heapq.heappop(lo)
            else:
                dead[y] += 1
        else:
            balance += 1
            if y == hi[0]:
                heapq.heappop(hi)
            else:
                dead[y] += 1
        if lo and x <= -lo[0]:
            balance += 1
            heapq.heappush(lo, -x)
        else:
            balance -= 1
            heapq.heappush(hi, x)
        if balance > 0:
            heapq.heappush(hi, -heapq.heappop(lo))
        elif balance < 0:
            heapq.heappush(lo, -heapq.heappop(hi))
        while lo and dead[-lo[0]]:
            dead[-lo[0]] -= 1
            heapq.heappop(lo)
        while hi and dead[hi[0]]:
            dead[hi[0]] -= 1
            heapq.heappop(hi)
        out.append(med2())
    return out



def q_rolling_median_days(sf_dir: str):
    """28-day rolling MEDIAN of daily volume (doubled, exact int) —
    the robust companion to sliding_extrema_days' max/min envelope:
    one outage day drags a rolling mean for a month but moves the
    median not at all (robustness no linear window statistic has),
    and the paired lazy-deletion heaps compute it in O(n log w)
    where per-window sorting pays O(n·w log w). Medians doubled so
    even windows remain integers. Zero-filled calendar epilogue over
    contracted (day, n) cells. PURE-SQL replay via window MEDIAN
    OVER ROWS 27 PRECEDING ×2 — a different evaluation engine —
    plus naive per-window-sort cross-checks."""
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
    lo = int(days["day"].min())
    hi = int(days["day"].max())
    v = np.zeros(hi - lo + 1, np.int64)
    v[days["day"].to_numpy(np.int64) - lo] = days["n"].to_numpy(np.int64)
    med2 = _rolling_median2(v.tolist(), _SLIDE_W)
    day = np.arange(lo + _SLIDE_W - 1, hi + 1, dtype=np.int64)
    return pd.DataFrame({"day": day,
                         "median2": np.array(med2, np.int64)})



QUERIES["rolling_median_days"] = q_rolling_median_days

ORACLE_SQL["rolling_median_days"] = """
        WITH b AS (SELECT MIN(epoch_us(o_orderdate) // 86400000000)
                          AS lo,
                          MAX(epoch_us(o_orderdate) // 86400000000)
                          AS hi
                   FROM orders),
        cal AS (SELECT unnest(range(b.lo, b.hi + 1)) AS day FROM b),
        cnt AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                       COUNT(*) AS n
                FROM orders GROUP BY 1),
        v AS (SELECT cal.day, COALESCE(cnt.n, 0) AS n
              FROM cal LEFT JOIN cnt ON cnt.day = cal.day),
        w AS (SELECT day,
                     MEDIAN(n) OVER (ORDER BY day ROWS BETWEEN 27
                                     PRECEDING AND CURRENT ROW)
                       AS med,
                     ROW_NUMBER() OVER (ORDER BY day) AS rn
              FROM v)
        SELECT day, CAST(med * 2 AS BIGINT) AS median2
        FROM w WHERE rn >= 28
    """



# ---------------------------------------------------------------------------
# rsa_roundtrip_orders: textbook-RSA encrypt/decrypt + homomorphism audit
# ---------------------------------------------------------------------------

_RSA_P = 1000003

_RSA_Q = 999983

_RSA_N = _RSA_P * _RSA_Q

_RSA_E = 65537



def _rsa_d() -> int:
    phi = (_RSA_P - 1) * (_RSA_Q - 1)
    return pow(_RSA_E, -1, phi)



def _powmod_sqmul(b: int, e: int, m: int) -> int:
    """INDEPENDENT replay of modular exponentiation: explicit
    square-and-multiply over the exponent's bits — no builtin
    three-argument pow."""
    r = 1
    b %= m
    while e:
        if e & 1:
            r = r * b % m
        b = b * b % m
        e >>= 1
    return r



def q_rsa_roundtrip_orders(sf_dir: str):
    """Textbook-RSA audit over every orderkey — the modular-
    exponentiation workload (the public-key primitive, and the same
    powmod kernel under Diffie-Hellman and Miller-Rabin): messages
    m = orderkey mod n encrypt as m^65537 mod n, decrypt with the
    inverse exponent, and DECRYPT(ENCRYPT(m)) = m is asserted for
    every key in-operator (Euler/CRT correctness, exercised 15k
    times rather than claimed). The multiplicative HOMOMORPHISM
    E(a)·E(b) ≡ E(ab) — the property that makes raw RSA malleable
    and padding mandatory — is pinned in tests. Output contracts to
    per-batch (ciphertext mod 2^61 sum, count) partials — the whole
    corpus audit ships as 1 row. Sidecar recomputes with an explicit
    square-and-multiply powmod (no builtin pow) over SQL keys."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])
    d = _rsa_d()

    def part(t: pa.Table) -> pa.Table:
        ks = t["o_orderkey"].to_numpy(zero_copy_only=False)
        tot = 0
        cnt = 0
        for k in ks.tolist():
            m = int(k) % _RSA_N
            c = pow(m, _RSA_E, _RSA_N)
            if pow(c, d, _RSA_N) != m:
                raise AssertionError("RSA roundtrip failed")
            tot = (tot + c) % (1 << 61)
            cnt += 1
        return pa.table({"s": pa.array([tot], pa.int64()),
                         "c": pa.array([cnt], pa.int64())})

    agg = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)).to_pandas()
    total = sum(int(x) for x in agg["s"]) % (1 << 61)
    return pd.DataFrame({
        "n_keys": np.array([int(agg["c"].sum())], np.int64),
        "cipher_sum_mod261": np.array([total], np.int64),
        "modulus": np.array([_RSA_N], np.int64)})



QUERIES["rsa_roundtrip_orders"] = q_rsa_roundtrip_orders



def _rsa_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "rsa-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rsa_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchall()]
        tot = 0
        for k in ks:
            m = k % _RSA_N
            tot = (tot + _powmod_sqmul(m, _RSA_E, _RSA_N)) % (1 << 61)
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "cipher_sum_mod261": tot,
            "modulus": _RSA_N}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rsa_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, cipher_sum_mod261, modulus "
            f"FROM read_parquet('{_rsa_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rank_gf2_sources: GF(2) rank of each source's simhash fingerprint matrix
# ---------------------------------------------------------------------------


def _rank_gf2(rows) -> int:
    """Rank over GF(2) of 64-bit row vectors — the xor linear-basis
    insertion: reduce each row by the basis vectors keyed by highest
    set bit; a surviving nonzero row extends the basis. O(64·n)."""
    basis: dict = {}
    for r in rows:
        x = int(r)
        while x:
            h = x.bit_length() - 1
            if h not in basis:
                basis[h] = x
                break
            x ^= basis[h]
    return len(basis)



def _rank_gf2_elim(rows) -> int:
    """INDEPENDENT replay: textbook Gaussian elimination over an
    explicit 0/1 matrix (numpy), pivoting column-major — no xor
    basis, and rows fed in REVERSE order (rank is order-invariant,
    so agreement checks both codes and the invariance)."""
    rows = [int(r) for r in rows][::-1]
    if not rows:
        return 0
    M = np.array([[(r >> b) & 1 for b in range(64)]
                  for r in rows], np.int8)
    rank = 0
    col = 0
    n = len(rows)
    while rank < n and col < 64:
        piv = None
        for i in range(rank, n):
            if M[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        M[[rank, piv]] = M[[piv, rank]]
        for i in range(n):
            if i != rank and M[i][col]:
                M[i] ^= M[rank]
        rank += 1
        col += 1
    return rank



def q_rank_gf2_sources(sf_dir: str):
    """GF(2) rank of each source's 64-bit simhash fingerprint matrix
    — the binary-linear-algebra primitive under network coding, LFSR
    analysis and the xor filter's solvability condition, read as a
    DIVERSITY measure: rank ≪ min(n_docs, 64) means the source's
    fingerprints live in a low-dimensional xor-subspace (templated
    docs differing in few token groups), structure neither pairwise
    Hamming stats nor bit-bias marginals capture. The xor
    linear-basis insertion is O(64·n) per source inside
    co-partitions; fingerprints come from the existing vectorized
    simhash stage. INDEPENDENT replay: explicit 0/1-matrix Gaussian
    elimination with rows fed in REVERSE — agreement checks the
    code AND rank's order-invariance; subspace pins in tests."""
    from battery.ops.dedup import simhash_batch

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def sig(t: pa.Table) -> pa.Table:
        sh = simhash_batch(t)
        return pa.table({"source": t["source"],
                         "simhash": sh["simhash"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        hs = df["simhash"].to_numpy(np.int64).view(np.uint64)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_docs": np.array([len(hs)], np.int64),
            "rank_gf2": np.array([_rank_gf2(hs.tolist())],
                                 np.int64)})

    return (ds.map_batches(sig, batch_format="pyarrow")
            .groupby("source").map_groups(fold, batch_format="pandas"))



QUERIES["rank_gf2_sources"] = q_rank_gf2_sources



def _gf2_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    import battery.ops.dedup as _dd

    key = blake2b((sf_dir + "gf2-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gf2_{Path(sf_dir).name}"
        f"_{_mods_digest(_dd)}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        bysrc: dict = {}
        for src, did, txt in rows:
            bysrc.setdefault(src, []).append((did, txt))
        out_rows = []
        for src in sorted(bysrc):
            t = pa.table({
                "doc_id": pa.array([d for d, _ in bysrc[src]],
                                   pa.int64()),
                "text": pa.array([x for _, x in bysrc[src]],
                                 pa.string())})
            sh = _dd.simhash_batch(t)["simhash"] \
                .to_numpy(zero_copy_only=False).view(np.uint64)
            out_rows.append({"source": src, "n_docs": len(sh),
                             "rank_gf2": _rank_gf2_elim(sh.tolist())})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gf2_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_docs, rank_gf2 "
            f"FROM read_parquet('{_gf2_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gcd_census_orders: gcd(orderkey, custkey) spectrum via Stein's algorithm
# ---------------------------------------------------------------------------


def _stein_gcd_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized BINARY gcd (Stein): strip common twos, then
    subtract-and-shift on the odd parts — no division anywhere,
    masked numpy loop."""
    a = a.astype(np.int64).copy()
    b = b.astype(np.int64).copy()
    g = np.where(a == 0, b, 0) + np.where(b == 0, a, 0)
    act = (a > 0) & (b > 0)
    shift = np.zeros(len(a), np.int64)
    both_even = act & (a % 2 == 0) & (b % 2 == 0)
    while both_even.any():
        a[both_even] >>= 1
        b[both_even] >>= 1
        shift[both_even] += 1
        both_even = act & (a % 2 == 0) & (b % 2 == 0)
    while act.any():
        ae = act & (a % 2 == 0)
        while ae.any():
            a[ae] >>= 1
            ae = act & (a % 2 == 0)
        be = act & (b % 2 == 0)
        while be.any():
            b[be] >>= 1
            be = act & (b % 2 == 0)
        sw = act & (a > b)
        t = a[sw]
        a[sw] = b[sw]
        b[sw] = t
        b[act] -= a[act]
        done = act & (b == 0)
        g[done] = a[done] << shift[done]
        act &= b != 0
    return g



def q_gcd_census_orders(sf_dir: str):
    """gcd(orderkey, custkey) spectrum over every order — the
    number-theory workhorse measured on the workload's own key
    pairs: the coprime fraction converges to 6/π² ≈ 0.608 for
    independent keys, so the g=1 row is a key-independence test in
    disguise, and large-g spikes expose structural correlation
    (sharded sequencers, FK leakage). Computed with STEIN'S BINARY
    GCD — no division, just shifts and subtractions, fully
    vectorized as a masked numpy loop (the form branch-free hardware
    uses). Per-batch (g, count) cells contract the scan. PURE-SQL
    replay via DuckDB's own gcd() — a Euclid-family evaluator, so
    the two algorithm families check each other; kernel pins vs
    math.gcd in tests."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def part(t: pa.Table) -> pa.Table:
        g = _stein_gcd_vec(
            t["o_orderkey"].to_numpy(zero_copy_only=False),
            t["o_custkey"].to_numpy(zero_copy_only=False))
        u, cnt = np.unique(g, return_counts=True)
        return pa.table({"g": pa.array(u.astype(np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    out = (orders.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("g").sum("n")).to_pandas()
    out.columns = ["g", "n"]
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("g").reset_index(drop=True)



QUERIES["gcd_census_orders"] = q_gcd_census_orders

ORACLE_SQL["gcd_census_orders"] = """
        SELECT gcd(o_orderkey, o_custkey) AS g, COUNT(*) AS n
        FROM orders GROUP BY 1
    """



# ---------------------------------------------------------------------------
# lehmer_rank_weekly: lexicographic permutation rank (factorial base)
# ---------------------------------------------------------------------------

_LEHMER_M = (1 << 61) - 1     # Mersenne prime: factorials never vanish



def _lehmer_rank_bit(perm) -> int:
    """Lexicographic rank of the permutation mod M via the factorial
    number system: rank = Σ Lᵢ·(n−1−i)!, where the Lehmer digit
    Lᵢ = |{j > i : perm[j] < perm[i]}| is counted with a FENWICK
    tree right-to-left — O(n log n) where the brute digit count is
    O(n²)."""
    n = len(perm)
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i % _LEHMER_M
    ft = _Fenwick(n)
    rank = 0
    for i in range(n - 1, -1, -1):
        smaller = ft.prefix(perm[i])       # perm values 0..n-1 → +1
        ft.add(perm[i] + 1)
        rank = (rank + smaller * fact[n - 1 - i]) % _LEHMER_M
    return rank



def _lehmer_rank_brute(perm) -> int:
    """INDEPENDENT replay: Lehmer digits by direct double-loop
    counting — no tree."""
    n = len(perm)
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i % _LEHMER_M
    rank = 0
    for i in range(n):
        L = sum(1 for j in range(i + 1, n) if perm[j] < perm[i])
        rank = (rank + L * fact[n - 1 - i]) % _LEHMER_M
    return rank



def q_lehmer_rank_weekly(sf_dir: str):
    """Lexicographic rank of each week's price permutation (mod the
    Mersenne prime 2⁶¹−1) — the factorial-number-system index that
    names WHICH of the n! orderings the week realized, completing
    the permutation family: min_swaps_weekly reads the CYCLE
    structure, this reads the ORDER index (identity → 0, full
    reversal → n!−1, both pinned) — the encoding behind succinct
    permutation storage and ranked sampling. Lehmer digits counted
    right-to-left with the Fenwick tree (the same structure as
    fenwick_online_ranks, here counting strict inversion digits),
    O(n log n) vs the O(n²) brute. Same deterministic time-order →
    price-rank permutation as min_swaps. INDEPENDENT double-loop
    digit replay sidecar, random cross-checks."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        return pa.table({"week": wk, "day": day,
                         "k": t["o_orderkey"],
                         "cents": pa.array(cents)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        d = df["day"].to_numpy(np.int64)
        k = df["k"].to_numpy(np.int64)
        c = df["cents"].to_numpy(np.int64)
        o = np.lexsort((k, d))
        cs, ks = c[o], k[o]
        price_rank = np.lexsort((ks, cs))
        perm = np.empty(len(cs), np.int64)
        perm[price_rank] = np.arange(len(cs))
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_orders": np.array([len(cs)], np.int64),
            "lehmer_rank_m": np.array(
                [_lehmer_rank_bit(perm.tolist())], np.int64)})

    return (orders.map_batches(prep, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["lehmer_rank_weekly"] = q_lehmer_rank_weekly



def _lehmer_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lehmer-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lehmer_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "epoch_us(o_orderdate) // 86400000000 AS d, o_orderkey, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c "
            f"FROM read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2, 3").fetchall()
        byweek: dict = {}
        for wk, d, k, c in rows:
            byweek.setdefault(int(wk), []).append((int(k), int(c)))
        out_rows = []
        for wk in sorted(byweek):
            seq = byweek[wk]               # (day,key)-ordered
            by_price = sorted(range(len(seq)),
                              key=lambda i: (seq[i][1], seq[i][0]))
            perm = [0] * len(seq)
            for pos, i in enumerate(by_price):
                perm[i] = pos
            out_rows.append({
                "week": wk, "n_orders": len(seq),
                "lehmer_rank_m": _lehmer_rank_brute(perm)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lehmer_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_orders, lehmer_rank_m "
            f"FROM read_parquet('{_lehmer_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# celf_coverage_tiles: submodular max-coverage with lazy (CELF) greedy
# ---------------------------------------------------------------------------

_CELF_K = 8



def _greedy_cover_plain(sets: list, k: int) -> tuple:
    """Plain greedy max-coverage: k rounds, each recomputing every
    candidate's marginal gain; ties → smallest index. Returns
    (chosen indices, covered count) — within 1−1/e of optimal by
    Nemhauser-Wolsey-Fisher."""
    covered: set = set()
    chosen = []
    for _ in range(k):
        best = None
        for i, s in enumerate(sets):
            if i in chosen:
                continue
            gain = len(s - covered)
            key = (-gain, i)
            if best is None or key < best:
                best = key
        if best is None or -best[0] == 0:
            break
        i = best[1]
        chosen.append(i)
        covered |= sets[i]
    return chosen, len(covered)



def _greedy_cover_celf(sets: list, k: int) -> tuple:
    """CELF lazy greedy: marginal gains only DECREASE
    (submodularity), so a stale heap entry whose re-evaluated gain
    still tops the heap is provably the argmax — most candidates are
    never re-evaluated. MUST return exactly the plain greedy's
    picks; that equality is the submodularity certificate."""
    import heapq

    covered: set = set()
    chosen = []
    heap = [(-len(s), i, 0) for i, s in enumerate(sets)]
    heapq.heapify(heap)
    it = 0
    while heap and len(chosen) < k:
        neg, i, stamp = heapq.heappop(heap)
        if stamp < it:
            g = len(sets[i] - covered)
            heapq.heappush(heap, (-g, i, it))
            continue
        if -neg == 0:
            break
        chosen.append(i)
        covered |= sets[i]
        it += 1
    return chosen, len(covered)



def q_celf_coverage_tiles(sf_dir: str):
    """Submodular max-coverage over the spatial cells: pick the 8
    cells whose _MST_CAP'd tile NEIGHBORHOODS (cell + 4-adjacent
    occupied cells) cover the most occupied cells — the
    sensor-placement / influence-maximization primitive with the
    1−1/e greedy guarantee, accelerated by CELF LAZY EVALUATION:
    submodularity makes marginal gains monotonically shrink, so a
    stale heap top that still wins after one re-evaluation is
    provably the argmax — and the operator ASSERTS the lazy picks
    equal the plain greedy's (the submodularity certificate), then
    ships picks + coverage. Cell occupancy contracts from batch
    partials. Sidecar replays the PLAIN recompute-everything greedy
    over SQL-derived cells — different mechanization, provably equal
    output."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n": g["count_all"].cast(pa.int64())})

    cells = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("cell").sum("n")).to_pandas()
    occ = sorted(int(c) for c in cells["cell"])
    occ_set = set(occ)
    sets = []
    for c in occ:
        tx, ty = c >> 22, c & ((1 << 22) - 1)
        nb = {c}
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c2 = ((tx + dx) << 22) + (ty + dy)
            if c2 in occ_set:
                nb.add(c2)
        sets.append(nb)
    lazy_c, lazy_cov = _greedy_cover_celf(sets, _CELF_K)
    plain_c, plain_cov = _greedy_cover_plain(sets, _CELF_K)
    if lazy_c != plain_c or lazy_cov != plain_cov:
        raise AssertionError("CELF diverged from plain greedy")
    return pd.DataFrame({
        "pick_order": np.arange(len(lazy_c), dtype=np.int64),
        "cell": np.array([occ[i] for i in lazy_c], np.int64),
        "covered_after": np.array(
            [len(set().union(*[sets[j] for j in lazy_c[:r + 1]]))
             for r in range(len(lazy_c))], np.int64)})



QUERIES["celf_coverage_tiles"] = q_celf_coverage_tiles



def _celf_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_celf_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        con = duckdb.connect()
        files = sorted(glob.glob(f"{img}/part-*.parquet"))
        occ = [int(r[0]) for r in con.execute(f"""
            SELECT DISTINCT
                (CAST(floor(lon * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  * (1 << 22)
                + (CAST(floor(lat * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  AS cell
            FROM read_parquet({files!r}) ORDER BY 1""").fetchall()]
        occ_set = set(occ)
        sets = []
        for c in occ:
            tx, ty = c >> 22, c & ((1 << 22) - 1)
            nb = {c}
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                c2 = ((tx + dx) << 22) + (ty + dy)
                if c2 in occ_set:
                    nb.add(c2)
            sets.append(nb)
        chosen, _cov = _greedy_cover_plain(sets, _CELF_K)
        rows = []
        cum: set = set()
        for r, i in enumerate(chosen):
            cum |= sets[i]
            rows.append({"pick_order": r, "cell": occ[i],
                         "covered_after": len(cum)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _celf_sql(img: str) -> str:
    return (f"SELECT pick_order, cell, covered_after "
            f"FROM read_parquet('{_celf_sidecar(img)}')")



# ---------------------------------------------------------------------------
# shapley_power_nations: Shapley-Shubik voting power of the top nations
# ---------------------------------------------------------------------------

_SHAP_K = 8



def _shubik_pivots_dp(w: list, q: int) -> list:
    """Per-player count of permutations where the player is PIVOTAL
    (their arrival pushes the running weight to ≥ q) — the
    Shapley-Shubik index numerator, counted by subset DP: for player
    i, Σ over coalitions S ∌ i with w(S) < q ≤ w(S)+w_i of
    |S|!(n−1−|S|)!. cnt[s][size] = number of i-free coalitions of
    given weight-class via a knapsack over the other players."""
    import math

    n = len(w)
    piv = []
    for i in range(n):
        others = [w[j] for j in range(n) if j != i]
        # dp[size][weight] over subsets of others
        dp = [{0: 1}] + [dict() for _ in range(n - 1)]
        for x in others:
            for sz in range(n - 2, -1, -1):
                for wt, c in list(dp[sz].items()):
                    d = dp[sz + 1]
                    d[wt + x] = d.get(wt + x, 0) + c
        total = 0
        for sz in range(n):
            for wt, c in dp[sz].items():
                if wt < q <= wt + w[i]:
                    total += c * math.factorial(sz) \
                        * math.factorial(n - 1 - sz)
        piv.append(total)
    return piv



def _shubik_pivots_enum(w: list, q: int) -> list:
    """INDEPENDENT replay: brute enumeration of all n! arrival
    orders, crediting the pivotal player of each — no DP, no
    factorial weighting."""
    from itertools import permutations

    n = len(w)
    piv = [0] * n
    for perm in permutations(range(n)):
        run = 0
        for p in perm:
            run += w[p]
            if run >= q:
                piv[p] += 1
                break
    return piv



def q_shapley_power_nations(sf_dir: str):
    """Shapley-Shubik voting power of the 8 largest nations —
    weighted voting with weights = customer counts and quota = half
    the total + 1: each nation's power is the fraction of arrival
    orders in which IT tips the coalition past the quota — the exact
    cooperative-game attribution (the lineage behind SHAP feature
    attribution), and famously NOT proportional to weight: a nation
    can hold weight yet zero power (dummy) or modest weight and
    outsized power, which raw market-share numbers hide. Exact
    integer pivot counts (Σ = 8!, the efficiency axiom, asserted
    in-operator). Counted by subset-knapsack DP with factorial
    weights; customer counts contract from batch partials.
    INDEPENDENT full 8!-permutation enumeration replay sidecar,
    dictator/dummy/symmetry pins."""
    cust = _read(sf_dir, "customer", ["c_nationkey"])

    def part(t: pa.Table) -> pa.Table:
        g = pa.table({"nk": t["c_nationkey"].cast(pa.int64())}) \
            .group_by("nk").aggregate([([], "count_all")])
        return pa.table({"nk": g["nk"],
                         "n": g["count_all"].cast(pa.int64())})

    counts = (cust.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
              .groupby("nk").sum("n")).to_pandas()
    counts.columns = ["nk", "n"]
    counts = counts.sort_values(["n", "nk"],
                                ascending=[False, True]).head(_SHAP_K)
    counts = counts.sort_values("nk")
    w = counts["n"].to_numpy(np.int64).tolist()
    q = sum(w) // 2 + 1
    piv = _shubik_pivots_dp(w, q)
    import math

    if sum(piv) != math.factorial(len(w)):
        raise AssertionError("efficiency axiom violated")
    return pd.DataFrame({
        "n_nationkey": counts["nk"].to_numpy(np.int64),
        "weight": np.array(w, np.int64),
        "pivotal_orders": np.array(piv, np.int64)})



QUERIES["shapley_power_nations"] = q_shapley_power_nations



def _shap_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "shap-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_shap_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT c_nationkey, COUNT(*) AS n FROM "
            f"read_parquet('{sf_dir}/customer.parquet') "
            "GROUP BY 1 ORDER BY n DESC, c_nationkey "
            f"LIMIT {_SHAP_K}").fetchall()
        rows = sorted((int(nk), int(n)) for nk, n in rows)
        w = [n for _nk, n in rows]
        q = sum(w) // 2 + 1
        piv = _shubik_pivots_enum(w, q)
        out = pa.Table.from_pylist(
            [{"n_nationkey": nk, "weight": wt, "pivotal_orders": pv}
             for (nk, wt), pv in zip(rows, piv)])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _shap_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, weight, pivotal_orders "
            f"FROM read_parquet('{_shap_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# widest_path_cells: bottleneck (maximin) path between the busiest cells
# ---------------------------------------------------------------------------


def _widest_threshold_bfs(occ: dict, adj4, a, b) -> int:
    """Maximin bottleneck via BINARY SEARCH ON THE THRESHOLD: the
    widest path value is the largest t such that a and b connect in
    the subgraph of edges with capacity ≥ t; capacities = min of the
    endpoint cell counts, so candidate thresholds are cell counts."""
    from collections import deque

    cand = sorted(set(occ.values()))
    lo, hi = 0, len(cand) - 1
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        t = cand[mid]
        dq = deque([a])
        seen = {a}
        found = a == b
        while dq and not found:
            u = dq.popleft()
            for v in adj4(u):
                if v in occ and v not in seen \
                        and min(occ[u], occ[v]) >= t:
                    if v == b:
                        found = True
                        break
                    seen.add(v)
                    dq.append(v)
        if found and occ[a] >= t and occ[b] >= t:
            best = t
            lo = mid + 1
        else:
            hi = mid - 1
    return best



def _widest_dijkstra(occ: dict, adj4, a, b) -> int:
    """INDEPENDENT replay: maximin 'Dijkstra' — a max-heap label
    setting where a path's label is the MINIMUM capacity along it;
    no thresholds, no binary search."""
    import heapq

    best = {a: occ[a]}
    pq_ = [(-occ[a], a)]
    while pq_:
        negw, u = heapq.heappop(pq_)
        w = -negw
        if u == b:
            return w
        if w < best.get(u, 0):
            continue
        for v in adj4(u):
            if v in occ:
                nw = min(w, occ[v])
                if nw > best.get(v, 0):
                    best[v] = nw
                    heapq.heappush(pq_, (-nw, v))
    return 0



def q_widest_path_cells(sf_dir: str):
    """Widest (bottleneck / maximin) path between the two busiest
    spatial cells over the 4-adjacent occupied-cell graph — the
    capacity-routing primitive (max-bandwidth networking, freight
    corridors): the path whose WORST cell is best, a number neither
    shortest-path length nor total flow gives. Edge capacity =
    min(endpoint tile counts). Solved by binary search on the
    threshold + BFS connectivity (O(E log V), the
    parametric-search discipline); cell occupancy contracts from
    batch partials, the graph is cell-scale. INDEPENDENT maximin
    max-heap label-setting replay — no thresholds — plus chain and
    two-route pins; disconnected endpoints → 0."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n": g["count_all"].cast(pa.int64())})

    cells = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("cell").sum("n")).to_pandas()
    cells.columns = ["cell", "n"]
    occ = {int(c): int(n) for c, n in zip(cells["cell"], cells["n"])}
    top = cells.sort_values(["n", "cell"],
                            ascending=[False, True]).head(2)
    a, b = sorted(int(c) for c in top["cell"])

    def adj4(c):
        tx, ty = c >> 22, c & ((1 << 22) - 1)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yield ((tx + dx) << 22) + (ty + dy)

    w = _widest_threshold_bfs(occ, adj4, a, b)
    return pd.DataFrame({
        "cell_a": np.array([a], np.int64),
        "cell_b": np.array([b], np.int64),
        "widest_bottleneck": np.array([w], np.int64)})



QUERIES["widest_path_cells"] = q_widest_path_cells



def _widest_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_widest_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        con = duckdb.connect()
        files = sorted(glob.glob(f"{img}/part-*.parquet"))
        rows = con.execute(f"""
            SELECT
                (CAST(floor(lon * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  * (1 << 22)
                + (CAST(floor(lat * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  AS cell, COUNT(*) AS n
            FROM read_parquet({files!r}) GROUP BY 1""").fetchall()
        occ = {int(c): int(n) for c, n in rows}
        top = sorted(occ.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        a, b = sorted(c for c, _n in top)

        def adj4(c):
            tx, ty = c >> 22, c & ((1 << 22) - 1)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                yield ((tx + dx) << 22) + (ty + dy)

        w = _widest_dijkstra(occ, adj4, a, b)
        out = pa.Table.from_pylist([{
            "cell_a": a, "cell_b": b, "widest_bottleneck": w}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _widest_sql(img: str) -> str:
    return (f"SELECT cell_a, cell_b, widest_bottleneck "
            f"FROM read_parquet('{_widest_sidecar(img)}')")



# ---------------------------------------------------------------------------
# ttc_exchange_nations: top trading cycles over customer-owned suppliers
# ---------------------------------------------------------------------------


def _ttc_allocate(pref: list) -> tuple:
    """Top Trading Cycles: agent i initially owns item i; each round
    every remaining agent points at the OWNER of their favorite
    remaining item; every pointing cycle trades simultaneously and
    leaves. Returns (alloc, round_removed). The outcome is the
    UNIQUE core allocation (Roth-Postlewaite 1977), so any correct
    implementation agrees exactly. Visited-set cycle walking."""
    n = len(pref)
    item_owner = list(range(n))
    active_a = set(range(n))
    active_i = set(range(n))
    alloc = [-1] * n
    rnd = [-1] * n
    r = 0
    while active_a:
        r += 1
        fav = {}
        point = {}
        for a in active_a:
            f = next(i for i in pref[a] if i in active_i)
            fav[a] = f
            point[a] = item_owner[f]
        state = {a: 0 for a in active_a}    # 0 new, 1 instack, 2 done
        in_cycle = set()
        for start in sorted(active_a):
            if state[start]:
                continue
            path = []
            u = start
            while state[u] == 0:
                state[u] = 1
                path.append(u)
                u = point[u]
            if state[u] == 1:               # found a new cycle
                k = path.index(u)
                in_cycle.update(path[k:])
            for v in path:
                state[v] = 2
        for a in in_cycle:
            alloc[a] = fav[a]
            rnd[a] = r
        for a in in_cycle:
            active_a.discard(a)
            active_i.discard(fav[a])
        for i in list(active_i):
            if item_owner[i] in in_cycle:
                # an owner never leaves while still owning an active
                # item: its favorite was taken by its cycle, so its
                # own item left with it — this branch is vacuous but
                # guards the invariant
                raise AssertionError("TTC owner/item desync")
    return alloc, rnd



def _ttc_allocate_pointer(pref: list) -> tuple:
    """INDEPENDENT replay: the same mechanism driven by Floyd
    tortoise-hare cycle FINDING on the pointing map (no path stack,
    no visited states) — one cycle extracted per inner step."""
    n = len(pref)
    item_owner = list(range(n))
    active_a = set(range(n))
    active_i = set(range(n))
    alloc = [-1] * n
    rnd = [-1] * n
    r = 0
    while active_a:
        r += 1
        fav = {a: next(i for i in pref[a] if i in active_i)
               for a in active_a}
        point = {a: item_owner[fav[a]] for a in active_a}
        removed = set()
        for s in sorted(active_a):
            if s in removed:
                continue
            t = point[s]
            h = point[point[s]]
            while t != h:
                t = point[t]
                h = point[point[h]]
            if t in removed:
                continue
            cyc = [t]
            u = point[t]
            while u != t:
                cyc.append(u)
                u = point[u]
            if any(c in removed for c in cyc):
                continue
            for a in cyc:
                alloc[a] = fav[a]
                rnd[a] = r
                removed.add(a)
        for a in removed:
            active_a.discard(a)
            active_i.discard(fav[a])
    return alloc, rnd



def q_ttc_exchange_nations(sf_dir: str):
    """Top Trading Cycles over the per-nation market where the i-th
    top customer initially OWNS the i-th top supplier — the one-sided
    exchange mechanism (housing markets, kidney exchange) completing
    the mechanism-design family: Gale-Shapley matches two sides with
    preferences, Hungarian prices an assignment, TTC respects
    ENDOWMENTS — its outcome is the unique core allocation, strategy-
    proof and individually rational (every agent ends weakly better
    by their own ranking than their endowment, asserted in-operator).
    Preferences by (|Δcents|, index). Per-nation co-partitions,
    supplier dim broadcast. INDEPENDENT Floyd tortoise-hare cycle-
    finding replay (no path stack) — equal output by core
    uniqueness; self-loop and 2-cycle pins in tests."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    sk_dim, snk_raw, sbal_raw = _dim_np(
        sf_dir, "supplier", "s_suppkey", ["s_nationkey", "s_acctbal"])
    snk_dim = snk_raw.astype(np.int64, copy=False)
    sbal_dim = sbal_raw.astype(np.float64, copy=False)
    tops = {}
    for nk in np.unique(snk_dim):
        m = snk_dim == nk
        keys, bals = sk_dim[m], sbal_dim[m]
        nk = int(nk)
        tops[nk] = _top_bal(bals, keys, _HUN_K)
    sup_ref = ray.put(tops)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _HUN_K)
        sk, sc = stop.get(nk, (np.empty(0, np.int64),
                               np.empty(0, np.int64)))
        k = min(len(cc), len(sc))
        if k == 0:
            return pd.DataFrame({
                "n_nationkey": pd.Series(dtype="int64"),
                "agent": pd.Series(dtype="int64"),
                "endow": pd.Series(dtype="int64"),
                "alloc": pd.Series(dtype="int64"),
                "round": pd.Series(dtype="int64")})
        cc2, sc2 = cc[:k], sc[:k]
        pref = [sorted(range(k),
                       key=lambda j, i=i: (abs(int(cc2[i])
                                               - int(sc2[j])), j))
                for i in range(k)]
        alloc, rnd = _ttc_allocate(pref)
        for i in range(k):
            # individual rationality: alloc at least as preferred as
            # the endowment in agent i's own ranking
            if pref[i].index(alloc[i]) > pref[i].index(i):
                raise AssertionError("TTC violated IR")
        return pd.DataFrame({
            "n_nationkey": np.full(k, nk, np.int64),
            "agent": np.arange(k, dtype=np.int64),
            "endow": np.arange(k, dtype=np.int64),
            "alloc": np.array(alloc, np.int64),
            "round": np.array(rnd, np.int64)})

    return (cust.groupby("c_nationkey")
            .map_groups(fold, batch_format="pandas"))



QUERIES["ttc_exchange_nations"] = q_ttc_exchange_nations



def _ttc_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "ttc-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ttc_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT n_nationkey FROM "
            f"read_parquet('{sf_dir}/nation.parquet') ORDER BY 1"
        ).fetchall()]
        out_rows = []
        for nk in nks:
            cc = [r[0] for r in con.execute(
                f"SELECT CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/customer.parquet') "
                f"WHERE c_nationkey = {nk} "
                f"ORDER BY c_acctbal DESC, c_custkey LIMIT {_HUN_K}"
            ).fetchall()]
            sc = [r[0] for r in con.execute(
                f"SELECT CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/supplier.parquet') "
                f"WHERE s_nationkey = {nk} "
                f"ORDER BY s_acctbal DESC, s_suppkey LIMIT {_HUN_K}"
            ).fetchall()]
            k = min(len(cc), len(sc))
            if k == 0:
                continue
            pref = [sorted(range(k),
                           key=lambda j, i=i: (abs(cc[i] - sc[j]), j))
                    for i in range(k)]
            alloc, rnd = _ttc_allocate_pointer(pref)
            for i in range(k):
                out_rows.append({"n_nationkey": int(nk), "agent": i,
                                 "endow": i, "alloc": alloc[i],
                                 "round": rnd[i]})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ttc_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, agent, endow, alloc, round "
            f"FROM read_parquet('{_ttc_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# voting_methods_nations: plurality / Borda / Condorcet / IRV divergence
# ---------------------------------------------------------------------------


def _vote_winners(ballots: list, cands: list) -> tuple:
    """(plurality, borda, condorcet_or_-1, irv) winners over full
    strict rankings; every tie breaks to the smallest candidate id.
    Condorcet = beats every rival head-to-head (may not exist —
    the paradox); IRV eliminates the weakest first-choice holder
    (tie → smallest id) and redistributes."""
    from collections import Counter

    first = Counter(b[0] for b in ballots)
    plurality = min(cands, key=lambda c: (-first.get(c, 0), c))
    m = len(cands)
    borda_pts = Counter()
    for b in ballots:
        for pos, c in enumerate(b):
            borda_pts[c] += m - 1 - pos
    borda = min(cands, key=lambda c: (-borda_pts.get(c, 0), c))
    condorcet = -1
    for c in cands:
        wins_all = True
        for d in cands:
            if c == d:
                continue
            pref_c = sum(1 for b in ballots
                         if b.index(c) < b.index(d))
            if 2 * pref_c <= len(ballots):
                wins_all = False
                break
        if wins_all:
            condorcet = c
            break
    alive = sorted(cands)
    cur = [list(b) for b in ballots]
    while len(alive) > 1:
        fc = Counter(next(x for x in b if x in alive) for b in cur)
        if max(fc.get(c, 0) for c in alive) * 2 > len(cur):
            break
        loser = min(alive, key=lambda c: (fc.get(c, 0), c))
        alive.remove(loser)
    fc = Counter(next(x for x in b if x in alive) for b in cur)
    irv = min(alive, key=lambda c: (-fc.get(c, 0), c))
    return plurality, borda, condorcet, irv



def q_voting_methods_nations(sf_dir: str):
    """Social-choice audit per nation: every customer ranks the
    nation's top-3 suppliers by balance proximity, and FOUR election
    methods count the same ballots — plurality, Borda, Condorcet
    (head-to-head; may not exist, the 1785 paradox) and
    instant-runoff — the Arrow-theorem demonstration on real data:
    identical preferences, different winners, which is exactly the
    leaderboard-design question (top-1 clicks vs weighted score vs
    pairwise A/B vs elimination rounds) every ranking system faces.
    All ties to the smallest supplier id, deterministic. Per-nation
    co-partitions; supplier top-3 broadcast. INDEPENDENT recount
    replay with different mechanizations, paradox and
    split-vote pins in tests."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    sk_dim, snk_raw, sbal_raw = _dim_np(
        sf_dir, "supplier", "s_suppkey", ["s_nationkey", "s_acctbal"])
    snk_dim = snk_raw.astype(np.int64, copy=False)
    sbal_dim = sbal_raw.astype(np.float64, copy=False)
    tops = {}
    for nk in np.unique(snk_dim):
        m = snk_dim == nk
        keys, bals = sk_dim[m], sbal_dim[m]
        nk = int(nk)
        k, c = _top_bal(bals, keys, 3)
        tops[nk] = (k.tolist(), c.tolist())
    sup_ref = ray.put(tops)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        sk, sc = stop.get(nk, ([], []))
        if len(sk) < 1:
            return pd.DataFrame({
                "n_nationkey": pd.Series(dtype="int64"),
                "plurality_w": pd.Series(dtype="int64"),
                "borda_w": pd.Series(dtype="int64"),
                "condorcet_w": pd.Series(dtype="int64"),
                "irv_w": pd.Series(dtype="int64")})
        cents = np.floor(df["c_acctbal"].to_numpy(np.float64)
                         * 100.0 + 0.5).astype(np.int64)
        ballots = []
        for cb in cents.tolist():
            ballots.append(sorted(
                sk, key=lambda s: (abs(cb - sc[sk.index(s)]), s)))
        p_, b_, c_, i_ = _vote_winners(ballots, sorted(sk))
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "plurality_w": np.array([p_], np.int64),
            "borda_w": np.array([b_], np.int64),
            "condorcet_w": np.array([c_], np.int64),
            "irv_w": np.array([i_], np.int64)})

    return (cust.groupby("c_nationkey")
            .map_groups(fold, batch_format="pandas"))



QUERIES["voting_methods_nations"] = q_voting_methods_nations



def _vote_winners_recount(ballots: list, cands: list) -> tuple:
    """INDEPENDENT replay: the same four methods re-mechanized —
    pairwise matrix built up-front, Borda via rank sums (m−1−pos ≡
    (m−1) − rank), IRV with explicit per-round ballot filtering."""
    n = len(ballots)
    m = len(cands)
    pos = [{c: b.index(c) for c in cands} for b in ballots]
    first = {c: sum(1 for p in pos if min(p, key=p.get) == c)
             for c in cands}
    plurality = sorted(cands,
                       key=lambda c: (-first[c], c))[0]
    borda_pts = {c: sum((m - 1 - p[c]) for p in pos) for c in cands}
    borda = sorted(cands, key=lambda c: (-borda_pts[c], c))[0]
    P = {(a, b): sum(1 for p in pos if p[a] < p[b])
         for a in cands for b in cands if a != b}
    condorcet = -1
    for c in sorted(cands):
        if all(2 * P[(c, d)] > n for d in cands if d != c):
            condorcet = c
            break
    alive = sorted(cands)
    while len(alive) > 1:
        fc = {c: 0 for c in alive}
        for p in pos:
            top = min(alive, key=lambda c: p[c])
            fc[top] += 1
        if max(fc.values()) * 2 > n:
            break
        alive.remove(sorted(alive, key=lambda c: (fc[c], c))[0])
    fc = {c: 0 for c in alive}
    for p in pos:
        top = min(alive, key=lambda c: p[c])
        fc[top] += 1
    irv = sorted(alive, key=lambda c: (-fc[c], c))[0]
    return plurality, borda, condorcet, irv



def _vote_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "vote-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_vote_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT DISTINCT s_nationkey FROM "
            f"read_parquet('{sf_dir}/supplier.parquet') ORDER BY 1"
        ).fetchall()]
        out_rows = []
        for nk in nks:
            srows = con.execute(
                f"SELECT s_suppkey, "
                f"CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/supplier.parquet') "
                f"WHERE s_nationkey = {nk} "
                f"ORDER BY s_acctbal DESC, s_suppkey LIMIT 3"
            ).fetchall()
            sk = [int(a) for a, _ in srows]
            sc = [int(b) for _, b in srows]
            if len(sk) < 1:
                continue
            crows = con.execute(
                f"SELECT CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/customer.parquet') "
                f"WHERE c_nationkey = {nk}").fetchall()
            if not crows:
                continue
            ballots = []
            for (cb,) in crows:
                ballots.append(sorted(
                    sk, key=lambda s: (abs(int(cb)
                                           - sc[sk.index(s)]), s)))
            p_, b_, c_, i_ = _vote_winners_recount(ballots, sorted(sk))
            out_rows.append({"n_nationkey": int(nk),
                             "plurality_w": p_, "borda_w": b_,
                             "condorcet_w": c_, "irv_w": i_})
        schema = pa.schema([(c, pa.int64()) for c in
                            ("n_nationkey", "plurality_w", "borda_w",
                             "condorcet_w", "irv_w")])
        out = pa.Table.from_pylist(out_rows, schema=schema)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _vote_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, plurality_w, borda_w, condorcet_w, "
            f"irv_w FROM read_parquet('{_vote_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# hull_width_cells: exact minimal width of each cell's tile cloud
# ---------------------------------------------------------------------------


def _hull_width_frac(ix: np.ndarray, iy: np.ndarray) -> tuple:
    """(hull_size, num, den): the minimal WIDTH of the point set —
    min over hull edges of (max cross-distance to the edge line)² —
    as the EXACT reduced fraction num/den = cross²_max/|e|² (the
    rotating-calipers width without a single float: fractions
    compare by cross-multiplication in arbitrary-precision ints).
    Collinear or singleton sets have width 0."""
    from math import gcd

    from geotile.geom.hull import convex_hull

    n = len(ix)
    if n == 0:
        return 0, 0, 1
    pts = np.stack([ix, iy], axis=1).astype(np.float64)
    hull = convex_hull(pts)
    if hull is None:
        return n, 0, 1
    hx = np.floor(hull[:, 0]).astype(np.int64)
    hy = np.floor(hull[:, 1]).astype(np.int64)
    h = len(hx)
    if h < 3:
        return h, 0, 1
    best = None          # (num, den) minimal fraction
    for e in range(h):
        ax, ay = int(hx[e]), int(hy[e])
        bx, by = int(hx[(e + 1) % h]), int(hy[(e + 1) % h])
        ex, ey = bx - ax, by - ay
        den = ex * ex + ey * ey
        if den == 0:
            continue
        mx = 0
        for v in range(h):
            cr = abs(ex * (int(hy[v]) - ay) - ey * (int(hx[v]) - ax))
            if cr > mx:
                mx = cr
        num = mx * mx
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    if best is None:
        return h, 0, 1
    g = gcd(best[0], best[1]) or 1
    return h, best[0] // g, best[1] // g



def _hull_width_brute(ix, iy) -> tuple:
    """INDEPENDENT replay: the width as min over ALL point PAIRS
    used as direction-defining edges is wrong in general — instead
    brute the same definition over the hull computed by a DIFFERENT
    construction: angular sort + Graham scan (no monotone chain),
    then the identical exact-fraction sweep."""
    from math import gcd

    pts = sorted(set(zip([int(v) for v in ix],
                         [int(v) for v in iy])))
    n = len(pts)
    if n == 0:
        return 0, 0, 1
    if n < 3:
        return n, 0, 1

    # Graham scan around the lowest-then-leftmost anchor
    ax0, ay0 = min(pts, key=lambda p: (p[1], p[0]))

    import functools

    def angcmp(p, q):
        cr = ((p[0] - ax0) * (q[1] - ay0)
              - (q[0] - ax0) * (p[1] - ay0))
        if cr != 0:
            return -1 if cr > 0 else 1
        dp = (p[0] - ax0) ** 2 + (p[1] - ay0) ** 2
        dq = (q[0] - ax0) ** 2 + (q[1] - ay0) ** 2
        return -1 if dp < dq else (1 if dp > dq else 0)

    rest = [p for p in pts if p != (ax0, ay0)]
    rest.sort(key=functools.cmp_to_key(angcmp))
    hull = [(ax0, ay0)]
    for p in rest:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) \
                    - (p[0] - o[0]) * (a[1] - o[1]) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    h = len(hull)
    if h < 3:
        return h, 0, 1
    best = None
    for e in range(h):
        ax, ay = hull[e]
        bx, by = hull[(e + 1) % h]
        ex, ey = bx - ax, by - ay
        den = ex * ex + ey * ey
        if den == 0:
            continue
        mx = max(abs(ex * (qy - ay) - ey * (qx - ax))
                 for qx, qy in hull)
        num = mx * mx
        if best is None or num * best[1] < best[0] * den:
            best = (num, den)
    g = gcd(best[0], best[1]) or 1
    return h, best[0] // g, best[1] // g



def q_hull_width_cells(sf_dir: str):
    """Exact minimal WIDTH of each spatial cell's tile cloud — the
    rotating-calipers companion to hull_diameter_cells, together the
    shape-anisotropy pair (width ≪ diameter = a corridor; ≈ = a
    blob): width = min over hull edges of the farthest point's
    perpendicular distance, and the minimal width of a convex body
    is always attained on an EDGE direction (the support-function
    fact the sweep relies on). Computed with ZERO floats: each
    candidate is the exact rational cross²/|e|², compared by
    cross-multiplication in big ints, shipped as a reduced fraction
    — hashable exactly. Same cells/cap as the diameter twin.
    INDEPENDENT replay re-derives the hull by GRAHAM SCAN (angular
    cmp, not monotone chain) before the identical exact sweep;
    rectangle/segment/collinear pins."""
    from geotile.ops.tiles import read_image_table
    from geotile.synth import image_index

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        idx = image_index(t["image_id"])
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        return pa.table({"cell": pa.array(cell),
                         "idx": pa.array(idx.astype(np.int64)),
                         "ix": pa.array(ix), "iy": pa.array(iy)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("idx", kind="stable")
        use = df.head(_MST_CAP)
        _h, num, den = _hull_width_frac(
            use["ix"].to_numpy(np.int64),
            use["iy"].to_numpy(np.int64))
        # hull vertex-count conventions differ between constructions
        # (closed ring vs strict); only the width fraction is
        # construction-invariant, so only it ships
        return pd.DataFrame({
            "cell": np.array([df["cell"].iloc[0]], np.int64),
            "n_used": np.array([len(use)], np.int64),
            "width2_num": np.array([num], np.int64),
            "width2_den": np.array([den], np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["hull_width_cells"] = q_hull_width_cells



def _hwidth_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_hwidth_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        ids = []
        for f in sorted(glob.glob(f"{img}/part-*.parquet")):
            ids.append(pq.read_table(f, columns=["image_id"])
                       ["image_id"].to_numpy(zero_copy_only=False))
        idx = np.sort(_sy.image_index(pa.array(np.concatenate(ids))))
        x, y = _sy.tile_centers(idx.astype(np.uint64))
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        rows = []
        for c in np.unique(cell):
            sel = np.nonzero(cell == c)[0][: _MST_CAP]
            _h, num, den = _hull_width_brute(ix[sel], iy[sel])
            rows.append({"cell": int(c), "n_used": len(sel),
                         "width2_num": num, "width2_den": den})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hwidth_sql(img: str) -> str:
    return (f"SELECT cell, n_used, width2_num, width2_den "
            f"FROM read_parquet('{_hwidth_sidecar(img)}')")



# ---------------------------------------------------------------------------
# bwt_roundtrip_docs: Burrows-Wheeler transform + LF-mapping inversion
# ---------------------------------------------------------------------------


def _bwt_sa(s: bytes) -> bytes:
    """BWT of s + sentinel \\x00 via the suffix array (the O(n log n)
    production construction): L[i] = s[SA[i] − 1]."""
    data = s + b"\x00"
    codes = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    sa = _suffix_array_np(codes)
    idx = (sa - 1) % len(data)
    return bytes(codes[idx].astype(np.uint8).tolist())



def _bwt_inverse_lf(L: bytes) -> bytes:
    """Invert via the LF MAPPING — the FM-index core: F is L sorted;
    the k-th occurrence of c in L corresponds to the k-th occurrence
    of c in F, so LF[i] = C[L[i]] + rank_{L[i]}(i) walks the text
    BACKWARDS from the sentinel row in O(n)."""
    n = len(L)
    counts = [0] * 256
    for c in L:
        counts[c] += 1
    C = [0] * 256
    tot = 0
    for c in range(256):
        C[c] = tot
        tot += counts[c]
    rank = [0] * n
    seen = [0] * 256
    for i, c in enumerate(L):
        rank[i] = seen[c]
        seen[c] += 1
    # row 0 is the sentinel-leading rotation (start n−1); walking LF
    # emits the text backwards: T[n−2], T[n−3], …, T[0]
    out = bytearray()
    i = 0
    for _ in range(n - 1):
        out.append(L[i])
        i = C[L[i]] + rank[i]
    return bytes(out[::-1])



def _bwt_rotations(s: bytes) -> bytes:
    """INDEPENDENT forward replay: the DEFINITIONAL construction —
    sort all rotations of s+$ and take the last column. O(n² log n),
    no suffix array."""
    data = s + b"\x00"
    n = len(data)
    rots = sorted(range(n), key=lambda i: data[i:] + data[:i])
    return bytes(data[(i - 1) % n] for i in rots)



def _bwt_inverse_pairs(L: bytes) -> bytes:
    """INDEPENDENT inverse replay: the 'sorted pairs' construction —
    the next-row array is simply the STABLE argsort of L (first
    column = sorted last column, stability giving the k-th c → k-th
    c correspondence); walk it from row 0 reading the FIRST column.
    No count/rank tables."""
    n = len(L)
    order = np.argsort(np.frombuffer(L, np.uint8),
                       kind="stable").astype(np.int64)
    F = bytes(sorted(L))
    out = bytearray()
    i = 0
    for _ in range(n - 1):
        i = int(order[i])
        out.append(F[i])
    return bytes(out)



def _bwt_inverse_columns(L: bytes) -> bytes:
    """Definitional inverse (TESTS only — O(n³)): the textbook
    iterated column sort — prepend L and re-sort, n times; the row
    ending in $ is the text. No LF mapping."""
    n = len(L)
    table = [b""] * n
    for _ in range(n):
        table = sorted(bytes([L[i]]) + table[i] for i in range(n))
    for row in table:
        if row.endswith(b"\x00"):
            return row[:-1]
    return b""



def q_bwt_roundtrip_docs(sf_dir: str):
    """Burrows-Wheeler transform + inversion audit per document —
    the bzip2 / FM-index core, completing the BWT family
    (bwt_runs_sources measures the forward transform's run
    structure; THIS proves invertibility): forward via the suffix
    array (the O(n log n) production construction), inverse via the
    LF MAPPING — rank/count walking that underlies every FM-index
    search — and inverse(forward(T)) = T is asserted for EVERY doc
    in-operator. Ships the transform's first-column checksum and
    run count so the BWT itself is hash-checked. Docs are the
    parallel grain. INDEPENDENT sidecar uses the DEFINITIONAL
    constructions on both sides: full rotation sorting forward,
    iterated column sort backward — no SA, no LF anywhere; the
    classic banana→annb$aa is pinned."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def audit(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = {k: [] for k in ("doc_id", "n", "bwt_runs",
                               "bwt_checksum")}
        for k, txt in enumerate(texts):
            s = txt.encode()
            L = _bwt_sa(s)
            if _bwt_inverse_lf(L) != s:
                raise AssertionError("BWT roundtrip failed")
            arr = np.frombuffer(L, dtype=np.uint8)
            runs = 1 + int((arr[1:] != arr[:-1]).sum()) if len(arr) \
                else 0
            chk = int((arr.astype(np.int64)
                       * (np.arange(len(arr)) + 1)).sum() % (1 << 61))
            out["doc_id"].append(int(ids[k]))
            out["n"].append(len(s))
            out["bwt_runs"].append(runs)
            out["bwt_checksum"].append(chk)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(audit, batch_format="pyarrow")



QUERIES["bwt_roundtrip_docs"] = q_bwt_roundtrip_docs



def _bwtrt_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "bwtrt-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_bwtrt_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            s = txt.encode()
            L = _bwt_rotations(s)
            assert _bwt_inverse_pairs(L) == s
            arr = np.frombuffer(L, dtype=np.uint8)
            runs = 1 + int((arr[1:] != arr[:-1]).sum()) if len(arr) \
                else 0
            chk = int((arr.astype(np.int64)
                       * (np.arange(len(arr)) + 1)).sum() % (1 << 61))
            out_rows.append({"doc_id": int(did), "n": len(s),
                             "bwt_runs": runs, "bwt_checksum": chk})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bwtrt_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n, bwt_runs, bwt_checksum "
            f"FROM read_parquet('{_bwtrt_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# wiener_index_dups: all-pairs distance mass per near-dup component
# ---------------------------------------------------------------------------


def _wiener_fw(nodes, adj) -> tuple:
    """(wiener, n_pairs_connected) by FLOYD-WARSHALL over the dense
    distance matrix — the O(V³) APSP with the k-relaxation
    invariant."""
    ns = sorted(nodes)
    idx = {v: i for i, v in enumerate(ns)}
    n = len(ns)
    INF = 1 << 30
    D = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for v in ns:
        for w in adj.get(v, ()):
            D[idx[v]][idx[w]] = 1
    for k in range(n):
        Dk = D[k]
        for i in range(n):
            dik = D[i][k]
            if dik == INF:
                continue
            row = D[i]
            for j in range(n):
                alt = dik + Dk[j]
                if alt < row[j]:
                    row[j] = alt
    tot = 0
    for i in range(n):
        for j in range(i + 1, n):
            if D[i][j] < INF:
                tot += D[i][j]
    return tot, n



def _wiener_bfs(nodes, adj) -> tuple:
    """INDEPENDENT replay: BFS from every source (the unweighted-
    graph APSP) — no relaxation matrix."""
    from collections import deque

    ns = sorted(nodes)
    tot = 0
    for s in ns:
        dist = {s: 0}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    dq.append(v)
        tot += sum(dist.values())
    return tot // 2, len(ns)



def q_wiener_index_dups(sf_dir: str):
    """Wiener index (Σ all-pairs shortest distances) of every
    near-dup component with ≥ 3 vertices — the 1947 topological
    index that predated graph theory's adoption in chemistry, here
    the REVIEW-COST model of a dup cluster: resolving records
    pairwise costs hops through intermediaries, so Wiener/C(n,2)
    is the mean evidence-chain length, a compactness number
    dup_diameter_sweep's max cannot give (a star and a path share
    diameter-ish bounds but not distance mass). Floyd-Warshall's
    O(V³) k-relaxation on the dense matrix at dup-graph scale.
    INDEPENDENT all-source BFS replay — the other APSP family —
    path/star/cycle closed forms pinned."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    return _wiener_from_pairs(
        [(int(r["a"]), int(r["b"])) for r in pairs], _wiener_fw)



def _wiener_from_pairs(pairs: list, fn) -> pd.DataFrame:
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps: dict = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    rows = []
    for _root, vs in comps.items():
        if len(vs) < 3:
            continue
        vs = sorted(vs)
        w, n = fn(vs, adj)
        rows.append({"comp_id": vs[0], "n_vertices": n,
                     "wiener": w})
    out = pd.DataFrame(rows or {"comp_id": [], "n_vertices": [],
                                "wiener": []})
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("comp_id").reset_index(drop=True)



QUERIES["wiener_index_dups"] = q_wiener_index_dups



def _wiener_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "wiener-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_wiener_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        df = _wiener_from_pairs(
            [(int(a), int(b)) for a, b, _ in rows], _wiener_bfs)
        out = pa.Table.from_pandas(df, preserve_index=False)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _wiener_sql(sf_dir: str) -> str:
    return (f"SELECT comp_id, n_vertices, wiener "
            f"FROM read_parquet('{_wiener_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# tsp_2opt_gap_cells: heuristic-vs-optimal tour gap audit
# ---------------------------------------------------------------------------


def _nn_tour(dist) -> list:
    """Nearest-neighbor construction from city 0, ties → smallest
    index."""
    n = len(dist)
    tour = [0]
    left = set(range(1, n))
    while left:
        cur = tour[-1]
        nxt = min(left, key=lambda j: (dist[cur][j], j))
        tour.append(nxt)
        left.discard(nxt)
    return tour



def _tour_cost(dist, tour) -> int:
    return sum(dist[a][b] for a, b in zip(tour, tour[1:])) \
        + dist[tour[-1]][tour[0]]



def _two_opt(dist, tour) -> list:
    """First-improvement 2-opt to a local optimum: scan (i, j) pairs
    in fixed lexicographic order, reverse tour[i:j+1] whenever the
    edge exchange strictly improves, restart the scan after every
    improvement — a fully deterministic descent."""
    tour = list(tour)
    n = len(tour)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b = tour[i - 1], tour[i]
                c, d = tour[j], tour[(j + 1) % n]
                if a == c or b == d:
                    continue
                delta = (dist[a][c] + dist[b][d]
                         - dist[a][b] - dist[c][d])
                if delta < 0:
                    tour[i:j + 1] = reversed(tour[i:j + 1])
                    improved = True
                    break
            if improved:
                break
    return tour



def q_tsp_2opt_gap_cells(sf_dir: str):
    """Heuristic-vs-optimal TSP audit over the same 12 busiest cells
    as held_karp_tsp_cells — the approximation-gap measurement every
    routing team runs before trusting a heuristic: nearest-neighbor
    construction, then deterministic first-improvement 2-OPT descent
    to a local optimum, against the exact Held-Karp cost (the
    cross-operator invariant nn ≥ 2opt ≥ optimal is ASSERTED
    in-operator — 2-opt can only improve, the DP is a certified
    floor). The famous lesson pinned in tests: 2-opt locally optimal
    ≠ globally optimal. Same L1 lattice distances; all three costs
    ship. Sidecar replays construction + descent with identical
    deterministic rules over SQL-selected cells."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n": g["count_all"].cast(pa.int64())})

    cells = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("cell").sum("n")).to_pandas()
    cells.columns = ["cell", "n"]
    cells = cells.sort_values(["n", "cell"],
                              ascending=[False, True]).head(_TSP_K)
    cc = np.sort(cells["cell"].to_numpy(np.int64))
    tx = cc >> 22
    ty = cc & ((1 << 22) - 1)
    dist = (np.abs(tx[:, None] - tx[None, :])
            + np.abs(ty[:, None] - ty[None, :])).astype(np.int64) \
        .tolist()
    nn = _nn_tour(dist)
    nn_cost = _tour_cost(dist, nn)
    t2 = _two_opt(dist, nn)
    t2_cost = _tour_cost(dist, t2)
    opt = _held_karp(dist)
    if not (nn_cost >= t2_cost >= opt):
        raise AssertionError("heuristic ordering violated")
    return pd.DataFrame({
        "n_cities": np.array([len(cc)], np.int64),
        "nn_cost": np.array([nn_cost], np.int64),
        "two_opt_cost": np.array([t2_cost], np.int64),
        "optimal_cost": np.array([opt], np.int64)})



QUERIES["tsp_2opt_gap_cells"] = q_tsp_2opt_gap_cells



def _t2o_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_t2o_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        con = duckdb.connect()
        files = sorted(glob.glob(f"{img}/part-*.parquet"))
        cc = [r[0] for r in con.execute(f"""
            WITH t AS (SELECT
                (CAST(floor(lon * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  * (1 << 22)
                + (CAST(floor(lat * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  AS cell
                FROM read_parquet({files!r}))
            SELECT cell FROM t GROUP BY 1
            ORDER BY COUNT(*) DESC, cell LIMIT {_TSP_K}
        """).fetchall()]
        cc = np.sort(np.array(cc, np.int64))
        tx = cc >> 22
        ty = cc & ((1 << 22) - 1)
        dist = (np.abs(tx[:, None] - tx[None, :])
                + np.abs(ty[:, None] - ty[None, :])) \
            .astype(np.int64).tolist()
        nn = _nn_tour(dist)
        t2 = _two_opt(dist, nn)
        out = pa.Table.from_pylist([{
            "n_cities": len(cc),
            "nn_cost": _tour_cost(dist, nn),
            "two_opt_cost": _tour_cost(dist, t2),
            "optimal_cost": _tsp_memo(tuple(map(tuple, dist)))}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _t2o_sql(img: str) -> str:
    return (f"SELECT n_cities, nn_cost, two_opt_cost, optimal_cost "
            f"FROM read_parquet('{_t2o_sidecar(img)}')")



# ---------------------------------------------------------------------------
# astar_cells: A* vs Dijkstra expansion audit on the occupied-cell grid
# ---------------------------------------------------------------------------


def _grid_search(occ: set, a: int, b: int, use_h: bool) -> tuple:
    """(dist, expansions): unit-cost search from a to b over
    4-adjacent occupied cells — Dijkstra when use_h is False, A*
    with the MANHATTAN heuristic (admissible AND consistent on a
    unit grid, so the first expansion of b is optimal) when True.
    Deterministic heap ties: (f, −g, cell) — the standard
    prefer-DEEPER-g rule, without which A* expands entire
    f-plateaus (corner-to-corner on a Manhattan grid keeps f
    constant along every monotone path, so the tie rule IS the
    speedup; caught by the open-grid pin). Expansions = pops of
    not-yet-settled nodes."""
    import heapq

    def hfun(c):
        if not use_h:
            return 0
        tx, ty = c >> 22, c & ((1 << 22) - 1)
        bx, by = b >> 22, b & ((1 << 22) - 1)
        return abs(tx - bx) + abs(ty - by)

    g = {a: 0}
    pq_ = [(hfun(a), 0, a)]
    settled = set()
    exp = 0
    while pq_:
        f, negg, u = heapq.heappop(pq_)
        gc = -negg
        if u in settled:
            continue
        settled.add(u)
        exp += 1
        if u == b:
            return gc, exp
        tx, ty = u >> 22, u & ((1 << 22) - 1)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            v = ((tx + dx) << 22) + (ty + dy)
            if v in occ and v not in settled:
                ng = gc + 1
                if ng < g.get(v, 1 << 60):
                    g[v] = ng
                    heapq.heappush(pq_, (ng + hfun(v), -ng, v))
    return -1, exp



def q_astar_cells(sf_dir: str):
    """A* vs Dijkstra over the occupied-cell grid between the two
    busiest cells — the heuristic-search primitive measured, not
    asserted: the Manhattan heuristic is admissible AND consistent
    on a unit grid, so A* returns the SAME optimal distance (checked
    in-operator) while expanding a subset of the nodes Dijkstra
    settles (expansions_a ≤ expansions_d, also asserted) — the
    entire value proposition of goal-directed search in one row.
    Deterministic (f, g, cell) heap ties. Cell occupancy contracts
    from batch partials; the graph is cell-scale. Sidecar replays
    both searches over SQL-derived cells; corridor and open-grid
    pins in tests."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["lon", "lat"])

    def prep(t: pa.Table) -> pa.Table:
        x = t["lon"].to_numpy(zero_copy_only=False)
        y = t["lat"].to_numpy(zero_copy_only=False)
        ix = np.floor(x * 1e6).astype(np.int64)
        iy = np.floor(y * 1e6).astype(np.int64)
        cell = (ix >> _MST_SHIFT) * (1 << 22) + (iy >> _MST_SHIFT)
        g = pa.table({"cell": pa.array(cell)}).group_by("cell") \
            .aggregate([([], "count_all")])
        return pa.table({"cell": g["cell"],
                         "n": g["count_all"].cast(pa.int64())})

    cells = (ds.map_batches(prep, batch_format="pyarrow")
             .groupby("cell").sum("n")).to_pandas()
    cells.columns = ["cell", "n"]
    occ = set(int(c) for c in cells["cell"])
    top = cells.sort_values(["n", "cell"],
                            ascending=[False, True]).head(2)
    a, b = sorted(int(c) for c in top["cell"])
    dd, ed = _grid_search(occ, a, b, use_h=False)
    da, ea = _grid_search(occ, a, b, use_h=True)
    if dd != da or ea > ed:
        raise AssertionError("A* optimality/efficiency violated")
    return pd.DataFrame({
        "cell_a": np.array([a], np.int64),
        "cell_b": np.array([b], np.int64),
        "dist": np.array([dd], np.int64),
        "expanded_dijkstra": np.array([ed], np.int64),
        "expanded_astar": np.array([ea], np.int64)})



QUERIES["astar_cells"] = q_astar_cells



def _astar_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_astar_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        con = duckdb.connect()
        files = sorted(glob.glob(f"{img}/part-*.parquet"))
        rows = con.execute(f"""
            SELECT
                (CAST(floor(lon * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  * (1 << 22)
                + (CAST(floor(lat * 1e6) AS BIGINT) >> {_MST_SHIFT})
                  AS cell, COUNT(*) AS n
            FROM read_parquet({files!r}) GROUP BY 1""").fetchall()
        occ = {int(c): int(n) for c, n in rows}
        top = sorted(occ.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        a, b = sorted(c for c, _n in top)
        oset = set(occ)
        dd, ed = _grid_search(oset, a, b, use_h=False)
        da, ea = _grid_search(oset, a, b, use_h=True)
        assert dd == da and ea <= ed
        out = pa.Table.from_pylist([{
            "cell_a": a, "cell_b": b, "dist": dd,
            "expanded_dijkstra": ed, "expanded_astar": ea}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _astar_sql(img: str) -> str:
    return (f"SELECT cell_a, cell_b, dist, expanded_dijkstra, "
            f"expanded_astar FROM read_parquet('{_astar_sidecar(img)}')")



# ---------------------------------------------------------------------------
# lazy_segtree_days: range-add/range-sum service-load audit
# ---------------------------------------------------------------------------


class _LazySegTree:
    """Range-add / range-sum segment tree with lazy propagation —
    the O(log n) structure every interval-update workload leans on."""

    def __init__(self, n: int):
        self.n = n
        self.sum = [0] * (4 * n)
        self.lz = [0] * (4 * n)

    def _push(self, node, lo, hi):
        if self.lz[node]:
            mid = (lo + hi) // 2
            for ch, clo, chi in ((2 * node, lo, mid),
                                 (2 * node + 1, mid + 1, hi)):
                self.sum[ch] += self.lz[node] * (chi - clo + 1)
                self.lz[ch] += self.lz[node]
            self.lz[node] = 0

    def add(self, ql, qr, v, node=1, lo=0, hi=None):
        if hi is None:
            hi = self.n - 1
        if qr < lo or hi < ql:
            return
        if ql <= lo and hi <= qr:
            self.sum[node] += v * (hi - lo + 1)
            self.lz[node] += v
            return
        self._push(node, lo, hi)
        mid = (lo + hi) // 2
        self.add(ql, qr, v, 2 * node, lo, mid)
        self.add(ql, qr, v, 2 * node + 1, mid + 1, hi)
        self.sum[node] = self.sum[2 * node] + self.sum[2 * node + 1]

    def query(self, ql, qr, node=1, lo=0, hi=None):
        if hi is None:
            hi = self.n - 1
        if qr < lo or hi < ql:
            return 0
        if ql <= lo and hi <= qr:
            return self.sum[node]
        self._push(node, lo, hi)
        mid = (lo + hi) // 2
        return self.query(ql, qr, 2 * node, lo, mid) \
            + self.query(ql, qr, 2 * node + 1, mid + 1, hi)



def q_lazy_segtree_days(sf_dir: str):
    """Service-load audit: every order occupies a 7-day fulfillment
    window [day, day+6], and 64 splitmix-drawn day RANGES ask for
    total order-days of load — interleaved range-ADDs and range-SUMs
    answered by a lazy-propagation segment tree in O(log n) each,
    the structure under every interval-billing and occupancy engine
    (and the reason 'just use a diff array' fails once queries
    interleave with updates). Updates contract to (day, count)
    cells first, so the tree sees one add per distinct day. The
    INDEPENDENT replay answers every query from a difference-array
    + prefix-sum rebuild — no tree, valid here because the audit's
    query set runs after all updates; agreement checks the lazy
    pushdown logic. Probes ship via sidecar; interleaved-mode pins
    live in tests."""
    from geotile.synth import splitmix64

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
    lo = int(days["day"].min())
    hi = int(days["day"].max()) + 6
    D = hi - lo + 1
    st = _LazySegTree(D)
    for d, n in zip(days["day"].to_numpy(np.int64),
                    days["n"].to_numpy(np.int64)):
        st.add(int(d) - lo, int(d) - lo + 6, int(n))
    qa = (splitmix64(np.arange(_STAB_Q, dtype=np.uint64)
                     + np.uint64(99)) % np.uint64(D)).astype(np.int64)
    qb = (splitmix64(np.arange(_STAB_Q, dtype=np.uint64)
                     + np.uint64(199)) % np.uint64(D)).astype(np.int64)
    ql = np.minimum(qa, qb)
    qr = np.maximum(qa, qb)
    out = [st.query(int(l), int(r)) for l, r in zip(ql, qr)]
    return pd.DataFrame({
        "qid": np.arange(_STAB_Q, dtype=np.int64),
        "lo_day": (ql + lo).astype(np.int64),
        "hi_day": (qr + lo).astype(np.int64),
        "load": np.array(out, np.int64)})



QUERIES["lazy_segtree_days"] = q_lazy_segtree_days



def _segtree_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "segtree-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_segtree_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') GROUP BY 1"
        ).fetchall()
        lo = min(int(d) for d, _ in rows)
        hi = max(int(d) for d, _ in rows) + 6
        D = hi - lo + 1
        diff = [0] * (D + 1)
        for d, n in rows:
            diff[int(d) - lo] += int(n)
            diff[int(d) - lo + 7] -= int(n)
        load = []
        run = 0
        for i in range(D):
            run += diff[i]
            load.append(run)
        pre = [0]
        for x in load:
            pre.append(pre[-1] + x)
        qa = (splitmix64(np.arange(_STAB_Q, dtype=np.uint64)
                         + np.uint64(99))
              % np.uint64(D)).astype(np.int64)
        qb = (splitmix64(np.arange(_STAB_Q, dtype=np.uint64)
                         + np.uint64(199))
              % np.uint64(D)).astype(np.int64)
        ql = np.minimum(qa, qb)
        qr = np.maximum(qa, qb)
        out_rows = []
        for q in range(_STAB_Q):
            l, r = int(ql[q]), int(qr[q])
            out_rows.append({"qid": q, "lo_day": l + lo,
                             "hi_day": r + lo,
                             "load": pre[r + 1] - pre[l]})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _segtree_sql(sf_dir: str) -> str:
    return (f"SELECT qid, lo_day, hi_day, load "
            f"FROM read_parquet('{_segtree_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# cuckoo_insert_orders: two-table cuckoo hashing eviction audit
# ---------------------------------------------------------------------------

_CK_TBL = 64        # per-table slots (two tables)

_CK_MAXKICK = 500



def _cuckoo_insert(keys) -> tuple:
    """(placed, kicked_total, max_chain, failed): classic two-table
    cuckoo insertion — try table 1's slot, else evict its occupant
    to ITS alternate slot, chaining until a hole or the kick budget;
    a budget bust marks a failed insert (a real table would rehash).
    Deterministic given key order."""
    t1 = [None] * _CK_TBL
    t2 = [None] * _CK_TBL
    kicked = 0
    mx = 0
    failed = 0
    placed = 0

    def h1(k):
        return _sm64_scalar_rho(k) % _CK_TBL

    def h2(k):
        return _sm64_scalar_rho(k ^ 0xD1B54A32) % _CK_TBL

    for k in keys:
        cur = int(k)
        table = 1
        chain = 0
        ok = False
        for _ in range(_CK_MAXKICK):
            if table == 1:
                s = h1(cur)
                if t1[s] is None:
                    t1[s] = cur
                    ok = True
                    break
                t1[s], cur = cur, t1[s]
                table = 2
            else:
                s = h2(cur)
                if t2[s] is None:
                    t2[s] = cur
                    ok = True
                    break
                t2[s], cur = cur, t2[s]
                table = 1
            chain += 1
        kicked += chain
        mx = max(mx, chain)
        if ok:
            placed += 1
        else:
            failed += 1
    return placed, kicked, mx, failed



def q_cuckoo_insert_orders(sf_dir: str):
    """Two-table cuckoo hashing insertion audit over the 96 smallest
    orderkeys at 75% load — the THIRD open-slot discipline beside
    probing (open_addressing_weekly) and balls-in-bins
    (two_choice_load_orders): cuckoo guarantees O(1) worst-case
    LOOKUP (exactly two slots ever) by paying at INSERT time with
    eviction chains — the kicked-total and max-chain columns ARE
    that price, and a kick-budget bust (the rehash trigger in a real
    table) ships as the failed count. Placed + failed = n asserted
    in-operator; deterministic given the sorted key order. The key
    scan contracts to smallest-k partials. Sidecar replays the same
    machine with a dict-based table over SQL keys; lookup-in-two-
    slots and forced-cycle pins in tests."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        k = np.sort(t["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(k[:96].astype(np.int64))})

    parts = orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    keys = np.sort(np.array([r["k"] for r in parts],
                            np.int64))[:96].tolist()
    placed, kicked, mx, failed = _cuckoo_insert(keys)
    if placed + failed != len(keys):
        raise AssertionError("cuckoo conservation violated")
    return pd.DataFrame({
        "n_keys": np.array([len(keys)], np.int64),
        "placed": np.array([placed], np.int64),
        "kicked_total": np.array([kicked], np.int64),
        "max_chain": np.array([mx], np.int64),
        "failed": np.array([failed], np.int64)})



QUERIES["cuckoo_insert_orders"] = q_cuckoo_insert_orders



def _cuckoo_insert_dict(keys) -> tuple:
    """INDEPENDENT replay: dict-of-slots mechanization of the same
    eviction machine."""
    tables = [{}, {}]
    salts = [0, 0xD1B54A32]
    kicked = mx = failed = placed = 0
    for k in keys:
        cur = int(k)
        ti = 0
        chain = 0
        ok = False
        for _ in range(_CK_MAXKICK):
            s = _sm64_scalar_rho(cur ^ salts[ti]) % _CK_TBL
            if s not in tables[ti]:
                tables[ti][s] = cur
                ok = True
                break
            tables[ti][s], cur = cur, tables[ti][s]
            ti = 1 - ti
            chain += 1
        kicked += chain
        mx = max(mx, chain)
        if ok:
            placed += 1
        else:
            failed += 1
    return placed, kicked, mx, failed



def _cuckoo_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "cuckoo-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_cuckoo_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [int(r[0]) for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1 LIMIT 96").fetchall()]
        placed, kicked, mx, failed = _cuckoo_insert_dict(ks)
        out = pa.Table.from_pylist([{
            "n_keys": len(ks), "placed": placed,
            "kicked_total": kicked, "max_chain": mx,
            "failed": failed}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _cuckoo_sql(sf_dir: str) -> str:
    return (f"SELECT n_keys, placed, kicked_total, max_chain, failed "
            f"FROM read_parquet('{_cuckoo_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# lca_binarylift_dups: lowest common ancestors in the dup BFS tree
# ---------------------------------------------------------------------------

_LCA_Q = 16



def _bfs_tree(adj: dict, root):
    """(parent, depth, order) of the BFS tree from root, neighbors
    visited in sorted order — deterministic tree shape."""
    from collections import deque

    parent = {root: root}
    depth = {root: 0}
    order = [root]
    dq = deque([root])
    while dq:
        u = dq.popleft()
        for v in sorted(adj.get(u, ())):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                order.append(v)
                dq.append(v)
    return parent, depth, order



def _lca_binary_lift(parent: dict, depth: dict, pairs) -> list:
    """LCA by BINARY LIFTING: up[k][v] = 2^k-th ancestor; lift the
    deeper node to equal depth, then lift both past every power of
    two where they differ. O(n log n) prep, O(log n) per query."""
    nodes = sorted(parent)
    maxd = max(depth.values()) if depth else 0
    K = max(1, maxd.bit_length())
    up = [{v: parent[v] for v in nodes}]
    for k in range(1, K):
        up.append({v: up[k - 1][up[k - 1][v]] for v in nodes})

    def lca(u, v):
        if depth[u] < depth[v]:
            u, v = v, u
        diff = depth[u] - depth[v]
        for k in range(K):
            if diff >> k & 1:
                u = up[k][u]
        if u == v:
            return u
        for k in range(K - 1, -1, -1):
            if up[k][u] != up[k][v]:
                u = up[k][u]
                v = up[k][v]
        return parent[u]

    return [lca(u, v) for u, v in pairs]



def _lca_euler_rmq(parent: dict, depth: dict, order, pairs) -> list:
    """INDEPENDENT replay: the Euler-tour + range-minimum reduction —
    DFS writes (depth, node) at every visit, LCA(u, v) is the
    minimum-depth entry between first occurrences, answered by the
    repo's _rmq_sparse table. A different algorithm family (tour +
    RMQ, no ancestor tables)."""
    root = order[0]
    children: dict = {}
    for v in parent:
        if v != root:
            children.setdefault(parent[v], []).append(v)
    tour = []
    first = {}
    stack = [(root, iter(sorted(children.get(root, []))))]
    first[root] = 0
    tour.append(root)
    while stack:
        u, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
            continue
        tour.append(nxt)
        first.setdefault(nxt, len(tour) - 1)
        stack.append((nxt, iter(sorted(children.get(nxt, [])))))
    darr = np.array([depth[v] for v in tour], np.int64)
    tabs = _rmq_sparse(darr)
    out = []
    for u, v in pairs:
        i, j = first[u], first[v]
        if i > j:
            i, j = j, i
        _mn, pos = _rmq_query(tabs, len(darr),
                              np.array([i], np.int64),
                              np.array([j], np.int64))
        out.append(tour[int(pos[0])])
    return out



def q_lca_binarylift_dups(sf_dir: str):
    """Lowest-common-ancestor queries over the largest near-dup
    component's BFS tree — the tree-query primitive under taxonomy
    lookups, merge-base computation (git!) and network routing: 16
    drawn node pairs answered by BINARY LIFTING, with the tree
    identity dist(u,v) = d(u)+d(v)−2·d(lca) asserted against an
    independent BFS distance for every query in-operator. The BFS
    tree is deterministic (sorted neighbor order, smallest-vertex
    root). INDEPENDENT replay reduces LCA to EULER TOUR + the
    repo's sparse-table RMQ — Bender-Farach-Colton's other family,
    no ancestor tables; chain/star pins in tests."""
    from collections import deque

    from battery.ops.dedup import embedding_dup_pairs
    from geotile.synth import splitmix64

    pairs_t = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    adj: dict = {}
    for r in pairs_t:
        a, b = int(r["a"]), int(r["b"])
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    if not adj:          # no dup pairs at all (edge corpora)
        return pd.DataFrame({
            "qid": pd.Series(dtype="int64"),
            "u": pd.Series(dtype="int64"),
            "v": pd.Series(dtype="int64"),
            "lca": pd.Series(dtype="int64"),
            "dist": pd.Series(dtype="int64")})
    comp = _largest_component(adj)
    root = min(comp)
    sub = {v: {w for w in adj[v] if w in comp} for v in comp}
    parent, depth, order = _bfs_tree(sub, root)
    nodes = sorted(parent)
    qa = (splitmix64(np.arange(_LCA_Q, dtype=np.uint64)
                     + np.uint64(55)) % np.uint64(len(nodes)))
    qb = (splitmix64(np.arange(_LCA_Q, dtype=np.uint64)
                     + np.uint64(155)) % np.uint64(len(nodes)))
    qpairs = [(nodes[int(i)], nodes[int(j)]) for i, j in zip(qa, qb)]
    ls = _lca_binary_lift(parent, depth, qpairs)
    # tree-distance identity vs BFS distance in the TREE
    tadj: dict = {}
    for v, p in parent.items():
        if v != p:
            tadj.setdefault(v, set()).add(p)
            tadj.setdefault(p, set()).add(v)
    for (u, v), w in zip(qpairs, ls):
        dq = deque([u])
        dist = {u: 0}
        while dq:
            x = dq.popleft()
            for y in tadj.get(x, ()):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        if dist.get(v, -1) != depth[u] + depth[v] - 2 * depth[w]:
            raise AssertionError("LCA distance identity broken")
    return pd.DataFrame({
        "qid": np.arange(_LCA_Q, dtype=np.int64),
        "u": np.array([p[0] for p in qpairs], np.int64),
        "v": np.array([p[1] for p in qpairs], np.int64),
        "lca": np.array(ls, np.int64),
        "dist": np.array([depth[u] + depth[v] - 2 * depth[w]
                          for (u, v), w in zip(qpairs, ls)],
                         np.int64)})



def _largest_component(adj: dict) -> set:
    seen = set()
    best: set = set()
    for s in sorted(adj):
        if s in seen:
            continue
        comp = {s}
        dq = [s]
        while dq:
            u = dq.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    dq.append(v)
        seen |= comp
        if len(comp) > len(best) or (len(comp) == len(best)
                                     and min(comp) < min(best)):
            best = comp
    return best



QUERIES["lca_binarylift_dups"] = q_lca_binarylift_dups



def _lca_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "lca-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lca_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        adj: dict = {}
        for a, b, _c in rows:
            a, b = int(a), int(b)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        comp = _largest_component(adj)
        root = min(comp)
        sub = {v: {w for w in adj[v] if w in comp} for v in comp}
        parent, depth, order = _bfs_tree(sub, root)
        nodes = sorted(parent)
        qa = (splitmix64(np.arange(_LCA_Q, dtype=np.uint64)
                         + np.uint64(55)) % np.uint64(len(nodes)))
        qb = (splitmix64(np.arange(_LCA_Q, dtype=np.uint64)
                         + np.uint64(155)) % np.uint64(len(nodes)))
        qpairs = [(nodes[int(i)], nodes[int(j)])
                  for i, j in zip(qa, qb)]
        ls = _lca_euler_rmq(parent, depth, order, qpairs)
        out = pa.Table.from_pylist([
            {"qid": q, "u": u, "v": v, "lca": w,
             "dist": depth[u] + depth[v] - 2 * depth[w]}
            for q, ((u, v), w) in enumerate(zip(qpairs, ls))])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lca_sql(sf_dir: str) -> str:
    return (f"SELECT qid, u, v, lca, dist "
            f"FROM read_parquet('{_lca_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# zeller_dow_orders: Zeller's congruence day-of-week census
# ---------------------------------------------------------------------------


def _zeller_dow(y: np.ndarray, m: np.ndarray, d: np.ndarray):
    """Zeller's congruence (Gregorian), vectorized: h = (d +
    ⌊13(m+1)/5⌋ + K + ⌊K/4⌋ + ⌊J/4⌋ + 5J) mod 7 with Jan/Feb
    counted as months 13/14 of the previous year; h: 0=Saturday.
    Remapped to ISO 1=Mon..7=Sun for comparison."""
    y = y.astype(np.int64).copy()
    m = m.astype(np.int64).copy()
    adj = m <= 2
    m = np.where(adj, m + 12, m)
    y = np.where(adj, y - 1, y)
    K = y % 100
    J = y // 100
    h = (d + (13 * (m + 1)) // 5 + K + K // 4 + J // 4 + 5 * J) % 7
    # h: 0=Sat 1=Sun 2=Mon … → ISO 1=Mon..7=Sun
    return (h + 5) % 7 + 1

__defined__ = (
    '_CELF_K',
    '_CK_MAXKICK',
    '_CK_TBL',
    '_CRC_POLY',
    '_CRC_TBL',
    '_CS_D',
    '_CS_PROBE',
    '_CS_SALTC',
    '_CS_SALTS',
    '_CS_W',
    '_DISK_CYL',
    '_FM_M',
    '_FM_PHI',
    '_Fenwick',
    '_GK_EPS_INV',
    '_H74_N',
    '_LCA_Q',
    '_LEHMER_M',
    '_LP_K',
    '_LazySegTree',
    '_OA_TBL',
    '_P2C_BINS',
    '_P2C_SALT',
    '_RSA_E',
    '_RSA_N',
    '_RSA_P',
    '_RSA_Q',
    '_SHAP_K',
    '_STAB_GAP',
    '_STAB_Q',
    '_WIN_K',
    '_WIN_W',
    '_XF_FP_BITS',
    '_astar_sidecar',
    '_astar_sql',
    '_bfs_tree',
    '_bwt_inverse_columns',
    '_bwt_inverse_lf',
    '_bwt_inverse_pairs',
    '_bwt_rotations',
    '_bwt_sa',
    '_bwtrt_sidecar',
    '_bwtrt_sql',
    '_celf_sidecar',
    '_celf_sql',
    '_crc32_bitwise',
    '_crc32_tab',
    '_crc32_table',
    '_crc_sidecar',
    '_crc_sql',
    '_cs_cells',
    '_cs_estimate',
    '_cs_sidecar',
    '_cs_sql',
    '_cuckoo_insert',
    '_cuckoo_insert_dict',
    '_cuckoo_sidecar',
    '_cuckoo_sql',
    '_ear_clip',
    '_ear_sidecar',
    '_ear_sql',
    '_eh_sidecar',
    '_eh_sql',
    '_fm_first_zero_sum',
    '_fm_sidecar',
    '_fm_sql',
    '_fm_state',
    '_gf2_sidecar',
    '_gf2_sql',
    '_gk_build',
    '_gk_query',
    '_gk_sidecar',
    '_gk_sql',
    '_gram_hashes',
    '_greedy_cover_celf',
    '_greedy_cover_plain',
    '_grid_search',
    '_h74_decode',
    '_h74_decode_table',
    '_h74_encode',
    '_h74_sidecar',
    '_h74_sql',
    '_hist_rect_brute',
    '_hist_rect_stack',
    '_hrect_sidecar',
    '_hrect_sql',
    '_hrw_bucket',
    '_hrwj_sidecar',
    '_hrwj_sql',
    '_hull_width_brute',
    '_hull_width_frac',
    '_hwidth_sidecar',
    '_hwidth_sql',
    '_jump_bucket',
    '_largest_component',
    '_lca_binary_lift',
    '_lca_euler_rmq',
    '_lca_sidecar',
    '_lca_sql',
    '_lehmer_rank_bit',
    '_lehmer_rank_brute',
    '_lehmer_sidecar',
    '_lehmer_sql',
    '_lp_bsearch',
    '_lp_dp',
    '_lp_sidecar',
    '_lp_sql',
    '_luhn_check_digit',
    '_min_swaps_simulate',
    '_mtf_codes',
    '_mtf_codes_identity',
    '_mtf_sidecar',
    '_mtf_sql',
    '_nn_tour',
    '_oa_probes',
    '_oa_probes_dict',
    '_oa_sidecar',
    '_oa_sql',
    '_online_rank_sum_bit',
    '_osa_distance',
    '_osa_memo',
    '_osa_sidecar',
    '_osa_sql',
    '_p2c_loads',
    '_p2c_loads_replay',
    '_p2c_sidecar',
    '_p2c_sql',
    '_perm_cycles',
    '_powmod_sqmul',
    '_rank_gf2',
    '_rank_gf2_elim',
    '_rolling_median2',
    '_rsa_d',
    '_rsa_sidecar',
    '_rsa_sql',
    '_segtree_sidecar',
    '_segtree_sql',
    '_shap_sidecar',
    '_shap_sql',
    '_shoelace2',
    '_shubik_pivots_dp',
    '_shubik_pivots_enum',
    '_stab_probes_sidecar',
    '_stab_sql',
    '_stein_gcd_vec',
    '_swaps_sidecar',
    '_swaps_sql',
    '_t2o_sidecar',
    '_t2o_sql',
    '_tour_cost',
    '_ttc_allocate',
    '_ttc_allocate_pointer',
    '_ttc_sidecar',
    '_ttc_sql',
    '_two_opt',
    '_vote_sidecar',
    '_vote_sql',
    '_vote_winners',
    '_vote_winners_recount',
    '_walk_traces',
    '_walk_traces_dp',
    '_walks_from_pairs',
    '_walks_sidecar',
    '_walks_sql',
    '_widest_dijkstra',
    '_widest_sidecar',
    '_widest_sql',
    '_widest_threshold_bfs',
    '_wiener_bfs',
    '_wiener_from_pairs',
    '_wiener_fw',
    '_wiener_sidecar',
    '_wiener_sql',
    '_winnow_deque',
    '_winnow_sidecar',
    '_winnow_sql',
    '_winnow_vec',
    '_xf_build',
    '_xf_contains',
    '_xf_hashes',
    '_xf_sidecar',
    '_xf_sql',
    '_zeller_dow',
    'q_astar_cells',
    'q_bwt_roundtrip_docs',
    'q_celf_coverage_tiles',
    'q_count_sketch_users',
    'q_crc32_docs',
    'q_cuckoo_insert_orders',
    'q_disk_scan_weekly',
    'q_ear_clip_routes',
    'q_eh_window_counts_users',
    'q_fenwick_online_ranks_weekly',
    'q_fm_pcsa_users',
    'q_gcd_census_orders',
    'q_gk_quantiles_orders',
    'q_hamming74_tracks',
    'q_histogram_rect_days',
    'q_hrw_jump_rebalance_orders',
    'q_hull_width_cells',
    'q_lazy_segtree_days',
    'q_lca_binarylift_dups',
    'q_lehmer_rank_weekly',
    'q_linear_partition_days',
    'q_luhn_audit_orders',
    'q_min_swaps_weekly',
    'q_mtf_codes_docs',
    'q_open_addressing_weekly',
    'q_osa_adjacent_docs',
    'q_rank_gf2_sources',
    'q_rolling_median_days',
    'q_rsa_roundtrip_orders',
    'q_secretary_rule_weekly',
    'q_shapley_power_nations',
    'q_stab_count_sessions',
    'q_tsp_2opt_gap_cells',
    'q_ttc_exchange_nations',
    'q_two_choice_load_orders',
    'q_voting_methods_nations',
    'q_walk_counts_dups',
    'q_widest_path_cells',
    'q_wiener_index_dups',
    'q_winnowing_docs',
    'q_xor_filter_orders',
)
