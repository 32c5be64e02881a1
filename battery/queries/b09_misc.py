"""Query battery part — 39 driver queries (split from the former single-module queries.py).

Registers:
block_match_motion_clips, dtw_adjacent_tracks, viterbi_segments_users,
border_census_docs, aho_corasick_docs, hungarian_match_nations,
hough_peak_images, mst_cells_tiles, gotoh_adjacent_docs,
rho_cycle_orders, rmq_day_ranges, ffd_binpack_weekly, obst_sources,
kadane_priority_days, sliding_extrema_days, moore_hodgson_weekly,
hopcroft_karp_dups, manacher_docs, max_submatrix_images,
dinic_flow_nations, gale_shapley_nations, rect_union_cells,
ntt_lag_xcorr, hull_diameter_cells, btree_buildplan_orders,
stoer_wagner_dups, held_karp_tsp_cells, radix_trie_sources,
elias_universal_bits_users, life_census_images, probe_count_weekly,
json_props_stats, stress_centrality_dups, boruvka_mst_cells,
apriori_triples_docs, rs_erasure_weekly, lz77_parse_docs,
mcmf_nations, scc_census_orders
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
    _image_dir_for,
    _mods_digest,
    _oracle_cache_dir,
    _read,
)  # noqa: F401

from .b02_events import (
    _audio_dir_for,
)  # noqa: F401

from .b03_misc import (
    _video_dir_for,
)  # noqa: F401

from .b08_misc import (
    _bm_stats_naive,
    _bm_stats_vec,
)  # noqa: F401



def q_block_match_motion_clips(sf_dir: str):
    """Full-search block-matching motion estimation per clip — the
    inner loop of every hybrid video coder (H.26x/AV1 inter
    prediction) and the motion-magnitude signal a training-data
    pipeline uses to split static from dynamic footage: per 8×8 luma
    block of each frame, the ±2-px full search over the previous
    frame, winner = lexicographic (SAD, |mv|₁, dy, dx) so the choice
    is unique and both engines agree exactly; outputs the clip's
    total best-SAD (residual energy after motion compensation —
    strictly ≤ the zero-motion frame delta that video_motion_energy
    measures), total motion-vector L1 mass, and the count of
    zero-motion blocks. Exact ints throughout. Clips are the parallel
    grain behind the rawseq codec gate; each clip is one vectorized
    25-candidate tensor sweep. INDEPENDENT bounds-checked per-block
    tuple-comparison replay over generator-rederived frames,
    cross-checked on random tensors."""
    from battery.ops.video import read_video_table

    ds = read_video_table(_video_dir_for(sf_dir))

    def stats(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"rawseq"}:
            raise NotImplementedError(
                f"no video codec for {sorted(codecs - {'rawseq'})}")
        ids = batch["clip_id"].to_numpy(zero_copy_only=False)
        nf = batch["n_frames"].to_numpy(zero_copy_only=False)
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out = {k: [] for k in ("clip_id", "n_blocks", "sad_total",
                               "mv_l1_total", "zero_mv_blocks")}
        for k in range(len(ids)):
            f, w, h = int(nf[k]), int(ws[k]), int(hs[k])
            frames = np.frombuffer(payloads[k], dtype=np.uint8) \
                .reshape(f, h, w, 3)
            nb, sad, l1, z = _bm_stats_vec(frames)
            out["clip_id"].append(int(ids[k]))
            out["n_blocks"].append(nb)
            out["sad_total"].append(sad)
            out["mv_l1_total"].append(l1)
            out["zero_mv_blocks"].append(z)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(stats, batch_format="pyarrow", batch_size=32)



QUERIES["block_match_motion_clips"] = q_block_match_motion_clips



def _bm_sidecar(vid: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_bm_{Path(vid).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(vid, columns=["clip_id"])
        ids = np.sort(t["clip_id"].to_numpy(zero_copy_only=False))
        rows = []
        for cid in ids.tolist():
            frames = _sy.video_frames(np.array([cid], np.int64))[0]
            nb, sad, l1, z = _bm_stats_naive(frames)
            rows.append({"clip_id": int(cid), "n_blocks": nb,
                         "sad_total": sad, "mv_l1_total": l1,
                         "zero_mv_blocks": z})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _bm_sql(vid: str) -> str:
    return (f"SELECT clip_id, n_blocks, sad_total, mv_l1_total, "
            f"zero_mv_blocks FROM read_parquet('{_bm_sidecar(vid)}')")



# ---------------------------------------------------------------------------
# dtw_adjacent_tracks: dynamic time warping between consecutive tracks
# ---------------------------------------------------------------------------

_DTW_LEN = 128   # decimation target: step = ceil(n / _DTW_LEN)



def _dtw_cost(a: np.ndarray, b: np.ndarray) -> int:
    """Exact DTW alignment cost (|·| ground cost, unconstrained path)
    between two int series, row-vectorized: the in-row recurrence
    cur[j] = c[j] + min(b[j], cur[j−1]) unrolls to a MIN-PLUS PREFIX
    SCAN — cur[j] = S[j] + min_{k≤j}(b[k] − S[k−1]) with S = cumsum(c)
    — so each row is one cumsum + one minimum.accumulate instead of a
    sequential cell loop (the all-ints identity that keeps DTW
    vectorizable without approximation)."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    prev = np.cumsum(np.abs(a[0] - b))
    for i in range(1, len(a)):
        c = np.abs(a[i] - b)
        S = np.cumsum(c)
        lo = np.empty(len(b), np.int64)
        lo[0] = prev[0]
        if len(b) > 1:
            np.minimum(prev[1:], prev[:-1], out=lo[1:])
        prev = S + np.minimum.accumulate(
            lo - np.concatenate((np.zeros(1, np.int64), S[:-1])))
    return int(prev[-1])



def _dtw_naive(a, b) -> int:
    """INDEPENDENT replay: the textbook O(nm) three-way-min cell DP in
    pure ints — no scan decomposition (a prefix-scan identity bug in
    the vectorized path cannot survive both)."""
    n, m = len(a), len(b)
    INF = float("inf")
    prev = [INF] * (m + 1)
    prev[0] = 0
    for i in range(1, n + 1):
        cur = [INF] * (m + 1)
        ai = int(a[i - 1])
        for j in range(1, m + 1):
            c = ai - int(b[j - 1])
            if c < 0:
                c = -c
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = c + best
        prev = cur
    return int(prev[m])



def q_dtw_adjacent_tracks(sf_dir: str):
    """Dynamic time warping between each consecutive track pair
    (t, t+1) over decimated PCM — THE elastic sequence distance
    (speech alignment, sensor matching, time-series dedup): unlike a
    lockstep L1 it forgives local tempo warps, so a time-stretched
    copy scores ~0 where every rigid distance explodes (pinned:
    element-repetition invariance). Exact int64 |·| costs end to end.
    The decimation happens BEFORE the shuffle so each track ships 128
    ints, not its payload (contract-then-pair); each track double-
    emits to pair keys (t−1, t) and the O(L²) DP runs inside a 2-row
    co-partition — at fleet scale pairs of neighbors co-locate by
    construction, no all-to-all. Per-row the DP is a min-plus prefix
    scan (see _dtw_cost). INDEPENDENT textbook cell-DP replay
    sidecar, cross-checked on random series."""
    from battery.ops.audio import read_audio_table

    ds = read_audio_table(_audio_dir_for(sf_dir))

    def emit(batch: pa.Table) -> pa.Table:
        codecs = set(batch["codec"].to_pylist())
        if codecs - {"pcm16"}:
            raise NotImplementedError(
                f"no audio codec for {sorted(codecs - {'pcm16'})}")
        ids = batch["track_id"].to_numpy(zero_copy_only=False)
        payloads = batch["bytes"].to_pylist()
        out_p, out_t, out_s = [], [], []
        for k in range(len(ids)):
            x = np.frombuffer(payloads[k], dtype=np.int16)
            step = max(1, -(-len(x) // _DTW_LEN))
            dec = x[::step].astype(np.int64)
            tid = int(ids[k])
            for p in (tid - 1, tid):
                if p < 0:
                    continue
                out_p.append(p)
                out_t.append(tid)
                out_s.append(dec)
        return pa.table({
            "pair": pa.array(out_p, pa.int64()),
            "tid": pa.array(out_t, pa.int64()),
            "s": pa.array([v.tolist() for v in out_s],
                          pa.list_(pa.int64()))})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) != 2:
            return pd.DataFrame({
                "track_a": pd.Series(dtype="int64"),
                "track_b": pd.Series(dtype="int64"),
                "n_a": pd.Series(dtype="int64"),
                "n_b": pd.Series(dtype="int64"),
                "dtw_cost": pd.Series(dtype="int64")})
        df = df.sort_values("tid")
        a = np.asarray(df["s"].iloc[0], np.int64)
        b = np.asarray(df["s"].iloc[1], np.int64)
        return pd.DataFrame({
            "track_a": np.array([df["tid"].iloc[0]], np.int64),
            "track_b": np.array([df["tid"].iloc[1]], np.int64),
            "n_a": np.array([len(a)], np.int64),
            "n_b": np.array([len(b)], np.int64),
            "dtw_cost": np.array([_dtw_cost(a, b)], np.int64)})

    return (ds.map_batches(emit, batch_format="pyarrow")
            .groupby("pair").map_groups(fold, batch_format="pandas"))



QUERIES["dtw_adjacent_tracks"] = q_dtw_adjacent_tracks



def _dtw_sidecar(aud: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_dtw_{Path(aud).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        t = pq.read_table(aud, columns=["track_id"])
        ids = np.sort(t["track_id"].to_numpy(zero_copy_only=False))
        rows = []
        for ta, tb in zip(ids.tolist(), ids.tolist()[1:]):
            sa = _sy.audio_samples(np.array([ta], np.int64))[0]
            sb = _sy.audio_samples(np.array([tb], np.int64))[0]
            step = max(1, -(-len(sa) // _DTW_LEN))
            a = sa[::step].astype(np.int64)
            b = sb[::step].astype(np.int64)
            rows.append({"track_a": int(ta), "track_b": int(tb),
                         "n_a": len(a), "n_b": len(b),
                         "dtw_cost": _dtw_naive(a, b)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _dtw_sql(aud: str) -> str:
    return (f"SELECT track_a, track_b, n_a, n_b, dtw_cost "
            f"FROM read_parquet('{_dtw_sidecar(aud)}')")



# ---------------------------------------------------------------------------
# viterbi_segments_users: optimal 2-state smoothing of event streams
# ---------------------------------------------------------------------------

_VIT_SWITCH = 2   # transition cost; emission mismatch costs 1

_VIT_HOT = ("purchase", "signup")



def _viterbi_fw(obs) -> tuple:
    """(min_cost, min_switches) of a 2-state path over a binary
    observation sequence: emission cost [state ≠ obs], transition
    cost _VIT_SWITCH per switch, both endpoints free. The DP runs on
    LEXICOGRAPHIC (cost, switches) pairs — the order is translation-
    invariant, so optimal substructure holds and the second component
    is the minimum switch count among min-cost paths (a unique,
    well-defined statistic even when the argmin path is not)."""
    if not len(obs):
        return 0, 0
    st = [(int(obs[0] != 0), 0), (int(obs[0] != 1), 0)]
    for o in obs[1:]:
        nxt = []
        for s in (0, 1):
            e = int(o != s)
            stay = (st[s][0] + e, st[s][1])
            c, w = st[1 - s]
            sw = (c + _VIT_SWITCH + e, w + 1)
            nxt.append(min(stay, sw))
        st = nxt
    return min(st)



def _viterbi_bw(obs) -> tuple:
    """INDEPENDENT replay: the same trellis relaxed RIGHT-TO-LEFT
    (suffix DP) — the problem is reversal-symmetric, so a directional
    or ordering bug in the forward pass cannot survive both. Brute
    2^n enumeration cross-checks small instances in tests."""
    n = len(obs)
    if not n:
        return 0, 0
    st = [(int(obs[n - 1] != 0), 0), (int(obs[n - 1] != 1), 0)]
    for i in range(n - 2, -1, -1):
        o = obs[i]
        nxt = []
        for s in (0, 1):
            e = int(o != s)
            stay = (st[s][0] + e, st[s][1])
            c, w = st[1 - s]
            sw = (c + _VIT_SWITCH + e, w + 1)
            nxt.append(min(stay, sw))
        st = nxt
    return min(st)



def q_viterbi_segments_users(sf_dir: str):
    """Viterbi 2-state segmentation of each user's event stream — HMM
    decoding, the sequence-labeling primitive (session intent
    segmentation, bot/burst detection, channel denoising): observation
    1 = conversion event (purchase/signup), and the optimal
    engaged/idle state path minimizes mismatches + 2·switches. One
    noisy blip inside a long idle run is absorbed (cost 1 < a
    round-trip's 4) while a sustained conversion run flips the state
    — exactly the smoothing a per-event classifier cannot do. Exact
    integer lexicographic (cost, switches) DP, so min_cost AND the
    min switch count among optimal paths are both well-defined.
    Events sort inside per-user co-partitions (users the parallel
    grain, bounded fan-in); the trellis is O(n·states). INDEPENDENT
    reversed-direction suffix-DP replay (reversal symmetry), brute
    2^n cross-check in tests."""
    ev = _read(sf_dir, "events",
               ["user_id", "ts", "event_id", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        hot = pc.is_in(t["event_type"],
                       value_set=pa.array(_VIT_HOT, pa.string()))
        return pa.table({
            "user_id": t["user_id"],
            "ts": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "eid": t["event_id"],
            "o": hot.cast(pa.int64())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "eid"], kind="stable")
        obs = df["o"].to_numpy(np.int64)
        c, w = _viterbi_fw(obs.tolist())
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_events": np.array([len(obs)], np.int64),
            "n_hot": np.array([int(obs.sum())], np.int64),
            "min_cost": np.array([c], np.int64),
            "min_switches": np.array([w], np.int64)})

    return (ev.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold, batch_format="pandas"))



QUERIES["viterbi_segments_users"] = q_viterbi_segments_users



def _viterbi_sidecar(sf_dir: str) -> str:
    """Backward-DP replay over the same event streams (DuckDB read,
    pure-Python suffix relaxation)."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "viterbi-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_viterbi_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        hot = ", ".join(f"'{h}'" for h in _VIT_HOT)
        rows = con.execute(
            f"SELECT user_id, CASE WHEN event_type IN ({hot}) "
            f"THEN 1 ELSE 0 END AS o FROM "
            f"read_parquet('{sf_dir}/events.parquet') "
            "ORDER BY user_id, ts, event_id").fetchall()
        seqs: dict[int, list[int]] = {}
        for uid, o in rows:
            seqs.setdefault(int(uid), []).append(int(o))
        out_rows = []
        for uid in sorted(seqs):
            obs = seqs[uid]
            c, w = _viterbi_bw(obs)
            out_rows.append({"user_id": uid, "n_events": len(obs),
                             "n_hot": sum(obs), "min_cost": c,
                             "min_switches": w})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _viterbi_sql(sf_dir: str) -> str:
    return (f"SELECT user_id, n_events, n_hot, min_cost, min_switches "
            f"FROM read_parquet('{_viterbi_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# border_census_docs: KMP prefix-function statistics per document
# ---------------------------------------------------------------------------


def _border_kmp(s: bytes) -> list:
    """The KMP prefix function π: π[i] = length of the longest proper
    border (prefix == suffix) of s[:i+1]. O(n) amortized."""
    n = len(s)
    pi = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = pi[k - 1]
        if s[i] == s[k]:
            k += 1
        pi[i] = k
    return pi



def _z_array(s: bytes) -> list:
    """Z-algorithm: Z[i] = length of the longest common prefix of s
    and s[i:] (Z[0] = n by convention). O(n), two-pointer window."""
    n = len(s)
    z = [0] * n
    if n:
        z[0] = n
    l = r = 0
    for i in range(1, n):
        if i < r:
            z[i] = min(r - i, z[i - l])
        while i + z[i] < n and s[z[i]] == s[i + z[i]]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + z[i]
    return z



def _border_from_z(s: bytes) -> list:
    """INDEPENDENT replay: π derived from the Z-array by the classic
    duality — Z[j] = L pins a border of length L ending at j+L−1, and
    borders shrink by at most 1 per step leftward, so a reverse
    max-fill completes π. A different recurrence family than KMP's
    self-referential while-loop; cross-checked against brute
    prefix==suffix scans in tests."""
    n = len(s)
    z = _z_array(s)
    pi = [0] * n
    for j in range(1, n):
        if z[j]:
            e = j + z[j] - 1
            if z[j] > pi[e]:
                pi[e] = z[j]
    for i in range(n - 2, -1, -1):
        if pi[i + 1] - 1 > pi[i]:
            pi[i] = pi[i + 1] - 1
    return pi



def q_border_census_docs(sf_dir: str):
    """KMP border (prefix-function) census per document: the longest
    border of every prefix, reduced to max border, Σπ (total
    self-overlap mass — the quantity that makes naive substring
    search quadratic and KMP linear), and the MINIMAL PERIOD
    n − π[n−1] — the periodicity detector (a doc whose min period ≪ n
    is a repeated template: boilerplate, scraped spam, log rotation),
    structure that bag-of-shingles dedup scores cannot localize.
    Exact ints; docs are the parallel grain, π is O(n) amortized per
    doc. INDEPENDENT Z-algorithm-duality replay (reverse max-fill,
    no KMP recurrence), both cross-checked against brute
    prefix==suffix scans on random strings."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = {k: [] for k in ("doc_id", "n", "max_border",
                               "sum_border", "min_period")}
        for k in range(len(ids)):
            s = texts[k].encode()
            pi = _border_kmp(s)
            out["doc_id"].append(int(ids[k]))
            out["n"].append(len(s))
            out["max_border"].append(max(pi) if pi else 0)
            out["sum_border"].append(sum(pi))
            out["min_period"].append(len(s) - pi[-1] if pi else 0)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["border_census_docs"] = q_border_census_docs



def _border_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "border-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_border_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            s = txt.encode()
            pi = _border_from_z(s)
            out_rows.append({
                "doc_id": int(did), "n": len(s),
                "max_border": max(pi) if pi else 0,
                "sum_border": sum(pi),
                "min_period": len(s) - pi[-1] if pi else 0})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _border_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n, max_border, sum_border, min_period "
            f"FROM read_parquet('{_border_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# aho_corasick_docs: multi-pattern occurrence census (goto/fail automaton)
# ---------------------------------------------------------------------------

_AC_PATTERNS = ("a", "at", "batch", "ta", "table", "scan", "an")



def _ac_build(patterns):
    """Aho-Corasick automaton: (goto dicts, fail links, merged output
    pattern-index lists). Output links are flattened during the BFS so
    every pattern ending at a state — including via fail chains ('an'
    inside 'scan') — fires in O(1) per hit."""
    from collections import deque

    nodes = [{}]
    out = [[]]
    for pi, p in enumerate(patterns):
        cur = 0
        for ch in p:
            nxt = nodes[cur].get(ch)
            if nxt is None:
                nodes.append({})
                out.append([])
                nxt = len(nodes) - 1
                nodes[cur][ch] = nxt
            cur = nxt
        out[cur].append(pi)
    fail = [0] * len(nodes)
    dq = deque(nodes[0].values())
    while dq:
        u = dq.popleft()
        for ch, v in nodes[u].items():
            dq.append(v)
            f = fail[u]
            while f and ch not in nodes[f]:
                f = fail[f]
            cand = nodes[f].get(ch, 0)
            fail[v] = cand if cand != v else 0
            out[v] = out[v] + out[fail[v]]
    return nodes, fail, out



def _ac_counts(auto, text: str, npat: int) -> list:
    """Per-pattern occurrence counts (overlaps included) in one pass."""
    nodes, fail, out = auto
    cnt = [0] * npat
    s = 0
    for ch in text:
        while s and ch not in nodes[s]:
            s = fail[s]
        s = nodes[s].get(ch, 0)
        for pi in out[s]:
            cnt[pi] += 1
    return cnt



def q_aho_corasick_docs(sf_dir: str):
    """Multi-pattern occurrence census per (source, pattern) over the
    corpus via an Aho-Corasick goto/fail automaton — THE dictionary-
    scan primitive (PII patterns, blocklists, contamination probes):
    one pass per document matches ALL patterns simultaneously,
    overlaps included, where k separate scans pay k passes and
    replace-based counting silently drops overlapping hits ('at'
    inside 'batch' fires via the fail chain, pinned). The pattern set
    shares prefixes and suffixes deliberately so goto, fail and
    merged-output links are all load-bearing. The automaton is built
    once per worker (pattern dictionary is broadcast-scale); docs are
    the parallel grain; per-batch (source, pattern) partials contract
    before a 140-cell groupby. PURE-SQL replay: position-unnest
    substring scan — a definitionally different counting procedure."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    npat = len(_AC_PATTERNS)

    def census(t: pa.Table) -> pa.Table:
        auto = _cached_ac()
        srcs = t["source"].to_pylist()
        texts = t["text"].to_pylist()
        agg: dict[tuple, list] = {}
        for src, txt in zip(srcs, texts):
            cnt = _ac_counts(auto, txt, npat)
            for pi, c in enumerate(cnt):
                if c:
                    a = agg.setdefault((src, pi), [0, 0])
                    a[0] += c
                    a[1] += 1
        keys = sorted(agg)
        return pa.table({
            "source": pa.array([k[0] for k in keys], pa.string()),
            "pattern": pa.array([_AC_PATTERNS[k[1]] for k in keys],
                                pa.string()),
            "n_occ": pa.array([agg[k][0] for k in keys], pa.int64()),
            "n_docs": pa.array([agg[k][1] for k in keys], pa.int64())})

    out = (ds.map_batches(census, batch_format="pyarrow")
           .groupby(["source", "pattern"]).sum(["n_occ", "n_docs"]))
    return out.map_batches(
        lambda t: t.rename_columns(["source", "pattern",
                                    "n_occ", "n_docs"]),
        batch_format="pyarrow")



def _cached_ac():
    from geotile.ops.join import _cached_stage

    return _cached_stage(("ac", _AC_PATTERNS),
                         lambda: _ac_build(_AC_PATTERNS))



QUERIES["aho_corasick_docs"] = q_aho_corasick_docs

ORACLE_SQL["aho_corasick_docs"] = """
        WITH pat AS (SELECT * FROM (VALUES
                ('a'), ('at'), ('batch'), ('ta'), ('table'),
                ('scan'), ('an')) p(pattern)),
        pos AS (SELECT doc_id, source, text,
                       unnest(range(1, length(text) + 1)) AS i
                FROM documents),
        occ AS (SELECT s.source, s.doc_id, p.pattern, count(*) AS c
                FROM pos s JOIN pat p
                  ON substr(s.text, CAST(s.i AS INT),
                            length(p.pattern)) = p.pattern
                GROUP BY 1, 2, 3)
        SELECT source, pattern, CAST(SUM(c) AS BIGINT) AS n_occ,
               COUNT(*) AS n_docs
        FROM occ GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# hungarian_match_nations: optimal customer↔supplier assignment per nation
# ---------------------------------------------------------------------------

_HUN_K = 8



def _hungarian(cost) -> int:
    """Minimum-cost perfect matching on an n×n integer matrix —
    Kuhn-Munkres with row/column potentials, O(n³) (the augmenting
    shortest-path formulation)."""
    n = len(cost)
    if n == 0:
        return 0
    INF = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return sum(cost[p[j] - 1][j - 1] for j in range(1, n + 1))



def _assign_dp(cost) -> int:
    """INDEPENDENT replay: Held-Karp bitmask DP over column subsets,
    O(n²·2ⁿ) — row i of the matrix extends every i-popcount mask. A
    potentials/augmenting-path bug cannot survive both; brute n!
    permutation sweeps cross-check small instances in tests."""
    n = len(cost)
    if n == 0:
        return 0
    full = 1 << n
    INF = float("inf")
    dp = [INF] * full
    dp[0] = 0
    for mask in range(full - 1):
        d = dp[mask]
        if d == INF:
            continue
        i = bin(mask).count("1")
        row = cost[i]
        for j in range(n):
            if not mask >> j & 1:
                m2 = mask | 1 << j
                val = d + row[j]
                if val < dp[m2]:
                    dp[m2] = val
    return int(dp[full - 1])



def _hun_top(bal: np.ndarray, key: np.ndarray, k: int) -> np.ndarray:
    """Top-k account balances in cents, ordered by (balance DESC,
    key ASC) — the deterministic tie rule both engines share."""
    cents = np.floor(bal.astype(np.float64) * 100.0 + 0.5).astype(np.int64)
    order = np.lexsort((key, -cents))[:k]
    return cents[order]



def q_hungarian_match_nations(sf_dir: str):
    """Optimal assignment per nation: its top-8 customers matched
    one-to-one to its top-8 suppliers (by account balance, custkey/
    suppkey tie-break) minimizing Σ|balance difference| in exact
    cents — the assignment-problem primitive (ad slotting, shard
    placement, rider dispatch) whose greedy cousin
    (greedy_matching_dups) is suboptimal by construction: Hungarian
    potentials certify the true optimum, and only the total cost is
    unique, so that is the output. k = min(8, customers, suppliers);
    supplier side is a dimension (100 rows) broadcast as per-nation
    top lists; customers fold inside per-nation co-partitions where
    the O(k³) never leaves the group; supplierless or customerless
    nations zero-fill. INDEPENDENT bitmask-DP replay sidecar, brute
    permutation cross-check."""
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
        tops[nk] = _hun_top(bals, keys, _HUN_K)
    sup_ref = ray.put(tops)

    nation = _read(sf_dir, "nation", ["n_nationkey"]).take_all()
    all_nk = sorted(int(r["n_nationkey"]) for r in nation)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ctop = _hun_top(df["c_acctbal"].to_numpy(np.float64),
                        df["c_custkey"].to_numpy(np.int64), _HUN_K)
        svals = stop.get(nk, np.empty(0, np.int64))
        k = min(len(ctop), len(svals))
        cost = [[abs(int(ctop[i]) - int(svals[j])) for j in range(k)]
                for i in range(k)]
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "k": np.array([k], np.int64),
            "assign_cost": np.array([_hungarian(cost)], np.int64)})

    got = (cust.groupby("c_nationkey")
           .map_groups(fold, batch_format="pandas")).to_pandas()
    missing = sorted(set(all_nk) - set(got["n_nationkey"]))
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "n_nationkey": np.array(missing, np.int64),
            "k": np.zeros(len(missing), np.int64),
            "assign_cost": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in ("n_nationkey", "k", "assign_cost"):
        got[c] = got[c].astype(np.int64)
    return got.sort_values("n_nationkey").reset_index(drop=True)



QUERIES["hungarian_match_nations"] = q_hungarian_match_nations



def _hungarian_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "hungarian-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_hungarian_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT n_nationkey FROM "
            f"read_parquet('{sf_dir}/nation.parquet') ORDER BY 1"
        ).fetchall()]
        rows = []
        for nk in nks:
            ctop = [r[0] for r in con.execute(
                f"SELECT CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/customer.parquet') "
                f"WHERE c_nationkey = {nk} "
                f"ORDER BY c_acctbal DESC, c_custkey LIMIT {_HUN_K}"
            ).fetchall()]
            stop = [r[0] for r in con.execute(
                f"SELECT CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) "
                f"FROM read_parquet('{sf_dir}/supplier.parquet') "
                f"WHERE s_nationkey = {nk} "
                f"ORDER BY s_acctbal DESC, s_suppkey LIMIT {_HUN_K}"
            ).fetchall()]
            k = min(len(ctop), len(stop))
            cost = [[abs(ctop[i] - stop[j]) for j in range(k)]
                    for i in range(k)]
            rows.append({"n_nationkey": int(nk), "k": k,
                         "assign_cost": _assign_dp(cost)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hungarian_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, k, assign_cost "
            f"FROM read_parquet('{_hungarian_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# hough_peak_images: 4-direction integer Hough line peak per image
# ---------------------------------------------------------------------------

_HOUGH_T = 300      # edge threshold on |∂x luma| + |∂y luma|

_HOUGH_N = 1024     # first N images by index



def _hough_peak_vec(luma: np.ndarray) -> tuple:
    """(n_edge, theta, rho, votes): edge pixels are forward-difference
    gradient magnitudes ≥ _HOUGH_T on the (h−1)×(w−1) interior grid;
    each votes in four INTEGER line families — θ0 vertical (ρ=x),
    θ1 horizontal (ρ=y), θ2 45° (ρ=x+y), θ3 135° (ρ=x−y+h−1) — so
    the transform is exact with no trigonometry to disagree about.
    Peak = max votes, ties to the smallest (θ, ρ). Vectorized
    bincounts per family; np.argmax's first-hit rule IS the ρ
    tie-break."""
    h, w = luma.shape
    gm = (np.abs(np.diff(luma, axis=1))[:h - 1, :]
          + np.abs(np.diff(luma, axis=0))[:, :w - 1])
    ys, xs = np.nonzero(gm >= _HOUGH_T)
    n_edge = len(ys)
    if n_edge == 0:
        return 0, -1, -1, 0
    rhos = (xs, ys, xs + ys, xs - ys + (h - 1))
    best = None
    for th, r in enumerate(rhos):
        votes = np.bincount(r)
        j = int(np.argmax(votes))
        cand = (-int(votes[j]), th, j)
        if best is None or cand < best:
            best = cand
    return n_edge, best[1], best[2], -best[0]



def _hough_peak_naive(luma) -> tuple:
    """INDEPENDENT replay: per-pixel dict accumulation with explicit
    (votes DESC, θ, ρ) tuple comparison — no bincount, no argmax
    first-hit reliance."""
    g = [list(map(int, row)) for row in luma]
    h = len(g)
    w = len(g[0])
    acc: dict[tuple, int] = {}
    n_edge = 0
    for y in range(h - 1):
        for x in range(w - 1):
            gm = abs(g[y][x + 1] - g[y][x]) + abs(g[y + 1][x] - g[y][x])
            if gm < _HOUGH_T:
                continue
            n_edge += 1
            for th, r in ((0, x), (1, y), (2, x + y),
                          (3, x - y + h - 1)):
                acc[(th, r)] = acc.get((th, r), 0) + 1
    if not acc:
        return 0, -1, -1, 0
    best = None
    for (th, r), v in acc.items():
        key = (-v, th, r)
        if best is None or key < best:
            best = key
    return n_edge, best[1], best[2], -best[0]



def q_hough_peak_images(sf_dir: str):
    """Dominant-line detection for the first 1024 images by index:
    the integer Hough transform's peak cell over four line families —
    the structure detector that separates scanned documents, street
    grids and horizons from texture, which no histogram or blob
    statistic sees (a vertical stripe and its shuffled pixels share
    every intensity stat but only one has a ϑ=0 ridge, pinned).
    Trig-free by construction: the four families have integer ρ, so
    both engines agree exactly. Images are the parallel grain behind
    the decode gate; per image the vote is two diffs + four
    bincounts. INDEPENDENT dict-accumulation replay with explicit
    tuple tie-breaks over generator-rederived pixels, cross-checked
    on random grids."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "fmt", "w", "h",
                                   "bytes"])
    decoders = ImageDecodeStage(verify=False).decoders

    def peak(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        keep = [i for i, s in enumerate(ids)
                if int(s[4:]) < _HOUGH_N]
        out = {k: [] for k in ("image_id", "n_edge", "theta_peak",
                               "rho_peak", "votes_peak")}
        if keep:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            for i in keep:
                px = decoders[fmts[i]](payloads[i], ws[i], hs[i])
                luma = px.astype(np.int64).sum(axis=2)
                ne, th, r, v = _hough_peak_vec(luma)
                out["image_id"].append(ids[i])
                out["n_edge"].append(ne)
                out["theta_peak"].append(th)
                out["rho_peak"].append(r)
                out["votes_peak"].append(v)
        return pa.table({
            "image_id": pa.array(out["image_id"], pa.string()),
            **{k: pa.array(out[k], pa.int64())
               for k in ("n_edge", "theta_peak", "rho_peak",
                         "votes_peak")}})

    return ds.map_batches(peak, batch_format="pyarrow", batch_size=64)



QUERIES["hough_peak_images"] = q_hough_peak_images



def _hough_sidecar(img: str) -> str:
    from pathlib import Path

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_hough_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        rows = []
        for i in range(_HOUGH_N):
            w, h = _sy.image_size(np.array([i], np.uint64))
            w, h = int(w[0]), int(h[0])
            px = _sy.pixel_pattern(np.array([i], np.uint64), w, h)[0]
            luma = px.astype(np.int64).sum(axis=2)
            ne, th, r, v = _hough_peak_naive(luma)
            rows.append({"image_id": f"img-{i:08d}", "n_edge": ne,
                         "theta_peak": th, "rho_peak": r,
                         "votes_peak": v})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hough_sql(img: str) -> str:
    return (f"SELECT image_id, n_edge, theta_peak, rho_peak, "
            f"votes_peak FROM read_parquet('{_hough_sidecar(img)}')")



# ---------------------------------------------------------------------------
# mst_cells_tiles: Euclidean minimum spanning tree weight per spatial cell
# ---------------------------------------------------------------------------

_MST_SHIFT = 14    # cell = microdegree coords >> shift

_MST_CAP = 512     # per-cell node cap: smallest image indices win



def _mst_prim(ix: np.ndarray, iy: np.ndarray) -> int:
    """Total MST weight (squared Euclidean on the integer microdegree
    lattice) of a complete point graph — Prim with an O(n) frontier
    array, O(n²) time, O(n) memory (never materializes the distance
    matrix). Exact int64. Though an individual MST need not be unique
    under ties, every MST shares the same weight multiset (matroid
    exchange), so the total is well-defined."""
    n = len(ix)
    if n <= 1:
        return 0
    INF = np.iinfo(np.int64).max
    used = np.zeros(n, bool)
    used[0] = True
    mind = (ix - ix[0]) ** 2 + (iy - iy[0]) ** 2
    total = 0
    for _ in range(n - 1):
        m = np.where(used, INF, mind)
        j = int(np.argmin(m))
        total += int(m[j])
        used[j] = True
        dj = (ix - ix[j]) ** 2 + (iy - iy[j]) ** 2
        np.minimum(mind, dj, out=mind)
    return total



def _mst_kruskal(ix, iy) -> int:
    """INDEPENDENT replay: Kruskal — explicit edge list sorted by
    weight + union-find with path compression (a frontier-update bug
    in Prim cannot survive a cut-property argument from the other
    side)."""
    n = len(ix)
    if n <= 1:
        return 0
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = (int(ix[i]) - int(ix[j])) ** 2 \
                + (int(iy[i]) - int(iy[j])) ** 2
            edges.append((w, i, j))
    edges.sort()
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0
    taken = 0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            total += w
            taken += 1
            if taken == n - 1:
                break
    return total



def q_mst_cells_tiles(sf_dir: str):
    """Euclidean MST weight of each spatial cell's tile centers — the
    backbone-cost statistic (minimum trenching/relay cost to connect a
    cell's imagery footprint; also single-linkage clustering's spine):
    a cell whose tiles line a corridor has MST ≈ its length, while the
    same count scattered pays far more — density structure no count or
    centroid sees. Coordinates quantized to the integer microdegree
    lattice, weights = squared Euclidean, all int64-exact (squares
    preserve comparisons, so it IS the Euclidean MST). Tiles contract
    to (cell, ix, iy) at the read; the O(n²) Prim runs inside per-cell
    co-partitions with an O(n) frontier and a deterministic node cap
    (_MST_CAP smallest image indices, total count still reported) so a
    skewed cell bounds its quadratic — the documented top-N guard.
    INDEPENDENT Kruskal + union-find replay sidecar over generator-
    rederived centers; cross-checked on random point sets."""
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
        n_tiles = len(df)
        use = df.head(_MST_CAP)
        w = _mst_prim(use["ix"].to_numpy(np.int64),
                      use["iy"].to_numpy(np.int64))
        return pd.DataFrame({
            "cell": np.array([df["cell"].iloc[0]], np.int64),
            "n_tiles": np.array([n_tiles], np.int64),
            "n_used": np.array([len(use)], np.int64),
            "mst_weight": np.array([w], np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["mst_cells_tiles"] = q_mst_cells_tiles



def _mst_sidecar(img: str) -> str:
    from pathlib import Path

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_mst_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        import glob

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
            rows.append({"cell": int(c),
                         "n_tiles": int((cell == c).sum()),
                         "n_used": len(sel),
                         "mst_weight": _mst_kruskal(
                             ix[sel].tolist(), iy[sel].tolist())})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mst_sql(img: str) -> str:
    return (f"SELECT cell, n_tiles, n_used, mst_weight "
            f"FROM read_parquet('{_mst_sidecar(img)}')")



# ---------------------------------------------------------------------------
# gotoh_adjacent_docs: affine-gap global alignment between consecutive docs
# ---------------------------------------------------------------------------

_GOTOH_SUB = 3     # token mismatch

_GOTOH_OPEN = 5    # gap open

_GOTOH_EXT = 1     # gap extend

_GOTOH_INF = 1 << 40



def _gotoh_cost(a, b) -> int:
    """Minimum affine-gap global alignment cost between two token
    sequences (match 0, mismatch 3, gap open 5, extend 1; gap state
    switches pay open) — Gotoh's three-matrix DP, row-vectorized: M
    and X rows are elementwise over the previous row, and the in-row
    Y recurrence Y[j] = min(best[j−1]+open, Y[j−1]+ext) unrolls to
    the same MIN-PLUS PREFIX SCAN as _dtw_cost, so no per-cell
    Python. Exact ints."""
    n, m = len(a), len(b)
    bv = np.asarray(b)
    M = np.full(m + 1, _GOTOH_INF, np.int64)
    M[0] = 0
    X = np.full(m + 1, _GOTOH_INF, np.int64)
    Y = np.full(m + 1, _GOTOH_INF, np.int64)
    if m:
        Y[1:] = _GOTOH_OPEN + _GOTOH_EXT * np.arange(m)
    for i in range(1, n + 1):
        Mp, Xp, Yp = M, X, Y
        X = np.minimum(np.minimum(Mp, Yp) + _GOTOH_OPEN,
                       Xp + _GOTOH_EXT)
        M = np.full(m + 1, _GOTOH_INF, np.int64)
        if m:
            cost = np.where(np.asarray(a[i - 1]) == bv, 0, _GOTOH_SUB)
            diag = np.minimum(np.minimum(Mp[:-1], Xp[:-1]), Yp[:-1])
            M[1:] = diag + cost
        Y = np.full(m + 1, _GOTOH_INF, np.int64)
        if m:
            best = np.minimum(M[:-1], X[:-1])
            t = best + _GOTOH_OPEN - _GOTOH_EXT * np.arange(1, m + 1)
            Y[1:] = (_GOTOH_EXT * np.arange(1, m + 1)
                     + np.minimum.accumulate(t))
    return int(min(M[m], X[m], Y[m]))



def _gotoh_dijkstra(a, b) -> int:
    """INDEPENDENT replay: shortest path over the explicit alignment
    trellis ((i, j, state) nodes, recurrence edges) with a binary
    heap — no DP table, no scan identity; a recurrence or scan bug
    cannot survive both."""
    import heapq

    n, m = len(a), len(b)
    start = (0, 0, 0)
    dist = {start: 0}
    pq_ = [(0, start)]
    best = None
    while pq_:
        d, (i, j, s) = heapq.heappop(pq_)
        if d > dist.get((i, j, s), _GOTOH_INF):
            continue
        if i == n and j == m:
            best = d
            break
        edges = []
        if i < n and j < m:
            c = 0 if a[i] == b[j] else _GOTOH_SUB
            edges.append(((i + 1, j + 1, 0), c))
        if i < n:   # consume a: state X(1)
            edges.append(((i + 1, j, 1),
                          _GOTOH_EXT if s == 1 else _GOTOH_OPEN))
        if j < m:   # consume b: state Y(2)
            edges.append(((i, j + 1, 2),
                          _GOTOH_EXT if s == 2 else _GOTOH_OPEN))
        for v, c in edges:
            nd = d + c
            if nd < dist.get(v, _GOTOH_INF):
                dist[v] = nd
                heapq.heappush(pq_, (nd, v))
    return int(best)



def q_gotoh_adjacent_docs(sf_dir: str):
    """Affine-gap global alignment cost between each source's
    consecutive docs — the bioinformatics-grade diff (Gotoh 1982)
    that LCS and unit-cost Levenshtein cannot express: one coherent
    k-token insertion costs open + k·ext while k scattered ones pay
    k·open, so the statistic separates a BLOCK edit stream
    (template+paragraph swaps — cheap affine cost) from diffuse
    drift at equal Hamming distance (gap-coalescing pinned). Exact
    ints; pairs form inside one source co-partition ordered by
    doc_id; per pair the three-matrix DP is row-vectorized with the
    min-plus scan identity (see _gotoh_cost). INDEPENDENT
    Dijkstra-over-the-trellis replay sidecar, brute cross-checks on
    random token lists."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id", kind="stable")
        toks = [t.split() for t in df["text"]]
        tot = mx = 0
        for x, y in zip(toks, toks[1:]):
            v = _gotoh_cost(x, y)
            tot += v
            mx = max(mx, v)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_pairs": np.array([max(len(toks) - 1, 0)], np.int64),
            "sum_cost": np.array([tot], np.int64),
            "max_cost": np.array([mx], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["gotoh_adjacent_docs"] = q_gotoh_adjacent_docs



def _gotoh_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "gotoh-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gotoh_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY source, doc_id").fetchall()
        agg: dict[str, list[int]] = {}
        prev: dict[str, list] = {}
        for src, _did, txt in rows:
            toks = txt.split()
            a = agg.setdefault(src, [0, 0, 0])
            if src in prev:
                v = _gotoh_dijkstra(prev[src], toks)
                a[0] += 1
                a[1] += v
                a[2] = max(a[2], v)
            prev[src] = toks
        out = pa.Table.from_pylist(
            [{"source": s, "n_pairs": v[0], "sum_cost": v[1],
              "max_cost": v[2]} for s, v in sorted(agg.items())])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gotoh_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_pairs, sum_cost, max_cost "
            f"FROM read_parquet('{_gotoh_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rho_cycle_orders: functional-graph tail/cycle census (Floyd vs Brent)
# ---------------------------------------------------------------------------

_RHO_MASK = 0xFFF      # 4096-state space

_RHO_N = 256           # smallest orderkeys traced



def _rho_floyd(f, x0: int) -> tuple:
    """(tail μ, cycle λ) of the sequence x0, f(x0), f²(x0), … —
    Floyd's tortoise-and-hare: meet inside the cycle, reset one
    pointer to x0 to find μ, then walk once around for λ. O(μ+λ)
    steps, O(1) memory."""
    t = f(x0)
    h = f(f(x0))
    while t != h:
        t = f(t)
        h = f(f(h))
    mu = 0
    t = x0
    while t != h:
        t = f(t)
        h = f(h)
        mu += 1
    lam = 1
    h = f(t)
    while t != h:
        h = f(h)
        lam += 1
    return mu, lam



def _rho_brent(f, x0: int) -> tuple:
    """INDEPENDENT replay: Brent's power-of-two teleporting hare —
    a different meeting argument entirely (the hare races a PARKED
    tortoise that teleports at powers of two, finding λ first and
    deriving μ from a λ-offset parallel walk). Cross-checked against
    a visited-dict brute walk in tests."""
    power = lam = 1
    t = x0
    h = f(x0)
    while t != h:
        if power == lam:
            t = h
            power *= 2
            lam = 0
        h = f(h)
        lam += 1
    t = h = x0
    for _ in range(lam):
        h = f(h)
    mu = 0
    while t != h:
        t = f(t)
        h = f(h)
        mu += 1
    return mu, lam



def _rho_f(x: int) -> int:
    from geotile.synth import splitmix64

    return int(splitmix64(np.array([x], np.uint64))[0]
               & np.uint64(_RHO_MASK))



def q_rho_cycle_orders(sf_dir: str):
    """Tail and cycle length of the splitmix64 functional graph
    (states mod 4096) from the _RHO_N smallest orderkeys — the
    random-mapping statistics under Pollard's rho factoring/DLP, hash-
    chain storage and RNG-state audits: a mapping behaving randomly
    has E[μ]≈E[λ]≈√(πN/8)≈40 here, so a mixing bug in the hash shows
    up as wildly shifted tails (the distribution IS the audit).
    Floyd's O(1)-memory tortoise-hare per start; the orderkey scan
    contracts to per-batch smallest-k partials (min is the fold)
    before a driver epilogue over 256 dimension-scale traces.
    INDEPENDENT Brent teleporting-hare replay sidecar over a pure-int
    scalar splitmix64 (no numpy), both cross-checked against a
    visited-dict brute walk on random mappings."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        k = np.sort(t["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(k[:_RHO_N].astype(np.int64))})

    parts = orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    keys = np.sort(np.array([r["k"] for r in parts],
                            np.int64))[:_RHO_N]
    rows = {"o_orderkey": [], "start": [], "tail_len": [],
            "cycle_len": []}
    for k in keys.tolist():
        x0 = k & _RHO_MASK
        mu, lam = _rho_floyd(_rho_f, x0)
        rows["o_orderkey"].append(k)
        rows["start"].append(x0)
        rows["tail_len"].append(mu)
        rows["cycle_len"].append(lam)
    return pd.DataFrame({c: np.array(v, np.int64)
                         for c, v in rows.items()})



QUERIES["rho_cycle_orders"] = q_rho_cycle_orders



def _sm64_scalar_rho(x: int) -> int:
    """Pure-int splitmix64 (mod-2^64 masks, no numpy) — the sidecar's
    independent implementation of the published finalizer."""
    M = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
    return (z ^ (z >> 31)) & M



def _rho_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "rho-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rho_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [r[0] for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            f"ORDER BY 1 LIMIT {_RHO_N}").fetchall()]
        f = lambda x: _sm64_scalar_rho(x) & _RHO_MASK  # noqa: E731
        rows = []
        for k in ks:
            x0 = int(k) & _RHO_MASK
            mu, lam = _rho_brent(f, x0)
            rows.append({"o_orderkey": int(k), "start": x0,
                         "tail_len": mu, "cycle_len": lam})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rho_sql(sf_dir: str) -> str:
    return (f"SELECT o_orderkey, start, tail_len, cycle_len "
            f"FROM read_parquet('{_rho_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rmq_day_ranges: sparse-table range-min queries over the order-day series
# ---------------------------------------------------------------------------

_RMQ_Q = 256



def _rmq_sparse(n_arr: np.ndarray):
    """Sparse table over (value, argpos) pairs: table[k][i] = the
    lexicographic min over the 2^k window at i — min value, then
    SMALLEST position, so argmin ties break to the earliest day.
    O(n log n) build, O(1) per query via two overlapping blocks."""
    n = len(n_arr)
    enc = n_arr.astype(np.int64) * n + np.arange(n, dtype=np.int64)
    tables = [enc]
    k = 1
    while (1 << k) <= n:
        prev = tables[-1]
        w = 1 << (k - 1)
        tables.append(np.minimum(prev[:-w], prev[w:]))
        k += 1
    return tables



def _rmq_query(tables, n: int, lo: np.ndarray, hi: np.ndarray):
    """Vectorized inclusive-range min: (min value, argmin index)."""
    ln = hi - lo + 1
    k = (np.floor(np.log2(ln))).astype(np.int64)
    w = (1 << k)
    t = np.empty(len(lo), np.int64)
    for kk in np.unique(k):
        sel = k == kk
        tab = tables[kk]
        a = tab[lo[sel]]
        b = tab[hi[sel] - w[sel] + 1]
        t[sel] = np.minimum(a, b)
    return t // n, t % n



def q_rmq_day_ranges(sf_dir: str):
    """Range-minimum queries over the daily order-count series via a
    sparse table — the O(1)-per-query range-aggregate primitive under
    OLAP dashboards, LCA reductions and the Kasai LCP machinery: 256
    deterministic (splitmix-drawn) index ranges each report the
    quietest day in range (min count, earliest-day tie-break). The
    fact scan contracts to (day, n) partials; the O(D log D) table is
    calendar-scale state built once (broadcast at fleet scale) and
    every query is two overlapping-block lookups — vectorized here by
    encoding (value, pos) into one int64 so lexicographic min IS
    integer min. Oracle: the RANGES ship as a tiny sidecar, but the
    ANSWERS are computed by SQL itself (join + GROUP BY min +
    earliest-argmin), so the aggregation logic is independently
    replayed; naive scan cross-check in tests."""
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
    days = days.sort_values("day").reset_index(drop=True)
    d = days["day"].to_numpy(np.int64)
    n = days["n"].to_numpy(np.int64)
    D = len(d)
    qa = (splitmix64(np.arange(_RMQ_Q, dtype=np.uint64) * 2)
          % np.uint64(D)).astype(np.int64)
    qb = (splitmix64(np.arange(_RMQ_Q, dtype=np.uint64) * 2 + 1)
          % np.uint64(D)).astype(np.int64)
    lo = np.minimum(qa, qb)
    hi = np.maximum(qa, qb)
    tables = _rmq_sparse(n)
    mn, am = _rmq_query(tables, D, lo, hi)
    return pd.DataFrame({
        "qid": np.arange(_RMQ_Q, dtype=np.int64),
        "lo_day": d[lo], "hi_day": d[hi],
        "n_days": (hi - lo + 1).astype(np.int64),
        "min_n": mn, "argmin_day": d[am]})



QUERIES["rmq_day_ranges"] = q_rmq_day_ranges



def _rmq_ranges_sidecar(sf_dir: str) -> str:
    """Sidecar holding ONLY the query ranges (qid, lo index, hi
    index) — the answers come from SQL."""
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "rmq-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rmq_ranges_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        D = con.execute(
            "SELECT COUNT(DISTINCT epoch_us(o_orderdate) // "
            "86400000000) FROM "
            f"read_parquet('{sf_dir}/orders.parquet')").fetchone()[0]
        qa = (splitmix64(np.arange(_RMQ_Q, dtype=np.uint64) * 2)
              % np.uint64(D)).astype(np.int64)
        qb = (splitmix64(np.arange(_RMQ_Q, dtype=np.uint64) * 2 + 1)
              % np.uint64(D)).astype(np.int64)
        out = pa.table({
            "qid": pa.array(np.arange(_RMQ_Q, dtype=np.int64)),
            "lo": pa.array(np.minimum(qa, qb)),
            "hi": pa.array(np.maximum(qa, qb))})
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rmq_sql(sf_dir: str) -> str:
    return f"""
        WITH c AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                          COUNT(*) AS n
                   FROM read_parquet('{sf_dir}/orders.parquet')
                   GROUP BY 1),
        s AS (SELECT day, n,
                     ROW_NUMBER() OVER (ORDER BY day) - 1 AS i
              FROM c),
        q AS (SELECT * FROM
              read_parquet('{_rmq_ranges_sidecar(sf_dir)}')),
        j AS (SELECT q.qid, q.lo, q.hi, s.day, s.n
              FROM q JOIN s ON s.i BETWEEN q.lo AND q.hi),
        m AS (SELECT qid, MIN(n) AS min_n, COUNT(*) AS n_days
              FROM j GROUP BY 1)
        SELECT m.qid,
               (SELECT day FROM s WHERE i = q.lo) AS lo_day,
               (SELECT day FROM s WHERE i = q.hi) AS hi_day,
               CAST(m.n_days AS BIGINT) AS n_days,
               CAST(m.min_n AS BIGINT) AS min_n,
               (SELECT MIN(j2.day) FROM j j2
                WHERE j2.qid = m.qid AND j2.n = m.min_n) AS argmin_day
        FROM m JOIN q ON q.qid = m.qid
    """



# ---------------------------------------------------------------------------
# ffd_binpack_weekly: first-fit-decreasing bin packing of weekly workloads
# ---------------------------------------------------------------------------

_FFD_CAP = 4096



def _ffd_bins(weights) -> int:
    """First-fit-decreasing bin count: weights sorted descending, each
    placed in the FIRST bin it fits (capacity _FFD_CAP), else a new
    bin. Linear scan over bin loads."""
    bins: list[int] = []
    for w in sorted(weights, reverse=True):
        for i, load in enumerate(bins):
            if load + w <= _FFD_CAP:
                bins[i] = load + w
                break
        else:
            bins.append(w)
    return len(bins)



def _ffd_bins_replay(weights) -> int:
    """Replay with a different mechanization: a per-bin remaining-
    capacity array scanned via next() over a generator, weights
    descending via heapq.nlargest — same FFD semantics, none of the
    same code shape."""
    import heapq

    rem: list[int] = []
    for w in heapq.nlargest(len(weights), weights):
        i = next((i for i, r in enumerate(rem) if r >= w), -1)
        if i < 0:
            rem.append(_FFD_CAP - w)
        else:
            rem[i] -= w
    return len(rem)



def _pack_optimal(weights) -> int:
    """Exact minimum bins for SMALL instances (test oracle): DP over
    subsets — dp[mask] = (bins used, space left in the open bin),
    lexicographic min, items added in fixed order."""
    n = len(weights)
    full = 1 << n
    INF = (1 << 30, 0)
    dp = [INF] * full
    dp[0] = (0, 0)
    for mask in range(full):
        b, r = dp[mask]
        if b == INF[0]:
            continue
        for j in range(n):
            if mask >> j & 1:
                continue
            w = weights[j]
            m2 = mask | 1 << j
            if w <= r:
                cand = (b, r - w)
            else:
                cand = (b + 1, _FFD_CAP - w)
            if (cand[0], -cand[1]) < (dp[m2][0], -dp[m2][1]):
                dp[m2] = cand
    return dp[full - 1][0]



def q_ffd_binpack_weekly(sf_dir: str):
    """First-fit-decreasing bin packing of each week's order workload
    — the capacity-planning primitive (shipping containers, VM
    placement, shard packing): weights are order prices folded onto
    1..1000 cents-lattice units, bins hold 4096, and FFD's 11/9·OPT
    guarantee is the operational answer where exact packing is
    NP-hard. Output per week: item count, total weight, the
    ceil(Σw/C) lower bound, and FFD's bin count — the lb ≤ bins
    invariant is pinned and the gap IS the fragmentation metric.
    Weeks are the parallel grain (bounded fan-in co-partitions);
    per-week (weight → count) contraction happens in batch partials
    so the shuffle moves lattice cells, not orders. Sidecar replays
    FFD with a different mechanization; tiny instances cross-checked
    against an exact subset-DP optimum in tests."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        w = cents % 1000 + 1
        g = pa.table({"week": wk, "w": pa.array(w)}) \
            .group_by(["week", "w"]).aggregate([([], "count_all")])
        return pa.table({"week": g["week"], "w": g["w"],
                         "cnt": g["count_all"].cast(pa.int64())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ws = np.repeat(df["w"].to_numpy(np.int64),
                       df["cnt"].to_numpy(np.int64))
        tot = int(ws.sum())
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_items": np.array([len(ws)], np.int64),
            "total_w": np.array([tot], np.int64),
            "lb": np.array([-(-tot // _FFD_CAP)], np.int64),
            "bins_ffd": np.array([_ffd_bins(ws.tolist())], np.int64)})

    return (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["ffd_binpack_weekly"] = q_ffd_binpack_weekly



def _ffd_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "ffd-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_ffd_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) % 1000 "
            "+ 1 AS w FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1").fetchall()
        byweek: dict[int, list[int]] = {}
        for wk, w in rows:
            byweek.setdefault(int(wk), []).append(int(w))
        out_rows = []
        for wk in sorted(byweek):
            ws = byweek[wk]
            tot = sum(ws)
            out_rows.append({
                "week": wk, "n_items": len(ws), "total_w": tot,
                "lb": -(-tot // _FFD_CAP),
                "bins_ffd": _ffd_bins_replay(ws)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _ffd_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_items, total_w, lb, bins_ffd "
            f"FROM read_parquet('{_ffd_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# obst_sources: optimal binary search tree cost per source vocabulary
# ---------------------------------------------------------------------------

_OBST_K = 32



def _obst_knuth(w) -> int:
    """Optimal BST cost (Σ weight·depth, root depth 1) over keys in
    fixed order with access weights w — the Knuth/Yao O(n²) DP: the
    optimal root is monotone in both interval endpoints
    (quadrangle inequality), so each cell scans only
    [root[i][j−1], root[i+1][j]]."""
    n = len(w)
    if n == 0:
        return 0
    pre = [0] * (n + 1)
    for i, x in enumerate(w):
        pre[i + 1] = pre[i] + x
    INF = 1 << 60
    e = [[0] * (n + 1) for _ in range(n + 2)]
    root = [[0] * (n + 1) for _ in range(n + 2)]
    for i in range(1, n + 1):
        e[i][i] = w[i - 1]
        root[i][i] = i
    for ln in range(2, n + 1):
        for i in range(1, n - ln + 2):
            j = i + ln - 1
            best = INF
            br = i
            lo = root[i][j - 1]
            hi = root[i + 1][j]
            for r in range(lo, hi + 1):
                left = e[i][r - 1] if r > i else 0
                right = e[r + 1][j] if r < j else 0
                c = left + right
                if c < best:
                    best = c
                    br = r
            e[i][j] = best + (pre[j] - pre[i - 1])
            root[i][j] = br
    return e[1][n]



def _obst_cubic(w) -> int:
    """INDEPENDENT replay: the plain O(n³) DP scanning EVERY root —
    no quadrangle-inequality pruning, so a monotonicity bug in the
    Knuth window cannot survive the comparison."""
    n = len(w)
    if n == 0:
        return 0
    pre = [0] * (n + 1)
    for i, x in enumerate(w):
        pre[i + 1] = pre[i] + x
    INF = 1 << 60
    e = {}
    for i in range(1, n + 2):
        e[(i, i - 1)] = 0
    for ln in range(1, n + 1):
        for i in range(1, n - ln + 2):
            j = i + ln - 1
            e[(i, j)] = min(
                e[(i, r - 1)] + e[(r + 1, j)]
                for r in range(i, j + 1)) + (pre[j] - pre[i - 1])
    return e[(1, n)]



def q_obst_sources(sf_dir: str):
    """Optimal binary-search-tree cost over each source's top-32
    vocabulary — Knuth's 1971 DP, the ancestor of every
    quadrangle-inequality speedup and the index-layout question
    itself: given the observed term frequencies, the cheapest
    comparison tree (Σ freq·depth) that a frequency-oblivious
    balanced tree cannot reach (a skewed vocabulary wants its hot
    word at the root; pinned). Keys are the alphabetically-ordered
    top words (count desc, word asc selection), weights exact counts.
    Word counting contracts inside per-source co-partitions (the
    vectorized pandas value_counts path); the O(n²) Knuth DP runs on
    dimension-scale vocab. INDEPENDENT plain-cubic-DP replay sidecar
    — no root-window pruning — cross-checked on random weight
    vectors."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        vc = pd.Series(" ".join(df["text"]).split()).value_counts()
        vc = vc.sort_index().sort_values(ascending=False,
                                         kind="stable")
        top = vc.head(_OBST_K)
        keys = sorted(top.index)
        w = [int(top[k]) for k in keys]
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_keys": np.array([len(w)], np.int64),
            "total_w": np.array([sum(w)], np.int64),
            "obst_cost": np.array([_obst_knuth(w)], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["obst_sources"] = q_obst_sources



def _obst_sidecar(sf_dir: str) -> str:
    from collections import Counter
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "obst-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_obst_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT source, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet')").fetchall()
        bysrc: dict[str, Counter] = {}
        for src, txt in rows:
            bysrc.setdefault(src, Counter()).update(txt.split())
        out_rows = []
        for src in sorted(bysrc):
            cnt = bysrc[src]
            top = sorted(cnt.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:_OBST_K]
            keys = sorted(k for k, _ in top)
            d = dict(top)
            w = [d[k] for k in keys]
            out_rows.append({
                "source": src, "n_keys": len(w), "total_w": sum(w),
                "obst_cost": _obst_cubic(w)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _obst_sql(sf_dir: str) -> str:
    return (f"SELECT source, n_keys, total_w, obst_cost "
            f"FROM read_parquet('{_obst_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# kadane_priority_days: maximum-sum contiguous day window per priority
# ---------------------------------------------------------------------------

_KADANE_K = 2   # demand baseline subtracted per calendar day



def _kadane_best(v: np.ndarray) -> tuple:
    """(best_sum, start_idx, end_idx) of the maximum-sum contiguous
    window — Kadane's recurrence cur = max(v, cur + v) with explicit
    tie rules: best updates only on STRICT improvement (earliest end
    wins) and the running start survives cur == 0 (earliest start
    wins). Empty windows excluded (best window has ≥ 1 element)."""
    best = None
    cur = 0
    cur_start = 0
    bs = be = 0
    for j, x in enumerate(v.tolist()):
        if cur < 0:
            cur = x
            cur_start = j
        else:
            cur += x
        if best is None or cur > best:
            best = cur
            bs, be = cur_start, j
    return int(best), bs, be



def _kadane_prefix(v: np.ndarray) -> tuple:
    """INDEPENDENT replay: the prefix-sum formulation — best =
    max_j (pre[j] − min(0, min_{i<j} pre[i])), end = earliest argmax,
    start = 0 if the virtual empty prefix is the minimum else
    (earliest i with pre[i] = min) + 1. A different recurrence family
    than Kadane's running max."""
    pre = np.cumsum(v.astype(np.int64))
    n = len(pre)
    m_before = np.empty(n, np.int64)
    run = 0
    for j in range(n):
        m_before[j] = run
        run = min(run, int(pre[j]))
    gains = pre - m_before
    best = int(gains.max())
    j = int(np.argmax(gains))          # first hit = earliest end
    m = m_before[j]
    if m == 0:
        # the virtual empty prefix (index −1) is the earliest minimum
        start = 0
    else:
        start = int(np.nonzero(pre[:j] == m)[0][0]) + 1
    return best, start, j



def q_kadane_priority_days(sf_dir: str):
    """Maximum-sum contiguous day window of demeaned demand per order
    priority — Kadane's 1984 max-subarray, the burst detector behind
    anomaly windows and (via its 2-D lift) maximum-sum submatrix: with
    v(day) = orders − 2 over the zero-filled calendar, the answer is
    the single contiguous stretch where this priority ran hottest —
    localization a global count or any FIXED window size misses.
    Ties fully pinned: strict-improvement updates give the earliest
    end, start survival at cur = 0 gives the earliest start. The
    fact scan contracts to (priority, day, n) partials; zero-fill and
    the O(D) scan are calendar-scale driver epilogue. PURE-SQL
    replay via the PREFIX-MIN window formulation — a different
    recurrence family — plus random cross-checks of both."""
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"p": t["o_orderpriority"], "day": day}) \
            .group_by(["p", "day"]).aggregate([([], "count_all")])
        return pa.table({"p": g["p"], "day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    df = (orders.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
          .groupby(["p", "day"]).sum("n")).to_pandas()
    df.columns = ["p", "day", "n"]
    lo = int(df["day"].min())
    hi = int(df["day"].max())
    D = hi - lo + 1
    rows = []
    for p, g in df.groupby("p"):
        v = np.full(D, -_KADANE_K, np.int64)
        v[g["day"].to_numpy(np.int64) - lo] += g["n"].to_numpy(np.int64)
        best, s, e = _kadane_best(v)
        rows.append({"priority": p, "best_sum": best,
                     "start_day": lo + s, "end_day": lo + e})
    out = pd.DataFrame(rows).sort_values("priority") \
        .reset_index(drop=True)
    for c in ("best_sum", "start_day", "end_day"):
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["kadane_priority_days"] = q_kadane_priority_days

ORACLE_SQL["kadane_priority_days"] = """
        WITH b AS (SELECT MIN(epoch_us(o_orderdate) // 86400000000)
                          AS lo,
                          MAX(epoch_us(o_orderdate) // 86400000000)
                          AS hi
                   FROM orders),
        cal AS (SELECT unnest(range(b.lo, b.hi + 1)) AS day FROM b),
        pri AS (SELECT DISTINCT o_orderpriority AS p FROM orders),
        cnt AS (SELECT o_orderpriority AS p,
                       epoch_us(o_orderdate) // 86400000000 AS day,
                       COUNT(*) AS n
                FROM orders GROUP BY 1, 2),
        v AS (SELECT pri.p, cal.day,
                     COALESCE(cnt.n, 0) - 2 AS v
              FROM pri CROSS JOIN cal
              LEFT JOIN cnt ON cnt.p = pri.p AND cnt.day = cal.day),
        pre AS (SELECT p, day, v,
                       SUM(v) OVER (PARTITION BY p ORDER BY day)
                         AS pre,
                       ROW_NUMBER() OVER (PARTITION BY p
                                          ORDER BY day) - 1 AS j
                FROM v),
        mb AS (SELECT *,
                      LEAST(0, COALESCE(MIN(pre) OVER (
                          PARTITION BY p ORDER BY day
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0)) AS m
               FROM pre),
        g AS (SELECT *, pre - m AS gain FROM mb),
        bestj AS (SELECT p, MIN(day) AS end_day FROM g
                  WHERE gain = (SELECT MAX(gain) FROM g g2
                                WHERE g2.p = g.p)
                  GROUP BY p),
        pick AS (SELECT g.* FROM g JOIN bestj
                   ON g.p = bestj.p AND g.day = bestj.end_day)
        SELECT pick.p AS priority,
               CAST(pick.gain AS BIGINT) AS best_sum,
               CAST(CASE WHEN pick.m = 0 THEN
                   (SELECT MIN(day) FROM g WHERE g.p = pick.p)
               ELSE
                   (SELECT MIN(g2.day) + 1 FROM g g2
                    WHERE g2.p = pick.p AND g2.day < pick.day
                      AND g2.pre = pick.m)
               END AS BIGINT) AS start_day,
               CAST(pick.day AS BIGINT) AS end_day
        FROM pick
    """



# ---------------------------------------------------------------------------
# sliding_extrema_days: monotonic-deque 28-day rolling max/min of demand
# ---------------------------------------------------------------------------

_SLIDE_W = 28



def _slide_minmax(v: np.ndarray, w: int):
    """Rolling max and min over trailing windows of w — TWO monotonic
    deques, O(n) total (each index enters and leaves once), the
    streaming-extrema primitive naive recomputation pays O(n·w) for.
    Returns arrays aligned to indices w−1 … n−1."""
    from collections import deque

    n = len(v)
    mx = np.empty(max(n - w + 1, 0), np.int64)
    mn = np.empty(max(n - w + 1, 0), np.int64)
    dqx: deque = deque()
    dqn: deque = deque()
    for j in range(n):
        while dqx and v[dqx[-1]] <= v[j]:
            dqx.pop()
        dqx.append(j)
        while dqn and v[dqn[-1]] >= v[j]:
            dqn.pop()
        dqn.append(j)
        if dqx[0] <= j - w:
            dqx.popleft()
        if dqn[0] <= j - w:
            dqn.popleft()
        if j >= w - 1:
            mx[j - w + 1] = v[dqx[0]]
            mn[j - w + 1] = v[dqn[0]]
    return mx, mn



def q_sliding_extrema_days(sf_dir: str):
    """28-day rolling max/min/range of daily order volume over the
    zero-filled calendar — the streaming-extrema primitive (burst
    ceilings, drawdown floors, Bollinger-style envelopes) computed
    with MONOTONIC DEQUES in O(D) total where per-window rescans pay
    O(D·w): each day enters and leaves its deque exactly once, the
    amortization argument every stream processor leans on. The fact
    scan contracts to (day, n) partials; the deque pass is a
    calendar-scale driver epilogue (at fleet scale: per-shard windows
    with w−1-row halo exchange). PURE-SQL replay via window-function
    MAX/MIN OVER ROWS 27 PRECEDING — a definitionally different
    evaluation — plus naive-rescan cross-checks."""
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
    mx, mn = _slide_minmax(v, _SLIDE_W)
    day = np.arange(lo + _SLIDE_W - 1, hi + 1, dtype=np.int64)
    return pd.DataFrame({"day": day, "max28": mx, "min28": mn,
                         "range28": mx - mn})



QUERIES["sliding_extrema_days"] = q_sliding_extrema_days

ORACLE_SQL["sliding_extrema_days"] = """
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
                     MAX(n) OVER (ORDER BY day ROWS BETWEEN 27
                                  PRECEDING AND CURRENT ROW) AS mx,
                     MIN(n) OVER (ORDER BY day ROWS BETWEEN 27
                                  PRECEDING AND CURRENT ROW) AS mn,
                     ROW_NUMBER() OVER (ORDER BY day) AS rn
              FROM v)
        SELECT day, CAST(mx AS BIGINT) AS max28,
               CAST(mn AS BIGINT) AS min28,
               CAST(mx - mn AS BIGINT) AS range28
        FROM w WHERE rn >= 28
    """



# ---------------------------------------------------------------------------
# moore_hodgson_weekly: minimum tardy jobs per week (1|·|ΣU_j)
# ---------------------------------------------------------------------------


def _mh_p_d(cents: np.ndarray):
    """Deterministic job parameters from price cents: processing time
    1..97, due date 1..600 (overloaded weeks guaranteed tardy mass)."""
    p = cents % 97 + 1
    d = (cents // 7) % 600 + 1
    return p, d



def _moore_hodgson(p, d) -> int:
    """Maximum on-time jobs on one machine (1‖ΣUⱼ) — Moore-Hodgson:
    process in EDD order, on overload evict the LONGEST accepted job
    (max-heap); the evicted job is tardy forever. O(n log n),
    provably optimal."""
    import heapq

    jobs = sorted(zip(d, p))
    heap: list = []
    t = 0
    for dd, pp in jobs:
        heapq.heappush(heap, -pp)
        t += pp
        if t > dd:
            t += heapq.heappop(heap)   # drop longest (negative)
    return len(heap)



def _mh_dp(p, d) -> int:
    """INDEPENDENT replay: the EDD DP — dp[k] = minimum completion
    time of k on-time jobs after each EDD prefix; a job extends every
    k where dp[k−1] + p ≤ due. O(n²), no heap, no eviction argument."""
    jobs = sorted(zip(d, p))
    INF = 1 << 60
    dp = [0] + [INF] * len(jobs)
    for dd, pp in jobs:
        for k in range(len(jobs), 0, -1):
            if dp[k - 1] + pp <= dd:
                dp[k] = min(dp[k], dp[k - 1] + pp)
    best = 0
    for k, t in enumerate(dp):
        if t < INF:
            best = k
    return best



def q_moore_hodgson_weekly(sf_dir: str):
    """Minimum tardy jobs per week — the 1‖ΣUⱼ scheduling classic
    solved exactly by Moore-Hodgson's evict-the-longest rule: orders
    become jobs (processing 1..97, due 1..600, both deterministic
    from price cents), and the answer is how many can possibly ship
    on time — a due-date-aware number no utilization average gives
    (greedy-by-arrival is suboptimal; the heap eviction is the whole
    theorem, pinned: the LONGEST job is dropped, not the latest).
    The optimal count is unique even when the schedule is not. Weeks
    are the parallel grain; per-week (p, d) pairs fold inside
    bounded co-partitions. INDEPENDENT EDD-prefix DP replay sidecar
    (no heap, no eviction), brute subset checks on tiny instances."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        p, d = _mh_p_d(cents)
        return pa.table({"week": wk, "p": pa.array(p),
                         "d": pa.array(d)})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        p = df["p"].to_numpy(np.int64)
        d = df["d"].to_numpy(np.int64)
        on = _moore_hodgson(p.tolist(), d.tolist())
        return pd.DataFrame({
            "week": np.array([df["week"].iloc[0]], np.int64),
            "n_jobs": np.array([len(p)], np.int64),
            "max_on_time": np.array([on], np.int64),
            "min_tardy": np.array([len(p) - on], np.int64)})

    return (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["moore_hodgson_weekly"] = q_moore_hodgson_weekly



def _mh_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "mh-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mh_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c "
            f"FROM read_parquet('{sf_dir}/orders.parquet')").fetchall()
        byweek: dict[int, list[int]] = {}
        for wk, c in rows:
            byweek.setdefault(int(wk), []).append(int(c))
        out_rows = []
        for wk in sorted(byweek):
            cents = np.array(byweek[wk], np.int64)
            p_, d_ = _mh_p_d(cents)
            on = _mh_dp(p_.tolist(), d_.tolist())
            out_rows.append({"week": wk, "n_jobs": len(cents),
                             "max_on_time": on,
                             "min_tardy": len(cents) - on})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mh_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_jobs, max_on_time, min_tardy "
            f"FROM read_parquet('{_mh_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# hopcroft_karp_dups: maximum bipartite matching over the near-dup graph
# ---------------------------------------------------------------------------


def _hopcroft_karp(adj: dict, right: set) -> int:
    """Maximum bipartite matching cardinality — Hopcroft-Karp: BFS
    layers the alternating-path graph, then a DFS phase augments
    along a MAXIMAL set of shortest vertex-disjoint paths; O(E√V)
    phases. adj: left vertex → list of right vertices."""
    from collections import deque

    INF = 1 << 30
    ml: dict = {}
    mr: dict = {}
    while True:
        dist = {}
        dq = deque()
        for u in adj:
            if u not in ml:
                dist[u] = 0
                dq.append(u)
        found = False
        while dq:
            u = dq.popleft()
            for v in adj[u]:
                w = mr.get(v)
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        if not found:
            break

        def dfs(u):
            for v in adj[u]:
                w = mr.get(v)
                if w is None or (dist.get(w, INF) == dist[u] + 1
                                 and dfs(w)):
                    ml[u] = v
                    mr[v] = u
                    return True
            dist[u] = INF
            return False

        for u in list(adj):
            if u not in ml:
                dfs(u)
    return len(ml)



def _kuhn_matching(adj: dict) -> int:
    """INDEPENDENT replay: Kuhn's one-path-at-a-time augmenting DFS
    (Hungarian-style) — no BFS layering, no phase batching; the two
    agree by König/Berge on the unique maximum cardinality."""
    mr: dict = {}

    def try_aug(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in mr or try_aug(mr[v], seen):
                mr[v] = u
                return True
        return False

    n = 0
    for u in sorted(adj):
        if try_aug(u, set()):
            n += 1
    return n



def q_hopcroft_karp_dups(sf_dir: str):
    """Maximum bipartite matching over the exact cosine near-dup
    graph (even vec_ids left, odd right, cross edges only) — the
    record-linkage capacity question: how many dup pairs can be
    RESOLVED simultaneously with each record consumed once, which a
    maximal greedy matching (greedy_matching_dups) answers
    suboptimally — an augmenting path through three edges recovers a
    pair greedy forfeits, pinned. Hopcroft-Karp's batched
    shortest-augmenting-path phases give O(E√V); the cardinality is
    unique (König/Berge) even though the matching is not, so that is
    the output. The pair graph itself comes from the distributed
    block-pair matmul join (dedup.py:604); the matching runs on the
    edge list — dup-graph-scale, not corpus-scale. INDEPENDENT
    Kuhn single-path-DFS replay over SQL-recomputed pairs, random
    bipartite cross-checks."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    adj: dict = {}
    right = set()
    n_edges = 0
    for r in pairs:
        a, b = int(r["a"]), int(r["b"])
        if a % 2 == b % 2:
            continue
        left, rt = (a, b) if a % 2 == 0 else (b, a)
        adj.setdefault(left, []).append(rt)
        right.add(rt)
        n_edges += 1
    for u in adj:
        adj[u].sort()
    m = _hopcroft_karp(adj, right)
    return pd.DataFrame({
        "n_left": np.array([len(adj)], np.int64),
        "n_right": np.array([len(right)], np.int64),
        "n_edges": np.array([n_edges], np.int64),
        "max_matching": np.array([m], np.int64)})



QUERIES["hopcroft_karp_dups"] = q_hopcroft_karp_dups



def _hk_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "hk-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_hk_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        adj: dict = {}
        right = set()
        n_edges = 0
        for a, b, _cos in rows:
            a, b = int(a), int(b)
            if a % 2 == b % 2:
                continue
            left, rt = (a, b) if a % 2 == 0 else (b, a)
            adj.setdefault(left, []).append(rt)
            right.add(rt)
            n_edges += 1
        for u in adj:
            adj[u].sort()
        out = pa.Table.from_pylist([{
            "n_left": len(adj), "n_right": len(right),
            "n_edges": n_edges,
            "max_matching": _kuhn_matching(adj)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _hk_sql(sf_dir: str) -> str:
    return (f"SELECT n_left, n_right, n_edges, max_matching "
            f"FROM read_parquet('{_hk_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# manacher_docs: longest palindromic substring per document
# ---------------------------------------------------------------------------


def _manacher_max(s: str) -> int:
    """Length of the longest palindromic substring — Manacher on the
    sentinel-interleaved string (handles odd and even centers in one
    pass), O(n) via the mirrored-radius reuse argument."""
    if not s:
        return 0
    t = "\x00" + "\x00".join(s) + "\x00"
    n = len(t)
    rad = [0] * n
    c = r = 0
    best = 0
    for i in range(n):
        if i < r:
            rad[i] = min(r - i, rad[2 * c - i])
        while i - rad[i] - 1 >= 0 and i + rad[i] + 1 < n \
                and t[i - rad[i] - 1] == t[i + rad[i] + 1]:
            rad[i] += 1
        if i + rad[i] > r:
            c, r = i, i + rad[i]
        if rad[i] > best:
            best = rad[i]
    return best



def _pal_expand_max(s: str) -> int:
    """INDEPENDENT replay: center expansion over every odd and even
    center — no sentinel string, no mirrored-radius reuse."""
    n = len(s)
    best = 0
    for c in range(n):
        r = 0
        while c - r - 1 >= 0 and c + r + 1 < n \
                and s[c - r - 1] == s[c + r + 1]:
            r += 1
        best = max(best, 2 * r + 1)
    for c in range(n - 1):
        if s[c] != s[c + 1]:
            continue
        r = 0
        while c - r - 1 >= 0 and c + r + 2 < n \
                and s[c - r - 1] == s[c + r + 2]:
            r += 1
        best = max(best, 2 * r + 2)
    return best



def q_manacher_docs(sf_dir: str):
    """Longest palindromic substring per document via Manacher's
    linear-time algorithm — the mirrored-radius reuse that turns the
    quadratic center expansion into O(n), and a corpus forensic:
    long palindromes in natural-ish text mark generated or templated
    filler (mirrored boilerplate), structure no n-gram statistic
    flags. The sentinel interleave handles odd AND even centers in
    one scan ('abba' pinned). Docs are the parallel grain.
    INDEPENDENT center-expansion replay sidecar (no sentinels, no
    radius reuse), random cross-checks incl the classic
    'forgeeksskeegfor' → 'geeksskeeg'."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_n, out_p = [], []
        for txt in texts:
            out_n.append(len(txt))
            out_p.append(_manacher_max(txt))
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "n": pa.array(out_n, pa.int64()),
            "max_pal": pa.array(out_p, pa.int64())})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["manacher_docs"] = q_manacher_docs



def _manacher_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "manacher-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_manacher_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out = pa.Table.from_pylist([
            {"doc_id": int(did), "n": len(txt),
             "max_pal": _pal_expand_max(txt)} for did, txt in rows])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _manacher_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n, max_pal "
            f"FROM read_parquet('{_manacher_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# max_submatrix_images: 2-D Kadane maximum-sum submatrix of demeaned luma
# ---------------------------------------------------------------------------

_MSUB_K = 384      # per-pixel luma baseline (E[luma] ≈ 382.5 for noise)

_MSUB_N = 1024     # first N images by index



def _max_submatrix(luma: np.ndarray) -> int:
    """Maximum sum over ALL axis-aligned submatrices of (luma − K) —
    the 2-D Kadane lift: for each of the O(h²) row bands, collapse to
    a column vector via prefix-sum differences and run 1-D Kadane —
    O(h²·w) instead of the O(h²·w²) brute. The best sum is unique
    (it is a max); the arg box is not, so only the sum is output.
    Vectorized: the inner Kadane is numpy maximum.accumulate over the
    prefix-gain identity (same scan family as _kadane_prefix)."""
    v = luma.astype(np.int64) - _MSUB_K
    h, w = v.shape
    colpre = np.vstack([np.zeros((1, w), np.int64),
                        np.cumsum(v, axis=0)])
    best = None
    for r0 in range(h):
        for r1 in range(r0, h):
            band = colpre[r1 + 1] - colpre[r0]          # (w,)
            pre = np.cumsum(band)
            m_before = np.minimum(
                0, np.concatenate(([0], np.minimum.accumulate(pre)[:-1])))
            g = int((pre - m_before).max())
            if best is None or g > best:
                best = g
    return best



def _max_submatrix_brute(luma) -> int:
    """INDEPENDENT replay: per row band, EVERY (x0 < x1) column pair
    is enumerated through a triu index table and the max taken over
    the full O(w²) difference set — no Kadane recurrence, no
    running-minimum scan identity anywhere."""
    v = np.asarray(luma, np.int64) - _MSUB_K
    h, w = v.shape
    colpre = np.vstack([np.zeros((1, w), np.int64),
                        np.cumsum(v, axis=0)])
    x0, x1 = np.triu_indices(w + 1, k=1)
    best = None
    for y0 in range(h):
        for y1 in range(y0 + 1, h + 1):
            band = colpre[y1] - colpre[y0]
            pre = np.concatenate((np.zeros(1, np.int64),
                                  np.cumsum(band)))
            g = int((pre[x1] - pre[x0]).max())
            if best is None or g > best:
                best = g
    return best



def q_max_submatrix_images(sf_dir: str):
    """Maximum-sum submatrix of demeaned luma for the first 1024
    images by index — the 2-D Kadane lift (named in
    kadane_priority_days) and the FREE-SHAPE bright-region localizer
    beside brightest_block_images' fixed 8×8: a thin bright bar
    scores its whole extent here while every fixed block dilutes it
    with background, pinned. O(h²·w) row-band collapse + scan-Kadane
    per image (h=w≤32 → ~1k bands of vectorized width-w scans);
    images are the parallel grain behind the decode gate. The best
    sum is unique; the arg box is not, so only the sum ships.
    INDEPENDENT 2-D-prefix-table corner-enumeration replay over
    generator-rederived pixels, cross-checked on random matrices."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "fmt", "w", "h",
                                   "bytes"])
    decoders = ImageDecodeStage(verify=False).decoders

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        keep = [i for i, s in enumerate(ids)
                if int(s[4:]) < _MSUB_N]
        out_id, out_b = [], []
        if keep:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            for i in keep:
                px = decoders[fmts[i]](payloads[i], ws[i], hs[i])
                luma = px.astype(np.int64).sum(axis=2)
                out_id.append(ids[i])
                out_b.append(_max_submatrix(luma))
        return pa.table({
            "image_id": pa.array(out_id, pa.string()),
            "best_sum": pa.array(out_b, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow",
                          batch_size=64)



QUERIES["max_submatrix_images"] = q_max_submatrix_images



def _msub_sidecar(img: str) -> str:
    from pathlib import Path

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_msub_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        rows = []
        for i in range(_MSUB_N):
            w, h = _sy.image_size(np.array([i], np.uint64))
            w, h = int(w[0]), int(h[0])
            px = _sy.pixel_pattern(np.array([i], np.uint64), w, h)[0]
            luma = px.astype(np.int64).sum(axis=2)
            rows.append({"image_id": f"img-{i:08d}",
                         "best_sum": _max_submatrix_brute(luma)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _msub_sql(img: str) -> str:
    return (f"SELECT image_id, best_sum "
            f"FROM read_parquet('{_msub_sidecar(img)}')")



# ---------------------------------------------------------------------------
# dinic_flow_nations: max-flow capacity audit per nation
# ---------------------------------------------------------------------------

_FLOW_TH = 100_000   # cust↔supp edge iff |cents diff| <= this

_FLOW_CC = 2         # per-customer capacity

_FLOW_CS = 3         # per-supplier capacity



def _top_bal(bal: np.ndarray, key: np.ndarray, k: int):
    """(keys, cents) of the top-k balances, (balance DESC, key ASC)."""
    cents = np.floor(bal.astype(np.float64) * 100.0 + 0.5).astype(np.int64)
    o = np.lexsort((key, -cents))[:k]
    return key[o], cents[o]



def _dinic(n: int, edges: list, s: int, t: int) -> int:
    """Max flow — Dinic: BFS level graph + blocking-flow DFS with the
    current-arc pointer; O(V²E), integer capacities. edges:
    (u, v, cap) triples; residual arcs added automatically."""
    from collections import deque

    head: list = [[] for _ in range(n)]
    to, cap, nxt = [], [], []
    for u, v, c in edges:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        if level[t] < 0:
            return flow
        it = [0] * n

        def dfs(u, f):
            if u == t:
                return f
            while it[u] < len(head[u]):
                ei = head[u][it[u]]
                v = to[ei]
                if cap[ei] > 0 and level[v] == level[u] + 1:
                    d = dfs(v, min(f, cap[ei]))
                    if d > 0:
                        cap[ei] -= d
                        cap[ei ^ 1] += d
                        return d
                it[u] += 1
            return 0

        while True:
            f = dfs(s, 1 << 30)
            if f == 0:
                break
            flow += f



def _edmonds_karp(n: int, edges: list, s: int, t: int) -> int:
    """INDEPENDENT replay: Edmonds-Karp — one BFS shortest augmenting
    path at a time over an adjacency-matrix residual; no level
    graph, no blocking flow, no current-arc pointer."""
    from collections import deque

    C = [[0] * n for _ in range(n)]
    for u, v, c in edges:
        C[u][v] += c
    flow = 0
    while True:
        par = [-1] * n
        par[s] = s
        dq = deque([s])
        while dq and par[t] < 0:
            u = dq.popleft()
            for v in range(n):
                if C[u][v] > 0 and par[v] < 0:
                    par[v] = u
                    dq.append(v)
        if par[t] < 0:
            return flow
        b = 1 << 30
        v = t
        while v != s:
            b = min(b, C[par[v]][v])
            v = par[v]
        v = t
        while v != s:
            C[par[v]][v] -= b
            C[v][par[v]] += b
            v = par[v]
        flow += b



def _nation_flow_net(ck, cc, sk, sc):
    """Build the per-nation capacity network: S→cust (cap 2),
    cust→supp (cap 1 when |Δcents| ≤ threshold), supp→T (cap 3)."""
    nc, ns = len(ck), len(sk)
    S, T = 0, 1
    edges = []
    n_e = 0
    for i in range(nc):
        edges.append((S, 2 + i, _FLOW_CC))
    for j in range(ns):
        edges.append((2 + nc + j, T, _FLOW_CS))
    for i in range(nc):
        for j in range(ns):
            if abs(int(cc[i]) - int(sc[j])) <= _FLOW_TH:
                edges.append((2 + i, 2 + nc + j, 1))
                n_e += 1
    return 2 + nc + ns, edges, n_e



def q_dinic_flow_nations(sf_dir: str):
    """Max-flow fulfillment capacity per nation — the flow-network
    generalization of matching (Hopcroft-Karp is the caps-all-1
    special case): top-8 customers may each take 2 units, top-8
    suppliers each offer 3, a unit edge exists when balances are
    within 1000.00 — the answer is how many units can move at once,
    and by max-flow=min-cut it certifies the bottleneck side. Flow
    VALUE is unique (any maximum flow attains it) even though flows
    are not. Dinic's level-graph blocking flow with current-arc
    pointers; nations the parallel grain, supplier dim broadcast.
    INDEPENDENT Edmonds-Karp replay (single BFS paths over a matrix
    residual) in the sidecar, random-network cross-checks."""
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

    nation = _read(sf_dir, "nation", ["n_nationkey"]).take_all()
    all_nk = sorted(int(r["n_nationkey"]) for r in nation)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _HUN_K)
        sk, sc = stop.get(nk, (np.empty(0, np.int64),
                               np.empty(0, np.int64)))
        n, edges, n_e = _nation_flow_net(ck, cc, sk, sc)
        f = _dinic(n, edges, 0, 1) if n_e else 0
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "n_edges": np.array([n_e], np.int64),
            "max_flow": np.array([f], np.int64)})

    got = (cust.groupby("c_nationkey")
           .map_groups(fold, batch_format="pandas")).to_pandas()
    missing = sorted(set(all_nk) - set(got["n_nationkey"]))
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "n_nationkey": np.array(missing, np.int64),
            "n_edges": np.zeros(len(missing), np.int64),
            "max_flow": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in got.columns:
        got[c] = got[c].astype(np.int64)
    return got.sort_values("n_nationkey").reset_index(drop=True)



QUERIES["dinic_flow_nations"] = q_dinic_flow_nations



def _flow_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "flow-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_flow_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT n_nationkey FROM "
            f"read_parquet('{sf_dir}/nation.parquet') ORDER BY 1"
        ).fetchall()]
        rows = []
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
            n, edges, n_e = _nation_flow_net(
                np.arange(len(cc)), np.array(cc, np.int64),
                np.arange(len(sc)), np.array(sc, np.int64))
            f = _edmonds_karp(n, edges, 0, 1) if n_e else 0
            rows.append({"n_nationkey": int(nk), "n_edges": n_e,
                         "max_flow": f})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _flow_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, n_edges, max_flow "
            f"FROM read_parquet('{_flow_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# gale_shapley_nations: proposer-optimal stable matching per nation
# ---------------------------------------------------------------------------


def _gs_prefs(cc, sc):
    """Customer and supplier preference lists by |Δcents| ascending,
    index tie-break ascending (both sides)."""
    nc, ns = len(cc), len(sc)
    cpref = [sorted(range(ns),
                    key=lambda j, i=i: (abs(int(cc[i]) - int(sc[j])), j))
             for i in range(nc)]
    spref = [sorted(range(nc),
                    key=lambda i, j=j: (abs(int(cc[i]) - int(sc[j])), i))
             for j in range(ns)]
    return cpref, spref



def _gale_shapley(cpref, spref) -> list:
    """Customer-proposing deferred acceptance — returns, per customer,
    the matched supplier index. The proposer-optimal stable matching
    is UNIQUE, so any correct implementation agrees. Queue-driven."""
    from collections import deque

    nc = len(cpref)
    ns = len(spref)
    rank = [[0] * nc for _ in range(ns)]
    for j in range(ns):
        for r, i in enumerate(spref[j]):
            rank[j][i] = r
    nxt = [0] * nc
    cur = [-1] * ns
    match = [-1] * nc
    free = deque(range(nc))
    while free:
        i = free.popleft()
        if nxt[i] >= len(cpref[i]):
            continue
        j = cpref[i][nxt[i]]
        nxt[i] += 1
        if cur[j] < 0:
            cur[j] = i
            match[i] = j
        elif rank[j][i] < rank[j][cur[j]]:
            old = cur[j]
            match[old] = -1
            free.append(old)
            cur[j] = i
            match[i] = j
        else:
            free.append(i)
    return match



def _gale_shapley_rec(cpref, spref) -> list:
    """INDEPENDENT replay: recursion-driven deferred acceptance — a
    displaced proposer re-proposes by direct recursion, no queue —
    plus the result is stability-CHECKED (no blocking pair) before
    being returned; uniqueness of the proposer-optimal matching makes
    the two mechanizations agree exactly."""
    import sys

    nc, ns = len(cpref), len(spref)
    rank = [{i: r for r, i in enumerate(spref[j])} for j in range(ns)]
    cur = [-1] * ns
    match = [-1] * nc
    sys.setrecursionlimit(10000)

    def propose(i, start):
        for idx in range(start, len(cpref[i])):
            j = cpref[i][idx]
            if cur[j] < 0:
                cur[j] = i
                match[i] = j
                nxt[i] = idx + 1
                return
            if rank[j][i] < rank[j][cur[j]]:
                old = cur[j]
                cur[j] = i
                match[i] = j
                os_ = nxt[old]
                match[old] = -1
                nxt[i] = idx + 1
                propose(old, os_)
                return
        match[i] = -1

    nxt = [0] * nc
    for i in range(nc):
        if match[i] < 0:
            propose(i, 0)
    # stability check: no (i, j) both preferring each other
    for i in range(nc):
        for j in range(ns):
            if match[i] == j:
                continue
            i_pref = match[i] < 0 or \
                cpref[i].index(j) < cpref[i].index(match[i])
            j_pref = cur[j] < 0 or rank[j][i] < rank[j][cur[j]]
            if i_pref and j_pref:
                raise AssertionError("blocking pair")
    return match



def q_gale_shapley_nations(sf_dir: str):
    """Proposer-optimal stable matching per nation (Gale-Shapley 1962
    deferred acceptance — the mechanism behind residency match and ad
    auctions): top-8 customers propose to top-8 suppliers, both sides
    ranking by |balance difference|; the customer-optimal stable
    matching is UNIQUE, so its total matched |Δ| and first-choice
    count are well-defined outputs — and stability (no blocking
    pair) is the property optimal-cost assignment (Hungarian) does
    NOT guarantee: the two genuinely differ on crafted preferences,
    pinned. Nations the parallel grain, supplier dim broadcast.
    INDEPENDENT recursion-driven replay with an explicit blocking-
    pair check in the sidecar, random instance cross-checks."""
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

    nation = _read(sf_dir, "nation", ["n_nationkey"]).take_all()
    all_nk = sorted(int(r["n_nationkey"]) for r in nation)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _HUN_K)
        sk, sc = stop.get(nk, (np.empty(0, np.int64),
                               np.empty(0, np.int64)))
        k = min(len(cc), len(sc))
        cc2, sc2 = cc[:k], sc[:k]
        cpref, spref = _gs_prefs(cc2, sc2)
        match = _gale_shapley(cpref, spref)
        tot = sum(abs(int(cc2[i]) - int(sc2[j]))
                  for i, j in enumerate(match) if j >= 0)
        first = sum(1 for i, j in enumerate(match)
                    if j >= 0 and cpref[i][0] == j)
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "k": np.array([k], np.int64),
            "sum_absdiff": np.array([tot], np.int64),
            "n_first_choice": np.array([first], np.int64)})

    got = (cust.groupby("c_nationkey")
           .map_groups(fold, batch_format="pandas")).to_pandas()
    missing = sorted(set(all_nk) - set(got["n_nationkey"]))
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "n_nationkey": np.array(missing, np.int64),
            "k": np.zeros(len(missing), np.int64),
            "sum_absdiff": np.zeros(len(missing), np.int64),
            "n_first_choice": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in got.columns:
        got[c] = got[c].astype(np.int64)
    return got.sort_values("n_nationkey").reset_index(drop=True)



QUERIES["gale_shapley_nations"] = q_gale_shapley_nations



def _gs_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "gs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_gs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT n_nationkey FROM "
            f"read_parquet('{sf_dir}/nation.parquet') ORDER BY 1"
        ).fetchall()]
        rows = []
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
            cc2 = np.array(cc[:k], np.int64)
            sc2 = np.array(sc[:k], np.int64)
            cpref, spref = _gs_prefs(cc2, sc2)
            match = _gale_shapley_rec(cpref, spref)
            tot = sum(abs(int(cc2[i]) - int(sc2[j]))
                      for i, j in enumerate(match) if j >= 0)
            first = sum(1 for i, j in enumerate(match)
                        if j >= 0 and cpref[i][0] == j)
            rows.append({"n_nationkey": int(nk), "k": k,
                         "sum_absdiff": tot,
                         "n_first_choice": first})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _gs_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, k, sum_absdiff, n_first_choice "
            f"FROM read_parquet('{_gs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# rect_union_cells: exact union area of tile footprints per spatial cell
# ---------------------------------------------------------------------------

_RECT_HW_X = 566    # tile half-width in microdegrees (lon)

_RECT_HW_Y = 450    # tile half-height in microdegrees (lat)



def _rects_from_centers(ix: np.ndarray, iy: np.ndarray):
    """(x0, y0, x1, y1) integer-lattice footprints around centers."""
    return (ix - _RECT_HW_X, iy - _RECT_HW_Y,
            ix + _RECT_HW_X, iy + _RECT_HW_Y)



def _union_area_sweep(x0, y0, x1, y1) -> int:
    """Exact union area of axis-aligned integer rectangles — the
    x-sweep: at each slab between consecutive x-boundaries, the
    covered y-length is the measure of the active rects' y-interval
    union (sorted boundary counting), and area accumulates
    slab_width × coverage. Klee's measure problem in 2-D, exact
    int64."""
    n = len(x0)
    if n == 0:
        return 0
    xs = np.unique(np.concatenate([x0, x1]))
    area = 0
    for k in range(len(xs) - 1):
        a, b = int(xs[k]), int(xs[k + 1])
        act = (x0 <= a) & (x1 >= b)
        if not act.any():
            continue
        ys = np.stack([y0[act], y1[act]], axis=1)
        order = np.argsort(ys[:, 0], kind="stable")
        cov = 0
        cur_lo = cur_hi = None
        for lo, hi in ys[order].tolist():
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    cov += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        if cur_hi is not None:
            cov += cur_hi - cur_lo
        area += (b - a) * cov
    return int(area)



def _union_area_grid(x0, y0, x1, y1) -> int:
    """INDEPENDENT replay: coordinate compression — mark covered
    (x-slab × y-slab) grid cells with a 2-D difference array +
    double cumsum, then sum slab areas where count > 0. No sweep, no
    interval merging."""
    n = len(x0)
    if n == 0:
        return 0
    xs = np.unique(np.concatenate([x0, x1]))
    ys = np.unique(np.concatenate([y0, y1]))
    D = np.zeros((len(xs), len(ys)), np.int64)
    xi0 = np.searchsorted(xs, x0)
    xi1 = np.searchsorted(xs, x1)
    yi0 = np.searchsorted(ys, y0)
    yi1 = np.searchsorted(ys, y1)
    for i in range(n):
        D[xi0[i], yi0[i]] += 1
        D[xi1[i], yi0[i]] -= 1
        D[xi0[i], yi1[i]] -= 1
        D[xi1[i], yi1[i]] += 1
    cnt = D.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    wx = np.diff(xs)
    wy = np.diff(ys)
    cells = (cnt > 0).astype(np.int64)
    return int((cells * wx[:, None] * wy[None, :]).sum())



def q_rect_union_cells(sf_dir: str):
    """Exact union area of tile footprints per spatial cell — Klee's
    measure problem, THE coverage statistic raster masks only
    approximate (tile_covered_cells counts discrete cells; this is
    the exact vector area on the integer microdegree lattice):
    union ≪ n·tile_area means the cell's imagery is stacked
    re-captures of one spot — overlap structure a tile count cannot
    see, double-count-free by construction (two identical rects
    pinned to one area). The x-sweep pays O(n) slabs × active
    interval merge inside per-cell co-partitions (same cells and
    _MST_CAP smallest-index guard as mst_cells_tiles, total count
    reported). INDEPENDENT coordinate-compression difference-array
    replay — no sweep, no merging — over generator-rederived
    centers, random cross-checks."""
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
        n_tiles = len(df)
        use = df.head(_MST_CAP)
        x0, y0, x1, y1 = _rects_from_centers(
            use["ix"].to_numpy(np.int64), use["iy"].to_numpy(np.int64))
        area = _union_area_sweep(x0, y0, x1, y1)
        return pd.DataFrame({
            "cell": np.array([df["cell"].iloc[0]], np.int64),
            "n_tiles": np.array([n_tiles], np.int64),
            "n_used": np.array([len(use)], np.int64),
            "union_area": np.array([area], np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["rect_union_cells"] = q_rect_union_cells



def _rect_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_rect_{Path(img).name}_{_mods_digest(_sy)}.parquet")
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
            x0, y0, x1, y1 = _rects_from_centers(ix[sel], iy[sel])
            rows.append({"cell": int(c),
                         "n_tiles": int((cell == c).sum()),
                         "n_used": len(sel),
                         "union_area": _union_area_grid(
                             x0, y0, x1, y1)})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rect_sql(img: str) -> str:
    return (f"SELECT cell, n_tiles, n_used, union_area "
            f"FROM read_parquet('{_rect_sidecar(img)}')")



# ---------------------------------------------------------------------------
# ntt_lag_xcorr: exact lag cross-correlation of priority demand via NTT
# ---------------------------------------------------------------------------

_NTT_P = 998244353     # 119·2^23 + 1, primitive root 3

_NTT_G = 3

_NTT_LAGS = 64

_NTT_A = "1-URGENT"

_NTT_B = "5-LOW"



def _ntt(a: np.ndarray, invert: bool) -> np.ndarray:
    """Iterative radix-2 number-theoretic transform mod 998244353 —
    the EXACT-arithmetic FFT: same butterfly dataflow, no floats, so
    integer convolutions come back bit-perfect. Vectorized
    butterflies per level (int64 products < 2^63)."""
    a = a.copy() % _NTT_P
    n = len(a)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]
    ln = 2
    while ln <= n:
        w = pow(_NTT_G, (_NTT_P - 1) // ln, _NTT_P)
        if invert:
            w = pow(w, _NTT_P - 2, _NTT_P)
        half = ln // 2
        ws = np.empty(half, np.int64)
        cur = 1
        for i in range(half):
            ws[i] = cur
            cur = cur * w % _NTT_P
        blocks = a.reshape(-1, ln)
        u = blocks[:, :half].copy()
        v = blocks[:, half:] * ws[None, :] % _NTT_P
        blocks[:, :half] = (u + v) % _NTT_P
        blocks[:, half:] = (u - v) % _NTT_P
        ln <<= 1
    if invert:
        inv_n = pow(n, _NTT_P - 2, _NTT_P)
        a = a * inv_n % _NTT_P
    return a



def _xcorr_ntt(a: np.ndarray, b: np.ndarray, lags: int) -> np.ndarray:
    """c[l] = Σ_d a[d]·b[d+l] for l in 0..lags−1, computed as the
    NTT convolution of reversed(a) with b — exact when the true
    values stay below the modulus (counts do by orders of
    magnitude)."""
    D = len(a)
    n = 1
    while n < 2 * D:
        n <<= 1
    fa = np.zeros(n, np.int64)
    fb = np.zeros(n, np.int64)
    fa[:D] = a[::-1]
    fb[:D] = b
    FA = _ntt(fa, False)
    FB = _ntt(fb, False)
    C = _ntt(FA * FB % _NTT_P, True)
    seg = C[D - 1:D - 1 + lags]
    out = np.zeros(lags, np.int64)       # lags ≥ D are exactly zero
    out[: len(seg)] = seg
    return out



def _xcorr_direct(a: np.ndarray, b: np.ndarray, lags: int) -> np.ndarray:
    """INDEPENDENT replay: direct shifted dot products — no
    transform, no modulus."""
    out = np.zeros(lags, np.int64)
    D = len(a)
    for l in range(lags):
        if l < D:
            out[l] = int((a[: D - l] * b[l:]).sum())
    return out



def q_ntt_lag_xcorr(sf_dir: str):
    """Exact lag cross-correlation between URGENT and LOW demand
    series — the lead/lag detector (does low-priority volume echo
    urgent volume k days later?) computed by a number-theoretic
    transform: the FFT's butterfly dataflow in modular integers, so
    the spectrum pipeline is EXACT where floating FFTs round — and
    one O(D log D) transform replaces 64 O(D) shifted dots the
    moment the lag window grows. Zero-filled calendar; the fact scan
    contracts to (priority, day, n) partials; transform is a
    calendar-scale epilogue. INDEPENDENT direct shifted-dot replay
    (no transform, no modulus), impulse/identity pins, and a
    PURE-SQL lag-join oracle."""
    orders = _read(sf_dir, "orders",
                   ["o_orderdate", "o_orderpriority"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"p": t["o_orderpriority"], "day": day}) \
            .group_by(["p", "day"]).aggregate([([], "count_all")])
        return pa.table({"p": g["p"], "day": g["day"],
                         "n": g["count_all"].cast(pa.int64())})

    df = (orders.map_batches(part, batch_format="pyarrow",
                             zero_copy_batch=True)
          .groupby(["p", "day"]).sum("n")).to_pandas()
    df.columns = ["p", "day", "n"]
    lo = int(df["day"].min())
    hi = int(df["day"].max())
    D = hi - lo + 1
    series = {}
    for p in (_NTT_A, _NTT_B):
        v = np.zeros(D, np.int64)
        g = df[df["p"] == p]
        v[g["day"].to_numpy(np.int64) - lo] = g["n"].to_numpy(np.int64)
        series[p] = v
    c = _xcorr_ntt(series[_NTT_A], series[_NTT_B], _NTT_LAGS)
    return pd.DataFrame({
        "lag": np.arange(_NTT_LAGS, dtype=np.int64),
        "xcorr": c.astype(np.int64)})



QUERIES["ntt_lag_xcorr"] = q_ntt_lag_xcorr

ORACLE_SQL["ntt_lag_xcorr"] = """
        WITH a AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                          COUNT(*) AS n
                   FROM orders WHERE o_orderpriority = '1-URGENT'
                   GROUP BY 1),
        b AS (SELECT epoch_us(o_orderdate) // 86400000000 AS day,
                     COUNT(*) AS n
              FROM orders WHERE o_orderpriority = '5-LOW'
              GROUP BY 1),
        lag_ AS (SELECT unnest(range(0, 64)) AS lag)
        SELECT lag_.lag,
               CAST(COALESCE(SUM(a.n * b.n), 0) AS BIGINT) AS xcorr
        FROM lag_
        LEFT JOIN a ON TRUE
        LEFT JOIN b ON b.day = a.day + lag_.lag
        GROUP BY 1
    """



# ---------------------------------------------------------------------------
# hull_diameter_cells: farthest-pair (diameter) of each cell's tile cloud
# ---------------------------------------------------------------------------


def _diam2_hull(ix: np.ndarray, iy: np.ndarray) -> tuple:
    """(hull_size, squared diameter) — the farthest pair must be a
    pair of CONVEX HULL vertices (support-function argument), so
    compute the monotone-chain hull first and scan only its O(h)
    vertices pairwise: the pruning that makes a fleet-scale diameter
    cheap, since h ≪ n for any dense cloud. Exact int64 squared
    distances."""
    from geotile.geom.hull import convex_hull

    n = len(ix)
    if n == 0:
        return 0, 0
    pts = np.stack([ix, iy], axis=1).astype(np.float64)
    hull = convex_hull(pts)
    if hull is None:
        hx, hy = ix.astype(np.int64), iy.astype(np.int64)
    else:
        hx = np.floor(hull[:, 0]).astype(np.int64)
        hy = np.floor(hull[:, 1]).astype(np.int64)
    h = len(hx)
    dx = hx[:, None] - hx[None, :]
    dy = hy[:, None] - hy[None, :]
    return h, int((dx * dx + dy * dy).max())



def _diam2_brute(ix: np.ndarray, iy: np.ndarray) -> int:
    """INDEPENDENT replay: max squared distance over ALL point pairs
    — no hull, no pruning argument."""
    n = len(ix)
    if n == 0:
        return 0
    best = 0
    for i in range(n):
        dx = ix[i] - ix
        dy = iy[i] - iy
        best = max(best, int((dx * dx + dy * dy).max()))
    return best



def q_hull_diameter_cells(sf_dir: str):
    """Farthest-pair diameter of each spatial cell's tile cloud — the
    spread statistic dual to closest_pair_tiles, and the classic
    hull-pruning argument in action: the farthest pair is always a
    pair of convex-hull vertices, so the O(n²) scan collapses to
    O(h²) with h ≪ n (hull size is reported so the pruning ratio is
    visible). Squared integer microdegree distances, exact int64;
    same per-cell co-partitions and smallest-index cap as
    mst_cells_tiles. INDEPENDENT all-pairs brute replay over
    generator-rederived centers — no hull anywhere — plus random
    cross-checks incl collinear degeneracies."""
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
        n_tiles = len(df)
        use = df.head(_MST_CAP)
        h, d2 = _diam2_hull(use["ix"].to_numpy(np.int64),
                            use["iy"].to_numpy(np.int64))
        return pd.DataFrame({
            "cell": np.array([df["cell"].iloc[0]], np.int64),
            "n_tiles": np.array([n_tiles], np.int64),
            "n_used": np.array([len(use)], np.int64),
            "hull_size": np.array([h], np.int64),
            "diam2": np.array([d2], np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["hull_diameter_cells"] = q_hull_diameter_cells



def _diam_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_diam_{Path(img).name}_{_mods_digest(_sy)}.parquet")
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
            from battery.queries import _diam2_hull as _dh

            h, _ = _dh(ix[sel], iy[sel])
            rows.append({"cell": int(c),
                         "n_tiles": int((cell == c).sum()),
                         "n_used": len(sel), "hull_size": h,
                         "diam2": _diam2_brute(ix[sel], iy[sel])})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _diam_sql(img: str) -> str:
    return (f"SELECT cell, n_tiles, n_used, hull_size, diam2 "
            f"FROM read_parquet('{_diam_sidecar(img)}')")



# ---------------------------------------------------------------------------
# btree_buildplan_orders: bulk-load B-tree sizing per fanout
# ---------------------------------------------------------------------------

_BTREE_FANOUTS = (8, 64, 256)



def q_btree_buildplan_orders(sf_dir: str):
    """Bulk-load B-tree sizing over the order count for fanouts 8, 64
    and 256 — the index-build planner every storage engine runs
    before a CREATE INDEX: leaves = ceil(N/f), each upper level
    ceil(prev/f) until a single root, reporting height, leaf count
    and total nodes. Pure integer ceil-division arithmetic, which is
    exactly why it belongs here: the count is the only distributed
    part (one streaming aggregate over the fact table); the plan is
    O(log_f N) driver arithmetic. PURE-SQL replay via a recursive
    CTE doing the same ceil-division cascade."""
    n = _read(sf_dir, "orders", ["o_orderkey"]).count()
    rows = []
    for f in _BTREE_FANOUTS:
        nodes = -(-n // f)
        leaves = nodes
        total = nodes
        height = 1
        while nodes > 1:
            nodes = -(-nodes // f)
            total += nodes
            height += 1
        rows.append({"fanout": f, "n_keys": n, "height": height,
                     "n_leaves": leaves, "total_nodes": total})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["btree_buildplan_orders"] = q_btree_buildplan_orders

ORACLE_SQL["btree_buildplan_orders"] = """
        WITH RECURSIVE f AS (SELECT unnest([8, 64, 256]) AS fanout),
        n AS (SELECT COUNT(*) AS n_keys FROM orders),
        lvl AS (
            SELECT f.fanout, n.n_keys, 1 AS level,
                   (n.n_keys + f.fanout - 1) // f.fanout AS nodes
            FROM f CROSS JOIN n
            UNION ALL
            SELECT fanout, n_keys, level + 1,
                   (nodes + fanout - 1) // fanout
            FROM lvl WHERE nodes > 1
        )
        SELECT fanout, n_keys,
               CAST(MAX(level) AS BIGINT) AS height,
               CAST(MIN(nodes) FILTER (WHERE level = 1) AS BIGINT)
                 AS n_leaves,
               CAST(SUM(nodes) AS BIGINT) AS total_nodes
        FROM lvl GROUP BY 1, 2
    """



# ---------------------------------------------------------------------------
# stoer_wagner_dups: global min cut of each near-dup component
# ---------------------------------------------------------------------------


def _stoer_wagner(n: int, w: np.ndarray) -> int:
    """Global minimum cut of an undirected weighted graph — Stoer-
    Wagner: n−1 maximum-adjacency phases, each ending in a
    cut-of-the-phase; merge the last two vertices and repeat. O(V³)
    on the dense matrix, exact ints."""
    if n < 2:
        return 0
    W = w.astype(np.int64).copy()
    active = list(range(n))
    best = None
    while len(active) > 1:
        a = [active[0]]
        rest = active[1:]
        conn = {v: int(W[a[0]][v]) for v in rest}
        while rest:
            t = max(rest, key=lambda v: (conn[v], -v))
            rest.remove(t)
            a.append(t)
            for v in rest:
                conn[v] += int(W[t][v])
        cut = sum(int(W[a[-1]][v]) for v in active if v != a[-1])
        if best is None or cut < best:
            best = cut
        s, t = a[-2], a[-1]
        W[s, :] += W[t, :]
        W[:, s] += W[:, t]
        W[s, s] = 0
        active.remove(t)
        W[t, :] = 0
        W[:, t] = 0
    return int(best)



def _mincut_via_flow(n: int, w: np.ndarray) -> int:
    """INDEPENDENT replay: fix s = 0 and take min over t ≠ s of the
    s-t max flow (each undirected edge becomes two directed arcs) —
    a correct global-min-cut procedure because s lies on one side of
    the optimal cut and some t on the other. Reuses _dinic: a
    phase/merge bug in Stoer-Wagner cannot survive a flow argument."""
    if n < 2:
        return 0
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if w[i][j] > 0:
                edges.append((i, j, int(w[i][j])))
                edges.append((j, i, int(w[i][j])))
    best = None
    for t in range(1, n):
        f = _dinic(n, edges, 0, t)
        if best is None or f < best:
            best = f
    return int(best)



def q_stoer_wagner_dups(sf_dir: str):
    """Global minimum cut of every near-dup component with ≥ 3
    vertices — the cluster-robustness audit dedup pipelines need
    before transitive-closure merging: a component whose min cut is 1
    is two genuine clusters glued by a single borderline pair (one
    false positive away from a bad merge), while a high-connectivity
    component is safe to collapse — fragility no component size or
    density ratio exposes. Stoer-Wagner's maximum-adjacency phases
    on each component's dense matrix (components are dup-graph-scale,
    found by union-find over the distributed block-pair join's
    edges). Edge weights 1 → the cut IS edge connectivity.
    INDEPENDENT fixed-s all-t max-flow replay via Dinic in the
    sidecar — a flow argument, not a phase argument — plus random
    graph cross-checks."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    return _sw_from_pairs([(int(r["a"]), int(r["b"])) for r in pairs],
                          _stoer_wagner)



def _sw_from_pairs(pairs: list, cutfn) -> pd.DataFrame:
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = set()
    for a, b in pairs:
        if a > b:
            a, b = b, a
        edges.add((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    comps: dict = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    rows = []
    for root, vs in comps.items():
        if len(vs) < 3:
            continue
        vs = sorted(vs)
        idx = {v: i for i, v in enumerate(vs)}
        W = np.zeros((len(vs), len(vs)), np.int64)
        ne = 0
        for a, b in edges:
            if a in idx and b in idx:
                W[idx[a]][idx[b]] += 1
                W[idx[b]][idx[a]] += 1
                ne += 1
        rows.append({"comp_id": vs[0], "n_vertices": len(vs),
                     "n_edges": ne,
                     "mincut": cutfn(len(vs), W)})
    out = pd.DataFrame(rows or {"comp_id": [], "n_vertices": [],
                                "n_edges": [], "mincut": []})
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("comp_id").reset_index(drop=True)



QUERIES["stoer_wagner_dups"] = q_stoer_wagner_dups



def _sw_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "sw-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_sw_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        df = _sw_from_pairs([(int(a), int(b)) for a, b, _ in rows],
                            _mincut_via_flow)
        out = pa.Table.from_pandas(df, preserve_index=False)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _sw_sql(sf_dir: str) -> str:
    return (f"SELECT comp_id, n_vertices, n_edges, mincut "
            f"FROM read_parquet('{_sw_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# held_karp_tsp_cells: exact TSP tour over the busiest spatial cells
# ---------------------------------------------------------------------------

_TSP_K = 12



def _held_karp(dist) -> int:
    """Exact closed-tour TSP cost — Held-Karp bitmask DP, iterative
    bottom-up: dp[mask][j] = cheapest path 0→…→j visiting exactly
    mask (0 ∈ mask); answer min_j dp[full][j] + d(j, 0). O(n²2ⁿ)."""
    n = len(dist)
    if n <= 1:
        return 0
    full = 1 << n
    INF = 1 << 60
    dp = [[INF] * n for _ in range(full)]
    dp[1][0] = 0
    for mask in range(1, full):
        if not mask & 1:
            continue
        row = dp[mask]
        for j in range(n):
            dj = row[j]
            if dj >= INF or not mask >> j & 1:
                continue
            for k in range(1, n):
                if mask >> k & 1:
                    continue
                m2 = mask | 1 << k
                v = dj + dist[j][k]
                if v < dp[m2][k]:
                    dp[m2][k] = v
    return min(dp[full - 1][j] + dist[j][0] for j in range(1, n))



def _tsp_memo(dist) -> int:
    """INDEPENDENT replay: top-down memoized recursion over
    (remaining set, current city) — the other DP direction, a
    different state convention (remaining instead of visited), and
    recursion instead of mask iteration; brute permutations
    cross-check small instances in tests."""
    import functools

    n = len(dist)
    if n <= 1:
        return 0
    FULL = (1 << n) - 1

    @functools.lru_cache(maxsize=None)
    def go(rem, cur):
        if rem == 0:
            return dist[cur][0]
        best = None
        m = rem
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            v = dist[cur][k] + go(rem & ~(1 << k), k)
            if best is None or v < best:
                best = v
        return best

    res = go(FULL & ~1, 0)
    go.cache_clear()
    return res



def q_held_karp_tsp_cells(sf_dir: str):
    """Exact traveling-salesman tour over the 12 busiest spatial
    cells (L1 lattice distances between cell coordinates) — the
    vehicle-routing / survey-flight-planning kernel solved OPTIMALLY
    by Held-Karp's O(n²2ⁿ) DP, the certificate every 2-opt or
    nearest-neighbor heuristic is judged against (nearest-neighbor is
    strictly suboptimal on a crafted instance, pinned). Cell counts
    contract from batch partials (the fact-side work); the 12-city
    DP is driver arithmetic. Top cells by (count DESC, cell ASC).
    Tour COST is unique; the tour is not, so cost + endpoints of the
    selection ship. INDEPENDENT top-down memoized-recursion replay
    over SQL-selected cells, brute permutation cross-checks."""
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
            + np.abs(ty[:, None] - ty[None, :])).astype(np.int64)
    cost = _held_karp(dist.tolist())
    return pd.DataFrame({
        "n_cities": np.array([len(cc)], np.int64),
        "start_cell": np.array([cc[0]], np.int64),
        "tour_cost": np.array([cost], np.int64)})



QUERIES["held_karp_tsp_cells"] = q_held_karp_tsp_cells



def _tsp_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import duckdb

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_tsp_{Path(img).name}_{_mods_digest(_sy)}.parquet")
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
                + np.abs(ty[:, None] - ty[None, :])).astype(np.int64)
        out = pa.Table.from_pylist([{
            "n_cities": len(cc), "start_cell": int(cc[0]),
            "tour_cost": _tsp_memo(tuple(map(tuple, dist.tolist())))}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _tsp_sql(img: str) -> str:
    return (f"SELECT n_cities, start_cell, tour_cost "
            f"FROM read_parquet('{_tsp_sidecar(img)}')")



# ---------------------------------------------------------------------------
# radix_trie_sources: trie vs path-compressed radix node census
# ---------------------------------------------------------------------------


def _trie_counts(words) -> tuple:
    """(n_words, trie_nodes, radix_nodes) over a vocabulary — builds
    the actual character trie (dict-of-dicts) and counts: every
    non-root node, then the PATRICIA survivors = word-end nodes plus
    branching nodes (≥ 2 children); chains of single-child non-word
    nodes collapse into their parent's edge label."""
    words = sorted(set(words))
    root: dict = {}
    ends = set()
    for w in words:
        cur = root
        path = ""
        for ch in w:
            path += ch
            cur = cur.setdefault(ch, {"__path": path})
        ends.add(w)
    trie_nodes = 0
    radix_nodes = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for ch, child in node.items():
            if ch == "__path":
                continue
            trie_nodes += 1
            kids = sum(1 for k in child if k != "__path")
            if child["__path"] in ends or kids >= 2:
                radix_nodes += 1
            stack.append(child)
    return len(words), trie_nodes, radix_nodes



def q_radix_trie_sources(sf_dir: str):
    """Trie vs path-compressed radix (PATRICIA) node census per
    source vocabulary — the index-storage decision in one ratio:
    trie_nodes counts every distinct prefix, radix_nodes only the
    word-ends and branching points that survive path compression
    (single-child chains collapse into edge labels), so
    trie/radix ≫ 1 means long unshared suffixes and a radix layout
    wins (the ART/Judy design argument). Vocabularies fold inside
    per-source co-partitions. PURE-SQL replay computes BOTH counts
    by set algebra alone — distinct prefixes, word membership, and a
    distinct-next-character branching test — no tree is ever built,
    a definitionally different procedure than the dict-trie
    traversal."""
    ds = _read(sf_dir, "documents", ["source", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        vocab = set()
        for t in df["text"]:
            vocab.update(t.split())
        nw, tn, rn = _trie_counts(vocab)
        return pd.DataFrame({
            "source": [df["source"].iloc[0]],
            "n_words": np.array([nw], np.int64),
            "trie_nodes": np.array([tn], np.int64),
            "radix_nodes": np.array([rn], np.int64)})

    return ds.groupby("source").map_groups(fold, batch_format="pandas")



QUERIES["radix_trie_sources"] = q_radix_trie_sources

ORACLE_SQL["radix_trie_sources"] = """
        WITH w AS (SELECT DISTINCT source,
                          unnest(string_split(text, ' ')) AS word
                   FROM documents),
        w2 AS (SELECT DISTINCT source, word FROM w WHERE word <> ''),
        pref AS (SELECT DISTINCT source,
                        substr(word, 1,
                               CAST(unnest(range(1, length(word) + 1))
                                    AS INT)) AS p
                 FROM w2),
        kids AS (SELECT pref.source, pref.p,
                        COUNT(DISTINCT substr(w2.word,
                                              length(pref.p) + 1, 1))
                          AS nkids
                 FROM pref JOIN w2
                   ON w2.source = pref.source
                  AND length(w2.word) > length(pref.p)
                  AND substr(w2.word, 1, length(pref.p)) = pref.p
                 GROUP BY 1, 2),
        marks AS (SELECT pref.source, pref.p,
                         CASE WHEN EXISTS (SELECT 1 FROM w2
                             WHERE w2.source = pref.source
                               AND w2.word = pref.p)
                              THEN 1 ELSE 0 END AS is_word,
                         COALESCE(kids.nkids, 0) AS nkids
                  FROM pref LEFT JOIN kids
                    ON kids.source = pref.source AND kids.p = pref.p)
        SELECT m.source,
               (SELECT COUNT(*) FROM w2 WHERE w2.source = m.source)
                 AS n_words,
               COUNT(*) AS trie_nodes,
               CAST(SUM(CASE WHEN is_word = 1 OR nkids >= 2
                             THEN 1 ELSE 0 END) AS BIGINT)
                 AS radix_nodes
        FROM marks m GROUP BY 1
    """



# ---------------------------------------------------------------------------
# elias_universal_bits_users: gamma / delta / Fibonacci posting-list bits
# ---------------------------------------------------------------------------

def _build_fibs() -> np.ndarray:
    fibs, a, b = [], 1, 2
    while a < 1 << 62:
        fibs.append(a)
        a, b = b, a + b
    return np.array(fibs, np.int64)



_FIBS = _build_fibs()



def _bitlen_vec(v: np.ndarray) -> np.ndarray:
    """Exact bit length via a power-of-two searchsorted — no float
    log2 boundary risk at v = 2^k."""
    pows = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))
    return np.searchsorted(pows, v, side="right").astype(np.int64)



def _universal_bits(v: np.ndarray):
    """(gamma, delta, fibonacci) total codeword bits for values ≥ 1:
    γ(v) = 2·⌊log₂v⌋+1; δ(v) = ⌊log₂v⌋ + γ(⌊log₂v⌋+1); fib(v) =
    index of the largest Fibonacci ≤ v, plus the '11' terminator's
    second bit. All exact integer arithmetic."""
    L = _bitlen_vec(v)                       # ⌊log₂v⌋ + 1
    gamma = 2 * (L - 1) + 1
    LL = _bitlen_vec(L)
    delta = (L - 1) + 2 * (LL - 1) + 1
    fib = np.searchsorted(_FIBS, v, side="right").astype(np.int64) + 1
    return int(gamma.sum()), int(delta.sum()), int(fib.sum())



def q_elias_universal_bits_users(sf_dir: str):
    """Universal-code posting-list bits per user — Elias γ, Elias δ
    and Fibonacci codeword totals over the same head+gap stream as
    varint_posting_bytes_users, completing the five-encoder bake-off
    (varint, Elias-Fano, Rice/Golomb, Gorilla, and now the universal
    codes): γ beats δ only on tiny gaps (δ's doubly-logarithmic
    header wins as gaps grow), and Fibonacci's 1.44·log₂ slope buys
    robustness to single-bit errors — the compression-planner's
    three-way trade read straight off the fact stream. Bit lengths
    via power-of-two searchsorted, no float log at 2^k boundaries
    (pinned). Per-batch distinct (user, minute) partials contract
    the scan; per-user fold in dimension-scale co-partitions.
    PURE-SQL replay: LENGTH(bin(v)) bit lengths + a recursive-CTE
    Fibonacci table join — no sidecar."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        mn = pc.divide(t["ts"].cast(pa.timestamp("us"))
                       .cast(pa.int64()),
                       pa.scalar(60_000_000, pa.int64()))
        tb = pa.table({"user_id": t["user_id"], "minute": mn})
        return pa.Table.from_pandas(
            tb.to_pandas().drop_duplicates(), preserve_index=False)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        m = np.unique(df["minute"].to_numpy())
        vals = np.concatenate([m[:1], np.diff(m)])
        g, d, f = _universal_bits(vals)
        return pd.DataFrame({
            "user_id": np.array([df["user_id"].iloc[0]], np.int64),
            "n_minutes": np.array([len(m)], np.int64),
            "gamma_bits": np.array([g], np.int64),
            "delta_bits": np.array([d], np.int64),
            "fib_bits": np.array([f], np.int64)})

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("user_id").map_groups(fold,
                                           batch_format="pandas"))



QUERIES["elias_universal_bits_users"] = q_elias_universal_bits_users

ORACLE_SQL["elias_universal_bits_users"] = """
        WITH RECURSIVE fib(idx, a, b) AS (
            SELECT 1, CAST(1 AS BIGINT), CAST(2 AS BIGINT)
            UNION ALL
            SELECT idx + 1, b, a + b FROM fib
            WHERE a < 4611686018427387904
        ),
        m AS (SELECT DISTINCT user_id,
                     epoch_us(ts) // 60000000 AS minute
              FROM events),
        g AS (SELECT user_id, minute,
                     minute - LAG(minute) OVER (
                         PARTITION BY user_id ORDER BY minute) AS gap
              FROM m),
        v AS (SELECT user_id,
                     COALESCE(gap, minute) AS val
              FROM g),
        bits AS (SELECT user_id, val,
                        LENGTH(bin(val)) AS L,
                        LENGTH(bin(LENGTH(bin(val)))) AS LL,
                        (SELECT MAX(idx) FROM fib WHERE a <= val)
                          AS fidx
                 FROM v)
        SELECT user_id, COUNT(*) AS n_minutes,
               CAST(SUM(2 * (L - 1) + 1) AS BIGINT) AS gamma_bits,
               CAST(SUM((L - 1) + 2 * (LL - 1) + 1) AS BIGINT)
                 AS delta_bits,
               CAST(SUM(fidx + 1) AS BIGINT) AS fib_bits
        FROM bits GROUP BY 1
    """



# ---------------------------------------------------------------------------
# life_census_images: Game-of-Life stencil evolution of binarized luma
# ---------------------------------------------------------------------------

_LIFE_T = 384     # binarization threshold on channel-summed luma

_LIFE_STEPS = 4

_LIFE_N = 512     # first N images by index



def _life_step_vec(g: np.ndarray) -> np.ndarray:
    """One B3/S23 step with dead boundary — the 8-point stencil as
    padded shifted adds, the structured-grid kernel shape every
    halo-exchange pipeline (diffusion, CFD, seam blending) runs."""
    h, w = g.shape
    p = np.zeros((h + 2, w + 2), np.int64)
    p[1:-1, 1:-1] = g
    nb = (p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
          + p[1:-1, :-2] + p[1:-1, 2:]
          + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:])
    return ((nb == 3) | ((g == 1) & (nb == 2))).astype(np.int64)



def _life_census_naive(g) -> list:
    """INDEPENDENT replay: per-cell bounds-checked neighbor loops in
    pure Python ints — no padding, no vector shifts."""
    grid = [list(map(int, row)) for row in g]
    h = len(grid)
    w = len(grid[0]) if h else 0
    out = [sum(map(sum, grid))]
    for _ in range(_LIFE_STEPS):
        nxt = [[0] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                nb = 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == 0 and dx == 0:
                            continue
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w:
                            nb += grid[yy][xx]
                nxt[y][x] = 1 if nb == 3 or (grid[y][x] and nb == 2) \
                    else 0
        grid = nxt
        out.append(sum(map(sum, grid)))
    return out



def q_life_census_images(sf_dir: str):
    """Game-of-Life population census for the first 512 images: the
    luma bitmap (≥ 384) evolved 4 steps under B3/S23 with dead
    boundaries — the cellular-automaton stand-in for every
    structured-grid stencil workload (diffusion, erosion cascades,
    CFD halos): per-step alive counts fingerprint the bitmap's local
    configuration statistics, which no histogram sees (a still-life
    block survives forever, a blinker oscillates, an r-pentomino
    explodes — all pinned). Vectorized as padded shifted adds per
    step; images are the parallel grain; at fleet scale each step is
    a map over tiles with 1-px halo exchange. INDEPENDENT per-cell
    bounds-checked Python replay over generator-rederived pixels,
    random cross-checks."""
    from geotile.ops.tiles import read_image_table

    ds = read_image_table(_image_dir_for(sf_dir),
                          columns=["image_id", "fmt", "w", "h",
                                   "bytes"])
    decoders = ImageDecodeStage(verify=False).decoders

    def census(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        keep = [i for i, s in enumerate(ids)
                if int(s[4:]) < _LIFE_N]
        cols: dict = {"image_id": []}
        for s in range(_LIFE_STEPS + 1):
            cols[f"alive{s}"] = []
        if keep:
            fmts = batch["fmt"].to_pylist()
            ws = batch["w"].to_pylist()
            hs = batch["h"].to_pylist()
            payloads = batch["bytes"].to_pylist()
            for i in keep:
                px = decoders[fmts[i]](payloads[i], ws[i], hs[i])
                g = (px.astype(np.int64).sum(axis=2)
                     >= _LIFE_T).astype(np.int64)
                cols["image_id"].append(ids[i])
                cols["alive0"].append(int(g.sum()))
                for s in range(1, _LIFE_STEPS + 1):
                    g = _life_step_vec(g)
                    cols[f"alive{s}"].append(int(g.sum()))
        return pa.table({
            "image_id": pa.array(cols["image_id"], pa.string()),
            **{f"alive{s}": pa.array(cols[f"alive{s}"], pa.int64())
               for s in range(_LIFE_STEPS + 1)}})

    return ds.map_batches(census, batch_format="pyarrow",
                          batch_size=64)



QUERIES["life_census_images"] = q_life_census_images



def _life_sidecar(img: str) -> str:
    from pathlib import Path

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_life_{Path(img).name}_{_mods_digest(_sy)}.parquet")
    if not p.exists():
        rows = []
        for i in range(_LIFE_N):
            w, h = _sy.image_size(np.array([i], np.uint64))
            w, h = int(w[0]), int(h[0])
            px = _sy.pixel_pattern(np.array([i], np.uint64), w, h)[0]
            g = (px.astype(np.int64).sum(axis=2)
                 >= _LIFE_T).astype(np.int64)
            alive = _life_census_naive(g.tolist())
            rows.append({"image_id": f"img-{i:08d}",
                         **{f"alive{s}": alive[s]
                            for s in range(_LIFE_STEPS + 1)}})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _life_sql(img: str) -> str:
    cols = ", ".join(f"alive{s}" for s in range(_LIFE_STEPS + 1))
    return (f"SELECT image_id, {cols} "
            f"FROM read_parquet('{_life_sidecar(img)}')")



# ---------------------------------------------------------------------------
# probe_count_weekly: interpolation vs binary search probe audit
# ---------------------------------------------------------------------------

_PROBE_Q = 16



def _binary_probes(arr, x: int) -> int:
    """Probes (element inspections) of the classic inclusive-bounds
    binary search until found or window empty."""
    lo, hi = 0, len(arr) - 1
    n = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        n += 1
        if arr[mid] == x:
            return n
        if arr[mid] < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return n



def _interp_probes(arr, x: int) -> int:
    """Probes of integer-arithmetic interpolation search: position
    estimate lo + (x−a[lo])·(hi−lo) // (a[hi]−a[lo]); a flat window
    (a[lo] == a[hi]) probes once and stops; out-of-range target
    stops without a probe."""
    lo, hi = 0, len(arr) - 1
    n = 0
    while lo <= hi:
        if x < arr[lo] or x > arr[hi]:
            return n
        if arr[hi] == arr[lo]:
            return n + 1
        pos = lo + (x - arr[lo]) * (hi - lo) // (arr[hi] - arr[lo])
        n += 1
        if arr[pos] == x:
            return n
        if arr[pos] < x:
            lo = pos + 1
        else:
            hi = pos - 1
    return n



def q_probe_count_weekly(sf_dir: str):
    """Index-probe audit per week: 16 splitmix-drawn targets searched
    in the week's sorted orderkeys by BINARY and by INTERPOLATION
    search, total element inspections reported — the O(log n) vs
    O(log log n) story measured, not asserted: on near-uniform keys
    interpolation's first estimate usually lands within a probe or
    two of the answer, and the audit is exactly how a storage engine
    decides between the two for its block index. Both probe
    semantics are pinned by hand-traced cases; weeks are bounded
    co-partitions, targets derived in-range per week. Sidecar
    replays both searches with a different mechanization (recursive)
    over SQL-extracted keys."""
    from geotile.synth import splitmix64

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        day = pc.divide(t["o_orderdate"].cast(pa.timestamp("us"))
                        .cast(pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        wk = pc.divide(day, pa.scalar(7, pa.int64()))
        return pa.table({"week": wk, "k": t["o_orderkey"]})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        wk = int(df["week"].iloc[0])
        arr = np.unique(df["k"].to_numpy(np.int64))
        lo, hi = int(arr[0]), int(arr[-1])
        tb = tp = 0
        for i in range(_PROBE_Q):
            x = lo + int(splitmix64(
                np.array([wk * _PROBE_Q + i], np.uint64))[0]
                % np.uint64(hi - lo + 1))
            tb += _binary_probes(arr, x)
            tp += _interp_probes(arr, x)
        return pd.DataFrame({
            "week": np.array([wk], np.int64),
            "n_keys": np.array([len(arr)], np.int64),
            "probes_binary": np.array([tb], np.int64),
            "probes_interp": np.array([tp], np.int64)})

    return (orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("week").map_groups(fold, batch_format="pandas"))



QUERIES["probe_count_weekly"] = q_probe_count_weekly



def _binary_probes_rec(arr, x, lo, hi) -> int:
    if lo > hi:
        return 0
    mid = (lo + hi) // 2
    if arr[mid] == x:
        return 1
    if arr[mid] < x:
        return 1 + _binary_probes_rec(arr, x, mid + 1, hi)
    return 1 + _binary_probes_rec(arr, x, lo, mid - 1)



def _interp_probes_rec(arr, x, lo, hi) -> int:
    if lo > hi or x < arr[lo] or x > arr[hi]:
        return 0
    if arr[hi] == arr[lo]:
        return 1
    pos = lo + (x - arr[lo]) * (hi - lo) // (arr[hi] - arr[lo])
    if arr[pos] == x:
        return 1
    if arr[pos] < x:
        return 1 + _interp_probes_rec(arr, x, pos + 1, hi)
    return 1 + _interp_probes_rec(arr, x, lo, pos - 1)



def _probe_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    from geotile.synth import splitmix64

    key = blake2b((sf_dir + "probe-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_probe_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 // 7 AS wk, "
            "o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            "ORDER BY 1, 2").fetchall()
        byweek: dict[int, list[int]] = {}
        for wk, k in rows:
            byweek.setdefault(int(wk), []).append(int(k))
        import sys

        sys.setrecursionlimit(100000)
        out_rows = []
        for wk in sorted(byweek):
            arr = sorted(set(byweek[wk]))
            lo, hi = arr[0], arr[-1]
            tb = tp = 0
            for i in range(_PROBE_Q):
                x = lo + int(splitmix64(
                    np.array([wk * _PROBE_Q + i], np.uint64))[0]
                    % np.uint64(hi - lo + 1))
                tb += _binary_probes_rec(arr, x, 0, len(arr) - 1)
                tp += _interp_probes_rec(arr, x, 0, len(arr) - 1)
            out_rows.append({"week": wk, "n_keys": len(arr),
                             "probes_binary": tb,
                             "probes_interp": tp})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _probe_sql(sf_dir: str) -> str:
    return (f"SELECT week, n_keys, probes_binary, probes_interp "
            f"FROM read_parquet('{_probe_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# json_props_stats: schema-on-read JSON projection over the props column
# ---------------------------------------------------------------------------


def q_json_props_stats(sf_dir: str):
    """Schema-on-read JSON projection — the VARIANT-column primitive
    every semi-structured warehouse (Snowflake VARIANT, DuckDB JSON,
    BigQuery) lives on: the events table's props payload is an
    untyped JSON string; this operator projects $.k out at scan time
    and aggregates per event type (count, Σk, min, max, distinct k).
    The hot path is a VECTORIZED regex projection
    (pc.extract_regex over the Arrow string column — no per-row
    json.loads) with a row-level json.loads fallback only for rows
    the fast path rejects, the classic fast-path/slow-path
    schema-on-read split. Per-batch (type, k) cell counts contract
    the shuffle to ≤ |types|·|k| cells. PURE-SQL replay via
    regexp_extract — an independent parse."""
    ev = _read(sf_dir, "events", ["event_type", "props"])

    def cells(t: pa.Table) -> pa.Table:
        s = t["props"]
        ex = pc.extract_regex(s, r'"k":\s*(?P<k>\d+)')
        ks = pc.struct_field(ex, "k")
        if ks.null_count > 0:
            import json

            raw = s.to_pylist()
            vals = []
            for r, fast in zip(raw, ks.to_pylist()):
                vals.append(int(fast) if fast is not None
                            else int(json.loads(r)["k"]))
            k = pa.array(vals, pa.int64())
        else:
            k = ks.cast(pa.int64())
        g = pa.table({"event_type": t["event_type"], "k": k}) \
            .group_by(["event_type", "k"]).aggregate([([], "count_all")])
        return pa.table({"event_type": g["event_type"], "k": g["k"],
                         "cnt": g["count_all"].cast(pa.int64())})

    agg = (ev.map_batches(cells, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["event_type", "k"]).sum("cnt")).to_pandas()
    agg.columns = ["event_type", "k", "cnt"]
    rows = []
    for et, g in agg.groupby("event_type"):
        k = g["k"].to_numpy(np.int64)
        c = g["cnt"].to_numpy(np.int64)
        rows.append({"event_type": et, "n_events": int(c.sum()),
                     "sum_k": int((k * c).sum()),
                     "min_k": int(k.min()), "max_k": int(k.max()),
                     "n_distinct_k": len(k)})
    out = pd.DataFrame(rows).sort_values("event_type") \
        .reset_index(drop=True)
    for c in out.columns[1:]:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["json_props_stats"] = q_json_props_stats

ORACLE_SQL["json_props_stats"] = """
        WITH v AS (SELECT event_type,
                          CAST(regexp_extract(props, '"k":\\s*(\\d+)',
                                              1) AS BIGINT) AS k
                   FROM events)
        SELECT event_type, COUNT(*) AS n_events,
               CAST(SUM(k) AS BIGINT) AS sum_k,
               CAST(MIN(k) AS BIGINT) AS min_k,
               CAST(MAX(k) AS BIGINT) AS max_k,
               CAST(COUNT(DISTINCT k) AS BIGINT) AS n_distinct_k
        FROM v GROUP BY 1
    """



# ---------------------------------------------------------------------------
# stress_centrality_dups: shortest-path stress centrality per component
# ---------------------------------------------------------------------------


def _bfs_counts(adj: dict, src, nodes):
    """(dist, npaths) of unweighted shortest paths from src."""
    from collections import deque

    dist = {src: 0}
    sig = {src: 1}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                sig[v] = sig[u]
                dq.append(v)
            elif dist[v] == dist[u] + 1:
                sig[v] += sig[u]
    return dist, sig



def _stress_all(adj: dict, nodes) -> dict:
    """Stress centrality (Shimbel): stress(v) = Σ_{s<t} number of
    shortest s-t paths passing THROUGH v — the integer-valued
    betweenness variant; via all-source BFS path counts and the
    σ_sv·σ_vt distance-compatibility product."""
    nodes = sorted(nodes)
    D = {}
    S = {}
    for u in nodes:
        D[u], S[u] = _bfs_counts(adj, u, nodes)
    stress = {v: 0 for v in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            if t not in D[s]:
                continue
            dst = D[s][t]
            for v in nodes:
                if v == s or v == t:
                    continue
                if v in D[s] and t in D[v] \
                        and D[s][v] + D[v][t] == dst:
                    stress[v] += S[s][v] * S[v][t]
    return stress



def _stress_enum(adj: dict, nodes) -> dict:
    """INDEPENDENT replay: explicitly ENUMERATE every shortest path
    per pair by DFS over the BFS predecessor DAG and count interior
    vertices — no path-count multiplication anywhere."""
    nodes = sorted(nodes)
    stress = {v: 0 for v in nodes}
    for i, s in enumerate(nodes):
        dist, _ = _bfs_counts(adj, s, nodes)
        for t in nodes[i + 1:]:
            if t not in dist:
                continue

            def walk(u, path):
                if u == s:
                    for v in path[1:-1]:
                        stress[v] += 1
                    return
                for w in adj.get(u, ()):
                    if dist.get(w, -2) == dist[u] - 1:
                        walk(w, path + [w])

            walk(t, [t])
    return stress



def q_stress_centrality_dups(sf_dir: str):
    """Stress centrality of every near-dup component with ≥ 3
    vertices: for each vertex the NUMBER of shortest pairwise paths
    routed through it (Shimbel 1953 — the integer-valued ancestor of
    betweenness, exact where betweenness needs fractions) — the
    broker-detection audit for dedup graphs: the max-stress vertex is
    the record gluing clusters together, the single review that
    decides a merge (complementing stoer_wagner_dups' cut weight
    with WHERE the fragility sits). All-source BFS path counts +
    the σ_sv·σ_vt compatibility product per component at dup-graph
    scale. INDEPENDENT full shortest-path DFS ENUMERATION replay —
    no multiplication — plus star/path/cycle pins and random
    cross-checks."""
    from battery.ops.dedup import embedding_dup_pairs

    pairs = embedding_dup_pairs(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()
    return _stress_from_pairs(
        [(int(r["a"]), int(r["b"])) for r in pairs], _stress_all)



def _stress_from_pairs(pairs: list, fn) -> pd.DataFrame:
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
        st = fn(adj, vs)
        mx = max(st.values())
        argmax = min(v for v in vs if st[v] == mx)
        rows.append({"comp_id": vs[0], "n_vertices": len(vs),
                     "max_stress": mx, "argmax_vertex": argmax})
    out = pd.DataFrame(rows or {"comp_id": [], "n_vertices": [],
                                "max_stress": [],
                                "argmax_vertex": []})
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("comp_id").reset_index(drop=True)



QUERIES["stress_centrality_dups"] = q_stress_centrality_dups



def _stress_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "stress-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_stress_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{sf_dir}/embeddings.parquet')")
        rows = con.execute(EMBEDDING_DUPS_SQL).fetchall()
        df = _stress_from_pairs(
            [(int(a), int(b)) for a, b, _ in rows], _stress_enum)
        out = pa.Table.from_pandas(df, preserve_index=False)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _stress_sql(sf_dir: str) -> str:
    return (f"SELECT comp_id, n_vertices, max_stress, argmax_vertex "
            f"FROM read_parquet('{_stress_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# boruvka_mst_cells: parallel-MST rounds audit (Borůvka) per spatial cell
# ---------------------------------------------------------------------------


def _boruvka(ix, iy) -> tuple:
    """(mst_weight, rounds) — Borůvka on the complete squared-
    Euclidean graph: every round each component selects its minimum
    outgoing edge under the (weight, u, v) lexicographic tie rule
    (u < v global indices), all selections merge at once, repeat
    until one component. Rounds ≤ ⌈log₂ n⌉ — the halving argument
    that makes THIS the distributed MST algorithm where Prim is
    inherently sequential. Weight equals Prim/Kruskal's by the
    matroid weight-multiset property."""
    n = len(ix)
    if n <= 1:
        return 0, 0
    ixl = [int(v) for v in ix]
    iyl = [int(v) for v in iy]
    comp = list(range(n))

    def find(a):
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    total = 0
    rounds = 0
    ncomp = n
    while ncomp > 1:
        rounds += 1
        best: dict = {}
        for i in range(n):
            ri = find(i)
            for j in range(i + 1, n):
                rj = find(j)
                if ri == rj:
                    continue
                w = (ixl[i] - ixl[j]) ** 2 + (iyl[i] - iyl[j]) ** 2
                key = (w, i, j)
                if ri not in best or key < best[ri]:
                    best[ri] = key
                if rj not in best or key < best[rj]:
                    best[rj] = key
        added = set(best.values())
        for w, i, j in added:
            ri, rj = find(i), find(j)
            if ri != rj:
                comp[rj] = ri
                total += w
                ncomp -= 1
    return total, rounds



def _boruvka_replay(ix, iy) -> tuple:
    """INDEPENDENT replay: the same contraction semantics mechanized
    over an explicit sorted edge LIST with per-round component
    labeling by dict relabel (no union-find) — plus the weight is
    cross-checked against Kruskal in the sidecar."""
    n = len(ix)
    if n <= 1:
        return 0, 0
    edges = sorted(
        ((int(ix[i]) - int(ix[j])) ** 2
         + (int(iy[i]) - int(iy[j])) ** 2, i, j)
        for i in range(n) for j in range(i + 1, n))
    label = list(range(n))
    total = 0
    rounds = 0
    while len(set(label)) > 1:
        rounds += 1
        best = {}
        for w, i, j in edges:
            li, lj = label[i], label[j]
            if li == lj:
                continue
            if li not in best:
                best[li] = (w, i, j)
            if lj not in best:
                best[lj] = (w, i, j)
        for w, i, j in set(best.values()):
            li, lj = label[i], label[j]
            if li != lj:
                total += w
                lo, hi = min(li, lj), max(li, lj)
                label = [lo if x == hi else x for x in label]
    return total, rounds



def q_boruvka_mst_cells(sf_dir: str):
    """Borůvka parallel-MST audit per spatial cell: same tree weight
    as mst_cells_tiles (the matroid invariant, asserted in tests)
    plus the ROUND COUNT — every round each component grabs its
    minimum outgoing edge and all merges apply at once, so
    components at least halve and rounds ≤ ⌈log₂ n⌉: this is the MST
    algorithm that actually DISTRIBUTES (each round is one
    map-reduce over edges), where Prim's frontier is inherently
    sequential — the rounds column IS the BSP supersteps a Pregel
    implementation would pay, data no single-machine MST reports.
    Deterministic (weight, u, v) tie rule; same co-partitions and
    cap as the Prim twin. INDEPENDENT sorted-edge-list dict-relabel
    replay (no union-find) in the sidecar, log₂ bound and
    weight-equality pinned."""
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
        use = df.head(128)        # Borůvka scans all pairs per round
        w, r = _boruvka(use["ix"].to_numpy(np.int64),
                        use["iy"].to_numpy(np.int64))
        return pd.DataFrame({
            "cell": np.array([df["cell"].iloc[0]], np.int64),
            "n_used": np.array([len(use)], np.int64),
            "mst_weight": np.array([w], np.int64),
            "boruvka_rounds": np.array([r], np.int64)})

    return (ds.map_batches(prep, batch_format="pyarrow")
            .groupby("cell").map_groups(fold, batch_format="pandas"))



QUERIES["boruvka_mst_cells"] = q_boruvka_mst_cells



def _boruvka_sidecar(img: str) -> str:
    from pathlib import Path

    import glob

    import pyarrow.parquet as pq

    import geotile.synth as _sy

    p = _oracle_cache_dir() / (
        f"oracle_boruvka_{Path(img).name}_{_mods_digest(_sy)}.parquet")
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
            sel = np.nonzero(cell == c)[0][:128]
            w, r = _boruvka_replay(ix[sel], iy[sel])
            assert w == _mst_kruskal(ix[sel].tolist(),
                                     iy[sel].tolist())
            rows.append({"cell": int(c), "n_used": len(sel),
                         "mst_weight": w, "boruvka_rounds": r})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _boruvka_sql(img: str) -> str:
    return (f"SELECT cell, n_used, mst_weight, boruvka_rounds "
            f"FROM read_parquet('{_boruvka_sidecar(img)}')")



# ---------------------------------------------------------------------------
# apriori_triples_docs: level-wise frequent-triple mining over the corpus
# ---------------------------------------------------------------------------

_APRIORI_TOP = 16



def q_apriori_triples_docs(sf_dir: str):
    """Frequent token TRIPLES over the corpus via A-priori — the
    level-wise market-basket classic (Agrawal-Srikant): candidate
    triples are generated ONLY from frequent pairs (downward-closure
    pruning — a triple can't be frequent if any sub-pair isn't), then
    counted in one more pass; support threshold = ⌈n_docs/20⌉ (5%).
    Restricted to the top-16 tokens by document frequency (count
    DESC, token ASC) so the lattice stays enumerable at any corpus
    size — the standard vocabulary gate. Per-batch distinct
    (doc, token) partials contract the scan; per-doc triple emission
    happens inside doc co-partitions against the broadcast top-16.
    PURE-SQL replay: a 3-way self-join with HAVING — counting with
    NO pruning, so agreement checks the downward-closure logic
    itself. Columns: w1 < w2 < w3, support."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def word_cells(t: pa.Table) -> pa.Table:
        # a doc is ONE row, so doc-frequency partials need no doc
        # groupby: count each batch's distinct (doc, word) per word
        from collections import Counter

        cnt: Counter = Counter()
        for txt in t["text"].to_pylist():
            cnt.update(set(txt.split()))
        ws = sorted(cnt)
        return pa.table({"word": pa.array(ws, pa.string()),
                         "df": pa.array([cnt[w] for w in ws],
                                        pa.int64())})

    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    sup = -(-n_docs // 20)
    freq = (ds.map_batches(word_cells, batch_format="pyarrow")
            .groupby("word").sum("df")).to_pandas()
    freq.columns = ["word", "df"]
    freq = freq.sort_values(["df", "word"],
                            ascending=[False, True]).head(_APRIORI_TOP)
    top = sorted(freq["word"])
    top_ref = ray.put(top)

    from itertools import combinations

    def pair_cells(t: pa.Table) -> pa.Table:
        from collections import Counter

        tset = set(_broadcast(top_ref))
        cnt: Counter = Counter()
        for txt in t["text"].to_pylist():
            present = sorted(set(txt.split()) & tset)
            cnt.update(combinations(present, 2))
        ks = sorted(cnt)
        return pa.table({
            "a": pa.array([k[0] for k in ks], pa.string()),
            "b": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([cnt[k] for k in ks], pa.int64())})

    pairs = (ds.map_batches(pair_cells, batch_format="pyarrow")
             .groupby(["a", "b"]).sum("n")).to_pandas()
    pairs.columns = ["a", "b", "n"]
    fpairs = {(r.a, r.b) for r in pairs.itertuples() if r.n >= sup}
    # downward closure: candidate triples from frequent pairs only
    cands = sorted((a, b, c) for a, b, c in combinations(top, 3)
                   if (a, b) in fpairs and (a, c) in fpairs
                   and (b, c) in fpairs)
    if not cands:
        return pd.DataFrame({"w1": pd.Series(dtype=object),
                             "w2": pd.Series(dtype=object),
                             "w3": pd.Series(dtype=object),
                             "support": pd.Series(dtype="int64")})
    cand_ref = ray.put(cands)

    def triple_cells(t: pa.Table) -> pa.Table:
        from collections import Counter

        cl = _broadcast(cand_ref)
        cnt: Counter = Counter()
        for txt in t["text"].to_pylist():
            present = set(txt.split())
            for a, b, c in cl:
                if a in present and b in present and c in present:
                    cnt[(a, b, c)] += 1
        ks = sorted(cnt)
        return pa.table({
            "w1": pa.array([k[0] for k in ks], pa.string()),
            "w2": pa.array([k[1] for k in ks], pa.string()),
            "w3": pa.array([k[2] for k in ks], pa.string()),
            "n": pa.array([cnt[k] for k in ks], pa.int64())})

    tri = (ds.map_batches(triple_cells, batch_format="pyarrow")
           .groupby(["w1", "w2", "w3"]).sum("n")).to_pandas()
    tri.columns = ["w1", "w2", "w3", "support"]
    tri = tri[tri["support"] >= sup].copy()
    tri["support"] = tri["support"].astype(np.int64)
    return tri.sort_values(["w1", "w2", "w3"]).reset_index(drop=True)



QUERIES["apriori_triples_docs"] = q_apriori_triples_docs

ORACLE_SQL["apriori_triples_docs"] = """
        WITH dt AS (SELECT DISTINCT doc_id,
                           unnest(string_split(text, ' ')) AS word
                    FROM documents),
        dt2 AS (SELECT doc_id, word FROM dt WHERE word <> ''),
        nd AS (SELECT COUNT(DISTINCT doc_id) AS n FROM documents),
        top AS (SELECT word FROM dt2 GROUP BY word
                ORDER BY COUNT(*) DESC, word LIMIT 16),
        f AS (SELECT doc_id, word FROM dt2
              WHERE word IN (SELECT word FROM top))
        SELECT x.word AS w1, y.word AS w2, z.word AS w3,
               COUNT(*) AS support
        FROM f x
        JOIN f y ON y.doc_id = x.doc_id AND y.word > x.word
        JOIN f z ON z.doc_id = x.doc_id AND z.word > y.word
        GROUP BY 1, 2, 3
        HAVING COUNT(*) >= (SELECT (n + 19) // 20 FROM nd)
    """



# ---------------------------------------------------------------------------
# rs_erasure_weekly: Reed-Solomon parity + erasure recovery per week
# ---------------------------------------------------------------------------

_RS_P = (1 << 31) - 1       # Mersenne prime field

_RS_K = 7                   # data shards: the week's 7 daily counts

_RS_M = 2                   # parity shards at x = 7, 8

_RS_ERASE = (1, 4)          # erased data positions in the audit



def _lagrange_eval(xs, ys, x: int) -> int:
    """P(x) mod p for the unique degree-<k polynomial through
    (xs, ys) — Lagrange basis form, modular inverses by Fermat."""
    p = _RS_P
    total = 0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * ((x - xj) % p) % p
            den = den * ((xi - xj) % p) % p
        total = (total + yi * num % p * pow(den, p - 2, p)) % p
    return total



def _newton_eval(xs, ys, x: int) -> int:
    """INDEPENDENT replay: Newton divided differences mod p — a
    different interpolation construction entirely (triangular
    coefficient table + nested Horner), agreeing with Lagrange by
    uniqueness of the interpolating polynomial."""
    p = _RS_P
    n = len(xs)
    coef = [y % p for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = (coef[i] - coef[i - 1]) % p
            den = (xs[i] - xs[i - level]) % p
            coef[i] = num * pow(den, p - 2, p) % p
    acc = 0
    for i in range(n - 1, -1, -1):
        acc = (acc * ((x - xs[i]) % p) + coef[i]) % p
    return acc



def q_rs_erasure_weekly(sf_dir: str):
    """Reed-Solomon erasure coding audit per week — the durability
    mechanism under every object store (HDFS EC, S3, Ceph): the
    week's 7 daily order counts are data shards (values of the
    unique degree-6 polynomial at x=0..6 over GF(2³¹−1)), two parity
    shards are P(7), P(8), and the audit then ERASES days 1 and 4
    and re-derives them from the surviving 7 of 9 shards —
    recovered-equals-original is asserted in-operator, the
    any-k-of-n property that separates RS from mere replication.
    Exact modular arithmetic throughout. Weeks are bounded
    co-partitions over contracted (week, day, n) cells. INDEPENDENT
    Newton-divided-differences replay sidecar (vs Lagrange basis —
    equal by interpolation uniqueness), hand pins on constant and
    linear polynomials."""
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
    byweek: dict = {}
    for d, n in zip(days["day"].to_numpy(np.int64),
                    days["n"].to_numpy(np.int64)):
        byweek.setdefault(int(d) // 7, {})[int(d) % 7] = int(n)
    rows = []
    for wk in sorted(byweek):
        y = [byweek[wk].get(i, 0) for i in range(_RS_K)]
        xs = list(range(_RS_K))
        par = [_lagrange_eval(xs, y, _RS_K + j) for j in range(_RS_M)]
        keep_x = [i for i in range(_RS_K) if i not in _RS_ERASE] \
            + [_RS_K + j for j in range(_RS_M)]
        keep_y = [y[i] for i in range(_RS_K) if i not in _RS_ERASE] \
            + par
        for e in _RS_ERASE:
            rec = _lagrange_eval(keep_x, keep_y, e)
            if rec != y[e] % _RS_P:
                raise AssertionError("erasure recovery failed")
        rows.append({"week": wk, "p7": par[0], "p8": par[1],
                     "recovered_ok": 1})
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out



QUERIES["rs_erasure_weekly"] = q_rs_erasure_weekly



def _rs_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "rs-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_rs_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            "SELECT epoch_us(o_orderdate) // 86400000000 AS d, "
            "COUNT(*) FROM "
            f"read_parquet('{sf_dir}/orders.parquet') GROUP BY 1"
        ).fetchall()
        byweek: dict = {}
        for d, n in rows:
            byweek.setdefault(int(d) // 7, {})[int(d) % 7] = int(n)
        out_rows = []
        xs = list(range(_RS_K))
        for wk in sorted(byweek):
            y = [byweek[wk].get(i, 0) for i in range(_RS_K)]
            par = [_newton_eval(xs, y, _RS_K + j)
                   for j in range(_RS_M)]
            keep_x = [i for i in range(_RS_K)
                      if i not in _RS_ERASE] \
                + [_RS_K + j for j in range(_RS_M)]
            keep_y = [y[i] for i in range(_RS_K)
                      if i not in _RS_ERASE] + par
            ok = all(_newton_eval(keep_x, keep_y, e) == y[e] % _RS_P
                     for e in _RS_ERASE)
            out_rows.append({"week": wk, "p7": par[0],
                             "p8": par[1],
                             "recovered_ok": int(ok)})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _rs_sql(sf_dir: str) -> str:
    return (f"SELECT week, p7, p8, recovered_ok "
            f"FROM read_parquet('{_rs_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# lz77_parse_docs: sliding-window greedy parse census
# ---------------------------------------------------------------------------

_LZ_W = 64      # window

_LZ_MIN = 3     # minimum useful match



def _lz77_parse(s: str) -> tuple:
    """(n_phrases, n_literals, n_matched_chars) of the greedy LZ77
    parse: at each position take the LONGEST match whose source
    starts in the previous _LZ_W characters (overlap with the cursor
    allowed, the classic run-length trick); ties prefer the smallest
    distance; matches shorter than _LZ_MIN emit a literal."""
    n = len(s)
    i = 0
    phrases = lits = matched = 0
    while i < n:
        best_len = 0
        best_j = -1
        for j in range(max(0, i - _LZ_W), i):
            l = 0
            while i + l < n and s[j + l] == s[i + l]:
                l += 1
            if l > best_len or (l == best_len and l > 0
                                and i - j < i - best_j):
                best_len = l
                best_j = j
        if best_len >= _LZ_MIN:
            phrases += 1
            matched += best_len
            i += best_len
        else:
            lits += 1
            i += 1
    return phrases, lits, matched



def _lz77_parse_replay(s: str) -> tuple:
    """INDEPENDENT replay: same parse semantics mechanized backwards
    — candidates scanned NEAREST-FIRST so a strict > keeps the first
    (nearest) maximal match, provably the same winner as the
    forward scan's smallest-distance tie rule."""
    n = len(s)
    i = 0
    phrases = lits = matched = 0
    while i < n:
        best_len = 0
        best_j = -1
        for j in range(i - 1, max(0, i - _LZ_W) - 1, -1):
            l = 0
            while i + l < n and s[j + l] == s[i + l]:
                l += 1
            if l > best_len:
                best_len = l
                best_j = j
        if best_len >= _LZ_MIN:
            phrases += 1
            matched += best_len
            i += best_len
        else:
            lits += 1
            i += 1
    return phrases, lits, matched



def q_lz77_parse_docs(sf_dir: str):
    """Greedy LZ77 sliding-window parse per document — the OTHER
    Lempel-Ziv (lz78_parse_sources covers the dictionary family;
    this is the window family under DEFLATE/zstd/LZ4): phrase count,
    literal count and matched-character mass under a 64-char window
    with overlap allowed — the overlap IS run-length coding (a
    20-char run parses as one phrase from distance 1, pinned), and
    matched_mass/n is the compressibility estimate a storage engine
    reads before choosing a codec. Docs are the parallel grain.
    INDEPENDENT nearest-first backward-scan replay sidecar with a
    first-maximal tie rule (provably the same winner as the
    smallest-distance rule), random cross-checks."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def census(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out = {k: [] for k in ("doc_id", "n", "n_phrases",
                               "n_literals", "matched_chars")}
        for k, txt in enumerate(texts):
            ph, li, ma = _lz77_parse(txt)
            out["doc_id"].append(int(ids[k]))
            out["n"].append(len(txt))
            out["n_phrases"].append(ph)
            out["n_literals"].append(li)
            out["matched_chars"].append(ma)
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in out.items()})

    return ds.map_batches(census, batch_format="pyarrow")



QUERIES["lz77_parse_docs"] = q_lz77_parse_docs



def _lz77_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "lz77-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_lz77_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        rows = con.execute(
            f"SELECT doc_id, text FROM "
            f"read_parquet('{sf_dir}/documents.parquet') "
            "ORDER BY doc_id").fetchall()
        out_rows = []
        for did, txt in rows:
            ph, li, ma = _lz77_parse_replay(txt)
            out_rows.append({"doc_id": int(did), "n": len(txt),
                             "n_phrases": ph, "n_literals": li,
                             "matched_chars": ma})
        out = pa.Table.from_pylist(out_rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _lz77_sql(sf_dir: str) -> str:
    return (f"SELECT doc_id, n, n_phrases, n_literals, matched_chars "
            f"FROM read_parquet('{_lz77_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# mcmf_nations: minimum-cost maximum-flow fulfillment per nation
# ---------------------------------------------------------------------------


def _mcmf_ssp(n: int, edges: list, s: int, t: int) -> tuple:
    """(max_flow, min_cost) — successive shortest augmenting paths
    with Johnson potentials (Bellman-Ford init, then Dijkstra on
    reduced costs). edges: (u, v, cap, cost)."""
    import heapq

    to, cap, cost, head = [], [], [], [[] for _ in range(n)]
    for u, v, c, w in edges:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)
    INF = 1 << 60
    pot = [INF] * n
    pot[s] = 0
    for _ in range(n - 1):          # Bellman-Ford potentials
        ch = False
        for u in range(n):
            if pot[u] == INF:
                continue
            for ei in head[u]:
                if cap[ei] > 0 and pot[u] + cost[ei] < pot[to[ei]]:
                    pot[to[ei]] = pot[u] + cost[ei]
                    ch = True
        if not ch:
            break
    flow = total = 0
    while True:
        dist = [INF] * n
        dist[s] = 0
        par = [-1] * n
        pq_ = [(0, s)]
        while pq_:
            d, u = heapq.heappop(pq_)
            if d > dist[u]:
                continue
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and pot[u] != INF and pot[v] != INF:
                    nd = d + cost[ei] + pot[u] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        par[v] = ei
                        heapq.heappush(pq_, (nd, v))
        if dist[t] == INF:
            return flow, total
        for v in range(n):
            if dist[v] < INF and pot[v] < INF:
                pot[v] += dist[v]
        b = INF
        v = t
        while v != s:
            ei = par[v]
            b = min(b, cap[ei])
            v = to[ei ^ 1]
        v = t
        while v != s:
            ei = par[v]
            cap[ei] -= b
            cap[ei ^ 1] += b
            total += b * cost[ei]
            v = to[ei ^ 1]
        flow += b



def _mcmf_cycle_cancel(n: int, edges: list, s: int, t: int) -> tuple:
    """INDEPENDENT replay: Klein's cycle canceling over edge-list
    residuals (parallel edges kept distinct) — first ANY max flow by
    BFS augmentation, then repeatedly find a negative-cost residual
    cycle with Bellman-Ford over residual ARCS and cancel it. A
    potentials/Dijkstra bug cannot survive both."""
    from collections import deque

    to, cap, cost = [], [], []
    head = [[] for _ in range(n)]
    for u, v, c, w in edges:
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)
    src_of = [0] * len(to)
    for u in range(n):
        for ei in head[u]:
            src_of[ei] = u
    flow = 0
    while True:                      # plain BFS max flow, cost-blind
        par = [-1] * n
        par[s] = s
        pare = [-1] * n
        dq = deque([s])
        while dq and par[t] < 0:
            u = dq.popleft()
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and par[v] < 0:
                    par[v] = u
                    pare[v] = ei
                    dq.append(v)
        if par[t] < 0:
            break
        b = 1 << 60
        v = t
        while v != s:
            b = min(b, cap[pare[v]])
            v = par[v]
        v = t
        while v != s:
            cap[pare[v]] -= b
            cap[pare[v] ^ 1] += b
            v = par[v]
        flow += b
    INF = 1 << 60
    while True:                      # cancel negative residual cycles
        dist = [0] * n
        pre = [-1] * n
        x = -1
        for _ in range(n):
            x = -1
            for ei in range(len(to)):
                if cap[ei] <= 0:
                    continue
                u, v = src_of[ei], to[ei]
                if dist[u] + cost[ei] < dist[v]:
                    dist[v] = dist[u] + cost[ei]
                    pre[v] = ei
                    x = v
        if x < 0:
            break
        for _ in range(n):           # walk into the cycle
            x = src_of[pre[x]]
        cyc = []
        v = x
        while True:
            ei = pre[v]
            cyc.append(ei)
            v = src_of[ei]
            if v == x:
                break
        b = min(cap[ei] for ei in cyc)
        for ei in cyc:
            cap[ei] -= b
            cap[ei ^ 1] += b
    total = 0
    for ei in range(1, len(to), 2):  # residual on reverse = flow
        total += cap[ei] * cost[ei ^ 1]
    return flow, total



def q_mcmf_nations(sf_dir: str):
    """Minimum-cost maximum-flow per nation — the THIRD member of
    the nation-matching family and its synthesis: dinic answers how
    MANY units move, hungarian prices a one-to-one pairing, MCMF
    prices the best multi-unit routing (caps 2/1/3 as in dinic, edge
    cost |Δcents|, min total cost among ALL maximum flows — unique
    even though the flow is not). Successive shortest paths with
    Johnson potentials; nations the parallel grain, supplier dim
    broadcast. Invariants pinned in tests: flow equals dinic's
    max-flow on identical networks, and on caps-all-1 complete
    bipartite instances the cost equals the Hungarian optimum.
    INDEPENDENT Klein cycle-canceling replay sidecar (any max flow,
    then cancel negative residual cycles), random cross-checks."""
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

    nation = _read(sf_dir, "nation", ["n_nationkey"]).take_all()
    all_nk = sorted(int(r["n_nationkey"]) for r in nation)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        stop = _broadcast(sup_ref)
        nk = int(df["c_nationkey"].iloc[0])
        ck, cc = _top_bal(df["c_acctbal"].to_numpy(np.float64),
                          df["c_custkey"].to_numpy(np.int64), _HUN_K)
        sk, sc = stop.get(nk, (np.empty(0, np.int64),
                               np.empty(0, np.int64)))
        n, edges, n_e = _mcmf_net(cc, sc)
        f, c = _mcmf_ssp(n, edges, 0, 1) if n_e else (0, 0)
        return pd.DataFrame({
            "n_nationkey": np.array([nk], np.int64),
            "max_flow": np.array([f], np.int64),
            "min_cost": np.array([c], np.int64)})

    got = (cust.groupby("c_nationkey")
           .map_groups(fold, batch_format="pandas")).to_pandas()
    missing = sorted(set(all_nk) - set(got["n_nationkey"]))
    if missing:
        got = pd.concat([got, pd.DataFrame({
            "n_nationkey": np.array(missing, np.int64),
            "max_flow": np.zeros(len(missing), np.int64),
            "min_cost": np.zeros(len(missing), np.int64)})],
            ignore_index=True)
    for c in got.columns:
        got[c] = got[c].astype(np.int64)
    return got.sort_values("n_nationkey").reset_index(drop=True)



def _mcmf_net(cc, sc):
    """S→cust (cap 2, cost 0), cust→supp (cap 1, cost |Δcents|, all
    pairs), supp→T (cap 3, cost 0)."""
    nc, ns = len(cc), len(sc)
    edges = []
    for i in range(nc):
        edges.append((0, 2 + i, _FLOW_CC, 0))
    for j in range(ns):
        edges.append((2 + nc + j, 1, _FLOW_CS, 0))
    n_e = 0
    for i in range(nc):
        for j in range(ns):
            edges.append((2 + i, 2 + nc + j, 1,
                          abs(int(cc[i]) - int(sc[j]))))
            n_e += 1
    return 2 + nc + ns, edges, n_e



QUERIES["mcmf_nations"] = q_mcmf_nations



def _mcmf_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "mcmf-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_mcmf_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        nks = [r[0] for r in con.execute(
            f"SELECT n_nationkey FROM "
            f"read_parquet('{sf_dir}/nation.parquet') ORDER BY 1"
        ).fetchall()]
        rows = []
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
            n, edges, n_e = _mcmf_net(np.array(cc, np.int64),
                                      np.array(sc, np.int64))
            f, c = _mcmf_cycle_cancel(n, edges, 0, 1) \
                if n_e else (0, 0)
            rows.append({"n_nationkey": int(nk), "max_flow": f,
                         "min_cost": c})
        out = pa.Table.from_pylist(rows)
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _mcmf_sql(sf_dir: str) -> str:
    return (f"SELECT n_nationkey, max_flow, min_cost "
            f"FROM read_parquet('{_mcmf_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# scc_census_orders: strongly connected components of the visited f-graph
# ---------------------------------------------------------------------------


def _scc_tarjan(nodes, f) -> list:
    """SCC sizes (sorted desc) of the functional graph restricted to
    ``nodes`` (closed under f) — Tarjan's single-pass lowlink
    algorithm, iterative (explicit stack, no recursion)."""
    idx = {}
    low = {}
    on = set()
    stack = []
    out = []
    counter = [0]
    for root in sorted(nodes):
        if root in idx:
            continue
        work = [(root, False)]
        while work:
            v, processed = work.pop()
            if processed:
                w = f(v)
                if w in idx and w in on:
                    low[v] = min(low[v], low.get(w, idx[w]))
                if low[v] == idx[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        on.discard(u)
                        comp.append(u)
                        if u == v:
                            break
                    out.append(len(comp))
                continue
            if v in idx:
                continue
            idx[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on.add(v)
            work.append((v, True))
            w = f(v)
            if w in nodes and w not in idx:
                work.append((w, False))
        # propagate lowlinks bottom-up is handled by the processed
        # phase reading the child's final low value
    return sorted(out, reverse=True)



def _scc_kosaraju(nodes, f) -> list:
    """INDEPENDENT replay: Kosaraju's two-pass — forward DFS finish
    order, then DFS over the TRANSPOSE graph (precomputed reverse
    adjacency) in reverse finish order. No lowlinks anywhere."""
    nodes = set(nodes)
    radj: dict = {v: [] for v in nodes}
    for v in nodes:
        w = f(v)
        if w in nodes:
            radj[w].append(v)
    seen = set()
    order = []
    for root in sorted(nodes):
        if root in seen:
            continue
        work = [(root, False)]
        while work:
            v, post = work.pop()
            if post:
                order.append(v)
                continue
            if v in seen:
                continue
            seen.add(v)
            work.append((v, True))
            w = f(v)
            if w in nodes and w not in seen:
                work.append((w, False))
    seen = set()
    sizes = []
    for v in reversed(order):
        if v in seen:
            continue
        sz = 0
        dq = [v]
        seen.add(v)
        while dq:
            u = dq.pop()
            sz += 1
            for x in radj[u]:
                if x not in seen:
                    seen.add(x)
                    dq.append(x)
        sizes.append(sz)
    return sorted(sizes, reverse=True)



def q_scc_census_orders(sf_dir: str):
    """Strongly-connected-component census of the splitmix64
    functional graph restricted to the states actually VISITED from
    the 256 smallest orderkeys (the closure of rho_cycle_orders'
    traces — data-dependent and closed under f by construction): in
    a functional graph every non-trivial SCC is exactly one of the
    cycles the rho walks terminate in, so the census reports how
    many distinct attractor cycles the workload's keys fall into and
    how much of the visited mass is transient tail — the global
    picture the per-key (μ, λ) rows cannot give without this
    aggregation. Tarjan's iterative lowlink pass; the key scan
    contracts to smallest-k partials as in rho. INDEPENDENT
    Kosaraju two-pass transpose replay (no lowlinks), random
    functional-graph cross-checks."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])

    def part(t: pa.Table) -> pa.Table:
        k = np.sort(t["o_orderkey"].to_numpy(zero_copy_only=False))
        return pa.table({"k": pa.array(k[:_RHO_N].astype(np.int64))})

    parts = orders.map_batches(part, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    keys = np.sort(np.array([r["k"] for r in parts],
                            np.int64))[:_RHO_N]
    visited = set()
    for k in keys.tolist():
        x = k & _RHO_MASK
        while x not in visited:
            visited.add(x)
            x = _rho_f(x)
    sizes = _scc_tarjan(visited, _rho_f)
    nontriv = [s for s in sizes if s > 1]
    return pd.DataFrame({
        "n_visited": np.array([len(visited)], np.int64),
        "n_cycles": np.array([len(nontriv)], np.int64),
        "largest_cycle": np.array([max(nontriv) if nontriv else 0],
                                  np.int64),
        "cycle_mass": np.array([sum(nontriv)], np.int64),
        "n_transient": np.array([len(visited) - sum(nontriv)],
                                np.int64)})



QUERIES["scc_census_orders"] = q_scc_census_orders



def _scc_sidecar(sf_dir: str) -> str:
    from hashlib import blake2b
    from pathlib import Path

    import duckdb

    key = blake2b((sf_dir + "scc-v1").encode(),
                  digest_size=8).hexdigest()
    p = _oracle_cache_dir() / (
        f"oracle_scc_{Path(sf_dir).name}_{key}.parquet")
    if not p.exists():
        con = duckdb.connect()
        ks = [r[0] for r in con.execute(
            f"SELECT o_orderkey FROM "
            f"read_parquet('{sf_dir}/orders.parquet') "
            f"ORDER BY 1 LIMIT {_RHO_N}").fetchall()]
        f = lambda x: _sm64_scalar_rho(x) & _RHO_MASK  # noqa: E731
        visited = set()
        for k in ks:
            x = int(k) & _RHO_MASK
            while x not in visited:
                visited.add(x)
                x = f(x)
        sizes = _scc_kosaraju(visited, f)
        nontriv = [s for s in sizes if s > 1]
        out = pa.Table.from_pylist([{
            "n_visited": len(visited), "n_cycles": len(nontriv),
            "largest_cycle": max(nontriv) if nontriv else 0,
            "cycle_mass": sum(nontriv),
            "n_transient": len(visited) - sum(nontriv)}])
        _oracle_cache_dir().mkdir(parents=True, exist_ok=True)
        _atomic_write_table(out, p)
    return str(p)



def _scc_sql(sf_dir: str) -> str:
    return (f"SELECT n_visited, n_cycles, largest_cycle, cycle_mass, "
            f"n_transient FROM read_parquet('{_scc_sidecar(sf_dir)}')")



# ---------------------------------------------------------------------------
# eh_window_counts_users: DGIM exponential-histogram sliding window count
# ---------------------------------------------------------------------------

_EH_K = 2                       # buckets allowed per size class

_EH_WINDOW = 86_400             # window: trailing day, in seconds



def _eh_estimate(ts_seconds, now: int, window: int) -> int:
    """DGIM exponential histogram: maintain at most _EH_K + 1
    buckets per power-of-two size, merging oldest pairs upward; the
    estimate drops expired buckets and counts the oldest surviving
    bucket at HALF size — the O(log²W) memory answer to 'how many
    events in the last W seconds' with relative error ≤ 1/(2k).
    Deterministic canonical maintenance."""
    buckets: list = []          # (timestamp_of_newest, size), newest first
    for t in ts_seconds:
        buckets.insert(0, (t, 1))
        sz = 1
        while True:
            same = [i for i, b in enumerate(buckets) if b[1] == sz]
            # canonical DGIM: keep k or k+1 per size, merge at k+2 —
            # the ≥k-of-each-size invariant is what the 1/(2k) bound
            # rests on (merging at k+1 breaks it, caught by tests)
            if len(same) <= _EH_K + 1:
                break
            i, j = same[-2], same[-1]      # two OLDEST of this size
            merged = (buckets[i][0], sz * 2)
            del buckets[j]
            buckets[i] = merged
            sz *= 2
        cutoff = t - window
        while buckets and buckets[-1][0] <= cutoff:
            buckets.pop()
    cutoff = now - window
    while buckets and buckets[-1][0] <= cutoff:
        buckets.pop()
    if not buckets:
        return 0
    total = sum(b[1] for b in buckets)
    return total - buckets[-1][1] // 2

__defined__ = (
    '_AC_PATTERNS',
    '_APRIORI_TOP',
    '_BTREE_FANOUTS',
    '_DTW_LEN',
    '_EH_K',
    '_EH_WINDOW',
    '_FFD_CAP',
    '_FIBS',
    '_FLOW_CC',
    '_FLOW_CS',
    '_FLOW_TH',
    '_GOTOH_EXT',
    '_GOTOH_INF',
    '_GOTOH_OPEN',
    '_GOTOH_SUB',
    '_HOUGH_N',
    '_HOUGH_T',
    '_HUN_K',
    '_KADANE_K',
    '_LIFE_N',
    '_LIFE_STEPS',
    '_LIFE_T',
    '_LZ_MIN',
    '_LZ_W',
    '_MST_CAP',
    '_MST_SHIFT',
    '_MSUB_K',
    '_MSUB_N',
    '_NTT_A',
    '_NTT_B',
    '_NTT_G',
    '_NTT_LAGS',
    '_NTT_P',
    '_OBST_K',
    '_PROBE_Q',
    '_RECT_HW_X',
    '_RECT_HW_Y',
    '_RHO_MASK',
    '_RHO_N',
    '_RMQ_Q',
    '_RS_ERASE',
    '_RS_K',
    '_RS_M',
    '_RS_P',
    '_SLIDE_W',
    '_TSP_K',
    '_VIT_HOT',
    '_VIT_SWITCH',
    '_ac_build',
    '_ac_counts',
    '_assign_dp',
    '_bfs_counts',
    '_binary_probes',
    '_binary_probes_rec',
    '_bitlen_vec',
    '_bm_sidecar',
    '_bm_sql',
    '_border_from_z',
    '_border_kmp',
    '_border_sidecar',
    '_border_sql',
    '_boruvka',
    '_boruvka_replay',
    '_boruvka_sidecar',
    '_boruvka_sql',
    '_build_fibs',
    '_cached_ac',
    '_diam2_brute',
    '_diam2_hull',
    '_diam_sidecar',
    '_diam_sql',
    '_dinic',
    '_dtw_cost',
    '_dtw_naive',
    '_dtw_sidecar',
    '_dtw_sql',
    '_edmonds_karp',
    '_eh_estimate',
    '_ffd_bins',
    '_ffd_bins_replay',
    '_ffd_sidecar',
    '_ffd_sql',
    '_flow_sidecar',
    '_flow_sql',
    '_gale_shapley',
    '_gale_shapley_rec',
    '_gotoh_cost',
    '_gotoh_dijkstra',
    '_gotoh_sidecar',
    '_gotoh_sql',
    '_gs_prefs',
    '_gs_sidecar',
    '_gs_sql',
    '_held_karp',
    '_hk_sidecar',
    '_hk_sql',
    '_hopcroft_karp',
    '_hough_peak_naive',
    '_hough_peak_vec',
    '_hough_sidecar',
    '_hough_sql',
    '_hun_top',
    '_hungarian',
    '_hungarian_sidecar',
    '_hungarian_sql',
    '_interp_probes',
    '_interp_probes_rec',
    '_kadane_best',
    '_kadane_prefix',
    '_kuhn_matching',
    '_lagrange_eval',
    '_life_census_naive',
    '_life_sidecar',
    '_life_sql',
    '_life_step_vec',
    '_lz77_parse',
    '_lz77_parse_replay',
    '_lz77_sidecar',
    '_lz77_sql',
    '_manacher_max',
    '_manacher_sidecar',
    '_manacher_sql',
    '_max_submatrix',
    '_max_submatrix_brute',
    '_mcmf_cycle_cancel',
    '_mcmf_net',
    '_mcmf_sidecar',
    '_mcmf_sql',
    '_mcmf_ssp',
    '_mh_dp',
    '_mh_p_d',
    '_mh_sidecar',
    '_mh_sql',
    '_mincut_via_flow',
    '_moore_hodgson',
    '_mst_kruskal',
    '_mst_prim',
    '_mst_sidecar',
    '_mst_sql',
    '_msub_sidecar',
    '_msub_sql',
    '_nation_flow_net',
    '_newton_eval',
    '_ntt',
    '_obst_cubic',
    '_obst_knuth',
    '_obst_sidecar',
    '_obst_sql',
    '_pack_optimal',
    '_pal_expand_max',
    '_probe_sidecar',
    '_probe_sql',
    '_rect_sidecar',
    '_rect_sql',
    '_rects_from_centers',
    '_rho_brent',
    '_rho_f',
    '_rho_floyd',
    '_rho_sidecar',
    '_rho_sql',
    '_rmq_query',
    '_rmq_ranges_sidecar',
    '_rmq_sparse',
    '_rmq_sql',
    '_rs_sidecar',
    '_rs_sql',
    '_scc_kosaraju',
    '_scc_sidecar',
    '_scc_sql',
    '_scc_tarjan',
    '_slide_minmax',
    '_sm64_scalar_rho',
    '_stoer_wagner',
    '_stress_all',
    '_stress_enum',
    '_stress_from_pairs',
    '_stress_sidecar',
    '_stress_sql',
    '_sw_from_pairs',
    '_sw_sidecar',
    '_sw_sql',
    '_top_bal',
    '_trie_counts',
    '_tsp_memo',
    '_tsp_sidecar',
    '_tsp_sql',
    '_union_area_grid',
    '_union_area_sweep',
    '_universal_bits',
    '_viterbi_bw',
    '_viterbi_fw',
    '_viterbi_sidecar',
    '_viterbi_sql',
    '_xcorr_direct',
    '_xcorr_ntt',
    '_z_array',
    'q_aho_corasick_docs',
    'q_apriori_triples_docs',
    'q_block_match_motion_clips',
    'q_border_census_docs',
    'q_boruvka_mst_cells',
    'q_btree_buildplan_orders',
    'q_dinic_flow_nations',
    'q_dtw_adjacent_tracks',
    'q_elias_universal_bits_users',
    'q_ffd_binpack_weekly',
    'q_gale_shapley_nations',
    'q_gotoh_adjacent_docs',
    'q_held_karp_tsp_cells',
    'q_hopcroft_karp_dups',
    'q_hough_peak_images',
    'q_hull_diameter_cells',
    'q_hungarian_match_nations',
    'q_json_props_stats',
    'q_kadane_priority_days',
    'q_life_census_images',
    'q_lz77_parse_docs',
    'q_manacher_docs',
    'q_max_submatrix_images',
    'q_mcmf_nations',
    'q_moore_hodgson_weekly',
    'q_mst_cells_tiles',
    'q_ntt_lag_xcorr',
    'q_obst_sources',
    'q_probe_count_weekly',
    'q_radix_trie_sources',
    'q_rect_union_cells',
    'q_rho_cycle_orders',
    'q_rmq_day_ranges',
    'q_rs_erasure_weekly',
    'q_scc_census_orders',
    'q_sliding_extrema_days',
    'q_stoer_wagner_dups',
    'q_stress_centrality_dups',
    'q_viterbi_segments_users',
)
