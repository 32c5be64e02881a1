"""Distributed connected components over an edge list (hash-to-min).

The dedup endgame: near-dup PAIRS (minhash / simhash / n-gram Jaccard /
embedding-cosine — every pair generator in ``ops/dedup.py``) are only
half the job; grouping pairs into duplicate CLUSTERS and electing one
canonical representative per cluster is what a training-data pipeline
actually applies. That grouping is connected components on the pair
graph.

Algorithm: hash-to-min label propagation (Rastogi et al., "Finding
Connected Components in Map-Reduce in Logarithmic Rounds" — the
simple-neighborhood variant). Every node starts labeled with the
smallest id in its closed 1-hop neighborhood; each round every node
re-labels to the minimum label across itself and its neighbors;
fixpoint = every node carries the minimum id of its component. Each
round ALSO pointer-jumps (``lbl ← lbl[lbl]``), halving label-chain
depth, so rounds needed = O(log diameter) — a handful even for
path-shaped graphs, 2-3 for the dense blobs dup clusters form.

Scale shape per round (nothing leaves node/edge scale):
  - the symmetric edge list is bucketed by dst ONCE (``bucket =
    h(dst) % B`` is label-independent) and materialized; rounds reuse
    the same co-partitioned blocks.
  - labels (node, lbl) are re-bucketed by node (node-scale rows) and
    co-grouped with the edge buckets; within a bucket a numpy
    sort+searchsorted gather emits (src, lbl[dst]) messages.
  - messages ∪ self-labels → ``groupby(node).min(lbl)`` — the only
    all-to-all, over node-scale rows.
  - convergence: labels only ever decrease, so ``sum(lbl)`` is a
    strictly decreasing monotone until fixpoint; one cheap aggregate
    per round replaces a change-count join.

Driver holds per-round scalars only; labels are materialized each
round (node-scale) so the lazy plan does not re-execute the whole
history each iteration.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from geotile.synth import splitmix64


def _bucket_of(v: np.ndarray, n_buckets: int) -> np.ndarray:
    return (splitmix64(v.astype(np.int64).view(np.uint64)) % np.uint64(n_buckets)).astype(np.int64)


def connected_components(
    edges: rd.Dataset,
    a: str = "a",
    b: str = "b",
    n_buckets: int = 32,
    max_rounds: int = 64,
) -> rd.Dataset:
    """Connected components of the undirected graph given by int64 edge
    columns ``(a, b)``. Returns a Dataset ``(node, cluster_id)`` over
    every node incident to at least one edge, where ``cluster_id`` is
    the smallest node id in the component (the canonical-representative
    convention every dedup consumer uses). Self-loops and duplicate /
    reversed edges are tolerated.

    ``max_rounds`` guards pathological path-shaped graphs (diameter
    bound); raises RuntimeError rather than returning partial labels.

    Node ids must be NON-NEGATIVE int64 (-1 is the internal edge/label
    row discriminator in the co-group schema) — true for every id
    column this engine produces.
    """
    # symmetrize + pre-bucket by dst once; reused every round
    def sym(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "bucket": pa.array(_bucket_of(dst, n_buckets)),
            }
        )

    edges_b = edges.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True).materialize()
    if edges_b.count() == 0:
        # Ray never schedules empty blocks, so an empty edge list would
        # otherwise propagate a schemaless dataset into consumers
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "cluster_id": pa.array([], pa.int64())})
        )

    # round 0 folded in: lbl(u) = min(u, min over neighbors) via one
    # groupby over the symmetric edges plus the self-edge
    def self_min(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"src": t["src"], "dst": pa.array(np.minimum(s, d))}
        )

    # label combines are hash-bucket co-partitions + per-bucket Arrow
    # group_by minima, NOT Ray node-scale Aggregates (per-block fixed
    # cost × rounds — the pagerank/window_events law). The bucket
    # groupby also bounds the label block count at ``n_buckets``,
    # which is load-bearing: each round's union(3 branches) otherwise
    # MULTIPLIES the block count ~3× and per-round wall time grows
    # geometrically with it (measured 1s → 2.8 → 8.1 → 28.6s/round on
    # a 150-edge graph — the blocks-count-not-rows cost law).
    def add_nb_src(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("nb", pa.array(_bucket_of(s, n_buckets)))

    def min_by_src(t: pa.Table) -> pa.Table:
        g = t.group_by("src").aggregate([("dst", "min")])
        return pa.table({"node": g["src"], "lbl": g["dst_min"]})

    labels = (
        edges_b.map_batches(self_min, batch_format="pyarrow")
        .map_batches(add_nb_src, batch_format="pyarrow")
        .groupby("nb")
        .map_groups(min_by_src, batch_format="pyarrow")
        .repartition(n_buckets)
        .materialize()
    )
    prev_sum = labels.sum("lbl")

    def add_nb_node(t: pa.Table) -> pa.Table:
        nd = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("nb", pa.array(_bucket_of(nd, n_buckets)))

    def min_by_node(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("lbl", "min")])
        return pa.table({"node": g["node"], "lbl": g["lbl_min"]})

    def tag_labels(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                # one schema for both sides of the co-group: edge rows
                # are (src, dst, -1); label rows are (-1, node, lbl)
                "src": pa.array(np.full(len(node), -1, dtype=np.int64)),
                "dst": pa.array(node),
                "lbl": t["lbl"],
                "bucket": pa.array(_bucket_of(node, n_buckets)),
            }
        )

    def tag_edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t["src"],
                "dst": t["dst"],
                "lbl": pa.array(np.full(len(t), -1, dtype=np.int64)),
                "bucket": t["bucket"],
            }
        )

    def gather(df: pd.DataFrame) -> pa.Table:
        # LOCAL CONTRACTION, not a single lookup: every row in the
        # bucket is an intra-component link (graph edges, node→label
        # links, pointer-jump links — a label is always a member of its
        # node's component, so treating label rows as edges is sound).
        # Running min-propagation to the LOCAL fixpoint collapses every
        # chain that lands in this bucket in one round, so global
        # rounds ≈ how many buckets a component spans, not its
        # diameter (measured 68s → 14s on a 271-edge pair graph).
        # Returns Arrow so the per-round union with the (Arrow) labels
        # dataset keeps one block type.
        is_lbl = df["lbl"].to_numpy() >= 0
        e1 = df["src"].to_numpy().astype(np.int64)
        e2 = df["dst"].to_numpy().astype(np.int64)
        e1 = np.where(is_lbl, e2, e1)  # label row (−1, node, lbl) → link node—lbl
        e2 = np.where(is_lbl, df["lbl"].to_numpy().astype(np.int64), e2)
        ids, inv = np.unique(np.concatenate([e1, e2]), return_inverse=True)
        i1, i2 = inv[: len(e1)], inv[len(e1):]
        l = ids.copy()
        for _ in range(64):  # local diameter bound; values strictly ↓
            before = l.sum()
            np.minimum.at(l, i1, l[i2])
            np.minimum.at(l, i2, l[i1])
            # pointer jump: l values are ids — map back to indices
            l = np.minimum(l, l[np.searchsorted(ids, l)])
            if l.sum() == before:
                break
        return pa.table({"node": pa.array(ids), "lbl": pa.array(l)})

    def tag_jump(t: pa.Table) -> pa.Table:
        # pointer-jumping pairs (u → lbl(u)) in the edge-row schema:
        # looking lbl(u)'s label up through the same co-group gives
        # lbl(lbl(u)), which halves label-chain depth every round and
        # turns diameter-many rounds into O(log diameter)
        lbl = t["lbl"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": t["node"],
                "dst": pa.array(lbl),
                "lbl": pa.array(np.full(len(lbl), -1, dtype=np.int64)),
                "bucket": pa.array(_bucket_of(lbl, n_buckets)),
            }
        )

    for _round in range(max_rounds):
        msgs = (
            edges_b.map_batches(tag_edges, batch_format="pyarrow")
            .union(labels.map_batches(tag_jump, batch_format="pyarrow"))
            .union(labels.map_batches(tag_labels, batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(gather, batch_format="pandas")
        )
        labels = (
            msgs.union(labels)
            .map_batches(add_nb_node, batch_format="pyarrow")
            .groupby("nb")
            .map_groups(min_by_node, batch_format="pyarrow")
            # STILL load-bearing with the bucket combine: map_groups'
            # output block count tracks its sort's partition count,
            # which tracks the (3-branch union) input block count — so
            # without this coalesce the label block count compounds
            # every round and per-round wall time grows geometrically
            # (re-measured in-round: the r5 bucket-combine edit briefly
            # dropped it and the 150-edge CC test went from seconds to
            # unbounded)
            .repartition(n_buckets)
            .materialize()
        )
        cur_sum = labels.sum("lbl")
        if cur_sum == prev_sum:
            return labels.map_batches(
                lambda t: t.rename_columns(["node", "cluster_id"]),
                batch_format="pyarrow",
            )
        prev_sum = cur_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_rounds} rounds "
        "(graph depth exceeds the guard; raise max_rounds)"
    )


def pagerank_int(
    edges: rd.Dataset,
    a: str = "a",
    b: str = "b",
    iters: int = 3,
    scale: int = 1_000_000,
    damp_num: int = 85,
    den: int = 100,
    n_buckets: int = 32,
) -> rd.Dataset:
    """Fixed-iteration PageRank on the undirected graph ``(a, b)`` in
    EXACT integer arithmetic — the iterative-algorithm shape (BSP
    rounds over a co-partitioned edge list) with a bit-exact SQL
    replay. Scores live on an integer lattice: s0 = ``scale`` for every
    node, and each round

        s'(v) = base + Σ_{u→v} (damp_num · s(u)) // (den · deg(u)),
        base  = (scale · (den − damp_num)) // den

    Floor division per SOURCE (computed once per u, then summed as
    int64) keeps every engine bit-identical — no float summation-order
    hazard, which is why the oracle can be three chained SQL CTEs.

    Scale shape per round (same discipline as connected_components):
    the symmetric edge list is bucketed by SOURCE once and
    materialized; all of u's out-edges land in u's bucket, so deg(u)
    is derived IN-BUCKET from edge multiplicity (no degree join);
    contributions are pre-summed per destination inside the bucket, so
    the per-round shuffle is the node-scale ``groupby(dst).sum``.
    Scores (node-scale) are re-bucketed and materialized each round —
    iterating on a lazy plan would re-execute the whole history.

    Node ids must be NON-NEGATIVE int64 (-1 discriminates score rows
    inside the co-group, as in connected_components).
    """
    if iters < 1:
        raise ValueError("pagerank_int requires iters >= 1 "
                         "(0 rounds would return no scores dataset)")
    base = (scale * (den - damp_num)) // den

    def sym(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "s": pa.array(np.full(len(src), -1, dtype=np.int64)),
                "bucket": pa.array(_bucket_of(src, n_buckets)),
            }
        )

    edges_b = edges.map_batches(
        sym, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if edges_b.count() == 0:
        # same empty-edge schema guard as connected_components
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "score": pa.array([], pa.int64())})
        )

    scores: rd.Dataset | None = None  # None = implicit uniform s0

    def tag_scores(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(node),
                "dst": pa.array(np.full(len(node), -1, dtype=np.int64)),
                "s": t["score"],
                "bucket": pa.array(_bucket_of(node, n_buckets)),
            }
        )

    def make_contrib(first_round: bool):
        def contrib(df: pd.DataFrame) -> pa.Table:
            is_edge = df["dst"].to_numpy() >= 0
            e_src = df["src"].to_numpy().astype(np.int64)[is_edge]
            e_dst = df["dst"].to_numpy().astype(np.int64)[is_edge]
            if len(e_src) == 0:
                return pa.table(
                    {"node": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
                )
            srcs, sidx = np.unique(e_src, return_inverse=True)
            deg = np.bincount(sidx).astype(np.int64)
            if first_round:
                s = np.full(len(srcs), scale, dtype=np.int64)
            else:
                sn = df["src"].to_numpy().astype(np.int64)[~is_edge]
                sv = df["s"].to_numpy().astype(np.int64)[~is_edge]
                o = np.argsort(sn)
                s = sv[o][np.searchsorted(sn[o], srcs)]
            per_src = (damp_num * s) // (den * deg)
            # pre-sum per destination inside the bucket; int64
            # accumulator (bincount's float64 weights would round past
            # 2^53 on hub nodes)
            dsts, didx = np.unique(e_dst, return_inverse=True)
            csum = np.zeros(len(dsts), dtype=np.int64)
            np.add.at(csum, didx, per_src[sidx])
            return pa.table({"node": pa.array(dsts), "c": pa.array(csum)})

        return contrib

    def add_nb(t: pa.Table) -> pa.Table:
        nd = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("nb", pa.array(_bucket_of(nd, n_buckets)))

    def node_combine(t: pa.Table) -> pa.Table:
        # per-bucket Arrow combine of cross-bucket contributions — not
        # a Ray node-scale Aggregate per round (its per-block fixed
        # cost repeated ×iters dominated the BSP loop); every node's
        # partials co-locate because nb derives from node alone
        g = t.group_by("node").aggregate([("c", "sum")])
        return pa.table(
            {"node": g["node"],
             "score": pc.add(g["c_sum"].cast(pa.int64()),
                             pa.scalar(base))})

    for it in range(iters):
        stream = edges_b
        if scores is not None:
            stream = stream.union(
                scores.map_batches(tag_scores, batch_format="pyarrow")
            )
        scores = (
            stream.groupby("bucket")
            .map_groups(make_contrib(scores is None), batch_format="pandas")
            .map_batches(add_nb, batch_format="pyarrow")
            .groupby("nb")
            .map_groups(node_combine, batch_format="pyarrow")
            .repartition(n_buckets)  # bound the per-round block growth
            # (map_groups blocks track the union's partition count —
            # the connected_components lesson)
            .materialize()
        )
    return scores


def triangle_count(
    edges: rd.Dataset,
    a: str = "a",
    b: str = "b",
    n_buckets: int = 16,
) -> rd.Dataset:
    """Exact triangle count of the undirected simple graph ``(a, b)``
    via degree-ordered orientation + wedge semi-join — the MapReduce-
    classic (Suri & Vassilvitskii, "Counting Triangles and the Curse of
    the Last Reducer", WWW'11):

    1. degree per node (edge-scale groupby);
    2. orient each edge low→high in the (degree, id) total order —
       max out-degree drops to O(√m), so per-source wedge generation
       is bounded even at power-law hubs;
    3. wedges: per source, all C(outdeg, 2) out-neighbor pairs (one
       source co-partition);
    4. a wedge (w1, w2) closes a triangle iff the undirected edge
       {w1, w2} exists — checked by a hash-bucketed co-partition
       semi-count against the packed edge-key set (never a broadcast
       of the edge set). Each triangle has exactly ONE out-degree-2
       apex under an acyclic orientation, so it is counted once.

    Driver holds the degree dict (node-scale; the graphs this engine
    feeds it — dup-pair graphs — are dimension-scale. A planetary
    node space would derive degrees in-bucket like pagerank_int).
    Returns one row: (n_nodes, n_edges, n_triangles). Node ids must
    be non-negative and < 2^31 (packed-pair key contract, asserted).
    """
    import ray

    from geotile.ops.join import _get_broadcast

    def canon(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (u >= 0).all() and (v >= 0).all() and max(u.max(initial=0), v.max(initial=0)) < (1 << 31), \
            "triangle_count packed-key contract: ids in [0, 2^31)"
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi  # drop self-loops
        k = np.unique(lo[keep] * (1 << 31) + hi[keep])
        return pa.table({"k": pa.array(k)})

    ekeys = (
        edges.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k").count().select_columns(["k"]).materialize()
    )
    m = ekeys.count()
    if m == 0:
        return rd.from_arrow(pa.table({
            "n_nodes": pa.array([0], pa.int64()),
            "n_edges": pa.array([0], pa.int64()),
            "n_triangles": pa.array([0], pa.int64()),
        }))

    def ends(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        nodes = np.concatenate([k >> 31, k & ((1 << 31) - 1)])
        u, c = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(u), "d": pa.array(c.astype(np.int64))})

    deg_rows = ekeys.map_batches(ends, batch_format="pyarrow").groupby(
        "node").sum("d").take_all()  # node-scale
    nodes_arr = np.array(sorted(r["node"] for r in deg_rows), dtype=np.int64)
    deg_map = {r["node"]: r["sum(d)"] for r in deg_rows}
    degs_arr = np.array([deg_map[n] for n in nodes_arr], dtype=np.int64)
    n_nodes = len(nodes_arr)
    deg_ref = ray.put((nodes_arr, degs_arr))

    def orient(t: pa.Table) -> pa.Table:
        nodes, degs = _get_broadcast(deg_ref)
        k = t["k"].to_numpy(zero_copy_only=False)
        lo, hi = k >> 31, k & ((1 << 31) - 1)
        dl = degs[np.searchsorted(nodes, lo)]
        dh = degs[np.searchsorted(nodes, hi)]
        fwd = (dl < dh) | ((dl == dh) & (lo < hi))
        s = np.where(fwd, lo, hi)
        return pa.table({"src": pa.array(s),
                         "dst": pa.array(np.where(fwd, hi, lo)),
                         "sb": pa.array(_bucket_of(s, n_buckets))})

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        # ALL sources of one hash(src) bucket in a single Ray group
        # (per-SOURCE map_groups paid the ~0.5 ms/group scheduling law
        # at node cardinality); per-source triu runs inside the bucket
        # over a lexsorted run partition
        src = df["src"].to_numpy(np.int64)
        dst = df["dst"].to_numpy(np.int64)
        o = np.lexsort((dst, src))
        s, d = src[o], dst[o]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        bounds = np.r_[starts, len(s)]
        ks: list[np.ndarray] = []
        for st, en in zip(bounds[:-1], bounds[1:]):
            out = d[st:en]  # sorted + unique per source (edge keys are)
            if len(out) < 2:
                continue
            i, j = np.triu_indices(len(out), 1)
            ks.append(out[i] * (1 << 31) + out[j])  # w1 < w2 canonically
        if not ks:
            return pd.DataFrame({"k": np.empty(0, np.int64)})
        return pd.DataFrame({"k": np.concatenate(ks)})

    wk = (
        ekeys.map_batches(orient, batch_format="pyarrow")
        .groupby("sb").map_groups(wedges, batch_format="pandas")
    )

    # closure semi-count: bucket wedge keys and edge keys by hash, count
    # wedge∈edges per bucket, sum — the edge set never broadcasts
    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            k = t["k"].to_numpy(zero_copy_only=False)
            return pa.table({
                "k": t["k"],
                "bucket": pa.array(_bucket_of(k, n_buckets)),
                "__side": pa.array(np.full(len(t), side, np.int8)),
            })
        return fn

    both = wk.map_batches(tag(0), batch_format="pyarrow").union(
        ekeys.map_batches(tag(1), batch_format="pyarrow"))

    def closed(df: pd.DataFrame) -> pd.DataFrame:
        w = df[df["__side"] == 0]["k"].to_numpy(np.int64)
        e = df[df["__side"] == 1]["k"].to_numpy(np.int64)
        return pd.DataFrame({"n": np.array([np.isin(w, e).sum()], np.int64)})

    tri = sum(r["n"] for r in both.groupby("bucket").map_groups(
        closed, batch_format="pandas").take_all())
    return rd.from_arrow(pa.table({
        "n_nodes": pa.array([n_nodes], pa.int64()),
        "n_edges": pa.array([int(m)], pa.int64()),
        "n_triangles": pa.array([int(tri)], pa.int64()),
    }))


def bfs_levels(
    edges: rd.Dataset,
    seeds: rd.Dataset,
    seed_key: str = "node",
    a: str = "a",
    b: str = "b",
    rounds: int = 3,
    n_buckets: int = 16,
) -> rd.Dataset:
    """Fixed-round BSP breadth-first search: level = hop distance from
    the seed set, capped at ``rounds``. Returns (node, level) for every
    reached node (seeds at level 0). Each round is one pass over the
    materialized symmetric edge list: a size-guarded semi-join keeps
    edges whose source is in the frontier, the distinct neighbor set
    anti-joins the visited set, and the survivors become the next
    frontier — frontier/visited never land on the driver (both the
    semi- and anti-join fall back to hash-bucketed co-partition when
    the keyset outgrows the broadcast guard), matching the reachability
    pattern of pagerank_int/connected_components."""
    from battery.ops.relational import anti_join, semi_join

    def sym(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": pa.array(np.concatenate([u, v])),
                         "v": pa.array(np.concatenate([v, u]))})

    e = edges.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def lvl(x: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": t[seed_key].cast(pa.int64()),
                             "level": pa.array(np.full(len(t), x, np.int64))})
        return fn

    visited = seeds.map_batches(lvl(0), batch_format="pyarrow").materialize()
    frontier = visited
    if e.count() == 0:
        return visited
    for r in range(1, rounds + 1):
        hits = semi_join(e, frontier, "u", "node", n_buckets=n_buckets)
        nb = hits.map_batches(
            lambda t: pa.table({"node": t["v"]}), batch_format="pyarrow"
        ).groupby("node").count().select_columns(["node"])
        fresh = anti_join(nb.materialize(), visited, "node", "node",
                          n_buckets=n_buckets)
        frontier = fresh.map_batches(
            lambda t, _x=r: pa.table(
                {"node": t["node"], "level": pa.array(np.full(len(t), _x, np.int64))}
            ),
            batch_format="pyarrow",
        ).materialize()
        if frontier.count() == 0:
            break
        visited = visited.union(frontier).materialize()
    return visited
