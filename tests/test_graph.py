"""connected_components vs a brute-force union-find on adversarial
shapes: random sparse graphs, long paths (diameter stress), stars
(hot-node stress), duplicate/reversed/self edges."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _cc_brute(edges):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {n: find(n) for n in parent}


def _run(ray_session, edges, **kw):
    import ray.data as rd

    from battery.ops.graph import connected_components

    t = pa.table(
        {
            "a": pa.array([u for u, _ in edges], pa.int64()),
            "b": pa.array([v for _, v in edges], pa.int64()),
        }
    )
    got = connected_components(rd.from_arrow(t).repartition(4), **kw).to_pandas()
    return dict(zip(got.node.astype(int), got.cluster_id.astype(int)))


class TestConnectedComponents:
    def test_random_sparse(self, ray_session):
        rng = np.random.default_rng(5)
        edges = [tuple(map(int, e)) for e in rng.integers(0, 200, (150, 2))]
        assert _run(ray_session, edges, n_buckets=8) == _cc_brute(edges)

    def test_path_and_star(self, ray_session):
        # an 18-node path (diameter stress: needs ~5 pointer-jump
        # rounds) + a 50-leaf star + a disjoint triangle with duplicate
        # and reversed edges
        edges = [(i, i + 1) for i in range(100, 118)]
        edges += [(500, 600 + i) for i in range(50)]
        edges += [(7, 8), (8, 9), (9, 7), (8, 7), (7, 7)]
        assert _run(ray_session, edges, n_buckets=4) == _cc_brute(edges)

    def test_single_edge_and_selfloop(self, ray_session):
        edges = [(3, 3), (10, 11)]
        got = _run(ray_session, edges)
        assert got == {3: 3, 10: 10, 11: 10}

    def test_max_rounds_guard(self, ray_session):
        edges = [(i, i + 1) for i in range(0, 30)]
        with pytest.raises(RuntimeError, match="converge"):
            _run(ray_session, edges, max_rounds=2)


def _pr_brute(edges, iters=3, scale=1_000_000, damp=85, den=100):
    """Scalar integer PageRank with the exact pagerank_int formula."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    base = (scale * (den - damp)) // den
    s = {n: scale for n in adj}
    for _ in range(iters):
        per_src = {u: (damp * s[u]) // (den * len(adj[u])) for u in adj}
        s = {
            v: base + sum(per_src[u] for u in adj[v])
            for v in adj
        }
    return s


class TestPagerankInt:
    def _run(self, edges, **kw):
        import ray.data as rd
        from battery.ops.graph import pagerank_int

        ds = rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([e[0] for e in edges], pa.int64()),
                    "b": pa.array([e[1] for e in edges], pa.int64()),
                }
            )
        ).repartition(5)
        out = pagerank_int(ds, **kw).to_pandas()
        return dict(zip(out["node"].astype(int), out["score"].astype(int)))

    def test_matches_brute_force_random(self, ray_session):
        rng = np.random.default_rng(31)
        # two blobs + a path + a hub: distinct pairs, no self-loops
        edges = set()
        while len(edges) < 120:
            x, y = sorted(rng.integers(0, 60, 2).tolist())
            if x != y:
                edges.add((x, y))
        edges |= {(i, i + 1) for i in range(200, 215)}
        edges |= {(300, 400 + i) for i in range(30)}
        edges = sorted(edges)
        assert self._run(edges, iters=3, n_buckets=4) == _pr_brute(edges)

    def test_star_mass_flows_to_hub(self, ray_session):
        edges = [(0, i) for i in range(1, 21)]
        got = self._run(edges, iters=3, n_buckets=4)
        assert got == _pr_brute(edges)
        assert got[0] > got[1]  # hub outranks leaves
        assert len({got[i] for i in range(1, 21)}) == 1  # leaves tie

    def test_single_iteration_and_two_cliques(self, ray_session):
        edges = [(0, 1), (1, 2), (0, 2), (10, 11)]
        assert self._run(edges, iters=1, n_buckets=2) == _pr_brute(
            edges, iters=1
        )


class TestTriangleCount:
    def test_matches_brute_force(self, ray_session):
        import itertools

        import ray.data as rd

        from battery.ops.graph import triangle_count

        rng = np.random.default_rng(11)
        n = 40
        # dense-ish random graph with hubs (exercises degree ordering)
        a, b = rng.integers(0, n, 300), rng.integers(0, n, 300)
        keep = a != b
        a, b = a[keep], b[keep]
        ds = rd.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                     "b": pa.array(b, pa.int64())})).repartition(4)
        got = triangle_count(ds).to_pandas().iloc[0]

        E = {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist())}
        nodes = {x for e in E for x in e}
        adj = {v: set() for v in nodes}
        for x, y in E:
            adj[x].add(y); adj[y].add(x)
        tri = sum(1 for u, v, w in itertools.combinations(sorted(nodes), 3)
                  if v in adj[u] and w in adj[u] and w in adj[v])
        assert got["n_triangles"] == tri
        assert got["n_edges"] == len(E)
        assert got["n_nodes"] == len(nodes)

    def test_empty_and_triangle_free(self, ray_session):
        import ray.data as rd

        from battery.ops.graph import triangle_count

        empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                        "b": pa.array([], pa.int64())}))
        assert triangle_count(empty).to_pandas().iloc[0]["n_triangles"] == 0
        path = rd.from_arrow(pa.table({"a": pa.array([0, 1, 2], pa.int64()),
                                       "b": pa.array([1, 2, 3], pa.int64())}))
        row = triangle_count(path).to_pandas().iloc[0]
        assert (row["n_triangles"], row["n_edges"], row["n_nodes"]) == (0, 3, 4)


class TestBfsLevels:
    def test_matches_brute_force(self, ray_session):
        from collections import deque

        import ray.data as rd

        from battery.ops.graph import bfs_levels

        rng = np.random.default_rng(23)
        n = 60
        a, b = rng.integers(0, n, 100), rng.integers(0, n, 100)
        keep = a != b
        a, b = a[keep], b[keep]
        seeds = [0, 7, 14]
        ds = rd.from_arrow(pa.table({"a": pa.array(a, pa.int64()),
                                     "b": pa.array(b, pa.int64())})).repartition(3)
        sd = rd.from_arrow(pa.table({"node": pa.array(seeds, pa.int64())}))
        got = bfs_levels(ds, sd, rounds=3).to_pandas()
        got = dict(zip(got["node"], got["level"]))

        adj = {}
        for x, y in zip(a.tolist(), b.tolist()):
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)
        exp = {s: 0 for s in seeds}
        q = deque(seeds)
        while q:
            u = q.popleft()
            if exp[u] >= 3:
                continue
            for v in adj.get(u, ()):
                if v not in exp:
                    exp[v] = exp[u] + 1
                    q.append(v)
        assert got == exp

    def test_no_edges_returns_seeds(self, ray_session):
        import ray.data as rd

        from battery.ops.graph import bfs_levels

        e = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
        sd = rd.from_arrow(pa.table({"node": pa.array([5, 9], pa.int64())}))
        got = bfs_levels(e, sd).to_pandas()
        assert sorted(got["node"]) == [5, 9] and (got["level"] == 0).all()
