"""Independent oracles and output checks for the geotile benchmark.

Nothing here imports geotile: the join oracle is a brute-force even-odd
ray cast against every polygon edge, the kNN oracle a brute-force
point-to-segment scan over every route. Joined pairs are compared as
canonical integer keys (``image_index * (R + 1) + route_index``), never
as floats; on the hot path only an order-independent fingerprint of the
keys crosses from the workers to the driver.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

EDGE_EPS_DEG = 1e-9  # points closer than this to an edge are reported as ties

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser (wrapping uint64 arithmetic)."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def image_index(ids) -> np.ndarray:
    """'img-00000042' → 42; raises on any other id shape."""
    if len(ids) and not pc.all(pc.starts_with(ids, "img-")).as_py():
        raise ValueError("image_id without the img- prefix")
    digits = pc.cast(pc.utf8_slice_codeunits(ids, 4), pa.int64())
    return np.asarray(digits.to_numpy(zero_copy_only=False), np.int64)


# ---------------------------------------------------------------------------
# brute-force point-in-polygon
# ---------------------------------------------------------------------------

def _ring_edges(rings):
    a, b = [], []
    for r in rings:
        r = np.asarray(r, np.float64)
        if not (r[0] == r[-1]).all():
            r = np.vstack([r, r[:1]])
        a.append(r[:-1])
        b.append(r[1:])
    return np.vstack(a), np.vstack(b)


def points_in_rings(px: np.ndarray, py: np.ndarray, rings, eps: float = EDGE_EPS_DEG):
    """Even-odd rule over every edge of every ring (outer + holes).

    Returns (inside, tie): ``tie`` marks points within ``eps`` of an
    edge, where the answer depends on rounding. Each edge only tests the
    points whose latitude lies in its band (points sorted by lat), which
    is every point that can cross it — the result equals the full
    points-by-edges ray cast."""
    n = len(px)
    inside = np.zeros(n, bool)
    tie = np.zeros(n, bool)
    if n == 0:
        return inside, tie
    order = np.argsort(py, kind="stable")
    xs, ys = px[order], py[order]
    par = np.zeros(n, bool)
    tie_s = np.zeros(n, bool)
    A, B = _ring_edges(rings)
    lo = np.searchsorted(ys, np.minimum(A[:, 1], B[:, 1]) - eps, side="left")
    hi = np.searchsorted(ys, np.maximum(A[:, 1], B[:, 1]) + eps, side="right")
    with np.errstate(divide="ignore", invalid="ignore"):
        for (x1, y1), (x2, y2), s, e in zip(A, B, lo, hi):
            if s == e:
                continue
            X, Y = xs[s:e], ys[s:e]
            crosses = (y1 > Y) != (y2 > Y)
            xint = x1 + (Y - y1) * (x2 - x1) / (y2 - y1)
            par[s:e] ^= crosses & (X < xint)
            dx, dy = x2 - x1, y2 - y1
            ll = dx * dx + dy * dy
            t = np.clip(((X - x1) * dx + (Y - y1) * dy) / ll, 0.0, 1.0) if ll > 0 else 0.0
            d2 = (X - (x1 + t * dx)) ** 2 + (Y - (y1 + t * dy)) ** 2
            tie_s[s:e] |= d2 < eps * eps
    inside[order] = par
    tie[order] = tie_s
    return inside, tie


@dataclass
class JoinOracle:
    """Expected (image, route) pairs of a join over ``route_ids``."""

    route_ids: list[str]
    keys: np.ndarray        # sorted int64 pair keys
    tie_index: np.ndarray   # sorted image indices within eps of an edge

    @property
    def mult(self) -> int:
        return len(self.route_ids) + 1

    def counts(self) -> dict[str, int]:
        """Tiles joined per route."""
        r = self.keys % self.mult
        c = np.bincount(r, minlength=self.mult)
        return {rid: int(c[i]) for i, rid in enumerate(self.route_ids) if c[i]}

    def fingerprint(self) -> tuple[int, int, int]:
        return key_fingerprint(self.keys, self.tie_index, self.mult)[:3]


def join_oracle(idx: np.ndarray, lon: np.ndarray, lat: np.ndarray, polygons: dict) -> JoinOracle:
    """Brute-force join of tile centres against {route_id: [(outer,
    holes)]}: a tile joins a route when it is inside any of the route's
    polygons (one pair per (tile, route))."""
    route_ids = sorted(polygons)
    mult = len(route_ids) + 1
    order = np.argsort(lon, kind="stable")
    slon = lon[order]
    keys, ties = [], []
    for ri, rid in enumerate(route_ids):
        hit = np.zeros(len(lon), bool)
        for outer, holes in polygons[rid]:
            o = np.asarray(outer)
            s, e = np.searchsorted(slon, [o[:, 0].min() - EDGE_EPS_DEG,
                                          o[:, 0].max() + EDGE_EPS_DEG])
            cand = order[s:e]
            cand = cand[(lat[cand] >= o[:, 1].min() - EDGE_EPS_DEG)
                        & (lat[cand] <= o[:, 1].max() + EDGE_EPS_DEG)]
            inside, tie = points_in_rings(lon[cand], lat[cand], [o] + list(holes))
            hit[cand[inside]] = True
            ties.append(idx[cand[tie]])
        keys.append(idx[hit].astype(np.int64) * mult + ri)
    return JoinOracle(
        route_ids=route_ids,
        keys=np.sort(np.concatenate(keys)) if keys else np.empty(0, np.int64),
        tie_index=np.unique(np.concatenate(ties)) if ties else np.empty(0, np.int64),
    )


# ---------------------------------------------------------------------------
# pair fingerprints (computed inside Ray workers as the pass's consumer)
# ---------------------------------------------------------------------------

def pair_keys(table: pa.Table, route_ids: list[str]) -> np.ndarray:
    """Canonical int64 keys of (image_id, route_id) rows. An unknown
    route id maps to index R, which no expected key uses."""
    idx = image_index(table["image_id"])
    r = pc.index_in(table["route_id"], value_set=pa.array(route_ids, pa.string()))
    r = pc.fill_null(r, len(route_ids)).to_numpy().astype(np.int64)
    return idx * (len(route_ids) + 1) + r


def key_fingerprint(keys: np.ndarray, tie_index: np.ndarray, mult: int):
    """(count, wrapping sum of mixed keys, xor of mixed keys, tie keys)
    over the keys whose image is not a tie; ties are returned as-is."""
    keys = np.asarray(keys, np.int64)
    is_tie = np.isin(keys // mult, tie_index)
    h = mix64(keys[~is_tie].view(np.uint64))
    s = int(np.sum(h, dtype=np.uint64)) if len(h) else 0
    x = int(np.bitwise_xor.reduce(h)) if len(h) else 0
    return int(len(h)), s, x, keys[is_tie]


def pair_fingerprint_batch(batch: pa.Table, route_ids: list[str],
                           tie_index: np.ndarray) -> pa.Table:
    """One summary row per batch of joined rows."""
    n, s, x, tk = key_fingerprint(pair_keys(batch, route_ids), tie_index, len(route_ids) + 1)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "sum": pa.array([s], pa.uint64()),
        "xor": pa.array([x], pa.uint64()),
        "ties": pa.array([tk.tolist()], pa.list_(pa.int64())),
    })


def combine_fingerprints(rows: list[dict]) -> tuple[tuple[int, int, int], list[int]]:
    n = sum(r["n"] for r in rows)
    s = sum(r["sum"] for r in rows) % (1 << 64)
    x = 0
    for r in rows:
        x ^= r["xor"]
    ties = sorted(k for r in rows for k in r["ties"])
    return (n, s, x), ties


def check_pairs(rows: list[dict], oracle: JoinOracle) -> list[str]:
    """Compare per-batch fingerprints with the oracle. Pairs of tie
    images may go either way but must still name a known route once."""
    fp, ties = combine_fingerprints(rows)
    errors = []
    if fp != oracle.fingerprint():
        errors.append(f"joined pairs differ from oracle: got n={fp[0]}, "
                      f"want n={oracle.fingerprint()[0]}")
    if len(ties) != len(set(ties)) or any(k % oracle.mult == oracle.mult - 1 for k in ties):
        errors.append("duplicate or unknown-route pair among edge ties")
    return errors


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

KNN_ANCHOR = (-122.1, 37.4)  # geotile's corridor-local meter frame anchor


def _frame(lon, lat):
    mx = 6371008.8 * np.pi / 180.0 * np.cos(np.radians(KNN_ANCHOR[1]))
    my = 6371008.8 * np.pi / 180.0
    return (np.asarray(lon) - KNN_ANCHOR[0]) * mx, (np.asarray(lat) - KNN_ANCHOR[1]) * my


def route_distances(lon: np.ndarray, lat: np.ndarray, lines: dict) -> tuple[list[str], np.ndarray]:
    """(route_ids, D[point, route]) — min distance in metres to every
    segment of every route, brute force."""
    route_ids = sorted(lines)
    px, py = _frame(lon, lat)
    D = np.full((len(px), len(route_ids)), np.inf)
    for j, rid in enumerate(route_ids):
        for part in lines[rid]:
            ax, ay = _frame(part[:-1, 0], part[:-1, 1])
            bx, by = _frame(part[1:, 0], part[1:, 1])
            dx, dy = bx - ax, by - ay
            ll = np.where(dx * dx + dy * dy > 0, dx * dx + dy * dy, 1.0)
            t = np.clip(((px[:, None] - ax) * dx + (py[:, None] - ay) * dy) / ll, 0.0, 1.0)
            d = np.hypot(px[:, None] - (ax + t * dx), py[:, None] - (ay + t * dy)).min(axis=1)
            D[:, j] = np.minimum(D[:, j], d)
    return route_ids, D


def knn_sample_batch(batch: pa.Table, sample_index: np.ndarray) -> pa.Table:
    """kNN output consumer: the batch's row count plus its rows for the
    fixed check sample."""
    idx = image_index(batch["image_id"])
    m = np.isin(idx, sample_index)
    return pa.table({
        "n": pa.array([len(batch)], pa.int64()),
        "idx": pa.array([idx[m].tolist()], pa.list_(pa.int64())),
        "rank": pa.array([batch["rank"].to_numpy()[m].tolist()], pa.list_(pa.int64())),
        "route": pa.array([np.asarray(batch["route_id"].to_pylist(), object)[m].tolist()],
                          pa.list_(pa.string())),
    })


KNN_TIE_M = 1e-6  # distances closer than this are a tie either route may win


def check_knn(rows: list[dict], n_rows: int, k: int, sample_index: np.ndarray,
              route_ids: list[str], D: np.ndarray) -> tuple[list[str], int]:
    """Every input row has k ranked neighbours; on the sample, the route
    at each rank has the oracle's distance at that rank (ties may pick
    either route). Returns (errors, number of rank slots decided by a tie)."""
    errors = []
    total = sum(r["n"] for r in rows)
    if total != n_rows * k:
        errors.append(f"knn rows {total} != {n_rows} x {k}")
    col = {rid: j for j, rid in enumerate(route_ids)}
    got: dict[int, dict[int, str]] = {}
    for r in rows:
        for i, rank, rid in zip(r["idx"], r["rank"], r["route"]):
            got.setdefault(i, {})[rank] = rid
    pos = {int(v): p for p, v in enumerate(sample_index)}
    if set(got) != set(pos):
        errors.append(f"knn sample rows missing: {len(set(pos) - set(got))}")
        return errors, 0
    want = np.sort(D, axis=1)[:, :k]
    ties = 0
    for i, ranks in got.items():
        p = pos[i]
        if sorted(ranks) != list(range(k)) or len(set(ranks.values())) != k:
            errors.append(f"knn row {i}: ranks {sorted(ranks)} routes {sorted(ranks.values())}")
            continue
        best = np.argsort(D[p], kind="stable")[:k]
        for rank, rid in ranks.items():
            if rid not in col or abs(D[p, col[rid]] - want[p, rank]) > KNN_TIE_M:
                errors.append(f"knn row {i} rank {rank}: {rid}")
                break
            if col[rid] != best[rank]:
                ties += 1
    return errors[:5], ties


# ---------------------------------------------------------------------------
# FeatureCollections, cell counts, GeoJSON files
# ---------------------------------------------------------------------------

def ids_digest(idx) -> str:
    """Order-sensitive digest of a sequence of image indices."""
    return hashlib.blake2b(np.asarray(idx, dtype="<i8").tobytes(), digest_size=16).hexdigest()


def fc_summary_batch(batch: pa.Table) -> pa.Table:
    """Per-route FeatureCollection rows → what the check needs: counts,
    JSON size and a digest of the parsed features' image ids in order.
    Runs in the workers, so the driver never holds the JSON text."""
    out = {"route_id": [], "n_tiles": [], "truncated": [], "fc_bytes": [],
           "n_features": [], "ids_digest": [], "error": []}
    for r in batch.to_pylist():
        text = r["fc_json"]
        digest, n_feat, err = "", -1, ""
        try:
            fc = json.loads(text)
            ids = [f["properties"]["image_id"] for f in fc["features"]]
            digest, n_feat = ids_digest(image_index(pa.array(ids, pa.string()))), len(ids)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, pa.ArrowInvalid) as e:
            err = f"{type(e).__name__}: {e}"[:200]
        for k, v in (("route_id", r["route_id"]), ("n_tiles", r["n_tiles"]),
                     ("truncated", r["truncated"]), ("fc_bytes", len(text.encode())),
                     ("n_features", n_feat), ("ids_digest", digest), ("error", err)):
            out[k].append(v)
    return pa.table(out)


def check_route_fcs(summaries: list[dict], oracle: JoinOracle) -> list[str]:
    """One FeatureCollection per joined route: ``n_tiles`` equals the
    oracle count and the features are exactly the route's tiles in
    image_id order (``summaries`` come from ``fc_summary_batch``)."""
    errors = []
    want = oracle.counts()
    got = {r["route_id"]: r for r in summaries}
    if set(got) != set(want) or len(got) != len(summaries):
        errors.append(f"FeatureCollections for {len(summaries)} rows / {len(got)} routes, "
                      f"want {len(want)} routes")
    for ri, rid in enumerate(oracle.route_ids):
        if rid not in want or rid not in got:
            continue
        r = got[rid]
        expect = oracle.keys[oracle.keys % oracle.mult == ri] // oracle.mult
        if r["error"]:
            errors.append(f"route {rid}: invalid FeatureCollection ({r['error']})")
        elif r["n_tiles"] != want[rid] or r["truncated"] or r["n_features"] != want[rid]:
            errors.append(f"route {rid}: n_tiles {r['n_tiles']} / {r['n_features']} "
                          f"features != {want[rid]}")
        elif r["ids_digest"] != ids_digest(expect):
            errors.append(f"route {rid}: feature image_ids differ from oracle")
    return errors[:5]


def check_cell_counts(rows: list[dict], n_rows: int) -> list[str]:
    total = sum(r["n_tiles"] for r in rows)
    cells = [r["cell"] for r in rows]
    errors = []
    if total != n_rows:
        errors.append(f"cell_tile_counts total {total} != rows read {n_rows}")
    if len(cells) != len(set(cells)) or any(r["n_tiles"] <= 0 for r in rows):
        errors.append("cell_tile_counts has duplicate cells or empty counts")
    return errors


def check_files_equal(got: dict[str, bytes], want: dict[str, bytes]) -> list[str]:
    errors = []
    if set(got) != set(want):
        errors.append(f"files {sorted(got)} != {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            errors.append(f"{name} differs from golden")
    return errors
