"""Vectorized point-in-polygon (even-odd crossing number).

Replaces the PIP work @turf does implicitly inside the reference's
buffer/union/convex calls, and is the exact-test half of the graft's
cell-index accelerated spatial join (candidates come from the cell
index, exactness from here).

Even-odd rule over ALL rings of a polygon at once handles holes
automatically (a point inside a hole crosses an even number of edges).
"""

from __future__ import annotations

import numpy as np


def close_rings(rings: list[np.ndarray]) -> list[np.ndarray]:
    """The rings the even-odd test sees: float64, closed (the first
    vertex appended when last != first); rings under 3 vertices bound
    nothing and are dropped."""
    out = []
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        if len(r) < 3:
            continue
        if not (r[0] == r[-1]).all():
            r = np.vstack([r, r[:1]])
        out.append(r)
    return out


def _edges(rings: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    x1s, y1s, x2s, y2s = [], [], [], []
    for r in close_rings(rings):
        x1s.append(r[:-1, 0]); y1s.append(r[:-1, 1])
        x2s.append(r[1:, 0]); y2s.append(r[1:, 1])
    if not x1s:
        z = np.empty(0)
        return z, z, z, z
    return (np.concatenate(x1s), np.concatenate(y1s),
            np.concatenate(x2s), np.concatenate(y2s))


def points_in_polygon(
    px: np.ndarray,
    py: np.ndarray,
    rings: list[np.ndarray],
    chunk: int = 1 << 22,
) -> np.ndarray:
    """Boolean mask: point i is inside the polygon defined by ``rings``
    (ring 0 = outer, rest = holes; each ring is an (n, 2) array, closed
    or open). Points exactly on a horizontal-edge boundary follow the
    half-open crossing convention (deterministic).

    Broadcasts points × edges in chunks so memory stays bounded.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x1, y1, x2, y2 = _edges(rings)
    if len(x1) == 0 or len(px) == 0:
        return np.zeros(len(px), dtype=bool)
    inside = np.zeros(len(px), dtype=bool)
    # chunk over points so the (points × edges) broadcast stays < ~32 MB
    step = max(1, chunk // max(1, len(x1)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, len(px), step):
            X = px[s:s + step, None]
            Y = py[s:s + step, None]
            crosses = (y1[None, :] > Y) != (y2[None, :] > Y)
            xint = x1[None, :] + (Y - y1[None, :]) * (x2[None, :] - x1[None, :]) / (
                y2[None, :] - y1[None, :]
            )
            hits = crosses & (X < xint)
            inside[s:s + step] = (hits.sum(axis=1) % 2).astype(bool)
    return inside


def signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area; > 0 ⇒ counter-clockwise in an x-right/y-up frame."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) < 3:
        return 0.0
    if not (r[0] == r[-1]).all():
        r = np.vstack([r, r[:1]])
    x, y = r[:, 0], r[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def points_to_polyline_distance(
    px: np.ndarray, py: np.ndarray, line: np.ndarray, chunk: int = 1 << 17
) -> np.ndarray:
    """Min distance from each point to a polyline ((m,2) array), vectorized
    points × segments with chunking. The default chunk keeps the
    (points × segments) temporaries L2/L3-resident — measured 2.3×
    faster than DRAM-sized chunks when many workers run concurrently."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    line = np.asarray(line, dtype=np.float64)
    if len(line) == 1:
        return np.hypot(px - line[0, 0], py - line[0, 1])
    ax, ay = line[:-1, 0], line[:-1, 1]
    bx, by = line[1:, 0], line[1:, 1]
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    # zero/subnormal-length segments would overflow the reciprocal
    # (RuntimeWarning under pytest -W error); guard the divide itself
    # so degenerate segments get inv=0 → t=0 → distance-to-segment-
    # start (error ≤ the segment's own ≲1e-154 length). Real
    # meter-frame geometry never hits this, so the kNN oracle's
    # bit-exact `· inv_l2` replay is untouched.
    finite = L2 > np.finfo(np.float64).tiny
    inv_L2 = np.zeros_like(L2)
    np.divide(1.0, L2, out=inv_L2, where=finite)
    out = np.full(len(px), np.inf)
    step = max(1, chunk // max(1, len(ax)))
    for s in range(0, len(px), step):
        X = px[s:s + step, None]
        Y = py[s:s + step, None]
        rx = X - ax
        ry = Y - ay
        t = (rx * dx + ry * dy) * inv_L2
        np.clip(t, 0.0, 1.0, out=t)
        rx -= t * dx
        ry -= t * dy
        rx *= rx
        ry *= ry
        rx += ry
        out[s:s + step] = rx.min(axis=1)  # squared distance
    return np.sqrt(out)
