"""Ramer–Douglas–Peucker simplification — replaces @turf/simplify
(reference: simplifyGeoJSON src/lib/geojson-utils.ts:119-147, tolerance
= 1/10**coordinatePrecision, highQuality=true ⇒ pure RDP with
point-to-segment distance, no radial pre-pass — same as simplify-js).
"""

from __future__ import annotations

import numpy as np

# a valid polygon ring has 4 points including the closing one
_RING_MIN_POINTS = 4


def _chord_d2(sx, sy, ax, ay, dx, dy, L2, span):
    """Squared distance of points (sx, sy) to the chord a→a+(dx, dy) of
    their span; the per-span values are gathered by ``span``."""
    ax, ay, dx, dy = ax[span], ay[span], dx[span], dy[span]
    t = np.clip(((sx - ax) * dx + (sy - ay) * dy) / L2[span], 0.0, 1.0)
    return (sx - (ax + t * dx)) ** 2 + (sy - (ay + t * dy)) ** 2


def rdp(points: np.ndarray, tolerance: float) -> np.ndarray:
    """RDP on an (n,2) array; returns the kept points in original order.
    Level-batched: all pending (lo, hi) spans of one level are measured
    in one set of array ops, and each splits at the FIRST index of its
    ``np.maximum.reduceat`` max, so the keep mask equals the scalar
    recursion's. A NaN distance makes its span's max NaN: no split."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n <= 2 or tolerance <= 0:
        return pts.copy()
    x, y = pts[:, 0], pts[:, 1]
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    lo, hi = np.array([0]), np.array([n - 1])
    while len(lo):
        lens = hi - lo - 1  # interior points per span, all >= 1
        starts = lens.cumsum() - lens
        span = np.arange(len(lo)).repeat(lens)
        i = np.arange(len(span)) + (lo + 1 - starts)[span]
        ax, ay = x[lo], y[lo]
        dx, dy = x[hi] - ax, y[hi] - ay
        L2 = dx * dx + dy * dy
        sx, sy = x[i], y[i]
        # coincident endpoints (a closed ring's first level) measure plain
        # point distance; computed apart, so no level divides by zero
        on_point = (L2 == 0.0)[span]
        if on_point.any():
            d2 = (sx - ax[span]) ** 2 + (sy - ay[span]) ** 2
            c = ~on_point
            d2[c] = _chord_d2(sx[c], sy[c], ax, ay, dx, dy, L2, span[c])
        else:
            d2 = _chord_d2(sx, sy, ax, ay, dx, dy, L2, span)
        dmax = np.maximum.reduceat(d2, starts)
        split = dmax > tolerance * tolerance
        if not split.any():
            break
        mid = np.minimum.reduceat(np.where(d2 == dmax[span], i, n), starts)[split]
        keep[mid] = True
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        wide = hi - lo >= 2
        lo, hi = lo[wide], hi[wide]
    return pts[keep]


def rdp_ring(ring: np.ndarray, tolerance: float) -> np.ndarray:
    """RDP for a closed ring (first == last). Keeps the ring closed and
    refuses to collapse below a valid polygon ring (4 points incl. the
    closing one) — mirrors turf/simplify's ring-validity guard."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) <= _RING_MIN_POINTS:
        return r.copy()
    out = rdp(r, tolerance)
    tol = tolerance
    while len(out) < _RING_MIN_POINTS and tol > 1e-12:
        tol /= 2.0
        out = rdp(r, tol)
    if len(out) < _RING_MIN_POINTS:
        return r.copy()
    return out


def round_coords(arr: np.ndarray, precision: int | None) -> np.ndarray:
    """truncateGeoJSONDecimals (reference src/lib/geojson-utils.ts:59-107)
    via @turf/helpers round = Math.round(x*10^p)/10^p — JS Math.round is
    HALF-UP (toward +inf), so exact binary ties like 100.125 @ p=2 must
    give 100.13; np.round's half-to-even gave 100.12 and broke byte
    parity on .125/.375-style coordinates."""
    if precision is None:
        return np.asarray(arr, dtype=np.float64)
    m = 10.0 ** precision
    return np.floor(np.asarray(arr, dtype=np.float64) * m + 0.5) / m
