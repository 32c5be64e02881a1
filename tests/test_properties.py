"""Property-based checks (hypothesis) for the geometry kernels —
SURVEY §5(e): invariants that must hold for ALL inputs, not just the
fixtures."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geotile.geom import cells
from geotile.geom.buffer import disc, meter_frame
from geotile.geom.hull import convex_hull
from geotile.geom.pip import points_in_polygon, signed_area
from geotile.geom.rdp import rdp

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def _pts(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=finite)
    )


@settings(max_examples=50, deadline=None)
@given(_pts(3, 60))
def test_rdp_max_deviation_bounded(pts):
    tol = 0.5
    out = rdp(pts, tol)
    # kept points are a subsequence containing the endpoints
    assert (out[0] == pts[0]).all() and (out[-1] == pts[-1]).all()
    assert len(out) <= len(pts)
    # every dropped point lies within tol of the simplified polyline
    from geotile.geom.pip import points_to_polyline_distance

    if len(out) >= 2:
        d = points_to_polyline_distance(pts[:, 0], pts[:, 1], out)
        assert (d <= tol + 1e-9).all()


@settings(max_examples=50, deadline=None)
@given(_pts(3, 80))
@example(
    pts=np.array([[0.00000000e+000, 2.76228512e-159],
           [2.76228512e-159, 0.00000000e+000],
           [2.76228512e-159, 2.76228512e-159]]),
).via('discovered failure')
def test_hull_contains_all_points(pts):
    h = convex_hull(pts)
    if h is None:
        return
    assert signed_area(h) > 0
    # every input point is inside the hull or on its boundary (within fp)
    from geotile.geom.pip import points_to_polyline_distance

    inside = points_in_polygon(pts[:, 0], pts[:, 1], [h])
    d = points_to_polyline_distance(pts[:, 0], pts[:, 1], h)
    assert (inside | (d <= 1e-6)).all()


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-179.9, max_value=179.9),
    st.floats(min_value=-89.9, max_value=89.9),
    st.integers(min_value=1, max_value=24),
)
def test_cells_parent_contains_child(lon, lat, res):
    c = cells.encode(np.array([lon]), np.array([lat]), res)
    p = cells.parent(c, res - 1)
    w, s, e, n = cells.cell_bounds(p)
    cw, cs, ce, cn = cells.cell_bounds(c)
    assert w[0] <= cw[0] and s[0] <= cs[0]
    assert e[0] >= ce[0] - 1e-12 and n[0] >= cn[0] - 1e-12
    # the point is inside its own cell bounds
    assert w[0] - 1e-9 <= lon <= e[0] + 1e-9
    assert s[0] - 1e-9 <= lat <= n[0] + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=30, max_value=60),
    st.floats(min_value=50, max_value=2000),
)
def test_disc_membership_matches_radius(lon, lat, radius):
    ring = disc(lon, lat, radius)
    mx, my = meter_frame(lat)
    rng = np.random.default_rng(1)
    dlon = radius / mx
    dlat = radius / my
    px = lon + rng.uniform(-2 * dlon, 2 * dlon, 300)
    py = lat + rng.uniform(-2 * dlat, 2 * dlat, 300)
    d = np.hypot((px - lon) * mx, (py - lat) * my)
    inside = points_in_polygon(px, py, [ring])
    # the 32-gon is inscribed: strictly inside its incircle ⇒ inside;
    # outside the circumcircle ⇒ outside
    incircle = radius * np.cos(np.pi / 32)
    assert inside[d < incircle * 0.999].all()
    assert not inside[d > radius * 1.001].any()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=20))
def test_hashed_tokens_counts_match_python_split(texts):
    """The vectorized tokenizer must agree with str.split() on token
    counts for arbitrary unicode input (whitespace runs, emoji, empty)."""
    import pyarrow as pa

    from battery.ops.hashing import hashed_tokens

    h, off = hashed_tokens(pa.array(texts, pa.string()))
    assert (off[1:] - off[:-1]).tolist() == [len(t.split()) for t in texts]
    assert len(h) == int(off[-1])
