"""Pins for the round-5 ADVICE fixes (sanitize parity, kmeans guard,
stops_map loud failure)."""

from __future__ import annotations

import pytest


def test_sanitize_dot_reserved_and_trailing():
    """npm sanitize-filename reservedRe (^\\.+$) and windowsTrailingRe
    ([. ]+$) parity — without these an agencyKey of '..' escaped the
    output dir (geojson/.. = cwd) and prep_directory(overwrite=True)
    would clear the working directory."""
    from geotile.pipeline import sanitize

    assert sanitize(".") == ""
    assert sanitize("..") == ""
    assert sanitize("....") == ""
    assert sanitize("name.") == "name"
    assert sanitize("name . . ") == "name"
    assert sanitize("a.b") == "a.b"  # interior dots untouched
    assert sanitize(".hidden") == ".hidden"  # leading dot + text is fine
    # illegal-strip happens BEFORE the dot-only check, npm rule order
    assert sanitize("./.") == ""
    # trailing strip happens before truncation, like npm
    assert sanitize("x" * 300 + ".") == "x" * 255


def test_sanitize_dot_names_cannot_escape_output_dir(tmp_path):
    """End-to-end: a '..' agency key must not resolve to the parent of
    the output root."""
    from geotile.pipeline import sanitize

    root = tmp_path / "geojson"
    root.mkdir()
    out = root / sanitize("..")
    assert out.resolve() == root.resolve()


def test_kmeans_rejects_dim_ge_4096(ray_session):
    """The kd = k*4096 + dim packed groupby key collides for dim>=4096;
    the guard must be a driver-side ValueError (asserts vanish under
    -O), raised before any Lloyd round runs."""
    import numpy as np
    import ray.data as rd

    from battery.ops.ann import kmeans_lloyd

    vecs = [np.zeros(4096, dtype=np.float64).tolist() for _ in range(4)]
    ds = rd.from_items(
        [{"vec_id": i, "embedding": v} for i, v in enumerate(vecs)])
    with pytest.raises(ValueError, match="dim < 4096"):
        kmeans_lloyd(ds, k=2, iters=2)


def test_stops_map_missing_stops_fails_loud(tmp_path):
    """A feed without stops.txt must raise FileNotFoundError naming the
    table, not an opaque NoneType attribute error (same contract as
    _routes_dim/_trips_dim)."""
    from geotile.ops.gtfs import GtfsContext

    feed = tmp_path / "feed"
    feed.mkdir()
    (feed / "agency.txt").write_text(
        "agency_id,agency_name,agency_url,agency_timezone\n"
        "a1,Test Agency,https://example.com,America/Los_Angeles\n")
    (feed / "routes.txt").write_text(
        "route_id,route_short_name,route_long_name,route_type\n"
        "r1,1,Route One,3\n")
    ctx = GtfsContext(str(feed))
    with pytest.raises(FileNotFoundError, match="stops"):
        ctx.stops_map()


def test_pair_dedup_distinct_and_max(ray_session):
    """pair_dedup (the COVERAGE r4 open-item closure): distinct (a,b)
    via hash-bucket lexsort matches a naive set dedup, and the val/agg
    form keeps the max value per pair."""
    import ray.data as rd

    from battery.ops.dedup import pair_dedup

    rows = [{"a": 1, "b": 2, "cosine": 0.5},
            {"a": 1, "b": 2, "cosine": 0.9},
            {"a": 3, "b": 4, "cosine": 0.7},
            {"a": 1, "b": 5, "cosine": 0.1},
            {"a": 3, "b": 4, "cosine": 0.7}]
    ds = rd.from_items(rows, override_num_blocks=3)

    got = pair_dedup(ds, "a", "b").to_pandas()
    assert sorted(map(tuple, got[["a", "b"]].values.tolist())) == [
        (1, 2), (1, 5), (3, 4)]

    got_v = pair_dedup(ds, "a", "b", val="cosine", agg="max").to_pandas()
    got_v = got_v.sort_values(["a", "b"]).reset_index(drop=True)
    assert got_v["cosine"].tolist() == [0.9, 0.1, 0.7]


def test_ngram_prefix_vectorized_parity(ray_session):
    """The bucket-vectorized prefix stage must produce the same final
    pair set as the oracle replay on a dup-heavy fixture (exercises
    run-position selection across multiple docs in one bucket)."""
    import itertools

    import ray.data as rd

    from battery.ops.dedup import ngram_jaccard_pairs

    texts = [
        "the quick brown fox jumps over the lazy dog today",
        "the quick brown fox jumps over the lazy dog tonight",
        "a completely different document about ray data engines",
        "the quick brown fox jumps over the lazy dog today",
        "a completely different document about ray data engines ok",
        "short doc",
    ]
    docs = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)],
        override_num_blocks=3)
    got = ngram_jaccard_pairs(docs, k=4, tau_num=1, tau_den=2).to_pandas()

    def sset(t, k=4):
        toks = [w for w in t.split(" ") if w]
        return {tuple(toks[i:i + k]) for i in range(len(toks) - k + 1)}

    sets = [sset(t) for t in texts]
    want = []
    for a, b in itertools.combinations(range(len(texts)), 2):
        A, B = sets[a], sets[b]
        if not A or not B:
            continue
        inter, uni = len(A & B), len(A | B)
        if inter * 2 >= uni:  # J >= 1/2
            want.append((a, b, inter, uni))
    assert (sorted(map(tuple, got[["d1", "d2", "inter", "uni"]]
                       .values.tolist())) == sorted(want))


def _mk_knn_stage(routes):
    import geotile.ops.join as J

    return J.KnnStage(routes, k=2)


def _mk_routes(seed=42, n_routes=3, n_pts=40):
    import numpy as np

    rng = np.random.default_rng(seed)
    routes = {}
    for r in range(n_routes):
        pts = np.column_stack([
            np.linspace(-122.45 + 0.01 * r, -122.10, n_pts),
            np.linspace(37.40, 37.75 + 0.005 * r, n_pts)
            + rng.normal(0, 0.002, n_pts),
        ])
        routes[f"R{r}"] = [pts[:n_pts // 2 + 1], pts[n_pts // 2:]]
    return routes


def _straight_topk(st, px, py, k):
    """Distance to every route part, then a stable sort: ties go to the
    lowest route index."""
    import numpy as np

    D = np.stack([st._route_dist(j, px, py) for j in range(len(st.route_ids))], axis=1)
    order = np.argsort(D, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(D, order, axis=1)


def test_knn_pruned_scan_bit_identical(ray_session):
    """The bound descent (it prunes routes and segments per cell) must
    return a BIT-identical (indices, distances) result to the straight
    all-segments scan — pruning may only skip segments that provably
    cannot be any point's minimum. Out-of-range coordinates never reach
    it: KnnStage drops them first
    (tests/test_join.py::TestInvalidCoordinates)."""
    import numpy as np

    import geotile.ops.join as J

    rng = np.random.default_rng(42)
    st = _mk_knn_stage(_mk_routes())
    n = 5000
    lon = rng.uniform(-122.45, -122.10, n)
    lat = rng.uniform(37.40, 37.75, n)
    px, py = J._knn_xy(lon, lat)
    ti_old, td_old = _straight_topk(st, px, py, 2)
    ti_new, td_new = st._descent_topk(lon, lat, px, py, 2)
    assert np.array_equal(ti_old, ti_new)
    assert np.array_equal(td_old, td_new)  # bit equality, not allclose


def test_knn_pruned_gate_and_nan_geometry(ray_session):
    """NaN route geometry keeps the straight scan's NaN propagation:
    the route stays out of the descent and merges by distance."""
    import numpy as np

    import geotile.ops.join as J

    bad = _mk_routes()
    bad["R0"][0][3] = (np.nan, np.nan)
    stn = _mk_knn_stage(bad)
    rng = np.random.default_rng(7)
    lon = rng.uniform(-122.45, -122.10, 4500)
    lat = rng.uniform(37.40, 37.75, 4500)
    px, py = J._knn_xy(lon, lat)
    ti, td = stn._descent_topk(lon, lat, px, py, 2)  # no crash
    _, td_old = _straight_topk(stn, px, py, 2)
    # same NaN pattern and same finite values as the straight scan
    assert np.array_equal(np.isnan(td), np.isnan(td_old))
    f = ~np.isnan(td)
    assert np.array_equal(td[f], td_old[f])
