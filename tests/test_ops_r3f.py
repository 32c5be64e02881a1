"""Round-3 batch: Hilbert-curve locality, RDP retention curve, shape
sinuosity — kernel unit tests (the driver-facing oracle equality runs
in BENCH/check_correctness.py; these pin the kernel properties the
oracles can't see, e.g. the Hilbert adjacency invariant)."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_hilbert_scalar_vs_vectorized():
    from battery.geom.hilbert import hilbert_xy2d
    from battery.oracle_ref import hilbert_xy2d as h_ref

    rng = np.random.default_rng(3)
    for order in (4, 9, 16):
        n = 1 << order
        x = rng.integers(0, n, 300).astype(np.int64)
        y = rng.integers(0, n, 300).astype(np.int64)
        got = hilbert_xy2d(order, x, y)
        exp = np.array([h_ref(order, int(a), int(b))
                        for a, b in zip(x, y)], np.int64)
        assert (got == exp).all()


def test_hilbert_is_a_bijective_neighbor_walk():
    """The defining curve property: over the FULL 2^order grid the
    codes are a permutation of [0, 4^order) and consecutive codes map
    to 4-adjacent cells (Manhattan distance exactly 1) — Morton fails
    this, Hilbert must satisfy it everywhere."""
    from battery.geom.hilbert import hilbert_xy2d

    order = 5
    n = 1 << order
    ix, iy = np.meshgrid(np.arange(n, dtype=np.int64),
                         np.arange(n, dtype=np.int64), indexing="ij")
    ix, iy = ix.ravel(), iy.ravel()
    d = hilbert_xy2d(order, ix, iy)
    assert sorted(d.tolist()) == list(range(n * n))
    o = np.argsort(d)
    step = (np.abs(np.diff(ix[o])) + np.abs(np.diff(iy[o])))
    assert (step == 1).all()


def test_rdp_scalar_replay_matches_vectorized():
    from geotile.geom.rdp import rdp
    from battery.oracle_ref import rdp_keep_count

    rng = np.random.default_rng(11)
    for trial in range(20):
        m = int(rng.integers(2, 120))
        pts = np.cumsum(rng.normal(0, 1.0, (m, 2)), axis=0)
        for tol in (0.1, 0.5, 2.0):
            assert len(rdp(pts, tol)) == rdp_keep_count(
                pts[:, 0].tolist(), pts[:, 1].tolist(), tol)


def test_rdp_retention_monotone_in_eps(ray_session):
    """More tolerance can never KEEP more vertices; every shape keeps
    at least its two endpoints."""
    from battery.queries import QUERIES

    df = QUERIES["rdp_retention_shapes"](SF).to_pandas()
    assert (df["n_kept"] >= 2).all()
    for sid, g in df.groupby("shape_id"):
        g = g.sort_values("eps_e6")
        assert (np.diff(g["n_kept"].to_numpy()) <= 0).all(), sid


def test_sinuosity_path_at_least_chord(ray_session):
    """Triangle inequality on the lattice: n·path_d2 ≥ chord_d2 (by
    Cauchy–Schwarz over the segment decomposition); a straight 2-point
    shape has path_d2 == chord_d2."""
    from battery.queries import QUERIES

    df = QUERIES["route_sinuosity_parts"](SF).to_pandas()
    assert len(df) > 0
    n_legs = (df["n_points"] - 1).clip(lower=1)
    assert (n_legs * df["path_d2"] >= df["chord_d2"]).all()


def test_hilbert_runs_never_worse_than_cells(ray_session):
    """Run counts are in [1, n_cells] for non-empty rects, and the
    whole-ROI rect (rect 0) sees every occupied cell of the two
    sub-rects."""
    from battery.queries import QUERIES

    df = QUERIES["hilbert_range_counts"](SF)
    full = df[df.rect_id == 0].iloc[0]
    assert full.n_cells > 0
    sub = df[df.rect_id != 0]
    assert (sub.n_cells <= full.n_cells).all()
    ok = df[df.n_cells > 0]
    for col in ("hilbert_runs", "morton_runs"):
        assert (ok[col] >= 1).all() and (ok[col] <= ok.n_cells).all()


def test_kmv_exact_below_k(ray_session):
    """Distinct users below K ⇒ KMV returns the exact count."""
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["kmv_distinct_users"](SF)
    exact = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM "
        f"read_parquet('{SF}/events.parquet')").fetchone()[0]
    if exact < 256:
        assert int(df["est"].iloc[0]) == exact
        assert int(df["k"].iloc[0]) == exact
    else:
        assert abs(int(df["est"].iloc[0]) - exact) / exact < 0.25


def test_snm_matches_single_node_replay(ray_session):
    """Engine pairs == the trivially-correct single-process replay
    (sort everything, slide the window) — proves the range-partition +
    boundary-stitch decomposition loses/invents nothing."""
    import pyarrow.parquet as pq

    from battery.queries import _SNM_KEYLEN, _SNM_W, QUERIES

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    t["key"] = (t["text"].str.replace(" ", "", regex=False)
                .str.lower().str.slice(0, _SNM_KEYLEN))
    t = t.sort_values(["key", "doc_id"]).reset_index(drop=True)
    exp = set()
    for w in range(1, _SNM_W + 1):
        for i in range(len(t) - w):
            exp.add((int(t.doc_id[i]), int(t.doc_id[i + w]), w,
                     int(t.key[i] == t.key[i + w])))
    got = QUERIES["snm_candidate_pairs"](SF).take_all()
    gset = {(r["a"], r["b"], r["gap"], r["same_key"]) for r in got}
    assert gset == exp


def test_cn_scores_exclude_edges(ray_session):
    """No predicted pair may already be an edge; every score ≥ 1."""
    from battery.ops.dedup import embedding_dup_pairs
    from battery.queries import QUERIES, _read

    got = QUERIES["cn_link_prediction_dups"](SF)
    rows = got.take_all() if hasattr(got, "take_all") else \
        got.to_dict("records")
    edges = {(r["a"], r["b"]) for r in embedding_dup_pairs(
        _read(SF, "embeddings", ["vec_id", "embedding"]),
        tau=0.35).take_all()}
    for r in rows:
        assert (r["a"], r["b"]) not in edges
        assert r["cn"] >= 1 and r["a"] < r["b"]


def test_rle_runs_bounds(ray_session):
    """Runs per image ∈ [h, w·h]; max_run ∈ [1, w]; a constant image
    synthesized inline decomposes to exactly h runs of length w (checked
    against the scalar logic in the sidecar builder's inner loop)."""
    from battery.queries import QUERIES, _image_dir_for
    import pyarrow.parquet as pq
    import glob

    df = QUERIES["rle_runs_images"](SF).to_pandas()
    img = _image_dir_for(SF)
    meta = pa.concat_tables(
        [pq.read_table(f, columns=["image_id", "w", "h"])
         for f in sorted(glob.glob(f"{img}/part-*.parquet"))]
    ).to_pandas().set_index("image_id")
    m = meta.loc[df["image_id"]]
    assert (df["n_runs"].to_numpy() >= m["h"].to_numpy()).all()
    assert (df["n_runs"].to_numpy()
            <= (m["w"] * m["h"]).to_numpy()).all()
    assert (df["max_run"].to_numpy() >= 1).all()
    assert (df["max_run"].to_numpy() <= m["w"].to_numpy()).all()


def test_mmr_first_pick_is_pure_relevance(ray_session):
    """Rank 0 must be the global argmax of rel (no diversity term yet),
    and every pick must be distinct."""
    import pyarrow.parquet as pq

    from battery.queries import _MMR_SALT, QUERIES
    from geotile.synth import splitmix64

    df = QUERIES["mmr_topk_embeddings"](SF)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    V = np.floor(np.stack(t["embedding"].to_numpy(
        zero_copy_only=False)).astype(np.float64) * 1e6).astype(np.int64)
    ids = t["vec_id"].to_numpy()
    dim = V.shape[1]
    off = np.uint64((_MMR_SALT * 0x9E3779B97F4A7C15) % (1 << 64))
    signs = np.where((splitmix64(np.arange(dim, dtype=np.uint64) + off)
                      & np.uint64(1)) == 1, 1, -1).astype(np.int64)
    rel = V @ signs
    best = rel.max()
    cand = ids[rel == best].min()
    assert int(df["vec_id"].iloc[0]) == int(cand)
    assert int(df["score"].iloc[0]) == int(best)
    # NOTE: scores are NOT monotone in rank — a negative max-sim
    # INFLATES later marginal scores; only uniqueness is invariant
    assert df["vec_id"].nunique() == len(df)


def test_audio_decimate_energy_bounds(ray_session):
    """Decimated energy obeys Cauchy–Schwarz vs the raw frame-energy
    ledger: (Σ₄ s)² ≤ 4·Σ₄ s², so energy ≤ 4·(raw track energy)."""
    from battery.ops.audio import AudioFrameStage, read_audio_table
    from battery.queries import QUERIES, _audio_dir_for

    df = QUERIES["audio_decimate_tracks"](SF).to_pandas() \
        if hasattr(QUERIES["audio_decimate_tracks"](SF), "to_pandas") \
        else QUERIES["audio_decimate_tracks"](SF)
    frames = read_audio_table(_audio_dir_for(SF)).map_batches(
        AudioFrameStage(), batch_format="pyarrow").take_all()
    raw = {}
    for r in frames:
        raw[r["track_id"]] = raw.get(r["track_id"], 0) + r["energy"]
    rows = df.take_all() if hasattr(df, "take_all") else \
        df.to_dict("records")
    for r in rows:
        assert r["energy"] <= 4 * raw[r["track_id"]]
        assert r["sum_abs"] >= 0 and r["n_frames"] > 0


def test_route_headways_invariants(ray_session):
    """Every (route, direction, stop) sees ≥1 visit; gap aggregates
    are consistent (min ≤ max, sum ≥ (n−1)·min) and non-negative
    (GTFS clock strings are monotone within a service day here)."""
    from battery.queries import QUERIES

    df = QUERIES["route_headways"](SF).to_pandas()
    assert len(df) > 0
    assert (df["n_visits"] >= 1).all()
    assert (df["min_headway_s"] >= 0).all()
    assert (df["min_headway_s"] <= df["max_headway_s"]).all()
    multi = df[df.n_visits > 1]
    assert (multi["sum_headway_s"]
            >= (multi["n_visits"] - 1) * multi["min_headway_s"]).all()
    assert (multi["sum_headway_s"]
            <= (multi["n_visits"] - 1) * multi["max_headway_s"]).all()


def test_blob_geometry_consistent_with_sizes(ray_session):
    """blob_size must equal largest_blob_images' top size; the bbox
    must contain the centroid (x0·size ≤ cx_num ≤ x1·size)."""
    from battery.queries import QUERIES

    geo = QUERIES["blob_geometry_images"](SF).to_pandas() \
        .set_index("image_id")
    top = QUERIES["largest_blob_images"](SF).to_pandas() \
        .set_index("image_id")
    j = geo.join(top, how="inner")
    assert len(j) == len(geo)
    assert (j["blob_size"] == j["max_blob"]).all()
    nz = geo[geo.blob_size > 0]
    assert (nz["x0"] * nz["blob_size"] <= nz["cx_num"]).all()
    assert (nz["cx_num"] <= nz["x1"] * nz["blob_size"]).all()
    assert (nz["y0"] * nz["blob_size"] <= nz["cy_num"]).all()
    assert (nz["cy_num"] <= nz["y1"] * nz["blob_size"]).all()


def test_kendall_bounds(ray_session):
    """|S| is bounded by the number of day pairs C(n,2)."""
    from battery.queries import QUERIES

    df = QUERIES["kendall_nation_pairs"](SF)
    assert len(df) == 3
    npairs = df["n_days"] * (df["n_days"] - 1) // 2
    assert (df["s_stat"].abs() <= npairs).all()


def test_geohash_reference_vectors(ray_session):
    """The vectorized encode must reproduce PUBLISHED geohash strings
    (geohash.org reference points), not merely self-agree."""
    from battery.queries import _GH_ALPHABET

    def encode6(lon, lat):
        n = 1 << 15
        ix = min(max(int(np.floor((lon + 180.0) / 360.0 * n)), 0),
                 n - 1)
        iy = min(max(int(np.floor((lat + 90.0) / 180.0 * n)), 0),
                 n - 1)
        code = 0
        for b in range(15):
            code |= ((ix >> b) & 1) << (2 * b + 1)
            code |= ((iy >> b) & 1) << (2 * b)
        return "".join(_GH_ALPHABET[(code >> (5 * (5 - i))) & 31]
                       for i in range(6))

    # reference: geohash of (57.64911, 10.40744) = u4pruy (wikipedia)
    assert encode6(10.40744, 57.64911) == "u4pruy"
    # San Francisco bay area well-known prefix 9q8y (lon/lat of SF)
    assert encode6(-122.4194, 37.7749).startswith("9q8y")


def test_geohash_counts_conserve_rows(ray_session):
    import glob

    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    df = QUERIES["geohash_cell_counts"](SF).to_pandas()
    total = sum(pq.read_metadata(f).num_rows for f in glob.glob(
        f"{_image_dir_for(SF)}/part-*.parquet"))
    assert df["n_tiles"].sum() == total
    assert df["geohash"].str.len().eq(6).all()
    # the synth ROI is the SF peninsula: every geohash must sit in 9q
    assert df["geohash"].str.startswith("9q").all()


def test_dilation_grows_but_bounded(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["dilation_area_images"](SF).to_pandas()
    assert (df["area_dilated"] >= df["area"]).all()
    # 4-neighbour dilation adds at most 4 pixels per foreground pixel
    assert (df["area_dilated"] <= 5 * df["area"]).all()


def test_q20_gate_is_strict(ray_session):
    from battery.queries import QUERIES

    got = QUERIES["excess_suppliers_q20"](SF)
    rows = got.take_all() if hasattr(got, "take_all") else \
        got.to_dict("records")
    for r in rows:
        assert 100 * r["q96_e2"] > 16 * r["qall_e2"]
        assert r["qall_e2"] >= r["q96_e2"] >= 0


def test_interp_fill_is_linear_and_interior(ray_session):
    """Interpolants sit strictly between observed days; endpoints
    reproduce: num at d0+0/d1 would equal v0·den/v1·den (checked via
    the convexity bound min(v0,v1)·den ≤ num ≤ max(v0,v1)·den)."""
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["interp_fill_daily_users"](SF).take_all()
    obs = duckdb.sql(f"""
        SELECT user_id, epoch_us(ts) // 86400000000 AS day,
               SUM(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS c
        FROM read_parquet('{SF}/events.parquet') GROUP BY 1, 2
    """).df()
    key = {(int(r.user_id), int(r.day)): int(r.c)
           for r in obs.itertuples()}
    assert len(df) > 0
    for r in df:
        u, d = int(r["user_id"]), int(r["day"])
        assert (u, d) not in key  # interior days only
        assert r["den"] >= 2
        # convexity: between neighbours' values
        lo = d - 1
        while (u, lo) not in key:
            lo -= 1
        hi = d + 1
        while (u, hi) not in key:
            hi += 1
        v0, v1 = key[(u, lo)], key[(u, hi)]
        assert min(v0, v1) * r["den"] <= r["num"] \
            <= max(v0, v1) * r["den"]


def test_threshold_sweep_monotone(ray_session):
    """Raising tau can only REMOVE edges/nodes, never grow the largest
    component."""
    from battery.queries import QUERIES

    df = QUERIES["component_threshold_sweep_dups"](SF)
    assert (np.diff(df["n_edges"].to_numpy()) <= 0).all()
    assert (np.diff(df["n_nodes"].to_numpy()) <= 0).all()
    assert (np.diff(df["max_size"].to_numpy()) <= 0).all()
    assert (df["n_components"] <= df["n_nodes"]).all()


def test_route_coverage_deciles_conserve_tiles(ray_session):
    """Every tile lands in exactly one (route, decile); totals match
    the image-table row count; deciles stay in [0, 9]."""
    import glob

    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    df = QUERIES["route_coverage_deciles"](SF)
    total = sum(pq.read_metadata(f).num_rows for f in glob.glob(
        f"{_image_dir_for(SF)}/part-*.parquet"))
    assert df["n_tiles"].sum() == total
    assert df["decile"].between(0, 9).all()
    assert df["route_id"].nunique() >= 2


def test_majority_baseline_bounds(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["next_type_majority_accuracy"](SF)
    assert (df["n_hit"] <= df["n_test"]).all()
    assert (df["n_test"] > 0).all()


def test_contamination_bounds_and_split(ray_session):
    """Only test-split docs appear; n_seen ≤ n_bigrams; doc ids obey
    the Knuth-hash test assignment (b ≥ 95)."""
    from battery.queries import QUERIES

    rows = QUERIES["test_contamination_docs"](SF).take_all()
    assert rows
    for r in rows:
        assert 0 <= r["n_seen"] <= r["n_bigrams"]
        b = (r["doc_id"] * 2654435761) % 4294967296 % 100
        assert b >= 95


def test_quota_allocation_sums_to_budget(ray_session):
    from battery.queries import _QUOTA_BUDGET, QUERIES

    df = QUERIES["quota_allocation_sources"](SF)
    assert df["final_alloc"].sum() == _QUOTA_BUDGET
    assert ((df["final_alloc"] - df["floor_alloc"]).isin([0, 1])).all()
    # proportionality sandwich: floor ≤ exact share ≤ floor+1
    total = df["n_docs"].sum()
    exact = _QUOTA_BUDGET * df["n_docs"]
    assert (df["floor_alloc"] * total <= exact).all()
    assert (exact < (df["floor_alloc"] + 1) * total).all()


def test_snm_recall_consistent(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["snm_recall_audit"](SF)
    r = df.iloc[0]
    assert 0 <= r["n_caught"] <= min(r["n_truth"], r["n_candidates"])


def test_dim_median_is_an_element(ray_session):
    """The lower median must be an ACTUAL matrix element of its
    dimension (order statistic, never an average)."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES

    df = QUERIES["dim_median_embeddings"](SF).to_pandas()
    V = np.stack(pq.read_table(
        f"{SF}/embeddings.parquet",
        columns=["embedding"])["embedding"].to_numpy(
        zero_copy_only=False)).astype(np.float64)
    assert len(df) == V.shape[1]
    for r in df.itertuples():
        col = np.floor(V[:, r.dim] * 1e6).astype(np.int64)
        assert r.median_e6 in col
        assert r.n == V.shape[0]


def test_dispersion_classes_partition_users(ray_session):
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["dispersion_class_users"](SF)
    n_multi = duckdb.sql(f"""
        SELECT count(*) FROM (
            SELECT user_id FROM read_parquet('{SF}/events.parquet')
            GROUP BY 1 HAVING count(*) >= 3)
    """).fetchone()[0]
    assert df["n_users"].sum() == n_multi


def test_int8_quant_error_bound(ray_session):
    """|x − q·s| ≤ s/2 per element when unsaturated ⇒ per-dim total
    error ≤ n·(s+1)/2; saturation only possible at code boundary."""
    from battery.queries import QUERIES

    rows = QUERIES["int8_quant_audit_embeddings"](SF).take_all()
    import pyarrow.parquet as pq
    n = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert len(rows) > 0
    for r in rows:
        assert r["scale"] >= 1
        assert 0 <= r["n_sat"] <= n
        assert r["abs_err"] <= n * (r["scale"] + 1)


def test_proj_profile_matches_numpy(ray_session):
    """Engine peaks equal a direct numpy recomputation from the synth
    pixel generator (independent of the decode path)."""
    import geotile.synth as sy
    from battery.queries import QUERIES

    df = QUERIES["proj_profile_images"](SF).to_pandas()
    samp = df.head(16)
    idx = sy.image_index(pa.array(samp["image_id"]))
    for k, r in enumerate(samp.itertuples()):
        w, h = sy.image_size(np.array([idx[k]], np.uint64))
        px = sy.pixel_pattern(np.array([idx[k]], np.uint64),
                              int(w[0]), int(h[0]))[0]
        gray = px.astype(np.int64).sum(axis=2) // 3
        assert int(gray.sum(axis=1).argmax()) == r.peak_row
        assert int(gray.sum(axis=0).argmax()) == r.peak_col


def test_sentence_stats_mass_conserved(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["sentence_stats_docs"](SF).to_pandas()
    assert (df["n_sentences"] <= df["n_frags"]).all()
    assert (df["char_mass"] >= df["n_sentences"]).all()


def test_rbo_bounds(ray_session):
    """0 ≤ RBO ≤ 1, i.e. 0 ≤ num ≤ den; and self-comparison sanity:
    den equals the identical-ranking numerator."""
    from battery.queries import QUERIES, _RBO_D

    df = QUERIES["rbo_nation_rankings"](SF)
    num, den = int(df["rbo_num"][0]), int(df["rbo_den"][0])
    assert 0 <= num <= den
    ident = sum(i * 9 ** (i - 1) * 10 ** (_RBO_D - i) * _RBO_D
                for i in range(1, _RBO_D + 1)) * 1
    assert den == ident * _RBO_D // _RBO_D * 1 or den == ident


def test_lbp_histogram_conserves_interior(ray_session):
    """Per-image LBP counts sum to the interior pixel count."""
    import glob

    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    df = QUERIES["lbp_texture_images"](SF).to_pandas()
    img = _image_dir_for(SF)
    meta = pa.concat_tables(
        [pq.read_table(f, columns=["image_id", "w", "h"])
         for f in sorted(glob.glob(f"{img}/part-*.parquet"))]
    ).to_pandas().set_index("image_id")
    per = df.groupby("image_id")["n"].sum()
    m = meta.loc[per.index]
    exp = (m["w"] - 2) * (m["h"] - 2)
    assert (per.to_numpy() == exp.to_numpy()).all()
    assert df["code"].between(0, 15).all()


def test_line_trend_partitions_multiline_orders(ray_session):
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["line_price_trend_orders"](SF)
    n_multi = duckdb.sql(f"""
        SELECT count(*) FROM (SELECT l_orderkey FROM
            read_parquet('{SF}/lineitem.parquet')
            GROUP BY 1 HAVING count(*) >= 2)""").fetchone()[0]
    assert df["n_orders"].sum() == n_multi


def test_route_pair_dist_symmetric_bound(ray_session):
    """Vertex-sampled separation: d(A→B) and d(B→A) are both ≥ the
    true separation, and both directions exist for every shaped
    route pair; values are finite and non-negative."""
    from battery.queries import QUERIES

    df = QUERIES["route_pair_min_vertex_dist"](SF)
    assert len(df) >= 2 and len(df) % 2 == 0
    assert (df["min_d2"] >= 0).all()
    assert np.isfinite(df["min_d2"]).all()
    pairs = {(r.route_a, r.route_b) for r in df.itertuples()}
    for a, b in pairs:
        assert (b, a) in pairs


def test_seam_cost_bounds(ray_session):
    """Seam cost ≤ h·max_gradient (255) and ≥ the per-image min row
    energy; end_col inside the image."""
    import glob

    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    df = QUERIES["seam_energy_images"](SF).to_pandas()
    meta = pa.concat_tables(
        [pq.read_table(f, columns=["image_id", "w", "h"])
         for f in sorted(glob.glob(
             f"{_image_dir_for(SF)}/part-*.parquet"))]
    ).to_pandas().set_index("image_id")
    m = meta.loc[df["image_id"]]
    assert (df["seam_cost"].to_numpy()
            <= 255 * m["h"].to_numpy()).all()
    assert (df["seam_cost"] >= 0).all()
    assert (df["end_col"].to_numpy() < m["w"].to_numpy()).all()


def test_log2_gap_histogram_totals(ray_session):
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["log2_gap_histogram_users"](SF).to_pandas()
    n = duckdb.sql(f"""
        WITH g AS (SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts) AS d
                   FROM read_parquet('{SF}/events.parquet'))
        SELECT count(*) FROM g WHERE d > 0""").fetchone()[0]
    assert df["n_gaps"].sum() == n
    assert (df["bucket"] >= 1).all()


def test_skew_report_consistency(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["skew_report_keys"](SF)
    assert len(df) == 3
    assert (df["max_key_rows"] <= df["n_rows"]).all()
    assert (df["n_distinct"] <= df["n_rows"]).all()
    assert (df["max_key_rows"] * 1_000_000 // df["n_rows"]
            == df["top_share_ppm"]).all()


def test_type_drift_zero_sums(ray_session):
    """Σ drift numerators = T1·T2 − T2·T1 = 0 exactly."""
    from battery.queries import QUERIES

    got = QUERIES["type_drift_halves"](SF).take_all()
    assert sum(r["drift_num"] for r in got) == 0
    t1 = sum(r["n1"] for r in got)
    t2 = sum(r["n2"] for r in got)
    assert abs(t1 - t2) <= 1  # median split balances halves


def test_exclusion_funnel_subset_of_funnel(ray_session):
    """Clean converters ⊆ converters; conversions bounded by
    purchases."""
    import duckdb

    from battery.queries import QUERIES

    df = QUERIES["exclusion_funnel_users"](SF)
    assert int(df["n_users_clean"][0]) <= int(df["n_users_conv"][0])
    n_purch = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet') "
        f"WHERE event_type = 'purchase'").fetchone()[0]
    assert int(df["n_clean_conversions"][0]) <= n_purch


def test_hog4_conserves_interior(ray_session):
    import glob

    import pyarrow.parquet as pq

    from battery.queries import QUERIES, _image_dir_for

    df = QUERIES["hog4_images"](SF).to_pandas()
    meta = pa.concat_tables(
        [pq.read_table(f, columns=["image_id", "w", "h"])
         for f in sorted(glob.glob(
             f"{_image_dir_for(SF)}/part-*.parquet"))]
    ).to_pandas().set_index("image_id")
    m = meta.loc[df["image_id"]]
    tot = df[["q0", "q1", "q2", "q3", "n_flat"]].sum(axis=1)
    exp = (m["w"] - 2) * (m["h"] - 2)
    assert (tot.to_numpy() == exp.to_numpy()).all()


def test_audio_median_is_a_sample_magnitude(ray_session):
    import geotile.synth as sy
    from battery.queries import QUERIES

    got = QUERIES["audio_median_abs_tracks"](SF).take_all()
    ids = np.array(sorted(r["track_id"] for r in got))
    pcm = np.abs(sy.audio_samples(ids[:8]))
    by = {r["track_id"]: r["median_abs"] for r in got}
    for j, tid in enumerate(ids[:8].tolist()):
        assert by[tid] in pcm[j]
        assert by[tid] == int(np.sort(pcm[j])[(pcm.shape[1] - 1) // 2])


def test_join_card_audit_actual_le_cross(ray_session):
    from battery.queries import QUERIES

    df = QUERIES["join_card_est_audit"](SF)
    assert (df["actual"] <= df["n_left"] * df["n_right"]).all()
    assert (df["d_left"] <= df["n_left"]).all()
    # FK joins: actual ≤ n_left (right side is key-unique)
    assert (df["actual"] <= df["n_left"]).all()


def test_er_canonical_closure(ray_session):
    """Every canonical id must itself map to itself, and canonicals
    must be the longest member (checked via n_chars lookup)."""
    import pyarrow.parquet as pq

    from battery.queries import QUERIES

    df = QUERIES["er_canonical_docs"](SF)
    if len(df) == 0:
        return
    m = dict(zip(df["doc_id"], df["canonical_id"]))
    lens = dict(zip(
        *pq.read_table(f"{SF}/documents.parquet",
                       columns=["doc_id", "n_chars"]).columns))
    lens = {k.as_py(): v.as_py() for k, v in zip(
        pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id"])["doc_id"],
        pq.read_table(f"{SF}/documents.parquet",
                      columns=["n_chars"])["n_chars"])}
    for d, c in m.items():
        assert m[c] == c
        assert lens[c] >= lens[d] or c < d


def test_medoid_is_member(ray_session):
    from battery.queries import QUERIES

    got = QUERIES["medoid_dup_clusters"](SF)
    rows = got.take_all() if hasattr(got, "take_all") else \
        got.to_dict("records")
    for r in rows:
        assert r["n_members"] >= 2
        # medoid must belong to its own cluster id space (cluster_id
        # is the min member id, so medoid ≥ cluster_id)
        assert r["medoid_id"] >= r["cluster_id"]


def test_cell_gini_bounds(ray_session):
    """0 ≤ GMD numerator ≤ (n−1)·Σx (max inequality bound)."""
    from battery.queries import QUERIES

    got = QUERIES["cell_count_gini"](SF)
    rows = got.take_all() if hasattr(got, "take_all") else \
        got.to_dict("records")
    r = rows[0]
    assert 0 <= r["gmd_num"] <= (r["n_cells"] - 1) * r["total_tiles"]
