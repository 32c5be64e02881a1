"""Driver-contract guard: a subset of queries() vs their DuckDB oracles
at sf0.001 (the full battery runs via the external driver; this keeps
the contract from drifting between rounds)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
CHECKED = [
    "distinct_users_exact",
    "pricing_summary",
    "broadcast_join_brand_revenue",
    "distinct_parts_per_flag",
    "pip_triangle_docs",
    "window_events",
    "doc_token_stats",
    "knn_embeddings",
    "asof_clicks_views",
    "followup_events",
    "top_terms_docs",
    "jaccard_pairs_docs",
    "quantiles_events",
    "grouped_quantiles_events",
    "stratified_sample_events",
    "cohort_retention_users",
    "transition_counts_events",
    "mode_event_type_user",
    "cube_docs",
    "skyline_orders",
    "embedding_dim_stats",
    "event_gap_stats_user",
    "last_event_user",
    "type_cooccurrence_users",
    "pagerank_dups",
    "weighted_avg_lineitem",
    "embedding_cov_moments",
    "stopword_filter_docs",
    "value_histogram_events",
    "hourly_activity_events",
    "kmeans_embeddings",
    "resampled_hourly_events",
    "mad_events",
    "throttled_events",
    "union_by_name_orders",
    "grouping_sets_docs",
    "percent_rank_events",
    "top_bigrams_docs",
    "train_split_docs",
    "global_sort_orders",
    "ndjson_events_ingest",
    "user_sequence_strings",
    "winsorized_stats_events",
    "region_revenue",
    "multi_distinct_daily",
    "bloom_semi_join_lineitem",
    "token_shards_docs",
    "rfm_segments",
    "triangle_dups",
    "bfs_dups",
    "linreg_hour_value",
    "spatial_dbscan_events",
    "range_window_events",
    "above_avg_orders",
    "streaks_users",
    "novelty_daily",
    "snapshot_diff_orders",
    "profile_orders",
    "linear_scores_embeddings",
    "revenue_deciles",
    "fuzzy_token_pairs_docs",
    "session_concurrency_events",
    "sliding_distinct_users",
    "running_revenue_orders",
    "session_stats_users",
    "upsert_orders",
    "label_centroids",
    "dense_rank_orders",
    "double_charge_orders",
    "centroid_confusion",
    "dominant_dim_embeddings",
    "weekly_type_wow",
    "hierarchy_rollup_customers",
    "daily_metrics_long",
    "type_lift_daily",
    "topk_ties_orders",
    "type_trigrams_users",
    "llm_corpus_prep",
    "ks_lang_docs",
    "benford_prices",
    "regex_tokens_docs",
    "pushdown_orders",
    "near_price_pairs",
    "weighted_median_lineitem",
    "daily_churn_users",
    "dense_type_day_matrix",
    "anomaly_counts_users",
    "drawdown_users",
    "rolling_distinct_types",
    "decay_score_users",
    "gini_impurity_users",
    "division_completion_users",
    "locf_events",
    "clamped_balance_users",
    "posting_lists_embeddings",
    "shipping_priority_q3",
    "revenue_share_nations",
    "monotone_run_users",
    "scd2_orders",
    "gap_filled_daily_users",
    "rebase_index_users",
    "except_all_users",
    "nation_pair_revenue",
    "custdist_orders",
    "promo_session_overlap",
    "spearman_users",
    "mannwhitney_daily",
    "twap_users",
    "distance_rings_docs",
    "pq_codes_embeddings",
    "pattern_triples_users",
    "compaction_plan_docs",
    "dominant_supplier_parts",
    "activity_bitmap_users",
    "important_parts",
    "token_pair_support_docs",
    "attribution_lasttouch",
    "decile_transition_users",
    "revenue_concentration_orders",
    "partitioned_sink_events",
    "funnel_windowed_users",
    "bounce_rate_daily",
    "adjacent_vector_dots",
    "watermark_late_events",
    "keyspace_gaps_orders",
    "ri_audit_edges",
    "conversion_latency_users",
    "moments4_by_type",
    "bottomk_quantile_events",
    "ab_conversion_parts",
    "session_duration_quantiles",
    "dau_overlap_daily",
    "zonemap_events",
    "user_feature_matrix",
    "dict_encoding_audit",
    "silhouette_parts_labels",
    "ivm_priority_revenue",
    "doc_top_tokens",
    "above_nation_avg_customers",
    "dow_seasonality_orders",
    "matryoshka_energy_labels",
    "trend_slope_users",
    "session_entry_exit_matrix",
    "forecast_revenue_q6",
    "late_shipments_q12",
    "priority_exists_check_q4",
    "embedding_drift_labels",
    "promo_revenue_share_q14",
    "small_qty_revenue_q17",
    "order_gap_median_hist",
    "disjunctive_pred_q19",
    "top_supplier_q15",
    "waiting_customers_q22",
    "returned_revenue_q10",
    "volatility_users",
    "hapax_rate_sources",
    "stream_dedup_ttl",
    "nation_quarter_qoq",
    "growth_accounting_quarters",
    "calibration_bins_embeddings",
    "hhi_nations",
    "bigram_coverage_langs",
    "unigram_l1_langs",
    "business_lead_hist",
    "transition_dwell_matrix",
    "abc_classification_customers",
    "supplier_mad_nations",
    "acquisition_conversion",
    "burst_minutes_events",
    "supplier_cov_nations",
    "diversified_topk_orders",
    "session_gap_sweep",
    "pq_residual_energy",
    "wallet_share_customers",
    "time_pyramid_counts",
    "dow_hour_heatmap_events",
    "status_priority_crosstab",
    "nation_percentile_customers",
    "lines_per_order_hist",
    "dup_rate_sources",
    "all_ontime_orders",
    "source_trigram_affinity",
    "seasonal_index_months",
    "weekend_aov_parts",
    "purchase_gap_median",
    "balance_asymmetry_nations",
    "vocab_growth_curve",
    "nn1_accuracy_labels",
    "status_share_monthly",
    "size_price_moments_brands",
    "large_volume_orders_q18",
    "supplier_count_q16",
    "market_share_q8",
    "last_supplier_orders_q21",
    "daily_autocorr_events",
    "cheapest_supplier_parts",
    "simpson_diversity_sources",
    "bursty_customers_nations",
    "local_clustering_dups",
    "haar_energy_daily",
    "lifetime_span_customers",
    "daily_xcorr_types",
    "csv_roundtrip_events",
    "order_delta_signs",
    "pareto_frontier_nations",
    "dow_detrended_parts",
    "near_simultaneous_pairs",
    "reorder_after_return",
    "early_breadth_users",
    "nation_quartile_bands",
    "type_run_lengths",
    "sessions_crossing_midnight",
    "price_endings_orders",
    "priority_migration_customers",
    "cusum_daily_revenue",
    "repetitiveness_docs",
    "burst_window_max_users",
    "weak_edges_dups",
    "mutual_best_pairs",
    "value_ecdf_probes",
    "quarter_close_spike",
    "char_class_docs",
    "global_max_gap_events",
    "label_gram_matrix",
    "gmd_nations",
    "interval_merge_users",
    "anagram_groups_docs",
    "mann_kendall_nations",
    "local_supplier_volume_q5",
    "profit_by_nation_year",
    "tumbling_argmax_events",
    "probe_energy_labels",
    "head_vocab_coverage_sources",
    "two_hop_dups",
    "token_burstiness_head",
    "supplier_breadth_customers",
    "butterfly_count_cs",
    "degree_assortativity_dups",
    "anomalous_minutes_events",
    "nucleus_mass_types",
    "vocab_jaccard_sources",
    "daily_cross_source_moments",
    "linenumber_contiguity_audit",
    "childless_orders_audit",
    "basket_pairs_user_days",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


@pytest.mark.parametrize("name", CHECKED)
def test_query_matches_oracle(ray_session, con, name):
    from battery.queries import ORACLE_SQL, QUERIES

    got = QUERIES[name](SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    exp = con.execute(ORACLE_SQL[name]).df()
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        if a.dtype.kind == "f":
            assert np.allclose(a, b.astype(float), atol=0, rtol=0), c
        else:
            assert (a == b).all(), c


def test_every_query_has_callable(ray_session):
    import __ray_entry__ as e

    qs = e.queries()
    assert len(qs) >= 30
    oracle = e.oracle_sql()
    assert set(oracle) <= set(qs)
    assert len(oracle) >= 17


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    n = res.count() if hasattr(res, "count") else len(res)
    assert n > 0
    cols = set(res.schema().names if hasattr(res, "schema") else res.columns)
    assert {"image_id", "route_id", "cell", "caption"} <= cols


TILE_CHECKED = [
    "tile_covered_cells",
    "tile_assignments",
    "tile_cell_counts",
    "route_feature_collections",
    "tile_knn",
]


@pytest.mark.parametrize("name", TILE_CHECKED)
def test_tile_query_matches_oracle(ray_session, con, name):
    """Flagship graft queries vs generated DuckDB oracles (PIP replay
    over the edge sidecar, SQL Morton encode, meter-frame kNN) — the
    arithmetic mirrors the numpy kernels so floats match bit-exactly."""
    from battery.queries import QUERIES, tile_oracle_sql

    sql = tile_oracle_sql(SF)[name]
    got = QUERIES[name](SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    exp = con.execute(sql).df()
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        if a.dtype.kind == "f":
            # bit-exact: the SQL replays the same double ops in order
            assert (a == b.astype(float)).all(), c
        else:
            assert (a == b).all(), c


GENERATED_CHECKED = ["doc_quality", "embedding_dups", "embedding_buckets", "lang_id_docs"]


@pytest.mark.parametrize("name", GENERATED_CHECKED)
def test_generated_oracle_matches(ray_session, con, name):
    """Oracles added in round 2 (quality-formula replay, cosine pair
    join, hyperplane-bucket sidecar) — exercised at sf0.001."""
    import __ray_entry__ as e

    sql = e.oracle_sql()[name]
    from battery.queries import QUERIES

    got = QUERIES[name](SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    exp = con.execute(sql).df()
    got, exp = _canon(got), _canon(exp)
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        a, b = got[c].to_numpy(), exp[c].to_numpy()
        assert (a == b).all(), c


def test_gtfs_stop_features_oracle(ray_session, con):
    import __ray_entry__ as e
    from battery.queries import QUERIES

    sql = e.oracle_sql()["gtfs_stop_features"]
    got = QUERIES["gtfs_stop_features"](SF)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    exp = con.execute(sql).df()
    g = got.sort_values("stop_id").reset_index(drop=True)
    x = exp.sort_values("stop_id").reset_index(drop=True)
    assert len(g) == len(x)
    assert (g["stop_id"] == x["stop_id"]).all()
    assert (g["n_routes"].to_numpy() == x["n_routes"].to_numpy()).all()


def test_image_invariant_oracles(ray_session, con):
    from battery.queries import (
        QUERIES,
        _image_dir_for,
        _image_embeddings_sql,
        _image_invariants_sql,
    )

    img = _image_dir_for(SF)
    for name, builder in (
        ("image_invariants", _image_invariants_sql),
        ("image_embeddings", _image_embeddings_sql),
    ):
        got = QUERIES[name](SF).to_pandas().sort_values("image_id").reset_index(drop=True)
        exp = con.execute(builder(img)).df().sort_values("image_id").reset_index(drop=True)
        assert len(got) == len(exp)
        for c in exp.columns:
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), (name, c)


def test_fmt_size_association_oracle(ray_session, con):
    """Chi-square contingency parts vs direct SQL over the image
    parquet; sanity: devs sum to zero over the table."""
    from battery.queries import QUERIES, _image_dir_for

    img = _image_dir_for(SF)
    got = (QUERIES["fmt_size_association"](SF)
           .sort_values(["fmt", "size_class"]).reset_index(drop=True))
    exp = con.execute(f"""
        WITH cell AS (SELECT fmt,
                             CASE WHEN w * h >= 1024 THEN 1 ELSE 0 END
                               AS size_class, count(*) AS n
                      FROM read_parquet('{img}/part-*.parquet')
                      GROUP BY 1, 2),
        m AS (SELECT *, SUM(n) OVER (PARTITION BY fmt) AS r,
                     SUM(n) OVER (PARTITION BY size_class) AS c,
                     SUM(n) OVER () AS nn FROM cell)
        SELECT fmt, CAST(size_class AS BIGINT) AS size_class,
               CAST(n AS BIGINT) AS n,
               CAST(n * nn - r * c AS BIGINT) AS dev
        FROM m ORDER BY 1, 2
    """).df().reset_index(drop=True)
    assert len(got) == len(exp)
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert int(got["dev"].sum()) == 0


def test_caption_stop_stats_oracle(ray_session, con):
    """Metadata-only caption extraction vs direct SQL over the image
    parquet (payload column never read)."""
    from battery.queries import QUERIES, _image_dir_for

    img = _image_dir_for(SF)
    got = (QUERIES["caption_stop_stats"](SF).to_pandas()
           .sort_values(["fmt", "stop_bucket"]).reset_index(drop=True))
    exp = con.execute(f"""
        SELECT fmt,
               CAST(string_split(caption, ' ')[5] AS BIGINT) // 4
                 AS stop_bucket,
               count(*) AS n, CAST(SUM(w * h) AS BIGINT) AS sum_px
        FROM read_parquet('{img}/part-*.parquet') GROUP BY 1, 2
        ORDER BY 1, 2
    """).df().reset_index(drop=True)
    assert len(got) == len(exp)
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_image_patch_sums_oracle(ray_session, con):
    """Engine decode-path patch sums (reduceat kernel) vs the
    generator-replay sidecar (pixel_pattern ground truth,
    inclusion-exclusion prefix-sum kernel) at sf0.001; also sanity:
    patch pixel counts tile each image exactly."""
    from battery.queries import QUERIES, _image_dir_for, _image_patch_sql

    img = _image_dir_for(SF)
    got = (
        QUERIES["image_patch_sums"](SF)
        .to_pandas()
        .sort_values(["image_id", "patch"])
        .reset_index(drop=True)
    )
    exp = (
        con.execute(_image_patch_sql(img))
        .df()
        .sort_values(["image_id", "patch"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) == 512 * 16
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    per_img = got.groupby("image_id")["n_px"].sum()
    assert set(per_img.unique()) <= {32 * 32, 40 * 24, 16 * 16}


def test_image_channel_histogram_oracle(ray_session, con):
    """Engine decode-path histogram vs the generator-replay sidecar
    (pixel_pattern ground truth, np.unique counting) at sf0.001; also
    sanity: bins partition the pixel mass exactly."""
    from battery.queries import QUERIES, _image_dir_for, _image_hist_sql

    img = _image_dir_for(SF)
    got = (
        QUERIES["image_channel_histogram"](SF)
        .to_pandas()
        .sort_values(["channel", "bin"])
        .reset_index(drop=True)
    )
    exp = (
        con.execute(_image_hist_sql(img))
        .df()
        .sort_values(["channel", "bin"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) == 48
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    per_chan = got.groupby("channel")["cnt"].sum().to_numpy()
    assert (per_chan == per_chan[0]).all()  # same pixel count per channel


def test_tile_pyramid_counts_oracle(ray_session, con):
    """Shift-coarsened pyramid (engine) vs direct per-level quantize+
    spread encode in SQL — two independent derivations of the same
    aperture-4 nesting; also sanity: every level's total equals the
    image count."""
    from battery.queries import QUERIES, _image_dir_for, _tile_pyramid_sql

    img = _image_dir_for(SF)
    got = (QUERIES["tile_pyramid_counts"](SF).to_pandas()
           .sort_values(["cell"]).reset_index(drop=True))
    exp = (con.execute(_tile_pyramid_sql(img)).df()
           .sort_values(["cell"]).reset_index(drop=True))
    assert len(got) == len(exp)
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    totals = got.groupby("level")["n_tiles"].sum()
    assert (totals.to_numpy() == totals.to_numpy()[0]).all()


def test_caption_geo_consistency_oracle(ray_session, con):
    """Engine numpy d² argmin vs the SQL CROSS JOIN + ROW_NUMBER replay
    (same meter frame, same literals); also sanity: totals equal the
    image count and matches never exceed totals."""
    from battery.queries import QUERIES, _caption_geo_sql, _image_dir_for

    img = _image_dir_for(SF)
    got = (QUERIES["caption_geo_consistency"](SF).to_pandas()
           .sort_values(["caption_stop"]).reset_index(drop=True))
    exp = (con.execute(_caption_geo_sql(img)).df()
           .sort_values(["caption_stop"]).reset_index(drop=True))
    assert len(got) == len(exp)
    for c in exp.columns:
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    assert (got["n_match"] <= got["n"]).all()


def test_image_glcm_energy_oracle(ray_session, con):
    """Engine GLCM (offset-packed bincount over the decode path) vs the
    generator-replay sidecar (per-column add.at over pixel_pattern
    ground truth, python-int energy) at sf0.001 — integer-exact."""
    from battery.queries import QUERIES, _image_dir_for, _image_glcm_sql

    img = _image_dir_for(SF)
    got = (QUERIES["image_glcm_energy"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_image_glcm_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "glcm_energy", "n_pairs"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_frame_energy_oracle(ray_session, con):
    """Engine frame energies (frombuffer + vectorized int64 sums) vs
    the python-int generator replay at sf0.001; also: unsupported
    codecs must raise NotImplementedError (the container gate)."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pt

    from battery.ops.audio import AudioFrameStage
    from battery.queries import QUERIES, _audio_dir_for, _audio_energy_sql

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_frame_energy"](SF).to_pandas()
           .sort_values(["track_id", "frame"]).reset_index(drop=True))
    exp = (con.execute(_audio_energy_sql(aud)).df()
           .sort_values(["track_id", "frame"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "frame", "energy"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    stage = AudioFrameStage()
    bad = pa.table({"track_id": pa.array([1], pa.int64()),
                    "codec": pa.array(["mp3"]),
                    "bytes": pa.array([b"xx"], pa.binary())})
    with _pt.raises(NotImplementedError):
        stage(bad)


def test_audio_silence_runs_oracle(ray_session, con):
    """Engine flat-diff run detection vs the per-sample python-int
    replay sidecar at sf0.001."""
    from battery.queries import QUERIES, _audio_dir_for, _audio_silence_sql

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_silence_runs"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_silence_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "n_quiet", "max_run"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_spatial_autocorr_cells_oracle(ray_session, con):
    """Engine scatter/union count algebra vs the SQL self-join over
    quantized (ix, iy) at sf0.001 — exact integer parts."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _spatial_autocorr_sql)

    img = _image_dir_for(SF)
    got = QUERIES["tile_autocorr_cells"](SF).to_pandas()
    exp = con.execute(_spatial_autocorr_sql(img)).df()
    assert len(got) == len(exp) == 1
    for c in ("n_cells", "sum_c", "ssq_c", "w_pairs", "cross_sum"):
        assert int(got[c].iloc[0]) == int(exp[c].iloc[0]), c


def test_tile_stop_hulls_oracle(ray_session, con):
    """Engine monotone-chain distributed hull vs the Jarvis-march
    Fraction-exact sidecar at sf0.001."""
    from battery.queries import QUERIES, _image_dir_for, _stop_hulls_sql

    img = _image_dir_for(SF)
    got = (QUERIES["tile_stop_hulls"](SF)
           .sort_values("stop").reset_index(drop=True))
    exp = (con.execute(_stop_hulls_sql(img)).df()
           .sort_values("stop").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("stop", "n_points", "n_hull"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    for c in ("west", "south", "east", "north"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_autocorr_tracks_oracle(ray_session, con):
    """Engine vectorized autocorr features vs the python-int replay
    sidecar at sf0.001."""
    from battery.queries import (QUERIES, _audio_autocorr_sql,
                                 _audio_dir_for)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_autocorr_tracks"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_autocorr_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "energy0", "ac_lag64", "peak_idx"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_tile_viewport_query_oracle(ray_session, con):
    """Engine bbox-pruned cell counts vs the BETWEEN + Morton SQL
    replay at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _tile_viewport_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["tile_viewport_query"](SF).to_pandas()
           .sort_values("cell").reset_index(drop=True))
    exp = (con.execute(_tile_viewport_sql(img)).df()
           .sort_values("cell").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("cell", "n_tiles"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_image_median_gray_oracle(ray_session, con):
    """Engine packed-bincount median vs the python sort replay at
    sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _image_median_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["image_median_gray"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_image_median_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "median_gray"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_tile_corridor_query_oracle(ray_session, con):
    """Engine clamped-projection corridor filter vs the literal-op-order
    SQL replay at sf0.001 — the d2 <= R2 boundary must be
    bit-identical."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _tile_corridor_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["tile_corridor_query"](SF).to_pandas()
           .sort_values("cell").reset_index(drop=True))
    exp = (con.execute(_tile_corridor_sql(img)).df()
           .sort_values("cell").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("cell", "n_tiles"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_cell_dominant_stop_oracle(ray_session, con):
    """Engine per-cell argmax vs the ROW_NUMBER SQL replay at
    sf0.001."""
    from battery.queries import (QUERIES, _cell_dominant_sql,
                                 _image_dir_for)

    img = _image_dir_for(SF)
    got = (QUERIES["cell_dominant_stop"](SF).to_pandas()
           .sort_values("cell").reset_index(drop=True))
    exp = (con.execute(_cell_dominant_sql(img)).df()
           .sort_values("cell").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("cell", "stop", "n"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_segment_octants_routes_oracle(ray_session, con):
    """Engine sign/magnitude octant classification vs the segments-
    sidecar SQL replay (libm-free by construction)."""
    from battery.queries import QUERIES, _segment_octants_sql

    got = (QUERIES["segment_octants_routes"](SF).to_pandas()
           .sort_values(["route_id", "octant"]).reset_index(drop=True))
    exp = (con.execute(_segment_octants_sql()).df()
           .sort_values(["route_id", "octant"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("route_id", "octant", "n_segments"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_video_frame_sums_oracle(ray_session, con):
    """Engine VideoFrameStage (stacked tensor sums over the decoded
    rawseq payload) vs the per-frame generator replay at sf0.001;
    unsupported codecs must raise."""
    import pyarrow as pa
    import pytest as _pt

    from battery.ops.video import VideoFrameStage
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_sums_sql)

    vid = _video_dir_for(SF)
    got = (QUERIES["video_frame_sums"](SF).to_pandas()
           .sort_values(["clip_id", "frame_idx"]).reset_index(drop=True))
    exp = (con.execute(_video_sums_sql(vid)).df()
           .sort_values(["clip_id", "frame_idx"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "frame_idx", "pixel_sum"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    with _pt.raises(NotImplementedError):
        VideoFrameStage()(pa.table({
            "clip_id": pa.array([1], pa.int64()),
            "n_frames": pa.array([1], pa.int32()),
            "w": pa.array([2], pa.int32()),
            "h": pa.array([2], pa.int32()),
            "codec": pa.array(["h264"]),
            "bytes": pa.array([b"x"], pa.binary())}))


def test_lang_confusion_matrix_oracle(ray_session, con):
    """Engine confusion aggregate vs the generated lang-id SQL replay
    wrapped in a GROUP BY at sf0.001."""
    from battery.queries import QUERIES, _lang_confusion_sql

    got = (QUERIES["lang_confusion_matrix"](SF).to_pandas()
           .sort_values(["lang", "lang_pred"]).reset_index(drop=True))
    exp = (con.execute(_lang_confusion_sql()).df()
           .sort_values(["lang", "lang_pred"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("lang", "lang_pred", "n"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_crossmodal_pairing_audit_oracle(ray_session, con):
    """Engine image-audio pairing rollup vs the modulo-join SQL
    replay over both synth tables at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _crossmodal_sql, _image_dir_for)

    img, aud = _image_dir_for(SF), _audio_dir_for(SF)
    got = (QUERIES["crossmodal_pairing_audit"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_crossmodal_sql(img, aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "n_images", "sum_px", "n_samples"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_image_center_bias_oracle(ray_session, con):
    """Stage-reuse fold of the exact patch ledger vs a CASE
    re-aggregation of the same sidecar at sf0.001."""
    from battery.queries import (QUERIES, _image_center_bias_sql,
                                 _image_dir_for)

    img = _image_dir_for(SF)
    got = (QUERIES["image_center_bias"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_image_center_bias_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "center_sum", "center_px", "total_sum",
              "total_px"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_stop_spacing_legs_oracle(ray_session, con):
    """Engine meter-frame leg d-squared vs the strtod-cast literal
    replay — bit-exact per element."""
    from battery.queries import QUERIES, _stop_spacing_sql

    got = (QUERIES["stop_spacing_legs"](SF).to_pandas()
           .sort_values(["route_key", "leg"]).reset_index(drop=True))
    exp = (con.execute(_stop_spacing_sql()).df()
           .sort_values(["route_key", "leg"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("route_key", "leg", "d2_m2"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_route_overlap_matrix_oracle(ray_session, con):
    """Pair expansion over the flagship assignments vs the generated
    PIP replay wrapped in a self-join at sf0.001."""
    from battery.queries import QUERIES, _route_overlap_sql

    got = (QUERIES["route_overlap_matrix"](SF).to_pandas()
           .sort_values(["route_a", "route_b"]).reset_index(drop=True))
    exp = (con.execute(_route_overlap_sql(SF)).df()
           .sort_values(["route_a", "route_b"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("route_a", "route_b", "n_images"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_half_drift_oracle(ray_session, con):
    """Stage-reuse fold of the frame-energy ledger vs a CASE
    re-aggregation of the shared audio sidecar at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_half_drift_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_half_drift"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_half_drift_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "first_half", "second_half"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_stop_hull_area_parts_oracle(ray_session, con):
    """Order-free truncated shoelace: monotone-chain engine vs the
    Jarvis sidecar (different starting vertex, same cyclic edge set)
    at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _stop_hull_area_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["stop_hull_area_parts"](SF).to_pandas()
           .sort_values("stop").reset_index(drop=True))
    exp = (con.execute(_stop_hull_area_sql(img)).df()
           .sort_values("stop").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("stop", "n_hull", "area2_e6"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_dup_degree_hist_oracle(ray_session, con):
    """Degree fold of the LSH pairs vs the scalar-replay pairs sidecar
    folded identically at sf0.001."""
    from battery.queries import QUERIES, _dup_degree_sql

    got = (QUERIES["dup_degree_hist"](SF).to_pandas()
           .sort_values("degree").reset_index(drop=True))
    exp = (con.execute(_dup_degree_sql(SF)).df()
           .sort_values("degree").reset_index(drop=True))
    assert len(got) == len(exp)
    for c in ("degree", "n_docs"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_stop_bbox_iou_pairs_oracle(ray_session, con):
    """BBox pair table vs the LEAST/GREATEST SQL replay — every area
    a single IEEE product before truncation."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _stop_bbox_iou_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["stop_bbox_iou_pairs"](SF)
           .sort_values(["stop_a", "stop_b"]).reset_index(drop=True))
    exp = (con.execute(_stop_bbox_iou_sql(img)).df()
           .sort_values(["stop_a", "stop_b"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("stop_a", "stop_b", "inter_e6", "area_a_e6",
              "area_b_e6"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_phash_popcount_stats_oracle(ray_session, con):
    """Engine unpackbits popcount vs DuckDB bit_count on the metadata
    scan at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _phash_popcount_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["phash_popcount_stats"](SF).to_pandas()
           .sort_values("fmt").reset_index(drop=True))
    exp = (con.execute(_phash_popcount_sql(img)).df()
           .sort_values("fmt").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("fmt", "n", "sum_bits", "min_bits", "max_bits"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_zcr_tracks_oracle(ray_session, con):
    """Shifted-product ZCR kernel vs the python-int per-sample replay
    sidecar at sf0.001."""
    from battery.queries import QUERIES, _audio_dir_for, _audio_zcr_sql

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_zcr_tracks"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_zcr_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "n_flips", "n_pos", "n_neg"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_video_motion_energy_oracle(ray_session, con):
    """Stacked-tensor |diff| motion kernel vs the python-int frame-pair
    replay at sf0.001; first-argmax tie rule must match."""
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_motion_sql)

    vid = _video_dir_for(SF)
    got = (QUERIES["video_motion_energy"](SF).to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    exp = (con.execute(_video_motion_sql(vid)).df()
           .sort_values("clip_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "motion_total", "motion_peak", "peak_idx"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_image_gradient_energy_oracle(ray_session, con):
    """Vectorized |diff| gradient sums vs the nested python-int loop
    replay at sf0.001 (mixed image sizes exercised by the fixture)."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _image_gradient_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["image_gradient_energy"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_image_gradient_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "grad_h", "grad_v"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_poly_edge_crossings_oracle(ray_session, con):
    """Cell-bucketed segment-intersection join vs the SQL self-join
    replay (identical IEEE orientation expressions); the bbox
    prefilter in the SQL is a necessary condition so the two sides
    see the same pair universe."""
    from battery.queries import QUERIES, _poly_crossings_sql

    got = (QUERIES["poly_edge_crossings"]("/root/testdata/sf0.001")
           .sort_values(["poly_a", "poly_b"]).reset_index(drop=True))
    exp = (con.execute(_poly_crossings_sql()).df()
           .sort_values(["poly_a", "poly_b"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("poly_a", "poly_b", "n_crossings"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_bloom_fpr_audit_oracle(ray_session, con):
    """Distributed bloom build/probe vs the scalar python-int bitmap
    replay at sf0.001 — same m/k/seeds, exact counter equality."""
    from battery.queries import QUERIES, _bloom_fpr_sql

    got = QUERIES["bloom_fpr_audit"](SF)
    exp = con.execute(_bloom_fpr_sql(SF)).df()
    assert len(got) == len(exp) == 1
    for c in ("n_probed", "n_pass", "n_true", "n_fp"):
        assert int(got[c].iloc[0]) == int(exp[c].iloc[0]), c
    # the filter must be lossless on true keys
    assert int(got["n_true"].iloc[0]) <= int(got["n_pass"].iloc[0])


def test_scene_change_runs_oracle(ray_session, con):
    """Vectorized padded-diff run kernel vs the per-pair scalar loop
    replay at sf0.001."""
    from battery.queries import (QUERIES, _scene_change_sql,
                                 _video_dir_for)

    vid = _video_dir_for(SF)
    got = (QUERIES["scene_change_runs"](SF).to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    exp = (con.execute(_scene_change_sql(vid)).df()
           .sort_values("clip_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "n_changes", "longest_static"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_triplet_violation_labels_oracle(ray_session, con):
    """int64 Gram-matmul masked minima vs the scalar python-int
    per-pair replay at sf0.001."""
    from battery.queries import QUERIES, _triplet_sql

    got = (QUERIES["triplet_violation_labels"](SF).to_pandas()
           .sort_values("label").reset_index(drop=True))
    exp = (con.execute(_triplet_sql(SF)).df()
           .sort_values("label").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("label", "n_anchors", "n_violations"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_dup_component_sizes_oracle(ray_session, con):
    """CC size histogram vs the recursive-CTE replay at sf0.001."""
    from battery.queries import QUERIES
    import __ray_entry__ as e

    sql = e.oracle_sql()["dup_component_sizes"].replace(
        "/root/testdata/sf0.01", SF)
    got = (QUERIES["dup_component_sizes"](SF).to_pandas()
           .sort_values("size").reset_index(drop=True))
    exp = (con.execute(sql).df()
           .sort_values("size").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("size", "n_clusters"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_hist_equalize_sums_oracle(ray_session, con):
    """Packed-bincount CDF remap vs the scalar Counter replay at
    sf0.001."""
    from battery.queries import (QUERIES, _hist_eq_sql,
                                 _image_dir_for)

    img = _image_dir_for(SF)
    got = (QUERIES["hist_equalize_sums"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_hist_eq_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "eq_sum"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_phash_nn_images_oracle(ray_session, con):
    """SWAR-popcount XOR argmin vs the bit_count(xor) window replay at
    sf0.001 (first-hit argmin == smallest-id tie rule)."""
    from battery.queries import QUERIES, _image_dir_for, _phash_nn_sql

    img = _image_dir_for(SF)
    got = (QUERIES["phash_nn_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_phash_nn_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "nn_id", "dist"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_blob_count_images_oracle(ray_session, con):
    """Vectorized min-neighbour label relaxation vs the scalar
    flood-fill replay at sf0.001 — two different algorithms, one
    blob count."""
    from battery.queries import (QUERIES, _blob_count_sql,
                                 _image_dir_for)

    img = _image_dir_for(SF)
    got = (QUERIES["blob_count_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_blob_count_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "n_blobs", "n_fg"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_onsets_tracks_oracle(ray_session, con):
    """Shifted-compare onset fold over the shared AudioFrameStage
    ledger vs the python-int replay at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_onsets_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_onsets_tracks"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_onsets_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "n_onsets", "first_onset"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_range_density_labels_oracle(ray_session, con):
    """Gram-matmul range counts vs the early-exit scalar replay at
    sf0.001."""
    from battery.queries import QUERIES, _range_density_sql

    got = (QUERIES["range_density_labels"](SF).to_pandas()
           .sort_values("label").reset_index(drop=True))
    exp = (con.execute(_range_density_sql(SF)).df()
           .sort_values("label").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("label", "n_anchors", "n_in_range"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_disc_tile_counts_oracle(ray_session, con):
    """Flagship spatial join against the 256-disc dimension set vs the
    even-odd crossing replay over the poly_edges sidecar at sf0.001."""
    from battery.queries import QUERIES, _disc_tile_counts_sql

    got = (QUERIES["disc_tile_counts"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("route_id").reset_index(drop=True))
    exp = (con.execute(_disc_tile_counts_sql("/root/testdata/sf0.001"))
           .df().sort_values("route_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("route_id", "n_tiles"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_mirror_symmetry_images_oracle(ray_session, con):
    """Vectorized flip-diff vs the per-pixel python replay at
    sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for, _mirror_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["mirror_symmetry_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_mirror_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "asym"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_video_flicker_parts_oracle(ray_session, con):
    """Stacked flicker reduction vs the python-int per-pixel replay
    at sf0.001."""
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_flicker_sql)

    vid = _video_dir_for(SF)
    got = (QUERIES["video_flicker_parts"](SF).to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    exp = (con.execute(_video_flicker_sql(vid)).df()
           .sort_values("clip_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "sum_sq", "sq_sum", "n_frames"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_quadkey_occupancy_oracle(ray_session, con):
    """Morton parent bit algebra vs the SQL encode replay at
    sf0.001."""
    from battery.queries import QUERIES, _quadkey_occupancy_sql

    got = (QUERIES["quadkey_occupancy"](SF).to_pandas()
           .sort_values("occupancy").reset_index(drop=True))
    exp = (con.execute(_quadkey_occupancy_sql(SF)).df()
           .sort_values("occupancy").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("occupancy", "n_parents"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_simhash_bit_bias_oracle(ray_session, con):
    """Engine shift-and-mask bit sums vs the scalar simhash sidecar at
    sf0.001."""
    from battery.queries import QUERIES, _simhash_bit_bias_sql

    got = (QUERIES["simhash_bit_bias"](SF).to_pandas()
           .sort_values("bit").reset_index(drop=True))
    exp = (con.execute(_simhash_bit_bias_sql(SF)).df()
           .sort_values("bit").reset_index(drop=True))
    assert len(got) == len(exp) == 64
    for c in ("bit", "n_set"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_coverage_holes_cells_oracle(ray_session, con):
    """kNN-threshold fringe map vs the segments-sidecar d² replay at
    sf0.001."""
    from battery.queries import QUERIES, _coverage_holes_sql

    got = (QUERIES["coverage_holes_cells"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("cell").reset_index(drop=True))
    exp = (con.execute(_coverage_holes_sql("/root/testdata/sf0.001"))
           .df().sort_values("cell").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("cell", "n_holes"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_nearest_route_share_oracle(ray_session, con):
    """kNN rank-0 share vs the rn=1 replay at sf0.001."""
    from battery.queries import QUERIES, _nearest_route_share_sql

    got = (QUERIES["nearest_route_share"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("route_id").reset_index(drop=True))
    exp = (con.execute(_nearest_route_share_sql(
        "/root/testdata/sf0.001")).df()
        .sort_values("route_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("route_id", "n_tiles"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_cross_source_leakage_oracle(ray_session, con):
    """Near-dup cross-source pair counts vs the minhash-pairs sidecar
    joined to documents at sf0.001."""
    from battery.queries import QUERIES, _cross_source_leakage_sql

    got = (QUERIES["cross_source_leakage"](SF).to_pandas()
           .sort_values(["source_a", "source_b"])
           .reset_index(drop=True))
    exp = (con.execute(_cross_source_leakage_sql(SF)).df()
           .sort_values(["source_a", "source_b"])
           .reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("source_a", "source_b", "n_pairs"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_closest_pair_tiles_oracle(ray_session, con):
    """Grid-bucketed closest pair vs the quantized-join replay at
    sf0.001 (same tie rule d2, ia, ib)."""
    from battery.queries import QUERIES, _closest_pair_sql

    got = QUERIES["closest_pair_tiles"]("/root/testdata/sf0.001")
    exp = con.execute(
        _closest_pair_sql("/root/testdata/sf0.001")).df()
    assert len(got) == len(exp) == 1
    for c in ("img_a", "img_b", "d2_e12"):
        assert got[c].iloc[0] == exp[c].iloc[0], c


def test_audio_loudest_window_oracle(ray_session, con):
    """Cumsum sliding-window maxima over the shared frame ledger vs
    the python-int replay at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_loudest_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_loudest_window"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_loudest_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "max_energy", "start_frame"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_otsu_threshold_images_oracle(ray_session, con):
    """Vectorized int64 histogram/cumsum + python-int cross-mult
    argmax vs the Fraction replay at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for, _otsu_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["otsu_threshold_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_otsu_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "threshold", "n_fg"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_kcore_dups_oracle(ray_session, con):
    """Vectorized CSR batch peeling vs the pure-python dict peeling
    over the SQL cosine-join pairs at sf0.001."""
    from battery.queries import QUERIES, _kcore_sql

    got = (QUERIES["kcore_dups"](SF)
           .sort_values("node").reset_index(drop=True))
    exp = (con.execute(_kcore_sql(SF)).df()
           .sort_values("node").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("node", "core"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_haar_detail_tracks_oracle(ray_session, con):
    """Reshape-diff-square batch tensor vs the python-int replay at
    sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_haar_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_haar_detail_tracks"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_haar_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "d1_energy", "d2_energy"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_video_quadrant_motion_oracle(ray_session, con):
    """Quadrant slices of the stacked |diff| tensor vs the per-pixel
    python replay at sf0.001."""
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_quadrant_sql)

    vid = _video_dir_for(SF)
    got = (QUERIES["video_quadrant_motion"](SF).to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    exp = (con.execute(_video_quadrant_sql(vid)).df()
           .sort_values("clip_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "tl", "tr", "bl", "br"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_zorder_range_counts_oracle(ray_session, con):
    """Morton quadtree range decomposition vs the rectangle predicate
    replay on the quantized axes at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _zorder_range_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["zorder_range_counts"](SF).to_pandas()
           .sort_values("query_id").reset_index(drop=True))
    exp = (con.execute(_zorder_range_sql(img)).df()
           .sort_values("query_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("query_id", "n_tiles"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_image_haar_bands_oracle(ray_session, con):
    """Block-tensor band energies vs the per-pixel python replay at
    sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _image_haar_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["image_haar_bands"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_image_haar_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "lh_energy", "hl_energy", "hh_energy"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_walsh_bands_oracle(ray_session, con):
    """Hadamard matmul band energies vs the python-int frame replay
    at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_walsh_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_walsh_bands"](SF).to_pandas()
           .sort_values(["track_id", "band"]).reset_index(drop=True))
    exp = (con.execute(_audio_walsh_sql(aud)).df()
           .sort_values(["track_id", "band"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "band", "energy"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_best_split_daily_oracle(ray_session, con):
    """Prefix-sum Fraction argmax vs the brute-force segment-sum
    replay at sf0.001."""
    from battery.queries import QUERIES, _best_split_sql

    got = QUERIES["best_split_daily"](SF).reset_index(drop=True)
    exp = con.execute(_best_split_sql(SF)).df()
    assert len(got) == len(exp) == 1
    for c in ("split_day", "n_l", "n_r", "sum_l", "sum_r"):
        assert int(got[c][0]) == int(exp[c][0]), c


def test_largest_blob_images_oracle(ray_session, con):
    """Min-relaxation labelling + bincount vs the scalar flood-fill
    replay at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _largest_blob_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["largest_blob_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_largest_blob_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "max_blob", "second_blob"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_containment_pairs_docs_oracle(ray_session, con):
    """Vectorized shingle-set intersections vs the scalar shingle
    replay at sf0.001."""
    from battery.queries import QUERIES, _containment_sql

    got = (QUERIES["containment_pairs_docs"](SF).to_pandas()
           .sort_values(["a", "b"]).reset_index(drop=True))
    exp = (con.execute(_containment_sql(SF)).df()
           .sort_values(["a", "b"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("a", "b", "inter", "na", "nb"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_video_temporal_haar_oracle(ray_session, con):
    """Frame-ledger index algebra vs the python-int replay at
    sf0.001."""
    from battery.queries import (QUERIES, _video_dir_for,
                                 _video_thaar_sql)

    vid = _video_dir_for(SF)
    got = (QUERIES["video_temporal_haar"](SF).to_pandas()
           .sort_values("clip_id").reset_index(drop=True))
    exp = (con.execute(_video_thaar_sql(vid)).df()
           .sort_values("clip_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("clip_id", "tv", "d1_energy"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_sig_agreement_pairs_docs_oracle(ray_session, con):
    """Vectorized flat-segment signer vs the scalar fold61 signature
    replay at sf0.001."""
    from battery.queries import QUERIES, _sig_agreement_sql

    got = (QUERIES["sig_agreement_pairs_docs"](SF).to_pandas()
           .sort_values(["a", "b"]).reset_index(drop=True))
    exp = (con.execute(_sig_agreement_sql(SF)).df()
           .sort_values(["a", "b"]).reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("a", "b", "n_agree"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_gray_modes_images_oracle(ray_session, con):
    """Histogram-tensor double argmax vs the per-pixel python replay
    at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _gray_modes_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["gray_modes_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_gray_modes_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "mode1", "count1", "mode2", "count2"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_audio_peak_tracks_oracle(ray_session, con):
    """Stacked |abs| argmax vs the python scan replay at sf0.001."""
    from battery.queries import (QUERIES, _audio_dir_for,
                                 _audio_peak_sql)

    aud = _audio_dir_for(SF)
    got = (QUERIES["audio_peak_tracks"](SF).to_pandas()
           .sort_values("track_id").reset_index(drop=True))
    exp = (con.execute(_audio_peak_sql(aud)).df()
           .sort_values("track_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("track_id", "peak", "peak_idx", "crest_num"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_quadtree_depth_images_oracle(ray_session, con):
    """Level-synchronous tensor decomposition vs the recursive python
    replay at sf0.001."""
    from battery.queries import (QUERIES, _image_dir_for,
                                 _quadtree_sql)

    img = _image_dir_for(SF)
    got = (QUERIES["quadtree_depth_images"](SF).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    exp = (con.execute(_quadtree_sql(img)).df()
           .sort_values("image_id").reset_index(drop=True))
    assert len(got) == len(exp) > 0
    for c in ("image_id", "n_leaves", "max_depth"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
