"""Driver-contract query battery (CORRECTNESS gate).

Split into ordered per-family modules; this package merges their
namespaces so ``from battery.queries import <name>`` resolves any
query, helper or constant exactly as the former single module did.
An import-time assertion rejects a top-level name defined in two
modules (the round-3 `_cm_sql` shadowing bug class).
"""

from . import (  # noqa: E402
    b01_core,
    b02_events,
    b03_misc,
    b04_misc,
    b05_misc,
    b06_misc,
    b07_misc,
    b08_misc,
    b09_misc,
    b10_relational,
    b11_relational,
    b12_oracle_entry,
)

_PARTS = (b01_core, b02_events, b03_misc, b04_misc, b05_misc, b06_misc, b07_misc, b08_misc, b09_misc, b10_relational, b11_relational, b12_oracle_entry)

_seen: dict = {}
for _m in _PARTS:
    for _n in _m.__defined__:
        if _n in _seen:
            raise AssertionError(
                f"duplicate top-level name {_n!r} defined in both "
                f"{_seen[_n].__name__} and {_m.__name__} — rename one "
                "(shadowing corrupted the cm_user_counts oracle in r3)")
        _seen[_n] = _m
for _m in _PARTS:
    globals().update({k: v for k, v in vars(_m).items()
                      if not k.startswith("__")})
del _m, _n, _seen


# ---------------------------------------------------------------------------
# Driver sample ordering: the correctness driver verifies the FIRST ~50
# queries() keys each round.  Slots 1-16 stay the geometry/north-star
# head (first-party green in r4); slots 17-50 ROTATE each round to
# queries with no prior driver row (VERDICT r4 #5) so first-party
# coverage accumulates instead of re-proving the same 50 — round 5
# rotates in every query touched this round (the de-materialized
# embedding audits, the pair_dedup consumers, the rebuilt
# watermark/window aggregates) plus the never-sampled audio / video /
# graph / sketch / image / tile families.
_PRIORITY = (
    # --- standing geometry / north-star head (16) ---
    "gtfs_stop_features", "gtfs_line_features", "gtfs_envelope",
    "gtfs_convex_hull", "gtfs_buffer_stats", "gtfs_dissolved_stats",
    "tile_dissolve", "tile_assignments",
    "minhash_pairs_docs", "simhash_docs", "simhash_pairs_docs",
    "fingerprint_docs", "ivf_ann", "hll_distinct_users",
    "cm_user_counts", "cm_heavy_hitters_audit",
    # --- round-5 rotation: touched this round (8) ---
    "triplet_violation_labels", "range_density_labels",
    "nn1_accuracy_labels", "closest_pair_tiles",
    "phash_hubness_images", "watermark_late_events",
    "containment_pairs_docs", "sig_agreement_pairs_docs",
    # --- never-sampled families (26) ---
    "triangle_dups", "bfs_dups", "kcore_dups", "two_hop_dups",
    "image_dup_clusters",
    "audio_frame_energy", "audio_onsets_tracks", "audio_walsh_bands",
    "audio_loudest_window",
    "video_flicker_parts", "video_quadrant_motion",
    "video_temporal_haar",
    "bloom_semi_join_lineitem", "simhash_bit_bias",
    "image_glcm_energy", "image_patch_sums", "otsu_threshold_images",
    "largest_blob_images",
    "tile_pyramid_counts", "quadkey_occupancy", "zorder_range_counts",
    "nation_pair_revenue", "upsert_orders", "llm_corpus_prep",
    "pq_codes_embeddings", "label_centroids",
)
if not set(_PRIORITY) <= set(QUERIES):
    raise AssertionError(
        f"_PRIORITY keys missing from QUERIES: "
        f"{sorted(set(_PRIORITY) - set(QUERIES))}")
QUERIES = {k: QUERIES[k] for k in _PRIORITY} | {
    k: v for k, v in QUERIES.items() if k not in _PRIORITY}
