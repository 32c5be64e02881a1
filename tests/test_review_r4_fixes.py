"""Pins for the round-4 deep-review fixes (join/checkpoint/pipeline)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def test_sanitize_truncates_bytes_not_chars():
    from geotile.pipeline import sanitize

    s = sanitize("漢" * 200)  # ~600 UTF-8 bytes, 200 chars
    assert len(s.encode("utf-8")) <= 255
    assert s and set(s) == {"漢"}  # no split codepoint, no mojibake


def test_sanitize_npm_parity_cases():
    from geotile.pipeline import sanitize

    assert sanitize("normal-name_1") == "normal-name_1"
    assert sanitize('a/b:c*d?e"f<g>h|i\\j') == "abcdefghij"
    assert sanitize("a\x85b\x9fc") == "abc"  # C1 controls stripped
    for reserved in ("CON", "con", "prn.txt", "COM1", "lpt9.geojson"):
        assert sanitize(reserved) == "", reserved
    assert sanitize("console") == "console"  # prefix, not reserved


def test_knn_zero_routes_returns_typed_empty(ray_session, image_table_dir):
    import ray.data as rd

    from geotile.ops.join import knn_routes
    from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

    ds = read_image_table(
        sorted(str(p) for p in image_table_dir.glob("*.parquet")),
        columns=JOIN_COLUMNS)
    out = knn_routes(ds, {}, k=3)
    tbl = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")]
        or [pa.table({"image_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int32()),
                      "route_id": pa.array([], pa.string()),
                      "dist_m": pa.array([], pa.float64())})])
    assert tbl.num_rows == 0
    assert set(tbl.column_names) >= {"rank", "route_id", "dist_m"}


def test_select_topk_tie_break_is_candidate_order():
    from geotile.ops.join import _group_topk

    # two groups of three candidates (kNN picks the top k per row from
    # its routes in index order), two tied at the k=2 boundary: the
    # winner must be the LOWER position (global route index)
    D = np.array([5.0, 3.0, 3.0,
                  1.0, 1.0, 1.0])
    top = _group_topk(D, np.array([0, 3]), 2) - np.array([[0], [3]])
    assert top[0].tolist() == [1, 2]     # ties 3.0/3.0 -> cols 1 then 2
    assert top[1].tolist() == [0, 1]     # all tied -> cols 0 then 1
    assert D[:3][top[0]].tolist() == [3.0, 3.0]


def test_checkpoint_fingerprint_precedes_execution(tmp_path, ray_session):
    """The manifest must stamp the INPUT AS IT WAS BEFORE the pipeline
    ran: rewriting the shard after the run must trigger a rerun."""
    import json

    import pyarrow.parquet as pq
    import ray.data as rd

    from geotile.checkpoint import run_checkpointed

    shard = tmp_path / "in" / "p0.parquet"
    shard.parent.mkdir()
    pq.write_table(pa.table({"x": [1, 2, 3]}), shard)
    out_dir = tmp_path / "out"

    stats1 = run_checkpointed(shard.parent, out_dir, lambda ds: ds)
    assert stats1["partitions_run"] == 1
    manifest = json.loads(
        (out_dir / "part=p0" / "_MANIFEST.json").read_text())

    # rewrite the shard (different content AND stat identity)
    import os
    import time

    time.sleep(0.01)
    pq.write_table(pa.table({"x": [9, 9, 9, 9]}), shard)
    os.utime(shard, ns=(1, 1))  # force a distinct mtime_ns

    stats2 = run_checkpointed(shard.parent, out_dir, lambda ds: ds)
    assert stats2["partitions_run"] == 1, (
        "modified shard must rerun, not be frozen as done")
    manifest2 = json.loads(
        (out_dir / "part=p0" / "_MANIFEST.json").read_text())
    assert manifest2["input_fingerprint"] != manifest["input_fingerprint"]
