"""Per-partition checkpoint / resume / lineage (north_rule requirement).

The checkpoint unit is ONE input shard (a parquet part file — synth
writes the image table that way, and any Lance/parquet dataset at scale
is already sharded). Its output lives under ``out_dir/part=<stem>/``
next to a manifest:

    {partition, input_file, input_bytes, input_fingerprint,
     output_rows, output_bytes, lineage: [stage names], elapsed_s}

One run is ONE Ray Data job over every unfinished shard (at most
``max_partitions`` of them): a single ``read_parquet`` with
``include_paths=True``, so each row carries its shard in Ray Data's
``path`` column through ``pipeline_fn`` (which must therefore be
row-local and keep ``path``). A fused writer stage groups each block's
rows by that column — per row: one read block can span several files —
writes each group to ``out_dir/.tmp-<stem>/<uuid>.parquet`` and returns
one ``(path, file, rows, bytes)`` row per file. After the job the
driver commits each shard (``_commit_shard``): it deletes every file the
job did not report (the leftovers of a retried task), renames
``.tmp-<stem>`` to ``part=<stem>`` and then writes the manifest
atomically (temp file + rename). ``elapsed_s`` is the wall time of the
job that wrote the shard.

Crash semantics: a crash before a shard's commit leaves no ``part=``
directory for it, so it reruns on resume; a crash between the rename
and the manifest write leaves a ``part=`` directory without a manifest,
which the next run deletes and reruns. Resume skips every partition
whose manifest parses and whose input fingerprint still matches — no
recomputation (tests/test_join.py::TestCheckpoint). The commit is
rename-atomic but not fsynced: a power loss can lose committed shards,
never mix old and new output. Manifests double as the per-partition
row/byte metrics sink (reference's log.txt analog, SURVEY §2.1 S6).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

_WRITTEN = pa.schema([("path", pa.string()), ("file", pa.string()),
                      ("rows", pa.int64()), ("bytes", pa.int64())])


def _fingerprint(p: Path) -> str:
    # nanosecond mtime: a shard rewritten with identical size within the
    # same second must still read as changed (ADVICE r1)
    st = p.stat()
    return f"{st.st_size}:{st.st_mtime_ns}"


def manifest_path(out_dir: Path, stem: str) -> Path:
    return Path(out_dir) / f"part={stem}" / "_MANIFEST.json"


def completed_partitions(out_dir: str | Path, input_parts: list[Path]) -> set[str]:
    done = set()
    for p in input_parts:
        mp = manifest_path(Path(out_dir), p.stem)
        if mp.exists():
            try:
                m = json.loads(mp.read_text())
            except json.JSONDecodeError:
                continue
            if isinstance(m, dict) and m.get("input_fingerprint") == _fingerprint(p):
                done.add(p.stem)
    return done


def _write_by_shard(batch: pa.Table, out_dir: str) -> pa.Table:
    """Writer stage: one parquet file per shard present in the block,
    ``path`` dropped. Rows without a shard path come back as one
    ``path=None`` row so the driver can reject the pipeline."""
    if "path" not in batch.column_names or batch["path"].null_count:
        return pa.Table.from_pylist([{"path": None, "file": None, "rows": batch.num_rows,
                                      "bytes": 0}], schema=_WRITTEN)
    enc = batch["path"].combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy()
    data = batch.drop_columns(["path"])
    out = []
    for code, path in enumerate(enc.dictionary.to_pylist()):
        rows = np.flatnonzero(codes == code)
        group = data if len(rows) == data.num_rows else data.take(pa.array(rows))
        f = os.path.join(out_dir, f".tmp-{Path(path).stem}", f"{uuid.uuid4().hex}.parquet")
        pq.write_table(group, f)
        out.append({"path": path, "file": os.path.basename(f), "rows": group.num_rows,
                    "bytes": os.path.getsize(f)})
    return pa.Table.from_pylist(out, schema=_WRITTEN)


def _commit_shard(out_dir: Path, stem: str, files: set[str], manifest: dict) -> None:
    """Keep only the files the job reported, rename ``.tmp-<stem>`` to
    ``part=<stem>``, then write the manifest via temp file + rename."""
    tmp_dir = out_dir / f".tmp-{stem}"
    for f in tmp_dir.iterdir():
        if f.name not in files:
            f.unlink()
    tmp_dir.rename(out_dir / f"part={stem}")
    mp = manifest_path(out_dir, stem)
    mp_tmp = mp.with_suffix(".tmp")
    mp_tmp.write_text(json.dumps(manifest, sort_keys=True))
    mp_tmp.rename(mp)


def run_checkpointed(
    input_dir: str | Path,
    out_dir: str | Path,
    pipeline_fn: Callable[[rd.Dataset], rd.Dataset],
    columns: list[str] | None = None,
    lineage: list[str] | None = None,
    max_partitions: int | None = None,
) -> dict:
    """Run ``pipeline_fn`` over every unfinished input shard in one job
    with skip-if-done semantics. ``pipeline_fn`` must be row-local and
    keep the ``path`` column the read adds. Returns run stats
    {partitions_total, partitions_skipped, partitions_run, rows, bytes}.

    ``max_partitions`` runs only the first N unfinished shards — used by
    tests to simulate a killed run.
    """
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = sorted(input_dir.glob("*.parquet"))
    if not parts:
        raise FileNotFoundError(f"no parquet shards under {input_dir}")
    done = completed_partitions(out_dir, parts)
    todo = [p for p in parts if p.stem not in done][:max_partitions]
    stats = {
        "partitions_total": len(parts),
        "partitions_skipped": len(done),
        "partitions_run": len(todo),
        "rows": 0,
        "bytes": 0,
    }
    if not todo:
        return stats
    if columns is None or "path" in columns:
        for p in todo:
            if "path" in pq.read_schema(p).names:
                raise ValueError(f"input shard {p} has its own 'path' column; rows are "
                                 "routed to their shard by the 'path' column the read adds")
    t0 = time.time()
    # fingerprint BEFORE the (lazy) read executes: if a shard is
    # rewritten mid-run the stamp mismatches on the next scan and the
    # partition reruns — stamping after execution would record the NEW
    # file against the OLD output and freeze it as done
    stamps = {str(p): (_fingerprint(p), p.stat().st_size) for p in todo}
    for p in todo:
        shutil.rmtree(out_dir / f"part={p.stem}", ignore_errors=True)  # stale, no valid manifest
        shutil.rmtree(out_dir / f".tmp-{p.stem}", ignore_errors=True)
        (out_dir / f".tmp-{p.stem}").mkdir()  # zero-row shards still checkpoint
    ds = rd.read_parquet(list(stamps), columns=columns, include_paths=True)
    written = pipeline_fn(ds).map_batches(
        _write_by_shard, batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        fn_kwargs={"out_dir": str(out_dir.absolute())},
    ).take_all()
    elapsed = round(time.time() - t0, 3)
    by_shard: dict[str, list[dict]] = {path: [] for path in stamps}
    for w in written:
        if w["path"] not in by_shard:
            for p in todo:
                shutil.rmtree(out_dir / f".tmp-{p.stem}", ignore_errors=True)
            raise ValueError("pipeline_fn output rows must keep the 'path' column of their "
                             "input shard: the pipeline has to be row-local and keep 'path'")
        by_shard[w["path"]].append(w)
    for path, mine in by_shard.items():
        in_fp, in_bytes = stamps[path]
        out_rows = sum(w["rows"] for w in mine)
        out_bytes = sum(w["bytes"] for w in mine)
        stem = Path(path).stem
        _commit_shard(out_dir, stem, {w["file"] for w in mine}, {
            "partition": stem,
            "input_file": path,
            "input_bytes": in_bytes,
            "input_fingerprint": in_fp,
            "output_rows": out_rows,
            "output_bytes": out_bytes,
            "lineage": lineage or ["read_parquet", "pipeline", "write_parquet"],
            "elapsed_s": elapsed,
        })
        stats["rows"] += out_rows
        stats["bytes"] += out_bytes
    return stats


def read_manifests(out_dir: str | Path) -> list[dict]:
    return [
        json.loads(p.read_text())
        for p in sorted(Path(out_dir).glob("part=*/_MANIFEST.json"))
    ]
