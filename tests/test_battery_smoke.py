"""Adversarial-input smoke for the whole driver battery: every
table-backed query must RUN (no exception, result retrievable) on a
tiny edge-case dataset — empty texts, absent event types, users with a
single event, customers without orders, duplicate docs. Two real bugs
of this shape were found this round (object-dtype empty frames tripping
Ray's size estimator; zero-COLUMN empty blocks from empty groupby
partitions breaking pa.concat_tables), so the battery is fuzzed as a
unit. Correctness on real distributions is the driver gate's job; this
test only asserts the engine never crashes or loses its schema on
degenerate partitions."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# queries over synthesized tile/image/GTFS fixtures are excluded: they
# synthesize per-sf caches (expensive) and have no degenerate-table
# surface — their inputs are generated, not read from the sf tables
_SKIP_PREFIXES = ("tile_", "image_", "gtfs_", "route_feature", "phash_")


@pytest.fixture(scope="module")
def edge_sf_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("edge_sf")
    src = "/root/testdata/sf0.001"

    # documents: empty text, single token, exact dup pair, double-space,
    # unicode, long-ish doc — 8 rows
    long = " ".join(f"tok{i % 9}" for i in range(40))
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(8, dtype=np.int64),
            "text": [
                "",
                "one",
                "dup dup dup dup dup dup dup dup dup",
                "dup dup dup dup dup dup dup dup dup",
                "alpha  beta",
                "héllo wörld 你好",
                long,
                "a b",
            ],
            "lang": ["en", "en", "es", "es", "fr", "zh", "en", "de"],
            "source": ["s0", "s0", "s1", "s1", "s2", "s2", "s0", "s3"],
        }
    )
    docs["n_chars"] = docs.text.str.len().astype(np.int64)
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   d / "documents.parquet")

    # events: only 'click' and 'view' exist (purchase/signup/error
    # ABSENT); one single-event user; heavy ts ties — 12 rows
    ev = pd.DataFrame(
        {
            "event_id": np.arange(12, dtype=np.int64),
            "ts": pd.to_datetime([1, 1, 1, 2, 2, 3, 3, 3, 4, 5, 5, 6], unit="s"),
            "user_id": np.array([1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 1, 1],
                                dtype=np.int64),
            "event_type": ["click", "view", "click", "view", "click", "click",
                           "view", "click", "view", "click", "view", "click"],
            "value": np.array([0.0, -5.25, 250.75, 1.0, 300.0, 2.5,
                               0.0001, 9.99, 201.0, 7.0, 3.0, 4.0]),
            "props": ['{"k":1}'] * 12,
        }
    )
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   d / "events.parquet")

    # embeddings: 8 tiny vectors (dim from the real table)
    real = pq.read_table(f"{src}/embeddings.parquet").slice(0, 8)
    pq.write_table(real, d / "embeddings.parquet")

    # relational tables: small slices of the real sf0.001 data, plus a
    # customer guaranteed to have no orders (fresh custkey)
    for t in ("lineitem", "part", "supplier", "nation", "region"):
        pq.write_table(pq.read_table(f"{src}/{t}.parquet").slice(0, 200),
                       d / f"{t}.parquet")
    orders = pq.read_table(f"{src}/orders.parquet").slice(0, 120)
    pq.write_table(orders, d / "orders.parquet")
    cust = pq.read_table(f"{src}/customer.parquet").slice(0, 60).to_pandas()
    lonely = cust.iloc[[0]].copy()
    lonely["c_custkey"] = int(cust.c_custkey.max()) + 100_000  # orderless
    cust = pd.concat([cust, lonely])
    pq.write_table(pa.Table.from_pandas(cust, preserve_index=False),
                   d / "customer.parquet")
    return str(d)


class TestDegenerateGeometryInputs:
    """Empty dimension sides must produce empty results, not crashes;
    k larger than the route count must truncate ranks."""

    @pytest.fixture(scope="class")
    def img_dir(self, tmp_path_factory):
        from geotile.synth import make_image_table

        d = tmp_path_factory.mktemp("imgs") / "img"
        make_image_table(200, d, rows_per_file=100)
        return d

    def test_spatial_join_empty_index(self, ray_session, img_dir):
        from geotile.ops.join import build_route_index, spatial_join
        from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

        ds = read_image_table(img_dir, columns=JOIN_COLUMNS)
        assert spatial_join(ds, build_route_index({})).count() == 0

    def test_knn_k_exceeds_route_count(self, ray_session, img_dir):
        from geotile.ops.join import knn_routes
        from geotile.ops.tiles import JOIN_COLUMNS, read_image_table

        ds = read_image_table(img_dir, columns=JOIN_COLUMNS)
        lines = {"r1": np.array([[-122.4, 37.7], [-122.3, 37.6]])}
        df = knn_routes(ds, lines, k=5).to_pandas()
        # one route available: exactly one rank-0 row per image
        assert len(df) == 200
        assert (df["rank"] == 0).all() and (df["route_id"] == "r1").all()


class TestCliQueryMode:
    def test_list_needs_no_ray(self):
        # --query list must answer without a Ray session (subprocess
        # with Ray blocked via a bogus address would fail if it tried)
        import json as _json
        import subprocess
        import sys as _sys

        out = subprocess.run(
            [_sys.executable, "-m", "geotile.cli", "--mode", "query",
             "--query", "list"],
            capture_output=True, text=True, timeout=120,
            cwd="/tmp", env={**__import__("os").environ,
                             "PYTHONPATH": "/root/repo"},
        )
        assert out.returncode == 0, out.stderr[-500:]
        names = _json.loads(out.stdout.strip().splitlines()[-1])["queries"]
        assert len(names) >= 73 and "pricing_summary" in names

    def test_runs_named_query(self):
        import json as _json
        import subprocess
        import sys as _sys

        out = subprocess.run(
            [_sys.executable, "-m", "geotile.cli", "--mode", "query",
             "--query", "pricing_summary", "--limit", "2",
             "--sf-dir", "/root/testdata/sf0.001", "--num-cpus", "4"],
            capture_output=True, text=True, timeout=300,
            cwd="/tmp", env={**__import__("os").environ,
                             "PYTHONPATH": "/root/repo"},
        )
        assert out.returncode == 0, out.stderr[-500:]
        lines = [l for l in out.stdout.strip().splitlines() if l.startswith("{")]
        tail = _json.loads(lines[-1])
        assert tail == {"query": "pricing_summary", "rows": 6, "shown": 2}


def test_every_table_query_runs_on_edge_data(ray_session, edge_sf_dir):
    from battery.queries import QUERIES

    failures = {}
    for name, fn in QUERIES.items():
        if name.startswith(_SKIP_PREFIXES):
            continue
        try:
            res = fn(edge_sf_dir)
            # force execution + retrieval; empty results are fine,
            # exceptions and un-retrievable blocks are not
            if hasattr(res, "to_pandas"):
                res.to_pandas()
            else:
                len(res)
        except Exception as e:  # noqa: BLE001 — collect all failures
            failures[name] = f"{type(e).__name__}: {e}"
    assert not failures, failures
