"""The engine's import boundary and its checkpointed join CLI.

``geotile`` is the engine; ``battery`` (the query battery) is built on
top of it. No engine module may load ``battery`` or the synthetic-data
generator ``geotile.synth``, and ``python -m geotile.cli --mode join``
runs without the battery.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_engine_modules_never_import_battery_or_synth():
    """Importing every ``geotile`` module but ``synth`` and ``cli``
    loads no ``battery`` module and not ``geotile.synth``."""
    script = (
        "import importlib, pkgutil, sys\n"
        "import geotile\n"
        "for m in pkgutil.walk_packages(geotile.__path__, 'geotile.'):\n"
        "    if m.name not in ('geotile.synth', 'geotile.cli'):\n"
        "        importlib.import_module(m.name)\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'geotile.synth' or m.split('.')[0] == 'battery')\n"
        "assert not loaded, loaded\n"
        "assert 'geotile.ops.join' in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_cli_join_mode(ray_session, tmp_path):
    """``--mode join`` writes the same rows and manifests as an in-test
    ``run_checkpointed(spatial_join)`` over the same shards, skips every
    partition on a second run, and never loads the battery."""
    from geotile.checkpoint import read_manifests, run_checkpointed
    from geotile.config import PipelineConfig
    from geotile.ops.gtfs import GtfsContext
    from geotile.ops.join import build_route_index, route_buffer_polygons, spatial_join
    from geotile.ops.tiles import JOIN_COLUMNS
    from geotile.synth import make_caltrain_fixture, make_image_table

    images = make_image_table(1200, tmp_path / "images", w=8, h=8, rows_per_file=400)
    ctx = GtfsContext(make_caltrain_fixture(tmp_path / "feed"))
    index = build_route_index(route_buffer_polygons(ctx, PipelineConfig(coordinate_precision=5)))
    want = run_checkpointed(images, tmp_path / "want", lambda ds: spatial_join(ds, index),
                            columns=JOIN_COLUMNS)
    assert want["partitions_run"] == 3 and want["rows"] > 0

    def cli():
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "geotile.cli", "--mode", "join",
             "--images", str(images), "--output", str(tmp_path / "got"), "--num-cpus", "2"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stderr[-4000:]
        battery = [ln for ln in res.stderr.splitlines()
                   if re.search(r"\|\s*battery(\.|$)", ln)]
        assert not battery, battery
        return json.loads(res.stdout.strip().splitlines()[-1])

    first = cli()
    assert (first["partitions_run"], first["rows"]) == (3, want["rows"])
    assert first["manifests"] == len(read_manifests(tmp_path / "want")) == 3
    got_rows = {m["partition"]: m["output_rows"] for m in read_manifests(tmp_path / "got")}
    assert got_rows == {m["partition"]: m["output_rows"]
                        for m in read_manifests(tmp_path / "want")}
    second = cli()
    assert (second["partitions_skipped"], second["partitions_run"], second["rows"]) == (3, 0, 0)
    assert second["manifests"] == 3
