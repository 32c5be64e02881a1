"""End-to-end format tests over the caltrain fixture: golden snapshots
(the reference's test strategy — examples/*.geojson are its de-facto
fixtures, SURVEY §5) plus property-based invariants."""

import json
from pathlib import Path

import numpy as np
import pytest

from geotile.config import PipelineConfig
from geotile.formats import FORMATS, get_geojson_by_format
from geotile.geom.pip import points_in_polygon, signed_area
from geotile.ops.gtfs import GtfsContext

GOLDEN_DIR = Path(__file__).parent / "goldens" / "agency"
ALL_FORMATS = sorted(FORMATS)


@pytest.fixture(scope="module")
def ctx(ray_session, caltrain_dir):
    return GtfsContext(caltrain_dir)


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(coordinate_precision=5)


def _build(ctx, config, fmt, query=None):
    cfg = PipelineConfig(
        coordinate_precision=config.coordinate_precision, output_format=fmt
    )
    return get_geojson_by_format(ctx, cfg, query or {})


class TestGoldens:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_agency_matches_golden(self, ctx, config, fmt):
        from geotile.geojson import dumps

        got = dumps(_build(ctx, config, fmt))
        expect = (GOLDEN_DIR / f"{fmt}.geojson").read_text()
        assert got == expect, f"{fmt} output drifted from committed golden"

    def test_pipeline_runs_without_ray(self, caltrain_dir, tmp_path):
        """All nine formats through run_pipeline in a fresh interpreter:
        byte-equal to the goldens, and Ray never started — the feed side
        is in-process Arrow, so no Ray Data job (and its per-job start
        cost) comes back unnoticed."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import ray\n"
            "from geotile.config import AgencyConfig, PipelineConfig\n"
            "from geotile.formats import FORMATS\n"
            "from geotile.pipeline import run_pipeline\n"
            "feed, out, golden = map(Path, sys.argv[1:])\n"
            "for fmt in sorted(FORMATS):\n"
            "    run_pipeline(PipelineConfig(\n"
            "        agencies=[AgencyConfig(agency_key='ct', path=str(feed))],\n"
            "        coordinate_precision=5, output_format=fmt, verbose=False,\n"
            "        output_path=str(out / fmt)))\n"
            "    got = (out / fmt / 'ct.geojson').read_bytes()\n"
            "    assert got == (golden / f'{fmt}.geojson').read_bytes(), fmt\n"
            "assert not ray.is_initialized(), 'a Ray job ran on the feed side'\n"
        )
        root = Path(__file__).resolve().parents[1]
        res = subprocess.run(
            [sys.executable, "-c", script, str(caltrain_dir), str(tmp_path), str(GOLDEN_DIR)],
            cwd=root, capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr


class TestRouteGoldens:
    def test_route_output_matches_goldens(self, ray_session, caltrain_dir, tmp_path):
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            coordinate_precision=5,
            output_format="lines",
            output_type="route",
            output_path=str(tmp_path / "out"),
        )
        (out,) = run_pipeline(cfg)
        golden_dir = Path(__file__).parent / "goldens" / "route"
        got = {p.name: p.read_text() for p in Path(out).glob("*.geojson")}
        expect = {p.name: p.read_text() for p in golden_dir.glob("*.geojson")}
        assert got.keys() == expect.keys()
        for name in expect:
            assert got[name] == expect[name], f"{name} drifted from golden"


class TestShapeGoldens:
    def test_shape_output_matches_goldens(self, ray_session, caltrain_dir, tmp_path):
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            coordinate_precision=5,
            output_format="lines",
            output_type="shape",
            output_path=str(tmp_path / "out"),
        )
        (out,) = run_pipeline(cfg)
        golden_dir = Path(__file__).parent / "goldens" / "shape"
        got = {p.name: p.read_text() for p in Path(out).glob("*.geojson")}
        expect = {p.name: p.read_text() for p in golden_dir.glob("*.geojson")}
        assert got.keys() == expect.keys()
        for name in expect:
            assert got[name] == expect[name], f"{name} drifted from golden"


class TestSemantics:
    def test_stops_drops_unused_keeps_parents(self, ctx, config):
        gj = _build(ctx, config, "stops")
        ids = [f["properties"]["stop_id"] for f in gj["features"]]
        assert "unused0" not in ids
        assert "parentA" in ids and "parentB" in ids
        parent = next(f for f in gj["features"] if f["properties"]["stop_id"] == "parentA")
        assert parent["properties"]["routes"] == {}  # the '{}' quirk
        used = next(f for f in gj["features"] if f["properties"]["stop_id"] == "st00")
        routes = used["properties"]["routes"]
        assert isinstance(routes, list) and len(routes) >= 1
        assert routes[0]["route_color"].startswith("#") or "route_color" not in routes[0]

    def test_null_properties_stripped(self, ctx, config):
        gj = _build(ctx, config, "stops")
        for f in gj["features"]:
            assert all(v is not None for v in f["properties"].values())
        # L2 has null colors → keys absent on its line feature
        lines = _build(ctx, config, "lines")
        l2 = next(f for f in lines["features"] if f["properties"]["route_id"] == "L2")
        assert "route_color" not in l2["properties"]

    def test_lines_shapes_only_in_agency_mode(self, ctx, config):
        """Reference: if ANY shapes match, only shape-based features are
        returned (geojson-utils.ts:210-215) — shape-less L3 is absent."""
        gj = _build(ctx, config, "lines")
        rids = {f["properties"]["route_id"] for f in gj["features"]}
        assert rids == {"L1", "L2"}
        assert all(f["geometry"]["type"] == "MultiLineString" for f in gj["features"])

    def test_route_query_fallback_toposort(self, ctx, config):
        """L3 has no shapes → LineString through ordered stops."""
        gj = _build(ctx, config, "lines", {"route_id": "L3", "direction_id": 0})
        assert gj is not None
        assert all(f["geometry"]["type"] == "LineString" for f in gj["features"])
        assert len(gj["features"][0]["geometry"]["coordinates"]) >= 6

    def test_missing_shape_id_returns_none(self, ctx, config):
        assert _build(ctx, config, "lines", {"shape_id": "nope"}) is None

    def test_envelope_contains_all_lines(self, ctx, config):
        env = _build(ctx, config, "envelope")
        assert env["type"] == "Feature"
        assert "bbox" in env
        w, s, e, n = env["bbox"]
        lines = _build(ctx, config, "lines")
        for f in lines["features"]:
            for ls in f["geometry"]["coordinates"]:
                a = np.asarray(ls)
                assert (a[:, 0] >= w - 1e-9).all() and (a[:, 0] <= e + 1e-9).all()
                assert (a[:, 1] >= s - 1e-9).all() and (a[:, 1] <= n + 1e-9).all()
        assert env["properties"] == {"agency_name": "CalTrain Synthetic"}

    def test_convex_contains_all_stops(self, ctx, config):
        cv = _build(ctx, config, "convex")
        ring = np.asarray(cv["geometry"]["coordinates"][0])
        stops = _build(ctx, config, "stops")
        pts = np.asarray([f["geometry"]["coordinates"] for f in stops["features"]])
        # rounding at precision 5 can push hull vertices ~1e-5 inward
        grown = ring.mean(axis=0) + (ring - ring.mean(axis=0)) * 1.001
        assert points_in_polygon(pts[:, 0], pts[:, 1], [grown]).all()

    def test_stops_buffer_rings(self, ctx, config):
        gj = _build(ctx, config, "stops-buffer")
        f = gj["features"][0]
        assert f["geometry"]["type"] == "Polygon"
        ring = np.asarray(f["geometry"]["coordinates"][0])
        assert 10 <= len(ring) <= 33  # 32-gon, possibly RDP-simplified
        assert signed_area(ring) > 0
        # full stop properties preserved (examples/stops-buffer.geojson)
        assert "stop_id" in f["properties"]

    def test_dissolved_covers_buffers(self, ctx, config):
        """Property check: every buffered stop centre lies inside some
        dissolved polygon; dissolved count < buffer count (merging)."""
        buf = _build(ctx, config, "stops-buffer")
        dis = _build(ctx, config, "stops-dissolved")
        assert 1 <= len(dis["features"]) < len(buf["features"])
        stops = _build(ctx, config, "stops")
        pts = np.asarray([f["geometry"]["coordinates"] for f in stops["features"]])
        covered = np.zeros(len(pts), dtype=bool)
        for f in dis["features"]:
            rings = [np.asarray(r) for r in f["geometry"]["coordinates"]]
            covered |= points_in_polygon(pts[:, 0], pts[:, 1], rings)
        assert covered.all()
        for f in dis["features"]:
            assert f["properties"] == {"agency_name": "CalTrain Synthetic"}

    def test_lines_dissolved_single_corridor(self, ctx, config):
        dis = _build(ctx, config, "lines-dissolved")
        assert len(dis["features"]) == 1  # one connected corridor
        assert dis["features"][0]["properties"] == {"agency_name": "CalTrain Synthetic"}

    def test_coordinate_precision_applied(self, ctx, config):
        gj = _build(ctx, config, "lines")
        for f in gj["features"]:
            for ls in f["geometry"]["coordinates"]:
                for x, y in ls:
                    assert round(x, 5) == x and round(y, 5) == y

    def test_no_precision_no_rounding(self, ctx, caltrain_dir):
        cfg = PipelineConfig(output_format="stops")  # precision None
        gj = get_geojson_by_format(ctx, cfg, {})
        xs = [f["geometry"]["coordinates"][0] for f in gj["features"]]
        assert any(round(x, 5) != x for x in xs)


class TestRouteQueries:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_all_formats_route_query(self, ctx, config, fmt):
        """Every format must handle a (route_id, direction_id) query —
        the outputType=route fan-out unit (reference §3.2)."""
        gj = _build(ctx, config, fmt, {"route_id": "L1", "direction_id": 0})
        assert gj is not None
        if gj.get("type") == "FeatureCollection":
            assert len(gj["features"]) >= 1
        else:
            assert gj["type"] == "Feature"

    @pytest.mark.parametrize("fmt", ["lines", "stops", "envelope"])
    def test_formats_shapeless_route_query(self, ctx, config, fmt):
        """The toposort-fallback route must also work across formats."""
        gj = _build(ctx, config, fmt, {"route_id": "L3", "direction_id": 0})
        assert gj is not None


class TestPipeline:
    def test_run_pipeline_agency(self, ray_session, caltrain_dir, tmp_path):
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            coordinate_precision=5,
            output_format="lines-and-stops",
            output_path=str(tmp_path / "out"),
        )
        paths = run_pipeline(cfg)
        out = Path(paths[0])
        gj = json.loads((out / "ct.geojson").read_text())
        assert gj["type"] == "FeatureCollection"
        assert len(gj["features"]) > 30
        log = (out / "log.txt").read_text()
        assert "Files: 1" in log

    def test_run_pipeline_route_filenames(self, ray_session, caltrain_dir, tmp_path):
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            coordinate_precision=5,
            output_format="lines",
            output_type="route",
            output_path=str(tmp_path / "out"),
        )
        paths = run_pipeline(cfg)
        names = sorted(p.name for p in Path(paths[0]).glob("*.geojson"))
        # agency_id prefix disambiguates the duplicate L3 route
        assert any(n.startswith("CT_L3_") for n in names)
        assert any(n.startswith("CT2_L3_") for n in names)
        assert any(n.startswith("CT_L1_") for n in names)

    def test_run_pipeline_shape(self, ray_session, caltrain_dir, tmp_path):
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            coordinate_precision=5,
            output_format="lines",
            output_type="shape",
            output_path=str(tmp_path / "out"),
        )
        paths = run_pipeline(cfg)
        names = sorted(p.name for p in Path(paths[0]).glob("*.geojson"))
        assert "shp_L1_0.geojson" in names
        assert len(names) == 4

    def test_zip_output(self, ray_session, caltrain_dir, tmp_path):
        import zipfile

        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            output_format="envelope",
            output_path=str(tmp_path / "out"),
            zip_output=True,
        )
        (zip_path,) = run_pipeline(cfg)
        with zipfile.ZipFile(zip_path) as zf:
            assert any(n.endswith("ct.geojson") for n in zf.namelist())

    def test_config_json_file(self, ray_session, caltrain_dir, tmp_path):
        """S1: reference-style config.json drives the pipeline."""
        import json as _json

        from geotile.config import PipelineConfig
        from geotile.pipeline import run_pipeline

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(_json.dumps({
            "agencies": [{"agencyKey": "cfgct", "path": str(caltrain_dir)}],
            "outputFormat": "envelope",
            "outputType": "agency",
            "coordinatePrecision": 5,
            "bufferSizeMeters": 400,
            "outputPath": str(tmp_path / "out"),
        }))
        cfg = PipelineConfig.from_json(cfg_path)
        assert cfg.agencies[0].agency_key == "cfgct"
        assert cfg.coordinate_precision == 5
        (out,) = run_pipeline(cfg)
        assert (Path(out) / "cfgct.geojson").exists()

    def test_multi_agency_run(self, ray_session, caltrain_dir, tmp_path, monkeypatch):
        """Reference getOutputPath semantics: with no outputPath each
        agency writes to geojson/<sanitize(key)>; a VERBATIM outputPath
        is shared by all agencies (overwrite clears between them — the
        reference's own footgun, mirrored for parity)."""
        from geotile.config import AgencyConfig
        from geotile.pipeline import run_pipeline

        monkeypatch.chdir(tmp_path)
        cfg = PipelineConfig(
            agencies=[
                AgencyConfig(agency_key="east", path=str(caltrain_dir)),
                AgencyConfig(agency_key="west", path=str(caltrain_dir)),
            ],
            output_format="envelope",
        )
        paths = run_pipeline(cfg)
        assert len(paths) == 2
        assert [Path(p).resolve() for p in paths] == [
            tmp_path / "geojson" / "east", tmp_path / "geojson" / "west"
        ]
        for key, p in zip(("east", "west"), paths):
            assert (Path(p) / f"{key}.geojson").exists()
            assert (Path(p) / "log.txt").exists()
        # verbatim outputPath: both agencies share the dir; last wins
        cfg2 = PipelineConfig(
            agencies=[
                AgencyConfig(agency_key="east", path=str(caltrain_dir)),
                AgencyConfig(agency_key="west", path=str(caltrain_dir)),
            ],
            output_format="envelope",
            output_path=str(tmp_path / "out"),
        )
        p1, p2 = run_pipeline(cfg2)
        assert p1 == p2 == str(tmp_path / "out")
        assert (Path(p2) / "west.geojson").exists()
        assert not (Path(p2) / "east.geojson").exists()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="outputFormat"):
            PipelineConfig(output_format="bogus")
        with pytest.raises(ValueError, match="outputType"):
            PipelineConfig(output_type="bogus")

    def test_overwrite_false_raises(self, ray_session, caltrain_dir, tmp_path):
        from geotile.pipeline import prep_directory

        d = tmp_path / "busy"
        d.mkdir()
        (d / "x.txt").write_text("hi")
        with pytest.raises(FileExistsError):
            prep_directory(d, overwrite=False)


class TestLogParity:
    def test_stats_table_and_progress(self, ray_session, caltrain_dir, tmp_path, capsys):
        """Reference logStats / progressBar parity: table printed per
        agency when verbose without a logFunction; hidden otherwise."""
        from geotile.config import AgencyConfig
        from geotile.pipeline import log_stats_table, progress_bar, run_pipeline

        cfg = PipelineConfig(
            agencies=[AgencyConfig(agency_key="ct", path=str(caltrain_dir))],
            output_format="lines",
            output_type="route",
            output_path=str(tmp_path / "out"),
        )
        run_pipeline(cfg)
        out = capsys.readouterr().out
        assert "GeoJSON Files" in out and "Routes" in out  # stats table
        assert "{bar}" not in out and "=" in out           # rendered bar
        # custom logFunction hides the table (log-utils.ts:113-115)
        seen: list[str] = []
        cfg2 = PipelineConfig(output_format="lines", log_function=seen.append)
        log_stats_table(cfg2, {"routes": 1})
        assert seen == []
        # verbose=False is a noop bar
        bar = progress_bar("x {value}/{total}", 3, PipelineConfig(verbose=False))
        bar.increment()  # must not raise or print
