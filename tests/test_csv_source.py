"""CSV / zip GTFS source parity: the reference's real input form
(GTFS .txt files in a zip) must produce byte-identical output to the
parquet path."""

import json
from pathlib import Path

import pytest

from geotile.config import PipelineConfig
from geotile.formats import get_geojson_by_format
from geotile.geojson import dumps
from geotile.ops.gtfs import GtfsContext


@pytest.fixture(scope="module")
def csv_dir(caltrain_dir, tmp_path_factory):
    from geotile.synth import export_feed_csv

    return export_feed_csv(caltrain_dir, tmp_path_factory.mktemp("csv") / "feed")


@pytest.fixture(scope="module")
def zip_path(caltrain_dir, tmp_path_factory):
    from geotile.synth import export_feed_csv

    return export_feed_csv(caltrain_dir, tmp_path_factory.mktemp("zip") / "feed.zip")


GOLDEN_DIR = Path(__file__).parent / "goldens" / "agency"


@pytest.mark.parametrize("fmt", ["stops", "lines", "envelope", "stops-buffer"])
def test_csv_source_matches_parquet_goldens(ray_session, csv_dir, fmt):
    ctx = GtfsContext(csv_dir)
    cfg = PipelineConfig(coordinate_precision=5, output_format=fmt)
    got = dumps(get_geojson_by_format(ctx, cfg, {}))
    assert got == (GOLDEN_DIR / f"{fmt}.geojson").read_text()


def test_zip_source_matches_parquet_goldens(ray_session, zip_path, monkeypatch, tmp_path):
    monkeypatch.setenv("GEOTILE_CACHE", str(tmp_path / "cache"))
    ctx = GtfsContext(zip_path)
    cfg = PipelineConfig(coordinate_precision=5, output_format="lines")
    got = dumps(get_geojson_by_format(ctx, cfg, {}))
    assert got == (GOLDEN_DIR / "lines.geojson").read_text()
    # second open reuses the extracted cache (skipImport analog)
    ctx2 = GtfsContext(zip_path)
    assert ctx2.feed_dir == ctx.feed_dir


def test_csv_fact_tables_stream(ray_session, csv_dir):
    ctx = GtfsContext(csv_dir)
    assert ctx.stop_times().num_rows > 0
    assert ctx.shapes().num_rows > 0
    assert ctx.has_shapes_file()


def test_url_config_with_injected_fetcher(ray_session, zip_path, tmp_path):
    """agency.url end-to-end offline: a local-file fetcher stands in for
    the reference's downloadAndUnzip (gtfs-to-geojson.ts:287-295)."""
    from geotile.config import AgencyConfig
    from geotile.pipeline import run_pipeline

    fetched = []

    def fetcher(url, agency_key):
        fetched.append((url, agency_key))
        return str(zip_path)

    cfg = PipelineConfig(
        agencies=[AgencyConfig(agency_key="ct", url="https://example.com/feed.zip")],
        output_format="envelope",
        output_path=str(tmp_path / "out"),
        coordinate_precision=5,
        verbose=False,
        fetcher=fetcher,
    )
    paths = run_pipeline(cfg)
    assert fetched == [("https://example.com/feed.zip", "ct")]
    out = json.loads((Path(paths[0]) / "ct.geojson").read_text())
    assert out["type"] == "Feature"
    assert out["geometry"]["type"] == "Polygon"


def test_url_config_without_fetcher_raises(ray_session, tmp_path):
    from geotile.config import AgencyConfig
    from geotile.pipeline import run_pipeline

    cfg = PipelineConfig(
        agencies=[AgencyConfig(agency_key="ct", url="https://example.com/feed.zip")],
        output_path=str(tmp_path / "out"),
        verbose=False,
    )
    with pytest.raises(NotImplementedError, match="fetcher"):
        run_pipeline(cfg)
