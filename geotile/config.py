"""Pipeline configuration — parity with the reference ``Config`` type.

Reference: src/types/global_interfaces.ts:11-32 (fields) and
src/lib/gtfs-to-geojson.ts:31-44 (defaults).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

OUTPUT_FORMATS = (
    "envelope",
    "convex",
    "lines",
    "lines-buffer",
    "lines-dissolved",
    "lines-and-stops",
    "stops",
    "stops-buffer",
    "stops-dissolved",
)

OUTPUT_TYPES = ("agency", "route", "shape")


@dataclass
class AgencyConfig:
    """One agency entry (reference: global_interfaces.ts agencies[])."""

    agency_key: str
    path: str | None = None  # directory of parquet GTFS tables (CSV-zip in reference)
    url: str | None = None   # unsupported offline; kept for config parity
    exclude: list[str] = field(default_factory=list)


@dataclass
class PipelineConfig:
    """Engine config. Same keys/defaults as the reference
    (src/lib/gtfs-to-geojson.ts:31-44)."""

    agencies: list[AgencyConfig] = field(default_factory=list)
    buffer_size_meters: float = 400.0
    coordinate_precision: int | None = None
    output_type: str = "agency"
    output_format: str = "lines-and-stops"
    output_path: str | None = None
    overwrite_existing_files: bool = True
    start_date: str | None = None  # YYYYMMDD
    end_date: str | None = None
    verbose: bool = True
    zip_output: bool = False
    # injectable logger (reference config.logFunction,
    # src/lib/log-utils.ts:46-48); None → print when verbose
    log_function: object = None
    # injectable feed fetcher for agency.url entries (the reference's
    # downloadAndUnzip path, src/lib/gtfs-to-geojson.ts:287-295 /
    # file-utils.ts): callable (url: str, agency_key: str) -> local path
    # (feed dir or .zip). None → clear offline error when url configs
    # are used (no network in this environment).
    fetcher: object = None

    def log(self, msg: str) -> None:
        if self.log_function is not None:
            self.log_function(msg)
        elif self.verbose:
            print(msg)

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"Invalid outputFormat={self.output_format!r} "
                f"(reference throws at src/lib/gtfs-to-geojson.ts:110-112)"
            )
        if self.output_type not in OUTPUT_TYPES:
            raise ValueError(
                f"Invalid outputType={self.output_type!r} "
                f"(reference throws at src/lib/gtfs-to-geojson.ts:244-247)"
            )

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        """Reference: getConfig src/lib/file-utils.ts:17-42."""
        raw: dict[str, Any] = json.loads(Path(path).expanduser().read_text())
        agencies = [
            AgencyConfig(
                agency_key=a.get("agencyKey", a.get("agency_key", "")),
                path=a.get("path"),
                url=a.get("url"),
                exclude=a.get("exclude", []),
            )
            for a in raw.get("agencies", [])
        ]
        return cls(
            agencies=agencies,
            buffer_size_meters=raw.get("bufferSizeMeters", 400.0),
            coordinate_precision=raw.get("coordinatePrecision"),
            output_type=raw.get("outputType", "agency"),
            output_format=raw.get("outputFormat", "lines-and-stops"),
            output_path=raw.get("outputPath"),
            overwrite_existing_files=raw.get("overwriteExistingFiles", True),
            start_date=raw.get("startDate"),
            end_date=raw.get("endDate"),
            verbose=raw.get("verbose", True),
            zip_output=raw.get("zipOutput", False),
        )
