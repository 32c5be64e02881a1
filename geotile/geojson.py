"""GeoJSON feature-row model + property/coordinate formatting.

Intermediate representation between Ray Data stages: one Arrow row per
feature with columns

    file_key   string  output-file grouping key (agency / route_dir / shape)
    sort_key   int64   deterministic in-file feature order
    feature_json string  the serialized GeoJSON Feature

Heavy coordinate math happens in numpy BEFORE serialization (in the
producing ``map_groups``/``map_batches`` stage); these helpers cover the
reference's formatting semantics:

- ``format_properties``  → omit null values, '#'-prefix colors, recurse
  into the nested routes list (reference src/lib/geojson-utils.ts:31-54)
- ``simplify_feature``   → RDP at 1/10**precision then round, skipping
  simplification for MultiPolygon (reference :119-147); no-op when
  precision is None
- ``assemble_fc``        → FeatureCollection text (reference
  featureCollection + JSON.stringify, compact separators)
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from geotile.geom.rdp import rdp, rdp_ring, round_coords

_COLOR_KEYS = ("route_color", "route_text_color")


def format_properties(props: dict[str, Any]) -> dict[str, Any]:
    """Strip null-valued keys, '#'-format the two color fields, recurse
    into a nested ``routes`` list. Key order = insertion order (parity
    with lodash omitBy preserving key order)."""
    out: dict[str, Any] = {}
    for k, v in props.items():
        if v is None:
            continue
        if k == "routes":
            # nested route records recurse; a non-list value ('{}' quirk
            # for parent stations) rides through as-is
            out[k] = [format_properties(x) for x in v] if isinstance(v, list) else v
        elif k in _COLOR_KEYS:
            out[k] = f"#{v}"
        else:
            out[k] = v
    return out


def feature(geom_type: str, coordinates, properties: dict[str, Any],
            bbox: list[float] | None = None) -> dict[str, Any]:
    f: dict[str, Any] = {"type": "Feature"}
    if bbox is not None:
        f["bbox"] = bbox
    f["properties"] = properties
    f["geometry"] = {"type": geom_type, "coordinates": coordinates}
    return f


def dumps(obj: Any) -> str:
    """Compact JSON like JS JSON.stringify (no spaces); floats rely on
    repr shortest-roundtrip, ints stay ints."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False, default=_np_default)


def _np_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def assemble_fc(feature_jsons: list[str]) -> str:
    return '{"type":"FeatureCollection","features":[' + ",".join(feature_jsons) + "]}"


# ---------------------------------------------------------------------------
# simplification / rounding over feature dicts
# ---------------------------------------------------------------------------

# how many list levels wrap each type's (n, 2) position arrays (a Point
# is its one position)
_ARRAY_DEPTH = {"Point": 0, "MultiPoint": 0, "LineString": 0,
                "MultiLineString": 1, "Polygon": 1, "MultiPolygon": 2}


def _map_arrays(coords, depth: int, fn):
    if depth == 0:
        return fn(np.asarray(coords, dtype=np.float64))
    return [_map_arrays(c, depth - 1, fn) for c in coords]


def simplify_feature(f: dict[str, Any], precision: int | None) -> dict[str, Any]:
    """Reference simplifyGeoJSON on ONE feature: no-op when precision is
    None; MultiPolygon → truncate only; else RDP(tol=1/10**p) + round.
    Each position array is simplified and rounded (``round_coords``,
    JS Math.round half-up) in one numpy pass before ``tolist``."""
    if precision is None:
        return f
    g = f.get("geometry") or {}
    gt = g.get("type")
    if "coordinates" not in g:
        return f  # null/absent geometry is valid GeoJSON — pass through
    tol = 1.0 / 10**precision
    simplify = {"LineString": rdp, "MultiLineString": rdp, "Polygon": rdp_ring}.get(gt)

    def simplify_round(a: np.ndarray) -> list:
        if simplify is not None:
            a = simplify(a, tol)
        a = round_coords(a, precision)
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite coordinate in a {gt} geometry")
        return a.tolist()

    out = dict(f)
    coords = _map_arrays(g["coordinates"], _ARRAY_DEPTH[gt], simplify_round)
    out["geometry"] = {**g, "coordinates": coords}
    return out


def simplify_feature_json(fj: str, precision: int | None) -> str:
    if precision is None:
        return fj
    return dumps(simplify_feature(json.loads(fj), precision))
