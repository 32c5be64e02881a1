"""geotile — a Ray-Data-native spatial-join + tiling engine.

Re-expresses the geometry pipeline of BlinkTagInc/gtfs-to-geojson
(reference at /root/reference, v3.8.7) as idiomatic Ray Data:
``ray.data.Dataset`` → ``map_batches`` over zero-copy Arrow batches,
actor pools for index state, groupby/aggregate for the wide steps —
plus a web-scale graft layer: H3/S2-style cell encoding, a
cell-index accelerated point-in-polygon spatial join, kNN, and
raster↔vector conversion over a Lance-style image+caption table.

All geometry is from-scratch numpy (shapely/h3/geopandas are not
available in this environment and the engine is NOT a port).
"""

__version__ = "0.1.0"

from geotile.config import PipelineConfig  # noqa: F401
