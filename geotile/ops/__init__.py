"""Stage builders: Ray Data stages over ``ray.data.Dataset``, plus the
GTFS feed side (gtfs, lines, stops), which runs in-process on pyarrow
tables."""
