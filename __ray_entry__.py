"""Driver contract for the geotile engine (Ray Data target).

The driver initialises Ray BEFORE importing this module; nothing here
(or in the geotile library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``      — flagship spatial-join + tiling pipeline at sf0.001
- ``queries()``    — one callable per implemented operator/pipeline
                     (SURVEY.md §2 inventory; see battery/queries/)
- ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
                     query, with matching column names + rounding
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: image tiles × route buffers spatial join at sf0.001
    (read → cell-encode → broadcast-index PIP join → assignment rows)."""
    from battery.queries import q_tile_assignments

    return q_tile_assignments("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from battery.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from battery.queries import oracle_sql as _oracle_sql

    return _oracle_sql()
