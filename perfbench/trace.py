"""In-memory spans for the benchmark's traced runs.

A span records (name, start, end, parent, run id) around one call the
benchmark makes into a geotile layer. Spans stay in memory and are
written out once, when the run ends; a disabled tracer records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the finished ``name`` spans, optionally only
        those directly under a span named ``parent``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (parent is None or (s["parent"] is not None
                                        and self.spans[s["parent"]]["name"] == parent))]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
