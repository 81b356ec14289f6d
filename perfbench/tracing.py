"""Spans recorded by the benchmark around its own calls into sgcensus.

A span holds a name, its start and end on the perf_counter clock, the
span that was open when it began, and the run id shared by every span
of one benchmark run.  Spans stay in memory and are written out once,
as JSON lines, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class NullTracer:
    """Tracing off: span() records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]
