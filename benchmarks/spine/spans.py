"""Benchmark-side spans: timed calls into the layers, recorded from outside.

The spine never edits the program it measures, so a layer's time is the
wall of the public call the benchmark makes into it.  Each call is one
span ``{name, start, end, parent, batch}``; spans are kept in memory
(an append per call) and written once, at exit.  A span's *self time*
is its duration minus the part its direct children cover — for the
walk's container spans that is the glue no layer owns.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class SpanLog:
    """An in-memory list of nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, batch: Optional[int] = None) -> Iterator[dict]:
        """Time the body as one span; the yielded dict gains ``end`` on exit."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "batch": batch,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus its direct children's durations."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        """One JSON object per line, with each span's self time added."""
        self_s = self.self_times()
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": self_s[s["id"]]}) + "\n")


def duration(span: dict) -> float:
    """Seconds a finished span lasted."""
    return span["end"] - span["start"]
