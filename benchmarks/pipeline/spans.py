"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{name, start_s, end_s, parent, request_id, counts}`` on the
monotonic clock.  Spans are kept in a list and written out once, at exit.
The program under test knows nothing of them: this PR records spans from the
benchmark's own files only (spans inside ``src/`` are ROADMAP item 3).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

Span = Dict[str, Any]


class Tracer:
    """Collects nested spans; ``parent`` is an index into :attr:`spans`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._request_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[Span]:
        """Record one span; a root span's ``request_id`` is inherited below it."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._request_id = request_id
        record: Span = {
            "name": name,
            "start_s": 0.0,
            "end_s": 0.0,
            "parent": parent,
            "request_id": self._request_id,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start_s"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")


def duration(span: Span) -> float:
    return span["end_s"] - span["start_s"]


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part of it its child spans cover.

    Children may overlap one another (parallel work), so the covered part is
    the length of the union of the child intervals clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span["start_s"]
        for child in sorted(children.get(index, []), key=lambda item: item["start_s"]):
            start = max(child["start_s"], reach)
            end = min(child["end_s"], span["end_s"])
            if end > start:
                covered += end - start
                reach = end
        result.append(duration(span) - covered)
    return result


def self_time_by_name(spans: List[Span], root: str) -> Dict[str, float]:
    """Self seconds per span name, over every tree whose root span is ``root``."""
    totals: Dict[str, float] = {}
    for index, seconds in enumerate(self_times(spans)):
        top = index
        while spans[top]["parent"] is not None:
            top = spans[top]["parent"]
        if spans[top]["name"] == root:
            name = spans[index]["name"]
            totals[name] = totals.get(name, 0.0) + seconds
    return totals
