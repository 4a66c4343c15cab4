"""In-memory span recorder for the traced benchmark run.

A span is ``name, start, end, parent, op``: ``parent`` is the index of the
span that caused it (``None`` for an op's root span) and ``op`` the
identifier shared by every span of one operation.  Spans are recorded from
the benchmark's own files, around the calls into each layer of ``repro``;
nothing is written until :meth:`Recorder.write_chrome_trace` is called
after the measurement ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects spans; per-thread nesting, shared append-only span list."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        op: Optional[str] = None,
    ) -> int:
        """Record a span timed elsewhere (a callback, a server-side figure)."""
        if parent is not None and op is None:
            op = self.spans[parent]["op"]
        span = {"name": name, "start": start, "end": end, "parent": parent,
                "op": op, "tid": threading.get_ident()}
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, *, op: Optional[str] = None) -> Iterator[int]:
        """Time a region; nests under the thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = self.add(name, time.perf_counter(), 0.0, parent=parent, op=op)
        stack.append(index)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def by_row(self, name: str) -> Dict[str, List[float]]:
        """Per op, the time inside spans called ``name``; grouped by row.

        Op ids are ``"<row>#<pass>"``: the result maps each row to one
        figure per pass, ready for a per-row median.
        """
        per_op: Dict[str, float] = {}
        for span in self.spans:
            if span["name"] == name:
                per_op[span["op"]] = per_op.get(span["op"], 0.0) + span["end"] - span["start"]
        grouped: Dict[str, List[float]] = {}
        for op, seconds in per_op.items():
            grouped.setdefault(op.split("#")[0], []).append(seconds)
        return grouped

    def coverage(self, root_name: str) -> float:
        """Share of the root spans' wall clock that lies inside child spans."""
        roots = {i for i, s in enumerate(self.spans) if s["name"] == root_name}
        wall = sum(self.spans[i]["end"] - self.spans[i]["start"] for i in roots)
        inside = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in roots
        )
        return inside / wall if wall > 0 else 0.0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (load in Perfetto or ``chrome://tracing``)."""
        if not self.spans:
            events: List[dict] = []
        else:
            origin = min(s["start"] for s in self.spans)
            events = [
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": (s["start"] - origin) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "pid": 1,
                    "tid": s["tid"] % 100000,
                    "args": {"op": s["op"], "parent": s["parent"], "id": i},
                }
                for i, s in enumerate(self.spans)
            ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
