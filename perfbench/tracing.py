"""In-memory spans around the calls the benchmark makes into each layer.

A span has a name (``<layer>.<call>``), a start and an end on the
``perf_counter`` clock, the id of the span that caused it and the id of
the job it belongs to.  Spans stay in memory while the run measures and
are written out once, when it ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects spans; one instance per traced run, shared by its threads."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

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
        job: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> int:
        """Record a finished span; the parent defaults to the open span."""
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "job": job,
                }
            )
        return span_id

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[dict]:
        """Time the ``with`` body as one span nested under the open one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "job": job,
            }
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, total seconds, total self seconds)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            duration = span["end"] - span["start"]
            covered = _covered(children.get(span["id"], ()), span["start"], span["end"])
            entry = totals[span["name"]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered
        return {name: (int(c), t, s) for name, (c, t, s) in totals.items()}

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        summary = {
            name: {"count": count, "total_s": total, "self_s": own}
            for name, (count, total, own) in sorted(self.self_times().items())
        }
        document = {"spans": self.spans, "self_time": summary}
        if extra:
            document.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
