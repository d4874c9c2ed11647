"""In-memory span recorder for the benchmark's traced runs.

A span is one row ``[name, start, end, parent, spec]``: the layer name
(``"trace.generate"``, ``"store.get"``, ...), ``time.perf_counter()``
timestamps, the index of the enclosing span (``-1`` for a root) and the id
of the experiment spec the work belongs to (inherited from the parent when
not given).  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so rows
recorded by a child process line up with the parent's clock and can be
merged into one tree.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them out once, when
the benchmark ends.  Each thread keeps its own stack of open spans, so
concurrent client threads build separate subtrees.
"""

from __future__ import annotations

import json
import marshal
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

#: Span names starting with this prefix belong to the benchmark harness, not
#: to a layer of the program: their self time counts as unattributed.
HARNESS_PREFIX = "bench."

Row = list  # [name, start, end, parent, spec]


class SpanRecorder:
    """Nested wall-time spans plus named counters, kept in memory."""

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, spec: Optional[str] = None) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if spec is None and parent >= 0:
            spec = self.rows[parent][4]
        row = [name, time.perf_counter(), None, parent, spec]
        with self._lock:
            index = len(self.rows)
            self.rows.append(row)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` (the calling thread's innermost open span)."""
        self.rows[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, spec: Optional[str] = None) -> Iterator[int]:
        index = self.open(name, spec)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            spec: Optional[str] = None) -> int:
        """Record an already finished span (e.g. measured by another process)."""
        with self._lock:
            self.rows.append([name, start, end, parent, spec])
            return len(self.rows) - 1

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def merge(self, rows: Sequence[Row], counts: Dict[str, float],
              parent: int = -1) -> None:
        """Adopt another recorder's rows, re-rooting its roots under ``parent``."""
        with self._lock:
            offset = len(self.rows)
            for name, start, end, row_parent, spec in rows:
                self.rows.append([
                    name, start, end,
                    row_parent + offset if row_parent >= 0 else parent, spec,
                ])
        for name, value in counts.items():
            self.counts[name] += value

    def dump(self, path) -> None:
        """Write every span and counter to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.rows, "counts": dict(self.counts)}, handle)

    def handoff(self, path) -> None:
        """Write the spans for :func:`take_over` in a parent process.

        ``marshal`` takes milliseconds where JSON takes a large share of a
        second for a grid call's spans, time the parent would otherwise see
        as part of the call.
        """
        with open(path, "wb") as handle:
            marshal.dump((self.rows, dict(self.counts)), handle)


def take_over(path) -> "tuple[List[Row], Dict[str, float]]":
    """Read a :meth:`SpanRecorder.handoff` file written by a child process."""
    with open(path, "rb") as handle:
        rows, counts = marshal.load(handle)
    return rows, counts


def _covered(intervals: List["tuple[float, float]"]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(rows: Sequence[Row]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval, and overlapping children
    (spans of concurrent threads under one root) are counted once.
    """
    children: Dict[int, List["tuple[float, float]"]] = defaultdict(list)
    for name, start, end, parent, _ in rows:
        if parent >= 0 and end is not None:
            _, parent_start, parent_end, _, _ = rows[parent]
            if parent_end is not None:
                children[parent].append(
                    (max(start, parent_start), min(end, parent_end))
                )
    result = []
    for index, (_, start, end, _, _) in enumerate(rows):
        if end is None:
            result.append(0.0)
            continue
        inside = [(s, e) for s, e in children.get(index, ()) if e > s]
        result.append(max(0.0, (end - start) - _covered(inside)))
    return result


def layer_self_times(rows: Sequence[Row]) -> Dict[str, float]:
    """Self time summed per span name (harness spans included)."""
    totals: Dict[str, float] = defaultdict(float)
    for row, own in zip(rows, self_times(rows)):
        totals[row[0]] += own
    return dict(totals)


def attributed(totals: Dict[str, float]) -> float:
    """Self time of the program's layers (every non-harness span)."""
    return sum(
        seconds for name, seconds in totals.items()
        if not name.startswith(HARNESS_PREFIX)
    )
