"""In-memory spans recorded around the benchmark's calls into the program.

A span has a name, start and end (``time.perf_counter``), the span that
was open when it began, the operation it belongs to, and the number of
calls it covers (a batch of evaluations is one span).  Spans are kept in
a list and written out once, at the end of the run.  A layer's self time
is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_spans", "_name", "_calls", "_index")

    def __init__(self, spans: "Spans", name: str, calls: int):
        self._spans, self._name, self._calls = spans, name, calls

    def __enter__(self):
        s = self._spans
        parent = s._open[-1] if s._open else None
        self._index = len(s.records)
        s.records.append([self._name, time.perf_counter(), None, parent, s.op_id, self._calls])
        s._open.append(self._index)
        return self

    def __exit__(self, *exc):
        s = self._spans
        s.records[self._index][2] = time.perf_counter()
        s._open.pop()
        return False


class Spans:
    """Span and count recorder; ``span`` is a shared no-op while disabled."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.op_id: Optional[str] = None
        # [name, start, end, parent index, op id, calls]
        self.records: List[list] = []
        self._open: List[int] = []
        # op id -> counter name -> value
        self.counts: Dict[str, Dict[str, float]] = defaultdict(dict)

    def span(self, name: str, calls: int = 1):
        return _Span(self, name, calls) if self.enabled else _NULL

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to this operation's counter ``name``."""
        if self.enabled:
            ops = self.counts[self.op_id]
            ops[name] = ops.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        """Raise this operation's counter ``name`` to at least ``value``."""
        if self.enabled:
            ops = self.counts[self.op_id]
            ops[name] = max(ops.get(name, value), value)

    def self_times(self) -> List[Tuple[str, Optional[str], float, int]]:
        """(name, op id, self seconds, calls) for every closed span."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, op, calls in self.records:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (name, op, end - start - child_time[i], calls)
            for i, (name, start, end, parent, op, calls) in enumerate(self.records)
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, calls in self.records:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "calls": calls}) + "\n")
