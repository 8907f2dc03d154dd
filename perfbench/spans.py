"""In-memory spans around the benchmark's calls into treetest.

A span is (name, start, end, parent span, op id); names are
``layer.function``.  Spans are kept in a list while the run goes and written
out when it ends.  ``NO_TRACE`` has the same ``call`` interface and records
nothing, so the untraced run executes the same code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


NO_TRACE = NoTrace()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self._stack: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Spans nest on one thread, so children of one parent never overlap.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        """Per span name: count, total and self milliseconds."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_times_ns()):
            row = out.setdefault(s[0], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (s[2] - s[1]) / 1e6
            row["self_ms"] += own / 1e6
        return out

    def to_doc(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "summary": self.summary(),
        }
