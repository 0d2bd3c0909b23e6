"""In-memory spans recorded around calls into the package's layers.

A span is (id, name, start_ns, end_ns, parent_id, rep); spans of one
replicate share its replicate index, set-up spans carry rep = -1.  Spans
stay in memory until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int = -1):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, rep)

    def self_times_ns(self) -> dict[int, int]:
        """Span duration minus the time its direct children cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return {sid: end - start - child_ns[sid] for sid, _, start, end, _, _ in self.spans}

    def per_rep_ms(self, name: str) -> dict[int, float]:
        """Total self time of spans called ``name``, per replicate, in ms."""
        selfs = self.self_times_ns()
        out: dict[int, float] = defaultdict(float)
        for sid, sname, _, _, _, rep in self.spans:
            if sname == name:
                out[rep] += selfs[sid] / 1e6
        return dict(out)

    def as_records(self) -> list[dict]:
        selfs = self.self_times_ns()
        return [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "rep": rep,
             "self_ns": selfs[sid]}
            for sid, name, start, end, parent, rep in self.spans
        ]
