"""In-memory spans around the benchmark's calls into the library.

A span records one call into a layer's public function: its name, start and
end (``perf_counter_ns``), the span that was open when it started, and the id
of the query it belongs to (``None`` during set-up).  Spans are kept in a list
and written out once, when the pass ends.  Self time is a span's duration
minus the durations of its direct children; calls are sequential, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter_ns


class Tracer:
    """Records spans; ``query`` is the id stamped on spans opened next."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, query, name, start, end]
        self.query: int | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._open[-1] if self._open else None,
               self.query, name, perf_counter_ns(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[5] = perf_counter_ns()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, query, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "query": query, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    query = None
    _NOOP = contextlib.nullcontext()

    def span(self, name: str):
        return self._NOOP
