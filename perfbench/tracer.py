"""In-memory spans recorded around the benchmark's calls into uhsl2.

A span is [name, start, end, parent, request]; ``parent`` is the index of
the enclosing span and ``request`` the index of the operation it belongs
to.  Spans are only kept in a list while the run lasts and written out once
at the end, so recording them costs two clock reads and an append.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body as one span.

        ``parent`` defaults to the innermost open span.  A stage replayed
        after its operation ended names that operation's span explicitly: it
        is a logical child, subtracted from the parent's self time.
        """
        sid = len(self.spans)
        if parent is None and self._open:
            parent = self._open[-1]
        record = [name, perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield sid
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and self time.

        Self time is the duration minus the durations of the span's children.
        """
        child_time = defaultdict(float)
        for _name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, (name, start, end, _parent, _req) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["time_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """Stand-in for the untraced run: spans cost one attribute lookup."""

    request = 0
    _null = nullcontext()

    def span(self, name: str, parent: int | None = None):
        return self._null
