"""In-memory spans around the benchmark's calls into normwalk.

A span records its name, start, end, parent span and run id.  Spans stay
in memory while the workload runs; run.py writes them out once, at the
end, so the only cost tracing adds inside the timed region is two clock
reads and an append per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Times calls when enabled; with tracing off, `call` is a plain call.

    `after_call`, if given, runs after every call returns, outside its span.
    """

    def __init__(self, run_id: str, enabled: bool, after_call=None):
        self.run_id = run_id
        self.enabled = enabled
        self.after_call = after_call
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            result = fn(*args, **kwargs)
        else:
            with self.span(name):
                result = fn(*args, **kwargs)
        if self.after_call is not None:
            self.after_call()
        return result

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span = {"id": len(self.spans), "name": name, "run_id": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self) -> dict[str, float]:
        """Total seconds per span name (a name called twice is summed)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out
