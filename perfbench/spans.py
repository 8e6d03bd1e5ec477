"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request): the name of the layer call,
perf_counter times, the index of the enclosing span (None for a root) and
the id of the root operation it belongs to.  Spans are kept in a list and
written out once, when the run ends.  Calls that the package makes
internally are reached by swapping a wrapper into the module attribute the
caller looks the function up in, for the duration of one traced round.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_request = 0

    @contextmanager
    def span(self, name: str, root: bool = False, count: int | None = None):
        """Record one span; a root span opens a new request id."""
        if root:
            request = self._next_request
            self._next_request += 1
        else:
            request = self.spans[self._stack[-1]]["request"] if self._stack else None
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": request}
        if count is not None:
            rec["count"] = count
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter()

    def wrap(self, fn, name: str, count=None):
        """fn wrapped in a span; count(args, kwargs) sets the span's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, count=None if count is None else count(args, kwargs)):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Swap traced wrappers into (owner, attribute, span name[, count]) targets."""
        saved = []
        try:
            for owner, attr, name, *count in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, *count))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def per_request(self, name: str) -> float:
        """Median over the requests that call `name` of the time spent in it.

        Time within one request is summed over its spans of that name, so a
        layer called many times per request (a sweep's Monte Carlo rows) is
        reported per request; a layer a workload never calls reads 0.
        """
        totals: dict[int, float] = {}
        for rec in self.spans:
            if rec["name"] == name:
                totals[rec["request"]] = totals.get(rec["request"], 0.0) + rec["end"] - rec["start"]
        return statistics.median(totals.values()) if totals else 0.0

    def total(self, name: str) -> int:
        """Spans named `name`, or the sum of their work counts where set."""
        return sum(rec.get("count", 1) for rec in self.spans if rec["name"] == name)

    def counts_per_request(self, name: str, root: str) -> float:
        """Median over `root` requests of how many `name` spans each holds."""
        ids = {rec["request"] for rec in self.spans if rec["name"] == root}
        per = dict.fromkeys(ids, 0)
        for rec in self.spans:
            if rec["name"] == name and rec["request"] in per:
                per[rec["request"]] += 1
        return statistics.median(per.values()) if per else 0.0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
