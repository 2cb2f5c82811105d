"""Spans recorded from the benchmark's side of each call into the package.

A span has a name, start and end (``time.perf_counter``), the id of the
span open when it started, the id of its root span, and named counts. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time


class Tracer:
    """Spans kept in memory: name, start, end, parent id, root id, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def roots(self, names=None) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and (names is None or s["name"] in names)]

    def self_times(self, roots: list[dict]) -> dict[str, float]:
        """Per span name, duration minus the time its children cover."""
        ids = {r["id"] for r in roots}
        spans = [s for s in self.spans if s["root"] in ids]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def counts(self, roots: list[dict]) -> dict[str, int]:
        ids = {r["id"] for r in roots}
        out: dict[str, int] = {}
        for s in self.spans:
            if s["root"] in ids:
                for key, value in s["counts"].items():
                    out[f"{s['name']}.{key}"] = out.get(f"{s['name']}.{key}", 0) + value
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        parent = self.tracer._open[-1] if self.tracer._open else None
        self.rec = {
            "id": len(self.tracer.spans),
            "parent": None if parent is None else parent["id"],
            "root": len(self.tracer.spans) if parent is None else parent["root"],
            "name": self.name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.tracer.spans.append(self.rec)
        self.tracer._open.append(self.rec)
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False

    def count(self, name: str, value: int) -> None:
        self.rec["counts"][name] = self.rec["counts"].get(name, 0) + value


class NullTracer:
    """Span interface with nothing recorded, for the untraced set-up."""

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, name: str, value: int) -> None:
        pass


_NULL_SPAN = _NullSpan()
