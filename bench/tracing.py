"""Span recorder for the benchmark's calls into swapsched.

A span is one call the benchmark makes into a public swapsched function:
its name (``<module>.<function>``), start and end (``time.perf_counter``
seconds), the index of the enclosing span, and the id of the op it served.
Spans stay in memory and are written out once the run is over.

``NullTracer`` has the same interface and records nothing, so the untraced
end-to-end run calls the package exactly as the traced run does, minus the
bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, op_id):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []
        self._op = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op = None

    def count(self, name, value):
        self.counts[name].append(value)

    def durations_ms(self, name) -> list[float]:
        return [(s[2] - s[1]) * 1000 for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self time (total minus time in child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1000
            row["self_ms"] += (end - start - child_time[i]) * 1000
        for row in out.values():
            row["total_ms"] = round(row["total_ms"], 3)
            row["self_ms"] = round(row["self_ms"], 3)
        return out

    def median_ms(self, name) -> float | None:
        values = self.durations_ms(name)
        return statistics.median(values) if values else None

    def write(self, directory: Path, extra: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.jsonl", "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                ) + "\n")
        layers = {"self_time": self.self_times(), **extra}
        (directory / "layers.json").write_text(json.dumps(layers, indent=2, sort_keys=True) + "\n")
