"""In-memory spans recorded by the benchmark around calls into qrwalk.

A span holds its name, start and end (``time.perf_counter`` seconds),
the index of its parent span and the id of the run it belongs to. Spans
stay in memory while the run measures and are written out once, at the
end, so writing them never lands inside a timed interval.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``; 0.0 if none ran."""
        values = [s.seconds for s in self.spans if s.name == name]
        return statistics.median(values) if values else 0.0

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(s)}) + "\n")
