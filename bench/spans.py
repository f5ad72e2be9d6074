"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files, around calls into the
library's public functions: nothing inside ``repro`` is instrumented.  A
span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
index of the enclosing span (``-1`` for a root).  Spans stay in memory
and are written as JSON lines once the run is over.

A layer's *self time* is its spans' durations minus the part of those
intervals their child spans cover; layer metrics are built from it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List


class SpanRecorder:
    """Records nested spans for one workload run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the ``with`` body."""
        record = [
            name,
            time.perf_counter_ns(),
            0,
            self._stack[-1] if self._stack else -1,
        ]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def seconds(self, name: str) -> float:
        """Total wall seconds of every span called ``name``."""
        return sum(
            end - start for n, start, end, _ in self._spans if n == name
        ) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for record in self._spans if record[0] == name)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        totals: Dict[str, int] = defaultdict(int)
        spans = self._spans
        for name, start, end, parent in spans:
            totals[name] += end - start
            if parent >= 0:
                totals[spans[parent][0]] -= end - start
        return {name: ns / 1e9 for name, ns in totals.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self._spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "workload": self.workload,
                            "seed": self.seed,
                        }
                    )
                )
                handle.write("\n")
