"""Spans recorded by the benchmark around its calls into each layer.

Spans live in memory as ``[name, start, end, parent, op]`` (monotonic
seconds; ``parent`` is a span index, ``op`` the operation the span
belongs to) and are written out only when the run ends.  The program
under test carries no spans of its own yet, so a layer's time is what
its public call took from outside.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


def seconds_of(span) -> float:
    """Duration of a finished span record (0 on the untraced side)."""
    return span[END] - span[START] if span is not None else 0.0


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        record = [
            self.name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            tracer.op,
        ]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        return record

    def __exit__(self, *exc_info):
        tracer = self.tracer
        tracer.spans[tracer._stack.pop()][END] = time.perf_counter()
        return False


class Tracer:
    """Records nested spans; ``begin`` opens the next operation."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        self._next_op = 0

    def begin(self) -> int:
        self._next_op += 1
        self.op = self._next_op
        return self.op

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def totals(self, op: int) -> dict[str, float]:
        """Seconds per span name within one operation."""
        seconds: dict[str, float] = defaultdict(float)
        for span in reversed(self.spans):
            if span[OP] != op:
                break
            seconds[span[NAME]] += span[END] - span[START]
        return seconds

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "span": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op": span[OP],
                }) + "\n")

    def layer_table(self) -> list[tuple[str, str, int, float, float]]:
        """``(operation, layer, calls, seconds, share)`` rows.

        An operation is a root span (``op.*``); a layer's seconds are
        its spans' self time — duration minus what child spans cover —
        and its share is of the summed wall-clock of that kind of
        operation, so the rows of one operation add up to 1 with the
        root's own row (the harness's glue between the calls).
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        roots: list[int] = []
        for index, span in enumerate(spans):
            parent = span[PARENT]
            roots.append(index if parent is None else roots[parent])
            if parent is not None:
                covered[parent] += span[END] - span[START]
        wall: dict[str, float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        seconds: dict[tuple[str, str], float] = defaultdict(float)
        for index, span in enumerate(spans):
            root = spans[roots[index]][NAME]
            if not root.startswith("op."):
                continue  # set-up, or a staged replay beside the operation
            if roots[index] == index:
                wall[root] += span[END] - span[START]
            key = (root, span[NAME])
            calls[key] += 1
            seconds[key] += span[END] - span[START] - covered[index]
        return [
            (root, name, calls[root, name], seconds[root, name],
             seconds[root, name] / wall[root] if wall.get(root) else 0.0)
            for root, name in sorted(calls)
        ]


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


class NullTracer:
    """The untraced side: same calls, nothing recorded."""

    enabled = False
    _span = _NullSpan()

    def begin(self) -> int:
        return 0

    def span(self, name: str) -> _NullSpan:
        return self._span
