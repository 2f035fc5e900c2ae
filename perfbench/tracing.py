"""Spans recorded from outside the library, by rebinding its public functions.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span or -1, and op identifies the benchmark operation that caused
it, so all spans of one operation share it.  Counters are bumped at the same
call boundaries.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, Callable]] = []

    def wrap(self, module: object, attr: str, name: str,
             count: Optional[Callable[[Counter, tuple, object], None]] = None) -> None:
        """Rebind module.attr to a wrapper that records a span named `name`.

        count(counts, args, result), when given, adds the call's work counts.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unwrap(self) -> None:
        """Put every rebound function back, newest first."""
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def self_times(self, first: int = 0, last: Optional[int] = None,
                   ops: Optional[set[int]] = None) -> dict[str, float]:
        """Summed self time per span name over spans[first:last].

        Self time is a span's duration minus the durations of its direct
        children.  With ops given, only spans of those operations count.
        """
        last = len(self.spans) if last is None else last
        child = [0.0] * (last - first)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent >= first:
                child[parent - first] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, op) in enumerate(self.spans[first:last]):
            if ops is None or op in ops:
                out[name] += (end - start) - child[idx]
        return dict(out)

    def total_times(self, first: int = 0, last: Optional[int] = None,
                    ops: Optional[set[int]] = None) -> dict[str, float]:
        """Summed inclusive time per span name over spans[first:last]."""
        out: Counter = Counter()
        for name, start, end, _, op in self.spans[first:last]:
            if ops is None or op in ops:
                out[name] += end - start
        return dict(out)

    def dump(self, path, labels: dict[int, str]) -> None:
        """Write spans as JSON lines, each op tagged with its instance label."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op,
                                         "instance": labels.get(op, "")}) + "\n")
