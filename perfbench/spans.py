"""In-memory span recorder that wraps the program's functions from outside.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one began, or -1. Spans are kept in a list and written
out once, when the run ends. Functions are wrapped at the name their caller
looks up (a module global such as ``focusrank.ranker.grad`` for
``ranker.train``, or a class attribute such as ``ModelGraph.distances_from``),
so the program itself is unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)  # items seen per name
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> bool:
        """Replace `owner.attr` with a span-recording wrapper.

        `on_result(tracer, args, result)` may add counters; a call that
        raises adds one to the counter `<name>.errors`. Returns False,
        wrapping nothing, when the attribute does not exist.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    self.count(name + ".errors")
                    raise
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        return summarize(self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "distinct": {name: len(items) for name, items in self.distinct.items()},
                },
                fh,
            )


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children; children lie inside their parent's interval, so they never
    overlap one another in this single-threaded recorder.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
