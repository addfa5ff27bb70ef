"""Span recorder for the traced benchmark run.

Wrappers go around public callables of the rmaws layers, from outside:
nothing under ``src/`` is edited. Each wrapped call records one span
``[name, start_ns, end_ns, id, parent_id, key]`` in memory. ``parent_id``
is the span that was open on the same thread when the call began (-1 for
none), and ``key`` is the dedup key of the request the call served, when
one is known. Counters sit next to the spans. ``dump`` writes everything
out once the run ends.

Clock: ``time.monotonic_ns`` (CLOCK_MONOTONIC), which every process on
one Linux host shares, so a span that ends in the server process and one
that starts in the client process can be subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, key=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``key(args)`` names the request the call serves. ``after(span,
        args, result)`` runs once the call has returned; it may rename
        the span or count something from the result.
        """
        ids = self._ids
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, time.monotonic_ns(), 0, next(ids), stack[-1] if stack else -1,
                    key(args) if key is not None else None]
            spans.append(span)
            stack.append(span[3])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def dump(self, path: str) -> dict:
        """Write the spans and counters to ``path``; return them."""
        doc = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return doc


# -- aggregation -------------------------------------------------------------------

def durations_us(spans, name: str) -> list[float]:
    return [(s[2] - s[1]) / 1000.0 for s in spans if s[0] == name]


def self_times_us(spans, name: str) -> list[float]:
    """Self time of each ``name`` span: its duration minus the part its
    child spans cover. Children run on the parent's thread, nested and
    one after another, so their durations add up to the covered part."""
    wanted = {s[3]: s for s in spans if s[0] == name}
    covered = dict.fromkeys(wanted, 0)
    for span in spans:
        if span[4] in covered:
            covered[span[4]] += span[2] - span[1]
    return [(s[2] - s[1] - covered[sid]) / 1000.0 for sid, s in wanted.items()]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
