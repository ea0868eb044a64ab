"""In-memory span tracer that wraps mwcp's public functions from outside.

The mwcp modules import each other's functions by name
(``from .model import evaluate``), so a call is intercepted by replacing
the name in the namespace of the module that makes the call, not in the
module that defines it.  Nothing under ``src/`` is edited.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span or -1 for a root.  All spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded and strictly nested, so the
children never overlap each other.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_return(counts, args, result)`` runs after the span closes, so
        the work it does is charged to the caller, not to ``name``.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, namespace, attr, name, on_return=None):
        original = getattr(namespace, attr)
        self._patches.append((namespace, attr, original))
        setattr(namespace, attr, self.wrap(name, original, on_return))

    def unpatch(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def summarize(self):
        """Per-name totals: calls, inclusive seconds, self seconds.

        Also returns the number of spans whose children add up to more than
        the span itself, which a correct tracer never produces.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        overfull = 0
        for i, (name, _parent, start, end) in enumerate(self.spans):
            dur = end - start
            if child[i] > dur:
                overfull += 1
            t = totals[name]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child[i]
        return dict(totals), overfull

    def children_calls(self, parent_name, child_name) -> int:
        """Number of ``child_name`` spans opened directly inside ``parent_name``."""
        spans = self.spans
        return sum(
            1
            for name, parent, _s, _e in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )
