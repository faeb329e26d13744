"""The benchmark's own in-memory spans, for the traced run only.

A traced run wraps the public call at each layer boundary with
:meth:`SpanLog.wrap`; every call becomes one ``(name, start, end,
attrs, hook_s)`` span on ``time.monotonic``, kept in a list and read out when
the run ends.  Nothing is installed in the program: wrappers replace an
attribute for the duration of the run and :meth:`SpanLog.restore` puts
the original back.  Timed runs never create a ``SpanLog``.

Span names follow the program's own span names where the program
already has a span at that boundary (``serve.repair``, ``serve.cnn``,
``serve.features``), so a benchmark table and a live waterfall read
side by side.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable

import numpy as np


class SpanLog:
    """Spans of one traced run, plus the patches that record them."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, dict, float]] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner: object, attr: str, name: str,
             attrs: Callable[..., dict] | None = None,
             before: Callable[[], object] | None = None,
             after: Callable[[], object] | None = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``attrs(args, kwargs, result)`` may add attributes to the span
        (sample counts, start indices).  With ``before``/``after`` hooks
        (snapshots taken just outside the span) it is called as
        ``attrs(args, kwargs, result, pre, post)``.  Time spent in hooks
        and ``attrs`` is kept with the span and counted in
        :meth:`overhead_s`, never in the span's duration.
        ``owner`` is a module, a class or an instance; an instance
        attribute shadows the class method only for that instance.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        spans = self.spans
        clock = time.monotonic
        hooked = before is not None or after is not None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t_hook = clock()
            pre = before() if before is not None else None
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            post = after() if after is not None else None
            if attrs is None:
                extra = {}
            elif hooked:
                extra = attrs(args, kwargs, result, pre, post)
            else:
                extra = attrs(args, kwargs, result)
            spans.append((name, start, end, extra, (start - t_hook) + (clock() - end)))
            return result

        self._patches.append((owner, attr, original if had_own else None, had_own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def named(self, name: str) -> list[tuple[str, float, float, dict, float]]:
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.named(name))

    def overhead_s(self) -> float:
        """Estimated seconds the tracing itself cost: the calibrated cost
        of each recorded span plus the time spent in hooks and attribute
        functions."""
        return len(self.spans) * span_cost_s() + sum(s[4] for s in self.spans)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one recorded span over a bare call, in seconds."""

    class _Target:
        @staticmethod
        def call(x):
            return x

    def timed(fn) -> float:
        start = time.perf_counter()
        for i in range(repeats):
            fn(i)
        return time.perf_counter() - start

    bare = min(timed(_Target.call) for _ in range(3))
    log = SpanLog()
    target = _Target()
    log.wrap(target, "call", "calibrate", attrs=lambda a, k, r: {"n": 1})
    wrapped = min(timed(target.call) for _ in range(3))
    log.restore()
    return max(wrapped - bare, 0.0) / repeats


def covered_s(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    return float(np.percentile(values, q))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")
