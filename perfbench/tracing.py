"""In-memory span tracer and the span arithmetic the benchmark reports.

A span is one call across a layer boundary: ``(sid, name, start, end,
parent, iteration, thread)``.  ``parent`` is the span that caused it:
the enclosing span on the same thread, or, for work on a thread that
has no open span (an MPI rank thread), the span registered as the
current *cause* (the ``run_job`` call that started the rank threads).
``iteration`` is the campaign iteration the span belongs to (``None``
outside a campaign).

Spans are kept in a list while the benchmark runs and written out once,
at the end.  Nothing here imports the program under test, so the span
arithmetic can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import threading
import time
from typing import Any, Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    iteration: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans from wrappers installed around layer entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        #: span id charged as parent for threads without an open span
        self.cause: Optional[int] = None
        #: campaign iteration stamped on new spans
        self.iteration: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Optional[tuple[int, str]]:
        """The innermost open ``(sid, name)`` on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None,
             cause: bool = False) -> Callable:
        """``fn`` recording one span per call.

        ``after(result, args, kwargs, span)`` runs once the span is
        recorded (to read counters off a return value).  ``cause`` makes
        this span the parent of spans opened on threads with no span of
        their own while it is open.  A call nested directly inside a
        span of the same name (``super()`` chains, internal delegation)
        is not recorded twice.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else tracer.cause
            stack.append((sid, name))
            prev_cause = tracer.cause
            if cause:
                tracer.cause = sid
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                if cause:
                    tracer.cause = prev_cause
                span = Span(sid, name, start, end, parent, tracer.iteration,
                            threading.get_ident())
                tracer.spans.append(span)
            if after is not None:
                after(result, args, kwargs, span)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine-function variant.  Coroutines interleave on one
        thread, so these spans never join the thread's span stack; their
        parent is the current cause."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            start = tracer.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append(Span(
                    sid, name, start, tracer.clock(), tracer.cause,
                    tracer.iteration, threading.get_ident()))

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one gzip'd JSON line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


# ----------------------------------------------------------------------
# span arithmetic


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Only children on the span's own thread count: rank threads run
    concurrently with the main thread that started them, so their spans
    do not take time away from it.
    """
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.sid, []).append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    return {s.sid: s.duration - union_length(children.get(s.sid, ()))
            for s in spans}


def top_level(spans: Iterable[Span]) -> list[Span]:
    """Spans whose parent is not on their own thread (or absent)."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or parent.thread != s.thread:
            out.append(s)
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: list[float], beyond: int = 10
                    ) -> Optional[tuple[float, float]]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ``beyond``
    samples above it, as ``(q, value)``; ``None`` when even the median
    has fewer."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= beyond:
            return q, percentile(values, q)
    return None


def summary(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and sample count (the shape every metric uses)."""
    n = len(values)
    if n == 0:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    return {"median": percentile(values, 50), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "n": n}
