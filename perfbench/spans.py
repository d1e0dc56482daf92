"""Span recording around the layer boundaries of ``ffo``, and self-time arithmetic.

The tracer wraps functions from the benchmark's side only: it replaces module
attributes (the names ``ffo.cli`` calls into each layer) and signal-class
methods with timing wrappers while a traced request runs, and puts the
originals back afterwards.  Nothing under ``src/`` knows about it.

Each span records its name, request id, own id, parent id, thread, wall
start/end (``time.perf_counter``) and thread-CPU start/end
(``time.thread_time``).  The parent is the innermost open span on the same
thread; a span opened on a thread with no open span (a sweep scenario on a
pool thread) gets the request's root span as parent.  Spans are kept in
memory and only reduced to metrics after the request has returned.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    request: int
    sid: int
    parent: int | None
    thread: int
    w0: float
    w1: float
    c0: float
    c1: float
    info: object = None


class Tracer:
    """Collects spans of one request at a time; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, object]] = []
        self.request = 0
        self.root: int | None = None

    # -- instrumentation ----------------------------------------------------

    def wrap(self, fn, name, describe=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``describe(args, kwargs, result)`` returns the span's ``info``.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self.root
            sid = next(ids)
            label = name(args, kwargs) if callable(name) else name
            stack.append(sid)
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = cpu(), perf()
                stack.pop()
            info = describe(args, kwargs, result) if describe else None
            spans.append(Span(label, self.request, sid, parent,
                              threading.get_ident(), w0, w1, c0, c1, info))
            return result

        return wrapper

    def patch(self, owner, attr: str, name, describe=None) -> None:
        """Register ``owner.attr`` to be replaced by a wrapper while installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(original, name, describe)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_request(self, request: int, fn, *args):
        """Call ``fn(*args)`` with the layers wrapped, as request ``request``.

        The call itself is the request's root span, named ``request``.  The
        request's spans stay in :attr:`spans` until :meth:`take` clears them.
        """
        self.request = request
        sid = self.root = next(self._ids)
        self.install()
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            return fn(*args)
        finally:
            c1, w1 = time.thread_time(), time.perf_counter()
            self.uninstall()
            self.root = None
            self.spans.append(Span("request", request, sid, None,
                                   threading.get_ident(), w0, w1, c0, c1))

    def take(self) -> list[Span]:
        out = list(self.spans)
        self.spans.clear()
        return out


# -- self-time arithmetic ------------------------------------------------------

def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class SelfTime(NamedTuple):
    wall: float   # duration minus the part of it that child spans cover
    cpu: float    # own thread CPU minus that of children on the same thread

    @property
    def wait(self) -> float:
        return self.wall - self.cpu


def self_times(spans: list[Span]) -> dict[int, SelfTime]:
    """Self wall and self thread-CPU time of every span, keyed by span id.

    Children on other threads can overlap each other in time, so the wall
    time they take away from the parent is the union of their intervals.
    Thread CPU is per thread, so only same-thread children take CPU away.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = children.get(s.sid, ())
        wall = (s.w1 - s.w0) - _covered(s.w0, s.w1, [(k.w0, k.w1) for k in kids])
        cpu = (s.c1 - s.c0) - sum(k.c1 - k.c0 for k in kids if k.thread == s.thread)
        out[s.sid] = SelfTime(wall, cpu)
    return out
