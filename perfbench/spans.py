"""In-memory span recording around the calls into each layer.

The traced run installs wrappers around the public entry points of each
layer (from the benchmark's own files; nothing inside ``repro`` changes),
records one span per call — name, start, end, span id, parent id and the
id of the HTTP call it served — and writes the spans out when the run
ends.  A span's *self time* is its duration minus the part of that
interval its child spans cover; most per-layer times are summed self times
divided by the requests answered (the async tier's is a union of intervals
per HTTP call, see :func:`outside_seconds`).

Parents are tracked with a context variable, which asyncio copies into
tasks and :func:`asyncio.to_thread` copies into worker threads.  The
server's connection task was created before any call, so a span with no
parent in its context is attached to the current HTTP call (one call is in
flight at a time on the benchmark's single connection).  Outside an HTTP
call nothing is recorded: the oracle's calls between chunks leave no spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
import types
from collections import defaultdict

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """Span store plus the current HTTP call (the root of new spans)."""

    def __init__(self) -> None:
        #: (name, start, end, span id, parent id, call id)
        self.spans: list[tuple[str, float, float, int, int | None, int]] = []
        self._ids = itertools.count(1)
        self.root: int | None = None
        self.call = -1

    def begin_call(self, call: int) -> None:
        """Make HTTP call ``call`` the root of the spans that follow."""
        self.call = call
        self.root = next(self._ids)

    def end_call(self, start: float, end: float) -> None:
        """Record the call's own span, timed by the client."""
        self.spans.append(("http.call", start, end, self.root, None, self.call))
        self.root = None

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` (sync or coroutine function) recording spans."""
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                parent = _current.get() or tracer.root
                if parent is None:
                    return await fn(*args, **kwargs)
                span = next(tracer._ids)
                token = _current.set(span)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _current.reset(token)
                    tracer.spans.append((name, start, end, span, parent, tracer.call))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get() or tracer.root
            if parent is None:
                return fn(*args, **kwargs)
            span = next(tracer._ids)
            token = _current.set(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                tracer.spans.append((name, start, end, span, parent, tracer.call))

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "span", "parent", "call")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> dict[str, float]:
    """Total self time in seconds per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, span, _, _ in spans:
        covered = union_seconds(
            (max(s, start), min(e, end)) for s, e in children.get(span, ())
        )
        totals[name] += (end - start) - covered
    return dict(totals)


def union_seconds(intervals) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def outside_seconds(spans, outer: str, inner: str) -> float:
    """Seconds per HTTP call covered by spans named ``outer*`` but by no span
    named ``inner*``, summed over calls.

    Unions, not self times: sibling spans that overlap (the concurrent
    ``select`` spans of one ``select_many``) count their shared time once.
    """
    by_call: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    for name, start, end, _, _, call in spans:
        if name.startswith(outer):
            by_call[call][0].append((start, end))
        elif name.startswith(inner):
            by_call[call][1].append((start, end))
    return sum(
        union_seconds(outers + inners) - union_seconds(inners)
        for outers, inners in by_call.values()
    )


class Patcher:
    """Replaces attributes with traced wrappers and restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, name: str, cls: type, attr: str) -> None:
        """Trace ``cls.attr`` (plain, static or class method)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self._tracer.wrap(name, raw.__func__)))
        elif isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._tracer.wrap(name, raw.__func__)))
        else:
            self._set(cls, attr, self._tracer.wrap(name, raw))

    def function(self, name: str, fn) -> None:
        """Trace module function ``fn`` everywhere ``repro`` bound it."""
        wrapper = self._tracer.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def json_of(self, module, decode: str, encode: str) -> None:
        """Trace ``module``'s ``json.loads``/``json.dumps`` calls only."""
        shim = types.SimpleNamespace(**{
            key: getattr(module.json, key) for key in dir(module.json)
            if not key.startswith("__")
        })
        shim.loads = self._tracer.wrap(decode, module.json.loads)
        shim.dumps = self._tracer.wrap(encode, module.json.dumps)
        self._set(module, "json", shim)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
