"""Outside-in spans around the program's public entry points.

The tracer patches public callables (class methods, module-level
functions, sharder ``shard`` methods) with ``functools.wraps`` wrappers
for the duration of a ``with tracer.patched(...)`` block and restores
them afterwards; nothing inside ``src/`` knows it is being traced.
``functools.wraps`` matters beyond cosmetics: ``LookupServer`` picks its
warm-start and workspace paths from ``inspect.signature(sharder.shard)``,
which follows ``__wrapped__``, so a bare ``*args`` wrapper would
silently change the replans.

Spans live in memory (name, start, end, parent, microbatch id, work
count) and are written out once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 at top level
    batch: int | None
    count: int = 0  # work units the call handled (lookups, chunks, ...)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: id of the microbatch the single-process loop is working on:
        #: the number of microbatches released so far, minus one.
        self.batch: int | None = None
        self._released = 0
        self._reduced = 0
        #: while set, wrapped calls run unrecorded (see ``paused``)
        self._paused = False

    def begin(self, name: str, batch: int | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(
            name, time.perf_counter_ns(), 0, parent,
            self.batch if batch is None else batch,
        ))
        self._stack.append(index)
        return index

    def end(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        span.count = count
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def new_round(self) -> None:
        """Restart microbatch numbering (each round replays the stream)."""
        self.batch = None
        self._released = 0
        self._reduced = 0

    @contextmanager
    def paused(self):
        """Record no ``wrap`` spans in the block (untimed harness work)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, count=None, reduces: bool = False):
        """``fn`` recorded as span ``name``.

        ``count(args, result)`` gives the work units of one call.  A
        ``reduces`` span belongs to the next microbatch in reduction
        order (the pool's front end reduces batch k while releasing
        later ones); it becomes the current microbatch for the calls
        that follow it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            batch = None
            if reduces:
                batch = tracer.batch = tracer._reduced
                tracer._reduced += 1
            index = tracer.begin(name, batch)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    index, count(args, result) if count is not None else 0
                )

        return traced

    def wrap_release(self, fn, name: str):
        """A generator function whose every ``next()`` is one span.

        Each item it yields is the next microbatch, so the span that
        produced it (and the calls made while it is current) carry its
        id.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name, tracer._released)
                try:
                    item = next(items)
                except StopIteration:
                    tracer.end(index)
                    return
                except BaseException:
                    tracer.end(index)
                    raise
                tracer.end(index, 1)
                tracer.batch = tracer._released
                tracer._released += 1
                yield item

        return traced

    def iterate(self, name: str, items, count=None):
        """Yield from ``items`` with a span around every ``next()``."""
        items = iter(items)
        while True:
            index = self.begin(name, -1)
            try:
                item = next(items)
            except StopIteration:
                self.end(index)
                return
            except BaseException:
                self.end(index)
                raise
            self.end(index, count(item) if count is not None else 1)
            yield item

    @contextmanager
    def patched(self, targets):
        """Install wrappers on ``targets`` for the block, then restore.

        ``targets`` holds ``(owner, attribute, wrapper_factory)``; the
        factory receives the original callable.  Every wrapper must keep
        its original's signature (checked here, see the module doc).
        """
        saved = []
        try:
            for owner, attr, factory in targets:
                original = owner.__dict__[attr] if isinstance(
                    owner, type) else getattr(owner, attr)
                wrapped = factory(original)
                if inspect.signature(wrapped) != inspect.signature(original):
                    raise RuntimeError(
                        f"wrapper changed the signature of {attr}"
                    )
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis and export
    # ------------------------------------------------------------------
    def self_times(self, first: int = 0) -> dict[str, list[int]]:
        """``name -> [self_ns, calls, count]`` over spans from ``first``.

        A span's self time is its duration minus the time its child
        spans cover; spans nest strictly (one thread), so the children's
        durations are disjoint and simply subtract.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans[first:]:
            if span.parent >= first:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[str, list[int]] = {}
        for index in range(first, len(self.spans)):
            span = self.spans[index]
            row = totals.setdefault(span.name, [0, 0, 0])
            row[0] += span.end_ns - span.start_ns - child_ns[index]
            row[1] += 1
            row[2] += span.count
        return totals

    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Write every span as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0].start_ns if self.spans else 0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "batch": span.batch,
                    "count": span.count,
                },
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": metadata},
                fh,
            )
