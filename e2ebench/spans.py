"""In-memory span recording around the calls into the program's layers.

A :class:`SpanRecorder` patches a layer's public functions with wrappers
that record one span per call: name, start, end, parent span and, for
serving, a request id.  Nothing is written until :meth:`SpanRecorder.dump`,
and :meth:`SpanRecorder.restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from arith import self_times, union_length


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; nests under the thread's open span."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        start = self.clock()
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.add(span_id, name, parent, start, self.clock())

    def add(self, span_id: int | None, name: str, parent: int | None, start: float,
            end: float, request_id: object = None) -> int:
        """Append a span measured elsewhere (e.g. a request seen by the client)."""
        if span_id is None:
            span_id = self._new_id()
        with self._lock:
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "start": start, "end": end, "request_id": request_id})
        return span_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` recording a span per call.

        Generator functions get one span per ``next()``, so a lazily parsed
        stream is charged to the layer that parses it, under whichever span
        pulls the next item.
        """
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapped_gen(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    yield item
            return wrapped_gen

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapped

    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time of the spans of each name."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]]
    return totals


def coverage(spans: list[dict], root_id: int, excluded: frozenset[str] = frozenset()) -> float:
    """Share of the root span's interval that named descendant spans cover.

    Spans named in ``excluded`` (runners whose own time is no layer's work)
    do not count, but their descendants do.
    """
    by_id = {span["id"]: span for span in spans}
    root = by_id[root_id]

    def under_root(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent == root_id:
                return True
            parent = by_id[parent]["parent"]
        return False

    named = [s for s in spans if s["name"] not in excluded and under_root(s)]
    length = root["end"] - root["start"]
    covered = union_length(((s["start"], s["end"]) for s in named), root["start"], root["end"])
    return covered / length if length > 0 else 0.0
