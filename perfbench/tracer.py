"""In-memory spans recorded from outside the program.

A traced run wraps the public functions of each layer for its duration
(:meth:`Tracer.wrap`), so the program itself carries no benchmark code.
Spans nest through a per-thread stack; a thread started on behalf of a
span (the request timeout's worker thread, a server handler thread)
hangs its spans under that span via :meth:`Tracer.adopt`.  A span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from stats import union_length


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    detail: str = ""


class Tracer:
    """Collects spans and counts; undoes every patch on :meth:`restore`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].id if stack else getattr(self._local, "adopted", None)

    def adopt(self, parent: int | None) -> None:
        """Root this thread's next spans under *parent* (None: no parent)."""
        self._local.adopted = parent

    def begin(self, name: str, detail: str = "") -> Span:
        """Open a span on this thread; :meth:`end` closes it.  For a span
        whose start and end lie in different calls."""
        span = Span(next(self._ids), self.current(), name, self.clock(), detail=detail)
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().remove(span)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, detail: str = "") -> Iterator[Span]:
        span = self.begin(name, detail)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[object], object]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        raw = inspect.getattr_static(owner, attr)
        owned = attr in vars(owner)
        setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw, owned))

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""

        def make(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                with self.span(name, attr):
                    return original(*args, **kwargs)

            return timed

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def under(spans: Iterable[Span], root: str) -> list[Span]:
    """The spans whose outermost ancestor among *spans* is named *root*."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}

    def top(span: Span) -> Span:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span

    return [span for span in spans if top(span).name == root]


def rollup(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """``{span name: (count, summed self seconds)}``."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        row = table[span.name]
        row[0] += 1
        row[1] += own[span.id]
    return {name: (count, busy) for name, (count, busy) in table.items()}
