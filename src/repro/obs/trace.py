"""A lightweight span tracer with per-run JSONL recording.

``trace(name, **attrs)`` is a context manager that measures one unit of
work.  Spans nest (a per-thread stack links children to parents), are
thread-safe (the parallel pipeline traces from many workers into one
recorder), and cost almost nothing when no recorder is installed — the
context manager short-circuits before taking any lock.

A :class:`TraceRecorder` collects the finished spans of one run and
serializes them to JSONL, one object per line:

.. code-block:: json

    {"span": 3, "parent": 1, "name": "stage.parse", "ts": 1723.5,
     "dur_ms": 1.234, "thread": "MainThread", "attrs": {"project": "a/b"}}

``span`` is a run-unique id (ints from 1), ``parent`` links to the
enclosing span on the same thread (``null`` at the root), ``ts`` is the
wall-clock start (``time.time()``), and ``dur_ms`` is measured with
``perf_counter``.  :func:`validate_trace_line` is the schema those
lines are contract-tested (and CI-smoked) against.

The trace is the proof artifact for every caching/scaling claim: a
warm-cache run is warm *iff* its trace contains zero ``build_schema``
spans while the ``stage.*`` spans are all present.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: The JSONL schema: required key -> accepted types.
TRACE_LINE_SCHEMA: dict[str, tuple[type, ...]] = {
    "span": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "ts": (int, float),
    "dur_ms": (int, float),
    "thread": (str,),
    "attrs": (dict,),
}


@dataclass
class Span:
    """One finished (or in-flight) unit of traced work."""

    span_id: int
    parent_id: int | None
    name: str
    start_ts: float
    thread: str
    attrs: dict = field(default_factory=dict)
    duration: float = 0.0

    def payload(self) -> dict:
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "ts": round(self.start_ts, 6),
            "dur_ms": round(self.duration * 1000, 3),
            "thread": self.thread,
            "attrs": self.attrs,
        }


class TraceRecorder:
    """Collects one run's spans; serializes them to JSONL."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self, name: str | None = None) -> list[Span]:
        with self._lock:
            if name is None:
                return list(self._spans)
            return [span for span in self._spans if span.name == name]

    def count(self, name: str) -> int:
        return len(self.spans(name))

    def names(self) -> set[str]:
        return {span.name for span in self.spans()}

    def adopt(
        self,
        payloads: list[dict],
        parent_id: int | None = None,
        thread: str | None = None,
    ) -> int:
        """Graft spans recorded in another process onto this recorder.

        *payloads* is a list of :meth:`Span.payload` dicts from a worker
        recorder.  Span ids are re-assigned from this recorder's counter
        (worker-local ids would collide across workers), parent links
        inside the batch are remapped, and root spans of the batch are
        attached under *parent_id* (typically the parent's in-flight
        ``pipeline.run`` span).  *thread* relabels the origin so merged
        traces show which worker produced what.  Returns the number of
        spans adopted.
        """
        mapping = {payload["span"]: self.next_id() for payload in payloads}
        for payload in payloads:
            original_parent = payload["parent"]
            span = Span(
                span_id=mapping[payload["span"]],
                parent_id=(
                    mapping.get(original_parent, parent_id)
                    if original_parent is not None
                    else parent_id
                ),
                name=payload["name"],
                start_ts=payload["ts"],
                thread=thread if thread is not None else payload["thread"],
                attrs=dict(payload["attrs"]),
                duration=payload["dur_ms"] / 1000,
            )
            self.record(span)
        return len(payloads)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(span.payload(), sort_keys=True) for span in self.spans()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path


def validate_trace_line(obj: object) -> dict:
    """Check one parsed JSONL line against the documented schema.

    Returns the dict on success; raises :class:`ValueError` naming the
    first violated field otherwise.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"trace line must be an object, got {type(obj).__name__}")
    for key, types in TRACE_LINE_SCHEMA.items():
        if key not in obj:
            raise ValueError(f"trace line missing key {key!r}")
        if not isinstance(obj[key], types):
            raise ValueError(
                f"trace line key {key!r} has type {type(obj[key]).__name__}"
            )
    if isinstance(obj["span"], bool) or obj["span"] < 1:
        raise ValueError("span id must be a positive integer")
    if not obj["name"]:
        raise ValueError("span name must be non-empty")
    if obj["dur_ms"] < 0:
        raise ValueError("dur_ms must be >= 0")
    return obj


def read_trace(path: str | Path) -> list[dict]:
    """Parse and validate a trace JSONL file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [validate_trace_line(json.loads(line)) for line in lines if line]


# -- the installed recorder + per-thread span stacks ----------------------

_install_lock = threading.Lock()
_recorder: TraceRecorder | None = None
_stacks = threading.local()


def install_recorder(recorder: TraceRecorder) -> TraceRecorder:
    """Make *recorder* the process's active trace sink."""
    global _recorder
    with _install_lock:
        _recorder = recorder
    return recorder


def uninstall_recorder() -> TraceRecorder | None:
    """Stop recording; returns the recorder that was active."""
    global _recorder
    with _install_lock:
        previous, _recorder = _recorder, None
    return previous


def active_recorder() -> TraceRecorder | None:
    return _recorder


def current_span_id() -> int | None:
    """The id of the innermost in-flight span on this thread (or None).

    The worker pool uses this to graft worker spans under the parent's
    ``pipeline.run`` span when merging traces across processes.
    """
    if _recorder is None:
        return None
    stack = getattr(_stacks, "stack", None)
    return stack[-1] if stack else None


def reset_tracing_for_worker() -> None:
    """Drop tracing state a forked worker inherited from its parent.

    After ``fork`` the child's surviving thread still carries the
    parent's span stack and installed recorder; a worker must start from
    a clean slate or its spans would chain to span ids that only exist
    in the parent process.
    """
    global _recorder
    with _install_lock:
        _recorder = None
    _stacks.stack = []


@contextmanager
def recording(recorder: TraceRecorder | None = None) -> Iterator[TraceRecorder]:
    """Install a recorder for the duration of a block (restores the
    previous one on exit), yielding it for inspection."""
    global _recorder
    own = recorder if recorder is not None else TraceRecorder()
    with _install_lock:
        previous, _recorder = _recorder, own
    try:
        yield own
    finally:
        with _install_lock:
            _recorder = previous


@contextmanager
def trace(name: str, **attrs) -> Iterator[Span | None]:
    """Measure one unit of work as a span.

    Yields the in-flight :class:`Span` so callers can attach result
    attributes (``span.attrs["status"] = 200``), or ``None`` when no
    recorder is installed — the disabled path does no locking and
    allocates nothing but the generator frame.
    """
    recorder = _recorder
    if recorder is None:
        yield None
        return
    stack = getattr(_stacks, "stack", None)
    if stack is None:
        stack = _stacks.stack = []
    span = Span(
        span_id=recorder.next_id(),
        parent_id=stack[-1] if stack else None,
        name=name,
        start_ts=time.time(),
        thread=threading.current_thread().name,
        attrs=dict(attrs),
    )
    stack.append(span.span_id)
    started = time.perf_counter()
    try:
        yield span
    finally:
        span.duration = time.perf_counter() - started
        stack.pop()
        recorder.record(span)
