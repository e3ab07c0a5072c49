"""The resilience policy kernel: retries, deadlines, circuit breaking.

Long mining runs over messy real-world corpora fail in boring,
recoverable ways — a flaky clone, a transiently locked store, one
pathological repository that never terminates.  The policies here turn
those into bounded, observable events:

- :class:`RetryPolicy` — exponential backoff whose jitter is *derived*
  (sha256 of the retry key), so two runs of the same corpus schedule
  identical delays and stay byte-for-byte reproducible.
- :class:`Deadline` — a monotonic time budget threaded through a unit
  of work; ``check()`` raises :class:`DeadlineExceeded` the moment the
  budget is gone, and :func:`call_with_timeout` bounds calls that
  cannot be instrumented from the inside (a hung store read).
- :class:`CircuitBreaker` — the classic closed/open/half-open machine
  guarding a shared dependency, publishing its state transitions into a
  metrics registry when one is attached.

Everything is stdlib-only and dependency-free so any layer (pipeline,
ingest, serve, CLI) can import it without cycles.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

T = TypeVar("T")


class ResilienceError(RuntimeError):
    """Base class of every failure the resilience layer raises itself."""


class DeadlineExceeded(ResilienceError):
    """A time budget ran out; not retryable (retrying cannot add time)."""


class CircuitOpen(ResilienceError):
    """A call was refused because its circuit breaker is open."""


def stable_fraction(key: str) -> float:
    """A uniform-ish float in ``[0, 1)`` derived from *key* alone.

    The shared determinism primitive of this package: retry jitter and
    fault-injection decisions both hash their way to randomness so a
    re-run with the same inputs makes the same choices.
    """
    digest = hashlib.sha256(key.encode("utf-8", errors="replace")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and derived jitter.

    ``max_attempts`` counts the first try: ``1`` means "no retries".
    The delay before attempt ``n + 1`` is ``base_delay * multiplier**
    (n - 1)`` capped at ``max_delay``, then spread by ``±jitter`` using
    :func:`stable_fraction` of the retry key — deterministic, but
    different keys (projects) desynchronize instead of thundering.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in 0..1, got {self.jitter}")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed attempt *attempt* (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and raw > 0:
            spread = 2 * stable_fraction(f"{key}|retry|{attempt}") - 1
            raw *= 1 + self.jitter * spread
        return max(0.0, raw)

    def execute(
        self,
        fn: Callable[[], T],
        key: str = "",
        deadline: "Deadline | None" = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> tuple[T, int]:
        """Call *fn* under this policy; returns ``(result, attempts)``.

        :class:`DeadlineExceeded` is never retried — a fresh attempt
        cannot buy time back.  The last failure propagates unchanged
        once the budget (attempts or deadline) is spent.
        """
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(), attempt
            except Exception as exc:
                last = exc
                retryable = (
                    attempt < self.max_attempts
                    and not isinstance(exc, DeadlineExceeded)
                    and (deadline is None or not deadline.expired)
                )
                if not retryable:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                delay = self.delay_for(attempt, key)
                if deadline is not None:
                    delay = deadline.bound(delay)
                if delay > 0:
                    sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises


#: The identity policy: one attempt, no delays.  The pipeline default,
#: so resilience is strictly opt-in and legacy runs are unchanged.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


class Deadline:
    """A monotonic time budget.  ``seconds=None`` never expires.

    The clock is injectable so tests (and the breaker below) can run
    on synthetic time instead of sleeping.
    """

    __slots__ = ("seconds", "_clock", "_expires_at")

    def __init__(
        self,
        seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    def remaining(self) -> float:
        """Seconds left; ``inf`` for an unlimited deadline, floored at 0."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self.remaining() == 0.0

    def bound(self, delay: float) -> float:
        """Clip a wait so it never outlives the budget."""
        return max(0.0, min(delay, self.remaining()))

    def check(self, label: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            where = f" at {label}" if label else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds}s exceeded{where}"
            )


class _Worker:
    """A daemon thread that runs calls one at a time for its pool."""

    def __init__(self, pool: "_WorkerPool") -> None:
        self._pool = pool
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, daemon=True, name="deadline-call").start()

    def submit(self, fn: Callable[[], object]) -> tuple[dict, threading.Event]:
        box: dict[str, object] = {}
        done = threading.Event()
        self._calls.put((fn, box, done))
        return box, done

    def _serve(self) -> None:
        while True:
            fn, box, done = self._calls.get()
            try:
                box["value"] = fn()
            except BaseException as exc:  # rethrown on the calling thread
                box["error"] = exc
            # Idle again before the caller wakes, so the caller's next
            # call finds this worker; a hung fn never gets here.
            self._pool.release(self)
            done.set()
            del fn, box, done  # hold nothing of a finished call


class _WorkerPool:
    """The idle workers of :func:`call_with_timeout`.

    A worker rejoins its pool only after its call returns, so one stuck
    in a hang is never handed out; the most recently idle worker goes
    first.  Reusing threads keeps per-thread state — a store's sqlite
    connection and content-hash cache — alive across calls, so there
    are only as many as there were concurrent calls.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []

    def acquire(self) -> _Worker:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return _Worker(self)

    def release(self, worker: _Worker) -> None:
        with self._lock:
            self._idle.append(worker)


def require_positive_timeout(seconds: float) -> None:
    """Raise :class:`ValueError` unless *seconds* is a positive bound."""
    if seconds is None or not seconds > 0:
        raise ValueError(f"timeout must be positive, got {seconds}")


#: One pool per process: ``call_with_timeout(fn, seconds)`` takes none.
_POOL = _WorkerPool()


def _new_pool_after_fork() -> None:
    """In a forked child: the parent's worker threads did not survive."""
    global _POOL
    _POOL = _WorkerPool()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_new_pool_after_fork)


def call_with_timeout(fn: Callable[[], T], seconds: float) -> T:
    """Run *fn* bounded by *seconds*, raising :class:`DeadlineExceeded`.

    The call runs on a reused idle daemon worker (a new one only when
    none is idle) so a hang (a wedged store read, a blocked socket)
    cannot pin the caller; the abandoned worker keeps running, its
    result is discarded, and it is not handed out again until *fn*
    returns.  *seconds* must be positive (:class:`ValueError`
    otherwise): an unbounded wait would hang with *fn*.
    """
    require_positive_timeout(seconds)
    box, done = _POOL.acquire().submit(fn)
    done.wait(seconds)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    if "value" in box:
        return box["value"]  # type: ignore[return-value]
    raise DeadlineExceeded(f"call exceeded its {seconds}s deadline")


class CircuitBreaker:
    """Closed/open/half-open guard around one shared dependency.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``reset_timeout`` seconds one probe call is let through (half-open)
    and its outcome closes or re-opens the breaker.  Thread-safe; the
    serving layer shares one instance across handler threads.

    When a registry is attached the breaker publishes::

        repro_breaker_open{breaker=...}                 gauge (1 = open)
        repro_breaker_transitions_total{breaker=,to=}   counter
        repro_breaker_rejections_total{breaker=...}     counter
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        name: str = "default",
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        registry=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be positive, got {reset_timeout}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._registry = registry
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        if registry is not None:
            registry.gauge("repro_breaker_open", breaker=name).set(0)

    # -- state machine ------------------------------------------------------

    def _transition(self, state: str) -> None:
        self._state = state
        self._probing = False
        if self._registry is not None:
            self._registry.gauge("repro_breaker_open", breaker=self.name).set(
                int(state == self.OPEN)
            )
            self._registry.counter(
                "repro_breaker_transitions_total", breaker=self.name, to=state
            ).inc()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one probe.)"""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.reset_timeout:
                    self._count_rejection()
                    return False
                self._transition(self.HALF_OPEN)
            # Half-open: exactly one in-flight probe at a time.
            if self._probing:
                self._count_rejection()
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(self.OPEN)
                return
            self._failures += 1
            if self._state == self.CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition(self.OPEN)

    def retry_after(self) -> float:
        """Seconds until the next probe may run (0 when calls may flow)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_timeout - (self._clock() - self._opened_at))

    def guard(self) -> None:
        """Raise :class:`CircuitOpen` unless a call may proceed."""
        if not self.allow():
            raise CircuitOpen(
                f"circuit {self.name!r} is open; retry in {self.retry_after():.1f}s"
            )

    def _count_rejection(self) -> None:
        if self._registry is not None:
            self._registry.counter(
                "repro_breaker_rejections_total", breaker=self.name
            ).inc()
