"""The resilience policy kernel and its wiring through the pipeline.

Unit tests of :mod:`repro.resilience` (retry backoff, deadlines,
circuit breaker, fault injector) on synthetic clocks — no sleeping —
plus integration proofs of the properties ISSUE-level chaos demands:
an injected-fault funnel completes and records every fault, the same
seed reproduces byte-identical failure records, retries actually
recover transient faults, and a crashed ingest resumes from its last
durable checkpoint.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    NO_RETRY,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    call_with_timeout,
    stable_fraction,
)


class FakeClock:
    """A hand-cranked monotonic clock so nothing here sleeps."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestStableFraction:
    def test_deterministic_and_in_unit_interval(self):
        values = [stable_fraction(f"key-{i}") for i in range(200)]
        assert values == [stable_fraction(f"key-{i}") for i in range(200)]
        assert all(0 <= v < 1 for v in values)

    def test_spreads_over_the_interval(self):
        values = [stable_fraction(f"key-{i}") for i in range(200)]
        assert min(values) < 0.2 and max(values) > 0.8


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, max_delay=0.5, multiplier=2.0, jitter=0.0
        )
        delays = [policy.delay_for(n) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_keyed_and_deterministic(self):
        policy = RetryPolicy(jitter=0.5)
        a = policy.delay_for(1, key="proj/a")
        b = policy.delay_for(1, key="proj/b")
        assert a != b  # different keys desynchronize
        assert a == policy.delay_for(1, key="proj/a")
        raw = policy.base_delay
        assert raw * 0.5 <= a <= raw * 1.5

    def test_execute_recovers_and_counts_attempts(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        result, attempts = policy.execute(flaky, sleep=lambda _: None)
        assert result == "ok" and attempts == 3

    def test_execute_raises_after_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(ValueError):
            policy.execute(lambda: (_ for _ in ()).throw(ValueError("x")),
                           sleep=lambda _: None)

    def test_deadline_exceeded_is_never_retried(self):
        calls = []

        def hopeless():
            calls.append(1)
            raise DeadlineExceeded("out of time")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(DeadlineExceeded):
            policy.execute(hopeless, sleep=lambda _: None)
        assert len(calls) == 1

    def test_expired_deadline_stops_retrying(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        calls = []

        def failing():
            calls.append(1)
            clock.advance(2.0)  # the first attempt burns the budget
            raise ValueError("slow failure")

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(ValueError):
            policy.execute(failing, deadline=deadline, sleep=lambda _: None)
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)

    def test_no_retry_is_the_identity_policy(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.delay_for(1) == 0.0


class TestDeadline:
    def test_counts_down_on_its_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == 10.0 and not deadline.expired
        clock.advance(4.0)
        assert deadline.remaining() == 6.0
        assert deadline.bound(100.0) == 6.0 and deadline.bound(1.0) == 1.0
        clock.advance(7.0)
        assert deadline.expired and deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded) as exc:
            deadline.check("parse")
        assert "parse" in str(exc.value)

    def test_unlimited_deadline_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired
        deadline.check()  # never raises
        assert deadline.bound(3.0) == 3.0

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1)


class TestCallWithTimeout:
    def test_returns_the_value(self):
        assert call_with_timeout(lambda: 42, 5.0) == 42
        assert call_with_timeout(lambda: 42, None) == 42  # inline, no thread

    def test_propagates_the_exception(self):
        def boom():
            raise KeyError("inner")

        with pytest.raises(KeyError):
            call_with_timeout(boom, 5.0)

    def test_times_out_a_hang(self):
        import time as _time

        started = _time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            call_with_timeout(lambda: _time.sleep(30), 0.05)
        assert _time.perf_counter() - started < 5.0

    def test_consecutive_calls_run_on_the_same_worker(self, fresh_worker_pool):
        threads = {call_with_timeout(threading.current_thread, 5.0) for _ in range(20)}
        assert len(threads) == 1
        assert threads != {threading.current_thread()}  # not inline

    def test_concurrent_callers_share_at_most_one_worker_each(self, fresh_worker_pool):
        callers, calls = 8, 50
        used: set[threading.Thread] = set()
        wrong: list[tuple] = []

        def caller(index: int) -> None:
            for n in range(calls):
                got, worker = call_with_timeout(
                    lambda: ((index, n), threading.current_thread()), 5.0
                )
                if got != (index, n):
                    wrong.append((index, n, got))
                used.add(worker)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(used) <= callers  # a worker is created only when none is idle

    def test_a_hung_worker_is_never_handed_out(self):
        release = threading.Event()
        hung: list[threading.Thread] = []

        def hang() -> None:
            hung.append(threading.current_thread())
            release.wait(30)

        try:
            with pytest.raises(DeadlineExceeded):
                call_with_timeout(hang, 0.05)
            started = time.perf_counter()
            assert call_with_timeout(threading.current_thread, 5.0) is not hung[0]
            assert time.perf_counter() - started < 1.0
        finally:
            release.set()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_can_still_call(self):
        call_with_timeout(lambda: None, 5.0)  # the parent has an idle worker
        pid = os.fork()
        if pid == 0:  # the child: exit with the verdict, run nothing else
            try:
                os._exit(0 if call_with_timeout(lambda: 42, 2.0) == 42 else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 10.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's call never returned")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            name="t", failure_threshold=2, reset_timeout=10.0, clock=clock
        )
        assert breaker.allow() and breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == 10.0
        clock.advance(10.0)
        # Half-open: exactly one probe goes through.
        assert breaker.allow() and breaker.state == breaker.HALF_OPEN
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == breaker.CLOSED and breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert not breaker.allow()  # a fresh open waits a full reset again

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED

    def test_guard_raises_circuit_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=9.0, clock=clock)
        breaker.guard()
        breaker.record_failure()
        with pytest.raises(CircuitOpen):
            breaker.guard()

    def test_publishes_registry_metrics(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            name="store", failure_threshold=1, reset_timeout=5.0,
            clock=clock, registry=registry,
        )
        assert registry.value("repro_breaker_open", breaker="store") == 0
        breaker.record_failure()
        assert registry.value("repro_breaker_open", breaker="store") == 1
        assert registry.value(
            "repro_breaker_transitions_total", breaker="store", to="open"
        ) == 1
        breaker.allow()
        assert registry.value("repro_breaker_rejections_total", breaker="store") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0)


class TestFaultInjector:
    def test_targets_are_a_pure_function_of_the_seed(self):
        keys = [f"proj/{i}" for i in range(100)]
        a = FaultInjector(seed=7, rate=0.3)
        b = FaultInjector(seed=7, rate=0.3)
        c = FaultInjector(seed=8, rate=0.3)
        hits_a = [k for k in keys if a.targets("parse", k)]
        assert hits_a == [k for k in keys if b.targets("parse", k)]
        assert hits_a != [k for k in keys if c.targets("parse", k)]
        assert 10 <= len(hits_a) <= 50  # ~30 of 100

    def test_rate_bounds(self):
        keys = [f"proj/{i}" for i in range(20)]
        nothing = FaultInjector(seed=1, rate=0.0)
        everything = FaultInjector(seed=1, rate=1.0)
        assert not any(nothing.targets("parse", k) for k in keys)
        assert all(everything.targets("parse", k) for k in keys)

    def test_site_restriction(self):
        injector = FaultInjector(seed=1, rate=1.0, sites=("persist",))
        assert injector.targets("persist", "proj/a")
        assert not injector.targets("parse", "proj/a")

    def test_fail_attempts_lets_retries_recover(self):
        injector = FaultInjector(seed=1, rate=1.0, fail_attempts=2)
        assert injector.should_fail("parse", "proj/a", attempt=1)
        assert injector.should_fail("parse", "proj/a", attempt=2)
        assert not injector.should_fail("parse", "proj/a", attempt=3)
        with pytest.raises(InjectedFault) as exc:
            injector.check("parse", "proj/a", attempt=1)
        assert exc.value.site == "parse" and exc.value.key == "proj/a"
        injector.check("parse", "proj/a", attempt=3)  # does not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(seed=1, rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(seed=1, fail_attempts=0)


# -- integration: the funnel under chaos --------------------------------


def _corpus():
    from tests.test_store import small_corpus

    return small_corpus()


class TestFunnelChaos:
    def test_injected_faults_complete_as_failure_records(self):
        from repro.mining.funnel import run_funnel

        activity, lib_io, repos = _corpus()
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        injector = FaultInjector(seed=11, rate=1.0, sites=("parse",))
        report = run_funnel(
            activity, lib_io, repos.get, retry=retry, injector=injector
        )
        # Every project that reaches the parse stage fails — but the
        # funnel still completes and records each fault with its
        # consumed attempt budget.
        assert report.studied == [] and report.rigid == []
        assert len(report.failures) == 3
        for failure in report.failures:
            assert failure.stage == "parse"
            assert failure.error == "InjectedFault"
            assert failure.attempts == retry.max_attempts
        assert report.stats.faults_injected >= 3
        assert report.stats.retries >= 3

    def test_same_seed_means_byte_identical_failures(self):
        from repro.mining.funnel import run_funnel

        activity, lib_io, repos = _corpus()
        injector = FaultInjector(seed=23, rate=0.5, sites=("parse",))
        kwargs = dict(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            injector=injector,
        )
        first = run_funnel(activity, lib_io, repos.get, **kwargs)
        second = run_funnel(activity, lib_io, repos.get, **kwargs)
        blob = lambda report: json.dumps(  # noqa: E731
            [f.payload() for f in report.failures], sort_keys=True
        )
        assert blob(first) == blob(second)
        # The failed set is exactly the injector's predicted target set.
        predicted = {
            name for name in ("ok/alpha", "ok/beta", "ok/rigid")
            if injector.targets("parse", name)
        }
        assert {f.project for f in first.failures} == predicted

    def test_retries_recover_transient_faults(self):
        from repro.mining.funnel import run_funnel

        activity, lib_io, repos = _corpus()
        clean = run_funnel(activity, lib_io, repos.get)
        chaotic = run_funnel(
            activity, lib_io, repos.get,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            injector=FaultInjector(
                seed=11, rate=1.0, sites=("parse",), fail_attempts=1
            ),
        )
        # One injected failing attempt per project; attempt two lands.
        assert chaotic.failures == []
        assert [p.name for p in chaotic.studied] == [p.name for p in clean.studied]
        assert [p.name for p in chaotic.rigid] == [p.name for p in clean.rigid]
        assert chaotic.stats.retries >= 3
        assert chaotic.stats.recovered >= 3

    def test_project_deadline_records_deadline_failures(self):
        from repro.mining.funnel import run_funnel

        activity, lib_io, repos = _corpus()
        report = run_funnel(
            activity, lib_io, repos.get,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
            project_deadline=1e-9,
        )
        # All four tasks (even the vanished repo) expire before extract.
        assert len(report.failures) == 4
        for failure in report.failures:
            assert failure.error == "DeadlineExceeded"
            assert failure.attempts == 1  # deadlines are not retryable


# -- integration: checkpointed, resumable ingest -------------------------


class TestIngestResume:
    def test_crash_mid_ingest_resumes_from_the_checkpoint(self, tmp_path, monkeypatch):
        from repro.store import (
            INGEST_CHECKPOINT_KEY,
            CorpusStore,
            ingest_corpus,
        )

        activity, lib_io, repos = _corpus()
        store = CorpusStore(tmp_path / "corpus.db")
        original = store.persist_context
        written = []

        def dying_persist(ctx, fingerprint):
            if len(written) >= 2:
                raise RuntimeError("disk full")
            written.append(ctx.task.repo_name)
            return original(ctx, fingerprint)

        monkeypatch.setattr(store, "persist_context", dying_persist)
        with pytest.raises(RuntimeError, match="disk full"):
            ingest_corpus(store, activity, lib_io, repos.get, chunk_size=2)

        # The first chunk is durable and the checkpoint survived the crash.
        checkpoint = json.loads(store.get_meta(INGEST_CHECKPOINT_KEY))
        assert checkpoint["phase"] == "measure"
        assert checkpoint["persisted"] == 2
        assert store.project_count() == 2

        monkeypatch.setattr(store, "persist_context", original)
        report = ingest_corpus(store, activity, lib_io, repos.get, chunk_size=2)
        assert report.resumed_from == "measure"
        # The fingerprint pass proves the crashed run's prefix unchanged;
        # only the lost chunk is re-measured.
        assert report.skipped_unchanged == 2
        assert report.measured == 2
        assert store.project_count() == 4
        # A completed run clears its checkpoint.
        assert store.get_meta(INGEST_CHECKPOINT_KEY) is None
        follow_up = ingest_corpus(store, activity, lib_io, repos.get)
        assert follow_up.resumed_from is None
        assert follow_up.measured == 0 and follow_up.skipped_unchanged == 4
        store.close()

    def test_transient_persist_faults_recover_under_retry(self):
        from repro.store import CorpusStore, ingest_corpus

        activity, lib_io, repos = _corpus()
        store = CorpusStore(":memory:")
        report = ingest_corpus(
            store, activity, lib_io, repos.get,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            injector=FaultInjector(
                seed=5, rate=1.0, sites=("persist",), fail_attempts=1
            ),
        )
        assert report.failed == 0
        assert report.measured == 4
        registry = report.stats.registry
        assert registry.value("repro_ingest_persist_retries_total") >= 4
        assert registry.value("repro_ingest_persist_recovered_total") >= 4
        store.close()

    def test_exhausted_persist_leaves_a_sentinel_that_remeasures(self):
        from repro.store import (
            PERSIST_FAILED_FINGERPRINT,
            CorpusStore,
            ingest_corpus,
        )

        activity, lib_io, repos = _corpus()
        store = CorpusStore(":memory:")
        chaotic = ingest_corpus(
            store, activity, lib_io, repos.get,
            injector=FaultInjector(seed=5, rate=1.0, sites=("persist",)),
        )
        # Every persist failed, so every project is recorded as a
        # persist-stage failure under the sentinel fingerprint.
        assert chaotic.failed == 4
        failures = store.failures()
        assert {f.stage for f in failures} == {"persist"}
        assert all(f.error == "InjectedFault" for f in failures)
        assert set(store.fingerprints().values()) == {PERSIST_FAILED_FINGERPRINT}

        # The sentinel never matches a real fingerprint: a healthy
        # re-ingest re-measures everything instead of trusting it.
        healthy = ingest_corpus(store, activity, lib_io, repos.get)
        assert healthy.skipped_unchanged == 0
        assert healthy.measured == 4
        assert healthy.failed == 0
        assert store.failure_count() == 0
        store.close()
