"""Self-tests of the benchmark's own machinery, on synthetic inputs,
plus a tiny smoke of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import traffic  # noqa: E402
from tracer import Span, Tracer, rollup, self_times, under  # noqa: E402

from repro.loadgen.drivers import OpenLoopDriver, TransportResult  # noqa: E402
from repro.loadgen.workload import PlannedRequest  # noqa: E402


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert stats.tail_percentile(list(range(999)))[0] == 95.0
        pct, value, count = stats.tail_percentile(list(range(1000)))
        assert (pct, count) == (99.0, 1000)
        assert value == 989  # nearest rank 990 of 0..999; ten samples beyond

    def test_exactly_ten_beyond_qualifies(self):
        assert stats.samples_beyond(100, 90.0) == 10
        assert stats.tail_percentile(list(range(100)))[0] == 90.0
        assert stats.tail_percentile(list(range(99)))[0] == 50.0

    def test_too_few_samples_report_nothing(self):
        assert stats.tail_percentile(list(range(19))) is None
        assert stats.tail_percentile([]) is None

    def test_nearest_rank(self):
        assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
        assert stats.percentile([5, 1, 4, 2, 3], 100) == 5
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class StallingTransport:
    """Answers request ``/i`` after ``service[i]`` seconds."""

    def __init__(self, service: list[float]) -> None:
        self.service = service

    def send(self, path, headers, method="GET", body=None) -> TransportResult:
        time.sleep(self.service[int(path.strip("/"))])
        return TransportResult(status=200)


class TestDueTimeLatency:
    """Open-loop latency is timed from each request's due time, on
    loadgen's driver, as the serve workloads record it."""

    def run(self, service: list[float], rate: float) -> traffic.Samples:
        samples = traffic.Samples()
        plan = [PlannedRequest(index=i, family="get", path=f"/{i}") for i in range(len(service))]
        OpenLoopDriver(rate=rate, workers=1).run(plan, StallingTransport(service), samples)
        return samples

    def test_on_time_requests_measure_their_service_time(self):
        samples = self.run([0.001] * 5, rate=50)
        assert samples.latencies() == pytest.approx([0.001] * 5, abs=0.01)
        assert all(late < 0.01 for late in samples.lateness())

    def test_a_stall_counts_against_the_requests_queued_behind_it(self):
        # Request 0 stalls 200 ms; requests 1..3 were due at 20, 40, 60 ms.
        samples = self.run([0.2, 0.001, 0.001, 0.001], rate=50)
        assert samples.latencies() == pytest.approx([0.2, 0.181, 0.162, 0.143], abs=0.015)
        assert samples.lateness() == pytest.approx([0.0, 0.18, 0.16, 0.14], abs=0.015)


class TestSelfTime:
    def test_child_intervals_are_subtracted_once(self):
        spans = [
            Span(1, None, "parent", 0.0, 10.0),
            Span(2, 1, "child", 1.0, 3.0),
            Span(3, 1, "child", 2.0, 5.0),  # overlaps the first child
            Span(4, 1, "child", 8.0, 12.0),  # runs past its parent
            Span(5, 2, "grandchild", 1.5, 2.5),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[2] == pytest.approx(1.0)
        assert rollup(spans)["child"] == (3, pytest.approx(1.0 + 3.0 + 4.0))

    def test_adopted_thread_spans_hang_under_their_parent(self):
        import threading

        tracer = Tracer()
        with tracer.span("outer") as outer:

            def work() -> None:
                tracer.adopt(outer.id)
                with tracer.span("inner"):
                    pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        inner = next(span for span in tracer.spans if span.name == "inner")
        assert inner.parent == outer.id

    def test_a_frame_without_wrapped_children_is_all_self_time(self):
        # The outermost span of a job is never a layer: whatever no
        # wrapper covers inside it stays its own (unattributed) time.
        spans = [
            Span(1, None, "client", 0.0, 10.0),
            Span(2, 1, "frame", 1.0, 9.0),
            Span(3, 2, "layer", 2.0, 4.0),
            Span(4, None, "frame", 11.0, 12.0),  # not under a client: dropped
        ]
        kept = under(spans, "client")
        assert [span.id for span in kept] == [1, 2, 3]
        assert rollup(kept)["frame"] == (1, pytest.approx(6.0))
        assert rollup(kept)["client"] == (1, pytest.approx(2.0))

    def test_wrap_times_calls_and_restore_undoes_it(self):
        class Layer:
            def work(self, value):
                return value * 2

        tracer = Tracer()
        tracer.wrap(Layer, "work", "layer.work")
        assert Layer().work(21) == 42
        tracer.restore()
        assert "work" in vars(Layer) and Layer.work.__name__ == "work"
        assert [span.name for span in tracer.spans] == ["layer.work"]


WORKLOADS = ("funnel_report", "ingest_stream", "serve_hot", "serve_cold")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    """One short untraced run: the result line obeys the output contract."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "funnel_report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
