"""Tests of the unified observability layer (:mod:`repro.obs`).

The metrics registry (one substrate behind ``--stats``,
``pipeline_stats.json`` and ``/metrics``), the span tracer (nestable,
thread-safe, JSONL-serializable), the profiling hook, and the
acceptance proof: a warm-cache run is provable from the emitted trace
alone — zero ``build_schema`` spans while every stage span is present.
"""

from __future__ import annotations

import json
import pstats
import re
import threading

import pytest

from repro.mining import run_funnel
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    active_recorder,
    metrics_registry,
    profile_path_for,
    profiled,
    read_trace,
    recording,
    trace,
    validate_trace_line,
)
from repro.pipeline import MeasurementPipeline, PipelineConfig, ProjectTask, SchemaCache
from repro.serve import ServiceMetrics

from tests.test_pipeline import tiny_corpus

#: One Prometheus exposition sample: `name{labels} value`.
PROMETHEUS_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$"
)
PROMETHEUS_COMMENT = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")


def assert_prometheus_parses(text: str) -> list[str]:
    """Line-by-line exposition-format check; returns the sample lines."""
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            assert PROMETHEUS_COMMENT.match(line), line
        else:
            assert PROMETHEUS_SAMPLE.match(line), line
            samples.append(line)
    return samples


class TestMetricsRegistry:
    def test_counter_series_are_distinct_per_labelset(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", kind="schema").inc()
        registry.counter("hits_total", kind="schema").inc(2)
        registry.counter("hits_total", kind="diff").inc()
        assert registry.value("hits_total", kind="schema") == 3
        assert registry.value("hits_total", kind="diff") == 1
        assert registry.value("hits_total", kind="absent") == 0

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n_total").inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_gauge_sets_and_moves(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("jobs")
        gauge.set(4)
        assert registry.value("jobs") == 4
        gauge.inc(-1)
        assert registry.value("jobs") == 3

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            h.observe(value)
        assert h.count == 3 and h.sum == pytest.approx(2.55)
        assert h.minimum == pytest.approx(0.05)
        assert h.maximum == pytest.approx(2.0)
        assert dict(h.cumulative()) == {"0.1": 1, "1.0": 2, "+Inf": 3}

    def test_snapshot_is_one_shape_for_everything(self):
        registry = MetricsRegistry()
        registry.counter("a_total", kind="x").inc(5)
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {'a_total{kind="x"}': 5}
        assert snap["gauges"] == {"b": 1.5}
        assert snap["histograms"]["c"]["count"] == 1
        json.dumps(snap)  # JSON-friendly end to end

    def test_label_values_rebuilds_classic_dicts(self):
        registry = MetricsRegistry()
        registry.counter("stage_seconds_total", stage="parse").inc(1.5)
        registry.counter("stage_seconds_total", stage="diff").inc(0.5)
        assert registry.label_values("stage_seconds_total", "stage") == {
            "parse": 1.5,
            "diff": 0.5,
        }

    def test_prometheus_text_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", endpoint="/taxa", status="200").inc()
        registry.gauge("repro_jobs").set(2)
        registry.histogram("repro_latency_seconds", buckets=(0.1,)).observe(0.05)
        samples = assert_prometheus_parses(registry.prometheus_text())
        text = registry.prometheus_text()
        assert 'repro_requests_total{endpoint="/taxa",status="200"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert len(samples) >= 5

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("t_total", path='a"b\\c').inc()
        text = registry.prometheus_text()
        assert 't_total{path="a\\"b\\\\c"} 1' in text

    def test_process_wide_registry_is_a_singleton(self):
        assert metrics_registry() is metrics_registry()

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.counter("n_total").inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("n_total") == 8000


class TestTracer:
    def test_disabled_tracing_yields_none(self):
        assert active_recorder() is None
        with trace("anything") as span:
            assert span is None

    def test_spans_nest_with_parent_links(self):
        with recording() as recorder:
            with trace("outer") as outer:
                with trace("inner", detail=1) as inner:
                    pass
        assert recorder.count("outer") == 1 and recorder.count("inner") == 1
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"detail": 1}

    def test_attrs_can_be_attached_in_flight(self):
        with recording() as recorder:
            with trace("req") as span:
                span.attrs["status"] = 200
        assert recorder.spans("req")[0].attrs["status"] == 200

    def test_recording_restores_previous_recorder(self):
        outer_recorder = TraceRecorder()
        with recording(outer_recorder):
            with recording() as inner_recorder:
                with trace("x"):
                    pass
            assert active_recorder() is outer_recorder
            assert inner_recorder.count("x") == 1
        assert active_recorder() is None
        assert outer_recorder.count("x") == 0

    def test_exceptions_still_record_the_span(self):
        with recording() as recorder:
            with pytest.raises(RuntimeError):
                with trace("doomed"):
                    raise RuntimeError("boom")
        assert recorder.count("doomed") == 1

    def test_jsonl_round_trip_validates_against_schema(self, tmp_path):
        with recording() as recorder:
            with trace("a", project="x/y"):
                with trace("b"):
                    pass
        path = recorder.write(tmp_path / "trace.jsonl")
        rows = read_trace(path)
        assert [row["name"] for row in rows] == ["b", "a"]  # finish order
        for row in rows:
            validate_trace_line(row)

    def test_validate_rejects_malformed_lines(self):
        good = {"span": 1, "parent": None, "name": "x", "ts": 0.0,
                "dur_ms": 0.1, "thread": "MainThread", "attrs": {}}
        validate_trace_line(good)
        with pytest.raises(ValueError):
            validate_trace_line({**good, "span": 0})
        with pytest.raises(ValueError):
            validate_trace_line({**good, "name": ""})
        with pytest.raises(ValueError):
            validate_trace_line({**good, "dur_ms": -1})
        with pytest.raises(ValueError):
            validate_trace_line([good])

    def test_tracing_is_thread_safe(self):
        def work():
            for _ in range(50):
                with trace("threaded"):
                    pass

        with recording() as recorder:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert recorder.count("threaded") == 200
        ids = [span.span_id for span in recorder.spans()]
        assert len(ids) == len(set(ids))  # run-unique ids across threads


class TestProfiled:
    def test_profiled_writes_loadable_pstats(self, tmp_path):
        target = tmp_path / "run.pstats"
        with profiled(target):
            sum(range(1000))
        stats = pstats.Stats(str(target))
        assert stats.total_calls > 0

    def test_profiled_none_is_a_no_op(self, tmp_path):
        with profiled(None) as profiler:
            assert profiler is None

    def test_profile_path_sits_next_to_the_trace(self):
        assert str(profile_path_for("out/trace.jsonl", "funnel")).endswith(
            "out/trace.pstats"
        )
        assert str(profile_path_for(None, "funnel")) == "repro-funnel.pstats"


class TestOneRegistryPerRun:
    """Acceptance: pipeline stats and cache counters share one registry."""

    def test_pipeline_and_cache_publish_into_one_registry(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        report = run_funnel(activity, lib_io, provider)
        stats = report.stats
        assert stats.registry is stats.cache.registry
        snap = stats.registry.snapshot()
        # Pipeline series and cache series live side by side.
        assert snap["counters"]["repro_pipeline_projects_total"] == 3
        assert snap["counters"]['repro_cache_misses_total{kind="schema"}'] > 0
        assert snap["gauges"]["repro_pipeline_jobs"] == 1
        # The classic views read the same numbers.
        assert stats.projects == 3
        assert stats.cache.schema_misses == snap["counters"][
            'repro_cache_misses_total{kind="schema"}'
        ]

    def test_stats_payload_carries_the_registry_snapshot(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        report = run_funnel(activity, lib_io, provider)
        payload = report.stats.payload()
        assert payload["registry"] == report.stats.registry.snapshot()
        assert set(payload["registry"]) == {"counters", "gauges", "histograms"}

    def test_stage_histograms_are_recorded(self):
        pipeline = MeasurementPipeline(lambda _: None, PipelineConfig())
        pipeline.run([ProjectTask("gone/repo", "schema.sql")])
        snap = pipeline.stats.snapshot()
        extract = snap["histograms"][
            'repro_pipeline_stage_duration_seconds{stage="extract"}'
        ]
        assert extract["count"] == 1

    def test_prometheus_exposition_of_a_pipeline_run(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        report = run_funnel(activity, lib_io, provider)
        assert_prometheus_parses(report.stats.registry.prometheus_text())


class TestServiceMetricsRegistry:
    def test_legacy_payload_and_prometheus_from_one_registry(self):
        metrics = ServiceMetrics()
        metrics.observe("/taxa", 200, 0.010, body_bytes=100)
        metrics.observe("/taxa", 200, 0.030, body_bytes=100)
        metrics.observe("/projects/{id}", 404, 0.001)
        payload = metrics.payload()
        assert payload["total_requests"] == 3
        taxa = payload["endpoints"]["/taxa"]
        assert taxa["requests"] == 2
        assert taxa["by_status"] == {"200": 2}
        assert taxa["bytes_sent"] == 200
        assert taxa["latency_ms"]["max"] >= taxa["latency_ms"]["min"] > 0
        assert payload["endpoints"]["/projects/{id}"]["by_status"] == {"404": 1}
        assert payload["registry"] == metrics.registry.snapshot()
        assert_prometheus_parses(metrics.prometheus_text())


STAGES = ("extract", "parse", "diff", "measure", "classify")


class TestWarmRunProvableFromTrace:
    """The acceptance criterion: a warm-cache re-run is provable from
    the emitted trace alone — the stage spans all ran, but zero
    ``build_schema`` (and ``diff_schemas``/``scan_create_table``)
    spans did any work."""

    def test_cold_run_traces_parses_warm_run_traces_none(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        cache = SchemaCache()

        with recording() as cold:
            run_funnel(activity, lib_io, provider, cache=cache)
        assert cold.count("build_schema") > 0
        assert cold.count("scan_create_table") > 0
        for stage in STAGES:
            assert cold.count(f"stage.{stage}") > 0

        with recording() as warm:
            run_funnel(activity, lib_io, provider, cache=cache)
        for stage in STAGES:
            assert warm.count(f"stage.{stage}") > 0  # the stages still ran
        assert warm.count("build_schema") == 0  # ...but did zero parse work
        assert warm.count("scan_create_table") == 0
        assert warm.count("diff_schemas") == 0

    def test_warm_proof_survives_jsonl_serialization(self, tmp_path):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        cache = SchemaCache()
        run_funnel(activity, lib_io, provider, cache=cache)
        with recording() as warm:
            run_funnel(activity, lib_io, provider, cache=cache)
        path = warm.write(tmp_path / "warm.jsonl")
        rows = read_trace(path)
        names = [row["name"] for row in rows]
        assert "build_schema" not in names
        assert "scan_create_table" not in names
        assert "diff_schemas" not in names
        assert {f"stage.{stage}" for stage in STAGES} <= set(names)
