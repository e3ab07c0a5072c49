"""Unified observability: span tracing, metrics registry, profiling.

One subsystem replaces the repo's three disjoint counter systems and
zero-logging status quo:

- :mod:`repro.obs.trace` — ``trace(name, **attrs)`` span context
  manager (thread-safe, nestable) and the per-run :class:`TraceRecorder`
  serializing to JSONL; wired through every pipeline stage, every
  ingest phase, and every HTTP request;
- :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms that ``PipelineStats``, the
  schema-cache counters, and the serving layer all publish into; one
  ``registry.snapshot()`` shape plus Prometheus text exposition;
- :mod:`repro.obs.profile` — ``profiled(path)`` wraps a run in
  ``cProfile`` and writes ``.pstats`` (the CLI's ``--profile``).

The CLI exposes the tracer as ``--trace FILE`` on every corpus-running
command; the serving layer exposes the registry on ``/v1/metrics`` (JSON
by default, ``text/plain; version=0.0.4`` under content negotiation).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_registry,
)
from repro.obs.profile import (
    active_profile_path,
    merge_worker_profiles,
    profile_path_for,
    profiled,
)
from repro.obs.trace import (
    TRACE_LINE_SCHEMA,
    Span,
    TraceRecorder,
    active_recorder,
    current_span_id,
    install_recorder,
    read_trace,
    recording,
    trace,
    uninstall_recorder,
    validate_trace_line,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TRACE_LINE_SCHEMA",
    "TraceRecorder",
    "active_recorder",
    "active_profile_path",
    "current_span_id",
    "install_recorder",
    "merge_worker_profiles",
    "metrics_registry",
    "profile_path_for",
    "profiled",
    "read_trace",
    "recording",
    "trace",
    "uninstall_recorder",
    "validate_trace_line",
]
