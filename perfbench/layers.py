"""Which public functions a traced run wraps, and the per-layer table.

Span names are ``<module>.<layer>`` after the program's packages, so a
row of the table names the code it times.  The stage split of
``pipeline.run`` comes from the ``PipelineStats`` the pipeline returns
(worker processes report their stage time there).

A job's outermost call is never wrapped as a layer: the benchmark's
own ``bench`` span (funnel, ingest) or the server's request frame
(serve) encloses it, and that span's self time, everything inside the
job that no wrapper covers, is the table's ``unattributed`` row.
"""

from __future__ import annotations

import threading

from tracer import Span, Tracer, rollup

from repro.core import analysis as analysis_mod
from repro.mining import funnel as funnel_mod
from repro.pipeline.pipeline import MeasurementPipeline
from repro.reporting.experiments import ExperimentSuite
from repro.resilience.policy import CircuitBreaker
from repro.serve import server as server_mod
from repro.serve import service as service_mod
from repro.store import ingest as ingest_mod
from repro.store import store as store_mod
from repro.store.store import CorpusStore
from repro.synthesis import corpus as corpus_mod
from repro.synthesis import stream as stream_mod

STAGES = ("extract", "parse", "diff", "measure", "classify")

#: Every per-layer metric a traced run prints: (name, unit, better).
#: ``busy_s`` is self time per job: a corpus (funnel_report), a first
#: plus a second pass (ingest_stream), a request (serve workloads).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("synthesis.busy_s", "s", "lower"),
    ("vcs.extract.busy_s", "s", "lower"),
    ("store.fingerprint.busy_s", "s", "lower"),
    ("store.lookup.count", "count", "lower"),
    ("store.lookup.busy_s", "s", "lower"),
    ("store.persist.count", "count", "lower"),
    ("store.persist.busy_s", "s", "lower"),
    ("store.checkpoint.busy_s", "s", "lower"),
    ("store.analyze.busy_s", "s", "lower"),
    ("store.bytes_per_project", "B", "lower"),
    ("store.reingest_s", "s", "lower"),
    ("pipeline.run.count", "count", "lower"),
    ("pipeline.run.busy_s", "s", "lower"),
    ("pipeline.dispatch_s", "s", "lower"),
    *((f"pipeline.stage.{stage}.busy_s", "s", "lower") for stage in STAGES),
    ("pipeline.cache.schema_hit_ratio", "ratio", "higher"),
    ("schema.build.count", "count", "lower"),
    ("mining.select.busy_s", "s", "lower"),
    ("core.analysis.busy_s", "s", "lower"),
    ("reporting.render.busy_s", "s", "lower"),
    ("serve.http.self_ms", "ms", "lower"),
    ("resilience.timeout.overhead_ms", "ms", "lower"),
    ("resilience.timeout.threads", "count", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.lookup_us", "us", "lower"),
    ("store.content_hash.ms", "ms", "lower"),
    ("store.content_hash.rescans", "count", "lower"),
    ("store.connections.opened", "count", "lower"),
    ("store.query.count", "count", "lower"),
    ("store.query.busy_s", "s", "lower"),
    ("serve.route.busy_s", "s", "lower"),
    ("serve.render.count", "count", "lower"),
    ("serve.render.busy_s", "s", "lower"),
    ("serve.gzip.count", "count", "lower"),
    ("serve.gzip.busy_s", "s", "lower"),
    ("advisor.advise.ms", "ms", "lower"),
    ("store.record_advice.ms", "ms", "lower"),
    ("serve.breaker.failures", "count", "lower"),
    ("client.self_ms", "ms", "lower"),
    ("client.late_ms", "ms", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.write_p90_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Store methods the serve routes read through.
SERVE_QUERIES = (
    "get_project", "version_rows", "heartbeat_rows", "query_projects",
    "taxa_summary", "taxa_by_dialect", "aggregates", "project_history",
    "lookup_advice", "failures", "failure_count", "query_failures",
)


# -- instrumentation --------------------------------------------------------


def instrument_funnel(tracer: Tracer) -> None:
    tracer.wrap(corpus_mod, "build_corpus", "synthesis")
    tracer.wrap(funnel_mod, "select_lib_io", "mining.select")
    tracer.wrap(funnel_mod, "choose_ddl_file", "mining.select")
    tracer.wrap(MeasurementPipeline, "run", "pipeline.run")
    tracer.wrap(analysis_mod, "analyze_corpus", "core.analysis")
    tracer.wrap(ExperimentSuite, "render_all", "reporting.render")


def instrument_ingest(tracer: Tracer) -> None:
    tracer.wrap(stream_mod, "synthesize_project", "synthesis")
    tracer.wrap(ingest_mod, "extract_file_history", "vcs.extract")
    tracer.wrap(ingest_mod, "usable_versions", "vcs.extract")
    tracer.wrap(ingest_mod, "history_fingerprint", "store.fingerprint")
    tracer.wrap(CorpusStore, "get_project", "store.lookup")
    tracer.wrap(CorpusStore, "persist_batch", "store.persist")
    for method in ("get_meta", "set_meta", "delete_meta", "record_funnel_front"):
        tracer.wrap(CorpusStore, method, "store.checkpoint")
    tracer.wrap(CorpusStore, "analyze", "store.analyze")
    tracer.wrap(CorpusStore, "aggregates", "store.query")
    tracer.wrap(MeasurementPipeline, "run", "pipeline.run")


class _CountingModule:
    """A module stand-in that counts (and optionally times) one function."""

    def __init__(self, module, attr: str, tracer: Tracer, span: str | None) -> None:
        self._module = module
        self._attr = attr
        self._tracer = tracer
        self._span = span

    def __getattr__(self, name: str):
        original = getattr(self._module, name)
        if name != self._attr:
            return original
        tracer, span = self._tracer, self._span

        def counted(*args, **kwargs):
            tracer.count(f"{self._module.__name__}.{name}")
            if span is None:
                return original(*args, **kwargs)
            with tracer.span(span, name):
                return original(*args, **kwargs)

        return counted


def instrument_serve(tracer: Tracer) -> None:
    """Wrap the request path of an in-process server.

    Each request gets a ``serve.request`` frame from the parse of its
    request line (the wait for that line on a keep-alive connection
    stays outside) until the handler returns after the flush.  The
    client sends its span id in ``X-Bench-Span``; once the headers are
    parsed, the frame hangs under the client's span.  The timeout's
    worker thread adopts the ``resilience.timeout`` span.
    """
    handler = server_mod.CorpusRequestHandler
    frames = threading.local()  # the handler thread's open frame

    def parsing(original):
        def parse_request(self_):
            frames.open = frame = tracer.begin("serve.request")
            with tracer.span("serve.http", "parse_request"):
                parsed = original(self_)
            headers = getattr(self_, "headers", None)
            parent = headers.get("X-Bench-Span", "") if headers is not None else ""
            frame.parent = int(parent) if parent.isdigit() else None
            return parsed

        return parse_request

    def framing(original):
        def handle_one_request(self_):
            frames.open = None
            try:
                return original(self_)
            finally:
                if frames.open is not None:
                    tracer.end(frames.open)
                    frames.open = None

        return handle_one_request

    tracer.patch(handler, "handle_one_request", framing)
    tracer.patch(handler, "parse_request", parsing)
    for method in ("do_GET", "do_POST"):
        tracer.wrap(handler, method, "serve.http")
    tracer.wrap(server_mod.CorpusServer, "guarded_handle", "serve.guard")

    def bounded(original):
        def call_with_timeout(fn, seconds):
            with tracer.span("resilience.timeout") as span:
                if seconds is not None:
                    tracer.count("resilience.timeout.threads")

                def adopted():
                    tracer.adopt(span.id)
                    try:
                        with tracer.span("serve.guard", "call"):
                            return fn()
                    finally:
                        tracer.adopt(None)

                return original(adopted, seconds)

        return call_with_timeout

    tracer.patch(server_mod, "call_with_timeout", bounded)
    tracer.wrap(service_mod.CorpusService, "handle_rendered", "serve.route")
    tracer.wrap(service_mod.CorpusService, "handle", "serve.route")

    def looked_up(original):
        def lookup(self_, key, content_hash):
            with tracer.span("serve.cache", "lookup"):
                found = original(self_, key, content_hash)
            tracer.count("serve.cache.lookups")
            if found is not None:
                tracer.count("serve.cache.hits")
            return found

        return lookup

    tracer.patch(service_mod.ResponseCache, "lookup", looked_up)
    tracer.wrap(service_mod.ResponseCache, "store", "serve.cache")
    tracer.wrap(service_mod, "render_body", "serve.render")
    tracer.wrap(server_mod, "render_body", "serve.render")
    tracer.wrap(service_mod, "advise", "advisor.advise")
    tracer.wrap(CorpusStore, "content_hash", "store.content_hash")
    tracer.wrap(CorpusStore, "record_advice", "store.record_advice")
    for method in SERVE_QUERIES:
        tracer.wrap(CorpusStore, method, "store.query")

    def counted(original):
        def compute_content_hash(*args, **kwargs):
            tracer.count("store.content_hash.rescans")
            return original(*args, **kwargs)

        return compute_content_hash

    tracer.patch(store_mod, "compute_content_hash", counted)
    tracer.patch(store_mod, "sqlite3", lambda mod: _CountingModule(mod, "connect", tracer, None))
    tracer.patch(
        server_mod, "gzip", lambda mod: _CountingModule(mod, "compress", tracer, "serve.gzip")
    )

    def failing(original):
        def record_failure(self_):
            tracer.count("serve.breaker.failures")
            return original(self_)

        return record_failure

    tracer.patch(CircuitBreaker, "record_failure", failing)


# -- the table ---------------------------------------------------------------


def expand_pipeline(
    rows: dict[str, tuple[int, float]], stage_busy: dict[str, float], jobs: int
) -> dict[str, tuple[int, float]]:
    """Split ``pipeline.run`` self time into stage shares and dispatch.

    Worker stage time is summed over *jobs* parallel workers, so its
    share of the run's wall clock is ``busy / jobs``; the rest of the
    run is dispatch (pool start-up, pickling, scheduling).
    """
    rows = dict(rows)
    count, run_self = rows.pop("pipeline.run", (0, 0.0))
    staged = 0.0
    for stage in STAGES:
        share = stage_busy.get(stage, 0.0) / jobs
        rows[f"pipeline.stage.{stage}"] = (count, share)
        staged += share
    rows["pipeline.dispatch"] = (count, run_self - staged)
    return rows


def job_table(
    spans: list[Span], stage_busy: dict[str, float], jobs: int
) -> tuple[dict[str, tuple[int, float]], float]:
    """Per-layer rows of spans under ``bench`` job roots, plus the jobs'
    summed wall clock.  The roots' own self time is ``unattributed``."""
    rows = rollup(spans)
    count, unattributed = rows.pop("bench", (0, 0.0))
    wall = sum(span.end - span.start for span in spans if span.name == "bench")
    rows = expand_pipeline(rows, stage_busy, jobs)
    rows["unattributed"] = (count, unattributed)
    return rows, wall


def format_table(title: str, rows: dict[str, tuple[int, float]], wall: float) -> list[str]:
    covered = sum(busy for name, (_, busy) in rows.items() if name != "unattributed")
    lines = [
        f"# per-layer self time: {title} (wall {wall:.4f}s)",
        f"# {'layer':<28} {'count':>8} {'self_s':>10} {'share':>7}",
    ]
    for name, (count, busy) in sorted(rows.items(), key=lambda item: -item[1][1]):
        share = busy / wall if wall else 0.0
        lines.append(f"# {name:<28} {count:>8} {busy:>10.4f} {share:>7.1%}")
    coverage = covered / wall if wall else 0.0
    verdict = "within" if abs(1.0 - coverage) <= 0.05 else "OUTSIDE"
    lines.append(
        f"# layers sum to {coverage:.1%} of wall clock ({verdict} the 5% gate)"
    )
    return lines
