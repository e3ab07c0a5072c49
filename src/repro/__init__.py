"""repro: reproduction of "Profiles of Schema Evolution in Free Open
Source Software Projects" (P. Vassiliadis, ICDE 2021).

The package rebuilds the paper's full pipeline from scratch:

- :mod:`repro.sqlddl` — MySQL-flavoured DDL lexer/parser;
- :mod:`repro.schema` — the logical schema model and builder;
- :mod:`repro.vcs` — a git-like commit-DAG substrate with file-history
  extraction;
- :mod:`repro.mining` — the GitHub-Activity x Libraries.io collection
  funnel;
- :mod:`repro.core` — Hecate-equivalent diffing, metrics, heartbeat,
  and the taxa classification tree;
- :mod:`repro.advisor` — the migration advisor: proposed DDL in,
  versioned + invertible migration script and taxon-atypicality
  findings out (the write path behind ``POST /v1/.../advise``);
- :mod:`repro.pipeline` — the staged measurement pipeline (parallel
  execution, content-hash caching, fault isolation);
- :mod:`repro.store` / :mod:`repro.serve` — the persistent corpus
  store and its read-only HTTP serving layer (with a hot-path
  rendered-response cache);
- :mod:`repro.loadgen` — deterministic load generation and SLO
  benchmarking against the serving layer (seeded workloads, closed- and
  open-loop drivers, exact percentiles, a declarative SLO gate);
- :mod:`repro.obs` — the unified observability layer (span tracing,
  metrics registry, profiling hooks);
- :mod:`repro.resilience` — the policy kernel (retries, deadlines,
  circuit breaking, deterministic fault injection) every execution
  layer shares;
- :mod:`repro.stats` — Kruskal-Wallis (from scratch), Shapiro-Wilk,
  quartiles, box-plot geometry;
- :mod:`repro.synthesis` — taxon-calibrated synthetic corpus generator
  (the offline stand-in for the 327 cloned GitHub repositories);
- :mod:`repro.viz` / :mod:`repro.reporting` — chart series, ASCII
  rendering, and the per-figure experiment harness.

The stable public API is re-exported here — one front door — while
every deep-module import keeps working unchanged.  Exports resolve
lazily (PEP 562), so ``import repro`` stays cheap and does not drag the
whole pipeline in.

Quickstart
----------
>>> from repro import CorpusSpec, analyze_corpus, build_corpus
>>> corpus = build_corpus(CorpusSpec(seed=2019, scale=0.1))
>>> report = corpus.run_funnel()
>>> analysis = analyze_corpus(report.studied + report.rigid)
"""

__version__ = "2.0.0"

#: The curated public API: exported name -> providing module.
_EXPORTS = {
    # synthesis: build the (synthetic) corpus
    "CorpusSpec": "repro.synthesis",
    "build_corpus": "repro.synthesis",
    # mining: the collection funnel
    "FunnelReport": "repro.mining.funnel",
    "run_funnel": "repro.mining.funnel",
    # core: analysis + taxa
    "analyze_corpus": "repro.core",
    "classify": "repro.core",
    # advisor: migration scripts + atypicality findings
    "Advice": "repro.advisor",
    "AdvisorError": "repro.advisor",
    "MigrationPlan": "repro.advisor",
    "advise": "repro.advisor",
    # pipeline: the staged measurement engine
    "MeasurementPipeline": "repro.pipeline",
    "PipelineConfig": "repro.pipeline",
    "PipelineStats": "repro.pipeline",
    "SchemaCache": "repro.pipeline",
    # store: persistence + incremental ingest
    "CorpusStore": "repro.store",
    "IngestReport": "repro.store",
    "ShardedCorpusStore": "repro.store",
    "ingest_corpus": "repro.store",
    "resolve_store": "repro.store",
    # serve: the HTTP API (reads + the advise write path)
    "ClusterConfig": "repro.serve",
    "ClusterSupervisor": "repro.serve",
    "ROUTES": "repro.serve",
    "create_server": "repro.serve",
    "openapi_document": "repro.serve",
    "serve_cluster": "repro.serve",
    "serve_forever": "repro.serve",
    # loadgen: seeded load generation + the SLO gate
    "LoadConfig": "repro.loadgen",
    "SloSpec": "repro.loadgen",
    "WorkloadModel": "repro.loadgen",
    "load_slo": "repro.loadgen",
    "run_load": "repro.loadgen",
    # resilience: the shared policy kernel
    "CircuitBreaker": "repro.resilience",
    "Deadline": "repro.resilience",
    "FaultInjector": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    # obs: tracing + metrics + profiling
    "MetricsRegistry": "repro.obs",
    "TraceRecorder": "repro.obs",
    "metrics_registry": "repro.obs",
    "profiled": "repro.obs",
    "recording": "repro.obs",
    "trace": "repro.obs",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    """Resolve the curated exports lazily (PEP 562)."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
