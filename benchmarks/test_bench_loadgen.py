"""Benchmark of the loadgen subsystem and the serve response cache.

One trajectory entry appended to ``BENCH_loadgen.json`` at the
repository root, holding the number the PR's tentpole is gated on:
closed-loop throughput on the hot ``/v1/projects`` path against a
server with the rendered-response cache disabled (cold) vs enabled
(warm).  The warm run must clear **2x** the cold run — the cache turns
a store query + JSON render into an ``OrderedDict`` hit — and the
cache's hit/miss counters must be visible on ``/v1/metrics``.

A second entry records the seeded mixed-workload numbers (achieved
req/s, exact p50/p99) so the trajectory shows drift in the full-surface
profile, not just the hot path.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.loadgen import LoadConfig, append_trajectory, run_load
from repro.loadgen.runner import machine
from repro.serve import ClusterConfig, ClusterSupervisor, start_server
from repro.store import CorpusStore, ingest_corpus
from repro.synthesis import CorpusSpec, build_corpus

ROOT = Path(__file__).resolve().parent.parent

#: Collected below; flushed to BENCH_loadgen.json once per module.
_TRAJECTORY: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def loadgen_trajectory():
    """Append this run's loadgen numbers to the trajectory file."""
    yield
    if _TRAJECTORY:
        append_trajectory(ROOT / "BENCH_loadgen.json", dict(_TRAJECTORY))


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A mid-scale ingested corpus: big enough to time, small enough for CI."""
    corpus = build_corpus(CorpusSpec(seed=2019, scale=0.25))
    store = CorpusStore(tmp_path_factory.mktemp("bench-loadgen") / "corpus.db")
    ingest_corpus(store, corpus.activity, corpus.lib_io, corpus.provider)
    yield store
    store.close()


#: The hot-path workload: every request is the landing page, no
#: revalidation — each one either renders the page or hits the cache.
HOT_CONFIG = LoadConfig(
    seed=2019,
    requests=600,
    concurrency=4,
    etag_reuse=0.0,
    weights={"projects_hot": 1},
)


def _hot_path_rps(store, response_cache: int) -> tuple[float, dict]:
    """Closed-loop req/s on /v1/projects with the given cache size."""
    server, thread = start_server(store, port=0, response_cache=response_cache)
    try:
        report = run_load(
            store, HOT_CONFIG, base_url=server.url,
        )
        registry = server.metrics.registry
        counters = {
            "hits": registry.value("repro_serve_cache_hits_total"),
            "misses": registry.value("repro_serve_cache_misses_total"),
            "renders": registry.value(
                "repro_serve_renders_total", endpoint="/v1/projects"
            ),
        }
        with urllib.request.urlopen(server.url + "/v1/metrics", timeout=10) as resp:
            exposition = resp.read().decode("utf-8")
        counters["exposed"] = (
            "repro_serve_cache_hits_total" in exposition
            and "repro_serve_cache_misses_total" in exposition
        )
        assert report["executed"]["errors"] == 0
        assert report["statuses"] == {"200": 600}
        return report["executed"]["achieved_rps"], counters
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_bench_response_cache_cold_vs_warm(warm_store):
    cold_rps, cold_counters = _hot_path_rps(warm_store, response_cache=0)
    warm_rps, warm_counters = _hot_path_rps(warm_store, response_cache=256)

    speedup = warm_rps / cold_rps if cold_rps else float("inf")
    _TRAJECTORY["response_cache"] = {
        "path": "/v1/projects (hot mix)",
        "requests": HOT_CONFIG.requests,
        "cold_rps": round(cold_rps, 1),
        "warm_rps": round(warm_rps, 1),
        "speedup": round(speedup, 2),
        "warm_cache_hits": warm_counters["hits"],
        "warm_cache_misses": warm_counters["misses"],
    }
    print(
        f"\nresponse cache: cold {cold_rps:.0f} req/s -> warm {warm_rps:.0f} "
        f"req/s ({speedup:.1f}x), hits={warm_counters['hits']} "
        f"misses={warm_counters['misses']}"
    )
    # A disabled cache never hits and renders every request.
    assert cold_counters["hits"] == 0
    assert cold_counters["renders"] >= HOT_CONFIG.requests
    # A warm cache answers nearly everything without rendering.
    assert warm_counters["hits"] > HOT_CONFIG.requests * 0.9
    assert warm_counters["exposed"], "cache counters missing from /v1/metrics"
    assert speedup >= 2.0, (
        f"warm cache must be >= 2x cold on the hot path, got {speedup:.2f}x "
        f"({cold_rps:.0f} -> {warm_rps:.0f} req/s)"
    )


def test_bench_seeded_mixed_workload(warm_store):
    config = LoadConfig(seed=2019, requests=400, concurrency=4)
    report = run_load(warm_store, config)
    overall = report["overall"]["latency_ms"]
    _TRAJECTORY["mixed_workload"] = {
        "seed": config.seed,
        "requests": config.requests,
        "plan_digest": report["workload"]["digest"][:16],
        "achieved_rps": report["executed"]["achieved_rps"],
        "p50_ms": overall["p50"],
        "p99_ms": overall["p99"],
        "statuses": report["statuses"],
    }
    print(
        f"\nmixed workload: {report['executed']['achieved_rps']:.0f} req/s, "
        f"p50 {overall['p50']}ms p99 {overall['p99']}ms, "
        f"statuses {report['statuses']}"
    )
    assert report["executed"]["errors"] == 0
    assert report["executed"]["achieved_rps"] > 10


#: The cluster scaling workload: enough closed-loop client threads to
#: keep 4 workers busy, all on the cacheable hot path so the measured
#: axis is request handling, not store I/O.
CLUSTER_CONFIG = LoadConfig(
    seed=2019,
    requests=1200,
    concurrency=8,
    etag_reuse=0.0,
    weights={"projects_hot": 1},
)


def _cluster_rps(db_path: str, workers: int, runtime_dir: Path) -> float:
    """Closed-loop req/s against a pre-fork cluster of *workers*."""
    supervisor = ClusterSupervisor(
        ClusterConfig(
            db=db_path, port=0, workers=workers,
            runtime_dir=str(runtime_dir), relay_interval=1.0,
        )
    )
    supervisor.start()
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    supervisor.url + "/v1/stats", timeout=2
                ) as resp:
                    if resp.status == 200:
                        break
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
        else:
            raise AssertionError(f"cluster ({workers} workers) never came up")
        with CorpusStore(db_path) as model_store:
            report = run_load(
                model_store, CLUSTER_CONFIG, base_url=supervisor.url
            )
        assert report["executed"]["errors"] == 0
        return report["executed"]["achieved_rps"]
    finally:
        supervisor.stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "cluster drain hung"


def test_bench_cluster_workers(warm_store, tmp_path_factory):
    """Pre-fork scaling: --workers 4 vs --workers 1 on the hot path.

    The trajectory records honest numbers everywhere; the >= 3x gate is
    armed by the CI perf lane only on runners with >= 4 cores (a 1-core
    box measures scheduling noise, not parallelism).
    """
    runtime = tmp_path_factory.mktemp("bench-cluster")
    single_rps = _cluster_rps(warm_store.path, 1, runtime / "w1")
    quad_rps = _cluster_rps(warm_store.path, 4, runtime / "w4")
    speedup = quad_rps / single_rps if single_rps else float("inf")
    _TRAJECTORY["cluster"] = {
        "path": "/v1/projects (hot mix)",
        "requests": CLUSTER_CONFIG.requests,
        "concurrency": CLUSTER_CONFIG.concurrency,
        "workers_1_rps": round(single_rps, 1),
        "workers_4_rps": round(quad_rps, 1),
        "speedup": round(speedup, 2),
    }
    print(
        f"\ncluster: 1 worker {single_rps:.0f} req/s -> 4 workers "
        f"{quad_rps:.0f} req/s ({speedup:.2f}x) on {machine()['cores']} cores"
    )
    assert single_rps > 0 and quad_rps > 0
