"""Benchmarks of the corpus store and serving layer.

Two numbers the ROADMAP cares about, appended as one trajectory entry
to ``BENCH_serve.json`` at the repository root:

- **Ingest wall-time, cold vs warm.**  The incremental fingerprint
  delta should turn a re-ingest of an unchanged corpus into a no-op;
  the entry records both times and the measured-project counts (warm
  must be 0).
- **Serve throughput.**  Requests/second against a live
  ``ThreadingHTTPServer`` over the warm store, for a paginated
  ``/v1/projects`` page, a single-project ``/heartbeat``, and ``304``
  revalidation hits.
- **Large-corpus query latency.**  A streamed 100k-project ingest
  (``REPRO_BENCH_LARGE_COUNT`` overrides the row count) followed by
  per-family query timings: the indexed cursor seek and filter families
  must stay flat.
"""

from __future__ import annotations

import os
import resource
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.loadgen import append_trajectory
from repro.serve import CorpusService, start_server
from repro.store import CorpusStore, MetricRange, ingest_corpus, ingest_stream
from repro.synthesis import CorpusSpec, build_corpus
from repro.synthesis.stream import StreamSpec

ROOT = Path(__file__).resolve().parent.parent

#: Collected below; flushed to BENCH_serve.json once per module.
_TRAJECTORY: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def serve_trajectory():
    """Append this run's store/serve numbers to the trajectory file."""
    yield
    if _TRAJECTORY:
        append_trajectory(ROOT / "BENCH_serve.json", dict(_TRAJECTORY))


@pytest.fixture(scope="module")
def bench_corpus():
    """A mid-scale corpus: big enough to time, small enough for CI."""
    return build_corpus(CorpusSpec(seed=2019, scale=0.25))


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, bench_corpus):
    """A store holding the measured corpus, plus its ingest timings."""
    store = CorpusStore(tmp_path_factory.mktemp("bench") / "corpus.db")
    started = time.perf_counter()
    cold = ingest_corpus(
        store, bench_corpus.activity, bench_corpus.lib_io, bench_corpus.provider
    )
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    warm = ingest_corpus(
        store, bench_corpus.activity, bench_corpus.lib_io, bench_corpus.provider
    )
    warm_seconds = time.perf_counter() - started
    _TRAJECTORY["ingest"] = {
        "projects": cold.tasks,
        "cold_seconds": round(cold_seconds, 3),
        "cold_measured": cold.measured,
        "warm_seconds": round(warm_seconds, 3),
        "warm_measured": warm.measured,
        "speedup": round(cold_seconds / warm_seconds, 1) if warm_seconds else None,
    }
    yield store, cold, warm
    store.close()


def test_bench_ingest_cold_vs_warm(warm_store):
    _, cold, warm = warm_store
    assert cold.measured > 0
    assert warm.measured == 0, "warm re-ingest must measure zero projects"
    assert warm.stats.projects == 0
    entry = _TRAJECTORY["ingest"]
    print(
        f"\ningest: cold {entry['cold_seconds']}s ({entry['cold_measured']} measured) "
        f"-> warm {entry['warm_seconds']}s ({entry['warm_measured']} measured), "
        f"{entry['speedup']}x"
    )
    assert entry["warm_seconds"] < entry["cold_seconds"]


def _hammer(url: str, requests_total: int, workers: int, headers=None) -> float:
    """Fire *requests_total* GETs from *workers* threads; returns req/s."""
    headers = headers or {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(workers + 1)

    def worker(count: int) -> None:
        try:
            barrier.wait(timeout=30)
            for _ in range(count):
                req = urllib.request.Request(url, headers=headers)
                with urllib.request.urlopen(req, timeout=30) as resp:
                    resp.read()
        except urllib.error.HTTPError as error:
            if error.code != 304:
                errors.append(error)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    share = requests_total // workers
    threads = [
        threading.Thread(target=worker, args=(share,)) for _ in range(workers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - started
    assert not errors, errors[:3]
    return (share * workers) / elapsed


def test_bench_serve_throughput(warm_store):
    store, _, _ = warm_store
    server, thread = start_server(store, port=0)
    try:
        results = {}
        results["projects_page"] = _hammer(
            f"{server.url}/v1/projects?limit=50", requests_total=300, workers=4
        )
        results["heartbeat"] = _hammer(
            f"{server.url}/v1/projects/1/heartbeat", requests_total=300, workers=4
        )
        # Revalidation: ask once for the ETag, then hammer with it.
        with urllib.request.urlopen(f"{server.url}/v1/projects?limit=50") as resp:
            etag = resp.headers["ETag"]
        results["revalidation_304"] = _hammer(
            f"{server.url}/v1/projects?limit=50",
            requests_total=400,
            workers=4,
            headers={"If-None-Match": etag},
        )
        _TRAJECTORY["serve"] = {
            key: round(value, 1) for key, value in results.items()
        }
        print("\nserve throughput (req/s):")
        for key, value in results.items():
            print(f"  {key:<16} {value:8.1f}")
        for key, value in results.items():
            assert value > 10, f"{key} throughput collapsed: {value:.1f} req/s"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


#: Row count for the large-corpus benchmark; CI smoke lanes lower it.
LARGE_COUNT = int(os.environ.get("REPRO_BENCH_LARGE_COUNT", "100000"))


def _latency_ms(call, repeats: int = 30) -> dict[str, float]:
    """p50/p95/max over *repeats* timed calls, in milliseconds."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append((time.perf_counter() - started) * 1000)
    samples.sort()
    return {
        "p50": round(samples[len(samples) // 2], 3),
        "p95": round(samples[min(len(samples) - 1, int(len(samples) * 0.95))], 3),
        "max": round(samples[-1], 3),
    }


def test_bench_large_corpus_query_latency(tmp_path_factory):
    spec = StreamSpec(seed=2019, count=LARGE_COUNT, profile="light")
    store = CorpusStore(tmp_path_factory.mktemp("large") / "corpus.db")
    try:
        started = time.perf_counter()
        report = ingest_stream(store, spec, chunk_size=256)
        ingest_seconds = time.perf_counter() - started
        assert report.measured == LARGE_COUNT
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        ids = store.project_ids()
        mid = ids[len(ids) // 2]
        taxon = sorted(store.taxa_summary())[0]
        service = CorpusService(store)
        queries = {
            "cursor_page": lambda: store.query_projects(cursor=mid, limit=50),
            "taxon_page": lambda: store.query_projects(taxon=taxon, limit=50),
            "metric_min": lambda: store.query_projects(
                ranges=(MetricRange("active_commits", minimum=5),), limit=50
            ),
            "detail": lambda: store.get_project(mid),
            "v1_cursor_http": lambda: service.handle(
                "/v1/projects",
                {"cursor": _mid_cursor(store, mid), "limit": "50"},
            ),
        }
        latencies = {name: _latency_ms(call) for name, call in queries.items()}
        _TRAJECTORY["large_corpus"] = {
            "projects": LARGE_COUNT,
            "ingest_seconds": round(ingest_seconds, 1),
            "ingest_projects_per_second": round(LARGE_COUNT / ingest_seconds, 1),
            "peak_rss_mb": round(peak_rss_mb, 1),
            "query_latency_ms": latencies,
        }
        print(f"\nlarge corpus: {LARGE_COUNT} projects in {ingest_seconds:.1f}s"
              f" ({LARGE_COUNT / ingest_seconds:.0f}/s), peak RSS {peak_rss_mb:.0f}MB")
        for name, stats in latencies.items():
            print(f"  {name:<16} p50 {stats['p50']:8.3f}ms  p95 {stats['p95']:8.3f}ms")
        # The indexed families must not collapse at this scale; bounds
        # are generous (1-core CI) — the trajectory holds the real data.
        assert latencies["cursor_page"]["p50"] < 100
        assert latencies["taxon_page"]["p50"] < 100
        assert latencies["detail"]["p50"] < 50
    finally:
        store.close()


def _mid_cursor(store, mid):
    from repro.serve.cursors import encode_project_cursor

    return encode_project_cursor(mid)
