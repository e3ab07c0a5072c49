"""Performance benchmarks of the pipeline's hot paths.

Not a paper artifact — these are the engineering benchmarks a release
ships: lexer/parser throughput on a mysqldump-style workload, schema
diffing, history measurement, and classification, so regressions in the
hot loops (the study re-parses every version of every history) show up
immediately.

The staged-pipeline benchmarks at the bottom (cold vs warm cache,
serial vs parallel) additionally append one trajectory entry to
``BENCH_pipeline.json`` at the repository root, so the numbers travel
with the history and perf regressions surface in review.
"""

import os
import random
import time
from pathlib import Path

import pytest

from repro.core import classify, compute_metrics
from repro.core.diff import diff_schemas
from repro.core.history import SchemaHistory, SchemaVersion
from repro.loadgen import append_trajectory
from repro.pipeline import SchemaCache
from repro.schema import build_schema
from repro.sqlddl import parse_script, tokenize

ROOT = Path(__file__).resolve().parent.parent

#: Collected by the pipeline benchmarks; flushed to BENCH_pipeline.json.
_TRAJECTORY: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_trajectory():
    """Append this run's pipeline numbers to the trajectory file."""
    yield
    if _TRAJECTORY:
        append_trajectory(ROOT / "BENCH_pipeline.json", dict(_TRAJECTORY))


def _dump_text(n_tables: int, seed: int = 7) -> str:
    """A realistic mysqldump-style script with comments and inserts."""
    rng = random.Random(seed)
    parts = [
        "-- MySQL dump 10.13",
        "/*!40101 SET NAMES utf8 */;",
    ]
    types = ("int(11)", "varchar(255)", "datetime", "text", "decimal(10,2)")
    for table_index in range(n_tables):
        name = f"table_{table_index}"
        parts.append(f"DROP TABLE IF EXISTS `{name}`;")
        columns = [f"  `id` int(11) NOT NULL AUTO_INCREMENT"]
        for col_index in range(rng.randint(4, 12)):
            columns.append(f"  `col_{col_index}` {rng.choice(types)} DEFAULT NULL")
        columns.append("  PRIMARY KEY (`id`)")
        parts.append(
            f"CREATE TABLE `{name}` (\n" + ",\n".join(columns) + "\n) ENGINE=InnoDB;"
        )
        parts.append(f"INSERT INTO `{name}` VALUES (1, 'seed; data', NULL);")
    return "\n".join(parts)


DUMP = _dump_text(40)
DUMP_BYTES = len(DUMP.encode())


def test_bench_lexer_throughput(benchmark):
    tokens = benchmark(tokenize, DUMP)
    assert tokens[-1].kind.name == "EOF"
    rate = DUMP_BYTES / benchmark.stats["mean"] / 1e6
    print(f"\nlexer throughput: {rate:.1f} MB/s over a {DUMP_BYTES/1024:.0f} KiB dump")


def test_bench_parser_throughput(benchmark):
    statements = benchmark(parse_script, DUMP)
    assert len(statements) > 80
    rate = DUMP_BYTES / benchmark.stats["mean"] / 1e6
    print(f"\nparser throughput: {rate:.1f} MB/s")


def test_bench_schema_build(benchmark):
    schema = benchmark(build_schema, DUMP)
    assert len(schema) == 40


def test_bench_diff_large_schemas(benchmark):
    old = build_schema(_dump_text(40, seed=7))
    new = build_schema(_dump_text(40, seed=8))
    diff = benchmark(diff_schemas, old, new)
    assert diff.activity > 0


def test_bench_measure_long_history(benchmark):
    texts = []
    columns = ["id INT PRIMARY KEY"]
    for index in range(120):
        columns.append(f"c{index} INT")
        texts.append(f"CREATE TABLE big ({', '.join(columns)});")
    versions = tuple(
        SchemaVersion(index=i, commit_oid=f"c{i}", timestamp=i * 86_400, schema=build_schema(t))
        for i, t in enumerate(texts)
    )
    history = SchemaHistory("perf/history", "s.sql", versions)

    metrics = benchmark(compute_metrics, history)
    assert metrics.total_activity == 119


def test_bench_classification(benchmark, full_report):
    metrics = [p.metrics for p in full_report.studied]

    def classify_all():
        return [classify(m) for m in metrics]

    taxa = benchmark(classify_all)
    assert len(taxa) == len(metrics)


# -- staged-pipeline benchmarks (cache + concurrency) ---------------------


def test_bench_schema_cache_hit(benchmark):
    """A warm cache lookup vs. the full parse test_bench_schema_build pays."""
    cache = SchemaCache()
    cache.schema_for(DUMP)  # warm
    schema = benchmark(cache.schema_for, DUMP)
    assert len(schema) == 40
    assert cache.counters.schema_misses == 1  # every benchmark round hit


def test_bench_funnel_cold_vs_warm_cache(full_corpus):
    """A warm re-run of the same corpus must skip every build_schema call."""
    cache = SchemaCache()
    started = time.perf_counter()
    cold = full_corpus.run_funnel(cache=cache)
    cold_seconds = time.perf_counter() - started
    cold_parses = cache.counters.schema_misses
    assert cold_parses > 0

    started = time.perf_counter()
    warm = full_corpus.run_funnel(cache=cache)
    warm_seconds = time.perf_counter() - started
    assert cache.counters.schema_misses == cold_parses  # zero new parses
    assert [p.name for p in warm.studied] == [p.name for p in cold.studied]

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    _TRAJECTORY["funnel_cache"] = {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 2),
        "build_schema_calls_cold": cold_parses,
        "build_schema_calls_warm": 0,
    }
    print(
        f"\nfunnel cold {cold_seconds:.2f}s ({cold_parses} parses), "
        f"warm {warm_seconds:.2f}s (0 parses): {speedup:.1f}x"
    )


def test_bench_funnel_serial_vs_parallel(full_corpus):
    """One job vs four worker processes, identical output.

    The workload is CPU-bound python, so a thread pool *lost* to serial
    (the 0.75x entry in the trajectory) and was removed; worker
    processes are what must actually scale.  The recorded entry
    carries ``cores`` so the >= 2x gate only arms where 4 workers have
    4 cores to run on — CI enforces it on its 4-vCPU runners, while a
    1-core dev box records honest (unenforced) numbers.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    runs = {"serial": 1, "process": 4}
    timings = {}
    reports = {}
    for name, jobs in runs.items():
        started = time.perf_counter()
        reports[name] = full_corpus.run_funnel(jobs=jobs)  # fresh cache each
        timings[name] = time.perf_counter() - started
    assert [p.name for p in reports["serial"].studied] == [
        p.name for p in reports["process"].studied
    ]
    assert reports["serial"].stage_rows() == reports["process"].stage_rows()

    def _speedup(name):
        return timings["serial"] / timings[name] if timings[name] > 0 else float("inf")

    _TRAJECTORY["funnel_jobs"] = {
        "serial_seconds": round(timings["serial"], 4),
        "parallel_seconds": round(timings["process"], 4),
        "jobs": 4,
        "backend": reports["process"].stats.partition["backend"],
        "cores": cores,
        "speedup": round(_speedup("process"), 2),
    }
    print(
        f"\nfunnel serial {timings['serial']:.2f}s, "
        f"process jobs=4 {timings['process']:.2f}s ({_speedup('process'):.2f}x) "
        f"on {cores} cores (identical output)"
    )
    if cores >= 4:
        assert _speedup("process") >= 2.0, (
            f"process backend managed only {_speedup('process'):.2f}x over serial "
            f"on {cores} cores; the parallel pipeline has regressed"
        )
