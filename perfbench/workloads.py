"""The four workloads of the benchmark.

Each builds its inputs from the run's seed, measures for the run's
budget, checks the program's outputs, and returns an :class:`Outcome`.
README.md says why each workload exists and what each metric means.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

import layers
import stats
import traffic
from tracer import Tracer, rollup, under

from repro.core import analysis as analysis_mod
from repro.loadgen.drivers import ClosedLoopDriver, EtagTable, OpenLoopDriver
from repro.loadgen.record import LatencyRecorder
from repro.loadgen.runner import warm_paths
from repro.loadgen.workload import PlannedRequest
from repro.mining import funnel as funnel_mod
from repro.reporting.experiments import ExperimentSuite
from repro.serve.server import create_server
from repro.serve.service import CorpusService
from repro.store import ingest as ingest_mod
from repro.store.store import CorpusStore
from repro.synthesis import corpus as corpus_mod
from repro.synthesis.corpus import CorpusSpec
from repro.synthesis.stream import StreamSpec
from repro.vcs.history import extract_file_history

clock = time.perf_counter

#: The end-to-end metrics every untraced run prints: (name, unit).  The
#: latency tail goes to the ledger instead: on serve it moved 28-43%
#: between runs on 2 shared cores, more than any regression bound.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# -- funnel_report -----------------------------------------------------------

FUNNEL_SCALE = 0.05
#: Per-project latencies of one run number a few hundred: p90 is the
#: highest percentile with ten samples beyond it.
FUNNEL_TAIL = 90.0
FUNNEL_REFERENCE = CorpusSpec(seed=2019, scale=FUNNEL_SCALE)
FUNNEL_SETUPS = 5
FUNNEL_REFERENCE_SHA256 = (
    "77bc603361f499ffc12f29c68411b87f2cb918204b0393d1b3f9ca7f2bb674f9"
)

# -- ingest_stream -----------------------------------------------------------

INGEST_COUNT = 400
INGEST_JOBS = 2
INGEST_TAIL = 99.0
INGEST_SETUPS = 12
INGEST_REFERENCE = StreamSpec(seed=2019, count=48)
INGEST_REFERENCE_HASH = (
    "0fa9859b6e1247cc249757af704503dc9e486636348c195b0f06a0dbcec6b0ad"
)

# -- serve_hot / serve_cold --------------------------------------------------

PRISTINE = StreamSpec(seed=2019, count=3000)
PRISTINE_HASH = "8cf22544d9beff79b0ae9b87061ee12487ef7772305a8e4134a5c1164cc43dc0"
SERVE_SEGMENTS = 3  # server processes per run; each serves a third of the load
#: Open-loop connections (the core count); the closed loop uses one,
#: which on 2 cores gives the single-process server more capacity
#: than two competing handler threads do.
SERVE_CONNS = 2
SERVE_CLOSED = 200  # closed-loop requests per segment
SERVE_OPEN_SHARE = 0.7  # of the run's seconds, spent in the open loop
#: Open-loop rates, well below the closed-loop capacity on 2 cores.
SERVE_RATE = {"serve_hot": 40.0, "serve_cold": 30.0}
#: A run's open loop yields 400-600 samples.  p95 would have ten beyond
#: it, but which heavy requests (wide cursor pages, advice writes) fall
#: into its few samples varies too much by seed; p90 is steady.
SERVE_TAIL = 90.0
#: Share of a traced serve run's seconds spent in its open loop.
TRACED_OPEN_SHARE = 0.3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    table: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(reason)


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    work: Path  # scratch space of this run, removed when it ends
    cache: Path  # kept across runs in the same checkout

    def derived_seed(self, *parts: object) -> int:
        text = "|".join(["perfbench", str(self.seed), *map(str, parts)])
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def end_to_end(
    outcome: Outcome,
    setups: list[float],
    throughput: float,
    latencies: list[float],
    tail_pct: float,
    rss_mb: float,
) -> None:
    if stats.samples_beyond(len(latencies), tail_pct) < stats.MIN_BEYOND:
        outcome.info["tail_warning"] = (
            f"only {len(latencies)} latency samples for p{tail_pct:g}"
        )
    allowed = stats.tail_percentile(latencies)
    outcome.info.update(
        latency_samples=len(latencies),
        latency_tail_pct=tail_pct,
        latency_tail_ms=stats.percentile(latencies, tail_pct) * 1000,
        highest_reportable_pct=allowed[0] if allowed else None,
        setup_samples=len(setups),
    )
    values = {
        "setup_s": stats.median(setups),
        "throughput": throughput,
        "latency_p50_ms": stats.percentile(latencies, 50) * 1000,
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - outcome.failed / max(1, outcome.attempted),
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END}


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(outcome: Outcome, values: dict[str, float]) -> None:
    outcome.metrics = {
        name: (float(values.get(name, 0.0)), unit) for name, unit, _ in layers.PER_LAYER
    }


# == funnel_report ===========================================================


def ddl_lines(corpus) -> dict[str, int]:
    """Lines of distinct DDL text in each project's history: the size
    that makes funnel work comparable across seeds."""
    lines = {}
    for name, path in corpus.ddl_paths.items():
        repo = corpus.repos.get(name)
        if repo is None:
            continue
        seen: set[str] = set()
        for version in extract_file_history(repo, path):
            if version.text not in seen:
                seen.add(version.text)
                lines[name] = lines.get(name, 0) + version.text.count("\n") + 1
    return lines


def report_job(corpus) -> tuple[object, object, str, list[tuple[str, float]]]:
    """What ``repro report`` does after synthesis: serial funnel with a
    cold cache, analysis, rendering.  Also returns each project's
    latency, taken between consecutive calls of the serial pipeline's
    repository provider."""
    stamps: list[tuple[str, float]] = []
    repos = corpus.repos

    def provider(name: str):
        stamps.append((name, clock()))
        return repos.get(name)

    report = funnel_mod.run_funnel(corpus.activity, corpus.lib_io, provider)
    stamps.append(("", clock()))
    analysis = analysis_mod.analyze_corpus(report.studied + report.rigid)
    text = ExperimentSuite(report, analysis).render_all()
    latencies = [(name, end - start) for (name, start), (_, end) in zip(stamps, stamps[1:])]
    return report, analysis, text, latencies


def per_kiloline(latencies: list[tuple[str, float]], lines: dict[str, int]) -> list[float]:
    """Project latencies per 1000 lines of DDL history.  Project sizes
    span orders of magnitude, so raw latencies mostly measure which
    projects a seed drew; per line they measure the pipeline."""
    return [
        seconds / (lines[name] / 1000.0)
        for name, seconds in latencies
        if lines.get(name)
    ]


def check_report(outcome: Outcome, corpus, report, analysis) -> None:
    outcome.attempted += report.lib_io_projects
    for failure in report.failures:
        outcome.fail(f"{failure.project}: {failure.stage} failed: {failure.message}")
    if report.cloned_usable != len(corpus.expected_taxa):
        outcome.fail(
            f"funnel kept {report.cloned_usable} projects,"
            f" the corpus planned {len(corpus.expected_taxa)}"
        )
    for project in report.studied:
        expected = corpus.expected_taxa.get(project.name)
        if analysis.assignments.get(project.name) is not expected:
            outcome.fail(f"{project.name} classified off its planned taxon")


def vm_hwm_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS record (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def funnel_reference(outcome: Outcome) -> tuple[list[float], float]:
    """Build the pinned reference corpus a few times (set-up samples),
    report on it once (peak RSS of the job) and check the report's
    digest.  Fixed input, so set-up time and memory do not depend on
    which corpora the seed drew."""
    setups = []
    for _ in range(FUNNEL_SETUPS):
        started = clock()
        corpus = corpus_mod.build_corpus(FUNNEL_REFERENCE)
        setups.append(clock() - started)
    reset_peak_rss()
    _, _, text, _ = report_job(corpus)
    peak = vm_hwm_mb("self")
    outcome.attempted += 1
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != FUNNEL_REFERENCE_SHA256:
        outcome.fail(f"reference report digest {digest[:16]} != pinned")
    return setups, peak


def funnel_report(ctx: Context, traced: bool) -> Outcome:
    outcome = Outcome()
    setups, peak_rss = funnel_reference(outcome)
    spec = lambda index: CorpusSpec(  # noqa: E731
        seed=ctx.derived_seed("corpus", index), scale=FUNNEL_SCALE
    )
    if not traced:
        latencies: list[float] = []
        job_seconds, total_lines, index = 0.0, 0, 0
        deadline = clock() + ctx.seconds
        while index == 0 or clock() < deadline:
            corpus = corpus_mod.build_corpus(spec(index))
            started = clock()
            report, analysis, _, project_latencies = report_job(corpus)
            job_seconds += clock() - started
            lines = ddl_lines(corpus)
            latencies.extend(per_kiloline(project_latencies, lines))
            total_lines += sum(lines.values())
            check_report(outcome, corpus, report, analysis)
            index += 1
        outcome.info.update(corpora=index, ddl_lines=total_lines, scale=FUNNEL_SCALE)
        end_to_end(
            outcome, setups, total_lines / 1000.0 / job_seconds, latencies,
            FUNNEL_TAIL, peak_rss,
        )
        return outcome

    # Traced: the same corpora untraced, then traced, so the difference
    # of the two is the tracing overhead.
    untraced: list[float] = []
    deadline = clock() + ctx.seconds / 2
    while not untraced or clock() < deadline:
        started = clock()
        corpus = corpus_mod.build_corpus(spec(len(untraced)))
        report, analysis, _, _ = report_job(corpus)
        untraced.append(clock() - started)
        check_report(outcome, corpus, report, analysis)
    tracer = Tracer()
    stage_busy: dict[str, float] = {}
    hit_ratios, builds = [], 0
    layers.instrument_funnel(tracer)
    try:
        for index in range(len(untraced)):
            with tracer.span("bench"):
                corpus = corpus_mod.build_corpus(spec(index))
                report, analysis, _, _ = report_job(corpus)
            check_report(outcome, corpus, report, analysis)
            for stage, seconds in report.stats.stage_seconds.items():
                stage_busy[stage] = stage_busy.get(stage, 0.0) + seconds
            cache = report.stats.cache
            lookups = cache.schema_hits + cache.schema_misses
            hit_ratios.append(cache.schema_hits / lookups if lookups else 0.0)
            builds += cache.build_schema_calls
    finally:
        tracer.restore()
    jobs = len(untraced)
    rows, wall = layers.job_table(tracer.spans, stage_busy, 1)
    outcome.table = layers.format_table(f"funnel_report, {jobs} corpora", rows, wall)
    busy = {name: seconds / jobs for name, (_, seconds) in rows.items()}
    values = {
        "synthesis.busy_s": busy.get("synthesis", 0.0),
        "vcs.extract.busy_s": busy.get("pipeline.stage.extract", 0.0),
        "pipeline.run.count": rows["pipeline.dispatch"][0] / jobs,
        "pipeline.run.busy_s": sum(
            seconds for name, seconds in busy.items() if name.startswith("pipeline.")
        ),
        "pipeline.dispatch_s": busy["pipeline.dispatch"],
        "pipeline.cache.schema_hit_ratio": stats.median(hit_ratios),
        "schema.build.count": builds / jobs,
        "mining.select.busy_s": busy.get("mining.select", 0.0),
        "core.analysis.busy_s": busy.get("core.analysis", 0.0),
        "reporting.render.busy_s": busy.get("reporting.render", 0.0),
    }
    for stage in layers.STAGES:
        values[f"pipeline.stage.{stage}.busy_s"] = busy[f"pipeline.stage.{stage}"]
    add_trace_summary(values, rows, wall, wall, sum(untraced))
    per_layer(outcome, values)
    return outcome


def add_trace_summary(
    values: dict[str, float],
    rows: dict[str, tuple[int, float]],
    wall: float,
    traced_seconds: float,
    untraced_seconds: float,
) -> None:
    unattributed = wall - sum(
        busy for name, (_, busy) in rows.items() if name != "unattributed"
    )
    values["trace.coverage"] = 1.0 - unattributed / wall if wall else 0.0
    values["trace.unattributed_s"] = unattributed
    values["trace.overhead_pct"] = (
        100.0 * (traced_seconds - untraced_seconds) / untraced_seconds
        if untraced_seconds
        else 0.0
    )


# == ingest_stream ===========================================================


class StampedStore(CorpusStore):
    """A store that notes when each chunk commits.

    A streamed project is durable when its chunk commits, so a chunk's
    wall time (from the previous commit) is the latency of each of its
    projects.
    """

    def __init__(self, path) -> None:
        super().__init__(path)
        self.commits: list[tuple[float, int]] = []

    def persist_batch(self, items, ids=None) -> None:
        super().persist_batch(items, ids)
        self.commits.append((clock(), len(items)))


def remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def store_bytes(path: Path) -> int:
    return sum(
        Path(f"{path}{suffix}").stat().st_size
        for suffix in ("", "-wal")
        if Path(f"{path}{suffix}").exists()
    )


def ingest(store: CorpusStore, spec: StreamSpec):
    return ingest_mod.ingest_stream(
        store, spec, jobs=INGEST_JOBS, executor="process"
    )


def check_ingest_reference(outcome: Outcome, ctx: Context) -> None:
    path = ctx.work / "reference.db"
    try:
        with CorpusStore(path) as store:
            ingest(store, INGEST_REFERENCE)
            digest = store.content_hash()
    finally:
        remove_store(path)
    outcome.attempted += 1
    if digest != INGEST_REFERENCE_HASH:
        outcome.fail(f"reference stream hash {digest[:16]} != pinned")


@dataclass
class IngestPass:
    setup: float
    first: float
    second: float
    latencies: list[float]
    stats: object
    bytes: int
    content_hash: str


def ingest_pass(ctx: Context, outcome: Outcome, index: int, tracer: Tracer | None) -> IngestPass:
    """Empty store, first pass of the run's stream, then a re-ingest of
    the same stream, which must measure nothing."""
    spec = StreamSpec(seed=ctx.derived_seed("stream"), count=INGEST_COUNT)
    path = ctx.work / f"ingest-{index}.db"
    started = time.process_time()
    store = StampedStore(path)
    setup = time.process_time() - started
    try:
        with tracer.span("bench") if tracer is not None else nullcontext():
            t0 = clock()
            first = ingest(store, spec)
            t1 = clock()
            second = ingest(store, spec)
            t2 = clock()
        latencies, previous = [], t0
        for committed, size in store.commits:
            if size:
                latencies.extend([committed - previous] * size)
            previous = committed
        digest = store.content_hash()
        outcome.attempted += INGEST_COUNT
        if first.measured != INGEST_COUNT:
            outcome.fail(f"first pass measured {first.measured} of {INGEST_COUNT}")
        for _ in range(first.failed):
            outcome.fail("a project was demoted to a failure")
        if second.measured != 0:
            outcome.fail(f"re-ingest measured {second.measured}, expected 0")
        size = store_bytes(path)
    finally:
        store.close()
        remove_store(path)
    return IngestPass(setup, t1 - t0, t2 - t1, latencies, first.stats, size, digest)


def empty_store_setups(ctx: Context) -> tuple[list[float], list[float]]:
    """Create (and close) an empty store a few times; the CPU seconds
    and the wall seconds of each.

    Set-up is reported in CPU seconds: the wall time, about 0.2 s on a
    shared 2-core VM, is 99% fsync waits that moved 40% (IQR over
    median, 10 seeds) between runs, while the CPU time (about 2 ms) is
    what a code change to store creation moves.  The wall median goes
    to the ledger.
    """
    cpu, wall = [], []
    for index in range(INGEST_SETUPS):
        path = ctx.work / f"empty-{index}.db"
        started, used = clock(), time.process_time()
        CorpusStore(path).close()
        cpu.append(time.process_time() - used)
        wall.append(clock() - started)
        remove_store(path)
    return cpu, wall


def ingest_stream(ctx: Context, traced: bool) -> Outcome:
    outcome = Outcome()
    check_ingest_reference(outcome, ctx)
    setups, setup_walls = empty_store_setups(ctx)
    outcome.info["setup_wall_s"] = stats.median(setup_walls)
    passes: list[IngestPass] = []

    def check_same_hash(new: IngestPass) -> None:
        if passes and new.content_hash != passes[0].content_hash:
            outcome.fail("the same stream ingested to a different content hash")
        passes.append(new)

    if not traced:
        deadline = clock() + ctx.seconds
        while not passes or clock() < deadline:
            check_same_hash(ingest_pass(ctx, outcome, len(passes), None))
        latencies = [value for one in passes for value in one.latencies]
        outcome.info.update(
            passes=len(passes),
            count=INGEST_COUNT,
            reingest_s=stats.median(one.second for one in passes),
            pass_pps=[round(INGEST_COUNT / one.first, 1) for one in passes],
            content_hash=passes[0].content_hash[:16],
        )
        end_to_end(
            outcome,
            setups + [one.setup for one in passes],
            stats.median(INGEST_COUNT / one.first for one in passes),
            latencies,
            INGEST_TAIL,
            own_peak_rss_mb(),
        )
        return outcome

    deadline = clock() + ctx.seconds / 2
    while not passes or clock() < deadline:
        check_same_hash(ingest_pass(ctx, outcome, len(passes), None))
    untraced = passes[:]
    tracer = Tracer()
    traced_passes: list[IngestPass] = []
    layers.instrument_ingest(tracer)
    try:
        for _ in range(len(untraced)):
            one = ingest_pass(ctx, outcome, len(passes), tracer)
            check_same_hash(one)
            traced_passes.append(one)
    finally:
        tracer.restore()
    jobs = len(traced_passes)
    stage_busy: dict[str, float] = {}
    hits = misses = 0
    for one in traced_passes:
        for stage, seconds in one.stats.stage_seconds.items():
            stage_busy[stage] = stage_busy.get(stage, 0.0) + seconds
        hits += one.stats.cache.schema_hits
        misses += one.stats.cache.schema_misses
    rows, wall = layers.job_table(tracer.spans, stage_busy, INGEST_JOBS)
    outcome.table = layers.format_table(
        f"ingest_stream, {jobs} passes of {INGEST_COUNT} projects", rows, wall
    )
    counts = {name: count / jobs for name, (count, _) in rollup(tracer.spans).items()}
    busy = {name: seconds / jobs for name, (_, seconds) in rows.items()}
    values = {
        "synthesis.busy_s": busy.get("synthesis", 0.0),
        "vcs.extract.busy_s": busy.get("vcs.extract", 0.0)
        + busy.get("pipeline.stage.extract", 0.0),
        "store.fingerprint.busy_s": busy.get("store.fingerprint", 0.0),
        "store.lookup.count": counts.get("store.lookup", 0.0),
        "store.lookup.busy_s": busy.get("store.lookup", 0.0),
        "store.persist.count": counts.get("store.persist", 0.0),
        "store.persist.busy_s": busy.get("store.persist", 0.0),
        "store.checkpoint.busy_s": busy.get("store.checkpoint", 0.0),
        "store.analyze.busy_s": busy.get("store.analyze", 0.0),
        "store.query.busy_s": busy.get("store.query", 0.0),
        "store.bytes_per_project": stats.median(one.bytes for one in traced_passes)
        / INGEST_COUNT,
        "store.reingest_s": stats.median(one.second for one in traced_passes),
        "pipeline.run.count": counts.get("pipeline.run", 0.0),
        "pipeline.run.busy_s": sum(
            seconds for name, seconds in busy.items() if name.startswith("pipeline.")
        ),
        "pipeline.dispatch_s": busy["pipeline.dispatch"],
        "pipeline.cache.schema_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "schema.build.count": misses / jobs,
    }
    for stage in layers.STAGES:
        values[f"pipeline.stage.{stage}.busy_s"] = busy[f"pipeline.stage.{stage}"]
    add_trace_summary(
        values, rows, wall,
        sum(one.first + one.second for one in traced_passes),
        sum(one.first + one.second for one in untraced),
    )
    per_layer(outcome, values)
    return outcome


# == serve_hot / serve_cold ==================================================


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pristine_store(ctx: Context, outcome: Outcome) -> Path:
    """The served corpus: the stream ingest of a fixed spec, built once
    per checkout and program version, then copied fresh for each server."""
    path = ctx.cache / (
        f"pristine-{PRISTINE.seed}-{PRISTINE.count}-{source_digest(ctx.root)[:16]}.db"
    )
    if not path.exists():
        ctx.cache.mkdir(parents=True, exist_ok=True)
        building = ctx.work / "pristine.db"
        with CorpusStore(building) as store:
            ingest(store, PRISTINE)
        os.replace(building, path)
        remove_store(building)
    with CorpusStore(path) as store:
        digest = store.content_hash()
    outcome.attempted += 1
    if digest != PRISTINE_HASH:
        outcome.fail(f"served store hash {digest[:16]} != pinned")
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Checker:
    """Checks every reply once the load has stopped, so checking takes
    no CPU from the server under test."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.lock = threading.Lock()
        self.bodies: dict[str, str] = {}  # GET path -> sha256 of its 200 body
        self.advice: dict[str, tuple[str, float]] = {}  # key -> (sha256, first done)
        self.pending: list[tuple[PlannedRequest, traffic.Reply]] = []

    def new_segment(self) -> None:
        self.advice = {}

    def observe(self, request: PlannedRequest, reply: traffic.Reply) -> None:
        with self.lock:
            self.pending.append((request, reply))

    def _problem(self, request: PlannedRequest, reply: traffic.Reply) -> str | None:
        if reply.error is not None:
            return f"{request.method} {request.path}: {reply.error}"
        if reply.degraded:
            return f"{request.path}: served stale (Warning: 110)"
        try:
            digest = hashlib.sha256(reply.body()).hexdigest()
        except (OSError, EOFError) as exc:
            return f"{request.path}: undecodable body ({exc})"
        if request.method == "POST":
            if reply.status != 200:
                return f"POST {request.path}: status {reply.status}"
            key = request.idempotency_key
            seen = self.advice.get(key)
            if seen is None:
                self.advice[key] = (digest, reply.done)
                return None
            if digest != seen[0]:
                return f"advice {key} answered two different bodies"
            if reply.sent > seen[1] and reply.headers.get("idempotency-replayed") != "true":
                return f"advice {key} repeat lacks Idempotency-Replayed"
            return None
        if reply.status == 304:
            return None if request.revalidate else f"{request.path}: 304 unasked"
        if reply.status != 200:
            return f"GET {request.path}: status {reply.status}"
        known = self.bodies.setdefault(request.path, digest)
        return None if known == digest else f"{request.path}: body changed between requests"

    def settle(self) -> None:
        """Check the replies observed since the last call, in the order
        they finished."""
        with self.lock:
            pending, self.pending = self.pending, []
        for request, reply in sorted(pending, key=lambda item: item[1].done):
            self.outcome.attempted += 1
            problem = self._problem(request, reply)
            if problem is not None:
                self.outcome.fail(problem)

    def verify_bodies(self, store_path: Path, verified: set[str]) -> None:
        """Each GET body served must equal a direct render of the path."""
        self.settle()
        with CorpusStore(store_path) as store:
            service = CorpusService(store, cache_capacity=0)
            for path, digest in sorted(self.bodies.items()):
                if path in verified:
                    continue
                verified.add(path)
                split = urlsplit(path)
                canonical = "&".join(sorted(split.query.split("&"))) if split.query else ""
                rendered = service.handle_rendered(
                    split.path, canonical, dict(parse_qsl(split.query))
                )
                if hashlib.sha256(rendered.body).hexdigest() != digest:
                    self.outcome.fail(f"{path}: served body differs from a direct render")


def wait_ready(port: int, alive: Callable[[], bool], timeout: float = 60.0) -> None:
    import http.client

    deadline = clock() + timeout
    while clock() < deadline:
        if not alive():
            raise RuntimeError("the server exited before answering")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/v1/stats")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except (OSError, http.client.HTTPException):
            time.sleep(0.005)
        finally:
            conn.close()
    raise RuntimeError("the server did not answer in time")


class Spawned:
    """``repro serve`` with default flags, in a child process."""

    def __init__(self, ctx: Context, db: Path) -> None:
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ctx.root / "src"), env.get("PYTHONPATH")])
        )
        started = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(db),
             "--port", str(self.port), "--quiet"],
            cwd=ctx.root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_ready(self.port, lambda: self.proc.poll() is None)
        except BaseException:
            self.stop()
            raise
        self.setup = clock() - started

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


class InProcess:
    """The same server hosted in this process, so wrappers see it."""

    def __init__(self, db: Path) -> None:
        self.store = CorpusStore(db)
        self.server = create_server(self.store, port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.store.close()


def fresh_copy(pristine: Path, target: Path) -> Path:
    remove_store(target)
    shutil.copyfile(pristine, target)
    return target


def closed_loop(requests, transport, etags, checker) -> float:
    """One connection, each request sent when the last one answered;
    the batch's wall seconds."""
    return ClosedLoopDriver(workers=1).run(
        requests, transport, LatencyRecorder(), etags, observer=checker.observe
    ).wall_seconds


def open_loop(requests, rate, transport, etags, checker, samples) -> None:
    OpenLoopDriver(rate=rate, workers=SERVE_CONNS).run(
        requests, transport, samples, etags, observer=checker.observe
    )


def serve(ctx: Context, traced: bool, workload: str) -> Outcome:
    outcome = Outcome()
    pristine = pristine_store(ctx, outcome)
    rate = SERVE_RATE[workload]
    open_count = max(1, int(rate * ctx.seconds * SERVE_OPEN_SHARE / SERVE_SEGMENTS))
    per_segment = SERVE_CLOSED + open_count
    with CorpusStore(pristine) as store:
        requests = traffic.plan(workload, store, ctx.seed, SERVE_SEGMENTS * per_segment)
    hot = workload == "serve_hot"
    if hot:
        outcome.attempted += 1
        if not traffic.fits_cache(requests):
            outcome.fail("the serve_hot mix has more distinct paths than the cache holds")
    checker = Checker(outcome)
    if traced:
        return serve_traced(ctx, outcome, checker, pristine, workload, requests)

    verified: set[str] = set()
    samples = traffic.Samples()
    setups, rss, segment_rps = [], [], []
    closed_seconds = 0.0
    for segment in range(SERVE_SEGMENTS):
        batch = requests[segment * per_segment:(segment + 1) * per_segment]
        db = fresh_copy(pristine, ctx.work / f"serve-{segment}.db")
        checker.new_segment()
        server = Spawned(ctx, db)
        transport = traffic.Transport(server.port)
        try:
            setups.append(server.setup)
            etags = EtagTable()
            if hot:
                warm_paths(batch, transport, etags)
            seconds = closed_loop(batch[:SERVE_CLOSED], transport, etags, checker)
            closed_seconds += seconds
            segment_rps.append(round(SERVE_CLOSED / seconds, 2))
            open_loop(batch[SERVE_CLOSED:], rate, transport, etags, checker, samples)
            rss.append(server.peak_rss_mb())
        finally:
            transport.close()
            server.stop()
        checker.verify_bodies(db, verified)
        remove_store(db)
    writes = samples.latencies("advise")
    outcome.info.update(
        rate=rate, segment_rps=segment_rps,
        distinct_paths=len({request.path for request in requests}),
        late_p50_ms=stats.percentile(samples.lateness(), 50) * 1000,
    )
    if writes:
        outcome.info["write_p50_ms"] = stats.percentile(writes, 50) * 1000
        outcome.info["write_p90_ms"] = stats.percentile(writes, 90) * 1000
        outcome.info["write_samples"] = len(writes)
    end_to_end(
        outcome, setups, SERVE_SEGMENTS * SERVE_CLOSED / closed_seconds,
        samples.latencies(), SERVE_TAIL, stats.median(rss),
    )
    return outcome


def serve_traced(ctx, outcome, checker, pristine, workload, requests) -> Outcome:
    """In-process server: an untraced closed batch, the same batch
    traced (the per-layer table), then a traced open loop (generator
    lateness and write latency).  Each phase gets a fresh server."""
    tracer = Tracer()
    verified: set[str] = set()
    rate = SERVE_RATE[workload]
    closed_batch = requests[: 2 * SERVE_CLOSED]
    open_batch = requests[2 * SERVE_CLOSED:][: max(1, int(rate * ctx.seconds * TRACED_OPEN_SHARE))]
    samples = traffic.Samples()

    def traced_send(send):
        with tracer.span("client") as span:
            return send({"X-Bench-Span": str(span.id)})

    def phase(name: str, drive, around=None) -> tuple[float, int, int, Counter]:
        db = fresh_copy(pristine, ctx.work / f"serve-{name}.db")
        checker.new_segment()
        host = InProcess(db)
        transport = traffic.Transport(host.port)
        try:
            etags = EtagTable()
            if workload == "serve_hot":
                warm_paths(requests, transport, etags)
            transport.around = around
            first, counted = len(tracer.spans), Counter(tracer.counts)
            elapsed = drive(transport, etags)
        finally:
            transport.close()
            host.stop()
        time.sleep(0.05)  # let handler threads close their spans
        checker.verify_bodies(db, verified)
        remove_store(db)
        return elapsed, first, len(tracer.spans), tracer.counts - counted

    def closed(transport, etags) -> float:
        return closed_loop(closed_batch, transport, etags, checker)

    def opened(transport, etags) -> float:
        open_loop(open_batch, rate, transport, etags, checker, samples)
        return 0.0

    untraced, _, _, _ = phase("untraced", closed)
    layers.instrument_serve(tracer)
    try:
        traced, first, last, counts = phase("traced", closed, traced_send)
        phase("open", opened, traced_send)
    finally:
        tracer.restore()
    # The table covers the server side of each request, its frame from
    # the request-line parse to the flush; the client's own time and the
    # socket between are outside it (client.self_ms).
    spans = under(tracer.spans[first:last], "client")
    rows = rollup(spans)
    done, client_self = rows.pop("client")
    frames, unattributed = rows.pop("serve.request")
    rows["unattributed"] = (frames, unattributed)
    wall = sum(s.end - s.start for s in spans if s.name == "serve.request")
    outcome.table = layers.format_table(
        f"{workload}, {done} closed-loop requests, server side", rows, wall
    )
    per_request = {name: busy / done for name, (_, busy) in rows.items()}
    count_of = {name: count / done for name, (count, _) in rows.items()}
    client_seconds = sum(s.end - s.start for s in spans if s.name == "client")
    guard_seconds = sum(
        s.end - s.start for s in spans if s.name == "serve.guard" and s.detail == "guarded_handle"
    )
    lookup_spans = [s for s in spans if s.name == "serve.cache" and s.detail == "lookup"]
    advise = [s.end - s.start for s in spans if s.name == "advisor.advise"]
    recorded = [s.end - s.start for s in spans if s.name == "store.record_advice"]
    hashing = sum(s.end - s.start for s in spans if s.name == "store.content_hash")
    writes = samples.latencies("advise")
    values = {
        "serve.http.self_ms": 1000 * (client_seconds - guard_seconds) / done,
        "resilience.timeout.overhead_ms": 1000 * per_request.get("resilience.timeout", 0.0),
        "resilience.timeout.threads": counts.get("resilience.timeout.threads", 0) / done,
        "serve.cache.hit_ratio": counts.get("serve.cache.hits", 0)
        / max(1, counts.get("serve.cache.lookups", 0)),
        "serve.cache.lookup_us": 1e6 * sum(s.end - s.start for s in lookup_spans)
        / max(1, len(lookup_spans)),
        "store.content_hash.ms": 1000 * hashing / done,
        "store.content_hash.rescans": counts.get("store.content_hash.rescans", 0) / done,
        "store.connections.opened": counts.get("sqlite3.connect", 0) / done,
        "store.query.count": count_of.get("store.query", 0.0),
        "store.query.busy_s": per_request.get("store.query", 0.0),
        "serve.route.busy_s": per_request.get("serve.route", 0.0),
        "serve.render.count": count_of.get("serve.render", 0.0),
        "serve.render.busy_s": per_request.get("serve.render", 0.0),
        "serve.gzip.count": counts.get("gzip.compress", 0) / done,
        "serve.gzip.busy_s": per_request.get("serve.gzip", 0.0),
        "advisor.advise.ms": 1000 * sum(advise) / len(advise) if advise else 0.0,
        "store.record_advice.ms": 1000 * sum(recorded) / len(recorded) if recorded else 0.0,
        "serve.breaker.failures": counts.get("serve.breaker.failures", 0),
        "client.self_ms": 1000 * client_self / done,
        "client.late_ms": stats.percentile(samples.lateness(), 50) * 1000,
        "client.write_p50_ms": stats.percentile(writes, 50) * 1000 if writes else 0.0,
        "client.write_p90_ms": stats.percentile(writes, 90) * 1000 if writes else 0.0,
    }
    add_trace_summary(values, rows, wall, traced, untraced)
    per_layer(outcome, values)
    return outcome


WORKLOADS: dict[str, Callable[[Context, bool], Outcome]] = {
    "funnel_report": funnel_report,
    "ingest_stream": ingest_stream,
    "serve_hot": lambda ctx, traced: serve(ctx, traced, "serve_hot"),
    "serve_cold": lambda ctx, traced: serve(ctx, traced, "serve_cold"),
}

_SERVE_PARAMETERS = {
    "store": f"stream seed={PRISTINE.seed} count={PRISTINE.count}",
    "segments": SERVE_SEGMENTS, "conns": SERVE_CONNS, "closed": SERVE_CLOSED,
    "tail_pct": SERVE_TAIL,
}

#: The parameters each workload runs with, for the result ledger.
PARAMETERS = {
    "funnel_report": {"scale": FUNNEL_SCALE, "tail_pct": FUNNEL_TAIL},
    "ingest_stream": {
        "count": INGEST_COUNT, "jobs": INGEST_JOBS, "executor": "process",
        "profile": "light", "tail_pct": INGEST_TAIL,
    },
    "serve_hot": {
        **_SERVE_PARAMETERS, "rate": SERVE_RATE["serve_hot"],
        "mix": f"loadgen default weights over the first {traffic.HOT_PROJECTS} ids",
    },
    "serve_cold": {
        **_SERVE_PARAMETERS, "rate": SERVE_RATE["serve_cold"],
        "mix": {"weights": traffic.COLD_WEIGHTS, "ids": "uniform"},
    },
}
