"""Incremental ingest: a corpus or a synthesis stream -> :class:`CorpusStore`,
measuring only what changed.

A project's identity is the content fingerprint of its DDL history —
the ``text_key`` of every usable version (the pipeline cache's key
scheme) chained with commit oids, timestamps, the chosen DDL path,
whole-repo commit stats, and the measurement configuration.  Ingest
extracts each candidate history once, fingerprints it, and only pushes
projects whose fingerprint is new or changed through the measurement
pipeline; everything else is proven unchanged without a single parse,
diff, or measure.  Re-ingesting an unchanged corpus therefore performs
**zero** measurement-stage executions, which the attached
:class:`~repro.pipeline.stats.PipelineStats` make verifiable:
``report.stats.projects == 0``.

:func:`ingest_corpus` (the funnel's selection) and :func:`ingest_stream`
(a synthesis stream) run one chunked loop: fingerprint a chunk, read its
stored fingerprints once, measure the changed projects on the execution
backend, write them in one ``persist_batch`` transaction, and checkpoint
``{"version": 1, "source": <identity>, "next_index": n}`` under
:data:`INGEST_CHECKPOINT_KEY`.  Memory is bounded by the chunk, and a
crash loses at most one.  The identity is the source's (its kind; for a
stream also seed, profile, epoch and dialects) plus the config the
fingerprint hashes, and a re-run under the same identity reports
``resumed_from``.  A stream resumes at ``next_index`` (project *i* is a
pure function of the spec and *i*); a corpus restarts at 0 and proves
the persisted prefix by fingerprint (a provider's repositories can
change between runs).  Any other record is ignored, which is safe
because persists are idempotent upserts.

Under fault injection, or when a batch raises, the chunk is written row
by row under the ingest's :class:`~repro.resilience.RetryPolicy`; a
project whose rows cannot be written even after retries is recorded as
a ``persist``-stage :class:`~repro.pipeline.stages.ProjectFailure` under
a sentinel fingerprint, so the next ingest re-measures it instead of
trusting a half-written row.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.mining.funnel import RepoProvider, select_tasks
from repro.mining.github_activity import GithubActivityDataset
from repro.mining.librariesio import LibrariesIoDataset
from repro.mining.path_filters import MultiFileVerdict
from repro.mining.selection import SelectionCriteria
from repro.obs.trace import trace
from repro.pipeline.cache import SchemaCache, text_key
from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig
from repro.pipeline.stages import (
    Outcome,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
    SeedMap,
    usable_versions,
)
from repro.pipeline.stats import PipelineStats
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.store.store import CorpusStore
from repro.vcs.history import FileVersion, LinearizationPolicy, extract_file_history
from repro.vcs.repository import Repository

#: Fingerprint of a repository the provider no longer resolves.
MISSING_REPO_FINGERPRINT = "missing-repo"

#: Fingerprint of a project whose measurement survived but whose rows
#: could not be written; never matches a real history fingerprint, so
#: the next ingest re-measures (and re-persists) the project.
PERSIST_FAILED_FINGERPRINT = "persist-failed"

#: The meta key the checkpoint record lives under while a run is active.
INGEST_CHECKPOINT_KEY = "ingest_checkpoint"


@dataclass
class IngestReport:
    """What one ingest run did to the store."""

    selected: int = 0  # joined + filtered projects
    tasks: int = 0  # single-DDL-file candidates
    omitted_by_paths: dict[MultiFileVerdict, int] = field(default_factory=dict)
    measured: int = 0  # pushed through the pipeline
    skipped_unchanged: int = 0  # fingerprint matched the store
    pruned: int = 0  # dropped: no longer in the corpus
    zero_versions: int = 0
    no_create: int = 0
    rigid: int = 0
    studied: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    stats: PipelineStats | None = None
    resumed_from: str | None = None  # source kind of the interrupted run
    stream_count: int | None = None  # streamed ingest: total stream length
    stream_resumed_at: int | None = None  # streamed ingest: first index run

    def summary(self) -> str:
        lines = [
            f"ingested {self.tasks} candidate projects in {self.wall_seconds:.2f}s",
            f"  measured:          {self.measured}",
            f"  unchanged:         {self.skipped_unchanged}",
            f"  pruned:            {self.pruned}",
            "  store outcomes:    "
            f"studied={self.studied} rigid={self.rigid} "
            f"zero-versions={self.zero_versions} no-create={self.no_create} "
            f"failed={self.failed}",
        ]
        if self.resumed_from is not None:
            lines.insert(
                1, f"  resumed:           from an interrupted {self.resumed_from!r} run"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        """A JSON-friendly dump (the CLI's ``--json`` output)."""
        return {
            "selected": self.selected,
            "tasks": self.tasks,
            "measured": self.measured,
            "skipped_unchanged": self.skipped_unchanged,
            "pruned": self.pruned,
            "resumed_from": self.resumed_from,
            "outcomes": {
                "studied": self.studied,
                "rigid": self.rigid,
                "zero_versions": self.zero_versions,
                "no_create": self.no_create,
                "failed": self.failed,
            },
            "wall_seconds": round(self.wall_seconds, 6),
            **(
                {
                    "stream_count": self.stream_count,
                    "stream_resumed_at": self.stream_resumed_at,
                }
                if self.stream_count is not None
                else {}
            ),
        }


def history_fingerprint(
    task: ProjectTask,
    repo: Repository | None,
    versions: list[FileVersion],
    config: PipelineConfig,
) -> str:
    """The content identity of one project's measurable input.

    Built on the pipeline cache's :func:`text_key` so the same blob
    hashing underpins both caching and incremental ingest.  Whole-repo
    commit stats participate because PUP months and the DDL-commit
    share are measured from them.
    """
    if repo is None:
        return MISSING_REPO_FINGERPRINT
    digest = hashlib.sha256()
    digest.update(
        f"{task.ddl_path}|{config.policy.name}|{config.reed_limit}"
        f"|{int(config.lenient)}".encode()
    )
    if task.dialect not in ("", "mysql"):
        # A dialect switch re-measures the project (SQLite affinity and
        # postgres preprocessing change parses); the default spelling is
        # omitted so pre-dialect fingerprints stay valid.
        digest.update(f"|dialect:{task.dialect}".encode())
    from repro.core.project import repo_stats_of

    stats = repo_stats_of(repo)
    digest.update(
        f"|repo:{stats.total_commits}"
        f":{stats.first_commit_ts}:{stats.last_commit_ts}".encode()
    )
    for version in versions:
        digest.update(
            f"|{version.commit_oid}:{version.timestamp}"
            f":{text_key(version.text, config.lenient)}".encode()
        )
    return digest.hexdigest()


def _persist_resiliently(
    store: CorpusStore,
    ctx: ProjectContext,
    fingerprint: str,
    retry: RetryPolicy,
    injector: FaultInjector | None,
    stats: PipelineStats,
) -> None:
    """Write one context under the ingest's retry policy.

    When every attempt fails, the *measurement* is not thrown away
    silently: a ``persist``-stage failure context is written under
    :data:`PERSIST_FAILED_FINGERPRINT` (a write that itself bypasses
    injection — if the store is truly down it raises, leaving the
    checkpoint in place for the resumed run).
    """
    name = ctx.task.repo_name
    last: Exception | None = None
    for attempt in range(1, retry.max_attempts + 1):
        try:
            if injector is not None:
                injector.check("persist", name, attempt)
            store.persist_context(ctx, fingerprint)
            if attempt > 1:
                stats.registry.counter("repro_ingest_persist_recovered_total").inc()
            return
        except Exception as exc:
            last = exc
            if attempt >= retry.max_attempts:
                break
            stats.registry.counter("repro_ingest_persist_retries_total").inc()
            delay = retry.delay_for(attempt, key=f"persist|{name}")
            if delay > 0:
                time.sleep(delay)
    assert last is not None
    failure = ProjectFailure(
        project=name,
        stage="persist",
        error=type(last).__name__,
        message=str(last),
        attempts=retry.max_attempts,
    )
    fallback = ProjectContext(task=ctx.task, outcome=Outcome.FAILED, failure=failure)
    store.persist_context(fallback, PERSIST_FAILED_FINGERPRINT)


def _fingerprint(
    tasks: list[ProjectTask], provider: RepoProvider, config: PipelineConfig
) -> tuple[SeedMap, dict[str, str]]:
    """Every task's fingerprint, plus the extracted history (seed) of each
    task whose provider answered; one that raised gets no seed."""
    seeds: SeedMap = {}
    fingerprints: dict[str, str] = {}
    for task in tasks:
        try:
            repo = provider(task.repo_name)
            versions = (
                usable_versions(
                    extract_file_history(repo, task.ddl_path, policy=config.policy)
                )
                if repo is not None
                else []
            )
            fingerprint = history_fingerprint(task, repo, versions, config)
        except Exception:
            fingerprints[task.repo_name] = MISSING_REPO_FINGERPRINT
            continue
        fingerprints[task.repo_name] = fingerprint
        seeds[task.repo_name] = (repo, versions)
    return seeds, fingerprints


def _measure(
    tasks: list[ProjectTask],
    seeds: SeedMap,
    provider: RepoProvider,
    config: PipelineConfig,
    cache: SchemaCache | None,
    stats: PipelineStats,
) -> list[ProjectContext]:
    """Measure *tasks* on the configured backend, results in task order.

    Seeded tasks replay their fingerprinted histories (the process
    backend ships those to its workers); an unseeded task reruns its
    provider crash in the extract stage, which records it as a
    :class:`~repro.pipeline.stages.ProjectFailure` like any other.
    """
    if not tasks:
        return []
    if cache is None:
        # A fresh in-memory cache per chunk keeps the parse/diff cache
        # from growing with the corpus; a cache_dir still shares.
        cache = SchemaCache(config.cache_dir, registry=stats.registry)
    contexts: dict[str, ProjectContext] = {}
    for seeded in (True, False):
        batch = [task for task in tasks if (task.repo_name in seeds) is seeded]
        if batch:
            pipeline = MeasurementPipeline(
                provider, config, cache, seeds=seeds if seeded else None
            )
            pipeline.stats = stats
            for task, ctx in zip(batch, pipeline.run(batch)):
                contexts[task.repo_name] = ctx
    return [contexts[task.repo_name] for task in tasks]


def _persist(
    store: CorpusStore,
    items: list[tuple[ProjectContext, str]],
    config: PipelineConfig,
    stats: PipelineStats,
) -> None:
    """Write one chunk in one batch; row by row under fault injection
    (it draws per project and attempt) or when the batch raised."""
    with trace("ingest.persist", contexts=len(items)):
        if config.injector is None:
            try:
                store.persist_batch(items)
                return
            except Exception:
                fallbacks = "repro_ingest_persist_batch_fallbacks_total"
                stats.registry.counter(fallbacks).inc()
        for ctx, fingerprint in items:
            _persist_resiliently(
                store, ctx, fingerprint, config.retry, config.injector, stats
            )


def _ingest(
    store: CorpusStore,
    report: IngestReport,
    source: dict,
    chunk_of: Callable[[int, int], tuple[list[ProjectTask], RepoProvider]],
    config: PipelineConfig,
    cache: SchemaCache | None,
    chunk_size: int | None,
    started: float,
    resumes: bool = False,
    keep: list[str] | None = None,
) -> IngestReport:
    """The chunked loop behind both entry points, over ``report.tasks`` tasks.

    ``chunk_of(start, stop)`` returns the tasks at those indices and the
    provider of their repositories; *source* (``kind`` and the source's
    parameters) enters the checkpoint identity.  Only a source that
    *resumes* restarts at the checkpoint's index.  *keep* prunes every
    stored project it does not name.
    """
    identity = {
        **source,
        "policy": config.policy.name,
        "reed_limit": config.reed_limit,
        "lenient": config.lenient,
    }
    count, start = report.tasks, 0
    raw = store.get_meta(INGEST_CHECKPOINT_KEY)
    previous = json.loads(raw) if raw is not None else None
    if (
        isinstance(previous, dict)
        and previous.get("version") == 1
        and previous.get("source") == identity
    ):
        report.resumed_from = identity["kind"]
        if resumes:
            start = min(int(previous["next_index"]), count)

    def checkpoint(next_index: int) -> None:
        record = {"version": 1, "source": identity, "next_index": next_index}
        store.set_meta(INGEST_CHECKPOINT_KEY, json.dumps(record, sort_keys=True))

    checkpoint(start)
    if resumes:
        report.stream_count, report.stream_resumed_at = count, start
    report.skipped_unchanged = start  # the resumed prefix is proven persisted
    stats = PipelineStats(
        jobs=max(1, config.jobs), cache=cache.counters if cache is not None else None
    )
    chunk = chunk_size if chunk_size is not None else max(8, config.jobs * 4)
    with trace(
        "ingest.run", source=identity["kind"], count=count, start=start, chunk=chunk
    ):
        for chunk_start in range(start, count, chunk):
            chunk_stop = min(chunk_start + chunk, count)
            with trace("ingest.source", start=chunk_start, stop=chunk_stop):
                tasks, provider = chunk_of(chunk_start, chunk_stop)
            with trace("ingest.fingerprint", tasks=len(tasks)) as span:
                seeds, fingerprints = _fingerprint(tasks, provider, config)
                stored = store.fingerprints(list(fingerprints))
                changed = [
                    task
                    for task in tasks
                    if task.repo_name not in seeds
                    or stored.get(task.repo_name) != fingerprints[task.repo_name]
                ]
                if span is not None:
                    span.attrs["changed"] = len(changed)
            contexts = _measure(changed, seeds, provider, config, cache, stats)
            _persist(
                store,
                [(ctx, fingerprints[ctx.task.repo_name]) for ctx in contexts],
                config,
                stats,
            )
            report.measured += len(contexts)
            report.skipped_unchanged += len(tasks) - len(changed)
            checkpoint(chunk_stop)
        if keep is not None:
            with trace("ingest.prune"):
                report.pruned = store.prune_missing(keep)
        with trace("ingest.analyze"):
            store.analyze()
    store.delete_meta(INGEST_CHECKPOINT_KEY)  # the run completed; nothing to resume

    outcomes = store.aggregates()["by_outcome"]
    report.zero_versions = outcomes.get(Outcome.ZERO_VERSIONS.value, 0)
    report.no_create = outcomes.get(Outcome.NO_CREATE.value, 0)
    report.rigid = outcomes.get(Outcome.RIGID.value, 0)
    report.studied = outcomes.get(Outcome.STUDIED.value, 0)
    report.failed = outcomes.get(Outcome.FAILED.value, 0)
    report.stats = stats
    report.wall_seconds = time.perf_counter() - started
    return report


def ingest_corpus(
    store: CorpusStore,
    activity: GithubActivityDataset,
    lib_io: LibrariesIoDataset,
    provider: RepoProvider,
    *,
    criteria: SelectionCriteria = SelectionCriteria(),
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache: SchemaCache | None = None,
    prune: bool = True,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    executor: str = "auto",
    dialects: tuple[str, ...] = ("mysql",),
) -> IngestReport:
    """Run the funnel front, measure the changed delta, persist it all.

    The front half is the funnel's own selection
    (:func:`repro.mining.funnel.select_tasks`); the back half replaces
    blanket re-measurement with the fingerprint delta.  Projects whose
    history cannot even be extracted (a crashing provider) go through
    the ordinary pipeline, so the failure is recorded uniformly as a
    :class:`~repro.pipeline.stages.ProjectFailure`; with ``prune``,
    stored projects that left the corpus are dropped.

    ``retry``/``project_deadline``/``injector``/``executor``
    parameterize the measurement pipeline exactly as in ``run_funnel``;
    ``retry`` also governs the row-by-row persist fallback.  Chunks hold
    ``chunk_size`` projects (default ``max(8, jobs * 4)``), so a crash
    loses at most one; the re-run reports ``resumed_from == "corpus"``.
    """
    started = time.perf_counter()
    joined, tasks, omitted = select_tasks(activity, lib_io, criteria, dialects)
    store.record_funnel_front(
        sql_collection_repos=activity.repository_count(),
        joined_and_filtered=joined,
        lib_io_projects=len(tasks),
        omitted_by_paths=omitted,
    )
    config = PipelineConfig(
        policy=policy, reed_limit=reed_limit, jobs=jobs, cache_dir=cache_dir,
        retry=retry, project_deadline=project_deadline, injector=injector,
        executor=executor,
    )
    return _ingest(
        store,
        IngestReport(selected=joined, tasks=len(tasks), omitted_by_paths=omitted),
        {"kind": "corpus"},
        lambda start, stop: (tasks[start:stop], provider),
        config,
        cache,
        chunk_size,
        started,
        keep=[task.repo_name for task in tasks] if prune else None,
    )


def ingest_stream(
    store: CorpusStore,
    spec,
    *,
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache: SchemaCache | None = None,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    executor: str = "auto",
) -> IngestReport:
    """Consume a synthesis stream into the store in bounded batches.

    The constant-memory counterpart of :func:`ingest_corpus` for
    *synthetic* corpora: *spec* is a
    :class:`~repro.synthesis.stream.StreamSpec`, and projects are
    generated, measured and persisted **one chunk at a time**, so peak
    RSS is a function of ``chunk_size``, not of ``spec.count``.  It runs
    the same loop with the same knobs, and the store ends byte-identical
    to materialize-then-:func:`ingest_corpus`.  A killed run resumes
    **by index**, regenerating nothing before the checkpoint
    (per-project seeds make any suffix of the stream reproducible), and
    reports ``resumed_from == "stream"`` and ``stream_resumed_at``.
    """
    from repro.synthesis.stream import stream_projects  # cycle-free late import

    started = time.perf_counter()
    store.record_funnel_front(
        sql_collection_repos=spec.count,
        joined_and_filtered=spec.count,
        lib_io_projects=spec.count,
        omitted_by_paths={},
    )
    config = PipelineConfig(
        policy=policy, reed_limit=reed_limit, jobs=jobs, cache_dir=cache_dir,
        retry=retry, project_deadline=project_deadline, injector=injector,
        executor=executor,
    )

    def chunk_of(start: int, stop: int) -> tuple[list[ProjectTask], RepoProvider]:
        projects = list(stream_projects(spec, start, stop))
        tasks = [
            ProjectTask(p.name, p.ddl_path, p.plan.domain, dialect=p.dialect)
            for p in projects
        ]
        return tasks, {p.name: p.repo for p in projects}.get

    return _ingest(
        store,
        IngestReport(selected=spec.count, tasks=spec.count),
        {
            "kind": "stream",
            "seed": spec.seed,
            "profile": spec.profile,
            "epoch_start": spec.epoch_start,
            "dialects": list(spec.dialects),
        },
        chunk_of,
        config,
        cache,
        chunk_size,
        started,
        resumes=True,
    )
