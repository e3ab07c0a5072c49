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
(a synthesis stream) run one chunked loop: read a chunk's stored
fingerprints once, measure its changed projects, write them in one
``persist_batch`` transaction, and checkpoint
``{"version": 1, "source": <identity>, "next_index": n}`` under
:data:`INGEST_CHECKPOINT_KEY`.  Who does the rest depends on the source:

- A **stream** chunk is dispatched by name alone
  (:func:`~repro.synthesis.stream.project_name`): each worker slice
  gets the stream spec, its indices and the store's fingerprints of
  those names, then synthesizes, extracts and fingerprints its projects
  itself, drops the unchanged ones and measures the rest.
- A **corpus** chunk is resolved and fingerprinted in the parent,
  where the provider lives: one provider call per project, whose
  repository and walked history ship with each changed project (a
  re-ingest ships nothing).  That call is the project's first
  attempt's, as in ``run_funnel``: a call that raises continues the
  project in the parent from attempt 2, and a project that recovers is
  stored under the fingerprint of what the later call returned.

A run opens one :class:`~repro.pipeline.backends.WorkerPool` (with
one job it runs the same slices inline) and keeps exactly one
chunk in flight ahead: while the parent persists chunk *k*, chunk *k+1*
is already on the workers.  The pool is closed in a ``finally`` that
cancels the chunk in flight, so a crash or Ctrl-C leaves no worker
behind and loses at most the unpersisted chunk and the one in flight;
the checkpoint, written after each persist, names the first
unpersisted index.  Memory is bounded by the chunk.  The identity is
the source's (its kind; for a stream also seed, profile, epoch and
dialects) plus the config the fingerprint hashes, and a re-run under
the same identity reports ``resumed_from``.  A stream resumes at
``next_index`` (project *i* is a pure function of the spec and *i*); a
corpus restarts at 0 and proves the persisted prefix by fingerprint (a
provider's repositories can change between runs).  Any other record is
ignored, which is safe because persists are idempotent upserts.

Under fault injection, or when a batch raises, the chunk is written row
by row under the ingest's :class:`~repro.resilience.RetryPolicy`; a
project whose rows cannot be written even after retries is recorded as
a ``persist``-stage :class:`~repro.pipeline.stages.ProjectFailure` under
a sentinel fingerprint, so the next ingest re-measures it instead of
trusting a half-written row.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.mining.funnel import RepoProvider, select_tasks
from repro.mining.github_activity import GithubActivityDataset
from repro.mining.librariesio import LibrariesIoDataset
from repro.mining.path_filters import MultiFileVerdict
from repro.mining.selection import SelectionCriteria
from repro.obs.trace import trace
from repro.pipeline.backends import (
    Batch,
    ProjectMaterial,
    WorkerChunk,
    WorkerPool,
    partition,
    partition_digest,
    resolve_ahead,
)
from repro.pipeline.cache import SchemaCache, text_key
from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig
from repro.pipeline.stages import (
    Outcome,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
    usable_versions,
)
from repro.pipeline.stats import PipelineStats
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.store.store import CorpusStore
from repro.vcs.history import FileVersion, LinearizationPolicy, extract_file_history
from repro.vcs.repository import Repository

if TYPE_CHECKING:  # imported late below: serving never loads the synthesizer
    from repro.synthesis.stream import StreamSpec

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
    # "|1" and text_key's unprefixed form name the lenient parse;
    # stored fingerprints hash both, so they must not change.
    digest.update(
        f"{task.ddl_path}|{config.policy.name}|{config.reed_limit}|1".encode()
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
            f":{text_key(version.text)}".encode()
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
    attempts = itertools.count(1)

    def write() -> None:
        attempt = next(attempts)
        if injector is not None:
            injector.check("persist", name, attempt)
        store.persist_context(ctx, fingerprint)

    def retried(attempt: int, error: BaseException) -> None:
        stats.registry.counter("repro_ingest_persist_retries_total").inc()

    try:
        _, used = retry.execute(write, key=f"persist|{name}", on_retry=retried)
    except Exception as exc:
        failure = ProjectFailure(
            project=name,
            stage="persist",
            error=type(exc).__name__,
            message=str(exc),
            attempts=retry.max_attempts,
        )
        fallback = ProjectContext(task=ctx.task, outcome=Outcome.FAILED, failure=failure)
        store.persist_context(fallback, PERSIST_FAILED_FINGERPRINT)
        return
    if used > 1:
        stats.registry.counter("repro_ingest_persist_recovered_total").inc()


def _fingerprint(
    resolved: list[ProjectMaterial],
    config: PipelineConfig,
    stored_of: Callable[[list[str]], dict[str, str]],
) -> tuple[list[ProjectMaterial], dict[str, str]]:
    """Walk and fingerprint each *resolved* project against *stored_of*
    their names.

    Returns the changed projects, carrying their walked versions, and
    every project's fingerprint by name.  A project whose walk raised
    has no history to fingerprint: it is stored under
    :data:`MISSING_REPO_FINGERPRINT` and ships as resolved, so its walk
    fails again where it runs and the extract stage records the crash
    as a :class:`~repro.pipeline.stages.ProjectFailure`.
    """
    with trace("ingest.fingerprint", tasks=len(resolved)) as span:
        walked: list[tuple[ProjectMaterial, str | None]] = []
        fingerprints: dict[str, str] = {}
        for material in resolved:
            task, repo = material.task, material.repo
            try:
                versions = (
                    usable_versions(
                        extract_file_history(repo, task.ddl_path, policy=config.policy)
                    )
                    if repo is not None
                    else []
                )
                fingerprint = history_fingerprint(task, repo, versions, config)
                material = replace(material, versions=tuple(versions))
            except Exception:
                fingerprint = None
            fingerprints[task.repo_name] = fingerprint or MISSING_REPO_FINGERPRINT
            walked.append((material, fingerprint))
        stored = stored_of(list(fingerprints))
        changed = [
            material
            for material, fingerprint in walked
            if fingerprint is None or stored.get(material.task.repo_name) != fingerprint
        ]
        if span is not None:
            span.attrs["changed"] = len(changed)
    return changed, fingerprints


def _lookup(store: CorpusStore, names: list[str]) -> dict[str, str]:
    """One chunk's stored fingerprints, in one read."""
    with trace("ingest.lookup", names=len(names)):
        return store.fingerprints(names)


@dataclass(frozen=True)
class _StreamSlice:
    """Stream projects ``start .. stop`` and the store's fingerprints of
    their names: all a worker needs to synthesize, fingerprint and
    measure them on its own (a
    :class:`~repro.pipeline.backends.MaterialSource`)."""

    spec: StreamSpec
    start: int
    stop: int
    stored: dict[str, str]

    def resolve(
        self, config: PipelineConfig
    ) -> tuple[list[ProjectMaterial], dict[str, str]]:
        from repro.synthesis.stream import stream_projects

        with trace("ingest.source", start=self.start, stop=self.stop):
            projects = list(stream_projects(self.spec, self.start, self.stop))
        resolved = [
            ProjectMaterial(
                index,
                ProjectTask(p.name, p.ddl_path, p.plan.domain, dialect=p.dialect),
                p.repo,
            )
            for index, p in enumerate(projects, self.start)
        ]
        return _fingerprint(resolved, config, lambda _: self.stored)


#: What a source makes of one chunk: the digest keys and bounds of its
#: slices, the slices, the fingerprints the parent computed, and the
#: contexts the parent measured itself.
_Dispatch = tuple[
    list[ProjectTask] | list[str],
    list[tuple[int, int]],
    list[WorkerChunk],
    dict[str, str],
    list[tuple[int, ProjectContext]],
]


@dataclass
class _InFlight:
    """One chunk between its dispatch and its persist."""

    start: int
    stop: int
    sent_at: float
    batch: Batch
    cache: SchemaCache  # for slices the parent runs inline
    fingerprints: dict[str, str]
    done: list[tuple[int, ProjectContext]]


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
    dispatch: Callable[[int, int, SchemaCache, int], _Dispatch],
    config: PipelineConfig,
    chunk_size: int | None,
    started: float,
    resumes: bool = False,
    keep: list[str] | None = None,
) -> IngestReport:
    """The chunked loop behind both entry points, over ``report.tasks`` tasks.

    ``dispatch(start, stop, cache, jobs)`` turns the tasks at those
    indices into worker slices; *source* (``kind`` and the source's
    parameters) enters the checkpoint identity.  Only a source that
    *resumes* restarts at the checkpoint's index.  *keep* prunes every
    stored project it does not name.
    """
    identity = {
        **source,
        "policy": config.policy.name,
        "reed_limit": config.reed_limit,
        "lenient": True,  # the parse is always lenient; old checkpoints resume
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
    stats = PipelineStats(jobs=max(1, config.jobs))
    chunk = chunk_size if chunk_size is not None else max(8, config.jobs * 4)
    jobs = max(1, config.jobs)
    backend = "process" if jobs > 1 else "serial"

    def send(chunk_start: int, chunk_stop: int) -> _InFlight:
        sent_at = time.perf_counter()
        # A fresh cache per chunk keeps the parse/diff cache from
        # growing with the corpus.
        chunk_cache = SchemaCache(registry=stats.registry)
        keys, bounds, work, fingerprints, done = dispatch(
            chunk_start, chunk_stop, chunk_cache, jobs
        )
        if bounds:
            stats.note_partition(
                digest=partition_digest(keys, bounds, backend),
                chunks=len(bounds),
                backend=backend,
            )
        return _InFlight(
            chunk_start, chunk_stop, sent_at, pool.submit(work), chunk_cache,
            fingerprints, done,
        )

    def land(flight: _InFlight) -> None:
        with trace("ingest.measure", start=flight.start, stop=flight.stop) as span:
            measured, fingerprints = pool.results(flight.batch, flight.cache)
            contexts = [
                ctx for _, ctx in sorted(flight.done + measured, key=lambda m: m[0])
            ]
            if span is not None:
                span.attrs["measured"] = len(contexts)
        failed = sum(1 for ctx in contexts if ctx.outcome is Outcome.FAILED)
        stats.note_run(
            projects=len(contexts),
            completed=len(contexts) - failed,
            failures=failed,
            wall_seconds=time.perf_counter() - flight.sent_at,
        )
        fingerprints.update(flight.fingerprints)
        _persist(
            store,
            [(ctx, fingerprints[ctx.task.repo_name]) for ctx in contexts],
            config,
            stats,
        )
        report.measured += len(contexts)
        report.skipped_unchanged += flight.stop - flight.start - len(contexts)
        checkpoint(flight.stop)

    with trace(
        "ingest.run", source=identity["kind"], count=count, start=start, chunk=chunk
    ), WorkerPool(jobs, stats.registry) as pool:
        # One chunk in flight ahead: chunk k+1 is on the workers while
        # the parent persists chunk k.
        ahead: _InFlight | None = None
        for chunk_start in range(start, count, chunk):
            sent = send(chunk_start, min(chunk_start + chunk, count))
            if ahead is not None:
                land(ahead)
            ahead = sent
        if ahead is not None:
            land(ahead)
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
    prune: bool = True,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    dialects: tuple[str, ...] = ("mysql",),
) -> IngestReport:
    """Run the funnel front, measure the changed delta, persist it all.

    The front half is the funnel's own selection
    (:func:`repro.mining.funnel.select_tasks`); the back half replaces
    blanket re-measurement with the fingerprint delta.  A project whose
    provider call or history walk raises fails its ``extract`` stage
    exactly as in ``run_funnel``, recorded as a
    :class:`~repro.pipeline.stages.ProjectFailure`; with ``prune``,
    stored projects that left the corpus are dropped.

    ``jobs``/``retry``/``project_deadline``/``injector`` parameterize
    the measurement pipeline exactly as in ``run_funnel``;
    ``retry`` also governs the row-by-row persist fallback.  Chunks hold
    ``chunk_size`` projects (default ``max(8, jobs * 4)``), so a crash
    loses at most the chunk being written and the one in flight; the
    re-run reports ``resumed_from == "corpus"``.
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
        policy=policy, reed_limit=reed_limit, jobs=jobs,
        retry=retry, project_deadline=project_deadline, injector=injector,
    )

    def dispatch(start: int, stop: int, cache: SchemaCache, jobs: int) -> _Dispatch:
        with trace("ingest.source", start=start, stop=stop):
            pipeline = MeasurementPipeline(provider, config, cache)
            resolved, done = resolve_ahead(pipeline, tasks[start:stop], start)
        changed, fingerprints = _fingerprint(resolved, config, partial(_lookup, store))
        # A project whose first call raised is stored under the
        # fingerprint of what a later call returned; a failed extract
        # walked no history.
        for _, ctx in done:
            failure = ctx.failure
            fingerprints[ctx.name] = (
                MISSING_REPO_FINGERPRINT
                if failure is not None and failure.stage == "extract"
                else history_fingerprint(ctx.task, ctx.repo, ctx.file_versions, config)
            )
        bounds = partition(len(changed), jobs)
        work = [
            WorkerChunk(slice_id, config, tuple(changed[a:b]))
            for slice_id, (a, b) in enumerate(bounds)
        ]
        return [m.task for m in changed], bounds, work, fingerprints, done

    return _ingest(
        store,
        IngestReport(selected=joined, tasks=len(tasks), omitted_by_paths=omitted),
        {"kind": "corpus"},
        dispatch,
        config,
        chunk_size,
        started,
        keep=[task.repo_name for task in tasks] if prune else None,
    )


def ingest_stream(
    store: CorpusStore,
    spec: StreamSpec,
    *,
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    chunk_size: int | None = None,
    executor: str | None = None,
) -> IngestReport:
    """Consume a synthesis stream into the store in bounded batches.

    The constant-memory counterpart of :func:`ingest_corpus` for
    *synthetic* corpora: *spec* is a
    :class:`~repro.synthesis.stream.StreamSpec`, and projects are
    generated, measured and persisted **one chunk at a time**, so peak
    RSS is a function of ``chunk_size``, not of ``spec.count``.  It runs
    the same loop with the same knobs, and for a single-dialect stream
    the store ends byte-identical to materialize-then-:func:`ingest_corpus`.
    A mixed-dialect stream does not: the stream draws each project's
    dialect apart from its DDL path, while the funnel derives a task's
    dialect from the path.  A killed run resumes
    **by index**, regenerating nothing before the checkpoint
    (per-project seeds make any suffix of the stream reproducible), and
    reports ``resumed_from == "stream"`` and ``stream_resumed_at``.

    ``executor`` is deprecated and ignored (``jobs`` alone decides how
    projects run); it accepts only its old values ``auto``, ``serial``
    and ``process``.
    """
    from repro.synthesis.stream import project_name

    if executor is not None:
        if executor not in ("auto", "serial", "process"):
            raise ValueError(
                f"unknown executor {executor!r};"
                " expected one of ('auto', 'serial', 'process')"
            )
        warnings.warn(
            "ingest_stream(executor=...) is deprecated and ignored;"
            " jobs alone decides how projects run",
            DeprecationWarning,
            stacklevel=2,
        )

    started = time.perf_counter()
    store.record_funnel_front(
        sql_collection_repos=spec.count,
        joined_and_filtered=spec.count,
        lib_io_projects=spec.count,
        omitted_by_paths={},
    )
    config = PipelineConfig(
        policy=policy, reed_limit=reed_limit, jobs=jobs,
        retry=retry, project_deadline=project_deadline, injector=injector,
    )

    def dispatch(start: int, stop: int, cache: SchemaCache, jobs: int) -> _Dispatch:
        names = [project_name(spec, index) for index in range(start, stop)]
        stored = _lookup(store, names)
        bounds = partition(len(names), jobs)
        work = [
            WorkerChunk(
                slice_id,
                config,
                source=_StreamSlice(
                    spec,
                    start + a,
                    start + b,
                    {name: stored[name] for name in names[a:b] if name in stored},
                ),
            )
            for slice_id, (a, b) in enumerate(bounds)
        ]
        return names, bounds, work, {}, []

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
        dispatch,
        config,
        chunk_size,
        started,
        resumes=True,
    )
