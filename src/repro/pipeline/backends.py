"""Worker processes for the measurement pipeline.

``PipelineConfig.jobs`` alone decides how projects run: one job or a
single task runs in the calling thread; more jobs run on worker
*processes*, which sidestep the GIL (a thread pool ran ``--jobs 4`` at
0.75x serial on this CPU-bound workload).  Both
:func:`run_on_workers` (one ``pipeline.run``) and incremental ingest
(:mod:`repro.store.ingest`, one pool per run) schedule on a
:class:`WorkerPool`.  The process contract with the rest of the system:

- **Task shipping** — a slice of work (:class:`WorkerChunk`) carries
  one of two kinds of material.  A :class:`ProjectMaterial` is a task
  the parent resolved with its one provider call (plus the usable
  versions when ingest walked them); workers never see the provider and
  run every attempt on the shipped clone.  That call is attempt 1's: a
  task whose call *raises* continues in the parent from attempt 2
  (:func:`resolve_ahead`), so outcomes, attempts, retry counters and
  provider calls match the calling-thread path.  A stream material is
  an index: the slice ships a picklable :class:`MaterialSource` (the
  stream spec, the indices and the store's fingerprints of their
  names), and the worker synthesizes, extracts and fingerprints each
  project itself, drops the unchanged ones and measures the rest.  :func:`run_slice` is that one path; a
  one-job pool runs it inline.
- **Pool lifetime** — a :class:`WorkerPool` forks its ``jobs`` workers
  on the first submit and keeps them for every slice of its run: one
  ``pipeline.run``, or a whole ingest, whose parent persists one chunk
  while the next is on the workers.  It closes in a ``finally`` that
  cancels whatever is still queued, so a raise or Ctrl-C leaves no
  worker running.
- **Deterministic partitioning** — tasks are split into contiguous
  chunks (``min(n, jobs * 4)`` of them); the assignment's content hash
  is recorded via :meth:`PipelineStats.note_partition` for every run,
  in the calling thread or not, so identical inputs provably schedule
  identically.
- **Caches** — each worker builds a fresh in-memory
  :class:`SchemaCache` per slice, so no cache is shared across
  processes (a cache the caller hands a run serves only the projects
  measured in the calling thread).  Its counters ride home with the
  slice and merge into the parent registry.
- **Observability relay** — each worker records spans into a private
  :class:`TraceRecorder` and metrics into a private
  :class:`MetricsRegistry`; finished slices ship both back, the parent
  grafts spans under the span it collects them in (``pipeline.run``,
  or ingest's ``ingest.measure``) via :meth:`TraceRecorder.adopt` and
  folds metric deltas in (:meth:`MetricsRegistry.merge_state`), so
  ``--trace``/``--stats`` read the same truth for every job count.
- **Worker death** — a dying worker (``BrokenProcessPool``) poisons
  every future of its pool, queued ones included.  The broken pool is
  shut down, its manager thread joined, and never reused; then each
  slice it took down, from every chunk still in flight, retries in its
  own single-worker pool before anything else forks, so innocent
  pool-mates get their own second chance.  A slice that kills its
  isolated pool too demotes each of its projects to an
  ``executor``-stage :class:`~repro.pipeline.stages.ProjectFailure`
  and the run completes.  Slices failing for non-fatal reasons (e.g. an
  unpicklable repository) fall back to inline execution in the parent.
- **Profiling** — when the run is under ``--profile``, each worker
  profiles its slices and the parent aggregates the dumps into one
  ``<profile stem>-workers.pstats`` next to the parent profile.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.obs.profile import (
    active_profile_path,
    merge_worker_profiles,
    profiled,
    worker_profile_dir,
)
from repro.obs.trace import active_recorder, current_span_id
from repro.pipeline.stages import (
    Outcome,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
)
from repro.vcs.history import FileVersion
from repro.vcs.repository import Repository

if TYPE_CHECKING:  # circular at runtime: pipeline.py imports this module
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline.cache import SchemaCache
    from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig, RepoProvider

# -- the work units crossing the process boundary --------------------------


@dataclass(frozen=True)
class ProjectMaterial:
    """One task plus what the parent resolved for it: the repository its
    provider call returned (None when it vanished) and, when ingest
    walked it already, the usable versions.  The worker hands both to
    ``run_project``, whose extract stage walks whatever is missing."""

    index: int  # position in the input task list
    task: ProjectTask
    repo: Repository | None
    versions: tuple[FileVersion, ...] = ()


class MaterialSource(Protocol):
    """Materials a slice resolves where it runs (an ingest stream slice)."""

    def resolve(
        self, config: "PipelineConfig"
    ) -> tuple[list[ProjectMaterial], dict[str, str]]:
        """The materials to measure, and each one's fingerprint by name."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class WorkerChunk:
    """One contiguous slice of the run, shipped to one worker call:
    resolved *materials*, or a *source* that resolves them there."""

    chunk_id: int
    config: "PipelineConfig"
    materials: tuple[ProjectMaterial, ...] = ()
    source: MaterialSource | None = None

    def resolve(self) -> tuple[Sequence[ProjectMaterial], dict[str, str]]:
        if self.source is None:
            return self.materials, {}
        return self.source.resolve(self.config)


@dataclass
class ChunkOutcome:
    """What a slice sends home: contexts plus observability deltas."""

    chunk_id: int
    contexts: list[tuple[int, ProjectContext]]
    fingerprints: dict[str, str]  # of a source's materials, by name
    metrics: list[dict] = field(default_factory=list)  # dump_state()
    spans: list[dict] = field(default_factory=list)  # Span.payload() list


def partition(count: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``count`` tasks into contiguous ``(start, stop)`` chunks.

    Deterministic in ``(count, jobs)``: ``min(count, jobs * 4)`` chunks,
    sizes differing by at most one.  Several chunks per worker keep the
    pool busy when project costs are skewed, while contiguity preserves
    locality with the input ordering.
    """
    if count <= 0:
        return []
    pieces = max(1, min(count, max(1, jobs) * 4))
    base, extra = divmod(count, pieces)
    chunks: list[tuple[int, int]] = []
    start = 0
    for index in range(pieces):
        stop = start + base + (1 if index < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


def partition_digest(
    tasks: Sequence[ProjectTask] | Sequence[str],
    chunks: Sequence[tuple[int, int]],
    backend: str,
) -> str:
    """Content hash of one task-to-chunk assignment.  A task may be
    given by its name alone: an ingest stream chunk is dispatched
    before its tasks exist."""
    digest = hashlib.sha256(backend.encode())
    for chunk_id, (start, stop) in enumerate(chunks):
        digest.update(f"|{chunk_id}:".encode())
        for task in tasks[start:stop]:
            if not isinstance(task, str):
                task = f"{task.repo_name}\x00{task.ddl_path}"
            digest.update(f"{task}\x00".encode())
    return digest.hexdigest()


# -- one slice, wherever it runs --------------------------------------------


def run_slice(chunk: WorkerChunk, cache: "SchemaCache") -> ChunkOutcome:
    """Resolve and measure one slice: in a worker, or inline in the parent.

    Each material runs on what was resolved for it.  Metrics land in
    *cache*'s registry and spans in the active recorder.
    """
    from repro.pipeline.pipeline import MeasurementPipeline

    materials, fingerprints = chunk.resolve()
    # A slice has no provider: a material without a repository is one
    # whose provider call returned None.
    pipeline = MeasurementPipeline(lambda name: None, chunk.config, cache)
    contexts = [
        (m.index, pipeline.run_project(m.task, m.repo, m.versions)) for m in materials
    ]
    return ChunkOutcome(chunk.chunk_id, contexts, fingerprints)


#: Tells apart the profile dumps one worker writes over a pool's life.
_PROFILE_DUMPS = itertools.count()


def _run_worker_chunk(chunk: WorkerChunk, profile_dir: str | None) -> ChunkOutcome:
    """Execute one slice inside a worker process.

    :func:`run_slice` under a fresh registry and cache and a private
    trace recorder whose spans ride home in the outcome.  Contexts are
    stripped of their repository/version payloads before pickling — the
    parent holds those objects already, or does not need them.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder, recording, reset_tracing_for_worker
    from repro.pipeline.cache import SchemaCache

    reset_tracing_for_worker()  # drop tracing state inherited over fork
    registry = MetricsRegistry()
    recorder = TraceRecorder()
    profile_path = (
        Path(profile_dir) / f"slice-{os.getpid()}-{next(_PROFILE_DUMPS)}.pstats"
        if profile_dir is not None
        else None
    )
    cache = SchemaCache(registry=registry)
    with recording(recorder), profiled(profile_path):
        outcome = run_slice(chunk, cache)
    for _, ctx in outcome.contexts:
        ctx.repo = None
        ctx.file_versions = []
    outcome.metrics = registry.dump_state()
    outcome.spans = [span.payload() for span in recorder.spans()]
    return outcome


# -- the pool ---------------------------------------------------------------


def _fork_pool(workers: int) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


@dataclass
class Batch:
    """The slices of one submit, and what became of them."""

    work: list[WorkerChunk]
    futures: dict[Future, WorkerChunk] = field(default_factory=dict)
    outcomes: list[ChunkOutcome] = field(default_factory=list)
    dead: list[WorkerChunk] = field(default_factory=list)  # killed twice
    errored: list[WorkerChunk] = field(default_factory=list)  # run inline


class WorkerPool:
    """The worker processes of one run, forked on the first submit.

    Slices go in through :meth:`submit` and come back, settled, through
    :meth:`results`; a caller may submit the next batch before
    collecting the previous one.  With ``jobs == 1`` nothing forks and
    :meth:`results` runs each slice inline.  Use it as a context
    manager: closing cancels queued slices and joins every worker.
    """

    def __init__(self, jobs: int, registry: "MetricsRegistry") -> None:
        self.jobs = jobs
        self.registry = registry  # where worker metrics merge
        self._profile_dir = self._open_profile_dir() if jobs > 1 else None
        self._executor: ProcessPoolExecutor | None = None
        self._batches: list[Batch] = []  # submitted, not yet collected

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, work: Sequence[WorkerChunk]) -> Batch:
        batch = Batch(list(work))
        if self.jobs > 1:
            self._batches.append(batch)
            for chunk in work:
                batch.futures[self._submit(chunk)] = chunk
        return batch

    def results(
        self, batch: Batch, cache: "SchemaCache"
    ) -> tuple[list[tuple[int, ProjectContext]], dict[str, str]]:
        """Every context of *batch* in material order, plus the
        fingerprints its sources resolved.  Worker metrics and spans fold
        into the parent here; slices that errored run inline over
        *cache*."""
        if self.jobs == 1:
            outcomes = [run_slice(chunk, cache) for chunk in batch.work]
        else:
            if any(
                isinstance(future.exception(), BrokenProcessPool)
                for future in batch.futures
            ):
                self._recover()
            else:
                self._settle(batch)
            self._batches.remove(batch)
            outcomes = sorted(batch.outcomes, key=lambda outcome: outcome.chunk_id)
            for outcome in outcomes:
                self._merge(outcome)
            outcomes += [run_slice(chunk, cache) for chunk in batch.errored]
            outcomes += [self._demoted(chunk) for chunk in batch.dead]
        contexts: list[tuple[int, ProjectContext]] = []
        fingerprints: dict[str, str] = {}
        for outcome in outcomes:
            contexts += outcome.contexts
            fingerprints.update(outcome.fingerprints)
        contexts.sort(key=lambda item: item[0])
        return contexts, fingerprints

    def close(self) -> None:
        """Cancel queued slices, join the workers, merge their profiles."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        if self._profile_dir is not None:
            self._merge_profiles(self._profile_dir)
            self._profile_dir = None

    # -- helpers ----------------------------------------------------------

    def _submit(self, chunk: WorkerChunk) -> Future:
        while True:  # a broken pool is replaced once the damage is settled
            if self._executor is None:
                self._executor = _fork_pool(self.jobs)
            try:
                return self._executor.submit(
                    _run_worker_chunk, chunk, self._profile_dir
                )
            except BrokenProcessPool:
                self._recover()

    def _settle(self, batch: Batch) -> list[WorkerChunk]:
        """Move every future of *batch* into its outcome lists; returns
        the slices whose worker died."""
        broken: list[WorkerChunk] = []
        for future, chunk in batch.futures.items():
            try:
                batch.outcomes.append(future.result())
            except BrokenProcessPool:
                broken.append(chunk)
            except Exception:
                batch.errored.append(chunk)
        batch.futures.clear()
        return broken

    def _recover(self) -> None:
        """Retire the broken pool, then retry each slice it took down in
        its own single-worker pool.

        A dying worker poisons every future sharing its pool, so
        isolation is the only way to tell the slice that kills workers
        apart from its innocent pool-mates.  The broken pool is shut down
        (its manager thread joined) first, so nothing forks beside a live
        thread; its replacement forks on the next submit.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        for batch in self._batches:
            for chunk in self._settle(batch):
                with _fork_pool(1) as isolated:
                    future = isolated.submit(
                        _run_worker_chunk, chunk, self._profile_dir
                    )
                    try:
                        batch.outcomes.append(future.result())
                    except BrokenProcessPool:
                        batch.dead.append(chunk)
                    except Exception:
                        batch.errored.append(chunk)

    def _merge(self, outcome: ChunkOutcome) -> None:
        """Fold one worker slice's metrics and spans into the parent."""
        self.registry.merge_state(outcome.metrics)
        recorder = active_recorder()
        if recorder is not None and outcome.spans:
            recorder.adopt(
                outcome.spans,
                parent_id=current_span_id(),
                thread=f"worker-{outcome.chunk_id}",
            )

    @staticmethod
    def _demoted(chunk: WorkerChunk) -> ChunkOutcome:
        """The outcome of a slice whose worker died twice: an
        ``executor``-stage failure per project (a source resolves its
        projects in the parent to name them)."""
        materials, fingerprints = chunk.resolve()
        contexts = []
        for material in materials:
            failure = ProjectFailure(
                project=material.task.repo_name,
                stage="executor",
                error="BrokenProcessPool",
                message="worker process died while running this project's chunk",
            )
            contexts.append(
                (
                    material.index,
                    ProjectContext(
                        task=material.task, outcome=Outcome.FAILED, failure=failure
                    ),
                )
            )
        return ChunkOutcome(chunk.chunk_id, contexts, fingerprints)

    @staticmethod
    def _open_profile_dir() -> str | None:
        """Scratch directory for worker profile dumps, when profiling."""
        parent = active_profile_path()
        if parent is None:
            return None
        directory = worker_profile_dir(parent)
        directory.mkdir(parents=True, exist_ok=True)
        return str(directory)

    @staticmethod
    def _merge_profiles(directory: str) -> None:
        """Aggregate worker dumps next to the parent profile, then tidy."""
        parent = active_profile_path()
        dumps = sorted(Path(directory).glob("*.pstats"))
        if parent is not None:
            merge_worker_profiles(
                dumps, parent.with_name(parent.stem + "-workers.pstats")
            )
        for dump in dumps:
            dump.unlink(missing_ok=True)
        try:
            Path(directory).rmdir()
        except OSError:  # pragma: no cover - leftover foreign files
            pass


# -- one pipeline.run on workers ---------------------------------------------


def run_on_workers(
    pipeline: "MeasurementPipeline",
    tasks: Sequence[ProjectTask],
    chunks: Sequence[tuple[int, int]],
) -> list[ProjectContext]:
    """Run *tasks* on ``pipeline.config.jobs`` worker processes, one
    slice per chunk of *chunks*; contexts come back in input order."""
    materials, done = resolve_ahead(pipeline, tasks)
    work = [
        WorkerChunk(chunk_id, pipeline.config, shipped)
        for chunk_id, (start, stop) in enumerate(chunks)
        if (shipped := tuple(m for m in materials if start <= m.index < stop))
    ]
    with WorkerPool(max(1, pipeline.config.jobs), pipeline.stats.registry) as pool:
        contexts, _ = pool.results(pool.submit(work), pipeline.cache)
    results = dict(contexts + done)
    return [results[index] for index in range(len(tasks))]


def resolve_ahead(
    pipeline: "MeasurementPipeline", tasks: Sequence[ProjectTask], first: int = 0
) -> tuple[list[ProjectMaterial], list[tuple[int, ProjectContext]]]:
    """Make each task's first provider call here, ahead of its stages
    (for :func:`run_on_workers` and the ingest's fingerprint pass).

    Returns a material (numbered from *first*) per call that returned,
    and a finished context per call that raised: that call was attempt
    1's, so the project continues in this process from attempt 2.
    """
    from repro.pipeline.pipeline import MeasurementPipeline

    materials: list[ProjectMaterial] = []
    done: list[tuple[int, ProjectContext]] = []
    for index, task in enumerate(tasks, first):
        try:
            materials.append(
                ProjectMaterial(index, task, pipeline.provider(task.repo_name))
            )
        except Exception as exc:
            inline = MeasurementPipeline(
                _raising_first(pipeline.provider, exc), pipeline.config, pipeline.cache
            )
            inline.stats = pipeline.stats
            done.append((index, inline.run_project(task)))
    return materials, done


def _raising_first(provider: "RepoProvider", error: Exception) -> "RepoProvider":
    """*provider*, except that its first call raises *error*: the call
    already made ahead of the stages, replayed as attempt 1's."""
    pending = [error]

    def resolve(name: str) -> Repository | None:
        if pending:
            raise pending.pop()
        return provider(name)

    return resolve
