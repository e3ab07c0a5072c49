"""Pluggable execution backends: how one ``pipeline.run`` is scheduled.

Execution is a strategy object chosen by ``PipelineConfig.executor``
(``auto``, ``serial`` or ``process``).  A thread pool is not among
them: the GIL made ``--jobs 4`` on threads *slower* than serial on this
CPU-bound workload (0.75x), so it was removed.

- :class:`SerialBackend` — one task after another in the calling
  thread; the reference implementation the process backend must match
  byte-for-byte.
- :class:`ProcessBackend` — worker *processes* that sidestep the GIL;
  the default for ``jobs > 1`` under ``executor="auto"``.

The process backend's contract with the rest of the system:

- **Task shipping** — the parent resolves each task's repository via
  the provider (or the pipeline's seed map) into a picklable
  :class:`ProjectMaterial`; workers never see the provider.  A provider
  that *raises* in the parent is re-run inside ``run_project`` in the
  parent process so its failure keeps the exact serial retry semantics.
- **Deterministic partitioning** — tasks are split into contiguous
  chunks (``min(n, jobs * 4)`` of them); the assignment's content hash
  is recorded via :meth:`PipelineStats.note_partition` for every
  backend, so identical inputs provably schedule identically.
- **Cache sharing** — workers build their own :class:`SchemaCache`
  over the same ``cache_dir``; the on-disk layer (atomic pid-unique
  tmp + rename writes) is the shared medium.  In-memory counters ride
  home with each chunk and merge into the parent registry.
- **Observability relay** — each worker records spans into a private
  :class:`TraceRecorder` and metrics into a private
  :class:`MetricsRegistry`; finished chunks ship both back, the parent
  grafts spans under its in-flight ``pipeline.run`` span
  (:meth:`TraceRecorder.adopt`) and folds metric deltas in
  (:meth:`MetricsRegistry.merge_state`), so ``--trace``/``--stats``
  read the same truth regardless of backend.
- **Worker death** — a chunk whose worker dies (``BrokenProcessPool``)
  is retried in an isolated single-worker pool (a dying worker poisons
  every future sharing its pool, so innocent pool-mates get their own
  second chance); a chunk that kills its isolated pool too demotes each
  of its projects to an ``executor``-stage
  :class:`~repro.pipeline.stages.ProjectFailure` and the run completes.
  Chunks failing for non-fatal reasons (e.g. an unpicklable repository)
  fall back to inline execution in the parent.
- **Profiling** — when the run is under ``--profile``, each worker
  profiles its chunks and the parent aggregates the dumps into one
  ``<profile stem>-workers.pstats`` next to the parent profile.

Custom stage chains (``MeasurementPipeline(stages=...)``) hold live
caches and closures that cannot cross a process boundary; asking for
the process backend there falls back to serial with a warning.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

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
    from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig

#: The accepted ``--executor`` / ``PipelineConfig.executor`` values.
EXECUTORS = ("auto", "serial", "process")


def resolve_executor(executor: str, jobs: int) -> str:
    """Map an executor request to a concrete backend name.

    ``auto`` chooses ``process`` when ``jobs > 1`` and ``serial``
    otherwise.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if executor == "auto":
        return "process" if jobs > 1 else "serial"
    return executor


# -- the work units crossing the process boundary --------------------------


@dataclass(frozen=True)
class ProjectMaterial:
    """One task plus everything a worker needs to run it.

    ``versions`` is the pre-extracted usable history when the pipeline
    was seeded (ingest); ``None`` means the worker runs the ordinary
    extract stage against the shipped repository.
    """

    index: int  # position in the input task list
    task: ProjectTask
    repo: Repository | None
    versions: tuple[FileVersion, ...] | None = None


@dataclass(frozen=True)
class WorkerChunk:
    """One contiguous slice of the run, shipped to one worker call."""

    chunk_id: int
    config: "PipelineConfig"
    materials: tuple[ProjectMaterial, ...]
    profile_dir: str | None = None  # set when the parent run is profiled


@dataclass
class ChunkOutcome:
    """What a worker sends home: contexts plus observability deltas."""

    chunk_id: int
    contexts: list[tuple[int, ProjectContext]]
    metrics: list[dict]  # MetricsRegistry.dump_state()
    spans: list[dict]  # Span.payload() list


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
    tasks: Sequence[ProjectTask], chunks: Sequence[tuple[int, int]], backend: str
) -> str:
    """Content hash of one task-to-chunk assignment."""
    digest = hashlib.sha256(backend.encode())
    for chunk_id, (start, stop) in enumerate(chunks):
        digest.update(f"|{chunk_id}:".encode())
        for task in tasks[start:stop]:
            digest.update(f"{task.repo_name}\x00{task.ddl_path}\x00".encode())
    return digest.hexdigest()


def _note_partition(
    pipeline: "MeasurementPipeline",
    tasks: Sequence[ProjectTask],
    chunks: Sequence[tuple[int, int]],
    backend: str,
) -> None:
    pipeline.stats.note_partition(
        digest=partition_digest(tasks, chunks, backend),
        chunks=len(chunks),
        backend=backend,
    )


# -- the worker side -------------------------------------------------------


def _run_worker_chunk(chunk: WorkerChunk) -> ChunkOutcome:
    """Execute one chunk inside a worker process.

    Builds a private pipeline over the shipped materials: a fresh
    registry and cache (sharing only the on-disk ``cache_dir``), a
    seeded extract stage when version lists came along, and a private
    trace recorder whose spans ride home in the outcome.  Contexts are
    stripped of their repository/version payloads before pickling — the
    parent holds those objects already.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder, recording, reset_tracing_for_worker
    from repro.pipeline.cache import SchemaCache
    from repro.pipeline.pipeline import MeasurementPipeline

    reset_tracing_for_worker()  # drop tracing state inherited over fork
    registry = MetricsRegistry()
    cache = SchemaCache(chunk.config.cache_dir, registry=registry)
    repos: dict[str, Repository | None] = {}
    seeds: dict[str, tuple[Repository | None, list[FileVersion]]] = {}
    for material in chunk.materials:
        repos[material.task.repo_name] = material.repo
        if material.versions is not None:
            seeds[material.task.repo_name] = (material.repo, list(material.versions))
    pipeline = MeasurementPipeline(
        provider=repos.get,
        config=replace(chunk.config, jobs=1, executor="serial"),
        cache=cache,
        seeds=seeds if seeds else None,
    )
    profile_path = (
        Path(chunk.profile_dir) / f"chunk-{chunk.chunk_id}-{os.getpid()}.pstats"
        if chunk.profile_dir is not None
        else None
    )
    recorder = TraceRecorder()
    contexts: list[tuple[int, ProjectContext]] = []
    with recording(recorder), profiled(profile_path):
        for material in chunk.materials:
            ctx = pipeline.run_project(material.task)
            ctx.repo = None  # the parent reattaches its own object
            ctx.file_versions = []
            contexts.append((material.index, ctx))
    return ChunkOutcome(
        chunk_id=chunk.chunk_id,
        contexts=contexts,
        metrics=registry.dump_state(),
        spans=[span.payload() for span in recorder.spans()],
    )


# -- the backends ----------------------------------------------------------


@runtime_checkable
class ExecutionBackend(Protocol):
    """How one ``pipeline.run`` batch is scheduled."""

    name: str

    def execute(
        self, pipeline: "MeasurementPipeline", tasks: Sequence[ProjectTask]
    ) -> list[ProjectContext]:
        """Run every task, returning contexts in input order."""
        ...  # pragma: no cover - protocol


class SerialBackend:
    """One task after another in the calling thread (the reference)."""

    name = "serial"

    def execute(
        self, pipeline: "MeasurementPipeline", tasks: Sequence[ProjectTask]
    ) -> list[ProjectContext]:
        _note_partition(pipeline, tasks, [(0, len(tasks))] if tasks else [], self.name)
        return [pipeline.run_project(task) for task in tasks]


class ProcessBackend:
    """Worker processes: real CPU parallelism for the measure pipeline.

    See the module docstring for the full contract.  With ``jobs == 1``
    or a single task there is nothing to parallelize and execution is
    inlined (still recorded under this backend's partition digest).
    """

    name = "process"

    def execute(
        self, pipeline: "MeasurementPipeline", tasks: Sequence[ProjectTask]
    ) -> list[ProjectContext]:
        jobs = max(1, pipeline.config.jobs)
        chunks = partition(len(tasks), jobs)
        _note_partition(pipeline, tasks, chunks, self.name)
        if jobs == 1 or len(tasks) <= 1:
            return [pipeline.run_project(task) for task in tasks]

        materials, inline_indices = self._resolve_materials(pipeline, tasks)
        profile_dir = self._profile_dir()
        work: list[WorkerChunk] = []
        for chunk_id, (start, stop) in enumerate(chunks):
            shipped = tuple(
                materials[i]
                for i in range(start, stop)
                if materials[i] is not None
            )
            if shipped:
                work.append(
                    WorkerChunk(
                        chunk_id=chunk_id,
                        config=pipeline.config,
                        materials=shipped,
                        profile_dir=(
                            str(profile_dir) if profile_dir is not None else None
                        ),
                    )
                )

        results: dict[int, ProjectContext] = {}
        outcomes, broken, errored = self._submit_round(work, jobs)
        if broken:
            # Broken chunks retry one at a time in single-worker pools:
            # a dying worker poisons every future sharing its pool, so
            # isolation is the only way to tell the one chunk that kills
            # workers apart from its innocent pool-mates.
            still_broken: list[WorkerChunk] = []
            for chunk in broken:
                retried, dead, errored_again = self._submit_round([chunk], 1)
                outcomes.extend(retried)
                still_broken.extend(dead)
                errored.extend(errored_again)
            broken = still_broken
        for chunk in broken:
            for material in chunk.materials:
                results[material.index] = self._executor_failure(material.task)
        for chunk in errored:
            # Non-fatal chunk errors (an unpicklable repository, a torn
            # queue) run inline — the parent has everything it needs.
            for material in chunk.materials:
                results[material.index] = pipeline.run_project(material.task)
        for outcome in sorted(outcomes, key=lambda o: o.chunk_id):
            self._merge_outcome(pipeline, outcome, materials, results)
        for index in inline_indices:
            # The provider raised during resolution; run_project re-runs
            # it here so retry/failure semantics match the serial path.
            results[index] = pipeline.run_project(tasks[index])
        if profile_dir is not None:
            self._merge_profiles(profile_dir)
        return [results[index] for index in range(len(tasks))]

    # -- helpers ----------------------------------------------------------

    def _resolve_materials(
        self, pipeline: "MeasurementPipeline", tasks: Sequence[ProjectTask]
    ) -> tuple[list[ProjectMaterial | None], list[int]]:
        """Resolve every task into a picklable material in the parent.

        Returns the material list (None where the provider raised) plus
        the indices that must run inline in the parent.
        """
        seeds = pipeline.seeds
        materials: list[ProjectMaterial | None] = []
        inline: list[int] = []
        for index, task in enumerate(tasks):
            if seeds is not None:
                repo, versions = seeds.get(task.repo_name, (None, []))
                materials.append(
                    ProjectMaterial(index, task, repo, tuple(versions))
                )
                continue
            try:
                repo = pipeline.provider(task.repo_name)
            except Exception:
                materials.append(None)
                inline.append(index)
                continue
            materials.append(ProjectMaterial(index, task, repo))
        return materials, inline

    def _submit_round(
        self, work: Sequence[WorkerChunk], jobs: int
    ) -> tuple[list[ChunkOutcome], list[WorkerChunk], list[WorkerChunk]]:
        """Run one pool over *work*; split results from casualties.

        Returns ``(outcomes, broken, errored)`` where *broken* chunks
        saw their worker die (``BrokenProcessPool``) and *errored*
        chunks failed for recoverable reasons (pickling and friends).
        """
        outcomes: list[ChunkOutcome] = []
        broken: list[WorkerChunk] = []
        errored: list[WorkerChunk] = []
        if not work:
            return outcomes, broken, errored
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        try:
            with ProcessPoolExecutor(
                max_workers=jobs, mp_context=context
            ) as pool:
                futures = {}
                for chunk in work:
                    try:
                        futures[pool.submit(_run_worker_chunk, chunk)] = chunk
                    except BrokenProcessPool:
                        broken.append(chunk)
                for future in as_completed(futures):
                    chunk = futures[future]
                    try:
                        outcomes.append(future.result())
                    except BrokenProcessPool:
                        broken.append(chunk)
                    except Exception:
                        errored.append(chunk)
        except BrokenProcessPool:  # pragma: no cover - shutdown race
            pass
        return outcomes, broken, errored

    @staticmethod
    def _executor_failure(task: ProjectTask) -> ProjectContext:
        """The record a project gets when its worker died twice."""
        failure = ProjectFailure(
            project=task.repo_name,
            stage="executor",
            error="BrokenProcessPool",
            message="worker process died while running this project's chunk",
        )
        return ProjectContext(task=task, outcome=Outcome.FAILED, failure=failure)

    @staticmethod
    def _merge_outcome(
        pipeline: "MeasurementPipeline",
        outcome: ChunkOutcome,
        materials: Sequence[ProjectMaterial | None],
        results: dict[int, ProjectContext],
    ) -> None:
        """Fold one worker chunk into the parent's state."""
        pipeline.stats.registry.merge_state(outcome.metrics)
        recorder = active_recorder()
        if recorder is not None and outcome.spans:
            recorder.adopt(
                outcome.spans,
                parent_id=current_span_id(),
                thread=f"worker-{outcome.chunk_id}",
            )
        for index, ctx in outcome.contexts:
            material = materials[index]
            if material is not None:
                ctx.repo = material.repo
            results[index] = ctx

    @staticmethod
    def _profile_dir() -> Path | None:
        """Scratch directory for worker profile dumps, when profiling."""
        parent = active_profile_path()
        if parent is None:
            return None
        directory = worker_profile_dir(parent)
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    @staticmethod
    def _merge_profiles(directory: Path) -> None:
        """Aggregate worker dumps next to the parent profile, then tidy."""
        parent = active_profile_path()
        if parent is None:  # pragma: no cover - profiling raced off
            return
        dumps = sorted(directory.glob("*.pstats"))
        out = parent.with_name(parent.stem + "-workers.pstats")
        merge_worker_profiles(dumps, out)
        for dump in dumps:
            dump.unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - leftover foreign files
            pass


def resolve_backend(
    executor: str, jobs: int, custom_stages: bool = False
) -> ExecutionBackend:
    """The backend instance for one run.

    Custom stage chains hold closures and shared caches the process
    boundary cannot serialize; the process backend degrades to serial
    there (with a warning) rather than failing mid-corpus.
    """
    name = resolve_executor(executor, jobs)
    if name == "process" and custom_stages:
        warnings.warn(
            "custom stage chains cannot cross the process boundary; "
            "falling back to the serial backend",
            RuntimeWarning,
            stacklevel=3,
        )
        name = "serial"
    return SerialBackend() if name == "serial" else ProcessBackend()
