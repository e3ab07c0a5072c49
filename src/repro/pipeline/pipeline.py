"""The pipeline driver: fault isolation, retries, and timing.

``MeasurementPipeline.run`` pushes every :class:`ProjectTask` through
its one, fixed stage chain.  ``PipelineConfig.jobs`` alone decides how
the batch runs: in the calling thread for one job, or on worker processes
(:func:`~repro.pipeline.backends.run_on_workers`; the workload is
CPU-bound python, and threads lose to the GIL).  Results are assembled
strictly in input order, so every job count yields byte-identical
reports.  A stage that raises demotes its project to a
:class:`ProjectFailure`; the rest of the corpus is unaffected.

A project's repository is resolved once: the provider is called at the
start of an attempt until one call returns, and every later attempt
re-runs the stages on that clone and the versions walked from it (a
caller that resolved them already hands them to ``run_project``).  A
provider call that raises fails that attempt's ``extract`` stage.

Resilience (opt-in via :class:`PipelineConfig`): a ``retry`` policy
re-runs a failed project from a *fresh* context with deterministic
backoff, ``project_deadline`` bounds each project's total wall time
(checked before every stage; :class:`~repro.resilience.DeadlineExceeded`
is never retried), and an ``injector`` arms seeded chaos at every stage
boundary.  Attempts are recorded on the surviving context/failure and
published to the run's metrics registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.obs.trace import trace
from repro.pipeline.backends import partition, partition_digest, run_on_workers
from repro.pipeline.cache import SchemaCache
from repro.resilience.faults import FaultInjector, InjectedFault
from repro.resilience.policy import NO_RETRY, Deadline, DeadlineExceeded, RetryPolicy
from repro.pipeline.stages import (
    ClassifyStage,
    DiffStage,
    ExtractStage,
    MeasureStage,
    Outcome,
    ParseStage,
    ProjectContext,
    ProjectFailure,
    ProjectTask,
    Stage,
)
from repro.pipeline.stats import PipelineStats
from repro.vcs.history import FileVersion, LinearizationPolicy
from repro.vcs.repository import Repository

#: Maps a repository name to its clone, or None when it has vanished.
RepoProvider = Callable[[str], Repository | None]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that parameterizes one pipeline instance."""

    policy: LinearizationPolicy = LinearizationPolicy.FULL
    reed_limit: int = DEFAULT_REED_LIMIT
    jobs: int = 1
    retry: RetryPolicy = field(default=NO_RETRY)
    project_deadline: float | None = None  # wall-second budget per project
    injector: FaultInjector | None = None  # seeded chaos, off by default


class MeasurementPipeline:
    """Composes the five stages and drives projects through them."""

    def __init__(
        self,
        provider: RepoProvider,
        config: PipelineConfig = PipelineConfig(),
        cache: SchemaCache | None = None,
    ) -> None:
        self.config = config
        self.provider = provider
        self.cache = cache if cache is not None else SchemaCache()
        self.stats = PipelineStats(jobs=max(1, config.jobs), cache=self.cache.counters)
        self.stages: tuple[Stage, ...] = (
            ExtractStage(provider, policy=config.policy),
            ParseStage(self.cache),
            DiffStage(self.cache),
            MeasureStage(self.cache, reed_limit=config.reed_limit),
            ClassifyStage(),
        )

    # -- single project ---------------------------------------------------

    def run_project(
        self,
        task: ProjectTask,
        repo: Repository | None = None,
        versions: Sequence[FileVersion] = (),
    ) -> ProjectContext:
        """Push one task through the chain; never raises for a bad project.

        A failing project is retried from a fresh context under the
        config's :class:`~repro.resilience.RetryPolicy` (default: one
        attempt, i.e. no retries).  The surviving context carries the
        attempt count, and an exhausted retry budget stamps it onto the
        :class:`ProjectFailure` record.

        Each attempt starts from what earlier attempts resolved: the
        repository a provider call returned and the usable versions
        walked from it.  A caller that resolved the project already
        passes *repo* (and, if it walked them, *versions*), and the
        provider is not called.
        """
        retry = self.config.retry
        deadline = Deadline(self.config.project_deadline)
        ctx = ProjectContext(task=task)
        attempt = 1
        for attempt in range(1, retry.max_attempts + 1):
            ctx, caught = self._attempt(task, attempt, deadline, repo, versions)
            repo, versions = ctx.repo, ctx.file_versions
            if ctx.outcome is not Outcome.FAILED:
                if attempt > 1:
                    self.stats.note_recovered()
                break
            retryable = (
                attempt < retry.max_attempts
                and not isinstance(caught, DeadlineExceeded)
                and not deadline.expired
            )
            if not retryable:
                break
            assert ctx.failure is not None
            self.stats.note_retry(ctx.failure.stage)
            delay = deadline.bound(retry.delay_for(attempt, key=task.repo_name))
            if delay > 0:
                time.sleep(delay)
        ctx.attempts = attempt
        if ctx.failure is not None:
            ctx.failure = replace(ctx.failure, attempts=attempt)
        return ctx

    def _attempt(
        self,
        task: ProjectTask,
        attempt: int,
        deadline: Deadline,
        repo: Repository | None,
        versions: Sequence[FileVersion],
    ) -> tuple[ProjectContext, Exception | None]:
        """One pass through the stage chain on a fresh context holding
        what earlier attempts resolved."""
        ctx = ProjectContext(task=task, repo=repo, file_versions=list(versions))
        injector = self.config.injector
        caught: Exception | None = None
        for stage in self.stages:
            if ctx.is_terminal:
                break
            started = time.perf_counter()
            try:
                with trace(f"stage.{stage.name}", project=task.repo_name) as span:
                    if span is not None and attempt > 1:
                        span.attrs["attempt"] = attempt
                    deadline.check(stage.name)
                    if injector is not None:
                        injector.check(stage.name, task.repo_name, attempt)
                    stage.run(ctx)
                    if span is not None and ctx.outcome is not None:
                        span.attrs["outcome"] = ctx.outcome.value
            except Exception as exc:  # fault isolation: demote, don't abort
                caught = exc
                ctx.outcome = Outcome.FAILED
                ctx.failure = ProjectFailure(
                    project=task.repo_name,
                    stage=stage.name,
                    error=type(exc).__name__,
                    message=str(exc),
                )
                if isinstance(exc, InjectedFault):
                    self.stats.note_fault_injected(stage.name)
                if isinstance(exc, DeadlineExceeded):
                    self.stats.note_deadline_exceeded(stage.name)
            finally:
                self.stats.note_stage(stage.name, time.perf_counter() - started)
        return ctx, caught

    # -- the whole corpus -------------------------------------------------

    def run(self, tasks: Iterable[ProjectTask]) -> list[ProjectContext]:
        """Run every task; results come back in input order regardless of
        scheduling, so every job count yields identical output.  More
        than one job and more than one task run on worker processes;
        anything else in the calling thread."""
        task_list = list(tasks)
        started = time.perf_counter()
        jobs = max(1, self.config.jobs)
        workers = jobs > 1 and len(task_list) > 1
        backend = "process" if workers else "serial"
        if workers:
            chunks = partition(len(task_list), jobs)
        else:
            chunks = [(0, len(task_list))] if task_list else []
        self.stats.note_partition(
            digest=partition_digest(task_list, chunks, backend),
            chunks=len(chunks),
            backend=backend,
        )
        with trace("pipeline.run", projects=len(task_list), jobs=jobs):
            if workers:
                results = run_on_workers(self, task_list, chunks)
            else:
                results = [self.run_project(task) for task in task_list]
        failed = sum(1 for ctx in results if ctx.outcome is Outcome.FAILED)
        self.stats.note_run(
            projects=len(task_list),
            completed=len(results) - failed,
            failures=failed,
            wall_seconds=time.perf_counter() - started,
        )
        return results

    # -- bring-your-own-history clients -----------------------------------

    def measure_versions(
        self,
        name: str,
        ddl_path: str,
        versions: Sequence[tuple[str, int, str]],
        domain: str = "",
    ) -> ProjectContext:
        """Measure an explicit (oid, timestamp, text) version list.

        The CLI's ``classify`` command (and any caller holding raw file
        contents rather than a repository) enters the pipeline here:
        a single-commit-per-version repository is synthesized and handed
        to the ordinary stages as already resolved, so the provider is
        not called and the schema cache serves the request.  The call
        counts as a one-project run in :attr:`stats`.
        """
        started = time.perf_counter()
        repo = Repository(name)
        for oid, timestamp, text in versions:
            repo.commit(
                {ddl_path: text.encode("utf-8", errors="replace")},
                author="pipeline",
                timestamp=timestamp,
                message=oid,
            )
        ctx = self.run_project(ProjectTask(name, ddl_path, domain), repo)
        failed = int(ctx.outcome is Outcome.FAILED)
        self.stats.note_run(
            projects=1,
            completed=1 - failed,
            failures=failed,
            wall_seconds=time.perf_counter() - started,
        )
        return ctx
