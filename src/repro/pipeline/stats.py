"""Observability of one pipeline run: stage timings and cache effect.

The ROADMAP's scaling work (sharding, incremental re-measure, larger
corpora) needs to see where the time goes before and after each change;
:class:`PipelineStats` is that instrument.  Since the unified
observability layer (:mod:`repro.obs`) it is a *view* over one
:class:`~repro.obs.metrics.MetricsRegistry` — the same registry the
schema cache's counters publish into — so ``--stats``,
``pipeline_stats.json``, and any ``/metrics``-style exposition all read
one source of truth.  The classic attributes (``projects``,
``stage_seconds``, ``cache.build_schema_calls``) remain as properties,
and a warm-cache run can still be *proven* warm:
``stats.cache.build_schema_calls == 0``.

Registry series owned by this class::

    repro_pipeline_jobs                              gauge
    repro_pipeline_projects_total                    counter
    repro_pipeline_completed_total                   counter
    repro_pipeline_failures_total                    counter
    repro_pipeline_wall_seconds_total                counter
    repro_pipeline_stage_seconds_total{stage=...}    counter
    repro_pipeline_stage_projects_total{stage=...}   counter
    repro_pipeline_stage_duration_seconds{stage=...} histogram
    repro_pipeline_retries_total{stage=...}          counter
    repro_pipeline_recovered_total                   counter
    repro_pipeline_faults_injected_total{stage=...}  counter
    repro_pipeline_deadline_exceeded_total{stage=...} counter
    repro_pipeline_partition_chunks                  gauge
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import CacheCounters


class PipelineStats:
    """Counters and timings of one :class:`MeasurementPipeline` run.

    Adopts the registry of the *cache* counters it is handed (the cache
    is created first and shared across workers), so one registry holds
    the whole run; a standalone instance creates its own registry.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: CacheCounters | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if registry is None:
            registry = cache.registry if cache is not None else MetricsRegistry()
        self.registry = registry
        self.cache = cache if cache is not None else CacheCounters(registry)
        self._jobs = registry.gauge("repro_pipeline_jobs")
        self._jobs.set(jobs)
        self._projects = registry.counter("repro_pipeline_projects_total")
        self._completed = registry.counter("repro_pipeline_completed_total")
        self._failures = registry.counter("repro_pipeline_failures_total")
        self._wall = registry.counter("repro_pipeline_wall_seconds_total")
        self._partition: dict | None = None

    # -- writers ----------------------------------------------------------

    def note_stage(self, stage: str, seconds: float) -> None:
        """Record one project passing through *stage* (thread-safe)."""
        self.registry.counter(
            "repro_pipeline_stage_seconds_total", stage=stage
        ).inc(seconds)
        self.registry.counter(
            "repro_pipeline_stage_projects_total", stage=stage
        ).inc()
        self.registry.histogram(
            "repro_pipeline_stage_duration_seconds", stage=stage
        ).observe(seconds)

    def note_retry(self, stage: str) -> None:
        """One failed attempt that will be retried (stage it died in)."""
        self.registry.counter("repro_pipeline_retries_total", stage=stage).inc()

    def note_recovered(self) -> None:
        """A project that failed at least once and then succeeded."""
        self.registry.counter("repro_pipeline_recovered_total").inc()

    def note_fault_injected(self, stage: str) -> None:
        """A seeded chaos fault fired at *stage*."""
        self.registry.counter(
            "repro_pipeline_faults_injected_total", stage=stage
        ).inc()

    def note_deadline_exceeded(self, stage: str) -> None:
        """A project's time budget ran out before *stage*."""
        self.registry.counter(
            "repro_pipeline_deadline_exceeded_total", stage=stage
        ).inc()

    def note_partition(self, digest: str, chunks: int, backend: str) -> None:
        """Record how a run split the task list.

        The digest is a content hash of the (ordered) task-to-chunk
        assignment, so two runs over the same inputs with the same
        job count provably partitioned identically.  *backend* is
        ``"process"`` when worker processes ran, ``"serial"`` when the
        calling thread did.
        """
        self._partition = {"digest": digest, "chunks": chunks, "backend": backend}
        self.registry.gauge("repro_pipeline_partition_chunks").set(chunks)

    def note_run(
        self, projects: int, completed: int, failures: int, wall_seconds: float
    ) -> None:
        """Account one ``pipeline.run()`` batch."""
        self._projects.inc(projects)
        self._completed.inc(completed)
        self._failures.inc(failures)
        self._wall.inc(wall_seconds)

    # -- the classic read API, now registry-backed ------------------------

    @property
    def jobs(self) -> int:
        return self._jobs.value

    @property
    def projects(self) -> int:
        """Tasks that entered the pipeline."""
        return self._projects.value

    @property
    def completed(self) -> int:
        """Tasks that ran to a terminal outcome."""
        return self._completed.value

    @property
    def failures(self) -> int:
        """Tasks demoted to a ProjectFailure."""
        return self._failures.value

    @property
    def wall_seconds(self) -> float:
        """End-to-end, includes scheduling."""
        return self._wall.value

    @property
    def stage_seconds(self) -> dict[str, float]:
        return self.registry.label_values(
            "repro_pipeline_stage_seconds_total", "stage"
        )

    @property
    def stage_projects(self) -> dict[str, int]:
        return self.registry.label_values(
            "repro_pipeline_stage_projects_total", "stage"
        )

    @property
    def cpu_seconds(self) -> float:
        """Summed per-stage time across all workers."""
        return sum(self.stage_seconds.values())

    @property
    def retries(self) -> int:
        """Failed attempts that were retried, summed over stages."""
        return sum(
            self.registry.label_values(
                "repro_pipeline_retries_total", "stage"
            ).values()
        )

    @property
    def recovered(self) -> int:
        """Projects that succeeded only after at least one retry."""
        return self.registry.value("repro_pipeline_recovered_total")

    @property
    def partition(self) -> dict | None:
        """The last run's partition record (digest/chunks/backend)."""
        return self._partition

    @property
    def faults_injected(self) -> int:
        """Seeded chaos faults that fired during the run."""
        return sum(
            self.registry.label_values(
                "repro_pipeline_faults_injected_total", "stage"
            ).values()
        )

    # -- rendering --------------------------------------------------------

    def snapshot(self) -> dict:
        """The run's whole registry, in the unified snapshot shape."""
        return self.registry.snapshot()

    def payload(self) -> dict:
        """A JSON-friendly dump (used by ``--stats`` and the exporter).

        The classic shape, assembled from the registry, plus the raw
        ``registry`` snapshot so downstream tooling can consume one
        format across pipeline, ingest, and serve.
        """
        return {
            "jobs": self.jobs,
            "projects": self.projects,
            "completed": self.completed,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(self.stage_seconds.items())
            },
            "stage_projects": dict(sorted(self.stage_projects.items())),
            "partition": self._partition,
            "cache": self.cache.payload(),
            "registry": self.snapshot(),
        }

    def summary(self) -> str:
        """Human-readable block for the CLI's ``--stats`` flag."""
        lines = [
            f"pipeline: {self.projects} projects, jobs={self.jobs}, "
            f"{self.failures} failed",
            f"wall {self.wall_seconds:.3f}s, cpu {self.cpu_seconds:.3f}s",
        ]
        for stage, seconds in sorted(self.stage_seconds.items()):
            count = self.stage_projects.get(stage, 0)
            lines.append(f"  stage {stage:<10} {seconds:8.3f}s over {count} projects")
        c = self.cache
        lines.append(
            f"  cache schema {c.schema_hits} hits / {c.schema_misses} misses, "
            f"diff {c.diff_hits} hits / {c.diff_misses} misses, "
            f"scan {c.scan_hits} hits / {c.scan_misses} misses"
        )
        lines.append(f"  build_schema calls: {c.build_schema_calls}")
        if self.retries or self.faults_injected:
            lines.append(
                f"  resilience: {self.retries} retries, "
                f"{self.recovered} recovered, "
                f"{self.faults_injected} faults injected"
            )
        return "\n".join(lines)
