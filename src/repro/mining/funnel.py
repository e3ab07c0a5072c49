"""The end-to-end collection funnel (Sec III.A).

Reproduces the paper's counting stages:

    SQL-Collection repositories        133,029 (paper)
      -> join Libraries.io + filters
      -> path post-processing              365  (Lib-io dataset)
      -> clone + extract histories
      -> remove 0-version extractions      -14
      -> remove empty / no-CREATE-TABLE    -24
      -> cloned & usable                   327
      -> rigid (single version)            132  (40%)
      -> Schema_Evo_2019 (studied)         195

The per-project extract/parse/diff/measure/classify chain is delegated
to :class:`repro.pipeline.MeasurementPipeline`: projects run
concurrently under ``jobs=N``, identical SQL blobs parse once through
the content-hash cache, and a project whose measurement crashes is
demoted to a :class:`~repro.pipeline.ProjectFailure` carried in the
report instead of aborting the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.core.project import ProjectHistory
from repro.mining.github_activity import GithubActivityDataset
from repro.mining.librariesio import LibrariesIoDataset
from repro.mining.path_filters import (
    MultiFileVerdict,
    choose_ddl_file,
    dialect_for_choice,
    vendor_preference,
)
from repro.mining.selection import SelectionCriteria, select_lib_io
from repro.obs.trace import trace
from repro.pipeline.cache import SchemaCache
from repro.pipeline.pipeline import MeasurementPipeline, PipelineConfig
from repro.pipeline.stages import Outcome, ProjectFailure, ProjectTask
from repro.pipeline.stats import PipelineStats
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import NO_RETRY, RetryPolicy
from repro.vcs.history import LinearizationPolicy
from repro.vcs.repository import Repository

#: Maps a repository name to its cloned Repository, or None when the
#: repository has disappeared from GitHub since the dataset snapshot.
RepoProvider = Callable[[str], Repository | None]


@dataclass
class FunnelReport:
    """Stage counts plus the surviving projects at each stage."""

    sql_collection_repos: int = 0
    joined_and_filtered: int = 0
    lib_io_projects: int = 0  # after path post-processing (the 365)
    omitted_by_paths: dict[MultiFileVerdict, int] = field(default_factory=dict)
    removed_zero_versions: int = 0  # the 14
    removed_no_create: int = 0  # the 24
    cloned_usable: int = 0  # the 327
    rigid: list[ProjectHistory] = field(default_factory=list)  # the 132
    studied: list[ProjectHistory] = field(default_factory=list)  # the 195
    failures: list[ProjectFailure] = field(default_factory=list)
    stats: PipelineStats | None = None

    @property
    def rigid_count(self) -> int:
        return len(self.rigid)

    @property
    def studied_count(self) -> int:
        return len(self.studied)

    @property
    def failed_count(self) -> int:
        return len(self.failures)

    @property
    def rigid_share(self) -> float:
        """The headline 40%: rigid projects over cloned & usable."""
        if self.cloned_usable == 0:
            return 0.0
        return self.rigid_count / self.cloned_usable

    def stage_rows(self) -> list[tuple[str, int]]:
        """The funnel as printable (stage, count) rows."""
        rows = [
            ("SQL-Collection repositories", self.sql_collection_repos),
            ("joined with Libraries.io + quality filters", self.joined_and_filtered),
            ("Lib-io dataset (single DDL file identified)", self.lib_io_projects),
            ("removed: zero-version extraction", self.removed_zero_versions),
            ("removed: empty / no CREATE TABLE", self.removed_no_create),
        ]
        if self.failures:
            rows.append(("removed: failed measurement", self.failed_count))
        rows += [
            ("cloned & usable repositories", self.cloned_usable),
            ("rigid (single schema version)", self.rigid_count),
            ("Schema_Evo_2019 (studied)", self.studied_count),
        ]
        return rows


def select_tasks(
    activity: GithubActivityDataset,
    lib_io: LibrariesIoDataset,
    criteria: SelectionCriteria,
    dialects: tuple[str, ...],
) -> tuple[int, list[ProjectTask], dict[MultiFileVerdict, int]]:
    """The funnel's front half: join + filters, then path post-processing.

    Returns ``(joined_and_filtered, tasks, omitted_by_paths)``: one task
    per project with a single identified DDL file, its parse dialect
    stamped from ``dialects`` (see :func:`run_funnel`).
    """
    preference = vendor_preference(dialects)
    with trace("funnel.select"):
        selected = select_lib_io(activity, lib_io, criteria)
    tasks: list[ProjectTask] = []
    omitted: dict[MultiFileVerdict, int] = {}
    with trace("funnel.choose_paths", candidates=len(selected)):
        for project in selected:
            choice = choose_ddl_file(list(project.sql_files), dialects=preference)
            if not choice.accepted:
                omitted[choice.verdict] = omitted.get(choice.verdict, 0) + 1
                continue
            assert choice.chosen is not None
            tasks.append(
                ProjectTask(
                    project.repo_name,
                    choice.chosen.path,
                    project.metadata.domain,
                    dialect=dialect_for_choice(choice.chosen.path, dialects),
                )
            )
    return len(selected), tasks, omitted


def run_funnel(
    activity: GithubActivityDataset,
    lib_io: LibrariesIoDataset,
    provider: RepoProvider,
    criteria: SelectionCriteria = SelectionCriteria(),
    policy: LinearizationPolicy = LinearizationPolicy.FULL,
    reed_limit: int = DEFAULT_REED_LIMIT,
    jobs: int = 1,
    cache: SchemaCache | None = None,
    retry: RetryPolicy = NO_RETRY,
    project_deadline: float | None = None,
    injector: FaultInjector | None = None,
    dialects: tuple[str, ...] = ("mysql",),
) -> FunnelReport:
    """Run the whole collection funnel and return its report.

    ``jobs`` sets the pipeline's worker count (worker processes whenever
    ``jobs > 1``) — results are input-ordered, so every job count
    yields identical reports.  ``cache`` is an in-memory
    :class:`~repro.pipeline.SchemaCache` to share across runs; it serves
    only the projects measured in the calling thread, every project at
    ``jobs=1``, because worker processes build a fresh cache per slice.
    ``retry``/``project_deadline``/``injector`` are the resilience knobs
    (see :mod:`repro.resilience`): bounded retries per project, a
    wall-clock budget per project, and seeded chaos.

    ``dialects`` is the enabled frontend set in preference order
    (canonical names; see :mod:`repro.sqlddl.dialects`): it drives the
    multi-vendor file choice and stamps each task's parse dialect.  The
    default MySQL-only tuple reproduces the paper's funnel byte for
    byte.
    """
    report = FunnelReport()
    report.sql_collection_repos = activity.repository_count()
    report.joined_and_filtered, tasks, report.omitted_by_paths = select_tasks(
        activity, lib_io, criteria, dialects
    )
    report.lib_io_projects = len(tasks)

    pipeline = MeasurementPipeline(
        provider,
        PipelineConfig(
            policy=policy, reed_limit=reed_limit, jobs=jobs,
            retry=retry, project_deadline=project_deadline, injector=injector,
        ),
        cache=cache,
    )
    for ctx in pipeline.run(tasks):
        if ctx.outcome is Outcome.ZERO_VERSIONS:
            report.removed_zero_versions += 1
        elif ctx.outcome is Outcome.NO_CREATE:
            report.removed_no_create += 1
        elif ctx.outcome is Outcome.FAILED:
            assert ctx.failure is not None
            report.failures.append(ctx.failure)
        elif ctx.outcome is Outcome.RIGID:
            assert ctx.project is not None
            report.rigid.append(ctx.project)
        else:
            assert ctx.outcome is Outcome.STUDIED and ctx.project is not None
            report.studied.append(ctx.project)
    report.cloned_usable = report.rigid_count + report.studied_count
    report.stats = pipeline.stats
    return report
