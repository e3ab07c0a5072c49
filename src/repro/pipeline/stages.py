"""The five pipeline stages and the records flowing between them.

Each stage is a small object with a ``name`` and a ``run(ctx)`` method
mutating one :class:`ProjectContext`.  A stage either advances the
context, or finishes it by setting a terminal :class:`Outcome` (the
funnel's removal categories are terminal outcomes, not exceptions).
Anything a stage *raises* is caught by the pipeline and demoted to a
structured :class:`ProjectFailure` — one malformed project must never
abort the other 194.

One :class:`ExtractStage` serves every caller: the pipeline seeds each
attempt with what earlier attempts (or the caller) resolved, so a
project's repository is resolved once however often it is retried, and
wherever it runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol, runtime_checkable

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.core.history import SchemaHistory, history_from_versions
from repro.core.metrics import ProjectMetrics, compute_metrics
from repro.core.project import ProjectHistory, repo_stats_of
from repro.core.taxa import Taxon, classify
from repro.pipeline.cache import SchemaCache
from repro.vcs.history import FileVersion, LinearizationPolicy, extract_file_history
from repro.vcs.repository import Repository


class Outcome(enum.Enum):
    """Where a project ended up; mirrors the funnel's removal stages."""

    ZERO_VERSIONS = "zero-versions"  # gone from GitHub, or stale path
    NO_CREATE = "no-create-table"  # .sql file never declares a table
    RIGID = "rigid"  # single schema version, set aside
    STUDIED = "studied"  # measured and classified
    FAILED = "failed"  # demoted to a ProjectFailure


@dataclass(frozen=True)
class ProjectTask:
    """One unit of pipeline input: a repository and its chosen DDL file.

    ``dialect`` names the frontend the parse stage routes through (see
    :mod:`repro.sqlddl.dialects`); the default keeps the historical
    MySQL-only path and its byte-identical output.
    """

    repo_name: str
    ddl_path: str
    domain: str = ""
    dialect: str = "mysql"


@dataclass(frozen=True)
class ProjectFailure:
    """A project-stage crash, demoted to data.

    Carried in the :class:`~repro.mining.funnel.FunnelReport` so a run
    over a malformed corpus still yields every healthy project plus an
    auditable record of what broke where.
    """

    project: str
    stage: str
    error: str  # exception class name
    message: str
    attempts: int = 1  # tries consumed before the project was demoted

    def payload(self) -> dict:
        return {
            "project": self.project,
            "stage": self.stage,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class ProjectContext:
    """The state one project accumulates while flowing through stages."""

    task: ProjectTask
    repo: Repository | None = None
    file_versions: list[FileVersion] = field(default_factory=list)
    history: SchemaHistory | None = None
    metrics: ProjectMetrics | None = None
    project: ProjectHistory | None = None
    taxon: Taxon | None = None
    outcome: Outcome | None = None
    failure: ProjectFailure | None = None
    attempts: int = 1  # pipeline tries this context consumed

    @property
    def name(self) -> str:
        return self.task.repo_name

    @property
    def is_terminal(self) -> bool:
        return self.outcome is not None


@runtime_checkable
class Stage(Protocol):
    """One step of the measurement chain."""

    name: str

    def run(self, ctx: ProjectContext) -> None:
        """Advance *ctx*; set ``ctx.outcome`` to finish it."""
        ...  # pragma: no cover - protocol


def usable_versions(versions: list[FileVersion]) -> list[FileVersion]:
    """The versions that count as schema history: no deletions, no
    blank files.  Shared by :class:`ExtractStage` and the store's
    incremental ingest, so both fingerprint the same version list."""
    return [v for v in versions if not v.is_deletion and v.text.strip()]


class ExtractStage:
    """Clone-equivalent: resolve the repository, linearize the file
    history.  A repository in the context skips the provider, and a
    version list skips the walk."""

    name = "extract"

    def __init__(self, provider, policy: LinearizationPolicy = LinearizationPolicy.FULL):
        self._provider = provider
        self._policy = policy

    def run(self, ctx: ProjectContext) -> None:
        if ctx.repo is None:
            ctx.repo = self._provider(ctx.task.repo_name)
            if ctx.repo is None:
                ctx.outcome = Outcome.ZERO_VERSIONS
                return
        if not ctx.file_versions:
            versions = extract_file_history(
                ctx.repo, ctx.task.ddl_path, policy=self._policy
            )
            ctx.file_versions = usable_versions(versions)
        if not ctx.file_versions:
            ctx.outcome = Outcome.ZERO_VERSIONS


class ParseStage:
    """Scan for CREATE TABLE, then parse every version through the cache;
    both go through the task's dialect frontend."""

    name = "parse"

    def __init__(self, cache: SchemaCache):
        self._cache = cache

    def run(self, ctx: ProjectContext) -> None:
        dialect = ctx.task.dialect
        if not any(
            self._cache.has_create_table(v.text, dialect) for v in ctx.file_versions
        ):
            ctx.outcome = Outcome.NO_CREATE
            return
        ctx.history = history_from_versions(
            ctx.task.repo_name,
            ctx.task.ddl_path,
            ctx.file_versions,
            schema_factory=partial(self._cache.schema_for, dialect=dialect),
        )


class DiffStage:
    """Diff every consecutive version pair (memoized by content hash)."""

    name = "diff"

    def __init__(self, cache: SchemaCache):
        self._cache = cache

    def run(self, ctx: ProjectContext) -> None:
        assert ctx.history is not None
        for older, newer in ctx.history.transitions():
            self._cache.diff_for(older.schema, newer.schema)


class MeasureStage:
    """The Hecate pass: per-transition and per-project measures."""

    name = "measure"

    def __init__(self, cache: SchemaCache, reed_limit: int = DEFAULT_REED_LIMIT):
        self._cache = cache
        self._reed_limit = reed_limit

    def run(self, ctx: ProjectContext) -> None:
        assert ctx.history is not None and ctx.repo is not None
        ctx.metrics = compute_metrics(
            ctx.history, reed_limit=self._reed_limit, differ=self._cache.diff_for
        )
        ctx.project = ProjectHistory(
            name=ctx.task.repo_name,
            ddl_path=ctx.task.ddl_path,
            history=ctx.history,
            metrics=ctx.metrics,
            repo_stats=repo_stats_of(ctx.repo),
            domain=ctx.task.domain,
        )


class ClassifyStage:
    """Assign the taxon; split rigid from studied."""

    name = "classify"

    def run(self, ctx: ProjectContext) -> None:
        assert ctx.project is not None and ctx.metrics is not None
        ctx.taxon = classify(ctx.metrics)
        if ctx.project.history.is_history_less:
            ctx.outcome = Outcome.RIGID
        else:
            ctx.outcome = Outcome.STUDIED
