"""Schema histories: ordered lists of parsed schema versions.

"A Schema History is a list of commits (a.k.a. versions) of the same DDL
file of a database schema, ordered over time." (Sec III.B)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.schema.builder import build_schema
from repro.schema.model import Schema
from repro.vcs.history import FileVersion


@dataclass(frozen=True)
class SchemaVersion:
    """One committed version of the DDL file, parsed to a logical schema."""

    index: int  # 0 == V0, the originating version
    commit_oid: str
    timestamp: int
    schema: Schema


@dataclass(frozen=True)
class SchemaHistory:
    """A project's schema history.

    ``versions`` is ordered over time; ``versions[0]`` is V0.  Histories
    with a single version are the *history-less* projects the paper set
    aside ("we did not study them, due to lack of transitions"), but the
    object still represents them so the funnel can count them.
    """

    project: str
    ddl_path: str
    versions: tuple[SchemaVersion, ...]

    def __post_init__(self) -> None:
        for earlier, later in zip(self.versions, self.versions[1:]):
            if later.timestamp < earlier.timestamp:
                raise ValueError(
                    f"history of {self.project!r} is not ordered over time "
                    f"({earlier.commit_oid} at {earlier.timestamp} precedes "
                    f"{later.commit_oid} at {later.timestamp})"
                )

    @property
    def v0(self) -> SchemaVersion:
        if not self.versions:
            raise ValueError(f"history of {self.project!r} is empty")
        return self.versions[0]

    @property
    def last(self) -> SchemaVersion:
        if not self.versions:
            raise ValueError(f"history of {self.project!r} is empty")
        return self.versions[-1]

    @property
    def n_commits(self) -> int:
        """Number of commits of the DDL file (including V0)."""
        return len(self.versions)

    @property
    def is_history_less(self) -> bool:
        """True when the file has just one version (no transitions)."""
        return len(self.versions) <= 1

    def transitions(self) -> list[tuple[SchemaVersion, SchemaVersion]]:
        """Pairs (older, newer) for every transition of the history."""
        return list(zip(self.versions, self.versions[1:]))

    @property
    def update_period_days(self) -> float:
        """Time span between first and last commit of the file, in days."""
        if len(self.versions) < 2:
            return 0.0
        return (self.last.timestamp - self.v0.timestamp) / 86400.0

    @property
    def update_period_months(self) -> int:
        """The Schema Update Period (SUP) in months, floored at 1.

        The paper reports SUP in (human-time) months with a minimum of 1
        even for frozen projects, so a same-day pair of commits counts
        as a 1-month period.
        """
        months = self.update_period_days / 30.4375
        return max(1, round(months))


def history_from_versions(
    project: str,
    ddl_path: str,
    file_versions: list[FileVersion],
    schema_factory: Callable[..., Schema] | None = None,
) -> SchemaHistory:
    """Parse a VCS file history into a :class:`SchemaHistory`.

    Deleted versions (commits that removed the file) are skipped: the
    paper removes "commits with empty files" at collection time, and a
    deletion leaves nothing to parse.

    ``schema_factory`` substitutes for :func:`build_schema` — the staged
    pipeline passes its content-hash cache here so identical blobs parse
    once per corpus instead of once per version.
    """
    factory = schema_factory if schema_factory is not None else build_schema
    versions: list[SchemaVersion] = []
    for file_version in file_versions:
        if file_version.is_deletion or not file_version.text.strip():
            continue
        schema = factory(file_version.text)
        versions.append(
            SchemaVersion(
                index=len(versions),
                commit_oid=file_version.commit_oid,
                timestamp=file_version.timestamp,
                schema=schema,
            )
        )
    return SchemaHistory(project=project, ddl_path=ddl_path, versions=tuple(versions))
