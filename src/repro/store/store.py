"""The persistent corpus store: a sqlite3-backed measurement archive.

The paper's deliverable is a *measured corpus* — per-project heartbeats,
funnel metrics, taxa — yet re-running the measurement chain for every
consumer makes results expensive to reuse.  :class:`CorpusStore` is the
durable backend: one sqlite file holding every project's outcome,
Fig 4 measures, schema-version ledger, per-commit heartbeat rows and
failure records, next to the funnel's front-stage counts.

Two properties make it more than a dump:

- **Incremental identity.**  Every project row carries the content
  fingerprint of its DDL history (built from the pipeline cache's
  ``text_key`` scheme), so ingest can prove a project unchanged without
  re-measuring it — see :mod:`repro.store.ingest`.
- **Typed queries.**  ``by_taxon``, metric-range filters, pagination
  and corpus aggregates read straight from SQL; reporting and export
  reconstruct full :class:`~repro.core.project.ProjectHistory` objects
  (pickled alongside the flat columns) so a store-backed export is
  byte-identical to a direct funnel export.

Readers are thread-safe: every thread gets its own connection (the
read-only serving layer leans on this), and multi-statement reads run
inside one transaction so concurrent ingests cannot tear a snapshot.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.project import ProjectHistory
from repro.core.taxa import TAXA_ORDER, Taxon
from repro.mining.funnel import FunnelReport
from repro.mining.path_filters import MultiFileVerdict
from repro.pipeline.stages import Outcome, ProjectContext, ProjectFailure

#: Bump when the table layout changes; older stores are migrated in
#: place when possible, newer ones refuse to open.
STORE_SCHEMA_VERSION = 5

#: The numeric per-project columns a metric-range filter may target.
METRIC_COLUMNS: tuple[str, ...] = (
    "n_commits",
    "active_commits",
    "total_activity",
    "expansion",
    "maintenance",
    "reeds",
    "turf_commits",
    "table_insertions",
    "table_deletions",
    "tables_at_start",
    "tables_at_end",
    "attributes_at_start",
    "attributes_at_end",
    "sup_months",
    "pup_months",
    "total_repo_commits",
    "ddl_commit_share",
)

_PROJECT_COLUMNS = (
    "id",
    "name",
    "ddl_path",
    "domain",
    "dialect",
    "history_hash",
    "outcome",
    "taxon",
) + METRIC_COLUMNS

_HEARTBEAT_COLUMNS = (
    "transition_id",
    "timestamp",
    "days_since_v0",
    "running_month",
    "running_year",
    "old_tables",
    "old_attributes",
    "new_tables",
    "new_attributes",
    "attrs_born",
    "attrs_injected",
    "attrs_deleted",
    "attrs_ejected",
    "attrs_type_changed",
    "attrs_pk_changed",
    "expansion",
    "maintenance",
    "activity",
    "is_active",
)

# Composite (filter, id) indexes chosen from the /v1 filter families the
# serving layer actually exposes: taxon and outcome equality filters, the
# loadgen's metric-range filters, and the keyset cursor seek (which rides
# the integer primary key directly).  The trailing ``id`` column lets an
# equality filter deliver rows already in pagination order, so a cursor
# page under a taxon/outcome filter is one index descent — no scan, no
# sort — however large the table grows.
_INDEX_DDL = """
CREATE INDEX IF NOT EXISTS idx_projects_taxon_id ON projects(taxon, id);
CREATE INDEX IF NOT EXISTS idx_projects_outcome_id ON projects(outcome, id);
CREATE INDEX IF NOT EXISTS idx_projects_n_commits ON projects(n_commits, id);
CREATE INDEX IF NOT EXISTS idx_projects_total_activity ON projects(total_activity, id);
CREATE INDEX IF NOT EXISTS idx_projects_active_commits ON projects(active_commits, id);
"""

#: Metric columns with an ``idx_projects_<metric>`` index of their own:
#: the only ones a metric-range query may name in ``INDEXED BY``.
_INDEXED_METRICS = frozenset(
    re.findall(r"idx_projects_(\w+) ON projects\(\1, id\)", _INDEX_DDL)
)

# v5: the dialect filter family.  Kept out of ``_DDL``/``_INDEX_DDL``
# because both replay against pre-v5 tables (the base script runs on
# every open, before migrations) where the ``dialect`` column does not
# exist yet; ``__init__`` applies it once the column is guaranteed.
_DIALECT_INDEX_DDL = """
CREATE INDEX IF NOT EXISTS idx_projects_dialect_id ON projects(dialect, id);
"""

_DDL = f"""
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS funnel (
    id                    INTEGER PRIMARY KEY CHECK (id = 1),
    sql_collection_repos  INTEGER NOT NULL DEFAULT 0,
    joined_and_filtered   INTEGER NOT NULL DEFAULT 0,
    lib_io_projects       INTEGER NOT NULL DEFAULT 0,
    omitted_by_paths      TEXT NOT NULL DEFAULT '{{}}'
);
CREATE TABLE IF NOT EXISTS projects (
    id                  INTEGER PRIMARY KEY AUTOINCREMENT,
    name                TEXT NOT NULL UNIQUE,
    ddl_path            TEXT NOT NULL,
    domain              TEXT NOT NULL DEFAULT '',
    dialect             TEXT NOT NULL DEFAULT 'mysql',
    history_hash        TEXT NOT NULL,
    outcome             TEXT NOT NULL,
    taxon               TEXT,
    {" INTEGER, ".join(c for c in METRIC_COLUMNS if c != "ddl_commit_share")} INTEGER,
    ddl_commit_share    REAL,
    payload             BLOB
);
{_INDEX_DDL}
CREATE TABLE IF NOT EXISTS versions (
    project_id INTEGER NOT NULL REFERENCES projects(id) ON DELETE CASCADE,
    ordinal    INTEGER NOT NULL,
    commit_oid TEXT NOT NULL,
    timestamp  INTEGER NOT NULL,
    tables     INTEGER NOT NULL,
    attributes INTEGER NOT NULL,
    PRIMARY KEY (project_id, ordinal)
);
CREATE TABLE IF NOT EXISTS heartbeat (
    project_id INTEGER NOT NULL REFERENCES projects(id) ON DELETE CASCADE,
    {" INTEGER, ".join(c for c in _HEARTBEAT_COLUMNS if c != "days_since_v0")} INTEGER,
    days_since_v0 REAL,
    PRIMARY KEY (project_id, transition_id)
);
CREATE TABLE IF NOT EXISTS failures (
    project  TEXT PRIMARY KEY,
    stage    TEXT NOT NULL,
    error    TEXT NOT NULL,
    message  TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 1
);
"""

# v4: the migration-advisor ledger.  ``response`` holds the canonical
# JSON bytes served for the advice, so an idempotent replay is
# byte-identical to the original response; (project, idempotency_key)
# is the replay key.  Advice rows are an audit log, deliberately outside
# ``identity_rows()`` so accepting advice never moves the corpus ETag.
_ADVICE_DDL = """
CREATE TABLE IF NOT EXISTS advice (
    id              INTEGER PRIMARY KEY,
    project_id      INTEGER NOT NULL,
    project         TEXT NOT NULL,
    idempotency_key TEXT NOT NULL,
    body_sha256     TEXT NOT NULL,
    response        BLOB NOT NULL,
    UNIQUE (project, idempotency_key)
);
CREATE INDEX IF NOT EXISTS idx_advice_project_id ON advice(project, id);
"""

_DDL = _DDL + _ADVICE_DDL

#: In-place migrations: schema version -> DDL lifting it one version up.
_MIGRATIONS: dict[int, str] = {
    1: "ALTER TABLE failures ADD COLUMN attempts INTEGER NOT NULL DEFAULT 1",
    # v3: replace the single-column taxon/outcome indexes with the
    # composite (filter, id) set and cover the metric-range families.
    2: (
        "DROP INDEX IF EXISTS idx_projects_taxon;"
        "DROP INDEX IF EXISTS idx_projects_outcome;"
        + _INDEX_DDL
    ),
    # v4: the advice ledger behind POST /v1/projects/{id}/advise.
    3: _ADVICE_DDL,
    # v5: the per-project parse dialect + its (dialect, id) filter
    # index.  Every pre-dialect row was parsed through the MySQL
    # frontend, so the backfill default is exact, not a guess.
    4: (
        "ALTER TABLE projects ADD COLUMN dialect TEXT NOT NULL DEFAULT 'mysql';"
        + _DIALECT_INDEX_DDL
    ),
}


class StoreError(RuntimeError):
    """A store-layer failure (bad filter, incompatible schema, ...)."""


class AdviceConflict(StoreError):
    """An Idempotency-Key was replayed with a *different* request body."""


@dataclass(frozen=True)
class AdviceRecord:
    """One persisted advisor recommendation (an advice-table row).

    ``response`` is the canonical JSON body served when the advice was
    first computed; replaying the same ``(project, idempotency_key)``
    returns exactly these bytes.
    """

    id: int
    project_id: int
    project: str
    idempotency_key: str
    body_sha256: str
    response: bytes

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "AdviceRecord":
        return cls(
            id=row["id"],
            project_id=row["project_id"],
            project=row["project"],
            idempotency_key=row["idempotency_key"],
            body_sha256=row["body_sha256"],
            response=bytes(row["response"]),
        )


@dataclass(frozen=True)
class StoredProject:
    """One projects-table row, minus the pickled payload."""

    id: int
    name: str
    ddl_path: str
    domain: str
    history_hash: str
    outcome: str
    taxon: str | None
    dialect: str = "mysql"
    metrics: dict[str, float | int | None] = field(default_factory=dict)

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "StoredProject":
        return cls(
            id=row["id"],
            name=row["name"],
            ddl_path=row["ddl_path"],
            domain=row["domain"],
            history_hash=row["history_hash"],
            outcome=row["outcome"],
            taxon=row["taxon"],
            dialect=row["dialect"],
            metrics={column: row[column] for column in METRIC_COLUMNS},
        )

    def payload(self) -> dict:
        """A JSON-friendly dict (the serving layer's project record)."""
        out: dict = {
            "id": self.id,
            "project": self.name,
            "ddl_path": self.ddl_path,
            "domain": self.domain,
            "dialect": self.dialect,
            "history_hash": self.history_hash,
            "outcome": self.outcome,
            "taxon": self.taxon,
        }
        out.update(self.metrics)
        return out


@dataclass(frozen=True)
class MetricRange:
    """A half-open or closed numeric filter over one metric column."""

    metric: str
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if self.metric not in METRIC_COLUMNS:
            raise StoreError(
                f"unknown metric {self.metric!r}; "
                f"expected one of {', '.join(METRIC_COLUMNS)}"
            )


@dataclass(frozen=True)
class ProjectPage:
    """One page of a filtered projects query."""

    total: int
    offset: int
    limit: int
    projects: tuple[StoredProject, ...]


@dataclass(frozen=True)
class QueryPage(ProjectPage):
    """A :class:`ProjectPage` that also carries the keyset cursor.

    ``next_cursor`` is the id of the page's last row whenever more rows
    match beyond it, else ``None``.  Passing it back as
    ``query_projects(cursor=...)`` resumes exactly after that row — an
    indexed ``id > ?`` seek, O(page) however deep the walk, where the
    equivalent ``offset`` walk is O(offset) per page.  Both store
    layouts return it with identical semantics.
    """

    next_cursor: int | None = None


@dataclass(frozen=True)
class FailurePage:
    """One keyset page of stored failure records (ordered by project)."""

    failures: tuple[ProjectFailure, ...]
    next_cursor: str | None = None


def _taxon_from(value: str) -> Taxon:
    """Resolve a taxon given as enum value ('active') or short name."""
    for taxon in Taxon:
        if value in (taxon.value, taxon.short, taxon.name.lower()):
            return taxon
    raise StoreError(f"unknown taxon {value!r}")


def compute_content_hash(
    funnel_row: dict | None, identity_rows: Iterable[tuple[str, str, str, str]]
) -> str:
    """The canonical content digest over funnel counts + identity rows.

    *identity_rows* must be ``(name, history_hash, outcome, taxon)``
    tuples sorted by name.  Factored out of :meth:`CorpusStore.content_hash`
    so a sharded store can merge its shards' rows and derive the exact
    same digest as the equivalent single-file store.
    """
    digest = hashlib.sha256()
    if funnel_row is not None:
        digest.update(
            f"{funnel_row['sql_collection_repos']}|{funnel_row['joined_and_filtered']}"
            f"|{funnel_row['lib_io_projects']}|{funnel_row['omitted_by_paths']}".encode()
        )
    for name, history_hash, outcome, taxon in identity_rows:
        digest.update(f"|{name}:{history_hash}:{outcome}:{taxon}".encode())
    return digest.hexdigest()


def aggregates_from_parts(parts: Iterable[dict]) -> dict:
    """Merge :meth:`CorpusStore.aggregate_parts` dicts into /stats shape.

    The single-store and sharded paths both funnel through here, so the
    rendered aggregates are identical by construction whatever the shard
    count.  Rounding (``avg_sup_months``) happens once, after the merge.
    """
    by_outcome: dict[str, int] = {}
    by_dialect: dict[str, int] = {}
    heartbeat_total = 0
    measured = {
        "measured": 0,
        "total_activity": 0,
        "n_commits": 0,
        "active_commits": 0,
        "expansion": 0,
        "maintenance": 0,
        "sup_months_sum": 0,
        "sup_months_count": 0,
    }
    funnel = None
    for part in parts:
        for outcome, n in part["by_outcome"].items():
            by_outcome[outcome] = by_outcome.get(outcome, 0) + n
        for dialect, n in part.get("by_dialect", {}).items():
            by_dialect[dialect] = by_dialect.get(dialect, 0) + n
        heartbeat_total += part["heartbeat_rows"]
        for key in measured:
            measured[key] += part["measured"][key]
        if funnel is None:
            funnel = part["funnel"]
    cloned = by_outcome.get(Outcome.STUDIED.value, 0) + by_outcome.get(
        Outcome.RIGID.value, 0
    )
    rigid = by_outcome.get(Outcome.RIGID.value, 0)
    avg_sup = (
        measured["sup_months_sum"] / measured["sup_months_count"]
        if measured["sup_months_count"]
        else 0.0
    )
    out = {
        "projects": sum(by_outcome.values()),
        "by_outcome": by_outcome,
        "by_dialect": by_dialect,
        "cloned_usable": cloned,
        "rigid_share": (rigid / cloned) if cloned else 0.0,
        "heartbeat_rows": heartbeat_total,
        "measured": {
            "projects": measured["measured"],
            "total_activity": measured["total_activity"],
            "n_commits": measured["n_commits"],
            "active_commits": measured["active_commits"],
            "expansion": measured["expansion"],
            "maintenance": measured["maintenance"],
            "avg_sup_months": round(avg_sup, 3),
        },
    }
    if funnel is not None:
        out["funnel"] = {
            "sql_collection_repos": funnel["sql_collection_repos"],
            "joined_and_filtered": funnel["joined_and_filtered"],
            "lib_io_projects": funnel["lib_io_projects"],
            "omitted_by_paths": json.loads(funnel["omitted_by_paths"]),
        }
    return out


def merge_dialect_profiles(parts: Iterable[dict[str, dict]]) -> dict[str, dict]:
    """Merge :meth:`CorpusStore.dialect_profiles` dicts element-wise.

    Every leaf is a count or a sum, so shard merging is pure addition —
    the sharded store's profile equals the single-file store's by
    construction.
    """
    merged: dict[str, dict] = {}
    for part in parts:
        for dialect, profile in part.items():
            into = merged.setdefault(
                dialect,
                {
                    "projects": 0,
                    "by_outcome": {},
                    "studied": {
                        "count": 0,
                        "total_activity": 0,
                        "active_commits": 0,
                        "sup_months_sum": 0,
                        "sup_months_count": 0,
                    },
                    "heartbeat": {"rows": 0, "active": 0, "activity_sum": 0},
                    "taxa": {},
                },
            )
            into["projects"] += profile["projects"]
            for outcome, n in profile["by_outcome"].items():
                into["by_outcome"][outcome] = into["by_outcome"].get(outcome, 0) + n
            for key in into["studied"]:
                into["studied"][key] += profile["studied"][key]
            for key in into["heartbeat"]:
                into["heartbeat"][key] += profile["heartbeat"][key]
            for taxon, n in profile["taxa"].items():
                into["taxa"][taxon] = into["taxa"].get(taxon, 0) + n
    return merged


class CorpusStore:
    """Durable, queryable archive of one measured corpus.

    ``path`` may be a filesystem path (thread-local connections, WAL
    journal) or ``":memory:"`` (one shared connection behind a lock —
    handy in unit tests).  Use as a context manager or call
    :meth:`close` when done.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._memory = self.path == ":memory:"
        self._local = threading.local()
        self._write_lock = threading.RLock()
        self._shared: sqlite3.Connection | None = None
        self._etag: str | None = None
        # Bumped on every write through *this* instance; combined with
        # sqlite's per-connection ``PRAGMA data_version`` (which moves
        # when *another* connection — including another process —
        # commits) it forms the change token the content-hash cache
        # validates against, so a concurrent ``repro ingest`` from a
        # separate process still invalidates a serving process's ETags.
        self._write_generation = 0
        with self._write_lock:
            conn = self._connection()
            conn.executescript(_DDL)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
                conn.commit()
            else:
                version = int(row["value"])
                while version in _MIGRATIONS and version < STORE_SCHEMA_VERSION:
                    conn.executescript(_MIGRATIONS[version])
                    version += 1
                    conn.execute(
                        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                        (str(version),),
                    )
                    conn.commit()
                if version != STORE_SCHEMA_VERSION:
                    raise StoreError(
                        f"store at {self.path} has schema version {row['value']}, "
                        f"this build expects {STORE_SCHEMA_VERSION}"
                    )
            # Post-migration: the dialect column now exists whatever
            # version the file started at, so its index is safe to
            # (idempotently) ensure here.
            conn.executescript(_DIALECT_INDEX_DDL)
            conn.commit()

    # -- connection plumbing ----------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._memory:
            if self._shared is None:
                self._shared = sqlite3.connect(":memory:", check_same_thread=False)
                self._shared.row_factory = sqlite3.Row
                self._shared.execute("PRAGMA foreign_keys = ON")
            return self._shared
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA foreign_keys = ON")
            conn.execute("PRAGMA busy_timeout = 10000")
            self._local.conn = conn
            connections = getattr(self, "_all_connections", None)
            if connections is None:
                connections = self._all_connections = []
            with self._write_lock:
                connections.append(conn)
        return conn

    @contextmanager
    def _read_tx(self) -> Iterator[sqlite3.Connection]:
        """A multi-statement read inside one snapshot."""
        conn = self._connection()
        if self._memory:
            # The single shared connection serializes behind the lock.
            with self._write_lock:
                yield conn
            return
        conn.execute("BEGIN")
        try:
            yield conn
        finally:
            conn.commit()

    @contextmanager
    def _write_tx(self, touches_content: bool = True) -> Iterator[sqlite3.Connection]:
        """One immediate write transaction.

        Its commit invalidates the cached content hash unless the caller
        passes ``touches_content=False``: advice rows and meta sequences
        do not feed :meth:`content_hash`, so writing them leaves it valid.
        """
        with self._write_lock:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE" if not self._memory else "BEGIN")
            try:
                yield conn
            except BaseException:
                conn.rollback()
                raise
            else:
                conn.commit()
                if touches_content:
                    self._etag = None
                    self._write_generation += 1

    def close(self) -> None:
        if self._memory:
            if self._shared is not None:
                self._shared.close()
                self._shared = None
            return
        for conn in getattr(self, "_all_connections", []):
            try:
                conn.close()
            except sqlite3.ProgrammingError:
                pass  # closed by its owning thread already
        self._all_connections = []
        self._local = threading.local()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes (the ingest side) -----------------------------------------

    def record_funnel_front(
        self,
        sql_collection_repos: int,
        joined_and_filtered: int,
        lib_io_projects: int,
        omitted_by_paths: dict[MultiFileVerdict, int],
    ) -> None:
        """Persist the funnel's pre-clone stage counts."""
        omitted = json.dumps(
            {verdict.name: count for verdict, count in omitted_by_paths.items()},
            sort_keys=True,
        )
        with self._write_tx() as conn:
            conn.execute(
                "INSERT INTO funnel (id, sql_collection_repos, joined_and_filtered,"
                " lib_io_projects, omitted_by_paths) VALUES (1, ?, ?, ?, ?)"
                " ON CONFLICT(id) DO UPDATE SET"
                " sql_collection_repos = excluded.sql_collection_repos,"
                " joined_and_filtered = excluded.joined_and_filtered,"
                " lib_io_projects = excluded.lib_io_projects,"
                " omitted_by_paths = excluded.omitted_by_paths",
                (sql_collection_repos, joined_and_filtered, lib_io_projects, omitted),
            )

    def get_meta(self, key: str, default: str | None = None) -> str | None:
        """Read one durable key/value pair (ingest checkpoints live here)."""
        with self._read_tx() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return row["value"] if row is not None else default

    def set_meta(self, key: str, value: str) -> None:
        if key == "schema_version":
            raise StoreError("schema_version is managed by the store itself")
        with self._write_tx() as conn:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )

    def allocate_meta_sequence(self, key: str, default_next: int) -> int:
        """Atomically draw the next value of a meta-backed id sequence.

        Read-modify-write inside one ``BEGIN IMMEDIATE`` transaction, so
        concurrent allocators — other threads *and other processes* —
        serialize on sqlite's write lock and never receive the same
        value.  *default_next* seeds the sequence when the key does not
        exist yet.  Returns the allocated value; the stored next value
        becomes ``allocated + 1``.
        """
        if key == "schema_version":
            raise StoreError("schema_version is managed by the store itself")
        with self._write_tx(touches_content=False) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
            value = int(row["value"]) if row is not None else default_next
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, str(value + 1)),
            )
        return value

    def delete_meta(self, key: str) -> None:
        if key == "schema_version":
            raise StoreError("schema_version is managed by the store itself")
        with self._write_tx() as conn:
            conn.execute("DELETE FROM meta WHERE key = ?", (key,))

    def fingerprints(self) -> dict[str, str]:
        """name -> stored history fingerprint, for the ingest delta."""
        with self._read_tx() as conn:
            rows = conn.execute("SELECT name, history_hash FROM projects").fetchall()
        return {row["name"]: row["history_hash"] for row in rows}

    @staticmethod
    def _project_upsert(
        ctx: ProjectContext, history_hash: str, project_id: int | None
    ) -> tuple[str, tuple]:
        """The projects-table upsert statement + params for one context."""
        task = ctx.task
        columns = dict.fromkeys(METRIC_COLUMNS)
        taxon = ctx.taxon.value if ctx.taxon is not None else None
        blob = None
        project = ctx.project
        if project is not None:
            metrics = project.metrics
            for column in METRIC_COLUMNS:
                if column == "pup_months":
                    columns[column] = project.pup_months
                elif column == "total_repo_commits":
                    columns[column] = project.repo_stats.total_commits
                elif column == "ddl_commit_share":
                    columns[column] = project.ddl_commit_share
                elif column in ("expansion", "maintenance"):
                    columns[column] = getattr(metrics, f"total_{column}")
                else:
                    columns[column] = getattr(metrics, column)
            blob = pickle.dumps(project, protocol=pickle.HIGHEST_PROTOCOL)
        outcome = ctx.outcome.value if ctx.outcome is not None else Outcome.FAILED.value
        id_column = "id, " if project_id is not None else ""
        id_value = (project_id,) if project_id is not None else ()
        dialect = getattr(task, "dialect", "mysql") or "mysql"
        sql = (
            f"INSERT INTO projects ({id_column}name, ddl_path, domain, dialect,"
            f" history_hash, outcome, taxon, {', '.join(METRIC_COLUMNS)},"
            " payload) VALUES"
            f" ({', '.join('?' * (len(id_value) + 7 + len(METRIC_COLUMNS) + 1))})"
            " ON CONFLICT(name) DO UPDATE SET"
            " ddl_path = excluded.ddl_path, domain = excluded.domain,"
            " dialect = excluded.dialect,"
            " history_hash = excluded.history_hash,"
            " outcome = excluded.outcome, taxon = excluded.taxon,"
            + "".join(f" {c} = excluded.{c}," for c in METRIC_COLUMNS)
            + " payload = excluded.payload"
        )
        params = (
            *id_value,
            task.repo_name,
            task.ddl_path,
            task.domain,
            dialect,
            history_hash,
            outcome,
            taxon,
            *[columns[c] for c in METRIC_COLUMNS],
            blob,
        )
        return sql, params

    @staticmethod
    def _version_rows(project_id: int, project) -> list[tuple]:
        return [
            (
                project_id,
                version.index,
                version.commit_oid,
                version.timestamp,
                version.schema.size.tables,
                version.schema.size.attributes,
            )
            for version in project.history.versions
        ]

    @staticmethod
    def _heartbeat_rows(project_id: int, project) -> list[tuple]:
        return [
            (
                project_id,
                t.transition_id,
                t.timestamp,
                round(t.days_since_v0, 6),
                t.running_month,
                t.running_year,
                t.old_size.tables,
                t.old_size.attributes,
                t.new_size.tables,
                t.new_size.attributes,
                t.diff.attrs_born,
                t.diff.attrs_injected,
                t.diff.attrs_deleted,
                t.diff.attrs_ejected,
                t.diff.attrs_type_changed,
                t.diff.attrs_pk_changed,
                t.expansion,
                t.maintenance,
                t.activity,
                int(t.is_active),
            )
            for t in project.metrics.transitions
        ]

    def persist_context(
        self, ctx: ProjectContext, history_hash: str, project_id: int | None = None
    ) -> None:
        """Upsert one measured pipeline context under its fingerprint.

        *project_id* forces an explicit row id on first insert (a
        conflicting existing name keeps its id).  The sharded store uses
        it to allocate globally unique ids mirroring what a single
        AUTOINCREMENT table would have handed out, so pagination order
        and payloads stay byte-identical across shard counts.
        """
        self.persist_batch([(ctx, history_hash)], ids=[project_id])

    def persist_batch(
        self,
        items: Sequence[tuple[ProjectContext, str]],
        ids: Sequence[int | None] | None = None,
    ) -> None:
        """Upsert many ``(context, fingerprint)`` pairs in ONE transaction.

        The batched path behind streamed ingest: all child rows
        (versions, heartbeat, failures) of the whole chunk go through
        one ``executemany`` per table, and the chunk commits atomically
        — either every project of the chunk is durable or none is,
        which is what makes resume-by-index sound.  Row-for-row the
        result is identical to calling :meth:`persist_context` once per
        item.
        """
        if not items:
            return
        if ids is None:
            ids = [None] * len(items)
        if len(ids) != len(items):
            raise StoreError("persist_batch: items and ids must align")
        with self._write_tx() as conn:
            resolved: list[tuple[int, ProjectContext]] = []
            for (ctx, history_hash), forced_id in zip(items, ids):
                # The upsert stays per-row (conflict resolution + id
                # readback); the heavy child tables batch below.
                sql, params = self._project_upsert(ctx, history_hash, forced_id)
                conn.execute(sql, params)
                row_id = conn.execute(
                    "SELECT id FROM projects WHERE name = ?", (ctx.task.repo_name,)
                ).fetchone()["id"]
                resolved.append((row_id, ctx))
            conn.executemany(
                "DELETE FROM versions WHERE project_id = ?",
                [(row_id,) for row_id, _ in resolved],
            )
            conn.executemany(
                "DELETE FROM heartbeat WHERE project_id = ?",
                [(row_id,) for row_id, _ in resolved],
            )
            conn.executemany(
                "DELETE FROM failures WHERE project = ?",
                [(ctx.task.repo_name,) for _, ctx in resolved],
            )
            version_rows: list[tuple] = []
            heartbeat_rows: list[tuple] = []
            failure_rows: list[tuple] = []
            for row_id, ctx in resolved:
                if ctx.project is not None:
                    version_rows.extend(self._version_rows(row_id, ctx.project))
                    heartbeat_rows.extend(self._heartbeat_rows(row_id, ctx.project))
                if ctx.failure is not None:
                    failure_rows.append(
                        (
                            ctx.failure.project,
                            ctx.failure.stage,
                            ctx.failure.error,
                            ctx.failure.message,
                            ctx.failure.attempts,
                        )
                    )
            if version_rows:
                conn.executemany(
                    "INSERT INTO versions (project_id, ordinal, commit_oid,"
                    " timestamp, tables, attributes) VALUES (?, ?, ?, ?, ?, ?)",
                    version_rows,
                )
            if heartbeat_rows:
                conn.executemany(
                    "INSERT INTO heartbeat (project_id, "
                    + ", ".join(_HEARTBEAT_COLUMNS)
                    + ") VALUES ("
                    + ", ".join("?" * (1 + len(_HEARTBEAT_COLUMNS)))
                    + ")",
                    heartbeat_rows,
                )
            if failure_rows:
                conn.executemany(
                    "INSERT INTO failures (project, stage, error, message, attempts)"
                    " VALUES (?, ?, ?, ?, ?) ON CONFLICT(project) DO UPDATE SET"
                    " stage = excluded.stage, error = excluded.error,"
                    " message = excluded.message, attempts = excluded.attempts",
                    failure_rows,
                )

    def analyze(self) -> None:
        """Refresh sqlite's statistics tables after a bulk ingest.

        ``ANALYZE`` gives the query planner real row counts and index
        selectivities — without it, a 100k-row table planned with
        default guesses can pick the wrong index for combined filters.
        """
        with self._write_tx() as conn:
            conn.execute("ANALYZE")

    def prune_missing(self, keep: Iterable[str]) -> int:
        """Drop projects that left the corpus; returns how many went."""
        names = set(keep)
        with self._read_tx() as conn:
            stored = [
                row["name"] for row in conn.execute("SELECT name FROM projects")
            ]
        stale = [name for name in stored if name not in names]
        if stale:
            with self._write_tx() as conn:
                conn.executemany(
                    "DELETE FROM projects WHERE name = ?", [(n,) for n in stale]
                )
                conn.executemany(
                    "DELETE FROM failures WHERE project = ?", [(n,) for n in stale]
                )
        return len(stale)

    # -- typed queries (the read side) -------------------------------------

    def project_count(self) -> int:
        with self._read_tx() as conn:
            return conn.execute("SELECT COUNT(*) AS n FROM projects").fetchone()["n"]

    def get_project(self, ref: int | str) -> StoredProject | None:
        """Look up by numeric store id or by project name."""
        clause = "id = ?" if isinstance(ref, int) else "name = ?"
        with self._read_tx() as conn:
            row = conn.execute(
                f"SELECT {', '.join(_PROJECT_COLUMNS)} FROM projects WHERE {clause}",
                (ref,),
            ).fetchone()
        return StoredProject.from_row(row) if row is not None else None

    def query_projects(
        self,
        taxon: Taxon | str | None = None,
        outcome: Outcome | str | None = None,
        ranges: Sequence[MetricRange] = (),
        offset: int = 0,
        limit: int | None = None,
        cursor: int | None = None,
        dialect: str | None = None,
    ) -> QueryPage:
        """Filtered, paginated projects in stable (ingest) order.

        ``cursor`` selects keyset pagination: rows strictly after id
        *cursor* (an indexed seek), mutually exclusive with a non-zero
        ``offset``.  Either way the page's ``next_cursor`` points past
        its last row when more rows match, so any offset page can be
        continued as a cursor walk.  ``dialect`` filters on the parse
        dialect (equality over the ``(dialect, id)`` index, so a
        dialect page is one index descent like taxon/outcome pages).
        """
        where: list[str] = []
        params: list[object] = []
        if taxon is not None:
            resolved = taxon if isinstance(taxon, Taxon) else _taxon_from(taxon)
            where.append("taxon = ?")
            params.append(resolved.value)
        if outcome is not None:
            where.append("outcome = ?")
            params.append(outcome.value if isinstance(outcome, Outcome) else outcome)
        if dialect is not None:
            where.append("dialect = ?")
            params.append(dialect)
        for bound in ranges:
            if bound.minimum is not None:
                where.append(f"{bound.metric} >= ?")
                params.append(bound.minimum)
            if bound.maximum is not None:
                where.append(f"{bound.metric} <= ?")
                params.append(bound.maximum)
        clause = (" WHERE " + " AND ".join(where)) if where else ""
        if offset < 0:
            raise StoreError("offset must be >= 0")
        if limit is not None and limit < 1:
            raise StoreError("limit must be >= 1")
        if cursor is not None:
            if cursor < 0:
                raise StoreError("cursor must be >= 0")
            if offset:
                raise StoreError("cursor and offset are mutually exclusive")
        seek_where = list(where)
        seek_params = list(params)
        if cursor is not None:
            seek_where.append("id > ?")
            seek_params.append(cursor)
        seek_clause = (" WHERE " + " AND ".join(seek_where)) if seek_where else ""
        # When the only constraint is a metric range, sqlite's planner
        # prefers a full rowid-order scan (ORDER BY id is free there and
        # it cannot see the range's selectivity without STAT4).  That
        # plan degrades linearly with table size exactly when the filter
        # is selective — the common dashboard query at 100k+ rows — so
        # direct it through the first ranged metric's composite index:
        # cost is then bounded by the match count, never by the corpus.
        # A range on a metric without an index keeps the planner's plan.
        indexed = next(
            (bound.metric for bound in ranges if bound.metric in _INDEXED_METRICS),
            None,
        )
        hint = ""
        if indexed is not None and taxon is None and outcome is None \
                and dialect is None and cursor is None:
            hint = f" INDEXED BY idx_projects_{indexed}"
        with self._read_tx() as conn:
            total = conn.execute(
                f"SELECT COUNT(*) AS n FROM projects{hint}{clause}", params
            ).fetchone()["n"]
            sql = (
                f"SELECT {', '.join(_PROJECT_COLUMNS)} FROM projects{hint}"
                f"{seek_clause} ORDER BY id LIMIT ? OFFSET ?"
            )
            # Fetch one row beyond the page: its presence is the
            # "more rows exist" signal behind next_cursor.
            fetch = limit + 1 if limit is not None else -1
            rows = conn.execute(sql, [*seek_params, fetch, offset]).fetchall()
        more = limit is not None and len(rows) > limit
        if more:
            rows = rows[:limit]
        return QueryPage(
            total=total,
            offset=offset,
            limit=limit if limit is not None else total,
            projects=tuple(StoredProject.from_row(row) for row in rows),
            next_cursor=rows[-1]["id"] if more and rows else None,
        )

    def by_taxon(self, taxon: Taxon | str) -> tuple[StoredProject, ...]:
        """All projects of one taxon, in stable order."""
        return self.query_projects(taxon=taxon).projects

    def heartbeat_rows(self, ref: int | str) -> list[dict] | None:
        """The per-commit heartbeat of one project (None if unknown)."""
        stored = self.get_project(ref)
        if stored is None:
            return None
        with self._read_tx() as conn:
            rows = conn.execute(
                f"SELECT {', '.join(_HEARTBEAT_COLUMNS)} FROM heartbeat"
                " WHERE project_id = ? ORDER BY transition_id",
                (stored.id,),
            ).fetchall()
        return [dict(row) for row in rows]

    def version_rows(self, ref: int | str) -> list[dict] | None:
        """The schema-version ledger of one project (None if unknown)."""
        stored = self.get_project(ref)
        if stored is None:
            return None
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT ordinal, commit_oid, timestamp, tables, attributes"
                " FROM versions WHERE project_id = ? ORDER BY ordinal",
                (stored.id,),
            ).fetchall()
        return [dict(row) for row in rows]

    def failures(
        self, offset: int = 0, limit: int | None = None
    ) -> list[ProjectFailure]:
        """Stored failure records in project order (optionally one page)."""
        if offset < 0:
            raise StoreError("offset must be >= 0")
        if limit is not None and limit < 1:
            raise StoreError("limit must be >= 1")
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT project, stage, error, message, attempts FROM failures"
                " ORDER BY project LIMIT ? OFFSET ?",
                (limit if limit else -1, offset),
            ).fetchall()
        return [
            ProjectFailure(
                project=row["project"],
                stage=row["stage"],
                error=row["error"],
                message=row["message"],
                attempts=row["attempts"],
            )
            for row in rows
        ]

    def failure_count(self) -> int:
        with self._read_tx() as conn:
            return conn.execute("SELECT COUNT(*) AS n FROM failures").fetchone()["n"]

    def query_failures(
        self, cursor: str | None = None, limit: int | None = None
    ) -> FailurePage:
        """Keyset page of failures: rows strictly after project *cursor*.

        ``failures`` is keyed by project name (a TEXT primary key), so
        the cursor is the last project of the previous page and the seek
        is an indexed ``project > ?``.
        """
        if limit is not None and limit < 1:
            raise StoreError("limit must be >= 1")
        clause = " WHERE project > ?" if cursor is not None else ""
        params: list[object] = [cursor] if cursor is not None else []
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT project, stage, error, message, attempts FROM failures"
                f"{clause} ORDER BY project LIMIT ?",
                [*params, limit + 1 if limit is not None else -1],
            ).fetchall()
        more = limit is not None and len(rows) > limit
        if more:
            rows = rows[:limit]
        return FailurePage(
            failures=tuple(
                ProjectFailure(
                    project=row["project"],
                    stage=row["stage"],
                    error=row["error"],
                    message=row["message"],
                    attempts=row["attempts"],
                )
                for row in rows
            ),
            next_cursor=rows[-1]["project"] if more and rows else None,
        )

    # -- advice (the write path) -------------------------------------------

    _ADVICE_COLUMNS = (
        "id", "project_id", "project", "idempotency_key", "body_sha256",
        "response",
    )

    def lookup_advice(
        self, project: str, idempotency_key: str
    ) -> AdviceRecord | None:
        """The stored advice under one ``(project, idempotency_key)``."""
        with self._read_tx() as conn:
            row = conn.execute(
                f"SELECT {', '.join(self._ADVICE_COLUMNS)} FROM advice"
                " WHERE project = ? AND idempotency_key = ?",
                (project, idempotency_key),
            ).fetchone()
        return AdviceRecord.from_row(row) if row is not None else None

    def record_advice(
        self,
        project_id: int,
        project: str,
        idempotency_key: str,
        body_sha256: str,
        build_response,
        advice_id: int | None = None,
    ) -> tuple[AdviceRecord, bool]:
        """Insert one advice row, or replay the existing one.

        The whole insert-or-replay decision runs inside ONE immediate
        write transaction, so two workers — threads *or processes* —
        racing the same key serialize on sqlite's write lock and exactly
        one row is ever persisted.  ``build_response(advice_id)`` must
        return the canonical JSON bytes to store; deferring the render
        lets the row id appear inside its own stored response.  Returns
        ``(record, replayed)``; a key replayed with a different body
        hash raises :class:`AdviceConflict`.

        *advice_id* forces an explicit row id: the sharded store
        allocates globally unique ids from its coordinator and passes
        them through here, exactly like ``persist_context``'s forced
        project ids.
        """
        with self._write_tx(touches_content=False) as conn:
            row = conn.execute(
                f"SELECT {', '.join(self._ADVICE_COLUMNS)} FROM advice"
                " WHERE project = ? AND idempotency_key = ?",
                (project, idempotency_key),
            ).fetchone()
            if row is not None:
                if row["body_sha256"] != body_sha256:
                    raise AdviceConflict(
                        f"idempotency key {idempotency_key!r} was already used"
                        f" with a different request body for {project!r}"
                    )
                return AdviceRecord.from_row(row), True
            if advice_id is None:
                advice_id = conn.execute(
                    "SELECT COALESCE(MAX(id), 0) + 1 AS n FROM advice"
                ).fetchone()["n"]
            response = build_response(advice_id)
            conn.execute(
                "INSERT INTO advice (id, project_id, project, idempotency_key,"
                " body_sha256, response) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    advice_id, project_id, project, idempotency_key,
                    body_sha256, response,
                ),
            )
        return (
            AdviceRecord(
                id=advice_id,
                project_id=project_id,
                project=project,
                idempotency_key=idempotency_key,
                body_sha256=body_sha256,
                response=response,
            ),
            False,
        )

    def advice_records(self, project: str) -> list[AdviceRecord]:
        """Every stored advice for one project, in id (creation) order."""
        with self._read_tx() as conn:
            rows = conn.execute(
                f"SELECT {', '.join(self._ADVICE_COLUMNS)} FROM advice"
                " WHERE project = ? ORDER BY id",
                (project,),
            ).fetchall()
        return [AdviceRecord.from_row(row) for row in rows]

    def advice_count(self) -> int:
        with self._read_tx() as conn:
            return conn.execute("SELECT COUNT(*) AS n FROM advice").fetchone()["n"]

    def max_advice_id(self) -> int:
        """The highest advice id ever visible (0 for an empty ledger)."""
        with self._read_tx() as conn:
            return conn.execute(
                "SELECT COALESCE(MAX(id), 0) AS n FROM advice"
            ).fetchone()["n"]

    def project_ids(self) -> list[int]:
        """Every project id in ingest order — one covering-index scan.

        The cheap alternative to paging every ``StoredProject`` out of
        the store when only the id sequence matters (the loadgen catalog
        plans cursor walks from it at 100k+ rows).
        """
        with self._read_tx() as conn:
            rows = conn.execute("SELECT id FROM projects ORDER BY id").fetchall()
        return [row["id"] for row in rows]

    def taxa_summary(self) -> dict[str, dict]:
        """Population and share-of-studied per taxon (the /taxa payload)."""
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT taxon, COUNT(*) AS n FROM projects"
                " WHERE outcome = ? GROUP BY taxon",
                (Outcome.STUDIED.value,),
            ).fetchall()
        counts = {row["taxon"]: row["n"] for row in rows}
        studied = sum(counts.values())
        return {
            taxon.value: {
                "count": counts.get(taxon.value, 0),
                "share_of_studied": (
                    counts.get(taxon.value, 0) / studied if studied else 0.0
                ),
            }
            for taxon in TAXA_ORDER
        }

    def dialects(self) -> list[str]:
        """The distinct parse dialects present, sorted (covering index)."""
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT DISTINCT dialect FROM projects ORDER BY dialect"
            ).fetchall()
        return [row["dialect"] for row in rows]

    def taxa_by_dialect(self) -> dict[str, dict[str, int]]:
        """Studied taxon counts split per dialect: raw, mergeable counts.

        ``{dialect: {taxon_value: count}}`` over studied projects only —
        plain counts (no shares) so a sharded store can sum its shards'
        dicts element-wise and match the single-file store exactly.
        """
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT dialect, taxon, COUNT(*) AS n FROM projects"
                " WHERE outcome = ? GROUP BY dialect, taxon",
                (Outcome.STUDIED.value,),
            ).fetchall()
        out: dict[str, dict[str, int]] = {}
        for row in rows:
            out.setdefault(row["dialect"], {})[row["taxon"]] = row["n"]
        return out

    def dialect_profiles(self) -> dict[str, dict]:
        """Per-dialect evolution profile: mergeable counts and sums.

        The raw material of the report suite's cross-dialect comparison
        (and the sharded merge): outcome counts, studied-metric sums and
        heartbeat activity per dialect.  Averages are left to the
        renderer so shard merging never re-averages averages.
        """
        profiles: dict[str, dict] = {}

        def _profile(dialect: str) -> dict:
            return profiles.setdefault(
                dialect,
                {
                    "projects": 0,
                    "by_outcome": {},
                    "studied": {
                        "count": 0,
                        "total_activity": 0,
                        "active_commits": 0,
                        "sup_months_sum": 0,
                        "sup_months_count": 0,
                    },
                    "heartbeat": {"rows": 0, "active": 0, "activity_sum": 0},
                    "taxa": {},
                },
            )

        with self._read_tx() as conn:
            for row in conn.execute(
                "SELECT dialect, outcome, COUNT(*) AS n FROM projects"
                " GROUP BY dialect, outcome"
            ):
                profile = _profile(row["dialect"])
                profile["projects"] += row["n"]
                profile["by_outcome"][row["outcome"]] = row["n"]
            for row in conn.execute(
                "SELECT dialect, COUNT(*) AS n,"
                " COALESCE(SUM(total_activity), 0) AS total_activity,"
                " COALESCE(SUM(active_commits), 0) AS active_commits,"
                " COALESCE(SUM(sup_months), 0) AS sup_months_sum,"
                " COUNT(sup_months) AS sup_months_count"
                " FROM projects WHERE outcome = ? GROUP BY dialect",
                (Outcome.STUDIED.value,),
            ):
                studied = _profile(row["dialect"])["studied"]
                studied["count"] = row["n"]
                studied["total_activity"] = row["total_activity"]
                studied["active_commits"] = row["active_commits"]
                studied["sup_months_sum"] = row["sup_months_sum"]
                studied["sup_months_count"] = row["sup_months_count"]
            for row in conn.execute(
                "SELECT p.dialect AS dialect, COUNT(*) AS n,"
                " COALESCE(SUM(h.is_active), 0) AS active,"
                " COALESCE(SUM(h.activity), 0) AS activity_sum"
                " FROM heartbeat h JOIN projects p ON p.id = h.project_id"
                " GROUP BY p.dialect"
            ):
                beat = _profile(row["dialect"])["heartbeat"]
                beat["rows"] = row["n"]
                beat["active"] = row["active"]
                beat["activity_sum"] = row["activity_sum"]
            for row in conn.execute(
                "SELECT dialect, taxon, COUNT(*) AS n FROM projects"
                " WHERE outcome = ? GROUP BY dialect, taxon",
                (Outcome.STUDIED.value,),
            ):
                _profile(row["dialect"])["taxa"][row["taxon"]] = row["n"]
        return profiles

    def aggregate_parts(self) -> dict:
        """Raw, mergeable sums behind :meth:`aggregates`.

        Everything is a plain count or sum (``sup_months`` kept as
        sum + non-null count, not a rounded average), so a sharded store
        can add its shards' parts element-wise and derive *exactly* the
        aggregates the equivalent single-file store reports.
        """
        with self._read_tx() as conn:
            outcome_rows = conn.execute(
                "SELECT outcome, COUNT(*) AS n FROM projects GROUP BY outcome"
            ).fetchall()
            dialect_rows = conn.execute(
                "SELECT dialect, COUNT(*) AS n FROM projects GROUP BY dialect"
            ).fetchall()
            sums = conn.execute(
                "SELECT COUNT(*) AS measured,"
                " COALESCE(SUM(total_activity), 0) AS total_activity,"
                " COALESCE(SUM(n_commits), 0) AS n_commits,"
                " COALESCE(SUM(active_commits), 0) AS active_commits,"
                " COALESCE(SUM(expansion), 0) AS expansion,"
                " COALESCE(SUM(maintenance), 0) AS maintenance,"
                " COALESCE(SUM(sup_months), 0) AS sup_months_sum,"
                " COUNT(sup_months) AS sup_months_count"
                " FROM projects WHERE outcome IN (?, ?)",
                (Outcome.STUDIED.value, Outcome.RIGID.value),
            ).fetchone()
            heartbeat_total = conn.execute(
                "SELECT COUNT(*) AS n FROM heartbeat"
            ).fetchone()["n"]
            funnel = conn.execute(
                "SELECT sql_collection_repos, joined_and_filtered, lib_io_projects,"
                " omitted_by_paths FROM funnel WHERE id = 1"
            ).fetchone()
        return {
            "by_outcome": {row["outcome"]: row["n"] for row in outcome_rows},
            "by_dialect": {row["dialect"]: row["n"] for row in dialect_rows},
            "heartbeat_rows": heartbeat_total,
            "measured": dict(sums),
            "funnel": dict(funnel) if funnel is not None else None,
        }

    def aggregates(self) -> dict:
        """Corpus-level aggregates (the /stats payload)."""
        return aggregates_from_parts([self.aggregate_parts()])

    # -- full-fidelity reconstruction --------------------------------------

    def project_history(self, ref: int | str) -> ProjectHistory | None:
        """The full pickled :class:`ProjectHistory` (measured rows only)."""
        clause = "id = ?" if isinstance(ref, int) else "name = ?"
        with self._read_tx() as conn:
            row = conn.execute(
                f"SELECT payload FROM projects WHERE {clause}", (ref,)
            ).fetchone()
        if row is None or row["payload"] is None:
            return None
        return pickle.loads(row["payload"])

    def _histories(self, outcome: Outcome) -> list[ProjectHistory]:
        return [history for _, history in self.histories_with_ids(outcome)]

    def histories_with_ids(
        self, outcome: Outcome
    ) -> list[tuple[int, ProjectHistory]]:
        """``(id, history)`` pairs in ingest (id) order.

        The ids let a sharded store merge its shards' lists back into
        global ingest order before dropping them.
        """
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT id, payload FROM projects WHERE outcome = ? ORDER BY id",
                (outcome.value,),
            ).fetchall()
        return [
            (row["id"], pickle.loads(row["payload"])) for row in rows if row["payload"]
        ]

    def max_project_id(self) -> int:
        """The highest row id ever visible (0 for an empty store)."""
        with self._read_tx() as conn:
            return conn.execute(
                "SELECT COALESCE(MAX(id), 0) AS n FROM projects"
            ).fetchone()["n"]

    def funnel_report(self) -> FunnelReport:
        """Reconstruct the :class:`FunnelReport` of the ingested corpus.

        Rigid/studied lists come back in ingest order, so a store-backed
        export is byte-identical to the direct funnel export.
        """
        report = FunnelReport()
        with self._read_tx() as conn:
            funnel = conn.execute(
                "SELECT sql_collection_repos, joined_and_filtered, lib_io_projects,"
                " omitted_by_paths FROM funnel WHERE id = 1"
            ).fetchone()
            outcome_rows = conn.execute(
                "SELECT outcome, COUNT(*) AS n FROM projects GROUP BY outcome"
            ).fetchall()
        if funnel is not None:
            report.sql_collection_repos = funnel["sql_collection_repos"]
            report.joined_and_filtered = funnel["joined_and_filtered"]
            report.lib_io_projects = funnel["lib_io_projects"]
            report.omitted_by_paths = {
                MultiFileVerdict[name]: count
                for name, count in json.loads(funnel["omitted_by_paths"]).items()
            }
        counts = {row["outcome"]: row["n"] for row in outcome_rows}
        report.removed_zero_versions = counts.get(Outcome.ZERO_VERSIONS.value, 0)
        report.removed_no_create = counts.get(Outcome.NO_CREATE.value, 0)
        report.rigid = self._histories(Outcome.RIGID)
        report.studied = self._histories(Outcome.STUDIED)
        report.failures = self.failures()
        report.cloned_usable = report.rigid_count + report.studied_count
        return report

    # -- identity -----------------------------------------------------------

    def change_token(self) -> tuple[int, int]:
        """A cheap token that moves whenever the store's content may have.

        ``(write generation, data_version)``: the generation counts
        writes through this instance; sqlite's ``PRAGMA data_version``
        moves when any *other* connection — another thread's, or another
        process's — commits.  Equal tokens prove the cached content hash
        is still valid; the sharded store concatenates its shards'
        tokens the same way.
        """
        if self._memory:
            return (self._write_generation, 0)
        conn = self._connection()
        version = conn.execute("PRAGMA data_version").fetchone()[0]
        return (self._write_generation, version)

    def funnel_front(self) -> dict | None:
        """The funnel front-stage row as a plain dict (None if absent)."""
        with self._read_tx() as conn:
            row = conn.execute(
                "SELECT sql_collection_repos, joined_and_filtered, lib_io_projects,"
                " omitted_by_paths FROM funnel WHERE id = 1"
            ).fetchone()
        return dict(row) if row is not None else None

    def identity_rows(self) -> list[tuple[str, str, str, str]]:
        """``(name, history_hash, outcome, taxon)`` rows sorted by name.

        The raw material of :func:`compute_content_hash`; a sharded
        store merges its shards' rows before digesting.
        """
        with self._read_tx() as conn:
            rows = conn.execute(
                "SELECT name, history_hash, outcome, COALESCE(taxon, '') AS taxon"
                " FROM projects ORDER BY name"
            ).fetchall()
        return [
            (row["name"], row["history_hash"], row["outcome"], row["taxon"])
            for row in rows
        ]

    def content_hash(self) -> str:
        """A deterministic digest of the whole store's logical content.

        Derived from every project's history fingerprint plus the funnel
        counts — the serving layer's ETags revalidate against this.
        Cached per thread against :meth:`change_token`, so recomputation
        happens only when the store actually changed (including changes
        committed by *other processes*, via ``PRAGMA data_version``).
        """
        if self._memory:
            if self._etag is None:
                self._etag = compute_content_hash(
                    self.funnel_front(), self.identity_rows()
                )
            return self._etag
        token = self.change_token()
        cached = getattr(self._local, "etag_cache", None)
        if cached is not None and cached[0] == token:
            return cached[1]
        with self._read_tx() as conn:
            # Read the token *inside* the snapshot so the cached pair is
            # consistent: a commit racing this read moves the next token.
            version = conn.execute("PRAGMA data_version").fetchone()[0]
            generation = self._write_generation
            funnel = conn.execute(
                "SELECT sql_collection_repos, joined_and_filtered, lib_io_projects,"
                " omitted_by_paths FROM funnel WHERE id = 1"
            ).fetchone()
            rows = conn.execute(
                "SELECT name, history_hash, outcome, COALESCE(taxon, '') AS taxon"
                " FROM projects ORDER BY name"
            ).fetchall()
        etag = compute_content_hash(
            dict(funnel) if funnel is not None else None,
            [
                (row["name"], row["history_hash"], row["outcome"], row["taxon"])
                for row in rows
            ],
        )
        self._local.etag_cache = ((generation, version), etag)
        return etag
