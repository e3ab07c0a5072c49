"""Corpus sharding: one logical store spread across K sqlite files.

A single sqlite file serializes every write and couples the whole
corpus's cache locality to one B-tree.  :class:`ShardedCorpusStore`
partitions projects across K :class:`~repro.store.store.CorpusStore`
files by a *stable* hash of the project name (sha256-based — Python's
``hash()`` is salted per process and would reshuffle the corpus on
every run) and presents the exact :class:`CorpusStore` query API on
top, so ingest, serving, load generation and reporting cannot tell the
difference:

- **Scatter-gather reads.**  Filtered/paginated queries fan out to
  every shard (each already ordered by id), merge-sort on id, and slice
  the global window; aggregates merge *raw sums* (never pre-rounded
  averages) via :func:`~repro.store.store.aggregates_from_parts`, so
  the numbers equal the single-file store's to the last digit.
- **One content hash.**  Identity rows from all shards merge (sorted
  by name) into :func:`~repro.store.store.compute_content_hash` — the
  same digest the equivalent unsharded store derives.  ETag/304,
  degraded serving and the response cache therefore hold unchanged.
- **AUTOINCREMENT-faithful ids.**  Shard 0 (the *coordinator*, which
  also owns the funnel row and ingest-checkpoint meta keys) carries a
  persistent id high-water mark; new projects draw globally unique,
  monotonically increasing ids in persist order and deletions never
  recycle them — exactly what a single AUTOINCREMENT table would do,
  which keeps pagination order and payload bytes identical across
  shard counts.
- **Per-shard circuit breakers.**  Every shard read runs behind its
  own :class:`~repro.resilience.policy.CircuitBreaker`; a corrupted or
  unreadable shard file trips only its breaker and surfaces as
  :class:`~repro.resilience.policy.CircuitOpen`, which the serving
  layer's degraded path (stale snapshot / honest 503) already handles.

:func:`resolve_store` is the front door: given a base path it opens the
sharded store when shard files exist, the plain one otherwise.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import threading
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.taxa import Taxon
from repro.mining.funnel import FunnelReport
from repro.mining.path_filters import MultiFileVerdict
from repro.pipeline.stages import Outcome, ProjectContext, ProjectFailure
from repro.resilience.policy import CircuitBreaker, CircuitOpen
from repro.store.store import (
    AdviceConflict,
    AdviceRecord,
    CorpusStore,
    FailurePage,
    MetricRange,
    QueryPage,
    StoredProject,
    StoreError,
    aggregates_from_parts,
    compute_content_hash,
    merge_dialect_profiles,
)

#: Shard files hang off the base path: ``corpus.sqlite`` becomes
#: ``corpus.sqlite.shard-00-of-04`` … ``corpus.sqlite.shard-03-of-04``.
SHARD_SUFFIX = ".shard-{index:02d}-of-{count:02d}"

#: Meta key (shard 0) holding the next project id to hand out — the
#: sharded equivalent of sqlite's ``sqlite_sequence`` high-water mark.
NEXT_ID_KEY = "shard_next_id"

#: Meta key (shard 0) holding the next *advice* id: the write-path
#: ledger draws globally unique, monotonic ids from the coordinator so
#: an advice id is stable whichever shard the project hashes to.
ADVICE_NEXT_ID_KEY = "shard_next_advice_id"

#: Meta keys each shard carries to describe (and validate) itself.
SHARD_INDEX_KEY = "shard_index"
SHARD_COUNT_KEY = "shard_count"


def shard_index(name: str, count: int) -> int:
    """The shard owning *name*: stable across processes and runs."""
    digest = hashlib.sha256(name.encode("utf-8", errors="replace")).digest()
    return int.from_bytes(digest[:8], "big") % count


def shard_paths(base: str | Path, count: int) -> list[Path]:
    """The K shard file paths derived from one base path."""
    base = str(base)
    return [
        Path(base + SHARD_SUFFIX.format(index=index, count=count))
        for index in range(count)
    ]


def detect_shard_count(base: str | Path) -> int | None:
    """How many shards live at *base* (None when it is not sharded)."""
    base_path = Path(str(base))
    pattern = f"{base_path.name}.shard-00-of-*"
    parent = base_path.parent if str(base_path.parent) else Path(".")
    try:
        matches = sorted(parent.glob(pattern))
    except OSError:
        return None
    for match in matches:
        tail = match.name.rsplit("-of-", 1)[-1]
        if tail.isdigit() and int(tail) > 0:
            return int(tail)
    return None


def resolve_store(
    path: str | Path, shards: int | None = None, registry=None
) -> "CorpusStore | ShardedCorpusStore":
    """Open whatever lives at *path* — sharded store if shard files exist.

    *shards* forces a shard count (creating the files when absent);
    ``None`` auto-detects.  Plain :class:`CorpusStore` otherwise, so
    every CLI surface (serve, loadgen, report, export) can take one
    ``--db`` argument and not care how the corpus is laid out.
    """
    if shards is not None and shards > 1:
        return ShardedCorpusStore(path, shards=shards, registry=registry)
    if str(path) != ":memory:" and detect_shard_count(path) is not None:
        return ShardedCorpusStore(path, registry=registry)
    return CorpusStore(path)


class ShardedCorpusStore:
    """K cooperating :class:`CorpusStore` files behind one query API.

    ``path`` is the *base* path; the actual sqlite files carry
    ``.shard-II-of-KK`` suffixes next to it.  Shard 0 is the
    coordinator: funnel counts, meta keys (ingest checkpoints) and the
    global id high-water mark live there.  Reads scatter to every
    shard behind per-shard circuit breakers and gather deterministically;
    writes route by the stable name hash.  Use as a context manager or
    call :meth:`close` when done.
    """

    def __init__(
        self,
        path: str | Path,
        shards: int | None = None,
        registry=None,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
    ) -> None:
        self.path = str(path)
        if self.path == ":memory:":
            raise StoreError("a sharded store needs real files, not :memory:")
        detected = detect_shard_count(self.path)
        if shards is None:
            if detected is None:
                raise StoreError(f"no shard files found for {self.path}")
            shards = detected
        elif detected is not None and detected != shards:
            raise StoreError(
                f"{self.path} already has {detected} shards, asked for {shards}"
            )
        if shards < 2:
            raise StoreError(f"shard count must be >= 2, got {shards}")
        self.shard_count = shards
        self.shard_files = shard_paths(self.path, shards)
        self._shards = [CorpusStore(file) for file in self.shard_files]
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._breakers = [
            CircuitBreaker(
                name=f"shard-{index:02d}",
                failure_threshold=failure_threshold,
                reset_timeout=reset_timeout,
                registry=registry,
            )
            for index in range(shards)
        ]
        for index, shard in enumerate(self._shards):
            stamped = shard.get_meta(SHARD_INDEX_KEY)
            if stamped is None:
                shard.set_meta(SHARD_INDEX_KEY, str(index))
                shard.set_meta(SHARD_COUNT_KEY, str(shards))
            elif int(stamped) != index:
                raise StoreError(
                    f"{self.shard_files[index]} claims shard {stamped},"
                    f" expected {index}"
                )

    # -- plumbing -----------------------------------------------------------

    def close(self) -> None:
        for shard in self._shards:
            shard.close()
        self._local = threading.local()

    def __enter__(self) -> "ShardedCorpusStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read(self, index: int, call):
        """One shard read behind that shard's circuit breaker.

        :class:`StoreError` passes through untouched (it is a request
        problem, not a shard problem); anything else — a corrupt file,
        a vanished mount — counts against the breaker, and an open
        breaker short-circuits into :class:`CircuitOpen`, which the
        serving layer's degrade path absorbs instead of mapping to 400.
        """
        breaker = self._breakers[index]
        if not breaker.allow():
            raise CircuitOpen(f"shard {index} circuit breaker is open")
        try:
            result = call()
        except StoreError:
            raise
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def _scatter(self, call) -> list:
        """Run one read against every shard, in shard order."""
        return [
            self._read(index, lambda shard=shard: call(shard))
            for index, shard in enumerate(self._shards)
        ]

    def _shard_for(self, name: str) -> tuple[int, CorpusStore]:
        index = shard_index(name, self.shard_count)
        return index, self._shards[index]

    @property
    def coordinator(self) -> CorpusStore:
        return self._shards[0]

    # -- writes (the ingest side) -----------------------------------------

    def record_funnel_front(
        self,
        sql_collection_repos: int,
        joined_and_filtered: int,
        lib_io_projects: int,
        omitted_by_paths: dict[MultiFileVerdict, int],
    ) -> None:
        self.coordinator.record_funnel_front(
            sql_collection_repos, joined_and_filtered, lib_io_projects,
            omitted_by_paths,
        )

    def get_meta(self, key: str, default: str | None = None) -> str | None:
        return self.coordinator.get_meta(key, default)

    def set_meta(self, key: str, value: str) -> None:
        self.coordinator.set_meta(key, value)

    def delete_meta(self, key: str) -> None:
        self.coordinator.delete_meta(key)

    def fingerprints(self, names: Iterable[str] | None = None) -> dict[str, str]:
        wanted = list(names) if names is not None else None
        merged: dict[str, str] = {}
        for part in self._scatter(lambda shard: shard.fingerprints(wanted)):
            merged.update(part)
        return merged

    def _peek_next_id(self) -> int:
        value = self.coordinator.get_meta(NEXT_ID_KEY)
        if value is not None:
            return int(value)
        return max(shard.max_project_id() for shard in self._shards) + 1

    def persist_context(self, ctx: ProjectContext, history_hash: str) -> None:
        """Route one measured context to its shard.

        A *new* name draws the next global id; the high-water mark is
        committed only after the shard write succeeds, so a failed
        persist retried by ingest reuses the same id — mirroring how a
        rolled-back AUTOINCREMENT insert does not burn one.
        """
        name = ctx.task.repo_name
        _, shard = self._shard_for(name)
        with self._id_lock:
            if shard.get_project(name) is not None:
                shard.persist_context(ctx, history_hash)
                return
            project_id = self._peek_next_id()
            shard.persist_context(ctx, history_hash, project_id=project_id)
            self.coordinator.set_meta(NEXT_ID_KEY, str(project_id + 1))

    def persist_batch(
        self,
        items: Sequence[tuple[ProjectContext, str]],
        ids: Sequence[int | None] | None = None,
    ) -> None:
        """Route one chunk of measured contexts to their shards, batched.

        New names draw a contiguous block of global ids in item order
        (identical to what item-by-item :meth:`persist_context` would
        assign), then each shard receives its sub-batch through
        :meth:`CorpusStore.persist_batch` — one transaction per shard
        per chunk.  The high-water mark commits *before* the shard
        writes: a failed chunk may burn ids (like an AUTOINCREMENT
        table after a crashed bulk insert), but a concurrent or resumed
        writer can never collide with rows the failed chunk already
        committed.
        """
        if not items:
            return
        if ids is not None and any(forced is not None for forced in ids):
            raise StoreError("the sharded store allocates its own global ids")
        with self._id_lock:
            stored = self.fingerprints(ctx.task.repo_name for ctx, _ in items)
            per_shard: dict[int, tuple[list, list]] = {}
            next_id = self._peek_next_id()
            allocated = next_id
            for ctx, history_hash in items:
                name = ctx.task.repo_name
                index = shard_index(name, self.shard_count)
                forced = None
                if name not in stored:
                    forced = allocated
                    allocated += 1
                bucket = per_shard.setdefault(index, ([], []))
                bucket[0].append((ctx, history_hash))
                bucket[1].append(forced)
            if allocated != next_id:
                self.coordinator.set_meta(NEXT_ID_KEY, str(allocated))
            for index in sorted(per_shard):
                batch, forced_ids = per_shard[index]
                self._shards[index].persist_batch(batch, ids=forced_ids)

    # -- advice (the write path) -------------------------------------------

    def lookup_advice(
        self, project: str, idempotency_key: str
    ) -> AdviceRecord | None:
        index, shard = self._shard_for(project)
        return self._read(
            index, lambda: shard.lookup_advice(project, idempotency_key)
        )

    def record_advice(
        self,
        project_id: int,
        project: str,
        idempotency_key: str,
        body_sha256: str,
        build_response,
        advice_id: int | None = None,
    ) -> tuple[AdviceRecord, bool]:
        """Route one advice write to its project's shard, with a global id.

        Ids come from an atomic coordinator meta sequence
        (:data:`ADVICE_NEXT_ID_KEY`), committed *before* the shard
        write: a crashed write may burn an id — exactly like a rolled
        back AUTOINCREMENT insert after the sequence bumped — but two
        workers (threads or cluster processes) can never mint the same
        id.  A key replay loses the id it drew and returns the stored
        row instead, byte-identical whichever worker answers.
        """
        if advice_id is not None:
            raise StoreError("the sharded store allocates its own advice ids")
        index, shard = self._shard_for(project)
        existing = self._read(
            index, lambda: shard.lookup_advice(project, idempotency_key)
        )
        if existing is not None:
            if existing.body_sha256 != body_sha256:
                raise AdviceConflict(
                    f"idempotency key {idempotency_key!r} was already used"
                    f" with a different request body for {project!r}"
                )
            return existing, True
        with self._id_lock:
            allocated = self.coordinator.allocate_meta_sequence(
                ADVICE_NEXT_ID_KEY,
                default_next=max(
                    part.max_advice_id() for part in self._shards
                ) + 1,
            )
        return shard.record_advice(
            project_id, project, idempotency_key, body_sha256,
            build_response, advice_id=allocated,
        )

    def advice_records(self, project: str) -> list[AdviceRecord]:
        index, shard = self._shard_for(project)
        return self._read(index, lambda: shard.advice_records(project))

    def advice_count(self) -> int:
        return sum(self._scatter(lambda shard: shard.advice_count()))

    def max_advice_id(self) -> int:
        return max(self._scatter(lambda shard: shard.max_advice_id()))

    def prune_missing(self, keep: Iterable[str]) -> int:
        names = set(keep)
        return sum(shard.prune_missing(names) for shard in self._shards)

    def analyze(self) -> None:
        """Refresh planner statistics on every shard."""
        for shard in self._shards:
            shard.analyze()

    # -- typed queries (the read side) -------------------------------------

    def project_count(self) -> int:
        return sum(self._scatter(lambda shard: shard.project_count()))

    def get_project(self, ref: int | str) -> StoredProject | None:
        if isinstance(ref, str):
            index, shard = self._shard_for(ref)
            return self._read(index, lambda: shard.get_project(ref))
        for index, shard in enumerate(self._shards):
            found = self._read(index, lambda shard=shard: shard.get_project(ref))
            if found is not None:
                return found
        return None

    def _locate(self, ref: int | str) -> tuple[int, CorpusStore] | None:
        """Which shard holds *ref*?  (name: by hash; id: by probing)."""
        if isinstance(ref, str):
            return self._shard_for(ref)
        for index, shard in enumerate(self._shards):
            if self._read(index, lambda shard=shard: shard.get_project(ref)) is not None:
                return index, shard
        return None

    def query_projects(
        self,
        taxon: Taxon | str | None = None,
        outcome: Outcome | str | None = None,
        ranges: Sequence[MetricRange] = (),
        limit: int | None = None,
        cursor: int | None = None,
        dialect: str | None = None,
    ) -> QueryPage:
        """Scatter-gather keyset pagination in global (id) order.

        Each shard returns its own first matches past the cursor,
        already id-ordered; a merge-sort on id then takes the global
        page — identical rows, order, totals *and* ``next_cursor`` to
        the single-file store answering the same query.  The global
        cursor works unchanged per shard because ids are globally
        unique and monotonic.
        """
        if limit is not None and limit < 1:
            raise StoreError("limit must be >= 1")
        if cursor is not None and cursor < 0:
            raise StoreError("cursor must be >= 0")
        # One row beyond the page signals "more rows exist"; each shard
        # must over-fetch by that row too.
        fetch = None if limit is None else limit + 1
        pages = self._scatter(
            lambda shard: shard.query_projects(
                taxon=taxon, outcome=outcome, ranges=ranges, limit=fetch,
                cursor=cursor, dialect=dialect,
            )
        )
        merged = heapq.merge(
            *(page.projects for page in pages), key=lambda stored: stored.id
        )
        window = tuple(islice(merged, fetch))
        more = limit is not None and len(window) > limit
        if more:
            window = window[:limit]
        total = sum(page.total for page in pages)
        return QueryPage(
            total=total,
            limit=limit if limit is not None else total,
            projects=window,
            next_cursor=window[-1].id if more else None,
        )

    def by_taxon(self, taxon: Taxon | str) -> tuple[StoredProject, ...]:
        return self.query_projects(taxon=taxon).projects

    def heartbeat_rows(self, ref: int | str) -> list[dict] | None:
        located = self._locate(ref)
        if located is None:
            return None
        index, shard = located
        return self._read(index, lambda: shard.heartbeat_rows(ref))

    def version_rows(self, ref: int | str) -> list[dict] | None:
        located = self._locate(ref)
        if located is None:
            return None
        index, shard = located
        return self._read(index, lambda: shard.version_rows(ref))

    def failures(self) -> list[ProjectFailure]:
        return list(self.query_failures().failures)

    def failure_count(self) -> int:
        return sum(self._scatter(lambda shard: shard.failure_count()))

    def query_failures(
        self, cursor: str | None = None, limit: int | None = None
    ) -> FailurePage:
        """Keyset failures page, merged by project name across shards."""
        if limit is not None and limit < 1:
            raise StoreError("limit must be >= 1")
        fetch = None if limit is None else limit + 1
        parts = self._scatter(
            lambda shard: shard.query_failures(cursor=cursor, limit=fetch)
        )
        merged = heapq.merge(
            *(part.failures for part in parts), key=lambda failure: failure.project
        )
        rows = list(islice(merged, fetch))
        more = limit is not None and len(rows) > limit
        if more:
            rows = rows[:limit]
        return FailurePage(
            failures=tuple(rows),
            next_cursor=rows[-1].project if more and rows else None,
        )

    def project_ids(self) -> list[int]:
        """Every project id in global ingest order, merged across shards."""
        parts = self._scatter(lambda shard: shard.project_ids())
        return list(heapq.merge(*parts))

    def taxa_summary(self) -> dict[str, dict]:
        summaries = self._scatter(lambda shard: shard.taxa_summary())
        counts = {
            taxon: sum(summary[taxon]["count"] for summary in summaries)
            for taxon in summaries[0]
        }
        studied = sum(counts.values())
        return {
            taxon: {
                "count": count,
                "share_of_studied": (count / studied) if studied else 0.0,
            }
            for taxon, count in counts.items()
        }

    def dialects(self) -> list[str]:
        """Distinct dialects across every shard, sorted."""
        merged: set[str] = set()
        for part in self._scatter(lambda shard: shard.dialects()):
            merged.update(part)
        return sorted(merged)

    def taxa_by_dialect(self) -> dict[str, dict[str, int]]:
        """Per-dialect studied taxon counts, summed across shards."""
        merged: dict[str, dict[str, int]] = {}
        for part in self._scatter(lambda shard: shard.taxa_by_dialect()):
            for dialect, taxa in part.items():
                into = merged.setdefault(dialect, {})
                for taxon, n in taxa.items():
                    into[taxon] = into.get(taxon, 0) + n
        return merged

    def dialect_profiles(self) -> dict[str, dict]:
        """Per-dialect profiles merged element-wise across shards."""
        return merge_dialect_profiles(
            self._scatter(lambda shard: shard.dialect_profiles())
        )

    def aggregates(self) -> dict:
        return aggregates_from_parts(
            self._scatter(lambda shard: shard.aggregate_parts())
        )

    # -- full-fidelity reconstruction --------------------------------------

    def project_history(self, ref: int | str):
        located = self._locate(ref)
        if located is None:
            return None
        index, shard = located
        return self._read(index, lambda: shard.project_history(ref))

    def funnel_report(self) -> FunnelReport:
        """Reconstruct the corpus funnel report across every shard.

        Histories merge by stored id, so rigid/studied lists come back
        in global ingest order — a sharded-store export stays
        byte-identical to the unsharded one.
        """
        report = FunnelReport()
        funnel = self._read(0, self.coordinator.funnel_front)
        if funnel is not None:
            report.sql_collection_repos = funnel["sql_collection_repos"]
            report.joined_and_filtered = funnel["joined_and_filtered"]
            report.lib_io_projects = funnel["lib_io_projects"]
            report.omitted_by_paths = {
                MultiFileVerdict[name]: count
                for name, count in json.loads(funnel["omitted_by_paths"]).items()
            }
        by_outcome: dict[str, int] = {}
        for part in self._scatter(lambda shard: shard.aggregate_parts()):
            for outcome, n in part["by_outcome"].items():
                by_outcome[outcome] = by_outcome.get(outcome, 0) + n
        report.removed_zero_versions = by_outcome.get(Outcome.ZERO_VERSIONS.value, 0)
        report.removed_no_create = by_outcome.get(Outcome.NO_CREATE.value, 0)
        report.rigid = self._merged_histories(Outcome.RIGID)
        report.studied = self._merged_histories(Outcome.STUDIED)
        report.failures = self.failures()
        report.cloned_usable = report.rigid_count + report.studied_count
        return report

    def _merged_histories(self, outcome: Outcome) -> list:
        parts = self._scatter(lambda shard: shard.histories_with_ids(outcome))
        merged = heapq.merge(*parts, key=lambda pair: pair[0])
        return [history for _, history in merged]

    # -- identity -----------------------------------------------------------

    def change_token(self) -> tuple:
        """Concatenation of every shard's change token."""
        return tuple(shard.change_token() for shard in self._shards)

    def content_hash(self) -> str:
        """The combined digest — equal to the unsharded store's.

        Identity rows from all shards merge back into one name-sorted
        sequence feeding :func:`compute_content_hash`, so the serving
        layer's ETag/304, response-cache and degraded-serving contracts
        hold unchanged over a sharded corpus.  Cached per thread against
        :meth:`change_token` (which sees other processes' commits).
        """
        token = self.change_token()
        cached = getattr(self._local, "etag_cache", None)
        if cached is not None and cached[0] == token:
            return cached[1]
        funnel = self._read(0, self.coordinator.funnel_front)
        parts = self._scatter(lambda shard: shard.identity_rows())
        rows = list(heapq.merge(*parts, key=lambda row: row[0]))
        etag = compute_content_hash(funnel, rows)
        self._local.etag_cache = (token, etag)
        return etag
