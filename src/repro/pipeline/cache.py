"""Content-hash memoization of the pipeline's expensive pure functions.

Parsing a DDL blob and diffing two schema versions are pure functions of
their inputs, so both memoize safely under content hashes:

- ``sha256(blob) -> Schema`` for :func:`repro.schema.build_schema`;
- ``sha256(blob) -> bool`` for the has-CREATE-TABLE collection scan;
- ``(schema key, schema key) -> TransitionDiff`` for
  :func:`repro.core.diff.diff_schemas`, where a schema's key is the
  hash of its canonical form (stable across processes).

Identical blobs are rampant in real histories — a commit touching the
DDL file without changing it, vendor files copied across projects — so
the cache turns much of the parse into dictionary lookups.  Below the blob
level, consecutive versions of one history repeat most of their
statements: the cache also owns the lenient parse's statement memo
(:data:`~repro.sqlddl.parser.StatementMemo`), so a statement text is
lexed and parsed once per cache, whichever blob it comes back in, and
the replay's table memo (:data:`~repro.schema.builder.TableMemo`), so an
unchanged ``CREATE TABLE`` is one shared :class:`~repro.schema.model.Table`
in every version.  A schema's key is joined from per-table parts, each
computed once per shared table, and the diff skips a shared table.

A cache lives in memory for as long as its owner keeps it: a pipeline
builds one per run, ingest one per chunk, and each worker process one
per slice.  A caller may hand one cache to several runs; it then serves
the projects those runs measure in the calling thread, and a warm re-run
there performs zero ``build_schema`` calls, which the
:class:`CacheCounters` expose for verification.  All methods are
thread-safe (the memos take plain dict reads and writes of immutable
values; a lost update only repeats work).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable

from repro.core.diff import TransitionDiff, diff_schemas
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace
from repro.schema.builder import TableMemo, build_schema, parse_ddl
from repro.schema.model import Schema, Table, canonical_table
from repro.sqlddl.ast import CreateTable
from repro.sqlddl.parser import StatementMemo

#: The cached functions the counters are split by.
CACHE_KINDS = ("schema", "diff", "scan")


class CacheCounters:
    """Hit/miss counters, split per cached function.

    Every count lives in a :class:`~repro.obs.metrics.MetricsRegistry`
    (``repro_cache_hits_total{kind=...}`` and friends); the classic
    attribute names (``schema_hits`` etc.) are read-only views over the
    registry, so one ``registry.snapshot()`` carries the same truth the
    pipeline stats and the ``--stats`` flag report.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = {
            kind: self.registry.counter("repro_cache_hits_total", kind=kind)
            for kind in CACHE_KINDS
        }
        self._misses = {
            kind: self.registry.counter("repro_cache_misses_total", kind=kind)
            for kind in CACHE_KINDS
        }

    def hit(self, kind: str) -> None:
        self._hits[kind].inc()

    def miss(self, kind: str) -> None:
        self._misses[kind].inc()

    # -- the classic read API, now registry-backed ------------------------

    @property
    def schema_hits(self) -> int:
        return self._hits["schema"].value

    @property
    def schema_misses(self) -> int:
        return self._misses["schema"].value

    @property
    def diff_hits(self) -> int:
        return self._hits["diff"].value

    @property
    def diff_misses(self) -> int:
        return self._misses["diff"].value

    @property
    def scan_hits(self) -> int:
        return self._hits["scan"].value

    @property
    def scan_misses(self) -> int:
        return self._misses["scan"].value

    @property
    def build_schema_calls(self) -> int:
        """How many times the cache actually invoked ``build_schema``."""
        return self.schema_misses

    def payload(self) -> dict:
        return {
            "schema_hits": self.schema_hits,
            "schema_misses": self.schema_misses,
            "diff_hits": self.diff_hits,
            "diff_misses": self.diff_misses,
            "scan_hits": self.scan_hits,
            "scan_misses": self.scan_misses,
        }


def text_key(text: str, lenient: bool = True) -> str:
    """Content hash of one DDL blob (plus the parse mode)."""
    digest = hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()
    return digest if lenient else f"strict-{digest}"


def _dialect_key(key: str, dialect: str) -> str:
    """*key* qualified by *dialect*, unless it is the default (see
    :meth:`SchemaCache.schema_for`)."""
    return f"{dialect}-{key}" if dialect and dialect != "mysql" else key


def schema_key(schema: Schema) -> str:
    """Content hash of a parsed schema, stable across processes.

    :class:`SchemaCache` keys its diffs by the same bytes, computed from
    per-table parts.
    """
    return hashlib.sha256(repr(schema.canonical()).encode()).hexdigest()


class SchemaCache:
    """Memoizes parsing, collection scans, and diffing by content hash.

    Every memo lives as long as the cache: the schema, scan and diff
    maps, the statement memo that :meth:`schema_for` and
    :meth:`has_create_table` share, the table memo and the per-table key
    parts.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._schemas: dict[str, Schema] = {}
        self._statements: StatementMemo = {}
        self._tables: TableMemo = {}
        # id(table) -> (table, repr of its canonical part); holding the
        # table keeps its id valid for the memo's lifetime.
        self._table_parts: dict[int, tuple[Table, str]] = {}
        self._scans: dict[str, bool] = {}
        self._diffs: dict[tuple[str, str], TransitionDiff] = {}
        self._schema_keys: dict[int, str] = {}  # id(schema) -> canonical key
        self.counters = CacheCounters(registry)

    # -- parsing ----------------------------------------------------------

    def schema_for(
        self, text: str, lenient: bool = True, dialect: str = "mysql"
    ) -> Schema:
        """The parsed schema of *text*, from memory or a parse.

        ``dialect`` routes the parse through the named frontend; the
        cache key is dialect-qualified for every non-default dialect, so
        a mixed corpus can never serve a SQLite-affinity schema to a
        MySQL task (or vice versa).
        """
        key = _dialect_key(text_key(text, lenient), dialect)
        with self._lock:
            schema = self._schemas.get(key)
            if schema is not None:
                self.counters.hit("schema")
                return schema
        # The span makes warm runs provable from the trace alone:
        # zero `build_schema` spans == zero parses happened.
        with trace("build_schema", key=key[:12]):
            schema = build_schema(
                text,
                lenient=lenient,
                dialect=dialect,
                memo=self._statements,
                table_memo=self._tables,
            )
        canonical = self._canonical_key(schema)
        with self._lock:
            # Another worker may have raced us; keep the first object so
            # identical blobs share one Schema instance.
            schema = self._schemas.setdefault(key, schema)
            self._schema_keys[id(schema)] = canonical
            self.counters.miss("schema")
        return schema

    def has_create_table(self, text: str, dialect: str = "mysql") -> bool:
        """Memoized collection-stage scan: does *text* declare a table
        when parsed through *dialect*'s frontend, as :meth:`schema_for`
        parses it?  Keys are dialect-qualified by the same rule."""
        if "create" not in text.lower():
            return False
        key = _dialect_key(text_key(text), dialect)
        with self._lock:
            if key in self._scans:
                self.counters.hit("scan")
                return self._scans[key]
        with trace("scan_create_table", key=key[:12]):
            verdict = any(
                isinstance(s, CreateTable)
                for s in parse_ddl(text, dialect, memo=self._statements)
            )
        with self._lock:
            self._scans[key] = verdict
            self.counters.miss("scan")
        return verdict

    # -- diffing ----------------------------------------------------------

    def _canonical_key(self, schema: Schema) -> str:
        """:func:`schema_key` of *schema*, byte for byte, joined from the
        repr of each table's canonical part, computed once per table."""
        parts = []
        for table in sorted(schema.tables, key=lambda t: t.key):
            entry = self._table_parts.get(id(table))
            if entry is None:
                entry = self._table_parts[id(table)] = (table, repr(canonical_table(table)))
            parts.append(entry[1])
        # The repr of the tuple of parts: a 1-tuple keeps its comma.
        joined = f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
        return hashlib.sha256(joined.encode()).hexdigest()

    def _key_of(self, schema: Schema) -> str:
        with self._lock:
            cached = self._schema_keys.get(id(schema))
            if cached is not None:
                return cached
        key = self._canonical_key(schema)
        with self._lock:
            # Hold a reference so the id stays valid for the memo's lifetime.
            self._schemas.setdefault(f"canon-{key}", schema)
            self._schema_keys[id(schema)] = key
        return key

    def diff_for(self, old: Schema, new: Schema) -> TransitionDiff:
        """The transition diff of two schema versions, memoized."""
        pair = (self._key_of(old), self._key_of(new))
        with self._lock:
            diff = self._diffs.get(pair)
            if diff is not None:
                self.counters.hit("diff")
                return diff
        with trace("diff_schemas"):
            diff = diff_schemas(old, new)
        with self._lock:
            self._diffs.setdefault(pair, diff)
            self.counters.miss("diff")
        return diff

    @property
    def differ(self) -> Callable[[Schema, Schema], TransitionDiff]:
        """A drop-in for ``diff_schemas`` that consults this cache."""
        return self.diff_for

    @property
    def schema_factory(self) -> Callable[..., Schema]:
        """A drop-in for ``build_schema`` that consults this cache."""
        return self.schema_for
