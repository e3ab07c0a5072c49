"""Content-hash memoization of the pipeline's expensive pure functions.

Parsing a DDL blob and diffing two schema versions are pure functions of
their inputs, so both memoize safely under content hashes:

- ``sha256(blob) -> Schema`` for :func:`repro.schema.build_schema`;
- ``sha256(blob) -> bool`` for the has-CREATE-TABLE collection scan;
- ``(schema key, schema key) -> TransitionDiff`` for
  :func:`repro.core.diff.diff_schemas`, where a schema's key is the
  hash of its canonical form (stable across processes).

Identical blobs are rampant in real histories — a commit touching the
DDL file without changing it, vendor files copied across projects, and
whole corpora re-run after an unrelated code change — so the cache turns
the dominant cost of a re-run into dictionary lookups.  Below the blob
level, consecutive versions of one history repeat most of their
statements: the cache also owns the lenient parse's statement memo
(:data:`~repro.sqlddl.parser.StatementMemo`), so a statement text is
lexed and parsed once per cache, whichever blob it comes back in, and
the replay's table memo (:data:`~repro.schema.builder.TableMemo`), so an
unchanged ``CREATE TABLE`` is one shared :class:`~repro.schema.model.Table`
in every version.  A schema's key is joined from per-table parts, each
computed once per shared table, and the diff skips a shared table.

An optional on-disk layer (``cache_dir``) persists both maps as pickles
keyed by content hash; a warm re-run of the same corpus then performs
zero ``build_schema`` calls, which the :class:`CacheCounters` expose for
verification.  All methods are thread-safe: the parallel pipeline shares
one cache across workers (the memos take plain dict reads and writes
of immutable values; a lost update only repeats work).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from pathlib import Path
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
    """Hit/miss counters, split per cached function and per layer.

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
        self._disk_hits = {
            kind: self.registry.counter("repro_cache_disk_hits_total", kind=kind)
            for kind in ("schema", "diff")
        }

    def hit(self, kind: str, disk: bool = False) -> None:
        self._hits[kind].inc()
        if disk:
            self._disk_hits[kind].inc()

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
    def schema_disk_hits(self) -> int:
        """Subset of ``schema_hits`` served from disk."""
        return self._disk_hits["schema"].value

    @property
    def diff_hits(self) -> int:
        return self._hits["diff"].value

    @property
    def diff_misses(self) -> int:
        return self._misses["diff"].value

    @property
    def diff_disk_hits(self) -> int:
        return self._disk_hits["diff"].value

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
            "schema_disk_hits": self.schema_disk_hits,
            "diff_hits": self.diff_hits,
            "diff_misses": self.diff_misses,
            "diff_disk_hits": self.diff_disk_hits,
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

    On-disk diff caches are keyed by it, so its bytes must not change;
    :class:`SchemaCache` computes the same key from per-table parts.
    """
    return hashlib.sha256(repr(schema.canonical()).encode()).hexdigest()


class SchemaCache:
    """Memoizes parsing, collection scans, and diffing by content hash.

    With ``cache_dir`` set, every miss is also persisted to disk
    (``<dir>/schemas/<key>.pkl`` and ``<dir>/diffs/<key>.pkl``) and
    future processes warm-start from there.  The statement memo that
    :meth:`schema_for` and :meth:`has_create_table` share, the table
    memo and the per-table key parts live as long as the cache (one
    funnel run, one ingest worker slice) and never touch disk.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
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
        self._dir = Path(cache_dir) if cache_dir is not None else None
        if self._dir is not None:
            (self._dir / "schemas").mkdir(parents=True, exist_ok=True)
            (self._dir / "diffs").mkdir(parents=True, exist_ok=True)
            (self._dir / "scans").mkdir(parents=True, exist_ok=True)

    # -- parsing ----------------------------------------------------------

    def schema_for(
        self, text: str, lenient: bool = True, dialect: str = "mysql"
    ) -> Schema:
        """The parsed schema of *text*, from memory, disk, or a parse.

        ``dialect`` routes the parse through the named frontend; the
        cache key is dialect-qualified for every non-default dialect, so
        a mixed corpus can never serve a SQLite-affinity schema to a
        MySQL task (or vice versa).  MySQL keys keep their historical
        unqualified form — warm on-disk caches stay warm.
        """
        key = _dialect_key(text_key(text, lenient), dialect)
        with self._lock:
            schema = self._schemas.get(key)
            if schema is not None:
                self.counters.hit("schema")
                return schema
        schema = self._load_pickle("schemas", key)
        if schema is None:
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
            self._store_pickle("schemas", key, schema)
            disk_hit = False
        else:
            disk_hit = True
        canonical = self._canonical_key(schema)
        with self._lock:
            # Another worker may have raced us; keep the first object so
            # identical blobs share one Schema instance.
            schema = self._schemas.setdefault(key, schema)
            self._schema_keys[id(schema)] = canonical
            if disk_hit:
                self.counters.hit("schema", disk=True)
            else:
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
        verdict = self._load_pickle("scans", key)
        disk_hit = verdict is not None
        if not disk_hit:
            with trace("scan_create_table", key=key[:12]):
                verdict = any(
                    isinstance(s, CreateTable)
                    for s in parse_ddl(text, dialect, memo=self._statements)
                )
            self._store_pickle("scans", key, verdict)
        with self._lock:
            self._scans[key] = verdict
            if disk_hit:
                self.counters.hit("scan")
            else:
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
        diff = self._load_pickle("diffs", f"{pair[0][:32]}__{pair[1][:32]}")
        if diff is None:
            with trace("diff_schemas"):
                diff = diff_schemas(old, new)
            self._store_pickle("diffs", f"{pair[0][:32]}__{pair[1][:32]}", diff)
            disk_hit = False
        else:
            disk_hit = True
        with self._lock:
            self._diffs.setdefault(pair, diff)
            if disk_hit:
                self.counters.hit("diff", disk=True)
            else:
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

    # -- the on-disk layer ------------------------------------------------

    def _load_pickle(self, kind: str, key: str):
        if self._dir is None:
            return None
        path = self._dir / kind / f"{key}.pkl"
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None  # a torn or stale entry is just a miss

    def _store_pickle(self, kind: str, key: str, value) -> None:
        if self._dir is None:
            return
        path = self._dir / kind / f"{key}.pkl"
        # The suffix must be unique across *processes* too: a run on
        # worker processes has many of them writing the same layer, and
        # thread idents alone collide between interpreters.
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic under concurrent writers
        except OSError:
            tmp.unlink(missing_ok=True)
