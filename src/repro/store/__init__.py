"""The persistent corpus store.

``repro ingest`` runs the collection funnel and persists the measured
corpus into a sqlite-backed :class:`CorpusStore`; every later consumer
(`repro export --from-store`, `repro serve`, reporting) reads from the
store instead of re-measuring.  Ingest is incremental: project rows
carry the content fingerprint of their DDL histories, so re-ingesting
an unchanged corpus measures zero projects.
"""

from repro.store.ingest import (
    INGEST_CHECKPOINT_KEY,
    IngestReport,
    MISSING_REPO_FINGERPRINT,
    PERSIST_FAILED_FINGERPRINT,
    history_fingerprint,
    ingest_corpus,
    ingest_stream,
)
from repro.store.shard import (
    ShardedCorpusStore,
    detect_shard_count,
    resolve_store,
    shard_index,
    shard_paths,
)
from repro.store.store import (
    METRIC_COLUMNS,
    STORE_SCHEMA_VERSION,
    AdviceConflict,
    AdviceRecord,
    CorpusStore,
    FailurePage,
    MetricRange,
    QueryPage,
    StoreError,
    StoredProject,
    merge_dialect_profiles,
)

__all__ = [
    "AdviceConflict",
    "AdviceRecord",
    "CorpusStore",
    "FailurePage",
    "INGEST_CHECKPOINT_KEY",
    "IngestReport",
    "METRIC_COLUMNS",
    "MISSING_REPO_FINGERPRINT",
    "PERSIST_FAILED_FINGERPRINT",
    "MetricRange",
    "QueryPage",
    "STORE_SCHEMA_VERSION",
    "ShardedCorpusStore",
    "StoreError",
    "StoredProject",
    "merge_dialect_profiles",
    "detect_shard_count",
    "history_fingerprint",
    "ingest_corpus",
    "ingest_stream",
    "resolve_store",
    "shard_index",
    "shard_paths",
]
