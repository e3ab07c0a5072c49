"""The sharded corpus store: byte-identity with the single-file store.

The contract under test is the strongest one the serving stack relies
on: an unsharded store and a K-shard store ingested from the same
corpus must be *indistinguishable* through the query API — identical
content hash (so ETag/304 and the response cache hold), identical
pagination windows, identical aggregates to the last rounded digit,
and byte-identical rendered ``/v1`` bodies (study exports across
layouts are ``tests/test_identity.py``'s).  Plus the
sharding-specific machinery: stable name-hash routing, the
AUTOINCREMENT-faithful global id high-water mark, autodetection via
:func:`resolve_store`, and per-shard circuit breakers surfacing as
:class:`CircuitOpen` (degrade path) rather than :class:`StoreError`
(a 400).
"""

from __future__ import annotations

import pytest

from repro.resilience.policy import CircuitOpen
from repro.serve import CorpusService
from repro.serve.cursors import encode_project_cursor
from repro.store import (
    CorpusStore,
    ShardedCorpusStore,
    detect_shard_count,
    ingest_corpus,
    resolve_store,
    shard_index,
    shard_paths,
)
from repro.store.store import StoreError
from tests.test_store import SCHEMA_V0, SCHEMA_V1, repo_with_history, small_corpus

SHARDS = 3


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """The same corpus ingested unsharded and across three shards."""
    activity, lib_io, repos = small_corpus(with_bad_project=True)
    root = tmp_path_factory.mktemp("shard")
    plain = CorpusStore(root / "plain.db")
    ingest_corpus(plain, activity, lib_io, repos.get)
    sharded = ShardedCorpusStore(root / "sharded.db", shards=SHARDS)
    ingest_corpus(sharded, activity, lib_io, repos.get)
    yield plain, sharded
    plain.close()
    sharded.close()


class TestLayout:
    def test_shard_index_is_stable_and_in_range(self):
        for name in ("ok/alpha", "ok/beta", "weird/ünicode"):
            index = shard_index(name, SHARDS)
            assert 0 <= index < SHARDS
            assert shard_index(name, SHARDS) == index  # no per-process salt

    def test_shard_paths_and_detection(self, tmp_path):
        base = tmp_path / "corpus.db"
        paths = shard_paths(base, 4)
        assert [p.name for p in paths] == [
            f"corpus.db.shard-{i:02d}-of-04" for i in range(4)
        ]
        assert detect_shard_count(base) is None
        with ShardedCorpusStore(base, shards=4):
            pass
        assert detect_shard_count(base) == 4

    def test_resolve_store_autodetects(self, tmp_path):
        base = tmp_path / "corpus.db"
        with resolve_store(base) as store:
            assert isinstance(store, CorpusStore)
        (tmp_path / "other.db").unlink(missing_ok=True)
        with resolve_store(tmp_path / "other.db", shards=3) as store:
            assert isinstance(store, ShardedCorpusStore)
        with resolve_store(tmp_path / "other.db") as store:
            assert isinstance(store, ShardedCorpusStore)
            assert store.shard_count == 3
        with resolve_store(":memory:") as store:
            assert isinstance(store, CorpusStore)

    def test_layout_errors(self, tmp_path):
        with pytest.raises(StoreError):
            ShardedCorpusStore(":memory:", shards=2)
        with pytest.raises(StoreError):
            ShardedCorpusStore(tmp_path / "missing.db")  # nothing to detect
        with pytest.raises(StoreError):
            ShardedCorpusStore(tmp_path / "one.db", shards=1)
        with ShardedCorpusStore(tmp_path / "k.db", shards=2):
            pass
        with pytest.raises(StoreError):
            ShardedCorpusStore(tmp_path / "k.db", shards=4)  # count mismatch

    def test_projects_are_spread_across_shards(self, stores):
        _, sharded = stores
        populated = [s for s in sharded._shards if s.project_count() > 0]
        assert len(populated) > 1, "test corpus landed in a single shard"


class TestByteIdentity:
    def test_content_hash_matches_the_unsharded_store(self, stores):
        plain, sharded = stores
        assert sharded.content_hash() == plain.content_hash()

    def test_query_surface_matches(self, stores):
        plain, sharded = stores
        assert sharded.project_count() == plain.project_count()
        assert sharded.query_projects().projects == plain.query_projects().projects
        assert sharded.aggregates() == plain.aggregates()
        assert sharded.taxa_summary() == plain.taxa_summary()
        assert sharded.failures() == plain.failures()
        assert sharded.failure_count() == plain.failure_count()

    def test_pagination_windows_match(self, stores):
        plain, sharded = stores
        ids = plain.project_ids()
        total = len(ids)
        for cursor in (None, ids[0], ids[1], ids[-1]):
            for limit in (1, 2, total, None):
                mine = sharded.query_projects(cursor=cursor, limit=limit)
                theirs = plain.query_projects(cursor=cursor, limit=limit)
                assert mine.projects == theirs.projects, (cursor, limit)
                assert mine.total == theirs.total
                assert mine.next_cursor == theirs.next_cursor, (cursor, limit)

    def test_filtered_queries_match(self, stores):
        plain, sharded = stores
        for outcome in ("studied", "rigid"):
            assert (
                sharded.query_projects(outcome=outcome).projects
                == plain.query_projects(outcome=outcome).projects
            )

    def test_point_lookups_match(self, stores):
        plain, sharded = stores
        for stored in plain.query_projects().projects:
            for ref in (stored.id, stored.name):
                assert sharded.get_project(ref) == plain.get_project(ref)
                assert sharded.heartbeat_rows(ref) == plain.heartbeat_rows(ref)
                assert sharded.version_rows(ref) == plain.version_rows(ref)
        assert sharded.get_project("no/such") is None
        assert sharded.get_project(99_999) is None
        assert sharded.heartbeat_rows("no/such") is None

    def test_funnel_report_matches(self, stores):
        plain, sharded = stores
        mine, theirs = sharded.funnel_report(), plain.funnel_report()
        assert mine.stage_rows() == theirs.stage_rows()
        assert mine.omitted_by_paths == theirs.omitted_by_paths
        assert [p.name for p in mine.studied] == [p.name for p in theirs.studied]
        assert [p.name for p in mine.rigid] == [p.name for p in theirs.rigid]

    def test_rendered_v1_bodies_are_byte_identical(self, stores):
        plain, sharded = stores
        cursor = encode_project_cursor(plain.project_ids()[0])
        paths = [
            ("/v1/projects", "", {}),
            (
                "/v1/projects",
                f"cursor={cursor}&limit=2",
                {"cursor": cursor, "limit": "2"},
            ),
            ("/v1/projects", "outcome=studied", {"outcome": "studied"}),
            ("/v1/taxa", "", {}),
            ("/v1/stats", "", {}),
            ("/v1/failures", "", {}),
            ("/v1/projects/ok%2Falpha", "", {}),
        ]
        mine, theirs = CorpusService(sharded), CorpusService(plain)
        for path, query, params in paths:
            ours = mine.handle_rendered(path, query, params)
            ref = theirs.handle_rendered(path, query, params)
            assert ref.response.status == 200, (path, query)
            assert ours.body == ref.body, path
            assert ours.content_hash == ref.content_hash, path

    def test_reopened_sharded_store_keeps_the_hash(self, stores, tmp_path_factory):
        _, sharded = stores
        with resolve_store(sharded.path) as reopened:
            assert isinstance(reopened, ShardedCorpusStore)
            assert reopened.content_hash() == sharded.content_hash()


class TestIds:
    def test_ids_are_global_unique_and_monotonic(self, stores):
        _, sharded = stores
        ids = [p.id for p in sharded.query_projects().projects]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_warm_reingest_measures_nothing_and_keeps_ids(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        store = ShardedCorpusStore(tmp_path / "c.db", shards=SHARDS)
        first = ingest_corpus(store, activity, lib_io, repos.get)
        assert first.measured > 0
        ids = {p.name: p.id for p in store.query_projects().projects}
        etag = store.content_hash()
        second = ingest_corpus(store, activity, lib_io, repos.get)
        assert second.measured == 0
        assert {p.name: p.id for p in store.query_projects().projects} == ids
        assert store.content_hash() == etag
        store.close()

    def test_new_project_draws_the_next_id_after_deletions(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        store = ShardedCorpusStore(tmp_path / "c.db", shards=SHARDS)
        ingest_corpus(store, activity, lib_io, repos.get)
        high = max(p.id for p in store.query_projects().projects)
        keep = [p.name for p in store.query_projects().projects][:-1]
        assert store.prune_missing(keep) == 1
        extra = {"zz/late": repo_with_history("zz/late", [SCHEMA_V0, SCHEMA_V1])}
        activity2, lib_io2, repos2 = small_corpus(extra_repos=extra)
        ingest_corpus(store, activity2, lib_io2, repos2.get)
        late = store.get_project("zz/late")
        assert late is not None and late.id > high  # pruned ids never recycle
        store.close()


class TestBreakers:
    def test_broken_shard_trips_its_breaker_into_circuit_open(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        store = ShardedCorpusStore(tmp_path / "c.db", shards=SHARDS)
        ingest_corpus(store, activity, lib_io, repos.get)
        victim = store._shards[1]

        def boom(*args, **kwargs):
            raise RuntimeError("shard file vanished")

        victim.aggregate_parts = boom  # type: ignore[method-assign]
        for _ in range(3):  # failure_threshold
            with pytest.raises(RuntimeError):
                store.aggregates()
        with pytest.raises(CircuitOpen):
            store.aggregates()
        # CircuitOpen must NOT be a StoreError: the serving layer maps
        # StoreError to 400 but degrades (stale snapshot / 503) on this.
        assert not issubclass(CircuitOpen, StoreError)
        store.close()

    def test_store_errors_do_not_count_against_the_breaker(self, stores):
        _, sharded = stores
        for _ in range(5):
            with pytest.raises(StoreError):
                sharded.query_projects(limit=0)
        assert sharded.query_projects().projects  # breakers still closed
