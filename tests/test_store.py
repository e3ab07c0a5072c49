"""Tests of the persistent corpus store and its incremental ingest.

Coverage demanded by the subsystem's contract: ingest -> query equality
with a direct ``run_funnel`` result, incremental re-ingest measuring
zero projects (proven by pipeline stats counters), failure records
surviving persistence and consistent snapshots under concurrent
readers.  That a store-backed export is byte-identical to the direct
one is checked by ``tests/test_identity.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.mining import (
    GithubActivityDataset,
    LibrariesIoDataset,
    LibrariesIoRecord,
    SqlFileRecord,
    run_funnel,
)
from repro.pipeline import Outcome
from repro.store import (
    CorpusStore,
    MISSING_REPO_FINGERPRINT,
    MetricRange,
    StoreError,
    ingest_corpus,
)
from repro.vcs import Repository

DAY = 86_400
SCHEMA_V0 = b"CREATE TABLE a (x INT);"
SCHEMA_V1 = b"CREATE TABLE a (x INT, y INT);"
SCHEMA_V2 = b"CREATE TABLE a (x INT, y INT, z INT);"


def meta(name, **kw):
    defaults = dict(is_fork=False, stars=3, contributors=4)
    defaults.update(kw)
    return LibrariesIoRecord(repo_name=name, url=f"https://github.com/{name}", **defaults)


def repo_with_history(name, versions, path="schema.sql", start_ts=DAY):
    repo = Repository(name)
    for index, content in enumerate(versions):
        repo.commit({path: content}, "dev", start_ts + index * 30 * DAY, f"v{index}")
    return repo


def clock_skew_repo(name, path="schema.sql"):
    repo = Repository(name)
    repo.commit({path: SCHEMA_V0}, "dev", 1_000_000, "v0")
    repo.commit({path: SCHEMA_V1}, "dev", 500, "v1 with clock skew")
    return repo


def small_corpus(with_bad_project=False, extra_repos=None):
    repos = {
        "ok/alpha": repo_with_history("ok/alpha", [SCHEMA_V0, SCHEMA_V1]),
        "ok/beta": repo_with_history("ok/beta", [SCHEMA_V0, SCHEMA_V1, SCHEMA_V2]),
        "ok/rigid": repo_with_history("ok/rigid", [SCHEMA_V0]),
        "gone/repo": None,  # vanished from GitHub
    }
    if with_bad_project:
        repos["bad/skew"] = clock_skew_repo("bad/skew")
    if extra_repos:
        repos.update(extra_repos)
    names = sorted(repos)
    activity = GithubActivityDataset(
        [SqlFileRecord(name, "schema.sql") for name in names]
    )
    lib_io = LibrariesIoDataset([meta(name) for name in names])
    return activity, lib_io, repos


class TestRoundTrip:
    def test_store_reconstructs_the_funnel_report(self):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        direct = run_funnel(activity, lib_io, repos.get)
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        rebuilt = store.funnel_report()
        assert rebuilt.stage_rows() == direct.stage_rows()
        assert rebuilt.omitted_by_paths == direct.omitted_by_paths
        assert [p.name for p in rebuilt.studied] == [p.name for p in direct.studied]
        assert [p.name for p in rebuilt.rigid] == [p.name for p in direct.rigid]
        for mine, theirs in zip(rebuilt.studied, direct.studied):
            assert mine.metrics == theirs.metrics
            assert mine.repo_stats == theirs.repo_stats
            assert mine.domain == theirs.domain

    def test_flat_columns_match_the_measured_metrics(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        direct = run_funnel(activity, lib_io, repos.get)
        for project in direct.studied:
            stored = store.get_project(project.name)
            assert stored is not None
            assert stored.outcome == Outcome.STUDIED.value
            assert stored.metrics["n_commits"] == project.metrics.n_commits
            assert stored.metrics["total_activity"] == project.metrics.total_activity
            assert stored.metrics["reeds"] == project.metrics.reeds
            assert stored.metrics["pup_months"] == project.pup_months
            assert stored.metrics["ddl_commit_share"] == pytest.approx(
                project.ddl_commit_share
            )

    def test_heartbeat_rows_match_the_transitions(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        direct = run_funnel(activity, lib_io, repos.get)
        beta = next(p for p in direct.studied if p.name == "ok/beta")
        rows = store.heartbeat_rows("ok/beta")
        assert len(rows) == len(beta.metrics.transitions)
        for row, transition in zip(rows, beta.metrics.transitions):
            assert row["transition_id"] == transition.transition_id
            assert row["timestamp"] == transition.timestamp
            assert row["expansion"] == transition.expansion
            assert row["is_active"] == int(transition.is_active)

    def test_version_ledger_matches_the_history(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        versions = store.version_rows("ok/beta")
        assert [v["ordinal"] for v in versions] == [0, 1, 2]
        assert [v["attributes"] for v in versions] == [1, 2, 3]


class TestIncrementalIngest:
    def test_unchanged_corpus_measures_zero_projects(self):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        store = CorpusStore(":memory:")
        cold = ingest_corpus(store, activity, lib_io, repos.get)
        assert cold.measured > 0
        etag = store.content_hash()
        warm = ingest_corpus(store, activity, lib_io, repos.get)
        assert warm.measured == 0
        assert warm.skipped_unchanged == cold.measured
        # The pipeline stats counters prove no stage ever executed.
        assert warm.stats.projects == 0
        assert warm.stats.stage_projects == {}
        assert warm.stats.cache.build_schema_calls == 0
        assert store.content_hash() == etag

    def test_changed_project_is_the_only_one_re_measured(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        before = store.get_project("ok/alpha")
        repos["ok/alpha"].commit(
            {"schema.sql": SCHEMA_V2}, "dev", 400 * DAY, "grow the schema"
        )
        delta = ingest_corpus(store, activity, lib_io, repos.get)
        assert delta.measured == 1
        assert delta.stats.projects == 1
        after = store.get_project("ok/alpha")
        assert after.history_hash != before.history_hash
        assert after.metrics["n_commits"] == before.metrics["n_commits"] + 1
        # Untouched projects kept their identity (and were not touched).
        assert store.get_project("ok/beta").history_hash is not None
        assert delta.skipped_unchanged == delta.tasks - 1

    def test_projects_leaving_the_corpus_are_pruned(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        assert store.get_project("ok/beta") is not None
        shrunk = {k: v for k, v in repos.items() if k != "ok/beta"}
        activity2 = GithubActivityDataset(
            [SqlFileRecord(name, "schema.sql") for name in sorted(shrunk)]
        )
        lib_io2 = LibrariesIoDataset([meta(name) for name in sorted(shrunk)])
        report = ingest_corpus(store, activity2, lib_io2, shrunk.get)
        assert report.pruned == 1
        assert store.get_project("ok/beta") is None
        assert report.measured == 0  # survivors were all unchanged

    def test_fingerprint_read_is_limited_to_the_names_asked(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        everything = store.fingerprints()
        # More names than one sqlite statement may bind, mostly absent.
        asked = ["ok/alpha", "gone/repo"] + [f"pad/{i}" for i in range(1200)]
        assert store.fingerprints(asked) == {
            name: everything[name] for name in ("ok/alpha", "gone/repo")
        }
        assert store.fingerprints([]) == {}

    def test_vanished_repo_is_fingerprinted_and_skipped(self):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        stored = store.get_project("gone/repo")
        assert stored.outcome == Outcome.ZERO_VERSIONS.value
        assert stored.history_hash == MISSING_REPO_FINGERPRINT
        warm = ingest_corpus(store, activity, lib_io, repos.get)
        assert warm.measured == 0


class TestFailurePersistence:
    def test_failure_records_survive_and_are_skipped_when_unchanged(self):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        store = CorpusStore(":memory:")
        cold = ingest_corpus(store, activity, lib_io, repos.get)
        assert cold.failed == 1
        failures = store.failures()
        assert len(failures) == 1
        assert failures[0].project == "bad/skew"
        assert failures[0].stage == "parse"
        assert failures[0].error == "ValueError"
        assert "not ordered over time" in failures[0].message
        # A known-bad, unchanged project is not re-measured...
        warm = ingest_corpus(store, activity, lib_io, repos.get)
        assert warm.measured == 0
        assert warm.failed == 1
        # ...and the record also survives the funnel reconstruction.
        rebuilt = store.funnel_report()
        assert [f.project for f in rebuilt.failures] == ["bad/skew"]
        assert dict(rebuilt.stage_rows())["removed: failed measurement"] == 1

    def test_crashing_provider_is_recorded_and_retried(self):
        activity, lib_io, repos = small_corpus()
        calls = {"n": 0}

        def exploding(name):
            if name == "ok/beta":
                calls["n"] += 1
                raise RuntimeError("clone timed out")
            return repos.get(name)

        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, exploding)
        failures = store.failures()
        assert [f.project for f in failures] == ["ok/beta"]
        assert failures[0].stage == "extract"
        # Unfingerprintable crashes are retried on the next ingest...
        before = calls["n"]
        ingest_corpus(store, activity, lib_io, exploding)
        assert calls["n"] > before
        # ...and a recovered provider heals the record.
        healed = ingest_corpus(store, activity, lib_io, repos.get)
        assert healed.failed == 0
        assert store.failures() == []
        assert store.get_project("ok/beta").outcome == Outcome.STUDIED.value

    def test_crashing_provider_keeps_its_row_position(self):
        activity, lib_io, repos = small_corpus()

        def exploding(name):
            if name == "ok/alpha":
                raise RuntimeError("clone timed out")
            return repos.get(name)

        orders = set()
        for chunk in (1, 2, 8):
            store = CorpusStore(":memory:")
            ingest_corpus(store, activity, lib_io, exploding, chunk_size=chunk)
            orders.add(tuple((p.id, p.name) for p in store.query_projects().projects))
            store.close()
        # The failure row is written in its own chunk, in task order.
        assert orders == {
            ((1, "gone/repo"), (2, "ok/alpha"), (3, "ok/beta"), (4, "ok/rigid"))
        }


class TestQueries:
    @pytest.fixture()
    def seeded(self):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        store = CorpusStore(":memory:")
        ingest_corpus(store, activity, lib_io, repos.get)
        return store

    def test_by_taxon(self, seeded):
        rigid = seeded.by_taxon("history-less")
        assert [p.name for p in rigid] == ["ok/rigid"]
        assert seeded.by_taxon("active") == ()

    def test_taxon_accepts_short_names(self, seeded):
        assert [p.name for p in seeded.by_taxon("HistLess")] == ["ok/rigid"]
        with pytest.raises(StoreError):
            seeded.by_taxon("not-a-taxon")

    def test_metric_range_filters(self, seeded):
        page = seeded.query_projects(ranges=[MetricRange("n_commits", minimum=3)])
        assert [p.name for p in page.projects] == ["ok/beta"]
        page = seeded.query_projects(
            ranges=[MetricRange("total_activity", minimum=1, maximum=1)]
        )
        assert [p.name for p in page.projects] == ["ok/alpha"]

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(StoreError):
            MetricRange("no_such_metric", minimum=1)

    def test_pagination_is_stable(self, seeded):
        total = seeded.project_count()
        seen, cursor = [], None
        while True:
            page = seeded.query_projects(cursor=cursor, limit=2)
            assert page.total == total
            seen.extend(p.name for p in page.projects)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == [p.name for p in seeded.query_projects().projects]
        beyond = seeded.query_projects(cursor=max(seeded.project_ids()), limit=2)
        assert beyond.projects == ()
        assert beyond.total == total

    def test_aggregates_shape(self, seeded):
        stats = seeded.aggregates()
        assert stats["cloned_usable"] == 3
        assert stats["by_outcome"][Outcome.FAILED.value] == 1
        assert stats["funnel"]["lib_io_projects"] == seeded.project_count()
        assert 0.0 <= stats["rigid_share"] <= 1.0

    def test_content_hash_tracks_content_not_time(self, seeded):
        first = seeded.content_hash()
        assert first == seeded.content_hash()
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        repos["ok/alpha"].commit(
            {"schema.sql": SCHEMA_V2}, "dev", 500 * DAY, "change"
        )
        ingest_corpus(seeded, activity, lib_io, repos.get)
        assert seeded.content_hash() != first


class TestConcurrentReaders:
    def test_reader_threads_see_consistent_snapshots(self, tmp_path):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        store = CorpusStore(tmp_path / "corpus.db")
        ingest_corpus(store, activity, lib_io, repos.get)
        expected = [p.name for p in store.query_projects().projects]
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def reader():
            try:
                barrier.wait(timeout=10)
                for _ in range(30):
                    page = store.query_projects()
                    assert [p.name for p in page.projects] == expected
                    assert page.total == len(expected)
                    stats = store.aggregates()
                    assert sum(stats["by_outcome"].values()) == page.total
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    # A warm re-ingest: rewrites funnel counts, measures 0.
                    ingest_corpus(store, activity, lib_io, repos.get)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(5)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        store.close()


class TestStoreLifecycle:
    def test_reopen_preserves_everything(self, tmp_path):
        activity, lib_io, repos = small_corpus(with_bad_project=True)
        path = tmp_path / "corpus.db"
        with CorpusStore(path) as store:
            ingest_corpus(store, activity, lib_io, repos.get)
            etag = store.content_hash()
            names = [p.name for p in store.query_projects().projects]
        with CorpusStore(path) as reopened:
            assert [p.name for p in reopened.query_projects().projects] == names
            assert reopened.content_hash() == etag
            assert len(reopened.failures()) == 1
            warm = ingest_corpus(reopened, activity, lib_io, repos.get)
            assert warm.measured == 0

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        import sqlite3

        path = tmp_path / "corpus.db"
        with CorpusStore(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="schema version"):
            CorpusStore(path)
