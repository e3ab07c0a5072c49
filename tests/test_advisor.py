"""The migration advisor: engine invariants, findings, and the ledger.

The acceptance contract under test: for *every* advised migration,
``apply_script(old, operations) == proposed`` and ``apply_script(
proposed, invert_script(operations)) == old`` (the up/down pair is a
true inverse); advice persists idempotently under ``(project,
Idempotency-Key)`` with byte-identical replay and 409 on key reuse with
a different body, on both the single-file and the sharded store; and
sharded advice rows land on the owning shard under stable global ids.
"""

from __future__ import annotations

import json

import pytest

from repro.advisor import (
    Advice,
    AdvisorError,
    MASS_INJECTION_THRESHOLD,
    advise,
    evaluate_findings,
    parse_proposal,
)
from repro.core.diff import diff_schemas
from repro.core.taxa import Taxon
from repro.schema.builder import build_schema
from repro.schema.writer import render_schema
from repro.smo import apply_script, invert_script
from repro.store import (
    AdviceConflict,
    CorpusStore,
    ShardedCorpusStore,
    ingest_corpus,
)
from repro.store import shard as shard_mod
from repro.store import store as store_mod
from repro.store.shard import shard_index
from tests.test_store import small_corpus

SHARDS = 3


def count_rescans(monkeypatch, module) -> list:
    """Record each ``compute_content_hash`` call *module* makes."""
    calls: list = []
    original = module.compute_content_hash

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "compute_content_hash", counted)
    return calls


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    activity, lib_io, repos = small_corpus()
    store = CorpusStore(tmp_path_factory.mktemp("advisor") / "corpus.db")
    ingest_corpus(store, activity, lib_io, repos.get)
    yield store
    store.close()


def latest_ddl(store, name):
    history = store.project_history(name)
    return history, render_schema(history.history.versions[-1].schema)


#: Proposal mutators: each takes the base DDL and returns a new full
#: schema exercising a different SMO class.
PROPOSALS = {
    "add_table": lambda ddl: ddl + "\nCREATE TABLE p (id INT, note TEXT);",
    "add_column": lambda ddl: ddl.replace("`x` INT", "`x` INT,\n  `extra` INT"),
    "drop_column": lambda ddl: ddl.replace("`x` INT,", ""),
    "type_change": lambda ddl: ddl.replace("`x` INT", "`x` BIGINT"),
    "mass_injection": lambda ddl: ddl
    + "\nCREATE TABLE wide ("
    + ", ".join(f"c{i} INT" for i in range(MASS_INJECTION_THRESHOLD + 2))
    + ");",
    "teardown": lambda ddl: "CREATE TABLE survivor (id INT);",
}


class TestEngine:
    @pytest.mark.parametrize("mutation", sorted(PROPOSALS))
    def test_every_advised_migration_round_trips(self, seeded_store, mutation):
        """The acceptance property: up reproduces the proposal, down
        restores the base — via the SMO algebra, for every proposal
        class, on every stored project with history."""
        for name in ("ok/alpha", "ok/beta"):
            history, base_ddl = latest_ddl(seeded_store, name)
            proposal = PROPOSALS[mutation](base_ddl)
            advice = advise(history, proposal, project_id=1)
            old = history.history.versions[-1].schema
            proposed = build_schema(proposal, lenient=True)
            ops = advice.migration.operations
            # Compared canonically: attribute/table position carries no
            # identity in the model, and apply_script appends columns.
            assert apply_script(old, ops).canonical() == proposed.canonical()
            assert (
                apply_script(proposed, invert_script(ops)).canonical()
                == old.canonical()
            )

    def test_versioned_registry_discipline(self, seeded_store):
        history, base_ddl = latest_ddl(seeded_store, "ok/beta")
        advice = advise(history, base_ddl + "\nCREATE TABLE t (i INT);", 1)
        migration = advice.migration
        base_version = history.history.versions[-1].index
        assert migration.from_version == base_version
        assert migration.to_version == base_version + 1
        payload = migration.payload()
        assert payload["precondition"] == f"schema_version == {base_version}"
        assert len(payload["checksum"]) == 16
        assert payload["cost"] == sum(op.cost for op in migration.operations)

    def test_same_proposal_same_checksum(self, seeded_store):
        history, base_ddl = latest_ddl(seeded_store, "ok/alpha")
        proposal = base_ddl + "\nCREATE TABLE t (i INT);"
        a = advise(history, proposal, 1)
        b = advise(history, proposal, 1)
        assert a.migration.checksum == b.migration.checksum
        assert a.payload() == b.payload()

    def test_identical_proposal_yields_empty_migration(self, seeded_store):
        history, base_ddl = latest_ddl(seeded_store, "ok/alpha")
        advice = advise(history, base_ddl, 1)
        assert advice.migration.operations == ()
        assert advice.diff.activity == 0
        assert not advice.atypical

    @pytest.mark.parametrize(
        "proposal, operations",
        [
            ("CREATE TABLE T (a INT, x INT, y INT, PRIMARY KEY (a));", 0),
            ("CREATE TABLE t (A INT, x INT, y INT, PRIMARY KEY (A));", 0),
            ("CREATE TABLE t (b INT, a INT, x INT, y INT, PRIMARY KEY (b, a));", 1),
        ],
        ids=["table-case", "column-case", "new-key-column-first"],
    )
    def test_names_match_case_insensitively_and_keys_as_sets(
        self, proposal, operations
    ):
        """The study's identity: a case-only change is no change, and a
        key is its member set, so each proposal gets advice."""
        from repro.pipeline import MeasurementPipeline

        base = "CREATE TABLE t (a INT, x INT, y INT, PRIMARY KEY (a));"
        ctx = MeasurementPipeline(lambda _: None).measure_versions(
            "case/key", "schema.sql", [("v0", 0, base)]
        )
        advice = advise(ctx.project, proposal, 1)
        assert len(advice.migration.operations) == operations
        assert advice.diff.activity == operations

    def test_parse_proposal_rejections(self):
        with pytest.raises(AdvisorError, match="non-empty"):
            parse_proposal("   ")
        with pytest.raises(AdvisorError, match="no tables"):
            parse_proposal("-- just a comment\n")

    def test_stored_taxon_string_resolves(self, seeded_store):
        history, base_ddl = latest_ddl(seeded_store, "ok/alpha")
        stored = seeded_store.get_project("ok/alpha")
        advice = advise(history, base_ddl, 1, taxon=stored.taxon)
        assert isinstance(advice, Advice)
        assert advice.taxon.value == stored.taxon

    def test_payload_is_json_renderable_and_complete(self, seeded_store):
        history, base_ddl = latest_ddl(seeded_store, "ok/beta")
        advice = advise(history, PROPOSALS["teardown"](base_ddl), 7)
        payload = json.loads(json.dumps(advice.payload(), sort_keys=True))
        assert set(payload) == {
            "project", "project_id", "taxon", "base", "proposed", "delta",
            "migration", "findings", "atypical",
        }
        assert payload["project_id"] == 7
        assert payload["delta"]["tables_deleted"] >= 1


class TestFindings:
    def _diff(self, old_ddl, new_ddl):
        return diff_schemas(
            build_schema(old_ddl, lenient=True),
            build_schema(new_ddl, lenient=True),
        )

    def _metrics(self, seeded_store, name="ok/alpha"):
        return seeded_store.project_history(name).metrics

    def test_frozen_wakeup_flags_any_activity(self, seeded_store):
        metrics = self._metrics(seeded_store)
        diff = self._diff("CREATE TABLE a (x INT);", "CREATE TABLE a (x INT, y INT);")
        findings = evaluate_findings(Taxon.FROZEN, metrics, diff)
        codes = {f.code: f for f in findings}
        assert codes["frozen_wakeup"].severity == "warning"
        assert codes["frozen_wakeup"].is_atypical

    def test_mass_injection_escalates_to_critical(self, seeded_store):
        metrics = self._metrics(seeded_store)
        wide = "CREATE TABLE a (x INT);\nCREATE TABLE w (" + ", ".join(
            f"c{i} INT" for i in range(2 * MASS_INJECTION_THRESHOLD)
        ) + ");"
        diff = self._diff("CREATE TABLE a (x INT);", wide)
        codes = {f.code: f for f in evaluate_findings(Taxon.ACTIVE, metrics, diff)}
        assert codes["mass_injection"].severity == "critical"

    def test_destructive_change_with_table_drop_is_warning(self, seeded_store):
        metrics = self._metrics(seeded_store)
        diff = self._diff(
            "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);",
            "CREATE TABLE a (x INT);",
        )
        codes = {f.code: f for f in evaluate_findings(Taxon.ACTIVE, metrics, diff)}
        assert codes["destructive_change"].severity == "warning"
        assert "not their data" in codes["destructive_change"].message

    def test_activity_outlier_needs_history_and_a_record_beater(self, seeded_store):
        metrics = self._metrics(seeded_store)
        diff = self._diff(
            "CREATE TABLE a (x INT);",
            "CREATE TABLE a (x INT, p INT, q INT, r INT);",
        )
        heartbeat = [{"expansion": 1, "activity": 1}, {"expansion": 2, "activity": 2}]
        codes = {
            f.code: f
            for f in evaluate_findings(Taxon.ACTIVE, metrics, diff, heartbeat)
        }
        assert codes["activity_outlier"].evidence["observed_max"] == 2
        # Without heartbeat rows the distributional finding is mute.
        silent = evaluate_findings(Taxon.ACTIVE, metrics, diff)
        assert "activity_outlier" not in {f.code for f in silent}

    def test_findings_sort_most_severe_first(self, seeded_store):
        metrics = self._metrics(seeded_store)
        wide = "CREATE TABLE w (" + ", ".join(
            f"c{i} INT" for i in range(2 * MASS_INJECTION_THRESHOLD)
        ) + ");"
        diff = self._diff("CREATE TABLE a (x INT);", wide)
        findings = evaluate_findings(Taxon.FROZEN, metrics, diff)
        ranks = ["info", "notice", "warning", "critical"]
        observed = [ranks.index(f.severity) for f in findings]
        assert observed == sorted(observed, reverse=True)


class TestAdviceLedger:
    def _respond(self, advice_id):
        return json.dumps({"advice_id": advice_id}, sort_keys=True).encode()

    def test_insert_then_replay_is_byte_identical(self, tmp_path):
        store = CorpusStore(tmp_path / "ledger.db")
        record, replayed = store.record_advice(
            1, "p/one", "key-1", "hash-a", self._respond
        )
        assert (record.id, replayed) == (1, False)
        again, replayed = store.record_advice(
            1, "p/one", "key-1", "hash-a", lambda _: b"never-called"
        )
        assert replayed is True
        assert again.response == record.response
        assert store.advice_count() == 1
        store.close()

    def test_key_reuse_with_different_body_conflicts(self, tmp_path):
        store = CorpusStore(tmp_path / "ledger.db")
        store.record_advice(1, "p/one", "key-1", "hash-a", self._respond)
        with pytest.raises(AdviceConflict):
            store.record_advice(1, "p/one", "key-1", "hash-B", self._respond)
        store.close()

    def test_same_key_different_projects_do_not_collide(self, tmp_path):
        store = CorpusStore(tmp_path / "ledger.db")
        a, _ = store.record_advice(1, "p/one", "key-1", "hash-a", self._respond)
        b, _ = store.record_advice(2, "p/two", "key-1", "hash-b", self._respond)
        assert a.id != b.id
        assert [r.id for r in store.advice_records("p/one")] == [a.id]
        store.close()

    def test_advice_rows_do_not_move_the_content_hash(self, tmp_path):
        """Writes must not invalidate every ETag/response-cache entry."""
        store = CorpusStore(tmp_path / "ledger.db")
        before = store.content_hash()
        store.record_advice(1, "p/one", "key-1", "hash-a", self._respond)
        assert store.content_hash() == before
        store.close()

    def test_advice_writes_keep_the_cached_content_hash(self, tmp_path, monkeypatch):
        """Neither an insert nor a replay makes the next read rescan."""
        store = CorpusStore(tmp_path / "ledger.db")
        store.content_hash()
        rescans = count_rescans(monkeypatch, store_mod)
        for _ in range(2):  # insert, then replay
            store.record_advice(1, "p/one", "key-1", "hash-a", self._respond)
            store.content_hash()
        assert rescans == []
        store.close()


class TestShardedAdvice:
    @pytest.fixture()
    def sharded(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        store = ShardedCorpusStore(tmp_path / "sharded.db", shards=SHARDS)
        ingest_corpus(store, activity, lib_io, repos.get)
        yield store
        store.close()

    def _respond(self, advice_id):
        return json.dumps({"advice_id": advice_id}, sort_keys=True).encode()

    def test_advice_writes_keep_the_cached_content_hash(self, sharded, monkeypatch):
        """The coordinator's id allocation and the shard's insert alike."""
        sharded.content_hash()
        rescans = count_rescans(monkeypatch, shard_mod)
        stored = sharded.get_project("ok/alpha")
        sharded.record_advice(stored.id, stored.name, "key", "hash", self._respond)
        sharded.content_hash()
        assert rescans == []

    def test_advice_lands_on_the_owning_shard(self, sharded):
        for name in ("ok/alpha", "ok/beta", "ok/rigid"):
            stored = sharded.get_project(name)
            sharded.record_advice(
                stored.id, name, f"key-{name}", "hash", self._respond
            )
            owner = shard_index(name, SHARDS)
            for index, shard in enumerate(sharded._shards):
                rows = shard.advice_records(name)
                assert bool(rows) == (index == owner)

    def test_global_ids_are_unique_and_monotonic(self, sharded):
        ids = []
        for n, name in enumerate(("ok/alpha", "ok/beta", "ok/rigid", "ok/alpha")):
            record, replayed = sharded.record_advice(
                sharded.get_project(name).id, name, f"key-{n}", "hash",
                self._respond,
            )
            assert replayed is False
            ids.append(record.id)
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert sharded.advice_count() == len(ids)
        assert sharded.max_advice_id() == ids[-1]

    def test_replay_and_conflict_route_through_shards(self, sharded):
        stored = sharded.get_project("ok/alpha")
        first, _ = sharded.record_advice(
            stored.id, "ok/alpha", "key-r", "hash-a", self._respond
        )
        again, replayed = sharded.record_advice(
            stored.id, "ok/alpha", "key-r", "hash-a", lambda _: b"never"
        )
        assert replayed is True and again.response == first.response
        with pytest.raises(AdviceConflict):
            sharded.record_advice(
                stored.id, "ok/alpha", "key-r", "hash-B", self._respond
            )

    def test_id_high_water_mark_survives_reopen(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        base = tmp_path / "hwm.db"
        store = ShardedCorpusStore(base, shards=SHARDS)
        ingest_corpus(store, activity, lib_io, repos.get)
        record, _ = store.record_advice(
            store.get_project("ok/alpha").id, "ok/alpha", "k1", "h",
            self._respond,
        )
        store.close()
        reopened = ShardedCorpusStore(base)
        later, _ = reopened.record_advice(
            reopened.get_project("ok/beta").id, "ok/beta", "k2", "h",
            self._respond,
        )
        assert later.id > record.id
        reopened.close()
