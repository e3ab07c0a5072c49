"""Tests for the pluggable dialect frontend subsystem.

Golden PostgreSQL and SQLite corpora through parse → diff → taxa, the
MySQL byte-compat identity, the store's dialect column (v4 → v5
migration, indexed filtering, sharded parity) and the opt-in loadgen
family.
"""

import itertools
import sqlite3

import pytest

from repro.core.diff import diff_schemas
from repro.core.history import SchemaHistory, SchemaVersion
from repro.core.metrics import compute_metrics
from repro.core.taxa import Taxon, classify
from repro.mining.path_filters import (
    DEFAULT_VENDOR_PREFERENCE,
    MultiFileVerdict,
    SqlFileRecord,
    choose_ddl_file,
    dialect_for_choice,
    vendor_preference,
)
from repro.pipeline import MeasurementPipeline, Outcome, ProjectTask
from repro.schema import build_schema
from repro.sqlddl import Dialect
from repro.sqlddl.dialects import (
    DEFAULT_DIALECT,
    FRONTENDS,
    canonical_dialect_name,
    frontend_for,
    parse_script_for,
)
from repro.sqlddl.dialects.postgresql import strip_casts
from repro.sqlddl.dialects.sqlite import affinity_base
from repro.sqlddl.errors import UnsupportedDialectError
from repro.sqlddl.parser import parse_script
from repro.store import CorpusStore, STORE_SCHEMA_VERSION, ingest_stream
from repro.synthesis.stream import StreamSpec
from repro.vcs.repository import Repository


# -- golden fixtures ---------------------------------------------------------

#: A pg_dump-shaped schema: SERIAL, ALTER TABLE ONLY, schema-qualified
#: names, quoted identifiers, ::casts and a COPY data block.
PG_V0 = """
SET client_encoding = 'UTF8';

CREATE TABLE public.users (
    id SERIAL PRIMARY KEY,
    "login" character varying(64) NOT NULL,
    is_admin boolean DEFAULT 'f'::boolean,
    created timestamp without time zone DEFAULT now()
);

CREATE TABLE public.posts (
    id integer DEFAULT nextval('posts_id_seq'::regclass) NOT NULL,
    author integer,
    body text
);

ALTER TABLE ONLY public.posts
    ADD CONSTRAINT posts_pkey PRIMARY KEY (id);

COPY public.users (id, "login") FROM stdin;
1\tadmin; not a statement
\\.
"""

PG_V1 = PG_V0 + """
CREATE TABLE public.tags (
    id SERIAL PRIMARY KEY,
    label character varying(32)
);

ALTER TABLE ONLY public.posts ADD COLUMN score integer DEFAULT 0;
"""

#: SQLite idioms: WITHOUT ROWID, all three quoting styles, a typeless
#: column, AUTOINCREMENT.
SQLITE_V0 = """
CREATE TABLE kv (
    k TEXT PRIMARY KEY,
    v
) WITHOUT ROWID;

CREATE TABLE [events] (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    `kind` VARCHAR(16),
    "payload" BLOB
);
"""

SQLITE_V1 = SQLITE_V0 + """
CREATE TABLE sessions (
    token CHAR(40) PRIMARY KEY,
    user_id INT
);
"""


def _history(name, dialect, *scripts):
    versions = tuple(
        SchemaVersion(
            index=i,
            commit_oid=f"c{i}",
            timestamp=1_500_000_000 + i * 90 * 86400,
            schema=build_schema(text, dialect=dialect),
        )
        for i, text in enumerate(scripts)
    )
    return SchemaHistory(project=name, ddl_path="schema.sql", versions=versions)


class TestPostgresFrontend:
    def test_golden_schema(self):
        schema = build_schema(PG_V0, dialect="postgresql")
        assert schema.table_names == ("users", "posts")
        users = schema.table("users")
        assert users.primary_key == ("id",)
        assert [a.name for a in users.attributes] == [
            "id", "login", "is_admin", "created",
        ]
        # SERIAL normalizes to its integer base.
        assert "INT" in users.attribute("id").data_type.base.upper()
        # ALTER TABLE ONLY applied the out-of-line primary key.
        assert schema.table("posts").primary_key == ("id",)

    def test_copy_block_does_not_leak_statements(self):
        # The COPY payload contains a semicolon; eliding the block keeps
        # statement splitting in sync (no phantom tables, no errors).
        schema = build_schema(PG_V0, dialect="postgresql")
        assert len(schema.table_names) == 2

    def test_strip_casts_preserves_string_literals(self):
        assert strip_casts("SELECT 'a::b';") == "SELECT 'a::b';"
        assert strip_casts("DEFAULT 'f'::boolean") == "DEFAULT 'f'"
        assert (
            strip_casts("nextval('s'::regclass)") == "nextval('s')"
        )

    def test_round_trip_diff_and_taxa(self):
        history = _history("pg-proj", "postgresql", PG_V0, PG_V1, PG_V1)
        metrics = compute_metrics(history)
        diff = diff_schemas(history.versions[0].schema, history.versions[1].schema)
        assert diff.activity > 0
        assert metrics.table_insertions == 1  # tags
        assert metrics.total_activity == diff.activity
        assert classify(metrics) in set(Taxon)


class TestSqliteFrontend:
    def test_golden_schema(self):
        schema = build_schema(SQLITE_V0, dialect="sqlite")
        assert schema.table_names == ("kv", "events")
        kv = schema.table("kv")
        # The typeless column parses and lands on BLOB affinity.
        assert kv.attribute("v").data_type.base == "BLOB"
        events = schema.table("events")
        assert [a.name for a in events.attributes] == ["id", "kind", "payload"]
        assert events.attribute("kind").data_type.base == "TEXT"

    def test_affinity_rules(self):
        assert affinity_base("BIGINT") == "INT"
        assert affinity_base("VARCHAR") == "TEXT"
        assert affinity_base("CLOB") == "TEXT"
        assert affinity_base("") == "BLOB"
        assert affinity_base("FLOAT") == "DOUBLE"
        assert affinity_base("DECIMAL") == "NUMERIC"

    def test_cosmetic_width_change_is_not_evolution(self):
        # SQLite ignores VARCHAR widths entirely; the affinity collapse
        # keeps such rewrites out of the activity measure.
        v0 = "CREATE TABLE t (name VARCHAR(64));"
        v1 = "CREATE TABLE t (name VARCHAR(128));"
        diff = diff_schemas(
            build_schema(v0, dialect="sqlite"), build_schema(v1, dialect="sqlite")
        )
        assert diff.activity == 0

    def test_round_trip_diff_and_taxa(self):
        history = _history("lite-proj", "sqlite", SQLITE_V0, SQLITE_V1)
        metrics = compute_metrics(history)
        assert metrics.table_insertions == 1  # sessions
        assert classify(metrics) in set(Taxon)


#: MySQL scripts spanning the grammar the historical path handled.
MYSQL_SCRIPTS = (
    "CREATE TABLE `t` (`a` INT UNSIGNED AUTO_INCREMENT, b VARCHAR(32)) ENGINE=InnoDB;",
    "CREATE TABLE t (a INT); ALTER TABLE t ADD COLUMN b TEXT; DROP TABLE t;",
    "CREATE TABLE a (x INT, PRIMARY KEY (x)); RENAME TABLE a TO b;",
)


class TestPipelineScan:
    """The collection scan parses through the task's frontend, as the
    parse stage does; MySQL's grammar sees no table in either history."""

    @pytest.mark.parametrize(
        "dialect,versions,outcome",
        [
            ("sqlite", ("CREATE TABLE t (raw, n INT);", "CREATE TABLE t (raw, n INT, m);"),
             Outcome.STUDIED),
            ("postgresql", ("COPY t (a) FROM stdin;\n1;2\n\\.\n"
                            "CREATE TABLE u (a integer DEFAULT 'x'::text);",), Outcome.RIGID),
        ],
    )
    def test_scan_uses_the_task_dialect(self, dialect, versions, outcome):
        repo = Repository("scan/project")
        for day, text in enumerate(versions, 1):
            repo.commit({"schema.sql": text.encode()}, "dev", day * 86_400, f"v{day}")
        pipeline = MeasurementPipeline({repo.name: repo}.get)
        for task_dialect, expected in ((dialect, outcome), ("mysql", Outcome.NO_CREATE)):
            task = ProjectTask(repo.name, "schema.sql", dialect=task_dialect)
            assert pipeline.run_project(task).outcome is expected


class TestMySqlIdentity:
    """``--dialects mysql`` must be the historical path, byte for byte."""

    @pytest.mark.parametrize("script", MYSQL_SCRIPTS)
    def test_same_statements_as_parse_script(self, script):
        assert parse_script_for(script, "mysql") == parse_script(script)

    @pytest.mark.parametrize("script", MYSQL_SCRIPTS)
    def test_same_schema_as_default_build(self, script):
        assert build_schema(script, dialect="mysql") == build_schema(script)

    def test_default_dialect_is_mysql(self):
        assert DEFAULT_DIALECT == "mysql"
        assert tuple(FRONTENDS) == ("mysql", "postgresql", "sqlite")


class TestCanonicalNames:
    @pytest.mark.parametrize(
        "loose,canonical",
        [
            ("mysql", "mysql"),
            ("MariaDB", "mysql"),
            ("postgres", "postgresql"),
            ("pgsql", "postgresql"),
            ("PostgreSQL", "postgresql"),
            ("sqlite3", "sqlite"),
            (Dialect.POSTGRES, "postgresql"),
        ],
    )
    def test_loose_spellings(self, loose, canonical):
        assert canonical_dialect_name(loose) == canonical
        assert frontend_for(loose).name == canonical

    @pytest.mark.parametrize("bad", ["mssql", "oracle", "dBASE"])
    def test_unsupported_raises(self, bad):
        with pytest.raises(UnsupportedDialectError):
            canonical_dialect_name(bad)


# -- the store's dialect column ---------------------------------------------

MIXED = ("mysql", "postgresql", "sqlite")


def _mixed_store(tmp_path, count=30, seed=7, name="corpus.sqlite"):
    store = CorpusStore(tmp_path / name)
    spec = StreamSpec(seed=seed, count=count, dialects=MIXED)
    ingest_stream(store, spec)
    return store


class TestStoreDialect:
    def test_dialect_filter_pages(self, tmp_path):
        store = _mixed_store(tmp_path)
        page = store.query_projects(dialect="postgresql", limit=100)
        assert page.total == store.aggregates()["by_dialect"]["postgresql"]
        assert all(p.dialect == "postgresql" for p in page.projects)

    def test_dialect_filter_uses_covering_index(self, tmp_path):
        store = _mixed_store(tmp_path)
        with sqlite3.connect(store.path) as conn:
            plan = " ".join(
                row[3]
                for row in conn.execute(
                    "EXPLAIN QUERY PLAN SELECT id FROM projects"
                    " WHERE dialect = ? ORDER BY id LIMIT 50",
                    ("sqlite",),
                )
            )
        assert "idx_projects_dialect_id" in plan
        assert "SCAN projects" not in plan

    def test_v4_store_migrates_in_place(self, tmp_path):
        store = _mixed_store(tmp_path, count=10)
        path = store.path
        content_hash = store.content_hash()
        store.close()
        # Downgrade the file to the v4 shape: no dialect column, no
        # dialect index, version stamp 4.
        with sqlite3.connect(path) as conn:
            conn.execute("DROP INDEX idx_projects_dialect_id")
            conn.execute("ALTER TABLE projects DROP COLUMN dialect")
            conn.execute(
                "UPDATE meta SET value = '4' WHERE key = 'schema_version'"
            )
        reopened = CorpusStore(path)
        assert reopened.get_meta("schema_version") == str(STORE_SCHEMA_VERSION)
        # The migration backfills the paper's DBMS and rebuilds the index.
        assert reopened.dialects() == ["mysql"]
        assert reopened.content_hash() == content_hash
        with sqlite3.connect(path) as conn:
            names = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
        assert "idx_projects_dialect_id" in names

class TestStreamDialects:
    def test_default_spec_is_byte_identical(self):
        from repro.synthesis.stream import synthesize_project

        baseline = StreamSpec(seed=2019, count=5)
        explicit = StreamSpec(seed=2019, count=5, dialects=("mysql",))
        for index in range(5):
            a = synthesize_project(baseline, index)
            b = synthesize_project(explicit, index)
            assert (a.name, a.dialect) == (b.name, "mysql")
            assert a.plan == b.plan

    def test_mixed_spec_draws_every_dialect(self):
        from repro.synthesis.stream import synthesize_project

        spec = StreamSpec(seed=7, count=30, dialects=MIXED)
        seen = {synthesize_project(spec, i).dialect for i in range(30)}
        assert seen == set(MIXED)

    def test_spec_rejects_unknown_and_duplicate_dialects(self):
        with pytest.raises(ValueError):
            StreamSpec(seed=1, count=1, dialects=("mysql", "mysql"))
        with pytest.raises(UnsupportedDialectError):
            StreamSpec(seed=1, count=1, dialects=("dBASE",))


class TestLoadgenDialectFamily:
    def test_default_weight_is_zero(self, tmp_path):
        from repro.loadgen.workload import DEFAULT_WEIGHTS, WorkloadModel

        assert DEFAULT_WEIGHTS["dialect"] == 0
        store = _mixed_store(tmp_path)
        model = WorkloadModel.from_store(store)
        assert model.catalog.dialects == ()  # not even gathered
        assert all(r.family != "dialect" for r in model.plan(100))

    def test_opt_in_family_emits_filter_queries(self, tmp_path):
        from repro.loadgen.workload import DEFAULT_WEIGHTS, WorkloadModel

        store = _mixed_store(tmp_path)
        weights = dict(DEFAULT_WEIGHTS)
        weights["dialect"] = 10
        model = WorkloadModel.from_store(store, weights=weights)
        planned = [r for r in model.plan(200) if r.family == "dialect"]
        assert planned
        assert all(
            r.path.startswith("/v1/projects?dialect=") for r in planned
        )

    def test_plans_are_replayable(self, tmp_path):
        from repro.loadgen.workload import DEFAULT_WEIGHTS, WorkloadModel, plan_digest

        store = _mixed_store(tmp_path)
        weights = dict(DEFAULT_WEIGHTS)
        weights["dialect"] = 10
        one = WorkloadModel.from_store(store, weights=weights)
        two = WorkloadModel.from_store(store, weights=weights)
        assert plan_digest(one.plan(100)) == plan_digest(two.plan(100))


class TestServeDialect:
    def test_projects_dialect_filter(self, tmp_path):
        from repro.serve import CorpusService

        store = _mixed_store(tmp_path)
        service = CorpusService(store)
        response = service.handle(
            "/v1/projects", {"dialect": "sqlite", "limit": "100"}
        )
        assert response.status == 200
        projects = response.payload["projects"]
        assert projects
        assert all(p["dialect"] == "sqlite" for p in projects)
        assert response.payload["total"] == (
            store.aggregates()["by_dialect"]["sqlite"]
        )

    def test_taxa_carries_per_dialect_breakdown(self, tmp_path):
        from repro.serve import CorpusService

        service = CorpusService(_mixed_store(tmp_path))
        response = service.handle("/v1/taxa", {})
        assert response.status == 200
        assert set(response.payload["by_dialect"]) == set(MIXED)

    def test_stats_carries_dialect_counts(self, tmp_path):
        from repro.serve import CorpusService

        service = CorpusService(_mixed_store(tmp_path))
        response = service.handle("/v1/stats", {})
        assert response.status == 200
        counts = response.payload["by_dialect"]
        assert sum(counts.values()) == 30


class TestDialectReporting:
    def test_comparison_renders_for_mixed_corpora(self, tmp_path):
        from repro.reporting.experiments import (
            ExperimentSuite,
            render_dialect_comparison,
        )

        suite = ExperimentSuite.from_store(_mixed_store(tmp_path, count=60))
        text = render_dialect_comparison(suite.dialect_profiles)
        assert "Cross-dialect comparison" in text
        for dialect in MIXED:
            assert dialect in text

    def test_single_dialect_report_is_untouched(self, tmp_path):
        from repro.reporting.experiments import render_dialect_comparison

        store = CorpusStore(tmp_path / "mono.sqlite")
        ingest_stream(store, StreamSpec(seed=7, count=10))
        assert render_dialect_comparison(store.dialect_profiles()) == ""


# -- multi-vendor file choice ------------------------------------------------


def _rec(path):
    return SqlFileRecord(repo_name="owner/proj", path=path)


MULTI_VENDOR = [
    _rec("db/mysql/schema.sql"),
    _rec("db/pgsql/schema.sql"),
    _rec("db/sqlite/schema.sql"),
]


class TestChooseDdlFileDialects:
    def test_default_preference_is_the_papers(self):
        assert DEFAULT_VENDOR_PREFERENCE == (Dialect.MYSQL,)
        choice = choose_ddl_file(MULTI_VENDOR)
        assert choice.verdict is MultiFileVerdict.VENDOR_CHOICE
        assert choice.chosen.path == "db/mysql/schema.sql"

    def test_preference_order_selects_vendor(self):
        prefs = vendor_preference(("postgresql", "mysql"))
        choice = choose_ddl_file(MULTI_VENDOR, dialects=prefs)
        assert choice.chosen.path == "db/pgsql/schema.sql"

    def test_choice_is_permutation_invariant(self):
        prefs = vendor_preference(("sqlite", "postgresql", "mysql"))
        chosen = {
            choose_ddl_file(list(order), dialects=prefs).chosen.path
            for order in itertools.permutations(MULTI_VENDOR)
        }
        assert chosen == {"db/sqlite/schema.sql"}

    def test_dialect_for_choice_honors_enabled_set(self):
        # An enabled frontend named by the path wins ...
        assert (
            dialect_for_choice("db/pgsql/schema.sql", ("mysql", "postgresql"))
            == "postgresql"
        )
        # ... a hint for a *disabled* vendor falls back to the primary.
        assert dialect_for_choice("db/pgsql/schema.sql", ("mysql",)) == "mysql"
        # ... and unknown paths parse through the primary dialect.
        assert dialect_for_choice("db/schema.sql", ("sqlite", "mysql")) == "sqlite"
