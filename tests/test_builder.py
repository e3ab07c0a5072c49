"""Tests for replaying DDL scripts into logical schemata."""

import time
from functools import partial

import pytest

from repro.schema import Attribute, Schema, Table, build_schema
from repro.schema.builder import BuildReport, SchemaBuildError
from repro.smo import AddColumn, CreateTableOp, apply_script
from repro.sqlddl.types import DataType

INT = DataType("INT")


class TestCreate:
    def test_single_table(self):
        schema = build_schema("CREATE TABLE t (a INT, b TEXT);")
        assert schema.table_names == ("t",)
        assert len(schema.table("t")) == 2

    def test_primary_key_from_constraint(self):
        schema = build_schema("CREATE TABLE t (a INT, b INT, PRIMARY KEY (b, a));")
        assert schema.table("t").primary_key == ("b", "a")

    def test_inline_primary_key(self):
        schema = build_schema("CREATE TABLE t (a INT PRIMARY KEY, b INT);")
        assert schema.table("t").primary_key == ("a",)

    def test_recreate_replaces_when_lenient(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); CREATE TABLE t (a INT, b INT);"
        )
        assert len(schema.table("t")) == 2

    def test_recreate_raises_when_strict(self):
        with pytest.raises(SchemaBuildError):
            build_schema(
                "CREATE TABLE t (a INT); CREATE TABLE t (b INT);", lenient=False
            )

    def test_if_not_exists_keeps_original(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); CREATE TABLE IF NOT EXISTS t (a INT, b INT);"
        )
        assert len(schema.table("t")) == 1

    def test_multiple_tables_preserve_order(self):
        schema = build_schema(
            "CREATE TABLE z (a INT); CREATE TABLE a (b INT); CREATE TABLE m (c INT);"
        )
        assert schema.table_names == ("z", "a", "m")


class TestDrop:
    def test_drop(self):
        schema = build_schema("CREATE TABLE t (a INT); DROP TABLE t;")
        assert len(schema) == 0

    def test_drop_then_recreate(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); DROP TABLE t; CREATE TABLE t (a INT, b INT);"
        )
        assert len(schema.table("t")) == 2

    def test_drop_missing_lenient_is_noop(self):
        schema = build_schema("DROP TABLE ghost; CREATE TABLE t (a INT);")
        assert schema.table_names == ("t",)

    def test_drop_missing_strict_raises(self):
        with pytest.raises(SchemaBuildError):
            build_schema("DROP TABLE ghost;", lenient=False)

    def test_drop_if_exists_missing_is_fine_even_strict(self):
        schema = build_schema("DROP TABLE IF EXISTS ghost;", lenient=False)
        assert len(schema) == 0

    def test_typical_dump_prelude(self):
        schema = build_schema(
            "DROP TABLE IF EXISTS `t`;\nCREATE TABLE `t` (a INT);"
        )
        assert schema.table_names == ("t",)


class TestAlter:
    def test_add_column(self):
        schema = build_schema("CREATE TABLE t (a INT); ALTER TABLE t ADD b TEXT;")
        assert schema.table("t").attribute_names == ("a", "b")

    def test_add_duplicate_column_lenient_noop(self):
        schema = build_schema("CREATE TABLE t (a INT); ALTER TABLE t ADD a TEXT;")
        assert schema.table("t").attribute("a").data_type.base == "INT"

    def test_drop_column(self):
        schema = build_schema(
            "CREATE TABLE t (a INT, b INT); ALTER TABLE t DROP COLUMN a;"
        )
        assert schema.table("t").attribute_names == ("b",)

    def test_drop_pk_column_shrinks_pk(self):
        schema = build_schema(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));"
            "ALTER TABLE t DROP COLUMN a;"
        )
        assert schema.table("t").primary_key == ("b",)

    def test_modify_column_type(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t MODIFY a BIGINT;"
        )
        assert schema.table("t").attribute("a").data_type.base == "BIGINT"

    def test_change_column_renames_and_retypes(self):
        schema = build_schema(
            "CREATE TABLE t (a INT, PRIMARY KEY (a));"
            "ALTER TABLE t CHANGE a b BIGINT;"
        )
        t = schema.table("t")
        assert t.attribute_names == ("b",)
        assert t.primary_key == ("b",)
        assert t.attribute("b").data_type.base == "BIGINT"

    def test_rename_column(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t RENAME COLUMN a TO z;"
        )
        assert schema.table("t").attribute_names == ("z",)

    def test_rename_column_keeps_type(self):
        schema = build_schema(
            "CREATE TABLE t (a DECIMAL(8,2)); ALTER TABLE t RENAME COLUMN a TO z;"
        )
        assert schema.table("t").attribute("z").data_type.base == "DECIMAL"

    def test_add_primary_key(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD PRIMARY KEY (a);"
        )
        assert schema.table("t").primary_key == ("a",)

    def test_drop_primary_key(self):
        schema = build_schema(
            "CREATE TABLE t (a INT PRIMARY KEY); ALTER TABLE t DROP PRIMARY KEY;"
        )
        assert schema.table("t").primary_key == ()

    def test_alter_rename_table(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t RENAME TO s;"
        )
        assert schema.table_names == ("s",)

    def test_alter_unknown_table_lenient_noop(self):
        schema = build_schema("ALTER TABLE ghost ADD a INT;")
        assert len(schema) == 0

    def test_alter_unknown_table_strict_raises(self):
        with pytest.raises(SchemaBuildError):
            build_schema("ALTER TABLE ghost ADD a INT;", lenient=False)

    def test_alter_unknown_column_strict_raises(self):
        with pytest.raises(SchemaBuildError):
            build_schema(
                "CREATE TABLE t (a INT); ALTER TABLE t DROP COLUMN ghost;",
                lenient=False,
            )

    def test_multi_action_alter(self):
        schema = build_schema(
            "CREATE TABLE t (a INT, b INT);"
            "ALTER TABLE t DROP COLUMN a, ADD c TEXT, MODIFY b BIGINT;"
        )
        t = schema.table("t")
        assert t.attribute_names == ("b", "c")
        assert t.attribute("b").data_type.base == "BIGINT"

    def test_engine_alter_is_logical_noop(self):
        schema = build_schema("CREATE TABLE t (a INT); ALTER TABLE t ENGINE=MyISAM;")
        assert len(schema.table("t")) == 1

    def test_add_index_is_logical_noop(self):
        schema = build_schema(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD KEY idx (a);"
        )
        assert schema.table("t").primary_key == ()


class TestRename:
    def test_rename_table_statement(self):
        schema = build_schema("CREATE TABLE a (x INT); RENAME TABLE a TO b;")
        assert schema.table_names == ("b",)

    def test_rename_chain(self):
        schema = build_schema(
            "CREATE TABLE a (x INT); RENAME TABLE a TO b, b TO c;"
        )
        assert schema.table_names == ("c",)

    def test_rename_missing_lenient(self):
        schema = build_schema("RENAME TABLE ghost TO g2;")
        assert len(schema) == 0

    def test_rename_to_its_own_name_moves_the_table_last(self):
        schema = build_schema("CREATE TABLE a (x INT); CREATE TABLE b (y INT); RENAME TABLE a TO A;")
        assert schema.table_names == ("b", "A")


#: Renames onto a name already taken (MySQL rejects each with no
#: effect), each followed by an edit that must still apply.
TAKEN_NAME_RENAMES = {
    "rename table": (
        "RENAME TABLE a TO b, c TO d;",
        ("a", "b", "d"),
        None,
    ),
    "alter rename table": (
        "ALTER TABLE a RENAME TO b, ADD COLUMN z INT;",
        ("a", "b", "c"),
        ("a", ("x", "y", "z")),
    ),
    "change column": (
        "ALTER TABLE a CHANGE x y INT, ADD COLUMN z INT;",
        ("a", "b", "c"),
        ("a", ("x", "y", "z")),
    ),
    "rename column": (
        "ALTER TABLE a RENAME COLUMN x TO Y, ADD COLUMN z INT;",
        ("a", "b", "c"),
        ("a", ("x", "y", "z")),
    ),
}
TAKEN_NAME_BASE = "CREATE TABLE a (x INT, y INT); CREATE TABLE b (y INT); CREATE TABLE c (w INT);"


class TestRenameOntoTakenName:
    @pytest.mark.parametrize("form", sorted(TAKEN_NAME_RENAMES))
    def test_lenient_skips_the_rename_and_applies_the_rest(self, form):
        statement, tables, columns = TAKEN_NAME_RENAMES[form]
        schema = build_schema(TAKEN_NAME_BASE + statement)
        assert schema.table_names == tables
        assert schema.table("b").attribute_names == ("y",)
        if columns is not None:
            table, names = columns
            assert schema.table(table).attribute_names == names

    @pytest.mark.parametrize("form", sorted(TAKEN_NAME_RENAMES))
    def test_strict_raises_a_build_error(self, form):
        statement = TAKEN_NAME_RENAMES[form][0]
        with pytest.raises(SchemaBuildError, match="already exists"):
            build_schema(TAKEN_NAME_BASE + statement, lenient=False)

    def test_skipped_rename_pair_is_not_counted(self):
        report = BuildReport()
        build_schema(TAKEN_NAME_BASE + "RENAME TABLE a TO b, c TO d;", report=report)
        assert report.renamed == 1


class TestReport:
    def test_report_counts(self):
        report = BuildReport()
        build_schema(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT);"
            "DROP TABLE a; ALTER TABLE b ADD z INT;"
            "INSERT INTO b VALUES (1, 2); SET NAMES utf8;",
            report=report,
        )
        assert report.created == 2
        assert report.dropped == 1
        assert report.altered == 1
        assert report.ignored == 2
        assert report.ignored_verbs == {"INSERT": 1, "SET": 1}

    def test_ignored_statements_do_not_affect_schema(self):
        schema = build_schema(
            "CREATE TABLE t (a INT);"
            "INSERT INTO t VALUES (1);"
            "CREATE INDEX i ON t (a);"
            "UPDATE t SET a = 2;"
        )
        assert schema.size.attributes == 1


class TestLinearReplay:
    """Replay time grows linearly in statements or operations: about 2x
    per doubling, where a replay that rebuilds the schema per statement
    or operation reads 3 to 5.  Each case is ``(make_call, n)``:
    ``make_call(n)`` builds the input outside the timed region and
    returns the call to time; n is large enough that one call takes
    about 20 ms or more."""

    @staticmethod
    def best_of_three(call) -> float:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        return min(times)

    @pytest.mark.parametrize(
        "make_call, n",
        [
            (
                lambda n: partial(
                    build_schema,
                    "".join(f"CREATE TABLE t{i} (c INT);\n" for i in range(n)),
                ),
                2000,
            ),
            (
                lambda n: partial(
                    build_schema,
                    "CREATE TABLE t (c INT);\n"
                    + "".join(f"ALTER TABLE t ADD COLUMN c{i} INT;\n" for i in range(n)),
                ),
                2000,
            ),
            (
                lambda n: partial(
                    apply_script,
                    Schema(),
                    [
                        CreateTableOp(Table(f"t{i}", (Attribute("c", INT),)))
                        for i in range(n)
                    ],
                ),
                16000,
            ),
            (
                lambda n: partial(
                    apply_script,
                    Schema((Table("t", (Attribute("c", INT),)),)),
                    [AddColumn("t", Attribute(f"c{i}", INT)) for i in range(n)],
                ),
                16000,
            ),
        ],
        ids=["creates", "add-columns", "smo-creates", "smo-add-columns"],
    )
    def test_doubling_the_statements_at_most_doubles_the_time(self, make_call, n):
        once, twice = make_call(n), make_call(2 * n)
        ratios = []
        # A busy host can stretch one best-of-3 past 2.5; a quadratic
        # replay stays above 3 on every attempt.
        for _ in range(3):
            ratios.append(self.best_of_three(twice) / self.best_of_three(once))
            if ratios[-1] < 2.5:
                break
        assert ratios[-1] < 2.5, ratios
