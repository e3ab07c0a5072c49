"""Tests for the SMO algebra: infer, apply, invert, and cost agreement."""

from string import ascii_lowercase, digits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff import diff_schemas
from repro.schema import Attribute, Schema, Table, build_schema
from repro.smo import (
    AddColumn,
    ChangeColumnType,
    CreateTableOp,
    DropColumn,
    DropTableOp,
    RenameColumn,
    RenameTable,
    SetPrimaryKey,
    SmoError,
    apply_script,
    infer_smos,
    invert_script,
    invert_smo,
)
from repro.sqlddl.types import DataType

INT = DataType("INT")
TEXT = DataType("TEXT")


def schema_of(sql):
    return build_schema(sql)


class TestApply:
    def test_create_table(self):
        table = Table("t", (Attribute("a", INT),))
        schema = apply_script(Schema(), [CreateTableOp(table)])
        assert schema.table("t") is not None

    def test_create_duplicate_raises(self):
        table = Table("t", (Attribute("a", INT),))
        schema = Schema((table,))
        with pytest.raises(SmoError):
            apply_script(schema, [CreateTableOp(table)])

    def test_drop_table(self):
        table = Table("t", (Attribute("a", INT),))
        schema = apply_script(Schema((table,)), [DropTableOp(table)])
        assert len(schema) == 0

    def test_drop_missing_raises(self):
        with pytest.raises(SmoError):
            apply_script(Schema(), [DropTableOp(Table("ghost", (Attribute("a", INT),)))])

    def test_rename_table(self):
        schema = schema_of("CREATE TABLE a (x INT);")
        renamed = apply_script(schema, [RenameTable("a", "b")])
        assert renamed.table_names == ("b",)

    def test_rename_collision_raises(self):
        schema = schema_of("CREATE TABLE a (x INT); CREATE TABLE b (y INT);")
        with pytest.raises(SmoError):
            apply_script(schema, [RenameTable("a", "b")])

    def test_add_column(self):
        schema = schema_of("CREATE TABLE t (a INT);")
        result = apply_script(schema, [AddColumn("t", Attribute("b", TEXT))])
        assert result.table("t").attribute_names == ("a", "b")

    def test_add_column_into_pk(self):
        schema = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        result = apply_script(
            schema, [AddColumn("t", Attribute("b", INT), into_primary_key=True)]
        )
        assert result.table("t").pk_key == ("a", "b")

    def test_add_duplicate_column_raises(self):
        schema = schema_of("CREATE TABLE t (a INT);")
        with pytest.raises(SmoError):
            apply_script(schema, [AddColumn("t", Attribute("A", TEXT))])

    def test_drop_column_removes_pk_membership(self):
        schema = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));")
        result = apply_script(schema, [DropColumn("t", Attribute("b", INT))])
        assert result.table("t").pk_key == ("a",)

    def test_rename_column_preserves_pk(self):
        schema = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        result = apply_script(schema, [RenameColumn("t", "a", "z")])
        assert result.table("t").pk_key == ("z",)

    def test_change_type_checks_precondition(self):
        schema = schema_of("CREATE TABLE t (a INT);")
        good = ChangeColumnType("t", "a", INT, TEXT)
        assert apply_script(schema, [good]).table("t").attribute("a").data_type == TEXT
        bad = ChangeColumnType("t", "a", TEXT, INT)
        with pytest.raises(SmoError):
            apply_script(schema, [bad])

    def test_set_primary_key_checks_precondition(self):
        schema = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a));")
        op = SetPrimaryKey("t", old_key=("a",), new_key=("a", "b"))
        assert apply_script(schema, [op]).table("t").pk_key == ("a", "b")
        with pytest.raises(SmoError):
            apply_script(schema, [SetPrimaryKey("t", old_key=("b",), new_key=("a",))])

    def test_set_primary_key_requires_columns(self):
        schema = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        with pytest.raises(SmoError):
            apply_script(schema, [SetPrimaryKey("t", old_key=("a",), new_key=("ghost",))])

    def test_case_only_renames_raise(self):
        schema = schema_of("CREATE TABLE t (a INT);")
        with pytest.raises(SmoError, match="table 'T' already exists"):
            apply_script(schema, [RenameTable("t", "T")])
        with pytest.raises(SmoError, match="column 'A' already exists in 't'"):
            apply_script(schema, [RenameColumn("t", "a", "A")])

    def test_a_script_never_changes_its_input(self):
        ddl = "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a)); CREATE TABLE u (c INT);"
        schema = schema_of(ddl)
        script = [
            AddColumn("t", Attribute("z", INT), into_primary_key=True),
            DropColumn("t", Attribute("b", INT)),
            RenameColumn("t", "a", "k"),
            ChangeColumnType("t", "k", INT, TEXT),
            SetPrimaryKey("t", old_key=("k", "z"), new_key=("z",)),
            RenameTable("u", "v"),
            AddColumn("v", Attribute("d", INT)),
        ]
        applied = apply_script(schema, script)
        assert applied.table("t").attribute_names == ("k", "z")
        assert applied.table("t").primary_key == ("z",)
        assert applied.table_names == ("t", "v")
        assert schema == schema_of(ddl)


def count_constructions(monkeypatch, cls) -> list:
    """Record each *cls* instance constructed while the patch holds."""
    built: list = []
    original = cls.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return built


class TestOneFreezePerScript:
    def test_a_script_builds_one_schema_and_each_edited_table_once(self, monkeypatch):
        from repro.smo import render_script

        k = 200
        base = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a)); CREATE TABLE u (b INT);")
        script = [
            AddColumn("t", Attribute(f"c{i}", INT), into_primary_key=i % 2 == 0)
            for i in range(k)
        ] + [CreateTableOp(Table(f"n{i}", (Attribute("a", INT),))) for i in range(k)]
        schemas = count_constructions(monkeypatch, Schema)
        tables = count_constructions(monkeypatch, Table)
        applied = apply_script(base, script)
        assert (len(schemas), len(tables)) == (1, 1)
        assert len(applied.table("t")) == k + 1 and len(applied) == k + 2
        schemas.clear()
        tables.clear()
        sql = render_script(script, base)
        assert len(schemas) <= 1 and len(tables) <= 1
        assert sql.count("ADD PRIMARY KEY") == k // 2


class TestCosts:
    def test_costs(self):
        table = Table("t", (Attribute("a", INT), Attribute("b", INT)))
        assert CreateTableOp(table).cost == 2
        assert DropTableOp(table).cost == 2
        assert AddColumn("t", Attribute("c", INT)).cost == 1
        assert DropColumn("t", Attribute("a", INT)).cost == 1
        assert RenameTable("t", "u").cost == 0
        assert RenameColumn("t", "a", "b").cost == 0
        assert ChangeColumnType("t", "a", INT, TEXT).cost == 1

    def test_pk_cost_fallback(self):
        op = SetPrimaryKey("t", old_key=("a",), new_key=("a", "b"))
        assert op.cost == 1

    def test_pk_cost_counted_override(self):
        op = SetPrimaryKey("t", old_key=("a",), new_key=("a", "b"), counted_changes=0)
        assert op.cost == 0

    def test_describe_is_informative(self):
        op = ChangeColumnType("users", "age", INT, TEXT)
        assert "users" in op.describe()
        assert "age" in op.describe()


class TestInfer:
    def test_empty_diff_empty_script(self):
        schema = schema_of("CREATE TABLE t (a INT);")
        assert infer_smos(schema, schema) == []

    def test_table_create(self):
        old = Schema()
        new = schema_of("CREATE TABLE t (a INT, b INT);")
        script = infer_smos(old, new)
        assert len(script) == 1
        assert isinstance(script[0], CreateTableOp)

    def test_mixed_transition_applies_faithfully(self):
        old = schema_of(
            "CREATE TABLE keep (a INT, b INT, PRIMARY KEY (a));"
            "CREATE TABLE dying (p INT);"
        )
        new = schema_of(
            "CREATE TABLE keep (a INT, b TEXT, c INT, PRIMARY KEY (a, b));"
            "CREATE TABLE born (q INT, r INT, PRIMARY KEY (q));"
        )
        script = infer_smos(old, new)
        assert apply_script(old, script).canonical() == new.canonical()

    def test_pk_change_via_drop_emits_no_setpk(self):
        old = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));")
        new = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        script = infer_smos(old, new)
        assert not any(isinstance(op, SetPrimaryKey) for op in script)
        assert apply_script(old, script).canonical() == new.canonical()

    def test_pk_change_via_injection_emits_no_setpk(self):
        old = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        new = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));")
        script = infer_smos(old, new)
        assert not any(isinstance(op, SetPrimaryKey) for op in script)
        assert apply_script(old, script).canonical() == new.canonical()

    def test_pure_pk_swap_costs_two(self):
        old = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a));")
        new = schema_of("CREATE TABLE t (a INT, b INT, PRIMARY KEY (b));")
        script = infer_smos(old, new)
        assert sum(op.cost for op in script) == 2

    def test_rename_is_drop_plus_create(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE b (x INT);")
        kinds = [type(op) for op in infer_smos(old, new)]
        assert kinds == [DropTableOp, CreateTableOp]


class TestInvert:
    def test_each_op_inverts(self):
        table = Table("t", (Attribute("a", INT),))
        pairs = [
            (CreateTableOp(table), DropTableOp),
            (DropTableOp(table), CreateTableOp),
            (RenameTable("a", "b"), RenameTable),
            (AddColumn("t", Attribute("c", INT)), DropColumn),
            (DropColumn("t", Attribute("c", INT)), AddColumn),
            (RenameColumn("t", "a", "b"), RenameColumn),
            (ChangeColumnType("t", "a", INT, TEXT), ChangeColumnType),
            (SetPrimaryKey("t", ("a",), ("b",)), SetPrimaryKey),
        ]
        for op, inverse_type in pairs:
            assert isinstance(invert_smo(op), inverse_type)

    def test_double_inversion_is_identity(self):
        op = ChangeColumnType("t", "a", INT, TEXT)
        assert invert_smo(invert_smo(op)) == op

    def test_script_inversion_reverses_order(self):
        script = [AddColumn("t", Attribute("x", INT)), RenameTable("t", "u")]
        inverse = invert_script(script)
        assert isinstance(inverse[0], RenameTable)
        assert isinstance(inverse[1], DropColumn)


# -- property-based contracts -------------------------------------------

_types = st.sampled_from([INT, TEXT, DataType("BIGINT"), DataType("VARCHAR", ("64",))])
#: ``[a-z][a-z0-9_]{0,6}``, drawn without the regex engine.
_names = st.tuples(
    st.sampled_from(ascii_lowercase),
    st.text(ascii_lowercase + digits + "_", max_size=6),
).map("".join)


@st.composite
def random_schema(draw):
    n_tables = draw(st.integers(min_value=0, max_value=4))
    chosen, seen = [], set()
    while len(chosen) < n_tables:
        name = draw(_names)
        if name in seen:
            continue
        seen.add(name)
        cols = draw(st.lists(_names, min_size=1, max_size=5, unique_by=str.lower))
        attributes = tuple(Attribute(c, draw(_types)) for c in cols)
        pk = tuple(cols[: draw(st.integers(0, min(2, len(cols))))])
        chosen.append(Table(name, attributes, pk))
    return Schema(tuple(chosen))


class TestSmoProperties:
    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=150)
    def test_inferred_script_is_faithful(self, old, new):
        script = infer_smos(old, new)
        assert apply_script(old, script).canonical() == new.canonical()

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=150)
    def test_inferred_cost_equals_diff_activity(self, old, new):
        script = infer_smos(old, new)
        assert sum(op.cost for op in script) == diff_schemas(old, new).activity

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=100)
    def test_script_inversion_round_trips(self, old, new):
        script = infer_smos(old, new)
        after = apply_script(old, script)
        back = apply_script(after, invert_script(script))
        assert back.canonical() == old.canonical()

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=60)
    def test_empty_script_iff_no_activity(self, old, new):
        script = infer_smos(old, new)
        diff = diff_schemas(old, new)
        # A script can be non-empty with zero *counted* cost only when
        # the only change is PK membership of non-surviving attrs —
        # impossible here since such changes ride on Add/DropColumn.
        if diff.activity == 0 and old.canonical() == new.canonical():
            assert script == []


class TestRender:
    def test_render_each_op(self):
        from repro.smo import render_smo

        table = Table("t", (Attribute("a", INT),), ("a",))
        assert "CREATE TABLE" in render_smo(CreateTableOp(table))
        assert render_smo(DropTableOp(table)) == "DROP TABLE `t`;"
        assert render_smo(RenameTable("a", "b")) == "RENAME TABLE `a` TO `b`;"
        assert "ADD COLUMN `c` TEXT" in render_smo(AddColumn("t", Attribute("c", TEXT)))
        assert "DROP COLUMN `a`" in render_smo(DropColumn("t", Attribute("a", INT)))
        assert "RENAME COLUMN `a` TO `b`" in render_smo(RenameColumn("t", "a", "b"))
        assert "MODIFY COLUMN `a` TEXT" in render_smo(ChangeColumnType("t", "a", INT, TEXT))

    def test_render_set_pk_variants(self):
        from repro.smo import render_smo

        both = render_smo(SetPrimaryKey("t", ("a",), ("b",)))
        assert "DROP PRIMARY KEY" in both and "ADD PRIMARY KEY (`b`)" in both
        add_only = render_smo(SetPrimaryKey("t", (), ("b",)))
        assert "DROP PRIMARY KEY" not in add_only
        drop_only = render_smo(SetPrimaryKey("t", ("a",), ()))
        assert "ADD PRIMARY KEY" not in drop_only
        with pytest.raises(SmoError):
            render_smo(SetPrimaryKey("t", (), ()))

    def test_rendered_script_replays_through_builder(self):
        from repro.schema import apply_statements
        from repro.smo import render_script
        from repro.sqlddl import parse_script

        old = schema_of("CREATE TABLE t (a INT, PRIMARY KEY (a));")
        new = schema_of(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));"
            "CREATE TABLE u (x TEXT);"
        )
        script = infer_smos(old, new)
        sql = render_script(script, old)
        replayed = apply_statements(old, parse_script(sql), lenient=False)
        assert replayed.canonical() == new.canonical()

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=120)
    def test_render_replay_property(self, old, new):
        """SMO -> SQL -> parse -> builder equals SMO application."""
        from repro.schema import apply_statements
        from repro.smo import apply_script as smo_apply
        from repro.smo import render_script
        from repro.sqlddl import parse_script

        script = infer_smos(old, new)
        sql = render_script(script, old)
        via_sql = apply_statements(old, parse_script(sql), lenient=False)
        via_smo = smo_apply(old, script)
        assert via_sql.canonical() == via_smo.canonical() == new.canonical()
