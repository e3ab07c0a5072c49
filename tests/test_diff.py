"""Tests for the six-category schema diff."""

from hypothesis import given, settings

from repro.core.diff import ChangeKind, diff_schemas
from repro.schema import build_schema
from tests.test_smo import random_schema


def schema_of(sql):
    return build_schema(sql)


class TestTableBirthAndDeath:
    def test_new_table_attrs_born(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE a (x INT); CREATE TABLE b (p INT, q INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_born == 2
        assert diff.tables_inserted == ("b",)
        assert diff.expansion == 2
        assert diff.maintenance == 0

    def test_dropped_table_attrs_deleted(self):
        old = schema_of("CREATE TABLE a (x INT); CREATE TABLE b (p INT, q INT, r INT);")
        new = schema_of("CREATE TABLE a (x INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_deleted == 3
        assert diff.tables_deleted == ("b",)
        assert diff.maintenance == 3

    def test_rename_counts_as_birth_and_death(self):
        # No rename heuristics at the logical level (like Hecate).
        old = schema_of("CREATE TABLE a (x INT, y INT);")
        new = schema_of("CREATE TABLE b (x INT, y INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_born == 2
        assert diff.attrs_deleted == 2
        assert diff.activity == 4

    def test_case_insensitive_table_match(self):
        old = schema_of("CREATE TABLE Users (x INT);")
        new = schema_of("CREATE TABLE users (x INT);")
        assert diff_schemas(old, new).activity == 0


class TestIntraTableChanges:
    def test_injection(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE a (x INT, y INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_injected == 1
        assert diff.expansion == 1

    def test_ejection(self):
        old = schema_of("CREATE TABLE a (x INT, y INT);")
        new = schema_of("CREATE TABLE a (x INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_ejected == 1
        assert diff.maintenance == 1

    def test_attribute_rename_is_eject_plus_inject(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE a (z INT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_injected == 1
        assert diff.attrs_ejected == 1

    def test_type_change(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE a (x BIGINT);")
        diff = diff_schemas(old, new)
        assert diff.attrs_type_changed == 1
        assert diff.maintenance == 1

    def test_display_width_is_not_a_type_change(self):
        old = schema_of("CREATE TABLE a (x INT(11));")
        new = schema_of("CREATE TABLE a (x INT);")
        assert diff_schemas(old, new).activity == 0

    def test_varchar_resize_is_a_type_change(self):
        old = schema_of("CREATE TABLE a (x VARCHAR(64));")
        new = schema_of("CREATE TABLE a (x VARCHAR(255));")
        assert diff_schemas(old, new).attrs_type_changed == 1

    def test_type_change_detail(self):
        old = schema_of("CREATE TABLE a (x INT);")
        new = schema_of("CREATE TABLE a (x TEXT);")
        change = diff_schemas(old, new).changes[0]
        assert change.detail == "INT -> TEXT"

    def test_nullability_change_is_not_counted(self):
        old = schema_of("CREATE TABLE a (x INT NOT NULL);")
        new = schema_of("CREATE TABLE a (x INT NULL);")
        assert diff_schemas(old, new).activity == 0


class TestPrimaryKeyChanges:
    def test_pk_widening_counts_added_attr(self):
        old = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x));")
        new = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x, y));")
        diff = diff_schemas(old, new)
        assert diff.attrs_pk_changed == 1
        assert diff.changes[0].attribute == "y"

    def test_pk_narrowing(self):
        old = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x, y));")
        new = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x));")
        assert diff_schemas(old, new).attrs_pk_changed == 1

    def test_pk_swap_counts_both_sides(self):
        old = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x));")
        new = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (y));")
        assert diff_schemas(old, new).attrs_pk_changed == 2

    def test_pk_order_change_is_not_a_change(self):
        old = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x, y));")
        new = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (y, x));")
        assert diff_schemas(old, new).activity == 0

    def test_removed_pk_attr_counts_only_as_ejection(self):
        # The departing attribute is gone; the surviving PK members are
        # unchanged, so no extra PK-change count.
        old = schema_of("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x, y));")
        new = schema_of("CREATE TABLE a (y INT, PRIMARY KEY (y));")
        diff = diff_schemas(old, new)
        assert diff.attrs_ejected == 1
        assert diff.attrs_pk_changed == 0
        assert diff.activity == 1


class TestAggregates:
    def test_identity_diff_is_empty(self):
        schema = schema_of("CREATE TABLE a (x INT, y TEXT, PRIMARY KEY (x));")
        diff = diff_schemas(schema, schema)
        assert diff.activity == 0
        assert not diff.is_active

    def test_expansion_plus_maintenance_equals_activity(self):
        old = schema_of("CREATE TABLE a (x INT, y INT); CREATE TABLE b (p INT);")
        new = schema_of("CREATE TABLE a (x BIGINT, z INT); CREATE TABLE c (q INT, r INT);")
        diff = diff_schemas(old, new)
        assert diff.expansion + diff.maintenance == diff.activity == len(diff.changes)

    def test_mixed_transition(self):
        old = schema_of(
            "CREATE TABLE keep (a INT, b INT, PRIMARY KEY (a));"
            "CREATE TABLE dying (p INT, q INT);"
        )
        new = schema_of(
            "CREATE TABLE keep (a INT, b TEXT, c INT, PRIMARY KEY (a, c));"
            "CREATE TABLE born (r INT);"
        )
        diff = diff_schemas(old, new)
        assert diff.attrs_born == 1  # born.r
        assert diff.attrs_injected == 1  # keep.c
        assert diff.attrs_deleted == 2  # dying.p, dying.q
        assert diff.attrs_type_changed == 1  # keep.b
        # keep.c joined the PK but is newly injected: it counts once as
        # injected, not additionally as a PK change (the PK category is
        # restricted to attributes surviving the transition).
        assert diff.attrs_pk_changed == 0
        assert diff.expansion == 2
        assert diff.maintenance == 3


# -- property-based invariants ------------------------------------------

class TestDiffProperties:
    @given(schema=random_schema())
    @settings(max_examples=80, deadline=None)
    def test_self_diff_is_always_empty(self, schema):
        assert diff_schemas(schema, schema).activity == 0

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=80, deadline=None)
    def test_reverse_diff_swaps_birth_and_death(self, old, new):
        forward = diff_schemas(old, new)
        backward = diff_schemas(new, old)
        assert forward.attrs_born == backward.attrs_deleted
        assert forward.attrs_deleted == backward.attrs_born
        assert forward.attrs_injected == backward.attrs_ejected
        assert forward.attrs_type_changed == backward.attrs_type_changed
        assert forward.attrs_pk_changed == backward.attrs_pk_changed
        assert forward.activity == backward.activity

    @given(old=random_schema(), new=random_schema())
    @settings(max_examples=80, deadline=None)
    def test_table_resizing_consistency(self, old, new):
        diff = diff_schemas(old, new)
        assert len(diff.tables_inserted) == len(new) - len(
            set(new.by_key()) & set(old.by_key())
        )
        assert len(diff.tables_deleted) == len(old) - len(
            set(new.by_key()) & set(old.by_key())
        )
