"""Tests for the logical schema model."""

from dataclasses import FrozenInstanceError

import pytest

from repro.schema import Attribute, Schema, Table
from repro.smo import AddColumn, CreateTableOp, DropTableOp, SmoError, apply_script
from repro.sqlddl.types import DataType

INT = DataType("INT")
TEXT = DataType("TEXT")


def table(name, *cols, pk=()):
    return Table(
        name=name,
        attributes=tuple(Attribute(c, INT) for c in cols),
        primary_key=tuple(pk),
    )


class TestAttribute:
    def test_key_is_case_insensitive(self):
        assert Attribute("UserId", INT).key == "userid"

    def test_equality(self):
        assert Attribute("a", INT) == Attribute("a", INT)
        assert Attribute("a", INT) != Attribute("a", TEXT)


class TestTable:
    def test_len_counts_attributes(self):
        assert len(table("t", "a", "b", "c")) == 3

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            table("t", "a", "a")

    def test_duplicate_attribute_case_insensitive(self):
        with pytest.raises(ValueError):
            table("t", "a", "A")

    def test_attribute_lookup(self):
        t = table("t", "alpha", "beta")
        assert t.attribute("BETA").name == "beta"
        assert t.attribute("gamma") is None

    def test_attribute_names_preserve_order(self):
        assert table("t", "z", "a", "m").attribute_names == ("z", "a", "m")

    def test_pk_key_sorted_lowercase(self):
        t = table("t", "B", "A", pk=("B", "A"))
        assert t.pk_key == ("a", "b")

    def test_key(self):
        assert table("MyTable", "a").key == "mytable"


class TestSchema:
    def test_empty_schema(self):
        schema = Schema()
        assert len(schema) == 0
        assert schema.size.tables == 0
        assert schema.size.attributes == 0

    def test_size(self):
        schema = Schema((table("a", "x", "y"), table("b", "z")))
        assert schema.size.tables == 2
        assert schema.size.attributes == 3

    def test_duplicate_table_rejected(self):
        with pytest.raises(ValueError):
            Schema((table("t", "a"), table("T", "b")))

    def test_table_lookup_case_insensitive(self):
        schema = Schema((table("Users", "id"),))
        assert schema.table("users").name == "Users"
        assert schema.table("nothing") is None

    def test_contains(self):
        schema = Schema((table("users", "id"),))
        assert "USERS" in schema
        assert "posts" not in schema
        assert 42 not in schema

    # A schema gains, loses or edits a table only through an SMO script,
    # which replays on the builder's working tables and freezes once.
    def test_with_table(self):
        schema = apply_script(Schema((table("a", "x"),)), [CreateTableOp(table("b", "y"))])
        assert schema.table_names == ("a", "b")

    def test_with_table_rejects_duplicate(self):
        schema = Schema((table("a", "x"),))
        with pytest.raises(SmoError, match="table 'A' already exists"):
            apply_script(schema, [CreateTableOp(table("A", "y"))])

    def test_without_table(self):
        schema = Schema((table("a", "x"), table("b", "y")))
        assert apply_script(schema, [DropTableOp(table("A", "x"))]).table_names == ("b",)

    def test_without_missing_table_raises(self):
        with pytest.raises(SmoError, match="no table 'ghost' in schema"):
            apply_script(Schema(), [DropTableOp(table("ghost", "x"))])

    def test_replace_table(self):
        schema = apply_script(Schema((table("a", "x"),)), [AddColumn("a", Attribute("y", INT))])
        assert len(schema.table("a")) == 2

    def test_replace_missing_table_raises(self):
        with pytest.raises(SmoError, match="no table 'ghost' in schema"):
            apply_script(Schema(), [AddColumn("ghost", Attribute("y", INT))])

    def test_replace_preserves_position(self):
        schema = Schema((table("a", "x"), table("b", "y"), table("c", "z")))
        replaced = apply_script(schema, [AddColumn("B", Attribute("w", INT))])
        assert replaced.table_names == ("a", "b", "c")
        assert replaced.table("b").attribute_names == ("y", "w")

    def test_by_key(self):
        schema = Schema((table("Users", "id"),))
        assert set(schema.by_key()) == {"users"}

    def test_schemas_with_same_content_are_equal(self):
        assert Schema((table("a", "x"),)) == Schema((table("a", "x"),))

    def test_immutability(self):
        schema = Schema((table("a", "x"),))
        with pytest.raises(FrozenInstanceError):
            schema.tables = (table("b", "y"),)
        assert schema.table_names == ("a",)  # original untouched
