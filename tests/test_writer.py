"""Tests for rendering schemata back to DDL, incl. round-trip property."""

from string import ascii_lowercase, digits

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import Attribute, Schema, Table, build_schema, render_create_table, render_schema
from repro.schema.writer import render_column
from repro.sqlddl.types import DataType

INT = DataType("INT")


class TestRenderColumn:
    def test_nullable(self):
        assert render_column(Attribute("a", INT)) == "`a` INT"

    def test_not_null(self):
        assert render_column(Attribute("a", INT, nullable=False)) == "`a` INT NOT NULL"

    def test_type_args(self):
        column = Attribute("a", DataType("VARCHAR", ("64",)))
        assert render_column(column) == "`a` VARCHAR(64)"


class TestRenderCreateTable:
    def test_contains_all_columns(self):
        table = Table("t", (Attribute("a", INT), Attribute("b", INT)), ("a",))
        text = render_create_table(table)
        assert "`a` INT" in text
        assert "`b` INT" in text
        assert "PRIMARY KEY (`a`)" in text

    def test_no_pk_line_without_pk(self):
        table = Table("t", (Attribute("a", INT),))
        assert "PRIMARY KEY" not in render_create_table(table)

    def test_engine_parameter(self):
        table = Table("t", (Attribute("a", INT),))
        assert "ENGINE=MyISAM" in render_create_table(table, engine="MyISAM")


class TestRenderSchema:
    def test_empty_schema_renders_empty(self):
        assert render_schema(Schema()) == ""

    def test_header_is_commented(self):
        schema = Schema((Table("t", (Attribute("a", INT),)),))
        text = render_schema(schema, header="hello\nworld")
        assert text.startswith("-- hello\n-- world")

    def test_roundtrip_simple(self):
        schema = Schema(
            (
                Table("users", (Attribute("id", INT, False), Attribute("name", DataType("TEXT"))), ("id",)),
                Table("posts", (Attribute("id", INT, False),), ("id",)),
            )
        )
        assert build_schema(render_schema(schema)) == schema


# -- property-based round-trip ------------------------------------------

#: ``[a-z][a-z0-9_]{0,10}``, drawn without the regex engine.
_identifier = st.tuples(
    st.sampled_from(ascii_lowercase),
    st.text(ascii_lowercase + digits + "_", max_size=10),
).map("".join)

_data_types = st.sampled_from(
    [
        DataType("INT"),
        DataType("BIGINT"),
        DataType("TEXT"),
        DataType("DATETIME"),
        DataType("VARCHAR", ("255",)),
        DataType("VARCHAR", ("64",)),
        DataType("DECIMAL", ("10", "2")),
        DataType("BOOLEAN"),
        DataType("INT", (), True),
    ]
)


@st.composite
def tables(draw):
    name = draw(_identifier)
    n_cols = draw(st.integers(min_value=1, max_value=8))
    col_names = draw(
        st.lists(_identifier, min_size=n_cols, max_size=n_cols, unique_by=str.lower)
    )
    attributes = tuple(
        Attribute(col, draw(_data_types), draw(st.booleans())) for col in col_names
    )
    pk_size = draw(st.integers(min_value=0, max_value=min(2, len(col_names))))
    pk = tuple(sorted(draw(st.permutations(col_names))[:pk_size]))
    return Table(name=name, attributes=attributes, primary_key=pk)


@st.composite
def schemata(draw):
    n_tables = draw(st.integers(min_value=0, max_value=5))
    chosen: list[Table] = []
    seen: set[str] = set()
    while len(chosen) < n_tables:
        table = draw(tables())
        if table.key not in seen:
            seen.add(table.key)
            chosen.append(table)
    return Schema(tuple(chosen))


class TestRoundTripProperty:
    @given(schema=schemata())
    @settings(max_examples=120, deadline=None)
    def test_render_then_build_is_identity(self, schema):
        """The synthesis loop's core invariant: rendering a schema and
        re-parsing the text reproduces the schema exactly."""
        assert build_schema(render_schema(schema)) == schema

    @given(schema=schemata())
    @settings(max_examples=40, deadline=None)
    def test_render_is_deterministic(self, schema):
        assert render_schema(schema) == render_schema(schema)
