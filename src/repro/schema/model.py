"""Immutable logical schema model.

The study observes schemata at the *logical level*: a schema is a set of
tables, each table an ordered collection of attributes with data types,
plus the primary key.  Indexes, storage engines, charsets, comments and
data rows are deliberately out of model — changes to them are what the
paper calls *non-active* commits.

All classes are frozen dataclasses: a schema version never mutates, and
transitions are computed by diffing two versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sqlddl.types import DataType


@dataclass(frozen=True, slots=True)
class Attribute:
    """One attribute (column) of a table, as the study's unit of change."""

    name: str
    data_type: DataType
    nullable: bool = True

    @property
    def key(self) -> str:
        """Case-insensitive identity used for cross-version matching."""
        return self.name.lower()


@dataclass(frozen=True)
class Table:
    """A table: named, with ordered attributes and a primary key."""

    name: str
    attributes: tuple[Attribute, ...]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for attribute in self.attributes:
            if attribute.key in seen:
                raise ValueError(
                    f"duplicate attribute {attribute.name!r} in table {self.name!r}"
                )
            seen.add(attribute.key)

    @property
    def key(self) -> str:
        """Case-insensitive identity used for cross-version matching."""
        return self.name.lower()

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def pk_key(self) -> tuple[str, ...]:
        """Primary key as a canonical (lowercased, ordered) tuple."""
        return tuple(sorted(c.lower() for c in self.primary_key))

    def attribute(self, name: str) -> Attribute | None:
        """Look up an attribute by case-insensitive name."""
        lowered = name.lower()
        for candidate in self.attributes:
            if candidate.key == lowered:
                return candidate
        return None

    def __len__(self) -> int:
        return len(self.attributes)


def canonical_table(table: Table) -> tuple:
    """One table's part of :meth:`Schema.canonical`: its key, its
    attributes as sorted ``(key, type, nullable)`` triples, its
    primary key."""
    attributes = tuple(sorted((a.key, a.data_type, a.nullable) for a in table.attributes))
    return (table.key, attributes, table.pk_key)


@dataclass(frozen=True, slots=True)
class SchemaSize:
    """The (tables, attributes) size pair reported per version."""

    tables: int
    attributes: int


@dataclass(frozen=True)
class Schema:
    """A full schema version: an ordered set of tables.

    Table order is preserved (it reflects file order) but identity is by
    case-insensitive name; construction rejects duplicates.
    """

    tables: tuple[Table, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for table in self.tables:
            if table.key in seen:
                raise ValueError(f"duplicate table {table.name!r} in schema")
            seen.add(table.key)

    @property
    def size(self) -> SchemaSize:
        return SchemaSize(
            tables=len(self.tables),
            attributes=sum(len(t) for t in self.tables),
        )

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)

    def table(self, name: str) -> Table | None:
        """Look up a table by case-insensitive name."""
        lowered = name.lower()
        for candidate in self.tables:
            if candidate.key == lowered:
                return candidate
        return None

    def by_key(self) -> dict[str, Table]:
        """Mapping of lowercase table name -> Table."""
        return {t.key: t for t in self.tables}

    def canonical(self) -> tuple:
        """Order-independent normal form.

        Two schemata with the same tables, attributes, types and keys —
        regardless of declaration order — have equal canonical forms.
        Used to compare schemata produced by different routes (e.g. a
        parsed file vs an applied SMO script).
        """
        return tuple(canonical_table(t) for t in sorted(self.tables, key=lambda t: t.key))

    def __len__(self) -> int:
        return len(self.tables)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.table(name) is not None
