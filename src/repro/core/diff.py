"""Schema diffing: the six change categories of the study.

For each transition from version *i* to *i+1*, Hecate "identifies and
quantifies updates (all measured in attributes): attributes born with a
new table, attributes injected into an existing table, attributes
deleted with a removed table, attributes ejected from a surviving table,
attributes having a changed data type, or a participation in a changed
primary key."  (Sec III.B)

Matching is by case-insensitive name; a rename therefore counts as
eject + inject, exactly like the original tool chain (no rename
heuristics at the logical level).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.schema.model import Schema, Table


class ChangeKind(enum.Enum):
    """The six attribute-level change categories of the study."""

    BORN_WITH_TABLE = "born with table"  # expansion
    INJECTED = "injected"  # expansion
    DELETED_WITH_TABLE = "deleted with table"  # maintenance
    EJECTED = "ejected"  # maintenance
    TYPE_CHANGED = "type changed"  # maintenance
    PK_CHANGED = "pk changed"  # maintenance


_EXPANSION_KINDS = {ChangeKind.BORN_WITH_TABLE, ChangeKind.INJECTED}


@dataclass(frozen=True, slots=True)
class AttributeChange:
    """One attribute affected by a transition."""

    kind: ChangeKind
    table: str
    attribute: str
    detail: str = ""  # e.g. "INT -> BIGINT" for type changes

    @property
    def is_expansion(self) -> bool:
        return self.kind in _EXPANSION_KINDS


@dataclass(frozen=True)
class TransitionDiff:
    """All changes of one transition, plus table-level resizing info."""

    changes: tuple[AttributeChange, ...]
    tables_inserted: tuple[str, ...]
    tables_deleted: tuple[str, ...]

    def count(self, kind: ChangeKind) -> int:
        return sum(1 for change in self.changes if change.kind is kind)

    @property
    def attrs_born(self) -> int:
        return self.count(ChangeKind.BORN_WITH_TABLE)

    @property
    def attrs_injected(self) -> int:
        return self.count(ChangeKind.INJECTED)

    @property
    def attrs_deleted(self) -> int:
        return self.count(ChangeKind.DELETED_WITH_TABLE)

    @property
    def attrs_ejected(self) -> int:
        return self.count(ChangeKind.EJECTED)

    @property
    def attrs_type_changed(self) -> int:
        return self.count(ChangeKind.TYPE_CHANGED)

    @property
    def attrs_pk_changed(self) -> int:
        return self.count(ChangeKind.PK_CHANGED)

    @property
    def expansion(self) -> int:
        """Attributes born with new tables + injected into existing ones."""
        return sum(1 for change in self.changes if change.is_expansion)

    @property
    def maintenance(self) -> int:
        """All non-expansion updates: deletions, ejections, type/PK changes."""
        return len(self.changes) - self.expansion

    @property
    def activity(self) -> int:
        """Total activity of the transition (expansion + maintenance)."""
        return len(self.changes)

    @property
    def is_active(self) -> bool:
        """An *active commit* has a positive sum of updates (Sec III.B)."""
        return self.activity > 0


def _diff_common_table(old: Table, new: Table) -> list[AttributeChange]:
    """Intra-table changes for a table present in both versions."""
    changes: list[AttributeChange] = []
    old_attrs = {a.key: a for a in old.attributes}
    new_attrs = {a.key: a for a in new.attributes}
    for key, attribute in new_attrs.items():
        if key not in old_attrs:
            changes.append(AttributeChange(ChangeKind.INJECTED, new.name, attribute.name))
    for key, attribute in old_attrs.items():
        if key not in new_attrs:
            changes.append(AttributeChange(ChangeKind.EJECTED, new.name, attribute.name))
    for key in old_attrs.keys() & new_attrs.keys():
        before, after = old_attrs[key], new_attrs[key]
        if before.data_type != after.data_type:
            changes.append(
                AttributeChange(
                    ChangeKind.TYPE_CHANGED,
                    new.name,
                    after.name,
                    detail=f"{before.data_type} -> {after.data_type}",
                )
            )
    old_pk = set(old.pk_key)
    new_pk = set(new.pk_key)
    if old_pk != new_pk:
        # Attributes whose PK participation changed, restricted to
        # attributes that survive the transition (removed/added ones are
        # already counted in their own categories).
        for key in sorted(old_pk ^ new_pk):
            if key in old_attrs and key in new_attrs:
                changes.append(
                    AttributeChange(ChangeKind.PK_CHANGED, new.name, new_attrs[key].name)
                )
    return changes


def diff_schemas(old: Schema, new: Schema) -> TransitionDiff:
    """Compute the full change set between two schema versions.

    A table that both versions share as one object has no changes and is
    skipped; schemas built through one
    :class:`~repro.pipeline.cache.SchemaCache` share unchanged tables.
    """
    old_tables = old.by_key()
    new_tables = new.by_key()
    changes: list[AttributeChange] = []
    inserted: list[str] = []
    deleted: list[str] = []
    for key, table in new_tables.items():
        if key not in old_tables:
            inserted.append(table.name)
            for attribute in table.attributes:
                changes.append(
                    AttributeChange(ChangeKind.BORN_WITH_TABLE, table.name, attribute.name)
                )
    for key, table in old_tables.items():
        if key not in new_tables:
            deleted.append(table.name)
            for attribute in table.attributes:
                changes.append(
                    AttributeChange(ChangeKind.DELETED_WITH_TABLE, table.name, attribute.name)
                )
    for key in old_tables.keys() & new_tables.keys():
        old_table, new_table = old_tables[key], new_tables[key]
        if old_table is not new_table:
            changes.extend(_diff_common_table(old_table, new_table))
    return TransitionDiff(
        changes=tuple(changes),
        tables_inserted=tuple(sorted(inserted)),
        tables_deleted=tuple(sorted(deleted)),
    )
