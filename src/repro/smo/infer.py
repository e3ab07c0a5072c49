"""Infer an SMO script from a pair of schema versions.

The inferred script has two contracts, both property-tested:

1. *Faithfulness*: ``apply_script(old, infer_smos(old, new))`` equals
   ``new`` under :meth:`~repro.schema.model.Schema.canonical` (position
   carries no identity: inferred creations are appended, matching a
   file that appends new tables at the end, and so are added columns).
2. *Cost agreement*: the script's total cost equals the study's
   activity for that transition — the operation algebra and the diff
   counter measure the same thing.

Like the diff, inference matches by name (no rename detection): a
renamed table comes out as DROP + CREATE.
"""

from __future__ import annotations

from repro.schema.model import Schema
from repro.smo.operations import (
    AddColumn,
    ChangeColumnType,
    CreateTableOp,
    DropColumn,
    DropTableOp,
    SetPrimaryKey,
    SmoOperation,
)


def infer_smos(old: Schema, new: Schema) -> list[SmoOperation]:
    """Derive the operation sequence that turns *old* into *new*."""
    script: list[SmoOperation] = []
    old_tables = old.by_key()
    new_tables = new.by_key()

    # Drops first (frees names for case-variant recreations).
    for key in old_tables.keys() - new_tables.keys():
        script.append(DropTableOp(old_tables[key]))

    # Intra-table changes on the common tables, in old-schema order.
    for table in old.tables:
        if table.key not in new_tables:
            continue
        target = new_tables[table.key]
        old_attrs = {a.key: a for a in table.attributes}
        new_attrs = {a.key: a for a in target.attributes}
        old_pk_members = {c.lower() for c in table.primary_key}
        new_pk_members = {c.lower() for c in target.primary_key}
        for attribute in table.attributes:
            if attribute.key not in new_attrs:
                script.append(
                    DropColumn(
                        table.name,
                        attribute,
                        was_primary_key=attribute.key in old_pk_members,
                    )
                )
        for attribute in target.attributes:
            if attribute.key not in old_attrs:
                script.append(
                    AddColumn(
                        table.name,
                        attribute,
                        into_primary_key=attribute.key in new_pk_members,
                    )
                )
        for key in old_attrs.keys() & new_attrs.keys():
            before, after = old_attrs[key], new_attrs[key]
            if before.data_type != after.data_type:
                script.append(
                    ChangeColumnType(
                        table_name=table.name,
                        column_name=after.name,
                        old_type=before.data_type,
                        new_type=after.data_type,
                    )
                )
        # PK handling: the key the SetPrimaryKey operation sees as its
        # precondition is the *intermediate* one — dropped columns left
        # the key implicitly, and added columns joined it when their
        # AddColumn carried into_primary_key.  A SetPrimaryKey is only
        # needed when a *surviving* attribute's membership changed,
        # which is also exactly what the study's PK-change category
        # counts.
        intermediate_pk = tuple(
            c for c in table.primary_key if c.lower() in new_attrs
        ) + tuple(
            a.name
            for a in target.attributes
            if a.key not in old_attrs and a.key in new_pk_members
        )
        if tuple(sorted(c.lower() for c in intermediate_pk)) != target.pk_key:
            survivors = old_attrs.keys() & new_attrs.keys()
            counted = len((old_pk_members ^ new_pk_members) & survivors)
            script.append(
                SetPrimaryKey(
                    table_name=table.name,
                    old_key=intermediate_pk,
                    new_key=target.primary_key,
                    counted_changes=counted,
                )
            )

    # Creations last, in new-schema order (appended at the file's end).
    for table in new.tables:
        if table.key not in old_tables:
            script.append(CreateTableOp(table))
    return script
