"""Apply SMO scripts to schema versions.

A script replays on the DDL builder's working tables (one dict by
lower-cased name, columns edited in place, one :class:`Schema` frozen
at the end), so it costs time linear in its operations.  Unlike the
lenient DDL replay, each operation checks its preconditions: SMO
scripts are precise artifacts, not mined noise.
"""

from __future__ import annotations

from typing import Iterable

from repro.schema.builder import _freeze, _rename_table, _Tables, _working, _WorkingTable
from repro.schema.model import Attribute, Schema
from repro.smo.operations import (
    AddColumn,
    ChangeColumnType,
    CreateTableOp,
    DropColumn,
    DropTableOp,
    RenameColumn,
    RenameTable,
    SetPrimaryKey,
    SmoError,
    SmoOperation,
)


def _require_key(tables: _Tables, name: str) -> str:
    key = name.lower()
    if key not in tables:
        raise SmoError(f"no table {name!r} in schema")
    return key


def _require_table(tables: _Tables, name: str) -> _WorkingTable:
    return _working(tables, _require_key(tables, name))


def _require_attribute(table: _WorkingTable, name: str) -> Attribute:
    attribute = table.attribute(name)
    if attribute is None:
        raise SmoError(f"no column {name!r} in table {table.name!r}")
    return attribute


def _apply(tables: _Tables, op: SmoOperation) -> None:
    """Apply one operation to the working *tables*."""
    if isinstance(op, CreateTableOp):
        if op.table.key in tables:
            raise SmoError(f"table {op.table.name!r} already exists")
        tables[op.table.key] = op.table
    elif isinstance(op, DropTableOp):
        del tables[_require_key(tables, op.table.name)]
    elif isinstance(op, RenameTable):
        _require_key(tables, op.old_name)
        if op.new_name.lower() in tables:  # a case-only rename included
            raise SmoError(f"table {op.new_name!r} already exists")
        _rename_table(tables, op.old_name, op.new_name, lenient=False)
    elif isinstance(op, AddColumn):
        table = _require_table(tables, op.table_name)
        if table.attribute(op.attribute.name) is not None:
            raise SmoError(
                f"column {op.attribute.name!r} already exists in {table.name!r}"
            )
        table.add(op.attribute, op.into_primary_key)
    elif isinstance(op, DropColumn):
        table = _require_table(tables, op.table_name)
        table.drop(_require_attribute(table, op.attribute.name).key)
    elif isinstance(op, RenameColumn):
        table = _require_table(tables, op.table_name)
        attribute = _require_attribute(table, op.old_name)
        if table.attribute(op.new_name) is not None:  # a case-only rename included
            raise SmoError(f"column {op.new_name!r} already exists in {table.name!r}")
        table.rename(
            attribute, Attribute(op.new_name, attribute.data_type, attribute.nullable)
        )
    elif isinstance(op, ChangeColumnType):
        table = _require_table(tables, op.table_name)
        attribute = _require_attribute(table, op.column_name)
        if attribute.data_type != op.old_type:
            raise SmoError(
                f"type precondition failed for {op.column_name!r}: "
                f"expected {op.old_type}, found {attribute.data_type}"
            )
        table.replace(
            attribute, Attribute(attribute.name, op.new_type, attribute.nullable)
        )
    elif isinstance(op, SetPrimaryKey):
        table = _require_table(tables, op.table_name)
        if sorted(c.lower() for c in table.primary_key) != sorted(
            c.lower() for c in op.old_key
        ):
            raise SmoError(
                f"PK precondition failed for {table.name!r}: expected "
                f"{op.old_key}, found {tuple(table.primary_key)}"
            )
        for column in op.new_key:
            _require_attribute(table, column)
        table.primary_key = list(op.new_key)
    else:  # pragma: no cover
        raise SmoError(f"unknown operation {op!r}")


def apply_script(schema: Schema, script: Iterable[SmoOperation]) -> Schema:
    """Apply an operation sequence in order, returning the new schema
    version (*schema* itself never changes); raises :class:`SmoError`
    at the first inapplicable operation."""
    tables: _Tables = {table.key: table for table in schema.tables}
    for op in script:
        _apply(tables, op)
    return _freeze(tables)
