"""Render SMO operations as executable MySQL statements.

Closes the migration loop: an inferred script can be emitted as real
``ALTER TABLE``/``CREATE TABLE``/``DROP TABLE`` SQL, and replaying that
SQL through the parser + schema builder reproduces exactly the schema
the SMO application produces (property-tested).

``render_script`` needs the base schema: a column addition that joins
the primary key has no single-statement SQL form, so the renderer
replays the script as :func:`~repro.smo.apply.apply_script` does and
emits an explicit key rewrite with the full resulting key — exactly
what a real migration tool would generate.
"""

from __future__ import annotations

from typing import Iterable

from repro.schema.builder import _Tables
from repro.schema.model import Schema
from repro.schema.writer import render_column, render_create_table
from repro.smo.apply import _apply, _require_table
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


def _key_rewrite(table_name: str, old_key: tuple[str, ...], new_key: tuple[str, ...]) -> str:
    clauses = []
    if old_key:
        clauses.append("DROP PRIMARY KEY")
    if new_key:
        quoted = ", ".join(f"`{c}`" for c in new_key)
        clauses.append(f"ADD PRIMARY KEY ({quoted})")
    if not clauses:
        raise SmoError("key rewrite with two empty keys is a no-op")
    return f"ALTER TABLE `{table_name}` " + ", ".join(clauses) + ";"


def render_smo(op: SmoOperation) -> str:
    """One executable SQL statement for *op*.

    ``AddColumn(into_primary_key=True)`` renders only the column
    addition — the key rewrite needs schema context, which
    :func:`render_script` supplies.
    """
    if isinstance(op, CreateTableOp):
        return render_create_table(op.table)
    if isinstance(op, DropTableOp):
        return f"DROP TABLE `{op.table.name}`;"
    if isinstance(op, RenameTable):
        return f"RENAME TABLE `{op.old_name}` TO `{op.new_name}`;"
    if isinstance(op, AddColumn):
        return f"ALTER TABLE `{op.table_name}` ADD COLUMN {render_column(op.attribute)};"
    if isinstance(op, DropColumn):
        return f"ALTER TABLE `{op.table_name}` DROP COLUMN `{op.attribute.name}`;"
    if isinstance(op, RenameColumn):
        return (
            f"ALTER TABLE `{op.table_name}` RENAME COLUMN "
            f"`{op.old_name}` TO `{op.new_name}`;"
        )
    if isinstance(op, ChangeColumnType):
        return (
            f"ALTER TABLE `{op.table_name}` MODIFY COLUMN "
            f"`{op.column_name}` {op.new_type.render()};"
        )
    if isinstance(op, SetPrimaryKey):
        return _key_rewrite(op.table_name, op.old_key, op.new_key)
    raise SmoError(f"cannot render {op!r}")  # pragma: no cover


def render_script(script: Iterable[SmoOperation], base: Schema) -> str:
    """The whole migration as one SQL script, resolved against *base*.

    The script replays on *base*'s working tables, raising
    :class:`SmoError` where :func:`~repro.smo.apply.apply_script` would;
    whenever a column addition joins the primary key, an explicit key
    rewrite with the table's full key after the addition follows the
    ADD COLUMN.
    """
    statements: list[str] = []
    tables: _Tables = {table.key: table for table in base.tables}
    for op in script:
        if isinstance(op, AddColumn) and op.into_primary_key:
            table = _require_table(tables, op.table_name)
            before = tuple(table.primary_key)
            _apply(tables, op)
            statements.append(render_smo(op))
            statements.append(
                _key_rewrite(op.table_name, before, tuple(table.primary_key))
            )
        else:
            _apply(tables, op)
            statements.append(render_smo(op))
    return "\n".join(statements) + ("\n" if statements else "")
