"""Build a logical :class:`~repro.schema.model.Schema` from parsed DDL.

This is the bridge between the SQL front end and the evolution study:
it replays a script's ``CREATE TABLE`` / ``ALTER TABLE`` / ``DROP
TABLE`` / ``RENAME TABLE`` statements against an (initially empty)
schema and returns the resulting logical snapshot.  Non-DDL statements
and sub-logical details (indexes, engines, comments) are counted but do
not affect the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schema.model import Attribute, Schema, Table
from repro.sqlddl.ast import (
    AlterAction,
    AlterKind,
    AlterTable,
    ColumnDef,
    ConstraintKind,
    CreateTable,
    DropTable,
    IgnoredStatement,
    RenameTable,
    Statement,
)
from repro.sqlddl.parser import StatementMemo, parse_script


class SchemaBuildError(Exception):
    """A DDL statement could not be applied to the running schema."""


@dataclass
class BuildReport:
    """What happened while replaying a script."""

    created: int = 0
    dropped: int = 0
    altered: int = 0
    renamed: int = 0
    ignored: int = 0
    ignored_verbs: dict[str, int] = field(default_factory=dict)

    def note_ignored(self, verb: str) -> None:
        self.ignored += 1
        self.ignored_verbs[verb] = self.ignored_verbs.get(verb, 0) + 1


def _attribute_from_column(column: ColumnDef) -> Attribute:
    return Attribute(name=column.name, data_type=column.data_type, nullable=column.nullable)


#: ``(id(create), lenient) -> (create, table)``: the table each
#: ``CREATE TABLE`` node builds.  The statement memo hands back the same
#: frozen node for an unchanged statement, so an unchanged table is one
#: shared :class:`Table` in every version; holding the node keeps its
#: id from being reused while the entry lives.
TableMemo = dict[tuple[int, bool], tuple[CreateTable, Table]]


def _table_from_create(create: CreateTable, lenient: bool = True) -> Table:
    attributes: list[Attribute] = []
    seen: set[str] = set()
    for column in create.columns:
        key = column.name.lower()
        if key in seen:
            if lenient:
                continue  # invalid SQL in the wild: keep first occurrence
            raise SchemaBuildError(
                f"duplicate column {column.name!r} in CREATE TABLE {create.name!r}"
            )
        seen.add(key)
        attributes.append(_attribute_from_column(column))
    return Table(
        name=create.name, attributes=tuple(attributes), primary_key=create.primary_key
    )


def _table_for(create: CreateTable, lenient: bool, memo: TableMemo | None) -> Table:
    """:func:`_table_from_create`, once per node with a *memo*; a build
    that raises is not stored, so it raises again next time."""
    if memo is None:
        return _table_from_create(create, lenient)
    key = (id(create), lenient)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (create, _table_from_create(create, lenient))
    return entry[1]


class _WorkingTable:
    """A table under replay: attributes edited in place, frozen once.

    ``slots`` keeps attribute order (a dropped column leaves ``None``)
    and ``positions`` maps each lower-cased name to its slot, so a
    column edit costs O(1), plus a primary-key scan when it drops or
    renames a column.
    """

    __slots__ = ("name", "slots", "positions", "primary_key")

    def __init__(self, table: Table) -> None:
        self.name = table.name
        self.slots: list[Attribute | None] = list(table.attributes)
        self.positions = {a.key: i for i, a in enumerate(table.attributes)}
        self.primary_key = list(table.primary_key)

    def attribute(self, name: str) -> Attribute | None:
        position = self.positions.get(name.lower())
        return None if position is None else self.slots[position]

    def add(self, attribute: Attribute, into_primary_key: bool) -> None:
        """Append *attribute*, whose name is free; it joins the key too
        when *into_primary_key*."""
        self.positions[attribute.key] = len(self.slots)
        self.slots.append(attribute)
        if into_primary_key:
            self.primary_key.append(attribute.name)

    def drop(self, key: str) -> bool:
        """Remove column *key* (lower-cased), from the key too; False if
        there is none."""
        position = self.positions.pop(key, None)
        if position is None:
            return False
        self.slots[position] = None
        self.primary_key = [c for c in self.primary_key if c.lower() != key]
        return True

    def replace(self, old: Attribute, new: Attribute) -> None:
        """Put *new* in *old*'s position."""
        position = self.positions.pop(old.key)
        self.slots[position] = new
        self.positions[new.key] = position

    def rename(self, old: Attribute, new: Attribute) -> None:
        """:meth:`replace`, and rename *old* to *new* in the key."""
        self.replace(old, new)
        self.primary_key = [
            new.name if c.lower() == old.key else c for c in self.primary_key
        ]

    def freeze(self) -> Table:
        attributes = tuple(a for a in self.slots if a is not None)
        return Table(self.name, attributes, tuple(self.primary_key))


#: Tables by lower-cased name, in schema order: assigning an existing
#: key replaces in place, a new key appends.
_Tables = dict[str, Table | _WorkingTable]


def _working(tables: _Tables, key: str) -> _WorkingTable:
    entry = tables[key]
    if isinstance(entry, Table):
        entry = tables[key] = _WorkingTable(entry)
    return entry


def _rename_table(tables: _Tables, old: str, new: str, lenient: bool) -> bool:
    """Move existing table *old* to the end as *new*; False if skipped."""
    key, new_key = old.lower(), new.lower()
    if new_key != key and new_key in tables:
        if lenient:
            return False  # MySQL rejects a rename onto a taken name
        raise SchemaBuildError(f"table {new!r} already exists")
    table = _working(tables, key)
    del tables[key]
    table.name = new
    tables[new_key] = table
    return True


def _apply_alter(tables: _Tables, alter: AlterTable, lenient: bool) -> None:
    key = alter.name.lower()
    if key not in tables:
        if lenient:
            return
        raise SchemaBuildError(f"ALTER TABLE on unknown table {alter.name!r}")
    table = _working(tables, key)
    for action in alter.actions:
        if action.kind is AlterKind.RENAME_TABLE and action.raw:
            if _rename_table(tables, alter.name, action.raw, lenient):
                break  # the table was renamed away; remaining actions no-op
        else:
            _apply_alter_action(table, action, lenient)


def _apply_alter_action(table: _WorkingTable, action: AlterAction, lenient: bool) -> None:
    kind = action.kind
    if kind is AlterKind.ADD_COLUMN and action.column is not None:
        if table.attribute(action.column.name) is not None:
            if lenient:
                return
            raise SchemaBuildError(
                f"column {action.column.name!r} already exists in {table.name!r}"
            )
        table.add(_attribute_from_column(action.column), action.column.is_primary_key)
    elif kind is AlterKind.DROP_COLUMN and action.old_name is not None:
        if not table.drop(action.old_name.lower()):
            if lenient:
                return
            raise SchemaBuildError(f"unknown column {action.old_name!r} in {table.name!r}")
    elif kind is AlterKind.MODIFY_COLUMN and action.column is not None:
        existing = table.attribute(action.column.name)
        if existing is None:
            if lenient:
                return
            raise SchemaBuildError(f"unknown column {action.column.name!r} in {table.name!r}")
        table.replace(existing, _attribute_from_column(action.column))
    elif (
        kind is AlterKind.CHANGE_COLUMN and action.column is not None and action.old_name
    ) or (kind is AlterKind.RENAME_COLUMN and action.old_name and action.raw):
        existing = table.attribute(action.old_name)
        if existing is None:
            if lenient:
                return
            raise SchemaBuildError(f"unknown column {action.old_name!r} in {table.name!r}")
        if action.column is not None:
            renamed = _attribute_from_column(action.column)
        else:
            renamed = Attribute(action.raw, existing.data_type, existing.nullable)
        if renamed.key != existing.key and renamed.key in table.positions:
            if lenient:
                return  # as for tables: MySQL rejects it
            raise SchemaBuildError(
                f"column {renamed.name!r} already exists in {table.name!r}"
            )
        table.rename(existing, renamed)
    elif kind is AlterKind.ADD_CONSTRAINT and action.constraint is not None:
        if action.constraint.kind is ConstraintKind.PRIMARY_KEY:
            table.primary_key = list(action.constraint.columns)
        # indexes/uniques/FKs are sub-logical here
    elif kind is AlterKind.DROP_PRIMARY_KEY:
        table.primary_key = []
    # OTHER / DROP_CONSTRAINT: no logical effect


def apply_statements(
    schema: Schema,
    statements: list[Statement],
    lenient: bool = True,
    report: BuildReport | None = None,
    *,
    table_memo: TableMemo | None = None,
) -> Schema:
    """Replay *statements* on *schema*, returning the new snapshot.

    With ``lenient=True`` (the default, matching how a mining tool must
    treat arbitrary repository content) re-creates of an existing table
    replace it, drops of a missing table are no-ops, and malformed
    alters are skipped, as are renames of a table or column onto a name
    already taken (MySQL rejects those with no effect).  With
    ``lenient=False`` those raise :class:`SchemaBuildError`.

    Replay is linear in the statements: tables live in one dict keyed by
    lower-cased name (a re-create or alter replaces in place, a drop
    removes, a create or table rename appends), altered tables are
    edited in a working structure, and one :class:`Schema` is frozen at
    the end.  With *table_memo*, a ``CREATE TABLE`` node builds its
    :class:`Table` once (see :data:`TableMemo`); replay never edits a
    stored table in place, so an unaltered table stays shared.
    """
    tables: _Tables = {table.key: table for table in schema.tables}
    for statement in statements:
        if isinstance(statement, CreateTable):
            table = _table_for(statement, lenient, table_memo)
            if table.key in tables:
                if statement.if_not_exists:
                    continue
                if not lenient:
                    raise SchemaBuildError(f"table {table.name!r} already exists")
            tables[table.key] = table
            if report is not None:
                report.created += 1
        elif isinstance(statement, DropTable):
            for name in statement.names:
                key = name.lower()
                if key not in tables:
                    if statement.if_exists or lenient:
                        continue
                    raise SchemaBuildError(f"DROP of unknown table {name!r}")
                del tables[key]
                if report is not None:
                    report.dropped += 1
        elif isinstance(statement, AlterTable):
            _apply_alter(tables, statement, lenient)
            if report is not None:
                report.altered += 1
        elif isinstance(statement, RenameTable):
            for old, new in statement.renames:
                if old.lower() not in tables:
                    if lenient:
                        continue
                    raise SchemaBuildError(f"RENAME of unknown table {old!r}")
                if _rename_table(tables, old, new, lenient) and report is not None:
                    report.renamed += 1
        elif isinstance(statement, IgnoredStatement):
            if report is not None:
                report.note_ignored(statement.verb)
    return _freeze(tables)


def _freeze(tables: _Tables) -> Schema:
    """The one :class:`Schema` a replay ends with."""
    return Schema(
        tuple(
            entry.freeze() if isinstance(entry, _WorkingTable) else entry
            for entry in tables.values()
        )
    )


def build_schema(
    text: str,
    lenient: bool = True,
    report: BuildReport | None = None,
    dialect: str = "mysql",
    *,
    memo: StatementMemo | None = None,
    table_memo: TableMemo | None = None,
) -> Schema:
    """Parse *text* and build the logical schema it declares.

    ``dialect`` selects the frontend (see :mod:`repro.sqlddl.dialects`);
    the default is the historical direct ``parse_script`` path.  *memo*
    is the lenient parse's statement memo (see
    :func:`~repro.sqlddl.parser.parse_script`), *table_memo* the replay's
    (see :func:`apply_statements`).
    """
    return apply_statements(
        Schema(),
        parse_ddl(text, dialect, memo=memo),
        lenient=lenient,
        report=report,
        table_memo=table_memo,
    )


def parse_ddl(
    text: str, dialect: str = "mysql", *, memo: StatementMemo | None = None
) -> list[Statement]:
    """The lenient parse of *text* through *dialect*'s frontend, as
    :func:`build_schema` replays it; ``"mysql"`` (and ``""``) take the
    historical direct :func:`~repro.sqlddl.parser.parse_script` path."""
    if dialect and dialect != "mysql":
        from repro.sqlddl.dialects import parse_script_for

        return parse_script_for(text, dialect, memo=memo)
    return parse_script(text, memo=memo)
