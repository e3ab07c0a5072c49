"""The dialect frontend contract.

A frontend owns everything vendor-specific about turning one ``.sql``
blob into the **canonical** statement AST of :mod:`repro.sqlddl.ast`:
lexer quirks (quoting styles, cast operators), statement grammar deltas
(``ALTER TABLE ONLY``, ``WITHOUT ROWID``) and type normalization
(SERIAL families, SQLite's type affinity).  Everything downstream —
schema building, ``core.diff``, SMO inference, taxa classification, the
advisor — consumes that one AST and never learns which vendor produced
it.

The split of responsibilities is deliberate:

- ``preprocess`` rewrites raw text *before* lexing, for constructs the
  shared lexer cannot tokenize (PostgreSQL's ``::type`` casts, ``COPY
  ... FROM stdin`` data blocks);
- the shared recursive-descent :class:`~repro.sqlddl.parser.Parser`
  already speaks the union grammar (all three quoting styles,
  ``ALTER TABLE ONLY``, trailing table options such as ``WITHOUT
  ROWID``), so frontends do not fork the parser;
- ``normalize_column_type`` rewrites parsed column types *after*
  parsing, so loose-typing vendors (SQLite) collapse onto their
  affinity classes deterministically.

The MySQL frontend is a strict identity wrapper over
:func:`~repro.sqlddl.parser.parse_script` — the pre-dialect parse path
— which is what keeps default (``--dialects mysql``) corpus output
byte-identical to earlier releases.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Protocol, runtime_checkable

from repro.sqlddl.ast import AlterAction, AlterTable, CreateTable, Statement
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.parser import StatementMemo, parse_script
from repro.sqlddl.types import DataType


@runtime_checkable
class DialectFrontend(Protocol):
    """What a pluggable dialect implementation must provide."""

    #: Canonical frontend name (``"mysql"``, ``"postgresql"``, ``"sqlite"``).
    name: str
    #: The detection enum member this frontend parses for.
    dialect: Dialect

    def preprocess(self, text: str) -> str:
        """Rewrite raw DDL text before lexing (vendor-only syntax)."""
        ...

    def normalize_column_type(self, data_type: DataType) -> DataType:
        """Map one parsed column type onto its canonical form."""
        ...

    def parse(
        self, text: str, strict: bool = False, *, memo: StatementMemo | None = None
    ) -> list[Statement]:
        """Parse *text* into the canonical statement AST.

        *memo* is the lenient parse's statement memo
        (:func:`~repro.sqlddl.parser.parse_script`); it caches the shared
        parser's output, before any frontend rewrite.
        """
        ...


class BaseFrontend:
    """Shared frontend skeleton: preprocess → shared parser → type pass.

    Subclasses override :meth:`preprocess` and/or
    :meth:`normalize_column_type`; both default to identity, so the
    base class alone already parses generic SQL.
    """

    name = "generic"
    dialect = Dialect.UNKNOWN
    #: Grammar delta: admit column definitions without a data type.
    typeless_columns = False

    def preprocess(self, text: str) -> str:
        return text

    def normalize_column_type(self, data_type: DataType) -> DataType:
        return data_type

    def parse(
        self, text: str, strict: bool = False, *, memo: StatementMemo | None = None
    ) -> list[Statement]:
        statements = parse_script(
            self.preprocess(text),
            strict=strict,
            typeless_columns=self.typeless_columns,
            memo=memo,
        )
        return [self._rewrite(statement) for statement in statements]

    # -- the post-parse type pass --------------------------------------

    def _rewrite(self, statement: Statement) -> Statement:
        if isinstance(statement, CreateTable):
            columns = tuple(self._rewrite_column(c) for c in statement.columns)
            if all(a is b for a, b in zip(columns, statement.columns)):
                return statement
            return replace(statement, columns=columns)
        if isinstance(statement, AlterTable):
            actions = tuple(self._rewrite_action(a) for a in statement.actions)
            if all(a is b for a, b in zip(actions, statement.actions)):
                return statement
            return replace(statement, actions=actions)
        return statement

    def _rewrite_action(self, action: AlterAction) -> AlterAction:
        if action.column is None:
            return action
        column = self._rewrite_column(action.column)
        if column is action.column:
            return action
        return replace(action, column=column)

    def _rewrite_column(self, column):
        data_type = self.normalize_column_type(column.data_type)
        if data_type == column.data_type:
            return column
        return replace(column, data_type=data_type)
