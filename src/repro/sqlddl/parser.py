"""Recursive-descent parser for logical-level DDL statements.

Design rule: *never fail on a whole script because of one weird
statement*.  Real-world dumps contain vendor-specific noise; any
statement the parser does not understand (or any statement that raises
mid-parse when ``strict=False``) degrades to :class:`IgnoredStatement`
covering up to the next top-level semicolon.

Consecutive versions of a schema history repeat most of their
statements, so the lenient :func:`parse_script` parses a script one
``;``-terminated segment at a time and reuses the statements of a
segment it has seen before (a :data:`StatementMemo`).
"""

from __future__ import annotations

from typing import Iterator

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
    TableConstraint,
)
from repro.sqlddl.errors import SqlSyntaxError
from repro.sqlddl.lexer import cut_segment, tokenize
from repro.sqlddl.tokens import Token, TokenKind
from repro.sqlddl.types import DataType, normalize_type

_CONSTRAINT_STARTERS = {
    "PRIMARY",
    "UNIQUE",
    "FOREIGN",
    "KEY",
    "INDEX",
    "CONSTRAINT",
    "CHECK",
    "FULLTEXT",
    "SPATIAL",
}

_IDENT_KINDS = (TokenKind.WORD, TokenKind.QUOTED_IDENT)

#: ``(typeless_columns, segment text) -> statements`` of the segment.
#: Holds only parses that are exact wherever the segment occurs; the
#: nodes are frozen and carry no token positions, so scripts share them.
StatementMemo = dict[tuple[bool, str], tuple[Statement, ...]]


#: Column-attribute keywords that cannot open a data type.  With
#: ``typeless_columns`` enabled (SQLite's loose grammar), a column name
#: followed by one of these — or by ',' / ')' — declares no type.
_ATTRIBUTE_STARTERS = {
    "NOT", "NULL", "PRIMARY", "KEY", "UNIQUE", "DEFAULT", "REFERENCES",
    "CHECK", "COLLATE", "AUTO_INCREMENT", "AUTOINCREMENT", "GENERATED",
    "CONSTRAINT", "COMMENT",
}


class Parser:
    """Parse a token stream into a list of :class:`Statement` nodes.

    ``typeless_columns`` admits SQLite's grammar delta of column
    definitions without a data type (``CREATE TABLE t (raw, n INT)``);
    the default rejects them, preserving the historical strict shape of
    the MySQL grammar.

    After :meth:`statements` is exhausted, ``read_end`` tells whether any
    statement looked at the final token (EOF).  A parse of part of a
    script that never did is exactly the whole script's parse over that
    part: no statement saw where the part ends.
    """

    def __init__(
        self,
        tokens: list[Token],
        strict: bool = False,
        typeless_columns: bool = False,
    ) -> None:
        self._tokens = tokens
        self._pos = 0
        self._last = len(tokens) - 1
        self._strict = strict
        self._typeless_columns = typeless_columns
        self._at_end = False  # the current statement peeked the final token
        self.read_end = False

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = self._pos + offset
        if index >= self._last:
            self._at_end = True
            index = self._last
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept_word(self, *words: str) -> Token | None:
        if self._peek().is_word(*words):
            return self._next()
        return None

    def _expect_word(self, *words: str) -> Token:
        token = self._next()
        if not token.is_word(*words):
            raise SqlSyntaxError(
                f"expected {'/'.join(words)}, got {token.value!r}", token.line, token.column
            )
        return token

    def _expect(self, kind: TokenKind) -> Token:
        token = self._next()
        if token.kind is not kind:
            raise SqlSyntaxError(
                f"expected {kind.value}, got {token.value!r}", token.line, token.column
            )
        return token

    def _ident(self) -> str:
        """Parse a possibly-qualified identifier; returns the last part.

        ``db.table`` and ``schema.table`` qualify at the physical level;
        the logical study keys tables on their unqualified name.
        """
        token = self._next()
        if token.kind not in _IDENT_KINDS:
            raise SqlSyntaxError(f"expected identifier, got {token.value!r}", token.line, token.column)
        name = token.value
        while self._peek().kind is TokenKind.DOT:
            self._next()
            part = self._next()
            if part.kind not in _IDENT_KINDS:
                raise SqlSyntaxError(
                    f"expected identifier after '.', got {part.value!r}", part.line, part.column
                )
            name = part.value
        return name

    def _skip_to_semicolon(self) -> str:
        """Consume tokens up to and including the next ';' (or EOF).

        Semicolons never legally occur inside a statement outside string
        literals, and literals are already single tokens — so no paren
        balancing is needed, which also makes error recovery resume at
        the earliest plausible statement boundary.
        """
        parts: list[str] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.EOF:
                break
            if token.kind is TokenKind.SEMICOLON:
                self._next()
                break
            if token.is_word("GO"):
                break  # MSSQL batch separator terminates the statement
            parts.append(self._next().value)
        return " ".join(parts)

    def _skip_parenthesized(self) -> None:
        """Consume a balanced ( ... ) group; assumes next token is '('."""
        self._expect(TokenKind.LPAREN)
        depth = 1
        while depth:
            token = self._next()
            if token.kind is TokenKind.EOF:
                raise SqlSyntaxError("unbalanced parentheses", token.line, token.column)
            if token.kind is TokenKind.LPAREN:
                depth += 1
            elif token.kind is TokenKind.RPAREN:
                depth -= 1

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def statements(self) -> Iterator[Statement]:
        """Yield one node per top-level statement until EOF."""
        while True:
            while self._peek().kind is TokenKind.SEMICOLON:
                self._next()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                return
            start = self._pos
            self._at_end = False
            try:
                statement = self._statement()
            except SqlSyntaxError:
                if self._strict:
                    raise
                self._pos = start
                verb = self._peek().upper if self._peek().kind is TokenKind.WORD else "?"
                statement = IgnoredStatement(verb=verb, raw=self._skip_to_semicolon())
            self.read_end = self.read_end or self._at_end
            yield statement

    def _statement(self) -> Statement:
        token = self._peek()
        if token.kind is not TokenKind.WORD:
            return IgnoredStatement(verb="?", raw=self._skip_to_semicolon())
        verb = token.upper
        if verb == "GO":
            # MSSQL batch separator: a statement of its own, never a
            # prefix of the next statement (it carries no semicolon).
            self._next()
            return IgnoredStatement(verb="GO")
        if verb == "CREATE":
            return self._create()
        if verb == "ALTER" and self._peek(1).is_word("TABLE"):
            return self._alter_table()
        if verb == "DROP" and self._peek(1).is_word("TABLE"):
            return self._drop_table()
        if verb == "RENAME" and self._peek(1).is_word("TABLE"):
            return self._rename_table()
        return IgnoredStatement(verb=verb, raw=self._skip_to_semicolon())

    def _create(self) -> Statement:
        start = self._pos
        self._next()  # CREATE
        # Swallow modifiers: TEMPORARY, OR REPLACE, DEFINER=..., etc.
        while self._peek().is_word("TEMPORARY", "OR", "REPLACE", "DEFINER", "ALGORITHM") or (
            self._peek().kind is TokenKind.OPERATOR and self._peek().value == "="
        ):
            self._next()
        if not self._peek().is_word("TABLE"):
            self._pos = start
            return IgnoredStatement(verb="CREATE", raw=self._skip_to_semicolon())
        self._next()  # TABLE
        if_not_exists = False
        if self._accept_word("IF"):
            self._expect_word("NOT")
            self._expect_word("EXISTS")
            if_not_exists = True
        name = self._ident()
        # CREATE TABLE x LIKE y / AS SELECT ... carry no column list we
        # can resolve without a catalog; treat as ignored.
        if not self._peek().kind is TokenKind.LPAREN:
            self._pos = start
            return IgnoredStatement(verb="CREATE", raw=self._skip_to_semicolon())
        self._expect(TokenKind.LPAREN)
        columns: list[ColumnDef] = []
        constraints: list[TableConstraint] = []
        while True:
            if self._peek().upper in _CONSTRAINT_STARTERS and self._peek().kind is TokenKind.WORD:
                constraint = self._table_constraint()
                if constraint is not None:
                    constraints.append(constraint)
            else:
                columns.append(self._column_def())
            token = self._next()
            if token.kind is TokenKind.RPAREN:
                break
            if token.kind is not TokenKind.COMMA:
                raise SqlSyntaxError(
                    f"expected ',' or ')' in column list, got {token.value!r}",
                    token.line,
                    token.column,
                )
        options = self._table_options()
        return CreateTable(
            name=name,
            columns=tuple(columns),
            constraints=tuple(constraints),
            if_not_exists=if_not_exists,
            options=tuple(options),
        )

    def _table_options(self) -> list[tuple[str, str]]:
        """Parse trailing ENGINE=InnoDB DEFAULT CHARSET=utf8 ... options."""
        options: list[tuple[str, str]] = []
        while True:
            token = self._peek()
            if token.kind in (TokenKind.SEMICOLON, TokenKind.EOF) or token.is_word("GO"):
                if token.kind is TokenKind.SEMICOLON:
                    self._next()
                return options
            if token.kind is not TokenKind.WORD:
                self._next()
                continue
            key_parts = [self._next().value]
            while self._peek().kind is TokenKind.WORD and not self._peek().is_word(
                "ENGINE", "DEFAULT", "CHARSET", "COLLATE", "COMMENT", "AUTO_INCREMENT", "ROW_FORMAT"
            ):
                key_parts.append(self._next().value)
            value = ""
            if self._peek().kind is TokenKind.OPERATOR and self._peek().value == "=":
                self._next()
                value = self._next().value
            elif self._peek().kind in (TokenKind.WORD, TokenKind.STRING, TokenKind.NUMBER):
                value = self._next().value
            options.append((" ".join(key_parts).upper(), value))

    # -- column definitions --------------------------------------------

    def _no_data_type_follows(self) -> bool:
        """After a column name: does the definition omit the type?"""
        token = self._peek()
        if token.kind in (TokenKind.COMMA, TokenKind.RPAREN):
            return True
        return token.kind is TokenKind.WORD and token.upper in _ATTRIBUTE_STARTERS

    def _column_def(self) -> ColumnDef:
        token = self._next()
        if token.kind not in _IDENT_KINDS:
            raise SqlSyntaxError(f"expected column name, got {token.value!r}", token.line, token.column)
        name = token.value
        if self._typeless_columns and self._no_data_type_follows():
            # SQLite: the type is optional; an empty base means "none
            # declared" (BLOB affinity, which the frontend applies).
            data_type = DataType(base="", args=(), unsigned=False)
        else:
            data_type = self._data_type()
        nullable = True
        is_pk = False
        default: str | None = None
        auto_increment = False
        comment: str | None = None
        while True:
            token = self._peek()
            if token.kind in (TokenKind.COMMA, TokenKind.RPAREN, TokenKind.SEMICOLON, TokenKind.EOF):
                break
            if token.is_word("NOT") and self._peek(1).is_word("NULL"):
                self._next()
                self._next()
                nullable = False
            elif token.is_word("NULL"):
                self._next()
                nullable = True
            elif token.is_word("PRIMARY"):
                self._next()
                self._accept_word("KEY")
                is_pk = True
            elif token.is_word("KEY"):  # bare KEY == PRIMARY KEY in MySQL column def
                self._next()
                is_pk = True
            elif token.is_word("AUTO_INCREMENT", "AUTOINCREMENT"):
                self._next()
                auto_increment = True
            elif token.is_word("DEFAULT"):
                self._next()
                default = self._default_value()
            elif token.is_word("COMMENT"):
                self._next()
                value = self._next()
                comment = value.value
            elif token.is_word("REFERENCES"):
                # Inline FK: REFERENCES tbl (col) [ON DELETE ...]
                self._next()
                self._ident()
                if self._peek().kind is TokenKind.LPAREN:
                    self._skip_parenthesized()
                self._skip_column_fk_actions()
            elif token.is_word("CHECK"):
                self._next()
                if self._peek().kind is TokenKind.LPAREN:
                    self._skip_parenthesized()
            elif token.is_word("COLLATE", "CHARACTER", "CHARSET"):
                self._next()
                self._accept_word("SET")
                if self._peek().kind is TokenKind.OPERATOR and self._peek().value == "=":
                    self._next()
                self._next()
            elif token.is_word("ON") and self._peek(1).is_word("UPDATE"):
                # ON UPDATE CURRENT_TIMESTAMP
                self._next()
                self._next()
                self._next()
                if self._peek().kind is TokenKind.LPAREN:
                    self._skip_parenthesized()
            elif token.is_word("GENERATED", "AS", "VIRTUAL", "STORED", "ALWAYS"):
                self._next()
                if self._peek().kind is TokenKind.LPAREN:
                    self._skip_parenthesized()
            elif token.is_word("UNIQUE"):
                self._next()
                self._accept_word("KEY")
            elif token.is_word("UNSIGNED", "SIGNED", "ZEROFILL", "BINARY"):
                # modifiers that trail the type in sloppy dumps
                self._next()
            else:
                # Unknown attribute keyword/operator: consume one token.
                self._next()
        data_type = data_type
        return ColumnDef(
            name=name,
            data_type=data_type,
            nullable=nullable,
            is_primary_key=is_pk,
            default=default,
            auto_increment=auto_increment,
            comment=comment,
        )

    def _skip_column_fk_actions(self) -> None:
        while self._peek().is_word("ON", "MATCH"):
            self._next()  # ON / MATCH
            self._next()  # DELETE / UPDATE / FULL...
            while self._peek().is_word("CASCADE", "RESTRICT", "SET", "NO", "NULL", "ACTION", "DEFAULT"):
                self._next()

    def _default_value(self) -> str:
        token = self._next()
        if token.kind is TokenKind.OPERATOR and token.value == "-":
            follow = self._next()
            return "-" + follow.value
        value = token.value
        if token.kind is TokenKind.STRING:
            value = f"'{token.value}'"
        if self._peek().kind is TokenKind.LPAREN:
            # e.g. DEFAULT now(), DEFAULT current_timestamp(6)
            start = self._pos
            self._skip_parenthesized()
            value += "()"
            del start
        return value

    def _data_type(self) -> DataType:
        token = self._next()
        if token.kind is not TokenKind.WORD:
            raise SqlSyntaxError(f"expected data type, got {token.value!r}", token.line, token.column)
        base = token.value
        # Multi-word types: DOUBLE PRECISION, CHARACTER VARYING, etc.
        if token.is_word("DOUBLE") and self._peek().is_word("PRECISION"):
            self._next()
        elif token.is_word("CHARACTER") and self._peek().is_word("VARYING"):
            self._next()
            base = "VARCHAR"
        args: tuple[str, ...] = ()
        if self._peek().kind is TokenKind.LPAREN:
            args = self._type_args()
        unsigned = False
        while self._peek().is_word("UNSIGNED", "SIGNED", "ZEROFILL"):
            if self._next().upper == "UNSIGNED":
                unsigned = True
        return normalize_type(base, args, unsigned)

    def _type_args(self) -> tuple[str, ...]:
        self._expect(TokenKind.LPAREN)
        args: list[str] = []
        current: list[str] = []
        depth = 1
        while True:
            token = self._next()
            if token.kind is TokenKind.EOF:
                raise SqlSyntaxError("unterminated type arguments", token.line, token.column)
            if token.kind is TokenKind.LPAREN:
                depth += 1
                current.append(token.value)
            elif token.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    if current:
                        args.append("".join(current))
                    return tuple(args)
                current.append(token.value)
            elif token.kind is TokenKind.COMMA and depth == 1:
                args.append("".join(current))
                current = []
            elif token.kind is TokenKind.STRING:
                current.append(f"'{token.value}'")
            else:
                current.append(token.value)

    # -- table constraints ----------------------------------------------

    def _table_constraint(self) -> TableConstraint | None:
        name: str | None = None
        if self._accept_word("CONSTRAINT"):
            if self._peek().kind in _IDENT_KINDS and not self._peek().is_word(
                "PRIMARY", "UNIQUE", "FOREIGN", "CHECK"
            ):
                name = self._ident()
        token = self._peek()
        if token.is_word("PRIMARY"):
            self._next()
            self._expect_word("KEY")
            if self._peek().is_word("USING"):
                self._next()
                self._next()
            columns = self._column_name_list()
            return TableConstraint(ConstraintKind.PRIMARY_KEY, columns=columns, name=name)
        if token.is_word("UNIQUE"):
            self._next()
            self._accept_word("KEY") or self._accept_word("INDEX")
            if self._peek().kind in _IDENT_KINDS and self._peek().kind is not TokenKind.LPAREN:
                if self._peek().kind in _IDENT_KINDS and not self._peek().is_word("USING"):
                    if self._peek().kind is not TokenKind.LPAREN:
                        if self._peek().kind in _IDENT_KINDS:
                            name = name or self._ident()
            if self._peek().is_word("USING"):
                self._next()
                self._next()
            columns = self._column_name_list()
            return TableConstraint(ConstraintKind.UNIQUE, columns=columns, name=name)
        if token.is_word("FOREIGN"):
            self._next()
            self._expect_word("KEY")
            if self._peek().kind in _IDENT_KINDS:
                name = name or self._ident()
            columns = self._column_name_list()
            self._expect_word("REFERENCES")
            ref_table = self._ident()
            ref_columns: tuple[str, ...] = ()
            if self._peek().kind is TokenKind.LPAREN:
                ref_columns = self._column_name_list()
            self._skip_column_fk_actions()
            return TableConstraint(
                ConstraintKind.FOREIGN_KEY,
                columns=columns,
                name=name,
                ref_table=ref_table,
                ref_columns=ref_columns,
            )
        if token.is_word("KEY", "INDEX"):
            self._next()
            if self._peek().kind in _IDENT_KINDS:
                name = name or self._ident()
            if self._peek().is_word("USING"):
                self._next()
                self._next()
            columns = self._column_name_list()
            return TableConstraint(ConstraintKind.INDEX, columns=columns, name=name)
        if token.is_word("FULLTEXT", "SPATIAL"):
            kind = ConstraintKind.FULLTEXT if token.is_word("FULLTEXT") else ConstraintKind.SPATIAL
            self._next()
            self._accept_word("KEY") or self._accept_word("INDEX")
            if self._peek().kind in _IDENT_KINDS:
                name = name or self._ident()
            columns = self._column_name_list()
            return TableConstraint(kind, columns=columns, name=name)
        if token.is_word("CHECK"):
            self._next()
            if self._peek().kind is TokenKind.LPAREN:
                self._skip_parenthesized()
            return TableConstraint(ConstraintKind.CHECK, name=name)
        raise SqlSyntaxError(f"unrecognized constraint {token.value!r}", token.line, token.column)

    def _column_name_list(self) -> tuple[str, ...]:
        """Parse ``(col [(len)] [ASC|DESC], ...)`` index column lists."""
        self._expect(TokenKind.LPAREN)
        names: list[str] = []
        while True:
            token = self._next()
            if token.kind in _IDENT_KINDS:
                names.append(token.value)
                if self._peek().kind is TokenKind.LPAREN:  # prefix length: col(10)
                    self._skip_parenthesized()
                while self._peek().is_word("ASC", "DESC"):
                    self._next()
            elif token.kind is TokenKind.RPAREN:
                break
            elif token.kind is TokenKind.COMMA:
                continue
            elif token.kind is TokenKind.EOF:
                raise SqlSyntaxError("unterminated column list", token.line, token.column)
            else:
                # expression index member: skip to , or ) at depth 0
                depth = 1 if token.kind is TokenKind.LPAREN else 0
                while depth or self._peek().kind not in (TokenKind.COMMA, TokenKind.RPAREN):
                    inner = self._next()
                    if inner.kind is TokenKind.LPAREN:
                        depth += 1
                    elif inner.kind is TokenKind.RPAREN:
                        depth -= 1
                    elif inner.kind is TokenKind.EOF:
                        raise SqlSyntaxError("unterminated column list", inner.line, inner.column)
            next_token = self._peek()
            if next_token.kind is TokenKind.COMMA:
                self._next()
            elif next_token.kind is TokenKind.RPAREN:
                self._next()
                break
        return tuple(names)

    # -- ALTER TABLE -----------------------------------------------------

    def _alter_table(self) -> AlterTable:
        self._expect_word("ALTER")
        self._expect_word("TABLE")
        self._accept_word("ONLY")  # postgres
        if self._accept_word("IF"):
            self._expect_word("EXISTS")
        name = self._ident()
        actions: list[AlterAction] = []
        while True:
            actions.append(self._alter_action(name))
            token = self._peek()
            if token.kind is TokenKind.COMMA:
                self._next()
                continue
            if token.kind is TokenKind.SEMICOLON:
                self._next()
            break
        return AlterTable(name=name, actions=tuple(actions))

    def _alter_action(self, table: str) -> AlterAction:
        token = self._peek()
        if token.is_word("ADD"):
            self._next()
            if self._peek().upper in _CONSTRAINT_STARTERS and self._peek().kind is TokenKind.WORD:
                constraint = self._table_constraint()
                return AlterAction(AlterKind.ADD_CONSTRAINT, constraint=constraint)
            self._accept_word("COLUMN")
            if self._accept_word("IF"):
                self._expect_word("NOT")
                self._expect_word("EXISTS")
            if self._peek().kind is TokenKind.LPAREN:
                # ADD (col1 def, col2 def) — MySQL multi-add shorthand:
                # flatten to one action per column via recursion marker.
                self._next()
                column = self._column_def()
                # remaining columns become extra ADDs handled by caller?
                # Keep it simple: parse all, return a composite via raw.
                columns = [column]
                while self._peek().kind is TokenKind.COMMA:
                    self._next()
                    columns.append(self._column_def())
                self._expect(TokenKind.RPAREN)
                if len(columns) == 1:
                    return AlterAction(AlterKind.ADD_COLUMN, column=columns[0])
                # Composite: encode extras in raw so the builder can apply.
                return AlterAction(
                    AlterKind.ADD_COLUMN,
                    column=columns[0],
                    raw="|".join(c.name for c in columns[1:]),
                    constraint=None,
                )
            column = self._column_def()
            self._skip_column_position()
            return AlterAction(AlterKind.ADD_COLUMN, column=column)
        if token.is_word("DROP"):
            self._next()
            if self._accept_word("PRIMARY"):
                self._expect_word("KEY")
                return AlterAction(AlterKind.DROP_PRIMARY_KEY)
            if self._peek().is_word("CONSTRAINT", "FOREIGN", "INDEX", "KEY"):
                if self._accept_word("FOREIGN"):
                    self._expect_word("KEY")
                else:
                    self._next()
                if self._accept_word("IF"):
                    self._expect_word("EXISTS")
                target = self._ident() if self._peek().kind in _IDENT_KINDS else None
                return AlterAction(AlterKind.DROP_CONSTRAINT, old_name=target)
            self._accept_word("COLUMN")
            if self._accept_word("IF"):
                self._expect_word("EXISTS")
            column_name = self._ident()
            self._accept_word("CASCADE") or self._accept_word("RESTRICT")
            return AlterAction(AlterKind.DROP_COLUMN, old_name=column_name)
        if token.is_word("MODIFY"):
            self._next()
            self._accept_word("COLUMN")
            column = self._column_def()
            self._skip_column_position()
            return AlterAction(AlterKind.MODIFY_COLUMN, column=column)
        if token.is_word("CHANGE"):
            self._next()
            self._accept_word("COLUMN")
            old_name = self._ident()
            column = self._column_def()
            self._skip_column_position()
            return AlterAction(AlterKind.CHANGE_COLUMN, column=column, old_name=old_name)
        if token.is_word("ALTER"):
            # ALTER [COLUMN] col SET DEFAULT / DROP DEFAULT / TYPE t (pg)
            self._next()
            self._accept_word("COLUMN")
            column_name = self._ident()
            if self._accept_word("TYPE"):
                data_type = self._data_type()
                while self._peek().is_word("USING"):
                    # USING expr — consume until , or ;
                    self._next()
                    while self._peek().kind not in (
                        TokenKind.COMMA,
                        TokenKind.SEMICOLON,
                        TokenKind.EOF,
                    ):
                        if self._peek().kind is TokenKind.LPAREN:
                            self._skip_parenthesized()
                        else:
                            self._next()
                column = ColumnDef(name=column_name, data_type=data_type)
                return AlterAction(AlterKind.MODIFY_COLUMN, column=column)
            raw_parts = []
            while self._peek().kind not in (TokenKind.COMMA, TokenKind.SEMICOLON, TokenKind.EOF):
                raw_parts.append(self._next().value)
            return AlterAction(AlterKind.OTHER, old_name=column_name, raw=" ".join(raw_parts))
        if token.is_word("RENAME"):
            self._next()
            if self._accept_word("COLUMN"):
                old_name = self._ident()
                self._expect_word("TO")
                new_name = self._ident()
                return AlterAction(
                    AlterKind.RENAME_COLUMN,
                    column=None,
                    old_name=old_name,
                    raw=new_name,
                )
            if self._peek().is_word("INDEX", "KEY"):
                self._next()
                self._ident()
                self._expect_word("TO")
                self._ident()
                return AlterAction(AlterKind.OTHER, raw="rename index")
            self._accept_word("TO") or self._accept_word("AS")
            new_table = self._ident()
            return AlterAction(AlterKind.RENAME_TABLE, old_name=table, raw=new_table)
        # ENGINE=..., AUTO_INCREMENT=..., CONVERT TO CHARACTER SET ... :
        # consume tokens until a , at depth 0 or a ; at any depth (a ;
        # outside a string always ends a MySQL statement).
        raw_parts = []
        depth = 0
        while True:
            current = self._peek()
            if current.kind in (TokenKind.EOF, TokenKind.SEMICOLON):
                break
            if depth == 0 and current.kind is TokenKind.COMMA:
                break
            if current.kind is TokenKind.LPAREN:
                depth += 1
            elif current.kind is TokenKind.RPAREN and depth:
                depth -= 1  # a stray ')' must not hide the statement's ';'
            raw_parts.append(self._next().value)
        return AlterAction(AlterKind.OTHER, raw=" ".join(raw_parts))

    def _skip_column_position(self) -> None:
        if self._accept_word("FIRST"):
            return
        if self._accept_word("AFTER"):
            self._ident()

    # -- DROP / RENAME TABLE ----------------------------------------------

    def _drop_table(self) -> DropTable:
        self._expect_word("DROP")
        self._expect_word("TABLE")
        if_exists = False
        if self._accept_word("IF"):
            self._expect_word("EXISTS")
            if_exists = True
        names = [self._ident()]
        while self._peek().kind is TokenKind.COMMA:
            self._next()
            names.append(self._ident())
        self._accept_word("CASCADE") or self._accept_word("RESTRICT")
        if self._peek().kind is TokenKind.SEMICOLON:
            self._next()
        return DropTable(names=tuple(names), if_exists=if_exists)

    def _rename_table(self) -> RenameTable:
        self._expect_word("RENAME")
        self._expect_word("TABLE")
        renames: list[tuple[str, str]] = []
        while True:
            old = self._ident()
            self._expect_word("TO")
            new = self._ident()
            renames.append((old, new))
            if self._peek().kind is TokenKind.COMMA:
                self._next()
                continue
            if self._peek().kind is TokenKind.SEMICOLON:
                self._next()
            break
        return RenameTable(renames=tuple(renames))


def parse_script(
    text: str,
    strict: bool = False,
    typeless_columns: bool = False,
    *,
    memo: StatementMemo | None = None,
) -> list[Statement]:
    """Parse a whole ``.sql`` script into statement nodes.

    With ``strict=False`` (the default), lexing is lenient too: binary
    junk or unterminated quotes degrade instead of raising, so mining a
    hostile repository never crashes.  ``typeless_columns`` admits
    SQLite's optional column types (see :class:`Parser`).

    The lenient parse goes one segment at a time (the cuts of
    :func:`~repro.sqlddl.lexer.split_statements`) and looks each segment
    up in *memo* first (a fresh one when ``None``).  A segment the memo
    holds is found without the splitter: the text through the next
    ``;`` character, if it is a key, is the segment cut there.  It
    returns exactly what :func:`parse_whole_script` returns:

    - a segment whose statements never looked at its final token parses
      as it would inside the script; only such parses enter the memo,
      except a final segment that ends with a ``;`` inside a line
      comment (``-- c;``), which the ``;`` lookup would misread as a
      closed segment;
    - the last segment ends where the script ends, so its parse is
      exact either way;
    - any other segment that looked at its end, or a script the
      splitter cannot cut, is parsed whole instead (at most two passes).
    """
    if strict:
        return parse_whole_script(text, strict, typeless_columns)
    if memo is None:
        memo = {}
    statements: list[Statement] = []
    pos, length = 0, len(text)
    while True:
        semicolon = text.find(";", pos)
        end = length if semicolon < 0 else semicolon + 1
        parsed = memo.get((typeless_columns, text[pos:end]))
        if parsed is None:
            cut = cut_segment(text, pos)
            if cut is None:
                return parse_whole_script(text, False, typeless_columns)
            end, closed = cut
            segment = text[pos:end]
            parser = Parser(
                tokenize(segment, strict=False), typeless_columns=typeless_columns
            )
            parsed = tuple(parser.statements())
            if parser.read_end:
                if end != length:
                    return parse_whole_script(text, False, typeless_columns)
            elif closed or not segment.endswith(";"):
                memo[(typeless_columns, segment)] = parsed
        statements.extend(parsed)
        if end == length:
            return statements
        pos = end


def parse_whole_script(
    text: str, strict: bool = False, typeless_columns: bool = False
) -> list[Statement]:
    """Lex and parse *text* in one pass: the strict path, the lenient
    fallback, and the reference the segmented parse must equal."""
    return list(
        Parser(
            tokenize(text, strict=strict),
            strict=strict,
            typeless_columns=typeless_columns,
        ).statements()
    )


def parse_statement(text: str) -> Statement:
    """Parse exactly one statement (strict); convenience for tests."""
    statements = parse_whole_script(text, strict=True)
    if len(statements) != 1:
        raise SqlSyntaxError(f"expected exactly one statement, got {len(statements)}")
    return statements[0]
