"""The MySQL frontend: the historical parse path behind the protocol.

MySQL is the paper's DBMS under study, and every corpus built before
the dialect subsystem existed went through
:func:`~repro.sqlddl.parser.parse_script` directly.  This frontend is a
**strict identity wrapper** over that function — no preprocessing, no
type rewriting, not even the no-op post-parse pass — so the statement
objects it returns are the exact objects the old path returned and the
default (``--dialects mysql``) corpus stays byte-identical.
"""

from __future__ import annotations

from repro.sqlddl.dialects.base import BaseFrontend
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.parser import StatementMemo, parse_script


class MySqlFrontend(BaseFrontend):
    """MySQL / MariaDB DDL: the shared parser's native grammar."""

    name = "mysql"
    dialect = Dialect.MYSQL

    def parse(self, text: str, strict: bool = False, *, memo: StatementMemo | None = None):
        # Bypass the base-class rewrite pass entirely: the guarantee is
        # not "equal ASTs" but "the same code path as before dialects".
        return parse_script(text, strict=strict, memo=memo)
