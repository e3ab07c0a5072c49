"""Pluggable DDL dialect frontends.

One :class:`~repro.sqlddl.dialects.base.DialectFrontend` per supported
vendor, every one producing the **same** canonical AST
(:mod:`repro.sqlddl.ast`), so the measurement machinery — schema
building, diffing, SMO inference, taxa, the advisor — is dialect-blind.

The registry below is the single naming authority for the rest of the
system: store rows, ``--dialects`` flags, API filter values and loadgen
families all use the canonical frontend names ``"mysql"``,
``"postgresql"`` and ``"sqlite"``.  :func:`frontend_for` also accepts
loose vendor spellings (``postgres``, ``pgsql``, ``mariadb``, ...) and
:class:`~repro.sqlddl.dialect.Dialect` members, resolving them through
the same alias table detection uses.
"""

from __future__ import annotations

from repro.sqlddl.dialect import Dialect
from repro.sqlddl.dialects.base import BaseFrontend, DialectFrontend
from repro.sqlddl.dialects.mysql import MySqlFrontend
from repro.sqlddl.dialects.postgresql import PostgresFrontend
from repro.sqlddl.dialects.sqlite import SqliteFrontend
from repro.sqlddl.errors import UnsupportedDialectError
from repro.sqlddl.parser import StatementMemo

#: The canonical registry, in documented precedence order.
FRONTENDS: dict[str, DialectFrontend] = {
    frontend.name: frontend
    for frontend in (MySqlFrontend(), PostgresFrontend(), SqliteFrontend())
}

#: Canonical frontend name per detectable dialect (where one exists).
_BY_DIALECT: dict[Dialect, str] = {
    frontend.dialect: name for name, frontend in FRONTENDS.items()
}

#: The default frontend — the paper's DBMS and the byte-compat baseline.
DEFAULT_DIALECT = "mysql"


def canonical_dialect_name(name: str | Dialect) -> str:
    """Resolve a loose vendor spelling to a canonical frontend name.

    Raises :class:`~repro.sqlddl.errors.UnsupportedDialectError` for
    vendors without a frontend (mssql, oracle) and unknown spellings.
    """
    dialect = name if isinstance(name, Dialect) else None
    if dialect is None:
        lowered = str(name).lower()
        if lowered in FRONTENDS:
            return lowered
        dialect = Dialect.from_name(lowered)  # raises on unknown names
    canonical = _BY_DIALECT.get(dialect)
    if canonical is None:
        raise UnsupportedDialectError(
            f"no dialect frontend for {dialect.value!r}"
            f" (available: {', '.join(FRONTENDS)})"
        )
    return canonical


def frontend_for(name: str | Dialect) -> DialectFrontend:
    """The frontend registered under *name* (loose spellings accepted)."""
    return FRONTENDS[canonical_dialect_name(name)]


def parse_script_for(
    text: str,
    dialect: str | Dialect = DEFAULT_DIALECT,
    strict: bool = False,
    *,
    memo: StatementMemo | None = None,
):
    """Parse *text* through the named dialect's frontend (*memo*: see
    :func:`~repro.sqlddl.parser.parse_script`)."""
    return frontend_for(dialect).parse(text, strict=strict, memo=memo)


__all__ = [
    "BaseFrontend",
    "DEFAULT_DIALECT",
    "DialectFrontend",
    "FRONTENDS",
    "MySqlFrontend",
    "PostgresFrontend",
    "SqliteFrontend",
    "canonical_dialect_name",
    "frontend_for",
    "parse_script_for",
]
