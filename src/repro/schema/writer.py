"""Render a logical schema back to canonical MySQL DDL text.

Used by the synthetic-corpus realizer: a generated project's versions
are materialized as *actual SQL files*, so that the entire downstream
pipeline (lex → parse → build → diff) runs on real text, exactly as it
would on a cloned repository.  Round-trip stability
(``build_schema(render_schema(s)) == s``) is property-tested.
"""

from __future__ import annotations

from repro.schema.model import Attribute, Schema, Table


def render_column(attribute: Attribute) -> str:
    """Render one column definition line (without trailing comma)."""
    parts = [f"`{attribute.name}`", attribute.data_type.render()]
    if not attribute.nullable:
        parts.append("NOT NULL")
    return " ".join(parts)


def render_create_table(table: Table, engine: str = "InnoDB") -> str:
    """Render a full CREATE TABLE statement for *table*."""
    lines = [f"CREATE TABLE `{table.name}` ("]
    body = [f"  {render_column(attribute)}" for attribute in table.attributes]
    if table.primary_key:
        quoted = ", ".join(f"`{c}`" for c in table.primary_key)
        body.append(f"  PRIMARY KEY ({quoted})")
    lines.append(",\n".join(body))
    lines.append(f") ENGINE={engine} DEFAULT CHARSET=utf8;")
    return "\n".join(lines)


def render_schema(schema: Schema, header: str | None = None, engine: str = "InnoDB") -> str:
    """Render a whole schema as one ``.sql`` file."""
    parts: list[str] = []
    if header:
        parts.append("\n".join(f"-- {line}" for line in header.splitlines()))
        parts.append("")
    for table in schema.tables:
        parts.append(render_create_table(table, engine=engine))
        parts.append("")
    return "\n".join(parts).rstrip() + "\n" if parts else ""
