"""Schema Modification Operations (SMOs).

The related work ([3] Curino et al., [4] Herrmann et al.) describes
schema histories as *semantically rich sequences of operations* rather
than raw diffs.  This subpackage provides that algebra on top of the
core model: operation types, inference of an SMO script from a pair of
schema versions, application of a script to a schema, inversion, and
the round-trip guarantees connecting them to the study's change counts.
"""

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
from repro.smo.infer import infer_smos
from repro.smo.apply import apply_script
from repro.smo.invert import invert_smo, invert_script
from repro.smo.render import render_script, render_smo

__all__ = [
    "AddColumn",
    "ChangeColumnType",
    "CreateTableOp",
    "DropColumn",
    "DropTableOp",
    "RenameColumn",
    "RenameTable",
    "SetPrimaryKey",
    "SmoError",
    "SmoOperation",
    "apply_script",
    "infer_smos",
    "invert_script",
    "invert_smo",
    "render_script",
    "render_smo",
]
