"""The advisor engine: proposed DDL in, versioned migration + verdict out.

Closes the measure→recommend loop (Etien & Anquetil, arxiv 2404.08525):
given a project's stored history and the *full proposed schema* as DDL
text, the engine

1. infers the SMO sequence transforming the latest stored version into
   the proposal (:func:`repro.smo.infer_smos`) and renders it as a
   versioned migration — an ``up`` script, its exact inverse ``down``
   script, a from→to version pair and a checksum, following the
   version-bump/migration-registry discipline: apply ``up`` only when
   the live schema version equals ``from_version``, bump to
   ``to_version`` in the same transaction, and the pair is idempotent
   under that guard (a replayed migration is a no-op because the
   version no longer matches);
2. judges the proposal against the project's evolution profile
   (:mod:`repro.advisor.findings`) — taxon, heartbeat distribution,
   destructive potential — and attaches the findings.

Both invariants the study's algebra guarantees are checked on every
advised migration, not just in tests: ``apply_script(old, ops) ==
proposed`` and ``apply_script(proposed, invert_script(ops)) == old``,
compared under :meth:`Schema.canonical` — the identity the study
matches versions by: tables and attributes by case-insensitive name,
a primary key by its member set, position carrying none.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.advisor.findings import Finding, evaluate_findings
from repro.core.project import ProjectHistory
from repro.core.taxa import Taxon, classify
from repro.core.diff import TransitionDiff, diff_schemas
from repro.schema.builder import build_schema
from repro.schema.model import Schema
from repro.smo import (
    SmoOperation,
    apply_script,
    infer_smos,
    invert_script,
    render_script,
)


class AdvisorError(Exception):
    """The proposal cannot be advised on (bad DDL, empty schema, ...)."""


@dataclass(frozen=True)
class MigrationPlan:
    """One versioned, invertible migration: the registry-entry shape.

    ``from_version``/``to_version`` are the schema-version ledger
    ordinals the migration moves between; the guard "apply only when
    the live version equals ``from_version``" is what makes the script
    idempotent in the registry discipline.
    """

    from_version: int
    to_version: int
    operations: tuple[SmoOperation, ...]
    up: str
    down: str
    checksum: str

    @property
    def cost(self) -> int:
        return sum(op.cost for op in self.operations)

    def payload(self) -> dict:
        return {
            "from_version": self.from_version,
            "to_version": self.to_version,
            "operations": [
                {"op": type(op).__name__, "description": op.describe(),
                 "cost": op.cost}
                for op in self.operations
            ],
            "up": self.up,
            "down": self.down,
            "checksum": self.checksum,
            "cost": self.cost,
            "precondition": f"schema_version == {self.from_version}",
        }


@dataclass(frozen=True)
class Advice:
    """The full advisor verdict for one (project, proposal) pair."""

    project: str
    project_id: int
    taxon: Taxon
    base_version: int
    base_size: tuple[int, int]  # (tables, attributes)
    proposed_size: tuple[int, int]
    diff: TransitionDiff
    migration: MigrationPlan
    findings: tuple[Finding, ...]

    @property
    def atypical(self) -> bool:
        return any(finding.is_atypical for finding in self.findings)

    def payload(self) -> dict:
        """The JSON shape served (and persisted) for this advice."""
        return {
            "project": self.project,
            "project_id": self.project_id,
            "taxon": self.taxon.value,
            "base": {
                "version": self.base_version,
                "tables": self.base_size[0],
                "attributes": self.base_size[1],
            },
            "proposed": {
                "tables": self.proposed_size[0],
                "attributes": self.proposed_size[1],
            },
            "delta": {
                "attrs_born": self.diff.attrs_born,
                "attrs_injected": self.diff.attrs_injected,
                "attrs_deleted": self.diff.attrs_deleted,
                "attrs_ejected": self.diff.attrs_ejected,
                "attrs_type_changed": self.diff.attrs_type_changed,
                "attrs_pk_changed": self.diff.attrs_pk_changed,
                "tables_inserted": len(self.diff.tables_inserted),
                "tables_deleted": len(self.diff.tables_deleted),
                "expansion": self.diff.expansion,
                "maintenance": self.diff.maintenance,
                "activity": self.diff.activity,
            },
            "migration": self.migration.payload(),
            "findings": [finding.payload() for finding in self.findings],
            "atypical": self.atypical,
        }


def parse_proposal(ddl: str) -> Schema:
    """Parse proposed DDL text into a schema, or raise :class:`AdvisorError`."""
    if not isinstance(ddl, str) or not ddl.strip():
        raise AdvisorError("the proposal must be non-empty DDL text")
    try:
        proposed = build_schema(ddl, lenient=True)
    except Exception as exc:
        raise AdvisorError(f"the proposal does not parse: {exc}") from exc
    if proposed.size.tables == 0:
        raise AdvisorError("the proposal declares no tables (no CREATE TABLE parsed)")
    return proposed


def advise(
    history: ProjectHistory,
    proposal_ddl: str,
    project_id: int,
    taxon: str | None = None,
    heartbeat_rows: list[dict] | None = None,
) -> Advice:
    """Advise on moving *history*'s latest schema to *proposal_ddl*.

    *taxon* is the stored classification (its enum ``value``); when the
    store has none (e.g. a rigid project), the project is re-classified
    from its own metrics.  *heartbeat_rows* feed the distributional
    evidence; omitted rows just mute the distribution-based findings.
    """
    proposed = parse_proposal(proposal_ddl)
    versions = history.history.versions
    if not versions:
        raise AdvisorError(f"{history.name} has no stored schema versions")
    base = versions[-1]
    old = base.schema
    operations = tuple(infer_smos(old, proposed))
    if apply_script(old, operations).canonical() != proposed.canonical():
        raise AdvisorError(
            "SMO inference does not reproduce the proposal"
        )  # pragma: no cover - the algebra guarantees this
    if apply_script(proposed, invert_script(operations)).canonical() != old.canonical():
        raise AdvisorError(
            "the inverted script does not restore the base schema"
        )  # pragma: no cover - the algebra guarantees this
    up = render_script(operations, old)
    down = render_script(invert_script(operations), proposed)
    checksum = hashlib.sha256(
        f"{base.index}\n{up}\n--\n{down}".encode("utf-8")
    ).hexdigest()[:16]
    migration = MigrationPlan(
        from_version=base.index,
        to_version=base.index + 1,
        operations=operations,
        up=up,
        down=down,
        checksum=checksum,
    )
    resolved_taxon = None
    if taxon is not None:
        for candidate in Taxon:
            if taxon in (candidate.value, candidate.short, candidate.name.lower()):
                resolved_taxon = candidate
                break
    if resolved_taxon is None:
        resolved_taxon = classify(history.metrics)
    diff = diff_schemas(old, proposed)
    findings = evaluate_findings(
        resolved_taxon, history.metrics, diff, heartbeat_rows or ()
    )
    return Advice(
        project=history.name,
        project_id=project_id,
        taxon=resolved_taxon,
        base_version=base.index,
        base_size=(old.size.tables, old.size.attributes),
        proposed_size=(proposed.size.tables, proposed.size.attributes),
        diff=diff,
        migration=migration,
        findings=findings,
    )
