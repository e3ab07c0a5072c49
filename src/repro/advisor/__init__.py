"""The schema-migration advisor: from measuring evolution to recommending it.

Given a project's stored history and a proposed DDL change, the advisor
infers the SMO sequence, renders a versioned + invertible migration
script (up/down, registry discipline), and flags changes that are
atypical for the project's evolution profile (taxon + heartbeat
distribution).  Advice is persisted as first-class store rows and
served over ``POST /v1/projects/{id}/advise`` — the system's first
write-path endpoint.
"""

from repro.advisor.engine import (
    Advice,
    AdvisorError,
    MigrationPlan,
    advise,
    parse_proposal,
)
from repro.advisor.findings import (
    MASS_INJECTION_THRESHOLD,
    SEVERITIES,
    Finding,
    evaluate_findings,
)

__all__ = [
    "Advice",
    "AdvisorError",
    "Finding",
    "MASS_INJECTION_THRESHOLD",
    "MigrationPlan",
    "SEVERITIES",
    "advise",
    "evaluate_findings",
    "parse_proposal",
]
