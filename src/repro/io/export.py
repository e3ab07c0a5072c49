"""Write study artifacts: per-project measures, per-transition deltas,
taxa assignments, the funnel, and the Fig 4 summary — as CSV and JSON."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.core.analysis import FIG4_MEASURES, CorpusAnalysis
from repro.core.project import ProjectHistory
from repro.core.taxa import TAXA_ORDER
from repro.mining.funnel import FunnelReport

#: Column order of projects.csv.
PROJECT_FIELDS = (
    "project",
    "taxon",
    "ddl_path",
    "n_commits",
    "active_commits",
    "total_activity",
    "expansion",
    "maintenance",
    "reeds",
    "turf_commits",
    "table_insertions",
    "table_deletions",
    "tables_at_start",
    "tables_at_end",
    "attributes_at_start",
    "attributes_at_end",
    "sup_months",
    "pup_months",
    "total_repo_commits",
    "ddl_commit_share",
    "domain",
)

#: Column order of transitions.csv.
TRANSITION_FIELDS = (
    "project",
    "transition_id",
    "timestamp",
    "days_since_v0",
    "running_month",
    "running_year",
    "old_tables",
    "old_attributes",
    "new_tables",
    "new_attributes",
    "attrs_born",
    "attrs_injected",
    "attrs_deleted",
    "attrs_ejected",
    "attrs_type_changed",
    "attrs_pk_changed",
    "expansion",
    "maintenance",
    "activity",
    "is_active",
)


def project_rows(projects: Iterable[ProjectHistory], analysis: CorpusAnalysis) -> list[dict]:
    """One row per project: every Fig 4 measure plus context."""
    rows = []
    for project in projects:
        metrics = project.metrics
        rows.append(
            {
                "project": project.name,
                "taxon": analysis.assignments.get(project.name, "").value
                if project.name in analysis.assignments
                else "",
                "ddl_path": project.ddl_path,
                "n_commits": metrics.n_commits,
                "active_commits": metrics.active_commits,
                "total_activity": metrics.total_activity,
                "expansion": metrics.total_expansion,
                "maintenance": metrics.total_maintenance,
                "reeds": metrics.reeds,
                "turf_commits": metrics.turf_commits,
                "table_insertions": metrics.table_insertions,
                "table_deletions": metrics.table_deletions,
                "tables_at_start": metrics.tables_at_start,
                "tables_at_end": metrics.tables_at_end,
                "attributes_at_start": metrics.attributes_at_start,
                "attributes_at_end": metrics.attributes_at_end,
                "sup_months": metrics.sup_months,
                "pup_months": project.pup_months,
                "total_repo_commits": project.repo_stats.total_commits,
                "ddl_commit_share": round(project.ddl_commit_share, 6),
                "domain": project.domain,
            }
        )
    return rows


def transition_rows(project: ProjectHistory) -> list[dict]:
    """One row per transition of one project (the Hecate raw output)."""
    rows = []
    for transition in project.metrics.transitions:
        diff = transition.diff
        rows.append(
            {
                "project": project.name,
                "transition_id": transition.transition_id,
                "timestamp": transition.timestamp,
                "days_since_v0": round(transition.days_since_v0, 3),
                "running_month": transition.running_month,
                "running_year": transition.running_year,
                "old_tables": transition.old_size.tables,
                "old_attributes": transition.old_size.attributes,
                "new_tables": transition.new_size.tables,
                "new_attributes": transition.new_size.attributes,
                "attrs_born": diff.attrs_born,
                "attrs_injected": diff.attrs_injected,
                "attrs_deleted": diff.attrs_deleted,
                "attrs_ejected": diff.attrs_ejected,
                "attrs_type_changed": diff.attrs_type_changed,
                "attrs_pk_changed": diff.attrs_pk_changed,
                "expansion": transition.expansion,
                "maintenance": transition.maintenance,
                "activity": transition.activity,
                "is_active": int(transition.is_active),
            }
        )
    return rows


def funnel_payload(report: FunnelReport) -> dict:
    """The funnel as a JSON-friendly dict.

    Pipeline failures ride along (sorted by project for determinism) so
    an exported study is auditable: every project that crashed a stage
    is on record next to the counts it was excluded from.
    """
    return {
        "stages": dict(report.stage_rows()),
        "omitted_by_paths": {
            verdict.name: count for verdict, count in report.omitted_by_paths.items()
        },
        "rigid_share": report.rigid_share,
        "failures": [
            failure.payload()
            for failure in sorted(report.failures, key=lambda f: f.project)
        ],
    }


def stats_payload(report: FunnelReport) -> dict:
    """The pipeline stats as a JSON-friendly dict (empty if stats are off)."""
    if report.stats is None:
        return {}
    return report.stats.payload()


def write_csv(path: str | Path, rows: list[dict], fields: tuple[str, ...]) -> None:
    """Write rows with a fixed header (missing keys become empty)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fields), extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_json(path: str | Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def export_from_store(
    directory: str | Path,
    store,
    figures: bool = True,
) -> dict[str, Path]:
    """Re-export the full artifact set from an ingested corpus store.

    Reads the persisted :class:`~repro.core.project.ProjectHistory`
    records and funnel counts back out of a
    :class:`~repro.store.CorpusStore` — no measurement re-runs — and
    produces byte-identical artifacts to :func:`export_study` over the
    equivalent direct funnel run.
    """
    from repro.core.analysis import analyze_corpus

    report = store.funnel_report()
    analysis = analyze_corpus(report.studied + report.rigid)
    return export_study(directory, report, analysis, figures=figures)


def export_study(
    directory: str | Path,
    report: FunnelReport,
    analysis: CorpusAnalysis,
    figures: bool = True,
    stats: bool = False,
) -> dict[str, Path]:
    """Write the full artifact set into *directory*; returns the paths.

    Artifacts: ``projects.csv`` (per-project measures + taxon),
    ``transitions.csv`` (per-transition deltas over all projects),
    ``funnel.json`` (stage counts + pipeline failure records),
    ``taxa.json`` (populations & shares), ``fig4.json``
    (the per-taxon min/med/max/avg table), ``experiments.md`` (the
    generated paper-vs-measured report), and — unless ``figures=False``
    — SVG charts under ``figures/``.

    With ``stats=True`` a ``pipeline_stats.json`` (stage wall times and
    cache counters) is written as well.  It is off by default because
    timings vary run to run, and the default artifact set is expected
    to be byte-identical across runs and ``--jobs`` settings.

    A corpus with no project in a compared taxon raises
    :class:`~repro.core.analysis.IncompleteCorpusError` before any file
    is written.
    """
    analysis.require_every_taxon()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    everything = report.studied + report.rigid

    paths = {
        "projects": directory / "projects.csv",
        "transitions": directory / "transitions.csv",
        "funnel": directory / "funnel.json",
        "taxa": directory / "taxa.json",
        "fig4": directory / "fig4.json",
        "experiments": directory / "experiments.md",
    }
    write_csv(paths["projects"], project_rows(everything, analysis), PROJECT_FIELDS)
    all_transitions: list[dict] = []
    for project in report.studied:
        all_transitions.extend(transition_rows(project))
    write_csv(paths["transitions"], all_transitions, TRANSITION_FIELDS)
    write_json(paths["funnel"], funnel_payload(report))
    write_json(
        paths["taxa"],
        {
            taxon.value: {
                "count": analysis.population(taxon),
                "share_of_studied": analysis.share_of_studied(taxon),
            }
            for taxon in TAXA_ORDER
        },
    )
    fig4 = {}
    for taxon in TAXA_ORDER:
        profile = analysis.profiles.get(taxon)
        if profile is None or not profile.measures:
            continue
        fig4[taxon.value] = {
            measure: {
                "min": summary.minimum,
                "med": summary.median,
                "max": summary.maximum,
                "avg": summary.average,
            }
            for measure, summary in profile.measures.items()
        }
    write_json(paths["fig4"], fig4)
    if stats and report.stats is not None:
        paths["stats"] = directory / "pipeline_stats.json"
        write_json(paths["stats"], stats_payload(report))
    from repro.reporting.markdown import render_experiments_markdown

    paths["experiments"].write_text(
        render_experiments_markdown(report, analysis), encoding="utf-8"
    )
    if figures:
        from repro.viz.svg import export_figures

        for kind, path in export_figures(directory / "figures", analysis).items():
            paths[f"figure_{kind}"] = path
    return paths
