"""Per-figure experiment harness.

Each function regenerates the rows/series of one paper artifact from a
measured corpus; :class:`ExperimentSuite` bundles them and renders full
text reports.  The benchmarks call these functions and print the output
next to the paper's published values (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import FIG4_MEASURES, CorpusAnalysis
from repro.core.taxa import NONFROZEN_TAXA, TAXA_ORDER, Taxon
from repro.mining.funnel import FunnelReport
from repro.reporting.tables import format_table
from repro.stats.boxplot import DoubleBoxPlot, double_box_plot
from repro.stats.descriptive import quartiles
from repro.stats.kruskal import KruskalResult, kruskal_wallis
from repro.stats.normality import ShapiroResult, shapiro_wilk
from repro.stats.pairwise import fig11_matrix
from repro.viz.ascii import box_plot_sketch, scatter_chart
from repro.viz.series import ScatterPoint, scatter_points

_MEASURE_LABELS = {
    "sup_months": "Sch. Upd. Period (months)",
    "total_activity": "TotalActivity",
    "n_commits": "#Commits",
    "active_commits": "#Active Commits",
    "reeds": "#Reeds",
    "turf_commits": "Turf commits",
    "table_insertions": "Table Insertions",
    "table_deletions": "Table Deletions",
    "tables_at_start": "#Tables@Start",
    "tables_at_end": "#Tables@End",
}


def table1_populations(analysis: CorpusAnalysis) -> dict[Taxon, int]:
    """Taxon populations (the "Count" row of Fig 4 / Table I)."""
    return {taxon: analysis.population(taxon) for taxon in TAXA_ORDER}


def fig4_rows(analysis: CorpusAnalysis) -> list[list[object]]:
    """The Fig 4 table: one row per (measure, statistic) per taxon."""
    rows: list[list[object]] = []
    counts: list[object] = ["Count"]
    for taxon in TAXA_ORDER:
        counts.append(analysis.population(taxon))
    rows.append(counts)
    for measure in FIG4_MEASURES:
        for stat in ("min", "med", "max", "avg"):
            row: list[object] = [f"{_MEASURE_LABELS[measure]} [{stat}]"]
            for taxon in TAXA_ORDER:
                profile = analysis.profiles.get(taxon)
                summary = profile.measures.get(measure) if profile else None
                if summary is None:
                    row.append("-")
                else:
                    value = {
                        "min": summary.minimum,
                        "med": summary.median,
                        "max": summary.maximum,
                        "avg": summary.average,
                    }[stat]
                    row.append(value)
            rows.append(row)
    return rows


def fig10_report(analysis: CorpusAnalysis) -> tuple[list[ScatterPoint], str]:
    """Fig 10: the scatter points and a rendered chart."""
    projects = [p for profile in analysis.profiles.values() for p in profile.projects]
    points = scatter_points(projects, analysis.assignments)
    return points, scatter_chart(points)


def fig11_cells(analysis: CorpusAnalysis) -> dict[tuple[Taxon, Taxon], float]:
    """Fig 11: the dual-triangle pairwise Kruskal-Wallis p-values."""
    active = {t: analysis.values(t, "active_commits") for t in NONFROZEN_TAXA}
    activity = {t: analysis.values(t, "total_activity") for t in NONFROZEN_TAXA}
    return fig11_matrix(active, activity)


def fig11_effect_sizes(analysis: CorpusAnalysis) -> dict[tuple[Taxon, Taxon], object]:
    """Cliff's delta per taxa pair, same dual-triangle layout as Fig 11
    (lower-left: active commits, upper-right: total activity)."""
    from repro.stats.effectsize import cliffs_delta

    cells: dict[tuple[Taxon, Taxon], object] = {}
    for i, row in enumerate(NONFROZEN_TAXA):
        for j, col in enumerate(NONFROZEN_TAXA):
            if i == j:
                continue
            measure = "active_commits" if i > j else "total_activity"
            cells[(row, col)] = cliffs_delta(
                analysis.values(row, measure), analysis.values(col, measure)
            )
    return cells


def fig12_rows(analysis: CorpusAnalysis) -> dict[str, list[list[object]]]:
    """Fig 12: quartiles of activity and active commits per taxon."""
    out: dict[str, list[list[object]]] = {}
    for measure in ("active_commits", "total_activity"):
        rows: list[list[object]] = []
        summaries = {
            taxon: quartiles(analysis.values(taxon, measure)) for taxon in NONFROZEN_TAXA
        }
        for stat in ("minimum", "q1", "q2", "q3", "maximum"):
            label = {"minimum": "MIN", "q1": "Q1", "q2": "Q2", "q3": "Q3", "maximum": "MAX"}[stat]
            row: list[object] = [label]
            for taxon in NONFROZEN_TAXA:
                row.append(getattr(summaries[taxon], stat))
            rows.append(row)
        out[measure] = rows
    return out


def fig13_report(analysis: CorpusAnalysis) -> tuple[DoubleBoxPlot, str]:
    """Fig 13: double box plot geometry and its text sketch."""
    activity = {t: analysis.values(t, "total_activity") for t in NONFROZEN_TAXA}
    active = {t: analysis.values(t, "active_commits") for t in NONFROZEN_TAXA}
    plot = double_box_plot(activity, active)
    return plot, box_plot_sketch(plot)


@dataclass(frozen=True)
class OverallTests:
    """The Sec V corpus-wide statistics."""

    kw_activity: KruskalResult
    kw_active_commits: KruskalResult
    shapiro_activity: ShapiroResult


def overall_tests(analysis: CorpusAnalysis, include_frozen: bool = True) -> OverallTests:
    """Overall Kruskal-Wallis and Shapiro-Wilk on total activity (Sec V).

    The paper's prose excludes the totally frozen taxon, yet reports
    df = 5 — which only arises with six groups, i.e. Frozen included.
    We default to six groups to match the published degrees of freedom;
    pass ``include_frozen=False`` for the five-taxon variant (df = 4).
    """
    taxa = TAXA_ORDER if include_frozen else NONFROZEN_TAXA
    activity_groups = [analysis.values(t, "total_activity") for t in taxa]
    commit_groups = [analysis.values(t, "active_commits") for t in taxa]
    all_activity = [v for group in activity_groups for v in group]
    return OverallTests(
        kw_activity=kruskal_wallis(*activity_groups),
        kw_active_commits=kruskal_wallis(*commit_groups),
        shapiro_activity=shapiro_wilk(all_activity),
    )


def funnel_text(report: FunnelReport) -> str:
    """E1: the collection funnel as a table."""
    rows = [[stage, count] for stage, count in report.stage_rows()]
    return format_table(["stage", "count"], rows, title="Collection funnel (Sec III.A)")


def dialect_comparison_rows(profiles: dict[str, dict]) -> list[list[object]]:
    """Cross-dialect profile rows: one column per dialect, side by side.

    Input is the mergeable shape of
    :meth:`~repro.store.CorpusStore.dialect_profiles` (raw sums and
    counts, never pre-averaged), so single-store and sharded corpora
    render identical tables.
    """
    dialects = sorted(profiles)
    rows: list[list[object]] = []

    def add(label: str, value) -> None:
        rows.append([label] + [value(profiles[d]) for d in dialects])

    def ratio(num: float, den: float) -> str:
        return f"{num / den:.2f}" if den else "-"

    add("projects", lambda p: p["projects"])
    add("studied", lambda p: p["studied"]["count"])
    add(
        "avg sup months",
        lambda p: ratio(
            p["studied"]["sup_months_sum"], p["studied"]["sup_months_count"]
        ),
    )
    add(
        "activity / studied",
        lambda p: ratio(p["studied"]["total_activity"], p["studied"]["count"]),
    )
    add("heartbeat rows", lambda p: p["heartbeat"]["rows"])
    add(
        "heartbeat duty cycle",
        lambda p: ratio(p["heartbeat"]["active"], p["heartbeat"]["rows"]),
    )
    add(
        "activity / transition",
        lambda p: ratio(p["heartbeat"]["activity_sum"], p["heartbeat"]["rows"]),
    )
    for taxon in TAXA_ORDER:
        add(
            f"taxa share {taxon.short}",
            lambda p, t=taxon: ratio(
                p["taxa"].get(t.value, 0), p["studied"]["count"]
            ),
        )
    return rows


def render_dialect_comparison(profiles: dict[str, dict]) -> str:
    """The cross-dialect comparison table (heartbeat and taxa side by
    side), or an empty string for a single-dialect corpus — the default
    mysql-only report stays byte-identical."""
    if len(profiles) < 2:
        return ""
    headers = ["profile"] + sorted(profiles)
    return format_table(
        headers,
        dialect_comparison_rows(profiles),
        title="Cross-dialect comparison: evolution profiles per frontend",
    )


def rq_summary(analysis: CorpusAnalysis) -> dict[str, float]:
    """The headline percentages of RQ1/RQ2 (Sec VI)."""
    summary = {
        "history_less_share": analysis.share_of_cloned(Taxon.HISTORY_LESS),
        "frozen_share": analysis.share_of_cloned(Taxon.FROZEN),
        "almost_frozen_share": analysis.share_of_cloned(Taxon.ALMOST_FROZEN),
        "rigidity_share": analysis.rigidity_share(),
        "low_heartbeat_share": analysis.low_heartbeat_share(),
    }
    for taxon in TAXA_ORDER:
        summary[f"studied_share_{taxon.short}"] = analysis.share_of_studied(taxon)
    return summary


class ExperimentSuite:
    """Bundle of every experiment over one funnel run."""

    def __init__(
        self,
        report: FunnelReport,
        analysis: CorpusAnalysis,
        dialect_profiles: dict[str, dict] | None = None,
    ) -> None:
        self.report = report
        self.analysis = analysis
        self.dialect_profiles = dialect_profiles or {}

    @classmethod
    def from_store(cls, store) -> "ExperimentSuite":
        """Build the suite from an ingested
        :class:`~repro.store.CorpusStore` instead of a fresh funnel run
        — every figure and table renders without re-measuring.  Store
        backing also unlocks the cross-dialect comparison (the funnel
        path has no dialect column to group by)."""
        from repro.core.analysis import analyze_corpus

        report = store.funnel_report()
        analysis = analyze_corpus(report.studied + report.rigid)
        return cls(report, analysis, dialect_profiles=store.dialect_profiles())

    def render_fig4(self) -> str:
        headers = ["measure"] + [t.short for t in TAXA_ORDER]
        return format_table(headers, fig4_rows(self.analysis), title="Fig 4: measurements per taxon")

    def render_fig11(self) -> str:
        cells = fig11_cells(self.analysis)
        headers = [""] + [t.short for t in NONFROZEN_TAXA]
        rows = []
        for row_taxon in NONFROZEN_TAXA:
            row: list[object] = [row_taxon.short]
            for col_taxon in NONFROZEN_TAXA:
                if row_taxon is col_taxon:
                    row.append("")
                else:
                    row.append(cells[(row_taxon, col_taxon)])
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Fig 11: pairwise KW p-values (lower-left: active commits, upper-right: activity)",
        )

    def render_fig12(self) -> str:
        parts = ["Fig 12: quartiles of activity and active commits per taxon"]
        for measure, rows in fig12_rows(self.analysis).items():
            headers = [measure] + [t.short for t in NONFROZEN_TAXA]
            parts.append(format_table(headers, rows))
        return "\n\n".join(parts)

    def render_all(self) -> str:
        self.analysis.require_every_taxon()
        tests = overall_tests(self.analysis)
        _, scatter = fig10_report(self.analysis)
        _, boxes = fig13_report(self.analysis)
        rq = rq_summary(self.analysis)
        rq_rows = [[key, f"{value:.1%}"] for key, value in rq.items()]
        from repro.viz.tree import classification_tree_text

        sections = [
            funnel_text(self.report),
            "Fig 3: classification tree\n" + classification_tree_text(self.analysis.rules),
            self.render_fig4(),
            "Fig 10:\n" + scatter,
            self.render_fig11(),
            self.render_fig12(),
            "Fig 13:\n" + boxes,
            f"Overall KW (activity): {tests.kw_activity}",
            f"Overall KW (active commits): {tests.kw_active_commits}",
            f"Shapiro-Wilk (activity): {tests.shapiro_activity}",
            format_table(["research question share", "value"], rq_rows),
        ]
        # Only a mixed corpus gets the comparison section, so every
        # single-dialect (default) report renders byte-identically.
        comparison = render_dialect_comparison(self.dialect_profiles)
        if comparison:
            sections.append(comparison)
        return "\n\n".join(sections)
