"""Corpus-level analysis: taxa populations, Fig 4 profiles, RQ answers.

This is the Heraclitus-Fire role of the toolchain: given the measured
projects of a corpus, classify each into its taxon and compute the
summary statistics the paper reports — per-taxon min/median/max/average
of every measure (Fig 4), duration shares, DDL-commit shares, and the
headline RQ1/RQ2 percentages.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.core.project import ProjectHistory
from repro.core.taxa import DEFAULT_RULES, TAXA_ORDER, Taxon, TaxonRules, classify

#: The Fig 4 measure rows, in the paper's order.
FIG4_MEASURES: tuple[str, ...] = (
    "sup_months",
    "total_activity",
    "n_commits",
    "active_commits",
    "reeds",
    "turf_commits",
    "table_insertions",
    "table_deletions",
    "tables_at_start",
    "tables_at_end",
)


@dataclass(frozen=True)
class FiveNumber:
    """min / median / max / average of one measure (the Fig 4 cells)."""

    minimum: float
    median: float
    maximum: float
    average: float

    @classmethod
    def of(cls, values: list[float]) -> "FiveNumber":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        return cls(
            minimum=min(values),
            median=statistics.median(values),
            maximum=max(values),
            average=sum(values) / len(values),
        )


@dataclass(frozen=True)
class TaxonProfile:
    """One column block of Fig 4: a taxon's population and measures."""

    taxon: Taxon
    count: int
    measures: dict[str, FiveNumber]
    projects: tuple[ProjectHistory, ...]

    def values(self, measure: str) -> list[float]:
        """Raw per-project values of a Fig 4 measure."""
        return [p.metrics.measure(measure) for p in self.projects]

    def share_pup_over(self, months: int) -> float:
        """Fraction of projects whose *project* duration exceeds *months*."""
        if not self.projects:
            return 0.0
        over = sum(1 for p in self.projects if p.pup_months > months)
        return over / len(self.projects)

    @property
    def mean_ddl_commit_share(self) -> float:
        """Average share of project commits touching the DDL file."""
        if not self.projects:
            return 0.0
        return sum(p.ddl_commit_share for p in self.projects) / len(self.projects)


class IncompleteCorpusError(ValueError):
    """A corpus with no studied project in a taxon the figures compare.

    The Kruskal-Wallis tests, effect sizes, quartiles and box plots of
    the report compare every taxon of :data:`TAXA_ORDER`; each needs at
    least one project.  ``empty`` names the taxa that have none.
    """

    def __init__(self, empty: tuple[Taxon, ...]) -> None:
        self.empty = empty
        names = ", ".join(taxon.value for taxon in empty)
        super().__init__(
            f"the corpus has no studied project in {len(empty)} of the"
            f" {len(TAXA_ORDER)} taxa the figures compare: {names}"
        )


@dataclass(frozen=True)
class CorpusAnalysis:
    """The full analysis of a corpus of measured projects."""

    assignments: dict[str, Taxon]  # project name -> taxon
    profiles: dict[Taxon, TaxonProfile]
    history_less: tuple[ProjectHistory, ...]
    rules: TaxonRules

    @property
    def studied_count(self) -> int:
        """Projects with transitions (the 195 of Schema_Evo_2019)."""
        return sum(profile.count for profile in self.profiles.values())

    @property
    def cloned_count(self) -> int:
        """All cloned projects incl. history-less (the 327)."""
        return self.studied_count + len(self.history_less)

    def population(self, taxon: Taxon) -> int:
        profile = self.profiles.get(taxon)
        return profile.count if profile else 0

    def require_every_taxon(self) -> None:
        """Raise :class:`IncompleteCorpusError` unless every taxon of
        :data:`TAXA_ORDER` has a project (the check before rendering)."""
        empty = tuple(taxon for taxon in TAXA_ORDER if self.population(taxon) == 0)
        if empty:
            raise IncompleteCorpusError(empty)

    def share_of_studied(self, taxon: Taxon) -> float:
        if self.studied_count == 0:
            return 0.0
        return self.population(taxon) / self.studied_count

    def share_of_cloned(self, taxon: Taxon) -> float:
        """Share over all cloned repositories (RQ1 uses this base)."""
        if self.cloned_count == 0:
            return 0.0
        if taxon is Taxon.HISTORY_LESS:
            return len(self.history_less) / self.cloned_count
        return self.population(taxon) / self.cloned_count

    def projects_of(self, taxon: Taxon) -> tuple[ProjectHistory, ...]:
        profile = self.profiles.get(taxon)
        return profile.projects if profile else ()

    def values(self, taxon: Taxon, measure: str) -> list[float]:
        """Per-project values of a measure within a taxon."""
        return [p.metrics.measure(measure) for p in self.projects_of(taxon)]

    # -- RQ summaries ---------------------------------------------------

    def rigidity_share(self) -> float:
        """RQ1 headline: share of cloned projects with total absence or
        very small presence of change (history-less + frozen + almost
        frozen) — the paper's 70%."""
        little = (
            len(self.history_less)
            + self.population(Taxon.FROZEN)
            + self.population(Taxon.ALMOST_FROZEN)
        )
        if self.cloned_count == 0:
            return 0.0
        return little / self.cloned_count

    def low_heartbeat_share(self) -> float:
        """Share of *studied* projects with 0-3 active commits (the
        paper's 124/195 = 64%)."""
        if self.studied_count == 0:
            return 0.0
        low = sum(
            1
            for profile in self.profiles.values()
            for project in profile.projects
            if project.metrics.active_commits <= 3
        )
        return low / self.studied_count


def summarize_taxon(taxon: Taxon, projects: list[ProjectHistory]) -> TaxonProfile:
    """Build the Fig 4 column block for one taxon."""
    measures: dict[str, FiveNumber] = {}
    if projects:
        for measure in FIG4_MEASURES:
            values = [p.metrics.measure(measure) for p in projects]
            measures[measure] = FiveNumber.of(values)
    return TaxonProfile(
        taxon=taxon,
        count=len(projects),
        measures=measures,
        projects=tuple(projects),
    )


def analyze_corpus(
    projects: list[ProjectHistory], rules: TaxonRules = DEFAULT_RULES
) -> CorpusAnalysis:
    """Classify every project and build all per-taxon profiles."""
    assignments: dict[str, Taxon] = {}
    groups: dict[Taxon, list[ProjectHistory]] = {taxon: [] for taxon in TAXA_ORDER}
    history_less: list[ProjectHistory] = []
    for project in projects:
        taxon = classify(project.metrics, rules=rules)
        assignments[project.name] = taxon
        if taxon is Taxon.HISTORY_LESS:
            history_less.append(project)
        else:
            groups[taxon].append(project)
    profiles = {
        taxon: summarize_taxon(taxon, members) for taxon, members in groups.items()
    }
    return CorpusAnalysis(
        assignments=assignments,
        profiles=profiles,
        history_less=tuple(history_less),
        rules=rules,
    )
