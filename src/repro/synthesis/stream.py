"""Streaming, seeded, constant-memory corpus synthesis.

:func:`repro.synthesis.corpus.build_corpus` materializes every
repository of the corpus before the first one is measured — fine at the
paper's ~600-project scale, hopeless at 100k–1M.  This module is the
large-scale producer: :func:`stream_projects` yields one fully-specified
synthetic project at a time, and each project's randomness comes from
its **own** :class:`random.Random` seeded by
``project_seed(corpus_seed, index)`` (a sha256 derivation), so

- memory stays constant in the corpus size (nothing is retained across
  yields),
- any slice of the stream is byte-reproducible *independently* —
  project ``i`` is identical whether generated alone, as part of a
  resumed tail, or inside the full sweep, and
- workers can synthesize disjoint index ranges in parallel without
  sharing RNG state.

Two calibration profiles exist: ``"paper"`` reuses the published
archetypes verbatim (faithful but expensive — an Active project costs
seconds to realize and measure), while ``"light"`` (the default) uses
scaled-down archetypes that preserve each taxon's *classification
signature* (heartbeat, activity, reed structure, duration bands) at
~1/100th the realize+measure cost, which is what makes 100k projects
CI-feasible.  Every light project still travels the full pipeline —
extraction, parsing, diffing, measuring, classification — and lands on
its intended taxon.

:func:`materialize_stream` folds a (small) stream back into a
:class:`~repro.synthesis.corpus.SyntheticCorpus`, which is how the
identity harness proves that, for a single-dialect stream, the streamed
and materialized paths produce stores with equal ``content_hash()``.  A
mixed-dialect stream does not: each project's dialect is drawn apart
from its DDL path, from which the funnel derives a task's dialect.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.taxa import Taxon
from repro.mining.github_activity import GithubActivityDataset, SqlFileRecord
from repro.mining.librariesio import LibrariesIoDataset, LibrariesIoRecord
from repro.synthesis.archetypes import ARCHETYPES, TaxonArchetype
from repro.synthesis.corpus import SyntheticCorpus
from repro.synthesis.naming import NameForge
from repro.synthesis.plan import ProjectPlan, plan_project
from repro.synthesis.quantiles import FivePoint
from repro.synthesis.realizer import realize_project
from repro.vcs.repository import Repository

#: Calibration profiles selectable via ``StreamSpec.profile``.
PROFILES = ("light", "paper")

#: Scaled-down archetypes for mass synthesis.  Each preserves the
#: taxon's classification signature — heartbeat band, total-activity
#: band, reed structure, duration — while capping the tails that make
#: the paper-faithful archetypes expensive to realize (an Active
#: project can plan 3485 attribute moves; nothing here plans more than
#: 40).  Populations act as mix weights, echoing the paper's skew
#: toward the quiet taxa.
LIGHT_ARCHETYPES: dict[Taxon, TaxonArchetype] = {
    Taxon.FROZEN: TaxonArchetype(
        taxon=Taxon.FROZEN,
        population=4,
        active_commits=FivePoint(0, 0, 0, 0, 0),
        total_activity=FivePoint(0, 0, 0, 0, 0),
        non_active_commits=FivePoint(1, 1, 1, 1, 2),
        sup_months=FivePoint(1, 1, 1, 2, 6),
        pup_months=FivePoint(1, 2, 4, 8, 24),
        tables_at_start=FivePoint(1, 1, 2, 3, 5),
        table_insertions=FivePoint(0, 0, 0, 0, 0),
        table_deletions=FivePoint(0, 0, 0, 0, 0),
        ddl_commit_share=0.3,
        expansion_share=0.0,
        flat_line_share=1.0,
    ),
    Taxon.ALMOST_FROZEN: TaxonArchetype(
        taxon=Taxon.ALMOST_FROZEN,
        population=5,
        active_commits=FivePoint(1, 1, 1, 2, 3),
        total_activity=FivePoint(1, 1, 3, 5, 10),
        non_active_commits=FivePoint(0, 0, 1, 1, 2),
        sup_months=FivePoint(1, 2, 4, 8, 20),
        pup_months=FivePoint(1, 2, 6, 12, 30),
        tables_at_start=FivePoint(1, 1, 2, 3, 6),
        table_insertions=FivePoint(0, 0, 0, 0, 2),
        table_deletions=FivePoint(0, 0, 0, 0, 1),
        ddl_commit_share=0.3,
        expansion_share=0.45,
        flat_line_share=0.75,
    ),
    Taxon.FOCUSED_SHOT_AND_FROZEN: TaxonArchetype(
        taxon=Taxon.FOCUSED_SHOT_AND_FROZEN,
        population=2,
        active_commits=FivePoint(1, 1, 2, 2, 3),
        total_activity=FivePoint(11, 13, 16, 22, 40),
        non_active_commits=FivePoint(0, 0, 1, 1, 2),
        sup_months=FivePoint(1, 1, 2, 6, 18),
        pup_months=FivePoint(1, 2, 8, 14, 30),
        tables_at_start=FivePoint(1, 2, 3, 4, 8),
        table_insertions=FivePoint(0, 1, 1, 2, 4),
        table_deletions=FivePoint(0, 0, 0, 1, 2),
        ddl_commit_share=0.3,
        expansion_share=0.65,
        flat_line_share=0.36,
    ),
    Taxon.MODERATE: TaxonArchetype(
        taxon=Taxon.MODERATE,
        population=2,
        active_commits=FivePoint(4, 4, 5, 6, 8),
        total_activity=FivePoint(11, 13, 18, 26, 40),
        non_active_commits=FivePoint(0, 0, 1, 2, 3),
        sup_months=FivePoint(1, 4, 10, 16, 30),
        pup_months=FivePoint(1, 4, 12, 20, 36),
        tables_at_start=FivePoint(1, 2, 3, 5, 8),
        table_insertions=FivePoint(0, 0, 1, 2, 3),
        table_deletions=FivePoint(0, 0, 0, 1, 2),
        ddl_commit_share=0.3,
        expansion_share=0.65,
        flat_line_share=0.10,
    ),
}


def profile_archetypes(profile: str) -> dict[Taxon, TaxonArchetype]:
    """The archetype mix a profile synthesizes from."""
    if profile == "light":
        return LIGHT_ARCHETYPES
    if profile == "paper":
        return ARCHETYPES
    raise ValueError(f"unknown stream profile {profile!r}; expected one of {PROFILES}")


#: Per-dialect archetype-population multipliers: the calibration layer
#: that tilts a streamed mix toward each ecosystem's observed evolution
#: profile.  PostgreSQL-backed projects skew toward sustained evolution
#: (server-side schemas keep moving), while SQLite corpora skew frozen
#: (embedded schemas ship once and fossilize).  MySQL is the identity —
#: an all-MySQL stream is byte-identical to the pre-dialect stream.
#: Absent taxa multiply by 1.0.
DIALECT_CALIBRATION: dict[str, dict[Taxon, float]] = {
    "mysql": {},
    "postgresql": {
        Taxon.FROZEN: 0.7,
        Taxon.FOCUSED_SHOT_AND_FROZEN: 1.3,
        Taxon.MODERATE: 1.6,
    },
    "sqlite": {
        Taxon.FROZEN: 1.8,
        Taxon.ALMOST_FROZEN: 1.3,
        Taxon.MODERATE: 0.5,
    },
}


@dataclass(frozen=True)
class StreamSpec:
    """Knobs of one streamed corpus.

    Unlike :class:`~repro.synthesis.corpus.CorpusSpec` there are no
    funnel-noise populations: every streamed project is a studied
    candidate.  The stream's identity is ``(seed, profile,
    epoch_start)`` — ``count`` only bounds how much of the (conceptually
    infinite) stream is consumed, so growing a corpus from 10k to 100k
    re-generates byte-identical prefixes.
    """

    seed: int = 2019
    count: int = 1000
    profile: str = "light"
    epoch_start: int = 1_420_070_400  # 2015-01-01
    dialects: tuple[str, ...] = ("mysql",)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        profile_archetypes(self.profile)  # validate eagerly
        if not self.dialects:
            raise ValueError("dialects must name at least one frontend")
        from repro.sqlddl.dialects import canonical_dialect_name

        canonical = tuple(canonical_dialect_name(name) for name in self.dialects)
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"duplicate dialects in {self.dialects!r}")
        object.__setattr__(self, "dialects", canonical)


@dataclass
class StreamedProject:
    """One fully-specified synthetic project, independent of its peers."""

    index: int
    name: str
    repo: Repository
    ddl_path: str
    plan: ProjectPlan
    expected_taxon: Taxon
    metadata: LibrariesIoRecord
    sql_file: SqlFileRecord
    dialect: str = "mysql"


def project_seed(corpus_seed: int, index: int) -> int:
    """The per-project RNG seed: a sha256 derivation of (seed, index).

    Hash-derived (rather than ``seed + index``) so neighbouring corpus
    seeds produce statistically unrelated streams, and stable across
    Python versions and platforms.
    """
    digest = hashlib.sha256(f"repro-stream|{corpus_seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _pick_archetype(
    rng: random.Random,
    archetypes: dict[Taxon, TaxonArchetype],
    dialect: str = "mysql",
) -> TaxonArchetype:
    """Population-weighted archetype choice (insertion order is fixed).

    ``dialect`` applies the :data:`DIALECT_CALIBRATION` multipliers; the
    MySQL calibration is the identity, so the default draw — weights and
    RNG consumption alike — matches the pre-dialect stream exactly.
    """
    calibration = DIALECT_CALIBRATION.get(dialect, {})
    choices = list(archetypes.values())
    weights = [
        archetype.population * calibration.get(archetype.taxon, 1.0)
        for archetype in choices
    ]
    return rng.choices(choices, weights=weights, k=1)[0]


def _named(
    spec: StreamSpec, index: int
) -> tuple[random.Random, str, TaxonArchetype, str]:
    """The draws that name project *index*: its RNG after them, its
    dialect, archetype and name.  The one prefix shared by
    :func:`synthesize_project` and :func:`project_name`."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    rng = random.Random(project_seed(spec.seed, index))
    # The dialect draw happens ONLY for a genuine mix: a single-dialect
    # stream must not consume RNG state the historical stream didn't,
    # or every downstream draw (and the byte-identity gate) would move.
    if len(spec.dialects) > 1:
        dialect = rng.choice(list(spec.dialects))
    else:
        dialect = spec.dialects[0]
    archetype = _pick_archetype(rng, profile_archetypes(spec.profile), dialect)
    forge = NameForge(rng)
    # The forge guarantees uniqueness only within one RNG; the index
    # suffix makes names globally unique across the whole stream.
    return rng, dialect, archetype, f"{forge.project_name(set())}-{index}"


def project_name(spec: StreamSpec, index: int) -> str:
    """The name of project *index*, without synthesizing the project:
    what ingest reads a chunk's stored fingerprints by."""
    return _named(spec, index)[3]


def synthesize_project(spec: StreamSpec, index: int) -> StreamedProject:
    """Generate project *index* of the stream, from scratch.

    Everything — archetype choice, name, plan, DDL text, metadata —
    draws from one fresh ``Random(project_seed(spec.seed, index))``, so
    the result depends only on ``(spec, index)``.
    """
    rng, dialect, archetype, name = _named(spec, index)
    plan = plan_project(rng, archetype, name, epoch_start=spec.epoch_start)
    repo, ddl_path = realize_project(plan, rng)
    stars = max(1, int(rng.paretovariate(1.2)))
    metadata = LibrariesIoRecord(
        repo_name=name,
        url=f"https://github.com/{name}",
        is_fork=False,
        stars=stars,
        contributors=rng.randint(2, 40),
        watchers=stars + rng.randint(0, 50),
        domain=plan.domain,
    )
    sql_file = SqlFileRecord(
        repo_name=name, path=ddl_path, size=rng.randint(1_000, 80_000)
    )
    return StreamedProject(
        index=index,
        name=name,
        repo=repo,
        ddl_path=ddl_path,
        plan=plan,
        expected_taxon=archetype.taxon,
        metadata=metadata,
        sql_file=sql_file,
        dialect=dialect,
    )


def stream_projects(
    spec: StreamSpec, start: int = 0, stop: int | None = None
) -> Iterator[StreamedProject]:
    """Yield projects ``start .. stop`` (default ``spec.count``) one at a
    time, holding only the current project in memory."""
    if stop is None:
        stop = spec.count
    for index in range(start, stop):
        yield synthesize_project(spec, index)


def materialize_stream(spec: StreamSpec) -> SyntheticCorpus:
    """Collect the whole stream into a :class:`SyntheticCorpus`.

    Only sensible at small counts (it holds every repository in memory
    — exactly what streaming exists to avoid); used by the
    byte-identity gate and anywhere the in-memory funnel API is
    convenient.
    """
    activity = GithubActivityDataset()
    lib_io = LibrariesIoDataset()
    repos: dict[str, Repository | None] = {}
    ddl_paths: dict[str, str] = {}
    plans: dict[str, ProjectPlan] = {}
    expected: dict[str, Taxon] = {}
    for project in stream_projects(spec):
        activity.add(project.sql_file)
        lib_io.add(project.metadata)
        repos[project.name] = project.repo
        ddl_paths[project.name] = project.ddl_path
        plans[project.name] = project.plan
        expected[project.name] = project.expected_taxon
    return SyntheticCorpus(
        spec=spec,  # type: ignore[arg-type]  # duck-typed: carries .seed
        activity=activity,
        lib_io=lib_io,
        repos=repos,
        ddl_paths=ddl_paths,
        plans=plans,
        expected_taxa=expected,
    )
