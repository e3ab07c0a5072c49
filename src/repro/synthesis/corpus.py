"""Build the whole synthetic corpus: the Schema_Evo_2019 stand-in.

The corpus reproduces every population of the paper's funnel:

- per-taxon studied projects (195 at scale 1.0, split 34/65/25/29/20/22),
- 132 rigid single-version projects,
- 14 projects whose history extraction yields zero versions,
- 24 projects whose ``.sql`` file never contains CREATE TABLE,
- join-level noise (forks, zero-star, single-contributor, not monitored
  by Libraries.io) and path-level noise (incremental scripts, vendor x
  language products, file-per-table layouts) that the pipeline filters
  out before cloning.

``build_corpus(CorpusSpec(seed=2019))`` is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.taxa import Taxon
from repro.mining.funnel import FunnelReport, run_funnel
from repro.mining.github_activity import GithubActivityDataset, SqlFileRecord
from repro.mining.librariesio import LibrariesIoDataset, LibrariesIoRecord
from repro.mining.selection import SelectionCriteria
from repro.synthesis.archetypes import (
    ARCHETYPES,
    HISTORY_LESS_POPULATION,
    NO_CREATE_POPULATION,
    ZERO_VERSION_POPULATION,
    TaxonArchetype,
)
from repro.synthesis.naming import NameForge
from repro.synthesis.plan import ProjectPlan, plan_project
from repro.synthesis.realizer import realize_project
from repro.vcs.repository import Repository

_SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the synthetic corpus."""

    seed: int = 2019
    scale: float = 1.0  # scales every population (use < 1 in fast tests)
    history_less: int = HISTORY_LESS_POPULATION
    zero_version: int = ZERO_VERSION_POPULATION
    no_create: int = NO_CREATE_POPULATION
    join_rejected: int = 90  # forks / 0 stars / 1 contributor
    not_in_libio: int = 300  # in the SQL-Collection but unmonitored
    path_omitted: int = 24  # incremental / file-per-table / vendor x lang
    epoch_start: int = 1_420_070_400  # 2015-01-01
    #: When set, pad the SQL-Collection with metadata-only repositories
    #: until it holds this many (the paper queried 133,029); the extras
    #: never pass the Libraries.io join, so the rest of the funnel is
    #: unaffected.
    sql_collection_total: int | None = None

    def scaled(self, population: int) -> int:
        return max(1, round(population * self.scale))


@dataclass
class SyntheticCorpus:
    """The built corpus: datasets, repositories, and ground truth."""

    spec: CorpusSpec
    activity: GithubActivityDataset
    lib_io: LibrariesIoDataset
    repos: dict[str, Repository | None]
    ddl_paths: dict[str, str]
    plans: dict[str, ProjectPlan]
    expected_taxa: dict[str, Taxon]

    def provider(self, repo_name: str) -> Repository | None:
        """The clone step: returns None for repos gone from GitHub."""
        return self.repos.get(repo_name)

    def run_funnel(self, **kwargs) -> FunnelReport:
        """Run the full mining funnel over this corpus.

        Every keyword reaches :func:`repro.mining.funnel.run_funnel`
        verbatim.  ``jobs`` and ``cache`` forward to the staged
        measurement pipeline (see :mod:`repro.pipeline`); a shared
        ``cache`` serves only the projects measured in the calling
        thread (all of them at ``jobs=1``; worker processes build their
        own per slice).
        """
        return run_funnel(self.activity, self.lib_io, self.provider, **kwargs)

    @property
    def studied_names(self) -> list[str]:
        return sorted(self.expected_taxa)


def _metadata(
    rng: random.Random,
    name: str,
    domain: str = "",
    is_fork: bool = False,
    stars: int | None = None,
    contributors: int | None = None,
) -> LibrariesIoRecord:
    if stars is None:
        stars = max(1, int(rng.paretovariate(1.2)))
    if contributors is None:
        contributors = rng.randint(2, 40)
    return LibrariesIoRecord(
        repo_name=name,
        url=f"https://github.com/{name}",
        is_fork=is_fork,
        stars=stars,
        contributors=contributors,
        watchers=stars + rng.randint(0, 50),
        domain=domain,
    )


def _filler_only_repo(rng: random.Random, name: str, epoch: int, commits: int) -> Repository:
    repo = Repository(name)
    ts = epoch + rng.randint(0, 1000) * _SECONDS_PER_DAY
    for index in range(commits):
        ts += rng.randint(3_600, 20 * 86_400)
        repo.commit(
            {f"src/file{index % 4}.py": f"# rev {index}\n".encode()},
            author=f"dev{index % 3}",
            timestamp=ts,
            message=f"revision {index}",
        )
    return repo


def _rigid_repo(
    rng: random.Random, archetype: TaxonArchetype, name: str, epoch: int
) -> tuple[Repository, str]:
    """A history-less project: one DDL commit, plus regular other work."""
    plan = plan_project(rng, archetype, name, epoch_start=epoch)
    plan.commits = []  # drop all transitions: a single schema version
    repo, ddl_path = realize_project(plan, rng)
    return repo, ddl_path


def _no_create_repo(rng: random.Random, name: str, epoch: int) -> tuple[Repository, str]:
    """A project whose .sql file holds seed data, never CREATE TABLE."""
    repo = Repository(name)
    path = "db/seeds.sql"
    ts = epoch + rng.randint(0, 1000) * _SECONDS_PER_DAY
    n_versions = rng.randint(1, 4)
    rows = ["INSERT INTO config VALUES (1, 'installed');"]
    for version in range(n_versions):
        ts += rng.randint(3_600, 40 * 86_400)
        rows.append(f"INSERT INTO config VALUES ({version + 2}, 'step');")
        repo.commit(
            {path: "\n".join(rows).encode()},
            author="dev1",
            timestamp=ts,
            message=f"seed data v{version}",
        )
    for index in range(rng.randint(3, 15)):
        ts += rng.randint(3_600, 20 * 86_400)
        repo.commit(
            {"src/app.py": f"# rev {index}\n".encode()},
            author="dev1",
            timestamp=ts,
            message="app work",
        )
    return repo, path


_OMITTED_LAYOUTS = ("incremental", "file_per_table", "vendor_language")


def _omitted_paths(rng: random.Random, layout: str) -> list[str]:
    if layout == "incremental":
        count = rng.randint(3, 8)
        return [f"db/upgrade_{i}.sql" for i in range(1, count + 1)]
    if layout == "file_per_table":
        count = rng.randint(4, 10)
        return [f"db/tables/table_{i}.sql" for i in range(count)]
    # vendor x language cartesian product
    vendors = ("mysql", "postgres")
    languages = ("en", "fr", "de")
    return [f"install/{lang}/{vendor}.sql" for lang in languages for vendor in vendors]


def build_corpus(spec: CorpusSpec = CorpusSpec()) -> SyntheticCorpus:
    """Generate the full corpus deterministically from ``spec.seed``."""
    rng = random.Random(spec.seed)
    name_forge = NameForge(rng)
    taken: set[str] = set()

    activity = GithubActivityDataset()
    lib_io = LibrariesIoDataset()
    repos: dict[str, Repository | None] = {}
    ddl_paths: dict[str, str] = {}
    plans: dict[str, ProjectPlan] = {}
    expected: dict[str, Taxon] = {}

    def fresh_name() -> str:
        name = name_forge.project_name(taken)
        taken.add(name)
        return name

    def register_files(name: str, paths: list[str]) -> None:
        for path in paths:
            activity.add(SqlFileRecord(repo_name=name, path=path, size=rng.randint(1_000, 80_000)))

    # 1. The studied per-taxon projects.  The calibration uniform is
    # stratified over each taxon's population so sample quartiles track
    # the published anchors even for the small taxa (n = 20-29).
    for taxon, archetype in ARCHETYPES.items():
        population = spec.scaled(archetype.population)
        strata = [(i + rng.random()) / population for i in range(population)]
        rng.shuffle(strata)
        pup_strata = [(i + rng.random()) / population for i in range(population)]
        rng.shuffle(pup_strata)
        sup_strata = [(i + rng.random()) / population for i in range(population)]
        rng.shuffle(sup_strata)
        for u, pup_u, sup_u in zip(strata, pup_strata, sup_strata):
            name = fresh_name()
            plan = plan_project(
                rng,
                archetype,
                name,
                epoch_start=spec.epoch_start,
                u=u,
                pup_u=pup_u,
                sup_u=sup_u,
            )
            repo, ddl_path = realize_project(plan, rng)
            repos[name] = repo
            ddl_paths[name] = ddl_path
            plans[name] = plan
            expected[name] = taxon
            paths = [ddl_path]
            if ddl_path == "db/mysql.sql" and rng.random() < 0.6:
                # Multi-vendor project: the funnel must pick MySQL.
                paths.append("db/postgres.sql")
            register_files(name, paths)
            lib_io.add(_metadata(rng, name, domain=plan.domain))

    # 2. Rigid (history-less) projects: schema committed once, untouched.
    rigid_archetype = ARCHETYPES[Taxon.FROZEN]
    for _ in range(spec.scaled(spec.history_less)):
        name = fresh_name()
        repo, ddl_path = _rigid_repo(rng, rigid_archetype, name, spec.epoch_start)
        repos[name] = repo
        ddl_paths[name] = ddl_path
        expected[name] = Taxon.HISTORY_LESS
        register_files(name, [ddl_path])
        lib_io.add(_metadata(rng, name))

    # 3. Zero-version extractions: gone from GitHub, or stale paths.
    for index in range(spec.scaled(spec.zero_version)):
        name = fresh_name()
        if index % 2 == 0:
            repos[name] = None  # removed from GitHub since the snapshot
        else:
            repos[name] = _filler_only_repo(rng, name, spec.epoch_start, rng.randint(4, 20))
        register_files(name, ["legacy/schema.sql"])
        lib_io.add(_metadata(rng, name))

    # 4. .sql files without CREATE TABLE (seed data only).
    for _ in range(spec.scaled(spec.no_create)):
        name = fresh_name()
        repo, path = _no_create_repo(rng, name, spec.epoch_start)
        repos[name] = repo
        register_files(name, [path])
        lib_io.add(_metadata(rng, name))

    # 5. Join-level rejects: forks, zero stars, single contributor.
    for index in range(spec.join_rejected):
        name = fresh_name()
        register_files(name, ["schema.sql"])
        mode = index % 3
        lib_io.add(
            _metadata(
                rng,
                name,
                is_fork=(mode == 0),
                stars=0 if mode == 1 else None,
                contributors=1 if mode == 2 else None,
            )
        )

    # 6. SQL-Collection entries Libraries.io never monitored.
    for _ in range(spec.not_in_libio):
        name = fresh_name()
        register_files(name, ["sql/dump.sql"])

    # 7. Path-level omissions: layouts the manual inspection rejected.
    for index in range(spec.path_omitted):
        name = fresh_name()
        layout = _OMITTED_LAYOUTS[index % len(_OMITTED_LAYOUTS)]
        register_files(name, _omitted_paths(rng, layout))
        lib_io.add(_metadata(rng, name))

    if spec.sql_collection_total is not None:
        current = activity.repository_count()
        for index in range(max(0, spec.sql_collection_total - current)):
            filler_name = f"sqlcollection/repo-{index:06d}"
            activity.add(
                SqlFileRecord(repo_name=filler_name, path="sql/dump.sql", size=1_000)
            )

    return SyntheticCorpus(
        spec=spec,
        activity=activity,
        lib_io=lib_io,
        repos=repos,
        ddl_paths=ddl_paths,
        plans=plans,
        expected_taxa=expected,
    )
