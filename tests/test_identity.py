"""One identity harness: how a corpus is run never changes what it stores.

The study measures each project once, so a store's content hash, its
``/v1`` bodies and its exports must not depend on how the run was
executed.  This module builds three sources once — the CI corpus, a
light stream and a mixed-dialect stream — ingests each under a fixed
seeded sample of job count × store layout × batch size, and checks that
every run observes what the reference run (one job, one file, the
default batch) observes.  Beside the sample it always runs the CLI with
the flags CI passes, the streamed source through ``ingest_corpus``, a
crash in ``persist_batch`` and its resume, a re-ingest, a clone source
that refuses a seeded set of first calls, the funnel's direct export,
and the per-dialect counts of the mixed stream.

A new cross-configuration invariant belongs here, as one more observed
part or configuration, not as a per-file test or a CI step.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qsl, quote

import pytest

from repro.cli import main
from repro.core import analyze_corpus
from repro.io import export_from_store, export_study
from repro.io.export import funnel_payload
from repro.mining import run_funnel
from repro.reporting import ExperimentSuite
from repro.resilience import RetryPolicy
from repro.serve import CorpusService
from repro.serve.routes import ROUTES
from repro.store import (
    INGEST_CHECKPOINT_KEY,
    IngestReport,
    ingest_corpus,
    ingest_stream,
    resolve_store,
)
from repro.synthesis import CorpusSpec, SyntheticCorpus, build_corpus
from repro.synthesis.stream import StreamSpec, materialize_stream, synthesize_project

#: The sources, built once.  The corpus is CI's: its 18 tasks reach
#: every funnel outcome and all seven taxa.
SOURCES = {
    "corpus": CorpusSpec(seed=3, scale=0.05),
    "stream": StreamSpec(seed=3, count=40),
    "mixed": StreamSpec(seed=7, count=60, dialects=("mysql", "postgresql", "sqlite")),
}

JOBS = (1, 2, 4)
#: Store layouts: one file, or that many shard files.
SHARDS = (1, 2, 3, 4)
#: Sampled configurations per source, besides the reference.
SAMPLE_SIZE = 8

#: The one GET route whose body does not read the store.
STATIC_ROUTES = {"/v1/openapi.json"}


@dataclass(frozen=True)
class Config:
    """How one ingest runs.  ``batch=None`` is the default chunk size."""

    jobs: int = 1
    shards: int = 1
    batch: int | None = None

    def __str__(self) -> str:
        batch = "default" if self.batch is None else self.batch
        return f"jobs={self.jobs} shards={self.shards} batch={batch}"

    def chunk(self) -> int:
        """Projects per chunk; ``None`` means ingest's ``max(8, jobs * 4)``."""
        return self.batch if self.batch is not None else max(8, self.jobs * 4)


REFERENCE = Config()


class Killed(BaseException):
    """A crash no ingest fallback catches, as a kill or Ctrl-C is."""


@dataclass
class Source:
    name: str
    spec: CorpusSpec | StreamSpec
    corpus: SyntheticCorpus | None = None  # the corpus source's clones
    count: int = 0  # tasks: every one gets a row

    def ingest(self, path: Path, config: Config, **knobs) -> IngestReport:
        """Ingest into a fresh store at *path*, laid out as *config* says."""
        with resolve_store(path, shards=config.shards) as store:
            return self.ingest_into(store, config, **knobs)

    def ingest_into(self, store, config: Config, provider=None, **knobs) -> IngestReport:
        knobs.update(jobs=config.jobs, chunk_size=config.batch)
        if self.corpus is None:
            return ingest_stream(store, self.spec, **knobs)
        corpus = self.corpus
        return ingest_corpus(
            store, corpus.activity, corpus.lib_io, provider or corpus.provider, **knobs
        )

    def chunks(self, config: Config) -> int:
        return -(-self.count // config.chunk())

    def sample(self) -> list[Config]:
        """SAMPLE_SIZE seeded configurations, with eight distinct layout
        and batch pairs, in which every job count, layout and batch size
        (one project, five, the default, more than the source holds)
        occurs."""
        rng = random.Random(f"identity|{self.name}")
        jobs, shards = list(JOBS), list(SHARDS)
        batches = [1, 5, None, self.count + 1]
        for axis in (jobs, shards, batches):
            rng.shuffle(axis)
        return [
            Config(jobs[i % 3], shards[i % 4], batches[(i + i // 4) % 4])
            for i in range(SAMPLE_SIZE)
        ]


def probe(store) -> list[tuple[str, str]]:
    """A fixed request per (route, variant) over one store's projects:
    every store-reading GET route, filters and both kinds of ref."""
    ids = store.project_ids()
    names = [stored.name for stored in store.query_projects().projects]
    requests = [
        ("/v1/stats", ""),
        ("/v1/taxa", ""),
        ("/v1/projects", ""),
        ("/v1/projects", "outcome=studied"),
        ("/v1/projects", "outcome=rigid"),
        ("/v1/projects", "taxon=almost%20frozen"),
        ("/v1/projects", "limit=5&min_total_activity=3&max_active_commits=9"),
        *(("/v1/projects", f"dialect={dialect}") for dialect in store.dialects()),
        ("/v1/projects/no%2Fsuch", ""),
        ("/v1/projects/99999/heartbeat", ""),
    ]
    for index in sorted({0, len(ids) // 2, len(ids) - 1}):
        for ref in (str(ids[index]), quote(names[index], safe="")):
            for tail in ("", "/heartbeat", "/advise"):
                requests.append((f"/v1/projects/{ref}{tail}", ""))
    return requests


#: Paginated walks: every page, following each body's own ``next``.
WALKS = (("/v1/projects", "limit=7"), ("/v1/failures", "limit=1"))


def observe(path: Path, requests, export_to: Path | None = None) -> dict:
    """Everything a reader can see of the store at *path*, reopened with
    its layout detected, by part name."""
    with resolve_store(path) as store:
        report = store.funnel_report()
        parts = {
            "content_hash": store.content_hash(),
            "rows": [(stored.id, stored.name) for stored in store.query_projects().projects],
            "aggregates": store.aggregates(),
            "dialects": store.dialects(),
            "taxa_by_dialect": store.taxa_by_dialect(),
            "dialect_profiles": store.dialect_profiles(),
            "funnel": (
                funnel_payload(report),
                [project.name for project in report.studied],
                [project.name for project in report.rigid],
            ),
        }
        service = CorpusService(store, cache_capacity=0)

        def get(route: str, query: str) -> bytes:
            rendered = service.handle_rendered(route, query, dict(parse_qsl(query)))
            parts[f"GET {route}?{query}"] = (rendered.response.status, rendered.body)
            return rendered.body

        for route, query in requests:
            get(route, query)
        for route, query in WALKS:
            while query is not None:
                link = json.loads(get(route, query))["next"]
                query = link.split("?", 1)[1] if link else None
        if export_to is not None:
            export_from_store(export_to, store)
            parts["export"] = files_of(export_to)
    return parts


def files_of(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def differences(what: str, observed: dict, expected: dict) -> list[str]:
    """One line per part of *observed* that is not as *expected*, in the
    expected parts' order; short values are shown."""
    lines = []
    for part in [*expected, *(part for part in observed if part not in expected)]:
        mine, theirs = observed.get(part), expected.get(part)
        if mine != theirs:
            shown = f": {mine!r} != {theirs!r}" if len(repr((mine, theirs))) < 120 else ""
            lines.append(f"{what}: {part} differs{shown}")
    return lines


@dataclass
class Reference:
    """A source's reference run: its store, probe and observation."""

    source: Source
    path: Path
    requests: list[tuple[str, str]]
    observed: dict | None = None

    def observe(self, path: Path, directory: Path) -> dict:
        """*path* observed as the reference is; the corpus exports too."""
        exports = self.source.corpus is not None
        return observe(path, self.requests, directory / "export" if exports else None)


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> dict[str, Reference]:
    """Each source built once and ingested under the reference config."""
    built = {}
    for name, spec in SOURCES.items():
        corpus = build_corpus(spec) if isinstance(spec, CorpusSpec) else None
        source = Source(name, spec, corpus)
        root = tmp_path_factory.mktemp(f"reference-{name}")
        source.count = source.ingest(root / "store.db", REFERENCE).tasks
        with resolve_store(root / "store.db") as store:
            reference = Reference(source, root / "store.db", probe(store))
        reference.observed = reference.observe(reference.path, root)
        built[name] = reference
    return built


@pytest.mark.parametrize("name", SOURCES)
def test_every_sampled_configuration_observes_the_reference(references, name, tmp_path):
    reference = references[name]
    mismatches = []
    for index, config in enumerate(reference.source.sample()):
        what, run = f"{name} under {config}", tmp_path / f"run-{index}"
        run.mkdir()
        try:
            reference.source.ingest(run / "store.db", config)
            observed = reference.observe(run / "store.db", run)
        except Exception as exc:
            mismatches.append(f"{what}: raised {exc!r}")
            continue
        mismatches += differences(what, observed, reference.observed)
    assert not mismatches, "\n".join(mismatches)


def test_the_probe_reaches_every_store_reading_route(references):
    reached = {
        route.path
        for reference in references.values()
        for path, _ in (*reference.requests, *WALKS)
        for route in ROUTES
        if route.pattern.match(path)
    }
    readers = {route.path for route in ROUTES if "GET" in route.methods}
    assert reached == readers - STATIC_ROUTES


def test_the_cli_flags_ci_passes_keep_the_content_hash(references, tmp_path, capsys):
    """``repro ingest`` with every layout, batch, job and dialect flag
    prints the reference hash; ``repro funnel --json`` under seeded
    faults prints the same bytes at every job count, with or without
    the default ``--dialects mysql``."""
    hashes = {name: ref.observed["content_hash"] for name, ref in references.items()}
    runs = {
        "corpus": ["--scale", "0.05", "--seed", "3", "--batch-size", "1",
                   "--shards", "3", "--jobs", "2", "--dialects", "mysql"],
        "stream": ["--stream", "--count", "40", "--seed", "3", "--batch-size", "5",
                   "--shards", "2", "--jobs", "4"],
        "mixed": ["--stream", "--count", "60", "--seed", "7", "--shards", "4",
                  "--dialects", "mysql,postgresql,sqlite"],
    }
    for name, flags in runs.items():
        db = tmp_path / f"cli-{name}.db"
        assert main(["ingest", "--db", str(db), *flags, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["store"]["content_hash"]
        assert printed == hashes[name], f"{name} under repro ingest {' '.join(flags)}"
    chaos = ["funnel", "--scale", "0.05", "--seed", "3", "--json",
             "--inject-faults", "0.15", "--fault-seed", "7", "--retries", "2"]
    outputs = {}
    for extra in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "4"],
                  ["--jobs", "4", "--dialects", "mysql"]):
        assert main([*chaos, *extra]) == 0
        outputs[" ".join(extra)] = capsys.readouterr().out
    assert json.loads(outputs["--jobs 1"])["failures"], "the seeded faults hit nothing"
    for flags, out in outputs.items():
        assert out == outputs["--jobs 1"], f"corpus under repro funnel {flags}"


def test_a_streamed_source_stores_what_its_materialized_corpus_stores(
    references, tmp_path
):
    """``ingest_corpus`` over the materialized stream: the same content,
    in the funnel's selection order, so ids are not compared."""
    reference = references["stream"]
    corpus = materialize_stream(reference.source.spec)
    with resolve_store(tmp_path / "materialized.db") as store:
        ingest_corpus(store, corpus.activity, corpus.lib_io, corpus.provider)
    observed = observe(tmp_path / "materialized.db", [])
    for part in ("content_hash", "aggregates", "taxa_by_dialect", "dialect_profiles"):
        assert observed[part] == reference.observed[part], f"stream materialized: {part}"


@pytest.mark.parametrize("name", SOURCES)
def test_a_crash_in_persist_resumes_to_the_reference(
    references, name, tmp_path, monkeypatch
):
    """Kill ``persist_batch`` after a seeded number of chunks, run the
    same call again, then once more: the resume re-measures only what
    was lost, clears its checkpoint and stores the reference; the third
    run measures nothing."""
    reference = references[name]
    source = reference.source
    rng = random.Random(f"identity|crash|{name}")
    config = rng.choice([c for c in source.sample() if source.chunks(c) >= 3])
    landed = rng.randrange(1, source.chunks(config) - 1)
    what = f"{name} under {config}, killed after {landed} chunks"
    path = tmp_path / "store.db"
    with resolve_store(path, shards=config.shards) as store:
        persist, persisted = store.persist_batch, []

        def dying(items, *args, **kwargs):
            if len(persisted) == landed:
                raise Killed
            persisted.append(items)
            return persist(items, *args, **kwargs)

        monkeypatch.setattr(store, "persist_batch", dying)
        with pytest.raises(Killed):
            source.ingest_into(store, config)
        monkeypatch.undo()
        crashed = store.get_meta(INGEST_CHECKPOINT_KEY) is not None
        resumed = source.ingest_into(store, config)
        left = store.get_meta(INGEST_CHECKPOINT_KEY)
        again = source.ingest_into(store, config)
    stream = source.corpus is None
    prefix = landed * config.chunk()
    mismatches = differences(
        what,
        {
            "checkpoint after the crash": crashed,
            "resumed_from": resumed.resumed_from,
            "stream_resumed_at": resumed.stream_resumed_at,
            "measured on resume": resumed.measured,
            "checkpoint after the resume": left,
            "re-ingest measured, run, unchanged": (
                again.measured, again.stats.projects, again.skipped_unchanged,
            ),
        },
        {
            "checkpoint after the crash": True,
            "resumed_from": "stream" if stream else "corpus",
            "stream_resumed_at": prefix if stream else None,
            "measured on resume": source.count - prefix,
            "checkpoint after the resume": None,
            "re-ingest measured, run, unchanged": (0, 0, source.count),
        },
    )
    mismatches += differences(what, reference.observe(path, tmp_path), reference.observed)
    assert not mismatches, "\n".join(mismatches)


def _refusing(repos: dict, refused: set[str]):
    """A clone source whose first call for each refused name raises."""
    calls: Counter = Counter()

    def provider(name):
        calls[name] += 1
        if name in refused and calls[name] == 1:
            raise ConnectionError(f"clone of {name} refused")
        return repos.get(name)

    return provider


def test_a_refused_first_clone_fails_alike_and_a_retry_stores_the_reference(
    references, tmp_path
):
    """With one attempt every job count fails the same ``extract`` stages
    in the funnel and in ingest, whose stores (one per layout) agree;
    with two attempts ingest stores the clean reference."""
    reference = references["corpus"]
    corpus = reference.source.corpus
    names = [name for _, name in reference.observed["rows"]]
    refused = set(random.Random("identity|refused").sample(names, 5))
    failures, incomplete, mismatches = {}, [], []
    for jobs, shards in zip(JOBS, (1, 2, 4)):
        report = run_funnel(
            corpus.activity, corpus.lib_io, _refusing(corpus.repos, refused), jobs=jobs
        )
        failures["run_funnel", jobs] = [f.payload() for f in report.failures]
        config = Config(jobs, shards)
        for attempts in (1, 2):
            what = f"corpus under {config}, {attempts} attempt(s), first clone refused"
            path = tmp_path / f"refused-{jobs}-{attempts}.db"
            reference.source.ingest(
                path, config, provider=_refusing(corpus.repos, refused),
                retry=RetryPolicy(max_attempts=attempts, base_delay=0.0, max_delay=0.0),
            )
            if attempts == 2:
                observed = reference.observe(path, tmp_path / f"out-{jobs}")
                mismatches += differences(what, observed, reference.observed)
                continue
            with resolve_store(path) as store:
                failures["ingest_corpus", jobs] = [f.payload() for f in store.failures()]
            # Refused projects may empty a taxon, so nothing is exported.
            incomplete.append((what, observe(path, reference.requests)))
    for what, observed in incomplete[1:]:
        mismatches += differences(what, observed, incomplete[0][1])
    assert not mismatches, "\n".join(mismatches)
    expected = failures["run_funnel", 1]
    assert sorted(f["project"] for f in expected) == sorted(refused)
    assert {(f["stage"], f["error"], f["attempts"]) for f in expected} == {
        ("extract", "ConnectionError", 1)
    }
    for (entry, jobs), payloads in failures.items():
        assert payloads == expected, f"{entry} at jobs={jobs}, first clone refused"


def test_the_funnel_measures_exports_and_renders_what_the_store_does(
    references, tmp_path
):
    reference = references["corpus"]

    def measured(report):
        return [(p.name, p.metrics) for p in report.studied + report.rigid]

    with resolve_store(reference.path) as store:
        stored = measured(store.funnel_report())
        rendered = ExperimentSuite.from_store(store).render_all()
    for jobs in (1, 4):
        report = reference.source.corpus.run_funnel(jobs=jobs)
        analysis = analyze_corpus(report.studied + report.rigid)
        export_study(tmp_path / f"jobs{jobs}", report, analysis)
        what = f"corpus through run_funnel at jobs={jobs}"
        assert measured(report) == stored, f"{what}: projects"
        assert files_of(tmp_path / f"jobs{jobs}") == reference.observed["export"], what
        assert ExperimentSuite(report, analysis).render_all() == rendered, what


def test_the_mixed_stream_stores_the_dialects_it_synthesizes(references):
    reference = references["mixed"]
    spec = reference.source.spec
    expected = Counter(synthesize_project(spec, i).dialect for i in range(spec.count))
    assert set(expected) == set(spec.dialects)
    assert reference.observed["dialects"] == sorted(spec.dialects)
    assert reference.observed["aggregates"]["by_dialect"] == expected
    for dialect, population in expected.items():
        status, body = reference.observed[f"GET /v1/projects?dialect={dialect}"]
        assert status == 200 and json.loads(body)["total"] == population, dialect
