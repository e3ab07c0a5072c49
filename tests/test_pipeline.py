"""Tests of the staged measurement pipeline.

Fault isolation (one malformed project must not abort the corpus) and
the content-hash cache (a warm re-run through a shared cache performs
zero ``build_schema`` calls).  That every job count yields
byte-identical artifacts is checked by ``tests/test_identity.py``.
"""

from __future__ import annotations

import pytest

from repro.core.diff import diff_schemas
from repro.mining import (
    GithubActivityDataset,
    LibrariesIoDataset,
    LibrariesIoRecord,
    SqlFileRecord,
    run_funnel,
)
from repro.pipeline import (
    MeasurementPipeline,
    Outcome,
    PipelineConfig,
    ProjectTask,
    SchemaCache,
    Stage,
)
from repro.pipeline.stages import (
    ClassifyStage,
    DiffStage,
    ExtractStage,
    MeasureStage,
    ParseStage,
)
from repro.reporting import funnel_text
from repro.schema import build_schema
from repro.vcs import Repository

DAY = 86_400
SCHEMA_V0 = b"CREATE TABLE a (x INT);"
SCHEMA_V1 = b"CREATE TABLE a (x INT, y INT);"


def meta(name, **kw):
    defaults = dict(is_fork=False, stars=3, contributors=4)
    defaults.update(kw)
    return LibrariesIoRecord(repo_name=name, url=f"https://github.com/{name}", **defaults)


def repo_with_history(name, versions, path="schema.sql", start_ts=DAY):
    repo = Repository(name)
    for index, content in enumerate(versions):
        repo.commit({path: content}, "dev", start_ts + index * 30 * DAY, f"v{index}")
    return repo


def clock_skew_repo(name, path="schema.sql"):
    """A child commit dated before its parent: the history is not
    ordered over time and crashes ``SchemaHistory`` construction."""
    repo = Repository(name)
    repo.commit({path: SCHEMA_V0}, "dev", 1_000_000, "v0")
    repo.commit({path: SCHEMA_V1}, "dev", 500, "v1 with clock skew")
    return repo


def tiny_corpus(with_bad_project=True):
    names = ["ok/alpha", "ok/beta", "ok/rigid"]
    repos = {
        "ok/alpha": repo_with_history("ok/alpha", [SCHEMA_V0, SCHEMA_V1]),
        "ok/beta": repo_with_history(
            "ok/beta", [SCHEMA_V0, SCHEMA_V1, b"CREATE TABLE a (x INT, y INT, z INT);"]
        ),
        "ok/rigid": repo_with_history("ok/rigid", [SCHEMA_V0]),
    }
    if with_bad_project:
        names.insert(1, "bad/skew")
        repos["bad/skew"] = clock_skew_repo("bad/skew")
    activity = GithubActivityDataset(
        [SqlFileRecord(name, "schema.sql") for name in names]
    )
    lib_io = LibrariesIoDataset([meta(name) for name in names])
    return activity, lib_io, repos.get


class TestFaultIsolation:
    def test_one_failure_does_not_abort_the_corpus(self):
        activity, lib_io, provider = tiny_corpus()
        report = run_funnel(activity, lib_io, provider)
        assert report.failed_count == 1
        failure = report.failures[0]
        assert failure.project == "bad/skew"
        assert failure.stage == "parse"
        assert failure.error == "ValueError"
        assert "not ordered over time" in failure.message
        # The healthy projects are all present and fully measured.
        assert [p.name for p in report.studied] == ["ok/alpha", "ok/beta"]
        assert report.rigid_count == 1
        assert report.cloned_usable == 3

    def test_healthy_measures_unchanged_by_the_bad_project(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=True)
        with_bad = run_funnel(activity, lib_io, provider)
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        without_bad = run_funnel(activity, lib_io, provider)
        assert without_bad.failed_count == 0
        for a, b in zip(with_bad.studied, without_bad.studied):
            assert a.name == b.name
            assert a.metrics == b.metrics

    def test_failure_rides_in_stage_rows_and_payload(self):
        from repro.io import funnel_payload

        activity, lib_io, provider = tiny_corpus()
        report = run_funnel(activity, lib_io, provider)
        rows = dict(report.stage_rows())
        assert rows["removed: failed measurement"] == 1
        assert rows["Schema_Evo_2019 (studied)"] == 2
        assert "removed: failed measurement" in funnel_text(report)
        payload = funnel_payload(report)
        assert payload["failures"] == [report.failures[0].payload()]

    @pytest.mark.parametrize(
        "statement",
        [
            "RENAME TABLE a TO b;",
            "ALTER TABLE a RENAME TO b;",
            "ALTER TABLE a CHANGE x y INT;",
            "ALTER TABLE a RENAME COLUMN x TO y;",
        ],
    )
    def test_rename_onto_a_taken_name_is_measured_not_failed(self, statement):
        # MySQL rejects each of these renames with no effect; lenient
        # replay skips them instead of failing the whole project.
        base = b"CREATE TABLE a (x INT, y INT); CREATE TABLE b (z INT);"
        repo = repo_with_history("ok/rename", [base, base + statement.encode()])
        activity = GithubActivityDataset([SqlFileRecord("ok/rename", "schema.sql")])
        lib_io = LibrariesIoDataset([meta("ok/rename")])
        report = run_funnel(activity, lib_io, {"ok/rename": repo}.get)
        assert report.failed_count == 0
        assert [p.name for p in report.studied] == ["ok/rename"]

    def test_provider_crash_is_isolated_too(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)

        def exploding_provider(name):
            if name == "ok/beta":
                raise RuntimeError("clone timed out")
            return provider(name)

        report = run_funnel(activity, lib_io, exploding_provider)
        assert report.failed_count == 1
        assert report.failures[0].stage == "extract"
        assert report.failures[0].error == "RuntimeError"
        assert [p.name for p in report.studied] == ["ok/alpha"]


class TestCache:
    def test_warm_memory_cache_skips_all_parsing(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        cache = SchemaCache()
        cold = run_funnel(activity, lib_io, provider, cache=cache)
        cold_misses = cold.stats.cache.schema_misses
        assert cold_misses > 0
        warm = run_funnel(activity, lib_io, provider, cache=cache)
        assert warm.stats.cache.build_schema_calls == cold_misses  # shared counters
        assert warm.stats.cache.schema_hits >= cold_misses
        assert [p.name for p in warm.studied] == [p.name for p in cold.studied]

    def test_identical_blobs_share_one_schema_object(self):
        cache = SchemaCache()
        first = cache.schema_for("CREATE TABLE t (a INT);")
        second = cache.schema_for("CREATE TABLE t (a INT);")
        assert first is second
        assert cache.counters.schema_hits == 1
        assert cache.counters.schema_misses == 1

    def test_diff_cache_matches_uncached_diff(self):
        cache = SchemaCache()
        old = cache.schema_for("CREATE TABLE t (a INT);")
        new = cache.schema_for("CREATE TABLE t (a INT, b INT);")
        assert cache.diff_for(old, new) == diff_schemas(old, new)
        cache.diff_for(old, new)
        assert cache.counters.diff_hits == 1
        assert cache.counters.diff_misses == 1

    def test_diff_cache_accepts_foreign_schemas(self):
        cache = SchemaCache()
        old = build_schema("CREATE TABLE t (a INT);")
        new = build_schema("CREATE TABLE t (a INT, b INT);")
        assert cache.diff_for(old, new) == diff_schemas(old, new)


class TestPipelineDirectly:
    def test_stage_chain_satisfies_the_protocol(self):
        cache = SchemaCache()
        stages = (
            ExtractStage(lambda name: None),
            ParseStage(cache),
            DiffStage(cache),
            MeasureStage(cache),
            ClassifyStage(),
        )
        for stage in stages:
            assert isinstance(stage, Stage)
        assert [s.name for s in stages] == [
            "extract", "parse", "diff", "measure", "classify",
        ]

    def test_outcomes_and_input_order(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        pipeline = MeasurementPipeline(provider, PipelineConfig(jobs=2))
        tasks = [
            ProjectTask("ok/beta", "schema.sql"),
            ProjectTask("missing/gone", "schema.sql"),
            ProjectTask("ok/rigid", "schema.sql"),
        ]
        results = pipeline.run(tasks)
        assert [ctx.name for ctx in results] == [t.repo_name for t in tasks]
        assert [ctx.outcome for ctx in results] == [
            Outcome.STUDIED, Outcome.ZERO_VERSIONS, Outcome.RIGID,
        ]
        assert pipeline.stats.projects == 3
        assert pipeline.stats.failures == 0

    def test_stats_track_every_stage(self):
        activity, lib_io, provider = tiny_corpus(with_bad_project=False)
        pipeline = MeasurementPipeline(provider, PipelineConfig())
        pipeline.run([ProjectTask("ok/alpha", "schema.sql")])
        assert set(pipeline.stats.stage_seconds) == {
            "extract", "parse", "diff", "measure", "classify",
        }
        assert pipeline.stats.stage_projects["extract"] == 1
        payload = pipeline.stats.payload()
        assert payload["projects"] == 1
        assert payload["cache"]["schema_misses"] > 0
        assert "build_schema calls" in pipeline.stats.summary()

    def test_measure_versions_hits_cache_on_identical_files(self):
        pipeline = MeasurementPipeline(lambda _: None, PipelineConfig())
        text = "CREATE TABLE t (a INT);"
        ctx = pipeline.measure_versions(
            "local/project", "s.sql", [("v0", 0, text), ("v1", DAY, text)]
        )
        assert ctx.outcome is Outcome.STUDIED
        assert ctx.metrics.n_commits == 2
        assert pipeline.cache.counters.schema_hits >= 1
        assert pipeline.cache.counters.schema_misses == 1


class TestCorpusDumpReport:
    def test_skips_are_reported_not_silent(self, tmp_path):
        repos = {
            "gone/repo": None,
            "ok/kept": repo_with_history("ok/kept", [SCHEMA_V0]),
            "no/path": repo_with_history("no/path", [SCHEMA_V0]),
            "stale/path": repo_with_history("stale/path", [SCHEMA_V0], path="other.sql"),
        }
        ddl_paths = {
            "gone/repo": "schema.sql",
            "ok/kept": "schema.sql",
            "stale/path": "schema.sql",
        }
        from repro.io import dump_corpus_histories

        report = dump_corpus_histories(tmp_path, repos, ddl_paths)
        assert report.written == ["ok/kept"]
        assert set(report.skipped) == {"gone/repo", "no/path", "stale/path"}
        assert "removed from GitHub" in report.skipped["gone/repo"]
        assert "no DDL path" in report.skipped["no/path"]
        assert "'schema.sql'" in report.skipped["stale/path"]
        assert (tmp_path / "ok__kept" / "versions.json").exists()

    def test_report_is_fspath_compatible(self, tmp_path):
        from repro.io import dump_corpus_histories, load_corpus_histories

        report = dump_corpus_histories(
            tmp_path,
            {"ok/kept": repo_with_history("ok/kept", [SCHEMA_V0, SCHEMA_V1])},
            {"ok/kept": "schema.sql"},
        )
        loaded = load_corpus_histories(report)  # the report stands in for the path
        assert set(loaded) == {"ok/kept"}


class TestCliFlags:
    def test_report_jobs_output_identical(self, capsys):
        from repro.cli import main

        assert main(["report", "--scale", "0.02", "--seed", "3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["report", "--scale", "0.02", "--seed", "3", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        strip = lambda text: "\n".join(
            line for line in text.splitlines() if "built+mined" not in line
        )
        assert strip(serial) == strip(parallel)

    def test_funnel_stats_flag(self, capsys):
        from repro.cli import main

        assert main(["funnel", "--scale", "0.02", "--seed", "3", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "build_schema calls" in out
        assert "stage parse" in out

    def test_classify_uses_the_schema_cache(self, tmp_path, capsys):
        from repro.cli import main

        v0 = tmp_path / "v0.sql"
        v1 = tmp_path / "v1.sql"
        v0.write_text("CREATE TABLE t (a INT);")
        v1.write_text("CREATE TABLE t (a INT);")  # identical: a cache hit
        assert main(["classify", str(v0), str(v1), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "versions:       2" in out
        assert "total activity: 0" in out
        assert "schema 1 hits / 1 misses" in out

    def test_classify_rejects_data_only_files(self, tmp_path, capsys):
        from repro.cli import main

        seeds = tmp_path / "seeds.sql"
        seeds.write_text("INSERT INTO config VALUES (1);")
        assert main(["classify", str(seeds)]) == 1
        assert "CREATE TABLE" in capsys.readouterr().err

    def test_export_stats_artifact(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "artifacts"
        assert main(
            ["export", "--scale", "0.02", "--seed", "3", "--out", str(out), "--stats"]
        ) == 0
        assert (out / "pipeline_stats.json").exists()
