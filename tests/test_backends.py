"""The calling thread and worker processes.

How projects run is pure scheduling: that every job count produces
byte-identical study artifacts and identical failure records under
seeded chaos is checked by ``tests/test_identity.py``.  These tests pin
the worker pool's own obligations: worker death degrades to
``executor``-stage failures instead of hanging the run, worker
spans/metrics relay into the parent's recorder/registry, each project
is resolved once, and the task partition is deterministic and recorded.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.mining.funnel import select_tasks
from repro.mining.selection import SelectionCriteria
from repro.obs import recording
from repro.pipeline import MeasurementPipeline, Outcome, PipelineConfig
from repro.pipeline.backends import partition, partition_digest
from repro.pipeline.stages import ProjectTask
from repro.resilience import FaultInjector, RetryPolicy
from repro.store import CorpusStore, ingest_corpus, ingest_stream
from repro.synthesis import CorpusSpec, build_corpus
from repro.synthesis.stream import StreamSpec, materialize_stream
from repro.vcs.repository import Repository

#: Job counts by how they run (the partition record's ``backend``).
JOBS = {"serial": 1, "process": 4}


@pytest.fixture(scope="module")
def small_corpus():
    """A corpus small enough to re-run once per job count."""
    return build_corpus(CorpusSpec(seed=2019, scale=0.05))


def _tasks(names: list[str]) -> list[ProjectTask]:
    return [ProjectTask(name, "schema.sql") for name in names]


class PoisonRepo(Repository):
    """Unpickling this in a worker kills the worker process."""

    def __reduce__(self):
        return (os._exit, (17,))


def _repo(name: str, versions: int = 3) -> Repository:
    repo = Repository(name)
    for index in range(versions):
        columns = ", ".join(f"c{i} INT" for i in range(index + 1))
        repo.commit(
            {"schema.sql": f"CREATE TABLE t ({columns});".encode()},
            author="a",
            timestamp=1_000_000 + index * 86_400,
            message=f"v{index}",
        )
    return repo


class TestPartitioning:
    def test_chunks_are_contiguous_and_cover_every_task(self):
        chunks = partition(103, 4)
        assert chunks[0][0] == 0 and chunks[-1][1] == 103
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) == 16  # min(103, 4 * 4)

    def test_fewer_tasks_than_chunk_budget(self):
        assert partition(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert partition(0, 4) == []

    def test_digest_is_deterministic_and_input_sensitive(self):
        tasks = _tasks(["a/x", "b/y", "c/z"])
        chunks = partition(len(tasks), 2)
        digest = partition_digest(tasks, chunks, "process")
        assert digest == partition_digest(tasks, chunks, "process")
        assert digest != partition_digest(list(reversed(tasks)), chunks, "process")
        assert digest != partition_digest(tasks, chunks, "serial")

    @pytest.mark.slow
    def test_partition_is_recorded_in_stats_for_every_backend(self, small_corpus):
        digests = {}
        for backend, jobs in JOBS.items():
            report = small_corpus.run_funnel(jobs=jobs)
            record = report.stats.partition
            assert record is not None and record["backend"] == backend
            assert record["digest"] and record["chunks"] >= 1
            assert report.stats.payload()["partition"] == record
            digests[backend] = record["digest"]
        # re-running the same job count reproduces the same digest
        again = small_corpus.run_funnel(jobs=JOBS["process"])
        assert again.stats.partition["digest"] == digests["process"]
        # a single task never forks, whatever the job count
        one = MeasurementPipeline({"a/x": _repo("a/x")}.get, PipelineConfig(jobs=4))
        assert one.run(_tasks(["a/x"]))[0].outcome is Outcome.STUDIED
        assert one.stats.partition["backend"] == "serial"


class TestObservabilityRelay:
    @pytest.mark.slow
    def test_worker_spans_graft_under_the_parent_run_span(self, small_corpus):
        with recording() as recorder:
            report = small_corpus.run_funnel(jobs=4)
        assert report.stats.partition["backend"] == "process"
        run_span = recorder.spans("pipeline.run")[0]
        assert set(run_span.attrs) == {"projects", "jobs"}
        assert run_span.attrs["jobs"] == 4
        grafted = [
            span for span in recorder.spans()
            if span.thread.startswith("worker-")
        ]
        assert grafted, "worker spans must relay into the parent recorder"
        assert recorder.count("stage.parse") > 0
        by_id = {span.span_id: span for span in recorder.spans()}
        for span in grafted:
            # every grafted span chains up to the parent's run span
            cursor = span
            while cursor.parent_id is not None:
                cursor = by_id[cursor.parent_id]
            assert cursor.span_id == run_span.span_id or cursor is run_span

    @pytest.mark.slow
    def test_worker_metrics_merge_into_the_parent_registry(self, small_corpus):
        serial = small_corpus.run_funnel(jobs=1)
        process = small_corpus.run_funnel(jobs=4)
        # per-stage project counts are scheduling-independent
        assert process.stats.stage_projects == serial.stats.stage_projects
        assert process.stats.projects == serial.stats.projects
        observed = sum(
            metric.count
            for _, metric in process.stats.registry.series(
                "repro_pipeline_stage_duration_seconds"
            )
        )
        assert observed == sum(process.stats.stage_projects.values())


class TestWorkerResilience:
    def test_worker_death_degrades_to_executor_failures(self):
        repos = {
            "ok/alpha": _repo("ok/alpha"),
            "bad/boom": PoisonRepo("bad/boom"),
            "ok/omega": _repo("ok/omega"),
        }
        pipeline = MeasurementPipeline(repos.get, PipelineConfig(jobs=2))
        contexts = pipeline.run(
            _tasks(["ok/alpha", "bad/boom", "ok/omega"])
        )
        by_name = {ctx.task.repo_name: ctx for ctx in contexts}
        poisoned = by_name["bad/boom"]
        assert poisoned.outcome is Outcome.FAILED
        assert poisoned.failure is not None
        assert poisoned.failure.stage == "executor"
        assert poisoned.failure.error == "BrokenProcessPool"
        # the healthy neighbours still completed (the run never hangs)
        assert by_name["ok/alpha"].outcome is Outcome.STUDIED
        assert by_name["ok/omega"].outcome is Outcome.STUDIED

    def test_provider_exceptions_keep_serial_failure_semantics(self):
        def flaky_provider(name):
            raise ConnectionError(f"clone of {name} refused")

        results = {}
        for backend, jobs in JOBS.items():
            pipeline = MeasurementPipeline(
                flaky_provider,
                PipelineConfig(
                    jobs=jobs,
                    retry=RetryPolicy(
                        max_attempts=3, base_delay=0.0, max_delay=0.0
                    ),
                ),
            )
            contexts = pipeline.run(_tasks(["gone/away", "gone/too"]))
            assert pipeline.stats.partition["backend"] == backend
            results[backend] = [ctx.failure.payload() for ctx in contexts]
        assert results["serial"] == results["process"]
        assert {f["stage"] for f in results["process"]} == {"extract"}
        assert {f["attempts"] for f in results["process"]} == {3}

    def test_a_provider_failing_once_counts_that_call_at_every_job_count(self):
        repos = {name: _repo(name) for name in ("ok/first", "ok/second")}
        runs = {}
        for retries in (1, 2):
            for jobs in (1, 2):
                calls: dict[str, int] = {}

                def provider(name):
                    calls[name] = calls.get(name, 0) + 1
                    if calls[name] == 1:
                        raise ConnectionError(f"clone of {name} refused")
                    return repos[name]

                pipeline = MeasurementPipeline(
                    provider,
                    PipelineConfig(
                        jobs=jobs,
                        retry=RetryPolicy(
                            max_attempts=retries, base_delay=0.0, max_delay=0.0
                        ),
                    ),
                )
                contexts = pipeline.run(_tasks(sorted(repos)))
                runs[retries, jobs] = (
                    [
                        (
                            ctx.outcome,
                            ctx.attempts,
                            ctx.failure.payload() if ctx.failure else None,
                        )
                        for ctx in contexts
                    ],
                    pipeline.stats.retries,
                    pipeline.stats.recovered,
                    calls,
                )
            assert runs[retries, 1] == runs[retries, 2]
        failed, *_ = runs[1, 1]
        assert [(outcome, attempts) for outcome, attempts, _ in failed] == [
            (Outcome.FAILED, 1)
        ] * 2
        recovered, retried, recovered_count, calls = runs[2, 1]
        assert [(outcome, attempts) for outcome, attempts, _ in recovered] == [
            (Outcome.STUDIED, 2)
        ] * 2
        assert (retried, recovered_count, calls) == (
            2, 2, {"ok/first": 2, "ok/second": 2}
        )

    def test_unpicklable_repo_falls_back_to_inline_execution(self):
        class UnpicklableRepo(Repository):
            def __reduce__(self):
                raise TypeError("cannot pickle this repository")

        source = _repo("ok/inline")
        repo = UnpicklableRepo("ok/inline")
        repo.__dict__.update(source.__dict__)
        pipeline = MeasurementPipeline({"ok/inline": repo}.get, PipelineConfig(jobs=2))
        contexts = pipeline.run(_tasks(["ok/inline"]) * 2)
        assert all(ctx.outcome is Outcome.STUDIED for ctx in contexts)


class TestSeededPipeline:
    def test_seeded_pipeline_runs_on_every_backend(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry
        from repro.pipeline import backends, stages
        from repro.pipeline.cache import SchemaCache
        from repro.pipeline.stages import usable_versions
        from repro.vcs.history import extract_file_history

        repo = _repo("seeded/project")
        versions = tuple(usable_versions(extract_file_history(repo, "schema.sql")))
        project, vanished = _tasks(["seeded/project", "seeded/vanished"])
        calls: list[str] = []

        def provider(name):
            calls.append(name)
            return None

        def no_walk(*args, **kwargs):
            raise AssertionError("a pre-walked history is walked again")

        monkeypatch.setattr(stages, "extract_file_history", no_walk)
        pipeline = MeasurementPipeline(provider, PipelineConfig())
        outcomes = {
            "serial": [
                pipeline.run_project(project, repo, versions).outcome,
                pipeline.run_project(vanished).outcome,
            ]
        }
        assert calls == ["seeded/vanished"]  # only the unresolved task asks
        monkeypatch.undo()
        config = PipelineConfig(jobs=2)
        materials = (
            backends.ProjectMaterial(0, project, repo, versions),
            backends.ProjectMaterial(1, vanished, None),
        )
        with backends.WorkerPool(2, MetricsRegistry()) as pool:
            batch = pool.submit([backends.WorkerChunk(0, config, materials)])
            contexts, _ = pool.results(batch, SchemaCache())
        outcomes["process"] = [ctx.outcome for _, ctx in contexts]
        assert (
            outcomes["serial"]
            == outcomes["process"]
            == [Outcome.STUDIED, Outcome.ZERO_VERSIONS]
        )


class UnreadableRepo(Repository):
    """A clone whose blobs cannot be read: its history walk raises."""

    def get_blob(self, oid):
        raise OSError(f"blob {oid} is unreadable")


def _counting(provider, refused=()):
    """*provider*, counting its calls by name in the returned dict and
    refusing the first call for every name in *refused*."""
    calls: dict[str, int] = {}

    def counted(name):
        calls[name] = calls.get(name, 0) + 1
        if name in refused and calls[name] == 1:
            raise ConnectionError(f"clone of {name} refused")
        return provider(name)

    return counted, calls


class TestOneResolutionPerProject:
    """A project's repository is resolved once, by one provider call
    that returns, and every attempt at every job count reuses it; the
    funnel and ingest count a refused call alike."""

    JOB_COUNTS = (1, 2)

    @staticmethod
    def _refused(corpus) -> set[str]:
        return set(sorted(corpus.repos)[:40:4])

    def test_retries_reuse_the_first_clone_at_every_job_count(self):
        repos = {f"ok/p{index}": _repo(f"ok/p{index}") for index in range(6)}
        runs = {}
        for jobs in self.JOB_COUNTS:
            provider, calls = _counting(repos.get)
            pipeline = MeasurementPipeline(
                provider,
                PipelineConfig(
                    jobs=jobs,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
                    injector=FaultInjector(
                        seed=1, rate=0.5, sites=("parse",), fail_attempts=1
                    ),
                ),
            )
            contexts = pipeline.run(_tasks(sorted(repos)))
            runs[jobs] = (
                [(ctx.outcome, ctx.attempts) for ctx in contexts],
                pipeline.stats.retries,
                pipeline.stats.recovered,
            )
            assert calls == dict.fromkeys(repos, 1), jobs
        assert runs[1] == runs[2]
        outcomes, retries, recovered = runs[1]
        assert {outcome for outcome, _ in outcomes} == {Outcome.STUDIED}
        assert retries == recovered > 0  # the faults fired and were retried

    def test_a_refused_clone_fails_extract_alike_in_funnel_and_ingest(
        self, small_corpus, tmp_path
    ):
        from repro.mining.funnel import run_funnel

        refused = self._refused(small_corpus)
        failures = {}
        for jobs in self.JOB_COUNTS:
            provider, calls = _counting(small_corpus.repos.get, refused)
            report = run_funnel(
                small_corpus.activity, small_corpus.lib_io, provider, jobs=jobs
            )
            failures["funnel", jobs] = [f.payload() for f in report.failures]
            assert {name: calls[name] for name in refused} == dict.fromkeys(refused, 1)
            provider, calls = _counting(small_corpus.repos.get, refused)
            with CorpusStore(tmp_path / f"refused-{jobs}.db") as store:
                ingest_corpus(
                    store, small_corpus.activity, small_corpus.lib_io, provider,
                    jobs=jobs,
                )
                failures["ingest", jobs] = [f.payload() for f in store.failures()]
            assert {name: calls[name] for name in refused} == dict.fromkeys(refused, 1)
        first, *others = failures.values()
        assert all(other == first for other in others), failures
        assert sorted(f["project"] for f in first) == sorted(refused)
        assert {(f["stage"], f["error"], f["attempts"]) for f in first} == {
            ("extract", "ConnectionError", 1)
        }

    def test_a_recovered_clone_is_stored_as_a_clean_ingest_stores_it(
        self, small_corpus, tmp_path
    ):
        refused = self._refused(small_corpus)
        with CorpusStore(tmp_path / "clean.db") as store:
            ingest_corpus(
                store, small_corpus.activity, small_corpus.lib_io, small_corpus.provider
            )
            clean = store.content_hash()
        for jobs in self.JOB_COUNTS:
            provider, _ = _counting(small_corpus.repos.get, refused)
            with CorpusStore(tmp_path / f"retried-{jobs}.db") as store:
                report = ingest_corpus(
                    store, small_corpus.activity, small_corpus.lib_io, provider,
                    jobs=jobs,
                    retry=RetryPolicy(max_attempts=2, base_delay=0, max_delay=0),
                )
                assert report.failed == 0
                assert store.content_hash() == clean, jobs
                again = ingest_corpus(
                    store, small_corpus.activity, small_corpus.lib_io,
                    small_corpus.provider, jobs=jobs,
                )
                assert again.measured == 0, jobs

    def test_a_walk_that_raises_fails_extract_without_a_second_call(self, tmp_path):
        from repro.mining.funnel import run_funnel

        corpus = materialize_stream(StreamSpec(seed=3, count=6))
        victim = sorted(corpus.repos)[1]
        unreadable = UnreadableRepo(victim)
        unreadable.__dict__.update(corpus.repos[victim].__dict__)
        repos = {**corpus.repos, victim: unreadable}
        provider, calls = _counting(repos.get)
        serial = run_funnel(corpus.activity, corpus.lib_io, provider)
        expected = [f.payload() for f in serial.failures]
        assert [(f["project"], f["stage"]) for f in expected] == [(victim, "extract")]
        assert calls[victim] == 1
        for jobs in self.JOB_COUNTS:
            provider, calls = _counting(repos.get)
            with CorpusStore(tmp_path / f"unreadable-{jobs}.db") as store:
                ingest_corpus(
                    store, corpus.activity, corpus.lib_io, provider, jobs=jobs
                )
                assert [f.payload() for f in store.failures()] == expected, jobs
            assert calls[victim] == 1, jobs


class TestOnePoolPerIngestRun:
    """An ingest run forks one worker pool, whatever its chunk count,
    and leaves no worker behind when it returns or raises."""

    SPEC = StreamSpec(seed=3, count=13)
    KNOBS = dict(jobs=2, chunk_size=4)

    @pytest.fixture
    def pools(self, monkeypatch):
        from repro.pipeline import backends

        opened = []

        class CountingPool(backends.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(backends, "ProcessPoolExecutor", CountingPool)
        return opened

    def test_stream_and_corpus_runs_open_one_pool_each(self, tmp_path, pools):
        with CorpusStore(tmp_path / "stream.db") as store:
            assert ingest_stream(store, self.SPEC, **self.KNOBS).measured == 13
            assert pools == [2]  # four chunks, one pool
            assert multiprocessing.active_children() == []
            again = ingest_stream(store, self.SPEC, **self.KNOBS)
            assert again.measured == 0
            assert multiprocessing.active_children() == []
        pools.clear()
        corpus = materialize_stream(self.SPEC)
        with CorpusStore(tmp_path / "corpus.db") as store:
            report = ingest_corpus(
                store, corpus.activity, corpus.lib_io, corpus.provider, **self.KNOBS
            )
            assert report.measured == 13
            assert pools == [2]
            assert multiprocessing.active_children() == []

    def test_a_raising_persist_leaves_no_worker_running(self, tmp_path, monkeypatch):
        with CorpusStore(tmp_path / "killed.db") as store:
            original = store.persist_batch
            durable = []

            def dying_persist(items, ids=None):
                if len(durable) >= 2:
                    raise RuntimeError("killed")
                durable.append(len(items))
                return original(items, ids)

            monkeypatch.setattr(store, "persist_batch", dying_persist)
            with pytest.raises(RuntimeError, match="killed"):
                ingest_stream(store, self.SPEC, **self.KNOBS)
            assert multiprocessing.active_children() == []
            assert store.project_count() == 8

    def test_worker_death_mid_ingest_demotes_only_the_killer(self, tmp_path):
        spec = StreamSpec(seed=3, count=6)
        corpus = materialize_stream(spec)
        _, tasks, _ = select_tasks(
            corpus.activity, corpus.lib_io, SelectionCriteria(), ("mysql",)
        )
        names = [task.repo_name for task in tasks]
        killer = names[2]  # the middle one of three two-project chunks
        poison = PoisonRepo(killer)
        poison.__dict__.update(corpus.repos[killer].__dict__)
        repos = {**corpus.repos, killer: poison}
        with CorpusStore(tmp_path / "poisoned.db") as store:
            report = ingest_corpus(
                store, corpus.activity, corpus.lib_io, repos.get,
                jobs=2, chunk_size=2,
            )
            assert report.measured == 6
            assert multiprocessing.active_children() == []
            (failure,) = store.failures()
            assert failure.project == killer
            assert failure.stage == "executor"
            assert failure.error == "BrokenProcessPool"
            for name in names:
                stored = store.get_project(name)
                assert (stored.outcome == Outcome.FAILED.value) == (name == killer)
