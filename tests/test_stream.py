"""Tests of streaming synthesis and constant-memory batched ingest.

The contract under test: any slice of a seeded stream is reproducible
in isolation (per-project seeds), a checkpoint resumes only the stream
and settings that wrote it, and Python-side peak memory tracks the chunk
size — not the stream length.  That streamed and materialized ingest,
chunk sizes, job counts and layouts never change the bytes, that a
killed run resumes from its checkpoint index and that a re-ingest
measures nothing are checked by ``tests/test_identity.py``.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.heartbeat import DEFAULT_REED_LIMIT
from repro.store import (
    CorpusStore,
    INGEST_CHECKPOINT_KEY,
    ingest_corpus,
    ingest_stream,
)
from repro.synthesis.stream import (
    LIGHT_ARCHETYPES,
    PROFILES,
    StreamSpec,
    materialize_stream,
    profile_archetypes,
    project_name,
    project_seed,
    stream_projects,
    synthesize_project,
)

SPEC = StreamSpec(seed=2019, count=24, profile="light")

#: Job counts by how they run: the calling thread (the reference), workers.
JOBS = {"serial": 1, "process": 2}


class TestStreamDeterminism:
    def test_any_slice_matches_the_full_stream(self):
        full = list(stream_projects(SPEC))
        assert len(full) == SPEC.count
        tail = list(stream_projects(SPEC, start=10))
        assert [p.name for p in tail] == [p.name for p in full[10:]]
        assert [p.repo.head() for p in tail] == [p.repo.head() for p in full[10:]]

    def test_single_project_reproducible_in_isolation(self):
        alone = synthesize_project(SPEC, 7)
        in_stream = next(iter(stream_projects(SPEC, start=7, stop=8)))
        assert alone.name == in_stream.name
        assert alone.expected_taxon == in_stream.expected_taxon
        assert alone.repo.head() == in_stream.repo.head()

    def test_count_does_not_change_the_prefix(self):
        short = [p.name for p in stream_projects(StreamSpec(seed=2019, count=5))]
        longer = [
            p.name
            for p in stream_projects(StreamSpec(seed=2019, count=9), stop=5)
        ]
        assert short == longer

    def test_project_seeds_are_stable_and_distinct(self):
        assert project_seed(2019, 0) == project_seed(2019, 0)
        assert len({project_seed(2019, index) for index in range(500)}) == 500
        assert project_seed(2019, 3) != project_seed(2020, 3)

    def test_project_name_is_the_synthesized_name(self):
        mixed = StreamSpec(seed=7, count=12, dialects=("mysql", "postgresql", "sqlite"))
        for spec in (SPEC, mixed):
            for index in range(spec.count):
                assert project_name(spec, index) == synthesize_project(spec, index).name

    def test_names_are_globally_unique(self):
        names = [p.name for p in stream_projects(SPEC)]
        assert len(set(names)) == len(names)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(count=-1)
        with pytest.raises(ValueError):
            StreamSpec(profile="bogus")

    def test_profiles_resolve_to_archetype_tables(self):
        assert set(PROFILES) == {"light", "paper"}
        assert profile_archetypes("light") is LIGHT_ARCHETYPES
        for archetype in LIGHT_ARCHETYPES.values():
            assert archetype.population > 0


def _stream_record(spec, next_index, seed=None):
    """The checkpoint a killed default-settings ``ingest_stream(spec)``
    leaves; *seed* overrides the spec's, naming another stream."""
    source = {
        "kind": "stream",
        "seed": spec.seed if seed is None else seed,
        "profile": spec.profile,
        "epoch_start": spec.epoch_start,
        "dialects": ["mysql"],
        "policy": "FULL",
        "reed_limit": DEFAULT_REED_LIMIT,
        "lenient": True,
    }
    return json.dumps({"version": 1, "source": source, "next_index": next_index})


class TestResume:
    def test_stored_fingerprint_bytes_are_pinned(self, tmp_path):
        """Stored fingerprints must keep their bytes, or a re-ingest of an
        existing store re-measures every project."""
        spec = StreamSpec(seed=3, count=1)
        with CorpusStore(tmp_path / "pinned.db") as store:
            ingest_stream(store, spec)
            (fingerprint,) = store.fingerprints([project_name(spec, 0)]).values()
        assert fingerprint == (
            "e08b6d5c5f35e726087f009459a3a0359fbfb8fabc57cbdbba4a252e4f092984"
        )

    def test_checkpoint_of_a_different_stream_is_ignored(self, tmp_path):
        with CorpusStore(tmp_path / "foreign.db") as store:
            store.set_meta(
                INGEST_CHECKPOINT_KEY, _stream_record(SPEC, next_index=9, seed=999)
            )
            report = ingest_stream(store, SPEC, chunk_size=8)
            assert report.stream_resumed_at == 0
            assert report.measured == SPEC.count

    def test_old_format_checkpoint_is_ignored(self, tmp_path):
        spec = StreamSpec(seed=5, count=12)
        with CorpusStore(tmp_path / "old.db") as store:
            store.set_meta(
                INGEST_CHECKPOINT_KEY,
                json.dumps(
                    {
                        "phase": "stream",
                        "next_index": 7,
                        "seed": spec.seed,
                        "profile": spec.profile,
                        "epoch_start": spec.epoch_start,
                        "count": spec.count,
                        "dialects": ["mysql"],
                    }
                ),
            )
            report = ingest_stream(store, spec, chunk_size=4)
            assert report.resumed_from is None
            assert report.stream_resumed_at == 0
            assert report.measured == spec.count
            old_hash = store.content_hash()
        with CorpusStore(tmp_path / "clean.db") as clean:
            ingest_stream(clean, spec, chunk_size=4)
            assert clean.content_hash() == old_hash

    def test_resume_under_another_config_remeasures(self, tmp_path, monkeypatch):
        spec = StreamSpec(seed=5, count=12)
        with CorpusStore(tmp_path / "reed.db") as store:
            original = store.persist_batch
            durable = []

            def dying_persist(items, ids=None):
                if len(durable) >= 2:
                    raise RuntimeError("killed")
                durable.append(len(items))
                return original(items, ids)

            monkeypatch.setattr(store, "persist_batch", dying_persist)
            with pytest.raises(RuntimeError, match="killed"):
                ingest_stream(store, spec, chunk_size=4)
            monkeypatch.setattr(store, "persist_batch", original)
            assert store.project_count() == 8
            # The killed run measured under the default reed limit; a
            # resume under another limit must not keep its prefix ...
            resumed = ingest_stream(store, spec, chunk_size=4, reed_limit=5)
            assert resumed.stream_resumed_at == 0
            assert resumed.measured == spec.count
            # ... so the same command again has nothing left to measure.
            again = ingest_stream(store, spec, chunk_size=4, reed_limit=5)
            assert again.measured == 0


class TestOneEngine:
    def test_stream_reads_one_fingerprint_slice_per_chunk(self, tmp_path, monkeypatch):
        calls = {"get_project": 0, "fingerprints": 0}
        for method in calls:
            original = getattr(CorpusStore, method)

            def counted(self, *args, _method=method, _original=original, **kwargs):
                calls[_method] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(CorpusStore, method, counted)
        spec = StreamSpec(seed=3, count=13)
        with CorpusStore(tmp_path / "lookups.db") as store:
            ingest_stream(store, spec, chunk_size=4)
            again = ingest_stream(store, spec, chunk_size=4)
        assert again.measured == 0
        assert calls["get_project"] == 0
        assert calls["fingerprints"] <= 2 * 4  # two passes of four chunks

    def test_deprecated_executor_keyword_changes_nothing(self, tmp_path):
        spec = StreamSpec(seed=3, count=4)
        with CorpusStore(tmp_path / "plain.db") as store:
            ingest_stream(store, spec, jobs=2)
            plain = store.content_hash()
        with CorpusStore(tmp_path / "keyword.db") as store:
            for unknown in ("gpu", "thread"):
                with pytest.raises(ValueError, match="unknown executor"):
                    ingest_stream(store, spec, executor=unknown)
            with pytest.warns(DeprecationWarning, match="executor"):
                ingest_stream(store, spec, jobs=2, executor="process")
            assert store.content_hash() == plain

    def test_positional_config_is_rejected(self, tmp_path):
        from repro.mining.selection import SelectionCriteria
        from repro.vcs.history import LinearizationPolicy

        with CorpusStore(tmp_path / "positional.db") as store:
            with pytest.raises(TypeError):
                ingest_stream(store, SPEC, LinearizationPolicy.FULL)
            corpus = materialize_stream(StreamSpec(seed=3, count=2))
            with pytest.raises(TypeError):
                ingest_corpus(
                    store, corpus.activity, corpus.lib_io, corpus.provider,
                    SelectionCriteria(),
                )


class TestBoundedMemory:
    @pytest.mark.parametrize("jobs", JOBS.values(), ids=JOBS)
    def test_python_peak_tracks_chunk_size_not_count(self, tmp_path, jobs):
        def peak(count: int) -> int:
            spec = StreamSpec(seed=13, count=count)
            with CorpusStore(tmp_path / f"mem{count}.db") as store:
                tracemalloc.start()
                try:
                    ingest_stream(store, spec, chunk_size=10, jobs=jobs)
                    _, peak_bytes = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            return peak_bytes

        small, large = peak(20), peak(100)
        # A materializing ingest would scale ~5x here; the streamed path
        # holds one 10-project chunk at a time, so the peaks stay close.
        assert large < small * 2.5
