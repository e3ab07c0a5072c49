"""Consecutive versions share tables through one schema cache.

An unchanged ``CREATE TABLE`` is one :class:`Table` in every version a
:class:`SchemaCache` builds, the cache joins a schema's key from
per-table parts, and ``diff_schemas`` skips a table both versions share.
None of it may change a schema, a key or a diff.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.diff import diff_schemas
from repro.pipeline import SchemaCache
from repro.pipeline.cache import schema_key
from repro.pipeline.stages import usable_versions
from repro.schema import Schema, SchemaBuildError, Table, apply_statements, build_schema
from repro.sqlddl.parser import parse_whole_script
from repro.synthesis import CorpusSpec, build_corpus
from repro.synthesis.stream import StreamSpec, synthesize_project
from repro.vcs.history import extract_file_history

REFERENCE = CorpusSpec(seed=2019, scale=0.05)
REFERENCE_PROJECT = "dharma/smart-portal"  # 18 versions, 68 tables at the last
ONE_TABLE = "CREATE TABLE t (id INT NOT NULL, name VARCHAR(40), PRIMARY KEY (id));"

#: ``schema_key`` hashes a schema's canonical form, and the cache joins
#: the same bytes from per-table parts; the pin catches a change to the
#: canonical form that both would follow unnoticed.
PINNED_KEYS = {
    "empty": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    "one table": "bc4ebe10b49495950a1bc65897b5c21bf55129c82ed6a7ef95ed543707422601",
    "reference": "82bb42253c6a0605c4d782be1549a841ecfebf91ba6bc65d33980c8d7668621f",
}


def history_texts(repo, path) -> list[str]:
    return [version.text for version in usable_versions(extract_file_history(repo, path))]


@pytest.fixture(scope="module")
def reference():
    corpus = build_corpus(REFERENCE)
    return {
        name: history_texts(repo, corpus.ddl_paths[name])
        for name, repo in sorted(corpus.repos.items())
        if repo is not None and corpus.ddl_paths.get(name) is not None
    }


@pytest.fixture(scope="module")
def histories(reference):
    """Every history of the reference corpus and of a mixed-dialect stream."""
    found = [(texts, "mysql") for texts in reference.values()]
    stream = StreamSpec(seed=7, count=30, dialects=("mysql", "postgresql", "sqlite"))
    for index in range(stream.count):
        project = synthesize_project(stream, index)
        found.append((history_texts(project.repo, project.ddl_path), project.dialect))
    assert {dialect for _, dialect in found} == {"mysql", "postgresql", "sqlite"}
    return found


def copied(schema: Schema) -> Schema:
    """*schema* with every table a fresh object."""
    return Schema(tuple(Table(t.name, t.attributes, t.primary_key) for t in schema.tables))


def test_schema_key_bytes_are_pinned(reference):
    keys = {
        "empty": schema_key(Schema()),
        "one table": schema_key(build_schema(ONE_TABLE)),
        "reference": schema_key(build_schema(reference[REFERENCE_PROJECT][-1])),
    }
    assert keys == PINNED_KEYS


def test_cache_keys_equal_schema_key(histories):
    """The cache keys each diff by its two schemas' :func:`schema_key`,
    built or foreign, though it joins a key from per-table parts."""
    cache = SchemaCache()
    pairs = [(Schema(), build_schema(ONE_TABLE))]
    for texts, dialect in histories:
        schemas = [cache.schema_for(text, dialect=dialect) for text in texts]
        pairs += zip(schemas, schemas[1:])
    for old, new in pairs:
        cache.diff_for(old, new)
    assert set(cache._diffs) == {(schema_key(old), schema_key(new)) for old, new in pairs}


def test_an_unchanged_create_table_is_one_table_in_every_version():
    base = "CREATE TABLE t (a INT);\nCREATE TABLE u (b INT);\n"
    texts = [base, base + "ALTER TABLE t ADD COLUMN c INT;\n", base + "CREATE TABLE w (d INT);\n"]
    cache = SchemaCache()
    first, altered, third = [cache.schema_for(text) for text in texts]
    assert altered.table("u") is first.table("u") and third.table("u") is first.table("u")
    assert third.table("t") is first.table("t")
    # The ALTER edited a copy; the shared table is untouched.
    assert altered.table("t") is not first.table("t")
    assert altered.table("t").attribute_names == ("a", "c")
    assert first.table("t").attribute_names == third.table("t").attribute_names == ("a",)
    assert [first, altered, third] == [build_schema(text) for text in texts]


def test_a_strict_duplicate_column_error_is_not_cached():
    statements = parse_whole_script("CREATE TABLE w (a INT, a INT);")
    memo = {}
    for _ in range(2):
        with pytest.raises(SchemaBuildError, match="duplicate column"):
            apply_statements(Schema(), statements, lenient=False, table_memo=memo)
        assert memo == {}
    lenient = apply_statements(Schema(), statements, table_memo=memo)
    assert lenient.table("w").attribute_names == ("a",) and len(memo) == 1
    with pytest.raises(SchemaBuildError, match="duplicate column"):
        apply_statements(Schema(), statements, lenient=False, table_memo=memo)

    cache = SchemaCache()
    for _ in range(2):
        with pytest.raises(SchemaBuildError, match="duplicate column"):
            cache.schema_for("CREATE TABLE w (a INT, a INT);", lenient=False)


def test_diffs_of_shared_tables_equal_diffs_of_copies(histories):
    cache = SchemaCache()
    shared = 0
    for texts, dialect in histories:
        schemas = [cache.schema_for(text, dialect=dialect) for text in texts]
        for old, new in zip(schemas, schemas[1:]):
            shared += len({id(t) for t in old.tables} & {id(t) for t in new.tables})
            expected = diff_schemas(copied(old), copied(new))
            assert diff_schemas(old, new) == expected
            assert cache.diff_for(old, new) == expected
        assert schemas == [build_schema(text, dialect=dialect) for text in texts]
    assert shared  # the versions did share tables


def test_threads_sharing_one_cache_get_the_serial_schemas_and_diffs(histories):
    """The memos take plain dict reads and writes: a lost update only
    repeats work.  More threads than cores, switching often."""
    expected = []
    for texts, dialect in histories:
        schemas = [build_schema(text, dialect=dialect) for text in texts]
        expected.append((schemas, [diff_schemas(a, b) for a, b in zip(schemas, schemas[1:])]))
    cache = SchemaCache()
    results: dict[int, list] = {}

    def work(worker: int) -> None:
        order = list(range(len(histories)))
        if worker % 2:
            order.reverse()  # half the threads meet the others midway
        got = {}
        for index in order:
            texts, dialect = histories[index]
            schemas = [cache.schema_for(text, dialect=dialect) for text in texts]
            got[index] = (schemas, [cache.diff_for(a, b) for a, b in zip(schemas, schemas[1:])])
        results[worker] = [got[index] for index in range(len(histories))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[worker] for worker in range(4)] == [expected] * 4
