"""The cursor-pagination contract, from sqlite plan to /v1 envelope.

Three layers, each tested on both store layouts (single-file and
sharded): keyset ``query_projects``/``query_failures`` walks produce
exactly the unpaged sequence; ``EXPLAIN QUERY PLAN`` proves every /v1
filter family — taxon, outcome, metric range, cursor seek — resolves
through an index with no full scan of ``projects``; and the ``/v1``
surface speaks opaque tokens (cross-endpoint tokens 400, and an
``offset=`` answers 400 naming ``cursor`` instead of being ignored).
"""

from __future__ import annotations

import json
import urllib.request
from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.resilience import FaultInjector
from repro.serve import CorpusService, start_server
from repro.serve.cursors import (
    decode_failure_cursor,
    decode_project_cursor,
    encode_failure_cursor,
    encode_project_cursor,
)
from repro.store import (
    METRIC_COLUMNS,
    CorpusStore,
    MetricRange,
    ShardedCorpusStore,
    StoreError,
    ingest_stream,
)
from repro.synthesis.stream import StreamSpec

SPEC = StreamSpec(seed=2019, count=40, profile="light")


@pytest.fixture(scope="module", params=["single", "sharded"])
def store(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"cursor-{request.param}")
    if request.param == "single":
        built = CorpusStore(root / "corpus.db")
    else:
        built = ShardedCorpusStore(root / "corpus.db", shards=3)
    # A seeded parse-site injector leaves a deterministic failures
    # ledger behind, so the failure-cursor walk has rows to page over.
    ingest_stream(
        built,
        SPEC,
        chunk_size=16,
        injector=FaultInjector(seed=1, rate=0.2, sites=("parse",)),
    )
    assert built.failure_count() >= 2
    yield built
    built.close()


def walk_cursor(store, limit, **filters):
    """Every project id reachable by following next_cursor."""
    ids, cursor = [], None
    while True:
        page = store.query_projects(limit=limit, cursor=cursor, **filters)
        ids.extend(project.id for project in page.projects)
        if page.next_cursor is None:
            return ids
        cursor = page.next_cursor


class TestKeysetEqualsOffset:
    @pytest.mark.parametrize("limit", [1, 3, 7, 40, 100])
    def test_plain_walk(self, store, limit):
        expected = [p.id for p in store.query_projects().projects]
        assert len(expected) > 0
        assert walk_cursor(store, limit) == expected

    def test_filtered_walks(self, store):
        taxon = sorted(store.taxa_summary())[0]
        filter_families = (
            {"taxon": taxon},
            {"outcome": "studied"},
            {"ranges": (MetricRange("n_commits", minimum=1),)},
            {"ranges": (MetricRange("total_activity", minimum=1, maximum=500),)},
        )
        for filters in filter_families:
            expected = [
                p.id for p in store.query_projects(**filters).projects
            ]
            assert walk_cursor(store, 3, **filters) == expected, filters

    def test_exhausted_walk_has_no_next_cursor(self, store):
        total = store.project_count()
        page = store.query_projects(limit=total)
        assert page.next_cursor is None
        beyond = store.query_projects(cursor=max(store.project_ids()), limit=5)
        assert beyond.projects == () and beyond.next_cursor is None

    def test_cursor_validation(self, store):
        with pytest.raises(StoreError):
            store.query_projects(cursor=-1)

    def test_failures_keyset_walk(self, store):
        expected = [f.project for f in store.failures()]
        walked, cursor = [], None
        while True:
            page = store.query_failures(cursor=cursor, limit=2)
            walked.extend(f.project for f in page.failures)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert walked == expected


def _base_stores(store):
    return list(getattr(store, "_shards", [store]))


def explain(store, run):
    """EXPLAIN QUERY PLAN rows of every projects query *run* issues."""
    bases = _base_stores(store)
    captured: list[str] = []
    for base in bases:
        base._connection().set_trace_callback(captured.append)
    try:
        run()
    finally:
        for base in bases:
            base._connection().set_trace_callback(None)
    statements = {
        sql for sql in captured if "FROM projects" in sql and "COUNT" not in sql
    }
    assert statements, "the call under test never queried projects"
    plans = []
    with _base_stores(store)[0]._read_tx() as conn:
        for sql in statements:
            params = [1] * sql.count("?")
            plans.extend(
                row["detail"]
                for row in conn.execute("EXPLAIN QUERY PLAN " + sql, params)
            )
    return plans


class TestIndexCoverage:
    def test_every_filter_family_is_index_backed(self, store):
        taxon = sorted(store.taxa_summary())[0]
        families = {
            "taxon": lambda: store.query_projects(taxon=taxon, limit=5),
            "outcome": lambda: store.query_projects(outcome="studied", limit=5),
            "metric_min": lambda: store.query_projects(
                ranges=(MetricRange("n_commits", minimum=2),), limit=5
            ),
            "metric_range": lambda: store.query_projects(
                ranges=(MetricRange("total_activity", minimum=1, maximum=9),),
                limit=5,
            ),
            "cursor_seek": lambda: store.query_projects(cursor=3, limit=5),
        }
        for family, call in families.items():
            for detail in explain(store, call):
                assert not detail.startswith("SCAN projects"), (family, detail)

    def test_analyze_populates_planner_statistics(self, store):
        for base in _base_stores(store):
            with base._read_tx() as conn:
                rows = conn.execute("SELECT tbl FROM sqlite_stat1").fetchall()
            assert any(row["tbl"] == "projects" for row in rows)


class TestMetricFilters:
    def test_every_metric_filters_without_tripping_the_breaker(
        self, store, monkeypatch
    ):
        """``min_``/``max_`` answer on every metric column, indexed or
        not, with the total of a plain (unhinted) count."""
        server, thread = start_server(store, port=0)
        failures: list[str] = []
        record_failure = server.breaker.record_failure

        def counted() -> None:
            failures.append("failure")
            record_failure()

        monkeypatch.setattr(server.breaker, "record_failure", counted)
        try:
            for metric in METRIC_COLUMNS:
                values = sorted(
                    row[0]
                    for base in _base_stores(store)
                    for row in base._connection().execute(
                        f"SELECT {metric} FROM projects WHERE {metric} IS NOT NULL"
                    )
                )
                median = values[len(values) // 2]
                for bound, op in (("min", ">="), ("max", "<=")):
                    expected = sum(
                        base._connection().execute(
                            f"SELECT COUNT(*) FROM projects WHERE {metric} {op} ?",
                            (median,),
                        ).fetchone()[0]
                        for base in _base_stores(store)
                    )
                    target = f"/v1/projects?{bound}_{metric}={median}&limit=5"
                    with urllib.request.urlopen(server.url + target, timeout=10) as resp:
                        assert resp.status == 200, target
                        assert json.loads(resp.read())["total"] == expected, target
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert failures == []


class TestCursorTokens:
    def test_round_trip(self):
        assert decode_project_cursor(encode_project_cursor(42)) == 42
        assert decode_failure_cursor(encode_failure_cursor("a/b")) == "a/b"

    def test_cross_endpoint_tokens_are_rejected(self):
        with pytest.raises(StoreError):
            decode_project_cursor(encode_failure_cursor("a/b"))
        with pytest.raises(StoreError):
            decode_failure_cursor(encode_project_cursor(7))

    def test_garbage_tokens_are_rejected(self):
        for bad in ("", "!!!not-base64!!!", encode_project_cursor(1)[:-2] + "$$"):
            with pytest.raises(StoreError):
                decode_project_cursor(bad)


def get(service, target):
    """Route a path?query string the way the HTTP layer would."""
    split = urlsplit(target)
    return service.handle(split.path, dict(parse_qsl(split.query)))


class TestServeCursors:
    @pytest.fixture()
    def service(self, store):
        return CorpusService(store)

    def test_cursor_walk_matches_offset_walk(self, service, store):
        expected = [p.id for p in store.query_projects().projects]
        # The entry page has no cursor param; every later page follows
        # the cursor links the server minted.
        response = get(service, "/v1/projects?limit=7")
        assert response.status == 200
        walked = [p["id"] for p in response.payload["projects"]]
        token = response.payload["next_cursor"]
        while token is not None:
            response = service.handle(
                "/v1/projects", {"cursor": token, "limit": "7"}
            )
            assert response.status == 200
            walked.extend(p["id"] for p in response.payload["projects"])
            if response.payload["next_cursor"] is not None:
                assert "cursor=" in response.payload["next"]
            else:
                assert response.payload["next"] is None
            token = response.payload["next_cursor"]
        assert walked == expected

    def test_next_cursor_is_an_opaque_resumable_token(self, service, store):
        first = get(service, "/v1/projects?limit=4")
        token = first.payload["next_cursor"]
        assert decode_project_cursor(token) == first.payload["projects"][-1]["id"]
        resumed = service.handle("/v1/projects", {"cursor": token, "limit": "4"})
        assert [p["id"] for p in resumed.payload["projects"]] == (
            store.project_ids()[4:8]
        )

    def test_bad_cursors_400(self, service):
        assert service.handle("/v1/projects", {"cursor": "garbage!"}).status == 400
        crossed = encode_failure_cursor("a/b")
        assert service.handle("/v1/projects", {"cursor": crossed}).status == 400
        projects_token = encode_project_cursor(1)
        assert (
            service.handle("/v1/failures", {"cursor": projects_token}).status
            == 400
        )

    def test_cursor_is_v1_only(self, service):
        # Only /v1 pages by cursor; the unversioned path is no route at all.
        token = encode_project_cursor(1)
        assert service.handle("/v1/projects", {"cursor": token}).status == 200
        response = service.handle("/projects", {"cursor": token})
        assert response.status == 404
        assert response.payload["error"]["code"] == "not_found"

    def test_offset_is_refused_naming_the_cursor(self, service):
        # Ignoring offset= would hand an offset walker page 1 forever.
        token = encode_project_cursor(1)
        for path, params in (
            ("/v1/projects", {"offset": "2", "limit": "5"}),
            ("/v1/projects", {"offset": "0"}),
            ("/v1/projects", {"cursor": token, "offset": "3"}),
            ("/v1/failures", {"offset": "2", "limit": "5"}),
        ):
            response = service.handle(path, params)
            assert response.status == 400, (path, params)
            assert response.payload["error"]["code"] == "bad_request"
            assert "cursor" in response.payload["error"]["message"]

    def test_cursor_pagination_is_not_deprecated(self, service):
        first = get(service, "/v1/projects?limit=4")
        token = first.payload["next_cursor"]
        response = service.handle("/v1/projects", {"cursor": token, "limit": "4"})
        assert response.status == 200
        assert "Deprecation" not in dict(response.headers)

    def test_failures_cursor_walk(self, service, store):
        expected = [f.project for f in store.failures()]
        walked, cursor = [], None
        while True:
            params = {"limit": "2"}
            if cursor is not None:
                params["cursor"] = cursor
            response = service.handle("/v1/failures", params)
            assert response.status == 200
            walked.extend(f["project"] for f in response.payload["failures"])
            cursor = response.payload["next_cursor"]
            if cursor is None:
                break
        assert walked == expected
