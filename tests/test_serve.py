"""Endpoint smoke tests of the read-only corpus serving layer.

A real ``ThreadingHTTPServer`` on an ephemeral port over a seeded
store: pagination bounds, unknown project -> 404, ``If-None-Match`` ->
304, gzip negotiation, and ``/metrics`` counter increments — plus
socket-free unit tests of the routing service, the versioned ``/v1``
surface (error envelopes, ``next`` links, ``/v1/failures``, legacy
``Deprecation`` headers), degraded serving under store outage, and
subprocess-level SIGINT/SIGTERM graceful shutdown.
"""

from __future__ import annotations

import gzip
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.resilience import CircuitBreaker
from repro.serve import CorpusService, start_server
from repro.store import CorpusStore, ingest_corpus
from tests.test_store import SCHEMA_V0, SCHEMA_V1, repo_with_history, small_corpus


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    activity, lib_io, repos = small_corpus(with_bad_project=True)
    store = CorpusStore(tmp_path_factory.mktemp("serve") / "corpus.db")
    ingest_corpus(store, activity, lib_io, repos.get)
    yield store
    store.close()


@pytest.fixture(scope="module")
def server(seeded_store):
    server, thread = start_server(seeded_store, port=0)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def request(server, path, headers=None):
    """GET against the live server; returns (status, headers, json|None)."""
    req = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw = resp.read()
            status, resp_headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        status, resp_headers = error.code, dict(error.headers)
    if resp_headers.get("Content-Encoding") == "gzip":
        raw = gzip.decompress(raw)
    payload = json.loads(raw) if raw else None
    return status, resp_headers, payload


class TestProjects:
    def test_lists_every_ingested_project(self, server, seeded_store):
        status, _, payload = request(server, "/projects")
        assert status == 200
        assert payload["total"] == seeded_store.project_count()
        assert [p["project"] for p in payload["projects"]] == [
            p.name for p in seeded_store.query_projects().projects
        ]
        record = payload["projects"][0]
        for key in ("id", "project", "outcome", "taxon", "n_commits"):
            assert key in record

    def test_pagination_bounds(self, server):
        status, _, first = request(server, "/projects?limit=2&offset=0")
        assert status == 200 and len(first["projects"]) == 2
        status, _, rest = request(server, "/projects?limit=2&offset=2")
        assert status == 200
        assert not {p["id"] for p in first["projects"]} & {
            p["id"] for p in rest["projects"]
        }
        status, _, beyond = request(server, "/projects?offset=999")
        assert status == 200 and beyond["projects"] == []
        assert beyond["total"] == first["total"]
        status, _, error = request(server, "/projects?limit=0")
        assert status == 400 and "limit" in error["error"]
        status, _, error = request(server, "/projects?limit=501")
        assert status == 400
        status, _, error = request(server, "/projects?offset=nope")
        assert status == 400

    def test_taxon_and_metric_filters(self, server):
        status, _, payload = request(server, "/projects?taxon=history-less")
        assert status == 200
        assert [p["project"] for p in payload["projects"]] == ["ok/rigid"]
        status, _, payload = request(server, "/projects?min_n_commits=3")
        assert status == 200
        assert [p["project"] for p in payload["projects"]] == ["ok/beta"]
        status, _, error = request(server, "/projects?min_bogus=1")
        assert status == 400 and "min_bogus" in error["error"]
        status, _, error = request(server, "/projects?taxon=bogus")
        assert status == 400

    def test_project_detail_carries_the_version_ledger(self, server):
        status, _, payload = request(server, "/projects/ok%2Fbeta")
        assert status == 200
        assert payload["project"] == "ok/beta"
        assert [v["ordinal"] for v in payload["versions"]] == [0, 1, 2]
        # Numeric ids resolve to the same record.
        status2, _, by_id = request(server, f"/projects/{payload['id']}")
        assert status2 == 200 and by_id["project"] == "ok/beta"


class TestHeartbeat:
    def test_heartbeat_rows(self, server):
        status, _, payload = request(server, "/projects/ok%2Fbeta/heartbeat")
        assert status == 200
        assert payload["project"] == "ok/beta"
        assert payload["transitions"] == 2
        assert [row["transition_id"] for row in payload["heartbeat"]] == [1, 2]

    def test_unknown_project_is_404(self, server):
        status, _, payload = request(server, "/projects/999/heartbeat")
        assert status == 404 and "unknown project" in payload["error"]
        status, _, _ = request(server, "/projects/no%2Fsuch/heartbeat")
        assert status == 404

    def test_unknown_route_is_404(self, server):
        status, _, _ = request(server, "/nothing/here")
        assert status == 404


class TestCaching:
    def test_if_none_match_revalidates_to_304(self, server):
        status, headers, _ = request(server, "/taxa")
        assert status == 200
        etag = headers["ETag"]
        status, headers2, payload = request(
            server, "/taxa", {"If-None-Match": etag}
        )
        assert status == 304
        assert payload is None
        assert headers2["ETag"] == etag

    def test_etag_is_per_request_and_deterministic(self, server):
        _, first, _ = request(server, "/projects?limit=2")
        _, again, _ = request(server, "/projects?limit=2")
        _, other, _ = request(server, "/projects?limit=3")
        assert first["ETag"] == again["ETag"]
        assert first["ETag"] != other["ETag"]

    def test_mismatched_etag_returns_fresh_body(self, server):
        status, _, payload = request(server, "/stats", {"If-None-Match": '"stale"'})
        assert status == 200 and payload is not None

    def test_gzip_negotiation(self, server):
        req = urllib.request.Request(
            server.url + "/projects", headers={"Accept-Encoding": "gzip"}
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers.get("Content-Encoding") == "gzip"
            body = gzip.decompress(resp.read())
        assert json.loads(body)["total"] > 0
        # Without the header the body comes back identity-encoded.
        status, headers, _ = request(server, "/projects")
        assert status == 200 and "Content-Encoding" not in headers


class TestStatsAndTaxa:
    def test_stats_schema(self, server, seeded_store):
        status, _, payload = request(server, "/stats")
        assert status == 200
        assert payload["content_hash"] == seeded_store.content_hash()
        assert payload["cloned_usable"] == 3
        assert payload["funnel"]["lib_io_projects"] == seeded_store.project_count()

    def test_taxa_schema(self, server):
        status, _, payload = request(server, "/taxa")
        assert status == 200
        taxa = payload["taxa"]
        assert set(taxa) >= {"frozen", "active", "almost frozen"}
        for entry in taxa.values():
            assert set(entry) == {"count", "share_of_studied"}


class TestMetrics:
    def test_counters_increment(self, server):
        _, _, before = request(server, "/metrics")
        request(server, "/taxa")
        request(server, "/taxa")
        request(server, "/projects/999/heartbeat")
        _, _, after = request(server, "/metrics")
        assert after["total_requests"] >= before["total_requests"] + 3
        taxa_before = before["endpoints"].get("/taxa", {"requests": 0})["requests"]
        taxa_after = after["endpoints"]["/taxa"]["requests"]
        assert taxa_after >= taxa_before + 2
        heartbeat = after["endpoints"]["/projects/{id}/heartbeat"]
        assert heartbeat["by_status"].get("404", 0) >= 1
        assert heartbeat["latency_ms"]["max"] >= heartbeat["latency_ms"]["min"] >= 0

    def test_json_payload_carries_the_registry_snapshot(self, server):
        request(server, "/taxa")
        _, _, payload = request(server, "/metrics")
        assert set(payload["registry"]) == {"counters", "gauges", "histograms"}
        counters = payload["registry"]["counters"]
        assert counters['repro_http_requests_total{endpoint="/taxa",status="200"}'] >= 1

    def test_prometheus_exposition_under_content_negotiation(self, server):
        from tests.test_obs import assert_prometheus_parses

        request(server, "/taxa")
        req = urllib.request.Request(
            server.url + "/metrics", headers={"Accept": "text/plain; version=0.0.4"}
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            text = resp.read().decode("utf-8")
        samples = assert_prometheus_parses(text)
        assert any(
            line.startswith('repro_http_requests_total{endpoint="/taxa"')
            for line in samples
        )
        assert any(
            line.startswith("repro_http_request_seconds_bucket") for line in samples
        )

    def test_requests_are_traced_as_spans(self, server):
        import time

        from repro.obs import recording

        with recording() as recorder:
            request(server, "/taxa")
            # The handler thread closes its span just after the client
            # has the body; give it a beat to land in the recorder.
            for _ in range(200):
                if recorder.count("http.request"):
                    break
                time.sleep(0.01)
        spans = recorder.spans("http.request")
        assert spans and spans[0].attrs["endpoint"] == "/taxa"
        assert spans[0].attrs["status"] == 200


class TestServiceWithoutSockets:
    def test_routes_directly(self, seeded_store):
        service = CorpusService(seeded_store)
        ok = service.handle("/projects", {"limit": "2"})
        assert ok.status == 200 and len(ok.payload["projects"]) == 2
        missing = service.handle("/projects/does-not-exist", {})
        assert missing.status == 404
        bad = service.handle("/projects", {"limit": "-3"})
        assert bad.status == 400
        taxa = service.handle("/taxa", {})
        assert taxa.status == 200 and taxa.cacheable


class TestV1Api:
    def test_v1_routes_answer_the_legacy_payloads(self, server):
        for path in ("/projects", "/taxa", "/stats", "/projects/ok%2Fbeta"):
            legacy_status, _, legacy = request(server, path)
            v1_status, _, v1 = request(server, "/v1" + path)
            assert (legacy_status, v1_status) == (200, 200)
            legacy.pop("next", None), v1.pop("next", None)
            v1.pop("next_cursor", None)
            v1.pop("api", None)  # the API metadata block is v1-only
            assert legacy == v1

    def test_v1_error_envelope(self, server):
        status, _, payload = request(server, "/v1/projects?limit=0")
        assert status == 400
        error = payload["error"]
        assert error["code"] == "bad_request"
        assert "limit" in error["message"]
        assert set(error) == {"code", "message", "detail"}
        status, _, payload = request(server, "/v1/projects?offset=-1")
        assert status == 400 and payload["error"]["code"] == "bad_request"
        overflow = str(2**54)
        status, _, payload = request(server, f"/v1/projects?offset={overflow}")
        assert status == 400 and "offset" in payload["error"]["message"]
        status, _, payload = request(server, "/v1/nothing/here")
        assert status == 404 and payload["error"]["code"] == "not_found"

    def test_v1_pagination_carries_next_and_total(self, server, seeded_store):
        status, _, page = request(server, "/v1/projects?limit=2")
        assert status == 200
        assert page["total"] == seeded_store.project_count()
        assert page["next"] == "/v1/projects?limit=2&offset=2"
        seen = {p["id"] for p in page["projects"]}
        while page["next"] is not None:
            status, _, page = request(server, page["next"])
            assert status == 200
            ids = {p["id"] for p in page["projects"]}
            assert not ids & seen  # pages never overlap
            seen |= ids
        assert len(seen) == page["total"]

    def test_next_link_preserves_filters(self, server):
        status, _, page = request(server, "/v1/projects?limit=1&outcome=studied")
        assert status == 200
        if page["next"] is not None:
            assert "outcome=studied" in page["next"]

    def test_v1_failures_ledger_carries_attempts(self, server, seeded_store):
        status, _, payload = request(server, "/v1/failures")
        assert status == 200
        assert payload["total"] == seeded_store.failure_count() >= 1
        assert payload["next"] is None
        for failure in payload["failures"]:
            assert set(failure) == {
                "project", "stage", "error", "message", "attempts"
            }
            assert failure["attempts"] >= 1
        # The failures ledger is v1-only: the legacy path 404s.
        status, _, _ = request(server, "/failures")
        assert status == 404

    def test_legacy_routes_carry_deprecation_headers(self, server):
        status, headers, _ = request(server, "/projects")
        assert status == 200
        assert headers["Deprecation"] == "true"
        assert "</v1/projects>" in headers["Link"]
        assert 'rel="successor-version"' in headers["Link"]
        status, headers, _ = request(server, "/metrics")
        assert status == 200 and headers["Deprecation"] == "true"

    def test_v1_routes_do_not_carry_deprecation_headers(self, server):
        for path in ("/v1/projects", "/v1/taxa", "/v1/metrics"):
            status, headers, _ = request(server, path)
            assert status == 200
            assert "Deprecation" not in headers

    def test_v1_etag_revalidation(self, server):
        status, headers, _ = request(server, "/v1/taxa")
        assert status == 200
        etag = headers["ETag"]
        status, headers2, payload = request(
            server, "/v1/taxa", {"If-None-Match": etag}
        )
        assert status == 304 and payload is None
        assert headers2["ETag"] == etag
        # v1 and legacy cache entries are distinct requests.
        _, legacy_headers, _ = request(server, "/taxa")
        assert legacy_headers["ETag"] != etag

    def test_v1_metrics_payload(self, server):
        request(server, "/v1/taxa")
        status, _, payload = request(server, "/v1/metrics")
        assert status == 200
        assert set(payload["registry"]) == {"counters", "gauges", "histograms"}
        assert any(
            key.startswith('repro_http_requests_total{endpoint="/v1/taxa"')
            for key in payload["registry"]["counters"]
        )


@pytest.fixture
def fragile_server(seeded_store):
    """A function-scoped server with a hair-trigger breaker, so outage
    tests cannot leak open-circuit state into the shared module server."""
    breaker = CircuitBreaker(name="store", failure_threshold=1, reset_timeout=0.4)
    server, thread = start_server(
        seeded_store, port=0, request_timeout=0.5, breaker=breaker
    )
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _break_service(server, exc=None):
    """Make every store-touching route raise (default) or hang.

    Patches ``handle_rendered`` — the guarded entry point — so the
    outage hits before the response cache can answer, exactly like a
    real store failure (whose content-hash read raises first).
    """
    def broken(path, canonical_query, params, **kwargs):
        raise exc if exc is not None else RuntimeError("store exploded")

    server.service.handle_rendered = broken


def _heal_service(server):
    del server.service.handle_rendered


class TestDegradedServing:
    def test_store_outage_serves_the_last_snapshot(self, fragile_server):
        status, headers, warm = request(fragile_server, "/v1/taxa")
        assert status == 200
        etag = headers["ETag"]

        _break_service(fragile_server)
        status, headers, stale = request(fragile_server, "/v1/taxa")
        assert status == 200
        assert stale == warm  # byte-for-byte the ETag-consistent snapshot
        assert headers["ETag"] == etag
        assert headers["Warning"].startswith("110 repro-serve")
        assert int(headers["Retry-After"]) >= 1

    def test_uncached_route_gets_an_honest_503(self, fragile_server):
        _break_service(fragile_server)
        status, headers, payload = request(fragile_server, "/v1/stats")
        assert status == 503
        assert payload["error"]["code"] == "store_unavailable"
        assert payload["error"]["detail"] is not None
        assert int(headers["Retry-After"]) >= 1
        # Legacy routes degrade with the legacy error shape.
        status, headers, payload = request(fragile_server, "/stats")
        assert status == 503 and isinstance(payload["error"], str)

    def test_breaker_closes_again_once_the_store_recovers(self, fragile_server):
        request(fragile_server, "/v1/taxa")
        _break_service(fragile_server)
        status, _, _ = request(fragile_server, "/v1/taxa")
        assert status == 200  # stale
        assert fragile_server.breaker.state == fragile_server.breaker.OPEN
        _heal_service(fragile_server)
        time.sleep(0.45)  # past reset_timeout: the next call is the probe
        status, headers, _ = request(fragile_server, "/v1/taxa")
        assert status == 200
        assert "Warning" not in headers
        assert fragile_server.breaker.state == fragile_server.breaker.CLOSED

    def test_hung_store_times_out_instead_of_hanging(self, fragile_server):
        def hang(path, canonical_query, params, **kwargs):
            time.sleep(30)

        fragile_server.service.handle_rendered = hang
        started = time.perf_counter()
        status, headers, payload = request(fragile_server, "/v1/stats")
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # bounded by request_timeout, not the hang
        assert status == 503
        assert "deadline" in payload["error"]["detail"]
        assert int(headers["Retry-After"]) >= 1
        _, _, metrics = request(fragile_server, "/v1/metrics")
        counters = metrics["registry"]["counters"]
        assert counters.get("repro_http_timeouts_total", 0) >= 1
        assert any(
            key.startswith("repro_http_degraded_total") for key in counters
        )


class TestGracefulShutdown:
    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_drains_and_exits_zero(self, tmp_path, signame):
        import os
        import signal as signal_module
        import socket
        import subprocess
        import sys
        from pathlib import Path

        import repro

        activity, lib_io, repos = small_corpus()
        db = tmp_path / "corpus.db"
        with CorpusStore(db) as store:
            ingest_corpus(store, activity, lib_io, repos.get)

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--db", str(db), "--port", str(port), "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            url = f"http://127.0.0.1:{port}/v1/stats"
            deadline = time.perf_counter() + 20
            while True:
                try:
                    with urllib.request.urlopen(url, timeout=2) as resp:
                        assert resp.status == 200
                    break
                except OSError:
                    if time.perf_counter() > deadline:
                        raise AssertionError("server never came up")
                    time.sleep(0.1)
            proc.send_signal(getattr(signal_module, signame))
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.fixture
def cache_server(seeded_store):
    """A function-scoped server with fresh cache counters per test."""
    server, thread = start_server(seeded_store, port=0)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _counter(server, name, **labels):
    return server.metrics.registry.value(name, **labels)


class TestResponseCache:
    def test_repeat_v1_request_hits_the_cache_and_skips_the_render(
        self, cache_server
    ):
        status, _, first = request(cache_server, "/v1/taxa")
        assert status == 200
        assert _counter(cache_server, "repro_serve_cache_misses_total") == 1
        renders = _counter(
            cache_server, "repro_serve_renders_total", endpoint="/v1/taxa"
        )
        assert renders == 1
        status, _, second = request(cache_server, "/v1/taxa")
        assert status == 200 and second == first
        assert _counter(cache_server, "repro_serve_cache_hits_total") == 1
        assert _counter(
            cache_server, "repro_serve_renders_total", endpoint="/v1/taxa"
        ) == renders  # served from cache: no second render

    def test_304_revalidation_does_not_re_render_a_cached_entry(self, cache_server):
        status, headers, _ = request(cache_server, "/v1/projects?limit=3")
        assert status == 200
        etag = headers["ETag"]
        renders = _counter(
            cache_server, "repro_serve_renders_total", endpoint="/v1/projects"
        )
        for _ in range(3):
            status, headers2, payload = request(
                cache_server, "/v1/projects?limit=3", {"If-None-Match": etag}
            )
            assert status == 304 and payload is None
            assert headers2["ETag"] == etag
        assert _counter(
            cache_server, "repro_serve_renders_total", endpoint="/v1/projects"
        ) == renders
        assert _counter(cache_server, "repro_serve_cache_hits_total") == 3

    def test_legacy_routes_bypass_the_cache(self, cache_server):
        request(cache_server, "/taxa")
        request(cache_server, "/taxa")
        assert _counter(cache_server, "repro_serve_cache_hits_total") == 0
        assert _counter(cache_server, "repro_serve_cache_misses_total") == 0
        # Every legacy request re-renders.
        assert _counter(
            cache_server, "repro_serve_renders_total", endpoint="/taxa"
        ) == 2

    def test_errors_are_not_cached(self, cache_server):
        for _ in range(2):
            status, _, _ = request(cache_server, "/v1/projects/999999")
            assert status == 404
        assert _counter(cache_server, "repro_serve_cache_hits_total") == 0
        assert _counter(cache_server, "repro_serve_cache_misses_total") == 2

    def test_counters_are_exposed_via_the_metrics_endpoint(self, cache_server):
        request(cache_server, "/v1/taxa")
        request(cache_server, "/v1/taxa")
        _, _, payload = request(cache_server, "/v1/metrics")
        counters = payload["registry"]["counters"]
        assert counters["repro_serve_cache_hits_total"] == 1
        assert counters["repro_serve_cache_misses_total"] == 1
        assert payload["registry"]["gauges"]["repro_serve_cache_entries"] >= 1

    def test_ingest_invalidates_via_the_content_hash(self, tmp_path):
        activity, lib_io, repos = small_corpus()
        store = CorpusStore(tmp_path / "cache.db")
        ingest_corpus(store, activity, lib_io, repos.get)
        server, thread = start_server(store, port=0)
        try:
            status, headers, before = request(server, "/v1/projects")
            assert status == 200
            etag = headers["ETag"]
            # Grow the corpus: the content hash moves, the entry is stale.
            activity2, lib_io2, repos2 = small_corpus(
                extra_repos={
                    "new/arrival": repo_with_history(
                        "new/arrival", [SCHEMA_V0, SCHEMA_V1]
                    )
                }
            )
            ingest_corpus(store, activity2, lib_io2, repos2.get)
            status, headers, after = request(server, "/v1/projects")
            assert status == 200
            assert headers["ETag"] != etag
            assert after["total"] == before["total"] + 1
            assert _counter(server, "repro_serve_cache_evictions_total") >= 1
            # And the old validator no longer revalidates.
            status, _, _ = request(
                server, "/v1/projects", {"If-None-Match": etag}
            )
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            store.close()

    def test_disabled_cache_renders_every_time(self, seeded_store):
        server, thread = start_server(seeded_store, port=0, response_cache=0)
        try:
            request(server, "/v1/taxa")
            request(server, "/v1/taxa")
            assert server.service.cache is None
            assert _counter(server, "repro_serve_cache_hits_total") == 0
            assert _counter(
                server, "repro_serve_renders_total", endpoint="/v1/taxa"
            ) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestWarmRequests:
    """Requests reuse the timeout's worker threads, so the store state a
    worker keeps (its sqlite connection and content-hash cache) and the
    server's compressed bodies serve every later request."""

    def test_sequential_gets_open_one_connection_and_hash_once(
        self, tmp_path, monkeypatch, fresh_worker_pool
    ):
        from repro.store import store as store_mod

        activity, lib_io, repos = small_corpus()
        store = CorpusStore(tmp_path / "warm.db")
        ingest_corpus(store, activity, lib_io, repos.get)
        opened, rescans = [], []
        connect = store_mod.sqlite3.connect
        compute = store_mod.compute_content_hash

        def counted_connect(*args, **kwargs):
            opened.append(args)
            return connect(*args, **kwargs)

        def counted_compute(*args, **kwargs):
            rescans.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(store_mod.sqlite3, "connect", counted_connect)
        monkeypatch.setattr(store_mod, "compute_content_hash", counted_compute)
        server, thread = start_server(store, port=0)
        paths = ("/v1/projects", "/v1/taxa", "/v1/stats", "/v1/failures",
                 "/v1/projects?limit=1")
        try:
            for index in range(50):
                status, _, _ = request(server, paths[index % len(paths)])
                assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            store.close()
        assert len(opened) <= 1
        assert len(rescans) <= 1

    def test_a_cached_body_is_compressed_once(self, seeded_store, monkeypatch):
        compress = gzip.compress
        bodies: list[bytes] = []

        def counted(data, *args, **kwargs):
            bodies.append(data)
            return compress(data, *args, **kwargs)

        monkeypatch.setattr(gzip, "compress", counted)
        server, thread = start_server(seeded_store, port=0)
        replies = set()
        try:
            for _ in range(5):
                req = urllib.request.Request(
                    server.url + "/v1/projects", headers={"Accept-Encoding": "gzip"}
                )
                with urllib.request.urlopen(req, timeout=10) as resp:
                    assert resp.headers["Content-Encoding"] == "gzip"
                    replies.add(resp.read())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert len(bodies) == 1
        assert replies == {compress(bodies[0], mtime=0)}


class TestResponseCacheUnit:
    def test_lru_eviction_and_counters(self):
        from repro.obs import MetricsRegistry
        from repro.serve import ResponseCache, ServiceResponse

        registry = MetricsRegistry()
        cache = ResponseCache(capacity=2, registry=registry)
        resp = ServiceResponse(status=200, payload={}, endpoint="/v1/x")
        cache.store(("/a", ""), "h", resp, b"{}")
        cache.store(("/b", ""), "h", resp, b"{}")
        assert cache.lookup(("/a", ""), "h") is not None  # /a now most recent
        cache.store(("/c", ""), "h", resp, b"{}")  # evicts /b
        assert cache.lookup(("/b", ""), "h") is None
        assert cache.lookup(("/a", ""), "h") is not None
        assert registry.value("repro_serve_cache_evictions_total") == 1
        assert registry.value("repro_serve_cache_entries") == 2

    def test_stale_hash_misses_and_evicts(self):
        from repro.serve import ResponseCache, ServiceResponse

        cache = ResponseCache(capacity=4)
        resp = ServiceResponse(status=200, payload={}, endpoint="/v1/x")
        cache.store(("/a", ""), "h1", resp, b"{}")
        assert cache.lookup(("/a", ""), "h2") is None
        assert len(cache) == 0
        assert cache.registry.value("repro_serve_cache_misses_total") == 1
        assert cache.registry.value("repro_serve_cache_evictions_total") == 1


def send(server, path, method="GET", body=None, headers=None, raw_body=None):
    """Any-method request; returns (status, headers, raw_bytes, json|None).

    *body* is JSON-encoded with sorted keys (the client contract the
    idempotency hash assumes); *raw_body* sends bytes verbatim for
    malformed-payload tests.
    """
    data = raw_body
    sent_headers = dict(headers or {})
    if body is not None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
    if data is not None:
        sent_headers.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        server.url + path, data=data, method=method, headers=sent_headers
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw = resp.read()
            status, resp_headers = resp.status, dict(resp.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        status, resp_headers = error.code, dict(error.headers)
    if resp_headers.get("Content-Encoding") == "gzip":
        raw = gzip.decompress(raw)
    payload = json.loads(raw) if raw else None
    return status, resp_headers, raw, payload


class TestApiSurface:
    """Satellites: OpenAPI, 405/OPTIONS, X-Api-Version — the route
    table is the single source of truth for all three."""

    def test_openapi_lists_every_registered_v1_route(self, server):
        from repro.serve import ROUTES

        status, headers, _, doc = send(server, "/v1/openapi.json")
        assert status == 200
        assert doc["openapi"].startswith("3.1")
        assert doc["info"]["x-api-version"] == 1
        for route in ROUTES:
            path = f"/v1{route.template}"
            assert path in doc["paths"], f"{path} missing from the document"
            documented = {m.upper() for m in doc["paths"][path]}
            assert documented == set(route.methods)
        assert set(doc["paths"]) == {f"/v1{r.template}" for r in ROUTES}
        assert "Error" in doc["components"]["schemas"]

    def test_unsupported_method_on_known_path_is_405_with_allow(self, server):
        status, headers, _, payload = send(server, "/v1/taxa", method="POST",
                                           body={})
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert headers["Allow"] == "GET, HEAD, OPTIONS"
        status, headers, _, payload = send(
            server, "/v1/projects", method="DELETE"
        )
        assert status == 405 and "GET" in headers["Allow"]

    def test_options_is_204_with_allow(self, server):
        status, headers, raw, _ = send(server, "/v1/stats", method="OPTIONS")
        assert status == 204 and raw == b""
        assert headers["Allow"] == "GET, HEAD, OPTIONS"
        status, headers, _, _ = send(
            server, "/v1/projects/1/advise", method="OPTIONS"
        )
        assert status == 204
        assert headers["Allow"] == "GET, HEAD, OPTIONS, POST"

    def test_every_v1_response_carries_the_api_version(self, server):
        for path, method in (
            ("/v1/stats", "GET"),
            ("/v1/projects/999999", "GET"),      # 404 envelope
            ("/v1/taxa", "OPTIONS"),             # 204, no body at all
            ("/v1/openapi.json", "GET"),
            ("/v1/metrics", "GET"),
        ):
            _, headers, _, _ = send(server, path, method=method)
            assert headers.get("X-Api-Version") == "1", (path, method)
        # The legacy surface predates versioning and must not grow it.
        _, headers, _, _ = send(server, "/stats")
        assert "X-Api-Version" not in headers

    def test_stats_reports_the_api_block(self, server):
        from repro.serve import ROUTES

        _, _, _, payload = send(server, "/v1/stats")
        assert payload["api"] == {"version": 1, "routes": len(ROUTES)}


@pytest.fixture
def write_server(tmp_path):
    """A function-scoped server over its own store, so advice-row
    counts are absolute and POSTs cannot leak between tests."""
    activity, lib_io, repos = small_corpus()
    store = CorpusStore(tmp_path / "write.db")
    ingest_corpus(store, activity, lib_io, repos.get)
    server, thread = start_server(store, port=0)
    yield server, store
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    store.close()


PROPOSAL = {
    "ddl": (
        "CREATE TABLE `a` (\n  `x` INT,\n  `y` INT\n);\n"
        "CREATE TABLE probe (id INT, note VARCHAR(64));\n"
    )
}


class TestWritePath:
    def test_advise_response_shape(self, write_server):
        server, store = write_server
        status, headers, _, payload = send(
            server, "/v1/projects/ok%2Falpha/advise", method="POST",
            body=PROPOSAL, headers={"Idempotency-Key": "shape-1"},
        )
        assert status == 200
        assert headers["Idempotency-Key"] == "shape-1"
        assert "Idempotency-Replayed" not in headers
        assert payload["advice_id"] == 1
        assert payload["project"] == "ok/alpha"
        assert payload["taxon"] == "almost frozen"
        migration = payload["migration"]
        assert migration["to_version"] == migration["from_version"] + 1
        assert "CREATE TABLE" in migration["up"]
        assert "DROP TABLE" in migration["down"]
        assert any(f["code"] == "frozen_wakeup" for f in payload["findings"])
        assert payload["atypical"] is True

    def test_replay_is_byte_identical_with_exactly_one_row(self, write_server):
        server, store = write_server
        kwargs = dict(method="POST", body=PROPOSAL,
                      headers={"Idempotency-Key": "replay-1"})
        status1, h1, raw1, _ = send(
            server, "/v1/projects/ok%2Falpha/advise", **kwargs
        )
        status2, h2, raw2, _ = send(
            server, "/v1/projects/ok%2Falpha/advise", **kwargs
        )
        assert (status1, status2) == (200, 200)
        assert raw2 == raw1  # byte-identical, straight from the ledger
        assert "Idempotency-Replayed" not in h1
        assert h2["Idempotency-Replayed"] == "true"
        assert store.advice_count() == 1

    def test_key_reuse_with_a_different_body_is_409(self, write_server):
        server, store = write_server
        path = "/v1/projects/ok%2Falpha/advise"
        headers = {"Idempotency-Key": "conflict-1"}
        send(server, path, method="POST", body=PROPOSAL, headers=headers)
        status, _, _, payload = send(
            server, path, method="POST",
            body={"ddl": "CREATE TABLE other (id INT);"}, headers=headers,
        )
        assert status == 409
        assert payload["error"]["code"] == "idempotency_conflict"
        assert store.advice_count() == 1

    def test_missing_key_is_derived_from_the_body(self, write_server):
        server, store = write_server
        path = "/v1/projects/ok%2Falpha/advise"
        status, h1, raw1, _ = send(server, path, method="POST", body=PROPOSAL)
        assert status == 200 and h1["Idempotency-Key"].startswith("sha256:")
        _, h2, raw2, _ = send(server, path, method="POST", body=PROPOSAL)
        assert raw2 == raw1 and h2["Idempotency-Replayed"] == "true"
        assert store.advice_count() == 1

    def test_bad_request_envelopes(self, write_server):
        server, _ = write_server
        path = "/v1/projects/ok%2Falpha/advise"
        for body in ([1, 2], {"nope": 1}, {"ddl": ""}, {"ddl": 7}):
            status, _, _, payload = send(server, path, method="POST", body=body)
            assert status == 400, body
            assert payload["error"]["code"] == "bad_request"
        status, _, _, payload = send(
            server, path, method="POST", raw_body=b"{not json",
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_oversized_body_is_413(self, write_server):
        from repro.serve import MAX_BODY_BYTES

        server, _ = write_server
        status, _, _, payload = send(
            server, "/v1/projects/ok%2Falpha/advise", method="POST",
            raw_body=b"x" * (MAX_BODY_BYTES + 1),
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_wrong_content_type_is_415(self, write_server):
        server, _ = write_server
        status, _, _, payload = send(
            server, "/v1/projects/ok%2Falpha/advise", method="POST",
            raw_body=b"CREATE TABLE t (i INT);",
            headers={"Content-Type": "text/plain"},
        )
        assert status == 415
        assert payload["error"]["code"] == "unsupported_media_type"

    def test_unknown_project_is_404(self, write_server):
        server, _ = write_server
        status, _, _, payload = send(
            server, "/v1/projects/999999/advise", method="POST", body=PROPOSAL
        )
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_get_lists_the_persisted_advice(self, write_server):
        server, _ = write_server
        path = "/v1/projects/ok%2Falpha/advise"
        send(server, path, method="POST", body=PROPOSAL,
             headers={"Idempotency-Key": "list-1"})
        send(server, path, method="POST",
             body={"ddl": "CREATE TABLE solo (id INT);"},
             headers={"Idempotency-Key": "list-2"})
        status, _, _, payload = send(server, path)
        assert status == 200
        assert payload["total"] == 2
        assert [a["idempotency_key"] for a in payload["advice"]] == [
            "list-1", "list-2"
        ]

    def test_writes_never_move_the_corpus_etag(self, write_server):
        server, _ = write_server
        _, headers, _, _ = send(server, "/v1/projects")
        etag = headers["ETag"]
        send(server, "/v1/projects/ok%2Falpha/advise", method="POST",
             body=PROPOSAL)
        status, headers, _, _ = send(
            server, "/v1/projects", headers={"If-None-Match": etag}
        )
        assert status == 304  # advice rows live outside the content hash


class TestDegradedWrites:
    def test_degraded_post_is_an_honest_503_never_stale(self, fragile_server):
        # Warm the GET snapshot, then break the store: GETs degrade to
        # stale-but-consistent, POSTs must refuse outright.
        status, _, _, _ = send(fragile_server, "/v1/taxa")
        assert status == 200
        _break_service(fragile_server)
        status, headers, _, stale = send(fragile_server, "/v1/taxa")
        assert status == 200 and "Warning" in headers  # GET: snapshot
        status, headers, _, payload = send(
            fragile_server, "/v1/projects/ok%2Falpha/advise", method="POST",
            body=PROPOSAL,
        )
        assert status == 503
        assert payload["error"]["code"] == "store_unavailable"
        assert int(headers["Retry-After"]) >= 1
        assert "Warning" not in headers  # no stale write acknowledgements
        assert "advice_id" not in (payload or {})
