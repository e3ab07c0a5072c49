"""The pre-fork serving cluster: SO_REUSEPORT workers under a supervisor.

Real spawn-based worker processes over a real (file-backed) store: the
kernel balances connections across workers, so these tests assert the
properties that must hold *no matter which worker answers* — a stable
content hash / ETag, one aggregated ``/metrics`` view carrying every
worker's series, respawn after a SIGKILL, and a drain that always
terminates.  The concurrent-rewrite tests are the regression net for
the cross-process change-token: a ``repro ingest`` rewriting the store
from another connection must move the ETag on every worker, and a 200
body must always hash-match the ETag it was served under (no tear).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ClusterConfig, ClusterSupervisor, start_server
from repro.store import CorpusStore, ShardedCorpusStore, ingest_corpus
from tests.test_store import SCHEMA_V0, SCHEMA_V1, repo_with_history, small_corpus

pytestmark = pytest.mark.skipif(
    not hasattr(__import__("socket"), "SO_REUSEPORT"),
    reason="SO_REUSEPORT unavailable on this platform",
)


def get(url, path, headers=None, timeout=10):
    """GET returning (status, headers, raw-body) — 304/4xx included."""
    req = urllib.request.Request(url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def wait_until(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def wait_ready(url, timeout=30.0):
    def ready():
        try:
            status, _, _ = get(url, "/v1/stats", timeout=2)
            return status == 200
        except OSError:
            return False

    assert wait_until(ready, timeout=timeout), f"cluster at {url} never came up"


class RunningCluster:
    """A supervisor started in-process, its run loop on a thread."""

    def __init__(self, config: ClusterConfig) -> None:
        self.supervisor = ClusterSupervisor(config)
        self.supervisor.start()
        self.exit_code: int | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        wait_ready(self.url)

    def _run(self) -> None:
        self.exit_code = self.supervisor.run()

    @property
    def url(self) -> str:
        return self.supervisor.url

    def state(self) -> dict:
        with open(self.supervisor.config.supervisor_state_path) as handle:
            return json.load(handle)

    def shutdown(self, timeout=30.0) -> int | None:
        self.supervisor.stop()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "cluster drain hung"
        return self.exit_code


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "corpus.db"
    activity, lib_io, repos = small_corpus(with_bad_project=True)
    with CorpusStore(path) as store:
        ingest_corpus(store, activity, lib_io, repos.get)
    return path


@pytest.fixture(scope="module")
def cluster(db_path, tmp_path_factory):
    runtime = tmp_path_factory.mktemp("cluster-rt")
    running = RunningCluster(
        ClusterConfig(
            db=str(db_path),
            port=0,
            workers=2,
            runtime_dir=str(runtime),
            relay_interval=0.2,
        )
    )
    yield running
    running.shutdown()


class TestCluster:
    def test_stats_reports_the_cluster_and_a_stable_etag(self, cluster):
        status, headers, body = get(cluster.url, "/v1/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["cluster"] == {"workers": 2}
        etag = headers["ETag"]
        # Whichever worker answers, the ETag must not move: 30 straight
        # requests bounce across both workers' independent stores.
        for _ in range(30):
            _, again, _ = get(cluster.url, "/v1/stats")
            assert again["ETag"] == etag

    def test_if_none_match_revalidates_with_304(self, cluster):
        _, headers, _ = get(cluster.url, "/v1/projects")
        seen = set()
        for _ in range(20):
            status, _, body = get(
                cluster.url, "/v1/projects",
                headers={"If-None-Match": headers["ETag"]},
            )
            seen.add(status)
            assert status == 304 and body == b""
        assert seen == {304}

    def test_metrics_aggregate_every_worker(self, cluster):
        # Prime both workers' request counters, then give the relay one
        # interval to publish.
        for _ in range(20):
            get(cluster.url, "/v1/taxa")
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, _, body = get(cluster.url, "/v1/metrics")
            gauges = json.loads(body)["registry"]["gauges"]
            if {f'repro_serve_worker_id{{worker="{i}"}}' for i in (0, 1)} <= set(
                gauges
            ):
                break
            time.sleep(0.3)
        payload = json.loads(body)
        gauges = payload["registry"]["gauges"]
        assert gauges['repro_serve_worker_id{worker="0"}'] == 0
        assert gauges['repro_serve_worker_id{worker="1"}'] == 1
        assert gauges["repro_cluster_workers"] == 2
        counters = payload["registry"]["counters"]
        cache_series = [
            key for key in counters
            if key.startswith(("repro_serve_cache_hits_total",
                               "repro_serve_cache_misses_total"))
        ]
        assert any('worker="' in key for key in cache_series), counters
        assert payload["total_requests"] > 0

    def test_prometheus_exposition_carries_worker_labels(self, cluster):
        status, headers, body = get(
            cluster.url, "/v1/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200 and "text/plain" in headers["Content-Type"]
        text = body.decode()
        assert 'repro_serve_worker_id{worker="0"}' in text
        assert "repro_cluster_workers" in text


@pytest.mark.slow
class TestClusterLifecycle:
    def test_sigkill_respawns_the_worker_and_serving_survives(
        self, db_path, tmp_path_factory
    ):
        runtime = tmp_path_factory.mktemp("kill-rt")
        running = RunningCluster(
            ClusterConfig(
                db=str(db_path), port=0, workers=2,
                runtime_dir=str(runtime), relay_interval=0.2,
            )
        )
        try:
            victim = running.state()["workers"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: running.state()["workers"][0]["respawns"] >= 1
            ), "supervisor never respawned the killed worker"
            replacement = running.state()["workers"][0]
            assert replacement["alive"] and replacement["pid"] != victim
            status, _, body = get(running.url, "/v1/stats")
            assert status == 200 and json.loads(body)["cluster"]["workers"] == 2
            # The respawn shows up on the aggregated metrics view.
            def respawn_counted():
                _, _, raw = get(running.url, "/v1/metrics")
                counters = json.loads(raw)["registry"]["counters"]
                return counters.get('repro_cluster_respawns_total{worker="0"}') == 1
            assert wait_until(respawn_counted, timeout=10)
        finally:
            assert running.shutdown() == 0

    def test_drain_terminates_every_worker(self, db_path, tmp_path_factory):
        runtime = tmp_path_factory.mktemp("drain-rt")
        running = RunningCluster(
            ClusterConfig(
                db=str(db_path), port=0, workers=2, runtime_dir=str(runtime),
            )
        )
        pids = [worker["pid"] for worker in running.state()["workers"]]
        assert running.shutdown() == 0
        for pid in pids:
            assert wait_until(lambda pid=pid: not _alive(pid), timeout=10), (
                f"worker {pid} survived the drain"
            )
        assert all(not w["alive"] for w in running.state()["workers"])


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _extra_corpus():
    extra = {"zz/late": repo_with_history("zz/late", [SCHEMA_V0, SCHEMA_V1])}
    return small_corpus(extra_repos=extra)


def _hammer_while_ingesting(url, db_path, checks=200):
    """GET /v1/stats in a loop while a second connection re-ingests.

    Returns the set of observed ETags.  Asserts the no-tear invariant
    on every response: the body's ``content_hash`` must be the hash the
    ETag was derived from (its first 20 hex chars), whichever side of
    the rewrite the request landed on.
    """
    errors: list[BaseException] = []

    def writer():
        try:
            activity, lib_io, repos = _extra_corpus()
            with CorpusStore(db_path) as second_connection:
                ingest_corpus(second_connection, activity, lib_io, repos.get)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    etags = set()
    try:
        for _ in range(checks):
            status, headers, body = get(url, "/v1/stats")
            assert status == 200
            payload = json.loads(body)
            etag = headers["ETag"]
            etags.add(etag)
            assert etag[1:21] == payload["content_hash"][:20], (
                "response body and ETag disagree about the store state"
            )
    finally:
        thread.join(timeout=120)
    assert not thread.is_alive() and errors == []
    return etags


class TestConcurrentRewrite:
    """Satellite regression: ETag/304 stay honest during a live re-ingest."""

    def test_single_worker_etag_moves_with_the_store(self, tmp_path):
        db = tmp_path / "corpus.db"
        activity, lib_io, repos = small_corpus()
        with CorpusStore(db) as store:
            ingest_corpus(store, activity, lib_io, repos.get)
        serving_store = CorpusStore(db)
        server, thread = start_server(serving_store, port=0)
        try:
            _, before, _ = get(server.url, "/v1/stats")
            etags = _hammer_while_ingesting(server.url, db)
            # The server's own connection must see the other process'
            # commit (PRAGMA data_version): the final ETag is the new one.
            with CorpusStore(db) as fresh:
                final = fresh.content_hash()
            assert wait_until(
                lambda: get(server.url, "/v1/stats")[1]["ETag"][1:21] == final[:20],
                timeout=10,
            ), "server kept serving the pre-ingest ETag after the rewrite"
            # And revalidating with the stale ETag must now yield a 200.
            status, _, _ = get(
                server.url, "/v1/stats",
                headers={"If-None-Match": before["ETag"]},
            )
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            serving_store.close()

    @pytest.mark.slow
    def test_multi_worker_etag_moves_on_every_worker(
        self, tmp_path, tmp_path_factory
    ):
        db = tmp_path / "corpus.db"
        activity, lib_io, repos = small_corpus()
        with ShardedCorpusStore(db, shards=3) as store:
            ingest_corpus(store, activity, lib_io, repos.get)
        runtime = tmp_path_factory.mktemp("rewrite-rt")
        running = RunningCluster(
            ClusterConfig(
                db=str(db), port=0, workers=2,
                runtime_dir=str(runtime), relay_interval=0.2,
            )
        )
        try:
            def ingest_again():
                activity2, lib_io2, repos2 = _extra_corpus()
                with ShardedCorpusStore(db) as second_connection:
                    ingest_corpus(second_connection, activity2, lib_io2, repos2.get)

            errors: list[BaseException] = []

            def writer():
                try:
                    ingest_again()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                for _ in range(200):
                    status, headers, body = get(running.url, "/v1/stats")
                    assert status == 200
                    payload = json.loads(body)
                    assert headers["ETag"][1:21] == payload["content_hash"][:20]
            finally:
                thread.join(timeout=120)
            assert not thread.is_alive() and errors == []
            with ShardedCorpusStore(db) as fresh:
                final = fresh.content_hash()

            def every_worker_sees_it():
                return all(
                    get(running.url, "/v1/stats")[1]["ETag"][1:21] == final[:20]
                    for _ in range(8)
                )

            assert wait_until(every_worker_sees_it, timeout=15), (
                "a worker kept serving the pre-ingest ETag after the rewrite"
            )
        finally:
            assert running.shutdown() == 0


def post(url, path, body, key=None, timeout=10):
    """POST a JSON body; returns (status, headers, raw-body)."""
    headers = {"Content-Type": "application/json"}
    if key is not None:
        headers["Idempotency-Key"] = key
    req = urllib.request.Request(
        url + path,
        data=json.dumps(body, sort_keys=True).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


ADVISE_PATH = "/v1/projects/ok%2Falpha/advise"
PROPOSAL = {
    "ddl": (
        "CREATE TABLE a (x INT, y INT);\n"
        "CREATE TABLE cluster_probe (id INT, note VARCHAR(64));\n"
    )
}


class TestClusterWrites:
    """The write path under the pre-fork cluster: whichever worker's
    process answers, one ``(project, Idempotency-Key)`` pair is exactly
    one persisted advice row with byte-identical responses."""

    def test_same_key_across_workers_is_one_row(self, cluster):
        results = [
            post(cluster.url, ADVISE_PATH, PROPOSAL, key="cluster-idem-1")
            for _ in range(20)
        ]
        assert all(status == 200 for status, _, _ in results)
        bodies = {raw for _, _, raw in results}
        assert len(bodies) == 1  # byte-identical across both workers
        replays = sum(
            1 for _, headers, _ in results
            if headers.get("Idempotency-Replayed") == "true"
        )
        assert replays == len(results) - 1  # exactly one fresh insert
        _, _, listing = get(cluster.url, ADVISE_PATH)
        rows = [
            a for a in json.loads(listing)["advice"]
            if a["idempotency_key"] == "cluster-idem-1"
        ]
        assert len(rows) == 1

    def test_sigkill_mid_flight_idempotent_retry_recovers(
        self, db_path, tmp_path_factory
    ):
        runtime = tmp_path_factory.mktemp("kill-write-rt")
        running = RunningCluster(
            ClusterConfig(
                db=str(db_path), port=0, workers=2,
                runtime_dir=str(runtime), relay_interval=0.2,
            )
        )
        try:
            key = "kill-retry-1"
            status, _, first = post(running.url, ADVISE_PATH, PROPOSAL, key=key)
            assert status == 200
            stop = threading.Event()
            bodies: list[bytes] = []

            def hammer():
                while not stop.is_set():
                    try:
                        status, _, raw = post(
                            running.url, ADVISE_PATH, PROPOSAL, key=key,
                            timeout=5,
                        )
                    except OSError:
                        continue  # the killed worker's socket: retry
                    if status == 200:
                        bodies.append(raw)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                victim = running.state()["workers"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                assert wait_until(
                    lambda: running.state()["workers"][0]["respawns"] >= 1
                ), "supervisor never respawned the killed worker"
                wait_ready(running.url)
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
            assert bodies, "no POST survived the kill window"
            assert set(bodies) == {first}  # every retry replayed the ledger row
            _, _, listing = get(running.url, ADVISE_PATH)
            rows = [
                a for a in json.loads(listing)["advice"]
                if a["idempotency_key"] == key
            ]
            assert len(rows) == 1
        finally:
            assert running.shutdown() == 0

    def test_sharded_store_advice_has_stable_global_ids(
        self, tmp_path, tmp_path_factory
    ):
        from repro.store.shard import shard_index

        db = tmp_path / "corpus.db"
        activity, lib_io, repos = small_corpus()
        with ShardedCorpusStore(db, shards=3) as store:
            ingest_corpus(store, activity, lib_io, repos.get)
        runtime = tmp_path_factory.mktemp("shard-write-rt")
        running = RunningCluster(
            ClusterConfig(
                db=str(db), port=0, workers=2,
                runtime_dir=str(runtime), relay_interval=0.2,
            )
        )
        try:
            ids = {}
            for name in ("ok/alpha", "ok/beta"):
                path = f"/v1/projects/{name.replace('/', '%2F')}/advise"
                status, _, raw = post(
                    running.url, path, PROPOSAL, key=f"shard-{name}"
                )
                assert status == 200
                ids[name] = json.loads(raw)["advice_id"]
                # Replays return the same global id from any worker.
                for _ in range(4):
                    status, headers, again = post(
                        running.url, path, PROPOSAL, key=f"shard-{name}"
                    )
                    assert status == 200 and again == raw
                    assert headers["Idempotency-Replayed"] == "true"
            assert len(set(ids.values())) == len(ids)
        finally:
            assert running.shutdown() == 0
        # The rows landed on the owning shard, under the allocated ids.
        with ShardedCorpusStore(db) as fresh:
            assert fresh.advice_count() == len(ids)
            for name, advice_id in ids.items():
                owner = shard_index(name, 3)
                for index, shard in enumerate(fresh._shards):
                    rows = shard.advice_records(name)
                    assert bool(rows) == (index == owner), name
                    if rows:
                        assert [r.id for r in rows] == [advice_id]
