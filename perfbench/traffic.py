"""The load of the serve workloads, planned and driven by ``repro.loadgen``.

Both request mixes are :class:`~repro.loadgen.workload.WorkloadModel`
plans, and the load runs on loadgen's ``ClosedLoopDriver`` (capacity)
and ``OpenLoopDriver`` (request *i* due ``i / rate`` seconds after the
start; latency timed from the due time).  This module adds only what
the benchmark's checks and traced runs need and loadgen does not keep:

- ``Accept-Encoding: gzip`` on every request;
- each reply's headers and raw body, so every body can be compared
  with a direct render once the load has stopped;
- an optional hook around each send, through which a traced run times
  the request and passes its span id in ``X-Bench-Span``;
- every latency sample unrounded, so lateness (due to sent) is known.

The benchmark measures with the loadgen of the checkout under test: a
change to loadgen's model or drivers moves the serve figures as well,
and the ledger's ``source_sha256`` records it.
"""

from __future__ import annotations

import dataclasses
import gzip
import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.loadgen.drivers import HttpTransport, TransportResult
from repro.loadgen.record import LatencyRecorder
from repro.loadgen.workload import (
    DEFAULT_WEIGHTS,
    PlannedRequest,
    StoreCatalog,
    WorkloadModel,
)
from repro.serve.service import DEFAULT_CACHE_CAPACITY
from repro.store.store import CorpusStore

clock = time.perf_counter

#: ``serve_hot`` plans loadgen's default read mix (weights, ETag reuse,
#: page sizes, hot-head skew) over the first ``HOT_PROJECTS`` project
#: ids.  The number is this benchmark's own choice: the largest power of
#: two for which the mix's distinct paths stay under the server's
#: 256-entry response cache whatever the seed (two per project, at most
#: 33 cursor pages, the filters and four summary paths; checked when
#: planning).
HOT_PROJECTS = 64

#: ``serve_cold`` keeps loadgen's default weights for the families that
#: spread over the store (cursor walks, taxon and metric filters,
#: detail and heartbeat reads) and switches on the two opt-in families
#: at weight 5, the weight the repository's CI load smoke gives
#: ``advise`` (``dialect`` has no recorded weight; it takes the same).
#: The single-path families (landing page, taxa, stats, failures) are
#: left out: each is one cache entry, which is what ``serve_hot`` covers.
COLD_FAMILIES = ("projects_page", "projects_filtered", "project_detail", "heartbeat")
COLD_WEIGHTS = {
    **{family: DEFAULT_WEIGHTS[family] for family in COLD_FAMILIES},
    "advise": 5,
    "dialect": 5,
}


class UniformModel(WorkloadModel):
    """loadgen's model with detail and heartbeat ids drawn uniformly, so
    reads spread over the whole store instead of its hot head."""

    @staticmethod
    def _pick_id(rng, ids):
        return ids[rng.randrange(len(ids))]


def plan(workload: str, store: CorpusStore, seed: int, count: int) -> list[PlannedRequest]:
    """The first *count* requests of a serve workload's mix."""
    if workload == "serve_hot":
        full = StoreCatalog.from_store(store)
        ids = full.project_ids[:HOT_PROJECTS]
        catalog = dataclasses.replace(full, project_ids=ids, total_projects=len(ids))
        return WorkloadModel(catalog, seed=seed).plan(count)
    return UniformModel.from_store(store, seed=seed, weights=COLD_WEIGHTS).plan(count)


def fits_cache(requests: list[PlannedRequest]) -> bool:
    return len({request.path for request in requests}) < DEFAULT_CACHE_CAPACITY


# -- transport -----------------------------------------------------------------


class _KeptResponse(http.client.HTTPResponse):
    """A response that keeps the body it read."""

    kept = b""

    def read(self, amt: int | None = None) -> bytes:
        data = super().read(amt)
        self.kept += data
        return data


@dataclass(frozen=True)
class Reply(TransportResult):
    """loadgen's transport result plus what the checks need."""

    headers: dict[str, str] = field(default_factory=dict)
    raw: bytes = b""  # the body as sent, possibly gzipped
    sent: float = 0.0
    done: float = 0.0

    def body(self) -> bytes:
        """The decoded body (decompressed after the load, so the client
        spends no CPU on it while the server is measured)."""
        if self.headers.get("content-encoding") == "gzip":
            return gzip.decompress(self.raw)
        return self.raw


#: ``around(send)`` makes the call; it may time it and hand ``send`` extra
#: request headers.
Around = Callable[[Callable[[dict[str, str]], TransportResult]], TransportResult]


class Transport(HttpTransport):
    """loadgen's keep-alive transport that accepts gzip and keeps replies."""

    def __init__(self, port: int, around: Around | None = None) -> None:
        super().__init__(f"http://127.0.0.1:{port}")
        self.around = around
        self._kept = threading.local()  # each thread's last response

    def _connection(self) -> http.client.HTTPConnection:
        conn = super()._connection()
        conn.response_class = self._response
        return conn

    def _response(self, *args, **kwargs) -> _KeptResponse:
        response = _KeptResponse(*args, **kwargs)
        self._kept.response = response
        return response

    def send(self, path, headers, method="GET", body=None) -> Reply:
        headers = {"Accept-Encoding": "gzip", **headers}

        def send(extra: dict[str, str]) -> TransportResult:
            return HttpTransport.send(self, path, {**headers, **extra}, method, body)

        self._kept.response = None
        sent = clock()
        result = send({}) if self.around is None else self.around(send)
        done = clock()
        response = self._kept.response if result.error is None else None
        if response is None:
            return Reply(**dataclasses.asdict(result), sent=sent, done=done)
        return Reply(
            **dataclasses.asdict(result),
            headers={name.lower(): value for name, value in response.getheaders()},
            raw=response.kept,
            sent=sent,
            done=done,
        )


# -- samples -------------------------------------------------------------------


class Samples(LatencyRecorder):
    """loadgen's recorder, also keeping every sample unrounded as
    ``(family, service seconds, seconds from the due time or None)``."""

    def __init__(self) -> None:
        super().__init__()
        self.samples: list[tuple[str, float, float | None]] = []
        self._samples_lock = threading.Lock()

    def observe(self, family, status, seconds, corrected_seconds=None, degraded=False) -> None:
        super().observe(family, status, seconds, corrected_seconds, degraded)
        with self._samples_lock:
            self.samples.append((family, seconds, corrected_seconds))

    def latencies(self, family: str | None = None) -> list[float]:
        """Seconds from due time to answer (open loop)."""
        return [
            due for name, _, due in self.samples
            if due is not None and (family is None or name == family)
        ]

    def lateness(self) -> list[float]:
        """Seconds the generator sent each open-loop request after its due
        time: the due-time latency minus the service time."""
        return [due - seconds for _, seconds, due in self.samples if due is not None]
