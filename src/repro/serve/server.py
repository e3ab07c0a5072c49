"""The HTTP front: stdlib ``ThreadingHTTPServer`` around the service.

JSON over GET — plus the first write path, ``POST
/v1/projects/{id}/advise`` — with the properties a corpus API needs to
sit behind heavy traffic:

- **Deterministic revalidation.**  Every cacheable response carries an
  ``ETag`` derived from the store's content hash plus the canonical
  request, so an unchanged store answers repeat queries with ``304 Not
  Modified`` and an empty body.
- **Compression.**  Bodies above a small threshold are gzipped when the
  client advertises ``Accept-Encoding: gzip`` (with ``mtime=0`` so the
  bytes are reproducible); a cacheable body is compressed once and its
  compressed bytes are reused on later hits.
- **Hot-path caching.**  Rendered ``/v1`` responses come from the
  service's :class:`~repro.serve.service.ResponseCache`: a hit skips
  the store query and the JSON render, and is invalidated implicitly
  when the store's content hash moves (see ``response_cache``).
- **Resilience.**  Every store-touching request runs bounded by
  ``request_timeout`` (a hung read cannot pin a handler thread forever)
  behind a store-level :class:`~repro.resilience.CircuitBreaker`.  When
  the store fails or the breaker is open the server *degrades* instead
  of hanging: a GET whose response was served before comes back from
  the last ETag-consistent snapshot with ``Warning: 110`` and
  ``Retry-After`` headers; anything else gets a 503 envelope with
  ``Retry-After``.  Writes never degrade to stale data — a POST under
  an open breaker is always an honest 503 (the client retries with its
  ``Idempotency-Key``, so the retry is safe).  A half-open probe closes
  the breaker again once the store recovers.
- **Observability.**  ``/metrics`` (and ``/v1/metrics``) exposes the
  server's :class:`~repro.obs.metrics.MetricsRegistry` — JSON by
  default, Prometheus text exposition (``text/plain; version=0.0.4``)
  when the client's ``Accept`` header asks for it — and every request
  runs under an ``http.request`` span when a trace recorder is
  installed.
- **Graceful shutdown.**  ``serve_forever`` installs SIGINT/SIGTERM
  handlers that drain the threaded server instead of killing sockets.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace
from repro.resilience.policy import CircuitBreaker, DeadlineExceeded, call_with_timeout
from repro.serve.metrics import ServiceMetrics
from repro.serve.routes import API_VERSION
from repro.serve.service import (
    API_V1_PREFIX,
    DEFAULT_CACHE_CAPACITY,
    CorpusService,
    ServiceResponse,
    deprecation_headers,
    render_body,
)
from repro.store.store import CorpusStore

#: Responses smaller than this are not worth compressing.
GZIP_THRESHOLD = 256

#: Hard cap on one request body; beyond it the connection answers 413
#: and closes (the client may still be mid-upload).
MAX_BODY_BYTES = 1 << 20

#: The Content-Type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Wall-second budget of one store-touching request (None disables).
DEFAULT_REQUEST_TIMEOUT = 5.0

#: At most this many (path, query) snapshots are kept for degradation.
SNAPSHOT_CAPACITY = 1024

_METRICS_PATHS = ("/metrics", "/metrics/")


def _gzip(body: bytes) -> bytes:
    return gzip.compress(body, mtime=0)


@dataclass(frozen=True)
class RoutedResult:
    """What one request resolves to before HTTP materialization.

    ``body`` carries the canonical JSON bytes when the service already
    rendered (or cached) them; ``None`` falls back to rendering from
    ``response.payload`` at send time.
    """

    response: ServiceResponse
    etag: str | None
    extra_headers: tuple[tuple[str, str], ...] = ()
    degraded: bool = False  # True: served stale or unavailable
    body: bytes | None = None


class CorpusRequestHandler(BaseHTTPRequestHandler):
    """Translates HTTP to :class:`CorpusService` calls."""

    server: "CorpusServer"
    server_version = "repro-serve/1.4"
    protocol_version = "HTTP/1.1"
    # Headers and body flush as separate segments; without TCP_NODELAY,
    # Nagle + the peer's delayed ACK add ~40ms to every keep-alive
    # response, drowning any server-side latency signal.
    disable_nagle_algorithm = True

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET", head_only=True)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_OPTIONS(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("OPTIONS")

    # Unsupported-but-known methods still route, so the table answers
    # with a uniform 405 + Allow envelope instead of the stdlib's 501.
    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("PUT")

    def do_PATCH(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("PATCH")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def _dispatch(self, method: str, head_only: bool = False) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        params = dict(parse_qsl(split.query))
        v1 = split.path == API_V1_PREFIX or split.path.startswith(API_V1_PREFIX + "/")
        with trace("http.request", method=method, path=split.path) as span:
            routed = None
            body_value = None
            if method == "POST":
                routed, body_value = self._read_body(split.path)
            elif method not in ("GET", "OPTIONS"):
                self._drain_body()  # keep keep-alive framing before the 405
            if routed is None and method == "GET":
                routed = self._route_metrics(split.path)
                if routed is None and self._is_prometheus_metrics(split.path):
                    body = self.server.metrics_prometheus().encode("utf-8")
                    headers = {"Content-Type": PROMETHEUS_CONTENT_TYPE}
                    if v1:
                        headers["X-Api-Version"] = str(API_VERSION)
                    for name, value in self._metrics_extra_headers(split.path):
                        headers[name] = value
                    self._send(200, body, headers, head_only)
                    if span is not None:
                        span.attrs.update(
                            endpoint=self._metrics_endpoint(split.path), status=200
                        )
                    self.server.metrics.observe(
                        self._metrics_endpoint(split.path), 200,
                        time.perf_counter() - started, len(body),
                    )
                    return
            if routed is None:
                routed = self.server.guarded_handle(
                    split.path, split.query, params,
                    method=method,
                    body=body_value,
                    idempotency_key=self.headers.get("Idempotency-Key"),
                )
            status, body, headers = self._materialize(routed, head_only)
            if v1:
                headers["X-Api-Version"] = str(API_VERSION)
            self._send(status, body, headers, head_only)
            if span is not None:
                span.attrs.update(endpoint=routed.response.endpoint, status=status)
                if routed.degraded:
                    span.attrs["degraded"] = True
        self.server.metrics.observe(
            routed.response.endpoint, status, time.perf_counter() - started, len(body)
        )

    # -- request-body parsing ----------------------------------------------

    def _protocol_error(
        self, path: str, status: int, message: str,
        detail: str | None = None, close: bool = False,
    ) -> RoutedResult:
        if close:
            self.close_connection = True
        return RoutedResult(
            response=self.server.service.request_error(
                path, status, message, detail=detail
            ),
            etag=None,
        )

    def _drain_body(self, length: int | None = None) -> bool:
        """Discard a request body so keep-alive framing survives.

        Reads up to ``8 * MAX_BODY_BYTES`` in chunks; beyond that the
        connection is marked for close instead (don't relay an abusive
        stream just to keep a socket warm).  Returns True if fully
        drained.
        """
        if length is None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self.close_connection = True
                return False
        if length > 8 * MAX_BODY_BYTES:
            self.close_connection = True
            return False
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                self.close_connection = True
                return False
            remaining -= len(chunk)
        return True

    def _read_body(self, path: str) -> tuple[RoutedResult | None, object | None]:
        """Read + parse one JSON request body; (error, None) on failure.

        An oversized body is drained (bounded) before the 413 so the
        client reliably reads the response instead of dying on a broken
        pipe mid-upload; 415 drains nothing extra (the body was already
        read).
        """
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            return (
                self._protocol_error(
                    path, 400, f"invalid Content-Length: {raw_length!r}"
                ),
                None,
            )
        if length > MAX_BODY_BYTES:
            drained = self._drain_body(length)
            return (
                self._protocol_error(
                    path, 413,
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                    detail=f"Content-Length: {length}",
                    close=not drained,
                ),
                None,
            )
        raw = self.rfile.read(length) if length else b""
        content_type = self.headers.get("Content-Type", "application/json")
        if "json" not in content_type.split(";")[0]:
            return (
                self._protocol_error(
                    path, 415,
                    f"unsupported Content-Type: {content_type.split(';')[0]!r}",
                    detail="send application/json",
                ),
                None,
            )
        try:
            return None, json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return (
                self._protocol_error(
                    path, 400, "the request body is not valid JSON",
                    detail=str(exc),
                ),
                None,
            )

    # -- /metrics routing ---------------------------------------------------

    def _is_metrics_path(self, path: str) -> bool:
        if path.startswith(API_V1_PREFIX):
            path = path[len(API_V1_PREFIX):]
        return path in _METRICS_PATHS

    def _is_prometheus_metrics(self, path: str) -> bool:
        if not self._is_metrics_path(path):
            return False
        accept = self.headers.get("Accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    def _metrics_endpoint(self, path: str) -> str:
        return f"{API_V1_PREFIX}/metrics" if path.startswith(API_V1_PREFIX) else "/metrics"

    def _metrics_extra_headers(self, path: str) -> tuple[tuple[str, str], ...]:
        if path.startswith(API_V1_PREFIX):
            return ()
        return deprecation_headers(path)

    def _route_metrics(self, path: str) -> RoutedResult | None:
        """/metrics never touches the store: no guard, no ETag."""
        if not self._is_metrics_path(path) or self._is_prometheus_metrics(path):
            return None
        response = ServiceResponse(
            status=200,
            payload=self.server.metrics_payload(),
            endpoint=self._metrics_endpoint(path),
            cacheable=False,
            headers=self._metrics_extra_headers(path),
        )
        return RoutedResult(response=response, etag=None)

    # -- HTTP materialization ----------------------------------------------

    def _send(
        self, status: int, body: bytes, headers: dict[str, str], head_only: bool
    ) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body and not head_only:
            self.wfile.write(body)

    def _materialize(
        self, routed: RoutedResult, head_only: bool
    ) -> tuple[int, bytes, dict[str, str]]:
        result = routed.response
        headers = {"Content-Type": "application/json; charset=utf-8"}
        for name, value in result.headers:
            headers[name] = value
        for name, value in routed.extra_headers:
            headers[name] = value
        if routed.etag is not None:
            headers["ETag"] = routed.etag
            headers["Cache-Control"] = "max-age=0, must-revalidate"
            if self._etag_matches(routed.etag):
                return 304, b"", headers
        if result.status == 204:
            return 204, b"", headers
        body = routed.body if routed.body is not None else render_body(result.payload)
        if (
            len(body) >= GZIP_THRESHOLD
            and "gzip" in self.headers.get("Accept-Encoding", "")
        ):
            # Cacheable (ETag-carrying) bodies recur: compress each once.
            body = self.server.gzipped(body) if routed.etag is not None else _gzip(body)
            headers["Content-Encoding"] = "gzip"
        return result.status, body, headers

    def _etag_matches(self, etag: str) -> bool:
        candidates = self.headers.get("If-None-Match", "")
        return etag in [value.strip() for value in candidates.split(",")]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class CorpusServer(ThreadingHTTPServer):
    """A read-only corpus API bound to one :class:`CorpusStore`."""

    daemon_threads = True

    def __init__(
        self,
        store: CorpusStore,
        host: str = "127.0.0.1",
        port: int = 8765,
        verbose: bool = False,
        registry: MetricsRegistry | None = None,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
        breaker: CircuitBreaker | None = None,
        response_cache: int = DEFAULT_CACHE_CAPACITY,
        reuse_port: bool = False,
        cluster_workers: int | None = None,
    ) -> None:
        self.store = store
        self.metrics = ServiceMetrics(registry)
        self.service = CorpusService(
            store,
            registry=self.metrics.registry,
            cache_capacity=response_cache,
            cluster_workers=cluster_workers,
        )
        self.verbose = verbose
        self.request_timeout = request_timeout
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            name="store",
            failure_threshold=3,
            reset_timeout=5.0,
            registry=self.metrics.registry,
        )
        #: A pre-fork worker installs its cluster-wide aggregation here
        #: (any object with payload()/prometheus_text()); /metrics then
        #: shows the whole cluster instead of one worker's counters.
        self.metrics_view = None
        self._reuse_port = reuse_port
        self._snapshots: OrderedDict[
            tuple[str, str], tuple[ServiceResponse, str, bytes]
        ] = OrderedDict()
        self._snapshot_lock = threading.Lock()
        #: Compressed bytes of each cacheable body, made once and reused
        #: on later hits; bounded like the response cache.
        self.gzipped = functools.lru_cache(maxsize=response_cache)(_gzip)
        super().__init__((host, port), CorpusRequestHandler)

    def server_bind(self) -> None:
        # SO_REUSEPORT must be set before bind(); with it, N worker
        # processes listen on the same (host, port) and the kernel
        # load-balances incoming connections across them.
        if self._reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def metrics_payload(self) -> dict:
        view = self.metrics_view if self.metrics_view is not None else self.metrics
        return view.payload()

    def metrics_prometheus(self) -> str:
        view = self.metrics_view if self.metrics_view is not None else self.metrics
        return view.prometheus_text()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @staticmethod
    def etag_from_hash(content_hash: str, path: str, query: str) -> str:
        """A strong validator: store content hash x canonical request."""
        request_digest = hashlib.sha256(f"{path}?{query}".encode()).hexdigest()
        return f'"{content_hash[:20]}-{request_digest[:12]}"'

    # -- the resilient request path ----------------------------------------

    def guarded_handle(
        self,
        path: str,
        query: str,
        params: dict[str, str],
        method: str = "GET",
        body: object | None = None,
        idempotency_key: str | None = None,
    ) -> RoutedResult:
        """Route one request through timeout + circuit breaker.

        Service routing *and* ETag computation (a store read) run on a
        bounded call; any raise or timeout trips the breaker and falls
        back to :meth:`_degrade` instead of propagating to the socket.
        Only GETs earn ETags and degradation snapshots — a write's
        response must never be replayed as if the store had served it.
        """
        canonical = "&".join(sorted(query.split("&"))) if query else ""
        key = (path, canonical)
        if not self.breaker.allow():
            return self._degrade(path, key, "store circuit breaker is open", method)

        def call() -> tuple[ServiceResponse, str | None, bytes]:
            rendered = self.service.handle_rendered(
                path, canonical, params,
                method=method, body=body, idempotency_key=idempotency_key,
            )
            response = rendered.response
            etag = (
                self.etag_from_hash(rendered.content_hash, path, query)
                if method == "GET"
                and rendered.content_hash is not None
                and response.cacheable
                and response.status == 200
                else None
            )
            return response, etag, rendered.body

        try:
            response, etag, body_bytes = call_with_timeout(call, self.request_timeout)
        except DeadlineExceeded:
            self.metrics.registry.counter("repro_http_timeouts_total").inc()
            self.breaker.record_failure()
            return self._degrade(
                path, key,
                f"request exceeded its {self.request_timeout}s deadline",
                method,
            )
        except Exception as exc:
            self.breaker.record_failure()
            return self._degrade(
                path, key, f"store failure: {type(exc).__name__}", method
            )
        self.breaker.record_success()
        if etag is not None:
            with self._snapshot_lock:
                self._snapshots[key] = (response, etag, body_bytes)
                self._snapshots.move_to_end(key)
                while len(self._snapshots) > SNAPSHOT_CAPACITY:
                    self._snapshots.popitem(last=False)
        return RoutedResult(response=response, etag=etag, body=body_bytes)

    def _degrade(
        self, path: str, key: tuple[str, str], reason: str, method: str = "GET"
    ) -> RoutedResult:
        """Serve the last known snapshot, else an honest 503 — never hang.

        Writes skip the snapshot path entirely: stale advice must never
        masquerade as a fresh verdict, so a degraded POST is always 503
        + ``Retry-After`` (safe to retry — the Idempotency-Key makes the
        retry exactly-once).
        """
        retry_after = str(max(1, math.ceil(self.breaker.retry_after() or 1.0)))
        snapshot = None
        if method == "GET":
            with self._snapshot_lock:
                snapshot = self._snapshots.get(key)
        if snapshot is not None:
            response, etag, body = snapshot
            self.metrics.registry.counter(
                "repro_http_degraded_total", mode="stale"
            ).inc()
            return RoutedResult(
                response=response,
                etag=etag,
                extra_headers=(
                    ("Warning", f'110 repro-serve "{reason}; serving last snapshot"'),
                    ("Retry-After", retry_after),
                ),
                degraded=True,
                body=body,
            )
        self.metrics.registry.counter(
            "repro_http_degraded_total", mode="unavailable"
        ).inc()
        return RoutedResult(
            response=self.service.unavailable(path, reason),
            etag=None,
            extra_headers=(("Retry-After", retry_after),),
            degraded=True,
        )


def create_server(
    store: CorpusStore,
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = False,
    registry: MetricsRegistry | None = None,
    request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    breaker: CircuitBreaker | None = None,
    response_cache: int = DEFAULT_CACHE_CAPACITY,
    reuse_port: bool = False,
    cluster_workers: int | None = None,
) -> CorpusServer:
    """The public constructor: a bound-but-not-running corpus server.

    Callers own the lifecycle (``serve_forever()`` / ``shutdown()``);
    pass ``port=0`` for an ephemeral port, *registry* to publish the
    HTTP metrics into an existing :class:`MetricsRegistry`,
    *request_timeout* (seconds; ``None`` disables) to bound every
    store-touching request, *breaker* to tune or share the store
    circuit breaker, and *response_cache* to size the hot-path
    rendered-response cache (entries; ``0`` disables it).
    *reuse_port* and *cluster_workers* are the pre-fork cluster hooks:
    bind with ``SO_REUSEPORT`` and advertise the worker count on
    ``/v1/stats`` (see :mod:`repro.serve.cluster`).
    """
    return CorpusServer(
        store, host=host, port=port, verbose=verbose, registry=registry,
        request_timeout=request_timeout, breaker=breaker,
        response_cache=response_cache, reuse_port=reuse_port,
        cluster_workers=cluster_workers,
    )


def start_server(
    store: CorpusStore,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    **kwargs,
) -> tuple[CorpusServer, threading.Thread]:
    """Start a server on a background thread (port 0 = ephemeral)."""
    server = create_server(store, host=host, port=port, verbose=verbose, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def serve_forever(
    store: CorpusStore,
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = True,
    request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    response_cache: int = DEFAULT_CACHE_CAPACITY,
    registry: MetricsRegistry | None = None,
) -> None:
    """Run until SIGINT/SIGTERM, then drain in-flight requests."""
    server = create_server(
        store, host=host, port=port, verbose=verbose,
        request_timeout=request_timeout, response_cache=response_cache,
        registry=registry,
    )

    def _shutdown(signum, frame) -> None:  # pragma: no cover - signal path
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _shutdown)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
