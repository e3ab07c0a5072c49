"""The read-only query service behind the HTTP front.

:class:`CorpusService` maps a (path, query) pair to a JSON payload and
status code — no sockets, no headers beyond route-owned ones — so every
route is unit-testable without a running server, and the HTTP layer
stays a thin translation.

Every route lives under ``/v1``: structured error envelopes
``{"error": {"code", "message", "detail"}}``, keyset ``cursor``
pagination whose list payloads carry ``next``, ``next_cursor`` and
``total``, and the ``/v1/failures`` ledger of stored
:class:`~repro.pipeline.stages.ProjectFailure` records (with retry
attempt counts).  Any other path answers 404; an ``offset=`` parameter
answers 400 and names ``cursor`` as the way to page.

Hot GET responses are served from an LRU :class:`ResponseCache` keyed
on ``(path, canonical query)`` and validated against the store's
``content_hash()``: a hit skips the store query *and* the JSON render
entirely, and an ingest that changes the store invalidates every entry
at once (the hash no longer matches).  Errors, writes and
``/v1/metrics`` bypass the cache.  Hit/miss/eviction counters and the
render counter publish into the server's metrics registry.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from urllib.parse import unquote, urlencode

from repro.advisor import AdvisorError, advise
from repro.obs.metrics import MetricsRegistry
from repro.serve.cursors import (
    decode_failure_cursor,
    decode_project_cursor,
    encode_failure_cursor,
    encode_project_cursor,
)
from repro.serve.routes import (
    API_V1_PREFIX,
    API_VERSION,
    ROUTES,
    Route,
    openapi_document,
)
from repro.store.store import (
    METRIC_COLUMNS,
    AdviceConflict,
    CorpusStore,
    MetricRange,
    StoreError,
)

#: Hard ceiling on one page of a list endpoint.
MAX_PAGE_LIMIT = 500
DEFAULT_PAGE_LIMIT = 50

#: Default entry count of the hot-path response cache (0 disables it).
DEFAULT_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class ServiceResponse:
    """One routed result: HTTP status, JSON payload, cacheability.

    ``headers`` are route-owned extras (``Allow``, idempotency
    markers, a non-JSON ``Content-Type``) the HTTP layer emits verbatim
    on top of its own.
    """

    status: int
    payload: dict
    endpoint: str  # the route pattern, for metrics
    cacheable: bool = True  # False: never ETag-revalidated (/v1/metrics)
    headers: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RenderedResponse:
    """A routed response plus its canonical JSON bytes.

    ``content_hash`` is the store hash the response was computed under
    (``None`` only when the route never touched the store); ``cache_hit``
    marks responses answered from the :class:`ResponseCache` without a
    store query or a render.
    """

    response: ServiceResponse
    body: bytes
    content_hash: str | None
    cache_hit: bool = False


@dataclass(frozen=True)
class RouteRequest:
    """Everything a route handler may need, in one uniform shape.

    The declarative dispatch hands every handler the same object —
    matched route, HTTP method, parsed query params, the bound path
    parameter (``ref``), and for write routes the parsed JSON body plus
    the client's ``Idempotency-Key``.
    """

    route: Route
    method: str
    params: dict[str, str]
    ref: int | str | None = None
    body: object | None = None
    idempotency_key: str | None = None


class ResponseCache:
    """Thread-safe LRU of rendered responses, validated by content hash.

    One entry per ``(path, canonical query)`` request; an entry only
    answers while the store's ``content_hash()`` still equals the hash
    it was rendered under, so re-ingesting the corpus invalidates the
    whole cache implicitly — no explicit flush protocol.  Counters::

        repro_serve_cache_hits_total        answered from cache
        repro_serve_cache_misses_total      absent or stale entry
        repro_serve_cache_evictions_total   LRU + stale evictions
        repro_serve_cache_entries           current size (gauge)
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple[str, str], tuple[str, ServiceResponse, bytes]
        ] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, key: tuple[str, str], content_hash: str
    ) -> tuple[ServiceResponse, bytes] | None:
        """The cached (response, body) under *key*, if still valid."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == content_hash:
                self._entries.move_to_end(key)
                self.registry.counter("repro_serve_cache_hits_total").inc()
                return entry[1], entry[2]
            if entry is not None:  # stale: the store changed under it
                del self._entries[key]
                self.registry.counter("repro_serve_cache_evictions_total").inc()
                self.registry.gauge("repro_serve_cache_entries").set(
                    len(self._entries)
                )
        self.registry.counter("repro_serve_cache_misses_total").inc()
        return None

    def store(
        self,
        key: tuple[str, str],
        content_hash: str,
        response: ServiceResponse,
        body: bytes,
    ) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = (content_hash, response, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.registry.counter("repro_serve_cache_evictions_total").inc()
            self.registry.gauge("repro_serve_cache_entries").set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.registry.gauge("repro_serve_cache_entries").set(0)


def render_body(payload: dict) -> bytes:
    """The one canonical JSON rendering of a response payload."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _resolve_ref(raw: str) -> int | str:
    """A path segment is a numeric store id or a URL-encoded name."""
    decoded = unquote(raw)
    return int(decoded) if decoded.isdigit() else decoded


def _error_code_for(status: int) -> str:
    return {
        400: "bad_request",
        404: "not_found",
        405: "method_not_allowed",
        409: "idempotency_conflict",
        413: "payload_too_large",
        415: "unsupported_media_type",
        503: "store_unavailable",
    }.get(status, "error")


class CorpusService:
    """Routes read-only queries against one :class:`CorpusStore`."""

    def __init__(
        self,
        store: CorpusStore,
        registry: MetricsRegistry | None = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        cluster_workers: int | None = None,
    ) -> None:
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = (
            ResponseCache(cache_capacity, self.registry)
            if cache_capacity > 0
            else None
        )
        #: Worker count a pre-fork cluster advertises on /v1/stats
        #: (None: single-process serving, no cluster block).  Only
        #: stable, worker-independent values may go in that block — the
        #: same bytes must come back whichever worker answers.
        self.cluster_workers = cluster_workers
        # The content hash the *current* request was routed under, so
        # routes that echo it (/v1/stats) emit exactly the hash their
        # ETag was derived from even if an ingest commits mid-request.
        self._request_hash = threading.local()

    def handle_rendered(
        self,
        path: str,
        canonical_query: str,
        params: dict[str, str],
        method: str = "GET",
        body: object | None = None,
        idempotency_key: str | None = None,
    ) -> RenderedResponse:
        """Route one request and render its body, through the cache.

        ``content_hash()`` is read exactly once per request; it both
        validates the cache entry and feeds the caller's ETag, so a hit
        answers without any further store work.  Only GET 200s are
        cached — writes must always reach the store, and errors are
        always recomputed.  A store outage raises out of here (the
        content-hash read fails), which is what trips the caller's
        circuit breaker.
        """
        content_hash = self.store.content_hash()
        key = (path, canonical_query)
        if method == "GET" and self.cache is not None:
            cached = self.cache.lookup(key, content_hash)
            if cached is not None:
                response, body_bytes = cached
                return RenderedResponse(
                    response, body_bytes, content_hash, cache_hit=True
                )
        self._request_hash.value = content_hash
        try:
            response = self.handle(
                path, params, method=method, body=body,
                idempotency_key=idempotency_key,
            )
        finally:
            self._request_hash.value = None
        body_bytes = render_body(response.payload)
        self.registry.counter(
            "repro_serve_renders_total", endpoint=response.endpoint
        ).inc()
        if (
            method == "GET"
            and self.cache is not None
            and response.cacheable
            and response.status == 200
        ):
            self.cache.store(key, content_hash, response, body_bytes)
        return RenderedResponse(response, body_bytes, content_hash)

    def handle(
        self,
        path: str,
        params: dict[str, str],
        method: str = "GET",
        body: object | None = None,
        idempotency_key: str | None = None,
    ) -> ServiceResponse:
        """Dispatch one request; never raises for bad input."""
        try:
            return self._route(
                path, params, method=method, body=body,
                idempotency_key=idempotency_key,
            )
        except AdviceConflict as exc:
            return self._error(409, str(exc), path)
        except StoreError as exc:
            return self._error(400, str(exc), path)

    def unavailable(self, reason: str) -> ServiceResponse:
        """The 503 shape the HTTP layer serves when the store is down."""
        return self._error(
            503,
            "the corpus store is unavailable",
            f"{API_V1_PREFIX}/unavailable",
            detail=reason,
        )

    def request_error(
        self, status: int, message: str, detail: str | None = None
    ) -> ServiceResponse:
        """A protocol-level error (bad body, oversized payload, ...).

        The HTTP layer calls this for failures it detects *before*
        routing.
        """
        return self._error(
            status, message, f"{API_V1_PREFIX}/request", detail=detail
        )

    def _route(
        self,
        path: str,
        params: dict[str, str],
        method: str = "GET",
        body: object | None = None,
        idempotency_key: str | None = None,
    ) -> ServiceResponse:
        """Dispatch against the declarative route table.

        A known path with an unsupported method answers a uniform 405
        envelope carrying the route's ``Allow`` set; ``OPTIONS`` answers
        204 + ``Allow`` without touching the handler.
        """
        for route in ROUTES:
            match = route.pattern.match(path)
            if match is None:
                continue
            endpoint = route.path
            if method == "OPTIONS":
                return ServiceResponse(
                    status=204,
                    payload={},
                    endpoint=endpoint,
                    cacheable=False,
                    headers=(("Allow", route.allow),),
                )
            if method not in route.methods:
                return self._error(
                    405,
                    f"method {method} is not allowed on {endpoint}",
                    endpoint,
                    detail=f"allowed: {route.allow}",
                    headers=(("Allow", route.allow),),
                )
            groups = match.groupdict()
            request = RouteRequest(
                route=route,
                method=method,
                params=params,
                ref=_resolve_ref(groups["ref"]) if "ref" in groups else None,
                body=body,
                idempotency_key=idempotency_key,
            )
            return getattr(self, route.handler)(request)
        return self._error(404, f"no such route: {path}", "unknown")

    # -- shapes ------------------------------------------------------------

    def _error(
        self, status: int, message: str, endpoint: str,
        detail: str | None = None,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> ServiceResponse:
        """Every error answers in the structured envelope."""
        return ServiceResponse(
            status=status,
            payload={
                "error": {
                    "code": _error_code_for(status),
                    "message": message,
                    "detail": detail,
                }
            },
            endpoint=endpoint,
            cacheable=False,
            headers=headers,
        )

    @staticmethod
    def _page_limit(params: dict[str, str]) -> int:
        """A list route's page size; an ``offset=`` is refused, not ignored
        (a client walking by offset would otherwise get page 1 forever)."""
        if "offset" in params:
            raise StoreError(
                "offset pagination was removed; page with cursor= by"
                " following next"
            )
        raw = params.get("limit")
        if raw is None:
            return DEFAULT_PAGE_LIMIT
        try:
            limit = int(raw)
        except ValueError:
            raise StoreError(f"limit must be an integer, got {raw!r}")
        if not 1 <= limit <= MAX_PAGE_LIMIT:
            raise StoreError(f"limit must be in 1..{MAX_PAGE_LIMIT}, got {limit}")
        return limit

    @staticmethod
    def _cursor_link(
        base: str, params: dict[str, str], next_cursor: str | None, limit: int
    ) -> str | None:
        """The relative URL continuing a cursor walk (None when done).

        Filter parameters survive the hop; the query is canonicalized
        (sorted) so the link — and with it the page's ETag — is
        deterministic.
        """
        if next_cursor is None:
            return None
        query = dict(params)
        query["cursor"] = next_cursor
        query["limit"] = str(limit)
        return f"{base}?{urlencode(sorted(query.items()))}"

    # -- routes ------------------------------------------------------------

    def _projects(self, req: RouteRequest) -> ServiceResponse:
        params = req.params
        limit = self._page_limit(params)
        raw_cursor = params.get("cursor")
        cursor = (
            decode_project_cursor(raw_cursor) if raw_cursor is not None else None
        )
        ranges = []
        for key, value in params.items():
            if key.startswith(("min_", "max_")):
                bound, metric = key.split("_", 1)
                if metric not in METRIC_COLUMNS:
                    raise StoreError(f"unknown metric filter {key!r}")
                try:
                    number = float(value)
                except ValueError:
                    raise StoreError(f"{key} must be numeric, got {value!r}")
                ranges.append(
                    MetricRange(
                        metric,
                        minimum=number if bound == "min" else None,
                        maximum=number if bound == "max" else None,
                    )
                )
        page = self.store.query_projects(
            taxon=params.get("taxon"),
            outcome=params.get("outcome"),
            dialect=params.get("dialect"),
            ranges=ranges,
            limit=limit,
            cursor=cursor,
        )
        base = req.route.path
        next_cursor = (
            encode_project_cursor(page.next_cursor)
            if page.next_cursor is not None
            else None
        )
        # "offset" stays a constant 0 so cursor bodies keep their bytes.
        return ServiceResponse(
            status=200,
            payload={
                "total": page.total,
                "offset": 0,
                "limit": page.limit,
                "projects": [project.payload() for project in page.projects],
                "next_cursor": next_cursor,
                "next": self._cursor_link(base, params, next_cursor, limit),
            },
            endpoint=base,
        )

    def _failures(self, req: RouteRequest) -> ServiceResponse:
        params = req.params
        limit = self._page_limit(params)
        raw_cursor = params.get("cursor")
        total = self.store.failure_count()
        page = self.store.query_failures(
            cursor=(
                decode_failure_cursor(raw_cursor) if raw_cursor is not None else None
            ),
            limit=limit,
        )
        base = req.route.path
        next_cursor = (
            encode_failure_cursor(page.next_cursor)
            if page.next_cursor is not None
            else None
        )
        return ServiceResponse(
            status=200,
            payload={
                "total": total,
                "offset": 0,
                "limit": limit,
                "next": self._cursor_link(base, params, next_cursor, limit),
                "next_cursor": next_cursor,
                "failures": [failure.payload() for failure in page.failures],
            },
            endpoint=base,
        )

    def _project(self, req: RouteRequest) -> ServiceResponse:
        ref, endpoint = req.ref, req.route.path
        stored = self.store.get_project(ref)
        if stored is None:
            return self._error(404, f"unknown project: {ref}", endpoint)
        payload = stored.payload()
        payload["versions"] = self.store.version_rows(ref)
        return ServiceResponse(status=200, payload=payload, endpoint=endpoint)

    def _heartbeat(self, req: RouteRequest) -> ServiceResponse:
        ref, endpoint = req.ref, req.route.path
        stored = self.store.get_project(ref)
        if stored is None:
            return self._error(404, f"unknown project: {ref}", endpoint)
        rows = self.store.heartbeat_rows(ref) or []
        return ServiceResponse(
            status=200,
            payload={
                "id": stored.id,
                "project": stored.name,
                "taxon": stored.taxon,
                "transitions": len(rows),
                "heartbeat": rows,
            },
            endpoint=endpoint,
        )

    def _taxa(self, req: RouteRequest) -> ServiceResponse:
        return ServiceResponse(
            status=200,
            payload={
                "taxa": self.store.taxa_summary(),
                "by_dialect": self.store.taxa_by_dialect(),
            },
            endpoint=req.route.path,
        )

    def _stats(self, req: RouteRequest) -> ServiceResponse:
        payload = self.store.aggregates()
        request_hash = getattr(self._request_hash, "value", None)
        payload["content_hash"] = (
            request_hash if request_hash is not None else self.store.content_hash()
        )
        if self.cluster_workers is not None:
            payload["cluster"] = {"workers": self.cluster_workers}
        payload["api"] = {"version": API_VERSION, "routes": len(ROUTES)}
        return ServiceResponse(status=200, payload=payload, endpoint=req.route.path)

    def _openapi(self, req: RouteRequest) -> ServiceResponse:
        from repro import __version__

        return ServiceResponse(
            status=200,
            payload=openapi_document(__version__),
            endpoint=req.route.path,
        )

    def _advise(self, req: RouteRequest) -> ServiceResponse:
        """The write path: persist-or-replay migration advice.

        POST parses the proposal, runs the advisor, and records the
        advice under ``(project, Idempotency-Key)`` in one store
        transaction — the same key with the same body replays the
        *stored bytes* (byte-identical response, ``Idempotency-Replayed``
        header), the same key with a different body answers 409.  A
        request without a key gets a content-derived one
        (``sha256:<body hash>``), making retries of identical bodies
        idempotent by construction.  GET lists the persisted ledger.
        """
        endpoint = req.route.path
        stored = self.store.get_project(req.ref)
        if stored is None:
            return self._error(404, f"unknown project: {req.ref}", endpoint)
        if req.method == "GET":
            records = self.store.advice_records(stored.name)
            return ServiceResponse(
                status=200,
                payload={
                    "project": stored.name,
                    "project_id": stored.id,
                    "total": len(records),
                    "advice": [
                        json.loads(record.response.decode("utf-8"))
                        for record in records
                    ],
                },
                endpoint=endpoint,
                cacheable=False,
            )
        body = req.body
        if not isinstance(body, dict):
            return self._error(400, "the request body must be a JSON object", endpoint)
        ddl = body.get("ddl")
        if not isinstance(ddl, str) or not ddl.strip():
            return self._error(
                400,
                'the request body must carry a non-empty "ddl" string',
                endpoint,
            )
        history = self.store.project_history(stored.name)
        if history is None or not history.history.versions:
            return self._error(
                400,
                f"{stored.name} has no stored schema history to advise against",
                endpoint,
            )
        body_sha256 = hashlib.sha256(render_body(body)).hexdigest()
        key = req.idempotency_key or f"sha256:{body_sha256}"
        # Fast path: a replay never burns an advisor run (or, under the
        # sharded store, a global advice id).
        existing = self.store.lookup_advice(stored.name, key)
        if existing is not None and existing.body_sha256 == body_sha256:
            return ServiceResponse(
                status=200,
                payload=json.loads(existing.response.decode("utf-8")),
                endpoint=endpoint,
                cacheable=False,
                headers=(
                    ("Idempotency-Key", key),
                    ("Idempotency-Replayed", "true"),
                ),
            )
        try:
            advice = advise(
                history,
                ddl,
                project_id=stored.id,
                taxon=stored.taxon,
                heartbeat_rows=self.store.heartbeat_rows(stored.name) or [],
            )
        except AdvisorError as exc:
            return self._error(400, str(exc), endpoint)

        def build_response(advice_id: int) -> bytes:
            return render_body(
                {"advice_id": advice_id, "idempotency_key": key, **advice.payload()}
            )

        record, replayed = self.store.record_advice(
            project_id=stored.id,
            project=stored.name,
            idempotency_key=key,
            body_sha256=body_sha256,
            build_response=build_response,
        )
        headers = [("Idempotency-Key", key)]
        if replayed:
            headers.append(("Idempotency-Replayed", "true"))
        return ServiceResponse(
            status=200,
            payload=json.loads(record.response.decode("utf-8")),
            endpoint=endpoint,
            cacheable=False,
            headers=tuple(headers),
        )
