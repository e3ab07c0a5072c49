"""The corpus serving layer (``repro serve``).

A stdlib ``ThreadingHTTPServer`` over one :class:`~repro.store.CorpusStore`.
Every route lives under ``/v1``, driven by the declarative route table
in :mod:`repro.serve.routes`:

=======================================  ======================================
``GET /v1/projects``                     paginated projects; ``taxon=``,
                                         ``outcome=``, ``min_<metric>=`` /
                                         ``max_<metric>=``, ``cursor=``,
                                         ``limit=``; payload carries
                                         ``next``/``next_cursor``/``total``
``GET /v1/projects/{id}``                one project + its version ledger
``GET /v1/projects/{id}/heartbeat``      the per-commit heartbeat rows
``GET/POST /v1/projects/{id}/advise``    the migration advisor: POST a
                                         proposed DDL change for a versioned
                                         up/down script + atypicality
                                         findings (idempotent via
                                         ``Idempotency-Key``); GET the
                                         persisted advice ledger
``GET /v1/taxa``                         per-taxon populations and shares
``GET /v1/stats``                        corpus aggregates + ``api`` block
``GET /v1/failures``                     stored ProjectFailure records with
                                         retry-attempt counts (cursor-paged)
``GET /v1/openapi.json``                 OpenAPI 3.1, generated from the
                                         route table
``GET /v1/metrics``                      the metrics registry: JSON, or
                                         Prometheus text via ``Accept``
=======================================  ======================================

Errors use the structured envelope ``{"error": {"code", "message",
"detail"}}``; every response carries ``X-Api-Version``.  Unknown
methods on known paths answer a uniform 405 with ``Allow``; ``OPTIONS``
answers 204 + ``Allow``.  Release 2.0 removed the unversioned routes
(any path outside ``/v1`` answers 404) and offset pagination (an
``offset=`` parameter answers 400 naming ``cursor``).

``{id}`` is a numeric store id or a URL-encoded project name.  All
cacheable GET responses carry a deterministic ``ETag`` derived from the
store's content hash; ``If-None-Match`` revalidation answers ``304``.
Hot GETs come from an LRU :class:`ResponseCache` keyed on
``(path, canonical query)`` and validated against the store's content
hash, so repeat queries of an unchanged store skip the store read and
the JSON render entirely (hit/miss counters on ``/v1/metrics``).
Requests run bounded by a timeout behind a store-level circuit breaker;
under a store outage GETs degrade to the last ETag-consistent snapshot
(``Warning``/``Retry-After``) or an honest 503, while writes always get
the honest 503 (never stale advice) — and never a hang.
"""

from repro.serve.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterSupervisor,
    serve_cluster,
)
from repro.serve.metrics import LATENCY_BUCKETS, ServiceMetrics
from repro.serve.routes import (
    API_V1_PREFIX,
    API_VERSION,
    ROUTES,
    Route,
    openapi_document,
)
from repro.serve.server import (
    CorpusServer,
    DEFAULT_REQUEST_TIMEOUT,
    GZIP_THRESHOLD,
    MAX_BODY_BYTES,
    PROMETHEUS_CONTENT_TYPE,
    RoutedResult,
    create_server,
    serve_forever,
    start_server,
)
from repro.serve.service import (
    CorpusService,
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    RenderedResponse,
    ResponseCache,
    ServiceResponse,
)

__all__ = [
    "API_V1_PREFIX",
    "API_VERSION",
    "ClusterConfig",
    "ClusterError",
    "ClusterSupervisor",
    "CorpusServer",
    "CorpusService",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_PAGE_LIMIT",
    "DEFAULT_REQUEST_TIMEOUT",
    "GZIP_THRESHOLD",
    "LATENCY_BUCKETS",
    "MAX_BODY_BYTES",
    "MAX_PAGE_LIMIT",
    "PROMETHEUS_CONTENT_TYPE",
    "ROUTES",
    "RenderedResponse",
    "ResponseCache",
    "Route",
    "RoutedResult",
    "ServiceMetrics",
    "ServiceResponse",
    "create_server",
    "openapi_document",
    "serve_cluster",
    "serve_forever",
    "start_server",
]
