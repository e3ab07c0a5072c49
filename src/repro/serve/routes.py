"""The declarative route table: one registry driving dispatch and docs.

Every ``/v1`` route is a :class:`Route` row — path template, compiled
pattern, *per-route method set*, handler name, query parameters — and
everything that used to be scattered across the GET-only dispatch chain
derives from it:

- the service's method-aware dispatch (405 + ``Allow`` for a known path
  with an unknown method, ``OPTIONS`` → 204 + ``Allow``);
- the ``GET /v1/openapi.json`` document (paths, methods, parameters,
  the error-envelope schema), generated rather than hand-maintained so
  it cannot drift from the table;
- the ``"api"`` block on ``/v1/stats`` (version + route count).

Every pattern includes the ``/v1`` prefix, so a path outside it
matches no row and answers 404.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: The integer API version every response advertises
#: (``X-Api-Version`` header, /v1/stats ``api`` block, openapi info).
API_VERSION = 1

#: The one API prefix: every route lives under it.
API_V1_PREFIX = "/v1"


def _compile(template: str) -> re.Pattern:
    """``/projects/{id}/advise`` -> a pattern binding ``{id}`` as ``ref``.

    Parameter-less routes tolerate one trailing slash (matching the
    historical dispatch); parameterised ones do not.
    """
    pattern = ""
    for part in re.split(r"(\{[a-z_]+\})", template):
        if part.startswith("{") and part.endswith("}"):
            pattern += r"(?P<ref>[^/]+)"
        else:
            pattern += re.escape(part)
    if "{" not in template:
        pattern += "/?"
    return re.compile(f"^{pattern}$")


@dataclass(frozen=True)
class Route:
    """One registered route: the single source of truth for its surface."""

    template: str  # path template relative to the /v1 prefix
    methods: frozenset[str]
    handler: str  # CorpusService method name
    summary: str
    query_params: tuple[str, ...] = ()
    request_body: bool = False  # POST carries a JSON body
    pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pattern", _compile(self.path))

    @property
    def path(self) -> str:
        """The full path template; also the route's metrics label."""
        return f"{API_V1_PREFIX}{self.template}"

    @property
    def allow(self) -> str:
        """The ``Allow`` header value: route methods + the implied ones."""
        implied = {"OPTIONS"} | ({"HEAD"} if "GET" in self.methods else set())
        return ", ".join(sorted(self.methods | implied))

    @property
    def path_params(self) -> tuple[str, ...]:
        return tuple(re.findall(r"\{([a-z_]+)\}", self.template))


_PROJECT_FILTERS = (
    "taxon", "outcome", "dialect", "limit", "cursor",
    "min_<metric>", "max_<metric>",
)

#: The registry.  Order is cosmetic (templates are non-overlapping);
#: dispatch tries rows top to bottom.
ROUTES: tuple[Route, ...] = (
    Route(
        template="/projects",
        methods=frozenset({"GET"}),
        handler="_projects",
        summary="Filtered, paginated projects (keyset cursor).",
        query_params=_PROJECT_FILTERS,
    ),
    Route(
        template="/projects/{id}",
        methods=frozenset({"GET"}),
        handler="_project",
        summary="One project's record and schema-version ledger.",
    ),
    Route(
        template="/projects/{id}/heartbeat",
        methods=frozenset({"GET"}),
        handler="_heartbeat",
        summary="The per-commit heartbeat of one project.",
    ),
    Route(
        template="/projects/{id}/advise",
        methods=frozenset({"GET", "POST"}),
        handler="_advise",
        summary=(
            "POST a proposed DDL change for a versioned migration script"
            " and atypicality findings; GET the persisted advice ledger."
        ),
        request_body=True,
    ),
    Route(
        template="/failures",
        methods=frozenset({"GET"}),
        handler="_failures",
        summary="The stored failure ledger (keyset cursor).",
        query_params=("limit", "cursor"),
    ),
    Route(
        template="/taxa",
        methods=frozenset({"GET"}),
        handler="_taxa",
        summary="Population and share-of-studied per taxon.",
    ),
    Route(
        template="/stats",
        methods=frozenset({"GET"}),
        handler="_stats",
        summary="Corpus-level aggregates, content hash and API metadata.",
    ),
    Route(
        template="/openapi.json",
        methods=frozenset({"GET"}),
        handler="_openapi",
        summary="This document: OpenAPI 3.1 generated from the route table.",
    ),
)

#: The structured error envelope every /v1 error response uses.
ERROR_SCHEMA = {
    "type": "object",
    "required": ["error"],
    "properties": {
        "error": {
            "type": "object",
            "required": ["code", "message"],
            "properties": {
                "code": {"type": "string"},
                "message": {"type": "string"},
                "detail": {"type": ["string", "null"]},
            },
        }
    },
}


def _parameters(route: Route) -> list[dict]:
    parameters = [
        {
            "name": name,
            "in": "path",
            "required": True,
            "description": "numeric store id or URL-encoded project name",
            "schema": {"type": "string"},
        }
        for name in route.path_params
    ]
    for name in route.query_params:
        parameters.append(
            {
                "name": name,
                "in": "query",
                "required": False,
                "schema": {"type": "string"},
            }
        )
    return parameters


def openapi_document(app_version: str) -> dict:
    """The OpenAPI 3.1 description of every registered /v1 route."""
    paths: dict[str, dict] = {}
    error_response = {
        "description": "error envelope",
        "content": {
            "application/json": {
                "schema": {"$ref": "#/components/schemas/Error"}
            }
        },
    }
    for route in ROUTES:
        operations: dict[str, dict] = {}
        for method in sorted(route.methods):
            operation = {
                "summary": route.summary,
                "parameters": _parameters(route),
                "responses": {
                    "200": {
                        "description": "success",
                        "content": {
                            "application/json": {"schema": {"type": "object"}}
                        },
                    },
                    "default": error_response,
                },
            }
            if method == "POST" and route.request_body:
                operation["requestBody"] = {
                    "required": True,
                    "content": {
                        "application/json": {
                            "schema": {
                                "type": "object",
                                "required": ["ddl"],
                                "properties": {
                                    "ddl": {
                                        "type": "string",
                                        "description": (
                                            "the full proposed schema as"
                                            " DDL text"
                                        ),
                                    }
                                },
                            }
                        }
                    },
                }
            operations[method.lower()] = operation
        paths[route.path] = operations
    return {
        "openapi": "3.1.0",
        "info": {
            "title": "repro corpus API",
            "version": app_version,
            "x-api-version": API_VERSION,
        },
        "paths": paths,
        "components": {"schemas": {"Error": ERROR_SCHEMA}},
    }
