"""Per-endpoint request/latency metrics for the serving layer.

The ROADMAP's "heavy traffic" north star starts with being able to see
the traffic.  Every request publishes into one
:class:`~repro.obs.metrics.MetricsRegistry`:

    repro_http_requests_total{endpoint=...,status=...}   counter
    repro_http_request_seconds{endpoint=...}             histogram
    repro_http_response_bytes_total{endpoint=...}        counter

``/v1/metrics`` serves the registry as JSON by default (the classic
per-endpoint table plus the raw ``registry`` snapshot) and as
Prometheus text exposition under content negotiation
(``Accept: text/plain`` — see :mod:`repro.serve.server`).
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry

#: Latency buckets (seconds) sized for a local read-only JSON API.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class ServiceMetrics:
    """Registry-backed request accounting, one series set per endpoint."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def observe(
        self, endpoint: str, status: int, seconds: float, body_bytes: int = 0
    ) -> None:
        self.registry.counter(
            "repro_http_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "repro_http_request_seconds", buckets=LATENCY_BUCKETS, endpoint=endpoint
        ).observe(seconds)
        self.registry.counter(
            "repro_http_response_bytes_total", endpoint=endpoint
        ).inc(body_bytes)

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.prometheus_text()

    def payload(self) -> dict:
        """The JSON ``/v1/metrics`` body: per-endpoint table + raw snapshot.

        Accumulates across *every* series sharing an endpoint, so extra
        labels — a cluster worker's ``worker="<i>"`` tag — fold into one
        honest per-endpoint row instead of the last series winning.
        """
        by_endpoint: dict[str, dict] = {}
        latency: dict[str, dict] = {}
        bytes_sent: dict[str, int | float] = {}
        for labels, metric in self.registry.series("repro_http_requests_total"):
            entry = by_endpoint.setdefault(
                labels["endpoint"], {"requests": 0, "by_status": {}}
            )
            entry["requests"] += metric.value
            status = labels["status"]
            entry["by_status"][status] = entry["by_status"].get(status, 0) + metric.value
        for labels, metric in self.registry.series("repro_http_request_seconds"):
            assert isinstance(metric, Histogram)
            acc = latency.setdefault(
                labels["endpoint"],
                {"sum": 0.0, "count": 0, "min": float("inf"), "max": 0.0},
            )
            acc["sum"] += metric.sum
            acc["count"] += metric.count
            if metric.count:
                acc["min"] = min(acc["min"], metric.minimum)
                acc["max"] = max(acc["max"], metric.maximum)
        for labels, metric in self.registry.series("repro_http_response_bytes_total"):
            endpoint = labels["endpoint"]
            bytes_sent[endpoint] = bytes_sent.get(endpoint, 0) + metric.value
        for endpoint in latency:
            by_endpoint.setdefault(endpoint, {"requests": 0, "by_status": {}})
        for endpoint, entry in by_endpoint.items():
            acc = latency.get(endpoint)
            if acc is not None:
                avg = acc["sum"] / acc["count"] if acc["count"] else 0.0
                minimum = acc["min"] if acc["count"] else 0.0
                entry["latency_ms"] = {
                    "avg": round(avg * 1000, 3),
                    "min": round(minimum * 1000, 3),
                    "max": round(acc["max"] * 1000, 3),
                }
            else:
                entry["latency_ms"] = {"avg": 0.0, "min": 0.0, "max": 0.0}
            entry["by_status"] = dict(sorted(entry["by_status"].items()))
            entry["bytes_sent"] = bytes_sent.get(endpoint, 0)
        return {
            "endpoints": dict(sorted(by_endpoint.items())),
            "total_requests": sum(
                entry["requests"] for entry in by_endpoint.values()
            ),
            "registry": self.registry.snapshot(),
        }
