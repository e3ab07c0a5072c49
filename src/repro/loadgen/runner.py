"""The load-run orchestrator: plan, warm up, drive, report, gate.

:func:`run_load` is the one entry point the CLI, tests and benchmarks
share.  Given a store (for the workload model) and a
:class:`LoadConfig`, it:

1. derives a :class:`~repro.loadgen.workload.WorkloadModel` and plans
   the request sequence (seeded — same seed, same store, same plan);
2. optionally warms up by prefetching every unique planned path once,
   in sorted order, so each path's ``ETag`` is known before the
   measured run — making the 304 revalidation counts deterministic
   instead of racing the first 200;
3. drives the plan closed-loop or open-loop against either a
   self-hosted in-process server (:func:`hosted_server`, real HTTP over
   an ephemeral port) or an external ``base_url``;
4. assembles a JSON-friendly report and, when an
   :class:`~repro.loadgen.slo.SloSpec` is given, gates it.

Everything in the report except ``wall_seconds``, ``achieved_rps`` and
the ``latency_ms`` blocks is a pure function of (seed, store contents,
server behaviour) — the determinism tests compare exactly that.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from repro.loadgen.drivers import (
    DEFAULT_TRANSPORT_TIMEOUT,
    ClosedLoopDriver,
    EtagTable,
    HttpTransport,
    Observer,
    OpenLoopDriver,
)
from repro.loadgen.record import LatencyRecorder
from repro.loadgen.slo import SloSpec, SloVerdict, evaluate
from repro.loadgen.workload import (
    DEFAULT_ETAG_REUSE,
    PlannedRequest,
    WorkloadModel,
    plan_digest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace
from repro.resilience.faults import FaultInjector
from repro.serve.server import start_server
from repro.store.store import CorpusStore


@dataclass(frozen=True)
class LoadConfig:
    """Everything that shapes one load run (all of it reported back)."""

    seed: int = 2019
    requests: int = 200
    mode: str = "closed"  # "closed" (concurrency-bound) | "open" (rate-bound)
    concurrency: int = 4
    rate: float = 50.0  # open-loop target req/s
    think_time: float = 0.0  # closed-loop pause between requests
    duration: float | None = None  # closed-loop wall cap (seconds)
    etag_reuse: float = DEFAULT_ETAG_REUSE
    warmup: bool = True
    timeout: float = DEFAULT_TRANSPORT_TIMEOUT
    weights: dict[str, int] | None = None  # None = the default mix

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")


@contextmanager
def hosted_server(store: CorpusStore, **kwargs) -> Iterator[str]:
    """Self-host a real corpus server on an ephemeral port, yield its URL."""
    server, thread = start_server(store, port=0, **kwargs)
    try:
        yield server.url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def warm_paths(
    plan: list[PlannedRequest],
    transport: HttpTransport,
    etags: EtagTable,
) -> int:
    """Prefetch every unique planned GET path once, in sorted order.

    Seeds the ETag table so revalidate-flagged requests always carry
    ``If-None-Match`` during the measured run; returns how many paths
    were touched.  Warmup requests are not recorded.  Write requests
    never warm — a warmup POST would consume the plan's idempotency
    keys before the measured run.
    """
    paths = sorted(
        {request.path for request in plan if request.method == "GET"}
    )
    for path in paths:
        result = transport.send(path, {})
        if result.error is None:
            etags.put(path, result.etag)
    return len(paths)


def run_load(
    store: CorpusStore,
    config: LoadConfig | None = None,
    base_url: str | None = None,
    slo: SloSpec | None = None,
    registry: MetricsRegistry | None = None,
    injector: FaultInjector | None = None,
    observer: Observer | None = None,
    response_cache: int | None = None,
) -> dict:
    """Run one seeded load and return the full report payload.

    *base_url* targets an already-running server; when ``None`` a real
    server is self-hosted in-process against *store* for the run's
    duration (*response_cache* sizes its cache; ``None`` = default).
    The workload model always derives from *store*, so an external
    target must serve the same corpus for the plan to make sense.
    """
    config = config if config is not None else LoadConfig()
    model = WorkloadModel.from_store(
        store, seed=config.seed, weights=config.weights,
        etag_reuse=config.etag_reuse,
    )
    plan = model.plan(config.requests)

    if base_url is None:
        kwargs = {}
        if response_cache is not None:
            kwargs["response_cache"] = response_cache
        with hosted_server(store, **kwargs) as url:
            return _drive(model, plan, url, config, slo, registry, injector, observer)
    return _drive(model, plan, base_url, config, slo, registry, injector, observer)


def _drive(
    model: WorkloadModel,
    plan: list[PlannedRequest],
    base_url: str,
    config: LoadConfig,
    slo: SloSpec | None,
    registry: MetricsRegistry | None,
    injector: FaultInjector | None,
    observer: Observer | None,
) -> dict:
    recorder = LatencyRecorder(registry)
    etags = EtagTable()
    transport = HttpTransport(base_url, timeout=config.timeout)
    executed: list[PlannedRequest] = []

    def tracking_observer(request, result) -> None:
        executed.append(request)
        if observer is not None:
            observer(request, result)

    try:
        warmed = 0
        if config.warmup:
            with trace("loadgen.warmup"):
                warmed = warm_paths(plan, transport, etags)
        if config.mode == "open":
            driver = OpenLoopDriver(
                rate=config.rate, workers=config.concurrency, seed=config.seed
            )
        else:
            driver = ClosedLoopDriver(
                workers=config.concurrency,
                think_time=config.think_time,
                duration=config.duration,
                seed=config.seed,
            )
        with trace("loadgen.drive") as span:
            result = driver.run(
                plan, transport, recorder, etags=etags,
                injector=injector, observer=tracking_observer,
            )
            if span is not None:
                span.attrs["executed"] = result.executed
    finally:
        transport.close()

    recorded = recorder.payload()
    executed_sorted = sorted(executed, key=lambda request: request.index)
    report: dict = {
        "config": {
            **asdict(config),
            "base_url": base_url,
            "fault_rate": injector.rate if injector is not None else 0.0,
        },
        "workload": {
            "digest": plan_digest(plan),
            "planned": len(plan),
            "families": model.family_counts(plan),
            "warmed_paths": warmed,
        },
        "executed": {
            "attempted": result.executed,
            "requests": recorder.requests,
            "errors": recorder.error_count,
            "degraded": recorder.degraded_count,
            "digest": plan_digest(executed_sorted),
            "wall_seconds": round(result.wall_seconds, 4),
            "achieved_rps": round(result.achieved_rps, 2),
            "target_rate": result.target_rate,
        },
        "statuses": recorder.status_counts(),
        "families": recorded["families"],
        "overall": recorded["overall"],
    }
    if slo is not None:
        verdict: SloVerdict = evaluate(slo, report)
        report["slo"] = verdict.payload()
    return report


def comparable_fields(report: dict) -> dict:
    """The report minus its wall-clock-dependent fields.

    Two same-seed runs against the same store must agree on exactly
    this projection — the determinism tests and the CI smoke job both
    compare it.
    """
    executed = {
        k: v
        for k, v in report.get("executed", {}).items()
        if k not in ("wall_seconds", "achieved_rps")
    }
    families = {
        family: {k: v for k, v in entry.items() if not k.endswith("latency_ms")}
        for family, entry in report.get("families", {}).items()
    }
    overall = {
        k: v
        for k, v in report.get("overall", {}).items()
        if not k.endswith("latency_ms")
    }
    out = {
        "workload": report.get("workload"),
        "executed": executed,
        "statuses": report.get("statuses"),
        "families": families,
        "overall": overall,
    }
    if "slo" in report:
        # Observed latency/throughput numbers vary run to run; the
        # verdict (which checks ran, pass/fail) must not.
        out["slo"] = {
            "passed": report["slo"]["passed"],
            "checks": [
                {"name": check["name"], "passed": check["passed"]}
                for check in report["slo"]["checks"]
            ],
        }
    return out


def machine() -> dict:
    """Who measured: numbers are only comparable on like hardware."""
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {"cores": cores, "python": platform.python_version()}


def append_trajectory(path: str | Path, results: dict) -> None:
    """Append one ``{"unix_time", "machine", "results"}`` entry to a
    ``BENCH_*.json`` trajectory file (the one writer of those files)."""
    path = Path(path)
    try:
        history = json.loads(path.read_text()).get("trajectory", [])
    except (OSError, json.JSONDecodeError):
        history = []  # a torn or absent file starts a fresh trajectory
    history.append(
        {"unix_time": int(time.time()), "machine": machine(), "results": results}
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"trajectory": history}, indent=2) + "\n")
