"""The pre-fork serving cluster: N shared-nothing workers, one port.

One ``ThreadingHTTPServer`` process tops out when Python's GIL
serializes its handler threads.  The classic escape — the same one
nginx, uWSGI and every production Python server use — is pre-fork with
``SO_REUSEPORT``: N worker *processes* each bind their own listening
socket to the same ``(host, port)`` and the kernel load-balances
incoming connections across them.  No shared accept lock, no in-process
router, nothing to contend on:

- **Shared-nothing workers.**  Each worker opens its *own* read-only
  store (via :func:`~repro.store.shard.resolve_store`, so sharded
  corpora just work, with per-shard circuit breakers per worker), its
  own response cache and its own metrics registry.  Workers never talk
  to each other.
- **A supervisor that only supervises.**  The parent process binds a
  placeholder ``SO_REUSEPORT`` socket first (reserving the port — with
  ``--port 0`` the kernel picks one — without ever ``listen()``-ing,
  so it receives no connections), spawns workers, detects deaths
  through their process sentinels and respawns with a boot-loop guard,
  and coordinates SIGINT/SIGTERM drain.  It serves no HTTP itself.
- **Aggregated observability.**  Every worker periodically relays its
  registry (``MetricsRegistry.dump_state()`` with a ``worker="<i>"``
  label stamped on every series) into an atomic JSON file under the
  cluster's runtime directory.  Whichever worker answers ``/v1/metrics``
  merges the peers' relays with its own live registry
  (``merge_state(..., include_gauges=True)`` — the worker labels keep
  gauges collision-free) plus the supervisor's state file, so the
  scraped numbers describe the cluster, not one lucky worker.  Each
  worker also exposes ``repro_serve_worker_id`` and its own
  response-cache hit/miss counters per worker label.
- **Unchanged contracts.**  ETag/304 revalidation, the response cache
  and degraded serving all key on the store's ``content_hash()``, which
  is a pure function of corpus content — every worker derives the same
  ETags, so a client's ``If-None-Match`` revalidates correctly no
  matter which worker the kernel picks.

``repro serve --workers N`` is the CLI entry; ``supervisor.json`` in
the runtime directory is the machine-readable cluster state (CI reads
it to find a victim pid for its kill-a-worker drill).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as sentinel_wait
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.resilience.policy import require_positive_timeout
from repro.serve.metrics import ServiceMetrics
from repro.serve.server import DEFAULT_REQUEST_TIMEOUT, create_server
from repro.serve.service import DEFAULT_CACHE_CAPACITY

#: How often each worker relays its metrics state file (seconds).
RELAY_INTERVAL = 1.0

#: A worker dying within this many seconds of spawn counts as a fast
#: death; MAX_FAST_DEATHS consecutive ones stop the respawn loop (a
#: boot-looping worker — bad store path, port stolen — must surface as
#: an error, not a fork bomb).
FAST_DEATH_WINDOW = 1.0
MAX_FAST_DEATHS = 5

#: Grace period for SIGTERM drain before a worker is SIGKILLed.
DRAIN_GRACE = 10.0

SUPERVISOR_STATE = "supervisor.json"


class ClusterError(RuntimeError):
    """The cluster cannot start or keep running."""


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a worker needs to serve; must stay picklable (spawn)."""

    db: str
    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    verbose: bool = False
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    response_cache: int = DEFAULT_CACHE_CAPACITY
    runtime_dir: str = ""
    relay_interval: float = RELAY_INTERVAL

    def __post_init__(self) -> None:
        require_positive_timeout(self.request_timeout)

    def worker_state_path(self, index: int) -> Path:
        return Path(self.runtime_dir) / f"worker-{index}.json"

    @property
    def supervisor_state_path(self) -> Path:
        return Path(self.runtime_dir) / SUPERVISOR_STATE


def _atomic_write(path: Path, payload: dict | list) -> None:
    """Readers must never see a half-written relay file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def _labeled_state(registry: MetricsRegistry, worker: int) -> list[dict]:
    """The registry's dump with ``worker="<i>"`` stamped on every series."""
    state = registry.dump_state()
    for entry in state:
        entry["labels"] = sorted([*entry["labels"], ("worker", str(worker))])
    return state


class ClusterMetricsView:
    """The /v1/metrics aggregation a worker serves for the whole cluster.

    Merges the worker's *live* registry with every peer's last relayed
    state file and the supervisor's state into a fresh registry per
    render — relays are cumulative snapshots, so building from zero
    each time keeps the merge idempotent.  A missing or torn peer file
    (worker mid-death) is skipped: better a momentarily partial view
    than a failing scrape.
    """

    def __init__(self, config: ClusterConfig, index: int,
                 registry: MetricsRegistry) -> None:
        self.config = config
        self.index = index
        self.registry = registry

    def merged_registry(self) -> MetricsRegistry:
        merged = MetricsRegistry()
        for worker in range(self.config.workers):
            if worker == self.index:
                state = _labeled_state(self.registry, worker)
            else:
                try:
                    raw = self.config.worker_state_path(worker).read_text("utf-8")
                    state = json.loads(raw)
                except (OSError, ValueError):
                    continue
            merged.merge_state(state, include_gauges=True)
        try:
            raw = self.config.supervisor_state_path.read_text("utf-8")
            supervisor = json.loads(raw)
        except (OSError, ValueError):
            supervisor = None
        if supervisor is not None:
            merged.gauge("repro_cluster_workers").set(len(supervisor["workers"]))
            for entry in supervisor["workers"]:
                respawns = entry.get("respawns", 0)
                if respawns:
                    merged.counter(
                        "repro_cluster_respawns_total",
                        worker=str(entry["index"]),
                    ).inc(respawns)
        return merged

    def payload(self) -> dict:
        return ServiceMetrics(self.merged_registry()).payload()

    def prometheus_text(self) -> str:
        return self.merged_registry().prometheus_text()


def _worker_main(config: ClusterConfig, index: int) -> None:
    """One pre-fork worker: bind, serve, relay metrics, drain on signal.

    Runs as the main thread of a spawned process, so it owns its signal
    handlers: SIGTERM/SIGINT trigger a graceful drain (stop accepting,
    finish in-flight requests, write a final metrics relay).
    """
    from repro.store.shard import resolve_store

    registry = MetricsRegistry()
    registry.gauge("repro_serve_worker_id").set(index)
    registry.gauge("repro_serve_worker_pid").set(os.getpid())
    store = resolve_store(config.db, registry=registry)
    server = create_server(
        store,
        host=config.host,
        port=config.port,
        verbose=config.verbose,
        registry=registry,
        request_timeout=config.request_timeout,
        response_cache=config.response_cache,
        reuse_port=True,
        cluster_workers=config.workers,
    )
    server.metrics_view = ClusterMetricsView(config, index, registry)
    state_path = config.worker_state_path(index)
    stop_relay = threading.Event()

    def relay() -> None:
        _atomic_write(state_path, _labeled_state(registry, index))

    def relay_loop() -> None:
        while not stop_relay.wait(config.relay_interval):
            try:
                relay()
            except OSError:  # runtime dir gone mid-shutdown: not fatal
                pass

    relay()  # announce liveness before the first interval elapses
    relay_thread = threading.Thread(target=relay_loop, daemon=True)
    relay_thread.start()

    def _drain(signum, frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _drain)
    try:
        server.serve_forever()
    finally:
        server.server_close()  # joins in-flight handler threads
        stop_relay.set()
        try:
            relay()  # final state: drained counters survive the exit
        except OSError:
            pass
        store.close()


@dataclass
class _WorkerSlot:
    index: int
    process: multiprocessing.process.BaseProcess
    started: float
    respawns: int = 0
    fast_deaths: int = 0


class ClusterSupervisor:
    """Owns the port reservation, the workers, and their lifecycle."""

    def __init__(self, config: ClusterConfig) -> None:
        if config.workers < 1:
            raise ClusterError(f"workers must be >= 1, got {config.workers}")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ClusterError("SO_REUSEPORT is not available on this platform")
        if not config.runtime_dir:
            raise ClusterError("a cluster needs a runtime_dir")
        Path(config.runtime_dir).mkdir(parents=True, exist_ok=True)
        self.config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._slots: list[_WorkerSlot] = []
        self._stopping = threading.Event()
        self._placeholder: socket.socket | None = None

    # -- lifecycle ----------------------------------------------------------

    def _reserve_port(self) -> None:
        """Bind (never listen) a SO_REUSEPORT placeholder.

        Resolves ``--port 0`` to a concrete ephemeral port *before* any
        worker spawns — every worker then binds the same number — and
        keeps the port claimed across worker respawns.  A TCP socket
        that never listens receives no connections, so the kernel only
        balances across the actual workers.
        """
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        try:
            placeholder.bind((self.config.host, self.config.port))
        except OSError:
            placeholder.close()
            raise
        self._placeholder = placeholder
        port = placeholder.getsockname()[1]
        if port != self.config.port:
            self.config = replace(self.config, port=port)

    @property
    def port(self) -> int:
        return self.config.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    def _spawn(self, index: int, respawns: int = 0, fast_deaths: int = 0) -> _WorkerSlot:
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.config, index),
            name=f"repro-serve-worker-{index}",
            daemon=False,
        )
        process.start()
        return _WorkerSlot(
            index=index,
            process=process,
            started=time.monotonic(),
            respawns=respawns,
            fast_deaths=fast_deaths,
        )

    def start(self) -> None:
        self._reserve_port()
        self._slots = [self._spawn(index) for index in range(self.config.workers)]
        self._write_state()

    def _write_state(self) -> None:
        _atomic_write(
            self.config.supervisor_state_path,
            {
                "pid": os.getpid(),
                "host": self.config.host,
                "port": self.config.port,
                "db": self.config.db,
                "workers": [
                    {
                        "index": slot.index,
                        "pid": slot.process.pid,
                        "alive": slot.process.is_alive(),
                        "respawns": slot.respawns,
                    }
                    for slot in self._slots
                ],
            },
        )

    def run(self) -> int:
        """Supervise until told to stop; returns a process exit code.

        Blocks on the workers' death sentinels (no polling loop burning
        CPU).  A dead worker is respawned in place — unless it died
        within :data:`FAST_DEATH_WINDOW` of its spawn
        :data:`MAX_FAST_DEATHS` times in a row, which means it cannot
        boot and the whole cluster stops with an error instead of
        fork-bombing.
        """
        while not self._stopping.is_set():
            sentinels = [slot.process.sentinel for slot in self._slots]
            sentinel_wait(sentinels, timeout=1.0)
            if self._stopping.is_set():
                break
            changed = False
            for position, slot in enumerate(self._slots):
                if slot.process.is_alive():
                    continue
                slot.process.join()
                lifetime = time.monotonic() - slot.started
                fast_deaths = (
                    slot.fast_deaths + 1 if lifetime < FAST_DEATH_WINDOW else 0
                )
                if fast_deaths >= MAX_FAST_DEATHS:
                    self._log(
                        f"worker {slot.index} keeps dying at boot "
                        f"(exitcode {slot.process.exitcode}); stopping cluster"
                    )
                    self.stop()
                    return 1
                self._log(
                    f"worker {slot.index} (pid {slot.process.pid}) died with "
                    f"exitcode {slot.process.exitcode} after {lifetime:.1f}s; "
                    "respawning"
                )
                self._slots[position] = self._spawn(
                    slot.index, respawns=slot.respawns + 1, fast_deaths=fast_deaths
                )
                changed = True
            if changed:
                self._write_state()
        self._drain()
        return 0

    def stop(self) -> None:
        """Ask the supervise loop to exit and drain (idempotent)."""
        self._stopping.set()

    def _drain(self) -> None:
        for slot in self._slots:
            if slot.process.is_alive() and slot.process.pid is not None:
                try:
                    os.kill(slot.process.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + DRAIN_GRACE
        for slot in self._slots:
            slot.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join()
        self._write_state()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"[cluster] {message}", flush=True)


def serve_cluster(config: ClusterConfig) -> int:
    """Run a pre-fork cluster until SIGINT/SIGTERM; returns exit code.

    The supervisor installs the signal handlers; a terminal Ctrl-C also
    reaches the workers directly (same process group) and both paths
    converge on the same drain.
    """
    supervisor = ClusterSupervisor(config)
    supervisor.start()

    def _shutdown(signum, frame) -> None:  # pragma: no cover - signal path
        supervisor.stop()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _shutdown)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        return supervisor.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        supervisor.stop()
        supervisor._drain()
        return 0
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
