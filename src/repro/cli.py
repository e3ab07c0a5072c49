"""Command line interface: ``python -m repro <command>``.

Commands
--------
``funnel``      run the collection funnel on a synthetic corpus and
                print the stage counts (E1);
``report``      run every experiment and print the full figure/table
                bundle;
``classify``    parse one or more .sql files given in time order as the
                versions of a schema history, measure them and print
                the taxon (the "bring your own history" entry point);
``project``     show one synthetic project's charts (Fig 2 style);
``export``      run the study and write projects.csv / transitions.csv /
                funnel.json / taxa.json / fig4.json to a directory —
                or, with ``--from-store DB``, re-export the same
                artifacts from an ingested corpus store without
                re-running the funnel;
``ingest``      run the funnel and persist the measured corpus into a
                sqlite corpus store (incremental: an unchanged corpus
                re-measures zero projects); ``--shards K`` partitions
                the store across K sqlite files by project-name hash;
``serve``       serve an ingested store as a read-only JSON HTTP API
                (every route under /v1: projects, heartbeat, taxa,
                stats, failures, metrics; keyset cursor pagination)
                with ETag revalidation, gzip, request timeouts and
                circuit-breaker degradation; ``--response-cache N``
                sizes the hot-path rendered-response cache (0
                disables); ``--workers N``
                pre-forks N shared-nothing SO_REUSEPORT worker
                processes with supervised respawn and aggregated
                cluster metrics;
``loadgen``     replay a seeded, store-derived workload against a
                corpus API (self-hosted against ``--db`` or an external
                ``--url``), closed-loop (``--concurrency``) or
                open-loop (``--rate``, coordinated-omission-corrected
                latencies), and gate the report on a JSON SLO spec
                (``--slo FILE``; violations exit with code 3);
``advise``      run the migration advisor against a stored project: a
                proposed full-schema DDL file in, a versioned up/down
                migration script plus taxon-atypicality findings out —
                the same JSON envelope (and the same persisted advice
                ledger) as ``POST /v1/projects/{id}/advise``;
                ``--key K`` sets the Idempotency-Key (default: derived
                from the body), so re-running replays the stored row.

Every corpus-running command (and ``classify``) shares one option set,
declared once on :class:`RunOptions`: the pipeline knobs ``--jobs N``
(worker processes when ``N > 1``) and ``--stats``, the observability
knobs ``--trace FILE`` (write the run's span trace as JSONL) and
``--profile`` (wrap the run in ``cProfile``, writing ``.pstats`` next
to the trace), the resilience knobs ``--retries N`` (bounded
per-project retries), ``--deadline SECONDS`` (per-project wall budget),
``--inject-faults RATE`` + ``--fault-seed N`` (seeded, reproducible
chaos), and ``--json`` (machine-readable success output on stdout and,
on failure, the structured error envelope ``{"error": {"code",
"message", "detail"}}`` on stderr with a nonzero exit code — the same
envelope the ``/v1`` HTTP surface answers with).  ``loadgen`` takes
only the observability, chaos and ``--json`` flags, ``advise`` only
the observability and ``--json`` ones.  ``repro --version`` prints the
package version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial

from repro import __version__
from repro.core import IncompleteCorpusError, analyze_corpus, classify
from repro.obs import (
    TraceRecorder,
    install_recorder,
    profile_path_for,
    profiled,
    trace,
    uninstall_recorder,
)
from repro.reporting import ExperimentSuite, funnel_text
from repro.synthesis import CorpusSpec, build_corpus
from repro.viz import heartbeat_chart, heartbeat_series, line_chart, schema_size_series


def _parse_dialects(value: str) -> tuple[str, ...]:
    """Parse a comma-separated ``--dialects`` list into canonical names."""
    from repro.sqlddl.dialects import canonical_dialect_name
    from repro.sqlddl.errors import UnsupportedDialectError

    names: list[str] = []
    for raw in value.split(","):
        raw = raw.strip()
        if not raw:
            continue
        try:
            name = canonical_dialect_name(raw)
        except UnsupportedDialectError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if name not in names:
            names.append(name)
    if not names:
        raise argparse.ArgumentTypeError("at least one dialect is required")
    return tuple(names)


def _positive_seconds(value: str) -> float:
    """Parse ``serve --timeout``: a positive number of seconds."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = 0.0
    if not seconds > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {value!r}"
        )
    return seconds


@dataclass(frozen=True)
class RunOptions:
    """The shared option set of every corpus-running command.

    One declaration replaces the old per-command ``_corpus_args`` /
    ``_pipeline_args`` wiring: new flags are added here once and every
    subcommand (``funnel``, ``report``, ``classify``, ``project``,
    ``export``, ``ingest``) picks them up uniformly; ``loadgen`` and
    ``advise`` declare only the groups they act on.
    """

    seed: int = 2019
    scale: float = 1.0
    jobs: int = 1
    stats: bool = False
    trace: str | None = None
    profile: bool = False
    json: bool = False
    retries: int = 1
    deadline: float | None = None
    fault_rate: float = 0.0
    fault_seed: int = 2019
    dialects: tuple[str, ...] = ("mysql",)

    def injector(self, sites: tuple[str, ...] = ("parse", "persist")):
        """The seeded chaos injector these options describe (or None)."""
        if self.fault_rate <= 0:
            return None
        from repro.resilience import FaultInjector

        return FaultInjector(seed=self.fault_seed, rate=self.fault_rate, sites=sites)

    def retry_policy(self):
        from repro.resilience import NO_RETRY, RetryPolicy

        if self.retries <= 1:
            return NO_RETRY
        return RetryPolicy(max_attempts=self.retries, base_delay=0.01, max_delay=0.5)

    @classmethod
    def add_to_parser(
        cls,
        parser: argparse.ArgumentParser,
        corpus: bool = True,
        pipeline: bool = True,
        faults: bool = True,
    ) -> None:
        """Declare the shared flags on *parser*: the synthetic-corpus
        knobs (*corpus*), the measurement pipeline's (*pipeline*), the
        chaos injector's (*faults*), and always the output and
        observability ones, so a command never accepts a flag it
        ignores."""
        if corpus:
            parser.add_argument("--seed", type=int, default=2019, help="corpus seed")
            parser.add_argument(
                "--scale", type=float, default=1.0,
                help="population scale factor (1.0 = paper size)",
            )
            parser.add_argument(
                "--dialects", type=_parse_dialects, default=("mysql",),
                metavar="NAMES",
                help="enabled dialect frontends in preference order, comma-"
                     "separated (mysql, postgresql, sqlite); the default"
                     " mysql-only set reproduces the paper's funnel byte"
                     " for byte",
            )
        if pipeline:
            parser.add_argument(
                "--jobs", type=int, default=1, metavar="N",
                help="measure N projects concurrently on worker processes"
                     " (results are identical for any N)",
            )
            parser.add_argument(
                "--stats", action="store_true",
                help="print pipeline stage timings and cache hit/miss counters",
            )
            parser.add_argument(
                "--retries", type=int, default=1, metavar="N",
                help="attempts per project (1 = no retries); failed projects"
                     " re-run with deterministic backoff",
            )
            parser.add_argument(
                "--deadline", type=float, default=None, metavar="SECONDS",
                help="wall-clock budget per project; exceeding it records a"
                     " ProjectFailure instead of hanging the run",
            )
        if faults:
            parser.add_argument(
                "--inject-faults", type=float, default=0.0, dest="fault_rate",
                metavar="RATE",
                help="chaos mode: deterministically fail RATE of the work at the"
                     " sites the command arms: projects at the parse/persist"
                     " sites for corpus commands, requests at the request site"
                     " for loadgen (seeded by --fault-seed)",
            )
            parser.add_argument(
                "--fault-seed", type=int, default=2019, metavar="N",
                help="seed of the fault injector; equal seeds inject equal faults",
            )
        parser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="write the run's span trace to FILE as JSONL",
        )
        parser.add_argument(
            "--profile", action="store_true",
            help="profile the run with cProfile; writes .pstats next to the trace",
        )
        parser.add_argument(
            "--json", action="store_true",
            help="machine-readable output: JSON results on stdout, the"
                 " structured error envelope on stderr",
        )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Collect the shared options (absent flags keep their defaults,
        so commands without the full set — ``serve`` — parse too)."""
        return cls(
            **{
                f.name: getattr(args, f.name, f.default)
                for f in fields(cls)
            }
        )


class CliError(RuntimeError):
    """A command failure carrying the structured error envelope.

    ``main`` renders it as ``error: <message>`` on stderr — or, under
    ``--json``, as the same ``{"error": {"code", "message", "detail"}}``
    envelope the ``/v1`` HTTP surface answers with — and exits nonzero.
    """

    def __init__(
        self, code: str, message: str, detail: str | None = None, exit_code: int = 1
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail
        self.exit_code = exit_code

    def envelope(self) -> dict:
        return {
            "error": {"code": self.code, "message": self.message, "detail": self.detail}
        }


def _build(args: argparse.Namespace):
    opts: RunOptions = args.options
    spec = CorpusSpec(seed=opts.seed, scale=opts.scale)
    started = time.time()
    with trace("corpus.build", seed=opts.seed, scale=opts.scale):
        corpus = build_corpus(spec)
    report = corpus.run_funnel(
        jobs=opts.jobs,
        retry=opts.retry_policy(),
        project_deadline=opts.deadline,
        injector=opts.injector(),
        dialects=opts.dialects,
    )
    elapsed = time.time() - started
    if not opts.json:
        print(
            f"# corpus seed={opts.seed} scale={opts.scale} "
            f"built+mined in {elapsed:.1f}s\n"
        )
    return corpus, report


def _print_stats(args: argparse.Namespace, report) -> None:
    if args.options.stats and report.stats is not None:
        print()
        print(report.stats.summary())


def _cmd_funnel(args: argparse.Namespace) -> int:
    _, report = _build(args)
    if args.options.json:
        payload = {
            "funnel": dict(report.stage_rows()),
            "rigid_share": round(report.rigid_share, 6),
            "failures": [
                failure.payload()
                for failure in sorted(report.failures, key=lambda f: f.project)
            ],
        }
        if args.options.stats and report.stats is not None:
            payload["stats"] = report.stats.payload()
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(funnel_text(report))
    _print_stats(args, report)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.from_store is not None:
        from repro.store import resolve_store

        with resolve_store(args.from_store) as store:
            if store.project_count() == 0:
                raise CliError(
                    "empty_store",
                    f"store {args.from_store} is empty; run `repro ingest` first",
                )
            print(ExperimentSuite.from_store(store).render_all())
        return 0
    _, report = _build(args)
    analysis = analyze_corpus(report.studied + report.rigid)
    print(ExperimentSuite(report, analysis).render_all())
    _print_stats(args, report)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.pipeline import MeasurementPipeline, PipelineConfig

    opts: RunOptions = args.options
    pipeline = MeasurementPipeline(
        provider=lambda _: None,
        config=PipelineConfig(
            jobs=opts.jobs,
            retry=opts.retry_policy(),
            project_deadline=opts.deadline,
            injector=opts.injector(),
        ),
    )
    raw_versions = []
    for index, path in enumerate(args.files):
        with open(path, encoding="utf-8", errors="replace") as handle:
            # File order stands in for time; identical consecutive files
            # hit the schema cache instead of re-parsing.
            raw_versions.append((path, index * 86_400, handle.read()))
    ctx = pipeline.measure_versions(args.name, args.files[0], raw_versions)
    if ctx.failure is not None:
        raise CliError(
            "measurement_failed",
            f"{ctx.failure.stage} stage failed: {ctx.failure.message}",
            detail=ctx.failure.error,
        )
    metrics = ctx.metrics
    if metrics is None:
        from repro.pipeline import Outcome

        reason = {
            Outcome.ZERO_VERSIONS: "every given file is empty",
            Outcome.NO_CREATE: "no version ever declares a CREATE TABLE",
        }.get(ctx.outcome, "no measurable schema history")
        raise CliError("unmeasurable", reason)
    taxon = classify(metrics)
    print(f"project:        {args.name}")
    print(f"versions:       {metrics.n_commits}")
    print(f"active commits: {metrics.active_commits}")
    print(f"total activity: {metrics.total_activity} attributes")
    print(f"reeds / turf:   {metrics.reeds} / {metrics.turf_commits}")
    print(f"tables:         {metrics.tables_at_start} -> {metrics.tables_at_end}")
    print(f"taxon:          {taxon.value}")
    if opts.stats:
        print()
        print(pipeline.stats.summary())
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    corpus, report = _build(args)
    pool = report.studied
    if args.taxon:
        pool = [p for p in pool if corpus.expected_taxa.get(p.name, None) is not None
                and corpus.expected_taxa[p.name].value == args.taxon]
    if not pool:
        raise CliError(
            "no_such_taxon", f"no project found for taxon {args.taxon!r}"
        )
    project = max(pool, key=lambda p: p.metrics.total_activity)
    print(line_chart(schema_size_series(project.metrics)))
    print()
    print(heartbeat_chart(heartbeat_series(project.metrics)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io import export_from_store, export_study

    if args.from_store is not None:
        from repro.store import resolve_store

        with resolve_store(args.from_store) as store:
            if store.project_count() == 0:
                raise CliError(
                    "empty_store",
                    f"store {args.from_store} is empty; run `repro ingest` first",
                )
            paths = export_from_store(args.out, store)
        for kind, path in paths.items():
            print(f"wrote {kind:<12} {path}")
        return 0
    _, report = _build(args)
    analysis = analyze_corpus(report.studied + report.rigid)
    paths = export_study(args.out, report, analysis, stats=args.options.stats)
    for kind, path in paths.items():
        print(f"wrote {kind:<12} {path}")
    _print_stats(args, report)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store import ingest_corpus, ingest_stream, resolve_store

    opts: RunOptions = args.options
    started = time.time()
    knobs = dict(
        jobs=opts.jobs,
        retry=opts.retry_policy(),
        project_deadline=opts.deadline,
        injector=opts.injector(),
        chunk_size=args.batch_size,
    )
    if args.stream:
        from repro.synthesis.stream import StreamSpec

        spec = StreamSpec(
            seed=opts.seed, count=args.count, profile=args.stream_profile,
            dialects=opts.dialects,
        )
        header = (
            f"# stream seed={opts.seed} count={args.count} "
            f"profile={args.stream_profile} ingested in"
        )
        ingest = partial(ingest_stream, spec=spec, **knobs)
    else:
        with trace("corpus.build", seed=opts.seed, scale=opts.scale):
            corpus = build_corpus(CorpusSpec(seed=opts.seed, scale=opts.scale))
        header = f"# corpus seed={opts.seed} scale={opts.scale} built in"
        ingest = partial(
            ingest_corpus, activity=corpus.activity, lib_io=corpus.lib_io,
            provider=corpus.provider, dialects=opts.dialects, **knobs,
        )
    with resolve_store(args.db, shards=args.shards) as store:
        report = ingest(store)
        if opts.json:
            payload = {
                "ingest": report.payload(),
                "store": {
                    "path": args.db,
                    "projects": store.project_count(),
                    "content_hash": store.content_hash(),
                    "shards": getattr(store, "shard_count", 1),
                },
            }
            if opts.stats and report.stats is not None:
                payload["stats"] = report.stats.payload()
            print(json.dumps(payload, sort_keys=True))
            return 0
        print(f"{header} {time.time() - started:.1f}s")
        print(report.summary())
        sharded = getattr(store, "shard_count", 1)
        shard_note = f", {sharded} shards" if sharded > 1 else ""
        print(f"store: {args.db} ({store.project_count()} projects{shard_note}, "
              f"content hash {store.content_hash()[:16]})")
    if opts.stats and report.stats is not None:
        print()
        print(report.stats.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_forever
    from repro.store import resolve_store

    if args.workers > 1:
        import tempfile

        from repro.serve import ClusterConfig, serve_cluster

        with resolve_store(args.db) as store:
            if store.project_count() == 0:
                raise CliError(
                    "empty_store",
                    f"store {args.db} is empty; run `repro ingest` first",
                )
            projects = store.project_count()
        runtime_dir = args.runtime_dir or tempfile.mkdtemp(prefix="repro-serve-")
        print(
            f"serving {projects} projects from {args.db} "
            f"on http://{args.host}:{args.port} with {args.workers} workers "
            f"(runtime dir {runtime_dir}; Ctrl-C to stop)"
        )
        return serve_cluster(
            ClusterConfig(
                db=args.db,
                host=args.host,
                port=args.port,
                workers=args.workers,
                verbose=not args.quiet,
                request_timeout=args.timeout,
                response_cache=args.response_cache,
                runtime_dir=runtime_dir,
            )
        )
    with resolve_store(args.db) as store:
        if store.project_count() == 0:
            raise CliError(
                "empty_store",
                f"store {args.db} is empty; run `repro ingest` first",
            )
        print(
            f"serving {store.project_count()} projects from {args.db} "
            f"on http://{args.host}:{args.port} (Ctrl-C to stop)"
        )
        serve_forever(
            store,
            host=args.host,
            port=args.port,
            verbose=not args.quiet,
            request_timeout=args.timeout,
            response_cache=args.response_cache,
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import LoadConfig, append_trajectory, load_slo, run_load
    from repro.store import resolve_store

    opts: RunOptions = args.options
    weights = None
    if args.weight:
        from repro.loadgen import DEFAULT_WEIGHTS

        weights = dict(DEFAULT_WEIGHTS)
        for override in args.weight:
            family, _, value = override.partition("=")
            if not value or not value.isdigit():
                raise CliError(
                    "bad_weight",
                    f"--weight takes FAMILY=N with integer N, got {override!r}",
                )
            weights[family] = int(value)  # unknown families fail model-side
    config = LoadConfig(
        seed=opts.seed,
        requests=args.requests,
        mode="open" if args.rate is not None else "closed",
        concurrency=args.concurrency,
        rate=args.rate if args.rate is not None else 50.0,
        think_time=args.think_time,
        duration=args.duration,
        etag_reuse=args.etag_reuse,
        warmup=not args.no_warmup,
        weights=weights,
    )
    slo = None
    if args.slo is not None:
        try:
            slo = load_slo(args.slo)
        except (OSError, ValueError) as exc:
            raise CliError("bad_slo_spec", f"cannot load SLO spec {args.slo}: {exc}")
    with resolve_store(args.db) as store:
        if store.project_count() == 0:
            raise CliError(
                "empty_store",
                f"store {args.db} is empty; run `repro ingest` first",
            )
        report = run_load(
            store,
            config,
            base_url=args.url,
            slo=slo,
            injector=opts.injector(sites=("request",)),
            response_cache=args.response_cache,
        )
    if args.out is not None:
        append_trajectory(args.out, report)
    if opts.json:
        print(json.dumps(report, sort_keys=True))
    else:
        executed = report["executed"]
        target = (
            f" of target {executed['target_rate']:g}"
            if executed["target_rate"] is not None
            else ""
        )
        print(
            f"# loadgen seed={opts.seed} mode={config.mode} "
            f"plan={report['workload']['digest'][:16]}"
        )
        print(
            f"requests: {executed['requests']} ok, {executed['errors']} errors, "
            f"{executed['degraded']} degraded in {executed['wall_seconds']:.2f}s "
            f"({executed['achieved_rps']:g} req/s{target})"
        )
        print(f"statuses: {report['statuses']}")
        latency = report["overall"].get(
            "corrected_latency_ms", report["overall"]["latency_ms"]
        )
        print(
            f"latency:  p50={latency['p50']}ms p90={latency['p90']}ms "
            f"p99={latency['p99']}ms max={latency['max']}ms"
        )
        if slo is not None:
            for check in report["slo"]["checks"]:
                verdict = "ok" if check["passed"] else "VIOLATED"
                print(
                    f"slo:      {check['name']} observed {check['observed']:g} "
                    f"vs limit {check['limit']:g} [{verdict}]"
                )
    if slo is not None and not report["slo"]["passed"]:
        failed = [c["name"] for c in report["slo"]["checks"] if not c["passed"]]
        raise CliError(
            "slo_violated",
            f"SLO gate failed: {', '.join(failed)}",
            detail=json.dumps(report["slo"]),
            exit_code=3,
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from urllib.parse import quote

    from repro.serve import CorpusService
    from repro.store import resolve_store

    opts: RunOptions = args.options
    if args.proposal == "-":
        ddl = sys.stdin.read()
    else:
        try:
            with open(args.proposal, encoding="utf-8") as handle:
                ddl = handle.read()
        except OSError as exc:
            raise CliError("bad_proposal", f"cannot read {args.proposal}: {exc}")
    with resolve_store(args.db) as store:
        # The write path of POST /v1/projects/{id}/advise itself: the
        # same key default, replay, conflict check and advice ledger.
        response = CorpusService(store, cache_capacity=0).handle(
            f"/v1/projects/{quote(args.project, safe='')}/advise",
            {},
            method="POST",
            body={"ddl": ddl},
            idempotency_key=args.key,
        )
    payload = response.payload
    if response.status != 200:
        code = {404: "unknown_project", 409: "idempotency_conflict"}.get(
            response.status, "bad_proposal"
        )
        raise CliError(code, payload["error"]["message"])
    replayed = ("Idempotency-Replayed", "true") in response.headers
    if opts.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    migration = payload["migration"]
    replay_note = " (replayed from the advice ledger)" if replayed else ""
    print(
        f"# advice #{payload['advice_id']} for {payload['project']} "
        f"[{payload['taxon']}]{replay_note}"
    )
    print(
        f"migration v{migration['from_version']} -> v{migration['to_version']} "
        f"({len(migration['operations'])} operation(s), cost {migration['cost']}, "
        f"checksum {migration['checksum']})"
    )
    print(f"-- up\n{migration['up']}")
    print(f"-- down\n{migration['down']}")
    if payload["findings"]:
        print("findings:")
        for finding in payload["findings"]:
            print(f"  [{finding['severity']}] {finding['code']}: "
                  f"{finding['message']}")
    else:
        print("findings: none — the proposal is in profile")
    if payload["atypical"]:
        print("verdict: ATYPICAL for this project's evolution profile")
    else:
        print("verdict: in profile")
    return 0


@contextmanager
def _observed(options: RunOptions, command: str):
    """Arm the run's observability: trace recorder and/or profiler.

    The trace JSONL is written (and announced on stderr) after the
    command returns, so the file always holds the complete span set.
    """
    recorder = TraceRecorder() if options.trace else None
    if recorder is not None:
        install_recorder(recorder)
    profile_path = profile_path_for(options.trace, command) if options.profile else None
    try:
        with profiled(profile_path):
            with trace(f"cli.{command}"):
                yield
    finally:
        if recorder is not None:
            uninstall_recorder()
            recorder.write(options.trace)
            print(
                f"wrote trace {options.trace} ({len(recorder)} spans)",
                file=sys.stderr,
            )
        if profile_path is not None:
            print(f"wrote profile {profile_path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    funnel = sub.add_parser("funnel", help="run the collection funnel")
    RunOptions.add_to_parser(funnel)
    funnel.set_defaults(func=_cmd_funnel)

    report = sub.add_parser("report", help="run every experiment")
    RunOptions.add_to_parser(report)
    report.add_argument(
        "--from-store", default=None, metavar="DB",
        help="render the report from an ingested corpus store instead of re-measuring",
    )
    report.set_defaults(func=_cmd_report)

    classify_cmd = sub.add_parser("classify", help="classify a DDL version history")
    classify_cmd.add_argument("files", nargs="+", help=".sql files, oldest first")
    classify_cmd.add_argument("--name", default="local/project", help="project label")
    RunOptions.add_to_parser(classify_cmd, corpus=False)
    classify_cmd.set_defaults(func=_cmd_classify)

    project = sub.add_parser("project", help="chart one synthetic project")
    RunOptions.add_to_parser(project)
    project.add_argument("--taxon", default="active", help="taxon to pick from")
    project.set_defaults(func=_cmd_project)

    export = sub.add_parser("export", help="export study artifacts (CSV/JSON)")
    RunOptions.add_to_parser(export)
    export.add_argument("--out", default="study-export", help="output directory")
    export.add_argument(
        "--from-store", default=None, metavar="DB",
        help="re-export from an ingested corpus store instead of re-running the funnel",
    )
    export.set_defaults(func=_cmd_export)

    ingest = sub.add_parser(
        "ingest", help="run the funnel and persist the corpus into a sqlite store"
    )
    RunOptions.add_to_parser(ingest)
    ingest.add_argument(
        "--db", default="corpus.db", metavar="PATH", help="corpus store path"
    )
    ingest.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="partition the store across K sqlite shard files (id-hash on"
             " project name); an existing sharded store is autodetected",
    )
    ingest.add_argument(
        "--stream", action="store_true",
        help="stream-synthesize the corpus instead of materializing it:"
             " projects are generated, measured and persisted one batch at"
             " a time with constant memory, and an interrupted run resumes"
             " from its last completed batch",
    )
    ingest.add_argument(
        "--count", type=int, default=1000, metavar="N",
        help="number of projects to stream-synthesize (with --stream)",
    )
    ingest.add_argument(
        "--stream-profile", default="light", choices=["light", "paper"],
        help="calibration profile for --stream: 'light' preserves the"
             " taxon-classification signature at ~1/100th the cost of the"
             " paper-fidelity archetypes, but synthesizes only four of the"
             " six studied taxa, so `report` and `export` on its store end"
             " in incomplete_corpus; 'paper' synthesizes all six, and its"
             " stores render",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="projects per batch transaction (default: scales with --jobs)",
    )
    ingest.set_defaults(func=_cmd_ingest)

    serve = sub.add_parser(
        "serve", help="serve an ingested corpus store as a read-only JSON API"
    )
    serve.add_argument(
        "--db", default="corpus.db", metavar="PATH", help="corpus store path"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port")
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve.add_argument(
        "--timeout", type=_positive_seconds, default=5.0, metavar="SECONDS",
        help="per-request store deadline before degrading (must be > 0)",
    )
    serve.add_argument(
        "--response-cache", type=int, default=256, metavar="N",
        help="rendered-response cache entries for cacheable routes (0 disables)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="on failure, print the structured error envelope on stderr",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="pre-fork N SO_REUSEPORT worker processes (1 = in-process server)",
    )
    serve.add_argument(
        "--runtime-dir", default=None, metavar="DIR",
        help="cluster state directory (supervisor.json, per-worker metrics"
             " relays); defaults to a fresh temp dir",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a seeded workload against a corpus API and gate it on SLOs",
    )
    loadgen.add_argument(
        "--db", default="corpus.db", metavar="PATH",
        help="corpus store the workload model derives from (and, without"
             " --url, the store a server is self-hosted against)",
    )
    loadgen.add_argument(
        "--url", default=None, metavar="URL",
        help="target an already-running server instead of self-hosting one",
    )
    loadgen.add_argument("--seed", type=int, default=2019, help="workload seed")
    loadgen.add_argument(
        "--requests", type=int, default=500, metavar="N",
        help="planned request count (same seed + store = same sequence)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="closed-loop wall cap; the run stops early when it expires",
    )
    loadgen.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="open-loop target request rate (switches from closed-loop mode;"
             " latencies are coordinated-omission corrected)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, metavar="N", help="worker threads"
    )
    loadgen.add_argument(
        "--think-time", type=float, default=0.0, metavar="SECONDS",
        help="closed-loop pause between a worker's requests (seeded jitter)",
    )
    loadgen.add_argument(
        "--etag-reuse", type=float, default=0.3, metavar="FRACTION",
        help="share of requests revalidating with If-None-Match",
    )
    loadgen.add_argument(
        "--no-warmup", action="store_true",
        help="skip the unique-path prefetch that makes 304 counts deterministic",
    )
    loadgen.add_argument(
        "--slo", default=None, metavar="FILE",
        help="gate the run on a JSON SLO spec; violations exit with code 3",
    )
    loadgen.add_argument(
        "--out", default=None, metavar="FILE",
        help="append the report to a trajectory JSON file",
    )
    loadgen.add_argument(
        "--response-cache", type=int, default=None, metavar="N",
        help="cache size of the self-hosted server (ignored with --url)",
    )
    loadgen.add_argument(
        "--weight", action="append", default=None, metavar="FAMILY=N",
        help="override one family's weight (repeatable; e.g. --weight"
             " advise=5 opts the seeded write family into the mix)",
    )
    RunOptions.add_to_parser(loadgen, corpus=False, pipeline=False)
    loadgen.set_defaults(func=_cmd_loadgen)

    advise = sub.add_parser(
        "advise",
        help="run the migration advisor against a stored project",
    )
    advise.add_argument(
        "proposal", metavar="FILE",
        help="the proposed full schema as DDL text ('-' reads stdin)",
    )
    advise.add_argument(
        "--db", default="corpus.db", metavar="PATH", help="corpus store path"
    )
    advise.add_argument(
        "--project", required=True, metavar="REF",
        help="numeric store id or project name",
    )
    advise.add_argument(
        "--key", default=None, metavar="K",
        help="Idempotency-Key; equal key + equal body replays the stored"
             " advice (default: a key derived from the body hash)",
    )
    RunOptions.add_to_parser(advise, corpus=False, pipeline=False, faults=False)
    advise.set_defaults(func=_cmd_advise)

    args = parser.parse_args(argv)
    args.options = RunOptions.from_args(args)
    try:
        with _observed(args.options, args.command):
            return args.func(args)
    except IncompleteCorpusError as exc:  # report and export render every taxon
        return _fail(args.options, CliError("incomplete_corpus", str(exc)))
    except CliError as exc:
        return _fail(args.options, exc)


def _fail(options: RunOptions, exc: CliError) -> int:
    """Print *exc* as ``main`` promises and return its exit code."""
    if options.json:
        print(json.dumps(exc.envelope(), sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc.message}", file=sys.stderr)
    return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
