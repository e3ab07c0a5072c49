"""Tests for the command line interface.

Includes the CLI contract: every subcommand parses ``--help``, the
shared :class:`~repro.cli.RunOptions` flags are accepted uniformly,
``--version`` prints the package version, and the ``--trace`` /
``--stats`` payloads validate against their documented schemas.
"""

import json
import re

import pytest

import repro
from repro.cli import RunOptions, main

SUBCOMMANDS = (
    "funnel", "report", "classify", "project", "export", "ingest", "serve",
    "loadgen", "advise",
)

#: The positional arguments each subcommand requires.
REQUIRED_ARGS = {"classify": ["v0.sql"], "advise": ["p.sql", "--project", "x"]}

#: ``(command, flag)`` pairs argparse rejects: ``--jobs`` alone decides how
#: projects run, the schema cache lives in memory only, and no command
#: declares a shared flag it would ignore.
PIPELINE_FLAGS = ("--jobs", "--stats", "--retries", "--deadline")
UNDECLARED_FLAGS = [
    *(
        (command, flag)
        for flag in ("--executor", "--cache-dir")
        for command in SUBCOMMANDS
    ),
    *(("loadgen", flag) for flag in PIPELINE_FLAGS),
    *(("advise", flag) for flag in (*PIPELINE_FLAGS, "--inject-faults", "--fault-seed")),
]

#: Documented schema of ``--stats`` / ``pipeline_stats.json`` payloads
#: (see docs/API.md, "Observability").
STATS_PAYLOAD_KEYS = {
    "jobs", "projects", "completed", "failures", "wall_seconds",
    "cpu_seconds", "stage_seconds", "stage_projects", "partition", "cache",
    "registry",
}


class TestClassify:
    def test_classify_single_file(self, tmp_path, capsys):
        sql = tmp_path / "schema.sql"
        sql.write_text("CREATE TABLE t (a INT);")
        assert main(["classify", str(sql)]) == 0
        out = capsys.readouterr().out
        assert "history-less" in out

    def test_classify_history(self, tmp_path, capsys):
        v0 = tmp_path / "v0.sql"
        v1 = tmp_path / "v1.sql"
        v0.write_text("CREATE TABLE t (a INT);")
        v1.write_text("CREATE TABLE t (a INT, b INT, c INT);")
        assert main(["classify", str(v0), str(v1), "--name", "me/app"]) == 0
        out = capsys.readouterr().out
        assert "me/app" in out
        assert "almost frozen" in out
        assert "total activity: 2" in out

    def test_classify_stats_count_the_one_measured_project(self, tmp_path, capsys):
        paths = []
        for index in range(2):
            columns = ", ".join(f"c{c} INT" for c in range(index + 5))
            path = tmp_path / f"v{index}.sql"
            path.write_text("".join(f"CREATE TABLE t{t} ({columns});" for t in range(200)))
            paths.append(str(path))
        assert main(["classify", *paths, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pipeline: 1 projects, jobs=1, 0 failed" in out
        wall = re.search(r"^wall (\d+\.\d+)s", out, re.MULTILINE)
        assert wall is not None and float(wall.group(1)) > 0

    def test_classify_large_shot(self, tmp_path, capsys):
        v0 = tmp_path / "v0.sql"
        v1 = tmp_path / "v1.sql"
        v0.write_text("CREATE TABLE t (a INT);")
        columns = ", ".join(f"c{i} INT" for i in range(20))
        v1.write_text(f"CREATE TABLE t (a INT, {columns});")
        main(["classify", str(v0), str(v1)])
        out = capsys.readouterr().out
        assert "focused shot and frozen" in out
        assert "reeds / turf:   1 / 0" in out


class TestFunnelAndReport:
    def test_funnel_tiny_scale(self, capsys):
        assert main(["funnel", "--scale", "0.02", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "SQL-Collection repositories" in out

    def test_project_chart(self, capsys):
        assert main(["project", "--scale", "0.05", "--seed", "3", "--taxon", "active"]) == 0
        out = capsys.readouterr().out
        assert "heartbeat" in out

    def test_project_unknown_taxon(self, capsys):
        assert main(["project", "--scale", "0.02", "--seed", "3", "--taxon", "nonsense"]) == 1

    def test_export(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["export", "--scale", "0.02", "--seed", "3", "--out", str(out)]) == 0
        assert (out / "projects.csv").exists()
        assert (out / "fig4.json").exists()


class TestArgParsing:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_removed_thread_executor_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["funnel", "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --executor thread" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_serve_timeout_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--timeout", value])
        assert excinfo.value.code == 2
        assert "argument --timeout: expected a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", UNDECLARED_FLAGS)
    def test_undeclared_flags_are_usage_errors(self, command, flag, capsys):
        value = [] if flag == "--stats" else ["1"]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *REQUIRED_ARGS.get(command, ()), flag, *value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCliContract:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_parses_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ("funnel", "report", "classify", "project", "export", "ingest")
    )
    def test_shared_flags_are_uniform(self, command, capsys):
        """Every RunOptions flag appears in every pipeline command's help."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--jobs", "--stats", "--trace", "--profile",
            "--json", "--retries", "--deadline", "--inject-faults", "--fault-seed",
        ):
            assert flag in out, f"{command} lacks {flag}"
        if command != "classify":  # bring-your-own-history: no corpus knobs
            assert "--seed" in out and "--scale" in out

    def test_fault_help_names_the_sites_each_command_arms(self, capsys):
        for command in ("funnel", "classify", "ingest", "loadgen"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert "parse/persist sites for corpus commands" in out, command
            assert "request site for loadgen" in out, command

    def test_serve_has_timeout_and_json_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--timeout" in out and "--json" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_run_options_defaults_survive_commands_without_the_flags(self):
        import argparse

        options = RunOptions.from_args(argparse.Namespace(db="x.db"))
        assert options == RunOptions()

    def test_trace_payload_validates_against_schema(self, tmp_path, capsys):
        from repro.obs import read_trace

        trace_file = tmp_path / "trace.jsonl"
        assert main(
            ["funnel", "--scale", "0.02", "--seed", "3", "--trace", str(trace_file)]
        ) == 0
        rows = read_trace(trace_file)  # validates every line
        names = {row["name"] for row in rows}
        for stage in ("extract", "parse", "diff", "measure", "classify"):
            assert f"stage.{stage}" in names
        assert "cli.funnel" in names

    def test_stats_payload_validates_against_schema(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(
            ["export", "--scale", "0.02", "--seed", "3", "--stats", "--out", str(out)]
        ) == 0
        payload = json.loads((out / "pipeline_stats.json").read_text())
        assert set(payload) == STATS_PAYLOAD_KEYS
        assert set(payload["registry"]) == {"counters", "gauges", "histograms"}

    def test_profile_writes_pstats_next_to_the_trace(self, tmp_path, capsys):
        import pstats

        trace_file = tmp_path / "run.jsonl"
        assert main(
            ["funnel", "--scale", "0.02", "--seed", "3",
             "--trace", str(trace_file), "--profile"]
        ) == 0
        assert pstats.Stats(str(tmp_path / "run.pstats")).total_calls > 0


class TestJsonEnvelope:
    """``--json``: machine-readable success output, and the same
    ``{"error": {"code", "message", "detail"}}`` envelope the ``/v1``
    HTTP surface answers with on failure."""

    def test_funnel_json_success_payload(self, capsys):
        assert main(["funnel", "--scale", "0.02", "--seed", "3", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert set(payload) == {"funnel", "rigid_share", "failures"}
        assert payload["funnel"]["SQL-Collection repositories"] > 0
        assert 0 <= payload["rigid_share"] <= 1

    def test_json_failure_prints_the_envelope_on_stderr(self, capsys):
        code = main(
            ["project", "--scale", "0.02", "--seed", "3",
             "--taxon", "nonsense", "--json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        envelope = json.loads(captured.err)
        assert envelope["error"]["code"] == "no_such_taxon"
        assert "nonsense" in envelope["error"]["message"]
        assert set(envelope["error"]) == {"code", "message", "detail"}

    def test_plain_failure_keeps_the_human_message(self, capsys):
        code = main(
            ["project", "--scale", "0.02", "--seed", "3", "--taxon", "nonsense"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_classify_failure_uses_the_envelope(self, tmp_path, capsys):
        empty = tmp_path / "empty.sql"
        empty.write_text("-- nothing here\n")
        code = main(["classify", str(empty), "--json"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["code"] == "unmeasurable"

    def test_report_empty_store_uses_the_envelope(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        code = main(["report", "--from-store", str(db), "--json"])
        assert code == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["code"] == "empty_store"
        assert "repro ingest" in envelope["error"]["message"]

    def test_a_stream_store_without_every_taxon_is_an_incomplete_corpus(
        self, tmp_path, capsys
    ):
        """The light stream profile synthesizes four of the six studied
        taxa: ``report`` and ``export`` name the empty ones and write
        nothing."""
        db = tmp_path / "stream.db"
        assert main(["ingest", "--db", str(db), "--stream", "--count", "40",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        out = tmp_path / "export"
        for argv in (
            ["report", "--from-store", str(db), "--json"],
            ["export", "--from-store", str(db), "--out", str(out), "--json"],
        ):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            error = json.loads(captured.err)["error"]
            assert error["code"] == "incomplete_corpus"
            assert "focused shot and low" in error["message"]
        assert not out.exists()
        assert main(["report", "--from-store", str(db)]) == 1
        assert capsys.readouterr().err.startswith("error: the corpus has no studied")

    def test_a_funnel_run_that_loses_a_taxon_is_an_incomplete_corpus(self, capsys):
        code = main(["report", "--scale", "0.05", "--seed", "3", "--json",
                     "--inject-faults", "0.5", "--fault-seed", "7"])
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "incomplete_corpus"
        assert error["message"].endswith("moderate")


class TestChaosFlags:
    def test_chaos_funnel_completes_and_is_deterministic(self, capsys):
        args = [
            "funnel", "--scale", "0.02", "--seed", "3", "--json",
            "--inject-faults", "1.0", "--fault-seed", "7", "--retries", "2",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        # Every project fails at the parse site, with its full retry
        # budget consumed — and the same seed reproduces the same bytes.
        assert first["failures"]
        for failure in first["failures"]:
            assert failure["error"] == "InjectedFault"
            assert failure["attempts"] == 2
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_classify_injects_faults_into_its_pipeline(self, tmp_path, capsys):
        sql = tmp_path / "schema.sql"
        sql.write_text("CREATE TABLE t (a INT);")
        argv = ["classify", str(sql), "--inject-faults", "1", "--fault-seed", "1", "--json"]
        assert main(argv) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "measurement_failed"
        assert error["detail"] == "InjectedFault"

    def test_retries_recover_injected_transient_faults(self, capsys):
        # fail_attempts is not CLI-exposed; prove recovery end-to-end by
        # comparing a clean run with a fault-free chaotic run instead.
        assert main(["funnel", "--scale", "0.02", "--seed", "3", "--json",
                     "--retries", "3", "--deadline", "60"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []

    def test_ingest_json_payload(self, tmp_path, capsys):
        db = tmp_path / "corpus.db"
        assert main(["ingest", "--scale", "0.02", "--seed", "3",
                     "--db", str(db), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ingest", "store"}
        report = payload["ingest"]
        assert set(report) == {
            "selected", "tasks", "measured", "skipped_unchanged", "pruned",
            "resumed_from", "outcomes", "wall_seconds",
        }
        assert report["resumed_from"] is None
        assert report["measured"] == report["tasks"] > 0
        assert payload["store"]["projects"] == report["tasks"]
        assert len(payload["store"]["content_hash"]) == 64

    def test_ingest_stream_json_payload(self, tmp_path, capsys):
        db = tmp_path / "stream.db"
        args = ["ingest", "--stream", "--count", "12", "--seed", "3",
                "--db", str(db), "--batch-size", "5", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["ingest"]
        assert report["stream_count"] == 12
        assert report["stream_resumed_at"] == 0
        assert report["measured"] == 12
        assert payload["store"]["projects"] == 12
        # The same stream again: every fingerprint matches, zero measured.
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)["ingest"]
        assert warm["measured"] == 0
        assert warm["skipped_unchanged"] == 12


class TestAdviseCommand:
    """``repro advise``: the advisor over a stored corpus, mirroring the
    HTTP write path's envelope, idempotency and persistence."""

    @pytest.fixture(scope="class")
    def db_path(self, tmp_path_factory):
        from repro.store import CorpusStore, ingest_corpus
        from tests.test_store import small_corpus

        path = tmp_path_factory.mktemp("advise-cli") / "corpus.db"
        activity, lib_io, repos = small_corpus()
        with CorpusStore(path) as store:
            ingest_corpus(store, activity, lib_io, repos.get)
        return path

    @pytest.fixture()
    def proposal(self, tmp_path):
        path = tmp_path / "proposal.sql"
        path.write_text(
            "CREATE TABLE a (x INT, y INT);\n"
            "CREATE TABLE cli_probe (id INT, note VARCHAR(64));\n"
        )
        return path

    def test_human_output_renders_the_migration(self, db_path, proposal, capsys):
        code = main([
            "advise", str(proposal), "--db", str(db_path),
            "--project", "ok/alpha", "--key", "cli-human-1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "advice #" in out and "ok/alpha" in out
        assert "-- up" in out and "-- down" in out
        assert "CREATE TABLE" in out and "DROP TABLE" in out
        assert "ATYPICAL" in out  # a frozen-family project waking up

    def test_json_replays_byte_identical_with_one_row(
        self, db_path, proposal, capsys
    ):
        from repro.store import CorpusStore

        argv = [
            "advise", str(proposal), "--db", str(db_path),
            "--project", "ok/beta", "--key", "cli-json-1", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert json.loads(first)["advice_id"] == json.loads(second)["advice_id"]
        payload = json.loads(second)
        assert payload["idempotency_key"] == "cli-json-1"
        assert payload["migration"]["up"]
        with CorpusStore(db_path) as store:
            rows = [
                r for r in store.advice_records("ok/beta")
                if r.idempotency_key == "cli-json-1"
            ]
            assert len(rows) == 1

    def test_conflicting_key_reuse_uses_the_envelope(
        self, db_path, proposal, tmp_path, capsys
    ):
        other = tmp_path / "other.sql"
        other.write_text("CREATE TABLE something_else (id INT);\n")
        base = ["--db", str(db_path), "--project", "ok/alpha",
                "--key", "cli-conflict-1", "--json"]
        assert main(["advise", str(proposal)] + base) == 0
        capsys.readouterr()
        code = main(["advise", str(other)] + base)
        assert code == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["code"] == "idempotency_conflict"

    def test_unknown_project_and_bad_proposal_fail_cleanly(
        self, db_path, proposal, tmp_path, capsys
    ):
        code = main([
            "advise", str(proposal), "--db", str(db_path),
            "--project", "no/such", "--json",
        ])
        assert code == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["code"] == "unknown_project"
        empty = tmp_path / "empty.sql"
        empty.write_text("-- no tables\n")
        code = main([
            "advise", str(empty), "--db", str(db_path),
            "--project", "ok/alpha", "--json",
        ])
        assert code == 1
        envelope = json.loads(capsys.readouterr().err)
        assert envelope["error"]["code"] == "bad_proposal"

    def test_a_cli_key_replays_byte_identically_over_http(
        self, db_path, proposal, capsys
    ):
        """``repro advise`` writes the ledger row ``POST /v1/.../advise``
        replays: the same key and body answer the CLI's bytes."""
        import urllib.request

        from repro.serve import start_server
        from repro.store import CorpusStore

        assert main([
            "advise", str(proposal), "--db", str(db_path),
            "--project", "ok/beta", "--key", "cli-http-1", "--json",
        ]) == 0
        printed = capsys.readouterr().out.strip().encode("utf-8")
        with CorpusStore(db_path) as store:
            server, thread = start_server(store, port=0)
            try:
                request = urllib.request.Request(
                    server.url + "/v1/projects/ok%2Fbeta/advise",
                    data=json.dumps({"ddl": proposal.read_text()}).encode("utf-8"),
                    method="POST",
                    headers={
                        "Content-Type": "application/json",
                        "Idempotency-Key": "cli-http-1",
                    },
                )
                with urllib.request.urlopen(request, timeout=10) as resp:
                    status, headers, body = resp.status, resp.headers, resp.read()
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
            rows = [
                r for r in store.advice_records("ok/beta")
                if r.idempotency_key == "cli-http-1"
            ]
        assert status == 200
        assert headers["Idempotency-Replayed"] == "true"
        assert body == printed == rows[0].response
        assert len(rows) == 1
