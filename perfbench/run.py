"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics untraced (``--trace 0``), the
per-layer metrics traced (``--trace 1``).  The line before it is the
ledger entry (machine, Python, source version, seed, parameters), and
a traced run prints its per-layer table above that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("funnel_report", "ingest_stream", "serve_hot", "serve_cold")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def ledger(root: Path, args: argparse.Namespace, parameters: dict, source: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": parameters,
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "source_sha256": source,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # the program imports need src/ on the path first

    cache = root / ".bench_build" / "perfbench"
    work = cache / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(
        root=root, seed=args.seed, seconds=args.seconds, work=work, cache=cache
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in outcome.table:
        print(line)
    entry = ledger(root, args, workloads.PARAMETERS[args.workload], workloads.source_digest(root))
    entry["info"] = outcome.info
    entry["problems"] = outcome.problems
    print(json.dumps({"ledger": entry}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
