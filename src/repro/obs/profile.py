"""cProfile hooks: wrap a run, drop ``.pstats`` next to the trace.

The CLI's ``--profile`` flag uses :func:`profiled` to wrap the whole
command; the resulting file loads straight into ``pstats`` or
``snakeviz``-style viewers:

    >>> import pstats
    >>> stats = pstats.Stats("trace.pstats")  # doctest: +SKIP

The parent-process profiler cannot see work done by worker processes
(each worker is its own interpreter), so a profiled run advertises its
output path via :func:`active_profile_path`; the worker pool has every
worker profile its own chunks, ships the dumps
home, and :func:`merge_worker_profiles` aggregates them into one
``<path stem>-workers.pstats`` next to the parent profile.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

#: The path the currently-running ``profiled()`` block dumps to, or None.
_ACTIVE_PATH: Path | None = None


def active_profile_path() -> Path | None:
    """Where the in-flight ``profiled()`` block will write (or None)."""
    return _ACTIVE_PATH


@contextmanager
def profiled(path: str | Path | None) -> Iterator[cProfile.Profile | None]:
    """Profile the block and dump ``.pstats`` to *path* (no-op on None)."""
    global _ACTIVE_PATH
    if path is None:
        yield None
        return
    _ACTIVE_PATH = Path(path)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(str(path))
        _ACTIVE_PATH = None


def profile_path_for(trace_path: str | None, command: str) -> Path:
    """Where ``--profile`` writes: next to the trace, or a default."""
    if trace_path:
        return Path(trace_path).with_suffix(".pstats")
    return Path(f"repro-{command}.pstats")


def worker_profile_dir(parent_path: Path) -> Path:
    """The scratch directory worker chunk profiles dump into."""
    return parent_path.with_name(parent_path.name + ".workers.d")


def merge_worker_profiles(
    paths: Sequence[str | Path], out: str | Path
) -> Path | None:
    """Aggregate per-worker ``.pstats`` dumps into one file.

    Returns the written path, or None when *paths* is empty or none of
    them loads (a crashed worker may leave a torn dump behind — that is
    a lost sample, not a run failure).
    """
    merged: pstats.Stats | None = None
    for path in paths:
        try:
            if merged is None:
                merged = pstats.Stats(str(path))
            else:
                merged.add(str(path))
        except (OSError, TypeError, EOFError, ValueError):
            continue  # a torn dump is just a missing sample
    if merged is None:
        return None
    out = Path(out)
    merged.dump_stats(str(out))
    return out
