"""Object model of the VCS substrate: blobs and commits.

Objects are content-addressed with SHA-1 over a git-style header, so
identical file contents share storage and object ids are stable across
runs — a property the synthesis layer relies on for determinism.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def hash_content(kind: str, payload: bytes) -> str:
    """Git-style object id: sha1 over ``b"<kind> <len>\\0<payload>"``."""
    header = f"{kind} {len(payload)}".encode("ascii") + b"\0"
    return hashlib.sha1(header + payload).hexdigest()


@dataclass(frozen=True, slots=True)
class Blob:
    """A file content snapshot."""

    content: bytes

    @property
    def oid(self) -> str:
        return hash_content("blob", self.content)

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")


@dataclass(frozen=True, slots=True)
class FileChange:
    """One path changed by a commit.

    ``blob_oid`` is None for deletions.  A commit's tree is the set of
    paths alive after it; we store both the delta (for history walks)
    and derive trees on demand.
    """

    path: str
    blob_oid: str | None


@dataclass(frozen=True)
class Commit:
    """A commit node in the DAG."""

    oid: str
    parents: tuple[str, ...]
    author: str
    timestamp: int  # unix epoch seconds (author time)
    message: str
    changes: tuple[FileChange, ...]

    @property
    def is_merge(self) -> bool:
        return len(self.parents) > 1

    def changed_paths(self) -> frozenset[str]:
        return frozenset(change.path for change in self.changes)


def commit_oid(
    parents: tuple[str, ...],
    author: str,
    timestamp: int,
    message: str,
    changes: tuple[FileChange, ...],
) -> str:
    """Deterministic id for a commit from its full content."""
    parts = [",".join(parents), author, str(timestamp), message]
    for change in changes:
        parts.append(f"{change.path}={change.blob_oid or 'DEL'}")
    return hash_content("commit", "\n".join(parts).encode("utf-8"))
