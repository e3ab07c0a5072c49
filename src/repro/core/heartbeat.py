"""The heartbeat of schema change, and the reed/turf distinction.

"We define the heartbeat H = {c_i(e_i, m_i)} of the schema as the
ordered list of pairs (expansion, maintenance), one per commit, of the
schema history.  ... we refer to standing out commits with total
activity strictly higher than 14 attributes as 'reeds', and commits with
lower activity as 'turf'.  The reed limit was produced by taking all
single-commit projects, sorting them by activity (producing a power-law
like distribution) and splitting them at the 85% limit." (Sec III.B)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: The paper's published reed limit: activity strictly above this is a reed.
DEFAULT_REED_LIMIT = 14


@dataclass(frozen=True, slots=True)
class HeartbeatEntry:
    """One beat: the (expansion, maintenance) pair of a transition."""

    transition_id: int  # 1-based: transition from version i-1 to i
    timestamp: int
    expansion: int
    maintenance: int

    @property
    def activity(self) -> int:
        return self.expansion + self.maintenance

    @property
    def is_active(self) -> bool:
        return self.activity > 0

    def is_reed(self, reed_limit: int = DEFAULT_REED_LIMIT) -> bool:
        """A reed stands out: total activity strictly above the limit."""
        return self.activity > reed_limit

    def is_turf(self, reed_limit: int = DEFAULT_REED_LIMIT) -> bool:
        """Turf: an *active* commit at or below the reed limit."""
        return self.is_active and not self.is_reed(reed_limit)


@dataclass(frozen=True)
class Heartbeat:
    """The ordered list of beats of one schema history."""

    entries: tuple[HeartbeatEntry, ...]

    @property
    def total_activity(self) -> int:
        return sum(entry.activity for entry in self.entries)

    @property
    def total_expansion(self) -> int:
        return sum(entry.expansion for entry in self.entries)

    @property
    def total_maintenance(self) -> int:
        return sum(entry.maintenance for entry in self.entries)

    @property
    def active_commits(self) -> int:
        return sum(1 for entry in self.entries if entry.is_active)

    def reeds(self, reed_limit: int = DEFAULT_REED_LIMIT) -> int:
        return sum(1 for entry in self.entries if entry.is_reed(reed_limit))

    def turf(self, reed_limit: int = DEFAULT_REED_LIMIT) -> int:
        return sum(1 for entry in self.entries if entry.is_turf(reed_limit))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def derive_reed_limit(
    single_commit_activities: Sequence[int], quantile: float = 0.85
) -> int:
    """Re-derive the reed limit from data, per the paper's recipe.

    Takes the total activity of every project whose change concentrates
    in a single active commit, sorts ascending, and returns the value at
    the *quantile* split.  With the paper's corpus this yields 14.

    The split value is the last activity inside the lower `quantile`
    mass: reeds are commits *strictly above* it.
    """
    if not single_commit_activities:
        raise ValueError("cannot derive a reed limit from an empty sample")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    ordered = sorted(single_commit_activities)
    cut = math.ceil(quantile * len(ordered)) - 1
    cut = max(0, min(cut, len(ordered) - 1))
    return ordered[cut]
