"""Deterministic name generation for synthetic schemata and projects.

Names are drawn from domain wordlists so generated DDL reads like real
FOSS schemata (``user_account``, ``order_item``, ``created_at`` ...) and
every draw comes from the caller's ``random.Random``, keeping the corpus
reproducible.
"""

from __future__ import annotations

import random

_TABLE_NOUNS = (
    "user", "account", "order", "item", "product", "invoice", "payment",
    "session", "token", "role", "permission", "group", "message", "thread",
    "comment", "post", "page", "tag", "category", "event", "log", "audit",
    "device", "sensor", "reading", "alert", "job", "task", "queue",
    "report", "metric", "config", "setting", "customer", "vendor",
    "shipment", "address", "country", "currency", "language", "file",
    "attachment", "image", "video", "license", "project", "issue",
    "milestone", "sprint", "build", "release", "deploy", "node", "cluster",
    "service", "endpoint", "route", "subscriber", "campaign", "coupon",
    "cart", "wishlist", "review", "rating", "notification", "feed",
    "friend", "follower", "profile", "badge", "achievement", "level",
    "score", "match", "team", "player", "tournament", "ticket", "booking",
    "room", "schedule", "course", "lesson", "quiz", "answer", "question",
    "survey", "response", "contract", "plan", "feature", "experiment",
)

_TABLE_PREFIXES = ("", "", "", "app_", "sys_", "tbl_", "core_")

_COLUMN_NOUNS = (
    "id", "name", "title", "description", "status", "type", "kind",
    "state", "value", "amount", "price", "quantity", "count", "total",
    "code", "slug", "email", "phone", "url", "path", "hash", "token",
    "secret", "key", "label", "note", "body", "content", "summary",
    "position", "rank", "weight", "priority", "level", "score",
    "created_at", "updated_at", "deleted_at", "started_at", "ended_at",
    "published_at", "expires_at", "version", "revision", "locale",
    "timezone", "currency", "language", "ip_address", "user_agent",
    "latitude", "longitude", "width", "height", "size", "length",
    "duration", "capacity", "threshold", "enabled", "visible", "active",
    "archived", "verified", "locked", "featured", "external_id",
    "parent_id", "owner_id", "author_id", "group_id", "source", "target",
    "category", "channel", "domain", "region", "zone", "checksum",
)

_PROJECT_ADJECTIVES = (
    "rapid", "open", "micro", "hyper", "neo", "meta", "proto", "ultra",
    "quick", "smart", "tiny", "mega", "super", "easy", "free", "light",
    "dark", "blue", "red", "green", "silver", "golden", "iron", "stone",
)

_PROJECT_NOUNS = (
    "cms", "shop", "forum", "wiki", "tracker", "board", "chat", "mailer",
    "ledger", "store", "cloud", "monitor", "gateway", "broker", "cache",
    "index", "search", "portal", "dashboard", "planner", "scheduler",
    "registry", "catalog", "archive", "vault", "bridge", "relay", "hub",
)

_OWNER_NAMES = (
    "acme", "umbrella", "initech", "hooli", "globex", "wayne", "stark",
    "wonka", "tyrell", "cyberdyne", "aperture", "dharma", "pied-piper",
    "oscorp", "gringotts", "duff", "vandelay", "sirius", "nakatomi",
)


class NameForge:
    """Collision-free name supplier bound to one RNG."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used_tables: set[str] = set()
        self._counter = 0

    def table_name(self) -> str:
        """A fresh table name, unique within this forge."""
        for _ in range(20):
            prefix = self._rng.choice(_TABLE_PREFIXES)
            noun = self._rng.choice(_TABLE_NOUNS)
            candidate = f"{prefix}{noun}"
            if self._rng.random() < 0.35:
                candidate = f"{candidate}_{self._rng.choice(_TABLE_NOUNS)}"
            if candidate not in self._used_tables:
                self._used_tables.add(candidate)
                return candidate
        self._counter += 1
        fallback = f"table_{self._counter:04d}"
        self._used_tables.add(fallback)
        return fallback

    def column_name(self, taken: set[str]) -> str:
        """A column name not already used in the target table."""
        for _ in range(20):
            candidate = self._rng.choice(_COLUMN_NOUNS)
            if candidate not in taken:
                return candidate
        index = len(taken)
        while f"field_{index}" in taken:
            index += 1
        return f"field_{index}"

    def project_name(self, taken: set[str]) -> str:
        """A fresh "owner/project" repository name."""
        for _ in range(50):
            owner = self._rng.choice(_OWNER_NAMES)
            name = f"{self._rng.choice(_PROJECT_ADJECTIVES)}-{self._rng.choice(_PROJECT_NOUNS)}"
            candidate = f"{owner}/{name}"
            if candidate not in taken:
                return candidate
        index = len(taken)
        while f"forge/project-{index}" in taken:
            index += 1
        return f"forge/project-{index}"
