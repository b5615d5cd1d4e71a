"""Append-only usage log: one JSON record per line, strictly increasing
sequence numbers, no rewrites. The log doubles as the catalog's operation
clock and supports replaying object/version/representation counts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from .errors import CorruptCatalog, StorageFull

ACTION_CREATE = "Create"
ACTION_UPDATE = "Update"
ACTION_TRANSFORM = "Transform"
ACTION_ACCESS = "Access"
ACTION_TAG = "Tag"
ACTION_LINK = "Link"
ACTION_SEARCH = "Search"

ACTIONS = (
    ACTION_CREATE,
    ACTION_UPDATE,
    ACTION_TRANSFORM,
    ACTION_ACCESS,
    ACTION_TAG,
    ACTION_LINK,
    ACTION_SEARCH,
)


@dataclass
class EventRecord:
    seq: int
    at: datetime
    actor: str
    action: str
    target: str  # ObjectId or query text
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "at": self.at.isoformat(),
            "actor": self.actor,
            "action": self.action,
            "target": self.target,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EventRecord":
        return cls(
            seq=d["seq"],
            at=datetime.fromisoformat(d["at"]),
            actor=d["actor"],
            action=d["action"],
            target=d["target"],
            detail=d.get("detail") or {},
        )


class EventLog:
    """Durable append-only event sequence backed by a JSON-Lines file."""

    def __init__(self, path):
        self.path = path
        self._next_seq = self._scan_last_seq() + 1

    def _scan_last_seq(self) -> int:
        seqs = self._parse_lines(lambda d: d["seq"])
        return seqs[-1] if seqs else 0

    def _parse_lines(self, parse) -> list:
        """parse() of each non-blank line's JSON, in order; a line that
        does not parse raises CorruptCatalog naming its line number."""
        out = []
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        out.append(parse(json.loads(line)))
                    except (ValueError, KeyError, TypeError) as exc:
                        raise CorruptCatalog(
                            f"{self.path}: bad log record at line {lineno}: {exc}"
                        ) from exc
        return out

    def append(self, actor: str, action: str, target: str, detail: Optional[dict] = None) -> int:
        if not actor:
            raise ValueError("actor must be non-empty")
        if action not in ACTIONS:
            raise ValueError(f"unknown action {action!r}")
        record = EventRecord(
            seq=self._next_seq,
            at=datetime.now(timezone.utc),
            actor=actor,
            action=action,
            target=target,
            detail=detail or {},
        )
        line = json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False)
        try:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            raise StorageFull(f"cannot append to log: {exc}") from exc
        self._next_seq += 1
        return record.seq

    def records(self) -> list:
        return self._parse_lines(EventRecord.from_dict)


def record_event(catalog, actor: str, action: str, target: str, detail: Optional[dict] = None) -> int:
    """Append one event to the catalog's log and return its sequence number."""
    return catalog.log.append(actor, action, target, detail)


def events_for(catalog, obj: str) -> list:
    """All events targeting the given object, in ascending sequence order."""
    return [r for r in catalog.log.records() if r.target == obj]


def access_report(catalog, top_k: int, since: Optional[datetime] = None) -> list:
    """Objects ranked by Access-event count (descending), ties by id."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    counts = {}
    for r in catalog.log.records():
        if r.action != ACTION_ACCESS:
            continue
        if since is not None and r.at < since:
            continue
        counts[r.target] = counts.get(r.target, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


def replay_counts(records) -> dict:
    """Reconstruct object/version/representation counts from the event
    stream alone. Create adds an object and its root version; an Update
    with the new-version strategy adds a version; Transform adds a
    representation."""
    objects = set()
    versions = 0
    representations = 0
    for r in records:
        if r.action == ACTION_CREATE:
            objects.add(r.target)
            versions += 1
        elif r.action == ACTION_UPDATE:
            if r.detail.get("strategy", "new-version") == "new-version":
                versions += 1
        elif r.action == ACTION_TRANSFORM:
            representations += 1
    return {
        "objects": len(objects),
        "versions": versions,
        "representations": representations,
    }
