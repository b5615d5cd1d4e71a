"""Append-only usage log: one JSON record per line, strictly increasing
sequence numbers, no rewrites. The log doubles as the catalog's operation
clock and supports replaying object/version/representation counts.

Nothing is read when an `EventLog` is made. The next sequence number is
found at first need, from the log's last line alone, which is read
backward from the end of the file: its seq plus one. A last line that
is torn (no final newline) or does not parse raises CorruptCatalog.
`records()` parses the whole file, checks that the seqs strictly
increase and keeps the list until the next write; a torn last line
fails it too, so the commands that read the log agree with those that
append to it. Records are in the `codec` format of `EventRecord`, where
a null detail reads as {}.

An event is logged in two steps, which `Catalog.commit` separates:
`new_records` numbers the records and checks the actor, the actions and
each record's types, writing nothing, so a damaged tail or a bad event
fails a commit before any file is touched; `write` appends them with one
write and one fsync, then advances the next seq and drops the parsed list.
The log is the last file a commit writes, so a logged event is the
commit point for the records before it.

`log.checkpoint.json`, beside the log, is derived from it: a
`Checkpoint` of the log's first B bytes, holding B, the seq S of their
last record, their sha256 digest and each object's Access count.
`access_counts` (and so `access_report`) reads the log's bytes once and
trusts the checkpoint only when it parses and checks, B is within the
file, byte B-1 is a newline, the digest matches and the record that ends
at byte B holds seq S. It then parses only the lines after B, with the
same record parser continued from seq S and line numbers counted from
the file's start, so a damaged or torn record raises the error a full
read raises; in every other case it parses the whole log. A handle
that holds the parsed log counts from it instead.
`new_checkpoint`, in a commit's check phase, makes a new one once the
records after the stored one reach a quarter of those it covers, and at
least 64: it covers the log before the commit's append, and folds in
the records after the old one only after parsing and checking them all.
Read commands never write it; `checkpoint_drift` is `validate`'s replay
of the records a checkpoint of matching digest covers.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from . import codec
from .errors import PARSE_ERRORS, CorruptCatalog, StorageFull

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
    detail: Optional[dict] = field(default_factory=dict)  # null reads as {}

    def __post_init__(self):
        self.detail = self.detail or {}


# A commit rewrites the checkpoint once the records after it reach
# 1/CHECKPOINT_SHARE of those it covers, and at least CHECKPOINT_FLOOR.
CHECKPOINT_SHARE = 4
CHECKPOINT_FLOOR = 64


@dataclass
class Checkpoint:
    """What the log's first `offset` bytes hold: the seq of their last
    record, their sha256 digest and each object's Access-event count."""
    offset: int
    seq: int
    digest: str
    access: dict[str, int]


_NO_CHECKPOINT = Checkpoint(0, 0, "", {})  # covers no byte


def _digest(data: bytes, end: int) -> str:
    return hashlib.sha256(memoryview(data)[:end]).hexdigest()


def _covers(checkpoint: Checkpoint, data: bytes) -> bool:
    """Whether `checkpoint` was made of the first bytes of the log whose
    bytes are `data`: whole lines, of the same digest."""
    end = checkpoint.offset  # past the end of `data`, its slice is empty
    return 0 < end and data[end - 1:end] == b"\n" and _digest(data, end) == checkpoint.digest


def _trusted(checkpoint: Checkpoint, data: bytes) -> bool:
    """Whether `checkpoint` covers the first bytes of `data` and the
    record that ends them holds its seq, so a parser can continue there."""
    end = checkpoint.offset
    if not _covers(checkpoint, data):
        return False
    try:
        line = data[data.rfind(b"\n", 0, end - 1) + 1:end]
        return codec.check(int, json.loads(line)["seq"]) == checkpoint.seq
    except PARSE_ERRORS:
        return False


def _count_access(counts: dict, records) -> dict:
    """`counts`, object id -> Access events, with those of `records` added."""
    for r in records:
        if r.action == ACTION_ACCESS:
            counts[r.target] = counts.get(r.target, 0) + 1
    return counts


def read_records(path, parse) -> list:
    """parse() of each non-blank line's JSON in the JSON-Lines file at
    `path`, in order; no file reads as no records."""
    return _parse_lines(path, _read_bytes(path), parse)


def _read_bytes(path) -> bytes:
    """The bytes of the file at `path`; b"" when there is none."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return b""


def _parse_lines(path, data: bytes, parse, start: int = 0) -> list:
    """parse() of each non-blank line's JSON in data[start:], the bytes
    of the JSON-Lines file at `path` from the start of a line. A line that
    does not parse, or is not UTF-8, raises CorruptCatalog naming the file
    and its line number, counted from the file's start; so does a last
    line with no newline, which is torn here as it is for `_last_line`,
    whatever it holds."""
    *lines, torn = data[start:].split(b"\n")
    first = data.count(b"\n", 0, start) + 1
    out = []
    for lineno, line in enumerate(lines, start=first):
        try:
            line = line.decode("utf-8").strip()
            if line:
                out.append(parse(json.loads(line)))
        except PARSE_ERRORS as exc:
            raise CorruptCatalog(f"{path}: bad record at line {lineno}: {exc}") from exc
    if torn:
        raise CorruptCatalog(f"{path}: torn last line at line {first + len(lines)}")
    return out


_TAIL_CHUNK = 4096


def _last_line(path) -> bytes:
    """The last non-blank line of the JSON-Lines file at `path`, read
    backward from its end in chunks; b"" when it has none. A file that
    does not end in a newline has a torn last line: CorruptCatalog."""
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as f:
        pos = f.seek(0, os.SEEK_END)
        tail = b""
        while pos:
            step = min(_TAIL_CHUNK, pos)
            pos -= step
            f.seek(pos)
            tail = f.read(step) + tail
            if not tail.endswith(b"\n"):
                raise CorruptCatalog(f"{path}: torn last line")
            text = tail.rstrip()
            start = text.rfind(b"\n") + 1
            if start or not pos:  # a whole line, or the file's first
                return text[start:].strip()
    return b""


def append_records(path, records) -> None:
    """Append JSON records to a JSON-Lines file with one write and one
    fsync. If either fails, the file is cut back to its old length, so a
    failed append leaves neither a torn line nor an unsynced record. A
    full disk raises StorageFull."""
    if not records:
        return
    data = "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                   for r in records).encode("utf-8")
    try:
        # unbuffered: each write() is one write(2) on the O_APPEND
        # descriptor, and nothing is left to flush after a truncate
        with open(path, "ab", buffering=0) as f:
            size = f.tell()
            try:
                view = memoryview(data)
                while view:
                    view = view[f.write(view):]
                os.fsync(f.fileno())
            except OSError:
                f.truncate(size)
                raise
    except OSError as exc:
        if exc.errno == errno.ENOSPC:
            raise StorageFull(f"cannot append to {path}: {exc}") from exc
        raise


def record_parser(last: int = 0):
    """parse() of a log's records, in order, after the record of seq
    `last`; ValueError for a seq that does not follow the last one."""

    def parse(d):
        nonlocal last
        record = codec.decode(EventRecord, codec.check(EventRecord, d))
        if record.seq <= last:
            raise ValueError(f"seq {record.seq!r} does not follow {last}")
        last = record.seq
        return record

    return parse


class EventLog:
    """Durable append-only event sequence backed by a JSON-Lines file."""

    def __init__(self, path):
        self.path = path
        self.checkpoint_path = os.path.splitext(path)[0] + ".checkpoint.json"
        self._next_seq = None  # unknown until a commit needs it
        self._records = None  # the parsed log, until the next write

    def new_records(self, actor: str, events) -> list:
        """The EventRecords of (action, target, detail) events, numbered
        from the next seq; nothing is written. An empty actor or an unknown
        action raises ValueError, a value of the wrong type TypeError."""
        if not actor:
            raise ValueError("actor must be non-empty")
        seq = self.next_seq()
        at = datetime.now(timezone.utc)
        records = []
        for action, target, detail in events:
            if action not in ACTIONS:
                raise ValueError(f"unknown action {action!r}")
            records.append(EventRecord(seq + len(records), at, actor, action, target, detail))
            codec.check(EventRecord, codec.encode(records[-1]))
        return records

    def write(self, records) -> None:
        """Append records made by new_records with one write and one
        fsync; the next seq and the parsed log change only once it
        succeeds."""
        if records:
            append_records(self.path, [codec.encode(r) for r in records])
            self._next_seq = records[-1].seq + 1
            self._records = None

    def next_seq(self) -> int:
        """The seq of the next event, from the log's last line at first
        need."""
        if self._next_seq is None:
            self._next_seq = self._last_seq() + 1
        return self._next_seq

    def _last_seq(self) -> int:
        """The seq of the log's last record; 0 for an empty log."""
        line = _last_line(self.path)
        if not line:
            return 0
        try:
            return codec.check(int, json.loads(line)["seq"])
        except PARSE_ERRORS as exc:
            raise CorruptCatalog(f"{self.path}: bad last record: {exc}") from exc

    def records(self) -> list:
        """Every record, in order; a copy of the list parsed since the
        last write. Seqs that do not strictly increase raise
        CorruptCatalog naming the line."""
        if self._records is None:
            self._records = read_records(self.path, record_parser())
        return list(self._records)

    def access_counts(self) -> dict:
        """Object id -> its Access-event count: from the parsed log when
        the handle holds it, else from one read of the file."""
        if self._records is not None:
            return _count_access({}, self._records)
        return self._fold(_read_bytes(self.path), self._checkpoint())[0]

    def new_checkpoint(self) -> Optional[Checkpoint]:
        """A checkpoint of the log as it is now, once the records the
        stored one does not cover reach the share that calls for one;
        else None. Nothing is written, and a damaged record among those
        it folds in raises CorruptCatalog."""
        checkpoint = self._checkpoint()
        last = self.next_seq() - 1
        covered = checkpoint.seq if checkpoint.seq <= last else 0
        if last - covered < max(CHECKPOINT_FLOOR, covered // CHECKPOINT_SHARE):
            return None
        data = _read_bytes(self.path)
        counts, seq = self._fold(data, checkpoint)
        return Checkpoint(len(data), seq, _digest(data, len(data)), counts)

    def checkpoint_drift(self) -> Optional[str]:
        """How a checkpoint of the log's first bytes differs from a
        replay of the records it covers; None when it does not differ, or
        when its digest does not match them."""
        checkpoint = self._checkpoint()
        data = _read_bytes(self.path) if checkpoint.offset else b""
        if not _covers(checkpoint, data):
            return None
        text = data[:checkpoint.offset].decode("utf-8")
        covered = self.records()[:sum(1 for line in text.split("\n") if line.strip())]
        seq = covered[-1].seq if covered else 0
        if (checkpoint.seq, checkpoint.access) == (seq, _count_access({}, covered)):
            return None
        return (f"{self.checkpoint_path}: its seq {checkpoint.seq} and Access counts "
                f"are not those of the {len(covered)} records it covers (last seq {seq})")

    def _checkpoint(self) -> Checkpoint:
        """The stored checkpoint; one that is missing, or does not parse
        or check, covers no byte."""
        try:
            with open(self.checkpoint_path, "rb") as f:
                return codec.decode(Checkpoint, codec.check(Checkpoint, json.loads(f.read())))
        except (OSError, *PARSE_ERRORS):
            return _NO_CHECKPOINT

    def _fold(self, data: bytes, checkpoint: Checkpoint) -> tuple:
        """(Access counts, seq of the last record) of the log whose bytes
        are `data`: the checkpoint's if it is trusted, plus those of the
        records after the bytes it covers, which are parsed and checked as
        a full read checks them; with no such checkpoint, every record's."""
        if not _trusted(checkpoint, data):
            checkpoint = _NO_CHECKPOINT
        tail = _parse_lines(self.path, data, record_parser(checkpoint.seq), checkpoint.offset)
        counts = _count_access(dict(checkpoint.access), tail)
        return counts, tail[-1].seq if tail else checkpoint.seq


def events_for(catalog, obj: str) -> list:
    """All events targeting the given object, in ascending sequence order."""
    return [r for r in catalog.log.records() if r.target == obj]


def access_report(catalog, top_k: int) -> list:
    """Objects ranked by Access-event count (descending), ties by id."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = sorted(catalog.log.access_counts().items(), key=lambda kv: (-kv[1], kv[0]))
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
