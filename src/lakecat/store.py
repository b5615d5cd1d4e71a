"""Durable catalog storage.

One directory per catalog:

    manifest.json        catalog metadata (checksummed)
    catalog.lock         flock held while a handle is open; holds the owner's pid
    objects/<id>.json    one hypernode per file
    links.jsonl          append-only similarity/parenthood records
    groupings/<p>.json   one persisted grouping per parameter
    index/terms.json     the inverted index
    log.jsonl            the append-only event log
    log.checkpoint.json  derived: Access counts of the log's first bytes, digest-checked
    resources/<n>.txt    loaded thesauri

Catalog files are compact JSON (sorted keys, no indentation), which the
C encoder writes; files written indented by earlier versions read the
same. Whole files are written temp-then-rename within the catalog
directory, so a crash never leaves a partially visible file. The two
JSON-Lines files are append-only. Every change is one `Catalog.commit`:
it first builds and checks everything it will write, writing nothing
(the actor and actions of its events, the seqs after the log's last
line, the log checkpoint when one is due, the index, the links file, the
object), then writes in a fixed order, each file once: the log
checkpoint, the object, the index, `links.jsonl`, `log.jsonl`. Each is
fsynced but the checkpoint, which its readers check against the log's
bytes, so a crash can lose it but not make it trusted while wrong; it
covers the log before the commit's append, so it stays true if a later
write fails. There is no hard delete. The object count
is not stored: `export` counts the files in `objects/`. The index file
is rewritten whole when its postings changed, and not written when a
change leaves the object's postings as they were. A handle's first
change costs one parse and one check of the whole index, which also
find the object's old postings, not a re-encode of every term: the
unchanged terms are cut from the text it read. Later ones re-encode
only the terms they change. `codec` encodes the records; `link_to_dict`
tags a link's record with its type, which `link_from_dict` reads.

Opening a catalog takes the writer lock and reads the manifest only.
Every other file is read when a command first uses it, under the lock
the handle holds for its whole life, so it reads what an open would have
read: the links, the index and the thesauri on first use. An object file
is read by the first `get_object` or `object_field` of it, which checks
all of it and decodes the whole hypernode. The handle keeps the parsed
record until a write of that object or `close()`; each later call
decodes afresh from it the hypernode, or for `object_field` that field
alone. Every object change goes through `commit`, and no other handle
writes while the lock is held, so the record stays the file's content.
The log is read by `EventLog`: the next seq from its last line, the
whole file for `records()`, and for `access_counts` the lines after a
checkpoint that matches it. Both JSON-Lines files, the links and
the log, are read whole by `auditlog.read_records`, where a last line
with no newline is torn, as it is for the last-line read of the next
seq. `codec.check` checks each record read
from a file (an object, a grouping, a line of the links or the log)
once, before its decode, not a kept record's decode; and each record
before its write. An object file must hold the object its name gives.
So a damaged file is reported by the commands that read it, and always
by `validate`, which reads every file. A commit reads the index, the links
and the log's last line before it writes anything, and when a checkpoint
is due the log's records after the stored one, so a damaged one fails it
with the catalog unchanged; and the handle's memory of a file
(the loaded links, the next seq, the parsed log) changes only after
that file's write succeeds. The loaded index is the exception: a commit
changes it first, and one that fails before the index file is written
drops it, to be read again at next use.
"""

from __future__ import annotations

import errno
import fcntl
import functools
import hashlib
import json
import os
import secrets
from datetime import datetime
from pathlib import Path
from typing import Optional
from urllib.parse import quote

from . import auditlog
from .auditlog import ACTION_ACCESS, Checkpoint, EventLog, read_records
from .codec import check, decode, decode_field, encode
from .errors import (
    PARSE_ERRORS,
    CorruptCatalog,
    LockHeld,
    NotFound,
    ResourceParseError,
    StorageFull,
    ValidationFailed,
)
from .index import InvertedIndex, index_hypernode
from .model import (
    Grouping,
    Hypernode,
    ParenthoodLink,
    SimilarityLink,
    Violation,
    check_types,
    validate_catalog_graph,
    validate_hypernode,
)
from .semantic import Thesaurus, parse_thesaurus

MANIFEST = "manifest.json"
LOCKFILE = "catalog.lock"
EXPORT_FORMAT = "catalog-export-v1"


def atomic_write_text(path, text: str, durable: bool = True) -> None:
    """Write-temp-then-rename in the target's directory; the destination
    is either the old content or the new, never a mixture. Unless
    `durable` is false, the new content is fsynced before the rename; a
    file that is not durable may read as empty after a crash, which suits
    only a derived file that its readers check, and ignore when damaged."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{secrets.token_hex(4)}")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            if durable:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        if exc.errno == errno.ENOSPC:
            raise StorageFull(str(exc)) from exc
        raise


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, _compact_json(payload))


def _compact_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _parsed(where: str, parse, value):
    """parse(value); the errors of a value that does not parse raise
    CorruptCatalog naming `where`: PARSE_ERRORS, which `read_records`
    maps for one JSON-Lines record, and a thesaurus's ResourceParseError."""
    try:
        return parse(value)
    except (*PARSE_ERRORS, ResourceParseError) as exc:
        raise CorruptCatalog(f"{where}: {exc}") from exc


def _read_file(path, parse):
    """parse() of the text of the catalog file at `path`. A file that is
    not UTF-8 or does not parse raises CorruptCatalog naming it. Errors
    opening it propagate."""
    with open(path, "r", encoding="utf-8") as f:
        return _parsed(f"{path}: unreadable", lambda file: parse(file.read()), f)


def _is_file_name(name) -> bool:
    """Whether `name`, an object id or a resource name, names a file
    inside its directory: a string with no path separator that is not
    "." or ".."."""
    return isinstance(name, str) and os.sep not in name and name not in (".", "..")


def _read_json(path, parse):
    """parse() of the JSON document in the catalog file at `path`."""
    return _read_file(path, lambda text: parse(json.loads(text)))


# ---------------------------------------------------------------------------
# serialization

LINK_TYPES = {"similarity": SimilarityLink, "parenthood": ParenthoodLink}
_LINK_TYPE_NAMES = {cls: name for name, cls in LINK_TYPES.items()}


def link_to_dict(link) -> dict:
    """The `links.jsonl` record of a link: its encoding tagged with its type."""
    return {"type": _LINK_TYPE_NAMES[type(link)], **encode(link)}


def link_from_dict(d: dict):
    """The link of a `links.jsonl` record, checked."""
    cls = LINK_TYPES[d["type"]]
    return decode(cls, check(cls, d))


def _manifest_checksum(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def _add_links(similarity: dict, parenthood: list, links) -> None:
    """Add links to a handle's loaded (similarity, parenthood): a
    similarity link replaces the one stored for its key."""
    for link in links:
        if isinstance(link, SimilarityLink):
            similarity[link.key()] = link
        else:
            parenthood.append(link)


# ---------------------------------------------------------------------------
# catalog handle

class Catalog:
    """Handle on one catalog directory. Single writer per catalog,
    enforced with an flock on the lock file; construct via open_catalog()."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.log = EventLog(self.log_path)
        self._lock_fd = None  # holds the writer lock while open
        self._records = {}  # object id -> its parsed file, once read

    # -- paths
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def links_path(self) -> Path:
        return self.root / "links.jsonl"

    @property
    def groupings_dir(self) -> Path:
        return self.root / "groupings"

    @property
    def index_path(self) -> Path:
        return self.root / "index" / "terms.json"

    @property
    def resources_dir(self) -> Path:
        return self.root / "resources"

    @property
    def log_path(self) -> Path:
        return self.root / "log.jsonl"

    def _object_path(self, oid: str) -> str:
        if not _is_file_name(oid):
            raise NotFound(f"no object {oid!r}")
        return f"{self.root}/objects/{oid}.json"  # a str: no Path built per read

    # -- lifecycle
    def close(self) -> None:
        """Release the writer lock and drop the parsed object records.
        The lock file stays: unlinking it would race with an opener that
        has already opened it."""
        self._records.clear()
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- changes
    def commit(self, actor: str, events, obj: Optional[Hypernode] = None,
               links=()) -> None:
        """The one way the catalog changes: store the hypernode `obj`,
        append `links` and log the (action, target, detail) `events`.

        Nothing is written until every check has passed: the actor and
        the actions, and the log's last line for the seqs; a due log
        checkpoint and the records it folds in; with links, the links
        file and the links' records; with an object, the index, the
        object's postings and the index text they make, and put_object
        validates the object, its id and its record before the first
        write. Then each file is written once, in this order: the log
        checkpoint, when the log has grown past the stored one by the
        share that calls for one; the object; the index (unless the
        object's postings are unchanged); `links.jsonl`; `log.jsonl`. The
        handle's memory of a file changes only after its write, but for
        the loaded index: the object's postings change in it first, so a
        failure before the index file is written drops it, and the next
        use reads the file again."""
        records = self.log.new_records(actor, events)
        checkpoint = self.log.new_checkpoint()
        if links:
            similarity, parenthood = self._links
            rows = [check(type(link), link_to_dict(link)) for link in links]
        if obj is not None:
            try:
                text = index_hypernode(self, obj)
                self.put_object(obj, checkpoint)
                if text is not None:
                    self.save_index(text)
            except BaseException:
                self.__dict__.pop("index", None)
                raise
        else:
            self._save_checkpoint(checkpoint)
        if links:
            auditlog.append_records(self.links_path, rows)
            _add_links(similarity, parenthood, links)
        self.log.write(records)

    # -- objects
    def put_object(self, h: Hypernode, checkpoint=None) -> str:
        """Write the validated and checked hypernode to its file alone:
        an object change goes through commit, which also indexes and
        logs it, and passes the log checkpoint it makes, written here
        once the object has passed its checks. A write that fails leaves
        the old file, and its record."""
        violations = [v for v in validate_hypernode(h) if not v.advisory]
        if violations:
            raise ValidationFailed(violations)
        path, record = self._object_path(h.id), check(Hypernode, encode(h))
        self._save_checkpoint(checkpoint)
        atomic_write_json(path, record)
        self._records.pop(h.id, None)
        return h.id

    def _save_checkpoint(self, checkpoint) -> None:
        """Write the log checkpoint `checkpoint`, unless it is None."""
        if checkpoint is not None:
            atomic_write_text(self.log.checkpoint_path,
                              _compact_json(check(Checkpoint, encode(checkpoint))), durable=False)

    def _read_object(self, oid: str) -> tuple:
        """(record, h): the object's kept record, read at the first call, and
        the hypernode its full check decoded then; None on later calls."""
        if oid in self._records:
            return self._records[oid], None
        try:
            h, record = _read_json(self._object_path(oid), lambda d: (
                check_types(decode(Hypernode, check(Hypernode, d))), d))
        # ValueError: an id no file can be named by, such as one with a NUL
        except (FileNotFoundError, NotADirectoryError, ValueError):
            raise NotFound(f"no object {oid!r}") from None
        if h.id != oid:
            raise CorruptCatalog(f"{self._object_path(oid)}: holds object {h.id!r}")
        self._records[oid] = record
        return record, h

    def get_object(self, oid: str, record_access: bool = False,
                   actor: str = "system") -> Hypernode:
        """The stored object, decoded afresh on each call: no other
        caller holds the returned hypernode or any of its containers.
        Its file is read once per handle, and again after a put_object."""
        record, h = self._read_object(oid)
        h = h or decode(Hypernode, record)
        if record_access:
            self.commit(actor, [(ACTION_ACCESS, oid, {"via": "get"})])
        return h

    def object_field(self, oid: str, name: str):
        """The field `name` of the stored object, decoded afresh from its
        kept record alone, as get_object(oid).<name> would give it."""
        record, h = self._read_object(oid)
        return decode_field(Hypernode, record, name) if h is None else getattr(h, name)

    def has_object(self, oid: str) -> bool:
        return _is_file_name(oid) and os.path.exists(self._object_path(oid))

    def object_ids(self) -> list:
        """Path.stem of each name in `objects/` that ends in ".json"."""
        return sorted(name[:-5] or name for name in os.listdir(self.objects_dir)
                      if name.endswith(".json"))

    def list_objects(self) -> list:
        """(ObjectId, attributes) pairs in id order."""
        return [(oid, self.object_field(oid, "attributes")) for oid in self.object_ids()]

    # -- links
    @functools.cached_property
    def _links(self) -> tuple:
        """(similarity, parenthood): (a, b, metric) -> its latest link, and the
        ParenthoodLinks in stored order; read from `links.jsonl` at first use."""
        similarity, parenthood = {}, []
        _add_links(similarity, parenthood,
                   read_records(self.links_path, link_from_dict))
        return similarity, parenthood

    def add_similarity_link(self, link: SimilarityLink) -> None:
        """Store or replace the link for (a, b, metric). The file stays
        append-only; on load the latest record for a key wins."""
        self.commit("system", [], links=[link])

    def similarity_links(self) -> list:
        """The latest link of each (a, b, metric), in the order the keys
        were first stored."""
        return list(self._links[0].values())

    def parenthood_links(self) -> list:
        return list(self._links[1])

    # -- groupings
    def _grouping_path(self, parameter: str) -> Path:
        return self.groupings_dir / f"{quote(parameter, safe='')}.json"

    def save_grouping(self, g: Grouping) -> None:
        atomic_write_json(self._grouping_path(g.parameter), check(Grouping, encode(g)))

    def groupings(self) -> list:
        return [_read_json(path, lambda d: decode(Grouping, check(Grouping, d)))
                for path in sorted(self.groupings_dir.glob("*.json"))]

    # -- index
    @functools.cached_property
    def index(self) -> InvertedIndex:
        """The inverted index, read from its file at first use."""
        if not self.index_path.exists():
            return InvertedIndex()
        return _read_file(self.index_path, lambda text: InvertedIndex.from_dict(
            json.loads(text), str(self.index_path), text))

    def save_index(self, text: str) -> None:
        """Write `text`, the index's JSON, to the index file."""
        atomic_write_text(self.index_path, text)

    # -- resources
    @functools.cached_property
    def resources(self) -> dict:
        """name -> Thesaurus, every stored thesaurus parsed at first use."""
        return {res.stem: _read_file(res, functools.partial(parse_thesaurus, res.stem))
                for res in sorted(self.resources_dir.glob("*.txt"))}

    def store_resource(self, name: str, text: str, thesaurus: Thesaurus) -> None:
        atomic_write_text(self.resources_dir / f"{name}.txt", text)
        self.resources[name] = thesaurus

    # -- whole-catalog views
    def export(self) -> dict:
        """Deterministic JSON document of the catalog's full logical
        content; two catalogs with equal content export identically."""
        ids = self.object_ids()
        return {
            "format": EXPORT_FORMAT,
            "manifest": {"object_count": len(ids)},
            "objects": [encode(self.get_object(oid)) for oid in ids],
            "similarity": [link_to_dict(l) for l in sorted(self.similarity_links(),
                                                           key=SimilarityLink.key)],
            "parenthood": [link_to_dict(l) for l in sorted(self._links[1], key=lambda l: l.id)],
            "groupings": [encode(g) for g in sorted(self.groupings(), key=lambda g: g.parameter)],
            "index": self.index.to_dict(),
            "log": [encode(r) for r in self.log.records()],
            "resources": {
                name: self.resources[name].to_text() for name in sorted(self.resources)
            },
        }

    def validate(self) -> list:
        """Structural validation of every hypernode plus the inter-object
        layer; returns all violations. It reads every catalog file, so
        a damaged one raises CorruptCatalog here whatever command would
        read it."""
        self.index.check()
        self.log.records()
        self.resources  # parses every stored thesaurus
        out = []
        drift = self.log.checkpoint_drift()
        if drift is not None:
            out.append(Violation("log-checkpoint", drift))
        attribute_values = {}
        ids = self.object_ids()
        for oid in ids:
            h = self.get_object(oid)
            out.extend(validate_hypernode(h))
            attribute_values[oid] = h.attributes
        out.extend(
            validate_catalog_graph(
                ids,
                similarity_links=sorted(self.similarity_links(), key=SimilarityLink.key),
                parenthood_links=self.parenthood_links(),
                groupings=self.groupings(),
                attribute_values=attribute_values,
            )
        )
        return out


def open_catalog(path, create_if_missing: bool = False) -> Catalog:
    """Open (or create) the catalog at `path`, take the writer lock and
    read the manifest; the other files are read at first use. Without
    `create_if_missing`, a directory with no manifest is no catalog, and
    nothing is written to it."""
    root = Path(path)
    if not create_if_missing and not (root / MANIFEST).exists():
        raise NotFound(f"no catalog at {root}")
    root.mkdir(parents=True, exist_ok=True)
    cat = Catalog(root)
    try:
        # the kernel drops an flock when its descriptor is closed or the
        # process dies; the pid in the file only names the holder
        cat._lock_fd = os.open(root / LOCKFILE, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(cat._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(cat._lock_fd, 32).decode("ascii", "replace").strip()
            raise LockHeld(f"catalog at {root} locked by pid {holder or '?'}") from None
        os.ftruncate(cat._lock_fd, 0)
        os.write(cat._lock_fd, str(os.getpid()).encode("ascii"))
        for d in (cat.objects_dir, cat.groupings_dir, cat.index_path.parent,
                  cat.resources_dir):
            d.mkdir(exist_ok=True)
        manifest_path = root / MANIFEST
        if manifest_path.exists():
            manifest = _read_json(manifest_path, dict)
            if manifest.get("checksum") != _manifest_checksum(manifest):
                raise CorruptCatalog("manifest checksum mismatch")
        else:
            manifest = {"created_at": datetime.now().astimezone().isoformat()}
            manifest["checksum"] = _manifest_checksum(manifest)
            atomic_write_json(manifest_path, manifest)
    except Exception:
        cat.close()
        raise
    return cat


def import_catalog(path, doc: dict) -> Catalog:
    """Materialize an export document as a fresh catalog at `path`. The
    document's shape, each record, the index and each thesaurus are
    checked first, as a read of their file would check them: one it
    would refuse raises CorruptCatalog before the target is made."""
    parsers = {"objects": lambda d: check_types(decode(Hypernode, check(Hypernode, d))),
               "similarity": link_from_dict, "parenthood": link_from_dict,
               "groupings": lambda d: decode(Grouping, check(Grouping, d)),
               "log": auditlog.record_parser()}
    _parsed("export", functools.partial(check, dict), doc)
    for kind in parsers:
        _parsed(f"export {kind}", functools.partial(check, list), doc.get(kind))
    index, resources = (_parsed(f"export {kind}", functools.partial(check, dict),
                                doc.get(kind, {})) for kind in ("index", "resources"))
    if doc.get("format") != EXPORT_FORMAT:
        raise CorruptCatalog(f"unknown export format {doc.get('format')!r}")
    for kind, parse in parsers.items():
        for i, record in enumerate(doc[kind]):
            _parsed(f"export {kind} record {i}", parse, record)
    _parsed("export index", lambda d: InvertedIndex.from_dict(d, "export index").check(), index)
    for name, text in resources.items():
        _parsed(f"export resource {name!r}", lambda t: parse_thesaurus(name, check(str, t)), text)
    for name in [obj["id"] for obj in doc["objects"]] + list(resources):
        if not _is_file_name(name):
            raise CorruptCatalog(f"export names a file outside the catalog: {name!r}")
    root = Path(path)
    if root.exists() and any(root.iterdir()):
        raise CorruptCatalog(f"import target {root} is not empty")
    with open_catalog(root, create_if_missing=True) as cat:
        for obj in doc["objects"]:
            atomic_write_json(cat._object_path(obj["id"]), obj)
        auditlog.append_records(cat.links_path, doc["similarity"] + doc["parenthood"])
        for g in doc["groupings"]:
            atomic_write_json(cat._grouping_path(g["parameter"]), g)
        atomic_write_json(cat.index_path, index)
        auditlog.append_records(cat.log_path, doc["log"])
        for name, text in resources.items():
            atomic_write_text(cat.resources_dir / f"{name}.txt", text)
    return open_catalog(root)
