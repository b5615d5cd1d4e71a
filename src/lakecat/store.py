"""Durable catalog storage.

One directory per catalog:

    manifest.json        catalog metadata (checksummed)
    catalog.lock         flock held while a handle is open; holds the owner's pid
    objects/<id>.json    one hypernode per file
    links.jsonl          append-only similarity/parenthood records
    groupings/<p>.json   one persisted grouping per parameter
    index/terms.json     the inverted index
    log.jsonl            the append-only event log
    resources/<n>.txt    loaded thesauri

Catalog files are compact JSON (sorted keys, no indentation), which the
C encoder writes; files written indented by earlier versions read the
same. Whole files are written temp-then-rename within the catalog
directory, so a crash never leaves a partially visible file. The two
JSON-Lines files are append-only. Every change is one `Catalog.commit`:
it first builds and checks everything it will write, writing nothing
(the actor and actions of its events, the seqs after the log's last
line, the index, the links file, the object), then writes in a fixed
order, each file once with one fsync: the object, the index,
`links.jsonl`, `log.jsonl`. There is no hard delete. The object count
is not stored: `export` counts the files in `objects/`. The index file
is rewritten whole on each change, but `InvertedIndex.to_json`
re-encodes only the terms that changed since the last save.

Opening a catalog takes the writer lock and reads the manifest only.
Every other file is read when a command first uses it, under the lock
the handle holds for its whole life, so it reads what an open would have
read: the links, the index and the thesauri on first use. An object file
is read by the first `get_object` of it; the handle keeps the parsed
record, and decodes a fresh hypernode from it on every call, until a
write of that object or `close()`. Every object change goes through
`commit`, and no other handle writes while the lock is held, so the
record stays the file's content. The log is read by `EventLog`: the
next seq from its last line, the whole file only for `records()`. So a
damaged file is reported by the commands that read it, and always by
`validate`, which reads every file. A commit reads the index, the links
and the log's last line before it writes anything, so a damaged one
fails it with the catalog unchanged; and the handle's memory of a file
(the loaded links, the next seq, the parsed log) changes only after
that file's write succeeds.
"""

from __future__ import annotations

import dataclasses
import errno
import fcntl
import functools
import hashlib
import json
import operator
import os
import secrets
import typing
from datetime import datetime
from pathlib import Path
from typing import Optional
from urllib.parse import quote

from . import auditlog
from .auditlog import ACTION_ACCESS, EventLog, read_records
from .errors import (
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
    validate_catalog_graph,
    validate_hypernode,
)
from .semantic import Thesaurus, parse_thesaurus

MANIFEST = "manifest.json"
LOCKFILE = "catalog.lock"
EXPORT_FORMAT = "catalog-export-v1"


def atomic_write_text(path, text: str) -> None:
    """Write-temp-then-rename in the target's directory; the destination
    is either the old content or the new, never a mixture."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{secrets.token_hex(4)}")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
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
    atomic_write_text(path, json.dumps(payload, sort_keys=True, ensure_ascii=False,
                                       separators=(",", ":")))


def _read_file(path, parse):
    """parse() of the text of the catalog file at `path`. A file that is
    not UTF-8 or does not parse raises CorruptCatalog naming it; these
    are the errors `read_records` maps for one JSON-Lines record, and a
    stored thesaurus's ResourceParseError. Errors opening it propagate."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse(f.read())
        except (ValueError, KeyError, TypeError, ResourceParseError) as exc:
            raise CorruptCatalog(f"{path}: unreadable: {exc}") from exc


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

# field name -> record key, where the two differ
RENAMED = {"from_node": "from", "to_node": "to", "metric_name": "metric"}
LINK_TYPES = {"similarity": SimilarityLink, "parenthood": ParenthoodLink}
_LINK_TYPE_NAMES = {cls: name for name, cls in LINK_TYPES.items()}


def encode(obj) -> dict:
    """The JSON record of a persisted model value: a Hypernode, a link
    or a Grouping."""
    return _codec(type(obj))[0](obj)


def decode(cls, d: dict):
    """The `cls` value of a record that `encode` wrote. A missing key
    takes its field's default; without one, it raises TypeError."""
    return _codec(cls)[1](d)


def link_to_dict(link) -> dict:
    """The `links.jsonl` record of a link: its encoding tagged with its type."""
    return {"type": _LINK_TYPE_NAMES[type(link)], **encode(link)}


def _encode_any(v):
    return {"__ts__": v.isoformat()} if isinstance(v, datetime) else v


def _decode_any(v):
    if not isinstance(v, (dict, list)):
        return v
    if isinstance(v, dict) and set(v) == {"__ts__"}:
        return datetime.fromisoformat(v["__ts__"])
    return _copy_json(v)


def _copy_json(v):
    """A JSON value with its lists and dicts copied at every depth, so
    the decoded value shares no container with the record."""
    if isinstance(v, list):
        return [_copy_json(x) for x in v]
    if isinstance(v, dict):
        return {k: _copy_json(x) for k, x in v.items()}
    return v


@functools.cache
def _codec(tp):
    """(encode, decode) functions for values of the annotation `tp`,
    derived once per type; (None, None) for a value stored as is. The
    format:
    - str, int, float, bool: as is; Optional[X]: null or X;
    - datetime: an ISO string;
    - Any, an attribute value: as is, but a datetime becomes {"__ts__": ISO};
    - list, tuple: a list; set, frozenset: a sorted list;
    - dict of records with an `id`: the records as a list sorted by id;
    - other dict: a dict with the same keys;
    - frozen dataclass, a value such as Tag: the list of its fields;
    - other dataclass: a dict of its fields, keys renamed by RENAMED.
    Any other type raises TypeError."""
    if tp in (str, int, float, bool):
        return None, None
    if tp is datetime:
        return datetime.isoformat, datetime.fromisoformat
    if tp is typing.Any:
        return _encode_any, _decode_any
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is typing.Union and args[1:] == (type(None),):
        enc, dec = _codec(args[0])
        if enc is None:
            return None, None
        return (lambda v: None if v is None else enc(v),
                lambda v: None if v is None else dec(v))
    # one element type: list[X], set[X], tuple[X, X], tuple[X, ...] or none given
    if origin in (list, tuple, set, frozenset) and len(set(args) - {Ellipsis}) <= 1:
        enc, dec = _codec(args[0]) if args else (None, None)
        as_list = sorted if origin in (set, frozenset) else list
        if enc is None:
            return as_list, origin
        return lambda v: as_list(map(enc, v)), lambda v: origin(map(dec, v))
    if origin is dict and args[:1] == (str,):
        enc, dec = _codec(args[1])
        if "id" in getattr(args[1], "__dataclass_fields__", ()):
            by_id = operator.attrgetter("id")
            return (lambda v: [enc(r) for r in sorted(v.values(), key=by_id)],
                    lambda v: {r.id: r for r in map(dec, v)})
        return (lambda v: {k: enc(x) for k, x in v.items()},
                lambda v: {k: dec(x) for k, x in v.items()})
    raise TypeError(f"no codec for {tp!r}")


def _record_codec(cls):
    hints = typing.get_type_hints(cls)
    fields = [(f.name, RENAMED.get(f.name, f.name), *_codec(hints[f.name]))
              for f in dataclasses.fields(cls)]
    if cls.__dataclass_params__.frozen:
        names = [name for name, *_ in fields]
        return lambda obj: [getattr(obj, name) for name in names], lambda v: cls(*v)
    return (lambda obj: {key: getattr(obj, name) if enc is None else enc(getattr(obj, name))
                         for name, key, enc, _ in fields},
            lambda d: cls(**{name: d[key] if dec is None else dec(d[key])
                             for name, key, _, dec in fields if key in d}))


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
        self.stopwords = None  # optional iterable, set by callers
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

    def _object_path(self, oid: str) -> Path:
        if not _is_file_name(oid):
            raise NotFound(f"no object {oid!r}")
        return self.objects_dir / f"{oid}.json"

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
        the actions, and the log's last line for the seqs; with an
        object, the index, and put_object validates the object and its
        id before its file, the first write; with links, the links file.
        Then each file is written once with one fsync, in this order:
        the object, the index, `links.jsonl`, `log.jsonl`. The handle's
        memory of a file changes only after its write."""
        records = self.log.new_records(actor, events)
        if obj is not None:
            self.index.check()
        if links:
            similarity, parenthood = self._links
        if obj is not None:
            self.put_object(obj)
            index_hypernode(self, obj)
        if links:
            auditlog.append_records(self.links_path, [link_to_dict(l) for l in links])
            _add_links(similarity, parenthood, links)
        self.log.write(records)

    # -- objects
    def put_object(self, h: Hypernode) -> str:
        """Write the validated hypernode to its file and nothing else:
        an object change goes through commit, which also indexes and
        logs it. A write that fails leaves the old file, and its record."""
        violations = [v for v in validate_hypernode(h) if not v.advisory]
        if violations:
            raise ValidationFailed(violations)
        atomic_write_json(self._object_path(h.id), encode(h))
        self._records.pop(h.id, None)
        return h.id

    def get_object(self, oid: str, record_access: bool = False,
                   actor: str = "system") -> Hypernode:
        """The stored object, decoded afresh on each call: no other
        caller holds the returned hypernode or any of its containers.
        Its file is read once per handle, and again after a put_object."""
        record = self._records.get(oid)
        if record is None:
            try:
                h, record = _read_json(self._object_path(oid),
                                       lambda d: (decode(Hypernode, d), d))
            # ValueError: an id no file can be named by, such as one with a NUL
            except (FileNotFoundError, NotADirectoryError, ValueError):
                raise NotFound(f"no object {oid!r}") from None
            self._records[oid] = record
        else:
            h = decode(Hypernode, record)
        if record_access:
            self.commit(actor, [(ACTION_ACCESS, oid, {"via": "get"})])
        return h

    def has_object(self, oid: str) -> bool:
        return _is_file_name(oid) and self._object_path(oid).exists()

    def object_ids(self) -> list:
        return sorted(p.stem for p in self.objects_dir.glob("*.json"))

    def list_objects(self, attr_filter: Optional[dict] = None) -> list:
        """(ObjectId, attributes) pairs in id order; the filter matches
        on attribute equality, conjunctively."""
        out = []
        for oid in self.object_ids():
            h = self.get_object(oid)
            if attr_filter:
                if any(h.attributes.get(k) != v for k, v in attr_filter.items()):
                    continue
            out.append((oid, h.attributes))
        return out

    # -- links
    @functools.cached_property
    def _links(self) -> tuple:
        """(similarity, parenthood), read from `links.jsonl` at first use."""
        similarity, parenthood = {}, []
        _add_links(similarity, parenthood,
                   read_records(self.links_path, lambda d: decode(LINK_TYPES[d["type"]], d)))
        return similarity, parenthood

    @property
    def similarity(self) -> dict:
        """(a, b, metric) -> the latest SimilarityLink stored for it."""
        return self._links[0]

    @property
    def parenthood(self) -> list:
        """The ParenthoodLinks, in the order they were stored."""
        return self._links[1]

    def add_similarity_link(self, link: SimilarityLink) -> None:
        """Store or replace the link for (a, b, metric). The file stays
        append-only; on load the latest record for a key wins."""
        self.commit("system", [], links=[link])

    def add_parenthood_link(self, link: ParenthoodLink) -> None:
        self.commit("system", [], links=[link])

    def similarity_links(self) -> list:
        return sorted(self.similarity.values(), key=lambda l: l.key())

    def parenthood_links(self) -> list:
        return list(self.parenthood)

    # -- groupings
    def _grouping_path(self, parameter: str) -> Path:
        return self.groupings_dir / f"{quote(parameter, safe='')}.json"

    def save_grouping(self, g: Grouping) -> None:
        atomic_write_json(self._grouping_path(g.parameter), encode(g))

    def load_grouping(self, parameter: str) -> Grouping:
        path = self._grouping_path(parameter)
        if not path.exists():
            raise NotFound(f"no stored grouping for {parameter!r}")
        return _read_json(path, functools.partial(decode, Grouping))

    def groupings(self) -> list:
        return [_read_json(path, functools.partial(decode, Grouping))
                for path in sorted(self.groupings_dir.glob("*.json"))]

    # -- index
    @functools.cached_property
    def index(self) -> InvertedIndex:
        """The inverted index, read from its file at first use."""
        if not self.index_path.exists():
            return InvertedIndex()
        return _read_json(self.index_path, functools.partial(
            InvertedIndex.from_dict, source=str(self.index_path)))

    def save_index(self) -> None:
        atomic_write_text(self.index_path, self.index.to_json())

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
            "similarity": [link_to_dict(l) for l in self.similarity_links()],
            "parenthood": [link_to_dict(l) for l in sorted(self.parenthood, key=lambda l: l.id)],
            "groupings": [encode(g) for g in sorted(self.groupings(), key=lambda g: g.parameter)],
            "index": self.index.to_dict(),
            "log": [r.to_dict() for r in self.log.records()],
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
        attribute_values = {}
        ids = self.object_ids()
        for oid in ids:
            h = self.get_object(oid)
            out.extend(validate_hypernode(h))
            attribute_values[oid] = h.attributes
        out.extend(
            validate_catalog_graph(
                ids,
                similarity_links=self.similarity_links(),
                parenthood_links=self.parenthood_links(),
                groupings=self.groupings(),
                attribute_values=attribute_values,
            )
        )
        return out


def open_catalog(path, create_if_missing: bool = False) -> Catalog:
    """Open (or create) the catalog at `path`, take the writer lock and
    read the manifest; the other files are read at first use."""
    root = Path(path)
    if not root.exists():
        if not create_if_missing:
            raise NotFound(f"no catalog at {root}")
        root.mkdir(parents=True)
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
    """Materialize an export document as a fresh catalog at `path`."""
    if doc.get("format") != EXPORT_FORMAT:
        raise CorruptCatalog(f"unknown export format {doc.get('format')!r}")
    for name in [obj["id"] for obj in doc["objects"]] + list(doc.get("resources", {})):
        if not _is_file_name(name):
            raise CorruptCatalog(f"export names a file outside the catalog: {name!r}")
    root = Path(path)
    if root.exists() and any(root.iterdir()):
        raise CorruptCatalog(f"import target {root} is not empty")
    with open_catalog(root, create_if_missing=True) as cat:
        for obj in doc["objects"]:
            atomic_write_json(cat._object_path(obj["id"]), obj)
        auditlog.append_records(cat.links_path, list(doc["similarity"]) + list(doc["parenthood"]))
        for g in doc["groupings"]:
            atomic_write_json(cat._grouping_path(g["parameter"]), g)
        atomic_write_json(cat.index_path, doc.get("index", {}))
        auditlog.append_records(cat.log_path, doc["log"])
        for name, text in doc.get("resources", {}).items():
            atomic_write_text(cat.resources_dir / f"{name}.txt", text)
    return open_catalog(root)
