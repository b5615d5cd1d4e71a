"""Durable catalog storage.

One directory per catalog:

    manifest.json        catalog metadata and counters (checksummed)
    catalog.lock         single-writer lock (owner pid + timestamp)
    objects/<id>.json    one hypernode per file
    links.jsonl          append-only similarity/parenthood records
    groupings/<p>.json   one persisted grouping per parameter
    index/terms.json     the inverted index
    log.jsonl            the append-only event log
    resources/<n>.txt    loaded thesauri

Catalog files are compact JSON (sorted keys, no indentation), which the
C encoder writes; files written indented by earlier versions read the
same. All writes are write-temp-then-rename within the catalog
directory, so a crash never leaves a partially visible file. There is no
hard delete.
"""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import os
import secrets
import time
from datetime import datetime
from pathlib import Path
from typing import Optional
from urllib.parse import quote

from .auditlog import ACTION_ACCESS, EventLog
from .errors import (
    CorruptCatalog,
    LockHeld,
    NotFound,
    StorageFull,
    ValidationFailed,
)
from .index import InvertedIndex
from .model import (
    Grouping,
    Hypernode,
    MetaEdge,
    MetaNode,
    ParenthoodLink,
    SimilarityLink,
    Summary,
    Tag,
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
            if tmp.exists():
                tmp.unlink()
        except OSError:
            pass
        if exc.errno == errno.ENOSPC:
            raise StorageFull(str(exc)) from exc
        raise


def atomic_write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, ensure_ascii=False,
                                       separators=(",", ":")))


# ---------------------------------------------------------------------------
# serialization

def encode_value(v):
    if isinstance(v, datetime):
        return {"__ts__": v.isoformat()}
    return v


def decode_value(v):
    if isinstance(v, dict) and set(v) == {"__ts__"}:
        return datetime.fromisoformat(v["__ts__"])
    return v


def encode_attrs(attrs: dict) -> dict:
    return {k: encode_value(v) for k, v in attrs.items()}


def decode_attrs(attrs: dict) -> dict:
    return {k: decode_value(v) for k, v in attrs.items()}


def summary_to_dict(s: Summary) -> dict:
    return {"kind": s.kind, "payload": [list(entry) for entry in s.payload],
            "row_count": s.row_count}


def summary_from_dict(d: dict) -> Summary:
    return Summary(kind=d["kind"], payload=[tuple(e) for e in d["payload"]],
                   row_count=d.get("row_count"))


def hypernode_to_dict(h: Hypernode) -> dict:
    return {
        "id": h.id,
        "attributes": encode_attrs(h.attributes),
        "tags": sorted([t.label, t.source] for t in h.tags),
        "description": h.description,
        "description_history": list(h.description_history),
        "summary": summary_to_dict(h.summary) if h.summary else None,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "attributes": encode_attrs(n.attributes),
                "content_locator": n.content_locator,
                "created_at": n.created_at.isoformat(),
            }
            for n in sorted(h.nodes.values(), key=lambda n: n.id)
        ],
        "edges": [
            {
                "id": e.id,
                "kind": e.kind,
                "from": e.from_node,
                "to": e.to_node,
                "attributes": encode_attrs(e.attributes),
            }
            for e in sorted(h.edges.values(), key=lambda e: e.id)
        ],
    }


def hypernode_from_dict(d: dict) -> Hypernode:
    nodes = {
        nd["id"]: MetaNode(
            id=nd["id"],
            kind=nd["kind"],
            attributes=decode_attrs(nd["attributes"]),
            content_locator=nd.get("content_locator"),
            created_at=datetime.fromisoformat(nd["created_at"]),
        )
        for nd in d["nodes"]
    }
    edges = {
        ed["id"]: MetaEdge(
            id=ed["id"],
            kind=ed["kind"],
            from_node=ed["from"],
            to_node=ed["to"],
            attributes=decode_attrs(ed["attributes"]),
        )
        for ed in d["edges"]
    }
    summary = summary_from_dict(d["summary"]) if d.get("summary") else None
    return Hypernode(
        id=d["id"],
        nodes=nodes,
        edges=edges,
        attributes=decode_attrs(d["attributes"]),
        tags={Tag(label=label, source=source) for label, source in d.get("tags", [])},
        description=d.get("description"),
        description_history=list(d.get("description_history", [])),
        summary=summary,
    )


def similarity_to_dict(link: SimilarityLink) -> dict:
    return {
        "type": "similarity",
        "id": link.id,
        "endpoints": list(link.endpoints),
        "metric": link.metric_name,
        "value": link.value,
        "computed_at": link.computed_at.isoformat(),
        "compared_nodes": list(link.compared_nodes),
    }


def similarity_from_dict(d: dict) -> SimilarityLink:
    return SimilarityLink(
        id=d["id"],
        endpoints=tuple(d["endpoints"]),
        metric_name=d["metric"],
        value=d["value"],
        computed_at=datetime.fromisoformat(d["computed_at"]),
        compared_nodes=tuple(d["compared_nodes"]),
    )


def parenthood_to_dict(link: ParenthoodLink) -> dict:
    return {
        "type": "parenthood",
        "id": link.id,
        "parents": sorted(link.parents),
        "child": link.child,
        "attributes": encode_attrs(link.attributes),
    }


def parenthood_from_dict(d: dict) -> ParenthoodLink:
    return ParenthoodLink(
        id=d["id"],
        parents=frozenset(d["parents"]),
        child=d["child"],
        attributes=decode_attrs(d["attributes"]),
    )


def grouping_to_dict(g: Grouping) -> dict:
    return {
        "parameter": g.parameter,
        "computed_at": g.computed_at.isoformat(),
        "collections": {value: sorted(members) for value, members in g.collections.items()},
    }


def grouping_from_dict(d: dict) -> Grouping:
    return Grouping(
        parameter=d["parameter"],
        collections={value: set(members) for value, members in d["collections"].items()},
        computed_at=datetime.fromisoformat(d["computed_at"]),
    )


def _manifest_checksum(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# catalog handle

class Catalog:
    """Handle on one catalog directory. Single writer per catalog,
    enforced with a lock file; construct via open_catalog()."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.manifest = {}
        self.similarity = {}  # (a, b, metric) -> SimilarityLink
        self.parenthood = []  # list of ParenthoodLink
        self.resources = {}  # name -> Thesaurus
        self.index = InvertedIndex()
        self.log = None  # EventLog, set in open
        self.stopwords = None  # optional iterable, set by callers
        self._locked = False

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
        return self.objects_dir / f"{oid}.json"

    # -- lifecycle
    def close(self) -> None:
        if self._locked:
            try:
                (self.root / LOCKFILE).unlink()
            except OSError:
                pass
            self._locked = False

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- objects
    def put_object(self, h: Hypernode) -> str:
        violations = [v for v in validate_hypernode(h) if not v.advisory]
        if violations:
            raise ValidationFailed(violations)
        is_new = not self._object_path(h.id).exists()
        atomic_write_json(self._object_path(h.id), hypernode_to_dict(h))
        if is_new:
            self.manifest["object_count"] = self.manifest.get("object_count", 0) + 1
            self._save_manifest()
        return h.id

    def get_object(self, oid: str, record_access: bool = False,
                   actor: str = "system") -> Hypernode:
        path = self._object_path(oid)
        if not path.exists():
            raise NotFound(f"no object {oid!r}")
        with open(path, "r", encoding="utf-8") as f:
            h = hypernode_from_dict(json.load(f))
        if record_access:
            self.log.append(actor, ACTION_ACCESS, oid, {"via": "get"})
        return h

    def has_object(self, oid: str) -> bool:
        return self._object_path(oid).exists()

    def object_ids(self) -> list:
        if not self.objects_dir.exists():
            return []
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
            out.append((oid, copy.deepcopy(h.attributes)))
        return out

    # -- links
    def _append_link_record(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        try:
            with open(self.links_path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFull(str(exc)) from exc
            raise

    def add_similarity_link(self, link: SimilarityLink) -> None:
        """Store or replace the link for (a, b, metric). The file stays
        append-only; on load the latest record for a key wins."""
        self.similarity[link.key()] = link
        self._append_link_record(similarity_to_dict(link))

    def add_parenthood_link(self, link: ParenthoodLink) -> None:
        self.parenthood.append(link)
        self._append_link_record(parenthood_to_dict(link))

    def similarity_links(self) -> list:
        return sorted(self.similarity.values(), key=lambda l: l.key())

    def parenthood_links(self) -> list:
        return list(self.parenthood)

    # -- groupings
    def _grouping_path(self, parameter: str) -> Path:
        return self.groupings_dir / f"{quote(parameter, safe='')}.json"

    def save_grouping(self, g: Grouping) -> None:
        atomic_write_json(self._grouping_path(g.parameter), grouping_to_dict(g))

    def load_grouping(self, parameter: str) -> Grouping:
        path = self._grouping_path(parameter)
        if not path.exists():
            raise NotFound(f"no stored grouping for {parameter!r}")
        with open(path, "r", encoding="utf-8") as f:
            return grouping_from_dict(json.load(f))

    def groupings(self) -> list:
        if not self.groupings_dir.exists():
            return []
        out = []
        for path in sorted(self.groupings_dir.glob("*.json")):
            with open(path, "r", encoding="utf-8") as f:
                out.append(grouping_from_dict(json.load(f)))
        return out

    # -- index
    def save_index(self) -> None:
        atomic_write_json(self.index_path, self.index.to_dict())

    # -- resources
    def store_resource(self, name: str, text: str, thesaurus: Thesaurus) -> None:
        atomic_write_text(self.resources_dir / f"{name}.txt", text)
        self.resources[name] = thesaurus

    # -- manifest
    def _save_manifest(self) -> None:
        self.manifest["checksum"] = _manifest_checksum(self.manifest)
        atomic_write_json(self.root / MANIFEST, self.manifest)

    # -- whole-catalog views
    def export(self) -> dict:
        """Deterministic JSON document of the catalog's full logical
        content; two catalogs with equal content export identically."""
        return {
            "format": EXPORT_FORMAT,
            "manifest": {"object_count": self.manifest.get("object_count", 0)},
            "objects": [
                hypernode_to_dict(self.get_object(oid)) for oid in self.object_ids()
            ],
            "similarity": [similarity_to_dict(l) for l in self.similarity_links()],
            "parenthood": sorted(
                (parenthood_to_dict(l) for l in self.parenthood), key=lambda d: d["id"]
            ),
            "groupings": sorted(
                (grouping_to_dict(g) for g in self.groupings()),
                key=lambda d: d["parameter"],
            ),
            "index": self.index.to_dict(),
            "log": [r.to_dict() for r in self.log.records()],
            "resources": {
                name: self.resources[name].to_text() for name in sorted(self.resources)
            },
        }

    def validate(self) -> list:
        """Structural validation of every hypernode plus the inter-object
        layer; returns all violations."""
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


def _acquire_lock(root: Path) -> None:
    lock = root / LOCKFILE
    payload = json.dumps({"pid": os.getpid(), "at": time.time()})
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, payload.encode("utf-8"))
            os.close(fd)
            return
        except FileExistsError:
            try:
                with open(lock, "r", encoding="utf-8") as f:
                    owner = json.load(f)
                pid = int(owner["pid"])
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                pid = None
            if pid is not None and _pid_alive(pid):
                raise LockHeld(f"catalog at {root} locked by pid {pid}")
            # stale lock: previous owner is gone
            try:
                lock.unlink()
            except OSError:
                pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def open_catalog(path, create_if_missing: bool = False) -> Catalog:
    """Open (or create) the catalog at `path` and take the writer lock."""
    root = Path(path)
    if not root.exists():
        if not create_if_missing:
            raise NotFound(f"no catalog at {root}")
        root.mkdir(parents=True)
    cat = Catalog(root)
    _acquire_lock(root)
    cat._locked = True
    try:
        for d in (cat.objects_dir, cat.groupings_dir, cat.index_path.parent,
                  cat.resources_dir):
            d.mkdir(exist_ok=True)
        manifest_path = root / MANIFEST
        if manifest_path.exists():
            try:
                with open(manifest_path, "r", encoding="utf-8") as f:
                    manifest = json.load(f)
            except (json.JSONDecodeError, OSError) as exc:
                raise CorruptCatalog(f"manifest unreadable: {exc}") from exc
            if manifest.get("checksum") != _manifest_checksum(manifest):
                raise CorruptCatalog("manifest checksum mismatch")
            cat.manifest = manifest
        else:
            cat.manifest = {
                "object_count": 0,
                "created_at": datetime.now().astimezone().isoformat(),
            }
            cat._save_manifest()

        # crash recovery: the objects directory is the ground truth
        actual = len(cat.object_ids())
        if cat.manifest.get("object_count") != actual:
            cat.manifest["object_count"] = actual
            cat._save_manifest()

        if cat.links_path.exists():
            with open(cat.links_path, "r", encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise CorruptCatalog(f"bad link record: {exc}") from exc
                    if record.get("type") == "similarity":
                        link = similarity_from_dict(record)
                        cat.similarity[link.key()] = link
                    elif record.get("type") == "parenthood":
                        cat.parenthood.append(parenthood_from_dict(record))

        if cat.index_path.exists():
            with open(cat.index_path, "r", encoding="utf-8") as f:
                cat.index = InvertedIndex.from_dict(json.load(f))

        for res in sorted(cat.resources_dir.glob("*.txt")):
            with open(res, "r", encoding="utf-8") as f:
                text = f.read()
            cat.resources[res.stem] = parse_thesaurus(res.stem, text)

        cat.log = EventLog(cat.log_path)
    except Exception:
        cat.close()
        raise
    return cat


def import_catalog(path, doc: dict) -> Catalog:
    """Materialize an export document as a fresh catalog at `path`."""
    if doc.get("format") != EXPORT_FORMAT:
        raise CorruptCatalog(f"unknown export format {doc.get('format')!r}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        raise CorruptCatalog(f"import target {root} is not empty")
    (root / "objects").mkdir()
    (root / "groupings").mkdir()
    (root / "index").mkdir()
    (root / "resources").mkdir()
    for obj in doc["objects"]:
        atomic_write_json(root / "objects" / f"{obj['id']}.json", obj)
    with open(root / "links.jsonl", "w", encoding="utf-8") as f:
        for record in list(doc["similarity"]) + list(doc["parenthood"]):
            f.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    for g in doc["groupings"]:
        atomic_write_json(
            root / "groupings" / f"{quote(g['parameter'], safe='')}.json", g
        )
    atomic_write_json(root / "index" / "terms.json", doc.get("index", {}))
    with open(root / "log.jsonl", "w", encoding="utf-8") as f:
        for record in doc["log"]:
            f.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    for name, text in doc.get("resources", {}).items():
        atomic_write_text(root / "resources" / f"{name}.txt", text)
    return open_catalog(root)
