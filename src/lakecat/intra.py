"""Per-object evolution: creating objects, adding representations via
transformations, adding versions via updates, and traversing the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import auditlog
from .errors import KindMismatch, MissingProperty, NotFound
from .model import (
    Hypernode,
    MetaEdge,
    MetaNode,
    REPRESENTATION,
    REQUIRED_OBJECT_PROPERTIES,
    TRANSFORMATION,
    UPDATE,
    VERSION,
    adjacency,
    new_edge_id,
    new_node_id,
    new_object_id,
    now_utc,
)

NEW_VERSION = "new-version"
OVERWRITE_IN_PLACE = "overwrite-in-place"


@dataclass
class TransformationSpec:
    description: str
    actor: str
    script: Optional[str] = None
    produces_locator: Optional[str] = None

    def __post_init__(self):
        if not self.description:
            raise ValueError("transformation description must be non-empty")


@dataclass
class UpdateSpec:
    description: str
    actor: str
    produces_locator: str
    strategy: str = NEW_VERSION

    def __post_init__(self):
        if not self.description:
            raise ValueError("update description must be non-empty")
        if self.strategy not in (NEW_VERSION, OVERWRITE_IN_PLACE):
            raise ValueError(f"unknown update strategy {self.strategy!r}")


def new_object(raw_locator: str, properties: dict) -> Hypernode:
    """New in-memory hypernode whose single root version node holds the
    raw data locator. Properties must include title, origin, and
    ingest_format. Nothing is written."""
    missing = [p for p in REQUIRED_OBJECT_PROPERTIES if p not in properties]
    if missing:
        raise MissingProperty(f"missing required propert(ies): {', '.join(missing)}")
    root = MetaNode(
        id=new_node_id(),
        kind=VERSION,
        attributes={"label": "v1"},
        content_locator=raw_locator,
        created_at=now_utc(),
    )
    size = properties.get("size_bytes")
    if isinstance(size, int):
        root.attributes["size_bytes"] = size
    fmt = properties.get("ingest_format")
    if isinstance(fmt, str):
        root.attributes["format"] = fmt
    h = Hypernode(id=new_object_id(), nodes={root.id: root}, attributes=dict(properties))
    h.refresh_aggregates()
    return h


def create_detail(h: Hypernode) -> dict:
    """Detail of the Create event for a hypernode made by new_object."""
    root = h.root()
    return {"locator": root.content_locator, "root": root.id}


def _resolve_node(h: Hypernode, node_id: str) -> MetaNode:
    if node_id in h.nodes:
        return h.nodes[node_id]
    # short id prefixes are accepted when unambiguous
    matches = [n for nid, n in h.nodes.items() if nid.startswith(node_id)]
    if len(matches) == 1:
        return matches[0]
    raise NotFound(f"no node {node_id!r} in object {h.id}")


def _grow(catalog, h: Hypernode, parent: MetaNode, kind: str, attrs: dict, spec,
          edge_kind: str, edge_attrs: dict, action: str, detail: dict) -> str:
    """Hang a new `kind` node, holding `attrs` and the spec's locator,
    below `parent` behind a new `edge_kind` edge that records the spec's
    actor and description, then refresh the aggregates and commit h with
    one `action` event: the node's id and `detail`. The new node's id."""
    node = MetaNode(
        id=new_node_id(),
        kind=kind,
        attributes=attrs,
        content_locator=spec.produces_locator,
        created_at=now_utc(),
    )
    edge = MetaEdge(
        id=new_edge_id(),
        kind=edge_kind,
        from_node=parent.id,
        to_node=node.id,
        attributes={"actor": spec.actor, "at": now_utc(), **edge_attrs,
                    "description": spec.description},
    )
    h.nodes[node.id] = node
    h.edges[edge.id] = edge
    h.refresh_aggregates()
    catalog.commit(spec.actor, [(action, h.id, {"node": node.id, **detail})], h)
    return node.id


def add_representation(catalog, obj: str, parent: str, t: TransformationSpec,
                       attrs: Optional[dict] = None) -> str:
    """Derive a new representation from any existing node through a
    transformation edge carrying the given description or script."""
    h = catalog.get_object(obj)
    parent_node = _resolve_node(h, parent)
    return _grow(catalog, h, parent_node, REPRESENTATION, dict(attrs or {}), t, TRANSFORMATION,
                 {} if t.script is None else {"script": t.script},
                 auditlog.ACTION_TRANSFORM, {"parent": parent_node.id})


def add_version(catalog, obj: str, parent_version: str, u: UpdateSpec,
                attrs: Optional[dict] = None) -> str:
    """Record a data update. The new-version strategy appends a version
    node behind an update edge, with the parent's format unless `attrs`
    gives one; overwrite-in-place rewrites the parent version's locator
    and attributes, keeping a change note."""
    h = catalog.get_object(obj)
    parent_node = _resolve_node(h, parent_version)
    if parent_node.kind != VERSION:
        raise KindMismatch(
            f"node {parent_node.id} is a {parent_node.kind}; versions cannot "
            "derive from representations"
        )
    if u.strategy == OVERWRITE_IN_PLACE:
        parent_node.content_locator = u.produces_locator
        parent_node.attributes.update(attrs or {})
        notes = parent_node.attributes.setdefault("change_notes", [])
        notes.append(f"{u.actor}: {u.description}")
        h.refresh_aggregates()
        catalog.commit(u.actor, [(auditlog.ACTION_UPDATE, h.id,
                                  {"node": parent_node.id, "strategy": u.strategy})], h)
        return parent_node.id
    attrs = dict(attrs or {})
    if "format" not in attrs and "format" in parent_node.attributes:
        attrs["format"] = parent_node.attributes["format"]
    return _grow(catalog, h, parent_node, VERSION, attrs, u, UPDATE, {},
                 auditlog.ACTION_UPDATE, {"strategy": u.strategy})


def get_tree(catalog, obj: str) -> list:
    """Preorder view of the object's tree: (depth, MetaNode, MetaEdge or
    None for the root), children ordered by creation time. The walk keeps
    its own stack, so a tree of any depth is shown."""
    h = catalog.get_object(obj)
    root = h.root()
    if root is None:
        raise NotFound(f"object {obj} has no unique root")
    below = adjacency((e.from_node, (h.nodes[e.to_node], e))  # node id -> [(child, edge)]
                      for e in h.edges.values() if e.to_node in h.nodes)
    out, seen = [], set()
    stack = [(0, root, None)]
    while stack:
        depth, node, edge = stack.pop()
        if node.id in seen:
            raise NotFound(f"object {obj}: node {node.id} is reached twice; not a tree")
        seen.add(node.id)
        out.append((depth, node, edge))
        kids = sorted(below.get(node.id, ()), key=lambda pair: (pair[0].created_at, pair[0].id))
        stack.extend((depth + 1, child, e) for child, e in reversed(kids))
    return out


def latest_version(h: Hypernode) -> MetaNode:
    """Most recently created version node (creation time, then id)."""
    versions = [n for n in h.nodes.values() if n.kind == VERSION]
    return max(versions, key=lambda n: (n.created_at, n.id))
