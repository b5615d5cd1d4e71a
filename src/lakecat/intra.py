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


def create_object(catalog, raw_locator: str, properties: dict,
                  actor: str = "system") -> str:
    """Store a new_object hypernode and log its Create event."""
    h = new_object(raw_locator, properties)
    catalog.put_object(h)
    auditlog.record_event(catalog, actor, auditlog.ACTION_CREATE, h.id, create_detail(h))
    return h.id


def _resolve_node(h: Hypernode, node_id: str) -> MetaNode:
    if node_id in h.nodes:
        return h.nodes[node_id]
    # short id prefixes are accepted when unambiguous
    matches = [n for nid, n in h.nodes.items() if nid.startswith(node_id)]
    if len(matches) == 1:
        return matches[0]
    raise NotFound(f"no node {node_id!r} in object {h.id}")


def add_representation(catalog, obj: str, parent: str, t: TransformationSpec,
                       attrs: Optional[dict] = None) -> str:
    """Derive a new representation from any existing node through a
    transformation edge carrying the given description or script."""
    h = catalog.get_object(obj)
    parent_node = _resolve_node(h, parent)
    node = MetaNode(
        id=new_node_id(),
        kind=REPRESENTATION,
        attributes=dict(attrs or {}),
        content_locator=t.produces_locator,
        created_at=now_utc(),
    )
    edge_attrs = {"actor": t.actor, "at": now_utc()}
    if t.script is not None:
        edge_attrs["script"] = t.script
    edge_attrs["description"] = t.description
    edge = MetaEdge(
        id=new_edge_id(),
        kind=TRANSFORMATION,
        from_node=parent_node.id,
        to_node=node.id,
        attributes=edge_attrs,
    )
    h.nodes[node.id] = node
    h.edges[edge.id] = edge
    h.refresh_aggregates()
    catalog.put_object(h)
    auditlog.record_event(catalog, t.actor, auditlog.ACTION_TRANSFORM, obj,
                          {"node": node.id, "parent": parent_node.id})
    return node.id


def add_version(catalog, obj: str, parent_version: str, u: UpdateSpec,
                attrs: Optional[dict] = None) -> str:
    """Record a data update. The new-version strategy appends a version
    node behind an update edge; overwrite-in-place rewrites the parent
    version's locator and attributes, keeping a change note."""
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
        catalog.put_object(h)
        auditlog.record_event(catalog, u.actor, auditlog.ACTION_UPDATE, obj,
                              {"node": parent_node.id, "strategy": u.strategy})
        return parent_node.id

    node = MetaNode(
        id=new_node_id(),
        kind=VERSION,
        attributes=dict(attrs or {}),
        content_locator=u.produces_locator,
        created_at=now_utc(),
    )
    if "format" not in node.attributes and "format" in parent_node.attributes:
        node.attributes["format"] = parent_node.attributes["format"]
    edge = MetaEdge(
        id=new_edge_id(),
        kind=UPDATE,
        from_node=parent_node.id,
        to_node=node.id,
        attributes={"description": u.description, "actor": u.actor, "at": now_utc()},
    )
    h.nodes[node.id] = node
    h.edges[edge.id] = edge
    h.refresh_aggregates()
    catalog.put_object(h)
    auditlog.record_event(catalog, u.actor, auditlog.ACTION_UPDATE, obj,
                          {"node": node.id, "strategy": u.strategy})
    return node.id


def get_tree(catalog, obj: str) -> list:
    """Preorder view of the object's tree: (depth, MetaNode, MetaEdge or
    None for the root), children ordered by creation time."""
    h = catalog.get_object(obj)
    root = h.root()
    if root is None:
        raise NotFound(f"object {obj} has no unique root")
    out = []

    def walk(node, depth, via_edge):
        out.append((depth, node, via_edge))
        for child in h.children(node.id):
            walk(child, depth + 1, h.edge_between(node.id, child.id))

    walk(root, 0, None)
    return out


def derivation_path(catalog, obj: str, node: str) -> list:
    """The unique root-to-node chain as (MetaNode, MetaEdge) pairs; the
    root's edge entry is None."""
    h = catalog.get_object(obj)
    target = _resolve_node(h, node)
    parent_edge = {}
    for e in h.edges.values():
        parent_edge[e.to_node] = e
    chain = []
    cur = target
    seen = set()
    while True:
        if cur.id in seen:
            raise NotFound(f"cycle while walking to root from {node!r}")
        seen.add(cur.id)
        edge = parent_edge.get(cur.id)
        chain.append((cur, edge))
        if edge is None:
            break
        cur = h.nodes[edge.from_node]
    chain.reverse()
    return chain


def latest_version(h: Hypernode) -> MetaNode:
    """Most recently created version node (creation time, then id)."""
    versions = [n for n in h.nodes.values() if n.kind == VERSION]
    return max(versions, key=lambda n: (n.created_at, n.id))
