"""Core domain types for the catalog: hypernodes, tree nodes and edges,
inter-object links, groupings, and the structural validators.

Everything here is a plain in-memory value; persistence lives in `store`.

Every graph is a map from a node to the list of its successors, which
`adjacency` builds from (a, b) pairs; a list may repeat a successor.
Three walks read the maps, each for what the others cannot answer:
`reachable`, the set reached from one start, for set questions such as
lineage and clusters; `has_cycle`, Kahn's algorithm, which needs no start
and is linear and iterative; and `intra.get_tree`'s ordered preorder,
for display order, which refuses a node that is reached twice.
"""

from __future__ import annotations

import secrets
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from typing import Any, Iterable, Optional

VERSION = "version"
REPRESENTATION = "representation"
UPDATE = "update"
TRANSFORMATION = "transformation"

ON_DEMAND_VIEW = "on-demand view"

NODE_KINDS = (VERSION, REPRESENTATION)
EDGE_KINDS = (UPDATE, TRANSFORMATION)

# the only admissible (from kind, to kind, edge kind) triples
EDGE_KIND_MATRIX = {
    (VERSION, VERSION, UPDATE),
    (VERSION, REPRESENTATION, TRANSFORMATION),
    (REPRESENTATION, REPRESENTATION, TRANSFORMATION),
}

REQUIRED_OBJECT_PROPERTIES = ("title", "origin", "ingest_format")
AGGREGATE_LABELS = ("n_versions", "n_representations", "total_size_bytes")


def now_utc() -> datetime:
    return datetime.now(timezone.utc)


def new_id(prefix: str) -> str:
    """Opaque random id with a type prefix; unique within a catalog."""
    return f"{prefix}_{secrets.token_hex(8)}"


def new_object_id() -> str:
    return new_id("obj")


def new_node_id() -> str:
    return new_id("nod")


def new_edge_id() -> str:
    return new_id("edg")


def new_link_id() -> str:
    return new_id("lnk")


def normalize_tag_label(label: str) -> str:
    return label.strip().lower()


@dataclass(frozen=True)
class Tag:
    label: str
    source: str = "manual"

    def __post_init__(self):
        object.__setattr__(self, "label", normalize_tag_label(self.label))


# summary kind -> the fields of its entries
SUMMARY_ENTRIES = {"wordcloud": ("term", "count"), "schema": ("path", "type", "count")}


@dataclass
class Summary:
    """Content overview: an inferred schema or a word cloud.

    Schema payload entries are (path, inferred type, occurrence count);
    word cloud entries are (term, frequency) in descending frequency.
    """

    kind: str  # "schema" | "wordcloud"
    payload: list[tuple] = field(default_factory=list)
    row_count: Optional[int] = None


@dataclass
class MetaNode:
    id: str
    kind: str  # VERSION | REPRESENTATION
    attributes: dict[str, Any] = field(default_factory=dict)
    content_locator: Optional[str] = None
    created_at: datetime = field(default_factory=now_utc)


@dataclass
class MetaEdge:
    id: str
    kind: str  # UPDATE | TRANSFORMATION
    from_node: str
    to_node: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass
class Hypernode:
    """Per-object metadata container: a rooted tree of version and
    representation nodes plus object-level attributes, tags, description,
    and an optional content summary."""

    id: str
    nodes: dict[str, MetaNode] = field(default_factory=dict)
    edges: dict[str, MetaEdge] = field(default_factory=dict)
    attributes: dict[str, Any] = field(default_factory=dict)
    tags: set[Tag] = field(default_factory=set)
    description: Optional[str] = None
    description_history: list[str] = field(default_factory=list)
    summary: Optional[Summary] = None

    def root(self) -> Optional[MetaNode]:
        targets = {e.to_node for e in self.edges.values()}
        roots = [n for n in self.nodes.values() if n.id not in targets]
        if len(roots) == 1:
            return roots[0]
        return None

    def recount(self) -> dict:
        """Recompute the three tracked aggregates from the node set."""
        sizes = 0
        for n in self.nodes.values():
            size = n.attributes.get("size_bytes")
            if isinstance(size, int):
                sizes += size
        return {
            "n_versions": sum(1 for n in self.nodes.values() if n.kind == VERSION),
            "n_representations": sum(
                1 for n in self.nodes.values() if n.kind == REPRESENTATION
            ),
            "total_size_bytes": sizes,
        }

    def refresh_aggregates(self) -> None:
        self.attributes.update(self.recount())


def check_types(h: Hypernode) -> Hypernode:
    """`h`, unless a summary entry is not its kind's fields, a string
    first and a number last: the one rule of a value the codec does not
    check, as `payload` is typed `list[tuple]`; that raises TypeError.
    `Catalog.get_object` runs it on each object file it reads, so such a
    file is a corrupt catalog, and not on each decode of a kept record."""
    s = h.summary
    fields = SUMMARY_ENTRIES.get(s.kind) if s is not None else None
    if fields and not ({len(fields)} >= set(map(len, s.payload))
                       and {str} >= set(map(type, map(itemgetter(0), s.payload)))
                       and {int, float} >= set(map(type, map(itemgetter(-1), s.payload)))):
        raise TypeError(f"a {s.kind} entry of {h.id!r} is not ({', '.join(fields)})")
    return h


@dataclass
class SimilarityLink:
    id: str
    endpoints: tuple[str, str]  # unordered pair of ObjectId, stored sorted
    metric_name: str
    value: float
    computed_at: datetime
    compared_nodes: tuple[str, str]  # (NodeId in endpoints[0], NodeId in endpoints[1])

    def __post_init__(self):
        a, b = self.endpoints
        if a > b:
            self.endpoints = (b, a)
            self.compared_nodes = (self.compared_nodes[1], self.compared_nodes[0])

    def key(self) -> tuple:
        return (self.endpoints[0], self.endpoints[1], self.metric_name)


@dataclass
class ParenthoodLink:
    id: str
    parents: frozenset[str]  # ObjectIds, len >= 2
    child: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass
class Grouping:
    parameter: str  # attribute label or "tags"
    collections: dict[str, set[str]] = field(default_factory=dict)  # value -> ObjectIds
    computed_at: datetime = field(default_factory=now_utc)


@dataclass(frozen=True)
class Violation:
    """A broken structural rule, naming the rule and the offending ids."""

    rule: str
    message: str
    ids: tuple = ()
    advisory: bool = False


def _violation(rule: str, message: str, *ids: str, advisory: bool = False) -> Violation:
    return Violation(rule=rule, message=message, ids=tuple(ids), advisory=advisory)


def validate_hypernode(h: Hypernode) -> list:
    """Check every structural rule of a hypernode tree.

    Returns an empty list iff the hypernode is well formed. Side-effect
    free; each Violation names the broken rule and the ids involved.
    """
    out = []
    node_ids = set(h.nodes)

    for node in h.nodes.values():
        if node.kind not in NODE_KINDS:
            out.append(
                _violation("unknown-node-kind", f"node {node.id} has kind {node.kind!r}", node.id)
            )
        if node.content_locator == ON_DEMAND_VIEW:
            recompute = node.attributes.get("recomputation")
            if not recompute:
                out.append(
                    _violation(
                        "on-demand-view-without-recipe",
                        f"on-demand view node {node.id} lacks a recomputation description",
                        node.id,
                    )
                )

    in_degree = {nid: 0 for nid in node_ids}
    dangling = False
    for edge in h.edges.values():
        missing = [nid for nid in (edge.from_node, edge.to_node) if nid not in node_ids]
        if missing:
            dangling = True
            out.append(
                _violation(
                    "dangling-endpoint",
                    f"edge {edge.id} references missing node(s) {', '.join(missing)}",
                    edge.id,
                    *missing,
                )
            )
            continue
        if edge.kind not in EDGE_KINDS:
            out.append(
                _violation("unknown-edge-kind", f"edge {edge.id} has kind {edge.kind!r}", edge.id)
            )
            continue
        in_degree[edge.to_node] += 1
        src = h.nodes[edge.from_node]
        dst = h.nodes[edge.to_node]
        triple = (src.kind, dst.kind, edge.kind)
        if triple not in EDGE_KIND_MATRIX:
            if dst.kind == VERSION and src.kind == REPRESENTATION:
                msg = f"edge {edge.id}: version {dst.id} derived from representation {src.id}"
                rule = "version-derived-from-representation"
            else:
                msg = (
                    f"edge {edge.id}: kind {edge.kind} not admissible from "
                    f"{src.kind} to {dst.kind}"
                )
                rule = "edge-kind-matrix"
            out.append(_violation(rule, msg, edge.id, src.id, dst.id))
        missing_attrs = [
            a for a in ("actor", "at") if a not in edge.attributes
        ]
        if "description" not in edge.attributes and "script" not in edge.attributes:
            missing_attrs.append("description|script")
        if missing_attrs:
            out.append(
                _violation(
                    "edge-missing-attributes",
                    f"edge {edge.id} lacks required attribute(s) {', '.join(missing_attrs)}",
                    edge.id,
                )
            )

    if node_ids:
        roots = [nid for nid, deg in in_degree.items() if deg == 0]
        if len(roots) > 1:
            out.append(
                _violation("multiple-roots", "more than one node has in-degree 0", *sorted(roots))
            )
        elif not roots:
            out.append(_violation("no-root", "every node has an incoming edge (cycle)"))
        else:
            root = h.nodes[roots[0]]
            if root.kind != VERSION:
                out.append(
                    _violation(
                        "root-not-version",
                        f"root node {root.id} has kind {root.kind}, expected {VERSION}",
                        root.id,
                    )
                )
        over = [nid for nid, deg in in_degree.items() if deg > 1]
        for nid in over:
            out.append(
                _violation("in-degree-exceeded", f"node {nid} has more than one incoming edge", nid)
            )
        if not dangling and len(roots) == 1 and not over:
            # single root, all in-degrees <= 1: a cycle would show as no-root,
            # but check reachability to catch disconnected cyclic components
            children = adjacency((e.from_node, e.to_node) for e in h.edges.values())
            unreached = sorted(node_ids - reachable(children, roots[0]) - {roots[0]})
            if unreached:
                out.append(
                    _violation(
                        "unreachable-nodes",
                        "node(s) not reachable from the root (cycle or disconnect): "
                        + ", ".join(unreached),
                        *unreached,
                    )
                )
    else:
        out.append(_violation("empty-tree", "hypernode has no nodes"))

    expected = h.recount()
    for label in AGGREGATE_LABELS:
        stored = h.attributes.get(label)
        if stored is not None and stored != expected[label]:
            out.append(
                _violation(
                    "stale-aggregate",
                    f"attribute {label}={stored} but recount gives {expected[label]}",
                    h.id,
                )
            )

    if h.summary is not None:
        out.extend(_validate_summary(h.summary, h.id))

    for tag in h.tags:
        if not tag.label or tag.label != normalize_tag_label(tag.label):
            out.append(
                _violation("malformed-tag", f"tag {tag.label!r} is empty or unnormalized", h.id)
            )

    return out


def adjacency(pairs) -> dict:
    """a -> the list of every b of the (a, b) pairs, in pair order."""
    out = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


def reachable(graph: dict, start) -> set:
    """Nodes reached from `start` in one or more steps, where `graph`
    maps a node to its successors; `start` itself is in the result only
    if it lies on a cycle."""
    seen = set()
    frontier = [start]
    while frontier:
        for nxt in graph.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _validate_summary(s: Summary, owner: str) -> list:
    out = []
    if s.kind == "wordcloud":
        freqs = [f for _, f in s.payload]
        if any(f <= 0 for f in freqs):
            out.append(_violation("wordcloud-nonpositive", "word cloud frequency <= 0", owner))
        if freqs != sorted(freqs, reverse=True):
            out.append(
                _violation("wordcloud-unsorted", "word cloud not in descending frequency", owner)
            )
    elif s.kind == "schema":
        paths = [p for p, _, _ in s.payload]
        if len(paths) != len(set(paths)):
            out.append(_violation("schema-duplicate-path", "duplicate schema path", owner))
    else:
        out.append(_violation("unknown-summary-kind", f"summary kind {s.kind!r}", owner))
    return out


def validate_catalog_graph(
    objects: Iterable[str],
    similarity_links: Iterable[SimilarityLink] = (),
    parenthood_links: Iterable[ParenthoodLink] = (),
    groupings: Iterable[Grouping] = (),
    attribute_values: Optional[dict] = None,
) -> list:
    """Check the inter-object layer: dangling references, parenthood
    cycles, out-of-range similarity values, non-partition groupings.

    `attribute_values` maps ObjectId -> attribute dict and is needed to
    verify that an attribute grouping partitions the carriers of that
    attribute; when omitted the partition check is skipped.
    """
    out = []
    known = set(objects)

    for link in similarity_links:
        a, b = link.endpoints
        if a == b:
            out.append(_violation("self-similarity-link", f"link {link.id} joins {a} to itself", link.id))
        for oid in (a, b):
            if oid not in known:
                out.append(
                    _violation("dangling-object", f"similarity link {link.id} references unknown {oid}", link.id, oid)
                )
        if not (0.0 <= link.value <= 1.0):
            out.append(
                _violation(
                    "value-out-of-range",
                    f"similarity link {link.id} value {link.value} outside [0, 1]",
                    link.id,
                )
            )

    plinks = list(parenthood_links)
    child_counts = Counter(link.child for link in plinks)
    for link in plinks:
        for oid in set(link.parents) | {link.child}:
            if oid not in known:
                out.append(
                    _violation("dangling-object", f"parenthood link {link.id} references unknown {oid}", link.id, oid)
                )
        if link.child in link.parents:
            out.append(
                _violation("self-parenthood", f"link {link.id}: child {link.child} among its parents", link.id)
            )
        if len(link.parents) < 2:
            out.append(
                _violation("too-few-parents", f"parenthood link {link.id} has fewer than 2 parents", link.id)
            )

    if has_cycle(adjacency((p, link.child) for link in plinks for p in link.parents)):
        out.append(_violation("parenthood-cycle", "parenthood links form a cycle"))

    for child, count in sorted(child_counts.items()):
        if count > 1:
            out.append(
                _violation(
                    "re-derived-child",
                    f"object {child} is the child of {count} parenthood links",
                    child,
                    advisory=True,
                )
            )

    for grouping in groupings:
        for value, members in grouping.collections.items():
            for oid in members:
                if oid not in known:
                    out.append(
                        _violation(
                            "dangling-object",
                            f"grouping {grouping.parameter}={value!r} references unknown {oid}",
                            oid,
                        )
                    )
        if grouping.parameter != "tags" and attribute_values is not None:
            seen = {}
            for value, members in grouping.collections.items():
                for oid in members:
                    if oid in seen:
                        out.append(
                            _violation(
                                "grouping-not-partition",
                                f"object {oid} appears in collections {seen[oid]!r} and {value!r} "
                                f"of grouping {grouping.parameter}",
                                oid,
                            )
                        )
                    seen[oid] = value
            carriers = {
                oid
                for oid, attrs in attribute_values.items()
                if grouping.parameter in attrs
            }
            missing = carriers - set(seen)
            for oid in sorted(missing):
                out.append(
                    _violation(
                        "grouping-not-partition",
                        f"object {oid} carries {grouping.parameter} but is in no collection",
                        oid,
                        advisory=True,
                    )
                )

    return out


def has_cycle(graph: dict) -> bool:
    """Whether the graph, mapping a node to its successors, has a
    cycle: peel nodes of in-degree 0 (Kahn's algorithm) and see whether
    any are left. Linear in the edges, and without recursion, so chains
    of any length are checked."""
    indegree = Counter(node for successors in graph.values() for node in successors)
    nodes = graph.keys() | indegree.keys()
    ready = [node for node in nodes if node not in indegree]
    peeled = 0
    while ready:
        peeled += 1
        for nxt in graph.get(ready.pop(), ()):
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    return peeled < len(nodes)
