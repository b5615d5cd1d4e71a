"""Inter-object layer: similarity metrics and links, attribute
groupings, parenthood hyperedges with lineage traversal, connected-
component clustering, and neighbor recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Callable, Optional

from . import auditlog
from .errors import CycleDetected, NotComparable, NotFound, TooFewParents
from .index import TEXTUAL_FORMATS, node_tokens, tokenize
from .ingest import SCHEMA_READERS
from .model import (
    Grouping,
    ParenthoodLink,
    SimilarityLink,
    adjacency,
    new_link_id,
    now_utc,
    reachable,
)


@dataclass
class SimilarityMetric:
    """Named, symmetric comparison: the Jaccard of two objects' operands,
    each a set drawn from the object and its comparable node."""

    name: str
    applicable_formats: frozenset
    operand: Callable  # (hypernode, node) -> set


def _jaccard(na: int, nb: int, shared: int) -> float:
    """|a & b| / |a | b| of two sets of sizes na and nb that share
    `shared` elements, the union counted rather than built; two empty
    sets are identical, so 1.0."""
    union = na + nb - shared
    return shared / union if union else 1.0


def token_jaccard(text_a: str, text_b: str) -> float:
    """Word-set overlap rate between two texts."""
    a, b = set(tokenize(text_a)), set(tokenize(text_b))
    return _jaccard(len(a), len(b), len(a & b))


def _schema_paths(h, node) -> set:
    if h.summary is not None and h.summary.kind == "schema":
        return {path for path, _type, _count in h.summary.payload}
    return set()


METRICS = {
    "token-jaccard": SimilarityMetric(
        name="token-jaccard",
        applicable_formats=TEXTUAL_FORMATS,
        operand=lambda _h, node: node_tokens(node),
    ),
    "schema-overlap": SimilarityMetric(
        name="schema-overlap",
        applicable_formats=frozenset(SCHEMA_READERS),
        operand=_schema_paths,
    ),
}


def _get_metric(name: str) -> SimilarityMetric:
    try:
        return METRICS[name]
    except KeyError:
        raise NotFound(f"no similarity metric named {name!r}") from None


def _comparable_node(h, metric: SimilarityMetric):
    """Node whose content the metric compares: the most recent version
    with an applicable format, else any applicable node."""
    candidates = [
        n for n in h.nodes.values()
        if isinstance(fmt := n.attributes.get("format"), str) and fmt in metric.applicable_formats
    ]
    if not candidates:
        return None
    versions = [n for n in candidates if n.kind == "version"]
    pool = versions or candidates
    return max(pool, key=lambda n: (n.created_at, n.id))


def _load(catalog, oid: str, m: SimilarityMetric) -> tuple:
    """(id, comparable node, operand) of one stored object; node and
    operand are None when the metric cannot compare it."""
    h = catalog.get_object(oid)
    node = _comparable_node(h, m)
    return oid, node, (m.operand(h, node) if node is not None else None)


def _bitsets(loaded) -> list:
    """Comparable loaded objects (see _load) as (id, node, mask, size):
    each distinct operand element gets one bit, numbered in order of
    first appearance, so two operands share (mask_a & mask_b).bit_count()
    elements."""
    bit = {}
    for _oid, _node, operand in loaded:
        for x in operand:
            bit.setdefault(x, len(bit))
    width = (len(bit) + 7) // 8
    out = []
    for oid, node, operand in loaded:
        mask = bytearray(width)
        for x in operand:
            i = bit[x]
            mask[i >> 3] |= 1 << (i & 7)
        out.append((oid, node, int.from_bytes(mask, "little"), len(operand)))
    return out


def _compute_link(m: SimilarityMetric, a: tuple, b: tuple,
                  threshold: float) -> Optional[SimilarityLink]:
    """The link between two objects as _bitsets gives them, or None if
    its value is below the threshold."""
    (ida, na, mask_a, size_a), (idb, nb, mask_b, size_b) = a, b
    value = _jaccard(size_a, size_b, (mask_a & mask_b).bit_count())
    if value < threshold:
        return None
    return SimilarityLink(
        id=new_link_id(),
        endpoints=(ida, idb),
        metric_name=m.name,
        value=value,
        computed_at=now_utc(),
        compared_nodes=(na.id, nb.id),
    )


def _link_event(link: SimilarityLink) -> tuple:
    """The Link event that reports storing a similarity link."""
    a, b = link.endpoints
    return (auditlog.ACTION_LINK, a,
            {"kind": "similarity", "other": b, "metric": link.metric_name, "value": link.value})


def compute_similarity(catalog, a: str, b: str, metric: str = "token-jaccard",
                       actor: str = "system") -> SimilarityLink:
    """Compare two objects and store (or replace) their similarity link."""
    if a == b:
        raise NotComparable("cannot link an object to itself")
    m = _get_metric(metric)
    loaded = [_load(catalog, oid, m) for oid in (a, b)]
    for oid, node, _operand in loaded:
        if node is None:
            raise NotComparable(f"object {oid} has no node in a format usable by {m.name!r}")
    link = _compute_link(m, *_bitsets(loaded), 0.0)
    catalog.commit(actor, [_link_event(link)], links=[link])
    return link


def link_all(catalog, metric: str = "token-jaccard", threshold: float = 0.0,
             actor: str = "system") -> int:
    """Compute every comparable pair and skip non-comparable objects.
    Returns the number of links with value >= threshold; of those, only
    the ones whose stored link differs in value or compared nodes, or
    that have none, are stored and logged.

    Each object is read, and its operand computed, once; objects the
    metric cannot compare are dropped before pairing. Each operand is
    held as a bitset over the call's distinct elements, so a pair costs
    one AND and a bit count. A bitset is as wide as the number of
    distinct elements in the call, so the masks take about N * V / 8
    bytes for N objects and V distinct elements, and an AND costs O(V).
    The pairs are taken in id order, and the new or changed links and
    their Link events are stored in that order in one commit."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    m = _get_metric(metric)
    loaded = [_load(catalog, oid, m) for oid in catalog.object_ids()]
    links = [new for a, b in combinations(_bitsets([l for l in loaded if l[1] is not None]), 2)
             if (new := _compute_link(m, a, b, threshold)) is not None]
    stored = {l.key(): (l.value, l.compared_nodes) for l in catalog.similarity_links()}
    changed = [l for l in links if stored.get(l.key()) != (l.value, l.compared_nodes)]
    catalog.commit(actor, [_link_event(link) for link in changed], links=changed)
    return len(links)


def clusters(catalog, threshold: float, metric: Optional[str] = None) -> list:
    """Connected components of the similarity graph at the given
    threshold, of `metric` (any when None), between stored objects;
    singleton objects included; ordered by least member."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    ids = catalog.object_ids()  # sorted, so each group starts at its least member
    stored = set(ids)
    kept = [link.endpoints for link in catalog.similarity_links()
            if (metric is None or link.metric_name == metric)
            and not link.value < threshold and stored.issuperset(link.endpoints)]
    neighbors = adjacency(kept + [(b, a) for a, b in kept])
    groups, grouped = [], set()
    for oid in ids:
        if oid not in grouped:
            groups.append(reachable(neighbors, oid) | {oid})
            grouped |= groups[-1]
    return groups


def group_by(catalog, parameter: str) -> Grouping:
    """Partition objects carrying the given attribute into one collection
    per distinct value; persist the grouping under the parameter name."""
    collections = {}
    for oid, attrs in catalog.list_objects():
        if parameter not in attrs:
            continue
        value = attrs[parameter]
        key = value if isinstance(value, str) else repr(value)
        collections.setdefault(key, set()).add(oid)
    grouping = Grouping(parameter=parameter, collections=collections,
                        computed_at=now_utc())
    catalog.save_grouping(grouping)
    return grouping


def add_parenthood(catalog, parents, child: str, attrs: Optional[dict] = None,
                   actor: str = "system") -> str:
    """Record that `child` was produced by joining the parent objects."""
    parents = frozenset(parents)
    if len(parents) < 2:
        raise TooFewParents("a parenthood link needs at least two parents")
    for oid in sorted(parents | {child}):
        if not catalog.has_object(oid):
            raise NotFound(f"no object {oid!r}")
    if child in parents:
        raise CycleDetected(f"child {child} cannot be its own parent")
    candidate = ParenthoodLink(id=new_link_id(), parents=parents, child=child,
                               attributes=dict(attrs or {}))
    children = adjacency((p, link.child) for link in catalog.parenthood_links() + [candidate]
                         for p in link.parents)
    if reachable(children, child) & parents:
        raise CycleDetected("link would create a parenthood cycle")
    catalog.commit(actor, [(auditlog.ACTION_LINK, child,
                            {"kind": "parenthood", "parents": sorted(parents)})],
                   links=[candidate])
    return candidate.id


def lineage(catalog, obj: str, direction: str = "ancestors") -> set:
    """Transitive closure over parenthood links in one direction."""
    if not catalog.has_object(obj):
        raise NotFound(f"no object {obj!r}")
    if direction not in ("ancestors", "descendants"):
        raise ValueError(f"direction must be ancestors or descendants, got {direction!r}")
    pairs = [(p, link.child) for link in catalog.parenthood_links() for p in link.parents]
    if direction == "ancestors":
        pairs = [(child, p) for p, child in pairs]
    return reachable(adjacency(pairs), obj) - {obj}


def _tag_labels(catalog, obj: str) -> set:
    return {t.label for t in catalog.object_field(obj, "tags")}


def recommend(catalog, obj: str, k: int = 5) -> list:
    """Top-k (neighbor, value) pairs by strongest stored similarity; ties
    break by tag co-membership count, then object id.

    One pass over the loaded similarity links finds the neighbors. It
    reads tags only to break ties: only for a group of two or more
    neighbors with equal values that reaches the top k does it read the
    object and those neighbors."""
    if not catalog.has_object(obj):
        raise NotFound(f"no object {obj!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    best = {}
    for link in catalog.similarity_links():
        a, b = link.endpoints
        if obj == a:
            other = b
        elif obj == b:
            other = a
        else:
            continue
        if other not in best or link.value > best[other]:
            best[other] = link.value
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    out, labels = [], None
    for _value, tied in groupby(ranked, key=lambda kv: kv[1]):
        if len(out) >= k:
            break
        tied = list(tied)
        if len(tied) > 1:
            if labels is None:
                labels = _tag_labels(catalog, obj)
            # stable: equal counts keep their id order
            tied.sort(key=lambda kv: -len(labels & _tag_labels(catalog, kv[0])))
        out.extend(tied)
    return out[:k]
