"""Inter-object layer: similarity metrics and links, attribute
groupings, parenthood hyperedges with lineage traversal, connected-
component clustering, and neighbor recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from . import auditlog
from .errors import CycleDetected, NotComparable, NotFound, TooFewParents
from .index import tokenize
from .model import (
    Grouping,
    ParenthoodLink,
    SimilarityLink,
    new_link_id,
    now_utc,
)


@dataclass
class SimilarityMetric:
    """Named, symmetric content comparison producing a value in [0, 1]."""

    name: str
    applicable_formats: frozenset
    compute: Callable  # (content_a, content_b) -> float


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def token_jaccard(text_a: str, text_b: str) -> float:
    """Word-set overlap rate between two texts."""
    return _jaccard(set(tokenize(text_a)), set(tokenize(text_b)))


def _schema_paths(h) -> set:
    if h.summary is not None and h.summary.kind == "schema":
        return {path for path, _type, _count in h.summary.payload}
    return set()


METRICS = {
    "token-jaccard": SimilarityMetric(
        name="token-jaccard",
        applicable_formats=frozenset({"text", "csv", "json", "xml"}),
        compute=token_jaccard,
    ),
    "schema-overlap": SimilarityMetric(
        name="schema-overlap",
        applicable_formats=frozenset({"csv", "json", "xml"}),
        compute=None,  # operates on schema summaries, see compute_similarity
    ),
}


def register_metric(metric: SimilarityMetric) -> None:
    METRICS[metric.name] = metric


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
        if n.attributes.get("format") in metric.applicable_formats
    ]
    if not candidates:
        return None
    versions = [n for n in candidates if n.kind == "version"]
    pool = versions or candidates
    return max(pool, key=lambda n: (n.created_at, n.id))


def _read_content(node) -> str:
    if not node.content_locator:
        return ""
    try:
        with open(node.content_locator, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError):
        return ""


def _compute_link(catalog, a: str, b: str, metric: str) -> SimilarityLink:
    if a == b:
        raise NotComparable("cannot link an object to itself")
    m = _get_metric(metric)
    ha = catalog.get_object(a)
    hb = catalog.get_object(b)
    na = _comparable_node(ha, m)
    nb = _comparable_node(hb, m)
    if na is None or nb is None:
        missing = a if na is None else b
        raise NotComparable(
            f"object {missing} has no node in a format usable by {metric!r}"
        )
    if metric == "schema-overlap":
        value = _jaccard(_schema_paths(ha), _schema_paths(hb))
    else:
        value = float(m.compute(_read_content(na), _read_content(nb)))
    value = min(1.0, max(0.0, value))
    return SimilarityLink(
        id=new_link_id(),
        endpoints=(a, b),
        metric_name=metric,
        value=value,
        computed_at=now_utc(),
        compared_nodes=(na.id, nb.id),
    )


def _store_link(catalog, link: SimilarityLink, actor: str) -> None:
    catalog.add_similarity_link(link)
    a, b = link.endpoints
    auditlog.record_event(catalog, actor, auditlog.ACTION_LINK, a,
                          {"kind": "similarity", "other": b,
                           "metric": link.metric_name, "value": link.value})


def compute_similarity(catalog, a: str, b: str, metric: str = "token-jaccard",
                       actor: str = "system") -> SimilarityLink:
    """Compare two objects and store (or replace) their similarity link."""
    link = _compute_link(catalog, a, b, metric)
    _store_link(catalog, link, actor)
    return link


def link_all(catalog, metric: str = "token-jaccard", threshold: float = 0.0,
             actor: str = "system") -> int:
    """Compute every comparable pair, store links with value >= threshold,
    skip non-comparable pairs. Returns the number of links stored."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    stored = 0
    ids = [oid for oid, _ in catalog.list_objects()]
    for a, b in combinations(ids, 2):
        try:
            link = _compute_link(catalog, a, b, metric)
        except NotComparable:
            continue
        if link.value >= threshold:
            _store_link(catalog, link, actor)
            stored += 1
    return stored


def clusters(catalog, threshold: float, metric: Optional[str] = None) -> list:
    """Connected components of the similarity graph at the given
    threshold; singleton objects included; deterministic order."""
    ids = catalog.object_ids()
    parent = {oid: oid for oid in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for link in catalog.similarity_links():
        if metric is not None and link.metric_name != metric:
            continue
        if link.value < threshold:
            continue
        a, b = link.endpoints
        if a in parent and b in parent:
            union(a, b)

    groups = {}
    for oid in ids:
        groups.setdefault(find(oid), set()).add(oid)
    return sorted(groups.values(), key=lambda s: min(s))


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


def _parenthood_adjacency(links) -> dict:
    adjacency = {}
    for link in links:
        for p in link.parents:
            adjacency.setdefault(p, set()).add(link.child)
    return adjacency


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
    adjacency = _parenthood_adjacency(catalog.parenthood_links() + [candidate])
    if _reaches(adjacency, child, parents):
        raise CycleDetected("link would create a parenthood cycle")
    catalog.add_parenthood_link(candidate)
    auditlog.record_event(catalog, actor, auditlog.ACTION_LINK, child,
                          {"kind": "parenthood", "parents": sorted(parents)})
    return candidate.id


def _reaches(adjacency: dict, start: str, targets) -> bool:
    targets = set(targets)
    frontier = [start]
    seen = {start}
    while frontier:
        cur = frontier.pop()
        for nxt in adjacency.get(cur, ()):
            if nxt in targets:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def lineage(catalog, obj: str, direction: str = "ancestors") -> set:
    """Transitive closure over parenthood links in one direction."""
    if not catalog.has_object(obj):
        raise NotFound(f"no object {obj!r}")
    if direction not in ("ancestors", "descendants"):
        raise ValueError(f"direction must be ancestors or descendants, got {direction!r}")
    links = catalog.parenthood_links()
    step = {}
    for link in links:
        if direction == "ancestors":
            step.setdefault(link.child, set()).update(link.parents)
        else:
            for p in link.parents:
                step.setdefault(p, set()).add(link.child)
    out = set()
    frontier = [obj]
    while frontier:
        cur = frontier.pop()
        for nxt in step.get(cur, ()):
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    out.discard(obj)
    return out


def co_parents(catalog, obj: str) -> set:
    """Objects that share at least one parenthood hyperedge with obj as a
    fellow parent."""
    if not catalog.has_object(obj):
        raise NotFound(f"no object {obj!r}")
    out = set()
    for link in catalog.parenthood_links():
        if obj in link.parents:
            out |= set(link.parents) - {obj}
    return out


def _tag_labels(catalog, obj: str) -> set:
    return {t.label for t in catalog.get_object(obj).tags}


def recommend(catalog, obj: str, k: int = 5) -> list:
    """Top-k neighbors by strongest stored similarity; ties break by tag
    co-membership count, then object id."""
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
    labels = _tag_labels(catalog, obj)
    shared = {other: len(labels & _tag_labels(catalog, other)) for other in best}
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], -shared[kv[0]], kv[0]))
    return ranked[:k]
