"""Global inverted index: normalized terms mapped to (object, node)
postings, with keyword search in all-terms or any-term mode and optional
thesaurus expansion of the query.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from . import auditlog, semantic
from .errors import EmptyQuery, NotFound

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

TEXTUAL_FORMATS = {"text", "csv", "json", "xml"}


def tokenize(text: str, stopwords: Optional[Iterable[str]] = None) -> list:
    """Lowercase, split on non-alphanumeric runs, drop empties and exact
    stopword matches. Deterministic and order-preserving."""
    tokens = [t for t in _TOKEN_SPLIT.split(text.lower()) if t]
    if stopwords:
        stop = set(stopwords)
        tokens = [t for t in tokens if t not in stop]
    return tokens


class InvertedIndex:
    """In-memory term -> {(object_id, node_id)} postings map."""

    def __init__(self):
        self.postings = {}  # term -> set of (ObjectId, NodeId)

    def add(self, term: str, obj: str, node: str) -> None:
        self.postings.setdefault(term, set()).add((obj, node))

    def remove_object(self, obj: str) -> None:
        empty = []
        for term, posts in self.postings.items():
            self.postings[term] = {p for p in posts if p[0] != obj}
            if not self.postings[term]:
                empty.append(term)
        for term in empty:
            del self.postings[term]

    def objects_for(self, term: str) -> set:
        return {obj for obj, _node in self.postings.get(term, ())}

    def doc_count(self, term: str) -> int:
        return len(self.objects_for(term))

    def stats(self) -> dict:
        objects = {obj for posts in self.postings.values() for obj, _ in posts}
        return {
            "objects": len(objects),
            "terms": len(self.postings),
            "postings": sum(len(p) for p in self.postings.values()),
        }

    def to_dict(self) -> dict:
        return {
            term: sorted([obj, node] for obj, node in posts)
            for term, posts in sorted(self.postings.items())
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InvertedIndex":
        idx = cls()
        for term, posts in d.items():
            idx.postings[term] = {(obj, node) for obj, node in posts}
        return idx


def _read_text(locator) -> str:
    try:
        with open(locator, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError, TypeError):
        return ""


def object_terms(h, stopwords: Optional[Iterable[str]] = None) -> dict:
    """Terms contributed by a hypernode, keyed by the node each posting
    should point at. Object-level text (title, description, tags, word
    cloud) posts against the root node; node content posts against the
    node itself, only for textual formats."""
    root = h.root()
    root_id = root.id if root else h.id
    by_node = {root_id: set()}

    title = h.attributes.get("title")
    if isinstance(title, str):
        by_node[root_id] |= set(tokenize(title, stopwords))
    if h.description:
        by_node[root_id] |= set(tokenize(h.description, stopwords))
    for tag in h.tags:
        by_node[root_id] |= set(tokenize(tag.label, stopwords))
    if h.summary is not None and h.summary.kind == "wordcloud":
        for term, _freq in h.summary.payload:
            by_node[root_id] |= set(tokenize(term, stopwords))

    for node in h.nodes.values():
        fmt = node.attributes.get("format")
        if fmt in TEXTUAL_FORMATS and node.content_locator:
            text = _read_text(node.content_locator)
            if text:
                by_node.setdefault(node.id, set())
                by_node[node.id] |= set(tokenize(text, stopwords))
    return by_node


def index_object(catalog, obj: str) -> int:
    """(Re)index one stored object: drop its old postings, add fresh
    ones. Returns the number of distinct terms indexed."""
    return index_hypernode(catalog, catalog.get_object(obj))  # raises NotFound


def index_hypernode(catalog, h) -> int:
    """(Re)index the in-memory hypernode as it will be stored, then save
    the index. Returns the number of distinct terms indexed."""
    idx = catalog.index
    idx.remove_object(h.id)
    terms = set()
    for node_id, node_terms in object_terms(h, catalog.stopwords).items():
        for term in node_terms:
            idx.add(term, h.id, node_id)
            terms.add(term)
    catalog.save_index()
    return len(terms)


def rebuild_index(catalog) -> dict:
    """Rebuild the whole index from stored objects; the result must equal
    the incrementally maintained state."""
    fresh = InvertedIndex()
    for oid, _attrs in catalog.list_objects():
        h = catalog.get_object(oid)
        for node_id, node_terms in object_terms(h, catalog.stopwords).items():
            for term in node_terms:
                fresh.add(term, oid, node_id)
    catalog.index = fresh
    catalog.save_index()
    return fresh.stats()


def search(catalog, query: str, mode: str = "any-term",
           expand_with: Optional[str] = None, record_access: bool = False,
           actor: str = "system") -> list:
    """Keyword search over the index.

    Score is the count of distinct query terms matched (a synonym match
    counts for its query term); ties break by object id. Access events
    are logged only when record_access is set."""
    if mode not in ("all-terms", "any-term"):
        raise ValueError(f"unknown search mode {mode!r}")
    query_terms = tokenize(query, catalog.stopwords)
    if not query_terms:
        raise EmptyQuery("query has no terms")
    thesaurus = semantic.get_thesaurus(catalog, expand_with) if expand_with else None

    idx = catalog.index
    matched = {}  # obj -> set of matched query terms
    per_term_objects = []
    for q in dict.fromkeys(query_terms):  # distinct, order-preserving
        variants = semantic.expand_terms({q}, thesaurus) if thesaurus else {q}
        objs = set()
        for variant in variants:
            objs |= idx.objects_for(variant)
        per_term_objects.append(objs)
        for obj in objs:
            matched.setdefault(obj, set()).add(q)

    if mode == "all-terms":
        candidates = set.intersection(*per_term_objects) if per_term_objects else set()
    else:
        candidates = set().union(*per_term_objects) if per_term_objects else set()

    results = sorted(
        ((obj, len(matched[obj])) for obj in candidates),
        key=lambda pair: (-pair[1], pair[0]),
    )
    if record_access:
        auditlog.record_event(catalog, actor, auditlog.ACTION_SEARCH, query,
                              {"hits": len(results), "mode": mode})
        for obj, _score in results:
            auditlog.record_event(catalog, actor, auditlog.ACTION_ACCESS, obj,
                                  {"via": "search"})
    return results
