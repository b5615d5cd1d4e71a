"""Global inverted index: normalized terms mapped to (object, node)
postings, with keyword search in all-terms or any-term mode and optional
thesaurus expansion of the query.
"""

from __future__ import annotations

import operator
import re
from collections import defaultdict
from itertools import chain
from json.encoder import encode_basestring as _quote
from typing import Iterable, Optional

from . import auditlog, semantic
from .errors import CorruptCatalog, EmptyQuery

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


class _EncodedPairs(dict):
    """(object, node) -> its JSON '["object","node"]', each encoded once:
    the same few pairs recur under many terms."""

    def __missing__(self, pair):
        text = self[pair] = f"[{_quote(pair[0])},{_quote(pair[1])}]"
        return text


class InvertedIndex:
    """In-memory term -> {(object_id, node_id)} postings map.

    An index read with `from_dict` keeps the term -> [[object, node], ...]
    lists it was parsed into: `objects_for` and `to_dict` read them as
    they are, and the sets are built at the first change. From then on
    it keeps itself cheap to change and to save: `to_json` re-encodes
    only the terms changed since it last ran, and changing an object
    visits only that object's terms."""

    def __init__(self):
        self._postings = {}  # term -> set of (ObjectId, NodeId)
        self._loaded = None  # term -> the parsed lists, until the sets are built from them
        self._loaded_ok = False  # whether check() has passed them all
        self._source = "index"  # what an error about a loaded posting names
        self._members = {}  # term -> its encoded '"term":[...]', while unchanged
        self._terms_at = None  # ObjectId -> NodeId -> [term]; built by the first replace

    @property
    def postings(self) -> dict:
        """term -> set of (ObjectId, NodeId); a loaded index builds the
        sets here, at first use."""
        if self._loaded is not None:
            self.check()
            self._postings = {term: set(map(tuple, posts))
                              for term, posts in self._loaded.items()}
            self._loaded = None
        return self._postings

    @postings.setter
    def postings(self, value: dict) -> None:
        self._postings, self._loaded = value, None

    def check(self) -> None:
        """CorruptCatalog naming the source, unless every posting read
        from it is a list of two strings."""
        if self._loaded is not None and not self._loaded_ok:
            self._check(self._loaded)
            self._loaded_ok = True

    def _check(self, loaded: dict) -> None:
        if not _all_pairs(loaded.values()):
            term = next(t for t, posts in loaded.items() if not _all_pairs([posts]))
            raise CorruptCatalog(f"{self._source}: unreadable: the postings of {term!r} "
                                 "are not [object, node] pairs of strings")

    def add(self, term: str, obj: str, node: str) -> None:
        self.postings.setdefault(term, set()).add((obj, node))
        self._members.pop(term, None)
        if self._terms_at is not None:
            self._terms_at[obj][node].append(term)

    def remove_object(self, obj: str) -> None:
        """Drop every posting of the object."""
        self.replace_object(obj, ())

    def replace_object(self, obj: str, pairs: Iterable) -> None:
        """Make `pairs`, (term, node) pairs, the object's only postings.
        Only the postings that differ from the current ones are touched."""
        postings = self.postings
        if self._terms_at is None:
            self._terms_at = defaultdict(lambda: defaultdict(list))
            for term, posts in postings.items():
                for o, node in posts:
                    self._terms_at[o][node].append(term)
        old = {(term, node)
               for node, terms in self._terms_at.pop(obj, {}).items() for term in terms}
        new = set(pairs)
        for term, node in old - new:
            posts = postings[term]
            posts.discard((obj, node))
            if not posts:
                del postings[term]
            self._members.pop(term, None)
        for term, node in new - old:
            postings.setdefault(term, set()).add((obj, node))
            self._members.pop(term, None)
        for term, node in new:
            self._terms_at[obj][node].append(term)

    def objects_for(self, term: str) -> set:
        if self._loaded is None:
            return {obj for obj, _node in self._postings.get(term, ())}
        posts = self._loaded.get(term, [])
        self._check({term: posts})
        return {obj for obj, _node in posts}

    def stats(self) -> dict:
        objects = {obj for posts in self.postings.values() for obj, _ in posts}
        return {
            "objects": len(objects),
            "terms": len(self.postings),
            "postings": sum(len(p) for p in self.postings.values()),
        }

    def to_dict(self) -> dict:
        """term -> its sorted [object, node] postings, each once."""
        if self._loaded is None:
            return {
                term: sorted([obj, node] for obj, node in posts)
                for term, posts in sorted(self._postings.items())
            }
        self.check()
        out = {}
        for term, posts in sorted(self._loaded.items()):
            posts = sorted(map(list, posts))
            if any(map(operator.eq, posts, posts[1:])):  # a file may repeat a pair
                posts = [p for i, p in enumerate(posts) if not i or p != posts[i - 1]]
            out[term] = posts
        return out

    def to_json(self) -> str:
        """The compact JSON text of `to_dict()` with sorted keys, as
        `json.dumps(..., ensure_ascii=False)` writes it. Each term's
        member is encoded once and reused until the term changes."""
        postings = self.postings
        members = self._members
        changed = postings.keys() - members.keys()
        if changed:
            pair = _EncodedPairs().__getitem__
            for term in changed:
                members[term] = (f'{_quote(term)}:['
                                 f'{",".join(map(pair, sorted(postings[term])))}]')
        return "{" + ",".join([members[t] for t in sorted(postings)]) + "}"

    @classmethod
    def from_dict(cls, d: dict, source: str = "index") -> "InvertedIndex":
        """The index of a parsed `to_dict()` document, kept as it is;
        `source` names it in the CorruptCatalog that a malformed posting
        raises when it is read."""
        if not isinstance(d, dict):
            raise TypeError(f"expected a JSON object, got {type(d).__name__}")
        idx = cls()
        idx._loaded, idx._source = d, source
        return idx


def _all_pairs(lists) -> bool:
    """Whether each of `lists` is a list of [object, node] lists of two
    strings; a few passes in C over all of them, not a loop per term."""
    if not {list} >= set(map(type, lists)):
        return False
    posts = list(chain.from_iterable(lists))
    return ({list} >= set(map(type, posts)) and {2} >= set(map(len, posts))
            and {str} >= set(map(type, chain.from_iterable(posts))))


def _read_text(locator) -> str:
    """The file's text; "" when there is no locator or the file cannot
    be read as UTF-8."""
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
        if isinstance(fmt, str) and fmt in TEXTUAL_FORMATS and node.content_locator:
            text = _read_text(node.content_locator)
            if text:
                by_node.setdefault(node.id, set())
                by_node[node.id] |= set(tokenize(text, stopwords))
    return by_node


def index_hypernode(catalog, h) -> None:
    """(Re)index the in-memory hypernode as it will be stored, then save
    the index. Catalog.commit is its one caller."""
    pairs = {(term, node_id)
             for node_id, node_terms in object_terms(h, catalog.stopwords).items()
             for term in node_terms}
    catalog.index.replace_object(h.id, pairs)
    catalog.save_index()


def rebuild_index(catalog) -> dict:
    """Rebuild the whole index from stored objects; the result must equal
    the incrementally maintained state."""
    fresh = InvertedIndex()
    for oid in catalog.object_ids():
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
        events = [(auditlog.ACTION_SEARCH, query, {"hits": len(results), "mode": mode})]
        events += [(auditlog.ACTION_ACCESS, obj, {"via": "search"}) for obj, _ in results]
        catalog.commit(actor, events)
    return results
