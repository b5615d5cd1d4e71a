"""Global inverted index: normalized terms mapped to (object, node)
postings, with keyword search in all-terms or any-term mode and optional
thesaurus expansion of the query.

The index is a function of the stored objects alone: an object's title,
description, tags and word cloud post against its root node, and each
node's content against the node. `node_tokens` is the one reader of that
content, for the `token-jaccard` metric too. Stopwords filter queries only.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from itertools import accumulate, chain, compress, count
from json.encoder import encode_basestring as _quote
from typing import Iterable, Optional

from . import auditlog, codec, semantic
from .errors import CorruptCatalog, EmptyQuery

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

TEXTUAL_FORMATS = frozenset({"text", "csv", "json", "xml"})


def tokenize(text: str, stopwords: Optional[Iterable[str]] = None) -> list:
    """Lowercase, split on non-alphanumeric runs, drop empties and exact
    stopword matches. Deterministic and order-preserving."""
    tokens = [t for t in _TOKEN_SPLIT.split(text.lower()) if t]
    if stopwords:
        stop = set(stopwords)
        tokens = [t for t in tokens if t not in stop]
    return tokens


class _EncodedPairs(dict):
    """object -> node -> the JSON '["object","node"]' of the pair, each
    encoded once: the same few pairs recur under many terms."""

    def __call__(self, pair) -> str:
        obj, node = pair
        try:
            return self[obj][node]
        except KeyError:
            text = self.setdefault(obj, {})[node] = f"[{_quote(obj)},{_quote(node)}]"
            return text


class InvertedIndex:
    """term -> the sorted [object, node] pairs that hold it, each once,
    as `terms.json` stores them. `replace_object` is the one change: it
    edits, in place, only the lists of the terms it touches. A loaded
    index is checked once, at its first change or save. Changing an
    object costs its terms, plus, on a loaded index, one pass over the
    lists that finds its old postings the first time; `to_json` encodes
    only the terms changed since it last ran. So a fresh handle's first
    change costs one parse and one check of the file, not a re-encode of
    every term: that change first cuts the unchanged terms' members out
    of the text the index was parsed from."""

    def __init__(self):
        self.postings = {}  # term -> sorted list of [ObjectId, NodeId]
        self._checked = True  # whether check() has nothing left to do
        self._source = "index"  # what an error about a loaded posting names
        self._members = {}  # term -> its encoded member, while unchanged
        self._pairs_of = {}  # ObjectId -> its set of (term, NodeId), where known
        self._all_known = True  # whether an object missing from _pairs_of has none
        self._text = None  # the text it was parsed from, while its lists are as parsed

    def check(self) -> None:
        """CorruptCatalog naming the source, unless every posting read
        from it is a list of two strings; then sort and dedupe each list
        that needs it, and drop the empty ones."""
        if self._checked:
            return
        ordered = _sorted_pairs(self.postings.values())
        if ordered is None:
            self._corrupt(next(term for term, posts in self.postings.items()
                               if _sorted_pairs([posts]) is None))
        if not ordered:
            self.postings = {term: list(map(list, sorted(set(map(tuple, posts)))))
                             for term, posts in self.postings.items() if posts}
            self._text = None
        self._checked = True

    def _corrupt(self, term: str):
        raise CorruptCatalog(f"{self._source}: unreadable: the postings of {term!r} "
                             "are not [object, node] pairs of strings")

    def replace_object(self, obj: str, pairs: Iterable) -> bool:
        """Make `pairs`, (term, node) pairs of strings, the object's only
        postings; False, changing nothing, when they are its postings
        already. A damaged loaded index or a pair of non-strings raises
        before anything changes."""
        self.check()
        new = set(pairs)
        old = self._pairs_of.get(obj)
        if old is None:
            old = self._pairs_of[obj] = set() if self._all_known else {
                (term, node) for term, posts in self.postings.items()
                for o, node in posts if o == obj}
        if new == old:
            return False
        if not ({2} >= set(map(len, new - old))
                and {str} >= {type(obj)} | set(map(type, chain.from_iterable(new - old)))):
            raise TypeError(f"the postings of {obj!r} are not (term, node) pairs of strings")
        if self._text is not None:
            self._members.update(_cut_members(self._text, self.postings))
            self._text = None
        for term, node in sorted(old ^ new):  # so that new terms enter the index in order
            posts = self.postings.setdefault(term, [])
            i = bisect_left(posts, [obj, node])
            if (term, node) in new:
                posts.insert(i, [obj, node])
            else:
                del posts[i]
                if not posts:
                    del self.postings[term]
            self._members.pop(term, None)
        self._pairs_of[obj] = new
        return True

    def objects_for(self, term: str) -> set:
        posts = self.postings.get(term, [])
        if not self._checked and _sorted_pairs([posts]) is None:
            self._corrupt(term)
        return {obj for obj, _node in posts}

    def stats(self) -> dict:
        self.check()
        posts = list(chain.from_iterable(self.postings.values()))
        return {"objects": len({obj for obj, _node in posts}),
                "terms": len(self.postings), "postings": len(posts)}

    def to_dict(self) -> dict:
        """term -> its sorted [object, node] postings, each once."""
        self.check()
        return {term: list(map(list, posts)) for term, posts in sorted(self.postings.items())}

    def to_json(self) -> str:
        """`json.dumps(to_dict(), sort_keys=True, ensure_ascii=False,
        separators=(",", ":"))`; a term's member is encoded again only
        once it changes."""
        self.check()
        members = self._members
        pair = _EncodedPairs()
        for term in self.postings.keys() - members.keys():
            members[term] = f'{_quote(term)}:[{",".join(map(pair, self.postings[term]))}]'
        # the postings' order, unlike the members', is close to sorted: a
        # change re-encodes a term's member but keeps the term's place
        return "{" + ",".join(map(members.__getitem__, sorted(self.postings))) + "}"

    @classmethod
    def from_dict(cls, d: dict, source: str = "index",
                  text: Optional[str] = None) -> "InvertedIndex":
        """The index of a parsed `to_dict()` document, kept as it is;
        `source` names it in the CorruptCatalog that a malformed posting
        raises when it is read, and `text`, when given, is the JSON text
        it was parsed from."""
        idx = cls()
        idx.postings, idx._source, idx._text = codec.check(dict, d), source, text
        idx._checked = idx._all_known = False
        return idx


def _cut_members(text: str, postings: dict) -> dict:
    """term -> its member as `to_json` encodes it, cut from `text`, which
    `postings` were parsed from and check() kept as parsed; {} unless the
    text has no whitespace or escape, where each member is its encoding
    and holds one '":[' (a '"' in a string is escaped), no key repeats,
    and each piece between the `]],"` that end members starts with the
    next parsed term."""
    if not (text.startswith('{"') and text.endswith(']]}')) or any(
            c in text for c in ' \t\r\n\\') or text.count('":[') != len(postings):
        return {}
    pieces = text[2:-3].split(']],"')
    if len(pieces) != len(postings) or not all(
            map(str.startswith, pieces, (f'{term}":[' for term in postings))):
        return {}
    return {term: f'"{piece}]]' for term, piece in zip(postings, pieces)}


def _sorted_pairs(lists) -> Optional[bool]:
    """None unless each of `lists` is a list of [object, node] lists of
    two strings, else whether each is non-empty, sorted and without a
    repeat: a few passes in C over all of them, not a loop per term."""
    if not {list} >= set(map(type, lists)):
        return None
    posts = list(chain.from_iterable(lists))
    if not ({list} >= set(map(type, posts)) and {2} >= set(map(len, posts))
            and {str} >= set(map(type, chain.from_iterable(posts)))):
        return None
    starts = set(accumulate(map(len, lists)))  # where each list after the first starts
    return (len(starts) == len(lists) and 0 not in starts
            and starts.issuperset(compress(count(1), map(operator.ge, posts, posts[1:]))))


def node_tokens(node) -> set:
    """The tokens of the node's file when the node has a textual format
    and a locator and the file reads as UTF-8; else none."""
    fmt = node.attributes.get("format")
    if not (isinstance(fmt, str) and fmt in TEXTUAL_FORMATS and node.content_locator):
        return set()
    try:
        with open(node.content_locator, "r", encoding="utf-8") as f:
            return set(tokenize(f.read()))
    except (OSError, UnicodeDecodeError):
        return set()


def object_terms(h) -> dict:
    """Terms contributed by a hypernode, keyed by the node each posting
    should point at. Object-level text (title, description, tags, word
    cloud) posts against the root node; node content (`node_tokens`)
    posts against the node itself."""
    root = h.root()
    texts = [h.attributes.get("title"), h.description, *(tag.label for tag in h.tags)]
    if h.summary is not None and h.summary.kind == "wordcloud":
        texts += [term for term, _freq in h.summary.payload]
    by_node = {node.id: node_tokens(node) for node in h.nodes.values()}
    top = root.id if root else h.id
    by_node[top] = by_node.get(top, set()) | set(
        tokenize(" ".join(t for t in texts if isinstance(t, str))))
    return by_node


def _pairs(h) -> set:
    """The (term, node) pairs of the hypernode's postings."""
    return {(term, node_id) for node_id, node_terms in object_terms(h).items()
            for term in node_terms}


def index_hypernode(catalog, h) -> Optional[str]:
    """Make the in-memory hypernode's postings its only ones in the loaded
    index; the index file's text after that, or None when they already
    were. Catalog.commit is its caller, and drops the loaded index when
    the commit fails before that text is written."""
    if catalog.index.replace_object(h.id, _pairs(h)):
        return catalog.index.to_json()
    return None


def rebuild_index(catalog) -> dict:
    """Rebuild the whole index from stored objects; the result must equal
    the incrementally maintained state. The handle takes the new index
    once its file is written."""
    fresh = InvertedIndex()
    for oid in catalog.object_ids():
        fresh.replace_object(oid, _pairs(catalog.get_object(oid)))
    catalog.save_index(fresh.to_json())
    catalog.index = fresh
    return fresh.stats()


def search(catalog, query: str, mode: str = "any-term",
           expand_with: Optional[str] = None,
           stopwords: Optional[Iterable[str]] = None) -> list:
    """Keyword search over the index. Score is the count of distinct query
    terms matched (a synonym match counts for its query term); ties break
    by object id. `stopwords` are dropped from the query terms and from
    their expansions. It logs nothing; `log_search` records a search."""
    if mode not in ("all-terms", "any-term"):
        raise ValueError(f"unknown search mode {mode!r}")
    stop = set(stopwords or ())
    query_terms = tokenize(query, stop)
    if not query_terms:
        raise EmptyQuery("query has no terms")
    thesaurus = semantic.get_thesaurus(catalog, expand_with) if expand_with else None

    distinct = set(query_terms)
    matched = {}  # obj -> the number of distinct query terms it matches
    for q in distinct:
        variants = semantic.expand_terms({q}, thesaurus) - stop if thesaurus else {q}
        for obj in set().union(*map(catalog.index.objects_for, variants)):
            matched[obj] = matched.get(obj, 0) + 1
    return sorted(((obj, n) for obj, n in matched.items()
                   if mode == "any-term" or n == len(distinct)),
                  key=lambda pair: (-pair[1], pair[0]))


def log_search(catalog, query: str, mode: str, results: list, actor: str = "system") -> None:
    """Log the Search event of a search's `results` and an Access event
    for each object in them."""
    events = [(auditlog.ACTION_SEARCH, query, {"hits": len(results), "mode": mode})]
    events += [(auditlog.ACTION_ACCESS, obj, {"via": "search"}) for obj, _ in results]
    catalog.commit(actor, events)
