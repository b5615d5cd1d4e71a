"""Semantic layer: tags, free-text descriptions, tag-driven groupings,
and thesaurus-based term expansion and canonicalization.

Thesaurus file format: UTF-8 text, one synonym class per line as
comma-separated terms; a line `term > broader` declares a broader-term
pair instead. Blank lines and `#` comments are ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Set

from . import auditlog
from .errors import (
    DuplicateName,
    EmptyTagSet,
    ResourceParseError,
    UnknownThesaurus,
)
from .model import Grouping, Tag, adjacency, has_cycle, normalize_tag_label, now_utc


@dataclass
class Thesaurus:
    name: str
    classes: list = field(default_factory=list)  # list of frozenset of terms
    broader: dict = field(default_factory=dict)  # term -> broader term

    def class_of(self, term: str) -> Optional[frozenset]:
        term = normalize_tag_label(term)
        for cls in self.classes:
            if term in cls:
                return cls
        return None

    def to_text(self) -> str:
        lines = [",".join(sorted(cls)) for cls in self.classes]
        lines += [f"{t} > {b}" for t, b in sorted(self.broader.items())]
        return "\n".join(lines) + "\n"


def parse_thesaurus(name: str, text: str) -> Thesaurus:
    """Parse the line-oriented thesaurus format, rejecting overlapping
    synonym classes and cyclic broader-term chains."""
    classes = []
    broader = {}
    seen_terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ">" in line:
            parts = [p.strip() for p in line.split(">")]
            if len(parts) != 2 or not all(parts):
                raise ResourceParseError("malformed broader-term line", line=lineno)
            narrow, broad = (normalize_tag_label(p) for p in parts)
            if narrow in broader:
                raise ResourceParseError(f"duplicate broader-term for {narrow!r}", line=lineno)
            broader[narrow] = broad
            continue
        terms = [normalize_tag_label(t) for t in line.split(",") if t.strip()]
        if len(terms) < 2:
            raise ResourceParseError("synonym class needs at least two terms", line=lineno)
        for term in terms:
            if term in seen_terms:
                raise ResourceParseError(
                    f"term in two classes: {term!r} already in line {seen_terms[term]}",
                    line=lineno,
                )
            seen_terms[term] = lineno
        classes.append(frozenset(terms))
    if has_cycle(adjacency(broader.items())):
        raise ResourceParseError("broader-term chains form a cycle")
    return Thesaurus(name=name, classes=classes, broader=broader)


def load_resource(catalog, path, actor: str = "system") -> str:
    """Load a thesaurus file into the catalog's global resources.

    The resource name is the file's basename without extension."""
    name = os.path.splitext(os.path.basename(str(path)))[0]
    if name in catalog.resources:
        raise DuplicateName(f"resource {name!r} already loaded")
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    thesaurus = parse_thesaurus(name, text)
    catalog.store_resource(name, text, thesaurus)
    return name


def get_thesaurus(catalog, name: str) -> Thesaurus:
    try:
        return catalog.resources[name]
    except KeyError:
        raise UnknownThesaurus(f"no thesaurus named {name!r}") from None


def normalize_tags(tags: Iterable[str]) -> list:
    """Sorted distinct normalized labels; EmptyTagSet when none remain."""
    labels = {normalize_tag_label(t) for t in tags}
    labels.discard("")
    if not labels:
        raise EmptyTagSet("no tags supplied")
    return sorted(labels)


def merge_tags(h, labels: list, source: str) -> dict:
    """Merge normalized labels into the in-memory hypernode's tag set;
    returns the detail of the Tag event that records the merge."""
    h.tags |= {Tag(label=label, source=source) for label in labels}
    return {"tags": labels, "source": source}


def tag_object(catalog, obj: str, tags: Iterable[str], actor: str = "system") -> Set[Tag]:
    """Normalize and merge tags into the object's tag set as manual tags."""
    labels = normalize_tags(tags)
    h = catalog.get_object(obj)
    catalog.commit(actor, [(auditlog.ACTION_TAG, h.id, merge_tags(h, labels, "manual"))], h)
    return set(h.tags)


def describe_object(catalog, obj: str, text: str, actor: str = "system") -> None:
    """Set the object's description, keeping prior descriptions in history."""
    h = catalog.get_object(obj)
    h.description = text
    h.description_history.append(text)
    catalog.commit(actor, [(auditlog.ACTION_TAG, h.id, {"described": True})], h)


def expand_terms(terms: Iterable[str], thesaurus: Thesaurus) -> Set[str]:
    """Input terms plus every synonym of each; always a superset of the
    input and idempotent."""
    out = set()
    for term in terms:
        term = normalize_tag_label(term)
        out.add(term)
        cls = thesaurus.class_of(term)
        if cls:
            out |= cls
    return out


def canonical_term(term: str, thesaurus: Thesaurus) -> str:
    """Representative of the term's synonym class: its lexicographically
    smallest member, or the term itself when unclassed."""
    term = normalize_tag_label(term)
    cls = thesaurus.class_of(term)
    return min(cls) if cls else term


def group_by_tags(catalog, thesaurus: Optional[str] = None) -> Grouping:
    """One collection per tag; with a thesaurus, synonymous tags collapse
    into a single collection keyed by the canonical term. Collections may
    overlap (an object appears once per distinct tag)."""
    th = get_thesaurus(catalog, thesaurus) if thesaurus else None
    collections = {}
    for oid in catalog.object_ids():
        for tag in catalog.object_field(oid, "tags"):
            key = canonical_term(tag.label, th) if th else tag.label
            collections.setdefault(key, set()).add(oid)
    grouping = Grouping(parameter="tags", collections=collections, computed_at=now_utc())
    catalog.save_grouping(grouping)
    return grouping


def suggest_tags(summary, limit: int = 5) -> list:
    """Top word-cloud terms proposed as derived tags."""
    if summary is None or summary.kind != "wordcloud":
        return []
    return [term for term, _freq in summary.payload[:limit]]
