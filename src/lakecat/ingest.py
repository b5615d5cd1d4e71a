"""File profiling and ingestion: filesystem properties, format
detection, schema extraction for CSV/JSON/XML, word clouds for text, and
the one-shot ingest operation that creates, summarizes, tags, and
indexes an object.

Each schema reader fills one path accumulator, walking a tree with its
own stack, and `_schema` makes the summary: CSV columns that share a
name share an entry, and JSON nested deeper than `json.loads` allows is
refused with ResourceParseError.
"""

from __future__ import annotations

import csv
import io
import json
import os
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import zip_longest
from typing import Iterable, Optional

from . import index as indexmod
from . import auditlog, intra, semantic
from .errors import NotText, ResourceParseError, Unreadable
from .model import Summary

FORMAT_CLASSES = {
    "csv": "structured",
    "json": "semi-structured",
    "xml": "semi-structured",
    "text": "unstructured",
    "binary": "unstructured",
}

_EXTENSION_FORMATS = {
    ".csv": "csv",
    ".tsv": "csv",
    ".json": "json",
    ".jsonl": "json",
    ".xml": "xml",
    ".txt": "text",
    ".md": "text",
}


@dataclass
class FileProfile:
    path: str
    title: str
    size_bytes: int
    modified_at: datetime
    detected_format: str
    format_class: str


def _sniff_format(raw: bytes) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return "binary"
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return "json"
    if stripped.startswith("<"):
        return "xml"
    if _looks_like_csv(text):
        return "csv"
    return "text"


def _looks_like_csv(text: str) -> bool:
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) < 2:
        return False
    counts = {line.count(",") for line in lines}
    return len(counts) == 1 and counts.pop() >= 1


def profile_file(path) -> FileProfile:
    """Filesystem properties plus format detection (extension first,
    then content sniffing)."""
    path = str(path)
    try:
        stat = os.stat(path)
        with open(path, "rb") as f:
            head = f.read(64 * 1024)
    except OSError as exc:
        raise Unreadable(f"cannot read {path}: {exc}") from exc
    ext = os.path.splitext(path)[1].lower()
    fmt = _EXTENSION_FORMATS.get(ext)
    if fmt is None:
        fmt = _sniff_format(head) if head else "text"
    return FileProfile(
        path=os.path.abspath(path),
        title=os.path.basename(path),
        size_bytes=stat.st_size,
        modified_at=datetime.fromtimestamp(stat.st_mtime, tz=timezone.utc),
        detected_format=fmt,
        format_class=FORMAT_CLASSES[fmt],
    )


# ---------------------------------------------------------------------------
# schema extraction

def _cell_type(value: str) -> str:
    v = value.strip()
    if v.lower() in ("true", "false"):
        return "boolean"
    try:
        int(v)
        return "integer"
    except ValueError:
        pass
    try:
        float(v)
        return "real"
    except ValueError:
        pass
    return "text"


def _merge_types(types: set) -> str:
    if not types:
        return "text"
    if types == {"integer"}:
        return "integer"
    if types <= {"integer", "real"}:
        return "real"
    if types == {"boolean"}:
        return "boolean"
    return "text"


def _count(paths: dict, path: str, kind: Optional[str] = None, n: int = 1) -> None:
    """Add `n` occurrences of `path`, and its value type `kind` unless
    None, to the accumulator: path -> [set of value types, count]."""
    entry = paths.get(path)
    if entry is None:
        entry = paths[path] = [set(), 0]
    if kind is not None:
        entry[0].add(kind)
    entry[1] += n


def _schema(paths: dict, row_count: Optional[int] = None) -> Summary:
    """The schema summary of an accumulator: (path, merged type, count)
    for each path, in the accumulator's order for the columns of a CSV,
    which has a row count, and sorted by path for a tree."""
    items = paths.items() if row_count is not None else sorted(paths.items())
    return Summary(kind="schema", row_count=row_count,
                   payload=[(path, _merge_types(types), n) for path, (types, n) in items])


def _csv_schema(text: str) -> Summary:
    """One entry per column name, in header order, counting the non-blank
    cells; columns that share a name share an entry."""
    try:
        header, *data = list(csv.reader(io.StringIO(text))) or [[]]
    except csv.Error as exc:
        raise ResourceParseError(f"bad CSV: {exc}") from exc
    paths = {}
    columns = zip_longest(*data, fillvalue="")
    for name in header:
        cells = [cell for cell in next(columns, ()) if cell.strip()]
        _count(paths, name, n=len(cells))
        for kind in set(map(_cell_type, cells)):
            _count(paths, name, kind, n=0)
    return _schema(paths, row_count=len(data))


# the value type of a JSON scalar by its Python type; strings and null are text
_JSON_TYPES = {bool: "boolean", int: "integer", float: "real"}


def _json_schema(text: str) -> Summary:
    """One entry per root-to-leaf path: a key is a `.key` step and a list
    item a `[]` step."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResourceParseError(
            f"bad JSON: {exc.msg} at offset {exc.pos}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError as exc:
        raise ResourceParseError("bad JSON: nested deeper than the parser allows") from exc
    paths = {}
    stack = [("", doc)]
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, dict):
            for key, sub in value.items():
                stack.append((f"{prefix}.{key}" if prefix else key, sub))
        elif isinstance(value, list):
            item_prefix = f"{prefix}[]"
            for item in value:
                stack.append((item_prefix, item))
        else:
            _count(paths, prefix, _JSON_TYPES.get(type(value), "text"))
    return _schema(paths)


def _xml_schema(text: str) -> Summary:
    """One entry per element path (tags without their namespace) and per
    attribute, as an `@name` step. A leaf counts even when it has no text;
    an element with children counts only when it has text."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ResourceParseError(f"bad XML: {exc.msg if hasattr(exc, 'msg') else exc}",
                                 line=line, column=column) from exc
    paths = {}
    stack = [("", root)]
    while stack:
        prefix, elem = stack.pop()
        tag = elem.tag.split("}")[-1]  # drop namespace
        path = f"{prefix}.{tag}" if prefix else tag
        for name, value in elem.attrib.items():
            _count(paths, f"{path}.@{name}", _cell_type(value))
        content = (elem.text or "").strip()
        if content or not len(elem):
            _count(paths, path, _cell_type(content) if content else None)
        for child in elem:
            stack.append((path, child))
    return _schema(paths)


# the formats that have a schema summary, and the reader of each
SCHEMA_READERS = {"csv": _csv_schema, "json": _json_schema, "xml": _xml_schema}


def extract_schema(path, fmt: str) -> Summary:
    """Schema summary of a CSV, JSON, or XML file: per-column types for
    CSV; root-to-leaf paths with value types and occurrence counts for
    the tree formats (attributes appear as `@name` path steps)."""
    read = SCHEMA_READERS.get(fmt)
    if read is None:
        raise ValueError(f"no schema extraction for format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise Unreadable(f"cannot read {path}: {exc}") from exc
    return read(text)


def word_cloud(path, k: int = 20) -> Summary:
    """Top-k (term, frequency) pairs over the file's tokens, descending
    frequency with lexicographic ties."""
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise NotText(f"{path} is not a text file") from exc
    except OSError as exc:
        raise Unreadable(f"cannot read {path}: {exc}") from exc
    counts = Counter(indexmod.tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Summary(kind="wordcloud", payload=ranked[:k])


def summarize(profile: FileProfile) -> Optional[Summary]:
    """Format-appropriate summary: schema for csv/json/xml, word cloud
    for text, none for binary."""
    if profile.detected_format in SCHEMA_READERS:
        return extract_schema(profile.path, profile.detected_format)
    if profile.detected_format == "text":
        return word_cloud(profile.path)
    return None


def ingest_file(catalog, path, origin: str, tags: Optional[Iterable[str]] = None,
                actor: str = "system", auto_tag: bool = False) -> str:
    """Profile a file and commit its object once: summary, derived and
    manual tags are built in memory, then the object is written, indexed
    and its Create and Tag events logged with one fsync. Nothing is
    written when profiling, summarizing or tag validation fails. The raw
    content stays where it lives; the root version's locator is the
    absolute path."""
    profile = profile_file(path)
    properties = {
        "title": profile.title,
        "origin": origin,
        "ingest_format": profile.detected_format,
        "format_class": profile.format_class,
        "size_bytes": profile.size_bytes,
        "modified_at": profile.modified_at,
        "path": profile.path,
    }
    h = intra.new_object(profile.path, properties)
    h.summary = summarize(profile)
    events = [(auditlog.ACTION_CREATE, h.id, intra.create_detail(h))]
    derived = semantic.suggest_tags(h.summary) if auto_tag else []
    if derived:
        labels = semantic.normalize_tags(derived)
        events.append((auditlog.ACTION_TAG, h.id, semantic.merge_tags(h, labels, "derived")))
    if tags:
        labels = semantic.normalize_tags(tags)
        events.append((auditlog.ACTION_TAG, h.id, semantic.merge_tags(h, labels, "manual")))
    catalog.commit(actor, events, h)
    return h.id
