"""File profiling and ingestion: filesystem properties, format
detection, schema extraction for CSV/JSON/XML, word clouds for text, and
the one-shot ingest operation that creates, summarizes, tags, and
indexes an object.
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


def _csv_schema(text: str) -> Summary:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ResourceParseError(f"bad CSV: {exc}") from exc
    if not rows:
        return Summary(kind="schema", payload=[], row_count=0)
    header, data = rows[0], rows[1:]
    column_types = [set() for _ in header]
    counts = [0] * len(header)
    for row in data:
        for i, cell in enumerate(row[: len(header)]):
            if cell.strip() == "":
                continue
            column_types[i].add(_cell_type(cell))
            counts[i] += 1
    payload = [
        (name, _merge_types(column_types[i]), counts[i])
        for i, name in enumerate(header)
    ]
    return Summary(kind="schema", payload=payload, row_count=len(data))


def _json_value_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    return "text"


def _walk_json(value, prefix: str, paths: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            sub_prefix = f"{prefix}.{key}" if prefix else key
            _walk_json(sub, sub_prefix, paths)
    elif isinstance(value, list):
        for item in value:
            _walk_json(item, f"{prefix}[]", paths)
    else:
        entry = paths.setdefault(prefix, [set(), 0])
        entry[0].add(_json_value_type(value))
        entry[1] += 1


def _json_schema(text: str) -> Summary:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResourceParseError(
            f"bad JSON: {exc.msg} at offset {exc.pos}", line=exc.lineno, column=exc.colno
        ) from exc
    paths = {}
    _walk_json(doc, "", paths)
    payload = [
        (path, _merge_types(types), count)
        for path, (types, count) in sorted(paths.items())
    ]
    return Summary(kind="schema", payload=payload)


def _walk_xml(elem, prefix: str, paths: dict) -> None:
    tag = elem.tag.split("}")[-1]  # drop namespace
    path = f"{prefix}.{tag}" if prefix else tag
    for name, value in elem.attrib.items():
        entry = paths.setdefault(f"{path}.@{name}", [set(), 0])
        entry[0].add(_cell_type(value))
        entry[1] += 1
    children = list(elem)
    text = (elem.text or "").strip()
    if children:
        for child in children:
            _walk_xml(child, path, paths)
        if text:
            entry = paths.setdefault(path, [set(), 0])
            entry[0].add(_cell_type(text))
            entry[1] += 1
    else:
        entry = paths.setdefault(path, [set(), 0])
        if text:
            entry[0].add(_cell_type(text))
        entry[1] += 1


def _xml_schema(text: str) -> Summary:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ResourceParseError(f"bad XML: {exc.msg if hasattr(exc, 'msg') else exc}",
                                 line=line, column=column) from exc
    paths = {}
    _walk_xml(root, "", paths)
    payload = [
        (path, _merge_types(types), count)
        for path, (types, count) in sorted(paths.items())
    ]
    return Summary(kind="schema", payload=payload)


def extract_schema(path, fmt: str) -> Summary:
    """Schema summary of a CSV, JSON, or XML file: per-column types for
    CSV; root-to-leaf paths with value types and occurrence counts for
    the tree formats (attributes appear as `@name` path steps)."""
    if fmt not in ("csv", "json", "xml"):
        raise ValueError(f"no schema extraction for format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise Unreadable(f"cannot read {path}: {exc}") from exc
    if fmt == "csv":
        return _csv_schema(text)
    if fmt == "json":
        return _json_schema(text)
    return _xml_schema(text)


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
    if profile.detected_format in ("csv", "json", "xml"):
        return extract_schema(profile.path, profile.detected_format)
    if profile.detected_format == "text":
        return word_cloud(profile.path)
    return None


def ingest_file(catalog, path, origin: str, tags: Optional[Iterable[str]] = None,
                actor: str = "system", auto_tag: bool = False) -> str:
    """Profile a file and commit its object once: summary, derived and
    manual tags are built in memory, then the object is written, indexed
    and its Create and Tag events logged. Nothing is written when
    profiling, summarizing or tag validation fails. The raw content
    stays where it lives; the root version's locator is the absolute
    path."""
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
    events = [(auditlog.ACTION_CREATE, intra.create_detail(h))]
    derived = semantic.suggest_tags(h.summary) if auto_tag else []
    if derived:
        labels = semantic.normalize_tags(derived)
        events.append((auditlog.ACTION_TAG, semantic.merge_tags(h, labels, "derived")))
    if tags:
        labels = semantic.normalize_tags(tags)
        events.append((auditlog.ACTION_TAG, semantic.merge_tags(h, labels, "manual")))
    catalog.put_object(h)
    indexmod.index_hypernode(catalog, h)
    for action, detail in events:
        auditlog.record_event(catalog, actor, action, h.id, detail)
    return h.id
