"""Schema summaries: `extract_schema` against an oracle, and files the
per-format recursive walkers it replaced could not summarize.

The oracle is those walkers, kept here as they were: a recursive walk of
the JSON value or the XML element tree, and a per-column pass over the
CSV rows. For every file they could summarize, the iterative walk gives
the same summary.
"""

import csv
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_files
from lakecat import ingest, open_catalog
from lakecat.cli import run
from lakecat.errors import ResourceParseError
from lakecat.ingest import _cell_type, _merge_types
from lakecat.model import Summary


# ---------------------------------------------------------------------------
# the oracle: the recursive walkers

def _json_value_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    return "text"


def _oracle_csv(text: str) -> Summary:
    rows = list(csv.reader(io.StringIO(text)))
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
    payload = [(name, _merge_types(column_types[i]), counts[i])
               for i, name in enumerate(header)]
    return Summary(kind="schema", payload=payload, row_count=len(data))


def _walk_json(value, prefix: str, paths: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _walk_json(sub, f"{prefix}.{key}" if prefix else key, paths)
    elif isinstance(value, list):
        for item in value:
            _walk_json(item, f"{prefix}[]", paths)
    else:
        entry = paths.setdefault(prefix, [set(), 0])
        entry[0].add(_json_value_type(value))
        entry[1] += 1


def _walk_xml(elem, prefix: str, paths: dict) -> None:
    tag = elem.tag.split("}")[-1]
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


def _oracle_tree(walk, root) -> Summary:
    paths = {}
    walk(root, "", paths)
    return Summary(kind="schema", payload=[(path, _merge_types(types), count)
                                           for path, (types, count) in sorted(paths.items())])


def oracle(text: str, fmt: str) -> Summary:
    if fmt == "csv":
        return _oracle_csv(text)
    if fmt == "json":
        return _oracle_tree(_walk_json, json.loads(text))
    return _oracle_tree(_walk_xml, ET.fromstring(text))


# ---------------------------------------------------------------------------
# generated files

# few names, so that paths meet: a key "a.b" and a key "b" under "a"
KEYS = st.sampled_from(["", "a", "b", "a.b", "c[]"])
CELLS = st.sampled_from(["", " ", "1", "-2", "2.5", "1e3", "true", "False", "x", "a,b", 'q"'])

JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=40)

TAGS = st.sampled_from(["a", "b", "{urn:x}a", "{urn:y}c"])
XML_TEXT = st.none() | CELLS.filter(lambda c: c != 'q"') | st.text("ab1 .", max_size=4)
ATTRS = st.dictionaries(st.sampled_from(["k", "m", "{urn:x}k"]), CELLS, max_size=2)
# (tag, attributes, text, [(child, tail)]): a child's tail is mixed content
XML_TREES = st.recursive(
    st.tuples(TAGS, ATTRS, XML_TEXT, st.just([])),
    lambda kids: st.tuples(TAGS, ATTRS, XML_TEXT, st.lists(st.tuples(kids, XML_TEXT),
                                                           max_size=4)),
    max_leaves=30)


def build_element(tree) -> ET.Element:
    tag, attrs, text, children = tree
    elem = ET.Element(tag, attrs)
    elem.text = text
    for child, tail in children:
        sub = build_element(child)
        sub.tail = tail
        elem.append(sub)
    return elem


@st.composite
def csv_texts(draw) -> str:
    """A CSV file with distinct column names, whose rows may be shorter or
    longer than the header, or blank."""
    header = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=5,
                           unique=True))
    rows = draw(st.lists(st.lists(CELLS, max_size=len(header) + 2), max_size=8))
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    return out.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("schema")


def assert_matches_oracle(scratch: Path, text: str, fmt: str) -> None:
    path = scratch / f"doc.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    # the oracle reads the text as extract_schema does
    with open(path, "r", encoding="utf-8") as f:
        expected = oracle(f.read(), fmt)
    assert ingest.extract_schema(path, fmt) == expected


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
def test_json_schema_equals_the_recursive_walk(scratch, doc):
    assert_matches_oracle(scratch, json.dumps(doc), "json")


@settings(max_examples=300, deadline=None)
@given(XML_TREES)
def test_xml_schema_equals_the_recursive_walk(scratch, tree):
    assert_matches_oracle(scratch, ET.tostring(build_element(tree), encoding="unicode"), "xml")


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_csv_schema_equals_the_column_pass(scratch, text):
    assert_matches_oracle(scratch, text, "csv")


# ---------------------------------------------------------------------------
# files the walkers could not summarize

DEPTH = 5000


def test_a_repeated_csv_column_is_one_entry(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,name,id,note\n1,x,2.5,\n3,y,,z\n")
    summary = ingest.extract_schema(path, "csv")
    # the two `id` columns: types joined, counts summed, first position kept
    assert summary.payload == [("id", "real", 3), ("name", "text", 2), ("note", "text", 1)]
    assert summary.row_count == 2
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        oid = ingest.ingest_file(cat, path, origin="t")
        assert cat.get_object(oid).summary == summary
        assert cat.validate() == []


def test_a_deep_xml_file_ingests(tmp_path):
    path = tmp_path / "deep.xml"
    path.write_text("<a>" * DEPTH + "1" + "</a>" * DEPTH)
    summary = ingest.extract_schema(path, "xml")
    assert summary.payload == [(".".join(["a"] * DEPTH), "integer", 1)]
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        oid = ingest.ingest_file(cat, path, origin="t")
        assert cat.get_object(oid).summary == summary


def test_a_json_file_too_deep_to_parse_is_refused(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * DEPTH + "]" * DEPTH)
    with pytest.raises(ResourceParseError, match="nested deeper"):
        ingest.extract_schema(path, "json")
    cat_path = str(tmp_path / "cat")
    assert run(["--catalog", cat_path, "init"]) == 0
    capsys.readouterr()
    before = catalog_files(cat_path)
    assert run(["--catalog", cat_path, "ingest", str(path), "--origin", "t"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad JSON") and err.count("\n") == 1, err
    assert catalog_files(cat_path) == before
