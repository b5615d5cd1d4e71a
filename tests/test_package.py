import ast
import json
import os
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import lakecat
from conftest import random_valid_hypernode
from lakecat import codec, open_catalog, store
from lakecat.auditlog import Checkpoint, EventRecord
from lakecat.cli import COMMANDS
from lakecat.model import (
    Grouping,
    Hypernode,
    MetaEdge,
    MetaNode,
    ParenthoodLink,
    SimilarityLink,
    Summary,
    Tag,
    now_utc,
)


def test_runtime_imports_are_stdlib_only():
    """The package has no runtime dependencies: every import names
    lakecat itself or a standard-library module."""
    modules = sorted(Path(lakecat.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "lakecat" or top in sys.stdlib_module_names, (
                    f"{path.name} imports {name}"
                )


def test_module_entry_point_help_lists_every_command():
    path = [str(Path(lakecat.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "lakecat", "--help"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")}
    assert set(COMMANDS) <= listed


PERSISTED_TYPES = (Hypernode, MetaNode, MetaEdge, Summary, Tag, SimilarityLink,
                   ParenthoodLink, Grouping, EventRecord, Checkpoint)


def read(cls, record):
    """The `cls` value of a record read from a file: checked, then decoded."""
    return store.decode(cls, codec.check(cls, record))


def test_every_persisted_type_round_trips_through_the_codec(tmp_path):
    """The codec derives each field's conversion, and its check, from its
    annotation, so a field whose annotation does not resolve, or whose
    type the codec does not handle, fails here rather than at a user's
    first write; and the check passes every record the codec writes."""
    for cls in PERSISTED_TYPES:
        assert typing.get_type_hints(cls)

    def through_json(value, record):
        codec.check(type(value), record)
        return read(type(value), json.loads(json.dumps(record)))

    rng = random.Random(23)
    for i in range(30):
        h = random_valid_hypernode(rng)
        if i % 2:
            h.tags = {Tag(f"t{i}"), Tag(f"t{i}", "derived")}
            h.description, h.description_history = "now", ["before", "now"]
            h.summary = Summary(kind="wordcloud", payload=[("a", 2), ("b", 1)], row_count=i)
        assert through_json(h, store.encode(h)) == h
    at = now_utc()
    links = [
        SimilarityLink(id="lnk_1", endpoints=("obj_b", "obj_a"), metric_name="token-jaccard",
                       value=0.5, computed_at=at, compared_nodes=("nod_b", "nod_a")),
        ParenthoodLink(id="lnk_2", parents=frozenset({"obj_a", "obj_b"}), child="obj_c",
                       attributes={"description": "joined", "at": at}),
    ]
    for link in links:
        assert through_json(link, store.link_to_dict(link)) == link
    g = Grouping(parameter="origin", collections={"x": {"obj_a", "obj_b"}}, computed_at=at)
    assert through_json(g, store.encode(g)) == g
    event = EventRecord(seq=1, at=at, actor="tester", action="Tag", target="obj_a",
                        detail={"tags": ["x"], "weight": 0.5})
    assert through_json(event, store.encode(event)) == event
    checkpoint = Checkpoint(offset=120, seq=2, digest="0" * 64, access={"obj_a": 2})
    assert through_json(checkpoint, store.encode(checkpoint)) == checkpoint

    # the older forms of a record still read: a null or missing event
    # detail, a tag of its label alone, an int in a float field, missing
    # keys whose fields have defaults, and an indented object file
    no_detail = {k: v for k, v in store.encode(event).items() if k != "detail"}
    for record in (no_detail, {**no_detail, "detail": None}):
        assert read(EventRecord, record).detail == {}
    assert read(Tag, ["t1"]) == Tag("t1")
    assert read(SimilarityLink, {**store.link_to_dict(links[0]), "value": 1}).value == 1
    h = random_valid_hypernode(rng)
    record = store.encode(h)
    for key in ("tags", "description", "description_history", "summary"):
        del record[key]
    assert read(Hypernode, record) == h
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        (cat.objects_dir / f"{h.id}.json").write_text(
            json.dumps(store.encode(h), sort_keys=True, indent=1), encoding="utf-8")
        assert cat.get_object(h.id) == h


AT = "2026-01-01T00:00:00+00:00"
NODE = {"id": "nod_a", "kind": "version", "attributes": {}, "created_at": AT}
LINK = {"id": "lnk_1", "endpoints": ["obj_a", "obj_b"], "metric": "token-jaccard",
        "value": 0.5, "computed_at": AT, "compared_nodes": ["nod_a", "nod_b"]}


@pytest.mark.parametrize("cls, record, named", [
    (EventRecord, {"seq": True, "at": AT, "actor": "a", "action": "Tag", "target": "t"},
     "seq"),  # an int is no bool
    (SimilarityLink, {**LINK, "value": True}, "value"),  # nor is a float
    (SimilarityLink, {**LINK, "endpoints": ["obj_a"]}, "endpoints"),  # a pair has two
    (SimilarityLink, {**LINK, "compared_nodes": "ab"}, "compared_nodes"),  # a string is no list
    (Tag, ["t1", "manual", "extra"], "Tag"),  # no longer than its fields
    (Hypernode, {"id": "obj_a", "description": 5}, "description"),  # Optional[str]
    (Hypernode, {"id": "obj_a", "tags": [["t1", 5]]}, "tags: source"),  # a nested record
    (Hypernode, {"id": "obj_a", "nodes": {"nod_a": NODE}}, "nodes"),  # records with ids: a list
    (Hypernode, {"id": "obj_a", "nodes": [{**NODE, "created_at": 5}]}, "nodes: created_at"),
    (Grouping, {"parameter": "p", "collections": {"t": "ab"}, "computed_at": AT},
     "collections"),  # a set is a list
    (ParenthoodLink, {"id": "lnk_2", "parents": ["obj_a", None], "child": "obj_c"}, "parents"),
    (Checkpoint, {"offset": 1, "seq": 1, "digest": "", "access": {"obj_a": 1.0}},
     "access"),  # a count is an int
])
def test_check_rejects_a_value_of_the_wrong_type(cls, record, named):
    """`codec.check` raises TypeError naming the key whose value breaks
    its annotation; `decode` alone would take most of these."""
    with pytest.raises(TypeError, match=named):
        codec.check(cls, record)
