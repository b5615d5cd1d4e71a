import ast
import json
import os
import random
import subprocess
import sys
import typing
from pathlib import Path

import lakecat
from conftest import random_valid_hypernode
from lakecat import store
from lakecat.auditlog import EventRecord
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
                   ParenthoodLink, Grouping, EventRecord)


def test_every_persisted_type_round_trips_through_the_codec():
    """The codec derives each field's conversion from its annotation, so
    a field whose annotation does not resolve, or whose type the codec
    does not handle, fails here rather than at a user's first write."""
    for cls in PERSISTED_TYPES:
        assert typing.get_type_hints(cls)

    def through_json(value, record):
        return store.decode(type(value), json.loads(json.dumps(record)))

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
