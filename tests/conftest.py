import os
import random
import types
from collections import Counter
from pathlib import Path

import pytest

from lakecat import auditlog, intra, open_catalog, semantic, store
from lakecat.ingest import ingest_file
from lakecat.model import (
    Hypernode,
    MetaEdge,
    MetaNode,
    REPRESENTATION,
    TRANSFORMATION,
    UPDATE,
    VERSION,
    new_edge_id,
    new_node_id,
    new_object_id,
    now_utc,
)


def catalog_files(path) -> dict:
    """path -> bytes of every file in the catalog at `path` but its lock file."""
    return {p: p.read_bytes() for p in Path(path).rglob("*")
            if p.is_file() and p.name != "catalog.lock"}


def create_object(cat, raw_locator, properties, actor="system") -> str:
    """Commit a new object with its Create event, as ingest_file does:
    a `new_object` hypernode and one commit. Returns its id."""
    h = intra.new_object(raw_locator, properties)
    cat.commit(actor, [(auditlog.ACTION_CREATE, h.id, intra.create_detail(h))], h)
    return h.id


def grow_persistence_catalog(cat, tmp_path) -> None:
    """Acceptance criterion 9's catalog: 100 seeded steps, each an ingest
    of a text file from `tmp_path`, a tag or a new version."""
    rng = random.Random(909)
    ids = []
    for i in range(100):
        if not ids or rng.random() < 0.4:
            p = tmp_path / f"p{i}.txt"
            p.write_text(f"persisted {i} {'x' * (i % 5)}")
            ids.append(ingest_file(cat, p, origin="disk"))
        elif rng.random() < 0.5:
            semantic.tag_object(cat, rng.choice(ids), [f"k{i % 4}"])
        else:
            oid = rng.choice(ids)
            parent = intra.latest_version(cat.get_object(oid)).id
            intra.add_version(cat, oid, parent, intra.UpdateSpec(
                description=f"d{i}", actor="a", produces_locator=f"/d{i}"))


@pytest.fixture
def catalog(tmp_path):
    cat = open_catalog(tmp_path / "cat", create_if_missing=True)
    yield cat
    cat.close()


@pytest.fixture
def fsyncs(monkeypatch):
    """Counter of os.fsync calls made through the `os` name of the store
    and auditlog modules, keyed "store" and "auditlog"."""
    counts = Counter()
    for name, mod in (("store", store), ("auditlog", auditlog)):
        proxy = types.SimpleNamespace(**vars(os))

        def fsync(fd, _name=name):
            counts[_name] += 1
            return os.fsync(fd)

        proxy.fsync = fsync
        monkeypatch.setattr(mod, "os", proxy)
    return counts


@pytest.fixture
def opened_files(monkeypatch):
    """The paths opened through the `open` name of the store and
    auditlog modules, in order."""
    paths = []
    for mod in (store, auditlog):
        def counting_open(file, *args, **kwargs):
            paths.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(mod, "open", counting_open, raising=False)
    return paths


@pytest.fixture
def make_text_file(tmp_path):
    counter = iter(range(10**6))

    def factory(content, name=None, suffix=".txt"):
        name = name or f"doc{next(counter)}{suffix}"
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    return factory


def edge_attrs():
    return {"description": "step", "actor": "tester", "at": now_utc()}


def make_node(kind, **kwargs):
    return MetaNode(id=new_node_id(), kind=kind, created_at=now_utc(), **kwargs)


def make_edge(kind, src, dst):
    return MetaEdge(id=new_edge_id(), kind=kind, from_node=src.id, to_node=dst.id,
                    attributes=edge_attrs())


def minimal_hypernode():
    root = make_node(VERSION)
    h = Hypernode(id=new_object_id(), nodes={root.id: root})
    h.refresh_aggregates()
    return h


def random_valid_hypernode(rng: random.Random, max_extra_nodes: int = 8) -> Hypernode:
    """Grow a valid tree by repeatedly attaching a node under a random
    admissible parent: updates only version->version, transformations
    into new representations."""
    h = minimal_hypernode()
    for _ in range(rng.randrange(max_extra_nodes + 1)):
        parent = rng.choice(list(h.nodes.values()))
        if parent.kind == VERSION and rng.random() < 0.5:
            child = make_node(VERSION)
            kind = UPDATE
        else:
            child = make_node(REPRESENTATION)
            kind = TRANSFORMATION
        child.attributes["size_bytes"] = rng.randrange(1000)
        h.nodes[child.id] = child
        edge = make_edge(kind, parent, child)
        h.edges[edge.id] = edge
    h.refresh_aggregates()
    return h


# single-fault mutations for validator fault-injection trials; each entry
# maps a fault class to (mutator, acceptable violation rules)
def _flip_root_kind(h, rng):
    h.root().kind = REPRESENTATION


def _extra_root(h, rng):
    extra = make_node(VERSION)
    h.nodes[extra.id] = extra
    h.attributes["n_versions"] = h.recount()["n_versions"]  # keep aggregates honest
    h.attributes["total_size_bytes"] = h.recount()["total_size_bytes"]


def _cycle_edge(h, rng):
    # an edge back into the root gives it in-degree 1: no root remains
    src = rng.choice([n for n in h.nodes.values() if n.kind == VERSION])
    edge = make_edge(UPDATE, src, h.root())
    h.edges[edge.id] = edge


def _kind_matrix_break(h, rng):
    reps = [n for n in h.nodes.values() if n.kind == REPRESENTATION]
    if reps:
        src = rng.choice(reps)
    else:
        root = h.root()
        src = make_node(REPRESENTATION)
        h.nodes[src.id] = src
        parent_edge = make_edge(TRANSFORMATION, root, src)
        h.edges[parent_edge.id] = parent_edge
        h.attributes["n_representations"] = h.recount()["n_representations"]
    child = make_node(VERSION)
    h.nodes[child.id] = child
    edge = make_edge(UPDATE, src, child)
    h.edges[edge.id] = edge
    h.attributes["n_versions"] = h.recount()["n_versions"]
    h.attributes["n_representations"] = h.recount()["n_representations"]
    h.attributes["total_size_bytes"] = h.recount()["total_size_bytes"]


def _dangling_endpoint(h, rng):
    leaf = make_node(REPRESENTATION)  # never inserted into h.nodes
    src = rng.choice(list(h.nodes.values()))
    edge = make_edge(TRANSFORMATION, src, leaf)
    h.edges[edge.id] = edge


def _stale_aggregate(h, rng):
    h.attributes["n_versions"] = h.attributes.get("n_versions", 0) + 1


FAULT_CLASSES = {
    "root-kind-flip": (_flip_root_kind, {"root-not-version"}),
    "extra-root": (_extra_root, {"multiple-roots"}),
    "cycle-edge": (_cycle_edge, {"no-root", "in-degree-exceeded", "unreachable-nodes"}),
    "kind-matrix-break": (
        _kind_matrix_break,
        {"edge-kind-matrix", "version-derived-from-representation"},
    ),
    "dangling-endpoint": (_dangling_endpoint, {"dangling-endpoint"}),
    "stale-aggregate": (_stale_aggregate, {"stale-aggregate"}),
}
