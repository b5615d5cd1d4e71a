import random
from datetime import timedelta

import pytest

from conftest import create_object, make_edge, make_node
from lakecat import intra, store
from lakecat.errors import KindMismatch, MissingProperty, NotFound
from lakecat.model import (REPRESENTATION, UPDATE, TRANSFORMATION, VERSION, MetaNode,
                           validate_hypernode)


PROPS = {"title": "products.xml", "origin": "internal source", "ingest_format": "xml"}


def make_object(catalog, locator="/lake/products.xml"):
    return create_object(catalog, locator, dict(PROPS), actor="tester")


def tspec(desc="extract schema"):
    return intra.TransformationSpec(description=desc, actor="tester")


def uspec(desc="price change", locator="/lake/products_v2.xml", strategy=intra.NEW_VERSION):
    return intra.UpdateSpec(description=desc, actor="tester",
                            produces_locator=locator, strategy=strategy)


def edge_between(h, from_id, to_id):
    """The one edge of the hypernode from one node to the other."""
    [edge] = [e for e in h.edges.values() if (e.from_node, e.to_node) == (from_id, to_id)]
    return edge


def path_to(catalog, oid, node_id) -> list:
    """The (node, edge) pairs from the root to the node, as `get_tree`
    shows them: each entry's edge comes from the entry before it."""
    path = []
    for depth, node, edge in intra.get_tree(catalog, oid):
        del path[depth:]
        path.append((node, edge))
        if node.id == node_id:
            return path
    raise AssertionError(f"get_tree does not show {node_id}")


class TestCreateObject:
    def test_single_root_version(self, catalog):
        oid = make_object(catalog)
        h = catalog.get_object(oid)
        assert len(h.nodes) == 1
        root = h.root()
        assert root.kind == VERSION
        assert root.content_locator == "/lake/products.xml"
        assert h.attributes["n_versions"] == 1
        assert h.attributes["n_representations"] == 0

    def test_missing_property(self):
        with pytest.raises(MissingProperty):
            intra.new_object("/x", {"title": "t", "ingest_format": "xml"})

    def test_ids_unique(self, catalog):
        assert make_object(catalog) != make_object(catalog)


class TestAddRepresentation:
    def test_under_root_version(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        rid = intra.add_representation(catalog, oid, root.id, tspec())
        h = catalog.get_object(oid)
        assert h.nodes[rid].kind == REPRESENTATION
        edge = edge_between(h, root.id, rid)
        assert edge.kind == TRANSFORMATION
        assert edge.attributes["description"] == "extract schema"
        assert h.attributes["n_representations"] == 1

    def test_under_second_version(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        v2 = intra.add_version(catalog, oid, root.id, uspec())
        r2 = intra.add_representation(catalog, oid, v2, tspec("schema from v2"))
        h = catalog.get_object(oid)
        assert edge_between(h, v2, r2).kind == TRANSFORMATION

    def test_unknown_parent(self, catalog):
        oid = make_object(catalog)
        with pytest.raises(NotFound):
            intra.add_representation(catalog, oid, "nod_missing", tspec())


class TestAddVersion:
    def test_new_version_edge(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        v2 = intra.add_version(catalog, oid, root.id, uspec())
        h = catalog.get_object(oid)
        assert h.nodes[v2].kind == VERSION
        assert edge_between(h, root.id, v2).kind == UPDATE
        assert h.attributes["n_versions"] == 2

    def test_parent_representation_rejected(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        r1 = intra.add_representation(catalog, oid, root.id, tspec())
        with pytest.raises(KindMismatch):
            intra.add_version(catalog, oid, r1, uspec())

    def test_branched_versions(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        v2a = intra.add_version(catalog, oid, root.id, uspec("branch a", "/lake/a"))
        v2b = intra.add_version(catalog, oid, root.id, uspec("branch b", "/lake/b"))
        h = catalog.get_object(oid)
        assert {edge_between(h, root.id, v2a).kind, edge_between(h, root.id, v2b).kind} == {UPDATE}
        assert h.attributes["n_versions"] == 3
        assert validate_hypernode(h) == []

    def test_overwrite_in_place(self, catalog):
        oid = make_object(catalog)
        root_id = catalog.get_object(oid).root().id
        same = intra.add_version(
            catalog, oid, root_id,
            uspec("fix typo", "/lake/products_fixed.xml", intra.OVERWRITE_IN_PLACE),
        )
        assert same == root_id
        h = catalog.get_object(oid)
        assert len(h.nodes) == 1
        root = h.root()
        assert root.content_locator == "/lake/products_fixed.xml"
        assert any("fix typo" in note for note in root.attributes["change_notes"])

    def test_new_version_preserves_old_nodes(self, catalog):
        oid = make_object(catalog)
        before = catalog.get_object(oid)
        root = before.root()
        intra.add_version(catalog, oid, root.id, uspec())
        after_root = catalog.get_object(oid).nodes[root.id]
        assert after_root.content_locator == root.content_locator
        assert after_root.attributes == root.attributes


class TestTraversal:
    def test_fresh_object_single_node(self, catalog):
        oid = make_object(catalog)
        tree = intra.get_tree(catalog, oid)
        assert len(tree) == 1
        depth, node, edge = tree[0]
        assert (depth, edge) == (0, None)

    def test_golden_scenario_tree(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        intra.add_representation(catalog, oid, root.id, tspec())
        v2 = intra.add_version(catalog, oid, root.id, uspec())
        intra.add_representation(catalog, oid, v2, tspec("schema from v2"))
        tree = intra.get_tree(catalog, oid)
        assert len(tree) == 4
        h = catalog.get_object(oid)
        assert len(h.edges) == 3

    def test_tree_is_preorder_with_children_by_creation_time(self, catalog):
        h = intra.new_object("/lake/v1.xml", dict(PROPS))
        root = h.root()

        def node(name, kind, seconds_after_root):
            return MetaNode(id=f"nod_{name}", kind=kind,
                            created_at=root.created_at + timedelta(seconds=seconds_after_root))

        r1, v2 = node("r1", REPRESENTATION, 1), node("v2", VERSION, 2)
        r2, r3 = node("r2", REPRESENTATION, 3), node("r3", REPRESENTATION, 4)
        # inserted out of creation order, so edge order does not give the answer
        for parent, child, kind in [(root, r3, TRANSFORMATION), (v2, r2, TRANSFORMATION),
                                    (root, v2, UPDATE), (root, r1, TRANSFORMATION)]:
            edge = make_edge(kind, parent, child)
            h.nodes[child.id], h.edges[edge.id] = child, edge
        h.refresh_aggregates()
        catalog.put_object(h)
        tree = intra.get_tree(catalog, h.id)
        assert [(depth, node.id) for depth, node, _edge in tree] == [
            (0, root.id), (1, "nod_r1"), (1, "nod_v2"), (2, "nod_r2"), (1, "nod_r3")]
        assert [edge.from_node for _d, _n, edge in tree[1:]] == [root.id, root.id, "nod_v2",
                                                                  root.id]

    def test_tree_deeper_than_the_recursion_limit(self, catalog):
        h = intra.new_object("/lake/v1.xml", dict(PROPS))
        chain = [h.root()]
        for i in range(2, 1101):
            node = make_node(VERSION, content_locator=f"/lake/v{i}.xml")
            edge = make_edge(UPDATE, chain[-1], node)
            h.nodes[node.id], h.edges[edge.id] = node, edge
            chain.append(node)
        h.refresh_aggregates()
        catalog.put_object(h)
        tree = intra.get_tree(catalog, h.id)
        assert [(depth, node.id) for depth, node, _edge in tree] == [
            (i, node.id) for i, node in enumerate(chain)]
        assert all(edge.to_node == node.id for _d, node, edge in tree[1:])

    def test_tree_with_a_cycle_is_refused(self, catalog):
        """A hand-edited object whose edges loop back below the root."""
        h = intra.new_object("/lake/v1.xml", dict(PROPS))
        a, b = make_node(VERSION), make_node(VERSION)
        for edge in (make_edge(UPDATE, h.root(), a), make_edge(UPDATE, a, b),
                     make_edge(UPDATE, b, a)):
            h.edges[edge.id] = edge
        h.nodes[a.id], h.nodes[b.id] = a, b
        store.atomic_write_json(catalog.objects_dir / f"{h.id}.json", store.encode(h))
        with pytest.raises(NotFound, match="not a tree"):
            intra.get_tree(catalog, h.id)

    def test_tree_path_golden(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        intra.add_representation(catalog, oid, root.id, tspec())
        v2 = intra.add_version(catalog, oid, root.id, uspec())
        r2 = intra.add_representation(catalog, oid, v2, tspec("schema from v2"))
        path = path_to(catalog, oid, r2)
        kinds = [edge.kind for _node, edge in path[1:]]
        assert kinds == [UPDATE, TRANSFORMATION]
        assert [edge.from_node for _node, edge in path[1:]] == [root.id, v2]
        assert path[0][0].id == root.id
        assert path[-1][0].id == r2

    def test_root_path_is_single_entry(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        path = path_to(catalog, oid, root.id)
        assert len(path) == 1 and path[0][1] is None

    def test_path_length_equals_bfs_depth(self, catalog):
        rng = random.Random(23)
        oid = make_object(catalog)
        for _ in range(15):
            h = catalog.get_object(oid)
            parent = rng.choice(list(h.nodes.values()))
            if parent.kind == VERSION and rng.random() < 0.5:
                intra.add_version(catalog, oid, parent.id, uspec("u", f"/lake/{rng.random()}"))
            else:
                intra.add_representation(catalog, oid, parent.id, tspec("t"))
        h = catalog.get_object(oid)
        assert validate_hypernode(h) == []
        assert len(h.nodes) == len(h.edges) + 1
        # BFS oracle for node depth
        root = h.root()
        depth = {root.id: 0}
        frontier = [root.id]
        while frontier:
            nxt = []
            for nid in frontier:
                for e in h.edges.values():
                    if e.from_node == nid and e.to_node not in depth:
                        depth[e.to_node] = depth[nid] + 1
                        nxt.append(e.to_node)
            frontier = nxt
        for nid in h.nodes:
            assert len(path_to(catalog, oid, nid)) == depth[nid] + 1

    def test_short_node_prefix_accepted(self, catalog):
        oid = make_object(catalog)
        root = catalog.get_object(oid).root()
        rid = intra.add_representation(catalog, oid, root.id[:8], tspec())
        assert rid in catalog.get_object(oid).nodes
