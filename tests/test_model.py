import copy
import random

from conftest import (
    FAULT_CLASSES,
    make_edge,
    make_node,
    minimal_hypernode,
    random_valid_hypernode,
)
from lakecat.model import (
    Grouping,
    Hypernode,
    ParenthoodLink,
    REPRESENTATION,
    SimilarityLink,
    Summary,
    Tag,
    TRANSFORMATION,
    UPDATE,
    VERSION,
    new_link_id,
    new_object_id,
    now_utc,
    has_cycle,
    reachable,
    validate_catalog_graph,
    validate_hypernode,
)


def golden_tree():
    """The four-node walkthrough: v1 root, schema representation r1,
    update to v2, schema representation r2 from v2."""
    v1 = make_node(VERSION)
    r1 = make_node(REPRESENTATION)
    v2 = make_node(VERSION)
    r2 = make_node(REPRESENTATION)
    h = Hypernode(id=new_object_id(), nodes={n.id: n for n in (v1, r1, v2, r2)})
    for kind, src, dst in ((TRANSFORMATION, v1, r1), (UPDATE, v1, v2),
                           (TRANSFORMATION, v2, r2)):
        e = make_edge(kind, src, dst)
        h.edges[e.id] = e
    h.refresh_aggregates()
    return h, (v1, r1, v2, r2)


class TestValidateHypernode:
    def test_minimal_valid(self):
        assert validate_hypernode(minimal_hypernode()) == []

    def test_golden_tree_valid(self):
        h, _ = golden_tree()
        assert validate_hypernode(h) == []

    def test_version_derived_from_representation(self):
        h, (v1, r1, v2, r2) = golden_tree()
        # rewire v2's incoming update to come from r1
        for e in h.edges.values():
            if e.to_node == v2.id:
                e.from_node = r1.id
        rules = {v.rule for v in validate_hypernode(h)}
        assert "version-derived-from-representation" in rules

    def test_multiple_roots_against_indegree_oracle(self):
        h, (v1, *_rest) = golden_tree()
        stray = make_node(VERSION)
        h.nodes[stray.id] = stray
        h.refresh_aggregates()
        # oracle: count in-degrees by brute force
        indeg = {nid: 0 for nid in h.nodes}
        for e in h.edges.values():
            indeg[e.to_node] += 1
        assert sorted(nid for nid, d in indeg.items() if d == 0) == sorted([v1.id, stray.id])
        rules = {v.rule for v in validate_hypernode(h)}
        assert "multiple-roots" in rules

    def test_edge_missing_attributes(self):
        h, (v1, r1, *_rest) = golden_tree()
        for e in h.edges.values():
            e.attributes.pop("actor", None)
        rules = {v.rule for v in validate_hypernode(h)}
        assert rules == {"edge-missing-attributes"}

    def test_on_demand_view_needs_recipe(self):
        h = minimal_hypernode()
        root = h.root()
        view = make_node(REPRESENTATION, content_locator="on-demand view")
        h.nodes[view.id] = view
        e = make_edge(TRANSFORMATION, root, view)
        h.edges[e.id] = e
        h.refresh_aggregates()
        assert "on-demand-view-without-recipe" in {v.rule for v in validate_hypernode(h)}
        view.attributes["recomputation"] = "rerun the extraction script"
        assert validate_hypernode(h) == []

    def test_idempotent_and_pure(self):
        h, _ = golden_tree()
        before = copy.deepcopy(h)
        first = validate_hypernode(h)
        second = validate_hypernode(h)
        assert first == second == []
        assert h == before

    def test_tree_node_edge_count(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_valid_hypernode(rng)
            assert validate_hypernode(h) == []
            assert len(h.nodes) == len(h.edges) + 1

    def test_summary_invariants(self):
        h = minimal_hypernode()
        h.summary = Summary(kind="wordcloud", payload=[("a", 1), ("b", 2)])
        assert "wordcloud-unsorted" in {v.rule for v in validate_hypernode(h)}
        h.summary = Summary(kind="schema", payload=[("x", "text", 1), ("x", "text", 2)])
        assert "schema-duplicate-path" in {v.rule for v in validate_hypernode(h)}


class TestFaultInjection:
    def test_each_fault_class_detected(self):
        rng = random.Random(11)
        for name, (mutate, expected_rules) in FAULT_CLASSES.items():
            for _ in range(30):
                h = random_valid_hypernode(rng)
                mutated = copy.deepcopy(h)
                mutate(mutated, rng)
                rules = {v.rule for v in validate_hypernode(mutated)}
                assert rules & expected_rules, (name, rules)
                # the unmutated original stays clean: no false positives
                assert validate_hypernode(h) == []


def _sim(a, b, value):
    return SimilarityLink(
        id=new_link_id(), endpoints=(a, b), metric_name="token-jaccard",
        value=value, computed_at=now_utc(), compared_nodes=("na", "nb"),
    )


class TestValidateCatalogGraph:
    def test_empty_catalog(self):
        assert validate_catalog_graph([]) == []

    def test_similarity_out_of_range(self):
        out = validate_catalog_graph(["A", "B"], similarity_links=[_sim("A", "B", 1.3)])
        assert "value-out-of-range" in {v.rule for v in out}

    def test_parenthood_cycle_matches_brute_force(self):
        links = [
            ParenthoodLink(id=new_link_id(), parents=frozenset({"A", "B"}), child="C"),
            ParenthoodLink(id=new_link_id(), parents=frozenset({"C", "D"}), child="A"),
        ]
        # brute force oracle: search every simple path for a repeat
        edges = {(p, l.child) for l in links for p in l.parents}

        def reachable(start, goal, seen=()):
            for src, dst in edges:
                if src == start:
                    if dst == goal:
                        return True
                    if dst not in seen and reachable(dst, goal, (*seen, dst)):
                        return True
            return False

        assert reachable("C", "C") or reachable("A", "A")
        out = validate_catalog_graph(["A", "B", "C", "D"], parenthood_links=links)
        assert "parenthood-cycle" in {v.rule for v in out}

    def test_long_parenthood_chain(self):
        """A chain longer than the interpreter's recursion limit: link i
        joins o_i and l_i into o_(i+1). Closing it into a ring is a cycle."""
        n = 1200
        links = [ParenthoodLink(id=f"lnk_{i}", parents=frozenset({f"o{i}", f"l{i}"}),
                                child=f"o{i + 1}") for i in range(n)]
        objects = [f"o{i}" for i in range(n + 1)] + [f"l{i}" for i in range(n)]
        assert validate_catalog_graph(objects, parenthood_links=links) == []
        ring = links + [ParenthoodLink(id="lnk_ring", parents=frozenset({f"o{n}", "l_ring"}),
                                       child="o0")]
        out = validate_catalog_graph(objects + ["l_ring"], parenthood_links=ring)
        assert [v.rule for v in out] == ["parenthood-cycle"]

    def test_has_cycle_matches_reachability(self):
        rng = random.Random(41)
        for _ in range(300):
            nodes = range(rng.randint(1, 7))
            adjacency = {a: {b for b in nodes if rng.random() < 0.25} for a in nodes}
            assert has_cycle(adjacency) == any(a in reachable(adjacency, a) for a in adjacency)

    def test_dangling_reference(self):
        out = validate_catalog_graph(["A"], similarity_links=[_sim("A", "GHOST", 0.5)])
        assert "dangling-object" in {v.rule for v in out}

    def test_non_partition_grouping(self):
        grouping = Grouping(parameter="origin",
                            collections={"x": {"A"}, "y": {"A"}})
        out = validate_catalog_graph(
            ["A"], groupings=[grouping],
            attribute_values={"A": {"origin": "x"}},
        )
        assert "grouping-not-partition" in {v.rule for v in out}

    def test_rederived_child_is_advisory(self):
        links = [
            ParenthoodLink(id=new_link_id(), parents=frozenset({"A", "B"}), child="C"),
            ParenthoodLink(id=new_link_id(), parents=frozenset({"A", "D"}), child="C"),
        ]
        out = validate_catalog_graph(["A", "B", "C", "D"], parenthood_links=links)
        advisories = [v for v in out if v.advisory]
        assert {v.rule for v in advisories} == {"re-derived-child"}
        assert all(v.advisory for v in out)


def test_tag_normalizes_at_construction():
    assert Tag(label="  SALES ").label == "sales"


def test_reachable_is_one_or_more_steps():
    adjacency = {"a": {"b"}, "b": {"c", "a2"}, "x": ["y"], "y": ["x"]}
    assert reachable(adjacency, "a") == {"b", "c", "a2"}
    assert reachable(adjacency, "c") == set()
    assert reachable(adjacency, "x") == {"x", "y"}  # the start only on a cycle
    assert reachable(adjacency, "unknown") == set()
