import ast
import copy
import random
from pathlib import Path

import pytest

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


# -- one minimal case per structural rule

def _tree_with(change):
    """The golden tree after `change(h, v1, r1, v2, r2)`, with honest aggregates."""
    h, nodes = golden_tree()
    change(h, *nodes)
    h.refresh_aggregates()
    return validate_hypernode(h)


def _add_edge(h, kind, src, dst):
    e = make_edge(kind, src, dst)
    h.edges[e.id] = e
    return e


def _edge_to(h, node):
    return next(e for e in h.edges.values() if e.to_node == node.id)


def _with_summary(summary):
    h = minimal_hypernode()
    h.summary = summary
    return validate_hypernode(h)


def _with_tag(label):
    h = minimal_hypernode()
    h.tags = {Tag(label=label)}
    return validate_hypernode(h)


def _loop(h, *_nodes):
    """Two versions that derive from each other, beside the tree."""
    a, b = make_node(VERSION), make_node(VERSION)
    h.nodes.update({a.id: a, b.id: b})
    _add_edge(h, UPDATE, a, b)
    _add_edge(h, UPDATE, b, a)


def _swap_kind(node, kind):
    node.kind = kind


def _graph(**kwargs):
    return validate_catalog_graph(["A", "B", "C"], **kwargs)


def _parenthood(parents, child):
    return ParenthoodLink(id=new_link_id(), parents=frozenset(parents), child=child)


# rule, or rule/variant -> (the violations of a minimal case, the rules they name)
RULE_CASES = {
    "unknown-node-kind": (lambda: _tree_with(lambda h, v1, r1, v2, r2: _swap_kind(r2, "blob")),
                          ["edge-kind-matrix", "unknown-node-kind"]),
    "on-demand-view-without-recipe": (
        lambda: _tree_with(lambda h, v1, r1, v2, r2: setattr(r1, "content_locator",
                                                             "on-demand view")),
        ["on-demand-view-without-recipe"]),
    "dangling-endpoint": (
        lambda: _tree_with(lambda h, v1, r1, v2, r2: _add_edge(
            h, TRANSFORMATION, v1, make_node(REPRESENTATION))),
        ["dangling-endpoint"]),
    "unknown-edge-kind": (lambda: _tree_with(lambda h, v1, r1, v2, r2: setattr(
        _add_edge(h, TRANSFORMATION, r1, r2), "kind", "merge")), ["unknown-edge-kind"]),
    "version-derived-from-representation": (
        lambda: _tree_with(lambda h, v1, r1, v2, r2: setattr(_edge_to(h, v2), "from_node", r1.id)),
        ["version-derived-from-representation"]),
    "edge-kind-matrix": (
        lambda: _tree_with(lambda h, v1, r1, v2, r2: setattr(_edge_to(h, r1), "kind", UPDATE)),
        ["edge-kind-matrix"]),
    "edge-missing-attributes": (
        lambda: _tree_with(lambda h, v1, r1, v2, r2: _edge_to(h, r1).attributes.pop("actor")),
        ["edge-missing-attributes"]),
    "multiple-roots": (lambda: _tree_with(lambda h, *_: _loop(h) or h.edges.clear()),
                       ["multiple-roots"]),
    "no-root": (lambda: _tree_with(lambda h, v1, r1, v2, r2: _add_edge(h, UPDATE, v2, v1)),
                ["no-root"]),
    "root-not-version": (lambda: validate_hypernode(Hypernode(
        id=new_object_id(), nodes={(n := make_node(REPRESENTATION)).id: n})),
        ["root-not-version"]),
    "in-degree-exceeded": (lambda: _tree_with(lambda h, v1, r1, v2, r2: _add_edge(
        h, UPDATE, v1, v2)), ["in-degree-exceeded"]),
    "unreachable-nodes": (lambda: _tree_with(_loop), ["unreachable-nodes"]),
    "empty-tree": (lambda: validate_hypernode(Hypernode(id=new_object_id())), ["empty-tree"]),
    "stale-aggregate": (lambda: validate_hypernode(Hypernode(
        id=new_object_id(), nodes=minimal_hypernode().nodes, attributes={"n_versions": 2})),
        ["stale-aggregate"]),
    "malformed-tag": (lambda: _with_tag(" "), ["malformed-tag"]),
    "wordcloud-nonpositive": (lambda: _with_summary(Summary("wordcloud", [("a", 0)])),
                              ["wordcloud-nonpositive"]),
    "wordcloud-unsorted": (lambda: _with_summary(Summary("wordcloud", [("a", 1), ("b", 2)])),
                           ["wordcloud-unsorted"]),
    "schema-duplicate-path": (
        lambda: _with_summary(Summary("schema", [("x", "text", 1), ("x", "int", 2)])),
        ["schema-duplicate-path"]),
    "unknown-summary-kind": (lambda: _with_summary(Summary("histogram", [("a", 1)])),
                             ["unknown-summary-kind"]),
    "self-similarity-link": (lambda: _graph(similarity_links=[_sim("A", "A", 1.0)]),
                             ["self-similarity-link"]),
    "dangling-object/similarity": (lambda: _graph(similarity_links=[_sim("A", "GHOST", 0.5)]),
                                   ["dangling-object"]),
    "dangling-object/parenthood": (
        lambda: _graph(parenthood_links=[_parenthood({"A", "GHOST"}, "C")]), ["dangling-object"]),
    "dangling-object/grouping": (
        lambda: _graph(groupings=[Grouping("tags", {"red": {"A", "GHOST"}})]),
        ["dangling-object"]),
    "value-out-of-range": (lambda: _graph(similarity_links=[_sim("A", "B", -0.1)]),
                           ["value-out-of-range"]),
    "self-parenthood": (lambda: _graph(parenthood_links=[_parenthood({"A", "B"}, "A")]),
                        ["parenthood-cycle", "self-parenthood"]),
    "too-few-parents": (lambda: _graph(parenthood_links=[_parenthood({"A"}, "B")]),
                        ["too-few-parents"]),
    "parenthood-cycle": (lambda: _graph(parenthood_links=[
        _parenthood({"A", "B"}, "C"), _parenthood({"C", "B"}, "A")]), ["parenthood-cycle"]),
    "re-derived-child": (lambda: _graph(parenthood_links=[
        _parenthood({"A", "B"}, "C"), _parenthood({"A", "B"}, "C")]),
        ["re-derived-child (advisory)"]),
    "grouping-not-partition/shared": (
        lambda: _graph(groupings=[Grouping("origin", {"x": {"A"}, "y": {"A"}})],
                       attribute_values={"A": {"origin": "x"}}),
        ["grouping-not-partition"]),
    "grouping-not-partition/missing": (
        lambda: _graph(groupings=[Grouping("origin", {"x": {"A"}})],
                       attribute_values={"A": {"origin": "x"}, "B": {"origin": "y"}}),
        ["grouping-not-partition (advisory)"]),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_each_rule_has_a_minimal_case_that_names_it(case):
    violations, expected = RULE_CASES[case]
    got = sorted(v.rule + (" (advisory)" if v.advisory else "") for v in violations())
    assert got == expected
    assert any(name.startswith(case.split("/")[0]) for name in got)


@pytest.mark.parametrize("script", [None, "extract.py"])
def test_an_edge_needs_a_description_or_a_script(script):
    def change(h, v1, r1, v2, r2):
        attrs = _edge_to(h, r1).attributes
        del attrs["description"]
        if script:
            attrs["script"] = script

    out = _tree_with(change)
    assert [(v.rule, v.message.split()[-1]) for v in out] == (
        [] if script else [("edge-missing-attributes", "description|script")])


def _model_rules() -> set:
    """Every rule string model.py passes to _violation: a literal, or the
    literals assigned to the name it passes."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "lakecat" / "model.py")
                     .read_text(encoding="utf-8"))
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, set()).add(node.value.value)
    rules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_violation":
            first = node.args[0]
            rules |= {first.value} if isinstance(first, ast.Constant) else assigned[first.id]
    return rules


def test_every_rule_of_the_model_has_a_case():
    assert {case.split("/")[0] for case in RULE_CASES} == _model_rules()
