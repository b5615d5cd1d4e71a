"""Golden on-disk format: the exact bytes lakecat writes for a hypernode,
one link record of each type, a grouping and the inverted index, and the
decoding of a hypernode file written before its optional keys existed. A change to
any of these bytes changes what older catalogs and exports contain."""

import copy
import json
import tempfile
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from lakecat import index, open_catalog
from lakecat.auditlog import EventLog, EventRecord
from lakecat.model import (
    REPRESENTATION,
    TRANSFORMATION,
    VERSION,
    Grouping,
    Hypernode,
    MetaEdge,
    MetaNode,
    ParenthoodLink,
    SimilarityLink,
    Summary,
    Tag,
)

T0 = datetime(2024, 5, 6, 7, 8, 9, 123456, tzinfo=timezone.utc)
T1 = datetime(2024, 5, 6, 9, 30, tzinfo=timezone(timedelta(hours=2)))


def golden_hypernode() -> Hypernode:
    root = MetaNode(id="nod_a", kind=VERSION,
                    attributes={"size_bytes": 12, "loaded_at": T0, "note": "café"},
                    content_locator="/lake/sales.csv", created_at=T0)
    rep = MetaNode(id="nod_b", kind=REPRESENTATION, attributes={"format": "json"},
                   created_at=T1)
    edge = MetaEdge(id="edg_a", kind=TRANSFORMATION, from_node="nod_a", to_node="nod_b",
                    attributes={"actor": "tester", "at": T1, "description": "to json"})
    h = Hypernode(
        id="obj_golden",
        nodes={"nod_b": rep, "nod_a": root},
        edges={"edg_a": edge},
        attributes={"title": "Sales", "origin": "internal source",
                    "ingest_format": "csv", "checked_at": T1},
        tags={Tag("Sales"), Tag("sales", "derived"), Tag("north", "derived")},
        description="regional sales",
        description_history=["sales", "regional sales"],
        summary=Summary(kind="schema", payload=[("amount", "int", 3), ("region", "str", 3)],
                        row_count=3),
    )
    h.refresh_aggregates()
    return h


GOLDEN_OBJECT = (
    '{"attributes":{"checked_at":{"__ts__":"2024-05-06T09:30:00+02:00"},'
    '"ingest_format":"csv","n_representations":1,"n_versions":1,"origin":"internal source",'
    '"title":"Sales","total_size_bytes":12},'
    '"description":"regional sales","description_history":["sales","regional sales"],'
    '"edges":[{"attributes":{"actor":"tester","at":{"__ts__":"2024-05-06T09:30:00+02:00"},'
    '"description":"to json"},"from":"nod_a","id":"edg_a","kind":"transformation",'
    '"to":"nod_b"}],'
    '"id":"obj_golden",'
    '"nodes":[{"attributes":{"loaded_at":{"__ts__":"2024-05-06T07:08:09.123456+00:00"},'
    '"note":"café","size_bytes":12},"content_locator":"/lake/sales.csv",'
    '"created_at":"2024-05-06T07:08:09.123456+00:00","id":"nod_a","kind":"version"},'
    '{"attributes":{"format":"json"},"content_locator":null,'
    '"created_at":"2024-05-06T09:30:00+02:00","id":"nod_b","kind":"representation"}],'
    '"summary":{"kind":"schema","payload":[["amount","int",3],["region","str",3]],'
    '"row_count":3},'
    '"tags":[["north","derived"],["sales","derived"],["sales","manual"]]}'
)

GOLDEN_LINKS = (
    '{"compared_nodes": ["nod_a1", "nod_b1"], "computed_at": "2024-05-06T07:08:09.123456+00:00", '
    '"endpoints": ["obj_a", "obj_b"], "id": "lnk_s", "metric": "token-jaccard", '
    '"type": "similarity", "value": 0.25}\n'
    '{"attributes": {"at": {"__ts__": "2024-05-06T09:30:00+02:00"}, "description": "joined"}, '
    '"child": "obj_c", "id": "lnk_p", "parents": ["obj_a", "obj_b"], "type": "parenthood"}\n'
)

# terms that differ only in case sort by code point; a non-ASCII term is
# written as is; quotes, backslashes and control characters are escaped
GOLDEN_INDEX = (
    r'{"Data":[["obj_a","nod_a0"]],"café":[["obj_b","nod_b0"]],'
    r'"data":[["obj_a","nod_a0"],["obj_a","nod_a1"],["obj_b","nod_b1"]],'
    r'"q\"b\\s\u0001":[["obj_\"q\\\u001f","nod_\n"]]}'
)

# keys sorted, non-ASCII written as is, a detail stored as it is
GOLDEN_LOG = (
    '{"action": "Create", "actor": "tester", "at": "2024-05-06T07:08:09.123456+00:00", '
    '"detail": {"columns": ["amount", "région"], "score": 0.25}, "seq": 1, '
    '"target": "obj_café"}\n'
    '{"action": "Search", "actor": "bob", "at": "2024-05-06T09:30:00+02:00", "detail": {}, '
    '"seq": 2, "target": "sales north"}\n'
)

GOLDEN_GROUPING = (
    '{"collections":{"internal source":["obj_a","obj_b"],"web":["obj_c"]},'
    '"computed_at":"2024-05-06T09:30:00+02:00","parameter":"origin"}'
)


def test_hypernode_file_bytes(catalog):
    h = golden_hypernode()
    catalog.put_object(h)
    assert (catalog.objects_dir / "obj_golden.json").read_text(encoding="utf-8") == GOLDEN_OBJECT
    assert catalog.get_object(h.id) == h


def test_link_record_bytes(catalog):
    similarity = SimilarityLink(
        id="lnk_s", endpoints=("obj_b", "obj_a"), metric_name="token-jaccard", value=0.25,
        computed_at=T0, compared_nodes=("nod_b1", "nod_a1"))
    parenthood = ParenthoodLink(
        id="lnk_p", parents=frozenset({"obj_b", "obj_a"}), child="obj_c",
        attributes={"description": "joined", "at": T1})
    catalog.add_similarity_link(similarity)
    catalog.commit("system", [], links=[parenthood])
    assert catalog.links_path.read_text(encoding="utf-8") == GOLDEN_LINKS
    catalog.close()
    with open_catalog(catalog.root) as reopened:
        assert reopened.similarity_links() == [similarity]
        assert reopened.parenthood_links() == [parenthood]


def test_grouping_file_bytes(catalog):
    g = Grouping(parameter="origin", computed_at=T1,
                 collections={"internal source": {"obj_b", "obj_a"}, "web": {"obj_c"}})
    catalog.save_grouping(g)
    assert (catalog.groupings_dir / "origin.json").read_text(encoding="utf-8") == GOLDEN_GROUPING
    assert catalog.groupings() == [g]


def test_log_record_bytes(catalog):
    """The log's lines are golden too: they are in every older catalog."""
    records = [
        EventRecord(seq=1, at=T0, actor="tester", action="Create", target="obj_café",
                    detail={"columns": ["amount", "région"], "score": 0.25}),
        EventRecord(seq=2, at=T1, actor="bob", action="Search", target="sales north"),
    ]
    catalog.log.write(records)
    assert catalog.log_path.read_text(encoding="utf-8") == GOLDEN_LOG
    assert catalog.log.records() == records
    assert EventLog(catalog.log_path).records() == records


def test_null_or_missing_log_detail_reads_as_empty(tmp_path):
    path = tmp_path / "log.jsonl"
    record = {"action": "Search", "actor": "bob", "at": T1.isoformat(), "target": "q"}
    path.write_text(json.dumps({**record, "seq": 1, "detail": None}) + "\n"
                    + json.dumps({**record, "seq": 2}) + "\n", encoding="utf-8")
    assert [(r.seq, r.detail) for r in EventLog(path).records()] == [(1, {}), (2, {})]


def test_index_file_bytes(catalog):
    added = [("data", "obj_b", "nod_b1"), ("café", "obj_b", "nod_b0"),
             ("data", "obj_a", "nod_a1"), ("Data", "obj_a", "nod_a0"),
             ("data", "obj_a", "nod_a0"), ('q"b\\s\x01', 'obj_"q\\\x1f', "nod_\n")]
    for obj in dict.fromkeys(obj for _term, obj, _node in added):
        catalog.index.replace_object(obj, {(t, n) for t, o, n in added if o == obj})
    catalog.save_index(catalog.index.to_json())
    assert catalog.index_path.read_text(encoding="utf-8") == GOLDEN_INDEX
    postings = catalog.index.postings
    catalog.close()
    with open_catalog(catalog.root) as reopened:
        assert reopened.index.postings == postings
        assert reopened.export()["index"] == json.loads(GOLDEN_INDEX)


OBJECTS = ["obj_a", "obj_b", "obj_c"]
WORDS = ["alpha", "beta", "gamma"]
# any text a JSON string can hold, so quoting and escaping are exercised;
# lone surrogates cannot be written as UTF-8
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
INDEX_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(WORDS) | ANY_TEXT,
              st.sampled_from(OBJECTS) | ANY_TEXT, st.sampled_from(["nod_1", "nod_2"]) | ANY_TEXT),
    st.tuples(st.just("remove"), st.sampled_from(OBJECTS)),
    st.tuples(st.just("reindex"), st.sampled_from(OBJECTS),
              st.lists(st.sampled_from(WORDS + ["Beta"]), max_size=3)),
    st.tuples(st.just("save")),
), max_size=25)


def titled(oid: str, words: list) -> Hypernode:
    """A one-node hypernode whose only terms are its title's; the root's
    id is fixed, so re-indexing keeps the postings that did not change."""
    root = MetaNode(id=f"nod_{oid}", kind=VERSION, created_at=T0)
    return Hypernode(id=oid, nodes={root.id: root}, attributes={"title": " ".join(words)})


@settings(max_examples=60, deadline=None)
@given(INDEX_STEPS)
def test_index_file_is_the_dumps_of_to_dict(steps):
    """Whatever was added, removed and re-indexed since the last save,
    the index holds the postings of a plain model, the saved text is
    json.dumps of to_dict(), and a fresh load of it saves the same text."""
    model = set()  # (term, object, node)
    with tempfile.TemporaryDirectory() as tmp, \
            open_catalog(f"{tmp}/cat", create_if_missing=True) as cat:
        for step in steps + [("save",)]:
            if step[0] == "add":
                model.add(step[1:])
                cat.index.replace_object(step[2], {(t, n) for t, o, n in model if o == step[2]})
            elif step[0] in ("remove", "reindex"):
                oid = step[1]
                model = {p for p in model if p[1] != oid}
                if step[0] == "remove":
                    cat.index.replace_object(oid, ())
                else:
                    text = index.index_hypernode(cat, titled(oid, step[2]))
                    cat.save_index(cat.index.to_json() if text is None else text)
                    model |= {(w.lower(), oid, f"nod_{oid}") for w in step[2]}
            else:
                cat.save_index(cat.index.to_json())
            if step[0] in ("reindex", "save"):  # the two that write the file
                text = cat.index_path.read_text(encoding="utf-8")
                want = {}
                for term, oid, node in sorted(model):
                    want.setdefault(term, []).append([oid, node])
                assert cat.index.postings == want
                assert text == json.dumps(cat.index.to_dict(), sort_keys=True,
                                          ensure_ascii=False, separators=(",", ":"))
                assert index.InvertedIndex.from_dict(json.loads(text)).to_json() == text


def test_file_without_optional_keys_decodes(catalog):
    """A hypernode file written before tags, descriptions, summaries,
    content locators and row counts existed."""
    full = json.loads(GOLDEN_OBJECT)
    for key in ("tags", "description", "description_history"):
        del full[key]
    for node in full["nodes"]:
        del node["content_locator"]
    without_summary = copy.deepcopy(full)
    del without_summary["summary"]
    del full["summary"]["row_count"]

    expected = golden_hypernode()
    expected.tags = set()
    expected.description = None
    expected.description_history = []
    for node in expected.nodes.values():
        node.content_locator = None
    for oid, doc, summary in (
        ("obj_old1", full, Summary(kind="schema", payload=expected.summary.payload)),
        ("obj_old2", without_summary, None),
    ):
        doc["id"] = expected.id = oid
        expected.summary = summary
        (catalog.objects_dir / f"{oid}.json").write_text(json.dumps(doc), encoding="utf-8")
        assert catalog.get_object(oid) == expected
