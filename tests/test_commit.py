"""Every change goes through Catalog.commit: it writes the object,
re-indexes it, appends the links and logs the events, and a damaged
index or log, an empty actor or an unknown action fails it before
anything is written."""

import ast
import json
import shutil
from datetime import datetime
from pathlib import Path

import pytest

from conftest import catalog_files, create_object
from lakecat import auditlog, ingest, inter, intra, open_catalog, semantic, store
from lakecat import index as indexmod
from lakecat.auditlog import ACTION_CREATE, ACTION_TAG, ACTION_TRANSFORM, ACTION_UPDATE
from lakecat.cli import run
from lakecat.errors import CorruptCatalog, ValidationFailed
from lakecat.index import rebuild_index
from lakecat.model import Grouping, ParenthoodLink, SimilarityLink, now_utc

SRC = Path(__file__).resolve().parent.parent / "src" / "lakecat"
ACTOR = "tester"


def _ingest(cat, oid, new, actor=ACTOR):
    return ingest.ingest_file(cat, new, origin="t", tags=["blue"], actor=actor)


def _create(cat, oid, new, actor=ACTOR):
    return create_object(cat, str(new), {"title": new.name, "origin": "t",
                                         "ingest_format": "text"}, actor=actor)


def _represent(cat, oid, new, actor=ACTOR):
    spec = intra.TransformationSpec(description="copy as text", actor=actor,
                                    produces_locator=str(new))
    intra.add_representation(cat, oid, cat.get_object(oid).root().id, spec, {"format": "text"})
    return oid


def _update(strategy):
    def update(cat, oid, new, actor=ACTOR):
        spec = intra.UpdateSpec(description="new data", actor=actor,
                                produces_locator=str(new), strategy=strategy)
        intra.add_version(cat, oid, cat.get_object(oid).root().id, spec)
        return oid
    return update


def _tag(cat, oid, new, actor=ACTOR):
    semantic.tag_object(cat, oid, ["green"], actor=actor)
    return oid


def _describe(cat, oid, new, actor=ACTOR):
    semantic.describe_object(cat, oid, "a described object", actor=actor)
    return oid


def _link_all(cat, oid, new, actor=ACTOR):
    inter.link_all(cat, actor=actor)


def _add_parenthood(cat, oid, new, actor=ACTOR):
    others = [o for o in cat.object_ids() if o != oid]
    inter.add_parenthood(cat, others, oid, actor=actor)


def _recorded_search(cat, oid, new, actor=ACTOR):
    indexmod.log_search(cat, "alpha", "any-term", indexmod.search(cat, "alpha"), actor=actor)


# name -> (operation returning the id of the object it changed, its events' actions)
OPERATIONS = {
    "ingest": (_ingest, [ACTION_CREATE, ACTION_TAG]),
    "create_object": (_create, [ACTION_CREATE]),
    "represent": (_represent, [ACTION_TRANSFORM]),
    "update new-version": (_update(intra.NEW_VERSION), [ACTION_UPDATE]),
    "update in-place": (_update(intra.OVERWRITE_IN_PLACE), [ACTION_UPDATE]),
    "tag": (_tag, [ACTION_TAG]),
    "describe": (_describe, [ACTION_TAG]),
}

# the changes that append to the log but write no object; they run on a
# catalog of three objects
LOG_WRITES = {"link_all": _link_all, "add_parenthood": _add_parenthood,
              "recorded search": _recorded_search}


@pytest.fixture
def lake(tmp_path):
    """(catalog path, id of its one object, a text file not yet in it)."""
    (tmp_path / "old.txt").write_text("alpha beta gamma", encoding="utf-8")
    new = tmp_path / "new.txt"
    new.write_text("delta epsilon alpha", encoding="utf-8")
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        oid = ingest.ingest_file(cat, tmp_path / "old.txt", origin="t")
    return path, oid, new


@pytest.fixture
def lake3(lake):
    """lake, with two more objects."""
    path, oid, new = lake
    with open_catalog(path) as cat:
        for text in ("alpha beta", "beta gamma"):
            more = new.with_name(f"{text.replace(' ', '_')}.txt")
            more.write_text(text, encoding="utf-8")
            ingest.ingest_file(cat, more, origin="t")
    return lake


def test_a_new_node_records_its_edge_and_its_event(lake):
    """A representation and a new version each hang below their parent
    behind an edge holding the spec's actor, time, description and any
    script, and log one event naming the node; a new version takes its
    parent's format unless it is given one."""
    path, oid, _new = lake
    with open_catalog(path) as cat:
        root = cat.get_object(oid).root()
        t = intra.TransformationSpec(description="strip", actor=ACTOR, script="sed 1d",
                                     produces_locator="/r1")
        r1 = intra.add_representation(cat, oid, root.id, t, {"format": "csv"})
        r2 = intra.add_representation(cat, oid, r1, intra.TransformationSpec("again", ACTOR))
        u = intra.UpdateSpec(description="new data", actor=ACTOR, produces_locator="/v2")
        v2 = intra.add_version(cat, oid, root.id, u)
        v3 = intra.add_version(cat, oid, v2, u, {"format": "json"})
        h = cat.get_object(oid)
        records = cat.log.records()[-4:]
    nodes = {nid: (n.kind, n.content_locator, n.attributes) for nid, n in h.nodes.items()}
    assert [nodes[nid] for nid in (r1, r2, v2, v3)] == [
        ("representation", "/r1", {"format": "csv"}), ("representation", None, {}),
        ("version", "/v2", {"format": "text"}), ("version", "/v2", {"format": "json"})]
    edges = {e.to_node: e for e in h.edges.values()}
    assert all(isinstance(edges[nid].attributes.pop("at"), datetime) for nid in edges)
    assert [(edges[nid].kind, edges[nid].from_node, edges[nid].attributes)
            for nid in (r1, r2, v2, v3)] == [
        ("transformation", root.id, {"actor": ACTOR, "description": "strip", "script": "sed 1d"}),
        ("transformation", r1, {"actor": ACTOR, "description": "again"}),
        ("update", root.id, {"actor": ACTOR, "description": "new data"}),
        ("update", v2, {"actor": ACTOR, "description": "new data"})]
    assert [(r.actor, r.action, r.target, r.detail) for r in records] == [
        (ACTOR, ACTION_TRANSFORM, oid, {"node": r1, "parent": root.id}),
        (ACTOR, ACTION_TRANSFORM, oid, {"node": r2, "parent": r1}),
        (ACTOR, ACTION_UPDATE, oid, {"node": v2, "strategy": "new-version"}),
        (ACTOR, ACTION_UPDATE, oid, {"node": v3, "strategy": "new-version"})]


@pytest.mark.parametrize("name", list(OPERATIONS))
def test_a_change_writes_the_object_the_index_and_its_events(lake, tmp_path, fsyncs, name):
    path, oid, new = lake
    operation, actions = OPERATIONS[name]
    with open_catalog(path) as cat:
        logged = len(cat.log.records())
        fsyncs.clear()
        changed = operation(cat, oid, new)
        assert fsyncs == {"store": 2, "auditlog": 1}
        added = cat.log.records()[logged:]
    assert [(r.action, r.actor, r.target) for r in added] == [
        (action, ACTOR, changed) for action in actions]
    copy = tmp_path / "copy"
    shutil.copytree(path, copy)
    with open_catalog(copy) as cat:
        rebuild_index(cat)
    terms = Path("index") / "terms.json"
    assert (copy / terms).read_bytes() == (path / terms).read_bytes()


def test_a_change_that_keeps_the_postings_writes_no_index(lake, fsyncs):
    """Tags whose labels are already among the object's terms change the
    object and log the change; the index file is left as it was."""
    path, oid, new = lake
    terms = path / "index" / "terms.json"
    before = terms.read_bytes(), terms.stat().st_mtime_ns
    with open_catalog(path) as cat:
        fsyncs.clear()
        assert {t.label for t in semantic.tag_object(cat, oid, ["old", "Alpha beta"])} == {
            "old", "alpha beta"}
        assert fsyncs == {"store": 1, "auditlog": 1}
        assert [r.action for r in cat.log.records()[-1:]] == [ACTION_TAG]
    assert (terms.read_bytes(), terms.stat().st_mtime_ns) == before


def test_postings_that_cannot_be_saved_fail_a_change_before_any_write(lake):
    """The object's postings and the index text are derived before the
    object is written: a node id that is not a string, set on a hypernode
    in memory, fails the commit with every file unchanged."""
    path, oid, new = lake
    before = catalog_files(path)
    with open_catalog(path) as cat:
        h = cat.get_object(oid)
        h.root().id = 7
        with pytest.raises(TypeError, match="pairs of strings"):
            cat.commit(ACTOR, [(ACTION_TAG, oid, {})], h)
        assert indexmod.search(cat, "alpha") == [(oid, 1)]
    assert catalog_files(path) == before


@pytest.mark.parametrize("record", ["object", "similarity", "parenthood", "grouping", "log"])
def test_a_mistyped_record_fails_its_write_before_any_write(lake3, record):
    """A record that a read of its file would refuse is not written: an
    object, a link, a grouping or an event built in memory with a value
    of the wrong type raises TypeError, and every file stays as it was."""
    path, oid, new = lake3
    before = catalog_files(path)
    with open_catalog(path) as cat:
        a, b, c = cat.object_ids()
        h, mistyped = cat.get_object(oid), cat.get_object(oid)
        mistyped.description = 5
        h.description = "written first, unless the link is checked first"
        write = {
            "object": lambda: cat.commit(ACTOR, [(ACTION_TAG, oid, {})], mistyped),
            "similarity": lambda: cat.commit(ACTOR, [(ACTION_TAG, oid, {})], h, links=[
                SimilarityLink("lnk_1", (a, b), "token-jaccard", "0.5", now_utc(),
                               ("n1", "n2"))]),
            "parenthood": lambda: cat.commit(ACTOR, [], links=[
                ParenthoodLink("lnk_2", frozenset({7, 8}), c)]),
            "grouping": lambda: cat.save_grouping(Grouping("origin", {"t": {7}})),
            "log": lambda: cat.commit(ACTOR, [(ACTION_TAG, 5, {})], h),
        }[record]
        with pytest.raises(TypeError, match="is not a"):
            write()
    assert catalog_files(path) == before


def _fail_writes_to(monkeypatch, target):
    """Make the store's writes of the file at `target` raise OSError."""
    real_write = store.atomic_write_text

    def failing(path, text):
        if Path(path) == Path(target):
            raise OSError("disk gone")
        real_write(path, text)

    monkeypatch.setattr(store, "atomic_write_text", failing)


def test_a_failed_index_write_drops_the_loaded_index(lake, monkeypatch):
    """The object is written first; when the index write then fails, the
    handle forgets its index and reads the file again at next use."""
    path, oid, new = lake
    terms = path / "index" / "terms.json"
    before = terms.read_bytes()
    with open_catalog(path) as cat:
        loaded = cat.index
        _fail_writes_to(monkeypatch, terms)
        with pytest.raises(OSError, match="disk gone"):
            semantic.tag_object(cat, oid, ["violet"])
        assert cat.index is not loaded and "violet" not in cat.index.to_dict()
    assert terms.read_bytes() == before


@pytest.mark.parametrize("point", ["invalid object", "object write", "index write"])
def test_a_commit_that_fails_after_the_index_changed_drops_it(lake, tmp_path, monkeypatch,
                                                              point):
    """A commit changes the object's postings in the loaded index before
    it writes; a failure after that, up to the end of the index write,
    drops the loaded index, so the handle reads the file again. The index
    file and the log stay as they were, and so does every file but at the
    index write, where the object file has already changed. A later change
    on the same handle saves the index a rebuild saves."""
    path, oid, new = lake
    terms = path / "index" / "terms.json"
    before = catalog_files(path)
    with open_catalog(path) as cat:
        loaded = cat.index
        h = cat.get_object(oid)
        semantic.merge_tags(h, ["violet"], "manual")
        if point == "invalid object":
            h.root().kind = "bogus"
        else:
            _fail_writes_to(monkeypatch, cat._object_path(oid) if point == "object write"
                            else terms)
        with pytest.raises(ValidationFailed if point == "invalid object" else OSError):
            cat.commit(ACTOR, [(ACTION_TAG, oid, {})], h)
        monkeypatch.undo()
        assert cat.index is not loaded
        assert cat.index.to_dict() == json.loads(terms.read_text(encoding="utf-8"))
        after = catalog_files(path)
        assert after[terms] == before[terms] and after[path / "log.jsonl"] == before[
            path / "log.jsonl"]
        if point != "index write":
            assert after == before
        semantic.tag_object(cat, oid, ["indigo"])
    copy = tmp_path / "copy"
    shutil.copytree(path, copy)
    with open_catalog(copy) as cat:
        rebuild_index(cat)
    assert (copy / "index" / "terms.json").read_bytes() == terms.read_bytes()


def test_a_failed_rebuild_write_keeps_the_loaded_index(lake, monkeypatch):
    """rebuild_index installs the new index only once its file is written."""
    path, oid, new = lake
    terms = path / "index" / "terms.json"
    with open_catalog(path) as cat:
        h = cat.get_object(oid)
        h.attributes["title"] = "renamed"
        cat.put_object(h)  # not indexed, so that the rebuilt index differs from the file
        loaded = cat.index
        _fail_writes_to(monkeypatch, terms)
        with pytest.raises(OSError, match="disk gone"):
            rebuild_index(cat)
        assert cat.index is loaded
        assert cat.index.to_dict() == json.loads(terms.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(OPERATIONS))
@pytest.mark.parametrize("damage", ["index-not-object", "torn-log-line"])
def test_a_damaged_index_or_log_fails_a_change_before_any_write(lake, name, damage):
    path, oid, new = lake
    if damage == "index-not-object":
        (path / "index" / "terms.json").write_text("[]", encoding="utf-8")
    else:
        with open(path / "log.jsonl", "a", encoding="utf-8") as f:
            f.write('{"seq": 9, "at')
    before = catalog_files(path)
    with open_catalog(path) as cat:
        with pytest.raises(CorruptCatalog):
            OPERATIONS[name][0](cat, oid, new)
    assert catalog_files(path) == before


@pytest.mark.parametrize("name", list(OPERATIONS) + list(LOG_WRITES))
@pytest.mark.parametrize("fault", ["empty-actor", "unknown-action"])
def test_an_empty_actor_or_unknown_action_fails_a_change_before_any_write(
        lake3, monkeypatch, name, fault):
    path, oid, new = lake3
    operation = OPERATIONS[name][0] if name in OPERATIONS else LOG_WRITES[name]
    before = catalog_files(path)
    with open_catalog(path) as cat:
        if fault == "empty-actor":
            with pytest.raises(ValueError, match="actor must be non-empty"):
                operation(cat, oid, new, actor="")
        else:
            monkeypatch.setattr(auditlog, "ACTIONS", ())
            with pytest.raises(ValueError, match="unknown action"):
                operation(cat, oid, new)
    assert catalog_files(path) == before


def test_cli_with_an_empty_actor_exits_2_and_writes_nothing(lake):
    path, oid, new = lake
    before = catalog_files(path)
    assert run(["--catalog", str(path), "--actor", "", "tag", oid, "x"]) == 2
    assert catalog_files(path) == before


def test_only_commit_object_writes_and_indexes_an_object():
    """put_object and index_hypernode are called from Catalog.commit
    alone; append_records only from Catalog.commit, EventLog.write and
    import_catalog. The index changes one way: replace_object, called only
    from index_hypernode and rebuild_index; InvertedIndex has no add,
    stage or apply. No module imports inside a function or imports
    contextmanager. There is one record codec: only codec.py reads
    field annotations, and no record has its own to_dict or from_dict
    but the inverted index, a term map."""
    calls, local_imports, context_managers, index_methods = [], [], [], set()
    annotation_readers, dict_codecs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> the innermost function around it
        for fn in ast.walk(tree):  # breadth first: an inner function comes later
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee in ("put_object", "index_hypernode", "append_records",
                              "replace_object"):
                    calls.append((path.name, owner.get(node), callee))
                elif callee in ("get_type_hints", "fields"):
                    annotation_readers.add(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("to_dict", "from_dict"):
                    dict_codecs.add(path.name)
            elif isinstance(node, ast.ClassDef) and node.name == "InvertedIndex":
                index_methods = {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if node in owner:
                    local_imports.append((path.name, owner[node]))
                if any(alias.name == "contextmanager" for alias in node.names):
                    context_managers.append(path.name)
    assert sorted(calls) == [("auditlog.py", "write", "append_records"),
                             ("index.py", "index_hypernode", "replace_object"),
                             ("index.py", "rebuild_index", "replace_object"),
                             ("store.py", "commit", "append_records"),
                             ("store.py", "commit", "index_hypernode"),
                             ("store.py", "commit", "put_object"),
                             ("store.py", "import_catalog", "append_records"),
                             ("store.py", "import_catalog", "append_records")]
    assert local_imports == []
    assert context_managers == []
    assert annotation_readers == {"codec.py"}
    assert dict_codecs == {"index.py"}
    assert "replace_object" in index_methods
    assert not index_methods & {"add", "stage", "apply"}
