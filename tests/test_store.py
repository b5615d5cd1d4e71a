import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (create_object, grow_persistence_catalog, make_edge, make_node,
                      minimal_hypernode, random_valid_hypernode)
from lakecat import auditlog, import_catalog, intra, inter, open_catalog, semantic
from lakecat import index as indexmod
from lakecat.ingest import ingest_file
from lakecat.errors import CorruptCatalog, LockHeld, NotFound, StorageFull, ValidationFailed
from lakecat.model import (REPRESENTATION, TRANSFORMATION, Grouping, Hypernode, ParenthoodLink,
                           SimilarityLink, Summary, Tag, new_link_id, now_utc)
from lakecat import store as storemod

import random


def test_open_empty_creates_catalog(tmp_path):
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        assert cat.list_objects() == []
        assert cat.export()["manifest"] == {"object_count": 0}


def test_open_missing_without_create(tmp_path):
    with pytest.raises(NotFound):
        open_catalog(tmp_path / "missing")


def test_round_trip_equality(catalog):
    rng = random.Random(3)
    for _ in range(20):
        h = random_valid_hypernode(rng)
        catalog.put_object(h)
        back = catalog.get_object(h.id)
        assert storemod.encode(back) == storemod.encode(h)


def test_put_invalid_raises_with_violations(catalog):
    h = minimal_hypernode()
    h.root().kind = REPRESENTATION
    with pytest.raises(ValidationFailed) as exc:
        catalog.put_object(h)
    assert any(v.rule == "root-not-version" for v in exc.value.violations)
    assert not catalog.has_object(h.id)


def test_get_unknown_raises(catalog):
    with pytest.raises(NotFound):
        catalog.get_object("obj_nope")


@pytest.mark.parametrize("suffix", ["\x00", ".json/b", "/b"])
def test_get_id_no_file_can_have_is_not_found(catalog, suffix):
    """An id with a NUL, or one naming a path below a stored object's
    file, is not found, like any other id without a file."""
    oid = catalog.put_object(minimal_hypernode())
    with pytest.raises(NotFound):
        catalog.get_object(oid + suffix)


def test_bulk_store_and_manifest_count(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "bulk"
    with open_catalog(path, create_if_missing=True) as cat:
        ids = []
        for _ in range(1000):
            h = random_valid_hypernode(rng, max_extra_nodes=0)
            ids.append(cat.put_object(h))
        assert len(cat.object_ids()) == 1000
    with open_catalog(path) as cat:
        assert cat.export()["manifest"] == {"object_count": 1000}
        assert cat.object_ids() == sorted(ids)
        for oid in ids[::97]:
            assert cat.get_object(oid).id == oid


def test_reopen_preserves_tree(tmp_path):
    path = tmp_path / "cat"
    rng = random.Random(9)
    with open_catalog(path, create_if_missing=True) as cat:
        h = random_valid_hypernode(rng)
        cat.put_object(h)
        before = storemod.encode(cat.get_object(h.id))
    with open_catalog(path) as cat:
        after = storemod.encode(cat.get_object(h.id))
    assert before == after


def test_list_objects_in_id_order(catalog):
    attributes = {}
    for origin in ("internal source", "internal source", "external source"):
        h = minimal_hypernode()
        h.attributes.update({"title": "t", "origin": origin, "ingest_format": "xml"})
        attributes[catalog.put_object(h)] = h.attributes
    assert catalog.list_objects() == sorted(attributes.items())


def test_second_open_same_process_lockheld(tmp_path):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True):
        with pytest.raises(LockHeld):
            open_catalog(path)
    # released on close
    open_catalog(path).close()


def test_second_open_other_process_lockheld(tmp_path):
    path = tmp_path / "cat"
    script = (
        "import sys\n"
        "from lakecat import open_catalog\n"
        "from lakecat.errors import LockHeld\n"
        "try:\n"
        f"    open_catalog({str(path)!r})\n"
        "except LockHeld:\n"
        "    sys.exit(42)\n"
        "sys.exit(0)\n"
    )
    with open_catalog(path, create_if_missing=True):
        proc = subprocess.run([sys.executable, "-c", script])
        assert proc.returncode == 42


def test_stale_lock_is_taken_over(tmp_path):
    path = tmp_path / "cat"
    open_catalog(path, create_if_missing=True).close()
    (path / "catalog.lock").write_text(json.dumps({"pid": 2**22 + 12345, "at": 0}))
    open_catalog(path).close()


def test_crash_during_object_write_is_invisible(catalog, monkeypatch):
    h = minimal_hypernode()

    real_replace = os.replace

    def boom(src, dst):
        if "objects" in str(dst):
            raise RuntimeError("injected crash before rename")
        return real_replace(src, dst)

    monkeypatch.setattr(storemod.os, "replace", boom)
    with pytest.raises(RuntimeError):
        catalog.put_object(h)
    monkeypatch.undo()
    assert not catalog.has_object(h.id)
    assert catalog.list_objects() == []
    # no stray temp files visible as objects
    assert list(catalog.objects_dir.glob("*.json")) == []


def test_corrupt_manifest_detected(tmp_path):
    path = tmp_path / "cat"
    open_catalog(path, create_if_missing=True).close()
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["object_count"] = 999  # checksum now wrong
    (path / "manifest.json").write_text(json.dumps(manifest))
    from lakecat.errors import CorruptCatalog

    with pytest.raises(CorruptCatalog):
        open_catalog(path)


def test_export_import_round_trip(tmp_path):
    rng = random.Random(17)
    src_path = tmp_path / "src"
    with open_catalog(src_path, create_if_missing=True) as cat:
        for _ in range(5):
            cat.put_object(random_valid_hypernode(rng))
        cat.commit("tester", [("Create", "obj_x", None)])
        doc = cat.export()
    with import_catalog(tmp_path / "dst", doc) as copy_cat:
        assert copy_cat.export() == doc
        assert copy_cat.validate() == [] or all(v.advisory for v in copy_cat.validate())


def test_validate_lists_similarity_violations_in_key_order(tmp_path):
    """Links stored out of key order (each naming a missing object) are
    reported in key order, as by the catalog's export/import copy, whose
    links are written in key order."""
    with open_catalog(tmp_path / "src", create_if_missing=True) as cat:
        for a, b in (("obj_c", "obj_d"), ("obj_a", "obj_b"), ("obj_b", "obj_c")):
            cat.add_similarity_link(SimilarityLink(new_link_id(), (a, b), "token-jaccard",
                                                   0.5, now_utc(), ("n1", "n2")))
        found = [(v.rule, v.ids) for v in cat.validate()]
        doc = cat.export()
    assert [ids[1] for _rule, ids in found] == ["obj_a", "obj_b", "obj_b", "obj_c",
                                                "obj_c", "obj_d"]
    with import_catalog(tmp_path / "dst", doc) as copy_cat:
        assert [(v.rule, v.ids) for v in copy_cat.validate()] == found


def test_indented_catalog_files_still_load(tmp_path, make_text_file):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        for text in ("red green lake", "green blue", "lake notes"):
            ingest_file(cat, make_text_file(text), origin="t", tags=["x"])
        expected = (indexmod.search(cat, "green lake"), cat.export())
    # rewrite the object, index and manifest files as the indented encoder did
    for f in [path / "manifest.json", path / "index" / "terms.json",
              *(path / "objects").glob("*.json")]:
        doc = json.loads(f.read_text(encoding="utf-8"))
        f.write_text(json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1),
                     encoding="utf-8")
    with open_catalog(path) as cat:
        assert (indexmod.search(cat, "green lake"), cat.export()) == expected


def _two_objects(catalog, tmp_path):
    ids = []
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue")):
        (tmp_path / name).write_text(text)
        ids.append(ingest_file(catalog, tmp_path / name, origin="test"))
    return ids


def test_an_exception_inside_link_all_writes_nothing(catalog, make_text_file, monkeypatch):
    for text in ("red green", "green blue", "blue red"):
        ingest_file(catalog, make_text_file(text), origin="t")

    def jsonl_files():
        return [path.read_bytes() if path.exists() else None
                for path in (catalog.links_path, catalog.log_path)]

    before = jsonl_files()
    real_new_link_id = inter.new_link_id
    calls = []

    def third_call_fails():
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("fails on the third link")
        return real_new_link_id()

    monkeypatch.setattr(inter, "new_link_id", third_call_fails)
    with pytest.raises(RuntimeError):
        inter.link_all(catalog)
    monkeypatch.undo()
    assert jsonl_files() == before
    doc = catalog.export()
    catalog.close()
    with open_catalog(catalog.root) as cat:
        assert cat.export() == doc


def test_batch_writes_on_exit_links_before_log(catalog, make_text_file, monkeypatch, fsyncs):
    """link_all, compute_similarity and add_parenthood each append to
    links.jsonl once and then to log.jsonl once, one fsync each."""
    a, b, c = (ingest_file(catalog, make_text_file(t), origin="t")
               for t in ("red green", "green blue", "blue red"))
    written = []
    real_append = auditlog.append_records

    def spy(path, records):
        written.append((os.path.basename(path), len(records)))
        real_append(path, records)

    monkeypatch.setattr(auditlog, "append_records", spy)
    for write, links in ((lambda: inter.link_all(catalog), 3),
                         (lambda: inter.compute_similarity(catalog, a, b), 1),
                         (lambda: inter.add_parenthood(catalog, [a, b], c), 1)):
        written.clear()
        fsyncs.clear()
        write()
        assert written == [("links.jsonl", links), ("log.jsonl", links)]
        assert fsyncs == {"auditlog": 2}


def test_failed_link_write_logs_nothing(catalog, tmp_path, monkeypatch):
    a, b = _two_objects(catalog, tmp_path)
    log_before = catalog.log_path.read_bytes()
    real_append = auditlog.append_records

    def full_disk(path, records):
        if os.path.basename(path) == "links.jsonl":
            raise StorageFull("no space left")
        real_append(path, records)

    monkeypatch.setattr(auditlog, "append_records", full_disk)
    with pytest.raises(StorageFull):
        inter.link_all(catalog)
    monkeypatch.undo()
    assert catalog.log_path.read_bytes() == log_before
    catalog.commit("tester", [("Search", "green", None)])
    assert catalog.log.records()[-1].seq == len(log_before.splitlines()) + 1


def test_lock_released_when_holder_is_killed(tmp_path):
    path = tmp_path / "cat"
    open_catalog(path, create_if_missing=True).close()
    script = (
        "import sys, time\n"
        "from lakecat import open_catalog\n"
        f"cat = open_catalog({str(path)!r})\n"
        "print('locked', flush=True)\n"
        "time.sleep(60)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "locked"
        with pytest.raises(LockHeld, match=f"pid {child.pid}$"):
            open_catalog(path)
    finally:
        child.kill()  # SIGKILL: the child gets no chance to close its handle
        child.wait(timeout=30)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    open_catalog(path).close()


@pytest.mark.parametrize("oid", ["../manifest", "..", ".", "sub/obj"])
def test_an_id_that_is_not_a_file_name_is_not_found(catalog, oid):
    (catalog.objects_dir / "sub").mkdir()
    (catalog.objects_dir / "sub" / "obj.json").write_text("{}")
    with pytest.raises(NotFound):
        catalog.get_object(oid)
    assert not catalog.has_object(oid)


@pytest.mark.parametrize("field", ["object", "resource"])
def test_import_rejects_a_name_outside_the_catalog(tmp_path, field):
    with open_catalog(tmp_path / "src", create_if_missing=True) as cat:
        cat.put_object(minimal_hypernode())
        doc = cat.export()
    if field == "object":
        doc["objects"][0]["id"] = "../../escaped"
    else:
        doc["resources"]["../../res_escaped"] = "car,auto\n"
    target = tmp_path / "a" / "b" / "dst"
    with pytest.raises(CorruptCatalog, match="outside the catalog"):
        import_catalog(target, doc)
    assert not (tmp_path / "a").exists()


MISSING = object()  # the key is deleted from the record


@pytest.mark.parametrize("kind, key, value", [
    ("objects", "tags", "oops"), ("objects", "id", None), ("objects", "id", MISSING),
    ("objects", "summary", {"kind": "wordcloud", "payload": [["alpha"]]}),
    ("similarity", "value", "0.5"),
    ("similarity", "type", "friendship"), ("parenthood", "parents", [-1, "obj_b"]),
    ("groupings", "parameter", True), ("log", "target", []), ("log", "seq", 0)])
def test_import_rejects_a_mistyped_record_before_it_creates_the_target(tmp_path, kind, key,
                                                                       value):
    """Import checks every record of the document, as a read of its file
    would, before it makes the target: a record of the wrong type is
    named, and no target directory is left."""
    with open_catalog(tmp_path / "src", create_if_missing=True) as cat:
        h = minimal_hypernode()
        cat.put_object(h)
        cat.commit("tester", [("Tag", h.id, {})], links=[
            SimilarityLink(new_link_id(), (h.id, "obj_b"), "token-jaccard", 0.5, now_utc(),
                           ("n1", "n2")),
            ParenthoodLink(new_link_id(), frozenset({h.id, "obj_b"}), "obj_c")])
        cat.save_grouping(Grouping(parameter="origin", collections={"t": {h.id}}))
        doc = cat.export()
    import_catalog(tmp_path / "copy", doc).close()
    if value is MISSING:
        del doc[kind][0][key]
    else:
        doc[kind][0][key] = value
    target = tmp_path / "dst"
    with pytest.raises(CorruptCatalog, match=f"^export {kind} record 0: "):
        import_catalog(target, doc)
    assert not target.exists()


@pytest.mark.parametrize("key, value, message", [
    ("index", [], "^export index: "), ("index", {"alpha": ["ab"]}, "^export index: "),
    ("resources", {"words": "oops\n"}, "^export resource 'words': "),
    ("resources", [], "^export resources: "), ("log", None, "^export log: "),
    ("objects", {}, "^export objects: "), (None, [], "^export: ")])
def test_import_rejects_an_index_or_thesaurus_before_it_creates_the_target(
        tmp_path, key, value, message):
    """An index or a thesaurus text that a read of its file would refuse,
    a record list that is not a list, a map that is not a dict, or a
    document (key None) that is not a dict is named, and no target
    directory is left."""
    with open_catalog(tmp_path / "src", create_if_missing=True) as cat:
        cat.put_object(minimal_hypernode())
        doc = cat.export()
    if key is None:
        doc = value
    else:
        doc[key] = value
    target = tmp_path / "dst"
    with pytest.raises(CorruptCatalog, match=message):
        import_catalog(target, doc)
    assert not target.exists()


def test_lockheld_names_the_holder_pid(tmp_path):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True):
        with pytest.raises(LockHeld, match=f"locked by pid {os.getpid()}$"):
            open_catalog(path)


def test_put_new_object_makes_one_fsync(catalog, fsyncs):
    catalog.put_object(minimal_hypernode())
    assert fsyncs == {"store": 1}
    assert len(catalog.object_ids()) == 1


def test_reopen_makes_no_fsync_and_no_replace(tmp_path, make_text_file, fsyncs, monkeypatch):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        a = ingest_file(cat, make_text_file("red green"), origin="t")
        b = ingest_file(cat, make_text_file("green blue"), origin="t")
        inter.compute_similarity(cat, a, b)
    replaces = []
    monkeypatch.setattr(storemod.os, "replace", lambda *args: replaces.append(args))
    fsyncs.clear()
    with open_catalog(path) as cat:
        assert cat.export()["manifest"] == {"object_count": 2}
    assert fsyncs == {} and replaces == []


def test_manifest_is_not_rewritten_by_ingests_or_reopen(tmp_path, make_text_file):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        before = (path / "manifest.json").read_bytes()
        for text in ("red green", "green blue", "blue lake"):
            ingest_file(cat, make_text_file(text), origin="t")
    with open_catalog(path) as cat:
        assert len(cat.object_ids()) == 3
    assert (path / "manifest.json").read_bytes() == before


def test_stale_object_count_in_manifest_reports_true_count(tmp_path):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        cat.put_object(minimal_hypernode())
        cat.put_object(minimal_hypernode())
    # a manifest as written before the count was derived: stored, stale, checksummed
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["object_count"] = 7
    manifest["checksum"] = storemod._manifest_checksum(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))
    stored = (path / "manifest.json").read_bytes()
    with open_catalog(path) as cat:
        assert len(cat.object_ids()) == 2
        assert cat.export()["manifest"] == {"object_count": 2}
    assert (path / "manifest.json").read_bytes() == stored


def test_malformed_middle_links_line_is_corruption(tmp_path, make_text_file):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        for text in ("red green", "green blue", "blue red"):
            ingest_file(cat, make_text_file(text), origin="t")
        assert inter.link_all(cat) == 3
    lines = (path / "links.jsonl").read_text().splitlines()
    lines[1] = lines[1][:20]
    (path / "links.jsonl").write_text("\n".join(lines) + "\n")
    # the links are read at first use, and a failed read is not kept
    with open_catalog(path) as cat:
        for read in (cat.similarity_links, cat.parenthood_links, cat.validate, cat.export):
            with pytest.raises(CorruptCatalog, match=r"links\.jsonl: bad record at line 2"):
                read()
    # the handle released its lock
    with open_catalog(path) as cat:
        with pytest.raises(CorruptCatalog):
            cat.similarity_links()


def test_failed_link_all_commit_leaves_handle_equal_to_disk(catalog, make_text_file,
                                                             monkeypatch):
    a, b, c = (ingest_file(catalog, make_text_file(t), origin="t")
               for t in ("red green", "green blue", "blue red"))
    inter.add_parenthood(catalog, [a, b], c)
    real_append = auditlog.append_records

    def full_disk(path, records):
        if os.path.basename(path) == "links.jsonl":
            raise StorageFull("no space left")
        real_append(path, records)

    monkeypatch.setattr(auditlog, "append_records", full_disk)
    with pytest.raises(StorageFull):
        inter.link_all(catalog)
    monkeypatch.undo()
    assert catalog.similarity_links() == []
    assert len(catalog.parenthood_links()) == 1
    doc = catalog.export()
    catalog.close()
    with open_catalog(catalog.root) as cat:
        assert cat.export() == doc


# -- the handle's object records


def on_disk(cat, oid) -> Hypernode:
    with open(cat.objects_dir / f"{oid}.json", encoding="utf-8") as f:
        return storemod.decode(Hypernode, json.load(f))


def assert_objects_match_disk(cat):
    for oid in cat.object_ids():
        assert cat.get_object(oid) == on_disk(cat, oid)


COHERENCE_OBJECTS = 3
COHERENCE_STEPS = st.lists(st.tuples(
    st.sampled_from(["tag", "describe", "new-version", "in-place", "representation",
                     "invalid", "disk-full"]),
    st.integers(0, COHERENCE_OBJECTS - 1),
    st.sampled_from(["red", "green", "blue"]),
), max_size=10)


@settings(max_examples=30, deadline=None)
@given(COHERENCE_STEPS)
def test_object_records_follow_every_write(steps):
    """On one long-lived handle, after each write, failed or not, every
    object it returns equals the decoding of its file on disk."""
    with tempfile.TemporaryDirectory() as tmp, \
            open_catalog(f"{tmp}/cat", create_if_missing=True) as cat:
        ids = [create_object(cat, f"/lake/{i}.txt", {
            "title": f"t{i}", "origin": "o", "ingest_format": "text"})
            for i in range(COHERENCE_OBJECTS)]
        assert_objects_match_disk(cat)
        for step, i, word in steps:
            oid = ids[i]
            root = cat.get_object(oid).root().id
            if step == "tag":
                semantic.tag_object(cat, oid, [word])
            elif step == "describe":
                semantic.describe_object(cat, oid, word)
            elif step in ("new-version", "in-place"):
                strategy = intra.NEW_VERSION if step == "new-version" else intra.OVERWRITE_IN_PLACE
                intra.add_version(cat, oid, root, intra.UpdateSpec(
                    word, "tester", f"/lake/{word}.txt", strategy), {"notes": [word]})
            elif step == "representation":
                intra.add_representation(cat, oid, root, intra.TransformationSpec(word, "tester"))
            elif step == "invalid":
                h = cat.get_object(oid)
                h.root().kind = REPRESENTATION
                with pytest.raises(ValidationFailed):
                    cat.put_object(h)
            else:
                def full_disk(path, text):
                    raise StorageFull("no space left")

                with mock.patch.object(storemod, "atomic_write_text", full_disk):
                    with pytest.raises(StorageFull):
                        semantic.tag_object(cat, oid, [word])
            assert_objects_match_disk(cat)


def rich_hypernode() -> tuple:
    """(h, rep, edge): a hypernode with a value in every field, nested
    lists and dicts and a datetime among its attributes, and its
    representation node and the edge to it."""
    h = minimal_hypernode()
    rep = make_node(REPRESENTATION, attributes={"columns": ["a"]})
    edge = make_edge(TRANSFORMATION, h.root(), rep)
    h.nodes[rep.id], h.edges[edge.id] = rep, edge
    h.refresh_aggregates()
    h.attributes.update({"title": "t", "origin": "o", "ingest_format": "csv",
                         "columns": ["a", "b"], "nested": {"k": [[1, 2]]},
                         "at": datetime(2020, 1, 2, tzinfo=timezone.utc)})
    h.root().attributes["change_notes"] = ["first"]
    h.tags = {Tag("red")}
    h.description, h.description_history = "d", ["d"]
    h.summary = Summary(kind="schema", payload=[("a", "str", 2)], row_count=2)
    return h, rep, edge


def test_changing_a_returned_object_leaves_the_stored_one(catalog):
    """A hypernode get_object returns shares no container with the
    handle's record or with any other returned hypernode."""
    h, rep, edge = rich_hypernode()
    catalog.put_object(h)
    stored = on_disk(catalog, h.id)
    for _ in range(2):  # the first get parses the file, the second decodes the record
        got = catalog.get_object(h.id)
        assert got == stored
        got.attributes["columns"].append("c")
        got.attributes["nested"]["k"][0].append(3)
        got.attributes["nested"]["new"] = 1
        got.attributes["extra"] = 1
        got.root().attributes["change_notes"].append("second")
        got.nodes[rep.id].attributes["columns"].append("b")
        got.nodes[rep.id].attributes["label"] = "changed"
        got.edges[edge.id].attributes["x"] = 1
        got.edges.clear()
        got.tags.add(Tag("blue"))
        got.description_history.append("e")
        got.summary.payload.append(("b", "int", 1))
        got.nodes.clear()
        assert catalog.get_object(h.id) == stored


def test_changing_a_returned_field_leaves_the_stored_object(catalog):
    """A value object_field returns shares no container with the handle's
    record, whether the call read the file or decoded the kept record."""
    h, rep, edge = rich_hypernode()
    catalog.put_object(h)
    stored = on_disk(catalog, h.id)
    change = {
        "attributes": lambda v: (v["columns"].append("c"), v["nested"]["k"][0].append(3),
                                 v["nested"].update(new=1), v.update(extra=1)),
        "nodes": lambda v: (v[rep.id].attributes["columns"].append("b"),
                            v[h.root().id].attributes["change_notes"].append("x"), v.clear()),
        "edges": lambda v: (v[edge.id].attributes.update(x=1), v.clear()),
        "tags": lambda v: v.add(Tag("blue")),
        "description_history": lambda v: v.append("e"),
        "summary": lambda v: v.payload.append(("b", "int", 1)),
    }
    for cold in (True, False):
        for name, change_value in change.items():
            if cold:
                catalog.put_object(h)  # drops the kept record: the next read is the file's
            change_value(catalog.object_field(h.id, name))
            assert catalog.get_object(h.id) == stored


HYPERNODE_FIELDS = [f.name for f in dataclasses.fields(Hypernode)]


def assert_field_reads_agree(path):
    """Each field object_field reads, on a cold handle and then from the
    kept records, is that field of get_object and of the file's decode."""
    for name in HYPERNODE_FIELDS:
        with open_catalog(path) as cat:
            ids = cat.object_ids()
            assert ids
            cold = [cat.object_field(oid, name) for oid in ids]
            warm = [cat.object_field(oid, name) for oid in ids]
            whole = [getattr(cat.get_object(oid), name) for oid in ids]
            assert cold == warm == whole == [getattr(on_disk(cat, oid), name) for oid in ids]


def test_field_reads_agree_with_whole_reads(tmp_path):
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        grow_persistence_catalog(cat, tmp_path)
    assert_field_reads_agree(path)


def test_field_reads_agree_on_older_object_files(tmp_path):
    """Older forms of an object file: keys missing whose fields have
    defaults, a tag of its label alone, an indented file and a datetime
    attribute."""
    rng = random.Random(24)
    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        records = [storemod.encode(random_valid_hypernode(rng)) for _ in range(4)]
        for key in ("tags", "description", "description_history", "summary"):
            del records[0][key]
        records[1]["tags"] = [["t1"], ["t2", "derived"]]
        records[2]["attributes"]["at"] = {"__ts__": "2020-01-02T03:04:05+00:00"}
        for i, record in enumerate(records):
            (cat.objects_dir / f"{record['id']}.json").write_text(
                json.dumps(record, sort_keys=True, indent=1 if i == 3 else None),
                encoding="utf-8")
    assert_field_reads_agree(path)
    with open_catalog(path) as cat:
        assert cat.object_field(records[0]["id"], "tags") == set()
        assert cat.object_field(records[1]["id"], "tags") == {Tag("t1"), Tag("t2", "derived")}
        assert cat.object_field(records[2]["id"], "attributes")["at"] == datetime(
            2020, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


def test_object_ids_are_the_stems_the_glob_listed(catalog):
    """object_ids lists `objects/` once and gives what the glob `*.json`
    gave: the Path.stem of every name ending in ".json", directories and
    dotted names too, and no stale temp file."""
    oid = catalog.put_object(minimal_hypernode())
    objects = catalog.objects_dir
    for name in (f".{oid}.json.tmp-0a1b2c3d", ".h.json", ".json", "e.JSON"):
        (objects / name).write_text("{}")
    (objects / "d.json").mkdir()
    assert catalog.object_ids() == sorted(p.stem for p in objects.glob("*.json"))
    assert catalog.object_ids() == sorted([oid, ".h", ".json", "d"])


def test_batch_passes_read_each_object_file_once(catalog, make_text_file, opened_files,
                                                 monkeypatch):
    """One handle running every whole-catalog pass opens each object
    file once; a write makes the next pass read that object again."""
    for i in range(5):
        ingest_file(catalog, make_text_file(f"shared word{i} word{i % 2}"), origin=f"o{i % 2}",
                    tags=[f"t{i % 3}"])
    ids = catalog.object_ids()
    link_ids = []
    real_new_link_id = inter.new_link_id
    monkeypatch.setattr(inter, "new_link_id",
                        lambda: link_ids.append(1) or real_new_link_id())

    def every_pass():
        stored = inter.link_all(catalog, threshold=0.3)
        assert 0 < stored < len(ids) * (len(ids) - 1) // 2
        assert len(link_ids) == stored
        link_ids.clear()
        for oid in ids:
            inter.recommend(catalog, oid)
        inter.group_by(catalog, "origin")
        semantic.group_by_tags(catalog)
        catalog.validate()
        catalog.export()

    opened_files.clear()
    every_pass()
    opens = Counter(opened_files)
    assert [opens[catalog.objects_dir / f"{oid}.json"] for oid in ids] == [1] * 5
    semantic.tag_object(catalog, ids[2], ["new"])
    every_pass()
    opens = Counter(opened_files)
    assert [opens[catalog.objects_dir / f"{oid}.json"] for oid in ids] == [1, 1, 2, 1, 1]
    opened_files.clear()
    with pytest.raises(NotFound):
        catalog.get_object("obj_nope")
    assert opened_files == [catalog.objects_dir / "obj_nope.json"]
