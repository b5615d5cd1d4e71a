import json
import os
import subprocess
import sys

import pytest

from conftest import minimal_hypernode, random_valid_hypernode
from lakecat import import_catalog, open_catalog
from lakecat import index as indexmod
from lakecat.ingest import ingest_file
from lakecat.errors import LockHeld, NotFound, ValidationFailed
from lakecat.model import REPRESENTATION
from lakecat import store as storemod

import random


def test_open_empty_creates_catalog(tmp_path):
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        assert cat.list_objects() == []
        assert cat.manifest["object_count"] == 0


def test_open_missing_without_create(tmp_path):
    with pytest.raises(NotFound):
        open_catalog(tmp_path / "missing")


def test_round_trip_equality(catalog):
    rng = random.Random(3)
    for _ in range(20):
        h = random_valid_hypernode(rng)
        catalog.put_object(h)
        back = catalog.get_object(h.id)
        assert storemod.hypernode_to_dict(back) == storemod.hypernode_to_dict(h)


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


def test_bulk_store_and_manifest_count(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "bulk"
    with open_catalog(path, create_if_missing=True) as cat:
        ids = []
        for _ in range(1000):
            h = random_valid_hypernode(rng, max_extra_nodes=0)
            ids.append(cat.put_object(h))
        assert cat.manifest["object_count"] == 1000
    with open_catalog(path) as cat:
        assert cat.manifest["object_count"] == 1000
        assert cat.object_ids() == sorted(ids)
        for oid in ids[::97]:
            assert cat.get_object(oid).id == oid


def test_reopen_preserves_tree(tmp_path):
    path = tmp_path / "cat"
    rng = random.Random(9)
    with open_catalog(path, create_if_missing=True) as cat:
        h = random_valid_hypernode(rng)
        cat.put_object(h)
        before = storemod.hypernode_to_dict(cat.get_object(h.id))
    with open_catalog(path) as cat:
        after = storemod.hypernode_to_dict(cat.get_object(h.id))
    assert before == after


def test_list_objects_filter(catalog):
    ids = {}
    for origin in ("internal source", "internal source", "external source"):
        h = minimal_hypernode()
        h.attributes.update({"title": "t", "origin": origin, "ingest_format": "xml"})
        ids.setdefault(origin, []).append(catalog.put_object(h))
    internal = catalog.list_objects({"origin": "internal source"})
    assert sorted(oid for oid, _ in internal) == sorted(ids["internal source"])
    assert len(catalog.list_objects()) == 3


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
        cat.log.append("tester", "Create", "obj_x", {})
        doc = cat.export()
    with import_catalog(tmp_path / "dst", doc) as copy_cat:
        assert copy_cat.export() == doc
        assert copy_cat.validate() == [] or all(v.advisory for v in copy_cat.validate())


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
