import json
import os
import random

import pytest

from lakecat import index as indexmod
from lakecat import ingest, store
from lakecat.errors import EmptyTagSet, ResourceParseError, Unreadable


class TestProfileFile:
    def test_xml_by_extension(self, tmp_path):
        path = tmp_path / "products.xml"
        path.write_text("<products/>")
        profile = ingest.profile_file(path)
        assert profile.detected_format == "xml"
        assert profile.format_class == "semi-structured"
        assert profile.title == "products.xml"
        assert profile.size_bytes == len("<products/>")

    def test_empty_file_is_text(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        profile = ingest.profile_file(path)
        assert profile.detected_format == "text"
        assert profile.size_bytes == 0

    def test_random_bytes_binary(self, tmp_path):
        rng = random.Random(97)
        path = tmp_path / "blob"
        path.write_bytes(bytes(rng.randrange(256) for _ in range(512)) + b"\xff\xfe")
        profile = ingest.profile_file(path)
        assert profile.detected_format == "binary"
        assert profile.format_class == "unstructured"

    def test_sniffing_without_extension(self, tmp_path):
        cases = {
            '{"a": 1}': "json",
            "<root><a/></root>": "xml",
            "a,b\n1,2\n3,4\n": "csv",
            "just some prose\nwith lines\n": "text",
        }
        for i, (content, expected) in enumerate(cases.items()):
            path = tmp_path / f"f{i}"
            path.write_text(content)
            assert ingest.profile_file(path).detected_format == expected, content

    def test_unreadable(self, tmp_path):
        with pytest.raises(Unreadable):
            ingest.profile_file(tmp_path / "missing")

    def test_deterministic(self, tmp_path):
        path = tmp_path / "doc.csv"
        path.write_text("a,b\n1,2\n")
        assert ingest.profile_file(path) == ingest.profile_file(path)

    def test_format_class_mapping(self):
        assert ingest.FORMAT_CLASSES == {
            "csv": "structured",
            "json": "semi-structured",
            "xml": "semi-structured",
            "text": "unstructured",
            "binary": "unstructured",
        }


class TestExtractSchema:
    def test_xml_paths_hand_enumerated(self, tmp_path):
        path = tmp_path / "products.xml"
        path.write_text("<products><p><name>A</name><price>3</price></p></products>")
        summary = ingest.extract_schema(path, "xml")
        assert summary.kind == "schema"
        assert sorted(summary.payload) == [
            ("products.p.name", "text", 1),
            ("products.p.price", "integer", 1),
        ]

    def test_xml_attributes_as_paths(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text('<items><item sku="9"><n>x</n></item></items>')
        summary = ingest.extract_schema(path, "xml")
        paths = {p for p, _t, _c in summary.payload}
        assert "items.item.@sku" in paths

    def test_csv_types_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n")
        summary = ingest.extract_schema(path, "csv")
        assert summary.payload == [("a", "integer", 1), ("b", "text", 1)]
        assert summary.row_count == 1

    def test_csv_full_column_parse_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\n1,1.5,true,1\n2,2,false,x\n")
        summary = ingest.extract_schema(path, "csv")
        types = {name: t for name, t, _c in summary.payload}
        assert types == {"a": "integer", "b": "real", "c": "boolean", "d": "text"}

    def test_json_paths_with_arrays(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": {"b": [1, 2]}, "c": "x"}')
        summary = ingest.extract_schema(path, "json")
        assert sorted(summary.payload) == [("a.b[]", "integer", 2), ("c", "text", 1)]

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a":')
        with pytest.raises(ResourceParseError) as exc:
            ingest.extract_schema(path, "json")
        assert "offset" in str(exc.value)

    def test_brute_force_json_traversal(self, tmp_path):
        rng = random.Random(101)

        def gen(depth=0):
            roll = rng.random()
            if depth >= 3 or roll < 0.4:
                return rng.choice([1, 2.5, True, "s"])
            if roll < 0.7:
                return {f"k{i}": gen(depth + 1) for i in range(rng.randrange(1, 4))}
            return [gen(depth + 1) for _ in range(rng.randrange(1, 4))]

        doc = {f"top{i}": gen() for i in range(3)}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        summary = ingest.extract_schema(path, "json")

        # oracle: independent recursive enumeration of leaf paths
        leaves = {}

        def walk(v, p):
            if isinstance(v, dict):
                for k, sub in v.items():
                    walk(sub, f"{p}.{k}" if p else k)
            elif isinstance(v, list):
                for item in v:
                    walk(item, f"{p}[]")
            else:
                leaves[p] = leaves.get(p, 0) + 1

        walk(doc, "")
        assert {p: c for p, _t, c in summary.payload} == leaves


class TestWordCloud:
    def test_counting_and_ties(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("a a b")
        summary = ingest.word_cloud(path, k=2)
        assert summary.payload == [("a", 2), ("b", 1)]

    def test_k_beyond_vocabulary(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("x y")
        assert len(ingest.word_cloud(path, k=50).payload) == 2

    def test_counter_oracle(self, tmp_path):
        rng = random.Random(103)
        words = [f"w{rng.randrange(8)}" for _ in range(200)]
        path = tmp_path / "w.txt"
        path.write_text(" ".join(words))
        summary = ingest.word_cloud(path, k=100)
        counts = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        assert dict(summary.payload) == counts


class TestIngestFile:
    def test_xml_gets_schema_and_is_searchable(self, catalog, tmp_path):
        path = tmp_path / "products.xml"
        path.write_text("<products><p><name>A</name></p></products>")
        oid = ingest.ingest_file(catalog, path, origin="internal source")
        h = catalog.get_object(oid)
        assert h.summary.kind == "schema"
        assert h.root().content_locator == str(path.resolve())
        assert [x[0] for x in indexmod.search(catalog, "products")] == [oid]

    def test_binary_no_summary(self, catalog, tmp_path):
        path = tmp_path / "ad.mp4"
        path.write_bytes(b"\x00\x01\xfe\xff" * 64)
        oid = ingest.ingest_file(catalog, path, origin="internal source")
        h = catalog.get_object(oid)
        assert h.summary is None
        assert h.attributes["format_class"] == "unstructured"

    def test_same_file_twice_two_objects(self, catalog, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("dup content")
        a = ingest.ingest_file(catalog, path, origin="test")
        b = ingest.ingest_file(catalog, path, origin="test")
        assert a != b
        assert len(catalog.list_objects()) == 2

    def test_auto_tag_from_word_cloud(self, catalog, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("apple apple banana banana banana cherry")
        oid = ingest.ingest_file(catalog, path, origin="test", auto_tag=True)
        labels = {t.label for t in catalog.get_object(oid).tags}
        assert {"apple", "banana", "cherry"} <= labels
        sources = {t.source for t in catalog.get_object(oid).tags}
        assert sources == {"derived"}

    def test_catalog_left_valid_and_index_consistent(self, catalog, tmp_path):
        for i, content in enumerate(["plain text body", '{"k": 1}', "a,b\n1,2\n"]):
            suffix = [".txt", ".json", ".csv"][i]
            path = tmp_path / f"f{i}{suffix}"
            path.write_text(content)
            ingest.ingest_file(catalog, path, origin="test", tags={f"g{i}"})
        assert [v for v in catalog.validate() if not v.advisory] == []
        live = catalog.index.to_dict()
        indexmod.rebuild_index(catalog)
        assert catalog.index.to_dict() == live


class TestIngestCommit:
    def test_one_object_write_and_one_index_save(self, catalog, tmp_path, monkeypatch):
        path = tmp_path / "notes.txt"
        path.write_text("apple apple banana cherry")
        written = []
        real_replace = os.replace

        def counting(src, dst):
            written.append(str(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(store.os, "replace", counting)
        oid = ingest.ingest_file(catalog, path, origin="test", tags=["Fruit"],
                                 auto_tag=True)
        monkeypatch.undo()
        assert written.count(str(catalog.objects_dir / f"{oid}.json")) == 1
        assert written.count(str(catalog.index_path)) == 1
        events = [r for r in catalog.log.records() if r.target == oid]
        assert [r.action for r in events] == ["Create", "Tag", "Tag"]
        assert [r.detail["source"] for r in events[1:]] == ["derived", "manual"]
        assert events[2].detail["tags"] == ["fruit"]
        assert [x[0] for x in indexmod.search(catalog, "fruit")] == [oid]

    def test_empty_tag_set_writes_nothing(self, catalog, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("apple banana")
        with pytest.raises(EmptyTagSet):
            ingest.ingest_file(catalog, path, origin="test", tags=[""], auto_tag=True)
        assert list(catalog.objects_dir.iterdir()) == []
        assert not catalog.index_path.exists()
        assert catalog.log.records() == []
        assert catalog.manifest["object_count"] == 0
