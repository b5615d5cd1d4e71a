import random

import pytest

from lakecat import ingest, semantic
from lakecat.errors import (
    DuplicateName,
    EmptyTagSet,
    NotFound,
    ResourceParseError,
    UnknownThesaurus,
)
from lakecat.model import normalize_tag_label


def make_object(catalog, make_text_file, content="some words"):
    return ingest.ingest_file(catalog, make_text_file(content), origin="test")


def load_thesaurus(catalog, tmp_path, text, name="business"):
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    return semantic.load_resource(catalog, path)


class TestTagging:
    def test_normalization_dedup(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        tags = semantic.tag_object(catalog, oid, {"Sales", "sales "})
        assert {t.label for t in tags} == {"sales"}

    def test_idempotent(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        semantic.tag_object(catalog, oid, {"products"})
        before = catalog.get_object(oid).tags
        semantic.tag_object(catalog, oid, {"products"})
        assert catalog.get_object(oid).tags == before

    def test_empty_rejected(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        with pytest.raises(EmptyTagSet):
            semantic.tag_object(catalog, oid, {"  "})

    def test_unknown_object(self, catalog):
        with pytest.raises(NotFound):
            semantic.tag_object(catalog, "obj_ghost", {"x"})

    def test_tag_then_group(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        semantic.tag_object(catalog, oid, {"products"})
        g = semantic.group_by_tags(catalog)
        assert oid in g.collections["products"]

    def test_normalize_idempotent(self):
        for raw in ("X", " foo ", "BAR baz", ""):
            once = normalize_tag_label(raw)
            assert normalize_tag_label(once) == once


class TestDescribe:
    def test_set_and_read_back(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        semantic.describe_object(catalog, oid, "catalog of products")
        assert catalog.get_object(oid).description == "catalog of products"

    def test_history_grows(self, catalog, make_text_file):
        oid = make_object(catalog, make_text_file)
        semantic.describe_object(catalog, oid, "first")
        semantic.describe_object(catalog, oid, "second")
        h = catalog.get_object(oid)
        assert h.description == "second"
        assert h.description_history == ["first", "second"]


class TestThesaurusParsing:
    def test_valid_two_class_file(self, catalog, tmp_path):
        name = load_thesaurus(catalog, tmp_path, "car,automobile\nship,boat\n")
        th = semantic.get_thesaurus(catalog, name)
        assert th.class_of("car") == frozenset({"car", "automobile"})
        assert th.class_of("boat") == frozenset({"ship", "boat"})

    def test_overlapping_classes_rejected(self, catalog, tmp_path):
        with pytest.raises(ResourceParseError) as exc:
            load_thesaurus(catalog, tmp_path, "car,automobile\nauto,car\n")
        assert "two classes" in str(exc.value)
        assert exc.value.line == 2

    def test_duplicate_name(self, catalog, tmp_path):
        load_thesaurus(catalog, tmp_path, "car,automobile\n")
        with pytest.raises(DuplicateName):
            load_thesaurus(catalog, tmp_path, "ship,boat\n")

    def test_broader_terms_and_cycle(self, catalog, tmp_path):
        name = load_thesaurus(catalog, tmp_path, "car,automobile\ncar > vehicle\n",
                              name="broad")
        th = semantic.get_thesaurus(catalog, name)
        assert th.broader == {"car": "vehicle"}
        with pytest.raises(ResourceParseError):
            semantic.parse_thesaurus("bad", "a > b\nb > a\n")

    def test_long_broader_chain_parses_and_its_ring_is_a_cycle(self):
        n = 5000
        chain = "".join(f"t{i} > t{i + 1}\n" for i in range(n))
        th = semantic.parse_thesaurus("chain", chain)
        assert len(th.broader) == n
        with pytest.raises(ResourceParseError, match="cycle"):
            semantic.parse_thesaurus("ring", chain + f"t{n} > t0\n")

    def test_reload_survives_reopen(self, catalog, tmp_path):
        from lakecat import open_catalog

        load_thesaurus(catalog, tmp_path, "car,automobile\n")
        root = catalog.root
        catalog.close()
        with open_catalog(root) as cat2:
            assert "business" in cat2.resources
        # keep fixture teardown happy
        globals()  # no-op


class TestExpansion:
    def test_expand_basic(self, catalog, tmp_path):
        name = load_thesaurus(catalog, tmp_path, "car,automobile\n")
        th = semantic.get_thesaurus(catalog, name)
        assert semantic.expand_terms({"car"}, th) == {"car", "automobile"}

    def test_unclassed_unchanged(self, catalog, tmp_path):
        th = semantic.get_thesaurus(catalog, load_thesaurus(catalog, tmp_path, "a,b\n"))
        assert semantic.expand_terms({"zebra"}, th) == {"zebra"}

    def test_monotone_idempotent(self, catalog, tmp_path):
        rng = random.Random(61)
        terms = [f"s{i}" for i in range(12)]
        rng.shuffle(terms)
        lines = "\n".join(
            ",".join(terms[i:i + 3]) for i in range(0, 12, 3)
        )
        th = semantic.get_thesaurus(catalog, load_thesaurus(catalog, tmp_path, lines))
        for _ in range(20):
            query = set(rng.sample(terms + ["loose1", "loose2"], 3))
            once = semantic.expand_terms(query, th)
            assert once >= query
            assert semantic.expand_terms(once, th) == once

    def test_canonical_constant_on_class(self, catalog, tmp_path):
        rng = random.Random(67)
        for trial in range(10):
            vocab = [f"w{trial}x{i}" for i in range(9)]
            rng.shuffle(vocab)
            classes = [vocab[0:3], vocab[3:6], vocab[6:9]]
            th = semantic.parse_thesaurus(
                "t", "\n".join(",".join(c) for c in classes)
            )
            for cls in classes:
                canon = {semantic.canonical_term(t, th) for t in cls}
                assert canon == {min(cls)}
        th = semantic.parse_thesaurus("t", "car,automobile\n")
        assert semantic.canonical_term("car", th) == "automobile"
        assert semantic.canonical_term("zebra", th) == "zebra"


class TestGroupByTags:
    def test_without_thesaurus_two_collections(self, catalog, make_text_file):
        a = make_object(catalog, make_text_file, "one")
        b = make_object(catalog, make_text_file, "two")
        semantic.tag_object(catalog, a, {"car"})
        semantic.tag_object(catalog, b, {"automobile"})
        g = semantic.group_by_tags(catalog)
        assert g.collections == {"car": {a}, "automobile": {b}}

    def test_with_thesaurus_merged(self, catalog, make_text_file, tmp_path):
        a = make_object(catalog, make_text_file, "one")
        b = make_object(catalog, make_text_file, "two")
        semantic.tag_object(catalog, a, {"car"})
        semantic.tag_object(catalog, b, {"automobile"})
        name = load_thesaurus(catalog, tmp_path, "car,automobile\n")
        g = semantic.group_by_tags(catalog, thesaurus=name)
        assert g.collections == {"automobile": {a, b}}

    def test_object_with_three_tags_in_three_collections(self, catalog, make_text_file):
        a = make_object(catalog, make_text_file, "one")
        semantic.tag_object(catalog, a, {"x", "y", "z"})
        g = semantic.group_by_tags(catalog)
        assert sum(1 for members in g.collections.values() if a in members) == 3

    def test_unknown_thesaurus(self, catalog):
        with pytest.raises(UnknownThesaurus):
            semantic.group_by_tags(catalog, thesaurus="nope")

    def test_no_synonymous_collection_keys(self, catalog, make_text_file, tmp_path):
        ids = [make_object(catalog, make_text_file, f"c{i}") for i in range(4)]
        for oid, tag in zip(ids, ("car", "automobile", "ship", "boat")):
            semantic.tag_object(catalog, oid, {tag})
        name = load_thesaurus(catalog, tmp_path, "car,automobile\nship,boat\n")
        g = semantic.group_by_tags(catalog, thesaurus=name)
        th = semantic.get_thesaurus(catalog, name)
        keys = list(g.collections)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                cls = th.class_of(k1)
                assert cls is None or k2 not in cls
