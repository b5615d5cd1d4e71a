import contextlib
import io
import json
import random
import re
import shutil
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import create_object
from lakecat import index as indexmod
from lakecat import ingest, intra, open_catalog, semantic
from lakecat.cli import run
from lakecat.errors import EmptyQuery, NotFound


def make_doc(catalog, make_text_file, content, title=None):
    return ingest.ingest_file(catalog, make_text_file(content, name=title),
                              origin="test")


class TestTokenize:
    def test_rule_application(self):
        assert indexmod.tokenize("Data-Lake metadata!") == ["data", "lake", "metadata"]

    def test_empty(self):
        assert indexmod.tokenize("") == []

    def test_deterministic(self):
        text = "Mixed CASE, punct.u.ation  and   numbers 42"
        assert indexmod.tokenize(text) == indexmod.tokenize(text)

    def test_stopwords_exact_match_only(self):
        assert indexmod.tokenize("the cat and the hat", stopwords={"the"}) == [
            "cat", "and", "hat"
        ]


class TestIndexObject:
    def test_title_searchable(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file, "irrelevant body",
                       title="product catalog.txt")
        hits = indexmod.search(catalog, "catalog")
        assert [h[0] for h in hits] == [oid]

    def test_reindex_drops_old_title_terms(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file, "plain body",
                       title="ancient ledger.txt")
        assert [h[0] for h in indexmod.search(catalog, "ancient")] == [oid]
        h = catalog.get_object(oid)
        h.attributes["title"] = "renamed.txt"
        catalog.commit("tester", [], h)
        # naive-scan oracle: no indexed field carries the old term anymore
        assert indexmod.search(catalog, "ancient") == []
        assert [h_[0] for h_ in indexmod.search(catalog, "renamed")] == [oid]

    def test_binary_object_tags_still_indexed(self, catalog, tmp_path):
        path = tmp_path / "clip.mp4"
        path.write_bytes(b"\x00\xff" * 100)
        oid = ingest.ingest_file(catalog, path, origin="test", tags={"commercial"})
        assert [h[0] for h in indexmod.search(catalog, "commercial")] == [oid]

    def test_description_indexed(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file, "plain body")
        semantic.describe_object(catalog, oid, "quarterly xylophone report")
        assert [h[0] for h in indexmod.search(catalog, "xylophone")] == [oid]

    def test_unknown_object(self, catalog):
        with pytest.raises(NotFound):
            semantic.tag_object(catalog, "obj_ghost", {"car"})
        assert not catalog.index_path.exists()


class TestSearch:
    def test_any_term(self, catalog, make_text_file):
        a = make_doc(catalog, make_text_file, "data lake metadata")
        b = make_doc(catalog, make_text_file, "metadata model")
        hits = indexmod.search(catalog, "metadata", mode="any-term")
        assert {h[0] for h in hits} == {a, b}

    def test_all_terms(self, catalog, make_text_file):
        a = make_doc(catalog, make_text_file, "data lake metadata")
        make_doc(catalog, make_text_file, "metadata model")
        hits = indexmod.search(catalog, "lake metadata", mode="all-terms")
        assert [h[0] for h in hits] == [a]
        assert hits[0][1] == 2

    def test_thesaurus_expansion(self, catalog, make_text_file, tmp_path):
        oid = make_doc(catalog, make_text_file, "body text")
        semantic.tag_object(catalog, oid, {"car"})
        (tmp_path / "syn.txt").write_text("car,automobile\n")
        semantic.load_resource(catalog, tmp_path / "syn.txt")
        assert indexmod.search(catalog, "automobile") == []
        hits = indexmod.search(catalog, "automobile", expand_with="syn")
        assert [h[0] for h in hits] == [oid]

    def test_empty_query(self, catalog):
        with pytest.raises(EmptyQuery):
            indexmod.search(catalog, "...!!!")

    def test_access_logged_only_on_request(self, catalog, make_text_file):
        make_doc(catalog, make_text_file, "loggable term")
        indexmod.search(catalog, "loggable")
        assert all(r.action != "Access" for r in catalog.log.records())
        indexmod.log_search(catalog, "loggable", "any-term",
                            indexmod.search(catalog, "loggable"), actor="alice")
        actions = [r.action for r in catalog.log.records()]
        assert "Search" in actions and "Access" in actions


    def test_recorded_search_logs_with_one_fsync(self, catalog, make_text_file, fsyncs):
        ids = sorted(make_doc(catalog, make_text_file, f"shared term {i}") for i in range(3))
        fsyncs.clear()
        results = indexmod.search(catalog, "shared")
        indexmod.log_search(catalog, "shared", "any-term", results, actor="alice")
        assert sum(fsyncs.values()) == 1
        records = catalog.log.records()[-4:]
        assert [(r.action, r.target) for r in records] == (
            [("Search", "shared")] + [("Access", oid) for oid, _s in results])
        assert sorted(oid for oid, _s in results) == ids
        assert [r.seq for r in records] == list(range(4, 8))


def naive_scan(catalog, texts, query, mode, thesaurus=None):
    """Independent oracle: full scan over the documented indexed fields,
    applying the same tokenization rules via a fresh regex."""
    split = re.compile(r"[^0-9a-z]+")

    def toks(s):
        return {t for t in split.split(s.lower()) if t}

    def doc_terms(oid):
        h = catalog.get_object(oid)
        terms = set()
        title = h.attributes.get("title")
        if title:
            terms |= toks(title)
        if h.description:
            terms |= toks(h.description)
        for tag in h.tags:
            terms |= toks(tag.label)
        if h.summary is not None and h.summary.kind == "wordcloud":
            for term, _f in h.summary.payload:
                terms |= toks(term)
        terms |= toks(texts.get(oid, ""))
        return terms

    query_terms = [t for t in split.split(query.lower()) if t]
    results = set()
    for oid, _attrs in catalog.list_objects():
        terms = doc_terms(oid)
        matched = set()
        for q in query_terms:
            variants = {q}
            if thesaurus is not None:
                cls = thesaurus.class_of(q)
                if cls:
                    variants |= cls
            if variants & terms:
                matched.add(q)
        if mode == "all-terms" and len(matched) == len(set(query_terms)):
            results.add(oid)
        elif mode == "any-term" and matched:
            results.add(oid)
    return results


class TestOracleEquivalence:
    def test_random_corpus_matches_naive_scan(self, catalog, make_text_file, tmp_path):
        rng = random.Random(71)
        vocab = [f"term{i}" for i in range(25)]
        (tmp_path / "syn.txt").write_text("term0,term1\nterm2,term3,term4\n")
        semantic.load_resource(catalog, tmp_path / "syn.txt")
        th = semantic.get_thesaurus(catalog, "syn")
        texts = {}
        for _ in range(30):
            content = " ".join(rng.choices(vocab, k=rng.randrange(0, 12))) or "empty"
            oid = make_doc(catalog, make_text_file, content)
            texts[oid] = content
            if rng.random() < 0.3:
                semantic.tag_object(catalog, oid, {rng.choice(vocab)})
        for _ in range(60):
            query = " ".join(rng.choices(vocab, k=rng.randrange(1, 4)))
            mode = rng.choice(["any-term", "all-terms"])
            expand = rng.random() < 0.5
            got = {
                oid for oid, _s in indexmod.search(
                    catalog, query, mode=mode,
                    expand_with="syn" if expand else None,
                )
            }
            want = naive_scan(catalog, texts, query, mode, th if expand else None)
            assert got == want, (query, mode, expand)


class TestRebuild:
    def test_empty(self, catalog):
        assert indexmod.rebuild_index(catalog) == {"objects": 0, "terms": 0, "postings": 0}

    def test_reads_each_object_once(self, catalog, make_text_file, monkeypatch):
        for i in range(5):
            make_doc(catalog, make_text_file, f"body {i}")
        reads = []
        real_get = catalog.get_object
        monkeypatch.setattr(catalog, "get_object",
                            lambda oid, **kw: reads.append(oid) or real_get(oid, **kw))
        indexmod.rebuild_index(catalog)
        assert sorted(reads) == catalog.object_ids()

    def test_rebuild_equals_incremental(self, catalog, make_text_file):
        """Every write path keeps the index current by itself: no step
        re-indexes by hand, and new versions and representations bring
        text that only they hold."""
        def live():
            return {(term, *post) for term, posts in catalog.index.postings.items()
                    for post in posts}

        def derived():
            return {(term, oid, node) for oid in catalog.object_ids()
                    for node, terms in indexmod.object_terms(catalog.get_object(oid)).items()
                    for term in terms}

        rng = random.Random(73)
        ids = []
        for i in range(10):
            ids.append(make_doc(catalog, make_text_file, f"body {i} shared"))
        ids.append(create_object(catalog, "/lake/none.xml", {
            "title": "created title", "origin": "o", "ingest_format": "xml"}))
        assert live() == derived()
        for step in range(25):
            op = rng.randrange(4)
            oid = rng.choice(ids)
            if op == 0:
                semantic.tag_object(catalog, oid, {f"tag{rng.randrange(5)}"})
            elif op == 1:
                semantic.describe_object(catalog, oid, f"note {rng.randrange(9)}")
            elif op == 2:
                root = catalog.get_object(oid).root()
                intra.add_version(
                    catalog, oid, root.id,
                    intra.UpdateSpec(description="u", actor="t",
                                     produces_locator=make_text_file(f"version{step} text"),
                                     strategy=rng.choice([intra.NEW_VERSION,
                                                          intra.OVERWRITE_IN_PLACE])),
                    {"format": "text"},
                )
            else:
                root = catalog.get_object(oid).root()
                intra.add_representation(
                    catalog, oid, root.id,
                    intra.TransformationSpec(description="r", actor="t",
                                             produces_locator=make_text_file(f"extract{step}")),
                    {"format": "text"},
                )
            assert live() == derived(), (step, op)
        before = catalog.index.to_dict()
        stats = indexmod.rebuild_index(catalog)
        assert catalog.index.to_dict() == before
        again = indexmod.rebuild_index(catalog)
        assert again == stats


class _VisitRecorder(dict):
    """A postings map that records the terms looked up or deleted, and
    how many times something walked the whole map."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen, self.scans = set(), 0

    def __getitem__(self, term):
        self.seen.add(term)
        return super().__getitem__(term)

    def __delitem__(self, term):
        self.seen.add(term)
        super().__delitem__(term)

    def get(self, term, default=None):
        self.seen.add(term)
        return super().get(term, default)

    def setdefault(self, term, default=None):
        self.seen.add(term)
        return super().setdefault(term, default)

    def _scan(self, method):
        self.scans += 1
        return method()

    def __iter__(self):
        return self._scan(super().__iter__)

    def keys(self):
        return self._scan(super().keys)

    def values(self):
        return self._scan(super().values)

    def items(self):
        return self._scan(super().items)


class TestIncrementalCost:
    """Changing one object of a warm index costs that object's terms,
    not the index's."""

    @pytest.fixture
    def ids(self, catalog, make_text_file):
        rng = random.Random(79)
        vocab = [f"term{i}" for i in range(60)]
        return [make_doc(catalog, make_text_file, " ".join(rng.choices(vocab, k=12)))
                for _ in range(30)]

    def test_save_reencodes_only_changed_terms(self, catalog, ids, monkeypatch):
        oid = ids[7]
        semantic.describe_object(catalog, oid, "term1 term2 vanishing")
        # copies, so that a list the index changes in place still shows as changed
        before = {term: list(map(tuple, posts)) for term, posts in catalog.index.postings.items()}
        quoted = []
        real_quote = indexmod._quote
        monkeypatch.setattr(indexmod, "_quote", lambda s: quoted.append(s) or real_quote(s))
        semantic.describe_object(catalog, oid, "term2 term3 appearing")
        after = catalog.index.postings
        changed = {term for term, posts in after.items()
                   if list(map(tuple, posts)) != before.get(term)}
        assert "appearing" in changed and "vanishing" not in after
        # object and node ids are quoted too, but never look like terms
        assert sorted(s for s in quoted if s in before or s in after) == sorted(changed)
        assert catalog.index_path.read_text(encoding="utf-8") == json.dumps(
            catalog.index.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":"))

    def test_first_save_of_a_loaded_index_quotes_only_changed_terms(self, catalog, ids,
                                                                     monkeypatch):
        """A fresh handle's first change encodes only the terms it
        changes, with their pairs: the other members are cut from the
        text of the file it read."""
        oid = ids[7]
        catalog.close()
        with open_catalog(catalog.root) as cat:
            before = {term: list(map(tuple, posts)) for term, posts in cat.index.postings.items()}
            quoted = []
            real_quote = indexmod._quote
            monkeypatch.setattr(indexmod, "_quote", lambda s: quoted.append(s) or real_quote(s))
            semantic.describe_object(cat, oid, "term2 term3 appearing")
            after = cat.index.postings
            changed = {term for term, posts in after.items()
                       if list(map(tuple, posts)) != before.get(term)}
            assert "appearing" in changed and len(changed) < len(after) / 2
            assert sorted(s for s in quoted if s in before or s in after) == sorted(changed)
            assert set(quoted) == changed | {s for term in changed for pair in after[term]
                                             for s in pair}
            assert cat.index_path.read_text(encoding="utf-8") == dumps(cat.index.to_dict())

    def test_remove_object_visits_only_its_terms(self, catalog, ids):
        idx = catalog.index
        oid = ids[3]
        own = {term for term, posts in idx.postings.items() if any(o == oid for o, _ in posts)}
        rest = {term: [p for p in posts if p[0] != oid] for term, posts in idx.postings.items()}
        idx.postings = visits = _VisitRecorder(idx.postings)
        idx.replace_object(oid, ())
        assert visits.seen == own and not visits.scans
        assert dict(visits) == {term: posts for term, posts in rest.items() if posts}

    def test_a_loaded_index_looks_for_an_object_once(self, catalog, ids):
        """On an index read from its file, the first change of an object
        finds its postings with one pass over the lists; later changes of
        it visit only its terms."""
        catalog.close()
        with open_catalog(catalog.root) as cat:
            idx = cat.index
            idx.check()
            oid = ids[3]
            own = {term for term, posts in idx.postings.items() if any(o == oid for o, _ in posts)}
            # a first change cuts the unchanged members out of the text,
            # a pass over every term that is not the object's
            idx.replace_object("obj_other", [("other", "nod_y")])
            idx.postings = visits = _VisitRecorder(idx.postings)
            idx.replace_object(oid, [("fresh", "nod_x")])
            assert visits.scans == 1 and visits.seen == own | {"fresh"}
            visits.seen = set()
            idx.replace_object(oid, ())
            assert visits.seen == {"fresh"} and visits.scans == 1
            assert not any(o == oid for posts in visits.values() for o, _ in posts)

    def test_an_unchanged_object_costs_a_loaded_index_one_pass(self, catalog, ids):
        """Giving an object the postings it has, as a tag of words it
        already holds does, finds them with one pass over the lists and
        cuts nothing out of the loaded text."""
        catalog.close()
        with open_catalog(catalog.root) as cat:
            idx = cat.index
            idx.check()
            oid = ids[3]
            own = {(term, node) for term, posts in idx.postings.items()
                   for o, node in posts if o == oid}
            idx.postings = visits = _VisitRecorder(idx.postings)
            assert idx.replace_object(oid, own) is False
            assert visits.scans == 1


@pytest.mark.parametrize("bad", [("d", 7), ("d", "n", "x")])
def test_a_pair_that_is_not_two_strings_changes_nothing(bad):
    """replace_object raises before its first edit, so the index and the
    object's known pairs stay as they were."""
    idx = indexmod.InvertedIndex()
    idx.replace_object("o", [("a", "n"), ("b", "n")])
    before = idx.to_json()
    with pytest.raises(TypeError, match="pairs of strings"):
        idx.replace_object("o", [("a", "n"), ("c", "n"), bad])
    assert idx.to_json() == before
    assert idx.replace_object("o", [("a", "n"), ("b", "n")]) is False


WORDS = ["alpha", "beta", "gamma", "delta"]
OBJECTS = ["obj_a", "obj_b", "obj_c"]
NODES = ["nod_1", "nod_2"]
PAIR = st.tuples(st.sampled_from(OBJECTS), st.sampled_from(NODES))
# as a file may hold them: unsorted, repeated, or a term with none
LOADED = st.dictionaries(st.sampled_from(WORDS), st.lists(PAIR.map(list), max_size=6))
STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(WORDS), PAIR),
    st.tuples(st.just("replace"), st.sampled_from(OBJECTS),
              st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(NODES)), max_size=4)),
    st.tuples(st.just("remove"), st.sampled_from(OBJECTS)),
    st.tuples(st.just("save")),
), max_size=12)


def pairs_of(model, obj) -> set:
    """The (term, node) pairs of `obj` in a set of (term, object, node)."""
    return {(term, node) for term, o, node in model if o == obj}


def built_from(model) -> indexmod.InvertedIndex:
    """An index built from a set of (term, object, node)."""
    built = indexmod.InvertedIndex()
    for obj in sorted({obj for _term, obj, _node in model}):
        built.replace_object(obj, pairs_of(model, obj))
    return built


@settings(max_examples=150, deadline=None)
@given(LOADED, STEPS)
def test_loaded_index_behaves_as_its_postings_as_sets(loaded, steps):
    """An index searched and exported as parsed, then changed, reads and
    saves as an index built from the same postings taken as a set: the
    order and the repeats of the parsed lists do not show."""
    as_parsed = indexmod.InvertedIndex.from_dict(json.loads(json.dumps(loaded)))
    model = {(term, obj, node) for term, posts in loaded.items() for obj, node in posts}
    as_built = built_from(model)
    for step in steps + [("save",)]:
        if step[0] == "add":
            model.add((step[1], *step[2]))
            for idx in (as_parsed, as_built):
                idx.replace_object(step[2][0], pairs_of(model, step[2][0]))
        elif step[0] == "replace":
            obj, pairs = step[1:]
            model = {p for p in model if p[1] != obj} | {(t, obj, n) for t, n in pairs}
            for idx in (as_parsed, as_built):
                idx.replace_object(step[1], step[2])
        elif step[0] == "remove":
            model = {p for p in model if p[1] != step[1]}
            for idx in (as_parsed, as_built):
                idx.replace_object(step[1], ())
        else:
            for term in WORDS:
                assert as_parsed.objects_for(term) == as_built.objects_for(term)
            assert as_parsed.to_dict() == as_built.to_dict()
            assert as_parsed.to_json() == as_built.to_json()


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(LOADED, STEPS)
def test_a_saved_index_is_the_text_of_its_postings(loaded, steps):
    """A catalog whose terms.json has pairs out of order, repeated pairs
    or a term with none, changed by random steps, some of them saved as a
    commit saves them: each saved text is json.dumps of to_dict() and the
    text of an index built from the same postings."""
    model = {(term, obj, node) for term, posts in loaded.items() for obj, node in posts}
    with tempfile.TemporaryDirectory() as tmp, \
            open_catalog(f"{tmp}/cat", create_if_missing=True) as cat:
        cat.index_path.write_text(json.dumps(loaded), encoding="utf-8")
        for step in steps + [("save",)]:
            saved = step[0] == "save"
            if step[0] == "add":
                model.add((step[1], *step[2]))
                cat.index.replace_object(step[2][0], pairs_of(model, step[2][0]))
            elif step[0] in ("replace", "remove"):
                obj, pairs = step[1], step[2] if step[0] == "replace" else ()
                model = {p for p in model if p[1] != obj} | {(t, obj, n) for t, n in pairs}
                if cat.index.replace_object(obj, pairs):
                    cat.save_index(cat.index.to_json())
                    saved = True
            else:
                cat.save_index(cat.index.to_json())
            if saved:
                text = cat.index_path.read_text(encoding="utf-8")
                assert text == dumps(cat.index.to_dict()) == built_from(model).to_json()


# Pieces of generated strings: ones that a compact file holds as they
# are, and ones that JSON escapes or that look like the text between
# two members of the file. Only object and node ids hold "!".
COMPACT = ["alpha", "beta", "o", "n"]
AWKWARD = ['"', "\\", " ", "\x07", "\n", "é", "☃", ']],"']
FORMS = ["canonical", "unsorted terms", "indented", "spaced", "escaped",
         "unsorted or repeated pairs", "empty list", "repeated key"]


@st.composite
def loaded_texts(draw):
    """(postings, the text of a terms.json file that parses to them, in
    one of FORMS or, as often, canonical); in a third of the examples
    the strings hold AWKWARD pieces too."""
    pieces = COMPACT + (AWKWARD if draw(st.sampled_from([False, False, True])) else [])
    term = st.lists(st.sampled_from(pieces), min_size=1, max_size=3).map("".join)
    some_id = st.lists(st.sampled_from(pieces + ["!"]), min_size=1, max_size=3).map("".join)
    pair = st.tuples(some_id, some_id).map(list)
    doc = draw(st.dictionaries(term, st.lists(pair, min_size=1, max_size=4, unique_by=tuple)
                               .map(sorted), min_size=1, max_size=6))
    form = draw(st.one_of(st.just("canonical"), st.sampled_from(FORMS)))
    if form == "unsorted terms":
        text = json.dumps(dict(reversed(doc.items())), ensure_ascii=False, separators=(",", ":"))
    elif form == "indented":
        text = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1)
    elif form == "spaced":  # one term, so that each space is inside its list
        first = min(doc)
        text = json.dumps({first: doc[first]}, ensure_ascii=False, separators=(", ", ":"))
    elif form == "escaped":  # "!" never occurs in a JSON escape, only inside strings
        text = dumps(doc).replace("!", "\\u0021")
    elif form == "unsorted or repeated pairs":
        text = dumps({term: posts[::-1] + posts[:1] for term, posts in doc.items()})
    elif form == "empty list":
        text = dumps({**doc, "": []})
    elif form == "repeated key":  # the parse keeps the last value of a key
        first = min(doc)  # so that, cut at each ']],"', the file has a piece per term
        text = dumps({first: []})[:-1] + "," + dumps(doc)[1:]
    else:
        text = dumps(doc)
    return text, doc


@settings(max_examples=250, deadline=None)
@given(loaded_texts(), st.data())
def test_a_loaded_index_saves_the_text_of_its_postings(loaded, data):
    """Whatever the form of the file an index was loaded from, and
    whatever strings it holds, each text it saves after a change is
    json.dumps of its to_dict(), as though no member were cut from the
    file."""
    text, doc = loaded
    idx = indexmod.InvertedIndex.from_dict(json.loads(text), text=text)
    term = st.sampled_from(sorted(doc) + ["new"])
    some_id = st.sampled_from(sorted({s for posts in doc.values() for pair in posts
                                      for s in pair} | {"new"}))
    steps = data.draw(st.lists(st.one_of(
        st.tuples(st.just("commit"), some_id, st.lists(st.tuples(term, some_id), max_size=3)),
        st.tuples(st.just("replace"), some_id, st.lists(st.tuples(term, some_id), max_size=3)),
        st.tuples(st.just("add"), term, some_id, some_id),
        st.tuples(st.just("save")),
    ), max_size=4))
    for step in steps + [("save",)]:
        if step[0] == "commit":  # saved as a commit saves a change
            if idx.replace_object(step[1], step[2]):
                assert idx.to_json() == dumps(idx.to_dict())
        elif step[0] == "replace":
            idx.replace_object(step[1], step[2])
        elif step[0] == "add":
            word, obj, node = step[1:]
            model = {(t, o, n) for t, posts in idx.to_dict().items() for o, n in posts}
            idx.replace_object(obj, pairs_of(model, obj) | {(word, node)})
        else:
            assert idx.to_json() == dumps(idx.to_dict())


WORDS = ["alpha", "beta", "gamma", "delta", "car", "automobile"]
SYNONYMS = [{"car", "automobile"}, {"alpha", "beta"}]
STOPWORDS = st.frozensets(st.sampled_from(WORDS))
STEPS = st.lists(st.tuples(st.one_of(
    st.tuples(st.just("ingest"), st.lists(st.sampled_from(WORDS), max_size=4)),
    st.tuples(st.just("tag"), st.integers(0, 9), st.sampled_from(WORDS)),
    st.tuples(st.just("describe"), st.integers(0, 9), st.lists(st.sampled_from(WORDS), max_size=3)),
), STOPWORDS), min_size=1, max_size=8)


def _run_steps(tmp: Path, name: str, steps, with_stopwords: bool) -> tuple:
    """Run the steps through the CLI on a new catalog `name`, each with its
    own `--stopwords` file when `with_stopwords`; (catalog path, ids in
    ingest order, ingested text by id)."""
    root = tmp / name

    def cli(stop, *argv) -> str:
        options = []
        if with_stopwords:
            (tmp / "stop.txt").write_text("\n".join(sorted(stop)))
            options = ["--stopwords", str(tmp / "stop.txt")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["--catalog", str(root), "--actor", "t", *options, *argv]) == 0, argv
        return out.getvalue().strip()

    cli((), "init")
    (tmp / "syn.txt").write_text("car,automobile\nalpha,beta\n")
    cli((), "resource", "load", str(tmp / "syn.txt"))
    ids, texts = [], {}
    for i, ((kind, *args), stop) in enumerate(steps):
        if kind == "ingest":
            path = tmp / f"d{i}.txt"
            path.write_text(" ".join(args[0]))
            ids.append(cli(stop, "ingest", str(path), "--origin", "t"))
            texts[ids[-1]] = " ".join(args[0])
        elif ids and kind == "tag":
            cli(stop, "tag", ids[args[0] % len(ids)], args[1])
        elif ids:
            cli(stop, "describe", ids[args[0] % len(ids)], " ".join(args[1]) or "none")
    return root, ids, texts


def _naive_search(cat, texts, query, mode, expand, stop):
    """Search model: the query's words but `stop`; each one matches an
    object holding a term of its synonym class (with `expand`) but `stop`."""
    toks = lambda s: {t for t in re.split(r"[^0-9a-z]+", s.lower()) if t}
    terms = set(toks(query)) - stop
    if not terms:
        return None
    scores = {}
    for oid in cat.object_ids():
        h = cat.get_object(oid)
        held = toks(" ".join([h.attributes["title"], h.description or "", texts[oid],
                              *(t.label for t in h.tags),
                              *(term for term, _n in h.summary.payload)]))
        variants = [({q}.union(*(c for c in SYNONYMS if expand and q in c)) - stop)
                    for q in terms]
        n = sum(bool(v & held) for v in variants)
        if n and (mode == "any-term" or n == len(terms)):
            scores[oid] = n
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


@settings(max_examples=25, deadline=None)
@given(STEPS, STOPWORDS, st.lists(st.lists(st.sampled_from(WORDS + ["txt"]), min_size=2,
                                           max_size=3), max_size=3))
def test_stopwords_shape_queries_and_never_the_index(steps, stop, queries):
    """Writes each run with their own stopwords build the index that a
    rebuild makes and that the same writes make with none; a search drops
    its stopwords from the query terms and from their expansions, in each
    mode, for each word alone and for the drawn queries."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stopped, ids, texts = _run_steps(tmp, "stopped", steps, True)
        plain, plain_ids, _texts = _run_steps(tmp, "plain", steps, False)
        shutil.copytree(stopped, tmp / "copy")
        with open_catalog(tmp / "copy") as copy:
            indexmod.rebuild_index(copy)
            rebuilt = copy.index.to_dict()

        def renamed(path, ids):
            with open_catalog(path) as cat:
                rank = {oid: i for i, oid in enumerate(ids)}
                rank.update({cat.get_object(oid).root().id: i for i, oid in enumerate(ids)})
                return {term: sorted((rank[o], rank[n]) for o, n in posts)
                        for term, posts in cat.index.to_dict().items()}

        with open_catalog(stopped) as cat:
            assert cat.index.to_dict() == rebuilt
        assert renamed(stopped, ids) == renamed(plain, plain_ids)
        with open_catalog(stopped) as cat:
            for query, mode, expand in product([" ".join(q) for q in queries] + WORDS,
                                               ["any-term", "all-terms"], [False, True]):
                want = _naive_search(cat, texts, query, mode, expand, stop)
                search = lambda: indexmod.search(cat, query, mode=mode, stopwords=stop,
                                                 expand_with="syn" if expand else None)
                if want is None:
                    with pytest.raises(EmptyQuery):
                        search()
                else:
                    assert search() == want, (query, mode, expand)
