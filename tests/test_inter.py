import json
import random
import re
import tempfile
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import create_object
from lakecat import index as indexmod
from lakecat import ingest, inter, intra, open_catalog, semantic
from lakecat.errors import CycleDetected, NotComparable, NotFound, TooFewParents
from lakecat.model import Hypernode, SimilarityLink, new_link_id, now_utc


def make_text_object(catalog, make_text_file, content, title=None):
    path = make_text_file(content, name=title)
    return ingest.ingest_file(catalog, path, origin="test")


def make_binary_object(catalog, tmp_path, name="clip.mp4"):
    path = tmp_path / name
    path.write_bytes(bytes(range(256)) * 4)
    return ingest.ingest_file(catalog, path, origin="test")


def brute_tokens(text):
    return {t for t in re.split(r"[^0-9a-z]+", text.lower()) if t}


def brute_jaccard(text_a, text_b):
    a, b = brute_tokens(text_a), brute_tokens(text_b)
    if not (a | b):
        return 1.0
    return len(a & b) / len(a | b)


class TestComputeSimilarity:
    def test_token_jaccard_hand_value(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "the cat sat")
        b = make_text_object(catalog, make_text_file, "the dog sat")
        link = inter.compute_similarity(catalog, a, b)
        # oracle: |{the, sat}| / |{the, cat, sat, dog}|
        assert link.value == pytest.approx(0.5, abs=1e-12)

    def test_identical_documents(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "same words here")
        b = make_text_object(catalog, make_text_file, "same words here")
        assert inter.compute_similarity(catalog, a, b).value == 1.0

    def test_symmetry(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "alpha beta gamma")
        b = make_text_object(catalog, make_text_file, "beta gamma delta")
        v1 = inter.compute_similarity(catalog, a, b).value
        v2 = inter.compute_similarity(catalog, b, a).value
        assert v1 == v2
        # both directions land on the same stored link
        assert len(catalog.similarity_links()) == 1

    def test_not_comparable(self, catalog, tmp_path):
        video = make_binary_object(catalog, tmp_path)
        other = make_binary_object(catalog, tmp_path, "other.bin")
        with pytest.raises(NotComparable):
            inter.compute_similarity(catalog, video, other)

    def test_self_link_rejected(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "solo")
        with pytest.raises(NotComparable):
            inter.compute_similarity(catalog, a, a)

    def test_recompute_replaces(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "one two")
        b = make_text_object(catalog, make_text_file, "one three")
        inter.compute_similarity(catalog, a, b)
        inter.compute_similarity(catalog, a, b)
        assert len(catalog.similarity_links()) == 1

    def test_random_pairs_match_oracle(self, catalog, make_text_file):
        rng = random.Random(31)
        vocab = [f"w{i}" for i in range(12)]
        ids, texts = [], {}
        for _ in range(8):
            text = " ".join(rng.choices(vocab, k=rng.randrange(1, 15)))
            oid = make_text_object(catalog, make_text_file, text)
            ids.append(oid)
            texts[oid] = text
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                link = inter.compute_similarity(catalog, a, b)
                assert abs(link.value - brute_jaccard(texts[a], texts[b])) < 1e-12

    def test_schema_overlap(self, catalog, tmp_path):
        pa = tmp_path / "a.csv"
        pa.write_text("x,y\n1,2\n")
        pb = tmp_path / "b.csv"
        pb.write_text("y,z\n3,4\n")
        a = ingest.ingest_file(catalog, pa, origin="test")
        b = ingest.ingest_file(catalog, pb, origin="test")
        link = inter.compute_similarity(catalog, a, b, metric="schema-overlap")
        assert link.value == pytest.approx(1 / 3)


class TestLinkAllAndClusters:
    def test_threshold_zero_complete_graph(self, catalog, make_text_file):
        k = 4
        for i in range(k):
            make_text_object(catalog, make_text_file, f"doc number {i} common")
        count = inter.link_all(catalog, threshold=0.0)
        assert count == k * (k - 1) // 2

    def test_threshold_one_only_duplicates(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "identical text")
        b = make_text_object(catalog, make_text_file, "identical text")
        c = make_text_object(catalog, make_text_file, "entirely different")
        inter.link_all(catalog, threshold=1.0)
        pairs = {l.endpoints for l in catalog.similarity_links()}
        assert pairs == {tuple(sorted((a, b)))}

    def test_empty_catalog(self, catalog):
        assert inter.link_all(catalog) == 0
        assert inter.clusters(catalog, 0.5) == []

    def test_chain_clusters(self, catalog, make_text_file):
        a = make_text_object(catalog, make_text_file, "red green")
        b = make_text_object(catalog, make_text_file, "green blue")
        c = make_text_object(catalog, make_text_file, "blue yellow")
        inter.link_all(catalog, threshold=0.0)
        ab = next(l for l in catalog.similarity_links()
                  if set(l.endpoints) == {a, b}).value
        assert ab > 0
        low = inter.clusters(catalog, ab - 1e-9)
        assert {frozenset(g) for g in low if len(g) > 1}
        high = inter.clusters(catalog, 1.1 if ab >= 1 else ab + 0.5)
        assert all(len(g) == 1 for g in high)

    def test_clusters_match_brute_force(self, catalog, make_text_file):
        rng = random.Random(41)
        vocab = [f"t{i}" for i in range(6)]
        ids = [
            make_text_object(catalog, make_text_file,
                             " ".join(rng.choices(vocab, k=rng.randrange(1, 8))))
            for _ in range(12)
        ]
        inter.link_all(catalog, threshold=0.0)
        for threshold in [rng.random() for _ in range(10)]:
            got = {frozenset(g) for g in inter.clusters(catalog, threshold)}
            # brute force: grow components by repeated sweeps
            comp = {oid: {oid} for oid in ids}
            changed = True
            while changed:
                changed = False
                for link in catalog.similarity_links():
                    if link.value < threshold:
                        continue
                    a, b = link.endpoints
                    if comp[a] is not comp[b]:
                        merged = comp[a] | comp[b]
                        for member in merged:
                            comp[member] = merged
                        changed = True
            expected = {frozenset(s) for s in comp.values()}
            assert got == expected

    def test_threshold_monotone_refinement(self, catalog, make_text_file):
        rng = random.Random(43)
        vocab = [f"m{i}" for i in range(5)]
        for _ in range(10):
            make_text_object(catalog, make_text_file,
                             " ".join(rng.choices(vocab, k=rng.randrange(1, 7))))
        inter.link_all(catalog, threshold=0.0)
        t1, t2 = sorted(rng.random() for _ in range(2))
        coarse = inter.clusters(catalog, t1)
        fine = inter.clusters(catalog, t2)
        for part in fine:
            assert any(part <= whole for whole in coarse)


def brute_clusters(ids, edges) -> list:
    """Connected components of the stored `ids`, by a breadth-first
    search that scans every undirected edge at each step and steps only
    onto stored ids; in order of least member."""
    groups, seen = [], set()
    for start in sorted(ids):
        if start in seen:
            continue
        group, queue = {start}, deque([start])
        while queue:
            here = queue.popleft()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == here and y in ids and y not in group:
                        group.add(y)
                        queue.append(y)
        seen |= group
        groups.append(group)
    return groups


def store_similarity(catalog, a, b, metric, value) -> None:
    """Commit one similarity link, as link_all does; its endpoints need
    no object file."""
    catalog.commit("tester", [], links=[SimilarityLink(
        id=new_link_id(), endpoints=(a, b), metric_name=metric, value=value,
        computed_at=now_utc(), compared_nodes=("x", "y"))])


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_clusters_match_breadth_first_search_per_metric(catalog, seed):
    """Links under two metrics, among them one pair linked under both
    with one value above a threshold and one below, and links to an id
    with no object file: at each threshold and for each metric (or
    none), clusters are the components of the links it keeps."""
    rng = random.Random(seed)
    ids = sorted(create_object(catalog, f"lake/{i}.txt", {
        "title": f"t{i}", "origin": "o", "ingest_format": "text"}) for i in range(8))
    ghost = "obj_ghost"
    metrics = ["token-jaccard", "schema-overlap"]
    links = [(a, b, rng.choice(metrics), round(rng.random(), 2))
             for a, b in rng.sample(list(combinations(ids + [ghost], 2)), 10)]
    links += [(ids[0], ids[1], metrics[0], 0.8), (ids[0], ids[1], metrics[1], 0.3),
              (ids[2], ghost, metrics[0], 0.9), (ids[3], ghost, metrics[0], 0.9)]
    for a, b, metric, value in links:
        store_similarity(catalog, a, b, metric, value)
    kept = {l.key(): l.value for l in catalog.similarity_links()}  # the latest per key
    assert kept[(ids[0], ids[1], metrics[0])] > 0.5 > kept[(ids[0], ids[1], metrics[1])]
    assert kept[(ids[2], ghost, metrics[0])] == kept[(ids[3], ghost, metrics[0])] == 0.9
    for threshold in sorted({0.0, 0.5, 1.0, *kept.values()}):
        for metric in [None, *metrics]:
            edges = [(a, b) for (a, b, m), value in kept.items()
                     if value >= threshold and metric in (None, m)]
            assert inter.clusters(catalog, threshold, metric) == brute_clusters(set(ids), edges)


def write_random_lake(tmp_path, rng):
    """Text files (some empty), CSV files (one empty) and one video.
    Returns {path: {metric: the operand expected for that file}}; a
    metric absent for a file cannot compare it."""
    vocab = [f"v{i}" for i in range(10)]
    lake = {}
    for i in range(7):
        text = " ".join(rng.choices(vocab, k=rng.choice([0, 0, 1, 3, 6])))
        path = tmp_path / f"t{i}.txt"
        path.write_text(text)
        lake[path] = {"token-jaccard": brute_tokens(text)}
    for i in range(4):
        header = rng.sample(vocab, rng.randrange(1, 4)) if i else []
        text = f"{','.join(header)}\n{','.join('1' * len(header))}\n" if header else ""
        path = tmp_path / f"c{i}.csv"
        path.write_text(text)
        lake[path] = {"token-jaccard": brute_tokens(text), "schema-overlap": set(header)}
    video = tmp_path / "clip.mp4"
    video.write_bytes(bytes(range(256)) * 4)
    lake[video] = {}
    return lake


class TestLinkAllLoadOnce:
    @pytest.mark.parametrize("metric", ["token-jaccard", "schema-overlap"])
    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_matches_brute_force_all_pairs(self, tmp_path, metric, seed):
        rng = random.Random(seed)
        lake = write_random_lake(tmp_path, rng)
        for n, threshold in enumerate([0.0, 1.0, rng.random()]):
            with open_catalog(tmp_path / f"cat{n}", create_if_missing=True) as cat:
                operand = {}
                for path, operands in lake.items():
                    oid = ingest.ingest_file(cat, path, origin="test")
                    if metric in operands:
                        operand[oid] = operands[metric]
                want = {}
                for a, b in combinations(sorted(operand), 2):
                    union = operand[a] | operand[b]
                    value = len(operand[a] & operand[b]) / len(union) if union else 1.0
                    if value >= threshold:
                        want[(a, b)] = value
                assert inter.link_all(cat, metric=metric, threshold=threshold) == len(want)
                links = cat.similarity_links()
                assert {l.endpoints: l.value for l in links} == want
                for link in links:
                    a, b = link.endpoints
                    assert link.metric_name == metric
                    assert link.compared_nodes == (cat.get_object(a).root().id,
                                                   cat.get_object(b).root().id)

    def test_each_object_read_and_tokenized_once(self, catalog, make_text_file,
                                                 monkeypatch):
        for i in range(5):
            make_text_object(catalog, make_text_file, f"doc {i} shared words")
        reads, tokenized = [], []
        real_get, real_tokenize = catalog.get_object, indexmod.tokenize
        monkeypatch.setattr(catalog, "get_object",
                            lambda oid, **kw: reads.append(oid) or real_get(oid, **kw))
        monkeypatch.setattr(indexmod, "tokenize",
                            lambda text: tokenized.append(text) or real_tokenize(text))
        assert inter.link_all(catalog) == 10
        assert sorted(reads) == catalog.object_ids()
        assert len(tokenized) == 5

    def test_links_and_events_group_committed(self, catalog, make_text_file, fsyncs):
        k = 4
        for i in range(k):
            make_text_object(catalog, make_text_file, f"doc {i} common")
        fsyncs.clear()
        assert inter.link_all(catalog, threshold=0.0) == k * (k - 1) // 2
        assert sum(fsyncs.values()) == 2
        catalog.close()
        with open_catalog(catalog.root) as cat:
            lines = cat.links_path.read_text().splitlines()
            assert len(lines) == k * (k - 1) // 2
            records = cat.log.records()
            assert sum(r.action == "Link" for r in records) == len(lines)
            assert [r.seq for r in records] == list(range(1, len(records) + 1))

    def test_unknown_metric_rejected_before_reading(self, catalog):
        with pytest.raises(NotFound):
            inter.link_all(catalog, metric="no-such-metric")


def _links_and_events(cat) -> tuple:
    """(the records of links.jsonl, the Link events of the log)."""
    records = [json.loads(line) for line in cat.links_path.read_text().splitlines()]
    return records, [r for r in cat.log.records() if r.action == "Link"]


class TestLinkAllReRuns:
    """A link_all run stores and logs only the links it finds that have no
    stored link, or whose stored link differs in value or compared nodes."""

    @pytest.fixture
    def three(self, catalog, make_text_file):
        """Paths and ids of three texts: the pairs' values are 2/3, 1/4, 0."""
        paths = [make_text_file(text) for text in ("red green blue", "red green", "blue yellow")]
        return paths, [ingest.ingest_file(catalog, p, origin="test") for p in paths]

    def test_re_runs_append_nothing(self, catalog, three):
        for _ in range(3):
            assert inter.link_all(catalog) == 3
        records, events = _links_and_events(catalog)
        assert (len(records), len(events)) == (3, 3)
        files = {p: p.read_bytes() for p in (catalog.links_path, catalog.log_path)}
        assert inter.link_all(catalog, threshold=0.5) == 1
        assert {p: p.read_bytes() for p in files} == files
        with pytest.raises(ValueError, match="actor must be non-empty"):
            inter.link_all(catalog, actor="")

    def test_a_re_run_appends_the_pairs_whose_value_changed(self, catalog, three):
        (a, b, c), ids = three
        inter.link_all(catalog)
        Path(c).write_text("blue yellow red")  # a-c: 2/4, b-c: 1/4, a-b unchanged
        assert inter.link_all(catalog) == 3
        records, events = _links_and_events(catalog)
        pair = lambda x, y: sorted((ids[x], ids[y]))
        assert [(r["endpoints"], r["value"]) for r in records[3:]] == sorted(
            [(pair(0, 2), 0.5), (pair(1, 2), 0.25)])
        assert [(e.target, e.detail["other"], e.detail["value"]) for e in events[3:]] == [
            (*r["endpoints"], r["value"]) for r in records[3:]]

    def test_a_re_run_appends_the_pairs_whose_compared_node_changed(self, catalog, three,
                                                                    make_text_file):
        _paths, ids = three
        inter.link_all(catalog)
        root = catalog.get_object(ids[1]).root().id
        version = intra.add_version(catalog, ids[1], root, intra.UpdateSpec(
            description="same words", actor="t", produces_locator=make_text_file("green red")),
            {"format": "text"})
        assert inter.link_all(catalog) == 3
        records, _events = _links_and_events(catalog)
        assert len(records) == 5 and all(version in r["compared_nodes"] for r in records[3:])
        assert {tuple(r["endpoints"]): r["value"] for r in records[3:]} == {
            tuple(r["endpoints"]): r["value"] for r in records[:3] if ids[1] in r["endpoints"]}


FAMILIES = st.lists(st.frozensets(st.sampled_from(["v0", "v1", "v2", "v3", "v4"])),
                    min_size=2, max_size=6)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["token-jaccard", "schema-overlap"]), FAMILIES, st.data())
def test_link_all_stores_brute_force_jaccard_in_pair_order(metric, family, data):
    """Over small operand families (empty, equal and subset sets come up
    often) and a binary object no metric compares: the stored
    (endpoints, value, compared_nodes) records, in file order, are the
    brute-force set Jaccard of every pair in id order whose value reaches
    the threshold, values bit for bit. The thresholds include every
    pair's exact value, where a comparison that is off by one drops or
    keeps the wrong pairs."""
    with tempfile.TemporaryDirectory() as tmp, \
            open_catalog(f"{tmp}/cat", create_if_missing=True) as cat:
        video = Path(tmp, "clip.mp4")
        video.write_bytes(bytes(range(256)) * 4)
        ingest.ingest_file(cat, video, origin="t")
        operand = {}
        for i, words in enumerate(family):
            if metric == "token-jaccard":
                path, text = Path(tmp, f"f{i}.txt"), " ".join(sorted(words))
            else:
                header = ",".join(sorted(words))
                path = Path(tmp, f"f{i}.csv")
                text = f"{header}\n{','.join('1' * len(words))}\n" if words else ""
            path.write_text(text)
            operand[ingest.ingest_file(cat, path, origin="t")] = set(words)
        pairs = list(combinations(sorted(operand), 2))
        values = []
        for a, b in pairs:
            union = operand[a] | operand[b]
            values.append(len(operand[a] & operand[b]) / len(union) if union else 1.0)
        threshold = data.draw(st.sampled_from(sorted({0.0, 1.0, *values})))
        want = []
        for (a, b), value in zip(pairs, values):
            if value >= threshold:
                want.append(([a, b], value.hex(),
                             [cat.get_object(a).root().id, cat.get_object(b).root().id]))
        assert inter.link_all(cat, metric=metric, threshold=threshold) == len(want)
        records = [json.loads(line) for line in cat.links_path.read_text().splitlines()] \
            if want else []
        assert [(r["endpoints"], r["value"].hex(), r["compared_nodes"])
                for r in records] == want


class TestGroupBy:
    def test_group_by_origin(self, catalog, tmp_path, make_text_file):
        xml = tmp_path / "products.xml"
        xml.write_text("<products><p><name>A</name></p></products>")
        xml_id = ingest.ingest_file(catalog, xml, origin="internal source")
        tweets = tmp_path / "tweets.json"
        tweets.write_text('[{"text": "hi"}]')
        tweets_id = ingest.ingest_file(catalog, tweets, origin="external source")
        video = tmp_path / "ad.mp4"
        video.write_bytes(b"\x00\x01\xff" * 50)
        video_id = ingest.ingest_file(catalog, video, origin="internal source")

        g = inter.group_by(catalog, "origin")
        assert g.collections == {
            "external source": {tweets_id},
            "internal source": {xml_id, video_id},
        }
        g2 = inter.group_by(catalog, "format_class")
        assert g2.collections == {
            "unstructured": {video_id},
            "semi-structured": {xml_id, tweets_id},
        }

    def test_absent_attribute(self, catalog, make_text_file):
        make_text_object(catalog, make_text_file, "something")
        g = inter.group_by(catalog, "no-such-attribute")
        assert g.collections == {}

    def test_grouping_persisted(self, catalog, make_text_file):
        make_text_object(catalog, make_text_file, "something")
        inter.group_by(catalog, "origin")
        [stored] = catalog.groupings()
        assert stored.parameter == "origin" and set(stored.collections) == {"test"}


def seed_objects(catalog, make_text_file, n):
    return [make_text_object(catalog, make_text_file, f"doc {i}") for i in range(n)]


class TestParenthood:
    def test_single_hop_lineage(self, catalog, make_text_file):
        a, b, c = seed_objects(catalog, make_text_file, 3)
        inter.add_parenthood(catalog, {a, b}, c)
        assert inter.lineage(catalog, c, "ancestors") == {a, b}

    def test_cycle_detected(self, catalog, make_text_file):
        a, b, c, d = seed_objects(catalog, make_text_file, 4)
        inter.add_parenthood(catalog, {a, b}, c)
        with pytest.raises(CycleDetected):
            inter.add_parenthood(catalog, {c, d}, a)

    def test_too_few_parents(self, catalog, make_text_file):
        a, b = seed_objects(catalog, make_text_file, 2)
        with pytest.raises(TooFewParents):
            inter.add_parenthood(catalog, {a}, b)

    def test_unknown_object(self, catalog, make_text_file):
        a, b = seed_objects(catalog, make_text_file, 2)
        with pytest.raises(NotFound):
            inter.add_parenthood(catalog, {a, "obj_ghost"}, b)

    def test_transitive_lineage_bfs(self, catalog, make_text_file):
        a, b, c, d, e = seed_objects(catalog, make_text_file, 5)
        inter.add_parenthood(catalog, {a, b}, c)
        inter.add_parenthood(catalog, {c, d}, e)
        assert inter.lineage(catalog, e, "ancestors") == {c, d, a, b}
        assert inter.lineage(catalog, a, "descendants") == {c, e}

    def test_lineage_on_a_diamond_with_a_repeated_pair_matches_brute_force(
            self, catalog, make_text_file):
        """a and b are the parents of c and of d; c and d are the parents
        of e twice, and c and f once more, so the pair (c, e) is repeated
        three times and (d, e) twice. Each direction equals the fixed
        point of adding the neighbors of the set found so far, swept over
        every link."""
        a, b, c, d, e, f = seed_objects(catalog, make_text_file, 6)
        for parents, child in [({a, b}, c), ({a, b}, d), ({c, d}, e), ({c, f}, e),
                               ({c, d}, e)]:
            inter.add_parenthood(catalog, parents, child)
        links = [(link.parents, link.child) for link in catalog.parenthood_links()]
        assert len(links) == 5
        for oid in (a, b, c, d, e, f):
            for direction in ("ancestors", "descendants"):
                found, grown = set(), True
                while grown:
                    grown = False
                    for parents, child in links:
                        if direction == "ancestors":
                            step = parents if child in found | {oid} else set()
                        else:
                            step = {child} if parents & (found | {oid}) else set()
                        if not step <= found:
                            found |= step
                            grown = True
                assert inter.lineage(catalog, oid, direction) == found, (oid, direction)
        assert inter.lineage(catalog, e, "ancestors") == {a, b, c, d, f}
        assert inter.lineage(catalog, a, "descendants") == {c, d, e}

    def test_directions_are_converses(self, catalog, make_text_file):
        rng = random.Random(53)
        ids = seed_objects(catalog, make_text_file, 8)
        for _ in range(5):
            child = rng.choice(ids)
            parents = set(rng.sample([x for x in ids if x != child], 2))
            try:
                inter.add_parenthood(catalog, parents, child)
            except CycleDetected:
                pass
        for a in ids:
            for b in ids:
                assert (b in inter.lineage(catalog, a, "ancestors")) == (
                    a in inter.lineage(catalog, b, "descendants")
                )

    def test_parenthood_links_keep_each_hyperedge(self, catalog, make_text_file):
        a, b, c, d, e = seed_objects(catalog, make_text_file, 5)
        inter.add_parenthood(catalog, {a, b}, c)
        inter.add_parenthood(catalog, {a, d}, e)
        links = catalog.parenthood_links()
        assert [(link.parents, link.child) for link in links] == [({a, b}, c), ({a, d}, e)]

        def co_parents(obj):
            return set().union(*(link.parents for link in links if obj in link.parents)) - {obj}
        assert co_parents(a) == {b, d}
        assert co_parents(b) == {a}
        assert co_parents(c) == set()


class TestRecommend:
    def test_no_links_empty(self, catalog, make_text_file):
        (a,) = seed_objects(catalog, make_text_file, 1)
        assert inter.recommend(catalog, a) == []

    def test_ranking(self, catalog, make_text_file):
        a = seed_objects(catalog, make_text_file, 1)[0]
        b = seed_objects(catalog, make_text_file, 1)[0]  # distinct files
        c = seed_objects(catalog, make_text_file, 1)[0]
        catalog.add_similarity_link(_mklink(a, b, 0.9))
        catalog.add_similarity_link(_mklink(a, c, 0.4))
        assert inter.recommend(catalog, a, k=1) == [(b, 0.9)]

    def test_tag_tiebreak(self, catalog, make_text_file):
        a, b, c = seed_objects(catalog, make_text_file, 3)
        catalog.add_similarity_link(_mklink(a, b, 0.5))
        catalog.add_similarity_link(_mklink(a, c, 0.5))
        semantic.tag_object(catalog, a, {"sales", "products"})
        semantic.tag_object(catalog, b, {"sales", "products"})
        got = inter.recommend(catalog, a, k=2)
        assert got[0][0] == b and got[1][0] == c

    def test_reads_objects_only_to_break_ties(self, catalog, make_text_file, monkeypatch):
        a, b, c, d, e, f = seed_objects(catalog, make_text_file, 6)
        reads = []
        for name in ("get_object", "object_field"):  # the two reads of an object
            monkeypatch.setattr(catalog, name, lambda oid, *args, _real=getattr(catalog, name),
                                **kw: reads.append(oid) or _real(oid, *args, **kw))
        catalog.commit("tester", [], links=[_mklink(a, b, 0.9), _mklink(a, c, 0.5),
                                            _mklink(a, d, 0.3), _mklink(e, f, 0.3)])
        assert inter.recommend(catalog, a, k=2) == [(b, 0.9), (c, 0.5)]
        assert reads == []
        # c and d tie inside the top 2 and reach past it; e and f tie
        # below it
        catalog.commit("tester", [], links=[_mklink(a, d, 0.5), _mklink(a, e, 0.1),
                                            _mklink(a, f, 0.1)])
        assert inter.recommend(catalog, a, k=2) == [(b, 0.9), (min(c, d), 0.5)]
        assert sorted(reads) == sorted([a, c, d])


def test_groupings_and_recommend_construct_no_hypernode(catalog, make_text_file, monkeypatch):
    """On a warm handle the groupings and a recommend decode only the
    field they read from each object: no Hypernode is constructed."""
    a, b, c = seed_objects(catalog, make_text_file, 3)
    semantic.tag_object(catalog, a, ["red"])
    semantic.tag_object(catalog, b, ["red", "blue"])
    catalog.commit("tester", [], links=[_mklink(a, b, 0.9), _mklink(a, c, 0.5)])
    for oid in (a, b, c):
        catalog.get_object(oid)
    built = []
    real_init = Hypernode.__init__
    monkeypatch.setattr(Hypernode, "__init__",
                        lambda self, *args, **kw: built.append(1) or real_init(self, *args, **kw))
    assert inter.group_by(catalog, "origin").collections == {"test": {a, b, c}}
    assert semantic.group_by_tags(catalog).collections == {"red": {a, b}, "blue": {b}}
    assert inter.recommend(catalog, a, k=2) == [(b, 0.9), (c, 0.5)]
    assert built == []
    catalog.get_object(a)  # the count sees a whole object's decode
    assert built == [1]


LABELS = ["red", "blue", "green"]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.data())
def test_recommend_matches_brute_force_ranking(n, data):
    """Random tags and links whose values come from a set of three, so
    ties are frequent, some pairs linked under both metrics: every
    object's top k for every k equals the ranking by (-best value,
    -shared tags, id)."""
    with tempfile.TemporaryDirectory() as tmp, \
            open_catalog(f"{tmp}/cat", create_if_missing=True) as cat:
        ids = [create_object(cat, f"/lake/{i}.txt", {
            "title": f"t{i}", "origin": "o", "ingest_format": "text"}) for i in range(n)]
        tags = {}
        for oid in ids:
            tags[oid] = data.draw(st.sets(st.sampled_from(LABELS)))
            if tags[oid]:
                semantic.tag_object(cat, oid, tags[oid])
        links, best = [], {}
        for a, b in combinations(ids, 2):
            for metric in data.draw(st.sets(st.sampled_from(sorted(inter.METRICS)))):
                value = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
                links.append(_mklink(a, b, value, metric))
                for x, y in ((a, b), (b, a)):
                    best.setdefault(x, {})
                    best[x][y] = max(best[x].get(y, 0.0), value)
        cat.commit("tester", [], links=links)
        for obj in ids:
            mine = best.get(obj, {})
            ranked = sorted(mine.items(), key=lambda kv: (
                -kv[1], -len(tags[obj] & tags[kv[0]]), kv[0]))
            for k in range(1, n):
                assert inter.recommend(cat, obj, k=k) == ranked[:k]


def _mklink(a, b, value, metric="token-jaccard"):
    from lakecat.model import SimilarityLink, new_link_id, now_utc

    return SimilarityLink(id=new_link_id(), endpoints=(a, b),
                          metric_name=metric, value=value,
                          computed_at=now_utc(), compared_nodes=("na", "nb"))
