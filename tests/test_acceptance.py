"""Acceptance suite: one test per criterion, so `pytest -v` prints one
pass/fail line for each. Every oracle here is implemented independently
of the library code it checks."""

import copy
import hashlib
import itertools
import random
import re
import time

import pytest

from lakecat import open_catalog
from lakecat import auditlog, index, inter, intra, semantic
from lakecat.cli import run
from lakecat.ingest import ingest_file
from lakecat.model import SimilarityLink, new_id, now_utc, validate_hypernode

from conftest import FAULT_CLASSES, grow_persistence_catalog, random_valid_hypernode


def _tok(text):
    return [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]


# --- criterion 1: golden tree scenario via the CLI ---


def test_criterion_01_golden_tree_scenario(tmp_path, capsys):
    started = time.monotonic()
    cat = str(tmp_path / "cat")
    xml = tmp_path / "products.xml"
    xml.write_text("<products><p><name>A</name><price>3</price></p></products>")
    v2_file = tmp_path / "products_v2.xml"
    v2_file.write_text("<products><p><name>A</name><price>4</price></p></products>")

    def cli(*argv):
        assert run(["--catalog", cat, "--actor", "a", *argv]) == 0
        return capsys.readouterr().out.strip()

    cli("init")
    oid = cli("ingest", str(xml), "--origin", "internal source")
    with open_catalog(cat) as c:
        root = c.get_object(oid).root().id
    cli("represent", oid, "--parent", root, "--desc", "extract schema",
        "--format", "xml")
    v2 = cli("update", oid, "--parent", root, "--desc", "price change",
             "--locator", str(v2_file))
    cli("represent", oid, "--parent", v2, "--desc", "schema from v2",
        "--format", "xml")

    with open_catalog(cat) as c:
        h = c.get_object(oid)
        assert len(h.nodes) == 4
        assert len(h.edges) == 3
        assert h.root().kind == "version"
        root_node = h.root()
        from_root = [e for e in h.edges.values() if e.from_node == root_node.id]
        deeper = [e for e in h.edges.values() if e.from_node != root_node.id]
        path_order = (
            [e.kind for e in from_root
             if h.nodes[e.to_node].kind == "representation"]
            + [e.kind for e in from_root if h.nodes[e.to_node].kind == "version"]
            + [e.kind for e in deeper])
        assert path_order == ["transformation", "update", "transformation"]
        assert deeper[0].from_node == next(
            e.to_node for e in from_root if h.nodes[e.to_node].kind == "version")
    assert time.monotonic() - started < 5.0


# --- criterion 2: grouping scenario ---


def test_criterion_02_grouping_scenario(tmp_path):
    xml = tmp_path / "products.xml"
    xml.write_text("<products><p><name>A</name></p></products>")
    tweets = tmp_path / "tweets.json"
    tweets.write_text('[{"text": "opinions about products"}]')
    video = tmp_path / "ad.mp4"
    video.write_bytes(b"\x00\xfe\xff" * 64)

    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        xml_id = ingest_file(cat, xml, origin="internal source")
        tweets_id = ingest_file(cat, tweets, origin="external source")
        video_id = ingest_file(cat, video, origin="internal source")

        assert inter.group_by(cat, "origin").collections == {
            "external source": {tweets_id},
            "internal source": {xml_id, video_id},
        }
        assert inter.group_by(cat, "format_class").collections == {
            "unstructured": {video_id},
            "semi-structured": {xml_id, tweets_id},
        }


# --- criterion 3: six-feature coverage ---


def test_criterion_03_six_feature_coverage(tmp_path):
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        files = {}
        for name, text in [("cars.txt", "car prices by region"),
                           ("autos.txt", "automobile prices by maker"),
                           ("joined.txt", "car prices joined with makers")]:
            p = tmp_path / name
            p.write_text(text)
            files[name] = ingest_file(cat, p, origin="fleet")

        # SE: tagging plus thesaurus-merged grouping
        syn = tmp_path / "syn.txt"
        syn.write_text("car,automobile\n")
        semantic.load_resource(cat, syn)
        semantic.tag_object(cat, files["cars.txt"], ["car"])
        semantic.tag_object(cat, files["autos.txt"], ["automobile"])
        merged = semantic.group_by_tags(cat, thesaurus="syn").collections
        assert merged == {
            "automobile": {files["cars.txt"], files["autos.txt"]}}

        # DI: keyword search over the inverted index
        hits = index.search(cat, "prices", mode="any-term")
        assert {oid for oid, _score in hits} == set(files.values())

        # LG: similarity links, clusters, and parenthood lineage
        assert inter.link_all(cat, threshold=0.0) > 0
        assert any(len(c) > 1 for c in inter.clusters(cat, threshold=0.2))
        inter.add_parenthood(
            cat, [files["cars.txt"], files["autos.txt"]], files["joined.txt"])
        assert inter.lineage(cat, files["joined.txt"]) == {
            files["cars.txt"], files["autos.txt"]}

        # DP: two representations of one object
        oid = files["cars.txt"]
        root = cat.get_object(oid).root().id
        for desc in ("bag of words", "character histogram"):
            intra.add_representation(
                cat, oid, root,
                intra.TransformationSpec(description=desc, actor="a"))
        h = cat.get_object(oid)
        assert h.attributes["n_representations"] == 2

        # DV: branched versions from a common parent
        for i in range(2):
            alt = tmp_path / f"cars_v{i + 2}.txt"
            alt.write_text(f"car prices revision {i + 2}")
            intra.add_version(
                cat, oid, root,
                intra.UpdateSpec(description=f"rev {i + 2}", actor="a",
                                 produces_locator=str(alt)))
        h = cat.get_object(oid)
        assert h.attributes["n_versions"] == 3

        # UT: usage-log replay matches the live aggregates
        replayed = auditlog.replay_counts(cat.log.records())
        assert replayed["objects"] == 3
        assert replayed["versions"] == sum(
            cat.get_object(o).attributes["n_versions"] for o in cat.object_ids())
        assert replayed["representations"] == sum(
            cat.get_object(o).attributes["n_representations"]
            for o in cat.object_ids())


# --- criterion 4: index equals a naive full scan ---


def _naive_object_terms(cat, oid):
    h = cat.get_object(oid)
    terms = set(_tok(h.attributes.get("title", "")))
    terms |= set(_tok(h.description or ""))
    for tag in h.tags:
        terms |= set(_tok(tag.label))
    if h.summary is not None and h.summary.kind == "wordcloud":
        for term, _n in h.summary.payload:
            terms |= set(_tok(term))
    for node in h.nodes.values():
        if node.attributes.get("format") in ("text", "csv", "json", "xml"):
            if node.content_locator:
                try:
                    with open(node.content_locator, encoding="utf-8") as fh:
                        terms |= set(_tok(fh.read()))
                except OSError:
                    pass
    return terms


def _naive_search(cat, query, mode, classes):
    q_terms = list(dict.fromkeys(_tok(query)))
    docs = {oid: _naive_object_terms(cat, oid) for oid in cat.object_ids()}
    per_term = []
    for q in q_terms:
        variants = {q}
        for cls in classes:
            if q in cls:
                variants |= set(cls)
        per_term.append({oid for oid, terms in docs.items()
                         if terms & variants})
    if not per_term:
        return set()
    if mode == "all-terms":
        return set.intersection(*per_term)
    return set.union(*per_term)


def test_criterion_04_index_oracle_equivalence(tmp_path):
    started = time.monotonic()
    rng = random.Random(404)
    vocab = [f"word{i}" for i in range(40)]
    classes = [("word0", "word1"), ("word5", "word6", "word7")]

    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        syn = tmp_path / "syn.txt"
        syn.write_text("\n".join(",".join(cls) for cls in classes) + "\n")
        semantic.load_resource(cat, syn)
        for i in range(100):
            p = tmp_path / f"doc{i}.txt"
            p.write_text(" ".join(rng.choices(vocab, k=rng.randrange(3, 25))))
            oid = ingest_file(cat, p, origin="corpus")
            if rng.random() < 0.3:
                semantic.describe_object(cat, oid, rng.choice(vocab))

        checked = 0
        for _ in range(200):
            query = " ".join(rng.choices(vocab, k=rng.randrange(1, 4)))
            for mode in ("any-term", "all-terms"):
                for expand in (None, "syn"):
                    got = {oid for oid, _s in index.search(
                        cat, query, mode=mode, expand_with=expand)}
                    want = _naive_search(
                        cat, query, mode, classes if expand else [])
                    assert got == want, (query, mode, expand)
                    checked += 1
        assert checked == 800
    assert time.monotonic() - started < 60.0


# --- criterion 5: token-jaccard equals brute force ---


def test_criterion_05_similarity_oracle():
    rng = random.Random(505)
    vocab = [f"t{i}" for i in range(30)]
    for _ in range(1000):
        a = " ".join(rng.choices(vocab, k=rng.randrange(0, 20)))
        b = " ".join(rng.choices(vocab, k=rng.randrange(0, 20)))
        sa, sb = set(_tok(a)), set(_tok(b))
        if sa or sb:
            want = len(sa & sb) / len(sa | sb)
        else:
            want = 1.0
        got = inter.token_jaccard(a, b)
        assert abs(got - want) <= 1e-12
        assert got == inter.token_jaccard(b, a)
        assert inter.token_jaccard(a, a) == 1.0


# --- criterion 6: clusters and lineage equal brute-force graph oracles ---


def _brute_components(ids, edges):
    comps = []
    seen = set()
    adj = {i: set() for i in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for start in ids:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        comps.append(comp)
    return sorted(comps, key=min)


def test_criterion_06_graph_oracles(tmp_path):
    rng = random.Random(606)
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        ids = []
        for i in range(50):
            p = tmp_path / f"g{i}.txt"
            p.write_text(f"object number {i}")
            ids.append(ingest_file(cat, p, origin="graph"))

        weighted = []
        for a, b in rng.sample(list(itertools.combinations(ids, 2)), 120):
            value = rng.random()
            cat.add_similarity_link(SimilarityLink(
                id=new_id("lnk"), endpoints=(a, b), metric_name="token-jaccard",
                value=value, computed_at=now_utc(), compared_nodes=("x", "y")))
            weighted.append((a, b, value))

        comps_at = []
        for threshold in sorted(rng.random() for _ in range(20)):
            got = [set(c) for c in inter.clusters(cat, threshold)]
            edges = [(a, b) for a, b, v in weighted if v >= threshold]
            assert got == _brute_components(ids, edges)
            comps_at.append(got)
        # raising the threshold only ever refines the clustering
        for coarse, fine in zip(comps_at, comps_at[1:]):
            for cluster in fine:
                assert any(cluster <= c for c in coarse)

        child_links = []
        for _ in range(15):
            child_pos = rng.randrange(3, 50)
            parents = rng.sample(ids[:child_pos], rng.randrange(2, 4))
            child = ids[child_pos]
            key = (frozenset(parents), child)
            if key in child_links:
                continue
            child_links.append(key)
            inter.add_parenthood(cat, parents, child)

        step = {}
        for parents, child in child_links:
            step.setdefault(child, set()).update(parents)
        for oid in ids:
            closure, frontier = set(), [oid]
            while frontier:
                for p in step.get(frontier.pop(), ()):
                    if p not in closure:
                        closure.add(p)
                        frontier.append(p)
            assert inter.lineage(cat, oid, "ancestors") == closure


# --- criterion 7: validator fault injection ---


def test_criterion_07_validator_fault_injection():
    rng = random.Random(707)
    false_negatives = 0
    false_positives = 0
    for _ in range(500):
        clean = random_valid_hypernode(rng)
        if [v for v in validate_hypernode(clean) if not v.advisory]:
            false_positives += 1
        for name, (mutate, acceptable) in FAULT_CLASSES.items():
            mutated = copy.deepcopy(clean)
            mutate(mutated, rng)
            rules = {v.rule for v in validate_hypernode(mutated)}
            if not rules & acceptable:
                false_negatives += 1
    assert false_positives == 0
    assert false_negatives == 0


# --- criterion 8: log integrity over 1,000 interleaved mutations ---


def test_criterion_08_log_integrity(tmp_path):
    rng = random.Random(808)
    log_path = tmp_path / "cat" / "log.jsonl"
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        ids = []
        half_hash = None
        for i in range(1000):
            op = rng.choice(["create", "update", "represent", "tag", "describe"])
            if op == "create" or not ids:
                p = tmp_path / f"m{i}.txt"
                p.write_text(f"mutation {i}")
                ids.append(ingest_file(cat, p, origin="bulk"))
            elif op == "update":
                oid = rng.choice(ids)
                parent = intra.latest_version(cat.get_object(oid)).id
                intra.add_version(cat, oid, parent, intra.UpdateSpec(
                    description=f"rev {i}", actor="a",
                    produces_locator=f"/data/m{i}"))
            elif op == "represent":
                oid = rng.choice(ids)
                intra.add_representation(
                    cat, oid, cat.get_object(oid).root().id,
                    intra.TransformationSpec(description=f"view {i}", actor="a"))
            elif op == "tag":
                semantic.tag_object(cat, rng.choice(ids), [f"tag{i % 7}"])
            else:
                semantic.describe_object(cat, rng.choice(ids), f"note {i}")
            if i == 499:
                half_hash = hashlib.sha256(log_path.read_bytes()).hexdigest()
                half_size = log_path.stat().st_size

        records = cat.log.records()
        assert [r.seq for r in records] == list(range(1, 1001))
        with open(log_path, "rb") as fh:
            prefix = fh.read(half_size)
        assert hashlib.sha256(prefix).hexdigest() == half_hash

        replayed = auditlog.replay_counts(records)
        assert replayed["objects"] == len(cat.object_ids())
        assert replayed["versions"] == sum(
            cat.get_object(o).attributes["n_versions"] for o in cat.object_ids())
        assert replayed["representations"] == sum(
            cat.get_object(o).attributes["n_representations"]
            for o in cat.object_ids())


# --- criterion 9: persistence and crash atomicity ---


def test_criterion_09_persistence_and_crash_safety(tmp_path, monkeypatch):
    import lakecat.store as store

    path = tmp_path / "cat"
    with open_catalog(path, create_if_missing=True) as cat:
        grow_persistence_catalog(cat, tmp_path)
        before = cat.export()
    with open_catalog(path) as cat:
        assert cat.export() == before

        real_replace = store.os.replace
        calls = {"n": 0}

        def failing_replace(src, dst):
            calls["n"] += 1
            raise OSError("simulated crash")

        monkeypatch.setattr(store.os, "replace", failing_replace)
        p = tmp_path / "crash.txt"
        p.write_text("never committed")
        with pytest.raises(Exception):
            ingest_file(cat, p, origin="disk")
        monkeypatch.setattr(store.os, "replace", real_replace)
        assert calls["n"] >= 1
    with open_catalog(path) as cat:
        after = cat.export()
        assert after["objects"] == before["objects"]
        # the log never reports a create that did not become visible
        replayed = auditlog.replay_counts(cat.log.records())
        assert replayed["objects"] == len(cat.object_ids())


# --- criterion 10: incremental index equals a rebuild ---


def test_criterion_10_incremental_vs_rebuild(tmp_path):
    rng = random.Random(1010)
    vocab = [f"v{i}" for i in range(25)]
    with open_catalog(tmp_path / "cat", create_if_missing=True) as cat:
        ids = []
        for i in range(50):
            op = rng.choice(["ingest", "tag", "describe"])
            if op == "ingest" or not ids:
                p = tmp_path / f"i{i}.txt"
                p.write_text(" ".join(rng.choices(vocab, k=8)))
                ids.append(ingest_file(cat, p, origin="idx"))
            elif op == "tag":
                semantic.tag_object(cat, rng.choice(ids), [rng.choice(vocab)])
            else:
                semantic.describe_object(
                    cat, rng.choice(ids),
                    " ".join(rng.choices(vocab, k=3)))
        incremental = cat.index.to_dict()
        index.rebuild_index(cat)
        assert cat.index.to_dict() == incremental
