import copy
import errno
import hashlib
import json
import os
import random
import types

import pytest

from lakecat import auditlog, codec, ingest, inter, intra, semantic
from lakecat.errors import StorageFull


def make_doc(catalog, make_text_file, content="words here"):
    return ingest.ingest_file(catalog, make_text_file(content), origin="test")


def log_search(catalog, actor, query):
    """The seq of a Search event logged by Catalog.commit."""
    catalog.commit(actor, [("Search", query, None)])
    return catalog.log.records()[-1].seq


class TestRecordEvent:
    def test_first_event_seq_one(self, catalog):
        assert log_search(catalog, "alice", "query") == 1

    def test_empty_actor_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.commit("", [("Search", "query", None)])

    def test_interleaved_sequence_no_gaps(self, catalog, make_text_file):
        rng = random.Random(79)
        ids = [make_doc(catalog, make_text_file, f"doc {i}") for i in range(3)]
        for _ in range(60):
            op = rng.randrange(3)
            oid = rng.choice(ids)
            if op == 0:
                semantic.tag_object(catalog, oid, {f"t{rng.randrange(9)}"})
            elif op == 1:
                h = catalog.get_object(oid)
                intra.add_representation(
                    catalog, oid, h.root().id,
                    intra.TransformationSpec(description="x", actor="bot"),
                )
            else:
                semantic.describe_object(catalog, oid, "note")
        seqs = [r.seq for r in catalog.log.records()]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_seq_continues_across_reopen(self, catalog):
        from lakecat import open_catalog

        catalog.commit("a", [("Search", "q1", None)])
        root = catalog.root
        catalog.close()
        with open_catalog(root) as cat2:
            assert log_search(cat2, "a", "q2") == 2

    def test_seq_continues_from_the_last_line_alone(self, catalog, monkeypatch):
        """The next seq is read backward from the end of the file, across
        a last line longer than one read and blank lines after it."""
        from lakecat import open_catalog

        for i in range(50):
            catalog.commit("a", [("Search", f"q{i}", None)])
        catalog.commit("a", [("Search", "long " * 2000, None)])
        catalog.close()
        with open(catalog.log_path, "a", encoding="utf-8") as f:
            f.write("\n  \n")

        def whole_log_read(*args):
            raise AssertionError("an append parsed the whole log")

        monkeypatch.setattr(auditlog, "read_records", whole_log_read)
        with open_catalog(catalog.root) as cat:
            cat.commit("a", [("Search", "next", None)])
            cat.commit("a", [("Search", "after", None)])
            monkeypatch.undo()
            assert [(r.seq, r.target) for r in cat.log.records()[-2:]] == [(52, "next"),
                                                                           (53, "after")]


class TestRecordsCache:
    def test_one_parse_until_the_next_append(self, catalog, make_text_file, opened_files):
        make_doc(catalog, make_text_file)
        opened_files.clear()
        catalog.validate()
        catalog.export()
        auditlog.access_report(catalog, 5)
        assert opened_files.count(catalog.log_path) == 1
        records = catalog.log.records()
        records.clear()  # a copy: the kept list is untouched
        assert len(catalog.log.records()) == 1
        catalog.commit("a", [("Search", "q", None)])
        assert [r.action for r in catalog.log.records()] == ["Create", "Search"]


class TestEventsFor:
    def test_untouched_object_create_only(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file)
        actions = [r.action for r in auditlog.events_for(catalog, oid)]
        assert actions == ["Create"]

    def test_golden_scenario_sequence(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file)
        root = catalog.get_object(oid).root()
        intra.add_representation(catalog, oid, root.id,
                                 intra.TransformationSpec(description="schema", actor="u"))
        v2 = intra.add_version(catalog, oid, root.id,
                               intra.UpdateSpec(description="prices", actor="u",
                                                produces_locator="/tmp/v2"))
        intra.add_representation(catalog, oid, v2,
                                 intra.TransformationSpec(description="schema v2", actor="u"))
        actions = [r.action for r in auditlog.events_for(catalog, oid)]
        assert actions == ["Create", "Transform", "Update", "Transform"]

    def test_count_matches_raw_scan(self, catalog, make_text_file):
        oid = make_doc(catalog, make_text_file)
        semantic.tag_object(catalog, oid, {"a"})
        raw = [
            json.loads(line)
            for line in catalog.log_path.read_text().splitlines()
            if line.strip()
        ]
        oracle = sum(1 for r in raw if r["target"] == oid)
        assert len(auditlog.events_for(catalog, oid)) == oracle


class TestAccessReport:
    def test_no_accesses_empty(self, catalog, make_text_file):
        make_doc(catalog, make_text_file)
        assert auditlog.access_report(catalog, top_k=5) == []

    def test_ranking(self, catalog, make_text_file):
        a = make_doc(catalog, make_text_file, "one")
        b = make_doc(catalog, make_text_file, "two")
        for _ in range(3):
            catalog.get_object(a, record_access=True, actor="u")
        catalog.get_object(b, record_access=True, actor="u")
        assert auditlog.access_report(catalog, top_k=1) == [(a, 3)]

    def test_matches_group_count_oracle(self, catalog, make_text_file):
        rng = random.Random(83)
        ids = [make_doc(catalog, make_text_file, f"d{i}") for i in range(4)]
        for _ in range(30):
            catalog.get_object(rng.choice(ids), record_access=True, actor="u")
        raw = [
            json.loads(line)
            for line in catalog.log_path.read_text().splitlines()
            if line.strip()
        ]
        counts = {}
        for r in raw:
            if r["action"] == "Access":
                counts[r["target"]] = counts.get(r["target"], 0) + 1
        oracle = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert auditlog.access_report(catalog, top_k=10) == oracle[:10]


class TestAppendOnly:
    def test_prefix_hash_stable(self, catalog, make_text_file):
        make_doc(catalog, make_text_file)
        snapshot = catalog.log_path.read_bytes()
        digest = hashlib.sha256(snapshot).hexdigest()
        oid = make_doc(catalog, make_text_file, "more")
        semantic.tag_object(catalog, oid, {"t"})
        grown = catalog.log_path.read_bytes()
        assert grown[: len(snapshot)] == snapshot
        assert hashlib.sha256(grown[: len(snapshot)]).hexdigest() == digest

    def test_replay_reconstructs_counts(self, catalog, make_text_file):
        rng = random.Random(89)
        ids = [make_doc(catalog, make_text_file, f"r{i}") for i in range(3)]
        for _ in range(25):
            oid = rng.choice(ids)
            h = catalog.get_object(oid)
            if rng.random() < 0.5:
                versions = [n for n in h.nodes.values() if n.kind == "version"]
                intra.add_version(
                    catalog, oid, rng.choice(versions).id,
                    intra.UpdateSpec(description="u", actor="b",
                                     produces_locator="/tmp/x"),
                )
            else:
                parent = rng.choice(list(h.nodes.values()))
                intra.add_representation(
                    catalog, oid, parent.id,
                    intra.TransformationSpec(description="t", actor="b"),
                )
        replayed = auditlog.replay_counts(catalog.log.records())
        versions = representations = 0
        for oid, attrs in catalog.list_objects():
            versions += attrs["n_versions"]
            representations += attrs["n_representations"]
        assert replayed == {
            "objects": len(ids),
            "versions": versions,
            "representations": representations,
        }


class TestAppendRecords:
    def test_full_disk_is_storage_full_and_keeps_seq(self, catalog, monkeypatch):
        catalog.commit("a", [("Search", "q1", None)])

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(auditlog, "open", full_disk, raising=False)
        with pytest.raises(StorageFull):
            catalog.commit("a", [("Search", "q2", None)])
        monkeypatch.undo()
        assert log_search(catalog, "a", "q3") == 2

    def test_other_os_errors_propagate(self, tmp_path, monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(auditlog, "open", unreadable, raising=False)
        with pytest.raises(PermissionError):
            auditlog.append_records(tmp_path / "x.jsonl", [{"n": 1}])

    def test_one_write_and_one_fsync_for_many_records(self, tmp_path, fsyncs):
        path = tmp_path / "x.jsonl"
        auditlog.append_records(path, [{"n": i, "s": "é"} for i in range(3)])
        auditlog.append_records(path, [])
        assert fsyncs["auditlog"] == 1
        assert path.read_text(encoding="utf-8").splitlines() == [
            json.dumps({"n": i, "s": "é"}, ensure_ascii=False) for i in range(3)
        ]


def _os_with(**overrides):
    """A stand-in for auditlog's `os` with some functions replaced."""
    proxy = types.SimpleNamespace(**vars(os))
    vars(proxy).update(overrides)
    return proxy


class TestFailedAppend:
    def test_failed_fsync_leaves_no_record_and_no_seq_reuse(self, catalog, monkeypatch):
        from lakecat import open_catalog

        catalog.commit("a", [("Search", "q1", None)])
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def fsync_fails_once(fd):
            if failures:
                raise failures.pop()
            os.fsync(fd)

        monkeypatch.setattr(auditlog, "os", _os_with(fsync=fsync_fails_once))
        with pytest.raises(StorageFull):
            catalog.commit("a", [("Search", "q2", None)])
        assert log_search(catalog, "a", "q3") == 2
        monkeypatch.undo()
        assert [(r.seq, r.target) for r in catalog.log.records()] == [(1, "q1"), (2, "q3")]
        catalog.close()
        with open_catalog(catalog.root) as cat:
            assert [r.seq for r in cat.log.records()] == [1, 2]
            assert log_search(cat, "a", "q4") == 3

    def test_torn_links_write_leaves_a_catalog_that_reopens(self, catalog, make_text_file,
                                                            monkeypatch):
        from lakecat import open_catalog

        a, b = (make_doc(catalog, make_text_file, t) for t in ("red green", "green blue"))
        log_before = catalog.log_path.read_bytes()
        real_open = open

        class FullAfterTenBytes:
            """A file whose first write stores 10 bytes, then the disk is full."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data[:10])

            def __getattr__(self, name):
                return getattr(self.f, name)

        def torn_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            appending = "a" in mode and str(path).endswith("links.jsonl")
            return FullAfterTenBytes(f) if appending else f

        monkeypatch.setattr(auditlog, "open", torn_open, raising=False)
        with pytest.raises(StorageFull):
            inter.compute_similarity(catalog, a, b)
        monkeypatch.undo()
        assert catalog.links_path.read_bytes() == b""
        assert catalog.log_path.read_bytes() == log_before
        assert catalog.similarity_links() == []
        catalog.close()
        with open_catalog(catalog.root) as cat:
            assert cat.similarity_links() == []
            assert cat.log_path.read_bytes() == log_before


def test_a_new_handle_reads_the_files_whatever_an_old_one_changed(catalog, make_text_file):
    """Changing what one handle's reads return leaves what a new handle
    in the same process reads as the files hold it: no read hands out a
    container that outlives its handle."""
    from lakecat import open_catalog

    a, b = (make_doc(catalog, make_text_file, t) for t in ("red green", "green blue"))
    inter.compute_similarity(catalog, a, b)
    catalog.commit("ann", [("Search", "q", {"hits": 1, "nested": {"k": [1]}})])
    catalog.close()

    def reads(cat):
        return (cat.export(), [codec.encode(r) for r in cat.log.records()],
                [codec.encode(r) for r in auditlog.events_for(cat, a)],
                [codec.encode(link) for link in cat.similarity_links()])

    with open_catalog(catalog.root) as cat:
        want = copy.deepcopy(reads(cat))
    with open_catalog(catalog.root) as cat:
        for record in cat.log.records() + auditlog.events_for(cat, a):
            record.detail["x"] = 1
            for value in record.detail.values():
                if isinstance(value, dict):
                    value.clear()
            record.actor = "mallory"
        for record in cat.export()["log"]:
            record["detail"]["y"] = 2
            record["actor"] = "mallory"
        for link in cat.similarity_links():
            link.value, link.endpoints = -1.0, ("z", "z")
    with open_catalog(catalog.root) as cat:
        assert reads(cat) == want
