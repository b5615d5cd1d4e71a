"""The log checkpoint, `log.checkpoint.json`: a derived record of the
log's first bytes (their length, the seq of their last record, their
digest and each object's Access count). `access_report` trusts it only
while the log's bytes match it, and then parses only the records after
it; `Catalog.commit` rewrites it once the log has grown past it by a
fixed share; read commands never write it."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import catalog_files
from lakecat import auditlog, import_catalog, open_catalog, store
from lakecat.cli import run
from lakecat.errors import CorruptCatalog
from lakecat.ingest import ingest_file

ACTOR = "tester"


def access(cat, targets) -> None:
    """One commit of an Access event for each of `targets`."""
    cat.commit(ACTOR, [(auditlog.ACTION_ACCESS, t, {}) for t in targets])


def replay(root) -> dict:
    """Object -> Access events, from the log's lines read as plain JSON."""
    lines = (Path(root) / "log.jsonl").read_text(encoding="utf-8").splitlines()
    return dict(Counter(r["target"] for r in map(json.loads, lines) if r["action"] == "Access"))


def ranked(counts: dict, k: int = 5) -> list:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def checkpoint_path(root) -> Path:
    return Path(root) / "log.checkpoint.json"


def stored(root) -> dict:
    return json.loads(checkpoint_path(root).read_text(encoding="utf-8"))


@pytest.fixture
def checkpointed(tmp_path) -> Path:
    """The root of a closed catalog of 75 records whose checkpoint
    covers the first 64."""
    root = tmp_path / "cat"
    with open_catalog(root, create_if_missing=True) as cat:
        for i in range(65):
            access(cat, [f"o{i % 3}"])
        assert stored(root)["seq"] == 64  # written by the 65th commit, before its append
        access(cat, ["o1"] * 10)
    return root


def test_the_checkpoint_covers_the_log_before_the_commit_that_writes_it(catalog):
    for i in range(64):
        access(catalog, [f"o{i % 5}"])
    assert not checkpoint_path(catalog.root).exists()
    before = catalog.log_path.read_bytes()
    access(catalog, ["o9"])
    assert stored(catalog.root) == {
        "offset": len(before), "seq": 64, "digest": hashlib.sha256(before).hexdigest(),
        "access": dict(Counter(f"o{i % 5}" for i in range(64)))}


def test_a_thousand_commits_write_the_checkpoint_at_most_62_times(catalog, monkeypatch):
    written = []
    write = store.atomic_write_text

    def counting(path, text, durable=True):
        if path == catalog.log.checkpoint_path:
            written.append(json.loads(text)["seq"])
        write(path, text, durable)

    monkeypatch.setattr(store, "atomic_write_text", counting)
    for i in range(1000):
        access(catalog, [f"o{i % 7}"])
    assert 0 < len(written) <= 1000 // 16
    # a new one once the records after the stored one reach a quarter of
    # those it covers, and at least 64
    assert written == [64, 128, 192, 256, 320, 400, 500, 625, 781, 976]
    assert auditlog.access_report(catalog, 7) == ranked(replay(catalog.root), 7)
    assert catalog.validate() == []


def test_access_report_parses_only_the_records_after_the_checkpoint(checkpointed, monkeypatch):
    parsed = []
    parser = auditlog.record_parser

    def counting_parser(last=0):
        parse = parser(last)
        return lambda d: parsed.append(d["seq"]) or parse(d)

    monkeypatch.setattr(auditlog, "record_parser", counting_parser)
    with open_catalog(checkpointed) as cat:
        assert auditlog.access_report(cat, 3) == ranked(replay(checkpointed), 3)
        assert parsed == list(range(65, 76))
        assert cat.log._records is None  # the whole log was not parsed


def test_a_handle_that_parsed_the_log_counts_from_it(checkpointed, opened_files):
    """validate, then access_report, as a batch of commands on one
    handle runs them: access_report reads no file."""
    with open_catalog(checkpointed) as cat:
        assert cat.validate() == []
        opened_files.clear()
        assert auditlog.access_report(cat, 3) == ranked(replay(checkpointed), 3)
    assert opened_files == []


@pytest.mark.parametrize("damage", ["missing", "not-json", "mistyped", "offset-past-end",
                                    "offset-mid-line", "offset-zero", "offset-negative",
                                    "other-digest", "of-another-log"])
def test_a_checkpoint_that_does_not_match_the_log_is_ignored(checkpointed, tmp_path, damage):
    want = ranked(replay(checkpointed))
    path = checkpoint_path(checkpointed)
    record = stored(checkpointed)
    data = (checkpointed / "log.jsonl").read_bytes()
    last_line = len(data) - data.rstrip(b"\n").rfind(b"\n") - 1
    if damage == "of-another-log":
        with open_catalog(tmp_path / "other", create_if_missing=True) as other:
            for i in range(70):
                access(other, [f"x{i % 2}"])
        path.write_bytes(checkpoint_path(tmp_path / "other").read_bytes())
    elif damage == "missing":
        path.unlink()
    elif damage == "not-json":
        path.write_text(path.read_text()[:-3])
    else:
        record.update({
            "mistyped": {"access": {"o1": "7"}},
            "offset-past-end": {"offset": len(data) + 1},
            # of the digest of the bytes they would slice
            "offset-mid-line": {"offset": record["offset"] - 5,
                                "digest": hashlib.sha256(data[:record["offset"] - 5]).hexdigest()},
            "offset-zero": {"offset": 0},
            "offset-negative": {"offset": -last_line,
                                "digest": hashlib.sha256(data[:-last_line]).hexdigest()},
            "other-digest": {"digest": hashlib.sha256(b"other").hexdigest()}}[damage])
        path.write_text(json.dumps(record))
    with open_catalog(checkpointed) as cat:
        assert auditlog.access_report(cat, 5) == want
        assert cat.validate() == []


def test_read_commands_never_write_the_checkpoint(checkpointed):
    checkpoint_path(checkpointed).unlink()
    before = catalog_files(checkpointed)
    for argv in (["log", "--top", "5"], ["log"], ["log", "--object", "o1"], ["validate"],
                 ["export"]):
        assert run(["--catalog", str(checkpointed), *argv]) == 0
    assert catalog_files(checkpointed) == before


def test_a_commit_writes_the_checkpoint_before_any_other_file(checkpointed, make_text_file,
                                                              monkeypatch):
    written = []
    for module, name in ((store, "atomic_write_text"), (auditlog, "append_records")):
        def recording(path, *args, _write=getattr(module, name), **kwargs):
            written.append(Path(path).name)
            return _write(path, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    with open_catalog(checkpointed) as cat:
        access(cat, ["o0"] * 60)
        written.clear()
        oid = ingest_file(cat, make_text_file("alpha beta"), origin="t")
    assert written == ["log.checkpoint.json", f"{oid}.json", "terms.json", "log.jsonl"]
    assert stored(checkpointed)["seq"] == 135


def test_a_failed_later_write_leaves_a_checkpoint_of_the_unchanged_log(checkpointed,
                                                                         monkeypatch):
    with open_catalog(checkpointed) as cat:
        access(cat, ["o0"] * 60)
        before = cat.log_path.read_bytes()

        def full(path, rows):
            raise OSError("disk gone")

        monkeypatch.setattr(auditlog, "append_records", full)
        with pytest.raises(OSError, match="disk gone"):
            access(cat, ["o2"])
    monkeypatch.undo()
    assert (checkpointed / "log.jsonl").read_bytes() == before
    assert stored(checkpointed)["offset"] == len(before)
    with open_catalog(checkpointed) as cat:
        assert auditlog.access_report(cat, 5) == ranked(replay(checkpointed))
        assert cat.validate() == []


def test_a_damaged_record_the_commit_would_fold_fails_it_before_any_write(checkpointed):
    """The records after the checkpoint are parsed and checked before a
    commit folds them in; the log's last line alone gives the next seq."""
    with open_catalog(checkpointed) as cat:
        access(cat, ["o0"] * 60)
    log = checkpointed / "log.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[80] = json.dumps({**json.loads(lines[80]), "target": 5})
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = catalog_files(checkpointed)
    with open_catalog(checkpointed) as cat:
        with pytest.raises(CorruptCatalog, match="line 81"):
            access(cat, ["o2"])
    assert catalog_files(checkpointed) == before


def test_export_and_import_leave_the_checkpoint_out(checkpointed, tmp_path):
    with open_catalog(checkpointed) as cat:
        doc = cat.export()
    checkpoint_path(checkpointed).unlink()
    with open_catalog(checkpointed) as cat:
        assert cat.export() == doc
    with import_catalog(tmp_path / "copy", doc) as copy:
        assert not checkpoint_path(copy.root).exists()
        access(copy, ["o1"])  # 75 records and no checkpoint: the first commit makes one
        assert stored(copy.root)["seq"] == 75
        assert auditlog.access_report(copy, 5) == ranked(replay(copy.root))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=12))
def test_access_report_equals_a_replay_after_any_commits(tmp_path_factory, steps):
    """Commits of any size, some on a fresh handle: the counts from the
    checkpoint and the records after it equal a replay of the whole log,
    and validate finds the checkpoint consistent."""
    root = tmp_path_factory.mktemp("cat")
    cat = open_catalog(root, create_if_missing=True)
    try:
        for n, reopen in steps:
            if reopen:
                cat.close()
                cat = open_catalog(root)
            access(cat, [f"o{(n * i) % 5}" for i in range(n)] or ["o4"])
            with store.Catalog(root) as reader:  # a fresh handle, which takes no lock
                assert reader.log.access_counts() == replay(root)
        assert cat.validate() == []
    finally:
        cat.close()
