"""Seeded fuzzing of damaged catalog files through the CLI.

Each case copies a small catalog, changes the type of one JSON value in
one of its files, or drops one key (a thesaurus, which is not JSON,
gets one damaged line), and runs a fixed list of commands through
`cli.run`. No exception may escape, every exit code is 0, 1 or 3, and a
write command that fails leaves every catalog file as it was.

`fuzz(template, ids, work, seed)` runs one case; a longer run loops it
over more seeds.
"""

import hashlib
import json
import random
import shutil
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from conftest import catalog_files
from lakecat.cli import run

# a value of each JSON type; a damage picks one whose type differs
VALUES = [None, True, -1, 0.5, "x", [], {}, [1, 2], {"k": 1}]

FILE_KINDS = ["object", "links", "log", "grouping", "index", "manifest", "thesaurus"]

# a class of one term, no terms, a repeated term, a byte that is not UTF-8
THESAURUS_DAMAGE = ["car", ",,", "car, auto, car", "\udcff"]


def build_template(root: Path) -> dict:
    """A catalog at `root` with every kind of file: three objects with
    tags and a description, similarity and parenthood links, a grouping,
    a thesaurus and logged accesses. Returns the ids the commands use."""
    assert _run(root, "init")[0] == 0
    texts = {"a.txt": "red green car", "b.txt": "green blue auto", "c.txt": "blue red"}
    ids = []
    for name, text in texts.items():
        (root.parent / name).write_text(text, encoding="utf-8")
        ids.append(_run(root, "ingest", str(root.parent / name), "--origin", "t",
                        "--tags", "x", name[0])[1])
    (root.parent / "words.txt").write_text("car, auto\nred, crimson\n", encoding="utf-8")
    for argv in (["describe", ids[0], "a red thing"], ["link-all"],
                 ["parent", "--parents", ids[0], ids[1], "--child", ids[2]],
                 ["group", "--by", "origin"], ["resource", "load", str(root.parent / "words.txt")],
                 ["search", "red", "--record-access"]):
        assert _run(root, *argv)[0] == 0, argv
    return {"a": ids[0], "b": ids[1], "c": ids[2]}


def commands(ids: dict) -> list:
    """(argv, whether it writes) of the fixed command list."""
    a, b, c = ids["a"], ids["b"], ids["c"]
    return [(["show", a], False), (["show", b, "--tree"], False),
            (["search", "red"], False), (["search", "car", "--expand", "words",
                                          "--record-access"], True),
            (["tag", a, "zeta"], True), (["describe", b, "new text"], True),
            (["log"], False), (["log", "--top", "5"], False), (["lineage", c], False),
            (["clusters", "--threshold", "0"], False),
            (["link", a, c], True), (["group", "--by", "origin"], True),
            (["export"], False), (["validate"], False)]


def _run(root, *argv):
    out = StringIO()
    with redirect_stdout(out):
        code = run(["--catalog", str(root), "--actor", "fuzz", *argv])
    return code, out.getvalue().strip()


def _slots(value, out):
    """Append (container, key) of every value nested in `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def damage_json(value, rng: random.Random) -> None:
    """Change the type of one value nested in `value`, or drop one key."""
    container, key = rng.choice(_slots(value, []))
    if isinstance(container, dict) and rng.random() < 0.3:
        del container[key]
        return
    old = container[key]
    container[key] = rng.choice([v for v in VALUES if type(v) is not type(old)])


def damage(root: Path, kind: str, rng: random.Random) -> Path:
    """Damage one file of `kind` in the catalog at `root`; its path."""
    path = rng.choice(sorted({
        "object": (root / "objects").glob("*.json"), "links": [root / "links.jsonl"],
        "log": [root / "log.jsonl"], "grouping": (root / "groupings").glob("*.json"),
        "index": [root / "index" / "terms.json"], "manifest": [root / "manifest.json"],
        "thesaurus": (root / "resources").glob("*.txt")}[kind]))
    lines = path.read_text(encoding="utf-8").splitlines()
    i = rng.randrange(len(lines))
    if kind == "thesaurus":
        lines[i] = rng.choice(THESAURUS_DAMAGE)
    else:
        doc = json.loads(lines[i])
        damage_json(doc, rng)
        lines[i] = json.dumps(doc)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return path


def fuzz(template: Path, ids: dict, work: Path, seed: int) -> int:
    """Run case `seed` in a copy of `template` at `work`; the number of
    commands run. Fails an assertion at the first escape, stray exit
    code or half-written change."""
    rng = random.Random(seed)
    root = work / "cat"
    shutil.copytree(template, root)
    kind = FILE_KINDS[seed % len(FILE_KINDS)]
    damaged = damage(root, kind, rng)
    try:
        for argv, writes in commands(ids):
            before = catalog_files(root)
            try:
                code, _ = _run(root, *argv)
            except Exception as exc:
                raise AssertionError(f"seed {seed}: {damaged.name} damaged, {argv} raised "
                                     f"{type(exc).__name__}: {exc}") from exc
            assert code in (0, 1, 3), (seed, damaged.name, argv, code)
            if writes and code:
                assert catalog_files(root) == before, (seed, damaged.name, argv, "files changed")
    finally:
        shutil.rmtree(root)
    return len(commands(ids))


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    root = tmp_path_factory.mktemp("template") / "cat"
    return root, build_template(root)


@pytest.mark.parametrize("block", range(4))
def test_damaged_files_exit_cleanly(template, tmp_path, capsys, block):
    """35 seeded cases per block, five of each file kind."""
    root, ids = template
    for seed in range(block * 35, (block + 1) * 35):
        fuzz(root, ids, tmp_path, seed)


# Damages of the log checkpoint, a derived file that readers must
# ignore unless it matches the log's bytes.
CHECKPOINT_DAMAGE = ["deleted", "truncated", "not-json", "mistyped", "offset-past-end",
                     "offset-mid-line", "other-digest"]


def damage_checkpoint(root: Path, kind: str, rng: random.Random) -> None:
    path, data = root / "log.checkpoint.json", (root / "log.jsonl").read_bytes()
    text = path.read_text(encoding="utf-8")
    record = json.loads(text)
    if kind == "deleted":
        path.unlink()
        return
    if kind == "truncated":
        text = text[:rng.randrange(len(text))]
    elif kind == "not-json":
        text = rng.choice(["", "null", "{", "[1, 2]", text.replace(":", "=", 1)])
    else:
        if kind == "mistyped":  # one value, at any depth, of another type
            container, key = rng.choice(_slots(record, []))
            container[key] = rng.choice([v for v in VALUES
                                         if type(v) is not type(container[key])])
        elif kind == "offset-past-end":
            record["offset"] = len(data) + rng.randint(1, 100)
        elif kind == "offset-mid-line":
            record["offset"] = rng.choice([i for i in range(1, len(data))
                                           if data[i - 1:i] != b"\n"])
        else:  # a digest of other bytes
            record["digest"] = hashlib.sha256(data[:rng.randrange(len(data))]).hexdigest()
        text = json.dumps(record)
    path.write_text(text, encoding="utf-8")


def replayed_top(root: Path) -> str:
    """`log --top 5` output replayed from the log's lines alone."""
    lines = (root / "log.jsonl").read_text(encoding="utf-8").splitlines()
    counts = Counter(r["target"] for r in map(json.loads, lines) if r["action"] == "Access")
    return "\n".join(f"{n}\t{oid}" for oid, n in
                     sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5])


@pytest.fixture(scope="module")
def checkpoint_template(tmp_path_factory):
    """The template catalog, grown by 25 recorded searches of three
    records each, so that a checkpoint covers most of its log."""
    root = tmp_path_factory.mktemp("checkpointed") / "cat"
    ids = build_template(root)
    for _ in range(25):
        assert _run(root, "search", "red", "--record-access")[0] == 0
    assert json.loads((root / "log.checkpoint.json").read_text())["seq"] > 64
    return root, ids


def test_a_damaged_checkpoint_is_ignored(checkpoint_template, tmp_path, capsys):
    """28 seeded cases, four of each damage: every command exits as it
    does with no checkpoint, and `log --top` equals a replay of the log."""
    template, ids = checkpoint_template
    free = tmp_path / "free"
    shutil.copytree(template, free)
    (free / "log.checkpoint.json").unlink()
    want = [_run(free, *argv)[0] for argv, _ in commands(ids)]
    for seed in range(28):
        rng = random.Random(seed)
        root = tmp_path / "cat"
        shutil.copytree(template, root)
        kind = CHECKPOINT_DAMAGE[seed % len(CHECKPOINT_DAMAGE)]
        damage_checkpoint(root, kind, rng)
        assert _run(root, "log", "--top", "5") == (0, replayed_top(root)), (seed, kind)
        for (argv, _), code in zip(commands(ids), want):
            try:
                assert _run(root, *argv)[0] == code, (seed, kind, argv)
            except Exception as exc:
                raise AssertionError(f"seed {seed}: checkpoint {kind}, {argv} raised "
                                     f"{type(exc).__name__}: {exc}") from exc
        assert _run(root, "log", "--top", "5") == (0, replayed_top(root)), (seed, kind)
        shutil.rmtree(root)
