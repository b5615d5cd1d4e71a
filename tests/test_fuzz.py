"""Seeded fuzzing of damaged catalog files through the CLI.

Each case copies a small catalog, changes the type of one JSON value in
one of its files, or drops one key (a thesaurus, which is not JSON,
gets one damaged line), and runs a fixed list of commands through
`cli.run`. No exception may escape, every exit code is 0, 1 or 3, and a
write command that fails leaves every catalog file as it was.

`fuzz(template, ids, work, seed)` runs one case; a longer run loops it
over more seeds.
"""

import json
import random
import shutil
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
