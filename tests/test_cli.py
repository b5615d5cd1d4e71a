import argparse
import gc
import getpass
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import catalog_files
from lakecat import inter, intra, open_catalog, store
from lakecat.cli import COMMANDS, build_parser, run
from lakecat.errors import CorruptCatalog


@pytest.fixture
def cat_path(tmp_path):
    path = tmp_path / "cat"
    assert run(["--catalog", str(path), "init"]) == 0
    return str(path)


def cli(cat_path, *argv, capsys=None):
    code = run(["--catalog", cat_path, "--actor", "tester", *argv])
    out = capsys.readouterr().out if capsys else ""
    return code, out.strip()


def exit_code(argv) -> int:
    """The exit status of `lakecat argv`, whether run returns it or
    argparse exits with it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_has_help(name, capsys):
    assert exit_code([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: lakecat {name} ")


def test_no_command_lists_every_command(capsys):
    assert run([]) == 2
    err = capsys.readouterr().err
    for name in COMMANDS:
        assert re.search(rf"^  {re.escape(name)} +{re.escape(COMMANDS[name][0])}$", err, re.M)


def test_resource_without_action_is_usage_error(cat_path, capsys):
    assert exit_code(["--catalog", cat_path, "resource"]) == 2


def test_one_command_builds_at_most_two_parsers(cat_path, tmp_path, capsys, monkeypatch):
    p = tmp_path / "d.txt"
    p.write_text("alpha")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["--catalog", cat_path, "show", oid]) == 0
    assert len(built) <= 2, built


def test_init_creates_catalog(tmp_path, capsys):
    code = run(["--catalog", str(tmp_path / "c"), "init"])
    assert code == 0
    assert (tmp_path / "c" / "manifest.json").exists()


def _tree(path) -> list:
    return sorted((p.relative_to(path), p.read_bytes() if p.is_file() else None)
                  for p in path.rglob("*"))


@pytest.mark.parametrize("argv", [["show", "x"], ["search", "alpha"]])
def test_a_read_command_leaves_a_plain_directory_as_it_was(tmp_path, capsys, argv):
    plain = tmp_path / "plain"
    (plain / "sub").mkdir(parents=True)
    (plain / "notes.txt").write_text("mine", encoding="utf-8")
    before = _tree(plain)
    assert run(["--catalog", str(plain), *argv]) == 1
    assert capsys.readouterr().err == f"error: no catalog at {plain}\n"
    assert _tree(plain) == before
    assert run(["--catalog", str(plain), "init"]) == 0
    assert (plain / "manifest.json").exists() and (plain / "notes.txt").read_text() == "mine"
    assert run(["--catalog", str(plain), "validate"]) == 0


# outcome -> (argv after --catalog, exit code or the exception run raises)
GC_OUTCOMES = {
    "exit 0": (["validate"], 0),
    "exit 1": (["show", "obj_missing"], 1),
    "exit 2 from argparse": (["show"], 2),
    "exit 2 from a ValueError": (["link-all", "--threshold", "2"], 2),
    "exit 3": (["search", "alpha"], 3),
    "uncaught exception": (["validate"], RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", list(GC_OUTCOMES))
def test_run_restores_the_gc_state_it_found(cat_path, monkeypatch, capsys, outcome, enabled):
    """run gives back the GC state it found after every outcome, and
    runs the command's handler with the GC paused."""
    argv, expected = GC_OUTCOMES[outcome]
    if outcome == "exit 3":
        (Path(cat_path) / "index" / "terms.json").write_text("{", encoding="utf-8")
    seen = []  # gc.isenabled() in the handler

    def boom(cat, args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")
    if expected is RuntimeError:
        help_line, arguments, _handler = COMMANDS["validate"]
        monkeypatch.setitem(COMMANDS, "validate", (help_line, arguments, boom))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if expected is RuntimeError:
            with pytest.raises(RuntimeError, match="boom"):
                run(["--catalog", cat_path, *argv])
            assert seen == [False]
        else:
            assert exit_code(["--catalog", cat_path, *argv]) == expected
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_missing_catalog_flag_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("MEDAL_CATALOG", raising=False)
    assert run(["validate"]) == 2


def test_env_var_supplies_catalog(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MEDAL_CATALOG", str(tmp_path / "c"))
    assert run(["init"]) == 0


def _counting_parsers(monkeypatch) -> list:
    """The progs of the argparse parsers constructed from now on."""
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_process_builds_each_parser_once(cat_path, capsys, monkeypatch):
    assert run(["--catalog", cat_path, "validate"]) == 0
    built = _counting_parsers(monkeypatch)
    for _ in range(3):
        assert run(["--catalog", cat_path, "validate"]) == 0
    assert built == []


def test_env_var_is_read_at_every_run(tmp_path, monkeypatch, capsys):
    for name in ("a", "b"):
        monkeypatch.setenv("MEDAL_CATALOG", str(tmp_path / name))
        assert run(["init"]) == 0
        assert capsys.readouterr().out == f"catalog ready at {tmp_path / name}\n"
    monkeypatch.delenv("MEDAL_CATALOG")
    assert run(["validate"]) == 2
    assert "no catalog given" in capsys.readouterr().err


def test_login_name_is_read_at_every_run(cat_path, tmp_path, monkeypatch, capsys):
    p = tmp_path / "d.txt"
    p.write_text("alpha")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    for user in ("ann", "bob"):
        monkeypatch.setattr(getpass, "getuser", lambda: user)
        assert run(["--catalog", cat_path, "tag", oid, user]) == 0
    capsys.readouterr()
    code, out = cli(cat_path, "log", "--json", capsys=capsys)
    assert [(r["actor"], r["action"]) for r in json.loads(out)] == [
        ("tester", "Create"), ("ann", "Tag"), ("bob", "Tag")]


def test_empty_actor_is_usage_error_on_a_reused_parser(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("alpha")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    before = catalog_files(cat_path)
    for _ in range(2):
        assert run(["--catalog", cat_path, "--actor", "", "tag", oid, "x"]) == 2
        assert "actor must be non-empty" in capsys.readouterr().err
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("name", [None, *COMMANDS])
def test_a_reused_parser_prints_the_help_of_a_fresh_one(name, cat_path, monkeypatch, capsys):
    """--help prints what a parser built afresh prints, however the
    environment changed since the parser was built."""
    argv = ["--help"] if name is None else [name, "--help"]
    fresh = build_parser(name).format_help()
    for user in ("ann", "bob"):
        monkeypatch.setattr(getpass, "getuser", lambda: user)
        monkeypatch.setenv("MEDAL_CATALOG", f"/{user}/catalog")
        assert exit_code(argv) == 0
        assert capsys.readouterr().out == fresh
        assert run(["--catalog", cat_path, "validate"]) == 0


def test_golden_scenario_tree(cat_path, tmp_path, capsys):
    xml = tmp_path / "products.xml"
    xml.write_text("<products><p><name>A</name><price>3</price></p></products>")
    code, oid = cli(cat_path, "ingest", str(xml), "--origin", "internal source",
                    capsys=capsys)
    assert code == 0

    code, out = cli(cat_path, "show", oid, "--json", capsys=capsys)
    doc = json.loads(out)
    root = doc["nodes"][0]["id"]

    code, _r1 = cli(cat_path, "represent", oid, "--parent", root,
                    "--desc", "extract schema", "--format", "xml", capsys=capsys)
    assert code == 0

    v2_xml = tmp_path / "products_v2.xml"
    v2_xml.write_text("<products><p><name>A</name><price>4</price></p></products>")
    code, v2 = cli(cat_path, "update", oid, "--parent", root,
                   "--desc", "price change", "--locator", str(v2_xml), capsys=capsys)
    assert code == 0

    code, _r2 = cli(cat_path, "represent", oid, "--parent", v2,
                    "--desc", "schema from v2", "--format", "xml", capsys=capsys)
    assert code == 0

    code, out = cli(cat_path, "show", oid, "--json", capsys=capsys)
    doc = json.loads(out)
    assert len(doc["nodes"]) == 4
    assert len(doc["edges"]) == 3

    code, out = cli(cat_path, "log", capsys=capsys)
    actions = [line.split("\t")[3] for line in out.splitlines()]
    assert actions == ["Create", "Transform", "Update", "Transform"]


def test_group_by_origin_scenario(cat_path, tmp_path, capsys):
    xml = tmp_path / "products.xml"
    xml.write_text("<products><p><name>A</name></p></products>")
    tweets = tmp_path / "tweets.json"
    tweets.write_text('[{"text": "great products"}]')
    video = tmp_path / "ad.mp4"
    video.write_bytes(b"\x00\xfe\xff" * 40)

    _, xml_id = cli(cat_path, "ingest", str(xml), "--origin", "internal source",
                    capsys=capsys)
    _, tweets_id = cli(cat_path, "ingest", str(tweets), "--origin", "external source",
                       capsys=capsys)
    _, video_id = cli(cat_path, "ingest", str(video), "--origin", "internal source",
                      capsys=capsys)

    code, out = cli(cat_path, "group", "--by", "origin", "--json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["collections"] == {
        "external source": sorted([tweets_id]),
        "internal source": sorted([xml_id, video_id]),
    }

    code, out = cli(cat_path, "group", "--by", "format_class", "--json", capsys=capsys)
    doc = json.loads(out)
    assert doc["collections"] == {
        "unstructured": [video_id],
        "semi-structured": sorted([xml_id, tweets_id]),
    }


def test_search_tab_output_and_exit_codes(cat_path, tmp_path, capsys):
    doc = tmp_path / "notes.txt"
    doc.write_text("metadata about the lake")
    _, oid = cli(cat_path, "ingest", str(doc), "--origin", "t", capsys=capsys)

    code, out = cli(cat_path, "search", "metadata", capsys=capsys)
    assert code == 0
    score, got_id, title = out.split("\t")
    assert (score, got_id, title) == ("1", oid, "notes.txt")

    code, _ = cli(cat_path, "search", "...", capsys=capsys)
    assert code == 2  # tokenizes to no terms: usage error with synopsis

    code, _ = cli(cat_path, "show", "obj_missing", capsys=capsys)
    assert code == 1  # domain error


def test_update_indexes_the_new_version(cat_path, tmp_path, capsys):
    v1 = tmp_path / "v1.txt"
    v1.write_text("first draft")
    _, oid = cli(cat_path, "ingest", str(v1), "--origin", "t", capsys=capsys)
    root = json.loads(cli(cat_path, "show", oid, "--json", capsys=capsys)[1])["nodes"][0]["id"]
    v2 = tmp_path / "v2.txt"
    v2.write_text("second draft about zebras")
    code, _ = cli(cat_path, "update", oid, "--parent", root, "--desc", "redraft",
                  "--locator", str(v2), capsys=capsys)
    assert code == 0
    code, out = cli(cat_path, "search", "zebras", "--json", capsys=capsys)
    assert (code, json.loads(out)) == (0, [[oid, 1]])


def test_link_clusters_lineage_flow(cat_path, tmp_path, capsys):
    ids = []
    for i, text in enumerate(["red green", "green blue", "totally else"]):
        p = tmp_path / f"d{i}.txt"
        p.write_text(text)
        _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
        ids.append(oid)

    code, out = cli(cat_path, "link", ids[0], ids[1], capsys=capsys)
    assert code == 0 and float(out) > 0

    code, out = cli(cat_path, "link-all", "--threshold", "0.0", capsys=capsys)
    assert code == 0

    code, out = cli(cat_path, "clusters", "--threshold", "0.99", "--json", capsys=capsys)
    assert json.loads(out) == [[oid] for oid in sorted(ids)]

    code, _ = cli(cat_path, "parent", "--parents", ids[0], ids[1],
                  "--child", ids[2], capsys=capsys)
    assert code == 0
    code, out = cli(cat_path, "lineage", ids[2], "--json", capsys=capsys)
    assert json.loads(out) == sorted(ids[:2])


def test_tag_describe_resource_group_tags(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("words")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    code, out = cli(cat_path, "tag", oid, "Car", capsys=capsys)
    assert code == 0 and "car" in out

    syn = tmp_path / "syn.txt"
    syn.write_text("car,automobile\n")
    code, name = cli(cat_path, "resource", "load", str(syn), capsys=capsys)
    assert (code, name) == (0, "syn")

    code, out = cli(cat_path, "group", "--by", "tags", "--thesaurus", "syn",
                    "--json", capsys=capsys)
    assert json.loads(out)["collections"] == {"automobile": [oid]}

    code, out = cli(cat_path, "search", "automobile", "--expand", "syn",
                    "--json", capsys=capsys)
    assert json.loads(out) == [[oid, 1]]


def test_validate_and_export_round_trip(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("exportable content")
    cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)

    code, _ = cli(cat_path, "validate", capsys=capsys)
    assert code == 0

    code, out = cli(cat_path, "export", capsys=capsys)
    assert code == 0
    doc = json.loads(out)

    from lakecat import import_catalog

    with import_catalog(tmp_path / "copy", doc) as copy_cat:
        assert copy_cat.export() == doc


def test_every_mutation_logged_once(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("content")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    cli(cat_path, "tag", oid, "x", capsys=capsys)
    cli(cat_path, "describe", oid, "a note", capsys=capsys)
    code, out = cli(cat_path, "log", "--json", capsys=capsys)
    records = json.loads(out)
    assert [r["seq"] for r in records] == [1, 2, 3]


def test_log_top_report(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("content findme")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    cli(cat_path, "search", "findme", "--record-access", capsys=capsys)
    code, out = cli(cat_path, "log", "--top", "3", capsys=capsys)
    assert out.splitlines() == [f"1\t{oid}"]


def assert_corruption_exit(cat_path, capsys, argv, *in_err):
    code = run(["--catalog", cat_path, *argv])
    err = capsys.readouterr().err
    assert code == 3, argv
    assert err.startswith("error:") and all(s in err for s in in_err), (argv, err)


def test_torn_log_line_is_corruption_exit(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    log = Path(cat_path) / "log.jsonl"
    whole = log.read_text(encoding="utf-8")
    log.write_text(whole + '{"seq": 9, "at', encoding="utf-8")
    # the commands that append take the next seq from the torn last line,
    # before they write anything
    before = catalog_files(cat_path)
    for argv in (["tag", oid, "delta"], ["search", "alpha", "--record-access"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "torn last line")
    assert catalog_files(cat_path) == before
    # the commands that read the whole log name the line
    for argv in (["log"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "line 2")
    # a search that records nothing does not read the log
    assert cli(cat_path, "search", "alpha", capsys=capsys) == (0, f"1\t{oid}\td.txt")
    # a malformed line in the middle, under a whole last line
    lines = whole.splitlines()
    lines.insert(1, '{"seq": 9, "at')
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for argv in (["log"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "line 2")


def test_a_last_line_with_no_newline_is_torn_for_every_command(cat_path, tmp_path, capsys):
    """A whole last record with its newline cut is a torn line for the
    commands that read the whole file, as for those that append."""
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue")):
        (tmp_path / name).write_text(text)
        _, oid = cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t", capsys=capsys)
    assert cli(cat_path, "link-all", capsys=capsys)[0] == 0
    assert cli(cat_path, "validate", capsys=capsys)[0] == 0  # reads both files whole
    log, links = Path(cat_path) / "log.jsonl", Path(cat_path) / "links.jsonl"
    log.write_bytes(log.read_bytes().rstrip(b"\n"))
    before = catalog_files(cat_path)
    for argv in (["tag", oid, "delta"], ["search", "red", "--record-access"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "torn last line")
    for argv in (["log"], ["log", "--top", "5"], ["log", "--object", oid], ["validate"],
                 ["export"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "torn last line at line 3")
    assert catalog_files(cat_path) == before
    links.write_bytes(links.read_bytes().rstrip(b"\n"))
    for argv in (["clusters", "--threshold", "0"], ["export"]):
        assert_corruption_exit(cat_path, capsys, argv, "links.jsonl", "torn last line at line 1")


def test_log_seqs_out_of_order_is_corruption_exit(cat_path, tmp_path, capsys):
    """The next seq comes from the last line, so a log whose seqs do not
    strictly increase would hand out a seq twice."""
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    log = Path(cat_path) / "log.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    lines.append(lines[0])  # seq 1 again
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for argv in (["log"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", f"line {len(lines)}",
                               "does not follow")


def _three_linked_objects(cat_path, tmp_path, capsys) -> list:
    """Ingest three texts that each share one word with the others, and
    link them all: three similarity records in links.jsonl."""
    ids = []
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue"), ("c.txt", "blue red")):
        (tmp_path / name).write_text(text)
        ids.append(cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t",
                       capsys=capsys)[1])
    assert cli(cat_path, "link-all", capsys=capsys)[0] == 0
    return ids


def test_malformed_links_line_is_corruption_exit(cat_path, tmp_path, capsys):
    ids = _three_linked_objects(cat_path, tmp_path, capsys)
    links = tmp_path / "cat" / "links.jsonl"
    lines = links.read_text().splitlines()
    assert len(lines) == 3
    lines[1] = '{"type": "simil'
    links.write_text("\n".join(lines) + "\n")
    for argv in (["clusters", "--threshold", "0"], ["export"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "links.jsonl", "line 2")
    # a command that does not use the links does not read them
    assert cli(cat_path, "show", ids[0], capsys=capsys)[0] == 0


@pytest.mark.parametrize("key, value", [("value", []), ("value", "0.5"), ("value", True),
                                        ("metric", -1), ("endpoints", [1, 2]),
                                        ("endpoints", "ab"), ("compared_nodes", {"x": 1, "y": 2})])
def test_mistyped_similarity_field_is_corruption_exit(cat_path, tmp_path, capsys, key, value):
    ids = _three_linked_objects(cat_path, tmp_path, capsys)
    links = tmp_path / "cat" / "links.jsonl"
    lines = links.read_text().splitlines()
    record = json.loads(lines[1])
    record[key] = value
    lines[1] = json.dumps(record)
    links.write_text("\n".join(lines) + "\n")
    before = catalog_files(cat_path)
    for argv in (["clusters", "--threshold", "0"], ["export"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "links.jsonl", "line 2")
    with open_catalog(cat_path) as cat, pytest.raises(CorruptCatalog, match="line 2"):
        inter.recommend(cat, ids[0])
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("fmt", [{}, ["text"]])
def test_non_string_node_format_is_no_format(cat_path, tmp_path, capsys, fmt):
    """A node whose format is not a string has no format: link-all
    compares the others, and tag indexes and logs the object's new tag."""
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue"), ("c.txt", "red blue")):
        (tmp_path / name).write_text(text)
        cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t", capsys=capsys)
    oid = cli(cat_path, "ingest", str(tmp_path / "a.txt"), "--origin", "t", capsys=capsys)[1]
    path = Path(cat_path) / "objects" / f"{oid}.json"
    record = json.loads(path.read_text())
    (node,) = record["nodes"]
    node["attributes"]["format"] = fmt
    path.write_text(json.dumps(record))
    assert cli(cat_path, "link-all", capsys=capsys)[0] == 0
    links = [json.loads(line)
             for line in (Path(cat_path) / "links.jsonl").read_text().splitlines()]
    assert len(links) == 3 and all(oid not in r["endpoints"] for r in links)
    assert cli(cat_path, "tag", oid, "violet", capsys=capsys)[0] == 0
    terms = json.loads((Path(cat_path) / "index" / "terms.json").read_text())
    assert terms["violet"] == [[oid, node["id"]]]
    last = json.loads((Path(cat_path) / "log.jsonl").read_text().splitlines()[-1])
    assert (last["action"], last["target"]) == ("Tag", oid)


def test_parenthood_attributes_not_object_is_corruption_exit(cat_path, tmp_path, capsys):
    ids = []
    for name in ("a.txt", "b.txt", "c.txt"):
        (tmp_path / name).write_text("red green")
        ids.append(cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t",
                       capsys=capsys)[1])
    assert cli(cat_path, "parent", "--parents", ids[0], ids[1], "--child", ids[2],
               capsys=capsys)[0] == 0
    links = tmp_path / "cat" / "links.jsonl"
    record = json.loads(links.read_text())
    record["attributes"] = True
    links.write_text(json.dumps(record) + "\n")
    before = catalog_files(cat_path)
    for argv in (["clusters", "--threshold", "0"], ["lineage", ids[2]], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, "links.jsonl", "line 1")
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("case", ["object", "object-attributes-not-object",
                                  "object-history-not-a-list", "index",
                                  "index-not-object", "index-non-string-id",
                                  "index-posting-not-a-list", "index-postings-not-a-list",
                                  "index-posting-of-three", "grouping",
                                  "grouping-collections-not-object", "resource",
                                  "resource-not-thesaurus", "object-id-not-its-file-name",
                                  "log-target-negative", "log-target-list",
                                  "grouping-parameter-true", "grouping-parameter-object",
                                  "grouping-member-null", "parenthood-parent-negative",
                                  "log-seq-not-an-integer", "log-byte-not-utf-8",
                                  "object-attribute-too-deep", "log-detail-too-deep"])
def test_corrupt_catalog_file_is_corruption_exit(cat_path, tmp_path, capsys, case):
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    assert cli(cat_path, "group", "--by", "origin", capsys=capsys)[0] == 0
    child = oid
    if case.startswith("parenthood"):
        parent, child = [cli(cat_path, "ingest", str(p), "--origin", "u", capsys=capsys)[1]
                         for _ in range(2)]
        assert cli(cat_path, "parent", "--parents", oid, parent, "--child", child,
                   capsys=capsys)[0] == 0
    root = Path(cat_path)
    index_path = root / "index" / "terms.json"
    log_readers = [["log", "--top", "5"], ["log"]]
    gamma_readers = [["search", "gamma"], ["search", "gamma", "--json"], ["tag", oid, "delta"]]
    thesaurus_readers = [["search", "alpha", "--expand", "words"]]
    path, commands = {
        "object": (root / "objects" / f"{oid}.json", [["show", oid]]),
        "object-attributes-not-object": (root / "objects" / f"{oid}.json", [["show", oid]]),
        "object-history-not-a-list": (root / "objects" / f"{oid}.json", [["show", oid]]),
        "index": (index_path, [["search", "alpha"], ["tag", oid, "delta"]]),
        "index-not-object": (index_path, [["search", "alpha"]]),
        "index-non-string-id": (index_path, gamma_readers),
        "index-posting-not-a-list": (index_path, gamma_readers),
        "index-postings-not-a-list": (index_path, gamma_readers),
        "index-posting-of-three": (index_path, gamma_readers),
        "grouping": (root / "groupings" / "origin.json", []),
        "grouping-collections-not-object": (root / "groupings" / "origin.json", [["export"]]),
        "resource": (root / "resources" / "words.txt", thesaurus_readers),
        "resource-not-thesaurus": (root / "resources" / "words.txt", thesaurus_readers),
        "object-id-not-its-file-name": (root / "objects" / f"{oid}.json",
                                        [["show", oid], ["tag", oid, "zeta"]]),
        "log-target-negative": (root / "log.jsonl", log_readers),
        "log-target-list": (root / "log.jsonl", log_readers),
        # the log's one line is its last, which a write reads for the next seq
        "log-seq-not-an-integer": (root / "log.jsonl", [["tag", oid, "zeta"], ["log"]]),
        "log-byte-not-utf-8": (root / "log.jsonl", log_readers),
        "object-attribute-too-deep": (root / "objects" / f"{oid}.json", [["show", oid]]),
        # the one line is also the last, whose seq a write reads
        "log-detail-too-deep": (root / "log.jsonl", log_readers + [["tag", oid, "zeta"]]),
        "grouping-parameter-true": (root / "groupings" / "origin.json", [["export"]]),
        "grouping-parameter-object": (root / "groupings" / "origin.json", [["export"]]),
        "grouping-member-null": (root / "groupings" / "origin.json", [["export"]]),
        "parenthood-parent-negative": (root / "links.jsonl",
                                       [["lineage", child], ["export"]]),
    }[case]
    content = {
        "index-not-object": "[]",
        "index-non-string-id": '{"gamma": [[1, 2]]}',
        "index-posting-not-a-list": '{"gamma": ["ab"]}',  # not the posting ("a", "b")
        "index-postings-not-a-list": '{"gamma": 5}',
        "index-posting-of-three": '{"gamma": [[1, 2, 3]]}',
        "resource-not-thesaurus": "car\n",  # a synonym class of one term
    }
    mistyped = {"object-attributes-not-object": ("attributes", True),
                # not the history ["a", "b", "c"]
                "object-history-not-a-list": ("description_history", "abc"),
                "grouping-collections-not-object": ("collections", True),
                "object-id-not-its-file-name": ("id", "obj_other"),
                "log-target-negative": ("target", -1), "log-target-list": ("target", []),
                "log-seq-not-an-integer": ("seq", True),
                "grouping-parameter-true": ("parameter", True),
                "grouping-parameter-object": ("parameter", {}),
                "grouping-member-null": ("collections", {"t": [None]}),
                "parenthood-parent-negative": ("parents", [-1, oid])}
    # a dict of the first JSON document gets a list nested deeper than
    # json.loads allows
    too_deep = {"object-attribute-too-deep": "attributes", "log-detail-too-deep": "detail"}
    if case == "resource":
        path.write_bytes("car, auto\n".encode("latin-1") + b"\xff\xfe\n")
    elif case in too_deep:
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(first)
        doc[too_deep[case]]["deep"] = "DEEP"
        first = json.dumps(doc).replace('"DEEP"', "[" * 5000 + "]" * 5000)
        path.write_text("\n".join([first, *rest]) + "\n", encoding="utf-8")
    elif case == "log-byte-not-utf-8":
        path.write_bytes(path.read_bytes().replace(b'"tester"', b'"test\xffer"', 1))
    elif case in mistyped:
        # the file's one JSON document, or the first record of a JSON-Lines file
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(first)
        key, value = mistyped[case]
        doc[key] = value
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n", encoding="utf-8")
    elif case in content:
        path.write_text(content[case], encoding="utf-8")
    else:
        path.write_text(path.read_text(encoding="utf-8")[:-5], encoding="utf-8")
    # each reader of the damaged file reports it, and validate reads every
    # file; a failed command writes nothing
    before = catalog_files(cat_path)
    for argv in commands + [["validate"]]:
        assert_corruption_exit(cat_path, capsys, argv, path.name)
    if case == "log-detail-too-deep":
        for argv in (["log"], ["validate"]):
            assert_corruption_exit(cat_path, capsys, argv, "log.jsonl", "line 1")
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("case", ["node-id-not-a-string", "wordcloud-entry-not-a-pair",
                                  "tag-label-null", "object-id-a-list"])
def test_damaged_object_value_is_corruption_exit(cat_path, tmp_path, capsys, case):
    """A node id or object id that is not a string, a tag label that is
    null, or a word-cloud entry that is not a [term, count] pair, fails
    the object's read, whether it reads the whole object or one field:
    `show --tree`, `tag`, both groupings, `search` and `validate` exit 3
    naming the file, and the tag and the groupings write nothing."""
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    path = Path(cat_path) / "objects" / f"{oid}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if case == "node-id-not-a-string":
        doc["nodes"][0]["id"] = 7
    elif case == "tag-label-null":
        doc["tags"] = [[None, "manual"]]
    elif case == "object-id-a-list":
        doc["id"] = []
    else:
        doc["summary"]["payload"][0] = ["alpha"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    before = catalog_files(cat_path)
    for argv in (["show", oid, "--tree"], ["tag", oid, "zz"], ["group", "--by", "origin"],
                 ["group", "--by", "tags"], ["search", "alpha"], ["validate"]):
        assert_corruption_exit(cat_path, capsys, argv, path.name)
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("n_objects", [3, 30])
@pytest.mark.parametrize("linked", [False, True])
def test_show_opens_the_same_files_at_any_size(tmp_path, capsys, opened_files, monkeypatch,
                                               n_objects, linked):
    """show reads the manifest and its object's file, however many
    objects, links and log records the catalog holds, and lists no
    directory."""
    cat_path = str(tmp_path / "cat")
    cli(cat_path, "init", capsys=capsys)
    for i in range(n_objects):
        (tmp_path / f"d{i}.txt").write_text(f"shared word{i} word{i % 3}")
        _, oid = cli(cat_path, "ingest", str(tmp_path / f"d{i}.txt"), "--origin", "t",
                     capsys=capsys)
    if linked:
        assert cli(cat_path, "link-all", capsys=capsys)[0] == 0
    opened_files.clear()

    def no_listing(self):
        raise AssertionError("objects/ listed")

    monkeypatch.setattr(store.Catalog, "object_ids", no_listing)
    assert cli(cat_path, "show", oid, capsys=capsys)[0] == 0
    assert [p.relative_to(cat_path).as_posix() for p in opened_files] == [
        "manifest.json", f"objects/{oid}.json"]


def test_show_prints_tags_description_summary_and_tree(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("river delta river basin", encoding="utf-8")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", "--tags", "water", "geo",
                 capsys=capsys)
    assert cli(cat_path, "describe", oid, "river survey", capsys=capsys)[0] == 0
    with open_catalog(cat_path) as cat:
        root = cat.get_object(oid).root().id
    _, rep = cli(cat_path, "represent", oid, "--parent", root[:8], "--desc", "as csv",
                 "--locator", "/lake/d.csv", "--format", "csv", capsys=capsys)
    code, out = cli(cat_path, "show", oid, "--tree", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"object {oid}"
    assert "  origin: t" in lines
    assert lines[-5:] == [
        "  tags: geo, water",
        "  description: river survey",
        "  summary: wordcloud (3 entries)",
        f"{root[:8]} [version]  ({p})",
        f"  {rep[:8]} [representation] <-transformation- {root[:8]}  (/lake/d.csv)",
    ]


def test_show_of_a_path_outside_objects_is_not_found(cat_path, capsys):
    code = run(["--catalog", cat_path, "show", "../manifest"])
    assert code == 1
    assert capsys.readouterr().err == "error: no object '../manifest'\n"


def test_search_reads_the_log_only_to_record_access(cat_path, tmp_path, capsys, opened_files):
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue")):
        (tmp_path / name).write_text(text)
        cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t", capsys=capsys)
    assert cli(cat_path, "link-all", capsys=capsys)[0] == 0
    log, links = Path(cat_path) / "log.jsonl", Path(cat_path) / "links.jsonl"
    opened_files.clear()
    assert cli(cat_path, "search", "green", capsys=capsys)[0] == 0
    assert Path(cat_path) / "index" / "terms.json" in opened_files
    assert log not in opened_files and links not in opened_files
    assert cli(cat_path, "search", "green", "--record-access", capsys=capsys)[0] == 0
    assert log in opened_files and links not in opened_files


def test_unparsable_user_thesaurus_is_domain_exit(cat_path, tmp_path, capsys):
    """Unlike a stored resource, a bad file the user loads is their input."""
    bad = tmp_path / "words.txt"
    bad.write_text("car\n", encoding="utf-8")
    code = run(["--catalog", cat_path, "resource", "load", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "at least two terms" in err
    assert run(["--catalog", cat_path, "log"]) == 0


@pytest.mark.parametrize("argv, expected", [
    (["link-all", "--threshold", "2"], 2),
    (["clusters", "--threshold", "2"], 2),
    (["clusters", "--threshold", "nan"], 2),
    (["log", "--top", "0"], 2),
    (["--stopwords", "{dir}", "log"], 1),
])
def test_bad_argument_is_clean_exit(cat_path, tmp_path, capsys, argv, expected):
    argv = [a.format(dir=tmp_path) for a in argv]
    code = run(["--catalog", cat_path, *argv])
    err = capsys.readouterr().err
    assert code == expected
    assert err.startswith("error:") and "Traceback" not in err
    # the failed command released the catalog
    assert run(["--catalog", cat_path, "validate"]) == 0


def test_log_object_and_top_are_exclusive(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("content findme")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    cli(cat_path, "search", "findme", "--record-access", capsys=capsys)
    before = catalog_files(cat_path)
    for argv in (["log", "--object", oid, "--top", "5"], ["log", "--top", "5", "--object", oid,
                                                          "--json"]):
        assert run(["--catalog", cat_path, *argv]) == 2
        assert capsys.readouterr().err == "error: --object and --top cannot be combined\n"
    assert catalog_files(cat_path) == before


def _checkpointed_log(cat_path, tmp_path, capsys) -> tuple:
    """An object and 70 one-event commits of its Access: a log of 71
    records whose checkpoint covers the first 64. Returns the object's
    id and the checkpoint's record."""
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    with open_catalog(cat_path) as cat:
        for _ in range(70):
            cat.get_object(oid, record_access=True, actor="tester")
    checkpoint = json.loads((Path(cat_path) / "log.checkpoint.json").read_text())
    assert checkpoint["seq"] == 64
    return oid, checkpoint


@pytest.mark.parametrize("case", ["log-target-negative", "log-target-list",
                                  "log-seq-not-an-integer", "log-byte-not-utf-8",
                                  "log-detail-too-deep", "torn-last-line", "log-seq-repeated"])
@pytest.mark.parametrize("where", ["covered", "after"])
def test_a_damaged_log_with_a_checkpoint_is_corruption_exit(cat_path, tmp_path, capsys,
                                                             case, where):
    """Damage inside the bytes the checkpoint covers makes `log --top`
    read the whole log; damage after them is found by its read of the
    rest, which continues from the checkpoint's seq. Either way it names
    the file and line that `log`, which reads the whole log, names."""
    oid, checkpoint = _checkpointed_log(cat_path, tmp_path, capsys)
    log = Path(cat_path) / "log.jsonl"
    data = log.read_bytes()
    if case == "torn-last-line":
        # a checkpoint of the whole log, or one with records after it
        data = data[:checkpoint["offset"]] if where == "covered" else data
        log.write_bytes(data.rstrip(b"\n"))
        line, want = data.count(b"\n"), "torn last line"
    else:
        lines = data.splitlines()
        line = 1 if where == "covered" else 68
        if case == "log-seq-repeated":  # the seq of the line before: the first after 64
            line = 2 if where == "covered" else 65
            doc = json.loads(lines[line - 1])
            doc["seq"] = json.loads(lines[line - 2])["seq"]
            damaged = json.dumps(doc).encode()
        elif case == "log-byte-not-utf-8":
            damaged = lines[line - 1].replace(b'"tester"', b'"test\xffer"', 1)
        else:
            doc = json.loads(lines[line - 1])
            key, value = {"log-target-negative": ("target", -1),
                          "log-target-list": ("target", []),
                          "log-seq-not-an-integer": ("seq", True),
                          "log-detail-too-deep": ("detail", {"deep": "DEEP"})}[case]
            doc[key] = value
            damaged = json.dumps(doc).replace('"DEEP"', "[" * 5000 + "]" * 5000).encode()
        lines[line - 1] = damaged
        log.write_bytes(b"\n".join(lines) + b"\n")
        want = "bad record"
    before = catalog_files(cat_path)
    assert run(["--catalog", cat_path, "log"]) == 3
    full_read = capsys.readouterr().err
    assert f"log.jsonl: {want} at line {line}" in full_read
    for argv in (["log", "--top", "5"], ["log", "--top", "5", "--json"], ["validate"]):
        assert run(["--catalog", cat_path, *argv]) == 3
        assert capsys.readouterr().err == full_read, argv
    assert catalog_files(cat_path) == before


@pytest.mark.parametrize("edit", ["count", "seq", "object"])
def test_validate_reports_a_checkpoint_that_differs_from_its_records(cat_path, tmp_path,
                                                                     capsys, edit):
    """A checkpoint whose digest matches the log is trusted by `log
    --top`, so validate replays the records it covers and reports one
    whose seq or counts differ (exit 1); it does not report a checkpoint
    that readers ignore."""
    oid, checkpoint = _checkpointed_log(cat_path, tmp_path, capsys)
    path = Path(cat_path) / "log.checkpoint.json"
    assert checkpoint["access"] == {oid: 63}
    path.write_text(json.dumps({**checkpoint, "digest": "0" * 64}))
    assert cli(cat_path, "validate", capsys=capsys) == (0, "")
    edited = {"count": {"access": {oid: 64}}, "seq": {"seq": 63},
              "object": {"access": {oid: 62, "obj_other": 1}}}[edit]
    path.write_text(json.dumps({**checkpoint, **edited}))
    code, out = cli(cat_path, "validate", capsys=capsys)
    assert code == 1
    assert out.startswith("violation\tlog-checkpoint\t") and "log.checkpoint.json" in out
    assert out.count("\n") == 0
    if edit == "count":  # trusted, as validate warns
        assert cli(cat_path, "log", "--top", "5", capsys=capsys) == (0, f"71\t{oid}")


def test_a_checkpoint_of_a_wrong_seq_is_not_continued_from(cat_path, tmp_path, capsys):
    """A checkpoint whose digest matches the log but whose seq is 3 too
    high is not continued from: `log --top` equals a replay of the log,
    validate reports the checkpoint, and the commits after it succeed,
    the one that is due writing a checkpoint of the true seq."""
    oid, checkpoint = _checkpointed_log(cat_path, tmp_path, capsys)
    root = Path(cat_path)
    (root / "log.checkpoint.json").write_text(json.dumps({**checkpoint, "seq": 67}))

    def replayed_top() -> str:
        records = [json.loads(line) for line in (root / "log.jsonl").read_text().splitlines()]
        return f"{sum(r['action'] == 'Access' for r in records)}\t{oid}"

    assert cli(cat_path, "log", "--top", "5", capsys=capsys) == (0, replayed_top())
    code, out = cli(cat_path, "validate", capsys=capsys)
    assert code == 1 and out.startswith("violation\tlog-checkpoint\t")
    with open_catalog(cat_path) as cat:
        for _ in range(70):
            cat.get_object(oid, record_access=True, actor="tester")
    written = json.loads((root / "log.checkpoint.json").read_text())
    last = (root / "log.jsonl").read_bytes()[:written["offset"]].splitlines()[-1]
    assert written["seq"] == json.loads(last)["seq"] == 131
    assert cli(cat_path, "validate", capsys=capsys) == (0, "")
    assert cli(cat_path, "log", "--top", "5", capsys=capsys) == (0, replayed_top())


def test_an_object_with_a_deep_attribute_reads_in_a_fresh_process(cat_path, tmp_path, capsys):
    """An attribute nested 600 deep, which the catalog commits, reads in
    a `lakecat` process: the decode copies it with its own stack."""
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    _, oid = cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    deep = []
    for _ in range(599):
        deep = [deep]
    with open_catalog(cat_path) as cat:
        root = cat.get_object(oid).root().id
        intra.add_representation(cat, oid, root, intra.TransformationSpec(
            description="deep", actor="tester"), {"deep": deep})
    path = [str(Path(intra.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for argv in (["show", oid], ["show", oid, "--json"], ["tag", oid, "x"], ["search", "alpha"],
                 ["group", "--by", "origin"], ["validate"], ["export"]):
        proc = subprocess.run([sys.executable, "-m", "lakecat", "--catalog", cat_path, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr[-300:])


def test_stopwords_filter_the_query_and_never_the_index(cat_path, tmp_path, capsys):
    """An ingest run with stopwords indexes every word: a plain search
    finds a stopped one, while a search with the same stopwords drops it
    from the query and scores only the words left."""
    stop = tmp_path / "stop.txt"
    stop.write_text("gamma\n\n")
    doc = tmp_path / "a.txt"
    doc.write_text("alpha beta gamma")
    code, oid = cli(cat_path, "--stopwords", str(stop), "ingest", str(doc), "--origin", "t",
                    capsys=capsys)
    assert code == 0
    assert cli(cat_path, "search", "gamma", "--json", capsys=capsys) == (0, json.dumps([[oid, 1]]))
    assert cli(cat_path, "--stopwords", str(stop), "search", "gamma", capsys=capsys)[0] == 2
    assert cli(cat_path, "--stopwords", str(stop), "search", "gamma", "alpha", "--json",
               capsys=capsys) == (0, json.dumps([[oid, 1]]))
    assert cli(cat_path, "search", "gamma", "alpha", "--json",
               capsys=capsys) == (0, json.dumps([[oid, 2]]))


def test_link_json_prints_the_stored_record(cat_path, tmp_path, capsys):
    ids = []
    for name, text in (("a.txt", "red green"), ("b.txt", "green blue")):
        (tmp_path / name).write_text(text)
        ids.append(cli(cat_path, "ingest", str(tmp_path / name), "--origin", "t",
                       capsys=capsys)[1])
    code, out = cli(cat_path, "link", ids[1], ids[0], "--json", capsys=capsys)
    assert code == 0
    record = json.loads(out)
    assert out == json.dumps(record, sort_keys=True)
    assert sorted(record) == ["compared_nodes", "computed_at", "endpoints", "id", "metric",
                              "type", "value"]
    roots = [json.loads(cli(cat_path, "show", oid, "--json", capsys=capsys)[1])["nodes"][0]["id"]
             for oid in sorted(ids)]
    assert (record["type"], record["endpoints"], record["metric"], record["value"],
            record["compared_nodes"]) == ("similarity", sorted(ids), "token-jaccard", 1 / 3,
                                          roots)
    lines = (Path(cat_path) / "links.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [record]


def test_validate_json_lists_each_violation_and_exits_1_on_one(cat_path, tmp_path, capsys):
    ids = _three_linked_objects(cat_path, tmp_path, capsys)
    assert cli(cat_path, "validate", "--json", capsys=capsys) == (0, "[]")
    for _ in range(2):  # a child derived twice is advisory only
        assert cli(cat_path, "parent", "--parents", ids[0], ids[1], "--child", ids[2],
                   capsys=capsys)[0] == 0
    advisory = {"rule": "re-derived-child",
                "message": f"object {ids[2]} is the child of 2 parenthood links",
                "ids": [ids[2]], "advisory": True}
    assert cli(cat_path, "validate", "--json", capsys=capsys) == (
        0, json.dumps([advisory], indent=1))
    links = Path(cat_path) / "links.jsonl"
    first, *rest = links.read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    record["value"] = 1.5
    links.write_text("\n".join([json.dumps(record), *rest]) + "\n", encoding="utf-8")
    broken = {"rule": "value-out-of-range",
              "message": f"similarity link {record['id']} value 1.5 outside [0, 1]",
              "ids": [record["id"]], "advisory": False}
    assert cli(cat_path, "validate", "--json", capsys=capsys) == (
        1, json.dumps([broken, advisory], indent=1))
