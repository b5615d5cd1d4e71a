import json

import pytest

from lakecat.cli import run


@pytest.fixture
def cat_path(tmp_path):
    path = tmp_path / "cat"
    assert run(["--catalog", str(path), "init"]) == 0
    return str(path)


def cli(cat_path, *argv, capsys=None):
    code = run(["--catalog", cat_path, "--actor", "tester", *argv])
    out = capsys.readouterr().out if capsys else ""
    return code, out.strip()


def test_init_creates_catalog(tmp_path, capsys):
    code = run(["--catalog", str(tmp_path / "c"), "init"])
    assert code == 0
    assert (tmp_path / "c" / "manifest.json").exists()


def test_missing_catalog_flag_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("MEDAL_CATALOG", raising=False)
    assert run(["validate"]) == 2


def test_env_var_supplies_catalog(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MEDAL_CATALOG", str(tmp_path / "c"))
    assert run(["init"]) == 0


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


def test_torn_log_line_is_corruption_exit(cat_path, tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("alpha beta")
    cli(cat_path, "ingest", str(p), "--origin", "t", capsys=capsys)
    with open(f"{cat_path}/log.jsonl", "a", encoding="utf-8") as f:
        f.write('{"seq": 9, "at')
    code = run(["--catalog", cat_path, "search", "alpha"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "line 2" in err
