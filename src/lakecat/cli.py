"""Command-line interface. Thin adapter over the library modules: each
subcommand maps onto one operation, human-readable output by default,
`--json` for machine output on read commands.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 catalog
corruption.
"""

from __future__ import annotations

import argparse
import getpass
import json
import os
import sys

from . import auditlog, index as indexmod, ingest, inter, intra, semantic, store
from .errors import CatalogError, CorruptCatalog, EmptyQuery

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3

CATALOG_ENV = "MEDAL_CATALOG"


def _default_actor() -> str:
    try:
        return getpass.getuser()
    except Exception:
        return "unknown"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lakecat",
        description="Metadata catalog for data lakes: versions, "
        "representations, links, tags, search, and usage logs.",
    )
    parser.add_argument(
        "--catalog",
        default=os.environ.get(CATALOG_ENV),
        help=f"catalog directory (or set ${CATALOG_ENV})",
    )
    parser.add_argument("--actor", default=_default_actor(), help="actor recorded in the log")
    parser.add_argument("--stopwords", help="file with one stopword per line")
    sub = parser.add_subparsers(dest="command", metavar="command")

    sub.add_parser("init", help="create an empty catalog")

    p = sub.add_parser("ingest", help="profile and register a file")
    p.add_argument("path")
    p.add_argument("--origin", required=True)
    p.add_argument("--tags", nargs="*", default=[])
    p.add_argument("--auto-tag", action="store_true",
                   help="also apply top word-cloud terms as derived tags")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("show", help="show one object")
    p.add_argument("id")
    p.add_argument("--tree", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("represent", help="record a new representation")
    p.add_argument("id")
    p.add_argument("--parent", required=True, help="parent node id (prefix ok)")
    p.add_argument("--desc", required=True)
    p.add_argument("--locator")
    p.add_argument("--script")
    p.add_argument("--format", dest="fmt", help="format of the new representation")

    p = sub.add_parser("update", help="record a data update")
    p.add_argument("id")
    p.add_argument("--parent", required=True, help="parent version node id (prefix ok)")
    p.add_argument("--desc", required=True)
    p.add_argument("--locator", required=True)
    p.add_argument("--in-place", action="store_true",
                   help="overwrite the parent version instead of adding one")

    p = sub.add_parser("tag", help="add tags to an object")
    p.add_argument("id")
    p.add_argument("tags", nargs="+")

    p = sub.add_parser("describe", help="set an object's description")
    p.add_argument("id")
    p.add_argument("text")

    p = sub.add_parser("link", help="compute and store a similarity link")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--metric", default="token-jaccard")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("link-all", help="link every comparable pair")
    p.add_argument("--metric", default="token-jaccard")
    p.add_argument("--threshold", type=float, default=0.0)

    p = sub.add_parser("clusters", help="connected components of the similarity graph")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--metric")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("group", help="group objects by attribute or tags")
    p.add_argument("--by", required=True, metavar="attr|tags")
    p.add_argument("--thesaurus")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("parent", help="record a parenthood link")
    p.add_argument("--parents", nargs="+", required=True)
    p.add_argument("--child", required=True)
    p.add_argument("--desc", default="joined")

    p = sub.add_parser("lineage", help="ancestors or descendants of an object")
    p.add_argument("id")
    p.add_argument("--direction", choices=["ancestors", "descendants"],
                   default="ancestors")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="keyword search over the index")
    p.add_argument("query", nargs="+")
    p.add_argument("--all", action="store_true", help="require all terms")
    p.add_argument("--expand", metavar="THESAURUS", help="expand query with synonyms")
    p.add_argument("--record-access", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("log", help="inspect the event log")
    p.add_argument("--object", dest="obj")
    p.add_argument("--top", type=int, help="access report for the top K objects")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("resource", help="manage semantic resources")
    res_sub = p.add_subparsers(dest="resource_command", metavar="action")
    pl = res_sub.add_parser("load", help="load a thesaurus file")
    pl.add_argument("path")

    p = sub.add_parser("validate", help="structural validation of the whole catalog")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export", help="dump the catalog as one JSON document")
    p.add_argument("--format", choices=["json"], default="json")

    return parser


def _open(args, create: bool = False) -> store.Catalog:
    if not args.catalog:
        raise SystemExit2("no catalog given: use --catalog or $" + CATALOG_ENV)
    stopwords = None
    if args.stopwords:  # read before the catalog is locked, so a bad path leaves it unlocked
        with open(args.stopwords, "r", encoding="utf-8") as f:
            stopwords = {line.strip() for line in f if line.strip()}
    cat = store.open_catalog(args.catalog, create_if_missing=create)
    cat.stopwords = stopwords
    return cat


class SystemExit2(Exception):
    """Usage error detected after argument parsing."""


def _short(node_id: str) -> str:
    return node_id[:8]


def _print_tree(cat, oid) -> None:
    for depth, node, edge in intra.get_tree(cat, oid):
        label = f"{_short(node.id)} [{node.kind}]"
        if edge is not None:
            label += f" <-{edge.kind}- {_short(edge.from_node)}"
        if node.content_locator:
            label += f"  ({node.content_locator})"
        print("  " * depth + label)


def _cmd_show(cat, args) -> None:
    h = cat.get_object(args.id)
    if args.json:
        print(json.dumps(store.encode(h), sort_keys=True, indent=1))
        return
    print(f"object {h.id}")
    for key in sorted(h.attributes):
        print(f"  {key}: {h.attributes[key]}")
    if h.tags:
        print("  tags: " + ", ".join(sorted(t.label for t in h.tags)))
    if h.description:
        print(f"  description: {h.description}")
    if h.summary:
        print(f"  summary: {h.summary.kind} ({len(h.summary.payload)} entries)")
    if args.tree:
        _print_tree(cat, args.id)


def _cmd_log(cat, args) -> None:
    if args.top is not None:
        report = auditlog.access_report(cat, args.top)
        if args.json:
            print(json.dumps([[oid, n] for oid, n in report]))
        else:
            for oid, n in report:
                print(f"{n}\t{oid}")
        return
    records = auditlog.events_for(cat, args.obj) if args.obj else cat.log.records()
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=1))
    else:
        for r in records:
            print(f"{r.seq}\t{r.at.isoformat()}\t{r.actor}\t{r.action}\t{r.target}")


def _print_grouping(g, as_json: bool) -> None:
    if as_json:
        print(json.dumps(store.encode(g), sort_keys=True, indent=1))
    else:
        for value in sorted(g.collections):
            members = ", ".join(sorted(g.collections[value]))
            print(f"{value}: {members}")


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "init":
        with _open(args, create=True) as cat:
            print(f"catalog ready at {cat.root}")
        return EXIT_OK

    with _open(args) as cat:
        if cmd == "ingest":
            oid = ingest.ingest_file(cat, args.path, origin=args.origin,
                                     tags=args.tags or None, actor=args.actor,
                                     auto_tag=args.auto_tag)
            print(json.dumps({"id": oid}) if args.json else oid)
        elif cmd == "show":
            _cmd_show(cat, args)
        elif cmd == "represent":
            spec = intra.TransformationSpec(
                description=args.desc, actor=args.actor, script=args.script,
                produces_locator=args.locator,
            )
            attrs = {"format": args.fmt} if args.fmt else {}
            node = intra.add_representation(cat, args.id, args.parent, spec, attrs)
            print(node)
        elif cmd == "update":
            spec = intra.UpdateSpec(
                description=args.desc, actor=args.actor,
                produces_locator=args.locator,
                strategy=intra.OVERWRITE_IN_PLACE if args.in_place else intra.NEW_VERSION,
            )
            node = intra.add_version(cat, args.id, args.parent, spec)
            print(node)
        elif cmd == "tag":
            tags = semantic.tag_object(cat, args.id, args.tags, actor=args.actor)
            print(", ".join(sorted(t.label for t in tags)))
        elif cmd == "describe":
            semantic.describe_object(cat, args.id, args.text, actor=args.actor)
        elif cmd == "link":
            link = inter.compute_similarity(cat, args.a, args.b, args.metric,
                                            actor=args.actor)
            if args.json:
                print(json.dumps(store.link_to_dict(link), sort_keys=True))
            else:
                print(f"{link.value:.6f}")
        elif cmd == "link-all":
            n = inter.link_all(cat, args.metric, args.threshold, actor=args.actor)
            print(n)
        elif cmd == "clusters":
            groups = inter.clusters(cat, args.threshold, args.metric)
            if args.json:
                print(json.dumps([sorted(g) for g in groups]))
            else:
                for group in groups:
                    print(", ".join(sorted(group)))
        elif cmd == "group":
            if args.by == "tags":
                g = semantic.group_by_tags(cat, thesaurus=args.thesaurus)
            else:
                g = inter.group_by(cat, args.by)
            _print_grouping(g, args.json)
        elif cmd == "parent":
            link_id = inter.add_parenthood(cat, args.parents, args.child,
                                           {"description": args.desc},
                                           actor=args.actor)
            print(link_id)
        elif cmd == "lineage":
            ids = inter.lineage(cat, args.id, args.direction)
            if args.json:
                print(json.dumps(sorted(ids)))
            else:
                for oid in sorted(ids):
                    print(oid)
        elif cmd == "search":
            results = indexmod.search(
                cat, " ".join(args.query),
                mode="all-terms" if args.all else "any-term",
                expand_with=args.expand, record_access=args.record_access,
                actor=args.actor,
            )
            if args.json:
                print(json.dumps([[oid, score] for oid, score in results]))
            else:
                for oid, score in results:
                    title = cat.get_object(oid).attributes.get("title", "")
                    print(f"{score}\t{oid}\t{title}")
        elif cmd == "log":
            _cmd_log(cat, args)
        elif cmd == "resource":
            if args.resource_command != "load":
                raise SystemExit2("usage: lakecat resource load <path>")
            name = semantic.load_resource(cat, args.path, actor=args.actor)
            print(name)
        elif cmd == "validate":
            violations = cat.validate()
            if args.json:
                print(json.dumps([
                    {"rule": v.rule, "message": v.message, "ids": list(v.ids),
                     "advisory": v.advisory}
                    for v in violations
                ], indent=1))
            else:
                for v in violations:
                    flag = "advisory" if v.advisory else "violation"
                    print(f"{flag}\t{v.rule}\t{v.message}")
            if any(not v.advisory for v in violations):
                return EXIT_DOMAIN
        elif cmd == "export":
            print(json.dumps(cat.export(), sort_keys=True, indent=1))
        else:
            raise SystemExit2("no command given")
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return _dispatch(args)
    except EmptyQuery as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("usage: lakecat search <query terms...>", file=sys.stderr)
        return EXIT_USAGE
    except (SystemExit2, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorruptCatalog as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (CatalogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
