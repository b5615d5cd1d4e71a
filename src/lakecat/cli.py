"""Command-line interface. Thin adapter over the library modules: each
subcommand maps onto one operation, human-readable output by default,
`--json` for machine output on read commands.

Every command is declared once, in `COMMANDS`: its name, its help line,
its argument specs and its handler `(catalog, args) -> exit code or
None`. Parsing runs in two stages. The top-level parser takes the
global options and the command name and leaves the rest unparsed; then
a parser for that one command is built from its entry and parses the
rest. A command is one short process, so building the parsers of all
the others would be most of the work it spends on argument parsing.
A process that runs several commands builds each parser once, at its
first use; the defaults that come from the environment, `$MEDAL_CATALOG`
and the login name for `--actor`, are read at every run.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 catalog
corruption.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import getpass
import json
import os
import sys
from typing import Optional

from . import auditlog, codec, index as indexmod, ingest, inter, intra, semantic, store
from .errors import CatalogError, CorruptCatalog, EmptyQuery

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3

CATALOG_ENV = "MEDAL_CATALOG"

COMMANDS = {}  # name -> (help line, argument specs, handler), in help order
_PARSERS = {}  # command name, or None for the top level -> its parser, once built


def _arg(*names, **options):
    """One argument spec: the arguments of `ArgumentParser.add_argument`."""
    return names, options


_JSON = _arg("--json", action="store_true")


def _command(name: str, help: str, *arguments):
    """Declare the decorated function as the handler of command `name`."""
    def declare(handler):
        COMMANDS[name] = (help, arguments, handler)
        return handler
    return declare


def _default_actor() -> str:
    try:
        return getpass.getuser()
    except Exception:
        return "unknown"


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of one command's arguments; with no command, the
    top-level parser, which leaves the command's arguments unparsed."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"lakecat {command}")
        for names, options in COMMANDS[command][1]:
            parser.add_argument(*names, **options)
        return parser
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="lakecat",
        description="Metadata catalog for data lakes: versions, representations,\n"
        "links, tags, search, and usage logs.",
        epilog="commands:\n"
        + "".join(f"  {name:{width}}  {entry[0]}\n" for name, entry in COMMANDS.items())
        + "\nRun 'lakecat <command> --help' for the arguments of a command.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--catalog", help=f"catalog directory (or set ${CATALOG_ENV})")
    parser.add_argument("--actor", help="actor recorded in the log")
    parser.add_argument("--stopwords", help="file of search-query stopwords, one per line")
    parser.add_argument("command", nargs="?", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("arguments", nargs=argparse.REMAINDER,
                        help="the command's arguments")
    return parser


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """build_parser(command), built at the first call in the process."""
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    return _PARSERS[command]


def _open(args, create: bool = False) -> store.Catalog:
    if not args.catalog:
        raise SystemExit2("no catalog given: use --catalog or $" + CATALOG_ENV)
    args.stopword_set = None
    if args.stopwords:  # read before the catalog is locked, so a bad path leaves it unlocked
        with open(args.stopwords, "r", encoding="utf-8") as f:
            args.stopword_set = {line.strip() for line in f if line.strip()}
    return store.open_catalog(args.catalog, create_if_missing=create)


class SystemExit2(Exception):
    """Usage error detected after argument parsing."""


@_command("init", "create an empty catalog")
def _init(cat, args):
    print(f"catalog ready at {cat.root}")


@_command("ingest", "profile and register a file",
          _arg("path"), _arg("--origin", required=True), _arg("--tags", nargs="*", default=[]),
          _arg("--auto-tag", action="store_true",
               help="also apply top word-cloud terms as derived tags"), _JSON)
def _ingest(cat, args):
    oid = ingest.ingest_file(cat, args.path, origin=args.origin,
                             tags=args.tags or None, actor=args.actor,
                             auto_tag=args.auto_tag)
    print(json.dumps({"id": oid}) if args.json else oid)


@_command("show", "show one object", _arg("id"), _arg("--tree", action="store_true"), _JSON)
def _show(cat, args):
    h = cat.get_object(args.id)
    if args.json:
        print(json.dumps(codec.encode(h), sort_keys=True, indent=1))
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
        for depth, node, edge in intra.get_tree(cat, args.id):
            label = f"{node.id[:8]} [{node.kind}]"
            if edge is not None:
                label += f" <-{edge.kind}- {edge.from_node[:8]}"
            if node.content_locator:
                label += f"  ({node.content_locator})"
            print("  " * depth + label)


@_command("represent", "record a new representation",
          _arg("id"), _arg("--parent", required=True, help="parent node id (prefix ok)"),
          _arg("--desc", required=True), _arg("--locator"), _arg("--script"),
          _arg("--format", dest="fmt", help="format of the new representation"))
def _represent(cat, args):
    spec = intra.TransformationSpec(
        description=args.desc, actor=args.actor, script=args.script,
        produces_locator=args.locator,
    )
    attrs = {"format": args.fmt} if args.fmt else {}
    print(intra.add_representation(cat, args.id, args.parent, spec, attrs))


@_command("update", "record a data update",
          _arg("id"), _arg("--parent", required=True, help="parent version node id (prefix ok)"),
          _arg("--desc", required=True), _arg("--locator", required=True),
          _arg("--in-place", action="store_true",
               help="overwrite the parent version instead of adding one"))
def _update(cat, args):
    spec = intra.UpdateSpec(
        description=args.desc, actor=args.actor,
        produces_locator=args.locator,
        strategy=intra.OVERWRITE_IN_PLACE if args.in_place else intra.NEW_VERSION,
    )
    print(intra.add_version(cat, args.id, args.parent, spec))


@_command("tag", "add tags to an object", _arg("id"), _arg("tags", nargs="+"))
def _tag(cat, args):
    tags = semantic.tag_object(cat, args.id, args.tags, actor=args.actor)
    print(", ".join(sorted(t.label for t in tags)))


@_command("describe", "set an object's description", _arg("id"), _arg("text"))
def _describe(cat, args):
    semantic.describe_object(cat, args.id, args.text, actor=args.actor)


@_command("link", "compute and store a similarity link",
          _arg("a"), _arg("b"), _arg("--metric", default="token-jaccard"), _JSON)
def _link(cat, args):
    link = inter.compute_similarity(cat, args.a, args.b, args.metric, actor=args.actor)
    if args.json:
        print(json.dumps(store.link_to_dict(link), sort_keys=True))
    else:
        print(f"{link.value:.6f}")


@_command("link-all", "link every comparable pair",
          _arg("--metric", default="token-jaccard"), _arg("--threshold", type=float, default=0.0))
def _link_all(cat, args):
    print(inter.link_all(cat, args.metric, args.threshold, actor=args.actor))


@_command("clusters", "connected components of the similarity graph",
          _arg("--threshold", type=float, required=True), _arg("--metric"), _JSON)
def _clusters(cat, args):
    groups = inter.clusters(cat, args.threshold, args.metric)
    if args.json:
        print(json.dumps([sorted(g) for g in groups]))
    else:
        for group in groups:
            print(", ".join(sorted(group)))


@_command("group", "group objects by attribute or tags",
          _arg("--by", required=True, metavar="attr|tags"), _arg("--thesaurus"), _JSON)
def _group(cat, args):
    if args.by == "tags":
        g = semantic.group_by_tags(cat, thesaurus=args.thesaurus)
    else:
        g = inter.group_by(cat, args.by)
    if args.json:
        print(json.dumps(codec.encode(g), sort_keys=True, indent=1))
    else:
        for value in sorted(g.collections):
            print(f"{value}: {', '.join(sorted(g.collections[value]))}")


@_command("parent", "record a parenthood link",
          _arg("--parents", nargs="+", required=True), _arg("--child", required=True),
          _arg("--desc", default="joined"))
def _parent(cat, args):
    print(inter.add_parenthood(cat, args.parents, args.child,
                               {"description": args.desc}, actor=args.actor))


@_command("lineage", "ancestors or descendants of an object", _arg("id"),
          _arg("--direction", choices=["ancestors", "descendants"], default="ancestors"), _JSON)
def _lineage(cat, args):
    ids = inter.lineage(cat, args.id, args.direction)
    if args.json:
        print(json.dumps(sorted(ids)))
    else:
        for oid in sorted(ids):
            print(oid)


@_command("search", "keyword search over the index",
          _arg("query", nargs="+"), _arg("--all", action="store_true", help="require all terms"),
          _arg("--expand", metavar="THESAURUS", help="expand query with synonyms"),
          _arg("--record-access", action="store_true"), _JSON)
def _search(cat, args):
    query, mode = " ".join(args.query), "all-terms" if args.all else "any-term"
    results = indexmod.search(cat, query, mode=mode, expand_with=args.expand,
                              stopwords=args.stopword_set)
    if args.json:
        out = [json.dumps([[oid, score] for oid, score in results])]
    else:
        out = [f"{score}\t{oid}\t{cat.object_field(oid, 'attributes').get('title', '')}"
               for oid, score in results]
    if args.record_access:  # after the objects' reads: a damaged one logs nothing
        indexmod.log_search(cat, query, mode, results, args.actor)
    for line in out:
        print(line)


@_command("log", "inspect the event log",
          _arg("--object", dest="obj"),
          _arg("--top", type=int, help="access report for the top K objects"), _JSON)
def _log(cat, args):
    if args.top is not None and args.obj is not None:
        raise SystemExit2("--object and --top cannot be combined")
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
        print(json.dumps([codec.encode(r) for r in records], indent=1))
    else:
        for r in records:
            print(f"{r.seq}\t{r.at.isoformat()}\t{r.actor}\t{r.action}\t{r.target}")


@_command("resource", "manage semantic resources",
          _arg("action", choices=["load"], metavar="action", help="load: load a thesaurus file"),
          _arg("path"))
def _resource(cat, args):
    print(semantic.load_resource(cat, args.path, actor=args.actor))


@_command("validate", "structural validation of the whole catalog", _JSON)
def _validate(cat, args):
    violations = cat.validate()
    if args.json:
        print(json.dumps(list(map(dataclasses.asdict, violations)), indent=1))
    else:
        for v in violations:
            flag = "advisory" if v.advisory else "violation"
            print(f"{flag}\t{v.rule}\t{v.message}")
    if any(not v.advisory for v in violations):
        return EXIT_DOMAIN


@_command("export", "dump the catalog as one JSON document",
          _arg("--format", choices=["json"], default="json"))
def _export(cat, args):
    print(json.dumps(cat.export(), sort_keys=True, indent=1))


def run(argv=None) -> int:
    """Run one command with the cyclic GC paused: what the command parses
    out of the catalog holds no cycles, and reference counting frees it
    as `_run` returns, before the GC's earlier state comes back."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    _parser(args.command).parse_args(args.arguments, namespace=args)
    if args.catalog is None:
        args.catalog = os.environ.get(CATALOG_ENV)
    if args.actor is None:
        args.actor = _default_actor()
    handler = COMMANDS[args.command][2]
    try:
        with _open(args, create=args.command == "init") as cat:
            return handler(cat, args) or EXIT_OK
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
