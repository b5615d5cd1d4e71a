"""The three workloads and their oracles.

Each workload is a closed loop with one client and no think time. A run
prepares the benchmark's own inputs and oracles once (`prepare()`), then
builds the catalog several times (`build()`, the timed set-up), then
derives what depends on the last build's object ids (`finish()`). It
then repeats *passes*: `reset()` puts the catalog back into its set-up
state outside the timed region, and `ops()` gives the pass's fixed
script of operations, each timed on its own. After each pass `check()`
compares what the operations returned and what the catalog holds against
oracles computed by the benchmark itself, never by lakecat. Object ids
are random, so the oracles match objects by source path.

- `ingest`: ingest the lake into an empty catalog (write path, no
  `inter`).
- `batch`: whole-catalog passes over a built catalog (`link_all`,
  clusters, recommend, groupings, validate, export, access report).
- `session`: short CLI commands through `lakecat.cli.run`, each opening
  and closing the catalog, mostly searches plus a few writes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import shutil
from collections import Counter, namedtuple
from functools import partial
from pathlib import Path

from lakecat import auditlog, cli, ingest, inter, semantic, store

import lake as lakemod

# The catalog size is bounded by the run budget, not chosen from traffic:
# set-up ingests the whole lake four times per run, and ingest
# time grows with N squared at this code (see README.md, "Sizing").
N_OBJECTS = 40
# link_all uses the threshold that stores this share of the compared
# pairs: a minority, and about as many links in every lake. clusters use
# the threshold that keeps this share.
LINK_SHARE = 1 / 4
CLUSTER_SHARE = 1 / 40
RECOMMEND_SAMPLE = 10
SETUP_ACCESSES = 120
# Commands of one session pass, by kind, and how the searches split. The
# counts are exact, only their order is seeded, so that scripts of
# different seeds cost about the same.
SESSION_MIX = (("search", 70), ("show", 10), ("log", 5), ("tag", 8), ("describe", 7))
SEARCH_MODES = (("any", 28), ("all", 14), ("expand", 28))
RECORDED_SEARCHES = 10
TOP_K = 5
ACTOR = "bench"

# kind: short name of the operation; write: it changes what the catalog
# holds (objects, links, groupings, index or log); fn() returns the op's
# output.
Op = namedtuple("Op", "kind write fn")

_TOKEN = re.compile(r"[0-9a-z]+")


def terms(text) -> set:
    """The benchmark's own tokenizer: lowercase alphanumeric runs."""
    return set(_TOKEN.findall(text.lower())) if text else set()


def derived_tags(text: str) -> list:
    """Top five word-cloud terms, as auto_tag derives them."""
    counts = Counter(_TOKEN.findall(text.lower()))
    return [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]]


def ingest_one(cat, f) -> str:
    """One lake file into the catalog: manual tags, auto_tag for text
    files, and a describe when the file has a description."""
    oid = ingest.ingest_file(cat, f.path, origin=f.origin, tags=f.tags, actor=ACTOR,
                             auto_tag=f.fmt == "text")
    if f.description:
        semantic.describe_object(cat, oid, f.description, actor=ACTOR)
    return oid


def zipf_picks(rng: random.Random, n: int, k: int) -> list:
    """k positions in range(n), position i drawn with weight 1/(i+1)."""
    cum = list(itertools.accumulate(1.0 / (i + 1) for i in range(n)))
    return rng.choices(range(n), cum_weights=cum, k=k)


def read_links(catalog_dir) -> list:
    with open(Path(catalog_dir) / "links.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _mismatch(what: str, got, want) -> str:
    return f"{what}: got {str(got)[:200]} want {str(want)[:200]}"


class CommandFailed(Exception):
    """A CLI command exited with a code other than 0."""


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.catalog_dir = self.work / "catalog"
        self.snapshot_dir = self.work / "snapshot"
        self.lake = None
        self.cat = None  # library handle, held only while the benchmark calls the library

    def prepare(self) -> None:
        """The benchmark's own inputs, once per run and untimed: the lake
        and the terms and tags of each source file."""
        self.lake = lakemod.make_lake(self.work / "lake", N_OBJECTS, self.seed)
        content = {f.path: Path(f.path).read_text(encoding="utf-8") for f in self.lake.files}
        self.content_terms = {path: terms(text) for path, text in content.items()}
        self.derived = {f.path: set(derived_tags(content[f.path])) if f.fmt == "text" else set()
                        for f in self.lake.files}
        self.tag_labels = {f.path: set(f.tags) | self.derived[f.path] for f in self.lake.files}

    def clear(self) -> None:
        """Remove the catalog, before a timed build."""
        self.close()
        shutil.rmtree(self.catalog_dir, ignore_errors=True)

    def build(self) -> None:
        """The timed set-up: lakecat calls only. A run builds again between
        passes; that must not disturb the passes' own state."""
        raise NotImplementedError

    def finish(self) -> list:
        """Untimed, once, after the first build: whatever depends on its
        object ids. Returns oracle mismatches of the set-up itself."""
        return []

    def reset(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, outputs: list) -> list:
        """Oracle mismatches of the pass just run, as messages."""
        raise NotImplementedError

    def catalog_tree_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.catalog_dir.rglob("*") if p.is_file())

    def close(self) -> None:
        if self.cat is not None:
            self.cat.close()
            self.cat = None

    def object_terms(self, f, tags, description) -> set:
        """Terms the index should hold for a file's object: its content,
        its file name, its tag labels and its current description."""
        out = self.content_terms[f.path] | terms(Path(f.path).name) | terms(description)
        for label in tags:
            out |= terms(label)
        return out


class IngestWorkload(Workload):
    name = "ingest"

    def build(self) -> None:
        # A warm-up: one ingest of the lake, so that imports, the page
        # cache and lazy initialisation are done before the passes.
        self.reset()
        for f in self.lake.files:
            ingest_one(self.cat, f)
        self.close()

    def reset(self) -> None:
        self.close()
        shutil.rmtree(self.catalog_dir, ignore_errors=True)
        self.cat = store.open_catalog(self.catalog_dir, create_if_missing=True)

    def ops(self) -> list:
        return [Op("ingest", True, partial(ingest_one, self.cat, f)) for f in self.lake.files]

    def check(self, outputs: list) -> list:
        errors = []
        cat = self.cat
        violations = cat.validate()
        if violations:
            errors.append(_mismatch("ingest validate", [v.message for v in violations], []))
        replayed = auditlog.replay_counts(cat.log.records())["objects"]
        if replayed != len(self.lake.files) or len(cat.object_ids()) != len(self.lake.files):
            errors.append(_mismatch("ingest replay_counts objects", replayed, len(self.lake.files)))
        want = {}
        for f, oid in zip(self.lake.files, outputs):
            if oid is None:
                continue
            with open(self.catalog_dir / "objects" / f"{oid}.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc["attributes"]["path"] != f.path:
                errors.append(_mismatch(f"ingest object path of {oid}",
                                        doc["attributes"]["path"], f.path))
            root = doc["nodes"][0]["id"]
            for term in self.object_terms(f, self.tag_labels[f.path], f.description):
                want.setdefault(term, set()).add((oid, root))
        with open(self.catalog_dir / "index" / "terms.json", encoding="utf-8") as fh:
            got = {t: {tuple(p) for p in posts} for t, posts in json.load(fh).items()}
        if got != want:
            diff = sorted(t for t in set(got) | set(want) if got.get(t) != want.get(t))
            errors.append(f"ingest index postings differ on {len(diff)} terms: {diff[:10]}")
        return errors


class BuiltWorkload(Workload):
    """A workload whose set-up builds the whole catalog: every file
    ingested, the thesaurus loaded, Zipf-skewed accesses recorded, and
    `link_all` run when LINKED."""

    LINKED = False

    def prepare(self) -> None:
        super().prepare()
        files = self.lake.files
        # Brute-force Jaccard over the source files, by path pair.
        self.jaccard = {}
        for a, b in itertools.combinations(files, 2):
            ta, tb = self.content_terms[a.path], self.content_terms[b.path]
            union = ta | tb
            self.jaccard[frozenset((a.path, b.path))] = len(ta & tb) / len(union) if union else 1.0
        ranked = sorted(self.jaccard.values(), reverse=True)
        self.link_threshold = ranked[round(len(ranked) * LINK_SHARE) - 1]
        self.cluster_threshold = ranked[round(len(ranked) * CLUSTER_SHARE) - 1]
        self.want_links = {pair: value for pair, value in self.jaccard.items()
                           if value >= self.link_threshold}
        self.picks = zipf_picks(random.Random(self.seed + 1), len(files), SETUP_ACCESSES)

    def build(self) -> None:
        with store.open_catalog(self.catalog_dir, create_if_missing=True) as cat:
            self.built_oids = [ingest_one(cat, f) for f in self.lake.files]
            semantic.load_resource(cat, self.lake.thesaurus_path, actor=ACTOR)
            for i in self.picks:
                cat.get_object(self.built_oids[i], record_access=True, actor=ACTOR)
            if self.LINKED:
                self.built_links = inter.link_all(cat, threshold=self.link_threshold,
                                                  actor=ACTOR)

    def finish(self) -> list:
        shutil.copytree(self.catalog_dir, self.snapshot_dir)
        self.oids = self.built_oids
        self.path_of = {oid: f.path for oid, f in zip(self.oids, self.lake.files)}
        self.setup_accesses = Counter(self.oids[i] for i in self.picks)
        return self.link_errors(self.built_links) if self.LINKED else []

    def reset(self) -> None:
        self.close()
        shutil.rmtree(self.catalog_dir, ignore_errors=True)
        shutil.copytree(self.snapshot_dir, self.catalog_dir)

    def link_errors(self, count) -> list:
        """The count returned by link_all and the stored link records
        against the brute-force Jaccard, pair by pair and value by value."""
        errors = []
        if count != len(self.want_links):
            errors.append(_mismatch("link_all count", count, len(self.want_links)))
        stored = {frozenset(self.path_of[e] for e in r["endpoints"]): r["value"]
                  for r in read_links(self.catalog_dir) if r["type"] == "similarity"}
        if stored != self.want_links:
            errors.append(_mismatch("stored links", len(stored), len(self.want_links)))
        return errors


class BatchWorkload(BuiltWorkload):
    name = "batch"

    def finish(self) -> list:
        errors = super().finish()
        oid_of = {path: oid for oid, path in self.path_of.items()}
        # recommend is asked for the best-connected objects, so that every
        # call ranks many neighbours.
        degree = Counter(path for pair in self.want_links for path in pair)
        hubs = sorted(oid_of, key=lambda path: (-degree[path], path))[:RECOMMEND_SAMPLE]
        self.sample = [oid_of[path] for path in hubs]
        self.want_recommend = []
        for path in hubs:
            mine = self.tag_labels[path]
            neighbours = [(oid_of[other], value) for pair, value in self.want_links.items()
                          if path in pair for other in pair - {path}]
            ranked = sorted(neighbours, key=lambda nv: (
                -nv[1], -len(mine & self.tag_labels[self.path_of[nv[0]]]), nv[0]))
            self.want_recommend.append(ranked[:TOP_K])
        self.want_origin = {}
        for oid, f in zip(self.oids, self.lake.files):
            self.want_origin.setdefault(f.origin, set()).add(oid)
        self.want_top = sorted(self.setup_accesses.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        return errors

    def reset(self) -> None:
        super().reset()
        self.cat = store.open_catalog(self.catalog_dir)

    def _recommend_sample(self) -> list:
        return [inter.recommend(self.cat, oid, k=TOP_K) for oid in self.sample]

    def ops(self) -> list:
        cat = self.cat
        return [
            Op("link_all", True, partial(inter.link_all, cat, threshold=self.link_threshold,
                                         actor=ACTOR)),
            Op("clusters", False, partial(inter.clusters, cat, self.cluster_threshold)),
            Op("recommend", False, self._recommend_sample),
            Op("group_by", True, partial(inter.group_by, cat, "origin")),
            Op("group_by_tags", True, partial(semantic.group_by_tags, cat,
                                              thesaurus=lakemod.THESAURUS_NAME)),
            Op("validate", False, cat.validate),
            Op("export", False, cat.export),
            Op("access_report", False, partial(auditlog.access_report, cat, 10)),
        ]

    def check(self, outputs: list) -> list:
        got = {op.kind: out for op, out in zip(self.ops(), outputs)}
        errors = self.link_errors(got["link_all"])
        # clusters oracle: breadth-first search over the stored link records
        adjacency = {oid: set() for oid in self.oids}
        for r in read_links(self.catalog_dir):
            if r["type"] == "similarity" and r["value"] >= self.cluster_threshold:
                a, b = r["endpoints"]
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen, want_clusters = set(), []
        for start in sorted(self.oids):
            if start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                for nxt in adjacency[frontier.pop()]:
                    if nxt not in component:
                        component.add(nxt)
                        frontier.append(nxt)
            seen |= component
            want_clusters.append(component)
        if got["clusters"] != want_clusters:
            errors.append(_mismatch("batch clusters", got["clusters"], want_clusters))
        if got["recommend"] != self.want_recommend:
            errors.append(_mismatch("batch recommend", got["recommend"], self.want_recommend))
        if got["group_by"] is not None and got["group_by"].collections != self.want_origin:
            errors.append(_mismatch("batch group_by origin", got["group_by"].collections,
                                    self.want_origin))
        if got["validate"] != []:
            errors.append(_mismatch("batch validate", got["validate"], []))
        if got["access_report"] != self.want_top:
            errors.append(_mismatch("batch access_report", got["access_report"], self.want_top))
        return errors


class SessionWorkload(BuiltWorkload):
    name = "session"
    LINKED = True

    def finish(self) -> list:
        errors = super().finish()
        self._script()
        return errors

    def _script(self) -> None:
        """A fixed command script with the output each command must print,
        simulated against the benchmark's own model of the catalog."""
        rng = random.Random(self.seed + 3)
        words = lakemod.Words(rng)
        files = self.lake.files
        oids = self.oids
        file_of = dict(zip(oids, files))
        tags = {oid: {(t, "manual") for t in f.tags} for oid, f in zip(oids, files)}
        for oid, f in zip(oids, files):
            tags[oid] |= {(t, "derived") for t in self.derived[f.path]}
        desc = {oid: f.description for oid, f in zip(oids, files)}
        title = {oid: Path(f.path).name for oid, f in zip(oids, files)}
        accesses = Counter(self.setup_accesses)
        synonyms = {w: set(cls) for cls in lakemod.THESAURUS_CLASSES for w in cls}

        def have(oid):
            return self.object_terms(file_of[oid], {label for label, _ in tags[oid]}, desc[oid])

        index = {oid: have(oid) for oid in oids}

        def naive_search(query, all_terms, expand):
            qs = list(dict.fromkeys(_TOKEN.findall(query.lower())))
            hits = []
            for oid in oids:
                matched = [q for q in qs
                           if ({q} | (synonyms.get(q, set()) if expand else set())) & index[oid]]
                if (len(matched) == len(qs)) if all_terms else matched:
                    hits.append((oid, len(matched)))
            return sorted(hits, key=lambda h: (-h[1], h[0]))

        def shuffled(mix):
            out = [name for name, n in mix for _ in range(n)]
            rng.shuffle(out)
            return out

        kinds = shuffled(SESSION_MIX)
        modes = shuffled(SEARCH_MODES)
        n_search = len(modes)
        recorded = shuffled(((True, RECORDED_SEARCHES), (False, n_search - RECORDED_SEARCHES)))
        picks = zipf_picks(rng, len(oids), len(kinds))
        self.script = []  # (kind, write, argv, expected stdout)
        for n, (kind, pick) in enumerate(zip(kinds, picks)):
            oid = oids[pick]
            as_json = n % 2 == 0
            if kind == "search":
                mode = modes.pop()
                if mode == "expand":
                    cls = rng.choice(lakemod.THESAURUS_CLASSES)
                    query = [rng.choice(cls)] + words.many(rng.randint(0, 1))
                elif mode == "all":
                    query = words.many(2)
                else:
                    query = words.many(rng.randint(1, 3))
                # A search that records access appends to the log: a write.
                record = recorded.pop()
                argv = ["search", *query] + (["--all"] if mode == "all" else [])
                argv += ["--expand", lakemod.THESAURUS_NAME] if mode == "expand" else []
                argv += ["--record-access"] if record else []
                argv += ["--json"] if as_json else []
                hits = naive_search(" ".join(query), mode == "all", mode == "expand")
                if record:
                    accesses.update(h for h, _ in hits)
                if as_json:
                    want = json.dumps([[h, s] for h, s in hits]) + "\n"
                else:
                    want = "".join(f"{s}\t{h}\t{title[h]}\n" for h, s in hits)
                self.script.append((kind, record, argv, want))
            elif kind == "show":
                argv = ["show", oid] + (["--json"] if as_json else [])
                want = ("json-id", oid) if as_json else ("first-line", f"object {oid}")
                self.script.append((kind, False, argv, want))
            elif kind == "log":
                top = sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K]
                argv = ["log", "--top", str(TOP_K)] + (["--json"] if as_json else [])
                if as_json:
                    want = json.dumps([[o, n] for o, n in top]) + "\n"
                else:
                    want = "".join(f"{n}\t{o}\n" for o, n in top)
                self.script.append((kind, False, argv, want))
            elif kind == "tag":
                new = sorted(set(words.many(rng.randint(1, 2))))
                tags[oid] |= {(t, "manual") for t in new}
                index[oid] = have(oid)
                want = ", ".join(sorted(label for label, _source in tags[oid])) + "\n"
                self.script.append((kind, True, ["tag", oid, *new], want))
            else:
                text = words.sentence(rng.randint(5, 12))
                desc[oid] = text
                index[oid] = have(oid)
                self.script.append((kind, True, ["describe", oid, text], ""))
        base = ["--catalog", str(self.catalog_dir), "--actor", ACTOR]
        self.script = [(k, w, base + argv, want) for k, w, argv, want in self.script]

    @staticmethod
    def _cli(argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        if rc != 0:
            raise CommandFailed(f"exit {rc}: {err.getvalue().strip()[:200]}")
        return out.getvalue()

    def ops(self) -> list:
        return [Op(kind, write, partial(self._cli, argv))
                for kind, write, argv, _want in self.script]

    def check(self, outputs: list) -> list:
        errors = []
        for (kind, _write, argv, want), got in zip(self.script, outputs):
            if got is None:
                errors.append(f"session {kind} did not exit 0: {' '.join(argv[4:])[:120]}")
            elif isinstance(want, tuple):
                how, value = want
                ok = (json.loads(got).get("id") == value if how == "json-id"
                      else got.splitlines()[:1] == [value])
                if not ok:
                    errors.append(_mismatch(f"session {kind}", got[:80], value))
            elif got != want:
                errors.append(_mismatch(f"session {' '.join(argv[4:])[:80]}", got, want))
        return errors


WORKLOADS = {w.name: w for w in (IngestWorkload, BatchWorkload, SessionWorkload)}
