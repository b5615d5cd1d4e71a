"""Seeded synthetic data lake: txt, csv, json and xml files plus one
thesaurus, with word choice Zipf-skewed over a fixed vocabulary.

The vocabulary, the thesaurus classes and the lake's shape (each file's
format and size, and which files get a description) do not depend on
the seed, so lakes of different seeds cost about the same to process and
searches hit the same popular terms. The seed picks the words, numbers,
tags, origins and descriptions.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

VOCAB_SIZE = 1500
ZIPF_S = 1.1
ORIGINS = ("internal source", "external source", "partner feed", "sensor archive")
COLUMNS = ("name", "city", "score", "count", "active", "label", "price", "code")
THESAURUS_NAME = "lexicon"
DESCRIBED_SHARE = 0.35
SHAPE_SEED = 20190920
# Fixed modification time of every lake file (1 Jan 2024 UTC, whole seconds),
# so that object metadata has the same size in every run.
LAKE_MTIME = 1704067200


def _make_vocabulary(size: int) -> list:
    """Deterministic pronounceable words, distinct and purely alphabetic."""
    onsets = "b c d f g k l m n p r s t v z".split()
    vowels = "a e i o u".split()
    codas = ["", "n", "r", "s", "l"]
    syllables = [o + v + c for o, v, c in itertools.product(onsets, vowels, codas)]
    rng = random.Random(SHAPE_SEED)
    words, seen = [], set()
    while len(words) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 2, 3))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


VOCABULARY = _make_vocabulary(VOCAB_SIZE)
_CUM_WEIGHTS = list(itertools.accumulate(1.0 / (r ** ZIPF_S) for r in range(1, VOCAB_SIZE + 1)))


# Disjoint synonym classes of three among the popular words (ranks 5..124).
THESAURUS_CLASSES = [VOCABULARY[i:i + 3] for i in range(5, 125, 3)]


@dataclass
class LakeFile:
    path: str  # absolute
    fmt: str  # text, csv, json or xml
    origin: str
    tags: list  # manual tags
    description: str | None  # set by a describe after ingest, or None
    size: int = 0


@dataclass
class Lake:
    files: list = field(default_factory=list)
    thesaurus_path: str = ""

    @property
    def source_bytes(self) -> int:
        return sum(f.size for f in self.files)


class Words:
    """Zipf-skewed word source over the fixed vocabulary."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def one(self) -> str:
        x = self.rng.random() * _CUM_WEIGHTS[-1]
        return VOCABULARY[bisect_left(_CUM_WEIGHTS, x)]

    def many(self, n: int) -> list:
        return [self.one() for _ in range(n)]

    def sentence(self, n: int) -> str:
        words = self.many(n)
        return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def _text(w: Words, shape: random.Random) -> str:
    sentences = [w.sentence(shape.randint(6, 18)) for _ in range(shape.randint(12, 30))]
    paragraphs = [" ".join(sentences[i:i + 5]) for i in range(0, len(sentences), 5)]
    return "\n\n".join(paragraphs) + "\n"


def _cell(w: Words, column: str) -> str:
    rng = w.rng
    if column in ("score", "price"):
        return f"{rng.uniform(0, 500):.2f}"
    if column == "count":
        return str(rng.randint(0, 10000))
    if column == "active":
        return rng.choice(("true", "false"))
    return w.one()


def _csv(w: Words, shape: random.Random) -> str:
    columns = shape.sample(COLUMNS, shape.randint(3, 6))
    rows = [",".join(columns)]
    for _ in range(shape.randint(15, 40)):
        rows.append(",".join(_cell(w, c) for c in columns))
    return "\n".join(rows) + "\n"


def _json(w: Words, shape: random.Random) -> str:
    rng = w.rng
    records = []
    for i in range(shape.randint(5, 15)):
        records.append({
            "id": i,
            "name": w.one(),
            "keywords": w.many(shape.randint(1, 5)),
            "meta": {"score": round(rng.uniform(0, 1), 4), "flag": rng.random() < 0.5,
                     "note": " ".join(w.many(shape.randint(3, 10)))},
        })
    return json.dumps({"source": w.one(), "records": records}, indent=1) + "\n"


def _xml(w: Words, shape: random.Random) -> str:
    items = []
    for i in range(shape.randint(5, 15)):
        items.append(
            f'  <item id="{i}" kind="{w.one()}">\n'
            f"    <name>{w.one()}</name>\n"
            f"    <desc>{' '.join(w.many(shape.randint(4, 12)))}</desc>\n"
            f"    <price>{w.rng.uniform(0, 100):.2f}</price>\n"
            "  </item>"
        )
    return "<catalog>\n" + "\n".join(items) + "\n</catalog>\n"


_GENERATORS = {"text": (_text, ".txt"), "csv": (_csv, ".csv"),
               "json": (_json, ".json"), "xml": (_xml, ".xml")}
_FORMAT_WEIGHTS = (("text", 4), ("csv", 2), ("json", 2), ("xml", 2))


def make_lake(root, n_files: int, seed: int) -> Lake:
    """Write `n_files` seeded files and the thesaurus under `root`."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    w = Words(rng)
    formats = [f for f, k in _FORMAT_WEIGHTS for _ in range(k)]
    formats = [formats[i % len(formats)] for i in range(n_files)]
    shape.shuffle(formats)
    described = set(shape.sample(range(n_files), round(n_files * DESCRIBED_SHARE)))
    lake = Lake()
    for i, fmt in enumerate(formats):
        make, ext = _GENERATORS[fmt]
        content = make(w, shape)
        path = root / f"f{i:04d}_{w.one()}{ext}"
        path.write_text(content, encoding="utf-8")
        os.utime(path, (LAKE_MTIME, LAKE_MTIME))
        tags = sorted(set(w.many(shape.randint(1, 2))))
        description = w.sentence(shape.randint(5, 12)) if i in described else None
        lake.files.append(LakeFile(path=str(path.resolve()), fmt=fmt,
                                   origin=rng.choice(ORIGINS), tags=tags,
                                   description=description,
                                   size=len(content.encode("utf-8"))))
    th = root / f"{THESAURUS_NAME}.txt"
    th.write_text("".join(",".join(cls) + "\n" for cls in THESAURUS_CLASSES),
                  encoding="utf-8")
    lake.thesaurus_path = str(th.resolve())
    return lake
