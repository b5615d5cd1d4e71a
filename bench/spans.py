"""Span tracing of lakecat from outside the package.

`Tracer.install()` replaces, for the duration of a traced pass, every
public function binding of the traced modules with a wrapper that
records a span (name, start, end, parent, op). A name is wrapped where
callers look it up: `inter.tokenize` is its own binding of
`index.tokenize` and gets its own span name. Functions defined in
`lakecat.model` keep the `model.` prefix whatever module they are bound
in, because every layer imports them from there. Methods of `Catalog`,
`EventLog` and `InvertedIndex` are wrapped on the class; `Catalog`
methods are named `store.<method>`.

Counts at the same boundaries: `os.fsync` and `os.replace` calls seen
through the `os` name of `store` and `auditlog`, and bytes moved through
`open()` in each module, each keyed by the calling module.
`uninstall()` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("model", "store", "intra", "inter", "semantic", "index", "auditlog",
           "ingest", "cli")
CLASSES = {"store": ("Catalog",), "auditlog": ("EventLog",), "index": ("InvertedIndex",)}
# Module-level private functions whose calls are counted: each call is
# one pair of objects compared by link_all or compute_similarity.
EXTRA = {"inter": ("_compute_link",)}
OS_MODULES = ("store", "auditlog")
FILE_MODULES = ("store", "auditlog", "index", "inter", "ingest")

# Span record layout: [name, start, end, parent, op, written_at_start, written_at_end].
NAME, START, END, PARENT, OP, W0, W1 = range(7)


class _CountingFile:
    """File object proxy that adds the bytes it reads and writes to the
    tracer's counters under its module's name."""

    def __init__(self, f, tracer, module):
        self._f = f
        self._tracer = tracer
        self._module = module

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    @staticmethod
    def _size(data) -> int:
        return len(data.encode("utf-8")) if isinstance(data, str) else len(data)

    def write(self, data):
        n = self._size(data)
        self._tracer.counts[f"{self._module}.bytes_written"] += n
        self._tracer.bytes_written += n
        return self._f.write(data)

    def read(self, *args):
        data = self._f.read(*args)
        self._tracer.counts[f"{self._module}.bytes_read"] += self._size(data)
        return data

    def __iter__(self):
        for line in self._f:
            self._tracer.counts[f"{self._module}.bytes_read"] += self._size(line)
            yield line

    def __getattr__(self, name):
        return getattr(self._f, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.bytes_written = 0
        self.op = None
        self._restore = []

    # -- recording
    def _record(self, name, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                self.bytes_written, 0]
        index = len(spans)
        spans.append(span)
        stack.append(index)
        span[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            span[W1] = self.bytes_written
            stack.pop()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._record(name, fn, args, kwargs)

        return traced

    def _open_for(self, module):
        tracer = self

        def counting_open(*args, **kwargs):
            return _CountingFile(open(*args, **kwargs), tracer, module)

        return counting_open

    # -- installation
    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"lakecat.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                if not (inspect.isfunction(obj) and obj.__module__.startswith("lakecat.")):
                    continue
                prefix = "model" if obj.__module__ == "lakecat.model" else short
                self._set(mod, attr, self.wrap(f"{prefix}.{attr}", obj))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                prefix = short if cls_name == "Catalog" else f"{short}.{cls_name}"
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if inspect.isfunction(obj):
                        self._set(cls, attr, self.wrap(f"{prefix}.{attr}", obj))
                    elif isinstance(obj, classmethod):
                        self._set(cls, attr, classmethod(
                            self.wrap(f"{prefix}.{attr}", obj.__func__)))
        for short in OS_MODULES:
            mod = importlib.import_module(f"lakecat.{short}")
            proxy = types.SimpleNamespace(**vars(os))
            proxy.fsync = self.wrap(f"{short}.fsync", os.fsync)
            proxy.replace = self.wrap(f"{short}.replace", os.replace)
            self._set(mod, "os", proxy)
        for short in FILE_MODULES:
            mod = importlib.import_module(f"lakecat.{short}")
            self._set(mod, "open", self._open_for(short))

    def uninstall(self) -> None:
        for owner, attr, value, had in reversed(self._restore):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- aggregation
    def table(self) -> dict:
        """name -> {"calls", "ms", "self_ms", "bytes"}; bytes are those
        written through open() while the span was open."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                              "bytes": 0})
            dur = span[END] - span[START]
            row["calls"] += 1
            row["ms"] += dur * 1e3
            row["self_ms"] += (dur - child_time[i]) * 1e3
            row["bytes"] += span[W1] - span[W0]
        return out

    def calls_within(self, outer: str, inner: str) -> int:
        """Calls of `inner` that have an `outer` span among their ancestors."""
        spans = self.spans
        n = 0
        for span in spans:
            if span[NAME] != inner:
                continue
            parent = span[PARENT]
            while parent is not None:
                if spans[parent][NAME] == outer:
                    n += 1
                    break
                parent = spans[parent][PARENT]
        return n
