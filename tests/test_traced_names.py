"""The benchmark's tracer names lakecat functions by their span names
(`bench/spans.py`), and `bench/run.py` reports a fixed list of them. A
renamed, deleted or inlined function silently reads 0 calls there, so
every name the benchmark relies on must be one the tracer wraps."""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Names bench/run.py still lists although lakecat deleted them; they read
# 0 until the benchmark itself is repaired.
STALE = {"index.index_object", "auditlog.EventLog.append",
         "index.InvertedIndex.remove_object", "intra.create_object"}


def _layer_functions() -> tuple:
    """LAYER_FUNCTIONS of bench/run.py, read without running the script."""
    for node in ast.parse((BENCH / "run.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no LAYER_FUNCTIONS")


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_reports_is_traced():
    spans = _spans_module()
    tracer = spans.Tracer()
    traced = set()
    tracer.wrap = lambda name, fn: traced.add(name) or fn
    tracer.install()
    try:
        wanted = set(_layer_functions())
        wanted |= {f"{module}.{name}" for module, names in spans.EXTRA.items()
                   for name in names}
    finally:
        tracer.uninstall()
    assert "inter._compute_link" in wanted
    assert wanted - traced == STALE
