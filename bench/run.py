"""lakecat benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload {ingest,batch,session} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports lakecat from `src/` and
works in `.bench_work/` there, which it removes when it ends.

`--trace 0` prepares the benchmark's own inputs and oracles once, sets
the workload up, then repeats passes until `--seconds` of passes are
measured, and prints the end-to-end metrics. It builds the set-up three
more times among the passes; `setup_s` is the median of the four builds
and times lakecat calls only. `--trace 1` sets up once, runs one
untraced pass and two traced passes, checks that both traced passes
counted exactly the same work, and prints the per-layer metrics and the
tracing overhead.

Every pass is checked against the benchmark's own oracles. Earlier
lines of stdout give details; the last line is the result object. The
exit code is 1 if an oracle failed and 2 if lakecat cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of this many timed builds: one before the passes
# and the others spread evenly among them, because the host's speed
# changes every few seconds and builds made back to back all meet one speed.
SETUP_BUILDS = 4
TAIL_BEYOND = 10

# Span names reported per layer as .calls, .ms and .self_ms.
LAYER_FUNCTIONS = (
    "store.atomic_write_json", "store.atomic_write_text", "store.put_object",
    "store.get_object", "store.list_objects", "store.save_index", "store.open_catalog",
    "store.add_similarity_link", "store.validate", "store.export",
    "model.validate_hypernode",
    "index.tokenize", "index.object_terms", "index.index_object", "index.search",
    "index.InvertedIndex.remove_object", "index.InvertedIndex.to_dict",
    "index.InvertedIndex.from_dict",
    "inter.tokenize", "inter.link_all", "inter.recommend",
    "semantic.tag_object", "semantic.describe_object", "semantic.group_by_tags",
    "auditlog.EventLog.__init__", "auditlog.EventLog.append", "auditlog.EventLog.records",
    "auditlog.access_report",
    "ingest.profile_file", "ingest.summarize", "intra.create_object",
    "cli.run", "cli.build_parser",
)


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples above it: the (TAIL_BEYOND + 1)-th largest sample, at
    percentile 100 * (n - TAIL_BEYOND) / n. The maximum, at 100, when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, (ordered[-1] if ordered else math.nan)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def kinds_p50(per_kind: dict) -> float:
    """Median latency of each kind of operation, combined over the kinds
    as a geometric mean, so that each kind counts once however often it
    runs. NaN when no operation of any kind succeeded."""
    if not per_kind:
        return math.nan
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in per_kind.values()))


def timed_build(wl) -> float:
    wl.clear()
    t0 = perf_counter()
    wl.build()
    return perf_counter() - t0


def set_up(wl) -> tuple:
    """Prepare, build once and finish. Returns (build seconds, set-up
    oracle mismatches)."""
    wl.prepare()
    seconds = timed_build(wl)
    return seconds, wl.finish()


def run_pass(wl, tracer=None):
    """Reset the catalog, then run one pass of the workload's script.
    Returns (pass seconds, [(op, seconds or None if it failed)], outputs,
    failure messages)."""
    wl.reset()
    ops = wl.ops()
    timings, outputs, failures = [], [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            timings.append((op, None))
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}"[:300])
            continue
        timings.append((op, perf_counter() - t0))
        outputs.append(out)
    return perf_counter() - start, timings, outputs, failures


def timed_run(wl, seconds: float) -> dict:
    first, errors = set_up(wl)
    setup_times = [first]
    passes, scans, samples, failures = [], [], [], []
    attempted = 0
    catalog_bytes = None
    while sum(passes) < seconds:
        if sum(passes) >= seconds * len(setup_times) / SETUP_BUILDS:
            setup_times.append(timed_build(wl))
        pass_s, timings, outputs, failed = run_pass(wl)
        passes.append(pass_s)
        attempted += len(timings)
        failures += failed
        samples += [(op.kind, op.write, t * 1e3) for op, t in timings if t is not None]
        scans.append(sum(t for op, t in timings if t is not None and op.kind != "link_all"))
        errors += wl.check(outputs)
        if catalog_bytes is None:
            catalog_bytes = wl.catalog_tree_bytes()
    while len(setup_times) < SETUP_BUILDS:
        setup_times.append(timed_build(wl))
    wl.close()

    tail_p, tail_ms = tail(t for _k, _w, t in samples)
    measured = sum(passes)
    per_kind, per_write_kind = {}, {}
    for kind, write, t in samples:
        per_kind.setdefault(kind, []).append(t)
        if write:
            per_write_kind.setdefault(kind, []).append(t)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_op_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        "ops_per_s": (len(samples) / measured, "1/s"),
        "p50_ms": (kinds_p50(per_kind), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "write_p50_ms": (kinds_p50(per_write_kind), "ms"),
        "bytes_per_input_byte": (catalog_bytes / wl.lake.source_bytes, "ratio"),
    }
    detail = {
        "workload": wl.name, "seed": wl.seed, "objects": len(wl.lake.files),
        "source_bytes": wl.lake.source_bytes, "catalog_bytes": catalog_bytes,
        "passes": len(passes), "pass_s_each": passes, "measured_s": measured,
        "samples": len(samples),
        "tail_percentile": tail_p, "setup_s_each": setup_times,
        "ops": {k: {"n": len(v), "p50_ms": statistics.median(v)}
                for k, v in sorted(per_kind.items())},
        "named": named_metrics(wl.name, metrics, per_kind, scans),
        "failures": failures[:20], "oracle_errors": errors[:20],
    }
    return {"correct": not errors, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "detail": detail}


def named_metrics(workload, metrics, per_kind, scans) -> dict:
    """The end-to-end metrics under their workload-prefixed names, and on
    `batch` the median `link_all` and the median time per pass of the
    other operations."""
    value = {k: v for k, (v, _unit) in metrics.items()}
    out = {
        "setup_s": (value["setup_s"], "s"),
        "peak_rss_mb": (value["peak_rss_mb"], "MB"),
        "failed_op_ratio": (1.0 - value["ok_op_ratio"], "ratio"),
    }
    if workload == "ingest":
        out["ingest.objects_per_s"] = (value["ops_per_s"], "1/s")
        out["ingest.p50_ms"] = (value["p50_ms"], "ms")
        out["ingest.tail_ms"] = (value["tail_ms"], "ms")
        out["ingest.bytes_per_input_byte"] = (value["bytes_per_input_byte"], "ratio")
    elif workload == "batch":
        out["batch.link_all_s"] = (statistics.median(per_kind.get("link_all", [math.nan])) / 1e3,
                                   "s")
        out["batch.scan_s"] = (statistics.median(scans), "s")
    else:
        out["session.ops_per_s"] = (value["ops_per_s"], "1/s")
        out["session.p50_ms"] = (value["p50_ms"], "ms")
        out["session.tail_ms"] = (value["tail_ms"], "ms")
        out["session.write_p50_ms"] = (value["write_p50_ms"], "ms")
    return out


def traced_run(wl) -> dict:
    from spans import Tracer

    _seconds, errors = set_up(wl)
    untraced_s, timings, outputs, failures = run_pass(wl)
    errors += wl.check(outputs)
    attempted = len(timings)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            pass_s, timings, outputs, failed = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        attempted += len(timings)
        failures += failed
        errors += wl.check(outputs)
        traced.append((pass_s, tracer, len(timings)))
    wl.close()

    first, second = (layer_metrics(t, n) for _s, t, n in traced)
    counts = [{k: v for k, v in m.items() if not k.endswith("ms")} for m in (first, second)]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
    if differ:
        errors.append(f"traced passes counted different work: {differ[:10]}")
    metrics = {k: ((v + second[k]) / 2 if k.endswith("ms") else v) for k, v in first.items()}
    traced_s = statistics.mean(s for s, _t, _n in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    full = {name: row for name, row in sorted(traced[0][1].table().items())}
    detail = {"workload": wl.name, "seed": wl.seed, "untraced_pass_s": untraced_s,
              "traced_pass_s": [s for s, _t, _n in traced], "spans": full,
              "failures": failures[:20], "oracle_errors": errors[:20]}
    units = {k: unit_of(k) for k in metrics}
    return {"correct": not errors, "attempted": attempted, "failed": len(failures),
            "metrics": {k: (v, units[k]) for k, v in metrics.items()}, "detail": detail}


def unit_of(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("bytes", "bytes_read", "bytes_written")):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(tracer, n_ops: int) -> dict:
    table = tracer.table()
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0}
    row = lambda name: table.get(name, empty)  # noqa: E731
    out = {}
    for name in LAYER_FUNCTIONS:
        r = row(name)
        out[f"{name}.calls"] = r["calls"]
        out[f"{name}.ms"] = r["ms"]
        out[f"{name}.self_ms"] = r["self_ms"]
    c = tracer.counts
    out["store.atomic_write_text.bytes"] = row("store.atomic_write_text")["bytes"]
    out["store.save_index.bytes"] = row("store.save_index")["bytes"]
    for mod in ("store", "auditlog"):
        out[f"{mod}.fsync.calls"] = row(f"{mod}.fsync")["calls"]
        out[f"{mod}.fsync.ms"] = row(f"{mod}.fsync")["ms"]
    out["store.replace.calls"] = row("store.replace")["calls"]
    for key in ("store.bytes_written", "store.bytes_read", "auditlog.bytes_written",
                "auditlog.bytes_read", "index.bytes_read", "inter.bytes_read",
                "ingest.bytes_read"):
        out[key] = c[key]
    pairs = row("inter._compute_link")["calls"]
    links = row("store.add_similarity_link")["calls"]
    out["inter.pairs_compared"] = pairs
    out["inter.links_stored"] = links
    out["inter.useful_pair_ratio"] = links / pairs if pairs else 0.0
    fsyncs = out["store.fsync.calls"] + out["auditlog.fsync.calls"]
    out["per_op.fsync"] = fsyncs / n_ops
    out["per_op.replace"] = out["store.replace.calls"] / n_ops
    out["per_op.bytes_written"] = (c["store.bytes_written"] + c["auditlog.bytes_written"]) / n_ops
    out["per_op.get_object"] = row("store.get_object")["calls"] / n_ops
    out["per_op.tokenize"] = (row("index.tokenize")["calls"] + row("inter.tokenize")["calls"]) / n_ops
    fsyncs_within = lambda outer: (tracer.calls_within(outer, "store.fsync")  # noqa: E731
                                   + tracer.calls_within(outer, "auditlog.fsync"))
    ingests = row("ingest.ingest_file")["calls"]
    out["per_ingest_file.fsync"] = fsyncs_within("ingest.ingest_file") / ingests if ingests else 0.0
    linked = tracer.calls_within("inter.link_all", "store.add_similarity_link")
    out["per_link.fsync"] = fsyncs_within("inter.link_all") / linked if linked else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "batch", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lakecat
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import lakecat from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(lakecat.__file__).resolve().parent.parent != src:
        print(f"error: lakecat was imported from {lakecat.__file__}, not {src}",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        result = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still works there

    detail = result.pop("detail")
    print(json.dumps({"detail": detail}, default=str))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
