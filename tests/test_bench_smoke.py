"""One pass of each benchmark workload, checked by the benchmark's own
oracles (`bench/workloads.py`): a change that breaks the `terms.json`,
link or search oracles fails here, before the benchmark runs. Like
`test_traced_names.py`, it reads the bench files and changes none."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported as bench/run.py imports it, without
    writing bytecode next to it."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return workloads


@pytest.mark.parametrize("name", ["ingest", "batch", "session"])
def test_one_pass_meets_the_oracles(workloads, tmp_path, name):
    wl = workloads.WORKLOADS[name](tmp_path, seed=1)
    try:
        wl.prepare()
        wl.build()
        assert wl.finish() == []
        wl.reset()
        outputs, failures = [], []
        for op in wl.ops():
            try:
                outputs.append(op.fn())
            except Exception as exc:  # the benchmark counts these; here none may happen
                outputs.append(None)
                failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        assert failures == []
        assert wl.check(outputs) == []
    finally:
        wl.close()
