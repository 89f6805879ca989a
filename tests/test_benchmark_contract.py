"""The benchmark under benchmark/ drives the library through public names and
injection points; these checks fail when a library change breaks them."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    try:
        import harness
        yield harness
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["cold-6b", "customers-6b"])
def test_traced_hooks_see_the_engine_work(harness, workload):
    # the tracer wraps LshIndex.bucket, EmbeddedCollection.scores_at and the
    # engines' query; each must still be reached by a hashed or exact solve
    _, line = harness.run(workload, 7, 600.0, True, toy_shapes=True,
                          max_customers=2)
    assert line["correct"], line
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["mips.bucket_lookups"] > 0
    assert metrics["mips.candidates"] > 0
    assert metrics["mips.bucket_us"] > 0
    assert metrics["mips.rescore_us"] > 0
    if workload == "cold-6b":
        assert metrics["mips.exact_query_ms"] > 0
