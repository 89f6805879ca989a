"""Benchmark of the assortmax solvers: one workload, one closed-loop run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload cold-6b --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): cold-6b, customers-6b,
capacity-1e5, noisy-12k.  The same seed gives the same catalog and the same
customers.  Every solver answer is checked; a wrong answer or an exception
counts as a failure and the run goes on.

Standard output ends with two JSON lines.  The first, {"report": ...}, holds
the provenance (machine, versions, commit, shapes, seeds), every solver's
time with its sample count, the relative errors against the scan oracle and
the failures.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, from
spans recorded around the library calls, plus the tracing overhead (traced
minus untraced, over the same customers).  Spans are written to
benchmark/out/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Cap BLAS threads at the usable CPU count and put the library's
    source on the import path; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    src = ROOT / "src"
    if not (src / "assortmax" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src}; "
                         "run the benchmark from the root of a full checkout")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import harness

    report, line = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
