"""Run every workload once, each in a process of its own, and print every
metric by name with its unit.

    python3 benchmark/all.py --seed 1 --seconds 25 [--trace 1]

A process per workload keeps peak_rss_mb the peak of that workload alone.
Besides the metrics of the result line, each workload's solver times (with
sample counts), relative errors and fail rate (failed of attempted) are
printed.  Exits 1 if any workload's run failed or had a wrong answer.
"""

import argparse
import json
import subprocess
import sys

from run import ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        print(f"== {name}: {report['customers']} customers, "
              f"{result['failed']} of {result['attempted']} solver calls failed")
        for key, m in {**result["metrics"], **report["solvers"]}.items():
            base = "".join(f" {k}={m[k]}" for k in ("samples", "failed", "attempted")
                           if k in m)
            print(f"  {key:32s} {m['value']:>16.6g} {m['unit']:<14s}{base}")
        for failure in report["failures"]:
            print(f"  FAILED {failure}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
