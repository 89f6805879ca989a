"""Self-check of the benchmark itself, at toy shapes (a few seconds).

    python3 benchmark/selfcheck.py

For every workload it confirms that
  * the untraced run emits exactly the end-to-end metrics BENCHMARK.json
    names, and the traced run exactly the per-layer ones, with their units;
  * an injected infeasible answer is counted as a failure;
  * one seed gives identical relative errors and fail rate on two runs.
Exits 0 when every check holds, 1 otherwise, listing what failed.
"""

import json
import sys
from dataclasses import replace

import run


def main() -> int:
    run.bootstrap()
    import harness
    from assortmax import Assortment

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {mode: {m["name"]: m["unit"] for m in spec[mode]}
             for mode in ("end_to_end", "per_layer")}
    problems = []

    def toy_run(name, trace=False, inject=None):
        return harness.run(name, 7, 600.0, trace, toy_shapes=True,
                           max_customers=3, inject=inject)

    for name, workload in harness.WORKLOADS.items():
        for trace, mode in ((False, "end_to_end"), (True, "per_layer")):
            _, line = toy_run(name, trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} {mode}: result keys {sorted(line)}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != units[mode]:
                missing = sorted(set(units[mode]) - set(got))
                extra = sorted(set(got) - set(units[mode]))
                wrong = sorted(k for k in set(got) & set(units[mode])
                               if got[k] != units[mode][k])
                problems.append(f"{name} {mode}: missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{name} {mode}: {line['failed']} failed calls")

        first, second = toy_run(name)[0]["solvers"], toy_run(name)[0]["solvers"]
        for key in first:
            if key.endswith("_rel_error.mean") or key == "fail_rate":
                if first[key] != second[key]:
                    problems.append(f"{name}: {key} differs between two runs "
                                    f"of one seed: {first[key]} vs {second[key]}")

        # Every item at once: over any toy capacity, and (with 200 sets
        # drawn from 2^30 subsets) not a member of the toy collection.
        everything = Assortment(range(1, harness.toy(workload).n + 1))
        report, line = toy_run(
            name, inject={workload.headline: lambda r: replace(r, assortment=everything)})
        calls = report["solvers"][f"{harness.ROLE_METRIC[workload.headline]}.p50"]["samples"]
        infeasible = [f for f in report["failures"]
                      if "not in the collection" in f or "is outside" in f]
        if line["failed"] != calls or len(infeasible) != calls or line["correct"]:
            problems.append(f"{name}: injected infeasible answers in {calls} calls, "
                            f"counted {line['failed']} failures: {report['failures']}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
