"""Alternating before/after pairs of benchmark runs, summarised per metric.

Run from anywhere, naming two full checkouts, the code before a change and
the code after it:

    python3 tools/ab_pairs.py --before ../parent --after . \\
        --workload customers-6b --seed 1708 --seconds 25 --pairs 10 \\
        --tag customers-6b-byte-major --out-dir results

Each pair runs ``benchmark/run.py`` once in each checkout, one process after
the other, and the side that goes first alternates from pair to pair, so a
drift in the machine's load falls on both sides alike.  The command writes
``BENCH_<tag>-before.json`` and ``BENCH_<tag>-after.json``.  Each holds its
side's runs, the report and result lines as ``run.py`` prints them, and per
metric of the result line the median, the quartiles and the pairs that side
won.  A pair goes to the side whose value is better in the direction that
the after checkout's BENCHMARK.json gives; a tie counts for neither side, and
a metric BENCHMARK.json does not name has no wins.  Each end-to-end metric
with a bound there also gets a verdict, printed and recorded on both sides:
"gain" when the after side won at least 9 of 10 pairs and its median beats
the before median by more than the before side's interquartile range, else
"within bound" or "worse than bound" by whether the after median is worse
than the before median by more than the bound, a fraction of the before
median.  Under ``solvers`` each file also summarises the report's
per-solver medians (its ``*.p50`` entries, such as ``scan_ms.p50`` and
``hashed_ms.p50``) the same way, with no wins, so a change in a result line
can be traced to the solver that moved.  The command exits 1 when any run
answered wrongly (``"correct": false``), after writing both files.

Only the standard library is used, and the code under test is reached only
through ``benchmark/run.py``'s command line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``benchmark/run.py`` process in ``checkout``: its report and result."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: benchmark/run.py failed in {checkout}:\n{proc.stderr}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def directions(benchmark_json: Path) -> dict:
    """Metric name -> "higher" or "lower", as BENCHMARK.json declares it."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in spec.get(key, [])}


def bounds(benchmark_json: Path) -> dict:
    """End-to-end metric name -> its relative bound, as BENCHMARK.json declares it."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}


def verdict(before: dict, after: dict, better: str, bound: float) -> str:
    """The verdict on one metric: "gain" when the after side won at least 9
    of 10 pairs and its median beats the before median by more than the
    before side's IQR, else "within bound" or "worse than bound", by
    whether the after median is worse than the before median by more than
    ``bound`` times the before median."""
    gap = (after["median"] - before["median"]) * (1 if better == "higher" else -1)
    if 10 * after["wins"] >= 9 * after["pairs"] and gap > before["q3"] - before["q1"]:
        return "gain"
    return "within bound" if -gap <= bound * abs(before["median"]) else "worse than bound"


def summarize(results: dict, better: dict, limits: dict | None = None) -> dict:
    """Per side, per metric present in every result line: unit, median,
    quartiles, the pairs won and, for a metric with a bound in ``limits``,
    the :func:`verdict` on the pairs (None for the others).
    ``results[side][i]`` is the result line of pair i on that side."""
    common = set.intersection(*(set(r["metrics"]) for side in SIDES
                                for r in results[side]))
    summary = {side: {} for side in SIDES}
    for name in sorted(common):
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        wins = None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            gains = [sign * (a - b) for b, a in zip(values["before"], values["after"])]
            wins = {"before": sum(g < 0 for g in gains), "after": sum(g > 0 for g in gains)}
        for side in SIDES:
            vals = values[side]
            q1, _, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                         if len(vals) > 1 else vals * 3)
            summary[side][name] = {
                "unit": results[side][0]["metrics"][name].get("unit"),
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "wins": None if wins is None else wins[side], "pairs": len(vals)}
        found = None
        if wins is not None and name in (limits or {}):
            found = verdict(summary["before"][name], summary["after"][name],
                            better[name], limits[name])
        for side in SIDES:
            summary[side][name]["verdict"] = found
    return summary


def solver_medians(report: dict) -> dict:
    """The report's per-solver ``*.p50`` entries, as result-line metrics."""
    return {"metrics": {name: entry for name, entry in report.get("solvers", {}).items()
                        if name.endswith(".p50")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"before": args.before, "after": args.after}
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(checkouts[side], args.workload, args.seed,
                           args.seconds, args.trace)
            runs[side].append({"pair": i, "first": (side == "before") == (i % 2 == 0),
                               **run})
            print(f"pair {i} {side}: {json.dumps(run['result'])}", file=sys.stderr)
    spec = args.after / "BENCHMARK.json"
    summary = summarize({side: [r["result"] for r in runs[side]] for side in SIDES},
                        directions(spec), bounds(spec))
    solvers = summarize({side: [solver_medians(r["report"]) for r in runs[side]]
                         for side in SIDES}, {})
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        doc = {"tag": args.tag, "side": side, "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "pairs": args.pairs, "summary": summary[side],
               "solvers": solvers[side], "runs": runs[side]}
        path = args.out_dir / f"BENCH_{args.tag}-{side}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(path)
    for table in (summary, solvers):
        for name, after in table["after"].items():
            before = table["before"][name]
            won = ("" if after["wins"] is None
                   else f"; after won {after['wins']} of {after['pairs']} pairs")
            if after["verdict"] is not None:
                won += f"; {after['verdict']}"
            print(f"{name}: median {before['median']:.6g} -> {after['median']:.6g} "
                  f"(before IQR {before['q1']:.6g}..{before['q3']:.6g}){won}")
    wrong = [(side, r["pair"]) for side in SIDES for r in runs[side]
             if not r["result"]["correct"]]
    if wrong:
        print(f"error: runs answered wrongly (side, pair): {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
