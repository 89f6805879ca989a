"""Sweep the width of a capacity-style solve's start selection.

A capacity-style solve (``assort_mnl_capacitated``) starts Dinkelbach's
iteration from one selection over the top ``t * k`` items by price, k the
sum of the caps, t the private constant ``solvers._START_WIDTH``.  This
command sets that constant to each width asked for and solves the same
seeded customers at five shapes, topc and lb (c_min = C // 5):

    python3 tools/cap_start_sweep.py --widths 2 4 8 16 --seeds 1708 1708055 \\
        --customers 100 --repeats 3 --baseline ../parent \\
        --out results/cap-start/sweep.json

A catalog is ``generate_instance(GenSpec(n, seed=seed))``, and customer i
of a seed draws its weights uniformly on (0, 1) from
``default_rng([seed, i])``.  Every customer is solved by every width in
turn, the order rotating from customer to customer so that a drift in the
machine's load falls on every width alike, ``--repeats`` times over.  Per
width and shape the file records the mean selections per solve (the
solve's ``iterations``) and the median wall time of one call in µs, and
their sums over the shapes.  ``--baseline`` names another checkout whose
``src/assortmax`` is loaded beside this one and solves the same customers
as the width "baseline"; each width then also counts the solves whose set
or revenue differs from the baseline's.

Only the public API is called, apart from setting the constant.
"""

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import assortmax  # noqa: E402
from assortmax import solvers  # noqa: E402

# (n, C) per shape; an lb solve forces c_min = C // 5 items
SHAPES = ((10_000, 10), (10_000, 50), (100_000, 10), (100_000, 50), (100_000, 200))
VARIANTS = ("topc", "lb")


def load_baseline(checkout: Path):
    """The package under ``checkout``/src/assortmax, loaded as a module of
    its own name, so that both versions run in one process."""
    src = checkout / "src" / "assortmax"
    spec = importlib.util.spec_from_file_location(
        "assortmax_baseline", src / "__init__.py", submodule_search_locations=[str(src)])
    if spec is None or not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def customers(n: int, seed: int, count: int):
    """The catalog of ``seed`` at n items and ``count`` customers' weights."""
    catalog, _ = assortmax.generate_instance(assortmax.GenSpec(n=n, seed=seed))
    return catalog, [np.random.default_rng([seed, i]).uniform(0.0, 1.0, n)
                     for i in range(count)]


def solver(width, baseline):
    """A call (prices, weights, v0, C, variant) -> (result, µs) for one
    width, or for the baseline package when ``width`` is "baseline"; the
    time covers the solve alone, not the Instance's checks."""
    package = baseline if width == "baseline" else assortmax

    def solve(prices, weights, v0, C, variant):
        if width != "baseline":
            solvers._START_WIDTH = width
        inst = package.Instance(prices, weights, v0)
        t0 = time.perf_counter()
        res = package.assort_mnl_capacitated(inst, C, 0.1, variant,
                                             c_min=C // 5 if variant == "lb" else None)
        return res, (time.perf_counter() - t0) * 1e6
    return solve


def sweep(widths, seeds, count, repeats, baseline=None) -> dict:
    """Per width, per shape: mean selections, p50 µs and answers that
    differ from the baseline's, over every seed, customer and variant."""
    names = list(widths) + (["baseline"] if baseline is not None else [])
    solves = {name: solver(name, baseline) for name in names}
    committed = solvers._START_WIDTH
    rows = {name: [] for name in names}
    try:
        for n, C in SHAPES:
            selections = {name: [] for name in names}
            times = {name: [] for name in names}
            answers = {name: [] for name in names}
            turn = 0
            for seed in seeds:
                catalog, weights = customers(n, seed, count)
                for w in weights:
                    for variant in VARIANTS:
                        for _ in range(repeats):
                            turn += 1
                            order = names[turn % len(names):] + names[:turn % len(names)]
                            for name in order:
                                res, us = solves[name](catalog.prices, w, catalog.v0, C, variant)
                                times[name].append(us)
                                selections[name].append(res.iterations)
                                answers[name].append((sorted(res.assortment.items),
                                                      res.revenue))
            for name in names:
                differ = (None if baseline is None else
                          sum(a != b for a, b in zip(answers[name], answers["baseline"])))
                rows[name].append({"n": n, "C": C,
                                   "mean_selections": statistics.fmean(selections[name]),
                                   "p50_us": statistics.median(times[name]),
                                   "differ_from_baseline": differ})
    finally:
        solvers._START_WIDTH = committed
    return {str(name): {"shapes": rows[name],
                        "sum_mean_selections": sum(r["mean_selections"] for r in rows[name]),
                        "sum_p50_us": sum(r["p50_us"] for r in rows[name])}
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+", default=[2, 4, 8, 16])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1708])
    parser.add_argument("--customers", type=int, default=100)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if min(args.widths) < 1 or args.customers < 1 or args.repeats < 1:
        parser.error("--widths, --customers and --repeats must be at least 1")
    baseline = None if args.baseline is None else load_baseline(args.baseline)
    result = sweep(args.widths, args.seeds, args.customers, args.repeats, baseline)
    doc = {"shapes": [{"n": n, "C": C, "c_min_lb": C // 5} for n, C in SHAPES],
           "variants": list(VARIANTS), "seeds": args.seeds,
           "customers": args.customers, "repeats": args.repeats,
           "committed_width": solvers._START_WIDTH,
           "baseline": None if args.baseline is None else args.baseline.resolve().name,
           "machine": {"python": platform.python_version(), "numpy": np.__version__,
                       "processor": platform.processor() or platform.machine()},
           "widths": result}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in result.items():
        per_shape = " ".join(f"{r['mean_selections']:.2f}" for r in row["shapes"])
        print(f"{name:>8}: selections {per_shape} (sum {row['sum_mean_selections']:.2f}),"
              f" summed p50 {row['sum_p50_us']:.0f} µs")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
