"""Command-line entry point: solve one instance, benchmark, or generate data.

Metrics written by ``bench``: rel_error = (f_opt - f_alg) / f_opt and
overlap = |A intersect A*| / |A*|, both against the exact oracle for the
same run.  ``bench`` runs one run after another in the calling thread,
and the library starts no thread of its own.
"""

import argparse
import json
import sys
from pathlib import Path

from .bench import (ALL_ALGOS, CAPACITATED_ALGOS, GENERAL_ALGOS, BenchConfig,
                    load_source, run_bench, solve)
from .data import (GenSpec, generate_instance, load_instance, load_itemsets,
                   onto_instance, save_instance, save_itemsets, write_results)
from .model import AssortmentCollection, Instance, SolverResult

__all__ = ["main"]


def _add_source_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("--itemsets", help="itemset text file (one set per line)")
    p.add_argument("--prices", help="id,price CSV paired with --itemsets")
    p.add_argument("--min-card", type=int, default=1)
    p.add_argument("--max-card", type=int, default=None)
    p.add_argument("--n", type=int, help="items for a synthetic instance")
    if sweep:
        p.add_argument("--num-sets",
                       help="feasible sets to sample; a comma-separated list "
                            "sweeps collection sizes")
    else:
        p.add_argument("--num-sets", type=int, help="feasible sets to sample")
    p.add_argument("--price-range", type=float, nargs=2, default=(0.0, 1000.0),
                   metavar=("LO", "HI"))
    p.add_argument("--v0", type=float, default=1.0, help="no-purchase weight")
    p.add_argument("--seed", type=int, default=0)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_config` reads, shared by ``solve`` and ``bench``."""
    p.add_argument("--eps", type=float, default=0.1,
                   help="tolerance in price units (approx, bz: a fraction of the top price)")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--nu", type=float, default=0.01,
                   help="retrieval approximation margin for --algo approx")
    p.add_argument("--bz-rounds", type=int, default=15)
    p.add_argument("--bz-alpha", type=float, default=0.3)
    p.add_argument("--lsh-bits", type=int, default=None,
                   help="hash key bits (default: sized so the scan budget "
                        "stays the binding knob)")
    p.add_argument("--lsh-tables", type=int, default=20,
                   help="number of hash tables")
    p.add_argument("--lsh-scan-cap", type=int, default=80,
                   help="candidate retrievals scanned per query")


def _load_source(args, config: BenchConfig, need_collection: bool):
    if args.instance:
        inst = load_instance(args.instance)
        collection = None
        if args.itemsets:
            collection, labels = load_itemsets(args.itemsets, args.min_card,
                                               args.max_card)
            collection = onto_instance(collection, labels, inst)
    elif args.itemsets or args.n is not None:
        inst, collection = load_source(config, args.seed, need_collection)
    else:
        raise SystemExit("error: provide --instance, --itemsets, or --n")
    if need_collection and collection is None:
        raise SystemExit("error: this algorithm needs a feasible collection "
                         "(--itemsets or --num-sets)")
    return inst, collection


def _result_payload(algo: str, inst: Instance,
                    collection: AssortmentCollection | None,
                    res: SolverResult, eps: float) -> dict:
    labels = inst.labels()
    return {
        "algo": algo,
        "n": inst.n,
        "N": len(collection) if collection is not None else None,
        "eps": eps,
        "assortment": sorted(labels[i - 1] for i in res.assortment.items),
        "revenue": res.revenue,
        "revenue_interval": list(res.revenue_interval),
        "iterations": res.iterations,
        "wall_time_s": res.wall_time,
        **({"estimate": res.estimate} if res.estimate is not None else {}),
    }


def _config(args, algorithms: tuple[str, ...], **fields) -> BenchConfig:
    """Benchmark settings from the flags ``solve`` and ``bench`` share."""
    return BenchConfig(
        algorithms=algorithms, eps=args.eps, capacity=args.capacity, nu=args.nu,
        bz_rounds=args.bz_rounds, bz_alpha=args.bz_alpha,
        lsh_bits=args.lsh_bits, lsh_tables=args.lsh_tables,
        lsh_scan_cap=args.lsh_scan_cap, seed=args.seed,
        n=args.n if args.n is not None else 100,
        price_range=tuple(args.price_range), v0=args.v0,
        itemsets_path=args.itemsets, prices_path=args.prices,
        min_card=args.min_card, max_card=args.max_card, **fields)


def _cmd_solve(args) -> int:
    algo = args.algo
    if algo in CAPACITATED_ALGOS and args.capacity is None:
        raise SystemExit(f"error: --algo {algo} requires --capacity")
    if algo in GENERAL_ALGOS and args.capacity is not None:
        raise SystemExit(f"error: --capacity is incompatible with --algo {algo} "
                         "over general collections")
    # algorithms=(): solve checks its source above and in _load_source, with
    # its own messages, so BenchConfig checks only the settings (eps, nu)
    config = _config(args, (), num_sets=args.num_sets)
    inst, collection = _load_source(args, config, algo in GENERAL_ALGOS)
    res = solve(algo, inst, collection, config, args.seed)
    print(json.dumps(_result_payload(algo, inst, collection, res, args.eps)))
    return 0


def _cmd_bench(args) -> int:
    algos = tuple(a.strip() for a in args.algo.split(",") if a.strip())
    if args.num_sets:
        sweep = [int(v) for v in str(args.num_sets).split(",") if v.strip()]
    else:
        sweep = [None]
    records, aggregates = [], []
    for num_sets in sweep:  # one aggregate row per collection size
        config = _config(args, algos, runs=args.runs, num_sets=num_sets)
        recs, aggs = run_bench(config)
        records.extend(recs)
        aggregates.extend(aggs)
    write_results(records + aggregates, args.out, args.format)
    print(f"wrote {len(records)} run rows and {len(aggregates)} aggregate rows "
          f"to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    spec = GenSpec(n=args.n, num_sets=args.num_sets,
                   price_range=tuple(args.price_range), v0=args.v0,
                   seed=args.seed)
    inst, collection = generate_instance(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_instance(inst, out / "instance.json")
    wrote = [str(out / "instance.json")]
    if collection is not None:
        save_itemsets(collection, out / "itemsets.txt")
        wrote.append(str(out / "itemsets.txt"))
    print(json.dumps({"files": wrote, "n": inst.n,
                      "N": len(collection) if collection is not None else None}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assortmax",
        description="Revenue-optimal assortment search under the "
                    "multinomial-logit choice model.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance and print JSON")
    solve.add_argument("--algo", required=True, choices=ALL_ALGOS)
    solve.add_argument("--instance", help="instance JSON written by 'generate'")
    _add_source_flags(solve)
    _add_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser(
        "bench", help="Monte Carlo benchmark; reports mean time, "
                      "rel_error = (f_opt - f_alg)/f_opt and "
                      "overlap = |A & A*|/|A*| per algorithm")
    bench.add_argument("--algo", default="exact,approx_simple",
                       help=f"comma-separated subset of {','.join(ALL_ALGOS)}")
    bench.add_argument("--runs", type=int, default=50)
    bench.add_argument("--out", required=True, help="results file path")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_source_flags(bench, sweep=True)
    _add_solver_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    gen = sub.add_parser("generate", help="write a reusable random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--num-sets", type=int, default=None)
    gen.add_argument("--price-range", type=float, nargs=2, default=(0.0, 1000.0),
                     metavar=("LO", "HI"))
    gen.add_argument("--v0", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)
    gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
