"""Monte Carlo benchmark harness with reproducible per-run seeding.

Each run draws (or loads) a fresh instance, solves it with every requested
algorithm, and scores revenue loss and assortment overlap against the exact
oracle.  Timing covers solver execution only unless ``report_build_time``
is set, in which case index construction is included.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import GenSpec, ResultRecord, generate_instance, instance_from_files
from .mips import LshMips, LshParams, default_lsh_params, embed_collection
from .model import AssortmentCollection, Instance, SolverResult, normalize
from .noisy_search import assort_mnl_bz
from .oracles import brute_force_capacitated, exhaustive_search
from .solvers import (assort_mnl, assort_mnl_approx, assort_mnl_approx_simple,
                      assort_mnl_capacitated)

__all__ = ["BenchConfig", "solve", "run_bench", "aggregate_records",
           "GENERAL_ALGOS", "CAPACITATED_ALGOS", "ALL_ALGOS"]

GENERAL_ALGOS = ("exact", "approx_simple", "approx", "bz", "exhaustive")
CAPACITATED_ALGOS = ("capacitated", "brute_cap")
ALL_ALGOS = GENERAL_ALGOS + CAPACITATED_ALGOS


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark settings; defaults mirror the standard evaluation protocol
    (eps 0.1, 50 Monte Carlo runs, 20 hash tables with an 80-candidate scan)."""

    algorithms: tuple[str, ...] = ("exact", "approx_simple")
    runs: int = 50
    eps: float = 0.1
    n: int = 100
    num_sets: int | None = 1000
    capacity: int | None = None
    price_range: tuple[float, float] = (0.0, 1000.0)
    v0: float = 1.0
    lsh_bits: int | None = None       # None: ceil(log2 N)
    lsh_tables: int | None = 20
    lsh_scan_cap: int | None = 80
    nu: float = 0.01
    bz_rounds: int = 15
    bz_alpha: float = 0.3
    seed: int = 0
    itemsets_path: str | None = None
    prices_path: str | None = None
    min_card: int = 1
    max_card: int | None = None
    report_build_time: bool = False
    workers: int | None = None        # None: honor ASSORTMAX_THREADS, default 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        unknown = set(self.algorithms) - set(ALL_ALGOS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if any(a in CAPACITATED_ALGOS for a in self.algorithms) and self.capacity is None:
            raise ValueError("capacitated algorithms need a capacity")
        if (any(a in GENERAL_ALGOS for a in self.algorithms)
                and self.num_sets is None and self.itemsets_path is None):
            raise ValueError("general-collection algorithms need num_sets or an itemsets file")

    def lsh_params(self, num_points: int) -> LshParams:
        base = default_lsh_params(num_points)
        tables = self.lsh_tables if self.lsh_tables is not None else base.tables
        scan_cap = self.lsh_scan_cap if self.lsh_scan_cap is not None else base.scan_cap
        if self.lsh_bits is not None:
            bits = self.lsh_bits
        else:
            # Size keys so buckets stay full enough that the scan budget is
            # the binding accuracy knob (about 4x the budget retrievable per
            # query); ceil(log2 N) keys would leave buckets nearly empty at
            # this table count and starve the scan.
            load = 4.0 * scan_cap / tables
            bits = min(base.bits,
                       max(0, math.ceil(math.log2(max(1.0, num_points / load)))))
        return LshParams(bits=bits, tables=tables, scan_cap=scan_cap)


def _worker_count(config: BenchConfig) -> int:
    if config.workers is not None:
        return max(1, config.workers)
    env = os.environ.get("ASSORTMAX_THREADS")
    return max(1, int(env)) if env else 1


def solve(algo: str, inst: Instance, collection: AssortmentCollection | None,
          config: BenchConfig, seed: int) -> tuple[SolverResult, float]:
    """Solve one instance with the algorithm named ``algo``.

    Returns the result in the instance's price units and the seconds spent
    embedding and indexing outside the result's ``wall_time``.  ``approx``
    and ``bz`` read ``config.eps`` on the normalized price scale (top price
    1), which their approximation bookkeeping assumes.
    """
    build_s = 0.0
    if algo in ("approx_simple", "approx"):
        target = normalize(inst) if algo == "approx" else inst
        t0 = time.perf_counter()
        points = embed_collection(collection, target)
        engine = LshMips.build(points, target.weights,
                               config.lsh_params(len(points)), seed)
        build_s = time.perf_counter() - t0
    if algo == "exhaustive":
        res = exhaustive_search(collection, inst)
    elif algo == "exact":
        res = assort_mnl(collection, inst, config.eps)
    elif algo == "approx_simple":
        res = assort_mnl_approx_simple(collection, inst, config.eps, lsh=engine)
    elif algo == "approx":
        res = assort_mnl_approx(collection, target, config.eps, config.nu, lsh=engine)
        lo, hi = res.revenue_interval
        res = replace(res, revenue=res.revenue * inst.p1,
                      revenue_interval=(lo * inst.p1, hi * inst.p1))
    elif algo == "bz":  # rescales internally; only eps needs mapping
        res = assort_mnl_bz(collection, inst, config.eps * inst.p1,
                            config.bz_rounds, config.bz_alpha,
                            params=config.lsh_params(len(collection)), seed=seed)
    elif algo == "capacitated":
        res = assort_mnl_capacitated(inst, config.capacity, config.eps)
    elif algo == "brute_cap":
        res = brute_force_capacitated(inst, config.capacity)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return res, build_s


def _run_once(config: BenchConfig, run_index: int, run_seed: int) -> list[ResultRecord]:
    need_collection = any(a in GENERAL_ALGOS for a in config.algorithms)
    if config.itemsets_path is not None:
        inst, collection = instance_from_files(
            config.itemsets_path, config.prices_path,
            min_card=config.min_card, max_card=config.max_card,
            price_range=config.price_range, v0=config.v0, seed=run_seed)
    else:
        spec = GenSpec(n=config.n,
                       num_sets=config.num_sets if need_collection else None,
                       price_range=config.price_range, v0=config.v0,
                       seed=run_seed)
        inst, collection = generate_instance(spec)

    general_opt = exhaustive_search(collection, inst) if need_collection else None
    cap_opt: SolverResult | None = None
    if any(a in CAPACITATED_ALGOS for a in config.algorithms):
        try:
            cap_opt = brute_force_capacitated(inst, config.capacity)
        except ValueError:
            cap_opt = None  # oracle infeasible at this scale; timing still reported

    records: list[ResultRecord] = []
    N = len(collection) if collection is not None else None
    for algo in config.algorithms:
        opt = general_opt if algo in GENERAL_ALGOS else cap_opt
        res, build_s = ((opt, 0.0) if algo in ("exhaustive", "brute_cap")  # oracle rows
                        else solve(algo, inst, collection, config, run_seed))
        if res is None:  # brute force is infeasible at this scale
            continue
        wall = res.wall_time + (build_s if config.report_build_time else 0.0)
        records.append(ResultRecord.from_result(
            f"run{run_index:03d}", algo, inst.n, N, config.eps, res, opt,
            wall_time_s=wall))
    return records


def aggregate_records(records: list[ResultRecord]) -> list[ResultRecord]:
    """One mean row per algorithm over all runs."""
    out: list[ResultRecord] = []
    for algo in sorted({r.algo for r in records}):
        rows = [r for r in records if r.algo == algo]

        def mean(vals):
            vals = [v for v in vals if v is not None]
            return float(np.mean(vals)) if vals else None

        out.append(ResultRecord(
            run_id="mean", algo=algo, n=rows[0].n, N=rows[0].N,
            eps=rows[0].eps,
            iterations=None,
            wall_time_s=mean(r.wall_time_s for r in rows),
            revenue=mean(r.revenue for r in rows),
            rel_error=mean(r.rel_error for r in rows),
            overlap=mean(r.overlap for r in rows)))
    return out


def run_bench(config: BenchConfig) -> tuple[list[ResultRecord], list[ResultRecord]]:
    """Execute all runs and return (per-run records, aggregate rows).

    Per-run seeds are spawned from the master seed, so results do not depend
    on worker scheduling.
    """
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(config.seed).spawn(config.runs)]
    workers = _worker_count(config)
    if workers == 1:
        batches = [_run_once(config, i, s) for i, s in enumerate(seeds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda args: _run_once(config, *args),
                                    list(enumerate(seeds))))
    records = [rec for batch in batches for rec in batch]
    return records, aggregate_records(records)
