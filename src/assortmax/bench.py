"""Monte Carlo benchmark harness with reproducible per-run seeding.

Each run draws (or loads) a fresh instance, solves it with every requested
algorithm, and scores revenue loss and assortment overlap against the exact
oracle.  Each row reports the solver's own wall time.  :func:`solve` only
dispatches: the hashed solvers build their engines themselves, from the
index shape and seed it passes on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import GenSpec, ResultRecord, generate_instance, instance_from_files
from .mips import LshParams, default_lsh_params
from .model import AssortmentCollection, Instance, SolverResult
from .noisy_search import assort_mnl_bz
from .oracles import (_BRUTE_FORCE_MAX_ITEMS, brute_force_capacitated,
                      exhaustive_search)
from .solvers import (assort_mnl, assort_mnl_approx, assort_mnl_approx_simple,
                      assort_mnl_capacitated)

__all__ = ["BenchConfig", "run_bench"]

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
    lsh_tables: int = 20
    lsh_scan_cap: int = 80
    nu: float = 0.01
    bz_rounds: int = 15
    bz_alpha: float = 0.3
    seed: int = 0
    itemsets_path: str | None = None
    prices_path: str | None = None
    min_card: int = 1
    max_card: int | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        # for every algorithm, read or not: no row may carry a NaN setting
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.nu >= 0:
            raise ValueError("nu must be non-negative")
        unknown = set(self.algorithms) - set(ALL_ALGOS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if any(a in CAPACITATED_ALGOS for a in self.algorithms) and self.capacity is None:
            raise ValueError("capacitated algorithms need a capacity")
        if (any(a in GENERAL_ALGOS for a in self.algorithms)
                and self.num_sets is None and self.itemsets_path is None):
            raise ValueError("general-collection algorithms need num_sets or an itemsets file")

    def lsh_params(self, num_points: int) -> LshParams:
        bits = self.lsh_bits
        if bits is None:
            # Size keys so buckets stay full enough that the scan budget is
            # the binding accuracy knob (about 4x the budget retrievable per
            # query); ceil(log2 N) keys would leave buckets nearly empty at
            # this table count and starve the scan.
            load = 4.0 * self.lsh_scan_cap / self.lsh_tables
            bits = min(default_lsh_params(num_points).bits,
                       max(0, math.ceil(math.log2(max(1.0, num_points / load)))))
        return LshParams(bits=bits, tables=self.lsh_tables, scan_cap=self.lsh_scan_cap)


def solve(algo: str, inst: Instance, collection: AssortmentCollection | None,
          config: BenchConfig, seed: int) -> SolverResult:
    """Solve one instance with the algorithm named ``algo``, in the
    instance's price units.  ``approx`` and ``bz`` read ``config.eps`` as a
    fraction of the top price, which their approximation bookkeeping
    assumes; the hashed solvers build their own engines.
    """
    if algo == "exhaustive":
        return exhaustive_search(collection, inst)
    if algo == "exact":
        return assort_mnl(collection, inst, config.eps)
    if algo == "approx_simple":
        return assort_mnl_approx_simple(collection, inst, config.eps, seed=seed,
                                        params=config.lsh_params(len(collection)))
    if algo == "approx":
        return assort_mnl_approx(collection, inst, config.eps * inst.p1, config.nu,
                                 params=config.lsh_params(len(collection)), seed=seed)
    if algo == "bz":
        return assort_mnl_bz(collection, inst, config.eps * inst.p1,
                             config.bz_rounds, config.bz_alpha,
                             params=config.lsh_params(len(collection)), seed=seed)
    if algo == "capacitated":
        return assort_mnl_capacitated(inst, config.capacity, config.eps)
    if algo == "brute_cap":
        return brute_force_capacitated(inst, config.capacity)
    raise ValueError(f"unknown algorithm {algo!r}")


def load_source(config: BenchConfig, seed: int, need_collection: bool
                ) -> tuple[Instance, AssortmentCollection | None]:
    """The instance to solve, read from ``config.itemsets_path`` or generated
    (with a collection only when ``need_collection``)."""
    if config.itemsets_path is not None:
        return instance_from_files(
            config.itemsets_path, config.prices_path, min_card=config.min_card,
            max_card=config.max_card, price_range=config.price_range,
            v0=config.v0, seed=seed)
    return generate_instance(GenSpec(
        n=config.n, num_sets=config.num_sets if need_collection else None,
        price_range=config.price_range, v0=config.v0, seed=seed))


def _run_once(config: BenchConfig, run_index: int, run_seed: int) -> list[ResultRecord]:
    need_collection = any(a in GENERAL_ALGOS for a in config.algorithms)
    inst, collection = load_source(config, run_seed, need_collection)

    general_opt = exhaustive_search(collection, inst) if need_collection else None
    cap_opt: SolverResult | None = None  # past the oracle's size guard: timing only
    # past the guard, brute force runs (and raises) for a brute_cap that no
    # capacitated row comes with: alone, it would write no row at all
    if any(a in CAPACITATED_ALGOS for a in config.algorithms) and (
            inst.n <= _BRUTE_FORCE_MAX_ITEMS or "capacitated" not in config.algorithms):
        cap_opt = brute_force_capacitated(inst, config.capacity)

    records: list[ResultRecord] = []
    N = len(collection) if collection is not None else None
    for algo in config.algorithms:
        opt = general_opt if algo in GENERAL_ALGOS else cap_opt
        res = (opt if algo in ("exhaustive", "brute_cap")  # oracle rows
               else solve(algo, inst, collection, config, run_seed))
        if res is None:  # brute force is infeasible at this scale
            continue
        records.append(ResultRecord.from_result(
            f"run{run_index:03d}", algo, inst.n, N, config.eps, res, opt))
    return records


def _aggregate_records(records: list[ResultRecord]) -> list[ResultRecord]:
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
    """Execute all runs, in order in the calling thread, and return
    (per-run records, aggregate rows).  Per-run seeds are spawned from the
    master seed.
    """
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(config.seed).spawn(config.runs)]
    records = [rec for k, seed in enumerate(seeds) for rec in _run_once(config, k, seed)]
    return records, _aggregate_records(records)
