"""assortmax: revenue-optimal assortment search under the MNL choice model.

The library finds (approximately) revenue-maximal assortments over either an
explicit collection of feasible sets or a capacity constraint, by bisecting
on the revenue value and answering each threshold comparison with maximum
inner product search (exact, hashed, or noise-tolerant).
"""

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    collection_revenues, normalize, revenue,
                    validate_collection)
from .mips import (ExactMips, LshIndex, LshMips, LshParams, build_lsh_index,
                   default_lsh_params, embed_collection, load_index, save_index)
from .solvers import (approx_iteration_bound, assort_mnl, assort_mnl_approx,
                      assort_mnl_approx_simple, assort_mnl_capacitated)
from .noisy_search import assort_mnl_bz, bz_rounds_needed, run_noisy_bisection
from .oracles import (NoisyComparator, brute_force_capacitated,
                      exhaustive_search)
from .data import (GenSpec, ResultRecord, generate_instance,
                   instance_from_files, load_instance, load_itemsets,
                   load_prices, save_instance, save_itemsets, write_results)
from .bench import BenchConfig, run_bench

__version__ = "0.1.0"

__all__ = [
    "Assortment", "AssortmentCollection", "Instance", "SolverResult",
    "revenue", "collection_revenues", "normalize", "validate_collection",
    "embed_collection", "LshParams", "default_lsh_params", "LshIndex",
    "build_lsh_index", "save_index", "load_index", "ExactMips", "LshMips",
    "assort_mnl", "assort_mnl_capacitated", "assort_mnl_approx",
    "assort_mnl_approx_simple", "approx_iteration_bound",
    "bz_rounds_needed", "run_noisy_bisection", "assort_mnl_bz",
    "exhaustive_search", "brute_force_capacitated", "NoisyComparator",
    "GenSpec", "generate_instance", "load_itemsets",
    "load_prices", "instance_from_files", "save_instance", "load_instance",
    "save_itemsets", "ResultRecord", "write_results", "BenchConfig",
    "run_bench",
]
