"""assortmax: revenue-optimal assortment search under the MNL choice model.

The library finds (approximately) revenue-maximal assortments over either an
explicit collection of feasible sets or a capacity constraint, by bisecting
on the revenue value and answering each threshold comparison with maximum
inner product search (exact, hashed, or noise-tolerant).
"""

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    collection_revenues, normalize, revenue,
                    validate_collection)
from .mips import (ExactMips, LshIndex, LshMips, LshParams, QueryVector,
                   build_lsh_index, default_lsh_params, embed_collection,
                   hash_key, load_index, save_index, simple_lsh_transform)
from .solvers import (SearchState, approx_iteration_bound, assort_mnl,
                      assort_mnl_approx, assort_mnl_approx_simple,
                      assort_mnl_capacitated, compare_step_capacitated,
                      compare_step_general, compare_step_partitioned)
from .noisy_search import (Posterior, assort_mnl_bz, bz_posterior_update,
                           bz_rounds_needed, bz_sample_selection,
                           run_noisy_bisection)
from .oracles import (NoisyComparator, brute_force_capacitated,
                      exhaustive_search)
from .data import (GenSpec, ResultRecord, generate_instance,
                   instance_from_files, load_instance, load_itemsets,
                   load_prices, save_instance, save_itemsets, write_results)
from .bench import BenchConfig, aggregate_records, run_bench

__version__ = "0.1.0"

__all__ = [
    "Assortment", "AssortmentCollection", "Instance", "SolverResult",
    "revenue", "collection_revenues", "normalize", "validate_collection",
    "QueryVector", "embed_collection", "simple_lsh_transform", "LshParams",
    "default_lsh_params", "LshIndex", "build_lsh_index", "hash_key",
    "save_index", "load_index", "ExactMips", "LshMips",
    "SearchState", "compare_step_general", "compare_step_capacitated",
    "compare_step_partitioned", "assort_mnl", "assort_mnl_capacitated",
    "assort_mnl_approx", "assort_mnl_approx_simple", "approx_iteration_bound",
    "Posterior", "bz_sample_selection", "bz_posterior_update",
    "bz_rounds_needed", "run_noisy_bisection", "assort_mnl_bz",
    "exhaustive_search", "brute_force_capacitated", "NoisyComparator",
    "GenSpec", "generate_instance", "load_itemsets",
    "load_prices", "instance_from_files", "save_instance", "load_instance",
    "save_itemsets", "ResultRecord", "write_results", "BenchConfig",
    "run_bench", "aggregate_records",
]
