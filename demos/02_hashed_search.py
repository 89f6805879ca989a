"""Trading exactness for speed with sign-projection hashing.

The per-iteration comparison is a maximum inner product search.  On large
collections a full scan is wasteful, so the points (one per feasible set)
are rescaled into the unit ball, lifted one dimension, and bucketed by
random-hyperplane sign patterns.  A query then probes one bucket per table
and scores only the retrieved candidates.

This script compares the exact and hashed solvers on a collection of 25k
random assortments over 500 items.
"""

import time

from assortmax import (BenchConfig, GenSpec, LshMips, assort_mnl,
                       assort_mnl_approx_simple, build_lsh_index,
                       embed_collection, exhaustive_search, generate_instance)

inst, collection = generate_instance(GenSpec(n=500, num_sets=25_000, seed=7))
print(f"instance: {inst.n} items, {len(collection)} feasible assortments")

t0 = time.perf_counter()
oracle = exhaustive_search(collection, inst)
print(f"\nlinear scan       : {oracle.revenue:9.3f}  "
      f"({(time.perf_counter() - t0) * 1e3:6.1f} ms)")

t0 = time.perf_counter()
exact = assort_mnl(collection, inst, eps=0.1)
print(f"exact bisection   : {exact.revenue:9.3f}  "
      f"({(time.perf_counter() - t0) * 1e3:6.1f} ms, "
      f"{exact.iterations} comparisons)")

points = embed_collection(collection, inst)
params = BenchConfig().lsh_params(len(points))  # 20 tables, 80-candidate scan
print(f"\nindex shape: {params}")
t0 = time.perf_counter()
engine = LshMips(build_lsh_index(points, params, seed=1), points, inst.weights)
build_ms = (time.perf_counter() - t0) * 1e3
t0 = time.perf_counter()
hashed = assort_mnl_approx_simple(collection, inst, eps=0.1, lsh=engine)
solve_ms = (time.perf_counter() - t0) * 1e3
print(f"hashed bisection  : {hashed.revenue:9.3f}  "
      f"({solve_ms:6.1f} ms solve + {build_ms:.0f} ms one-off build)")

loss = (oracle.revenue - hashed.revenue) / oracle.revenue
print(f"\nrevenue given up by hashing: {100 * loss:.2f}%")
print("the index is reusable across thresholds, so the build cost is paid "
      "once per collection, not per query")
