"""Searching with comparisons that lie.

Hashed retrieval can miss, so a comparison "is there a set with revenue
>= K" sometimes answers 0 when the truth is 1.  Plain bisection would
discard the correct half of the bracket forever.  The noise-tolerant
solver instead keeps a posterior over revenue bins, queries near its
median, and reweights bins by an assumed error rate: wrong answers dent
the posterior rather than destroy it.

Here we drive the posterior loop with a synthetic comparator whose error
rate we control, then run the full solver on a real collection.
"""

import numpy as np

from assortmax import (GenSpec, NoisyComparator, assort_mnl_bz,
                       exhaustive_search, generate_instance,
                       run_noisy_bisection)

theta_star = 0.62  # hidden target on [0, 1], bins of width 0.1
noisy = NoisyComparator(theta_star, error_prob=0.15, seed=3)

print(f"hidden optimum {theta_star}, comparator errs 15% of the time\n")
print("posterior mass per bin (columns are bins [0,.1], (.1,.2], ...):")


def show(j, K, h, post):
    bar = " ".join(f"{m:.2f}" for m in post.bin_mass)
    print(f"  round {j + 1:2d}  K={K:.1f} h={h}  [{bar}]")


post, median = run_noisy_bisection(1.0, 0.1, rounds=12, alpha=0.2,
                                   compare=noisy.compare,
                                   rng=np.random.default_rng(5),
                                   on_round=show)
print(f"\nposterior median {median:.3f} vs target {theta_star} "
      f"(off by {abs(median - theta_star):.3f})")

# the same machinery on an actual instance, with fresh hash functions every round
inst, collection = generate_instance(GenSpec(n=100, num_sets=2000, seed=21))
oracle = exhaustive_search(collection, inst)
res = assort_mnl_bz(collection, inst, eps=inst.p1 / 10, rounds=20, alpha=0.3,
                    seed=4)
print(f"\nfull solver: estimate {res.estimate:.2f}, witness revenue "
      f"{res.revenue:.2f}, true optimum {oracle.revenue:.2f}")
