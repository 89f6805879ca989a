"""Capacity constraints need no collection at all.

When the feasible family is "every assortment of at most C items", the
question "which set has the largest margin sum at K?" collapses to picking
the C largest positive margins v_i (p_i - K), found by partition, not by a
sort.  Dinkelbach's iteration takes that selection, sets K to its revenue,
and repeats until the revenue stops rising: it ends at the optimum itself,
with no eps, in about three or four selections.  Only the items priced
above K can have a positive margin, and the first selection reads the top
8C items by price alone.  So each selection is linear in the item count, and a whole
solve reads under a tenth of the catalog's margins: here we push it to
100,000 items, then show the two structured variants (forced minimum size,
per-block caps).
"""

import time

from assortmax import GenSpec, assort_mnl_capacitated, generate_instance

inst, _ = generate_instance(GenSpec(n=100_000, num_sets=None, seed=11))

t0 = time.perf_counter()
res = assort_mnl_capacitated(inst, C=50, eps=0.1)
elapsed = time.perf_counter() - t0
print(f"n = {inst.n:,}, C = 50: revenue {res.revenue:.3f} with "
      f"{len(res.assortment)} items in {elapsed * 1e3:.1f} ms "
      f"({res.iterations} selections)")

# sweep the capacity: diminishing returns as C grows
print("\ncapacity sweep (n = 100k):")
for C in (1, 5, 20, 50, 200):
    r = assort_mnl_capacitated(inst, C, eps=0.1)
    print(f"  C = {C:3d}: revenue {r.revenue:8.3f}, |A| = {len(r.assortment)}")

# forced minimum size: at least 40 items even when margins go negative
lb = assort_mnl_capacitated(inst, C=50, eps=0.1, variant="lb", c_min=40)
print(f"\nwith a forced minimum of 40 items: revenue {lb.revenue:.3f}, "
      f"|A| = {len(lb.assortment)}")

# diversity caps over three price tiers
n = inst.n
blocks = [range(1, n // 3 + 1), range(n // 3 + 1, 2 * n // 3 + 1),
          range(2 * n // 3 + 1, n + 1)]
tiered = assort_mnl_capacitated(inst, None, eps=0.1, variant="partitioned",
                                blocks=[list(b) for b in blocks],
                                caps=[10, 10, 10])
counts = [len(tiered.assortment.items & set(b)) for b in blocks]
print(f"per-tier caps of 10: revenue {tiered.revenue:.3f}, "
      f"items per tier {counts}")
