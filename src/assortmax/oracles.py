"""Ground-truth oracles and noise simulators used by tests and benchmarks."""

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    _revenue_terms, validate_collection)

__all__ = [
    "exhaustive_search",
    "brute_force_capacitated",
    "NoisyComparator",
]

_BRUTE_FORCE_MAX_ITEMS = 25  # subsets blow up combinatorially past this


def exhaustive_search(c: AssortmentCollection, inst: Instance) -> SolverResult:
    """Exact argmax of revenue over the whole collection.

    Deterministic; ties go to the lowest set index.  Where the collection's
    lookup-table screen runs (dense sets, see ``AssortmentCollection._argmax``),
    only the sets whose screened revenue could tie or beat the best are
    scored exactly, through the same sums and formula as
    :func:`collection_revenues`, so the set and its revenue are those of the
    full scan; the kept screen then serves the instance's exact solve.
    """
    t0 = time.perf_counter()
    validate_collection(c, inst)
    values, revenues = _revenue_terms(inst)
    best, r = c._argmax(values, revenues)
    wall = time.perf_counter() - t0
    return SolverResult(c[best], r, (r, r), len(c), wall)


def brute_force_capacitated(inst: Instance, C: int) -> SolverResult:
    """Exact optimum over every subset of size <= C, by full enumeration,
    each subset scored as :func:`revenue` scores it.
    Guarded to n <= 25; the search space is otherwise too large to scan."""
    n = inst.n
    if not 0 <= C <= n:
        raise ValueError(f"capacity must lie in 0..{n}")
    if n > _BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(f"refusing brute force for n = {n}: it needs "
                         f"n <= {_BRUTE_FORCE_MAX_ITEMS}")
    t0 = time.perf_counter()
    best_rev, best, evaluated = 0.0, Assortment(), 1  # the empty set
    values, revenues = _revenue_terms(inst)
    for k in range(1, C + 1):
        combos = np.array(list(combinations(range(n), k)), dtype=np.int64)
        # members ascend in each row, which is summed as revenue() sums a set
        revs = revenues(*np.add.reduceat(values[:, combos], [0], axis=2)[..., 0])
        i = int(np.argmax(revs))
        evaluated += len(combos)
        if revs[i] > best_rev:
            best_rev, best = float(revs[i]), Assortment(combos[i] + 1)
    wall = time.perf_counter() - t0
    return SolverResult(best, best_rev, (best_rev, best_rev), evaluated, wall)


@dataclass
class NoisyComparator:
    """One-sided noisy answers to "is K at most theta_star?".

    Above the target the answer is always 0; at or below it the answer is 1
    except with per-round error probability p_j (a constant, or a callable
    round -> probability).  One comparator per thread: draws mutate rng state.
    """

    theta_star: float
    error_prob: float | Callable[[int], float]
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _round: int = field(init=False, default=0, repr=False)

    def __post_init__(self):
        if not callable(self.error_prob) and not 0.0 <= self.error_prob < 0.5:
            raise ValueError("error probability must lie in [0, 0.5)")
        self._rng = np.random.default_rng(self.seed)

    def compare(self, K: float) -> int:
        p = self.error_prob(self._round) if callable(self.error_prob) else self.error_prob
        if not 0.0 <= p < 0.5:
            raise ValueError("error probability must lie in [0, 0.5)")
        self._round += 1
        if K > self.theta_star:
            return 0
        return 0 if self._rng.random() < p else 1

