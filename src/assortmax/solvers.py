"""Binary-search assortment solvers and the capacitated compare-step family.

Every solver here answers "find an assortment within eps of the best
feasible revenue" by bisecting on the revenue value itself: a comparison
"does any feasible set earn at least K?" either raises the lower bound (and
records the witness) or lowers the upper bound.  The comparison is answered
by maximum inner product search for explicit collections, or by top-C
selection on the per-item margins v_i (p_i - K) for capacity constraints.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    revenue)
from .mips import (EmbeddedCollection, ExactMips, LshMips, LshParams,
                   embed_collection)

__all__ = [
    "SearchState",
    "MipsOracle",
    "compare_step_general",
    "compare_step_capacitated",
    "compare_step_capacitated_lb",
    "compare_step_partitioned",
    "assort_mnl",
    "assort_mnl_capacitated",
    "assort_mnl_approx",
    "assort_mnl_approx_simple",
]


class MipsOracle(Protocol):
    """Engine contract: given a threshold K, return the id and inner-product
    score of a candidate set, or None when nothing was retrieved."""

    points: EmbeddedCollection

    def query(self, threshold: float) -> tuple[int, float] | None: ...


@dataclass(frozen=True)
class SearchState:
    """Snapshot of the bisection after one iteration."""

    lower: float
    upper: float
    best: Assortment
    iteration: int


def compare_step_general(K: float, mips: MipsOracle,
                         inst: Instance) -> tuple[bool, Assortment | None]:
    """Does any feasible set have revenue >= K?

    With an exact engine the answer is exact and the witness attains the
    maximum margin sum.  With a hashed engine a miss can only produce a
    false negative: the returned candidate's score is its true inner
    product, so a positive answer is always certified.
    """
    ans = mips.query(K)
    if ans is None:
        return False, None
    set_id, score = ans
    if K <= score / inst.v0:
        return True, mips.points.source[set_id]
    return False, None


def _top_positive(w: np.ndarray, idx: np.ndarray, cap: int) -> np.ndarray:
    """Indices (from idx) of up to ``cap`` largest strictly positive margins."""
    pos = idx[w[idx] > 0]
    if cap <= 0:
        return pos[:0]
    if pos.size > cap:
        keep = np.argpartition(w[pos], pos.size - cap)[pos.size - cap:]
        pos = pos[keep]
    return pos


def _check_capacity(inst: Instance, C: int, c_min: int | None = None) -> None:
    """Reject a capacity outside 1..n, or a forced size outside 0..C."""
    if c_min is not None and not 0 <= c_min <= C:
        raise ValueError("c_min must lie in 0..C")
    if not 1 <= C <= inst.n:
        raise ValueError(f"capacity must lie in 1..{inst.n}")


def compare_step_capacitated(K: float, inst: Instance,
                             C: int) -> tuple[bool, Assortment]:
    """Capacity-constrained comparison by top-C selection on v_i (p_i - K)."""
    _check_capacity(inst, C)
    w = inst.weights * (inst.prices - K)
    sel = _top_positive(w, np.arange(inst.n), C)
    exists = bool(K <= w[sel].sum() / inst.v0)
    return exists, Assortment(sel + 1)


def compare_step_capacitated_lb(K: float, inst: Instance, C: int,
                                c_min: int) -> tuple[bool, Assortment]:
    """Variant forcing at least ``c_min`` items into the candidate set.

    The top c_min margins are included regardless of sign; remaining slots
    up to C are filled with additional strictly positive margins.
    """
    _check_capacity(inst, C, c_min)
    w = inst.weights * (inst.prices - K)
    order = np.argsort(-w, kind="stable")
    forced = order[:c_min]
    extra = _top_positive(w, order[c_min:], C - c_min)
    sel = np.concatenate([forced, extra])
    exists = bool(K <= w[sel].sum() / inst.v0)
    return exists, Assortment(sel + 1)


def compare_step_partitioned(K: float, inst: Instance,
                             blocks: Sequence[Sequence[int]],
                             caps: Sequence[int]) -> tuple[bool, Assortment]:
    """Per-block capacitated comparison for partitioned item families.

    ``blocks`` must partition 1..n; block w contributes its top-caps[w]
    positive margins independently.
    """
    return _partitioned_compare(inst, blocks, caps)(K)


def _partitioned_compare(inst: Instance, blocks: Sequence[Sequence[int]],
                         caps: Sequence[int]) -> "CompareFn":
    """Check that ``blocks`` partition 1..n with one non-negative cap each,
    and return the comparison over them, which trusts the check."""
    if len(blocks) != len(caps):
        raise ValueError("need one capacity per block")
    arrs = [np.fromiter((int(i) - 1 for i in b), dtype=np.int64) for b in blocks]
    items = np.concatenate(arrs) if arrs else np.empty(0, dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= inst.n):
        raise ValueError("block contains an item index outside 1..n")
    counts = np.bincount(items, minlength=inst.n)
    if np.any(counts > 1):
        raise ValueError("blocks overlap; they must partition 1..n")
    if not counts.all():
        raise ValueError("blocks do not cover every item; they must partition 1..n")
    if any(cap < 0 for cap in caps):
        raise ValueError("capacities must be non-negative")
    caps = [int(cap) for cap in caps]

    def compare(K: float) -> tuple[bool, Assortment]:
        w = inst.weights * (inst.prices - K)
        chosen = [_top_positive(w, arr, cap) for arr, cap in zip(arrs, caps)]
        total = sum(float(w[sel].sum()) for sel in chosen)
        return bool(K <= total / inst.v0), Assortment(np.concatenate(chosen) + 1)
    return compare


CompareFn = Callable[[float], tuple[bool, Assortment | None]]
# A bisection step answers threshold K with the raised lower bound and its
# witness, or None when the upper bound drops to K.
StepFn = Callable[[float], tuple[float, Assortment] | None]


def _at_threshold(compare: CompareFn) -> StepFn:
    """Step that raises the lower bound to K whenever ``compare(K)`` says yes."""
    def step(K: float):
        exists, witness = compare(K)
        return (K, witness) if exists else None
    return step


def _bisect(inst: Instance, start: Assortment, step: StepFn, eps: float,
            on_iteration: Callable[[SearchState], None] | None = None) -> SolverResult:
    """The one search loop: halve [0, p1] until it is within eps.

    ``start`` must be feasible; it is returned when no comparison succeeds.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    lower, upper = 0.0, inst.p1
    best = start
    iteration = 0
    t0 = time.perf_counter()
    while upper - lower > eps:
        K = 0.5 * (lower + upper)
        raised = step(K)
        if raised is None:
            upper = K
        else:
            lower, best = raised
        iteration += 1
        if on_iteration is not None:
            on_iteration(SearchState(lower, upper, best, iteration))
    wall = time.perf_counter() - t0
    return SolverResult(best, revenue(best, inst), (lower, upper), iteration, wall)


def assort_mnl(collection: AssortmentCollection, inst: Instance, eps: float,
               mips: MipsOracle | None = None,
               on_iteration: Callable[[SearchState], None] | None = None) -> SolverResult:
    """eps-optimal assortment over an explicit collection via exact search.

    Performs exactly ceil(log2(p1 / eps)) comparisons; the returned set's
    exact revenue is within eps of the best feasible revenue.  An injected
    ``mips`` engine answers the comparisons instead of the exact scan.
    """
    if mips is None:
        mips = ExactMips(embed_collection(collection, inst), inst.weights)
    return _bisect(inst, collection[0],
                   _at_threshold(lambda K: compare_step_general(K, mips, inst)),
                   eps, on_iteration)


def assort_mnl_capacitated(inst: Instance, C: int | None, eps: float,
                           variant: str = "topc", *, c_min: int | None = None,
                           blocks: Sequence[Sequence[int]] | None = None,
                           caps: Sequence[int] | None = None,
                           on_iteration=None) -> SolverResult:
    """eps-optimal assortment under capacity-style constraints.

    variant "topc" optimizes over all sets of size <= C, "lb" additionally
    forces at least c_min items, and "partitioned" applies per-block caps.
    C, c_min, blocks and caps are checked once, on entry, so an eps that
    needs no comparison still rejects them.
    """
    if variant == "topc":
        if C is None:
            raise ValueError("variant 'topc' needs a capacity C")
        _check_capacity(inst, C)
        compare: CompareFn = lambda K: compare_step_capacitated(K, inst, C)
    elif variant == "lb":
        if C is None or c_min is None:
            raise ValueError("variant 'lb' needs C and c_min")
        _check_capacity(inst, C, c_min)
        compare = lambda K: compare_step_capacitated_lb(K, inst, C, c_min)
    elif variant == "partitioned":
        if blocks is None or caps is None:
            raise ValueError("variant 'partitioned' needs blocks and caps")
        compare = _partitioned_compare(inst, blocks, caps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # a set every variant accepts (block caps may all be zero)
    start = (Assortment() if variant == "partitioned"
             else Assortment(range(1, max(1, c_min or 0) + 1)))
    return _bisect(inst, start, _at_threshold(compare), eps, on_iteration)


def assort_mnl_approx_simple(collection: AssortmentCollection, inst: Instance,
                             eps: float, lsh: MipsOracle | None = None,
                             params: LshParams | None = None, seed: int = 0,
                             on_iteration=None) -> SolverResult:
    """:func:`assort_mnl` with a hash-backed engine; the empirical workhorse.

    A retrieval miss is treated as "no set reaches K", so the answer can
    undershoot the optimum, but any returned set's revenue is exact and at
    least the final lower bound.  Injecting an exact engine reproduces
    :func:`assort_mnl` bit for bit.
    """
    if lsh is None:
        lsh = LshMips.build(embed_collection(collection, inst), inst.weights,
                            params, seed)
    return assort_mnl(collection, inst, eps, mips=lsh, on_iteration=on_iteration)


def approx_iteration_bound(p1: float, eps: float, nu: float) -> int:
    """Worst-case comparison count for the two-threshold approximate solver."""
    nu_hat = nu * nu + 2.0 * nu
    if eps <= 2.0 * nu_hat:
        raise ValueError("eps must exceed 2(nu^2 + 2 nu) for the search to close")
    return max(0, math.ceil(math.log2(p1 / (eps - 2.0 * nu_hat))))


def assort_mnl_approx(collection: AssortmentCollection, inst: Instance,
                      eps: float, nu: float, lsh: MipsOracle | None = None,
                      params: LshParams | None = None, seed: int = 0,
                      on_iteration=None) -> SolverResult:
    """Two-threshold bisection that accounts for a (1 + nu)-approximate engine.

    Requires a normalized instance (top price at most 1) so the retrieval
    guarantee K_hat = 1 + (1+nu)^2 (K - 1) <= K applies.  Each iteration
    shrinks the bracket to at most half its width plus nu^2 + 2 nu, so the
    loop ends within ceil(log2(p1 / (eps - 2(nu^2 + 2 nu)))) comparisons.
    """
    if inst.p1 > 1.0 + 1e-12:
        raise ValueError("approx solver needs a normalized instance; call normalize() first")
    if nu < 0:
        raise ValueError("nu must be non-negative")
    if eps <= 2.0 * (nu * nu + 2.0 * nu):
        raise ValueError("eps must exceed 2(nu^2 + 2 nu) for the search to close")
    if lsh is None:
        lsh = LshMips.build(embed_collection(collection, inst), inst.weights,
                            params, seed)
    grow = (1.0 + nu) ** 2

    def step(K: float):
        # a witness scoring at least K raises the lower bound to K; one
        # scoring only K_hat <= K raises it to K_hat
        ans = lsh.query(K)
        if ans is None:
            return None
        set_id, score = ans
        s = score / inst.v0
        K_hat = 1.0 + grow * (K - 1.0)
        if K_hat > s:
            return None
        return (K if K <= s else K_hat), lsh.points.source[set_id]

    return _bisect(inst, collection[0], step, eps, on_iteration)
