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
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    _item_array, normalize, revenue)
from .mips import (EmbeddedCollection, ExactMips, LshMips, LshParams,
                   build_lsh_index, embed_collection)

__all__ = [
    "assort_mnl",
    "assort_mnl_capacitated",
    "assort_mnl_approx",
    "assort_mnl_approx_simple",
    "approx_iteration_bound",
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


def _largest(w: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` entries of ``idx`` with the largest margins ``w`` (all of
    ``idx`` when it has no more than k), by one O(len(idx)) partition."""
    cut = idx.size - k
    if cut <= 0 or k == 0:
        return idx[:k]
    return idx[np.argpartition(w[idx], cut)[cut:]]


def _by_position(blocks: Sequence[tuple], n: int) -> list:
    """Per block, its argsort (its items are distinct, so it is the stable
    one) and its items sorted, which one binary search splits at any m;
    (None, None) for the whole catalog.  Explicit blocks partition 0..n-1,
    so one stable (radix) argsort of per-item block labels lists every
    block's sorted items, and their ranks in the block give its argsort."""
    arrs = [items for items, _, _ in blocks]
    if arrs[0] is None:
        return [(None, None)]
    labels = np.empty(n, dtype=np.min_scalar_type(len(arrs)))
    rank = np.empty(n, dtype=np.int64)
    for w, items in enumerate(arrs):
        labels[items] = w
        rank[items] = np.arange(items.size)
    grouped = np.argsort(labels, kind="stable")
    return [(rank[ascending], ascending) for ascending in
            np.split(grouped, np.cumsum([items.size for items in arrs[:-1]]))]


def _compare_blocks(inst: Instance, blocks: Sequence[tuple], K: float,
                    by_position: Sequence[tuple] | None = None) -> tuple[bool, Assortment]:
    """The one capacity-style comparison, with no sort: the witness is the
    union of each block's up to cap largest positive margins v_i (p_i - K),
    topped up to c_min with the largest others.

    Prices are non-increasing, so only the first m items, those priced above
    K, can have a positive margin: a block reads the margins of its items
    among them, in its own order, and reads all its margins only when fewer
    than its c_min are positive.  As the bisection closes on the optimum, m
    shrinks, so a whole solve reads about n margins, not n per comparison.
    ``blocks`` holds (0-based items or None for all, cap, c_min) per block,
    and ``by_position`` their :func:`_by_position`, taken here when None."""
    if by_position is None:
        by_position = _by_position(blocks, inst.n)
    m = inst.n - int(np.searchsorted(inst.prices[::-1], K, side="right"))
    chosen, total = [], 0.0
    for (items, cap, lo), (order, ascending) in zip(blocks, by_position):
        ids = slice(m) if items is None else items[np.sort(order[:ascending.searchsorted(m)])]
        w = inst.weights[ids] * (inst.prices[ids] - K)
        sel = _largest(w, np.flatnonzero(w > 0), cap)
        if sel.size < lo:  # the top-up reads the whole block
            ids = slice(None) if items is None else items
            w = inst.weights[ids] * (inst.prices[ids] - K)
            sel = _largest(w, np.flatnonzero(w > 0), cap)
            sel = np.concatenate([sel, _largest(w, np.flatnonzero(w <= 0), lo - sel.size)])
        chosen.append(sel if items is None else ids[sel])
        total += float(w[sel].sum())
    return bool(K <= total / inst.v0), Assortment(np.concatenate(chosen) + 1)


def _check_capacity(inst: Instance, C: int, c_min: int) -> None:
    """Reject a capacity outside 1..n, or a forced size outside 0..C."""
    if not 0 <= c_min <= C:
        raise ValueError("c_min must lie in 0..C")
    if not 1 <= C <= inst.n:
        raise ValueError(f"capacity must lie in 1..{inst.n}")


def compare_step_capacitated(K: float, inst: Instance, C: int,
                             c_min: int = 0) -> tuple[bool, Assortment]:
    """Does some set of c_min..C items earn at least K?  The witness holds
    the (up to) C largest positive margins, topped up to c_min items.  Only
    the items priced above K are read, unless the top-up needs the rest."""
    _check_capacity(inst, C, c_min)
    return _compare_blocks(inst, [(None, C, c_min)], K)


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
    arrs = [_item_array(b, "block") - 1 for b in blocks]  # 0-based
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
    spec = [(arr, int(cap), 0) for arr, cap in zip(arrs, caps)]
    return partial(_compare_blocks, inst, spec, by_position=_by_position(spec, inst.n))


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
    if not eps > 0:  # also rejects NaN
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


def _check_embeds(engine: MipsOracle, inst: Instance, name: str) -> None:
    """Reject an engine that embeds other prices than ``inst``, called ``name``."""
    if not np.array_equal(engine.points.prices, inst.prices):
        raise ValueError(f"the engine's points embed other prices than {name}; "
                         f"build the engine over embed_collection(collection, {name})")


def assort_mnl(collection: AssortmentCollection, inst: Instance, eps: float,
               mips: MipsOracle | None = None,
               on_iteration: Callable[[SearchState], None] | None = None) -> SolverResult:
    """eps-optimal assortment over an explicit collection via exact search.

    Performs exactly ceil(log2(p1 / eps)) comparisons; the returned set's
    exact revenue is within eps of the best feasible revenue.  An injected
    ``mips`` engine answers the comparisons instead of the exact scan; its
    points must embed ``inst``'s prices.
    """
    if mips is None:
        mips = ExactMips(embed_collection(collection, inst), inst.weights)
    _check_embeds(mips, inst, "inst")
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
    if variant in ("topc", "lb"):
        lo = c_min if variant == "lb" else 0
        if C is None or lo is None:
            raise ValueError("variant 'topc' needs a capacity C" if variant == "topc"
                             else "variant 'lb' needs C and c_min")
        _check_capacity(inst, C, lo)
        compare: CompareFn = partial(_compare_blocks, inst, [(None, C, lo)])
        # the top max(1, lo) items: within 1..C, and at least c_min for lb
        start = Assortment(range(1, max(1, lo) + 1))
    elif variant == "partitioned":
        if blocks is None or caps is None:
            raise ValueError("variant 'partitioned' needs blocks and caps")
        compare = _partitioned_compare(inst, blocks, caps)
        start = Assortment()  # block caps may all be zero
    else:
        raise ValueError(f"unknown variant {variant!r}")
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
        points = embed_collection(collection, inst)
        lsh = LshMips(build_lsh_index(points, params, seed), points, inst.weights)
    return assort_mnl(collection, inst, eps, mips=lsh, on_iteration=on_iteration)


def approx_iteration_bound(p1: float, eps: float, nu: float) -> int:
    """Worst-case comparison count of :func:`assort_mnl_approx`, eps in p1's units."""
    if not 0 < p1 < math.inf:  # also rejects NaN
        raise ValueError("p1 must be positive and finite")
    _check_approx(eps / p1, nu)
    return max(0, math.ceil(math.log2(1.0 / (eps / p1 - 2.0 * (nu * nu + 2.0 * nu)))))


def _check_approx(eps: float, nu: float) -> None:
    """Check that ``nu`` and ``eps``, a fraction of p1, let the search close."""
    if not nu >= 0:  # also rejects NaN
        raise ValueError("nu must be non-negative")
    if not eps > 2.0 * (nu * nu + 2.0 * nu):  # also rejects NaN
        raise ValueError("eps must exceed 2(nu^2 + 2 nu) p1 for the search to close")


def assort_mnl_approx(collection: AssortmentCollection, inst: Instance,
                      eps: float, nu: float, lsh: MipsOracle | None = None,
                      params: LshParams | None = None, seed: int = 0,
                      on_iteration=None) -> SolverResult:
    """Two-threshold bisection that accounts for a (1 + nu)-approximate engine.

    The search runs at top price 1, on ``normalize(inst)``, where the retrieval
    guarantee K_hat = 1 + (1+nu)^2 (K - 1) <= K applies; an injected ``lsh``
    must embed ``normalize(inst)``.  ``eps``, the bracket and the
    ``on_iteration`` states are in ``inst``'s price units.  Each comparison
    leaves at most half the bracket plus p1 (nu^2 + 2 nu).
    """
    norm, scale = normalize(inst), inst.p1  # rejects a top price of 0
    _check_approx(eps / scale, nu)
    if lsh is None:
        points = embed_collection(collection, norm)
        lsh = LshMips(build_lsh_index(points, params, seed), points, norm.weights)
    _check_embeds(lsh, norm, "normalize(inst)")
    grow = (1.0 + nu) ** 2

    def step(K: float):
        # a witness scoring at least K raises the lower bound to K; one
        # scoring only K_hat <= K raises it to K_hat
        ans = lsh.query(K)
        if ans is None:
            return None
        set_id, score = ans
        s = score / norm.v0
        K_hat = 1.0 + grow * (K - 1.0)
        if K_hat > s:
            return None
        return (K if K <= s else K_hat), lsh.points.source[set_id]

    report = None if on_iteration is None else (lambda st: on_iteration(
        replace(st, lower=st.lower * scale, upper=st.upper * scale)))
    res = _bisect(norm, collection[0], step, eps / scale, report)
    return replace(res, revenue=revenue(res.assortment, inst),
                   revenue_interval=tuple(b * scale for b in res.revenue_interval))
