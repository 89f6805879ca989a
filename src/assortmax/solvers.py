"""Assortment solvers over explicit collections and capacity constraints.

A solver over an explicit collection answers "find an assortment within
eps of the best feasible revenue" by bisecting on the revenue value itself:
a comparison "does any feasible set earn at least K?", answered by maximum
inner product search, either raises the lower bound (and records the
witness) or lowers the upper bound.  Under capacity-style constraints the
comparison is a top-C selection on the per-item margins v_i (p_i - K), and
Dinkelbach's iteration on those selections returns the certified optimum.
"""

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .model import (Assortment, AssortmentCollection, Instance, SolverResult,
                    _item_array, _sorted_revenue, normalize, revenue)
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
    """Snapshot of a search after one iteration: a bisection step, or one
    selection of a capacity-style solve."""

    lower: float
    upper: float
    best: Assortment
    iteration: int


def _largest(w: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` entries of ``idx``, ascending positions in ``w``, with the
    largest margins (all of ``idx`` when it has no more than k), by one
    O(len(idx)) partition.  An ``idx`` as long as ``w`` is 0..len(w)-1, so
    ``w`` itself is partitioned, with no gather through ``idx`` and no map
    back: the same partition of the same values gives the same positions."""
    cut = idx.size - k
    if cut <= 0 or k == 0:
        return idx[:k]
    if idx.size == w.size:
        return np.argpartition(w, cut)[cut:]
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


def _priced_above(inst: Instance, K: float) -> int:
    """How many items are priced above K: prices do not increase, so they
    are the first ones (none for a NaN K)."""
    return inst.n - int(inst.prices[::-1].searchsorted(K, side="right"))


def _compare_items(inst: Instance, blocks: Sequence[tuple], K: float,
                   by_position: Sequence[tuple] | None = None
                   ) -> tuple[bool, np.ndarray, float, float]:
    """The one capacity-style comparison, with no sort: the witness, as
    0-based items, is the union of each block's up to cap largest positive
    margins v_i (p_i - K), topped up to c_min with the largest others.

    Prices are non-increasing, so only the first m items, those priced above
    K, can have a positive margin: a block reads the margins of its items
    among them, in its own order, and reads all its margins only when fewer
    than its c_min are positive.  ``blocks`` holds (0-based items or None
    for all, cap, c_min) per block, and ``by_position`` their
    :func:`_by_position`, taken here when None.  Returns the answer
    K <= fl(fl(P - N) / v0), the witness, and P and N, the float sums of
    its positive margins and of the sizes of its top-up's.
    """
    if by_position is None:
        by_position = _by_position(blocks, inst.n)
    m = _priced_above(inst, K)
    chosen, P, N = [], 0.0, 0.0
    for (items, cap, lo), (order, ascending) in zip(blocks, by_position):
        ids = slice(m) if items is None else items[np.sort(order[:ascending.searchsorted(m)])]
        w = inst.weights[ids] * (inst.prices[ids] - K)
        sel = pos = _largest(w, (w > 0).nonzero()[0], cap)
        if pos.size < lo:  # the top-up reads the whole block
            ids = slice(None) if items is None else items
            w = inst.weights[ids] * (inst.prices[ids] - K)
            pos = _largest(w, (w > 0).nonzero()[0], cap)
            up = _largest(w, (w <= 0).nonzero()[0], lo - pos.size)
            N -= float(w[up].sum())
            sel = np.concatenate([pos, up])
        P += float(w[pos].sum())
        chosen.append(sel if items is None else ids[sel])
    return bool(K <= (P - N) / inst.v0), _joined(chosen), P, N


def _joined(chosen: list) -> np.ndarray:
    """The blocks' selections as one array, a single block's as it is (no
    block is left when every cap is 0, see _partitioned_compare)."""
    return chosen[0] if len(chosen) == 1 else np.concatenate([np.empty(0, np.int64), *chosen])


_SMALLEST_K = 4 * np.finfo(float).tiny  # keeps the bounds' quotients normal

# The start selection reads the top _START_WIDTH * k items by price, k the
# sum of the caps (chosen by tools/cap_start_sweep.py).
_START_WIDTH = 8


def _start_select(inst: Instance, blocks: Sequence[tuple], by_position: Sequence[tuple],
                  top: int) -> np.ndarray | None:
    """Per block, the up to cap largest positive margins v_i p_i (at K = 0)
    among its items in the top ``top`` by price, read in ascending order,
    as 0-based items; None when a block has fewer than its c_min positive
    ones there."""
    chosen = []
    for (items, cap, lo), (_, ascending) in zip(blocks, by_position):
        ids = slice(top) if items is None else ascending[:ascending.searchsorted(top)]
        w = inst.weights[ids] * inst.prices[ids]
        sel = _largest(w, (w > 0).nonzero()[0], cap)
        if sel.size < lo:
            return None
        chosen.append(sel if items is None else ids[sel])
    return _joined(chosen)


def _certificate(inst: Instance, blocks: Sequence[tuple], by_position: Sequence[tuple],
                 on_iteration: Callable[[SearchState], None] | None = None
                 ) -> tuple[float, float, np.ndarray, int]:
    """(K_lo, K_hi, witness, selections): K_lo <= R* <= K_hi, and
    :func:`_compare_items` answers "yes" at every K <= K_lo and "no" at
    every K >= K_hi; the witness, as 0-based items, is the best set found
    or, when no set earns more than 0, the last selection, which earns 0
    as every feasible set then does; ``selections`` counts the selections.

    Dinkelbach's iteration (Dinkelbach 1967, Management Science 13(7))
    takes the selection S at K, then K = R(S), until R(S) <= K.  It is
    Newton's method on the convex, falling max_S [A - K (v0 + B)], so it
    ends at the optimum R* in a few selections: one start selection at
    K = 0 by :func:`_start_select` over the top :data:`_START_WIDTH` k items
    by price, k the sum of the caps, then full reads by
    :func:`_compare_items` over the whole catalog.

    The bounds hold for the full read's float answer K <= fl(T / v0), T the
    float difference of P and N, the float sums of the selected positive
    margins w_i = fl(v_i fl(p_i - K)) and of the sizes of the top-up's.  No
    w_i rises with K, so neither does W, the real sum of the selected w_i
    and the largest such sum over the feasible sets, nor the real sum of
    the selected positive ones.  T adds at most k terms, so with N' the
    real size of the top-up's part and P' = W + N', |T - W| <=
    gamma_k (P' + N'), with u = 2^-53 and gamma_k = k u / (1 - k u), since
    a float sum of at most k terms, in any order and grouping, lies within
    gamma_k of the real one (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 4.2); below, s = 1 - 8(k + 2) u and
    h = 1 + 8(k + 2) u.

    K_lo lies just below the witness's revenue; P* and N* are the float
    sums of the witness's positive margins at K_lo and of the sizes of its
    negative ones.  At K <= K_lo the witness's margins are no smaller, and
    a top-up takes the largest non-positive margins, no more of them than
    the witness holds, so T >= (1 - gamma_k) W - 2 gamma_k N' >=
    P* (1 - gamma_k) / (1 + gamma_k) - N* (1 + gamma_k) / (1 - gamma_k).
    K_lo passes K_lo <= fl(fl(fl(P* s) - fl(N* h)) / v0) s) < inf, which
    puts that bound at K_lo v0 / (1 - u) or more, so fl(T / v0) >= K_lo.

    K_hi: at every K >= K_T, the last K, T <= (1 - gamma_k) W + 2 gamma_k P'
    is at most its value at K_T, <= P_T (1 + gamma_k) / (1 - gamma_k) -
    N_T (1 - gamma_k) / (1 + gamma_k) with P_T and N_T the last full read's
    own P and N, so fl(T / v0) < fl(fl(fl(P_T h) - fl(N_T s)) / v0) h).
    K_hi is the largest of that, K_T and :data:`_SMALLEST_K`, which keeps
    each quotient normal or below K.  A K_lo that proves nothing is -inf.
    At any K, R* <= max(K, M(K) / v0), M(K) the largest real margin sum: if
    R* > K, the optimum's margins sum to R* v0 + (R* - K) B* >= R* v0.  So
    K_hi, and the same bound taken at any full read, bounds R* from above.

    ``on_iteration`` gets one state per selection, taken at its K: the
    bracket [K, the upper bound above at K], K shrunk as K_lo is, and the
    best set so far (the selection itself while there is none).  The start
    selection does not see every item, so its state keeps the bound p1.
    """
    k = sum(cap for _, cap, _ in blocks)
    s, h = 1.0 - (k + 2) * 2.0 ** -50, 1.0 + (k + 2) * 2.0 ** -50
    shrink = 1.0 - (k + 2) * 2.0 ** -46
    K, best, selections = 0.0, None, 0
    items = _start_select(inst, blocks, by_position, _START_WIDTH * k)
    if items is not None:
        selections += 1
        if on_iteration is not None:
            on_iteration(SearchState(0.0, inst.p1, Assortment(items + 1), selections))
        if (r := _revenue_of(inst, items)) > 0:
            K, best = r, items
    while True:
        _, items, P, N = _compare_items(inst, blocks, K, by_position)
        selections += 1
        upper = max((P * h - N * s) / inst.v0 * h, K, _SMALLEST_K)
        if on_iteration is not None:
            on_iteration(SearchState(K * shrink, upper, Assortment(
                (items if best is None else best) + 1), selections))
        r = _revenue_of(inst, items)
        if not r > K:
            break
        K, best = r, items
    K_lo = -math.inf
    if best is not None:
        below = K * shrink
        P, N = _signed_sums(inst, best, below)
        if _SMALLEST_K <= below <= (P * s - N * h) / inst.v0 * s < math.inf:
            K_lo = below
    return K_lo, upper, items if best is None else best, selections


def _signed_sums(inst: Instance, items: np.ndarray, K: float) -> tuple[float, float]:
    """Float sums of the positive margins of 0-based ``items`` at K and of
    the sizes of their negative ones."""
    w = inst.weights[items] * (inst.prices[items] - K)
    return float(w[w > 0].sum()), -float(w[w < 0].sum())


def _revenue_of(inst: Instance, items: np.ndarray) -> float:
    """A / (v0 + B) of 0-based ``items``, summed in any order."""
    v = inst.weights[items]
    return float(inst.prices[items] @ v) / (inst.v0 + float(v.sum()))


def _check_capacity(inst: Instance, C: int, c_min: int) -> None:
    """Reject a capacity outside 1..n, or a forced size outside 0..C."""
    if not 0 <= c_min <= C:
        raise ValueError("c_min must lie in 0..C")
    if not 1 <= C <= inst.n:
        raise ValueError(f"capacity must lie in 1..{inst.n}")


def _partitioned_compare(inst: Instance, blocks: Sequence[Sequence[int]],
                         caps: Sequence[int]) -> tuple[list, list]:
    """Check that ``blocks`` partition 1..n with one non-negative cap each,
    and return the comparison's blocks over them, which trust the check,
    with their :func:`_by_position`; blocks of cap 0 are left out."""
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
    by_position = _by_position(spec, inst.n)
    # a block of cap 0 selects nothing and adds 0.0 to every sum, so no
    # read visits it
    kept = [w for w, (_, cap, _) in enumerate(spec) if cap]
    return [spec[w] for w in kept], [by_position[w] for w in kept]


# A bisection step answers threshold K with the raised lower bound and its
# witness, in the form its solve carries witnesses in, or None when the
# upper bound drops to K.
StepFn = Callable[[float], tuple[float, object] | None]
# Builds the set a witness stands for.
BuildFn = Callable[[object], Assortment]


def _general_step(mips: MipsOracle, inst: Instance) -> StepFn:
    """Step that raises the lower bound to K whenever the engine's set
    scores at least K v0, carrying that set's id in the engine's collection."""
    def step(K: float):
        ans = mips.query(K)
        if ans is None or not K <= ans[1] / inst.v0:  # also "no" on a NaN score
            return None
        return K, ans[0]
    return step


def _set_builder(collection: AssortmentCollection, mips: MipsOracle) -> BuildFn:
    """Builds a witness id's set from the engine's collection, and the
    start, the witness None, as ``collection``'s first set."""
    source = mips.points.source
    return lambda set_id: collection[0] if set_id is None else source[set_id]


def _bisect(inst: Instance, step: StepFn, eps: float, build: BuildFn,
            on_iteration: Callable[[SearchState], None] | None = None) -> SolverResult:
    """The one search loop: halve [0, p1] until it is within eps.

    Each raised bound's witness is carried in the solve's own form, and the
    witness None stands for the start, a feasible set returned when no
    comparison succeeds.  ``build`` makes the set a witness stands for: one
    for each state given to ``on_iteration``, and the one the solve returns,
    after the loop and within the timing.
    """
    if not eps > 0:  # also rejects NaN
        raise ValueError("eps must be positive")
    lower, upper = 0.0, inst.p1
    best = None
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
            on_iteration(SearchState(lower, upper, build(best), iteration))
    chosen = build(best)
    wall = time.perf_counter() - t0
    return SolverResult(chosen, revenue(chosen, inst), (lower, upper), iteration, wall)


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
    return _bisect(inst, _general_step(mips, inst), eps,
                   _set_builder(collection, mips), on_iteration)


def assort_mnl_capacitated(inst: Instance, C: int | None, eps: float,
                           variant: str = "topc", *, c_min: int | None = None,
                           blocks: Sequence[Sequence[int]] | None = None,
                           caps: Sequence[int] | None = None,
                           on_iteration=None) -> SolverResult:
    """The certified optimum under capacity-style constraints.

    variant "topc" optimizes over all sets of size <= C, "lb" additionally
    forces at least c_min items, and "partitioned" applies per-block caps.
    Dinkelbach's iteration (:func:`_certificate`) ends at the optimum in a
    few selections, each linear in the item count; the solve returns its
    witness, that set's exact revenue, the proven bracket (K_lo, K_hi),
    about 1e-12 wide in relative terms (0 for a K_lo it cannot prove), and
    the selections made as ``iterations``.  ``on_iteration`` gets one state
    per selection.  ``eps`` must be positive but shapes nothing.  C, c_min,
    blocks and caps are checked on entry.
    """
    if variant in ("topc", "lb"):
        lo = c_min if variant == "lb" else 0
        if C is None or lo is None:
            raise ValueError("variant 'topc' needs a capacity C" if variant == "topc"
                             else "variant 'lb' needs C and c_min")
        _check_capacity(inst, C, lo)
        spec = [(None, C, lo)]
        by_position = _by_position(spec, inst.n)
    elif variant == "partitioned":
        if blocks is None or caps is None:
            raise ValueError("variant 'partitioned' needs blocks and caps")
        spec, by_position = _partitioned_compare(inst, blocks, caps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if not eps > 0:  # also rejects NaN
        raise ValueError("eps must be positive")
    t0 = time.perf_counter()
    K_lo, K_hi, items, selections = _certificate(inst, spec, by_position, on_iteration)
    chosen = Assortment(items + 1)
    wall = time.perf_counter() - t0
    return SolverResult(chosen, _sorted_revenue(inst, np.sort(items)),
                        (max(K_lo, 0.0), K_hi), selections, wall)


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
        return (K if K <= s else K_hat), set_id

    report = None if on_iteration is None else (lambda st: on_iteration(
        replace(st, lower=st.lower * scale, upper=st.upper * scale)))
    res = _bisect(norm, step, eps / scale, _set_builder(collection, lsh), report)
    return replace(res, revenue=revenue(res.assortment, inst),
                   revenue_interval=tuple(b * scale for b in res.revenue_interval))
