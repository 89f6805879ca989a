"""Noise-tolerant revenue search by Bayesian bisection (BZ-style).

Instead of halving a deterministic bracket, the solver maintains a
piecewise-constant posterior over revenue bins of width eps, queries the
comparison "is there a set with revenue >= K" near the posterior median,
and reweights the bins multiplicatively according to an assumed error rate
alpha.  Repeated rounds concentrate the posterior on the optimum even when
individual comparisons are wrong with some probability.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (AssortmentCollection, Instance, SolverResult, _value_rows,
                    normalize, revenue)
from .mips import (EmbeddedCollection, LshParams, _hash_keys, _key_columns, _pack_bits,
                   _projections, _retrieve, default_lsh_params, embed_collection)

__all__ = [
    "bz_rounds_needed",
    "run_noisy_bisection",
    "assort_mnl_bz",
]

_PREFIX_BITS = 5  # key bits per table that a bz round hashes for every set


def bz_rounds_needed(gamma: float, eps: float, p1: float, p_max: float) -> int:
    """Rounds required for failure probability <= gamma when each comparison
    errs with probability at most p_max and alpha is set to sqrt(p_max)."""
    if not 0 < p_max < 0.25:
        raise ValueError("p_max must lie in (0, 0.25)")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0 < eps < p1:
        raise ValueError("eps must lie in (0, p1)")
    base = 0.5 + math.sqrt(p_max)
    return math.ceil(math.log(gamma * eps / (p1 - eps)) / math.log(base))


def _bin_count(p1: float, eps: float) -> int:
    if not eps > 0:  # also rejects NaN
        raise ValueError(f"eps must be positive, got {eps}")
    bins = p1 / eps
    rounded = round(bins)
    if rounded < 1 or abs(bins - rounded) > 1e-9 * max(1.0, bins):
        raise ValueError(f"p1/eps = {bins:.6g} must be a positive integer")
    return int(rounded)


@dataclass(frozen=True)
class Posterior:
    """Piecewise-constant distribution over revenue bins of width eps.

    Bin i (1-based) covers (eps*(i-1), eps*i]; masses always sum to one.
    """

    bin_mass: np.ndarray
    eps: float
    p1: float

    def __post_init__(self):
        mass = np.asarray(self.bin_mass, dtype=float)
        mass.setflags(write=False)
        object.__setattr__(self, "bin_mass", mass)
        bins = _bin_count(self.p1, self.eps)
        if mass.size != bins:
            raise ValueError(f"expected {bins} bins, got {mass.size}")
        if np.any(mass < 0):
            raise ValueError("bin masses must be non-negative")
        if abs(float(mass.sum()) - 1.0) > 1e-9:
            raise ValueError("bin masses must sum to 1")

    @classmethod
    def uniform(cls, p1: float, eps: float) -> "Posterior":
        bins = _bin_count(p1, eps)
        return cls(np.full(bins, 1.0 / bins), eps, p1)

    @property
    def bins(self) -> int:
        return int(self.bin_mass.size)

    def median(self) -> float:
        """The x with cumulative mass 1/2, interpolated inside its bin."""
        cum = np.cumsum(self.bin_mass)
        i = int(np.searchsorted(cum, 0.5, side="left"))
        before = float(cum[i - 1]) if i > 0 else 0.0
        return self.eps * (i + (0.5 - before) / float(self.bin_mass[i]))


def bz_sample_selection(post: Posterior,
                        rng: np.random.Generator) -> tuple[float, int]:
    """Pick the next comparison threshold near the posterior median.

    Returns (K, u) where u is the 1-based median bin and K is the bin's
    left edge eps*(u-1) with probability tau2/(tau1+tau2), else the right
    edge eps*u.  The randomization balances how much mass each outcome of
    the comparison can move.
    """
    cum = np.cumsum(post.bin_mass)
    u0 = int(np.searchsorted(cum, 0.5, side="right"))  # first bin with cum > 1/2
    u = u0 + 1
    below = float(cum[u0 - 1]) if u0 > 0 else 0.0
    upto = float(cum[u0])
    # upto > 1/2 >= below, and doubling is exact: tau2 > 0 and tau1 >= 0
    tau1 = 1.0 - 2.0 * below
    tau2 = 2.0 * upto - 1.0
    q = tau2 / (tau1 + tau2)
    K = post.eps * (u - 1) if rng.random() < q else post.eps * u
    return K, u


def bz_posterior_update(post: Posterior, u: int, h: int,
                        alpha: float) -> Posterior:
    """Bayes-reweight the bins after observing comparison outcome h at
    threshold eps*u.

    ``u`` counts the bins at or below the threshold (0..bins).  The stated
    denominators normalize exactly, so the returned masses still sum to 1.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if not 0 <= u <= post.bins:
        raise ValueError(f"u must lie in 0..{post.bins}")
    beta = 1.0 - alpha
    mass = post.bin_mass
    tau = 2.0 * float(mass[:u].sum()) - 1.0
    factors = np.empty_like(mass)
    if h == 0:
        d = 1.0 + tau * (beta - alpha)
        factors[:u] = 2.0 * beta / d
        factors[u:] = 2.0 * alpha / d
    else:
        d = 1.0 - tau * (beta - alpha)
        factors[:u] = 2.0 * alpha / d
        factors[u:] = 2.0 * beta / d
    return Posterior(mass * factors, post.eps, post.p1)


def run_noisy_bisection(p1: float, eps: float, rounds: int, alpha: float,
                        compare: Callable[[float], int],
                        rng: np.random.Generator,
                        on_round: Callable[[int, float, int, Posterior], None] | None = None,
                        ) -> tuple[Posterior, float]:
    """Run the posterior loop against an arbitrary 0/1 comparison oracle.

    Returns the final posterior and its median.  ``compare(K)`` should be 1
    when some feasible revenue is believed to reach K.
    """
    if not 0.0 < alpha < 0.5:  # before any comparison, even with no rounds
        raise ValueError("alpha must lie in (0, 0.5)")
    post = Posterior.uniform(p1, eps)
    for j in range(rounds):
        K, _ = bz_sample_selection(post, rng)
        h = int(compare(K))
        u_split = int(round(K / post.eps))
        post = bz_posterior_update(post, u_split, h, alpha)
        if on_round is not None:
            on_round(j, K, h, post)
    return post, post.median()


def _round_hashes(points: EmbeddedCollection, weights: np.ndarray, params: LshParams,
                  seeds: list[int]):
    """What every bz round hashes with, drawn before the first comparison.

    Round r draws the projections ``build_lsh_index(points, params,
    seeds[r])`` would, once, in order, and keeps its query vectors a_r = H_p w
    and b_r = H_u w, shape (tables, bits), and its float32 key columns and
    negated tails (:func:`_key_columns`), written into one (n, rounds *
    tables * bits) array with the first min(bits, 5) bits of every table of
    every round first.  One pass over the membership then hashes those
    prefix bits of every set for every round.  Returns (a, b, heads,
    full_keys): a and b of shape (rounds, tables, bits), heads of shape
    (rounds, tables, sets), and ``full_keys(r, t, ids)``, the keys of the
    sets ``ids`` in table t of round r, hashed from that table's stored
    columns.  The keys are the built index's up to the BLAS's rounding of
    the products; no round draws projections or unpacks every set again.
    """
    tables, bits, n = params.tables, params.bits, points.n
    rounds, prefix = len(seeds), min(bits, _PREFIX_BITS)
    width = rounds * tables * prefix
    rest = bits - prefix
    # slots[r, t, j]: the column of bit j of table t in round r
    slots = np.concatenate(
        [np.arange(width).reshape(rounds, tables, prefix),
         width + np.arange(rounds * tables * rest).reshape(rounds, tables, rest)], axis=2)
    columns = np.empty((n, slots.size), dtype=np.float32)
    neg_tail = np.empty(slots.size, dtype=np.float32)
    a = np.empty((rounds, tables, bits))
    b = np.empty_like(a)
    for r, seed in enumerate(seeds):
        proj = _projections(params, seed, points.dim + 1)
        a[r], b[r] = proj[:, :, :n] @ weights, proj[:, :, n:2 * n] @ weights
        at = slots[r].ravel()
        columns[:, at], neg_tail[at] = _key_columns(points.prices, proj)
        del proj  # one round's float64 projections are alive at a time
    heads = None
    if rounds:
        heads = _hash_keys(points, columns[:, :width], neg_tail[:width],
                           rounds * tables).reshape(rounds, tables, -1)

    def full_keys(r: int, t: int, ids: np.ndarray) -> np.ndarray:
        # all the table's bits: a product of one column takes another BLAS path
        at = slots[r, t]
        return _hash_keys(points, columns[:, at], neg_tail[at], 1, ids)[0]

    return a, b, heads, full_keys


def assort_mnl_bz(collection: AssortmentCollection, inst: Instance, eps: float,
                  rounds: int, alpha: float, params: LshParams | None = None,
                  seed: int = 0) -> SolverResult:
    """Noise-tolerant assortment search with fresh hash functions every round.

    The instance is normalized internally so the bin grid spans [0, 1];
    drawing the hyperplanes of each round from its own seed keeps
    comparison errors independent across rounds.  A round answers as
    ``LshMips(build_lsh_index(points, params, seed_r), points, w).query(K)``
    would, but builds no index, since it asks only one question.  Every
    round's seed is fixed before the first comparison, so
    :func:`_round_hashes` draws all the rounds' projections first and
    hashes the first min(bits, 5) key bits of every table of every round
    for every set in one pass over the membership.  Round r then packs its
    query key from a_r - K b_r, and each table its probe reaches hashes all
    its bits, from the columns stored for it, only for the sets whose
    prefix is the query's, about N/32 of them.  Those keys are the built
    index's up to the BLAS's rounding of the products.  Returns the best
    witness seen (the first member of the collection when no round
    retrieves one), with ``estimate`` = max(posterior median, witness
    revenue) mapped back to the original price scale.
    """
    inst_n = normalize(inst)  # rejects a top price of 0
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    _bin_count(inst.p1, eps)  # validates eps and integrality before any work
    scale = inst.p1

    points = embed_collection(collection, inst_n)
    if params is None:
        params = default_lsh_params(len(points))
    weights = inst_n.weights
    rows = _value_rows(inst_n.prices, weights)
    prefix = min(params.bits, _PREFIX_BITS)
    low = np.uint64((1 << prefix) - 1)
    children = np.random.SeedSequence(seed).spawn(rounds + 1)
    t0 = time.perf_counter()
    a, b, heads, full_keys = _round_hashes(
        points, weights, params, [int(c.generate_state(1)[0]) for c in children[1:]])
    round_no = iter(range(rounds))
    best, best_rev = collection[0], revenue(collection[0], inst_n)

    def compare(K: float) -> int:
        nonlocal best, best_rev
        r = next(round_no)
        qkeys = _pack_bits(a[r] - K * b[r] >= 0.0)

        def bucket(t: int, key: np.uint64) -> np.ndarray:
            ids = np.flatnonzero(heads[r, t] == heads.dtype.type(key & low))
            if prefix < params.bits and ids.size:
                ids = ids[full_keys(r, t, ids) == key]
            return ids

        cand = _retrieve(bucket, qkeys, params)
        if cand is None:
            return 0
        A, B = collection.set_sums(rows, cand)
        scores = A - K * B
        at = int(np.argmax(scores))
        witness = collection[int(cand[at])]
        wrev = revenue(witness, inst_n)
        if wrev > best_rev:
            best, best_rev = witness, wrev
        return int(K <= float(scores[at]) / inst_n.v0)

    _, median = run_noisy_bisection(inst_n.p1, eps / scale, rounds, alpha, compare,
                                    np.random.default_rng(children[0]))
    wall = time.perf_counter() - t0

    theta = max(median, best_rev) * scale
    interval = (max(0.0, theta - eps), theta + eps)
    return SolverResult(best, revenue(best, inst), interval, rounds, wall,
                        estimate=theta)
