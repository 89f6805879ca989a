import hashlib
import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from assortmax import (Assortment, GenSpec, Instance, assort_mnl_capacitated,
                       brute_force_capacitated, generate_instance, revenue)
from assortmax import solvers

from conftest import random_instance


def brute_force_size_range(inst, c_min, c_max):
    """Independent oracle: best revenue over sets with c_min <= |S| <= c_max."""
    best_rev, best = (0.0, Assortment()) if c_min == 0 else (-1.0, None)
    for k in range(max(c_min, 1), c_max + 1):
        for combo in itertools.combinations(range(1, inst.n + 1), k):
            r = revenue(Assortment(combo), inst)
            if r > best_rev:
                best_rev, best = r, Assortment(combo)
    return best_rev, best


def brute_force_blocks(inst, blocks, caps):
    """Independent oracle: best revenue with per-block cardinality caps."""
    per_block = []
    for b, cap in zip(blocks, caps):
        opts = [()]
        for k in range(1, min(cap, len(b)) + 1):
            opts.extend(itertools.combinations(b, k))
        per_block.append(opts)
    best_rev, best = 0.0, Assortment()
    for pick in itertools.product(*per_block):
        items = [i for part in pick for i in part]
        if not items:
            continue
        r = revenue(Assortment(items), inst)
        if r > best_rev:
            best_rev, best = r, Assortment(items)
    return best_rev, best


def solve_spec(inst, C, variant, c_min=0, blocks=None, caps=None):
    """The comparison blocks and their positions, as a solve of ``variant``
    builds them (a "partitioned" one checks ``blocks`` and ``caps``)."""
    if variant == "partitioned":
        return solvers._partitioned_compare(inst, blocks, caps)
    spec = [(None, C, c_min if variant == "lb" else 0)]
    return spec, solvers._by_position(spec, inst.n)


def compare_spec(inst, spec, K, by_position=None):
    """The library's one comparison, with its witness as an Assortment."""
    exists, items, _, _ = solvers._compare_items(inst, spec, K, by_position)
    return exists, Assortment(items + 1)


def compare(K, inst, C=None, c_min=0, blocks=None, caps=None):
    """The comparison at K of an "lb" solve over sets of c_min..C items or,
    given ``blocks``, of a "partitioned" one."""
    variant = "lb" if blocks is None else "partitioned"
    spec, by_position = solve_spec(inst, C, variant, c_min, blocks, caps)
    return compare_spec(inst, spec, K, by_position)


def exact_optimum(inst, spec, start):
    """The optimum as a Fraction, by Dinkelbach's iteration in exact
    rational arithmetic from the revenue of the feasible 0-based items
    ``start``: per block of ``spec``, a selection sorts the exact margins
    v_i (p_i - K) and takes the largest positive ones up to its cap, topped
    up to its c_min with the largest others, until its revenue is at most K.

    Exact for any n, where brute force stops at about n = 25: a float
    margin fl(v fl(p - fl(K))) lies within 4u v (p + |fl(K)|) of the exact
    one (u = 2^-53), so a screen 8 times as wide, its own rounding
    included, keeps every item that can be among a block's max(cap, c_min)
    largest exact margins, ties included, and only those are sorted in
    Fractions."""
    def rev(items):
        p = [Fraction(x) for x in inst.prices[items].tolist()]
        v = [Fraction(x) for x in inst.weights[items].tolist()]
        return (sum((a * b for a, b in zip(p, v)), Fraction(0))
                / (Fraction(inst.v0) + sum(v, Fraction(0))))

    K = rev(np.asarray(start, dtype=np.int64))
    while True:
        w = inst.weights * (inst.prices - float(K))
        err = 2.0 ** -48 * inst.weights * (inst.prices + abs(float(K))) + 2.0 ** -1070
        chosen = []
        for items, cap, lo in spec:
            ids = np.arange(inst.n) if items is None else items
            t = min(max(cap, lo), ids.size)
            if t == 0:
                continue
            floor = np.partition(w[ids] - err[ids], ids.size - t)[ids.size - t]
            screened = ids[w[ids] + err[ids] >= floor].tolist()
            margins = sorted(((Fraction(inst.weights[i]) * (Fraction(inst.prices[i]) - K), i)
                              for i in screened), reverse=True)
            top = sum(m > 0 for m, _ in margins[:cap])
            chosen += [i for _, i in margins[:max(top, lo)]]
        r = rev(np.array(chosen, dtype=np.int64))
        if r <= K:
            return K
        K = r


def solve_optimum(inst, res, C, variant, c_min=0, blocks=None, caps=None):
    """:func:`exact_optimum` of a solve's feasible family, from its answer."""
    spec = solve_spec(inst, C, variant, c_min, blocks, caps)[0]
    return exact_optimum(inst, spec, res.assortment.indices())


# sorted items, revenue, bracket and iterations of 15 solves at n=20000;
# re-recorded when a solve began to return its certificate's witness, and
# when the certificate began from one start selection over the top 8k
# items: 13 iteration counts fell and 5 upper bracket ends moved in their
# last bits (at most 2.4e-16 relative), no set, revenue or lower end did
_PINNED_PREFIX_SOLVES_SHA256 = (
    "90a3bcac0cb886dd33dbf3d0b8e39956ad1dfc02e9cc52cea0359834322d17d1")


# sorted items, revenue, bracket and iterations, then every state's
# (lower, upper, sorted best items, iteration), of the partitioned solves of
# TestZeroCapBlocks; re-recorded when a solve began to return its
# certificate's witness and report one state per selection, and when the
# certificate began from one start selection over the top 8k items: the
# four solves with a non-zero cap make one selection, and so report one
# state, fewer (5 -> 4, 6 -> 5), and their upper ends moved in the last
# bits (at most 2.3e-16 relative); no set, revenue or lower end moved
_PINNED_ZERO_CAP_SHA256 = (
    "50a005c30ce5b973fb935cc63440df5cef075a9cd7c3c173ba2fd0df1d1fa801")


# per GenSpec seed at n = 10^5, the capacity-1e5 catalog: sorted items,
# revenue.hex(), bracket ends .hex() and iterations of 20 customers' topc
# (C = 50), lb (C = 50, c_min = 10) and partitioned (four blocks, caps
# [20, 5, 15, 10]) solves; recorded at the parent of the change that
# partitions a full read's margins in place
_PINNED_BENCHMARK_SOLVES_SHA256 = {
    1708: "fc655e0b6d58f98c594e3803d3e166f07f0068a6d1e9953d179025a20dc12b5e",
    1708055: "8dc3a9a81d5478656ebe91379a8d9f9346f35e6a14d1a33b18ecd852112cb14a",
}


# repr of each solve's revenue in test_hostile_brackets_hold_the_exact_optimum
# (hostile_case, seed 73), per variant, recorded at the parent of the change
# that starts the certificate from one selection: no revenue fell (the sets
# may differ among tied items)
_PINNED_HOSTILE_REVENUES_SHA256 = {
    "topc": "94db85cbb11b4a7a37ba47351b9b673d16eb7ac3a845c4faf0a39462d301ad2c",
    "lb": "c321f5a72fb3895b10c20e7cc5325fb1d4a6951d8d3778cd1896f3ff520182f4",
    "partitioned": "968dacbf842e17da298a4462b5e04d6635afc54541fc197685561b9946e19448",
}


class TestCompareCapacitated:
    def test_exists_hand_example(self, e1):
        exists, witness = compare(3.0, e1, 2)
        assert exists and witness.items == {1, 2}

    def test_not_exists_hand_example(self, e1):
        exists, witness = compare(4.0, e1, 2)
        assert not exists
        assert witness.items == {1, 2}  # top-2 positive margins regardless

    def test_threshold_above_top_price(self, e1):
        exists, witness = compare(12.0, e1, 2)
        assert not exists and len(witness) == 0

    def test_capacity_bounds_checked(self, e1):
        with pytest.raises(ValueError, match="capacity"):
            assort_mnl_capacitated(e1, 0, 0.1)
        with pytest.raises(ValueError, match="capacity"):
            assort_mnl_capacitated(e1, 4, 0.1)

    def test_witness_maximizes_margin_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng, 9)
            C = int(rng.integers(1, 9))
            K = float(rng.uniform(0, inst.p1))
            _, witness = compare(K, inst, C)
            w = inst.weights * (inst.prices - K)
            got = w[witness.indices()].sum() if len(witness) else 0.0
            best = max((sum(w[list(c)]) for k in range(0, C + 1)
                        for c in itertools.combinations(range(9), k)),
                       default=0.0)
            assert got == pytest.approx(best, rel=1e-12, abs=1e-12)


def full_margin_compare(inst, blocks, K):
    """The comparison as it was before it read only the items priced above
    K: every margin, every block in full.  The library must match it bit
    for bit.  ``blocks`` holds (0-based items or None for all, cap, c_min)."""
    def largest(w, idx, k):
        cut = idx.size - k
        if cut <= 0 or k == 0:
            return idx[:k]
        return idx[np.argpartition(w[idx], cut)[cut:]]

    def select(w, cap, c_min):
        sel = largest(w, np.flatnonzero(w > 0), cap)
        if sel.size < c_min:
            sel = np.concatenate(
                [sel, largest(w, np.flatnonzero(w <= 0), c_min - sel.size)])
        return sel

    w = inst.weights * (inst.prices - K)
    chosen = [select(w, cap, lo) if items is None else items[select(w[items], cap, lo)]
              for items, cap, lo in blocks]
    total = sum(float(w[sel].sum()) for sel in chosen)
    return bool(K <= total / inst.v0), Assortment(np.concatenate(chosen) + 1)


def gathered_largest(w, idx, k):
    """solvers._largest through its gathered path: the margins padded by one,
    so that ``idx`` never covers every position of them."""
    return solvers._largest(np.append(w, 0.0), idx, k)


class TestLargest:
    @pytest.mark.parametrize("seed", range(5))
    def test_in_place_path_returns_the_gathered_positions(self, seed):
        # integer margins, so many ties, some of them at 0
        rng = np.random.default_rng(seed)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            w = rng.integers(-3, 4, size).astype(float)
            for idx in ((w > 0).nonzero()[0], (w <= 0).nonzero()[0], np.arange(size)):
                for k in {0, 1, idx.size // 2, idx.size, idx.size + 3,
                          int(rng.integers(0, size + 2))}:
                    got = solvers._largest(w[idx], np.arange(idx.size), k)
                    assert np.array_equal(idx[got], gathered_largest(w, idx, k))
                    # the k largest, whichever ties they take
                    kept = np.sort(w[idx])[::-1][:k]
                    assert np.array_equal(np.sort(w[idx][got])[::-1], kept)

    def test_all_non_positive_top_up_reads_in_place(self):
        # K above every price: no margin is positive, so the lb top-up takes
        # the c_min largest of all of them, ties among zero weights included
        inst = Instance([5.0, 4.0, 4.0, 3.0, 2.0, 1.0], [0.0, 2.0, 1.0, 0.0, 3.0, 1.0], 1.0)
        w = inst.weights * (inst.prices - 6.0)
        positions = np.arange(inst.n)
        for c_min in range(inst.n + 1):
            assert np.array_equal(solvers._largest(w, positions, c_min),
                                  gathered_largest(w, positions, c_min))
            _, items, P, N = solvers._compare_items(inst, [(None, c_min, c_min)], 6.0)
            assert np.array_equal(items, gathered_largest(w, positions, c_min))
            assert P == 0.0 and N == -float(w[items].sum())


class TestPricedAboveK:
    def test_matches_full_margin_comparison(self):
        # three instances in four have integer prices and weights, so ties in
        # price, weight and margin, and zero weights; K also lands on a
        # price, at or above p1, below 0 and on NaN
        rng = np.random.default_rng(44)
        hit = set()
        for _ in range(600):
            n = int(rng.integers(1, 13))
            prices = np.sort(rng.integers(0, 6, n))[::-1].astype(float)
            inst = (Instance(prices, rng.integers(0, 3, n).astype(float),
                             float(rng.integers(1, 3)))
                    if rng.random() < 0.75 else random_instance(rng, n))
            prices = inst.prices
            kind = rng.choice(["price", "p1", "above", "negative", "nan", "uniform"])
            K = {"price": float(rng.choice(prices)), "p1": inst.p1,
                 "above": inst.p1 + 1.0, "negative": -1.0, "nan": np.nan,
                 "uniform": float(rng.uniform(0, inst.p1))}[kind]
            hit.add(kind)
            C = int(rng.integers(1, n + 1))
            c_min = int(rng.integers(0, C + 1))
            if c_min > np.count_nonzero(inst.weights * (inst.prices - K) > 0):
                hit.add("top-up")
            got = compare(K, inst, C, c_min)
            assert got == full_margin_compare(inst, [(None, C, c_min)], K)
            # blocks in shuffled order, with their items in shuffled order
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)),
                                      replace=False))
            arrs = np.split(rng.permutation(n), cuts)
            caps = [int(rng.integers(0, len(b) + 2)) for b in arrs]
            got = compare(K, inst, blocks=[b + 1 for b in arrs], caps=caps)
            assert got == full_margin_compare(inst, [(b, cap, 0) for b, cap in
                                                     zip(arrs, caps)], K)
            # no variant gives an explicit block a c_min; the comparison
            # still tops such a block up from its own items
            spec = [(b, cap, int(rng.integers(0, min(cap, b.size) + 1)))
                    for b, cap in zip(arrs, caps)]
            assert compare_spec(inst, spec, K) == full_margin_compare(inst, spec, K)
        assert hit == {"price", "p1", "above", "negative", "nan", "uniform", "top-up"}

    def test_one_comparison_stays_in_small_buffers(self):
        # n = 10^5 with about 2000 items priced above K = 980: the full
        # margins and their masks alone would take 800 KB and more
        inst = random_instance(np.random.default_rng(24), 100_000, price_hi=1000.0)
        assert 1500 < np.count_nonzero(inst.prices > 980.0) < 2500
        tracemalloc.start()
        try:
            compare(980.0, inst, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256_000


def size_family(items, lo, hi):
    """Every subset of ``items`` with lo..hi members, as tuples."""
    return [c for k in range(lo, min(hi, len(items)) + 1)
            for c in itertools.combinations(items, k)]


class TestOneSelectionRule:
    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_witness_reaches_best_margin_sum(self, variant):
        # brute force max sum_{i in S} v_i (p_i - K) over the feasible family,
        # with K up to 1.5 p1 so that every margin can be negative
        rng = np.random.default_rng({"topc": 41, "lb": 42, "partitioned": 43}[variant])
        hit = set()
        for _ in range(80):
            n = int(rng.integers(1, 9))
            inst = random_instance(rng, n)
            K = float(rng.uniform(0, 1.5 * inst.p1))
            w = inst.weights * (inst.prices - K)
            if variant == "partitioned":
                cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)),
                                          replace=False))
                blocks = [b.tolist() for b in np.split(rng.permutation(n) + 1, cuts)]
                caps = [int(rng.integers(0, len(b) + 2)) for b in blocks]
                hit |= {"zero cap" for cap in caps if cap == 0}
                hit |= {"cap >= block" for b, cap in zip(blocks, caps) if cap >= len(b)}
                exists, witness = compare(K, inst, blocks=blocks, caps=caps)
                family = [sum(pick, ()) for pick in itertools.product(
                    *(size_family([i - 1 for i in b], 0, cap)
                      for b, cap in zip(blocks, caps)))]
            else:
                C = int(rng.integers(1, n + 1))
                c_min = int(rng.integers(0, C + 1)) if variant == "lb" else 0
                if c_min > (w > 0).sum():
                    hit.add("c_min > positive")
                if C == n:
                    hit.add("cap >= block")
                exists, witness = compare(K, inst, C, c_min)
                family = size_family(range(n), c_min, C)
            assert tuple(witness.indices()) in {tuple(sorted(s)) for s in family}
            best = max(w[list(s)].sum() for s in family)
            assert w[witness.indices()].sum() == pytest.approx(best, rel=1e-12, abs=1e-12)
            assert exists == (K <= best / inst.v0)
        assert hit == {"topc": {"cap >= block"},
                       "lb": {"c_min > positive", "cap >= block"},
                       "partitioned": {"zero cap", "cap >= block"}}[variant]


class TestCompareLowerBound:
    def test_forced_inclusion_hand_example(self, e1):
        exists, witness = compare(6.0, e1, 2, 2)
        assert not exists and witness.items == {1, 2}

    def test_cmin_zero_reduces_to_plain(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            inst = random_instance(rng, 8)
            C = int(rng.integers(1, 8))
            K = float(rng.uniform(0, inst.p1))
            plain = compare(K, inst, C)
            lb = compare(K, inst, C, 0)
            assert plain[0] == lb[0] and plain[1] == lb[1]

    def test_all_negative_margins_picks_least_negative(self, e1):
        exists, witness = compare(20.0, e1, 2, 1)
        assert not exists
        w = e1.weights * (e1.prices - 20.0)
        assert witness.items == {int(np.argmax(w)) + 1}

    def test_cmin_above_capacity_rejected(self, e1):
        with pytest.raises(ValueError, match="c_min"):
            assort_mnl_capacitated(e1, 1, 0.1, "lb", c_min=2)


class TestComparePartitioned:
    def test_single_block_equals_plain(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            inst = random_instance(rng, 7)
            C = int(rng.integers(1, 7))
            K = float(rng.uniform(0, inst.p1))
            plain = compare(K, inst, C)
            part = compare(K, inst, blocks=[range(1, 8)], caps=[C])
            assert plain[0] == part[0] and plain[1] == part[1]

    def test_hand_example(self, e1):
        exists, witness = compare(3.0, e1, blocks=[[1], [2, 3]], caps=[1, 1])
        assert exists and witness.items == {1, 2}

    def test_zero_caps(self, e1):
        exists, witness = compare(1.0, e1, blocks=[[1], [2, 3]], caps=[0, 0])
        assert not exists and len(witness) == 0
        exists, _ = compare(0.0, e1, blocks=[[1], [2, 3]], caps=[0, 0])
        assert exists  # zero threshold is met by the empty selection

    def test_block_item_types(self, e1):
        # whole numbers of any numeric type name items; fractions do not
        blocks = [np.array([1], dtype=np.uint8), (2.0, 3), range(0)]
        want = compare(3.0, e1, blocks=[[1], [2, 3], []], caps=[1, 1, 0])
        assert compare(3.0, e1, blocks=blocks, caps=[1, 1, 0]) == want
        with pytest.raises(ValueError, match="non-integer"):
            compare(3.0, e1, blocks=[[1], [2.5, 3]], caps=[1, 1])
        with pytest.raises(ValueError, match="non-integer"):
            compare(3.0, e1, blocks=[[1], [np.nan, 2, 3]], caps=[1, 1])

    def test_non_partition_rejected(self, e1):
        with pytest.raises(ValueError, match="partition"):
            compare(1.0, e1, blocks=[[1], [1, 2, 3]], caps=[1, 1])
        with pytest.raises(ValueError, match="partition"):
            compare(1.0, e1, blocks=[[1], [2]], caps=[1, 1])


class TestBracketsContainTheOptimum:
    @pytest.mark.parametrize("eps", [1e-3, 0.1, 5.0])
    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_every_bracket_holds_the_brute_force_optimum(self, variant, eps):
        # n = 10 with random C and c_min, or three blocks with random caps
        rng = np.random.default_rng({"topc": 50, "lb": 51, "partitioned": 52}[variant])
        for _ in range(20):
            inst = random_instance(rng, 10)
            C = int(rng.integers(1, 11))
            if variant == "topc":
                opt, kwargs = brute_force_capacitated(inst, C).revenue, {}
            elif variant == "lb":
                c_min = int(rng.integers(0, C + 1))
                opt, kwargs = brute_force_size_range(inst, c_min, C)[0], {"c_min": c_min}
            else:
                cuts = np.sort(rng.choice(np.arange(1, 10), 2, replace=False))
                blocks = [b.tolist() for b in np.split(rng.permutation(10) + 1, cuts)]
                caps = [int(rng.integers(0, len(b) + 2)) for b in blocks]
                C, kwargs = None, {"blocks": blocks, "caps": caps}
                opt = brute_force_blocks(inst, blocks, caps)[0]
            states = []
            res = assort_mnl_capacitated(inst, C, eps, variant,
                                         on_iteration=states.append, **kwargs)
            lo, hi = res.revenue_interval
            assert lo <= opt <= hi
            assert all(s.lower <= opt <= s.upper for s in states)
            # the exact oracle of the tests past brute force's reach agrees
            exact = solve_optimum(inst, res, C, variant, **kwargs)
            assert float(exact) == pytest.approx(opt, rel=1e-14)
            assert res.revenue == pytest.approx(opt, rel=1e-14)

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_hostile_brackets_hold_the_exact_optimum(self, variant, monkeypatch):
        # n up to 300, past brute force, so the optimum is exact_optimum's;
        # the answer is feasible and earns no less than the bisection that
        # reads every comparison in full, also where the certificate proves
        # no K_lo and the bracket starts at 0; every revenue is the one pinned
        rng = np.random.default_rng(73)
        made, hit = record_certificates(monkeypatch), set()
        revenues = hashlib.sha256()
        for _ in range(300):
            inst, args, kwargs, _ = hostile_case(rng, variant)
            made.clear()
            res = assort_mnl_capacitated(inst, *args, **kwargs)
            C = args[0]
            assert _feasible(res.assortment, C, kwargs.get("c_min", 0),
                             kwargs.get("blocks"), kwargs.get("caps"))
            lo, hi = res.revenue_interval
            assert lo <= solve_optimum(inst, res, C, variant, **kwargs) <= hi
            assert res.revenue >= reference_solve(inst, *args, **kwargs)[0][1]
            hit.add("proves nothing" if made[0][0] == -np.inf else "proven")
            revenues.update(repr(res.revenue).encode())
        assert hit == ({"proves nothing", "proven"} if variant == "partitioned"
                       else {"proven"})
        assert revenues.hexdigest() == _PINNED_HOSTILE_REVENUES_SHA256[variant]

    @pytest.mark.parametrize("C", [10, 200])
    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_brackets_hold_the_exact_optimum_at_scale(self, variant, C):
        # n = 10^5 on either side of the benchmark's C = 50: C with
        # c_min = C // 5, or four blocks whose caps sum to C; the optimum is
        # exact_optimum's, and every state's bracket holds it too
        caps = [C * 4 // 10, C // 10, C * 3 // 10, C * 2 // 10]
        for seed in range(2):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, 100_000, price_hi=1000.0)
            blocks = np.array_split(rng.permutation(inst.n) + 1, 4)
            kwargs = ({"blocks": blocks, "caps": caps} if variant == "partitioned"
                      else {"c_min": C // 5} if variant == "lb" else {})
            states = []
            res = assort_mnl_capacitated(inst, C, 0.1, variant, on_iteration=states.append,
                                         **kwargs)
            optimum = solve_optimum(inst, res, C, variant, **kwargs)
            lo, hi = res.revenue_interval
            assert 0 < lo <= optimum <= hi
            assert all(s.lower <= optimum <= s.upper for s in states)
            assert res.revenue == pytest.approx(float(optimum), rel=1e-14)
            assert _feasible(res.assortment, C, kwargs.get("c_min", 0),
                             kwargs.get("blocks"), kwargs.get("caps"))

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_brackets_are_the_certificate_at_scale(self, variant, monkeypatch):
        # n = 10^5, C = 50 with c_min = 10, or four blocks
        made = record_certificates(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, 100_000, price_hi=1000.0)
            blocks = np.array_split(rng.permutation(inst.n) + 1, 4)
            C = None if variant == "partitioned" else 50
            made.clear()
            res = assort_mnl_capacitated(inst, C, 0.1, variant, c_min=10, blocks=blocks,
                                         caps=[20, 5, 15, 10])
            (K_lo, K_hi, items, selections), = made
            assert res.revenue_interval == (K_lo, K_hi) and res.revenue >= K_lo
            assert res.assortment == Assortment(items + 1)
            assert res.iterations == selections
            assert _feasible(res.assortment, C, 10 if variant == "lb" else 0,
                             None if C else blocks, [20, 5, 15, 10])


class TestCapacitatedSolver:
    def test_hand_examples(self, e1):
        assert assort_mnl_capacitated(e1, 2, 0.01).revenue == pytest.approx(3.25, abs=0.02)
        assert assort_mnl_capacitated(e1, 3, 0.01).revenue == pytest.approx(3.6667, abs=0.02)
        assert assort_mnl_capacitated(e1, 1, 0.01).revenue == pytest.approx(2.2857, abs=0.02)
        assert assort_mnl_capacitated(e1, 1, 0.001).assortment.items == {2}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        for trial in range(30):
            inst = random_instance(rng, int(rng.integers(2, 13)))
            C = int(rng.integers(1, min(inst.n, 5) + 1))
            opt = brute_force_capacitated(inst, C)
            res = assort_mnl_capacitated(inst, C, 0.05)
            assert res.revenue == pytest.approx(opt.revenue, rel=1e-12)
            assert len(res.assortment) <= C

    def test_lb_variant_matches_size_range_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            inst = random_instance(rng, 8)
            C = int(rng.integers(2, 6))
            c_min = int(rng.integers(1, C + 1))
            opt_rev, _ = brute_force_size_range(inst, c_min, C)
            res = assort_mnl_capacitated(inst, C, 0.02, variant="lb", c_min=c_min)
            assert res.revenue == pytest.approx(opt_rev, rel=1e-12)
            assert c_min <= len(res.assortment) <= C

    def test_partitioned_variant_matches_block_oracle(self):
        rng = np.random.default_rng(22)
        for trial in range(15):
            inst = random_instance(rng, 9)
            blocks = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
            caps = [int(rng.integers(0, 3)) for _ in blocks]
            if sum(caps) == 0:
                caps[0] = 1
            opt_rev, _ = brute_force_blocks(inst, blocks, caps)
            res = assort_mnl_capacitated(inst, None, 0.02, variant="partitioned",
                                         blocks=blocks, caps=caps)
            assert res.revenue == pytest.approx(opt_rev, rel=1e-12)
            for b, cap in zip(blocks, caps):
                assert len(res.assortment.items & set(b)) <= cap

    def test_no_success_returns_feasible_start(self):
        # no set earns more than 0, so the certificate has no witness and
        # proves no K_lo; the answer must still meet the variant's
        # constraints, and its bracket starts at 0
        inst = Instance([.01, .005, .004], [0.0] * 3, 1.0)
        for C, variant, kwargs, size in [(3, "lb", {"c_min": 2}, (2, 3)),
                                         (3, "topc", {}, (0, 3)),
                                         (None, "partitioned",
                                          {"blocks": [[1, 2, 3]], "caps": [0]}, (0, 0))]:
            res = assort_mnl_capacitated(inst, C, 1.0, variant, **kwargs)
            assert size[0] <= len(res.assortment) <= size[1] and res.revenue == 0.0
            assert res.revenue_interval[0] == 0.0 < res.revenue_interval[1]
            assert res.iterations >= 1

    @pytest.mark.parametrize("c_min", [4, 9])
    def test_topc_start_ignores_c_min(self, c_min):
        # topc has no minimum size, so it ignores c_min whatever it is; a
        # minimum of c_min would break |A| <= C or name items beyond n
        inst = Instance([1.0, 0.5, 0.4, 0.3, 0.2], [0.5] * 5, 1.0)
        res = assort_mnl_capacitated(inst, 2, 1.0, "topc", c_min=c_min)
        assert res.assortment.items == {1, 2}
        assert _answer(res) == _answer(assort_mnl_capacitated(inst, 2, 1.0))

    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0])
    def test_bounds_checked_without_comparisons(self, eps):
        # C, c_min, blocks and caps are checked on entry, whatever eps is
        inst = Instance([1.0, 0.5], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="c_min"):
            assort_mnl_capacitated(inst, 1, eps, "lb", c_min=2)
        with pytest.raises(ValueError, match="c_min"):
            assort_mnl_capacitated(inst, 2, eps, "lb", c_min=-1)
        for C in (0, 3):
            with pytest.raises(ValueError, match="capacity"):
                assort_mnl_capacitated(inst, C, eps)
            with pytest.raises(ValueError, match="capacity"):
                assort_mnl_capacitated(inst, C, eps, "lb", c_min=0)
        for blocks, caps, match in [([[1, 2]], [-1], "non-negative"),
                                    ([[1]], [1], "cover"),
                                    ([[1], [1, 2]], [1, 1], "overlap"),
                                    ([[1, 3]], [1], "outside"),
                                    ([[1, 1.5, 2]], [1], "non-integer"),
                                    ([[1], ["2"]], [1, 1], "non-integer"),
                                    ([[[1, 2]]], [1], "non-integer"),
                                    ([[1, 2]], [1, 1], "one capacity")]:
            with pytest.raises(ValueError, match=match):
                assort_mnl_capacitated(inst, None, eps, "partitioned",
                                       blocks=blocks, caps=caps)

    def test_blocks_checked_once_per_solve(self, monkeypatch):
        calls = []
        check = solvers._partitioned_compare
        monkeypatch.setattr(solvers, "_partitioned_compare",
                            lambda *args: calls.append(args) or check(*args))
        inst = random_instance(np.random.default_rng(3), 9)
        res = assort_mnl_capacitated(inst, None, 1e-3, variant="partitioned",
                                     blocks=[[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                                     caps=[1, 2, 1])
        assert res.iterations >= 2 and len(calls) == 1

    def test_unknown_variant(self, e1):
        with pytest.raises(ValueError, match="variant"):
            assort_mnl_capacitated(e1, 2, 0.1, variant="bogus")

    def test_solves_are_pinned_where_few_items_beat_K(self):
        # near the optimum (about 0.99 p1) the items priced above K are
        # about 1% of the catalog
        h = hashlib.sha256()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, 20_000, price_hi=1000.0)
            blocks = np.array_split(rng.permutation(inst.n) + 1, 4)
            for res in (assort_mnl_capacitated(inst, 50, 0.1),
                        assort_mnl_capacitated(inst, 50, 0.1, "lb", c_min=10),
                        assort_mnl_capacitated(inst, None, 0.1, "partitioned",
                                               blocks=blocks, caps=[20, 5, 15, 10])):
                h.update(repr((sorted(res.assortment.items), res.revenue,
                               res.revenue_interval, res.iterations)).encode())
        assert h.hexdigest() == _PINNED_PREFIX_SOLVES_SHA256

    @pytest.mark.parametrize("seed", sorted(_PINNED_BENCHMARK_SOLVES_SHA256))
    def test_benchmark_catalog_solves_are_pinned(self, seed):
        h = hashlib.sha256()
        catalog, _ = generate_instance(GenSpec(n=100_000, seed=seed))
        blocks = np.array_split(np.random.default_rng(seed).permutation(catalog.n) + 1, 4)
        for i in range(20):
            weights = np.random.default_rng([seed, i]).uniform(0.0, 1.0, catalog.n)
            inst = Instance(catalog.prices, weights, catalog.v0)
            for res in (assort_mnl_capacitated(inst, 50, 0.1),
                        assort_mnl_capacitated(inst, 50, 0.1, "lb", c_min=10),
                        assort_mnl_capacitated(inst, None, 0.1, "partitioned",
                                               blocks=blocks, caps=[20, 5, 15, 10])):
                lo, hi = res.revenue_interval
                h.update(repr((sorted(res.assortment.items), res.revenue.hex(),
                               lo.hex(), hi.hex(), res.iterations)).encode())
        assert h.hexdigest() == _PINNED_BENCHMARK_SOLVES_SHA256[seed]

    def test_large_instance_is_fast(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 20_000, price_hi=1000.0)
        for variant, c_min in [("topc", 0), ("lb", 10)]:
            res = assort_mnl_capacitated(inst, 50, 0.1, variant, c_min=c_min)
            assert res.wall_time < 1.0
            assert c_min <= len(res.assortment) <= 50


def _answer(res):
    """What a solve returns, but its timing."""
    return (sorted(res.assortment.items), res.revenue, res.revenue_interval,
            res.iterations)


def _feasible(assortment, C, c_min, blocks, caps):
    if blocks is None:
        return c_min <= len(assortment) <= C
    return all(len(assortment.items & set(b)) <= cap for b, cap in zip(blocks, caps))


def hostile_case(rng, variant):
    """An instance and solve arguments built to meet rounding at its
    edges: integer prices with ties and p1 = 8, so that bisection
    thresholds land on prices, zero weights, (weights, v0) scaled by
    2^-30 or 2^30, caps of 0 and c_min = C.  Returns the instance, the
    positional and keyword solve arguments and the features it has."""
    n = int(rng.integers(10, 300))
    if rng.random() < 0.5:
        prices = np.sort(rng.integers(0, 9, n))[::-1].astype(float)
        prices[0] = 8.0
        weights, v0 = rng.integers(0, 3, n).astype(float), float(rng.integers(1, 3))
        has = {"integer"}
    else:
        inst = random_instance(rng, n)
        prices, weights, v0 = inst.prices, inst.weights.copy(), inst.v0
        weights[rng.random(n) < 0.2] = 0.0
        has = {"zero weight"}
    scale = 2.0 ** float(rng.choice([-30, 0, 30]))
    has |= {"scaled"} if scale != 1.0 else set()
    inst = Instance(prices, weights * scale, v0 * scale)
    eps = inst.p1 * float(rng.choice([2.0 ** -12, 1e-3, 0.3]))
    if variant == "partitioned":
        cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, 5)), replace=False))
        blocks = [b.tolist() for b in np.split(rng.permutation(n) + 1, cuts)]
        caps = [int(rng.integers(0, 4)) for _ in blocks]
        has |= {"zero cap"} if 0 in caps else set()
        return inst, (None, eps, variant), {"blocks": blocks, "caps": caps}, has
    C = int(rng.integers(1, 6))
    c_min = 0
    if variant == "lb":
        c_min = C if rng.random() < 0.3 else int(rng.integers(0, C + 1))
        has |= {"c_min = C"} if c_min == C else set()
    return inst, (C, eps, variant), {"c_min": c_min}, has


def reference_solve(inst, C, eps, variant, c_min=0, blocks=None, caps=None):
    """The eps-optimal bisection on revenue, the reference a certified
    solve must match or beat, with every comparison its own full read of
    every block, zero caps included, by :func:`full_margin_compare`: the answer,
    as :func:`_answer` gives it, and every state's (lower, upper, sorted
    best items, iteration), best the witness of the last "yes"."""
    if variant == "partitioned":
        spec = [(np.array(b) - 1, cap, 0) for b, cap in zip(blocks, caps)]
        best = Assortment()
    else:
        lo = c_min if variant == "lb" else 0
        spec, best = [(None, C, lo)], Assortment(range(1, max(1, lo) + 1))
    lower, upper, states = 0.0, inst.p1, []
    while upper - lower > eps:
        K = 0.5 * (lower + upper)
        exists, witness = full_margin_compare(inst, spec, K)
        if exists:
            lower, best = K, witness
        else:
            upper = K
        states.append((lower, upper, sorted(best.items), len(states) + 1))
    return (sorted(best.items), revenue(best, inst), (lower, upper), len(states)), states


class TestPrefixAccept:
    """The states a capacitated solve reports, one per selection, and the
    read that settles its answer; the certificate's start selection reads
    the top solvers._START_WIDTH · sum(caps) items by price, and every
    later one the whole catalog."""

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_early_accept_never_changes_an_answer(self, variant, monkeypatch):
        # at each threshold the reference bisection asks at or below the
        # certificate's K_lo, its full read says "yes", as the certificate
        # does; the solve earns at least the reference's revenue
        rng = np.random.default_rng({"topc": 60, "lb": 61, "partitioned": 62}[variant])
        made, hit = record_certificates(monkeypatch), set()
        for _ in range(150):
            inst, args, kwargs, has = hostile_case(rng, variant)
            want, want_states = reference_solve(inst, *args, **kwargs)
            made.clear()
            res = assort_mnl_capacitated(inst, *args, **kwargs)
            assert res.revenue >= want[1]
            brackets = [w[:2] for w in want_states]
            proved = [(K, lo) for K, (lo, _) in zip(_thresholds(inst, brackets), brackets)
                      if K <= made[0][0]]
            assert all(K == lo for K, lo in proved)  # the reference said "yes"
            if proved:
                hit |= has | {"early accept"}
                if proved[-1][0] == want[2][0]:
                    hit.add("settled")
                if any(K in inst.prices for K, _ in proved):
                    hit.add("K on a price")
        expected = {"early accept", "settled", "K on a price", "integer", "zero weight",
                    "scaled"} | {"lb": {"c_min = C"}, "partitioned": {"zero cap"}}.get(
                        variant, set())
        assert hit == expected

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_every_state_certifies_its_bound(self, variant):
        # each state's set is feasible and earns at least its lower bound,
        # and its bracket holds the exact optimum
        rng = np.random.default_rng({"topc": 63, "lb": 64, "partitioned": 65}[variant])
        for _ in range(100):
            inst, args, kwargs, _ = hostile_case(rng, variant)
            states = []
            res = assort_mnl_capacitated(inst, *args, on_iteration=states.append, **kwargs)
            C = args[0]
            optimum = solve_optimum(inst, res, C, variant, **kwargs)
            assert [s.iteration for s in states] == list(range(1, res.iterations + 1))
            for s in states:
                assert _feasible(s.best, C, kwargs.get("c_min", 0),
                                 kwargs.get("blocks"), kwargs.get("caps"))
                assert revenue(s.best, inst) >= s.lower
                assert s.lower <= optimum <= s.upper

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_last_state_is_the_returned_assortment(self, variant):
        # a state's best is the set the solve would return if it stopped there
        rng = np.random.default_rng({"topc": 73, "lb": 74, "partitioned": 75}[variant])
        for _ in range(300):
            inst, args, kwargs, _ = hostile_case(rng, variant)
            states = []
            res = assort_mnl_capacitated(inst, *args, on_iteration=states.append, **kwargs)
            assert states[-1].best == res.assortment

    def test_wall_time_covers_the_settling_read(self, monkeypatch):
        # the certificate's last full read, at the witness's own revenue,
        # settles the answer; no read follows it, and wall_time covers it
        inst = random_instance(np.random.default_rng(23), 20_000, price_hi=1000.0)
        read, calls = solvers._compare_items, []
        made = record_certificates(monkeypatch)

        def slow_read(inst, blocks, K, by_position):
            calls.append(K)
            time.sleep(0.05)
            return read(inst, blocks, K, by_position)

        monkeypatch.setattr(solvers, "_compare_items", slow_read)
        res = assort_mnl_capacitated(inst, 50, inst.p1 / 8)
        assert len(calls) >= 2 and calls[-1] == solvers._revenue_of(inst, made[0][2])
        assert res.wall_time >= 0.05 * len(calls)


class TestZeroCapBlocks:
    """A block of cap 0 selects nothing and adds 0.0, so no read visits it."""

    @staticmethod
    def _cases():
        for seed in (1708, 7):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, 20_000, price_hi=1000.0)
            blocks = np.array_split(rng.permutation(inst.n) + 1, 4)
            for caps in ([20, 0, 15, 0], [0, 0, 0, 0]):
                yield inst, blocks, caps

    def test_solves_and_states_are_pinned(self):
        h = hashlib.sha256()
        for inst, blocks, caps in self._cases():
            for eps in (0.1, inst.p1 / 8):
                states = []
                res = assort_mnl_capacitated(inst, None, eps, "partitioned", blocks=blocks,
                                             caps=caps, on_iteration=states.append)
                h.update(repr((sorted(res.assortment.items), res.revenue,
                               res.revenue_interval, res.iterations)).encode())
                for s in states:
                    h.update(repr((s.lower, s.upper, sorted(s.best.items),
                                   s.iteration)).encode())
                if not any(caps):  # nothing is ever selected: the empty set
                    assert res.assortment == Assortment() and res.revenue == 0.0
                    assert res.revenue_interval[0] == 0.0 and res.iterations > 0
                    assert all(len(s.best) == 0 for s in states)
        assert h.hexdigest() == _PINNED_ZERO_CAP_SHA256

    def test_comparisons_match_the_full_read_and_skip_zero_caps(self, monkeypatch):
        selected, largest = [], solvers._largest
        monkeypatch.setattr(solvers, "_largest",
                            lambda w, idx, k: selected.append(k) or largest(w, idx, k))
        for inst, blocks, caps in self._cases():
            spec = [(b - 1, cap, 0) for b, cap in zip(blocks, caps)]
            for K in (0.0, 500.0, 900.0, 970.0, float(inst.prices[30]), inst.p1):
                selected.clear()
                got = compare(K, inst, blocks=blocks, caps=caps)
                assert 0 not in selected and len(selected) == np.count_nonzero(caps)
                assert got == full_margin_compare(inst, spec, K)


def record_certificates(monkeypatch):
    """Patch the certificate to list each (K_lo, K_hi, witness, selections)
    it returns."""
    made, certificate = [], solvers._certificate
    monkeypatch.setattr(solvers, "_certificate",
                        lambda *args: made.append(certificate(*args)) or made[-1])
    return made


def _thresholds(inst, brackets):
    """The threshold a bisection asked at to reach each (lower, upper)."""
    brackets = [(0.0, inst.p1)] + list(brackets)
    return [0.5 * (lo + hi) for lo, hi in brackets[:-1]]


# the most mean selections per solve that test_selections_stay_few allows,
# per (n, C), as recorded when the certificate began from one start
# selection over the top 8k items; its parent made 4.54, 5.62, 4.56, 5.70
# and 5.90 on the same customers
_MOST_SELECTIONS = {(10_000, 10): 2.96, (10_000, 50): 4.16, (100_000, 10): 3.16,
                    (100_000, 50): 3.32, (100_000, 200): 4.80}


class TestCertifiedBracket:
    """A solve returns Dinkelbach's optimum with its proven bounds: the
    full read answers every K <= K_lo "yes" and every K >= K_hi "no"."""

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_certificate_is_the_brute_force_optimum(self, variant):
        # about criterion 3's shapes: n = 4..15, C = 2..5 with c_min = 1..C,
        # or three blocks of consecutive items with caps 1..2
        rng = np.random.default_rng({"topc": 70, "lb": 71, "partitioned": 72}[variant])
        for _ in range(60):
            n = int(rng.integers(4, 16))
            inst = random_instance(rng, n)
            C = int(rng.integers(2, min(n, 5) + 1))
            c_min = int(rng.integers(1, C + 1))
            blocks = [b.tolist() for b in np.array_split(np.arange(1, n + 1), 3)]
            caps = [int(rng.integers(1, 3)) for _ in blocks]
            if variant == "topc":
                opt, size = brute_force_capacitated(inst, C).revenue, (0, C)
            elif variant == "lb":
                opt, size = brute_force_size_range(inst, c_min, C)[0], (c_min, C)
            else:
                opt, size = brute_force_blocks(inst, blocks, caps)[0], None
            spec, by_position = solve_spec(inst, C, variant, c_min, blocks, caps)
            K_lo, K_hi, items, _ = solvers._certificate(inst, spec, by_position)
            witness = Assortment(items + 1)
            if size is None:
                assert _feasible(witness, None, 0, blocks, caps)
            else:
                assert _feasible(witness, size[1], size[0], None, None)
            assert revenue(witness, inst) == pytest.approx(opt, rel=1e-13)
            assert opt * (1 - 1e-12) <= K_lo < K_hi <= opt * (1 + 1e-12)
            # the bounds are what the full read answers at them
            assert solvers._compare_items(inst, spec, K_lo, by_position)[0] is True
            assert solvers._compare_items(inst, spec, K_hi, by_position)[0] is False

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_solve_brackets_contain_the_certificate_at_scale(self, variant):
        # n = 10^5: the solve's bracket is the certificate's, about 1e-12
        # wide, and the full read answers "yes" at K_lo and "no" at K_hi
        for seed in range(3):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, 100_000, price_hi=1000.0)
            blocks = np.array_split(rng.permutation(inst.n) + 1, 4)
            res = assort_mnl_capacitated(inst, None if variant == "partitioned" else 50,
                                         0.1, variant, c_min=10, blocks=blocks,
                                         caps=[20, 5, 15, 10])
            lower, upper = res.revenue_interval
            assert 0 < upper - lower <= 1e-9 * lower and res.revenue >= lower
            spec, by_position = solve_spec(inst, 50, variant, 10, blocks, [20, 5, 15, 10])
            assert solvers._compare_items(inst, spec, lower, by_position)[0] is True
            assert solvers._compare_items(inst, spec, upper, by_position)[0] is False

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_certified_answers_equal_full_reads(self, variant, monkeypatch):
        # at every threshold the reference bisection asks, the certificate's
        # answer, where it gives one, is the reference's full read; the solve
        # answers alike with and without on_iteration, and earns at least
        # the reference's revenue
        rng = np.random.default_rng({"topc": 73, "lb": 74, "partitioned": 75}[variant])
        made, hit = record_certificates(monkeypatch), set()
        for _ in range(300):
            inst, args, kwargs, has = hostile_case(rng, variant)
            want, want_states = reference_solve(inst, *args, **kwargs)
            made.clear()
            res = assort_mnl_capacitated(inst, *args, **kwargs)
            states = []
            traced = assort_mnl_capacitated(inst, *args, on_iteration=states.append, **kwargs)
            assert _answer(res) == _answer(traced) and res.revenue >= want[1]
            assert len(made) == 2 and made[0][:2] == made[1][:2]
            hit |= has
            K_lo, K_hi, items, _ = made[0]
            optimum = revenue(Assortment(items + 1), inst)
            brackets = [w[:2] for w in want_states]
            for K, (lo, _) in zip(_thresholds(inst, brackets), brackets):
                if K <= K_lo:
                    assert K == lo
                    hit.add("certified yes")
                elif K >= K_hi:
                    assert K != lo
                    hit.add("certified no")
                else:
                    hit.add("in-band read")
                hit |= {"K on R*"} if K == optimum else set()
                hit |= {"K on a price"} if K in inst.prices else set()
        features = {"lb": {"c_min = C"}, "partitioned": {"zero cap"}}.get(variant, set())
        assert hit == {"certified yes", "certified no", "in-band read", "K on R*",
                       "K on a price", "integer", "zero weight", "scaled"} | features

    def test_reads_count_the_certificate_and_one_settling_read(self, monkeypatch):
        # the margins each selection hands to _largest, as the per-step test
        # counts them: the start selection over the top 8C items, then three
        # full reads, the last of which settles the answer; on_iteration adds
        # no read.  The parent of the one-start change made five selections:
        # three of 100 from the top 2C items, then full reads of 530 and 503
        inst = random_instance(np.random.default_rng(23), 20_000, price_hi=1000.0)
        reads, largest = [], solvers._largest

        def counted_largest(w, idx, k):
            if not any(w is seen for seen in reads):
                reads.append(w)
            return largest(w, idx, k)

        monkeypatch.setattr(solvers, "_largest", counted_largest)
        for variant, c_min in [("topc", 0), ("lb", 10)]:
            for trace in (None, []):
                reads.clear()
                res = assort_mnl_capacitated(inst, 50, 0.1, variant, c_min=c_min,
                                             on_iteration=None if trace is None
                                             else trace.append)
                assert res.iterations == 4
                assert [w.size for w in reads] == [400, 591, 506, 503]  # 2,000

    def test_selections_stay_few(self):
        # tools/cap_start_sweep.py's shapes and customers: one generated
        # catalog per n, 50 seeded customers, topc and lb with c_min = C // 5
        for (n, C), most in _MOST_SELECTIONS.items():
            catalog, _ = generate_instance(GenSpec(n=n, seed=1708))
            selections = []
            for i in range(50):
                weights = np.random.default_rng([1708, i]).uniform(0.0, 1.0, n)
                inst = Instance(catalog.prices, weights, catalog.v0)
                selections += [assort_mnl_capacitated(inst, C, 0.1, variant,
                                                      c_min=C // 5).iterations
                               for variant in ("topc", "lb")]
            assert sum(selections) / len(selections) <= most, (n, C)

    def test_wall_time_covers_the_certificate(self, monkeypatch):
        inst = random_instance(np.random.default_rng(23), 20_000, price_hi=1000.0)
        read, calls = solvers._compare_items, []
        made = record_certificates(monkeypatch)

        def slow_read(*args):
            calls.append(len(made))
            time.sleep(0.02)
            return read(*args)

        monkeypatch.setattr(solvers, "_compare_items", slow_read)
        res = assort_mnl_capacitated(inst, 50, 0.1)
        # every read is the certificate's, before it returns
        assert len(made) == 1 and calls.count(0) == len(calls) >= 1
        assert res.wall_time >= 0.02 * len(calls)

    def test_every_solve_computes_one_certificate(self, monkeypatch):
        # eps shapes nothing: an eps at or above p1, or a top price of 0,
        # still gets the certified optimum
        made = record_certificates(monkeypatch)
        inst = random_instance(np.random.default_rng(4), 50)
        answers = set()
        for eps in (inst.p1, 2 * inst.p1, 0.99 * inst.p1, 1e-9):
            made.clear()
            res = assort_mnl_capacitated(inst, 5, eps)
            assert len(made) == 1 and res.iterations == made[0][3] >= 2
            answers.add(repr(_answer(res)))
        assert len(answers) == 1
        free = Instance(np.zeros(4), np.ones(4), 1.0)  # p1 = 0: every set earns 0
        res = assort_mnl_capacitated(free, 2, 0.1, "lb", c_min=1)
        assert 1 <= len(res.assortment) <= 2 and res.revenue == 0.0
        assert res.revenue_interval[0] == 0.0

    @pytest.mark.parametrize("variant", ["topc", "lb", "partitioned"])
    def test_no_threshold_is_read_twice(self, variant, monkeypatch):
        # Newton's iterates rise, so each full read is at a new K, and a
        # traced solve reads exactly what an untraced one does
        rng = np.random.default_rng({"topc": 73, "lb": 74, "partitioned": 75}[variant])
        read, reads = solvers._compare_items, []
        monkeypatch.setattr(solvers, "_compare_items",
                            lambda *args: reads.append(args[2]) or read(*args))
        for _ in range(300):
            inst, args, kwargs, _ = hostile_case(rng, variant)
            seen = []
            for trace in (None, []):
                reads.clear()
                res = assort_mnl_capacitated(inst, *args, **kwargs, on_iteration=(
                    None if trace is None else trace.append))
                assert len(set(reads)) == len(reads) >= 1
                seen.append(list(reads))
                assert not trace or trace[-1].best == res.assortment
            assert seen[0] == seen[1]
