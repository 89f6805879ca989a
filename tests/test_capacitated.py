import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from assortmax import (Assortment, Instance, assort_mnl_capacitated,
                       brute_force_capacitated, revenue)
from assortmax import solvers
from assortmax.solvers import compare_step_capacitated, compare_step_partitioned

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


# sorted items, revenue, bracket and iterations of 15 solves at n=20000,
# recorded with the full-margin comparison, before it read only the prefix
_PINNED_PREFIX_SOLVES_SHA256 = (
    "a9699f15eabd83eaee8ed7c11719c65cc8abd93d2984386358de8b60aab24d34")


class TestCompareCapacitated:
    def test_exists_hand_example(self, e1):
        exists, witness = compare_step_capacitated(3.0, e1, 2)
        assert exists and witness.items == {1, 2}

    def test_not_exists_hand_example(self, e1):
        exists, witness = compare_step_capacitated(4.0, e1, 2)
        assert not exists
        assert witness.items == {1, 2}  # top-2 positive margins regardless

    def test_threshold_above_top_price(self, e1):
        exists, witness = compare_step_capacitated(12.0, e1, 2)
        assert not exists and len(witness) == 0

    def test_capacity_bounds_checked(self, e1):
        with pytest.raises(ValueError, match="capacity"):
            compare_step_capacitated(1.0, e1, 0)
        with pytest.raises(ValueError, match="capacity"):
            compare_step_capacitated(1.0, e1, 4)

    def test_witness_maximizes_margin_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            inst = random_instance(rng, 9)
            C = int(rng.integers(1, 9))
            K = float(rng.uniform(0, inst.p1))
            _, witness = compare_step_capacitated(K, inst, C)
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
            got = compare_step_capacitated(K, inst, C, c_min)
            assert got == full_margin_compare(inst, [(None, C, c_min)], K)
            # blocks in shuffled order, with their items in shuffled order
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)),
                                      replace=False))
            arrs = np.split(rng.permutation(n), cuts)
            caps = [int(rng.integers(0, len(b) + 2)) for b in arrs]
            got = compare_step_partitioned(K, inst, [b + 1 for b in arrs], caps)
            assert got == full_margin_compare(inst, [(b, cap, 0) for b, cap in
                                                     zip(arrs, caps)], K)
            # no variant gives an explicit block a c_min; the comparison
            # still tops such a block up from its own items
            spec = [(b, cap, int(rng.integers(0, min(cap, b.size) + 1)))
                    for b, cap in zip(arrs, caps)]
            assert solvers._compare_blocks(inst, spec, K) == full_margin_compare(inst, spec, K)
        assert hit == {"price", "p1", "above", "negative", "nan", "uniform", "top-up"}

    def test_one_comparison_stays_in_small_buffers(self):
        # n = 10^5 with about 2000 items priced above K = 980: the full
        # margins and their masks alone would take 800 KB and more
        inst = random_instance(np.random.default_rng(24), 100_000, price_hi=1000.0)
        assert 1500 < np.count_nonzero(inst.prices > 980.0) < 2500
        tracemalloc.start()
        try:
            compare_step_capacitated(980.0, inst, 50)
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
                exists, witness = compare_step_partitioned(K, inst, blocks, caps)
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
                exists, witness = compare_step_capacitated(K, inst, C, c_min)
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
        exists, witness = compare_step_capacitated(6.0, e1, 2, 2)
        assert not exists and witness.items == {1, 2}

    def test_cmin_zero_reduces_to_plain(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            inst = random_instance(rng, 8)
            C = int(rng.integers(1, 8))
            K = float(rng.uniform(0, inst.p1))
            plain = compare_step_capacitated(K, inst, C)
            lb = compare_step_capacitated(K, inst, C, 0)
            assert plain[0] == lb[0] and plain[1] == lb[1]

    def test_all_negative_margins_picks_least_negative(self, e1):
        exists, witness = compare_step_capacitated(20.0, e1, 2, 1)
        assert not exists
        w = e1.weights * (e1.prices - 20.0)
        assert witness.items == {int(np.argmax(w)) + 1}

    def test_cmin_above_capacity_rejected(self, e1):
        with pytest.raises(ValueError, match="c_min"):
            compare_step_capacitated(1.0, e1, 1, 2)


class TestComparePartitioned:
    def test_single_block_equals_plain(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            inst = random_instance(rng, 7)
            C = int(rng.integers(1, 7))
            K = float(rng.uniform(0, inst.p1))
            plain = compare_step_capacitated(K, inst, C)
            part = compare_step_partitioned(K, inst, [range(1, 8)], [C])
            assert plain[0] == part[0] and plain[1] == part[1]

    def test_hand_example(self, e1):
        exists, witness = compare_step_partitioned(3.0, e1, [[1], [2, 3]], [1, 1])
        assert exists and witness.items == {1, 2}

    def test_zero_caps(self, e1):
        exists, witness = compare_step_partitioned(1.0, e1, [[1], [2, 3]], [0, 0])
        assert not exists and len(witness) == 0
        exists, _ = compare_step_partitioned(0.0, e1, [[1], [2, 3]], [0, 0])
        assert exists  # zero threshold is met by the empty selection

    def test_block_item_types(self, e1):
        # whole numbers of any numeric type name items; fractions do not
        blocks = [np.array([1], dtype=np.uint8), (2.0, 3), range(0)]
        want = compare_step_partitioned(3.0, e1, [[1], [2, 3], []], [1, 1, 0])
        assert compare_step_partitioned(3.0, e1, blocks, [1, 1, 0]) == want
        with pytest.raises(ValueError, match="non-integer"):
            compare_step_partitioned(3.0, e1, [[1], [2.5, 3]], [1, 1])
        with pytest.raises(ValueError, match="non-integer"):
            compare_step_partitioned(3.0, e1, [[1], [np.nan, 2, 3]], [1, 1])

    def test_non_partition_rejected(self, e1):
        with pytest.raises(ValueError, match="partition"):
            compare_step_partitioned(1.0, e1, [[1], [1, 2, 3]], [1, 1])
        with pytest.raises(ValueError, match="partition"):
            compare_step_partitioned(1.0, e1, [[1], [2]], [1, 1])


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
            assert res.revenue >= opt.revenue - 0.05 - 1e-12
            assert res.revenue <= opt.revenue + 1e-12
            assert len(res.assortment) <= C

    def test_lb_variant_matches_size_range_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            inst = random_instance(rng, 8)
            C = int(rng.integers(2, 6))
            c_min = int(rng.integers(1, C + 1))
            opt_rev, _ = brute_force_size_range(inst, c_min, C)
            res = assort_mnl_capacitated(inst, C, 0.02, variant="lb", c_min=c_min)
            assert res.revenue >= opt_rev - 0.02 - 1e-12
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
            assert res.revenue >= opt_rev - 0.02 - 1e-12
            for b, cap in zip(blocks, caps):
                assert len(res.assortment.items & set(b)) <= cap

    def test_no_success_returns_feasible_start(self):
        # every revenue is below eps, so no comparison runs; the answer must
        # still meet the variant's constraints, not fall back to {1}
        inst = Instance([.01, .005, .004], [.1] * 3, 1.0)
        res = assort_mnl_capacitated(inst, 3, 1.0, "lb", c_min=2)
        assert res.assortment.items == {1, 2} and res.iterations == 0
        assert assort_mnl_capacitated(inst, 3, 1.0).assortment.items == {1}
        res = assort_mnl_capacitated(inst, None, 1.0, variant="partitioned",
                                     blocks=[[1, 2, 3]], caps=[0])
        assert len(res.assortment) == 0 and res.revenue == 0.0

    @pytest.mark.parametrize("c_min", [4, 9])
    def test_topc_start_ignores_c_min(self, c_min):
        # topc has no minimum size, so its start set is {1} whatever c_min
        # is; {1..c_min} would break |A| <= C or name items beyond n
        inst = Instance([1.0, 0.5, 0.4, 0.3, 0.2], [0.5] * 5, 1.0)
        res = assort_mnl_capacitated(inst, 2, 1.0, "topc", c_min=c_min)
        assert res.assortment.items == {1} and res.iterations == 0

    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0])
    def test_bounds_checked_without_comparisons(self, eps):
        # eps >= p1 runs no comparison; C and c_min must still be rejected
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
        assert res.iterations >= 10 and len(calls) == 1

    def test_unknown_variant(self, e1):
        with pytest.raises(ValueError, match="variant"):
            assort_mnl_capacitated(e1, 2, 0.1, variant="bogus")

    def test_solves_are_pinned_where_few_items_beat_K(self):
        # recorded before the comparison read only the items priced above K;
        # near the optimum (about 0.99 p1) that is about 1% of the catalog
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

    def test_large_instance_is_fast(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 20_000, price_hi=1000.0)
        for variant, c_min in [("topc", 0), ("lb", 10)]:
            res = assort_mnl_capacitated(inst, 50, 0.1, variant, c_min=c_min)
            assert res.wall_time < 1.0
            assert c_min <= len(res.assortment) <= 50
