import itertools

import numpy as np
import pytest

from assortmax import (Assortment, Instance, assort_mnl_capacitated,
                       brute_force_capacitated, compare_step_capacitated,
                       compare_step_capacitated_lb, compare_step_partitioned,
                       revenue)
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


class TestCompareLowerBound:
    def test_forced_inclusion_hand_example(self, e1):
        exists, witness = compare_step_capacitated_lb(6.0, e1, 2, 2)
        assert not exists and witness.items == {1, 2}

    def test_cmin_zero_reduces_to_plain(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            inst = random_instance(rng, 8)
            C = int(rng.integers(1, 8))
            K = float(rng.uniform(0, inst.p1))
            plain = compare_step_capacitated(K, inst, C)
            lb = compare_step_capacitated_lb(K, inst, C, 0)
            assert plain[0] == lb[0] and plain[1] == lb[1]

    def test_all_negative_margins_picks_least_negative(self, e1):
        exists, witness = compare_step_capacitated_lb(20.0, e1, 2, 1)
        assert not exists
        w = e1.weights * (e1.prices - 20.0)
        assert witness.items == {int(np.argmax(w)) + 1}

    def test_cmin_above_capacity_rejected(self, e1):
        with pytest.raises(ValueError, match="c_min"):
            compare_step_capacitated_lb(1.0, e1, 1, 2)


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

    def test_non_partition_rejected(self, e1):
        with pytest.raises(ValueError, match="partition"):
            compare_step_partitioned(1.0, e1, [[1], [1, 2, 3]], [1, 1])
        with pytest.raises(ValueError, match="partition"):
            compare_step_partitioned(1.0, e1, [[1], [2]], [1, 1])


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

    def test_large_instance_is_fast(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, 20_000, price_hi=1000.0)
        res = assort_mnl_capacitated(inst, 50, 0.1)
        assert res.wall_time < 1.0
        assert len(res.assortment) <= 50
