import numpy as np
import pytest

from assortmax import (Assortment, AssortmentCollection, Instance,
                       brute_force_capacitated, exhaustive_search, revenue)

from conftest import random_instance


class TestExhaustive:
    def test_all_subsets_of_e1(self, e1, e1_all):
        res = exhaustive_search(e1_all, e1)
        assert res.assortment.items == {1, 2, 3}
        assert res.revenue == pytest.approx(3.6667, abs=1e-4)

    def test_singleton_collection(self, e1):
        coll = AssortmentCollection([{2, 3}], n=3)
        res = exhaustive_search(coll, e1)
        assert res.assortment.items == {2, 3}
        assert res.revenue == pytest.approx(revenue(Assortment({2, 3}), e1))

    def test_tie_returns_lower_index(self):
        inst = Instance([2.0, 2.0], [0.5, 0.5], 1.0)
        coll = AssortmentCollection([{2}, {1}, {1, 2}], n=2)
        res = exhaustive_search(coll, inst)
        # {1,2} has higher revenue; between equal {2} and {1}, index 0 wins
        assert res.assortment.items == {1, 2}
        coll2 = AssortmentCollection([{2}, {1}], n=2)
        assert exhaustive_search(coll2, inst).assortment.items == {2}

    def test_rejects_collection_over_other_items(self):
        # a 3-item collection must not be scored against a 5-item instance
        inst = Instance([5.0, 4.0, 3.0, 2.0, 1.0], [0.5] * 5, 1.0)
        coll = AssortmentCollection([{1, 2}, {3}], n=3)
        with pytest.raises(ValueError, match="over 3 items but instance has 5"):
            exhaustive_search(coll, inst)

    def test_dominates_every_returned_set(self, e1, e1_all):
        opt = exhaustive_search(e1_all, e1)
        for a in e1_all:
            assert revenue(a, e1) <= opt.revenue + 1e-12


class TestBruteForceCapacitated:
    def test_hand_example(self, e1):
        res = brute_force_capacitated(e1, 2)
        assert res.assortment.items == {1, 2}
        assert res.revenue == pytest.approx(3.25)

    def test_zero_capacity(self, e1):
        res = brute_force_capacitated(e1, 0)
        assert len(res.assortment) == 0 and res.revenue == 0.0

    def test_full_capacity_equals_exhaustive(self, e1, e1_all):
        assert (brute_force_capacitated(e1, 3).revenue
                == pytest.approx(exhaustive_search(e1_all, e1).revenue))

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 26)
        with pytest.raises(ValueError, match="refusing"):
            brute_force_capacitated(inst, 3)

    def test_respects_capacity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            inst = random_instance(rng, 10)
            C = int(rng.integers(1, 6))
            res = brute_force_capacitated(inst, C)
            assert len(res.assortment) <= C

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_the_revenue_of_its_set(self, seed):
        # each subset is summed as revenue() sums it, bit for bit
        rng = np.random.default_rng(seed)
        for n in range(1, 13):
            inst = random_instance(rng, n)
            for C in range(n + 1):
                res = brute_force_capacitated(inst, C)
                assert res.revenue == revenue(res.assortment, inst)
                assert res.revenue_interval == (res.revenue, res.revenue)
