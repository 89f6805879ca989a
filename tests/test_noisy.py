import math
from functools import cached_property

import numpy as np
import pytest

from assortmax import (AssortmentCollection, GenSpec, Instance,
                       NoisyComparator, assort_mnl_bz, build_lsh_index,
                       embed_collection, exhaustive_search, generate_instance,
                       run_noisy_bisection)
from assortmax.noisy_search import (Posterior, bz_posterior_update,
                                    bz_rounds_needed, bz_sample_selection)


class TestPosterior:
    def test_uniform_init(self):
        post = Posterior.uniform(1.0, 0.1)
        assert post.bins == 10
        assert np.allclose(post.bin_mass, 0.1)

    def test_non_integral_bins_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Posterior.uniform(1.0, 0.3)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            Posterior.uniform(1.0, eps)

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Posterior(np.array([0.5, 0.2, 0.2, 0.2]), 0.25, 1.0)

    def test_median_interpolates(self):
        post = Posterior(np.array([0.25, 0.25, 0.25, 0.25]), 0.25, 1.0)
        assert post.median() == pytest.approx(0.5)
        post = Posterior(np.array([0.8, 0.2, 0.0, 0.0]), 0.25, 1.0)
        # 0.5 mass is reached at 0.5/0.8 of the first bin
        assert post.median() == pytest.approx(0.25 * 0.5 / 0.8)

    def test_median_at_exact_boundary(self):
        post = Posterior(np.array([0.3, 0.2, 0.2, 0.3]), 0.25, 1.0)
        assert post.median() == pytest.approx(0.5)


class TestSampleSelection:
    def test_uniform_four_bins(self):
        post = Posterior.uniform(1.0, 0.25)
        rng = np.random.default_rng(0)
        for _ in range(20):
            K, u = bz_sample_selection(post, rng)
            assert u == 3
            assert K == pytest.approx(0.5)  # left edge chosen w.p. 1

    def test_mass_concentrated_in_first_bin(self):
        post = Posterior(np.array([1.0, 0.0, 0.0, 0.0]), 0.25, 1.0)
        rng = np.random.default_rng(1)
        seen = {bz_sample_selection(post, rng)[0] for _ in range(200)}
        assert seen == {0.0, 0.25}

    def test_symmetric_posterior_hits_median_boundary(self):
        post = Posterior(np.array([0.3, 0.2, 0.2, 0.3]), 0.25, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            K, u = bz_sample_selection(post, rng)
            assert u == 3 and K == pytest.approx(0.5)


class TestPosteriorUpdate:
    def test_hand_factors_h1(self):
        post = Posterior.uniform(1.0, 0.25)
        up = bz_posterior_update(post, 2, 1, 0.1)
        assert up.bin_mass.tolist() == pytest.approx([0.05, 0.05, 0.45, 0.45])

    def test_hand_factors_h0_mirror(self):
        post = Posterior.uniform(1.0, 0.25)
        up = bz_posterior_update(post, 2, 0, 0.1)
        assert up.bin_mass.tolist() == pytest.approx([0.45, 0.45, 0.05, 0.05])

    def test_mass_conserved_random_updates(self):
        rng = np.random.default_rng(3)
        post = Posterior.uniform(1.0, 0.05)
        for _ in range(200):
            u = int(rng.integers(0, post.bins + 1))
            h = int(rng.integers(0, 2))
            post = bz_posterior_update(post, u, h, float(rng.uniform(0.05, 0.45)))
            assert abs(post.bin_mass.sum() - 1.0) <= 1e-9

    def test_boundary_updates_are_no_ops(self):
        post = Posterior(np.array([0.4, 0.3, 0.2, 0.1]), 0.25, 1.0)
        for u, h in ((0, 1), (4, 0)):
            up = bz_posterior_update(post, u, h, 0.2)
            assert np.allclose(up.bin_mass, post.bin_mass)

    def test_alpha_range_enforced(self):
        post = Posterior.uniform(1.0, 0.25)
        for alpha in (0.0, 0.5, 0.9, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                bz_posterior_update(post, 2, 1, alpha)
            asked = []  # the loop checks alpha before its first comparison
            with pytest.raises(ValueError, match="alpha"):
                run_noisy_bisection(1.0, 0.25, 3, alpha,
                                    lambda K: asked.append(K) or 0,
                                    np.random.default_rng(0))
            assert asked == []


class TestNoisyComparator:
    def test_noiseless_is_exact(self):
        nc = NoisyComparator(0.5, 0.0, seed=1)
        assert all(nc.compare(K) == int(K <= 0.5)
                   for K in (0.0, 0.3, 0.5, 0.7, 1.0))

    def test_above_target_never_errs(self):
        nc = NoisyComparator(0.4, 0.3, seed=2)
        assert all(nc.compare(0.9) == 0 for _ in range(300))

    def test_error_rate_matches(self):
        nc = NoisyComparator(0.8, 0.3, seed=3)
        draws = np.array([nc.compare(0.2) for _ in range(100_000)])
        assert np.mean(draws == 0) == pytest.approx(0.30, abs=0.01)

    def test_error_prob_validated(self):
        with pytest.raises(ValueError):
            NoisyComparator(0.5, 0.6, seed=0)

    def test_schedule_supported(self):
        nc = NoisyComparator(0.9, lambda j: 0.0 if j < 2 else 0.4, seed=4)
        assert nc.compare(0.1) == 1 and nc.compare(0.1) == 1
        flips = [nc.compare(0.1) for _ in range(2000)]
        assert 0.35 <= np.mean(np.array(flips) == 0) <= 0.45


class TestNoisyBisection:
    def test_noiseless_convergence(self):
        rounds = math.ceil(math.log2(1 / 0.1)) + 10
        for k in range(25):
            theta = float(np.random.default_rng(k).uniform(0.03, 0.97))
            nc = NoisyComparator(theta, 0.0, seed=k)
            _, median = run_noisy_bisection(1.0, 0.1, rounds, 0.1, nc.compare,
                                            np.random.default_rng(1000 + k))
            assert abs(median - theta) <= 0.1

    def test_posterior_concentrates_under_noise(self):
        theta = 0.63
        nc = NoisyComparator(theta, 0.1, seed=5)
        post, median = run_noisy_bisection(1.0, 0.1, 40, math.sqrt(0.1),
                                           nc.compare, np.random.default_rng(6))
        assert abs(median - theta) <= 0.1
        assert post.bin_mass.max() > 0.5

    def test_rounds_needed_formula(self):
        assert bz_rounds_needed(0.05, 0.1, 1.0, 0.04) == 15

    def test_failure_rate_within_bound_small(self):
        # reduced-trial version of the reliability bound check
        p_e, alpha = 0.1, math.sqrt(0.1)
        w = p_e / (2 * alpha) + (1 - p_e) / (2 * (1 - alpha))
        trials = 400
        for T in (10, 15):
            bound = (1 - 0.1) / 0.1 * w**T
            rng = np.random.default_rng(100 + T)
            failures = 0
            for _ in range(trials):
                theta = float(rng.uniform(0.05, 0.95))
                nc = NoisyComparator(theta, p_e, seed=int(rng.integers(2**31)))
                _, median = run_noisy_bisection(
                    1.0, 0.1, T, alpha, nc.compare,
                    np.random.default_rng(int(rng.integers(2**31))))
                failures += abs(median - theta) > 0.1
            assert failures / trials <= bound


class TestAssortMnlBz:
    def test_estimate_at_least_witness_revenue(self):
        inst, coll = generate_instance(GenSpec(n=12, num_sets=70, seed=30))
        res = assort_mnl_bz(coll, inst, inst.p1 / 10, rounds=12, alpha=0.3,
                            seed=7)
        assert res.estimate >= res.revenue - 1e-9
        assert res.iterations == 12

    def test_finds_near_optimal_revenue(self):
        hits = 0
        for trial in range(10):
            inst, coll = generate_instance(GenSpec(n=10, num_sets=50,
                                                   seed=200 + trial))
            opt = exhaustive_search(coll, inst)
            eps = inst.p1 / 10
            res = assort_mnl_bz(coll, inst, eps, rounds=25, alpha=0.3,
                                seed=trial)
            if abs(res.estimate - opt.revenue) <= 2 * eps:
                hits += 1
        assert hits >= 7  # noisy retrieval, but mostly on target

    def test_returns_member_when_item_one_earns_more(self):
        # {1} alone earns 3.33 but is not feasible; the only member earns 0.33
        inst = Instance([10.0, 8.0, 1.0], [0.5, 0.4, 0.5], 1.0)
        coll = AssortmentCollection([{3}], n=3)
        res = assort_mnl_bz(coll, inst, 1.0, rounds=6, alpha=0.3, seed=1)
        assert res.assortment.items == {3}
        assert res.estimate < 2.0

    def test_non_integral_bins_rejected(self):
        inst, coll = generate_instance(GenSpec(n=5, num_sets=10, seed=1))
        with pytest.raises(ValueError, match="integer"):
            assort_mnl_bz(coll, inst, inst.p1 / 10.5, rounds=5, alpha=0.3)

    def test_bad_eps_and_rounds_rejected(self):
        inst, coll = generate_instance(GenSpec(n=5, num_sets=10, seed=1))
        with pytest.raises(ValueError, match="eps must be positive"):
            assort_mnl_bz(coll, inst, 0.0, rounds=5, alpha=0.3)
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            assort_mnl_bz(coll, inst, inst.p1 / 10, rounds=-1, alpha=0.3)

    def test_zero_top_price_rejected(self):
        coll = AssortmentCollection([{1}, {2}], n=2)
        inst = Instance([0.0, 0.0], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="top price 0"):
            assort_mnl_bz(coll, inst, 0.0, rounds=5, alpha=0.3)

    def test_reproducible(self):
        inst, coll = generate_instance(GenSpec(n=8, num_sets=30, seed=9))
        a = assort_mnl_bz(coll, inst, inst.p1 / 10, rounds=8, alpha=0.3, seed=3)
        b = assort_mnl_bz(coll, inst, inst.p1 / 10, rounds=8, alpha=0.3, seed=3)
        assert a.assortment == b.assortment and a.estimate == b.estimate

    def test_rounds_share_one_packed_membership(self, monkeypatch):
        # every round builds a fresh index, but the collection's bit matrix
        # is packed once and reused by all of them
        packed = AssortmentCollection.packed_membership
        packs = []

        def counted(coll):
            packs.append(coll)
            return packed.func(coll)

        spy = cached_property(counted)
        spy.__set_name__(AssortmentCollection, "packed_membership")
        monkeypatch.setattr(AssortmentCollection, "packed_membership", spy)
        inst, generated = generate_instance(GenSpec(n=20, num_sets=300, seed=4))
        # built from lists, so the collection packs itself (a generated
        # catalog arrives packed)
        coll = AssortmentCollection(list(generated), n=20)
        res = assort_mnl_bz(coll, inst, inst.p1 / 10, rounds=15, alpha=0.3, seed=2)
        assert res.iterations == 15 and packs == [coll]
        first = coll.packed_membership
        build_lsh_index(embed_collection(coll, inst), seed=9)
        assert coll.packed_membership is first and packs == [coll]
