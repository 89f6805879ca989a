"""Paths the module suites never reach: every reachable check and branch
runs here at least once, and each error names its cause."""

import re

import numpy as np
import pytest

from assortmax import (Assortment, AssortmentCollection, BenchConfig, GenSpec,
                       Instance, LshMips, LshParams, NoisyComparator,
                       approx_iteration_bound, assort_mnl_bz,
                       assort_mnl_capacitated, brute_force_capacitated,
                       build_lsh_index, default_lsh_params, embed_collection,
                       generate_instance, load_index, load_itemsets, run_bench,
                       save_index)
from assortmax import bench
from assortmax.cli import main
from assortmax.mips import hash_key, simple_lsh_transform
from assortmax.noisy_search import (Posterior, bz_posterior_update,
                                    bz_rounds_needed)

E1 = Instance([10.0, 8.0, 5.0], [0.2, 0.4, 0.5], 1.0)


def _points(n: int, num_sets: int):
    inst, coll = generate_instance(GenSpec(n, num_sets=num_sets, seed=1))
    return embed_collection(coll, inst), inst


_ERRORS = {
    "bench runs": (lambda: BenchConfig(runs=0), "runs must be at least 1"),
    "bench unknown algorithm": (
        lambda: bench.solve("magic", E1, None, BenchConfig(), 0),
        "unknown algorithm 'magic'"),
    "genspec num_sets": (lambda: GenSpec(5, num_sets=0),
                         "num_sets must be positive when given"),
    "genspec price_range": (lambda: GenSpec(5, price_range=(2.0, 1.0)),
                            "price_range must satisfy lo <= hi"),
    "genspec v0": (lambda: GenSpec(5, v0=0.0), "v0 must be a positive finite number"),
    "genspec v0 nan": (lambda: GenSpec(5, v0=float("nan")),
                       "v0 must be a positive finite number"),
    "lsh scale": (lambda: simple_lsh_transform(np.ones(2), 0.0),
                  "scale must be positive"),
    "lsh scale nan": (lambda: simple_lsh_transform(np.ones(2), float("nan")),
                      "scale must be positive and finite"),
    "lsh scale infinite": (lambda: simple_lsh_transform(np.ones(2), float("inf")),
                           "scale must be positive and finite"),
    "lsh point nan": (lambda: simple_lsh_transform(np.array([np.nan, 1.0]), 5.0),
                      "point must be finite"),
    "lsh params bits": (lambda: LshParams(2.5, 3, 4), "bits must be an integer, got 2.5"),
    "lsh default params": (lambda: default_lsh_params(0),
                           "num_points must be positive"),
    "instance item_ids": (lambda: Instance([2.0, 1.0], [0.5, 0.5], 1.0, item_ids=(7,)),
                          "item_ids must have one label per item"),
    "from_items lengths": (lambda: Instance.from_items([1.0, 2.0], [0.5], 1.0),
                           "prices and weights must have equal length"),
    "from_items labels": (
        lambda: Instance.from_items([1.0, 2.0], [0.5, 0.5], 1.0, item_ids=[3]),
        "item_ids must have one label per item"),
    "bz p_max": (lambda: bz_rounds_needed(0.1, 0.1, 1.0, 0.3),
                 "p_max must lie in (0, 0.25)"),
    "bz gamma zero": (lambda: bz_rounds_needed(0.0, 0.1, 1.0, 0.04),
                      "gamma must lie in (0, 1)"),
    "bz gamma above one": (lambda: bz_rounds_needed(2.0, 0.1, 1.0, 0.04),
                           "gamma must lie in (0, 1)"),
    "bz eps at p1": (lambda: bz_rounds_needed(0.05, 1.0, 1.0, 0.04),
                     "eps must lie in (0, p1)"),
    "bz eps above p1": (lambda: bz_rounds_needed(0.05, 1.5, 1.0, 0.04),
                        "eps must lie in (0, p1)"),
    "posterior bins": (lambda: Posterior(np.full(5, 0.2), 0.1, 1.0),
                       "expected 10 bins, got 5"),
    "posterior masses": (lambda: Posterior([1.5, -0.5], 0.5, 1.0),
                         "bin masses must be non-negative"),
    "bz alpha with no rounds": (
        lambda: assort_mnl_bz(AssortmentCollection([{1}, {2, 3}], n=3), E1, 1.0, 0, 0.9),
        "alpha must lie in (0, 0.5)"),
    "posterior update u": (
        lambda: bz_posterior_update(Posterior.uniform(1.0, 0.1), 11, 1, 0.3),
        "u must lie in 0..10"),
    "brute force capacity above n": (lambda: brute_force_capacitated(E1, 4),
                                     "capacity must lie in 0..3"),
    "brute force capacity below 0": (lambda: brute_force_capacitated(E1, -1),
                                     "capacity must lie in 0..3"),
    "noisy comparator callable": (
        lambda: NoisyComparator(1.0, lambda j: 0.5).compare(0.5),
        "error probability must lie in [0, 0.5)"),
    "topc capacity": (lambda: assort_mnl_capacitated(E1, None, 0.1),
                      "variant 'topc' needs a capacity C"),
    "lb c_min": (lambda: assort_mnl_capacitated(E1, 2, 0.1, "lb"),
                 "variant 'lb' needs C and c_min"),
    "partitioned blocks": (
        lambda: assort_mnl_capacitated(E1, None, 0.1, "partitioned", caps=[1]),
        "variant 'partitioned' needs blocks and caps"),
    "approx bound eps": (lambda: approx_iteration_bound(1.0, 0.01, 0.01),
                         "eps must exceed 2(nu^2 + 2 nu)"),
    "approx bound nan eps": (lambda: approx_iteration_bound(1.0, float("nan"), 0.01),
                             "eps must exceed 2(nu^2 + 2 nu)"),
    "approx bound nan nu": (lambda: approx_iteration_bound(1.0, 0.1, float("nan")),
                            "nu must be non-negative"),
    "approx bound negative nu": (lambda: approx_iteration_bound(1.0, 0.1, -0.5),
                                 "nu must be non-negative"),
    "approx bound zero p1": (lambda: approx_iteration_bound(0.0, 0.1, 0.01),
                             "p1 must be positive and finite"),
    "approx bound nan p1": (lambda: approx_iteration_bound(float("nan"), 0.1, 0.01),
                            "p1 must be positive and finite"),
}


@pytest.mark.parametrize("name", sorted(_ERRORS))
def test_error_names_its_cause(name):
    call, message = _ERRORS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestCli:
    def test_general_algo_needs_a_collection(self):
        with pytest.raises(SystemExit, match="needs a feasible collection"):
            main(["solve", "--algo", "exact", "--n", "5"])

    def test_capacitated_algo_needs_a_capacity(self):
        with pytest.raises(SystemExit, match="--algo capacitated requires --capacity"):
            main(["solve", "--algo", "capacitated", "--n", "5"])


class TestLoadItemsets:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("1 2\n\n   \n3\n")
        coll, ids = load_itemsets(path)
        assert [a.items for a in coll] == [{1, 2}, {3}] and ids == (1, 2, 3)

    def test_annotation_only_line_rejected(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("1 2\n#SUP: 4\n")
        with pytest.raises(ValueError, match="line 2: no item ids before annotation"):
            load_itemsets(path)


class TestMips:
    def test_hash_key_checks_dimension(self):
        points, _ = _points(4, 10)
        index = build_lsh_index(points, seed=0)
        with pytest.raises(ValueError, match="vector has dimension 3, expected 9"):
            hash_key(np.ones(3), 0, index)

    def test_load_index_rejects_other_versions(self, tmp_path):
        points, _ = _points(4, 10)
        save_index(build_lsh_index(points, seed=0), tmp_path / "index.npz")
        with np.load(tmp_path / "index.npz") as data:
            fields = dict(data)
        fields["version"] = np.int64(2)
        np.savez(tmp_path / "v2.npz", **fields)
        with pytest.raises(ValueError, match="unsupported index format version 2"):
            load_index(tmp_path / "v2.npz")

    def test_engine_rejects_an_index_of_other_points(self):
        points, inst = _points(4, 10)
        index = build_lsh_index(points, seed=0)
        wider, wide_inst = _points(5, 10)
        with pytest.raises(ValueError, match="different dimension"):
            LshMips(index, wider, wide_inst.weights)
        more, _ = _points(4, 12)
        with pytest.raises(ValueError, match="index size does not match"):
            LshMips(index, more, inst.weights)


class TestAssortment:
    def test_iterates_in_order_and_tests_membership(self):
        a = Assortment({3, 1, 2})
        assert list(a) == [1, 2, 3]
        assert 2 in a and 5 not in a


def test_bench_drops_the_brute_force_row_past_its_limit():
    # n = 30 is past brute force's 25 items: its row is left out, and the
    # capacitated rows carry no oracle metrics
    records, _ = run_bench(BenchConfig(algorithms=("capacitated", "brute_cap"), runs=2,
                                       n=30, num_sets=None, capacity=3, seed=2))
    assert [r.algo for r in records] == ["capacitated"] * 2
    assert all(r.rel_error is None and r.overlap is None for r in records)
