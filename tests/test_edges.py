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
from assortmax.noisy_search import (Posterior, bz_posterior_update,
                                    bz_rounds_needed)

from reference import hash_key, simple_lsh_transform

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


_MALFORMED = [
    ("no scale", "index archive has no field 'scale'"),
    ("more tables stated", r"index field 'projections' has shape \(4, 6, 25\)"),
    ("projections of two dimensions", "index field 'projections' has shape"),
    ("a bit short", "index field 'projections' has shape"),
    ("a point short of keys", r"index field 'table_keys' is uint64 of shape \(4, 299\)"),
    ("signed keys", r"index field 'table_keys' is int64 of shape \(4, 300\)"),
    ("a table short of ids", r"index field 'table_ids' is int32 of shape \(3, 300\)"),
    ("ids that are not integers", r"index field 'table_ids' is float64 of shape"),
    ("an id past the points", r"index field 'table_ids' holds ids outside 0\.\.299"),
    ("a negative id", r"index field 'table_ids' holds ids outside 0\.\.299"),
    ("unsorted keys", "index field 'table_keys' is not sorted within each table"),
    ("float32 projections", "index field 'projections' is float32, expected float64"),
    ("a NaN projection", "index field 'projections' holds non-finite values"),
    ("a NaN scale", "index field 'scale' is nan, expected positive and finite"),
    ("a negative scale", "index field 'scale' is -1.0, expected positive and finite"),
    ("a key past its bits", "index field 'table_keys' holds keys of more than 6 bits"),
    ("a duplicate id", r"index field 'table_ids' is not a permutation of 0\.\.299")]


def _malformed_archive(case: str, tmp_path, key_dtype):
    """The path of a 6-bit, 4-table index archive over 300 points, its keys
    stored as ``key_dtype``, broken as ``case`` says."""
    points, _ = _points(12, 300)
    save_index(build_lsh_index(points, seed=0, params=LshParams(6, 4, 20)),
               tmp_path / "index.npz")
    with np.load(tmp_path / "index.npz") as data:
        fields = {name: data[name].copy() for name in data.files}
    assert fields["table_keys"].dtype == np.uint8
    fields["table_keys"] = fields["table_keys"].astype(key_dtype)
    keys, ids = fields["table_keys"], fields["table_ids"]
    assert keys.shape == ids.shape == (4, 300) and (keys[1, 0] < keys[1, -1])
    if case == "no scale":
        del fields["scale"]
    elif case == "more tables stated":
        fields["tables"] = np.int64(5)
    elif case == "projections of two dimensions":
        fields["projections"] = fields["projections"][:, :, 0]
    elif case == "a bit short":
        fields["projections"] = fields["projections"][:, 1:]
    elif case == "a point short of keys":
        fields["table_keys"] = keys[:, 1:]
    elif case == "signed keys":
        fields["table_keys"] = keys.astype(np.int64)
    elif case == "a table short of ids":
        fields["table_ids"] = ids[1:]
    elif case == "ids that are not integers":
        fields["table_ids"] = ids + 0.5
    elif case == "an id past the points":
        ids[2, 7] = 10 ** 6
    elif case == "a negative id":
        ids[0, 0] = -1
    elif case == "unsorted keys":
        keys[1] = keys[1, ::-1]
    elif case == "float32 projections":
        fields["projections"] = fields["projections"].astype(np.float32)
    elif case == "a NaN projection":
        fields["projections"][2, 3, 4] = np.nan
    elif case == "a NaN scale":
        fields["scale"] = np.float64(np.nan)
    elif case == "a negative scale":
        fields["scale"] = np.float64(-1.0)
    elif case == "a key past its bits":
        keys[3, -1] = 64  # still sorted, but no 6-bit query reaches it
    else:  # the set first in table 2 is gone from it, the next one listed twice
        ids[2, 0] = ids[2, 1]
    np.savez(tmp_path / "bad.npz", **fields)
    return tmp_path / "bad.npz"


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

    @pytest.mark.parametrize("case, message", _MALFORMED)
    def test_load_index_rejects_a_malformed_archive(self, case, message, tmp_path):
        # unchecked, each of these archives loads and then fails at its
        # first query or answers queries; one missing a field raises KeyError.
        # Their keys are uint64, as every archive stored them before the
        # build kept keys in the narrowest dtype that holds ``bits``
        with pytest.raises(ValueError, match=message):
            load_index(_malformed_archive(case, tmp_path, np.uint64))

    @pytest.mark.parametrize("case, message", _MALFORMED)
    def test_load_index_rejects_a_malformed_narrow_archive(self, case, message, tmp_path):
        # the same archives with the 6-bit keys as save_index writes them now
        with pytest.raises(ValueError, match=message.replace("uint64", "uint8")):
            load_index(_malformed_archive(case, tmp_path, np.uint8))

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
