import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from assortmax import (Assortment, AssortmentCollection, GenSpec, Instance,
                       SolverResult, collection_revenues, embed_collection,
                       generate_instance, instance_from_files, normalize, revenue,
                       validate_collection)

from conftest import all_subsets, random_instance


class TestInstance:
    def test_rejects_unsorted_prices(self):
        with pytest.raises(ValueError, match="non-increasing"):
            Instance([5.0, 8.0, 10.0], [0.1, 0.2, 0.3], 1.0)

    def test_from_items_sorts_and_keeps_labels(self):
        inst = Instance.from_items([5.0, 10.0, 8.0], [0.5, 0.2, 0.4], 1.0,
                                   item_ids=(101, 102, 103))
        assert inst.prices.tolist() == [10.0, 8.0, 5.0]
        assert inst.weights.tolist() == [0.2, 0.4, 0.5]
        assert inst.item_ids == (102, 103, 101)

    @pytest.mark.parametrize("kwargs", [
        dict(prices=[1.0], weights=[0.5, 0.5], v0=1.0),
        dict(prices=[1.0], weights=[np.inf], v0=1.0),
        dict(prices=[-1.0], weights=[0.5], v0=1.0),
        dict(prices=[1.0], weights=[0.5], v0=0.0),
        dict(prices=[1.0], weights=[0.5], v0=np.nan),
        dict(prices=[np.nan, 1.0], weights=[0.5, 0.5], v0=1.0),
        dict(prices=[np.inf, 1.0], weights=[0.5, 0.5], v0=1.0),
        dict(prices=[1.0], weights=[np.nan], v0=1.0),
        dict(prices=[1.0], weights=[-0.5], v0=1.0),
        dict(prices=[1.0], weights=[0.5], v0=np.inf),
    ])
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError):
            Instance(**kwargs)

    def test_repeated_labels_rejected(self):
        # onto_instance maps each label to one position, so a repeated label
        # would silently send a set's item to the last item carrying it
        with pytest.raises(ValueError, match="distinct"):
            Instance([2.0, 1.0], [0.5, 0.5], 1.0, item_ids=(7, 7))
        with pytest.raises(ValueError, match="distinct"):
            Instance.from_items([1.0, 2.0], [0.5, 0.5], 1.0, item_ids=(3, 3))

    def test_labels_must_be_whole_numbers(self):
        # a label names one item, so 1.5 must not be read as item 1
        for ids in [(1.5, 2), (1, None), ("1", 2), (1, np.nan)]:
            with pytest.raises(ValueError, match="item_ids contains a non-integer"):
                Instance([2.0, 1.0], [0.5, 0.5], 1.0, item_ids=ids)
        with pytest.raises(ValueError, match="item_ids contains a non-integer"):
            Instance.from_items([1.0, 2.0], [0.5, 0.5], 1.0, item_ids=(1.5, 2))
        ids = Instance([2.0, 1.0], [0.5, 0.5], 1.0, item_ids=(7.0, np.int64(3))).item_ids
        assert ids == (7, 3) and all(type(i) is int for i in ids)

    @pytest.mark.parametrize("v0", [True, np.True_])
    def test_bool_v0_rejected(self, v0):
        with pytest.raises(ValueError, match="v0 must be a positive finite number"):
            Instance([1.0], [0.5], v0)

    def test_arrays_are_read_only(self, e1):
        with pytest.raises(ValueError):
            e1.prices[0] = 99.0


class TestRevenue:
    def test_empty_set_is_zero(self, e1):
        assert revenue(Assortment(), e1) == 0.0

    def test_hand_example(self, e1):
        assert revenue(Assortment({1, 2}), e1) == pytest.approx(3.25)

    def test_full_set_matches_brute_force(self, e1, e1_all):
        # enumerate all 7 subsets with an independent formula
        best = max(
            sum(e1.prices[i - 1] * e1.weights[i - 1] for i in a.items)
            / (e1.v0 + sum(e1.weights[i - 1] for i in a.items))
            for a in e1_all
        )
        assert best == pytest.approx(3.6667, abs=1e-4)
        assert revenue(Assortment({1, 2, 3}), e1) == pytest.approx(best)

    def test_index_out_of_range(self, e1):
        with pytest.raises(ValueError, match="out of range"):
            revenue(Assortment({4}), e1)
        with pytest.raises(ValueError, match="out of range"):
            revenue(Assortment({0}), e1)

    def test_bounded_by_top_price(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 12)))
            items = [i + 1 for i in range(inst.n) if rng.random() < 0.5] or [1]
            assert revenue(Assortment(items), inst) <= inst.p1

    def test_adding_cheap_item_decreases_revenue(self):
        # any item priced below the current revenue drags the average down
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng, 8)
            base = [i + 1 for i in range(8) if rng.random() < 0.5]
            if not base:
                continue
            r = revenue(Assortment(base), inst)
            outside = [j + 1 for j in range(8)
                       if j + 1 not in base and inst.prices[j] < r
                       and inst.weights[j] > 0]
            for j in outside:
                assert revenue(Assortment(base + [j]), inst) < r
                checked += 1
        assert checked > 50

    def test_vectorized_matches_scalar(self, e1, e1_all):
        revs = collection_revenues(e1_all, e1)
        for i, a in enumerate(e1_all):
            assert revs[i] == pytest.approx(revenue(a, e1), rel=1e-12)

    @pytest.mark.parametrize("shape", [(13, 300), (60, 800), (1000, 2000), "sparse", "all8"],
                             ids=["13x300", "60x800", "1000x2000", "sparse", "all8"])
    def test_a_set_has_one_revenue(self, shape):
        # revenue() sums a set as the scan does, so the two agree bit for
        # bit, on dense sets (screened), sparse ones (never screened), and
        # sets of over 128 members (pairwise blocks in the sum)
        rng = np.random.default_rng(7)
        if shape == "sparse":
            c = AssortmentCollection([rng.choice(1000, int(rng.integers(2, 13)), replace=False) + 1
                                      for _ in range(2000)], n=1000)
            insts = [random_instance(rng, 1000) for _ in range(3)]
        elif shape == "all8":
            c, insts = all_subsets(8), [random_instance(rng, 8) for _ in range(3)]
        else:
            n, N = shape
            generated = [generate_instance(GenSpec(n, num_sets=N, seed=s)) for s in range(3)]
            c, insts = generated[0][1], [inst for inst, _ in generated]
        for inst in insts:
            revs = collection_revenues(c, inst)
            assert [revenue(c[i], inst) for i in range(len(c))] == revs.tolist()


class TestNormalize:
    def test_divides_by_top_price(self, e1):
        norm = normalize(e1)
        assert norm.prices.tolist() == [1.0, 0.8, 0.5]

    def test_idempotent_on_normalized(self):
        inst = Instance([1.0, 0.5], [0.3, 0.4], 0.9)
        norm = normalize(inst)
        assert norm.prices.tolist() == inst.prices.tolist()

    def test_scale_equivariance(self, e1):
        norm = normalize(e1)
        assert revenue(Assortment({1, 2}), norm) == pytest.approx(0.325)
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = random_instance(rng, 6)
            norm = normalize(inst)
            items = [i + 1 for i in range(6) if rng.random() < 0.5] or [2]
            a = Assortment(items)
            assert revenue(a, norm) * inst.p1 == pytest.approx(
                revenue(a, inst), rel=1e-9)

    def test_degenerate_instance(self):
        inst = Instance([0.0, 0.0], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            normalize(inst)


class TestAssortment:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_array_equals_list(self, dtype):
        a = Assortment(np.array([3, 1, 2], dtype=dtype))
        b = Assortment([1, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert all(type(i) is int for i in a.items)

    def test_non_whole_items_rejected_whole_floats_kept(self):
        # an item is an index: 1.7 must be refused, not truncated to 1
        for items in ([1.7, 3], [np.nan, 2], ["1", "2"], np.array([1.5])):
            with pytest.raises(ValueError, match="assortment contains a non-integer item"):
                Assortment(items)
        assert Assortment([3.0, 1.0]) == Assortment({1, 3})


class TestCollection:
    def test_valid_collection_passes(self, e1):
        validate_collection(AssortmentCollection([{1, 2}], n=3), e1)

    def test_index_below_one(self):
        with pytest.raises(ValueError, match="set 0 contains item index 0"):
            AssortmentCollection([{0}], n=3)

    def test_index_above_n(self):
        with pytest.raises(ValueError, match="set 1 contains item index 4"):
            AssortmentCollection([{1, 2}, {2, 4}], n=3)

    def test_out_of_range_rejected_by_every_constructor(self):
        # item 0 is below 1: it must be refused, not scored as item n
        with pytest.raises(ValueError, match="set 1 contains item index 0"):
            AssortmentCollection([{2}, {0}], n=3)
        # the first offending member is named, not the last
        with pytest.raises(ValueError, match="set 0 contains item index 4, outside 1..3"):
            AssortmentCollection([{2, 4, 5}], n=3)
        mask = np.zeros((4, 6), dtype=bool)
        mask[:, 0] = True
        mask[2, 4] = mask[3, 5] = True  # a wider mask than n items
        with pytest.raises(ValueError, match="set 2 contains item index 5, outside 1..4"):
            AssortmentCollection.from_membership(mask, n=4)
        assert len(AssortmentCollection.from_membership(mask[:2], n=4)) == 2
        # the constructor instance_from_files ends in
        with pytest.raises(ValueError, match="set 1 contains item index 4"):
            AssortmentCollection._from_arrays(3, [0, 1, 3], [1, 2])
        with pytest.raises(ValueError, match="set 0 contains item index 0"):
            AssortmentCollection._from_arrays(3, [-1, 1], [2])

    def test_non_whole_items_rejected_whole_floats_kept(self):
        with pytest.raises(ValueError, match="set 0 contains a non-integer item"):
            AssortmentCollection([[1.5, 2]], n=3)
        with pytest.raises(ValueError, match="set 1 contains a non-integer item"):
            AssortmentCollection([{1}, np.array([2, np.inf])], n=3)
        c = AssortmentCollection([[2.0, 1.0], Assortment({3})], n=3)
        assert [a.items for a in c] == [{1, 2}, {3}]

    def test_empty_collection(self):
        with pytest.raises(ValueError, match="at least one"):
            AssortmentCollection([], n=3)

    def test_empty_member(self):
        with pytest.raises(ValueError, match="non-empty"):
            AssortmentCollection([{1}, set()], n=3)

    def test_n_mismatch(self, e1):
        c = AssortmentCollection([{1, 2}], n=2)
        with pytest.raises(ValueError, match="items"):
            validate_collection(c, e1)

    def test_set_sums_over_ids_match_full_sums(self):
        rng = np.random.default_rng(7)
        n = 12
        sets = [rng.choice(np.arange(1, n + 1), int(rng.integers(1, n + 1)),
                           replace=False) for _ in range(30)]
        c = AssortmentCollection(sets, n=n)
        values = rng.normal(size=(2, n))
        ids = rng.integers(0, len(c), 50)  # any order, with repeats
        # bit-identical: a hashed rescore must equal the exact engine's score
        assert np.array_equal(c.set_sums(values, ids), c.set_sums(values)[:, ids])

    def test_set_sums_over_no_ids(self):
        c = AssortmentCollection([{1, 2}, {3}], n=3)
        assert c.set_sums(np.ones(3), np.empty(0, dtype=np.int64)).shape == (0,)
        assert c.set_sums(np.ones((2, 3)), []).shape == (2, 0)

    def test_round_trip_sets(self):
        sets = [{1, 3}, {2}, {1, 2, 3, 4}]
        c = AssortmentCollection(sets, n=4)
        assert [set(a.items) for a in c] == sets
        assert len(c) == 3


    @pytest.mark.parametrize("width, n", [(1, 1), (7, 7), (8, 8), (13, 13),
                                          (9, 20), (40, 40)])
    def test_from_membership_matches_list_constructor(self, width, n):
        rng = np.random.default_rng(width * 100 + n)
        mask = rng.random((50, width)) < 0.3
        mask[np.arange(50), rng.integers(0, width, 50)] = True  # no empty row
        mask[0] = True
        a = AssortmentCollection.from_membership(mask, n)
        b = AssortmentCollection([np.flatnonzero(row) + 1 for row in mask], n=n)
        assert a.n == b.n == n
        # indices in the narrowest type that holds n, offsets and lengths int64
        for x, y, dtype in zip(a.flat_arrays, b.flat_arrays, (np.int16, np.int64, np.int64)):
            assert x.dtype == y.dtype == dtype
            assert np.array_equal(x, y)
            assert not x.flags.writeable

    def test_from_membership_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-d"):
            AssortmentCollection.from_membership(np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="non-empty"):
            AssortmentCollection.from_membership(np.zeros((2, 3), dtype=bool))

    def test_packed_membership_unpacks_to_dense(self, tmp_path):
        # every way a collection is built stores the bits once, byte-major:
        # one read-only C-contiguous (ceil(n/8), sets) array, which the
        # screen reads in place; packed_membership is its transposed view,
        # with the shape and values of np.packbits over the rows
        rng = np.random.default_rng(5)
        n = 21  # not a multiple of 8: the last byte is partly padding
        mask = rng.random((5000, n)) < 0.4  # more rows than one packing chunk
        mask[:, 3] = True
        lists = [np.flatnonzero(r) + 1 for r in mask[:1300]]
        lengths = np.array([row.size for row in lists])
        sets = tmp_path / "sets.txt"
        sets.write_text("4 9 2\n9\n1 2 3 4 5\n")
        _, from_files = instance_from_files(sets, seed=0)
        for coll in (AssortmentCollection(lists, n=n),
                     AssortmentCollection.from_membership(mask),
                     AssortmentCollection.from_membership(mask[:40, :9], n=n),
                     AssortmentCollection._from_arrays(n, np.concatenate(lists) - 1, lengths),
                     generate_instance(GenSpec(13, num_sets=700, seed=4))[1],
                     from_files):
            packed = coll.packed_membership
            assert packed.dtype == np.uint8
            assert packed.shape == (len(coll), (coll.n + 7) // 8)
            assert not packed.flags.writeable
            assert packed.T.flags.c_contiguous and not packed.T.flags.writeable
            assert coll.packed_membership is packed  # built once
            dense = np.zeros((len(coll), coll.n), dtype=bool)
            for i in range(len(coll)):
                dense[i, coll.member_indices(i)] = True
            assert np.array_equal(packed, np.packbits(dense, axis=1, bitorder="little"))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 30, 1000])
    def test_membership_chunks_unpack_as_unpackbits(self, n):
        # chunks of 64 rows over 300 sets: the last chunk is ragged
        rng = np.random.default_rng(n)
        mask = rng.random((300, n)) < 0.5
        mask[:, 0] = True
        coll = AssortmentCollection.from_membership(mask)
        packed = coll.packed_membership
        for lo in range(0, len(coll), 64):
            hi = min(lo + 64, len(coll))
            got = coll._membership_rows(slice(lo, hi))
            expect = np.unpackbits(packed[lo:hi], axis=1, count=n,
                                   bitorder="little").astype(np.float32)
            assert got.dtype == np.float32 and got.shape == (hi - lo, n)
            assert np.array_equal(got, expect)
        ids = rng.permutation(len(coll))[:50]  # or any ids, in any order
        expect = np.unpackbits(packed[ids], axis=1, count=n, bitorder="little")
        assert np.array_equal(coll._membership_rows(ids), expect.astype(np.float32))

    @pytest.mark.parametrize("n, N", [(7, 100), (13, 300), (1000, 600)])
    def test_generated_catalog_arrives_packed(self, n, N):
        # the generator deduplicates packed rows and hands them over, so the
        # catalog is packed once; the packing is the one its arrays give
        _, c = generate_instance(GenSpec(n, num_sets=N, seed=3))
        assert "packed_membership" in vars(c)
        packed = c.packed_membership
        assert not packed.flags.writeable
        flat, _, lengths = c.flat_arrays
        rebuilt = AssortmentCollection._from_arrays(n, flat, lengths)
        assert "packed_membership" not in vars(rebuilt)
        assert np.array_equal(packed, rebuilt.packed_membership)


class TestNarrowIndices:
    """Member indices are kept in the narrowest of int16, int32 and int64
    that holds n itself, so item n, an index plus one, never wraps."""

    @pytest.mark.parametrize("n, dtype", [(127, np.int16), (128, np.int16), (32767, np.int16),
                                          (32768, np.int32), (32769, np.int32)])
    def test_item_n_survives_every_constructor(self, n, dtype):
        rng = np.random.default_rng(n)
        sets = [np.array([n]), np.array([1, n]), np.array([n - 1]),
                np.unique(np.r_[rng.integers(1, n + 1, 300), n])]
        ref = [s.astype(np.int64) - 1 for s in sets]  # the int64 reference
        mask = np.zeros((len(sets), n), dtype=bool)
        for row, idx in zip(mask, ref):
            row[idx] = True
        packed = np.packbits(mask, axis=1, bitorder="little")
        values = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
        sums = np.array([[np.add.reduceat(v[idx], [0])[0] for idx in ref] for v in values])
        inst = Instance(np.linspace(2.0, 1.0, n), np.ones(n), 1.0)
        for coll in (AssortmentCollection(sets, n),
                     AssortmentCollection.from_membership(mask),
                     AssortmentCollection._from_arrays(n, np.concatenate(ref),
                                                       [idx.size for idx in ref]),
                     AssortmentCollection._from_packed(packed, n)):
            flat, starts, lengths = coll.flat_arrays
            assert flat.dtype == dtype and starts.dtype == lengths.dtype == np.int64
            for i, idx in enumerate(ref):
                assert np.array_equal(coll.member_indices(i), idx)
                assert coll[i] == Assortment(idx + 1)
            assert np.array_equal(coll.set_sums(values), sums)
            assert np.array_equal(coll.set_sums(values, [3, 0]), sums[:, [3, 0]])
            assert np.array_equal(coll.packed_membership, packed)
            # the embedding's second half sits n past each member
            point = embed_collection(coll, inst)[3]
            assert np.array_equal(np.flatnonzero(point[n:]), ref[3])

    @pytest.mark.parametrize("item", [0, 1001, 65541])
    def test_out_of_range_items_are_named_before_narrowing(self, item):
        # 65541 would wrap to 5 in int16: the range check reads the
        # caller's values, before the indices are narrowed
        match = f"set 1 contains item index {item}, outside 1..1000"
        flat = np.r_[0, 1, np.sort([2, item - 1])]
        with pytest.raises(ValueError, match=match):
            AssortmentCollection([[1, 2], [3, item]], n=1000)
        with pytest.raises(ValueError, match=match):
            AssortmentCollection._from_arrays(1000, flat, [2, 2])
        with pytest.raises(ValueError, match=match):
            AssortmentCollection.__new__(AssortmentCollection)._init_arrays(
                1000, flat, np.array([2, 2]))


class TestSetSums:
    """set_sums reduces whole sets a block of entries at a time; every sum
    must equal the set's own reduceat, bit for bit, however sets fall on
    the blocks."""

    BLOCK = 1 << 15  # membership entries per block in set_sums

    @pytest.fixture(scope="class")
    def coll(self):
        rng = np.random.default_rng(11)
        n = self.BLOCK + 7000  # room for a set larger than a whole block
        half = self.BLOCK // 2
        # two sets end exactly on the first block boundary, one spans more
        # than a block, then two more land exactly on a later boundary
        sizes = [half, half, self.BLOCK + 5, 1, self.BLOCK - 6, 3 * half, half]
        sizes += rng.integers(1, 2000, 150).tolist()
        sets = [np.sort(rng.permutation(n)[:k]) + 1 for k in sizes]
        return AssortmentCollection(sets, n=n)

    @staticmethod
    def reference(coll, values, ids):
        flat, starts, lengths = coll.flat_arrays
        out = np.empty(values.shape[:-1] + (len(ids),))
        for row in np.ndindex(values.shape[:-1]):
            for j, i in enumerate(ids):
                s, e = starts[i], starts[i] + lengths[i]
                out[row + (j,)] = np.add.reduceat(values[row][flat[s:e]], [0])[0]
        return out

    @pytest.fixture(scope="class", params=[(), (3,)], ids=["1-d", "k-rows"])
    def values(self, request, coll):
        rng = np.random.default_rng(12)
        # magnitudes over 16 decades, so any change of summation order shows
        shape = request.param + (coll.n,)
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)

    def test_spans_several_blocks(self, coll):
        flat, starts, lengths = coll.flat_arrays
        ends = starts + lengths
        assert flat.size > 5 * self.BLOCK
        assert lengths.max() > self.BLOCK
        assert np.count_nonzero(ends % self.BLOCK == 0) >= 2

    def test_full_sums_match_per_set_reference(self, coll, values):
        expect = self.reference(coll, values, range(len(coll)))
        assert np.array_equal(coll.set_sums(values), expect)

    @pytest.mark.parametrize("pick", ["unsorted-repeats", "few", "empty"])
    def test_id_sums_match_per_set_reference(self, coll, values, pick):
        rng = np.random.default_rng(13)
        ids = {"unsorted-repeats": np.r_[rng.integers(0, len(coll), 300), 2, 0, 2],
               "few": np.array([5, 2, 5]),
               "empty": np.empty(0, dtype=np.int64)}[pick]
        got = coll.set_sums(values, ids)
        assert got.shape == values.shape[:-1] + ids.shape
        assert np.array_equal(got, self.reference(coll, values, ids))

    def test_concurrent_callers_get_the_serial_answer(self, coll):
        rng = np.random.default_rng(14)
        inputs = [rng.random((2, coll.n)) for _ in range(4)]
        serial = [coll.set_sums(v) for v in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-call
        try:
            with ThreadPoolExecutor(4) as pool:  # more workers than cores
                for _ in range(3):
                    got = list(pool.map(coll.set_sums, inputs, timeout=60))
                    assert all(np.array_equal(g, s) for g, s in zip(got, serial))
        finally:
            sys.setswitchinterval(interval)

    def test_rejects_values_of_wrong_length(self, coll):
        with pytest.raises(ValueError, match="entries per row"):
            coll.set_sums(np.ones(coll.n - 1))

    def test_no_temporary_grows_with_the_entries(self):
        rng = np.random.default_rng(15)
        coll = AssortmentCollection.from_membership(rng.random((4200, 1000)) < 0.5)
        assert coll.flat_arrays[0].size >= 2_000_000
        values = rng.random((2, coll.n))
        tracemalloc.start()
        try:
            coll.set_sums(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float per entry would be 16 MB; a few block buffers is under 2
        assert peak < 2_000_000


class TestSolverResult:
    def test_interval_order_enforced(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            SolverResult(Assortment({1}), 1.0, (2.0, 1.0), 0, 0.0)

    @pytest.mark.parametrize("interval", [(np.nan, 1.0), (0.0, np.nan)])
    def test_nan_bound_rejected(self, interval):
        with pytest.raises(ValueError, match="lower <= upper"):
            SolverResult(Assortment({1}), 1.0, interval, 0, 0.0)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SolverResult(Assortment({1}), 1.0, (0.0, 1.0), -1, 0.0)
