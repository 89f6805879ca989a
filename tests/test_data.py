import hashlib
import json

import numpy as np
import pytest

from assortmax import (GenSpec, ResultRecord, generate_instance,
                       instance_from_files, load_instance, load_itemsets,
                       load_prices, revenue, save_instance, save_itemsets,
                       write_results)


# sha256 of the flat index and length arrays of generate_instance's
# collection for (n, num_sets, seed), recorded from a row-by-row dedupe loop.
# n=3 and n=4 draw empty rows and repeats within a chunk; n=9 and n=12 need
# several chunks and repeat rows of earlier chunks.
_SUBSET_DIGESTS = [
    (3, 7, 0, "3967264af0bb74d7b3578e9287d49017b74bf4fed3218ebd1cdb880a3525324d",
     "91d399616e3e1ac821fa7020f5febcc3aa025dd35b94eaae4df2b5f1d5a0e6cc"),
    (4, 15, 1, "08c7a5ab19403a2e83eaa20c80fd69e3063365c1542ae3e65f6d16c7a29107b8",
     "6829a942cb4a549edadda267a0782c2f8dcc00a6483067a9ec7822056fe56e8b"),
    (9, 500, 2, "69d4d8a93d34a712843b05ec2bacb33f1e3bbc8c0bc720e0032afa7b6ac5023d",
     "a2a0cad1288823af1f947097c5dd8de5255b5c85f5de7b89a9db714320589bff"),
    (12, 2000, 3, "8b58e1a00e1ca2fee67ac626d087cb6608497159301d6a4c84f8cfc0371e8cdf",
     "04ca85935592ba0c72cdce0b0a9ec011942ba63a41aececeeec8c7396505e888"),
    (60, 1000, 4, "2c53984e6a5bf3108af86aeb5d27a38c53e990378dce43a8f136b4f1df08aa5a",
     "97e5f7319bc53a0c28e40f8c0ea004f1ebc35de71a0780418375868c2ea5da32"),
    (1000, 300, 5, "d5cfe2153033cbf36ce083d1491a36c7f8c69be13a447ab50bf475c522064062",
     "15fb8c99200941606145f0b28b66fb70823c1a25c9bbbc63c3c389f4ae8c19fb"),
]


class TestGenerate:
    @pytest.mark.parametrize("n, count, seed, flat_sha, lengths_sha", _SUBSET_DIGESTS,
                             ids=[f"{n}-{c}-{s}" for n, c, s, _, _ in _SUBSET_DIGESTS])
    def test_subsets_are_pinned(self, n, count, seed, flat_sha, lengths_sha):
        _, coll = generate_instance(GenSpec(n=n, num_sets=count, seed=seed))
        flat, _, lengths = coll.flat_arrays
        assert len(coll) == count
        assert hashlib.sha256(flat.tobytes()).hexdigest() == flat_sha
        assert hashlib.sha256(lengths.tobytes()).hexdigest() == lengths_sha

    def test_small_universe_is_exhausted(self):
        inst, coll = generate_instance(GenSpec(n=3, num_sets=7, seed=1))
        assert len(coll) == 7
        assert {a.items for a in coll} == {
            frozenset(s) for s in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})}

    def test_deterministic_per_seed(self):
        a_inst, a_coll = generate_instance(GenSpec(n=10, num_sets=40, seed=5))
        b_inst, b_coll = generate_instance(GenSpec(n=10, num_sets=40, seed=5))
        assert a_inst.prices.tobytes() == b_inst.prices.tobytes()
        assert a_inst.weights.tobytes() == b_inst.weights.tobytes()
        assert [a.items for a in a_coll] == [b.items for b in b_coll]
        c_inst, _ = generate_instance(GenSpec(n=10, num_sets=40, seed=6))
        assert a_inst.prices.tobytes() != c_inst.prices.tobytes()

    def test_infeasible_count_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            generate_instance(GenSpec(n=3, num_sets=8, seed=0))

    def test_prices_sorted_and_in_range(self):
        inst, _ = generate_instance(GenSpec(n=50, num_sets=10,
                                            price_range=(5.0, 9.0), seed=2))
        assert (np.diff(inst.prices) <= 0).all()
        assert inst.prices.min() >= 5.0 and inst.prices.max() <= 9.0

    def test_capacitated_mode_has_no_collection(self):
        inst, coll = generate_instance(GenSpec(n=20, num_sets=None, seed=3))
        assert coll is None and inst.n == 20


class TestLoadItemsets:
    def test_parses_support_annotations(self, tmp_path):
        f = tmp_path / "sets.txt"
        f.write_text("3 7 12 #SUP: 120\n7 12\n3 12 99 #SUP: 4\n")
        coll, ids = load_itemsets(f, min_card=3)
        assert len(coll) == 2
        assert ids == (3, 7, 12, 99)
        # dense remap: 3->1, 7->2, 12->3, 99->4
        assert coll[0].items == {1, 2, 3}
        assert coll[1].items == {1, 3, 4}

    def test_cardinality_filter(self, tmp_path):
        f = tmp_path / "sets.txt"
        f.write_text("1 2\n1 2 3\n1 2 3 4\n")
        coll, _ = load_itemsets(f, min_card=2, max_card=3)
        assert len(coll) == 2

    def test_empty_after_filter(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("1 2\n3 4\n")
        with pytest.raises(ValueError, match="after cardinality filtering"):
            load_itemsets(f, min_card=5)

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(ValueError, match="line 2"):
            load_itemsets(f)

    def test_round_trip_through_save(self, tmp_path):
        inst, coll = generate_instance(GenSpec(n=8, num_sets=20, seed=7))
        path = tmp_path / "sets.txt"
        save_itemsets(coll, path)
        back, ids = load_itemsets(path)
        # ids are already dense, so the remap is the identity
        assert ids == tuple(range(1, 9))
        assert [a.items for a in back] == [a.items for a in coll]


class TestLoadPrices:
    def test_parses_pairs(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("id,price\n1,9.99\n7,5.25\n")
        assert load_prices(f) == [(1, 9.99), (7, 5.25)]

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("id,price\n1,9.99\n1,5.25\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_prices(f)

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("id,cost\n1,9.99\n")
        with pytest.raises(ValueError, match="header"):
            load_prices(f)

    def test_negative_price_rejected(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("id,price\n1,-2.0\n")
        with pytest.raises(ValueError, match="negative"):
            load_prices(f)

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_rejected(self, tmp_path, price):
        f = tmp_path / "prices.csv"
        f.write_text(f"id,price\n1,9.99\n2,{price}\n")
        with pytest.raises(ValueError, match="row 3.*not finite"):
            load_prices(f)

    def test_malformed_row_reports_number(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("id,price\n1,9.99\nx,1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_prices(f)


class TestInstanceFromFiles:
    def test_prices_applied_and_sorted(self, tmp_path):
        sets = tmp_path / "sets.txt"
        sets.write_text("10 20\n20 30\n")
        prices = tmp_path / "prices.csv"
        prices.write_text("id,price\n10,5.0\n20,9.0\n30,7.0\n")
        inst, coll = instance_from_files(sets, prices, seed=0)
        assert inst.prices.tolist() == [9.0, 7.0, 5.0]
        assert inst.item_ids == (20, 30, 10)
        # the set {10, 20} must follow its items through the sort
        revs = [revenue(a, inst) for a in coll]
        expected_sets = [{20, 10}, {20, 30}]
        for a, orig in zip(coll, expected_sets):
            got = {inst.item_ids[i - 1] for i in a.items}
            assert got == orig
        assert all(r > 0 for r in revs)

    def test_missing_prices_are_drawn(self, tmp_path):
        sets = tmp_path / "sets.txt"
        sets.write_text("1 2 3\n")
        prices = tmp_path / "prices.csv"
        prices.write_text("id,price\n2,100.0\n")
        inst, _ = instance_from_files(sets, prices, price_range=(0.0, 1.0), seed=1)
        pos = inst.item_ids.index(2)
        assert inst.prices[pos] == 100.0
        assert inst.prices[[i for i in range(3) if i != pos]].max() <= 1.0

    def test_deterministic(self, tmp_path):
        sets = tmp_path / "sets.txt"
        sets.write_text("1 2\n2 3\n1 3\n")
        a, _ = instance_from_files(sets, seed=3)
        b, _ = instance_from_files(sets, seed=3)
        assert a.prices.tobytes() == b.prices.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst, _ = generate_instance(GenSpec(n=6, num_sets=5, seed=11))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.prices.tolist() == inst.prices.tolist()
        assert back.weights.tolist() == inst.weights.tolist()
        assert back.v0 == inst.v0

    def test_price_scale_of_older_files_is_ignored(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"prices": [2.0, 1.0], "weights": [0.5, 0.5],
                                    "v0": 1.0, "price_scale": 7.0}))
        assert load_instance(path).prices.tolist() == [2.0, 1.0]
        save_instance(load_instance(path), path)
        assert "price_scale" not in json.loads(path.read_text())

    def test_repeated_labels_rejected_on_load(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"prices": [2.0, 1.0], "weights": [0.5, 0.5],
                                    "v0": 1.0, "item_ids": [7, 7]}))
        with pytest.raises(ValueError, match="distinct"):
            load_instance(path)

    @pytest.mark.parametrize("key", ["prices", "weights", "v0"])
    def test_a_missing_key_is_named(self, tmp_path, key):
        payload = {"prices": [2.0, 1.0], "weights": [0.5, 0.5], "v0": 1.0}
        del payload[key]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"no '{key}'"):
            load_instance(path)

    @pytest.mark.parametrize("change, key", [
        ({"prices": [2.0, {}]}, "prices"),
        ({"prices": [2.0, None]}, "prices"),
        ({"weights": [0.5, "0.5"]}, "weights"),
        ({"weights": [0.5, True]}, "weights"),
        ({"item_ids": [1, None]}, "item_ids"),
        ({"item_ids": [1, [2]]}, "item_ids"),
        ({"v0": True}, "v0")])
    def test_a_mistyped_value_is_named(self, tmp_path, change, key):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"prices": [2.0, 1.0], "weights": [0.5, 0.5],
                                    "v0": 1.0, **change}))
        with pytest.raises(ValueError, match=f"'{key}' must be a"):
            load_instance(path)

    def test_a_fractional_label_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"prices": [2.0, 1.0], "weights": [0.5, 0.5],
                                    "v0": 1.0, "item_ids": [1.5, 2]}))
        with pytest.raises(ValueError, match="item_ids contains a non-integer"):
            load_instance(path)

    def test_a_top_level_list_is_rejected(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps([[2.0, 1.0], [0.5, 0.5], 1.0]))
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_instance(path)


def _record(i=0):
    return ResultRecord(run_id=f"run{i:03d}", algo="exact", n=3, N=7, eps=0.1,
                        iterations=7, wall_time_s=0.001, revenue=3.25,
                        rel_error=0.0, overlap=1.0)


class TestWriteResults:
    def test_empty_list_writes_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines == ["run_id,algo,n,N,eps,iterations,wall_time_s,"
                         "revenue,rel_error,overlap"]

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([_record()], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("run000,exact,3,7,0.1")

    def test_none_fields_serialize_empty(self, tmp_path):
        rec = ResultRecord("run000", "capacitated", 100, None, 0.1, 14,
                           0.002, 5.0, None, None)
        path = tmp_path / "out.csv"
        write_results([rec], path, "csv")
        assert ",,," not in path.read_text().splitlines()[0]
        assert path.read_text().splitlines()[1].endswith(",,")

    def test_json_round_trip(self, tmp_path):
        recs = [_record(0), _record(1)]
        path = tmp_path / "out.json"
        write_results(recs, path, "json")
        back = json.loads(path.read_text())
        assert len(back) == 2
        assert back[0]["revenue"] == 3.25 and back[1]["run_id"] == "run001"
        assert list(back[0].keys()) == ["run_id", "algo", "n", "N", "eps",
                                        "iterations", "wall_time_s", "revenue",
                                        "rel_error", "overlap"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_results([], tmp_path / "o.xml", "xml")
