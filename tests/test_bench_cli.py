import csv
import hashlib
import json
from dataclasses import replace

import pytest

from assortmax import (Assortment, BenchConfig, GenSpec, Instance,
                       generate_instance, revenue, run_bench, save_instance)
from assortmax import bench
from assortmax.bench import ALL_ALGOS, CAPACITATED_ALGOS, GENERAL_ALGOS
from assortmax.cli import main

# sha256 over repr((assortment, revenue, revenue_interval, iterations)) of
# `assortmax solve --algo A --eps 0.1 --n 12 --seed s` for s in 0..2 and A
# in ALL_ALGOS order, with --num-sets 150 for the general algorithms and
# --capacity 4 for the capacitated ones.  The command answers through
# bench.solve, so this pins the dispatch.  Re-recorded when revenue() and
# brute force began to sum a set as the exact scan does: revenue moved by
# at most 3 ulps in 9 of the 21 answers, the brute_cap bracket (r, r) with
# it, and no set or iteration count changed.  Revenue no longer depends on
# the BLAS; like the index digests in test_mips.py, the hashed answers
# still hold only for the BLAS the index builds were recorded with.
_PINNED_DISPATCH_SHA256 = (
    "1f68b9baa640e84ea2d39291a04dcc4dfb322d1d4f1667ae540e81d864765c19")

# sha256 over repr() of every field but wall_time_s of each run_bench row,
# per-run rows then mean rows, for BenchConfig(GENERAL_ALGOS, runs=3, n=30,
# num_sets=400, seed=0).  Re-recorded when revenue() began to sum a set as
# the exact scan does: the revenue of two approx rows (one run and the
# mean) moved by 1 ulp, their rel_error with it, and nothing else changed.
# Revenue no longer depends on the BLAS; the hashed rows still hold only
# for the BLAS the index builds were recorded with.
_PINNED_BENCH_ROWS_SHA256 = (
    "bdd660106ecb803f18df37743bf41bacb02eeafc8f0dd5ba487fd5baf4bcee95")


class TestBenchHarness:
    def test_single_run_single_algo(self):
        cfg = BenchConfig(algorithms=("exact",), runs=1, n=6, num_sets=20,
                          seed=1)
        records, aggregates = run_bench(cfg)
        assert len(records) == 1 and len(aggregates) == 1
        assert records[0].run_id == "run000"
        assert aggregates[0].run_id == "mean"

    def test_exhaustive_self_metrics(self):
        cfg = BenchConfig(algorithms=("exhaustive",), runs=2, n=6, num_sets=20,
                          seed=2)
        records, _ = run_bench(cfg)
        for r in records:
            assert r.rel_error == pytest.approx(0.0)
            assert r.overlap == pytest.approx(1.0)

    def test_exact_within_eps_of_oracle(self):
        cfg = BenchConfig(algorithms=("exact", "exhaustive"), runs=3, n=8,
                          num_sets=40, eps=0.1, seed=3)
        records, _ = run_bench(cfg)
        opt = {r.run_id: r.revenue for r in records if r.algo == "exhaustive"}
        for r in records:
            if r.algo == "exact":
                assert opt[r.run_id] - r.revenue <= 0.1 + 1e-9

    def test_reproducible_across_calls(self):
        cfg = BenchConfig(algorithms=("exact",), runs=3, n=7, num_sets=30,
                          seed=9)
        a, _ = run_bench(cfg)
        b, _ = run_bench(cfg)
        assert [(r.run_id, r.revenue) for r in a] == [(r.run_id, r.revenue) for r in b]

    def test_capacitated_oracle_absent_at_scale(self):
        cfg = BenchConfig(algorithms=("capacitated",), runs=1, n=40,
                          num_sets=None, capacity=5, seed=4)
        records, _ = run_bench(cfg)
        assert len(records) == 1
        assert records[0].rel_error is None and records[0].overlap is None
        assert records[0].wall_time_s >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BenchConfig(algorithms=("capacitated",), capacity=None)
        with pytest.raises(ValueError, match="unknown"):
            BenchConfig(algorithms=("magic",))
        with pytest.raises(ValueError, match="num_sets"):
            BenchConfig(algorithms=("exact",), num_sets=None)

    def test_approx_reports_the_exact_revenue_of_its_set(self, monkeypatch):
        # approx searches the normalized instance; scaling a revenue back by
        # p1 differs from the set's exact revenue in the last bits
        solved, solve = [], bench.solve

        def spy(algo, inst, *args):
            res = solve(algo, inst, *args)
            solved.append((inst, res))
            return res

        monkeypatch.setattr(bench, "solve", spy)
        records, _ = run_bench(BenchConfig(algorithms=("approx",), runs=40, n=60,
                                           num_sets=800, seed=3))
        assert len(records) == len(solved) == 40
        for rec, (inst, res) in zip(records, solved):
            assert rec.revenue == res.revenue == revenue(res.assortment, inst)

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_solve_reports_the_revenue_of_its_set(self, algo):
        # every row's revenue is revenue(A, inst), bit for bit, which is also
        # the sum the exact scan and brute force take over A
        general = algo in GENERAL_ALGOS
        cfg = BenchConfig(algorithms=(algo,), n=60 if general else 16,
                          num_sets=800 if general else None,
                          capacity=None if general else 10)
        for seed in range(6):
            inst, collection = bench.load_source(cfg, seed, general)
            res = bench.solve(algo, inst, collection, cfg, seed)
            assert res.revenue == revenue(res.assortment, inst)

    @pytest.mark.parametrize("cfg", [
        BenchConfig(algorithms=GENERAL_ALGOS, runs=20, n=60, num_sets=800, seed=3),
        BenchConfig(algorithms=CAPACITATED_ALGOS, runs=30, n=16, num_sets=None,
                    capacity=10, seed=1)], ids=["general", "capacitated"])
    def test_no_solver_beats_its_oracle(self, cfg):
        # a set and its oracle's optimum are scored by one arithmetic, so a
        # solver can tie the optimum but never exceed it
        records, _ = run_bench(cfg)
        assert all(r.rel_error >= 0 for r in records)

    def test_rows_are_pinned(self):
        records, aggregates = run_bench(BenchConfig(algorithms=GENERAL_ALGOS, runs=3,
                                                    n=30, num_sets=400, seed=0))
        h = hashlib.sha256()
        for row in records + aggregates:
            h.update(repr(replace(row, wall_time_s=None)).encode())
        assert h.hexdigest() == _PINNED_BENCH_ROWS_SHA256


class TestCliSolve:
    def test_exhaustive_json_output(self, capsys):
        rc = main(["solve", "--algo", "exhaustive", "--n", "3",
                   "--num-sets", "7", "--price-range", "1", "10", "--seed", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["algo"] == "exhaustive" and out["N"] == 7
        assert out["revenue"] > 0 and len(out["assortment"]) >= 1

    def test_exact_matches_exhaustive_within_eps(self, capsys):
        main(["solve", "--algo", "exhaustive", "--n", "4", "--num-sets", "15",
              "--seed", "3"])
        opt = json.loads(capsys.readouterr().out)["revenue"]
        main(["solve", "--algo", "exact", "--eps", "0.01", "--n", "4",
              "--num-sets", "15", "--seed", "3"])
        got = json.loads(capsys.readouterr().out)["revenue"]
        assert got >= opt - 0.01 - 1e-9

    def test_capacitated_solve(self, capsys):
        rc = main(["solve", "--algo", "capacitated", "--capacity", "2",
                   "--n", "10", "--seed", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["assortment"]) <= 2

    def test_capacity_with_general_algo_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--algo", "exact", "--capacity", "2", "--n", "4",
                  "--num-sets", "5"])

    def test_unknown_algo_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--algo", "magic", "--n", "3", "--num-sets", "3"])

    def test_missing_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--algo", "exact"])

    @pytest.mark.parametrize("algo", ALL_ALGOS)
    def test_every_algo_feasible_in_price_units(self, algo, capsys):
        # prices up to 1000, so an answer left on the normalized scale of
        # approx and bz would be off by the top price
        source = ["--n", "8", "--seed", "6"]
        if algo in CAPACITATED_ALGOS:
            source += ["--capacity", "3"]
        else:
            source += ["--num-sets", "30"]
        assert main(["solve", "--algo", algo, "--eps", "0.1", *source]) == 0
        out = json.loads(capsys.readouterr().out)
        inst, coll = generate_instance(GenSpec(
            n=8, num_sets=None if algo in CAPACITATED_ALGOS else 30, seed=6))
        chosen = Assortment(out["assortment"])
        if algo in CAPACITATED_ALGOS:
            assert len(chosen) <= 3
        else:
            assert chosen in list(coll)
        assert out["revenue"] == pytest.approx(revenue(chosen, inst), rel=1e-12)

    def test_bz_reports_estimate(self, capsys):
        rc = main(["solve", "--algo", "bz", "--n", "6", "--num-sets", "20",
                   "--eps", "0.1", "--bz-rounds", "8", "--seed", "5"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "estimate" in out and out["iterations"] == 8

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "0"], "eps must be positive"),
        (["--price-range", "0", "0"], "top price 0"),
        (["--eps", "nan"], "eps must be positive")])
    def test_bz_boundary_is_a_clean_error(self, flags, message, capsys):
        rc = main(["solve", "--algo", "bz", "--n", "6", "--num-sets", "20",
                   "--seed", "5", *flags])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("algo, flags, message", [
        ("exhaustive", ["--eps", "nan"], "eps must be positive"),
        ("brute_cap", ["--eps", "nan", "--capacity", "2"], "eps must be positive"),
        ("exhaustive", ["--eps", "-1"], "eps must be positive"),
        ("approx", ["--nu", "nan"], "nu must be non-negative"),
        ("exact", ["--nu", "nan"], "nu must be non-negative")])
    def test_settings_checked_for_every_algo(self, algo, flags, message, capsys):
        # checked whether or not the algorithm reads them, so that no printed
        # answer carries a NaN (which is not JSON) or a NaN bracket
        source = [] if "--capacity" in flags else ["--num-sets", "60"]
        rc = main(["solve", "--algo", algo, "--n", "10", *source, *flags])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and message in captured.err

    def test_zero_items_rejected(self, capsys):
        # --n 0 is given, so it is checked, not read as missing
        rc = main(["solve", "--algo", "exact", "--n", "0", "--num-sets", "5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and "n must be positive" in captured.err

    def test_dispatch_is_pinned(self, capsys):
        h = hashlib.sha256()
        for seed in range(3):
            for algo in ALL_ALGOS:
                source = (["--capacity", "4"] if algo in CAPACITATED_ALGOS
                          else ["--num-sets", "150"])
                assert main(["solve", "--algo", algo, "--eps", "0.1", "--n", "12",
                             "--seed", str(seed), *source]) == 0
                out = json.loads(capsys.readouterr().out)
                h.update(repr((out["assortment"], out["revenue"],
                               out["revenue_interval"], out["iterations"])).encode())
        assert h.hexdigest() == _PINNED_DISPATCH_SHA256

    @pytest.mark.parametrize("algo", ["exhaustive", "exact"])
    def test_instance_itemsets_are_read_by_label(self, tmp_path, algo, capsys):
        # the instance keeps its items in price order (30, 20, 10); the
        # itemsets name them by label, so {20, 30} must be scored as such
        save_instance(Instance.from_items([1.0, 5.0, 9.0], [0.5] * 3, 1.0,
                                          item_ids=[10, 20, 30]),
                      tmp_path / "instance.json")
        (tmp_path / "sets.txt").write_text("10\n20 30\n")
        rc = main(["solve", "--algo", algo, "--instance", str(tmp_path / "instance.json"),
                   "--itemsets", str(tmp_path / "sets.txt")])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["assortment"] == [20, 30]
        assert out["revenue"] == pytest.approx(3.5)
        (tmp_path / "sets.txt").write_text("10\n20 40\n")
        rc = main(["solve", "--algo", algo, "--instance", str(tmp_path / "instance.json"),
                   "--itemsets", str(tmp_path / "sets.txt")])
        assert rc == 1 and "item 40" in capsys.readouterr().err

    def test_non_finite_price_is_a_clean_error(self, tmp_path, capsys):
        (tmp_path / "sets.txt").write_text("1\n1 2\n")
        (tmp_path / "prices.csv").write_text("id,price\n1,nan\n2,3.0\n")
        rc = main(["solve", "--algo", "exhaustive", "--itemsets", str(tmp_path / "sets.txt"),
                   "--prices", str(tmp_path / "prices.csv")])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and "row 2" in captured.err

    @pytest.mark.parametrize("payload, message", [
        ({"prices": [2.0, 1.0], "v0": 1.0}, "no 'weights'"),
        ([[2.0, 1.0], [0.5, 0.5], 1.0], "must be a JSON object"),
        ({"prices": [2.0, 1.0], "weights": [0.5, 0.5], "v0": "1"}, "'v0' must be a number"),
        ({"prices": [2.0, 1.0], "weights": [0.5, 0.5], "v0": 1.0, "item_ids": 5},
         "'item_ids' must be a list"),
        ({"prices": [2.0, {}], "weights": [0.5, 0.5], "v0": 1.0},
         "'prices' must be a list of numbers"),
        ({"prices": [2.0, 1.0], "weights": [0.5, 0.5], "v0": 1.0, "item_ids": [1, None]},
         "'item_ids' must be a list of numbers"),
        ({"prices": [2.0, 1.0], "weights": [0.5, 0.5], "v0": True}, "'v0' must be a number")])
    def test_malformed_instance_file_is_a_clean_error(self, tmp_path, capsys,
                                                      payload, message):
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        (tmp_path / "sets.txt").write_text("1\n1 2\n")
        rc = main(["solve", "--algo", "exact", "--instance", str(tmp_path / "bad.json"),
                   "--itemsets", str(tmp_path / "sets.txt")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and message in err


class TestCliBench:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main(["bench", "--algo", "exact,exhaustive", "--runs", "2",
                   "--n", "6", "--num-sets", "20", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 + 2  # per-run rows plus one mean per algo
        assert {r["algo"] for r in rows} == {"exact", "exhaustive"}

    def test_collection_size_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["bench", "--algo", "exact", "--runs", "2", "--n", "8",
                   "--num-sets", "10,30,60", "--seed", "4", "--out", str(out)])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        means = [r for r in rows if r["run_id"] == "mean"]
        assert [r["N"] for r in means] == ["10", "30", "60"]

    def test_nan_eps_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["bench", "--algo", "exhaustive", "--runs", "1", "--n", "5",
                   "--num-sets", "10", "--eps", "nan", "--out", str(out)])
        assert rc == 1 and "eps must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_out_of_range_is_an_error(self, tmp_path, capsys):
        # only the oracle's size guard (n > 25) skips brute force; a capacity
        # above n is the caller's mistake, not an oracle out of its depth
        out = tmp_path / "r.csv"
        rc = main(["bench", "--algo", "brute_cap", "--capacity", "30", "--n", "12",
                   "--runs", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: capacity must lie in 0..12\n"
        assert not out.exists()

    def test_zero_items_rejected(self, tmp_path, capsys):
        # --n 0 must not be replaced by the default of 100 items
        out = tmp_path / "o.json"
        rc = main(["bench", "--algo", "exact", "--runs", "1", "--n", "0",
                   "--num-sets", "5", "--out", str(out), "--format", "json"])
        assert rc == 1 and "n must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_instance_flag_rejected(self, tmp_path, capsys):
        # bench draws or loads its own instance per run, so an instance
        # file must be refused, not silently ignored
        main(["generate", "--n", "7", "--out-dir", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--algo", "capacitated", "--capacity", "2",
                  "--instance", str(tmp_path / "instance.json"),
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code != 0
        assert "--instance" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = main(["bench", "--algo", "capacitated", "--capacity", "3",
                   "--runs", "2", "--n", "12", "--seed", "2",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert all(r["algo"] == "capacitated" for r in rows)


class TestCliGenerate:
    def test_files_written_and_reusable(self, tmp_path, capsys):
        rc = main(["generate", "--n", "5", "--num-sets", "12", "--seed", "7",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 5 and info["N"] == 12
        rc = main(["solve", "--algo", "exact",
                   "--instance", str(tmp_path / "instance.json"),
                   "--itemsets", str(tmp_path / "itemsets.txt")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["N"] == 12

    def test_regeneration_identical(self, tmp_path, capsys):
        main(["generate", "--n", "5", "--num-sets", "8", "--seed", "3",
              "--out-dir", str(tmp_path / "a")])
        main(["generate", "--n", "5", "--num-sets", "8", "--seed", "3",
              "--out-dir", str(tmp_path / "b")])
        capsys.readouterr()
        assert ((tmp_path / "a" / "instance.json").read_text()
                == (tmp_path / "b" / "instance.json").read_text())
        assert ((tmp_path / "a" / "itemsets.txt").read_text()
                == (tmp_path / "b" / "itemsets.txt").read_text())

    def test_infeasible_count_clean_error(self, tmp_path, capsys):
        rc = main(["generate", "--n", "3", "--num-sets", "9",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err
