import csv
import json

import pytest

from assortmax import (Assortment, BenchConfig, GenSpec, generate_instance,
                       revenue, run_bench)
from assortmax.bench import ALL_ALGOS, CAPACITATED_ALGOS
from assortmax.cli import main


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

    def test_thread_pool_matches_serial(self, monkeypatch):
        cfg = BenchConfig(algorithms=("exact",), runs=4, n=6, num_sets=15,
                          seed=5)
        serial, _ = run_bench(cfg)
        monkeypatch.setenv("ASSORTMAX_THREADS", "3")
        threaded, _ = run_bench(cfg)
        assert [(r.run_id, r.revenue) for r in serial] == \
               [(r.run_id, r.revenue) for r in threaded]


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


class TestCliBench:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main(["bench", "--algo", "exact,exhaustive", "--runs", "2",
                   "--n", "6", "--num-sets", "20", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2 * 2 + 2  # per-run rows plus one mean per algo
        assert {r["algo"] for r in rows} == {"exact", "exhaustive"}

    def test_collection_size_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["bench", "--algo", "exact", "--runs", "2", "--n", "8",
                   "--num-sets", "10,30,60", "--seed", "4", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        means = [r for r in rows if r["run_id"] == "mean"]
        assert [r["N"] for r in means] == ["10", "30", "60"]

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
