"""tools/ab_pairs.py: the per-metric summary of alternating pairs, on canned
result lines, and the command's run order and exit status with run.py's
processes replaced by canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(correct=True, **values):
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


BETTER = {"customers_per_s": "higher", "peak_rss_mb": "lower"}


def test_medians_quartiles_and_wins(ab):
    results = {"before": [line(customers_per_s=v, peak_rss_mb=m, extra=1.0)
                          for v, m in [(40, 372), (42, 372), (41, 373), (44, 371), (43, 372)]],
               "after": [line(customers_per_s=v, peak_rss_mb=m, extra=2.0)
                         for v, m in [(55, 372), (42, 371), (56, 372), (54, 372), (57, 373)]]}
    summary = ab.summarize(results, BETTER)
    after, before = summary["after"]["customers_per_s"], summary["before"]["customers_per_s"]
    assert (before["median"], before["q1"], before["q3"]) == (42, 41, 43)
    assert (after["median"], after["q1"], after["q3"]) == (55, 54, 56)
    # pair 1 ties: it counts for neither side
    assert (after["wins"], before["wins"], after["pairs"]) == (4, 0, 5)
    rss_after, rss_before = summary["after"]["peak_rss_mb"], summary["before"]["peak_rss_mb"]
    # lower is better: pair 0 ties, after wins pairs 1 and 2, before 3 and 4
    assert (rss_after["wins"], rss_before["wins"]) == (2, 2)
    assert summary["after"]["extra"]["wins"] is None  # no direction declared
    assert summary["after"]["extra"]["unit"] == "u"


def test_one_pair_and_metrics_missing_from_a_run(ab):
    results = {"before": [line(customers_per_s=3.0, only_here=1.0)],
               "after": [line(customers_per_s=2.0)]}
    summary = ab.summarize(results, BETTER)
    assert set(summary["after"]) == {"customers_per_s"}
    got = summary["before"]["customers_per_s"]
    assert (got["median"], got["q1"], got["q3"], got["wins"]) == (3.0, 3.0, 3.0, 1)


def test_directions_come_from_benchmark_json(ab):
    better = ab.directions(ROOT / "BENCHMARK.json")
    assert better["customers_per_s"] == "higher" and better["peak_rss_mb"] == "lower"
    assert better["oracles.scan_entries_per_s"] == "higher"


@pytest.mark.parametrize("wrong", [False, True])
def test_pairs_alternate_and_a_wrong_run_fails(ab, tmp_path, monkeypatch, wrong):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append(Path(checkout).name)
        bad = wrong and len(calls) == 4
        return {"report": {"workload": workload},
                "result": line(not bad, customers_per_s=float(len(calls)))}

    monkeypatch.setattr(ab, "run_once", fake_run)
    before, after = tmp_path / "before", tmp_path / "after"
    after.mkdir()
    (after / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "customers_per_s", "better": "higher"}]}))
    code = ab.main(["--before", str(before), "--after", str(after),
                    "--workload", "customers-6b", "--seed", "1", "--seconds", "1",
                    "--pairs", "3", "--tag", "t", "--out-dir", str(tmp_path / "out")])
    assert code == (1 if wrong else 0)
    assert calls == ["before", "after", "after", "before", "before", "after"]
    docs = {side: json.loads((tmp_path / "out" / f"BENCH_t-{side}.json").read_text())
            for side in ("before", "after")}
    assert [r["first"] for r in docs["before"]["runs"]] == [True, False, True]
    assert [r["result"]["metrics"]["customers_per_s"]["value"]
            for r in docs["after"]["runs"]] == [2.0, 3.0, 6.0]
    # after ran second, first, second: values 2, 3, 6 against 1, 4, 5
    assert docs["after"]["summary"]["customers_per_s"]["wins"] == 2
    assert docs["before"]["summary"]["customers_per_s"]["wins"] == 1


def test_solver_medians_are_summarised_without_wins(ab, tmp_path, monkeypatch, capsys):
    scans = iter([12.0, 10.0, 13.0, 11.0, 12.5, 10.5])  # before, after, after, before, ...

    def fake_run(checkout, workload, seed, seconds, trace):
        scan = next(scans)
        solvers = {"scan_ms.p50": {"value": scan, "unit": "ms", "samples": 9},
                   "scan_ms.p90": {"value": 2 * scan, "unit": "ms", "samples": 9},
                   "fail_rate": {"value": 0.0, "unit": "ratio"}}
        if Path(checkout).name == "after":  # a solver only one side reports
            solvers["hashed_ms.p50"] = {"value": 1.0, "unit": "ms", "samples": 9}
        return {"report": {"workload": workload, "solvers": solvers},
                "result": line(customers_per_s=1.0)}

    monkeypatch.setattr(ab, "run_once", fake_run)
    before, after = tmp_path / "before", tmp_path / "after"
    after.mkdir()
    (after / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "customers_per_s", "better": "higher"}]}))
    assert ab.main(["--before", str(before), "--after", str(after),
                    "--workload", "customers-6b", "--seed", "1", "--seconds", "1",
                    "--pairs", "3", "--tag", "t", "--out-dir", str(tmp_path)]) == 0
    docs = {side: json.loads((tmp_path / f"BENCH_t-{side}.json").read_text())
            for side in ("before", "after")}
    # only the p50 entries that every report carries
    assert set(docs["after"]["solvers"]) == set(docs["before"]["solvers"]) == {"scan_ms.p50"}
    got = {side: docs[side]["solvers"]["scan_ms.p50"] for side in docs}
    assert (got["before"]["median"], got["before"]["q1"], got["before"]["q3"]) == (12.0, 11.5, 12.25)
    assert (got["after"]["median"], got["after"]["q1"], got["after"]["q3"]) == (10.5, 10.25, 11.75)
    assert got["after"]["wins"] is got["before"]["wins"] is None
    assert got["after"]["unit"] == "ms" and got["after"]["pairs"] == 3
    # the result-line summary is unchanged by them
    assert set(docs["after"]["summary"]) == {"customers_per_s"}
    out = capsys.readouterr().out
    assert "scan_ms.p50: median 12 -> 10.5 (before IQR 11.5..12.25)\n" in out
    assert "customers_per_s: median 1 -> 1 (before IQR 1..1); after won 0 of 3 pairs" in out


BEFORE = [40, 41, 42, 43, 44, 40, 41, 42, 43, 44]  # median 42, IQR 41..43


@pytest.mark.parametrize("name, before, after, verdict", [
    # 9 of 10 pairs won, median 50 against 42: the gap 8 exceeds the IQR 2
    ("customers_per_s", BEFORE, [50] * 9 + [30], "gain"),
    # 9 of 10 won, but the median gap 1 is inside the before IQR
    ("customers_per_s", BEFORE, [b + 1 for b in BEFORE[:9]] + [30], "within bound"),
    # a wide gap, but only 8 of 10 won
    ("customers_per_s", BEFORE, [50] * 8 + [30, 30], "within bound"),
    # 30% below a median 42, past the 25% bound
    ("customers_per_s", BEFORE, [0.7 * b for b in BEFORE], "worse than bound"),
    # lower is better: 4% more is within the 5% bound, 6% more is not
    ("peak_rss_mb", [100] * 10, [104] * 10, "within bound"),
    ("peak_rss_mb", [100] * 10, [106] * 10, "worse than bound"),
    ("peak_rss_mb", [100 + i % 2 for i in range(10)], [90] * 10, "gain"),
    ("extra", BEFORE, [50] * 10, None),  # no bound: no verdict
])
def test_verdicts(ab, name, before, after, verdict):
    results = {"before": [line(**{name: v}) for v in before],
               "after": [line(**{name: v}) for v in after]}
    summary = ab.summarize(results, BETTER, {"customers_per_s": 0.25, "peak_rss_mb": 0.05})
    assert summary["after"][name]["verdict"] == summary["before"][name]["verdict"] == verdict


def test_verdicts_are_printed_and_recorded(ab, tmp_path, monkeypatch, capsys):
    values = iter([40.0, 50.0, 51.0, 41.0, 42.0, 52.0])  # before, after, after, before, ...

    def fake_run(checkout, workload, seed, seconds, trace):
        return {"report": {"workload": workload},
                "result": line(customers_per_s=next(values), peak_rss_mb=100.0)}

    monkeypatch.setattr(ab, "run_once", fake_run)
    before, after = tmp_path / "before", tmp_path / "after"
    after.mkdir()
    (after / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "customers_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))
    assert ab.main(["--before", str(before), "--after", str(after),
                    "--workload", "noisy-12k", "--seed", "1", "--seconds", "1",
                    "--pairs", "3", "--tag", "t", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert ("customers_per_s: median 41 -> 51 (before IQR 40.5..41.5); "
            "after won 3 of 3 pairs; gain\n") in out
    assert ("peak_rss_mb: median 100 -> 100 (before IQR 100..100); "
            "after won 0 of 3 pairs; within bound\n") in out
    for side in ("before", "after"):
        doc = json.loads((tmp_path / f"BENCH_t-{side}.json").read_text())
        assert doc["summary"]["customers_per_s"]["verdict"] == "gain"
