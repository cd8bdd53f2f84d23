import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_range():
    assert bench_pairs.seed_range("3-6") == [3, 4, 5, 6]
    assert bench_pairs.seed_range("7") == [7]


def test_pairs_alternate_and_summarize(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7, "end_to_end": [
            {"name": "pipeline_s", "better": "lower", "bound": 0.25},
            {"name": "score", "better": "higher", "bound": 0.05}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        fast = checkout == change
        return {"failed": 0, "environment": {"nproc": 2}, "metrics": {
            "pipeline_s": {"value": seed + (1.0 if fast else 2.0)},
            "score": {"value": 1.0}}, "raw": {"wall_s": 0.5 * seed, "kernel_s": 0.05},
            "passes": 10 + seed if fast else 8,
            "usage": {"wall_s": 2.0, "cpu_s": 0.5 if seed == 3 else 2.0}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    for workload in ("a", "b"):
        assert bench_pairs.main([str(parent), str(change), "--workload", workload,
                                 "--seeds", "1-4", "--label", "t"]) == 0
    assert calls[:4] == [("parent", 1, 7), ("change", 1, 7), ("change", 2, 7), ("parent", 2, 7)]
    data = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert data["workloads"]["a"]["seconds"] == 7
    assert sorted(data["workloads"]) == ["a", "b"]
    pipeline = data["workloads"]["a"]["metrics"]["pipeline_s"]
    assert pipeline["change_better_pairs"] == "4/4"
    assert pipeline["parent"]["runs"] == [3.0, 4.0, 5.0, 6.0]
    assert pipeline["parent"]["median"] == 4.5
    assert data["workloads"]["a"]["metrics"]["score"]["change_better_pairs"] == "0/4"
    raw = data["workloads"]["a"]["raw_per_pass"]["change"]
    assert raw["wall_s"]["runs"] == [0.5, 1.0, 1.5, 2.0]
    assert raw["kernel_s"]["median"] == 0.05
    passes = data["workloads"]["a"]["passes"]
    assert passes["change"]["runs"] == [11, 12, 13, 14]
    assert passes["change"]["median"] == 12.5
    assert passes["parent"]["median"] == 8
    usage = data["workloads"]["a"]["usage"]["parent"]
    assert usage["flagged_seeds"] == [3]
    assert [r["cpu_per_wall"] for r in usage["runs"]] == [1.0, 1.0, 0.25, 1.0]


def test_failed_checks_are_printed_and_exit_1(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": "pipeline_s", "better": "lower", "bound": 0.25}]}))

    def fake_run(checkout, workload, seed, seconds):
        failed = 2 if checkout == change and seed in (2, 4) else 0
        return {"failed": failed, "environment": None, "metrics": {"pipeline_s": {"value": 1.0}},
                "raw": {"wall_s": 1.0, "kernel_s": 0.05}, "passes": 3,
                "usage": {"wall_s": 1.0, "cpu_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seeds", "1-4", "--label", "t"]) == 1
    err = capsys.readouterr().err
    assert err == "change: failed checks on seeds [2, 4]\n"
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    assert record["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 2, 0, 2]}


STUB_RUN = """\
import json, sys, time
seed = int(sys.argv[sys.argv.index("--seed") + 1])
end = time.perf_counter() + 0.6
while time.perf_counter() < end:
    pass
print('environment {"nproc": 1}')
print(f"passes: {seed + 1}, of which traced 0; wall seconds per pass 0.600; "
      "calibration kernel seconds 0.0500")
print(json.dumps({"failed": 0, "metrics": {"pipeline_s": {"value": 0.6}}}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_usage_flags_a_run_that_waits_and_keeps_it(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": "pipeline_s", "better": "lower", "bound": 0.25}]}))
    real_run = bench_pairs.run

    def run_beside_a_hog(checkout, workload, seed, seconds):
        """Seed 2's runs share their CPU with a busy loop, as behind other processes."""
        if seed != 2:
            return real_run(checkout, workload, seed, seconds)
        hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            return real_run(checkout, workload, seed, seconds)
        finally:  # reaped before the next run reads its children's CPU time
            hog.kill()
            hog.wait()

    monkeypatch.setattr(bench_pairs, "run", run_beside_a_hog)
    monkeypatch.chdir(tmp_path)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the runs and the hog inherit the one CPU
    try:
        assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                 "--workload", "w", "--seeds", "1-3", "--label", "t"]) == 0
    finally:
        os.sched_setaffinity(0, cpus)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    for side in ("parent", "change"):
        usage = record["usage"][side]
        assert [r["seed"] for r in usage["runs"]] == [1, 2, 3]
        assert all(r["wall_s"] >= 0.6 for r in usage["runs"])
        waited = usage["runs"][1]
        assert waited["cpu_s"] < 0.75 * waited["wall_s"]
        assert usage["flagged_seeds"] == [2]
        assert len(record["metrics"]["pipeline_s"][side]["runs"]) == 3  # flagged, still kept
        assert record["passes"][side]["runs"] == [2, 3, 4]  # parsed from each run's output


PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # IQR 0.9, median 10.9


def verdict(direction, parent, change):
    return bench_pairs.verdict(direction, 0.05, bench_pairs.summary(parent),
                               bench_pairs.summary(change))


@pytest.mark.parametrize("change, wins_9, beyond_iqr, within", [
    ([p - 1.0 for p in PARENT], True, True, True),  # 10/10, median gain 1.0 > 0.9
    ([p - 0.5 for p in PARENT], True, False, True),  # 10/10, gain 0.5 inside the IQR
    ([p - 1.0 for p in PARENT[:8]] + PARENT[8:], False, True, True),  # 8 wins, 2 ties
    ([p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 5], True, True, True),  # 9 wins, 1 loss
    ([p + 0.5 for p in PARENT], False, False, True),  # 0.5 worse: inside 5% of 10.9
    ([p + 0.6 for p in PARENT], False, False, False),  # 0.6 worse: beyond 5% of 10.9
])
def test_verdict_tests_each_rule_on_both_sides(change, wins_9, beyond_iqr, within):
    v = verdict("lower", PARENT, change)
    assert (v["wins_9_of_10"], v["gain_exceeds_iqr"], v["within_bound"]) == (
        wins_9, beyond_iqr, within)
    assert v["parent_iqr"] == pytest.approx(0.9)
    assert v["wins"] + v["losses"] + v["ties"] == len(PARENT)


def test_verdict_for_a_higher_is_better_metric_and_its_line():
    higher = verdict("higher", PARENT, [p + 1.0 for p in PARENT])
    assert (higher["wins"], higher["losses"], higher["ties"]) == (10, 0, 0)
    assert higher["gain_exceeds_iqr"] and higher["within_bound"]
    lower = verdict("higher", PARENT, [p - 0.6 for p in PARENT])
    assert (lower["wins"], lower["losses"], lower["within_bound"]) == (0, 10, False)
    tied = verdict("lower", PARENT, PARENT)
    assert (tied["ties"], tied["wins_9_of_10"], tied["within_bound"]) == (10, False, True)
    assert bench_pairs.verdict_line("x", higher) == (
        "x: better in 10/10 pairs (0 worse, 0 tied), 9/10 yes; median gain 1 against parent "
        "IQR 0.9, beyond it yes; within the 0.05 bound yes")


def test_main_prints_and_records_each_verdict(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))

    def fake_run(checkout, workload, seed, seconds):
        value = PARENT[seed - 1] - (1.0 if checkout.name == "change" else 0.0)
        return {"failed": 0, "environment": None, "metrics": {"peak_rss_mb": {"value": value}},
                "raw": {"wall_s": 1.0, "kernel_s": 0.05}, "passes": 3,
                "usage": {"wall_s": 1.0, "cpu_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--seeds", "1-10", "--label", "t"]) == 0
    out = capsys.readouterr().out
    assert "peak_rss_mb: better in 10/10 pairs (0 worse, 0 tied), 9/10 yes;" in out
    metric = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]["metrics"][
        "peak_rss_mb"]
    assert metric["change_better_pairs"] == "10/10"
    assert metric["verdict"]["gain_exceeds_iqr"] and metric["verdict"]["within_bound"]


PASSES_LINE = ("passes: 3, of which traced 0; wall seconds per pass 1.300, 1.200, 1.250; "
               "calibration kernel seconds 0.0522, 0.0530, 0.0510")


def test_raw_medians_read_the_passes_line():
    assert bench_pairs.raw_medians(PASSES_LINE) == {"wall_s": 1.25, "kernel_s": 0.0522}


def test_pass_count_reads_the_passes_line():
    assert bench_pairs.pass_count(PASSES_LINE) == 3
    assert bench_pairs.pass_count("passes: 12, of which traced 1; wall seconds per pass") == 12
