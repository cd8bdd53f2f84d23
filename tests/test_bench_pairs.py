import importlib.util
import json
from pathlib import Path

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
            {"name": "pipeline_s", "better": "lower"},
            {"name": "score", "better": "higher"}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        fast = checkout == change
        return {"failed": 0, "environment": {"nproc": 2}, "metrics": {
            "pipeline_s": {"value": seed + (1.0 if fast else 2.0)},
            "score": {"value": 1.0}}, "raw": {"wall_s": 0.5 * seed, "kernel_s": 0.05}}

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


def test_raw_medians_read_the_passes_line():
    line = ("passes: 3, of which traced 0; wall seconds per pass 1.300, 1.200, 1.250; "
            "calibration kernel seconds 0.0522, 0.0530, 0.0510")
    assert bench_pairs.raw_medians(line) == {"wall_s": 1.25, "kernel_s": 0.0522}
