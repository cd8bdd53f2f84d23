"""Self-tests of the pipeline benchmark: its checks catch bad outputs, and a
traced pass yields every per-layer metric BENCHMARK.json lists.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_grid  # noqa: E402

GRID = WORKLOADS["grid-deep"]


@pytest.fixture(scope="module")
def grid_pass(tmp_path_factory):
    """A small grid run through the grid workload's timed command."""
    work = tmp_path_factory.mktemp("grid")
    write_grid(work / "grid.edges", 6, seed=3)
    cli = worker.import_cli()
    codes = worker.run_commands(cli, GRID.commands(GRID.timed, work, 3))
    return work, {"codes": codes, "sha256": {"scores.csv": checks.sha256(work / "scores.csv")}}


def _check_grid(work: Path, passes: list[dict], recorded: dict) -> run.Tally:
    """Check passes of the small grid against ``recorded`` as its reference."""
    tally = run.Tally()
    run.check_outputs(GRID, 3, work, {"sha256": recorded["sha256"]}, [], passes, tally)
    return tally


def test_grid_output_passes(grid_pass):
    work, record = grid_pass
    tally = _check_grid(work, [record], record)
    assert tally.attempted == 3
    assert tally.problems == []


def test_perturbed_score_counts_as_failure(grid_pass, tmp_path):
    work, record = grid_pass
    copy = tmp_path / "copy"
    shutil.copytree(work, copy)
    lines = (copy / "scores.csv").read_text(encoding="utf-8").splitlines()
    node, degree, bc, bri, local = lines[1].split(",")
    lines[1] = ",".join([node, degree, repr(float(bc) * (1 + 1e-6)), bri, local])
    (copy / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    perturbed = dict(record, sha256={"scores.csv": checks.sha256(copy / "scores.csv")})
    tally = _check_grid(copy, [perturbed], record)
    assert tally.attempted == 3
    # the bytes differ from the recorded ones, and the file fails bc = bri + local
    assert len(tally.problems) == 2
    assert any("bc" in p and f"node {node}" in p for p in tally.problems)


def test_nonzero_exit_counts_as_failure(grid_pass):
    work, record = grid_pass
    tally = _check_grid(work, [dict(record, codes=[1])], record)
    assert len(tally.problems) == 1 and "exit code 1" in tally.problems[0]


def test_recorded_digest_and_metrics_checks(tmp_path):
    w = WORKLOADS["lfr-3k-evaluate"]
    reference = run.load_reference(w, 0)
    (tmp_path / "net.edges").write_text("0 1\n", encoding="utf-8")
    assert checks.digest_problem("net.edges", checks.sha256(tmp_path / "net.edges"),
                                 reference["sha256"]["net.edges"])
    metrics = dict(reference["metrics"])
    (tmp_path / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
    assert checks.metrics_problem(tmp_path / "metrics.json", reference["metrics"]) is None
    metrics["curve_advantage_bridgeness_vs_bc"] *= 1 + 1e-6
    (tmp_path / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
    assert checks.metrics_problem(tmp_path / "metrics.json", reference["metrics"])


def test_traced_pass_gives_every_per_layer_metric(grid_pass, tmp_path):
    work, _ = grid_pass
    cli = worker.import_cli()
    small = [
        f"generate --n 300 --communities 10 --mu 0.2 --seed 1 --output-prefix {tmp_path}/net",
        f"communities --input {tmp_path}/net.edges --seed 1 --output {tmp_path}/louvain.csv",
        f"evaluate --input {tmp_path}/net.edges --partition {tmp_path}/louvain.csv "
        f"--workers 1 --output-dir {tmp_path}/eval",
    ]
    tracer = Tracer()
    with tracer.installed(cli):
        codes = worker.run_commands(cli, [c.split() for c in small]
                                    + GRID.commands(GRID.timed, work, 3))
    assert codes == [0, 0, 0, 0]
    assert cli.main.__module__ == "bridgeness.cli"  # wrappers removed again
    machine_s = run.NOMINAL_MACHINE_S
    passes = [
        {"traced": False, "pipeline_s": 1.0, "machine_s": machine_s},
        {"traced": True, "pipeline_s": 1.1, "machine_s": machine_s,
         "spans": tracer.spans, "counts": tracer.counts},
    ]
    tally = run.Tally()
    values = run.per_layer(GRID, work, {}, {"passes": passes}, tally)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert values["centrality.sweeps"] == 3  # evaluate once, si-compat twice
    # levels of the workload's sweep input (a 6 x 6 grid: sum of ecc + 1 over
    # its nodes) times the sweeps counted
    assert values["centrality.levels_swept"] == 3 * sum(
        max(i, 5 - i) + max(j, 5 - j) + 1 for i in range(6) for j in range(6))
    assert values["community.passes"] >= 1 and 0 < values["community.modularity"] < 1
    communities = {line.split(",")[1] for line in
                   (tmp_path / "louvain.csv").read_text(encoding="utf-8").splitlines()}
    assert values["indicator.touches_bytes"] == 300 * len(communities)
    assert values["netgen.rewired_nodes"] > 0 and values["graph.edges"] > 0
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * 4
    total = sum(s["end"] - s["start"] for s in roots)
    self_total = sum(values[f"{layer}.self_s"] for layer in
                     ("graph", "netgen", "centrality", "indicator", "community",
                      "evaluation", "cli"))
    assert self_total == pytest.approx(total, rel=1e-9)
    assert values["trace.overhead_s"] == pytest.approx(0.1)
