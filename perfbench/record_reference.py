"""Record the outputs the benchmark checks the workloads against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs the set-up and timed commands of every workload once per input seed
0..INPUT_SEEDS-1 and writes ``reference.json``: SHA-256 of the checked
files, the values of ``metrics.json`` and the networkx modularity of the
Louvain partition.
Run it only on a commit whose outputs are known to be right; a change that
alters any of these bytes on purpose records them again and says why.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import worker
import workloads

HERE = Path(__file__).resolve().parent


def record(w: workloads.Workload, seed: int, work: Path) -> dict:
    cli = worker.import_cli()
    if w.grid:
        workloads.write_grid(work / "grid.edges", workloads.GRID_SIDE, seed)
    codes = worker.run_commands(cli, w.commands(w.setup + w.timed, work, seed))
    if any(codes):
        raise SystemExit(f"{w.name} seed {seed}: exit codes {codes}")
    entry = {"sha256": {f: checks.sha256(work / f) for f in w.setup_outputs + w.timed_outputs}}
    if (work / "eval" / "metrics.json").is_file():
        entry["metrics"] = json.loads((work / "eval" / "metrics.json").read_text(encoding="utf-8"))
    if (work / "louvain.csv").is_file():
        entry["modularity"] = checks.modularity(work / "net.edges", work / "louvain.csv")
    return entry


def main() -> int:
    reference: dict = {}
    for w in workloads.WORKLOADS.values():
        reference[w.name] = {}
        for seed in range(workloads.INPUT_SEEDS):
            work_root = HERE.parent / ".perfbench_work"
            work_root.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=work_root) as tmp:
                reference[w.name][str(seed)] = record(w, seed, Path(tmp))
            print(w.name, seed, file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
