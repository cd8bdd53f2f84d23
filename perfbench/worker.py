"""One fresh interpreter per set-up or measurement of the pipeline benchmark.

    python3 worker.py setup   --workload W --seed S --work DIR --result FILE
    python3 worker.py measure --workload W --seed S --work DIR --result FILE
                              --seconds N [--trace]

``setup`` times the import of ``bridgeness`` plus building the workload's
inputs. ``measure`` repeats the timed commands through ``bridgeness.cli.main``
until ``--seconds`` have passed and records the peak RSS of this process and
of its children (the ``--workers`` pool). With ``--trace`` every other pass
is traced, so traced and untraced passes see the same conditions.

Around every timed part, ``machine_time`` runs a fixed kernel that does not
use ``bridgeness``, so the caller can scale the times to a nominal machine
speed.

The result is written as JSON to ``--result``; this process's standard
output is the CLI's own and is not read.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import statistics
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads
from checks import sha256

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    import bridgeness
    import bridgeness.cli

    if Path(bridgeness.__file__).resolve().parent != SRC / "bridgeness":
        raise SystemExit(f"imported bridgeness from {bridgeness.__file__}, not from {SRC}")
    return bridgeness.cli


def _kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls,
    the kind of work the pipeline's layers do; only the time is used."""
    import numpy as np  # after the timed import of bridgeness, which loads it

    start = time.perf_counter()
    a = np.arange(2000) % 997
    acc = 0
    for i in range(600):
        acc += int(np.unique(a[i % 7::3]).sum())
        d = {}
        for k in range(30):
            d[k] = k * i
    return time.perf_counter() - start


def machine_time() -> float:
    """Median of eight kernel runs; it tracks how fast the machine is now."""
    return statistics.median(_kernel() for _ in range(8))


def run_commands(cli, argvs: list[list[str]]) -> list[int]:
    """Exit code of each command, as the ``bridgeness`` script would return it."""
    codes = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits the script with 1
            traceback.print_exc()
            code = 1
        codes.append(code)
    return codes


def setup(w: workloads.Workload, seed: int, work: Path) -> dict:
    start = time.perf_counter()
    cli = import_cli()
    imported = time.perf_counter()
    if w.grid:
        workloads.write_grid(work / "grid.edges", workloads.GRID_SIDE, workloads.input_seed(seed))
    codes = run_commands(cli, w.commands(w.setup, work, seed))
    end = time.perf_counter()
    return {
        "import_s": imported - start,
        "build_s": end - imported,
        "machine_s": machine_time(),
        "codes": codes,
        "sha256": {f: sha256(work / f) for f in w.setup_outputs},
    }


def measure(w: workloads.Workload, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    cli = import_cli()
    if trace:
        from tracing import Tracer
    commands = w.commands(w.timed, work, seed)
    passes = []
    before = machine_time()
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        with tracer.installed(cli) if tracer else nullcontext():
            t0 = time.perf_counter()
            codes = run_commands(cli, commands)
            elapsed = time.perf_counter() - t0
        after = machine_time()
        record = {"traced": tracer is not None, "pipeline_s": elapsed,
                  "machine_s": (before + after) / 2, "codes": codes,
                  "sha256": {f: sha256(work / f) for f in w.timed_outputs}}
        before = after
        if tracer:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        passes.append(record)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            break
    result = {"passes": passes}
    if trace and w.workers > 1:
        result["serial_s"] = _serial_sweep(work / w.sweep_input)
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = rss_kib / 1024.0
    return result


def _serial_sweep(edges: Path) -> float:
    """Seconds for the exact decomposition of ``edges`` with one worker."""
    from bridgeness.centrality import bridgeness_exact
    from bridgeness.graph import load_edge_list

    with open(edges, encoding="utf-8") as fh:
        graph, _ = load_edge_list(fh)
    t0 = time.perf_counter()
    bridgeness_exact(graph, workers=1)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(w, args.seed, args.work)
    else:
        result = measure(w, args.seed, args.work, args.seconds, args.trace)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
