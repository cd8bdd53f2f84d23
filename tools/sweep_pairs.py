"""Alternate in-process engine sweeps of two checkouts over fixed graphs.

    python3 tools/sweep_pairs.py PARENT_DIR CHANGE_DIR

For each graph and each of ``ROUNDS`` rounds, runs a fresh interpreter on
each checkout's ``src`` (the change first on every other round). It builds
the graph, times one serial exact sweep, ``_brandes_accumulate(graph,
workers=1)``, and reports the time per source and a SHA-256 of the
accumulators. The graphs are a 3000-node path, a ladder of 1000 layers of 2 nodes, 30x30 and
60x60 grids with labels permuted by seed 0, and the LFR graph of
``generate --n 3000 --communities 90 --mu 0.2 --seed 3``. Per graph it
prints each side's median ms per source and the rounds in which the
change was faster. The child also reports the CPU seconds of its sweep
(``time.process_time``). As in ``tools/bench_pairs.py``, a round whose
CPU/wall is below ``FLAG_BELOW`` of its side's median for that graph is
flagged: it waited for the CPU, most likely behind other processes.
Flagged rounds are named and kept in every median. It exits 1 if the two
sides' digests differ on any graph; timings are then printed but say
nothing about a like-for-like change.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

GRAPHS = ("path3000", "ladder2x1000", "grid30", "grid60", "lfr3000")
ROUNDS = 8  # fixed, so that timings compare between changes
FLAG_BELOW = 0.85  # of the side's median CPU/wall

CHILD = """\
import hashlib, json, sys, time
import numpy as np
from bridgeness import Graph, LfrConfig, generate
from bridgeness.centrality import _brandes_accumulate

def grid(side):
    label = np.random.default_rng(0).permutation(side * side)
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range(side * side - side)]
    return Graph.from_edges(side * side, [(int(label[u]), int(label[v])) for u, v in edges])

name = sys.argv[1]
if name == "path3000":
    graph = Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])
elif name == "ladder2x1000":
    graph = Graph.from_edges(2000, [(2 * i + a, 2 * i + 2 + b)
                                    for i in range(999) for a in range(2) for b in range(2)])
elif name.startswith("grid"):
    graph = grid(int(name[4:]))
else:
    graph = generate(LfrConfig(n=3000, communities=90, mu=0.2, seed=3)).graph
cpu, start = time.process_time(), time.perf_counter()
sums = _brandes_accumulate(graph, workers=1)
seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
print(json.dumps({"ms_per_source": 1e3 * seconds / graph.node_count,
                  "wall_s": seconds, "cpu_s": cpu,
                  "digest": hashlib.sha256(sums.tobytes()).hexdigest()}))
"""


def sweep(checkout: Path, graph: str) -> dict:
    """One timed sweep of ``graph`` in a fresh interpreter on ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, graph], capture_output=True, text=True,
                          check=False, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {graph} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def flagged_rounds(runs: list[dict]) -> list[int]:
    """Rounds (from 1) whose CPU/wall is below ``FLAG_BELOW`` of the median."""
    ratios = [run["cpu_s"] / run["wall_s"] for run in runs]
    median = statistics.median(ratios)
    return [i for i, ratio in enumerate(ratios, start=1) if ratio < FLAG_BELOW * median]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    same = True
    for graph in GRAPHS:
        runs = {side: [] for side in sides}
        for i in range(ROUNDS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(sweep(sides[side], graph))
        digests = {run["digest"] for side in sides for run in runs[side]}
        same &= len(digests) == 1
        ms = {side: [run["ms_per_source"] for run in runs[side]] for side in sides}
        wins = sum(c < p for p, c in zip(ms["parent"], ms["change"]))
        parent, change = (statistics.median(ms[side]) for side in sides)
        flags = "".join(f", {side} CPU/wall low in rounds {rounds} (kept)"
                        for side in sides if (rounds := flagged_rounds(runs[side])))
        print(f"{graph}: parent {parent:.3f} ms/source, change {change:.3f} ms/source "
              f"({change / parent:.2f}x){flags}, change faster in {wins}/{ROUNDS}"
              + ("" if len(digests) == 1 else ", DIGESTS DIFFER"), flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
