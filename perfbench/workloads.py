"""Workloads of the pipeline benchmark.

Each workload is a sequence of ``bridgeness`` CLI commands. The ``setup``
commands build the inputs and count towards ``setup_s``; the ``timed``
commands are the sequence whose time is ``pipeline_s``. Templates are
split on whitespace before ``{work}``, ``{gen}`` and ``{workers}`` are
filled in, so a work directory whose path holds spaces still works.

Why each workload exists is recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# reference.json holds the outputs of every workload for input seeds
# 0..INPUT_SEEDS-1, recorded from the unmodified library; a benchmark seed
# selects one of them modulo this count.
INPUT_SEEDS = 16

GRID_SIDE = 30


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    # files (relative to the work directory) whose bytes are checked
    setup_outputs: tuple[str, ...]
    timed_outputs: tuple[str, ...]
    # worker count of the centrality command, 0 when no centrality runs
    workers: int = 0
    # edge list the centrality command reads
    sweep_input: str | None = None
    grid: bool = False

    def commands(self, templates: tuple[str, ...], work: Path, seed: int) -> list[list[str]]:
        values = {"work": str(work), "gen": input_seed(seed), "workers": self.workers}
        return [[tok.format(**values) for tok in t.split()] for t in templates]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lfr-3k-evaluate",
            setup=("generate --n 3000 --communities 90 --mu 0.2 --seed {gen} "
                   "--output-prefix {work}/net",),
            timed=("evaluate --input {work}/net.edges --partition {work}/net.communities.csv "
                   "--workers {workers} --output-dir {work}/eval",),
            setup_outputs=("net.edges", "net.communities.csv"),
            timed_outputs=("eval/g_scores.csv",),
            workers=2,
            sweep_input="net.edges",
        ),
        Workload(
            name="lfr-10k-prep",
            setup=(),
            timed=(
                "generate --n 10000 --communities 300 --mu 0.2 --seed {gen} "
                "--output-prefix {work}/net",
                "communities --input {work}/net.edges --seed {gen} --output {work}/louvain.csv",
                "indicator --input {work}/net.edges --partition {work}/net.communities.csv "
                "--output {work}/g.csv",
            ),
            setup_outputs=(),
            timed_outputs=("net.edges", "net.communities.csv", "louvain.csv", "g.csv"),
        ),
        Workload(
            name="grid-deep",
            setup=(),
            timed=("centrality --input {work}/grid.edges --output {work}/scores.csv "
                   "--variant si-compat --workers {workers}",),
            setup_outputs=(),
            timed_outputs=("scores.csv",),
            workers=1,
            sweep_input="grid.edges",
            grid=True,
        ),
    )
}


def write_grid(path: Path, side: int, seed: int) -> None:
    """Edge list of a side x side grid.

    The seed permutes the node labels, the line order and the orientation
    of each edge, so every seed gives the same graph under another
    numbering.
    """
    rng = random.Random(seed)
    n = side * side
    label = list(range(n))
    rng.shuffle(label)
    edges = [(v, v + 1) for v in range(n) if (v + 1) % side]
    edges += [(v, v + side) for v in range(n - side)]
    rng.shuffle(edges)
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in edges:
            if rng.random() < 0.5:
                u, v = v, u
            fh.write(f"{label[u]} {label[v]}\n")
