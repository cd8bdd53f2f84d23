"""Community-based global bridging indicator and inter-community link stats.

Given a partition, the indicator G(i) sums, over every foreign community J
that node i touches with at least one edge, the inverse of the total number
of links between i's community and J. Nodes with only intra-community links
get G = 0; the sole link between two communities scores a full 1.0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import Graph, NodeTable, Partition


@dataclass(frozen=True)
class GlobalIndicatorResult:
    """Per-node G scores; zero exactly for nodes with no inter-community edge."""

    g: np.ndarray


def _check_cover(graph: Graph, partition: Partition) -> None:
    if len(partition) != graph.node_count:
        raise ValueError(
            f"partition covers {len(partition)} nodes, graph has {graph.node_count}"
        )


def community_link_matrix(graph: Graph, partition: Partition) -> np.ndarray:
    """Symmetric C x C inter-community link counts; internal counts on the diagonal."""
    _check_cover(graph, partition)
    c = partition.community_count
    counts = np.zeros((c, c), dtype=np.int64)
    if graph.edge_count:
        cu = partition.labels[graph.edges[:, 0]]
        cv = partition.labels[graph.edges[:, 1]]
        same = cu == cv
        np.add.at(counts, (cu[same], cv[same]), 1)
        np.add.at(counts, (cu[~same], cv[~same]), 1)
        np.add.at(counts, (cv[~same], cu[~same]), 1)
    return counts


def global_indicator(graph: Graph, partition: Partition) -> GlobalIndicatorResult:
    """G(i) = sum over foreign communities J touched by i of 1/links(I, J).

    Touching is binary: multiple links from i to the same community count
    once. Link counts are unweighted edge counts.
    """
    _check_cover(graph, partition)
    n = graph.node_count
    c = partition.community_count
    matrix = community_link_matrix(graph, partition)
    touches = np.zeros((n, c), dtype=bool)
    if graph.edge_count:
        eu = graph.edges[:, 0]
        ev = graph.edges[:, 1]
        cu = partition.labels[eu]
        cv = partition.labels[ev]
        inter = cu != cv
        touches[eu[inter], cv[inter]] = True
        touches[ev[inter], cu[inter]] = True
    inv = np.zeros_like(matrix, dtype=np.float64)
    np.divide(1.0, matrix, out=inv, where=matrix > 0)
    np.fill_diagonal(inv, 0.0)  # own community never contributes
    g = (touches * inv[partition.labels]).sum(axis=1)
    return GlobalIndicatorResult(g=g)


def write_indicator_csv(
    result: GlobalIndicatorResult,
    partition: Partition,
    stream: IO[str],
    table: NodeTable | None = None,
) -> None:
    n = len(result.g)
    table = table or NodeTable.identity(n)
    stream.write("node_id,community,G\n")
    for v in range(n):
        stream.write(f"{table.id_of(v)},{int(partition.labels[v])},{result.g[v]:.12g}\n")
