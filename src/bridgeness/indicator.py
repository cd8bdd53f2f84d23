"""Community-based global bridging indicator.

Given a partition, the indicator G(i) sums, over every foreign community J
that node i touches with at least one edge, the inverse of the total number
of links between i's community and J. Nodes with only intra-community links
get G = 0; the sole link between two communities scores a full 1.0.

The CSR incidences are read ``_BLOCK`` at a time, each edge once from each
end, and only the I inter-community ones are kept: row, foreign community
and the int64 key of the pair of communities, from which the link counts
come. Each inter-community incidence then writes its term into a dense
scratch block of ``_SCRATCH`` bytes (or one row of C floats, if that is
larger) at (node, foreign community). The block exists because numpy's row
``sum`` adds a row's terms pairwise by column position, so each row's terms
are written at their columns and summed there to give the same bits as a
sum over a dense n x C row.

Memory above the graph and partition: the rows, foreign communities and
values of the I incidences, G and the block, ``24 I + 8 n + max(_SCRATCH,
8 C)`` bytes, or ``40 I`` while the values are formed if that is more, plus
about 32 bytes per incidence of one block of ``_BLOCK``. At n=10000,
m=75080, I=30032 and C=300 that is 2.26 MiB; 1.85 MiB was measured, where
the whole-incidence arrays peaked at 4.96 MiB.
"""
from __future__ import annotations

from typing import IO

import numpy as np

from .graph import Graph, NodeTable, Partition, incidence_blocks, write_rows


_SCRATCH = 1 << 20  # bytes of the dense block G's rows are summed in
_BLOCK = 1 << 14  # CSR incidences read at a time


def global_indicator(graph: Graph, partition: Partition) -> np.ndarray:
    """G(i) = sum over foreign communities J touched by i of 1/links(I, J).

    Touching is binary: multiple links from i to the same community count
    once. Link counts are unweighted edge counts. G is exactly zero for a
    node with no inter-community edge.
    """
    n = graph.node_count
    c = int(partition.community_count)
    if len(partition) != n:
        raise ValueError(f"partition covers {len(partition)} nodes, graph has {n}")
    if c * c >= 2**63:
        raise ValueError(f"{c} communities too many: keys need C * C < 2**63")
    # each block of incidences keeps only its inter-community ones: the row,
    # the foreign community and the key of the pair of communities
    labels = partition.labels
    rows, cols, keys = [labels[:0]], [labels[:0]], [labels[:0]]
    for block_rows, nbrs in incidence_blocks(graph, _BLOCK):
        own, foreign = labels[block_rows], labels[nbrs]
        inter = np.flatnonzero(own != foreign)  # a boolean mask index is slower
        rows.append(block_rows[inter])
        cols.append(foreign[inter])
        keys.append(own[inter] * c + cols[-1])
    # one at a time, so each list of pieces is freed before the next is joined
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    keys = np.concatenate(keys)
    links, counts = np.unique(keys, return_counts=True)
    values = 1.0 / counts[np.searchsorted(links, keys)]
    del links, counts, keys
    g = np.zeros(n)
    step = max(1, _SCRATCH // (8 * max(c, 1)))
    block = np.zeros((min(step, n), c))
    # incidences are sorted by node, so each block of rows takes one slice of
    # them; a node linked to J by several edges writes one value to one cell
    bounds = np.searchsorted(rows, np.arange(0, n + step, step))
    for lo, a, b in zip(range(0, n, step), bounds[:-1], bounds[1:]):
        at = (rows[a:b] - lo, cols[a:b])
        block[at] = values[a:b]
        g[lo:lo + step] = block[:min(step, n - lo)].sum(axis=1)
        block[at] = 0.0
    return g


def write_indicator_csv(g: np.ndarray, partition: Partition, stream: IO[str],
                        table: NodeTable | None = None) -> None:
    table = table or NodeTable.identity(len(g))
    write_rows(stream, "node_id,community,G\n", "%s,%d,%.12g\n",
               table.ids, partition.labels.tolist(), g.tolist())
