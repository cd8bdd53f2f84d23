"""Betweenness centrality and its decomposition into bridgeness + local terms.

Betweenness of a node j sums, over unordered node pairs {i, k} (i != j != k),
the fraction of shortest i-k paths passing through j. Bridgeness keeps only
pairs where neither endpoint is j or one of j's neighbors; the local term is
the remainder. Everything here is unweighted (BFS shortest paths).

The engine is a level-synchronous Brandes sweep from every source. On top of the
usual dependency accumulation it tracks two extra per-node accumulators that
make the decomposition exact in O(n*m)-style passes:

* ``l1[j]``: dependency contributed by sources adjacent to j, i.e. the
  ordered sum over pairs whose *source* endpoint neighbors j.
* ``p[j]``: the ordered neighbor-pair correction. For s, t both adjacent to
  j with d(s, t) = 2, j lies on a shortest s-t path of weight 1/sigma_st
  (single-edge legs have sigma = 1), so those pairs would otherwise be
  double-counted by 2*l1.

Ordered local term = 2*l1 - p; bridgeness = bc - local; the source-side
filtered variant si = bc - l1 (see :class:`CentralityResult`). All public
results use the unordered-pair convention (ordered sums halved once at the
end), and all four come from one sweep.

Block engine. B sources are swept at once, as one BFS over B disjoint copies
of the graph held in n x B arrays (column k belongs to the k-th source):

* forward, one level per step: the incidences from frontier cells into
  unvisited cells are kept, found from the frontier (top-down) or from the
  unvisited cells (bottom-up; Beamer, Asanovic and Patterson, SC'12). Each
  kept (pred, succ) pair adds sigma[pred] to sigma[succ] by ``np.add.at``
  and is recorded as a shortest-path DAG edge. From level 3 on, a level
  goes bottom-up when the unvisited cells have at least ``_PIECE`` fewer
  incidences than the frontier; levels 1 and 2 stay top-down, so the level-2
  pairs ``p`` reads come grouped by pred. Either way the next frontier is
  the cells at distance d, in cell order;
* backward: the recorded pairs are walked from the deepest level up, and
  each pred receives ``sigma[pred] / sigma[succ] * (1 + delta[succ])`` by
  ``np.add.at``. Nothing is expanded again and no distance is tested.

Results are bit-identical to sweeping one source at a time: every sum has
the same terms in the same order. Top-down records pairs by pred cell,
bottom-up by succ cell, both by neighbor within a cell, so each sigma[succ]
adds its preds in increasing node order from 0.0 and each delta[pred] its
terms in increasing successor order. The backward pass keeps the per-term
expression (``sigma * (A @ ((1 + delta) / sigma))`` would reassociate it),
``bc`` and ``l1`` take each source's terms in source order, and ``p`` sums
each pred's level-2 terms after a 0.0 by ``np.add.reduceat``, which groups
them as ``np.sum`` does. Block width, piece size and direction change no
bit. A non-finite sigma after the forward pass raises ``OverflowError``.

Memory per sweeping process is bounded beyond the graph. A block holds at
most ``_CELL_BYTES`` = 48 bytes per cell (distance, sigma, then delta, and
up to 32 for a level's cells, nodes, degrees and running sums) and
``_PAIR_BYTES`` = 16 per recorded pair, at most m per source. B = _BUDGET
// (48 n + 16 m), clamped to [1, _CHUNK] and evened out over a chunk, keeps
both within ``_BUDGET`` = 8 MiB until one source needs more (B = 1). A
table of 8 bytes per incidence maps each cell to its neighbors'. Pieces of
about ``_PIECE`` = 8192 incidences, at most 64 bytes each, hold at most
64 * (8192 + max degree) bytes.

Sources are processed in fixed chunks of ``_CHUNK`` and chunk partials are
reduced in chunk order, so results are identical for any worker count.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import Graph, NodeTable

_CHUNK = 64  # sources per reduction unit; fixed, worker-count independent
_BUDGET = 1 << 23  # bytes for the n x B arrays and the recorded DAG of one block
_CELL_BYTES = 48  # most bytes held at once per (node, source) cell
_PAIR_BYTES = 16  # bytes per recorded DAG pair, at most m per source
_PIECE = 1 << 13  # incidences per expansion piece, at most 64 bytes each

PAIR_CONVENTION = "unordered"


@dataclass(frozen=True)
class CentralityResult:
    """Per-node bc = bridgeness + local, and the source-side-filtered ``si``.

    ``si`` counts the dependency of j on a source s only when d(s, j) > 1.
    This filters neighbors out of the source side of each pair but not the
    target side, so a pair with exactly one endpoint adjacent to j keeps
    half its weight: ``si`` equals bridgeness plus half of that mixed-pair
    term, and 0 <= bridgeness <= si <= bc.
    """

    bc: np.ndarray
    bridgeness: np.ndarray
    local: np.ndarray
    si: np.ndarray
    convention: str = PAIR_CONVENTION


def _block_width(n: int, m: int) -> int:
    """Sources per block: at most what the budget holds, in equal blocks per chunk."""
    most = max(1, min(_CHUNK, _BUDGET // (_CELL_BYTES * n + _PAIR_BYTES * m)))
    blocks = -(-_CHUNK // most)  # per full chunk
    return -(-_CHUNK // blocks)  # equal widths: no narrow tail block


def _ragged_arange(starts, counts):
    """``arange(s, s + c)`` for each (s, c) pair, concatenated."""
    first = np.cumsum(counts) - counts
    return np.arange(first[-1] + counts[-1]) + np.repeat(starts - first, counts)


def _pieces(ends):
    """Slices of consecutive items, by the running sums ``ends`` of their
    incidence counts, each holding less than ``_PIECE`` + its first count."""
    if len(ends) == 0 or ends[-1] <= _PIECE:
        return [slice(None)] if len(ends) else []
    cuts = np.searchsorted(ends, np.arange(_PIECE, ends[-1], _PIECE), side="right")
    bounds = [0, *cuts.tolist(), len(ends)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _bottom_up(left, reach):
    """Expand the ``left`` incidences of the unvisited cells, not the frontier's."""
    return left + _PIECE <= reach


def _sweep_block(indptr, indices, sources):
    """Path counts, dependencies (n x B) and level-1 and level-2 DAG pairs.

    A cell is a (node, column) pair, flattened to node * B + column. Both
    levels come in pieces of (pred, succ) pairs sorted by pred, then succ.
    """
    n, width = len(indptr) - 1, len(sources)
    degree = np.diff(indptr)
    # incidence v -> w moves a cell by (w - v) * B: the far cell = near + step
    step = (indices - np.repeat(np.arange(n), degree)) * width
    dist = np.full(n * width, -1, dtype=np.int32)
    sigma = np.zeros(n * width)
    frontier = sources * width + np.arange(width)
    dist[frontier] = 0
    sigma[frontier] = 1.0
    left = width * len(indices)  # incidences of the cells not yet reached
    dag = []  # per level d >= 1: the (pred, succ) cell pairs from level d-1 to d
    with np.errstate(over="ignore"):  # an overflow raises below
        while len(frontier):
            d = len(dag) + 1
            cells, nodes = frontier, frontier // width
            counts = degree[nodes]
            total = np.cumsum(counts)
            left -= total[-1]
            bottom_up = d > 2 and _bottom_up(left, total[-1])  # p reads level 2 by pred
            if bottom_up:  # the unvisited cells find their preds at dist d - 1
                cells = np.flatnonzero(dist < 0)
                nodes = cells // width
                counts = degree[nodes]
                total = np.cumsum(counts)
            pairs, want = [], d - 1 if bottom_up else -1  # the far ends' dist
            for part in _pieces(total):
                cnt = counts[part]
                near = np.repeat(cells[part], cnt)
                far = near + step[_ragged_arange(indptr[nodes[part]], cnt)]
                keep = np.flatnonzero(dist[far] == want)
                if len(keep):  # an empty piece is not recorded: each costs two arrays
                    pred, succ = (far[keep], near[keep]) if bottom_up else (near[keep], far[keep])
                    np.add.at(sigma, succ, sigma[pred])
                    pairs.append((pred, succ))
            del cells, nodes, counts, total  # freed before the next frontier (_CELL_BYTES)
            dag.append(pairs)
            for _, succ in pairs:
                dist[succ] = d
            frontier = np.flatnonzero(dist == d)
    if not np.isfinite(sigma).all():
        source = sources[np.flatnonzero(~np.isfinite(sigma))[0] % width]
        raise OverflowError(f"shortest-path counts from node {source} overflow float64")

    delta = np.zeros(n * width)
    # level-1 terms reach only the sources, whose delta is dropped anyway
    for pairs in reversed(dag[1:]):
        for pred, succ in pairs:
            np.add.at(delta, pred, sigma[pred] / sigma[succ] * (1.0 + delta[succ]))
    return sigma, delta.reshape(n, width), dag[0], dag[1] if len(dag) > 1 else []


def _accumulate_block(indptr, indices, sources, bc, l1, p):
    """Add the (bc, l1, p) terms of ``sources`` into the partials, in source order."""
    width = len(sources)
    sigma, delta, level1, level2 = _sweep_block(indptr, indices, sources)
    for k in range(width):
        bc += delta[:, k]
    for _, succ in level1:  # the sources' neighbors, in source order
        np.add.at(l1, succ // width, delta.ravel()[succ])
    for pred, succ in level2:  # segment q: 0.0, then the q-th pred's 1/sigma[succ]
        new = np.diff(pred, prepend=-1) != 0
        lead = np.flatnonzero(new)
        terms = np.zeros(len(pred) + len(lead))
        terms[np.arange(len(pred)) + np.cumsum(new)] = 1.0 / sigma[succ]
        if len(lead):
            np.add.at(p, pred[lead] // width, np.add.reduceat(terms, lead + np.arange(len(lead))))


def _accumulate_chunk(indptr, indices, lo, hi):
    """Sum per-source contributions to (bc, l1, p) over sources lo..hi-1 in order."""
    n = len(indptr) - 1
    bc = np.zeros(n)
    l1 = np.zeros(n)
    p = np.zeros(n)
    width = _block_width(n, len(indices) // 2)
    for start in range(lo, hi, width):
        sources = np.arange(start, min(start + width, hi))
        _accumulate_block(indptr, indices, sources, bc, l1, p)
    return bc, l1, p


_WORKER_GRAPH: tuple | None = None


def _worker_init(indptr, indices):
    global _WORKER_GRAPH
    _WORKER_GRAPH = (indptr, indices)


def _worker_chunk(bounds):
    return _accumulate_chunk(*_WORKER_GRAPH, *bounds)


def _sum_partials(n, partials):
    totals = (np.zeros(n), np.zeros(n), np.zeros(n))
    for partial in partials:
        for total, part in zip(totals, partial):
            total += part
    return totals


def _brandes_accumulate(graph: Graph, workers: int = 1):
    """(ordered bc, l1, p) accumulators over all sources.

    Chunk boundaries are fixed, and chunk partials are reduced in chunk
    order, so the result does not depend on the worker count. The pool
    starts at most one process per chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    n = graph.node_count
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(workers, len(bounds))
    if workers <= 1:
        return _sum_partials(n, (_accumulate_chunk(graph.indptr, graph.indices, lo, hi)
                                 for lo, hi in bounds))
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(graph.indptr, graph.indices),
    )
    try:
        return _sum_partials(n, pool.map(_worker_chunk, bounds))
    finally:  # a failed chunk drops the chunks not yet started
        pool.shutdown(cancel_futures=True)


def _decompose(bc_o, l1, p):
    """Derive (bc, bridgeness, local, si) from ordered accumulators.

    Exact arithmetic guarantees p <= l1 <= 2*l1 - p <= bc and the chain
    below evaluates each quantity so float rounding cannot invert the
    ordering 0 <= bridgeness <= si <= bc.
    """
    mixed = np.maximum(l1 - p, 0.0)
    local_o = l1 + mixed  # == 2*l1 - p, but >= l1 in float too
    bri_o = np.maximum(bc_o - local_o, 0.0)
    si_o = np.maximum(bc_o - l1, 0.0)
    return bc_o / 2.0, bri_o / 2.0, local_o / 2.0, si_o / 2.0


def bridgeness_exact(graph: Graph, *, workers: int = 1) -> CentralityResult:
    """Betweenness split into bridgeness and local terms, plus ``si``.

    Bridgeness of j counts only pairs with both endpoints outside
    N(j) | {j}; local is the complement, so bc = bridgeness + local.
    """
    bc, bri, local, si = _decompose(*_brandes_accumulate(graph, workers))
    return CentralityResult(bc=bc, bridgeness=bri, local=local, si=si)


def locterm_by_degree(result: CentralityResult, graph: Graph) -> dict[int, float]:
    """Mean relative local contribution (bc - bridgeness)/bc per degree.

    Nodes with bc = 0 are excluded; degrees with no eligible node are
    absent from the mapping.
    """
    degrees = graph.degrees
    eligible = result.bc > 0
    out: dict[int, float] = {}
    for k in np.unique(degrees[eligible]):
        sel = eligible & (degrees == k)
        ratios = (result.bc[sel] - result.bridgeness[sel]) / result.bc[sel]
        out[int(k)] = float(ratios.mean())
    return out


def centrality_records(
    result: CentralityResult, graph: Graph, table: NodeTable | None = None
) -> list[dict]:
    """One JSON-ready record per node: id, degree, bc, bridgeness, local."""
    table = table or NodeTable.identity(graph.node_count)
    degrees = graph.degrees
    return [
        {
            "node_id": table.id_of(v),
            "degree": int(degrees[v]),
            "bc": float(result.bc[v]),
            "bridgeness": float(result.bridgeness[v]),
            "local": float(result.local[v]),
        }
        for v in range(graph.node_count)
    ]


def write_centrality_csv(
    result: CentralityResult,
    graph: Graph,
    stream: IO[str],
    table: NodeTable | None = None,
) -> None:
    stream.write("node_id,degree,bc,bridgeness,local\n")
    for rec in centrality_records(result, graph, table):
        stream.write(
            "%s,%d,%.12g,%.12g,%.12g\n"
            % (rec["node_id"], rec["degree"], rec["bc"], rec["bridgeness"], rec["local"])
        )


def write_centrality_json(
    result: CentralityResult,
    graph: Graph,
    stream: IO[str],
    table: NodeTable | None = None,
) -> None:
    json.dump(centrality_records(result, graph, table), stream, indent=2)
    stream.write("\n")


def default_workers() -> int:
    """Worker count from BRIDGENESS_WORKERS, else the cores this process may use.

    An unset or empty BRIDGENESS_WORKERS means the core count; any other
    value that is not a positive integer raises ValueError.
    """
    env = os.environ.get("BRIDGENESS_WORKERS")
    if env:
        if not (env.isdecimal() and int(env) > 0):
            raise ValueError(f"BRIDGENESS_WORKERS must be a positive integer, got {env!r}")
        return int(env)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
