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

* forward, one level per step: ``A @ frontier`` with ``A`` the CSR matrix of
  ones and ``frontier`` holding sigma on the current level and 0 elsewhere;
* backward: the (node, source) cells of a level are expanded into their
  incidences, and each predecessor v of w receives
  ``sigma[v] / sigma[w] * (1 + delta[w])`` by ``np.add.at``.

Results are bit-identical to sweeping one source at a time, because every
sum has the same terms in the same order: the sparse product adds a row's
neighbors in increasing index order starting from 0 (terms off the frontier
are exact zeros), the backward pass keeps the per-term expression and its
increasing-successor order (a product ``sigma * (A @ ((1 + delta) / sigma))``
would reassociate it), ``bc`` and ``l1`` take each source's terms in source
order, and each ``p`` term is an ``np.add.reduceat`` over a segment that
starts with 0.0, which groups its sum exactly as ``np.sum`` does.

Memory per sweeping process is bounded beyond the graph and its sparse
copy. The n x B arrays hold at most ``_CELL_BYTES`` = 48 bytes per cell at
once, and B = _BUDGET // (48 n), clamped to [1, _CHUNK], keeps them within
``_BUDGET`` = 1 MiB (48 n bytes once n > 10922 forces B = 1). Incidences
are expanded in pieces of about ``_PIECE`` = 8192, at most 64 bytes each,
so a piece holds at most 64 * (8192 + max degree) bytes: about 1.5 MiB in
all for graphs up to 10922 nodes and degrees in the hundreds.

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
from scipy.sparse import csr_array

from .graph import Graph, NodeTable

_CHUNK = 64  # sources per reduction unit; fixed, worker-count independent
_BUDGET = 1 << 20  # bytes for the n x B arrays of one block
_CELL_BYTES = 48  # most bytes held at once per (node, source) cell
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


def _block_width(n: int) -> int:
    """Sources per block: as many as the budget holds, at most one chunk."""
    return max(1, min(_CHUNK, _BUDGET // (_CELL_BYTES * n)))


def _ragged_arange(starts, counts):
    """``arange(s, s + c)`` for each (s, c) pair, concatenated."""
    first = np.cumsum(counts) - counts
    return np.arange(first[-1] + counts[-1]) + np.repeat(starts - first, counts)


def _pieces(counts):
    """Slices of consecutive items holding about ``_PIECE`` incidences each.

    A piece exceeds ``_PIECE`` by less than the count of its first item.
    """
    if len(counts) == 0:
        return []
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_PIECE, ends[-1], _PIECE), side="right")
    bounds = [0, *cuts.tolist(), len(counts)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _sweep_block(indptr, indices, adj, sources):
    """BFS distances, path counts and dependencies of ``sources`` (n x B).

    A cell is a (node, column) pair, flattened to node * B + column.
    """
    n, width = adj.shape[0], len(sources)
    dist = np.full(n * width, -1, dtype=np.int32)
    sigma = np.zeros(n * width)
    frontier = sources * width + np.arange(width)
    dist[frontier] = 0
    sigma[frontier] = 1.0
    levels = []  # sorted cells at each distance
    while len(frontier):
        levels.append(frontier)
        spread = np.zeros(n * width)
        spread[frontier] = sigma[frontier]
        reached = (adj @ spread.reshape(n, width)).ravel()
        del spread
        frontier = np.flatnonzero((reached != 0.0) & (dist < 0))
        sigma[frontier] = reached[frontier]
        dist[frontier] = len(levels)
        del reached

    delta = np.zeros(n * width)
    degree = np.diff(indptr)
    # level-1 terms reach only the sources, whose delta is dropped anyway
    for d in range(len(levels) - 1, 1, -1):
        nodes = levels[d] // width
        counts = degree[nodes]
        for part in _pieces(counts):
            cells, w, cnt = levels[d][part], nodes[part], counts[part]
            succ = np.repeat(cells, cnt)
            pred = indices[_ragged_arange(indptr[w], cnt)] * width
            pred += np.repeat(cells - w * width, cnt)
            keep = dist[pred] == d - 1
            pred, succ = pred[keep], succ[keep]
            np.add.at(delta, pred, sigma[pred] / sigma[succ] * (1.0 + delta[succ]))
    return dist.reshape(n, width), sigma.reshape(n, width), delta.reshape(n, width)


def _accumulate_block(indptr, indices, adj, sources, bc, l1, p):
    """Add the (bc, l1, p) terms of ``sources`` into the partials, in source order."""
    dist, sigma, delta = _sweep_block(indptr, indices, adj, sources)
    for k in range(len(sources)):
        bc += delta[:, k]
    degree = np.diff(indptr)
    nbrs = indices[_ragged_arange(indptr[sources], degree[sources])]
    col = np.repeat(np.arange(len(sources)), degree[sources])
    np.add.at(l1, nbrs, delta[nbrs, col])
    for part in _pieces(degree[nbrs]):
        j, k = nbrs[part], col[part]
        cnt = degree[j]
        x = indices[_ragged_arange(indptr[j], cnt)]
        kx = np.repeat(k, cnt)
        pair = np.repeat(np.arange(len(j)), cnt)
        keep = dist[x, kx] == 2
        x, kx, pair = x[keep], kx[keep], pair[keep]
        # segment q holds 0.0 and then pair q's terms in neighbor order
        kept = np.bincount(pair, minlength=len(j))
        starts = np.arange(len(j)) + np.cumsum(kept) - kept
        terms = np.zeros(len(j) + len(x))
        terms[np.arange(len(x)) + pair + 1] = 1.0 / sigma[x, kx]
        np.add.at(p, j, np.add.reduceat(terms, starts))


def _accumulate_chunk(indptr, indices, adj, lo, hi):
    """Sum per-source contributions to (bc, l1, p) over sources lo..hi-1 in order."""
    n = adj.shape[0]
    bc = np.zeros(n)
    l1 = np.zeros(n)
    p = np.zeros(n)
    width = _block_width(n)
    for start in range(lo, hi, width):
        sources = np.arange(start, min(start + width, hi))
        _accumulate_block(indptr, indices, adj, sources, bc, l1, p)
    return bc, l1, p


def _adjacency(indptr, indices):
    n = len(indptr) - 1
    return csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))


_WORKER_GRAPH: tuple | None = None


def _worker_init(indptr, indices):
    global _WORKER_GRAPH
    _WORKER_GRAPH = (indptr, indices, _adjacency(indptr, indices))


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
        adj = _adjacency(graph.indptr, graph.indices)
        return _sum_partials(n, (_accumulate_chunk(graph.indptr, graph.indices, adj, lo, hi)
                                 for lo, hi in bounds))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(graph.indptr, graph.indices),
    ) as pool:
        return _sum_partials(n, pool.map(_worker_chunk, bounds))


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


def betweenness(graph: Graph, *, workers: int = 1) -> np.ndarray:
    """Unnormalized betweenness centrality (unordered pairs, BFS paths)."""
    return bridgeness_exact(graph, workers=workers).bc


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
