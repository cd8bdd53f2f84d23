"""Betweenness centrality and its decomposition into bridgeness + local terms.

Betweenness of a node j sums, over unordered node pairs {i, k} (i != j != k),
the fraction of shortest i-k paths passing through j. Bridgeness keeps only
pairs where neither endpoint is j or one of j's neighbors; the local term is
the remainder. Everything here is unweighted (BFS shortest paths).

The engine is a level-synchronous Brandes sweep from every source s. Beside
the dependency delta_s(v) = sum over successors w of sigma_sv / sigma_sw *
(1 + delta_s(w)), its backward pass sums, for sources with d(s, v) >= 2,
beta_s(v): the same sum without the ``1 +``. A target t adjacent to v on a
shortest s-t path through v is a successor of v, and the ``1 +`` is exactly
its share, so the sum of beta over those sources (``bri``) counts the pairs
with both ends outside N(v) | {v}: the ordered bridgeness. ``l1[v]`` sums
delta_s(v) over the sources adjacent to v.

:func:`bridgeness_exact` gives bridgeness = bri and local = bc - bridgeness;
:func:`bridgeness_si_compat` gives si = bc - l1 in the bridgeness field. Each
sweep sums ``bc`` and only the term its variant returns: ``bri`` costs one
more scatter per DAG pair, ``l1`` one per level-1 pair. Results count
unordered pairs (ordered sums halved at the end). Every term is non-negative,
each beta term is at most the delta term beside it, and ``l1``'s terms are a
subsequence of ``bc``'s in the same order, so 0 <= bridgeness <= bc and
0 <= si <= bc hold in floating point without a clamp, and a zero bridgeness
is 0.0.

Block engine. B sources are swept at once, as one BFS over B disjoint copies
of the graph held in n x B arrays (column k belongs to the k-th source):

* forward (:func:`_forward`), one level per step: the incidences from
  frontier cells into unvisited cells are kept, found from the frontier
  (top-down) or from the unvisited cells (bottom-up; Beamer, Asanovic and
  Patterson, SC'12). A cell's incidences are its node's rows of the slot
  table (:class:`_Slots`), ``_SLOT`` = 4 steps to neighbor cells per row,
  so a piece of cells is expanded by one ``take`` of their rows, and a
  piece whose cells all have one row (every cell of degree <= 4) takes
  their first rows without building a ragged range. Each kept (pred, succ)
  pair adds sigma[pred] to sigma[succ] by ``np.add.at`` and is recorded as
  a shortest-path DAG edge.
  From level 3 on, a level goes bottom-up when the unvisited cells have at
  least ``_PIECE`` fewer lanes than the frontier; levels 1 and 2 stay
  top-down, which measured faster than leaving level 2 to that rule. Either
  way the next frontier is the cells at distance d, in cell order. A level
  that kept fewer than n * B / 8 pairs finds them by sorting its succ cells
  and dropping repeats; a wider one scans the n * B distances, at most 8
  cells per kept pair and is faster there (on an LFR graph at n = 3000, a
  level that kept 2 n * B pairs scanned in 64 us and sorted in 1.3 ms).
  So a level costs what it touches, not n * B cells, apart from a
  bottom-up level's list of the unvisited cells, and a deep graph is no
  longer swept in O(n * B * depth). Only sigma and the recorded pairs
  outlive the pass, beside the slot table, which serves every block;
* backward (:func:`_backward`): the recorded pairs are walked from the
  deepest level up. Each pair's ``ratio = sigma[pred] / sigma[succ]`` and
  gathered ``delta[succ]`` give pred ``ratio * (1 + delta[succ])`` into
  delta and, in the exact sweep when pred is at least two levels from the
  source, ``ratio * delta[succ]`` into bri, both by ``np.add.at``. The
  si-compat sweep then adds each level-1 cell's delta into ``l1``. Nothing
  is expanded again and no distance is tested.

Results are bit-identical to sweeping one source at a time: every sum has
the same terms in the same order. Top-down records pairs by pred cell,
bottom-up by succ cell, both by neighbor within a cell, so each sigma[succ]
adds its preds in increasing node order from 0.0 and each delta[pred] and
bri[pred] its terms in increasing successor order. The backward pass keeps
the per-term expression (``sigma * (A @ ((1 + delta) / sigma))`` would
reassociate it), and ``bc``, ``l1`` and ``bri`` take each source's terms in
source order. Block width, piece size and direction change no bit. A
non-finite sigma after the forward pass raises ``OverflowError``.

Memory per sweeping process is bounded beyond the graph. A block holds at
most ``_CELL_BYTES`` = 48 bytes per cell (distance, sigma and up to 32 for
a level's cells, nodes, first rows, lane counts and running sums, nodes
freed before the sums, then sigma, delta and bri; a frontier built from
kept cells needs at most n * B / 8 int64 cells, a bool mask and the
deduplicated result, under 2.2 bytes per cell beside the old frontier,
while the level's first rows, lane counts and running sums are freed)
and ``_PAIR_BYTES`` = 16 per recorded pair, at most m per source. B = _BUDGET
// (48 n + 16 m), clamped to [1, _CHUNK] and evened out over a chunk, keeps
both within ``_BUDGET`` = 8 MiB until one source needs more (B = 1). The
slot table is built once per sweeping process and lives through every
block: a node of degree k has max(1, ceil(k / 4)) rows of 32 bytes, at most
n + m / 2 rows in all, and each node's first row and lane count take 16
bytes, so it holds at most 48 n + 16 m bytes. Pieces of about ``_PIECE`` =
8192 lanes, at most 64 bytes each, hold at most 64 * (8195 + max degree)
bytes. The recorded DAG also holds a list per BFS level and a tuple and
two arrays per piece, about 0.4 KB per level (the tests bound it by 512
bytes), which only deep graphs feel: 4.6 MiB on one block of a 12000-node
path. B does not reserve it: n levels a priori would halve B on LFR graphs
at n = 10000 and take the whole budget by n = 21000.

Sources are processed in fixed chunks of ``_CHUNK`` and chunk partials are
reduced in chunk order, so results are identical for any worker count.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import Graph, NodeTable, write_rows

_CHUNK = 64  # sources per reduction unit; fixed, worker-count independent
_BUDGET = 1 << 23  # bytes for the n x B arrays and the recorded DAG of one block
_CELL_BYTES = 48  # most bytes held at once per (node, source) cell
_PAIR_BYTES = 16  # bytes per recorded DAG pair, at most m per source
_PIECE = 1 << 13  # slot-table lanes per expansion piece, at most 64 bytes each
_SLOT = 4  # lanes per slot-table row


@dataclass(frozen=True)
class CentralityResult:
    """Per-node bc = bridgeness + local.

    :func:`bridgeness_si_compat` puts ``si`` in the bridgeness field.
    """

    bc: np.ndarray
    bridgeness: np.ndarray
    local: np.ndarray


def _block_width(n: int, m: int) -> int:
    """Sources per block: at most what the budget holds, in equal blocks per chunk."""
    most = max(1, min(_CHUNK, _BUDGET // (_CELL_BYTES * n + _PAIR_BYTES * m)))
    blocks = -(-_CHUNK // most)  # per full chunk
    return -(-_CHUNK // blocks)  # equal widths: no narrow tail block


def _ragged_arange(starts, counts):
    """``arange(s, s + c)`` for each (s, c) pair, concatenated."""
    first = counts.cumsum() - counts
    return np.arange(first[-1] + counts[-1]) + (starts - first).repeat(counts)


class _Slots:
    """A graph's neighbor rows cut into rows of ``_SLOT`` lanes: the slot table.

    Node v owns ``lanes[v] / _SLOT`` >= 1 rows from row ``first[v]``; its
    neighbors w fill its lanes in order, each as the step (w - v) * width
    from v's cell of a column to w's. The last row is padded with 0, the
    step to the cell itself, which no level keeps: top-down keeps far cells
    at distance -1 from frontier cells, bottom-up far cells at d - 1 from
    unvisited cells. One table serves a sweeping process; :meth:`scaled`
    rescales it in place for each block width.
    """

    def __init__(self, indptr, indices):
        degree = np.diff(indptr)
        rows = np.maximum(-(-degree // _SLOT), 1)  # a node without neighbors has one too
        self.first = np.cumsum(rows) - rows
        self.lanes = rows * _SLOT
        self.edges = len(indices) // 2
        self.table = np.zeros((int(rows.sum()), _SLOT), dtype=np.int64)
        owner = np.repeat(np.arange(len(degree)), degree)
        self.table.reshape(-1)[_ragged_arange(self.first * _SLOT, degree)] = indices - owner
        self.width = 1

    def scaled(self, width):
        """The table with its steps for blocks of ``width`` sources."""
        if width != self.width:
            self.table //= self.width
            self.table *= width
            self.width = width
        return self.table


def _pieces(ends):
    """Slices of consecutive items, by the running sums ``ends`` of their
    lane counts, each holding less than ``_PIECE`` + its first count."""
    if len(ends) == 0 or ends[-1] <= _PIECE:
        return [slice(None)] if len(ends) else []
    cuts = np.searchsorted(ends, np.arange(_PIECE, ends[-1], _PIECE), side="right")
    bounds = [0, *cuts.tolist(), len(ends)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _bottom_up(left, reach):
    """Expand the ``left`` lanes of the unvisited cells, not the frontier's ``reach``."""
    return left + _PIECE <= reach


def _from_kept(kept, cells):
    """Build the next frontier from the level's ``kept`` succ cells, not by
    scanning all ``cells`` of the block."""
    return 8 * kept < cells


def _forward(slots, sources):
    """Path counts and shortest-path DAG of one block of ``sources``.

    A cell is a (node, column) pair, flattened to node * B + column, and
    ``sigma`` is indexed by cell. ``dag[d - 1]`` holds the (pred, succ) cell
    pairs from level d - 1 to level d, in pieces; the level-1 pieces are
    sorted by pred, then succ.
    """
    width = len(sources)
    first, lanes, table = slots.first, slots.lanes, slots.scaled(width)
    dist = np.full(len(first) * width, -1, dtype=np.int32)
    sigma = np.zeros(len(dist))
    frontier = sources * width + np.arange(width)
    dist[frontier] = 0
    sigma[frontier] = 1.0
    left = width * table.size  # lanes of the cells not yet reached
    dag = []  # per level d >= 1: the (pred, succ) cell pairs from level d-1 to d
    with np.errstate(over="ignore"):  # an overflow raises below
        while len(frontier):
            d = len(dag) + 1
            cells, nodes = frontier, frontier // width
            counts, rows = lanes[nodes], first[nodes]
            del nodes  # freed before the running sums (_CELL_BYTES)
            total = counts.cumsum()
            left -= total[-1]
            bottom_up = d > 2 and _bottom_up(left, total[-1])  # levels 1-2: top-down is faster
            if bottom_up:  # the unvisited cells find their preds at dist d - 1
                cells = (dist < 0).nonzero()[0]
                nodes = cells // width
                counts, rows = lanes[nodes], first[nodes]
                del nodes
                total = counts.cumsum()
            one_row = len(cells) and total[-1] == _SLOT * len(cells)  # each cell has one row
            pairs, want = [], d - 1 if bottom_up else -1  # the far ends' dist
            for part in _pieces(total):
                if one_row:
                    near = cells[part].repeat(_SLOT)
                    slot = rows[part]
                else:
                    near = cells[part].repeat(counts[part])
                    slot = _ragged_arange(rows[part], counts[part] // _SLOT)
                far = near + table.take(slot, axis=0).ravel()
                keep = (dist[far] == want).nonzero()[0]
                if len(keep):  # an empty piece is not recorded: each costs two arrays
                    pred, succ = (far[keep], near[keep]) if bottom_up else (near[keep], far[keep])
                    np.add.at(sigma, succ, sigma[pred])
                    pairs.append((pred, succ))
            del cells, rows, counts, total  # freed before the next frontier (_CELL_BYTES)
            dag.append(pairs)
            kept = [succ for _, succ in pairs]
            for succ in kept:
                dist[succ] = d
            if _from_kept(sum(map(len, kept)), len(dist)):
                # the level's succ cells, sorted and deduplicated: dist == d
                if len(kept) == 1:
                    frontier = kept[0].copy()
                else:
                    frontier = np.concatenate(kept or [frontier[:0]])
                frontier.sort()
                first_seen = np.empty(len(frontier), dtype=bool)
                first_seen[:1] = True
                np.not_equal(frontier[1:], frontier[:-1], out=first_seen[1:])
                frontier = frontier[first_seen]
            else:
                frontier = (dist == d).nonzero()[0]
    if not np.isfinite(sigma).all():
        source = sources[np.flatnonzero(~np.isfinite(sigma))[0] % width]
        raise OverflowError(f"shortest-path counts from node {source} overflow float64")
    return sigma, dag


def _backward(sigma, dag, width, sums, bridge):
    """Add the block's (bc, bri) terms, or (bc, l1) unless ``bridge``, into
    the two rows of ``sums``, in source order."""
    bc, term = sums
    delta = np.zeros(len(sigma))
    bri = np.zeros(len(sigma)) if bridge else None
    # dag[level] holds the pairs whose pred is at that level; level-0 terms
    # reach only the sources, whose delta is dropped anyway
    for level in range(len(dag) - 1, 0, -1):
        for pred, succ in dag[level]:
            ratio = sigma[pred] / sigma[succ]
            below = delta[succ]
            np.add.at(delta, pred, ratio * (1.0 + below))
            if bridge and level >= 2:
                np.add.at(bri, pred, ratio * below)
    for k in range(width):
        bc += delta[k::width]
        if bridge:
            term += bri[k::width]
    if not bridge:
        for _, succ in dag[0]:  # the sources' neighbors, in source order
            np.add.at(term, succ // width, delta[succ])


def _accumulate_chunk(slots, lo, hi, bridge):
    """Sum per-source (bc, bri) or (bc, l1) rows over sources lo..hi-1 in order."""
    n = len(slots.first)
    sums = np.zeros((2, n))
    width = _block_width(n, slots.edges)
    for start in range(lo, hi, width):
        sources = np.arange(start, min(start + width, hi))
        _backward(*_forward(slots, sources), len(sources), sums, bridge)
    return sums


_WORKER_SLOTS: _Slots | None = None


def _worker_init(indptr, indices):
    global _WORKER_SLOTS
    _WORKER_SLOTS = _Slots(indptr, indices)


def _worker_chunk(bounds):
    return _accumulate_chunk(_WORKER_SLOTS, *bounds)


def _brandes_accumulate(graph: Graph, workers: int = 1, bridge: bool = True):
    """Ordered (bc, bri) accumulators over all sources, as a 2 x n array;
    (bc, l1) unless ``bridge``.

    Chunk boundaries are fixed, and chunk partials are reduced in chunk
    order, so the result does not depend on the worker count. The pool
    starts at most one process per chunk.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    n = graph.node_count
    bounds = [(lo, min(lo + _CHUNK, n), bridge) for lo in range(0, n, _CHUNK)]
    workers = min(workers, len(bounds))
    if workers <= 1:
        slots = _Slots(graph.indptr, graph.indices) if bounds else None
        return sum((_accumulate_chunk(slots, *chunk) for chunk in bounds), np.zeros((2, n)))
    # imported here: loading the process pool costs every other command
    # about 1.6 MiB of RSS and tens of milliseconds
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(graph.indptr, graph.indices),
    )
    try:
        return sum(pool.map(_worker_chunk, bounds), np.zeros((2, n)))
    finally:  # a failed chunk drops the chunks not yet started
        pool.shutdown(cancel_futures=True)


def bridgeness_exact(graph: Graph, *, workers: int = 1) -> CentralityResult:
    """Betweenness split into bridgeness and local terms.

    Bridgeness of j counts only pairs with both endpoints outside
    N(j) | {j}; local is the complement, so bc = bridgeness + local.
    """
    bc, bri = _brandes_accumulate(graph, workers) / 2.0
    return CentralityResult(bc=bc, bridgeness=bri, local=bc - bri)


def bridgeness_si_compat(graph: Graph, *, workers: int = 1) -> CentralityResult:
    """Betweenness with ``si`` in place of bridgeness, and local = bc - si.

    ``si`` counts the dependency of j on a source s only when d(s, j) > 1.
    This filters neighbors out of the source side of each pair but not the
    target side, so a pair with exactly one endpoint adjacent to j keeps
    half its weight: ``si`` equals bridgeness plus half of that mixed-pair
    term, so bridgeness <= si <= bc.
    """
    bc, l1 = _brandes_accumulate(graph, workers, bridge=False)
    si = (bc - l1) / 2.0
    bc = bc / 2.0
    return CentralityResult(bc=bc, bridgeness=si, local=bc - si)


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


def write_centrality_csv(
    result: CentralityResult,
    graph: Graph,
    stream: IO[str],
    table: NodeTable | None = None,
) -> None:
    table = table or NodeTable.identity(graph.node_count)
    write_rows(stream, "node_id,degree,bc,bridgeness,local\n", "%s,%d,%.12g,%.12g,%.12g\n",
               table.ids, graph.degrees.tolist(), result.bc.tolist(),
               result.bridgeness.tolist(), result.local.tolist())


_JSON_RECORD = ('  {\n    "node_id": %s,\n    "degree": %d,\n    "bc": %r,\n'
                '    "bridgeness": %r,\n    "local": %r\n  }')


def write_centrality_json(
    result: CentralityResult,
    graph: Graph,
    stream: IO[str],
    table: NodeTable | None = None,
) -> None:
    """Per-node records as ``json.dump(records, stream, indent=2)`` writes
    them: ``%r`` of a finite float is the text ``json`` writes for it."""
    table = table or NodeTable.identity(graph.node_count)
    records = [_JSON_RECORD % row for row in zip(
        map(json.dumps, table.ids), graph.degrees.tolist(), result.bc.tolist(),
        result.bridgeness.tolist(), result.local.tolist(), strict=True)]
    stream.write("[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n")


def default_workers() -> int:
    """The number of cores this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
