"""Immutable undirected graphs, node-ID tables and community partitions.

Graphs are simple and unweighted (no self-loops, no duplicate edges, no
edge weights) and use dense internal indices in ``[0, node_count)``.
External string IDs live in a separate :class:`NodeTable` so algorithms
work on plain integer arrays. A graph holds only its symmetric CSR, which
lists each edge from both ends. :meth:`Graph.from_edges` takes an ``(m, 2)``
integer array as it is and builds the CSR from one in-place sort of the
int64 keys of both edge orientations, which then become its ``indices``.
:func:`load_edge_list` numbers IDs line by line, then drops self-loops,
sorts the keys of both orientations of every other line once and drops
adjacent repeats, the duplicates, before it builds the CSR the same way.

Memory, for m edges (or edge lines) and n nodes: the graph keeps
``16 m + 8 (n + 1)`` bytes; ``from_edges`` peaks at about
``18 m + 16 (n + 1)`` above its input; ``load_edge_list`` holds a list of
two references per line while it parses, and at its peak under
``24 m`` bytes more than the graph and table it returns (13 bytes per
line on the 75,080-line edge list of ``generate --n 10000 --seed 3``);
:func:`write_edge_list` picks the edges from one slice of the incidences
at a time and holds about 130 bytes per line of one chunk of
``_WRITE_CHUNK`` lines, whatever m is.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_WRITE_CHUNK = 1 << 13  # edge lines formatted per write by write_edge_list


class EdgeListError(ValueError):
    """Malformed or invalid edge-list input."""


class PartitionError(ValueError):
    """Partition input that does not cover the graph or names unknown nodes."""


def _symmetric_keys(node_count: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each edge in both orientations as one int64 key ``row * node_count +
    col``: the ``rows``-first keys, then the ``cols``-first ones, in one
    array of ``2 m``. Needs ``node_count**2 < 2**63``."""
    if node_count * node_count >= 1 << 63:
        raise ValueError(f"node_count {node_count} too large: edge keys need node_count**2 < 2**63")
    keys = np.concatenate((rows, cols))
    keys *= node_count
    keys[:len(rows)] += cols
    keys[len(rows):] += rows
    return keys


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Simple undirected, unweighted graph in CSR form.

    ``indptr``/``indices`` is the symmetric adjacency with sorted neighbor
    lists: node ``v``'s neighbors are ``indices[indptr[v]:indptr[v + 1]]``,
    and each edge appears once in the row of each endpoint. Instances are
    immutable and safe to share across worker processes.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_count", int(self.node_count))
        for name in ("indptr", "indices"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @classmethod
    def from_edges(cls, node_count: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unique undirected edges.

        ``edges`` is an ``(m, 2)`` integer array, used as it is, or any
        iterable of pairs. Raises ValueError on another shape, self-loops,
        duplicate edges (in either orientation) or out-of-range endpoints;
        use :func:`load_edge_list` for inputs that need cleanup.

        Memory above an int64 input: at most ``18 m + 16 (n + 1)`` bytes at
        the peak (the sorted keys, which become ``indices``, beside a 2 m
        byte compare or the row starts), and the graph keeps
        ``16 m + 8 (n + 1)``: ``indices`` and ``indptr``.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {edge_arr.shape}")
        rows, cols = edge_arr.T
        if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= node_count):
            raise ValueError("edge endpoint out of range")
        if np.any(rows == cols):
            raise ValueError("self-loops are not allowed")
        width = max(node_count, 1)  # a graph without nodes has no edges
        keys = _symmetric_keys(width, rows, cols)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        return cls._from_sorted_keys(node_count, width, keys)

    @classmethod
    def _from_sorted_keys(cls, node_count: int, width: int, keys: np.ndarray) -> "Graph":
        """The graph whose symmetric keys ``row * width + col`` are ``keys``,
        sorted and without repeats. ``keys`` becomes its ``indices``."""
        # row v starts at its first key, the first one >= v * width
        indptr = np.searchsorted(keys, np.arange(node_count + 1) * width)
        np.remainder(keys, width, out=keys)
        return cls(node_count, indptr, keys)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.indptr))


@dataclass(frozen=True)
class NodeTable:
    """Bijective mapping between external string IDs and internal indices."""

    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        index = {node_id: i for i, node_id in enumerate(self.ids)}
        if len(index) != len(self.ids):
            raise ValueError("duplicate external node IDs")
        object.__setattr__(self, "_index", index)

    @classmethod
    def identity(cls, n: int) -> "NodeTable":
        """Table whose external IDs are the stringified indices."""
        return cls(ids=tuple(str(i) for i in range(n)))

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"unknown node ID {node_id!r}") from None

    def id_of(self, index: int) -> str:
        return self.ids[index]


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to exactly one dense community label."""

    labels: np.ndarray
    community_count: int

    def __post_init__(self) -> None:
        labels = _frozen(np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.community_count):
            raise ValueError("labels must be dense in [0, community_count)")

    @classmethod
    def from_labels(cls, raw: Sequence) -> "Partition":
        """Relabel arbitrary per-node labels densely, by first appearance."""
        mapping: dict = {}
        dense = [mapping.setdefault(label, len(mapping)) for label in raw]
        return cls(labels=np.array(dense, dtype=np.int64), community_count=len(mapping))

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def load_edge_list(
    stream: IO[str] | Iterable[str],
    *,
    delimiter: str | None = None,
) -> tuple[Graph, NodeTable]:
    """Parse ``src dst`` lines into a simple undirected graph.

    Duplicate edges (in either orientation) are collapsed and self-loops
    are dropped. Both are reported through a single warning with counts.
    ``delimiter=None`` splits on whitespace.

    A node ID may not contain ``,`` or start with ``#``: the partition and
    CSV outputs are comma-separated and skip ``#`` lines, so such an ID
    could not be read back. Such an ID raises :class:`EdgeListError`.
    """
    index: dict[str, int] = {}  # ID -> internal index, in order of first appearance
    endpoints: list[int] = []  # two per edge line
    commas = delimiter != ","  # fields split on commas cannot contain one
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        pair = line.split(delimiter)  # None splits on whitespace
        if delimiter is not None:
            pair = [tok.strip() for tok in pair]
        if len(pair) != 2:
            raise EdgeListError(
                f"line {lineno}: expected 2 fields, got {len(pair)}: {line!r}"
            )
        u, v = pair
        if "#" in line or (commas and "," in line):
            for node_id in pair:
                if "," in node_id or node_id.startswith("#"):
                    raise EdgeListError(
                        f"line {lineno}: node ID {node_id!r} contains ',' or starts with '#'"
                    )
        endpoints += index.setdefault(u, len(index)), index.setdefault(v, len(index))

    ids = tuple(index)
    del index  # freed before the arrays; NodeTable builds its own
    ends = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    del endpoints
    loops = ends[:, 0] == ends[:, 1]
    self_loops = int(loops.sum())
    if self_loops:
        ends = ends[~loops]
    width = max(len(ids), 1)
    keys = _symmetric_keys(width, ends[:, 0], ends[:, 1])
    del ends
    keys.sort()
    repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    # an edge listed k times repeats k - 1 times in each orientation
    duplicates = len(repeats) // 2
    if duplicates:
        keys = np.delete(keys, repeats)

    if self_loops or duplicates:
        logger.warning(
            "edge list cleanup: dropped %d self-loop(s), collapsed %d duplicate edge(s)",
            self_loops,
            duplicates,
        )

    return Graph._from_sorted_keys(len(ids), width, keys), NodeTable(ids=ids)


def incidence_blocks(graph: Graph, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each run of ``size`` CSR incidences in order (the last may be shorter)
    as two arrays: the row of each incidence, and its neighbour."""
    indptr, indices = graph.indptr, graph.indices
    for a in range(0, len(indices), size):
        b = min(a + size, len(indices))
        lo, hi = int(indptr.searchsorted(a, side="right")) - 1, int(indptr.searchsorted(b))
        yield np.repeat(np.arange(lo, hi), np.diff(np.clip(indptr[lo:hi + 1], a, b))), indices[a:b]


def write_rows(stream: IO[str], header: str, fmt: str, *columns: Iterable) -> None:
    """Write ``header``, then ``fmt % row`` for each row of ``columns``, in one
    write. Columns of unequal length raise ValueError."""
    stream.write(header + "".join([fmt % row for row in zip(*columns, strict=True)]))


def write_edge_list(graph: Graph, table: NodeTable, stream: IO[str]) -> None:
    """Write each edge once as a sorted ``lo hi`` line, reloadable by
    ``load_edge_list``, ``_WRITE_CHUNK`` lines per write. The edges are the
    incidences above the diagonal, picked from ``_WRITE_CHUNK`` incidences
    at a time."""
    ids = table.ids
    lo = hi = graph.indices[:0]  # edges picked and not yet written
    # a last, empty block flushes the rest
    for rows, cols in chain(incidence_blocks(graph, _WRITE_CHUNK), [(lo, hi)]):
        upper = rows < cols
        lo, hi = np.concatenate((lo, rows[upper])), np.concatenate((hi, cols[upper]))
        while len(lo) >= _WRITE_CHUNK or (len(lo) and not len(rows)):
            write_rows(stream, "", "%s %s\n", [ids[u] for u in lo[:_WRITE_CHUNK].tolist()],
                       [ids[v] for v in hi[:_WRITE_CHUNK].tolist()])
            lo, hi = lo[_WRITE_CHUNK:], hi[_WRITE_CHUNK:]


def load_partition(stream: IO[str] | Iterable[str], table: NodeTable) -> Partition:
    """Parse ``node_id,community_label`` lines covering every node in ``table``.

    Labels are relabeled densely (order of first appearance by internal
    index). Unknown or missing node IDs raise :class:`PartitionError`;
    duplicate assignments do too, since they are ambiguous.
    """
    raw: dict[int, str] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) != 2:
            raise PartitionError(f"line {lineno}: expected 'node_id,community': {line!r}")
        node_id, label = parts
        try:
            idx = table.index_of(node_id)
        except KeyError:
            raise PartitionError(f"line {lineno}: unknown node ID {node_id!r}") from None
        if idx in raw:
            raise PartitionError(f"line {lineno}: duplicate assignment for {node_id!r}")
        raw[idx] = label

    missing = [table.id_of(i) for i in range(len(table)) if i not in raw]
    if missing:
        shown = ", ".join(repr(x) for x in missing[:10])
        suffix = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise PartitionError(f"partition is missing {len(missing)} node(s): {shown}{suffix}")

    return Partition.from_labels([raw[i] for i in range(len(table))])


def write_partition(partition: Partition, table: NodeTable, stream: IO[str]) -> None:
    """Write ``node_id,community`` lines in internal index order."""
    write_rows(stream, "", "%s,%d\n", table.ids, partition.labels.tolist())

