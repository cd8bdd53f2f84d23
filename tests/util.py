"""Shared test helpers: independent oracles and graph builders."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from bridgeness import (
    EdgeListError, GeneratedNetwork, Graph, LfrConfig, Partition, centrality, generate,
)
from bridgeness.netgen import _weighted_index

FRONTIERS = ("kept", "scan")  # the two ways the engine finds a next frontier


def force(monkeypatch, direction: str = "natural", frontier: str = "natural") -> None:
    """Send every level the direction rule decides (level 3 on) ``direction``,
    ``top-down`` or ``bottom-up``, and build every next frontier ``frontier``:
    from the level's ``kept`` succ cells or by a ``scan`` of the block's cells.
    ``natural`` leaves a rule as the engine has it."""
    if direction != "natural":
        monkeypatch.setattr(centrality, "_bottom_up", lambda left, reach: direction == "bottom-up")
    if frontier != "natural":
        monkeypatch.setattr(centrality, "_from_kept", lambda kept, cells: frontier == "kept")


def neighbors(graph: Graph, v: int) -> np.ndarray:
    """Sorted neighbor indices of ``v``: its row of the CSR."""
    return graph.indices[graph.indptr[v]:graph.indptr[v + 1]]


def edge_array(graph: Graph) -> np.ndarray:
    """Each edge once as ``(u, v)`` with ``u < v``, sorted: the upper half of the CSR."""
    rows = np.repeat(np.arange(graph.node_count), graph.degrees)
    upper = rows < graph.indices
    return np.column_stack((rows[upper], graph.indices[upper]))


def er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi graph; may be disconnected."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int, tail: int = 0) -> Graph:
    """Every one of nodes 0..a-1 joined to every one of nodes a..a+b-1, and a
    path of ``tail`` more nodes hanging off node a+b-1."""
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    edges += [(v, v + 1) for v in range(a + b - 1, a + b + tail - 1)]
    return Graph.from_edges(a + b + tail, edges)


def grid_graph(side: int, rng: np.random.Generator) -> Graph:
    """side x side grid with node labels permuted by ``rng``."""
    n = side * side
    label = rng.permutation(n)
    edges = [(v, v + 1) for v in range(n) if (v + 1) % side]
    edges += [(v, v + side) for v in range(n - side)]
    return Graph.from_edges(n, [(int(label[u]), int(label[v])) for u, v in edges])


def ladder_graph(layers: int, width: int) -> Graph:
    """``layers`` layers of ``width`` nodes, each layer fully joined to the next.

    Node v sits in layer v // width, so node 0 is at one end. A node in
    layer d has width**d shortest paths from node 0.
    """
    edges = [(i * width + a, (i + 1) * width + b)
             for i in range(layers - 1) for a in range(width) for b in range(width)]
    return Graph.from_edges(layers * width, edges)


def small_lfr_graph() -> Graph:
    """LFR-style graph with 300 nodes in 8 planted communities."""
    config = LfrConfig(n=300, communities=8, mu=0.2, seed=3,
                       min_degree=6, max_degree=20, mean_degree=10)
    return generate(config).graph


def reference_edge_list(lines, *, delimiter=None):
    """Plain-Python edge-list parser, one dict lookup per token.

    Returns ``(ids, graph, self_loops, duplicates)``: IDs in order of first
    appearance, ``Graph.from_edges`` of the kept ``(lo, hi)`` index pairs,
    and the two cleanup counts ``load_edge_list`` logs. Malformed lines and
    node IDs that contain ``,`` or start with ``#`` raise the same
    ``EdgeListError`` message.
    """
    ids: list[str] = []
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    self_loops = duplicates = 0

    def intern(token: str) -> int:
        if token not in index:
            index[token] = len(ids)
            ids.append(token)
        return index[token]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if delimiter is None:
            tokens = line.split()
        else:
            tokens = [tok.strip() for tok in line.split(delimiter)]
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 2 fields, got {len(tokens)}: {line!r}")
        for token in tokens:
            if "," in token or token.startswith("#"):
                raise EdgeListError(
                    f"line {lineno}: node ID {token!r} contains ',' or starts with '#'")
        u, v = (intern(tok) for tok in tokens)
        if u == v:
            self_loops += 1
        elif (min(u, v), max(u, v)) in edges:
            duplicates += 1
        else:
            edges.add((min(u, v), max(u, v)))
    return ids, Graph.from_edges(len(ids), sorted(edges)), self_loops, duplicates


def _path_counts(adj, s):
    """BFS distances (-1 if unreached) and exact shortest-path counts from s."""
    d = [-1] * len(adj)
    sig = [0] * len(adj)
    d[s] = 0
    sig[s] = 1
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if d[w] < 0:
                d[w] = d[v] + 1
                queue.append(w)
            if d[w] == d[v] + 1:
                sig[w] += sig[v]
    return d, sig


def all_pairs_counts(graph: Graph):
    """Distances and shortest-path counts by plain BFS, independent of the library engine."""
    n = graph.node_count
    adj = [list(map(int, neighbors(graph, v))) for v in range(n)]
    dist = np.full((n, n), np.inf)
    sigma = np.zeros((n, n))
    for s in range(n):
        d, sig = _path_counts(adj, s)
        for t in range(n):
            if d[t] >= 0:
                dist[s, t] = d[t]
                sigma[s, t] = sig[t]
    return dist, sigma


def exact_decomposition(graph: Graph) -> tuple[list[Fraction], list[Fraction]]:
    """Exact (bc, bridgeness) per node: Python-int path counts, ``Fraction`` sums.

    Each unordered pair {i, k} gives every j with d(i, j) + d(j, k) = d(i, k)
    the share sigma_ij * sigma_jk / sigma_ik, into bridgeness too when
    neither endpoint is adjacent to j.
    """
    n = graph.node_count
    adj = [list(map(int, neighbors(graph, v))) for v in range(n)]
    dist, sigma = zip(*(_path_counts(adj, s) for s in range(n))) if n else ((), ())
    bc = [Fraction(0)] * n
    bri = [Fraction(0)] * n
    for i, k in combinations(range(n), 2):
        if dist[i][k] < 0:
            continue
        for j in range(n):
            if j not in (i, k) and dist[i][j] >= 0 and dist[i][j] + dist[j][k] == dist[i][k]:
                share = Fraction(sigma[i][j] * sigma[j][k], sigma[i][k])
                bc[j] += share
                if dist[i][j] > 1 and dist[j][k] > 1:
                    bri[j] += share
    return bc, bri


@dataclass(frozen=True)
class PairOracle:
    """Per-node bc = bridgeness + local, and the si-compat ``si``."""

    bc: np.ndarray
    bridgeness: np.ndarray
    local: np.ndarray
    si: np.ndarray


def bridgeness_bruteforce(graph: Graph) -> PairOracle:
    """Literal pair-enumeration oracle; intended for n up to a few hundred.

    For every node j and every unordered pair {i, k}, j is on a shortest
    i-k path iff d(i, j) + d(j, k) = d(i, k), in which case it carries
    sigma_ij * sigma_jk / sigma_ik. The neighborhood filter is applied
    literally for the bridgeness term. ``si`` weights each pair by the mean
    of ``far_i`` and ``far_k``, where ``far`` is 0 on j's neighbors and 1
    elsewhere: a pair with one endpoint adjacent to j counts half.
    """
    n = graph.node_count
    dist, sigma = all_pairs_counts(graph)
    bc = np.zeros(n)
    bri = np.zeros(n)
    si = np.zeros(n)
    sigma_safe = np.where(sigma > 0, sigma, 1.0)
    for j in range(n):
        through = (dist[:, j][:, None] + dist[j, :][None, :]) == dist
        frac = np.where(through & (sigma > 0), sigma[:, j][:, None] * sigma[j, :][None, :], 0.0)
        frac /= sigma_safe
        frac[j, :] = 0.0
        frac[:, j] = 0.0
        np.fill_diagonal(frac, 0.0)
        bc[j] = frac.sum() / 2.0
        nbrs = neighbors(graph, j)
        far = np.ones(n)
        far[nbrs] = 0.0
        si[j] = (frac * (far[:, None] + far[None, :]) / 2.0).sum() / 2.0
        frac[nbrs, :] = 0.0
        frac[:, nbrs] = 0.0
        bri[j] = frac.sum() / 2.0
    return PairOracle(bc=bc, bridgeness=bri, local=bc - bri, si=si)


def reference_one_level(level, rng):
    """Louvain local moves that evaluate every node in every sweep.

    The reference for ``community._one_level``, with the same return value:
    the communities, and the nodes moved and evaluated per sweep.
    """
    adj, links, strength = level.adj, level.links, level.strength
    n = len(adj)
    two_m = 2.0 * level.total_weight
    comm = list(range(n))
    comm_strength = list(strength)
    order = list(range(n))
    moves = []
    while not moves or moves[-1]:
        rng.shuffle(order)
        moved = 0
        for v in order:
            cv = comm[v]
            kv = strength[v]
            to_comm = {}
            for w, weight in links(adj[v]):
                to_comm[comm[w]] = to_comm.get(comm[w], 0.0) + weight
            comm_strength[cv] -= kv
            best_comm = cv
            best_gain = to_comm.get(cv, 0.0) - comm_strength[cv] * kv / two_m
            for cand, k_in in sorted(to_comm.items()):
                if cand == cv:
                    continue
                gain = k_in - comm_strength[cand] * kv / two_m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_comm = cand
            comm_strength[best_comm] += kv
            if best_comm != cv:
                comm[v] = best_comm
                moved += 1
        moves.append(moved)
    return comm, moves, [n] * len(moves)


def reference_assign_communities(degrees, sizes, rng):
    """LFR placement with one numpy weight vector per node.

    The reference for ``netgen._assign_communities``: each node, in
    descending degree order, goes to a community drawn by ``rng.choice``'s
    arithmetic over the free places of the communities larger than its
    degree, or, when all of those are full, to the largest open community
    with its degree shrunk to fit.
    """
    n = len(degrees)
    free = np.asarray(sizes, dtype=np.int64).copy()
    size_arr = np.asarray(sizes, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    order = np.lexsort((np.arange(n), -degrees))
    for v in order.tolist():
        weights = np.where(size_arr > degrees[v], free, 0.0)
        if not weights.any():
            open_comms = free > 0
            c = int(np.flatnonzero(open_comms)[np.argmax(size_arr[open_comms])])
            degrees[v] = size_arr[c] - 1
        else:
            c = _weighted_index(weights, rng.random())
        labels[v] = c
        free[c] -= 1
    return labels


def best_label_agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Element-wise agreement after optimal label matching (Hungarian)."""
    from scipy.optimize import linear_sum_assignment

    ca = int(labels_a.max()) + 1
    cb = int(labels_b.max()) + 1
    conf = np.zeros((ca, cb))
    np.add.at(conf, (labels_a, labels_b), 1)
    rows, cols = linear_sum_assignment(-conf)
    return float(conf[rows, cols].sum() / len(labels_a))


def inter_community_fraction(graph: Graph, partition: Partition) -> float:
    """Share of edges whose endpoints lie in different communities; 0 if no edges."""
    if len(partition) != graph.node_count:
        raise ValueError(f"partition covers {len(partition)} nodes, graph has {graph.node_count}")
    if graph.edge_count == 0:
        return 0.0
    cu, cv = partition.labels[edge_array(graph)].T
    return float((cu != cv).sum() / graph.edge_count)


def dense_link_matrix(graph: Graph, partition: Partition) -> np.ndarray:
    """Symmetric C x C inter-community link counts; internal counts on the diagonal."""
    c = partition.community_count
    counts = np.zeros((c, c), dtype=np.int64)
    cu, cv = partition.labels[edge_array(graph)].T
    same = cu == cv
    np.add.at(counts, (cu[same], cv[same]), 1)
    np.add.at(counts, (cu[~same], cv[~same]), 1)
    np.add.at(counts, (cv[~same], cu[~same]), 1)
    return counts


def dense_indicator(graph: Graph, partition: Partition) -> np.ndarray:
    """G as the row sums of the dense n x C product ``touches * inv[labels]``.

    ``touches[i, J]`` marks the foreign communities node i links to, and
    ``inv[I, J]`` is 1/links(I, J) off the diagonal. This is the reference
    that ``global_indicator`` must match bit for bit.
    """
    matrix = dense_link_matrix(graph, partition)
    touches = np.zeros((graph.node_count, partition.community_count), dtype=bool)
    eu, ev = edge_array(graph).T
    cu = partition.labels[eu]
    cv = partition.labels[ev]
    inter = cu != cv
    touches[eu[inter], cv[inter]] = True
    touches[ev[inter], cu[inter]] = True
    inv = np.zeros_like(matrix, dtype=np.float64)
    np.divide(1.0, matrix, out=inv, where=matrix > 0)
    np.fill_diagonal(inv, 0.0)  # own community never contributes
    return (touches * inv[partition.labels]).sum(axis=1)


@dataclass(frozen=True)
class BridgeDegreeBias:
    """Degree comparison between nodes picked for rewiring and all nodes."""

    rewired_mean_degree: float
    overall_mean_degree: float
    ranksum_statistic: float
    ranksum_pvalue: float


def bridge_degree_bias(net: GeneratedNetwork) -> BridgeDegreeBias:
    """Rank-sum comparison of rewired-node degrees against all degrees.

    Degrees are measured on the final graph. A large two-sided p-value
    means the rewired set is degree-indistinguishable from the population.
    """
    from scipy import stats

    if not net.rewired_nodes:
        raise ValueError("network has no rewired nodes to compare")
    degrees = net.graph.degrees
    picked = degrees[sorted(net.rewired_nodes)]
    stat, pvalue = stats.ranksums(picked, degrees)
    return BridgeDegreeBias(
        rewired_mean_degree=float(picked.mean()),
        overall_mean_degree=float(degrees.mean()),
        ranksum_statistic=float(stat),
        ranksum_pvalue=float(pvalue),
    )
