"""LFR-style synthetic networks with unbiased bridge rewiring.

Phase 1 draws a global power-law degree sequence, places every node into a
community large enough to host its degree (so hubs concentrate in the big
communities), and wires each community in isolation as a degree-assortative
random graph, giving each community a hub core and a low-degree periphery
like real transport and collaboration networks. Phase 2 turns
intra-community links into inter-community links until the target mixing
fraction mu is reached.

The classic construction picks a random internal *link* to rewire, which
selects endpoints proportionally to degree and so produces bridges biased
toward high-degree nodes. The default here picks a *node* uniformly among
those that still have an intra-community link, then one of its internal
links uniformly, and moves the far endpoint outside the community; the
chosen node keeps its degree and the selection is degree-blind.
``selection="link"`` keeps the biased variant available for comparison.

The far endpoint reattaches to a degree-proportional stub. That draw
descends a Fenwick tree of the degrees (Fenwick 1994) in O(log n) and
returns exactly the node ``rng.choice(n, p=degrees / degrees.sum())`` would
from the same draw: a draw too close to a bucket edge for numpy's float CDF
to be sure of it is answered by numpy's own computation instead. Phase 1
places nodes with the same sampler, over the free places of the
communities that are large enough for the node's degree.

Each node's neighbours are a set only while its own community is wired,
since that wiring reads and writes only its members' rows; then the set
becomes a sorted list. Rewiring keeps those same-label rows, a short list
per node of the other-label neighbours it gained, every entry the one int
object of its node, and only the index the selection rule samples beside
them: none for ``"node"``, which draws from the rows, and the intra-link
list and its position dict for ``"link"``. The index is freed after the
rewiring; then the two rows of each node, merged and sorted, become its
row of the CSR, so set iteration order never reaches the output. The
``tracemalloc`` peak of :func:`generate` at mean degree 15 (n from 3000
to 40000) is about ``70 m`` bytes for ``"node"``, in the CSR build, and
``180 m`` to ``220 m`` for ``"link"``, where its position dict is built
(at n=10000, seed 3, 4.9 and 12.7 MiB).
"""
from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graph import Graph, Partition

logger = logging.getLogger(__name__)


class GenerationError(RuntimeError):
    """Raised when a generator target cannot be met within bounded attempts."""


_ASSORT_NOISE = 0.35  # spread of the degree key used for assortative pairing
_SIZE_EXPONENT = 2.0  # power law of the community sizes
_MIN_COMMUNITY_SIZE = 22
_MAX_COMMUNITY_SIZE = 200
_MAX_TARGET_RETRIES = 64  # stub draws per rewire before the kept node is resampled
_MAX_REWIRE_ATTEMPTS = 1_000_000
_EXACT_UNIT = 1 << 53  # draws and the guard margin are counted in units of 2**-53


@dataclass(frozen=True)
class LfrConfig:
    """Parameters for one synthetic network.

    Degrees are drawn from a truncated power law (``exponent``,
    ``min_degree``, ``max_degree``) and rescaled to ``mean_degree``.
    Community sizes follow their own truncated power law (exponent 2 on
    [22, 200], rescaled to sum to ``n``). Everything is a pure function of
    ``seed``.
    """

    n: int
    communities: int
    mu: float
    seed: int
    exponent: float = 2.5
    min_degree: int = 12
    max_degree: int = 50
    mean_degree: float = 15.0
    selection: str = "node"

    def __post_init__(self) -> None:
        if self.communities < 1 or self.n < self.communities:
            raise ValueError("need n >= communities >= 1")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must be in [0, 1)")
        if self.mu > 0.0 and self.communities < 2:
            raise ValueError("mu > 0 needs at least 2 communities")
        if not 1 <= self.min_degree <= self.max_degree:
            raise ValueError("need 1 <= min_degree <= max_degree")
        if not self.exponent > 1.0:
            raise ValueError("exponent must be > 1")
        if not 0.0 < self.mean_degree < math.inf:
            raise ValueError("mean_degree must be positive and finite")
        if self.selection not in ("node", "link"):
            raise ValueError("selection must be 'node' or 'link'")
        smallest = min(self.sizes())
        if self.min_degree > smallest - 1:
            raise ValueError(
                f"min_degree {self.min_degree} infeasible in a community of size {smallest}"
            )

    def sizes(self) -> tuple[int, ...]:
        # dedicated stream so phase-1 draws do not depend on the size draw
        rng = np.random.default_rng([self.seed, 0x5123])
        floor = min(_MIN_COMMUNITY_SIZE, self.n // self.communities)
        # ceil must leave room to reach n even if every community maxes out
        ceil = max(_MAX_COMMUNITY_SIZE, floor + 1, -(-self.n // self.communities))
        raw = _power_law(rng.random(self.communities), floor, ceil, _SIZE_EXPONENT)
        raw *= self.n / raw.sum()
        sizes = np.clip(np.rint(raw).astype(np.int64), floor, ceil)
        order = np.argsort(-sizes, kind="stable")
        i = 0
        while sizes.sum() != self.n:
            c = order[i % self.communities]
            if sizes.sum() < self.n and sizes[c] < ceil:
                sizes[c] += 1
            elif sizes.sum() > self.n and sizes[c] > floor:
                sizes[c] -= 1
            i += 1
        return tuple(int(s) for s in sizes)


@dataclass(frozen=True)
class GeneratedNetwork:
    graph: Graph
    ground_truth: Partition
    achieved_mu: float
    rewired_nodes: frozenset[int]
    dropped_stubs: int
    rewire_attempts: int
    target_rejections: int  # stub draws refused as a rewiring target


def _power_law(u: np.ndarray, lo: float, hi: float, gamma: float) -> np.ndarray:
    """Inverse-CDF draws, one per uniform ``u``, from x^-gamma truncated to [lo, hi]."""
    a = lo ** (1.0 - gamma)
    b = hi ** (1.0 - gamma)
    return (a + u * (b - a)) ** (1.0 / (1.0 - gamma))


def _sample_degrees(config: LfrConfig, rng: np.random.Generator) -> np.ndarray:
    """Truncated power-law degrees, rescaled to the target mean."""
    raw = _power_law(rng.random(config.n), config.min_degree, config.max_degree, config.exponent)
    raw *= config.mean_degree / raw.mean()
    return np.maximum(np.rint(raw).astype(np.int64), 1)


def _weighted_index(weights: np.ndarray, u: float) -> int:
    """What ``rng.choice(len(weights), p=weights / weights.sum())`` returns when
    its ``rng.random()`` draw is ``u``: numpy's own arithmetic, without its
    validation of ``p``."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


class _FenwickSampler:
    """Weight-proportional index draws in O(log n), equal to ``rng.choice``.

    ``tree`` is a 1-based Fenwick tree over the integer ``weights``, so a
    prefix sum and a point update each cost O(log n).
    """

    def __init__(self, weights: list[int]) -> None:
        self.n = n = len(weights)
        self.weights = list(weights)
        self.tree = [0, *weights]
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                self.tree[parent] += self.tree[i]
        self.total = sum(weights)
        self.top = 1 << (n.bit_length() - 1) if n else 0
        # numpy's cdf[i] is within about (2n+3) * 2**-53 of the exact prefix
        # ratio P_{i+1}/S: each quotient w_j/S rounds once, the sequential
        # cumsum adds up to n roundings of partial sums <= 1 + O(n 2**-53),
        # dividing by cdf[-1] (itself that close to 1) doubles that, and the
        # division rounds once more. A margin of 16(n+2) units covers it
        # eightfold; the guard's slack is that margin scaled by S.
        self.margin = 16 * (n + 2)
        self.fallbacks = 0

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` to weight ``i``."""
        self.weights[i] += delta
        self.total += delta
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & -i

    def move(self, u: int, w: int) -> None:
        """Move one unit of weight from ``u`` to ``w``."""
        self.add(u, -1)
        self.add(w, 1)

    def draw(self, rng: np.random.Generator) -> int:
        u = rng.random()
        n, tree, total = self.n, self.tree, self.total
        x = u * total
        pos = below = 0  # descend to the largest pos with P_pos = below <= x
        step = self.top
        while step:
            nxt = pos + step
            if nxt <= n and below + tree[nxt] <= x:
                pos, below = nxt, below + tree[nxt]
            step >>= 1
        # Keep pos only if P_pos/S + margin <= u < P_{pos+1}/S - margin, in
        # exact integers: then numpy's cdf puts u in bucket pos as well. The
        # test does not trust x, so a rounded descent can only cost a fallback.
        if pos < n:
            num, den = u.as_integer_ratio()
            above = below + self.weights[pos]
            slack = self.margin * total
            if ((below * _EXACT_UNIT + slack) * den <= num * total * _EXACT_UNIT
                    < (above * _EXACT_UNIT - slack) * den):
                return pos
        self.fallbacks += 1
        return _weighted_index(np.array(self.weights, dtype=np.float64), u)


def _assign_communities(
    degrees: np.ndarray, sizes: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Place each node in a community that can host its degree.

    Nodes are placed in descending degree order into a community drawn with
    probability proportional to its remaining capacity, restricted to
    communities larger than the node's degree. High-degree nodes therefore
    concentrate in large communities, and degrees are never trimmed except
    in the rare fallback where no feasible community has room left.

    The draw is ``rng.choice`` over those weights. Since degrees only fall
    along the order, a community joins the sampler, with its free places,
    once it is larger than the current degree, and stays in it.
    """
    free = list(sizes)
    by_size = sorted(range(len(sizes)), key=lambda c: -sizes[c])  # stable: ties by index
    sampler = _FenwickSampler([0] * len(sizes))
    feasible = 0  # by_size[:feasible] are in the sampler
    labels = np.full(len(degrees), -1, dtype=np.int64)
    order = np.lexsort((np.arange(len(degrees)), -degrees))
    for v, degree in zip(order.tolist(), degrees[order].tolist()):
        while feasible < len(sizes) and sizes[by_size[feasible]] > degree:
            c = by_size[feasible]
            sampler.add(c, free[c])
            feasible += 1
        if sampler.total == 0:
            # shrink the degree to the roomiest community still open
            c = next(c for c in by_size if free[c])
            degrees[v] = sizes[c] - 1
        else:
            c = sampler.draw(rng)
            sampler.add(c, -1)
        labels[v] = c
        free[c] -= 1
    return labels


def _swap_repair(remaining, edges, adjacency, rng: np.random.Generator) -> int:
    """Place leftover stub pairs by degree-preserving swaps with placed edges.

    (u,v)+(a,b) -> (u,a)+(v,b); a same-node pair (u,u)+(a,b) -> (u,a)+(u,b).
    Returns the number of stubs dropped after bounded attempts.
    """
    dropped = 0
    while len(remaining) >= 2:
        v = remaining.pop()
        u = remaining.pop()
        if u != v and v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            edges.append((u, v))
            continue
        placed = False
        for _ in range(500 if edges else 0):
            idx = int(rng.integers(len(edges)))
            a, b = edges[idx]
            if rng.random() < 0.5:
                a, b = b, a
            if u == v:
                ok = u not in (a, b) and a not in adjacency[u] and b not in adjacency[u]
                new_pairs = ((u, a), (u, b))
            else:
                ok = len({u, v, a, b}) == 4 and a not in adjacency[u] and b not in adjacency[v]
                new_pairs = ((u, a), (v, b))
            if ok:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
                edges[idx] = edges[-1]
                edges.pop()
                for x, y in new_pairs:
                    adjacency[x].add(y)
                    adjacency[y].add(x)
                    edges.append((x, y))
                placed = True
                break
        if not placed:
            dropped += 2
    dropped += len(remaining)
    return dropped


def _pair_stubs_assortative(
    members, degrees, adjacency, nodes, rng: np.random.Generator
) -> tuple[list, int]:
    """Degree-assortative wiring of one community.

    Stubs are ordered by their owner's degree perturbed with multiplicative
    noise, then paired consecutively, so hubs interconnect into a dense core
    and low-degree nodes attach to the periphery. Stubs that find no partner
    go to ``_swap_repair``, keeping the graph simple and the degree sequence
    intact. Returns the edges (of ``nodes``' ints) and the dropped stubs.
    """
    stubs = np.repeat(members, degrees[members])
    if stubs.size == 0:
        return [], 0
    key = degrees[stubs] * (1.0 + _ASSORT_NOISE * rng.standard_normal(stubs.size))
    stubs = stubs[np.lexsort((stubs, -key))]
    edges: list[tuple[int, int]] = []
    pending: list[int] = []
    for u in map(nodes.__getitem__, stubs.tolist()):
        adj_u = adjacency[u]
        # nearest-rank stub of a different, not-yet-adjacent node
        for i, v in enumerate(pending):
            if v != u and v not in adj_u:
                adj_u.add(v)
                adjacency[v].add(u)
                edges.append((v, u))
                del pending[i]
                break
        else:
            pending.append(u)
    dropped = _swap_repair(pending, edges, adjacency, rng)
    if dropped:
        logger.warning("dropped %d unplaceable stub(s) in a community of size %d",
                       dropped, len(members))
    return edges, dropped


@dataclass
class _WiringState:
    """Mutable edge structures shared by the rewiring phase.

    ``intra[v]`` holds the sorted same-label neighbours of ``v`` and
    ``inter[v]`` the other-label ones, in the order rewiring added them;
    every entry is ``nodes[w]`` for node ``w``. ``drop_intra`` keeps
    ``intra`` and, for ``"link"``, ``intra_edges`` and ``intra_pos``.
    """

    labels: np.ndarray
    intra: list[list[int]]
    inter: list[list[int]]
    nodes: list[int]
    selection: str
    intra_edges: list[tuple[int, int]] = field(default_factory=list)
    intra_pos: dict[tuple[int, int], int] = field(init=False, repr=False)
    inter_count: int = field(init=False)
    edge_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.inter_count = sum(map(len, self.inter)) // 2
        self.edge_count = sum(map(len, self.intra)) // 2 + self.inter_count
        if self.selection == "link":
            self.intra_pos = {e: i for i, e in enumerate(self.intra_edges)}

    def drop_intra(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            row = self.intra[a]
            del row[bisect_left(row, b)]
        if self.selection == "node":
            return
        key = (u, v) if u < v else (v, u)
        pos = self.intra_pos.pop(key)
        last = self.intra_edges[-1]
        self.intra_edges[pos] = last
        self.intra_edges.pop()
        if last != key:
            self.intra_pos[last] = pos

    def add_inter(self, u: int, v: int) -> None:
        self.inter[u].append(self.nodes[v])
        self.inter[v].append(self.nodes[u])
        self.inter_count += 1

    def mu(self) -> float:
        return self.inter_count / self.edge_count if self.edge_count else 0.0


def _rewire_to_mu(
    state: _WiringState,
    target_mu: float,
    rng: np.random.Generator,
) -> tuple[frozenset[int], int, int]:
    """Convert intra links to inter links until the mixing target is met.

    ``selection="node"`` picks the kept endpoint uniformly over nodes that
    still own an intra link (degree-unbiased); ``"link"`` picks an intra
    link uniformly and keeps a random endpoint (degree-biased, the classic
    construction). An attempt whose far end has no other link is dropped,
    since an isolated node cannot appear in the edge list. The freed far
    end reattaches to a random external stub (degree-proportional, see
    ``_FenwickSampler``), with at most ``_MAX_TARGET_RETRIES`` stub draws
    per attempt; past ``_MAX_REWIRE_ATTEMPTS`` attempts it raises
    GenerationError, and so it does as soon as every intra link left joins
    two nodes of degree 1, since no attempt can move one. Returns the set of
    kept endpoints, the attempts and the refused stub draws.
    """
    n = len(state.intra)
    labels = state.labels.tolist()
    stubs = _FenwickSampler([len(a) + len(b) for a, b in zip(state.intra, state.inter)])
    degree = stubs.weights

    def lone_intra(v: int) -> bool:
        """Whether v's only link is an intra link to another node of degree 1."""
        row = state.intra[v]
        return degree[v] == 1 and len(row) == 1 and degree[row[0]] == 1

    # no attempt can rewire a dead link, one between two nodes of degree 1;
    # a rewire changes the degree of u and w only, so it updates the count
    dead = sum(map(lone_intra, range(n))) // 2
    rewired: set[int] = set()
    attempts = rejections = 0
    while state.mu() < target_mu:
        if state.edge_count - state.inter_count == dead:
            raise GenerationError(f"mu target {target_mu} unreachable: " + (
                f"each of the {dead} intra-community links left joins two nodes of degree 1"
                if dead else "no intra-community links left"))
        attempts += 1
        if attempts > _MAX_REWIRE_ATTEMPTS:
            raise GenerationError(
                f"mu target {target_mu} not reached after {_MAX_REWIRE_ATTEMPTS} attempts")

        if state.selection == "node":
            v = int(rng.integers(n))
            intra = state.intra[v]
            if not intra:
                continue  # rejection keeps the draw uniform over eligible nodes
            u = intra[int(rng.integers(len(intra)))]
        else:
            a, b = state.intra_edges[int(rng.integers(len(state.intra_edges)))]
            v, u = (a, b) if rng.random() < 0.5 else (b, a)
        if degree[u] == 1:
            continue

        # a kept node saturated toward the outside is resampled next attempt;
        # intra[v] holds only v's label, so inter[v] settles adjacency
        for _ in range(_MAX_TARGET_RETRIES):
            w = stubs.draw(rng)
            if labels[w] != labels[v] and w not in state.inter[v]:
                dead -= lone_intra(w)  # w gains a link
                state.drop_intra(v, u)
                state.add_inter(v, w)
                stubs.move(u, w)
                dead += lone_intra(u)  # and u, of degree 2 or more, loses one
                rewired.add(v)
                break
            rejections += 1
    return frozenset(rewired), attempts, rejections


def generate(config: LfrConfig) -> GeneratedNetwork:
    """Build a planted-partition network at the configured mixing fraction."""
    rng = np.random.default_rng(config.seed)
    sizes = config.sizes()
    degrees = _sample_degrees(config, rng)
    labels = _assign_communities(degrees, sizes, rng)

    # a community's wiring reads and writes only its members' rows, so each
    # row is a set while its community is wired and a sorted list after
    intra: list = [None] * config.n
    nodes = list(range(config.n))
    intra_edges: list[tuple[int, int]] = []  # only the link rule samples it
    dropped_stubs = 0
    for c, size in enumerate(sizes):
        members = np.flatnonzero(labels == c)
        if degrees[members].sum() % 2 == 1:
            # odd stub count cannot pair up; nudge one degree inside bounds
            bump = members[np.argmin(degrees[members])]
            if degrees[bump] < size - 1:
                degrees[bump] += 1
            else:
                degrees[members[np.argmax(degrees[members])]] -= 1
        rows = members.tolist()
        for v in rows:
            intra[v] = set()
        wired, dropped = _pair_stubs_assortative(members, degrees, intra, nodes, rng)
        for v in rows:
            intra[v] = sorted(intra[v])
        if config.selection == "link":
            intra_edges += [(u, v) if u < v else (v, u) for u, v in wired]
        dropped_stubs += dropped

    inter: list[list[int]] = [[] for _ in range(config.n)]
    state = _WiringState(labels=labels, intra=intra, inter=inter, nodes=nodes,
                         selection=config.selection, intra_edges=intra_edges)
    del nodes, intra_edges
    rewired, attempts, rejections = frozenset(), 0, 0
    if config.mu > 0.0:
        rewired, attempts, rejections = _rewire_to_mu(state, config.mu, rng)

    achieved = state.mu()
    del state  # the rewiring index goes before the CSR build
    indptr = np.zeros(config.n + 1, dtype=np.int64)
    np.cumsum([len(a) + len(b) for a, b in zip(intra, inter)], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(sorted(a + b) for a, b in zip(intra, inter)),
                          dtype=np.int64, count=indptr[-1])
    graph = Graph(config.n, indptr, indices)
    partition = Partition(labels=labels, community_count=config.communities)
    return GeneratedNetwork(
        graph=graph,
        ground_truth=partition,
        achieved_mu=achieved,
        rewired_nodes=rewired,
        dropped_stubs=dropped_stubs,
        rewire_attempts=attempts,
        target_rejections=rejections,
    )
