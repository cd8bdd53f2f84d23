import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bridgeness import (
    Graph,
    LfrConfig,
    LouvainConfig,
    Partition,
    community,
    generate,
    louvain_passes,
    modularity,
)

from util import best_label_agreement, complete_graph, edge_array, reference_one_level


def two_cliques(k, bridge=True):
    edges = [(i, j) for i, j in combinations(range(k), 2)]
    edges += [(k + i, k + j) for i, j in combinations(range(k), 2)]
    if bridge:
        edges.append((0, k))
    return Graph.from_edges(2 * k, edges)


def all_partitions(items):
    """Every set partition of ``items`` (Bell-number many; keep items small)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def test_modularity_single_community_is_zero():
    g = two_cliques(4)
    p = Partition(labels=np.zeros(8, dtype=np.int64), community_count=1)
    assert modularity(g, p) == pytest.approx(0.0)


def test_modularity_disjoint_triangles():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    p = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), community_count=2)
    assert modularity(g, p) == pytest.approx(0.5)


def test_modularity_bridged_triangles():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    p = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), community_count=2)
    assert modularity(g, p) == pytest.approx(5 / 14)


def test_modularity_empty_graph_errors():
    with pytest.raises(ValueError):
        modularity(Graph.from_edges(3, []), Partition.from_labels([0, 0, 0]))


# (seed, n, p, communities, mix, isolated): labels drawn from ``communities``,
# some unused; a link within a community has probability p and one between
# communities p * mix; ``isolated`` leaves the last node without links
MODULARITY_CASES = [
    (0, 12, 0.3, 1, 1.0, False), (1, 12, 0.3, 12, 1.0, False), (2, 20, 0.2, 3, 1.0, True),
    (3, 30, 0.3, 5, 0.1, False), (4, 40, 0.15, 40, 1.0, True), (5, 50, 0.3, 7, 0.05, False),
    (6, 60, 0.05, 60, 1.0, False), (7, 8, 0.9, 2, 1.0, False), (8, 25, 0.5, 30, 1.0, False),
    (9, 100, 0.2, 10, 0.1, True), (10, 100, 0.04, 1, 1.0, False), (11, 150, 0.03, 150, 1.0, False),
    (12, 200, 0.3, 20, 0.02, False), (13, 200, 0.1, 4, 1.0, True), (14, 5, 0.6, 2, 1.0, True),
    (15, 300, 0.02, 300, 1.0, True), (16, 300, 0.2, 37, 0.05, False), (17, 80, 0.2, 80, 1.0, False),
    (18, 400, 0.1, 12, 0.2, False), (19, 400, 0.3, 150, 0.01, True),
]
# repr(modularity(...)) of each case, recorded from the whole-array computation
MODULARITY_REPRS = [
    "0.0", "-0.04375", "0.04269972451790635", "0.5934256055363321", "0.026534636488340188",
    "0.5224244698817789", "0.0006487889273356334", "-0.028799999999999968",
    "-0.04174817898022894", "0.49613776373328233", "0.0", "-0.011861515015000624",
    "0.65381844602208", "-0.01048005305581061", "-0.125", "-0.0015466900435801107",
    "0.3140467775651927", "-0.009703798425698334", "0.22099346656224758",
    "0.35648345724489566",
]


def modularity_case(seed, n, p, count, mix, isolated):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64) if count == 1 else rng.integers(0, count, size=n)
    last = n - 1 if isolated else n
    edges = [(i, j) for i in range(last) for j in range(i + 1, last)
             if rng.random() < (p if labels[i] == labels[j] else p * mix)]
    return Graph.from_edges(n, edges), Partition(labels=labels, community_count=count)


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("case, expected", zip(MODULARITY_CASES, MODULARITY_REPRS))
def test_modularity_bits_are_pinned_and_match_networkx(case, expected, block, monkeypatch):
    import networkx as nx

    graph, partition = modularity_case(*case)
    if block is not None:  # blocks of max(block, C) incidences, most ending mid-row
        monkeypatch.setattr(community, "_BLOCK", block)
    q = modularity(graph, partition)
    assert repr(q) == expected
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.node_count))
    nxg.add_edges_from(edge_array(graph).tolist())
    labels = partition.labels.tolist()
    groups = [{v for v in range(len(labels)) if labels[v] == c} for c in sorted(set(labels))]
    assert abs(q - nx.community.modularity(nxg, groups)) <= 1e-12


def test_louvain_recovers_two_cliques():
    g = two_cliques(10)
    part = louvain_passes(g, LouvainConfig(seed=1)).partition
    assert part.community_count == 2
    assert len(set(part.labels[:10])) == 1
    assert len(set(part.labels[10:])) == 1
    # no single-node move improves Q from the recovered partition
    base = modularity(g, part)
    for v in range(20):
        for target in range(2):
            if target == part.labels[v]:
                continue
            moved = part.labels.copy()
            moved[v] = target
            assert modularity(g, Partition(labels=moved, community_count=2)) < base


def test_louvain_complete_graph_single_community():
    g = complete_graph(6)
    part = louvain_passes(g, LouvainConfig(seed=2)).partition
    assert part.community_count == 1
    # brute force over all set partitions of 6 nodes: nothing beats one block
    best = max(
        modularity(g, Partition.from_labels(_labels_of(blocks, 6)))
        for blocks in all_partitions(range(6))
    )
    assert modularity(g, part) == pytest.approx(best)


def _labels_of(blocks, n):
    labels = [0] * n
    for idx, block in enumerate(blocks):
        for v in block:
            labels[v] = idx
    return labels


def test_louvain_same_seed_same_partition():
    g = two_cliques(8)
    a = louvain_passes(g, LouvainConfig(seed=9)).partition
    b = louvain_passes(g, LouvainConfig(seed=9)).partition
    assert np.array_equal(a.labels, b.labels)


def test_louvain_passes_monotone():
    rng = np.random.default_rng(4)
    edges = [(i, j) for i, j in combinations(range(24), 2) if rng.random() < 0.2]
    g = Graph.from_edges(24, edges)
    for seed in range(5):
        run = louvain_passes(g, LouvainConfig(seed=seed))
        qs = run.pass_modularity
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert modularity(g, run.partition) == pytest.approx(qs[-1])


def test_louvain_beats_trivial_partition():
    g = two_cliques(6)
    part = louvain_passes(g, LouvainConfig(seed=0)).partition
    assert modularity(g, part) > 0.0


def test_louvain_requires_edges():
    with pytest.raises(ValueError):
        louvain_passes(Graph.from_edges(4, []), LouvainConfig(seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        LouvainConfig(seed=0, max_passes=0)
    with pytest.raises(ValueError):
        LouvainConfig(seed=0, min_gain=0.0)


def test_best_label_agreement_helper():
    a = np.array([0, 0, 1, 1])
    b = np.array([1, 1, 0, 0])
    assert best_label_agreement(a, b) == 1.0


@st.composite
def clustered_graphs(draw):
    """Random graphs of dense groups inside denser blocks, so Louvain merges
    nodes into groups and then groups into blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.integers(2, 5))
    groups = draw(st.integers(2, 5))
    size = draw(st.integers(3, 7))
    n = blocks * groups * size
    group = np.arange(n) // size
    block = group // groups
    p = np.where(group[:, None] == group[None, :], draw(st.floats(0.5, 1.0)),
                 np.where(block[:, None] == block[None, :], draw(st.floats(0.05, 0.3)),
                          draw(st.floats(0.0, 0.03))))
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return Graph.from_edges(n, np.argwhere(upper))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph=clustered_graphs(), seed=st.integers(0, 2**16))
def test_skipping_unchanged_nodes_keeps_every_decision(graph, seed):
    assume(graph.edge_count > 0)
    config = LouvainConfig(seed=seed)
    with mock.patch.object(community, "_one_level", reference_one_level):
        expected = louvain_passes(graph, config)
    assume(len(expected.pass_modularity) >= 2)  # aggregated at least twice
    run = louvain_passes(graph, config)
    assert np.array_equal(run.partition.labels, expected.partition.labels)
    assert repr(run.pass_modularity) == repr(expected.pass_modularity)
    assert run.moves == expected.moves
    assert all(0 < e <= n for level, full in zip(run.evaluations, expected.evaluations)
               for e, n in zip(level, full))


def test_last_level_zero_sweep_skips_unchanged_nodes():
    graph = generate(LfrConfig(n=1000, communities=30, mu=0.2, seed=7)).graph  # default1000
    run = louvain_passes(graph, LouvainConfig(seed=5))
    assert run.moves[0][-1] == 0
    assert run.evaluations[0][0] == graph.node_count
    assert run.evaluations[0][-1] < graph.node_count
    assert len(run.moves) == len(run.evaluations) == len(run.pass_modularity)


@pytest.mark.parametrize("kind", ["ground truth", "singletons"])
def test_modularity_peak_memory_at_n_10000(kind):
    # the documented bound; the whole-incidence version peaked at 2.44 MiB
    # on the ground truth
    net = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=3))
    graph, partition = net.graph, net.ground_truth
    if kind == "singletons":
        partition = Partition(labels=np.arange(graph.node_count), community_count=graph.node_count)
    tracemalloc.start()
    try:
        modularity(graph, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = graph.node_count, partition.community_count
    assert graph.edge_count == 75080
    bound = 25 * max(community._BLOCK, c) + 24 * c + 8 * (n + 1)
    assert peak <= bound
    assert kind == "singletons" or bound <= 1.38 * 2**20


def test_louvain_peak_memory_at_n_10000():
    # the documented bound, 32 m + 300 n bytes above the graph; level 0 held
    # 13.4 MiB with a dict of unit weights per node and a fresh int per link
    graph = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=3)).graph
    tracemalloc.start()
    try:
        louvain_passes(graph, LouvainConfig(seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m = graph.node_count, graph.edge_count
    assert m == 75080
    assert peak <= 32 * m + 300 * n
