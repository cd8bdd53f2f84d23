import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeness import Graph, LfrConfig, Partition, generate, global_indicator, indicator
from bridgeness.indicator import write_indicator_csv

from util import (
    dense_indicator, dense_link_matrix, er_graph, inter_community_fraction, neighbors,
)

TRIANGLES = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
TWO_COMMS = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), community_count=2)


def random_partition(n, c, rng):
    labels = rng.integers(0, c, size=n)
    return Partition.from_labels(list(labels))


def test_link_matrix_two_triangles_bridge():
    m = dense_link_matrix(TRIANGLES, TWO_COMMS)
    assert m[0, 0] == 3
    assert m[1, 1] == 3
    assert m[0, 1] == m[1, 0] == 1


def test_link_matrix_single_community():
    p = Partition(labels=np.zeros(6, dtype=np.int64), community_count=1)
    m = dense_link_matrix(TRIANGLES, p)
    assert m[0, 0] == TRIANGLES.edge_count


def test_link_matrix_mass_conservation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = er_graph(30, 0.2, rng)
        p = random_partition(30, 4, rng)
        counts = dense_link_matrix(g, p)
        assert np.array_equal(counts, counts.T)
        assert np.triu(counts).sum() == g.edge_count


@st.composite
def partitioned_graphs(draw):
    """Random graphs of up to 40 nodes, empty to complete, with a partition of
    C = 1, C = n, or random labels drawn from more communities than they use.

    Dense rows with many communities make numpy's pairwise row sum group
    terms differently from a sequential one, so the bits test the grouping.
    """
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = er_graph(n, draw(st.floats(0.0, 1.0)), rng)
    kind = draw(st.sampled_from(["one", "singletons", "random"]))
    if kind == "one":
        return graph, Partition(labels=np.zeros(n, dtype=np.int64), community_count=1)
    if kind == "singletons":
        return graph, Partition(labels=np.arange(n), community_count=n)
    count = draw(st.integers(1, n + 3))
    return graph, Partition(labels=rng.integers(0, count, size=n), community_count=count)


@pytest.mark.parametrize("rows", [1, 3, None])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=partitioned_graphs())
def test_indicator_bits_match_dense_formula(rows, case):
    graph, partition = case
    scratch = indicator._SCRATCH if rows is None else rows * 8 * partition.community_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indicator, "_SCRATCH", scratch)
        if rows is not None:  # and blocks of 5 incidences, most ending mid-row
            mp.setattr(indicator, "_BLOCK", 5)
        g = global_indicator(graph, partition)
    assert g.tobytes() == dense_indicator(graph, partition).tobytes()


def test_indicator_memory_is_bounded_with_many_communities():
    # n = 20000, ~60k edges, C = 2000: the dense n x C product alone is 305 MiB
    rng = np.random.default_rng(5)
    n = 20000
    ends = rng.integers(0, n, size=(62000, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    key = np.unique(ends.min(axis=1) * n + ends.max(axis=1))
    graph = Graph.from_edges(n, np.column_stack(np.divmod(key, n)))
    partition = Partition(labels=rng.integers(0, 2000, size=n), community_count=2000)
    tracemalloc.start()
    try:
        global_indicator(graph, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count > 59000
    assert peak < 50 * 2**20


def test_indicator_peak_memory_at_n_10000():
    # the documented bound; the whole-incidence version peaked at 4.96 MiB
    net = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=3))
    graph, partition = net.graph, net.ground_truth
    tracemalloc.start()
    try:
        global_indicator(graph, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c, labels = graph.node_count, partition.community_count, partition.labels
    inter = int(np.count_nonzero(np.repeat(labels, graph.degrees) != labels[graph.indices]))
    assert (graph.edge_count, inter) == (75080, 30032)
    bound = (max(40 * inter, 24 * inter + 8 * n + max(indicator._SCRATCH, 8 * c))
             + 32 * indicator._BLOCK)
    assert peak <= bound <= 2.47 * 2**20


def test_indicator_rejects_overflowing_keys():
    with pytest.raises(ValueError, match="communities"):
        global_indicator(TRIANGLES, Partition(labels=np.zeros(6), community_count=2**62))


def test_indicator_intra_only_nodes_are_zero():
    g = global_indicator(TRIANGLES, TWO_COMMS)
    assert g[0] == g[1] == g[4] == g[5] == 0.0
    assert g[2] == g[3] == 1.0  # single bridging link counts fully


def test_indicator_quarter_contribution():
    # four links between I and J; node 0 touches J once -> 1/4
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)]
    g = Graph.from_edges(8, edges)
    p = Partition(labels=np.array([0, 0, 0, 0, 1, 1, 1, 1]), community_count=2)
    assert np.allclose(global_indicator(g, p), 0.25)


def test_indicator_two_single_link_communities():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5), (0, 2), (0, 4)])
    p = Partition(labels=np.array([0, 0, 1, 1, 2, 2]), community_count=3)
    assert global_indicator(g, p)[0] == pytest.approx(2.0)


def test_indicator_binary_touch_counts_once():
    # node 0 holds both I-J links; it still gets a single 1/2 term
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 3), (0, 4)])
    p = Partition(labels=np.array([0, 0, 0, 1, 1]), community_count=2)
    assert global_indicator(g, p)[0] == pytest.approx(0.5)


def test_indicator_positive_iff_has_inter_edge():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = er_graph(25, 0.15, rng)
        p = random_partition(25, 3, rng)
        scores = global_indicator(g, p)
        for v in range(25):
            nbr_comms = {int(p.labels[w]) for w in neighbors(g, v)}
            has_inter = bool(nbr_comms - {int(p.labels[v])})
            assert (scores[v] > 0) == has_inter


def test_indicator_invariant_under_label_permutation():
    rng = np.random.default_rng(10)
    g = er_graph(30, 0.2, rng)
    labels = rng.integers(0, 4, size=30)
    perm = np.array([2, 0, 3, 1])
    p1 = Partition.from_labels(list(labels))
    p2 = Partition.from_labels(list(perm[labels]))
    assert np.allclose(global_indicator(g, p1), global_indicator(g, p2))


def test_indicator_after_merging_sole_partner():
    # node 2's only external link goes to community 1; merging 0 and 1 zeroes it
    merged = Partition(labels=np.array([0, 0, 0, 0, 0, 0]), community_count=1)
    assert np.all(global_indicator(TRIANGLES, merged) == 0.0)


def test_inter_fraction():
    one = Partition(labels=np.zeros(6, dtype=np.int64), community_count=1)
    assert inter_community_fraction(TRIANGLES, one) == 0.0
    assert inter_community_fraction(TRIANGLES, TWO_COMMS) == pytest.approx(1 / 7)
    bipartite = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    p = Partition(labels=np.array([0, 0, 1, 1]), community_count=2)
    assert inter_community_fraction(bipartite, p) == 1.0
    empty = Graph.from_edges(3, [])
    assert inter_community_fraction(empty, Partition.from_labels([0, 0, 1])) == 0.0


def test_partition_cover_mismatch_raises():
    with pytest.raises(ValueError):
        global_indicator(TRIANGLES, Partition.from_labels([0, 0]))


def test_indicator_csv():
    buf = io.StringIO()
    write_indicator_csv(global_indicator(TRIANGLES, TWO_COMMS), TWO_COMMS, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "node_id,community,G"
    assert lines[3] == "2,0,1"
