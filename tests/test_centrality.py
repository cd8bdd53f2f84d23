import io
import json
import tracemalloc
import warnings
import concurrent.futures
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeness import (
    Graph,
    NodeTable,
    bridgeness_exact,
    bridgeness_si_compat,
    locterm_by_degree,
)
from bridgeness import centrality
from bridgeness.centrality import write_centrality_csv, write_centrality_json

from util import (
    FRONTIERS,
    _path_counts,
    bridgeness_bruteforce,
    complete_bipartite_graph,
    complete_graph,
    er_graph,
    exact_decomposition,
    force,
    grid_graph,
    ladder_graph,
    neighbors,
    path_graph,
    small_lfr_graph,
    star_graph,
)

TRIANGLE_BRIDGE = Graph.from_edges(
    7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (6, 3)]
)  # two triangles {0,1,2},{3,4,5} joined through node 6


def test_betweenness_path():
    assert list(bridgeness_exact(path_graph(3)).bc) == [0.0, 1.0, 0.0]


def test_betweenness_star_is_pair_count():
    assert bridgeness_exact(star_graph(6)).bc[0] == 15.0


def test_betweenness_four_cycle():
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    expected = bridgeness_bruteforce(cycle).bc  # brute-force pair enumeration
    assert np.allclose(expected, 0.5)
    assert np.allclose(bridgeness_exact(cycle).bc, expected)


def test_betweenness_empty_and_single():
    assert bridgeness_exact(Graph.from_edges(0, [])).bc.shape == (0,)
    assert list(bridgeness_exact(Graph.from_edges(1, [])).bc) == [0.0]


def test_bridgeness_star_center_zero():
    for k in (3, 4, 7):
        result = bridgeness_exact(star_graph(k))
        assert result.bridgeness[0] == 0.0
        assert result.bc[0] == k * (k - 1) / 2


def test_bridgeness_path5_hand_values():
    result = bridgeness_exact(path_graph(5))
    assert result.bc[2] == pytest.approx(4.0)
    assert result.bridgeness[2] == pytest.approx(1.0)  # only pair {a,e}
    assert result.local[2] == pytest.approx(3.0)
    assert result.bridgeness[1] == 0.0


def test_bridgeness_triangle_bridge_hand_values():
    result = bridgeness_exact(TRIANGLE_BRIDGE)
    assert result.bc[6] == pytest.approx(9.0)
    assert result.bridgeness[6] == pytest.approx(4.0)  # {1,5},{1,6},{2,5},{2,6} relabeled
    brute = bridgeness_bruteforce(TRIANGLE_BRIDGE)
    assert np.allclose(result.bc, brute.bc)
    assert np.allclose(result.bridgeness, brute.bridgeness)


def test_bruteforce_trivials():
    path = bridgeness_bruteforce(path_graph(3))
    assert path.bridgeness[1] == 0.0  # both endpoints are neighbors of b
    k5 = bridgeness_bruteforce(complete_graph(5))
    assert np.all(k5.bc == 0.0)
    assert np.all(k5.bridgeness == 0.0)


def test_si_compat_star_and_path():
    assert np.all(bridgeness_si_compat(star_graph(6)).bridgeness == 0.0)
    path = path_graph(5)
    si = bridgeness_si_compat(path).bridgeness
    # faithful source-side filter: sources at distance > 1 only; verified
    # against the half-weight pair enumeration
    assert np.allclose(si, [0.0, 1.0, 2.0, 1.0, 0.0])
    assert np.allclose(si, bridgeness_bruteforce(path).si)


def test_si_compat_dominates_exact():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = er_graph(int(rng.integers(5, 40)), rng.uniform(0.05, 0.5), rng)
        result = bridgeness_exact(g)
        si = bridgeness_si_compat(g).bridgeness
        assert np.all(si >= result.bridgeness)
        assert np.all(si <= result.bc)
        assert np.allclose(si, bridgeness_bruteforce(g).si, atol=1e-9)


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(33)
    for _ in range(40):
        g = er_graph(int(rng.integers(5, 60)), rng.uniform(0.05, 0.5), rng)
        result = bridgeness_exact(g)
        brute = bridgeness_bruteforce(g)
        scale = np.maximum(np.abs(brute.bc), 1.0)
        assert np.all(np.abs(result.bc - brute.bc) / scale < 1e-9)
        assert np.all(np.abs(result.bridgeness - brute.bridgeness) / scale < 1e-9)
        assert np.all(np.abs(bridgeness_exact(g).bc - brute.bc) / scale < 1e-9)


@pytest.mark.parametrize("isolated", [1, 2])
def test_level_of_cells_without_neighbors_and_with_two_slot_rows(isolated):
    # one block: level 1 holds the cells of the isolated nodes (one padding
    # row each) beside the centre's (8 neighbors, two rows). With no row
    # for an isolated node, one of them and the centre would sum to as many
    # rows as cells, and the level would be read as one row per cell.
    star = Graph.from_edges(isolated + 9, [(isolated, isolated + v) for v in range(1, 9)])
    assert centrality._block_width(star.node_count, star.edge_count) >= star.node_count
    result = bridgeness_exact(star, workers=1)
    bc, bri = exact_decomposition(star)
    assert result.bc.tolist() == [float(x) for x in bc]
    assert result.bridgeness.tolist() == [float(x) for x in bri]


def test_decomposition_and_ordering_invariants():
    rng = np.random.default_rng(5)
    graphs = [
        path_graph(2),
        star_graph(3),
        TRIANGLE_BRIDGE,
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),  # disconnected
        Graph.from_edges(1, []),
    ]
    graphs += [er_graph(int(rng.integers(5, 50)), rng.uniform(0.02, 0.4), rng) for _ in range(15)]
    for g in graphs:
        result = bridgeness_exact(g)
        si = bridgeness_si_compat(g).bridgeness
        scale = np.maximum(np.abs(result.bc), 1.0)
        assert np.all(np.abs(result.bc - (result.bridgeness + result.local)) / scale < 1e-9)
        assert np.all(result.bridgeness >= 0.0)
        assert np.all(result.bridgeness <= si)
        assert np.all(si <= result.bc)


@st.composite
def small_graphs(draw):
    """Up to 25 nodes with arbitrary edges: isolated nodes and several components occur."""
    n = draw(st.integers(0, 25))
    if n < 2:
        return Graph.from_edges(n, [])
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return Graph.from_edges(n, {(min(e), max(e)) for e in pairs if e[0] != e[1]})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=small_graphs())
def test_decomposition_invariants_on_small_graphs(g):
    result = bridgeness_exact(g, workers=1)
    scale = np.maximum(np.abs(result.bc), 1.0)
    assert np.all(np.abs(result.bc - (result.bridgeness + result.local)) / scale < 1e-9)
    assert np.all(result.bridgeness >= 0.0)
    si = bridgeness_si_compat(g, workers=1).bridgeness
    assert np.all(result.bridgeness <= si)
    assert np.all(si <= result.bc)


def test_bridgeness_is_within_4_ulp_of_the_exact_oracle():
    # bridgeness is a sum of non-negative terms, so one that is exactly 0
    # comes out as 0.0, not as the rounding residue of a difference
    rng = np.random.default_rng(41)
    zeros = nonzeros = 0
    for _ in range(200):
        g = er_graph(int(rng.integers(4, 22)), rng.uniform(0.1, 0.35), rng)
        result = bridgeness_exact(g, workers=1)
        exact_bc, exact_bri = exact_decomposition(g)
        for got, exact in ((result.bc, exact_bc), (result.bridgeness, exact_bri)):
            for value, want in zip(got.tolist(), exact):
                if want == 0:
                    assert value == 0.0
                    zeros += 1
                else:
                    assert abs(Fraction(value) - want) <= 4 * Fraction(np.spacing(float(want)))
                    nonzeros += 1
    assert zeros > 1000 and nonzeros > 1000


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=small_graphs())
def test_level_direction_does_not_change_the_accumulators(g):
    for bridge in (True, False):  # (bc, bri), then (bc, l1)
        runs = []
        for direction in ("top-down", "bottom-up"):
            for frontier in FRONTIERS:
                with pytest.MonkeyPatch.context() as mp:
                    force(mp, direction, frontier)
                    runs.append(centrality._brandes_accumulate(g, workers=1, bridge=bridge))
        assert all(np.array_equal(runs[0], run) for run in runs[1:])


# measured: about 400 bytes of list, tuple and array objects per recorded
# BFS level of a block (a 10000-node path, one piece per level)
LEVEL_BYTES = 512


def chunk_peak_and_bound(graph, hi, bridges=(True,)):
    """``tracemalloc`` peak of building the slot table and sweeping sources
    0..hi-1 as one chunk, the largest over the exact (``True``) and
    si-compat (``False``) ``bridges``, and its documented bound: the block's
    cells and recorded pairs, 16 m for the slot table, one expansion piece,
    the chunk's two partial sums and ``LEVEL_BYTES`` per BFS level of its
    deepest block. The table holds max(1, ceil(k / 4)) rows of 32 bytes per
    node of degree k, at most n + m / 2 rows, and 16 bytes per node of first
    rows and lane counts: at most 48 n + 16 m. The bound keeps the 16 m of
    the 8-byte step per incidence the table replaced; the 48 n fits in the
    slack of the cell term (peaks of 0.51-0.80 of the bound below)."""
    n, m = graph.node_count, graph.edge_count
    width = centrality._block_width(n, m)
    adj = [neighbors(graph, v).tolist() for v in range(n)]
    levels = 1 + max(max(_path_counts(adj, s)[0]) for s in range(hi))
    bound = (width * (centrality._CELL_BYTES * n + centrality._PAIR_BYTES * m) + 16 * m
             + 64 * (centrality._PIECE + int(graph.degrees.max())) + 2 * 8 * n
             + LEVEL_BYTES * levels)
    peak = 0
    for bridge in bridges:
        tracemalloc.start()
        try:
            centrality._accumulate_chunk(centrality._Slots(graph.indptr, graph.indices), 0, hi,
                                          bridge)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak, bound


@pytest.mark.parametrize("direction", ["natural", "top-down", "bottom-up"])
@pytest.mark.parametrize("name", ["lfr300", "grid30", "bipartite50x200+tail2000"])
def test_chunk_memory_stays_within_the_documented_bound(monkeypatch, name, direction):
    # K(50, 200) records ~10^4 pairs per source by level 2; level 3 then
    # leaves ~2000 tail cells per source unvisited, which bottom-up levels
    # (natural or forced) list beside the frontier, and forced bottom-up
    # levels keep listing them down the tail, about one kept pair per level
    graph = {"lfr300": small_lfr_graph,
             "grid30": lambda: grid_graph(30, np.random.default_rng(0)),
             "bipartite50x200+tail2000": lambda: complete_bipartite_graph(50, 200, 2000)}[name]()
    # a forced rule changes only the forward pass, which both variants share;
    # a forced direction is checked with the frontier rule forced each way
    for frontier in ("natural", *FRONTIERS) if direction == "natural" else FRONTIERS:
        force(monkeypatch, direction, frontier)
        natural = direction == frontier == "natural"
        peak, bound = chunk_peak_and_bound(graph, min(centrality._CHUNK, graph.node_count),
                                           (True, False) if natural else (True,))
        assert peak <= bound, frontier


def test_deep_block_memory_stays_within_the_documented_bound(monkeypatch):
    # 10000 levels of a few pairs each: the per-level objects, not the
    # pairs, exceed the cell and pair terms (9.4 MiB against 8.8 MiB without
    # the level term). Every block of the chunk is as deep, so one is swept.
    # No level keeps n * B / 8 pairs, so the natural rule is the kept one.
    graph = path_graph(10000)
    for frontier in FRONTIERS:
        force(monkeypatch, frontier=frontier)
        peak, bound = chunk_peak_and_bound(
            graph, centrality._block_width(graph.node_count, graph.edge_count))
        assert peak <= bound, frontier


def test_worker_count_does_not_change_results():
    rng = np.random.default_rng(17)
    edges = [(i, j) for i in range(140) for j in range(i + 1, 140) if rng.random() < 0.05]
    g = Graph.from_edges(150, edges)  # 3 chunks, the last partial; nodes 140..149 isolated
    for variant in (bridgeness_exact, bridgeness_si_compat):
        serial = variant(g, workers=1)
        for workers in (2, 3):
            parallel = variant(g, workers=workers)
            for field in ("bc", "bridgeness", "local"):
                assert np.array_equal(getattr(serial, field), getattr(parallel, field))
    with pytest.raises(ValueError, match="workers"):
        bridgeness_exact(g, workers=0)


def test_pool_starts_at_most_one_process_per_chunk(monkeypatch):
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    # the pooled branch imports the pool from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rng = np.random.default_rng(23)
    three_chunks = er_graph(130, 0.05, rng)
    serial = bridgeness_exact(three_chunks, workers=1)
    assert np.array_equal(bridgeness_exact(three_chunks, workers=8).bc, serial.bc)
    assert started == [3]
    bridgeness_exact(er_graph(64, 0.1, rng), workers=8)  # one chunk: no pool
    assert started == [3]


# 3**d overflows float64 past d = 646, so sources near either end overflow
OVERFLOWING_LADDER = dict(layers=660, width=3)


def test_overflowing_path_counts_raise():
    ladder = ladder_graph(**OVERFLOWING_LADDER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exception is the only sign
        with pytest.raises(OverflowError, match="from node 0 overflow float64"):
            bridgeness_exact(ladder, workers=1)


def test_failed_chunk_cancels_pending_chunks(monkeypatch):
    futures = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    ladder = ladder_graph(**OVERFLOWING_LADDER)
    with pytest.raises(OverflowError):
        bridgeness_exact(ladder, workers=2)
    assert len(futures) == 31
    assert any(future.cancelled() for future in futures)


def test_bc_matches_networkx():
    import networkx as nx

    for g in (grid_graph(30, np.random.default_rng(0)), small_lfr_graph()):
        reference = nx.Graph()
        reference.add_nodes_from(range(g.node_count))
        reference.add_edges_from(
            (v, int(w)) for v in range(g.node_count) for w in neighbors(g, v) if v < w)
        expected = nx.betweenness_centrality(reference, normalized=False)
        expected = np.array([expected[v] for v in range(g.node_count)])
        scale = np.maximum(np.abs(expected), 1.0)
        assert np.all(np.abs(bridgeness_exact(g).bc - expected) / scale < 1e-9)


def test_repeated_runs_bit_identical():
    rng = np.random.default_rng(19)
    g = er_graph(60, 0.1, rng)
    a = bridgeness_exact(g)
    b = bridgeness_exact(g)
    assert np.array_equal(a.bc, b.bc)
    assert np.array_equal(a.bridgeness, b.bridgeness)


def test_locterm_star():
    g = star_graph(6)
    assert locterm_by_degree(bridgeness_exact(g), g) == {6: 1.0}


def test_locterm_path5():
    g = path_graph(5)
    mapping = locterm_by_degree(bridgeness_exact(g), g)
    assert set(mapping) == {2}  # degree-1 endpoints have bc = 0
    assert mapping[2] == pytest.approx((1.0 + 0.75 + 1.0) / 3)


def test_locterm_empty_when_all_bc_zero():
    g = complete_graph(3)
    assert locterm_by_degree(bridgeness_exact(g), g) == {}


def test_csv_and_json_exports():
    g = TRIANGLE_BRIDGE
    result = bridgeness_exact(g)
    buf = io.StringIO()
    write_centrality_csv(result, g, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "node_id,degree,bc,bridgeness,local"
    assert len(lines) == g.node_count + 1
    buf = io.StringIO()
    write_centrality_json(result, g, buf)
    records = json.loads(buf.getvalue())
    assert len(records) == g.node_count
    assert records[6]["bc"] == pytest.approx(9.0)
    assert set(records[0]) == {"node_id", "degree", "bc", "bridgeness", "local"}


@pytest.mark.parametrize("n", [0, 1, 7])
def test_json_export_matches_json_dump(n):
    # IDs that json escapes: a quote, a backslash, a control and a non-ASCII character
    ids = ('a"b', "c\\d", "tab\there", "\u00e9t\u00e9", "\U0001f600", "x", "7")[:n]
    g = TRIANGLE_BRIDGE if n == 7 else Graph.from_edges(n, [])
    result = bridgeness_exact(g)
    records = [{"node_id": ids[v], "degree": int(g.degrees[v]), "bc": float(result.bc[v]),
                "bridgeness": float(result.bridgeness[v]), "local": float(result.local[v])}
               for v in range(n)]
    buf = io.StringIO()
    write_centrality_json(result, g, buf, NodeTable(ids=ids))
    assert buf.getvalue() == json.dumps(records, indent=2) + "\n"
