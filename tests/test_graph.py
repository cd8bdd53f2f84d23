import hashlib
import io
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgeness import (
    EdgeListError,
    Graph,
    LfrConfig,
    NodeTable,
    Partition,
    PartitionError,
    generate,
    load_edge_list,
    load_partition,
    write_edge_list,
    write_partition,
)
from bridgeness import graph as graph_module

from util import edge_array, er_graph, reference_edge_list, star_graph


def load(text, **kwargs):
    return load_edge_list(io.StringIO(text), **kwargs)


def test_load_simple_two_edges():
    graph, table = load("a b\nb c\n")
    assert graph.node_count == 3
    assert graph.edge_count == 2
    assert table.ids == ("a", "b", "c")


def test_load_collapses_duplicates_and_drops_self_loops():
    graph, table = load("a b\nb a\na a\n")
    assert graph.node_count == 2
    assert graph.edge_count == 1


def test_load_comments_blank_lines_and_comma_delimiter():
    graph, _ = load("# header\n\na,b\nb,c\n", delimiter=",")
    assert graph.node_count == 3
    assert graph.edge_count == 2


def test_load_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2"):
        load("a b\nc\n")
    with pytest.raises(EdgeListError, match="line 1: expected 2 fields"):
        load("a b 1.0\n")  # weight columns are not accepted


def test_from_edges_validates():
    cases = {
        "self-loop": [(2, [(0, 0)]), (3, [(0, 1), (2, 2)])],
        "duplicate": [(2, [(0, 1), (1, 0)]), (2, [(0, 1), (0, 1)]),
                      (3, [(2, 1), (0, 2), (1, 2)])],
        "out of range": [(2, [(0, 5)]), (2, [(-1, 1)]), (2, [(0, 2)]), (0, [(0, 1)]),
                         (1, [(0, 1)])],
    }
    for message, graphs in cases.items():
        for n, edges in graphs:
            for fed in (edges, np.array(edges, dtype=np.int64)):
                with pytest.raises(ValueError, match=message):
                    Graph.from_edges(n, fed)


@pytest.mark.parametrize("edges", [
    np.array([[0, 1, 2], [1, 2, 3]]),  # (2, 3): read as columns it would be (0, 2), (1, 3)
    np.array([0, 1, 2, 3]),
    np.zeros((2, 2, 2), dtype=np.int64),
    [(0, 1, 2)],
])
def test_from_edges_rejects_other_shapes(edges):
    with pytest.raises(ValueError, match=r"edges must be an \(m, 2\) array"):
        Graph.from_edges(4, edges)


@pytest.mark.parametrize("n", [0, 1])
def test_from_edges_takes_empty_arrays(n):
    for edges in (np.empty((0, 2), dtype=np.int64), np.array([], dtype=np.int64), []):
        graph = Graph.from_edges(n, edges)
        assert graph.edge_count == 0
        assert graph.indptr.tolist() == [0] * (n + 1)
        assert graph.indices.tolist() == []


def test_from_edges_states_the_key_bound():
    # edges are sorted as int64 keys row * n + col, which needs n**2 < 2**63
    with pytest.raises(ValueError, match=r"node_count\*\*2 < 2\*\*63"):
        Graph.from_edges(3_037_000_500, np.empty((0, 2), dtype=np.int64))


def test_csr_layout_matches_sorted_adjacency():
    rng = np.random.default_rng(29)
    cases = [(0, []), (1, [])]
    for _ in range(30):
        n = int(rng.integers(2, 60))
        p = rng.uniform(0.02, 0.3)
        # the last three nodes stay isolated, besides any the draw leaves
        cases.append((n, [(i, j) for i in range(n - 3) for j in range(i + 1, n - 3)
                          if rng.random() < p]))
    for n, edges in cases:
        fed = [edges[k] if rng.random() < 0.5 else edges[k][::-1]
               for k in rng.permutation(len(edges))]
        graph = Graph.from_edges(n, fed)
        rows = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        indptr, indices = [0], []
        for row in rows:
            indices += sorted(row)
            indptr.append(len(indices))
        assert graph.indptr.dtype == graph.indices.dtype == np.int64
        assert graph.indptr.tolist() == indptr
        assert graph.indices.tolist() == indices
        from_array = Graph.from_edges(n, np.array(fed, dtype=np.int64).reshape(-1, 2))
        for name in ("indptr", "indices"):
            assert getattr(from_array, name).tobytes() == getattr(graph, name).tobytes()


def test_from_edges_memory_at_n_10000():
    # the documented bound: 18 m + 16 (n + 1) bytes above the input at the
    # peak, and 16 m + 8 (n + 1) kept; with a stored (m, 2) edge array beside
    # the CSR the build peaked at 67 bytes per edge and the graph kept 33,
    # and at 48 while the CSR came from the quotient and remainder of the keys
    n = 10000
    edges = edge_array(generate(LfrConfig(n=n, communities=300, mu=0.2, seed=3)).graph)
    m = len(edges)
    tracemalloc.start()
    try:
        graph = Graph.from_edges(n, edges)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m == graph.edge_count == 75080
    assert peak <= 18 * m + 16 * (n + 1) + 2**14
    assert kept <= 16 * m + 8 * (n + 1) + 2**12


def test_load_edge_list_memory_at_n_10000():
    # the documented bound: under 24 bytes per line above the graph and
    # table it returns; 97 when the kept upper-half keys went through an
    # (m, 2) array and Graph.from_edges
    n = 10000
    buf = io.StringIO()
    write_edge_list(generate(LfrConfig(n=n, communities=300, mu=0.2, seed=3)).graph,
                    NodeTable.identity(n), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    del buf
    tracemalloc.start()
    try:
        graph, table = load_edge_list(lines)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == graph.edge_count == 75080
    assert len(table) == n
    assert peak - kept <= 24 * len(lines)


class _DigestSink:
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest, self.writes = hashlib.sha256(), 0

    def write(self, text):
        self.digest.update(text.encode())
        self.writes += 1


def edge_lines(graph, ids):
    return "".join(f"{ids[u]} {ids[v]}\n" for u, v in edge_array(graph).tolist())


def test_write_edge_list_memory_at_n_10000():
    # the documented bound: one write per block of incidences and about 100
    # bytes per incidence of one block, whatever m is (measured 98.3)
    n = 10000
    graph = generate(LfrConfig(n=n, communities=300, mu=0.2, seed=3)).graph
    table = NodeTable.identity(n)
    expected = hashlib.sha256(edge_lines(graph, table.ids).encode()).hexdigest()
    m = graph.edge_count
    sink = _DigestSink()
    tracemalloc.start()
    try:
        write_edge_list(graph, table, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == expected
    assert sink.writes == -(-2 * m // graph_module._WRITE_CHUNK)
    assert peak <= 144 * graph_module._WRITE_CHUNK + 2**14


@pytest.mark.parametrize("chunk", [1, 3, 2**13])
def test_write_edge_list_chunks_keep_the_bytes(monkeypatch, chunk):
    monkeypatch.setattr(graph_module, "_WRITE_CHUNK", chunk)
    g = er_graph(30, 0.2, np.random.default_rng(5))
    table = NodeTable(ids=tuple(f"n{i}" for i in range(30)))
    buf = io.StringIO()
    write_edge_list(g, table, buf)
    assert buf.getvalue() == edge_lines(g, table.ids)
    empty = io.StringIO()
    write_edge_list(Graph.from_edges(3, []), NodeTable.identity(3), empty)
    assert empty.getvalue() == ""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 30), p=st.floats(0.0, 1.0), size=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_incidence_blocks_cover_the_incidences_in_order(n, p, size, seed):
    g = er_graph(n, p, np.random.default_rng(seed))  # isolated rows anywhere
    blocks = list(graph_module.incidence_blocks(g, size))
    assert [len(cols) for _, cols in blocks[:-1]] == [size] * (len(blocks) - 1)
    empty = np.zeros(0, dtype=np.int64)
    rows = np.concatenate([empty, *(r for r, _ in blocks)])
    cols = np.concatenate([empty, *(c for _, c in blocks)])
    assert np.array_equal(rows, np.repeat(np.arange(n), g.degrees))
    assert np.array_equal(cols, g.indices)


def test_graph_arrays_are_read_only():
    graph, _ = load("a b\n")
    with pytest.raises(ValueError):
        graph.indptr[0] = 7
    with pytest.raises(ValueError):
        graph.indices[0] = 7


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = er_graph(int(rng.integers(2, 40)), rng.uniform(0.05, 0.5), rng)
        assert int(g.degrees.sum()) == 2 * g.edge_count


def test_edge_list_round_trip():
    rng = np.random.default_rng(7)
    g = er_graph(25, 0.2, rng)
    table = NodeTable(ids=tuple(f"node{i}" for i in range(25)))
    buf = io.StringIO()
    write_edge_list(g, table, buf)
    g2, table2 = load(buf.getvalue())
    original = {tuple(sorted((table.id_of(u), table.id_of(v)))) for u, v in edge_array(g).tolist()}
    reloaded = {tuple(sorted((table2.id_of(u), table2.id_of(v))))
                for u, v in edge_array(g2).tolist()}
    assert original == reloaded
    assert g2.edge_count == g.edge_count


def test_partition_single_community():
    _, table = load("a b\nb c\n")
    p = load_partition(io.StringIO("a,X\nb,X\nc,X\n"), table)
    assert p.community_count == 1


def test_partition_dense_relabel():
    graph, table = load("a b\nc d\n")
    p = load_partition(io.StringIO("a,FR\nb,FR\nc,AR\nd,AR\n"), table)
    assert p.community_count == 2
    assert list(p.labels) == [0, 0, 1, 1]


def test_partition_missing_node_is_named():
    _, table = load("a b\nb c\n")
    with pytest.raises(PartitionError, match="'c'"):
        load_partition(io.StringIO("a,X\nb,Y\n"), table)


def test_partition_unknown_and_duplicate_ids():
    _, table = load("a b\n")
    with pytest.raises(PartitionError, match="unknown"):
        load_partition(io.StringIO("a,X\nb,X\nz,X\n"), table)
    with pytest.raises(PartitionError, match="duplicate"):
        load_partition(io.StringIO("a,X\na,Y\nb,X\n"), table)


def test_partition_relabel_invariance():
    _, table = load("a b\nb c\nc d\n")
    p1 = load_partition(io.StringIO("a,X\nb,X\nc,Y\nd,Y\n"), table)
    p2 = load_partition(io.StringIO("a,Q9\nb,Q9\nc,Z\nd,Z\n"), table)
    assert np.array_equal(p1.labels, p2.labels)
    assert p1.community_count == p2.community_count


def test_partition_round_trip():
    _, table = load("a b\nb c\nc d\n")
    p = Partition.from_labels([0, 1, 1, 0])
    buf = io.StringIO()
    write_partition(p, table, buf)
    p2 = load_partition(io.StringIO(buf.getvalue()), table)
    assert np.array_equal(p.labels, p2.labels)


def test_partition_validates_dense_labels():
    with pytest.raises(ValueError):
        Partition(labels=np.array([0, 2]), community_count=2)


def test_node_table_lookup():
    table = NodeTable(ids=("x", "y"))
    assert table.index_of("y") == 1
    assert table.id_of(0) == "x"
    with pytest.raises(KeyError):
        table.index_of("z")
    with pytest.raises(ValueError):
        NodeTable(ids=("x", "x"))


_TOKENS = st.sampled_from(["a", "b", "c", "01", "1", "001", "x#", "é", "-1", "#4", "x,1"])
_PADS = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def edge_list_lines(draw, delimiter):
    """Edge lines with padding, plus blank, comment and malformed lines,
    repeats of earlier edges in either orientation, and LF or CRLF ends."""
    lines = []
    edges = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["loop", "repeat", "blank", "comment", "bad"]))
        left, right = draw(_PADS), draw(_PADS)
        sep = f"{draw(_PADS)},{draw(_PADS)}" if delimiter == "," else draw(_PADS) or " "
        u = draw(_TOKENS)
        v = u if kind == "loop" else draw(_TOKENS)
        if kind == "repeat" and edges:
            u, v = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
        edges.append((u, v))
        if kind == "blank":
            lines.append(left)
        elif kind == "comment":
            lines.append(f"{left}#{u}{sep}{v}")
        elif kind == "bad":
            lines.append(left + sep.join(draw(st.lists(_TOKENS, min_size=1, max_size=3)
                                              .filter(lambda t: len(t) != 2))) + right)
        else:
            lines.append(f"{left}{u}{sep}{v}{right}")
    return [line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), delimiter=st.sampled_from([None, ","]))
def test_load_edge_list_matches_reference_parser(data, delimiter):
    lines = data.draw(edge_list_lines(delimiter))
    try:
        expected = reference_edge_list(lines, delimiter=delimiter)
    except EdgeListError as exc:
        with pytest.raises(EdgeListError) as raised:
            load_edge_list(lines, delimiter=delimiter)
        assert str(raised.value) == str(exc)
        return
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("bridgeness.graph")
    logger.addHandler(handler)
    try:
        graph, table = load_edge_list(lines, delimiter=delimiter)
    finally:
        logger.removeHandler(handler)
    ids, reference, self_loops, duplicates = expected
    assert list(table.ids) == ids
    assert graph.node_count == reference.node_count
    for name in ("indptr", "indices"):
        assert getattr(graph, name).tobytes() == getattr(reference, name).tobytes()
    counts = [r.args for r in records if r.msg.startswith("edge list cleanup")]
    assert counts == ([(self_loops, duplicates)] if self_loops or duplicates else [])
