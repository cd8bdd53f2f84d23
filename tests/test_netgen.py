import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgeness import (
    GenerationError,
    LfrConfig,
    generate,
    netgen,
)
from bridgeness.netgen import (
    _EXACT_UNIT, _assign_communities, _FenwickSampler, _rewire_to_mu, _weighted_index,
    _WiringState,
)

from util import (
    bridge_degree_bias, edge_array, inter_community_fraction, reference_assign_communities,
)

SMALL = dict(n=150, communities=4, mu=0.15, min_degree=6, max_degree=20, mean_degree=10.0)


def test_mu_zero_skips_rewiring():
    net = generate(LfrConfig(seed=1, **{**SMALL, "mu": 0.0}))
    assert net.achieved_mu == 0.0
    assert net.rewired_nodes == frozenset()
    assert inter_community_fraction(net.graph, net.ground_truth) == 0.0
    with pytest.raises(ValueError):
        bridge_degree_bias(net)


def test_same_seed_identical_network():
    a = generate(LfrConfig(seed=7, **SMALL))
    b = generate(LfrConfig(seed=7, **SMALL))
    assert np.array_equal(edge_array(a.graph), edge_array(b.graph))
    assert np.array_equal(a.ground_truth.labels, b.ground_truth.labels)
    assert a.rewired_nodes == b.rewired_nodes
    assert a.achieved_mu == b.achieved_mu


def test_different_seeds_differ():
    a = generate(LfrConfig(seed=1, **SMALL))
    b = generate(LfrConfig(seed=2, **SMALL))
    assert not np.array_equal(edge_array(a.graph), edge_array(b.graph))


def test_achieved_mu_matches_graph():
    net = generate(LfrConfig(seed=3, **SMALL))
    assert net.achieved_mu == pytest.approx(
        inter_community_fraction(net.graph, net.ground_truth)
    )
    assert net.achieved_mu >= 0.15
    assert int(net.graph.degrees.sum()) == 2 * net.graph.edge_count


def test_ground_truth_structure():
    cfg = LfrConfig(seed=5, **SMALL)
    net = generate(cfg)
    assert len(net.ground_truth) == cfg.n
    assert net.ground_truth.community_count == cfg.communities
    sizes = np.bincount(net.ground_truth.labels)
    assert sizes.sum() == cfg.n
    assert sizes.min() >= 1
    assert set(net.rewired_nodes) <= set(range(cfg.n))


def test_config_sizes_power_law_bounds():
    cfg = LfrConfig(n=1000, communities=30, mu=0.2, seed=4)
    sizes = cfg.sizes()
    assert sum(sizes) == 1000
    assert len(sizes) == 30
    assert min(sizes) >= 22
    assert max(sizes) <= 200
    assert cfg.sizes() == sizes  # deterministic


def test_infeasible_configs_raise():
    with pytest.raises(ValueError):  # min_degree too big for community size
        LfrConfig(n=4, communities=2, mu=0.99, seed=1)
    with pytest.raises(ValueError):
        LfrConfig(n=10, communities=0, mu=0.1, seed=1)
    with pytest.raises(ValueError):
        LfrConfig(n=10, communities=2, mu=1.0, seed=1)
    with pytest.raises(ValueError):
        LfrConfig(n=10, communities=2, mu=0.1, seed=1, selection="edge")
    with pytest.raises(ValueError):
        LfrConfig(n=10, communities=2, mu=0.1, seed=1, min_degree=0)
    for bad in (1.0, float("nan")):
        with pytest.raises(ValueError, match="exponent"):
            LfrConfig(seed=1, **{**SMALL, "exponent": bad})
    for bad in (-3.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mean_degree"):
            LfrConfig(seed=1, **{**SMALL, "mean_degree": bad})
    # with one community every stub draw has the kept node's label
    with pytest.raises(ValueError, match="at least 2 communities"):
        LfrConfig(seed=1, **{**SMALL, "communities": 1, "mu": 0.5})
    unmixed = generate(LfrConfig(seed=1, **{**SMALL, "communities": 1, "mu": 0.0}))
    assert unmixed.achieved_mu == 0.0
    assert unmixed.ground_truth.community_count == 1


def test_rewire_unreachable_target_errors(monkeypatch):
    # both intra edges are saturated toward the outside: every rewire target
    # is already adjacent, so the mu target cannot be met
    labels = np.array([0, 0, 1, 1])
    state = _WiringState(labels=labels, intra=[[1], [0], [3], [2]],
                         inter=[[2, 3], [2, 3], [0, 1], [0, 1]], nodes=list(range(4)),
                         selection="node")
    assert (state.edge_count, state.inter_count) == (6, 4)
    monkeypatch.setattr(netgen, "_MAX_TARGET_RETRIES", 8)
    monkeypatch.setattr(netgen, "_MAX_REWIRE_ATTEMPTS", 200)
    with pytest.raises(GenerationError, match="after 200 attempts"):
        _rewire_to_mu(state, 0.95, np.random.default_rng(0))


def test_rewiring_exhaustion_errors(monkeypatch):
    # every intra link ends in a leaf, and moving it would leave the leaf
    # isolated: no attempt converts a link, so none is made
    monkeypatch.setattr(netgen, "_MAX_TARGET_RETRIES", 8)
    monkeypatch.setattr(netgen, "_MAX_REWIRE_ATTEMPTS", 500)
    for selection in ("node", "link"):
        state = _WiringState(labels=np.array([0, 0, 1, 1]), intra=[[1], [0], [3], [2]],
                             inter=[[], [], [], []], nodes=list(range(4)), selection=selection,
                             intra_edges=[(0, 1), (2, 3)])
        with pytest.raises(GenerationError, match="unreachable: each of the 2 intra-community"):
            _rewire_to_mu(state, 0.99, np.random.default_rng(1))
        assert state.intra == [[1], [0], [3], [2]] and state.mu() == 0.0


@pytest.mark.parametrize("config, dead", [
    (dict(seed=1, max_degree=1), 22),  # every link joins two nodes of degree 1 from the start
    (dict(seed=3, max_degree=3, selection="link"), 13),  # the last ones die after 11 rewires
])
def test_generate_stops_once_every_intra_link_left_is_dead(config, dead):
    # the first config ran 10**6 attempts before it failed, since no attempt
    # can move a link whose two ends have no other link
    with pytest.raises(GenerationError, match=(
            f"mu target 0.5 unreachable: each of the {dead} intra-community links left "
            "joins two nodes of degree 1")):
        generate(LfrConfig(n=44, communities=2, mu=0.5, min_degree=1, mean_degree=1, **config))


@pytest.mark.parametrize("selection", ["node", "link"])
def test_rewiring_drains_every_intra_link_without_isolating_a_node(monkeypatch, selection):
    labels = np.array([0, 0, 0, 1, 1, 1])
    intra = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
    state = _WiringState(labels=labels, intra=intra, inter=[[] for _ in range(6)],
                         nodes=list(range(6)), selection=selection,
                         intra_edges=[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    monkeypatch.setattr(netgen, "_MAX_TARGET_RETRIES", 8)
    monkeypatch.setattr(netgen, "_MAX_REWIRE_ATTEMPTS", 500)
    rewired, attempts, _ = _rewire_to_mu(state, 0.99, np.random.default_rng(1))
    assert state.mu() == 1.0
    assert rewired  # every intra edge converted before the target was hit
    assert attempts >= 6  # one per converted link at least
    assert all(state.inter)  # every node keeps a link


@pytest.mark.parametrize("selection", ["node", "link"])
def test_generate_leaves_no_node_isolated(selection):
    # this rewiring reaches far ends of degree 1 (nodes 7 and 31 under
    # "node" at mu = 0.1)
    for mu in (0.1, 0.3):
        net = generate(LfrConfig(n=40, communities=2, mu=mu, seed=5, min_degree=1,
                                 max_degree=4, mean_degree=2.5, selection=selection))
        assert net.graph.degrees.min() >= 1
        assert net.achieved_mu >= mu


def test_rewiring_an_empty_graph_errors():
    state = _WiringState(labels=np.array([0, 1]), intra=[[], []], inter=[[], []],
                         nodes=[0, 1], selection="node")
    with pytest.raises(GenerationError, match="no intra-community links left"):
        _rewire_to_mu(state, 0.5, np.random.default_rng(0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), communities=st.integers(1, 5), p=st.floats(0.05, 0.6),
       steps=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
def test_wiring_state_intra_lists_follow_drops_and_adds(n, communities, p, steps, seed):
    for selection in ("node", "link"):  # the same graph and steps for each rule's index
        check_wiring_state(selection, n, communities, p, steps, seed)


def check_wiring_state(selection, n, communities, p, steps, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(communities, size=n)
    adjacency = [set() for _ in range(n)]  # the reference, kept beside the state
    intra_edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
                if labels[u] == labels[v]:
                    intra_edges.append((u, v))
    edge_count = sum(map(len, adjacency)) // 2

    def expected(v, same=True):
        return sorted(w for w in adjacency[v] if (labels[w] == labels[v]) == same)

    state = _WiringState(labels=labels, intra=[expected(v) for v in range(n)],
                         inter=[expected(v, same=False) for v in range(n)],
                         nodes=list(range(n)), selection=selection,
                         intra_edges=list(intra_edges))
    assert state.edge_count == edge_count
    assert state.inter_count == edge_count - len(intra_edges)

    def check():
        assert all(state.intra[v] == expected(v) for v in range(n))
        assert all(sorted(state.inter[v]) == expected(v, same=False) for v in range(n))
        if selection == "link":
            assert sorted(state.intra_edges) == [
                (u, v) for u in range(n) for v in expected(u) if u < v]
            assert state.intra_pos == {e: i for i, e in enumerate(state.intra_edges)}

    check()
    added = 0
    for _ in range(steps):
        intra = [(u, v) for u in range(n) for v in expected(u) if u < v]
        if intra and rng.random() < 0.6:
            u, v = intra[int(rng.integers(len(intra)))]
            state.drop_intra(*((u, v) if rng.random() < 0.5 else (v, u)))
            adjacency[u].discard(v)
            adjacency[v].discard(u)
        else:
            u, v = (int(x) for x in rng.integers(n, size=2))
            if labels[u] != labels[v] and v not in adjacency[u]:
                state.add_inter(u, v)
                adjacency[u].add(v)
                adjacency[v].add(u)
                added += 1
        check()
    assert state.inter_count == edge_count - len(intra_edges) + added


def test_bias_result_fields():
    net = generate(LfrConfig(seed=11, **SMALL))
    bias = bridge_degree_bias(net)
    assert bias.overall_mean_degree == pytest.approx(float(net.graph.degrees.mean()))
    assert 0.0 <= bias.ranksum_pvalue <= 1.0
    assert np.isfinite(bias.ranksum_statistic)


def test_link_selection_biases_toward_high_degree():
    # within-community link sampling favors high-degree endpoints; compare
    # the two modes on the same seeds at generation scale
    diffs = []
    for seed in range(3):
        cfg = dict(n=600, communities=12, mu=0.25)
        node_net = generate(LfrConfig(seed=seed, selection="node", **cfg))
        link_net = generate(LfrConfig(seed=seed, selection="link", **cfg))
        node_bias = bridge_degree_bias(node_net)
        link_bias = bridge_degree_bias(link_net)
        diffs.append(
            (link_bias.rewired_mean_degree - link_bias.overall_mean_degree)
            - (node_bias.rewired_mean_degree - node_bias.overall_mean_degree)
        )
    assert np.mean(diffs) > 0.0


def test_dropped_stubs_returned_and_logged(caplog):
    # the lfr-10k-prep parameters; this seed drops stubs in several communities
    with caplog.at_level(logging.WARNING, logger="bridgeness.netgen"):
        net = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=1))
    logged = [r.args[0] for r in caplog.records if r.msg.startswith("dropped %d")]
    assert net.dropped_stubs > 0
    assert net.dropped_stubs == sum(logged)
    assert int(net.graph.degrees.sum()) == 2 * net.graph.edge_count


def test_generate_peak_memory_at_n_10000():
    # the documented bounds in bytes per edge, about 10% above the measured
    # 68.8 (node) and 177.3 (link): each node's neighbours are a set only
    # while its community is wired, then a sorted row, and the CSR is read
    # from the rows; the node rule peaked at 215 while every node kept a
    # set up to the CSR build, and at 36 MiB when both rules' indexes and
    # a fresh int per stub were kept as well
    for selection, bound in (("node", 76), ("link", 196)):
        tracemalloc.start()
        try:
            net = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=3,
                                     selection=selection))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.graph.edge_count == 75080
        assert peak <= bound * net.graph.edge_count, selection


def test_rewire_counters_count_attempts_and_refused_draws(monkeypatch):
    samplers = []

    class CountingSampler(_FenwickSampler):
        def __init__(self, weights):
            super().__init__(weights)
            self.draws = 0
            samplers.append(self)

        def draw(self, rng):
            self.draws += 1
            return super().draw(rng)

    monkeypatch.setattr(netgen, "_FenwickSampler", CountingSampler)
    net = generate(LfrConfig(n=10000, communities=300, mu=0.2, seed=3))
    converted = round(net.achieved_mu * net.graph.edge_count)  # one per successful draw
    assert (net.rewire_attempts, samplers[-1].draws) == (15016, 15088)
    assert net.target_rejections == samplers[-1].draws - converted == 72
    unmixed = generate(LfrConfig(seed=1, **{**SMALL, "mu": 0.0}))
    assert (unmixed.rewire_attempts, unmixed.target_rejections) == (0, 0)


@pytest.mark.parametrize("selection", ["node", "link"])
def test_adjacency_sets_share_one_int_per_node(monkeypatch, selection):
    states = []

    def check_state(state, *args, **kwargs):
        result = _rewire_to_mu(state, *args, **kwargs)
        # checked while the wiring state is live, before the CSR build
        rows = [*state.intra, *state.inter]
        assert state.nodes == list(range(1000))
        assert all(w is state.nodes[w] for row in rows for w in row)
        assert sum(map(len, rows)) == 2 * state.edge_count
        assert all(row == sorted(row) for row in state.intra)
        assert hasattr(state, "intra_pos") == (selection == "link")
        states.append(state)
        return result

    monkeypatch.setattr(netgen, "_rewire_to_mu", check_state)
    generate(LfrConfig(n=1000, communities=30, mu=0.2, seed=7, selection=selection))
    assert len(states) == 1


degree_vectors = st.lists(st.integers(0, 60), min_size=1, max_size=300).filter(any)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(degrees=degree_vectors, seed=st.integers(0, 2**32 - 1))
def test_stub_sampler_equals_rng_choice_over_a_walk(degrees, seed):
    sampler = _FenwickSampler(degrees)
    current = np.array(degrees, dtype=np.float64)
    fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    walk = np.random.default_rng(seed + 1)
    drained = 0
    for step in range(2000):
        assert sampler.draw(fast) == int(reference.choice(len(current), p=current / current.sum()))
        positive = np.flatnonzero(current)
        # every other move drains the smallest positive degree, so nodes reach 0
        u = int(positive[np.argmin(current[positive])] if step % 2 else walk.choice(positive))
        w = int(walk.integers(len(current)))
        sampler.move(u, w)
        current[u] -= 1.0
        current[w] += 1.0
        drained += u != w and current[u] == 0.0
    assert sampler.weights == current.astype(int).tolist()
    assert len(current) == 1 or drained > 0


class FixedDraws:
    """Stands in for a Generator whose ``random()`` returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self) -> float:
        return next(self.values)


LARGE_DEGREES = np.random.default_rng(0).integers(0, 60, 3000).tolist()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(degrees=degree_vectors)
@example(degrees=LARGE_DEGREES)  # numpy's cdf strays ~10 units of 2**-53 here
def test_stub_sampler_falls_back_to_numpy_at_bucket_edges(degrees):
    d = np.array(degrees, dtype=np.float64)
    cdf = (d / d.sum()).cumsum()
    cdf /= cdf[-1]
    picked = np.random.default_rng(1).permutation(len(d))[:100]
    exact = np.cumsum(d)[picked] / d.sum()
    # both forms of each edge, their float neighbours, and draws a few
    # units of 2**-53 either side of the exact edge
    draws = np.concatenate((
        cdf[picked], np.nextafter(cdf[picked], 0.0), np.nextafter(cdf[picked], 1.0),
        (exact[:, None] + np.arange(-16, 17) * 2.0**-53).ravel(),
    ))
    draws = draws[(draws >= 0.0) & (draws < 1.0)]
    sampler = _FenwickSampler(degrees)
    stub_rng = FixedDraws(draws.tolist())
    got = [sampler.draw(stub_rng) for _ in draws]
    assert got == cdf.searchsorted(draws, side="right").tolist()
    assert sampler.fallbacks > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=100).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_index_equals_rng_choice(weights, seed):
    w = np.array(weights)
    fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert _weighted_index(w, fast.random()) == int(reference.choice(len(w), p=w / w.sum()))


class _GuardlessSampler(_FenwickSampler):
    """A sampler whose guard never trusts the tree, so every draw falls back
    to numpy; its instances are kept for their counters."""

    made: list["_GuardlessSampler"] = []

    def __init__(self, weights):
        super().__init__(weights)
        self.margin = _EXACT_UNIT  # 2**53 units of 2**-53: no draw passes the guard
        self.draws = 0
        self.made.append(self)

    def draw(self, rng):
        self.draws += 1
        return super().draw(rng)


@st.composite
def placements(draw):
    """Community sizes and a degree per place, often more than fit."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=30))
    top = draw(st.integers(1, 2 * max(sizes)))
    degrees = draw(st.lists(st.integers(1, top), min_size=sum(sizes), max_size=sum(sizes)))
    return np.array(degrees, dtype=np.int64), tuple(sizes)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(placement=placements(), seed=st.integers(0, 2**32 - 1), guardless=st.booleans())
def test_placement_equals_the_numpy_reference(placement, seed, guardless):
    degrees, sizes = placement
    expected_degrees = degrees.copy()
    reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_assign_communities(expected_degrees, sizes, reference_rng)
    _GuardlessSampler.made.clear()
    with mock.patch.object(netgen, "_FenwickSampler",
                           _GuardlessSampler if guardless else _FenwickSampler):
        labels = _assign_communities(degrees, sizes, rng)
    assert labels.tolist() == expected.tolist()
    assert degrees.tolist() == expected_degrees.tolist()
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    if guardless:
        (sampler,) = _GuardlessSampler.made
        assert sampler.fallbacks == sampler.draws
