"""Acceptance suite: one test per release criterion, strictest stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""
import numpy as np
import pytest
from scipy import stats

from bridgeness import (
    Graph,
    LfrConfig,
    LouvainConfig,
    bridgeness_exact,
    bridgeness_si_compat,
    cumulative_ratio_curve,
    curve_advantage,
    generate,
    global_indicator,
    locterm_by_degree,
    louvain_passes,
    modularity,
)

from util import (
    best_label_agreement,
    bridge_degree_bias,
    bridgeness_bruteforce,
    er_graph,
    star_graph,
)

BENCH_SCALE = dict(n=1000, communities=30, mu=0.2)
REFERENCE_EDGE_COUNT = 7539
FAMILY_SEEDS = tuple(range(1, 11))
BIAS_SEEDS = tuple(range(200, 224))
ALPHA = 0.01


@pytest.fixture(scope="module")
def random_graph_family():
    rng = np.random.default_rng(20240614)
    graphs = []
    for _ in range(200):
        n = int(rng.integers(5, 101))
        p = rng.uniform(0.05, 0.5)
        graphs.append(er_graph(n, p, rng))
    return graphs


@pytest.fixture(scope="module")
def lfr_family():
    runs = []
    for seed in FAMILY_SEEDS:
        net = generate(LfrConfig(seed=seed, **BENCH_SCALE))
        result = bridgeness_exact(net.graph)
        g_scores = global_indicator(net.graph, net.ground_truth)
        runs.append((net, result, g_scores))
    return runs


def test_star_identity():
    for k in (3, 5, 10, 50):
        star = star_graph(k)
        result = bridgeness_exact(star)
        assert result.bc[0] == k * (k - 1) / 2
        assert result.bridgeness[0] == 0.0
        assert bridgeness_exact(star).bc[0] == k * (k - 1) / 2
    print("[acceptance] 1 star identity: PASS (k in {3,5,10,50}, exact)")


def test_oracle_equivalence_200_random_graphs(random_graph_family):
    worst = 0.0
    for graph in random_graph_family:
        brute = bridgeness_bruteforce(graph)
        result = bridgeness_exact(graph)
        bc = bridgeness_exact(graph).bc
        scale = np.maximum(np.abs(brute.bc), 1.0)
        worst = max(
            worst,
            float(np.max(np.abs(result.bc - brute.bc) / scale, initial=0.0)),
            float(np.max(np.abs(result.bridgeness - brute.bridgeness) / scale, initial=0.0)),
            float(np.max(np.abs(bc - brute.bc) / scale, initial=0.0)),
        )
    assert worst < 1e-9
    print(f"[acceptance] 2 oracle equivalence: PASS (200 graphs, worst rel err {worst:.2e})")


def test_decomposition_and_ordering_invariants(random_graph_family):
    extras = [
        star_graph(4),
        Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # disconnected
        Graph.from_edges(2, []),
    ]
    for graph in list(random_graph_family) + extras:
        result = bridgeness_exact(graph)
        si = bridgeness_si_compat(graph).bridgeness
        scale = np.maximum(np.abs(result.bc), 1.0)
        assert np.all(np.abs(result.bc - (result.bridgeness + result.local)) / scale < 1e-9)
        assert np.all(result.bridgeness >= 0.0)
        assert np.all(result.bridgeness <= si)
        assert np.all(si <= result.bc)
    print("[acceptance] 3 decomposition and ordering: PASS (203 graphs incl. disconnected)")


def test_lfr_reproduction_at_benchmark_scale():
    net = generate(LfrConfig(seed=1, **BENCH_SCALE))
    assert 0.19 <= net.achieved_mu <= 0.21
    low, high = 0.9 * REFERENCE_EDGE_COUNT, 1.1 * REFERENCE_EDGE_COUNT
    assert low <= net.graph.edge_count <= high
    mean_degree = net.graph.degrees.mean()
    assert 13.0 <= mean_degree <= 17.0
    print(
        f"[acceptance] 4 LFR scale: PASS (mu={net.achieved_mu:.4f}, "
        f"edges={net.graph.edge_count} in [{low:.0f},{high:.0f}], mean degree {mean_degree:.2f})"
    )


def test_ranking_advantage_over_family(lfr_family):
    advantages = []
    for net, result, g_scores in lfr_family:
        bri_curve = cumulative_ratio_curve(g_scores, result.bridgeness, name="bridgeness")
        bc_curve = cumulative_ratio_curve(g_scores, result.bc, name="bc")
        advantages.append(curve_advantage(bri_curve, bc_curve))
    mean_adv = float(np.mean(advantages))
    assert mean_adv > 0.0
    print(
        f"[acceptance] 5 ranking advantage: PASS (mean {mean_adv:+.4f} over "
        f"{len(advantages)} seeds; positive is the hard criterion, 5-10% is soft)"
    )


def test_local_term_degree_correlation(lfr_family):
    degrees, ratios = [], []
    for net, result, _ in lfr_family:
        mapping = locterm_by_degree(result, net.graph)
        for k in sorted(mapping):
            degrees.append(float(k))
            ratios.append(mapping[k])
    r, p = stats.pearsonr(degrees, ratios)
    assert r < 0.0
    assert p < 0.05
    print(f"[acceptance] 6 local-term correlation: PASS (r={r:+.3f}, p={p:.2e})")


def test_generator_unbiasedness():
    node_p, link_p = [], []
    for seed in BIAS_SEEDS:
        node_p.append(bridge_degree_bias(generate(LfrConfig(seed=seed, **BENCH_SCALE))).ranksum_pvalue)
        link_p.append(
            bridge_degree_bias(
                generate(LfrConfig(seed=seed, selection="link", **BENCH_SCALE))
            ).ranksum_pvalue
        )
    mean_node = float(np.mean(node_p))
    mean_link = float(np.mean(link_p))
    assert mean_node >= ALPHA  # uniform node selection: no degree bias detected
    assert mean_link < ALPHA  # classic link selection: bias detected
    print(
        f"[acceptance] 7 generator unbiasedness: PASS "
        f"(node-pick mean p={mean_node:.3f}, link-pick mean p={mean_link:.2e}, "
        f"{len(BIAS_SEEDS)} seeds, alpha={ALPHA})"
    )


def test_louvain_sanity(lfr_family):
    # exact recovery of two 10-cliques joined by one edge
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    edges += [(10 + i, 10 + j) for i in range(10) for j in range(i + 1, 10)]
    edges += [(0, 10)]
    cliques = Graph.from_edges(20, edges)
    part = louvain_passes(cliques, LouvainConfig(seed=1)).partition
    assert part.community_count == 2
    assert len({int(x) for x in part.labels[:10]}) == 1
    assert len({int(x) for x in part.labels[10:]}) == 1

    # modularity non-decreasing per pass on every run
    for seed, graph in ((0, cliques), (1, lfr_family[0][0].graph), (2, lfr_family[1][0].graph)):
        qs = louvain_passes(graph, LouvainConfig(seed=seed)).pass_modularity
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    # planted-partition recovery on the benchmark-scale family
    agreements = []
    for net, _, _ in lfr_family[:3]:
        found = louvain_passes(net.graph, LouvainConfig(seed=17)).partition
        agreements.append(best_label_agreement(net.ground_truth.labels, found.labels))
    assert all(a >= 0.95 for a in agreements)
    print(
        "[acceptance] 8 louvain sanity: PASS (cliques exact, passes monotone, "
        f"agreement {['%.3f' % a for a in agreements]})"
    )
