import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bridgeness import (
    Graph,
    Partition,
    RankingCurve,
    bridgeness_exact,
    cumulative_ratio_curve,
    curve_advantage,
    global_indicator,
    locterm_correlation,
    smooth,
)
from bridgeness.evaluation import (
    REPORT_COLUMNS, report_columns, write_curve_csv, write_node_report,
)


def test_self_ranking_is_one():
    g = np.array([5.0, 3.0, 2.0, 0.0])
    curve = cumulative_ratio_curve(g, g)
    assert np.allclose(curve.y, 1.0)


def test_reversed_ranking_hand_values():
    reference = np.array([3.0, 2.0, 1.0, 0.0])
    candidate = np.array([0.0, 1.0, 2.0, 3.0])  # reversed order
    curve = cumulative_ratio_curve(reference, candidate)
    assert np.allclose(curve.y, [0 / 3, 1 / 5, 3 / 6, 6 / 6])


def test_all_equal_reference_gives_one():
    reference = np.full(5, 2.0)
    candidate = np.array([9.0, 1.0, 5.0, 3.0, 7.0])
    assert np.allclose(cumulative_ratio_curve(reference, candidate).y, 1.0)


def test_all_zero_reference_gives_one():
    reference = np.zeros(4)
    candidate = np.array([4.0, 3.0, 2.0, 1.0])
    assert np.allclose(cumulative_ratio_curve(reference, candidate).y, 1.0)


def test_curve_tie_break_by_node_index():
    reference = np.array([0.0, 1.0])
    candidate = np.array([1.0, 1.0])  # tie: node 0 ranked first
    assert np.allclose(cumulative_ratio_curve(reference, candidate).y, [0.0, 1.0])


def test_curve_rejects_mismatched_sets():
    with pytest.raises(ValueError):
        cumulative_ratio_curve(np.ones(3), np.ones(4))


def test_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    reference = rng.random(40)
    candidate = rng.random(40)
    base = cumulative_ratio_curve(reference, candidate)
    for transform in (lambda x: 3 * x + 1, np.exp, lambda x: x ** 3):
        assert np.allclose(cumulative_ratio_curve(reference, transform(candidate)).y, base.y)


def test_smooth_window_one_is_identity():
    curve = RankingCurve(x=np.arange(1, 5), y=np.array([0.1, 0.9, 0.5, 0.3]))
    assert np.array_equal(smooth(curve, 1).y, curve.y)
    assert smooth(curve, 1).window == 1


def test_smooth_constant_unchanged():
    curve = RankingCurve(x=np.arange(1, 6), y=np.ones(5))
    assert np.allclose(smooth(curve, 3).y, 1.0)


def test_smooth_step_hand_values():
    curve = RankingCurve(x=np.arange(1, 5), y=np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.allclose(smooth(curve, 2).y, [0.0, 0.0, 0.5, 1.0])


def test_smooth_window_past_int64_averages_the_whole_prefix():
    curve = RankingCurve(x=np.arange(1, 5), y=np.array([0.1, 0.9, 0.5, 0.3]))
    huge = smooth(curve, 2**63)
    assert np.array_equal(huge.y, smooth(curve, 4).y)
    assert huge.window == 2**63


def test_smooth_validates_window():
    curve = RankingCurve(x=np.arange(1, 3), y=np.zeros(2))
    with pytest.raises(ValueError):
        smooth(curve, 0)


def test_self_ranking_stays_one_after_smoothing():
    g = np.array([4.0, 4.0, 1.0, 0.5, 0.0])
    curve = smooth(cumulative_ratio_curve(g, g), 200)
    assert np.allclose(curve.y, 1.0)


def test_curve_advantage():
    a = RankingCurve(x=np.arange(1, 4), y=np.ones(3))
    b = RankingCurve(x=np.arange(1, 4), y=np.full(3, 0.9))
    assert curve_advantage(a, a) == 0.0
    assert curve_advantage(a, b) == pytest.approx(0.1)
    short = RankingCurve(x=np.arange(1, 3), y=np.ones(2))
    with pytest.raises(ValueError):
        curve_advantage(a, short)


def test_locterm_correlation_perfect_negative():
    r, p = locterm_correlation([{5: 1.0, 10: 0.8, 20: 0.4, 40: 0.1}])
    assert r == pytest.approx(-1.0, abs=0.05)
    assert p < 0.05


def test_locterm_correlation_pools_maps():
    r, _ = locterm_correlation([{5: 0.9, 10: 0.7}, {20: 0.5, 30: 0.2}])
    assert r < 0


def test_locterm_correlation_needs_points():
    with pytest.raises(ValueError):
        locterm_correlation([{3: 1.0, 4: 0.5}])


def scipy_pearson(maps):
    xs = [float(k) for m in maps for k in sorted(m)]
    ys = [float(m[k]) for m in maps for k in sorted(m)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on nearly constant input
        result = stats.pearsonr(xs, ys)
    return float(result.statistic), float(result.pvalue)


def assert_matches_scipy(maps):
    r, p = locterm_correlation(maps)
    want_r, want_p = scipy_pearson(maps)
    assert r == want_r  # bit for bit
    if want_p > 1e-300:
        assert abs(p - want_p) <= 1e-12 * want_p
    else:
        assert p <= 1e-290


def _near_line(draw):
    # ratios on a line in the degree, plus noise from none to dominant: r near +-1 and between
    degrees = draw(st.lists(st.integers(1, 400), min_size=3, max_size=120, unique=True))
    slope = draw(st.sampled_from([-1e-3, -1.0, 2.5e-4, 1.0]))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    jitter = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(degrees), max_size=len(degrees)))
    return [{k: 0.5 + slope * k + noise * e for k, e in zip(degrees, jitter)}]


pooled_maps = st.lists(
    st.dictionaries(st.integers(1, 200), st.floats(0.0, 1.0), min_size=1, max_size=40),
    min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(maps=st.one_of(pooled_maps, st.composite(_near_line)()))
def test_locterm_correlation_matches_scipy(maps):
    points = [(k, m[k]) for m in maps for k in m]
    degrees, ratios = zip(*points)
    if len(points) < 3 or len(set(degrees)) == 1 or len(set(ratios)) == 1:
        with pytest.raises(ValueError):
            locterm_correlation(maps)
    else:
        assert_matches_scipy(maps)


@pytest.mark.parametrize("maps", [
    [{1: 0.2, 2: 0.9, 3: 0.4}],  # n = 3, a = 1/2
    [{1: 0.0, 2: 1.0, 3: 0.0}],  # r within 1e-17 of 0
    [{1: 0.0, 2: 1.0, 3: 1.0, 4: 0.0}],  # r = 0
    [{1: 0.0, 2: 1.0, 3: 0.0, 4: 1.0, 5: 0.0}],
    [{5: 1.0, 10: 0.8, 20: 0.4, 40: 0.1}],
    [{5: 0.9, 10: 0.7}, {20: 0.5, 30: 0.2}],
    [{k: 0.25 * k for k in range(1, 60)}],  # r = 1
    [{k: 1.0 - 1e-3 * k for k in range(1, 9)}],  # r = -1
])
def test_locterm_correlation_fixed_cases_match_scipy(maps):
    assert_matches_scipy(maps)


def test_locterm_correlation_ends_of_the_range():
    assert locterm_correlation([{1: 0.0, 2: 1.0, 3: 1.0, 4: 0.0}]) == (0.0, 1.0)
    assert locterm_correlation([{1: 0.0, 2: 1.0, 3: 0.0}])[1] == pytest.approx(1.0, rel=1e-15)
    r, p = locterm_correlation([{k: 0.25 * k for k in range(1, 60)}])
    assert (abs(r), p) == (1.0, 0.0)


@pytest.mark.parametrize("maps", [
    [{3: 1.0, 4: 1.0, 11: 1.0}],  # constant ratios
    [{3: 0.5}, {3: 0.7}, {3: 0.2}],  # one degree pooled
    [{3: 0.5, 4: float("nan"), 5: 0.1}],
    [{3: 0.5, 4: float("inf"), 5: 0.1}],
])
def test_locterm_correlation_rejects_undefined_input(maps):
    with pytest.raises(ValueError):
        locterm_correlation(maps)


def _report_fixture():
    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    partition = Partition(labels=np.array([0, 0, 1, 1, 0]), community_count=2)
    result = bridgeness_exact(graph)
    g = global_indicator(graph, partition)
    return graph, partition, result, g


def test_report_columns_values_and_types():
    graph, partition, result, g = _report_fixture()
    columns = report_columns(graph, partition, result, g)
    assert list(columns) == list(REPORT_COLUMNS)
    assert columns == {
        "node_id": [str(v) for v in range(5)], "G": g.tolist(),
        "community": partition.labels.tolist(), "bc": result.bc.tolist(),
        "bridgeness": result.bridgeness.tolist(), "degree": graph.degrees.tolist()}
    assert [type(columns[name][0]) for name in REPORT_COLUMNS] == [
        str, float, int, float, float, int]


def test_report_columns_single_node_zero_row():
    graph = Graph.from_edges(1, [])
    partition = Partition.from_labels([0])
    result = bridgeness_exact(graph)
    g = global_indicator(graph, partition)
    columns = report_columns(graph, partition, result, g)
    assert columns == {"node_id": ["0"], "G": [0.0], "community": [0], "bc": [0.0],
                       "bridgeness": [0.0], "degree": [0]}


def test_report_columns_sorted_by_bc():
    graph, partition, result, g = _report_fixture()
    values = report_columns(graph, partition, result, g, sort_by="bc")["bc"]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        report_columns(graph, partition, result, g, sort_by="nope")


def test_write_node_report_header():
    import io

    graph, partition, result, g = _report_fixture()
    columns = report_columns(graph, partition, result, g)
    buf = io.StringIO()
    write_node_report(columns, buf)
    assert buf.getvalue().splitlines()[0] == "node_id,G,community,bc,bridgeness,degree"


def test_write_curve_csv_with_sidecar(tmp_path):
    curve = RankingCurve(x=np.arange(1, 4), y=np.array([1.0, 0.5, 0.25]), name="bc")
    path = tmp_path / "curve.csv"
    write_curve_csv(smooth(curve, 2), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,ratio"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta == {"name": "bc", "points": 3, "window": 2}
