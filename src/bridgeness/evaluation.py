"""Ranking-comparison harness: cumulative-ratio curves and per-node reports.

The curve protocol: rank nodes by a candidate score, take the running sum of
the reference G values in that order, and divide by the running sum obtained
when ranking by G itself (the best achievable at every prefix). A candidate
that reproduces the reference ranking sits at ratio 1 everywhere.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .centrality import CentralityResult
from .graph import Graph, NodeTable, Partition, write_rows

REPORT_COLUMNS = ("node_id", "G", "community", "bc", "bridgeness", "degree")


@dataclass(frozen=True)
class RankingCurve:
    """Cumulative-sum ratio per rank position (x starts at 1)."""

    x: np.ndarray
    y: np.ndarray
    name: str = "candidate"
    window: int | None = None


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # ties broken by ascending node index
    return np.lexsort((np.arange(len(scores)), -np.asarray(scores, dtype=np.float64)))


def cumulative_ratio_curve(
    reference: np.ndarray,
    candidate: np.ndarray,
    *,
    name: str = "candidate",
) -> RankingCurve:
    """Ratio of candidate-ranked to reference-ranked cumulative G sums.

    Prefix positions where the reference cumulative sum is zero (all-zero
    reference prefixes) are defined as ratio 1.
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape:
        raise ValueError("reference and candidate must score the same nodes")
    n = len(reference)
    if n == 0:
        raise ValueError("need at least one node")
    by_candidate = np.cumsum(reference[_descending_order(candidate)])
    by_reference = np.cumsum(reference[_descending_order(reference)])
    y = np.where(by_reference > 0, by_candidate / np.where(by_reference > 0, by_reference, 1.0), 1.0)
    return RankingCurve(x=np.arange(1, n + 1), y=y, name=name)


def smooth(curve: RankingCurve, window: int = 200) -> RankingCurve:
    """Trailing moving average, truncated at the left boundary.

    A window longer than the curve averages the same points as one of its
    length; ``window`` is kept as given.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1:
        return replace(curve, window=1)
    csum = np.concatenate(([0.0], np.cumsum(curve.y)))
    n = len(curve.y)
    idx = np.arange(n)
    lo = np.maximum(idx - min(window, n) + 1, 0)  # an int64 cannot hold every window
    y = (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)
    return replace(curve, y=y, window=window)


def curve_advantage(a: RankingCurve, b: RankingCurve) -> float:
    """Signed mean of a.y - b.y; positive when ``a`` tracks the reference better."""
    if len(a.y) != len(b.y):
        raise ValueError("curves have different lengths")
    return float(np.mean(a.y - b.y))


def _unit(v: np.ndarray) -> np.ndarray:
    # the reductions of scipy.stats.pearsonr, so that r matches it bit for bit
    dev = v - np.mean(v, axis=-1)
    top = np.max(np.abs(dev), axis=-1)
    return dev / (top * np.linalg.norm(dev / top, axis=-1))


def _beta_half(a: float, x: float) -> float:
    """I_x(a, a) for 0 <= x <= 1/2, by Lentz's continued fraction."""
    if x in (0.0, 0.5):  # exact at both ends, 1/2 by symmetry
        return x
    c, d, f = 1.0, 0.0, 1.0
    for j in range(1, 10_000):
        m = j // 2
        if j % 2:
            step = -(a + m) * (2 * a + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            step = m * (a - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + step * d)
        c = 1.0 + step / c
        f *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    else:
        raise ArithmeticError(f"incomplete beta I_{x}({a}, {a}) did not converge")
    log_front = math.lgamma(2 * a) - 2 * math.lgamma(a) + a * (math.log(x) + math.log1p(-x))
    return math.exp(log_front) / (a * f)


def locterm_correlation(maps: Iterable[Mapping[int, float]]) -> tuple[float, float]:
    """Pearson correlation (r, p) between degree and mean local-term ratio.

    Points from several runs may be pooled by passing multiple mappings.
    ``r`` equals ``scipy.stats.pearsonr``'s bit for bit; the two-sided ``p``,
    2·I_x(a, a) with a = n/2 - 1 and x = (1 - |r|)/2, is within 1e-12 of
    scipy's for up to a few hundred points. Raises ``ValueError`` for fewer
    than three points, or for non-finite or constant degrees or ratios.
    """
    xs: list[float] = []
    ys: list[float] = []
    for mapping in maps:
        for k in sorted(mapping):
            xs.append(float(k))
            ys.append(float(mapping[k]))
    if len(xs) < 3:
        raise ValueError("need at least three (degree, ratio) points")
    x, y = np.array(xs), np.array(ys)
    if not all(np.isfinite(v).all() and v.min() < v.max() for v in (x, y)):
        raise ValueError("correlation needs finite, non-constant degrees and ratios")
    r = float(np.clip(np.vecdot(_unit(x), _unit(y)), -1.0, 1.0))
    # x formed as scipy's beta sf rounds it; (1 - |r|) / 2 is off near |r| = 1
    p = 2.0 * _beta_half(len(xs) / 2 - 1, 1.0 - (abs(r) + 1.0) / 2.0)
    return r, min(p, 1.0)


def report_columns(
    graph: Graph,
    partition: Partition,
    centrality: CentralityResult,
    g: np.ndarray,
    *,
    table: NodeTable | None = None,
    sort_by: str | None = None,
    descending: bool = True,
) -> dict[str, list]:
    """Per-node columns node_id, G, community, bc, bridgeness, degree, as
    lists in row order: by node index, or stably by ``sort_by``."""
    n = graph.node_count
    if len(partition) != n or len(centrality.bc) != n or len(g) != n:
        raise ValueError("inputs cover different node sets")
    table = table or NodeTable.identity(n)
    columns = dict(zip(REPORT_COLUMNS, (
        list(table.ids), g.tolist(), partition.labels.tolist(), centrality.bc.tolist(),
        centrality.bridgeness.tolist(), graph.degrees.tolist())))
    if sort_by is not None:
        if sort_by not in REPORT_COLUMNS:
            raise ValueError(f"unknown sort column {sort_by!r}")
        order = sorted(range(n), key=columns[sort_by].__getitem__, reverse=descending)
        columns = {name: [column[v] for v in order] for name, column in columns.items()}
    return columns


def write_node_report(columns: Mapping[str, Sequence], stream: IO[str]) -> None:
    write_rows(stream, ",".join(REPORT_COLUMNS) + "\n", "%s,%.12g,%d,%.12g,%.12g,%d\n",
               *(columns[name] for name in REPORT_COLUMNS))


def write_curve_csv(curve: RankingCurve, path: str) -> None:
    """Two-column CSV (rank, ratio) plus a JSON metadata sidecar."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, "rank,ratio\n", "%d,%.12g\n", curve.x.tolist(), curve.y.tolist())
    meta = {"name": curve.name, "window": curve.window, "points": int(len(curve.x))}
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
