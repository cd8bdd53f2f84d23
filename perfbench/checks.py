"""Checks on the files the benchmark's commands write.

Every check returns ``None`` when the output passes and a one-line reason
when it does not. The checks read the files directly and use networkx for
reference values, never ``bridgeness`` itself.

Tolerances:

* ``bc`` against networkx ``betweenness_centrality(normalized=False)``:
  relative 1e-9 (the CSV carries 12 significant digits);
* ``bc = bridgeness + local`` and ``0 <= si <= bc`` on the written scores:
  relative 1e-9 of ``max(1, |bc|)``;
* float values of ``metrics.json``: relative 1e-9 of the recorded value;
  integer values exactly;
* modularity of the Louvain partition: absolute 1e-9 of the recorded value;
* edge lists, partitions, ``G`` files and the grid scores: byte-identical
  (SHA-256) to the recorded outputs.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
MODULARITY_TOL = 1e-9


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def digest_problem(name: str, actual: str | None, expected: str | None) -> str | None:
    if expected is None:
        return f"{name}: no recorded digest"
    if actual is None:
        return f"{name}: missing"
    if actual != expected:
        return f"{name}: sha256 {actual[:12]} differs from recorded {expected[:12]}"
    return None


def read_edges(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.split()[:2]) for line in fh if line.strip()]


def networkx_bc(edges_path: Path) -> dict[str, float]:
    import networkx as nx

    graph = nx.Graph(read_edges(edges_path))
    return nx.betweenness_centrality(graph, normalized=False)


def scores_problem(path: Path, reference_bc: dict[str, float]) -> str | None:
    """Check a ``node_id,degree,bc,bridgeness,local`` CSV.

    The ``bridgeness`` column holds ``si`` for ``--variant si-compat``, so
    ``0 <= bridgeness <= bc`` is the ``0 <= si <= bc`` invariant there.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except FileNotFoundError:
        return f"{path.name}: missing"
    seen = set()
    for row in rows:
        node = row["node_id"]
        bc, bri, local = (float(row[k]) for k in ("bc", "bridgeness", "local"))
        scale = max(1.0, abs(bc))
        if not all(map(math.isfinite, (bc, bri, local))):
            return f"node {node}: non-finite score"
        if abs(bc - (bri + local)) > REL_TOL * scale:
            return f"node {node}: bc {bc!r} != bridgeness {bri!r} + local {local!r}"
        if not 0.0 <= bri <= bc:
            return f"node {node}: bridgeness {bri!r} outside [0, bc={bc!r}]"
        if node not in reference_bc:
            return f"node {node}: not in the input graph"
        ref = reference_bc[node]
        if abs(bc - ref) > REL_TOL * max(1.0, abs(ref)):
            return f"node {node}: bc {bc!r} differs from networkx {ref!r}"
        seen.add(node)
    if len(seen) != len(reference_bc) or len(rows) != len(seen):
        return f"{path.name}: {len(rows)} rows for {len(reference_bc)} nodes"
    return None


def metrics_problem(path: Path, expected: dict) -> str | None:
    try:
        actual = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return f"{path.name}: missing"
    if sorted(actual) != sorted(expected):
        return f"{path.name}: keys {sorted(actual)} differ from recorded {sorted(expected)}"
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float) and isinstance(got, (int, float)):
            if abs(got - want) > REL_TOL * abs(want):
                return f"{path.name}: {key} {got!r} differs from recorded {want!r}"
        elif got != want:
            return f"{path.name}: {key} {got!r} differs from recorded {want!r}"
    return None


def modularity(edges_path: Path, partition_path: Path) -> float:
    """Newman-Girvan modularity of a ``node_id,community`` CSV, by networkx."""
    import networkx as nx

    groups: dict[str, set] = {}
    with open(partition_path, encoding="utf-8", newline="") as fh:
        for node, label in csv.reader(fh):
            groups.setdefault(label, set()).add(node)
    graph = nx.Graph(read_edges(edges_path))
    graph.add_nodes_from(node for group in groups.values() for node in group)
    return nx.community.modularity(graph, groups.values())


def modularity_problem(name: str, actual: float, expected: float) -> str | None:
    if not abs(actual - expected) <= MODULARITY_TOL:
        return f"{name}: modularity {actual!r} differs from recorded {expected!r}"
    return None
