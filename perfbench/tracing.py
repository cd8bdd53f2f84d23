"""Spans around the library calls of the CLI, and per-layer metrics from them.

The traced run replaces every public library function that
``bridgeness.cli`` imported, plus ``cli.main``, ``Graph.from_edges`` and
``community.louvain_passes``, with a wrapper that records a span: name,
start, end and the id of the enclosing span. The library itself is not
modified. Spans stay in memory and are written out when the run ends.

A span is named ``<layer>.<function>``, where the layer is the module that
defines the function. Counts the library reports only through ``logging``
are taken from handlers on its loggers.
"""
from __future__ import annotations

import contextlib
import inspect
import logging
import statistics
import time
from collections import defaultdict

LAYERS = ("graph", "netgen", "centrality", "indicator", "community", "evaluation", "cli")

SWEEPS = {"centrality.bridgeness_exact", "centrality.betweenness", "centrality.bridgeness_si_compat"}

# log message prefix -> names of the counts its %d arguments carry
_LOGGED_COUNTS = {
    "bridgeness.netgen": {"dropped %d unplaceable stub": ("netgen.dropped_stubs",)},
    "bridgeness.graph": {
        "edge list cleanup": ("graph.dropped_self_loops", "graph.collapsed_duplicates"),
    },
}

# span name -> attributes taken from (args, result)
_ATTRS = {
    **{name: lambda args, res: {"n": args[0].node_count} for name in SWEEPS},
    "graph.load_edge_list": lambda args, res: {"edges": res[0].edge_count},
    "netgen.generate": lambda args, res: {"rewired": len(res.rewired_nodes)},
    "community.louvain_passes": lambda args, res: {
        "passes": len(res.pass_modularity), "modularity": res.pass_modularity[-1]},
    "indicator.global_indicator": lambda args, res: {
        "n": args[0].node_count, "communities": args[1].community_count},
}


class _CountHandler(logging.Handler):
    def __init__(self, patterns: dict, counts: dict):
        super().__init__()
        self.patterns = patterns
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        for prefix, names in self.patterns.items():
            if str(record.msg).startswith(prefix):
                for name, value in zip(names, record.args):
                    self.counts[name] += value


class Tracer:
    """Records spans and logged counts while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                    "name": name, "start": time.perf_counter()}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter()
            if attrs:
                span["attrs"] = attrs(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cli):
        """Patch the library functions ``cli`` calls; restore them on exit."""
        from bridgeness import community, graph

        targets = [(cli, "main", cli.main)]
        targets += [
            (cli, name, obj) for name, obj in vars(cli).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__.startswith("bridgeness.") and obj.__module__ != "bridgeness.cli"
        ]
        targets.append((community, "louvain_passes", community.louvain_passes))
        saved = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
        from_edges = vars(graph.Graph)["from_edges"]
        saved.append((graph.Graph, "from_edges", from_edges))
        handlers = []
        try:
            for owner, name, fn in targets:
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(owner, name, self._wrap(f"{layer}.{name}", fn))
            graph.Graph.from_edges = classmethod(
                self._wrap("graph.from_edges", from_edges.__func__))
            for logger_name, patterns in _LOGGED_COUNTS.items():
                handler = _CountHandler(patterns, self.counts)
                logging.getLogger(logger_name).addHandler(handler)
                handlers.append((logger_name, handler))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
            for logger_name, handler in handlers:
                logging.getLogger(logger_name).removeHandler(handler)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass through the timed commands.

    ``*_s`` metrics of a function are the summed durations of its spans,
    children included; ``<layer>.self_s`` excludes the time of spans of
    other functions called inside. Metrics that need the input graph or
    another run (levels swept, serial time) are added by the caller.
    """

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def attrs(name: str) -> list[dict]:
        return [s["attrs"] for s in spans if s["name"] == name]

    own = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[s["name"].split(".", 1)[0] + ".self_s"] += own[s["id"]]

    sweeps = [s for s in spans if s["name"] in SWEEPS]
    sweep_s = sum(s["end"] - s["start"] for s in sweeps)
    louvain = attrs("community.louvain_passes")
    loads = attrs("graph.load_edge_list")
    generated = attrs("netgen.generate")
    m.update({
        "centrality.sweep_s": sweep_s,
        "centrality.sweeps": len(sweeps),
        "centrality.sources_per_s": (
            sum(s["attrs"]["n"] for s in sweeps) / sweep_s if sweep_s else 0.0),
        "centrality.write_s": total("centrality.write_centrality_csv",
                                    "centrality.write_centrality_json"),
        "centrality.locterm_s": total("centrality.locterm_by_degree"),
        "netgen.generate_s": total("netgen.generate"),
        "netgen.dropped_stubs": counts.get("netgen.dropped_stubs", 0),
        "netgen.rewired_nodes": sum(a["rewired"] for a in generated),
        "graph.load_s": total("graph.load_edge_list"),
        "graph.csr_build_s": total("graph.from_edges"),
        "graph.load_partition_s": total("graph.load_partition"),
        "graph.write_s": total("graph.write_edge_list", "graph.write_partition"),
        "graph.edges": loads[0]["edges"] if loads else 0,
        "graph.dropped_self_loops": counts.get("graph.dropped_self_loops", 0),
        "graph.collapsed_duplicates": counts.get("graph.collapsed_duplicates", 0),
        "community.louvain_s": total("community.louvain"),
        "community.passes": sum(a["passes"] for a in louvain),
        "community.modularity": louvain[-1]["modularity"] if louvain else 0.0,
        "indicator.global_s": total("indicator.global_indicator"),
        # computed, not measured: size of the dense n x C bool touches matrix
        "indicator.touches_bytes": sum(
            a["n"] * a["communities"] for a in attrs("indicator.global_indicator")),
        "evaluation.curves_s": total("evaluation.cumulative_ratio_curve", "evaluation.smooth"),
        "evaluation.write_s": total("evaluation.write_curve_csv", "evaluation.write_node_report"),
    })
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-name median over several traced passes."""
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}
