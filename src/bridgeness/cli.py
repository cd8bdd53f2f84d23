"""Batch command-line frontend.

Subcommands wire ingestion, generation, centrality, the community indicator,
community detection and the ranking evaluation into reproducible file-in /
file-out pipelines. Every run writes a provenance JSON (inputs hash, config,
seed, tool version) next to its outputs; outputs contain no timestamps, so a
repeated command reproduces its files byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .centrality import (
    bridgeness_exact,
    bridgeness_si_compat,
    default_workers,
    locterm_by_degree,
    write_centrality_csv,
    write_centrality_json,
)
from .community import LouvainConfig, louvain_passes
from .evaluation import (
    cumulative_ratio_curve,
    curve_advantage,
    locterm_correlation,
    report_columns,
    smooth,
    write_curve_csv,
    write_node_report,
)
from .graph import (
    EdgeListError,
    NodeTable,
    PartitionError,
    load_edge_list,
    load_partition,
    write_edge_list,
    write_partition,
    write_rows,
)
from .indicator import global_indicator, write_indicator_csv
from .netgen import GenerationError, LfrConfig, generate

_DELIMITERS = {"whitespace": None, "comma": ","}


class CliError(Exception):
    """User-facing failure; message goes to stderr and the exit code is 1."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_provenance(path: Path, args: argparse.Namespace, extra: dict | None = None) -> None:
    inputs = [Path(getattr(args, name)) for name in ("input", "partition") if hasattr(args, name)]
    record = {
        "tool": "bridgeness",
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    if extra:
        record.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read(path: str, what: str, parse):
    """``parse`` of the open file at ``path``; read and parse errors become CliError."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc
    except (EdgeListError, PartitionError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_graph(args: argparse.Namespace):
    return _read(args.input, "edge list",
                 lambda fh: load_edge_list(fh, delimiter=_DELIMITERS[args.delimiter]))


def _load_indicator(args: argparse.Namespace):
    """The graph, its node table, the partition and the partition's G scores."""
    graph, table = _load_graph(args)
    partition = _read(args.partition, "partition", lambda fh: load_partition(fh, table))
    return graph, table, partition, global_indicator(graph, partition)


def cmd_centrality(args: argparse.Namespace) -> int:
    graph, table = _load_graph(args)
    compute = bridgeness_si_compat if args.variant == "si-compat" else bridgeness_exact
    result = compute(graph, workers=args.workers)
    out = Path(args.output)
    with open(out, "w", encoding="utf-8") as fh:
        write_centrality_csv(result, graph, fh, table)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            write_centrality_json(result, graph, fh, table)
    _write_provenance(out.with_suffix(out.suffix + ".provenance.json"), args)
    top_bc = int(result.bc.argmax()) if graph.node_count else -1
    top_bri = int(result.bridgeness.argmax()) if graph.node_count else -1
    print(f"nodes: {graph.node_count}")
    print(f"edges: {graph.edge_count}")
    if graph.node_count:
        print(f"max bc: {table.id_of(top_bc)} ({result.bc[top_bc]:.6g})")
        print(f"max bridgeness: {table.id_of(top_bri)} ({result.bridgeness[top_bri]:.6g})")
    return 0


def cmd_indicator(args: argparse.Namespace) -> int:
    graph, table, partition, g = _load_indicator(args)
    out = Path(args.output)
    with open(out, "w", encoding="utf-8") as fh:
        write_indicator_csv(g, partition, fh, table)
    _write_provenance(out.with_suffix(out.suffix + ".provenance.json"), args)
    return 0


def cmd_communities(args: argparse.Namespace) -> int:
    graph, table = _load_graph(args)
    try:
        run = louvain_passes(graph, LouvainConfig(seed=args.seed, max_passes=args.max_passes,
                                                  min_gain=args.min_gain))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    partition = run.partition
    out = Path(args.output)
    with open(out, "w", encoding="utf-8") as fh:
        write_partition(partition, table, fh)
    _write_provenance(out.with_suffix(out.suffix + ".provenance.json"), args,
                      extra={"louvain_moves": run.moves, "louvain_evaluations": run.evaluations})
    print(f"communities: {partition.community_count}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    prefix = Path(args.output_prefix)
    if not prefix.name:
        raise CliError(f"--output-prefix {args.output_prefix!r} names no file")
    try:
        net = generate(LfrConfig(**{f.name: getattr(args, f.name) for f in fields(LfrConfig)}))
    except (ValueError, GenerationError) as exc:
        raise CliError(f"generation failed: {exc}") from exc

    prefix.parent.mkdir(parents=True, exist_ok=True)
    table = NodeTable.identity(net.graph.node_count)
    # appended to the prefix's name, so a dotted prefix keeps its every part
    edges_path, partition_path, provenance_path = (
        prefix.with_name(prefix.name + suffix)
        for suffix in (".edges", ".communities.csv", ".provenance.json"))
    with open(edges_path, "w", encoding="utf-8") as fh:
        write_edge_list(net.graph, table, fh)
    with open(partition_path, "w", encoding="utf-8") as fh:
        write_partition(net.ground_truth, table, fh)
    _write_provenance(provenance_path, args, extra={
        "achieved_mu": net.achieved_mu,
        "dropped_stubs": net.dropped_stubs,
        "edge_count": net.graph.edge_count,
        "rewire_attempts": net.rewire_attempts,
        "rewired_node_count": len(net.rewired_nodes),
        "target_rejections": net.target_rejections,
    })
    print(f"wrote {edges_path} ({net.graph.edge_count} edges)")
    print(f"wrote {partition_path} ({net.ground_truth.community_count} communities)")
    print(f"achieved_mu: {net.achieved_mu:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    graph, table, partition, g = _load_indicator(args)
    result = bridgeness_exact(graph, workers=args.workers)
    try:
        curves = {
            "g": cumulative_ratio_curve(g, g, name="g"),
            "bc": cumulative_ratio_curve(g, result.bc, name="bc"),
            "bridgeness": cumulative_ratio_curve(g, result.bridgeness, name="bridgeness"),
        }
    except ValueError as exc:
        raise CliError(f"cannot rank: {exc}") from exc

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "g_scores.csv", "w", encoding="utf-8") as fh:
        write_indicator_csv(g, partition, fh, table)
    for name, curve in curves.items():
        write_curve_csv(curve, str(out_dir / f"curve_{name}.csv"))
        write_curve_csv(smooth(curve, args.window), str(out_dir / f"curve_{name}_smoothed.csv"))

    locterm = locterm_by_degree(result, graph)
    with open(out_dir / "locterm_by_degree.csv", "w", encoding="utf-8") as fh:
        write_rows(fh, "degree,mean_local_ratio\n", "%d,%.12g\n", *zip(*sorted(locterm.items())))

    advantage = curve_advantage(curves["bridgeness"], curves["bc"])
    metrics = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "communities": partition.community_count,
        "curve_advantage_bridgeness_vs_bc": advantage,
        "locterm_pearson_r": None,
        "locterm_pearson_p": None,
    }
    try:  # null below three degrees or for constant ratios, where r is undefined
        metrics["locterm_pearson_r"], metrics["locterm_pearson_p"] = locterm_correlation([locterm])
    except ValueError:
        pass
    with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_provenance(out_dir / "provenance.json", args)
    print(f"curve_advantage(bridgeness, bc): {advantage:.6g}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    graph, table, partition, g = _load_indicator(args)
    result = bridgeness_exact(graph, workers=args.workers)
    columns = report_columns(graph, partition, result, g, table=table,
                             sort_by=args.sort_by, descending=not args.ascending)
    out = Path(args.output)
    with open(out, "w", encoding="utf-8") as fh:
        write_node_report(columns, fh)
    _write_provenance(out.with_suffix(out.suffix + ".provenance.json"), args)
    return 0


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="edge-list file")
    parser.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="whitespace")


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=default_workers(),
                        help="sweep processes (default: the cores this process may use)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgeness",
        description="Bridgeness centrality and community-bridge analysis",
    )
    parser.add_argument("--version", action="version", version=f"bridgeness {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="betweenness / bridgeness / local scores")
    _add_graph_input(p)
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--json", help="optional JSON records output path")
    p.add_argument("--variant", choices=["exact", "si-compat"], default="exact")
    _add_workers(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("indicator", help="community-based global bridging scores")
    _add_graph_input(p)
    p.add_argument("--partition", required=True, help="node_id,community CSV")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("communities", help="Louvain modularity partition")
    _add_graph_input(p)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--max-passes", type=int, default=20)
    p.add_argument("--min-gain", type=float, default=1e-7)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("generate", help="synthetic community network with planted partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--mean-degree", type=float, default=15.0)
    p.add_argument("--exponent", type=float, default=2.5)
    p.add_argument("--min-degree", type=int, default=12)
    p.add_argument("--max-degree", type=int, default=50)
    p.add_argument("--selection", choices=["node", "link"], default="node")
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="ranking curves against the community indicator")
    _add_graph_input(p)
    p.add_argument("--partition", required=True, help="node_id,community CSV")
    p.add_argument("--window", type=_positive_int, default=200)
    _add_workers(p)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="per-node table: id, G, community, bc, bridgeness, degree")
    _add_graph_input(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sort-by", default="bc",
                   choices=["node_id", "G", "community", "bc", "bridgeness", "degree"])
    p.add_argument("--ascending", action="store_true")
    _add_workers(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
