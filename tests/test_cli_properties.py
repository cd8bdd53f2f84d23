"""Property test of every subcommand, run in-process on messy inputs.

Edge lists and partitions are drawn from a small ID alphabet with leading
zeros, non-ASCII characters and IDs the outputs cannot hold (``,`` inside,
``#`` in front), with comment, blank and malformed lines, duplicates,
self-loops, unknown and missing partition entries. Some graphs carry a ring
of more than 64 nodes, so that ``--workers 2`` starts the process pool
(a graph of at most 64 nodes is one chunk of sources and runs serially).
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bridgeness import load_edge_list, load_partition
from bridgeness.cli import main

CLEAN = ["0", "00", "01", "1", "7", "a", "Z", "x#y", "é", "节", "Øß"]
MESSY = ["a,b", "#x", ",", "#"]
node_ids = st.sampled_from(CLEAN * 6 + MESSY)
labels = st.sampled_from(["0", "1", "01", "c", "é"])
JUNK = ["", "   ", "# comment", "x", "a b c", "#a b"]
RING = 70  # ring nodes: more than one 64-source chunk


@st.composite
def inputs(draw):
    """(delimiter, edge-list text, partition text)."""
    delimiter = draw(st.sampled_from(["whitespace", "comma"]))
    sep = draw(st.sampled_from([" ", "\t", "  "])) if delimiter == "whitespace" else ", "
    pairs = draw(st.lists(st.tuples(node_ids, node_ids), max_size=20))
    if draw(st.integers(0, 2)) == 0:
        ring = [f"0{i}" for i in range(RING)]
        pairs += list(zip(ring, ring[1:] + ring[:1]))
        pairs.append((ring[0], pairs[0][0]))
    lines = [f"{u}{sep}{v}" for u, v in pairs]
    for junk in draw(st.lists(st.sampled_from(JUNK), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    ids = list(dict.fromkeys(node for pair in pairs for node in pair))
    assigned = draw(st.lists(labels, min_size=len(ids), max_size=len(ids)))
    rows = [f"{node},{label}" for node, label in zip(ids, assigned)]
    mess = draw(st.sampled_from(["none"] * 5 + ["drop", "unknown", "duplicate", "comment"]))
    if mess == "drop" and rows:
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif mess == "unknown":
        rows.append("nobody,0")
    elif mess == "duplicate" and rows:
        rows.append(rows[0])
    elif mess == "comment":
        rows.insert(0, "# node,community")
    return delimiter, "\n".join(lines) + "\n", "\n".join(rows) + "\n"


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an option
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def runs(root, delimiter, workers, window, sort_by, variant):
    """Every input-reading subcommand on ``root``'s inputs, writing under
    ``root/w<workers>``."""
    common = ["--input", f"{root}/g.edges", "--delimiter", delimiter]
    partition, out = f"{root}/p.csv", f"{root}/w{workers}"
    return {
        "centrality": ["centrality", *common, "--variant", variant, "--workers", workers,
                       "--output", f"{out}/c.csv", "--json", f"{out}/c.json"],
        "indicator": ["indicator", *common, "--partition", partition, "--output", f"{out}/g.csv"],
        "communities": ["communities", *common, "--seed", "3", "--output", f"{out}/louvain.csv"],
        "evaluate": ["evaluate", *common, "--partition", partition, "--window", window,
                     "--workers", workers, "--output-dir", f"{out}/eval"],
        "report": ["report", *common, "--partition", partition, "--sort-by", sort_by,
                   "--workers", workers, "--output", f"{out}/r.csv"],
    }


def check_run(code, err):
    assert code in (0, 1, 2)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 1:
        assert len(errors) == 1 and err.endswith(errors[0] + "\n")
    else:
        assert not errors
    assert "Traceback" not in err


def no_nan(text):
    raise AssertionError(f"{text} in a JSON output")


def check_outputs(root: Path):
    for path in filter(Path.is_file, root.rglob("*")):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=no_nan)
        elif path.suffix == ".csv":
            rows = [line.split(",") for line in text.splitlines()]
            for row in rows:
                assert len(row) == len(rows[0]), (path.name, row)
                for field in row:
                    try:
                        assert math.isfinite(float(field)), (path.name, row)
                    except ValueError:
                        pass  # a node ID or a header name


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs(), st.sampled_from(["1", "3", "200", "0"]), st.sampled_from(
    ["node_id", "G", "community", "bc", "bridgeness", "degree"]),
    st.sampled_from(["exact", "si-compat"]))
def test_every_subcommand_on_messy_inputs(drawn, window, sort_by, variant):
    delimiter, edges, partition = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "g.edges").write_text(edges, encoding="utf-8")
        (root / "p.csv").write_text(partition, encoding="utf-8")
        results = {}
        for workers in ("1", "2"):
            (root / f"w{workers}").mkdir()
            for name, argv in runs(root, delimiter, workers, window, sort_by, variant).items():
                results[workers, name] = result = run(argv)
                check_run(result[0], result[2])
        for workers in ("1", "2"):
            check_outputs(root / f"w{workers}")
        for name in ("centrality", "indicator", "communities", "evaluate", "report"):
            assert results["1", name] == results["2", name]
        w1 = {p.relative_to(root / "w1"): p.read_bytes() for p in (root / "w1").rglob("*.*")
              if "provenance" not in p.name}
        w2 = {p.relative_to(root / "w2"): p.read_bytes() for p in (root / "w2").rglob("*.*")
              if "provenance" not in p.name}
        assert w1 == w2
        if results["1", "communities"][0] == 0:
            with open(root / "g.edges", encoding="utf-8") as fh:
                graph, table = load_edge_list(fh, delimiter=None if delimiter == "whitespace"
                                              else ",")
            with open(root / "w1" / "louvain.csv", encoding="utf-8") as fh:
                assert len(load_partition(fh, table)) == graph.node_count


@settings(max_examples=30, deadline=None, derandomize=True)
@example(n=40, communities=2, mu="0.1", lo=1, hi=4, selection="node")  # reaches degree-1 far ends
@given(st.integers(40, 120), st.integers(0, 5), st.sampled_from(["0", "0.1", "0.3", "1.5"]),
       st.integers(1, 8), st.integers(4, 20), st.sampled_from(["node", "link"]))
def test_generate_writes_loadable_files_or_exits_1(n, communities, mu, lo, hi, selection):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, _, err = run(["generate", "--n", str(n), "--communities", str(communities),
                            "--mu", mu, "--seed", "5", "--min-degree", str(lo),
                            "--max-degree", str(hi), "--mean-degree", str((lo + hi) / 2),
                            "--selection", selection, "--output-prefix", f"{root}/net"])
        check_run(code, err)
        check_outputs(root)
        if code == 0:
            with open(root / "net.edges", encoding="utf-8") as fh:
                graph, table = load_edge_list(fh)
            with open(root / "net.communities.csv", encoding="utf-8") as fh:
                assert len(load_partition(fh, table)) == graph.node_count
