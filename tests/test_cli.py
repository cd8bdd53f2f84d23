import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgeness
from bridgeness.centrality import default_workers
from bridgeness.cli import build_parser, main

from util import bridgeness_bruteforce, dense_indicator, edge_array, ladder_graph, small_lfr_graph


def test_worker_env_variable_is_not_read(tmp_path, monkeypatch):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    out = tmp_path / "s.csv"
    for value in ("abc", "1", "7"):
        monkeypatch.setenv("BRIDGENESS_WORKERS", value)
        assert main(["centrality", "--input", str(edges), "--output", str(out)]) == 0
        prov = json.loads((tmp_path / "s.csv.provenance.json").read_text())
        assert prov["config"]["workers"] == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_bad_workers_flag_exits_2(tmp_path, capsys, value):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    with pytest.raises(SystemExit) as err:
        main(["centrality", "--input", str(edges), "--output", str(tmp_path / "s.csv"),
              "--workers", value])
    assert err.value.code == 2
    assert "argument --workers" in capsys.readouterr().err


def test_default_workers_recorded_in_provenance(tmp_path, monkeypatch):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3})
    out = tmp_path / "s.csv"
    assert main(["centrality", "--input", str(edges), "--output", str(out)]) == 0
    prov = json.loads((tmp_path / "s.csv.provenance.json").read_text())
    assert prov["config"]["workers"] == 2


def test_default_workers_counts_usable_cores(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 16)
    assert default_workers() == 3
    monkeypatch.delattr("os.sched_getaffinity")
    assert default_workers() == 16

LFR_ARGS = ["--n", "150", "--communities", "4", "--mu", "0.15", "--seed", "9",
             "--min-degree", "6", "--max-degree", "20", "--mean-degree", "10"]


def write_small_graph(path):
    path.write_text("a b\nb c\nc d\nd e\ne a\nb d\nf a\n")


def write_small_partition(path):
    path.write_text("a,0\nb,0\nc,1\nd,1\ne,0\nf,0\n")


def test_centrality_command(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    out = tmp_path / "scores.csv"
    write_small_graph(edges)
    code = main(["centrality", "--input", str(edges), "--output", str(out),
                 "--workers", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,degree,bc,bridgeness,local"
    assert len(lines) == 7
    summary = capsys.readouterr().out
    assert "nodes: 6" in summary
    assert "edges: 7" in summary
    assert "max bc:" in summary
    prov = json.loads((tmp_path / "scores.csv.provenance.json").read_text())
    assert prov["command"] == "centrality"
    assert prov["inputs"]
    assert prov["version"]


def test_centrality_variants_agree_on_bc(tmp_path):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    outputs = {}
    for variant in ("exact", "si-compat"):
        out = tmp_path / f"{variant}.csv"
        assert main(["centrality", "--input", str(edges), "--output", str(out),
                     "--variant", variant, "--workers", "1"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        outputs[variant] = {r[0]: float(r[2]) for r in rows}
    with open(edges, encoding="utf-8") as fh:
        graph, table = bridgeness.load_edge_list(fh)
    oracle = bridgeness_bruteforce(graph).bc
    assert outputs["exact"] == pytest.approx(
        {table.id_of(v): oracle[v] for v in range(graph.node_count)})
    assert outputs["exact"] == pytest.approx(outputs["si-compat"])


def test_bruteforce_variant_is_gone(tmp_path):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    with pytest.raises(SystemExit) as err:
        main(["centrality", "--input", str(edges), "--output", str(tmp_path / "s.csv"),
              "--variant", "bruteforce"])
    assert err.value.code == 2


def test_public_names_resolve():
    for name in bridgeness.__all__:
        assert hasattr(bridgeness, name), name


def test_cli_import_loads_no_scipy(tmp_path):
    # two triangles joined by the path c-x-y-d, with leaves: degrees 2, 4 and 5 keep
    # bc > 0 and their local ratios differ, so evaluate runs the correlation
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\nc a\nd e\ne f\nf d\nc x\nx y\ny d\ng c\nh d\ni d\n")
    part = tmp_path / "p.csv"
    part.write_text("a,0\nb,0\nc,0\ng,0\nx,0\nd,1\ne,1\nf,1\nh,1\ni,1\ny,1\n")
    out = tmp_path / "eval"
    src = str(Path(bridgeness.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import bridgeness.cli; "
            f"print(sorted(sys.modules)); "
            f"bridgeness.cli.main(['evaluate', '--input', {str(edges)!r}, '--partition', "
            f"{str(part)!r}, '--output-dir', {str(out)!r}, '--workers', '1']); "
            f"print(sorted(sys.modules))")
    lines = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.splitlines()
    after_import, after_evaluate = lines[0], lines[-1]
    assert "'bridgeness.cli'" in after_import
    assert json.loads((out / "metrics.json").read_text())["locterm_pearson_r"] is not None
    for loaded in (after_import, after_evaluate):
        assert "'scipy" not in loaded


def test_single_worker_runs_load_no_process_pool(tmp_path):
    # a ring of 150 nodes with chords: three chunks of sources, so two
    # workers start a pool
    edges = tmp_path / "ring.edges"
    edges.write_text("".join(f"{v} {(v + 1) % 150}\n{v} {(v + 7) % 150}\n" for v in range(150)))
    src = str(Path(bridgeness.__file__).resolve().parents[1])
    runs = "; ".join(
        f"bridgeness.cli.main(['centrality', '--input', {str(edges)!r}, '--output', "
        f"{str(tmp_path / f'w{workers}.csv')!r}, '--workers', '{workers}']); "
        f"print('concurrent.futures.process' in sys.modules)" for workers in (1, 2))
    code = (f"import sys; sys.path.insert(0, {src!r}); import bridgeness.cli; "
            f"print('concurrent.futures.process' in sys.modules); {runs}")
    lines = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.splitlines()
    loaded = [line for line in lines if line in ("True", "False")]
    assert loaded == ["False", "False", "True"]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_evaluate_writes_null_correlation_for_constant_local_ratios(tmp_path):
    # hub 0 on the ring 1..11 with three chords: diameter 2, so every node with
    # bc > 0 carries only local pairs and every mean local ratio is exactly 1
    ring = [(0, v) for v in range(1, 12)] + [(v, v % 11 + 1) for v in range(1, 12)]
    edges = tmp_path / "hub.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in ring + [(1, 5), (1, 7), (2, 8)]))
    part = tmp_path / "hub.csv"
    part.write_text("".join(f"{v},{v % 2}\n" for v in range(12)))
    out = tmp_path / "eval"
    assert main(["evaluate", "--input", str(edges), "--partition", str(part),
                 "--output-dir", str(out), "--workers", "1"]) == 0
    ratios = (out / "locterm_by_degree.csv").read_text().splitlines()[1:]
    assert len(ratios) >= 3 and {row.split(",")[1] for row in ratios} == {"1"}

    def reject(token):
        raise ValueError(f"metrics.json is not strict JSON: {token}")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    assert metrics["locterm_pearson_r"] is None
    assert metrics["locterm_pearson_p"] is None


def test_zero_bridgeness_is_written_as_zero(tmp_path):
    # no pair has both ends outside a node's closed neighborhood; a residue
    # of bc - local here once gave local ratios 1, 1 and 1 - 2**-53, and r = -0.707
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\nc d\nd e\ne a\nb d\nf a\nf g\ng c\nh b\n")
    part = tmp_path / "p.csv"
    part.write_text("a,0\nb,0\nc,0\nd,0\ne,0\nf,1\ng,1\nh,1\n")
    scores = tmp_path / "scores.csv"
    assert main(["centrality", "--input", str(edges), "--output", str(scores),
                 "--workers", "1"]) == 0
    rows = [line.split(",") for line in scores.read_text().splitlines()[1:]]
    assert len(rows) == 8 and {row[3] for row in rows} == {"0"}
    assert any(float(row[2]) > 0 for row in rows)
    out = tmp_path / "eval"
    assert main(["evaluate", "--input", str(edges), "--partition", str(part),
                 "--output-dir", str(out), "--workers", "1"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["locterm_pearson_r"] is None
    assert metrics["locterm_pearson_p"] is None


@pytest.mark.parametrize("command", ["centrality", "evaluate", "report"])
def test_overflowing_path_counts_exit_1(tmp_path, capsys, command):
    ladder = ladder_graph(660, 3)  # 3**d shortest paths overflow float64 past d = 646
    edges = tmp_path / "ladder.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in edge_array(ladder).tolist()))
    part = tmp_path / "ladder.csv"
    part.write_text("".join(f"{v},{v // 990}\n" for v in range(ladder.node_count)))
    out = tmp_path / "out"
    argv = {
        "centrality": ["--output", str(out)],
        "evaluate": ["--partition", str(part), "--output-dir", str(out)],
        "report": ["--partition", str(part), "--output", str(out)],
    }[command]
    assert main([command, "--input", str(edges), *argv, "--workers", "1"]) == 1
    assert "error: shortest-path counts from node 0 overflow float64" in capsys.readouterr().err
    assert not out.exists()


def test_centrality_json_records(tmp_path):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    out_json = tmp_path / "scores.json"
    assert main(["centrality", "--input", str(edges), "--output", str(tmp_path / "s.csv"),
                 "--json", str(out_json), "--workers", "1"]) == 0
    records = json.loads(out_json.read_text())
    assert len(records) == 6


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["centrality", "--frobnicate"])
    assert err.value.code == 2


def test_missing_input_exits_1(tmp_path):
    code = main(["centrality", "--input", str(tmp_path / "nope.edges"),
                 "--output", str(tmp_path / "out.csv")])
    assert code == 1


def test_malformed_input_exits_1(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("a\n")
    assert main(["centrality", "--input", str(bad),
                 "--output", str(tmp_path / "out.csv")]) == 1


@pytest.mark.parametrize("text, line, node_id", [
    ("x,1 y\ny z\nz x,1\nz w\n", 1, "x,1"),
    ("1 2\n2 3\n3 1\n3 #4\n", 4, "#4"),
], ids=["comma", "leading-hash"])
@pytest.mark.parametrize("command", ["centrality", "communities"])
def test_node_ids_the_csv_outputs_cannot_hold_exit_1(tmp_path, capsys, text, line, node_id,
                                                      command):
    edges = tmp_path / "g.edges"
    edges.write_text(text)
    extra = ["--seed", "1"] if command == "communities" else []
    code = main([command, "--input", str(edges), "--output", str(tmp_path / "out.csv"), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"line {line}: node ID {node_id!r}" in err
    assert not (tmp_path / "out.csv").exists()


def test_generate_writes_files_and_is_reproducible(tmp_path, capsys):
    prefix = tmp_path / "net"
    args = ["generate", *LFR_ARGS, "--output-prefix", str(prefix)]
    assert main(args) == 0
    edges = (tmp_path / "net.edges").read_bytes()
    comms = (tmp_path / "net.communities.csv").read_bytes()
    prov = (tmp_path / "net.provenance.json").read_bytes()
    meta = json.loads(prov)
    assert meta["achieved_mu"] >= 0.15
    assert meta["config"]["seed"] == 9
    assert meta["dropped_stubs"] == 0
    assert meta["rewire_attempts"] >= meta["rewired_node_count"] > 0
    assert isinstance(meta["target_rejections"], int)
    out = capsys.readouterr().out
    assert "achieved_mu" in out
    # byte-identical rerun
    assert main(args) == 0
    assert (tmp_path / "net.edges").read_bytes() == edges
    assert (tmp_path / "net.communities.csv").read_bytes() == comms
    assert (tmp_path / "net.provenance.json").read_bytes() == prov  # counters repeat


def test_generate_dotted_prefixes_keep_their_own_files(tmp_path, capsys):
    # the suffixes are appended to the prefix's name, so lfr_mu0.2 and
    # lfr_mu0.3 do not both write lfr_mu0.edges
    out_dir = tmp_path / "o"
    names = ("edges", "communities.csv", "provenance.json")
    for mu in ("0.2", "0.3"):
        args = [a if a != "0.15" else mu for a in LFR_ARGS]
        assert main(["generate", *args, "--output-prefix", str(out_dir / f"lfr_mu{mu}")]) == 0
        assert f"wrote {out_dir / f'lfr_mu{mu}.edges'} (" in capsys.readouterr().out
    files = sorted(path.name for path in out_dir.iterdir())
    assert files == sorted(f"lfr_mu{mu}.{name}" for mu in ("0.2", "0.3") for name in names)
    for mu in ("0.2", "0.3"):
        meta = json.loads((out_dir / f"lfr_mu{mu}.provenance.json").read_text())
        assert meta["config"]["mu"] == float(mu)
    assert (out_dir / "lfr_mu0.2.edges").read_bytes() != (out_dir / "lfr_mu0.3.edges").read_bytes()


SEED_RUNS = {
    "communities": ["--input", "{d}/g.edges", "--output", "{d}/louvain.csv"],
    "generate": ["--n", "150", "--communities", "4", "--mu", "0.15", "--min-degree", "6",
                 "--max-degree", "20", "--mean-degree", "10", "--output-prefix", "{d}/net"],
}


@pytest.mark.parametrize("seed", ["-1", "-5", "x"])
@pytest.mark.parametrize("command", sorted(SEED_RUNS))
def test_seed_that_is_not_a_non_negative_integer_exits_2(tmp_path, capsys, command, seed):
    write_small_graph(tmp_path / "g.edges")
    argv = [command, *(arg.format(d=tmp_path) for arg in SEED_RUNS[command]), "--seed", seed]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err_text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges"]


@pytest.mark.parametrize("command", sorted(SEED_RUNS))
def test_seed_past_uint64_is_taken(tmp_path, command):
    write_small_graph(tmp_path / "g.edges")
    argv = [command, *(arg.format(d=tmp_path) for arg in SEED_RUNS[command]), "--seed", str(2**64)]
    assert main(argv) == 0
    prov = next(tmp_path.glob("*provenance.json"))
    assert json.loads(prov.read_text())["config"]["seed"] == 2**64


def test_generate_degenerate_config_exits_1(tmp_path, capsys):
    code = main(["generate", "--n", "4", "--communities", "2", "--mu", "0.99",
                 "--seed", "1", "--output-prefix", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_generate_one_community_with_mixing_exits_1(tmp_path, capsys):
    # rejected up front: every rewiring target would share the kept node's
    # community, so the rewiring ran its full attempt budget (minutes) first
    args = ["generate", "--n", "2000", "--communities", "1", "--seed", "1"]
    code = main([*args, "--mu", "0.5", "--output-prefix", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: generation failed: mu > 0 needs at least 2 communities"]
    assert not (tmp_path / "x.edges").exists()
    assert main([*args, "--mu", "0", "--output-prefix", str(tmp_path / "y")]) == 0
    assert (tmp_path / "y.edges").exists()


@pytest.mark.parametrize("prefix", [".", ""])
def test_generate_prefix_without_a_name_exits_1_before_writing(
        tmp_path, monkeypatch, capsys, prefix):
    # "." used to fail in Path.with_name with a traceback once the network was built
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *LFR_ARGS, "--output-prefix", prefix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --output-prefix {prefix!r} names no file"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-3", "0", "nan"])
def test_generate_bad_mean_degree_exits_1(tmp_path, capsys, value):
    code = main(["generate", *LFR_ARGS, "--mean-degree", value,
                 "--output-prefix", str(tmp_path / "x")])
    assert code == 1
    assert "error: generation failed" in capsys.readouterr().err
    assert not (tmp_path / "x.edges").exists()


@pytest.mark.parametrize("value", ["nan", "1", "0.5"])
def test_generate_bad_exponent_exits_1(tmp_path, capsys, value):
    code = main(["generate", *LFR_ARGS, "--exponent", value,
                 "--output-prefix", str(tmp_path / "x")])
    assert code == 1
    assert "error: generation failed: exponent must be > 1" in capsys.readouterr().err
    assert not (tmp_path / "x.edges").exists()


def test_lfr_config_fields_are_the_generate_options():
    # a generator knob without a CLI flag is public API no pipeline reads
    args = build_parser().parse_args(["generate", *LFR_ARGS, "--output-prefix", "x"])
    options = set(vars(args)) - {"command", "func", "output_prefix"}
    assert options == {f.name for f in dataclasses.fields(bridgeness.LfrConfig)}


def test_generated_files_feed_other_commands(tmp_path):
    prefix = tmp_path / "net"
    assert main(["generate", *LFR_ARGS, "--output-prefix", str(prefix)]) == 0
    edges = str(tmp_path / "net.edges")
    partition = str(tmp_path / "net.communities.csv")

    out = tmp_path / "indicator.csv"
    assert main(["indicator", "--input", edges, "--partition", partition,
                 "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "node_id,community,G"

    report = tmp_path / "report.csv"
    assert main(["report", "--input", edges, "--partition", partition,
                 "--output", str(report), "--workers", "1"]) == 0
    header, *rows = report.read_text().splitlines()
    assert header == "node_id,G,community,bc,bridgeness,degree"
    bc_col = [float(r.split(",")[3]) for r in rows]
    assert bc_col == sorted(bc_col, reverse=True)


def test_communities_command_roundtrip(tmp_path, capsys):
    prefix = tmp_path / "net"
    assert main(["generate", *LFR_ARGS, "--output-prefix", str(prefix)]) == 0
    out = tmp_path / "louvain.csv"
    args = ["communities", "--input", str(tmp_path / "net.edges"), "--seed", "3",
            "--output", str(out)]
    assert main(args) == 0
    assert "communities:" in capsys.readouterr().out
    first = out.read_bytes()
    provenance = Path(f"{out}.provenance.json")
    first_provenance = provenance.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # same seed, same partition
    assert provenance.read_bytes() == first_provenance  # the counters are deterministic
    record = json.loads(first_provenance)
    moves, evaluations = record["louvain_moves"], record["louvain_evaluations"]
    assert [len(sweeps) for sweeps in moves] == [len(sweeps) for sweeps in evaluations]
    assert evaluations[0][0] == 150 and all(sweeps[-1] == 0 for sweeps in moves)


@pytest.mark.parametrize("flags", [["--max-passes", "0"], ["--min-gain", "0"],
                                   ["--min-gain", "nan"]], ids=" ".join)
def test_communities_bad_config_exits_1(tmp_path, capsys, flags):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    code = main(["communities", "--input", str(edges), "--seed", "1",
                 "--output", str(tmp_path / "p.csv"), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_with_partition(tmp_path, capsys):
    prefix = tmp_path / "net"
    assert main(["generate", *LFR_ARGS, "--output-prefix", str(prefix)]) == 0
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--input", str(tmp_path / "net.edges"),
                 "--partition", str(tmp_path / "net.communities.csv"),
                 "--output-dir", str(out_dir), "--workers", "1"]) == 0
    for name in ("g_scores.csv", "curve_g.csv", "curve_bc.csv", "curve_bridgeness.csv",
                 "curve_bc_smoothed.csv", "curve_bridgeness_smoothed.csv",
                 "locterm_by_degree.csv", "metrics.json", "provenance.json"):
        assert (out_dir / name).exists(), name
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "curve_advantage_bridgeness_vs_bc" in metrics
    assert "curve_advantage" in capsys.readouterr().out
    # self-ranking curve is identically 1
    g_curve = [float(l.split(",")[1]) for l in (out_dir / "curve_g.csv").read_text().splitlines()[1:]]
    assert all(abs(y - 1.0) < 1e-12 for y in g_curve)


def test_evaluate_requires_some_partition(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    write_small_graph(edges)
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--input", str(edges), "--output-dir", str(tmp_path / "eval")])
    assert err.value.code == 2
    assert "--partition" in capsys.readouterr().err


def test_evaluate_window_below_1_exits_2(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    part = tmp_path / "p.csv"
    write_small_graph(edges)
    write_small_partition(part)
    with pytest.raises(SystemExit) as err:
        main(["evaluate", "--input", str(edges), "--partition", str(part), "--window", "0",
              "--output-dir", str(tmp_path / "eval"), "--workers", "1"])
    assert err.value.code == 2
    assert "argument --window" in capsys.readouterr().err


def test_evaluate_window_past_int64_exits_0(tmp_path):
    edges = tmp_path / "g.edges"
    part = tmp_path / "p.csv"
    write_small_graph(edges)
    write_small_partition(part)
    out_dir = tmp_path / "eval"
    assert main(["evaluate", "--input", str(edges), "--partition", str(part),
                 "--window", str(2**63), "--output-dir", str(out_dir), "--workers", "1"]) == 0
    meta = json.loads((out_dir / "curve_bc_smoothed.csv.meta.json").read_text())
    assert meta["window"] == 2**63


EMPTY_GRAPH_RUNS = {
    "centrality": ["--output", "{d}/c.csv", "--workers", "1"],
    "indicator": ["--partition", "{d}/p.csv", "--output", "{d}/g.csv"],
    "communities": ["--seed", "1", "--output", "{d}/louvain.csv"],
    "evaluate": ["--partition", "{d}/p.csv", "--output-dir", "{d}/eval", "--workers", "1"],
    "report": ["--partition", "{d}/p.csv", "--output", "{d}/r.csv", "--workers", "1"],
}


def test_empty_graph_runs_cover_every_input_command():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    reading = {name for name, sub in commands.choices.items()
               if any(action.dest == "input" for action in sub._actions)}
    assert reading == set(EMPTY_GRAPH_RUNS)
    assert set(commands.choices) - reading == {"generate"}  # reads no edge list


@pytest.mark.parametrize("run", sorted(EMPTY_GRAPH_RUNS))
def test_every_command_takes_an_empty_edge_list(tmp_path, capsys, run):
    (tmp_path / "g.edges").write_text("")
    (tmp_path / "p.csv").write_text("")
    argv = [run, "--input", str(tmp_path / "g.edges"),
            *(arg.format(d=tmp_path) for arg in EMPTY_GRAPH_RUNS[run])]
    code = main(argv)  # an uncaught exception fails the test
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_indicator_command_comma_delimited(tmp_path):
    edges = tmp_path / "g.csv"
    edges.write_text("a,b\nb,c\nc,a\nd,e\ne,f\nf,d\nc,d\n")
    part = tmp_path / "p.csv"
    part.write_text("a,L\nb,L\nc,L\nd,R\ne,R\nf,R\n")
    out = tmp_path / "ind.csv"
    assert main(["indicator", "--input", str(edges), "--delimiter", "comma",
                 "--partition", str(part), "--output", str(out)]) == 0
    rows = {line.split(",")[0]: float(line.split(",")[2])
            for line in out.read_text().splitlines()[1:]}
    assert rows["c"] == 1.0
    assert rows["a"] == 0.0


def test_indicator_command_with_every_node_its_own_community(tmp_path):
    graph = small_lfr_graph()
    table = bridgeness.NodeTable.identity(graph.node_count)
    edges = tmp_path / "g.edges"
    with edges.open("w") as fh:
        bridgeness.write_edge_list(graph, table, fh)
    part = tmp_path / "p.csv"
    part.write_text("".join(f"{v},c{v}\n" for v in range(graph.node_count)))
    out = tmp_path / "g.csv"
    assert main(["indicator", "--input", str(edges), "--partition", str(part),
                 "--output", str(out)]) == 0
    with edges.open() as fh:
        loaded, loaded_table = bridgeness.load_edge_list(fh)
    with part.open() as fh:
        partition = bridgeness.load_partition(fh, loaded_table)
    assert partition.community_count == graph.node_count
    expected = dense_indicator(loaded, partition)
    assert out.read_text().splitlines()[1:] == [
        f"{loaded_table.id_of(v)},{v},{expected[v]:.12g}" for v in range(loaded.node_count)]
