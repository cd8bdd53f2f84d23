"""Golden regression digests of the engine accumulators, generator and CLI outputs.

The SHA-256 digests below pin the ordered accumulators ``bc``, ``l1`` and
``bri`` bit for bit, and the ``centrality`` CSV bytes, so a change to the
engine that reorders a floating-point sum fails here even when it stays
within every tolerance of the oracle tests. Each sweep sums ``bc`` and one
more term: ``bc`` and ``bri`` are taken from the exact sweep, ``l1`` from
the si-compat sweep, and both sweeps must give the same ``bc`` bits. All
three were recorded from engines whose one sweep summed all three. The
``bc`` and ``l1`` digests were recorded from the per-source Brandes engine
that the block engine replaced; the ``lfr1200`` ones from the block engine
whose forward pass was a sparse matrix product, at 18 sources per block
with a 10-wide tail block in each chunk. The ``bri`` digests were recorded from the first engine that
summed bridgeness directly in the backward pass, and the si-compat CSV
digest of the grid from the engine before it, which formed ``si`` from the
same ``bc`` and ``l1``. The same digests must come out at any block width,
piece size and slot-table row width, whichever direction, top-down or
bottom-up, each BFS level is reached from, and whichever way each next
frontier is found: from the level's kept cells or by a scan of the block.
The ``DEEP`` digests, of a path and a ladder thousands of levels deep, were
recorded from the engine that found every next frontier by the scan.

The generator digests were recorded from the rewiring phase that drew each
degree-proportional target with ``rng.choice(n, p=degrees / degrees.sum())``.
They pin the edges, labels, rewired set and ``achieved_mu`` of ``generate``
for both ``selection`` modes, so a faster sampler must consume the same
random stream and pick the same nodes. The test ids keep the
wiring-target-selection names the digests were recorded under.

The Louvain, edge-list and pipeline digests were recorded from the
per-element implementations of the parser, the CSR build and the Louvain
level graph. They pin the Louvain labels and the ``repr`` of every pass's
modularity, the node table and CSR arrays of a messy edge list, and the
bytes ``generate``, ``communities`` and ``indicator`` write at n=1000.

The ``report`` digests were recorded from the writer that built one dict
per node and sorted the dicts with Python's stable sort, so ties keep node
order under either direction.

The ``evaluate`` digests were recorded from ``evaluate --detect louvain
--seed 3``, which detected the partition itself; ``communities --seed 3``
followed by ``evaluate --partition`` replaced it and must write the same
bytes in every file but the provenance.

The provenance digests and error texts were recorded from the frontend
whose every command passed its own name and input list to the provenance
writer and read each input file through its own handler.
"""
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from bridgeness import Graph, LfrConfig, LouvainConfig, generate, load_edge_list, louvain_passes
from bridgeness import centrality
from bridgeness.centrality import _brandes_accumulate
from bridgeness.cli import main
from bridgeness.evaluation import REPORT_COLUMNS

from util import (
    FRONTIERS, edge_array, force, grid_graph, ladder_graph, path_graph, small_lfr_graph,
    star_graph,
)

GOLDEN = {  # ordered bc, l1, bri
    "grid30": (
        "9d4cff5fba19589a7d0884ded598df41a91ce045742044c4401c7e689437fcf5",
        "925c8e256dfd45c2b971559e6c9a7f24d474ac5a9a380414102c759f4bbfca5e",
        "90803a7795bc42f505f6b203e4124224878e4089ae7e92ad3a05b1ea485c4c13",
    ),
    "lfr1200": (
        "369150c68d1cb8a3f79c5bd6a2f6b69173fa8f4ee45e71ca04caef82c1bb3d77",
        "b3a3797241b2705610ff7d63dabde9cb2d13b46b2b63f7fe5e3cab34dd419d63",
        "27e4d32fc5bf81a2f478f0b684a1a0b43a0f7766ae8c34e37456e23baa16b8e7",
    ),
    "lfr300": (
        "0833b55612233aa53ea4488cab65d1be2472f3b1864211d03e997eafd4c37bf1",
        "3d3bc8bf427bc7f3a29fcf2a00e37586c8e28682335247fdda32232df76d3113",
        "f9b75e7757f57e2c3add58711cfdd871fe0081c9b1fa945ec4a5a619ba098017",
    ),
    "star50": (
        "5b553b4a4051769bd8b25b60013e39f879e63d97c25f74f7277c372f110765b5",
        "5b553b4a4051769bd8b25b60013e39f879e63d97c25f74f7277c372f110765b5",
        "c76903cde8580d1c809ac5352aab33af5a310ad05126294d66e06db880c463ed",
    ),
    "disconnected": (
        "75e99c2877a9fd508e97842c6c5cd13f30a213c0f49bd22d1430189142581fab",
        "ccec0d368e6ca1c4e508a27d2bbdcb2550732b27583ebfd6f1da3f014e0732bf",
        "834a709ba2534ebe3ee1397fd4f7bd288b2acc1d20a08d6c862dcd99b6f04400",
    ),
    "isolated": (
        "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
        "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
        "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
    ),
    "empty": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}

DEEP = {  # ordered bc, l1, bri of a 3000-node path and of 1000 layers of 2 nodes
    "path3000": (
        "22dc720aca1a12c226ba199b4e3ed0f49052cddd3407852808b08697a8234792",
        "174bbbd346c1822be4601a6bec0747269c89f8228daba71d90c5f6d4c7cca03f",
        "a1b8d233d28d8b13b13d8d6602807c3759de6b7312f178cca5aa59f8e0d8dab2",
    ),
    "ladder2x1000": (
        "17a361790820b367ed919b14becdb87197265dae2eabf033452c8bd6c7750753",
        "8abc68fbac68d1dc6bb47f30bd759e0bab3fceedd8abc24ae4e677254b42dba4",
        "cff1c5eac8c4a9f63161449cfa761bf92c55369fb1386714cc9f40995cabdde5",
    ),
}

SMALL_LFR = dict(n=150, communities=4, mu=0.15, min_degree=6, max_degree=20,
                 mean_degree=10.0)

GENERATOR = {  # by selection; assortative wiring and stub targets
    "node": "36db4b686e4f2440b0105c72df226f352f0912aa4c1ec43b60a7830c4d269cfe",
    "link": "d812a3be4bc9c66e10f7b76759c409985f0ec4e6765b0492911a1d795e0d8717",
}
GENERATOR_DEFAULT_1000 = "81b206beaf8d0585657b76567f2609555a88811ead65a4bcff95474e6736a606"

LOUVAIN = {
    "lfr300": "89d3c7b22cedd73d77e95add7131b6028c7904b070e55a74321504da0e9d1429",
    "default1000": "a59a9c2d2a44a4a89387a651873e8feec3d130932ea77739dbc074729fd3ebc6",
}

MESSY_EDGES = (
    "# comment line\n"
    "\n"
    "01 1\n"
    "1 01\n"
    "  b   a  \n"
    "a b\n"
    "a a\n"
    "   \n"
    "# 1 2\n"
    "2 01\n"
    "x 2\n"
    "01 01\n"
    "2 x\n"
    "b 2\n"
    "001 1\n"
)
MESSY_COMMA_EDGES = (
    "# comment line\n"
    "\n"
    "01,1\n"
    "1 , 01\n"
    "  b ,  a  \n"
    "a,b\n"
    "a,a\n"
    "   \n"
    "# 1,2\n"
    "2,01\n"
    "x y,2\n"
    "01,01\n"
    "2,x y\n"
    "b,2\n"
    "001,1\n"
)
LOADED = {
    None: "e7d330f8cbf5c803b934b2b6aa27e0c898e0ab8d584cc1e8bfe9175ae42da2e2",
    ",": "02601139b9f0f327bd835d3db63068375eccf5f191b47aeb6a92bfdba3bc326a",
}

PIPELINE_1000 = {
    "net.edges": "3c3cdb59ba3c6a9fb393bbfea9f7b0da5b3e0278bb0b60a830dbe48892d4b4eb",
    "net.communities.csv": "bb19bf6cff7b2cb07da756edd5cc7b9f31bd2e9d2d9f3994a36d8f60f1badbfa",
    "louvain.csv": "42ac543a414a2261e0250f414eaa596c5173ea1c36aa1c2036bd844ab2ff3aad",
    "g.csv": "4fe7c40e583b95f8e8fb7e526e4e36c43dcafe944c2961ae5783d13b9243f6fe",
}

EVALUATE_1000 = {  # every file but provenance.json
    "curve_bc.csv": "5e8de15af2a5ade8ee431d4c70d350bba20e656170538b403153bed662dbda16",
    "curve_bc.csv.meta.json": "ed8acaff7cd1c883f812137249dab87364c1c1e34ae1a30f45e4f7b16b08251b",
    "curve_bc_smoothed.csv": "ca09eea2164cdfb1bab91f24025b528d2d3605548045083280951ccd6553f6f7",
    "curve_bc_smoothed.csv.meta.json":
        "59d99ec8a51472bca3bbfc5c75799d0e6a6724cd1dee6ef77a5514df4020320b",
    "curve_bridgeness.csv": "17298931ba51493f168d6bd2a97d928cb0d1432ad66470cd0736fb1098251408",
    "curve_bridgeness.csv.meta.json":
        "2db9afdde83fb2b1531ac82fd18b1a50cb8cd62619725773b71a61a90405a973",
    "curve_bridgeness_smoothed.csv":
        "63b02f1dfe1ef13d8fb7149c4091c9ea22f80e674c4dec05f4fd5a8543766140",
    "curve_bridgeness_smoothed.csv.meta.json":
        "9155f95517c8d64e4b3297e444be3dc26ec00eaf67363cbc7887eb71ffd05b92",
    "curve_g.csv": "3b19cb9fb70e353c2a9f09c99d92e4dcde228ce1c6d568564109a20eda6538aa",
    "curve_g.csv.meta.json": "63f136f7a74f2b1513bf20316999cfc68311fc6e3bade94cea4d49d3466004f2",
    "curve_g_smoothed.csv": "3b19cb9fb70e353c2a9f09c99d92e4dcde228ce1c6d568564109a20eda6538aa",
    "curve_g_smoothed.csv.meta.json":
        "484687bc7ab040698e89758e13fa866975cc26f9a2272296d67b5ff5ca365b78",
    "g_scores.csv": "539123526411bb409b910d8975a402606d1ee50e34e76adf8078795b1d431bd2",
    "locterm_by_degree.csv": "4a4e3949147f1b29c7e015c5d7aedcb569641d4b768dfa9c8f285f0d75e637b4",
    "metrics.json": "c59c0d63a694df59fbc5b2db90f69c1cf06ba3671d6745e606ff2041801995b5",
}

CLI_CSV = {
    "exact": (
        "node_id,degree,bc,bridgeness,local\n"
        "a,3,4.5,0,4.5\nb,3,3,0,3\nc,2,0,0,0\nd,3,1.5,0,1.5\ne,2,1,0,1\nf,1,0,0,0\n"
    ),
    "si-compat": (
        "node_id,degree,bc,bridgeness,local\n"
        "a,3,4.5,1,3.5\nb,3,3,0.75,2.25\nc,2,0,0,0\nd,3,1.5,0,1.5\ne,2,1,0.25,0.75\nf,1,0,0,0\n"
    ),
}

REPORT_EDGES = "a b\nb c\nc d\nd a\na hub\nhub 10\nhub 9\nhub 2\nc x\nx y\ny \u00e9\n\u00e9 x\n"
REPORT_PARTITION = "a,0\nb,0\nc,0\nd,0\nhub,1\n10,1\n9,1\n2,1\nx,2\ny,2\n\u00e9,2\n"
REPORT = {  # by --sort-by column and direction; every column has ties but node_id
    "node_id-descending": "bc58e23cbe50a7839dd19f85e5e490678c5cb1f9244e99b9d231eba6a637f4f1",
    "node_id-ascending": "42b6fe40b8217130b7c56fae40aa79a66818d5de2dfcdf399483c2128e922a2c",
    "G-descending": "2d5d7dc95e8a8630426dc793f2b628242aae7f1f8ac2a88a9c4688d50c590374",
    "G-ascending": "6cd06466f7f8a652689c0602478ffbcc8c26ec635634b7bb40c6f7b71f016526",
    "community-descending": "f754deda1ef3b3db8fb6252e89d6aeb30f0771a0b2d7640d40ae03b47b16d0a7",
    "community-ascending": "b5cf0179efb4c04ee733679a9b286f4f71bd864af10c401eaebfb3b1090201d9",
    "bc-descending": "3126de4bb4f8645742d4a1b336a88c0ae9c4d3e523f960f8ab45d3e298ed6ab1",
    "bc-ascending": "822658371e8712d24fdef984649b4a4ff246a8e1e1fd97f9719a86a82a69b491",
    "bridgeness-descending": "6084004728deddab82cf07d0d0c5075d086a8865a113ff1b25ffec24c539743a",
    "bridgeness-ascending": "087ba41a9722d932da70e84113541fa20b14fab828d3d1d55888d6e41bdb9f0a",
    "degree-descending": "e8b988a6eada3489fa631d8b0934845d37267635092970dc8b401e85aa97f1aa",
    "degree-ascending": "c49728a666321b7d943d47321f53518f3e9b47ed9149cc4d14bd8159f2cf41bf",
}

# every subcommand once, with relative paths, in the order the runs feed each other
PROVENANCE_RUNS = [
    ["generate", "--n", "300", "--communities", "10", "--mu", "0.2", "--seed", "3",
     "--min-degree", "6", "--max-degree", "20", "--mean-degree", "10", "--output-prefix", "net"],
    ["communities", "--input", "net.edges", "--seed", "3", "--output", "louvain.csv"],
    ["indicator", "--input", "net.edges", "--partition", "net.communities.csv", "--output", "g.csv"],
    ["centrality", "--input", "net.edges", "--output", "scores.csv", "--json", "scores.json",
     "--variant", "si-compat", "--workers", "1"],
    ["evaluate", "--input", "net.edges", "--partition", "louvain.csv", "--window", "20",
     "--workers", "1", "--output-dir", "eval"],
    ["report", "--input", "net.edges", "--partition", "net.communities.csv", "--sort-by", "G",
     "--workers", "1", "--output", "report.csv"],
]
PROVENANCE = {
    "eval/provenance.json": "c4948b45b901473f2437a0432679aac7563b1e87a6be6b06b4c861d9c8208fba",
    "g.csv.provenance.json": "0ed8744322fbe50bfeee9bfc328806ada11fa99a52bea8d0fe1300bc078bbd65",
    "louvain.csv.provenance.json":
        "d02cbf27237549086b25ac9ec6e4b5e214902f28ab9decf0240bcc51307fbccf",
    "net.provenance.json": "7555802d5f9cf2623de3c537c2a1f752ad41ba09f3f39ce379a598f81a6d23d9",
    "report.csv.provenance.json": "e592978fd8910a3db6eae78abbbdbef5e660ef4c6c277747f5b057ec87a41618",
    "scores.csv.provenance.json": "a294951d17d10bf61d04c30d546972f2951e06c9a29a8d2b46afdca9fe47a473",
}
READ_ERRORS = [  # argv after the PROVENANCE_RUNS, and its whole stderr
    (["centrality", "--input", "missing.edges", "--output", "s.csv"],
     "error: cannot read edge list: [Errno 2] No such file or directory: 'missing.edges'\n"),
    (["centrality", "--input", "bad.edges", "--output", "s.csv"],
     "error: bad.edges: line 2: expected 2 fields, got 3: 'b c d'\n"),
    (["indicator", "--input", "net.edges", "--partition", "missing.csv", "--output", "g.csv"],
     "error: cannot read partition: [Errno 2] No such file or directory: 'missing.csv'\n"),
    (["report", "--input", "net.edges", "--partition", "short.csv", "--output", "r.csv"],
     "error: short.csv: partition is missing 299 node(s): '52', '70', '80', '95', '238', '240', "
     "'279', '1', '21', '122' (+289 more)\n"),
]

# ``centrality --variant si-compat`` on the grid30 golden graph
GRID_SI_COMPAT_CSV = "258d021f3c3ea3560bfe293916390b548100eae3d1811c59af8bc9af58d8dc97"


def golden_graph(name: str) -> Graph:
    if name == "grid30":
        return grid_graph(30, np.random.default_rng(0))
    if name == "lfr300":
        return small_lfr_graph()
    if name == "lfr1200":
        return generate(LfrConfig(n=1200, communities=36, mu=0.2, seed=11)).graph
    if name == "star50":
        return star_graph(50)
    if name == "disconnected":  # a triangle, a 4-path and two isolated nodes
        return Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
    if name == "isolated":
        return Graph.from_edges(5, [])
    return Graph.from_edges(0, [])


def accumulator_digests(graph: Graph) -> tuple[str, ...]:
    """Digests of (bc, l1, bri): bc and bri from the exact sweep, l1 from the
    si-compat sweep, whose bc must be the same bits."""
    bc, bri = _brandes_accumulate(graph, workers=1)
    si_bc, l1 = _brandes_accumulate(graph, workers=1, bridge=False)
    assert bc.tobytes() == si_bc.tobytes()
    return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (bc, l1, bri))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_accumulators_match_golden_digests(name):
    assert accumulator_digests(golden_graph(name)) == GOLDEN[name]


@pytest.mark.parametrize("direction", ["natural", "top-down", "bottom-up"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_forced_direction_keeps_the_bits(monkeypatch, name, direction):
    for frontier in FRONTIERS:
        force(monkeypatch, direction, frontier)
        assert accumulator_digests(golden_graph(name)) == GOLDEN[name], frontier


def limit_params(name, limits, base_id, directions=("natural", "top-down", "bottom-up")):
    return [pytest.param(name, limits, d, id=base_id if d == "natural" else f"{base_id}-{d}")
            for d in directions]


@pytest.mark.parametrize("name, limits, direction", [
    *limit_params("grid30", {"_BUDGET": 0}, "grid30-one-source-blocks"),
    *limit_params("lfr300", {"_BUDGET": 0}, "lfr300-one-source-blocks"),
    # a few cells per piece; one cell per piece takes 20 s on the grid, and
    # a forced bottom-up grid sweep at 16 incidences per piece over 100 s
    *limit_params("grid30", {"_PIECE": 16}, "grid30-16-incidence-pieces",
                  ("natural", "top-down")),
    *limit_params("lfr300", {"_PIECE": 1}, "lfr300-one-cell-pieces"),
])
def test_block_width_and_piece_size_keep_the_bits(monkeypatch, name, limits, direction):
    for attr, value in limits.items():
        monkeypatch.setattr(centrality, attr, value)
    graph = golden_graph(name)
    if "_BUDGET" in limits:
        assert centrality._block_width(graph.node_count, graph.edge_count) == 1
    for frontier in FRONTIERS:
        force(monkeypatch, direction, frontier)
        assert accumulator_digests(graph) == GOLDEN[name], frontier


@pytest.mark.parametrize("slot", [1, 2, 64])
@pytest.mark.parametrize("name", ["grid30", "lfr300", "ladder2x1000"])
def test_slot_width_keeps_the_bits(monkeypatch, name, slot):
    # one lane per row sends every level through the ragged expansion; 64
    # lanes give every lfr300 cell one row. The ladder, 1000 levels deep,
    # is swept only exactly: the slot width reaches the forward pass alone,
    # which the si-compat sweep shares.
    monkeypatch.setattr(centrality, "_SLOT", slot)
    for frontier in FRONTIERS:
        force(monkeypatch, frontier=frontier)
        if name in DEEP:
            sums = _brandes_accumulate(ladder_graph(1000, 2), workers=1)
            bc, bri = (hashlib.sha256(a.tobytes()).hexdigest() for a in sums)
            assert (bc, bri) == DEEP[name][::2], frontier
        else:
            assert accumulator_digests(golden_graph(name)) == GOLDEN[name], frontier


def record_choices(monkeypatch, rule: str) -> set:
    """The answers the natural ``centrality.<rule>`` gives, as they are given."""
    taken = set()

    def recorded(*args, natural=getattr(centrality, rule)):
        taken.add(natural(*args))
        return natural(*args)

    monkeypatch.setattr(centrality, rule, recorded)
    return taken


def test_natural_rule_takes_both_directions(monkeypatch):
    taken = record_choices(monkeypatch, "_bottom_up")
    assert accumulator_digests(golden_graph("lfr300")) == GOLDEN["lfr300"]
    assert taken == {False, True}


@pytest.mark.parametrize("name, limits", [
    # at 64 sources per block no grid level keeps n * B / 8 pairs; one
    # source at the centre does
    pytest.param("grid30", {"_BUDGET": 0}, id="grid30-one-source-blocks"),
    pytest.param("lfr300", {}, id="lfr300"),
])
def test_natural_rule_takes_both_frontiers(monkeypatch, name, limits):
    for attr, value in limits.items():
        monkeypatch.setattr(centrality, attr, value)
    taken = record_choices(monkeypatch, "_from_kept")
    assert accumulator_digests(golden_graph(name)) == GOLDEN[name]
    assert taken == {False, True}


@pytest.mark.parametrize("name, frontier", [
    ("path3000", "natural"), ("ladder2x1000", "natural"), ("ladder2x1000", "scan")])
def test_deep_graphs_match_golden_digests(monkeypatch, name, frontier):
    # every level of these keeps a few cells, so the natural rule builds
    # each frontier from them; the scan is the rule they were recorded under
    force(monkeypatch, frontier=frontier)
    graph = path_graph(3000) if name == "path3000" else ladder_graph(1000, 2)
    assert accumulator_digests(graph) == DEEP[name]


def network_digest(net) -> str:
    digest = hashlib.sha256()
    digest.update(edge_array(net.graph).tobytes())
    digest.update(net.ground_truth.labels.tobytes())
    digest.update(np.array(sorted(net.rewired_nodes), dtype=np.int64).tobytes())
    digest.update(repr(net.achieved_mu).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("selection", sorted(GENERATOR), ids=lambda s: f"assortative-stub-{s}")
def test_generator_matches_golden_digests(selection):
    config = LfrConfig(seed=7, selection=selection, **SMALL_LFR)
    assert network_digest(generate(config)) == GENERATOR[selection]


def test_default_generator_matches_golden_digest():
    config = LfrConfig(n=1000, communities=30, mu=0.2, seed=7)
    assert network_digest(generate(config)) == GENERATOR_DEFAULT_1000


@pytest.mark.parametrize("variant", sorted(CLI_CSV))
def test_centrality_csv_bytes(tmp_path, variant):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\nc d\nd e\ne a\nb d\nf a\n")
    out = tmp_path / "scores.csv"
    assert main(["centrality", "--input", str(edges), "--output", str(out),
                 "--variant", variant, "--workers", "1"]) == 0
    assert out.read_bytes() == CLI_CSV[variant].encode()


def test_grid_si_compat_csv_bytes(tmp_path):
    edges = tmp_path / "grid.edges"
    edges.write_text("".join(f"{u} {v}\n" for u, v in edge_array(golden_graph("grid30")).tolist()))
    out = tmp_path / "scores.csv"
    assert main(["centrality", "--input", str(edges), "--output", str(out),
                 "--variant", "si-compat", "--workers", "1"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_SI_COMPAT_CSV


@pytest.mark.parametrize("ascending", [False, True], ids=["descending", "ascending"])
@pytest.mark.parametrize("column", REPORT_COLUMNS)
def test_report_bytes(tmp_path, column, ascending):
    (tmp_path / "g.edges").write_text(REPORT_EDGES, encoding="utf-8")
    (tmp_path / "p.csv").write_text(REPORT_PARTITION, encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["report", "--input", str(tmp_path / "g.edges"), "--partition",
                 str(tmp_path / "p.csv"), "--output", str(out), "--workers", "1",
                 "--sort-by", column, *(["--ascending"] if ascending else [])]) == 0
    key = f"{column}-{'ascending' if ascending else 'descending'}"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT[key]


def louvain_graph(name: str) -> Graph:
    if name == "lfr300":
        return small_lfr_graph()
    return generate(LfrConfig(n=1000, communities=30, mu=0.2, seed=7)).graph


@pytest.mark.parametrize("name", sorted(LOUVAIN))
def test_louvain_matches_golden_digest(name):
    run = louvain_passes(louvain_graph(name), LouvainConfig(seed=5))
    digest = hashlib.sha256(run.partition.labels.tobytes())
    digest.update(repr(run.pass_modularity).encode())
    assert digest.hexdigest() == LOUVAIN[name]


@pytest.mark.parametrize("delimiter", sorted(LOADED, key=str), ids=["comma", "whitespace"])
def test_messy_edge_list_matches_golden_digest(delimiter):
    text = MESSY_EDGES if delimiter is None else MESSY_COMMA_EDGES
    graph, table = load_edge_list(io.StringIO(text), delimiter=delimiter)
    assert "01" in table.ids and "1" in table.ids and "001" in table.ids
    digest = hashlib.sha256("\n".join(table.ids).encode())
    for a in (graph.indptr, graph.indices, edge_array(graph)):
        digest.update(a.tobytes())
    assert digest.hexdigest() == LOADED[delimiter]


def test_generate_communities_indicator_bytes(tmp_path):
    prefix = tmp_path / "net"
    for argv in (
        ["generate", "--n", "1000", "--communities", "30", "--mu", "0.2", "--seed", "3",
         "--output-prefix", str(prefix)],
        ["communities", "--input", f"{prefix}.edges", "--seed", "3",
         "--output", str(tmp_path / "louvain.csv")],
        ["indicator", "--input", f"{prefix}.edges", "--partition", f"{prefix}.communities.csv",
         "--output", str(tmp_path / "g.csv")],
    ):
        assert main(argv) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PIPELINE_1000}
    assert digests == PIPELINE_1000


def test_evaluate_on_louvain_partition_bytes(tmp_path):
    prefix = tmp_path / "net"
    for argv in (
        ["generate", "--n", "1000", "--communities", "30", "--mu", "0.2", "--seed", "3",
         "--output-prefix", str(prefix)],
        ["communities", "--input", f"{prefix}.edges", "--seed", "3",
         "--output", str(tmp_path / "louvain.csv")],
        ["evaluate", "--input", f"{prefix}.edges", "--partition", str(tmp_path / "louvain.csv"),
         "--workers", "1", "--output-dir", str(tmp_path / "eval")],
    ):
        assert main(argv) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / "eval").iterdir() if path.name != "provenance.json"}
    assert digests == EVALUATE_1000


def test_provenance_bytes_and_read_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in PROVENANCE_RUNS:
        assert main(argv) == 0
    digests = {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in Path().rglob("*provenance.json")}
    assert digests == PROVENANCE
    Path("bad.edges").write_text("a b\nb c d\n")
    Path("short.csv").write_text("0,0\n")
    capsys.readouterr()
    for argv, stderr in READ_ERRORS:
        assert main(argv) == 1
        assert capsys.readouterr().err == stderr
