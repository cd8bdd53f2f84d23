import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("sweep_pairs", ROOT / "tools" / "sweep_pairs.py")
sweep_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_pairs)

# appended to the change's copy of the engine: every accumulator doubles
DOUBLED = """
_single = _brandes_accumulate


def _brandes_accumulate(graph, workers=1, bridge=True):
    return 2.0 * _single(graph, workers, bridge)
"""


@pytest.fixture
def two_trees(tmp_path):
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path / "parent", tmp_path / "change"


def test_same_tree_matches_and_alternates(two_trees, capsys, monkeypatch):
    order = []
    real_sweep = sweep_pairs.sweep

    def recorded(checkout, graph):
        order.append(checkout.name)
        return real_sweep(checkout, graph)

    monkeypatch.setattr(sweep_pairs, "sweep", recorded)
    monkeypatch.setattr(sweep_pairs, "ROUNDS", 2)
    monkeypatch.setattr(sweep_pairs, "GRAPHS", ("grid30",))
    assert sweep_pairs.main(list(map(str, two_trees))) == 0
    assert order == ["parent", "change", "change", "parent"]
    line = capsys.readouterr().out.strip()
    assert line.startswith("grid30: parent ") and line.endswith("/2")


def test_differing_digests_exit_1(two_trees, capsys, monkeypatch):
    with open(two_trees[1] / "src" / "bridgeness" / "centrality.py", "a") as fh:
        fh.write(DOUBLED)
    monkeypatch.setattr(sweep_pairs, "ROUNDS", 1)
    monkeypatch.setattr(sweep_pairs, "GRAPHS", ("grid30",))
    assert sweep_pairs.main(list(map(str, two_trees))) == 1
    assert capsys.readouterr().out.strip().endswith("DIGESTS DIFFER")



def test_rounds_that_waited_for_the_cpu_are_flagged(capsys, monkeypatch):
    calls = []

    def fake_sweep(checkout, graph):
        calls.append(checkout.name)
        # the parent's third run got a quarter of the CPU for its wall time
        waited = checkout.name == "parent" and calls.count("parent") == 3
        return {"ms_per_source": 1.0, "wall_s": 2.0, "cpu_s": 0.5 if waited else 2.0,
                "digest": "same"}

    monkeypatch.setattr(sweep_pairs, "sweep", fake_sweep)
    monkeypatch.setattr(sweep_pairs, "ROUNDS", 4)
    monkeypatch.setattr(sweep_pairs, "GRAPHS", ("grid30",))
    assert sweep_pairs.main(["parent", "change"]) == 0
    line = capsys.readouterr().out.strip()
    assert "parent CPU/wall low in rounds [3] (kept)" in line
    assert "change CPU/wall" not in line
    assert line.endswith("change faster in 0/4")
