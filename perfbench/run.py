"""Pipeline benchmark of the bridgeness CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` on the ``bridgeness`` package under
``src/`` of the checkout that holds this directory, checks its outputs and
prints every metric by name with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``. Set-up
  (importing ``bridgeness`` and building the inputs) runs ``SETUP_REPS``
  times, each in a fresh interpreter; ``setup_s`` is their median. The
  timed commands then repeat in one more fresh interpreter for ``--seconds``
  and ``pipeline_s`` is the median pass.
* ``--trace 1``: the per-layer metrics of ``BENCHMARK.json``, from spans
  recorded around the library calls of the CLI (``tracing.py``) on every
  other pass; the passes between stay untraced, which gives the tracing
  overhead.

Failed commands and failed output checks (``checks.py``) count towards
``failed``; ``error_rate`` is failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Workload, input_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# every run ends well inside three minutes, checks included
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# End-to-end times are scaled to the machine speed at which worker.py's
# calibration kernel takes this long. On a shared host the speed of one core
# can change by 2x within minutes; the kernel, run around every timed part,
# follows that change, so the scaled times spread far less between runs.
NOMINAL_MACHINE_S = 0.06
# per-layer metrics derived from the inputs rather than counted in the run
COMPUTED = {"centrality.levels_swept", "indicator.touches_bytes"}
# Baselines listed under "Recent" in ROADMAP.md (2-core machine, one run each):
# workload, per-layer metric, seconds, what was measured.
ROADMAP_RECENT = (
    ("lfr-3k-evaluate", "centrality.serial_s", 14.8, "n=3000 exact, 1 worker"),
    ("lfr-3k-evaluate", "centrality.sweep_s", 9.0, "n=3000 exact, 2 workers"),
    ("lfr-10k-prep", "netgen.generate_s", 4.7, "n=10000 generate"),
    ("lfr-10k-prep", "community.louvain_s", 1.6, "n=10000 Louvain"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Tally:
    """Commands and output checks attempted, and the reasons of those failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{what}: {problem}")

    def codes(self, what: str, argvs: list[list[str]], codes: list[int]) -> None:
        for argv, code in zip(argvs, codes, strict=True):
            self.check(f"{what} `{argv[0]}`", None if code == 0 else f"exit code {code}")


def child_env() -> dict[str, str]:
    """Environment of the fresh interpreters: no inherited worker count,
    BLAS/OpenMP threads capped at the usable cores, this checkout's src."""
    env = dict(os.environ)
    env.pop("BRIDGENESS_WORKERS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment(env: dict[str, str]) -> dict:
    import networkx
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": blas,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_child(mode: str, w: Workload, seed: int, work: Path, env: dict, deadline: float,
              *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return the JSON it wrote."""
    result = work / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", w.name,
           "--seed", str(seed), "--work", str(work), "--result", str(result), *extra]
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} did not finish in time") from None
    finally:
        if proc.poll() is None:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{mode} exited with {proc.returncode}:\n{err[-2000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def load_reference(w: Workload, seed: int) -> dict:
    """Recorded outputs of this workload for the input seed ``seed`` selects."""
    recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    try:
        return recorded[w.name][str(input_seed(seed))]
    except KeyError:
        raise BenchError(f"reference.json has no outputs for {w.name} "
                         f"seed {input_seed(seed)}") from None


def levels_per_sweep(edges: Path) -> int:
    """Sum over sources of (eccentricity + 1): the BFS levels of one sweep.

    Computed from the input with scipy, not counted inside the program.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    ids: dict[str, int] = {}
    pairs = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
             for a, b in checks.read_edges(edges)]
    n = len(ids)
    u, v = np.array(pairs, dtype=np.int64).T
    adj = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)).tocsr()
    total = 0
    for lo in range(0, n, 256):
        dist = shortest_path(adj, directed=False, unweighted=True,
                             indices=np.arange(lo, min(lo + 256, n)))
        total += int((np.where(np.isfinite(dist), dist, 0).max(axis=1) + 1).sum())
    return total


def check_outputs(w: Workload, seed: int, work: Path, reference: dict, setups: list[dict],
                  passes: list[dict], tally: Tally) -> None:
    setup_argvs = w.commands(w.setup, work, seed)
    timed_argvs = w.commands(w.timed, work, seed)
    for i, s in enumerate(setups):
        tally.codes(f"set-up {i + 1}", setup_argvs, s["codes"])
        for name, digest in s["sha256"].items():
            tally.check(f"set-up {i + 1}", checks.digest_problem(
                name, digest, reference["sha256"].get(name)))
    for i, p in enumerate(passes):
        tally.codes(f"pass {i + 1}", timed_argvs, p["codes"])
        for name, digest in p["sha256"].items():
            tally.check(f"pass {i + 1}", checks.digest_problem(
                name, digest, reference["sha256"].get(name)))
    if "metrics" in reference:
        tally.check("final pass", checks.metrics_problem(
            work / "eval" / "metrics.json", reference["metrics"]))
    if "modularity" in reference:
        tally.check("final pass", checks.modularity_problem(
            "louvain.csv", checks.modularity(work / "net.edges", work / "louvain.csv"),
            reference["modularity"]))
    if w.grid:
        tally.check("final pass", checks.scores_problem(
            work / "scores.csv", checks.networkx_bc(work / w.sweep_input)))


def at_nominal_speed(seconds: float, machine_s: float) -> float:
    return seconds * NOMINAL_MACHINE_S / machine_s


def end_to_end(setups: list[dict], measured: dict) -> dict[str, float]:
    untraced = [p for p in measured["passes"] if not p["traced"]]
    return {
        "pipeline_s": statistics.median(
            at_nominal_speed(p["pipeline_s"], p["machine_s"]) for p in untraced),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(
            at_nominal_speed(s["import_s"] + s["build_s"], s["machine_s"]) for s in setups),
    }


def per_layer(w: Workload, work: Path, reference: dict, measured: dict,
              tally: Tally) -> dict[str, float]:
    passes = measured["passes"]
    traced = [p for p in passes if p["traced"]]
    m = tracing.median_metrics([tracing.layer_metrics(p["spans"], p["counts"]) for p in traced])
    if "modularity" in reference:
        tally.check("traced pass", checks.modularity_problem(
            "community.modularity", m["community.modularity"], reference["modularity"]))
    m["centrality.levels_swept"] = (
        m["centrality.sweeps"] * levels_per_sweep(work / w.sweep_input)
        if w.sweep_input and m["centrality.sweeps"] else 0)
    serial = measured.get("serial_s", 0.0)
    m["centrality.serial_s"] = serial
    m["centrality.parallel_efficiency"] = (
        serial / (w.workers * m["centrality.sweep_s"]) if serial else 0.0)
    # both sides at nominal speed, like pipeline_s, so a change in machine
    # speed between the traced and untraced passes does not read as overhead
    nominal = {flag: statistics.median(at_nominal_speed(p["pipeline_s"], p["machine_s"])
                                       for p in passes if p["traced"] == flag)
               for flag in (True, False)}
    m["trace.overhead_s"] = nominal[True] - nominal[False]
    return m


def bench(args: argparse.Namespace, w: Workload, spec: dict, work: Path) -> int:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    trace = args.trace == 1
    reference = load_reference(w, args.seed)
    setups = [run_child("setup", w, args.seed, work, env, deadline)
              for _ in range(1 if trace else SETUP_REPS)]
    measure_args = ["--seconds", str(args.seconds)] + (["--trace"] if trace else [])
    measured = run_child("measure", w, args.seed, work, env, deadline, *measure_args)

    tally = Tally()
    check_outputs(w, args.seed, work, reference, setups, measured["passes"], tally)
    if trace:
        values = per_layer(w, work, reference, measured, tally)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setups, measured)
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")

    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment(env), sort_keys=True))
    passes = measured["passes"]
    print(f"passes: {len(passes)}, of which traced {sum(p['traced'] for p in passes)}; "
          "wall seconds per pass " + ", ".join(f"{p['pipeline_s']:.3f}" for p in passes)
          + "; calibration kernel seconds " + ", ".join(f"{p['machine_s']:.4f}" for p in passes))
    print("set-up wall seconds " + ", ".join(f"{s['import_s'] + s['build_s']:.3f}" for s in setups)
          + "; calibration kernel seconds " + ", ".join(f"{s['machine_s']:.4f}" for s in setups))
    for m in wanted:
        label = " (computed)" if m["name"] in COMPUTED else ""
        print(f"{m['name']}: {values[m['name']]} {m['unit']}{label}")
    failed = len(tally.problems)
    print(f"error_rate: {failed / tally.attempted} fraction "
          f"({failed} of {tally.attempted} commands and checks failed)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if trace:
        for workload, name, recorded, what in ROADMAP_RECENT:
            if workload == w.name:
                change = values[name] / recorded - 1.0
                flag = "  DIFFERS BY MORE THAN 20%" if abs(change) > 0.2 else ""
                print(f"roadmap cross-check, {what}: {name} = {values[name]:.3f} s "
                      f"against {recorded} s ({change:+.1%}){flag}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bridgeness" / "cli.py").is_file():
        print(f"perfbench: no bridgeness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, WORKLOADS[args.workload], spec, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
