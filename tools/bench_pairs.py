"""Alternate perfbench runs of two checkouts and write BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds 1-10 --label L

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, swapping which side goes first on every
other seed, and parses the JSON object each run prints last. T and the
metric directions come from the change's ``BENCHMARK.json`` (``run_seconds``
and ``end_to_end``). Per side and metric it records the median, the
quartiles and every run's value; per metric, the pairs in which the change
was better; and each side's environment line and failed checks. Under
``raw_per_pass`` it summarises each run's median unscaled wall seconds and
calibration-kernel seconds per pass, from which the scaled ``pipeline_s``
is formed, and under ``passes`` each run's pass count, from the same
line: RSS grows over the first passes, so a side that ran fewer passes can
read a lower ``peak_rss_mb`` for the same memory use. Under ``usage`` it
records each run's wall seconds and the CPU seconds of its child processes
(``RUSAGE_CHILDREN`` before and after), and lists per side the seeds whose
CPU/wall is below ``FLAG_BELOW`` of that side's median: such a run waited
for the CPU, most likely behind other processes. Flagged runs are kept in every summary, never dropped. The
workload is written under its name into ``BENCH_<label>.json`` in the
current directory, so runs for several workloads share one file. The file
is written even when a run's output checks failed; then the side and seeds
of those runs are printed and the exit status is 1, since metrics of wrong
outputs support no comparison. Per metric it prints and records a verdict:
whether the change won 9 of 10 pairs, whether its median gain exceeds the
parent's inter-quartile distance, and whether its median stays within the
metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the parent's median).
One seed, a held-out run, records each side's value and which side was
better, with no quartiles and no verdict.
"""
from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
FLAG_BELOW = 0.85  # of the side's median CPU/wall


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result object, environment line and usage."""
    cpu, start = child_cpu_s(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    usage = {"wall_s": time.perf_counter() - start, "cpu_s": child_cpu_s() - cpu}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = [line for line in lines if line.startswith("environment ")]
    result["environment"] = json.loads(env[0].split(" ", 1)[1]) if env else None
    passes = next(line for line in lines if line.startswith("passes: "))
    result["raw"] = raw_medians(passes)
    result["passes"] = pass_count(passes)
    result["usage"] = usage
    return result


def raw_medians(passes_line: str) -> dict:
    """Median unscaled wall and calibration-kernel seconds per pass of one run."""
    _, wall, kernel = passes_line.split("; ")
    return {name: statistics.median(float(v) for v in re.findall(r"\d+\.\d+", text))
            for name, text in (("wall_s", wall), ("kernel_s", kernel))}


def pass_count(passes_line: str) -> int:
    """N of a ``passes: N, of which traced M; ...`` line."""
    return int(re.match(r"passes: (\d+),", passes_line).group(1))


def usage_summary(seeds: list[int], results: list[dict]) -> dict:
    """Each run's wall and CPU seconds, and the seeds flagged as contended."""
    runs = [{"seed": seed, **r["usage"], "cpu_per_wall": r["usage"]["cpu_s"] / r["usage"]["wall_s"]}
            for seed, r in zip(seeds, results)]
    median = statistics.median(r["cpu_per_wall"] for r in runs)
    return {"runs": runs, "cpu_per_wall_median": median,
            "flagged_seeds": [r["seed"] for r in runs if r["cpu_per_wall"] < FLAG_BELOW * median]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    if len(values) == 1:  # one seed: no quartiles
        return {"median": values[0], "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def better_side(direction: str, parent: float, change: float) -> str:
    if parent == change:
        return "tie"
    return "change" if (change < parent) == (direction == "lower") else "parent"


def verdict(direction: str, bound: float, parent: dict, change: dict) -> dict:
    """The three tests a claimed or bounded metric must pass, from the
    ``summary`` of each side's paired runs.

    ``wins_9_of_10``: the change is better in at least 9 of every 10 pairs,
    a tie counting for neither side. ``gain_exceeds_iqr``: the change's
    median is better than the parent's by more than the parent's
    inter-quartile distance. ``within_bound``: the change's median is no
    worse than the parent's by more than ``bound`` of it.
    """
    sign = -1.0 if direction == "lower" else 1.0  # sign * (change - parent) > 0 is better
    gains = [sign * (c - p) for p, c in zip(parent["runs"], change["runs"])]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    gain, iqr = sign * (change["median"] - parent["median"]), parent["q3"] - parent["q1"]
    return {"wins": wins, "losses": losses, "ties": len(gains) - wins - losses,
            "wins_9_of_10": 10 * wins >= 9 * len(gains),
            "median_gain": gain, "parent_iqr": iqr, "gain_exceeds_iqr": gain > iqr,
            "bound": bound, "within_bound": gain >= -bound * abs(parent["median"])}


def verdict_line(name: str, v: dict) -> str:
    yes = {True: "yes", False: "NO"}
    pairs = v["wins"] + v["losses"] + v["ties"]
    return (f"{name}: better in {v['wins']}/{pairs} pairs ({v['losses']} worse, "
            f"{v['ties']} tied), 9/10 {yes[v['wins_9_of_10']]}; median gain "
            f"{v['median_gain']:.4g} against parent IQR {v['parent_iqr']:.4g}, beyond it "
            f"{yes[v['gain_exceeds_iqr']]}; within the {v['bound']:g} bound "
            f"{yes[v['within_bound']]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if not args.seeds:
        parser.error("--seeds names no seed")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    ends = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run(checkouts[side], args.workload, seed, seconds))
            metrics = runs[side][-1]["metrics"]
            print(f"seed {seed} {side}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in metrics.items())
                + f", passes {runs[side][-1]['passes']}", flush=True)

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"][name]["value"] for r in runs[side]]

    record = {
        "seeds": args.seeds,
        "seconds": seconds,
        "order": "parent first on even-indexed seeds, change first on the others",
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "environment": {side: runs[side][0]["environment"] for side in SIDES},
        "metrics": {},
        "raw_per_pass": {side: {name: summary([r["raw"][name] for r in runs[side]])
                                for name in ("wall_s", "kernel_s")} for side in SIDES},
        "passes": {side: summary([r["passes"] for r in runs[side]]) for side in SIDES},
        "usage": {side: usage_summary(args.seeds, runs[side]) for side in SIDES},
    }
    for side in SIDES:
        if record["usage"][side]["flagged_seeds"]:
            print(f"{side}: CPU/wall below {FLAG_BELOW} of the median on seeds "
                  f"{record['usage'][side]['flagged_seeds']} (kept)")
    for name, (direction, bound) in ends.items():
        sides = {side: summary(values(side, name)) for side in SIDES}
        if len(args.seeds) == 1:
            better = better_side(direction, sides["parent"]["median"], sides["change"]["median"])
            record["metrics"][name] = {"better": direction, **sides, "better_side": better}
            print(f"{name}: parent {sides['parent']['median']:.4g}, change "
                  f"{sides['change']['median']:.4g}, better: {better} (one seed: no verdict)")
            continue
        v = verdict(direction, bound, sides["parent"], sides["change"])
        record["metrics"][name] = {
            "better": direction, **sides,
            "change_better_pairs": f"{v['wins']}/{len(args.seeds)}",
            "verdict": v,
        }
        print(verdict_line(name, v))
    out = Path(f"BENCH_{args.label}.json")
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data.setdefault("label", args.label)
    data.setdefault("workloads", {})[args.workload] = record
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.workload} to {out}")
    failed = {side: [seed for seed, n in zip(args.seeds, record["failed"][side]) if n]
              for side in SIDES}
    for side, seeds in failed.items():
        if seeds:
            print(f"{side}: failed checks on seeds {seeds}", file=sys.stderr)
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
