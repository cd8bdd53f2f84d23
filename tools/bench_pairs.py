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
is formed. The
workload is written under its name into ``BENCH_<label>.json`` in the
current directory, so runs for several workloads share one file.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result object and environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = [line for line in lines if line.startswith("environment ")]
    result["environment"] = json.loads(env[0].split(" ", 1)[1]) if env else None
    passes = next(line for line in lines if line.startswith("passes: "))
    result["raw"] = raw_medians(passes)
    return result


def raw_medians(passes_line: str) -> dict:
    """Median unscaled wall and calibration-kernel seconds per pass of one run."""
    _, wall, kernel = passes_line.split("; ")
    return {name: statistics.median(float(v) for v in re.findall(r"\d+\.\d+", text))
            for name, text in (("wall_s", wall), ("kernel_s", kernel))}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run(checkouts[side], args.workload, seed, seconds))
            metrics = runs[side][-1]["metrics"]
            print(f"seed {seed} {side}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in metrics.items()), flush=True)

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
    }
    for name, direction in better.items():
        pairs = list(zip(values("parent", name), values("change", name)))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        record["metrics"][name] = {
            "better": direction,
            **{side: summary(values(side, name)) for side in SIDES},
            "change_better_pairs": f"{wins}/{len(pairs)}",
        }
    out = Path(f"BENCH_{args.label}.json")
    data = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    data.setdefault("label", args.label)
    data.setdefault("workloads", {})[args.workload] = record
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.workload} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
