"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads classify,construct,verify --seeds 1-10

Runs `perfbench/run.py` once per (workload, seed), one run at a time,
and prints for every end-to-end metric its median over the seeds and its
spread: the distance between the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median.
A metric is steady when its spread is below a third of its bound in
BENCHMARK.json (setup_s is exempt from the spread rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="classify,construct,verify")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", help="also write the runs and spreads to this JSON file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} failed={result['failed']} {values}", flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            ok = name == "setup_s" or s < bound / 3
            steady &= ok
            rows[name] = {"median": statistics.median(values), "spread": s, "bound": bound, "steady": ok}
            print(f"  {workload:10s} {name:12s} median={statistics.median(values):.6g} "
                  f"spread={s:.4f} bound/3={bound / 3:.4f} {'ok' if ok else 'UNSTEADY'}")
        report[workload] = {"runs": runs, "spreads": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
