"""Repeat the benchmark over seeds and report each metric's median and spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload small_ops --seeds 1-10 [--seconds 30] [--out FILE]
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per seed and workload, one run at a time, and prints
for every metric its median, its quartiles (``statistics.quantiles(values,
n=4)``) and the distance between them as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  ``--out`` writes every run's metrics,
failure counts and environment stamp, with the summary, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line.split("# env ", 1)[1]) for line in lines if "# env " in line)
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
                     "bound": bounds.get(name)}
    return out


def table(summary: dict[str, dict]) -> list[str]:
    rows = [f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for name, s in summary.items():
        spread = "" if s["spread"] is None else f"{s['spread']:.4f}"
        rows.append(f"{name:40s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {spread:>8s} {s['bound']!s:>6s}")
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else args.workload.split(",")
    report = {"seconds": seconds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: correct {run['correct']}, failed {run['failed']}/{run['attempted']}"
                  + "".join(f", {k}={v['value']:.6g}" for k, v in run["metrics"].items()),
                  flush=True)
        summary = summarize(runs, bounds)
        print("\n".join([f"== {workload}"] + table(summary)), flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["correct"] for w in report["workloads"].values() for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
