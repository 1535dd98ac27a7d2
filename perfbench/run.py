"""gatesim benchmark: seeded CLI workloads, end-to-end metrics and a layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload full_sampled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --smoke

Each workload runs in a fresh Python process (``worker.py``), one after the
other, so ``peak_rss_mib`` belongs to one workload and no two workloads share
the cores.  The measuring thread is pinned to the CPU that is fastest at the
start of the run (see :func:`fastest_cpu`); BLAS threads are left unpinned.  Set-up time is the median over several fresh processes that
only import gatesim and build their first operation.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--smoke`` shrinks every workload to n = 3 and a few samples; it checks
outputs but its times gate nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the run: sample counts, the failure fraction and an environment
stamp.  Scratch files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
CALIBRATION_ROUNDS = 9
# Tail percentiles, highest first; the tail is the highest one with at least
# TAIL_BEYOND samples beyond it, so it names the same percentile on any commit
# whose run yields a similar number of operations.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gatesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "seed": seed,
    }


def _write_inputs(workload: str, seed: int, smoke: bool, out: Path) -> Path:
    """Write the seeded parameter files and the operation list; the program reads only these."""
    warmup, ops = make_workload(workload, seed, smoke)
    doc: dict = {"warmup": [], "ops": [], "warmup_argv": [], "argv": []}
    for key, group in (("warmup", warmup), ("ops", ops)):
        for i, op in enumerate(group):
            params = out / f"{key}-{i}-params.json"
            params.write_text(json.dumps(op.params))
            doc[key].append(asdict(op))
            doc[f"{key}_argv" if key == "warmup" else "argv"].append(
                list(op.args) + ["--params", str(params), "--output", str(out / f"{key}-{i}-output")]
            )
    path = out / "ops.json"
    path.write_text(json.dumps(doc))
    return path


def _spin() -> None:
    total = 0
    for i in range(150_000):
        total += i * i


def fastest_cpu() -> tuple[int, dict[int, float]]:
    """The allowed CPU that runs a short interpreter loop fastest, and each CPU's median time.

    On a shared virtual machine one CPU can run a third slower than another
    for minutes at a time; a process stays where it starts, so unpinned runs
    land on either speed and come out bimodal.  Measuring on the faster CPU
    keeps runs comparable.
    """
    allowed = sorted(os.sched_getaffinity(0))
    samples: dict[int, list[float]] = {cpu: [] for cpu in allowed}
    try:
        for _ in range(CALIBRATION_ROUNDS):
            for cpu in allowed:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _spin()
                samples[cpu].append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, allowed)
    medians = {cpu: statistics.median(times) for cpu, times in samples.items()}
    return min(medians, key=medians.get), medians


def _worker_cmd(cpu: int, ops_path: Path, *args: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--root", str(ROOT), "--cpu", str(cpu),
            "--ops", str(ops_path), *args]


def setup_seconds(cpu: int, ops_path: Path) -> list[float]:
    """Process start to gatesim imported and the first operation's arguments parsed."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(cpu, ops_path, "--probe"), stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError("set-up probe failed")
        if not Path(line.split(" ", 1)[1].strip()).is_relative_to(ROOT / "src"):
            raise RuntimeError(f"gatesim imported from outside the checkout: {line.strip()}")
    return times


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest tail percentile with ten samples beyond it, else the slowest op."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100.0)  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], f"p{p:g} of {n} ops, {n - rank} beyond"
    return ordered[-1], f"slowest of {n} ops (too few for p{TAIL_PERCENTILES[-1]:g})"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops_path = _write_inputs(workload, seed, smoke, out)
    env = environment(seed)
    load_before = _loadavg()
    cpu, calibration = fastest_cpu()
    env.update(cpu=cpu, cpu_loop_ms={str(c): round(t * 1e3, 3) for c, t in calibration.items()})
    setups = setup_seconds(cpu, ops_path)
    result_path = out / "result.json"
    cmd = _worker_cmd(cpu, ops_path, "--seconds", str(seconds), "--trace", str(int(trace)), "--result", str(result_path))
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}")
    res = json.loads(result_path.read_text())
    env.update(res.pop("blas"), loadavg_before=load_before, loadavg_after=_loadavg())
    res.update(workload=workload, env=env, setup_probes=setups, seconds=seconds, smoke=smoke)
    failed = len(res["failures"])
    res["failed"] = failed
    if trace:
        metrics = res["reported"]
        untraced, traced = metrics["trace.wall_untraced_s"], metrics["trace.wall_traced_s"]
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        notes = [
            f"traced passes {len(res['traced_walls'])}, untraced passes {len(res['untraced_walls'])}, "
            f"spans {res['n_spans']} in {res['spans']}",
            f"tracing overhead {traced - untraced:+.4f} s per pass ({traced:.4f} traced vs {untraced:.4f} untraced)",
        ]
        if res["unsteady_counts"]:
            notes.append(f"counts that differed between passes: {res['unsteady_counts']}")
    else:
        op_tail, tail_note = tail(res["latencies"])
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "op_p50_s": statistics.median(res["latencies"]),
            "op_tail_s": op_tail,
            "peak_rss_mib": res["peak_rss_mib"],
            "setup_s": statistics.median(setups),
        }
        units = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
        notes = [
            f"wall_s: median of {len(res['walls'])} passes of {res['n_ops']} ops (closed loop, one client)",
            f"op_p50_s: median of {len(res['latencies'])} ops; op_tail_s: {tail_note}",
            f"setup_s: median of {len(setups)} fresh processes",
        ]
    notes.append(f"failed_frac {failed / res['attempted']:.6g} ({failed} failed of {res['attempted']} attempted)")
    for failure in res["failures"][:5]:
        notes.append(f"FAILED {failure['op']}: {failure['why'].strip().splitlines()[-1]}")
    res.update(metrics=metrics, units=units, notes=notes)
    result_path.write_text(json.dumps(res))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="n = 3 only, few samples; no timing gates")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "gatesim" / "__init__.py").is_file():
        print(f"run.py: no gatesim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(res)
        print(f"== {name} (seed {args.seed}, trace {args.trace}{', smoke' if args.smoke else ''})")
        for key, value in res["metrics"].items():
            print(f"  {key:48s} {value!r} {res['units'][key]}")
        for note in res["notes"]:
            print(f"  # {note}")
        print("  # env " + json.dumps(res["env"]))

    def qualified(res: dict, key: str) -> str:
        return key if len(results) == 1 else f"{res['workload']}.{key}"

    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            qualified(r, key): {"value": value, "unit": r["units"][key]}
            for r in results
            for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
