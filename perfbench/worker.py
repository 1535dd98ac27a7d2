"""One workload in a fresh Python process: timed passes of ``gatesim.cli.main`` calls.

Started by ``run.py``, never by hand.  With ``--probe`` it only imports
gatesim, builds the first operation's arguments and prints ``ready``, so the
parent can time set-up from process start.  Otherwise it runs the warm-up,
then passes over the operation list until ``--seconds`` have been measured
(at least one pass), checks every output and writes a JSON result file.
With ``--trace 1`` it runs untraced passes for half the time and traced passes
for the other half, so tracing overhead comes from the same process.

``--cpu`` pins the measuring thread to one CPU.  A probe pins itself before
importing anything; a workload process pins its main thread only after numpy
has started its BLAS threads, which keep every allowed CPU.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import Op, check_output


def blas_info() -> dict:
    """numpy version, BLAS library and the thread count that library reports."""
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
    return {"numpy": numpy.__version__, "blas": info.get("name"), "blas_version": info.get("version"),
            "blas_threads": threads}


def _load_ops(path: Path) -> tuple[list[Op], list[Op], list[list[str]], list[list[str]]]:
    doc = json.loads(path.read_text())
    warmup = [Op(tuple(o["args"]), o["params"], o["expect"]) for o in doc["warmup"]]
    ops = [Op(tuple(o["args"]), o["params"], o["expect"]) for o in doc["ops"]]
    return warmup, ops, doc["warmup_argv"], doc["argv"]


class Runner:
    def __init__(self, cli, ops: list[Op], argvs: list[list[str]]) -> None:
        self.cli = cli
        self.ops = ops
        self.argvs = argvs
        self.attempted = 0
        self.failures: list[dict] = []

    def run_op(self, index: int) -> float:
        op, argv = self.ops[index], self.argvs[index]
        output = Path(argv[argv.index("--output") + 1])
        output.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a raising op is a failed op; the pass goes on
            elapsed = time.perf_counter() - start
            self.failures.append({"op": op.label, "why": traceback.format_exc(limit=3)})
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            why = check_output(op, rc, output.read_text()) if output.exists() else f"exit {rc}, no output"
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            why = f"unreadable output: {exc!r}"
        if why:
            self.failures.append({"op": op.label, "why": why})
        return elapsed

    def passes(self, seconds: float, on_op=None) -> tuple[list[float], list[float]]:
        """Closed loop, one client: whole passes for about ``seconds``.

        Another pass starts only while at least half of it fits in the time
        left, so a run overshoots ``seconds`` by at most half a pass.
        """
        walls, latencies = [], []
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin + statistics.mean(walls) / 2 < seconds:
            wall = 0.0
            for i in range(len(self.ops)):
                if on_op:
                    on_op(len(walls) * len(self.ops) + i)
                dt = self.run_op(i)
                latencies.append(dt)
                wall += dt
            walls.append(wall)
        return walls, latencies


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--result")
    args = ap.parse_args()

    if args.probe:
        os.sched_setaffinity(0, {args.cpu})  # the whole set-up runs on the chosen CPU
    sys.path.insert(0, str(Path(args.root) / "src"))
    import gatesim
    from gatesim import cli

    # pins this thread only: the BLAS threads numpy started keep every CPU
    os.sched_setaffinity(0, {args.cpu})

    warmup, ops, warmup_argv, argv = _load_ops(Path(args.ops))
    if args.probe:
        cli.build_parser().parse_args(argv[0])
        print("ready", gatesim.__file__, flush=True)
        return 0

    warm = Runner(cli, warmup, warmup_argv)
    for i in range(len(warmup)):
        warm.run_op(i)
    runner = Runner(cli, ops, argv)
    result: dict = {"gatesim": gatesim.__file__, "n_ops": len(ops)}
    if args.trace:
        from tracer import REPORTED, Tracer, per_pass_metrics

        untraced_walls, _ = runner.passes(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced_walls, _ = runner.passes(args.seconds / 2, on_op=lambda op: setattr(tracer, "op", op))
        tracer.uninstall()
        layers, unsteady = per_pass_metrics(tracer.spans, lambda op: op // len(ops))
        untraced, traced = statistics.median(untraced_walls), statistics.median(traced_walls)
        layers.update({"trace.wall_untraced_s": untraced, "trace.wall_traced_s": traced, "trace.overhead_s": traced - untraced})
        spans_path = Path(args.result).with_name("spans.json")
        tracer.dump(spans_path)
        result.update(
            untraced_walls=untraced_walls,
            traced_walls=traced_walls,
            layers=layers,
            reported={name: layers.get(name, 0) for name in REPORTED},
            unsteady_counts=unsteady,
            spans=str(spans_path),
            n_spans=len(tracer.spans),
        )
    else:
        walls, latencies = runner.passes(args.seconds)
        result.update(walls=walls, latencies=latencies)
    result.update(
        blas=blas_info(),
        attempted=warm.attempted + runner.attempted,
        failures=warm.failures + runner.failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
