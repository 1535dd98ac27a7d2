"""Smoke test of the benchmark itself; it gates no timing.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import REPORTED  # noqa: E402
from workloads import WORKLOADS, Op, check_output, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(REPORTED)


def test_smoke_every_workload_untraced():
    res = _result(_run("--workload", "all", "--seed", "1", "--seconds", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(res["metrics"]) == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_exactly(workload):
    runs = [_result(_run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"))
            for _ in range(2)]
    for res in runs:
        assert res["correct"] and list(res["metrics"]) == list(REPORTED)
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh.calls"] > 0


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert make_workload(workload, 7) == make_workload(workload, 7)
        assert make_workload(workload, 7) != make_workload(workload, 8)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert done.returncode != 0 and done.stdout.strip() == ""


def _verify_op(gate: str, n: int, mode: str) -> Op:
    return Op(("verify", gate, "-n", str(n), "--mode", mode), {}, {"kind": "verify", "gate": gate, "n": n, "mode": mode})


def _report(gate: str, mode: str, fidelity: float, exact: bool = False, threshold: float = 0.9) -> str:
    return json.dumps({
        "gate": gate, "n": 4, "mode": mode, "process_fidelity": fidelity, "exact_phase_match": exact,
        "max_level3_population": 0.05, "residual_photon": 0.003, "threshold": threshold,
        "passed": fidelity >= threshold,
    })


def test_checks_reject_wrong_outputs_and_accept_right_ones():
    full_ncp = _verify_op("ncp", 4, "simulated_full")
    # the present ncp result (fidelity 0.39, exit 1) and a future fix both pass the check
    assert check_output(full_ncp, 1, _report("ncp", "simulated_full", 0.389)) is None
    assert check_output(full_ncp, 0, _report("ncp", "simulated_full", 0.99)) is None
    assert check_output(full_ncp, 0, _report("ncp", "simulated_full", 0.389)) is not None
    full_cp3 = _verify_op("cp3", 3, "simulated_full")
    assert check_output(full_cp3, 1, _report("cp3", "simulated_full", 0.5)) is not None
    assert check_output(full_cp3, 0, _report("cp3", "simulated_full", 1.5)) is not None
    analytic = _verify_op("ntcnot", 4, "analytic")
    assert check_output(analytic, 0, _report("ntcnot", "analytic", 1.0, exact=True, threshold=1 - 1e-9)) is None
    assert check_output(analytic, 0, _report("ntcnot", "analytic", 1.0, exact=False, threshold=1 - 1e-9)) is not None
    assert check_output(analytic, 2, "") is not None
    dj = Op(("dj", "--variant", "3"), {}, {"kind": "dj", "variant": 3, "mode": "analytic"})
    out = {"variant": 3, "classification": "balanced", "probability": 1.0, "oracle_applications": 1}
    assert check_output(dj, 0, json.dumps(out)) is None
    assert check_output(dj, 0, json.dumps({**out, "classification": "constant"})) is not None
