import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import preset_raw
from gatesim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- verify -----------------------------------------------------------------


def test_verify_cp3_analytic_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "cp3", "--mode", "analytic")
    assert code == 0
    doc = json.loads(out)
    assert doc["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["exact_phase_match"] is True
    assert doc["passed"] is True


def test_verify_ntcnot_n4(capsys):
    doc = run_json(capsys, "verify", "ntcnot", "-n", "4", "--mode", "analytic")
    assert doc["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["step_count"] == 5


def test_verify_threshold_failure_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cp3", "--mode", "simulated_full", "--threshold", "0.99999"
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_missing_params_field_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"delta_c": 10.0}))
    code, _, err = run_cli(capsys, "verify", "cp3", "--params", str(bad))
    assert code == 2
    assert "missing parameter keys" in err


def test_verify_nonexistent_params_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "cp3", "--params", "no/such/file.json")
    assert code == 2
    assert "no parameter file" in err


def test_verify_null_param_exits_two(capsys, tmp_path):
    raw = preset_raw("cpw")
    raw["delta_c"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "verify", "cp3", "--params", str(bad))
    assert code == 2
    assert out == ""
    assert "delta_c" in err


def test_verify_empty_file_exits_two(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run_cli(capsys, "budget", "--params", str(empty))
    assert code == 2


def test_verify_dump_sequence_and_audit(capsys):
    doc = run_json(capsys, "verify", "cp3", "--dump-sequence", "--audit")
    assert doc["sequence"]["step_count"] == 7
    assert doc["sequence"]["steps"][1]["pulses"][0]["kind"] == "pi_pulse"
    assert doc["phase_audit"]["condition_ratio"] == pytest.approx(50.0)


def test_verify_usage_error_exits_two(capsys):
    assert main(["verify", "nosuchgate"]) == 2


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GATESIM_TOL", "1e-3")
    doc = run_json(capsys, "verify", "cp3")
    assert doc["tolerance"] == pytest.approx(1e-3)
    monkeypatch.setenv("GATESIM_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "cp3")
    assert code == 2
    assert "GATESIM_TOL" in err


@pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
def test_tolerance_env_rejects_nonfinite_or_negative(capsys, monkeypatch, raw):
    monkeypatch.setenv("GATESIM_TOL", raw)
    code, out, err = run_cli(capsys, "verify", "cp3")
    assert code == 2
    assert out == ""
    assert "GATESIM_TOL" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("verify", "cp3", "--samples", "-3"), "--samples"),
        (("verify", "cp3", "--threshold", "nan"), "--threshold"),
        (("verify", "cp3", "--threshold", "inf"), "--threshold"),
        (("budget", "--threshold", "nan"), "--threshold"),
        (("budget", "--threshold", "0"), "--threshold"),
        (("budget", "--threshold", "-1"), "--threshold"),
    ],
)
def test_bad_numbers_rejected_at_parse_time(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("gate,n", [("cp3", "0"), ("cp3", "4"), ("toffoli", "7"), ("toffoli", "2")])
def test_fixed_size_gates_reject_other_n(capsys, gate, n):
    code, out, err = run_cli(capsys, "verify", gate, "-n", n)
    assert code == 2
    assert out == ""
    assert "-n" in err


@pytest.mark.parametrize("gate", ["cp3", "toffoli"])
def test_fixed_size_gates_accept_n_3(capsys, gate):
    assert run_json(capsys, "verify", gate, "-n", "3")["n"] == 3


def test_verify_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "cp3", "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["passed"] is True


# --- budget -----------------------------------------------------------------


def test_budget_cpw(capsys):
    doc = run_json(capsys, "budget", "--params", "presets/cpw.json")
    assert doc["tau_cp3_s"] == pytest.approx(0.068e-6, rel=0.02)
    assert doc["passed"] is True
    assert "squid" not in doc


def test_budget_squid_includes_coupling_and_levels(capsys):
    doc = run_json(capsys, "budget", "--params", "presets/squid.json")
    assert doc["squid"]["g_per_s"] == pytest.approx(4.3e8, rel=0.05)
    assert doc["levels"]["passed"] is True


def test_budget_reports_a_broken_ordering(capsys, tmp_path):
    # a valid file whose frequencies break the type's ordering still exits 0
    raw = preset_raw("squid")
    raw["levels"]["qubit_type"] = "phase"
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(raw))
    doc = run_json(capsys, "budget", "--params", str(path))
    assert doc["levels"] == {
        "qubit_type": "phase", "passed": False, "violations": ["nu_10_hz > nu_21_hz"]
    }


def test_budget_accepts_preset_names(capsys):
    doc = run_json(capsys, "budget", "--params", "squid")
    assert doc["tau_ntcnot_s"] == pytest.approx(0.146e-6, rel=0.02)


def test_budget_renders_per_qubit_lists(capsys, tmp_path):
    raw = preset_raw("cpw")
    g = [raw["g"], raw["g"], 1.05 * raw["g"]]
    raw.update(g=g, omega_raman=g, delta_ck=[10.0 * x for x in g])
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "budget", "--params", str(path))
    assert code == 0
    for key in ("g", "omega_raman", "delta_ck"):
        assert f'"{key}": [' in out
    params = json.loads(out)["params"]
    assert params["g"] == params["omega_raman"] == pytest.approx(g, rel=1e-11)
    assert params["delta_ck"] == pytest.approx([10.0 * x for x in g], rel=1e-11)


@pytest.mark.parametrize("command", [("budget",), ("verify", "cp3")])
@pytest.mark.parametrize(
    "key,value,named",
    [
        ("g", [1.0, -1.0, 1.0], "g[1]"),
        ("delta_ck", [1.0, 1.0, 0.0], "delta_ck[2]"),
        ("delta_c", -1.0, "delta_c"),
    ],
)
def test_nonpositive_value_exits_two_naming_key_and_index(
    capsys, tmp_path, command, key, value, named
):
    raw = preset_raw("cpw")
    raw[key] = [v * raw[key] for v in value] if isinstance(value, list) else value * raw[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, *command, "--params", str(bad))
    assert code == 2
    assert out == ""
    assert f"{named} must be positive and finite" in err


SWEEP_TAU_CP3 = ("sweep", "--param", "q_factor", "--from", "1e4", "--to", "1e4", "--points", "1")


@pytest.mark.parametrize(
    "command,needed",
    [
        (("budget",), 3),
        (("verify", "cp3"), 3),
        (("verify", "ncp", "-n", "4"), 4),
        (SWEEP_TAU_CP3 + ("--observable", "tau_cp3"), 3),
    ],
)
def test_short_per_qubit_list_exits_two_naming_key_and_count(capsys, tmp_path, command, needed):
    raw = preset_raw("cpw")
    raw["omega_raman"] = [raw["omega_raman"]] * 3
    raw["g"] = [raw["g"]] * (needed - 1)
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, *command, "--params", str(bad))
    assert code == 2
    assert out == ""
    assert f"g has {needed - 1} per-qubit entries, the gate needs {needed}" in err


def test_per_qubit_lists_cover_the_gate_they_build(capsys, tmp_path):
    raw = preset_raw("cpw")
    raw["g"] = raw["omega_raman"] = [raw["g"]] * 2
    path = tmp_path / "two.json"
    path.write_text(json.dumps(raw))
    assert run_json(capsys, "verify", "ntcnot", "-n", "2", "--params", str(path))["passed"]


EVERY_COMMAND = [
    ("verify", "cp3"),
    ("dj", "--variant", "2"),
    SWEEP_TAU_CP3 + ("--observable", "kappa_inv"),
    ("budget",),
    ("squid-g",),
]


def _without_loop_area(raw):
    del raw["squid"]["loop_area_m2"]


def _text_frequency(raw):
    raw["levels"]["nu_21_hz"] = "1.65e10"


def _unknown_qubit_type(raw):
    raw["levels"]["qubit_type"] = "laser"


def _without_ordered_frequency(raw):
    del raw["levels"]["nu_20_hz"]


@pytest.mark.parametrize(
    "spoil,message",
    [
        (_without_loop_area, "missing squid keys: ['loop_area_m2']"),
        (_text_frequency, "levels.nu_21_hz must be a number, got '1.65e10'"),
        (_unknown_qubit_type, "unknown qubit type 'laser'"),
        (_without_ordered_frequency, "squid level validation needs nu_20_hz"),
    ],
)
def test_a_file_is_valid_for_every_command_or_for_none(capsys, tmp_path, spoil, message):
    # every section is parsed when the file loads, whichever command reads it
    raw = preset_raw("squid")
    spoil(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for command in EVERY_COMMAND:
        code, out, err = run_cli(capsys, *command, "--params", str(bad))
        assert (code, out, err) == (2, "", f"gatesim: error: {message}\n"), command


def test_budget_null_squid_value_exits_two(capsys, tmp_path):
    raw = preset_raw("squid")
    raw["squid"]["beta_l"] = None
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "budget", "--params", str(bad))
    assert code == 2
    assert out == ""
    assert "squid.beta_l" in err



def test_out_of_memory_exits_two_with_the_message(capsys, monkeypatch):
    # an infeasible n runs out of memory in numpy; stand in for it without allocating
    from gatesim import cli

    message = "Unable to allocate 16.0 TiB for an array with shape (2199023255552,)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "report", exhausted)
    code, out, err = run_cli(capsys, "verify", "ntcnot", "-n", "3")
    assert code == 2
    assert out == ""
    assert err == f"gatesim: error: {message}\n"


# --- sweep ------------------------------------------------------------------


def parse_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return header, rows


def test_sweep_leakage_monotone_in_detuning(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--param", "delta_ratio", "--from", "10", "--to", "50", "--points", "5",
        "--observable", "leakage3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["delta_ratio", "leakage3"]
    values = [v for _, v in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sweep_fidelity_improves_with_detuning(capsys):
    _, out, _ = run_cli(
        capsys,
        "sweep",
        "--param", "delta_ratio", "--from", "10", "--to", "50", "--points", "3",
        "--observable", "fidelity_full",
    )
    _, rows = parse_csv(out)
    values = [v for _, v in rows]
    assert values[0] >= 0.95
    assert values[0] < values[1] < values[2]


def test_sweep_kappa_linear_in_q(capsys):
    _, out, _ = run_cli(
        capsys,
        "sweep",
        "--param", "q_factor", "--from", "1e4", "--to", "1e5", "--points", "4",
        "--observable", "kappa_inv",
    )
    _, rows = parse_csv(out)
    ratios = [v / q for q, v in rows]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_sweep_single_point(capsys):
    _, out, _ = run_cli(
        capsys,
        "sweep",
        "--param", "omega_ratio", "--from", "10", "--to", "10", "--points", "1",
        "--observable", "tau_cp3",
    )
    _, rows = parse_csv(out)
    assert len(rows) == 1


def test_sweep_several_observables_match_single_runs(capsys):
    sweep = ("sweep", "--param", "delta_ratio", "--from", "10", "--to", "30", "--points", "3")
    _, out, _ = run_cli(capsys, *sweep, "--observable", "leakage3", "tau_cp3")
    header, rows = parse_csv(out)
    assert header == ["delta_ratio", "leakage3", "tau_cp3"]
    for col, name in enumerate(("leakage3", "tau_cp3"), start=1):
        _, single_out, _ = run_cli(capsys, *sweep, "--observable", name)
        _, single = parse_csv(single_out)
        assert [(r[0], r[col]) for r in rows] == single


def test_sweep_leakage3_rejects_unmatched_raman_drive(capsys, tmp_path):
    # the swap needs omega_raman == g, for the leakage3 observable as for fidelity_full
    raw = preset_raw("cpw")
    raw["omega_raman"] = 2.0 * raw["g"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    sweep = ("sweep", "--param", "delta_ratio", "--from", "10", "--to", "10", "--points", "1")
    for observable in ("leakage3", "fidelity_full"):
        code, out, err = run_cli(capsys, *sweep, "--observable", observable, "--params", str(bad))
        assert code == 2
        assert out == ""
        assert "omega_raman == g" in err


def test_sweep_decreasing_range_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--param", "q_factor", "--from", "100", "--to", "10", "--points", "3",
        "--observable", "kappa_inv",
    )
    assert code == 2
    assert "increasing" in err


@pytest.mark.parametrize("flag,other,value", [("--from", "--to", "nan"), ("--to", "--from", "inf")])
def test_sweep_non_finite_bound_rejected(capsys, flag, other, value):
    argv = ("sweep", "--param", "delta_ratio", flag, value, other, "10", "--points", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--observable", "leakage3")
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be a finite number, got '{value}'" in err
    assert "Warning" not in err


# --- dj and squid-g -----------------------------------------------------------


@pytest.mark.parametrize("variant,expected", [(1, "constant"), (4, "balanced")])
def test_dj_command(capsys, variant, expected):
    doc = run_json(capsys, "dj", "--variant", str(variant))
    assert doc["classification"] == expected
    assert doc["probability"] == pytest.approx(1.0, abs=1e-9)


def test_dj_effective_mode(capsys):
    doc = run_json(capsys, "dj", "--variant", "2", "--mode", "simulated_effective")
    assert doc["classification"] == "constant"


def test_squid_g_command(capsys):
    doc = run_json(capsys, "squid-g")
    assert doc["g_per_s"] == pytest.approx(4.3e8, rel=0.05)


def test_squid_g_requires_squid_section(capsys):
    code, _, err = run_cli(capsys, "squid-g", "--params", "presets/cpw.json")
    assert code == 2
    assert "squid" in err


# --- one parser per process ----------------------------------------------------

SWEEP = ("sweep", "--param", "delta_ratio", "--from", "10", "--to", "20", "--points", "2", "--observable")
IN_A_ROW = [
    ("verify", "cp3", "--audit", "--dump-sequence"),
    ("verify", "cp3"),
    (*SWEEP, "fidelity_full", "leakage3", "tau_cp3", "tau_ntcnot", "kappa_inv"),
    (*SWEEP, "tau_cp3"),
    ("budget", "--threshold", "0.05"),
    ("budget",),
    ("verify", "cnot"),
    ("--help",),
]


def test_shared_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    from gatesim import cli

    monkeypatch.setenv("COLUMNS", "100")
    shared = [run_cli(capsys, *argv) for argv in IN_A_ROW]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    fresh = [run_cli(capsys, *argv) for argv in IN_A_ROW]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert "sequence" not in json.loads(shared[1][1])
    assert "phase_audit" not in json.loads(shared[1][1])
    assert shared[3][1].splitlines()[0] == "delta_ratio,tau_cp3"
    assert json.loads(shared[4][1])["threshold"] == 0.05
    assert json.loads(shared[5][1])["threshold"] == 0.1
    assert "invalid choice: 'cnot'" in shared[6][2]
    assert shared[7][1].startswith("usage: gatesim")


def test_documented_reports_repeat_in_one_process(capsys, monkeypatch):
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(repo)
    for path in sorted((repo / "docs" / "expected").glob("*.json")):
        argv = json.loads(path.read_text())["command"].split()[1:]
        proc = subprocess.run(
            [sys.executable, "-m", "gatesim", *argv], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        for _ in range(2):
            assert run_cli(capsys, *argv) == (0, proc.stdout, ""), path.stem
