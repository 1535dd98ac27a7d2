import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesim.budget import (
    FLUX_QUANTUM,
    LevelStructure,
    cavity_lifetime,
    conventional_step_count,
    feasibility,
    levels_from_dict,
    squid_coupling,
    squid_coupling_breakdown,
    squid_from_dict,
    step_count,
    time_cp3,
    time_ntcnot,
    validate_levels,
)
from gatesim.device import ConfigError
from gatesim.sequences import GateKind

US = 1e-6


# --- gate times ---------------------------------------------------------------


def test_cp3_time_in_units_of_pi_over_g(unit_params):
    assert time_cp3(unit_params) == pytest.approx(30.2 * math.pi, rel=1e-12)


def test_ntcnot_time_in_units_of_pi_over_g(unit_params):
    assert time_ntcnot(unit_params) == pytest.approx(20.1 * math.pi, rel=1e-12)


def test_cpw_gate_times(cpw_params):
    assert time_cp3(cpw_params) == pytest.approx(0.068 * US, rel=0.02)
    assert time_ntcnot(cpw_params) == pytest.approx(0.045 * US, rel=0.02)


def test_squid_gate_times(squid_params):
    # the quoted 0.219 us is a rounding of the formula's 0.2206 us
    assert time_cp3(squid_params) == pytest.approx(0.219 * US, rel=0.02)
    assert time_cp3(squid_params) == pytest.approx(0.2206 * US, rel=1e-3)
    assert time_ntcnot(squid_params) == pytest.approx(0.146 * US, rel=0.02)


def test_ntcnot_time_has_no_qubit_count(unit_params):
    from gatesim.sequences import ntcnot_sequence

    base = time_ntcnot(unit_params)
    for n in range(2, 7):
        assert ntcnot_sequence(n, unit_params).total_duration == pytest.approx(base)


# --- cavity lifetime ------------------------------------------------------------


def test_cavity_lifetimes():
    assert cavity_lifetime(1e5, 3e9) == pytest.approx(5.3 * US, rel=0.02)
    assert cavity_lifetime(1e5, 3.6e9) == pytest.approx(4.42 * US, rel=0.02)


@given(st.floats(min_value=1e2, max_value=1e8), st.floats(min_value=1e8, max_value=1e11))
@settings(max_examples=30, deadline=None)
def test_cavity_lifetime_linear_in_q(q, nu):
    assert cavity_lifetime(2.0 * q, nu) == pytest.approx(2.0 * cavity_lifetime(q, nu))


def test_cavity_lifetime_rejects_nonpositive():
    with pytest.raises(ValueError):
        cavity_lifetime(0.0, 3e9)


# --- SQUID coupling ----------------------------------------------------------------


def test_flux_quantum_value():
    assert FLUX_QUANTUM == pytest.approx(2.067833848e-15, rel=1e-9)


def test_squid_coupling_reference_value(squid_raw):
    sq = squid_from_dict(squid_raw["squid"])
    assert squid_coupling(sq) == pytest.approx(4.3e8, rel=0.05)


def test_squid_breakdown_is_consistent(squid_raw):
    sq = squid_from_dict(squid_raw["squid"])
    b = squid_coupling_breakdown(sq)
    rebuilt = (
        (1.0 / sq.loop_inductance)
        * b["mode_prefactor"]
        * sq.coupling_matrix_element
        * b["flux_quantum_wb"]
        * b["field_integral_wb_m"]
    )
    assert b["g_per_s"] == pytest.approx(rebuilt)


@given(st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_squid_coupling_scalings(squid_raw, factor):
    sq = squid_from_dict(squid_raw["squid"])
    g0 = squid_coupling(sq)

    def scaled(**kw):
        raw = dict(squid_raw["squid"])
        mapping = {
            "loop_area": "loop_area_m2",
            "coupling_matrix_element": "coupling_matrix_element",
            "antinode_factor": "antinode_factor",
            "loop_inductance": "loop_inductance_h",
        }
        for attr, value in kw.items():
            raw[mapping[attr]] = value
        return squid_coupling(squid_from_dict(raw))

    assert scaled(loop_area=sq.loop_area * factor) == pytest.approx(g0 * factor)
    assert scaled(
        coupling_matrix_element=sq.coupling_matrix_element * factor
    ) == pytest.approx(g0 * factor)
    assert scaled(loop_inductance=sq.loop_inductance * factor) == pytest.approx(g0 / factor)


def test_squid_antinode_bounds(squid_raw):
    raw = dict(squid_raw["squid"])
    raw["antinode_factor"] = 1.5
    with pytest.raises(ConfigError):
        squid_from_dict(raw)


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("squid", "beta_l", None),
        ("squid", "beta_l", "1.1"),
        ("squid", "antinode_factor", True),
        ("squid", "cavity_frequency_hz", float("nan")),
        ("levels", "nu_21_hz", "1e10"),
        ("levels", "nu_21_hz", float("nan")),
        ("levels", "nu_21_hz", -1),
        ("levels", "nu_10_hz", 0),
        ("levels", "qubit_type", ["squid"]),
    ],
)
def test_section_values_rejected_naming_the_key(squid_raw, section, key, value):
    raw = dict(squid_raw[section])
    raw[key] = value
    parse = squid_from_dict if section == "squid" else levels_from_dict
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        parse(raw)


@pytest.mark.parametrize("value", [None, [1, 2], "beta_l"])
@pytest.mark.parametrize("parse,section", [(squid_from_dict, "squid"), (levels_from_dict, "levels")])
def test_section_must_be_an_object(parse, section, value):
    with pytest.raises(ConfigError, match=f"{section} section must be a JSON object"):
        parse(value)


def test_squid_missing_key(squid_raw):
    raw = dict(squid_raw["squid"])
    del raw["loop_area_m2"]
    with pytest.raises(ConfigError):
        squid_from_dict(raw)


# --- step counts ----------------------------------------------------------------------


def test_step_counts_fixed_gates():
    assert step_count(GateKind.CP3) == 7
    assert step_count(GateKind.TOFFOLI) == 9
    assert conventional_step_count(GateKind.TOFFOLI) == 28
    for n in (2, 5, 10):
        assert step_count(GateKind.NTCNOT, n) == 5


@pytest.mark.parametrize("n,published,grouped", [(3, 7, 7), (4, 11, 9), (5, 15, 11)])
def test_step_counts_ncp_conventions(n, published, grouped):
    assert step_count(GateKind.NCP, n, "published") == published
    assert step_count(GateKind.NCP, n, "grouped") == grouped


def test_step_count_conventional_ncp_formula():
    assert conventional_step_count(GateKind.NCP, 4) == 22 * 4 - 75
    # the published formula goes negative at n = 3; reported verbatim
    assert conventional_step_count(GateKind.NCP, 3) == -9


def test_step_count_errors():
    with pytest.raises(ValueError):
        step_count(GateKind.NCP, 2)
    with pytest.raises(ValueError):
        step_count(GateKind.NCP, 4, "fancy")
    with pytest.raises(ValueError):
        step_count(GateKind.NTCNOT, 1)


# --- feasibility -----------------------------------------------------------------------


def test_cpw_budget_passes(cpw_params):
    rep = feasibility(cpw_params)
    assert rep.passed
    assert rep.ratios["cp3_vs_gamma2"] == pytest.approx(0.0686, rel=0.02)
    assert rep.ratios["cp3_vs_kappa"] < 0.02


def test_squid_budget_passes(squid_params):
    rep = feasibility(squid_params)
    assert rep.passed
    assert rep.ratios["cp3_vs_kappa"] == pytest.approx(0.0499, rel=0.02)


def test_budget_fails_with_short_relaxation(cpw_params):
    rep = feasibility(replace(cpw_params, gamma2_inv=10e-9))
    assert not rep.passed
    assert rep.ratios["cp3_vs_gamma2"] > 1.0


def test_budget_report_fields(cpw_params):
    d = feasibility(cpw_params).to_dict()
    for key in ("tau_cp3_s", "tau_ntcnot_s", "kappa_inv_s", "ratios", "step_counts"):
        assert key in d
    assert d["step_counts"]["ncp_published"]["4"] == 11
    assert d["step_counts"]["ncp_grouped"]["4"] == 9


# --- level-structure validation -----------------------------------------------------------


def test_squid_levels_from_preset_pass(squid_raw):
    ls = levels_from_dict(squid_raw["levels"])
    ok, violations = validate_levels(ls)
    assert ok
    assert violations == []


def test_phase_qubit_violation_is_named():
    ls = LevelStructure(qubit_type="phase", nu_10=1e9, nu_21=2e9, nu_32=0.5e9)
    ok, violations = validate_levels(ls)
    assert not ok
    assert violations == ["nu_10 > nu_21"]


@pytest.mark.parametrize("qubit_type", ["charge", "phase", "flux", "squid"])
def test_equal_frequencies_fail_everywhere(qubit_type):
    ls = LevelStructure(
        qubit_type=qubit_type,
        nu_10=1e9,
        nu_21=1e9,
        nu_32=1e9,
        nu_20=1e9,
        nu_31=1e9,
        nu_30=1e9,
    )
    ok, violations = validate_levels(ls)
    assert not ok
    assert violations


def test_charge_and_flux_orderings():
    charge = LevelStructure(qubit_type="charge", nu_10=5e9, nu_21=7e9, nu_32=3e9)
    assert validate_levels(charge) == (True, [])
    flux = LevelStructure(qubit_type="flux", nu_10=3e9, nu_21=7e9, nu_32=5e9)
    assert validate_levels(flux) == (True, [])


def test_levels_missing_required_frequency():
    ls = LevelStructure(qubit_type="squid", nu_21=2e9, nu_32=1e9)
    with pytest.raises(ConfigError):
        validate_levels(ls)
    with pytest.raises(ConfigError):
        validate_levels(LevelStructure(qubit_type="laser", nu_21=1.0, nu_32=1.0))


# The frequencies that the level orderings of each qubit type compare.
_ORDERED_FREQS = {
    "charge": ("nu_10", "nu_21", "nu_32"),
    "phase": ("nu_10", "nu_21", "nu_32"),
    "flux": ("nu_10", "nu_21", "nu_32"),
    "squid": ("nu_21", "nu_32", "nu_20", "nu_31", "nu_30"),
}


@pytest.mark.parametrize("qubit_type,names", list(_ORDERED_FREQS.items()))
def test_every_compared_frequency_is_required(qubit_type, names):
    # a frequency no ordering reads may be missing; one that an ordering reads may not
    given = {name: 1e9 for name in names}
    ok, violations = validate_levels(LevelStructure(qubit_type=qubit_type, **given))
    assert not ok and violations
    for name in names:
        with pytest.raises(ConfigError, match=f"needs {name}$"):
            validate_levels(LevelStructure(qubit_type=qubit_type, **{**given, name: None}))
