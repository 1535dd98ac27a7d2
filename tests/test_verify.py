import cmath
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import compose, on_array, photon_flag
from gatesim import linalg as linalg_mod
from gatesim import sequences as sequences_mod
from gatesim import verify as verify_mod
from gatesim.pulses import Mode
from gatesim.sequences import (
    GateKind,
    apply_evolutions,
    build_evolutions,
    build_sequence,
    cp3_sequence,
    ncp_sequence,
    ntcnot_sequence,
    toffoli_sequence,
)
from gatesim.verify import (
    ideal_gate,
    ideal_ncp,
    ideal_ntcnot,
    ideal_toffoli,
    phase_audit,
    report,
)


# --- ideal gates -------------------------------------------------------------


def test_ideal_cp3_entries():
    u = ideal_ncp(3)
    assert u[7, 7] == -1.0
    assert u[3, 3] == 1.0  # |011>: first control low
    assert np.allclose(u @ u, np.eye(8))


def test_ideal_ncp_minus_one_position():
    for n in (2, 3, 4):
        u = ideal_ncp(n)
        diag = np.diag(u)
        assert diag[-1] == -1.0
        assert np.all(diag[:-1] == 1.0)


def test_ideal_ntcnot_flips_pm_on_control_one():
    u = ideal_ntcnot(2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    got = u @ np.kron([0.0, 1.0], plus)
    assert np.allclose(got, np.kron([0.0, 1.0], minus), atol=1e-14)
    # control low: anything is untouched
    got = u @ np.kron([1.0, 0.0], minus)
    assert np.allclose(got, np.kron([1.0, 0.0], minus), atol=1e-14)


def test_ideal_ntcnot_rejects_single_qubit():
    with pytest.raises(ValueError):
        ideal_ntcnot(1)
    with pytest.raises(ValueError):
        ideal_ncp(1)


def test_ideal_toffoli_truth_table():
    u = ideal_toffoli()
    assert u[7, 6] == 1.0 and u[6, 7] == 1.0  # |110> <-> |111>
    assert u[5, 5] == 1.0  # |101> fixed: control pair not satisfied
    assert np.allclose(u @ u, np.eye(8))


# --- gate reports ---------------------------------------------------------------


def test_report_cp3_analytic_is_perfect(unit_params):
    rep = report(cp3_sequence(unit_params), Mode.ANALYTIC)
    assert rep.process_fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.exact_phase_match
    assert rep.max_level3_population < 1e-12
    assert rep.residual_photon < 1e-12
    assert rep.step_count == 7
    assert rep.total_duration_s == pytest.approx(30.2 * math.pi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_report_ntcnot_analytic_is_perfect(unit_params, n):
    rep = report(ntcnot_sequence(n, unit_params), Mode.ANALYTIC)
    assert rep.process_fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.exact_phase_match


def test_report_toffoli_analytic(unit_params):
    rep = report(toffoli_sequence(unit_params), Mode.ANALYTIC)
    assert rep.process_fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.exact_phase_match
    assert rep.step_count == 9


def test_report_cp3_full_mode(unit_params):
    rep = report(cp3_sequence(unit_params), Mode.FULL)
    assert rep.process_fidelity >= 0.90
    assert rep.max_level3_population <= 0.05
    assert rep.residual_photon < 0.02
    assert not rep.exact_phase_match


def test_report_full_ntcnot_n5_at_cpw(cpw_params):
    # D = 2048; per-block spectral propagation keeps this well under a second
    rep = report(ntcnot_sequence(5, cpw_params), Mode.FULL, samples_per_step=0)
    assert rep.process_fidelity == pytest.approx(0.98072954908888, abs=1e-10)
    assert rep.process_fidelity >= 0.9


def test_report_full_ntcnot_n6_at_cpw(cpw_params):
    # D = 8192: windows are built block by block from their terms
    rep = report(ntcnot_sequence(6, cpw_params), Mode.FULL, samples_per_step=0)
    assert rep.process_fidelity == pytest.approx(0.96523910186087, abs=1e-10)
    assert rep.process_fidelity >= 0.9


def test_report_full_ntcnot_n8_at_cpw(cpw_params):
    # D = 131072: the two pi windows are products of local unitaries
    rep = report(ntcnot_sequence(8, cpw_params), Mode.FULL, samples_per_step=0)
    assert rep.process_fidelity == pytest.approx(0.9097429715717522, abs=1e-10)
    assert rep.process_fidelity >= 0.9


def test_report_full_infidelity_improves_with_detuning(unit_params):
    rep10 = report(cp3_sequence(unit_params), Mode.FULL)
    p20 = replace(unit_params, delta_c=20.0, delta_ck=20.0)
    rep20 = report(cp3_sequence(p20), Mode.FULL)
    assert 1.0 - rep20.process_fidelity <= 1.0 - rep10.process_fidelity


def _full_infidelities(params, gate, n):
    """Full-mode infidelity, no sampling, with detunings and resonant drive at 10, 20, 40 g."""
    g = params.g_at(0)
    out = []
    for r in (10.0, 20.0, 40.0):
        p = replace(params, delta_c=r * g, delta_ck=r * g, omega_resonant=r * g)
        seq = build_sequence(GateKind.parse(gate), n, p)
        out.append(1.0 - report(seq, Mode.FULL, samples_per_step=0).process_fidelity)
    return out


@pytest.mark.parametrize("gate,n", [("cp3", 3), ("toffoli", 3), ("ntcnot", 3), ("ntcnot", 4)])
def test_full_mode_tends_to_the_elimination_limit(cpw_params, gate, n):
    # the closed forms eliminate level 3, which is exact as g/delta -> 0: the
    # full-mode infidelity falls with every doubling of the detuning ratio, by
    # at least the (g/delta)^2 factor of 4 (ntcnot 4: 9.8e-3, 6.6e-4, 4.2e-5)
    worse, mid, best = _full_infidelities(cpw_params, gate, n)
    assert worse > 4.0 * mid > 0.0 and mid > 4.0 * best > 0.0


def test_full_ncp4_stays_off_the_elimination_limit(cpw_params):
    # known failure: the waiting absorber's idle phase does not depend on the
    # detuning, so ncp 4 does not tend to its closed form (0.611, 0.619, 0.621)
    assert min(_full_infidelities(cpw_params, "ncp", 4)) > 0.5


@pytest.mark.parametrize("build", [cp3_sequence, toffoli_sequence])
def test_report_sampling_only_observes(unit_params, build):
    # interior samples must not change the propagated states, only the peak
    seq = build(unit_params)
    plain = report(seq, Mode.FULL, samples_per_step=0)
    sampled = report(seq, Mode.FULL, samples_per_step=64)
    assert sampled.process_fidelity == plain.process_fidelity
    assert sampled.residual_photon == plain.residual_photon
    assert sampled.max_level3_population >= plain.max_level3_population


@pytest.mark.parametrize("samples", [0, 16])
@pytest.mark.parametrize("gate,n", [("ntcnot", 5), ("ncp", 4)])
def test_full_report_forms_no_dense_state(cpw_params, monkeypatch, gate, n, samples):
    # every window, Hamiltonian ones included, moves the computational columns
    # as one support of their nonzeros: no state that enters a window holds an
    # exact zero, or as many entries as its columns have basis states
    seq = build_sequence(GateKind.parse(gate), n, cpw_params)
    expected = report(seq, Mode.FULL, samples_per_step=samples)
    entering = []
    propagate, apply_local = linalg_mod.HermitianOperator.propagate, sequences_mod.apply_local

    def watched_propagate(self, state, t):
        entering.append(state)
        return propagate(self, state, t)

    def watched_apply_local(local, space, slots, state):
        entering.append(state)
        return apply_local(local, space, slots, state)

    monkeypatch.setattr(linalg_mod.HermitianOperator, "propagate", watched_propagate)
    monkeypatch.setattr(sequences_mod, "apply_local", watched_apply_local)
    assert report(seq, Mode.FULL, samples_per_step=samples) == expected
    assert entering
    for state in entering:
        assert np.all(state.amp != 0)
        assert state.amp.size < 2**n * seq.space.total_dim


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize(
    "gate,n", [("cp3", 3), ("toffoli", 3), ("ntcnot", 2), ("ntcnot", 3), ("ntcnot", 4), ("ncp", 4)]
)
def test_report_agrees_with_composed_block(unit_params, gate, n, mode):
    seq = build_sequence(GateKind.parse(gate), n, unit_params)
    rep = report(seq, mode, samples_per_step=0)
    comp = seq.space.computational_indices()
    u = compose(seq, mode)
    block = u[np.ix_(comp, comp)]
    fidelity = abs(np.sum(np.conj(ideal_gate(seq.gate, n)) * block)) ** 2 / len(comp) ** 2
    residual = np.max(photon_flag(seq.space) @ np.abs(u[:, comp]) ** 2)
    assert rep.process_fidelity == pytest.approx(fidelity, abs=1e-12)
    assert rep.residual_photon == pytest.approx(residual, abs=1e-12)



@pytest.mark.parametrize("gate,n", [("cp3", 3), ("ncp", 4), ("ntcnot", 3)])
def test_report_walks_effective_idle_windows_like_compose(unit_params, monkeypatch, gate, n):
    # effective idle phases are local diagonal unitaries ahead of each window,
    # which build_evolutions emits only on request; the walk applies them
    seq = build_sequence(GateKind.parse(gate), n, unit_params)
    with_idle = lambda s, m: build_evolutions(s, m, include_idle=True)
    monkeypatch.setattr(verify_mod, "build_evolutions", with_idle)
    rep = report(seq, Mode.EFFECTIVE)
    comp = seq.space.computational_indices()
    u = compose(seq, Mode.EFFECTIVE, include_idle=True)
    block = u[np.ix_(comp, comp)]
    fidelity = abs(np.sum(np.conj(ideal_gate(seq.gate, n)) * block)) ** 2 / len(comp) ** 2
    residual = np.max(photon_flag(seq.space) @ np.abs(u[:, comp]) ** 2)
    assert rep.process_fidelity == pytest.approx(fidelity, abs=1e-12)
    assert rep.residual_photon == pytest.approx(residual, abs=1e-12)
    assert (rep.process_fidelity < 0.5) == (gate == "ncp")  # ncp 4 loses its phase to idles

@pytest.mark.parametrize("mode", [Mode.ANALYTIC, Mode.EFFECTIVE])
@pytest.mark.parametrize("gate,n", [("ncp", 5), ("ntcnot", 5)])
def test_closed_form_report_reads_no_index_map(unit_params, monkeypatch, gate, n, mode):
    # closed-form windows act on the support's mixed-radix digits, not on D-sized maps
    seq = build_sequence(GateKind.parse(gate), n, unit_params)

    def forbidden(*args, **kwargs):
        raise AssertionError("closed-form reports must not build an index map")

    monkeypatch.setattr(linalg_mod, "local_index_map", forbidden)
    rep = report(seq, mode, samples_per_step=0)
    assert rep.exact_phase_match
    assert rep.process_fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("mode", [Mode.ANALYTIC, Mode.EFFECTIVE])
@pytest.mark.parametrize("gate,n", [("ntcnot", 8), ("ncp", 7), ("ncp", 8)])
def test_closed_form_report_reaches_large_n(cpw_params, gate, n, mode):
    # D = 131072, 32768 and 131072: the walk, domain check included, costs
    # what each column's support holds
    rep = report(build_sequence(GateKind.parse(gate), n, cpw_params), mode)
    assert rep.exact_phase_match
    assert rep.n == n

def test_report_to_dict_fields(unit_params):
    d = asdict(report(cp3_sequence(unit_params), Mode.ANALYTIC))
    assert list(d) == [
        "gate",
        "n",
        "mode",
        "process_fidelity",
        "exact_phase_match",
        "max_level3_population",
        "residual_photon",
        "total_duration_s",
        "step_count",
        "tolerance",
    ]


# --- phase audit -----------------------------------------------------------------


def test_condition_ratio_at_reference_point(unit_params):
    # omega = 10 g against max(2 g^2/delta_c, g^2/delta_ck) = 0.2 g -> 50
    audit = phase_audit(cp3_sequence(unit_params))
    assert audit.condition_ratio == pytest.approx(50.0)
    assert audit.negligible


def test_single_pi_window_phase_entry(unit_params):
    # an unpulsed qubit holding |2> with a photon for one pi window picks up
    # g^2 tau / delta = (g/10)(pi/20g) = pi/200
    audit = phase_audit(cp3_sequence(unit_params))
    by_key = {(e["step"], e["qubit"]): e["phase_rad"] for e in audit.step_phases}
    assert by_key[(1, 2)] == pytest.approx(math.pi / 200.0)
    # the target keeps the same rate during the long swap windows too
    assert by_key[(0, 2)] == pytest.approx((1.0 / 10.0) * (math.pi * 10.0 / 2.0))


def test_phases_vanish_with_fast_pi_pulses(unit_params):
    fast = replace(unit_params, omega_resonant=1e6)
    audit = phase_audit(cp3_sequence(fast))
    pi_steps = (1, 5)  # the simultaneous pi-pulse groups
    for entry in audit.step_phases:
        if entry["step"] in pi_steps:
            assert entry["phase_rad"] < 1e-5


def test_cp3_branch_phases(unit_params):
    audit = phase_audit(cp3_sequence(unit_params))
    # photon-present pi windows with level 2 held: two for 1x0/1x1 rows via
    # the emitter (step 1) and re-emitted absorber (step 5)
    assert audit.branch_phases["100"] == pytest.approx(math.pi / 100.0)
    assert audit.branch_phases["110"] == pytest.approx(math.pi / 200.0)
    assert audit.branch_phases["000"] == 0.0


_HETEROGENEOUS = {
    "g": (1.0, 0.9, 1.1, 0.95, 1.05),
    "omega_raman": (1.0, 0.9, 1.1, 0.95, 1.05),
    "delta_ck": (11.0, 9.0, 12.0, 10.5, 9.5),
}


def _assert_branch_phases_match_composition(seq):
    """Two code paths: analytic bookkeeping vs composed idle-phase factors."""
    audit = phase_audit(seq)
    comp = seq.space.computational_indices()
    assert len(audit.branch_phases) == len(comp)
    # the computational columns of the composed unitaries, without forming D x D
    inputs = np.zeros((seq.space.total_dim, len(comp)), dtype=complex)
    inputs[comp, np.arange(len(comp))] = 1.0
    idle = build_evolutions(seq, Mode.EFFECTIVE, include_idle=True)
    plain = build_evolutions(seq, Mode.ANALYTIC)
    u_idle, u_plain = (
        on_array(lambda state: apply_evolutions(evos, seq.space, state), seq.space, inputs)
        for evos in (idle, plain)
    )
    for k in range(len(comp)):
        label = seq.space.computational_label(k)
        out_idx = int(np.argmax(np.abs(u_plain[:, k])))
        measured = cmath.phase(u_idle[out_idx, k] / u_plain[out_idx, k])
        booked = audit.branch_phases[label]
        diff = cmath.phase(cmath.exp(1j * (measured - booked)))
        assert abs(diff) < 1e-8


def test_branch_phases_match_factorized_composition(unit_params):
    _assert_branch_phases_match_composition(ncp_sequence(4, unit_params))


@pytest.mark.parametrize(
    "gate,n,cavity_dim,device",
    [
        ("ncp", 4, 2, "heterogeneous"),
        ("ncp", 5, 2, "heterogeneous"),
        ("ncp", 4, 3, "heterogeneous"),
        ("ntcnot", 4, 2, "uniform"),
        ("ntcnot", 4, 2, "heterogeneous"),
        ("ntcnot", 3, 3, "heterogeneous"),
        ("cp3", 3, 2, "heterogeneous"),
        ("cp3", 3, 3, "uniform"),
    ],
)
def test_branch_phases_match_factorized_composition_across_devices(
    unit_params, gate, n, cavity_dim, device
):
    params = replace(unit_params, **_HETEROGENEOUS) if device == "heterogeneous" else unit_params
    seq = build_sequence(GateKind.parse(gate), n, params, cavity_dim)
    _assert_branch_phases_match_composition(seq)


@pytest.mark.parametrize("gate,n", [("ncp", 5), ("ntcnot", 7)])
def test_audit_walks_levels_not_state_vectors(unit_params, monkeypatch, gate, n):
    seq = build_sequence(GateKind.parse(gate), n, unit_params)

    def forbidden(*args, **kwargs):
        raise AssertionError("the phase audit must not propagate state vectors")

    monkeypatch.setattr(verify_mod, "apply_evolutions", forbidden)
    monkeypatch.setattr(linalg_mod, "apply_local", forbidden)
    monkeypatch.setattr(sequences_mod, "apply_local", forbidden)
    assert len(phase_audit(seq).branch_phases) == 2**n


def test_ntcnot_branch_phases_count_both_pi_windows(unit_params):
    audit = phase_audit(ntcnot_sequence(3, unit_params))
    # |111>: the control holds |2> through the first pi window, both targets
    # hold |2> through the second, photon present throughout
    assert audit.branch_phases["111"] == pytest.approx(3.0 * math.pi / 200.0)
    assert audit.branch_phases["000"] == 0.0


def test_audit_omits_superposition_branches(unit_params):
    # behind a Hadamard the analytic chain is no longer a basis-state walk,
    # so per-branch bookkeeping is omitted instead of guessed
    audit = phase_audit(toffoli_sequence(unit_params))
    assert audit.branch_phases == {}
    assert audit.step_phases  # the per-step potential table is still there


def test_ncp4_audit_exposes_large_idle_absorber_phase(unit_params):
    # row |1100>: the photon sits in the cavity through both swap windows of
    # the first absorber while the second absorber holds |2>, so it books
    # pi/2 per pass, plus one pi/200 pi-pulse window on each side
    audit = phase_audit(ncp_sequence(4, unit_params))
    assert audit.branch_phases["1100"] == pytest.approx(math.pi + 2.0 * math.pi / 200.0)
