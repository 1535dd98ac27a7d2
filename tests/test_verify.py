import cmath
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    columns_matrix,
    compose,
    ideal_gate,
    on_array,
    photon_flag,
)
from gatesim import jsonio
from gatesim import linalg as linalg_mod
from gatesim import sequences as sequences_mod
from gatesim import verify as verify_mod
from gatesim.device import DeviceParams
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
from gatesim.verify import ideal_columns, phase_audit, report


# --- ideal gates -------------------------------------------------------------


def ideal_matrix(gate, n):
    """The dense matrix scattered from :func:`ideal_columns`."""
    return columns_matrix(*ideal_columns(gate, n))


@pytest.mark.parametrize(
    "gate,n",
    [(g, n) for g in (GateKind.CP3, GateKind.NCP, GateKind.NTCNOT) for n in range(2, 8)]
    + [(GateKind.TOFFOLI, 3)],
)
def test_ideal_columns_match_dense_references(gate, n):
    rows, signs = ideal_columns(gate, n)
    assert sorted(rows) == list(range(2**n))  # a permutation
    assert np.array_equal(columns_matrix(rows, signs), ideal_gate(gate, n))


def test_ideal_cp3_entries():
    u = ideal_matrix(GateKind.CP3, 3)
    assert u[7, 7] == -1.0
    assert u[3, 3] == 1.0  # |011>: first control low
    assert np.allclose(u @ u, np.eye(8))


def test_ideal_ncp_minus_one_position():
    for n in (2, 3, 4):
        u = ideal_matrix(GateKind.NCP, n)
        diag = np.diag(u)
        assert diag[-1] == -1.0
        assert np.all(diag[:-1] == 1.0)


def test_ideal_ntcnot_flips_pm_on_control_one():
    u = ideal_matrix(GateKind.NTCNOT, 2)
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    got = u @ np.kron([0.0, 1.0], plus)
    assert np.allclose(got, np.kron([0.0, 1.0], minus), atol=1e-14)
    # control low: anything is untouched
    got = u @ np.kron([1.0, 0.0], minus)
    assert np.allclose(got, np.kron([1.0, 0.0], minus), atol=1e-14)


def test_ideal_ntcnot_rejects_single_qubit():
    with pytest.raises(ValueError):
        ideal_columns(GateKind.NTCNOT, 1)
    with pytest.raises(ValueError):
        ideal_columns(GateKind.NCP, 1)


def test_ideal_toffoli_truth_table():
    u = ideal_matrix(GateKind.TOFFOLI, 3)
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
    # D = 131072: the two pi windows are products of local unitaries, and the
    # cavity windows build only the blocks their support reaches (at most
    # 4861 states from the 16 class columns, 35721 from all 256) and nothing
    # of size D, which bounds the traced peak
    seq = ntcnot_sequence(8, cpw_params)
    tracemalloc.start()
    try:
        rep = report(seq, Mode.FULL, samples_per_step=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert rep.process_fidelity == pytest.approx(0.9097429715717522, abs=1e-10)
    assert rep.process_fidelity >= 0.9


def test_sampled_report_on_distinct_targets_keeps_its_memory(cpw_params):
    # targets 2% apart in g, with delta_ck scaled by the same factor squared so
    # every dispersive duration stays equal: no two targets are alike, so all
    # 128 columns walk and each samples its own frequencies; one product over
    # every column of a window, unsliced, takes about 8x this traced peak
    n, g, delta = 7, cpw_params.g, cpw_params.delta_ck
    scale = 1.0 + 0.02 * np.arange(n)
    params = replace(cpw_params, g=tuple(g * scale), delta_ck=tuple(delta * scale**2))
    seq = ntcnot_sequence(n, replace(params, omega_raman=g))
    assert len(verify_mod._orbits(seq)[0]) == 2**n
    tracemalloc.start()
    try:
        rep = report(seq, Mode.FULL, samples_per_step=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rep.process_fidelity == pytest.approx(0.932535155679, abs=1e-12)
    assert rep.max_level3_population == pytest.approx(0.172119912974, abs=1e-12)


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
        seq = build_sequence(GateKind(gate), n, p)
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
    seq = build_sequence(GateKind(gate), n, cpw_params)
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
    seq = build_sequence(GateKind(gate), n, unit_params)
    rep = report(seq, mode, samples_per_step=0)
    comp = seq.space.computational_indices()
    u = compose(seq, mode)
    block = u[np.ix_(comp, comp)]
    ideal = ideal_gate(seq.gate, n)
    fidelity = abs(np.sum(np.conj(ideal) * block)) ** 2 / len(comp) ** 2
    residual = np.max(photon_flag(seq.space) @ np.abs(u[:, comp]) ** 2)
    assert rep.process_fidelity == pytest.approx(fidelity, abs=1e-12)
    assert rep.residual_photon == pytest.approx(residual, abs=1e-12)
    for tol in (1e-10, 0.5):
        exact = report(seq, mode, tol, samples_per_step=0).exact_phase_match
        assert exact == (np.max(np.abs(block - ideal)) <= tol)



@pytest.mark.parametrize("gate,n", [("cp3", 3), ("ntcnot", 3)])
def test_exact_match_counts_ideal_entries_the_walk_misses(unit_params, gate, n):
    # cut short, these sequences leave some columns wholly outside the computational
    # block: every entry the walk holds matches, and only the missed ideal entries are off
    seq = build_sequence(GateKind(gate), n, unit_params)
    for cut in range(1, seq.step_count):
        short = replace(seq, steps=seq.steps[:cut])
        comp = short.space.computational_indices()
        block = compose(short, Mode.ANALYTIC)[np.ix_(comp, comp)]
        deviation = np.max(np.abs(block - ideal_gate(short.gate, n)))
        for tol in (0.5, 1.0):
            exact = report(short, Mode.ANALYTIC, tol, samples_per_step=0).exact_phase_match
            assert exact == (deviation <= tol)


@pytest.mark.parametrize("gate,n", [("cp3", 3), ("ncp", 4), ("ntcnot", 3)])
def test_report_walks_effective_idle_windows_like_compose(unit_params, monkeypatch, gate, n):
    # effective idle phases are local diagonal unitaries ahead of each window,
    # which build_evolutions emits only on request; the walk applies them
    seq = build_sequence(GateKind(gate), n, unit_params)
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
    # closed-form windows act on the support's mixed-radix digits: they build no operator
    seq = build_sequence(GateKind(gate), n, unit_params)

    def forbidden(*args, **kwargs):
        raise AssertionError("closed-form reports must not partition an operator")

    monkeypatch.setattr(linalg_mod, "_partition", forbidden)
    rep = report(seq, mode, samples_per_step=0)
    assert rep.exact_phase_match
    assert rep.process_fidelity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("mode", [Mode.ANALYTIC, Mode.EFFECTIVE])
@pytest.mark.parametrize("gate,n", [("ntcnot", 8), ("ncp", 7), ("ncp", 8)])
def test_closed_form_report_reaches_large_n(cpw_params, gate, n, mode):
    # D = 131072, 32768 and 131072: the walk, domain check included, costs
    # what each column's support holds, and its score forms no 2^n x 2^n block
    seq = build_sequence(GateKind(gate), n, cpw_params)
    tracemalloc.start()
    try:
        rep = report(seq, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.exact_phase_match
    assert rep.n == n
    if mode is Mode.ANALYTIC:
        assert peak < 2**20


# --- column orbits -----------------------------------------------------------


def _single_columns(seq):
    """Every computational column its own orbit: the walk before orbits."""
    return np.arange(2**seq.n), np.ones(2**seq.n)


def _assert_orbit_report_matches_every_column(seq, mode, samples, monkeypatch):
    orbit = report(seq, mode, samples_per_step=samples)
    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_orbits", _single_columns)
        every = report(seq, mode, samples_per_step=samples)
    assert jsonio.json_dumps(asdict(orbit)) == jsonio.json_dumps(asdict(every))
    assert orbit.exact_phase_match == every.exact_phase_match
    for field in ("process_fidelity", "max_level3_population", "residual_photon"):
        assert abs(getattr(orbit, field) - getattr(every, field)) <= 1e-12


def _at_ratio(params, ratio):
    """``params`` with the detunings and the resonant drive at ``ratio`` times ``g``."""
    g = params.g_at(0)
    return replace(params, delta_c=ratio * g, delta_ck=ratio * g, omega_resonant=ratio * g)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("ratio", [10.0, 20.0])
@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_report_matches_every_column(cpw_params, monkeypatch, n, ratio, mode):
    # cpw is the 10 g point; identical targets make ntcnot walk 2n columns
    seq = ntcnot_sequence(n, _at_ratio(cpw_params, ratio))
    assert len(verify_mod._orbits(seq)[0]) == 2 * n
    _assert_orbit_report_matches_every_column(seq, mode, 64, monkeypatch)


@given(
    n=st.integers(min_value=2, max_value=5),
    mode=st.sampled_from(list(Mode)),
    g=st.tuples(*[st.floats(min_value=0.8, max_value=1.25)] * 2),
    target_raman=st.floats(min_value=0.8, max_value=1.25),
    ratios=st.tuples(*[st.floats(min_value=10.0, max_value=40.0)] * 3),
)
@settings(max_examples=30, deadline=None)
def test_orbit_report_matches_every_column_on_uniform_targets(n, mode, g, target_raman, ratios):
    # the control may differ from the targets, which share every value exactly;
    # its raman swap needs omega_raman == g, a target's drive is free
    delta_c, delta_ck, omega_resonant = (r * g[1] for r in ratios)
    params = DeviceParams(
        g=(g[0],) + (g[1],) * (n - 1),
        delta_c=delta_c,
        delta_ck=delta_ck,
        omega_raman=(g[0],) + (target_raman,) * (n - 1),
        omega_resonant=omega_resonant,
        gamma2_inv=1.0,
        quality_q=1e5,
        nu_c=1.0,
    )
    seq = ntcnot_sequence(n, params)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_orbit_report_matches_every_column(seq, mode, 16, monkeypatch)


@pytest.mark.parametrize("n", range(2, 13))
def test_orbits_are_the_ntcnot_classes(unit_params, n):
    labels, sizes = verify_mod._orbits(ntcnot_sequence(n, unit_params))
    assert sizes.sum() == 2**n
    control, set_targets = labels >> (n - 1), np.bitwise_count(labels % 2 ** (n - 1))
    classes = sorted(zip(control, set_targets))
    assert classes == [(c, m) for c in (0, 1) for m in range(n)]  # one label per class
    assert list(sizes) == [math.comb(n - 1, m) for _, m in zip(control, set_targets)]
    signs = ideal_columns(GateKind.NTCNOT, n)[1][labels]
    assert np.array_equal(signs, (-1.0) ** (control * set_targets))


@pytest.mark.parametrize("field", ["g", "delta_ck", "omega_raman"])
@pytest.mark.parametrize("n", [3, 5])
def test_orbits_fall_back_to_single_columns_on_one_ulp(unit_params, monkeypatch, field, n):
    # one target off by one ulp breaks the symmetry: every column walks alone
    value = getattr(unit_params, field)
    odd = (value,) * (n - 1) + (np.nextafter(value, np.inf),)
    seq = ntcnot_sequence(n, replace(unit_params, **{field: odd}))
    labels, sizes = verify_mod._orbits(seq)
    assert np.array_equal(labels, np.arange(2**n)) and np.array_equal(sizes, np.ones(2**n))
    walked = []
    apply = verify_mod.apply_evolutions

    def watched(evolutions, space, state):
        walked.append(state.col.max() + 1)
        return apply(evolutions, space, state)

    monkeypatch.setattr(verify_mod, "apply_evolutions", watched)
    report(seq, Mode.ANALYTIC)
    assert set(walked) == {2**n}


@pytest.mark.parametrize("gate,n", [("cp3", 3), ("toffoli", 3), ("ncp", 4), ("ncp", 5)])
def test_orbits_are_single_columns_for_other_gates(unit_params, gate, n):
    labels, sizes = verify_mod._orbits(build_sequence(GateKind(gate), n, unit_params))
    assert np.array_equal(labels, np.arange(2**n)) and np.array_equal(sizes, np.ones(2**n))


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
    seq = build_sequence(GateKind(gate), n, params, cavity_dim)
    _assert_branch_phases_match_composition(seq)


@pytest.mark.parametrize("gate,n", [("ncp", 5), ("ntcnot", 7)])
def test_audit_walks_levels_not_state_vectors(unit_params, monkeypatch, gate, n):
    seq = build_sequence(GateKind(gate), n, unit_params)

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
