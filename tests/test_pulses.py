import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import basis_vector, embedded_pulse, unitarity_defect
from gatesim.device import Role
from gatesim.linalg import HilbertSpace
from gatesim.pulses import (
    Mode,
    PulseKind,
    closed_form_domain,
    make_pulse,
    pulse_duration,
    pulse_local_hamiltonian,
)
from gatesim.verify import (
    elimination_comparison_indices,
    swap_fidelity_vs_full,
    swap_peak_level3,
)

EMITTER = (Role.EMITTER,)
ABSORBER = (Role.ABSORBER,)
TARGET = (Role.TARGET,)


def space1(cavity=3):
    return HilbertSpace.for_qubits(1, cavity)


ALL_BUILDERS = [
    ("emit", lambda p, s, m: embedded_pulse(PulseKind.RAMAN_EMIT, p, EMITTER, 0, s, m)),
    ("absorb", lambda p, s, m: embedded_pulse(PulseKind.RAMAN_ABSORB, p, ABSORBER, 0, s, m)),
    ("gpi", lambda p, s, m: embedded_pulse(PulseKind.DISPERSIVE_PHASE, p, TARGET, 0, s, m)),
    ("pi", lambda p, s, m: embedded_pulse(PulseKind.PI_PULSE, p, TARGET, 0, s, m)),
    ("pidag", lambda p, s, m: embedded_pulse(PulseKind.PI_PULSE_DAG, p, EMITTER, 0, s, m)),
]


@pytest.mark.parametrize("name,build", ALL_BUILDERS)
@pytest.mark.parametrize("mode", list(Mode))
def test_every_primitive_is_unitary(unit_params, name, build, mode):
    u = build(unit_params, space1(), mode)
    assert unitarity_defect(u) < 1e-10


def test_hadamard_is_unitary(unit_params):
    u = embedded_pulse(PulseKind.HADAMARD, unit_params, TARGET, 0, space1())
    assert unitarity_defect(u) < 1e-12


# --- durations ---------------------------------------------------------------


def test_durations_match_formulas(unit_params):
    g = unit_params.g_at(0)
    assert pulse_duration(PulseKind.RAMAN_EMIT, 0, unit_params, EMITTER) == pytest.approx(
        math.pi * unit_params.delta_c / (2 * g**2)
    )
    assert pulse_duration(PulseKind.RAMAN_ABSORB, 0, unit_params, ABSORBER) == pytest.approx(
        math.pi * unit_params.delta_c / (2 * g**2)
    )
    assert pulse_duration(PulseKind.DISPERSIVE_PHASE, 0, unit_params, TARGET) == pytest.approx(
        math.pi * unit_params.delta_ck_at(0) / g**2
    )
    assert pulse_duration(PulseKind.PI_PULSE, 0, unit_params, TARGET) == pytest.approx(
        math.pi / (2 * unit_params.omega_resonant)
    )
    assert pulse_duration(PulseKind.HADAMARD, 0, unit_params, TARGET) == 0.0


def test_wrong_role_rejected(unit_params):
    with pytest.raises(ValueError):
        embedded_pulse(PulseKind.RAMAN_EMIT, unit_params, ABSORBER, 0, space1())
    with pytest.raises(ValueError):
        embedded_pulse(PulseKind.RAMAN_ABSORB, unit_params, TARGET, 0, space1())
    with pytest.raises(ValueError):
        embedded_pulse(PulseKind.DISPERSIVE_PHASE, unit_params, EMITTER, 0, space1())


@pytest.mark.parametrize(
    "kind,mode",
    [
        (PulseKind.RAMAN_EMIT, Mode.ANALYTIC),
        (PulseKind.HADAMARD, Mode.EFFECTIVE),
        (PulseKind.HADAMARD, Mode.FULL),
    ],
)
def test_pulse_without_generator_rejected(unit_params, kind, mode):
    pulse = make_pulse(kind, 0, unit_params, EMITTER)
    with pytest.raises(ValueError, match="generator"):
        pulse_local_hamiltonian(pulse, unit_params, EMITTER, 3, mode)


def test_unmatched_raman_drive_rejected(unit_params):
    mismatched = replace(unit_params, omega_raman=2.0)
    with pytest.raises(ValueError):
        make_pulse(PulseKind.RAMAN_EMIT, 0, mismatched, EMITTER)


# --- analytic action tables ---------------------------------------------------


def test_emit_swap_table(unit_params):
    space = space1()
    u = embedded_pulse(PulseKind.RAMAN_EMIT, unit_params, EMITTER, 0, space)
    assert u[space.index((2, 1)), space.index((1, 0))] == 1.0  # |1,0> -> |2,1>
    assert u[space.index((1, 0)), space.index((2, 1))] == 1.0
    assert u[space.index((0, 0)), space.index((0, 0))] == 1.0  # |0,0> fixed
    # involution on the flip block
    sq = u @ u
    assert np.allclose(sq, np.eye(space.total_dim), atol=1e-14)


def test_absorb_swap_table(unit_params):
    space = space1()
    u = embedded_pulse(PulseKind.RAMAN_ABSORB, unit_params, ABSORBER, 0, space)
    assert u[space.index((0, 0)), space.index((2, 1))] == 1.0  # |2,1> -> |0,0>
    assert u[space.index((2, 1)), space.index((0, 0))] == 1.0
    for n in (0, 1):  # spectator level 1 untouched at any photon number
        i = space.index((1, n))
        assert u[i, i] == 1.0
    out = u @ basis_vector(space, (2, 1))
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_dispersive_phase_table(unit_params):
    space = space1()
    u = embedded_pulse(PulseKind.DISPERSIVE_PHASE, unit_params, TARGET, 0, space)
    assert u[space.index((2, 1)), space.index((2, 1))] == -1.0
    assert u[space.index((3, 1)), space.index((3, 1))] == -1.0
    assert u[space.index((0, 1)), space.index((0, 1))] == 1.0
    assert u[space.index((2, 0)), space.index((2, 0))] == 1.0
    assert np.allclose(u @ u, np.eye(space.total_dim), atol=1e-14)


@pytest.mark.parametrize(
    "roles,j", [(EMITTER, 1), (ABSORBER, 0), (TARGET, 1)]
)
def test_pi_pulse_maps_by_role(unit_params, roles, j):
    space = space1()
    r = embedded_pulse(PulseKind.PI_PULSE, unit_params, roles, 0, space)
    rdag = embedded_pulse(PulseKind.PI_PULSE_DAG, unit_params, roles, 0, space)
    assert r[space.index((j, 0)), space.index((2, 0))] == 1.0  # |2> -> |j>
    assert r[space.index((2, 0)), space.index((j, 0))] == -1.0  # |j> -> -|2>
    assert rdag[space.index((2, 0)), space.index((j, 0))] == 1.0  # |j> -> |2>
    assert rdag[space.index((j, 0)), space.index((2, 0))] == -1.0  # |2> -> -|j>
    assert np.allclose(r @ rdag, np.eye(space.total_dim), atol=1e-14)  # inverse pair


def test_hadamard_table(unit_params):
    space = space1()
    h = embedded_pulse(PulseKind.HADAMARD, unit_params, TARGET, 0, space)
    s = 1 / math.sqrt(2)
    plus = s * (basis_vector(space, (0, 0)) + basis_vector(space, (1, 0)))
    minus = s * (basis_vector(space, (0, 0)) - basis_vector(space, (1, 0)))
    assert np.allclose(h @ basis_vector(space, (0, 0)), plus, atol=1e-14)
    assert np.allclose(h @ minus, basis_vector(space, (1, 0)), atol=1e-14)
    assert np.allclose(h @ h, np.eye(space.total_dim), atol=1e-14)
    assert h[space.index((2, 0)), space.index((2, 0))] == 1.0


# --- analytic vs simulated -----------------------------------------------------


@pytest.mark.parametrize(
    "roles,kind",
    [(EMITTER, PulseKind.RAMAN_EMIT), (ABSORBER, PulseKind.RAMAN_ABSORB)],
    ids=lambda v: v.value if isinstance(v, PulseKind) else None,
)
def test_raman_analytic_equals_effective_on_closed_form_domain(unit_params, roles, kind):
    space = space1()
    ua = embedded_pulse(kind, unit_params, roles, 0, space, Mode.ANALYTIC)
    ue = embedded_pulse(kind, unit_params, roles, 0, space, Mode.EFFECTIVE)
    domain = closed_form_domain(roles[0], space.cavity_dim)
    assert np.max(np.abs(ua[:, domain] - ue[:, domain])) <= 1e-10


def test_dispersive_analytic_equals_effective_everywhere(unit_params):
    space = space1()
    ua = embedded_pulse(PulseKind.DISPERSIVE_PHASE, unit_params, TARGET, 0, space, Mode.ANALYTIC)
    ue = embedded_pulse(PulseKind.DISPERSIVE_PHASE, unit_params, TARGET, 0, space, Mode.EFFECTIVE)
    assert np.max(np.abs(ua - ue)) <= 1e-10


@pytest.mark.parametrize("dagger", [False, True])
def test_pi_pulse_analytic_equals_simulated_everywhere(unit_params, dagger):
    space = space1()
    kind = PulseKind.PI_PULSE_DAG if dagger else PulseKind.PI_PULSE
    ua = embedded_pulse(kind, unit_params, EMITTER, 0, space, Mode.ANALYTIC)
    for mode in (Mode.EFFECTIVE, Mode.FULL):
        us = embedded_pulse(kind, unit_params, EMITTER, 0, space, mode)
        assert np.max(np.abs(ua - us)) <= 1e-10


def test_full_emit_matches_analytic_at_large_detuning(unit_params):
    fid10 = swap_fidelity_vs_full(unit_params)
    fid20 = swap_fidelity_vs_full(replace(unit_params, delta_c=20.0, delta_ck=20.0))
    fid50 = swap_fidelity_vs_full(replace(unit_params, delta_c=50.0, delta_ck=50.0))
    assert fid10 >= 0.95
    assert fid10 < fid20 < fid50  # adiabatic-elimination error shrinks


def test_full_emit_peak_level3_bounded(unit_params):
    g = unit_params.g_at(0)
    bound = 4.0 * g**2 / unit_params.delta_c**2  # leading-order transient
    peak = swap_peak_level3(unit_params)
    assert peak <= bound + 0.01
    assert peak <= 0.05
    assert peak > bound / 4.0  # the transient is real, not an artifact


@pytest.mark.parametrize(
    "preset,peak,fidelity",
    [
        ("cpw", 0.03703703702630763, 0.9994853277238236),
        ("squid", 0.037037037026307285, 0.9994853277238236),
    ],
)
def test_swap_observables_at_the_presets(request, preset, peak, fidelity):
    # the sweep's leakage3 and fidelity_full at each preset's working point
    params = request.getfixturevalue(f"{preset}_params")
    assert abs(swap_peak_level3(params) - peak) <= 1e-12
    assert abs(swap_fidelity_vs_full(params) - fidelity) <= 1e-12


def test_elimination_indices_exclude_level3():
    for i in elimination_comparison_indices(3):
        assert i // 3 != 3


def test_cavity_free_primitives_commute_exactly_across_slots(unit_params):
    # pi pulses never touch the cavity, so across slots the supports really
    # are disjoint and the matrices commute entrywise
    space = HilbertSpace.for_qubits(2, 2)
    roles = (Role.ABSORBER, Role.TARGET)
    g2 = embedded_pulse(PulseKind.RAMAN_ABSORB, unit_params, roles, 0, space)
    r = embedded_pulse(PulseKind.PI_PULSE, unit_params, roles, 1, space)
    assert np.array_equal(g2 @ r, r @ g2)


def test_swap_and_dispersive_commute_on_protocol_states(unit_params):
    # both couple to the shared cavity, so they only commute where the
    # dispersive qubit sits in its logical levels; that covers every state
    # the protocols visit
    space = HilbertSpace.for_qubits(2, 2)
    roles = (Role.ABSORBER, Role.TARGET)
    g2 = embedded_pulse(PulseKind.RAMAN_ABSORB, unit_params, roles, 0, space)
    gpi = embedded_pulse(PulseKind.DISPERSIVE_PHASE, unit_params, roles, 1, space)
    comm = g2 @ gpi - gpi @ g2
    logical = [
        space.index((l0, l1, n))
        for l0 in range(4)
        for l1 in (0, 1)
        for n in range(2)
    ]
    assert np.max(np.abs(comm[:, logical])) == 0.0
    # and they genuinely fail to commute once the target holds level 2
    bad = space.index((0, 2, 0))
    assert np.max(np.abs(comm[:, bad])) > 1.0
