import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_operator, propagator, tensor_embed
from gatesim.device import Role
from gatesim.hamiltonians import (
    cavity_ladder,
    idle_coupling_local,
    raman_effective_local,
    raman_full_local,
    resonant_drive_local,
)
from gatesim.linalg import HilbertSpace, process_fidelity
from gatesim.pulses import Mode, PulseKind, make_pulse, pulse_local_hamiltonian

CAV = 3


def space1(cavity=CAV):
    return HilbertSpace.for_qubits(1, cavity)


def idx(level, n, cavity=CAV):
    return level * cavity + n


def resonant_drive_1q(omega, phi, j, space):
    return dense_operator(space, tensor_embed(resonant_drive_local(omega, phi, j), space, (0,)))


# --- structure -------------------------------------------------------------


def test_cavity_ladder():
    a = cavity_ladder(3)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(math.sqrt(2.0))
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), [0.0, 1.0, 2.0])


@pytest.mark.parametrize("role", [Role.EMITTER, Role.ABSORBER])
def test_builders_are_hermitian(unit_params, role):
    for local in (
        raman_full_local(unit_params, 0, role, CAV),
        raman_effective_local(unit_params, 0, role, CAV),
        idle_coupling_local(unit_params, 0, Role.TARGET, CAV, full=False),
        resonant_drive_local(10.0, 0.7, role.pulse_level),
        idle_coupling_local(unit_params, 0, role, CAV, full=True),
        idle_coupling_local(unit_params, 0, role, CAV, full=False),
    ):
        assert np.max(np.abs(local - local.conj().T)) < 1e-14


@pytest.mark.parametrize("role", [Role.EMITTER, Role.ABSORBER])
def test_raman_full_is_idle_coupling_minus_drive(unit_params, role):
    params = replace(unit_params, g=(1.0, 1.3), omega_raman=(1.0, 1.3))
    j = role.pulse_level
    for slot in (0, 1):
        drive = np.zeros((4, 4), dtype=complex)
        drive[j, 3] = drive[3, j] = params.omega_raman_at(slot)
        expected = idle_coupling_local(params, slot, role, CAV, full=True)
        expected -= np.kron(drive, np.eye(CAV))
        assert np.array_equal(raman_full_local(params, slot, role, CAV), expected)


def test_dispersive_is_idle_coupling_of_target(unit_params):
    params = replace(unit_params, g=(1.0, 1.3), delta_ck=(10.0, 17.0))
    roles = (Role.TARGET, Role.TARGET)
    for slot in (0, 1):
        pulse = make_pulse(PulseKind.DISPERSIVE_PHASE, slot, params, roles)
        local = pulse_local_hamiltonian(pulse, params, roles, CAV, Mode.EFFECTIVE)
        expected = idle_coupling_local(params, slot, Role.TARGET, CAV, full=False)
        assert np.array_equal(local, expected)


def test_raman_builders_reject_target_role(unit_params):
    with pytest.raises(ValueError):
        raman_full_local(unit_params, 0, Role.TARGET, CAV)
    with pytest.raises(ValueError):
        raman_effective_local(unit_params, 0, Role.TARGET, CAV)


# --- first-principles Raman Hamiltonian ------------------------------------


@pytest.mark.parametrize("role,j", [(Role.EMITTER, 1), (Role.ABSORBER, 0)])
def test_raman_full_matrix_elements(unit_params, role, j):
    h = raman_full_local(unit_params, 0, role, CAV)
    omega = unit_params.omega_raman_at(0)
    g = unit_params.g_at(0)
    # drive leg: magnitude omega on |3,n><j,n|, carrying the phase-pi sign
    for n in range(CAV):
        assert h[idx(3, n), idx(j, n)] == pytest.approx(-omega)
        assert abs(h[idx(3, n), idx(j, n)]) == pytest.approx(omega)
    # cavity leg: bosonic enhancement sqrt(n+1)
    for n in range(CAV - 1):
        assert h[idx(2, n + 1), idx(3, n)] == pytest.approx(g * math.sqrt(n + 1))
    # detuning sits on level 3 alone
    assert h[idx(3, 0), idx(3, 0)] == pytest.approx(unit_params.delta_c)
    assert h[idx(2, 1), idx(2, 1)] == 0.0


def test_adiabatic_elimination_reproduces_effective_coefficients(unit_params):
    # Second-order elimination of level 3 from the full Hamiltonian, computed
    # independently: shift_a = -|<3|V|a>|^2/delta, cross = <2,1|V|3,0><3,0|V|1,0>/(-delta).
    role = Role.EMITTER
    h_full = raman_full_local(unit_params, 0, role, CAV)
    h_eff = raman_effective_local(unit_params, 0, role, CAV)
    delta = unit_params.delta_c
    i10, i21, i30 = idx(1, 0), idx(2, 1), idx(3, 0)
    shift_1 = -abs(h_full[i30, i10]) ** 2 / delta
    shift_2 = -abs(h_full[i30, i21]) ** 2 / delta
    cross = h_full[i21, i30] * h_full[i30, i10] / (-delta)
    assert h_eff[i10, i10] == pytest.approx(shift_1)
    assert h_eff[i21, i21] == pytest.approx(shift_2)
    assert h_eff[i21, i10] == pytest.approx(cross)
    # the reference magnitudes at omega = g
    g = unit_params.g_at(0)
    assert shift_1 == pytest.approx(-(g**2) / delta)
    assert cross == pytest.approx(+(g**2) / delta)


# --- effective Raman Hamiltonian -------------------------------------------


@pytest.mark.parametrize("role,j", [(Role.EMITTER, 1), (Role.ABSORBER, 0)])
def test_raman_effective_diagonal(unit_params, role, j):
    h = raman_effective_local(unit_params, 0, role, CAV)
    omega = unit_params.omega_raman_at(0)
    delta = unit_params.delta_c
    assert h[idx(j, 0), idx(j, 0)] == pytest.approx(-(omega**2) / delta)
    assert h[idx(2, 0), idx(2, 0)] == 0.0  # photon-number operator on vacuum


def test_raman_effective_flip_block_is_degenerate(unit_params):
    # with omega = g the two flip states share the light shift -g^2/delta;
    # the 2x2 eigensplitting is then exactly 2 g^2/delta
    h = raman_effective_local(unit_params, 0, Role.EMITTER, CAV)
    block = h[np.ix_([idx(1, 0), idx(2, 1)], [idx(1, 0), idx(2, 1)])]
    g = unit_params.g_at(0)
    a = g**2 / unit_params.delta_c
    assert block[0, 0] == pytest.approx(block[1, 1])
    w = np.linalg.eigvalsh(block)
    assert w[1] - w[0] == pytest.approx(2.0 * a)
    # full population transfer time implied by the splitting
    assert math.pi / (w[1] - w[0]) == pytest.approx(
        math.pi * unit_params.delta_c / (2.0 * g**2)
    )


def test_raman_effective_conserves_excitation(unit_params):
    # photon number plus occupation of the role's pulse level commutes with H
    space = space1()
    for role in (Role.EMITTER, Role.ABSORBER):
        h = raman_effective_local(unit_params, 0, role, CAV)
        j = role.pulse_level
        proj = np.zeros((4, 4))
        proj[j, j] = 1.0
        a = cavity_ladder(CAV)
        n_full = tensor_embed(np.kron(np.eye(4), a.conj().T @ a), space, (0, 1))
        n_full += tensor_embed(np.kron(proj, np.eye(CAV)), space, (0, 1))
        assert np.max(np.abs(h @ n_full - n_full @ h)) < 1e-12


# --- dispersive Hamiltonian -------------------------------------------------


def test_dispersive_eigenvalues(unit_params):
    h = idle_coupling_local(unit_params, 0, Role.TARGET, CAV, full=False)
    g = unit_params.g_at(0)
    delta = unit_params.delta_ck_at(0)
    assert h[idx(2, 0), idx(2, 0)] == 0.0  # vacuum
    assert h[idx(2, 1), idx(2, 1)] == pytest.approx(-(g**2) / delta)
    assert h[idx(3, 2), idx(3, 2)] == pytest.approx(2.0 * g**2 / delta)
    # diagonal operator
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


# --- resonant drive ---------------------------------------------------------


def test_resonant_drive_rejects_auxiliary_levels():
    for j in (2, 3):
        with pytest.raises(ValueError):
            resonant_drive_local(1.0, 0.0, j)


def test_resonant_drive_closed_form(unit_params):
    # propagator must reproduce cos/sin rotation with the e^{+-i phi} weights
    space = space1()
    omega, phi, j = 10.0, 0.9, 1
    h = resonant_drive_1q(omega, phi, j, space)
    tau = 0.123
    u = propagator(h, tau)
    c, s = math.cos(omega * tau), math.sin(omega * tau)
    got_jj = u[space.index((j, 0)), space.index((j, 0))]
    got_2j = u[space.index((2, 0)), space.index((j, 0))]
    got_j2 = u[space.index((j, 0)), space.index((2, 0))]
    assert got_jj == pytest.approx(c)
    assert got_2j == pytest.approx(-1j * math.e ** (-1j * phi) * s, abs=1e-12)
    assert got_j2 == pytest.approx(-1j * math.e ** (1j * phi) * s, abs=1e-12)


@pytest.mark.parametrize(
    "phi,expect_j,expect_2",
    [
        (math.pi / 2, -1.0, 1.0),  # |j> -> -|2>, |2> -> |j>
        (-math.pi / 2, 1.0, -1.0),  # |j> -> |2>,  |2> -> -|j>
    ],
)
def test_resonant_drive_quarter_period_maps(phi, expect_j, expect_2):
    space = space1()
    omega, j = 10.0, 1
    u = propagator(resonant_drive_1q(omega, phi, j, space), math.pi / (2 * omega))
    assert u[space.index((2, 0)), space.index((j, 0))] == pytest.approx(expect_j, abs=1e-12)
    assert u[space.index((j, 0)), space.index((2, 0))] == pytest.approx(expect_2, abs=1e-12)


def test_resonant_drive_zero_time_identity():
    space = space1()
    u = propagator(resonant_drive_1q(10.0, 0.3, 0, space), 0.0)
    assert np.allclose(u, np.eye(space.total_dim), atol=1e-14)


# --- full vs effective oracle ------------------------------------------------


def comparison_indices(cavity=CAV):
    # elimination-valid states: spectator and flip-block states, no level 3
    keep = [(0, n) for n in range(cavity)] + [(1, 0), (2, 0), (2, 1)]
    return sorted(level * cavity + n for level, n in keep)


def test_full_vs_effective_infidelity_shrinks_with_detuning(unit_params):
    space = space1()
    infidelities = []
    for ratio in (10.0, 20.0, 50.0):
        p = replace(unit_params, delta_c=ratio, delta_ck=ratio)
        t1 = math.pi * p.delta_c / (2.0 * p.g_at(0) ** 2)
        # on one qubit plus the cavity the local generators are the full matrices
        h_full = dense_operator(space, raman_full_local(p, 0, Role.EMITTER, CAV))
        h_eff = dense_operator(space, raman_effective_local(p, 0, Role.EMITTER, CAV))
        u_full = propagator(h_full, t1)
        u_eff = propagator(h_eff, t1)
        fid = process_fidelity(u_eff, u_full, comparison_indices())
        infidelities.append(1.0 - fid)
    assert infidelities[0] < (1.0 / 10.0) ** 2  # O((g/delta)^2) scale
    assert infidelities[0] > infidelities[1] > infidelities[2]
