import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_operator, propagator, resonant_drive, tensor_embed
from gatesim import hamiltonians as ham
from gatesim.device import Role
from gatesim.hamiltonians import (
    cavity_ladder,
    idle_coupling_local,
    raman_effective_local,
    raman_full_local,
)
from gatesim.linalg import HilbertSpace, process_fidelity
from gatesim.pulses import Mode, PulseKind, make_pulse, pulse_local_hamiltonian

CAV = 3


def space1(cavity=CAV):
    return HilbertSpace.for_qubits(1, cavity)


def idx(level, n, cavity=CAV):
    return level * cavity + n


def resonant_drive_1q(omega, phi, j, space):
    return dense_operator(space, tensor_embed(resonant_drive(omega, phi, j), space, (0,)))


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
        resonant_drive(10.0, 0.7, role.pulse_level),
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


# --- builders against the Kronecker products they stand for -----------------


def ket_bra(i, j):
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = 1.0
    return m


def kron_reference(name, params, slot, role, cavity_dim):
    """Each builder written out as Kronecker products, term by term in its own order."""
    a = cavity_ladder(cavity_dim)
    a_dag, eye = a.conj().T, np.eye(cavity_dim)
    n_op = a_dag @ a
    g, omega, delta = params.g_at(slot), params.omega_raman_at(slot), params.detuning_for(slot, role)
    if name == "idle_effective":
        return (g**2 / delta) * np.kron(ket_bra(3, 3) - ket_bra(2, 2), n_op)
    h = delta * np.kron(ket_bra(3, 3), eye)
    h += g * (np.kron(ket_bra(2, 3), a_dag) + np.kron(ket_bra(3, 2), a))
    if name == "idle_full":
        return h
    j = role.pulse_level
    if name == "raman_full":
        h -= omega * np.kron(ket_bra(j, 3) + ket_bra(3, j), eye)
        return h
    h = -(omega**2 / delta) * np.kron(ket_bra(j, j), eye)
    h -= (g**2 / delta) * np.kron(ket_bra(2, 2), n_op)
    h += (omega * g / delta) * (np.kron(ket_bra(2, j), a_dag) + np.kron(ket_bra(j, 2), a))
    return h


BUILDERS = {
    "idle_effective": lambda p, slot, role, d: idle_coupling_local(p, slot, role, d, full=False),
    "idle_full": lambda p, slot, role, d: idle_coupling_local(p, slot, role, d, full=True),
    "raman_full": raman_full_local,
    "raman_effective": raman_effective_local,
}


def builder_cases():
    for name in BUILDERS:
        roles = list(Role) if name.startswith("idle") else [Role.EMITTER, Role.ABSORBER]
        for role in roles:
            for cavity_dim in (2, 3, 4):
                yield name, role, cavity_dim


def per_qubit_params(unit_params):
    per_qubit = (1.0, 1.3, 0.8)
    return replace(unit_params, g=per_qubit, delta_ck=(10.0, 17.0, 12.5), omega_raman=per_qubit)


@pytest.mark.parametrize("name,role,cavity_dim", list(builder_cases()))
def test_builders_equal_their_kron_products_bitwise(unit_params, name, role, cavity_dim):
    # bitwise, so signed zeros count: they reach eigh in full-mode windows
    for params in (unit_params, per_qubit_params(unit_params)):
        for slot in (0, 1, 2):
            got = BUILDERS[name](params, slot, role, cavity_dim)
            want = kron_reference(name, params, slot, role, cavity_dim)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,role,cavity_dim", list(builder_cases()))
def test_builders_return_fresh_writable_arrays(unit_params, name, role, cavity_dim):
    # raman_full subtracts its drive in place from idle_coupling_local's result,
    # so a shared array would show up in the idle builder's next result
    params = per_qubit_params(unit_params)
    first = BUILDERS[name](params, 1, role, cavity_dim)
    assert first.flags.writeable
    first += 7.0
    for check, check_role, check_dim in builder_cases():
        if check_dim == cavity_dim:
            got = BUILDERS[check](params, 1, check_role, cavity_dim)
            assert got.tobytes() == kron_reference(check, params, 1, check_role, cavity_dim).tobytes()


def test_skeletons_are_read_only(unit_params):
    for name, role, cavity_dim in builder_cases():
        BUILDERS[name](unit_params, 0, role, cavity_dim)
    hits = ham._skeleton.cache_info().hits
    skeletons = [
        ham._skeleton("1", 3, (3, 3, 1)),
        ham._skeleton("a†a", 3, (3, 3, 1), (2, 2, -1)),
        ham._skeleton("a", 4, (3, 2, 1)),
        ham._skeleton("a†", 2, (2, 1, 1)),
    ]
    assert ham._skeleton.cache_info().hits == hits + len(skeletons)  # the builders' own entries
    for skeleton in skeletons:
        assert not skeleton.flags.writeable
        with pytest.raises(ValueError):
            skeleton[0, 0] = 1.0


def test_skeleton_cache_does_not_grow_with_working_points(unit_params):
    def build_all(params):
        for name, role, cavity_dim in builder_cases():
            for slot in (0, 1, 2):
                BUILDERS[name](params, slot, role, cavity_dim)

    build_all(unit_params)
    size = ham._skeleton.cache_info().currsize
    rng = np.random.default_rng(7)
    for _ in range(20):
        g, delta_ck, omega = (tuple(rng.uniform(0.1, 20.0, 3)) for _ in range(3))
        delta_c = rng.uniform(1.0, 50.0)
        build_all(replace(unit_params, g=g, delta_c=delta_c, delta_ck=delta_ck, omega_raman=omega))
    assert ham._skeleton.cache_info().currsize == size


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
