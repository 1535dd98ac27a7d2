import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_matches_dense_oracle,
    basis_levels,
    basis_vector,
    block_labels,
    cavity_level,
    compose,
    dense_matrix,
    ideal_ncp,
    level_count,
    product_state,
    qudit_level,
    qudit_plus,
    residual_photon,
    step_states,
    support_of,
    tensor_embed,
    whole_space_blocks,
)
from gatesim import hamiltonians as ham_mod
from gatesim import linalg as linalg_mod
from gatesim import sequences as seq_mod
from gatesim.budget import time_cp3, time_ntcnot
from gatesim.device import Role
from gatesim.hamiltonians import idle_coupling_local
from gatesim.linalg import (
    HermitianOperator,
    HilbertSpace,
    Support,
    apply_local,
    evolve_times,
)
from gatesim.pulses import Mode, Pulse, PulseKind, make_pulse, pulse_local_hamiltonian
from gatesim.sequences import (
    GateKind,
    PulseSequence,
    PulseStep,
    apply_evolutions,
    build_evolutions,
    build_sequence,
    cp3_sequence,
    ncp_sequence,
    ntcnot_sequence,
    serialize_sequence,
    toffoli_sequence,
)
from gatesim.verify import report


def computational_block(seq, mode, include_idle=None):
    u = compose(seq, mode, include_idle)
    comp = seq.space.computational_indices()
    return u[np.ix_(comp, comp)]


# --- structure -------------------------------------------------------------


def test_cp3_has_seven_steps(unit_params):
    seq = cp3_sequence(unit_params)
    assert seq.step_count == 7
    assert seq.gate is GateKind.CP3
    assert seq.roles == (Role.EMITTER, Role.ABSORBER, Role.TARGET)


def test_ncp3_reproduces_cp3_step_list(unit_params):
    a = cp3_sequence(unit_params)
    b = ncp_sequence(3, unit_params)
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.ordered == sb.ordered
        assert [(p.kind, p.slot, p.duration) for p in sa.members] == [
            (p.kind, p.slot, p.duration) for p in sb.members
        ]


@pytest.mark.parametrize("n,expected", [(3, 7), (4, 9), (5, 11)])
def test_ncp_grouped_step_count(unit_params, n, expected):
    assert ncp_sequence(n, unit_params).step_count == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ntcnot_always_five_steps(unit_params, n):
    assert ntcnot_sequence(n, unit_params).step_count == 5


def test_toffoli_has_nine_steps(unit_params):
    seq = toffoli_sequence(unit_params)
    assert seq.step_count == 9
    assert seq.steps[0].members[0].kind is PulseKind.HADAMARD
    assert seq.steps[-1].members[0].kind is PulseKind.HADAMARD


def test_sequence_size_preconditions(unit_params):
    with pytest.raises(ValueError):
        ncp_sequence(2, unit_params)
    with pytest.raises(ValueError):
        ntcnot_sequence(1, unit_params)


def test_step_grouping_rules(unit_params):
    roles = (Role.EMITTER, Role.ABSORBER, Role.TARGET)
    emit = make_pulse(PulseKind.RAMAN_EMIT, 0, unit_params, roles)
    absorb = make_pulse(PulseKind.RAMAN_ABSORB, 1, unit_params, roles)
    gpi = make_pulse(PulseKind.DISPERSIVE_PHASE, 2, unit_params, roles)
    r0 = make_pulse(PulseKind.PI_PULSE, 0, unit_params, roles)

    with pytest.raises(ValueError):
        PulseStep((emit, absorb))  # two photon exchangers
    with pytest.raises(ValueError):
        PulseStep((emit, gpi))  # exchanger plus another cavity-coupled pulse
    with pytest.raises(ValueError):
        PulseStep((r0, Pulse(PulseKind.PI_PULSE_DAG, 0, r0.duration)))  # same slot
    # several dispersive members may share the cavity window
    roles4 = (Role.EMITTER, Role.TARGET, Role.TARGET, Role.TARGET)
    gpis = tuple(
        make_pulse(PulseKind.DISPERSIVE_PHASE, q, unit_params, roles4) for q in (1, 2, 3)
    )
    assert PulseStep(gpis).duration == gpis[0].duration
    # a photon exchanger can run alongside cavity-free pi pulses
    PulseStep((emit, make_pulse(PulseKind.PI_PULSE, 1, unit_params, roles)))


def test_ordered_step_duration_is_sum(unit_params):
    seq = cp3_sequence(unit_params)
    bundle = seq.steps[3]
    assert bundle.ordered
    assert bundle.duration == pytest.approx(sum(p.duration for p in bundle.members))


# --- durations ---------------------------------------------------------------


def test_cp3_duration_matches_budget_formula(unit_params):
    seq = cp3_sequence(unit_params)
    assert seq.total_duration == pytest.approx(time_cp3(unit_params), rel=1e-15)
    assert seq.total_duration == pytest.approx(30.2 * math.pi, rel=1e-12)


def test_ntcnot_duration_matches_budget_and_is_n_independent(unit_params):
    durations = {n: ntcnot_sequence(n, unit_params).total_duration for n in range(2, 7)}
    assert len(set(durations.values())) == 1
    assert durations[2] == pytest.approx(time_ntcnot(unit_params), rel=1e-15)
    assert durations[2] == pytest.approx(20.1 * math.pi, rel=1e-12)


def test_toffoli_duration_equals_cp3(unit_params):
    assert toffoli_sequence(unit_params).total_duration == pytest.approx(
        cp3_sequence(unit_params).total_duration
    )


# --- composition: three-qubit phase gate --------------------------------------


CP3_TABLE = {
    # input -> [(sign, (l1, l2, l3, photon)) after each of the 7 steps]
    (1, 0, 0): [
        (1, (2, 0, 0, 1)),
        (1, (1, 2, 0, 1)),
        (1, (1, 0, 0, 0)),
        (1, (1, 0, 0, 0)),
        (1, (1, 2, 0, 1)),
        (1, (2, 0, 0, 1)),
        (1, (1, 0, 0, 0)),
    ],
    (1, 0, 1): [
        (1, (2, 0, 1, 1)),
        (1, (1, 2, 1, 1)),
        (1, (1, 0, 1, 0)),
        (1, (1, 0, 1, 0)),
        (1, (1, 2, 1, 1)),
        (1, (2, 0, 1, 1)),
        (1, (1, 0, 1, 0)),
    ],
    (1, 1, 0): [
        (1, (2, 1, 0, 1)),
        (1, (1, 1, 0, 1)),
        (1, (1, 1, 0, 1)),
        (1, (1, 1, 0, 1)),
        (1, (1, 1, 0, 1)),
        (1, (2, 1, 0, 1)),
        (1, (1, 1, 0, 0)),
    ],
    (1, 1, 1): [
        (1, (2, 1, 1, 1)),
        (1, (1, 1, 1, 1)),
        (1, (1, 1, 1, 1)),
        (-1, (1, 1, 1, 1)),
        (-1, (1, 1, 1, 1)),
        (-1, (2, 1, 1, 1)),
        (-1, (1, 1, 1, 0)),
    ],
}


@pytest.mark.parametrize("start", sorted(CP3_TABLE))
def test_cp3_intermediate_state_table(unit_params, start):
    """The photon-carrying rows pass through exactly the published chain."""
    seq = cp3_sequence(unit_params)
    space = seq.space
    states = step_states(seq, basis_vector(space, start + (0,)))
    assert len(states) == 7
    for state, (sign, levels) in zip(states, CP3_TABLE[start]):
        expected = sign * basis_vector(space, levels)
        assert np.max(np.abs(state - expected)) < 1e-12


@pytest.mark.parametrize("start", [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
def test_cp3_control_zero_rows_return_unchanged(unit_params, start):
    seq = cp3_sequence(unit_params)
    space = seq.space
    states = step_states(seq, basis_vector(space, start + (0,)))
    assert np.max(np.abs(states[-1] - basis_vector(space, start + (0,)))) < 1e-12


def test_cp3_block_is_controlled_phase(unit_params):
    block = computational_block(cp3_sequence(unit_params), Mode.ANALYTIC)
    expected = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
    assert np.max(np.abs(block - expected)) < 1e-10


def test_cp3_restores_cavity_and_clears_aux_levels(unit_params):
    seq = cp3_sequence(unit_params)
    space = seq.space
    u = compose(seq, Mode.ANALYTIC)
    w2 = level_count(space, 2)
    w3 = level_count(space, 3)
    for idx in space.computational_indices():
        out = u[:, idx]
        probs = np.abs(out) ** 2
        assert residual_photon(space, out) < 1e-12
        assert probs @ w2 < 1e-12
        assert probs @ w3 < 1e-12


def test_cp3_level3_never_populated_mid_protocol(unit_params):
    seq = cp3_sequence(unit_params)
    space = seq.space
    w3 = level_count(space, 3)
    for idx in space.computational_indices():
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[idx] = 1.0
        for state in step_states(seq, amps):
            assert np.abs(state) ** 2 @ w3 < 1e-12


def test_cp3_effective_action_matches_analytic(unit_params):
    a = computational_block(cp3_sequence(unit_params), Mode.ANALYTIC)
    b = computational_block(cp3_sequence(unit_params), Mode.EFFECTIVE)
    assert np.max(np.abs(a - b)) < 1e-10


def test_compose_empty_sequence_is_identity(unit_params):
    space = HilbertSpace.for_qubits(3, 2)
    seq = PulseSequence(
        GateKind.CP3, 3, (), (Role.EMITTER, Role.ABSORBER, Role.TARGET), unit_params, space
    )
    u = compose(seq, Mode.ANALYTIC)
    assert np.array_equal(u, np.eye(space.total_dim))
    assert seq.total_duration == 0.0


# --- composition: n-qubit phase gate -------------------------------------------


def test_ncp4_brute_force_truth_table(unit_params):
    """All 16 computational inputs: diagonal +-1 with -1 only at |1111>."""
    seq = ncp_sequence(4, unit_params)
    block = computational_block(seq, Mode.ANALYTIC)
    assert np.max(np.abs(block - ideal_ncp(4))) < 1e-10


def test_ncp5_runs_via_vector_path(unit_params):
    seq = ncp_sequence(5, unit_params)
    block = computational_block(seq, Mode.ANALYTIC)
    assert np.max(np.abs(block - ideal_ncp(5))) < 1e-10


# --- composition: fanout CNOT ---------------------------------------------------


def ntcnot_pm_state(space, control, signs, photon=0):
    locals_ = [qudit_level(control)]
    for s in signs:
        locals_.append(qudit_plus(s))
    locals_.append(cavity_level(photon, space.cavity_dim))
    return product_state(space, locals_)


NTCNOT3_TABLE = [
    # (control, target signs) -> expected output signs
    ((1, (1, 1)), (-1, -1)),
    ((1, (1, -1)), (-1, 1)),
    ((1, (-1, 1)), (1, -1)),
    ((1, (-1, -1)), (1, 1)),
    ((0, (1, 1)), (1, 1)),
    ((0, (1, -1)), (1, -1)),
    ((0, (-1, 1)), (-1, 1)),
    ((0, (-1, -1)), (-1, -1)),
]


@pytest.mark.parametrize("inp,out_signs", NTCNOT3_TABLE)
def test_ntcnot3_pm_basis_rows_with_signs(unit_params, inp, out_signs):
    seq = ntcnot_sequence(3, unit_params)
    space = seq.space
    control, signs = inp
    u = compose(seq, Mode.ANALYTIC)
    got = u @ ntcnot_pm_state(space, control, signs)
    expected = ntcnot_pm_state(space, control, out_signs)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_ntcnot3_intermediate_chain(unit_params):
    # |1,+,+>: photon out, targets through (|0>+|2>)/sqrt2 -> (|0>-|2>)/sqrt2,
    # then back down with both signs flipped, photon reabsorbed
    seq = ntcnot_sequence(3, unit_params)
    space = seq.space
    start = ntcnot_pm_state(space, 1, (1, 1))
    states = step_states(seq, start)
    a = (qudit_level(0) + qudit_level(2)) / np.sqrt(2)
    b = (qudit_level(0) - qudit_level(2)) / np.sqrt(2)
    one = cavity_level(1, space.cavity_dim)
    stage2 = product_state(space, [qudit_level(1), a, a, one])
    stage3 = product_state(space, [qudit_level(1), b, b, one])
    stage4 = product_state(space, [qudit_level(2), qudit_plus(-1), qudit_plus(-1), one])
    assert np.max(np.abs(states[1] - stage2)) < 1e-12
    assert np.max(np.abs(states[2] - stage3)) < 1e-12
    assert np.max(np.abs(states[3] - stage4)) < 1e-12
    assert np.max(np.abs(states[4] - ntcnot_pm_state(space, 1, (-1, -1)))) < 1e-12


def test_ntcnot2_is_cnot_in_mixed_basis(unit_params):
    seq = ntcnot_sequence(2, unit_params)
    space = seq.space
    u = compose(seq, Mode.ANALYTIC)
    flip = {1: -1, -1: 1}
    for sign in (1, -1):
        got = u @ ntcnot_pm_state(space, 1, (sign,))
        assert np.max(np.abs(got - ntcnot_pm_state(space, 1, (flip[sign],)))) < 1e-10
        got = u @ ntcnot_pm_state(space, 0, (sign,))
        assert np.max(np.abs(got - ntcnot_pm_state(space, 0, (sign,)))) < 1e-10


# --- truth tables ----------------------------------------------------------------


def test_truth_table_cp3_has_no_leakage(unit_params):
    seq = cp3_sequence(unit_params)
    space = seq.space
    u = compose(seq, Mode.ANALYTIC)
    comp = space.computational_indices()
    outside = np.ones(space.total_dim, dtype=bool)
    outside[comp] = False
    for k, i in enumerate(comp):
        assert np.linalg.norm(u[outside, i]) < 1e-10
        expected = -1.0 if space.computational_label(k) == "111" else 1.0
        assert u[i, i] == pytest.approx(expected, abs=1e-10)


def test_truth_table_ntcnot_signs(unit_params):
    seq = ntcnot_sequence(3, unit_params)
    space = seq.space
    u = compose(seq, Mode.ANALYTIC)
    labels = {(1, 1): "++", (1, -1): "+-", (-1, 1): "-+", (-1, -1): "--"}
    inputs = {f"1{name}": ntcnot_pm_state(space, 1, signs) for signs, name in labels.items()}
    span = np.column_stack(list(inputs.values()))
    flipped = {"1++": "1--", "1+-": "1-+", "1-+": "1+-", "1--": "1++"}
    for label, state in inputs.items():
        out = u @ state
        assert np.vdot(inputs[flipped[label]], out) == pytest.approx(1.0, abs=1e-10)
        # the part of the output outside the span of the four labelled states
        assert np.linalg.norm(out - span @ (span.conj().T @ out)) < 1e-10


# --- guard rails -------------------------------------------------------------------


def test_sequence_flags_states_outside_swap_domain(unit_params):
    # emit, pi pulse the emitter from 2 back to 1, emit again: the second swap
    # meets |1> next to the first one's photon, which its closed form does not cover
    roles = ntcnot_sequence(2, unit_params).roles
    mk = lambda kind: PulseStep((make_pulse(kind, 0, unit_params, roles),))
    kinds = (PulseKind.RAMAN_EMIT, PulseKind.PI_PULSE, PulseKind.RAMAN_EMIT)
    space = HilbertSpace.for_qubits(2)
    seq = PulseSequence(GateKind.NTCNOT, 2, tuple(map(mk, kinds)), roles, unit_params, space)
    for mode in (Mode.ANALYTIC, Mode.EFFECTIVE):
        with pytest.raises(ValueError, match=r"step 2: .* domain \(weight 1.000e\+00\)"):
            report(seq, mode)
    report(seq, Mode.FULL, samples_per_step=0)  # full mode has no closed form to leave


def test_support_of_another_space_is_rejected(unit_params):
    # a two-qubit support used to be read with the three-qubit radix and relabelled
    seq = ntcnot_sequence(3, unit_params)
    space, other = seq.space, HilbertSpace.for_qubits(2)
    foreign = support_of(other, basis_vector(other, (1, 1, 0)))
    evolutions = build_evolutions(seq, Mode.FULL)
    h = next(evo.hamiltonian for evo in evolutions if evo.hamiltonian is not None)
    weights = ((np.ones(space.total_dim), tuple(range(len(space.dims)))),)
    calls = (
        lambda: apply_local(np.eye(4), space, (1,), foreign),
        lambda: h.propagate(foreign, 1e-9),
        lambda: apply_evolutions(evolutions, space, foreign),
        lambda: evolve_times(foreign, h, np.linspace(0.0, 1e-9, 5), weights),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"different spaces: \(4, 4, 2\) vs \(4, 4, 4, 2\)"):
            call()


def test_full_mode_rejects_unequal_simultaneous_durations(unit_params):
    uneven = replace(unit_params, delta_ck=(10.0, 10.0, 12.0))
    seq = ntcnot_sequence(3, uneven)
    with pytest.raises(ValueError, match="equal member durations"):
        compose(seq, Mode.FULL)
    # analytic composition has no such restriction
    compose(seq, Mode.ANALYTIC)


# Per-qubit couplings with delta_ck / g² held fixed, so simultaneous
# dispersive members keep equal durations.
HETERO_G = (1.0, 1.1, 0.9, 1.2)
GATES_UP_TO_4 = [
    (GateKind.CP3, 3),
    (GateKind.TOFFOLI, 3),
    (GateKind.NCP, 4),
    (GateKind.NTCNOT, 2),
    (GateKind.NTCNOT, 3),
    (GateKind.NTCNOT, 4),
]


def hetero_params(unit_params):
    return replace(
        unit_params, g=HETERO_G, omega_raman=HETERO_G, delta_ck=tuple(10.0 * g**2 for g in HETERO_G)
    )


def dense_window_reference(seq, pulses, idle_slots):
    """Sum of embedded pulse generators plus embedded idle shifts, term by term."""
    space = seq.space
    total = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for p in pulses:
        local = pulse_local_hamiltonian(p, seq.params, seq.roles, space.cavity_dim, Mode.FULL)
        slots = (p.slot, space.cavity_slot) if p.kind.touches_cavity else (p.slot,)
        total += tensor_embed(local, space, slots)
    for q in idle_slots:
        local = idle_coupling_local(seq.params, q, seq.roles[q], space.cavity_dim, full=False)
        total += tensor_embed(local, space, (q, space.cavity_slot))
    return total


@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("gate,n", GATES_UP_TO_4)
def test_full_windows_match_dense_reference(unit_params, gate, n, include_idle):
    seq = build_sequence(gate, n, hetero_params(unit_params))
    evolutions = build_evolutions(seq, Mode.FULL, include_idle)
    windows = [e for e in evolutions if e.hamiltonian is not None]
    assert windows
    for evo in windows:
        pulsed = {p.slot for p in evo.pulses}
        idle = [q for q in range(n) if q not in pulsed] if include_idle else []
        ref = dense_window_reference(seq, evo.pulses, idle)
        err = np.max(np.abs(dense_matrix(evo.hamiltonian) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("cavity_dim", [2, 3])
@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("gate,n", GATES_UP_TO_4)
def test_term_built_blocks_match_dense_reference(unit_params, gate, n, include_idle, cavity_dim):
    # each window's blocks come from its terms; gathered from the dense
    # tensor_embed sum, the same blocks hold the same entries and nothing
    # couples two of them
    seq = build_sequence(gate, n, hetero_params(unit_params), cavity_dim)
    for evo in build_evolutions(seq, Mode.FULL, include_idle):
        if evo.hamiltonian is None:
            continue
        pulsed = {p.slot for p in evo.pulses}
        idle = [q for q in range(n) if q not in pulsed] if include_idle else []
        ref = dense_window_reference(seq, evo.pulses, idle)
        labels = np.full(seq.space.total_dim, -1)
        for idx, sub in whole_space_blocks(evo.hamiltonian):
            labels[idx] = idx[:, :1]
            gathered = ref[idx[:, :, None], idx[:, None, :]]
            assert np.max(np.abs(sub - gathered)) <= 1e-12 * np.max(np.abs(ref))
        rows, cols = np.nonzero(ref)
        assert np.all(labels >= 0) and np.array_equal(labels[rows], labels[cols])


def test_full_windows_build_without_dense_matrices(cpw_params):
    # D = 8192, where one dense complex window matrix would take 1 GiB
    seq = ntcnot_sequence(6, cpw_params)
    tracemalloc.start()
    try:
        windows = build_evolutions(seq, Mode.FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 5
    assert peak < 2**30 / 16


@pytest.mark.parametrize("cavity_dim", [2, 3])
@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("gate,n", GATES_UP_TO_4)
def test_full_window_blocks_match_dense_eigh(unit_params, gate, n, include_idle, cavity_dim):
    seq = build_sequence(gate, n, hetero_params(unit_params), cavity_dim)
    rng = np.random.default_rng(n * cavity_dim)
    for evo in build_evolutions(seq, Mode.FULL, include_idle):
        if evo.hamiltonian is None:
            continue
        labels = block_labels(evo.hamiltonian)
        assert labels.max() > 0  # excitation conservation leaves many blocks
        # a superposition over every other block; the rest carry no amplitude
        amps = rng.normal(size=labels.size) + 1j * rng.normal(size=labels.size)
        amps[labels % 2 == 1] = 0.0
        amps /= np.linalg.norm(amps)
        times = [0.37 * evo.duration, evo.duration]
        assert_matches_dense_oracle(evo.hamiltonian, amps, times)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_full_block_is_covariant_under_target_permutations(cpw_params, n):
    # with equal parameters on every qubit, each fanout-CNOT window commutes
    # with permutations of the targets, so the computational block B obeys
    # B[pi r, pi c] = B[r, c]; a placement slip that treats the targets
    # unequally breaks this at any n, also where no dense oracle reaches
    seq = ntcnot_sequence(n, cpw_params)
    space = seq.space
    comp = np.array(space.computational_indices())
    walk = Support(space, np.arange(comp.size), comp, np.ones(comp.size, dtype=complex))
    walk = apply_evolutions(build_evolutions(seq, Mode.FULL), space, walk)
    row = np.searchsorted(comp, walk.idx).clip(max=comp.size - 1)
    kept = comp[row] == walk.idx
    block = np.zeros((comp.size, comp.size), dtype=complex)
    block[row[kept], walk.col[kept]] = walk.amp[kept]
    weight = 1 << np.arange(n)[::-1]  # label k has qubit q's bit at weight[q]
    bits = np.arange(comp.size)[:, None] // weight % 2
    targets = list(range(1, n))
    for order in (targets[1::-1] + targets[2:], targets[1:] + targets[:1]):  # a swap, a cycle
        pi = bits[:, [0] + order] @ weight  # qubit q takes the bit of qubit order[q - 1]
        assert np.max(np.abs(block[np.ix_(pi, pi)] - block)) <= 1e-12
    pi = bits[:, [1, 0] + targets[1:]] @ weight  # the control is no target: swapping them shows
    assert np.max(np.abs(block[np.ix_(pi, pi)] - block)) > 1e-3


def _excitations(seq, evo, idx):
    """``N`` of each basis index in ``idx`` for a cavity window: its generator keeps ``N``.

    ``N = n_c + #(qubits in |3>) + #(photon-exchanging actors at their pulse
    level)``: the cavity coupling trades a photon for level 3, a Raman drive
    trades level 3 for the actor's pulse level, and the idle terms are diagonal.
    """
    space = seq.space
    count = space.digits(idx, (space.cavity_slot,))
    for q in range(space.n_qubits):
        count = count + (space.digits(idx, (q,)) == 3)
    for p in evo.pulses:
        if p.kind.exchanges_photon:
            count = count + (space.digits(idx, (p.slot,)) == seq.roles[p.slot].pulse_level)
    return count


@pytest.mark.parametrize("cavity_dim", [2, 3])
@pytest.mark.parametrize("gate,n", [(GateKind.NTCNOT, 6), (GateKind.NCP, 5)])
def test_full_windows_keep_norm_and_excitation_sector(cpw_params, gate, n, cavity_dim):
    # the blocks of a cavity window are sectors of N (_excitations), so every
    # computational column keeps its norm and its weight in each sector of N
    # through the window; this holds at any n, also where no dense oracle reaches
    seq = build_sequence(gate, n, cpw_params, cavity_dim)
    space = seq.space
    comp = np.array(space.computational_indices())
    walk = Support(space, np.arange(comp.size), comp, np.ones(comp.size, dtype=complex))
    sectors = cavity_dim + 2 * n  # N < cavity_dim + 2n

    def weights(state, evo):
        key = state.col * sectors + _excitations(seq, evo, state.idx)
        return np.bincount(key, np.abs(state.amp) ** 2, comp.size * sectors)

    cavity_windows = 0
    for evo in build_evolutions(seq, Mode.FULL):
        before, walk = walk, apply_evolutions([evo], space, walk)
        norm = np.bincount(walk.col, np.abs(walk.amp) ** 2, comp.size)
        assert np.max(np.abs(norm - 1.0)) <= 1e-12
        if evo.hamiltonian is not None:
            cavity_windows += 1
            assert np.max(np.abs(weights(walk, evo) - weights(before, evo))) <= 1e-12
    assert cavity_windows >= 3


@pytest.mark.parametrize("cavity_dim", [2, 3])
@pytest.mark.parametrize("include_idle", [True, False])
@pytest.mark.parametrize("gate,n", GATES_UP_TO_4)
def test_full_local_windows_match_dense_expm(unit_params, gate, n, include_idle, cavity_dim):
    # a full window with no cavity actor is a product of local unitaries: it
    # must equal the dense exponential of its summed generator, and that
    # generator keeps the level-3 count and the photon number, so sampling
    # inside the window could find no new level-3 peak
    seq = build_sequence(gate, n, hetero_params(unit_params), cavity_dim)
    space = seq.space
    counts = (level_count(space, 3), basis_levels(space)[:, -1].astype(float))
    windows = [
        e for e in build_evolutions(seq, Mode.FULL, include_idle)
        if e.duration > 0 and not e.cavity_actors
    ]
    assert windows
    for evo in windows:
        assert evo.hamiltonian is None
        pulsed = {p.slot for p in evo.pulses}
        idle = [q for q in range(n) if q not in pulsed] if include_idle else []
        ref = dense_window_reference(seq, evo.pulses, idle)
        w, v = np.linalg.eigh(ref)
        expected = (v * np.exp(-1j * w * evo.duration)) @ v.conj().T
        product = np.eye(space.total_dim)
        for local, slots in evo.applications:
            product = tensor_embed(local, space, slots) @ product
        assert np.max(np.abs(product - expected)) <= 1e-12
        for count in counts:  # [H, diag(count)] has entries H_ij (count_j - count_i)
            assert np.count_nonzero(ref * (count[None, :] - count[:, None])) == 0


def test_full_pi_window_rejects_non_hermitian_drive(unit_params, monkeypatch):
    # the drive's lower triangle dropped: |j> -> |2> without its way back
    drive = ham_mod.resonant_drive_local
    one_way = lambda omega, phi, j: np.triu(drive(omega, phi, j))
    monkeypatch.setattr(ham_mod, "resonant_drive_local", one_way)
    with pytest.raises(ValueError, match="not Hermitian"):
        build_evolutions(ntcnot_sequence(3, unit_params), Mode.FULL)


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.EFFECTIVE])
def test_idle_phase_needs_a_real_diagonal_generator(unit_params, monkeypatch, mode):
    # an idle factor exponentiates its generator's diagonal entrywise; cp3's
    # pi windows leave a qubit idle in both modes (ntcnot's pulse every qubit)
    shift = seq_mod.idle_coupling_local
    mixing = lambda *args, **kwargs: shift(*args, **kwargs) + np.eye(8, k=1) + np.eye(8, k=-1)
    monkeypatch.setattr(seq_mod, "idle_coupling_local", mixing)
    with pytest.raises(ValueError, match="not a real diagonal"):
        build_evolutions(cp3_sequence(unit_params), mode, include_idle=True)


@pytest.mark.parametrize(
    "gate,n,uniform",
    [pytest.param(gate, n, False, id=f"{gate}-{n}") for gate, n in GATES_UP_TO_4]
    # identical targets: the report walks one column per ntcnot class
    + [pytest.param(GateKind.NTCNOT, 4, True, id="GateKind.NTCNOT-4-uniform")],
)
def test_full_report_matches_dense_eigh_report(unit_params, monkeypatch, gate, n, uniform):
    seq = build_sequence(gate, n, unit_params if uniform else hetero_params(unit_params))
    blocked = report(seq, Mode.FULL, samples_per_step=16)
    # the reference gives each column the support holds the whole space as
    # one block, the dense sum of the window's terms, decomposed by dense
    # eigh once per window and shared by the columns
    def whole_space(space, terms, key):
        dim = space.total_dim
        cols = np.unique(key // dim)
        reached = (cols[:, None] * dim + np.arange(dim)).ravel()
        mat = dense_matrix(HermitianOperator(space, terms))
        stack = np.broadcast_to(mat, (cols.size, dim, dim))
        return np.searchsorted(reached, key), [(reached.reshape(cols.size, dim), stack)]

    eigh = np.linalg.eigh

    def shared_eigh(mat):
        if mat.ndim < 3 or mat.strides[0] != 0:  # not a stack of one matrix
            return eigh(mat)
        w, v = eigh(mat[0])
        return np.broadcast_to(w, mat.shape[:-1]), np.broadcast_to(v, mat.shape)

    monkeypatch.setattr(linalg_mod, "_partition", whole_space)
    monkeypatch.setattr(np.linalg, "eigh", shared_eigh)
    dense = report(seq, Mode.FULL, samples_per_step=16)
    assert blocked.exact_phase_match == dense.exact_phase_match
    for field in ("process_fidelity", "max_level3_population", "residual_photon"):
        assert abs(getattr(blocked, field) - getattr(dense, field)) <= 1e-12


@pytest.mark.parametrize("gate,n", GATES_UP_TO_4)
def test_effective_idle_factor_matches_dense_reference(unit_params, gate, n):
    seq = build_sequence(gate, n, hetero_params(unit_params))
    # the idle phases lead the applications of each timed window, its pulses follow
    windows = [e for e in build_evolutions(seq, Mode.EFFECTIVE, True) if e.duration > 0]
    assert windows
    space = seq.space
    for evo in windows:
        idle = [q for q in range(n) if q not in evo.cavity_actors]
        factors = evo.applications[: len(idle)]
        assert [slots for _, slots in factors] == [(q, space.cavity_slot) for q in idle]
        assert len(evo.applications) == len(idle) + len(evo.pulses)
        ref = dense_window_reference(seq, (), idle)
        assert np.count_nonzero(ref - np.diag(np.diag(ref))) == 0
        expected = np.diag(np.exp(-1j * evo.duration * np.diag(ref)))
        product = np.eye(space.total_dim)
        for local, slots in factors:
            product = tensor_embed(local, space, slots) @ product
        assert np.max(np.abs(product - expected)) <= 1e-12


@pytest.mark.parametrize(
    "mode,include_idle",
    [
        (Mode.ANALYTIC, None),
        (Mode.EFFECTIVE, None),
        (Mode.EFFECTIVE, True),
        (Mode.FULL, None),
        (Mode.FULL, False),
    ],
)
@pytest.mark.parametrize(
    "gate,n", [(GateKind.CP3, 3), (GateKind.TOFFOLI, 3), (GateKind.NCP, 4), (GateKind.NTCNOT, 3)]
)
def test_one_record_per_window(unit_params, gate, n, mode, include_idle):
    # a simultaneous step is one window, an ordered step one window per member
    seq = build_sequence(gate, n, unit_params)
    windows = []
    for i, step in enumerate(seq.steps):
        if step.ordered:
            windows += [(i, (p,), p.duration) for p in step.members]
        else:
            windows.append((i, step.members, step.duration))
    evolutions = build_evolutions(seq, mode, include_idle)
    assert [(e.step_index, e.pulses, e.duration) for e in evolutions] == windows
    for evo in evolutions:
        assert evo.cavity_actors == {p.slot for p in evo.pulses if p.kind.touches_cavity}
        if evo.duration == 0:  # a Hadamard: its unitary alone, with no idle phase
            assert [slots for _, slots in evo.applications] == [(p.slot,) for p in evo.pulses]


def test_analytic_mode_rejects_idle_couplings(unit_params):
    with pytest.raises(ValueError):
        compose(cp3_sequence(unit_params), Mode.ANALYTIC, include_idle=True)


@pytest.mark.parametrize("mode", [Mode.ANALYTIC, Mode.EFFECTIVE])
def test_group_member_order_is_irrelevant(unit_params, mode):
    # simultaneous members act on disjoint qubits (pi pulses) or through
    # commuting dispersive generators; reversing them must not change the gate
    seq = ntcnot_sequence(3, unit_params)
    reversed_steps = tuple(
        PulseStep(tuple(reversed(step.members)), step.ordered) for step in seq.steps
    )
    flipped = PulseSequence(seq.gate, seq.n, reversed_steps, seq.roles, seq.params, seq.space)
    a = compose(seq, mode)
    b = compose(flipped, mode)
    assert np.max(np.abs(a - b)) < 1e-12


# --- serialization -------------------------------------------------------------------


def test_serialize_sequence_schema(unit_params):
    seq = cp3_sequence(unit_params)
    doc = serialize_sequence(seq)
    assert doc["gate"] == "cp3"
    assert doc["n"] == 3
    assert doc["step_count"] == 7
    assert doc["total_duration_s"] == pytest.approx(seq.total_duration)
    assert len(doc["steps"]) == 7
    bundle = doc["steps"][3]
    assert bundle["ordered"] is True
    assert [p["kind"] for p in bundle["pulses"]] == [
        "pi_pulse_dag",
        "dispersive_phase",
        "pi_pulse",
    ]
    assert all(p["slot"] == 2 for p in bundle["pulses"])
    first = doc["steps"][0]["pulses"][0]
    assert first == {
        "kind": "raman_emit",
        "slot": 0,
        "duration_s": pytest.approx(math.pi * 10.0 / 2.0),
    }
