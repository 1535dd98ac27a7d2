"""Ideal gate matrices, gate reports, leakage tracking and the phase audit.

Gates are always judged on the computational subspace: qubit levels 0/1 with
the cavity in vacuum.  Anything else (auxiliary levels 2/3, photons left in
the cavity) counts as leakage.  Analytic compositions are required to match
the ideal matrices entrywise, signs included, because the protocol state
tables pin every phase; simulated compositions are scored by process
fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, Role
from .linalg import (
    HermitianOperator,
    HilbertSpace,
    Support,
    _check_local,
    diagonal_at,
    evolve_times,
    process_fidelity,
)
from .pulses import (
    Mode,
    PulseKind,
    closed_form_domain,
    make_pulse,
    pulse_local_hamiltonian,
    pulse_local_unitary,
)
from .sequences import (
    GateKind,
    PulseSequence,
    SubEvolution,
    apply_evolutions,
    build_evolutions,
)

DEFAULT_TOL = 1e-10
# Weight a column may hold outside a closed-form swap's domain.
DOMAIN_TOL = 1e-10
# The dispersive-phase condition counts as comfortably met above this ratio.
NEGLIGIBLE_RATIO = 10.0


def ideal_ncp(n: int) -> np.ndarray:
    """n-qubit controlled phase: -1 on |1...1> only."""
    if n < 2:
        raise ValueError("controlled phase needs at least 2 qubits")
    d = np.ones(2**n, dtype=complex)
    d[-1] = -1.0
    return np.diag(d)


def ideal_ntcnot(n: int) -> np.ndarray:
    """Fanout CNOT: control in 0/1, each target flipped in the +/- basis.

    In the computational basis this is ``|0><0| (x) I + |1><1| (x) Z^(n-1)``.
    """
    if n < 2:
        raise ValueError("fanout CNOT needs at least 2 qubits")
    z = np.diag([1.0, -1.0]).astype(complex)
    targets = np.eye(1, dtype=complex)
    for _ in range(n - 1):
        targets = np.kron(targets, z)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(p0, np.eye(2 ** (n - 1))) + np.kron(p1, targets)


def ideal_toffoli() -> np.ndarray:
    u = np.eye(8, dtype=complex)
    u[6, 6] = u[7, 7] = 0.0
    u[6, 7] = u[7, 6] = 1.0
    return u


def ideal_gate(gate: GateKind, n: int) -> np.ndarray:
    if gate is GateKind.CP3:
        return ideal_ncp(3)
    if gate is GateKind.NCP:
        return ideal_ncp(n)
    if gate is GateKind.NTCNOT:
        return ideal_ntcnot(n)
    return ideal_toffoli()


def _column_weight(walk: Support, values: np.ndarray, dim: int) -> np.ndarray:
    """``sum_k values[k] |amp[k]|²`` over each column's entries, for ``dim`` columns."""
    return np.bincount(walk.col, values * np.abs(walk.amp) ** 2, dim)


def _check_swap_domain(seq: PulseSequence, evo: SubEvolution, walk: Support, dim: int) -> None:
    """Reject a photon-exchanging pulse of ``evo`` whose entering columns leave its domain.

    A closed-form swap is exact on :func:`gatesim.pulses.closed_form_domain`;
    off it, on states the protocols never visit, it is the identity by
    convention.  A column entering with more than ``DOMAIN_TOL`` of its
    weight off the domain raises ``ValueError``.
    """
    space = seq.space
    for p in evo.pulses:
        if not p.kind.exchanges_photon:
            continue
        inside = np.zeros(space.dims[p.slot] * space.cavity_dim, dtype=bool)
        inside[closed_form_domain(seq.roles[p.slot], space.cavity_dim)] = True
        outside = ~inside[space.digits(walk.idx, (p.slot, space.cavity_slot))]
        defect = float(np.max(_column_weight(walk, outside, dim)))
        if defect > DOMAIN_TOL:
            raise ValueError(
                f"step {evo.step_index}: raman swap at slot {p.slot} "
                f"applied to a state outside its closed-form domain (weight {defect:.3e})"
            )


def _level3_terms(space: HilbertSpace) -> tuple:
    """``sum_q |3><3|_q``, the number of qubits in level 3, as one diagonal term per qubit."""
    return tuple((np.arange(space.dims[q]) == 3, (q,)) for q in range(space.n_qubits))


@dataclass(frozen=True)
class GateReport:
    """Score of one gate sequence on its computational block.

    ``max_level3_population`` is the peak expected *number* of qubits in
    ``|3>`` (populations summed over qubits), so it exceeds the single-swap
    transient of :func:`swap_peak_level3` when several qubits hold ``|2>``.
    """

    gate: str
    n: int
    mode: str
    process_fidelity: float
    exact_phase_match: bool
    max_level3_population: float
    residual_photon: float
    total_duration_s: float
    step_count: int
    tolerance: float


def report(
    seq: PulseSequence, mode: Mode, tol: float = DEFAULT_TOL, samples_per_step: int = 512
) -> GateReport:
    """Compose the sequence, compare to the ideal gate and record leakage.

    All computational inputs walk the windows together as one
    :class:`gatesim.linalg.Support`, so every window costs what the support
    holds: closed-form windows act on its digits and Hamiltonian windows on the
    blocks it reaches.  Level-3 population is taken per column at each window
    boundary and sampled inside Hamiltonian windows, where its transient peaks
    (one :func:`gatesim.linalg.evolve_times` call per window, which only
    observes); photon population after the last window.  A window of local
    unitaries is not sampled, and loses nothing by it: the closed-form modes
    keep level 3 out of every window, and in full mode such a window is a
    pi-pulse window, whose generator keeps the level-3 count and the photon
    number, so both are constant inside it.  In the closed-form
    modes each photon-exchanging window first checks that no column enters
    with weight outside the swap's closed-form domain, and raises
    ``ValueError`` if one does.
    """
    space = seq.space
    comp = np.array(space.computational_indices())
    dim = len(comp)
    level3 = _level3_terms(space)
    photon = ((np.arange(space.cavity_dim) > 0, (space.cavity_slot,)),)  # the flag n_c > 0
    block = np.zeros((dim, dim), dtype=complex)

    max_pop3 = 0.0
    walk = Support(space, np.arange(dim), comp, np.ones(dim, dtype=complex))
    evolutions = build_evolutions(seq, mode)
    while evolutions:  # a window's spectra are released once it is walked
        evo = evolutions.pop(0)
        if mode is not Mode.FULL:
            _check_swap_domain(seq, evo, walk, dim)
        if evo.hamiltonian is not None and samples_per_step > 0 and evo.duration > 0:
            times = np.linspace(0.0, evo.duration, samples_per_step + 1)
            pop = evolve_times(walk, evo.hamiltonian, times, level3)
            max_pop3 = max(max_pop3, float(np.max(pop)))
        walk = apply_evolutions([evo], space, walk)
        pop3 = _column_weight(walk, diagonal_at(space, level3, walk.idx), dim)
        max_pop3 = max(max_pop3, float(np.max(pop3)))
    light = _column_weight(walk, diagonal_at(space, photon, walk.idx), dim)
    row = np.searchsorted(comp, walk.idx).clip(max=dim - 1)
    kept = comp[row] == walk.idx
    block[row[kept], walk.col[kept]] = walk.amp[kept]

    target = ideal_gate(seq.gate, seq.n)
    fidelity = process_fidelity(target, block, range(dim))
    exact = bool(np.max(np.abs(block - target)) <= tol)
    return GateReport(
        gate=seq.gate.value,
        n=seq.n,
        mode=mode.value,
        process_fidelity=fidelity,
        exact_phase_match=exact,
        max_level3_population=max_pop3,
        residual_photon=float(np.max(light)),
        total_duration_s=seq.total_duration,
        step_count=seq.step_count,
        tolerance=tol,
    )


# --- unwanted-phase audit -------------------------------------------------


def _condition_denominator(params: DeviceParams, roles: tuple[Role, ...], slot: int) -> float:
    g = params.g_at(slot)
    if roles[slot] is Role.TARGET:
        return g**2 / params.delta_ck_at(slot)
    return 2.0 * g**2 / params.delta_c


@dataclass(frozen=True)
class PhaseAudit:
    """Dispersive phases picked up by qubits that are not the cavity actor.

    ``condition_ratio`` is the resonant Rabi frequency over the largest
    dispersive rate in play; well above one, the audit totals are negligible.
    ``step_phases`` lists, per step and qubit, the phase a photon-present
    ``|2>`` component of that qubit would accumulate while it is not the
    step's intended cavity interaction.  ``branch_phases`` walks each
    computational input through the analytic protocol and adds up the
    entries that actually fire.  An input whose analytic chain leaves a
    single basis state is omitted: every Toffoli input does so behind its
    Hadamard, so the Toffoli's table is empty.  The field order is the JSON
    output order.
    """

    condition_ratio: float
    negligible: bool
    step_phases: tuple[dict, ...]
    branch_phases: dict[str, float]


def phase_audit(seq: PulseSequence) -> PhaseAudit:
    """Book the dispersive phases of ``seq`` along its analytic windows.

    Each computational input is one basis index.  A window books its phases
    at the index's photon and level-2 digits (:meth:`HilbertSpace.digits`);
    its local unitaries then move the index to their largest output through
    the slot offsets :func:`gatesim.linalg.apply_local` uses.  No state is
    formed.
    """
    space = seq.space
    params = seq.params
    roles = seq.roles

    # Dispersive rate of each qubit while it is not the cavity actor.
    rates = [params.g_at(q) ** 2 / params.detuning_for(q, roles[q]) for q in range(space.n_qubits)]
    entries: dict[tuple[int, int], float] = {}
    idx = np.array(space.computational_indices())
    totals = np.zeros(len(idx))
    pure = np.ones(len(idx), dtype=bool)
    for evo in build_evolutions(seq, Mode.ANALYTIC):
        if evo.duration > 0:
            photons = space.digits(idx, (space.cavity_slot,))
            for q in range(space.n_qubits):
                if q in evo.cavity_actors:
                    continue
                phase = rates[q] * evo.duration
                key = (evo.step_index, q)
                entries[key] = entries.get(key, 0.0) + phase
                totals += phase * photons * (space.digits(idx, (q,)) == 2)
        for local, slots in evo.applications:
            offset = _check_local(local, space, slots)[1]
            here = space.digits(idx, slots)
            column = np.abs(local[:, here])
            pure &= np.abs(np.max(column, axis=0) - 1.0) <= 1e-9
            idx = idx + offset[np.argmax(column, axis=0)] - offset[here]
    step_phases = tuple(
        {"step": step, "qubit": qubit, "phase_rad": phase}
        for (step, qubit), phase in sorted(entries.items())
    )
    # Inputs that branch into superpositions (e.g. behind a Hadamard) are
    # omitted rather than guessed.
    branch_phases = {
        space.computational_label(k): float(totals[k]) for k in range(len(idx)) if pure[k]
    }

    ratio = params.omega_resonant / max(
        _condition_denominator(params, roles, q) for q in range(space.n_qubits)
    )
    return PhaseAudit(
        step_phases=step_phases,
        branch_phases=branch_phases,
        condition_ratio=float(ratio),
        negligible=bool(ratio > NEGLIGIBLE_RATIO),
    )


# --- adiabatic-elimination diagnostics -------------------------------------


def elimination_comparison_indices(cavity_dim: int) -> list[int]:
    """Basis states on which elimination of level 3 is meaningful.

    The closed-form domain of the emitter swap, minus the level-3 rows: the
    eliminated level has no analytic counterpart to compare against.
    """
    domain = closed_form_domain(Role.EMITTER, cavity_dim)
    return [i for i in domain if i // cavity_dim != 3]


def swap_fidelity_vs_full(params: DeviceParams, cavity_dim: int = 3) -> float:
    """Process fidelity of the first-principles emitter swap vs. its closed form.

    This is the package's quantitative handle on the adiabatic elimination:
    the residual infidelity scales as ``(g / delta_c)²`` and must shrink as
    the detuning ratio grows.
    """
    roles = (Role.EMITTER,)
    pulse = make_pulse(PulseKind.RAMAN_EMIT, 0, params, roles)
    # On one qubit plus the cavity the local (qudit, cavity) unitary is the full matrix.
    analytic, full = (
        pulse_local_unitary(pulse, params, roles, cavity_dim, mode)
        for mode in (Mode.ANALYTIC, Mode.FULL)
    )
    return process_fidelity(analytic, full, elimination_comparison_indices(cavity_dim))


def swap_peak_level3(params: DeviceParams, cavity_dim: int = 3, samples: int = 4096) -> float:
    """Peak level-3 occupation during the first-principles emitter swap.

    Sampled over the whole pulse from ``|1, vacuum>``; the transient sits at
    about ``4 g² / delta_c²`` and vanishes at the pulse edges, so interior
    sampling is required to see it.
    """
    space = HilbertSpace.for_qubits(1, cavity_dim)
    roles = (Role.EMITTER,)
    pulse = make_pulse(PulseKind.RAMAN_EMIT, 0, params, roles)
    local = pulse_local_hamiltonian(pulse, params, roles, cavity_dim, Mode.FULL)
    h = HermitianOperator(space, ((local, (0, space.cavity_slot)),))
    idx = np.array([space.index((1, 0))])
    state = Support(space, np.zeros(1, dtype=int), idx, np.ones(1, dtype=complex))
    times = np.linspace(0.0, pulse.duration, samples + 1)
    return float(np.max(evolve_times(state, h, times, _level3_terms(space))))

