"""Pulse-sequence construction and composition for the multiqubit gates.

The four gates are built from the pulse primitives:

* ``cp3``: three-qubit controlled phase (-1 on ``|111>``), 7 steps;
* ``ncp``: its n-qubit generalization with n-1 controls, one emitter qubit,
  absorbers in the middle, one dispersive target at the end;
* ``ntcnot``: one control qubit flipping n-1 targets simultaneously (targets
  read in the +/- basis), 5 steps for every n;
* ``toffoli``: cp3 conjugated by Hadamards on the target, 9 steps.

A step groups pulses that run at the same time; its duration is the longest
member.  One step (the target stage of the phase gates) instead bundles an
ordered sub-list, whose duration is the sum.  Within a simultaneous group,
members must act on distinct qubits, at most one member may exchange a
photon with the cavity, and a photon-exchanging member cannot share the
group with any other cavity-coupled member; any number of dispersive-phase
members may share the cavity since their generators commute.

Composition walks the sequence in one of three modes (see
:class:`gatesim.pulses.Mode`).  The always-on cavity coupling of each
undriven qubit is one local ``(qubit, cavity)`` term.  The full mode solves
the joint step Hamiltonian of each window with a cavity actor, the idle
terms ahead of the pulse generators; a pi-pulse window is the exact product
of its local unitaries, as each of its terms acts on its own qubit.
The effective mode can optionally include the idle couplings as one local
diagonal unitary per idle qubit, applied to the entering state; that
factorized form is what the analytic phase audit reproduces term by term.
The closed-form Raman swaps are exact only on
:func:`gatesim.pulses.closed_form_domain`, the states the protocols visit;
:func:`gatesim.verify.report` checks every column against it as it walks
the windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .device import DeviceParams, Role
from .hamiltonians import idle_coupling_local
from .linalg import (
    HermitianOperator,
    HilbertSpace,
    Support,
    apply_local,
)
from .pulses import Mode, Pulse, PulseKind, make_pulse, pulse_local_hamiltonian, pulse_local_unitary


class GateKind(enum.Enum):
    CP3 = "cp3"
    NCP = "ncp"
    NTCNOT = "ntcnot"
    TOFFOLI = "toffoli"

    @classmethod
    def parse(cls, name: str) -> "GateKind":
        for g in cls:
            if g.value == name:
                return g
        raise ValueError(f"unknown gate {name!r}")


@dataclass(frozen=True)
class PulseStep:
    """A group of simultaneous pulses, or an ordered bundle of them."""

    members: tuple[Pulse, ...]
    ordered: bool = False

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a pulse step needs at least one member")
        if self.ordered:
            return
        slots = [p.slot for p in self.members]
        if len(set(slots)) != len(slots):
            raise ValueError(f"simultaneous pulses must act on distinct qubits, got slots {slots}")
        exchangers = [p for p in self.members if p.kind.exchanges_photon]
        dispersive = [p for p in self.members if p.kind is PulseKind.DISPERSIVE_PHASE]
        if len(exchangers) > 1:
            raise ValueError("at most one pulse per step may exchange a photon with the cavity")
        if exchangers and dispersive:
            raise ValueError(
                "a photon-exchanging pulse cannot share a step with other cavity-coupled pulses"
            )

    @property
    def duration(self) -> float:
        if self.ordered:
            return sum(p.duration for p in self.members)
        return max(p.duration for p in self.members)


@dataclass(frozen=True)
class PulseSequence:
    gate: GateKind
    n: int
    steps: tuple[PulseStep, ...]
    roles: tuple[Role, ...]
    params: DeviceParams
    space: HilbertSpace

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def total_duration(self) -> float:
        return sum(step.duration for step in self.steps)


def ncp_roles(n: int) -> tuple[Role, ...]:
    return (Role.EMITTER,) + (Role.ABSORBER,) * (n - 2) + (Role.TARGET,)


def ntcnot_roles(n: int) -> tuple[Role, ...]:
    return (Role.EMITTER,) + (Role.TARGET,) * (n - 1)


def ncp_sequence(n: int, params: DeviceParams, cavity_dim: int = 2) -> PulseSequence:
    """n-qubit controlled phase: -1 on ``|1...1>``, identity elsewhere.

    Grouping convention: all first-pass pi pulses share one step, the
    absorber swaps run sequentially (each exchanges the single cavity
    photon), the target stage is one ordered bundle, and the second pass
    mirrors the first with the absorber order reversed.  This yields
    ``2n + 1`` steps and reduces to the seven-step three-qubit sequence at
    ``n = 3``.
    """
    if n < 3:
        raise ValueError("the multi-control phase gate needs at least 3 qubits")
    params.require_qubits(n)
    roles = ncp_roles(n)
    mk = lambda kind, slot: make_pulse(kind, slot, params, roles)
    target = n - 1
    steps = [PulseStep((mk(PulseKind.RAMAN_EMIT, 0),))]
    steps.append(
        PulseStep(
            (mk(PulseKind.PI_PULSE, 0),)
            + tuple(mk(PulseKind.PI_PULSE_DAG, q) for q in range(1, target))
        )
    )
    for q in range(1, target):
        steps.append(PulseStep((mk(PulseKind.RAMAN_ABSORB, q),)))
    steps.append(
        PulseStep(
            (
                mk(PulseKind.PI_PULSE_DAG, target),
                mk(PulseKind.DISPERSIVE_PHASE, target),
                mk(PulseKind.PI_PULSE, target),
            ),
            ordered=True,
        )
    )
    for q in range(target - 1, 0, -1):
        steps.append(PulseStep((mk(PulseKind.RAMAN_ABSORB, q),)))
    steps.append(
        PulseStep(
            (mk(PulseKind.PI_PULSE_DAG, 0),)
            + tuple(mk(PulseKind.PI_PULSE, q) for q in range(1, target))
        )
    )
    steps.append(PulseStep((mk(PulseKind.RAMAN_EMIT, 0),)))
    gate = GateKind.CP3 if n == 3 else GateKind.NCP
    space = HilbertSpace.for_qubits(n, cavity_dim)
    return PulseSequence(gate, n, tuple(steps), roles, params, space)


def cp3_sequence(params: DeviceParams, cavity_dim: int = 2) -> PulseSequence:
    """Three-qubit controlled phase gate, seven steps."""
    return ncp_sequence(3, params, cavity_dim)


def ntcnot_sequence(n: int, params: DeviceParams, cavity_dim: int = 2) -> PulseSequence:
    """One control qubit flipping ``n - 1`` targets at once, five steps.

    All dispersive-phase pulses run in a single shared interaction window,
    so the total duration does not grow with ``n``.

    Basis convention: the control reads in 0/1 and each target in the +/-
    basis, which needs no Hadamards at all.  Reading the control in +/-
    instead would cost two extra Hadamards on the control; reading the
    targets in 0/1 would cost ``2(n - 1)`` extra Hadamards around the
    sequence.  Only the Hadamard-free convention is built here.
    """
    if n < 2:
        raise ValueError("the fanout CNOT needs at least 2 qubits")
    params.require_qubits(n)
    roles = ntcnot_roles(n)
    mk = lambda kind, slot: make_pulse(kind, slot, params, roles)
    steps = [
        PulseStep((mk(PulseKind.RAMAN_EMIT, 0),)),
        PulseStep(
            (mk(PulseKind.PI_PULSE, 0),)
            + tuple(mk(PulseKind.PI_PULSE_DAG, q) for q in range(1, n))
        ),
        PulseStep(tuple(mk(PulseKind.DISPERSIVE_PHASE, q) for q in range(1, n))),
        PulseStep(
            (mk(PulseKind.PI_PULSE_DAG, 0),)
            + tuple(mk(PulseKind.PI_PULSE, q) for q in range(1, n))
        ),
        PulseStep((mk(PulseKind.RAMAN_EMIT, 0),)),
    ]
    space = HilbertSpace.for_qubits(n, cavity_dim)
    return PulseSequence(GateKind.NTCNOT, n, tuple(steps), roles, params, space)


def toffoli_sequence(params: DeviceParams, cavity_dim: int = 2) -> PulseSequence:
    """Controlled-controlled-NOT: Hadamards on the target around cp3."""
    base = cp3_sequence(params, cavity_dim)
    roles = base.roles
    h = make_pulse(PulseKind.HADAMARD, 2, params, roles)
    steps = (PulseStep((h,)),) + base.steps + (PulseStep((h,)),)
    return PulseSequence(GateKind.TOFFOLI, 3, steps, roles, params, base.space)


def build_sequence(
    gate: GateKind, n: int, params: DeviceParams, cavity_dim: int = 2
) -> PulseSequence:
    if gate is GateKind.CP3:
        return cp3_sequence(params, cavity_dim)
    if gate is GateKind.NCP:
        return ncp_sequence(n, params, cavity_dim)
    if gate is GateKind.NTCNOT:
        return ntcnot_sequence(n, params, cavity_dim)
    return toffoli_sequence(params, cavity_dim)


# --- composition ---------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """One atomic evolution window: a simultaneous group or one ordered member."""

    step_index: int
    pulses: tuple[Pulse, ...]
    duration: float

    @property
    def cavity_actors(self) -> frozenset[int]:
        return frozenset(p.slot for p in self.pulses if p.kind.touches_cavity)


def sequence_units(seq: PulseSequence) -> list[Unit]:
    units = []
    for i, step in enumerate(seq.steps):
        if step.ordered:
            for pulse in step.members:
                units.append(Unit(i, (pulse,), pulse.duration))
        else:
            units.append(Unit(i, step.members, step.duration))
    return units


@dataclass(frozen=True)
class SubEvolution:
    """One factor of the composed unitary: local unitaries in order, or a Hamiltonian."""

    unit: Unit
    applications: tuple[tuple[np.ndarray, tuple[int, ...]], ...] = ()
    hamiltonian: HermitianOperator | None = None
    duration: float = 0.0


def _idle_terms(seq: PulseSequence) -> list:
    """The always-on dispersive coupling of each qubit, one term each, in qubit order.

    ``(g_q²/delta_q)(|3><3| - |2><2|)_q a†a`` on ``(q, cavity)``, with
    ``delta_q`` the detuning of the qubit's role.  A window keeps the terms
    of the qubits it leaves idle.
    """
    space, terms = seq.space, []
    for q, role in enumerate(seq.roles):
        local = idle_coupling_local(seq.params, q, role, space.cavity_dim, full=False)
        terms.append((local, (q, space.cavity_slot)))
    return terms


def _idle_phases(idle: list, skip, t: float) -> tuple:
    """``exp(-i t diag(h))`` on ``(q, cavity)`` for each idle term whose qubit is not in ``skip``.

    An idle generator must be a real diagonal, so its exponential is taken
    entrywise; anything else raises ``ValueError``.
    """
    phases = []
    for h, slots in idle:
        if slots[0] in skip:
            continue
        shift = np.diag(h)
        if not np.array_equal(h, np.diag(shift.real)):  # a NaN entry fails too
            raise ValueError(f"idle generator on slots {slots} is not a real diagonal")
        phases.append((np.diag(np.exp(-1j * t * shift)), slots))
    return tuple(phases)


def _full_unit_hamiltonian(seq: PulseSequence, unit: Unit, idle: list) -> HermitianOperator:
    """Joint Hamiltonian of one full-mode window with a cavity actor.

    Pulsed qubits contribute their first-principles pulse generator (see
    :func:`gatesim.pulses.pulse_local_hamiltonian`); every unpulsed qubit
    keeps its term in ``idle`` (:func:`_idle_terms`, empty without idles).
    The operator is built from the idle terms and each pulsed member's local
    generator, without forming the ``D x D`` matrix.
    """
    space = seq.space
    pulsed = {p.slot for p in unit.pulses}
    terms = [(local, slots) for local, slots in idle if slots[0] not in pulsed]
    for p in unit.pulses:
        local, with_cavity = pulse_local_hamiltonian(
            p, seq.params, seq.roles, space.cavity_dim, Mode.FULL
        )
        terms.append((local, (p.slot, space.cavity_slot) if with_cavity else (p.slot,)))
    return HermitianOperator(space, tuple(terms))


def build_evolutions(
    seq: PulseSequence, mode: Mode, include_idle: bool | None = None
) -> list[SubEvolution]:
    """Lower a sequence to an ordered list of evolution factors.

    A full-mode window with a cavity actor is one :class:`HermitianOperator`.
    Any other window is a product of local unitaries: its pulses' and, with
    idles, each idle qubit's diagonal phase.  That is exact in a full-mode
    pi-pulse window, as each of its terms acts on its own qubit.  Full mode
    leaves the unpulsed qubits idle; the effective mode, like the phase
    audit, leaves all but the cavity actors idle and applies their phases as
    a factor of their own.  ``docs/formats.md`` gives the fidelities this
    difference would move.
    """
    if include_idle is None:
        include_idle = mode is Mode.FULL
    if include_idle and mode is Mode.ANALYTIC:
        raise ValueError("analytic composition has no idle couplings to include")
    space = seq.space
    idle = _idle_terms(seq) if include_idle else []
    out: list[SubEvolution] = []
    for unit in sequence_units(seq):
        instant_only = all(p.kind is PulseKind.HADAMARD for p in unit.pulses)
        if mode is Mode.FULL and not instant_only:
            for p in unit.pulses:
                if not math.isclose(p.duration, unit.duration, rel_tol=1e-9):
                    raise ValueError(
                        "simultaneous full-mode evolution needs equal member durations; "
                        f"got {p.duration} vs {unit.duration}"
                    )
            if unit.cavity_actors:
                h = _full_unit_hamiltonian(seq, unit, idle)
                out.append(SubEvolution(unit, hamiltonian=h, duration=unit.duration))
                continue
        apps = ()
        if include_idle and not instant_only:
            skip = {p.slot for p in unit.pulses} if mode is Mode.FULL else unit.cavity_actors
            apps = _idle_phases(idle, skip, unit.duration)
            if mode is Mode.EFFECTIVE:
                out.append(SubEvolution(unit, applications=apps))
                apps = ()
        for p in unit.pulses:
            local, with_cavity = pulse_local_unitary(
                p, seq.params, seq.roles, space.cavity_dim, Mode.ANALYTIC if instant_only else mode
            )
            slots = (p.slot, space.cavity_slot) if with_cavity else (p.slot,)
            apps += ((local, slots),)
        out.append(SubEvolution(unit, applications=apps, duration=unit.duration))
    return out


def apply_evolutions(evolutions: Iterable[SubEvolution], space: HilbertSpace, array):
    """Apply the factors in order to a vector, a stack of columns or a :class:`Support`.

    The state walks every window as a :class:`Support` and leaves in the input's form.
    """
    state = Support.of(space, array)
    for evo in evolutions:
        if evo.hamiltonian is not None:
            state = evo.hamiltonian.propagate(state, evo.duration)
        for local, slots in evo.applications:
            state = apply_local(local, space, slots, state)
    return state.like(array)


def compose(seq: PulseSequence, mode: Mode, include_idle: bool | None = None) -> np.ndarray:
    """Ordered product of the sequence's step unitaries."""
    evolutions = build_evolutions(seq, mode, include_idle)
    return apply_evolutions(evolutions, seq.space, np.eye(seq.space.total_dim, dtype=complex))


def serialize_sequence(seq: PulseSequence) -> dict:
    """JSON-ready step list: kind, slot, duration and grouping per pulse."""
    steps = []
    for i, step in enumerate(seq.steps):
        steps.append(
            {
                "group": i,
                "ordered": step.ordered,
                "duration_s": step.duration,
                "pulses": [
                    {"kind": p.kind.value, "slot": p.slot, "duration_s": p.duration}
                    for p in step.members
                ],
            }
        )
    return {
        "gate": seq.gate.value,
        "n": seq.n,
        "roles": [r.value for r in seq.roles],
        "cavity_dim": seq.space.cavity_dim,
        "step_count": seq.step_count,
        "total_duration_s": seq.total_duration,
        "steps": steps,
    }


@dataclass(frozen=True)
class TruthRow:
    input_label: str
    amplitudes: dict[str, complex]
    leakage: float


def truth_table(
    u: np.ndarray, inputs: Sequence[tuple[str, np.ndarray]], drop_below: float = 0.0
) -> list[TruthRow]:
    """Decompose the action of ``u`` on labelled states over the same states.

    The leakage column is the norm of the output component outside the
    labelled set.
    """
    labels = [label for label, _ in inputs]
    vectors = np.column_stack([vec for _, vec in inputs])
    outputs = u @ vectors
    overlaps = vectors.conj().T @ outputs
    # residual computed as a vector difference: subtracting probabilities
    # from 1 would lose half the significant digits to cancellation
    residuals = outputs - vectors @ overlaps
    rows = []
    for col, label in enumerate(labels):
        amps = {}
        for row, other in enumerate(labels):
            a = complex(overlaps[row, col])
            if abs(a) > drop_below:
                amps[other] = a
        leakage = float(np.linalg.norm(residuals[:, col]))
        rows.append(TruthRow(label, amps, leakage))
    return rows
