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

Composition (:func:`build_evolutions`) lowers the sequence to one
:class:`SubEvolution` per window, in one of three modes (see
:class:`gatesim.pulses.Mode`), by one rule.  The always-on cavity coupling
of each qubit is one local diagonal ``(qubit, cavity)`` term; a window keeps
the terms of the qubits it leaves idle.  A full-mode window with a cavity
actor is the joint Hamiltonian of its kept idle terms and its pulse
generators.  Any other window is a product of local unitaries: the kept idle
phases, then the pulses.  In a full-mode pi-pulse window that product is
exact, as each of its terms acts on its own qubit; the effective mode's idle
phases are the factorized form the analytic phase audit reproduces term by
term.  The closed-form Raman swaps are exact only on
:func:`gatesim.pulses.closed_form_domain`, the states the protocols visit;
:func:`gatesim.verify.report` checks every column it walks (one per column
orbit: ``2n`` for the fanout CNOT on identical targets) against it as it
walks the windows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

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
class SubEvolution:
    """One window of a sequence: a simultaneous group, or one member of an ordered step.

    The window evolves by ``hamiltonian`` for ``duration`` when it has one,
    and by its local ``applications`` in order otherwise.
    """

    step_index: int
    pulses: tuple[Pulse, ...]
    duration: float
    applications: tuple[tuple[np.ndarray, tuple[int, ...]], ...] = ()
    hamiltonian: HermitianOperator | None = None

    @property
    def cavity_actors(self) -> frozenset[int]:
        return frozenset(p.slot for p in self.pulses if p.kind.touches_cavity)


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


def _idle_phases(terms: list, t: float) -> tuple:
    """``exp(-i t diag(h))`` of each idle term, on the term's own slots.

    An idle generator must be a real diagonal, so its exponential is taken
    entrywise; anything else raises ``ValueError``.
    """
    phases = []
    for h, slots in terms:
        shift = np.diag(h)
        if not np.array_equal(h, np.diag(shift.real)):  # a NaN entry fails too
            raise ValueError(f"idle generator on slots {slots} is not a real diagonal")
        phases.append((np.diag(np.exp(-1j * t * shift)), slots))
    return tuple(phases)


def build_evolutions(
    seq: PulseSequence, mode: Mode, include_idle: bool | None = None
) -> list[SubEvolution]:
    """Lower a sequence to one :class:`SubEvolution` per window, by one rule.

    A simultaneous step is one window and an ordered step one window per
    member.  With idles (the default in full mode only), a window of nonzero
    duration keeps the idle term (:func:`_idle_terms`) of every qubit
    outside its pulsed slots in full mode, outside its cavity actors in the
    effective mode, as the phase audit books them.  A full-mode window with
    a cavity actor is one :class:`HermitianOperator` of the kept idle terms
    and the pulses' first-principles generators; its members must share one
    duration.  Any other window is the kept idle phases, then its pulses'
    local unitaries.  That is exact in a full-mode pi-pulse window, as each
    of its terms acts on its own qubit.  ``docs/formats.md`` gives the
    fidelities the two idle conventions would move.
    """
    if include_idle is None:
        include_idle = mode is Mode.FULL
    if include_idle and mode is Mode.ANALYTIC:
        raise ValueError("analytic composition has no idle couplings to include")
    space = seq.space
    idle = _idle_terms(seq) if include_idle else []
    lowering = (seq.params, seq.roles, space.cavity_dim, mode)
    out: list[SubEvolution] = []
    for i, step in enumerate(seq.steps):
        for pulses in [(p,) for p in step.members] if step.ordered else [step.members]:
            t = max(p.duration for p in pulses)
            if mode is Mode.FULL:
                for p in pulses:
                    if not math.isclose(p.duration, t, rel_tol=1e-9):
                        raise ValueError(
                            "simultaneous full-mode evolution needs equal member durations; "
                            f"got {p.duration} vs {t}"
                        )
            terms = []
            if idle and t > 0:
                skip = {p.slot for p in pulses if mode is Mode.FULL or p.kind.touches_cavity}
                terms = [(h, slots) for h, slots in idle if slots[0] not in skip]
            slots = [
                (p.slot, space.cavity_slot) if p.kind.touches_cavity else (p.slot,) for p in pulses
            ]
            if mode is Mode.FULL and any(p.kind.touches_cavity for p in pulses):
                terms += [(pulse_local_hamiltonian(p, *lowering), s) for p, s in zip(pulses, slots)]
                h = HermitianOperator(space, tuple(terms))
                out.append(SubEvolution(i, pulses, t, hamiltonian=h))
            else:
                apps = [(pulse_local_unitary(p, *lowering), s) for p, s in zip(pulses, slots)]
                out.append(SubEvolution(i, pulses, t, applications=_idle_phases(terms, t) + tuple(apps)))
    return out


def apply_evolutions(
    evolutions: Iterable[SubEvolution], space: HilbertSpace, state: Support
) -> Support:
    """Apply the factors in order to a :class:`Support`."""
    for evo in evolutions:
        if evo.hamiltonian is not None:
            state = evo.hamiltonian.propagate(state, evo.duration)
        for local, slots in evo.applications:
            state = apply_local(local, space, slots, state)
    return state


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
