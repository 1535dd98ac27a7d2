"""The five pulse primitives, as unitaries with physical durations.

Each primitive exists in three modes:

* ``ANALYTIC``: the closed-form map built entrywise (this is the reference;
  the protocol state tables pin every sign to it);
* ``EFFECTIVE``: the propagator of the second-order Hamiltonian for the
  primitive's duration (coincides with the analytic map on the states the
  protocols visit, exactly);
* ``FULL``: the propagator of the first-principles Hamiltonian, which keeps
  level 3 in play and is what the adiabatic-elimination validation compares
  against.

A pi pulse is its closed form in every mode: the resonant drive
``omega (e^{-i phi}|2><j| + e^{i phi}|j><2|)``, ``phi = ±pi/2``, rotates
``|j>`` into ``|2>`` alone, exactly onto the map at ``pi / (2 omega)``.  A
numerical exponential would leave ``cos(pi/2)`` round-off where the map has
zeros, for every later window to carry.

Durations:
  raman emit/absorb   t = pi * delta_c / (2 g²)      (quarter swap period)
  dispersive phase    t = pi * delta_ck / g²          (pi of phase on |2>|1>)
  pi pulse            t = pi / (2 omega_resonant)
  hadamard            0 (idealized bookkeeping resource)

The raman swaps require the drive matched to the cavity coupling
(omega_raman == g at the slot); anything else does not transfer completely
and is rejected.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hamiltonians as ham
from .device import DeviceParams, Role
from .linalg import HERMITIAN_TOL, QUDIT_LEVELS


class Mode(enum.Enum):
    ANALYTIC = "analytic"
    EFFECTIVE = "simulated_effective"
    FULL = "simulated_full"


class PulseKind(enum.Enum):
    RAMAN_EMIT = "raman_emit"
    RAMAN_ABSORB = "raman_absorb"
    DISPERSIVE_PHASE = "dispersive_phase"
    PI_PULSE = "pi_pulse"
    PI_PULSE_DAG = "pi_pulse_dag"
    HADAMARD = "hadamard"

    # cached: read for every pulse of every window, where an Enum property costs ~0.5 us
    @functools.cached_property
    def touches_cavity(self) -> bool:
        """The pulse acts on ``(qudit, cavity)``; any other acts on its qudit alone."""
        return self in (PulseKind.RAMAN_EMIT, PulseKind.RAMAN_ABSORB, PulseKind.DISPERSIVE_PHASE)

    @property
    def exchanges_photon(self) -> bool:
        return self in (PulseKind.RAMAN_EMIT, PulseKind.RAMAN_ABSORB)


@dataclass(frozen=True)
class Pulse:
    """One primitive applied at one qubit slot, with its physical duration."""

    kind: PulseKind
    slot: int
    duration: float


_ROLE_FOR_KIND = {
    PulseKind.RAMAN_EMIT: Role.EMITTER,
    PulseKind.RAMAN_ABSORB: Role.ABSORBER,
    PulseKind.DISPERSIVE_PHASE: Role.TARGET,
}


def _check_role(kind: PulseKind, slot: int, roles: tuple[Role, ...]) -> Role:
    if not 0 <= slot < len(roles):
        raise ValueError(f"slot {slot} has no role assignment")
    role = roles[slot]
    need = _ROLE_FOR_KIND.get(kind)
    if need is not None and role is not need:
        raise ValueError(f"{kind.value} requires a {need.value} qubit, slot {slot} is {role.value}")
    return role


def pulse_duration(kind: PulseKind, slot: int, params: DeviceParams) -> float:
    g = params.g_at(slot)
    if kind in (PulseKind.RAMAN_EMIT, PulseKind.RAMAN_ABSORB):
        return math.pi * params.delta_c / (2.0 * g**2)
    if kind is PulseKind.DISPERSIVE_PHASE:
        return math.pi * params.delta_ck_at(slot) / g**2
    if kind in (PulseKind.PI_PULSE, PulseKind.PI_PULSE_DAG):
        return math.pi / (2.0 * params.omega_resonant)
    return 0.0


def make_pulse(kind: PulseKind, slot: int, params: DeviceParams, roles: tuple[Role, ...]) -> Pulse:
    _check_role(kind, slot, roles)
    if kind.exchanges_photon:
        g = params.g_at(slot)
        omega = params.omega_raman_at(slot)
        if not math.isclose(omega, g, rel_tol=1e-12):
            raise ValueError(
                f"raman swap at slot {slot} needs omega_raman == g for complete "
                f"transfer (got omega={omega:.6g}, g={g:.6g})"
            )
    return Pulse(kind, slot, pulse_duration(kind, slot, params))


# Analytic local matrices.  Raman and dispersive primitives act on the
# (qudit, cavity) pair; pi pulses and hadamard act on the qudit alone.


def _analytic_swap(level: int, cavity_dim: int) -> np.ndarray:
    # Permutation |level, 0> <-> |2, 1>, identity on every other basis state.
    dim = QUDIT_LEVELS * cavity_dim
    u = np.eye(dim, dtype=complex)
    a = level * cavity_dim + 0
    b = 2 * cavity_dim + 1
    u[a, a] = u[b, b] = 0.0
    u[b, a] = u[a, b] = 1.0
    return u


def _analytic_dispersive(cavity_dim: int) -> np.ndarray:
    diag = np.ones(QUDIT_LEVELS * cavity_dim, dtype=complex)
    diag[2 * cavity_dim + 1] = -1.0
    diag[3 * cavity_dim + 1] = -1.0
    return np.diag(diag)


def _analytic_pi_pulse(j: int, dagger: bool) -> np.ndarray:
    u = np.eye(QUDIT_LEVELS, dtype=complex)
    u[j, j] = u[2, 2] = 0.0
    if dagger:
        # |j> -> |2>,  |2> -> -|j>
        u[2, j] = 1.0
        u[j, 2] = -1.0
    else:
        # |2> -> |j>,  |j> -> -|2>
        u[j, 2] = 1.0
        u[2, j] = -1.0
    return u


def hadamard_local() -> np.ndarray:
    """Idealized zero-duration Hadamard on the logical levels of one qudit."""
    u = np.eye(QUDIT_LEVELS, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    u[0, 0] = u[0, 1] = u[1, 0] = s
    u[1, 1] = -s
    return u


def _local_exp(h_local: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i h t)`` of a local generator; a non-Hermitian ``h`` raises ``ValueError``."""
    defect = np.max(np.abs(h_local - h_local.conj().T))
    if not defect <= HERMITIAN_TOL:  # a NaN entry fails too
        raise ValueError(f"pulse generator is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(h_local)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def pulse_local_hamiltonian(
    pulse: Pulse, params: DeviceParams, roles: tuple[Role, ...], cavity_dim: int, mode: Mode
) -> np.ndarray:
    """Local generator of a timed pulse.

    ``mode`` picks the second-order (``EFFECTIVE``) or first-principles
    (``FULL``) generator of a pulse that touches the cavity, as a
    ``(qudit, cavity)`` matrix.  The analytic maps, the pi pulses and the
    Hadamard have none.
    """
    role = _check_role(pulse.kind, pulse.slot, roles)
    kind = pulse.kind
    if mode is Mode.ANALYTIC or not kind.touches_cavity:
        raise ValueError(f"{kind.value} has no {mode.value} generator")
    if kind is PulseKind.DISPERSIVE_PHASE:
        return ham.idle_coupling_local(params, pulse.slot, role, cavity_dim, full=mode is Mode.FULL)
    builder = ham.raman_full_local if mode is Mode.FULL else ham.raman_effective_local
    return builder(params, pulse.slot, role, cavity_dim)


def pulse_local_unitary(
    pulse: Pulse, params: DeviceParams, roles: tuple[Role, ...], cavity_dim: int, mode: Mode
) -> np.ndarray:
    """Local unitary of a pulse, on ``(qudit, cavity)`` if it touches the cavity, else its qudit."""
    role = _check_role(pulse.kind, pulse.slot, roles)
    kind = pulse.kind
    if kind is PulseKind.HADAMARD:
        return hadamard_local()
    if kind in (PulseKind.PI_PULSE, PulseKind.PI_PULSE_DAG):
        return _analytic_pi_pulse(role.pulse_level, kind is PulseKind.PI_PULSE_DAG)
    if mode is not Mode.ANALYTIC:
        h = pulse_local_hamiltonian(pulse, params, roles, cavity_dim, mode)
        return _local_exp(h, pulse.duration)
    if kind is PulseKind.DISPERSIVE_PHASE:
        return _analytic_dispersive(cavity_dim)
    return _analytic_swap(role.pulse_level, cavity_dim)


def closed_form_domain(role: Role, cavity_dim: int) -> list[int]:
    """Local (qudit, cavity) indices where the raman closed form is exact.

    The swap's closed form covers its two flip states, the uncoupled levels,
    and the stationary ``|2,0>``.  States like ``|j, n>=1>`` would couple to
    higher photon numbers and are fixed to identity by convention; they are
    excluded from analytic-vs-simulated comparisons.
    """
    j = role.pulse_level
    spectator = 1 - j
    idx = []
    for n in range(cavity_dim):
        idx.append(spectator * cavity_dim + n)
        idx.append(3 * cavity_dim + n)
    idx.append(j * cavity_dim + 0)
    idx.append(2 * cavity_dim + 0)
    idx.append(2 * cavity_dim + 1)
    return sorted(idx)
