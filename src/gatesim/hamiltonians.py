"""Rotating-frame Hamiltonians for the three cavity interactions.

Three couplings drive everything in this package:

* a Raman stage, where a classical drive on ``|j> <-> |3>`` and the cavity
  coupling on ``|2> <-> |3>`` share a common detuning ``delta_c`` and
  exchange a photon between the qubit and the cavity;
* a dispersive stage, where a far-detuned cavity coupling shifts ``|2>`` and
  ``|3>`` by a photon-number-dependent phase rate;
* a resonant stage, a plain Rabi drive between ``|j>`` and ``|2>``.

All three are written in a frame rotating at the cavity and drive
frequencies, where they are time independent (the two Raman detunings are
equal by construction, enforced at config parse).  Spectral propagation is
therefore exact.

Sign convention: the Raman drive is applied with phase pi (the ``-omega``
term below), which makes the resonant photon swap come out as
``|j,0> -> +|2,1>`` at a quarter Rabi period.  The closed forms in
:mod:`gatesim.pulses` and every state table in the verification suite depend
on that sign.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceParams, Role
from .linalg import QUDIT_LEVELS


def cavity_ladder(cavity_dim: int) -> np.ndarray:
    """Truncated annihilation operator: ``a|n> = sqrt(n)|n-1>``."""
    a = np.zeros((cavity_dim, cavity_dim), dtype=complex)
    for n in range(1, cavity_dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def _ket_bra(i: int, j: int) -> np.ndarray:
    m = np.zeros((QUDIT_LEVELS, QUDIT_LEVELS), dtype=complex)
    m[i, j] = 1.0
    return m


def _proj(i: int) -> np.ndarray:
    return _ket_bra(i, i)


def _require_raman(role: Role) -> int:
    if role is Role.TARGET:
        raise ValueError("Raman builders need an emitter or absorber role")
    return role.pulse_level


def raman_full_local(params: DeviceParams, slot: int, role: Role, cavity_dim: int) -> np.ndarray:
    """First-principles Raman Hamiltonian on one qudit plus the cavity.

    The always-on coupling (:func:`idle_coupling_local` with ``full=True``)
    minus the drive ``omega (|j><3| + |3><j|)``, with ``j`` the role's pulse
    level.  The minus sign on the drive is the phase-pi convention
    documented in the module docstring.
    """
    j = _require_raman(role)
    omega = params.omega_raman_at(slot)
    h = idle_coupling_local(params, slot, role, cavity_dim, full=True)
    h -= omega * np.kron(_ket_bra(j, 3) + _ket_bra(3, j), np.eye(cavity_dim))
    return h


def raman_effective_local(
    params: DeviceParams, slot: int, role: Role, cavity_dim: int
) -> np.ndarray:
    """Second-order Raman Hamiltonian with level 3 adiabatically eliminated.

    ``-(omega²/delta)|j><j|  -  (g²/delta) a†a |2><2|
      +  (omega g/delta)(a†|2><j| + a|j><2|)``

    The diagonal terms are the light shifts of the two Raman legs; the cross
    term is the photon-exchanging flip.  Its positive sign follows from the
    drive-phase convention and makes this the literal generator of the
    closed-form pulse maps.
    """
    j = _require_raman(role)
    g = params.g_at(slot)
    omega = params.omega_raman_at(slot)
    delta = params.delta_c
    a = cavity_ladder(cavity_dim)
    n_op = a.conj().T @ a
    h = -(omega**2 / delta) * np.kron(_proj(j), np.eye(cavity_dim))
    h -= (g**2 / delta) * np.kron(_proj(2), n_op)
    h += (omega * g / delta) * (np.kron(_ket_bra(2, j), a.conj().T) + np.kron(_ket_bra(j, 2), a))
    return h


def resonant_drive_local(omega: float, phi: float, j: int) -> np.ndarray:
    """Resonant Rabi drive ``omega (e^{-i phi}|2><j| + e^{i phi}|j><2|)``.

    Acts on the qudit alone; ``j`` must be a logical level (0 or 1).
    """
    if j not in (0, 1):
        raise ValueError(f"resonant drive couples a logical level to level 2, got j={j}")
    return omega * (np.exp(-1j * phi) * _ket_bra(2, j) + np.exp(1j * phi) * _ket_bra(j, 2))


def idle_coupling_local(
    params: DeviceParams, slot: int, role: Role, cavity_dim: int, full: bool
) -> np.ndarray:
    """Always-on cavity coupling of a qubit that is not being pulsed.

    With the drive off, only the ``|2> <-> |3>`` cavity coupling remains.
    ``full=True`` keeps it verbatim (detuned exchange with level 3), as the
    base of :func:`raman_full_local` and the full-mode dispersive-phase
    generator.  ``full=False`` reduces it to its dispersive second-order form
    ``(g²/delta)(|3><3| - |2><2|) a†a``: the effective dispersive-phase
    generator, and the idle term of every unpulsed qubit, both in a full-mode
    window and in the effective mode's idle factor.  Both use the detuning
    appropriate to the slot's role.
    """
    g = params.g_at(slot)
    delta = params.detuning_for(slot, role)
    a = cavity_ladder(cavity_dim)
    if full:
        h = delta * np.kron(_proj(3), np.eye(cavity_dim))
        h += g * (np.kron(_ket_bra(2, 3), a.conj().T) + np.kron(_ket_bra(3, 2), a))
        return h
    n_op = a.conj().T @ a
    return (g**2 / delta) * np.kron(_proj(3) - _proj(2), n_op)

