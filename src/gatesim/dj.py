"""Two-qubit Deutsch-Jozsa demonstration on top of the two-qubit fanout CNOT.

The query qubit is the emitter (slot 0) and the auxiliary qubit the
dispersive target (slot 1), prepared in
``(|0> + |1>)/sqrt(2) (x) |1>`` which reads
``(|0> + |1>) (x) (|+> - |->) / 2`` in the target's +/- basis.  Each oracle
is one of the four functions on one bit, compiled from at most two CNOTs and
two idealized single-qubit rotations.  A CNOT is the windows of the
two-qubit fanout CNOT sequence, which the state's support walks like any
gate report does (no unitary is formed).  After the oracle, a Hadamard on the
query qubit maps constant functions to ``|0>`` and balanced ones to ``|1>``
deterministically.  Measurement is modelled as a projection probability:
the claim under test is deterministic discrimination, so sampling would add
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams
from .linalg import QUDIT_LEVELS, HilbertSpace, Support, apply_local
from .pulses import Mode, hadamard_local
from .sequences import apply_evolutions, build_evolutions, ntcnot_sequence

PROB_TOL = 1e-10


@dataclass(frozen=True)
class OracleVariant:
    """One of the four one-bit functions, keyed the way the demo labels them."""

    id: int
    f0: int
    f1: int


ORACLES = {
    1: OracleVariant(1, 0, 0),
    2: OracleVariant(2, 1, 1),
    3: OracleVariant(3, 0, 1),
    4: OracleVariant(4, 1, 0),
}


def oracle_variant(variant_id: int) -> OracleVariant:
    try:
        return ORACLES[variant_id]
    except KeyError:
        raise ValueError(f"oracle variant must be 1..4, got {variant_id}") from None


# Idealized single-qubit rotations used inside the oracle recipes.
def _rotation(sign: int) -> np.ndarray:
    # sign=+1: |0> -> |1>, |1> -> -|0>;  sign=-1: |0> -> -|1>, |1> -> |0>.
    u = np.eye(QUDIT_LEVELS, dtype=complex)
    u[0, 0] = u[1, 1] = 0.0
    u[1, 0] = float(sign)
    u[0, 1] = -float(sign)
    return u


def dj_space(cavity_dim: int = 2) -> HilbertSpace:
    return HilbertSpace.for_qubits(2, cavity_dim)


def prepare_input(space: HilbertSpace) -> Support:
    """``(|0> + |1>)/sqrt(2) (x) |1>`` with the cavity in vacuum: a two-entry support."""
    idx = np.array([space.index((0, 1, 0)), space.index((1, 1, 0))])
    return Support(space, np.zeros(2, dtype=int), idx, np.full(2, 1.0 / np.sqrt(2.0), dtype=complex))


def uf_apply(
    variant: OracleVariant,
    state: Support,
    params: DeviceParams,
    mode: Mode = Mode.ANALYTIC,
) -> Support:
    """Apply one oracle to the prepared state, built from its truth table.

    The CNOT flips the target when the query is 1, and the CNOT between the
    two query rotations (which exchange the query's levels) when it is 0; the
    oracle applies the first if ``f1`` is set, then the second if ``f0`` is.
    The CNOT's windows are built once and walked once or twice.
    """
    space = state.space
    seq = ntcnot_sequence(2, params, space.cavity_dim)  # checks the device for every variant
    if not (variant.f0 or variant.f1):
        return state  # constant-0: both systems stay far off resonance
    cnot = build_evolutions(seq, mode)
    if variant.f1:
        state = apply_evolutions(cnot, space, state)
    if variant.f0:
        state = apply_local(_rotation(+1), space, (0,), state)
        state = apply_evolutions(cnot, space, state)
        state = apply_local(_rotation(-1), space, (0,), state)
    return state


@dataclass(frozen=True)
class DJResult:
    variant: int
    classification: str
    probability: float
    oracle_applications: int


def run_dj(
    variant_id: int,
    params: DeviceParams,
    mode: Mode = Mode.ANALYTIC,
    cavity_dim: int = 2,
) -> DJResult:
    """One oracle query, one Hadamard, one projective readout of the query qubit."""
    variant = oracle_variant(variant_id)
    space = dj_space(cavity_dim)
    state = prepare_input(space)
    state = uf_apply(variant, state, params, mode)
    oracle_applications = 1
    state = apply_local(hadamard_local(), space, (0,), state)
    query = space.digits(state.idx, (0,))  # the query qubit's level
    p0 = float(np.sum(np.abs(state.amp[query == 0]) ** 2))
    p1 = float(np.sum(np.abs(state.amp[query == 1]) ** 2))
    if p0 >= p1:
        classification, probability = "constant", p0
    else:
        classification, probability = "balanced", p1
    return DJResult(variant.id, classification, probability, oracle_applications)

