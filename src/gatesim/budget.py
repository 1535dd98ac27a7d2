"""Feasibility arithmetic: gate times, lifetimes, couplings, step counts.

Every quantity here is a closed formula; the gate durations are recomputed
independently of the sequencer so the two code paths can be diffed in tests.
The inputs arrive parsed and checked (:mod:`.device` reads every section of a
parameter file when it loads, the level-spacing orderings included), so this
module holds only the arithmetic.

Physical constants are pinned to CODATA 2018 in one table below, because the
published coupling-constant estimate is only reproducible against explicit
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .device import DeviceParams, SquidParams
from .sequences import GateKind

# CODATA 2018.
HBAR = 1.054571817e-34  # J s
MU_0 = 1.25663706212e-6  # N A^-2
PLANCK_H = 6.62607015e-34  # J s
ELEMENTARY_CHARGE = 1.602176634e-19  # C
FLUX_QUANTUM = PLANCK_H / (2.0 * ELEMENTARY_CHARGE)  # Wb

# Gate time over decoherence time below which a budget row passes.  The
# physical requirement is only "much shorter"; the 0.1 cut is this package's
# documented choice and can be overridden per call.
FEASIBILITY_THRESHOLD = 0.1


def _swap_time(params: DeviceParams, slot: int) -> float:
    return math.pi * params.delta_c / (2.0 * params.g_at(slot) ** 2)


def _dispersive_time(params: DeviceParams, slot: int) -> float:
    return math.pi * params.delta_ck_at(slot) / params.g_at(slot) ** 2


def _pi_time(params: DeviceParams) -> float:
    return math.pi / (2.0 * params.omega_resonant)


def time_cp3(params: DeviceParams) -> float:
    """Three-qubit controlled-phase duration.

    ``2 t1 + 2 t2 + tk + 4 tau`` with the emitter swap repeated twice, both
    absorber swaps, one dispersive window on the target (slot 2) and four
    resonant pi-pulses.
    """
    params.require_qubits(3)
    swaps = 2.0 * _swap_time(params, 0) + 2.0 * _swap_time(params, 1)
    return swaps + _dispersive_time(params, 2) + 4.0 * _pi_time(params)


def time_ntcnot(params: DeviceParams) -> float:
    """Fanout-CNOT duration ``2 t1 + 2 tau + tk``; no dependence on n."""
    params.require_qubits(2)
    return 2.0 * _swap_time(params, 0) + 2.0 * _pi_time(params) + _dispersive_time(params, 1)


def cavity_lifetime(quality_q: float, nu_c: float) -> float:
    """Photon lifetime ``Q / (2 pi nu_c)``; exact, no approximation."""
    if quality_q <= 0 or nu_c <= 0:
        raise ValueError("quality factor and cavity frequency must be positive")
    return quality_q / (2.0 * math.pi * nu_c)


def squid_coupling_breakdown(sq: SquidParams) -> dict:
    """Cavity coupling ``g_per_s`` of the SQUID's 2->3 transition, in s^-1, and its factors.

    ``g = (1/L) sqrt(omega_c / (2 mu0 hbar)) * m32 * phi0 * B_int`` where the
    field integral over the loop is ``B_int = mu0 sqrt(2/V) cos(kz) * S`` for
    a standing-wave cavity.
    """
    omega_c = 2.0 * math.pi * sq.cavity_frequency_hz
    mode_prefactor = math.sqrt(omega_c / (2.0 * MU_0 * HBAR))
    field_integral = (
        MU_0 * math.sqrt(2.0 / sq.cavity_volume_m3) * sq.antinode_factor * sq.loop_area_m2
    )
    g = (
        (1.0 / sq.loop_inductance_h)
        * mode_prefactor
        * sq.coupling_matrix_element
        * FLUX_QUANTUM
        * field_integral
    )
    return {
        "omega_c_rad_s": omega_c,
        "mode_prefactor": mode_prefactor,
        "flux_quantum_wb": FLUX_QUANTUM,
        "field_integral_wb_m": field_integral,
        "g_per_s": g,
    }


def step_count(gate: GateKind, n: Optional[int] = None, convention: str = "published") -> int:
    """Number of steps per gate under the chosen counting convention.

    The multi-control phase gate is quoted as ``4n - 5`` steps in the
    published counting; grouping its pulses exactly the way the three-qubit
    presentation groups them instead yields ``2n + 1``.  The two agree at
    ``n = 3`` and are both reported rather than reconciled.
    """
    if convention not in ("published", "grouped"):
        raise ValueError(f"unknown step-count convention {convention!r}")
    if gate is GateKind.CP3:
        return 7
    if gate is GateKind.TOFFOLI:
        return 9
    if gate is GateKind.NTCNOT:
        if n is not None and n < 2:
            raise ValueError("fanout CNOT needs n >= 2")
        return 5
    if n is None or n < 3:
        raise ValueError("multi-control phase gate needs n >= 3")
    return 4 * n - 5 if convention == "published" else 2 * n + 1


def conventional_step_count(gate: GateKind, n: Optional[int] = None) -> Optional[int]:
    """Step count of the textbook two-qubit-gate decomposition, for comparison.

    The quoted comparator for the multi-control phase gate, ``22n - 75``, is
    negative for n <= 3 even though the same source counts 28 steps for the
    Toffoli; it is reported verbatim, caveat and all, not repaired.
    """
    if gate is GateKind.TOFFOLI:
        return 28
    if gate is GateKind.NCP:
        if n is None or n < 3:
            raise ValueError("multi-control phase gate needs n >= 3")
        return 22 * n - 75
    return None


@dataclass(frozen=True)
class FeasibilityReport:
    """The ``budget`` report: fields are its JSON keys, in output order."""

    durations_s: dict
    tau_cp3_s: float
    tau_ntcnot_s: float
    kappa_inv_s: float
    gamma2_inv_s: float
    ratios: dict
    threshold: float
    passed: bool
    step_counts: dict


def feasibility(params: DeviceParams, threshold: float = FEASIBILITY_THRESHOLD) -> FeasibilityReport:
    """Gate times against both decoherence clocks, with a pass/fail verdict."""
    tau_cp3 = time_cp3(params)
    tau_nt = time_ntcnot(params)
    kappa_inv = cavity_lifetime(params.quality_q, params.nu_c)
    gamma2_inv = params.gamma2_inv
    ratios = {
        "cp3_vs_gamma2": tau_cp3 / gamma2_inv,
        "cp3_vs_kappa": tau_cp3 / kappa_inv,
        "ntcnot_vs_gamma2": tau_nt / gamma2_inv,
        "ntcnot_vs_kappa": tau_nt / kappa_inv,
    }
    durations = {
        "t1_s": _swap_time(params, 0),
        "t2_s": _swap_time(params, 1),
        "tk_s": _dispersive_time(params, 1),
        "tau_s": _pi_time(params),
    }
    counts = {
        "cp3": step_count(GateKind.CP3),
        "toffoli": step_count(GateKind.TOFFOLI),
        "toffoli_conventional": conventional_step_count(GateKind.TOFFOLI),
        "ntcnot": step_count(GateKind.NTCNOT),
        "ncp_published": {str(n): step_count(GateKind.NCP, n, "published") for n in (3, 4, 5)},
        "ncp_grouped": {str(n): step_count(GateKind.NCP, n, "grouped") for n in (3, 4, 5)},
        "ncp_conventional": {
            str(n): conventional_step_count(GateKind.NCP, n) for n in (3, 4, 5)
        },
    }
    return FeasibilityReport(
        durations_s=durations,
        tau_cp3_s=tau_cp3,
        tau_ntcnot_s=tau_nt,
        kappa_inv_s=kappa_inv,
        gamma2_inv_s=gamma2_inv,
        ratios=ratios,
        threshold=threshold,
        passed=all(r < threshold for r in ratios.values()),
        step_counts=counts,
    )

