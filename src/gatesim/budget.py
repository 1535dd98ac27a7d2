"""Feasibility arithmetic: gate times, lifetimes, couplings, step counts.

Every quantity here is a closed formula; the gate durations are recomputed
independently of the sequencer so the two code paths can be diffed in tests.

Physical constants are pinned to CODATA 2018 in one table below, because the
published coupling-constant estimate is only reproducible against explicit
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .device import ConfigError, DeviceParams, _positive
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


def _check_section(name: str, raw) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"the {name} section must be a JSON object, got {raw!r}")


@dataclass(frozen=True)
class SquidParams:
    """rf-SQUID device figures entering the coupling-constant estimate."""

    junction_capacitance: float  # F
    loop_inductance: float  # H
    damping_resistance: float  # ohm
    beta_l: float
    external_flux: float  # units of the flux quantum
    coupling_matrix_element: float  # dimensionless 2->3 matrix element
    loop_area: float  # m^2
    cavity_volume: float  # m^3
    cavity_frequency: float  # Hz
    antinode_factor: float  # cos(kz) at the SQUID position

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _positive(f"squid parameter {f.name}", getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        if self.antinode_factor > 1.0:
            raise ConfigError("antinode factor is a cosine and cannot exceed 1")


_SQUID_KEYS = {
    "junction_capacitance_f": "junction_capacitance",
    "loop_inductance_h": "loop_inductance",
    "damping_resistance_ohm": "damping_resistance",
    "beta_l": "beta_l",
    "external_flux_phi0": "external_flux",
    "coupling_matrix_element": "coupling_matrix_element",
    "loop_area_m2": "loop_area",
    "cavity_volume_m3": "cavity_volume",
    "cavity_frequency_hz": "cavity_frequency",
    "antinode_factor": "antinode_factor",
}


def squid_from_dict(raw: dict) -> SquidParams:
    _check_section("squid", raw)
    unknown = set(raw) - set(_SQUID_KEYS) - {"description"}
    if unknown:
        raise ConfigError(f"unknown squid keys: {sorted(unknown)}")
    missing = set(_SQUID_KEYS) - set(raw)
    if missing:
        raise ConfigError(f"missing squid keys: {sorted(missing)}")
    return SquidParams(
        **{attr: _positive(f"squid.{key}", raw[key]) for key, attr in _SQUID_KEYS.items()}
    )


def squid_coupling(sq: SquidParams) -> float:
    """Cavity coupling of the SQUID's 2->3 transition, in s^-1.

    ``g = (1/L) sqrt(omega_c / (2 mu0 hbar)) * m32 * phi0 * B_int`` where the
    field integral over the loop is ``B_int = mu0 sqrt(2/V) cos(kz) * S`` for
    a standing-wave cavity.
    """
    return squid_coupling_breakdown(sq)["g_per_s"]


def squid_coupling_breakdown(sq: SquidParams) -> dict:
    """Same as :func:`squid_coupling` with every intermediate factor exposed."""
    omega_c = 2.0 * math.pi * sq.cavity_frequency
    mode_prefactor = math.sqrt(omega_c / (2.0 * MU_0 * HBAR))
    field_integral = MU_0 * math.sqrt(2.0 / sq.cavity_volume) * sq.antinode_factor * sq.loop_area
    g = (
        (1.0 / sq.loop_inductance)
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
    tau_cp3: float
    tau_ntcnot: float
    kappa_inv: float
    gamma2_inv: float
    ratios: dict
    threshold: float
    passed: bool
    durations: dict
    step_counts: dict

    def to_dict(self) -> dict:
        return {
            "durations_s": self.durations,
            "tau_cp3_s": self.tau_cp3,
            "tau_ntcnot_s": self.tau_ntcnot,
            "kappa_inv_s": self.kappa_inv,
            "gamma2_inv_s": self.gamma2_inv,
            "ratios": self.ratios,
            "threshold": self.threshold,
            "passed": self.passed,
            "step_counts": self.step_counts,
        }


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
        tau_cp3=tau_cp3,
        tau_ntcnot=tau_nt,
        kappa_inv=kappa_inv,
        gamma2_inv=gamma2_inv,
        ratios=ratios,
        threshold=threshold,
        passed=all(r < threshold for r in ratios.values()),
        durations=durations,
        step_counts=counts,
    )


@dataclass(frozen=True)
class LevelStructure:
    """Transition frequencies of a four-level device, in Hz."""

    qubit_type: str
    nu_21: float
    nu_32: float
    nu_10: Optional[float] = None
    nu_20: Optional[float] = None
    nu_31: Optional[float] = None
    nu_30: Optional[float] = None


_LEVEL_FREQS = {
    "nu_10_hz": "nu_10",
    "nu_21_hz": "nu_21",
    "nu_32_hz": "nu_32",
    "nu_20_hz": "nu_20",
    "nu_31_hz": "nu_31",
    "nu_30_hz": "nu_30",
}


def levels_from_dict(raw: dict) -> LevelStructure:
    _check_section("levels", raw)
    unknown = set(raw) - set(_LEVEL_FREQS) - {"qubit_type", "description"}
    if unknown:
        raise ConfigError(f"unknown level keys: {sorted(unknown)}")
    for required in ("qubit_type", "nu_21_hz", "nu_32_hz"):
        if required not in raw:
            raise ConfigError(f"missing level key: {required}")
    if not isinstance(raw["qubit_type"], str):
        raise ConfigError(f"levels.qubit_type must be a string, got {raw['qubit_type']!r}")
    present = [(key, attr) for key, attr in _LEVEL_FREQS.items() if key in raw]
    freqs = {attr: _positive(f"levels.{key}", raw[key]) for key, attr in present}
    return LevelStructure(raw["qubit_type"], **freqs)


# Predicate tables: (description, lambda) per qubit type.  The charge-qubit
# entry encodes the reading nu21 > nu10, nu21 > nu32 and nu32 < nu10.
_ORDERINGS = {
    "charge": (
        ("nu_21 > nu_10", lambda l: l.nu_21 > l.nu_10),
        ("nu_21 > nu_32", lambda l: l.nu_21 > l.nu_32),
        ("nu_32 < nu_10", lambda l: l.nu_32 < l.nu_10),
    ),
    "phase": (
        ("nu_10 > nu_21", lambda l: l.nu_10 > l.nu_21),
        ("nu_21 > nu_32", lambda l: l.nu_21 > l.nu_32),
    ),
    "flux": (
        ("nu_21 > nu_10", lambda l: l.nu_21 > l.nu_10),
        ("nu_21 > nu_32", lambda l: l.nu_21 > l.nu_32),
        ("nu_32 > nu_10", lambda l: l.nu_32 > l.nu_10),
    ),
    "squid": (
        ("nu_32 < nu_21", lambda l: l.nu_32 < l.nu_21),
        ("nu_21 < nu_20", lambda l: l.nu_21 < l.nu_20),
        ("nu_20 < nu_31", lambda l: l.nu_20 < l.nu_31),
        ("nu_31 < nu_30", lambda l: l.nu_31 < l.nu_30),
    ),
}

_REQUIRED_FREQS = {
    "charge": ("nu_10", "nu_21", "nu_32"),
    "phase": ("nu_10", "nu_21", "nu_32"),
    "flux": ("nu_10", "nu_21", "nu_32"),
    "squid": ("nu_21", "nu_32", "nu_20", "nu_31", "nu_30"),
}


def validate_levels(ls: LevelStructure) -> tuple[bool, list[str]]:
    """Check the spacing ordering for the device type; list violated predicates."""
    if ls.qubit_type not in _ORDERINGS:
        raise ConfigError(f"unknown qubit type {ls.qubit_type!r}")
    for name in _REQUIRED_FREQS[ls.qubit_type]:
        if getattr(ls, name) is None:
            raise ConfigError(f"{ls.qubit_type} level validation needs {name}")
    violations = [desc for desc, pred in _ORDERINGS[ls.qubit_type] if not pred(ls)]
    return (not violations, violations)
