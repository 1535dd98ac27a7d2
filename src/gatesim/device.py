"""Device parameters and per-qubit roles.

Units are fixed once here and never mixed: coupling constants, detunings and
Rabi frequencies are angular frequencies in rad/s; relaxation and lifetime
figures are seconds; the resonator frequency ``nu_c`` is a plain frequency in
Hz (it only enters the cavity-lifetime formula, which divides by 2*pi
itself).

Per-qubit quantities (``g``, ``delta_ck``, ``omega_raman``) may be given as a
scalar, which broadcasts to every slot, or as a list with one entry per
qubit.  Nothing in the package assumes uniform couplings or detunings.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import operator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Union

PerQubit = Union[float, tuple[float, ...]]

# Repo-level parameter presets shipped next to the package sources.
PRESET_DIR = Path(__file__).resolve().parents[2] / "presets"


class ConfigError(ValueError):
    """Raised for malformed or physically inconsistent parameter files."""


class Role(enum.Enum):
    """What a qubit does inside a pulse sequence.

    EMITTER drives the photon-emitting Raman pair (levels 1 and 2),
    ABSORBER the photon-absorbing pair (levels 0 and 2), and TARGET couples
    to the cavity only dispersively.  The resonant pi-pulses act between the
    auxiliary level 2 and the role's ``pulse_level``.
    """

    EMITTER = "emitter"
    ABSORBER = "absorber"
    TARGET = "target"

    @property
    def pulse_level(self) -> int:
        return 0 if self is Role.ABSORBER else 1


def _number(key: str, value) -> float:
    # bool is an int subclass: JSON true/false must not pass as 1/0.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _positive(key: str, value) -> float:
    """``value`` as a finite number > 0; ``key`` names it in the error."""
    value = _number(key, value)
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{key} must be positive and finite, got {value}")
    return value


def _broadcastable(key: str, value) -> PerQubit:
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError(f"{key} must not be an empty list")
        return tuple(_number(key, v) for v in value)
    return _number(key, value)


def _at(value: PerQubit, slot: int) -> float:
    if isinstance(value, tuple):
        if slot >= len(value):
            raise ConfigError(f"no per-qubit entry for slot {slot}")
        return value[slot]
    return value


@dataclass(frozen=True)
class DeviceParams:
    """All physical symbols entering the pulse and budget formulas."""

    g: PerQubit  # cavity coupling on the 2-3 transition, rad/s
    delta_c: float  # Raman-stage detuning, rad/s
    delta_ck: PerQubit  # dispersive-stage detuning per target, rad/s
    omega_raman: PerQubit  # Raman drive Rabi frequency per qubit, rad/s
    omega_resonant: float  # resonant pi-pulse Rabi frequency, rad/s
    gamma2_inv: float  # level-2 energy relaxation time, s
    quality_q: float  # loaded cavity quality factor
    nu_c: float  # resonator frequency, Hz

    def __post_init__(self) -> None:
        for name in ("g", "delta_ck", "omega_raman"):
            object.__setattr__(self, name, _broadcastable(name, getattr(self, name)))
        for name in ("delta_c", "omega_resonant", "gamma2_inv", "quality_q", "nu_c"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                for i, v in enumerate(value):
                    _positive(f"{f.name}[{i}]", v)
            else:
                _positive(f.name, value)

    def require_qubits(self, n: int) -> None:
        """Reject a per-qubit list with fewer entries than the ``n`` qubits of a gate."""
        for name in ("g", "delta_ck", "omega_raman"):
            value = getattr(self, name)
            if isinstance(value, tuple) and len(value) < n:
                raise ConfigError(f"{name} has {len(value)} per-qubit entries, the gate needs {n}")

    def g_at(self, slot: int) -> float:
        return _at(self.g, slot)

    def delta_ck_at(self, slot: int) -> float:
        return _at(self.delta_ck, slot)

    def omega_raman_at(self, slot: int) -> float:
        return _at(self.omega_raman, slot)

    def detuning_for(self, slot: int, role: Role) -> float:
        """Detuning of the slot's cavity coupling given its role."""
        if role is Role.TARGET:
            return self.delta_ck_at(slot)
        return self.delta_c


def _section(cls, name: str, raw, extra=()) -> dict:
    """The entries of section ``raw`` that are fields of the dataclass ``cls``.

    ``raw`` must be a JSON object whose keys are the fields, ``description``
    and the ``extra`` keys, and it must hold every field without a default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"the {name} section must be a JSON object, got {raw!r}")
    keys = [f.name for f in fields(cls)]
    unknown = set(raw) - set(keys) - {"description", *extra}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
    if missing:
        raise ConfigError(f"missing {name} keys: {sorted(missing)}")
    return {key: raw[key] for key in keys if key in raw}


def params_from_dict(raw: dict) -> DeviceParams:
    """Build :class:`DeviceParams` from a parsed JSON object.

    A ``delta_mu`` key, if present, must equal ``delta_c``: the pulse
    construction requires the two Raman detunings to coincide (zero second
    order detuning), and that premise is enforced at parse time rather than
    silently absorbed.
    """
    entries = _section(DeviceParams, "parameter", raw, extra=("delta_mu", *_SECTIONS))
    if "delta_mu" in raw:
        delta_mu = _number("delta_mu", raw["delta_mu"])
        if not math.isclose(delta_mu, _number("delta_c", raw["delta_c"]), rel_tol=1e-12):
            raise ConfigError(
                "delta_mu must equal delta_c: the pulse recipes assume zero "
                "second-order detuning"
            )
    return DeviceParams(**entries)


@dataclass(frozen=True)
class SquidParams:
    """rf-SQUID device figures entering the coupling-constant estimate."""

    junction_capacitance_f: float
    loop_inductance_h: float
    damping_resistance_ohm: float
    beta_l: float
    external_flux_phi0: float  # units of the flux quantum
    coupling_matrix_element: float  # dimensionless 2->3 matrix element
    loop_area_m2: float
    cavity_volume_m3: float
    cavity_frequency_hz: float
    antinode_factor: float  # cos(kz) at the SQUID position

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _positive(f"squid.{f.name}", getattr(self, f.name)))
        if self.antinode_factor > 1.0:
            raise ConfigError("antinode factor is a cosine and cannot exceed 1")


def squid_from_dict(raw: dict) -> SquidParams:
    return SquidParams(**_section(SquidParams, "squid", raw))


# Level-spacing orderings per qubit type, each ``lhs op rhs`` over the
# ``levels`` keys and reported as written when it fails.  The charge-qubit
# entry encodes the reading nu21 > nu10, nu21 > nu32 and nu32 < nu10.
_ORDERINGS = {
    "charge": ("nu_21_hz > nu_10_hz", "nu_21_hz > nu_32_hz", "nu_32_hz < nu_10_hz"),
    "phase": ("nu_10_hz > nu_21_hz", "nu_21_hz > nu_32_hz"),
    "flux": ("nu_21_hz > nu_10_hz", "nu_21_hz > nu_32_hz", "nu_32_hz > nu_10_hz"),
    "squid": (
        "nu_32_hz < nu_21_hz", "nu_21_hz < nu_20_hz", "nu_20_hz < nu_31_hz", "nu_31_hz < nu_30_hz"
    ),
}
_COMPARE = {">": operator.gt, "<": operator.lt}


# Keyword-only, so the fields keep the documented key order with the
# required frequencies among the optional ones.
@dataclass(frozen=True, kw_only=True)
class LevelStructure:
    """Transition frequencies of a four-level device, in Hz; ``None`` when not given.

    Every frequency that an ordering of ``qubit_type`` reads must be given.
    """

    qubit_type: str
    nu_10_hz: Optional[float] = None
    nu_21_hz: float
    nu_32_hz: float
    nu_20_hz: Optional[float] = None
    nu_31_hz: Optional[float] = None
    nu_30_hz: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.qubit_type, str):
            raise ConfigError(f"levels.qubit_type must be a string, got {self.qubit_type!r}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _positive(f"levels.{f.name}", value))
        if self.qubit_type not in _ORDERINGS:
            raise ConfigError(f"unknown qubit type {self.qubit_type!r}")
        for rule in _ORDERINGS[self.qubit_type]:
            for name in rule.split()[::2]:  # lhs, then rhs
                if getattr(self, name) is None:
                    raise ConfigError(f"{self.qubit_type} level validation needs {name}")

    @property
    def violations(self) -> list[str]:
        """The orderings of the qubit type that the frequencies break, as written."""
        broken = []
        for rule in _ORDERINGS[self.qubit_type]:
            lhs, op, rhs = rule.split()
            if not _COMPARE[op](getattr(self, lhs), getattr(self, rhs)):
                broken.append(rule)
        return broken


def levels_from_dict(raw: dict) -> LevelStructure:
    entries = _section(LevelStructure, "levels", raw)
    for key, value in entries.items():
        if value is None and key != "qubit_type":  # a null frequency is malformed, not absent
            _number(f"levels.{key}", value)
    return LevelStructure(**entries)


# The optional sections of a parameter file and their parsers.
_SECTIONS = {"squid": squid_from_dict, "levels": levels_from_dict}


def resolve_params_path(name_or_path: str) -> Path:
    """Resolve either an explicit file path or a shipped preset name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    preset = PRESET_DIR / f"{name_or_path}.json"
    if preset.exists():
        return preset
    raise ConfigError(f"no parameter file or preset named {name_or_path!r}")


def load_params(name_or_path: str) -> tuple[DeviceParams, dict]:
    """Load a parameter file: the device parameters and its parsed sections by name.

    Every section is checked here, so a file is valid for every command or
    for none.
    """
    path = resolve_params_path(name_or_path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    params = params_from_dict(raw)
    return params, {name: parse(raw[name]) for name, parse in _SECTIONS.items() if name in raw}
