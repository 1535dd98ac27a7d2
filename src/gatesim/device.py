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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union

PerQubit = Union[float, tuple[float, ...]]

# Repo-level parameter presets shipped next to the package sources.
PRESET_DIR = Path(__file__).resolve().parents[2] / "presets"

_PARAM_KEYS = {
    "g",
    "delta_c",
    "delta_ck",
    "omega_raman",
    "omega_resonant",
    "gamma2_inv",
    "quality_q",
    "nu_c",
}
_OPTIONAL_KEYS = {"delta_mu", "description", "squid", "levels"}


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


def params_from_dict(raw: dict) -> DeviceParams:
    """Build :class:`DeviceParams` from a parsed JSON object.

    A ``delta_mu`` key, if present, must equal ``delta_c``: the pulse
    construction requires the two Raman detunings to coincide (zero second
    order detuning), and that premise is enforced at parse time rather than
    silently absorbed.
    """
    if not isinstance(raw, dict):
        raise ConfigError("parameter file must contain a JSON object")
    unknown = set(raw) - _PARAM_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    missing = _PARAM_KEYS - set(raw)
    if missing:
        raise ConfigError(f"missing parameter keys: {sorted(missing)}")
    if "delta_mu" in raw:
        delta_mu = _number("delta_mu", raw["delta_mu"])
        if not math.isclose(delta_mu, _number("delta_c", raw["delta_c"]), rel_tol=1e-12):
            raise ConfigError(
                "delta_mu must equal delta_c: the pulse recipes assume zero "
                "second-order detuning"
            )
    return DeviceParams(**{key: raw[key] for key in _PARAM_KEYS})


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
    """Load parameters from JSON; returns the params and the raw document."""
    path = resolve_params_path(name_or_path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    return params_from_dict(raw), raw
