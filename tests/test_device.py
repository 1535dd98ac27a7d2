import json
from dataclasses import replace

import pytest

from gatesim.device import (
    ConfigError,
    Role,
    load_params,
    params_from_dict,
    resolve_params_path,
)


def base_dict():
    return {
        "g": 1.0,
        "delta_c": 10.0,
        "delta_ck": 10.0,
        "omega_raman": 1.0,
        "omega_resonant": 10.0,
        "gamma2_inv": 1.0,
        "quality_q": 1e5,
        "nu_c": 3e9,
    }


def test_roles_pulse_levels():
    assert Role.EMITTER.pulse_level == 1
    assert Role.ABSORBER.pulse_level == 0
    assert Role.TARGET.pulse_level == 1


def test_scalar_broadcast_and_per_qubit_entries():
    p = params_from_dict(base_dict())
    assert p.g_at(0) == p.g_at(5) == 1.0
    q = replace(p, g=(1.0, 2.0, 3.0), delta_ck=(10.0, 20.0, 30.0))
    assert q.g_at(1) == 2.0
    assert q.delta_ck_at(2) == 30.0
    with pytest.raises(ConfigError):
        q.g_at(3)


def test_detuning_follows_role():
    p = replace(params_from_dict(base_dict()), delta_ck=12.0)
    assert p.detuning_for(0, Role.EMITTER) == 10.0
    assert p.detuning_for(1, Role.ABSORBER) == 10.0
    assert p.detuning_for(2, Role.TARGET) == 12.0


@pytest.mark.parametrize("key", sorted(base_dict()))
def test_missing_key_rejected(key):
    raw = base_dict()
    del raw[key]
    with pytest.raises(ConfigError):
        params_from_dict(raw)


def test_unknown_key_rejected():
    raw = base_dict()
    raw["coupling"] = 1.0
    with pytest.raises(ConfigError):
        params_from_dict(raw)


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_nonpositive_or_nonfinite_rejected(value):
    raw = base_dict()
    raw["g"] = value
    with pytest.raises(ConfigError):
        params_from_dict(raw)


@pytest.mark.parametrize(
    "key,value",
    [
        ("delta_c", None),
        ("delta_c", [10.0]),
        ("delta_c", "1e9"),
        ("quality_q", {}),
        ("nu_c", True),
        ("g", True),
        ("g", "1.0"),
        ("g", None),
        ("g", {"0": 1.0}),
        ("g", []),
        ("g", [1.0, None]),
        ("g", [1.0, "1.0"]),
        ("omega_raman", [False]),
        ("delta_mu", None),
        ("delta_mu", "10.0"),
    ],
)
def test_non_numbers_rejected_naming_the_key(key, value):
    raw = base_dict()
    raw[key] = value
    with pytest.raises(ConfigError, match=rf"^{key} must"):
        params_from_dict(raw)


def test_second_order_detuning_rejected_at_parse():
    raw = base_dict()
    raw["delta_mu"] = 9.0  # != delta_c
    with pytest.raises(ConfigError):
        params_from_dict(raw)
    raw["delta_mu"] = 10.0  # == delta_c is the required configuration
    params_from_dict(raw)


def test_load_params_from_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(base_dict()))
    params, sections = load_params(str(path))
    assert params.delta_c == 10.0
    assert sections == {}


def test_load_params_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_params(str(path))


def test_preset_names_resolve():
    assert resolve_params_path("cpw").name == "cpw.json"
    assert resolve_params_path("squid").name == "squid.json"
    with pytest.raises(ConfigError):
        resolve_params_path("notreal")


def test_shipped_presets_parse():
    for name in ("cpw", "squid"):
        params, _ = load_params(name)
        # the dispersive regime the pulse recipes rely on: every detuning >= 10 g
        for slot in range(3):
            g = params.g_at(slot)
            assert params.delta_c >= 10.0 * g
            assert params.delta_ck_at(slot) >= 10.0 * g
