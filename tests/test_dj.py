from dataclasses import replace

import numpy as np
import pytest

import gatesim.dj as dj_mod
from conftest import array_of
from gatesim.pulses import Mode
from gatesim.dj import (
    dj_space,
    oracle_variant,
    prepare_input,
    run_dj,
    uf_apply,
)

MODES = [Mode.ANALYTIC, Mode.EFFECTIVE]
# each mode at both cavity truncations; the default truncation keeps the bare mode id
MODES_AND_CAVITIES = [pytest.param(mode, 2, id=str(mode)) for mode in MODES] + [
    pytest.param(mode, 3, id=f"{mode}-cavity3") for mode in MODES
]


def _dense(state):
    return array_of(state, np.zeros(state.space.total_dim))


def test_variant_table():
    assert (oracle_variant(1).f0, oracle_variant(1).f1) == (0, 0)
    assert (oracle_variant(2).f0, oracle_variant(2).f1) == (1, 1)
    assert (oracle_variant(3).f0, oracle_variant(3).f1) == (0, 1)
    assert (oracle_variant(4).f0, oracle_variant(4).f1) == (1, 0)
    with pytest.raises(ValueError):
        oracle_variant(5)


def test_prepared_state():
    space = dj_space()
    state = _dense(prepare_input(space))
    assert np.linalg.norm(state) == pytest.approx(1.0)
    s = 1.0 / np.sqrt(2.0)
    assert state[space.index((0, 1, 0))] == pytest.approx(s)
    assert state[space.index((1, 1, 0))] == pytest.approx(s)


def _signed_input(space, sign0, sign1):
    # (sign0 |0> + sign1 |1>)_query (x) |1>_target (x) vacuum, normalized
    amps = np.zeros(space.total_dim, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    amps[space.index((0, 1, 0))] = sign0 * s
    amps[space.index((1, 1, 0))] = sign1 * s
    return amps


@pytest.mark.parametrize("mode", MODES)
def test_oracle_output_signs(unit_params, mode):
    """Each oracle applies (-1)^f(x) on the matching query branch."""
    space = dj_space()
    state = prepare_input(space)
    expected_signs = {1: (1, 1), 2: (-1, -1), 3: (1, -1), 4: (-1, 1)}
    for variant, (s0, s1) in expected_signs.items():
        out = uf_apply(oracle_variant(variant), state, unit_params, mode)
        assert np.max(np.abs(_dense(out) - _signed_input(space, s0, s1))) < 1e-10


def test_identity_oracle_leaves_state(unit_params):
    space = dj_space()
    state = prepare_input(space)
    out = uf_apply(oracle_variant(1), state, unit_params)
    assert np.array_equal(_dense(out), _dense(state))


@pytest.mark.parametrize("mode, cavity_dim", MODES_AND_CAVITIES)
@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_classification_is_deterministic(unit_params, variant, mode, cavity_dim):
    # the readout takes the query digit as idx // (D // dims[0]), which moves with the truncation
    result = run_dj(variant, unit_params, mode, cavity_dim)
    expected = "constant" if variant in (1, 2) else "balanced"
    assert result.classification == expected
    assert result.probability == pytest.approx(1.0, abs=1e-10)
    assert result.oracle_applications == 1


def test_single_oracle_invocation(unit_params, monkeypatch):
    calls = []
    original = dj_mod.uf_apply

    def counting(variant, state, params, mode=Mode.ANALYTIC):
        calls.append(variant)
        return original(variant, state, params, mode)

    monkeypatch.setattr(dj_mod, "uf_apply", counting)
    for variant in (1, 2, 3, 4):
        calls.clear()
        dj_mod.run_dj(variant, unit_params)
        assert len(calls) == 1


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_target_stays_unentangled(unit_params, variant):
    space = dj_space()
    out = uf_apply(oracle_variant(variant), prepare_input(space), unit_params)
    # singular values of the query vs. (target, cavity) bipartition
    sv = np.linalg.svd(_dense(out).reshape(4, space.total_dim // 4), compute_uv=False)
    assert sv[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(sv[1:]) < 1e-10


def test_full_mode_still_classifies(unit_params):
    # first-principles pulses leave a percent-level error; the verdict holds
    for variant in (1, 3):
        result = run_dj(variant, unit_params, Mode.FULL)
        expected = "constant" if variant == 1 else "balanced"
        assert result.classification == expected
        assert result.probability > 0.95


@pytest.mark.parametrize("mode", [Mode.ANALYTIC, Mode.EFFECTIVE, Mode.FULL])
def test_cnot_composed_only_when_the_oracle_uses_it(unit_params, monkeypatch, mode):
    # the CNOT's windows are built once, however often the oracle walks them
    calls = []
    original = dj_mod.build_evolutions

    def counting(seq, build_mode, include_idle=None):
        calls.append(seq.gate)
        return original(seq, build_mode, include_idle)

    monkeypatch.setattr(dj_mod, "build_evolutions", counting)
    for variant, expected in ((1, 0), (2, 1), (3, 1), (4, 1)):
        calls.clear()
        uf_apply(oracle_variant(variant), prepare_input(dj_space()), unit_params, mode)
        assert len(calls) == expected


def test_constant_oracle_still_checks_the_device(unit_params):
    short = replace(unit_params, g=(unit_params.g_at(0),))
    with pytest.raises(ValueError, match="the gate needs 2"):
        uf_apply(oracle_variant(1), prepare_input(dj_space()), short)
