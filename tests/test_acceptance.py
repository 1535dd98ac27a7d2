"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and enforces its runtime budget.  Tolerances are pinned
here, not configurable: 1e-10 for analytic identities, 2% for rounded
reference figures, 5% for the coupling-constant estimate.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    cavity_level,
    compose,
    dense_operator,
    level_count,
    product_state,
    propagator,
    qudit_level,
    qudit_plus,
    residual_photon,
    step_states,
    unitarity_defect,
)
from gatesim.budget import (
    cavity_lifetime,
    conventional_step_count,
    squid_coupling,
    squid_from_dict,
    step_count,
    time_cp3,
    time_ntcnot,
)
from gatesim.linalg import HilbertSpace
from gatesim.pulses import Mode
from gatesim.sequences import (
    GateKind,
    cp3_sequence,
    ncp_sequence,
    ntcnot_sequence,
    toffoli_sequence,
)
from gatesim.verify import (
    phase_audit,
    report,
    swap_fidelity_vs_full,
    swap_peak_level3,
)
from gatesim.dj import run_dj

ATOL = 1e-10
US = 1e-6


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < limit_s
    verdict = "PASS" if in_budget else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number}: {verdict} ({elapsed:.2f}s) - {description}")
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {limit_s}s"


def test_criterion_1_cp3_truth_table(unit_params):
    with criterion(1, "three-qubit controlled phase truth table, analytic", 1.0):
        seq = cp3_sequence(unit_params)
        space = seq.space
        u = compose(seq, Mode.ANALYTIC)
        comp = space.computational_indices()
        block = u[np.ix_(comp, comp)]
        expected = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
        assert np.max(np.abs(block - expected)) < ATOL
        w2 = level_count(space, 2)
        w3 = level_count(space, 3)
        for idx in comp:
            out = u[:, idx]
            assert residual_photon(space, out) < ATOL
            probs = np.abs(out) ** 2
            assert probs @ w2 < ATOL and probs @ w3 < ATOL


def test_criterion_2_ntcnot_truth_table(unit_params):
    with criterion(2, "fanout-CNOT signed truth table and n-independence", 5.0):
        seq = ntcnot_sequence(3, unit_params)
        space = seq.space
        u = compose(seq, Mode.ANALYTIC)

        def pm_state(control, signs, photon=0):
            locals_ = [qudit_level(control)] + [qudit_plus(s) for s in signs]
            locals_.append(cavity_level(photon, space.cavity_dim))
            return product_state(space, locals_)

        rows = [
            ((1, (1, 1)), (-1, -1)),
            ((1, (1, -1)), (-1, 1)),
            ((1, (-1, 1)), (1, -1)),
            ((1, (-1, -1)), (1, 1)),
            ((0, (1, 1)), (1, 1)),
            ((0, (1, -1)), (1, -1)),
            ((0, (-1, 1)), (-1, 1)),
            ((0, (-1, -1)), (-1, -1)),
        ]
        for (control, signs), out_signs in rows:
            got = u @ pm_state(control, signs)
            assert np.max(np.abs(got - pm_state(control, out_signs))) < ATOL

        durations = set()
        for n in range(2, 6):
            seq_n = ntcnot_sequence(n, unit_params)
            durations.add(seq_n.total_duration)
            rep = report(seq_n, Mode.ANALYTIC, tol=ATOL, samples_per_step=0)
            assert rep.process_fidelity == pytest.approx(1.0, abs=ATOL)
            assert rep.exact_phase_match
        assert len(durations) == 1


def test_criterion_3_four_qubit_controlled_phase(unit_params):
    with criterion(3, "4-qubit controlled phase, brute force over 16 inputs", 10.0):
        seq = ncp_sequence(4, unit_params)
        assert seq.space.dims == (4, 4, 4, 4, 2)
        u = compose(seq, Mode.ANALYTIC)
        comp = seq.space.computational_indices()
        for col, idx in enumerate(comp):
            out = u[:, idx]
            expected = np.zeros_like(out)
            expected[idx] = -1.0 if col == len(comp) - 1 else 1.0
            assert np.max(np.abs(out - expected)) < ATOL


def test_criterion_4_adiabatic_elimination(unit_params):
    with criterion(4, "first-principles vs closed-form emitter swap", 30.0):
        fidelities = []
        for ratio in (10.0, 20.0, 50.0):
            p = replace(unit_params, delta_c=ratio, delta_ck=ratio)
            fidelities.append(swap_fidelity_vs_full(p, cavity_dim=3))
        assert fidelities[0] >= 0.95
        assert fidelities[0] < fidelities[1] < fidelities[2]
        assert swap_peak_level3(unit_params, cavity_dim=3) <= 0.05


def test_criterion_5_gate_times(unit_params, cpw_params, squid_params):
    with criterion(5, "gate durations against the reference figures", 5.0):
        assert time_cp3(unit_params) == pytest.approx(30.2 * math.pi, rel=1e-12)
        assert time_ntcnot(unit_params) == pytest.approx(20.1 * math.pi, rel=1e-12)
        assert time_cp3(cpw_params) == pytest.approx(0.068 * US, rel=0.02)
        assert time_ntcnot(cpw_params) == pytest.approx(0.045 * US, rel=0.02)
        assert time_cp3(squid_params) == pytest.approx(0.221 * US, rel=0.02)
        assert time_cp3(squid_params) == pytest.approx(0.219 * US, rel=0.02)
        assert time_ntcnot(squid_params) == pytest.approx(0.146 * US, rel=0.02)


def test_criterion_6_cavity_lifetimes():
    with criterion(6, "cavity photon lifetimes", 1.0):
        assert cavity_lifetime(1e5, 3.0e9) == pytest.approx(5.3 * US, rel=0.02)
        assert cavity_lifetime(1e5, 3.6e9) == pytest.approx(4.42 * US, rel=0.02)


def test_criterion_7_squid_coupling(squid_raw):
    with criterion(7, "SQUID-cavity coupling constant from device figures", 1.0):
        sq = squid_from_dict(squid_raw["squid"])
        assert squid_coupling(sq) == pytest.approx(4.3e8, rel=0.05)


def test_criterion_8_step_counts():
    with criterion(8, "step counts under both conventions", 1.0):
        assert step_count(GateKind.CP3) == 7
        assert step_count(GateKind.TOFFOLI) == 9
        assert conventional_step_count(GateKind.TOFFOLI) == 28
        assert step_count(GateKind.NTCNOT, 4) == 5
        for n in (3, 4, 5, 8):
            assert step_count(GateKind.NCP, n, "published") == 4 * n - 5
            assert step_count(GateKind.NCP, n, "grouped") == 2 * n + 1
        assert step_count(GateKind.NCP, 3, "published") == step_count(GateKind.NCP, 3, "grouped")


def test_criterion_9_deutsch_jozsa(unit_params):
    with criterion(9, "Deutsch-Jozsa: four oracles, two modes, one query", 5.0):
        expected = {1: "constant", 2: "constant", 3: "balanced", 4: "balanced"}
        for mode in (Mode.ANALYTIC, Mode.EFFECTIVE):
            for variant, verdict in expected.items():
                result = run_dj(variant, unit_params, mode)
                assert result.classification == verdict
                assert result.probability == pytest.approx(1.0, abs=ATOL)
                assert result.oracle_applications == 1


def test_criterion_10_property_suite(unit_params):
    with criterion(10, "package-level invariants", 60.0):
        # unitarity and composition of spectral propagation
        rng = np.random.default_rng(11)
        space = HilbertSpace((4, 3))
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = dense_operator(space, (m + m.conj().T) / 2)
        u = propagator(h, 0.8)
        assert unitarity_defect(u) < 1e-10
        both = propagator(h, 1.1) @ propagator(h, 0.8)
        assert np.linalg.norm(propagator(h, 1.9) - both) < 1e-10

        # cavity restoration and absence of level-3 population, analytic
        for build in (
            lambda: cp3_sequence(unit_params),
            lambda: ntcnot_sequence(3, unit_params),
            lambda: toffoli_sequence(unit_params),
        ):
            seq = build()
            w3 = level_count(seq.space, 3)
            for idx in seq.space.computational_indices():
                amps = np.zeros(seq.space.total_dim, dtype=complex)
                amps[idx] = 1.0
                chain = step_states(seq, amps)
                assert residual_photon(seq.space, chain[-1]) < ATOL
                for state in chain:
                    assert np.abs(state) ** 2 @ w3 < ATOL

        # detuning-scaling monotonicity of the full-dynamics gate error
        rep10 = report(cp3_sequence(unit_params), Mode.FULL, samples_per_step=128)
        p20 = replace(unit_params, delta_c=20.0, delta_ck=20.0)
        rep20 = report(cp3_sequence(p20), Mode.FULL, samples_per_step=128)
        assert rep10.process_fidelity >= 0.90
        assert 1.0 - rep20.process_fidelity <= 1.0 - rep10.process_fidelity

        # phase-audit bookkeeping equals the factorized idle composition
        seq = ncp_sequence(4, unit_params)
        audit = phase_audit(seq)
        assert audit.condition_ratio == pytest.approx(50.0)
        u_idle = compose(seq, Mode.EFFECTIVE, include_idle=True)
        u_plain = compose(seq, Mode.ANALYTIC)
        comp = seq.space.computational_indices()
        for k, idx in enumerate(comp):
            out_idx = int(np.argmax(np.abs(u_plain[:, idx])))
            measured = np.angle(u_idle[out_idx, idx] / u_plain[out_idx, idx])
            booked = audit.branch_phases[seq.space.computational_label(k)]
            wrapped = (measured - booked + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(wrapped) < 1e-8
