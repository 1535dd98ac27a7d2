import json
from functools import cache

import numpy as np
import pytest

from gatesim.device import DeviceParams, load_params, resolve_params_path
from gatesim.linalg import HermitianOperator, Support, _check_local, _partition, _slot_layout
from gatesim.pulses import Mode, make_pulse, pulse_local_unitary
from gatesim.sequences import GateKind, apply_evolutions, build_evolutions


@pytest.fixture(scope="session")
def unit_params():
    """Dimensionless working point: g = 1, detunings and resonant drive at 10 g."""
    return DeviceParams(
        g=1.0,
        delta_c=10.0,
        delta_ck=10.0,
        omega_raman=1.0,
        omega_resonant=10.0,
        gamma2_inv=1.0,
        quality_q=1e5,
        nu_c=3e9,
    )


@pytest.fixture(scope="session")
def cpw_params():
    params, _ = load_params("cpw")
    return params


def preset_raw(name):
    """A shipped preset's JSON document, read from its file."""
    return json.loads(resolve_params_path(name).read_text())


@pytest.fixture(scope="session")
def squid_raw():
    return preset_raw("squid")


@pytest.fixture(scope="session")
def squid_params():
    params, _ = load_params("squid")
    return params


def _columns(space, array):
    """``array`` as a complex ``(D,)`` vector or ``(D, m)`` stack; other shapes raise."""
    arr = np.asarray(array, dtype=complex)
    dim = space.total_dim
    if arr.ndim not in (1, 2) or arr.shape[0] != dim:
        raise ValueError(f"array has shape {arr.shape}, expected ({dim},) or ({dim}, m)")
    return arr


def support_of(space, array):
    """A vector or a ``(D, m)`` stack as a :class:`Support` of its nonzeros, column by column."""
    dim = space.total_dim
    mat = _columns(space, array).reshape(dim, -1)
    code = np.flatnonzero((mat != 0).T)  # col * D + idx
    return Support(space, *np.divmod(code, dim), mat.T.flat[code])


def array_of(support, array):
    """``support`` as a dense array of ``array``'s shape."""
    out = np.zeros(np.shape(array), dtype=complex)
    out.reshape(len(out), -1)[support.idx, support.col] = support.amp
    return out


def on_array(kernel, space, array):
    """``kernel`` on a vector or a stack: through its support and back to its shape."""
    return array_of(kernel(support_of(space, array)), array)


def basis_vector(space, levels):
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.index(levels)] = 1.0
    return vec


def propagator(h, t):
    """Full matrix ``exp(-i H t)``.  Negative ``t`` yields the inverse."""
    eye = np.eye(h.space.total_dim, dtype=complex)
    return on_array(lambda state: h.propagate(state, t), h.space, eye)


def local_index_map(space, slots):
    """Full-space basis indices as a ``(D // d, d)`` array, ``d`` the dim of ``slots``.

    Column ``a`` is the local basis index over ``slots`` in the given order;
    each row fixes the levels of every other subsystem, in index order.  An
    operator local to ``slots`` therefore acts on each row's indices alone.
    The map is the sum of the two slot layouts, built afresh on each call.
    Duplicate or out-of-range slots raise ``ValueError``.
    """
    slots = tuple(int(s) for s in slots)
    rest = tuple(s for s in range(len(space.dims)) if s not in slots)
    return _slot_layout(space.dims, rest)[1][:, None] + _slot_layout(space.dims, slots)[1]


def tensor_embed(local, space, slots):
    """Embed a local operator as ``local`` on ``slots`` and identity elsewhere.

    Subsystem ordering is preserved; the result acts on the full space.  The
    local entries are written through :func:`local_index_map`.
    """
    local = _check_local(local, space, slots)[0]
    rows = local_index_map(space, slots)
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    out[rows[:, :, None], rows[:, None, :]] = local
    return out


def product_state(space, locals_):
    """Dense product state from per-subsystem local vectors."""
    amps = np.array([1.0 + 0.0j])
    for vec in locals_:
        amps = np.kron(amps, np.asarray(vec, dtype=complex))
    assert amps.shape == (space.total_dim,)
    return amps


def qudit_level(level):
    v = np.zeros(4, dtype=complex)
    v[level] = 1.0
    return v


def qudit_plus(sign=1.0):
    return (qudit_level(0) + sign * qudit_level(1)) / np.sqrt(2.0)


def cavity_level(n, dim):
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def embedded_pulse(kind, params, roles, slot, space, mode=Mode.ANALYTIC):
    """Dense unitary of one pulse on ``space``: its local unitary placed by ``tensor_embed``."""
    pulse = make_pulse(kind, slot, params, roles)
    local = pulse_local_unitary(pulse, params, roles, space.cavity_dim, mode)
    slots = (slot, space.cavity_slot) if kind.touches_cavity else (slot,)
    return tensor_embed(local, space, slots)


def unitarity_defect(u):
    """Frobenius norm of ``U†U - I``."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


@cache
def basis_levels(space):
    """``(D, n + 1)`` levels of every basis index, read by ``np.unravel_index``, not by ``space``."""
    levels = np.transpose(np.unravel_index(np.arange(space.total_dim), space.dims))
    levels.setflags(write=False)  # shared by every caller
    return levels


def level_count(space, level):
    """Dense count of qubits at ``level`` (cavity excluded) per basis index."""
    return np.sum(basis_levels(space)[:, :-1] == level, axis=1).astype(float)


def photon_flag(space):
    """Dense flag of the basis indices whose cavity holds a photon."""
    return basis_levels(space)[:, -1] > 0


def residual_photon(space, amps):
    """Probability that the cavity of a ``(D,)`` state over ``space`` is not in vacuum."""
    vacuum = ~photon_flag(space)
    return 1.0 - float(np.sum(np.abs(amps[vacuum]) ** 2))


def compose(seq, mode, include_idle=None):
    """Dense unitary of ``seq``: every basis column walked through its windows."""
    evolutions = build_evolutions(seq, mode, include_idle)
    walk = lambda state: apply_evolutions(evolutions, seq.space, state)
    return on_array(walk, seq.space, np.eye(seq.space.total_dim, dtype=complex))


def step_states(seq, amps, mode=Mode.ANALYTIC):
    """The ``(D,)`` state after each step of ``seq``, its windows walked one at a time."""
    states = {}
    for evo in build_evolutions(seq, mode):
        amps = on_array(lambda state: apply_evolutions([evo], seq.space, state), seq.space, amps)
        states[evo.step_index] = amps  # an ordered step keeps its last window
    return list(states.values())


def rel_err(a, ref):
    """Largest entrywise deviation relative to the largest reference entry."""
    return float(np.max(np.abs(np.asarray(a) - ref)) / np.max(np.abs(ref)))


def dense_operator(space, matrix):
    """A dense matrix as a :class:`HermitianOperator`: one term over every subsystem."""
    return HermitianOperator(space, ((matrix, tuple(range(len(space.dims)))),))


def dense_matrix(h):
    """The ``D x D`` matrix of ``h``, summed from its stored terms."""
    dim = h.space.total_dim
    out = np.zeros((dim, dim), dtype=complex)
    for local, slots in h.terms:
        out += tensor_embed(local, h.space, slots)
    return out


def whole_space_blocks(h):
    """``(idx (k, b), sub (k, b, b))`` per size group of every block of ``h``.

    The blocks are discovered from every basis index, so they partition the space.
    """
    return _partition(h.space, h.terms, np.arange(h.space.total_dim))[-1]


def block_labels(h):
    """Block number of each basis index; checks that the blocks partition the space.

    Also checks the group shapes and that no nonzero entry of the dense
    matrix couples two blocks.
    """
    labels = np.full(h.space.total_dim, -1)
    count = 0
    for idx, sub in whole_space_blocks(h):
        k, b = idx.shape
        assert sub.shape == (k, b, b)
        for row in idx:
            assert np.all(labels[row] == -1)
            labels[row] = count
            count += 1
    assert np.all(labels >= 0)
    rows, cols = np.nonzero(dense_matrix(h))
    assert np.array_equal(labels[rows], labels[cols])
    return labels


def assert_matches_dense_oracle(h, amps, times, tol=1e-12):
    """``propagate``, ``propagator`` and ``evolve_times`` against dense ``eigh`` of the matrix.

    Relative deviations must stay within ``tol``, or within the phase error
    ``16 eps max|w| t`` that dense ``eigh`` itself makes once ``max|w| t``
    reaches hundreds of radians (1.6e-12 against ``expm`` for a cavity-dim-3
    fanout-CNOT window at n = 4, where the block path was 4.9e-13 off).
    ``evolve_times`` returns weighted populations on an equally spaced grid
    from 0 to ``max(times)``; with amplitudes off by at most ``e`` each, a
    population weighted by ``w`` is off by at most ``2 sqrt(D) e max(w)``
    (Cauchy-Schwarz on a unit state).
    """
    from gatesim.linalg import evolve_times

    w, v = np.linalg.eigh(dense_matrix(h))
    bound = lambda t: max(tol, 16 * np.finfo(float).eps * np.max(np.abs(w)) * abs(t))
    for t in times:
        dense = (v * np.exp(-1j * w * t)) @ v.conj().T
        assert rel_err(propagator(h, t), dense) <= bound(t)
        out = on_array(lambda state: h.propagate(state, t), h.space, amps)
        assert rel_err(out, dense @ amps) <= bound(t)
    # 8 points: 7 samples split as 3 x 3, so the last split row is cut short
    grid = np.linspace(0.0, max(times), 8)
    coeff = v.conj().T @ amps
    expected = np.array([v @ (np.exp(-1j * w * t) * coeff) for t in grid])
    # weights that vanish on a third of the basis, so whole blocks can drop out
    weights = np.arange(h.space.total_dim) % 3
    populations = np.abs(expected) ** 2 @ weights
    every = tuple(range(len(h.space.dims)))  # one term over every subsystem
    got = evolve_times(support_of(h.space, amps), h, grid, ((weights, every),))
    assert got.shape == (grid.size, 1)
    err = np.max(np.abs(got[:, 0] - populations))
    assert err <= 2 * np.sqrt(h.space.total_dim) * bound(max(times)) * weights.max()


# --- dense ideal gates: the independent reference for verify.ideal_columns ----


def ideal_ncp(n):
    """n-qubit controlled phase: -1 on |1...1> only."""
    d = np.ones(2**n, dtype=complex)
    d[-1] = -1.0
    return np.diag(d)


def ideal_ntcnot(n):
    """Fanout CNOT ``|0><0| (x) I + |1><1| (x) Z^(n-1)``, built by ``kron``."""
    z = np.diag([1.0, -1.0]).astype(complex)
    targets = np.eye(1, dtype=complex)
    for _ in range(n - 1):
        targets = np.kron(targets, z)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(p0, np.eye(2 ** (n - 1))) + np.kron(p1, targets)


def ideal_toffoli():
    u = np.eye(8, dtype=complex)
    u[6, 6] = u[7, 7] = 0.0
    u[6, 7] = u[7, 6] = 1.0
    return u


def ideal_gate(gate, n):
    if gate is GateKind.NTCNOT:
        return ideal_ntcnot(n)
    if gate is GateKind.TOFFOLI:
        return ideal_toffoli()
    return ideal_ncp(n)


def columns_matrix(rows, signs):
    """The dense matrix of a signed column map: column ``k`` is ``signs[k] |rows[k]>``."""
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = signs
    return out
