import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    array_of,
    assert_matches_dense_oracle,
    basis_vector,
    block_labels,
    dense_matrix,
    dense_operator,
    local_index_map,
    on_array,
    propagator,
    support_of,
    tensor_embed,
    unitarity_defect,
    whole_space_blocks,
)
from gatesim import linalg as linalg_mod
from gatesim.device import Role
from gatesim.hamiltonians import idle_coupling_local, raman_effective_local
from gatesim.linalg import (
    HermitianOperator,
    HilbertSpace,
    Support,
    apply_local,
    evolve_times,
    process_fidelity,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def raman_effective_1q(params, cavity_dim):
    # on one qubit plus the cavity the local (qudit, cavity) generator is the full matrix
    space = HilbertSpace.for_qubits(1, cavity_dim)
    return dense_operator(space, raman_effective_local(params, 0, Role.EMITTER, cavity_dim))


def dispersive_1q(params, cavity_dim):
    space = HilbertSpace.for_qubits(1, cavity_dim)
    local = idle_coupling_local(params, 0, Role.TARGET, cavity_dim, full=False)
    return dense_operator(space, local)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return v / np.linalg.norm(v)


# --- HilbertSpace ----------------------------------------------------------


def test_factory_builds_four_level_qudits():
    space = HilbertSpace.for_qubits(3, cavity_dim=2)
    assert space.dims == (4, 4, 4, 2)
    assert space.total_dim == 128
    assert space.n_qubits == 3
    assert space.cavity_slot == 3


def test_total_dim_is_product_of_subsystem_dims():
    space = HilbertSpace((4, 4, 3))
    assert space.total_dim == 4 * 4 * 3


@pytest.mark.parametrize("bad", [0, 1])
def test_factory_rejects_tiny_cavity(bad):
    with pytest.raises(ValueError):
        HilbertSpace.for_qubits(1, cavity_dim=bad)


def test_index_is_mixed_radix_with_cavity_least_significant():
    space = HilbertSpace((4, 4, 3))
    assert space.index((0, 0, 0)) == 0
    assert space.index((0, 0, 1)) == 1
    assert space.index((0, 1, 0)) == 3
    assert space.index((1, 0, 0)) == 12
    assert space.index((3, 3, 2)) == space.total_dim - 1


@given(st.integers(min_value=0, max_value=4 * 4 * 3 - 1))
def test_index_levels_roundtrip(idx):
    space = HilbertSpace((4, 4, 3))
    assert space.index(np.unravel_index(idx, space.dims)) == idx


def test_computational_indices_order():
    space = HilbertSpace.for_qubits(2, cavity_dim=2)
    idx = space.computational_indices()
    assert idx[0] == space.index((0, 0, 0))
    assert idx[1] == space.index((0, 1, 0))
    assert idx[2] == space.index((1, 0, 0))
    assert idx[3] == space.index((1, 1, 0))
    assert space.computational_label(2) == "10"


@pytest.mark.parametrize("n", range(1, 7))
def test_computational_indices_match_index(n):
    space = HilbertSpace.for_qubits(n, cavity_dim=3)
    bits = lambda k: [(k >> (n - 1 - q)) & 1 for q in range(n)]
    expected = [space.index(bits(k) + [0]) for k in range(2**n)]
    assert space.computational_indices().tolist() == expected


def test_apply_local_names_the_packing_limit():
    # 2^21 columns over D = 2 * 4^21 pack past 2^63; one entry is enough to
    # tell, and the spectral kernels key their blocks by the same packing
    space = HilbertSpace.for_qubits(21)
    state = Support(space, np.array([2**21 - 1]), np.array([0]), np.ones(1, dtype=complex))
    h = HermitianOperator(space, ((np.diag([0.0, 1.0, 2.0, 3.0]), (0,)),))
    with pytest.raises(ValueError, match=r"2\^63"):
        apply_local(np.eye(4), space, (0,), state)
    with pytest.raises(ValueError, match=r"2\^63"):
        h.propagate(state, 1.0)
    with pytest.raises(ValueError, match=r"2\^63"):
        evolve_times(state, h, np.zeros(1), ())


# --- tensor_embed ----------------------------------------------------------


def test_embed_identity_is_global_identity():
    space = HilbertSpace((4, 4, 3))
    full = tensor_embed(np.eye(4), space, (1,))
    assert np.array_equal(full, np.eye(space.total_dim))


def test_embed_single_matrix_element():
    space = HilbertSpace((4, 2))
    local = np.zeros((4, 4))
    local[2, 3] = 1.0  # |2><3|
    full = tensor_embed(local, space, (0,))
    nonzero = np.argwhere(np.abs(full) > 0)
    assert len(nonzero) == 2
    for n in (0, 1):
        assert full[space.index((2, n)), space.index((3, n))] == 1.0


def test_embed_ladder_against_index_arithmetic_oracle():
    # a† |2><3| on (qudit 0, cavity) of a (4, 4, 3) space, built two ways:
    # via tensor_embed and via an explicit loop over basis tuples.
    space = HilbertSpace((4, 4, 3))
    a_dag = np.zeros((3, 3))
    a_dag[1, 0] = 1.0
    a_dag[2, 1] = math.sqrt(2.0)
    local = np.kron(np.outer([0, 0, 1, 0], [0, 0, 0, 1]), a_dag)
    full = tensor_embed(local, space, (0, 2))

    expected = np.zeros_like(full)
    for x in range(4):
        for n in range(2):
            src = space.index((3, x, n))
            dst = space.index((2, x, n + 1))
            expected[dst, src] = math.sqrt(n + 1)
    assert np.allclose(full, expected, atol=0)

    # and the advertised action: |3>|x>|0> -> |2>|x>|1>
    for x in range(4):
        out = full @ basis_vector(space, (3, x, 0))
        assert out[space.index((2, x, 1))] == 1.0
        assert np.count_nonzero(out) == 1


def test_embed_errors():
    space = HilbertSpace((4, 4, 3))
    with pytest.raises(ValueError):
        tensor_embed(np.eye(3), space, (0,))  # dimension mismatch
    with pytest.raises(ValueError):
        tensor_embed(np.eye(4), space, (5,))  # slot out of range
    with pytest.raises(ValueError):
        tensor_embed(np.eye(16), space, (0, 0))  # duplicate slot


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_embeds_on_disjoint_slots_commute_exactly(seed):
    space = HilbertSpace((4, 4, 3))
    rng = np.random.default_rng(seed)
    a = tensor_embed(rng.normal(size=(4, 4)), space, (0,))
    b = tensor_embed(rng.normal(size=(12, 12)), space, (1, 2))
    assert np.array_equal(a @ b, b @ a)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_embed_matches_apply_local_on_identity(data):
    # any slot subset in any order: non-adjacent slots, reversed slots, the cavity
    n_qubits = data.draw(st.integers(1, 3))
    space = HilbertSpace.for_qubits(n_qubits, data.draw(st.sampled_from([2, 3])))
    slots = data.draw(
        st.lists(st.integers(0, len(space.dims) - 1), min_size=1, max_size=3, unique=True)
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dim = math.prod(space.dims[s] for s in slots)
    local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    eye = np.eye(space.total_dim, dtype=complex)
    reference = on_array(lambda state: apply_local(local, space, slots, state), space, eye)
    assert np.array_equal(tensor_embed(local, space, slots), reference)


def test_embed_rejects_non_square_local():
    with pytest.raises(ValueError):
        tensor_embed(np.ones((4, 3)), HilbertSpace((4, 3)), (0,))


def test_apply_local_matches_embedded_matvec():
    space = HilbertSpace((4, 4, 3))
    rng = np.random.default_rng(7)
    local = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    vec = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    full = tensor_embed(local, space, (0, 2))
    out = on_array(lambda state: apply_local(local, space, (0, 2), state), space, vec)
    assert np.allclose(out, full @ vec, atol=1e-12)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_local_matches_the_embedded_operator(data):
    # slots in any order, the cavity among them; a stack is the vector path column by column
    n_qubits = data.draw(st.integers(1, 3))
    space = HilbertSpace.for_qubits(n_qubits, data.draw(st.sampled_from([2, 3])))
    slots = data.draw(st.permutations(range(len(space.dims))))
    slots = tuple(slots[: data.draw(st.integers(1, min(3, len(space.dims))))])
    m = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dim = math.prod(space.dims[s] for s in slots)
    local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    stack = rng.normal(size=(space.total_dim, m)) + 1j * rng.normal(size=(space.total_dim, m))
    full = tensor_embed(local, space, slots)
    apply = lambda state: apply_local(local, space, slots, state)
    out = on_array(apply, space, stack)
    assert np.max(np.abs(out - full @ stack)) <= 1e-12
    for j in range(m):
        assert np.array_equal(on_array(apply, space, stack[:, j]), out[:, j])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_local_on_sparse_stacks(data):
    # exact zeros and all-zero columns, slots in any order with the cavity among
    # them: the product matches the embedded operator, each column is bitwise
    # its own one-column call, and the result holds only nonzeros
    n_qubits = data.draw(st.integers(1, 3))
    space = HilbertSpace.for_qubits(n_qubits, data.draw(st.sampled_from([2, 3])))
    slots = data.draw(st.permutations(range(len(space.dims))))
    slots = tuple(slots[: data.draw(st.integers(1, min(3, len(space.dims))))])
    m = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dim = math.prod(space.dims[s] for s in slots)
    local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    stack = rng.normal(size=(space.total_dim, m)) + 1j * rng.normal(size=(space.total_dim, m))
    stack[rng.random(stack.shape) < data.draw(st.floats(0.0, 1.0))] = 0.0
    stack[:, data.draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0
    idx, col = np.nonzero(stack)
    support = apply_local(local, space, slots, Support(space, col, idx, stack[idx, col]))
    assert np.all(np.diff(support.col) >= 0) and np.all(support.amp != 0)
    out = array_of(support, stack)
    assert np.count_nonzero(out) == support.amp.size
    assert np.max(np.abs(out - tensor_embed(local, space, slots) @ stack)) <= 1e-12
    apply = lambda state: apply_local(local, space, slots, state)
    for j in range(m):
        assert np.array_equal(on_array(apply, space, stack[:, j]), out[:, j])


@pytest.mark.parametrize("slots", [(0,), (0, 2), (2, 1)])
def test_apply_local_pads_a_lone_row(slots):
    # one live copy of the local space: BLAS rounds a (1, d) @ (d, d) product
    # differently from the same row inside a larger one, so the lone row must
    # come out as it does next to another row
    space = HilbertSpace.for_qubits(2, 3)
    rows = local_index_map(space, slots)
    rng = np.random.default_rng(sum(slots))
    d = rows.shape[1]
    local = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = np.zeros(space.total_dim, dtype=complex)
    x[rows[1]] = rng.normal(size=d) + 1j * rng.normal(size=d)
    expected = np.zeros_like(x)
    expected[rows[1]] = (x[rows[:2]] @ local.T)[1]
    lone = Support(space, np.zeros(d, dtype=int), rows[1], x[rows[1]])
    support = apply_local(local, space, slots, lone)
    assert np.array_equal(expected[support.idx], support.amp)
    assert support.amp.size == np.count_nonzero(expected)

def test_local_index_map_shape_coverage_and_slot_errors():
    space = HilbertSpace.for_qubits(3, 3)
    rows = local_index_map(space, (2, 0))
    assert np.array_equal(local_index_map(space, [2, 0]), rows)
    assert rows.shape == (space.total_dim // 16, 16)
    assert np.array_equal(np.sort(rows.ravel()), np.arange(space.total_dim))
    for bad in [(0, 0), (4,), (-1,)]:
        with pytest.raises(ValueError, match="slot"):
            local_index_map(space, bad)



@pytest.mark.parametrize("slots", [(1,), (2, 0), (0, 2), (1, 3, 0), (3,)])
def test_local_index_map_matches_basis_tuples(slots):
    # oracle: row r walks the other subsystems' levels in index order, column a
    # the slot levels in the given slot order, first slot most significant
    space = HilbertSpace((4, 3, 2, 3))
    rest = [s for s in range(len(space.dims)) if s not in slots]
    rest_levels = list(itertools.product(*(range(space.dims[s]) for s in rest)))
    slot_levels = list(itertools.product(*(range(space.dims[s]) for s in slots)))
    expected = np.empty((len(rest_levels), len(slot_levels)), dtype=int)
    for r, fixed in enumerate(rest_levels):
        for a, local in enumerate(slot_levels):
            levels = [0] * len(space.dims)
            for s, level in zip(rest + list(slots), fixed + local):
                levels[s] = level
            expected[r, a] = space.index(levels)
    assert np.array_equal(local_index_map(space, slots), expected)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_digits_match_the_basis_levels(data):
    # oracle: the slot levels of np.unravel_index in the given slot order, first
    # slot most significant; non-uniform dims, any slot subset in any order.
    # An index plus a multiple of D (a column's offset in apply_local) has the
    # same digits
    dims = data.draw(
        st.one_of(st.just((4, 3, 2, 5)), st.lists(st.integers(1, 5), min_size=1, max_size=5))
    )
    space = HilbertSpace(dims)
    slots = data.draw(st.permutations(range(len(space.dims))))
    slots = tuple(slots[: data.draw(st.integers(1, len(space.dims)))])
    index = data.draw(st.lists(st.integers(0, space.total_dim - 1), max_size=20))
    index = np.array(index, dtype=int)
    expected = []
    for i in index:
        levels, local = np.unravel_index(i, space.dims), 0
        for s in slots:
            local = local * space.dims[s] + levels[s]
        expected.append(local)
    assert np.array_equal(space.digits(index, slots), expected)
    shifted = index.reshape(-1, 1) + space.total_dim * np.arange(3)
    assert np.array_equal(space.digits(shifted, slots), np.repeat(expected, 3).reshape(-1, 3))

@pytest.mark.parametrize("shape", [(256,), (63,), (64, 2, 1), (32, 2), (2, 64), ()])
def test_wrong_length_arrays_rejected(shape):
    # a leading axis that is a multiple of D used to be read as extra columns;
    # the kernels now take no array at all, whatever its shape
    space = HilbertSpace((4, 4, 4))
    h = dense_operator(space, random_hermitian(space.total_dim, 0))
    bad = np.ones(shape, dtype=complex)
    weights = ((np.ones(4), (0,)),)
    calls = (
        lambda: apply_local(np.eye(4), space, (1,), bad),
        lambda: h.propagate(bad, 0.5),
        lambda: evolve_times(bad, h, np.linspace(0.0, 1.0, 5), weights),
    )
    for call in calls:
        with pytest.raises(ValueError, match="expected a Support, got ndarray"):
            call()


@pytest.mark.parametrize("shape", [(128,), (63,), (64, 2, 1), (2, 64), ()])
def test_state_vector_rejects_other_shapes(shape):
    # the dense test states reach the kernels through their supports
    space = HilbertSpace((4, 4, 4))
    with pytest.raises(ValueError, match=r"expected \(64,\) or \(64, m\)"):
        support_of(space, np.ones(shape, dtype=complex))
    support = support_of(space, np.ones((64, 3)))
    assert support.col.max() + 1 == 3 and support.idx.size == 64 * 3


# --- propagate / propagator ------------------------------------------------


def test_evolve_zero_time_is_identity(unit_params):
    space = HilbertSpace.for_qubits(1, 3)
    h = raman_effective_1q(unit_params, 3)
    state = random_state(space, 3)
    out = on_array(lambda support: h.propagate(support, 0.0), space, state)
    assert np.allclose(out, state, atol=1e-14)


def test_evolve_dispersive_single_photon_pi_phase(unit_params):
    # one photon present: |2>|1>_c picks up exactly -1 after t = pi*delta/g^2
    space = HilbertSpace.for_qubits(1, 3)
    h = dispersive_1q(unit_params, 3)
    t = math.pi * unit_params.delta_ck_at(0) / unit_params.g_at(0) ** 2
    out = on_array(lambda state: h.propagate(state, t), space, basis_vector(space, (2, 1)))
    assert abs(out[space.index((2, 1))] + 1.0) < 1e-10


def test_evolve_raman_effective_quarter_period_flip(unit_params):
    # |1>|0>_c -> |2>|1>_c with amplitude +1 at t = pi*delta/(2 g^2)
    space = HilbertSpace.for_qubits(1, 3)
    h = raman_effective_1q(unit_params, 3)
    t1 = math.pi * unit_params.delta_c / (2.0 * unit_params.g_at(0) ** 2)
    out = on_array(lambda state: h.propagate(state, t1), space, basis_vector(space, (1, 0)))
    assert abs(out[space.index((2, 1))] - 1.0) < 1e-10


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_evolve_preserves_norm(seed, t):
    space = HilbertSpace((4, 3))
    h = dense_operator(space, random_hermitian(space.total_dim, seed))
    out = h.propagate(support_of(space, random_state(space, seed + 1)), t)
    assert abs(np.linalg.norm(out.amp) - 1.0) < 1e-12


def test_non_hermitian_matrix_rejected():
    space = HilbertSpace((4, 2))
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        dense_operator(space, m)


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("nan"))])
def test_nan_matrix_rejected(bad):
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError):
        dense_operator(HilbertSpace((4, 2)), m)


def test_propagator_zero_time_is_identity(unit_params):
    space = HilbertSpace.for_qubits(1, 2)
    h = raman_effective_1q(unit_params, 2)
    u = propagator(h, 0.0)
    assert np.allclose(u, np.eye(space.total_dim), atol=1e-14)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_rejected(unit_params, t):
    space = HilbertSpace.for_qubits(1, 2)
    h = raman_effective_1q(unit_params, 2)
    with pytest.raises(ValueError, match="evolution time must be finite"):
        h.propagate(support_of(space, basis_vector(space, (1, 0))), t)
    with pytest.raises(ValueError, match="evolution time must be finite"):
        propagator(h, t)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_propagator_inverse_and_unitarity(seed):
    space = HilbertSpace((4, 3))
    h = dense_operator(space, random_hermitian(space.total_dim, seed))
    u = propagator(h, 1.7)
    v = propagator(h, -1.7)
    assert np.linalg.norm(u @ v - np.eye(space.total_dim)) < 1e-10
    assert unitarity_defect(u) < 1e-10


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=20, deadline=None)
def test_propagator_composition(seed, t1, t2):
    space = HilbertSpace((4, 2))
    h = dense_operator(space, random_hermitian(space.total_dim, seed))
    lhs = propagator(h, t1 + t2)
    rhs = propagator(h, t2) @ propagator(h, t1)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_propagator_dispersive_restriction(unit_params):
    # at t = pi*delta/g^2 the single-photon block of |2>, |3> is diag(-1, -1)
    space = HilbertSpace.for_qubits(1, 2)
    h = dispersive_1q(unit_params, 2)
    t = math.pi * unit_params.delta_ck_at(0) / unit_params.g_at(0) ** 2
    u = propagator(h, t)
    for level in (2, 3):
        i = space.index((level, 1))
        assert abs(u[i, i] + 1.0) < 1e-10


def test_raman_propagator_is_involution_on_flip_block(unit_params):
    # matrix-product oracle: U(t1) @ U(t1) restricted to the flip block
    space = HilbertSpace.for_qubits(1, 2)
    h = raman_effective_1q(unit_params, 2)
    t1 = math.pi * unit_params.delta_c / (2.0 * unit_params.g_at(0) ** 2)
    u = propagator(h, t1)
    square = u @ u
    for levels in ((1, 0), (2, 1)):
        i = space.index(levels)
        col = square[:, i]
        assert abs(col[i] - 1.0) < 1e-10
        assert np.linalg.norm(np.delete(col, i)) < 1e-10


# --- block decomposition ----------------------------------------------------


def block_diagonal_hermitian(sizes, seed):
    """Random Hermitian blocks of the given sizes, scattered by a random permutation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(sizes))
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    members, start = [], 0
    for size in sizes:
        idx = perm[start : start + size]
        mat[np.ix_(idx, idx)] = random_hermitian(size, rng.integers(2**31))
        members.append(sorted(idx))
        start += size
    return mat, members


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_propagate_on_a_support_matches_the_propagator(sizes, m, t, seed):
    # each column reaches a random set of blocks, so columns share blocks or
    # sit on disjoint ones; with m >= 2 the first column reaches every block
    # and the last none.  The support is read in another order than the one
    # the dense reference reads, which must give the same result bitwise
    mat, members = block_diagonal_hermitian(sizes, seed)
    h = dense_operator(HilbertSpace((len(mat),)), mat)
    rng = np.random.default_rng(seed + 1)
    amps = rng.normal(size=(len(mat), m)) + 1j * rng.normal(size=(len(mat), m))
    reach = rng.random((len(members), m)) < 0.5
    if m >= 2:
        reach[:, 0], reach[:, -1] = True, False
    for block, columns in zip(members, reach):
        amps[np.ix_(block, ~columns)] = 0.0
    idx, col = np.nonzero(amps)
    out = h.propagate(Support(h.space, col, idx, amps[idx, col]), t)
    assert np.all(out.amp != 0)
    got = np.zeros_like(amps)
    got[out.idx, out.col] = out.amp
    assert np.count_nonzero(got) == out.amp.size
    assert np.max(np.abs(got - propagator(h, t) @ amps)) <= 1e-12
    assert np.array_equal(on_array(lambda state: h.propagate(state, t), h.space, amps), got)


def test_dense_hermitian_is_one_block():
    space = HilbertSpace((4, 3))
    h = dense_operator(space, random_hermitian(12, 5))
    ((idx, _),) = whole_space_blocks(h)
    assert idx.tolist() == [list(range(12))]
    assert_matches_dense_oracle(h, random_state(space, 6), [0.0, 0.4, 3.0])


def test_zero_matrix_is_all_singletons():
    h = dense_operator(HilbertSpace((4, 2)), np.zeros((8, 8)))
    ((idx, _),) = whole_space_blocks(h)
    assert idx.tolist() == [[i] for i in range(8)]
    assert np.array_equal(propagator(h, 2.0), np.eye(8))


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_blocks_are_the_uncoupled_components(sizes, seed):
    mat, members = block_diagonal_hermitian(sizes, seed)
    h = dense_operator(HilbertSpace((len(mat),)), mat)
    labels = block_labels(h)
    found = sorted(sorted(np.flatnonzero(labels == k).tolist()) for k in range(labels.max() + 1))
    assert found == sorted(members)
    # one stacked eigh per block size
    assert [idx.shape[1] for idx, _ in whole_space_blocks(h)] == sorted(set(sizes))
    amps = random_state(h.space, seed + 1)
    amps[members[0]] = 0.0  # one block without amplitude
    if np.any(amps):
        assert_matches_dense_oracle(h, amps / np.linalg.norm(amps), [0.0, 0.7, 2.5])


@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([1e-14, 1e-9]))
@settings(max_examples=20, deadline=None)
def test_hermiticity_check_sees_defects_inside_blocks(seed, size):
    mat, members = block_diagonal_hermitian([3, 1, 4], seed)
    i, j = members[2][0], members[2][1]
    mat[i, j] += size
    defect = np.max(np.abs(mat - mat.conj().T))
    space = HilbertSpace((len(mat),))
    if defect > 1e-12:
        with pytest.raises(ValueError):
            dense_operator(space, mat)
    else:
        dense_operator(space, mat)


def random_sparse_hermitian(dim, seed, density=0.15):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((dim, dim)) < density)
    a = np.where(mask, rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0.0)
    return (a + a.conj().T) / 2.0


def random_terms(space, slot_sets, with_diagonal, seed):
    """Random sparse Hermitian terms on ``slot_sets``, optionally with a random diagonal."""
    rng = np.random.default_rng(seed)
    terms = tuple(
        (random_sparse_hermitian(math.prod(space.dims[s] for s in slots), seed + i), slots)
        for i, slots in enumerate(slot_sets)
    )
    if with_diagonal:  # a diagonal over every subsystem, as one term
        terms += ((np.diag(rng.normal(size=space.total_dim)), (0, 1, 2)),)
    return terms


SLOT_SETS = st.lists(
    st.sampled_from([(0,), (1,), (2,), (0, 2), (1, 2), (2, 0), (1, 0)]), max_size=4
)


@given(SLOT_SETS, st.booleans(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_term_built_blocks_match_the_dense_sum(slot_sets, with_diagonal, seed):
    # blocks scattered from the terms equal the dense sum's blocks: the same
    # components and sub-matrices gathered from it to 1e-12
    space = HilbertSpace((4, 3, 2))
    h = HermitianOperator(space, random_terms(space, slot_sets, with_diagonal, seed))
    dense = dense_operator(space, dense_matrix(h))
    for (idx, sub), (dense_idx, dense_sub) in zip(
        whole_space_blocks(h), whole_space_blocks(dense), strict=True
    ):
        assert np.array_equal(idx, dense_idx)
        assert np.max(np.abs(sub - dense_sub)) <= 1e-12 * max(1.0, np.max(np.abs(dense_sub)))


@given(
    SLOT_SETS,
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_blocks_found_from_a_partial_support_are_whole_space_blocks(
    slot_sets, with_diagonal, seed, index, col
):
    # discovery closes the support's indices under the terms' moves: it must
    # find exactly the whole-space blocks that hold one of them, with the
    # same indices and entries, however far a block reaches from its entries;
    # a column's keys col * D + idx find the same blocks, shifted by col * D
    space = HilbertSpace((4, 3, 2))
    shift = col * space.total_dim
    h = HermitianOperator(space, random_terms(space, slot_sets, with_diagonal, seed))
    key = np.array(index) + shift
    row, found = linalg_mod._partition(space, h.terms, key)
    expected = []
    for idx, sub in whole_space_blocks(h):
        held = np.isin(idx, index).any(axis=1)
        if held.any():
            expected.append((idx[held] + shift, sub[held]))
    assert len(found) == len(expected)
    for (idx, sub), (whole_idx, whole_sub) in zip(found, expected):
        assert np.array_equal(idx, whole_idx)
        assert np.max(np.abs(sub - whole_sub)) <= 1e-12 * max(1.0, np.max(np.abs(whole_sub)))
    # each key's row is its place in the blocks' keys
    places = np.concatenate([idx.ravel() for idx, _ in found])
    assert np.array_equal(places[row], key)


@given(
    st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_unique_is_numpy_unique(values, repeats):
    # the sort-based set of keys is np.unique's, bitwise, also for empty input
    keys = np.array(values * (repeats + 1), dtype=np.int64)
    got, want = linalg_mod._unique(keys), np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_non_hermitian_or_nan_term_rejected():
    space = HilbertSpace((4, 4, 2))
    good = random_hermitian(8, 3)
    diagonal = (np.diag(np.arange(32.0)), (0, 1, 2))
    HermitianOperator(space, ((good, (0, 2)), (good, (1, 2)), diagonal))
    skewed = good.copy()
    skewed[0, 1] += 1e-9
    nan = good.copy()
    nan[2, 5] = nan[5, 2] = float("nan")
    for terms in (((good, (0, 2)), (skewed, (1, 2))), ((nan, (1, 2)),)):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(space, terms)
    for diagonal in (np.full(32, float("nan")), np.full(32, 1j)):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(space, ((good, (0, 2)), (np.diag(diagonal), (0, 1, 2))))
    with pytest.raises(ValueError, match="local operator has dimension 8, its slots need 32"):
        HermitianOperator(space, ((np.diag(np.zeros(8)), (0, 1, 2)),))


# --- weighted populations over a time grid ---------------------------------


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    st.sampled_from([0, 1, 2, 3, 7, 512, 4096]),
    st.floats(min_value=0.1, max_value=5.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_evolve_times_matches_the_per_sample_sum(sizes, samples, duration, seed):
    # the pair form against sum_i w_i |(V exp(-i λ t) c)_i|² at every sample,
    # block by block; weights vanish on every other block and the state on
    # the last one, so such blocks drop out
    mat, members = block_diagonal_hermitian(sizes, seed)
    h = dense_operator(HilbertSpace((len(mat),)), mat)
    rng = np.random.default_rng(seed + 1)
    weights = rng.integers(1, 4, size=len(mat)).astype(float)
    for block in members[::2]:
        weights[block] = 0.0
    amps = random_state(h.space, seed + 2)
    if len(members) > 1:
        amps[members[-1]] = 0.0
    times = np.linspace(0.0, duration, samples + 1)
    expected = np.zeros(times.size)
    for idx, sub in whole_space_blocks(h):
        for rows, lam, vecs in zip(idx, *np.linalg.eigh(sub)):
            c = vecs.conj().T @ amps[rows]
            trajectory = (np.exp(-1j * np.outer(times, lam)) * c) @ vecs.T
            expected += np.abs(trajectory) ** 2 @ weights[rows]
    got = evolve_times(support_of(h.space, amps), h, times, ((weights, (0,)),))
    assert got.shape == (times.size, 1)
    assert np.max(np.abs(got[:, 0] - expected)) <= 1e-12


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0, 1, 7, 512]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stacked_evolve_times_matches_each_column(sizes, m, samples, seed):
    # each column of a stack reaches a random set of blocks, so columns share
    # blocks or sit on disjoint ones; with m >= 2 the first column reaches
    # every block, and with m >= 3 the third reaches only the first block,
    # whose weights vanish, so it has no live block.  The stack's nonzeros
    # read in another order give the same figures bitwise
    mat, members = block_diagonal_hermitian(sizes, seed)
    h = dense_operator(HilbertSpace((len(mat),)), mat)
    rng = np.random.default_rng(seed + 1)
    weights = rng.integers(1, 4, size=len(mat)).astype(float)
    weights[members[0]] = 0.0
    weights = ((weights, (0,)),)  # one term over the one subsystem
    amps = rng.normal(size=(len(mat), m)) + 1j * rng.normal(size=(len(mat), m))
    reach = rng.random((len(members), m)) < 0.5
    if m >= 2:
        reach[:, 0] = True
    if m >= 3:
        reach[:, 2] = False
        reach[0, 2] = True
    for block, columns in zip(members, reach):
        amps[np.ix_(block, ~columns)] = 0.0
    times = np.linspace(0.0, 1.3, samples + 1)
    idx, col = np.nonzero(amps)
    width = col.max(initial=-1) + 1  # trailing all-zero columns have no entry
    got = evolve_times(support_of(h.space, amps), h, times, weights)
    assert got.shape == (times.size, width)
    for k in range(m):
        single = evolve_times(support_of(h.space, amps[:, k]), h, times, weights)
        assert single.shape == (times.size, int(np.any(amps[:, k])))  # an empty column has none
        column = got[:, k] if k < width else np.zeros(times.size)
        assert np.max(np.abs(column - single.sum(axis=1))) <= 1e-12
    if m >= 3:
        assert not np.any(got[:, 2])
    support = evolve_times(Support(h.space, col, idx, amps[idx, col]), h, times, weights)
    assert np.array_equal(support, got)


@pytest.mark.parametrize("shape", [(8,), (3,), (4, 1), ()])
def test_evolve_times_rejects_other_weight_shapes(shape):
    # a length-2D vector used to be read as its first D entries
    h = dense_operator(HilbertSpace((4,)), random_hermitian(4, 0))
    state = support_of(h.space, random_state(h.space, 1))
    with pytest.raises(ValueError, match=r"weights have shape .*, expected \(4,\)"):
        evolve_times(state, h, np.linspace(0.0, 1.0, 5), ((np.ones(shape), (0,)),))


@pytest.mark.parametrize(
    "times",
    [[0.0, 0.1, 0.3], [0.0, 0.2, 0.1], [0.1, 0.2, 0.3], [-0.1, 0.0, 0.1], [], [[0.0, 1.0]], [0.0, np.nan]],
)
def test_evolve_times_rejects_other_grids(times):
    # only an equally spaced grid t_i = i dt from 0 is accepted
    h = dense_operator(HilbertSpace((4,)), random_hermitian(4, 0))
    state = support_of(h.space, random_state(h.space, 1))
    with pytest.raises(ValueError, match="sample times must be"):
        evolve_times(state, h, np.array(times), ((np.ones(4), (0,)),))


# --- fidelity --------------------------------------------------------------


def test_process_fidelity_self_is_one():
    u = np.eye(8, dtype=complex)
    assert process_fidelity(u, u, range(8)) == pytest.approx(1.0)


def test_process_fidelity_opposite_phases_vanishes():
    u = np.eye(2, dtype=complex)
    v = np.diag([1.0, -1.0]).astype(complex)
    assert process_fidelity(u, v, (0, 1)) == pytest.approx(0.0)


def test_process_fidelity_global_phase_invariant():
    space = HilbertSpace((4, 2))
    rng = np.random.default_rng(0)
    h = random_hermitian(8, 1)
    u = propagator(dense_operator(space, h), 0.3)
    v = np.exp(1j * rng.uniform()) * u
    assert process_fidelity(u, v, range(8)) == pytest.approx(1.0)


def test_process_fidelity_empty_subspace_rejected():
    u = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        process_fidelity(u, u, ())

