"""States, operators and block-wise spectral propagation over qudit-cavity spaces.

States and operators live on a :class:`HilbertSpace`: an ordered tuple of
subsystem dimensions, qudits first and the cavity mode last.  Basis indices
are mixed-radix numbers with the cavity digit least significant, i.e.
``|l1 .. ln> ⊗ |nc>`` maps to ``((l1*d2 + l2)*d3 + ...) * d_cav + nc``.
Fixing this one convention removes an entire class of indexing bugs.

Spaces, states and Hamiltonians are immutable after construction and every
operation is a pure function, so they are safe to share between concurrent
workers.  Propagators and composed gates are plain, writable ``np.ndarray``
matrices owned by the caller.

A local operator acts on a state's :class:`Support`, flat arrays of column
id, basis index and amplitude, through the entries' mixed-radix digits
(:func:`apply_local`): one ``(R, d) @ (d, d)`` product over the ``R`` live
copies of the local space, so its cost follows the support, not ``D``.
Hamiltonian terms are placed through :func:`local_index_map`, whose rows
each hold the basis indices of one copy of the local space.

Hermitian time evolution uses the spectral decomposition of the matrix,
which is exact up to floating point; no step-wise integrator is involved
because every Hamiltonian in this package is time independent in its
rotating frame.  The decomposition is taken block by block: a Hermitian
operator is given by its terms (a diagonal plus local operators on a few
subsystems), the connected components of the terms' nonzero patterns are
uncoupled (every window Hamiltonian conserves excitations), and each
block's entries are added straight from the terms, so no ``D x D`` matrix
is formed.  Blocks of one size share one stacked ``eigh`` call, and
propagation and sampling run on the blocks that carry amplitude.  A dense
matrix is one term over every subsystem, and without zero structure it is a
single block.  On a 2-CPU VM a full-mode fanout CNOT report at n = 5
(D = 2048, 486-1280 blocks per window, none larger than 32) takes about
0.1 s without level-3 sampling, against about 26 s with dense ``eigh``; at
n = 7 (D = 32768, blocks of at most 128) it takes about 1 s and 72 MiB.

Sampling a weighted population on an equally spaced time grid
(:func:`evolve_times`) forms no state at any sample time.  In each block
the population is a constant plus one oscillating term per pair of
eigenvalues, at their difference frequency.  The phases of all pairs on
the grid ``t = (q S + r) dt`` factor into ``S`` fast and about ``S`` slow
columns (``S² >= T`` for ``T`` sample times), so the grid costs one matrix
product and ``O(sqrt(T))`` complex exponentials per pair.  This pays where
blocks are small next to ``T``: the pair form costs about ``b³`` per block of
size ``b`` against ``T b²`` for stepping the state through every sample.
The state may be a ``(D, m)`` stack of columns: the live blocks, the
projections ``v† x`` and each block's weighted ``v† diag(weights) v`` are
then found once for the stack, the phases once for all its live pairs, and
each column takes one product over the pairs of its own blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

# Default tolerances: analytic matrix identities vs. norm-level checks.
UNITARY_TOL = 1e-10
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12

QUDIT_LEVELS = 4


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered subsystem dimensions; the last entry is the cavity truncation."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) < 1:
            raise ValueError("HilbertSpace needs at least one subsystem")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be positive, got {self.dims}")

    @classmethod
    def for_qubits(cls, n_qubits: int, cavity_dim: int = 2) -> "HilbertSpace":
        """Standard layout: ``n_qubits`` four-level systems plus one cavity mode."""
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if cavity_dim < 2:
            raise ValueError("cavity truncation must be at least 2")
        return cls((QUDIT_LEVELS,) * n_qubits + (cavity_dim,))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def n_qubits(self) -> int:
        return len(self.dims) - 1

    @property
    def cavity_slot(self) -> int:
        return len(self.dims) - 1

    @property
    def cavity_dim(self) -> int:
        return self.dims[-1]

    def index(self, levels: Sequence[int]) -> int:
        """Mixed-radix basis index of a product state, cavity least significant."""
        if len(levels) != len(self.dims):
            raise ValueError(f"expected {len(self.dims)} levels, got {len(levels)}")
        idx = 0
        for level, dim in zip(levels, self.dims):
            if not 0 <= level < dim:
                raise ValueError(f"level {level} out of range for dimension {dim}")
            idx = idx * dim + level
        return idx

    def levels(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.total_dim:
            raise ValueError(f"basis index {index} out of range")
        out = []
        for dim in reversed(self.dims):
            out.append(index % dim)
            index //= dim
        return tuple(reversed(out))

    def basis_vector(self, levels: Sequence[int]) -> np.ndarray:
        vec = np.zeros(self.total_dim, dtype=complex)
        vec[self.index(levels)] = 1.0
        return vec

    def basis_state(self, levels: Sequence[int]) -> "StateVector":
        return StateVector(self, self.basis_vector(levels))

    def computational_indices(self) -> list[int]:
        """Indices of qubit-{0,1} product states with the cavity in vacuum.

        Ordered as binary numbers with qubit 1 the most significant bit, so
        entry ``k`` is the state labelled by the bitstring of ``k``.
        """
        n = self.n_qubits
        out = []
        for k in range(2**n):
            bits = [(k >> (n - 1 - q)) & 1 for q in range(n)]
            out.append(self.index(bits + [0]))
        return out

    def computational_label(self, k: int) -> str:
        n = self.n_qubits
        return format(k, f"0{n}b")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a :class:`HilbertSpace`: one state or a stack of states.

    ``amplitudes`` is a ``(D,)`` vector or a ``(D, m)`` stack whose columns
    are ``m`` states; any other shape raises ``ValueError``.
    """

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _freeze(_columns(self.space, self.amplitudes)))


def subsystem_level_mask(space: HilbertSpace, slot: int, level: int) -> np.ndarray:
    """Boolean mask over basis indices where subsystem ``slot`` sits at ``level``."""
    if not 0 <= slot < space.n_subsystems:
        raise ValueError(f"slot {slot} out of range")
    dims = space.dims
    below = math.prod(dims[slot + 1 :])
    digits = (np.arange(space.total_dim) // below) % dims[slot]
    return digits == level


def level_count_weights(space: HilbertSpace, level: int) -> np.ndarray:
    """Per-basis-state count of qubits sitting at ``level`` (cavity excluded)."""
    weights = np.zeros(space.total_dim)
    for slot in range(space.n_qubits):
        weights += subsystem_level_mask(space, slot, level)
    return weights


class SpectralBlocks(NamedTuple):
    """``k`` uncoupled blocks of one size ``b`` and their eigendecompositions.

    ``idx`` (k, b) holds each block's basis indices in ascending order,
    ``w`` (k, b) its eigenvalues and ``v`` (k, b, b) its eigenvectors as columns.
    """

    idx: np.ndarray
    w: np.ndarray
    v: np.ndarray


Term = tuple[np.ndarray, tuple[int, ...]]


def _components(dim: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest basis index of each index's connected component under the edges ``src-dst``."""
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    labels = np.arange(dim)
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        new = new[new]  # pointer jumping: a label is an index of the same component
        if np.array_equal(new, labels):
            return labels
        labels = new


def _partition(
    space: HilbertSpace, terms: tuple[Term, ...], diagonal: np.ndarray | None
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Uncoupled blocks of ``diag(diagonal) + sum of the embedded terms``, grouped by size.

    Returns ``(idx (k, b), sub-matrices (k, b, b))`` pairs.  The blocks are the
    connected components of the terms' nonzero off-diagonal entries, each
    local pattern placed through :func:`local_index_map`; the term entries
    are then added straight into the sub-matrices, so no ``D x D`` array is
    formed.
    """
    dim = space.total_dim
    placed = []
    src, dst = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for local, slots in terms:
        rows = local_index_map(space, slots)
        a, b = np.nonzero(local)
        placed.append((rows, a, b, local[a, b]))
        src.append(rows[:, a[a != b]].ravel())
        dst.append(rows[:, b[a != b]].ravel())
    labels = _components(dim, np.concatenate(src), np.concatenate(dst))
    order = np.argsort(labels, kind="stable")
    roots = np.flatnonzero(labels == np.arange(dim))  # a label is its component's smallest index
    sizes = np.bincount(labels)[roots]
    starts = np.cumsum(sizes) - sizes
    # Entry (i, j) of a block lives at flat[base[i] + col[j]] of one buffer for all blocks.
    base = np.empty(dim, dtype=int)
    col = np.empty(dim, dtype=int)
    groups = []
    offset = 0
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        col[idx] = np.arange(size)
        base[idx] = offset + size * np.arange(idx.size).reshape(idx.shape)
        groups.append((idx, offset))
        offset += idx.size * size
    flat = np.zeros(offset, dtype=complex)
    if diagonal is not None:
        flat[base + col] += diagonal
    for rows, a, b, values in placed:
        flat[base[rows[:, a]] + col[rows[:, b]]] += values
    out = []
    for idx, start in groups:
        k, b = idx.shape
        out.append((idx, flat[start : start + k * b * b].reshape(k, b, b)))
    return tuple(out)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator over a space, in angular-frequency units (rad/s).

    The operator is ``diag(diagonal)`` plus each term ``(local, slots)``
    embedded as ``local`` on ``slots`` and identity elsewhere; a dense matrix
    is the one term over every subsystem.  It is split into uncoupled blocks
    on construction, from the terms' nonzero patterns alone, so the
    Hermiticity check and the spectral decomposition run on the blocks and
    no term is embedded into a ``D x D`` matrix.
    """

    space: HilbertSpace
    terms: tuple[Term, ...]
    diagonal: np.ndarray | None = None
    _parts: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = []
        for local, slots in self.terms:
            local = _check_local(local, self.space, slots)[0]
            terms.append((_freeze(local), tuple(int(s) for s in slots)))
        terms = tuple(terms)
        diagonal = self.diagonal
        if diagonal is not None:
            diagonal = _freeze(diagonal)
            if diagonal.shape != (self.space.total_dim,):
                raise ValueError(
                    f"diagonal has shape {diagonal.shape}, expected ({self.space.total_dim},)"
                )
        parts = _partition(self.space, terms, diagonal)
        defect = np.max([np.max(np.abs(sub - np.swapaxes(sub.conj(), -1, -2))) for _, sub in parts])
        if not defect <= HERMITIAN_TOL:  # a NaN entry fails too
            raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "_parts", parts)

    @cached_property
    def blocks(self) -> tuple[SpectralBlocks, ...]:
        """Eigendecomposition of every block, one stacked ``eigh`` per block size.

        The sub-matrices are released once decomposed; only the spectra stay.
        """
        blocks = tuple(SpectralBlocks(idx, *np.linalg.eigh(sub)) for idx, sub in self._parts)
        object.__setattr__(self, "_parts", ())
        return blocks

    def propagate(self, array: np.ndarray, t: float) -> np.ndarray:
        """``exp(-i H t) @ array`` for a vector or a stack of columns, block by block.

        Blocks where ``array`` is zero stay exactly zero and are skipped.
        """
        if not math.isfinite(t):
            raise ValueError("evolution time must be finite")
        arr = _columns(self.space, array)
        mat = arr.reshape(self.space.total_dim, -1)
        out = np.zeros_like(mat)
        for idx, w, v in self.blocks:
            sub = mat[idx]  # (k, b, m)
            live = sub.any(axis=(1, 2))
            if not live.all():
                idx, w, v, sub = idx[live], w[live], v[live], sub[live]
            coeff = np.swapaxes(v.conj(), -1, -2) @ sub
            out[idx] = v @ (np.exp(-1j * w * t)[:, :, None] * coeff)
        return out.reshape(arr.shape)


def _columns(space: HilbertSpace, array: np.ndarray) -> np.ndarray:
    """``array`` as a complex ``(D,)`` vector or ``(D, m)`` stack; other shapes raise."""
    arr = np.asarray(array, dtype=complex)
    dim = space.total_dim
    if arr.ndim not in (1, 2) or arr.shape[0] != dim:
        raise ValueError(f"array has shape {arr.shape}, expected ({dim},) or ({dim}, m)")
    return arr


def _check_local(local: np.ndarray, space: HilbertSpace, slots: Sequence[int]) -> tuple:
    """``local`` as a complex square matrix, and the :func:`_slot_layout` of ``slots``."""
    local = np.asarray(local, dtype=complex)
    if local.ndim != 2 or local.shape[0] != local.shape[1]:
        raise ValueError("local operator must be a square matrix")
    radix, offset = _slot_layout(space.dims, tuple(int(s) for s in slots))
    if len(local) != offset.size:
        raise ValueError(f"local operator has dimension {len(local)}, its slots need {offset.size}")
    return local, radix, offset


@cache
def _slot_layout(dims: tuple[int, ...], slots: tuple[int, ...]) -> tuple[tuple, np.ndarray]:
    """``(dim, stride)`` of each slot, and the full-index offset of each local basis index."""
    if len(set(slots)) != len(slots) or not all(0 <= s < len(dims) for s in slots):
        raise ValueError(f"slots {slots} must be distinct subsystem indices below {len(dims)}")
    radix = tuple((dims[s], math.prod(dims[s + 1 :])) for s in slots)
    offset = sum(np.ix_(*(stride * np.arange(size) for size, stride in radix))).ravel()
    offset.setflags(write=False)
    return radix, offset


def local_index_map(space: HilbertSpace, slots: Sequence[int]) -> np.ndarray:
    """Full-space basis indices as a read-only ``(D // d, d)`` array, ``d`` the dim of ``slots``.

    Column ``a`` is the local basis index over ``slots`` in the given order;
    each row fixes the levels of every other subsystem.  An operator local to
    ``slots`` therefore acts on each row's indices alone.  The map is
    memoized per ``(space.dims, slots)`` and shared by every caller; the
    package's maps total at most about ``(2n + 1) D`` entries per space.
    Duplicate or out-of-range slots raise ``ValueError``.
    """
    return _index_map(space.dims, tuple(int(s) for s in slots))


@cache
def _index_map(dims: tuple[int, ...], slots: tuple[int, ...]) -> np.ndarray:
    radix, offset = _slot_layout(dims, slots)
    index = np.arange(math.prod(dims))
    rows = index[sum(index // stride % size for size, stride in radix) == 0, None] + offset
    rows.setflags(write=False)
    return rows


class Support(NamedTuple):
    """Columns by their nonzeros: amplitude ``amp[k]`` at index ``idx[k]`` of column ``col[k]``."""

    col: np.ndarray
    idx: np.ndarray
    amp: np.ndarray


def apply_local(local: np.ndarray, space: HilbertSpace, slots: Sequence[int], array):
    """Apply a local operator on ``slots`` to a vector, a stack of columns or a :class:`Support`.

    The result has the input's form; a dense array goes through its nonzeros.
    Entries are grouped by column and by their index with the slot digits
    zeroed (mixed-radix digits), each group a row of one product with
    ``local.T``; exact zeros are dropped.  A lone row is padded with a zero row,
    as BLAS rounds a one-row product differently from a row in a larger one.
    """
    local, radix, offset = _check_local(local, space, slots)
    dim = space.total_dim
    if isinstance(array, Support):
        code, amp = array.col * dim + array.idx, array.amp
    else:
        mat = _columns(space, array).reshape(dim, -1)
        code = np.flatnonzero((mat != 0).T)  # col * D + idx, like a support's entries
        amp = mat.T.flat[code]
    digit = 0  # code and idx share their slot digits, as each slot's radix divides D
    for size, stride in radix:
        digit = digit * size + code // stride % size
    groups, row = np.unique(code - offset[digit], return_inverse=True)
    gathered = np.zeros((max(groups.size, 2), offset.size), dtype=complex)
    gathered[row, digit] = amp
    values = (gathered @ local.T)[: groups.size].ravel()
    keep = np.flatnonzero(values)
    code = (groups[:, None] + offset).ravel()[keep]
    if isinstance(array, Support):
        return Support(*np.divmod(code, dim), values[keep])
    out = np.zeros_like(mat)
    out.T.flat[code] = values[keep]
    return out.reshape(np.shape(array))


def tensor_embed(local: np.ndarray, space: HilbertSpace, slots: Sequence[int]) -> np.ndarray:
    """Embed a local operator as ``local`` on ``slots`` and identity elsewhere.

    Subsystem ordering is preserved; the result acts on the full space.  The
    local entries are written through :func:`local_index_map`.
    """
    local = _check_local(local, space, slots)[0]
    rows = local_index_map(space, slots)
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    out[rows[:, :, None], rows[:, None, :]] = local
    return out


@cache
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices ``j < l`` of a ``size x size`` matrix's strict upper triangle."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.setflags(write=False)  # shared by every caller
    return pairs


def _grid_step(times: np.ndarray) -> float:
    """The step ``dt`` of a grid ``times[i] = i dt``; ``ValueError`` for any other grid."""
    if times.ndim != 1 or times.size == 0 or times[0] != 0.0:
        raise ValueError("sample times must be a grid starting at 0")
    dt = times[-1] / max(times.size - 1, 1)
    if not np.all(np.abs(times - np.arange(times.size) * dt) <= 1e-9 * abs(dt)):
        raise ValueError("sample times must be equally spaced")
    return float(dt)


def evolve_times(
    state: StateVector, h: HermitianOperator, times: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``sum_i weights[i] |<i| exp(-i H t) |state>|²`` for each ``t`` and each column of ``state``.

    The result has shape ``(len(times),)`` for a vector and
    ``(len(times), m)`` for a ``(D, m)`` stack; ``weights`` must have shape
    ``(D,)`` and ``times`` be an equally spaced grid ``t_i = i dt`` starting
    at 0.  A block contributes to a column where the column has amplitude
    and ``weights`` a nonzero entry; the live blocks of the whole stack are
    found once.  In a block with eigenvectors ``v`` and eigenvalues ``λ``,
    take ``c = v† x`` for every column at once and ``M = v† diag(weights) v``
    once per block; with ``A_jl = conj(c_j) M_jl c_l`` the population is
    ``sum_j A_jj + 2 Re sum_{j<l} A_jl exp(i (λ_j - λ_l) t)``.  The pairs of
    every live block form one list of frequencies ``ω``.  For
    ``T = len(times)``, writing ``i = q S + r`` with ``S = isqrt(T - 1) + 1``
    splits each phase into ``exp(i ω q S dt) exp(i ω r dt)``; these ``Q + S``
    phases, ``Q = ceil(T / S)``, are taken once per call.  Each column then
    selects the ``P_k`` pairs of its own live blocks, so its whole grid is one
    ``(Q, P_k) @ (P_k, S)`` product.
    """
    if state.space.dims != h.space.dims:
        raise ValueError(f"operands live on different spaces: {state.space.dims} vs {h.space.dims}")
    dim = h.space.total_dim
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dim,):
        raise ValueError(f"weights have shape {weights.shape}, expected ({dim},)")
    times = np.asarray(times, dtype=float)
    dt = _grid_step(times)
    amps = state.amplitudes.reshape(dim, -1)
    m = amps.shape[1]
    steady = np.zeros(m)
    coeffs, freqs, lives = [], [], []
    for idx, w, v in h.blocks:
        x, wx = amps[idx], weights[idx]  # (k, b, m), (k, b)
        reached = x.any(axis=1)  # (k, m): the column has amplitude in the block
        blocks = reached.any(axis=1) & wx.any(axis=1)
        if not blocks.any():
            continue
        x, wx, w, v, live = x[blocks], wx[blocks], w[blocks], v[blocks], reached[blocks]
        vh = np.swapaxes(v.conj(), -1, -2)
        c = vh @ x  # (k, b, m): v† x
        mat = (vh * wx[:, None, :]) @ v  # (k, b, b): v† diag(weights) v
        diag = np.diagonal(mat, axis1=1, axis2=2)[:, :, None]
        steady += (c.conj() * diag * c).real.sum(axis=(0, 1))
        j, l = _pairs(w.shape[1])
        coeffs.append((c.conj()[:, j] * mat[:, j, l, None] * c[:, l]).reshape(-1, m))
        freqs.append((w[:, j] - w[:, l]).ravel())
        lives.append(np.repeat(live, j.size, axis=0))
    shape = (times.size,) + state.amplitudes.shape[1:]
    if not coeffs:
        return np.zeros(shape)
    s = math.isqrt(times.size - 1) + 1
    q = -(-times.size // s)
    # q slow steps of S dt, then S fast steps of dt
    steps = np.concatenate([np.arange(q) * s, np.arange(s)]) * dt
    phases = np.exp(1j * steps[:, None] * np.concatenate(freqs))  # (Q + S, P)
    coeffs, lives = np.concatenate(coeffs), np.concatenate(lives)
    out = np.empty((times.size, m))
    for col, live in enumerate(lives.T):
        own, a = (phases, coeffs[:, col]) if live.all() else (phases[:, live], coeffs[live, col])
        slow = 2.0 * a * own[:q]
        out[:, col] = steady[col] + (slow @ own[q:].T).real.ravel()[: times.size]
    return out.reshape(shape)


def propagator(h: HermitianOperator, t: float) -> np.ndarray:
    """Full matrix ``exp(-i H t)``.  Negative ``t`` yields the inverse."""
    return h.propagate(np.eye(h.space.total_dim, dtype=complex), t)


def process_fidelity(u: np.ndarray, v: np.ndarray, subspace: Sequence[int]) -> float:
    """``|Tr(P u† v P)|² / d²`` on the subspace spanned by the given basis indices.

    Equals 1 iff the two unitaries agree on the subspace up to a global phase.
    """
    idx = list(subspace)
    if not idx:
        raise ValueError("comparison subspace must not be empty")
    tr = np.sum(np.conj(u[:, idx]) * v[:, idx])
    return float(abs(tr) ** 2 / len(idx) ** 2)
