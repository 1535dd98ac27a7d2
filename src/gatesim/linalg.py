"""States, operators and block-wise spectral propagation over qudit-cavity spaces.

States and operators live on a :class:`HilbertSpace`: an ordered tuple of
subsystem dimensions, qudits first and the cavity mode last.  Basis indices
are mixed-radix numbers with the cavity digit least significant, i.e.
``|l1 .. ln> ⊗ |nc>`` maps to ``((l1*d2 + l2)*d3 + ...) * d_cav + nc``.
Fixing this one convention removes an entire class of indexing bugs.

No operation changes a space, a state or a Hamiltonian's value.  No gate
is formed as a matrix and no propagator as a ``D x D`` array: a state walks
its windows.

A state is a :class:`Support`: flat arrays of column id, basis index and
amplitude over its nonzeros.  Every kernel takes and returns one, so it
costs what the support holds, not ``D`` per column.
Every read of an index's digits over some slots goes through
:meth:`HilbertSpace.digits`.  A local operator acts through the entries'
digits (:func:`apply_local`): one ``(R, d) @ (d, d)`` product over the
``R`` live copies of the local space.

Hermitian time evolution uses the spectral decomposition of the matrix,
which is exact up to floating point; no step-wise integrator is involved
because every Hamiltonian in this package is time independent in its
rotating frame.  The decomposition is taken block by block, and only over
the blocks a state reaches: every generator is a sum of terms, local
operators on a few subsystems, and the connected components of the terms'
nonzero patterns are uncoupled (every window Hamiltonian conserves
excitations).  A state's entries, keyed ``col * D + idx`` as in
:func:`apply_local`, are closed under the terms' off-diagonal entries, each
a move of an index's digits over the term's slots; the components of the
reached keys are its blocks, each one column's, filled straight from the
terms and decomposed by one stacked ``eigh`` per block size
(sector-restricted exact diagonalisation), so neither a ``D x D`` matrix
nor a ``D``-sized index array is formed; columns that share a component
decompose it once each.  A dense matrix is one term over every subsystem,
and without zero structure it is a single block.  A full-mode pi-pulse
window is no operator here but a product of local unitaries (see
:func:`gatesim.sequences.build_evolutions`), and its pi pulses are exact,
so it adds no entry of round-off to a state.  The three
other windows of a full-mode fanout CNOT, walked from one column per
target-permutation orbit (:func:`gatesim.verify.report`), reach 20, 30 and
30 of the 2048 states at n = 5, 32, 60 and 60 of the 131072 states at
n = 8, and 48, 114 and 114 at n = 12, in blocks of at most n states.  On a
2-CPU VM its report takes about 3 ms and 0.06 MiB of traced allocations at
n = 8, and 8 ms and 0.3 MiB at n = 12, without level-3 sampling.

Weighted observables are sums of diagonal local terms ``(values, slots)``,
read at the basis indices a state reaches through their mixed-radix digits
(:meth:`HilbertSpace.digits`), so no ``D``-sized weight vector exists.
Sampling a weighted population on an equally spaced time grid
(:func:`evolve_times`) forms no state at any sample time.  In each block
the population is a sum of oscillations at the differences of its
eigenvalues, equal in bitwise-identical blocks.  Their phases on the grid
``t = (q S + r) dt`` factor into ``S`` fast and about ``S`` slow steps
(``S² >= T`` for ``T`` sample times), so a call takes ``O(sqrt(T))``
complex exponentials per distinct frequency and one matrix product per
slice of columns.  This pays where blocks are small next to
``T``: the pair form costs about ``b³`` per block of size ``b`` against
``T b²`` for stepping the state through every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
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

    def digits(self, index, slots: Sequence[int]) -> np.ndarray:
        """Local basis index over ``slots`` of each basis index, the first slot most significant.

        ``index`` may be any integer array; an index plus a multiple of ``D``
        has the same digits, as each slot's radix divides ``D``.
        """
        index = np.asarray(index)
        digit = np.zeros(index.shape, dtype=int)  # no slots: the one local index 0
        for size, stride in _slot_layout(self.dims, tuple(int(s) for s in slots))[0]:
            digit = digit * size + index // stride % size
        return digit

    def computational_indices(self) -> np.ndarray:
        """Indices of qubit-{0,1} product states with the cavity in vacuum.

        Ordered as binary numbers with qubit 1 the most significant bit, so
        entry ``k`` is the state labelled by the bitstring of ``k``.
        """
        n = self.n_qubits
        k = np.arange(2**n)
        # qubit q's bit of k, times the stride of qubit q's digit
        terms = (((k >> (n - 1 - q)) & 1) * math.prod(self.dims[q + 1 :]) for q in range(n))
        return sum(terms, np.zeros_like(k))

    def computational_label(self, k: int) -> str:
        n = self.n_qubits
        return format(k, f"0{n}b")


class SpectralBlocks(NamedTuple):
    """``k`` uncoupled blocks of one size ``b`` and their eigendecompositions.

    Each block is one column's.  ``idx`` (k, b) holds each block's basis
    indices in ascending order, ``w`` (k, b) its eigenvalues and ``v``
    (k, b, b) its eigenvectors as columns.
    """

    idx: np.ndarray
    w: np.ndarray
    v: np.ndarray


Term = tuple[np.ndarray, tuple[int, ...]]


def _components(dim: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest node of each node's connected component, for ``dim`` nodes and edges ``src-dst``."""
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    labels = np.arange(dim)
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        new = new[new]  # pointer jumping: a label is a node of the same component
        if np.array_equal(new, labels):
            return labels
        labels = new


def _unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``keys``, as ``np.unique(keys)`` returns them.

    A sort and a neighbour mask: on integer keys ``np.unique`` without
    ``return_inverse`` takes a hash-table path, which is slower at every size.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _entries(space: HilbertSpace, term: tuple, index: np.ndarray) -> tuple:
    """A term's nonzero entries ``H[index[r], j] = value`` in the rows ``index``.

    Returns ``(r, j, value)``.  ``term`` holds ``local``, ``slots``, the slots'
    offsets and ``local != 0``: an index's digits over ``slots`` pick its local
    row, and each nonzero column of that row moves the index by the difference
    of the two offsets.
    """
    local, slots, offset, nonzero = term
    digit = space.digits(index, slots)
    r, b = np.nonzero(nonzero[digit])
    a = digit[r]
    return r, index[r] + (offset[b] - offset[a]), local[a, b]


def _partition(space: HilbertSpace, terms: tuple[Term, ...], index: np.ndarray) -> tuple:
    """The uncoupled blocks of the sum of the embedded terms that hold an index of ``index``.

    ``index`` is closed under the entries of the terms with an off-diagonal
    entry (:func:`_entries`), round by round until no index is added; the
    connected components of the reached indices are the blocks
    (:func:`_components`).  An index may carry a multiple of ``D``, as in a
    support's keys ``col * D + idx`` (:func:`_codes`): its digits are the
    same and a move keeps the multiple, so each block is then one column's.
    Blocks are grouped by ascending size, ordered by their smallest index
    within a group, and hold their indices in ascending order.  The term
    entries are added straight into the sub-matrices, term by term, so
    nothing of size ``D`` is formed.  Returns the row of each index of
    ``index`` (its place in the blocks' indices, group after group) and
    ``(idx (k, b), sub (k, b, b))`` per group.
    """
    terms = [(local, s, _slot_layout(space.dims, s)[1], local != 0) for local, s in terms]
    moving = [
        k for k, (*_, nonzero) in enumerate(terms)
        if np.count_nonzero(nonzero) > np.count_nonzero(nonzero.diagonal())
    ]
    grown = _unique(index)
    while True:
        reached = grown
        moves = {k: _entries(space, terms[k], reached) for k in moving}
        grown = _unique(np.concatenate([reached, *(j for _, j, _ in moves.values())]))
        if grown.size == reached.size:  # so the last moves are the moving terms' entries
            break
    entries = [moves[k] if k in moves else _entries(space, t, reached) for k, t in enumerate(terms)]
    entries = [(r, np.searchsorted(reached, j), value) for r, j, value in entries]
    edges = [np.zeros((2, 0), dtype=int)] + [np.stack(entries[k][:2]) for k in moving]
    component = _components(reached.size, *np.concatenate(edges, axis=1))
    order = np.argsort(component, kind="stable")
    roots = np.flatnonzero(component == np.arange(reached.size))  # its component's smallest index
    sizes = np.bincount(component)[roots]
    starts = np.cumsum(sizes) - sizes
    # Entry (i, j) of a block lives at flat[base[i] + pos[j]] of one buffer for all blocks.
    row, pos, base = np.empty((3, reached.size), dtype=int)
    groups, top, offset = [], 0, 0
    for size in _unique(sizes):
        at = order[starts[sizes == size][:, None] + np.arange(size)]
        place = np.arange(at.size).reshape(at.shape)
        row[at], pos[at], base[at] = top + place, place % size, offset + size * place
        groups.append((reached[at], offset))
        top, offset = top + at.size, offset + at.size * size
    flat = np.zeros(offset, dtype=complex)
    for r, j, value in entries:
        flat[base[r] + pos[j]] += value
    subs = [flat[start : start + idx.size * idx.shape[1]] for idx, start in groups]
    blocks = [(idx, sub.reshape(idx.shape + idx.shape[1:])) for (idx, _), sub in zip(groups, subs)]
    return row[np.searchsorted(reached, index)], blocks


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator over a space, in angular-frequency units (rad/s).

    The operator is the sum of its terms ``(local, slots)``, each embedded as
    ``local`` on ``slots`` and identity elsewhere; a dense matrix is the one
    term over every subsystem.  Construction checks each term for
    Hermiticity and keeps the terms; the blocks are found, filled and
    decomposed from the support each state holds (:meth:`_rows`), so no term
    is embedded into a ``D x D`` matrix.
    """

    space: HilbertSpace
    terms: tuple[Term, ...]
    _last: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = []
        for local, slots in self.terms:
            local = _check_local(local, self.space, slots)[0]
            defect = np.max(np.abs(local - local.conj().T))
            if not defect <= HERMITIAN_TOL:  # a NaN entry fails too
                raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
            terms.append((_freeze(local), tuple(int(s) for s in slots)))
        object.__setattr__(self, "terms", tuple(terms))

    def _rows(self, state: "Support") -> list:
        """The blocks ``state`` reaches, by size group, and its coefficients on them.

        The blocks come from ``state``'s keys ``col * D + idx`` (:func:`_codes`,
        :func:`_partition`), so each block is one column's component; each
        size group is decomposed by one stacked ``eigh``.  Lists the
        :class:`SpectralBlocks`, ``c (k, b, 1)`` and ``col (k,)`` per group:
        ``c[l]`` is ``v† x`` for column ``col[l]`` on block ``l``.  The rows
        of the last support are kept, as a report samples each window and
        then propagates the same support through it.
        """
        last = self._last
        if last[0] is state:
            return last[1]
        row, groups = _partition(self.space, self.terms, _codes(state))
        x = np.zeros(sum(key.size for key, _ in groups), dtype=complex)
        x[row] = state.amp
        rows, top = [], 0
        for key, mat in groups:
            w, v = np.linalg.eigh(mat)
            sub = x[top : top + key.size].reshape(key.shape + (1,))
            c = (np.swapaxes(v, -1, -2) @ sub.conj()).conj()  # v† x, without conjugating v
            col, idx = np.divmod(key, self.space.total_dim)
            rows.append((SpectralBlocks(idx, w, v), c, col[:, 0]))
            top += key.size
        object.__setattr__(self, "_last", (state, rows))
        return rows

    def propagate(self, state: "Support", t: float) -> "Support":
        """``exp(-i H t)`` on a :class:`Support`.

        Each reached block, one column's (:meth:`_rows`), goes through
        ``v @ (exp(-i w t) * (v† @ x))``.  Blocks that ``state`` does
        not reach stay exactly zero and are never built.
        """
        if not math.isfinite(t):
            raise ValueError("evolution time must be finite")
        state = _on_space(self.space, state)
        parts = [(state.col[:0], state.idx[:0], state.amp[:0])]
        for (idx, w, v), c, col in self._rows(state):
            y = (v @ (np.exp(-1j * w * t)[:, :, None] * c))[..., 0]
            live, j = np.nonzero(y)
            parts.append((col[live], idx[live, j], y[live, j]))
        return Support(self.space, *map(np.concatenate, zip(*parts)))


def _check_local(local: np.ndarray, space: HilbertSpace, slots: Sequence[int]) -> tuple:
    """``local`` as a complex square matrix, and the full-index offsets of ``slots``."""
    local = np.asarray(local, dtype=complex)
    if local.ndim != 2 or local.shape[0] != local.shape[1]:
        raise ValueError("local operator must be a square matrix")
    offset = _slot_layout(space.dims, tuple(int(s) for s in slots))[1]
    if len(local) != offset.size:
        raise ValueError(f"local operator has dimension {len(local)}, its slots need {offset.size}")
    return local, offset


@cache
def _slot_layout(dims: tuple[int, ...], slots: tuple[int, ...]) -> tuple[tuple, np.ndarray]:
    """``(dim, stride)`` of each slot, and the full-index offset of each local basis index."""
    if len(set(slots)) != len(slots) or not all(0 <= s < len(dims) for s in slots):
        raise ValueError(f"slots {slots} must be distinct subsystem indices below {len(dims)}")
    radix = tuple((dims[s], math.prod(dims[s + 1 :])) for s in slots)
    axes = np.ix_(*(stride * np.arange(size) for size, stride in radix))
    offset = sum(axes, np.zeros(1, dtype=int)).ravel()  # no slots: the one offset 0
    offset.setflags(write=False)
    return radix, offset


class Support(NamedTuple):
    """Columns over ``space`` by their nonzeros.

    Column ``col[k]`` holds amplitude ``amp[k]`` at basis index ``idx[k]``.
    Like every state here, a support is never changed in place.
    """

    space: HilbertSpace
    col: np.ndarray
    idx: np.ndarray
    amp: np.ndarray


def _on_space(space: HilbertSpace, state: Support) -> Support:
    """``state`` if it is a :class:`Support` of ``space``; anything else raises ``ValueError``."""
    if not isinstance(state, Support):
        raise ValueError(f"expected a Support, got {type(state).__name__}")
    if state.space.dims != space.dims:
        raise ValueError(f"operands live on different spaces: {state.space.dims} vs {space.dims}")
    return state


def _codes(state: Support) -> np.ndarray:
    """Each entry's key ``col * D + idx``, whose digits are its index's (each radix divides ``D``)."""
    dim = state.space.total_dim
    columns = int(state.col.max(initial=-1)) + 1
    if columns * dim > 2**63:
        raise ValueError(
            f"{columns} columns over D = {dim} overflow the int64 packing col * D + idx, "
            "which needs columns * D <= 2^63"
        )
    return state.col * dim + state.idx


def apply_local(
    local: np.ndarray, space: HilbertSpace, slots: Sequence[int], state: Support
) -> Support:
    """Apply a local operator on ``slots`` to a :class:`Support`.

    Entries are grouped by column and by their index with the slot digits
    zeroed (mixed-radix digits), each group a row of one product with
    ``local.T``; exact zeros are dropped.  A lone row is padded with a zero row,
    as BLAS rounds a one-row product differently from a row in a larger one.
    """
    local, offset = _check_local(local, space, slots)
    code = _codes(_on_space(space, state))
    digit = space.digits(code, slots)
    groups, row = np.unique(code - offset[digit], return_inverse=True)
    gathered = np.zeros((max(groups.size, 2), offset.size), dtype=complex)
    gathered[row, digit] = state.amp
    values = (gathered @ local.T)[: groups.size].ravel()
    keep = np.flatnonzero(values)
    code = (groups[:, None] + offset).ravel()[keep]
    return Support(space, *np.divmod(code, space.total_dim), values[keep])


@cache
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices ``j <= l`` of a ``size x size`` upper triangle; weight 1 at ``j = l``, else 2."""
    j, l = np.triu_indices(size)
    pairs = j, l, np.where(j == l, 1.0, 2.0)
    for array in pairs:
        array.setflags(write=False)  # shared by every caller
    return pairs


def _grid_step(times: np.ndarray) -> float:
    """The step ``dt`` of a grid ``times[i] = i dt``; ``ValueError`` for any other grid."""
    if times.ndim != 1 or times.size == 0 or times[0] != 0.0:
        raise ValueError("sample times must be a grid starting at 0")
    dt = times[-1] / max(times.size - 1, 1)
    if not np.abs(times - np.arange(times.size) * dt).max() <= 1e-9 * abs(dt):  # NaN fails
        raise ValueError("sample times must be equally spaced")
    return float(dt)


def diagonal_at(space: HilbertSpace, terms: tuple[Term, ...], index) -> np.ndarray:
    """The sum of diagonal local terms ``(values, slots)`` at each basis index of ``index``.

    A term is ``diag(values)`` on ``slots`` and identity elsewhere, so it is
    read at an index's local digits over ``slots``; ``values`` must have one
    entry per local basis state.
    """
    out = np.zeros(np.shape(index))
    for values, slots in terms:
        values = np.asarray(values, dtype=float)
        size = _slot_layout(space.dims, tuple(int(s) for s in slots))[1].size
        if values.shape != (size,):
            raise ValueError(f"weights have shape {values.shape}, expected ({size},)")
        out += values[space.digits(index, slots)]
    return out


def evolve_times(
    state: Support, h: HermitianOperator, times: np.ndarray, weights: tuple[Term, ...]
) -> np.ndarray:
    """``sum_i w_i |<i| exp(-i H t) |state>|²`` for each ``t`` and each column of ``state``.

    ``state`` is a :class:`Support` of ``h``'s space and the result has shape
    ``(len(times), col.max() + 1)``; the weights ``w`` are the diagonal local
    terms ``weights`` (see :func:`diagonal_at`), and ``times`` must be an
    equally spaced grid ``t_i = i dt`` starting at 0.  Each reached block,
    one column's (:meth:`HermitianOperator._rows`), with a nonzero weight is
    one row.  With ``c = v† x`` per row and ``M = v† diag(w) v`` per block, a
    row's population is ``Re sum_{j<=l} s_jl conj(c_j) M_jl c_l exp(i (λ_j - λ_l) t)``,
    ``s`` being 1 on the diagonal and 2 above it.  A column's pairs of equal
    frequency add up in one entry of a (column, frequency) table over the
    call's ``F`` distinct frequencies.  With ``i = q S + r`` for ``T`` times,
    ``S = isqrt(T - 1) + 1`` and ``Q = ceil(T / S)``, the call takes
    ``(Q + S) F`` exponentials, and each slice of ``max(1, m T // (Q F))``
    columns one ``(columns Q, F') @ (F', S)`` product over the ``F' <= F``
    frequencies it has, so no larger than the ``(T, m)`` result.
    """
    state = _on_space(h.space, state)
    times = np.asarray(times, dtype=float)
    dt = _grid_step(times)
    m = int(state.col.max(initial=-1)) + 1
    coeffs, freqs, cols = [state.amp[:0]], [np.zeros(0)], [state.col[:0]]
    for (idx, w, v), c, col in h._rows(state):
        wx = diagonal_at(h.space, weights, idx)
        mat = (v.conj().mT * wx[:, None, :]) @ v  # v† diag(w) v
        live = wx.any(axis=1).nonzero()[0]  # the weighted rows
        j, l, scale = _pairs(w.shape[1])
        pair = c.conj()[:, j] * (scale * mat[:, j, l])[..., None] * c[:, l]  # s_jl A_jl
        coeffs.append(pair[live, :, 0])
        freqs.append((w[:, j] - w[:, l])[live])
        cols.append(col[live].repeat(j.size))
    freqs = np.concatenate(freqs, axis=None)
    distinct = _unique(freqs)
    f, s = distinct.size, math.isqrt(times.size - 1) + 1
    q = -(-times.size // s)
    width = max(1, m * times.size // max(q * f, 1))  # columns per slice
    key = np.concatenate(cols) * f + distinct.searchsorted(freqs)  # each pair's (column, frequency)
    order = np.argsort(key, kind="stable")
    key, coeffs = key[order], np.concatenate(coeffs, axis=None)[order]
    bounds = key.searchsorted(np.arange(0, m + width, width) * f)
    del cols, freqs, order  # each pair keeps only its entry and coefficient
    steps = np.concatenate([np.arange(q) * s, np.arange(s)]) * (1j * dt)  # Q slow, S fast
    phases = np.exp(np.multiply.outer(steps, distinct))  # (Q + S, F)
    out = np.empty((times.size, m))
    for lo, a, b in zip(range(0, m, width), bounds, bounds[1:]):
        table = np.zeros((min(width, m - lo), f), dtype=complex)
        np.add.at(table.reshape(-1), key[a:b] - lo * f, coeffs[a:b])  # pairs summed per entry
        own = table.any(axis=0).nonzero()[0]  # the slice's frequencies
        part = (table[:, None, own] * phases[:q, own]).reshape(len(table) * q, own.size)
        grid = (part @ phases[q:, own].T).real.reshape(len(table), q * s)  # (columns, Q S)
        out[:, lo : lo + width] = grid[:, : times.size].T
    return out


def process_fidelity(u: np.ndarray, v: np.ndarray, subspace: Sequence[int]) -> float:
    """``|Tr(P u† v P)|² / d²`` on the subspace spanned by the given basis indices.

    Equals 1 iff the two unitaries agree on the subspace up to a global phase.
    Its one use is comparing two local unitaries of a pulse
    (:func:`gatesim.verify.swap_fidelity_vs_full`); a gate report scores its
    support against :func:`gatesim.verify.ideal_columns` instead.
    """
    idx = list(subspace)
    if not idx:
        raise ValueError("comparison subspace must not be empty")
    tr = np.sum(np.conj(u[:, idx]) * v[:, idx])
    return float(abs(tr) ** 2 / len(idx) ** 2)
