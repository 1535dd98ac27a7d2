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
``R`` live copies of the local space.  Hamiltonian terms are placed through
:func:`local_index_map`, whose rows each hold the basis indices of one copy
of the local space.

Hermitian time evolution uses the spectral decomposition of the matrix,
which is exact up to floating point; no step-wise integrator is involved
because every Hamiltonian in this package is time independent in its
rotating frame.  The decomposition is taken block by block: every generator
is a sum of terms, local operators on a few subsystems; the connected
components of the terms' nonzero patterns are uncoupled (every window
Hamiltonian conserves excitations), and each block's entries are added
straight from the terms, so no ``D x D`` matrix is formed.  Blocks of one
size share one stacked ``eigh`` call.  The partition labels every basis
index with its block, so propagation and sampling find the blocks a support
reaches from its entries alone and take one row per reached (column, block)
pair.  A dense matrix is one term over every subsystem, and without zero
structure it is a single block.  A full-mode pi-pulse window is no operator
here but a product of local unitaries (see
:func:`gatesim.sequences.build_evolutions`).  The other windows of a
full-mode fanout CNOT hold 1080-1280 blocks each at n = 5 (D = 2048), none
larger than 10, and none larger than 35 at n = 7 (D = 32768).  On a 2-CPU
VM its report takes about 0.015 s at n = 5 and 0.2 s and 45 MiB at n = 7,
without level-3 sampling.

Weighted observables are sums of diagonal local terms ``(values, slots)``,
read at the basis indices a state reaches through their mixed-radix digits
(:meth:`HilbertSpace.digits`), so no ``D``-sized weight vector exists.
Sampling a weighted population on an equally spaced time grid
(:func:`evolve_times`) forms no state at any sample time.  In each block
the population is a sum of oscillations at the differences of its
eigenvalues.  Their phases on the grid ``t = (q S + r) dt`` factor into
``S`` fast and about ``S`` slow columns (``S² >= T`` for ``T`` sample
times), so a column's grid costs one matrix product and ``O(sqrt(T))``
complex exponentials per pair.  This pays where blocks are small next to
``T``: the pair form costs about ``b³`` per block of size ``b`` against
``T b²`` for stepping the state through every sample.
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

    def digits(self, index, slots: Sequence[int]) -> np.ndarray:
        """Local basis index over ``slots`` of each basis index, the first slot most significant.

        ``index`` may be any integer array; an index plus a multiple of ``D``
        has the same digits, as each slot's radix divides ``D``.
        """
        index, digit = np.asarray(index), 0
        for size, stride in _slot_layout(self.dims, tuple(int(s) for s in slots))[0]:
            digit = digit * size + index // stride % size
        return digit

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


def _partition(space: HilbertSpace, terms: tuple[Term, ...]) -> tuple:
    """Uncoupled blocks of the sum of the embedded terms, grouped by size.

    Returns ``(idx (k, b), sub-matrices (k, b, b))`` pairs, and the labels
    :meth:`HermitianOperator._rows` reads: each basis index's block (numbered
    group by group), position in it and block size as a ``(3, D)`` array, with
    each group's first block number.  The blocks are the connected components
    of the terms' nonzero off-diagonal entries, each local pattern placed
    through :func:`local_index_map`; the term entries are then added straight
    into the sub-matrices, so no ``D x D`` array is formed.
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
    component = _components(dim, np.concatenate(src), np.concatenate(dst))
    order = np.argsort(component, kind="stable")
    roots = np.flatnonzero(component == np.arange(dim))  # a label is its component's smallest index
    sizes = np.bincount(component)[roots]
    starts = np.cumsum(sizes) - sizes
    # Entry (i, j) of a block lives at flat[base[i] + pos[j]] of one buffer for all blocks.
    labels = block, pos, width = np.empty((3, dim), dtype=np.int32)  # kept with the operator
    base = np.empty(dim, dtype=int)
    groups, first, offset = [], [0], 0
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        block[idx] = first[-1] + np.arange(len(idx))[:, None]
        pos[idx], width[idx] = np.arange(size), size
        base[idx] = offset + size * np.arange(idx.size).reshape(idx.shape)
        groups.append((idx, offset))
        first.append(first[-1] + len(idx))
        offset += idx.size * size
    flat = np.zeros(offset, dtype=complex)
    for rows, a, b, values in placed:
        flat[base[rows[:, a]] + pos[rows[:, b]]] += values
    out = []
    for idx, start in groups:
        k, b = idx.shape
        out.append((idx, flat[start : start + k * b * b].reshape(k, b, b)))
    return tuple(out), (labels, np.array(first))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian operator over a space, in angular-frequency units (rad/s).

    The operator is the sum of its terms ``(local, slots)``, each embedded as
    ``local`` on ``slots`` and identity elsewhere; a dense matrix is the one
    term over every subsystem.  It is split into uncoupled blocks
    on construction, from the terms' nonzero patterns alone, so the
    Hermiticity check and the spectral decomposition run on the blocks and
    no term is embedded into a ``D x D`` matrix.
    """

    space: HilbertSpace
    terms: tuple[Term, ...]
    _parts: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False, compare=False)
    _labels: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _last: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = []
        for local, slots in self.terms:
            local = _check_local(local, self.space, slots)[0]
            terms.append((_freeze(local), tuple(int(s) for s in slots)))
        terms = tuple(terms)
        parts, labels = _partition(self.space, terms)
        defect = np.max([np.max(np.abs(sub - np.swapaxes(sub.conj(), -1, -2))) for _, sub in parts])
        if not defect <= HERMITIAN_TOL:  # a NaN entry fails too
            raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_labels", labels)

    @cached_property
    def blocks(self) -> tuple[SpectralBlocks, ...]:
        """Eigendecomposition of every block, one stacked ``eigh`` per block size.

        The sub-matrices are released once decomposed; only the spectra stay.
        """
        blocks = tuple(SpectralBlocks(idx, *np.linalg.eigh(sub)) for idx, sub in self._parts)
        object.__setattr__(self, "_parts", ())
        return blocks

    def _rows(self, state: "Support") -> list:
        """The blocks ``state`` reaches, by size group, and its coefficients on them.

        Each reached (column, block) pair is one row.  Lists the live blocks'
        :class:`SpectralBlocks`, ``c (L, b, m)`` and ``col (L, m)`` per group:
        ``c[l, :, s]`` is ``v† x`` for column ``col[l, s]`` on live block ``l``,
        ``m`` being the most columns any block holds; other slots are zero, with
        ``col = -1``.  The rows of the last support are kept, as a report samples
        each window and then propagates the same support through it.
        """
        last = self._last
        if last[0] is state:
            return last[1]
        labels, first = self._labels
        order = np.lexsort((state.col, labels[0, state.idx]))  # by block, then by column
        block, pos, size = labels[:, state.idx[order]]
        col, amp = state.col[order], state.amp[order]
        opens = np.ones((2, order.size), dtype=bool)  # entries that open a live block, a row
        opens[0, 1:] = block[1:] != block[:-1]
        opens[1, 1:] = opens[0, 1:] | (col[1:] != col[:-1])
        at, row = np.cumsum(opens, axis=1) - 1  # each entry's live block and row
        slot = row - row[opens[0]][at]
        live, size = block[opens[0]], size[opens[0]]
        start = np.cumsum(size) - size  # each live block's first row in x
        x = np.zeros((size.sum(), slot.max(initial=0) + 1), dtype=complex)
        x[start[at] + pos, slot] = amp
        cols = np.full((live.size, x.shape[1]), -1)
        cols[at, slot] = col
        bounds, rows = np.searchsorted(live, first), []
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo < hi:
                k = live[lo:hi] - first[g]
                idx, w, v = self.blocks[g]
                idx, w, v = idx[k], w[k], v[k]
                sub = x[start[lo] : start[lo] + idx.size].reshape(idx.shape + x.shape[1:])
                c = (np.swapaxes(v, -1, -2) @ sub.conj()).conj()  # v† x, without conjugating v
                rows.append((SpectralBlocks(idx, w, v), c, cols[lo:hi]))
        object.__setattr__(self, "_last", (state, rows))
        return rows

    def propagate(self, state: "Support", t: float) -> "Support":
        """``exp(-i H t)`` on a :class:`Support`.

        Each live block takes the rows that reach it (:meth:`_rows`) through
        ``v @ (exp(-i w t) * (v† @ x))``.  Blocks that ``state`` does not
        reach stay exactly zero and are skipped.
        """
        if not math.isfinite(t):
            raise ValueError("evolution time must be finite")
        state = _on_space(self.space, state)
        parts = [(state.col[:0], state.idx[:0], state.amp[:0])]
        for (idx, w, v), c, col in self._rows(state):
            y = v @ (np.exp(-1j * w * t)[:, :, None] * c)
            live, j, s = np.nonzero(y)  # padded columns stay exactly zero
            parts.append((col[live, s], idx[live, j], y[live, j, s]))
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


def local_index_map(space: HilbertSpace, slots: Sequence[int]) -> np.ndarray:
    """Full-space basis indices as a ``(D // d, d)`` array, ``d`` the dim of ``slots``.

    Column ``a`` is the local basis index over ``slots`` in the given order;
    each row fixes the levels of every other subsystem, in index order.  An
    operator local to ``slots`` therefore acts on each row's indices alone.
    The map is the sum of the two slot layouts, built afresh on each call.
    Duplicate or out-of-range slots raise ``ValueError``.
    """
    slots = tuple(int(s) for s in slots)
    rest = tuple(s for s in range(space.n_subsystems) if s not in slots)
    return _slot_layout(space.dims, rest)[1][:, None] + _slot_layout(space.dims, slots)[1]


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
    dim = space.total_dim
    state = _on_space(space, state)
    code = state.col * dim + state.idx
    digit = space.digits(code, slots)
    groups, row = np.unique(code - offset[digit], return_inverse=True)
    gathered = np.zeros((max(groups.size, 2), offset.size), dtype=complex)
    gathered[row, digit] = state.amp
    values = (gathered @ local.T)[: groups.size].ravel()
    keep = np.flatnonzero(values)
    code = (groups[:, None] + offset).ravel()[keep]
    return Support(space, *np.divmod(code, dim), values[keep])


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
    if not np.all(np.abs(times - np.arange(times.size) * dt) <= 1e-9 * abs(dt)):
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
    equally spaced grid ``t_i = i dt`` starting at 0.  Each reached (column,
    block) pair whose block has a nonzero weight is one row.
    With ``c = v† x`` per row and ``M = v† diag(w) v`` per block, a
    row's population is ``Re sum_{j<=l} s_jl conj(c_j) M_jl c_l exp(i (λ_j - λ_l) t)``,
    ``s`` being 1 on the diagonal and 2 above it.  Writing ``i = q S + r`` with
    ``S = isqrt(T - 1) + 1`` for ``T`` times splits each phase in two, so a
    column's ``P_k`` pairs need ``Q + S`` phases each, ``Q = ceil(T / S)``, and
    its whole grid is one ``(Q, P_k) @ (P_k, S)`` product.  Only one column's
    phases exist at a time; the next column reuses them if its frequencies agree.
    """
    state = _on_space(h.space, state)
    times = np.asarray(times, dtype=float)
    dt = _grid_step(times)
    m = int(state.col.max(initial=-1)) + 1
    rows = h._rows(state)
    reached = [state.idx[:0]] + [group.idx.ravel() for group, _, _ in rows]
    weight = diagonal_at(h.space, weights, np.concatenate(reached))  # one pass for every block
    at = np.cumsum([part.size for part in reached])
    coeffs, freqs, cols = [], [], []
    for ((idx, w, v), c, col), lo, hi in zip(rows, at, at[1:]):
        wx = weight[lo:hi].reshape(idx.shape)
        mat = (np.swapaxes(v.conj(), -1, -2) * wx[:, None, :]) @ v  # v† diag(w) v
        live, slot = np.nonzero((col >= 0) & wx.any(axis=1)[:, None])  # the weighted rows
        j, l, scale = _pairs(w.shape[1])
        pair = c.conj()[:, j] * (scale * mat[:, j, l])[..., None] * c[:, l]  # s_jl A_jl
        coeffs.append(pair[live, :, slot])
        freqs.append((w[:, j] - w[:, l])[live])
        cols.append(np.repeat(col[live, slot], j.size))
    if not cols:
        return np.zeros((times.size, m))
    s = math.isqrt(times.size - 1) + 1
    q = -(-times.size // s)
    # i t at q slow steps of S dt, then at S fast steps of dt
    steps = np.concatenate([np.arange(q) * s, np.arange(s)]) * (1j * dt)
    col = np.concatenate(cols)
    order = np.argsort(col, kind="stable")  # the pairs column by column
    coeffs, freqs = (np.concatenate(a, axis=None)[order] for a in (coeffs, freqs))
    bounds = np.searchsorted(col[order], np.arange(m + 1))
    out, own = np.empty((times.size, m)), None
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if own is None or own.size != hi - lo or np.any(freqs[lo:hi] != own):  # new frequencies
            own, phases = freqs[lo:hi], None
            phases = np.multiply.outer(steps, own)  # (Q + S, P_k), one column's only
            np.exp(phases, out=phases)
        grid = (coeffs[lo:hi] * phases[:q]) @ phases[q:].T
        out[:, k] = grid.real.ravel()[: times.size]
    return out


def process_fidelity(u: np.ndarray, v: np.ndarray, subspace: Sequence[int]) -> float:
    """``|Tr(P u† v P)|² / d²`` on the subspace spanned by the given basis indices.

    Equals 1 iff the two unitaries agree on the subspace up to a global phase.
    """
    idx = list(subspace)
    if not idx:
        raise ValueError("comparison subspace must not be empty")
    tr = np.sum(np.conj(u[:, idx]) * v[:, idx])
    return float(abs(tr) ** 2 / len(idx) ** 2)
