"""Labeled-basis sparse linear algebra.

Every operator in this package lives on a :class:`Basis`: an ordered list of
integer labels together with a positive diagonal Gram (the squared norm of
each label).  Bases are deliberately kept in unnormalized monomial form, so
ladder coefficients stay integers; orthonormalization happens only in the
Gram-orthonormal blocks the eigensolves work on.  An operator applied to a family of vectors is a
product with a sparse operator whose columns are those vectors.

Conventions
-----------
* labels are the rows of one ``(dim, width)`` integer array (as tuples on
  demand), in any order; a product basis labels a state by its row of
  factor state indices, and every lookup is :meth:`Basis.index_of`,
* ``<v, w> = sum_i gram_i * conj(v_i) * w_i``,
* operators are coordinate triplets ``(rows, cols, vals)`` with a parity grade,
* vectors are coordinate arrays; eigenvectors stay in the block form of
  :func:`eigh_gram`, coefficients on the states of one sparsity component,
* the adjoint is the Gram-weighted conjugate transpose,
  ``adjoint(A)[i, j] = conj(A[j, i]) * gram_cod[j] / gram_dom[i]``.

All values are immutable after construction (their arrays are read-only)
and every operation is a pure function, so values can be shared, memoized
and used concurrently.

Every random input of the lab comes from :class:`Lcg`, a documented 64-bit
linear congruential generator, so any implementation can reproduce the
streams exactly.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

__all__ = [
    "Basis",
    "SparseOperator",
    "ShapeMismatchError",
    "NotSelfAdjointError",
    "graded_commutator",
    "adjoint",
    "spectrum",
    "block_spectrum",
    "eigh_gram",
    "spectral_function",
    "gram_transpose",
    "shift_op",
    "energy_product",
    "Lcg",
]

# elements in one block of every chunked kernel, which bounds its
# temporaries whatever the problem size: the uniforms of one slice of
# Lcg.complex_matrix, the expanded pairs of one column range of
# SparseOperator.__matmul__, the (g, h, k) cubes of twistgroup.check_cocycle,
# the fiber sums of untagged twistgroup.convolve and the gathered summands
# of assembly.level_vanishing_pattern; a 64th of it, the Python floats of
# one chunk of limitspace.xi_coeffs
BLOCK_ELEMENTS = 2 ** 14


class ShapeMismatchError(ValueError):
    """Operator shapes are not composable."""


class NotSelfAdjointError(ValueError):
    """An eigensolve was requested for a non-self-adjoint operator."""


class Basis:
    """Labeled basis with a positive diagonal Gram.

    The labels may come in any order; :meth:`index_of`, the one lookup,
    finds them by mixed-radix int64 keys, so labels whose column ranges are
    too wide for int64 keys (``prod(hi - lo + 1) >= 2**63``) are refused.

    Parameters
    ----------
    labels:
        the distinct labels as one ``(dim, width)`` integer array (or a
        sequence of equal-width int tuples); an int64 array is taken over,
        not copied, and made read-only.
    gram:
        positive weight per label, ``gram[i] = <label_i, label_i>``.
    energy:
        optional nonnegative weight per label used for truncation-safety
        bookkeeping (weighted energy of Fock labels).
    parity:
        optional 0/1 array, the Z_2 grade of each label; all-even if omitted.
    factors:
        for a product basis whose labels are state indices into other bases,
        those bases; two bases are equal only if their factors are.
    """

    def __init__(self, labels, gram, energy=None, parity=None, factors=()):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 2:
            if labels.size:
                raise ValueError("basis labels must be a (dim, width) integer array")
            labels = labels.reshape(0, 0)
        self.label_array = labels
        self.gram = np.asarray(gram, dtype=float)
        lo, hi = labels.min(axis=0, initial=0), labels.max(axis=0, initial=0)
        if math.prod(h - l + 1 for h, l in zip(hi.tolist(), lo.tolist())) >= 2 ** 63:
            raise ValueError("basis label ranges are too wide for int64 keys")
        span = hi - lo + 1
        self._ranges = (lo[:, None], np.cumprod(span[::-1])[::-1] // span,
                        span.astype(np.uint64)[:, None])
        keys = self._keys(labels)
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("basis labels must be distinct")
        self._search = (order, keys)
        if self.gram.shape != (self.dim,):
            raise ValueError("gram shape does not match label count")
        if np.any(self.gram <= 0):
            raise ValueError("gram entries must be positive")
        self.energy = (
            np.zeros(self.dim) if energy is None else np.asarray(energy, dtype=float)
        )
        self.parity = (
            np.zeros(self.dim, dtype=int) if parity is None else np.asarray(parity, dtype=int)
        )
        self.factors = tuple(factors)
        for arr in (self.label_array, self.gram, self.energy, self.parity, order, keys):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.label_array)

    @cached_property
    def labels(self) -> tuple:
        """The labels as int tuples."""
        return tuple(map(tuple, self.label_array.tolist()))

    @cached_property
    def _hash(self) -> int:
        return hash((self.label_array.tobytes(), self.factors))

    def index_of(self, label_rows) -> np.ndarray:
        """Indices of the labels given as the rows of a ``(..., width)``
        integer array; -1 for a label not in the basis, so for every row
        when ``width`` is not the basis's."""
        rows = np.asarray(label_rows, dtype=np.int64)
        width = self.label_array.shape[1]
        if rows.shape[-1:] != (width,) or not self.dim:
            return np.full(rows.shape[:-1], -1, dtype=np.int64)
        order, keys = self._search
        wanted = self._keys(rows.reshape(math.prod(rows.shape[:-1]), width))
        at = np.minimum(np.searchsorted(keys, wanted), self.dim - 1)
        return np.where(keys[at] == wanted, order[at], -1).reshape(rows.shape[:-1])

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One sortable key per row of a ``(n, width)`` int64 array, equal
        for a row and a label exactly when they are: the row's mixed-radix
        number over the labels' column ranges (-1, which no label has,
        outside them)."""
        lo, strides, span = self._ranges
        digits = np.subtract(rows.T, lo, order="C")  # one row per column
        return np.where((digits.view(np.uint64) < span).all(axis=0), strides @ digits, -1)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Basis)
            and self.dim == other.dim
            and self.factors == other.factors
            and (not self.dim or np.array_equal(self.label_array, other.label_array))
            and np.array_equal(self.gram, other.gram)
        )

    def __hash__(self):
        return self._hash


def expand_runs(counts):
    """``(run, offset)`` with one element per member of consecutive runs of
    the given lengths: the index of the member's run and its position in
    that run."""
    counts = np.asarray(counts, dtype=np.int64)
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def _column_ranges(cols, pairs):
    """``(start, stop)`` entry ranges of an operator's whole columns
    (``cols`` in canonical, column-sorted order) that meet at most
    :data:`BLOCK_ELEMENTS` pairs each, or one column that meets more;
    ``pairs`` counts the pairs of each entry.  One range when all pairs
    fit in one block."""
    if pairs.sum() <= BLOCK_ELEMENTS:
        return [(0, len(cols))]
    edges = np.flatnonzero(np.diff(cols, prepend=-1, append=-1))  # column starts, end
    before = np.concatenate([[0], np.cumsum(pairs)])[edges]  # pairs before each edge
    cuts = [0]
    while cuts[-1] < len(edges) - 1:
        last = int(np.searchsorted(before, before[cuts[-1]] + BLOCK_ELEMENTS, "right")) - 1
        cuts.append(max(last, cuts[-1] + 1))
    bounds = edges[cuts].tolist()
    return list(zip(bounds[:-1], bounds[1:]))


_GRADE = {"even": 0, "odd": 1}


class SparseOperator:
    """Coordinate-triplet operator between labeled bases.

    Entry ``k`` is ``vals[k]`` at ``(rows[k], cols[k])``.  The constructor
    refuses an index outside the bases with :class:`IndexError` naming the
    first such entry; the check is one unsigned maximum per index array,
    and the mask that finds the entry is built only on refusal.  It sums
    repeated coordinates, drops exact zeros (``0``, ``-0.0``, but not
    ``nan`` or subnormals) and sorts the entries by column, then row, so
    each coordinate occurs once and each column is one contiguous run;
    triplets already in that canonical order, without zeros, are taken as
    they are.  The stored triplets are read-only; they may share memory
    with read-only arrays passed in, never with writeable ones.  ``grade``
    is ``"even"`` or ``"odd"``.  Images that leave a truncated codomain are
    simply not there: operators are compressions.
    """

    def __init__(self, domain: Basis, codomain: Basis, rows, cols, vals,
                 grade: str = "even"):
        if grade not in _GRADE:
            raise ValueError("grade must be 'even' or 'odd'")
        self.domain = domain
        self.codomain = codomain
        self.grade = grade
        given = rows, cols, vals
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=complex)
        if not (vals.ndim == 1 and rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must be equal-length sequences")
        # viewed unsigned, a negative index is huge: one max per side
        if len(vals) and (rows.view(np.uint64).max() >= codomain.dim
                          or cols.view(np.uint64).max() >= domain.dim):
            bad = (rows < 0) | (rows >= codomain.dim) | (cols < 0) | (cols >= domain.dim)
            k = np.argmax(bad)
            raise IndexError(f"entry ({rows[k]},{cols[k]}) outside basis bounds")
        # one integer per coordinate, in (column, row) order
        key = cols * codomain.dim + rows
        if not (key[1:] > key[:-1]).all():  # not canonical: sort, sum repeats
            order = np.argsort(key, kind="stable")
            key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
            first = np.ones(len(vals), dtype=bool)
            first[1:] = key[1:] != key[:-1]
            if not first.all():
                summed = np.zeros(np.count_nonzero(first), dtype=complex)
                np.add.at(summed, np.cumsum(first) - 1, vals)  # in entry order
                rows, cols, vals = rows[first], cols[first], summed
        if vals.all():
            # arrays made here or already read-only are kept; a caller's
            # writeable array is copied, never frozen
            self.rows, self.cols, self.vals = (
                a.copy() if a is g and a.flags.writeable else a
                for a, g in zip((rows, cols, vals), given))
        else:
            keep = vals != 0
            self.rows, self.cols, self.vals = rows[keep], cols[keep], vals[keep]
        for arr in (self.rows, self.cols, self.vals):
            arr.flags.writeable = False

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(basis: Basis) -> "SparseOperator":
        diag = np.arange(basis.dim)
        return SparseOperator(basis, basis, diag, diag, np.ones(basis.dim), "even")

    @staticmethod
    def zero(domain: Basis, codomain: Basis = None, grade: str = "even") -> "SparseOperator":
        return SparseOperator(domain, codomain or domain, [], [], [], grade)

    # -- basic algebra ------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.codomain.dim, self.domain.dim), dtype=complex)
        out[self.rows, self.cols] = self.vals
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vals), initial=0.0))

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeMismatchError("operator sum over mismatched bases")
        if self.grade != other.grade:
            raise ShapeMismatchError("operator sum of mixed grades")
        return SparseOperator(self.domain, self.codomain,
                              np.concatenate([self.rows, other.rows]),
                              np.concatenate([self.cols, other.cols]),
                              np.concatenate([self.vals, other.vals]), self.grade)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + other.scale(-1.0)

    def scale(self, z) -> "SparseOperator":
        return SparseOperator(self.domain, self.codomain, self.rows, self.cols,
                              z * self.vals, self.grade)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if other.codomain != self.domain:
            raise ShapeMismatchError("operator composition shape mismatch")
        # entry (m, j) of ``other`` meets the column-m run of ``self``
        counts = np.bincount(self.cols, minlength=self.domain.dim)
        starts = np.cumsum(counts) - counts
        pairs = counts[other.rows]
        grade = "odd" if (_GRADE[self.grade] + _GRADE[other.grade]) % 2 else "even"
        parts = []
        for e0, e1 in _column_ranges(other.cols, pairs):
            theirs, offset = expand_runs(pairs[e0:e1])
            left = starts[other.rows[e0:e1]][theirs] + offset
            theirs += e0
            parts.append(SparseOperator(other.domain, self.codomain, self.rows[left],
                                        other.cols[theirs], self.vals[left] * other.vals[theirs],
                                        grade))
        if len(parts) == 1:
            return parts[0]
        # each range owns its output columns, in order: canonical as joined
        return SparseOperator(other.domain, self.codomain,
                              *(np.concatenate([getattr(p, f) for p in parts])
                                for f in ("rows", "cols", "vals")), grade)

    @cached_property
    def components(self) -> np.ndarray:
        """Connected components of the symmetric sparsity graph of a square
        operator: entry ``i`` is the smallest state index in the component
        of state ``i``, so states with no entries are singletons.  Computed
        once per operator and kept on it, read-only.

        Min-label propagation along both directions of every entry, with
        pointer jumping after each round, until no label changes.
        """
        label = np.arange(self.domain.dim)
        while True:
            new = label.copy()
            np.minimum.at(new, self.rows, label[self.cols])
            np.minimum.at(new, self.cols, label[self.rows])
            while True:  # pointer jumping: labels are states of the same component
                jumped = new[new]
                if np.array_equal(jumped, new):
                    break
                new = jumped
            if np.array_equal(new, label):
                label.flags.writeable = False
                return label
            label = new

    # -- text export ----------------------------------------------------

    def to_text(self) -> str:
        """Plain-text coordinate triplets, one per line, sorted by row then
        column, 17 significant digits."""
        order = np.lexsort((self.cols, self.rows))
        lines = [f"{self.codomain.dim} {self.domain.dim} {self.grade}"]
        lines += [f"{i} {j} {z.real:.17g} {z.imag:.17g}"
                  for i, j, z in zip(self.rows[order].tolist(), self.cols[order].tolist(),
                                     self.vals[order].tolist())]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, domain: Basis, codomain: Basis = None) -> "SparseOperator":
        codomain = codomain or domain
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols, grade = lines[0].split()
        if int(rows) != codomain.dim or int(cols) != domain.dim:
            raise ShapeMismatchError("text header does not match bases")
        fields = np.array([ln.split() for ln in lines[1:]], dtype=float).reshape(-1, 4)
        vals = np.ascontiguousarray(fields[:, 2:]).view(complex)[:, 0]  # (re, im) pairs
        return SparseOperator(domain, codomain, fields[:, 0].astype(np.int64),
                              fields[:, 1].astype(np.int64), vals, grade)


def shift_op(domain: Basis, codomain: Basis, pos: int, step: int, coeff,
             grade: str = "even") -> SparseOperator:
    """Label shift: column ``j`` goes to the codomain label that is
    ``domain.label_array[j]`` with entry ``pos`` moved by ``step``, with
    coefficient ``coeff[j]`` (or the scalar ``coeff``).  Columns with a zero
    coefficient or a target outside the codomain have no entry."""
    coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (domain.dim,))
    targets = domain.label_array.copy()
    targets[:, pos] += step
    rows = codomain.index_of(targets)
    cols = np.flatnonzero(rows >= 0)
    return SparseOperator(domain, codomain, rows[cols], cols, coeff[cols], grade)


def energy_product(energies, e_max):
    """Index tuples ``(i_0, i_1, ...)`` with ``sum_q energies[q][i_q] <= e_max``
    for nonnegative per-factor energies.

    Returns ``(comps, total)``: an integer array with one tuple per row, in
    lexicographic order, and the summed energies.  Factors are joined one at
    a time and a partial tuple is extended only by the factor states that fit
    under the remaining budget, so nothing above ``e_max`` is ever built.
    """
    comps = np.zeros((1, 0), dtype=np.int64)
    total = np.zeros(1)
    for e in energies:
        e = np.asarray(e, dtype=float)
        order = np.argsort(e, kind="stable")
        run, offset = expand_runs(np.searchsorted(e[order], e_max - total, side="right"))
        new = order[offset]
        comps = np.column_stack([comps[run], new])
        total = total[run] + e[new]
    order = np.lexsort(comps.T[::-1])
    return comps[order], total[order]


def adjoint(a: SparseOperator) -> SparseOperator:
    """Gram-weighted conjugate transpose: ``<adjoint(a) v, w> = <v, a w>``."""
    vals = np.conj(a.vals) * a.codomain.gram[a.rows] / a.domain.gram[a.cols]
    return SparseOperator(a.codomain, a.domain, a.cols, a.rows, vals, a.grade)


def graded_commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """``a b - (-1)^(deg a * deg b) b a``; anticommutator for two odd factors."""
    sign = -1.0 if (_GRADE[a.grade] and _GRADE[b.grade]) else 1.0
    return (a @ b) - (b @ a).scale(sign)


# relative self-adjointness tolerance of every eigensolve
TOL = 1e-10


def _hermitian_blocks(a: SparseOperator):
    """Gram-orthonormal Hermitian part of ``a``, one stacked array per block
    size, generated one size at a time: ``(states, blocks)`` with ``states``
    of shape ``(k, s)``
    (each row one component, ascending) and ``blocks`` of shape
    ``(k, s, s)``.

    ``a`` must be self-adjoint: ``max |A_on - A_on^H|`` may not exceed
    ``TOL * max(max |A_on|, 1)``, both taken over the orthonormal triplets.
    Entries never cross components, so the asymmetry is read off each
    size class's stacked blocks before that class is yielded.
    """
    if a.domain != a.codomain:
        raise ShapeMismatchError("eigensolve needs square operators")
    s = np.sqrt(a.domain.gram)
    vals = a.vals * s[a.rows] / s[a.cols]
    scale = max(float(np.max(np.abs(vals), initial=0.0)), 1.0)
    label = a.components
    order = np.argsort(label, kind="stable")
    _, start, size = np.unique(label[order], return_index=True, return_counts=True)
    # every state's block size, block (within its size class) and position
    # in the block
    width_of = np.empty(a.domain.dim, dtype=np.int64)
    width_of[order] = np.repeat(size, size)
    block, pos = np.empty_like(width_of), np.empty_like(width_of)
    for width in np.flatnonzero(np.bincount(size)):
        states = order[start[size == width][:, None] + np.arange(width)]
        block[states] = np.arange(len(states))[:, None]
        pos[states] = np.arange(width)
        # entries never cross components, so the row fixes the block
        mine = np.flatnonzero(width_of[a.rows] == width)
        stack = np.zeros((len(states), width, width), dtype=complex)
        stack[block[a.rows[mine]], pos[a.rows[mine]], pos[a.cols[mine]]] = vals[mine]
        adj = stack.conj().swapaxes(1, 2)
        asym = float(np.max(np.abs(stack - adj), initial=0.0))
        if asym > TOL * scale:
            raise NotSelfAdjointError(
                f"max asymmetry {asym:.3e} above tolerance {TOL:.1e} (scale {scale:.3e})")
        yield states, 0.5 * (stack + adj)


def block_spectrum(blocks) -> np.ndarray:
    """Real eigenvalues with multiplicity, ascending, of Hermitian
    ``(states, blocks)`` stacks, the block form of :func:`spectral_function`."""
    vals = [np.linalg.eigvalsh(stack).ravel() for _, stack in blocks]
    return np.sort(np.concatenate(vals + [np.zeros(0)]))


def spectrum(a: SparseOperator) -> np.ndarray:
    """Real eigenvalues with multiplicity, ascending.

    The operator must be self-adjoint with respect to the Gram, checked to
    :data:`TOL` after orthonormalization.  Each connected component of its
    sparsity graph is one block; the blocks are solved in one stacked call
    per block size.
    """
    return block_spectrum(_hermitian_blocks(a))


def eigh_gram(a: SparseOperator):
    """Eigendecomposition of a Gram-self-adjoint operator, block by block.

    Returns a list with one ``(states, vals, vecs)`` per block size ``s``:
    ``states`` (``(k, s)`` integers) lists the states of ``k`` blocks,
    ``vals[b]`` their eigenvalues, ascending, and ``vecs[b][:, m]`` the
    eigenvector of ``vals[b, m]`` on the states ``states[b]``, in the
    original (unnormalized) coordinates and orthonormal with respect to the
    Gram inner product.
    """
    out = []
    for states, blocks in _hermitian_blocks(a):
        vals, u = np.linalg.eigh(blocks)
        out.append((states, vals, u / np.sqrt(a.domain.gram)[states][:, :, None]))
    return out


def spectral_function(decomposition, gram, f):
    """``f(a)`` in block form, for a real ``f``, from the :func:`eigh_gram`
    ``decomposition`` of ``a`` on a basis with Gram ``gram``, the one that
    also gives ``a``'s spectrum: one ``(states, blocks)`` pair per block size,
    made one size at a time, ``blocks[b] = U f(Lambda) U^H`` on ``states[b]``
    in Gram-orthonormal coordinates, which :func:`block_spectrum` reads."""
    root = np.sqrt(gram)
    for states, lam, vecs in decomposition:
        u = vecs * root[states][:, :, None]
        yield states, (u * f(lam)[:, None, :]) @ u.conj().swapaxes(1, 2)


def gram_transpose(mat: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Transpose with respect to the monomial duality pairing.

    For an operator ``A`` on a Gram basis, the pairing transpose acting on the
    dual monomials is ``tA[l, k] = A[k, l] * gram[k] / gram[l]``; it reduces to
    the plain transpose on orthonormal bases and is anti-multiplicative.
    """
    g = np.asarray(gram, dtype=float)
    return mat.T * (g[None, :] / g[:, None])


# ------------------------------------------------------------ random inputs


class Lcg:
    """64-bit linear congruential generator, x -> 6364136223846793005 x +
    1442695040888963407 mod 2^64; uniforms take the top 53 bits.  A complex
    normal is two Box-Muller normals, real part first, each from the next
    two uniforms ``u1, u2`` (``u1`` floored at 1e-300); matrices are drawn
    row by row.  Documented so any implementation can reproduce the
    streams exactly.

    Draws are taken a block at a time by jumping ahead on ``uint64`` arrays,
    which wrap mod 2^64: ``x_j = MULT^j x_0 + INC (1 + MULT + ... +
    MULT^(j-1))``, with the coefficients of ``j = 1 .. JUMP_BLOCK`` built
    once.  :meth:`complex_matrix` fills its preallocated output one slice
    of at most :data:`BLOCK_ELEMENTS` uniforms at a time; the stream is
    sequential, so the slices are the one-shot draw bit for bit.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1
    # the jump table's length: 64 KiB of table; sized at BLOCK_ELEMENTS it
    # would hold 256 KiB in every process and draw no faster
    JUMP_BLOCK = 4096

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms of the stream."""
        powers, incs = _lcg_jumps()
        states = np.empty(n, dtype=np.uint64)
        state = np.uint64(self.state)
        for start in range(0, n, self.JUMP_BLOCK):
            block = states[start:start + self.JUMP_BLOCK]
            k = len(block)
            np.multiply(powers[:k], state, out=block)
            block += incs[:k]
            state = block[-1]
        self.state = int(state)
        return (states >> np.uint64(11)).astype(float) / float(1 << 53)

    def complex_matrix(self, n: int, m: int = None) -> np.ndarray:
        m = n if m is None else m
        normals = np.empty(2 * n * m)
        for start in range(0, len(normals), BLOCK_ELEMENTS // 2):
            out = normals[start:start + BLOCK_ELEMENTS // 2]
            # Box-Muller: one normal from each consecutive pair u1, u2
            u = self.uniforms(2 * len(out)).reshape(-1, 2)
            np.multiply(np.sqrt(-2.0 * np.log(np.maximum(u[:, 0], 1e-300))),
                        np.cos(2.0 * np.pi * u[:, 1]), out=out)
        return normals.view(complex).reshape(n, m)

    def complex_vector(self, n: int) -> np.ndarray:
        return self.complex_matrix(1, n)[0]


@cache
def _lcg_jumps():
    """``(MULT^j, INC (1 + MULT + ... + MULT^(j-1)))`` for ``j = 1 ..
    Lcg.JUMP_BLOCK``, as read-only ``uint64`` arrays."""
    powers = np.multiply.accumulate(np.full(Lcg.JUMP_BLOCK, Lcg.MULT, dtype=np.uint64))
    incs = np.cumsum(np.concatenate([np.ones(1, dtype=np.uint64), powers[:-1]]))
    incs *= np.uint64(Lcg.INC)
    for arr in (powers, incs):
        arr.flags.writeable = False
    return powers, incs
