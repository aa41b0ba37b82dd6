"""Labeled-basis sparse linear algebra.

Every operator in this package lives on a :class:`Basis`: an ordered list of
opaque labels together with a positive diagonal Gram (the squared norm of each
label).  Bases are deliberately kept in unnormalized monomial form, so ladder
coefficients stay integers; orthonormalization happens only in the dense
view :func:`orthonormal_dense`, which the eigensolves use.

Conventions
-----------
* labels are fixed-width integer tuples, ordered lexicographically,
* ``<v, w> = sum_i gram_i * conj(v_i) * w_i``,
* operators are coordinate-triplet maps ``column -> rows`` with a parity grade,
* the adjoint is the Gram-weighted conjugate transpose,
  ``adjoint(A)[i, j] = conj(A[j, i]) * gram_cod[j] / gram_dom[i]``.

All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Basis",
    "Vector",
    "SparseOperator",
    "BasisMismatchError",
    "ShapeMismatchError",
    "NotSelfAdjointError",
    "inner_product",
    "graded_commutator",
    "adjoint",
    "spectrum",
    "eigh_gram",
    "orthonormal_dense",
    "self_adjoint_dense",
    "gram_transpose",
    "shift_op",
    "energy_product",
]


class BasisMismatchError(ValueError):
    """Vectors or operators over different bases were combined."""


class ShapeMismatchError(ValueError):
    """Operator shapes are not composable."""


class NotSelfAdjointError(ValueError):
    """An eigensolve was requested for a non-self-adjoint operator."""


class Basis:
    """Ordered labeled basis with a positive diagonal Gram.

    Parameters
    ----------
    labels:
        sequence of distinct hashable labels (canonically int tuples).
    gram:
        positive weight per label, ``gram[i] = <label_i, label_i>``.
    energy:
        optional nonnegative weight per label used for truncation-safety
        bookkeeping (weighted energy of Fock labels).
    parity:
        optional 0/1 array, the Z_2 grade of each label; all-even if omitted.
    """

    def __init__(self, labels, gram, energy=None, parity=None, name=""):
        self.labels = tuple(labels)
        self.gram = np.asarray(gram, dtype=float)
        if len(self.labels) != len(set(self.labels)):
            raise ValueError("basis labels must be distinct")
        if self.gram.shape != (len(self.labels),):
            raise ValueError("gram shape does not match label count")
        if np.any(self.gram <= 0):
            raise ValueError("gram entries must be positive")
        self.energy = (
            np.zeros(len(self.labels)) if energy is None else np.asarray(energy, dtype=float)
        )
        self.parity = (
            np.zeros(len(self.labels), dtype=int)
            if parity is None
            else np.asarray(parity, dtype=int)
        )
        self.name = name
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Basis)
            and self.labels == other.labels
            and np.array_equal(self.gram, other.gram)
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Basis({self.name or 'anon'}, dim={self.dim})"

    def vector(self, label, value=1.0) -> "Vector":
        return Vector(self, {self.index(label): complex(value)})


class Vector:
    """Sparse complex vector over a :class:`Basis`."""

    def __init__(self, basis: Basis, coeffs: dict):
        self.basis = basis
        self.coeffs = {int(i): complex(c) for i, c in coeffs.items() if c != 0}
        for i in self.coeffs:
            if not 0 <= i < basis.dim:
                raise IndexError(f"coefficient index {i} outside basis")

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.basis.dim, dtype=complex)
        for i, c in self.coeffs.items():
            out[i] = c
        return out

    def add(self, other: "Vector") -> "Vector":
        if self.basis != other.basis:
            raise BasisMismatchError("vector addition over different bases")
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, 0.0) + c
        return Vector(self.basis, coeffs)

    def scale(self, z) -> "Vector":
        return Vector(self.basis, {i: z * c for i, c in self.coeffs.items()})

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).real))


def inner_product(v: Vector, w: Vector) -> complex:
    """Gram-weighted inner product, conjugate linear in the first slot."""
    if v.basis != w.basis:
        raise BasisMismatchError("inner product requires a shared basis")
    g = v.basis.gram
    total = 0.0 + 0.0j
    small, big = (v.coeffs, w.coeffs) if len(v.coeffs) <= len(w.coeffs) else (w.coeffs, v.coeffs)
    for i in small:
        if i in big:
            total += g[i] * np.conj(v.coeffs[i]) * w.coeffs[i]
    return complex(total)


_GRADE = {"even": 0, "odd": 1}


class SparseOperator:
    """Coordinate-triplet operator between labeled bases.

    ``entries`` maps ``(row, col) -> complex`` with at most one entry per
    coordinate.  ``grade`` is ``"even"`` or ``"odd"``.  Images that leave a
    truncated codomain are simply not there: operators are compressions.
    """

    def __init__(self, domain: Basis, codomain: Basis, entries: dict, grade: str = "even"):
        if grade not in _GRADE:
            raise ValueError("grade must be 'even' or 'odd'")
        self.domain = domain
        self.codomain = codomain
        self.grade = grade
        cleaned = {}
        rows, cols = codomain.dim, domain.dim
        for (i, j), z in entries.items():
            if z == 0:
                continue
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside basis bounds")
            cleaned[(int(i), int(j))] = complex(z)
        self.entries = cleaned

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(basis: Basis) -> "SparseOperator":
        return SparseOperator(basis, basis, {(i, i): 1.0 for i in range(basis.dim)}, "even")

    @staticmethod
    def zero(domain: Basis, codomain: Basis = None, grade: str = "even") -> "SparseOperator":
        return SparseOperator(domain, codomain or domain, {}, grade)

    @staticmethod
    def from_dense(mat, domain: Basis, codomain: Basis = None, grade: str = "even",
                   chop: float = 0.0) -> "SparseOperator":
        codomain = codomain or domain
        mat = np.asarray(mat)
        entries = {}
        rows, cols = np.nonzero(np.abs(mat) > chop)
        for i, j in zip(rows.tolist(), cols.tolist()):
            entries[(i, j)] = mat[i, j]
        return SparseOperator(domain, codomain, entries, grade)

    # -- basic algebra ------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.codomain.dim, self.domain.dim), dtype=complex)
        for (i, j), z in self.entries.items():
            out[i, j] = z
        return out

    def max_abs(self) -> float:
        return max((abs(z) for z in self.entries.values()), default=0.0)

    def apply(self, v: Vector) -> Vector:
        if v.basis != self.domain:
            raise BasisMismatchError("operator domain does not match vector basis")
        out = {}
        for (i, j), z in self.entries.items():
            if j in v.coeffs:
                out[i] = out.get(i, 0.0) + z * v.coeffs[j]
        return Vector(self.codomain, out)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeMismatchError("operator sum over mismatched bases")
        if self.grade != other.grade:
            raise ShapeMismatchError("operator sum of mixed grades")
        entries = dict(self.entries)
        for key, z in other.entries.items():
            entries[key] = entries.get(key, 0.0) + z
        return SparseOperator(self.domain, self.codomain, entries, self.grade)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + other.scale(-1.0)

    def scale(self, z) -> "SparseOperator":
        return SparseOperator(self.domain, self.codomain,
                              {k: z * v for k, v in self.entries.items()}, self.grade)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if other.codomain != self.domain:
            raise ShapeMismatchError("operator composition shape mismatch")
        other_cols = {}
        for (i, j), z in other.entries.items():
            other_cols.setdefault(j, []).append((i, z))
        self_cols = {}
        for (i, j), z in self.entries.items():
            self_cols.setdefault(j, []).append((i, z))
        entries = {}
        for j, mid in other_cols.items():
            for m, zm in mid:
                for i, zi in self_cols.get(m, ()):
                    key = (i, j)
                    entries[key] = entries.get(key, 0.0) + zi * zm
        grade = "odd" if (_GRADE[self.grade] + _GRADE[other.grade]) % 2 else "even"
        return SparseOperator(other.domain, self.codomain, entries, grade)

    # -- text export ----------------------------------------------------

    def to_text(self) -> str:
        """Plain-text coordinate triplets, one per line, 17 significant digits."""
        lines = [f"{self.codomain.dim} {self.domain.dim} {self.grade}"]
        for (i, j) in sorted(self.entries):
            z = self.entries[(i, j)]
            lines.append(f"{i} {j} {z.real:.17g} {z.imag:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str, domain: Basis, codomain: Basis = None) -> "SparseOperator":
        codomain = codomain or domain
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols, grade = lines[0].split()
        if int(rows) != codomain.dim or int(cols) != domain.dim:
            raise ShapeMismatchError("text header does not match bases")
        entries = {}
        for ln in lines[1:]:
            i, j, re_, im_ = ln.split()
            entries[(int(i), int(j))] = complex(float(re_), float(im_))
        return SparseOperator(domain, codomain, entries, grade)

    def __repr__(self):
        return (f"SparseOperator({self.codomain.dim}x{self.domain.dim}, "
                f"nnz={self.nnz}, grade={self.grade})")


def shift_op(domain: Basis, codomain: Basis, pos: int, step: int, coeff,
             grade: str = "even") -> SparseOperator:
    """Label shift: column ``j`` goes to the codomain label that is
    ``domain.labels[j]`` with entry ``pos`` moved by ``step``, with
    coefficient ``coeff[j]`` (or the scalar ``coeff``).  Columns with a zero
    coefficient or a target outside the codomain have no entry."""
    coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (domain.dim,)).tolist()
    entries = {}
    for j, (lab, z) in enumerate(zip(domain.labels, coeff)):
        target = lab[:pos] + (lab[pos] + step,) + lab[pos + 1:]
        if z != 0 and target in codomain:
            entries[(codomain.index(target), j)] = z
    return SparseOperator(domain, codomain, entries, grade)


def energy_product(energies, e_max):
    """Index tuples ``(i_0, i_1, ...)`` with ``sum_q energies[q][i_q] <= e_max``
    for nonnegative per-factor energies.

    Returns ``(comps, total)``: an integer array with one tuple per row, in
    no particular order, and the summed energies.  Factors are joined one at
    a time and a partial tuple is extended only by the factor states that fit
    under the remaining budget, so nothing above ``e_max`` is ever built.
    """
    comps = np.zeros((1, 0), dtype=np.int64)
    total = np.zeros(1)
    for e in energies:
        e = np.asarray(e, dtype=float)
        order = np.argsort(e, kind="stable")
        counts = np.searchsorted(e[order], e_max - total, side="right")
        run = np.repeat(np.arange(len(total)), counts)
        new = order[np.arange(len(run)) - (np.cumsum(counts) - counts)[run]]
        comps = np.column_stack([comps[run], new])
        total = total[run] + e[new]
    return comps, total


def adjoint(a: SparseOperator) -> SparseOperator:
    """Gram-weighted conjugate transpose: ``<adjoint(a) v, w> = <v, a w>``."""
    gd, gc = a.domain.gram, a.codomain.gram
    entries = {}
    for (i, j), z in a.entries.items():
        entries[(j, i)] = np.conj(z) * gc[i] / gd[j]
    return SparseOperator(a.codomain, a.domain, entries, a.grade)


def graded_commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """``a b - (-1)^(deg a * deg b) b a``; anticommutator for two odd factors."""
    sign = -1.0 if (_GRADE[a.grade] and _GRADE[b.grade]) else 1.0
    return (a @ b) - (b @ a).scale(sign)


def orthonormal_dense(op: SparseOperator) -> np.ndarray:
    """Dense matrix in Gram-orthonormal coordinates; operator norms,
    singular values and eigenvalues are metrically meaningful there."""
    return (op.to_dense() * np.sqrt(op.codomain.gram)[:, None]
            / np.sqrt(op.domain.gram)[None, :])


def self_adjoint_dense(a: SparseOperator, tol: float = 1e-10) -> np.ndarray:
    """Hermitian part of :func:`orthonormal_dense`, after checking that the
    anti-Hermitian part is below ``tol`` relative to the largest entry."""
    if a.domain != a.codomain:
        raise ShapeMismatchError("eigensolve needs square operators")
    sym = orthonormal_dense(a)
    asym = np.max(np.abs(sym - sym.conj().T)) if sym.size else 0.0
    scale = max(np.max(np.abs(sym)) if sym.size else 0.0, 1.0)
    if asym > tol * scale:
        raise NotSelfAdjointError(
            f"max asymmetry {asym:.3e} above tolerance {tol:.1e} (scale {scale:.3e})")
    return 0.5 * (sym + sym.conj().T)


def spectrum(a: SparseOperator, tol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues with multiplicity, ascending.

    The operator must be self-adjoint with respect to the Gram, checked to
    ``tol`` after orthonormalization.
    """
    sym = self_adjoint_dense(a, tol)
    if sym.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(sym)


def eigh_gram(a: SparseOperator, tol: float = 1e-10):
    """Eigenvalues and eigenvectors of a Gram-self-adjoint operator.

    Returns ``(vals, vecs)`` where column ``vecs[:, k]`` is expressed in the
    original (unnormalized) coordinates and the columns are orthonormal with
    respect to the Gram inner product.
    """
    vals, u = np.linalg.eigh(self_adjoint_dense(a, tol))
    return vals, u / np.sqrt(a.domain.gram)[:, None]


def gram_transpose(mat: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Transpose with respect to the monomial duality pairing.

    For an operator ``A`` on a Gram basis, the pairing transpose acting on the
    dual monomials is ``tA[l, k] = A[k, l] * gram[k] / gram[l]``; it reduces to
    the plain transpose on orthonormal bases and is anti-multiplicative.
    """
    g = np.asarray(gram, dtype=float)
    return mat.T * (g[None, :] / g[:, None])
