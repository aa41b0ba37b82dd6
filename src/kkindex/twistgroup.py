"""Finite models of twisted group algebras and crossed products.

The circle fiber of a central extension is discretized as the m-th roots of
unity with normalized counting measure (total fiber mass 1), so level
decomposition is a finite character sum and all vanishing statements are
exact.  Cocycles are stored as integer exponent tables ``K`` with
``tau(g, h) = exp(2 pi i K[g, h] / m)``; identity checks are integer
arithmetic mod m.

A function on the extension at level ``l`` satisfies ``f(z g) = z^l f(g)``
and is determined by its slice on the zero-phase section.  Level-tagged
arithmetic works on slices, with the fiber sums evaluated by exact character
orthogonality; untagged arithmetic sums over the full extension numerically.

The group law exists only as integer tables, built once per group and per
extension, and every kernel runs over them: ``add_table`` and ``neg_table``
on element indices (lexicographic, so the identity is index 0), for the
extension ``tgt[g, x] = index(-g + x)`` with the phase
``(g, i)^{-1} (x, j) = (tgt[g, x], phase[g, x] + j - i mod m)`` and its
level-1 factor ``twist = roots[phase]``; the crossed product over ``X = G``
under translation reads ``h^{-1} x`` from ``add_table[neg_table]``.  There a
cut-off vector's total ``sum_g c(g.x)`` at every point is its mass, so
:func:`mishchenko` checks the one sum ``sum(c) = 1``.

:func:`check_cocycle` forms the exponent defect of the cocycle identity
only on the rows of the r generators, r n^2 entries and not n^3, unless the
check fails; its docstring says why that suffices.

The brute-force kernels, the independent routes the tagged ones and the
Schatten map are checked against, sum every term.  Untagged
:func:`convolve` does the fiber sum ``sum_j f(g, j) h(t, s - j)`` for a
block of ``g`` as one matrix product and then sums over ``g`` with one
gather at ``t = tgt[g, x]``, ``s = phase[g, x] + xj mod m``, the residue
read from an m x m table.
:func:`crossed_convolve` gathers ``b(h^{-1} g, h^{-1} x)`` for each point
``x`` with one flat ``take`` and sums over ``h`` with one vector-matrix
product.  :func:`schatten_map` reads its canonical triplets from the
crossed-product table with one flat ``take``.  README states their measured
times and traced peaks.

For the trivial cocycle and the Heisenberg pairing, :class:`ProjectiveIrreps`
gives every irreducible projective representation in closed form, built from
DFT matrices in numpy core.

A :class:`Cocycle`'s exponent table is read-only.

Level-tagged slices ``(..., |G|)`` and module tables ``(..., |G|, |G|)`` may
carry leading trial axes: the tagged kernels, :meth:`TwistedExtension.translates`
and the module maps act on every trial at once and check only the trailing
axes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import opcore
from .opcore import Basis, SparseOperator

__all__ = [
    "FiniteAbelianGroup",
    "Cocycle",
    "trivial_cocycle",
    "heisenberg_cocycle",
    "check_cocycle",
    "TwistedExtension",
    "GroupAlgebraElement",
    "convolve",
    "level_project",
    "CrossedProductElement",
    "crossed_convolve",
    "mishchenko",
    "schatten_map",
    "ModuleElement",
    "m_iso",
    "module_right_action",
    "module_left_action",
    "module_inner_product",
    "decompose_twisted_algebra",
    "ProjectiveIrreps",
]

def _integers(values, what: str) -> np.ndarray:
    """``values`` as ints; a non-finite or non-integral entry raises ``ValueError``."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        bad = values[~np.isfinite(values) | (values != np.round(values))]
        if bad.size:
            raise ValueError(f"{what} must be integral, got {bad[0]}")
    return values.astype(int, copy=False)


class FiniteAbelianGroup:
    """Product of cyclic groups ``Z_n1 x ... x Z_nr``, elements as residue
    tuples under componentwise addition, listed in lexicographic order.

    ``add_table[g, h]`` and ``neg_table[g]`` are the group law on element
    indices, by mixed-radix arithmetic on the coordinates ``coords``.
    """

    def __init__(self, moduli):
        self.moduli = tuple(int(n) for n in _integers(moduli, "moduli"))
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be >= 1")
        self.elements = list(np.ndindex(*self.moduli))
        self.coords = np.array(self.elements, dtype=np.intp).reshape(self.order, -1)
        # lexicographic order: an element's index is its coordinates dotted
        # with the mixed-radix strides
        self._strides = np.array([math.prod(self.moduli[k + 1:])
                                  for k in range(len(self.moduli))], dtype=np.intp)
        self.neg_table = self._indices(-self.coords)

    def _indices(self, coords: np.ndarray) -> np.ndarray:
        """Element indices of integer coordinate arrays ``[..., r]``, reduced
        mod the moduli."""
        return (coords % np.array(self.moduli, dtype=np.intp)) @ self._strides

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """``[g, h]``: index of ``g + h``; n x n, built on first use."""
        return self._indices(self.coords[:, None, :] + self.coords[None, :, :])

    @functools.cached_property
    def _l2_basis(self) -> Basis:
        """Orthonormal basis of ``l^2(G)`` labeled by the coordinates, built
        on first use and shared by every :func:`schatten_map` on the group."""
        return Basis(self.coords, np.ones(self.order))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return "Z" + "xZ".join(str(n) for n in self.moduli)


class Cocycle:
    """Exponent table for a two-cocycle valued in m-th roots of unity;
    ``exponents`` is read-only."""

    def __init__(self, group: FiniteAbelianGroup, exponents, root_order: int):
        self.group = group
        self.root_order = int(_integers(root_order, "root_order"))
        if self.root_order < 1:
            raise ValueError(f"root_order must be at least 1, got {self.root_order}")
        self.exponents = _integers(exponents, "cocycle exponents") % self.root_order
        if self.exponents.shape != (group.order, group.order):
            raise ValueError("incomplete cocycle table")
        self.exponents.flags.writeable = False

    def root(self) -> complex:
        return np.exp(2j * np.pi / self.root_order)

    def check_group(self, group: FiniteAbelianGroup):
        """Refuse a ``group`` other than the one the cocycle lives on."""
        if group.moduli != self.group.moduli:
            raise ValueError(f"cocycle is on {self.group!r}, not on the group {group!r}")


def trivial_cocycle(group: FiniteAbelianGroup, root_order: int = 1) -> Cocycle:
    return Cocycle(group, np.zeros((group.order, group.order), dtype=int), root_order)


def heisenberg_cocycle(group: FiniteAbelianGroup) -> Cocycle:
    """Pairing cocycle ``tau((a,b),(c,d)) = omega^(b c)`` on a two-factor
    group with second modulus dividing the first; ``omega`` is the primitive
    root of order ``n2``."""
    if len(group.moduli) != 2:
        raise ValueError("heisenberg cocycle needs exactly two cyclic factors")
    n1, n2 = group.moduli
    if n1 % n2:
        raise ValueError("second modulus must divide the first")
    return Cocycle(group, np.outer(group.coords[:, 1], group.coords[:, 0]), n2)


def _defect(K: np.ndarray, add: np.ndarray, m: int, g) -> np.ndarray:
    """``[i, h, k]``: the exponent defect
    ``K[g_i, h] - K[h, k] + K[g_i + h, k] - K[g_i, h + k]`` of a table ``K``
    reduced mod m on the rows ``g`` (an index array or a slice), zeroed
    where it is a multiple of m."""
    rows = K[g]
    # the defect lies in [-2(m-1), 2(m-1)], where the multiples of m are
    # -m, 0 and m
    cube = K[add[g]]
    cube -= K
    cube += rows[:, :, None]
    cube -= np.take(rows, add, axis=1)
    cube[cube == m] = 0
    cube[cube == -m] = 0
    return cube


def check_cocycle(tau: Cocycle):
    """All violated identities: cocycle triples ``(g, h, k)`` with
    ``tau(g,h) tau(gh,k) != tau(h,k) tau(g,hk)`` and unnormalized pairs.
    The identity is element 0 (lexicographic order).

    The exponent defect ``D(g, h, k) = K[g,h] - K[h,k] + K[g+h,k] - K[g,h+k]``
    is formed from the table reduced mod m, in the narrowest signed integer
    type that holds ``4m``, first only on the rows of the generators
    ``e_1 ... e_r``, one per cyclic factor: r n^2 entries, not n^3.  For
    any integer table ``D(a+b,h,k) = D(b,h,k) + D(a,b+h,k) - D(a,b,h+k)
    + D(a,b,h)`` (``delta delta K = 0``), so the ``g`` whose rows vanish mod
    m are closed under addition; holding on the generators, they are all of
    G.  Only when a generator row or the normalization fails are all
    ``(g, h, k)`` swept, in cubes of at most :data:`opcore.BLOCK_ELEMENTS`
    entries, for the complete ordered list."""
    grp, m = tau.group, tau.root_order
    n, add, elts = grp.order, grp.add_table, grp.elements
    K = np.remainder(tau.exponents, m, out=np.empty((n, n), np.min_scalar_type(-4 * m)),
                     casting="unsafe")
    step = max(1, opcore.BLOCK_ELEMENTS // (n * n))
    unnormalized = np.flatnonzero(K[0] | K[:, 0])
    generators = grp._indices(np.eye(len(grp.moduli), dtype=np.intp))
    if not len(unnormalized) and not any(
            np.count_nonzero(_defect(K, add, m, generators[g0:g0 + step]))
            for g0 in range(0, len(generators), step)):
        return []
    bad = [("normalization", elts[g]) for g in unnormalized]
    for g0 in range(0, n, step):
        cube = _defect(K, add, m, slice(g0, g0 + step))
        if np.count_nonzero(cube):
            bad.extend(("identity", elts[g0 + g], elts[h], elts[k])
                       for g, h, k in zip(*np.nonzero(cube)))
    return bad


class TwistedExtension:
    """Central extension ``G x mu_m`` with product twisted by the cocycle."""

    def __init__(self, tau: Cocycle):
        self.group = grp = tau.group
        self.tau = tau
        self.m = m = tau.root_order
        K, neg = tau.exponents, grp.neg_table
        k_inv = K[np.arange(grp.order), neg]  # K[g, -g]
        # (g, i)^{-1} = (-g, inv_phase[g] - i mod m)
        self.inv_phase = -k_inv % m
        # (g, i)^{-1} (x, j) = (tgt[g, x], phase[g, x] + j - i mod m)
        self.tgt = grp.add_table[neg]
        self.phase = (K[neg] - k_inv[:, None]) % m
        self.roots = tau.root() ** np.arange(m)
        # level-1 factor of (g, 0)^{-1} (x, 0), shared read-only by every caller
        self.twist = self.roots[self.phase]
        self.twist.flags.writeable = False

    def translates(self, slice_, level: int) -> np.ndarray:
        """``[..., g, x]``: the level-``level`` function with zero-phase slice
        ``slice_[..., :]`` evaluated at ``(g, 0)^{-1} (x, 0)``."""
        if level % self.m == 1 % self.m:
            twist = self.twist
        else:
            twist = self.roots[(level * self.phase) % self.m]
        return np.take(slice_, self.tgt, axis=-1) * twist


class GroupAlgebraElement:
    """Function on a twisted extension, optionally tagged with a level.

    A level-``l`` element is stored by its zero-phase slice, ``(..., |G|)``
    with optional leading trial axes; the full table
    ``f(g, j) = omega^(j l) slice[g]`` is available through :meth:`table`.
    Untagged elements store the full ``(|G|, m)`` table and mixed-level sums
    stay untagged.
    """

    def __init__(self, ext: TwistedExtension, values, level=None):
        self.ext = ext
        self.level = level if level is None else int(level) % ext.m
        values = np.asarray(values, dtype=complex)
        if level is None:
            if values.shape != (ext.group.order, ext.m):
                raise ValueError("untagged element needs a full table")
        else:
            if values.shape[-1:] != (ext.group.order,):
                raise ValueError("tagged element needs a slice over G")
        self.values = values

    def table(self) -> np.ndarray:
        if self.level is None:
            return self.values
        omega = self.ext.tau.root()
        phases = omega ** (np.arange(self.ext.m) * self.level)
        return self.values[..., None] * phases

    def add(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        _same_ext(self, other)
        if self.level is not None and self.level == other.level:
            return GroupAlgebraElement(self.ext, self.values + other.values, self.level)
        return GroupAlgebraElement(self.ext, self.table() + other.table(), None)

    def scale(self, z) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.ext, z * self.values, self.level)

    def involution(self) -> "GroupAlgebraElement":
        """``f*(x) = conj(f(x^{-1}))``; preserves the level."""
        ext, neg = self.ext, self.ext.group.neg_table
        if self.level is not None:
            phases = ext.roots[(self.level * ext.inv_phase) % ext.m]
            at_inv = np.take(self.values, neg, axis=-1) * phases
            return GroupAlgebraElement(ext, np.conj(at_inv), self.level)
        fiber = (ext.inv_phase[:, None] - np.arange(ext.m)[None, :]) % ext.m
        return GroupAlgebraElement(ext, np.conj(self.values[neg[:, None], fiber]), None)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def _same_ext(a, b):
    if a.ext is not b.ext and (a.ext.group.moduli != b.ext.group.moduli
                               or a.ext.m != b.ext.m
                               or not np.array_equal(a.ext.tau.exponents, b.ext.tau.exponents)):
        raise ValueError("context mismatch between algebra elements")


def convolve(f: GroupAlgebraElement, h: GroupAlgebraElement) -> GroupAlgebraElement:
    """``(f * h)(x) = (1/m) sum_{g in ext} f(g) h(g^{-1} x)``.

    Tagged inputs use the exact character sum over the fiber: the product of
    distinct levels vanishes identically, equal levels reduce to a single
    twisted sum over the base group.
    """
    _same_ext(f, h)
    ext = f.ext
    grp, m = ext.group, ext.m
    if f.level is not None and h.level is not None:
        if f.level != h.level:
            shape = np.broadcast_shapes(f.values.shape, h.values.shape)
            return GroupAlgebraElement(ext, np.zeros(shape, dtype=complex), h.level)
        rows = f.values[..., None, :] @ ext.translates(h.values, h.level)
        return GroupAlgebraElement(ext, rows[..., 0, :], h.level)
    # (g, gj)^{-1} (x, xj) = (tgt[g, x], phase[g, x] + xj - gj): the fiber sum
    # part[g, t, s] = sum_gj f(g, gj) h(t, s - gj) is one product for every g,
    # and the sum over g gathers part at t = tgt[g, x], s = phase[g, x] + xj
    n = grp.order
    fiber = np.arange(m)
    lag = (fiber[None, :] - fiber[:, None]) % m  # [gj, s] -> s - gj
    # [gj, t * m + s] -> h(t, s - gj)
    shifted = h.table()[np.arange(n)[:, None], lag[:, None, :]].reshape(m, n * m)
    ftab = f.table()
    out = np.zeros((n, m), dtype=complex)
    wrap = (fiber[:, None] + fiber) % m  # [p, xj] -> p + xj mod m
    step = max(1, opcore.BLOCK_ELEMENTS // (n * m))
    for g0 in range(0, n, step):
        part = ftab[g0:g0 + step] @ shifted  # [g - g0, t * m + s]
        idx = wrap[ext.phase[g0:g0 + step]]  # [g - g0, x, xj]
        idx += (np.arange(len(part))[:, None, None] * n + ext.tgt[g0:g0 + step, :, None]) * m
        out += np.take(part, idx).sum(axis=0)
    return GroupAlgebraElement(ext, out / m, None)


def level_project(f: GroupAlgebraElement, level: int) -> GroupAlgebraElement:
    """Fiber average ``(P_l f)(g) = (1/m) sum_z z^{-l} f(z g)``; idempotent,
    and the projections over all residues sum back to the element."""
    ext = f.ext
    if f.level is not None:
        if f.level == int(level) % ext.m:
            return f
        return GroupAlgebraElement(ext, np.zeros_like(f.values), level)
    characters = ext.tau.root() ** (-np.arange(ext.m) * level)
    return GroupAlgebraElement(ext, f.values @ characters / ext.m, level)


# ------------------------------------------------------------------ crossed


class CrossedProductElement:
    """Finitely supported function ``a : G x X -> C`` over ``X = G`` under
    translation, stored as the ``|G| x |G|`` table ``values[g, x]``."""

    def __init__(self, group: FiniteAbelianGroup, values):
        self.group = group
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != (group.order, group.order):
            raise ValueError("crossed product table shape mismatch")

    @staticmethod
    def translation(group: FiniteAbelianGroup, values) -> "CrossedProductElement":
        """Element over the translation action of G on itself."""
        return CrossedProductElement(group, values)

    def involution(self) -> "CrossedProductElement":
        """``a*(g, x) = conj(a(g^{-1}, g^{-1} x))``."""
        grp = self.group
        neg = grp.neg_table
        return CrossedProductElement(
            grp, np.conj(self.values[neg[:, None], grp.add_table[neg]]))


def crossed_convolve(a: CrossedProductElement, b: CrossedProductElement) -> CrossedProductElement:
    """``(a*b)(g, x) = sum_h a(h, x) b(h^{-1} g, h^{-1} x)``."""
    grp = a.group
    if grp.moduli != b.group.moduli:
        raise ValueError("crossed product mismatch: different G")
    n = grp.order
    hinv = grp.add_table[grp.neg_table]  # [h, g] -> h^{-1} g
    # b at (h^{-1} g, h^{-1} x) through flat indices: numpy gathers one
    # take per x faster than a two-array fancy index
    base = hinv * n
    flat = b.values.ravel()
    out = np.empty_like(a.values)
    for x in range(n):
        out[:, x] = a.values[:, x] @ flat.take(base + hinv[:, x, None])
    return CrossedProductElement(grp, out)


def mishchenko(group: FiniteAbelianGroup, c) -> CrossedProductElement:
    """Idempotent ``[c](g, x) = sqrt(c(x) c(g^{-1} x))`` from a cut-off
    ``c``: one finite nonnegative value per element of ``group``, in element
    order, of mass ``|sum(c) - 1| <= 1e-12`` (a failure names the mass)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (group.order,):
        raise ValueError(f"cut-off on {group!r} needs shape ({group.order},), got {c.shape}")
    if not np.all(np.isfinite(c) & (c >= 0)):
        raise ValueError("cut-off must be finite and nonnegative")
    mass = float(c.sum())
    if abs(mass - 1.0) > 1e-12:
        raise ValueError(f"cut-off mass {mass!r} is not 1")
    return CrossedProductElement(group, np.sqrt(c[None, :] * c[group.add_table[group.neg_table]]))


def schatten_map(a: CrossedProductElement) -> SparseOperator:
    """Algebra isomorphism onto the full matrix algebra on ``l^2(G)``.

    Intertwines :func:`crossed_convolve` with operator composition and the
    involution with the adjoint.  The operator is
    ``phi -> sum_h a(h, .) phi(h^{-1} .)``, its triplets emitted in
    canonical order straight from ``a.values``, with no dense matrix.
    """
    grp = a.group
    n, basis = grp.order, grp._l2_basis
    # entry (x, y) is a(x - y, x), at flat index [y, x] -> (x - y) n + x:
    # one take reads the entries in canonical (column y, row x) order
    vals = a.values.ravel().take((grp.add_table[grp.neg_table] * n + np.arange(n)).ravel())
    vals += 0.0  # -0.0 parts become +0.0, as a sum into a zero matrix leaves them
    triplets = np.tile(np.arange(n), n), np.repeat(np.arange(n), n), vals
    for arr in triplets:
        arr.flags.writeable = False  # handed over to the operator uncopied
    return SparseOperator(basis, basis, *triplets, "even")


# ------------------------------------------------------------------ modules


class ModuleElement:
    """Compactly supported map from the extension into functions on it, at
    level 1 in the outer variable and level -1 in the inner one; storage is
    the zero-phase double slice ``table[..., g, y]``, with optional leading
    trial axes."""

    def __init__(self, ext: TwistedExtension, table):
        self.ext = ext
        self.table = np.asarray(table, dtype=complex)
        n = ext.group.order
        if self.table.shape[-2:] != (n, n):
            raise ValueError("module element needs a G x G table")


def m_iso(phi1, phi2: GroupAlgebraElement) -> ModuleElement:
    """Bimodule map ``m(phi1 (x) phi2)(x, g) = phi1(x) phi2(x^{-1} g)``.

    ``phi1`` is a function on the base group, ``(..., |G|)``, ``phi2`` a
    level-1 element of the twisted algebra; the image is level 1 outer and
    level -1 inner, with the broadcast leading axes of both factors.
    """
    ext = phi2.ext
    if phi2.level != 1 % ext.m:
        raise ValueError("second factor must be at level 1")
    phi1 = np.asarray(phi1, dtype=complex)
    if phi1.shape[-1:] != (ext.group.order,):
        raise ValueError("first factor needs a function on G")
    return ModuleElement(ext, phi1[..., None, :]
                         * ext.translates(phi2.values, 1).swapaxes(-1, -2))


def module_right_action(e: ModuleElement, b: GroupAlgebraElement) -> ModuleElement:
    """``(e * b)(gamma) = (1/m) sum e(gamma') b(gamma'^{-1} gamma)`` for a
    level-1 algebra element; the fiber sum is exact."""
    ext = e.ext
    if b.level != 1 % ext.m:
        raise ValueError("right action needs a level-1 algebra element")
    return ModuleElement(ext, ext.translates(b.values, 1).swapaxes(-1, -2) @ e.table)


def module_left_action(a: CrossedProductElement, e: ModuleElement) -> ModuleElement:
    """Action of the crossed product (functions ``G -> C(G)``, level 0)
    through the level-1 twisted translation on the inner variable."""
    ext = e.ext
    if a.group.moduli != ext.group.moduli:
        raise ValueError("left action needs the crossed product over the module's group")
    tgt, twist = ext.tgt, ext.twist
    out = np.empty_like(e.table)
    for y in range(ext.group.order):
        # sum over h (rows) of e at (h,0)^{-1}(g,0), (h,0)^{-1}(y,0) with both phases
        out[..., y] = ((a.values[:, y] * np.conj(twist[:, y]))
                       @ (e.table[..., tgt, tgt[:, y, None]] * twist))
    return ModuleElement(ext, out)


def module_inner_product(e1: ModuleElement, e2: ModuleElement) -> GroupAlgebraElement:
    """Algebra-valued pairing ``<e1, e2>(gamma) = (1/m) sum <e1(g'), e2(g' gamma)>``
    with the inner integral over the base group; lands at level 1."""
    ext = e1.ext
    n = ext.group.order
    # [..., g', t] -> <e1(g'), e2(t)>
    gram = e1.table.conj() @ e2.table.swapaxes(-1, -2)
    # (g', 0) (g, 0) = (g' g, K[g', g])
    terms = (gram[..., np.arange(n)[:, None], ext.group.add_table]
             * ext.roots[ext.tau.exponents])
    return GroupAlgebraElement(ext, terms.sum(axis=-2), 1)


def decompose_twisted_algebra(group: FiniteAbelianGroup, tau: Cocycle):
    """Simple block dimensions of the twisted group algebra.

    The center is spanned by the ``u_g`` with ``tau(g, h) = tau(h, g)`` for
    every ``h``, so the block count is the number of such central elements,
    read off the exponent table; over an abelian base all blocks share the
    dimension ``sqrt(|G| / #blocks)``.

    The table is checked with :func:`check_cocycle` first.
    """
    tau.check_group(group)
    if check_cocycle(tau):
        raise ValueError("invalid cocycle")
    n = group.order
    K = tau.exponents
    non_central = np.any((K - K.T) % tau.root_order, axis=1)
    blocks = n - int(np.count_nonzero(non_central))
    d = math.isqrt(n // blocks)
    if blocks * d * d != n:
        raise ArithmeticError("block count does not divide the order into squares")
    return [d] * blocks


def _dft(k: int) -> np.ndarray:
    """``[a, b] -> exp(2 pi i a b / k)``, the exponent reduced mod k."""
    steps = np.arange(k)
    return np.exp(2j * np.pi / k * (np.outer(steps, steps) % k))


class ProjectiveIrreps:
    """The irreducible projective representations ``pi_t`` of the base group
    with ``pi_t(g) pi_t(k) = tau(g, k)^{-1} pi_t(g + k)``, for the two
    cocycle families where they have a closed form; any other table is
    refused with a ``ValueError``.

    * The trivial cocycle on any group: the characters
      ``chi_t(g) = prod_i exp(2 pi i t_i g_i / n_i)``, one per element ``t``.
    * The Heisenberg pairing ``omega^(b c)`` on ``Z_n1 x Z_n2`` with
      ``n2 | n1``: ``pi_t(a, b) = zeta^(t a) S^a C^(-b)`` on ``C^n2`` for
      ``t < n1 / n2``, with ``S`` the cyclic shift ``e_k -> e_(k+1)``,
      ``C = diag(omega^k)`` and ``zeta = exp(2 pi i / n1)`` (the clock and
      shift basis; Schwinger, "Unitary operator bases", PNAS 1960).

    There are ``count`` of them, each of dimension ``dim``: the simple blocks
    of the twisted algebra that :func:`decompose_twisted_algebra` counts.
    """

    def __init__(self, tau: Cocycle):
        grp = tau.group
        if not tau.exponents.any():
            self.count, self.dim = grp.order, 1
            self._characters = functools.reduce(np.kron, map(_dft, grp.moduli),
                                                np.ones((1, 1)))
            return
        n1, n2 = grp.moduli if len(grp.moduli) == 2 else (0, 0)
        if not (n2 and n1 % n2 == 0 and tau.root_order == n2 and np.array_equal(
                tau.exponents, heisenberg_cocycle(grp).exponents)):
            raise ValueError(f"no closed-form irreducible representations for this "
                             f"cocycle on {grp!r}: only the trivial cocycle and the "
                             f"Heisenberg pairing omega^(b c) on Z_n1 x Z_n2 with "
                             f"n2 | n1 have them")
        self.count, self.dim = n1 // n2, n2
        self._clock = _dft(n2).conj()  # [b, s] -> omega^(-b s)
        # [t, q, p] -> zeta^(t a) at a = q n2 + p
        self._zeta = (_dft(n1)[:self.count]).reshape(self.count, self.count, n2)
        steps = np.arange(n2)
        self._lag = (steps[:, None] - steps[None, :]) % n2  # [r, s] -> r - s

    def image(self, values) -> np.ndarray:
        """``[..., t, r, s]``: ``pi_t(f) = sum_g f(g) pi_t(g)`` for the
        function ``f`` with values ``values[..., g]``."""
        values = np.asarray(values, dtype=complex)
        if self.dim == 1:
            return (values @ self._characters)[..., None, None]
        # pi_t(f)[r, s] = sum_(a = r - s mod n2) zeta^(t a) sum_b f(a, b) omega^(-b s)
        n2 = self.dim
        clocked = values.reshape(*values.shape[:-1], self.count, n2, n2) @ self._clock
        folded = np.einsum("tqp,...qps->...tps", self._zeta, clocked)  # [..., t, r - s, s]
        return folded[..., self._lag, np.arange(n2)]
