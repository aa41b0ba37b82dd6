"""Basis vectors, Gram inner products and norms, the vector arithmetic the
tests do on coordinate arrays, the Gram-orthonormal dense view of an
operator and the sparse operator of a dense matrix, the block form of
``kkindex.dirac.bounded_transform`` and its dense view, the dense regular
representation of a crossed-product element, the densified kernel blocks
of ``kkindex.dirac.kernel``, product-state labels read through the factor
bases, the index cycles on the full tensor product, and an adaptive
Gauss-Legendre quadrature."""

import numpy as np

from kkindex import assembly, dirac
from kkindex.opcore import SparseOperator, eigh_gram


def unit(basis, label) -> np.ndarray:
    """The coordinates of the basis vector of ``label``."""
    coords = np.zeros(basis.dim, dtype=complex)
    coords[basis.labels.index(label)] = 1.0
    return coords


def product_label(space, *parts) -> tuple:
    """The label of the product state of ``space`` whose factor states have
    the labels ``parts``: the row of their factor indices."""
    return tuple(b.labels.index(p) for b, p in zip(space.factors, parts))


def factor_labels(space, i) -> tuple:
    """The factor labels of basis state ``i`` of a product space."""
    return tuple(b.labels[c] for b, c in zip(space.factors, space.components[i]))


def inner(basis, v, w) -> complex:
    """Gram inner product ``sum_i gram_i conj(v_i) w_i``."""
    return complex(np.vdot(v, basis.gram * w))


def norm(basis, coords) -> float:
    """Gram norm ``sqrt(sum_i gram_i |coords_i|^2)``."""
    return float(np.sqrt(np.sum(basis.gram * np.abs(coords) ** 2)))


def orthonormal_dense(op) -> np.ndarray:
    """Dense matrix of ``op`` in Gram-orthonormal coordinates; operator
    norms, singular values and eigenvalues are metrically meaningful there."""
    return (op.to_dense() * np.sqrt(op.codomain.gram)[:, None]
            / np.sqrt(op.domain.gram)[None, :])


def block_transform(op) -> list:
    """The bounded transform of ``op`` in block form, from one
    decomposition, as a list."""
    return list(dirac.bounded_transform(eigh_gram(op), op.domain.gram))


def dense_blocks(blocks, dim) -> np.ndarray:
    """The ``dim x dim`` matrix, in Gram-orthonormal coordinates, of an
    operator in the block form of ``dirac.bounded_transform``; the blocks
    must hold every state exactly once."""
    out = np.zeros((dim, dim), dtype=complex)
    seen = np.zeros(dim, dtype=np.int64)
    for states, stack in blocks:
        out[states[:, :, None], states[:, None, :]] = stack
        np.add.at(seen, states.ravel(), 1)
    assert (seen == 1).all()
    return out


def off_grade(mat, basis, grade) -> float:
    """The largest entry of ``mat`` between states of ``basis`` whose
    parities differ by other than ``grade``: zero for a matrix of that
    grade."""
    p = basis.parity
    wrong = (p[:, None] != p[None, :]) != (grade == "odd")
    return float(np.max(np.abs(mat[wrong]), initial=0.0))


def from_dense(mat, domain, codomain=None, grade="even") -> SparseOperator:
    """The operator with the nonzero entries of ``mat``, listed column by
    column: canonical order, so the constructor never sorts."""
    mat = np.asarray(mat)
    cols, rows = np.nonzero(mat.T)
    return SparseOperator(domain, codomain or domain, rows, cols, mat[rows, cols], grade)


def regular_representation(a) -> np.ndarray:
    """Matrix of ``phi -> sum_h a(h, .) phi(h^{-1} .)`` on functions on G,
    summed into a zero matrix: the dense oracle of ``schatten_map``."""
    grp = a.group
    n = grp.order
    mat = np.zeros((n, n), dtype=complex)
    np.add.at(mat, (np.arange(n)[None, :], grp.add_table[grp.neg_table]), a.values)
    return mat


def dense_kernel(blocks, dim) -> np.ndarray:
    """The kernel vectors of ``(states, coeffs)`` blocks as the rows of one
    ``(count, dim)`` array, in block order."""
    rows = [np.zeros((0, dim), dtype=complex)]
    for states, coeffs in blocks:
        dense = np.zeros((len(states), dim), dtype=complex)
        np.put_along_axis(dense, states, coeffs, axis=1)
        rows.append(dense)
    return np.concatenate(rows)


def full_product_cycles(spec) -> tuple:
    """The analytic and mu index cycles of ``spec`` on the full tensor
    product, cut at ``3 * e_max``: it keeps every combination of
    individually truncated factors, so the algebra actions never leave it
    and the module axioms hold exactly.  Built apart from the memo of
    ``dirac.build_dirac_R``."""
    boson, dual, ferm = dirac.spec_bases(spec)
    space = dirac.TripleSpace([boson, dual, ferm], 3 * spec.e_max)
    analytic = assembly.IndexCycle("analytic", space,
                                   dirac.dirac_sum(space, 2, dirac.dual_legs(space, 1, spec.n_max)),
                                   boson, dual, ferm)
    space = dirac.TripleSpace([ferm, dual, boson], 3 * spec.e_max)
    op, _ = dirac.build_dirac_L(spec, space=space)
    return analytic, assembly.IndexCycle("mu", space, op, boson, dual, ferm)


def radial_quadrature(f, upper: float, rel_tol: float = 1e-12) -> float:
    """Adaptive integral of ``f`` over ``[0, upper]`` by numpy's 80-point
    Gauss-Legendre rule on panels whose count doubles until two refinements
    agree to ``rel_tol``; raises if that does not happen within 24
    doublings."""
    nodes, weights = np.polynomial.legendre.leggauss(80)

    def on_panels(npanels):
        edges = np.linspace(0.0, upper, npanels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * float(np.sum(weights * f(x)))
        return total

    prev = on_panels(1)
    npanels = 2
    for _ in range(24):
        cur = on_panels(npanels)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1.0):
            return cur
        prev, npanels = cur, npanels * 2
    raise RuntimeError(f"quadrature did not converge to {rel_tol} on [0, {upper}]")
