"""Basis vectors, Gram inner products and norms, the vector arithmetic the
tests do on coordinate arrays, and the densified kernel blocks of
``kkindex.dirac.kernel``."""

import numpy as np


def unit(basis, label) -> np.ndarray:
    """The coordinates of the basis vector of ``label``."""
    coords = np.zeros(basis.dim, dtype=complex)
    coords[basis.index(label)] = 1.0
    return coords


def inner(basis, v, w) -> complex:
    """Gram inner product ``sum_i gram_i conj(v_i) w_i``."""
    return complex(np.vdot(v, basis.gram * w))


def norm(basis, coords) -> float:
    """Gram norm ``sqrt(sum_i gram_i |coords_i|^2)``."""
    return float(np.sqrt(np.sum(basis.gram * np.abs(coords) ** 2)))


def dense_kernel(blocks, dim) -> np.ndarray:
    """The kernel vectors of ``(states, coeffs)`` blocks as the rows of one
    ``(count, dim)`` array, in block order."""
    rows = [np.zeros((0, dim), dtype=complex)]
    for states, coeffs in blocks:
        dense = np.zeros((len(states), dim), dtype=complex)
        np.put_along_axis(dense, states, coeffs, axis=1)
        rows.append(dense)
    return np.concatenate(rows)
