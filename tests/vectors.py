"""Basis vectors and Gram norms, the vector arithmetic the tests do on
coordinate arrays (a ``kkindex.opcore.Vector`` is a basis and its
``coords``)."""

import numpy as np

from kkindex.opcore import Vector


def unit(basis, label) -> Vector:
    """The basis vector of ``label``."""
    coords = np.zeros(basis.dim, dtype=complex)
    coords[basis.index(label)] = 1.0
    return Vector(basis, coords)


def norm(basis, coords) -> float:
    """Gram norm ``sqrt(sum_i gram_i |coords_i|^2)``."""
    return float(np.sqrt(np.sum(basis.gram * np.abs(coords) ** 2)))
