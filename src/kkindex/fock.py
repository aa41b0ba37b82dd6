"""Truncated boson/dual-boson symmetric algebras and the fermion spinor space.

Basis labels are fixed-width integer tuples over modes ``1..n_max``:

* boson / dual boson: ``(k_1, ..., k_nmax)`` occupation numbers, weighted
  energy ``sum n*k_n <= e_max``, squared norm ``prod k_n!``,
* fermion: 0/1 tuples for strictly increasing index sets, energy
  ``sum of occupied modes``, squared norm 1, parity = occupation count mod 2.

Ladder conventions (all matrix elements integral in this Gram):

* ``boson_raise(n)``:  ``z^k -> z^(k+e_n)``  with coefficient ``+1``,
* ``boson_lower(n)``:  ``z^k -> -k_n z^(k-e_n)``,
* ``dual_raise(n)``:   ``zbar^k -> zbar^(k+e_n)`` with coefficient ``+1``,
* ``dual_lower(n)``:   ``zbar^k -> -k_n zbar^(k-e_n)``,
* ``energy_op``:       diagonal ``i * sum n*k_n``,
* ``clifford(n, 'antiholo')``: ``sqrt(2)``-weighted exterior multiplication,
* ``clifford(n, 'holo')``:     ``-sqrt(2)``-weighted contraction,
* ``number_op``:       diagonal ``sum of occupied modes``.

Raising out of the energy window is projected to zero: every operator is a
compression, and :func:`safe_indices` names the columns where that projection
cannot bite.

:func:`window_counts` counts the product states of an energy window by
weighted energy, without enumerating them.

:func:`enumerate_basis`, the ladders and :func:`clifford` are built once
per process (``functools.cache``; bases are keyed by label and
Gram equality) and the same read-only values are handed to every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .opcore import Basis, SparseOperator, energy_product, shift_op

__all__ = [
    "TruncationSpec",
    "enumerate_basis",
    "window_counts",
    "boson_raise",
    "boson_lower",
    "dual_raise",
    "dual_lower",
    "energy_op",
    "clifford",
    "number_op",
    "safe_indices",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Finite window: max mode ``n_max``, max weighted energy ``e_max``."""

    n_max: int
    e_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.e_max < 0:
            raise ValueError("e_max must be >= 0")


@functools.cache
def enumerate_basis(spec: TruncationSpec, kind: str) -> Basis:
    """Truncated basis of the requested kind, in lexicographic label order,
    built once per process."""
    modes, e_max = range(1, spec.n_max + 1), spec.e_max
    if kind in ("boson", "dual_boson"):
        occ, energy = energy_product([n * np.arange(e_max // n + 1) for n in modes], e_max)
        factorial = np.array([float(math.factorial(k)) for k in range(occ.max() + 1)])
        gram = np.ones(len(occ))
        for col in occ.T:
            gram = gram * factorial[col]
        return Basis(occ, gram, energy=energy)
    if kind == "fermion":
        occ, energy = energy_product([(0, n) for n in modes], e_max)
        return Basis(occ, np.ones(len(occ)), energy=energy, parity=occ.sum(axis=1) % 2)
    raise ValueError(f"unknown basis kind {kind!r}")


def window_counts(spec: TruncationSpec, kinds) -> list:
    """Exact number of states of the product of the ``kinds`` bases of
    ``spec`` at each weighted energy ``0 .. e_max``, counted without
    enumerating them.  Python ints, since the counts pass int64 long before
    enumeration becomes possible."""
    counts = [1] + [0] * spec.e_max
    for n in range(1, spec.n_max + 1):
        for kind in kinds:
            if kind == "fermion":  # mode n at most once
                for e in range(spec.e_max, n - 1, -1):
                    counts[e] += counts[e - n]
            else:  # mode n any number of times
                for e in range(n, spec.e_max + 1):
                    counts[e] += counts[e - n]
    return counts


@functools.cache
def boson_raise(basis: Basis, n: int, codomain: Basis = None) -> SparseOperator:
    """Multiplication by the mode-``n`` generator: ``z^k -> z^(k+e_n)``."""
    return shift_op(basis, codomain or basis, n - 1, 1, 1.0)


@functools.cache
def boson_lower(basis: Basis, n: int, codomain: Basis = None) -> SparseOperator:
    """Derivation against mode ``n``: ``z^k -> -k_n z^(k-e_n)``."""
    occupations = basis.label_array[:, n - 1].astype(float)
    return shift_op(basis, codomain or basis, n - 1, -1, -occupations)


# the dual symmetric algebra uses the same integral coefficients; only the
# interpretation (functionals instead of monomials) differs
dual_raise = boson_raise
dual_lower = boson_lower


def energy_op(basis: Basis) -> SparseOperator:
    """Diagonal rotation generator ``i * (weighted energy)``."""
    diag = np.arange(basis.dim)
    return SparseOperator(basis, basis, diag, diag, 1j * basis.energy, "even")


@functools.cache
def clifford(basis: Basis, n: int, kind: str) -> SparseOperator:
    """Clifford generator on the fermion basis.

    ``kind='antiholo'`` wedges mode ``n`` with coefficient ``sqrt(2)``;
    ``kind='holo'`` contracts it with coefficient ``-sqrt(2)``.  Both carry
    the Koszul sign ``(-1)^(#occupied modes below n)`` and odd grade.
    """
    if kind not in ("holo", "antiholo"):
        raise ValueError("kind must be 'holo' or 'antiholo'")
    below = basis.label_array[:, :n - 1].sum(axis=1)
    coeff = np.sqrt(2.0) * np.where(below % 2, -1.0, 1.0)
    if kind == "antiholo":
        return shift_op(basis, basis, n - 1, 1, coeff, "odd")
    return shift_op(basis, basis, n - 1, -1, -coeff, "odd")


def number_op(basis: Basis) -> SparseOperator:
    """Diagonal weighted count ``sum of occupied modes`` on the fermion basis."""
    diag = np.arange(basis.dim)
    return SparseOperator(basis, basis, diag, diag, basis.energy, "even")


def safe_indices(basis: Basis, margin: int, cap: float = None):
    """Indices whose energy stays at least ``margin`` below the truncation.

    On these columns every raise-by-``<= margin`` path stays inside the
    basis, so ladder identities hold without compression artifacts.  ``cap``
    defaults to the largest energy present.
    """
    if cap is None:
        cap = max(basis.energy) if basis.dim else 0
    return np.flatnonzero(basis.energy <= cap - margin)
