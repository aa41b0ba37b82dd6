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

Raising out of the energy window is projected to zero by default; the lossy
columns are recorded so strict-mode application can refuse instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .opcore import Basis, SparseOperator

__all__ = [
    "TruncationSpec",
    "enumerate_basis",
    "boson_raise",
    "boson_lower",
    "dual_raise",
    "dual_lower",
    "energy_op",
    "clifford",
    "number_op",
    "basis_csv",
    "safe_indices",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Finite window: max mode ``n_max``, max weighted energy ``e_max``,
    Hermite cutoff ``h_max`` (None = adaptive), comparison tolerance."""

    n_max: int
    e_max: int
    h_max: int | None = None
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.e_max < 0:
            raise ValueError("e_max must be >= 0")


def _occupation_labels(n_max: int, e_max: int):
    """All occupation tuples with weighted energy <= e_max, lex order."""
    ranges = [range(e_max // n + 1) for n in range(1, n_max + 1)]
    out = []
    for tup in product(*ranges):
        if sum(n * k for n, k in zip(range(1, n_max + 1), tup)) <= e_max:
            out.append(tup)
    out.sort()
    return out


def enumerate_basis(spec: TruncationSpec, kind: str) -> Basis:
    """Deterministically ordered truncated basis of the requested kind."""
    n_max, e_max = spec.n_max, spec.e_max
    if kind in ("boson", "dual_boson"):
        labels = _occupation_labels(n_max, e_max)
        gram = [np.prod([float(math.factorial(k)) for k in lab]) for lab in labels]
        energy = [sum(n * k for n, k in zip(range(1, n_max + 1), lab)) for lab in labels]
        return Basis(labels, gram, energy=energy, name=kind)
    if kind == "fermion":
        labels = [tup for tup in product((0, 1), repeat=n_max)
                  if sum(n * b for n, b in zip(range(1, n_max + 1), tup)) <= e_max]
        labels.sort()
        energy = [sum(n * b for n, b in zip(range(1, n_max + 1), lab)) for lab in labels]
        parity = [sum(lab) % 2 for lab in labels]
        return Basis(labels, np.ones(len(labels)), energy=energy, parity=parity, name=kind)
    raise ValueError(f"unknown basis kind {kind!r}")


def _shift_op(domain: Basis, codomain: Basis, n: int, raise_mode: bool, lower_coeff) -> SparseOperator:
    """Single-mode shift with per-column coefficients; records lossy columns."""
    entries, lossy = {}, set()
    pos = n - 1
    for j, lab in enumerate(domain.labels):
        k = lab[pos]
        if raise_mode:
            target = lab[:pos] + (k + 1,) + lab[pos + 1:]
            coeff = 1.0
        else:
            if k == 0:
                continue
            target = lab[:pos] + (k - 1,) + lab[pos + 1:]
            coeff = lower_coeff(k)
        if target in codomain:
            entries[(codomain.index(target), j)] = coeff
        else:
            lossy.add(j)
    return SparseOperator(domain, codomain, entries, "even", lossy)


def boson_raise(basis: Basis, n: int, codomain: Basis = None) -> SparseOperator:
    """Multiplication by the mode-``n`` generator: ``z^k -> z^(k+e_n)``."""
    return _shift_op(basis, codomain or basis, n, True, None)


def boson_lower(basis: Basis, n: int, codomain: Basis = None) -> SparseOperator:
    """Derivation against mode ``n``: ``z^k -> -k_n z^(k-e_n)``."""
    return _shift_op(basis, codomain or basis, n, False, lambda k: -float(k))


# the dual symmetric algebra uses the same integral coefficients; only the
# interpretation (functionals instead of monomials) differs
dual_raise = boson_raise
dual_lower = boson_lower


def energy_op(basis: Basis) -> SparseOperator:
    """Diagonal rotation generator ``i * (weighted energy)``."""
    return SparseOperator(
        basis, basis,
        {(i, i): 1j * basis.energy[i] for i in range(basis.dim) if basis.energy[i]},
        "even")


def clifford(basis: Basis, n: int, kind: str) -> SparseOperator:
    """Clifford generator on the fermion basis.

    ``kind='antiholo'`` wedges mode ``n`` with coefficient ``sqrt(2)``;
    ``kind='holo'`` contracts it with coefficient ``-sqrt(2)``.  Both carry
    the Koszul sign ``(-1)^(#occupied modes below n)`` and odd grade.
    """
    if kind not in ("holo", "antiholo"):
        raise ValueError("kind must be 'holo' or 'antiholo'")
    entries, lossy = {}, set()
    pos = n - 1
    root2 = np.sqrt(2.0)
    for j, lab in enumerate(basis.labels):
        sign = -1.0 if sum(lab[:pos]) % 2 else 1.0
        if kind == "antiholo":
            if lab[pos]:
                continue
            target = lab[:pos] + (1,) + lab[pos + 1:]
            coeff = root2 * sign
        else:
            if not lab[pos]:
                continue
            target = lab[:pos] + (0,) + lab[pos + 1:]
            coeff = -root2 * sign
        if target in basis:
            entries[(basis.index(target), j)] = coeff
        else:
            lossy.add(j)
    return SparseOperator(basis, basis, entries, "odd", lossy)


def number_op(basis: Basis) -> SparseOperator:
    """Diagonal weighted count ``sum of occupied modes`` on the fermion basis."""
    return SparseOperator(
        basis, basis,
        {(i, i): complex(basis.energy[i]) for i in range(basis.dim) if basis.energy[i]},
        "even")


def basis_csv(basis: Basis) -> str:
    """CSV dump: state encoding, weighted energy, Gram weight."""
    lines = ["# kk-index-lab v1", "state,energy,gram"]
    for i, lab in enumerate(basis.labels):
        enc = "".join(str(int(x)) for x in lab)
        lines.append(f"{enc},{basis.energy[i]:g},{basis.gram[i]:.17g}")
    return "\n".join(lines) + "\n"


def safe_indices(basis: Basis, margin: int, cap: float = None):
    """Indices whose energy stays at least ``margin`` below the truncation.

    On these columns every raise-by-``<= margin`` path stays inside the
    basis, so ladder identities hold without compression artifacts.  ``cap``
    defaults to the largest energy present.
    """
    if cap is None:
        cap = max(basis.energy) if basis.dim else 0
    return [i for i in range(basis.dim) if basis.energy[i] <= cap - margin]
