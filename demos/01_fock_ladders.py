#!/usr/bin/env python3
"""Truncated Fock spaces and their ladder algebra.

Builds the boson, dual-boson and fermion bases inside a finite mode/energy
window, then walks through the defining operator identities: canonical
commutation relations on the safe subspace, anticommutation relations on
the full spinor space, and the two diagonal-operator sum formulas.
"""

import numpy as np

from kkindex import fock
from kkindex.opcore import SparseOperator, graded_commutator


def monomial(basis, label):
    """The coordinates of the basis vector of ``label``."""
    coords = np.zeros(basis.dim, dtype=complex)
    coords[basis.labels.index(label)] = 1.0
    return coords


spec = fock.TruncationSpec(n_max=3, e_max=6)
boson = fock.enumerate_basis(spec, "boson")
ferm = fock.enumerate_basis(spec, "fermion")

print(f"window: modes <= {spec.n_max}, weighted energy <= {spec.e_max}")
print(f"boson basis: {boson.dim} monomials, fermion basis: {ferm.dim} wedge states")
print()

v = monomial(boson, (2, 1, 0))
print("the monomial z1^2 z2 has squared norm 2! * 1! =",
      np.vdot(v, boson.gram * v).real)

raise1 = fock.boson_raise(boson, 1)
lower1 = fock.boson_lower(boson, 1)
state = monomial(boson, (2, 0, 0))
print("lowering z1^2 gives coefficient",
      (lower1.to_dense() @ state)[boson.labels.index((1, 0, 0))], "on z1")

comm = graded_commutator(raise1, lower1).to_dense()
devs = []
for j in fock.safe_indices(boson, 1):
    w = monomial(boson, boson.labels[j])
    diff = comm @ w - w
    devs.append(np.sqrt(np.sum(boson.gram * np.abs(diff) ** 2)))
print(f"[raise_1, lower_1] = id on the safe subspace: max deviation {max(devs):.2e}")
print()

wedge2 = fock.clifford(ferm, 2, "antiholo")
holo2 = fock.clifford(ferm, 2, "holo")
anti = graded_commutator(holo2, wedge2)
target = SparseOperator.identity(ferm).scale(-2.0)
print(f"{{gamma(z_2), gamma(zbar_2)}} = -2 id exactly: "
      f"max deviation {(anti - target).max_abs():.2e}")

total = SparseOperator.zero(boson)
for n in range(1, 4):
    total = total + (fock.boson_raise(boson, n)
                     @ fock.boson_lower(boson, n)).scale(float(n))
residual = (fock.energy_op(boson) - total.scale(-1j)).max_abs()
print(f"energy  = -i sum_n n raise_n lower_n:  residual {residual:.2e}")

totf = SparseOperator.zero(ferm)
for n in range(1, 4):
    totf = totf + (fock.clifford(ferm, n, "antiholo")
                   @ fock.clifford(ferm, n, "holo")).scale(float(n))
residual = (fock.number_op(ferm) + totf.scale(0.5)).max_abs()
print(f"number  = -1/2 sum_n n wedge_n contr_n: residual {residual:.2e}")

print()
print("fermion weights (spectrum of the number operator):")
from kkindex.opcore import spectrum
print(" ", np.round(spectrum(fock.number_op(ferm)), 10))
