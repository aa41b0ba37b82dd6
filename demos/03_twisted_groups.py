#!/usr/bin/env python3
"""Twisted group algebras at desk scale.

A finite abelian group with a pairing cocycle stands in for the loop group:
the circle fiber becomes m-th roots of unity, levels become exact character
sums, and the crossed product of the group acting on itself becomes the
full matrix algebra through the Schatten map.
"""

import numpy as np

from kkindex import twistgroup as tg

grp = tg.FiniteAbelianGroup((3, 3))
tau = tg.heisenberg_cocycle(grp)  # omega^(b c), omega a cube root of unity
print(f"group {grp!r}, cocycle violations: {len(tg.check_cocycle(tau))}")
print(f"twisted algebra blocks: {tg.decompose_twisted_algebra(grp, tau)}"
      " (a single full matrix block: the twist is nondegenerate)")
print()

ext = tg.TwistedExtension(tau)
rng = np.random.default_rng(1)
f1 = tg.GroupAlgebraElement(ext, rng.standard_normal(grp.order)
                            + 1j * rng.standard_normal(grp.order), 1)
f0 = tg.GroupAlgebraElement(ext, rng.standard_normal(grp.order)
                            + 1j * rng.standard_normal(grp.order), 0)
print("level-1 * level-0 convolution:", tg.convolve(f1, f0).max_abs(),
      "(exact zero by fiber character orthogonality)")
print("level-1 * level-1 stays level", tg.convolve(f1, f1).level)
print()

# Mishchenko cut-off and the Schatten picture
cut = tg.mishchenko(grp, np.full(grp.order, 1.0 / grp.order))
sq = tg.crossed_convolve(cut, cut)
print("cut-off idempotent: max |[c]*[c] - [c]| =",
      float(np.max(np.abs(sq.values - cut.values))))
mat = tg.schatten_map(cut).to_dense()
print("its Schatten image has rank", np.linalg.matrix_rank(mat),
      "and trace", np.trace(mat).real)

a = tg.CrossedProductElement.translation(
    grp, rng.standard_normal((grp.order, grp.order))
    + 1j * rng.standard_normal((grp.order, grp.order)))
b = tg.CrossedProductElement.translation(
    grp, rng.standard_normal((grp.order, grp.order))
    + 1j * rng.standard_normal((grp.order, grp.order)))
lhs = tg.schatten_map(tg.crossed_convolve(a, b)).to_dense()
rhs = tg.schatten_map(a).to_dense() @ tg.schatten_map(b).to_dense()
print("Schatten map is multiplicative: deviation",
      float(np.max(np.abs(lhs - rhs))))
