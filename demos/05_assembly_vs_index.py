#!/usr/bin/env python3
"""The headline comparison: compressing the descended cycle by the cut-off
projection reproduces the mirror Dirac, and the transpose flip identifies
the result with the analytic-index cycle.

All three steps are exact at every truncation: the compression scalars
vanish by rotation invariance, the leg flip is a label bijection, and both
Dirac operators conserve the energy that defines the window.
"""

import numpy as np

from kkindex import assembly, dirac, fock, limitspace, twistgroup
from kkindex.opcore import adjoint

spec = fock.TruncationSpec(n_max=3, e_max=8)
seq = limitspace.SigmaSequence("pow2")

# three mode bases of at most 2 quanta each, times fermion x dual
cycle = assembly.materialize_j_cycle(spec, m_active=3, seq=seq, h_op=2)
print(f"descended cycle at (N=3, E=8, M=3, pow2): dim {cycle.space.dim}, "
      f"{cycle.rest.dim} rest states")
v = cycle.isometry
print("  entries of the free part compressed by Xi (the scalars <Xi, dR Xi>):",
      (adjoint(v) @ cycle.d_part @ v).nnz)

compressed = assembly.assemble(cycle)
dl, _ = dirac.build_dirac_L(spec, space=cycle.rest)
print(f"  compression by Xi vs independent mirror Dirac: "
      f"max entry difference {(compressed - dl).max_abs():.2e}")
print()

analytic = assembly.analytic_index(spec)
mu = assembly.mu_index(spec)
report = assembly.compare_indices(analytic, mu)
print(f"index comparison on a {analytic.space.dim}-dimensional module:")
for quantity, value, tol in report.rows:
    print(f"  {quantity:32s} {value:.3e}  (tolerance {tol:.0e})")
print()

# the zero-dimensional model: a finite group in place of the loop group
grp = twistgroup.FiniteAbelianGroup((3, 3))
tau = twistgroup.heisenberg_cocycle(grp)
fin = assembly.finite_group_assembly(grp, tau)
print(f"finite-group model on {grp!r}: compressed vs direct spectra "
      f"within {fin.deviation:.2e}, compressed cross term {fin.compressed_cross:.2e}")
print("  compressed eigenvalues:", np.round(fin.compressed_spectrum, 6))

rows = assembly.level_vanishing_pattern(grp, tau)
print("  cut-off pairing per module level:",
      {level: f"{value:.1e}" for level, value, _ in rows})
