#!/usr/bin/env python3
"""The distinguished mode vectors and the summability that tames the
infinite-mode Dirac sum.

Each mode carries the plane transform of a normalized disk indicator: a
rotation-invariant unit vector whose derivative norm is exactly sigma/2.
Freezing all modes beyond a window M leaves a Dirac tail whose norm is
dominated by the analytic bound sum_(n>M) 2 sqrt(2n) sigma_n.
"""

from kkindex import limitspace as ls

seq = ls.SigmaSequence("pow2")
print(f"sigma rule pow2: sum sqrt(k) sigma_k convergent {seq.convergent} "
      "(geometric dominance)")
print(f"sigma rule 1/k: convergent {ls.SigmaSequence('harmonic').convergent} "
      "(terms k^-1/2)")
print()

for sigma in (1.0, 0.5, 2.0 ** -3):
    quad, hermite, err_bound, deficiency = ls.dRz_norm_details(sigma)
    print(f"sigma = {sigma}")
    print(f"  |dR_z Xi| by quadrature      {quad:.9f}  (closed form {sigma/2})")
    print(f"  |dR_z Xi| by ladder matrices {hermite:.9f}  "
          f"(truncation error bound {err_bound:.1e})")
    print(f"  coefficient-tail deficiency  {deficiency:.3e}  "
          "(the disk edge makes this shrink only like h^-1/2)")
print()

print("tail table (window M, analytic bound, measured frozen Dirac norm):")
for m in range(3, 9):
    print(f"  M={m}  {ls.tail_bound(m, seq):.6f}  {ls.frozen_tail_dirac_norm(m, seq):.6f}")
print()

mode = ls.xi_coeffs(0.5, h_max=64)
print("overlap <Xi, dR_z Xi> =", ls.xi_overlap_dRz(mode),
      "(rotation invariance, exact)")
