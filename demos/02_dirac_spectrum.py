#!/usr/bin/env python3
"""The mirror Dirac pair, its square and its kernel.

The operator on boson x dual x fermion conserves the combined dual + spinor
energy, so its truncation is leak-free: the square identity is exact, the
spectrum is the even lattice 2 (spinor weight + dual energy) with counted
multiplicities, and the kernel is exactly the vacuum column.
"""

import numpy as np

from kkindex import dirac, fock
from kkindex.opcore import block_spectrum, eigh_gram, spectrum

spec = fock.TruncationSpec(n_max=3, e_max=5)
dR, space = dirac.build_dirac_R(spec)
print(f"triple space dimension {space.dim}, operator entries {dR.nnz}")

residual = dirac.weitzenbock_residual(spec)
print(f"dirac^2 - 2(number + energy/i): max entry {residual:.2e}")
print()

print("spectrum of dirac^2 against shell counting:")
for value, mult, predicted, match in dirac.spectrum_with_prediction(dR, spec):
    flag = "ok" if match else "MISMATCH"
    print(f"  eigenvalue {value:5.1f}  multiplicity {mult:4d}  predicted {predicted:4d}  {flag}")

# the kernel comes as (states, coeffs) blocks, one row per kernel vector
kernel_dim = sum(len(states) for states, _ in dirac.kernel(dR))
print()
print(f"kernel dimension {kernel_dim} = boson state count "
      f"{sum(fock.window_counts(spec, ('boson',)))}")

dL, _ = dirac.build_dirac_L(spec)
dev = np.max(np.abs(spectrum(dR) - spectrum(dL)))
print(f"mirror operator has the same spectrum: max deviation {dev:.2e}")

# the transform in block form, from one eigendecomposition of dR
vals = block_spectrum(dirac.bounded_transform(eigh_gram(dR), dR.domain.gram))
print(f"bounded transform contracts the spectrum into [-1, 1]: "
      f"range [{vals[0]:.4f}, {vals[-1]:.4f}]")

print()
print("per-mode energy estimate (measured ratio vs shell bound):")
report = dirac.per_estimate(spec, n=1)
for lam_sq, lo, lob, hi, hib in report.shells[:5]:
    print(f"  shell {lam_sq:4.1f}: lowering {lo:.4f} <= {lob:.4f}, "
          f"raising {hi:.4f} <= {hib:.4f}")
print(f"  equality attained on single-mode dual monomials: {report.equality_attained}")
