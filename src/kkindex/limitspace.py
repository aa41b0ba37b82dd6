"""Inductive-limit model of the based-loop function space.

Each loop mode is a two-dimensional oscillator carried in circular ladder
coordinates ``(q+, q-)`` (unitarily the plane Hermite basis); the translation
generators are the exact ladder combinations

    dR_z    = (a_-  - a_+^dag) / sqrt(2),
    dR_zbar = (a_+  - a_-^dag) / sqrt(2),

skew-adjoint and commuting.  The distinguished unit vectors ``Xi_sigma``
(plane transforms of normalized disk indicators) are rotation invariant, so
they live on the diagonal ``(k, k)`` sector and reduce to one-dimensional
Laguerre overlap integrals:

    xi_k(sigma) = (1/sigma) * integral_0^{sigma^2} L_k(u) exp(-u/2) du.

Those coefficients are exact integrals: a Laguerre recurrence in a Python
loop, summed into one float64 buffer by numpy.
They decay like ``k^(-3/4)`` (the disk indicator is discontinuous), so
truncated tail masses shrink only like ``h_max^(-1/2)``; the ladder-matrix
route is therefore validated against its a-priori truncation error, next to
a quadrature of the closed radial form.  Frozen tail modes enter every
computation only through the scalars ``|Xi| = 1``, ``<Xi, dR_z Xi> = 0``
and ``|dR_z Xi_sigma| = sigma/2``.

:func:`mode_basis` and the two translation generators are built once per
process (``functools.cache``) and shared read-only.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass

import numpy as np

from . import opcore
from .opcore import Basis, SparseOperator, shift_op

__all__ = [
    "SigmaSequence",
    "ModeFunction",
    "mode_basis",
    "dRz_matrix",
    "dRzbar_matrix",
    "xi_coeffs",
    "dRz_norm_quadrature",
    "dRz_norm_details",
    "tail_bound",
    "frozen_tail_dirac_norm",
    "translation_legs",
]


class SigmaSequence:
    """Mode-size sequence with an analytic rule or an explicit finite list."""

    def __init__(self, rule="pow2", values=None):
        if rule not in ("pow2", "harmonic", "explicit"):
            raise ValueError(f"unknown sigma rule {rule!r}")
        self.rule = rule
        if rule == "explicit":
            self.values = tuple(float(v) for v in (values or ()))
            if not self.values or not all(0 < v < np.inf for v in self.values):
                raise ValueError("explicit sigma list must be finite, positive and nonempty")
        else:
            self.values = None

    def sigma(self, k: int) -> float:
        if k < 1:
            raise IndexError("modes are indexed from 1")
        if self.rule == "pow2":
            return 2.0 ** (-k)
        if self.rule == "harmonic":
            return 1.0 / k
        if k > len(self.values):
            raise IndexError(f"explicit sigma list has no mode {k}")
        return self.values[k - 1]

    @property
    def convergent(self) -> bool:
        """Whether ``sum_k sqrt(k) sigma_k < infty`` is known analytically:
        ``pow2`` is dominated by a geometric series, ``harmonic`` gives the
        divergent ``k^(-1/2)`` p-series, and a finite list decides nothing."""
        return self.rule == "pow2"

    @staticmethod
    def parse(text: str) -> "SigmaSequence":
        text = text.strip()
        if text.startswith("list:"):
            vals = [float(tok) for tok in text[5:].split(",") if tok.strip()]
            return SigmaSequence("explicit", vals)
        return SigmaSequence(text)


@dataclass
class ModeFunction:
    """Radial-sector state of one mode: coefficient ``coeffs[k]`` on the
    diagonal ladder state ``(k, k)``, with the recorded truncation error."""

    coeffs: np.ndarray
    deficiency: float

    @property
    def h_max(self) -> int:
        return 2 * (len(self.coeffs) - 1)

    def on_basis(self, basis: Basis) -> np.ndarray:
        """Coordinates on a :func:`mode_basis` of at least ``h_max`` quanta."""
        p, q = basis.label_array.T
        diagonal = np.flatnonzero((p == q) & (p < len(self.coeffs)))
        if len(diagonal) < len(self.coeffs):
            raise ValueError(f"basis lacks some of the diagonal states (k, k), "
                             f"k < {len(self.coeffs)}")
        out = np.zeros(basis.dim, dtype=complex)
        out[diagonal] = self.coeffs[p[diagonal]]
        return out


# ------------------------------------------------------------ mode space


@functools.cache
def mode_basis(h_max: int) -> Basis:
    """Ladder basis ``(q+, q-)`` with total quanta at most ``h_max``, in
    lex order; built once per process."""
    p, t = np.triu_indices(h_max + 1)  # p <= t, row-major
    labels = np.column_stack([p, t - p])  # q = t - p, so p + q <= h_max
    return Basis(labels, np.ones(len(labels)), energy=labels.sum(axis=1))


def _ladder(basis: Basis, pos: int, step: int) -> SparseOperator:
    """Lowering (``step = -1``, coefficient ``sqrt(k)``) or raising
    (``step = 1``, coefficient ``sqrt(k + 1)``) of ladder coordinate ``pos``."""
    k = basis.label_array[:, pos].astype(float)
    return shift_op(basis, basis, pos, step, np.sqrt(k + 1.0) if step > 0 else np.sqrt(k))


@functools.cache
def dRz_matrix(basis: Basis) -> SparseOperator:
    return (_ladder(basis, 1, -1) - _ladder(basis, 0, 1)).scale(1.0 / np.sqrt(2.0))


@functools.cache
def dRzbar_matrix(basis: Basis) -> SparseOperator:
    return (_ladder(basis, 0, -1) - _ladder(basis, 1, 1)).scale(1.0 / np.sqrt(2.0))


# the adaptive cutoff of :func:`xi_coeffs` stops at this norm deficiency or
# at this many radial modes
XI_TARGET_DEFICIENCY = 5e-3
XI_HARD_CAP = 20_000


def xi_coeffs(sigma: float, h_max: int = None) -> ModeFunction:
    """Diagonal-sector coefficients of the transformed disk indicator,
    ``xi_k = (1/sigma) integral_0^{sigma^2} L_k(u) e^{-u/2} du``.

    With ``h_max`` given, uses radial modes ``k <= h_max // 2``; otherwise
    grows the cutoff until the norm deficiency drops below
    :data:`XI_TARGET_DEFICIENCY` or the cutoff reaches :data:`XI_HARD_CAP`,
    continuing the recurrence where the last cutoff stopped.
    The coefficients decay like ``k^(-3/4)`` (sharp disk edge), so the
    deficiency shrinks only like ``k^(-1/2)``: the reachable deficiency is a
    few 1e-3, not machine zero.

    Raises ``ValueError`` when ``sigma^2`` overflows the recurrence (the
    coefficients are not finite) or underflows it (they all vanish).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    # With a = sigma^2 the integrals I_k obey I_k + I_(k-1) = -2 e^{-a/2}
    # (L_k(a) - L_(k-1)(a)) (differentiate e^{-u/2} (L_k - L_(k-1))), and
    # L_k - L_(k-1) = -(a/k) L^(1)_(k-1) with the associated Laguerre
    # polynomial L^(1); that form has no cancellation at small a.  (-1)^k I_k
    # sums the sign-flipped terms in order: bit for bit I_k = -I_(k-1) + t_k.
    a = float(sigma) * float(sigma)
    damp = float(2.0 * np.exp(-a / 2.0))
    carry = float(-2.0 * np.expm1(-a / 2.0))  # (-1)^k I_k at the last k done
    store = array("d", [carry / sigma])  # xi_k, then L^(1)_(k-1)(a) past the last cut
    l1_prev, l1 = 0.0, 1.0  # L^(1)_(k-2)(a), L^(1)_(k-1)(a)
    kmax = 256 if h_max is None else max(h_max // 2, 0)
    with np.errstate(all="ignore"):  # an out-of-range sigma is refused below
        while True:
            done, chunk = len(store), opcore.BLOCK_ELEMENTS // 64  # 8 KB a float list
            for start in range(done, kmax + 1, chunk):
                k = np.arange(start, min(start + chunk, kmax + 1), dtype=float)
                for kf, c in zip(k.tolist(), (2.0 * k - a).tolist()):
                    store.append(l1)
                    l1_prev, l1 = l1, (c * l1 - kf * l1_prev) / kf
                np.frombuffer(store)[start:] *= damp * (a / k)  # the terms t_k
            coeffs = np.frombuffer(store)
            new, odd = coeffs[done:], coeffs[done | 1::2]  # odd: the new entries of odd k
            np.negative(odd, out=odd)
            new[:1] += carry
            np.add.accumulate(new, out=new)
            carry = float(new[-1]) if len(new) else carry
            np.negative(odd, out=odd)
            new /= sigma
            norm_sq = float(np.add.reduce(coeffs * coeffs))  # no BLAS: no thread split
            if not (norm_sq > 0.0 and np.isfinite(norm_sq)):
                raise ValueError(f"sigma={sigma!r}: the Xi coefficients up to radial mode "
                                 f"{kmax} {'vanish' if norm_sq == 0.0 else 'are not finite'}; "
                                 f"sigma^2 is out of the Laguerre recurrence's range")
            deficiency = max(1.0 - norm_sq, 0.0)
            if h_max is not None or deficiency < XI_TARGET_DEFICIENCY or kmax >= XI_HARD_CAP:
                return ModeFunction(coeffs, deficiency)
            kmax = min(4 * kmax, XI_HARD_CAP)
            del coeffs, new, odd  # views of ``store``, which grows next


# per-mode quanta cutoff of the Xi vectors whose overlap ``xi_norms`` reads
XI_H_MAX = 64


def xi_overlap_dRz(mode: ModeFunction) -> complex:
    """``<Xi, dR_z Xi>`` measured on the ladder basis.

    Rotation invariance puts the image in the angular sectors adjacent to
    the diagonal, so the overlap is an exact zero; computing it through the
    matrix, as a Gram-weighted sum over the operator's entries, keeps that
    claim measured.
    """
    basis = mode_basis(mode.h_max + 2)
    c = mode.on_basis(basis)
    op = dRz_matrix(basis)
    return complex(np.sum(np.conj(c[op.rows]) * basis.gram[op.rows] * op.vals * c[op.cols]))


def _dRz_norm_hermite(mode: ModeFunction) -> float:
    """Norm of the truncated ladder matrix applied to the truncated
    coefficient vector: the surviving image components on the ``(j, j-1)``
    states are ``sqrt(j/2) (xi_j - xi_(j-1))``."""
    xi = mode.coeffs
    terms = np.subtract(xi[1:], xi[:-1])
    terms *= terms
    half_j = np.arange(1, len(xi), dtype=float)
    half_j *= 0.5
    terms *= half_j
    return float(np.sqrt(np.sum(terms)))


def dRz_norm_quadrature(sigma: float) -> float:
    """``|dR_z Xi_sigma|`` (equal to ``sigma / 2``) by quadrature of
    ``(r^2/2) chi_sigma^2`` over the disk: the radial cubic ``r^3 / sigma^2``
    on ``[0, sigma]``, which the two-point Gauss-Legendre rule (nodes
    ``sigma/2 (1 -+ 1/sqrt(3))``, weights ``sigma/2``) integrates exactly."""
    half = 0.5 * sigma
    r = half * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    return float(np.sqrt(half * np.sum(
        (r ** 2 / 2.0) * (1.0 / (np.pi * sigma ** 2)) * 2.0 * np.pi * r)))


def dRz_norm_details(sigma: float):
    """Both routes to ``|dR_z Xi_sigma|`` plus the ladder-route error bound.

    Returns ``(quadrature, hermite, hermite_error_bound, deficiency)``: the
    :func:`dRz_norm_quadrature` value, and the ladder route, which applies
    the adaptively cut coefficient vector and is accurate only up to the
    weighted tail, bounded by ``sigma * sqrt(deficiency)`` in the worst case.
    """
    mode = xi_coeffs(sigma)
    hermite = _dRz_norm_hermite(mode)
    # the discarded weighted tail is asymptotically (sigma^2/2) * deficiency
    # in norm squared, i.e. ~ sigma * deficiency / 2 in norm; factor 4 slack
    err_bound = 2.0 * sigma * mode.deficiency
    return dRz_norm_quadrature(sigma), float(hermite), float(err_bound), mode.deficiency


# ------------------------------------------------------------ summability


def tail_bound(m: int, seq: SigmaSequence) -> float:
    """``sum_{n > m} 2 sqrt(2 n) sigma_n`` summed until increments drop
    below 1e-15; requires a convergent analytic rule."""
    if not seq.convergent:
        raise ValueError("tail bound needs a convergent sigma rule")
    total, n = 0.0, m + 1
    while True:
        term = 2.0 * np.sqrt(2.0 * n) * seq.sigma(n)
        total += term
        n += 1
        if term < 1e-15:
            return total


def frozen_tail_dirac_norm(m: int, seq: SigmaSequence, n_cut: int = None) -> float:
    """Norm of the Dirac sum over modes ``m < n <= n_cut`` (default: all)
    on a fully frozen vector ``Xi x vacuum-spinor``.

    Mode ``n`` contributes the orthogonal component
    ``sqrt(n) * dR_z Xi_(sigma_n) x sqrt(2) zbar_n``, so the norm is
    ``sqrt( sum_n 2 n |dR_z Xi_n|^2 )`` with the closed-form per-mode norms
    ``sigma_n / 2`` (checked against quadrature by :func:`dRz_norm_details`);
    always below :func:`tail_bound`.
    """
    total, n = 0.0, m + 1
    while n_cut is None or n <= n_cut:
        term = 2.0 * n * (seq.sigma(n) / 2.0) ** 2
        total += term
        n += 1
        if n_cut is None and term < 1e-30:
            break
    return float(np.sqrt(total))


# ------------------------------------------------------------ operators


def translation_legs(space, m_active: int) -> list:
    """Legs ``(dR_zbar, dR_z)`` of the first ``m_active`` (mode) factors of
    ``space`` for :func:`dirac.dirac_sum`."""
    return [(n - 1, dRzbar_matrix(space.factors[n - 1]), dRz_matrix(space.factors[n - 1]))
            for n in range(1, m_active + 1)]
