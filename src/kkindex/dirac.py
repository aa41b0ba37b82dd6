"""Dirac operators on truncated triple tensor spaces.

``build_dirac_R`` acts on boson x dual_boson x fermion and
``build_dirac_L`` on fermion x dual_boson x boson, both enumerated with the
sum of component energies bounded by ``e_max``.  Each summand moves weight
``n`` between the dual and fermion factors, so total energy is conserved and
the truncated operators are exact compressions: the square identity

    dirac^2 = 2 * (number + energy/i)

holds entrywise at every truncation, the spectrum is the even lattice
``2 * (fermion weight + dual energy)`` and the kernel is spanned by
``v x vacuum x 1_f``.

Only ``build_dirac_R(spec)`` on the cut of ``spec`` is memoized, so the
two cycles that :mod:`assembly` compares never share an operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fock
from .opcore import (Basis, SparseOperator, eigh_gram, energy_product, expand_runs,
                     spectral_function, spectrum)

__all__ = [
    "TripleSpace",
    "build_dirac_R",
    "build_dirac_L",
    "dirac_sum",
    "dual_legs",
    "spec_bases",
    "weitzenbock_residual",
    "kernel",
    "per_estimate",
    "bounded_transform",
    "spectrum_with_prediction",
]


class TripleSpace:
    """Energy-truncated product of labeled bases.

    A product state is a row of the integer table ``components``
    (dim x factors): one index into each factor basis.  The state is kept
    when the sum of its component energies is at most ``e_max``.  The rows,
    in lexicographic order, are the labels of :attr:`basis`, so states are
    found by its ``index_of``.  Gram and parity multiply across factors, so
    the grading is the fermion parity.  Factor operators are lifted by
    :meth:`lift` and :meth:`embed_factor_op`.
    """

    def __init__(self, factors, e_max: float):
        self.factors = tuple(factors)
        self.e_max = e_max
        self.shape = tuple(b.dim for b in self.factors)
        self.components, energy = energy_product([b.energy for b in self.factors], e_max)
        picked = list(zip(self.factors, self.components.T))
        gram = np.prod([b.gram[c] for b, c in picked], axis=0)
        parity = np.sum([b.parity[c] for b, c in picked], axis=0) % 2
        self.basis = Basis(self.components, gram, energy=energy, parity=parity,
                           factors=self.factors)

    @property
    def dim(self):
        return self.basis.dim

    def lift(self, op: SparseOperator, pos: int, cols):
        """Entries of the lift of factor operator ``op`` on factor ``pos`` in
        the space columns ``cols``: ``(rows, at, vals)``, one per factor
        entry in the column's ``pos`` component, with ``at`` indexing
        ``cols``.  Graded convention: an odd ``op`` acting past earlier
        factors picks up the Koszul sign of their combined parity.  Images
        that leave the truncation are dropped.
        """
        factor = self.factors[pos]
        if op.domain != factor or op.codomain != factor:
            raise ValueError("factor operator basis mismatch")
        # the factor entries of a column are one run of ``op``, which is
        # sorted by column
        counts = np.bincount(op.cols, minlength=factor.dim)
        comp = self.components[cols, pos]
        at, offset = expand_runs(counts[comp])
        entry = (np.cumsum(counts) - counts)[comp[at]] + offset
        targets = self.components[cols[at]]
        targets[:, pos] = op.rows[entry]
        rows = self.basis.index_of(targets)
        z = op.vals[entry]
        if op.grade == "odd":
            pre = np.zeros(len(at), dtype=np.int64)
            for q in range(pos):
                pre += self.factors[q].parity[targets[:, q]]
            z = z * np.where(pre % 2, -1.0, 1.0)
        keep = rows >= 0
        return rows[keep], at[keep], z[keep]

    def embed_factor_op(self, op: SparseOperator, pos: int) -> SparseOperator:
        """Lift a factor operator to the truncated product (:meth:`lift` on
        every column)."""
        rows, cols, z = self.lift(op, pos, np.arange(self.dim))
        return SparseOperator(self.basis, self.basis, rows, cols, z, op.grade)


def spec_bases(spec: fock.TruncationSpec):
    """The truncated ``(boson, dual_boson, fermion)`` bases of ``spec``."""
    boson = fock.enumerate_basis(spec, "boson")
    dual = fock.enumerate_basis(spec, "dual_boson")
    ferm = fock.enumerate_basis(spec, "fermion")
    return boson, dual, ferm


def dirac_sum(space: TripleSpace, ferm_pos: int, legs) -> SparseOperator:
    """``sum_n sqrt(n) (A_n contr_n + wedge_n B_n)`` on ``space``.

    ``legs`` lists ``(pos, A_n, B_n)`` for ``n = 1, 2, ...``: two operators
    on factor ``pos``; ``wedge_n`` / ``contr_n`` are the antiholomorphic /
    holomorphic Clifford generators on factor ``ferm_pos``.  The summands
    have disjoint supports.  ``contr_n`` and ``B_n`` act first, so with
    lowering ``B_n`` the intermediates stay inside the energy cut; an
    intermediate outside it is projected out, as in the product of the
    lifted operators.  Each product is composed as triplets, entry
    ``sqrt(n) (a c)`` for the entries ``c`` of the first factor and ``a`` of
    the second, and the sum is one :class:`SparseOperator`.
    """
    ferm = space.factors[ferm_pos]
    everything = np.arange(space.dim)
    parts = []
    for n, (pos, a_op, b_op) in enumerate(legs, 1):
        rt = np.sqrt(float(n))
        contr = (fock.clifford(ferm, n, "holo"), ferm_pos)
        wedge = (fock.clifford(ferm, n, "antiholo"), ferm_pos)
        for (op1, p1), (op2, p2) in ((contr, (a_op, pos)), ((b_op, pos), wedge)):
            mid, src, c = space.lift(op1, p1, everything)
            rows, at, a = space.lift(op2, p2, mid)
            parts.append((rows, src[at], rt * (a * c[at])))
    if not parts:
        return SparseOperator.zero(space.basis, grade="odd")
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return SparseOperator(space.basis, space.basis, rows, cols, vals, "odd")


def dual_legs(space: TripleSpace, dual_pos: int, n_max: int) -> list:
    """Mirror legs ``(dual_raise(n), dual_lower(n))`` for :func:`dirac_sum`;
    the sum conserves dual + fermion energy."""
    dual = space.factors[dual_pos]
    return [(dual_pos, fock.dual_raise(dual, n), fock.dual_lower(dual, n))
            for n in range(1, n_max + 1)]


def build_dirac_R(spec: fock.TruncationSpec, space: TripleSpace = None):
    """Odd self-adjoint Dirac on boson x dual x fermion (id on the boson leg).

    Returns ``(operator, space)``.  Without a ``space`` the pair on the
    energy cut of ``spec`` is memoized and the same read-only value is
    handed to every caller until ``build_dirac_R.cache_clear()``; a given
    ``space`` is always built afresh.
    """
    if space is None:
        return _spec_dirac_R(spec)
    return dirac_sum(space, 2, dual_legs(space, 1, spec.n_max)), space


@functools.cache
def _spec_dirac_R(spec: fock.TruncationSpec):
    return build_dirac_R(spec, TripleSpace(spec_bases(spec), spec.e_max))


build_dirac_R.cache_clear = _spec_dirac_R.cache_clear


def build_dirac_L(spec: fock.TruncationSpec, space: TripleSpace = None):
    """Mirror Dirac on fermion x dual x boson (id on the boson column leg);
    a given ``space`` may also be the fermion x dual core alone."""
    if space is None:
        boson, dual, ferm = spec_bases(spec)
        space = TripleSpace([ferm, dual, boson], spec.e_max)
    return dirac_sum(space, 0, dual_legs(space, 1, spec.n_max)), space


def weitzenbock_residual(spec: fock.TruncationSpec) -> float:
    """Max entry of ``dirac_R^2 - 2(number + dual energy / i)``; zero up to
    rounding because the Dirac conserves total energy at every truncation."""
    dR, space = build_dirac_R(spec)
    number = space.embed_factor_op(fock.number_op(space.factors[2]), 2)
    denergy = space.embed_factor_op(fock.energy_op(space.factors[1]).scale(-1j), 1)
    residual = (dR @ dR) - (number + denergy).scale(2.0)
    return residual.max_abs()


def kernel(a: SparseOperator):
    """Gram-orthonormal basis of the near-null eigenspace of a self-adjoint
    operator, in the block form of :func:`eigh_gram`.

    Keeps eigenvectors with ``|lambda| <= 1e-9 * max |lambda|`` (spectra
    here are scaled integers, so the scale-relative cut is unambiguous).
    Returns one ``(states, coeffs)`` per block size with kernel vectors:
    kernel vector ``i`` of a pair has the coefficients ``coeffs[i]`` on the
    states ``states[i]`` and is zero elsewhere.
    """
    blocks = eigh_gram(a)
    top = max((float(np.max(np.abs(vals))) for _, vals, _ in blocks), default=0.0)
    cut = 1e-9 * max(top, 1e-300)
    out = []
    for states, vals, vecs in blocks:
        b, m = np.nonzero(np.abs(vals) <= cut)
        if len(b):
            out.append((states[b], vecs[b, :, m]))
    return out


@dataclass
class EstimateReport:
    """Energy-estimate scan: per-shell max ratios against the shell bound."""

    shells: list          # (lambda_sq, max_lower_ratio, lower_bound,
                          #  max_raise_ratio, raise_bound)
    violations: list      # shells where a bound fails
    equality_attained: bool


def per_estimate(spec: fock.TruncationSpec, n: int) -> EstimateReport:
    """Scan ``|dual_lower(n) phi| <= |lambda|/sqrt(2n) |phi|`` over shells.

    ``phi`` runs over dual x fermion product states with
    ``lambda^2 = 2 (dual energy + fermion weight) <= 2 * spec.e_max``.
    The raising bound with the ``+1`` slack is checked alongside.  Ratios are
    the Gram column norms of the actual (rectangular) ladder matrices.
    """
    dual = fock.enumerate_basis(spec, "dual_boson")
    big = fock.enumerate_basis(fock.TruncationSpec(spec.n_max, spec.e_max + n), "dual_boson")
    ferm = fock.enumerate_basis(spec, "fermion")

    def state_ratios(op):
        """``|op phi| / |phi|`` for every dual basis state ``phi``."""
        col_sq = np.bincount(op.cols, big.gram[op.rows] * np.abs(op.vals) ** 2, dual.dim)
        return np.sqrt(col_sq) / np.sqrt(dual.gram)

    lam_sq = 2.0 * (dual.energy[:, None] + ferm.energy[None, :])
    in_scan = lam_sq <= 2.0 * spec.e_max
    pair_dual = np.nonzero(in_scan)[0]
    shells, shell_of = np.unique(lam_sq[in_scan], return_inverse=True)
    bound = np.sqrt(shells) / np.sqrt(2.0 * n)
    low = state_ratios(fock.dual_lower(dual, n, codomain=big))[pair_dual]
    high = state_ratios(fock.dual_raise(dual, n, codomain=big))[pair_dual]
    lo, hi = np.zeros(len(shells)), np.zeros(len(shells))
    np.maximum.at(lo, shell_of, low)
    np.maximum.at(hi, shell_of, high)
    equality = bool(np.any((np.abs(low - bound[shell_of]) <= 1e-12) & (low > 0)))
    violations = shells[(lo > bound + 1e-12) | (hi > bound + 1.0 + 1e-12)].tolist()
    shell_rows = list(zip(shells.tolist(), lo.tolist(), bound.tolist(), hi.tolist(),
                          (bound + 1.0).tolist()))
    return EstimateReport(shell_rows, violations, equality)


def bounded_transform(decomposition, gram):
    """The Baaj-Julg transform ``x -> x / sqrt(1 + x^2)`` in the block form
    of :func:`opcore.spectral_function`, from the :func:`eigh_gram`
    decomposition that also gives the operator's spectrum; contractive, with
    the operator's eigenvectors and so its grade."""
    return spectral_function(decomposition, gram, lambda lam: lam / np.sqrt(1.0 + lam ** 2))


def spectrum_with_prediction(dR: SparseOperator, spec: fock.TruncationSpec):
    """Rows ``(eigenvalue, multiplicity, predicted multiplicity, match)`` for
    ``dR^2``, with ``dR`` the ``dirac_R`` of ``spec``, and multiplicities
    predicted by counting ``2 (dual energy + fermion weight)`` shells with
    :func:`fock.window_counts`, independently of the operator's basis."""
    shells, counts = np.unique(np.round(spectrum(dR @ dR), 8), return_counts=True)
    measured = {s: c for s, c in zip(shells.tolist(), counts.tolist())}
    # each (dual, fermion) state pair at energy e heads one state per boson
    # state that fits under the remaining energy
    pairs = fock.window_counts(spec, ("dual_boson", "fermion"))
    bosons = fock.window_counts(spec, ("boson",))
    predicted = {2.0 * e: pairs[e] * sum(bosons[:spec.e_max - e + 1])
                 for e in range(spec.e_max + 1)}
    rows = []
    for shell in sorted(set(measured) | set(predicted)):
        m, p = measured.get(shell, 0), predicted.get(shell, 0)
        rows.append((float(shell), m, p, m == p))
    return rows
