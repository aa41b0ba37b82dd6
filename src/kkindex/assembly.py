"""Index cycles: the descended Dirac cycle, its cut-off compression, the
analytic-index module and the transpose comparison.

Module models (all legs are truncated Fock bases, labels shared):

* descended cycle: (active mode prefix) x fermion x (dual-ket leg of the
  matrix algebra), with the matrix column leg an exact identity tensor
  factor left out; the operator is ``D (x)_2 id + id (x)_1 dirac_L``
  (:class:`MaterializedJCycle`).
* cut-off class: the rank-one projection onto the distinguished prefix
  vector ``Xi``; compressing the cycle by it (:func:`assemble`, through the
  isometry ``V`` onto ``Xi (x) rest``) leaves ``dirac_L`` because every
  compressed cross scalar ``<Xi, dR Xi>`` vanishes by rotation invariance.
* mu-side cycle: fermion x dual x boson with ``dirac_L``; the algebra acts
  on the right through the boson column leg.
* analytic-side cycle: boson x dual x fermion with ``dirac_R``; the algebra
  acts through the pairing transpose on the boson ket leg, with the
  algebra-valued inner product ``<f1, f2> = t(f2 f1*)``.

The leg flip ``(b, d, s) -> (s, d, b)`` is the matrix transpose on rank-one
elements and intertwines the two cycles exactly: operators, right actions
and inner products.  Module-axiom checks run on the full tensor product
(where nothing is compressed); operator comparisons run on the
energy-truncated space, which both Diracs preserve without leakage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dirac, fock, limitspace, opcore, twistgroup
from .opcore import Basis, Lcg, SparseOperator, adjoint, gram_transpose, spectrum

__all__ = [
    "MaterializedJCycle",
    "IndexCycle",
    "materialize_j_cycle",
    "assemble",
    "analytic_index",
    "mu_index",
    "right_action",
    "module_inner",
    "compare_indices",
    "resolvent_compactness",
    "kucerovsky_check",
    "finite_group_assembly",
    "level_vanishing_pattern",
]


# ------------------------------------------------------------ j-cycle


# Largest materialized j-cycle dimension ``materialize_j_cycle`` builds.
# It admits (N, E, M, h_op) = (3, 6, 2, 6), dimension 55,664, with 71 rest
# states: there the build traces a 36 MB peak in 0.2 s and the two
# diagnostics together take about 0.8 s, each with a traced peak of at most
# 58 MB (2-core Xeon, one BLAS thread), mostly sparse triplets; no dense
# array they form exceeds n_rest x n_rest.
MAX_JCYCLE_DIM = 1 << 16


@dataclass
class MaterializedJCycle:
    """Model of ``D (x)_2 id + id (x)_1 dirac_L`` on prefix x fermion x
    dual, the boson column leg factored out (compactness over the matrix
    algebra is exactly 'scalar-compact tensor identity').

    Each state is a mode-prefix state times a state of the fermion x dual
    rest space :attr:`rest`; :meth:`lift` is the sparse operator that places
    a prefix vector on every rest state, and the isometry onto the range of
    the Xi smearing is the lift of the Xi product, formed on first use."""

    spec: fock.TruncationSpec
    m_active: int
    space: object
    operator: SparseOperator
    d_part: SparseOperator
    l_part: SparseOperator
    mode_bases: list
    h_op: int
    xi_vecs: list            # truncated, renormalized Xi per mode basis
    xi_bound: float          # commutator bound of their smearing

    @functools.cached_property
    def rest(self) -> dirac.TripleSpace:
        """The fermion x dual rest space at ``spec.e_max``, the domain of
        :meth:`lift`."""
        return dirac.TripleSpace(self.space.factors[self.m_active:], e_max=self.spec.e_max)

    @functools.cached_property
    def _layout(self):
        """Per state, the index of its rest state in :attr:`rest` and its
        flat mode-prefix index."""
        comps, m = self.space.components, self.m_active
        rest = self.rest.basis.index_of(comps[:, m:])
        if np.any(rest < 0):
            raise ValueError(f"cycle states outside the {self.rest.dim} rest states")
        prefix = np.ravel_multi_index(tuple(comps[:, :m].T), self.space.shape[:m])
        return rest, prefix

    def lift(self, k: np.ndarray) -> SparseOperator:
        """The operator ``e_r -> k (x) e_r`` from :attr:`rest` into the
        cycle space, for a vector ``k`` over the flat mode-prefix index: one
        entry per state.

        The mode bases are orthonormal, so a state's Gram is its rest
        state's and the entries are the same in basis and in orthonormal
        coordinates.
        """
        rest, prefix = self._layout
        return SparseOperator(self.rest.basis, self.space.basis, np.arange(len(rest)), rest,
                              k[prefix])

    @functools.cached_property
    def isometry(self) -> SparseOperator:
        """``V``, the :meth:`lift` of the Xi product: ``e_r -> Xi (x) e_r``.

        Every prefix state occurs with every rest state (the mode legs carry
        no energy) and the mode bases are orthonormal, so ``V^H V = 1`` and
        the smearing ``theta_(Xi, Xi) (x) id`` is ``P = V V^H``.
        """
        return self.lift(functools.reduce(np.kron, self.xi_vecs))


def materialize_j_cycle(spec: fock.TruncationSpec, m_active: int,
                        seq: limitspace.SigmaSequence, h_op: int) -> MaterializedJCycle:
    """Build the descended cycle as an operator on ``m_active`` mode bases
    of at most ``h_op`` quanta each, times fermion x dual, for the norm
    diagnostics.  Raises ``ValueError`` above :data:`MAX_JCYCLE_DIM`
    before anything is built."""
    if m_active > spec.n_max:
        raise ValueError("component truncation mismatch: m_active > n_max")
    dim = (((h_op + 1) * (h_op + 2) // 2) ** m_active
           * sum(fock.window_counts(spec, ("fermion", "dual_boson"))))
    if dim > MAX_JCYCLE_DIM:
        raise ValueError(f"materialized j-cycle dimension {dim} exceeds the cap "
                         f"{MAX_JCYCLE_DIM}")
    # prefix quanta are cut per mode only; the energy window applies jointly
    # to the fermion and dual legs, which keeps the mirror part an exact
    # (leak-free) compression with squared operator 2 (N_f + E_dual)
    raw = limitspace.mode_basis(h_op)
    mode_bases = [Basis(raw.label_array, raw.gram)] * m_active
    ferm = fock.enumerate_basis(spec, "fermion")
    dual = fock.enumerate_basis(spec, "dual_boson")
    space = dirac.TripleSpace(mode_bases + [ferm, dual], e_max=spec.e_max)
    d_part = dirac.dirac_sum(space, m_active, limitspace.translation_legs(space, m_active))
    l_part = dirac.dirac_sum(space, m_active, dirac.dual_legs(space, m_active + 1, spec.n_max))
    # the smearing's commutator bound is 2 sqrt(sum_n 2 n r_n^2), with r_n
    # the larger measured ladder norm |dR_z xi_n| or |dR_zbar xi_n|
    xi_vecs, weighted = [], 0.0
    for n, basis in enumerate(mode_bases, 1):
        v = limitspace.xi_coeffs(seq.sigma(n), h_max=h_op).on_basis(basis)
        v /= np.linalg.norm(v)
        xi_vecs.append(v)
        r_n = max(float(np.linalg.norm(limitspace.dRz_matrix(basis).to_dense() @ v)),
                  float(np.linalg.norm(limitspace.dRzbar_matrix(basis).to_dense() @ v)))
        weighted += 2.0 * n * r_n ** 2
    return MaterializedJCycle(spec, m_active, space, d_part + l_part, d_part, l_part,
                              mode_bases, h_op, xi_vecs, float(2.0 * np.sqrt(weighted)))


def assemble(cycle: MaterializedJCycle) -> SparseOperator:
    """Compress the descended cycle by the cut-off class: ``V^H op V`` on
    :attr:`MaterializedJCycle.rest`, with ``V`` the Xi isometry.

    The mirror part commutes with ``V``, and the free part compresses to the
    cross scalars ``<Xi, dR Xi>``, which vanish by rotation invariance, so the
    result is the mirror Dirac on the rest space.
    """
    v = cycle.isometry
    return adjoint(v) @ cycle.operator @ v


# ------------------------------------------------------------ index cycles


@dataclass
class IndexCycle:
    """A (boson, dual, fermion)-legged module with its Dirac operator.

    ``kind='mu'``: legs fermion x dual x boson, right action through the
    boson column leg.  ``kind='analytic'``: legs boson x dual x fermion,
    right action ``f * b = tb f`` through the boson ket leg.
    """

    kind: str
    space: object
    operator: SparseOperator
    boson: object
    dual: object
    fermion: object

    def leg_positions(self):
        """Positions of (boson, dual, fermion) in the label tuples."""
        return {"mu": (2, 1, 0), "analytic": (0, 1, 2)}[self.kind]

    @functools.cached_property
    def boson_order(self) -> np.ndarray:
        """The boson basis sorted by energy (stable)."""
        return np.argsort(self.boson.energy, kind="stable")

    @functools.cached_property
    def blocks(self) -> list:
        """The kept states grouped by energy, for the module algebra.

        A kept state ``(b, d, s)`` has ``E_b <= e_max - E_d - E_s``, so the
        kept bosons of each (dual, fermion) pair are the first ``n`` of
        :attr:`boson_order`.  Pairs with the same ``n`` form one block
        ``(n, dual, fermion, states)``: the ``k`` pairs' dual and fermion
        indices and the ``(k, n)`` space indices of pair ``p`` and boson
        ``boson_order[i]``.  Every kept state is in exactly one block; there
        are at most ``space.e_max + 1`` (``3 * e_max + 1`` for a full
        product at cut ``e_max``).
        """
        b_pos, d_pos, f_pos = self.leg_positions()
        comps = self.space.components
        rank = np.empty_like(self.boson_order)
        rank[self.boson_order] = np.arange(len(rank))
        pairs, pair_of, width = np.unique(comps[:, d_pos] * self.fermion.dim + comps[:, f_pos],
                                          return_inverse=True, return_counts=True)
        boson_rank = rank[comps[:, b_pos]]
        if np.any(boson_rank >= width[pair_of]):
            raise ValueError("kept bosons of a (dual, fermion) pair are not an energy prefix")
        out = []
        for n in np.flatnonzero(np.bincount(width)):
            mine = np.flatnonzero(width == n)
            local = np.empty(len(pairs), dtype=np.int64)
            local[mine] = np.arange(len(mine))
            at = np.flatnonzero(width[pair_of] == n)
            states = np.empty((len(mine), n), dtype=np.int64)
            states[local[pair_of[at]], boson_rank[at]] = at
            dual, ferm = np.divmod(pairs[mine], self.fermion.dim)
            out.append((n, dual, ferm, states))
        return out


def analytic_index(spec: fock.TruncationSpec, full_product: bool = False) -> IndexCycle:
    """Analytic-side cycle: matrix-algebra columns tensored with the spinor
    space, carrying ``dirac_R``: on the energy cut of ``spec``, the pair
    :func:`dirac.build_dirac_R` builds once per process."""
    if full_product:
        # the full product keeps every combination of individually truncated
        # factors, so algebra actions never leave the space
        space = dirac.TripleSpace(dirac.spec_bases(spec), 3 * spec.e_max)
        op, _ = dirac.build_dirac_R(spec, space=space)
    else:
        op, space = dirac.build_dirac_R(spec)
    return IndexCycle("analytic", space, op, *space.factors)


def mu_index(spec: fock.TruncationSpec, full_product: bool = False) -> IndexCycle:
    """Assembled-side cycle: spinor space tensored with matrix-algebra
    columns, carrying ``dirac_L``."""
    boson, dual, ferm = dirac.spec_bases(spec)
    space = dirac.TripleSpace([ferm, dual, boson],
                              3 * spec.e_max if full_product else spec.e_max)
    op, _ = dirac.build_dirac_L(spec, space=space)
    return IndexCycle("mu", space, op, boson, dual, ferm)


# ------------------------------------------------------------ module algebra


def right_action(cycle: IndexCycle, vec: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right action of an algebra matrix ``b`` in dual-basis coordinates.

    analytic: ``f * b = tb f`` composes the pairing transpose on the boson
    ket leg, ``out[w] = sum_w' tb[w, w'] f[w']``.
    mu: right matrix multiplication through the boson column leg,
    ``out[w] = sum_w' f[w'] b[w', w] g_w' / g_w``.
    Both land where the (possibly truncated) space supports them; on the
    full product nothing is lost and the module axioms are exact.  Worked
    one energy block at a time (:attr:`IndexCycle.blocks`): with the bosons
    in energy order, a block's kept bosons are the first ``n``, so only the
    leading ``n x n`` corner of ``b`` enters.
    """
    vec = np.asarray(vec, dtype=complex)
    by_energy = np.ix_(cycle.boson_order, cycle.boson_order)
    out = np.empty_like(vec)
    if cycle.kind == "analytic":
        tb = gram_transpose(np.asarray(b, dtype=complex), cycle.dual.gram)[by_energy]
        for n, _, _, states in cycle.blocks:
            out[states] = vec[states] @ tb[:n, :n].T
    else:
        b = np.asarray(b, dtype=complex)[by_energy]
        g = cycle.boson.gram[cycle.boson_order]
        for n, _, _, states in cycle.blocks:
            out[states] = ((vec[states] * g[:n]) @ b[:n, :n]) / g[:n]
    return out


def module_inner(cycle: IndexCycle, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Algebra-valued inner product as a matrix over the dual basis.

    analytic: ``<f1, f2> = t(f2 f1*)`` with the spinor legs paired;
    mu: ``<s1 (x) M1, s2 (x) M2> = <s1, s2> M1* M2``.
    Each energy block (:attr:`IndexCycle.blocks`) adds its pairs' products
    into the leading ``n x n`` corner, bosons in energy order; each pair is
    one column of the boson-leg matrices ``M``, weighted by its fermion Gram.
    """
    gb, gd, gf = cycle.boson.gram, cycle.dual.gram, cycle.fermion.gram
    gb_e, gd_e = gb[cycle.boson_order], gd[cycle.boson_order]
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    acc = np.zeros((cycle.dual.dim,) * 2, dtype=complex)
    for n, dual, ferm, states in cycle.blocks:
        if cycle.kind == "analytic":
            # operator coordinates on the boson basis: M[b, b'] = F[b, d=b'] g_b'
            m1 = v1[states].T * gd[dual]
            m2 = v2[states].T * gd[dual]
            m1star = np.conj(m1.T) * (gb_e[None, :n] / gb[dual][:, None])
            acc[:n, :n] += (m2 * gf[ferm]) @ m1star
        else:
            # matrix coordinates on the dual basis: M[d, d'] = G[d, w=d'] g_d'
            m1 = v1[states] * gb_e[:n]
            m2 = v2[states] * gb_e[:n]
            m1star = np.conj(m1.T) * (gd[dual][None, :] / gd_e[:n, None])
            acc[:n, :n] += m1star @ (m2 * gf[ferm][:, None])
    out = np.empty_like(acc)
    out[np.ix_(cycle.boson_order, cycle.boson_order)] = acc
    return gram_transpose(out, gb) if cycle.kind == "analytic" else out


# ------------------------------------------------------------ comparisons


@dataclass
class ComparisonReport:
    spectra_deviation: float
    intertwine_deviation: float
    action_deviation: float
    inner_deviation: float
    bounded_spectra_deviation: float
    rows: list = field(default_factory=list)    # (quantity, deviation, tolerance)


def _flip_permutation(analytic: IndexCycle, mu: IndexCycle) -> np.ndarray:
    """Index map of the transpose intertwiner ``(b, d, s) -> (s, d, b)``."""
    if (analytic.space.dim != mu.space.dim
            or analytic.space.factors[::-1] != mu.space.factors):
        raise ValueError("dimension mismatch between index cycles")
    return mu.space.basis.index_of(analytic.space.components[:, ::-1])


def compare_indices(analytic: IndexCycle, mu: IndexCycle, seed: int = 7) -> ComparisonReport:
    """Transpose comparison of the two index cycles.

    Verifies, with max deviations reported: spectra agree as multisets, the
    leg flip intertwines the operators entrywise, it intertwines right
    actions and algebra-valued inner products on four seeded random trials
    (relative scale), and the bounded transforms keep matched spectra.
    """
    perm = _flip_permutation(analytic, mu)
    # one eigendecomposition per cycle feeds both spectral rows, freed before the trials
    spectra = []
    for op in (analytic.operator, mu.operator):
        blocks = opcore.eigh_gram(op)
        spectra.append((np.sort(np.concatenate([lam.ravel() for _, lam, _ in blocks])),
                        opcore.block_spectrum(dirac.bounded_transform(blocks, op.domain.gram))))
        del blocks
    spectra_dev, bounded_dev = (float(np.max(np.abs(a - m))) for a, m in zip(*spectra))

    # entry (i, j) of the analytic operator against entry (perm i, perm j)
    # of the mu operator, on the union of both supports
    back = np.empty_like(perm)
    back[perm] = np.arange(len(perm))
    da, dm = analytic.operator, mu.operator
    intertwine_dev = SparseOperator(
        da.domain, da.codomain, np.concatenate([da.rows, back[dm.rows]]),
        np.concatenate([da.cols, back[dm.cols]]),
        np.concatenate([da.vals, -dm.vals])).max_abs()

    def flip(f):
        out = np.empty_like(f)
        out[perm] = f
        return out

    dim = analytic.space.dim
    rng = Lcg(seed)
    action_dev, inner_dev = 0.0, 0.0
    for _ in range(4):
        f1, f2 = rng.complex_vector(dim), rng.complex_vector(dim)
        b = rng.complex_matrix(analytic.dual.dim)
        lhs = flip(right_action(analytic, f1, b))
        rhs = right_action(mu, flip(f1), b)
        scale = max(float(np.max(np.abs(lhs))), 1.0)
        action_dev = max(action_dev, float(np.max(np.abs(lhs - rhs))) / scale)
        ip_a = module_inner(analytic, f1, f2)
        ip_m = module_inner(mu, flip(f1), flip(f2))
        scale = max(float(np.max(np.abs(ip_a))), 1.0)
        inner_dev = max(inner_dev, float(np.max(np.abs(ip_a - ip_m))) / scale)

    rows = [
        ("spectra multiset deviation", spectra_dev, 1e-10),
        ("transpose intertwining", intertwine_dev, 1e-10),
        ("module action intertwining", action_dev, 1e-12),
        ("inner product intertwining", inner_dev, 1e-12),
        ("bounded-transform spectra", bounded_dev, 1e-10),
    ]
    return ComparisonReport(spectra_dev, intertwine_dev, action_dev,
                            inner_dev, bounded_dev, rows)


# ------------------------------------------------------------ diagnostics


@dataclass
class CompactnessReport:
    split_norms: tuple       # (|free part|, |cross part|, |mirror part|)
    mirror_residual: float   # max |l_part^2 - 2 (N_f + E_dual)|, entrywise


def _norm(a: SparseOperator) -> float:
    """Operator norm of a Gram-self-adjoint operator from its block spectrum."""
    return float(np.max(np.abs(spectrum(a)), initial=0.0))


def resolvent_compactness(cycle: MaterializedJCycle) -> CompactnessReport:
    """Compactness evidence for ``(1 + op^2)^(-1) (a (x) id)``.

    Reports the three-part split of the squared operator and how far the
    squared mirror part is from ``2 (N_f + E_dual)``, entrywise.  That
    identity is the evidence of compactness: it makes the mirror-part
    resolvent ``1/(1 + shell)`` on each energy shell of the rest space, a
    decay to zero, while ``a (x) id`` has finite rank on every shell.  The
    frozen modes enter only through the summability of ``sqrt(n) sigma_n``
    (:attr:`limitspace.SigmaSequence.convergent`), so no operator is built
    for them.

    The split norms are exact and read off block spectra; the mode legs
    carry no energy, so the right side is ``2 * energy`` on the diagonal of
    the cycle basis.
    """
    d, l = cycle.d_part, cycle.l_part
    l_sq = l @ l
    split = (_norm(d @ d), _norm((d @ l) + (l @ d)), _norm(l_sq))
    basis = cycle.space.basis
    diag = np.arange(basis.dim)
    shells = SparseOperator(basis, basis, diag, diag, 2.0 * basis.energy)
    return CompactnessReport(split, (l_sq - shells).max_abs())


def kucerovsky_check(cycle: MaterializedJCycle, seed: int = 5) -> list:
    """Product-criterion diagnostics for the compression: rows
    ``(generator, commutator norm, bound)``.

    A generator ``e = P_Xi k`` of the cut-off module induces
    ``T_e : f (x) s (x) v -> <k, f> s (x) v`` into the compressed module.
    The graded commutator of ``diag(compressed op, cycle op)`` with the
    off-diagonal ``T_e`` block reduces to ``dirac_L T_e - T_e op``; its norm
    is the contraction of the free part against the generator leg, bounded
    by measured per-mode scalars for the ``Xi`` generator and by ``|D|`` in
    general; two seeded random unit ``k`` are checked next to ``Xi``.  The
    cut-off cycle carries the zero operator, so its positivity pairing is
    identically zero and nothing is reported for it; that the squared cycle
    operator is positive semi-definite is checked in the same experiment,
    ``jcycle_diag``.

    The compressed module is the cycle's rest space.  The defect is formed
    as its sparse adjoint ``T^H dirac_L - op T^H`` (both operators are
    self-adjoint) and its norm read exactly off the n_rest x n_rest Gram.
    ``T^H`` is the :meth:`MaterializedJCycle.lift` of ``k``, the isometry
    ``V`` for ``k = Xi``, whose defect norm is then the smeared commutator
    ``|[op, V V^H]|``: the mirror part commutes with ``V V^H``.
    """
    dl = dirac.build_dirac_L(cycle.spec, space=cycle.rest)[0]
    prefix_dim = math.prod(len(v) for v in cycle.xi_vecs)
    d_norm = _norm(cycle.d_part)

    rng = Lcg(seed)
    rows = []
    for gen in range(3):
        if gen == 0:
            t_adj, name, bound = cycle.isometry, "xi", cycle.xi_bound
        else:
            k_vec = rng.complex_vector(prefix_dim)
            k_vec /= np.linalg.norm(k_vec)
            t_adj, name, bound = cycle.lift(k_vec), f"random-{gen}", 2.0 * d_norm
        defect_adj = t_adj @ dl - cycle.operator @ t_adj
        rows.append((name, float(np.sqrt(_norm(adjoint(defect_adj) @ defect_adj))),
                     float(bound)))
    return rows


# ------------------------------------------------------------ finite models


@dataclass
class FiniteAssemblyReport:
    compressed_spectrum: np.ndarray
    direct_spectrum: np.ndarray
    deviation: float
    compressed_cross: float


def _finite_model(group: twistgroup.FiniteAbelianGroup, tau: twistgroup.Cocycle,
                  seed: int):
    """The finite model on ``l2(G)``: the seeded self-adjoint level-1
    element ``h`` (its zero-phase slice), left convolution ``conv`` by it,
    the uniform cut-off projection ``p_cut``, its complement ``d_op`` and
    the cut-off root ``sqrt(c)``."""
    n = group.order
    ext = twistgroup.TwistedExtension(tau)
    u_slice = Lcg(seed).complex_vector(n)
    u = twistgroup.GroupAlgebraElement(ext, u_slice, 1)
    h = u.add(u.involution())
    # conv[x, y] = (h * e_y)(x) = h(g) omega^phase[g, x] for the one g
    # with (g, 0)^{-1} (x, 0) = (y, .)
    conv = np.zeros((n, n), dtype=complex)
    conv[np.arange(n)[None, :], ext.tgt] = h.values[:, None] * ext.twist
    p_cut = twistgroup.schatten_map(twistgroup.mishchenko(group, np.full(n, 1.0 / n))).to_dense()
    d_op = np.eye(n) - p_cut
    return h.values, conv, p_cut, d_op, np.full(n, 1.0 / np.sqrt(n))


def finite_group_assembly(group: twistgroup.FiniteAbelianGroup,
                          tau: twistgroup.Cocycle, seed: int = 11) -> FiniteAssemblyReport:
    """Zero-dimensional model of the compression identity.

    The descended module is ``l2(G) (x) (twisted algebra)``; the operator is
    ``D (x) id + id (x) L_h`` with ``D`` the complement of the uniform
    cut-off projection (so ``D sqrt(c) = 0``) and ``L_h`` left convolution
    by a self-adjoint twisted-algebra element.  Compressing by the cut-off
    projection must kill the first part exactly and reproduce the spectrum
    of ``L_h``.  Two independent routes are compared:

    * compressed: on the columns ``sqrt(c) (x) e_j`` of the isometry onto the
      compressor's range, ``(A (x) B) vec X = vec(A X B^T)`` leaves
      ``alpha id + beta conv`` with ``alpha = <p sqrt(c), D p sqrt(c)>`` and
      ``beta = |p sqrt(c)|^2`` (``p`` the cut-off projection), and the
      compressed first part ``alpha id``, of norm ``|alpha|``;
    * direct: the eigenvalues of ``pi_t(h)`` over the irreducible projective
      representations of :class:`twistgroup.ProjectiveIrreps`, each repeated
      ``dim`` times, read from ``h`` alone and never from ``conv``.

    Cocycles other than the trivial one and the Heisenberg pairing on
    ``Z_n1 x Z_n2`` (``n2 | n1``) are refused before the model is built.
    """
    tau.check_group(group)
    irreps = twistgroup.ProjectiveIrreps(tau)
    h, conv, p_cut, d_op, sqrt_c = _finite_model(group, tau, seed)
    # the compressor is iso iso^H only if p_cut is the rank-one projection
    # onto sqrt(c); then |C (D (x) id) C| = |iso^H C (D (x) id) C iso|
    if np.max(np.abs(p_cut - np.outer(sqrt_c, sqrt_c.conj()))) > 1e-14:
        raise ValueError("cut-off projection is not the rank-one projection onto sqrt(c)")
    cut = p_cut @ sqrt_c
    alpha, beta = cut.conj() @ (d_op @ cut), cut.conj() @ cut
    comp_small = beta * conv
    comp_small[np.diag_indices(len(conv))] += alpha
    s_comp = np.linalg.eigvalsh(0.5 * (comp_small + comp_small.conj().T))
    blocks = irreps.image(h)
    s_direct = np.linalg.eigvalsh(0.5 * (blocks + blocks.conj().swapaxes(-1, -2)))
    s_direct = np.sort(np.repeat(s_direct.ravel(), irreps.dim))
    return FiniteAssemblyReport(
        s_comp, s_direct, float(np.max(np.abs(s_comp - s_direct))), float(abs(alpha)))


def level_vanishing_pattern(group: twistgroup.FiniteAbelianGroup,
                            tau: twistgroup.Cocycle, seed: int = 3) -> list:
    """Cut-off class against module legs of every level.

    The level-0 cut-off acts through the level-1 twisted translation, so the
    pairing with a level-``l`` module leg carries the fiber character sum
    ``(1/m) sum_i omega^(i (1 - l))``: it survives only at ``l = 1``.
    Returns rows ``(level, brute-force max abs, exact character factor)``.
    The pairing sums the translation by ``(h, i)`` over the whole extension;
    ``(h, i)^{-1} (g, 0)`` has phase ``phase[h, g] - i``, so the fiber sum
    over ``i`` is evaluated numerically once per pair of phases.  The
    summands for a chunk of columns are one gather each from the leg table
    and the fiber sums, at most :data:`opcore.BLOCK_ELEMENTS` entries,
    contracted with the cut-off's columns in one stacked product.
    """
    tau.check_group(group)
    ext = twistgroup.TwistedExtension(tau)
    n, m = group.order, ext.m
    omega = ext.tau.root()
    cut = twistgroup.mishchenko(group, np.full(n, 1.0 / n))
    tgt, phase, fiber = ext.tgt, ext.phase, np.arange(m)
    # flat row bases: table[tgt, t] and fiber_sum[phase, p] as one take each
    tgt_base, phase_base = tgt * n, phase * m
    step = max(1, opcore.BLOCK_ELEMENTS // (n * n))
    rng = Lcg(seed)
    rows = []
    for level in range(m):
        table = rng.complex_matrix(n)
        # e at outer level `level`, inner level -1: fiber_sum[p, q] is
        # sum_i omega^((p - i) level) omega^-(q - i), exponents mod m
        fiber_sum = np.zeros((m, m), dtype=complex)
        for i in range(m):
            j = (fiber - i) % m
            fiber_sum += np.outer(omega ** (j * level), omega ** (-j))
        out = np.empty((n, n), dtype=complex)
        for y0 in range(0, n, step):
            ys = slice(y0, y0 + step)
            # [y, h, k] -> table[tgt[h, k], tgt[h, y]] fiber_sum[phase[h, k], phase[h, y]]
            terms = table.take(tgt_base + tgt[:, ys].T[:, :, None])
            terms *= fiber_sum.take(phase_base + phase[:, ys].T[:, :, None])
            out[:, ys] = (cut.values[:, ys].T[:, None, :] @ terms)[:, 0, :].T
        out /= m
        character = abs(sum(omega ** (i * (1 - level)) for i in range(m))) / m
        rows.append((level, float(np.max(np.abs(out))), character))
    return rows
