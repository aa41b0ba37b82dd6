import re
import time

import numpy as np
import pytest

from kkindex import opcore
from kkindex import twistgroup as tg
from kkindex.experiments import EXPERIMENTS, Config
from kkindex.opcore import Lcg, adjoint

import tuple_law as law
from m_iso_trial import m_iso_trial
from traced import traced_peak
from vectors import from_dense, regular_representation


# ---------------------------------------------------------------- oracles

def brute_convolve(f: tg.GroupAlgebraElement, h: tg.GroupAlgebraElement):
    """Direct (1/m)-weighted sum over the whole extension, no slice tricks."""
    ext = f.ext
    grp, m = ext.group, ext.m
    ftab, htab = f.table(), h.table()
    out = np.zeros((grp.order, m), dtype=complex)
    for xi, x in enumerate(grp.elements):
        for xj in range(m):
            acc = 0.0 + 0.0j
            for gi, g in enumerate(grp.elements):
                for gj in range(m):
                    yg, yj = law.mul(ext, law.inv(ext, (g, gj)), (x, xj))
                    acc += ftab[gi, gj] * htab[law.index(grp, yg), yj]
            out[xi, xj] = acc / m
    return out


def brute_crossed(a: tg.CrossedProductElement, b: tg.CrossedProductElement):
    """Triple loop over tuples, with G translating itself."""
    grp = a.group
    out = np.zeros_like(a.values)
    for gi, g in enumerate(grp.elements):
        for xi, x in enumerate(grp.elements):
            acc = 0.0 + 0.0j
            for hi, h in enumerate(grp.elements):
                hinv = law.neg(grp, h)
                acc += a.values[hi, xi] * b.values[law.index(grp, law.add(grp, hinv, g)),
                                                   law.index(grp, law.add(grp, hinv, x))]
            out[gi, xi] = acc
    return out


def remainder_convolve(f: tg.GroupAlgebraElement, h: tg.GroupAlgebraElement):
    """Untagged :func:`tg.convolve` with the fiber index of every
    ``(g, x, xj)`` taken mod m in each block, the kernel before its wrap
    table: the same blocks and sums, so equal bit for bit."""
    ext = f.ext
    n, m = ext.group.order, ext.m
    fiber = np.arange(m)
    lag = (fiber[None, :] - fiber[:, None]) % m
    shifted = h.table()[np.arange(n)[:, None], lag[:, None, :]].reshape(m, n * m)
    ftab = f.table()
    out = np.zeros((n, m), dtype=complex)
    step = max(1, opcore.BLOCK_ELEMENTS // (n * m))
    for g0 in range(0, n, step):
        part = ftab[g0:g0 + step] @ shifted
        idx = ext.phase[g0:g0 + step, :, None] + fiber
        idx %= m
        idx += (np.arange(len(part))[:, None, None] * n + ext.tgt[g0:g0 + step, :, None]) * m
        out += np.take(part, idx).sum(axis=0)
    return out / m


def z3_heisenberg():
    grp = tg.FiniteAbelianGroup((3, 3))
    return grp, tg.heisenberg_cocycle(grp)


def random_tagged(ext, level, rng):
    vals = rng.standard_normal(ext.group.order) + 1j * rng.standard_normal(ext.group.order)
    return tg.GroupAlgebraElement(ext, vals, level)


# ---------------------------------------------------------------- cocycles

def test_heisenberg_cocycle_valid():
    grp, tau = z3_heisenberg()
    assert tg.check_cocycle(tau) == []
    # exhaustive three-loop oracle over the 27 triples per pair
    for g in grp.elements:
        for h in grp.elements:
            for k in grp.elements:
                lhs = law.value(tau, g, h) * law.value(tau, law.add(grp, g, h), k)
                rhs = law.value(tau, h, k) * law.value(tau, g, law.add(grp, h, k))
                assert abs(lhs - rhs) < 1e-12


def test_trivial_cocycle_valid():
    grp = tg.FiniteAbelianGroup((4,))
    assert tg.check_cocycle(tg.trivial_cocycle(grp, 2)) == []


def test_perturbed_cocycle_reports_touching_identities():
    grp, tau = z3_heisenberg()
    exps = tau.exponents.copy()
    g0 = law.index(grp, (1, 2))
    h0 = law.index(grp, (2, 1))
    exps[g0, h0] = (exps[g0, h0] + 1) % 3
    bad = tg.check_cocycle(tg.Cocycle(grp, exps, 3))
    # oracle: identities where the perturbed entry appears with nonzero net
    # multiplicity across the four factors (touching twice can cancel)
    expected = set()
    p = ((1, 2), (2, 1))
    for g in grp.elements:
        for h in grp.elements:
            for k in grp.elements:
                net = (int((g, h) == p) + int((law.add(grp, g, h), k) == p)
                       - int((h, k) == p) - int((g, law.add(grp, h, k)) == p))
                if net % 3:
                    expected.add(("identity", g, h, k))
    assert set(bad) == expected
    assert len(bad) > 0


# ---------------------------------------------------------------- algebra

def test_convolve_level_orthogonality_exact():
    grp = tg.FiniteAbelianGroup((2,))
    ext = tg.TwistedExtension(tg.trivial_cocycle(grp, 2))
    rng = np.random.default_rng(0)
    f1 = random_tagged(ext, 1, rng)
    h0 = random_tagged(ext, 0, rng)
    out = tg.convolve(f1, h0)
    assert out.max_abs() == 0.0  # exact, via the fiber character sum
    # brute-force confirmation on full tables
    assert np.max(np.abs(brute_convolve(f1, h0))) < 1e-13


def test_convolve_level1_self_matches_bruteforce():
    grp = tg.FiniteAbelianGroup((2,))
    ext = tg.TwistedExtension(tg.trivial_cocycle(grp, 2))
    slice_ = np.array([1.0, 0.0], dtype=complex)  # f(g, z) = z delta_(g=0)
    f = tg.GroupAlgebraElement(ext, slice_, 1)
    out = tg.convolve(f, f)
    assert out.level == 1
    oracle = brute_convolve(f, f)
    assert np.max(np.abs(out.table() - oracle)) < 1e-13
    # four-term sum collapses to the identity slice
    assert np.max(np.abs(out.values - slice_)) < 1e-13


def test_convolve_unit():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(1)
    f = random_tagged(ext, 1, rng)
    slice_ = np.zeros(grp.order, dtype=complex)
    slice_[law.index(grp, law.identity(grp))] = 1.0
    unit = tg.GroupAlgebraElement(ext, slice_, 1)
    assert np.max(np.abs(tg.convolve(unit, f).values - f.values)) < 1e-13
    assert np.max(np.abs(tg.convolve(f, unit).values - f.values)) < 1e-13


def test_convolve_associative_exact():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(2)
    f, g, h = (random_tagged(ext, 1, rng) for _ in range(3))
    lhs = tg.convolve(tg.convolve(f, g), h)
    rhs = tg.convolve(f, tg.convolve(g, h))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_involution_antimultiplicative():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(3)
    f, g = (random_tagged(ext, 1, rng) for _ in range(2))
    lhs = tg.convolve(f, g).involution()
    rhs = tg.convolve(g.involution(), f.involution())
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_level_project_idempotent_and_partition():
    grp = tg.FiniteAbelianGroup((2,))
    ext = tg.TwistedExtension(tg.trivial_cocycle(grp, 2))
    rng = np.random.default_rng(4)
    # generic untagged element
    table = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = tg.GroupAlgebraElement(ext, table)
    p0 = tg.level_project(f, 0)
    p1 = tg.level_project(f, 1)
    assert np.max(np.abs(p0.table() + p1.table() - f.values)) < 1e-13
    # tagged element projects to itself or to zero
    f1 = random_tagged(ext, 1, rng)
    assert tg.level_project(f1, 1) is f1
    assert tg.level_project(f1, 0).max_abs() == 0.0


# ---------------------------------------------------------------- crossed

def test_crossed_constant_idempotent():
    grp = tg.FiniteAbelianGroup((2,))
    a = tg.CrossedProductElement.translation(grp, np.full((2, 2), 0.5))
    out = tg.crossed_convolve(a, a)
    assert np.max(np.abs(out.values - 0.5)) < 1e-14


def test_crossed_unit():
    grp = tg.FiniteAbelianGroup((3,))
    vals = np.zeros((3, 3), dtype=complex)
    vals[law.index(grp, (0,)), :] = 1.0  # delta at the unit, constant over X
    unit = tg.CrossedProductElement.translation(grp, vals)
    rng = np.random.default_rng(5)
    b = tg.CrossedProductElement.translation(
        grp, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert np.max(np.abs(tg.crossed_convolve(unit, b).values - b.values)) < 1e-13


def test_crossed_associative_oracle():
    grp = tg.FiniteAbelianGroup((3,))
    rng = np.random.default_rng(6)
    elts = [tg.CrossedProductElement.translation(
        grp, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        for _ in range(3)]
    a, b, c = elts
    lhs = tg.crossed_convolve(tg.crossed_convolve(a, b), c)
    rhs = tg.crossed_convolve(a, tg.crossed_convolve(b, c))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12
    # direct triple-sum oracle
    oracle = brute_crossed(brute_crossed_elt(a, b), c)
    assert np.max(np.abs(lhs.values - oracle)) < 1e-12


def test_crossed_table_must_be_g_by_g():
    grp = tg.FiniteAbelianGroup((2, 2))
    for bad in ((4, 3), (3, 4), (1, 4, 4)):
        with pytest.raises(ValueError, match="crossed product table shape mismatch"):
            tg.CrossedProductElement(grp, np.zeros(bad))


def test_crossed_convolve_refuses_another_group_of_the_same_order():
    z4, z2z2 = tg.FiniteAbelianGroup((4,)), tg.FiniteAbelianGroup((2, 2))
    a, b = (tg.CrossedProductElement.translation(g, np.ones((4, 4))) for g in (z4, z2z2))
    with pytest.raises(ValueError, match="different G"):
        tg.crossed_convolve(a, b)


def brute_crossed_elt(a, b):
    return tg.CrossedProductElement.translation(a.group, brute_crossed(a, b))


def test_schatten_matrix_unit():
    grp = tg.FiniteAbelianGroup((2,))
    vals = np.zeros((2, 2), dtype=complex)
    # a(g, x) = delta_0(x) conj(delta_1(g^{-1} x)): only g with g^{-1}0 = 1
    for gi, g in enumerate(grp.elements):
        for xi, x in enumerate(grp.elements):
            vals[gi, xi] = (1.0 if x == (0,) else 0.0) * \
                np.conj(1.0 if law.add(grp, law.neg(grp, g), x) == (1,) else 0.0)
    a = tg.CrossedProductElement.translation(grp, vals)
    mat = tg.schatten_map(a).to_dense()
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.max(np.abs(mat - expected)) < 1e-14
    # apply to both basis vectors
    assert np.allclose(mat @ np.array([1.0, 0.0]), [0.0, 0.0])
    assert np.allclose(mat @ np.array([0.0, 1.0]), [1.0, 0.0])


def test_schatten_rank_one_projection():
    grp = tg.FiniteAbelianGroup((2,))
    a = tg.CrossedProductElement.translation(grp, np.full((2, 2), 0.5))
    mat = tg.schatten_map(a).to_dense()
    v = np.full(2, 1.0 / np.sqrt(2.0))
    assert np.max(np.abs(mat - np.outer(v, v))) < 1e-14


def test_schatten_multiplicative_and_star():
    grp = tg.FiniteAbelianGroup((3,))
    rng = np.random.default_rng(7)
    a = tg.CrossedProductElement.translation(
        grp, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = tg.CrossedProductElement.translation(
        grp, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    lhs = tg.schatten_map(brute_crossed_elt(a, b)).to_dense()
    rhs = tg.schatten_map(a).to_dense() @ tg.schatten_map(b).to_dense()
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    star = tg.schatten_map(a.involution())
    assert (star - adjoint(tg.schatten_map(a))).max_abs() < 1e-12


def test_schatten_maps_on_one_group_share_their_basis():
    grp = tg.FiniteAbelianGroup((2, 3))
    rng = np.random.default_rng(12)
    a, b = (tg.CrossedProductElement.translation(
        grp, rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) for _ in range(2))
    sa, sb = tg.schatten_map(a), tg.schatten_map(b)
    assert sa.domain is sa.codomain is sb.domain is sb.codomain
    assert np.array_equal(sa.domain.label_array, grp.coords)
    assert np.array_equal(sa.domain.gram, np.ones(grp.order))
    lhs = tg.schatten_map(brute_crossed_elt(a, b))
    assert lhs.domain is sa.domain
    assert (lhs - sa @ sb).max_abs() < 1e-12


def test_schatten_spanning_bijection():
    # dimension count |G|^2 and multiplicativity make it a *-isomorphism
    grp = tg.FiniteAbelianGroup((3,))
    mats = []
    for gi in range(3):
        for xi in range(3):
            vals = np.zeros((3, 3), dtype=complex)
            vals[gi, xi] = 1.0
            mats.append(tg.schatten_map(
                tg.CrossedProductElement.translation(grp, vals)).to_dense().ravel())
    rank = np.linalg.matrix_rank(np.array(mats))
    assert rank == 9


# orders 1 to 256, and Heisenberg Z16xZ16 the largest the lab reaches
SCHATTEN_GROUPS = [(1,), (2,), (5,), (3, 3), (4, 2), (2, 3, 2), (8, 8), (16, 16)]


def awkward_table(n, rng):
    """A random n x n table with exact zeros, -0.0 parts and a NaN among
    its entries."""
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    at = np.unravel_index(rng.permutation(n * n), (n, n))
    vals[at[0][0::5], at[1][0::5]] = 0.0
    vals[at[0][1::5], at[1][1::5]] = complex(-0.0, -0.0)
    vals.real[at[0][2::5], at[1][2::5]] = -0.0
    vals.imag[at[0][3::5], at[1][3::5]] = -0.0
    vals[at[0][4:5], at[1][4:5]] = np.nan
    return vals


@pytest.mark.parametrize("moduli", SCHATTEN_GROUPS, ids=lambda ms: "x".join(map(str, ms)))
def test_schatten_map_is_the_dense_route_triplet_for_triplet(moduli, monkeypatch):
    # the regular representation's entries listed column by column are the
    # oracle; schatten_map emits them in that canonical order itself, with
    # no sort (the basis is built before argsort goes)
    grp = tg.FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(grp.order)
    a = tg.CrossedProductElement.translation(grp, awkward_table(grp.order, rng))
    want = from_dense(regular_representation(a), grp._l2_basis)
    monkeypatch.setattr(np, "argsort", None)
    got = tg.schatten_map(a)
    assert got.domain is got.codomain is grp._l2_basis
    for mine, theirs in zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals)):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------- mishchenko

def test_mishchenko_constant_cutoff():
    grp = tg.FiniteAbelianGroup((2,))
    cut = tg.mishchenko(grp, np.full(2, 0.5))
    assert np.max(np.abs(cut.values - 0.5)) < 1e-14
    sq = tg.crossed_convolve(cut, cut)
    assert np.max(np.abs(sq.values - cut.values)) < 1e-13
    star = cut.involution()
    assert np.max(np.abs(star.values - cut.values)) < 1e-13


def test_mishchenko_normalization_error_names_the_mass():
    grp = tg.FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match=r"mass 1\.4 "):
        tg.mishchenko(grp, [0.7, 0.7])


def test_mishchenko_mass_within_1e_12_of_one():
    grp = tg.FiniteAbelianGroup((4,))
    for shift in (1e-13, -1e-13):
        c = np.array([0.1, 0.2, 0.3, 0.4 + shift])
        assert 5e-14 < abs(c.sum() - 1.0) <= 1e-12
        tg.mishchenko(grp, c)
    c = np.array([0.1, 0.2, 0.3, 0.4 + 1e-9])
    with pytest.raises(ValueError, match=re.escape(f"cut-off mass {float(c.sum())!r} is not 1")):
        tg.mishchenko(grp, c)


def test_mishchenko_refuses_a_cutoff_of_the_wrong_shape():
    grp = tg.FiniteAbelianGroup((2, 2))
    with pytest.raises(ValueError, match=r"Z2xZ2 needs shape \(4,\), got \(3,\)"):
        tg.mishchenko(grp, np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match=r"Z2xZ2 needs shape \(4,\), got \(2, 2\)"):
        tg.mishchenko(grp, np.full((2, 2), 0.25))


@pytest.mark.parametrize("c", [[np.nan, 0.5], [np.inf, 0.5], [-0.5, 1.5]],
                         ids=["nan", "inf", "negative"])
def test_mishchenko_refuses_a_non_finite_or_negative_entry(c):
    # NaN < 0 and |NaN - 1| > 1e-12 are both False, so neither the sign nor
    # the mass check alone refuses a NaN entry
    with pytest.raises(ValueError, match="finite and nonnegative"):
        tg.mishchenko(tg.FiniteAbelianGroup((2,)), c)


@pytest.mark.parametrize("moduli", [(4,), (4, 2), (2, 3, 2)], ids=repr)
def test_point_totals_over_x_equal_g_are_the_mass(moduli):
    # over X = G every per-point total sum_g c(g.x) equals the mass sum(c),
    # so the one sum decides the normalization
    grp = tg.FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(len(moduli))
    for _ in range(5):
        c = rng.random(grp.order)
        c /= c.sum()
        assert np.max(np.abs(c[grp.add_table].sum(axis=0) - c.sum())) <= 1e-12
        cut = tg.mishchenko(grp, c)
        assert np.max(np.abs(tg.crossed_convolve(cut, cut).values - cut.values)) <= 1e-15


def test_mishchenko_nonuniform_cutoff_is_the_rank_one_projection():
    # finite_group_assembly refuses a cut-off whose Schatten image is not
    # the rank-one projection onto sqrt(c); here c is not constant
    grp = tg.FiniteAbelianGroup((4,))
    c = np.array([0.1, 0.2, 0.3, 0.4])
    cut = tg.mishchenko(grp, c)
    sq = tg.crossed_convolve(cut, cut)
    assert np.max(np.abs(sq.values - cut.values)) < 1e-15
    assert np.max(np.abs(cut.involution().values - cut.values)) < 1e-15
    sqrt_c = np.sqrt(c)
    assert np.max(np.abs(tg.schatten_map(cut).to_dense() - np.outer(sqrt_c, sqrt_c))) < 1e-15


def test_mishchenko_product_factorizes():
    # product cut-off on X1 x X2 equals the tensor of the factors
    g1 = tg.FiniteAbelianGroup((2,))
    g2 = tg.FiniteAbelianGroup((3,))
    g12 = tg.FiniteAbelianGroup((2, 3))
    c1, c2 = np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5])
    cut1, cut2 = tg.mishchenko(g1, c1), tg.mishchenko(g2, c2)
    cut12 = tg.mishchenko(g12, np.kron(c1, c2))
    for gi, g in enumerate(g12.elements):
        for xi, x in enumerate(g12.elements):
            expected = (cut1.values[law.index(g1, g[:1]), law.index(g1, x[:1])]
                        * cut2.values[law.index(g2, g[1:]), law.index(g2, x[1:])])
            assert abs(cut12.values[gi, xi] - expected) < 1e-14


# ---------------------------------------------------------------- m-iso

def expand(e: tg.ModuleElement, gamma, x) -> complex:
    """Value of a module element at outer point ``gamma = (g, j)`` and inner
    ``x = (y, i)``: level 1 outer, level -1 inner."""
    (g, j), (y, i) = gamma, x
    omega = e.ext.tau.root()
    return complex(e.table[law.index(e.ext.group, g), law.index(e.ext.group, y)]
                   * omega ** j * omega ** (-i))


def brute_module_tables(e: tg.ModuleElement):
    """Full (G^tau x G^tau) expansion of a module element."""
    ext = e.ext
    pts = law.elements(ext)
    out = np.zeros((len(pts), len(pts)), dtype=complex)
    for i, gamma in enumerate(pts):
        for j, x in enumerate(pts):
            out[i, j] = expand(e, gamma, x)
    return out


def test_m_iso_point_mass():
    grp = tg.FiniteAbelianGroup((2,))
    ext = tg.TwistedExtension(tg.trivial_cocycle(grp, 2))
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = tg.GroupAlgebraElement(ext, np.array([1.0, 0.0], dtype=complex), 1)
    e = tg.m_iso(phi1, phi2)
    expected = np.zeros((2, 2), dtype=complex)
    expected[law.index(grp, (0,)), law.index(grp, (0,))] = 1.0
    assert np.max(np.abs(e.table - expected)) < 1e-14


def test_m_iso_requires_level_one():
    grp = tg.FiniteAbelianGroup((2,))
    ext = tg.TwistedExtension(tg.trivial_cocycle(grp, 2))
    phi2 = tg.GroupAlgebraElement(ext, np.array([1.0, 0.0], dtype=complex), 0)
    with pytest.raises(ValueError):
        tg.m_iso(np.array([1.0, 0.0]), phi2)


def test_m_iso_inner_product_factorizes():
    grp, tau = z3_heisenberg()
    # mu_3 extension over Z3 via the pairing on Z3 x Z3 restricted: use the
    # heisenberg table itself on the full group
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(8)
    n = grp.order
    for _ in range(10):
        phi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi2 = random_tagged(ext, 1, rng)
        psi2 = random_tagged(ext, 1, rng)
        lhs = tg.module_inner_product(tg.m_iso(phi1, phi2), tg.m_iso(psi1, psi2))
        scalar = np.vdot(phi1, psi1)
        rhs = tg.convolve(phi2.involution(), psi2).scale(scalar)
        assert lhs.level == 1 and rhs.level == 1
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11


def test_m_iso_right_module_identity():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(9)
    n = grp.order
    for _ in range(10):
        phi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi2 = random_tagged(ext, 1, rng)
        b = random_tagged(ext, 1, rng)
        lhs = tg.m_iso(phi1, tg.convolve(phi2, b))
        rhs = tg.module_right_action(tg.m_iso(phi1, phi2), b)
        assert np.max(np.abs(lhs.table - rhs.table)) < 1e-11


def test_m_iso_left_module_identity():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(10)
    n = grp.order
    for _ in range(10):
        phi1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi2 = random_tagged(ext, 1, rng)
        a = tg.CrossedProductElement.translation(
            grp, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # a acts on phi1 through the schatten matrix
        acted = regular_representation(a) @ phi1
        lhs = tg.m_iso(acted, phi2)
        rhs = tg.module_left_action(a, tg.m_iso(phi1, phi2))
        assert np.max(np.abs(lhs.table - rhs.table)) < 1e-11


def test_left_action_refuses_a_crossed_product_over_another_group():
    # a translation element over another group of the same order
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    n = grp.order
    e = tg.ModuleElement(ext, np.ones((n, n)))
    other = tg.CrossedProductElement.translation(tg.FiniteAbelianGroup((9,)),
                                                 np.ones((n, n)))
    with pytest.raises(ValueError, match="module's group"):
        tg.module_left_action(other, e)


def test_module_element_expand_levels():
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(11)
    e = tg.m_iso(rng.standard_normal(grp.order),
                 random_tagged(ext, 1, rng))
    omega = tau.root()
    full = brute_module_tables(e)
    pts = law.elements(ext)
    # level 1 outer, level -1 inner on the expanded table
    for i, (g, j) in enumerate(pts):
        for l, (y, iy) in enumerate(pts):
            base = expand(e, (g, 0), (y, 0))
            assert abs(full[i, l] - base * omega ** j * omega ** (-iy)) < 1e-12


# ---------------------------------------------------------------- blocks

def test_decompose_z3_heisenberg_single_block():
    grp, tau = z3_heisenberg()
    assert tg.decompose_twisted_algebra(grp, tau) == [3]


def test_decompose_z2_trivial_characters():
    grp = tg.FiniteAbelianGroup((2,))
    assert tg.decompose_twisted_algebra(grp, tg.trivial_cocycle(grp)) == [1, 1]


def test_decompose_z2z2_pairing_single_block():
    grp = tg.FiniteAbelianGroup((2, 2))
    tau = tg.heisenberg_cocycle(grp)
    assert tg.decompose_twisted_algebra(grp, tau) == [2]


def test_decompose_z4z2():
    # degenerate pairing: radical of order 2, two blocks of dimension 2
    grp = tg.FiniteAbelianGroup((4, 2))
    tau = tg.heisenberg_cocycle(grp)
    assert tg.decompose_twisted_algebra(grp, tau) == [2, 2]


def test_decompose_counts_squares():
    for moduli, tau_kind, expected in [((3,), "trivial", [1, 1, 1]),
                                       ((3, 3), "heisenberg", [3])]:
        grp = tg.FiniteAbelianGroup(moduli)
        tau = (tg.trivial_cocycle(grp) if tau_kind == "trivial"
               else tg.heisenberg_cocycle(grp))
        blocks = tg.decompose_twisted_algebra(grp, tau)
        assert sum(d * d for d in blocks) == grp.order


@pytest.mark.parametrize("moduli", [(9,), (2,)], ids=["Z9", "Z2"])
def test_decompose_refuses_a_cocycle_on_another_group(moduli):
    _, tau = z3_heisenberg()
    with pytest.raises(ValueError, match=rf"Z3xZ3.*Z{moduli[0]}\b"):
        tg.decompose_twisted_algebra(tg.FiniteAbelianGroup(moduli), tau)


def perturbed(tau):
    exps = tau.exponents.copy()
    exps[4, 5] = (exps[4, 5] + 1) % tau.root_order
    return exps


def test_decompose_refuses_a_table_that_fails_the_check():
    grp, tau = z3_heisenberg()
    bad = tg.Cocycle(grp, perturbed(tau), tau.root_order)
    with pytest.raises(ValueError, match="invalid cocycle"):
        tg.decompose_twisted_algebra(grp, bad)


def test_decompose_checks_a_table_assigned_after_a_clean_check():
    grp, tau = z3_heisenberg()
    assert tg.check_cocycle(tau) == []
    tau.exponents = perturbed(tau)
    with pytest.raises(ValueError, match="invalid cocycle"):
        tg.decompose_twisted_algebra(grp, tau)


def test_decompose_checks_a_writeable_table_mutated_after_its_check():
    grp, tau = z3_heisenberg()
    assert tg.check_cocycle(tau) == []
    tau.exponents = tau.exponents.copy()
    assert tg.check_cocycle(tau) == []
    tau.exponents[4, 5] += 1
    with pytest.raises(ValueError, match="invalid cocycle"):
        tg.decompose_twisted_algebra(grp, tau)


# ---------------------------------------------------------------- values

def test_root_order_below_one_is_refused():
    with pytest.raises(ValueError, match="root_order"):
        tg.Cocycle(tg.FiniteAbelianGroup((3,)), np.zeros((3, 3), dtype=int), 0)
    with pytest.raises(ValueError, match="root_order"):
        tg.trivial_cocycle(tg.FiniteAbelianGroup((3,)), -3)


@pytest.mark.parametrize("moduli", [(2.5,), (3, 0.6), (np.nan,), (np.inf, 2)], ids=repr)
def test_group_refuses_non_integral_moduli(moduli):
    with pytest.raises(ValueError, match="moduli must be integral"):
        tg.FiniteAbelianGroup(moduli)


@pytest.mark.parametrize("bad", [0.6, np.nan, np.inf], ids=repr)
def test_cocycle_refuses_non_integral_exponents(bad):
    # a cast to int, reduced mod 2, would turn 0.6 into 0 and NaN into 0 with
    # only a warning
    table = np.zeros((2, 2))
    table[1, 1] = bad
    with pytest.raises(ValueError, match="exponents must be integral"):
        tg.Cocycle(tg.FiniteAbelianGroup((2,)), table, 2)


@pytest.mark.parametrize("root", [2.5, np.nan, np.inf], ids=repr)
def test_cocycle_refuses_non_integral_root_orders(root):
    # int(2.5) is 2, a valid root order
    with pytest.raises(ValueError, match="root_order must be integral"):
        tg.trivial_cocycle(tg.FiniteAbelianGroup((2,)), root)


def test_integral_floats_stay_accepted():
    grp = tg.FiniteAbelianGroup((4.0, np.float64(2)))
    assert grp.moduli == (4, 2) and all(type(n) is int for n in grp.moduli)
    tau = tg.Cocycle(grp, np.zeros((8, 8)), 2.0)
    assert tau.root_order == 2 and tau.exponents.dtype.kind == "i"
    assert tg.check_cocycle(tau) == []
    assert tg.heisenberg_cocycle(tg.FiniteAbelianGroup((3.0, 3.0))).root_order == 3


# ---------------------------------------------------------------- tables
# The integer tables behind every kernel against the tuple law of
# ``tuple_law``, and each kernel against a loop oracle over residue tuples,
# at orders <= 9.

def brute_check_cocycle(tau: tg.Cocycle):
    grp, m = tau.group, tau.root_order
    e = law.identity(grp)
    bad = [("normalization", g) for g in grp.elements
           if law.exponent(tau, e, g) % m or law.exponent(tau, g, e) % m]
    for g in grp.elements:
        for h in grp.elements:
            for k in grp.elements:
                lhs = law.exponent(tau, g, h) + law.exponent(tau, law.add(grp, g, h), k)
                rhs = law.exponent(tau, h, k) + law.exponent(tau, g, law.add(grp, h, k))
                if (lhs - rhs) % m:
                    bad.append(("identity", g, h, k))
    return bad


def coboundary(grp, b):
    """``(db)(g, h) = b(g) + b(h) - b(g + h)`` through the tuple law."""
    return np.array([[b[gi] + b[hi] - b[law.index(grp, law.add(grp, g, h))]
                      for hi, h in enumerate(grp.elements)]
                     for gi, g in enumerate(grp.elements)])


def bilinear_plus_coboundary(moduli, form, m, seed):
    """Non-Heisenberg cocycle: a bilinear form on the coordinates plus the
    coboundary of a random normalized function."""
    grp = tg.FiniteAbelianGroup(moduli)
    form = np.asarray(form)
    table = np.array([[np.asarray(g) @ form @ np.asarray(h) for h in grp.elements]
                      for g in grp.elements])
    b = np.random.default_rng(seed).integers(0, m, grp.order)
    b[law.index(grp, law.identity(grp))] = 0
    return tg.Cocycle(grp, table + coboundary(grp, b), m)


def table_cases():
    cases = {}
    for moduli, m in (((2,), 2), ((4,), 4)):
        grp = tg.FiniteAbelianGroup(moduli)
        cases[f"{grp!r}/trivial"] = tg.trivial_cocycle(grp, m)
    for moduli in ((2, 2), (4, 2), (3, 3)):
        grp = tg.FiniteAbelianGroup(moduli)
        cases[f"{grp!r}/heisenberg"] = tg.heisenberg_cocycle(grp)
    cases["Z4/bilinear+db"] = bilinear_plus_coboundary((4,), [[1]], 4, 20)
    cases["Z3xZ3/bilinear+db"] = bilinear_plus_coboundary((3, 3), [[1, 2], [0, 1]], 3, 21)
    cases["Z4xZ2/bilinear+db"] = bilinear_plus_coboundary((4, 2), [[0, 1], [1, 1]], 2, 22)
    return cases


CASES = table_cases()


@pytest.fixture(params=sorted(CASES))
def tau(request):
    return CASES[request.param]


def test_group_tables_match_tuple_api(tau):
    grp = tau.group
    assert grp.elements[0] == law.identity(grp)
    for gi, g in enumerate(grp.elements):
        assert grp.neg_table[gi] == law.index(grp, law.neg(grp, g))
        for hi, h in enumerate(grp.elements):
            assert grp.add_table[gi, hi] == law.index(grp, law.add(grp, g, h))


def test_extension_tables_match_mul_and_inv(tau):
    ext = tg.TwistedExtension(tau)
    grp, m = ext.group, ext.m
    for gi, g in enumerate(grp.elements):
        for i in range(m):
            assert law.inv(ext, (g, i)) == (grp.elements[grp.neg_table[gi]],
                                            (ext.inv_phase[gi] - i) % m)
            for xi, x in enumerate(grp.elements):
                for j in range(m):
                    assert law.mul(ext, law.inv(ext, (g, i)), (x, j)) == (
                        grp.elements[ext.tgt[gi, xi]], (ext.phase[gi, xi] + j - i) % m)
                    assert law.mul(ext, (g, i), (x, j)) == (
                        grp.elements[grp.add_table[gi, xi]],
                        (i + j + tau.exponents[gi, xi]) % m)
    # the level-1 factor of (g, 0)^{-1} (x, 0), shared by every caller
    assert np.array_equal(ext.twist, tau.root() ** ext.phase)
    assert not ext.twist.flags.writeable


def test_heisenberg_outer_product_matches_pairing():
    grp = tg.FiniteAbelianGroup((4, 2))
    tau = tg.heisenberg_cocycle(grp)
    for g in grp.elements:
        for h in grp.elements:
            assert law.exponent(tau, g, h) == (g[1] * h[0]) % 2


def test_check_cocycle_ordered_list_matches_oracle(tau):
    grp, m = tau.group, tau.root_order
    assert tg.check_cocycle(tau) == brute_check_cocycle(tau) == []
    # one perturbed entry, inside the table (identity violations once the
    # order exceeds 2) or on the unit row (normalization and identity)
    for entry in ((grp.order - 1, 1), (1, 0)):
        exps = tau.exponents.copy()
        exps[entry] += 1
        bad = tg.check_cocycle(tg.Cocycle(grp, exps, m))
        assert bad == brute_check_cocycle(tg.Cocycle(grp, exps, m))
        assert bad or (grp.order == 2 and entry == (1, 1))
    # an unnormalized coboundary keeps the identity but breaks normalization
    b = np.arange(grp.order) % m + 1
    shifted = tg.Cocycle(grp, tau.exponents + coboundary(grp, b), m)
    bad = tg.check_cocycle(shifted)
    assert bad == brute_check_cocycle(shifted)
    assert bad and all(kind == "normalization" for kind, *_ in bad)


def counted_defects(monkeypatch):
    """The entry count of every defect block ``check_cocycle`` forms, in a
    list that the caller may clear."""
    sizes = []
    defect = tg._defect

    def counted(*args):
        cube = defect(*args)
        sizes.append(cube.size)
        return cube

    monkeypatch.setattr(tg, "_defect", counted)
    return sizes


def full_sweep_clean(tau: tg.Cocycle) -> bool:
    """Every ``(g, h, k)`` defect and both unit rows vanish mod m, from the
    whole n x n x n defect at once."""
    K, add, m = tau.exponents.astype(np.int64), tau.group.add_table, tau.root_order
    defect = K[:, :, None] - K[None, :, :] + K[add] - K[:, add]
    return not (np.any(defect % m) or np.any(K[0] % m) or np.any(K[:, 0] % m))


def test_clean_check_forms_only_the_generator_rows(monkeypatch):
    sizes = counted_defects(monkeypatch)
    tau = tg.heisenberg_cocycle(tg.FiniteAbelianGroup((8, 8)))
    assert tg.check_cocycle(tau) == []
    # r n^2 defect entries, one 64 x 64 row per generator, not n^3 = 262144
    assert sum(sizes) == 2 * 4096


def assert_generator_verdict_is_the_full_sweep(tau, monkeypatch):
    """Under each single-entry shift the check is clean exactly when the full
    sweep is, and it stops after the generator rows exactly then."""
    sizes = counted_defects(monkeypatch)
    grp, m, n = tau.group, tau.root_order, tau.group.order
    assert n > len(grp.moduli)  # so r n^2 < n^3 tells the routes apart
    verdicts = set()
    for entry in np.ndindex(n, n):
        exps = tau.exponents.copy()
        exps[entry] += 1
        shifted = tg.Cocycle(grp, exps, m)
        sizes.clear()
        clean = full_sweep_clean(shifted)
        assert (tg.check_cocycle(shifted) == []) == clean
        assert (sum(sizes) == len(grp.moduli) * n * n) == clean
        verdicts.add(clean)
    return verdicts


def test_generator_verdict_matches_full_sweep_on_every_shift(tau, monkeypatch):
    assert full_sweep_clean(tau)
    assert False in assert_generator_verdict_is_the_full_sweep(tau, monkeypatch)


@pytest.mark.parametrize("moduli, form, m", [
    ((1, 3), [[0, 0], [0, 1]], 3),
    ((3, 1), [[1, 0], [0, 0]], 3),
    ((2, 3, 2), [[0, 0, 3], [0, 2, 0], [0, 0, 0]], 6),
])
def test_generator_verdict_matches_full_sweep_with_unit_factors(moduli, form, m,
                                                                monkeypatch):
    tau = bilinear_plus_coboundary(moduli, form, m, 24)
    assert tg.check_cocycle(tau) == brute_check_cocycle(tau) == []
    assert False in assert_generator_verdict_is_the_full_sweep(tau, monkeypatch)


# order 12, m = 6: a g-step holds 144 cocycle entries and 72 fiber-sum
# entries, so 50 makes one-g blocks everywhere, 360 convolve blocks of 5, 5
# and 2 g, and 720 cocycle cubes of 5, 5 and 2 g
@pytest.mark.parametrize("block", [50, 360, 720])
def test_blocked_kernels_match_oracles_in_order(monkeypatch, block):
    monkeypatch.setattr(opcore, "BLOCK_ELEMENTS", block)
    tau = bilinear_plus_coboundary((2, 3, 2), [[0, 0, 3], [0, 2, 0], [0, 0, 0]], 6, 23)
    grp, m = tau.group, tau.root_order
    assert tg.check_cocycle(tau) == brute_check_cocycle(tau) == []
    for entry in ((7, 5), (0, 9)):
        exps = tau.exponents.copy()
        exps[entry] += 1
        bad = tg.check_cocycle(tg.Cocycle(grp, exps, m))
        assert bad and bad == brute_check_cocycle(tg.Cocycle(grp, exps, m))
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(32)
    shape = (grp.order, m)
    f, h = (tg.GroupAlgebraElement(ext, rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape)) for _ in range(2))
    assert np.max(np.abs(tg.convolve(f, h).values - brute_convolve(f, h))) < 1e-12


# root orders on each side of the switches of the defect's integer type:
# 4m = 128 at m = 32 (int8 to int16), 4m = 32768 at m = 8192 (int16 to int32)
@pytest.mark.parametrize("m", [31, 32, 33, 8191, 8192, 8193])
def test_check_cocycle_holds_at_every_integer_width(m):
    grp = tg.FiniteAbelianGroup((2, 2))
    # a coboundary with values near m - 1 is a normalized cocycle
    tau = tg.Cocycle(grp, coboundary(grp, np.array([0, m - 1, m - 2, m - 3])), m)
    assert tau.exponents.max() >= m - 2
    shifted = tau.exponents.copy()
    shifted[3, 2] = (shifted[3, 2] + m - 1) % m
    # tables overwritten after construction carry representatives >= m,
    # which wrap in a narrow type unless reduced first
    wide = tg.Cocycle(grp, tau.exponents, m)
    wide.exponents = tau.exponents + m * (1 + 7919 * np.arange(16).reshape(4, 4))
    wide_shifted = tg.Cocycle(grp, tau.exponents, m)
    wide_shifted.exponents = wide.exponents.copy()
    wide_shifted.exponents[3, 2] += m - 1
    for cocycle, valid in ((tau, True), (tg.Cocycle(grp, shifted, m), False),
                           (wide, True), (wide_shifted, False)):
        bad = tg.check_cocycle(cocycle)
        assert bad == brute_check_cocycle(cocycle)
        assert (bad == []) == valid


def test_property_cocycle_identity_on_random_finite_abelian_groups():
    # a bilinear form that is well defined on the group plus a normalized
    # coboundary is a cocycle; one shifted entry is caught exactly as the
    # triple loop catches it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    moduli = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
        lambda ms: int(np.prod(ms)) <= 12)

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(moduli, st.integers(1, 6), st.data())
    def check(ms, m, data):
        grp = tg.FiniteAbelianGroup(ms)
        r = len(ms)
        # g_i F_ij h_j mod m must not see the representative of g_i or h_j
        step = [[np.lcm(m // np.gcd(m, ms[i]), m // np.gcd(m, ms[j])) for j in range(r)]
                for i in range(r)]
        form = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=r * r,
                                           max_size=r * r))).reshape(r, r) * step
        b = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=grp.order,
                                        max_size=grp.order)))
        b[law.index(grp, law.identity(grp))] = 0
        table = grp.coords @ form @ grp.coords.T + coboundary(grp, b)
        tau = tg.Cocycle(grp, table, m)
        assert tg.check_cocycle(tau) == brute_check_cocycle(tau) == []
        if m == 1:
            return
        entry = data.draw(st.tuples(st.integers(0, grp.order - 1),
                                    st.integers(0, grp.order - 1)))
        exps = tau.exponents.copy()
        exps[entry] += data.draw(st.integers(1, m - 1))
        shifted = tg.Cocycle(grp, exps, m)
        bad = tg.check_cocycle(shifted)
        assert bad == brute_check_cocycle(shifted)
        # below order 3 a shifted (g, g) entry can cancel in every triple
        assert bad or grp.order <= 2

    check()


def brute_level_project(f, level):
    ext = f.ext
    omega = ext.tau.root()
    return np.array([sum(f.values[gi, j] * omega ** (-j * level) for j in range(ext.m))
                     / ext.m for gi in range(ext.group.order)])


def brute_involution(f):
    ext = f.ext
    return np.array([[np.conj(law.at(f, law.inv(ext, (g, j)))) for j in range(ext.m)]
                     for g in ext.group.elements])


def test_convolve_tagged_and_untagged_match_brute(tau):
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(30)
    for level in range(ext.m):
        f, h = (random_tagged(ext, level, rng) for _ in range(2))
        oracle = brute_convolve(f, h)
        tagged = tg.convolve(f, h)
        assert tagged.level == level
        assert np.max(np.abs(tagged.table() - oracle)) < 1e-12
        untagged = tg.convolve(tg.GroupAlgebraElement(ext, f.table()),
                               tg.GroupAlgebraElement(ext, h.table()))
        assert untagged.level is None
        assert np.max(np.abs(untagged.values - oracle)) < 1e-12
    shape = (ext.group.order, ext.m)
    f, h = (tg.GroupAlgebraElement(ext, rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape)) for _ in range(2))
    assert np.max(np.abs(tg.convolve(f, h).values - brute_convolve(f, h))) < 1e-12


# m = 1, 2, 3, 8 and 16, each in one block and in one-g blocks
@pytest.mark.parametrize("block", [50, opcore.BLOCK_ELEMENTS])
@pytest.mark.parametrize("moduli, heisenberg", [((3,), False), ((4, 2), True), ((3, 3), True),
                                                ((8, 8), True), ((16, 16), True)])
def test_untagged_convolve_is_the_remainder_route_bit_for_bit(moduli, heisenberg, block,
                                                              monkeypatch):
    monkeypatch.setattr(opcore, "BLOCK_ELEMENTS", block)
    grp = tg.FiniteAbelianGroup(moduli)
    tau = tg.heisenberg_cocycle(grp) if heisenberg else tg.trivial_cocycle(grp)
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(ext.m)
    shape = (grp.order, ext.m)
    f, h = (tg.GroupAlgebraElement(ext, rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape)) for _ in range(2))
    assert tg.convolve(f, h).values.tobytes() == remainder_convolve(f, h).tobytes()


def test_involution_and_level_project_match_brute(tau):
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(31)
    shape = (ext.group.order, ext.m)
    full = tg.GroupAlgebraElement(ext, rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape))
    assert np.max(np.abs(full.involution().values - brute_involution(full))) < 1e-13
    for level in range(ext.m):
        f = random_tagged(ext, level, rng)
        star = f.involution()
        assert star.level == level
        assert np.max(np.abs(star.table() - brute_involution(f))) < 1e-13
        proj = tg.level_project(full, level).values
        assert np.max(np.abs(proj - brute_level_project(full, level))) < 1e-13


def test_decompose_matches_center_svd_oracle(tau):
    """The closed-form count against the former route: the rank of the
    center equations ``z u_g = u_g z`` by SVD."""
    grp = tau.group
    rows = []
    for gi, g in enumerate(grp.elements):
        for h in grp.elements:
            diff = law.value(tau, g, h) - law.value(tau, h, g)
            if diff != 0:
                row = np.zeros(grp.order, dtype=complex)
                row[gi] = diff
                rows.append(row)
    rank = 0
    if rows:
        svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
    blocks = tg.decompose_twisted_algebra(grp, tau)
    assert len(blocks) == grp.order - rank
    assert sum(d * d for d in blocks) == grp.order


# ------------------------------------------------------- module oracles

def brute_m_iso(phi1, phi2):
    ext = phi2.ext
    return np.array([[phi1[yi] * law.at(phi2, law.mul(ext, law.inv(ext, (y, 0)), (g, 0)))
                      for yi, y in enumerate(ext.group.elements)]
                     for g in ext.group.elements])


def brute_right_action(e, b):
    ext = e.ext
    grp = ext.group
    out = np.zeros_like(e.table)
    for gi, g in enumerate(grp.elements):
        for gpi, gp in enumerate(grp.elements):
            out[gi, :] += e.table[gpi, :] * law.at(b, law.mul(ext, law.inv(ext, (gp, 0)),
                                                             (g, 0)))
    return out


def brute_left_action(a, e):
    ext = e.ext
    grp = ext.group
    out = np.zeros_like(e.table)
    for gi, g in enumerate(grp.elements):
        for yi, y in enumerate(grp.elements):
            for hi, h in enumerate(grp.elements):
                h_inv = law.inv(ext, (h, 0))
                out[gi, yi] += a.values[hi, yi] * expand(
                    e, law.mul(ext, h_inv, (g, 0)), law.mul(ext, h_inv, (y, 0)))
    return out


def brute_inner_product(e1, e2):
    ext = e1.ext
    grp = ext.group
    omega = ext.tau.root()
    out = np.zeros(grp.order, dtype=complex)
    for gi, g in enumerate(grp.elements):
        for gpi, gp in enumerate(grp.elements):
            tgt, j = law.mul(ext, (gp, 0), (g, 0))
            out[gi] += np.vdot(e1.table[gpi, :], e2.table[law.index(grp, tgt), :]) * omega ** j
    return out


def test_module_kernels_match_brute(tau):
    ext = tg.TwistedExtension(tau)
    grp = ext.group
    n = grp.order
    rng = np.random.default_rng(33)

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    phi1, phi2, b = cvec(n), random_tagged(ext, 1, rng), random_tagged(ext, 1, rng)
    e = tg.m_iso(phi1, phi2)
    assert np.max(np.abs(e.table - brute_m_iso(phi1, phi2))) < 1e-13
    e2 = tg.ModuleElement(ext, cvec(n, n))
    right = tg.module_right_action(e2, b).table
    assert np.max(np.abs(right - brute_right_action(e2, b))) < 1e-12
    a = tg.CrossedProductElement.translation(grp, cvec(n, n))
    left = tg.module_left_action(a, e2).table
    assert np.max(np.abs(left - brute_left_action(a, e2))) < 1e-12
    inner = tg.module_inner_product(e, e2)
    assert inner.level == 1 % ext.m
    assert np.max(np.abs(inner.values - brute_inner_product(e, e2))) < 1e-12


# ---------------------------------------------------------------- reach

def test_reach_heisenberg_z16():
    """Order 256 (m = 16), beyond what tuple loops reach in test time.  The
    brute-force kernels work in blocks: their traced peaks measure 0.20 MB
    (check_cocycle) and 1.84 MB (untagged convolve), bounded at 0.3 MB and
    3 MB, where one n x n complex table takes 1 MB and one int64 table
    0.5 MB.  crossed_convolve, checked against the product of the Schatten
    maps, holds its output and two int64 tables, and per point one int64
    index table and the n x n block it gathers: 3.67 MB, bounded at 4 MB."""
    grp = tg.FiniteAbelianGroup((16, 16))
    tau = tg.heisenberg_cocycle(grp)
    grp.add_table  # built once, outside the traced calls
    bad, peak = traced_peak(tg.check_cocycle, tau)
    assert bad == []
    assert peak < 300_000
    assert tg.decompose_twisted_algebra(grp, tau) == [16]
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(34)
    for level in range(ext.m):
        f, h = (random_tagged(ext, level, rng) for _ in range(2))
        tagged = tg.convolve(f, h).table()
        untagged, peak = traced_peak(tg.convolve, tg.GroupAlgebraElement(ext, f.table()),
                                     tg.GroupAlgebraElement(ext, h.table()))
        assert untagged.level is None
        assert np.max(np.abs(tagged - untagged.values)) / np.max(np.abs(tagged)) < 1e-10
        assert peak < 3_000_000
    a, b = (tg.CrossedProductElement.translation(grp, rng.standard_normal((256, 256))
                                                 + 1j * rng.standard_normal((256, 256)))
            for _ in range(2))
    product, peak = traced_peak(tg.crossed_convolve, a, b)
    lhs = tg.schatten_map(product).to_dense()
    rhs = tg.schatten_map(a).to_dense() @ tg.schatten_map(b).to_dense()
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10
    assert peak < 4_000_000


def test_reach_heisenberg_z32_cocycle():
    """Order 1024 (m = 32): a clean check forms the two generator rows of
    1024^2 defects each, not the 1024^3 triples.  Measured 12 ms with a
    3.15 MB traced peak (2-core Xeon), where the reduced table and one
    defect row take 1 MB each; bounded at 0.5 s and 4 MB."""
    grp = tg.FiniteAbelianGroup((32, 32))
    tau = tg.heisenberg_cocycle(grp)
    grp.add_table  # built once, outside the timed and traced calls
    start = time.perf_counter()
    assert tg.check_cocycle(tau) == []
    assert time.perf_counter() - start < 0.5
    bad, peak = traced_peak(tg.check_cocycle, tau)
    assert bad == []
    assert peak < 4_000_000


def test_schatten_product_of_dense_content_stays_in_blocks():
    """Order 128: the two Schatten maps have 128^2 entries each and meet in
    128^3 pairs, which the one-shot expansion held at once (a 256 MB traced
    peak); taken one block of columns at a time it peaks near 2.3 MB."""
    grp = tg.FiniteAbelianGroup((16, 8))
    rng = Lcg(35)
    a, b = (tg.schatten_map(tg.CrossedProductElement.translation(grp, rng.complex_matrix(128)))
            for _ in range(2))
    product, peak = traced_peak(a.__matmul__, b)
    rhs = a.to_dense() @ b.to_dense()
    assert np.max(np.abs(product.to_dense() - rhs)) / np.max(np.abs(rhs)) < 1e-12
    assert peak < 8_000_000


# ------------------------------------------------------- stacked trials

TRIALS = 5


def stacked_cases(ext, rng):
    """``{kernel: (stacked result, result of trial t)}`` for every kernel
    that takes leading trial axes, on one ``(TRIALS, ...)`` draw."""
    n = ext.group.order

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    phi1 = cvec(TRIALS, n)
    f, h, b = (tg.GroupAlgebraElement(ext, cvec(TRIALS, n), 1) for _ in range(3))
    f0 = tg.GroupAlgebraElement(ext, cvec(TRIALS, n), 0)
    e1, e2 = (tg.ModuleElement(ext, cvec(TRIALS, n, n)) for _ in range(2))
    a = tg.CrossedProductElement.translation(ext.group, cvec(n, n))
    z = cvec(TRIALS)

    def at(x, t):
        if isinstance(x, tg.ModuleElement):
            return tg.ModuleElement(ext, x.table[t])
        return tg.GroupAlgebraElement(ext, x.values[t], x.level)

    return {
        "table": (f.table(), lambda t: at(f, t).table()),
        "translates": (ext.translates(f.values, 1), lambda t: ext.translates(f.values[t], 1)),
        "scale": (f.scale(z[:, None]).values, lambda t: at(f, t).scale(z[t]).values),
        "involution": (f0.involution().values, lambda t: at(f0, t).involution().values),
        "convolve": (tg.convolve(f, h).values,
                     lambda t: tg.convolve(at(f, t), at(h, t)).values),
        "convolve distinct levels": (tg.convolve(f, f0).values,
                                     lambda t: tg.convolve(at(f, t), at(f0, t)).values),
        "m_iso": (tg.m_iso(phi1, f).table, lambda t: tg.m_iso(phi1[t], at(f, t)).table),
        "module_right_action": (tg.module_right_action(e1, b).table,
                                lambda t: tg.module_right_action(at(e1, t), at(b, t)).table),
        "module_left_action": (tg.module_left_action(a, e1).table,
                               lambda t: tg.module_left_action(a, at(e1, t)).table),
        "module_inner_product": (tg.module_inner_product(e1, e2).values,
                                 lambda t: tg.module_inner_product(at(e1, t),
                                                                   at(e2, t)).values),
    }


def test_stacked_kernels_match_a_loop_over_trials(tau):
    ext = tg.TwistedExtension(tau)
    for name, (stacked, one) in stacked_cases(ext, np.random.default_rng(36)).items():
        loop = np.array([one(t) for t in range(TRIALS)])
        assert stacked.shape == loop.shape and stacked.shape[0] == TRIALS, name
        assert np.max(np.abs(stacked - loop)) <= 1e-13, name


def test_stacked_kernels_check_the_trailing_shape():
    ext = tg.TwistedExtension(z3_heisenberg()[1])
    n, m = ext.group.order, ext.m
    f = tg.GroupAlgebraElement(ext, np.ones((TRIALS, n)), 1)
    with pytest.raises(ValueError, match="slice over G"):
        tg.GroupAlgebraElement(ext, np.ones((TRIALS, n + 1)), 1)
    with pytest.raises(ValueError, match="full table"):
        tg.GroupAlgebraElement(ext, np.ones((TRIALS, n, m)))
    with pytest.raises(ValueError, match="G x G"):
        tg.ModuleElement(ext, np.ones((TRIALS, n, n + 1)))
    with pytest.raises(ValueError, match="G x G"):
        tg.ModuleElement(ext, np.ones(n))
    with pytest.raises(ValueError, match="function on G"):
        tg.m_iso(np.ones((TRIALS, n - 1)), f)
    with pytest.raises(ValueError, match="function on G"):
        tg.m_iso(np.ones((TRIALS, 1)), f)


class RecordingLcg(Lcg):
    """The experiment stream, keeping every block it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def complex_matrix(self, n, m=None):
        out = super().complex_matrix(n, m)
        self.draws.append(out)
        return out


@pytest.mark.parametrize("seed", [Config().seed, 99])
def test_stacked_m_iso_rows_match_the_per_trial_loop(seed):
    # the fingroup_suite rows against the per-trial loop of acceptance
    # criterion 7 on the draws the experiment made
    rng = RecordingLcg(seed)
    rows = {row.quantity: row.measured
            for row in EXPERIMENTS["fingroup_suite"](Config(seed=seed), rng).rows}
    draws, a_values = rng.draws[-2:]
    grp, tau = z3_heisenberg()
    ext = tg.TwistedExtension(tau)
    a = tg.CrossedProductElement.translation(grp, a_values)
    loop = [m_iso_trial(ext, *trial, a) for trial in draws.reshape(100, 5, -1)]
    bimodule, left = (max(worst) for worst in zip(*loop))
    assert max(bimodule, left) <= 1e-10
    stacked = (rows["m-iso isometry and right-module identities (100 trials)"],
               rows["m-iso left-module identity (100 trials)"])
    assert abs(stacked[0] - bimodule) <= 1e-13
    assert abs(stacked[1] - left) <= 1e-13
