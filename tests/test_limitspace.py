import itertools
import re
import warnings

import numpy as np
import pytest

from kkindex import fock, limitspace as ls, opcore
from kkindex.opcore import adjoint


# ---------------------------------------------------------------- oracles

def partial_sum_oracle(m, terms=400):
    """Independent tail summation for the pow2 rule."""
    return sum(2.0 * np.sqrt(2.0 * n) * 2.0 ** (-n) for n in range(m + 1, m + terms))


# ---------------------------------------------------------------- ladders

def test_mode_ladder_relations():
    basis = ls.mode_basis(8)
    aplus, aminus, aplus_d, aminus_d = (ls._ladder(basis, pos, step).to_dense()
                                        for step in (-1, 1) for pos in (0, 1))
    # canonical commutation away from the truncation edge: [a_s, a_t^dag] = delta_st
    ident = np.eye(basis.dim)
    for a, same, other in ((aplus, aplus_d, aminus_d), (aminus, aminus_d, aplus_d)):
        ccr = a @ same - same @ a
        cross = a @ other - other @ a
        for j in fock.safe_indices(basis, 1):
            assert np.max(np.abs(ccr[:, j] - ident[:, j])) < 1e-13
            assert np.max(np.abs(cross[:, j])) < 1e-13
    dz = ls.dRz_matrix(basis).to_dense()
    dzb = ls.dRzbar_matrix(basis).to_dense()
    # skew pair: dRz* = -dRzbar, away from the truncation edge
    adj = adjoint(ls.dRz_matrix(basis)).to_dense()
    for j in fock.safe_indices(basis, 1):
        assert np.max(np.abs(adj[:, j] + dzb[:, j])) < 1e-13
    # translation generators commute (check on the interior)
    comm = dz @ dzb - dzb @ dz
    for j in fock.safe_indices(basis, 2):
        assert np.max(np.abs(comm[:, j])) < 1e-13


def test_xi_norm_monotone_to_one():
    # chi_sigma is a unit vector; truncated coefficient mass grows toward 1
    norms = []
    for h in (8, 32, 128, 512):
        mode = ls.xi_coeffs(0.5, h_max=h)
        norms.append(np.linalg.norm(mode.coeffs) ** 2)
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1.0
    big = ls.xi_coeffs(0.5, h_max=4096)
    assert np.linalg.norm(big.coeffs) ** 2 > 0.98


def test_xi_only_diagonal_sector():
    # rotation invariance: the full mode vector is supported on (k, k)
    mode = ls.xi_coeffs(1.0, h_max=8)
    basis = ls.mode_basis(8)
    v = np.zeros(basis.dim, dtype=complex)
    for k in range(len(mode.coeffs)):
        v[basis.labels.index((k, k))] = mode.coeffs[k]
    # odd-total-degree (and any off-diagonal) components vanish by symmetry
    for i, (p, q) in enumerate(basis.labels):
        if p != q:
            assert v[i] == 0.0


@pytest.mark.parametrize("sigma", [2.0 ** -20, 2.0 ** -10, 0.125, 0.5, 1.0, 2.0])
def test_laguerre_integrals_match_quadrature(sigma):
    # the closed-form recurrence against an independent quadrature of
    # L_k(u) e^{-u/2} on [0, sigma^2]; the naive L_k - L_(k-1) form loses
    # accuracy to cancellation at sigma = 2^-10
    ks = (0, 1, 2, 5, 17, 64, 200)
    got = ls.xi_coeffs(sigma, h_max=2 * max(ks)).coeffs
    oracle = np.array([
        ls.radial_quadrature(
            lambda u, k=k: np.polynomial.laguerre.lagval(u, np.eye(k + 1)[k])
            * np.exp(-u / 2.0), sigma ** 2, rel_tol=1e-14) / sigma
        for k in ks])
    assert np.max(np.abs(got[list(ks)] - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def restart_laguerre_integrals(sigma, kmax):
    """The recurrence from k = 0 on numpy scalars, restarted per cutoff."""
    a = sigma * sigma
    damp = 2.0 * np.exp(-a / 2.0)
    out = [-2.0 * np.expm1(-a / 2.0)]
    l1_prev, l1 = 0.0, 1.0
    for k in range(1, kmax + 1):
        out.append(-out[-1] + damp * (a / k) * l1)
        l1_prev, l1 = l1, ((2 * k - a) * l1 - k * l1_prev) / k
    return np.array(out) / sigma


def restart_xi_coeffs(sigma):
    kmax = 256
    while True:
        kmax = min(kmax, ls.XI_HARD_CAP)
        coeffs = restart_laguerre_integrals(sigma, kmax)
        deficiency = max(1.0 - float(np.add.reduce(coeffs * coeffs)), 0.0)
        if deficiency < ls.XI_TARGET_DEFICIENCY or kmax >= ls.XI_HARD_CAP:
            return coeffs, deficiency
        kmax *= 4


@pytest.mark.parametrize("sigma,kmax", [(8.0, 256), (4.0, 1024), (1.0, 4096),
                                        (0.5, 16384), (0.25, 20000)])
def test_continued_xi_recurrence_is_bit_identical_to_restarts(sigma, kmax):
    # one sigma per cutoff step the adaptive loop can stop at
    mode = ls.xi_coeffs(sigma)
    coeffs, deficiency = restart_xi_coeffs(sigma)
    assert len(mode.coeffs) == kmax + 1
    assert np.array_equal(mode.coeffs, coeffs)
    assert mode.deficiency == deficiency
    assert np.array_equal(ls.xi_coeffs(sigma, h_max=2 * kmax).coeffs, coeffs)


def generator_laguerre_terms(sigma):
    """The recurrence as a generator of Python floats, without end."""
    a = float(sigma) * float(sigma)
    damp = float(2.0 * np.exp(-a / 2.0))
    term = float(-2.0 * np.expm1(-a / 2.0))
    yield term
    l1_prev, l1 = 0.0, 1.0
    k = 0
    while True:
        k += 1
        term = -term + damp * (a / k) * l1
        yield term
        l1_prev, l1 = l1, ((2 * k - a) * l1 - k * l1_prev) / k


def list_xi_coeffs(sigma, h_max=None):
    """``(coeffs, deficiency)`` with the terms drawn by ``islice`` into a
    list of Python floats and copied out at every cutoff."""
    terms, integrals = generator_laguerre_terms(sigma), []
    kmax = 256 if h_max is None else max(h_max // 2, 0)
    while True:
        integrals.extend(itertools.islice(terms, kmax + 1 - len(integrals)))
        coeffs = np.array(integrals) / sigma
        deficiency = max(1.0 - float(np.add.reduce(coeffs * coeffs)), 0.0)
        if (h_max is not None or deficiency < ls.XI_TARGET_DEFICIENCY
                or kmax >= ls.XI_HARD_CAP):
            return coeffs, deficiency
        kmax = min(4 * kmax, ls.XI_HARD_CAP)


@pytest.mark.parametrize("sigma, h_max", [(1.0, None), (0.5, None), (0.125, None),
                                          (0.5, 64), (0.5, opcore.BLOCK_ELEMENTS // 16),
                                          (0.5, opcore.BLOCK_ELEMENTS // 16 + 2), (8.0, None)])
def test_buffered_xi_coeffs_match_the_list_recurrence_bit_for_bit(sigma, h_max):
    # the three adaptive cuts of a default run and the j-cycle's fixed cut;
    # fixed cuts that end on the recurrence's second chunk boundary (a chunk
    # is BLOCK_ELEMENTS // 64 modes) and one past it, and the adaptive cut
    # that stops at 256
    mode = ls.xi_coeffs(sigma, h_max)
    coeffs, deficiency = list_xi_coeffs(sigma, h_max)
    assert np.array_equal(mode.coeffs.view(np.uint64), coeffs.view(np.uint64))
    assert mode.deficiency == deficiency
    j = np.arange(1, len(coeffs))
    hermite = float(np.sqrt(np.sum((j / 2.0) * (coeffs[1:] - coeffs[:-1]) ** 2)))
    assert ls._dRz_norm_hermite(mode) == hermite


@pytest.mark.parametrize("n", [2, 3, 5, 20, 80, 100])
def test_gauss_legendre_rule_matches_leggauss_bit_for_bit(monkeypatch, n):
    # every report reads the 80-point rule; the other sizes exercise the
    # same code, built uncached
    monkeypatch.setattr(ls, "_QUAD_POINTS", n)
    nodes, weights = ls._gauss_legendre.__wrapped__()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(nodes.view(np.uint64), want_nodes.view(np.uint64))
    assert np.array_equal(weights.view(np.uint64), want_weights.view(np.uint64))
    assert not (nodes.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("sigma, h_max, what", [(1e6, 64, "are not finite"),
                                                (1e300, 4, "are not finite"),
                                                (1e300, None, "are not finite"),
                                                (1e-300, 64, "vanish"),
                                                (1e-300, None, "vanish")])
def test_xi_coeffs_refuses_sigma_outside_the_recurrence_range(sigma, h_max, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma!r}") + f".* {what}"):
            ls.xi_coeffs(sigma, h_max=h_max)
    # a large sigma at a small cut keeps finite coefficients: 2 (-1)^k / sigma
    assert np.allclose(ls.xi_coeffs(1e6, h_max=8).coeffs * 1e6, 2.0 * (-1.0) ** np.arange(5))


def test_xi_overlap_dRz_exact_zero():
    mode = ls.xi_coeffs(0.5, h_max=32)
    assert ls.xi_overlap_dRz(mode) == 0.0


def test_dRz_norm_quadrature_value():
    # oracle: int_0^sigma (r^2/2) (1/(pi sigma^2)) 2 pi r dr = sigma^2 / 4
    for sigma in (1.0, 0.5, 0.25, 0.125):
        quad, hermite, err_bound, deficiency = ls.dRz_norm_details(sigma)
        assert quad == ls.dRz_norm_quadrature(sigma)
        assert quad == pytest.approx(sigma / 2.0, abs=1e-12)
        assert abs(quad - hermite) <= err_bound
        assert quad <= sigma and hermite <= sigma


# ---------------------------------------------------------------- sigma

def test_sigma_condition_verdicts():
    assert ls.SigmaSequence("pow2").convergent
    assert not ls.SigmaSequence("harmonic").convergent
    # a finite list decides nothing, so it is not known to converge
    assert not ls.SigmaSequence("explicit", [0.5, 0.25]).convergent


def test_sigma_parse():
    assert ls.SigmaSequence.parse("pow2").rule == "pow2"
    seq = ls.SigmaSequence.parse("list:0.5,0.25")
    assert seq.values == (0.5, 0.25)
    with pytest.raises(ValueError):
        ls.SigmaSequence("geometric")


def test_tail_bound_values():
    seq = ls.SigmaSequence("pow2")
    val = ls.tail_bound(5, seq)
    assert val == pytest.approx(partial_sum_oracle(5), abs=1e-12)
    assert val == pytest.approx(0.233, abs=5e-4)
    assert ls.tail_bound(0, seq) == pytest.approx(partial_sum_oracle(0), abs=1e-12)
    # monotone decreasing to zero
    vals = [ls.tail_bound(m, seq) for m in range(9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        ls.tail_bound(3, ls.SigmaSequence("harmonic"))


def test_frozen_tail_norm_below_bound():
    seq = ls.SigmaSequence("pow2")
    for m in range(3, 9):
        measured = ls.frozen_tail_dirac_norm(m, seq)
        assert 0 < measured <= ls.tail_bound(m, seq)


# ---------------------------------------------------------------- frozen tails

def test_build_d_frozen_measurements():
    # with every mode frozen, the Dirac norm on Xi x vacuum-spinor is the
    # closed-form per-mode aggregate, below the analytic tail bound
    seq = ls.SigmaSequence("pow2")
    assert ls.frozen_tail_dirac_norm(0, seq) <= ls.tail_bound(0, seq)
    # and the active-window deficit (D - D^M)(Xi x 1_f) measured through
    # modes M+1..N is below tail_bound(M) for every window
    for m in range(3, 9):
        measured = ls.frozen_tail_dirac_norm(m, seq, n_cut=m + 40)
        assert measured <= ls.tail_bound(m, seq)


def test_quadrature_validates_first_moment():
    # adaptive quadrature against the closed form sigma^2/4
    for sigma in (0.7, 0.33):
        val = ls.radial_quadrature(
            lambda r: (r ** 2 / 2.0) * (1.0 / (np.pi * sigma ** 2)) * 2.0 * np.pi * r,
            sigma)
        assert val == pytest.approx(sigma ** 2 / 4.0, rel=1e-12)


def test_chi_unit_norm_by_quadrature():
    # the normalized disk indicator is a unit vector exactly
    for sigma in (1.0, 0.5, 0.125):
        val = ls.radial_quadrature(
            lambda r: (1.0 / (np.pi * sigma ** 2)) * 2.0 * np.pi * r, sigma)
        assert val == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------- mode basis as an array

def sorted_mode_labels(h_max):
    """The mode basis as a sorted comprehension: the oracle of :func:`mode_basis`."""
    return sorted((p, q) for p in range(h_max + 1) for q in range(h_max + 1)
                  if p + q <= h_max)


@pytest.mark.parametrize("h_max", [0, 1, 2, 5, 9, 66])
def test_mode_basis_matches_the_sorted_comprehension(h_max):
    basis = ls.mode_basis(h_max)
    labels = sorted_mode_labels(h_max)
    assert basis.labels == tuple(labels)
    assert basis.energy.tolist() == [p + q for p, q in labels]
    assert basis.gram.tolist() == [1.0] * len(labels)
    assert basis.parity.tolist() == [0] * len(labels)


@pytest.mark.parametrize("h_max, basis_h", [(0, 0), (8, 8), (8, 11), (64, 66)])
def test_on_basis_places_the_coefficients_on_the_diagonal_labels(h_max, basis_h):
    mode = ls.xi_coeffs(0.5, h_max=h_max)
    basis = ls.mode_basis(basis_h)
    want = np.zeros(basis.dim, dtype=complex)
    for k, c in enumerate(mode.coeffs):
        want[basis.labels.index((k, k))] = c
    assert np.array_equal(mode.on_basis(basis), want)


def test_on_basis_rejects_a_basis_without_room():
    with pytest.raises(ValueError, match="diagonal"):
        ls.xi_coeffs(0.5, h_max=8).on_basis(ls.mode_basis(7))
