import numpy as np
import pytest

from kkindex import fock
from kkindex.opcore import (Basis, SparseOperator, Vector, adjoint,
                            graded_commutator, inner_product, spectrum,
                            gram_transpose, BasisMismatchError,
                            NotSelfAdjointError)

SPEC = fock.TruncationSpec(n_max=3, e_max=6)


def random_operator(rng, basis, grade="even", density=0.3):
    entries = {}
    for i in range(basis.dim):
        for j in range(basis.dim):
            if rng.random() < density:
                entries[(i, j)] = complex(rng.standard_normal(), rng.standard_normal())
    return SparseOperator(basis, basis, entries, grade)


def test_inner_product_monomial_norms():
    basis = fock.enumerate_basis(SPEC, "boson")
    # <z1^2 z2, z1^2 z2> = 2! * 1! = 2
    v = basis.vector((2, 1, 0))
    assert inner_product(v, v) == pytest.approx(2.0)


def test_inner_product_fermion_norm_one():
    basis = fock.enumerate_basis(fock.TruncationSpec(4, 8), "fermion")
    v = basis.vector((1, 0, 0, 1))  # zbar1 ^ zbar4
    assert inner_product(v, v) == pytest.approx(1.0)


def test_inner_product_zero_vector():
    basis = fock.enumerate_basis(SPEC, "boson")
    v = basis.vector((1, 0, 0))
    zero = Vector(basis, {})
    assert inner_product(v, zero) == 0.0


def test_inner_product_positive_hermitian_random():
    rng = np.random.default_rng(7)
    labels = [(i,) for i in range(6)]
    basis = Basis(labels, rng.random(6) + 0.1)
    for _ in range(20):
        cv = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        cw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = Vector(basis, dict(enumerate(cv)))
        w = Vector(basis, dict(enumerate(cw)))
        assert abs(inner_product(v, w) - np.conj(inner_product(w, v))) < 1e-12
        assert inner_product(v, v).real > 0
        assert abs(inner_product(v, v).imag) < 1e-12


def test_inner_product_basis_mismatch():
    b1 = fock.enumerate_basis(SPEC, "boson")
    b2 = fock.enumerate_basis(SPEC, "fermion")
    with pytest.raises(BasisMismatchError):
        inner_product(b1.vector((0, 0, 0)), b2.vector((0, 0, 0)))


def test_graded_commutator_odd_odd_is_anticommutator():
    # [gamma(zbar1), gamma(z1)] for two odd operators expands, on every
    # exterior monomial with modes <= 3, to -2 id
    basis = fock.enumerate_basis(SPEC, "fermion")
    wedge = fock.clifford(basis, 1, "antiholo")
    contr = fock.clifford(basis, 1, "holo")
    comm = graded_commutator(wedge, contr)
    expected = SparseOperator.identity(basis).scale(-2.0)
    assert (comm - expected).max_abs() < 1e-14
    # oracle: direct expansion wedge@contr + contr@wedge on dense matrices
    dense = wedge.to_dense() @ contr.to_dense() + contr.to_dense() @ wedge.to_dense()
    assert np.max(np.abs(dense + 2 * np.eye(basis.dim))) < 1e-14


def test_graded_commutator_even_even_ccr():
    basis = fock.enumerate_basis(SPEC, "boson")
    raise2 = fock.boson_raise(basis, 2)
    lower2 = fock.boson_lower(basis, 2)
    comm = graded_commutator(raise2, lower2)
    # identity on the energy-safe subspace (room for one mode-2 raise)
    for j in fock.safe_indices(basis, 2):
        v = basis.vector(basis.labels[j])
        diff = comm.apply(v).add(v.scale(-1.0))
        assert diff.norm() < 1e-14


def test_graded_commutator_with_self():
    # by definition: [A, A] = 2 A^2 for odd A, and 0 for even A
    rng = np.random.default_rng(3)
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 3), "fermion")
    a_odd = random_operator(rng, basis, "odd")
    lhs = graded_commutator(a_odd, a_odd)
    rhs = (a_odd @ a_odd).scale(2.0)
    assert (lhs - rhs).max_abs() < 1e-12
    a_even = random_operator(rng, basis, "even")
    assert graded_commutator(a_even, a_even).max_abs() == 0.0


def test_graded_commutator_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(11)
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 4), "fermion")
    for ga, gb in (("even", "even"), ("even", "odd"), ("odd", "odd")):
        a = random_operator(rng, basis, ga)
        b = random_operator(rng, basis, gb)
        c = random_operator(rng, basis, gb)
        sign = -1.0 if (ga == "odd" and gb == "odd") else 1.0
        lhs = graded_commutator(a, b)
        rhs = graded_commutator(b, a).scale(-sign)
        assert (lhs - rhs).max_abs() < 1e-12
        lin = graded_commutator(a, b + c.scale(2.5))
        split = graded_commutator(a, b) + graded_commutator(a, c).scale(2.5)
        assert (lin - split).max_abs() < 1e-12


def test_adjoint_of_raise_is_minus_lower():
    # check <z1^(k+1), raise z1^k> = <-lower z1^(k+1), z1^k> for k <= 6
    spec = fock.TruncationSpec(1, 7)
    basis = fock.enumerate_basis(spec, "boson")
    raise1 = fock.boson_raise(basis, 1)
    lower1 = fock.boson_lower(basis, 1)
    assert (adjoint(raise1) - lower1.scale(-1.0)).max_abs() < 1e-14
    for k in range(7):
        v, w = basis.vector((k,)), basis.vector((k + 1,))
        lhs = inner_product(w, raise1.apply(v))
        rhs = inner_product(lower1.scale(-1.0).apply(w), v)
        assert lhs == pytest.approx(rhs)


def test_adjoint_identity_and_involution():
    rng = np.random.default_rng(5)
    basis = fock.enumerate_basis(SPEC, "boson")
    ident = SparseOperator.identity(basis)
    assert (adjoint(ident) - ident).max_abs() == 0.0
    a = random_operator(rng, basis)
    assert (adjoint(adjoint(a)) - a).max_abs() < 1e-12


def test_adjoint_reverses_products_conjugate_linear():
    rng = np.random.default_rng(9)
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 4), "boson")
    a = random_operator(rng, basis)
    b = random_operator(rng, basis)
    assert (adjoint(a @ b) - adjoint(b) @ adjoint(a)).max_abs() < 1e-12
    z = 0.7 - 1.3j
    assert (adjoint(a.scale(z)) - adjoint(a).scale(np.conj(z))).max_abs() < 1e-12
    # defining property against random vectors
    for _ in range(5):
        cv = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        cw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v = Vector(basis, dict(enumerate(cv)))
        w = Vector(basis, dict(enumerate(cw)))
        assert abs(inner_product(adjoint(a).apply(v), w)
                   - inner_product(v, a.apply(w))) < 1e-10


def test_spectrum_fermion_number():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 6), "fermion")
    n_op = fock.number_op(basis)
    # oracle: subset weights of {1,2,3}
    weights = sorted(sum(i + 1 for i, b in enumerate(lab) if b) for lab in basis.labels)
    assert weights == [0, 1, 2, 3, 3, 4, 5, 6]
    assert np.allclose(spectrum(n_op), weights)


def test_spectrum_zero_operator():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 2), "boson")
    vals = spectrum(SparseOperator.zero(basis))
    assert np.allclose(vals, 0.0)


def test_spectrum_rejects_non_self_adjoint():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 2), "boson")
    with pytest.raises(NotSelfAdjointError):
        spectrum(fock.energy_op(basis))  # i * diagonal is skew, not symmetric


def test_gram_transpose_antimultiplicative():
    rng = np.random.default_rng(13)
    g = rng.random(5) + 0.2
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    lhs = gram_transpose(a @ b, g)
    rhs = gram_transpose(b, g) @ gram_transpose(a, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(gram_transpose(gram_transpose(a, g), g) - a)) < 1e-12


def test_gram_transpose_rank_one_and_identity():
    # on an orthonormal basis the pairing transpose is the plain transpose:
    # v (x) f -> f (x) v on rank-one elements
    rng = np.random.default_rng(12)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ones = np.ones(3)
    assert np.max(np.abs(gram_transpose(np.outer(v, f), ones) - np.outer(f, v))) < 1e-14
    assert np.max(np.abs(gram_transpose(np.eye(3), ones) - np.eye(3))) < 1e-14


def test_text_export_roundtrip():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 3), "boson")
    op = fock.boson_raise(basis, 1).scale(0.25 + 0.5j)
    text = op.to_text()
    assert text.splitlines()[0] == f"{basis.dim} {basis.dim} even"
    back = SparseOperator.from_text(text, basis)
    assert (back - op).max_abs() == 0.0
