import itertools
import math

import numpy as np
import pytest

from kkindex import dirac, fock, limitspace
from kkindex.opcore import SparseOperator, adjoint, graded_commutator, spectrum
from vectors import norm, unit


def support(coords):
    """Nonzero coordinates of a vector as ``{index: value}``."""
    return {int(i): coords[i] for i in np.flatnonzero(coords)}


# ---------------------------------------------------------------- oracles

def brute_force_occupations(n_max, e_max):
    """Independent enumeration of weighted multisets, for basis counting."""
    out = []
    for tup in itertools.product(*(range(e_max + 1) for _ in range(n_max))):
        if sum((n + 1) * k for n, k in enumerate(tup)) <= e_max:
            out.append(tup)
    return sorted(out)


def brute_force_subsets(n_max, e_max):
    out = []
    for tup in itertools.product((0, 1), repeat=n_max):
        if sum((n + 1) * b for n, b in enumerate(tup)) <= e_max:
            out.append(tup)
    return sorted(out)


# ---------------------------------------------------------------- enumeration

def test_enumerate_boson_count_11():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 4), "boson")
    assert basis.dim == 11
    assert list(basis.labels) == brute_force_occupations(3, 4)


def test_enumerate_vacuum_only():
    for kind in ("boson", "dual_boson", "fermion"):
        basis = fock.enumerate_basis(fock.TruncationSpec(3, 0), kind)
        assert basis.dim == 1
        assert basis.labels[0] == (0, 0, 0)


def test_enumerate_fermion_count_6():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 4), "fermion")
    assert basis.dim == 6
    assert list(basis.labels) == brute_force_subsets(3, 4)
    # states are exactly {}, {1}, {2}, {3}, {1,2}, {1,3}
    sets = {tuple(i + 1 for i, b in enumerate(lab) if b) for lab in basis.labels}
    assert sets == {(), (1,), (2,), (3,), (1, 2), (1, 3)}


def test_gram_values():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 6), "boson")
    lab = (3, 1)
    assert basis.gram[basis.labels.index(lab)] == math.factorial(3) * math.factorial(1)
    ferm = fock.enumerate_basis(fock.TruncationSpec(3, 6), "fermion")
    assert np.all(ferm.gram == 1.0)


# ---------------------------------------------------------------- ladders

def test_boson_lower_coefficient():
    basis = fock.enumerate_basis(fock.TruncationSpec(1, 4), "boson")
    lower = fock.boson_lower(basis, 1)
    out = lower.to_dense() @ unit(basis, (2,))
    # z1^2 -> -2 z1
    assert support(out) == {basis.labels.index((1,)): -2.0}


def test_boson_raise_vacuum():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 4), "boson")
    out = fock.boson_raise(basis, 2).to_dense() @ unit(basis, (0, 0, 0))
    assert support(out) == {basis.labels.index((0, 1, 0)): 1.0}
    # raising out of the energy window projects to zero
    assert support(fock.boson_raise(basis, 1).to_dense() @ unit(basis, (4, 0, 0))) == {}


def test_ccr_on_state():
    # [raise_2, lower_2] z2^3 = z2^3, by the arithmetic (-3) - (-4) = 1
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 8), "boson")
    comm = graded_commutator(fock.boson_raise(basis, 2), fock.boson_lower(basis, 2))
    v = unit(basis, (0, 3))
    assert norm(basis, comm.to_dense() @ v - v) < 1e-14


def test_ccr_exhaustive_safe_subspace():
    spec = fock.TruncationSpec(3, 7)
    basis = fock.enumerate_basis(spec, "boson")
    ident = SparseOperator.identity(basis).to_dense()
    for n in range(1, 4):
        for m in range(1, 4):
            comm = graded_commutator(fock.boson_raise(basis, n),
                                     fock.boson_lower(basis, m)).to_dense()
            target = ident if n == m else 0 * ident
            for j in fock.safe_indices(basis, max(n, m)):
                assert np.max(np.abs(comm[:, j] - target[:, j])) < 1e-14
            # distinct raises commute everywhere safe
            if n != m:
                c2 = graded_commutator(fock.boson_raise(basis, n),
                                       fock.boson_raise(basis, m)).to_dense()
                for j in fock.safe_indices(basis, n + m):
                    assert np.max(np.abs(c2[:, j])) < 1e-14


def test_dual_norm_identity():
    # |dual_lower(1) zbar1^2| = sqrt(2) |zbar1^2|
    basis = fock.enumerate_basis(fock.TruncationSpec(1, 4), "dual_boson")
    lower = fock.dual_lower(basis, 1)
    v = unit(basis, (2,))
    assert norm(basis, lower.to_dense() @ v) == pytest.approx(
        np.sqrt(2.0) * norm(basis, v))
    # and in general sqrt(k_n)
    for k in range(1, 5):
        vk = unit(basis, (k,))
        assert norm(basis, lower.to_dense() @ vk) == pytest.approx(
            np.sqrt(k) * norm(basis, vk))


def test_dual_lower_kills_vacuum():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 4), "dual_boson")
    out = fock.dual_lower(basis, 3).to_dense() @ unit(basis, (0, 0, 0))
    assert support(out) == {}


def test_dual_ccr_sign():
    # [dual_lower(1), dual_raise(1)] = -id on the safe subspace, k <= 5
    basis = fock.enumerate_basis(fock.TruncationSpec(1, 6), "dual_boson")
    comm = graded_commutator(fock.dual_lower(basis, 1), fock.dual_raise(basis, 1))
    for k in range(6):
        v = unit(basis, (k,))
        assert norm(basis, comm.to_dense() @ v + v) < 1e-14


def test_energy_op_values():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 6), "boson")
    en = fock.energy_op(basis)
    v = unit(basis, (1, 0, 1))  # z1 z3 at energy 4
    out = en.to_dense() @ v
    assert support(out) == {basis.labels.index((1, 0, 1)): 4.0j}
    assert support(en.to_dense() @ unit(basis, (0, 0, 0))) == {}


def test_energy_identity_raise_lower_sum():
    # energy = -i sum_n n raise_n lower_n, exact on the whole truncated space
    spec = fock.TruncationSpec(3, 6)
    basis = fock.enumerate_basis(spec, "boson")
    total = SparseOperator.zero(basis)
    for n in range(1, 4):
        total = total + (fock.boson_raise(basis, n) @ fock.boson_lower(basis, n)).scale(float(n))
    residual = fock.energy_op(basis) - total.scale(-1j)
    assert residual.max_abs() < 1e-14


def test_energy_positive_with_vacuum_kernel():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 6), "boson")
    herm = fock.energy_op(basis).scale(-1j)  # energy / i
    vals = spectrum(herm)
    assert vals[0] >= -1e-14
    assert np.sum(np.abs(vals) < 1e-12) == 1


# ---------------------------------------------------------------- clifford

def test_clifford_wedge_vacuum():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 6), "fermion")
    out = fock.clifford(basis, 2, "antiholo").to_dense() @ unit(basis, (0, 0, 0))
    assert support(out) == {basis.labels.index((0, 1, 0)): pytest.approx(np.sqrt(2.0))}


def test_clifford_contraction_sign():
    # gamma(z2) (zbar2 ^ zbar5) = -sqrt(2) zbar5: no occupied mode below 2
    basis = fock.enumerate_basis(fock.TruncationSpec(5, 15), "fermion")
    out = fock.clifford(basis, 2, "holo").to_dense() @ unit(basis, (0, 1, 0, 0, 1))
    assert support(out) == {basis.labels.index((0, 0, 0, 0, 1)): pytest.approx(-np.sqrt(2.0))}
    # koszul sign with mode 1 occupied
    out2 = fock.clifford(basis, 2, "holo").to_dense() @ unit(basis, (1, 1, 0, 0, 0))
    assert support(out2) == {basis.labels.index((1, 0, 0, 0, 0)): pytest.approx(np.sqrt(2.0))}


def test_contraction_squares_to_zero():
    basis = fock.enumerate_basis(fock.TruncationSpec(3, 6), "fermion")
    holo1 = fock.clifford(basis, 1, "holo")
    assert (holo1 @ holo1).max_abs() == 0.0


def test_car_full_space():
    # complete fermion space (e_max >= 1+2+3+4) carries the exact relations
    basis = fock.enumerate_basis(fock.TruncationSpec(4, 10), "fermion")
    ident = SparseOperator.identity(basis)
    for n in range(1, 5):
        for m in range(1, 5):
            holo_n = fock.clifford(basis, n, "holo")
            wedge_m = fock.clifford(basis, m, "antiholo")
            anti = graded_commutator(holo_n, wedge_m)
            target = ident.scale(-2.0 if n == m else 0.0)
            assert (anti - target).max_abs() < 1e-14
            holo_m = fock.clifford(basis, m, "holo")
            assert graded_commutator(holo_n, holo_m).max_abs() < 1e-14


def test_number_identity():
    # number = -1/2 sum_n n wedge_n contr_n, exact on the whole truncation
    spec = fock.TruncationSpec(4, 8)
    basis = fock.enumerate_basis(spec, "fermion")
    total = SparseOperator.zero(basis)
    for n in range(1, 5):
        total = total + (fock.clifford(basis, n, "antiholo")
                         @ fock.clifford(basis, n, "holo")).scale(float(n))
    residual = fock.number_op(basis) + total.scale(0.5)
    assert residual.max_abs() < 1e-14


def test_number_values():
    basis = fock.enumerate_basis(fock.TruncationSpec(4, 8), "fermion")
    out = fock.number_op(basis).to_dense() @ unit(basis, (1, 0, 0, 1))
    assert support(out) == {basis.labels.index((1, 0, 0, 1)): 5.0}
    assert support(fock.number_op(basis).to_dense() @ unit(basis, (0, 0, 0, 0))) == {}


# ---------------------------------------------------------------- adjoints, modes

def test_adjoint_skew_pairs():
    spec = fock.TruncationSpec(3, 6)
    boson = fock.enumerate_basis(spec, "boson")
    ferm = fock.enumerate_basis(spec, "fermion")
    for n in range(1, 4):
        raise_n = fock.boson_raise(boson, n)
        lower_n = fock.boson_lower(boson, n)
        adj = adjoint(raise_n).to_dense()
        low = lower_n.scale(-1.0).to_dense()
        # skew pair on columns that the raise does not truncate
        for j in fock.safe_indices(boson, n):
            assert np.max(np.abs(adj[:, j] - low[:, j])) < 1e-13
        wedge = fock.clifford(ferm, n, "antiholo")
        holo = fock.clifford(ferm, n, "holo")
        for j in fock.safe_indices(ferm, n):
            diff = (adjoint(wedge) + holo).to_dense()
            assert np.max(np.abs(diff[:, j])) < 1e-13


# ---------------------------------------------------------------- memoized factor builders

def read_only_arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, SparseOperator):
        return [value.rows, value.cols, value.vals]
    if isinstance(value, tuple):  # a Dirac operator and its space
        return [arr for part in value for arr in read_only_arrays(part)]
    if isinstance(value, dirac.TripleSpace):
        return read_only_arrays(value.basis)
    return [value.label_array, value.gram, value.energy, value.parity]


MEMO_SPEC = fock.TruncationSpec(3, 5)
MEMOIZED = {
    "boson basis": lambda: fock.enumerate_basis(MEMO_SPEC, "boson"),
    "fermion basis": lambda: fock.enumerate_basis(MEMO_SPEC, "fermion"),
    "boson_raise": lambda: fock.boson_raise(fock.enumerate_basis(MEMO_SPEC, "boson"), 2),
    "boson_lower": lambda: fock.boson_lower(fock.enumerate_basis(MEMO_SPEC, "boson"), 1),
    "dual_lower into a larger window": lambda: fock.dual_lower(
        fock.enumerate_basis(MEMO_SPEC, "dual_boson"), 3,
        codomain=fock.enumerate_basis(fock.TruncationSpec(3, 8), "dual_boson")),
    "clifford holo": lambda: fock.clifford(fock.enumerate_basis(MEMO_SPEC, "fermion"), 2, "holo"),
    "clifford antiholo": lambda: fock.clifford(
        fock.enumerate_basis(MEMO_SPEC, "fermion"), 1, "antiholo"),
    "mode_basis": lambda: limitspace.mode_basis(6),
    "dRz_matrix": lambda: limitspace.dRz_matrix(limitspace.mode_basis(6)),
    "dRzbar_matrix": lambda: limitspace.dRzbar_matrix(limitspace.mode_basis(6)),
    "build_dirac_R": lambda: dirac.build_dirac_R(MEMO_SPEC),
}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_memoized_builders_share_one_read_only_value(name):
    build = MEMOIZED[name]
    value = build()
    assert build() is value
    for arr in read_only_arrays(value):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
