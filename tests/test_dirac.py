import itertools

import numpy as np
import pytest

from kkindex import dirac, fock, limitspace
from kkindex.opcore import (Basis, ShapeMismatchError, SparseOperator, adjoint,
                            block_spectrum, spectrum)
from traced import traced_peak
from vectors import (block_transform, dense_blocks, dense_kernel, factor_labels, from_dense,
                     orthonormal_dense, product_label, unit)


# ---------------------------------------------------------------- oracles

def weighted_partition_count(n_max, e_max):
    """Number of multisets over modes 1..n_max with weighted size <= e_max."""
    count = 0
    for tup in itertools.product(*(range(e_max + 1) for _ in range(n_max))):
        if sum((n + 1) * k for n, k in enumerate(tup)) <= e_max:
            count += 1
    return count


def enumerated_shell_multiplicities(space):
    """``{2 (dual energy + fermion weight): count}`` for the boson x dual x
    fermion ``space``, read off its enumerated factor energies: each
    (dual, fermion) pair heads one state per boson state that fits under
    the remaining energy."""
    boson, dual, ferm = space.factors
    pair_e = np.add.outer(dual.energy, ferm.energy).ravel()
    fits = np.searchsorted(np.sort(boson.energy), space.e_max - pair_e, side="right")
    shells, pair_shell = np.unique(2.0 * pair_e, return_inverse=True)
    counts = np.bincount(pair_shell, fits).astype(int)
    return {s: c for s, c in zip(shells.tolist(), counts.tolist()) if c}


def dense_square(op):
    d = op.to_dense()
    return d @ d


def product_space_oracle(factors, e_max):
    """Full-product enumeration filtered by energy: (components, gram,
    energy, parity, factor labels) in component order."""
    rows = []
    for combo in itertools.product(*(range(b.dim) for b in factors)):
        e = sum(b.energy[i] for b, i in zip(factors, combo))
        if e > e_max:
            continue
        parts = tuple(b.labels[i] for b, i in zip(factors, combo))
        gram = np.prod([b.gram[i] for b, i in zip(factors, combo)])
        parity = sum(b.parity[i] for b, i in zip(factors, combo)) % 2
        rows.append((combo, gram, e, parity, parts))
    rows.sort()
    return [list(col) for col in zip(*rows)]


def embed_oracle(factors, components, op, pos):
    """Entries of a factor operator lifted by component lookup, with the
    Koszul sign of the earlier factors for odd operators."""
    index = {combo: i for i, combo in enumerate(components)}
    entries = {}
    for col, combo in enumerate(components):
        pre = sum(factors[q].parity[combo[q]] for q in range(pos)) % 2
        sign = -1.0 if op.grade == "odd" and pre else 1.0
        for i, j, z in zip(op.rows.tolist(), op.cols.tolist(), op.vals.tolist()):
            if j != combo[pos]:
                continue
            target = combo[:pos] + (i,) + combo[pos + 1:]
            if target in index:
                entries[(index[target], col)] = sign * z
    return entries


def entries(op):
    """An operator's triplets as ``{(row, col): value}``."""
    return dict(zip(zip(op.rows.tolist(), op.cols.tolist()), op.vals.tolist()))


def support(coords):
    """Nonzero coordinates of a vector as ``{index: value}``."""
    return {int(i): coords[i] for i in np.flatnonzero(coords)}


# ---------------------------------------------------------------- dirac_R

def test_dirac_r_kills_dual_and_fermion_vacuum():
    spec = fock.TruncationSpec(3, 4)
    dR, space = dirac.build_dirac_R(spec)
    dense = dR.to_dense()
    for i, lab in enumerate(space.basis.labels):
        b, d, f = factor_labels(space, i)
        if d == (0, 0, 0) and f == (0, 0, 0):
            assert support(dense @ unit(space.basis, lab)) == {}


def test_dirac_r_square_on_state():
    # dirac^2 (v x zbar2 x 1_f) = 2*(0+2) * state = 4 * state
    spec = fock.TruncationSpec(3, 6)
    dR, space = dirac.build_dirac_R(spec)
    sq = dense_square(dR)
    lab = product_label(space, (1, 0, 0), (0, 1, 0), (0, 0, 0))  # z1 x zbar2 x 1_f
    j = space.basis.labels.index(lab)
    col = sq[:, j]
    expected = np.zeros_like(col)
    expected[j] = 4.0
    assert np.max(np.abs(col - expected)) < 1e-12


def test_dirac_r_self_adjoint_and_odd():
    spec = fock.TruncationSpec(3, 6)
    dR, space = dirac.build_dirac_R(spec)
    assert (adjoint(dR) - dR).max_abs() < 1e-12
    assert dR.grade == "odd"
    # anticommutes with the parity grading
    diag = np.arange(space.dim)
    parity = SparseOperator(space.basis, space.basis, diag, diag,
                            (-1.0) ** space.basis.parity, "even")
    anti = (dR @ parity) + (parity @ dR)
    assert anti.max_abs() < 1e-14


def test_weitzenbock_residual_exact():
    assert dirac.weitzenbock_residual(fock.TruncationSpec(4, 8)) < 1e-12


def test_weitzenbock_tiny_case_hand_oracle():
    # n_max = 1, e_max = 2: hand-checkable 9-state space
    spec = fock.TruncationSpec(1, 2)
    dR, space = dirac.build_dirac_R(spec)
    assert space.dim == 9
    assert dirac.weitzenbock_residual(spec) < 1e-15
    # hand values: the only nonzero blocks couple (dual k, ferm 1) states;
    # on (0,) x (1,) x (0,) [zbar1 x vacuum-fermion omitted] build explicitly:
    # dirac (v x zbar1 x 1_f) = sqrt(1) * [raise x contr + wedge x lower]
    lab = product_label(space, (0,), (1,), (0,))
    out = dR.to_dense() @ unit(space.basis, lab)
    # wedge(lower zbar1) = -1 * sqrt(2) zbar... : lower gives -1*vac, wedge sqrt(2)
    expect_lab = product_label(space, (0,), (0,), (1,))
    assert set(support(out)) == {space.basis.labels.index(expect_lab)}
    assert out[space.basis.labels.index(expect_lab)] == pytest.approx(-np.sqrt(2.0))


def test_weitzenbock_never_indexes_outside():
    # building at a window with tight energy: no entry may index out of basis,
    # which SparseOperator construction itself enforces
    spec = fock.TruncationSpec(2, 3)
    dR, space = dirac.build_dirac_R(spec)
    for (i, j) in entries(dR):
        assert 0 <= i < space.dim and 0 <= j < space.dim


# ---------------------------------------------------------------- dirac_L

def test_dirac_l_kills_mirror_vacuum():
    spec = fock.TruncationSpec(3, 4)
    dL, space = dirac.build_dirac_L(spec)
    dense = dL.to_dense()
    for i, lab in enumerate(space.basis.labels):
        f, d, b = factor_labels(space, i)
        if f == (0, 0, 0) and d == (0, 0, 0):
            assert support(dense @ unit(space.basis, lab)) == {}


def test_dirac_l_matches_dirac_r_spectrum():
    spec = fock.TruncationSpec(2, 5)
    dR, _ = dirac.build_dirac_R(spec)
    dL, _ = dirac.build_dirac_L(spec)
    sR = spectrum(dR)
    sL = spectrum(dL)
    assert sR.shape == sL.shape
    assert np.max(np.abs(sR - sL)) < 1e-10


def test_dirac_l_odd():
    spec = fock.TruncationSpec(2, 4)
    dL, space = dirac.build_dirac_L(spec)
    diag = np.arange(space.dim)
    parity = SparseOperator(space.basis, space.basis, diag, diag,
                            (-1.0) ** space.basis.parity, "even")
    assert ((dL @ parity) + (parity @ dL)).max_abs() < 1e-14


# ---------------------------------------------------------------- kernel

def test_kernel_dimension_is_boson_count():
    spec = fock.TruncationSpec(3, 4)
    dR, space = dirac.build_dirac_R(spec)
    vecs = dense_kernel(dirac.kernel(dR), space.dim)
    assert len(vecs) == 11 == weighted_partition_count(3, 4)
    # every kernel vector is supported on v x vacuum x 1_f
    for v in vecs:
        for i in support(v):
            b, d, f = factor_labels(space, i)
            assert d == (0, 0, 0) and f == (0, 0, 0)


def test_kernel_mirror_side():
    spec = fock.TruncationSpec(3, 4)
    dL, space = dirac.build_dirac_L(spec)
    assert len(dense_kernel(dirac.kernel(dL), space.dim)) == 11


@pytest.mark.parametrize("n_max,e_max", [(2, 3), (2, 5), (3, 5)])
def test_kernel_counts_other_truncations(n_max, e_max):
    spec = fock.TruncationSpec(n_max, e_max)
    dR, space = dirac.build_dirac_R(spec)
    count = len(dense_kernel(dirac.kernel(dR), space.dim))
    assert count == weighted_partition_count(n_max, e_max)


def test_kernel_at_reach_stays_in_block_form():
    # (6,14), dim 25752: 388 kernel vectors, each on one block; dense
    # dim-length vectors took a 163 MB traced peak, the blocks about 9.5 MB
    spec = fock.TruncationSpec(6, 14)
    dR, space = dirac.build_dirac_R(spec)
    blocks, peak = traced_peak(dirac.kernel, dR)
    assert peak < 20e6
    assert sum(len(states) for states, _ in blocks) == space.factors[0].dim == 388


def test_kernel_of_identity_empty():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 3), "boson")
    assert dirac.kernel(SparseOperator.identity(basis)) == []


# ---------------------------------------------------------------- estimates

def test_per_estimate_equality_shell():
    # n=1, state zbar1^2 x 1_f at lambda^2 = 4: ratio sqrt(2) equals 2/sqrt(2)
    spec = fock.TruncationSpec(2, 4)
    report = dirac.per_estimate(spec, 1)
    shell = {row[0]: row for row in report.shells}[4.0]
    assert shell[1] == pytest.approx(np.sqrt(2.0))
    assert shell[2] == pytest.approx(2.0 / np.sqrt(2.0))
    assert report.equality_attained


def test_per_estimate_empty_shell():
    # n=2 at lambda^2 = 2: no mode-2 quanta at energy 1, ratio 0
    spec = fock.TruncationSpec(2, 4)
    report = dirac.per_estimate(spec, 2)
    shell = {row[0]: row for row in report.shells}[2.0]
    assert shell[1] == 0.0


def test_per_estimate_exhaustive_no_violations():
    # all shells lambda^2 <= 24, all n <= 4
    spec = fock.TruncationSpec(4, 12)
    for n in range(1, 5):
        report = dirac.per_estimate(spec, n)
        assert report.violations == []


# ---------------------------------------------------------------- transforms

def test_bounded_transform_values():
    spec = fock.TruncationSpec(2, 4)
    dR, _ = dirac.build_dirac_R(spec)
    b_vals = block_spectrum(block_transform(dR))
    raw = spectrum(dR)
    assert np.max(np.abs(np.sort(raw / np.sqrt(1 + raw ** 2)) - b_vals)) < 1e-10
    # eigenvalue 2 -> 2/sqrt(5): present because 2(Nf+Ed)=4 shells exist
    assert any(abs(v - 2 / np.sqrt(5)) < 1e-10 for v in b_vals)


def test_bounded_transform_zero_and_eigvecs():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 3), "boson")
    z = dense_blocks(block_transform(SparseOperator.zero(basis)), basis.dim)
    assert np.max(np.abs(z)) == 0.0
    # random diagonal: same eigenvectors, mapped eigenvalues
    rng = np.random.default_rng(2)
    d = rng.standard_normal(basis.dim)
    diag = np.arange(basis.dim)
    op = SparseOperator(basis, basis, diag, diag, d, "even")
    bt = dense_blocks(block_transform(op), basis.dim)
    assert np.max(np.abs(bt - np.diag(d / np.sqrt(1 + d ** 2)))) < 1e-12
    on = orthonormal_dense(op)
    assert np.max(np.abs(bt @ on - on @ bt)) < 1e-12


def test_spectrum_multiplicities_match_counting():
    spec = fock.TruncationSpec(3, 5)
    dR, _ = dirac.build_dirac_R(spec)
    rows = dirac.spectrum_with_prediction(dR, spec)
    assert all(match for (_, _, _, match) in rows)
    assert rows[0][0] == 0.0 and rows[0][1] == weighted_partition_count(3, 5)


@pytest.mark.parametrize("n_max, e_max", [(1, 2), (2, 4), (3, 5), (3, 6), (4, 8)])
def test_predicted_shells_match_enumerated_counting(n_max, e_max):
    spec = fock.TruncationSpec(n_max, e_max)
    dR, space = dirac.build_dirac_R(spec)
    predicted = {shell: p for shell, _, p, _ in dirac.spectrum_with_prediction(dR, spec)}
    assert predicted == enumerated_shell_multiplicities(space)
    assert sum(predicted.values()) == space.dim


def test_dirac_square_spectrum_nonnegative():
    spec = fock.TruncationSpec(2, 4)
    dR, _ = dirac.build_dirac_R(spec)
    vals = spectrum(dR @ dR)
    assert vals[0] >= -1e-12


# ---------------------------------------------------------------- product spaces

def _mode_factors():
    raw = limitspace.mode_basis(3)
    return Basis(raw.labels, raw.gram)


def _space_cases():
    b, d, f = dirac.spec_bases(fock.TruncationSpec(3, 4))
    small = fock.TruncationSpec(2, 3)
    sb, sd, sf = dirac.spec_bases(small)
    # labels stored out of order, with a gram, an energy and a parity
    unsorted = Basis([(2,), (0,), (3,), (1,)], [2.0, 1.0, 6.0, 1.0],
                     energy=[2, 0, 3, 1], parity=[0, 1, 1, 0])
    return {
        "R": ([b, d, f], 4),
        "L": ([f, d, b], 4),
        "full-product": ([sb, sd, sf], 9),
        "jcycle": ([_mode_factors(), sf, sd], 3),
        "build_D": ([limitspace.mode_basis(2), limitspace.mode_basis(2), sf], 2 * 2 + 3),
        "compressed": ([sf, sd], 3),
        "unsorted": ([unsorted, sf, sb], 4),
    }


@pytest.mark.parametrize("case", sorted(_space_cases()))
def test_triple_space_matches_full_product_oracle(case):
    factors, e_max = _space_cases()[case]
    space = dirac.TripleSpace(factors, e_max)
    comps, gram, energy, parity, parts = product_space_oracle(factors, e_max)
    assert space.basis.labels == tuple(comps)
    assert space.basis.factors == space.factors == tuple(factors)
    assert [factor_labels(space, i) for i in range(space.dim)] == parts
    assert np.array_equal(space.basis.gram, gram)
    assert np.array_equal(space.basis.energy, energy)
    assert np.array_equal(space.basis.parity, parity)
    assert np.array_equal(space.components, np.array(comps).reshape(-1, len(factors)))
    assert np.array_equal(space.basis.index_of(space.components), np.arange(space.dim))
    kept = set(comps)
    absent = [c for c in itertools.product(*(range(b.dim) for b in factors))
              if c not in kept]
    if absent:
        assert np.all(space.basis.index_of(absent) == -1)
    assert space.basis.index_of(comps[-1]) == space.dim - 1


def test_product_bases_are_told_apart_by_their_factors():
    # states are labelled by factor indices, so spaces over factors with
    # equal dims and Grams but other labels share one component table
    b, d, f = dirac.spec_bases(fock.TruncationSpec(3, 4))
    relabeled = Basis(b.label_array + 1, b.gram, energy=b.energy)
    space = dirac.TripleSpace([b, d, f], 4)
    other = dirac.TripleSpace([relabeled, d, f], 4)
    assert np.array_equal(space.components, other.components)
    assert np.array_equal(space.basis.gram, other.basis.gram)
    assert space.basis != other.basis
    one, two = SparseOperator.identity(space.basis), SparseOperator.identity(other.basis)
    with pytest.raises(ShapeMismatchError):
        one + two
    with pytest.raises(ShapeMismatchError):
        one @ two
    # a space built again over equal, not identical, factors is the same space
    copy = Basis(b.label_array.copy(), b.gram.copy(), energy=b.energy)
    again = dirac.TripleSpace([copy, d, f], 4)
    assert again.basis == space.basis and hash(again.basis) == hash(space.basis)
    assert (one - SparseOperator.identity(again.basis)).nnz == 0
    assert (dirac.build_dirac_L(fock.TruncationSpec(3, 4))[0]
            - dirac.build_dirac_L(fock.TruncationSpec(3, 4), space=dirac.TripleSpace(
                [f, d, copy], 4))[0]).nnz == 0


def test_triple_space_at_reach_keeps_only_its_component_table():
    # (6,14), dim 25,752: the components are the basis labels; the
    # concatenated factor labels made a 10.6 MB traced peak, this 2.5 MB
    bases = dirac.spec_bases(fock.TruncationSpec(6, 14))
    space, peak = traced_peak(dirac.TripleSpace, bases, 14)
    assert space.dim == 25752 and space.basis.label_array is space.components
    assert peak < 5e6


@pytest.mark.parametrize("case", sorted(_space_cases()))
def test_embed_factor_op_matches_label_lookup_oracle(case):
    factors, e_max = _space_cases()[case]
    space = dirac.TripleSpace(factors, e_max)
    comps = product_space_oracle(factors, e_max)[0]
    rng = np.random.default_rng(3)
    for pos, factor in enumerate(factors):
        for grade in ("even", "odd"):
            mask = rng.random((factor.dim, factor.dim)) < 0.3
            vals = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
            op = from_dense(vals * mask, factor, factor, grade)
            got = space.embed_factor_op(op, pos)
            assert got.grade == grade
            assert entries(got) == embed_oracle(factors, comps, op, pos)


def compose_and_add_dirac_sum(space, ferm_pos, legs):
    """``dirac_sum`` as a sum of products of lifted factor operators."""
    ferm = space.factors[ferm_pos]
    total = SparseOperator.zero(space.basis, space.basis, grade="odd")
    for n, (pos, a_op, b_op) in enumerate(legs, 1):
        a_n = space.embed_factor_op(a_op, pos)
        b_n = space.embed_factor_op(b_op, pos)
        wedge_n = space.embed_factor_op(fock.clifford(ferm, n, "antiholo"), ferm_pos)
        contr_n = space.embed_factor_op(fock.clifford(ferm, n, "holo"), ferm_pos)
        rt = np.sqrt(float(n))
        total = total + (a_n @ contr_n).scale(rt) + (wedge_n @ b_n).scale(rt)
    return total


def _dirac_sum_cases():
    spec = fock.TruncationSpec(3, 6)
    b, d, f = dirac.spec_bases(spec)
    r_space = dirac.TripleSpace([b, d, f], spec.e_max)
    l_space = dirac.TripleSpace([f, d, b], spec.e_max)
    small = fock.TruncationSpec(2, 3)
    sb, sd, sf = dirac.spec_bases(small)
    j_space = dirac.TripleSpace([_mode_factors(), _mode_factors(), sf, sd], small.e_max)
    return {
        "dirac_R": (r_space, 2, dirac.dual_legs(r_space, 1, spec.n_max)),
        "dirac_L": (l_space, 0, dirac.dual_legs(l_space, 1, spec.n_max)),
        "translation": (j_space, 2, limitspace.translation_legs(j_space, 2)),
        "jcycle-dual": (j_space, 2, dirac.dual_legs(j_space, 3, small.n_max)),
    }


@pytest.mark.parametrize("case", sorted(_dirac_sum_cases()))
def test_dirac_sum_matches_compose_and_add_bit_for_bit(case):
    space, ferm_pos, legs = _dirac_sum_cases()[case]
    got = dirac.dirac_sum(space, ferm_pos, legs)
    want = compose_and_add_dirac_sum(space, ferm_pos, legs)
    assert got.nnz > 0
    assert got.grade == want.grade == "odd"
    assert np.array_equal(got.rows, want.rows)
    assert np.array_equal(got.cols, want.cols)
    assert np.array_equal(got.vals, want.vals)
    if case == "translation":  # two mode-leg entries per column
        assert np.bincount(got.cols).max() >= 2


def test_dirac_sum_builds_one_product_space_operator(monkeypatch):
    space, ferm_pos, legs = _dirac_sum_cases()["dirac_R"]
    built = []
    init = SparseOperator.__init__

    def counting(self, domain, codomain, *args, **kwargs):
        if domain is space.basis or codomain is space.basis:
            built.append(self)
        init(self, domain, codomain, *args, **kwargs)

    monkeypatch.setattr(SparseOperator, "__init__", counting)
    result = dirac.dirac_sum(space, ferm_pos, legs)
    assert built == [result]
