import functools
import hashlib
import importlib
import itertools
import pkgutil
import re

import numpy as np
import pytest

import kkindex
from kkindex import assembly, dirac, fock, limitspace, opcore, twistgroup
from kkindex.opcore import (Basis, SparseOperator, adjoint, eigh_gram,
                            graded_commutator, shift_op, spectrum, gram_transpose,
                            spectral_function, NotSelfAdjointError, ShapeMismatchError)
from traced import traced_peak
from vectors import (block_transform, dense_blocks, dense_kernel, from_dense, inner, norm,
                     off_grade, orthonormal_dense, unit)

SPEC = fock.TruncationSpec(n_max=3, e_max=6)


def random_operator(rng, basis, grade="even", density=0.3):
    rows, cols, vals = [], [], []
    for i in range(basis.dim):
        for j in range(basis.dim):
            if rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(complex(rng.standard_normal(), rng.standard_normal()))
    return SparseOperator(basis, basis, rows, cols, vals, grade)


def test_inner_product_monomial_norms():
    basis = fock.enumerate_basis(SPEC, "boson")
    # <z1^2 z2, z1^2 z2> = 2! * 1! = 2
    v = unit(basis, (2, 1, 0))
    assert inner(basis, v, v) == pytest.approx(2.0)


def test_inner_product_fermion_norm_one():
    basis = fock.enumerate_basis(fock.TruncationSpec(4, 8), "fermion")
    v = unit(basis, (1, 0, 0, 1))  # zbar1 ^ zbar4
    assert inner(basis, v, v) == pytest.approx(1.0)


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
        v = unit(basis, basis.labels[j])
        assert norm(basis, comm.to_dense() @ v - v) < 1e-14


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
        v, w = unit(basis, (k,)), unit(basis, (k + 1,))
        lhs = inner(basis, w, raise1.to_dense() @ v)
        rhs = inner(basis, lower1.scale(-1.0).to_dense() @ w, v)
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
        assert abs(inner(basis, adjoint(a).to_dense() @ cv, cw)
                   - inner(basis, cv, a.to_dense() @ cw)) < 1e-10


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


# ---------------------------------------------------------------- dict oracle

class DictOperator:
    """The dict-of-coordinates operator: ``entries`` maps ``(row, col)`` to a
    complex value, one entry per coordinate.  The reference the coordinate
    arrays of :class:`SparseOperator` are compared against."""

    def __init__(self, domain, codomain, entries, grade="even"):
        self.domain, self.codomain, self.grade = domain, codomain, grade
        cleaned = {}
        for (i, j), z in entries.items():
            if z == 0:
                continue
            if not (0 <= i < codomain.dim and 0 <= j < domain.dim):
                raise IndexError(f"entry ({i},{j}) outside basis bounds")
            cleaned[(int(i), int(j))] = complex(z)
        self.entries = cleaned

    @staticmethod
    def of(op):
        return DictOperator(op.domain, op.codomain, entries(op), op.grade)

    def __add__(self, other):
        entries = dict(self.entries)
        for key, z in other.entries.items():
            entries[key] = entries.get(key, 0.0) + z
        return DictOperator(self.domain, self.codomain, entries, self.grade)

    def scale(self, z):
        return DictOperator(self.domain, self.codomain,
                            {k: z * v for k, v in self.entries.items()}, self.grade)

    def __matmul__(self, other):
        other_cols, self_cols = {}, {}
        for (i, j), z in other.entries.items():
            other_cols.setdefault(j, []).append((i, z))
        for (i, j), z in self.entries.items():
            self_cols.setdefault(j, []).append((i, z))
        entries = {}
        for j, mid in other_cols.items():
            for m, zm in mid:
                for i, zi in self_cols.get(m, ()):
                    entries[(i, j)] = entries.get((i, j), 0.0) + zi * zm
        grade = "odd" if (self.grade == "odd") != (other.grade == "odd") else "even"
        return DictOperator(other.domain, self.codomain, entries, grade)

    def adjoint(self):
        gd, gc = self.domain.gram, self.codomain.gram
        return DictOperator(self.codomain, self.domain,
                            {(j, i): np.conj(z) * gc[i] / gd[j]
                             for (i, j), z in self.entries.items()}, self.grade)

    def apply(self, coeffs):
        out = {}
        for (i, j), z in self.entries.items():
            if j in coeffs:
                out[i] = out.get(i, 0.0) + z * coeffs[j]
        return {i: c for i, c in out.items() if c != 0}

    def to_text(self):
        lines = [f"{self.codomain.dim} {self.domain.dim} {self.grade}"]
        for (i, j) in sorted(self.entries):
            z = self.entries[(i, j)]
            lines.append(f"{i} {j} {z.real:.17g} {z.imag:.17g}")
        return "\n".join(lines) + "\n"


def entries(op):
    """An operator's triplets as ``{(row, col): value}``."""
    return dict(zip(zip(op.rows.tolist(), op.cols.tolist()), op.vals.tolist()))


def accumulate(rows, cols, vals):
    """Triplets summed per coordinate, in the order given."""
    acc = {}
    for i, j, z in zip(rows, cols, vals):
        acc[(i, j)] = acc.get((i, j), 0.0) + z
    return acc


def assert_same(op, ref):
    assert (op.domain, op.codomain, op.grade) == (ref.domain, ref.codomain, ref.grade)
    assert entries(op) == ref.entries


def power_of_two_basis(rng, dim):
    """Grams that are powers of two keep Gram-weighted arithmetic exact."""
    return Basis([(i,) for i in range(dim)], 2.0 ** rng.integers(-2, 4, dim))


def dyadic(rng, n):
    """Complex values on the quarter-integer grid: sums and products of a
    few of them are exact, whatever the order of the arithmetic."""
    return (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)) / 4.0


def random_triplets(rng, domain, codomain, n):
    """``n`` random triplets with repeated coordinates, plus one coordinate
    whose two entries cancel to an exact zero."""
    if n == 0 or domain.dim == 0 or codomain.dim == 0:
        return [], [], []
    rows = rng.integers(0, codomain.dim, n).tolist()
    cols = rng.integers(0, domain.dim, n).tolist()
    vals = dyadic(rng, n).tolist()
    total = sum(z for i, j, z in zip(rows, cols, vals) if (i, j) == (rows[0], cols[0]))
    return rows + [rows[0]], cols + [cols[0]], vals + [-total]


SHAPES = {"square": (4, 4, 4), "rectangular": (5, 3, 2), "empty": (3, 2, 4),
          "zero-dim": (0, 0, 0), "zero-dim middle": (3, 0, 2)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("grades", [("even", "even"), ("even", "odd"), ("odd", "odd")])
def test_array_operators_match_dict_oracle(shape, grades):
    rng = np.random.default_rng(list(SHAPES).index(shape) * 3 + ("odd" in grades) + 11)
    # a, b: mid -> out; c: inp -> mid
    d_mid, d_out, d_inp = SHAPES[shape]
    mid, out, inp = (power_of_two_basis(rng, d) for d in (d_mid, d_out, d_inp))
    count = 0 if shape == "empty" else 12
    trips = [random_triplets(rng, dom, cod, count)
             for dom, cod in ((mid, out), (mid, out), (inp, mid))]
    ops = [SparseOperator(dom, cod, *t, grade) for (dom, cod, grade), t in
           zip(((mid, out, grades[0]), (mid, out, grades[0]), (inp, mid, grades[1])), trips)]
    a, b, c = ops
    ra, rb, rc = (DictOperator(op.domain, op.codomain, accumulate(*t), op.grade)
                  for op, t in zip(ops, trips))
    for op, ref in zip(ops, (ra, rb, rc)):
        assert_same(op, ref)
    rows, cols, _ = trips[0]
    if rows:
        # the cancelling coordinate is gone and repeated ones are summed
        assert (rows[0], cols[0]) not in entries(a) and a.nnz < count
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra + rb.scale(-1.0))
    assert_same(a.scale(0.75 - 0.5j), ra.scale(0.75 - 0.5j))
    assert_same(a @ c, ra @ rc)
    assert_same(adjoint(a), ra.adjoint())
    assert a.to_text() == ra.to_text()
    coords = dyadic(rng, d_mid)
    got = a.to_dense() @ coords
    ref = ra.apply(dict(enumerate(coords.tolist())))
    assert {i: z for i, z in enumerate(got.tolist()) if z != 0} == ref


def test_constructor_sums_repeated_coordinates_in_entry_order():
    # general floats: repeated coordinates add up in the order given, as the
    # dict accumulation does, so the sums agree bit for bit
    rng = np.random.default_rng(21)
    basis = Basis([(i,) for i in range(3)], np.ones(3))
    rows, cols = rng.integers(0, 3, 40), rng.integers(0, 3, 40)
    vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    acc = accumulate(rows.tolist(), cols.tolist(), vals.tolist())
    op = SparseOperator(basis, basis, rows, cols, vals)
    assert entries(op) == DictOperator(basis, basis, acc).entries
    assert op.nnz == len(acc) < 40
    assert np.array_equal(op.to_dense(), sum(
        np.eye(3)[:, [i]] * z * np.eye(3)[[j], :] for (i, j), z in acc.items()))


def test_constructor_never_freezes_a_callers_writeable_arrays():
    basis = Basis([(i,) for i in range(3)], np.ones(3))
    # canonical triplets with no zero entry, so nothing is sorted or dropped
    rows, cols = np.array([0, 2, 1], dtype=np.int64), np.array([0, 0, 2], dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0j])
    given = [rows.copy(), cols.copy(), vals.copy()]
    op = SparseOperator(basis, basis, rows, cols, vals)
    for arr, before, kept in zip((rows, cols, vals), given, (op.rows, op.cols, op.vals)):
        assert arr.flags.writeable
        assert np.array_equal(arr, before)
        assert np.array_equal(kept, before)
        assert not kept.flags.writeable
        assert not np.shares_memory(arr, kept)
    rows[0] = 1
    assert op.rows[0] == 0


@pytest.mark.parametrize("value, kept", [(0, False), (-0.0, False), (complex(0, -0.0), False),
                                         (float("nan"), True), (5e-324, True),
                                         (complex(0, 5e-324), True)])
def test_only_exact_zeros_are_dropped_like_the_dict_oracle(value, kept):
    basis = Basis([(i,) for i in range(3)], np.ones(3))
    rows, cols, vals = [0, 2, 1], [0, 0, 2], [1.0, value, 3.0j]
    op = SparseOperator(basis, basis, rows, cols, vals)
    ref = DictOperator(basis, basis, accumulate(rows, cols, vals))
    coords = list(zip(op.rows.tolist(), op.cols.tolist()))
    assert coords == ([(0, 0), (2, 0), (1, 2)] if kept else [(0, 0), (1, 2)])
    assert set(coords) == set(ref.entries)
    assert np.array_equal(op.vals, [ref.entries[rc] for rc in coords], equal_nan=True)


def test_constructor_keeps_a_callers_read_only_canonical_arrays():
    # the writeable twin of this input is copied, as the test above shows
    basis = Basis([(i,) for i in range(3)], np.ones(3))
    given = (np.array([0, 2, 1], dtype=np.int64), np.array([0, 0, 2], dtype=np.int64),
             np.array([1.0, 2.0, 3.0j]))
    for arr in given:
        arr.flags.writeable = False
    op = SparseOperator(basis, basis, *given)
    assert all(a is b for a, b in zip((op.rows, op.cols, op.vals), given))


def test_scale_shares_the_read_only_coordinates():
    basis = Basis([(i,) for i in range(3)], np.ones(3))
    x = SparseOperator(basis, basis, [0, 2, 1], [0, 0, 2], [1.0, 2.0, 3.0j])
    y = x.scale(2)
    assert np.shares_memory(y.rows, x.rows) and np.shares_memory(y.cols, x.cols)
    assert np.array_equal(y.vals, 2 * x.vals)
    assert not (y.rows.flags.writeable or y.cols.flags.writeable or y.vals.flags.writeable)


# to_text digests (sha256, first 16 hex digits) of the dict operators'
# exports, so the plain-text format stays byte for byte what it was
DICT_TEXT_DIGESTS = {
    "boson_lower": "f7bda91f24aaef21",
    "dual_raise": "19fc6ca1a7a9e856",
    "energy": "498dd099c6842e1f",
    "clifford_holo": "4c4d9d49978278cd",
    "clifford_antiholo": "5ccfa333f3c701a4",
    "dRz": "673a48368331205b",
    "dirac_R": "39943e3850340dd5",
    "dirac_L": "52e65a169c812ccd",
}


def _text_cases():
    boson = fock.enumerate_basis(fock.TruncationSpec(3, 6), "boson")
    ferm = fock.enumerate_basis(fock.TruncationSpec(4, 10), "fermion")
    return {
        "boson_lower": fock.boson_lower(boson, 2),
        "dual_raise": fock.dual_raise(boson, 1),
        "energy": fock.energy_op(boson),
        "clifford_holo": fock.clifford(ferm, 3, "holo"),
        "clifford_antiholo": fock.clifford(ferm, 3, "antiholo"),
        "dRz": limitspace.dRz_matrix(limitspace.mode_basis(6)),
        "dirac_R": dirac.build_dirac_R(fock.TruncationSpec(3, 5))[0],
        "dirac_L": dirac.build_dirac_L(fock.TruncationSpec(2, 4))[0],
    }


def test_to_text_keeps_the_dict_operator_bytes():
    for name, op in _text_cases().items():
        text = op.to_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == DICT_TEXT_DIGESTS[name], name
        assert text == DictOperator.of(op).to_text()


def test_from_text_round_trips_exactly():
    rng = np.random.default_rng(17)
    dom, cod = Basis([(i,) for i in range(5)], np.ones(5)), Basis([(0,), (1,)], [1.0, 2.0])
    for grade in ("even", "odd"):
        rows, cols = rng.integers(0, 2, 6), rng.integers(0, 5, 6)
        vals = (rng.standard_normal(6) * 10.0 ** rng.integers(-20, 20, 6)
                + 1j * rng.standard_normal(6))
        op = SparseOperator(dom, cod, rows, cols, vals, grade)
        back = SparseOperator.from_text(op.to_text(), dom, cod)
        assert back.grade == grade and entries(back) == entries(op)
    for op in _text_cases().values():
        back = SparseOperator.from_text(op.to_text(), op.domain, op.codomain)
        assert back.grade == op.grade and entries(back) == entries(op)


def test_shift_op_matches_label_lookup():
    # the label-by-label dict lookup is the oracle; codomains in shuffled
    # order, with negative entries and targets outside every label range,
    # one with a label far from the others (column spans whose product is
    # near 2^60, inside the int64 key range) and zero-dim ones
    rng = np.random.default_rng(19)
    for width in (1, 2, 4):
        labels = {tuple(rng.integers(-2, 4, width).tolist()) for _ in range(40)}
        domain = Basis(sorted(labels), np.ones(len(labels)))
        kept = [domain.labels[i] for i in rng.permutation(len(labels))[:(3 * len(labels)) // 4]]
        far = tuple((-1) ** k * 2 ** (60 // width) for k in range(width))
        codomains = [Basis(kept, np.ones(len(kept))),
                     Basis(kept + [far], np.ones(len(kept) + 1)),
                     Basis(np.zeros((0, width), dtype=np.int64), []), Basis([], [])]
        coeff = rng.integers(-2, 3, domain.dim).astype(float)
        for codomain, pos, step in itertools.product(codomains, range(width), (-3, -1, 1, 2)):
            got = shift_op(domain, codomain, pos, step, coeff, "odd")
            index = {lab: i for i, lab in enumerate(codomain.labels)}
            ref = {}
            for j, lab in enumerate(domain.labels):
                target = lab[:pos] + (lab[pos] + step,) + lab[pos + 1:]
                if target in index and coeff[j]:
                    ref[(index[target], j)] = complex(coeff[j])
            assert got.grade == "odd" and entries(got) == ref


@pytest.mark.parametrize("row, col", [(-1, 0), (3, 0), (0, -1), (0, 2),
                                      (-2 ** 63, 0), (2 ** 62, 0), (0, -2 ** 63), (0, 2 ** 62)])
def test_out_of_range_indices_raise(row, col):
    dom, cod = Basis([(0,), (1,)], np.ones(2)), Basis([(0,), (1,), (2,)], np.ones(3))
    # alone, and before an entry out of range on both sides: the first is named
    for rows, cols in (([0, row], [1, col]), ([0, row, 5], [1, col, -7])):
        with pytest.raises(IndexError, match=rf"^entry \({row},{col}\) outside basis bounds$"):
            SparseOperator(dom, cod, rows, cols, np.ones(len(rows)))
    with pytest.raises(IndexError, match="outside basis bounds"):
        DictOperator(dom, cod, {(0, 1): 1.0, (row, col): 2.0})


# ---------------------------------------------------------------- properties

def _property_strategies():
    st = pytest.importorskip("hypothesis.strategies")
    dim = 4
    grams = st.lists(st.integers(-2, 3), min_size=dim, max_size=dim).map(
        lambda ks: Basis([(i,) for i in range(dim)], [2.0 ** k for k in ks]))
    quarter = st.integers(-4, 4).map(lambda k: k / 4.0)
    triplet = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                        st.builds(complex, quarter, quarter))
    return st, grams, st.lists(triplet, max_size=10), st.sampled_from(["even", "odd"])


def _operator(basis, triplets, grade):
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return SparseOperator(basis, basis, list(rows), list(cols), list(vals), grade)


def test_property_adjoint_is_an_involution():
    hypothesis = pytest.importorskip("hypothesis")
    st, grams, triplets, grades = _property_strategies()

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(grams, triplets, grades)
    def check(basis, trip, grade):
        a = _operator(basis, trip, grade)
        assert_same(adjoint(adjoint(a)), DictOperator.of(a))

    check()


def test_property_graded_jacobi_identity():
    hypothesis = pytest.importorskip("hypothesis")
    st, grams, triplets, grades = _property_strategies()

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(grams, triplets, triplets, triplets, grades, grades, grades)
    def check(basis, ta, tb, tc, ga, gb, gc):
        a, b, c = (_operator(basis, t, g) for t, g in ((ta, ga), (tb, gb), (tc, gc)))
        sign = -1.0 if ga == gb == "odd" else 1.0
        lhs = graded_commutator(a, graded_commutator(b, c))
        rhs = (graded_commutator(graded_commutator(a, b), c)
               + graded_commutator(b, graded_commutator(a, c)).scale(sign))
        # quarter-integer entries keep every product and sum exact
        assert (lhs - rhs).max_abs() == 0.0

    check()


# ---------------------------------------------------------------- block spectra

def dense_hermitian(a, tol=1e-10):
    """The dense route the block layer replaced: the Hermitian part of the
    orthonormal view, after the same self-adjointness check."""
    sym = orthonormal_dense(a)
    asym = np.max(np.abs(sym - sym.conj().T), initial=0.0)
    if asym > tol * max(np.max(np.abs(sym), initial=0.0), 1.0):
        raise NotSelfAdjointError(f"max asymmetry {asym:.3e}")
    return 0.5 * (sym + sym.conj().T)


def bfs_components(op):
    """Component labels (smallest member) by breadth-first search."""
    neighbours = {i: set() for i in range(op.domain.dim)}
    for i, j in zip(op.rows.tolist(), op.cols.tolist()):
        neighbours[i].add(j)
        neighbours[j].add(i)
    label = [-1] * op.domain.dim
    for root in range(op.domain.dim):  # ascending, so each root is its minimum
        if label[root] >= 0:
            continue
        label[root], queue = root, [root]
        while queue:
            for j in neighbours[queue.pop()]:
                if label[j] < 0:
                    label[j] = root
                    queue.append(j)
    return np.array(label, dtype=np.int64)


def shuffled_blocks(rng, sizes, free, gram_exponents=(-2, 4), null=0):
    """Gram-self-adjoint operator with one random Hermitian block per size
    (orthonormal coordinates), placed on shuffled states, plus ``free``
    states with no entries.  The ``null`` lowest eigenvalues of each block
    are set to zero."""
    dim = sum(sizes) + free
    basis = Basis([(i,) for i in range(dim)], 2.0 ** rng.integers(*gram_exponents, dim))
    s = np.sqrt(basis.gram)
    perm = rng.permutation(dim)
    rows, cols, vals, start = [], [], [], 0
    for size in sizes:
        h = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        lam, u = np.linalg.eigh(h + h.conj().T)
        lam[:null] = 0.0
        h = (u * lam) @ u.conj().T
        h = 0.5 * (h + h.conj().T)  # exactly Hermitian
        states = perm[start:start + size]
        start += size
        i, j = np.meshgrid(states, states, indexing="ij")
        rows += i.ravel().tolist()
        cols += j.ravel().tolist()
        vals += (h * s[j] / s[i]).ravel().tolist()
    return SparseOperator(basis, basis, rows, cols, vals)


@functools.cache
def block_cases():
    """Operators the block layer is checked on, built once on first use."""
    rng = np.random.default_rng(31)
    spec = fock.TruncationSpec(2, 3)
    boson = fock.enumerate_basis(spec, "boson")
    jcycle = assembly.materialize_j_cycle(spec, 1, limitspace.SigmaSequence("pow2"), h_op=4)
    d = jcycle.operator
    return {
        "dirac_R (3,8)": dirac.build_dirac_R(fock.TruncationSpec(3, 8))[0],
        "dirac_L (3,8)": dirac.build_dirac_L(fock.TruncationSpec(3, 8))[0],
        "analytic full (2,3)": assembly.analytic_index(spec, full_product=True).operator,
        "mu full (2,3)": assembly.mu_index(spec, full_product=True).operator,
        "j-cycle D": d,
        "j-cycle D^2": d @ d,
        "shuffled blocks": shuffled_blocks(rng, [3, 1, 5, 3, 2, 5, 1], free=4),
        "zero-dim": SparseOperator.zero(Basis([], [])),
        # the index cycles compare_indices transforms, a zero operator and a
        # random diagonal (singleton blocks) on Grams up to 3!
        "analytic (2,4)": assembly.analytic_index(fock.TruncationSpec(2, 4)).operator,
        "mu (2,4)": assembly.mu_index(fock.TruncationSpec(2, 4)).operator,
        "analytic (3,6)": assembly.analytic_index(fock.TruncationSpec(3, 6)).operator,
        "mu (3,6)": assembly.mu_index(fock.TruncationSpec(3, 6)).operator,
        "zero": SparseOperator.zero(boson),
        "singleton blocks": SparseOperator(boson, boson, np.arange(boson.dim),
                                           np.arange(boson.dim),
                                           rng.standard_normal(boson.dim)),
    }


BLOCK_CASES = ["dirac_R (3,8)", "dirac_L (3,8)", "analytic full (2,3)", "mu full (2,3)",
               "j-cycle D", "j-cycle D^2", "shuffled blocks", "zero-dim"]
TRANSFORM_CASES = BLOCK_CASES + ["analytic (2,4)", "mu (2,4)", "analytic (3,6)", "mu (3,6)",
                                 "zero", "singleton blocks"]


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_spectra_equal_dense_spectra(name):
    op = block_cases()[name]
    assert op.domain.dim <= 800
    dense = np.linalg.eigvalsh(dense_hermitian(op))
    blocks = spectrum(op)
    assert blocks.shape == dense.shape and np.all(np.diff(blocks) >= 0)
    assert np.max(np.abs(blocks - dense), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_eigh_gram_blocks_diagonalize_the_operator(name):
    op = block_cases()[name]
    g = op.domain.gram
    dense = op.to_dense()
    seen = []
    for states, vals, vecs in eigh_gram(op):
        k, s = states.shape
        assert vals.shape == (k, s) and vecs.shape == (k, s, s)
        for b in range(k):
            v = np.zeros((op.domain.dim, s), dtype=complex)
            v[states[b]] = vecs[b]
            # eigenvectors in original coordinates, Gram-orthonormal
            assert np.max(np.abs(dense @ v - v * vals[b])) <= 1e-11 * max(1, np.max(np.abs(vals)))
            assert np.max(np.abs(v.conj().T @ (g[:, None] * v) - np.eye(s))) <= 1e-12
        seen += states.ravel().tolist()
    assert sorted(seen) == list(range(op.domain.dim))


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_components_match_breadth_first_search(name):
    op = block_cases()[name]
    assert np.array_equal(op.components, bfs_components(op))


def test_block_components_match_scipy():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    for op in block_cases().values():
        n = op.domain.dim
        graph = sparse.coo_matrix((np.ones(op.nnz), (op.rows, op.cols)), shape=(n, n))
        count, theirs = csgraph.connected_components(graph, directed=False)
        ours = op.components
        # same partition: the two labelings determine each other
        pairs = set(zip(ours.tolist(), theirs.tolist()))
        assert len(pairs) == count == len(set(ours.tolist()))


def test_block_components_are_computed_once_per_operator():
    op = block_cases()["j-cycle D"]
    labels = op.components
    assert op.components is labels
    with pytest.raises(ValueError, match="read-only"):
        labels[0] = 1


def test_block_components_singletons_and_chains():
    basis = Basis([(i,) for i in range(7)], np.ones(7))
    # one chain 0-2-4-6 with entries in both orientations, one pair 3-5, one
    # free state 1
    op = SparseOperator(basis, basis, [0, 4, 4, 3], [2, 2, 6, 5], [1.0, 1.0, 1.0, 1.0])
    assert op.components.tolist() == [0, 1, 0, 3, 0, 3, 0]


def dense_spectral_function(op, f):
    """The dense twin of the block-form spectral calculus, the recomposition
    ``U f(Lambda) U^H`` of the whole orthonormal view."""
    vals, u = np.linalg.eigh(dense_hermitian(op))
    return (u * f(vals)[None, :]) @ u.conj().T


@pytest.mark.parametrize("name", TRANSFORM_CASES)
def test_bounded_transform_matches_dense_recomposition(name):
    op = block_cases()[name]
    dense_on = dense_spectral_function(op, lambda lam: lam / np.sqrt(1.0 + lam ** 2))
    bt = dense_blocks(block_transform(op), op.domain.dim)
    assert np.max(np.abs(bt - dense_on), initial=0.0) <= 1e-13
    # the transform keeps the operator's grade
    assert off_grade(bt, op.domain, op.grade) <= 1e-13
    # its spectrum, as compare_indices reads it, is f of the operator's
    raw = spectrum(op)
    got = opcore.block_spectrum(block_transform(op))
    assert np.max(np.abs(got - raw / np.sqrt(1.0 + raw ** 2)), initial=0.0) <= 1e-13


def _resolvent(lam):
    return 1.0 / (1.0 + lam ** 2)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_spectral_routes_match_the_dense_resolvent(name):
    op = block_cases()[name]
    dense_res = dense_spectral_function(op, _resolvent)
    res = dense_blocks(spectral_function(eigh_gram(op), op.domain.gram, _resolvent),
                       op.domain.dim)
    assert np.max(np.abs(res - dense_res), initial=0.0) <= 1e-12
    # the resolvent is even whatever the operator's grade
    assert off_grade(res, op.domain, "even") <= 1e-12


@pytest.mark.parametrize("case", ["dirac_R", "null blocks"])
def test_kernel_vectors_are_gram_orthonormal(case):
    if case == "dirac_R":
        op = block_cases()["dirac_R (3,8)"]
        count = fock.enumerate_basis(fock.TruncationSpec(3, 8), "boson").dim
    else:
        # one null vector in each of three blocks, and two free states
        op = shuffled_blocks(np.random.default_rng(8), [3, 4, 2], free=2, null=1)
        count = 5
    vecs = dense_kernel(dirac.kernel(op), op.domain.dim)
    assert len(vecs) == count
    gram = np.array([[inner(op.domain, v, w) for w in vecs] for v in vecs])
    assert np.max(np.abs(gram - np.eye(len(vecs)))) <= 1e-12
    dense = op.to_dense()
    assert max(norm(op.codomain, dense @ v) for v in vecs) <= 1e-12


def test_block_routes_reject_non_self_adjoint():
    basis = fock.enumerate_basis(fock.TruncationSpec(2, 3), "boson")
    skew = fock.energy_op(basis)  # i * diagonal
    for route in (spectrum, eigh_gram, block_transform):
        with pytest.raises(NotSelfAdjointError):
            route(skew)
    # an off-diagonal asymmetry inside one block, in Gram scaling
    block = shuffled_blocks(np.random.default_rng(4), [4], free=1)
    k = np.flatnonzero(block.rows != block.cols)[0]
    tilted = block + SparseOperator(block.domain, block.domain, [block.rows[k]],
                                    [block.cols[k]], [1e-6])
    for route in (spectrum, eigh_gram, block_transform):
        route(block)
        with pytest.raises(NotSelfAdjointError):
            route(tilted)
    ferm = fock.enumerate_basis(fock.TruncationSpec(2, 3), "fermion")
    with pytest.raises(ShapeMismatchError):
        spectrum(SparseOperator.zero(basis, ferm))


def test_property_block_spectra_equal_dense_spectra():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(st.integers(1, 6), max_size=6), st.integers(0, 4),
                      st.integers(0, 2 ** 32 - 1))
    def check(sizes, free, seed):
        op = shuffled_blocks(np.random.default_rng(seed), sizes, free)
        dense = np.linalg.eigvalsh(dense_hermitian(op))
        got = spectrum(op)
        assert got.shape == dense.shape
        assert np.max(np.abs(got - dense), initial=0.0) <= 1e-12 * max(
            1.0, np.max(np.abs(dense), initial=0.0))

    check()


# ---------------------------------------------------------------- labels as one array

class TupleBasis:
    """The tuple-label basis the array-native :class:`Basis` replaced: the
    oracle of its labels, lookup, equality and hash."""

    def __init__(self, labels, gram):
        self.labels = tuple(labels)
        self.gram = np.asarray(gram, dtype=float)
        if len(self.labels) != len(set(self.labels)):
            raise ValueError("basis labels must be distinct")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label):
        return self._index[label]

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        return self.labels == other.labels and np.array_equal(self.gram, other.gram)

    def __hash__(self):
        return hash(self.labels)


def label_cases():
    spec = fock.TruncationSpec(3, 5)
    boson = fock.enumerate_basis(spec, "boson")
    raw = limitspace.mode_basis(3)
    grp = twistgroup.FiniteAbelianGroup((4, 2))
    l2 = twistgroup.schatten_map(
        twistgroup.CrossedProductElement.translation(grp, np.eye(grp.order))).domain
    return {
        "boson": boson,
        "dual": fock.enumerate_basis(spec, "dual_boson"),
        "fermion": fock.enumerate_basis(spec, "fermion"),
        "boson, other gram": Basis(boson.label_array, np.ones(boson.dim)),
        "mode": raw,
        "mode copy": Basis(raw.label_array, raw.gram),
        "mode from tuples": Basis(list(raw.labels), raw.gram),
        "triple": dirac.TripleSpace(dirac.spec_bases(fock.TruncationSpec(2, 3)), 3).basis,
        "l2(Z4xZ2)": l2,
        "unsorted": Basis([(2,), (0,), (3,), (1,)], [2.0, 1.0, 6.0, 1.0]),
        "zero-dim": Basis([], []),
        "zero-dim array": Basis(np.zeros((0, 3), dtype=np.int64), []),
        "one empty label": Basis([()], [1.0]),
    }


def test_array_basis_matches_the_tuple_oracle():
    cases = label_cases()
    oracles = {name: TupleBasis(b.labels, b.gram) for name, b in cases.items()}
    grp = twistgroup.FiniteAbelianGroup((4, 2))
    assert cases["l2(Z4xZ2)"].labels == tuple(grp.elements)
    for name, basis in cases.items():
        oracle = oracles[name]
        assert basis.labels == tuple(map(tuple, basis.label_array.tolist())), name
        assert basis.label_array.shape[0] == basis.dim == len(oracle.labels)
        for i, lab in enumerate(oracle.labels):
            assert basis.index_of(lab) == basis.labels.index(lab) == oracle.index(lab) == i
        assert np.array_equal(basis.index_of(basis.label_array[::-1]),
                              np.arange(basis.dim)[::-1])
        width = basis.label_array.shape[1]
        # a label missing from the basis, of another width, of width 0, and
        # with values far apart
        for probe in [(-1,) * (width or 1), (0,) * (width + 1), (), (2 ** 40, -2 ** 40),
                      (2 ** 62, -2 ** 62), (-2 ** 62, 2 ** 62)]:
            found = basis.index_of(probe)
            assert found == (oracle.index(probe) if probe in oracle else -1), (name, probe)
            assert (probe in basis.labels) == (probe in oracle), (name, probe)
        for other, obasis in cases.items():
            assert (basis == obasis) == (oracle == oracles[other]), (name, other)
            if basis == obasis:
                assert hash(basis) == hash(obasis)
    assert cases["boson"] == cases["dual"] and cases["mode"] == cases["mode copy"]


def test_factor_bases_the_lab_builds_are_in_lex_order():
    # the condition under which a product's component order is the order of
    # its concatenated factor labels
    specs = [fock.TruncationSpec(1, 0), SPEC, fock.TruncationSpec(4, 8)]
    bases = [fock.enumerate_basis(spec, kind) for spec in specs
             for kind in ("boson", "dual_boson", "fermion")]
    bases += [limitspace.mode_basis(h) for h in (0, 1, 4)]
    cycle = assembly.materialize_j_cycle(fock.TruncationSpec(2, 3), 2,
                                         limitspace.SigmaSequence("pow2"), 2)
    bases += cycle.mode_bases
    # one energy-stripped copy of the mode basis serves every mode leg
    assert cycle.mode_bases[0] is cycle.mode_bases[1] and not cycle.mode_bases[0].energy.any()
    for shape in ((4, 2), (3, 3)):
        grp = twistgroup.FiniteAbelianGroup(shape)
        bases.append(twistgroup.schatten_map(
            twistgroup.CrossedProductElement.translation(grp, np.eye(grp.order))).domain)
    for basis in bases:
        labels = basis.labels
        assert all(a < b for a, b in zip(labels, labels[1:]))


@pytest.mark.parametrize("labels", [[(0, 1), (2, 3), (0, 1)], [(), ()],
                                    [(1,), (0,), (2,), (0,)]])
def test_duplicate_labels_raise_like_the_tuple_oracle(labels):
    with pytest.raises(ValueError, match="distinct"):
        TupleBasis(labels, np.ones(len(labels)))
    with pytest.raises(ValueError, match="distinct"):
        Basis(labels, np.ones(len(labels)))
    with pytest.raises(ValueError, match="distinct"):
        Basis(np.array(labels, dtype=np.int64).reshape(len(labels), -1), np.ones(len(labels)))


@pytest.mark.parametrize("labels", [[(2 ** 40, -2 ** 40), (0, 0), (-2 ** 62, 2 ** 62)],
                                    [(-2 ** 63,), (2 ** 63 - 1,)],
                                    # column spans 2^31 and 2^32: keys up to 2^63 - 1,
                                    # but the strides' full product overflows
                                    [(0, 0), (2 ** 31 - 1, 2 ** 32 - 1)]])
def test_labels_too_wide_for_int64_keys_are_refused(labels):
    with pytest.raises(ValueError, match="too wide for int64 keys"):
        Basis(labels, np.ones(len(labels)))


def test_labels_just_inside_the_int64_key_range_are_found():
    # column spans 2^31 and 2^32 - 1: the product is 2^63 - 2^31
    basis = Basis([(0, 0), (2 ** 31 - 1, 2 ** 32 - 2)], np.ones(2))
    probes = [(2 ** 31 - 1, 2 ** 32 - 2), (0, 0), (2 ** 31 - 1, 0), (2 ** 31 - 1, 2 ** 32 - 1),
              (2 ** 31, 0), (-1, 0), (2 ** 62, -2 ** 62), (-2 ** 62, 2 ** 62)]
    assert basis.index_of(probes).tolist() == [1, 0, -1, -1, -1, -1, -1, -1]


def test_basis_and_operator_arrays_are_read_only():
    basis = Basis(np.array([[0, 1], [1, 0]]), [1.0, 2.0])
    op = SparseOperator(basis, basis, [0, 1], [1, 0], [1.0, 2.0])
    for arr in (basis.label_array, basis.gram, basis.energy, basis.parity,
                op.rows, op.cols, op.vals):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


# ------------------------------------------------------- canonical triplets

def lexsort_route(domain, codomain, rows, cols, vals):
    """The constructor's triplets by the sorting route alone: lexsort by
    column then row, sum repeats in entry order, drop exact zeros."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(vals), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    summed = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(summed, np.cumsum(first) - 1, vals)
    keep = summed != 0
    return rows[first][keep], cols[first][keep], summed[keep]


def triplet_cases():
    rng = np.random.default_rng(37)
    domain = Basis([(i,) for i in range(5)], np.ones(5))
    codomain = Basis([(i,) for i in range(7)], np.ones(7))
    coords = np.sort(rng.choice(35, 20, replace=False))
    cols, rows = np.divmod(coords, 7)  # canonical: by column, then row
    vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    zeroed = vals.copy()
    zeroed[::3] = 0.0
    perm = rng.permutation(20)
    twice = np.concatenate([perm, perm[:8]])
    return domain, codomain, {
        "presorted": (rows, cols, vals, True),
        "zero-valued": (rows, cols, zeroed, True),
        "single": (rows[:1], cols[:1], vals[:1], True),
        "empty": (rows[:0], cols[:0], vals[:0], True),
        "shuffled": (rows[perm], cols[perm], vals[perm], False),
        "duplicated": (rows[twice], cols[twice], vals[twice], False),
        "presorted with a repeat": (np.r_[rows[:3], rows[2:]], np.r_[cols[:3], cols[2:]],
                                    np.r_[vals[:3], vals[2:]], False),
    }


@pytest.mark.parametrize("case", ["presorted", "zero-valued", "single", "empty", "shuffled",
                                  "duplicated", "presorted with a repeat"])
def test_constructor_matches_the_lexsort_route_bit_for_bit(case, monkeypatch):
    domain, codomain, cases = triplet_cases()
    rows, cols, vals, canonical = cases[case]
    ref = lexsort_route(domain, codomain, rows, cols, vals)
    if canonical:  # canonical input is taken as it is, never sorted
        monkeypatch.setattr(np, "argsort", None)
    op = SparseOperator(domain, codomain, rows, cols, vals)
    for got, want in zip((op.rows, op.cols, op.vals), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["presorted", "zero-valued", "empty"])
def test_from_dense_lists_entries_in_canonical_order(case, monkeypatch):
    domain, codomain, cases = triplet_cases()
    rows, cols, vals, _ = cases[case]
    mat = np.zeros((codomain.dim, domain.dim), dtype=complex)
    mat[rows, cols] = vals
    ref = lexsort_route(domain, codomain, rows, cols, vals)
    monkeypatch.setattr(np, "argsort", None)  # never sorted
    op = from_dense(mat, domain, codomain)
    for got, want in zip((op.rows, op.cols, op.vals), ref):
        assert got.tobytes() == want.tobytes()


def sparse_asymmetry(a):
    """``max |A_on - A_on^H|`` as one summed sparse operator on the union of
    both supports: the self-adjointness measure the block check replaced."""
    s = np.sqrt(a.domain.gram)
    vals = a.vals * s[a.rows] / s[a.cols]
    return SparseOperator(a.domain, a.domain, np.concatenate([a.rows, a.cols]),
                          np.concatenate([a.cols, a.rows]),
                          np.concatenate([vals, -np.conj(vals)])).max_abs()


def tilted_blocks():
    """Shuffled Hermitian blocks with one off-diagonal entry moved in each of
    four blocks of sizes 3, 3, 4 and 2, so the asymmetry differs from block
    to block and from size class to size class."""
    rng = np.random.default_rng(38)
    op = shuffled_blocks(rng, [3, 3, 4, 2, 3], free=2)
    off = np.flatnonzero(op.rows != op.cols)[[0, 2, 7, 11]]
    return op + SparseOperator(op.domain, op.domain, op.rows[off], op.cols[off],
                               [1e-3, 2e-3j, -5e-4, 3e-4])


@pytest.mark.parametrize("name", BLOCK_CASES[:-1] + ["tilted blocks", "skew diagonal"])
def test_block_asymmetry_equals_the_sparse_formula(name, monkeypatch):
    if name == "tilted blocks":
        op = tilted_blocks()
    elif name == "skew diagonal":
        op = fock.energy_op(fock.enumerate_basis(fock.TruncationSpec(2, 3), "boson"))
    else:
        op = block_cases()[name]
    # at most 1 in orthonormal coordinates, so the tolerance scale is 1 and
    # TOL is the largest asymmetry allowed, exactly
    s = np.sqrt(op.domain.gram)
    op = op.scale(0.5 / np.max(np.abs(op.vals * s[op.rows] / s[op.cols])))
    asym = sparse_asymmetry(op)
    monkeypatch.setattr(opcore, "TOL", asym)
    spectrum(op)
    monkeypatch.setattr(opcore, "TOL", np.nextafter(asym, -1.0))
    with pytest.raises(NotSelfAdjointError):
        spectrum(op)


def test_unmatched_entry_is_not_self_adjoint():
    # (2, 0) is there and (0, 2) is not; the rest is self-adjoint
    basis = Basis([(i,) for i in range(4)], [1.0, 2.0, 4.0, 8.0])
    op = SparseOperator(basis, basis, [0, 1, 2, 3, 2], [0, 1, 2, 3, 0],
                        [1.0, 2.0, 3.0, 4.0, 1e-6])
    assert sparse_asymmetry(op) > opcore.TOL * 4.0
    for route in (spectrum, eigh_gram, block_transform):
        with pytest.raises(NotSelfAdjointError):
            route(op)


# ------------------------------------------------------- blocked products

def one_shot_product(a, b):
    """``a @ b`` with every meeting pair expanded at once, then merged by
    the constructor: the product before it was taken by column ranges."""
    counts = np.bincount(a.cols, minlength=a.domain.dim)
    starts = np.cumsum(counts) - counts
    theirs, offset = opcore.expand_runs(counts[b.rows])
    left = starts[b.rows][theirs] + offset
    grade = "odd" if (a.grade == "odd") != (b.grade == "odd") else "even"
    return SparseOperator(b.domain, a.codomain, a.rows[left], b.cols[theirs],
                          a.vals[left] * b.vals[theirs], grade)


def product_cases():
    """Factor pairs ``(a, b)`` on 12 states with irrational values, so the
    merged sums depend on their order."""
    rng = np.random.default_rng(43)
    basis = Basis([(i,) for i in range(12)], 2.0 ** rng.integers(-2, 4, 12))

    def random_op(mask, grade="even"):
        mat = (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))) * mask
        return from_dense(mat, basis, grade=grade)

    dense = np.ones((12, 12), dtype=bool)
    holes = rng.random((12, 12)) < 0.4
    holes[:, [0, 3, 4, 11]] = False  # empty columns, first and last among them
    heavy = rng.random((12, 12)) < 0.15
    heavy[:, 5] = True  # one column that meets more pairs than a block
    return {
        "dense content": (random_op(dense), random_op(dense, "odd")),
        "empty columns": (random_op(rng.random((12, 12)) < 0.5, "odd"), random_op(holes)),
        "one heavy column": (random_op(dense), random_op(heavy)),
        "zero": (random_op(dense), SparseOperator.zero(basis)),
    }


@pytest.mark.parametrize("block", [7, 50, 300, 2 ** 14])
@pytest.mark.parametrize("case", ["dense content", "empty columns", "one heavy column", "zero"])
def test_blocked_product_matches_the_one_shot_expansion_bit_for_bit(case, block,
                                                                     monkeypatch):
    a, b = product_cases()[case]
    monkeypatch.setattr(opcore, "BLOCK_ELEMENTS", block)
    got, want = a @ b, one_shot_product(a, b)
    assert (got.domain, got.codomain, got.grade) == (want.domain, want.codomain, want.grade)
    for f in ("rows", "cols", "vals"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes()
    # the ranges tile b's entries by whole columns, each as many as fit in
    # one block, or a single column that meets more pairs
    pairs = np.bincount(a.cols, minlength=a.domain.dim)[b.rows]
    ranges = opcore._column_ranges(b.cols, pairs)
    bounds = [start for start, _ in ranges] + [ranges[-1][1]]
    assert bounds[0] == 0 and bounds[-1] == b.nnz and bounds == sorted(bounds)
    starts = set(np.flatnonzero(np.diff(b.cols, prepend=-1))) | {b.nnz}
    assert set(bounds) <= starts
    for start, stop in ranges:
        assert pairs[start:stop].sum() <= block or len(set(b.cols[start:stop])) == 1
        grown = min((s for s in starts if s > stop), default=None)
        assert grown is None or pairs[start:grown].sum() > block
    if pairs.sum() <= block:
        assert ranges == [(0, b.nnz)]


def test_dirac_square_at_reach_takes_its_pairs_a_block_at_a_time():
    # (6,14), dim 25752: dR @ dR meets in 146,088 pairs, nine blocks;
    # expanded at once they made a 19 MB traced peak, by ranges 3.6 MB
    dR, _ = dirac.build_dirac_R(fock.TruncationSpec(6, 14))
    square, peak = traced_peak(dR.__matmul__, dR)
    want = one_shot_product(dR, dR)
    for f in ("rows", "cols", "vals"):
        assert getattr(square, f).tobytes() == getattr(want, f).tobytes()
    assert square.nnz == 25364
    assert peak < 8e6


def test_one_block_constant():
    # every chunked kernel reads opcore.BLOCK_ELEMENTS through the module,
    # so one setting reaches all of them; Lcg.JUMP_BLOCK is the length of
    # the jump table
    found = []
    for info in pkgutil.iter_modules(kkindex.__path__):
        mod = importlib.import_module(f"kkindex.{info.name}")
        for name, value in vars(mod).items():
            owned = [(name, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owned += [(f"{name}.{key}", v) for key, v in vars(value).items()]
            found += [f"{info.name}.{key}" for key, v in owned
                      if re.search("BLOCK|CHUNK", key.upper()) and isinstance(v, int)]
    assert sorted(found) == ["opcore.BLOCK_ELEMENTS", "opcore.Lcg.JUMP_BLOCK"]
