import dataclasses
import functools
import time

import numpy as np
import pytest

from kkindex import assembly as asm
from kkindex import dirac, fock, limitspace as ls, opcore, twistgroup as tg
from kkindex.experiments import EXPERIMENTS, Config
from kkindex.opcore import Lcg, SparseOperator, adjoint, gram_transpose

import tuple_law as law
from traced import traced_peak
from vectors import (dense_kernel, factor_labels, orthonormal_dense, product_label,
                     regular_representation)


SEQ = ls.SigmaSequence("pow2")
# bounds of the rest-space diagnostics at dim 15975, set from a measured run
# (2-core Xeon): traced peaks 15 MB for resolvent_compactness and 15 MB for
# kucerovsky_check, in about 0.5 s
REACH_SECONDS = 10.0
REACH_PEAK_BYTES = 30e6
KUCEROVSKY_REACH_PEAK_BYTES = 30e6
# bound of both (6,14) index cycles' build and comparison, four module trials
# included: measured 1.2 s with a 49 MB traced peak (2-core Xeon)
COMPARE_REACH_SECONDS = 6.0


def small_cycle(h_op=4):
    spec = fock.TruncationSpec(2, 3)
    return asm.materialize_j_cycle(spec, 1, SEQ, h_op=h_op)


# ---------------------------------------------------------------- j-cycle

def test_jcycle_operator_odd_self_adjoint():
    mat = small_cycle()
    assert mat.operator.grade == "odd"
    assert (adjoint(mat.operator) - mat.operator).max_abs() < 1e-12
    basis = mat.space.basis
    diag = np.arange(basis.dim)
    parity = SparseOperator(basis, basis, diag, diag, (-1.0) ** basis.parity, "even")
    assert ((mat.operator @ parity) + (parity @ mat.operator)).max_abs() < 1e-13


def test_jcycle_distinguished_vector():
    # on Xi x 1_f x dual-vacuum the mirror part vanishes exactly and the
    # free part has zero overlap with every Xi-tailed vector
    mat = small_cycle()
    space = mat.space
    xi = ls.xi_coeffs(SEQ.sigma(1), h_max=mat.h_op).coeffs
    vec = np.zeros(space.dim, dtype=complex)
    for k in range(len(xi)):
        lab = product_label(space, (k, k), (0, 0), (0, 0))
        if lab in space.basis.labels:
            vec[space.basis.labels.index(lab)] = xi[k]
    vec /= np.linalg.norm(vec)
    l_out = mat.l_part.to_dense() @ vec
    assert np.max(np.abs(l_out)) < 1e-14
    d_out = mat.d_part.to_dense() @ vec
    # overlap with the Xi-prefix sector is the compression scalar: zero
    assert abs(np.vdot(vec, d_out)) < 1e-14


def test_jcycle_square_positive():
    cycle = small_cycle()
    op = orthonormal_dense(cycle.operator)
    vals = np.linalg.eigvalsh(op @ op)
    assert vals[0] > -1e-12


def test_jcycle_split_reports_cross_term():
    # squared operator = free part + cross part + mirror part; the cross
    # part couples prefix and dual legs through the shared spinor factor
    cycle = small_cycle()
    report = asm.resolvent_compactness(cycle)
    n1, n2, n3 = report.split_norms
    assert n1 > 0 and n3 > 0
    assert n2 > 1e-6  # genuinely present
    op = orthonormal_dense(cycle.operator)
    d1 = orthonormal_dense(cycle.d_part)
    d3 = orthonormal_dense(cycle.l_part)
    residual = op @ op - d1 @ d1 - d3 @ d3
    assert np.linalg.norm(residual, 2) == pytest.approx(n2, rel=1e-10)


def test_jcycle_rejects_mode_overflow():
    spec = fock.TruncationSpec(2, 3)
    with pytest.raises(ValueError, match="truncation mismatch"):
        asm.materialize_j_cycle(spec, 3, SEQ, h_op=4)


def test_jcycle_smearing_is_the_xi_projection_commuting_with_the_mirror_part():
    # V V^H = theta_(Xi, Xi) (x) id: one unit-trace rank-one block per
    # distinct (fermion, dual) rest state, and [dirac_L part, smearing] = 0
    cycle = small_cycle()
    v = cycle.isometry.to_dense()
    rest = np.unique(cycle.space.components[:, cycle.m_active:], axis=0)
    assert v.shape == (cycle.space.dim, len(rest))
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(rest)))) <= 1e-15
    gram = adjoint(cycle.isometry) @ cycle.isometry
    assert gram.domain == gram.codomain == cycle.rest.basis
    assert (gram - SparseOperator.identity(cycle.rest.basis)).max_abs() <= 1e-15
    p = v @ v.conj().T
    assert np.max(np.abs(p - dense_smearing(cycle))) <= 1e-16
    assert np.max(np.abs(p - p.conj().T)) == 0.0
    assert np.max(np.abs(p @ p - p)) <= 1e-14
    assert np.trace(p).real == pytest.approx(len(rest), abs=1e-12)
    assert abs(np.trace(p).imag) <= 1e-14
    l_dense = orthonormal_dense(cycle.l_part)
    assert np.max(np.abs(l_dense @ p - p @ l_dense)) <= 1e-14


# ---------------------------------------------------------------- diagnostics
# The dense dim x dim routes, the oracles of the rest-space ones at
# dim <= 600.

def dense_smearing(cycle):
    """``theta_(Xi, Xi) (x) id`` as a dense matrix, entry by entry."""
    comps, m = cycle.space.components, cycle.m_active
    amps = np.prod([cycle.xi_vecs[q][comps[:, q]] for q in range(m)], axis=0)
    rest = np.unique(comps[:, m:], axis=0, return_inverse=True)[1].ravel()
    return np.where(rest[:, None] == rest[None, :], np.outer(amps, np.conj(amps)), 0.0)


def dense_commutator_bound(cycle):
    """``|[op, theta_(Xi, Xi) (x) id]|``, the oracle of the Kucerovsky xi row."""
    op, a_dense = orthonormal_dense(cycle.operator), dense_smearing(cycle)
    return float(np.linalg.norm(op @ a_dense - a_dense @ op, 2))


def dense_resolvent_compactness(cycle):
    op = orthonormal_dense(cycle.operator)
    d_dense = orthonormal_dense(cycle.d_part)
    l_dense = orthonormal_dense(cycle.l_part)
    d1 = d_dense @ d_dense
    d3 = l_dense @ l_dense
    d2 = (op @ op) - d1 - d3
    split = tuple(float(np.linalg.norm(x, 2)) for x in (d1, d2, d3))

    # 2 (N_f + E_dual) from the factor energies of each state's legs
    space = cycle.space
    ferm_pos, dual_pos = cycle.m_active, cycle.m_active + 1
    shells = (space.factors[ferm_pos].energy[space.components[:, ferm_pos]]
              + space.factors[dual_pos].energy[space.components[:, dual_pos]])
    l_sq = cycle.l_part.to_dense() @ cycle.l_part.to_dense()
    residual = float(np.max(np.abs(l_sq - np.diag(2.0 * shells))))
    return asm.CompactnessReport(split, residual)


def dense_t_map(cycle, small, k_vec):
    """Matrix of ``f (x) s (x) v -> <k, f> s (x) v`` in basis coordinates."""
    space, m = cycle.space, cycle.m_active
    rows = small.basis.index_of(space.components[:, m:])
    flat = np.ravel_multi_index(tuple(space.components[:, :m].T), space.shape[:m])
    cols = np.flatnonzero(rows >= 0)
    out = np.zeros((small.dim, space.dim), dtype=complex)
    out[rows[cols], cols] = np.conj(k_vec[flat[cols]])
    return out


def dense_kucerovsky_check(cycle, seed=5):
    space = cycle.space
    small = dirac.TripleSpace(space.factors[cycle.m_active:], e_max=cycle.spec.e_max)
    dl_small = orthonormal_dense(dirac.build_dirac_L(cycle.spec, space=small)[0])
    xi_full = cycle.xi_vecs[0]
    for v in cycle.xi_vecs[1:]:
        xi_full = np.kron(xi_full, v)
    prefix_dim = len(xi_full)
    op = orthonormal_dense(cycle.operator)
    d_norm = float(np.linalg.norm(orthonormal_dense(cycle.d_part), 2))
    rng = Lcg(seed)
    rows = []
    for gen in range(3):
        if gen == 0:
            k_vec, name, bound = xi_full, "xi", cycle.xi_bound
        else:
            k_vec = rng.complex_vector(prefix_dim)
            k_vec /= np.linalg.norm(k_vec)
            name = f"random-{gen}"
            bound = 2.0 * d_norm
        t_map = dense_t_map(cycle, small, k_vec)
        defect = dl_small @ t_map - t_map @ op
        rows.append((name, float(np.linalg.norm(defect, 2)), float(bound)))
    return rows


def report_fields(report):
    """Every field of a diagnostics report (a dataclass, or the Kucerovsky
    row list) as (path, value) pairs, numbers as floats and names as they
    are."""
    def walk(path, value):
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                yield from walk(f"{path}[{i}]", item)
        elif isinstance(value, str):
            yield path, value
        else:
            yield path, float(value)
    if isinstance(report, list):
        yield from walk("rows", report)
        return
    for name in report.__dataclass_fields__:
        yield from walk(name, getattr(report, name))


PARITY_CASES = {"N=2,E=3,M=1,h=4": (2, 3, 1, 4), "N=2,E=4,M=1,h=4": (2, 4, 1, 4),
                "N=2,E=3,M=2,h=2": (2, 3, 2, 2)}


@pytest.mark.parametrize("case", list(PARITY_CASES.values()), ids=list(PARITY_CASES))
def test_diagnostics_match_the_dense_oracles(case):
    n_max, e_max, m_active, h_op = case
    cycle = asm.materialize_j_cycle(fock.TruncationSpec(n_max, e_max), m_active, SEQ, h_op)
    assert cycle.space.dim <= 600
    pairs = [(asm.resolvent_compactness(cycle), dense_resolvent_compactness(cycle)),
             (asm.kucerovsky_check(cycle, seed=9), dense_kucerovsky_check(cycle, seed=9))]
    for fast, oracle in pairs:
        fast_fields, oracle_fields = list(report_fields(fast)), list(report_fields(oracle))
        assert [path for path, _ in fast_fields] == [path for path, _ in oracle_fields]
        for (path, got), (_, want) in zip(fast_fields, oracle_fields):
            if isinstance(want, str) or not np.isfinite(want):
                assert got == want, path
            else:
                assert abs(got - want) <= 1e-12, (path, got, want)


@pytest.mark.parametrize("case", list(PARITY_CASES.values()), ids=list(PARITY_CASES))
def test_kucerovsky_xi_row_is_the_dense_smeared_commutator(case):
    # T_Xi^H = V and P = V V^H commutes with the mirror part, so the xi
    # defect |V dirac_L - op V| is |[op, P]|, formed here as dim x dim
    n_max, e_max, m_active, h_op = case
    cycle = asm.materialize_j_cycle(fock.TruncationSpec(n_max, e_max), m_active, SEQ, h_op)
    name, measured, bound = asm.kucerovsky_check(cycle)[0]
    assert name == "xi" and bound == cycle.xi_bound
    assert abs(measured - dense_commutator_bound(cycle)) <= 1e-12


@pytest.mark.parametrize("case", list(PARITY_CASES.values()), ids=list(PARITY_CASES))
def test_prefix_lift_matches_the_rest_state_scatter(case):
    n_max, e_max, m_active, h_op = case
    cycle = asm.materialize_j_cycle(fock.TruncationSpec(n_max, e_max), m_active, SEQ, h_op)
    comps = cycle.space.components
    # the former isometry: per-state Xi amplitudes in np.unique rest order
    rest = np.unique(comps[:, m_active:], axis=0, return_inverse=True)[1].ravel()
    v = np.zeros((len(comps), rest.max() + 1), dtype=complex)
    v[np.arange(len(comps)), rest] = np.prod(
        [cycle.xi_vecs[q][comps[:, q]] for q in range(m_active)], axis=0)
    xi = functools.reduce(np.kron, cycle.xi_vecs)
    assert np.array_equal(cycle.lift(xi).to_dense(), v)
    assert np.array_equal(cycle.isometry.to_dense(), v)
    assert np.array_equal(cycle.rest.components, np.unique(comps[:, m_active:], axis=0))
    small = dirac.TripleSpace(cycle.space.factors[m_active:], e_max=e_max)
    rng = np.random.default_rng(9)
    for k in [xi] + [rng.standard_normal(len(xi)) + 1j * rng.standard_normal(len(xi))
                     for _ in range(2)]:
        # T^H by the former scatter: rest states looked up in `small`
        assert np.array_equal(cycle.lift(k).to_dense(),
                              dense_t_map(cycle, small, k).conj().T)


def test_kucerovsky_refuses_a_compressed_space_off_the_rest_states():
    # a compressed space at a lower energy cut misses some rest states
    cycle = small_cycle()
    lower = dataclasses.replace(cycle, spec=fock.TruncationSpec(2, 2))
    with pytest.raises(ValueError, match="rest states"):
        asm.kucerovsky_check(lower)


def test_diagnostics_form_no_dim_by_dim_array(monkeypatch):
    # the rest-space routes densify nothing larger than an n_rest x n_rest
    # Gram, and none recomputes Xi on the mode bases
    cycle = small_cycle()
    largest = cycle.rest.dim ** 2
    assert cycle.space.dim * cycle.rest.dim > largest

    def guarded(route):
        def call(op, *args):
            if op.domain.dim * op.codomain.dim > largest:
                raise AssertionError(f"dense view of {op!r} above n_rest x n_rest")
            return route(op, *args)
        return call

    monkeypatch.setattr(SparseOperator, "to_dense", guarded(SparseOperator.to_dense))
    xi_cuts = []
    xi_coeffs = ls.xi_coeffs
    monkeypatch.setattr(ls, "xi_coeffs", lambda sigma, h_max=None:
                        xi_cuts.append(h_max) or xi_coeffs(sigma, h_max))
    asm.resolvent_compactness(cycle)
    asm.kucerovsky_check(cycle)
    assert cycle.h_op not in xi_cuts


def test_diagnostics_reach_without_dense_arrays():
    # (3,6), two active modes, h_op = 4: dim 15975, where one dense complex
    # dim x dim matrix is 4 GB
    cycle = asm.materialize_j_cycle(fock.TruncationSpec(3, 6), 2, SEQ, h_op=4)
    assert cycle.space.dim == 15975
    reports, peaks = {}, {}
    start = time.perf_counter()
    for route in (asm.resolvent_compactness, asm.kucerovsky_check):
        reports[route], peaks[route] = traced_peak(route, cycle)
    elapsed = time.perf_counter() - start
    assert elapsed < REACH_SECONDS
    assert max(peaks.values()) < REACH_PEAK_BYTES
    assert peaks[asm.kucerovsky_check] < KUCEROVSKY_REACH_PEAK_BYTES
    comp, kuc = reports.values()
    by_name = {name: (measured, bound) for name, measured, bound in kuc}
    assert 0 < by_name["xi"][0] <= by_name["xi"][1] + 1e-10
    assert all(measured <= bound + 1e-8 for measured, bound in by_name.values())
    assert comp.mirror_residual <= 1e-10


def test_materialized_dimension_is_counted_before_the_build(monkeypatch):
    cap = asm.MAX_JCYCLE_DIM
    for n_max, e_max, m_active, h_op in PARITY_CASES.values():
        spec = fock.TruncationSpec(n_max, e_max)
        monkeypatch.setattr(asm, "MAX_JCYCLE_DIM", cap)
        dim = asm.materialize_j_cycle(spec, m_active, SEQ, h_op).space.dim
        monkeypatch.setattr(asm, "MAX_JCYCLE_DIM", dim)
        asm.materialize_j_cycle(spec, m_active, SEQ, h_op)
        monkeypatch.setattr(asm, "MAX_JCYCLE_DIM", dim - 1)
        with pytest.raises(ValueError, match=f"dimension {dim} exceeds the cap"):
            asm.materialize_j_cycle(spec, m_active, SEQ, h_op)


def test_materialized_dimension_cap_refuses_before_allocating():
    # the smallest h_op above the cap at (2,3), one active mode: 13 rest
    # states times (h + 1)(h + 2)/2 prefix states
    spec = fock.TruncationSpec(2, 3)
    h_op = next(h for h in range(1000) if 13 * (h + 1) * (h + 2) // 2 > asm.MAX_JCYCLE_DIM)
    assert 13 * h_op * (h_op + 1) // 2 <= asm.MAX_JCYCLE_DIM

    def refused():
        with pytest.raises(ValueError, match="exceeds the cap"):
            asm.materialize_j_cycle(spec, 1, SEQ, h_op)

    _, peak = traced_peak(refused)
    assert peak < 1e6


# ---------------------------------------------------------------- mishchenko

def test_mishchenko_finite_group_analogue():
    # constant cut-off on a finite group maps to the rank-one projection
    # onto the constant unit vector
    grp = tg.FiniteAbelianGroup((3,))
    cut = tg.mishchenko(grp, np.full(3, 1.0 / 3.0))
    mat = tg.schatten_map(cut).to_dense()
    v = np.full(3, 1.0 / np.sqrt(3.0))
    assert np.max(np.abs(mat - np.outer(v, v))) < 1e-13


# ---------------------------------------------------------------- assemble

def test_assemble_equals_mirror_dirac_entrywise():
    cycle = asm.materialize_j_cycle(fock.TruncationSpec(3, 6), 2, SEQ, h_op=3)
    compressed = asm.assemble(cycle)
    dl, _ = dirac.build_dirac_L(cycle.spec, space=cycle.rest)
    assert compressed.domain == compressed.codomain == dl.domain
    assert (compressed - dl).max_abs() <= 1e-10


def test_assemble_compressed_dimension():
    # rank-one compression: module = fermion x dual rest states at the same cut
    cycle = small_cycle()
    compressed = asm.assemble(cycle)
    _, space = dirac.build_dirac_L(cycle.spec, space=cycle.rest)
    assert compressed.domain.dim == space.dim == cycle.rest.dim
    assert cycle.space.dim == cycle.rest.dim * len(cycle.xi_vecs[0])


def test_assemble_is_the_dense_compression_by_xi():
    # V^H op V in Gram-orthonormal coordinates, V^H the dense T map of Xi
    cycle = small_cycle()
    t_map = dense_t_map(cycle, cycle.rest, cycle.xi_vecs[0])
    want = t_map @ orthonormal_dense(cycle.operator) @ t_map.conj().T
    got = orthonormal_dense(asm.assemble(cycle))
    assert np.max(np.abs(got - want)) <= 1e-14
    dl = orthonormal_dense(dirac.build_dirac_L(cycle.spec, space=cycle.rest)[0])
    assert np.max(np.abs(got - dl)) <= 1e-14


def test_jcycle_diag_fails_on_a_compression_off_xi(monkeypatch):
    # a random unit prefix vector keeps V an isometry but not rotation
    # invariant, so the compressed free part survives
    def compression_row():
        rep = EXPERIMENTS["jcycle_diag"](Config(), Lcg(Config().seed))
        [row] = [row for row in rep.rows if row.quantity == "compression by Xi = mirror dirac"]
        return row

    assert compression_row().measured <= 1e-15
    cycle = small_cycle()
    k_vec = Lcg(3).complex_vector(len(cycle.xi_vecs[0]))
    off_xi = dataclasses.replace(cycle, xi_vecs=[k_vec / np.linalg.norm(k_vec)])
    monkeypatch.setattr(asm, "materialize_j_cycle", lambda *args, **kwargs: off_xi)
    row = compression_row()
    assert row.headroom > 1.0 and row.measured > 0.1


# ---------------------------------------------------------------- finite model
# Two oracles of the factored route: the n^2 x n^2 Kronecker matrices at
# orders <= 25, and the matrix-free column sweep, which pushes every
# isometry column through the operator and the compressor as n x n arrays.

def column_conv(group, tau, seed=11):
    """Left convolution by the model's seeded self-adjoint ``h``, one
    ``convolve`` per unit vector."""
    n = group.order
    ext = tg.TwistedExtension(tau)
    u = tg.GroupAlgebraElement(ext, Lcg(seed).complex_vector(n), 1)
    h = u.add(u.involution())
    return np.column_stack([
        tg.convolve(h, tg.GroupAlgebraElement(ext, e_j, 1)).values for e_j in np.eye(n)])


def kron_finite_assembly(group, tau, seed=11):
    """Finite model with the operator, the compressor and the isometry as
    dense n^2 x n^2 (and n^2 x n) matrices; returns the report and the
    operator and compressor matrices."""
    n = group.order
    conv = column_conv(group, tau, seed)
    p_cut = regular_representation(tg.mishchenko(group, np.full(n, 1.0 / n)))
    d_op = np.eye(n) - p_cut

    big = np.kron(d_op, np.eye(n)) + np.kron(np.eye(n), conv)
    compressor = np.kron(p_cut, np.eye(n))
    compressed = compressor @ big @ compressor
    compressed_cross = float(np.linalg.norm(
        compressor @ np.kron(d_op, np.eye(n)) @ compressor, 2))
    sqrt_c = np.full(n, 1.0 / np.sqrt(n))
    iso = np.kron(sqrt_c[:, None], np.eye(n))
    comp_small = iso.conj().T @ compressed @ iso
    s_comp = np.linalg.eigvalsh(0.5 * (comp_small + comp_small.conj().T))
    s_direct = np.linalg.eigvalsh(0.5 * (conv + conv.conj().T))
    report = asm.FiniteAssemblyReport(s_comp, s_direct,
                                      float(np.max(np.abs(s_comp - s_direct))),
                                      compressed_cross)
    return report, big, compressor


def finite_apply(p_cut, d_op, conv, x):
    """``C (D (x) id) C`` and ``C (D (x) id + id (x) L_h) C`` with
    ``C = p_cut (x) id`` on a stack ``x`` of n x n arrays.

    A vector of ``l2(G) (x) l2(G)`` is the n x n array of its row-major
    coordinates, so ``(A (x) B) vec(X) = vec(A X B^T)``: the first leg is
    acted on from the left, the second from the right.
    """
    px = p_cut @ x
    cross = p_cut @ (d_op @ px)
    return cross, cross + p_cut @ (px @ conv.T)


def column_sweep(group, tau, seed=11):
    """Compressed spectrum and cross-term norm read off every isometry
    column ``sqrt(c) (x) e_j`` pushed through :func:`finite_apply`, all
    ``n`` columns as one stack (n^3 entries: 4 MB at order 64)."""
    _, conv, p_cut, d_op, sqrt_c = asm._finite_model(group, tau, seed)
    n = group.order
    x = np.zeros((n, n, n), dtype=complex)
    x[np.arange(n), :, np.arange(n)] = sqrt_c
    cross, full = finite_apply(p_cut, d_op, conv, x)
    # iso^H Y = sqrt(c)^H Y: contract the first leg against sqrt(c)
    cross_small = (sqrt_c.conj() @ cross).T
    comp_small = (sqrt_c.conj() @ full).T
    return (np.linalg.eigvalsh(0.5 * (comp_small + comp_small.conj().T)),
            float(np.linalg.norm(cross_small, 2)))


def finite_cases():
    cases = {}
    for k in (3, 5):
        grp = tg.FiniteAbelianGroup((k,))
        cases[f"{grp!r}/trivial"] = (grp, tg.trivial_cocycle(grp, k))
    for k in (2, 3, 4, 5):
        grp = tg.FiniteAbelianGroup((k, k))
        cases[f"{grp!r}/heisenberg"] = (grp, tg.heisenberg_cocycle(grp))
    return cases


FINITE_CASES = finite_cases()


def heisenberg(*moduli):
    grp = tg.FiniteAbelianGroup(moduli)
    return grp, tg.heisenberg_cocycle(grp)


def random_stack(rng, k, n):
    return rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))


def vec_stack(x):
    """Row-major coordinates of each n x n array as a column."""
    return x.reshape(len(x), -1).T


def test_finite_group_assembly_spectra_match():
    # the factored route against the Kronecker oracle at every order <= 25
    for grp, tau in FINITE_CASES.values():
        report = asm.finite_group_assembly(grp, tau)
        oracle, _, _ = kron_finite_assembly(grp, tau)
        assert np.max(np.abs(report.compressed_spectrum
                             - oracle.compressed_spectrum)) <= 1e-12
        assert np.max(np.abs(report.direct_spectrum - oracle.direct_spectrum)) <= 1e-12
        assert report.compressed_cross <= 1e-12 and oracle.compressed_cross <= 1e-12
        assert report.deviation <= 1e-12


@pytest.mark.parametrize("case", sorted(FINITE_CASES) + ["Z4xZ2", "Z6xZ3", "Z8xZ8"])
def test_finite_group_assembly_matches_the_column_sweep(case):
    if case in FINITE_CASES:
        grp, tau = FINITE_CASES[case]
    else:
        grp, tau = heisenberg(*(int(k) for k in case[1:].split("xZ")))
    report = asm.finite_group_assembly(grp, tau)
    spectrum, cross = column_sweep(grp, tau)
    assert np.max(np.abs(report.compressed_spectrum - spectrum)) <= 1e-12
    assert abs(report.compressed_cross - cross) <= 1e-12


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_finite_model_application_matches_kron_matrices(case):
    # generic arrays, not the iso columns: on those the operator part is
    # killed by either compressor alone, so only generic inputs show it
    grp, tau = FINITE_CASES[case]
    n = grp.order
    _, conv, p_cut, d_op, _ = asm._finite_model(grp, tau, 11)
    assert np.max(np.abs(conv - column_conv(grp, tau, 11))) <= 1e-14
    _, big, compressor = kron_finite_assembly(grp, tau)
    x = random_stack(np.random.default_rng(n), 3, n)
    _, uncompressed = finite_apply(np.eye(n), d_op, conv, x)
    assert np.max(np.abs(vec_stack(uncompressed) - big @ vec_stack(x))) <= 1e-12
    cross, full = finite_apply(p_cut, d_op, conv, x)
    want = compressor @ big @ compressor @ vec_stack(x)
    assert np.max(np.abs(vec_stack(full) - want)) <= 1e-12
    assert np.max(np.abs(vec_stack(cross))) <= 1e-12


def test_finite_apply_matches_kron_on_generic_matrices():
    # neither a projection nor its complement: every factor and both
    # compressors show in the result
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        p, d, conv = random_stack(rng, 3, n)
        x = random_stack(rng, 4, n)
        cross, full = finite_apply(p, d, conv, x)
        comp = np.kron(p, np.eye(n))
        d_big = np.kron(d, np.eye(n))
        want_cross = comp @ d_big @ comp @ vec_stack(x)
        want_full = comp @ (d_big + np.kron(np.eye(n), conv)) @ comp @ vec_stack(x)
        assert np.max(np.abs(vec_stack(cross) - want_cross)) <= 1e-12
        assert np.max(np.abs(vec_stack(full) - want_full)) <= 1e-12


def test_finite_group_assembly_refuses_a_cut_off_that_is_not_rank_one(monkeypatch):
    model = asm._finite_model

    def perturbed(group, tau, seed):
        h, conv, p_cut, d_op, sqrt_c = model(group, tau, seed)
        p_cut = p_cut.copy()
        p_cut[0, 0] += 1e-12
        return h, conv, p_cut, d_op, sqrt_c

    monkeypatch.setattr(asm, "_finite_model", perturbed)
    grp = tg.FiniteAbelianGroup((3,))
    with pytest.raises(ValueError, match="rank-one"):
        asm.finite_group_assembly(grp, tg.trivial_cocycle(grp, 3))


def test_finite_group_assembly_reports_a_d_that_misses_the_cut_off(monkeypatch):
    # with D = id in place of 1 - p_cut the compression no longer kills the
    # first part: the cross term is |p_cut| = 1 and every compressed
    # eigenvalue moves up by one, so both checks see the D they are given
    model = asm._finite_model

    def identity_d(group, tau, seed):
        h, conv, p_cut, d_op, sqrt_c = model(group, tau, seed)
        return h, conv, p_cut, np.eye(group.order), sqrt_c

    monkeypatch.setattr(asm, "_finite_model", identity_d)
    grp = tg.FiniteAbelianGroup((3, 3))
    report = asm.finite_group_assembly(grp, tg.heisenberg_cocycle(grp))
    assert abs(report.compressed_cross - 1.0) <= 1e-12
    assert np.max(np.abs(report.compressed_spectrum - report.direct_spectrum - 1.0)) <= 1e-12


@pytest.mark.parametrize("moduli, tau_fn", [
    ((3,), lambda g: tg.trivial_cocycle(g, 3)),
    ((3, 3), tg.heisenberg_cocycle)], ids=["Z3", "Z3xZ3"])
def test_finite_group_assembly_sees_a_convolution_that_misses_h(monkeypatch, moduli,
                                                                tau_fn):
    # the direct spectrum is read from h alone: a Hermitian 1e-6 change to
    # conv moves only the compressed side, and the deviation shows it
    model = asm._finite_model

    def perturbed(group, tau, seed):
        h, conv, p_cut, d_op, sqrt_c = model(group, tau, seed)
        conv = conv.copy()
        conv[0, 1] += 1e-6
        conv[1, 0] += 1e-6
        return h, conv, p_cut, d_op, sqrt_c

    monkeypatch.setattr(asm, "_finite_model", perturbed)
    grp = tg.FiniteAbelianGroup(moduli)
    assert asm.finite_group_assembly(grp, tau_fn(grp)).deviation >= 1e-7


@pytest.mark.parametrize("moduli", [(9,), (2,)], ids=["Z9", "Z2"])
def test_finite_group_assembly_refuses_a_cocycle_on_another_group(moduli):
    tau = tg.heisenberg_cocycle(tg.FiniteAbelianGroup((3, 3)))
    with pytest.raises(ValueError, match=rf"Z3xZ3.*Z{moduli[0]}\b"):
        asm.finite_group_assembly(tg.FiniteAbelianGroup(moduli), tau)


@pytest.mark.parametrize("case", ["transposed", "root-order", "cyclic"])
def test_finite_group_assembly_refuses_a_cocycle_without_closed_form_irreps(
        monkeypatch, case):
    # valid cocycles outside the two families: the transposed Heisenberg
    # table, the pairing written with roots of twice the order, and a
    # nontrivial table on a cyclic group; refused before the model is built
    grp = tg.FiniteAbelianGroup((3,) if case == "cyclic" else (4, 2))
    if case == "cyclic":
        exponents = np.outer(grp.coords[:, 0], grp.coords[:, 0])
        tau = tg.Cocycle(grp, exponents, 3)
    else:
        pairing = np.outer(grp.coords[:, 1], grp.coords[:, 0])
        tau = (tg.Cocycle(grp, pairing.T, 2) if case == "transposed"
               else tg.Cocycle(grp, 2 * pairing, 4))
    assert tg.check_cocycle(tau) == []

    def never(*args):
        raise AssertionError("the model was built")

    monkeypatch.setattr(asm, "_finite_model", never)
    with pytest.raises(ValueError, match="trivial cocycle.*Heisenberg pairing"):
        asm.finite_group_assembly(grp, tau)


def test_finite_group_assembly_reach_without_kron_matrices():
    # Heisenberg Z16xZ16 and Z32xZ32: one 65536 x 65536 complex matrix would
    # be about 69 GB; the factored route stays under 20 MB and 200 MB traced
    for k, bound in ((16, 20e6), (32, 200e6)):
        grp = tg.FiniteAbelianGroup((k, k))
        report, peak = traced_peak(
            lambda: asm.finite_group_assembly(grp, tg.heisenberg_cocycle(grp)))
        assert peak < bound
        assert report.deviation <= 1e-8
        assert report.compressed_cross <= 1e-12


# ---------------------------------------------------------------- irreps

IRREP_CASES = {"Z3/trivial": ((3,), lambda g: tg.trivial_cocycle(g, 3)),
               "Z2xZ3/trivial": ((2, 3), lambda g: tg.trivial_cocycle(g, 2)),
               **{f"Z{a}xZ{b}": ((a, b), tg.heisenberg_cocycle)
                  for a, b in ((2, 2), (3, 3), (4, 2), (6, 3))}}


@pytest.mark.parametrize("case", sorted(IRREP_CASES))
def test_projective_irreps_carry_the_inverse_cocycle(case):
    # pi_t(g) pi_t(k) = omega^(-K[g, k]) pi_t(g + k), with the group law and
    # the exponents from the tuple law
    moduli, tau_fn = IRREP_CASES[case]
    grp = tg.FiniteAbelianGroup(moduli)
    tau = tau_fn(grp)
    irreps = tg.ProjectiveIrreps(tau)
    images = irreps.image(np.eye(grp.order))  # [g, t, r, s]
    assert images.shape == (grp.order, irreps.count, irreps.dim, irreps.dim)
    for gi, g in enumerate(grp.elements):
        for ki, k in enumerate(grp.elements):
            want = (tau.root() ** -law.exponent(tau, g, k)
                    * images[law.index(grp, law.add(grp, g, k))])
            assert np.max(np.abs(images[gi] @ images[ki] - want)) <= 1e-13
    # and they are unitary, so pi_t(h) is Hermitian for self-adjoint h
    eye = np.eye(irreps.dim)
    assert np.max(np.abs(images @ images.conj().swapaxes(-1, -2) - eye)) <= 1e-13


@pytest.mark.parametrize("moduli, blocks", [
    ((4, 2), [2, 2]), ((6, 3), [3, 3]), ((6, 2), [2, 2, 2]), ((4, 4), [4]), ((2, 2), [2])])
def test_projective_irreps_count_the_simple_blocks(moduli, blocks):
    grp, tau = heisenberg(*moduli)
    irreps = tg.ProjectiveIrreps(tau)
    assert [irreps.dim] * irreps.count == tg.decompose_twisted_algebra(grp, tau) == blocks
    trivial = tg.trivial_cocycle(grp, 3)
    irreps = tg.ProjectiveIrreps(trivial)
    assert [irreps.dim] * irreps.count == tg.decompose_twisted_algebra(grp, trivial)


def irrep_spectrum_cases():
    """Every Heisenberg group ``Z_n1 x Z_n2`` (``n2 | n1``, ``n2 >= 2``) of
    order <= 64, and the trivial cocycle on the cyclic group of every order
    <= 64 and on a two-factor group of every composite order <= 64."""
    for order in range(1, 65):
        for n2 in range(2, 9):
            if order % (n2 * n2) == 0:
                yield heisenberg(order // n2, n2)
        yield tg.FiniteAbelianGroup((order,)), None
        factor = next((d for d in range(2, order) if order % d == 0), None)
        if factor:
            yield tg.FiniteAbelianGroup((factor, order // factor)), None


def test_direct_spectrum_matches_the_convolution_at_every_order_to_64():
    cases = 0
    for grp, tau in irrep_spectrum_cases():
        tau = tau or tg.trivial_cocycle(grp, 3)
        report = asm.finite_group_assembly(grp, tau)
        _, conv, _, _, _ = asm._finite_model(grp, tau, 11)
        want = np.linalg.eigvalsh(0.5 * (conv + conv.conj().T))
        assert np.max(np.abs(report.direct_spectrum - want)) <= 1e-12, grp
        cases += 1
    # 32 Heisenberg groups, 64 cyclic and 45 composite orders
    assert cases == 32 + 64 + 45


# ---------------------------------------------------------------- modules

def full_cycles(spec):
    return (asm.analytic_index(spec, full_product=True),
            asm.mu_index(spec, full_product=True))


def to_tensor(space, vec):
    """Coordinates scattered into a factor-shaped tensor, zero on the
    product states the truncation drops."""
    out = np.zeros(space.shape, dtype=complex)
    out[tuple(space.components.T)] = vec
    return out


def dense_right_action(cycle, vec, b):
    """Oracle of ``right_action`` on dense factor-shaped tensors."""
    f = to_tensor(cycle.space, np.asarray(vec, dtype=complex))
    if cycle.kind == "analytic":
        # boson ket leg is axis 0
        out = np.tensordot(gram_transpose(b, cycle.dual.gram), f, axes=(1, 0))
    else:
        # boson column leg is axis 2
        g = cycle.boson.gram
        out = np.tensordot(f * g, b, axes=(2, 0)) / g
    return out[tuple(cycle.space.components.T)]


def dense_module_inner(cycle, v1, v2):
    """Oracle of ``module_inner``: one fermion slice of dense tensors at a
    time."""
    nd, nf = cycle.dual.dim, cycle.fermion.dim
    gb, gd, gf = cycle.boson.gram, cycle.dual.gram, cycle.fermion.gram
    # coordinate tensors with axes (boson, dual, fermion)
    legs = cycle.leg_positions()
    f1 = to_tensor(cycle.space, v1).transpose(legs)
    f2 = to_tensor(cycle.space, v2).transpose(legs)
    out = np.zeros((nd, nd), dtype=complex)
    for s in range(nf):
        if cycle.kind == "analytic":
            m1 = f1[:, :, s] * gd[None, :]
            m2 = f2[:, :, s] * gd[None, :]
            m1star = np.conj(m1.T) * (gb[None, :] / gb[:, None])
            out += gram_transpose(m2 @ m1star, gb) * gf[s]
        else:
            m1 = f1[:, :, s].T * gb[None, :]
            m2 = f2[:, :, s].T * gb[None, :]
            m1star = np.conj(m1.T) * (gd[None, :] / gd[:, None])
            out += (m1star @ m2) * gf[s]
    return out


# truncations of dim <= 800, the index comparison's (2,4), (3,6) and (3,8)
# among them, and full products of that size
MODULE_CASES = ([(n, e, False) for n, e in ((2, 3), (2, 4), (3, 4), (3, 6), (3, 8))]
                + [(n, e, True) for n, e in ((2, 2), (2, 3), (2, 4), (3, 3))])


@pytest.mark.parametrize("kind", ["analytic", "mu"])
@pytest.mark.parametrize("n_max,e_max,full", MODULE_CASES)
def test_graded_module_algebra_matches_dense_tensors(kind, n_max, e_max, full):
    spec = fock.TruncationSpec(n_max, e_max)
    build = asm.analytic_index if kind == "analytic" else asm.mu_index
    cycle = build(spec, full_product=full)
    dim, nd = cycle.space.dim, cycle.dual.dim
    assert dim <= 800
    # the blocks hold every kept state once, at most e_max + 1 of them
    states = np.concatenate([blk[3].ravel() for blk in cycle.blocks])
    assert np.array_equal(np.sort(states), np.arange(dim))
    assert len(cycle.blocks) <= (3 * e_max if full else e_max) + 1
    rng = np.random.default_rng(n_max * 100 + e_max)
    for _ in range(2):
        f1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        f2 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        b = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
        for got, want in ((asm.right_action(cycle, f1, b), dense_right_action(cycle, f1, b)),
                          (asm.module_inner(cycle, f1, f2), dense_module_inner(cycle, f1, f2))):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)


def test_analytic_inner_product_positive():
    spec = fock.TruncationSpec(2, 3)
    cycle = asm.analytic_index(spec, full_product=True)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(cycle.space.dim) + 1j * rng.standard_normal(cycle.space.dim)
        gram_mat = asm.module_inner(cycle, f, f)
        # positive as an operator matrix on the dual basis: symmetrize in
        # gram-orthonormal coordinates
        g = np.sqrt(cycle.dual.gram)
        sym = gram_mat * g[:, None] / g[None, :]
        vals = np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
        assert vals[0] > -1e-10 * max(vals[-1], 1.0)


def test_analytic_action_associative():
    spec = fock.TruncationSpec(2, 3)
    cycle = asm.analytic_index(spec, full_product=True)
    rng = np.random.default_rng(1)
    nd = cycle.dual.dim
    f = rng.standard_normal(cycle.space.dim) + 1j * rng.standard_normal(cycle.space.dim)
    b1 = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    b2 = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    lhs = asm.right_action(cycle, asm.right_action(cycle, f, b1), b2)
    # algebra product: composition of dual-coordinate matrices
    rhs = asm.right_action(cycle, f, b1 @ b2)
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12
    # dense transpose oracle: t(b2) t(b1) = t(b1 b2)
    gd = cycle.dual.gram
    assert np.max(np.abs(gram_transpose(b1 @ b2, gd)
                         - gram_transpose(b2, gd) @ gram_transpose(b1, gd))) < 1e-10


def test_inner_product_compatible_with_action():
    spec = fock.TruncationSpec(2, 3)
    cycle = asm.analytic_index(spec, full_product=True)
    rng = np.random.default_rng(2)
    nd = cycle.dual.dim
    f1 = rng.standard_normal(cycle.space.dim) + 1j * rng.standard_normal(cycle.space.dim)
    f2 = rng.standard_normal(cycle.space.dim) + 1j * rng.standard_normal(cycle.space.dim)
    b = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    lhs = asm.module_inner(cycle, f1, asm.right_action(cycle, f2, b))
    rhs = asm.module_inner(cycle, f1, f2) @ b
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_analytic_kernel_carries_vacuum_column():
    spec = fock.TruncationSpec(3, 4)
    cycle = asm.analytic_index(spec)
    vecs = dense_kernel(dirac.kernel(cycle.operator), cycle.space.dim)
    # built apart from the memoized pair the cycle carries
    space = dirac.TripleSpace(dirac.spec_bases(spec), spec.e_max)
    dR, _ = dirac.build_dirac_R(spec, space=space)
    assert len(vecs) == len(dense_kernel(dirac.kernel(dR), space.dim)) == 11


def test_operator_commutes_with_action():
    spec = fock.TruncationSpec(2, 4)
    cycle = asm.analytic_index(spec, full_product=True)
    rng = np.random.default_rng(3)
    nd = cycle.dual.dim
    f = rng.standard_normal(cycle.space.dim) + 1j * rng.standard_normal(cycle.space.dim)
    b = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    dense = cycle.operator.to_dense()
    lhs = dense @ asm.right_action(cycle, f, b)
    rhs = asm.right_action(cycle, dense @ f, b)
    scale = max(np.max(np.abs(rhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


# ---------------------------------------------------------------- compare

@pytest.mark.parametrize("n_max,e_max", [(2, 4), (3, 6)])
def test_compare_indices_truncated(n_max, e_max):
    spec = fock.TruncationSpec(n_max, e_max)
    report = asm.compare_indices(asm.analytic_index(spec), asm.mu_index(spec))
    assert report.spectra_deviation <= 1e-10
    assert report.intertwine_deviation <= 1e-10
    assert report.action_deviation <= 1e-12
    assert report.inner_deviation <= 1e-12
    assert report.bounded_spectra_deviation <= 1e-10
    assert all(value <= tol for _, value, tol in report.rows)


def test_compare_indices_full_product():
    spec = fock.TruncationSpec(2, 3)
    report = asm.compare_indices(*(c for c in (
        asm.analytic_index(spec, full_product=True),
        asm.mu_index(spec, full_product=True))))
    assert all(value <= tol for _, value, tol in report.rows)


def test_compare_indices_reach_without_dense_arrays():
    # (6,14) has dim 25752 over 388 x 388 x 50 factor states: one dense
    # factor-shaped complex tensor is 120 MB, so a traced peak below that
    # shows the module trials work on the energy blocks only
    spec = fock.TruncationSpec(6, 14)
    tensor_bytes = 16 * 388 * 388 * 50

    def compare():
        analytic, mu = asm.analytic_index(spec), asm.mu_index(spec)
        return analytic, mu, asm.compare_indices(analytic, mu)

    dirac.build_dirac_R.cache_clear()  # the peak and time cover both builds
    start = time.perf_counter()
    (analytic, mu, report), peak = traced_peak(compare)
    seconds = time.perf_counter() - start
    assert analytic.space.dim == 25752
    assert analytic.space.shape == (388, 388, 50)
    assert seconds < COMPARE_REACH_SECONDS
    assert peak < tensor_bytes
    assert all(value <= tol for _, value, tol in report.rows)


def test_compare_indices_eigensolves_each_cycle_operator_once(monkeypatch):
    # one decomposition per cycle feeds both spectral rows: the blocks of
    # each cycle operator are formed once, and never those of a transform
    spec = fock.TruncationSpec(2, 4)
    analytic, mu = asm.analytic_index(spec), asm.mu_index(spec)
    seen, blocks = [], opcore._hermitian_blocks

    def counting(a):
        seen.append(a)
        return blocks(a)

    monkeypatch.setattr(opcore, "_hermitian_blocks", counting)
    report = asm.compare_indices(analytic, mu)
    assert len(seen) == 2
    assert seen[0] is analytic.operator and seen[1] is mu.operator
    assert all(value <= tol for _, value, tol in report.rows)


def test_only_the_analytic_cycle_on_the_cut_reads_the_dirac_R_memo():
    spec = fock.TruncationSpec(2, 4)
    shared = dirac.build_dirac_R(spec)[0]
    assert asm.analytic_index(spec).operator is shared
    space = dirac.TripleSpace(dirac.spec_bases(spec), spec.e_max)
    fresh = [lambda: asm.analytic_index(spec, full_product=True).operator,
             lambda: dirac.build_dirac_R(spec, space=space)[0],
             lambda: asm.mu_index(spec).operator]
    for build in fresh:
        op = build()
        assert op is not shared and build() is not op
        assert not np.shares_memory(op.vals, shared.vals)


def test_index_compare_never_hands_one_operator_to_both_sides(monkeypatch):
    seen = []

    def recording(analytic, mu, seed=7):
        seen.append((analytic.operator, mu.operator))
        return compare(analytic, mu, seed)

    compare = asm.compare_indices
    monkeypatch.setattr(asm, "compare_indices", recording)
    EXPERIMENTS["index_compare"](Config(), Lcg(Config().seed))
    assert len(seen) == 4
    for a, m in seen:
        assert a is not m
        assert not any(np.shares_memory(x, y) for x in (a.rows, a.cols, a.vals)
                       for y in (m.rows, m.cols, m.vals))


def test_flip_maps_vacuum_column():
    spec = fock.TruncationSpec(2, 3)
    a = asm.analytic_index(spec)
    m = asm.mu_index(spec)
    perm = asm._flip_permutation(a, m)
    vac = (0, 0)
    i = a.space.basis.labels.index(product_label(a.space, vac, vac, vac))
    assert factor_labels(m.space, perm[i]) == (vac, vac, vac)
    # a nontrivial label flips boson and fermion legs
    j = a.space.basis.labels.index(product_label(a.space, (1, 0), (0, 0), (0, 1)))
    assert factor_labels(m.space, perm[j]) == ((0, 1), (0, 0), (1, 0))


def test_compare_rejects_mismatched_truncations():
    a = asm.analytic_index(fock.TruncationSpec(2, 3))
    m = asm.mu_index(fock.TruncationSpec(2, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        asm.compare_indices(a, m)


# ---------------------------------------------------------------- bounds

def test_commutator_bound_holds():
    name, measured, bound = asm.kucerovsky_check(small_cycle())[0]
    assert name == "xi" and 0 < measured <= bound + 1e-10
    rep = EXPERIMENTS["jcycle_diag"](Config(), Lcg(Config().seed))
    prefix = "ideal (untruncated) commutator bound "
    ideal = [float(note[len(prefix):]) for note in rep.notes if note.startswith(prefix)]
    assert len(ideal) == 1 and ideal[0] > 0


def test_commutator_zero_smearing():
    cycle = small_cycle()
    op = cycle.operator.to_dense()
    zero = np.zeros_like(op)
    assert np.linalg.norm(op @ zero - zero @ op, 2) == 0.0


def test_mirror_part_squares_to_twice_the_rest_energy():
    # l_part^2 = 2 (N_f + E_dual), so the mirror resolvent is 1/(1 + shell)
    cycle = small_cycle()
    report = asm.resolvent_compactness(cycle)
    assert report.mirror_residual <= 1e-12


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_jcycle_diag_fails_on_scaled_mirror_legs(monkeypatch, factor):
    # scaled legs square to factor^2 * 2 (N_f + E_dual): the identity row
    # sees either direction, where a resolvent bound only sees the shrink
    legs = dirac.dual_legs

    def scaled(space, dual_pos, n_max):
        return [(pos, up.scale(factor), down.scale(factor))
                for pos, up, down in legs(space, dual_pos, n_max)]

    monkeypatch.setattr(dirac, "dual_legs", scaled)
    rep = EXPERIMENTS["jcycle_diag"](Config(), Lcg(Config().seed))
    assert not rep.ok
    assert rep.worst().startswith("mirror part squared = 2(N_f + E_dual) [materialized]")


def test_kucerovsky_margins():
    cycle = small_cycle()
    by_name = {name: (measured, bound)
               for (name, measured, bound) in asm.kucerovsky_check(cycle)}
    measured, bound = by_name["xi"]
    assert measured <= bound + 1e-10
    for name, (measured, bound) in by_name.items():
        if name.startswith("random"):
            assert measured <= bound + 1e-10


# ---------------------------------------------------------------- levels

def test_level_vanishing_pattern():
    grp = tg.FiniteAbelianGroup((3,))
    tau = tg.trivial_cocycle(grp, 3)
    rows = asm.level_vanishing_pattern(grp, tau)
    assert len(rows) == 3
    for level, value, character in rows:
        if level == 1:
            assert value > 1e-3 and character == pytest.approx(1.0)
        else:
            assert value < 1e-13 and character < 1e-13


def test_level_vanishing_heisenberg():
    grp = tg.FiniteAbelianGroup((2, 2))
    rows = asm.level_vanishing_pattern(grp, tg.heisenberg_cocycle(grp))
    survivors = [level for level, value, _ in rows if value > 1e-10]
    assert survivors == [1]


def brute_level_pattern(group, tau, seed=3):
    """Loop oracle: the pairing summed over every ``(h, i)`` of the
    extension through the tuple law, with the same random legs."""
    ext = tg.TwistedExtension(tau)
    n, m = group.order, ext.m
    omega = tau.root()
    cut = tg.mishchenko(group, np.full(n, 1.0 / n))
    rng = Lcg(seed)
    rows = []
    for level in range(m):
        table = rng.complex_matrix(n)
        out = np.zeros((n, n), dtype=complex)
        for gi, g in enumerate(group.elements):
            for yi, y in enumerate(group.elements):
                for hi, hh in enumerate(group.elements):
                    for i in range(m):
                        tgt_g, jg = law.mul(ext, law.inv(ext, (hh, i)), (g, 0))
                        tgt_y, jy = law.mul(ext, law.inv(ext, (hh, i)), (y, 0))
                        out[gi, yi] += (cut.values[hi, yi]
                                        * table[law.index(group, tgt_g),
                                                law.index(group, tgt_y)]
                                        * omega ** (jg * level) * omega ** (-jy))
        rows.append((level, float(np.max(np.abs(out / m)))))
    return rows


@pytest.mark.parametrize("moduli, tau_fn", [
    ((3,), lambda g: tg.trivial_cocycle(g, 3)),
    ((2, 2), tg.heisenberg_cocycle),
    ((4, 2), tg.heisenberg_cocycle),
    ((3, 3), tg.heisenberg_cocycle)], ids=["Z3/mu3", "Z2xZ2", "Z4xZ2", "Z3xZ3"])
def test_level_vanishing_pattern_matches_loop_oracle(moduli, tau_fn):
    grp = tg.FiniteAbelianGroup(moduli)
    tau = tau_fn(grp)
    rows = asm.level_vanishing_pattern(grp, tau, seed=7)
    oracle = brute_level_pattern(grp, tau, seed=7)
    assert [r[0] for r in rows] == [r[0] for r in oracle]
    for (_, value, _), (_, expected) in zip(rows, oracle):
        assert abs(value - expected) < 1e-12 * max(1.0, expected)


def test_level_vanishing_pattern_gathers_in_bounded_chunks():
    # Heisenberg Z8xZ8 (order 64, m = 8): one gather over every column would
    # hold 64^3 complex entries, 4.2 MB; the chunks stay well below it
    grp = tg.FiniteAbelianGroup((8, 8))
    tau = tg.heisenberg_cocycle(grp)
    rows, peak = traced_peak(asm.level_vanishing_pattern, grp, tau)
    assert peak < grp.order ** 3 * 16
    assert [level for level, value, _ in rows if value > 1e-10] == [1]


@pytest.mark.parametrize("moduli", [(9,), (2,)], ids=["Z9", "Z2"])
def test_level_vanishing_pattern_refuses_a_cocycle_on_another_group(moduli):
    tau = tg.heisenberg_cocycle(tg.FiniteAbelianGroup((3, 3)))
    with pytest.raises(ValueError, match=rf"Z3xZ3.*Z{moduli[0]}\b"):
        asm.level_vanishing_pattern(tg.FiniteAbelianGroup(moduli), tau)


def test_seeded_routines_never_call_numpy_random(monkeypatch):
    # numpy does not promise stable Generator streams across versions; the
    # seeded routines draw from Lcg, so none of them reaches default_rng
    def refuse(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    spec = fock.TruncationSpec(2, 3)
    asm.compare_indices(asm.analytic_index(spec), asm.mu_index(spec))
    asm.kucerovsky_check(small_cycle())
    grp = tg.FiniteAbelianGroup((3, 3))
    tau = tg.heisenberg_cocycle(grp)
    asm.finite_group_assembly(grp, tau)
    asm.level_vanishing_pattern(grp, tau)


def test_commutator_with_identity_projector():
    # the truncation projector is the identity on the materialized space:
    # the commutator is pure boundary, zero here, trivially below |D|
    cycle = small_cycle()
    op = orthonormal_dense(cycle.operator)
    ident = np.eye(op.shape[0])
    comm_norm = np.linalg.norm(op @ ident - ident @ op, 2)
    d_norm = np.linalg.norm(orthonormal_dense(cycle.d_part), 2)
    assert comm_norm == 0.0 <= d_norm
