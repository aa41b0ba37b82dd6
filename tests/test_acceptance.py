"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with its measured margin at the stated tolerance."""

import filecmp
import itertools
import os
import time

import numpy as np

from kkindex import assembly, dirac, fock, limitspace, twistgroup
from kkindex.experiments import Config, run_experiment, EXPERIMENTS
from kkindex.opcore import Lcg, SparseOperator, graded_commutator
from m_iso_trial import m_iso_trial
from vectors import dense_kernel


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def weighted_partition_count(n_max, e_max):
    count = 0
    for tup in itertools.product(*(range(e_max + 1) for _ in range(n_max))):
        if sum((n + 1) * k for n, k in enumerate(tup)) <= e_max:
            count += 1
    return count


def test_criterion_1_weitzenbock():
    start = time.time()
    residual = dirac.weitzenbock_residual(fock.TruncationSpec(4, 10))
    elapsed = time.time() - start
    report("criterion 1 (weitzenbock identity)",
           residual <= 1e-12 and elapsed < 30.0,
           f"max residual {residual:.3e} <= 1e-12, runtime {elapsed:.1f}s < 30s")


def test_criterion_2_ccr_car():
    worst = 0.0
    for n_max, e_max in ((2, 5), (3, 7), (4, 10)):
        spec = fock.TruncationSpec(n_max, e_max)
        boson = fock.enumerate_basis(spec, "boson")
        ident = SparseOperator.identity(boson).to_dense()
        for n in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                comm = graded_commutator(fock.boson_raise(boson, n),
                                         fock.boson_lower(boson, m)).to_dense()
                target = ident if n == m else 0 * ident
                for j in fock.safe_indices(boson, max(n, m)):
                    worst = max(worst, float(np.max(np.abs(comm[:, j] - target[:, j]))))
        ferm = fock.enumerate_basis(spec, "fermion")
        identf = SparseOperator.identity(ferm)
        for n in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                anti = graded_commutator(fock.clifford(ferm, n, "holo"),
                                         fock.clifford(ferm, m, "antiholo"))
                target = identf.scale(-2.0 if n == m else 0.0)
                diff = anti - target
                for j in fock.safe_indices(ferm, max(n, m), cap=e_max):
                    col_dev = float(np.max(np.abs(diff.vals[diff.cols == j]), initial=0.0))
                    worst = max(worst, col_dev)
        total = SparseOperator.zero(boson)
        for n in range(1, n_max + 1):
            total = total + (fock.boson_raise(boson, n)
                             @ fock.boson_lower(boson, n)).scale(float(n))
        worst = max(worst, (fock.energy_op(boson) - total.scale(-1j)).max_abs())
        totf = SparseOperator.zero(ferm)
        for n in range(1, n_max + 1):
            totf = totf + (fock.clifford(ferm, n, "antiholo")
                           @ fock.clifford(ferm, n, "holo")).scale(float(n))
        worst = max(worst, (fock.number_op(ferm) + totf.scale(0.5)).max_abs())
    report("criterion 2 (CCR/CAR and sum identities)",
           worst <= 1e-12, f"worst deviation {worst:.3e} <= 1e-12")


def test_criterion_3_kernel_counts():
    ok = True
    details = []
    for n_max, e_max in ((3, 4), (2, 4), (2, 6), (3, 6)):
        spec = fock.TruncationSpec(n_max, e_max)
        dR, space = dirac.build_dirac_R(spec)
        vecs = dense_kernel(dirac.kernel(dR), space.dim)
        expected = weighted_partition_count(n_max, e_max)
        dual, ferm = space.factors[1:]
        pure = all(
            not any(dual.labels[space.components[i, 1]])
            and not any(ferm.labels[space.components[i, 2]])
            for v in vecs for i in np.flatnonzero(v))
        ok = ok and len(vecs) == expected and pure
        details.append(f"(N={n_max},E={e_max}): {len(vecs)}={expected}")
    dR, space = dirac.build_dirac_R(fock.TruncationSpec(3, 4))
    ok = ok and len(dense_kernel(dirac.kernel(dR), space.dim)) == 11
    report("criterion 3 (kernel = vacuum column count)", ok,
           "; ".join(details) + "; all kernel vectors of the form v x vacuum x 1_f")


def test_criterion_4_energy_estimate():
    spec = fock.TruncationSpec(4, 12)
    violations = []
    equality = False
    for n in range(1, 5):
        rep = dirac.per_estimate(spec, n)
        violations.extend(rep.violations)
        equality = equality or rep.equality_attained
    report("criterion 4 (energy estimate scan)",
           not violations and equality,
           f"no violations over lambda^2 <= 24, n <= 4; "
           f"equality attained on single-mode dual monomials: {equality}")


def test_criterion_5_xi_quantitative():
    ok = True
    details = []
    for sigma in (1.0, 0.5, 2.0 ** -3):
        quad, hermite, err_bound, deficiency = limitspace.dRz_norm_details(sigma)
        good = (abs(quad - sigma / 2.0) <= 1e-6
                and abs(quad - hermite) <= err_bound
                and quad <= sigma and hermite <= sigma)
        ok = ok and good
        details.append(f"sigma={sigma}: |{quad:.8f} - sigma/2| = "
                       f"{abs(quad - sigma / 2):.2e}, ladder within {err_bound:.1e}")
    seq = limitspace.SigmaSequence("pow2")
    for m in range(3, 9):
        bound = limitspace.tail_bound(m, seq)
        measured = limitspace.frozen_tail_dirac_norm(m, seq)
        ok = ok and measured <= bound
    details.append("tail bounds dominate measured frozen norms for M=3..8")
    report("criterion 5 (Xi norms and tails)", ok, "; ".join(details))


def test_criterion_6_finite_group_suite():
    ok = True
    details = []
    z2, z3, z4z2, z3z3 = map(twistgroup.FiniteAbelianGroup, ((2,), (3,), (4, 2), (3, 3)))
    cases = (twistgroup.trivial_cocycle(z2, 2), twistgroup.trivial_cocycle(z3, 3),
             twistgroup.heisenberg_cocycle(z4z2), twistgroup.heisenberg_cocycle(z3z3))
    rng = Lcg(2024)
    for tau in cases:
        grp = tau.group
        good = not twistgroup.check_cocycle(tau)
        ext = twistgroup.TwistedExtension(tau)
        f1 = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), 1)
        f0 = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), 0)
        good = good and twistgroup.convolve(f1, f0).max_abs() == 0.0
        a = twistgroup.CrossedProductElement.translation(grp, rng.complex_matrix(grp.order))
        b = twistgroup.CrossedProductElement.translation(grp, rng.complex_matrix(grp.order))
        lhs = twistgroup.schatten_map(twistgroup.crossed_convolve(a, b)).to_dense()
        rhs = twistgroup.schatten_map(a).to_dense() @ twistgroup.schatten_map(b).to_dense()
        good = good and np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(lhs)), 1.0)
        cut = twistgroup.mishchenko(grp, np.full(grp.order, 1.0 / grp.order))
        good = good and np.max(np.abs(
            twistgroup.crossed_convolve(cut, cut).values - cut.values)) <= 1e-12
        ok = ok and good
        details.append(f"{grp!r}: ok")
    blocks = twistgroup.decompose_twisted_algebra(z3z3, twistgroup.heisenberg_cocycle(z3z3))
    ok = ok and blocks == [3]
    details.append(f"Z3xZ3 heisenberg blocks = {blocks} (center dimension 1)")
    report("criterion 6 (finite group suite)", ok, "; ".join(details))


def test_criterion_7_m_iso_trials():
    grp = twistgroup.FiniteAbelianGroup((3, 3))
    ext = twistgroup.TwistedExtension(twistgroup.heisenberg_cocycle(grp))
    rng = Lcg(77)
    worst = 0.0
    for _ in range(100):
        draws = [rng.complex_vector(grp.order) for _ in range(5)]
        a = twistgroup.CrossedProductElement.translation(grp, rng.complex_matrix(grp.order))
        worst = max(worst, *m_iso_trial(ext, *draws, a))
    report("criterion 7 (m-iso bimodule identities, 100 seeded trials)",
           worst <= 1e-10, f"worst deviation {worst:.3e} <= 1e-10")


def test_criterion_8_assembly_equals_mirror():
    # the materialized cycle on three mode bases of at most 2 quanta each,
    # dim 32184, compressed by its Xi isometry
    spec = fock.TruncationSpec(3, 8)
    cycle = assembly.materialize_j_cycle(spec, 3, limitspace.SigmaSequence("pow2"), h_op=2)
    dl, _ = dirac.build_dirac_L(spec, space=cycle.rest)
    dev = (assembly.assemble(cycle) - dl).max_abs()
    fin_dev = 0.0
    z3, z3z3 = twistgroup.FiniteAbelianGroup((3,)), twistgroup.FiniteAbelianGroup((3, 3))
    for tau in (twistgroup.trivial_cocycle(z3, 3), twistgroup.heisenberg_cocycle(z3z3)):
        fin = assembly.finite_group_assembly(tau.group, tau)
        fin_dev = max(fin_dev, fin.deviation)
    report("criterion 8 (assembled cycle = mirror dirac)",
           dev <= 1e-10 and fin_dev <= 1e-8,
           f"entrywise deviation {dev:.3e} <= 1e-10 at (N=3,E=8,M=3,pow2), "
           f"dim {cycle.space.dim}; "
           f"finite-group compressed spectra within {fin_dev:.3e} <= 1e-8")


def test_criterion_9_index_equality():
    ok = True
    details = []
    for n_max, e_max in ((2, 4), (3, 6), (3, 8)):
        spec = fock.TruncationSpec(n_max, e_max)
        rep = assembly.compare_indices(assembly.analytic_index(spec),
                                       assembly.mu_index(spec))
        ok = ok and rep.spectra_deviation <= 1e-10 and rep.intertwine_deviation <= 1e-10
        ok = ok and rep.action_deviation <= 1e-12 and rep.inner_deviation <= 1e-12
        ok = ok and rep.bounded_spectra_deviation <= 1e-10
        details.append(f"(N={n_max},E={e_max}): spectra {rep.spectra_deviation:.1e}, "
                       f"intertwine {rep.intertwine_deviation:.1e}")
    report("criterion 9 (index equality via transpose)", ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    cfg = Config(modes=3, energy_cut=6)
    start = time.time()
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    for out in (out1, out2):
        for name in sorted(EXPERIMENTS):
            rep = run_experiment(name, cfg, out)
            assert rep.ok, f"{name} failed margins"
    elapsed = time.time() - start
    identical = all(
        filecmp.cmp(os.path.join(out1, f), os.path.join(out2, f), shallow=False)
        for f in sorted(os.listdir(out1)))
    report("criterion 10 (deterministic runs)",
           identical and elapsed < 300.0,
           f"two full runs byte-identical ({len(os.listdir(out1))} files), "
           f"total {elapsed:.1f}s < 300s")
