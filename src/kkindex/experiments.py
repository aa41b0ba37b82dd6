"""Configuration-driven experiment registry with deterministic reports.

Each experiment writes one CSV (schema comment ``# kk-index-lab v2``, columns
``quantity,truncation,measured,expected,tolerance,kind,headroom,ok``) plus a
plain-text summary, both byte-reproducible for a fixed config: every random
input comes from the documented 64-bit linear congruential generator
:class:`opcore.Lcg`, seeded from the config seed (the seeded ``assembly``
routines get ``seed & 0xFFFF``); outputs carry no timestamps and all
orderings are fixed.  :class:`Report` alone decides whether a row passes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import ClassVar, NamedTuple

import numpy as np

from . import assembly, dirac, fock, limitspace, twistgroup
from .opcore import Lcg, SparseOperator, adjoint, graded_commutator, spectrum

__all__ = ["Config", "parse_config", "selected_experiments", "run_experiment",
           "release_dirac_R", "EXPERIMENTS"]


@dataclass(frozen=True)
class Config:
    """Validated experiment configuration with documented defaults."""

    modes: int = 4
    energy_cut: int = 8
    sigma: str = "pow2"
    experiments: tuple = ("all",)
    output_dir: str = "kkindex-out"
    seed: int = 20240817

    def spec(self, modes=None, energy=None) -> fock.TruncationSpec:
        return fock.TruncationSpec(modes or self.modes, energy if energy is not None
                                   else self.energy_cut)

    def sigma_seq(self) -> limitspace.SigmaSequence:
        return limitspace.SigmaSequence.parse(self.sigma)


class ConfigError(ValueError):
    pass


# Largest state space a config may request: the (modes, energy_cut)
# boson x dual x fermion triple space and the 2^modes fermion space of
# ccr_car.  Admits modes = 6, energy_cut = 14 (dimension 25752).
MAX_DIM = 1 << 15


def _check_size(cfg: Config):
    # 2^modes > MAX_DIM exactly when modes reaches the cap's bit length
    if cfg.modes >= MAX_DIM.bit_length():
        raise ConfigError(f"key 'modes': the 2^{cfg.modes} fermion space exceeds "
                          f"the size cap {MAX_DIM}")
    # mode-1 boson and dual states alone give (e+1)(e+2)/2 triples at energy
    # e, so counting past the first e above the cap cannot undercut it
    e = min(cfg.energy_cut, math.isqrt(2 * MAX_DIM))
    if sum(fock.window_counts(cfg.spec(energy=e), ("boson", "dual_boson", "fermion"))) > MAX_DIM:
        raise ConfigError(f"key 'energy_cut': the modes={cfg.modes}, "
                          f"energy_cut={cfg.energy_cut} triple space exceeds the "
                          f"size cap {MAX_DIM}")


def sigma_modes(name: str) -> int:
    """How many sigma values experiment ``name`` reads: the ``sigma_modes``
    its registry entry passes it, 0 if it reads none or is unregistered."""
    return getattr(EXPERIMENTS.get(name), "keywords", {}).get("sigma_modes", 0)


def selected_experiments(cfg: Config, target: str) -> list:
    """Names that ``kkindex run <target>`` executes: the config's
    ``experiments`` for ``all`` (every registered one if it lists none), else
    ``[target]``.  Raises :class:`ConfigError` when an explicit sigma list is
    too short for them, before anything runs."""
    if target == "all":
        names = [n for n in cfg.experiments if n != "all"] or sorted(EXPERIMENTS)
    else:
        names = [target]
    seq = cfg.sigma_seq()
    need = max((sigma_modes(name) for name in names), default=0)
    if seq.rule == "explicit" and len(seq.values) < need:
        raise ConfigError(f"key 'sigma': the selected experiments read {need} sigma "
                          f"values, the list has {len(seq.values)}")
    return names


_KNOWN = {f.name for f in fields(Config)}
_INT_KEYS = {f.name for f in fields(Config) if isinstance(f.default, int)}


def parse_config(path: str) -> Config:
    """Line-based ``key = value`` file with ``#`` comments; unknown and
    repeated keys are rejected, numeric fields must be positive and the
    requested spaces must stay within :data:`MAX_DIM`."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: malformed line {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {values[key][0]}")
        values[key] = lineno, val
    cfg = Config()
    for key, (_, val) in values.items():
        if key in _INT_KEYS:
            try:
                ival = int(val)
            except ValueError:
                raise ConfigError(f"key {key!r}: malformed integer {val!r}")
            if key != "seed" and ival <= 0:
                raise ConfigError(f"key {key!r}: must be positive, got {ival}")
            cfg = replace(cfg, **{key: ival})
        elif key == "sigma":
            try:
                limitspace.SigmaSequence.parse(val)  # validates
            except ValueError as exc:
                raise ConfigError(f"key 'sigma': {exc}")
            cfg = replace(cfg, sigma=val)
        elif key == "experiments":
            names = tuple(tok.strip() for tok in val.split(",") if tok.strip())
            for name in names:
                if name != "all" and name not in EXPERIMENTS:
                    raise ConfigError(f"key 'experiments': unregistered name {name!r}")
            cfg = replace(cfg, experiments=names)
        elif key == "output_dir":
            cfg = replace(cfg, output_dir=val)
    _check_size(cfg)
    selected_experiments(cfg, "all")
    return cfg


# ------------------------------------------------------------------ report


EQUALS, AT_MOST = "equals", "at_most"


class Row(NamedTuple):
    quantity: str
    truncation: str
    measured: float
    expected: float     # the bound of an ``at_most`` row
    tolerance: float
    kind: str           # EQUALS | AT_MOST
    headroom: float     # derived by Report


@dataclass
class Report:
    """Check rows of one experiment, each with its own tolerance and kind.

    An ``equals`` row passes when ``|measured - expected| <= tolerance``, an
    ``at_most`` row when ``measured <= expected + tolerance``.  A row's
    headroom is what it uses over what it is allowed (deviation over
    tolerance, measured over bound plus tolerance); the row is ok iff its
    headroom is at most 1.
    """

    name: str
    rows: list = field(default_factory=list)     # Row
    notes: list = field(default_factory=list)
    # Not a check tolerance: perfbench/tracer.py divides each row's last
    # field (its headroom) by this to get the worst headroom of a run.
    tolerance: ClassVar[float] = 1.0

    def equals(self, quantity, truncation, measured, expected, tolerance):
        self._add(quantity, truncation, measured, expected, tolerance, EQUALS)

    def at_most(self, quantity, truncation, measured, bound, tolerance):
        self._add(quantity, truncation, measured, bound, tolerance, AT_MOST)

    def _add(self, quantity, truncation, measured, expected, tolerance, kind):
        measured, expected, tolerance = float(measured), float(expected), float(tolerance)
        if kind == EQUALS:
            used, allowed = abs(measured - expected), tolerance
        else:
            used, allowed = measured, expected + tolerance
        if allowed > 0 and not math.isnan(used):
            headroom = used / allowed
        else:  # nothing allowed: an exact row uses none of it, anything else fails
            headroom = 0.0 if used <= allowed else math.inf
        self.rows.append(Row(quantity, str(truncation), measured, expected, tolerance,
                             kind, headroom))

    @property
    def ok(self) -> bool:
        return all(row.headroom <= 1.0 for row in self.rows)

    def write_csv(self, fh):
        fh.write("# kk-index-lab v2\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(Row._fields + ("ok",))
        for row in self.rows:
            writer.writerow([row.quantity, row.truncation, f"{row.measured:.17g}",
                             f"{row.expected:.17g}", f"{row.tolerance:.17g}", row.kind,
                             f"{row.headroom:.17g}", int(row.headroom <= 1.0)])

    def worst(self) -> str:
        """The row with the largest headroom (the first such) and its headroom."""
        if not self.rows:
            return "none"
        row = max(self.rows, key=lambda row: row.headroom)
        return f"{row.quantity} [{row.truncation}] headroom {row.headroom:.3e}"

    def summary(self) -> str:
        lines = [f"experiment: {self.name}",
                 f"checks: {len(self.rows)}",
                 f"status: {'ok' if self.ok else 'FAIL'}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"worst: {self.worst()}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ experiments


def _with_config_case(cfg: Config, *cases) -> list:
    """The fixed ``(modes, energy_cut)`` cases, then the config's own unless
    it is one of them, so no row is written twice."""
    own = (cfg.modes, cfg.energy_cut)
    return list(cases) + [own] * (own not in cases)


def _exp_ccr_car(cfg: Config, rng: Lcg) -> Report:
    rep = Report("ccr_car")
    spec = cfg.spec()
    boson = fock.enumerate_basis(spec, "boson")
    ferm_spec = cfg.spec(energy=max(cfg.energy_cut,
                                    cfg.modes * (cfg.modes + 1) // 2))
    ferm = fock.enumerate_basis(ferm_spec, "fermion")
    ident_b = SparseOperator.identity(boson)
    for n in range(1, spec.n_max + 1):
        for m in range(1, spec.n_max + 1):
            comm = graded_commutator(fock.boson_raise(boson, n), fock.boson_lower(boson, m))
            diff = comm - ident_b if n == m else comm
            safe = np.isin(diff.cols, fock.safe_indices(boson, max(n, m)))
            dev = np.max(np.abs(diff.vals[safe]), initial=0.0)
            rep.equals(f"ccr[{n},{m}]", f"N={spec.n_max},E={spec.e_max}", dev, 0.0, 1e-12)
    ident_f = SparseOperator.identity(ferm)
    for n in range(1, spec.n_max + 1):
        for m in range(1, spec.n_max + 1):
            anti = graded_commutator(fock.clifford(ferm, n, "holo"),
                                     fock.clifford(ferm, m, "antiholo"))
            target = ident_f.scale(-2.0 if n == m else 0.0)
            dev = (anti - target).max_abs()
            rep.equals(f"car[{n},{m}]", f"N={spec.n_max},E={ferm_spec.e_max}",
                       dev, 0.0, 1e-12)
    total = SparseOperator.zero(boson)
    for n in range(1, spec.n_max + 1):
        total = total + (fock.boson_raise(boson, n)
                         @ fock.boson_lower(boson, n)).scale(float(n))
    dev = (fock.energy_op(boson) - total.scale(-1j)).max_abs()
    rep.equals("energy=-i*sum n raise lower", f"N={spec.n_max},E={spec.e_max}",
               dev, 0.0, 1e-12)
    totf = SparseOperator.zero(ferm)
    for n in range(1, spec.n_max + 1):
        totf = totf + (fock.clifford(ferm, n, "antiholo")
                       @ fock.clifford(ferm, n, "holo")).scale(float(n))
    dev = (fock.number_op(ferm) + totf.scale(0.5)).max_abs()
    rep.equals("number=-1/2*sum n wedge contr", f"N={spec.n_max},E={ferm_spec.e_max}",
               dev, 0.0, 1e-12)
    return rep


def _exp_weitzenbock(cfg: Config, rng: Lcg) -> Report:
    rep = Report("weitzenbock")
    for n_max, e_max in _with_config_case(cfg, (1, 2), (2, 4)):
        spec = cfg.spec(modes=n_max, energy=e_max)
        residual = dirac.weitzenbock_residual(spec)
        rep.equals("max|dirac^2 - 2(N + E/i)|", f"N={n_max},E={e_max}",
                   residual, 0.0, 1e-12)
    return rep


def _exp_kernel_count(cfg: Config, rng: Lcg) -> Report:
    rep = Report("kernel_count")
    for n_max, e_max in _with_config_case(cfg, (3, 4), (2, 4)):
        spec = cfg.spec(modes=n_max, energy=e_max)
        dR, space = dirac.build_dirac_R(spec)
        blocks = dirac.kernel(dR)
        rep.equals("dim ker(dirac_R)", f"N={n_max},E={e_max}",
                   sum(len(states) for states, _ in blocks),
                   sum(fock.window_counts(spec, ("boson",))), 0.0)
        # states off the vacuum column are those with dual or fermion energy
        comps = space.components
        off = space.factors[1].energy[comps[:, 1]] + space.factors[2].energy[comps[:, 2]] > 0
        off_support = max((float(np.max(np.abs(coeffs[off[states]]), initial=0.0))
                           for states, coeffs in blocks), default=0.0)
        rep.equals("kernel off vacuum-column support", f"N={n_max},E={e_max}",
                   off_support, 0.0, 0.0)
    # dirac_R^2 multiplicities against independent shell counting at the
    # config's truncation
    spec = cfg.spec()
    misses = sum(not match for *_, match in
                 dirac.spectrum_with_prediction(dirac.build_dirac_R(spec)[0], spec))
    rep.equals("dirac_R^2 shells off the counted multiplicity",
               f"N={cfg.modes},E={cfg.energy_cut}", misses, 0.0, 0.0)
    return rep


def _exp_per_estimate(cfg: Config, rng: Lcg) -> Report:
    rep = Report("per_estimate")
    spec = cfg.spec(modes=min(cfg.modes, 4), energy=12)
    equality_seen = False
    for n in range(1, spec.n_max + 1):
        report = dirac.per_estimate(spec, n)
        worst = 0.0
        for lam_sq, lo, lob, hi, hib in report.shells:
            worst = max(worst, lo - lob, hi - hib)
        rep.at_most(f"max bound excess mode {n}", "lambda^2<=24", worst, 0.0, 1e-12)
        equality_seen = equality_seen or report.equality_attained
    rep.equals("equality attained on single-mode states", "lambda^2<=24",
               float(equality_seen), 1.0, 0.0)
    return rep


def _exp_xi_norms(cfg: Config, rng: Lcg) -> Report:
    rep = Report("xi_norms")
    for sigma in (1.0, 0.5, 2.0 ** -3):
        quad, hermite, err_bound, deficiency = limitspace.dRz_norm_details(sigma)
        rep.equals("quadrature |dR_z Xi| vs sigma/2", f"sigma={sigma}",
                   quad, sigma / 2.0, 1e-6)
        rep.at_most("ladder-route agreement within its bound", f"sigma={sigma}",
                    abs(quad - hermite), err_bound, 0.0)
        rep.notes.append(f"sigma={sigma}: ladder deficiency {deficiency:.3e}, "
                         f"err bound {err_bound:.3e}")
        mode = limitspace.xi_coeffs(sigma, h_max=limitspace.XI_H_MAX)
        overlap = abs(limitspace.xi_overlap_dRz(mode))
        rep.equals("<Xi, dR_z Xi> = 0", f"sigma={sigma}", overlap, 0.0, 1e-6)
    return rep


def _exp_sigma_tails(cfg: Config, rng: Lcg) -> Report:
    rep = Report("sigma_tails")
    seq = cfg.sigma_seq()
    if seq.convergent:
        for m in range(0, 9):
            rep.at_most("frozen-tail norm <= tail bound", f"M={m}",
                        limitspace.frozen_tail_dirac_norm(m, seq),
                        limitspace.tail_bound(m, seq), 0.0)
    else:
        rep.notes.append("sigma rule not convergent; tail table skipped")
    return rep


# (moduli, root order of the trivial cocycle, or None for the Heisenberg pairing)
_GROUPS = (((2,), 2), ((3,), 3), ((4, 2), None), ((3, 3), None))


def _group_cocycle(moduli, root):
    grp = twistgroup.FiniteAbelianGroup(moduli)
    if root is None:
        return grp, twistgroup.heisenberg_cocycle(grp)
    return grp, twistgroup.trivial_cocycle(grp, root)


def _exp_fingroup_suite(cfg: Config, rng: Lcg) -> Report:
    rep = Report("fingroup_suite")
    for moduli, root in _GROUPS:
        grp, tau = _group_cocycle(moduli, root)
        label = f"{grp!r}/{'heisenberg' if root is None else 'trivial'}"
        violations = len(twistgroup.check_cocycle(tau))
        rep.equals("cocycle violations", label, violations, 0.0, 0.0)

        ext = twistgroup.TwistedExtension(tau)
        f1 = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), 1)
        f0 = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), 0)
        # through the untagged product, not the tagged one that returns
        # zeros for distinct levels by construction
        cross = twistgroup.convolve(twistgroup.GroupAlgebraElement(ext, f1.table()),
                                    twistgroup.GroupAlgebraElement(ext, f0.table()))
        rep.equals("level orthogonality", label, cross.max_abs(), 0.0, 1e-12)

        a = twistgroup.CrossedProductElement.translation(
            grp, rng.complex_matrix(grp.order))
        b = twistgroup.CrossedProductElement.translation(
            grp, rng.complex_matrix(grp.order))
        lhs = twistgroup.schatten_map(twistgroup.crossed_convolve(a, b)).to_dense()
        rhs = twistgroup.schatten_map(a).to_dense() @ twistgroup.schatten_map(b).to_dense()
        dev = float(np.max(np.abs(lhs - rhs)))
        rep.equals("schatten multiplicativity", label, dev, 0.0, 1e-12)
        star = (twistgroup.schatten_map(a.involution())
                - adjoint(twistgroup.schatten_map(a))).max_abs()
        rep.equals("schatten star", label, star, 0.0, 1e-12)

        cut = twistgroup.mishchenko(grp, np.full(grp.order, 1.0 / grp.order))
        idem = np.max(np.abs(twistgroup.crossed_convolve(cut, cut).values
                             - cut.values))
        rep.equals("mishchenko idempotent", label, idem, 0.0, 1e-12)

        blocks = twistgroup.decompose_twisted_algebra(grp, tau)
        rep.notes.append(f"{label}: order {grp.order}, m {ext.m}, blocks {blocks}")
        if moduli == (3, 3):
            rep.equals("heisenberg single block dim 3", label, float(blocks == [3]),
                       1.0, 0.0)
    # seeded random m-iso trials on Z3 with the mu_3 pairing extension, all
    # 100 at once on leading trial axes
    grp, tau = _group_cocycle((3, 3), None)
    ext = twistgroup.TwistedExtension(tau)
    # five vectors per trial, drawn in trial order: one block of the stream
    draws = rng.complex_matrix(500, grp.order).reshape(100, 5, -1)
    phi1, psi1 = draws[:, 0], draws[:, 1]
    phi2, psi2, b = (twistgroup.GroupAlgebraElement(ext, draws[:, k], 1) for k in (2, 3, 4))
    mod = twistgroup.m_iso(phi1, phi2)
    lhs = twistgroup.module_inner_product(mod, twistgroup.m_iso(psi1, psi2))
    vdots = np.einsum("tg,tg->t", phi1.conj(), psi1)[:, None]  # np.vdot per trial
    rhs = twistgroup.convolve(phi2.involution(), psi2).scale(vdots)
    left = twistgroup.m_iso(phi1, twistgroup.convolve(phi2, b))
    right = twistgroup.module_right_action(mod, b)
    worst = max(float(np.max(np.abs(lhs.values - rhs.values))),
                float(np.max(np.abs(left.table - right.table))))
    rep.equals("m-iso isometry and right-module identities (100 trials)",
               "Z3xZ3/mu3", worst, 0.0, 1e-10)
    # a acts on phi1 through its Schatten matrix: m(a phi1 (x) phi2) = a m(phi1 (x) phi2)
    a = twistgroup.CrossedProductElement.translation(grp, rng.complex_matrix(grp.order))
    schatten = twistgroup.schatten_map(a).to_dense()
    lhs = twistgroup.m_iso(phi1 @ schatten.T, phi2)
    rhs = twistgroup.module_left_action(a, mod)
    worst = float(np.max(np.abs(lhs.table - rhs.table)))
    rep.equals("m-iso left-module identity (100 trials)", "Z3xZ3/mu3", worst, 0.0, 1e-10)
    return rep


def _exp_level_suite(cfg: Config, rng: Lcg) -> Report:
    rep = Report("level_suite")
    grp, tau = _group_cocycle((3,), 3)
    ext = twistgroup.TwistedExtension(tau)
    table = rng.complex_matrix(grp.order, ext.m)
    f = twistgroup.GroupAlgebraElement(ext, table)
    resum = sum((twistgroup.level_project(f, l).table() for l in range(ext.m)),
                np.zeros_like(table))
    dev = float(np.max(np.abs(resum - table)))
    rep.equals("levels partition the algebra", "Z3/mu3", dev, 0.0, 1e-12)
    # distinct levels through the untagged product, not the tagged one that
    # returns zeros for them by construction
    for l1 in range(ext.m):
        for l2 in range(ext.m):
            a = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), l1)
            b = twistgroup.GroupAlgebraElement(ext, rng.complex_vector(grp.order), l2)
            if l1 != l2:
                prod = twistgroup.convolve(twistgroup.GroupAlgebraElement(ext, a.table()),
                                           twistgroup.GroupAlgebraElement(ext, b.table()))
                rep.equals(f"level {l1} * level {l2} = 0", "Z3/mu3", prod.max_abs(),
                           0.0, 1e-12)
    for moduli, root in (((3,), 3), ((2, 2), None)):
        g, tau = _group_cocycle(moduli, root)
        rows = assembly.level_vanishing_pattern(g, tau, seed=cfg.seed & 0xFFFF)
        for level, value, character in rows:
            if level == 1:
                rep.equals("cut-off pairing survives at level 1", f"{g!r}",
                           float(value > 1e-6), 1.0, 0.0)
            else:
                rep.equals(f"cut-off pairing vanishes at level {level}", f"{g!r}",
                           value, 0.0, 1e-12)
    return rep


def _size_note(cycle: assembly.MaterializedJCycle) -> str:
    """Deterministic size facts of a materialized cycle."""
    sizes = np.unique(cycle.operator.components, return_counts=True)[1]
    return (f"materialized dim {cycle.space.dim}, rest states {cycle.rest.dim}, "
            f"operator blocks {len(sizes)}, largest block {int(sizes.max())}")


def _exp_jcycle_diag(cfg: Config, rng: Lcg, sigma_modes: int) -> Report:
    rep = Report("jcycle_diag")
    spec, seq = cfg.spec(modes=2, energy=3), cfg.sigma_seq()
    cycle = assembly.materialize_j_cycle(spec, sigma_modes, seq, h_op=4)
    rep.notes.append(_size_note(cycle))
    sa = (adjoint(cycle.operator) - cycle.operator).max_abs()
    rep.equals("self-adjointness", "materialized", sa, 0.0, 1e-10)
    basis = cycle.space.basis
    diag = np.arange(basis.dim)
    parity = SparseOperator(basis, basis, diag, diag, np.where(basis.parity, -1.0, 1.0))
    odd = ((cycle.operator @ parity) + (parity @ cycle.operator)).max_abs()
    rep.equals("odd grading", "materialized", odd, 0.0, 1e-10)
    vals = spectrum(cycle.operator @ cycle.operator)
    rep.at_most("squared operator psd", "materialized",
                -float(np.min(vals)), 0.0, 1e-10)
    comp = assembly.resolvent_compactness(cycle)
    n1, n2, n3 = comp.split_norms
    rep.notes.append(f"split norms: free {n1:.6g}, cross {n2:.6g}, mirror {n3:.6g}")
    rep.equals("mirror part squared = 2(N_f + E_dual)", "materialized",
               comp.mirror_residual, 0.0, 1e-10)
    shells = " ".join(f"{e:g}" for e in sorted(set(2.0 * cycle.rest.basis.energy)))
    rep.notes.append(f"mirror resolvent 1/(1 + shell) on rest shells {shells}")
    # the cut-off class compresses the cycle onto Xi (x) rest
    dl = dirac.build_dirac_L(spec, space=cycle.rest)[0]
    rep.equals("compression by Xi = mirror dirac", "materialized",
               (assembly.assemble(cycle) - dl).max_abs(), 0.0, 1e-10)
    # sigma/2 scalars of the active modes plus the frozen-tail bound
    ideal = (2.0 * limitspace.frozen_tail_dirac_norm(0, seq, n_cut=sigma_modes)
             + limitspace.tail_bound(sigma_modes, seq)) if seq.convergent else math.inf
    rep.notes.append(f"ideal (untruncated) commutator bound {ideal:.6g}")
    # reported, not asserted: how far the squared spectrum sits from the
    # mirror lattice 2(N_f + E_dual); the cross part shifts it at truncation
    lattice = np.arange(0.0, float(np.max(vals)) + 3.0, 2.0)
    drift = float(np.max(np.min(np.abs(vals[:, None] - lattice[None, :]), axis=1)))
    rep.notes.append(f"squared-spectrum drift from the even lattice: {drift:.6g} "
                     f"(cross part {n2:.6g} present at truncation)")
    # Kucerovsky's product criterion; the xi row is |[op, theta_(Xi,Xi) (x) id]|
    for name, measured, bound in assembly.kucerovsky_check(cycle, seed=cfg.seed & 0xFFFF):
        rep.at_most(f"commutator bounded ({name})", "materialized", measured, bound, 1e-8)
    return rep


def _exp_assembly_compare(cfg: Config, rng: Lcg) -> Report:
    rep = Report("assembly_compare")
    for moduli, root in (((3,), 3), ((3, 3), None)):
        grp, tau = _group_cocycle(moduli, root)
        fin = assembly.finite_group_assembly(grp, tau, seed=cfg.seed & 0xFFFF)
        irreps = twistgroup.ProjectiveIrreps(tau)
        rep.notes.append(f"{grp!r}: order {grp.order}, irreps {irreps.count} x {irreps.dim}")
        rep.equals("finite model compressed spectra", f"{grp!r}", fin.deviation,
                   0.0, 1e-8)
        rep.equals("finite model compressed cross term", f"{grp!r}",
                   fin.compressed_cross, 0.0, 1e-8)
    return rep


def _exp_index_compare(cfg: Config, rng: Lcg) -> Report:
    rep = Report("index_compare")
    for n_max, e_max in _with_config_case(cfg, (2, 4), (3, 6), (3, 8)):
        spec = cfg.spec(modes=n_max, energy=e_max)
        analytic, mu = assembly.analytic_index(spec), assembly.mu_index(spec)
        report = assembly.compare_indices(analytic, mu, seed=cfg.seed & 0xFFFF)
        rep.notes.append(
            f"N={n_max},E={e_max}: dim {analytic.space.dim}, nb/nd/nf "
            f"{'/'.join(str(b.dim) for b in (analytic.boson, analytic.dual, analytic.fermion))}, "
            f"nnz analytic {analytic.operator.nnz} mu {mu.operator.nnz}, "
            f"energy groups {len(analytic.blocks)}")
        for quantity, value, tol in report.rows:
            rep.equals(quantity, f"N={n_max},E={e_max}", value, 0.0, tol)
    return rep


EXPERIMENTS = {
    "ccr_car": _exp_ccr_car,
    "weitzenbock": _exp_weitzenbock,
    "kernel_count": _exp_kernel_count,
    "per_estimate": _exp_per_estimate,
    "xi_norms": _exp_xi_norms,
    "sigma_tails": _exp_sigma_tails,
    "fingroup_suite": _exp_fingroup_suite,
    "level_suite": _exp_level_suite,
    "jcycle_diag": partial(_exp_jcycle_diag, sigma_modes=1),
    "assembly_compare": _exp_assembly_compare,
    "index_compare": _exp_index_compare,
}

# the experiments that read dirac.build_dirac_R(spec) off its memo
DIRAC_R_READERS = frozenset({"index_compare", "kernel_count", "weitzenbock"})


def release_dirac_R(remaining) -> None:
    """Clear the ``dirac.build_dirac_R`` memo once no experiment named in
    ``remaining`` reads it, so the experiments after the last reader do not
    peak on top of its operators."""
    if DIRAC_R_READERS.isdisjoint(remaining):
        dirac.build_dirac_R.cache_clear()


def run_experiment(name: str, cfg: Config, out_dir: str = None):
    """Run one registered experiment; writes ``<name>.csv`` and
    ``<name>.txt`` under the output directory and returns the Report.

    The per-experiment random stream is seeded from the config seed and the
    experiment's registry position, so runs are order-independent.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unregistered experiment {name!r}")
    out_dir = out_dir or cfg.output_dir
    index = sorted(EXPERIMENTS).index(name)
    rng = Lcg(cfg.seed * 1000003 + index)
    try:
        report = EXPERIMENTS[name](cfg, rng)
    except Exception as exc:
        raise RuntimeError(f"experiment {name!r} failed: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    with open(os.path.join(out_dir, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.summary())
    return report
