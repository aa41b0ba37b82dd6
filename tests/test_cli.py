import csv
import filecmp
import importlib
import inspect
import io
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from functools import partial, wraps
from pathlib import Path

import numpy as np
import pytest

import kkindex
from kkindex import TruncationSpec
from kkindex import assembly, dirac, fock, opcore, twistgroup
from kkindex.cli import main
from kkindex.dirac import TripleSpace
from kkindex.experiments import (DIRAC_R_READERS, MAX_DIM, Config, ConfigError, Report,
                                 _exp_jcycle_diag, parse_config, run_experiment, sigma_modes,
                                 EXPERIMENTS)
from kkindex.opcore import Lcg
from traced import traced_peak


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "# empty config\n"))
    assert cfg.modes == 4
    assert cfg.energy_cut == 8
    assert cfg.sigma == "pow2"


def test_parse_config_sigma_list(tmp_path):
    cfg = parse_config(write(tmp_path, "sigma = list:0.5,0.25\nexperiments = jcycle_diag\n"))
    seq = cfg.sigma_seq()
    assert seq.rule == "explicit"
    assert seq.values == (0.5, 0.25)


def test_parse_config_negative_modes(tmp_path):
    with pytest.raises(ConfigError, match="modes"):
        parse_config(write(tmp_path, "modes = -1\n"))


def test_parse_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, "modez = 3\n"))


def test_parse_config_malformed_value(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write(tmp_path, "modes = three\n"))


def test_parse_config_unregistered_experiment(tmp_path):
    with pytest.raises(ConfigError, match="unregistered"):
        parse_config(write(tmp_path, "experiments = weitzenbock, nonsense\n"))


@pytest.mark.parametrize("names, refusal", [("weitzenbock, weitzenbock", "listed twice"),
                                            ("all, weitzenbock", "'all' must stand alone")])
def test_parse_config_refuses_a_repeated_experiment_and_all_among_others(tmp_path, capsys,
                                                                         names, refusal):
    # the first would run an experiment twice, the second only weitzenbock
    cfg = write(tmp_path, f"experiments = {names}\n")
    with pytest.raises(ConfigError, match=refusal):
        parse_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "all", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: key 'experiments'")
    assert not out.exists()


class ScalarLcg:
    """The documented stream one draw at a time: the oracle of ``Lcg``."""

    def __init__(self, seed):
        self.state = seed & Lcg.MASK

    def next_u64(self):
        self.state = (Lcg.MULT * self.state + Lcg.INC) & Lcg.MASK
        return self.state

    def uniform(self):
        return (self.next_u64() >> 11) / float(1 << 53)

    def standard_normal(self):
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def complex_normal(self):
        return complex(self.standard_normal(), self.standard_normal())

    def complex_vector(self, n):
        return np.array([self.complex_normal() for _ in range(n)], dtype=complex)

    def complex_matrix(self, n, m=None):
        m = n if m is None else m
        return np.array([[self.complex_normal() for _ in range(m)] for _ in range(n)],
                        dtype=complex).reshape(n, m)


def test_one_block_draw_is_the_per_trial_draws_bit_for_bit():
    # the m-iso trials draw five vectors per trial as one (500, order) block
    block = Lcg(20240817).complex_matrix(500, 9).reshape(100, 5, 9)
    rng = Lcg(20240817)
    one_by_one = np.array([[rng.complex_vector(9) for _ in range(5)] for _ in range(100)])
    assert np.array_equal(block.view(np.uint64), one_by_one.view(np.uint64))


def test_lcg_documented_stream():
    rng = ScalarLcg(1)
    first = rng.next_u64()
    assert first == (6364136223846793005 * 1 + 1442695040888963407) % 2 ** 64
    u = ScalarLcg(1).uniform()
    assert u == (first >> 11) / float(1 << 53)
    fast = Lcg(1)
    assert fast.uniforms(1)[0] == u
    assert fast.state == first


@pytest.mark.parametrize("seed", [0, 1, 20240817 * 1000003 + 6, 2 ** 64 - 1, 2 ** 70 + 5])
def test_lcg_block_draws_match_the_scalar_stream_bit_for_bit(seed):
    fast, slow = Lcg(seed), ScalarLcg(seed)
    assert fast.state == slow.state
    for n in range(1, 65):
        got, want = fast.complex_vector(n), slow.complex_vector(n)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert fast.state == slow.state
    for shape in ((1, 1), (3, 3), (9, 9), (3, 5), (81, 81)):
        got, want = fast.complex_matrix(*shape), slow.complex_matrix(*shape)
        assert got.shape == want.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert fast.state == slow.state
    assert np.array_equal(fast.complex_matrix(4), slow.complex_matrix(4))


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8195])
def test_lcg_uniforms_match_the_scalar_stream_across_jump_blocks(n):
    # the jump table covers Lcg.JUMP_BLOCK draws; longer calls chain blocks
    assert Lcg.JUMP_BLOCK == 4096
    fast, slow = Lcg(20240817), ScalarLcg(20240817)
    got = fast.uniforms(n)
    want = np.array([slow.uniform() for _ in range(n)], dtype=float)
    assert got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert fast.state == slow.state


def test_lcg_consecutive_calls_straddle_a_jump_block():
    fast, slow = Lcg(7), ScalarLcg(7)
    for n in (4000, 200, 4096, 1, 5000):
        got = fast.uniforms(n)
        want = np.array([slow.uniform() for _ in range(n)], dtype=float)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert fast.state == slow.state


def one_shot_complex_matrix(rng, n, m):
    """Every uniform of the draw at once, then Box-Muller over all of them."""
    u = rng.uniforms(4 * n * m).reshape(-1, 2)
    normals = np.sqrt(-2.0 * np.log(np.maximum(u[:, 0], 1e-300))) * np.cos(
        2.0 * np.pi * u[:, 1])
    return normals.view(complex).reshape(n, m)


# at the 2^14 block the shapes draw 0, 4, block - 4, block and block + 4
# uniforms; the shrunken blocks put 60 uniforms at block + 1, block and
# block - 1, and in slices of 6
@pytest.mark.parametrize("block, shape", [(2 ** 14, (0, 5)), (2 ** 14, (1, 1)),
                                          (2 ** 14, (63, 65)), (2 ** 14, (64, 64)),
                                          (2 ** 14, (17, 241)), (59, (3, 5)), (60, (3, 5)),
                                          (61, (3, 5)), (6, (3, 5)), (7, (3, 5))])
def test_sliced_draws_match_the_one_shot_draw_bit_for_bit(monkeypatch, block, shape):
    monkeypatch.setattr(opcore, "BLOCK_ELEMENTS", block)
    fast, oracle = Lcg(99), Lcg(99)
    for _ in range(2):  # the second draw continues the stream
        got, want = fast.complex_matrix(*shape), one_shot_complex_matrix(oracle, *shape)
        assert got.shape == want.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert fast.state == oracle.state


def test_a_large_draw_holds_little_beyond_its_output():
    # 256 x 256 draws 2^18 uniforms, 16 blocks; the one-shot draw's
    # uniforms and Box-Muller temporaries peak at about six times the 1 MB
    # output
    out, peak = traced_peak(Lcg(5).complex_matrix, 256)
    assert peak < 2 * out.nbytes


def test_run_experiment_writes_versioned_csv(tmp_path):
    cfg = Config(modes=2, energy_cut=4)
    report = run_experiment("weitzenbock", cfg, str(tmp_path))
    assert report.ok
    lines = (tmp_path / "weitzenbock.csv").read_text().splitlines()
    assert lines[0] == "# kk-index-lab v2"
    assert lines[1] == "quantity,truncation,measured,expected,tolerance,kind,headroom,ok"
    assert (tmp_path / "weitzenbock.txt").exists()


def test_equals_row_is_held_to_its_own_tolerance():
    rep = Report("t")
    # one report-level tolerance of 1e-10 used to pass this row
    rep.equals("deviation", "N=1", 5e-11, 0.0, 1e-12)
    assert not rep.ok
    assert rep.rows[0].headroom == pytest.approx(50.0)
    out = io.StringIO()
    rep.write_csv(out)
    assert out.getvalue().splitlines()[-1] == ("deviation,N=1,5.0000000000000002e-11,0,"
                                               "9.9999999999999998e-13,equals,50,0")


def test_at_most_row_equal_to_its_bound_is_ok():
    rep = Report("t")
    rep.at_most("norm", "N=1", 0.25, 0.25, 0.0)
    assert rep.ok and rep.rows[0].headroom == 1.0
    rep.at_most("norm", "N=2", math.nextafter(0.25, 1.0), 0.25, 0.0)
    assert not rep.ok and rep.rows[1].headroom > 1.0


def test_exact_zero_tolerance_row_has_zero_headroom():
    rep = Report("t")
    rep.equals("count", "N=1", 11, 11, 0.0)
    assert rep.ok and rep.rows[0].headroom == 0.0
    rep.equals("count", "N=2", 10, 11, 0.0)
    assert not rep.ok and rep.rows[1].headroom == math.inf


def test_nan_row_fails():
    for add in (Report.equals, Report.at_most):
        rep = Report("t")
        add(rep, "value", "N=1", math.nan, 0.0, 1.0)
        assert not rep.ok and rep.rows[0].headroom == math.inf


def test_worst_row_is_named():
    rep = Report("t")
    assert rep.worst() == "none" and "worst: none\n" in rep.summary()
    rep.equals("small", "A", 1e-13, 0.0, 1e-12)
    rep.at_most("tight", "B,C", 0.9, 1.0, 0.0)
    rep.equals("exact", "D", 0.0, 0.0, 0.0)
    assert rep.worst() == "tight [B,C] headroom 9.000e-01"
    assert "worst: tight [B,C] headroom 9.000e-01\n" in rep.summary()


def test_cli_exits_1_when_one_row_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dirac, "weitzenbock_residual", lambda spec: 1e-9)
    assert main(["run", "weitzenbock", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "headroom 1.000e+03" in out
    rows = list(csv.reader((tmp_path / "weitzenbock.csv").read_text().splitlines()[2:]))
    assert [row[-1] for row in rows] == ["0", "0", "0"]


def test_level_suite_fails_when_the_untagged_product_leaks(tmp_path, monkeypatch):
    # the distinct-level rows read the untagged product, so a leak there
    # fails exactly those rows
    exact = twistgroup.convolve

    def leaky(f, h):
        out = exact(f, h)
        if f.level is None and h.level is None:
            out = twistgroup.GroupAlgebraElement(out.ext, out.values + 1e-9)
        return out

    monkeypatch.setattr(twistgroup, "convolve", leaky)
    report = run_experiment("level_suite", Config(), str(tmp_path))
    assert not report.ok
    assert {row.quantity for row in report.rows if row.headroom > 1.0} == {
        f"level {l1} * level {l2} = 0" for l1 in range(3) for l2 in range(3) if l1 != l2}


def test_fingroup_suite_fails_when_the_untagged_product_leaks(tmp_path, monkeypatch):
    # the level orthogonality rows read the untagged product, so a leak
    # there fails exactly those rows, one per group
    exact = twistgroup.convolve

    def leaky(f, h):
        out = exact(f, h)
        if f.level is None and h.level is None:
            out = twistgroup.GroupAlgebraElement(out.ext, out.values + 1e-9)
        return out

    monkeypatch.setattr(twistgroup, "convolve", leaky)
    report = run_experiment("fingroup_suite", Config(), str(tmp_path))
    assert not report.ok
    failed = [row.quantity for row in report.rows if row.headroom > 1.0]
    assert failed == ["level orthogonality"] * 4


@pytest.mark.parametrize("scaled", [False, True], ids=["exact", "scaled"])
def test_a_scaled_cutoff_class_fails_its_rows(tmp_path, capsys, monkeypatch, scaled):
    # [c] scaled by 1 + 1e-6 is no idempotent, and its Schatten image no
    # rank-one projection: fingroup_suite fails its idempotent rows and
    # assembly_compare refuses to build the finite model
    exact = twistgroup.mishchenko

    def scaled_cut(group, c):
        return twistgroup.CrossedProductElement(group, exact(group, c).values * (1 + 1e-6))

    if scaled:
        monkeypatch.setattr(twistgroup, "mishchenko", scaled_cut)
    assert main(["run", "fingroup_suite", "--out", str(tmp_path)]) == int(scaled)
    rows = list(csv.DictReader((tmp_path / "fingroup_suite.csv").read_text().splitlines()[1:]))
    failed = [row["quantity"] for row in rows if row["ok"] == "0"]
    assert failed == ["mishchenko idempotent"] * 4 * scaled
    capsys.readouterr()
    assert main(["run", "assembly_compare", "--out", str(tmp_path)]) == 2 * scaled
    assert ("rank-one projection" in capsys.readouterr().err) == scaled


def test_kernel_count_fails_when_a_shell_count_is_off(monkeypatch):
    # one (dual, fermion) pair short at the top energy: only the shell row
    # that compares dirac_R^2 with the count can see it
    exact = fock.window_counts

    def short(spec, kinds):
        counts = exact(spec, kinds)
        if tuple(kinds) == ("dual_boson", "fermion"):
            counts[spec.e_max] -= 1
        return counts

    monkeypatch.setattr(fock, "window_counts", short)
    report = EXPERIMENTS["kernel_count"](Config(), Lcg(Config().seed))
    assert not report.ok
    assert {row.quantity for row in report.rows if row.headroom > 1.0} == {
        "dirac_R^2 shells off the counted multiplicity"}


def test_run_all_csv_rows_parse_to_the_header(tmp_path):
    # what perfbench's lab_checks reads: column 4 a number, ok last as 0 or 1
    cfg = write(tmp_path, "modes = 3\nenergy_cut = 6\n")
    out = tmp_path / "out"
    assert main(["run", "all", "--config", cfg, "--out", str(out)]) == 0
    for name in sorted(EXPERIMENTS):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "# kk-index-lab v2"
        header, *rows = list(csv.reader(lines[1:]))
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            float(row[4])
            assert row[-1] in ("0", "1"), (name, row)


def exported_objects():
    """``(module name, name, object)`` for everything a module lists in
    ``__all__``."""
    for info in pkgutil.iter_modules(kkindex.__path__):
        mod = importlib.import_module(f"kkindex.{info.name}")
        for name in getattr(mod, "__all__", ()):
            yield info.name, name, getattr(mod, name)


def clear_memoized_builders():
    for _, _, obj in exported_objects():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


# the public methods `kkindex run all` does not call, kept because README
# documents them: a basis's label tuples and the plain-text operator format.
# The guard below holds this list exact both ways
NOT_REACHED_BY_RUN_ALL = {
    "opcore.Basis.labels",
    "opcore.SparseOperator.to_text",
    "opcore.SparseOperator.from_text",
}


def exported_methods():
    """``(qualified name, function)`` for each public method and property
    (getter) that a class exported by any module defines itself."""
    for module, name, obj in exported_objects():
        if not isinstance(obj, type):
            continue
        for attr, member in vars(obj).items():
            fn = getattr(member, "fget", None) or getattr(member, "func", None) \
                or getattr(member, "__func__", member)
            if not attr.startswith("_") and inspect.isfunction(fn):
                yield f"{module}.{name}.{attr}", fn


def test_exported_methods_sees_every_kind_of_member():
    names = {name for name, _ in exported_methods()}
    assert {"twistgroup.FiniteAbelianGroup.add_table",        # cached property
            "twistgroup.FiniteAbelianGroup.order",            # property
            "twistgroup.CrossedProductElement.translation",   # static method
            "twistgroup.GroupAlgebraElement.involution",      # method
            "assembly.MaterializedJCycle.lift",
            "opcore.SparseOperator.max_abs",
            "limitspace.SigmaSequence.parse",
            "opcore.Lcg.uniforms"} | NOT_REACHED_BY_RUN_ALL <= names


def test_run_all_calls_every_exported_function(tmp_path):
    # every module-level function a module lists in __all__ is reached by
    # `kkindex run all`, and so is every public method and property of the
    # classes the modules export, but for NOT_REACHED_BY_RUN_ALL.  Memoized
    # builders are cleared first, so calls made by earlier tests do not hide
    # their bodies
    clear_memoized_builders()
    exported = {}
    for module, name, obj in exported_objects():
        fn = inspect.unwrap(obj)
        if inspect.isfunction(fn):
            exported[fn.__code__] = f"{module}.{name}"
    for name, fn in exported_methods():
        exported[fn.__code__] = name
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cfg = write(tmp_path, "modes = 3\nenergy_cut = 6\n")
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        status = main(["run", "all", "--config", cfg, "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(previous)
    assert status == 0
    missed = {name for code, name in exported.items() if code not in called}
    assert sorted(missed) == sorted(NOT_REACHED_BY_RUN_ALL)


def test_dirac_R_readers_are_the_experiments_that_read_the_memo(monkeypatch):
    build, readers, running = dirac.build_dirac_R, set(), []

    def recording(spec):
        readers.add(running[-1])
        return build(spec)

    monkeypatch.setattr(dirac, "build_dirac_R", recording)
    cfg = Config(modes=3, energy_cut=6)
    for name, experiment in EXPERIMENTS.items():
        running.append(name)
        experiment(cfg, Lcg(cfg.seed))
    assert readers == DIRAC_R_READERS


def test_run_all_clears_the_dirac_R_memo_after_its_last_reader(tmp_path, monkeypatch):
    # the memo is shared from the first reader through the last one, and
    # the experiments after the last reader run without it
    held = {}

    def recording(name, cfg, out_dir=None):
        held[name] = dirac.build_dirac_R.cache_info().currsize
        return run_experiment(name, cfg, out_dir)

    monkeypatch.setattr("kkindex.cli.run_experiment", recording)
    dirac.build_dirac_R.cache_clear()
    cfg = write(tmp_path, "modes = 3\nenergy_cut = 6\n")
    assert main(["run", "all", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    names = sorted(EXPERIMENTS)
    at = [names.index(name) for name in DIRAC_R_READERS]
    assert [bool(held[name]) for name in names] == [min(at) < k <= max(at)
                                                    for k in range(len(names))]
    assert held["weitzenbock"] and not held["xi_norms"]
    assert dirac.build_dirac_R.cache_info().currsize == 0


def test_run_all_clears_the_dirac_R_memo_behind_a_wrapper(tmp_path, monkeypatch):
    # a span tracer puts a functools.wraps wrapper in place of the memo,
    # and such a wrapper does not copy the memo's cache_clear
    memo = dirac.build_dirac_R

    @wraps(memo)
    def wrapped(spec):
        return memo(spec)

    monkeypatch.setattr(dirac, "build_dirac_R", wrapped)
    assert not hasattr(wrapped, "cache_clear")
    cfg = write(tmp_path, "modes = 3\nenergy_cut = 6\n")
    assert main(["run", "all", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert memo.cache_info().currsize == 0


def test_run_experiment_unregistered():
    with pytest.raises(KeyError):
        run_experiment("nonsense", Config(), "/tmp/never")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(EXPERIMENTS)


def test_cli_run_single(tmp_path, capsys):
    code = main(["run", "weitzenbock", "--out", str(tmp_path)])
    assert code == 0
    assert "weitzenbock" in capsys.readouterr().out


def test_cli_unregistered_name(tmp_path, capsys):
    assert main(["run", "nonsense", "--out", str(tmp_path)]) == 2
    assert "unregistered" in capsys.readouterr().err


def test_cli_bad_config(tmp_path, capsys):
    cfg = write(tmp_path, "modes = -2\n")
    assert main(["run", "weitzenbock", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_refuses_a_repeated_key(tmp_path, capsys):
    # a second value would otherwise silently win over the first
    cfg = write(tmp_path, "modes = 3\n# comment\nseed = 5\nmodes = 5\n")
    assert main(["run", "weitzenbock", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: line 4: key 'modes' already set on line 1\n"
    assert not (tmp_path / "weitzenbock.csv").exists()


@pytest.mark.parametrize("line, key", [("tolerance = abc", "unknown key 'tolerance'"),
                                       ("hermite_cut = x", "hermite_cut"),
                                       ("hermite_cut = 1000000000", "hermite_cut"),
                                       ("hermite_cut = adaptive", "unknown key 'hermite_cut'"),
                                       ("sigma = bogus", "sigma"),
                                       ("sigma = list:0,1", "sigma"),
                                       ("sigma = list:nan,0.5,0.25", "sigma"),
                                       ("sigma = list:0.5,0.25,inf", "sigma")])
def test_cli_bad_value_is_config_error(tmp_path, capsys, line, key):
    cfg = write(tmp_path, line + "\n")
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["run", "weitzenbock", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("text, key", [("energy_cut = 1000000\nexperiments = ccr_car\n",
                                        "energy_cut"),
                                       ("modes = 16\nenergy_cut = 1\n", "modes"),
                                       # the count at the clamped energy 256 is past
                                       # 2^63: an int64 sum would wrap and admit it
                                       ("modes = 15\nenergy_cut = 1000000\n",
                                        "energy_cut")])
def test_cli_refuses_oversized_truncation(tmp_path, capsys, text, key):
    cfg = write(tmp_path, text)
    assert main(["run", "all", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and str(MAX_DIM) in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("modes, energy_cut",
                         [(1, 7), (2, 4), (2, 9), (3, 6), (4, 5), (6, 14)])
def test_window_counts_match_enumeration(modes, energy_cut):
    spec = TruncationSpec(modes, energy_cut)
    for kinds in (("boson",), ("fermion",), ("dual_boson", "fermion"),
                  ("boson", "dual_boson", "fermion")):
        energy = TripleSpace([fock.enumerate_basis(spec, kind) for kind in kinds],
                             energy_cut).basis.energy
        want = np.bincount(energy.astype(int), minlength=energy_cut + 1).tolist()
        assert fock.window_counts(spec, kinds) == want, kinds


def test_size_cap_admits_largest_documented_truncation(tmp_path):
    cfg = parse_config(write(tmp_path, "modes = 6\nenergy_cut = 14\n"))
    triple = ("boson", "dual_boson", "fermion")
    assert sum(fock.window_counts(cfg.spec(), triple)) == 25752 <= MAX_DIM


def jcycle_diag_at_two_modes(monkeypatch):
    """Register ``jcycle_diag`` at M = 2 (dim 2925), so that it reads sigma_1..2."""
    monkeypatch.setitem(EXPERIMENTS, "jcycle_diag", partial(_exp_jcycle_diag, sigma_modes=2))


def test_sigma_list_length_follows_the_selected_experiments(tmp_path, monkeypatch):
    # jcycle_diag reads sigma_1, or sigma_1..2 at M = 2; the others read none
    assert sigma_modes("jcycle_diag") == 1 and sigma_modes("assembly_compare") == 0
    jcycle_diag_at_two_modes(monkeypatch)
    for need, names in ((2, "all"), (2, "jcycle_diag"), (2, "jcycle_diag, sigma_tails"),
                        (0, "assembly_compare"), (0, "sigma_tails")):
        values = ",".join(["0.5"] * need) or "0.5"
        parse_config(write(tmp_path, f"sigma = list:{values}\nexperiments = {names}\n"))
        if need > 1:
            with pytest.raises(ConfigError, match="sigma"):
                parse_config(write(tmp_path, f"sigma = list:{values[4:]}\n"
                                             f"experiments = {names}\n"))


def test_sigma_list_is_checked_against_the_experiment_run(tmp_path, capsys, monkeypatch):
    # the config's experiments need no sigma value, the named one needs two
    jcycle_diag_at_two_modes(monkeypatch)
    cfg = write(tmp_path, "sigma = list:0.5\nexperiments = assembly_compare\n")
    out = tmp_path / "out"
    assert main(["run", "jcycle_diag", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "sigma" in err
    assert not out.exists() or not list(out.iterdir())
    assert main(["run", "assembly_compare", "--config", cfg, "--out", str(out)]) == 0


def test_kucerovsky_is_no_experiment_of_its_own(tmp_path, capsys):
    # its rows are jcycle_diag's, on the one materialized cycle
    out = tmp_path / "out"
    assert main(["run", "kucerovsky", "--out", str(out)]) == 2
    assert "unregistered experiment 'kucerovsky'" in capsys.readouterr().err
    assert not out.exists()
    cfg = write(tmp_path, "experiments = kucerovsky\n")
    assert main(["run", "all", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'kucerovsky'" in err
    assert not out.exists()


def test_run_all_solves_no_dense_eigenproblem_beyond_the_block_bound(tmp_path, monkeypatch):
    # every dense eigensolve of a default run is one conserved block, at most
    # 16 states up to modes = 6, energy_cut = 14; the memos are cleared
    # first, so what an earlier test built is built again here
    clear_memoized_builders()
    sizes = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, solve=solve, **kwargs:
                            sizes.append(np.shape(a)[-1]) or solve(a, *args, **kwargs))
    assert main(["run", "all", "--out", str(tmp_path)]) == 0
    assert sizes and max(sizes) <= 16


def test_run_all_materializes_the_j_cycle_once(tmp_path, monkeypatch):
    calls = []
    build = assembly.materialize_j_cycle
    monkeypatch.setattr(assembly, "materialize_j_cycle",
                        lambda *args, **kwargs: calls.append(args) or build(*args, **kwargs))
    assert main(["run", "all", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("modes, energy_cut", [(2, 4), (3, 4)])
def test_each_row_is_written_once_per_truncation(tmp_path, modes, energy_cut):
    # a config truncation among an experiment's fixed cases adds no second row
    cfg = Config(modes=modes, energy_cut=energy_cut)
    reports = {name: run_experiment(name, cfg, str(tmp_path)) for name in sorted(EXPERIMENTS)}
    for name, report in reports.items():
        pairs = [(row.quantity, row.truncation) for row in report.rows]
        assert len(pairs) == len(set(pairs)), name
    shells = [row.truncation for row in reports["kernel_count"].rows
              if row.quantity == "dirac_R^2 shells off the counted multiplicity"]
    assert shells == [f"N={modes},E={energy_cut}"]


@pytest.mark.parametrize("name, need", [("jcycle_diag", 1), ("jcycle_diag", 2)])
def test_each_experiment_runs_on_exactly_the_sigma_values_it_declares(tmp_path, capsys,
                                                                       monkeypatch, name, need):
    if need == 2:
        jcycle_diag_at_two_modes(monkeypatch)
    assert sigma_modes(name) == need
    values = ["0.5", "0.25", "0.125"][:need]
    cfg = write(tmp_path, f"sigma = list:{','.join(values)}\nexperiments = {name}\n")
    assert main(["run", name, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    # the config's own experiment reads no sigma, the named one reads need
    cfg = write(tmp_path, f"sigma = list:{','.join(values[:-1])}\n"
                          f"experiments = sigma_tails\n", name="short.txt")
    out = tmp_path / "short"
    assert main(["run", name, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "sigma" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e6", "1e-300", "1e300"])
def test_sigma_out_of_the_recurrence_range_is_a_clean_error(tmp_path, capsys, value):
    # sigma^2 overflows (1e300) or underflows (1e-300) the Laguerre recurrence
    # of the Xi coefficients; 1e6 overflows it only past the 4 quanta of
    # jcycle_diag's mode bases, and no experiment reads a config sigma at the
    # Xi cut 64, so it runs
    cfg = write(tmp_path, f"sigma = list:{value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "jcycle_diag", "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if value == "1e6":
        assert code == 0 and err == ""
    else:
        assert code == 2 and "Xi coefficients" in err and f"sigma={float(value)!r}" in err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"modes = 3\n# caf\xe9\n")
    assert main(["run", "weitzenbock", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_report_that_cannot_be_written_is_an_output_error(tmp_path, capsys):
    (tmp_path / "weitzenbock.csv").mkdir()
    assert main(["run", "weitzenbock", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_cli_harmonic_sigma_runs(tmp_path, capsys):
    cfg = write(tmp_path, "sigma = harmonic\nexperiments = jcycle_diag, assembly_compare, "
                          "sigma_tails\n")
    assert main(["run", "all", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the harmonic rule is divergent, so no untruncated bound exists
    assert "commutator bound inf" in (tmp_path / "jcycle_diag.txt").read_text()
    # and sigma_tails has no tail table to check
    tails = (tmp_path / "sigma_tails.txt").read_text()
    assert "checks: 0\n" in tails and "tail table skipped" in tails


def test_readme_config_block_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write(tmp_path, block))
    assert cfg == Config()
    # every sigma value the block documents is accepted as well
    sigma_line = next(ln for ln in block.splitlines() if ln.startswith("sigma"))
    alternatives = [alt.strip() for alt in sigma_line.split("# or", 1)[1].split(", or")]
    assert alternatives == ["harmonic", "list:0.5,0.25,0.125"]
    for alt in alternatives:
        parse_config(write(tmp_path, block.replace(sigma_line, f"sigma = {alt}")))


@pytest.mark.parametrize("via", ["--out", "KKINDEX_OUT"])
def test_cli_uncreatable_output_dir(tmp_path, capsys, monkeypatch, via):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "reports")
    argv = ["run", "all"]
    if via == "--out":
        argv += ["--out", target]
    else:
        monkeypatch.setenv("KKINDEX_OUT", target)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:") and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not list(tmp_path.rglob("*.csv"))


def test_cli_env_output_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("KKINDEX_OUT", str(target))
    assert main(["run", "kernel_count"]) == 0
    assert (target / "kernel_count.csv").exists()


def test_run_all_is_byte_identical_on_warm_and_cleared_builder_caches(tmp_path):
    # memoized factors are shared across experiments and runs: a value
    # changed in place by one run would show in the next one's reports
    clear_memoized_builders()
    outs = [tmp_path / f"run{k}" for k in range(3)]
    assert main(["run", "all", "--out", str(outs[0])]) == 0
    assert main(["run", "all", "--out", str(outs[1])]) == 0
    clear_memoized_builders()
    assert main(["run", "all", "--out", str(outs[2])]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names and all(sorted(os.listdir(out)) == names for out in outs)
    for name in names:
        for out in outs[1:]:
            assert filecmp.cmp(outs[0] / name, out / name, shallow=False), (out, name)


def test_run_all_is_byte_identical_across_blas_thread_counts(tmp_path):
    # a BLAS reduction may split its sum by the thread count; no report row
    # may follow it, at the default config or at the largest one README documents
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(kkindex.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    for case, config in (("default", ""), ("reach", "modes = 6\nenergy_cut = 14\n")):
        cfg = write(tmp_path, config, name=f"{case}.txt")
        stdout = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-m", "kkindex.cli", "run", "all", "--config",
                                   cfg, "--out", str(tmp_path / case / threads)], env=env,
                                  capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            stdout.append(proc.stdout)
        assert stdout[0] == stdout[1], case
        out = tmp_path / case
        names = sorted(os.listdir(out / "1"))
        assert names and sorted(os.listdir(out / "2")) == names
        for name in names:
            assert filecmp.cmp(out / "1" / name, out / "2" / name, shallow=False), (case, name)


def test_rerun_byte_identical(tmp_path):
    cfg_path = write(tmp_path, "modes = 2\nenergy_cut = 4\nseed = 99\n"
                               "experiments = weitzenbock, kernel_count, level_suite\n")
    cfg = parse_config(cfg_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        for name in ("weitzenbock", "kernel_count", "level_suite"):
            run_experiment(name, cfg, str(out))
    for name in os.listdir(out1):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_config_seed_reaches_the_cut_off_pairing_rows(tmp_path):
    # level_vanishing_pattern draws its module legs from the config seed
    cut_off = {}
    for seed in (Config().seed, 99):
        out = tmp_path / f"seed{seed}"
        assert run_experiment("level_suite", Config(seed=seed), str(out)).ok
        with open(out / "level_suite.csv", encoding="utf-8") as fh:
            cut_off[seed] = [row for row in csv.reader(fh)
                             if row and row[0].startswith("cut-off pairing")]
    default, other = cut_off.values()
    assert len(default) == len(other) == 5
    for a, b in zip(default, other):
        assert a[:2] == b[:2]
        # the vanishing rows are rounding-level draws; the level-1 rows are 1
        assert (a[2] != b[2]) == ("vanishes" in a[0]), a


def imported_modules(env, *args):
    """The module names ``python -X importtime`` reports for ``args``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


@pytest.fixture(scope="module")
def default_run_all_imports(tmp_path_factory):
    """Modules a bare ``import numpy`` loads, and those a default
    ``kkindex run all`` loads, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(kkindex.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path_factory.mktemp("run-all") / "out"
    return (imported_modules(env, "-c", "import numpy"),
            imported_modules(env, "-m", "kkindex.cli", "run", "all", "--out", str(out)))


def test_default_run_all_never_imports_numpy_ma(default_run_all_imports):
    bare, modules = default_run_all_imports
    if "numpy.ma" in bare:
        pytest.skip("a bare 'import numpy' already loads numpy.ma")
    assert "kkindex.experiments" in modules
    assert "numpy.ma" not in modules


def test_default_run_all_never_imports_numpy_fft(default_run_all_imports):
    # the finite model's characters and clock matrices are built with numpy
    # core; numpy.fft would cost every fresh process its import
    bare, modules = default_run_all_imports
    if "numpy.fft" in bare:
        pytest.skip("a bare 'import numpy' already loads numpy.fft")
    assert "kkindex.experiments" in modules
    assert "numpy.fft" not in modules


def test_default_run_all_never_imports_numpy_polynomial(default_run_all_imports):
    # the quadrature of |dR_z Xi| is the two-point Gauss-Legendre rule in
    # closed form; numpy.polynomial would cost every fresh process its import
    bare, modules = default_run_all_imports
    if "numpy.polynomial" in bare:
        pytest.skip("a bare 'import numpy' already loads numpy.polynomial")
    assert "kkindex.experiments" in modules
    assert "numpy.polynomial" not in modules


def test_default_run_all_never_imports_numpy_random(default_run_all_imports):
    # every random input is drawn from Lcg; numpy.random would pull secrets,
    # hashlib and OpenSSL's _hashlib into every fresh process
    bare, modules = default_run_all_imports
    if "numpy.random" in bare:
        pytest.skip("a bare 'import numpy' already loads numpy.random")
    assert "kkindex.experiments" in modules
    assert "numpy.random" not in modules
    assert not {"secrets", "_hashlib"} & (modules - bare)
