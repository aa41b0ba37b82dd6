"""Tests of the benchmark itself: gates, tracer accounting, caps, contract.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speedometer  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kkindex import dirac, opcore, twistgroup  # noqa: E402

SMALL = workloads.SMALL_SIZES


def failed_names(checks):
    return [c.name for c in checks if not c.ok]


def run_small(workload, tmp_path, seed=5):
    inputs = workloads.setup(workload, seed, str(tmp_path), SMALL[workload])
    checks, _ = workloads.run_pass(workload, inputs)
    return checks


# ------------------------------------------------------------ gates


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("seed", [5, 123456789])
def test_unstubbed_small_passes_every_gate(workload, seed, tmp_path):
    checks = run_small(workload, tmp_path, seed)
    assert len(checks) == workloads.CHECKS_PER_PASS[workload]
    assert failed_names(checks) == []


def test_wrong_block_decomposition_trips_its_gate(monkeypatch, tmp_path):
    monkeypatch.setattr(twistgroup, "decompose_twisted_algebra", lambda g, t: [1] * g.order)
    assert failed_names(run_small("twisted_groups", tmp_path)) == ["block decomposition"]


def test_reported_cocycle_violation_trips_its_gate(monkeypatch, tmp_path):
    check = twistgroup.check_cocycle
    calls = []

    def once_wrong(tau):
        # only the pass's own call is wrong; the decomposition's call is not
        calls.append(tau)
        return [("identity", 0, 0, 0)] if len(calls) == 1 else check(tau)

    monkeypatch.setattr(twistgroup, "check_cocycle", once_wrong)
    assert failed_names(run_small("twisted_groups", tmp_path)) == ["cocycle violations = 0"]


def test_nonzero_cross_level_product_trips_its_gate(monkeypatch, tmp_path):
    convolve = twistgroup.convolve

    def leaky(f, h):
        out = convolve(f, h)
        if f.level is not None and h.level is not None and f.level != h.level:
            return out.add(twistgroup.GroupAlgebraElement(out.ext, out.values + 1e-3,
                                                          out.level))
        return out

    monkeypatch.setattr(twistgroup, "convolve", leaky)
    assert failed_names(run_small("twisted_groups", tmp_path)) == [
        "distinct levels convolve to exact zero"]


CSV = ("# kk-index-lab v1\nquantity,truncation,measured,expected,margin,ok\n"
       "a,N=1,0,0,0,1\nb,N=1,2,0,2,{ok}\n")


def test_lab_gates_catch_failed_rows_exit_status_and_drift():
    good = {"x.csv": CSV.format(ok=1).encode(), "x.txt": b"status: ok\n"}
    assert failed_names(workloads.lab_checks(0, good, dict(good))) == []
    bad_row = {"x.csv": CSV.format(ok=0).encode(), "x.txt": b"status: ok\n"}
    assert failed_names(workloads.lab_checks(0, bad_row)) == ["x: b [N=1]"]
    assert failed_names(workloads.lab_checks(1, good)) == ["exit status 0"]
    drift = dict(good, **{"x.txt": b"status: FAIL\n"})
    assert failed_names(workloads.lab_checks(0, drift, good)) == [
        "reports byte-identical to the first pass"]


# ------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_times_of_nested_calls_sum_to_the_wall_time():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap("m.leaf", lambda: clock.work(3.0))

    def inner_body():
        clock.work(2.0)
        leaf()

    inner = tr.wrap("m.inner", inner_body)

    def outer_body():
        clock.work(1.0)
        inner()
        clock.work(4.0)
        leaf()

    outer = tr.wrap("m.outer", outer_body)
    tr.begin_pass(7)
    start = clock()
    outer()
    wall = clock() - start
    layers = tr.layer_metrics(7, wall)
    assert layers["m.outer.self_s"] == 5.0
    assert layers["m.inner.self_s"] == 2.0
    assert layers["m.leaf.self_s"] == 6.0 and layers["m.leaf.calls"] == 2
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == wall == 13.0
    assert layers["trace.uncovered_ratio"] == 0.0


def test_self_times_sum_to_real_wall_time():
    tr = tracer.Tracer()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = tr.wrap("m.leaf", lambda: spin(0.01))
    outer = tr.wrap("m.outer", lambda: [spin(0.01), leaf(), leaf()])
    tr.begin_pass(0)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    layers = tr.layer_metrics(0, wall)
    total = layers["m.outer.self_s"] + layers["m.leaf.self_s"]
    assert abs(total - wall) < 1e-3
    assert layers["trace.uncovered_ratio"] < 0.05


def test_install_wraps_rebound_names_and_uninstall_restores_them():
    plain = (dirac.eigh_gram, opcore.eigh_gram, opcore.SparseOperator.__init__)
    assert dirac.eigh_gram is opcore.eigh_gram
    tr = tracer.Tracer()
    tr.install()
    try:
        assert dirac.eigh_gram is opcore.eigh_gram is not plain[1]
        from kkindex import fock
        tr.begin_pass(1)
        op, _ = dirac.build_dirac_R(fock.TruncationSpec(2, 3))
        dirac.kernel(op)
        layers = tr.layer_metrics(1, 1.0)
    finally:
        tr.uninstall()
    assert (dirac.eigh_gram, opcore.eigh_gram, opcore.SparseOperator.__init__) == plain
    assert layers["opcore.eigensolve.calls"] == 1
    assert layers["linalg.eig.calls"] == 1
    assert layers["dirac.build.calls"] == 1 and layers["dirac.spectrum.calls"] == 1
    assert layers["dirac.triple_space.calls"] == 1


def test_errors_count_once_per_layer():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("x")

    inner = tr.wrap("a.inner", boom)
    outer = tr.wrap("a.outer", inner)
    other = tr.wrap("b.outer", outer)
    tr.begin_pass(0)
    with pytest.raises(ValueError):
        other()
    assert dict(tr.errors) == {"a": 1, "b": 1}


# ------------------------------------------------------------ harness


def test_speedometer_samples_busy_work_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with speedometer.Speedometer() as meter:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 10
    assert 0.0 < meter.mean_s() < 0.1
    # a core running at half the reference speed halves the scaled time
    assert speedometer.scaled(2.0, 2 * speedometer.PROBE_REF_S) == 1.0


def test_hung_pass_is_killed_at_the_cap():
    start = time.perf_counter()
    wall, code, timed_out, _ = run.run_capped(
        [sys.executable, "-c", "import time; time.sleep(60)"], 0.5, dict(os.environ),
        ROOT, subprocess.DEVNULL)
    assert timed_out and code != 0
    assert time.perf_counter() - start < 10.0 and wall < 10.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS]


def test_without_lab_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "twisted_groups",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
