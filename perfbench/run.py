"""Benchmark of the kkindex lab: two workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload twisted_groups --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Workloads (see ``workloads.py``; the seed only drives random inputs):

* ``lab_default``: ``kkindex run all`` on the default config, each pass a
  fresh CLI process, as users run it;
* ``twisted_groups``: cocycle, convolutions, crossed product and block
  decomposition on Heisenberg Z8xZ8, plus the finite-group assembly models.

Every layer is measured inside ``lab_default``.  Workloads that stress
sparse construction (``dirac_R``/``dirac_L`` at N=5, E=12) or dense
eigensolves (N=4, E=10) on their own are left out: on a shared 2-core
machine their per-run medians spread by 12-32% (quartile distance over
median, ten seeds) from run to run, beyond any usable bound.

The lab is a synchronous batch job run as a closed loop with one client:
one pass at a time, the next starting when the previous ends, so no work
ever waits and no wait metric exists.  Every pass runs in a child process
under a wall-clock cap; a pass that raises, exits non-zero or is killed at
the cap counts all its checks as failed.

``--trace 0`` reports ``pass_s`` (median seconds of a warm pass; a fresh
process for ``lab_default``), ``setup_s`` (median over several launches of
interpreter start, ``import kkindex`` and input construction) and
``peak_rss_mb``.  Both times are wall times scaled to a reference speed of
the core by a speedometer that samples it during the measured work (see
``speedometer.py``): on a shared host the raw medians of the same code
move by a fifth from run to run.  The raw medians are printed as facts.
The pass and everything it calls run on one thread: BLAS is pinned to one
thread, so the other core stays free for the rest of the machine.
``--trace 1`` alternates untraced and traced in-process passes and reports
the per-layer metrics of ``tracer.LAYER_METRICS`` plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; failed and attempted
count correctness checks, so ``fail_ratio = failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speedometer import PROBE_REF_S, scaled  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 7          # timed launches per run, after one priming launch
MIN_PASSES = 2             # per run, even when one pass outlasts --seconds
PASS_CAP_S = 90.0          # wall-clock cap of a single pass
RUN_LIMIT_S = 165.0        # no pass may run past this point of a run
SETUP_CAP_S = 60.0
BLAS_THREADS = 1           # pinned: one busy thread per pass, the other core stays free
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The lab could not be set up; no result is printed."""


# ------------------------------------------------------------ environment


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, cores()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_id(root: str) -> str:
    """Git SHA when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


# ------------------------------------------------------------ child processes


def run_capped(cmd, cap_s, env, cwd, stderr):
    """Run ``cmd`` to completion or kill it at ``cap_s`` seconds.

    Returns ``(wall seconds, exit code, timed out, peak RSS MB)``; the RSS is
    the child's own, read from ``wait4``.
    """
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(cap_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, killed.is_set(), usage.ru_maxrss / 1024.0


class Worker:
    """One ``worker.py`` child speaking line-delimited JSON."""

    def __init__(self, root, env, workload, seed, workdir, mode):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", workdir, "--mode", mode],
            env=env, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def receive(self, cap_s):
        """Next reply, or None when the child died or exceeded ``cap_s``."""
        ready, _, _ = select.select([self.proc.stdout], [], [], max(cap_s, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def request(self, cmd, cap_s):
        try:
            self.proc.stdin.write(json.dumps(cmd) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self.receive(cap_s)

    def stop(self, timeout=30.0):
        if self.proc.poll() is None:
            try:
                self.request({"op": "quit"}, timeout)
            except (BrokenPipeError, ValueError):
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.close()

    def close(self):
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (BrokenPipeError, OSError):
                pass


def time_setup(root, env, workload, seed, workdir, cap_s):
    """Seconds from launching a child until its inputs are built."""
    worker = Worker(root, env, workload, seed, workdir, "setup")
    try:
        ready = worker.receive(cap_s)
        elapsed = time.perf_counter() - worker.start
        worker.proc.wait(timeout=cap_s)
    except subprocess.TimeoutExpired:
        ready = None
    finally:
        if worker.proc.poll() is None:
            worker.kill()
        worker.close()
    if not ready:
        raise BenchError(f"{workload}: setup failed (exit {worker.proc.returncode})")
    return elapsed, ready


# ------------------------------------------------------------ passes


def remaining(run_start, cap_s):
    """``cap_s``, shortened so that nothing runs past ``RUN_LIMIT_S``."""
    return min(cap_s, RUN_LIMIT_S - (time.perf_counter() - run_start))


def failed_checks(n_checks, why):
    return [[why, False, 0.0]] * max(n_checks, 1)


def failed_pass(seconds, n_checks, why, timed_out):
    return {"seconds": seconds, "scaled_s": seconds, "checks": failed_checks(n_checks, why),
            "timed_out": timed_out, "facts": {}, "rss_mb": 0.0, "error": why}


def lab_cli_passes(root, env, seed, workdir, seconds, run_start):
    """Untraced lab_default: each pass is ``python -m kkindex.cli run all``."""
    cfg = os.path.join(workdir, "lab.cfg")
    passes, reference, n_checks = [], None, 1
    stderr_path = os.path.join(workdir, "cli-stderr.txt")
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        cap = remaining(run_start, PASS_CAP_S)
        if cap < 1.0:
            break
        out_dir = os.path.join(workdir, f"out-{len(passes)}")
        probe_path = os.path.join(workdir, "probe.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_pass.py"), probe_path,
               "run", "all", "--config", cfg, "--out", out_dir]
        with open(stderr_path, "w", encoding="utf-8") as err:
            wall, code, timed_out, rss = run_capped(cmd, cap, env, root, err)
        if timed_out:
            passes.append(failed_pass(wall, n_checks, "killed at the wall-clock cap", True))
        else:
            reports = workloads.read_reports(out_dir) if os.path.isdir(out_dir) else {}
            checks = workloads.lab_checks(code, reports, reference)
            if reference is None and code == 0:
                reference = reports
            n_checks = max(n_checks, len(checks))
            if code != 0:
                checks = failed_checks(n_checks, f"exit status {code}")
            error = None
            if code != 0:
                with open(stderr_path, encoding="utf-8") as err:
                    error = err.read()[-2000:]
            try:
                with open(probe_path, encoding="utf-8") as fh:
                    probe_s = json.load(fh)["probe_s"]
                os.remove(probe_path)
            except FileNotFoundError:  # the CLI raised before writing it
                probe_s = None
            passes.append({"seconds": wall,
                           "scaled_s": scaled(wall, probe_s) if probe_s else wall,
                           "checks": [list(c) for c in checks],
                           "timed_out": False, "facts": {"reports": len(reports)},
                           "rss_mb": rss, "error": error})
        shutil.rmtree(out_dir, ignore_errors=True)
    return passes


def worker_passes(root, env, workload, seed, workdir, seconds, trace, run_start):
    """Passes inside a warm worker; with ``trace`` they alternate untraced and
    traced.  A pass that dies or exceeds the cap kills the worker, counts as
    failed, and the next pass starts a fresh worker."""
    passes, worker, n_checks = [], None, workloads.CHECKS_PER_PASS.get(workload, 1)
    begin = None
    try:
        while True:
            if begin is not None and time.perf_counter() - begin >= seconds and (
                    len(passes) >= MIN_PASSES):
                break
            if worker is None:
                worker = Worker(root, env, workload, seed, workdir, "serve")
                if not worker.receive(remaining(run_start, SETUP_CAP_S)):
                    raise BenchError(f"{workload}: worker setup failed")
                begin = begin or time.perf_counter()
            cap = remaining(run_start, PASS_CAP_S)
            if cap < 1.0:
                break
            traced = trace and len(passes) % 2 == 1
            start = time.perf_counter()
            # in a traced run the probes would blur the tracing overhead
            reply = worker.request({"op": "pass", "id": len(passes), "traced": int(traced),
                                    "probe": int(not trace)}, cap)
            if reply is None:
                timed_out = worker.proc.poll() is None
                worker.kill()
                worker = None
                passes.append(failed_pass(time.perf_counter() - start, n_checks,
                                          "killed at the wall-clock cap" if timed_out
                                          else "worker died", timed_out))
                continue
            reply["traced"] = traced
            reply["timed_out"] = False
            if reply["error"]:
                reply["checks"] = failed_checks(n_checks, "pass raised")
            n_checks = max(n_checks, len(reply["checks"]))
            if reply["probe_s"]:
                reply["scaled_s"] = scaled(reply["seconds"], reply["probe_s"])
            passes.append(reply)
        if worker is not None:
            worker.stop()
            worker = None
    finally:
        if worker is not None:
            worker.kill()
    return passes


# ------------------------------------------------------------ one workload


def run_workload(root, workload, seed, seconds, trace):
    env = child_env(root)
    workdir = os.path.join(root, ".bench_out", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run_start = time.perf_counter()
    try:
        # the first launch fills bytecode and file caches
        time_setup(root, env, workload, seed, workdir, remaining(run_start, SETUP_CAP_S))
        setups = []
        for _ in range(SETUP_SAMPLES):
            wall, ready = time_setup(root, env, workload, seed, workdir,
                                     remaining(run_start, SETUP_CAP_S))
            setups.append((wall, scaled(wall, ready["probe_s"])))
        if workload == "lab_default" and not trace:
            passes = lab_cli_passes(root, env, seed, workdir, seconds, run_start)
        else:
            passes = worker_passes(root, env, workload, seed, workdir, seconds, trace,
                                   run_start)
    finally:
        for name in os.listdir(workdir):
            path = os.path.join(workdir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
    return summarize(root, workload, seed, seconds, trace, passes, setups, ready, workdir)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(root, workload, seed, seconds, trace, passes, setups, ready, workdir):
    """``setups`` holds ``(wall, scaled)`` seconds per launch."""
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(1 for c in checks if not c[1])
    timed = [p for p in passes if not p.get("traced") and not p["timed_out"]]
    plain = [p["seconds"] for p in timed]
    scaled_passes = [p for p in timed if "scaled_s" in p]  # none in a traced run
    metrics = {}
    if trace:
        traced = [p for p in passes if p.get("traced") and "layers" in p]
        for name, unit, _ in LAYER_METRICS:
            values = [p["layers"].get(name, 0) for p in traced]
            metrics[name] = {"value": _median(values), "unit": unit}
        traced_s = _median([p["seconds"] for p in traced])
        metrics["trace.pass_s"]["value"] = traced_s
        metrics["trace.untraced_pass_s"]["value"] = _median(plain)
        metrics["trace.overhead_s"]["value"] = traced_s - _median(plain)
    else:
        values = {"pass_s": _median([p["scaled_s"] for p in scaled_passes]),
                  "setup_s": _median([s for _, s in setups]),
                  "peak_rss_mb": max((p["rss_mb"] for p in passes), default=0.0)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    facts = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes), "plain_passes": len(plain),
        "wall_pass_s": _median(plain), "wall_setup_s": _median([w for w, _ in setups]),
        "pass_samples_s": [round(s, 4) for s in plain],
        "scaled_pass_samples_s": [round(p["scaled_s"], 4) for p in scaled_passes],
        "setup_samples_s": [round(w, 4) for w, _ in setups],
        "probe_us": [round(p["seconds"] / p["scaled_s"] * PROBE_REF_S * 1e6, 2)
                     for p in scaled_passes],
        "checks_per_pass": [len(p["checks"]) for p in passes],
        "facts": passes[-1]["facts"] if passes else {},
        "source": source_id(root), "nproc": cores(),
        "blas_threads": min(BLAS_THREADS, cores()), "numpy": ready.get("numpy"),
        "python": ready.get("python"),
        "errors": [p["error"] for p in passes if p.get("error")][:2],
        "failed_checks": sorted({f"{c[0]} ({c[2]:.3g})" for c in checks if not c[1]})[:10],
    }
    result = {"correct": bool(passes) and failed == 0, "attempted": max(len(checks), 1),
              "failed": failed if checks else 1, "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result}, fh, indent=1)
    return result, facts


def report_lines(result, facts):
    """Human-readable summary printed before the JSON line."""
    ratio = result["failed"] / result["attempted"]
    lines = [f"workload {facts['workload']}: seed {facts['seed']}, "
             f"{facts['passes']} passes in about {facts['seconds']} s, "
             "closed loop with one client (no waiting by construction)"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if not facts["trace"]:
        lines.append(f"  pass_s and setup_s are medians of {facts['plain_passes']} passes and "
                     f"{len(facts['setup_samples_s'])} launches, scaled to the reference "
                     f"speed (probe {PROBE_REF_S * 1e6:g} us); unscaled wall medians "
                     f"{facts['wall_pass_s']:.6g} s and {facts['wall_setup_s']:.6g} s; no tail "
                     "percentile (fewer than 10 samples beyond any)")
    lines.append(f"  fail_ratio                       {ratio:.6g} "
                 f"({result['failed']} of {result['attempted']} checks)")
    lines.append("  facts " + json.dumps({k: facts[k] for k in (
        "facts", "checks_per_pass", "source", "nproc", "blas_threads", "numpy", "python")}))
    for msg in facts["errors"]:
        lines.append("  error: " + msg.strip().replace("\n", "\n    "))
    if facts["failed_checks"]:
        lines.append("  failed checks: " + "; ".join(facts["failed_checks"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "kkindex", "__init__.py")):
        print(f"error: no lab sources under {os.path.join(root, 'src', 'kkindex')}",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result, facts in results:
        print("\n".join(report_lines(result, facts)))
    if args.workload == "all":
        print(json.dumps({facts["workload"]: result for result, facts in results}))
    else:
        print(json.dumps(results[0][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
