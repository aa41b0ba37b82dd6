"""Child process of the benchmark: imports the lab, builds one workload's
inputs and runs passes on request.

Usage (started by ``run.py``, one JSON object per line on stdin/stdout)::

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        --mode setup|serve

``setup`` mode exits once the inputs are built, so the parent can time
interpreter start, ``import kkindex`` and input construction; its reply
carries the speedometer's mean probe time over that work (see
``speedometer.py``).  ``serve`` mode then answers
``{"op": "pass", "id": k, "traced": 0|1, "probe": 0|1}`` with the pass
wall time, its checks, deterministic facts, peak RSS, the mean probe time
when ``probe`` is set and the per-layer metrics when ``traced`` is;
``{"op": "quit"}`` writes the recorded spans once and exits.  Anything the
lab prints goes to ``/dev/null``; the protocol uses a duplicate of the
original stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

from speedometer import Speedometer  # the script's directory is on sys.path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _protocol_stream():
    fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return os.fdopen(fd, "w", buffering=1, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "serve"), required=True)
    args = parser.parse_args(argv)
    proto = _protocol_stream()

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    with Speedometer() as meter:
        import kkindex
        import kkindex.cli  # noqa: F401  (the CLI and experiments are part of the lab)
        import numpy

        src = os.path.join(ROOT, "src") + os.sep
        if not os.path.abspath(kkindex.__file__).startswith(src):
            print(f"kkindex imported from {kkindex.__file__}, not from {src}",
                  file=sys.stderr)
            return 2
        import workloads

        inputs = workloads.setup(args.workload, args.seed, args.workdir)
        if args.mode == "serve":
            workloads.warm_up(args.workload, args.seed, args.workdir)
    send({"ready": True, "numpy": numpy.__version__, "python": sys.version.split()[0],
          "rss_mb": peak_rss_mb(), "probe_s": meter.mean_s()})
    if args.mode == "setup":
        return 0

    from tracer import Tracer
    tracer = Tracer()
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "quit":
            if tracer.spans:
                tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
            send({"rss_mb": peak_rss_mb(), "spans": len(tracer.spans)})
            return 0
        traced = bool(cmd["traced"])
        if traced:
            tracer.install()
            tracer.begin_pass(cmd["id"])
        error = None
        with Speedometer() if cmd["probe"] else contextlib.nullcontext() as meter:
            start = time.perf_counter()
            try:
                checks, facts = workloads.run_pass(args.workload, inputs)
            except Exception:  # a failing pass is a result, not a crash
                error = traceback.format_exc(limit=8)
                checks, facts = [], {}
            wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        reply = {
            "seconds": wall,
            "checks": [list(c) for c in checks],
            "error": error,
            "facts": facts,
            "rss_mb": peak_rss_mb(),
            "probe_s": meter.mean_s() if meter else None,
        }
        if traced:
            reply["layers"] = tracer.layer_metrics(cmd["id"], wall)
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
