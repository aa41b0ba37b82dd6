"""Command line entry point.

``kkindex run <experiment|all> --config <path> --out <dir>`` executes
registered experiments and writes deterministic CSV + text reports, and
prints one line per experiment naming its worst row and that row's
headroom; ``kkindex list`` prints the registry.  The ``KKINDEX_OUT``
environment variable overrides the output directory.  Exit status is 0
iff every report row is within its own tolerance, 1 on a failed check, 2
on usage, config, output (directory or report file) or component errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (EXPERIMENTS, Config, ConfigError, parse_config, release_dirac_R,
                          run_experiment, selected_experiments)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kkindex",
                                     description="operator-lab experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment or 'all'")
    runp.add_argument("experiment")
    runp.add_argument("--config", default=None, help="key = value config file")
    runp.add_argument("--out", default=None, help="output directory")
    sub.add_parser("list", help="list registered experiments")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    try:
        cfg = parse_config(args.config) if args.config else Config()
        names = selected_experiments(cfg, args.experiment)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get("KKINDEX_OUT") or cfg.output_dir

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    all_ok = True
    for i, name in enumerate(names):
        try:
            report = run_experiment(name, cfg, out_dir)
        except KeyError:
            print(f"unregistered experiment {name!r}; 'kkindex list' shows the registry",
                  file=sys.stderr)
            return 2
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
        release_dirac_R(names[i + 1:])
        status = "ok" if report.ok else "FAIL"
        print(f"{name:18s} {status:4s} checks={len(report.rows):3d} "
              f"worst: {report.worst()}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
