"""One ``lab_default`` pass: the kkindex CLI in a fresh process, under a
speedometer.

Usage (started by ``run.py``)::

    python3 perfbench/cli_pass.py PROBE_JSON run all --config CFG --out DIR

Runs ``kkindex.cli.main`` on the arguments after ``PROBE_JSON``, as
``python -m kkindex.cli`` would, writes the mean probe time and the probe
count to ``PROBE_JSON`` and exits with the CLI's status.
"""

from __future__ import annotations

import json
import sys

from speedometer import Speedometer


def main(argv) -> int:
    probe_path, cli_args = argv[0], argv[1:]
    with Speedometer() as meter:
        from kkindex import cli
        code = cli.main(cli_args)
    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump({"probe_s": meter.mean_s(), "probes": len(meter.samples)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
