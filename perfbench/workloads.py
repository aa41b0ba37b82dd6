"""The benchmark workloads: inputs from a seed, one pass, and the gates.

Each gate compares two independent routes to one quantity and yields a
:class:`Check`; the failed checks over the attempted ones give the
benchmark's failure ratio.  Sizes are fixed here; the seed only drives the
random inputs (the config seed and the group-algebra elements).

This module imports the lab lazily, inside the functions that need it, so
the parent process can use the lab-output gates without importing it.
"""

from __future__ import annotations

import csv
import io
import os
from typing import NamedTuple

WORKLOADS = ("lab_default", "twisted_groups")

TWISTED = {"heisenberg": 8, "levels": 4, "finite": 5}
# the same code paths at small sizes, for the warm-up pass and the tests
SMALL_SIZES = {"twisted_groups": {"heisenberg": 2, "levels": 2, "finite": 3}}


class Check(NamedTuple):
    name: str
    ok: bool
    value: float


def seed32(seed: int) -> int:
    return seed % (1 << 32)


# ------------------------------------------------------------ lab_default


def lab_config_text(seed: int) -> str:
    return f"# default lab config with the benchmark seed\nseed = {seed}\n"


def read_reports(out_dir: str) -> dict:
    reports = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            reports[name] = fh.read()
    return reports


def lab_checks(exit_code: int, reports: dict, reference: dict = None) -> list:
    """Gates of one ``kkindex run all`` pass: exit status 0, every CSV row
    ``ok``, and reports byte-identical to an earlier pass of the same seed."""
    checks = [Check("exit status 0", exit_code == 0, float(exit_code))]
    for name, data in reports.items():
        if not name.endswith(".csv"):
            continue
        rows = csv.reader(io.StringIO(data.decode("utf-8")))
        for row in rows:
            if not row or row[0].startswith("#") or row[0] == "quantity":
                continue
            checks.append(Check(f"{name[:-4]}: {row[0]} [{row[1]}]",
                                row[-1] == "1", float(row[4])))
    if reference is not None:
        same = reports == reference
        checks.append(Check("reports byte-identical to the first pass", same,
                            0.0 if same else 1.0))
    return checks


def setup_lab(seed: int, workdir: str) -> dict:
    cfg = os.path.join(workdir, "lab.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(lab_config_text(seed))
    return {"config": cfg, "workdir": workdir, "reference": None, "passes": 0}


def pass_lab_inprocess(inp: dict):
    """One ``kkindex run all`` through ``kkindex.cli.main`` in this process."""
    from kkindex import cli

    out_dir = os.path.join(inp["workdir"], f"out-{os.getpid()}-{inp['passes']}")
    inp["passes"] += 1
    exit_code = cli.main(["run", "all", "--config", inp["config"], "--out", out_dir])
    if exit_code != 0:
        raise RuntimeError(f"kkindex run all exited with status {exit_code}")
    reports = read_reports(out_dir)
    checks = lab_checks(exit_code, reports, inp["reference"])
    if inp["reference"] is None:
        inp["reference"] = reports
    for name in reports:
        os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)
    return checks, {"reports": len(reports)}


# ------------------------------------------------------------ twisted_groups


def setup_twisted(seed: int, heisenberg: int, levels: int, finite: int) -> dict:
    import numpy as np
    from kkindex import twistgroup as tg

    def heis(n):
        group = tg.FiniteAbelianGroup((n, n))
        return group, tg.heisenberg_cocycle(group)

    group, tau = heis(heisenberg)
    ext = tg.TwistedExtension(tau)
    rng = np.random.default_rng(seed32(seed))
    n = group.order

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        "group": group, "tau": tau, "ext": ext,
        "f1": tg.GroupAlgebraElement(ext, cvec(n), 1),
        "h1": tg.GroupAlgebraElement(ext, cvec(n), 1),
        "f0": tg.GroupAlgebraElement(ext, cvec(n), 0),
        "a": tg.CrossedProductElement.translation(group, cvec(n, n)),
        "b": tg.CrossedProductElement.translation(group, cvec(n, n)),
        "levels": heis(levels), "finite": heis(finite), "seed": seed32(seed),
        "blocks": [heisenberg],
    }


def pass_twisted(inp: dict):
    """Cocycle, level and crossed-product identities on Heisenberg groups."""
    import numpy as np
    from kkindex import assembly
    from kkindex import twistgroup as tg

    ext = inp["ext"]
    violations = len(tg.check_cocycle(inp["tau"]))
    distinct = tg.convolve(inp["f1"], inp["f0"]).max_abs()
    tagged = tg.convolve(inp["f1"], inp["h1"]).table()
    untagged = tg.convolve(tg.GroupAlgebraElement(ext, inp["f1"].table()),
                           tg.GroupAlgebraElement(ext, inp["h1"].table())).values
    level_dev = float(np.max(np.abs(tagged - untagged)) / max(np.max(np.abs(tagged)), 1.0))
    a, b = inp["a"], inp["b"]
    lhs = tg.schatten_map(tg.crossed_convolve(a, b)).to_dense()
    rhs = tg.schatten_map(a).to_dense() @ tg.schatten_map(b).to_dense()
    schatten = float(np.max(np.abs(lhs - rhs)))
    blocks = tg.decompose_twisted_algebra(inp["group"], inp["tau"])
    rows = assembly.level_vanishing_pattern(*inp["levels"], seed=inp["seed"])
    # brute-force pairing vanishes exactly where the character factor does
    pattern_ok = all((value <= 1e-10) == (character <= 1e-12)
                     for _, value, character in rows)
    fin = assembly.finite_group_assembly(*inp["finite"], seed=inp["seed"])
    checks = [
        Check("cocycle violations = 0", violations == 0, float(violations)),
        Check("distinct levels convolve to exact zero", distinct == 0.0, distinct),
        Check("tagged = untagged convolution at level 1", level_dev <= 1e-10, level_dev),
        Check("schatten multiplicativity <= 1e-10", schatten <= 1e-10, schatten),
        Check("block decomposition", blocks == inp["blocks"], float(len(blocks))),
        Check("level vanishing pattern = character factors", pattern_ok,
              float(len(rows))),
        Check("finite assembly spectra deviation <= 1e-8", fin.deviation <= 1e-8,
              fin.deviation),
        Check("finite assembly cross term <= 1e-8", fin.compressed_cross <= 1e-8,
              fin.compressed_cross),
    ]
    group = inp["group"]
    return checks, {"order": group.order, "m": ext.m, "triples": group.order ** 3,
                    "blocks": blocks, "level_order": inp["levels"][0].order,
                    "finite_order": inp["finite"][0].order}


# ------------------------------------------------------------ dispatch

CHECKS_PER_PASS = {"twisted_groups": 8}


def setup(workload: str, seed: int, workdir: str, sizes: dict = None) -> dict:
    if workload == "lab_default":
        return setup_lab(seed, workdir)
    if workload == "twisted_groups":
        return setup_twisted(seed, **(sizes or TWISTED))
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, seed: int, workdir: str) -> None:
    """A small pass through the same code, so that first-call costs (lazy
    imports, BLAS thread start) are paid before any timed pass."""
    if workload == "lab_default":
        from kkindex import cli
        out_dir = os.path.join(workdir, "warm-up")
        cli.main(["run", "weitzenbock", "--out", out_dir])
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))
        os.rmdir(out_dir)
        return
    run_pass(workload, setup(workload, seed, workdir, SMALL_SIZES[workload]))


def run_pass(workload: str, inp: dict):
    """One in-process pass; returns ``(checks, facts)``."""
    return {"lab_default": pass_lab_inprocess,
            "twisted_groups": pass_twisted}[workload](inp)
