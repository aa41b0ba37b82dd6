"""Span tracer that wraps the lab's layer boundaries from outside.

Each wrapped call records one span ``[name, start, end, parent, pass_id]``
in memory; a layer's self time is its span durations minus the part covered
by its child spans.  Nothing under ``src/`` is edited: :meth:`Tracer.install`
replaces module attributes (every re-bound name included, such as
``dirac.eigh_gram`` imported from ``opcore``) and class methods, and
:meth:`Tracer.uninstall` restores them, so untraced passes run the
unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, boundary) -> module-level function names and (class, method) pairs.
# Public functions of a module's ``__all__`` not named here become
# ``<module>.other``; names a later version of the lab drops are skipped.
BOUNDARIES = {
    "opcore": {
        "op_init": [("SparseOperator", "__init__")],
        "matmul": [("SparseOperator", "__matmul__")],
        "algebra": [("SparseOperator", "__add__"), ("SparseOperator", "__sub__"),
                    ("SparseOperator", "scale"), ("SparseOperator", "chop"),
                    "adjoint", "graded_commutator"],
        "to_dense": [("SparseOperator", "to_dense")],
        "eigensolve": ["spectrum", "eigh_gram"],
        "other": [("SparseOperator", "apply"), ("SparseOperator", "max_abs"),
                  ("SparseOperator", "from_dense"), ("SparseOperator", "to_text")],
    },
    "fock": {
        "enumerate": ["enumerate_basis"],
        "ladder": ["boson_raise", "boson_lower", "dual_raise", "dual_lower",
                   "clifford", "number_op", "energy_op"],
    },
    "dirac": {
        "triple_space": [("TripleSpace", "__init__")],
        "embed": [("TripleSpace", "embed_factor_op")],
        "build": ["build_dirac_R", "build_dirac_L"],
        "spectrum": ["spectrum_with_prediction", "kernel", "weitzenbock_residual"],
    },
    "limitspace": {
        "xi": ["xi_coeffs"],
        "quadrature": ["radial_quadrature"],
        "ladder": ["mode_basis", "ladder_matrices", "dRz_matrix", "dRzbar_matrix"],
    },
    "twistgroup": {
        "cocycle": ["check_cocycle"],
        "convolve": ["convolve"],
        "crossed": ["crossed_convolve", "mishchenko", "regular_representation",
                    "schatten_map"],
        "decompose": ["decompose_twisted_algebra"],
        "module": ["m_iso", "module_right_action", "module_left_action",
                   "module_inner_product"],
    },
    "assembly": {
        "compare": ["analytic_index", "mu_index", "right_action", "module_inner",
                    "compare_indices"],
        "jcycle": ["build_j_cycle", "mishchenko_xi", "assemble"],
        "diagnostics": ["commutator_bound", "resolvent_compactness", "kucerovsky_check"],
        "finite": ["finite_group_assembly", "level_vanishing_pattern"],
    },
    "experiments": {
        "run": ["run_experiment", "parse_config"],
    },
}

# numpy.linalg kernels beneath every module; ``norm`` is traced only for the
# matrix 2-norm, which is an SVD.
LINALG = {
    "eig": ["eigh", "eigvalsh"],
    "other": ["svd", "inv", "solve", "lstsq", "pinv", "qr", "det"],
}

MODULES = ("opcore", "linalg", "fock", "dirac", "limitspace", "twistgroup",
           "assembly", "experiments")


def _counted_entries(c, args, kwargs, result):
    entries = args[3] if len(args) > 3 else kwargs.get("entries", ())
    c["opcore.op_init.entries"] += len(entries)


def _to_dense_bytes(c, args, kwargs, result):
    c["opcore.to_dense.bytes"] += 16 * result.shape[0] * result.shape[1]


def _eig_size(c, args, kwargs, result):
    n = args[0].shape[-1] if args else kwargs["a"].shape[-1]
    c["linalg.eig.n3_sum"] += n ** 3
    c.setdefault("linalg.eig.max_dim", 0)
    c["linalg.eig.max_dim"] = max(c["linalg.eig.max_dim"], n)


def _enumerated_states(c, args, kwargs, result):
    c["fock.enumerate.states"] += result.dim


def _triple_space(c, args, kwargs, result):
    space = args[0]
    product = 1
    for b in space.factors:
        product *= b.dim
    c["dirac.triple_space.kept"] += space.dim
    c["dirac.triple_space.enumerated"] += product
    c.setdefault("dirac.triple_space.dim", 0)
    c["dirac.triple_space.dim"] = max(c["dirac.triple_space.dim"], space.dim)


def _build_nnz(c, args, kwargs, result):
    c["dirac.build.nnz"] += result[0].nnz


def _xi_kmax(c, args, kwargs, result):
    c["limitspace.xi.kmax_sum"] += len(result.coeffs) - 1


def _cocycle_triples(c, args, kwargs, result):
    tau = args[0] if args else kwargs["tau"]
    c["twistgroup.cocycle.triples"] += tau.group.order ** 3


def _report_rows(c, args, kwargs, result):
    if not hasattr(result, "rows"):
        return  # parse_config
    c["experiments.checks"] += len(result.rows)
    headroom = max((row[-1] / result.tolerance for row in result.rows), default=0.0)
    c.setdefault("experiments.worst_headroom", 0.0)
    c["experiments.worst_headroom"] = max(c["experiments.worst_headroom"], headroom)


EXTRAS = {
    "opcore.op_init": _counted_entries,
    "opcore.to_dense": _to_dense_bytes,
    "linalg.eig": _eig_size,
    "fock.enumerate": _enumerated_states,
    "dirac.triple_space": _triple_space,
    "dirac.build": _build_nnz,
    "limitspace.xi": _xi_kmax,
    "twistgroup.cocycle": _cocycle_triples,
    "experiments.run": _report_rows,
}


class Tracer:
    """In-memory spans plus counters, grouped by pass id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1, pass id]
        self.stack = []
        self.pass_id = 0
        self.counters = defaultdict(int)
        self.errors = defaultdict(int)
        self._seen_errors = []
        self._patches = []

    # -- recording ------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        """Return ``fn`` recording one span named ``name`` per call."""
        spans, stack, clock, counters = self.spans, self.stack, self.clock, self.counters
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                # one count per layer, however many of its wrappers it crosses
                if not any(m == module and e is exc for m, e in self._seen_errors):
                    self._seen_errors.append((module, exc))
                    self.errors[module] += 1
                raise
            rec[2] = clock()
            stack.pop()
            if extra is not None:
                extra(counters, args, kwargs, result)
            return result

        return traced

    def count_calls(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary of the imported lab and of ``numpy.linalg``."""
        import numpy.linalg as la

        replaced = {}  # id(original function) -> wrapper, for re-bound names
        for module_name, groups in BOUNDARIES.items():
            try:
                mod = importlib.import_module(f"kkindex.{module_name}")
            except ImportError:
                continue
            named = set()
            for boundary, targets in groups.items():
                span = f"{module_name}.{boundary}"
                for target in targets:
                    if isinstance(target, tuple):
                        self._wrap_method(mod, *target, span)
                    else:
                        named.add(target)
                        self._wrap_function(mod, target, span, replaced)
            for target in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(target)
                if target not in named and callable(fn) and not isinstance(fn, type):
                    self._wrap_function(mod, target, f"{module_name}.other", replaced)
        self._wrap_method(sys.modules["kkindex.opcore"], "Basis", "__eq__", None,
                          counter="opcore.basis_eq.calls")
        # re-bound names: ``from .opcore import eigh_gram`` and the like
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "kkindex" or mod_name.startswith("kkindex."):
                for attr, value in list(vars(mod).items()):
                    wrapper = replaced.get(id(value))
                    if wrapper is not None and value is not wrapper:
                        self._set(mod, attr, wrapper)
        for boundary, names in LINALG.items():
            for name in names:
                if name in la.__dict__:
                    self._set(la, name, self.wrap(f"linalg.{boundary}", la.__dict__[name],
                                                  EXTRAS.get(f"linalg.{boundary}")))
        plain_norm = la.norm
        traced_norm = self.wrap("linalg.other", plain_norm)

        @functools.wraps(plain_norm)
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 1) == 2:
                return traced_norm(x, ord, *args, **kwargs)
            return plain_norm(x, ord, *args, **kwargs)

        self._set(la, "norm", norm)

    def _wrap_function(self, mod, attr, span, replaced):
        fn = mod.__dict__.get(attr)
        if fn is None or not callable(fn):
            return
        if id(fn) not in replaced:
            replaced[id(fn)] = self.wrap(span, fn, EXTRAS.get(span))
        self._set(mod, attr, replaced[id(fn)])

    def _wrap_method(self, mod, cls_name, attr, span, counter=None):
        cls = mod.__dict__.get(cls_name)
        if cls is None or attr not in cls.__dict__:
            return
        raw = cls.__dict__[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if counter is not None:
            wrapped = self.count_calls(counter, fn)
        else:
            wrapped = self.wrap(span, fn, EXTRAS.get(span))
        self._set(cls, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- passes and accounting ------------------------------------------

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counters.clear()
        self.errors.clear()
        self._seen_errors.clear()

    def layer_metrics(self, pass_id, wall_s):
        """Per-layer metrics of one pass: calls and self seconds per span
        name, the counters, errors per module and the uncovered time."""
        by_index = {}
        for idx, s in enumerate(self.spans):
            if s[4] == pass_id:
                by_index[idx] = s
        selfs = self_times(self.spans, by_index)
        out = {}
        covered = 0.0
        for idx, s in by_index.items():
            name = s[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[idx]
            if s[3] == -1:
                covered += s[2] - s[1]
        for key, value in self.counters.items():
            out[key] = value
        kept = out.pop("dirac.triple_space.kept", 0)
        enumerated = out.pop("dirac.triple_space.enumerated", 0)
        out["dirac.triple_space.kept_ratio"] = kept / enumerated if enumerated else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = self.errors.get(module, 0)
        out["trace.spans"] = len(by_index)
        out["trace.uncovered_ratio"] = max(wall_s - covered, 0.0) / wall_s if wall_s else 0.0
        return out

    def write_spans(self, path):
        """Write every recorded span once, as CSV."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,pass\n")
            for idx, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent},{pid}\n")


def self_times(spans, subset=None):
    """Self time per span index: duration minus the time its direct
    children cover (children of a synchronous call never overlap)."""
    indices = range(len(spans)) if subset is None else subset
    child = defaultdict(float)
    for idx in indices:
        _, start, end, parent, _ = spans[idx]
        if parent >= 0:
            child[parent] += end - start
    return {idx: (spans[idx][2] - spans[idx][1]) - child[idx] for idx in indices}


def _metrics(prefix, spec):
    return [(f"{prefix}.{key}", unit, better) for key, unit, better in spec]


_S, _N = ("self_s", "s", "lower"), ("calls", "count", "lower")

# every per-layer metric of a traced run: (name, unit, better)
LAYER_METRICS = (
    _metrics("opcore.op_init", [_N, _S, ("entries", "count", "lower")])
    + _metrics("opcore.matmul", [_N, _S])
    + _metrics("opcore.algebra", [_S])
    + _metrics("opcore.basis_eq", [_N])
    + _metrics("opcore.to_dense", [_N, _S, ("bytes", "B", "lower")])
    + _metrics("opcore.eigensolve", [_N, _S])
    + _metrics("opcore.other", [_S])
    + _metrics("linalg.eig", [_N, _S, ("max_dim", "count", "lower"),
                              ("n3_sum", "count", "lower")])
    + _metrics("linalg.other", [_S])
    + _metrics("fock.enumerate", [_N, _S, ("states", "count", "lower")])
    + _metrics("fock.ladder", [_N, _S])
    + _metrics("fock.other", [_S])
    + _metrics("dirac.triple_space", [_N, _S, ("dim", "count", "higher"),
                                      ("kept_ratio", "ratio", "higher")])
    + _metrics("dirac.embed", [_N, _S])
    + _metrics("dirac.build", [_S, ("nnz", "count", "lower")])
    + _metrics("dirac.spectrum", [_S])
    + _metrics("dirac.other", [_S])
    + _metrics("limitspace.xi", [_N, _S, ("kmax_sum", "count", "lower")])
    + _metrics("limitspace.quadrature", [_N, _S])
    + _metrics("limitspace.ladder", [_S])
    + _metrics("limitspace.other", [_S])
    + _metrics("twistgroup.cocycle", [_N, _S, ("triples", "count", "lower")])
    + _metrics("twistgroup.convolve", [_N, _S])
    + _metrics("twistgroup.crossed", [_S])
    + _metrics("twistgroup.decompose", [_S])
    + _metrics("twistgroup.module", [_S])
    + _metrics("twistgroup.other", [_S])
    + _metrics("assembly.compare", [_S])
    + _metrics("assembly.jcycle", [_S])
    + _metrics("assembly.diagnostics", [_S])
    + _metrics("assembly.finite", [_S])
    + _metrics("assembly.other", [_S])
    + _metrics("experiments.run", [_S])
    + [("experiments.checks", "count", "higher"),
       ("experiments.worst_headroom", "ratio", "lower")]
    + [(f"{module}.errors", "count", "lower") for module in MODULES]
    + _metrics("trace", [("pass_s", "s", "lower"), ("untraced_pass_s", "s", "lower"),
                         ("overhead_s", "s", "lower"), ("uncovered_ratio", "ratio", "lower"),
                         ("spans", "count", "lower")])
)
