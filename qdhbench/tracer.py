"""Span tracing of the library from outside it, and the per-layer
metrics derived from the spans.

``Tracer.install`` wraps the public functions of each module (and the
family classes' coefficient methods) and rebinds every name under
which the package refers to them: ``cdqhahn`` imports ``phi32``,
``qpoch`` and ``qpoch_multi`` by name, ``limits`` imports ``phi21``, and
so on, so replacing only the defining module's attribute would miss
those call sites.  Every call records one span (name, start, end,
parent span, operation id) in flat arrays; the spans are turned into
metrics after the run.  A layer's self time is its span's length minus
the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

CHECKS = {
    "contiguous": "check_contiguous_all",
    "three-term-transform": "check_three_term_transform",
    "c-eq-q-reduction": "check_c_eq_q_reduction",
    "orthogonality": "check_orthogonality",
    "symmetries": "check_symmetries",
    "limits": "check_limits_all",
    "transforms": "check_transforms",
}

# (metric name, unit); every traced run reports all of them
PER_LAYER = [
    ("qseries.qpoch.calls", "count/batch"), ("qseries.qpoch.self_s", "s/batch"),
    ("qseries.qpoch.us_per_call", "us"),
    ("qseries.phi_core.calls", "count/batch"), ("qseries.phi_core.self_s", "s/batch"),
    ("qseries.phi_core.raised", "count/batch"),
    ("qseries.phi32.calls", "count/batch"), ("qseries.phi32.self_s", "s/batch"),
    ("qseries.phi32.cores_per_call", "ratio"), ("qseries.phi32.us_per_call", "us"),
    ("qseries.best_of.calls", "count/batch"), ("qseries.best_of.cores_per_call", "ratio"),
    ("recurrence.forward_eval.calls", "count/batch"), ("recurrence.forward_eval.steps", "count/batch"),
    ("recurrence.forward_eval.ns_per_step", "ns"),
    ("recurrence.cf_truncated.levels", "count/batch"), ("recurrence.cf_truncated.self_s", "s/batch"),
    ("recurrence.cf_adaptive.calls", "count/batch"), ("recurrence.cf_adaptive.useful_ratio", "ratio"),
    ("recurrence.coeffs.calls", "count/batch"),
    ("cdqhahn.weight.calls", "count/batch"), ("cdqhahn.weight.self_s", "s/batch"),
    ("cdqhahn.solution.calls", "count/batch"), ("cdqhahn.solution.self_s", "s/batch"),
    ("cdqhahn.cf_stieltjes.calls", "count/batch"), ("cdqhahn.cf_stieltjes.self_s", "s/batch"),
    ("cdqhahn.spectral_point.calls", "count/batch"), ("cdqhahn.spectral_point.self_s", "s/batch"),
    ("cdqhahn.coeff.calls", "count/batch"), ("cdqhahn.coeff.self_s", "s/batch"),
    ("limits.limit_solution.calls", "count/batch"), ("limits.limit_solution.self_s", "s/batch"),
    ("limits.limit_cf.calls", "count/batch"), ("limits.limit_cf.self_s", "s/batch"),
    ("limits.limit_poly.calls", "count/batch"), ("limits.limit_poly.self_s", "s/batch"),
    ("limits.limit_weight.calls", "count/batch"), ("limits.limit_weight.self_s", "s/batch"),
    ("limits.find_zeros.f_evals", "count/batch"), ("limits.find_zeros.evals_per_zero", "ratio"),
    ("limits.coeff.calls", "count/batch"), ("limits.coeff.self_s", "s/batch"),
] + [(f"verify.check.{cid}.s", "s/batch") for cid in CHECKS] + [
    ("verify.gram_matrix.calls", "count/batch"), ("verify.gram_matrix.self_s", "s/batch"),
    ("verify.nodes.calls", "count/batch"), ("verify.nodes.s", "s/batch"), ("verify.nodes.max_s", "s"),
    ("verify.transform_pole_free.s", "s/batch"),
    ("cli.self_s", "s/batch"), ("cli.emit.s", "s/batch"), ("cli.rows", "count/batch"), ("cli.import_s", "s"),
    ("trace.spans", "count/batch"), ("trace.overhead_ratio", "ratio"),
]


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """Span length minus the time its child spans cover (children may
    overlap or nest)."""
    return (end - start) - covered(start, end, children)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start, self.end = array("d"), array("d")
        self.parent, self.name, self.op = array("l"), array("l"), array("l")
        self.raised, self.note = array("b"), array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.f_evals = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, note=None, prepare=None):
        """A wrapper recording one span per call of ``fn``.  ``note``
        maps (args, kwargs, result) to a number stored with the span;
        ``prepare`` may rewrite the arguments."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        start, end, parent, names, op = self.start, self.end, self.parent, self.name, self.op
        raised, notes, stack, clock = self.raised, self.note, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            op.append(self.op_id)
            raised.append(0)
            notes.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _rebind(self, original, wrapper, extra_owners=()):
        """Point every package namespace (and ``extra_owners``) that holds
        ``original`` at ``wrapper``."""
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "qdhahn" or n.startswith("qdhahn.")] + list(extra_owners)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, original))

    def install(self):
        """Wrap the package's layers; returns self.  ``uninstall`` undoes
        it; spans accumulate across installs."""
        import numpy.polynomial.legendre as legendre

        from qdhahn import cdqhahn, cli, limits, qseries, recurrence, verify

        def target(module, attr, name, **kw):
            original = getattr(module, attr)
            self._rebind(original, self.wrap(name, original, **kw))

        for attr, name in (("qpoch", "qpoch"), ("_phi_core", "phi_core"),
                           ("phi32", "phi32"), ("_best_of", "best_of")):
            target(qseries, attr, "qseries." + name)
        target(recurrence, "forward_eval", "recurrence.forward_eval",
               note=lambda a, k, r: a[4] if len(a) > 4 else k["n_max"])
        target(recurrence, "cf_truncated", "recurrence.cf_truncated",
               note=lambda a, k, r: a[2] if len(a) > 2 else k["depth"])
        target(recurrence, "cf_adaptive", "recurrence.cf_adaptive", note=lambda a, k, r: r[1])
        target(recurrence, "coeffs", "recurrence.coeffs")
        for attr in ("weight", "solution", "cf_stieltjes", "spectral_point"):
            target(cdqhahn, attr, "cdqhahn." + attr)
        for attr in ("limit_solution", "limit_cf", "limit_poly", "limit_weight"):
            target(limits, attr, "limits." + attr)
        target(limits, "find_zeros", "limits.find_zeros",
               note=lambda a, k, r: len(r), prepare=self._count_evals)
        for check_id, attr in CHECKS.items():
            target(verify, attr, "verify.check." + check_id)
        target(verify, "gram_matrix", "verify.gram_matrix")
        target(verify, "transform_pole_free", "verify.transform_pole_free")
        original = legendre.leggauss
        self._rebind(original, self.wrap("verify.nodes", original), extra_owners=[legendre])
        target(cli, "run", "cli")
        target(cli, "_emit_rows", "cli.emit", note=lambda a, k, r: len(a[0]))
        classes = [("cdqhahn.coeff", cdqhahn.CDQHParams)] + [
            ("limits.coeff", cls) for cls in limits.FAMILIES.values()]
        for name, cls in classes:
            for attr in ("a_coeff", "b_sq_coeff"):
                original = vars(cls)[attr]
                setattr(cls, attr, self.wrap(name, original))
                self._undo.append((cls, attr, original))
        return self

    def _count_evals(self, args, kwargs):
        f = args[0]
        if getattr(f, "__wrapped_by_tracer__", False):
            return args, kwargs

        def counted(x):
            self.f_evals += 1
            return f(x)

        counted.__wrapped_by_tracer__ = True
        return (counted,) + tuple(args[1:]), kwargs

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total and self seconds, raised count,
        note sum and longest span."""
        n = len(self.start)
        children = defaultdict(list)
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]].append((self.start[i], self.end[i]))
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0,
                                     "note": 0.0, "max_s": 0.0})
        for i in range(n):
            st = stats[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += self_time(self.start[i], self.end[i], children.get(i, ()))
            st["raised"] += self.raised[i]
            st["note"] += self.note[i]
            st["max_s"] = max(st["max_s"], dur)
        return stats

    def _nearest(self, i, names):
        """Name of the nearest ancestor of span i among ``names``."""
        p = self.parent[i]
        while p >= 0:
            name = self.names[self.name[p]]
            if name in names:
                return name
            p = self.parent[p]
        return None

    def metrics(self, import_s: float, overhead_ratio: float, batches: int = 1) -> dict:
        """Every PER_LAYER metric.  Counts and seconds are per batch, so a
        faster run that fits more batches into its time does not read as
        more work."""
        stats = self.aggregate()
        s = stats.__getitem__

        def ratio(a, b):
            return a / b if b else 0.0

        cores = defaultdict(int)
        cf_levels = 0.0
        top_zeros = 0.0
        library_s = 0.0
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            if name == "qseries.phi_core":
                cores[self._nearest(i, ("qseries.phi32", "qseries.best_of"))] += 1
            elif name == "recurrence.cf_truncated" and \
                    self._nearest(i, ("recurrence.cf_adaptive",)) is not None:
                cf_levels += self.note[i]
            elif name == "limits.find_zeros" and \
                    self._nearest(i, ("limits.find_zeros",)) is None:
                top_zeros += self.note[i]
            elif not name.startswith("cli") and self.parent[i] >= 0 and \
                    self.names[self.name[self.parent[i]]].startswith("cli"):
                library_s += self.end[i] - self.start[i]
        out = {
            "qseries.qpoch.calls": s("qseries.qpoch")["calls"],
            "qseries.qpoch.self_s": s("qseries.qpoch")["self_s"],
            "qseries.qpoch.us_per_call": 1e6 * ratio(s("qseries.qpoch")["s"], s("qseries.qpoch")["calls"]),
            "qseries.phi_core.calls": s("qseries.phi_core")["calls"],
            "qseries.phi_core.self_s": s("qseries.phi_core")["self_s"],
            "qseries.phi_core.raised": s("qseries.phi_core")["raised"],
            "qseries.phi32.calls": s("qseries.phi32")["calls"],
            "qseries.phi32.self_s": s("qseries.phi32")["self_s"],
            "qseries.phi32.cores_per_call": ratio(cores["qseries.phi32"], s("qseries.phi32")["calls"]),
            "qseries.phi32.us_per_call": 1e6 * ratio(s("qseries.phi32")["s"], s("qseries.phi32")["calls"]),
            "qseries.best_of.calls": s("qseries.best_of")["calls"],
            "qseries.best_of.cores_per_call": ratio(cores["qseries.best_of"], s("qseries.best_of")["calls"]),
            "recurrence.forward_eval.calls": s("recurrence.forward_eval")["calls"],
            "recurrence.forward_eval.steps": s("recurrence.forward_eval")["note"],
            "recurrence.forward_eval.ns_per_step": 1e9 * ratio(s("recurrence.forward_eval")["s"],
                                                               s("recurrence.forward_eval")["note"]),
            "recurrence.cf_truncated.levels": s("recurrence.cf_truncated")["note"],
            "recurrence.cf_truncated.self_s": s("recurrence.cf_truncated")["self_s"],
            "recurrence.cf_adaptive.calls": s("recurrence.cf_adaptive")["calls"],
            "recurrence.cf_adaptive.useful_ratio": ratio(s("recurrence.cf_adaptive")["note"], cf_levels),
            "recurrence.coeffs.calls": s("recurrence.coeffs")["calls"],
            "limits.find_zeros.f_evals": self.f_evals,
            "limits.find_zeros.evals_per_zero": ratio(self.f_evals, top_zeros),
            "verify.nodes.calls": s("verify.nodes")["calls"],
            "verify.nodes.s": s("verify.nodes")["s"],
            "verify.nodes.max_s": s("verify.nodes")["max_s"],
            "verify.transform_pole_free.s": s("verify.transform_pole_free")["s"],
            "cli.self_s": s("cli")["s"] - library_s,
            "cli.emit.s": s("cli.emit")["s"],
            "cli.rows": s("cli.emit")["note"],
            "cli.import_s": import_s,
            "trace.spans": len(self.start),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("cdqhahn.weight", "cdqhahn.solution", "cdqhahn.cf_stieltjes",
                     "cdqhahn.spectral_point", "cdqhahn.coeff", "limits.limit_solution",
                     "limits.limit_cf", "limits.limit_poly", "limits.limit_weight",
                     "limits.coeff", "verify.gram_matrix"):
            out[name + ".calls"] = s(name)["calls"]
            out[name + ".self_s"] = s(name)["self_s"]
        for check_id in CHECKS:
            out[f"verify.check.{check_id}.s"] = s("verify.check." + check_id)["s"]
        return {name: out[name] / batches if unit.endswith("/batch") else out[name]
                for name, unit in PER_LAYER}
