"""Spans and counters around the public functions of each gmalg module.

``Tracer.install`` replaces every public module-level function of the
traced modules, in every gmalg module namespace that holds it, by a wrapper
that records a span (name, start, end, parent, call data).  Two hot methods
that are called tens of thousands of times per operation get a bare call
counter instead of a span.  Nothing inside ``src/`` changes; ``uninstall``
puts the originals back.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time covered by its nearest descendant spans that belong
to another module, so helper calls inside the same module count as its own
work.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from gmalg import backend, center, decompose, exact, maps, structure

TRACED_MODULES = (exact, backend, structure, center, maps, decompose)

# span name -> what to keep of the call for the metrics
RECORD_ARGS = {
    "exact.rref_array": lambda a, k: (a[0].p, a[1]),
    "exact.solve_array": lambda a, k: a[1],
    "maps.is_centralizing_trace": lambda a, k: a[1].tensor,
    "maps.is_commuting_trace": lambda a, k: a[1].tensor,
    "center.hypothesis_report": lambda a, k: a[0],
}
RECORD_RESULT = {
    "exact.rref_array": lambda r: r[2],
    "maps.is_centralizing_trace": lambda r: r[0],
    "maps.is_commuting_trace": lambda r: r[0],
}
COUNTED_METHODS = (
    ("exact.tensordot", exact.RingDescriptor, "tensordot"),
    ("structure.multiply", structure._MulCarrier, "multiply"),
)
SPANNED_METHODS = (("decompose.ProperTraceForm.matches", decompose.ProperTraceForm, "matches"),)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, args, result]
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        keep_args = RECORD_ARGS.get(name)
        keep_result = RECORD_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            if keep_args:
                rec[4] = keep_args(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if keep_result:
                rec[5] = keep_result(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        originals = {}
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    originals[obj] = self._span(f"{short}.{attr}", obj)
        # rebind every gmalg namespace that imported one of them by name
        for modname, mod in list(sys.modules.items()):
            if modname != "gmalg" and not modname.startswith("gmalg."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])
        for name, cls, attr in COUNTED_METHODS:
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._counter(name, fn))
        for name, cls, attr in SPANNED_METHODS:
            fn = vars(cls)[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._span(name, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    # -- metrics -----------------------------------------------------------

    def foreign_time(self):
        """Per span: time covered by its nearest descendants in another module."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for idx in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[idx][:4]
            if parent < 0:
                continue
            if _module(spans[parent][0]) == _module(name):
                covered[parent] += covered[idx]
            else:
                covered[parent] += end - start
        return covered

    def metrics(self) -> dict:
        covered = self.foreign_time()
        by_name = {}
        for idx, rec in enumerate(self.spans):
            by_name.setdefault(rec[0], []).append((rec, rec[2] - rec[1], covered[idx]))

        def calls(*names):
            return sum(len(by_name.get(n, ())) for n in names)

        def total(*names):
            return float(sum(dur for n in names for _, dur, _ in by_name.get(n, ())))

        def self_time(*names):
            return float(sum(dur - cov for n in names for _, dur, cov in by_name.get(n, ())))

        def distinct_ratio(names, key):
            recs = [rec for n in names for rec, _, _ in by_name.get(n, ())]
            if not recs:
                return 0.0
            return len({key(rec[4]) for rec in recs}) / len(recs)

        rref = by_name.get("exact.rref_array", ())
        cells = nnz = row_ops = 0
        fp_s = q_s = 0.0
        for rec, dur, _ in rref:
            p, mat = rec[4]
            rows, cols = np.shape(mat)
            cells += rows * cols
            nnz += int(np.count_nonzero(np.asarray(mat) % p if p else mat))
            row_ops += rec[5] * rows * cols
            if p:
                fp_s += dur
            else:
                q_s += dur
        predicates = ("maps.is_centralizing_trace", "maps.is_commuting_trace")
        reject_s = float(sum(
            dur for n in predicates for rec, dur, _ in by_name.get(n, ()) if rec[5] is False
        ))
        hom = ("maps.is_lie_triple_hom", "maps.is_jordan_hom", "maps.vanishes_on_second_commutators")
        return {
            "exact.rref.calls": (calls("exact.rref_array"), "count"),
            "exact.rref.fp_s": (fp_s, "s"),
            "exact.rref.q_s": (q_s, "s"),
            "exact.rref.cells": (cells, "count"),
            "exact.rref.nnz": (nnz, "count"),
            "exact.rref.row_ops": (row_ops, "count"),
            "exact.nullspace.s": (total("exact.nullspace_array"), "s"),
            "exact.solve.calls": (calls("exact.solve_array"), "count"),
            "exact.solve.s": (total("exact.solve_array"), "s"),
            "exact.solve.useful_ratio": (distinct_ratio(("exact.solve_array",), _digest), "ratio"),
            "exact.tensordot.calls": (self.counts["exact.tensordot"], "count"),
            "structure.assemble_gma.s": (total("structure.assemble_gma"), "s"),
            "structure.multiply.calls": (self.counts["structure.multiply"], "count"),
            "center.compute_center_gma.calls": (calls("center.compute_center_gma"), "count"),
            "center.compute_center_gma.s": (total("center.compute_center_gma"), "s"),
            "center.hypothesis_report.calls": (calls("center.hypothesis_report"), "count"),
            "center.hypothesis_report.s": (total("center.hypothesis_report"), "s"),
            "center.hypothesis_report.useful_ratio": (
                distinct_ratio(("center.hypothesis_report",), id),
                "ratio",
            ),
            "maps.trace_space.s": (total("maps.trace_space"), "s"),
            "maps.trace_space.self_s": (self_time("maps.trace_space"), "s"),
            "maps.cubic_trace_coefficients.calls": (calls("maps.cubic_trace_coefficients"), "count"),
            "maps.cubic_trace_coefficients.s": (total("maps.cubic_trace_coefficients"), "s"),
            "maps.trace_predicate.calls": (calls(*predicates), "count"),
            "maps.trace_predicate.s": (total(*predicates), "s"),
            "maps.trace_predicate.reject_s": (reject_s, "s"),
            "maps.trace_predicate.useful_ratio": (distinct_ratio(predicates, _digest), "ratio"),
            "maps.hom_predicates.s": (total(*hom), "s"),
            "decompose.build_generic_system.calls": (calls("decompose.build_generic_system"), "count"),
            "decompose.build_generic_system.s": (total("decompose.build_generic_system"), "s"),
            "decompose.generic.self_s": (self_time("decompose.decompose_trace_generic"), "s"),
            "decompose.constructive.self_s": (self_time("decompose.decompose_trace_constructive"), "s"),
            "decompose.reconstruction.calls": (calls("decompose.ProperTraceForm.matches"), "count"),
            "decompose.reconstruction.s": (total("decompose.ProperTraceForm.matches"), "s"),
            "decompose.lti.self_s": (self_time("decompose.decompose_lie_triple_iso"), "s"),
        }

    def span_dump(self) -> list:
        """Spans without their call data, for the run's output file."""
        return [rec[:4] for rec in self.spans]


def _module(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _digest(arr) -> str:
    arr = np.asarray(arr)
    h = hashlib.sha1(repr(arr.shape).encode())
    h.update(arr.tobytes() if arr.dtype != object else repr(arr.tolist()).encode())
    return h.hexdigest()
