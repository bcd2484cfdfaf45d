"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the syzcurve modules from outside the
package.  `from .exactlin import rank` copies the name into the importing
module, so each function is rebound in every loaded syzcurve module (and in
module-level dicts) that holds it; a wrapper on `exactlin.rank` alone would
see none of the calls made from `syzygy`.

Spans are kept in memory as (name, parent index, start, end) and turned into
per-function and per-module self time after each operation: a span's self
time is its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

# Per-function metrics are reported for these; every other public function
# of a module is wrapped too, so that its module's self time is complete.
LISTED = (
    "exactlin.rank", "exactlin.kernel_basis", "exactlin.in_span",
    "exactlin.solve",
    "ring3.mult_matrix", "ring3.partials", "ring3.parse",
    "syzygy.gradient_matrix", "syzygy.jacobian_dim", "syzygy.ar_basis",
    "syzygy.koszul_dim", "syzygy.sat_basis", "syzygy.tau", "syzygy.mdr",
    "syzygy.ct",
    "polygcd.gcd_many", "polygcd.exact_quotient", "polygcd.divides",
    "singcat.verify_declared",
    "logbundle.freeness", "logbundle.is_stable",
    "torelli.linear_system_points", "torelli.linear_system_cusps",
    "torelli.base_locus_zero_dim", "torelli.torelli_nodal",
    "torelli.torelli_cuspidal",
    "analysis.build_report", "analysis.check_expectations",
)
MODULES = ("ring3", "exactlin", "polygcd", "syzygy", "singcat", "logbundle",
           "torelli", "curvecat", "analysis")
# Called per monomial or per degree; their call counts would swamp the trace.
NEVER_WRAP = frozenset({"ring3.dim_graded", "ring3.mono_basis"})
PACKAGE = "syzcurve"
BOOKKEEPING = "tracer.bookkeeping"


def self_times(spans) -> list:
    """Self time of each span in a list of (name, parent, start, end).

    `parent` is the index of the enclosing span or -1.  The covered part of
    a span is the union of its children's intervals clipped to its own.
    """
    children: dict = {}
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][2], spans[c][3])
                             for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def _kernel_bits(vectors) -> int:
    best = 0
    for v in vectors:
        for q in v:
            best = max(best, q.numerator.bit_length(),
                       q.denominator.bit_length())
    return best


class Tracer:
    """Wraps syzcurve functions and records spans while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.found: set = set()
        self._reset_counts()

    def _reset_counts(self):
        self.cells = 0
        self.kernel_bits = 0
        self.grad_builds = 0
        self.grad_keys: set = set()

    # -- installation -----------------------------------------------------

    def _targets(self) -> dict:
        """{original function: 'module.name'} for every function to wrap."""
        out = {}
        for mod in MODULES:
            module = sys.modules.get("%s.%s" % (PACKAGE, mod))
            if module is None:
                continue
            for attr, obj in vars(module).items():
                name = "%s.%s" % (mod, attr)
                if (attr.startswith("_") or name in NEVER_WRAP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                out[obj] = name
        return out

    def install(self) -> None:
        """Rebind every target in each loaded syzcurve module and in the
        module-level dicts that hold it."""
        targets = self._targets()
        self.found = set(targets.values())
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patch(obj, key, wrappers[val])

    def _patch(self, container, key, new) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = new

    def uninstall(self) -> None:
        for container, key, old in reversed(self._patches):
            container[key] = old
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        module = _module_of(name)
        owner = self

        def wrapper(*args, **kwargs):
            if module == "exactlin" and (
                    not stack or _module_of(spans[stack[-1]][0]) != "exactlin"):
                mat = args[1] if name == "exactlin.in_span" else args[0]
                owner.cells += mat.rows * mat.cols
            elif name == "syzygy.gradient_matrix":
                owner.grad_builds += 1
                owner.grad_keys.add((args[0], args[1]))
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, parent, 0.0, 0.0))
            stack.append(index)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if name == "exactlin.kernel_basis":
                owner.kernel_bits = max(owner.kernel_bits,
                                        _kernel_bits(return_value))
                spans.append((BOOKKEEPING, parent, end, perf_counter()))
            return return_value

        return wrapper

    def begin_op(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._reset_counts()

    def end_op(self, wall: float) -> dict:
        """Aggregate the spans of one operation that took `wall` seconds."""
        spans = self.spans
        selfs = self_times(spans)
        calls: dict = {}
        self_s: dict = {}
        modules: dict = {}
        top = 0.0
        for (name, parent, start, end), own in zip(spans, selfs):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            mod = _module_of(name)
            modules[mod] = modules.get(mod, 0.0) + own
            if parent < 0:
                top += end - start
        # a syzygy call made from outside syzygy is a hit when no exactlin
        # span lies beneath it
        reaches_exactlin = [False] * len(spans)
        for i, (name, parent, _, _) in enumerate(spans):
            if _module_of(name) == "exactlin":
                while parent >= 0 and not reaches_exactlin[parent]:
                    reaches_exactlin[parent] = True
                    parent = spans[parent][1]
        entries = hits = 0
        for i, (name, parent, _, _) in enumerate(spans):
            if (_module_of(name) == "syzygy"
                    and (parent < 0
                         or _module_of(spans[parent][0]) != "syzygy")):
                entries += 1
                hits += not reaches_exactlin[i]
        return {
            "calls": calls, "self_s": self_s, "modules": modules,
            "wall_s": wall, "unwrapped_s": wall - top,
            "cells": self.cells, "kernel_bits": self.kernel_bits,
            "grad_builds": self.grad_builds,
            "grad_distinct": len(self.grad_keys),
            "syzygy_entries": entries, "syzygy_hits": hits,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one operation's aggregate into a running total."""
    for key in ("calls", "self_s", "modules"):
        bucket = total.setdefault(key, {})
        for name, val in part[key].items():
            bucket[name] = bucket.get(name, 0) + val
    for key in ("wall_s", "unwrapped_s", "cells", "grad_builds",
                "grad_distinct", "syzygy_entries", "syzygy_hits"):
        total[key] = total.get(key, 0) + part[key]
    total["kernel_bits"] = max(total.get("kernel_bits", 0),
                               part["kernel_bits"])
    return total


def layer_metrics(total: dict, found, overhead: float) -> dict:
    """Per-layer metrics from merged aggregates.  A listed function that
    the package no longer defines is left out rather than reported as 0."""
    out = {}
    for name in LISTED:
        if name not in found:
            continue
        out[name + ".calls"] = (total["calls"].get(name, 0), "count")
        out[name + ".self_s"] = (total["self_s"].get(name, 0.0), "s")
    for mod in MODULES:
        out[mod + ".self_s"] = (total["modules"].get(mod, 0.0), "s")
    out["bookkeeping_s"] = (total["modules"].get("tracer", 0.0), "s")
    out["unwrapped_s"] = (total["unwrapped_s"], "s")
    out["traced_wall_s"] = (total["wall_s"], "s")
    out["tracing_overhead_s"] = (overhead, "s")
    out["exactlin.cells"] = (total["cells"], "count")
    out["exactlin.kernel_bits"] = (total["kernel_bits"], "bits")
    builds = total["grad_builds"]
    out["syzygy.gradient_matrix.distinct_ratio"] = (
        total["grad_distinct"] / builds if builds else 0.0, "ratio")
    entries = total["syzygy_entries"]
    out["syzygy.hit_ratio"] = (
        total["syzygy_hits"] / entries if entries else 0.0, "ratio")
    return out
