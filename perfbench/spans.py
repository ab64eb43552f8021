"""Spans and counts at the public boundaries of csl's layers.

``Tracer.install()`` replaces each traced function by a wrapper, in every
``csl`` module that binds it, and ``uninstall()`` puts the originals back.
A wrapper records one span (name, start, end, parent, operation) and the
counts that belong to that boundary. Spans stay in memory, in flat arrays,
until ``write()``; ``layer_totals()`` folds them into per-name totals, where
a span's self time is its duration minus the durations of its children.

``Dist.weight`` is counted but gets no span: the call scans a few entries
and costs less than recording a span, so a span there would mostly measure
itself. ``rewrite_step`` is counted the same way, once per step taken from
the top (its recursive calls are not steps).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Dict, List

# (module, attribute, span name); the module is resolved under the csl package.
SPANNED = (
    ("terms", "parse_term", "terms.parse"),
    ("terms", "rewrite_np", "terms.rewrite_np"),
    ("terms", "iota_p", "terms.iota_p"),
    ("terms", "evaluate", "terms.evaluate"),
    ("terms", "kappa", "terms.kappa"),
    ("terms", "print_term", "terms.print_term"),
    ("convexsets", "minkowski", "convexsets.minkowski"),
    ("convexsets", "convex_union", "convexsets.union"),
    ("convexsets", "c_mult", "convexsets.c_mult"),
    ("convexsets", "member_of_hull", "convexsets.member"),
    ("distributions", "convex_combine", "distributions.combine"),
    ("feasibility", "hull_coefficients", "feasibility.hull"),
    ("kernel", "hull_witness", "simplex.kernel"),
)

# Per-layer metrics: name -> unit. Times and counts are per attempted operation.
METRICS = {
    "terms.parse_s": "s/op",
    "terms.evaluate_self_s": "s/op",
    "terms.rewrite_s": "s/op",
    "terms.rewrite_steps": "count/op",
    "terms.sort_key_s": "s/op",
    "terms.np_summands": "count/op",
    "terms.canon_s": "s/op",
    "convexsets.construct_calls": "count/op",
    "convexsets.generators_in": "count/op",
    "convexsets.base_out": "count/op",
    "convexsets.extract_self_s": "s/op",
    "convexsets.minkowski_pairs": "count/op",
    "convexsets.minkowski_s": "s/op",
    "convexsets.union_s": "s/op",
    "convexsets.c_mult_candidates": "count/op",
    "convexsets.c_mult_s": "s/op",
    "convexsets.member_calls": "count/op",
    "convexsets.member_no_lp": "count/op",
    "convexsets.member_self_s": "s/op",
    "distributions.weight_calls": "count/op",
    "distributions.combine_calls": "count/op",
    "distributions.combine_s": "s/op",
    "feasibility.lp_calls": "count/op",
    "feasibility.lp_feasible": "count/op",
    "feasibility.build_self_s": "s/op",
    "simplex.kernel_s": "s/op",
    "simplex.tableau_cells": "count/op",
    "simplex.input_max_bits": "bits",
    "cli.import_s": "s/op",
    "cli.process_s": "s/op",
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.current_op = -1
        self._stack: List[int] = []
        self._active = Counter()
        self._step_depth = 0
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self._active[nid] += 1
        self.outer.append(self._active[nid] == 1)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._active[self.name_of[i]] -= 1

    def span(self, name: str, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap the traced functions of the imported ``csl`` package ``lib``."""
        mods = {name: sys.modules[f"{lib.__name__}.{name}"]
                for name in ("terms", "convexsets", "distributions", "feasibility")}
        mods["kernel"] = mods["feasibility"]._kernel
        bindings = [m for n, m in sys.modules.items()
                    if n == lib.__name__ or n.startswith(lib.__name__ + ".")]
        counters = {
            "terms.rewrite_np": _count_np,
            "convexsets.minkowski": _count_pairs,
            "convexsets.c_mult": _count_candidates,
            "convexsets.member": _count_member,
            "distributions.combine": _count_combine,
            "feasibility.hull": _count_lp,
            "simplex.kernel": _count_kernel,
        }
        for mod_name, attr, span_name in SPANNED:
            original = getattr(mods[mod_name], attr)
            wrapper = self.span(span_name, original, counters.get(span_name))
            if span_name == "convexsets.member":
                wrapper = self._member(wrapper)
            for m in bindings:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        self._patch_construct(mods["convexsets"].ConvexSet)
        self._patch_weight(mods["distributions"].Dist)
        step = mods["terms"].rewrite_step
        self._patch(mods["terms"], "rewrite_step", self._steps(step))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _patch_construct(self, cls) -> None:
        original = cls.__init__
        tracer = self

        def __init__(self, generators):
            gens = list(generators)
            i = tracer.open("convexsets.construct")
            try:
                original(self, gens)
            finally:
                tracer.close(i)
            tracer.counts["convexsets.construct_calls"] += 1
            tracer.counts["convexsets.generators_in"] += len(set(gens))
            tracer.counts["convexsets.base_out"] += len(self.base)

        self._patch(cls, "__init__", __init__)

    def _patch_weight(self, cls) -> None:
        original = cls.weight
        counts = self.counts

        def weight(self, atom):
            counts["distributions.weight_calls"] += 1
            return original(self, atom)

        self._patch(cls, "weight", weight)

    def _steps(self, original):
        tracer = self

        def rewrite_step(t):
            top = tracer._step_depth == 0
            tracer._step_depth += 1
            try:
                result = original(t)
            finally:
                tracer._step_depth -= 1
            if top and result is not None:
                tracer.counts["terms.rewrite_steps"] += 1
            return result

        return rewrite_step

    def _member(self, wrapper):
        counts = self.counts

        def member_of_hull(d, gens):
            before = counts["feasibility.lp_calls"]
            result = wrapper(d, gens)
            if counts["feasibility.lp_calls"] == before:
                counts["convexsets.member_no_lp"] += 1
            return result

        return member_of_hull

    # -- reading -----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, float]:
        """Per-name sums: ``<name>.self`` (duration minus children),
        ``<name>.outer`` (duration of spans with no same-name ancestor) and
        ``<name>.calls``, plus every count and the kernel's largest input."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            totals[name + ".self"] += dur[i] - child[i]
            totals[name + ".calls"] += 1
            if self.outer[i]:
                totals[name + ".outer"] += dur[i]
            if self.parent[i] >= 0 and name == "terms.iota_p" and \
                    self.names[self.name_of[self.parent[i]]] == "terms.rewrite_np":
                totals["terms.sort_key"] += dur[i]
        totals.update(self.counts)
        totals["simplex.input_max_bits"] = self.max_bits
        return dict(totals)

    def write(self, path) -> None:
        """Write every span: a JSON header naming the columns, then one
        line per span ``[op, name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["op", "name", "start", "end", "parent"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.op[i]},\"{self.names[self.name_of[i]]}\","
                         f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]\n")


def _count_np(tracer, args, result):
    tracer.counts["terms.np_summands"] += len(result.summands)


def _count_pairs(tracer, args, result):
    _, s1, s2 = args
    tracer.counts["convexsets.minkowski_pairs"] += len(s1.base) * len(s2.base)


def _count_candidates(tracer, args, result):
    (s,) = args
    n = 0
    for phi in s.base:
        k = 1
        for inner, _ in phi.entries:
            k *= len(inner.base)
        n += k
    tracer.counts["convexsets.c_mult_candidates"] += n


def _count_member(tracer, args, result):
    tracer.counts["convexsets.member_calls"] += 1


def _count_combine(tracer, args, result):
    tracer.counts["distributions.combine_calls"] += 1


def _count_lp(tracer, args, result):
    tracer.counts["feasibility.lp_calls"] += 1
    if result is not None:
        tracer.counts["feasibility.lp_feasible"] += 1


def _count_kernel(tracer, args, result):
    rows, ncols = args
    tracer.counts["simplex.tableau_cells"] += (len(rows) + 1) * (ncols + 1)
    bits = max(abs(x).bit_length() for row in rows for x in row)
    if bits > tracer.max_bits:
        tracer.max_bits = bits


def per_layer(totals: Dict[str, float], ops: int) -> Dict[str, float]:
    """The per-layer metrics of METRICS from summed totals, per operation."""
    t = Counter(totals)
    raw = {
        "terms.parse_s": t["terms.parse.outer"],
        "terms.evaluate_self_s": t["terms.evaluate.self"],
        "terms.rewrite_s": t["terms.rewrite_np.self"],
        "terms.rewrite_steps": t["terms.rewrite_steps"],
        "terms.sort_key_s": t["terms.sort_key"],
        "terms.np_summands": t["terms.np_summands"],
        "terms.canon_s": t["terms.kappa.outer"] + t["terms.print_term.outer"],
        "convexsets.construct_calls": t["convexsets.construct_calls"],
        "convexsets.generators_in": t["convexsets.generators_in"],
        "convexsets.base_out": t["convexsets.base_out"],
        "convexsets.extract_self_s": t["convexsets.construct.self"],
        "convexsets.minkowski_pairs": t["convexsets.minkowski_pairs"],
        "convexsets.minkowski_s": t["convexsets.minkowski.outer"],
        "convexsets.union_s": t["convexsets.union.outer"],
        "convexsets.c_mult_candidates": t["convexsets.c_mult_candidates"],
        "convexsets.c_mult_s": t["convexsets.c_mult.outer"],
        "convexsets.member_calls": t["convexsets.member_calls"],
        "convexsets.member_no_lp": t["convexsets.member_no_lp"],
        "convexsets.member_self_s": t["convexsets.member.self"],
        "distributions.weight_calls": t["distributions.weight_calls"],
        "distributions.combine_calls": t["distributions.combine_calls"],
        "distributions.combine_s": t["distributions.combine.outer"],
        "feasibility.lp_calls": t["feasibility.lp_calls"],
        "feasibility.lp_feasible": t["feasibility.lp_feasible"],
        "feasibility.build_self_s": t["feasibility.hull.self"],
        "simplex.kernel_s": t["simplex.kernel.outer"],
        "simplex.tableau_cells": t["simplex.tableau_cells"],
        "cli.import_s": t["cli.import"],
        "cli.process_s": t["cli.process"],
    }
    out = {name: value / ops for name, value in raw.items()}
    out["simplex.input_max_bits"] = t["simplex.input_max_bits"]
    return {name: out[name] for name in METRICS}
