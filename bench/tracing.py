"""Span and counter tracing of skewrel, installed from outside the package.

``install`` wraps the public functions and methods that form each layer's
boundary. A span wrapper records (name, start, end, parent) in memory; a
counter wrapper only increments a count, for calls too small to time (scalar
and group operations). Functions are replaced in every skewrel module that
holds them, because ``cli``, ``relalg``, ``selftest`` and others import them
by name. Nothing is installed unless a traced run asks for it, so untraced
runs execute the package unmodified.

``summarize`` turns spans and counters into the per-layer metrics: a layer's
self time is its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name, fn, note=None):
        """Wrap fn in a span; note(args, result) may record counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def counter(self, name, fn, note=None):
        """Wrap fn so each call adds one to counts[name]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def at_least(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def _replace_function(owner, attr, wrapper):
    original = getattr(owner, attr)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "skewrel":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer):
    """Wrap each layer boundary of an imported skewrel package."""
    from skewrel import actions, documents, fields, funalg, groups, relalg, selftest, skew

    counts = tracer.counts

    def add(name, amount):
        counts[name] += amount

    def out_bytes(args, text):
        add("documents.output_bytes", len(text.encode("utf-8")))

    def action_points(args, result):
        tracer.at_least("actions.points", len(args[0].carrier))

    def relation_size(args, rel):
        tracer.at_least("actions.points", len(rel.carrier))
        tracer.at_least("actions.relation_pairs", len(rel.pairs))
        least = {}                        # x -> the least label related to x
        for x, y in rel.pairs:
            least[x] = min(least.get(x, y), y)
        tracer.at_least("actions.classes", len(set(least.values())))

    def term_pairs(args, result):
        add("skew.term_pairs", len(args[0].terms) * len(args[1].terms))

    def pairs_scanned(args, result):
        add("relalg.conv_pairs_scanned", len(args[0].coeffs) * len(args[1].coeffs))

    functions = [
        (documents, "load_action", "documents.load_action", None),
        (documents, "parse_skew", "documents.parse_elements", None),
        (documents, "parse_rel", "documents.parse_elements", None),
        (documents, "skew_doc", "documents.serialize", None),
        (documents, "rel_doc", "documents.serialize", None),
        (documents, "dump_json", "documents.serialize", out_bytes),
        (actions, "validate_partial_action", "actions.validate", action_points),
        (actions, "check_free", "actions.check_free", None),
        (actions, "build_relation", "actions.build_relation", relation_size),
        (actions, "verify_equivalence", "actions.verify_equivalence", None),
        (actions, "enumerate_invariant_subsets", "actions.enumerate_invariant_subsets",
         None),
        (relalg, "gamma", "relalg.gamma", None),
        (relalg, "gamma_inv", "relalg.gamma_inv", None),
        (relalg, "brute_force_ideal_span", "relalg.oracle", None),
        (selftest, "suite_ideals", "selftest.ideals", None),
        (selftest, "suite_gamma", "selftest.gamma", None),
        (selftest, "suite_associativity", "selftest.associativity", None),
    ]
    for owner, attr, name, note in functions:
        _replace_function(owner, attr, tracer.span(name, getattr(owner, attr), note))

    methods = [
        (funalg.InducedAlgebraAction, "apply", "funalg.apply", None),
        (skew.SkewElement, "__mul__", "skew.mul", term_pairs),
        (relalg.RelElement, "__mul__", "relalg.conv", pairs_scanned),
    ]
    for cls, attr, name, note in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), note))

    counted = [
        (actions.PartialAction, "check_elements", "actions.check_elements_calls",
         lambda args, result: add("actions.check_elements", len(result))),
        (groups.GroupElement, "__mul__", "groups.mul_calls", None),
        (groups.GroupElement, "inverse", "groups.inverse_calls", None),
        (fields.Scalar, "__add__", "fields.scalar_ops", None),
        (fields.Scalar, "__mul__", "fields.scalar_ops", None),
        (fields.Scalar, "__neg__", "fields.scalar_ops", None),
        (fields.Scalar, "inverse", "fields.scalar_ops", None),
        (funalg.FunAlgElement, "__init__", "funalg.elements_built",
         lambda args, result: add("funalg.points_indexed", len(args[2]))),
        (relalg.ExactRowSpace, "add", "relalg.rowspace_adds",
         lambda args, grew: add("relalg.rowspace_grew", int(grew))),
    ]
    for cls, attr, name, note in counted:
        setattr(cls, attr, tracer.counter(name, getattr(cls, attr), note))


def summarize(spans) -> dict:
    """{span name: {"calls", "total_s", "self_s"}} from (name, start, end, parent)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
