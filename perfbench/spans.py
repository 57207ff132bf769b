"""Tracing for the benchmark's traced run, installed from outside ddebranch.

Coarse calls get a span (name, start, end, parent); hot calls get a counter
only.  Spans nest by construction: a span is pushed on a stack before its
start is read and popped after its end is read, so a child's interval lies
within its parent's.  Each wrapper replaces the function on every ddebranch module that
holds it, so callers that imported the name (`poincare.integrate`,
`continuation._newton_fixed_point`, ...) see the wrapper too.  Spans are
kept in memory and written out once the request ends; per-layer metrics and
self times are derived from them afterwards.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from statistics import median
from time import perf_counter

# Metric name -> unit, in the order they are reported.
LAYER_METRICS = {
    "expr.evals": "count",
    "problem.rhs_evals": "count",
    "fields.average_f_calls": "count",
    "fields.average_f_s": "s",
    "fields.wf_calls": "count",
    "fields.wf_hit_ratio": "ratio",
    "integrator.integrations": "count",
    "integrator.steps": "count",
    "integrator.s": "s",
    "integrator.failures": "count",
    "poincare.translates": "count",
    "poincare.translate_self_s": "s",
    "poincare.newton_solves": "count",
    "poincare.newton_failures": "count",
    "poincare.newton_s": "s",
    "poincare.translates_per_solve": "ratio",
    "continuation.attempts": "count",
    "continuation.points": "count",
    "continuation.accept_ratio": "ratio",
    "degree.calls": "count",
    "degree.field_evals": "count",
    "degree.s": "s",
    "degree.self_s": "s",
    "lienard.sigma_s": "s",
    "config.load_problem_s": "s",
    "trace.overhead_s": "s",
}

_INTEGRATION_FAILURES = ("BlowupError", "DomainEscapeError")


class Tracer:
    """Spans and counters of one request."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, tag].
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, tag=None):
        """Wrap fn in a span; tag(result) may label the span on return."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            counts[name] += 1
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[4] = tag(out)
            return out

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper):
        """Put wrapper on every ddebranch module attribute bound to original."""
        hit = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "ddebranch" or modname.startswith("ddebranch.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    hit = True
        if not hit:
            raise RuntimeError(f"no ddebranch module holds {original!r}")

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        from ddebranch import (config, continuation, degree, expr, fields,
                               integrator, lienard, poincare)
        from ddebranch.fields import FieldHandle
        from ddebranch.problem import CoupledProblem

        counts = self.counts

        def integrate_steps(traj):
            counts["integrator.steps"] += len(traj.times) - 1

        coarse = [
            (config.load_problem, "config.load_problem", None),
            (lienard.sigma_transform, "lienard.sigma_transform", None),
            (fields.average_f, "fields.average_f", None),
            (integrator.integrate, "integrator.integrate", integrate_steps),
            (poincare.translate, "poincare.translate", None),
            (poincare._newton_fixed_point, "poincare.newton",
             lambda out: "failed" if out is None else None),
            (poincare.find_fixed_points, "poincare.find_fixed_points", None),
            (poincare.verify_index_identity, "poincare.verify_index_identity", None),
            (continuation.continue_branch, "continuation.continue_branch",
             lambda branch: len(branch.points)),
            (degree.degree_auto, "degree.degree_auto", None),
        ]
        for fn, name, tag in coarse:
            self._replace(fn, self.span(name, fn, tag))
        self._replace(expr.evaluate, self.counter("expr.evaluate", expr.evaluate))
        self._replace(fields.make_wf, self._make_wf(fields.make_wf))
        for attr in ("eval_f", "eval_g", "eval_h"):
            method = CoupledProblem.__dict__[attr]
            self._patch_method(CoupledProblem, attr, self.counter(f"problem.{attr}", method))
        self._patch_method(FieldHandle, "__call__",
                           self.counter("degree.field_call", FieldHandle.__dict__["__call__"]))

    def _make_wf(self, make_wf):
        counts = self.counts

        def wrapped_make_wf(*args, **kwargs):
            wf = make_wf(*args, **kwargs)

            def counted_wf(p, q):
                counts["fields.wf"] += 1
                before = counts["fields.average_f"]
                out = wf(p, q)
                if counts["fields.average_f"] != before:
                    counts["fields.wf_miss"] += 1
                return out

            return counted_wf

        return wrapped_make_wf

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this request (all but trace.overhead_s)."""
        spans, c = self.spans, self.counts  # c[span name] is its call count
        dur = {}
        child = {}
        for name, start, end, parent, _ in spans:
            dur[name] = dur.get(name, 0.0) + (end - start)
            if parent >= 0:
                key = (spans[parent][0], name)
                child[key] = child.get(key, 0.0) + (end - start)

        def self_time(name):
            return dur.get(name, 0.0) - sum(v for (p, _), v in child.items() if p == name)

        attempts = sum(
            1 for name, _, _, parent, _ in spans
            if name == "poincare.newton" and parent >= 0
            and spans[parent][0] == "continuation.continue_branch"
        )
        points = sum(tag for name, _, _, _, tag in spans
                     if name == "continuation.continue_branch" and tag is not None)
        solves = c["poincare.newton"]
        wf_calls = c["fields.wf"]
        return {
            "expr.evals": c["expr.evaluate"],
            "problem.rhs_evals": c["problem.eval_f"] + c["problem.eval_g"] + c["problem.eval_h"],
            "fields.average_f_calls": c["fields.average_f"],
            "fields.average_f_s": dur.get("fields.average_f", 0.0),
            "fields.wf_calls": wf_calls,
            "fields.wf_hit_ratio": (wf_calls - c["fields.wf_miss"]) / wf_calls if wf_calls else 0.0,
            "integrator.integrations": c["integrator.integrate"],
            "integrator.steps": c["integrator.steps"],
            "integrator.s": dur.get("integrator.integrate", 0.0),
            "integrator.failures": sum(
                1 for name, _, _, _, tag in spans
                if name == "integrator.integrate" and tag in _INTEGRATION_FAILURES
            ),
            "poincare.translates": c["poincare.translate"],
            "poincare.translate_self_s": self_time("poincare.translate"),
            "poincare.newton_solves": solves,
            "poincare.newton_failures": sum(
                1 for name, _, _, _, tag in spans if name == "poincare.newton" and tag is not None
            ),
            "poincare.newton_s": dur.get("poincare.newton", 0.0),
            "poincare.translates_per_solve": c["poincare.translate"] / solves if solves else 0.0,
            "continuation.attempts": attempts,
            "continuation.points": points,
            "continuation.accept_ratio": max(points - 1, 0) / attempts if attempts else 0.0,
            "degree.calls": c["degree.degree_auto"],
            "degree.field_evals": c["degree.field_call"],
            "degree.s": dur.get("degree.degree_auto", 0.0),
            "degree.self_s": self_time("degree.degree_auto"),
            "lienard.sigma_s": dur.get("lienard.sigma_transform", 0.0),
            "config.load_problem_s": dur.get("config.load_problem", 0.0),
        }

    def write(self, path):
        """Write the spans and counters of this request as JSON."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "tag": t}
                for n, s, e, p, t in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def combine(per_request: list) -> tuple:
    """Fold the layer metrics of several traced requests into one dict.

    Counts and ratios must repeat exactly across requests; times are
    medians.  Returns (metrics, mismatched names).
    """
    out, mismatched = {}, []
    for name in per_request[0]:
        values = [m[name] for m in per_request]
        if LAYER_METRICS[name] == "s":
            out[name] = median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
    return out, mismatched
