"""Spans and counters recorded from outside the library, for the traced run.

Modules of bilevelpen import one another's functions by name, so each wrapper
is installed on the name in the calling module (for example
``bilevelpen.upper_solver.select_response``), and removed again on exit.
Calls too frequent for a span (field evaluations, linear-oracle calls) are
counted and timed as leaves; their time is charged to the enclosing span as
child time. Spans stay in memory until the run writes them out.
"""

import dataclasses
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from bilevelpen import (cli, continuation, diagnostics, lower_solver, model,
                        oracle, selection, simplex, upper_solver)


class Tracer:
    def __init__(self):
        self.spans = []         # [name, parent index or -1, start, end, leaf seconds]
        self._stack = []
        self._in_leaf = False
        self.counts = Counter()
        self.leaf_s = Counter()
        self.values = defaultdict(list)   # per-call observations for medians
        self._patches = []
        self._op_fresh = False

    # -- primitives --------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result) records extra counts from its result."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def leaf(self, name, fn, size=None):
        """Count and time fn; size(args) adds to the counter name + '_size'."""
        counts, leaf_s, spans, stack = self.counts, self.leaf_s, self.spans, self._stack

        def wrapper(*args):
            if self._in_leaf:
                return fn(*args)
            self._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                self._in_leaf = False
                counts[name] += 1
                leaf_s[name] += dt
                if size is not None:
                    counts[name + "_size"] += size(args)
                if stack:
                    spans[stack[-1]][4] += dt
        return wrapper

    def patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def new_op(self):
        self._op_fresh = True

    def install(self):
        _install(self)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def span_stats(self):
        """Per span name: (calls, total seconds, self seconds, durations)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, _, start, end, leaf) in enumerate(self.spans):
            calls, total, own, durations = stats.get(name, (0, 0.0, 0.0, []))
            durations.append(end - start)
            stats[name] = (calls + 1, total + end - start,
                           own + (end - start) - child[i] - leaf, durations)
        return stats

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "fields": ["name", "parent", "start", "end", "leaf_s"],
               "spans": [[index[n], p, round(s, 7), round(e, 7), round(l, 7)]
                         for n, p, s, e, l in self.spans],
               "counts": dict(self.counts), "leaf_s": dict(self.leaf_s)}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _install(tracer):
    """Put every wrapper on the names the library's callers use."""
    t = tracer
    leaf = t.leaf

    def counted_field(field):
        return dataclasses.replace(
            field,
            evaluate=leaf("expressions.evaluate", field.evaluate),
            gradient_x=leaf("expressions.gradient_x", field.gradient_x),
            evaluate_batch=None if field.evaluate_batch is None else leaf(
                "expressions.evaluate_batch", field.evaluate_batch,
                size=lambda args: len(args[1])))

    compile_field = t.span("expressions.field_from_expression",
                           model.field_from_expression)
    t.patch(model, "field_from_expression",
            lambda *a, **k: counted_field(compile_field(*a, **k)))

    for attr in ("problem_from_dict", "registry_get"):
        t.patch(model, attr, t.span("model.build", getattr(model, attr)))
    t.patch(model, "validate_problem", t.span("model.validate", model.validate_problem))
    for attr in ("solve", "feasible_point"):
        t.patch(simplex, attr, t.span("simplex.solve", getattr(simplex, attr)))

    def enumerate_counted(fn):
        wrapped = t.span("lower_solver.enumerate_vertices", fn)

        def enumerate_vertices(C):
            fresh = C.cached_vertices is None
            V = wrapped(C)
            if fresh:
                t.counts["lower_solver.vertices"] += len(V)
            return V
        return enumerate_vertices

    def lmo_counted(fn, name):
        return lambda V: leaf(name, fn(V))

    for module in (lower_solver, selection, oracle, diagnostics):
        t.patch(module, "enumerate_vertices", enumerate_counted(module.enumerate_vertices))
        t.patch(module, "vertex_lmo", lmo_counted(
            module.vertex_lmo,
            "lower_solver.lmo_select" if module is selection else "lower_solver.lmo"))
    for module in (lower_solver, oracle):
        t.patch(module, "lp_minimize", t.span("lower_solver.lp_minimize", module.lp_minimize))

    def after_select(result):
        t.counts["selection.starts"] += result.n_starts
        t.counts["selection.unreliable"] += not result.reliable
    for module in (upper_solver, selection):
        t.patch(module, "select_response",
                t.span("selection.select_response", module.select_response, after_select))

    def after_solve(result):
        t.counts["upper_solver.upper_evals"] += result.evals
    t.patch(continuation, "solve_penalized",
            t.span("upper_solver.solve_penalized", continuation.solve_penalized, after_solve))
    t.patch(upper_solver, "pattern_search_maximize",
            t.span("upper_solver.pattern_search_maximize",
                   upper_solver.pattern_search_maximize))

    def after_trace(trace):
        evals = [r.evals for r in trace.rows]
        t.counts["continuation.rows"] += len(evals)
        t.values["continuation.evals_first_row"].append(evals[0])
        t.values["continuation.evals_later_row"].extend(evals[1:])
    t.patch(continuation, "run_continuation",
            t.span("continuation.run_continuation", continuation.run_continuation,
                   after_trace))

    t.patch(cli, "solve_three_level",
            t.span("oracle.solve_three_level", cli.solve_three_level))
    t.patch(oracle, "pessimistic_select",
            t.span("oracle.pessimistic_select", oracle.pessimistic_select))
    lower_set = t.span("oracle.exact_lower_set", oracle.exact_lower_set)

    def exact_lower_set(*args, **kwargs):
        # The first call of an op is the first on its fresh problem; its batch
        # is the whole x grid (or the vertices of C, for a linear follower).
        if not t._op_fresh:
            return lower_set(*args, **kwargs)
        t._op_fresh = False
        points = t.counts["expressions.evaluate_batch_size"]
        t0 = perf_counter()
        result = lower_set(*args, **kwargs)
        t.values["oracle.lower_set_first_s"].append(perf_counter() - t0)
        t.values["oracle.grid_points"].append(
            t.counts["expressions.evaluate_batch_size"] - points)
        return result
    t.patch(oracle, "exact_lower_set", exact_lower_set)

    def after_certificate(cert):
        t.counts["diagnostics.cert_invalid"] += not cert.valid
    t.patch(diagnostics, "build_certificate",
            t.span("diagnostics.build_certificate", diagnostics.build_certificate,
                   after_certificate))
    t.patch(cli, "main", t.span("cli.main", cli.main))


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, ops):
    """Every per-layer metric of BENCHMARK.json, normalised per completed op."""
    stats = tracer.span_stats()
    counts, leaf_s, values = tracer.counts, tracer.leaf_s, tracer.values

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0, []))[0]

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0, []))[1] for n in names)

    def self_s(layer):
        own = sum(s[2] for n, s in stats.items() if n.split(".")[0] == layer)
        return own + sum(v for n, v in leaf_s.items() if n.split(".")[0] == layer)

    def per_call_us(leaf_name):
        return 1e6 * leaf_s[leaf_name] / counts[leaf_name] if counts[leaf_name] else 0.0

    select_calls = calls("selection.select_response")
    lmo_select = counts["lower_solver.lmo_select"]
    first = values["continuation.evals_first_row"]
    later = values["continuation.evals_later_row"]
    m = {
        "expressions.eval_calls": counts["expressions.evaluate"] / ops,
        "expressions.grad_calls": counts["expressions.gradient_x"] / ops,
        "expressions.batch_points": counts["expressions.evaluate_batch_size"] / ops,
        "expressions.eval_us": per_call_us("expressions.evaluate"),
        "expressions.grad_us": per_call_us("expressions.gradient_x"),
        "expressions.self_s": self_s("expressions") / ops,
        "model.build_s": total("model.build") / ops,
        "model.validate_s": total("model.validate") / ops,
        "simplex.solve_calls": calls("simplex.solve") / ops,
        "simplex.solve_s": total("simplex.solve") / ops,
        "lower_solver.enumerate_s": total("lower_solver.enumerate_vertices") / ops,
        "lower_solver.vertices": counts["lower_solver.vertices"] / ops,
        "lower_solver.lp_calls": calls("lower_solver.lp_minimize") / ops,
        "lower_solver.lmo_calls": (counts["lower_solver.lmo"] + lmo_select) / ops,
        "lower_solver.lmo_calls_per_select": lmo_select / select_calls if select_calls else 0.0,
        "lower_solver.self_s": self_s("lower_solver") / ops,
        "selection.calls": select_calls / ops,
        "selection.call_us_p50": 1e6 * _median(
            stats.get("selection.select_response", (0, 0, 0, []))[3]),
        "selection.self_s": self_s("selection") / ops,
        "selection.starts": counts["selection.starts"] / ops,
        "selection.unreliable_frac": (counts["selection.unreliable"] / select_calls
                                      if select_calls else 0.0),
        "upper_solver.calls": calls("upper_solver.solve_penalized") / ops,
        "upper_solver.upper_evals": counts["upper_solver.upper_evals"] / ops,
        "upper_solver.self_s": self_s("upper_solver") / ops,
        "continuation.rows": counts["continuation.rows"] / ops,
        "continuation.evals_first_row": statistics.fmean(first) if first else 0.0,
        "continuation.evals_later_row_mean": statistics.fmean(later) if later else 0.0,
        "continuation.warm_ratio": (statistics.fmean(later) / statistics.fmean(first)
                                    if first and later else 0.0),
        "oracle.three_level_s": total("oracle.solve_three_level") / ops,
        "oracle.pessimistic_select_calls": calls("oracle.pessimistic_select") / ops,
        "oracle.pessimistic_select_us": 1e6 * _median(
            stats.get("oracle.pessimistic_select", (0, 0, 0, []))[3]),
        "oracle.lower_set_first_s": _median(values["oracle.lower_set_first_s"]),
        "oracle.grid_points": (statistics.fmean(values["oracle.grid_points"])
                               if values["oracle.grid_points"] else 0.0),
        "oracle.self_s": self_s("oracle") / ops,
        "diagnostics.certificate_s": total("diagnostics.build_certificate") / ops,
        "diagnostics.cert_invalid": counts["diagnostics.cert_invalid"] / ops,
        "cli.self_s": self_s("cli") / ops,
    }
    return m
