"""Span tracing around calls into momentlab's layers.

The tracer wraps every public function of the package's modules and
rebinds the wrapper at every module attribute that holds the function,
including ``from .x import f`` bindings such as ``orthopoly.bareiss_det``
and ``chainseq.true_interval_estimate`` and the re-exports on the
package itself, so calls between layers are caught as well as calls from
the benchmark.  Nothing inside the package is edited.

Spans stay in memory as (name, layer, start, end, parent) rows and are
aggregated into per-layer figures at the end.  A few functions also feed
counters from their arguments or results (pivots, generated terms, chain
steps, quadrature calls).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

#: Modules traced as layers.  ``exact`` has no call boundary of its own
#: (its scalars are used everywhere), so it is described by the exact
#: output descriptors instead of spans.
LAYERS = ("seqcore", "hankel", "orthopoly", "chainseq", "measures")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent]
        self.stack = []
        self.counts = {"psd_pivots": 0, "psd_useful": 0, "psd_singular": 0,
                       "terms": 0, "chain_steps": 0, "quad_calls": 0}
        self.max_rel_error = 0.0
        self._seen_blocks = set()
        self._bindings = []  # (module, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Build a wrapper for each public function of every traced layer.

        The wrappers take effect between enable() and disable().
        """
        package = importlib.import_module("momentlab")
        modules = [package] + [importlib.import_module(f"momentlab.{name}")
                               for name in LAYERS + ("cli",)]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"momentlab.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, layer, f"{layer}.{name}")
        measures = importlib.import_module("momentlab.measures")
        wrappers[measures.quad] = self._count_quad(measures.quad)
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable attribute
                    continue
                if wrapper is not None:
                    self._bindings.append((module, attr, value, wrapper))
        return self

    def enable(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def disable(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def begin_op(self):
        """Mark an op boundary: pivots are only reusable within one op."""
        self._seen_blocks.clear()

    def _wrap(self, fn, layer, qualname):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        hook = getattr(self, "_hook_" + qualname.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([qualname, layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count_quad(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["quad_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters ------------------------------------------------------------

    def _hook_hankel_psd_status(self, args, verdict):
        """Pivots returned versus pivots one incremental elimination needs.

        A matrix whose leading block was already decided in this op needs
        one new pivot; a matrix decided before needs none.
        """
        rows = args[0].rows
        if verdict.pivots is not None:  # singular verdicts pad with zeros
            self.counts["psd_pivots"] += sum(1 for p in verdict.pivots if p != 0)
        if verdict.status == "positive_semidefinite_singular":
            self.counts["psd_singular"] += 1
        if rows not in self._seen_blocks:
            lead = tuple(row[:-1] for row in rows[:-1])
            self.counts["psd_useful"] += 1 if lead in self._seen_blocks else len(rows)
            self._seen_blocks.add(rows)

    def _hook_seqcore_catalan_like(self, args, seq):
        self.counts["terms"] += len(seq)

    def _hook_chainseq_minimal_parameters(self, args, verdict):
        self.counts["chain_steps"] += len(verdict.parameters) - 1

    def _hook_measures_verify_representation(self, args, report):
        self.max_rel_error = max(self.max_rel_error, report.max_rel_error)

    # -- output ----------------------------------------------------------------

    def state(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "max_rel_error": self.max_rel_error}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.state(), fh)


def merge_state(total: dict, part: dict) -> dict:
    """Add one process's spans and counters to a running total."""
    offset = len(total["spans"])
    for name, layer, start, end, parent in part["spans"]:
        total["spans"].append([name, layer, start, end,
                               parent + offset if parent >= 0 else -1])
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    total["max_rel_error"] = max(total["max_rel_error"], part["max_rel_error"])
    return total


def aggregate(state: dict, epochs: int) -> dict:
    """Per-layer calls, busy and self time, per epoch of the workload.

    Busy time of a layer is the time covered by its outermost spans;
    self time is the time in the layer's own spans not covered by any
    child span.  Per-function busy times use the outermost span of that
    function name.
    """
    spans = state["spans"]
    n = len(spans)
    child_time = [0.0] * n
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i, key, field):
        parent = spans[i][4]
        while parent >= 0:
            if spans[parent][field] == key:
                return False
            parent = spans[parent][4]
        return True

    out = {}
    per_name_busy = {}
    for layer in LAYERS:
        calls = busy = self_time = 0.0
        for i, (name, span_layer, start, end, parent) in enumerate(spans):
            if span_layer != layer:
                continue
            calls += 1
            self_time += (end - start) - child_time[i]
            if outermost(i, layer, 1):
                busy += end - start
        out[f"{layer}.calls"] = calls / epochs
        out[f"{layer}.busy_s"] = busy / epochs
        out[f"{layer}.self_s"] = self_time / epochs
    for i, (name, layer, start, end, parent) in enumerate(spans):
        if outermost(i, name, 0):
            per_name_busy[name] = per_name_busy.get(name, 0.0) + (end - start)
    calls_by_name = {}
    for name, *_ in spans:
        calls_by_name[name] = calls_by_name.get(name, 0) + 1

    counts = state["counts"]
    out["hankel.psd_calls"] = calls_by_name.get("hankel.psd_status", 0) / epochs
    out["hankel.psd_busy_s"] = per_name_busy.get("hankel.psd_status", 0.0) / epochs
    out["hankel.psd_singular"] = counts["psd_singular"] / epochs
    out["hankel.det_calls"] = calls_by_name.get("hankel.bareiss_det", 0) / epochs
    out["hankel.det_busy_s"] = per_name_busy.get("hankel.bareiss_det", 0.0) / epochs
    out["hankel.useful_pivot_ratio"] = (counts["psd_useful"] / counts["psd_pivots"]
                                        if counts["psd_pivots"] else 0.0)
    out["orthopoly.recover_busy_s"] = (
        per_name_busy.get("orthopoly.recurrence_from_moments", 0.0) / epochs)
    out["orthopoly.zeros_busy_s"] = per_name_busy.get("orthopoly.ops_zeros", 0.0) / epochs
    out["seqcore.terms"] = counts["terms"] / epochs
    out["chainseq.chain_steps"] = counts["chain_steps"] / epochs
    out["measures.gcheck_busy_s"] = (
        per_name_busy.get("measures.check_g_nonneg", 0.0) / epochs)
    out["measures.quad_calls"] = counts["quad_calls"] / epochs
    out["measures.max_rel_error"] = state["max_rel_error"]
    return out
