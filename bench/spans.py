"""Span tracing around the program's public functions, applied from outside.

``Tracer.install`` replaces each listed function with a wrapper at every
``cmgames`` module namespace that binds it (its home module, the package
re-exports, and every module that imported it by name), so calls made
through module globals are traced as well.  A span is a tuple
``(id, parent, op, name, start, end)``; spans are kept in memory and written
out when the run ends.  A span's self time is its duration minus the part of
its interval covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Public functions wrapped per layer, named by their home module.
TRACED = {
    "game": ("load_game", "validate_game"),
    "dynamics": ("compute_occupancy", "evaluate", "slacks_of", "occupancy_to_policy"),
    "modifications": ("enumerate_det_modifications", "apply_modification",
                      "apply_nonmarkov", "markovianize"),
    "aux_mdps": ("build_mdp1", "build_mdp2", "lift_reward", "optimize_aux", "aux_occupancy"),
    "lp": ("solve_lp", "modification_values", "batch_modified_occupancies", "hull_membership",
           "max_min_slack", "min_weight_feasible", "check_lp_regularity", "mix_occupancies"),
    "equilibrium": ("verify_cce", "find_cce", "check_strong_slater_at", "check_weak_slater_at",
                    "feasible_occupancy", "slater_sampling_harness"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _solve_lp_counts(args, kwargs, result, tracer):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = lp.a_ub.shape[0] + lp.a_eq.shape[0], lp.c.shape[0]
    tracer.counts["lp.solve_lp.rows"] += rows
    tracer.counts["lp.solve_lp.cols"] += cols
    tracer.counts["lp.solve_lp.nonoptimal"] += result.status != "optimal"
    tracer.lp_shapes[rows, cols] += 1


def _enumerate_counts(args, kwargs, result, tracer):
    tracer.counts["modifications.enumerate_det_modifications.mods"] += len(result[0])


def _find_counts(args, kwargs, result, tracer):
    tracer.counts["equilibrium.find_cce.iterations"] += result.trace.iterations
    tracer.counts["equilibrium.find_cce.converged"] += bool(result.trace.converged)


def _harness_counts(args, kwargs, result, tracer):
    tracer.counts["equilibrium.slater_sampling_harness.tested"] += result.tested
    tracer.counts["equilibrium.slater_sampling_harness.sampled"] += result.num_samples


# Work counted at the boundary, from each call's arguments and result.
COUNTERS = {
    "lp.solve_lp": _solve_lp_counts,
    "modifications.enumerate_det_modifications": _enumerate_counts,
    "equilibrium.find_cce": _find_counts,
    "equilibrium.slater_sampling_harness": _harness_counts,
}


class Tracer:
    """Collects spans and boundary counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.lp_shapes: Counter = Counter()   # (rows, cols) of solve_lp calls
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span ``name`` whose parent is the innermost open span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op, name, start, end))
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(args, kwargs, result, self)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "cmgames" or key.startswith("cmgames."))]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"cmgames.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "start", "end"),
                                             span))) + "\n")


def self_times(spans, op_scale=None) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time and call count per span name.

    Self time is the span's duration minus the union of its direct
    children's intervals, clipped to the span.  ``op_scale[op]``, when
    given, multiplies the self time of every span of operation ``op``.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, _parent, op, name, start, end in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        scale = 1.0 if op_scale is None else op_scale[op]
        totals[name] += scale * ((end - start) - covered)
        calls[name] += 1
    return dict(totals), dict(calls)
