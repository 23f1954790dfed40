"""Outside-in tracing of the ``shufflemix`` layers, with no source edits.

:func:`install` wraps every public function of each layer module (and the
method ``GroupTable.right_mul``) by reassigning module attributes, including
the by-name imports other modules hold, so calls made through ``cli``'s own
imports are traced too.

A wrapped call opens a span when it crosses a layer boundary (the caller's
layer differs) or when the function feeds a named metric (``PROBES``); other
calls are only counted, which keeps per-letter helpers cheap.  Spans live in
memory as ``[name, start, end, parent, counts]`` and are written out by the
caller at the end.  Self time is a span's duration minus the time its child
spans cover; :func:`layer_metrics` turns spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("perms", "measures", "exact", "coupling", "flows", "wilson", "report", "cli")

# function -> the metric its self time feeds
PROBES = {
    "exact.convolve_step": "exact.convolve_step_s",
    "exact.tv_distance": "exact.distance_s",
    "exact.lp_distance": "exact.distance_s",
    "exact.group_table": "exact.right_mul_s",
    "exact.GroupTable.right_mul": "exact.right_mul_s",
    "exact.spectrum": "exact.spectrum_s",
    "coupling.coupling_trials": "coupling.coupling_trials_s",
    "coupling.coupon_collector": "coupling.lower_bound_s",
    "coupling.increasing_bottom_statistic": "coupling.lower_bound_s",
    "coupling.single_card_lower_bound": "coupling.lower_bound_s",
    "flows.build_flow_general": "flows.build_s",
    "flows.build_flow_large_k": "flows.build_s",
    "flows.build_flow_rudvalis": "flows.build_s",
    "flows.build_odd_flow_tbk": "flows.build_s",
    "flows.congestion_A": "flows.congestion_s",
    "flows.verify_flow": "flows.verify_s",
    "flows.congestion_lower_bound": "flows.small_n_s",
    "flows.dirichlet_form": "flows.small_n_s",
    "wilson.compute_params": "wilson.params_s",
    "wilson.newton_root": "wilson.params_s",
    "wilson.eigenfunction_residual": "wilson.residual_s",
}

# metrics that are a whole layer's self time
LAYER_SELF = {
    "perms.self_s": "perms",
    "measures.build_s": "measures",
    "exact.self_s": "exact",
    "coupling.self_s": "coupling",
    "flows.self_s": "flows",
    "wilson.self_s": "wilson",
    "report.emit_s": "report",
    "cli.self_s": "cli",
}

# metrics that count calls
CALLS = {
    "exact.convolve_step_calls": "exact.convolve_step",
    "perms.rank_calls": "perms.rank",
    "perms.unrank_calls": "perms.unrank",
}

# trace metrics in report order; the benchmark adds trace.overhead_s
METRICS = (
    "exact.convolve_step_s", "exact.convolve_step_calls", "exact.distance_s",
    "exact.right_mul_s", "exact.spectrum_s", "exact.self_s",
    "coupling.coupling_trials_s", "coupling.trial_steps",
    "coupling.trial_step_ns.full_deck", "coupling.trial_step_ns.block",
    "coupling.censored", "coupling.lower_bound_s", "coupling.self_s",
    "flows.build_s", "flows.paths", "flows.letters", "flows.congestion_s",
    "flows.verify_s", "flows.small_n_s", "flows.self_s",
    "perms.rank_calls", "perms.unrank_calls", "perms.self_s",
    "wilson.params_s", "wilson.residual_s", "wilson.newton_iters", "wilson.self_s",
    "measures.build_s", "report.emit_s", "report.bytes_out", "cli.self_s",
    "trace.spans",
)


# ---------------------------------------------------------------------------
# counts read from return values; each tolerates a changed return type


def _trial_counts(result, bound):
    stats = list(result)
    return {
        "full_deck": bound.arguments.get("k") == bound.arguments.get("n"),
        "steps": sum(int(getattr(s, "coupling_time", 0)) for s in stats),
        "censored": sum(bool(getattr(s, "censored", False)) for s in stats),
    }


def _flow_counts(result, bound):
    paths = getattr(result, "paths", {})
    return {"paths": len(paths), "letters": sum(len(p.word) for p in paths)}


def _newton_counts(result, bound):
    return {"newton_iters": len(getattr(result, "iterates", ())) - 1}


def _bytes_counts(result, bound):
    return {"bytes_out": len(result)}


EXTRACT = {
    "coupling.coupling_trials": _trial_counts,
    "flows.build_flow_general": _flow_counts,
    "flows.build_flow_large_k": _flow_counts,
    "flows.build_flow_rudvalis": _flow_counts,
    "flows.build_odd_flow_tbk": _flow_counts,
    "wilson.newton_root": _newton_counts,
    "report.json_bytes": _bytes_counts,
    "report.csv_bytes": _bytes_counts,
}


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Spans and call counts of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self._stack = [-1]            # open span indices; -1 is the root
        self._layers = ["bench"]      # layer of each open span

    def wrap(self, name: str, layer: str, fn):
        extract = EXTRACT.get(name)
        probe = name in PROBES or extract is not None
        sig = inspect.signature(fn) if extract else None
        spans, calls, stack, layers = self.spans, self.calls, self._stack, self._layers
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if not probe and layers[-1] == layer:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                layers.pop()
            if extract is not None:
                # counting is the benchmark's work: it gets its own span so
                # the caller's self time does not absorb it
                t0 = clock()
                try:
                    span[4] = extract(result, sig.bind(*args, **kwargs))
                except (AttributeError, TypeError):
                    pass            # a changed return type: no counts
                spans.append(["bench.count", t0, clock(), stack[-1], None])
            return result

        return traced


def _targets(modules):
    """(qualified name, layer, owner, attribute, function) to wrap."""
    for layer in LAYERS:
        mod = modules.get(f"shufflemix.{layer}")
        if mod is None:
            continue
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield f"{layer}.{attr}", layer, mod, attr, obj
        table = getattr(mod, "GroupTable", None)
        if getattr(table, "__module__", None) == mod.__name__ and hasattr(table, "right_mul"):
            yield f"{layer}.GroupTable.right_mul", layer, table, "right_mul", table.right_mul


def install(tracer: Tracer) -> None:
    """Wrap the loaded ``shufflemix`` layers in place."""
    modules = sys.modules
    wrapped = {}
    for name, layer, owner, attr, fn in list(_targets(modules)):
        traced = tracer.wrap(name, layer, fn)
        setattr(owner, attr, traced)
        wrapped[id(fn)] = traced
    # rebind by-name imports (``from .exact import spectrum``) everywhere
    for modname, mod in list(modules.items()):
        if modname != "shufflemix" and not modname.startswith("shufflemix."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append(end - start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, calls) -> dict[str, float]:
    """Per-layer metrics from one traced process's spans and call counts."""
    selfs = self_times(spans)
    m = dict.fromkeys(METRICS, 0.0)
    for metric, fn in CALLS.items():
        m[metric] = float(calls.get(fn, 0))
    layer_metric = {layer: metric for metric, layer in LAYER_SELF.items()}
    step_time = {True: 0.0, False: 0.0}
    steps = {True: 0, False: 0}
    for span, own in zip(spans, selfs):
        name, counts = span[0], span[4]
        if name in PROBES:
            m[PROBES[name]] += own
        metric = layer_metric.get(layer_of(name))
        if metric is not None:
            m[metric] += own
        if not counts:
            continue
        if name == "coupling.coupling_trials":
            step_time[counts["full_deck"]] += own
            steps[counts["full_deck"]] += counts["steps"]
            m["coupling.trial_steps"] += counts["steps"]
            m["coupling.censored"] += counts["censored"]
        else:
            for key, value in counts.items():
                m[f"{layer_of(name)}.{key}"] += value
    for full, label in ((True, "full_deck"), (False, "block")):
        if steps[full]:
            m[f"coupling.trial_step_ns.{label}"] = 1e9 * step_time[full] / steps[full]
    m["trace.spans"] = float(len(spans))
    return m
