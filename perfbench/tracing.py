"""Span tracing of the program's layers, installed from outside the program.

The program binds many functions with ``from .x import y``, so wrapping a
function only in its defining module would miss the calls made through
those bindings. ``Tracer.installed`` therefore replaces every binding of a
wrapped function in every ``ltpfleo`` module, plus the few methods the
engine calls on objects, and restores the originals on exit.

Spans (name, layer, start, end, parent) are kept in memory and written out
once, after the traced pipeline has finished. Functions in ``COUNTED`` run
inside a layer's innermost loops (one call per bisection step or per SGD
step); they are counted, not spanned, so their time stays in the calling
span's self time and the span list stays small.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "orbital",
    "partitioning",
    "scheduling",
    "aggregation",
    "training",
    "simulator",
    "eventlog",
    "privacy_audit",
    "analysis",
)

# (module, class, method) wrapped on the class itself
METHODS = (
    ("aggregation", "ModelCache", "fetch_or_cache"),
    ("scheduling", "ParticipationLog", "frequencies"),
    ("simulator", "SimulationEngine", "run"),
    ("simulator", "BaselineEngine", "run"),
)

COUNTED = frozenset(
    {
        "orbital.elevation_deg",
        "orbital.propagate_eci",
        "orbital.propagate_ecef",
        "orbital.station_ecef",
        "partitioning.intersect_intervals",
        "partitioning.common_windows",
        "partitioning.next_common_window",
        "partitioning.pairwise_overlap_s",
        "aggregation.member_weights",
        "training.make_loss_model",
        "training.model_dim",
        "training.project_ball",
    }
)


class Tracer:
    """In-memory spans and per-call counters for one traced pipeline run."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, layer: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, layer, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                observe(name, args, kwargs, None, failed=True)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            observe(name, args, kwargs, result, failed=False)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, kwargs, result, *, failed):
        """Counts taken where the work happens (the layer boundary)."""
        self.calls[name] += 1
        c = self.counters
        if name == "orbital.compute_visibility":
            c["orbital.windows"] += sum(len(w) for w in result.windows.values())
        elif name == "scheduling.staleness_filter":
            c["scheduling.candidates"] += len(args[0])
            c["scheduling.admitted"] += len(result)
        elif name == "aggregation.ModelCache.fetch_or_cache":
            c["aggregation.contributions"] += 1
            visible = args[2] if len(args) > 2 else kwargs["visible"]
            if not visible and not failed:
                c["aggregation.cached"] += 1
        elif name == "training.local_sgd":
            dataset, cfg = args[1], args[3]
            batch = dataset.size if cfg.mini_batch >= dataset.size else cfg.mini_batch
            c["training.sgd_steps"] += cfg.local_steps
            c["training.samples"] += cfg.local_steps * batch
        elif name == "eventlog.write_event_log":
            c["eventlog.bytes"] += os.path.getsize(args[0])
        elif name == "privacy_audit.ltp_verdict_over_run":
            if failed:
                c["privacy_audit.windows_failed"] += 1
                c["privacy_audit.windows"] += 1
            else:
                c["privacy_audit.windows"] += len(result)

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer function in every ltpfleo namespace that binds it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "ltpfleo" or name.startswith("ltpfleo.")
        }
        replacements = {}
        for layer in LAYERS:
            mod = modules[f"ltpfleo.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[fn] = (
                    self._counted(name, fn)
                    if name in COUNTED
                    else self._spanned(name, layer, fn)
                )
        undo = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacements[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"ltpfleo.{layer}"], cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, self._spanned(f"{layer}.{cls_name}.{meth}", layer, original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "layer": layer, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the parts their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (_, layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child_time[i]
        return out

    def inclusive(self, *names: str) -> float:
        """Time inside the named spans, not counting a span nested in another one."""
        wanted = set(names)
        total = 0.0
        for name, _, start, end, parent in self.spans:
            if name not in wanted:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in wanted:
                p = self.spans[p][4]
            if p < 0:
                total += end - start
        return total

    def layer_metrics(self) -> dict[str, float]:
        c, calls = self.counters, self.calls
        sgd_s = self.inclusive("training.local_sgd")
        self_s = self.self_times()
        metrics = {
            "orbital.visibility_s": self.inclusive("orbital.compute_visibility"),
            "orbital.elevation_calls": calls["orbital.elevation_deg"],
            "orbital.windows": c["orbital.windows"],
            "partitioning.build_s": self.inclusive("partitioning.build_partitions"),
            "partitioning.select_s": self.inclusive("partitioning.select_candidates"),
            "partitioning.select_calls": calls["partitioning.select_candidates"],
            "scheduling.filter_s": self.inclusive("scheduling.staleness_filter"),
            "scheduling.frequencies_s": self.inclusive(
                "scheduling.ParticipationLog.frequencies"
            ),
            "scheduling.admitted_ratio": _ratio(
                c["scheduling.admitted"], c["scheduling.candidates"]
            ),
            "aggregation.weights_s": self.inclusive("aggregation.compute_weights"),
            "aggregation.aggregate_s": self.inclusive("aggregation.aggregate"),
            "aggregation.cache_s": self.inclusive("aggregation.ModelCache.fetch_or_cache"),
            "aggregation.cached_ratio": _ratio(
                c["aggregation.cached"], c["aggregation.contributions"]
            ),
            "training.sgd_s": sgd_s,
            "training.sgd_steps": c["training.sgd_steps"],
            "training.samples_per_s": _ratio(c["training.samples"], sgd_s),
            "training.snapshot_s": self.inclusive(
                "training.global_loss", "training.global_accuracy"
            ),
            "eventlog.write_s": self.inclusive("eventlog.write_event_log"),
            "eventlog.read_s": self.inclusive("eventlog.read_event_log"),
            "eventlog.bytes": c["eventlog.bytes"],
            "privacy_audit.matrix_s": self.inclusive("privacy_audit.build_observation_matrix"),
            "privacy_audit.leakage_s": self.inclusive("privacy_audit.min_support_leakage"),
            "privacy_audit.windows": c["privacy_audit.windows"],
            "privacy_audit.windows_failed": c["privacy_audit.windows_failed"],
            "analysis.constants_s": self.inclusive("analysis.estimate_constants"),
            "analysis.optimum_s": self.inclusive("analysis.solve_optimum"),
            "analysis.fairness_s": self.inclusive("analysis.fairness_gap"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer]
        metrics["trace.spans"] = len(self.spans)
        return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
