"""Layer spans for the traced benchmark run, recorded from outside bdrlab.

The recorder wraps bdrlab's public functions at the module attribute where
their callers look them up (``bdrlab.stats.fit_distance`` is what
``run_trials`` calls), so no source under ``src/`` changes. Each wrapped
call becomes one span with its name, start, end, thread and parent span,
plus a few counts read from its arguments and result. Spans stay in memory
until the run ends, are written to a JSON-lines file, and the per-layer
metrics are computed from that file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bdrlab.estimators import FitConfig, bdr_loss_smoothed_grad

# Rows of each fit_distance call whose final gradient is checked; fixed so
# the fit_grad_norm sample does not depend on the batch size.
GRAD_SAMPLE_ROWS = 4


def _fit_counts(args, kwargs, result):
    obs = np.atleast_2d(np.asarray(args[0], dtype=float))
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", FitConfig())
    fit = np.atleast_2d(result)
    k = GRAD_SAMPLE_ROWS
    # fit_distance optimises in grid units, so the gradient is taken there
    g = bdr_loss_smoothed_grad(obs[:k] / grid.stride, fit[:k] / grid.stride,
                               1.0, cfg.loss)
    return {"rows": obs.shape[0], "positions": obs.size,
            "grad_max": np.max(np.abs(g), axis=-1).tolist()}


def _extract_counts(args, kwargs, result):
    return {"found": int(np.asarray(result).size > 0)}


def _bootstrap_counts(args, kwargs, result):
    return {"resamples": args[1] if len(args) > 1 else kwargs["num_resamples"]}


def _noise_counts(args, kwargs, result):
    return {"values": result.size, "bytes": result.nbytes}


def _calib_counts(args, kwargs, result):
    return {"samples": np.asarray(args[0]).size}


# (module, attribute its callers look up, span name, counts from the call)
TARGETS = (
    ("bdrlab.cli", "main", "cli.main", None),
    ("bdrlab.cli", "tau_scenario", "cli.tau_scenario", None),
    ("bdrlab.cli", "scaling_sweep", "stats.scaling_sweep", None),
    ("bdrlab.cli", "apply_hysteresis", "atr.apply_hysteresis", None),
    ("bdrlab.cli", "flip_rate", "atr.flip_rate", None),
    ("bdrlab.cli", "per_layer_pruned_cost", "atr.per_layer_pruned_cost", None),
    ("bdrlab.cli", "total_flops", "atr.total_flops", None),
    ("bdrlab.cli", "r_ece", "calib.r_ece", _calib_counts),
    ("bdrlab.stats", "cls_variance_kappa_slope",
     "stats.cls_variance_kappa_slope", None),
    ("bdrlab.stats", "finite_sample_variance_check",
     "stats.finite_sample_variance_check", None),
    ("bdrlab.stats", "run_trials", "stats.run_trials", None),
    ("bdrlab.stats", "variance_ratio", "stats.variance_ratio", None),
    ("bdrlab.stats", "blocked_bootstrap", "stats.blocked_bootstrap",
     _bootstrap_counts),
    ("bdrlab.stats", "fit_distance", "estimators.fit_distance", _fit_counts),
    ("bdrlab.stats", "extract_boundaries", "estimators.extract_boundaries",
     _extract_counts),
    ("bdrlab.estimators", "nms_1d", "estimators.nms_1d", None),
    ("bdrlab.stats", "moving_average", "estimators.moving_average", None),
    ("bdrlab.stats", "quadratic_peak_offset", "estimators.quadratic_peak_offset",
     None),
    ("bdrlab.stats", "make_kernel_features", "synth.make_kernel_features", None),
    ("bdrlab.stats", "sample_noise_matrix", "synth.sample_noise_matrix",
     _noise_counts),
)


SPAN_FIELDS = ("id", "name", "start", "end", "thread", "parent", "call",
               "counts")


class Recorder:
    """Collects spans from wrapped calls, in the installing thread and in
    worker threads. A worker thread's outermost span takes as parent the
    innermost span open in the installing thread, which for the sweep pool
    is ``stats.scaling_sweep``."""

    def __init__(self):
        self.spans = []
        self.call = 0  # index of the benchmark call the spans belong to
        self._ids = itertools.count()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = (stack or self._owner_stack or [None])[-1]
            # next() on itertools.count and list.append are single calls into
            # C, so worker threads can share them without a lock
            span_id = next(self._ids)
            stack.append(span_id)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if done and counts else {}
                self.spans.append((span_id, name, start, end,
                                   threading.get_ident(), parent, self.call,
                                   extra))
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counts in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def read_spans(path: Path):
    """Yield the spans of a file written by Recorder.write."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that child spans cover.

    Children on other threads may overlap each other, so the covered part is
    the union of the children's intervals clipped to the parent's.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        covered = covered_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one benchmark call, from that call's spans."""
    own = self_times(spans)
    dur, calls, count = {}, {}, {}
    self_s = {}
    grad_max = []
    for s in spans:
        name = s["name"]
        dur[name] = dur.get(name, 0.0) + (s["end"] - s["start"])
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s["counts"].items():
            if key == "grad_max":
                grad_max.extend(value)
            else:
                count[key] = count.get(key, 0) + value
    extract_calls = calls.get("estimators.extract_boundaries", 0)
    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.tau_scenario_s": dur.get("cli.tau_scenario", 0.0),
        "stats.run_trials_self_s": self_s.get("stats.run_trials", 0.0),
        "stats.run_trials_calls": calls.get("stats.run_trials", 0),
        "stats.bootstrap_s": dur.get("stats.blocked_bootstrap", 0.0),
        "stats.bootstrap_resamples": count.get("resamples", 0),
        "estimators.fit_s": dur.get("estimators.fit_distance", 0.0),
        "estimators.fit_rows": count.get("rows", 0),
        "estimators.fit_row_positions": count.get("positions", 0),
        "estimators.fit_grad_norm": (statistics.median(grad_max)
                                     if grad_max else 0.0),
        "estimators.extract_s": dur.get("estimators.extract_boundaries", 0.0),
        "estimators.extract_calls": extract_calls,
        "estimators.extract_found_ratio": (count.get("found", 0) / extract_calls
                                           if extract_calls else 0.0),
        "estimators.nms_calls": calls.get("estimators.nms_1d", 0),
        "estimators.peak_s": (dur.get("estimators.moving_average", 0.0)
                              + dur.get("estimators.quadratic_peak_offset", 0.0)),
        "estimators.peak_calls": calls.get("estimators.moving_average", 0),
        "synth.features_s": dur.get("synth.make_kernel_features", 0.0),
        "synth.features_calls": calls.get("synth.make_kernel_features", 0),
        "synth.noise_s": dur.get("synth.sample_noise_matrix", 0.0),
        "synth.noise_values": count.get("values", 0),
        "synth.noise_bytes_computed": count.get("bytes", 0),
        "atr.hysteresis_s": dur.get("atr.apply_hysteresis", 0.0),
        "atr.flip_rate_s": dur.get("atr.flip_rate", 0.0),
        "calib.r_ece_s": dur.get("calib.r_ece", 0.0),
        "calib.samples": count.get("samples", 0),
    }


def per_call_metrics(spans) -> list:
    """layer_metrics for each benchmark call recorded in `spans`.

    Calls run one after another, so each call's spans are consecutive and
    only one call's spans need to be held at a time.
    """
    return [layer_metrics(list(group))
            for _, group in itertools.groupby(spans, key=lambda s: s["call"])]
