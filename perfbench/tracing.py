"""Span tracing for the per-layer metrics.

The traced run wraps the public functions of each cnsopt layer, from the
benchmark's side: every module namespace that holds one of them (the defining
module, and any module that imported it by name) gets the wrapper for the
duration of ``SpanRecorder.installed()``. A span records its name, start,
end, parent span, run and whether it raised; spans are kept in flat arrays in
memory and saved when the benchmark ends. A span's self time is its duration
minus the durations of its children (calls nest, so children never overlap).
"""

import functools
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# span name -> (defining module, function names); both drivers share one span.
TRACED = (
    ("datasets.parse_libsvm", "cnsopt.datasets", ("parse_libsvm",)),
    ("datasets.serialize_libsvm", "cnsopt.datasets", ("serialize_libsvm",)),
    ("datasets.make_synthetic", "cnsopt.datasets", ("make_synthetic",)),
    ("datasets.sample_minibatch", "cnsopt.datasets", ("sample_minibatch",)),
    ("problem.objective_original", "cnsopt.problem", ("objective_original",)),
    ("problem.objective_smoothed", "cnsopt.problem", ("objective_smoothed",)),
    ("smoothing.loss_gradient", "cnsopt.smoothing", ("loss_gradient",)),
    ("smoothing.vr_gradient_kernel", "cnsopt.smoothing", ("vr_gradient_kernel",)),
    ("prox.prox_regularizer", "cnsopt.prox", ("prox_regularizer",)),
    ("solvers.run_solver", "cnsopt.solvers", ("run_solver",)),
    ("continuation.driver", "cnsopt.continuation",
     ("cns_strongly_convex", "cns_general_convex")),
    ("baselines.run_baseline", "cnsopt.baselines", ("run_baseline",)),
    ("baselines.loss_subgradient", "cnsopt.baselines", ("loss_subgradient",)),
    ("bench.run_experiment", "cnsopt.bench", ("run_experiment",)),
    ("bench.test_metric", "cnsopt.bench", ("test_metric",)),
    ("bench.write_trace", "cnsopt.bench", ("write_trace",)),
)

CALL = ("calls", "us_per_call", "us_per_call_p99")
COUNTED_SELF = ("calls", "self_s")
SELF = ("self_s",)

_SHARED = (
    ("prox.prox_regularizer", CALL),
    ("problem.objective_original", COUNTED_SELF),
    ("bench.test_metric", SELF),
    ("bench.run_experiment", SELF),
)
_CONTINUATION = _SHARED + (
    ("smoothing.loss_gradient", CALL),
    ("problem.objective_smoothed", COUNTED_SELF),
    ("solvers.run_solver", SELF),
    ("continuation.driver", SELF),
)
_STOCHASTIC = (
    ("smoothing.vr_gradient_kernel", CALL),
    ("datasets.sample_minibatch", CALL),
)
_BASELINE = _SHARED + (
    ("baselines.loss_subgradient", CALL),
    ("datasets.sample_minibatch", CALL),
    ("baselines.run_baseline", SELF),
)

# method label -> (span stats, derived loop metrics' layer)
METHOD_LAYERS = {
    "cns_a": (_CONTINUATION + _STOCHASTIC, "solvers"),
    "cns_na": (_CONTINUATION + _STOCHASTIC, "solvers"),
    "apg": (_CONTINUATION, "solvers"),
    "fobos": (_BASELINE, "baselines"),
}

_UNITS = {
    "calls": ("count", "lower"),
    "us_per_call": ("us", "lower"),
    "us_per_call_p99": ("us", "lower"),
    "self_s": ("s", "lower"),
    "loop_us_per_iter": ("us", "lower"),
    "inner_iters": ("count", "lower"),
    "stages": ("count", "lower"),
    "divergences": ("count", "lower"),
}

GLOBAL_METRICS = (
    ("datasets.parse_libsvm.s", "s", "lower"),
    ("datasets.parse_libsvm.mb_per_s", "MB/s", "higher"),
    ("datasets.serialize_libsvm.s", "s", "lower"),
    ("bench.write_trace.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _method_metric_specs(label):
    """``(metric name, span name or None, stat)`` of one method's metrics;
    the span is None for the metrics derived from several spans."""
    spans, loop_layer = METHOD_LAYERS[label]
    specs = [(f"{label}.{span}.{stat}", span, stat) for span, stats in spans for stat in stats]
    derived = ["loop_us_per_iter", "inner_iters"]
    specs += [(f"{label}.{loop_layer}.{stat}", None, stat) for stat in derived]
    if loop_layer == "solvers":
        specs += [(f"{label}.continuation.stages", None, "stages"),
                  (f"{label}.solvers.divergences", None, "divergences")]
    return specs


def per_layer_metrics():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for label in METHOD_LAYERS:
        out += [(name, *_UNITS[stat]) for name, _, stat in _method_metric_specs(label)]
    return out + list(GLOBAL_METRICS)


class SpanRecorder:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.span_names = []
        self.run_labels = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_run = self.run_id("setup")

    @staticmethod
    def _intern(table, value):
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    def run_id(self, label):
        return self._intern(self.run_labels, label)

    def set_run(self, label):
        self.current_run = self.run_id(label)

    def _wrap(self, fn, span_name):
        name_id = self._intern(self.span_names, span_name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.run.append(self.current_run)
            self.raised.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function in every loaded cnsopt namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cnsopt" or key.startswith("cnsopt.")]
        patches = []
        try:
            for span_name, module_name, attrs in TRACED:
                for attr in attrs:
                    original = getattr(sys.modules[module_name], attr)
                    wrapper = self._wrap(original, span_name)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                patches.append((module, key, value))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(patches):
                setattr(module, key, value)

    def arrays(self):
        """Spans as numpy arrays, with duration and self time derived."""
        spans = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        nested = spans["parent"] >= 0
        np.add.at(child, spans["parent"][nested], dur[nested])
        spans["dur"] = dur
        spans["self"] = dur - child
        return spans

    def save(self, path):
        spans = self.arrays()
        np.savez_compressed(
            path, span_names=np.array(self.span_names), run_labels=np.array(self.run_labels),
            **{k: v for k, v in spans.items() if k not in ("dur", "self")},
        )


def _select(spans, recorder, span_name, run_label=None):
    if span_name not in recorder.span_names:
        return np.zeros(0, dtype=bool)
    mask = spans["name"] == recorder.span_names.index(span_name)
    if run_label is not None:
        if run_label not in recorder.run_labels:
            return np.zeros_like(mask)
        mask &= spans["run"] == recorder.run_labels.index(run_label)
    return mask


def _method_values(spans, recorder, run_label, label, inner_iters):
    """Per-layer values of one traced method run."""
    values = {}
    for name, span, stat in _method_metric_specs(label):
        if span is None:
            continue
        mask = _select(spans, recorder, span, run_label)
        dur = spans["dur"][mask]
        if stat == "calls":
            values[name] = int(dur.size)
        elif stat == "self_s":
            values[name] = float(spans["self"][mask].sum())
        elif dur.size:
            q = 50 if stat == "us_per_call" else 99
            values[name] = float(np.percentile(dur, q)) * 1e6
    _, loop_layer = METHOD_LAYERS[label]
    loop_span = "solvers.run_solver" if loop_layer == "solvers" else "baselines.run_baseline"
    loop = _select(spans, recorder, loop_span, run_label)
    values[f"{label}.{loop_layer}.inner_iters"] = inner_iters
    values[f"{label}.{loop_layer}.loop_us_per_iter"] = (
        float(spans["self"][loop].sum()) / inner_iters * 1e6)
    if loop_layer == "solvers":
        values[f"{label}.continuation.stages"] = int(loop.sum())
        values[f"{label}.solvers.divergences"] = int(spans["raised"][loop].sum())
    return values


def per_layer_values(recorder, traced_runs, file_bytes, overhead_s):
    """Per-layer metric values.

    ``traced_runs`` lists ``(run_label, method_label, inner_iterations)`` for
    every traced method run; each metric is the median over the traced races.
    """
    spans = recorder.arrays()
    per_metric = {}
    for run_label, label, inner in traced_runs:
        for name, value in _method_values(spans, recorder, run_label, label, inner).items():
            per_metric.setdefault(name, []).append(value)
    values = {
        name: (statistics.median_low(v) if all(isinstance(x, int) for x in v)
               else statistics.median(v))
        for name, v in per_metric.items()
    }

    def median_call(span):
        dur = spans["dur"][_select(spans, recorder, span)]
        return float(np.median(dur)) if dur.size else 0.0

    parse_s = median_call("datasets.parse_libsvm")
    values["datasets.parse_libsvm.s"] = parse_s
    values["datasets.parse_libsvm.mb_per_s"] = file_bytes / parse_s / 1e6 if parse_s else 0.0
    values["datasets.serialize_libsvm.s"] = median_call("datasets.serialize_libsvm")
    values["bench.write_trace.s"] = median_call("bench.write_trace")
    values["trace.overhead_s"] = overhead_s
    return values
