"""Span tracing for the traced benchmark run.

`instrument(tracer)` wraps functions and methods of the steinshrink layer
modules from outside the package: every public function and method of `cli`,
and in the other layers those that a per-layer metric names.  The time of
the functions left unwrapped stays in their callers' self time.  Classes
are patched in place.  Each wrapped module-level function is rebound in
every steinshrink module that holds it, so names imported with
`from .x import f` (as `cli` and `risk_lab` do) are traced where they are
looked up.  Generators are
timed per `next()`.  Spans stay in memory until `dump` writes them out.

`quadrature`, `theta` and `errors` are not wrapped: they do no measurable
work on the benchmark's workloads.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "noise_models",
    "laws1d",
    "zero_bias",
    "testfns",
    "stein_kernels",
    "estimation",
    "risk_lab",
    "_mc",
    "cli",
)

# Properties wrapped, because they build arrays.
PROPERTIES_WRAPPED = {"zero_bias.JointChunk.star"}

MIB = float(1 << 20)


class Tracer:
    """Records spans as [name, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.drawn = set()  # (model type, d, seed, chunk index) already drawn

    def call(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def wrap(self, name, fn, hook=None, timed=True):
        """Traced version of `fn`; untimed, it records no span, only the hook.

        For a generator function the hook sees (tracer, args, item, index) for
        each item; otherwise it sees (tracer, args, result), and a result it
        returns replaces the call's result.
        """
        call = self.call if timed else _untimed_call
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                index = 0
                while True:
                    try:
                        item = call(name, next, (it,), {})
                    except StopIteration:
                        return
                    if hook is not None:
                        hook(self, args, item, index)
                    index += 1
                    yield item

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            result = call(name, fn, args, kwargs)
            if hook is not None:
                replaced = hook(self, args, result)
                if replaced is not None:
                    return replaced
            return result

        return functools.wraps(fn)(wrapper)

    def dump(self, path, op_name: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_name, "spans": self.spans, "counts": dict(self.counts)}, fh)


def _untimed_call(name, fn, args, kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# counters, recorded at the same boundaries as the spans


def _count_draw(tracer, args, X, index):
    model, seed = args[0], args[2]
    rows = X.shape[0]
    tracer.counts["noise_models.rows"] += rows
    tracer.counts["noise_models.draw_bytes"] += X.nbytes
    key = (type(model).__name__, model.d, seed, index)
    if key in tracer.drawn:
        tracer.counts["noise_models.redrawn_rows"] += rows
    tracer.drawn.add(key)


def _count_variates(tracer, args, result):
    # Nested law calls (zb_sample -> square_bias_sample) count once.
    if not tracer.parent_name().startswith("laws1d."):
        tracer.counts["laws1d.variates"] += result.size


def _count_companion(tracer, companion, X):
    import numpy as np

    tracer.counts["zero_bias.companions"] += 1
    tracer.counts["zero_bias.companion_bytes"] += companion.nbytes
    tracer.counts["zero_bias.companion_entries"] += companion.size
    tracer.counts["zero_bias.useful_entries"] += int(np.count_nonzero(companion != X))


def _count_star(tracer, args, result):
    _count_companion(tracer, result, args[0].X)


def _count_iter_stars(tracer, args, item, index):
    chunk = args[0]
    # A shared companion is one array served to every index pair.
    if not chunk.shared or index == 0:
        _count_companion(tracer, item[3], chunk.X)


def _count_jac(tracer, args, result):
    tracer.counts["testfns.jac_bytes"] += result.nbytes


def _count_chunk(tracer, args, item, index):
    tracer.counts["mc.chunks"] += 1


def _count_values(tracer, args, result):
    import numpy as np

    tracer.counts["mc.values"] += np.asarray(args[1]).size


def _traced_testfn(tracer, fn):
    """A TestFn whose jac / partial closures are traced."""
    return dataclasses.replace(
        fn,
        jac=tracer.wrap("testfns.jac", fn.jac, _count_jac),
        partial=tracer.wrap("testfns.partial", fn.partial),
    )


def _testfn_hook(tracer, args, result):
    from steinshrink.testfns import TestFn

    if isinstance(result, TestFn):
        return _traced_testfn(tracer, result)
    return None


LAW_SAMPLERS = ("sample", "zb_sample", "square_bias_sample")
HOOKS = {
    "noise_models.NoiseModel.iter_chunks": _count_draw,
    "zero_bias.JointChunk.star": _count_star,
    "zero_bias.JointChunk.iter_stars": _count_iter_stars,
    "testfns.linear_map": _testfn_hook,
    "testfns.coordinate_quadratic": _testfn_hook,
    "testfns.shrink_direction": _testfn_hook,
    "_mc.chunk_plan": _count_chunk,
    "_mc.Accumulator.add": _count_values,
}


def _hook(name: str):
    if name.startswith("laws1d.") and name.rsplit(".", 1)[-1] in LAW_SAMPLERS:
        return _count_variates
    return HOOKS.get(name)


def _wrapped(tracer, name: str, fn):
    """`fn` wrapped if a metric times it or a counter hooks it, else None."""
    timed, hook = metric_for_span(name) is not None, _hook(name)
    if timed or hook is not None:
        return tracer.wrap(name, fn, hook, timed)
    return None


def _wrap_class(tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, property):
            if name in PROPERTIES_WRAPPED:
                setattr(cls, attr, property(tracer.wrap(name, value.fget, _hook(name))))
        elif inspect.isfunction(value):
            wrapper = _wrapped(tracer, name, value)
            if wrapper is not None:
                setattr(cls, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Wrap the layer modules of the imported steinshrink package."""
    modules = {layer: importlib.import_module(f"steinshrink.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value) and not attr.startswith("_"):
                _wrap_class(tracer, layer, value)
            elif inspect.isfunction(value):
                wrapper = _wrapped(tracer, f"{layer}.{attr}", value)
                if wrapper is not None:
                    wrapped[id(value)] = (value, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("steinshrink"):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counters

_NAMED_SELF_TIMES = {
    "noise_models": {
        "draw_s": ("iter_chunks", "sample"),
    },
    "laws1d": {
        "sample_s": LAW_SAMPLERS,
    },
    "zero_bias": {
        "companion_s": ("joint_chunks", "iter_stars", "star", "pair_sampler"),
    },
    "testfns": {
        "jac_s": ("jac",),
        "partial_s": ("partial",),
    },
    "stein_kernels": {
        "contract_s": ("contract", "matrices", "scales", "diagonals", "evaluate"),
        "discrepancy_s": ("discrepancy_stats", "trace_values", "frob_dev_values"),
    },
    "estimation": {
        "apply_s": ("apply", "f", "james_stein", "soft_threshold", "singular_rows", "active"),
        "sure_s": (
            "sure",
            "sure_kernel",
            "sure_zero_bias_mean",
            "cross_term",
            "divergence",
            "jacobian",
            "partial",
        ),
        "select_lambda_s": ("select_lambda", "sure_soft_threshold_grid", "lambda_grid"),
    },
    "risk_lab": {
        "mc_risk_s": ("mc_risk",),
        "sure_bias_s": ("sure_bias",),
        "bound_b_star_s": ("bound_b_star",),
        "_inverse_power_s": ("_inverse_power",),
    },
    # `_mc` is reported as `mc`: metric names must start with a letter.
    "_mc": {
        "accumulate_s": ("add", "merge", "variance_stderr"),
    },
    "cli": {},
}
_PREFIX = {layer: ("mc" if layer == "_mc" else layer) for layer in LAYERS}

SELF_TIME_METRICS = [
    f"{_PREFIX[layer]}.{metric}" for layer in LAYERS for metric in _NAMED_SELF_TIMES[layer]
] + ["cli.self_s"]


def metric_for_span(name: str) -> str | None:
    """The self-time metric a function's span counts toward, None if none does."""
    layer, method = name.split(".", 1)[0], name.rsplit(".", 1)[-1]
    if layer == "cli":
        return None if method.startswith("_") else "cli.self_s"
    for metric, members in _NAMED_SELF_TIMES[layer].items():
        if method in members:
            return f"{_PREFIX[layer]}.{metric}"
    return None


def self_times(spans) -> dict:
    """Self time per metric: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = collections.Counter()
    for (name, start, end, _), child in zip(spans, covered):
        out[metric_for_span(name)] += (end - start) - child
    return out


def layer_metrics(self_time: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced round.

    The byte counts and the two waste ratios are computed from array shapes
    and draw keys (`useful_frac` from comparing the companion with X), so
    they repeat exactly from run to run.
    """

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {name: self_time.get(name, 0.0) for name in SELF_TIME_METRICS}
    out.update(
        {
            "noise_models.rows": counts.get("noise_models.rows", 0),
            "noise_models.draw_mb": counts.get("noise_models.draw_bytes", 0) / MIB,
            "noise_models.redraw_frac": ratio("noise_models.redrawn_rows", "noise_models.rows"),
            "laws1d.variates": counts.get("laws1d.variates", 0),
            "zero_bias.companions": counts.get("zero_bias.companions", 0),
            "zero_bias.companion_mb": counts.get("zero_bias.companion_bytes", 0) / MIB,
            "zero_bias.useful_frac": ratio(
                "zero_bias.useful_entries", "zero_bias.companion_entries"
            ),
            "testfns.jac_mb": counts.get("testfns.jac_bytes", 0) / MIB,
            "testfns.partial_calls": counts.get("testfns.partial_calls", 0),
            "estimation.select_lambda_calls": counts.get("estimation.select_lambda_calls", 0),
            "mc.chunks": counts.get("mc.chunks", 0),
            "mc.values": counts.get("mc.values", 0),
        }
    )
    return out


_CALL_COUNTS = {
    "testfns.partial_calls": "testfns.partial",
    "estimation.select_lambda_calls": "estimation.select_lambda",
}


def op_summary(dump: dict):
    """(self time per metric, counters) of one traced operation's dump."""
    calls = collections.Counter(name for name, _, _, _ in dump["spans"])
    counts = collections.Counter(dump["counts"])
    for counter, span_name in _CALL_COUNTS.items():
        counts[counter] += calls[span_name]
    return self_times(dump["spans"]), counts
