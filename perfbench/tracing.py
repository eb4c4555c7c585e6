"""Spans around calls into chebdisk's public functions, installed from outside.

``install`` wraps every public module-level function of the layers below
(and ``EllipticContext`` construction) and rebinds the wrapper wherever a
chebdisk module holds the original: modules import names such as
``from .theta import theta``, and ``acceptance`` keeps its criteria in a
tuple, so patching only the defining module would miss those calls.

A span is (name, start_ns, end_ns, parent span id, operation id).  Spans
of the first ``keep_ops`` operations are kept in memory and written when
the run ends; every call, kept or not, adds to the per-name aggregates:
calls, failed calls, inclusive time and self time (a span minus the time
its child spans cover).
"""

import functools
import importlib
import json
import re
import sys
import time
import types

LAYERS = ("theta", "elliptic", "products", "_mpkernel", "modulus", "landen",
          "monodromy", "acceptance", "jsonio", "cli")

# The per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    [("startup.python_ms", "ms"),
     ("import.chebdisk_cli_ms", "ms"),
     ("import.numpy_ms", "ms"),
     ("import.mpmath_ms", "ms"),
     ("trace.overhead_pct", "%"),
     ("cli.build_parser.self_ms", "ms/op"),
     ("cli.run.self_ms", "ms/op"),
     ("jsonio.render_json.self_ms", "ms/op"),
     ("theta.theta.calls", "count/op"),
     ("theta.theta.self_ms", "ms/op"),
     ("theta.theta.call_us", "us"),
     ("elliptic.EllipticContext.calls", "count/op"),
     ("elliptic.cd.self_ms", "ms/op"),
     ("products.build.calls", "count/op"),
     ("products.build.self_ms", "ms/op"),
     ("products.eval_product.self_ms", "ms/op"),
     ("products.eval_expanded.self_ms", "ms/op"),
     ("modulus.dessin_size.self_ms", "ms/op"),
     ("modulus.dessin_size.failed", "count/op"),
     ("landen.verify_identity.calls", "count/op"),
     ("landen.verify_identity.self_ms", "ms/op"),
     ("products.critical_values.calls", "count/op"),
     ("products.critical_values.failed", "count/op"),
     ("products.critical_values.self_ms", "ms/op"),
     ("products.coefficients_from_derivatives.self_ms", "ms/op"),
     ("products.coefficients_from_longdivision.self_ms", "ms/op"),
     ("mpkernel.theta_mp.calls", "count/op"),
     ("mpkernel.theta_mp.self_ms", "ms/op"),
     ("products.compose_check.self_ms", "ms/op"),
     ("monodromy.are_equivalent.calls", "count/op"),
     ("monodromy.are_equivalent.self_ms", "ms/op"),
     ("monodromy.is_transitive.calls", "count/op")]
    + [(f"acceptance.criterion_{k}.s", "s/op") for k in range(1, 12)]
)

_CRITERION = re.compile(r"^acceptance\.criterion_(\d+)_")


class Tracer:
    def __init__(self, keep_ops):
        self.keep_ops = keep_ops
        self.op = 0
        self.spans = []
        self.calls = {}
        self.failed = {}
        self.total_ns = {}
        self.self_ns = {}
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn):
        perf = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0, span_id]  # time covered by child spans, own id
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_ns[name] = self.total_ns.get(name, 0) + duration
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[0]
                if self.op < self.keep_ops:
                    self.spans.append((name, start, end, parent, self.op))

        return traced

    def merge(self, other):
        """Add the aggregates of another tracer's ``aggregates()`` dict."""
        for key in ("calls", "failed", "total_ns", "self_ns"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] = mine.get(name, 0) + value

    def aggregates(self):
        return {"calls": self.calls, "failed": self.failed,
                "total_ns": self.total_ns, "self_ns": self.self_ns}


def install(tracer):
    """Wrap the public functions of every layer, wherever they are bound."""
    modules = [importlib.import_module(f"chebdisk.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = tracer.wrap(f"{layer.lstrip('_')}.{attr}", obj)
    ctx = sys.modules["chebdisk.elliptic"].EllipticContext
    ctx.__init__ = tracer.wrap("elliptic.EllipticContext", ctx.__init__)
    holders = [m for name, m in sys.modules.items()
               if name == "chebdisk" or name.startswith("chebdisk.")]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, tuple) and any(
                isinstance(x, types.FunctionType) and x in wrappers for x in obj
            ):
                setattr(mod, attr, tuple(
                    wrappers.get(x, x) if isinstance(x, types.FunctionType) else x
                    for x in obj
                ))


def layer_metrics(agg, ops):
    """The function-level per-layer metrics from aggregates over ``ops``
    operations; ``report`` adds the overhead and run.py the start-up figures."""
    by_criterion = {}
    for name, ns in agg["total_ns"].items():
        match = _CRITERION.match(name)
        if match:
            by_criterion[int(match.group(1))] = ns
    out = {}
    for metric, _unit in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if metric.startswith("acceptance.criterion_"):
            k = int(head.rpartition("_")[2])
            out[metric] = by_criterion.get(k, 0) / 1e9 / ops
        elif stat == "calls":
            out[metric] = agg["calls"].get(head, 0) / ops
        elif stat == "failed":
            out[metric] = agg["failed"].get(head, 0) / ops
        elif stat == "self_ms":
            out[metric] = agg["self_ns"].get(head, 0) / 1e6 / ops
        elif stat == "call_us":
            calls = agg["calls"].get(head, 0)
            out[metric] = agg["self_ns"].get(head, 0) / 1e3 / calls if calls else 0.0
    return out


def report(plain, traced, aggregates, trace_file, record):
    """Per-layer metrics of the traced half of a run, its overhead against
    the untraced half, and the trace file (``record`` plus aggregates)."""
    ops = len(traced["durations_ns"])
    layers = layer_metrics(aggregates, ops)
    per_op_plain = plain["elapsed_s"] / len(plain["durations_ns"])
    layers["trace.overhead_pct"] = 100.0 * (traced["elapsed_s"] / ops / per_op_plain - 1.0)
    with open(trace_file, "w") as fh:
        json.dump(dict(record, span_fields=["name", "start_ns", "end_ns", "parent", "op"],
                       aggregates=aggregates, operations=ops, metrics=layers), fh)
    return layers
