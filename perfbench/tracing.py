"""Timing shims installed around fatkpp's layers from outside the package.

Nothing under src/ knows about tracing.  `install` wraps every public
module-level function of the layer modules, plus `DiscreteKernel.apply`
and the `Hamiltonian` constructor, and rebinds every name in the package
that refers to a wrapped object.  Rebinding by identity matters because
several modules bind names at import (`cli.run_cauchy`,
`mutation.cauchy_run`, `config.build_kernel`, the `cli.*` experiment
helpers), and a shim on `cauchy.run` alone would never see those calls.

Each call records one span: name, parent span, start, end and, for a few
names, counts read from the call's arguments or return value.  Spans stay
in memory until the run ends; `layer_metrics` turns them into the
per-layer metrics.
"""

import functools
import importlib
import math
import os
import time

LAYERS = ("config", "kernels", "gridops", "cauchy", "propagation",
          "mutation", "hj", "output", "cli")

_APPLY = "gridops.DiscreteKernel.apply"


def _apply_counts(args, kwargs, out):
    dk, values = args[0], args[1]
    return {"N": len(values), "P": dk._P}


def _steps(args, kwargs, out):
    return {"steps": out.manifest["steps_taken"]}


def _lf_steps(args, kwargs, out):
    return {"steps": out.meta["steps"]}


def _csv_counts(args, kwargs, out):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    rows = len(columns[0]) if len(columns) else 0
    return {"rows": rows, "bytes": os.path.getsize(out)}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(out)}


_COUNTS = {
    _APPLY: _apply_counts,
    "cauchy.run": _steps,
    "hj.solve_constrained_hj": _lf_steps,
    "output.write_csv": _csv_counts,
    "output.emit_svg_plot": _file_bytes,
}


class Tracer:
    """Span recorder; spans are [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counts = _COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        return shim


def install(tracer):
    """Wrap fatkpp's layers in `tracer`'s shims."""
    modules = {name: importlib.import_module("fatkpp." + name)
               for name in LAYERS}
    targets = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = "%s.%s" % (layer, attr)
            if (attr.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__
                    or not callable(obj) or isinstance(obj, type)):
                continue
            targets[id(obj)] = (obj, tracer.wrap(name, obj))

    dk_cls = modules["gridops"].DiscreteKernel
    dk_cls.apply = tracer.wrap(_APPLY, dk_cls.apply)
    ham_cls = modules["hj"].Hamiltonian
    ham_cls.__init__ = tracer.wrap("hj.Hamiltonian", ham_cls.__init__)

    package = importlib.import_module("fatkpp")
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# ----------------------------------------------------------------------
# spans -> metrics


def _fft_flops(P):
    """Two real transforms of length P and the half-spectrum product.

    A real FFT of length P is counted as 2.5 P log2 P flops, the usual
    radix-2 estimate; the product is one complex multiply (6 flops) per
    kept frequency.  Computed from P, not measured.
    """
    return 2 * 2.5 * P * math.log2(P) + 6 * (P // 2 + 1)


def _fft_bytes(N, P):
    """Input samples, the padded spectrum (and its product) and output."""
    return 8 * N + 2 * 16 * (P // 2 + 1) + 8 * N


def span_times(spans):
    """Per span: (duration, self time); self excludes direct children."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            child[s[1]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans, i):
    name, p = spans[i][0], spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][1]
    return True


def layer_metrics(spans, overhead_s):
    """The per-layer metrics of one traced operation."""
    dur, self_t = span_times(spans)
    busy, self_by_name, calls, counts = {}, {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_t[i]
        layer_self[name.split(".", 1)[0]] += self_t[i]
        if _outermost(spans, i):
            busy[name] = busy.get(name, 0.0) + dur[i]
        for key, v in (s[4] or {}).items():
            acc = counts.setdefault(name, {})
            acc[key] = acc.get(key, 0) + v
        if name == _APPLY:
            acc = counts.setdefault("fft", {"flop": 0.0, "bytes": 0.0})
            acc["flop"] += _fft_flops(s[4]["P"])
            acc["bytes"] += _fft_bytes(s[4]["N"], s[4]["P"])

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    apply_calls = calls.get(_APPLY, 0)
    apply_busy = busy.get(_APPLY, 0.0)
    steps = count("cauchy.run", "steps")
    lf_steps = count("hj.solve_constrained_hj", "steps")
    csv_busy = busy.get("output.write_csv", 0.0)
    csv_mb = count("output.write_csv", "bytes") / 1e6
    m = {
        "gridops.apply.calls": (apply_calls, "count"),
        "gridops.apply.busy_s": (apply_busy, "s"),
        "gridops.apply.ms_per_call": (ratio(apply_busy, apply_calls, 1e3),
                                      "ms"),
        "gridops.apply.gflop_computed": (count("fft", "flop") / 1e9,
                                         "Gflop"),
        "gridops.apply.mb_computed": (count("fft", "bytes") / 1e6, "MB"),
        "gridops.discretize_kernel.busy_s": (
            busy.get("gridops.discretize_kernel", 0.0), "s"),
        "cauchy.steps": (steps, "count"),
        "cauchy.run.self_s": (self_by_name.get("cauchy.run", 0.0), "s"),
        "cauchy.ms_per_step": (ratio(busy.get("cauchy.run", 0.0), steps,
                                     1e3), "ms"),
        "propagation.envelope_residual.calls": (
            calls.get("propagation.envelope_residual", 0), "count"),
        "propagation.envelope_residual.busy_s": (
            busy.get("propagation.envelope_residual", 0.0), "s"),
        "propagation.track_level.busy_s": (
            busy.get("propagation.track_level", 0.0), "s"),
        "mutation.discretize_mutation_kernel.busy_s": (
            busy.get("mutation.discretize_mutation_kernel", 0.0), "s"),
        "mutation.mutation_initial_data.busy_s": (
            busy.get("mutation.mutation_initial_data", 0.0), "s"),
        "mutation.mutation_run.self_s": (
            self_by_name.get("mutation.mutation_run", 0.0), "s"),
        "hj.Hamiltonian.busy_s": (busy.get("hj.Hamiltonian", 0.0), "s"),
        "hj.solve_constrained_hj.busy_s": (
            busy.get("hj.solve_constrained_hj", 0.0), "s"),
        "hj.lf_steps": (lf_steps, "count"),
        "hj.ms_per_lf_step": (ratio(busy.get("hj.solve_constrained_hj",
                                             0.0), lf_steps, 1e3), "ms"),
        "hj.cross_validate.busy_s": (busy.get("hj.cross_validate", 0.0),
                                     "s"),
        "output.write_csv.calls": (calls.get("output.write_csv", 0),
                                   "count"),
        "output.write_csv.busy_s": (csv_busy, "s"),
        "output.csv_rows": (count("output.write_csv", "rows"), "count"),
        "output.csv_mb": (csv_mb, "MB"),
        "output.csv_mb_per_s": (ratio(csv_mb, csv_busy), "MB/s"),
        "output.emit_svg_plot.busy_s": (
            busy.get("output.emit_svg_plot", 0.0), "s"),
        "output.svg_mb": (count("output.emit_svg_plot", "bytes") / 1e6,
                          "MB"),
        "config.parse_config.busy_s": (busy.get("config.parse_config", 0.0),
                                       "s"),
        "kernels.build_kernel.busy_s": (busy.get("kernels.build_kernel",
                                                 0.0), "s"),
        "cli.main.self_s": (self_by_name.get("cli.main", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (layer_self[layer], "s")
    return m
