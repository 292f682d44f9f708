"""Time curvedheat's layers from outside, by wrapping the functions callers use.

The program is not edited.  ``Tracer.install`` replaces every
module-level binding of each listed public function inside the
``curvedheat`` package with a timing wrapper, so a call is caught
under whatever name its caller imported (``curvedheat.experiments.
solve_on_ball``, ``curvedheat.evolution.solve_banded``, ...).

Each wrapped call charges its duration minus the time of the wrapped
calls it made (its self time) to one bucket: a layer (``evolution``,
``spectral``, ...), the banded LAPACK solves a layer makes
(``evolution.banded``), or artifact writing (``experiments.write``).
Time in no wrapped call is the harness's own.  So the buckets
partition the traced wall time exactly, and the share outside the
harness bucket says how much of it the layers account for.

Outer calls keep one span each (name, bucket, parent, start, end) in
memory until ``spans`` is written out.  The hot inner calls (the banded
solves, ~1e5 per run, and the drift evaluations) only add to aggregate
counters, so tracing them costs two clock reads each.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function, bucket, tag) for the calls the workloads make that
# keep a span.  A tag groups functions whose inclusive time a metric
# reads; nested calls of one tag count once.
SPAN_FUNCTIONS = (
    ("curvedheat.cli", "main", "experiments", None),
    ("curvedheat.experiments", "run_sweep", "experiments", None),
    ("curvedheat.experiments", "run_simulate", "experiments", None),
    ("curvedheat.experiments", "run_barrier", "experiments", None),
    ("curvedheat.experiments", "_sweep_cell", "experiments", None),
    ("curvedheat.experiments", "build_manifold", "experiments", None),
    ("curvedheat.experiments", "build_barrier", "experiments", None),
    ("curvedheat.experiments", "write_csv", "experiments.write", None),
    ("curvedheat.svg", "line_plot", "experiments.write", None),
    ("curvedheat.svg", "heatmap", "experiments.write", None),
    ("curvedheat.evolution", "save_history_csv", "experiments.write", None),
    ("curvedheat.operators", "save_field_csv", "experiments.write", None),
    ("curvedheat.config", "parse_config", "config", None),
    ("curvedheat.geometry", "make_gamma_model", "geometry", "table"),
    ("curvedheat.geometry", "make_hyperbolic", "geometry", None),
    ("curvedheat.geometry", "drift_lower_constant", "geometry", None),
    ("curvedheat.operators", "laplacian_tridiag", "operators", "assemble"),
    ("curvedheat.spectral", "dirichlet_lambda1", "spectral", None),
    ("curvedheat.barriers", "power_tail_barrier", "barriers", "construct"),
    ("curvedheat.barriers", "exp_rate_window", "barriers", "construct"),
    ("curvedheat.barriers", "amplitude_limit", "barriers", "construct"),
    ("curvedheat.barriers", "time_envelope", "barriers", "construct"),
    ("curvedheat.barriers", "verify_supersolution", "barriers", "verify"),
    ("curvedheat.evolution", "solve_on_ball", "evolution", None),
    ("curvedheat.evolution", "compare_with_envelope", "evolution", "envelope"),
)

# (module, function, bucket) for hot calls that are only counted.
AGGREGATE_FUNCTIONS = (
    ("curvedheat.geometry", "drift", "geometry"),
)

# (module, name, bucket) bindings counted apart per caller: the same
# scipy function serves two layers.
AGGREGATE_BINDINGS = (
    ("curvedheat.evolution", "solve_banded", "evolution.banded"),
    ("curvedheat.spectral", "solve_banded", "spectral.banded"),
)

# functions whose results (and arguments) the per-layer metrics read
KEEP_RESULTS = ("solve_on_ball", "dirichlet_lambda1", "make_gamma_model",
                "verify_supersolution", "_sweep_cell")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, bucket, parent index or -1, t0, t1]
        self.calls = defaultdict(int)  # wrapped name -> calls
        self.inclusive = defaultdict(float)  # wrapped name -> seconds
        self.tag_s = defaultdict(float)  # tag -> seconds, outermost calls only
        self.self_s = defaultdict(float)  # bucket -> self seconds
        self.results = defaultdict(list)  # wrapped name -> (seconds, result | exception, args)
        self.span_calls = 0
        self.aggregate_names = set()
        # open frames: [span index, seconds spent in wrapped children, tag]
        self._stack = [[-1, 0.0, None]]
        self._patches = []
        self.t_start = None
        self.t_stop = None

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, original, name, bucket, tag, keep):
        stack = self._stack

        def wrapper(*args, **kwargs):
            outermost = tag is not None and all(frame[2] != tag for frame in stack)
            frame = [len(self.spans), 0.0, tag]
            span = [name, bucket, stack[-1][0], 0.0, 0.0]
            self.spans.append(span)
            stack.append(frame)
            self.span_calls += 1
            result = None
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                result = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                span[3], span[4] = t0, t1
                self.self_s[bucket] += dur - frame[1]
                stack[-1][1] += dur
                self.calls[name] += 1
                self.inclusive[name] += dur
                if outermost:
                    self.tag_s[tag] += dur
                if keep:
                    self.results[name].append((dur, result, args))
            return result

        return wrapper

    def _aggregate_wrapper(self, original, name, bucket):
        self.aggregate_names.add(name)
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        self_s = self.self_s

        # the wrapped hot calls make no wrapped calls, so they open no frame
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[bucket] += dur
                stack[-1][1] += dur
                calls[name] += 1
                inclusive[name] += dur

        return wrapper

    def _patch_everywhere(self, original, wrapper):
        """Replace every binding of ``original`` in loaded curvedheat modules."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "curvedheat" or mod_name.startswith("curvedheat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap the layer functions in every curvedheat module that binds them."""
        for mod_name, func, bucket, tag in SPAN_FUNCTIONS:
            original = getattr(sys.modules[mod_name], func)
            name = f"{mod_name.rsplit('.', 1)[-1]}.{func}"
            self._patch_everywhere(
                original, self._span_wrapper(original, name, bucket, tag, func in KEEP_RESULTS)
            )
        for mod_name, func, bucket in AGGREGATE_FUNCTIONS:
            original = getattr(sys.modules[mod_name], func)
            name = f"{mod_name.rsplit('.', 1)[-1]}.{func}"
            self._patch_everywhere(original, self._aggregate_wrapper(original, name, bucket))
        for mod_name, attr, bucket in AGGREGATE_BINDINGS:
            module = sys.modules[mod_name]
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._aggregate_wrapper(original, bucket, bucket))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- run boundaries --------------------------------------------------

    def start(self):
        self.t_start = perf_counter()

    def stop(self):
        self.t_stop = perf_counter()
        wall = self.t_stop - self.t_start
        self.self_s["harness"] += wall - self._stack[0][1]

    @property
    def aggregate_calls(self) -> int:
        return sum(self.calls[name] for name in self.aggregate_names)

    @property
    def wall_s(self) -> float:
        return self.t_stop - self.t_start

    def span_records(self):
        """Spans as JSON-able dicts, times relative to ``start``."""
        return [
            {"name": name, "bucket": bucket, "parent": parent,
             "start_s": t0 - self.t_start, "end_s": t1 - self.t_start}
            for name, bucket, parent, t0, t1 in self.spans
        ]


def calibrate(n: int = 20000) -> tuple:
    """Seconds a span wrapper and an aggregate wrapper add to one call."""

    def noop():
        return None

    def loop(fn):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        return perf_counter() - t0

    probe = Tracer()
    span = probe._span_wrapper(noop, "noop", "probe", "probe", False)
    aggregate = probe._aggregate_wrapper(noop, "noop", "probe")
    runs = [(loop(noop), loop(span), loop(aggregate)) for _ in range(5)]
    bare, with_span, with_aggregate = (sorted(col)[len(col) // 2] for col in zip(*runs))
    return max(0.0, (with_span - bare) / n), max(0.0, (with_aggregate - bare) / n)
