"""Span tracing of memdiff's layers, installed from outside the library.

``Tracer`` replaces every public function of the layer modules, under every
name by which memdiff's own modules (and the package namespace) refer to
it, with a wrapper that records a span: name, layer, start, end and the
index of the enclosing span.  ``MemoryKernel.moment_cells`` is wrapped as
well, because the solver builds its weights through it.  Spans stay in
memory; ``per_op_metrics`` turns the spans of one operation into self
times and counts per layer.

Volterra spans are split by solver path.  The rule mirrors the dispatch in
``memdiff.volterra._solve_matrix``: a ``PowerLaw`` kernel with beta < 0 runs
the singular path, every other kernel the smooth (Toeplitz) march.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("specfun", "kernels", "volterra", "spectral", "asymptotics", "visco", "cli")
VOLTERRA_PATHS = ("volterra.smooth", "volterra.singular")

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    "specfun.self_s": "s",
    "specfun.ml_points": "count",
    "volterra.smooth.self_s": "s",
    "volterra.smooth.lambda_steps": "count",
    "volterra.smooth.lambda_steps_per_s": "1/s",
    "volterra.singular.self_s": "s",
    "volterra.singular.lambda_steps": "count",
    "volterra.singular.lambda_steps_per_s": "1/s",
    "kernels.self_s": "s",
    "kernels.calls": "count",
    "spectral.self_s": "s",
    "spectral.modes": "count",
    "asymptotics.self_s": "s",
    "visco.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

#: Volterra entry points whose arguments give the work of one solve.
SOLVER_ENTRIES = ("relaxation_values", "solve_relaxation_batch", "solve_relaxation")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int = -1  # index of the enclosing span in the same list; -1 at the root
    counts: dict = field(default_factory=dict)
    error: bool = False


def self_times(spans) -> list:
    """Duration of each span minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping or
    out-of-range children are never subtracted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        clipped = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        )
        for a, b in clipped:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def per_op_metrics(spans, csv_bytes: int = 0, time_scale: float = 1.0) -> dict:
    """Per-layer self time, counts and errors of one operation's spans.

    Self times are multiplied by ``time_scale`` (see run.Clock).
    """
    out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
    for s, own in zip(spans, self_times(spans)):
        out[f"{s.layer}.self_s"] += own * time_scale
        for key, value in s.counts.items():
            out[f"{s.layer}.{key}"] += value
        if s.error:
            out[f"{s.layer.split('.')[0]}.errors"] += 1
    for path in VOLTERRA_PATHS:
        busy = out[f"{path}.self_s"]
        out[f"{path}.lambda_steps_per_s"] = out[f"{path}.lambda_steps"] / busy if busy > 0 else 0.0
    out["cli.csv_bytes"] = float(csv_bytes)
    return out


class Tracer:
    """Context manager that wraps memdiff's layer functions while active."""

    def __init__(self):
        from memdiff.errors import MemdiffError
        from memdiff.kernels import MemoryKernel, PowerLaw
        from memdiff.spectral import ModeGrid

        self._error_type = MemdiffError
        self._kernel_type = MemoryKernel
        self._powerlaw_type = PowerLaw
        self._grid_type = ModeGrid
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def take(self) -> list:
        """Spans recorded since the last call, handed over to the caller."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, classify, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if classify is not None or count is not None:
                bound = tracer._bind(fn, args, kwargs)
            layer = classify(bound) if classify is not None else name.split(".")[0]
            span = Span(
                name=name,
                layer=layer,
                start=0.0,
                parent=tracer._stack[-1] if tracer._stack else -1,
                counts=count(bound) if count is not None else {},
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer._error_type:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    @staticmethod
    def _bind(fn, args, kwargs):
        return inspect.signature(fn).bind(*args, **kwargs).arguments

    # -- layer rules ---------------------------------------------------------

    def _volterra_path(self, bound):
        for value in bound.values():
            if isinstance(value, self._kernel_type):
                singular = isinstance(value, self._powerlaw_type) and value.beta < 0
                return VOLTERRA_PATHS[1] if singular else VOLTERRA_PATHS[0]
        return VOLTERRA_PATHS[0]

    @staticmethod
    def _lambda_steps(bound):
        lambdas = bound.get("lambdas", bound.get("lam"))
        grid = bound.get("grid")
        if lambdas is None or grid is None:
            return {}
        return {"lambda_steps": int(np.size(lambdas)) * int(grid.n_steps)}

    def _modes(self, bound):
        for value in bound.values():
            grid = value if isinstance(value, self._grid_type) else getattr(value, "grid", None)
            if isinstance(grid, self._grid_type):
                return {"modes": math.prod(grid.shape)}
        return {}

    @staticmethod
    def _ml_points(bound):
        return {"ml_points": int(np.size(bound.get("z", 0)))}

    def _rules(self, layer, fname):
        """(classify, count) for one wrapped function."""
        if layer == "volterra":
            count = self._lambda_steps if fname in SOLVER_ENTRIES else None
            return self._volterra_path, count
        if layer == "kernels":
            return None, lambda bound: {"calls": 1}
        if layer == "spectral":
            return None, self._modes
        if layer == "specfun" and fname == "mittag_leffler":
            return None, self._ml_points
        return None, None

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """Map id(function) -> (function, span name, classify, count)."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"memdiff.{layer}"]
            for fname, obj in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                classify, count = self._rules(layer, fname)
                targets[id(obj)] = (obj, f"{layer}.{fname}", classify, count)
        return targets

    def __enter__(self):
        import memdiff.cli  # noqa: F401  (the cli module is not imported by the package)

        wrappers = {}
        for key, (fn, name, classify, count) in self._targets().items():
            wrappers[key] = self._wrap(fn, name, classify, count)
        for modname, module in list(sys.modules.items()):
            if modname != "memdiff" and not modname.startswith("memdiff."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        original = self._kernel_type.moment_cells
        self._patches.append((self._kernel_type, "moment_cells", original))
        self._kernel_type.moment_cells = self._wrap(
            original, "kernels.MemoryKernel.moment_cells", None, lambda bound: {"calls": 1}
        )
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        return False
