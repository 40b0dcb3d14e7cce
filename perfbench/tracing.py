"""In-memory spans around the calls into each switchguard layer.

The benchmark's traced passes replace every public function of the layer
modules with a wrapper that records a span (name, start, end, parent,
root).  The benchmark opens one root span per operation, so spans of one
operation share the root's index as their identifier.  Nothing inside
the package is edited: the wrappers are installed into the module
namespaces for the traced pass only and removed afterwards, so untraced
passes run the plain code.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

# Layers are the package's modules, named as in the source tree.
LAYERS = ("cli", "switched_model", "synthesis", "lp_solver", "operator_core", "simulate")

# Methods traced in addition to module-level functions: (layer, class, method).
METHODS = (("synthesis", "DecisionVariables", "unpack"),)

# Left untraced: a per-time-step helper of `instantiate` that would add about
# half of all spans (40k per `stress` pass) for about 1% of the time.
UNTRACED = {"switched_model.history_at"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs")

    def __init__(self, name, start, parent, root, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_counts(lp) -> dict:
    return {"rows": len(lp.constraints), "cols": lp.variable_count,
            "nnz": int(sum(np.count_nonzero(coeffs) for coeffs, _, _ in lp.constraints))}


# Counts recorded from a traced function's result, at the layer boundary.
RESULT_COUNTS = {
    "synthesis.assemble_lp": _lp_counts,
    "synthesis.build_residual_rows": lambda rows: {"rows": len(rows)},
    "synthesis.build_performance_rows": lambda rows: {"rows": len(rows)},
    "synthesis.decision_variables": lambda variables: {"vars": variables.count},
    "switched_model.enumerate_histories": lambda windows: {"windows": len(windows)},
}


class Tracer:
    """Collects the spans of one pass (or one set-up) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent].root if parent is not None else len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, root, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                self.spans[index].attrs = counts(result)
            return result
        return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call into the layer modules through `tracer` for the block.

    A function is replaced in every switchguard module that binds it, so
    calls through `from .x import f` names are traced as well.
    """
    package = [mod for name, mod in list(sys.modules.items())
               if name == "switchguard" or name.startswith("switchguard.")]
    patches = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"switchguard.{layer}")
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or f"{layer}.{fname}" in UNTRACED):
                    continue
                traced = tracer.wrap(f"{layer}.{fname}", fn)
                for mod in package:
                    if vars(mod).get(fname) is fn:
                        patches.append((mod, fname, fn))
                        setattr(mod, fname, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"switchguard.{layer}"), cls_name)
            fn = vars(cls)[method]
            patches.append((cls, method, fn))
            setattr(cls, method, tracer.wrap(f"{layer}.{method}", fn))
        yield tracer
    finally:
        for owner, name, fn in reversed(patches):
            setattr(owner, name, fn)
