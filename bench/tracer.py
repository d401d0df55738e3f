"""Per-layer tracing of surepl from outside the package.

Each layer is a function or method of a surepl module.  While a
`Tracer` is active, every module attribute in the `surepl` package that is
bound to a layer's function is replaced by a timing wrapper, so the wrapper
sees the calls made through the names callers look up (for example
`surepl.training.gram_matrix`).  Methods are wrapped on their class.

A layer whose function no longer exists, or is never called, reports zero
calls and zero time: the tracer never fails because the package was
refactored, so later changes can run the benchmark unchanged.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass

import numpy as np


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _gram_bytes(args, kwargs, result):
    # computed, not measured: one float64 per entry of the returned matrix
    return {"kernel.gram_bytes": 8 * _rows(args[0]) * _rows(args[1])}


def _confidence_rows(args, kwargs, result):
    return {"confidence.rows": _rows(args[0])}


def _train_counts(args, kwargs, result):
    trace = result[2]
    return {"training.iterations": trace.iterations_run, "training.converged": int(trace.converged)}


def _bytes_read(args, kwargs, result):
    return {"data.bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"data.bytes_written": os.path.getsize(args[1])}


def _query_rows(args, kwargs, result):
    return {"baselines.query_rows": _rows(args[1])}


@dataclass(frozen=True)
class Layer:
    """One traced boundary: `target` is '<module>:<attribute path>' inside surepl."""

    name: str
    target: str
    counts: object = None  # (args, kwargs, result) -> {count name: amount}
    self_time: bool = False


LAYERS = (
    Layer("kernel.mean_pairwise_distance", "kernel:mean_pairwise_distance"),
    Layer("kernel.gram_matrix", "kernel:gram_matrix", _gram_bytes),
    Layer("ridge.factor", "ridge:KernelRidgeSolver.__init__"),
    Layer("ridge.solve", "ridge:KernelRidgeSolver.solve"),
    Layer("ridge.model_outputs", "ridge:model_outputs"),
    Layer("ridge.load_model", "ridge:load_model"),
    Layer("ridge.save_model", "ridge:save_model"),
    Layer("confidence.update", "confidence:update_confidence_matrix", _confidence_rows),
    Layer("training.train", "training:train", _train_counts, self_time=True),
    Layer("data.load_dataset", "data:load_dataset", _bytes_read),
    Layer("data.save_dataset", "data:save_dataset", _bytes_written),
    Layer("data.corrupt", "data:corrupt"),
    Layer("data.subset", "data:PLDataset.subset"),
    Layer("baselines.plknn_predict", "baselines:plknn_predict", _query_rows),
    Layer("harness.grid_search", "harness:grid_search"),
    Layer("harness.cross_validate", "harness:cross_validate", self_time=True),
    Layer("cli.gen", "cli:_cmd_gen"),
    Layer("cli.predict", "cli:_cmd_predict"),
    Layer("cli.cv", "cli:_cmd_cv"),
    Layer("cli.eval", "cli:_cmd_eval"),
)

# work counts the hooks above add up, with their units
COUNT_UNITS = {
    "kernel.gram_bytes": "bytes",
    "confidence.rows": "count",
    "training.iterations": "count",
    "data.bytes_read": "bytes",
    "data.bytes_written": "bytes",
    "baselines.query_rows": "count",
}


@dataclass
class _Span:
    start: float
    child_s: float = 0.0


@dataclass
class Totals:
    """Accumulated busy time, self time and call count of one layer."""

    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


class Tracer:
    """Context manager that wraps every layer in LAYERS while it is active.

    Self time is a span's duration minus the time its directly nested traced
    spans took.  Count hooks that no longer fit a refactored signature are
    skipped, so they too report zero rather than failing the job.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.totals = {layer.name: Totals() for layer in layers}
        self.counts = dict.fromkeys([*COUNT_UNITS, "training.converged"], 0)
        self._stack: list[_Span] = []
        self._restore: list = []

    def __enter__(self):
        modules = _surepl_modules()
        for layer in self.layers:
            self._install(layer, modules)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, layer: Layer, modules: dict) -> None:
        module_name, _, path = layer.target.partition(":")
        owner = modules.get(f"surepl.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            return  # the layer is gone; it reports zero calls
        wrapper = self._wrap(layer, original)
        if parents:  # a method: callers find it on the class
            self._patch(owner, attr, original, wrapper)
            return
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: Layer, fn):
        totals = self.totals[layer.name]
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - span.start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                totals.seconds += elapsed
                totals.self_seconds += elapsed - span.child_s
                totals.calls += 1
            if layer.counts is not None:
                try:
                    added = layer.counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    added = {}
                for name, amount in added.items():
                    counts[name] += amount
            return result

        return traced

    def metrics(self, jobs: int) -> dict:
        """Per-job layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in self.layers:
            t = self.totals[layer.name]
            out[f"{layer.name}.s"] = (t.seconds / jobs, "s")
            out[f"{layer.name}.calls"] = (t.calls / jobs, "count")
            if layer.self_time:
                out[f"{layer.name}.self_s"] = (t.self_seconds / jobs, "s")
        for name, unit in COUNT_UNITS.items():
            out[name] = (self.counts[name] / jobs, unit)
        trains = self.totals["training.train"].calls
        converged = self.counts["training.converged"] / trains if trains else 0.0
        out["training.converged_ratio"] = (converged, "fraction")
        return out


def _surepl_modules() -> dict:
    """The surepl package and all of its submodules, imported."""
    import surepl

    for info in pkgutil.iter_modules(surepl.__path__, "surepl."):
        if info.name != "surepl.__main__":
            importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if name == "surepl" or name.startswith("surepl.")}
