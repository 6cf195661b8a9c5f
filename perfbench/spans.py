"""Spans around calls into quadnet's public functions, kept in memory.

``Tracer.install`` replaces each traced function, in every quadnet module
namespace that refers to it, with a wrapper that records one span: name,
start, end, parent span and job id.  Calls between library functions go
through module globals, so a function's public callees show as child spans
(``predict_measured`` -> ``simulate_experiment`` -> ``elaborate`` ->
``squeezer`` ... ``apply`` -> ``is_physical``).  Functions in ``WHOLE``
reach private code; their spans stay whole and hide their callees.

A span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main", "build_parser"),
    "network": ("parse_network", "build_experiment_network", "elaborate",
                "simulate_experiment"),
    "states": ("squeezer", "beam_splitter", "phase_shift", "loss_channel", "apply",
               "is_physical", "combination_variance"),
    "criteria": ("evaluate_criteria", "combination_forms", "criterion_totals",
                 "results_from_totals"),
    "sampling": ("emit_trace", "trace_to_csv"),
    "calibration": ("predict_measured", "fit_uniform_efficiency", "infer_sum_gains",
                    "consistency_report", "load_measured_dataset"),
}
WHOLE = frozenset({"sampling.emit_trace", "calibration.fit_uniform_efficiency"})


class Tracer:
    """Records spans into flat arrays; ``job`` tags the spans of one command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.hidden = 0
        self.job = -1

    def install(self) -> None:
        modules = [importlib.import_module("quadnet")] + [
            importlib.import_module(f"quadnet.{layer}") for layer in TRACED]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"quadnet.{layer}")
            for function in functions:
                original = getattr(home, function)
                wrapped = self._wrap(f"{layer}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        whole = int(name in WHOLE)
        status = name == "cli.main"  # main reports failure by its exit code

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.hidden:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job_of.append(self.job)
            self.end.append(0.0)
            self.failed.append(1)
            self.stack.append(index)
            self.hidden += whole
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                self.failed[index] = status and result != 0
                return result
            finally:
                self.end[index] = perf_counter()
                self.hidden -= whole
                self.stack.pop()

        return traced

    def table(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, self time in ms, and spans that failed."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=duration.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_ms = np.bincount(name, weights=duration - covered, minlength=k) * 1e3
        errors = np.bincount(name, weights=np.frombuffer(self.failed, dtype=np.int8),
                             minlength=k)
        return {n: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                    "errors": int(errors[i])} for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span once, as arrays in one .npz file."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 job=np.frombuffer(self.job_of, np.int32), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), failed=np.frombuffer(self.failed, np.int8))
