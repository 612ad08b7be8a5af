"""Span tracer that wraps public functions of the ``dilations`` layers.

Each traced function is rebound in every ``dilations.*`` module that
holds it, found by object identity: ``cli`` and ``dilation`` import
names directly, so patching only the defining module would miss their
calls.  ``interpolation.ContractionTuple`` is a class; its validation
(``__post_init__``) is what gets wrapped.

Spans (name, start, end, parent, job) live in flat arrays while the run
lasts and are written out once, at the end.  A layer's self time is its
span durations minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts recorded at the span boundary, from the call's arguments or result.
COUNTERS = {
    "dilation.torus_sup": lambda a, kw, res: {
        "lattice_points": _arg(a, kw, 1, "M") ** _arg(a, kw, 0, "poly").d
    },
    "dilation.vn_check": lambda a, kw, res: {
        "decided": float(res.verdict in ("HOLDS", "VIOLATED"))
    },
    "interpolation.eval_discretized": lambda a, kw, res: {
        "dense_entries": _arg(a, kw, 0, "semi").total_dim ** 2
    },
    "linalg.op_norm": lambda a, kw, res: {"entries": np.size(_arg(a, kw, 0, "a"))},
}

# The functions the per-layer metrics name.  Time in untraced helpers
# counts as self time of the nearest traced caller.
TRACED = {
    "linalg": ("op_norm", "matrix_exp", "matrix_to_json", "matrix_from_json"),
    "torus": ("bscr_check",),
    "interpolation": ("ContractionTuple", "eval_discretized", "compress_discretized",
                      "multilinear_compress", "scaled_blend", "approx_error_sweep"),
    "structure": ("structure_report", "preservation_suite"),
    "dilation": ("eval_poly", "torus_sup", "vn_check", "vn_search",
                 "power_dilation_verify", "egervary_dilation"),
}

ROOT = "cli"  # one root span per job, around the call into ``cli.main``


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._job_id = -1
        self.counts = defaultdict(lambda: defaultdict(float))
        self._restore = []

    # -------------------------------------------------------- patching

    def install(self):
        """Wrap every name in TRACED; raise if one is missing."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "dilations" or n.startswith("dilations."))
        ]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"dilations.{layer}")
            for name in names:
                obj = getattr(module, name, None)
                if obj is None:
                    raise RuntimeError(f"traced function dilations.{layer}.{name} is missing")
                span = f"{layer}.{name}"
                if isinstance(obj, type):
                    original = obj.__dict__.get("__post_init__")
                    if original is None:
                        raise RuntimeError(f"{span} has no __post_init__ to trace")
                    obj.__post_init__ = self._wrap(original, span)
                    self._restore.append((obj, "__post_init__", original))
                    continue
                wrapper = self._wrap(obj, span)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _open(self, name_id):
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._job.append(self._job_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span):
        name_id = len(self.names)
        self.names.append(span)
        counter = COUNTERS.get(span)
        counts = self.counts[span]
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ jobs

    def begin_job(self, job_id):
        self._job_id = job_id
        return self._open(0)

    def end_job(self, idx):
        self._close(idx)

    # --------------------------------------------------------- results

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (number of calls, summed self seconds)."""
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        names = np.frombuffer(self._name, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
        )

    def write(self, path, extra: dict):
        payload = dict(extra)
        payload["names"] = self.names
        payload["spans"] = {
            "name": self._name.tolist(),
            "parent": self._parent.tolist(),
            "job": self._job.tolist(),
            "start": self._start.tolist(),
            "end": self._end.tolist(),
        }
        path.write_text(json.dumps(payload))
