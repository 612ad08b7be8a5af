"""The benchmark's tracer against the library it traces.

``perfbench/run.py --trace 1`` wraps every function of ``tracer.TRACED``
and raises once a run is over if a span it requires or forbids was never
traced, or if a traced name is missing from the library.  These checks
catch a renamed or deleted library function in Tier-1 time instead.
``perfbench`` is only read: its modules are loaded from their files.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import dilations.cli  # noqa: F401  (loads every dilations module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
run = load("run")
TRACED_SPANS = {f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names}


def test_every_required_bypassed_and_reported_span_is_traced():
    named = {span for spans in (*run.REQUIRED.values(), *run.BYPASSED.values())
             for span in spans}
    named |= {span for span, _, _ in run.SPAN_METRICS if span != tracer.ROOT}
    named |= set(tracer.COUNTERS)
    assert sorted(named - TRACED_SPANS) == []


def dilations_bindings():
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "dilations" or key.startswith("dilations.")
        for attr, value in vars(module).items()
    }


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    before = dilations_bindings()
    contraction_tuple = dilations.interpolation.ContractionTuple
    post_init = contraction_tuple.__dict__["__post_init__"]
    t = tracer.Tracer()
    t.install()  # raises RuntimeError on a traced name the library lacks
    try:
        assert sorted(t.names[1:]) == sorted(TRACED_SPANS)
        op_norm = dilations.linalg.op_norm
        assert op_norm.__wrapped__ is before[("dilations.linalg", "op_norm")]
        assert contraction_tuple.__post_init__.__wrapped__ is post_init
        job = t.begin_job(0)
        assert op_norm(np.eye(2)) == 1.0
        t.end_job(job)
        calls, _ = t.self_times()
        assert calls["linalg.op_norm"] == 1 and calls[tracer.ROOT] == 1
        assert t.counts["linalg.op_norm"]["entries"] == 4
    finally:
        t.uninstall()
    after = dilations_bindings()
    assert [key for key in after if after[key] is not before.get(key)] == []
    assert contraction_tuple.__dict__["__post_init__"] is post_init
