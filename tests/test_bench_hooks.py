"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion that breaks it must fail here, in tier 1.  So
must a right-hand side that stops counting its field calls, or that makes
many more Python calls per RK4 sweep of the benchmark's forced problem."""

import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np

# Every module Tracer.install imports, so that it loads none of its own.
from ddebranch import config, continuation, degree, expr, fields, integrator, lienard, poincare  # noqa: F401
from ddebranch.fields import FieldHandle
from ddebranch.problem import CoupledProblem, History

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _forced_sweep():
    """One RK4 sweep of the seed-0 forced-branch problem over a batch of 19
    random histories, as integrate's positional and keyword arguments.
    205 right-hand-side stages: 51 steps of 4, plus the slope at node 0."""
    params, _ = _load("workloads").make_inputs("forced-branch", 0)
    problem = config.load_problem(params["config"]).coupled
    values = np.random.default_rng(0).uniform(-0.3, 0.3, (9, 19, 2))
    init = History.from_values(values, problem.delay)
    return (problem, 0.5, 1.0, init, 2.0 * math.pi), {"steps_per_delay": 8}


def _bindings():
    """Every attribute of every loaded ddebranch module, and of the two
    classes whose methods the tracer patches, keyed by (owner, name)."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if module is not None and (modname == "ddebranch" or modname.startswith("ddebranch.")):
            out.update(((modname, attr), value) for attr, value in vars(module).items())
    for cls in (CoupledProblem, FieldHandle):
        out.update(((cls.__name__, attr), value) for attr, value in vars(cls).items())
    return out


def test_tracer_installs_and_restores_every_patch():
    tracer = _load("spans").Tracer()
    before = _bindings()
    try:
        tracer.install()
        installed = _bindings()
        patched = {key for key, value in installed.items() if before.get(key) is not value}
        for key in [("ddebranch.expr", "evaluate"), ("ddebranch.fields", "make_wf"),
                    ("ddebranch.integrator", "integrate"), ("ddebranch.poincare", "integrate"),
                    ("CoupledProblem", "eval_g"), ("FieldHandle", "__call__")]:
            assert key in patched, key
        expr.evaluate(expr.parse("x + 1", {"x"}), {"x": 1.0})
        assert tracer.counts["expr.evaluate"] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_sweep_counts_one_f_and_one_g_call_per_stage():
    args, kwargs = _forced_sweep()
    tracer = _load("spans").Tracer()
    try:
        tracer.install()
        integrator.integrate(*args, **kwargs)
    finally:
        tracer.uninstall()
    assert tracer.counts["problem.eval_f"] == 205
    assert tracer.counts["problem.eval_g"] == 205
    assert tracer.metrics()["problem.rhs_evals"] == 410


def test_sweep_makes_at_most_3200_python_calls():
    # Python calls outside NumPy in one sweep after a warm-up; the
    # right-hand side's field calls are most of them (6 383 when each
    # field walked a closure tree per component).
    args, kwargs = _forced_sweep()
    integrator.integrate(*args, **kwargs)
    numpy_dir = os.path.dirname(np.__file__)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and not frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        integrator.integrate(*args, **kwargs)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 3200
