"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion that breaks it must fail here, in tier 1.  So
must a right-hand side that stops counting its field calls, or that makes
many more Python calls per RK4 sweep of the benchmark's forced problem, or
an averaged drive that rebuilds its quadrature grid or re-reads gamma on
it at every stage of the benchmark's mu < 1 sweep, or that reads gamma
more than once per float stage time."""

import dataclasses
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np

# Every module Tracer.install imports, so that it loads none of its own.
from ddebranch import config, continuation, degree, expr, fields, integrator, lienard, poincare  # noqa: F401
from ddebranch import presets
from ddebranch.fields import FieldHandle
from ddebranch.lienard import lienard_reduce
from ddebranch.problem import CoupledProblem, History, PeriodicFn1D

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


def _homotopy_sweep(gamma_calls):
    """One RK4 sweep at mu = 0.5 of the seed-0 sunflower-homotopy problem
    (amplitude, period, delay, lambda and n_quad from the workload) over a
    batch of 19 random histories, as integrate's arguments.  Its sigma is
    wrapped so that gamma_calls gets the ndim of every time it is read at."""
    params, _ = _load("workloads").make_inputs("sunflower-homotopy", 0)
    b, T = params["b"], params["T"]
    a = PeriodicFn1D(eval=lambda t: -1.0 + b * math.sin(t), period=T)
    setup = presets.sunflower_setup(a, lambda y, yd: math.sin(yd), T, params["r"])
    sigma = setup.sigma.sigma

    def counted(t):
        gamma_calls.append(np.ndim(t))
        return sigma.eval(t)

    gamma = PeriodicFn1D(eval=counted, period=T)
    problem = dataclasses.replace(lienard_reduce(setup.scalar, gamma), n_quad=params["n_quad"])
    values = np.random.default_rng(0).uniform(-0.3, 0.3, (params["m"] + 1, 19, 2))
    init = History.from_values(values, problem.delay)
    return (problem, params["lambda"], params["mu"], init, T), {"steps_per_delay": params["steps_per_delay"]}


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


def test_averaged_drive_sweep_reads_gamma_and_builds_its_grid_once(monkeypatch):
    # Every mu < 1 stage averages f on the same quadrature times: 205
    # stages, each of which read gamma on the grid and built it anew.
    gamma_calls = []
    args, kwargs = _homotopy_sweep(gamma_calls)
    problem = args[0]
    linspace = np.linspace
    grids = []

    def counted_linspace(start, stop, num=50, **kw):
        if (start, stop, num) == (0.0, problem.period, problem.n_quad + 1):
            grids.append(num)
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(np, "linspace", counted_linspace)
    gamma_calls.clear()
    integrator.integrate(*args, **kwargs)
    # The right-hand side's a is gamma, so f and the y-equation share one
    # read per distinct float stage time: 103 (51 steps, 2 new times each,
    # plus t = 0).
    assert 0 < gamma_calls.count(0) <= 103
    assert sum(1 for ndim in gamma_calls if ndim) <= 1
    assert len(grids) <= 1
