"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion that breaks it must fail here, in tier 1.  So
must a field-by-field right-hand side that stops counting its field calls,
a DSL problem's sweep that stops making one call of its compiled stage's
step part per RK4 stage and one of its interval part per delay interval,
or that makes many more Python calls per sweep of the
benchmark's forced problem, or an averaged drive that rebuilds its
quadrature grid or re-reads gamma on it at every stage of the benchmark's
mu < 1 sweep, or that reads gamma more than once per float stage time, or
that reads the coefficient a other than once per sweep on every stage time.
And every workload, at the full size the benchmark runs, must pass its own
output check."""

import dataclasses
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

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
    wrapped so that gamma_calls gets the shape of every time it is read at."""
    params, _ = _load("workloads").make_inputs("sunflower-homotopy", 0)
    b, T = params["b"], params["T"]
    a = PeriodicFn1D(eval=lambda t: -1.0 + b * math.sin(t), period=T)
    setup = presets.sunflower_setup(a, lambda y, yd: math.sin(yd), T, params["r"])
    sigma = setup.sigma.sigma

    def counted(t):
        gamma_calls.append(np.shape(t))
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


def _traced_sweep(args, kwargs):
    tracer = _load("spans").Tracer()
    try:
        tracer.install()
        integrator.integrate(*args, **kwargs)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_callable_sweep_counts_one_f_and_one_g_call_per_stage():
    # The sunflower problem's fields are Python callables, so its mu = 1
    # sweep evaluates them one by one through CoupledProblem.eval_f and
    # eval_g, the methods the tracer counts.
    args, kwargs = _homotopy_sweep([])
    tracer = _traced_sweep((*args[:2], 1.0, *args[3:]), kwargs)
    assert tracer.counts["problem.eval_f"] == 205
    assert tracer.counts["problem.eval_g"] == 205
    assert tracer.metrics()["problem.rhs_evals"] == 410


def test_traced_forced_sweep_makes_one_stage_call_per_stage():
    # Every field of the forced problem comes from the DSL: each stage is
    # one call of the step part of the problem's compiled stage and no
    # field call, and its state-free part is one call of the interval
    # part per delay interval: 7 for 51 steps of 8 per interval.
    args, kwargs = _forced_sweep()
    problem = args[0]
    calls = {"interval": [], "step": []}

    def counted(name, fn):
        def call(*stage_args):
            calls[name].append(stage_args[0])
            return fn(*stage_args)
        return call

    vars(problem)["stage"] = tuple(counted(name, fn) for name, fn in zip(calls, problem.stage))
    tracer = _traced_sweep(args, kwargs)
    assert len(calls["step"]) == 205
    assert len(calls["interval"]) == 7
    assert tracer.counts["problem.eval_f"] == tracer.counts["problem.eval_g"] == 0


def test_sweep_makes_at_most_323_python_calls():
    # Python calls outside NumPy in one sweep after a warm-up: 6 383 when
    # each field walked a closure tree per component, 2 895 with one
    # generated function per field, two field calls per stage and a
    # scalar delayed read per step, 1 616 with one stage call per stage
    # that evaluated sin(yd1) and cos(t) each time, 1 043 when each
    # stage read the coefficient a at its own float time, 535 when a
    # lambda moved lam into place for each call of the step.
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
    assert len(calls) <= 323


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
    # The problem's a is gamma, which integrate reads once on all 103 stage
    # times (51 steps, 2 new times each, plus t = 0); f reads it once per
    # distinct float stage time, and once on the quadrature grid.
    floats = gamma_calls.count(())
    stages = gamma_calls.count((103,))
    grid = gamma_calls.count((problem.n_quad + 1, 1))
    assert 0 < floats <= 103 and stages == 1 and grid <= 1
    assert len(gamma_calls) == floats + stages + grid
    assert len(grids) <= 1


@pytest.mark.parametrize("workload", _load("workloads").WORKLOADS)
def test_workload_passes_its_check_at_full_size(workload, tmp_path):
    # The pins only the benchmark checked before: 12 branch points and the
    # final sup_norm of the forced branch, the sunflower index identity and
    # the homotopy's fixed point and its index.
    workloads = _load("workloads")
    params, expect = workloads.make_inputs(workload, 0)
    config_path = workloads.prepare(params, tmp_path)
    output, problem, _ = workloads.solve(params, config_path, tmp_path)
    assert workloads.check(workload, params, expect, problem, output, tmp_path) is None
