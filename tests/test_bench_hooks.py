"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion that breaks it must fail here, in tier 1.  So
must a stage whose Python fields stop calling the methods the tracer
counts, a sweep of the benchmark's forced problem or sunflower preset that
stops making one call of its compiled stage's RK4 kernel per step, one of
its interval part per delay interval and one of its time-only part per
sweep grid, a sweep of those (the forced problem's at mu = 0.5 too), of
the homotopy or of a Python fold field that makes more Python calls than
it did, a CLI request that compiles more generated functions than it
did, a separable averaged drive that calls a quadrature per stage, or an
averaged drive that reads gamma on the quadrature grid other than once,
when its stage is built, or builds that grid more than once, or that
reads gamma more than once per float stage time, or that reads the
coefficient a other than once per sweep on every stage time, or a branch
whose attempts stop looking ahead (more sweeps on the forced branch) or
start where rows are not cheap (on a fold with a Python field), or that
builds more than one sweep plan.  And every workload, at the full size
the benchmark runs, must pass its own output check."""

import dataclasses
import math
import os
import re
import sys

import numpy as np
import pytest

# Every module Tracer.install imports, so that it loads none of its own.
from ddebranch import config, continuation, degree, expr, fields, integrator, lienard, poincare  # noqa: F401
from ddebranch import presets
from ddebranch import problem as problem_module
from ddebranch.fields import FieldHandle
from ddebranch.lienard import lienard_reduce
from ddebranch.problem import CoupledProblem, History, PeriodicFn1D

from conftest import fold_problem, forced_branch_run, perfbench_module

def _config_sweep(workload):
    """One RK4 sweep at lambda = 0.5 of the seed-0 problem of a CLI
    workload (forced-branch or sunflower-verify-index) over a batch of 19
    random histories, as integrate's positional and keyword arguments.
    205 right-hand-side stages: 51 steps of 4, plus the slope at node 0."""
    params, _ = perfbench_module("workloads").make_inputs(workload, 0)
    problem = config.load_problem(params["config"]).coupled
    values = np.random.default_rng(0).uniform(-0.3, 0.3, (9, 19, 2))
    init = History.from_values(values, problem.delay)
    return (problem, 0.5, 1.0, init, 2.0 * math.pi), {"steps_per_delay": 8}


def _homotopy_sweep(gamma_calls):
    """One RK4 sweep at mu = 0.5 of the seed-0 sunflower-homotopy problem
    (amplitude, period, delay, lambda and n_quad from the workload) over a
    batch of 19 random histories, as integrate's arguments.  Its sigma is
    wrapped so that gamma_calls gets the shape of every time it is read at."""
    params, _ = perfbench_module("workloads").make_inputs("sunflower-homotopy", 0)
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
    tracer = perfbench_module("spans").Tracer()
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
    tracer = perfbench_module("spans").Tracer()
    try:
        tracer.install()
        integrator.integrate(*args, **kwargs)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_callable_sweep_counts_one_f_call_and_no_g_call_per_stage():
    # The sunflower problem's phi is a Python callable, so its f is a leaf
    # of the compiled stage, one call of CoupledProblem.eval_f per stage:
    # a method the tracer counts.  Its g is x1 - y1 whatever phi is, and
    # carries that expression, so the stage inlines it: no eval_g call
    # (205 when g was a leaf too).
    args, kwargs = _homotopy_sweep([])
    tracer = _traced_sweep((*args[:2], 1.0, *args[3:]), kwargs)
    assert tracer.counts["problem.eval_f"] == 205
    assert tracer.counts["problem.eval_g"] == 0
    assert tracer.metrics()["problem.rhs_evals"] == 205


@pytest.mark.parametrize("workload", ["forced-branch", "sunflower-verify-index"])
def test_traced_config_sweep_makes_one_kernel_call_per_rk4_step(workload, monkeypatch):
    # Every field of the forced problem comes from the DSL, and so do the
    # sunflower preset's phi/sigma(t) and x1 - y1: each RK4 step is one
    # call of the kernel of the problem's compiled stage, which inlines
    # its four stage evaluations and its node slope, and makes no field
    # call; node 0's slope is one call more, step(-1, -2) (205 stage
    # calls, 4 per step and node 0's slope, when each stage was a call of
    # its own).  The state-free part is one call of the interval part per
    # delay interval, 7 for 51 steps of 8 per interval, and the part that
    # reads t alone one call on the sweep's grid.
    args, kwargs = _config_sweep(workload)
    calls = {"times": [], "interval": [], "step": []}

    def counted(name, fn):
        def call(*stage_args):
            calls[name].append(stage_args)
            return fn(*stage_args)
        return call

    compile_stage = problem_module.compile_stage

    def counted_stage(*a):
        stage = compile_stage(*a)

        def bind(*bind_args):
            return tuple(counted(name, fn) for name, fn in zip(("interval", "step"), stage.bind(*bind_args)))

        return stage._replace(times=counted("times", stage.times), bind=bind)

    monkeypatch.setattr(problem_module, "compile_stage", counted_stage)
    tracer = _traced_sweep(args, kwargs)
    assert calls["step"][0] == (-1, -2)
    assert [j for j, i in calls["step"]] == list(range(-1, 51))
    assert len(calls["interval"]) == 7
    assert len(calls["times"]) == 1
    assert tracer.counts["problem.eval_f"] == tracer.counts["problem.eval_g"] == 0


@pytest.mark.parametrize("workload, most, most_bytes", [
    ("forced-branch", 5, 2926), ("sunflower-verify-index", 4, 2305), ("sunflower-homotopy", 1, 3440)])
def test_cli_request_compiles_at_most_as_many_functions(workload, most, most_bytes, tmp_path, monkeypatch):
    # Each generated function is one compile of its source, about 0.1 to
    # 1 ms, and Python's compile costs about 0.36 us per source byte: the
    # forced problem's a, f and g, and its stage's time-only part and RK4
    # kernel; the preset's a and phi, and its stage's two; the homotopy's
    # kernel alone (its stage is leaves and x1 - y1).  5 and 4 also when
    # the stage compiled an interval part and a per-stage step.  3 018,
    # 2 397 and 3 884 bytes when the kernel held a fifth stage copy, node
    # 0's slope, as a closure of its own; 3 496 for the homotopy when its
    # averaged drive was an average_f call.  The kernel holds four stage
    # copies: k2, k3, k4 and the node slope, each writing its column 0
    # once, and at mu = 0.5 each calling the averaged drive's leaf, <1/sigma>
    # * phi(y, y) from the Lienard f's separated form, once (average_f
    # each, a quadrature per stage, before).
    workloads = perfbench_module("workloads")
    params, _ = workloads.make_inputs(workload, 0)
    config_path = workloads.prepare(params, tmp_path)
    sources = []

    def counted(source, *a, **kw):
        sources.append(source)
        return compile(source, *a, **kw)

    monkeypatch.setattr(expr, "compile", counted, raising=False)
    output, _, _ = workloads.solve(params, config_path, tmp_path)
    assert output == 0 if config_path else len(output) == 1
    assert 0 < len(sources) <= most
    assert sum(map(len, sources)) <= most_bytes
    kernels = [source for source in sources if source.startswith("def fn(lam, mu, T, at, nt, D, S, K, work,")]
    assert len(kernels) == 1
    assert len(re.findall(r"\bK\d?_0\[[^\]]*\] = ", kernels[0])) == 4
    assert kernels[0].count(".average_f(") == 0
    assert kernels[0].count(".__call__(") == (4 if workload == "sunflower-homotopy" else 0)


def _python_calls(args, kwargs):
    """The Python calls outside NumPy in one sweep, after a warm-up."""
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
    return calls


def test_sweep_makes_at_most_101_python_calls():
    # 6 383 when each field walked a closure tree per component, 2 895
    # with one generated function per field, two field calls per stage
    # and a scalar delayed read per step, 1 616 with one stage call per
    # stage that evaluated sin(yd1) and cos(t) each time, 1 043 when each
    # stage read the coefficient a at its own float time, 535 when a
    # lambda moved lam into place for each call of the step, 323 with a
    # Python blowup check per step and a _hermite_array read per interval,
    # 271 with one stage call per RK4 stage.  The warm-up sweep builds the
    # sweep plan that this one reads, as every sweep of a branch does.
    assert len(_python_calls(*_config_sweep("forced-branch"))) <= 101


def test_preset_sweep_makes_at_most_108_python_calls():
    # 3 362 when the sunflower preset ran every stage through lienard's
    # f_c and g_c by eval_batch, reading sigma at each float stage time,
    # 364 with a Python blowup check per step and a _hermite_array read
    # per interval, 320 with one stage call per RK4 stage.
    assert len(_python_calls(*_config_sweep("sunflower-verify-index"))) <= 108


def test_homotopy_sweep_makes_at_most_11361_python_calls():
    # 13 512 for the field-by-field right-hand side the leaves replaced,
    # 12 181 when the averaged drive was an average_f leaf, a quadrature
    # per stage: now each stage calls <1/sigma> * phi(y, y).
    assert len(_python_calls(*_homotopy_sweep([]))) <= 11361


def test_mu_half_config_sweep_makes_at_most_511_python_calls(monkeypatch):
    # The forced problem's f = sin(yd1) + 0.5*cos(t) separates: its mu < 1
    # stage reads w_f = sin(y1) + <0.5*cos(t)>, the mean one column of the
    # time part, so it compiles as many functions as the mu = 1 stage (the
    # time part and the kernel) and its kernel calls no leaf.  1 946 calls
    # when each stage called average_f.  Not yet the 2x of the mu = 1
    # sweep's 101: sin(y1) reads the stage's state, so each of the 205
    # stages calls expr._call and expr._fail_where for it.
    sources = []

    def counted(source, *a, **kw):
        sources.append(source)
        return compile(source, *a, **kw)

    monkeypatch.setattr(expr, "compile", counted, raising=False)
    args, kwargs = _config_sweep("forced-branch")
    counts = []
    for mu in (1.0, 0.5):
        problem = dataclasses.replace(args[0])  # a problem with no stage compiled yet
        before = len(sources)
        problem.stage_at(args[1], mu)
        counts.append(len(sources) - before)
    assert counts == [2, 2]
    assert ".owner." not in sources[-1]
    assert len(_python_calls((args[0], args[1], 0.5, *args[3:]), kwargs)) <= 511


def test_python_fold_sweep_makes_at_most_1720_python_calls():
    # As above, on 19 rows of the fold problem's NumPy g and constant h.
    problem = fold_problem("numpy")
    init = History.from_values(np.random.default_rng(0).uniform(-0.3, 0.3, (9, 19, 1)), problem.delay)
    assert len(_python_calls((problem, 0.3, 1.0, init, 2.0 * math.pi), {"steps_per_delay": 8})) <= 1720


def _traced_branch(problem, origin, lambda_max, cfg):
    """The tracer's layer metrics of one continue_branch call."""
    tracer = perfbench_module("spans").Tracer()
    try:
        tracer.install()
        continuation.continue_branch(problem, origin, lambda_max, cfg)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_forced_branch_builds_one_sweep_plan(monkeypatch):
    # Its 25 sweeps share one grid: T, 8 steps per delay and m = 8.
    built = []

    class Counted(integrator.SweepPlan):
        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(integrator, "SweepPlan", Counted)
    problem, origin, lambda_max, cfg = forced_branch_run(0)
    continuation.continue_branch(problem, origin, lambda_max, cfg)
    assert built == [(problem.period, 8, problem.delay, 8)]


def test_forced_branch_makes_25_integrations_in_11_attempts():
    # 43 when each of the 11 attempts ran its own first sweep (4 rounds
    # each, minus 1), then 33 once the sweeps of each attempt but the last
    # also answered the next attempt's first request.  25 since the
    # predictor is the cubic through the last four points: its requests
    # start closer, and an attempt takes one round fewer.
    metrics = _traced_branch(*forced_branch_run(0))
    assert metrics["integrator.integrations"] == 25
    assert metrics["continuation.attempts"] == metrics["poincare.newton_solves"] == 11
    assert metrics["continuation.points"] == 12


_FOLD_CFG = continuation.ContinuationConfig(m=8, steps_per_delay=8, h0=0.1, h_max=0.1, h_min=0.05)


def test_dsl_fold_run_makes_at_most_18_integrations():
    # 58 when a failing corrector halved its Newton step up to 10 times
    # per iterate; now a step that does not lower the residual fails the
    # attempt.  The look-ahead saves the first sweeps of the attempts at
    # 0.2, 0.3 and 0.4; four sweeps past the fold raise with the
    # look-ahead block in them and are rerun without it.
    metrics = _traced_branch(fold_problem("dsl"), [0.0], 1.0, _FOLD_CFG)
    assert metrics["integrator.integrations"] <= 18


def test_numpy_fold_run_makes_17_integrations():
    # A Python g, whose rows are not cheap, so no look-ahead: the
    # sequential tracer's count, 57 before the corrector took full
    # steps only.
    metrics = _traced_branch(fold_problem("numpy"), [0.0], 1.0, _FOLD_CFG)
    assert metrics["integrator.integrations"] == 17


@pytest.mark.parametrize("form", ["dsl", "numpy"])
def test_fold_run_at_default_steps_fails_fast(form):
    # The default steps halve h towards h_min = 1e-6 at the fold
    # lam* = 2/(3 sqrt 3) = 0.38490018.  Each failed attempt ends at its
    # first step that does not lower the residual: 774 (DSL) and 758
    # (NumPy) sweeps when each iterate could halve its step 10 times,
    # 123 and 121 now, with the same points.
    cfg = continuation.ContinuationConfig(m=8, steps_per_delay=8)
    tracer = perfbench_module("spans").Tracer()
    try:
        tracer.install()
        branch = continuation.continue_branch(fold_problem(form), [0.0], 1.0, cfg)
    finally:
        tracer.uninstall()
    assert branch.termination == continuation.TERMINATION_NEWTON
    assert len(branch.points) == 14
    assert branch.points[-1].lam == pytest.approx(0.38489976, abs=1e-8)
    assert tracer.metrics()["integrator.integrations"] <= 125


def test_averaged_drive_sweep_reads_gamma_and_builds_its_grid_once(monkeypatch):
    # The mu < 1 stage reads <1/gamma> on the quadrature grid once, when
    # it is built, and never per stage: 205 stages each read gamma on the
    # grid and built it anew, and then each called average_f on a grid
    # built once, whose gamma f_c kept for the next call.
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
    problem.stage_at(args[1], args[2])
    assert gamma_calls == [(problem.n_quad + 1, 1, 1)]
    gamma_calls.clear()
    integrator.integrate(*args, **kwargs)
    # The problem's a is gamma, which integrate reads once on all 103 stage
    # times (51 steps, 2 new times each, plus t = 0); f reads it once per
    # distinct float stage time.
    floats = gamma_calls.count(())
    assert 0 < floats <= 103 and gamma_calls.count((103,)) == 1
    assert len(gamma_calls) == floats + 1
    assert len(grids) <= 1


@pytest.mark.parametrize("workload", perfbench_module("workloads").WORKLOADS)
def test_workload_passes_its_check_at_full_size(workload, tmp_path):
    # The pins only the benchmark checked before: 12 branch points and the
    # final sup_norm of the forced branch, the sunflower index identity and
    # the homotopy's fixed point and its index.
    workloads = perfbench_module("workloads")
    params, expect = workloads.make_inputs(workload, 0)
    config_path = workloads.prepare(params, tmp_path)
    output, problem, _ = workloads.solve(params, config_path, tmp_path)
    assert workloads.check(workload, params, expect, problem, output, tmp_path) is None
