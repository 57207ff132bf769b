"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ddebranch import Box, CoupledProblem, FieldHandle, PeriodicFn1D, continuation, nu_field
from ddebranch.config import continuation_config, load_problem
from ddebranch.degree import _NEWTON_TRIALS, newton_steps
from ddebranch.errors import InvalidParameterError, TranslationUndefinedError, ZeroAverageError
from ddebranch.presets import SunflowerSetup, default_sunflower
from ddebranch.poincare import _newton_fixed_point
from ddebranch.problem import History, _hermite

TWO_PI = 2.0 * math.pi

SQRT3 = math.sqrt(3.0)


def periodic(fn, period=TWO_PI) -> PeriodicFn1D:
    return PeriodicFn1D(eval=fn, period=period)


def scalar_problem(g_scalar, a_fn=None, period=TWO_PI, delay=1.0, h=None) -> CoupledProblem:
    """A k = 0, s = 1 problem from a scalar g(y) and a coefficient a(t)."""
    if a_fn is None:
        a_fn = lambda t: -1.0 + 0.5 * math.sin(t)
    return CoupledProblem(
        dim_x=0,
        dim_y=1,
        g=lambda x, y: np.array([g_scalar(float(y[0]))]),
        a=periodic(a_fn, period),
        period=period,
        delay=delay,
        h=h,
    )


def history_at(history, theta):
    """A history's interpolant at theta (a float or an array) in [-r, 0],
    read by the package's Hermite evaluator: exact at the nodes."""
    return _hermite(history.grid, history.values, history.derivs, theta)


def sup_distance(h1, h2) -> float:
    """The largest difference of two histories' node values."""
    return float(np.max(np.abs(h1.values - h2.values)))


def lambdas(branch) -> np.ndarray:
    """The lambda of every point of a branch."""
    return np.array([p.lam for p in branch.points])


def unit_drive_problem(g) -> CoupledProblem:
    """y' = -g(y) + lam: k = 0, a = -1, h = 1, so the constant solutions
    solve g(y) = lam."""
    return CoupledProblem(
        dim_x=0, dim_y=1, g=g, h=lambda t, x, y, xd, yd: np.ones(1),
        a=PeriodicFn1D.constant(-1.0, TWO_PI), period=TWO_PI, delay=1.0, n_quad=16,
    )


#: unit_drive_problem(y - y^3) as a config problem block.
FOLD_PROBLEM = {"dims": {"k": 0, "s": 1}, "T": TWO_PI, "r": 1.0, "a": "-1",
                "g": ["y1 - y1^3"], "h": ["1"]}


def fold_problem(form: str) -> CoupledProblem:
    """unit_drive_problem with g = y - y^3, whose constant solutions fold
    at lam = 2/(3 sqrt 3), in one of three forms that fail differently
    where y^3 overflows: NumPy arithmetic ("numpy": inf, so the sweep blows
    up), Python floats ("float": OverflowError) or the DSL ("dsl":
    ExprEvalError)."""
    if form == "numpy":
        return unit_drive_problem(lambda x, y: y - y ** 3)
    if form == "float":
        return unit_drive_problem(lambda x, y: [float(y[0]) - float(y[0]) ** 3])
    return load_problem({"problem": FOLD_PROBLEM, "numerics": {"n_quad": 16}}).coupled


@pytest.fixture(scope="session")
def sunflower() -> SunflowerSetup:
    """The reference sunflower instance: a = -1 + 0.5 sin t, phi = sin(yd)."""
    return default_sunflower()


def fd_jacobian(F, u: np.ndarray, f0: np.ndarray, step: float) -> np.ndarray:
    """Forward-difference Jacobian of F at u, where f0 is the image of u:
    the reference for the quotient newton_lockstep forms.

    F maps a (B, n) array of points to the (B, n) array of their images, so
    the n points u + step * e_j go through F in one call; row j of the
    result becomes column j of the Jacobian.
    """
    return ((F(u + step * np.eye(u.size)) - f0) / step).T


def damped_newton(residual, jacobian, u0: np.ndarray, tol: float, max_iter: int,
                  trials: int = _NEWTON_TRIALS):
    """newton_steps on residual(u) = 0 from u0, with `trials` step lengths
    per iterate, driven one solve at a time by callables: the reference for
    the package's lockstep driver.

    Each request u is answered with r = residual(u) and then jacobian(u, r);
    a TranslationUndefinedError either raises is thrown into the solve.
    Returns what newton_steps returns: (u, residual_norm, J) on
    convergence, with J = jacobian(u, residual(u)) at the returned u, and
    None on failure.
    """
    steps = newton_steps(u0, tol, max_iter, trials)
    try:
        u = next(steps)
        while True:
            try:
                r = residual(u)
                J = jacobian(u, r)
            except TranslationUndefinedError as exc:
                u = steps.throw(exc)
            else:
                u = steps.send((r, J))
    except StopIteration as stop:
        return stop.value


def sequential_branch(problem, origin, lambda_max, cfg):
    """continue_branch without its look-ahead: each attempt is one
    _newton_fixed_point from the tracer's own predictor (continuation.
    _predict through the last kept points) with its corrector's trials,
    answered by its own sweeps alone.  The reference the look-ahead tracer
    must match bit for bit."""
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    zeros = continuation._trivial_zeros(problem, origin, cfg.domain)

    def point(lam, values, residual):
        hist = History.from_values(values.reshape(cfg.m + 1, problem.dim), problem.delay)
        return continuation.BranchPoint(
            lam=lam, history=hist, residual=residual, sup_norm=float(np.max(np.abs(values))),
            min_dist_to_trivial=continuation._min_dist_to_trivial(hist.values, zeros))

    u0 = History.constant(origin, problem.delay, m=cfg.m).values.ravel()
    points = [point(0.0, u0, 0.0)]
    lam, h, lams, us = 0.0, cfg.h0, [0.0], [u0]
    termination = continuation.TERMINATION_MAX_POINTS
    while len(points) < cfg.max_points:
        lam_next = min(lam + h, lambda_max)
        keep = continuation._PREDICTOR_POINTS
        u_pred = continuation._predict(lams[-keep:], us[-keep:], lam_next)
        out = _newton_fixed_point(problem, lam_next, 1.0, u_pred, cfg,
                                  trials=continuation._CORRECTOR_TRIALS)
        if out is None:
            if h > cfg.h_min:
                h = max(0.5 * h, cfg.h_min)
                continue
            termination = continuation.TERMINATION_NEWTON
            break
        new = point(lam_next, out[0], out[1])
        if new.sup_norm > continuation._SUP_NORM_BLOWUP:
            termination = continuation.TERMINATION_BLOWUP
            break
        if cfg.domain is not None and not cfg.domain.contains(new.history.values):
            termination = continuation.TERMINATION_LEFT_DOMAIN
            break
        lam = lam_next
        lams.append(lam)
        us.append(out[0])
        points.append(new)
        if lam >= lambda_max - 1e-14:
            termination = continuation.TERMINATION_LAMBDA_MAX
            break
        h = min(2.0 * h, cfg.h_max, lambda_max - lam)
    return continuation.Branch(points=points, origin=origin, termination=termination)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    """A fresh copy of the benchmark's module perfbench/<name>.py."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def forced_branch_run(seed):
    """The problem, origin, lambda_max and ContinuationConfig of the
    benchmark's forced-branch workload at seed, as its CLI call loads them."""
    params, _ = perfbench_module("workloads").make_inputs("forced-branch", seed)
    config = params["config"]
    block = config["branch"]
    return (load_problem(config).coupled, block["origin"], block["lambda_max"],
            continuation_config(config))


def box(lower, upper) -> Box:
    return Box(lower=np.atleast_1d(lower), upper=np.atleast_1d(upper))


# Planar fields with hyperbolic zeros, each with a box avoiding boundary
# zeros and its known degree.  Used for cross-method agreement and the
# degree acceptance checks.
SUITE_FIELDS = [
    ("identity", lambda z: z, box([-1, -1], [1, 1]), 1),
    ("neg-identity", lambda z: -z, box([-1, -1], [1, 1]), 1),
    ("swap", lambda z: np.array([z[1], z[0]]), box([-1, -1], [1, 1]), -1),
    ("mirror", lambda z: np.array([z[0], -z[1]]), box([-1, -1], [1, 1]), -1),
    ("averaged-pq", lambda z: np.array([z[1] / SQRT3, z[0] - z[1]]), box([-1, -1], [1, 1]), -1),
    ("averaged-pq-flip", lambda z: np.array([-z[1] / SQRT3, z[0] - z[1]]), box([-1, -1], [1, 1]), 1),
    ("sine-coupled", lambda z: np.array([math.sin(z[1]) / SQRT3, z[0] - z[1]]), box([-1, -1], [1, 1]), -1),
    ("pitchfork-q", lambda z: np.array([z[0], z[1] - z[1] ** 3]), box([-1.2, -1.2], [1.2, 1.2]), -1),
    ("pitchfork-p", lambda z: np.array([z[0] ** 3 - z[0], z[1]]), box([-1.2, -1.2], [1.2, 1.2]), 1),
    ("shear", lambda z: np.array([z[0] + z[1], z[0] - z[1]]), box([-1, -1], [1, 1]), -1),
    ("stretch", lambda z: np.array([2.0 * z[0] + z[1], z[1]]), box([-1, -1], [1, 1]), 1),
    ("hyperbola", lambda z: np.array([z[0] ** 2 - z[1] ** 2 - 0.5, 2.0 * z[0] * z[1]]), box([-1.2, -1.2], [1.2, 1.2]), 2),
]


def branch_json(branch) -> str:
    """A branch as the JSON text of its to_json_dict: two branches are the
    same bits where their texts are equal."""
    return json.dumps(branch.to_json_dict(), allow_nan=False)


def v_lambda_field(problem: CoupledProblem, lam: float) -> FieldHandle:
    """The scaled field v_lam = ((lam/<a>) * w_f, lam * g) of the degree
    cross-checks: nu's values times lam/<a> (w_f) and lam (g) per component."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {lam}")
    if abs(problem.abar) < 1e-12:
        raise ZeroAverageError("v_lambda requires <a> != 0")
    nu = nu_field(problem)
    scale = np.repeat([lam / problem.abar, lam], [problem.dim_x, problem.dim_y])
    return FieldHandle(dim=problem.dim, eval=lambda z: nu.eval(z) * scale)
