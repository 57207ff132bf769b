"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ddebranch import Box, CoupledProblem, PeriodicFn1D
from ddebranch.degree import newton_steps
from ddebranch.errors import TranslationUndefinedError
from ddebranch.presets import SunflowerSetup, default_sunflower

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


@pytest.fixture(scope="session")
def sunflower() -> SunflowerSetup:
    """The reference sunflower instance: a = -1 + 0.5 sin t, phi = sin(yd)."""
    return default_sunflower()


def damped_newton(residual, jacobian, u0: np.ndarray, tol: float, max_iter: int):
    """newton_steps on residual(u) = 0 from u0, driven one solve at a time
    by callables: the reference for the package's lockstep driver.

    Each request u is answered with r = residual(u) and then jacobian(u, r);
    a TranslationUndefinedError either raises is thrown into the solve.
    Returns what newton_steps returns: (u, residual_norm, J) on
    convergence, with J = jacobian(u, residual(u)) at the returned u, and
    None on failure.
    """
    steps = newton_steps(u0, tol, max_iter)
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
