"""Averaged perturbation field and the finite-dimensional fields built on it.

The zeros and Brouwer degree of these fields govern every existence
statement verified by the rest of the package:

    w_f(p, q) = (1/T) * integral_0^T f(t, p, q, p, q) dt
    nu(p, q)  = (w_f(p, q), g(p, q))
    v_lam     = ((lam/<a>) * w_f, lam * g)

Every average takes problem.n_quad Simpson cells: the problem is the one
home of that setting, and dataclasses.replace(problem, n_quad=...) changes
it.  w_f takes one f call on n_quad + 1 times against a batch of points:
cheap for an f that takes a batch, (n_quad + 1) calls per point for one
that the problem calls row by row.  The quadrature times and Simpson
weights are built once per (period, n_quad) and shared by every call; the
mu < 1 right-hand side makes one w_f call per RK4 stage through make_wf.
nu and v_lam (nu scaled per component) are FieldHandles, so a batch of N
points costs one w_f and one g call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, ZeroAverageError
from .problem import CoupledProblem, quadrature_times, simpson_mean


@dataclass(frozen=True)
class FieldHandle:
    """A vector field R^n -> R^n, evaluated a batch of points at a time.

    eval takes an (N, n) array of points and returns the (N, n) array of
    their values.  Calling the handle on such an array makes one eval call;
    calling it on one point of shape (n,) evaluates the batch of one and
    returns shape (n,).  An eval whose result has another shape than its
    input (a per-point eval handed a batch) raises InvalidParameterError.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        points = np.atleast_2d(z)
        out = np.asarray(self.eval(points), dtype=float)
        if out.shape != points.shape:
            raise InvalidParameterError(
                f"field eval returned shape {out.shape} for points of shape {points.shape}; "
                "a FieldHandle eval maps (N, n) points to (N, n) values"
            )
        return out if z.ndim > 1 else out[0]

    def negated(self) -> "FieldHandle":
        return FieldHandle(
            dim=self.dim,
            eval=lambda z, _e=self.eval: -np.asarray(_e(z), dtype=float),
        )


def average_f(problem: CoupledProblem, p, q) -> np.ndarray:
    """Componentwise Simpson average of t -> f(t, p, q, p, q) over one period.

    p and q are one point, shapes (k,) and (s,), or a batch of B points,
    shapes (B, k) and (B, s); the result has shape (k,) or (B, k).  f is
    called once, on the quadrature times as a column against the batch.
    The times and the Simpson weights are built once per (period,
    problem.n_quad) (problem.quadrature_times).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if problem.dim_x == 0 or problem.f is None:
        return np.zeros(p.shape[:-1] + (0,))
    n = problem.n_quad
    ts = quadrature_times(problem.period, n).reshape((n + 1,) + (1,) * (p.ndim - 1))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return simpson_mean(problem.eval_f(ts, p, q, p, q))


def make_wf(problem: CoupledProblem):
    """The averaged drive (p, q) -> w_f(p, q) of the mu-homotopy, on one
    point or a batch (see average_f); it keeps no state."""
    return lambda p, q: average_f(problem, p, q)


def nu_field(problem: CoupledProblem) -> FieldHandle:
    """The field nu(p, q) = (w_f(p, q), g(p, q)) on R^(k+s)."""
    k = problem.dim_x

    def ev(z):
        p, q = z[..., :k], z[..., k:]
        return np.concatenate([average_f(problem, p, q), problem.eval_g(p, q)], axis=-1)

    return FieldHandle(dim=problem.dim, eval=ev)


def v_lambda_field(problem: CoupledProblem, lam: float) -> FieldHandle:
    """The scaled field ((lam/<a>) * w_f, lam * g) of the degree
    cross-checks: nu's values times lam/<a> (w_f) and lam (g) per component."""
    if lam <= 0:
        raise InvalidParameterError(f"lambda must be positive, got {lam}")
    if abs(problem.abar) < 1e-12:
        raise ZeroAverageError("v_lambda requires <a> != 0")
    nu = nu_field(problem)
    scale = np.repeat([lam / problem.abar, lam], [problem.dim_x, problem.dim_y])
    return FieldHandle(dim=problem.dim, eval=lambda z: nu.eval(z) * scale)
