"""Averaged perturbation field and the finite-dimensional fields built on it.

The zeros and Brouwer degree of these fields govern every existence
statement verified by the rest of the package:

    w_f(p, q) = (1/T) * integral_0^T f(t, p, q, p, q) dt
    nu(p, q)  = (w_f(p, q), g(p, q))
    v_lam     = ((lam/<a>) * w_f, lam * g)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ZeroAverageError
from .problem import CoupledProblem, simpson_mean

#: Cache size for the averaged-drive memo used inside the mu-homotopy.
_WF_CACHE_MAX = 4096


@dataclass(frozen=True)
class FieldHandle:
    """An evaluable vector field R^n -> R^n."""

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return np.atleast_1d(np.asarray(self.eval(z), dtype=float))

    def negated(self) -> "FieldHandle":
        return FieldHandle(
            dim=self.dim,
            eval=lambda z, _e=self.eval: -np.atleast_1d(np.asarray(_e(z), dtype=float)),
            name=f"-({self.name})" if self.name else "",
        )


def average_f(problem: CoupledProblem, p, q, n_quad: int = None) -> np.ndarray:
    """Componentwise Simpson average of t -> f(t, p, q, p, q) over one period."""
    if problem.dim_x == 0 or problem.f is None:
        return np.zeros(0)
    n = n_quad if n_quad is not None else problem.n_quad
    ts = np.linspace(0.0, problem.period, n + 1)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    vals = np.empty((n + 1, problem.dim_x))
    for i, t in enumerate(ts):
        vals[i] = problem.eval_f(t, p, q, p, q)
    return simpson_mean(vals)


def make_wf(problem: CoupledProblem, n_quad: int = None):
    """Memoized w_f evaluator for use inside RK4 inner loops.

    Keys round (p, q) to 1e-12 so repeated stage evaluations at essentially
    identical states hit the cache; the cache is evicted FIFO at 4096 entries.
    """
    cache = {}

    def wf(p, q):
        key = (
            tuple(np.round(np.atleast_1d(p), 12)),
            tuple(np.round(np.atleast_1d(q), 12)),
        )
        hit = cache.get(key)
        if hit is not None:
            return hit
        val = average_f(problem, p, q, n_quad)
        if len(cache) >= _WF_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = val
        return val

    return wf


def nu_field(problem: CoupledProblem, n_quad: int = None) -> FieldHandle:
    """The field nu(p, q) = (w_f(p, q), g(p, q)) on R^(k+s)."""
    k = problem.dim_x

    def ev(z):
        p, q = z[:k], z[k:]
        return np.concatenate([average_f(problem, p, q, n_quad), problem.eval_g(p, q)])

    return FieldHandle(dim=problem.dim, eval=ev, name="nu")


def v_lambda_field(problem: CoupledProblem, lam: float, n_quad: int = None) -> FieldHandle:
    """The scaled field ((lam/<a>) * w_f, lam * g), used for degree cross-checks."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if abs(problem.abar) < 1e-12:
        raise ZeroAverageError("v_lambda requires <a> != 0")
    k = problem.dim_x
    c = lam / problem.abar

    def ev(z):
        p, q = z[:k], z[k:]
        return np.concatenate(
            [c * average_f(problem, p, q, n_quad), lam * problem.eval_g(p, q)]
        )

    return FieldHandle(dim=problem.dim, eval=ev, name=f"v_lambda({lam})")
