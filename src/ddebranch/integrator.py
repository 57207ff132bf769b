"""Fixed-step RK4 integration of the coupled delay system by the method of
steps, with cubic Hermite dense output.

The step is h = r / steps_per_delay, so every delayed read lands inside an
already-completed segment (or the initial history) and every multiple of r
is a segment boundary, keeping the derivative discontinuities of the
solution aligned with segment joints.  Delayed reads and dense output use
the package's one Hermite evaluator (problem._hermite) and its node snap.

integrate holds the package's one RK4 loop.  The delay-free flows
(flow_unperturbed, flow_averaged) are integrate at lambda = 0 from the
constant history at each point, and take a batch of points as one sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BlowupError, DomainEscapeError, InvalidParameterError
from .fields import make_wf
from .problem import (Box, CoupledProblem, History, PeriodicFn1D, _hermite, _hermite_array,
                      _hermite_deriv, _hermite_eval)

BLOWUP_THRESHOLD = 1e9


@dataclass(frozen=True)
class Trajectory:
    """Dense piecewise-cubic solution on [-r, t_end].

    On [-r, 0] evaluation delegates to the initial history, reproducing its
    interpolant exactly; on [0, t_end] nodes carry the RK4 states and the
    right-hand-side slopes, interpolated by cubic Hermite polynomials.
    states and slopes have shape (n_nodes, d), or (n_nodes, B, d) when init
    is a batch of B histories.
    """

    init: History
    times: np.ndarray
    states: np.ndarray
    slopes: np.ndarray
    dim_x: int

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def eval(self, t):
        """Solution value at time t (scalar or array), t in [-r, t_end]."""
        return self._dense(t, (_hermite_eval,))[0]

    def deriv(self, t):
        """Time derivative of the interpolant at t; one-sided (the history's
        own slopes) for t <= 0."""
        return self._dense(t, (_hermite_deriv,))[0]

    def eval_with_deriv(self, t):
        """(eval(t), deriv(t)), read from one segment lookup."""
        return self._dense(t, (_hermite_eval, _hermite_deriv))

    def _dense(self, t, kernels):
        ts = np.asarray(t, dtype=float)
        if np.any(ts < -self.init.delay - 1e-12):
            raise InvalidParameterError(f"time {float(ts.min())} precedes the history interval")
        outs = [np.empty(ts.shape + self.states.shape[1:]) for _ in kernels]
        before = ts <= 0.0
        pieces = ((before, self.init.grid, self.init.values, self.init.derivs),
                  (~before, self.times, self.states, self.slopes))
        for mask, grid, values, derivs in pieces:
            if mask.any():
                for out, part in zip(outs, _hermite_array(grid, values, derivs, ts[mask], kernels)):
                    out[mask] = part
        return outs

    def to_csv(self, path, resolution: int = 400):
        """Write t, x1..xk, y1..ys samples at the requested resolution."""
        k = self.dim_x
        s = self.dim - k
        header = ["t"] + [f"x{i+1}" for i in range(k)] + [f"y{j+1}" for j in range(s)]
        ts = np.linspace(-self.init.delay, self.t_end, resolution + 1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, row in zip(ts, self.eval(ts)):
                writer.writerow([f"{t:.12g}"] + [f"{v:.15g}" for v in row])


def _check_state(t: float, state: np.ndarray, domain: Optional[Box]):
    """Blowup and domain checks on one state, or on every row of a batch."""
    norm = float(np.abs(state).max()) if state.size else 0.0
    if not norm <= BLOWUP_THRESHOLD:  # also catches inf and nan
        raise BlowupError(t, norm, BLOWUP_THRESHOLD)
    if domain is not None:
        rows = np.atleast_2d(state)
        outside = ~np.all((rows >= domain.lower) & (rows <= domain.upper), axis=1)
        if outside.any():
            raise DomainEscapeError(t, rows[outside][0])


def _make_rhs(problem: CoupledProblem, lam: float, mu: float) -> Callable:
    """The coupled right-hand side on a (B, d) batch of states sharing t.

    t is a Python float, so the coefficient a (a PeriodicFn1D, which
    remembers its last float time) is evaluated once per distinct time
    although RK4 stages come in pairs at one time (k2 and k3, k4 and the
    node slope)."""
    k = problem.dim_x
    a = problem.a
    abar = problem.abar
    wf = make_wf(problem) if mu < 1.0 else None

    def rhs(t, state, delayed):
        x, y = state[:, :k], state[:, k:]
        at = float(a(t))
        dy = at * problem.eval_g(x, y)
        if lam != 0.0:
            xd, yd = delayed[:, :k], delayed[:, k:]
            if mu >= 1.0:
                dx = lam * problem.eval_f(t, x, y, xd, yd)
                if problem.h is not None:
                    dy = dy + lam * problem.eval_h(t, x, y, xd, yd)
            else:
                drive = (1.0 - mu) * (at / abar) * wf(x, y)
                if mu > 0.0:
                    drive = mu * problem.eval_f(t, x, y, xd, yd) + drive
                    if problem.h is not None:
                        dy = dy + lam * mu * problem.eval_h(t, x, y, xd, yd)
                dx = lam * drive
        else:
            dx = np.zeros((len(state), k))
        return np.concatenate([dx, dy], axis=1)

    return rhs


def integrate(
    problem: CoupledProblem,
    lam: float,
    mu: float,
    init: History,
    t_end: float,
    steps_per_delay: int = 32,
    domain: Optional[Box] = None,
) -> Trajectory:
    """Integrate the coupled system forward from a history by RK4 steps.

    Fixed step h = r / steps_per_delay; the final step is shortened to land
    exactly on t_end.  When mu < 1 the averaged drive w_f (fields.make_wf)
    enters the x-equation, evaluated for the whole batch in one call per
    stage.

    init may be a batch of B histories (values of shape (m+1, B, d)): the
    batch is integrated in one sweep as a (B, d) state array, each row
    exactly as it would be alone, and a blowup or domain exit of any row
    ends the sweep.  One history is the batch of one.
    """
    if lam < 0:
        raise InvalidParameterError(f"lambda must be >= 0, got {lam}")
    if not 0.0 <= mu <= 1.0:
        raise InvalidParameterError(f"mu must be in [0, 1], got {mu}")
    if t_end <= 0:
        raise InvalidParameterError(f"t_end must be positive, got {t_end}")
    if steps_per_delay < 8:
        raise InvalidParameterError(f"steps_per_delay must be >= 8, got {steps_per_delay}")
    r = problem.delay
    if abs(init.delay - r) > 1e-12 * max(1.0, r):
        raise InvalidParameterError(
            f"history covers [-{init.delay}, 0] but the problem delay is {r}"
        )
    single = init.values.ndim == 2
    batch = History(init.delay, init.values[:, None], init.derivs[:, None]) if single else init
    h = r / steps_per_delay
    rhs = _make_rhs(problem, lam, mu)

    n_full = int(np.floor(t_end / h + 1e-9))
    partial = t_end - n_full * h
    has_partial = partial > 1e-12 * max(1.0, t_end)

    n_nodes = n_full + 1 + (1 if has_partial else 0)
    times = np.empty(n_nodes)
    times[: n_full + 1] = np.arange(n_full + 1) * h
    if has_partial:
        times[-1] = t_end
    shape = (n_nodes,) + batch.values.shape[1:]
    states = np.empty(shape)
    slopes = np.empty(shape)

    # Python floats: fields see a float time, the same value as the node.
    node_times = times.tolist()

    def past(tau: float) -> Optional[np.ndarray]:
        if lam == 0.0:  # the right-hand side reads no delayed value
            return None
        if tau <= 0.0:
            return batch.eval(tau)
        return _hermite(node_times, states, slopes, tau)

    state = batch.terminal()
    _check_state(0.0, state, domain)
    states[0] = state
    slopes[0] = rhs(0.0, state, past(-r))

    for j in range(n_nodes - 1):
        t0, t1 = node_times[j], node_times[j + 1]
        dt = t1 - t0  # exact (Sterbenz), so t0 + dt is t1
        y0 = states[j]
        k1 = slopes[j]
        delayed_half = past(t0 + 0.5 * dt - r)
        k2 = rhs(t0 + 0.5 * dt, y0 + 0.5 * dt * k1, delayed_half)
        k3 = rhs(t0 + 0.5 * dt, y0 + 0.5 * dt * k2, delayed_half)
        delayed_end = past(t1 - r)
        k4 = rhs(t1, y0 + dt * k3, delayed_end)
        y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_state(t1, y1, domain)
        states[j + 1] = y1
        slopes[j + 1] = rhs(t1, y1, delayed_end)

    if single:
        states, slopes = states[:, 0], slopes[:, 0]
    return Trajectory(init=init, times=times, states=states, slopes=slopes, dim_x=problem.dim_x)


def flow_unperturbed(problem: CoupledProblem, point, t: float, n_steps: int = 2048) -> np.ndarray:
    """Flow of x' = 0, y' = a(t) g(x, y) from a point (d,) or from each row
    of a batch (N, d): integrate at lambda = 0 from the constant history at
    each point, all rows in one sweep, with a step of at most t / n_steps."""
    if n_steps < 1:
        raise InvalidParameterError(f"n_steps must be >= 1, got {n_steps}")
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    points = np.atleast_1d(np.asarray(point, dtype=float))
    if t == 0.0:
        return points.copy()
    r = problem.delay
    # At lambda = 0 no delayed value enters the right-hand side, so the
    # coarsest history grid (m = 8) serves.
    values = np.broadcast_to(points, (9,) + points.shape).copy()
    init = History(delay=r, values=values, derivs=np.zeros_like(values))
    steps_per_delay = max(8, math.ceil(n_steps * r / t))
    return integrate(problem, 0.0, 1.0, init, t, steps_per_delay).states[-1]


def flow_averaged(problem: CoupledProblem, point, t: float, n_steps: int = 2048) -> np.ndarray:
    """Flow of x' = 0, y' = <a> g(x, y): flow_unperturbed on the problem
    with a replaced by the constant <a>.  The two coincide at t = T."""
    averaged = replace(problem, a=PeriodicFn1D.constant(problem.abar, problem.period))
    return flow_unperturbed(averaged, point, t, n_steps)
