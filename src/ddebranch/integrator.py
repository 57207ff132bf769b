"""Fixed-step RK4 integration of the coupled delay system by the method of
steps, with cubic Hermite dense output.

The step is h = r / steps_per_delay, so every delayed read lands inside an
already-completed segment (or the initial history) and every multiple of r
is a segment boundary, keeping the derivative discontinuities of the
solution aligned with segment joints.  Delayed reads and dense output use
the package's one Hermite evaluator (problem._hermite) and its node snap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BlowupError, DomainEscapeError, InvalidParameterError
from .fields import make_wf
from .problem import Box, CoupledProblem, History, _hermite

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
        return self._dense(t, False)

    def deriv(self, t):
        """Time derivative of the interpolant at t; one-sided (the history's
        own slopes) for t <= 0."""
        return self._dense(t, True)

    def _dense(self, t, deriv):
        ts = np.asarray(t, dtype=float)
        if np.any(ts < -self.init.delay - 1e-12):
            raise InvalidParameterError(f"time {float(ts.min())} precedes the history interval")
        out = np.empty(ts.shape + self.states.shape[1:])
        before = ts <= 0.0
        if before.any():
            out[before] = _hermite(self.init.grid, self.init.values, self.init.derivs, ts[before], deriv)
        if not before.all():
            out[~before] = _hermite(self.times, self.states, self.slopes, ts[~before], deriv)
        return out

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


def _make_rhs(problem: CoupledProblem, lam: float, mu: float, wf=None) -> Callable:
    """The coupled right-hand side on a (B, d) batch of states sharing t."""
    k = problem.dim_x
    a = problem.a
    abar = problem.abar
    if mu < 1.0 and k > 0 and wf is None:
        wf = make_wf(problem)
    # RK4 stages come in pairs at one time (k2 and k3, k4 and the node
    # slope), so a is evaluated once per distinct time.
    last = [None, 0.0]

    def rhs(t, state, delayed):
        x, y = state[:, :k], state[:, k:]
        if t != last[0]:
            last[0], last[1] = t, float(a(t))
        at = last[1]
        dy = at * problem.eval_g(x, y)
        if lam != 0.0:
            xd, yd = delayed[:, :k], delayed[:, k:]
            if mu >= 1.0:
                dx = lam * problem.eval_f(t, x, y, xd, yd)
                if problem.h is not None:
                    dy = dy + lam * problem.eval_h(t, x, y, xd, yd)
            else:
                if k > 0:
                    w = np.array([wf(p, q) for p, q in zip(x, y)])
                    drive = (1.0 - mu) * (at / abar) * w
                else:
                    drive = np.zeros((len(state), 0))
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
    wf=None,
) -> Trajectory:
    """Integrate the coupled system forward from a history by RK4 steps.

    Fixed step h = r / steps_per_delay; the final step is shortened to land
    exactly on t_end.  When mu < 1 the averaged drive w_f enters the
    x-equation; pass a memoized wf (see fields.make_wf) to share its cache
    across repeated integrations.

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
    rhs = _make_rhs(problem, lam, mu, wf=wf)

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

    def past(tau: float) -> np.ndarray:
        if tau <= 0.0:
            return batch.eval(tau)
        return _hermite(node_times, states, slopes, tau)

    state = batch.terminal()
    _check_state(0.0, state, domain)
    states[0] = state
    slopes[0] = rhs(0.0, state, batch.eval(-r))

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


def _flow(problem: CoupledProblem, point, t: float, coeff, n_steps: int) -> np.ndarray:
    k = problem.dim_x
    state = np.atleast_1d(np.asarray(point, dtype=float)).copy()
    if t == 0.0:
        return state
    dt = t / n_steps

    def rhs(tt, z):
        x, y = z[:k], z[k:]
        return np.concatenate([np.zeros(k), coeff(tt) * problem.eval_g(x, y)])

    tt = 0.0
    for _ in range(n_steps):
        k1 = rhs(tt, state)
        k2 = rhs(tt + 0.5 * dt, state + 0.5 * dt * k1)
        k3 = rhs(tt + 0.5 * dt, state + 0.5 * dt * k2)
        k4 = rhs(tt + dt, state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tt += dt
        _check_state(tt, state, None)
    return state


def flow_unperturbed(problem: CoupledProblem, point, t: float, n_steps: int = 2048) -> np.ndarray:
    """Flow of x' = 0, y' = a(t) g(x, y) from a constant initial point."""
    return _flow(problem, point, t, lambda tt: float(problem.a(tt)), n_steps)


def flow_averaged(problem: CoupledProblem, point, t: float, n_steps: int = 2048) -> np.ndarray:
    """Flow of x' = 0, y' = <a> g(x, y); coincides with flow_unperturbed at t = T."""
    abar = problem.abar
    return _flow(problem, point, t, lambda tt: abar, n_steps)
