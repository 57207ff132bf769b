"""Fixed-step RK4 integration of the coupled delay system by the method of
steps, with cubic Hermite dense output.

The step is h = r / steps_per_delay, so every delayed read lands inside an
already-completed segment (or the initial history) and every multiple of r
is a segment boundary, keeping the derivative discontinuities of the
solution aligned with segment joints.  So the delayed reads of a whole
delay interval lie on the history or on finished nodes, and are read in
one call at its start; the part of a DSL right-hand side that reads no
current state is evaluated on them there, once per interval
(problem.compile_stage).  Delayed reads and dense output use the package's
one Hermite evaluator (problem._hermite_array) and its node snap.

integrate holds the package's one RK4 loop.  The delay-free flows
(flow_unperturbed, flow_averaged) are integrate at lambda = 0 from the
constant history at each point, and take a batch of points as one sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BlowupError, InvalidParameterError
from .fields import make_wf
from .problem import CoupledProblem, History, PeriodicFn1D, _hermite_array, _sample_at

BLOWUP_THRESHOLD = 1e9
#: The flows take a step of at most t / FLOW_STEPS.
FLOW_STEPS = 2048


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
        """Solution value at time t (scalar or array), t in [-r, t_end];
        a time outside it raises InvalidParameterError."""
        ts = np.asarray(t, dtype=float)
        if np.any(ts < -self.init.delay - 1e-12):
            raise InvalidParameterError(f"time {float(ts.min())} precedes the history interval")
        if np.any(ts > self.t_end + 1e-12 * max(1.0, self.t_end)):
            raise InvalidParameterError(f"time {float(ts.max())} is past the trajectory's end {self.t_end}")
        out = np.empty(ts.shape + self.states.shape[1:])
        before, init = ts <= 0.0, self.init
        if before.any():
            out[before] = _hermite_array(init.grid, init.values, init.derivs, ts[before])
        if not before.all():
            out[~before] = _hermite_array(self.times, self.states, self.slopes, ts[~before])
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


def _check_state(t: float, state: np.ndarray):
    """Blowup check on one state, or on every row of a batch."""
    norm = float(np.abs(state).max()) if state.size else 0.0
    if not norm <= BLOWUP_THRESHOLD:  # also catches inf and nan
        raise BlowupError(t, norm, BLOWUP_THRESHOLD)


def _make_rhs(problem: CoupledProblem, lam: float, mu: float):
    """(prepare, rhs): rhs(t, at, state, delayed) is the coupled
    right-hand side on a (B, d) batch of states sharing t, at the value
    at of the coefficient a there, and prepare(ts, block), when not None,
    turns a delay interval's (R, B, d) block of delayed states at its
    (R, 1) stage times into the block whose rows rhs reads.

    At lambda != 0 and mu = 1, a problem whose fields all come from the DSL
    runs its generated stage (CoupledProblem.stage): prepare evaluates the
    state-free subtrees of the whole interval in one call, and each RK4
    stage is one call of the step, both with lam bound by partial.
    Otherwise prepare is None and the fields are evaluated one by one
    through eval_batch: the only path for Python callables, for mu < 1
    and for lambda = 0.  Neither reads a: integrate reads it once."""
    stage = problem.stage if lam != 0.0 and mu >= 1.0 else None
    if stage is not None:
        interval, step = stage
        lam = float(lam)
        return None if interval is None else partial(interval, lam), partial(step, lam)
    k = problem.dim_x
    abar = problem.abar
    wf = make_wf(problem) if mu < 1.0 else None

    def rhs(t, at, state, delayed):
        x, y = state[:, :k], state[:, k:]
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

    return None, rhs


def integrate(
    problem: CoupledProblem,
    lam: float,
    mu: float,
    init: History,
    t_end: float,
    steps_per_delay: int,
) -> Trajectory:
    """Integrate the coupled system forward from a history by RK4 steps.

    Fixed step h = r / steps_per_delay; the final step is shortened to land
    exactly on t_end.  When mu < 1 the averaged drive w_f (fields.make_wf)
    enters the x-equation, evaluated for the whole batch in one call per
    stage.

    init may be a batch of B histories (values of shape (m+1, B, d)): the
    batch is integrated in one sweep as a (B, d) state array, each row
    exactly as it would be alone, and a blowup of any row ends the sweep.
    One history is the batch of one.

    The delayed values of steps j .. j + steps_per_delay - 1 are read in
    one _hermite_array call at every j that is a multiple of
    steps_per_delay, and the right-hand side's state-free part is
    evaluated on them there, once per delay interval (_make_rhs's
    prepare), at the stage times t0 + 0.5*dt and t1 of the loop's own
    arithmetic.  So a domain error of that part is raised at the start of
    its interval.  The coefficient a, which reads t alone, is read once
    per sweep, in one _sample_at call on every stage time, and each stage
    gets its value as a Python float.  The sweep runs under one
    np.errstate: NumPy's floating-point warnings are silenced, and a state
    that is inf, nan or above BLOWUP_THRESHOLD raises BlowupError.
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
    batch = History(init.delay, init.values[:, None]) if single else init
    h = r / steps_per_delay
    prepare, rhs = _make_rhs(problem, lam, mu)

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
    # The stage times: 0 for the slope at node 0, then the midpoint and the
    # end of step j at stage_t[2j + 1] and stage_t[2j + 2].  a is read at
    # them, and the delayed values at tau = stage_t - r.
    n_steps = n_nodes - 1
    stage_t = np.empty(2 * n_steps + 1)
    stage_t[0::2] = times
    stage_t[1::2] = times[:-1] + 0.5 * np.diff(times)
    tau = stage_t - r
    no_reads = [None] * len(stage_t)  # as many rows as the sweep reads

    def read(j: int):
        """The rows rhs reads at stage_t[2j : 2j + 2 steps_per_delay + 1]:
        the delayed values there, read from the history at j = 0 and from
        nodes 0 .. j after, prepared when the right-hand side prepares."""
        if lam == 0.0:  # the right-hand side reads no delayed value
            return no_reads
        rows = slice(2 * j, 2 * (j + steps_per_delay) + 1)
        nodes = (batch.grid, batch.values, batch.derivs) if j == 0 else (times[:j + 1], states[:j + 1], slopes[:j + 1])
        block = _hermite_array(*nodes, tau[rows])
        return block if prepare is None else prepare(stage_t[rows, None], block)

    with np.errstate(all="ignore"):
        at = _sample_at(problem.a, stage_t).tolist()  # a at every stage time
        state = batch.terminal()
        _check_state(0.0, state)
        states[0] = state
        delayed = read(0)
        slopes[0] = rhs(0.0, at[0], state, delayed[0])
        for j in range(n_steps):
            i = 2 * (j % steps_per_delay)
            if i == 0 and j:
                delayed = read(j)
            t0, t1 = node_times[j], node_times[j + 1]
            dt = t1 - t0  # exact (Sterbenz), so t0 + dt is t1
            a_half, a_end = at[2 * j + 1], at[2 * j + 2]
            y0 = states[j]
            k1 = slopes[j]
            k2 = rhs(t0 + 0.5 * dt, a_half, y0 + 0.5 * dt * k1, delayed[i + 1])
            k3 = rhs(t0 + 0.5 * dt, a_half, y0 + 0.5 * dt * k2, delayed[i + 1])
            k4 = rhs(t1, a_end, y0 + dt * k3, delayed[i + 2])
            y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_state(t1, y1)
            states[j + 1] = y1
            slopes[j + 1] = rhs(t1, a_end, y1, delayed[i + 2])

    if single:
        states, slopes = states[:, 0], slopes[:, 0]
    return Trajectory(init=init, times=times, states=states, slopes=slopes, dim_x=problem.dim_x)


def flow_unperturbed(problem: CoupledProblem, point, t: float) -> np.ndarray:
    """Flow of x' = 0, y' = a(t) g(x, y) from a point (d,) or from each row
    of a batch (N, d): integrate at lambda = 0 from the constant history at
    each point, all rows in one sweep, with a step of at most t / FLOW_STEPS."""
    if t < 0:
        raise InvalidParameterError(f"t must be >= 0, got {t}")
    points = np.atleast_1d(np.asarray(point, dtype=float))
    if t == 0.0:
        return points.copy()
    r = problem.delay
    # At lambda = 0 no delayed value enters the right-hand side, so the
    # coarsest history grid (m = 8) serves.
    init = History(r, np.broadcast_to(points, (9,) + points.shape).copy())
    steps_per_delay = max(8, math.ceil(FLOW_STEPS * r / t))
    return integrate(problem, 0.0, 1.0, init, t, steps_per_delay).states[-1]


def flow_averaged(problem: CoupledProblem, point, t: float) -> np.ndarray:
    """Flow of x' = 0, y' = <a> g(x, y): flow_unperturbed on the problem
    with a replaced by the constant <a>.  The two coincide at t = T."""
    averaged = replace(problem, a=PeriodicFn1D.constant(problem.abar, problem.period))
    return flow_unperturbed(averaged, point, t)
