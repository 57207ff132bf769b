"""Fixed-step RK4 integration of the coupled delay system by the method of
steps, with cubic Hermite dense output.

The step is h = r / steps_per_delay, so every delayed read lands inside an
already-completed segment (or the initial history) and every multiple of r
is a segment boundary, keeping the derivative discontinuities of the
solution aligned with segment joints.  So the delayed reads of a whole
delay interval lie on the history or on finished nodes, and are read at
its start; the part of the right-hand side that reads no current state is
evaluated on them there, once per interval.  Past the first interval
those reads are the finished nodes one delay back, as slices, and the
midpoints of their segments, in one call of the Hermite cubic
(problem._hermite_eval) on weights computed once per sweep with the
segment arithmetic of the package's one Hermite evaluator
(problem._hermite_array), which reads the history, a last interval
holding a shortened step, and dense output, with its node snap.

integrate holds the package's one RK4 loop, and its one right-hand side
is the problem's compiled stage (CoupledProblem.stage_at), in which a
Python field and the mu-homotopy's averaged drive are leaf nodes.  Each
stage writes its slopes into a buffer allocated once per sweep.  The
delay-free flows (flow_unperturbed, flow_averaged) are integrate at
lambda = 0 from the constant history at each point, and take a batch of
points as one sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BlowupError, InvalidParameterError
from .problem import CoupledProblem, History, PeriodicFn1D, _hermite_array, _hermite_eval, _hermite_weights, _sample_at

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


def _check_count(name: str, value, least: int):
    """Raise InvalidParameterError unless value is an int (Python or
    NumPy, not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")


def _check_state(t: float, state: np.ndarray, scratch: np.ndarray):
    """Blowup check on every row of a batch, its |state| written into
    scratch."""
    norm = np.maximum.reduce(np.absolute(state, out=scratch), axis=None)
    if not norm <= BLOWUP_THRESHOLD:  # also catches inf and nan
        raise BlowupError(t, float(norm), BLOWUP_THRESHOLD)


def integrate(
    problem: CoupledProblem,
    lam,
    mu: float,
    init: History,
    t_end: float,
    steps_per_delay: int,
) -> Trajectory:
    """Integrate the coupled system forward from a history by RK4 steps.

    Fixed step h = r / steps_per_delay (an integer >= 8); the final step is
    shortened to land exactly on t_end.  Every RK4 stage is one call of the
    step part of the problem's compiled stage at (lam, mu), for the whole
    batch, which writes its slopes into a buffer allocated once per sweep,
    or, at a node, into the trajectory's slopes.

    init may be a batch of B histories (values of shape (m+1, B, d)): the
    batch is integrated in one sweep as a (B, d) state array, each row
    exactly as it would be alone, and a blowup of any row ends the sweep.
    One history is the batch of one.  lam is a finite float >= 0, or a
    (B,) array of finite values > 0, one per row, each row again exactly
    as it would be alone at its own lambda.

    The delayed values of steps j .. j + steps_per_delay - 1 are read at
    every j that is a multiple of steps_per_delay.  At j = 0, and in a last
    interval holding a shortened step, they are one _hermite_array call on
    the history or the finished nodes.  Otherwise they are the nodes
    j - steps_per_delay .. j themselves, as slices, and the cubic of each
    of their segments at its midpoint, in one _hermite_eval call.  Its
    weights depend on the segment alone, and are computed once per sweep
    for every segment, with the segment arithmetic of _hermite_array and
    so its bits.  The right-hand
    side's state-free part is evaluated on them there, once per delay
    interval (the stage's interval part), at the stage times t0 + 0.5*dt
    and t1 of the loop's own arithmetic.  So a domain error of that part
    is raised at the start of its interval.  The coefficient a, which
    reads t alone, is read once per sweep, in one _sample_at call on every
    stage time, and each stage gets its value as a Python float.  The sweep
    runs under one np.errstate: NumPy's floating-point warnings are
    silenced, and a state that is inf, nan or above BLOWUP_THRESHOLD raises
    BlowupError, checked before its node's slope is computed.
    """
    if not 0.0 <= mu <= 1.0:
        raise InvalidParameterError(f"mu must be in [0, 1], got {mu}")
    if t_end <= 0:
        raise InvalidParameterError(f"t_end must be positive, got {t_end}")
    _check_count("steps_per_delay", steps_per_delay, 8)
    r = problem.delay
    if abs(init.delay - r) > 1e-12 * max(1.0, r):
        raise InvalidParameterError(
            f"history covers [-{init.delay}, 0] but the problem delay is {r}"
        )
    single = init.values.ndim == 2
    batch = History(init.delay, init.values[:, None]) if single else init
    if np.ndim(lam):
        lam = np.asarray(lam, dtype=float)
        if lam.shape != batch.values.shape[1:2] or not np.all(np.isfinite(lam) & (lam > 0.0)):
            raise InvalidParameterError(f"lambda per row must be {batch.values.shape[1]} finite values > 0, got {lam}")
    elif not (math.isfinite(lam) and lam >= 0):
        raise InvalidParameterError(f"lambda must be finite and >= 0, got {lam}")
    spd = steps_per_delay
    h = r / spd
    interval, step = problem.stage_at(lam, mu)
    prepare = partial(interval, lam)
    rhs = partial(step, lam, float(mu))

    n_full = int(np.floor(t_end / h + 1e-9))
    has_partial = t_end - n_full * h > 1e-12 * max(1.0, t_end)

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
    # The Hermite weights of the delayed read at the midpoint of each step
    # past the first interval, by the segment k it falls in (k = 0 ..
    # n_steps - spd - 1), with the arithmetic of _hermite_array.
    left = times[:max(n_steps - spd, 0)]
    width = times[1:len(left) + 1] - left
    col = (-1,) + (1,) * (states.ndim - 1)
    weights = np.array(_hermite_weights(((tau[2 * spd + 1::2][:len(left)] - left) / width).reshape(col),
                                        width.reshape(col)))

    def read(j: int):
        """The rows rhs reads at stage_t[2j : 2j + 2 spd + 1]: the delayed
        values there, prepared by the stage's interval part."""
        rows = slice(2 * j, 2 * (j + spd) + 1)
        if j and not (has_partial and j + spd >= n_steps):
            # Steps j .. j + n - 1 read nodes lo .. lo + n and the midpoints
            # of the n segments between them.
            n, lo = min(spd, n_steps - j), j - spd
            block = np.empty((2 * n + 1,) + states.shape[1:])
            block[0::2] = states[lo:lo + n + 1]
            block[1::2] = _hermite_eval(weights[:, lo:lo + n], states[lo:lo + n], slopes[lo:lo + n],
                                        states[lo + 1:lo + n + 1], slopes[lo + 1:lo + n + 1])
        else:
            nodes = (batch.grid, batch.values, batch.derivs) if j == 0 else (times[:j + 1], states[:j + 1], slopes[:j + 1])
            block = _hermite_array(*nodes, tau[rows])
        return prepare(stage_t[rows, None], block)

    with np.errstate(all="ignore"):
        at = _sample_at(problem.a, stage_t).tolist()  # a at every stage time
        state = batch.terminal()
        # The stage inputs, the slopes k2, k3, k4, and |y1| for the blowup check.
        y_in, k2, k3, k4, scratch = np.empty((5,) + state.shape)
        _check_state(0.0, state, scratch)
        states[0] = state
        delayed = read(0)
        rhs(0.0, at[0], state, delayed[0], slopes[0])
        for j in range(n_steps):
            i = 2 * (j % spd)
            if i == 0 and j:
                delayed = read(j)
            t0, t1 = node_times[j], node_times[j + 1]
            dt = t1 - t0  # exact (Sterbenz), so t0 + dt is t1
            a_half, a_end = at[2 * j + 1], at[2 * j + 2]
            y0, k1, y1 = states[j], slopes[j], states[j + 1]
            rhs(t0 + 0.5 * dt, a_half, np.add(y0, np.multiply(0.5 * dt, k1, out=y_in), out=y_in), delayed[i + 1], k2)
            rhs(t0 + 0.5 * dt, a_half, np.add(y0, np.multiply(0.5 * dt, k2, out=y_in), out=y_in), delayed[i + 1], k3)
            rhs(t1, a_end, np.add(y0, np.multiply(dt, k3, out=y_in), out=y_in), delayed[i + 2], k4)
            np.add(y0, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=y1)
            # _check_state inline: no Python call per step.
            norm = np.maximum.reduce(np.absolute(y1, out=scratch), axis=None)
            if not norm <= BLOWUP_THRESHOLD:
                raise BlowupError(t1, float(norm), BLOWUP_THRESHOLD)
            rhs(t1, a_end, y1, delayed[i + 2], slopes[j + 1])

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
